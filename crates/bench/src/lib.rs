//! # lassi-bench
//!
//! Benchmark harness for the LASSI reproduction:
//!
//! * **table-regeneration binaries** (`cargo run -p lassi-bench --bin <name>
//!   --release`): `table4`, `table5`, `table6`, `table7`, `summary`,
//!   `prompts` and `case_studies` print the corresponding tables / statistics
//!   from the paper. The scenario-driven ones (`table4`, `table6`, `table7`,
//!   `summary`) run through the `lassi-harness` experiment service, save a
//!   JSON artifact under `artifacts/run-<id>/`, and accept
//!   `--replay <run-dir>` to re-render a saved artifact byte-identically
//!   without re-running anything.
//! * **`sweep`**: arbitrary config-grid sweeps (models × apps × directions ×
//!   `max_self_corrections` × `timing_runs`) with a persistent scenario
//!   cache; `sweep smoke` is the self-checking CI entry point.
//! * **`serve`, `worker` and `loadgen`**: the HTTP service, a remote
//!   fleet worker, and a self-checking load generator for the service.
//!
//! Speed is measured by the separate `perfbench` package (declared in
//! `BENCHMARK.json`), not by this crate.

use std::path::PathBuf;

use lassi_core::PipelineConfig;
use lassi_harness::{ArtifactStore, Harness, HarnessOptions, ScenarioCache};

/// Shared pipeline configuration used by every table binary so the numbers in
/// the tables are regenerated identically run-to-run.
pub fn default_config() -> PipelineConfig {
    PipelineConfig::default()
}

/// Format seconds the way the paper's tables do (four decimal places).
pub fn fmt_seconds(seconds: f64) -> String {
    format!("{seconds:.4}")
}

/// Flags shared by the harness-backed binaries.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--replay <run-dir>`: render from a saved artifact, run nothing.
    pub replay: Option<PathBuf>,
    /// `--artifacts <dir>`: artifact root (default `artifacts/`).
    pub artifacts: PathBuf,
    /// `--no-cache` disables the scenario cache; default is a disk cache at
    /// `<artifacts>/cache`.
    pub use_cache: bool,
    /// `--workers <n>`: worker threads (0 = all cores).
    pub workers: usize,
    /// Everything not consumed above, in order.
    pub rest: Vec<String>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            replay: None,
            artifacts: PathBuf::from("artifacts"),
            use_cache: true,
            workers: 0,
            rest: Vec::new(),
        }
    }
}

/// Parse the shared flags out of an argument list. Unrecognised arguments
/// are preserved in `rest` for the binary's own flags.
pub fn parse_common_args<I: IntoIterator<Item = String>>(args: I) -> Result<CommonArgs, String> {
    let mut parsed = CommonArgs::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--replay" => {
                let dir = iter.next().ok_or("--replay needs a run directory")?;
                parsed.replay = Some(PathBuf::from(dir));
            }
            "--artifacts" => {
                let dir = iter.next().ok_or("--artifacts needs a directory")?;
                parsed.artifacts = PathBuf::from(dir);
            }
            "--no-cache" => parsed.use_cache = false,
            "--workers" => {
                let n = iter.next().ok_or("--workers needs a count")?;
                parsed.workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
            }
            _ => parsed.rest.push(arg),
        }
    }
    Ok(parsed)
}

/// The artifact store the shared flags select.
pub fn artifact_store(common: &CommonArgs) -> ArtifactStore {
    ArtifactStore::new(&common.artifacts)
}

/// Build the experiment service the shared flags select (worker count plus
/// an optional disk cache under the artifact root).
pub fn build_harness(common: &CommonArgs) -> Result<Harness, String> {
    let options = HarnessOptions::default().with_workers(common.workers);
    let harness = Harness::new(options);
    if common.use_cache {
        let dir = artifact_store(common).cache_dir();
        let cache = ScenarioCache::on_disk(&dir)
            .map_err(|e| format!("cannot open scenario cache at {}: {e}", dir.display()))?;
        Ok(harness.with_cache(cache))
    } else {
        Ok(harness)
    }
}

/// Shared driver for `table6` / `table7`: run one direction sweep through
/// the harness and save an artifact, or `--replay` a saved one. Returns the
/// rendered table for stdout; progress notes go to stderr so replayed and
/// live output stay byte-comparable.
pub fn direction_table_bin(
    direction: lassi_core::Direction,
    run_id: &str,
    args: Vec<String>,
) -> Result<String, String> {
    use lassi_core::direction_table;

    let common = parse_common_args(args)?;
    if let Some(extra) = common.rest.first() {
        return Err(format!("unknown argument `{extra}`"));
    }
    let set = direction.slug();

    if let Some(dir) = &common.replay {
        let artifact = lassi_harness::RunArtifact::load(dir).map_err(|e| e.to_string())?;
        let records = artifact.records(set).map_err(|e| e.to_string())?;
        return Ok(direction_table(direction, &records));
    }

    let config = default_config();
    let harness = build_harness(&common)?;
    let models = lassi_llm::all_models();
    let apps = lassi_hecbench::applications();
    let records = harness.run_direction_with(direction, &config, &models, &apps);

    let outcomes = lassi_core::scenario_outcomes(&records);
    let stats = lassi_metrics::AggregateStats::from_outcomes(&outcomes);
    let snapshot = harness.cache_snapshot();

    let grid = lassi_harness::SweepGrid::single(config, models, apps, vec![direction]);
    let manifest = grid.manifest(run_id, vec![set.to_string()], records.len(), snapshot);

    let store = artifact_store(&common);
    // Fixed run id, intentionally regenerated on every invocation: replace
    // the previous run wholesale rather than merging files into it.
    let writer = store
        .create_or_replace_run(run_id)
        .map_err(|e| e.to_string())?;
    writer
        .write_manifest(&manifest)
        .map_err(|e| e.to_string())?;
    writer
        .write_records(set, &records)
        .map_err(|e| e.to_string())?;
    writer
        .write_summary(set, &stats)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "artifact saved to {} (cache: {} hits / {} misses); \
         re-render with --replay {0}",
        writer.dir().display(),
        snapshot.hits,
        snapshot.misses,
    );

    Ok(direction_table(direction, &records))
}

/// Seconds since the Unix epoch (artifact manifests, run ids).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_matches_table_style() {
        assert_eq!(fmt_seconds(1.24401), "1.2440");
        assert_eq!(fmt_seconds(0.0032), "0.0032");
    }

    #[test]
    fn default_config_is_reproducible() {
        assert_eq!(default_config().seed, PipelineConfig::default().seed);
    }

    #[test]
    fn common_args_parse_and_preserve_rest() {
        let args = [
            "--workers",
            "4",
            "--smoke",
            "--artifacts",
            "out",
            "--no-cache",
            "--models",
            "GPT-4",
        ]
        .map(String::from);
        let parsed = parse_common_args(args).unwrap();
        assert_eq!(parsed.workers, 4);
        assert_eq!(parsed.artifacts, PathBuf::from("out"));
        assert!(!parsed.use_cache);
        assert!(parsed.replay.is_none());
        assert_eq!(parsed.rest, vec!["--smoke", "--models", "GPT-4"]);
    }

    #[test]
    fn common_args_report_missing_values() {
        assert!(parse_common_args(["--replay".to_string()]).is_err());
        assert!(parse_common_args(["--workers".into(), "many".into()]).is_err());
    }
}
