//! The JSON artifact store: `artifacts/run-<id>/` directories holding a run
//! manifest, record sets, outcome sets and aggregate summaries — everything
//! needed to re-render tables without re-running the sweep.
//!
//! Layout of one run directory:
//!
//! ```text
//! artifacts/run-<id>/
//!   manifest.json             # RunManifest: seed, config grid, version, cache stats
//!   records-<set>.json        # TranslationRecord array per record set
//!   summary-<set>.json        # AggregateStats per record set (optional)
//!   diagnostics.json          # diag.v1 per-scenario diagnostic history
//!   table4.json               # Table IV rows (table4 binary only)
//! ```
//!
//! Record-set names are caller-chosen slugs (e.g. `omp-to-cuda`, or
//! `cuda-to-omp-msc10-runs1` for grid sweeps) and are listed in the
//! manifest, so a loader can enumerate a run without globbing.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use lassi_core::{Table4Row, TranslationRecord};
use lassi_metrics::AggregateStats;

use crate::codec::{
    self, manifest_from_json, manifest_to_json, records_from_json, records_to_json, CodecError,
};
use crate::json::{self, Json, ParseError};
use crate::runstate::RunStatus;

/// Artifact schema version; bump on breaking layout changes.
pub const SCHEMA_VERSION: u32 = 1;

/// File name of a run's structured diagnostics document. Deliberately not a
/// manifest record set: record sets are `TranslationRecord` arrays that
/// `verify`/`--replay` decode, while this is a `diag.v1` document keyed by
/// scenario.
pub const DIAGNOSTICS_FILE: &str = "diagnostics.json";

/// Everything recorded about a run besides the records themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Caller-chosen run identifier (the `<id>` in `run-<id>/`).
    pub run_id: String,
    /// `lassi-harness` package version that wrote the artifact.
    pub package_version: String,
    /// `git rev-parse --short HEAD` at write time, when available.
    pub git_commit: Option<String>,
    /// Unix timestamp at write time; `None` keeps golden files stable.
    pub created_unix: Option<u64>,
    /// Base RNG seed of the sweep.
    pub seed: u64,
    /// Grid values swept for `timing_runs`.
    pub timing_runs: Vec<u32>,
    /// Grid values swept for `max_self_corrections`.
    pub max_self_corrections: Vec<u32>,
    /// Model names in sweep order.
    pub models: Vec<String>,
    /// Application names in sweep order.
    pub applications: Vec<String>,
    /// Direction slugs in sweep order.
    pub directions: Vec<String>,
    /// Record-set slugs present in the run directory.
    pub record_sets: Vec<String>,
    /// Total scenarios executed (or served from cache).
    pub scenarios: usize,
    /// Cache hits during the run (0 when no cache was attached).
    pub cache_hits: u64,
    /// Cache misses during the run.
    pub cache_misses: u64,
}

impl RunManifest {
    /// A manifest with only identity fields filled in; callers set the rest.
    pub fn new(run_id: impl Into<String>, seed: u64) -> RunManifest {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            run_id: run_id.into(),
            package_version: env!("CARGO_PKG_VERSION").to_string(),
            git_commit: None,
            created_unix: None,
            seed,
            timing_runs: Vec::new(),
            max_self_corrections: Vec::new(),
            models: Vec::new(),
            applications: Vec::new(),
            directions: Vec::new(),
            record_sets: Vec::new(),
            scenarios: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

/// True for identifiers safe to embed in a filename: non-empty ASCII
/// `[A-Za-z0-9._-]` and not composed entirely of dots (`.`/`..`), which
/// rules out traversal, empty segments and separators. This is the single
/// definition both the artifact store and the HTTP router validate against.
pub fn is_slug(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        && !s.bytes().all(|b| b == b'.')
}

/// Best-effort `git rev-parse --short HEAD`, for the manifest version field.
/// Runs `git` once per process and reuses the answer: a spawn costs
/// milliseconds on every artifact write, and all artifacts one process
/// writes should name the same commit.
pub fn detect_git_commit() -> Option<String> {
    static COMMIT: OnceLock<Option<String>> = OnceLock::new();
    COMMIT
        .get_or_init(|| {
            let output = std::process::Command::new("git")
                .args(["rev-parse", "--short", "HEAD"])
                .output()
                .ok()?;
            if !output.status.success() {
                return None;
            }
            let commit = String::from_utf8(output.stdout).ok()?.trim().to_string();
            (!commit.is_empty()).then_some(commit)
        })
        .clone()
}

/// Anything that can go wrong reading an artifact back.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file was not valid JSON.
    Json(ParseError),
    /// The JSON did not match the schema.
    Codec(CodecError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact JSON error: {e}"),
            ArtifactError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<ParseError> for ArtifactError {
    fn from(e: ParseError) -> Self {
        ArtifactError::Json(e)
    }
}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> Self {
        ArtifactError::Codec(e)
    }
}

/// The root of the artifact tree (default `artifacts/`).
pub struct ArtifactStore {
    root: PathBuf,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::new("artifacts")
    }
}

impl ArtifactStore {
    /// A store rooted at `root` (not created until a run is written).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ArtifactStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory a run id maps to.
    pub fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join(format!("run-{run_id}"))
    }

    /// The conventional scenario-cache directory inside this store.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// Create a *fresh* run directory and return a writer for it.
    ///
    /// Errors with [`io::ErrorKind::AlreadyExists`] when `run-<id>/` is
    /// already present: silently reusing it would mix record files from
    /// different runs into one artifact. Callers that intentionally
    /// regenerate a fixed run id use [`ArtifactStore::create_or_replace_run`].
    pub fn create_run(&self, run_id: &str) -> io::Result<RunWriter> {
        let dir = self.run_dir(run_id);
        if dir.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "run directory {} already exists; pick a fresh run id \
                     or replace the run explicitly",
                    dir.display()
                ),
            ));
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunWriter { dir })
    }

    /// Create a run directory, deleting any previous run under the same id
    /// first — the whole directory is replaced, never merged, so no stale
    /// record set from an earlier run can survive into the new artifact.
    pub fn create_or_replace_run(&self, run_id: &str) -> io::Result<RunWriter> {
        let dir = self.run_dir(run_id);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunWriter { dir })
    }

    /// Load a run by id.
    pub fn load_run(&self, run_id: &str) -> Result<RunArtifact, ArtifactError> {
        RunArtifact::load(self.run_dir(run_id))
    }

    /// Atomically claim `run-<id>` by creating its (empty) directory.
    ///
    /// Unlike [`ArtifactStore::create_run`]'s exists-then-create sequence,
    /// the single `create_dir` makes this race-free: of two concurrent
    /// claimants exactly one succeeds and the other gets
    /// [`io::ErrorKind::AlreadyExists`]. The HTTP service reserves the id
    /// this way *before* running a sweep, then writes into the claimed
    /// directory with [`ArtifactStore::create_or_replace_run`].
    pub fn reserve_run(&self, run_id: &str) -> io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        std::fs::create_dir(self.run_dir(run_id))
    }

    /// Delete a run directory and everything in it.
    ///
    /// Refuses ids that are not plain slugs ([`is_slug`]) with
    /// [`io::ErrorKind::InvalidInput`] — an id with a path separator or
    /// `..` must never reach the filesystem — and maps a missing run to
    /// [`io::ErrorKind::NotFound`]. A run that is still *live* is refused
    /// with [`io::ErrorKind::Other`]: a directory whose `state.json` says
    /// `queued`/`running`, or a bare reservation with neither a manifest
    /// nor a lifecycle file, may still be computed into — deleting it
    /// would let a second client re-reserve the id and race the first
    /// sweep's artifact write. Deletable runs are completed artifacts
    /// (manifest on disk) and terminally `failed`/`cancelled` runs (only a
    /// `state.json` remains). The scenario cache (`cache/`) is
    /// structurally out of reach: runs live under `run-<id>`, and this
    /// method only ever removes such a directory.
    pub fn delete_run(&self, run_id: &str) -> io::Result<()> {
        if !is_slug(run_id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("run id `{run_id}` is not a valid slug"),
            ));
        }
        let dir = self.run_dir(run_id);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("run `{run_id}` does not exist"),
            ));
        }
        if !dir.join("manifest.json").is_file() {
            let terminal = matches!(
                RunStatus::load(&dir), Ok(status) if status.state.is_terminal()
            );
            if !terminal {
                return Err(io::Error::other(format!(
                    "run `{run_id}` is still live (reserved, queued or \
                     running); refusing to delete an in-flight run"
                )));
            }
        }
        std::fs::remove_dir_all(dir)
    }

    /// The run ids present under the store root, sorted lexicographically.
    ///
    /// Only directories named `run-<id>` that contain a `manifest.json`
    /// count: the scenario cache (`cache/`), stray files and half-written
    /// runs are skipped. A missing store root is an empty store, not an
    /// error — nothing has been written yet.
    pub fn list_runs(&self) -> io::Result<Vec<String>> {
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut runs = Vec::new();
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_prefix("run-")) else {
                continue;
            };
            if !id.is_empty() && entry.path().join("manifest.json").is_file() {
                runs.push(id.to_string());
            }
        }
        runs.sort();
        Ok(runs)
    }

    /// Every run the store knows about — including queued, running, failed
    /// and cancelled runs that only have a `state.json` — as
    /// `(id, ScannedRun)`, sorted by id.
    ///
    /// [`ScannedRun::Legacy`] is an artifact written before lifecycle
    /// tracking (manifest but no `state.json`): callers should treat it as
    /// `done`. A torn or truncated `state.json` (a crash mid-write that
    /// never reached the rename) surfaces as [`ScannedRun::Corrupt`] so
    /// recovery can mark the run `failed` with a clear reason instead of
    /// silently skipping — or panicking over — it. Bare reservations
    /// (neither file) are skipped, the same way
    /// [`ArtifactStore::list_runs`] skips half-written runs.
    pub fn scan_runs(&self) -> io::Result<Vec<(String, ScannedRun)>> {
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut runs = Vec::new();
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_prefix("run-")) else {
                continue;
            };
            if id.is_empty() {
                continue;
            }
            match RunStatus::load(&entry.path()) {
                Ok(status) => runs.push((id.to_string(), ScannedRun::Status(status))),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    if entry.path().join("manifest.json").is_file() {
                        runs.push((id.to_string(), ScannedRun::Legacy));
                    }
                }
                Err(e) => runs.push((id.to_string(), ScannedRun::Corrupt(e.to_string()))),
            }
        }
        runs.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(runs)
    }
}

/// What [`ArtifactStore::scan_runs`] found inside one `run-<id>/`.
#[derive(Debug, Clone, PartialEq)]
pub enum ScannedRun {
    /// A readable `state.json`.
    Status(RunStatus),
    /// A pre-lifecycle artifact: manifest but no `state.json` (treat as
    /// `done`).
    Legacy,
    /// `state.json` exists but is torn, truncated or malformed; the string
    /// is the decode error.
    Corrupt(String),
}

/// Writes the files of one run directory.
pub struct RunWriter {
    dir: PathBuf,
}

impl RunWriter {
    /// The run directory being written.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn write_file(&self, name: &str, value: &Json) -> io::Result<()> {
        let mut text = value.to_pretty();
        text.push('\n');
        std::fs::write(self.dir.join(name), text)
    }

    /// Write `manifest.json`.
    pub fn write_manifest(&self, manifest: &RunManifest) -> io::Result<()> {
        self.write_file("manifest.json", &manifest_to_json(manifest))
    }

    /// Write one record set as `records-<set>.json`.
    pub fn write_records(&self, set: &str, records: &[TranslationRecord]) -> io::Result<()> {
        self.write_file(&format!("records-{set}.json"), &records_to_json(records))
    }

    /// Write one aggregate summary as `summary-<set>.json`.
    pub fn write_summary(&self, set: &str, stats: &AggregateStats) -> io::Result<()> {
        self.write_file(&format!("summary-{set}.json"), &codec::stats_to_json(stats))
    }

    /// Write the run's `diag.v1` diagnostics document as `diagnostics.json`.
    pub fn write_diagnostics(&self, document: &Json) -> io::Result<()> {
        self.write_file(DIAGNOSTICS_FILE, document)
    }

    /// Write Table IV rows as `table4.json`.
    pub fn write_table4(&self, rows: &[Table4Row]) -> io::Result<()> {
        let value = Json::Array(rows.iter().map(codec::table4_row_to_json).collect());
        self.write_file("table4.json", &value)
    }
}

/// A run directory loaded back from disk.
#[derive(Debug)]
pub struct RunArtifact {
    dir: PathBuf,
    /// The parsed manifest.
    pub manifest: RunManifest,
}

impl RunArtifact {
    /// Load `manifest.json` from a run directory.
    pub fn load(dir: impl Into<PathBuf>) -> Result<RunArtifact, ArtifactError> {
        let dir = dir.into();
        let text = std::fs::read_to_string(dir.join("manifest.json"))?;
        let manifest = manifest_from_json(&json::parse(&text)?)?;
        Ok(RunArtifact { dir, manifest })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read_json(&self, name: &str) -> Result<Json, ArtifactError> {
        let text = std::fs::read_to_string(self.dir.join(name))?;
        Ok(json::parse(&text)?)
    }

    /// Load one record set.
    pub fn records(&self, set: &str) -> Result<Vec<TranslationRecord>, ArtifactError> {
        Ok(records_from_json(
            &self.read_json(&format!("records-{set}.json"))?,
        )?)
    }

    /// Load one aggregate summary.
    pub fn summary(&self, set: &str) -> Result<AggregateStats, ArtifactError> {
        Ok(codec::stats_from_json(
            &self.read_json(&format!("summary-{set}.json"))?,
        )?)
    }

    /// Load Table IV rows.
    pub fn table4(&self) -> Result<Vec<Table4Row>, ArtifactError> {
        self.read_json("table4.json")?
            .as_array()
            .ok_or_else(|| CodecError("table4.json must be an array".into()).into())
            .and_then(|rows| {
                rows.iter()
                    .map(|r| codec::table4_row_from_json(r).map_err(ArtifactError::from))
                    .collect()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_core::{Direction, PipelineConfig};
    use lassi_hecbench::application;
    use lassi_llm::gpt4;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_root(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lassi-store-test-{}-{label}-{n}",
            std::process::id()
        ))
    }

    #[test]
    fn run_round_trips_through_disk() {
        let root = test_root("roundtrip");
        let store = ArtifactStore::new(&root);
        let config = PipelineConfig {
            timing_runs: 1,
            ..PipelineConfig::default()
        };
        let record = lassi_core::run_scenario(
            &gpt4(),
            &application("layout").unwrap(),
            Direction::CudaToOmp,
            &config,
        );
        let records = vec![record];
        let outcomes = lassi_core::scenario_outcomes(&records);
        let stats = AggregateStats::from_outcomes(&outcomes);

        let mut manifest = RunManifest::new("test", config.seed);
        manifest.timing_runs = vec![1];
        manifest.max_self_corrections = vec![config.max_self_corrections];
        manifest.models = vec!["GPT-4".into()];
        manifest.applications = vec!["layout".into()];
        manifest.directions = vec![Direction::CudaToOmp.slug().into()];
        manifest.record_sets = vec!["cuda-to-omp".into()];
        manifest.scenarios = 1;

        let writer = store.create_run("test").unwrap();
        writer.write_manifest(&manifest).unwrap();
        writer.write_records("cuda-to-omp", &records).unwrap();
        writer.write_summary("cuda-to-omp", &stats).unwrap();

        let loaded = store.load_run("test").unwrap();
        assert_eq!(loaded.manifest, manifest);
        assert_eq!(loaded.records("cuda-to-omp").unwrap(), records);
        assert_eq!(loaded.summary("cuda-to-omp").unwrap(), stats);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn table4_rows_round_trip() {
        let root = test_root("table4");
        let store = ArtifactStore::new(&root);
        let rows = vec![Table4Row {
            category: "Math".into(),
            application: "jacobi".into(),
            runtime_args: "[]".into(),
            cuda_seconds: 0.25,
            omp_seconds: 1.5,
        }];
        let writer = store.create_run("t4").unwrap();
        writer.write_table4(&rows).unwrap();
        writer.write_manifest(&RunManifest::new("t4", 0)).unwrap();
        let loaded = store.load_run("t4").unwrap();
        assert_eq!(loaded.table4().unwrap(), rows);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn creating_an_existing_run_errors_and_replace_starts_clean() {
        let root = test_root("collision");
        let store = ArtifactStore::new(&root);
        let writer = store.create_run("dup").unwrap();
        writer.write_manifest(&RunManifest::new("dup", 0)).unwrap();
        std::fs::write(writer.dir().join("records-stale.json"), "[]").unwrap();

        // A second run under the same id must not merge into the first.
        match store.create_run("dup") {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
            Ok(_) => panic!("colliding create_run must error"),
        }

        // Replacing wipes the stale files rather than mixing them in.
        let writer = store.create_or_replace_run("dup").unwrap();
        writer.write_manifest(&RunManifest::new("dup", 1)).unwrap();
        assert!(!writer.dir().join("records-stale.json").exists());
        assert_eq!(store.load_run("dup").unwrap().manifest.seed, 1);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reserve_run_claims_atomically_and_is_not_listed() {
        let root = test_root("reserve");
        let store = ArtifactStore::new(&root);
        store.reserve_run("claimed").unwrap();
        assert_eq!(
            store.reserve_run("claimed").unwrap_err().kind(),
            std::io::ErrorKind::AlreadyExists,
            "the second claimant must lose"
        );
        // A reserved-but-unwritten run has no manifest yet, so it does not
        // surface in listings.
        assert_eq!(store.list_runs().unwrap(), Vec::<String>::new());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn list_runs_is_sorted_and_skips_non_run_entries() {
        let root = test_root("list");
        let store = ArtifactStore::new(&root);
        assert_eq!(store.list_runs().unwrap(), Vec::<String>::new());

        for id in ["zeta", "alpha", "mid"] {
            let writer = store.create_run(id).unwrap();
            writer.write_manifest(&RunManifest::new(id, 0)).unwrap();
        }
        // Non-run clutter that must be skipped: the scenario cache, a stray
        // file, a run directory with no manifest, and an unrelated directory.
        std::fs::create_dir_all(root.join("cache")).unwrap();
        std::fs::create_dir_all(root.join("run-halfwritten")).unwrap();
        std::fs::create_dir_all(root.join("not-a-run")).unwrap();
        std::fs::write(root.join("run-file"), "not a directory").unwrap();

        assert_eq!(store.list_runs().unwrap(), vec!["alpha", "mid", "zeta"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn delete_run_removes_exactly_one_run() {
        let root = test_root("delete");
        let store = ArtifactStore::new(&root);
        for id in ["keep", "gone"] {
            let writer = store.create_run(id).unwrap();
            writer.write_manifest(&RunManifest::new(id, 0)).unwrap();
        }
        std::fs::create_dir_all(store.cache_dir()).unwrap();

        store.delete_run("gone").unwrap();
        assert_eq!(store.list_runs().unwrap(), vec!["keep"]);
        assert!(store.cache_dir().is_dir(), "the cache is untouched");

        // Missing runs are NotFound; malformed ids never hit the filesystem.
        assert_eq!(
            store.delete_run("gone").unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        for bad in ["", ".", "..", "a/b", "../keep"] {
            assert_eq!(
                store.delete_run(bad).unwrap_err().kind(),
                std::io::ErrorKind::InvalidInput,
                "{bad:?}"
            );
        }

        // A reserved (manifest-less) run is in flight: deleting it would
        // let a second client re-reserve the id mid-sweep, so it is refused.
        store.reserve_run("inflight").unwrap();
        assert_eq!(
            store.delete_run("inflight").unwrap_err().kind(),
            std::io::ErrorKind::Other
        );
        assert!(store.run_dir("inflight").is_dir(), "reservation survives");

        assert_eq!(store.list_runs().unwrap(), vec!["keep"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_runs_surfaces_torn_state_files() {
        let root = test_root("scan");
        let store = ArtifactStore::new(&root);

        let good = root.join("run-good");
        std::fs::create_dir_all(&good).unwrap();
        crate::runstate::RunStatus::queued("good", 4)
            .save(&good)
            .unwrap();

        let legacy = root.join("run-legacy");
        std::fs::create_dir_all(&legacy).unwrap();
        std::fs::write(legacy.join("manifest.json"), "{}\n").unwrap();

        // A torn write: the process died mid-`state.json.tmp` and the
        // rename never happened — but a *partial* direct write is the
        // worst case, so simulate that.
        let torn = root.join("run-torn");
        std::fs::create_dir_all(&torn).unwrap();
        let full = crate::runstate::RunStatus::queued("torn", 4)
            .to_json()
            .to_pretty();
        std::fs::write(torn.join("state.json"), &full[..full.len() / 2]).unwrap();

        // A bare reservation stays invisible.
        std::fs::create_dir_all(root.join("run-bare")).unwrap();

        let scanned = store.scan_runs().unwrap();
        let ids: Vec<&str> = scanned.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["good", "legacy", "torn"]);
        assert!(matches!(&scanned[0].1, ScannedRun::Status(s) if s.run_id == "good"));
        assert_eq!(scanned[1].1, ScannedRun::Legacy);
        assert!(
            matches!(&scanned[2].1, ScannedRun::Corrupt(_)),
            "torn state.json must surface, not be skipped: {:?}",
            scanned[2].1
        );

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn loading_a_missing_run_is_an_io_error() {
        let store = ArtifactStore::new(test_root("missing"));
        match store.load_run("nope") {
            Err(ArtifactError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
