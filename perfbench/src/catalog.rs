//! The metric catalogue: every end-to-end metric an untraced run prints and
//! every per-layer metric a traced run prints, by name and unit. Every
//! workload prints every metric of its mode; a layer the workload does not
//! touch reads 0. `BENCHMARK.json` lists the same names (a test pins that).

use std::collections::BTreeMap;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("scenarios_per_s", "scenarios/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The ten applications, for the per-application replay metrics.
pub const APPS: &[&str] = &[
    "matrix-rotate",
    "jacobi",
    "layout",
    "atomicCost",
    "dense-embedding",
    "pathfinder",
    "bsearch",
    "entropy",
    "colorwheel",
    "randomAccess",
];

/// Per-layer metrics other than the per-application ones: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("result_ms.p50", "ms"),
    ("result_ms.p90", "ms"),
    ("lang.parse_calls", "count"),
    ("lang.parse_s", "s"),
    ("sema.check_calls", "count"),
    ("sema.check_s", "s"),
    ("sema.findings", "count"),
    ("llm.completions", "count"),
    ("llm.s", "s"),
    ("llm.prompt_tokens", "tokens"),
    ("llm.response_tokens", "tokens"),
    ("runtime.compile_calls", "count"),
    ("runtime.compile_s", "s"),
    ("runtime.execute_s", "s"),
    ("runtime.vm_runs", "count"),
    ("runtime.vm_s", "s"),
    ("runtime.vm_steps", "count"),
    ("runtime.ops", "count"),
    ("runtime.bytes_moved", "bytes"),
    ("runtime.allocations", "count"),
    ("runtime.replay_programs", "count"),
    ("runtime.replay_errors", "count"),
    ("gpusim.run_s", "s"),
    ("ompsim.run_s", "s"),
    ("metrics.similarity_calls", "count"),
    ("metrics.similarity_s", "s"),
    ("core.stage_s", "s"),
    ("core.execute_share", "ratio"),
    ("core.front_share", "ratio"),
    ("core.program_cache.hits", "count"),
    ("core.program_cache.misses", "count"),
    ("core.program_cache.entries", "count"),
    ("core.program_cache.bytes", "bytes"),
    ("core.report_cache.hits", "count"),
    ("core.report_cache.misses", "count"),
    ("core.report_cache.entries", "count"),
    ("core.report_cache.dup_runs", "count"),
    ("core.repair_rounds", "count"),
    ("core.scenario_ms.p50", "ms"),
    ("core.scenario_ms.p90", "ms"),
    ("harness.queue_wait_s", "s"),
    ("harness.busy_share", "ratio"),
    ("harness.tail_s", "s"),
    ("harness.cache.lookups", "count"),
    ("harness.cache.hits", "count"),
    ("harness.cache.misses", "count"),
    ("harness.cache.stores", "count"),
    ("harness.cache.hit_ratio", "ratio"),
    ("harness.cache.flush_s", "s"),
    ("harness.store.write_s", "s"),
    ("harness.store.bytes", "bytes"),
    ("server.submit_ms.p50", "ms"),
    ("server.submit_ms.p90", "ms"),
    ("server.poll_ms.p50", "ms"),
    ("server.polls_per_sweep", "count"),
    ("server.sweep_ms.p50", "ms"),
    ("server.sweep_ms.p90", "ms"),
    ("server.read_ms.p50", "ms"),
    ("server.read_ms.p90", "ms"),
    ("server.run_exec_ms.p50", "ms"),
    ("server.run_exec_ms.p90", "ms"),
    ("server.run_wait_ms.p50", "ms"),
    ("server.connections_opened", "count"),
    ("server.refusals", "count"),
    ("server.http_requests", "count"),
    ("server.job_queue_wait_s", "s"),
    ("server.job_execute_s", "s"),
    ("server.backlog_end", "count"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.lag_p90_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("bench.workload_confirmed", "bool"),
];

/// Every per-layer metric: (name, unit), in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    let at = all
        .iter()
        .position(|(name, _)| name == "runtime.replay_errors")
        .expect("catalogue lists runtime.replay_errors")
        + 1;
    for (i, app) in APPS.iter().enumerate() {
        all.insert(at + i, (format!("runtime.vm_s.{app}"), "s"));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_harness::Json;

    #[test]
    fn apps_match_the_benchmark_suite() {
        let names: Vec<&str> = lassi_hecbench::applications()
            .iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(names, APPS);
    }

    /// The catalogue and the committed BENCHMARK.json name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = lassi_harness::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(listed("end_to_end"), owned(e2e));
        assert_eq!(listed("per_layer"), owned(per_layer()));
    }
}
