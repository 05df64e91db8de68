//! Smoke sizes of every workload, end to end through the binary: each run
//! must pass its own output checks and print exactly the metrics that
//! BENCHMARK.json lists for its mode.

use std::process::Command;

use lassi_harness::Json;

fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = lassi_harness::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    lassi_harness::json::parse(last).expect("the last line is JSON")
}

fn check(workload: &str) {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let Some(Json::Object(metrics)) = result.get("metrics") else {
            panic!("metrics object missing");
        };
        let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(names, listed(key), "{workload} --trace {trace}");
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: {metric:?}");
        }
        if trace == "0" {
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64).unwrap();
                assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
            }
        } else {
            // Whether the traced run confirms the workload's reason for
            // existing is a timing share; at smoke size it is only checked
            // to be a verdict.
            let confirmed = metrics
                .iter()
                .find(|(k, _)| k == "bench.workload_confirmed")
                .and_then(|(_, m)| m.get("value").and_then(Json::as_f64));
            assert!(matches!(confirmed, Some(v) if v == 0.0 || v == 1.0));
        }
    }
}

#[test]
fn grid_cold_smoke() {
    check("grid-cold");
}

#[test]
fn repair_heavy_smoke() {
    check("repair-heavy");
}

#[test]
fn serve_cached_smoke() {
    check("serve-cached");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
