//! `perfbench` — the repository's benchmark: end-to-end metrics of three
//! workloads against the release build, and a traced run that breaks them
//! down by layer.
//!
//! ```text
//! perfbench --workload grid-cold|repair-heavy|serve-cached --seed N
//!           --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The seed only reorders or draws from a fixed body of work (job
//! submission order on the batch workloads, which pool sweep each
//! open-loop slot submits on `serve-cached`), so runs under different seeds
//! measure the same work and their records can be checked against one
//! expected digest. `--trace 0` prints every end-to-end metric; `--trace 1`
//! prints every per-layer metric and writes the run's spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. The last line of stdout
//! is the result object; the process exits 1 when any output check or the
//! cold guard failed. `--smoke` shrinks every workload to a few seconds
//! (used by the tests; its numbers are not comparable).
//!
//! Two internal modes serve the workloads: `perfbench child …` runs one
//! batch repetition in a fresh process, and `perfbench serve …` runs the
//! HTTP service exactly as the `serve` binary does with its default flags.

mod batch;
mod catalog;
mod prom;
mod replay;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::Child;
use std::time::{Duration, Instant};

use lassi_harness::Json;

use crate::catalog::Layers;
use crate::trace::Trace;

/// Parsed command line of a benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .ok_or("bad --seconds")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub layers: Layers,
    pub notes: Vec<(String, Json)>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &str, value: u64) {
        self.notes.push((key.to_string(), Json::uint(value)));
    }

    /// `result_ms.p50` and `result_ms.p90` (per-layer) from latency
    /// samples. A p90 with fewer than ten samples beyond it is a benchmark
    /// fault, not a number.
    pub fn latency(&mut self, samples_ms: &[f64], smoke: bool) {
        let p90 = stats::tail_percentile(samples_ms, 0.9).unwrap_or_else(|| {
            eprintln!(
                "perfbench: only {} latency samples; p90 needs {} beyond it",
                samples_ms.len(),
                stats::MIN_TAIL
            );
            if !smoke {
                self.attempted += 1;
                self.failed += 1;
            }
            stats::percentile(samples_ms, 0.9)
        });
        let p50 = stats::percentile(samples_ms, 0.5);
        self.layers.insert("result_ms.p50".into(), p50);
        self.layers.insert("result_ms.p90".into(), p90);
        self.note("latency_samples", samples_ms.len() as u64);
    }
}

/// Nanoseconds since the Unix epoch: the one clock a parent and its child
/// process can both read.
pub fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of `/proc/<pid>`, in MiB (0 if unreadable).
pub fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: a tiny, well-mixed generator for seeded input choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The benchmark's output directory (inside its own package).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A fresh scratch directory for one run of `workload`.
pub fn scratch_dir(workload: &str) -> PathBuf {
    let dir = out_dir().join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Wait for a child process; kill it (and still reap it) at the deadline.
/// True when it exited successfully in time.
pub fn wait_with_deadline(mut child: Child, deadline: Duration) -> bool {
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if started.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

fn provenance(args: &Args, outcome: &Outcome) -> Json {
    let mut fields = vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::uint(args.seed)),
        ("seconds".into(), Json::uint(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "available_parallelism".into(),
            Json::uint(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "git_rev".into(),
            Json::Str(lassi_harness::detect_git_commit().unwrap_or_else(|| "unknown".into())),
        ),
    ];
    fields.extend(outcome.notes.iter().cloned());
    Json::Object(fields)
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "grid-cold" => batch::run(args, batch::Kind::GridCold),
        "repair-heavy" => batch::run(args, batch::Kind::RepairHeavy),
        "serve-cached" => service::run(args),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (grid-cold, repair-heavy, serve-cached)"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let internal = match argv.first().map(String::as_str) {
        Some("child") => Some(batch::child_main(&argv[1..])),
        Some("serve") => Some(service::serve_main(&argv[1..])),
        _ => None,
    };
    if let Some(result) = internal {
        if let Err(message) = result {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        std::process::exit(1);
    }
    let outcome = run(&args);

    let metrics: Vec<(String, Json)> = if args.trace {
        catalog::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.layers.get(&name).copied().unwrap_or(0.0);
                (name, value_json(value, unit))
            })
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .expect("every workload reports every end-to-end metric");
                (name.to_string(), value_json(value, unit))
            })
            .collect()
    };
    if let Some(trace) = &outcome.trace {
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match trace.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("provenance {}", provenance(&args, &outcome).to_compact());
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::uint(outcome.attempted.max(1))),
        ("failed".into(), Json::uint(outcome.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{}", result.to_compact());
    if !correct {
        std::process::exit(1);
    }
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::Object(vec![
        (
            "value".into(),
            Json::Float(if value.is_finite() { value } else { 0.0 }),
        ),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(80, 7);
        assert_eq!(a, shuffled(80, 7));
        assert_ne!(a, shuffled(80, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv("--workload grid-cold --seed 3 --seconds 5 --trace 1"))
            .expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (3, 5, true));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
