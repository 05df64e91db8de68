//! Process-wide compiled-program and execution-report caches.
//!
//! A full Table-IV grid compiles and runs 730 programs, but only a handful
//! are *distinct* — every scenario re-runs the same reference sources and
//! the simulated LLM emits the same translations. Lowering to bytecode is
//! cheap but not free, so compiled programs are cached process-wide, keyed
//! the same way the harness scenario cache keys runs: a stable FNV-1a hash
//! over the canonical printed program, its dialect and every
//! [`RunConfig`] knob that could influence compilation.
//!
//! Execution goes one step further: the simulator is *fully deterministic*
//! (no wall clock, no randomness — simulated time is a pure function of the
//! step and cost accounting), so re-running an identical program under an
//! identical `RunConfig` on an identical machine reproduces the previous
//! [`ExecutionReport`] bit for bit. [`get_or_run`] memoizes those reports —
//! including `ExecError` outcomes, which are the *expensive* ones (a
//! step-limit kill burns the whole budget every time) — turning the grid's
//! 730 executions into one VM run per distinct program.
//!
//! Both caches are single-flight: each key owns a slot that is filled at
//! most once, and a lookup that arrives while another thread fills it waits
//! for that result instead of duplicating the work.
//!
//! Hit/miss/size counters for both caches are exported through
//! `/v1/cache/stats`, the metrics registry (`lassi_program_cache_*`,
//! `lassi_report_cache_*`) and `sweep --timings`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lassi_lang::printer::print_program;
use lassi_lang::Program;
use lassi_runtime::{CompiledProgram, ExecutionReport, RunConfig};

use crate::config::fnv1a64;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

static REPORT_HITS: AtomicU64 = AtomicU64::new(0);
static REPORT_MISSES: AtomicU64 = AtomicU64::new(0);
static REPORT_BYTES: AtomicU64 = AtomicU64::new(0);

/// A memoized execution outcome: the report, or the rendered error the
/// pipeline would surface. Both are deterministic for a given key.
type CachedRun = Result<ExecutionReport, String>;

/// A cache table: one slot per key, filled at most once.
type Slots<T> = Mutex<HashMap<u64, Arc<OnceLock<T>>>>;

fn cache() -> &'static Slots<Arc<CompiledProgram>> {
    static CACHE: OnceLock<Slots<Arc<CompiledProgram>>> = OnceLock::new();
    CACHE.get_or_init(Slots::default)
}

fn report_cache() -> &'static Slots<CachedRun> {
    static CACHE: OnceLock<Slots<CachedRun>> = OnceLock::new();
    CACHE.get_or_init(Slots::default)
}

/// The value cached under `key`, computing it with `compute` if no thread
/// has; the flag is true when this call computed it. The table lock is not
/// held while computing: a concurrent lookup of the same key blocks on the
/// key's slot until the one computation finishes.
fn single_flight<T: Clone>(slots: &Slots<T>, key: u64, compute: impl FnOnce() -> T) -> (T, bool) {
    let mut table = slots
        .lock()
        .expect("no code panics while holding a table lock");
    let slot = Arc::clone(table.entry(key).or_default());
    drop(table);
    let mut computed = false;
    let value = slot
        .get_or_init(|| {
            computed = true;
            compute()
        })
        .clone();
    (value, computed)
}

/// Filled slots (a slot still being computed is not an entry yet).
fn entries<T>(slots: &Slots<T>) -> u64 {
    let table = slots
        .lock()
        .expect("no code panics while holding a table lock");
    table.values().filter(|slot| slot.get().is_some()).count() as u64
}

/// Counters describing the compiled-program cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Compiles (or runs) actually performed. The caches are single-flight,
    /// so this is exactly one per distinct key and equals `entries` once no
    /// computation is in flight; `misses − entries` (perfbench's
    /// `core.report_cache.dup_runs`) is zero at rest.
    pub misses: u64,
    /// Distinct compiled programs currently cached.
    pub entries: u64,
    /// Approximate retained size of all cached programs, in bytes.
    pub approx_bytes: u64,
}

impl ProgramCacheStats {
    /// Hit fraction over all lookups so far (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Stable cache key for a checked program under a run configuration.
///
/// Hashes the canonical printed form (not the source text), so textual
/// variation that parses identically — whitespace, comments — shares one
/// compiled program.
pub fn cache_key(program: &Program, config: &RunConfig, argc: usize) -> u64 {
    let canonical = format!(
        "v1;dialect={:?};step_limit={};host_op={:016x};startup={:016x};argc={argc};{}",
        program.dialect,
        config.step_limit,
        config.host_op_seconds.to_bits(),
        config.startup_seconds.to_bits(),
        print_program(program)
    );
    fnv1a64(canonical.as_bytes())
}

/// Fetch the compiled form of `program`, lowering it on first sight. `key`
/// is its [`cache_key`] under the run configuration and `argc` it will run
/// with; the caller computes it once and reuses it for [`report_key`].
pub fn get_or_compile(key: u64, program: &Program, argc: usize) -> Arc<CompiledProgram> {
    let (compiled, computed) = single_flight(cache(), key, || {
        Arc::new(lassi_runtime::compile(program, argc))
    });
    if computed {
        MISSES.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(compiled.approx_bytes(), Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    compiled
}

/// Key for a memoized execution report: the compiled-program key plus the
/// fingerprint of the simulated machine the run targets. Everything else
/// that could change the outcome (program text, dialect, `RunConfig` knobs,
/// argc) is already folded into the program key.
pub fn report_key(program_key: u64, machine_fingerprint: &str) -> u64 {
    fnv1a64(format!("run;prog={program_key:016x};machine={machine_fingerprint}").as_bytes())
}

/// Fetch the memoized outcome of executing the program behind `key`, running
/// `run` on first sight.
///
/// Sound because execution is deterministic: the simulator consumes no wall
/// clock and no randomness, so a (program, config, machine) triple always
/// produces the same report — the grid's three timing runs per scenario and
/// its cross-scenario repeats of the same baseline program are bit-identical
/// replays. Errors are memoized too: a step-limit kill re-burns the entire
/// step budget on every replay, making failed programs the most expensive
/// ones to re-execute.
pub fn get_or_run(key: u64, run: impl FnOnce() -> CachedRun) -> CachedRun {
    let (outcome, computed) = single_flight(report_cache(), key, run);
    if computed {
        let approx = std::mem::size_of::<ExecutionReport>()
            + match &outcome {
                Ok(report) => report.stdout.len(),
                Err(message) => message.len(),
            };
        REPORT_MISSES.fetch_add(1, Ordering::Relaxed);
        REPORT_BYTES.fetch_add(approx as u64, Ordering::Relaxed);
    } else {
        REPORT_HITS.fetch_add(1, Ordering::Relaxed);
    }
    outcome
}

/// Current compiled-program cache counters.
pub fn stats() -> ProgramCacheStats {
    ProgramCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: entries(cache()),
        approx_bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Current execution-report cache counters (same shape as the program
/// cache's, so callers can render both with one code path).
pub fn report_stats() -> ProgramCacheStats {
    ProgramCacheStats {
        hits: REPORT_HITS.load(Ordering::Relaxed),
        misses: REPORT_MISSES.load(Ordering::Relaxed),
        entries: entries(report_cache()),
        approx_bytes: REPORT_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};
    use std::time::{Duration, Instant};

    #[test]
    fn second_lookup_hits_and_shares_the_compiled_program() {
        let program = parse(
            "int main() { int trigram_progcache_test = 1; return 0; }",
            Dialect::CudaLite,
        )
        .unwrap();
        let config = RunConfig::default();
        let before = stats();
        let key = cache_key(&program, &config, 0);
        let first = get_or_compile(key, &program, 0);
        let second = get_or_compile(key, &program, 0);
        assert!(Arc::ptr_eq(&first, &second));
        let after = stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
        assert!(after.entries >= 1);
        assert!(after.approx_bytes > 0);
    }

    #[test]
    fn key_separates_dialect_argc_and_knobs() {
        let cuda = parse("int main() { return 0; }", Dialect::CudaLite).unwrap();
        let omp = parse("int main() { return 0; }", Dialect::OmpLite).unwrap();
        let config = RunConfig::default();
        assert_ne!(cache_key(&cuda, &config, 0), cache_key(&omp, &config, 0));
        assert_ne!(cache_key(&cuda, &config, 0), cache_key(&cuda, &config, 2));
        let slow = RunConfig {
            step_limit: 1,
            ..RunConfig::default()
        };
        assert_ne!(cache_key(&cuda, &config, 0), cache_key(&cuda, &slow, 0));
    }

    #[test]
    fn key_ignores_formatting_noise() {
        let a = parse("int main() { return 0; }", Dialect::CudaLite).unwrap();
        let b = parse("int  main( ) {\n  return 0;\n}\n", Dialect::CudaLite).unwrap();
        let config = RunConfig::default();
        assert_eq!(cache_key(&a, &config, 0), cache_key(&b, &config, 0));
    }

    #[test]
    fn report_memoization_replays_outcomes_without_rerunning() {
        let key = report_key(0xdead_beef_cafe_f00d, "test-machine");
        let mut runs = 0;
        let before = report_stats();
        for _ in 0..3 {
            let out = get_or_run(key, || {
                runs += 1;
                Err("simulated failure".to_string())
            });
            assert_eq!(out.unwrap_err(), "simulated failure");
        }
        let after = report_stats();
        assert_eq!(runs, 1, "deterministic outcome must execute exactly once");
        assert!(after.misses > before.misses);
        assert!(after.hits >= before.hits + 2);
        assert!(after.entries >= 1);
        assert!(after.approx_bytes > before.approx_bytes);
    }

    #[test]
    fn concurrent_first_sights_run_once() {
        let key = report_key(0x5151_f11e_0000_0001, "race-machine");
        // Holders of the key's slot: the table, the lookup that is running
        // and, once it has found the slot, the other lookup.
        let holders = || {
            report_cache()
                .lock()
                .unwrap()
                .get(&key)
                .map_or(0, Arc::strong_count)
        };
        let runs = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let lookups: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        get_or_run(key, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Finish only after the other lookup holds the
                            // slot, so it arrives while this run is in flight.
                            let give_up = Instant::now() + Duration::from_secs(10);
                            while holders() < 3 {
                                assert!(Instant::now() < give_up, "no concurrent lookup");
                                std::thread::yield_now();
                            }
                            Err("raced".to_string())
                        })
                    })
                })
                .collect();
            for lookup in lookups {
                assert_eq!(lookup.join().unwrap().unwrap_err(), "raced");
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one run per key");
        assert_eq!(holders(), 1, "only the table keeps the slot");
    }

    #[test]
    fn report_key_separates_programs_and_machines() {
        assert_ne!(report_key(1, "a100"), report_key(2, "a100"));
        assert_ne!(report_key(1, "a100"), report_key(1, "h100"));
    }

    #[test]
    fn hit_rate_is_well_defined() {
        let s = ProgramCacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            approx_bytes: 10,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let empty = ProgramCacheStats {
            hits: 0,
            misses: 0,
            entries: 0,
            approx_bytes: 0,
        };
        assert_eq!(empty.hit_rate(), 0.0);
    }
}
