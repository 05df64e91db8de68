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

fn cache() -> &'static Mutex<HashMap<u64, Arc<CompiledProgram>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<CompiledProgram>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn report_cache() -> &'static Mutex<HashMap<u64, CachedRun>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, CachedRun>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Counters describing the compiled-program cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Compiles (or runs) actually performed: every lookup that found no
    /// entry, including a concurrent first sight that duplicated another
    /// thread's work. `misses − entries` is that duplicated work
    /// (perfbench reports it as `core.report_cache.dup_runs`).
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

/// Fetch the compiled form of `program`, lowering it on first sight.
pub fn get_or_compile(program: &Program, config: &RunConfig, argc: usize) -> Arc<CompiledProgram> {
    let key = cache_key(program, config, argc);
    if let Some(found) = cache().lock().unwrap().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(found);
    }
    // Compile outside the lock; concurrent first-sights of the same program
    // may compile twice. Every compile performed counts as a miss, but only
    // the first result is retained as the entry.
    let compiled = Arc::new(lassi_runtime::compile(program, argc));
    MISSES.fetch_add(1, Ordering::Relaxed);
    let mut map = cache().lock().unwrap();
    let entry = map.entry(key).or_insert_with(|| {
        BYTES.fetch_add(compiled.approx_bytes() as u64, Ordering::Relaxed);
        Arc::clone(&compiled)
    });
    Arc::clone(entry)
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
    if let Some(found) = report_cache().lock().unwrap().get(&key) {
        REPORT_HITS.fetch_add(1, Ordering::Relaxed);
        return found.clone();
    }
    // Execute outside the lock; concurrent first-sights of the same program
    // may run twice. Every run performed counts as a miss, but only the
    // first result is retained as the entry.
    let outcome = run();
    REPORT_MISSES.fetch_add(1, Ordering::Relaxed);
    let mut map = report_cache().lock().unwrap();
    let entry = map.entry(key).or_insert_with(|| {
        let approx = std::mem::size_of::<ExecutionReport>()
            + match &outcome {
                Ok(report) => report.stdout.len(),
                Err(message) => message.len(),
            };
        REPORT_BYTES.fetch_add(approx as u64, Ordering::Relaxed);
        outcome.clone()
    });
    entry.clone()
}

/// Current compiled-program cache counters.
pub fn stats() -> ProgramCacheStats {
    ProgramCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: cache().lock().unwrap().len() as u64,
        approx_bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Current execution-report cache counters (same shape as the program
/// cache's, so callers can render both with one code path).
pub fn report_stats() -> ProgramCacheStats {
    ProgramCacheStats {
        hits: REPORT_HITS.load(Ordering::Relaxed),
        misses: REPORT_MISSES.load(Ordering::Relaxed),
        entries: report_cache().lock().unwrap().len() as u64,
        approx_bytes: REPORT_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};

    #[test]
    fn second_lookup_hits_and_shares_the_compiled_program() {
        let program = parse(
            "int main() { int trigram_progcache_test = 1; return 0; }",
            Dialect::CudaLite,
        )
        .unwrap();
        let config = RunConfig::default();
        let before = stats();
        let first = get_or_compile(&program, &config, 0);
        let second = get_or_compile(&program, &config, 0);
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
