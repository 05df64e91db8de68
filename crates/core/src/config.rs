//! Pipeline configuration.

use lassi_runtime::RunConfig;

use crate::experiment::Direction;

/// 64-bit FNV-1a. Scenario seeds feed the simulated LLM *and* the harness
/// scenario-cache keys, so the derivation must be stable across Rust
/// releases — `std`'s `DefaultHasher` explicitly is not (a toolchain bump
/// would silently re-seed every scenario, changing every record, table and
/// committed baseline).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Knobs for the LASSI pipeline.
///
/// Every compile-and-run step lowers the checked program to register
/// bytecode and runs it on the VM; the tree-walking interpreter is reachable
/// only from tests, as the oracle the VM is compared against.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum number of self-correction iterations (compile + execute
    /// combined) before the pipeline gives up on a scenario (reported as N/A).
    pub max_self_corrections: u32,
    /// Base RNG seed; each (model, application, direction) scenario derives a
    /// stable seed from it so the whole evaluation is reproducible.
    pub seed: u64,
    /// Execution configuration used for every compile-and-run step.
    pub run_config: RunConfig,
    /// Number of timed executions averaged for the reported runtime (the
    /// paper averages three runs).
    pub timing_runs: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_self_corrections: 40,
            seed: 20240704,
            run_config: lassi_hecbench::Machine::run_config(),
            timing_runs: 3,
        }
    }
}

impl PipelineConfig {
    /// Derive the deterministic seed for one scenario. Stable across Rust
    /// releases (FNV-1a over a canonical string), so cached results and
    /// regenerated tables survive toolchain bumps.
    pub fn scenario_seed(&self, application: &str, direction: Direction) -> u64 {
        let canonical = format!("{:016x};{application};{}", self.seed, direction.label());
        fnv1a64(canonical.as_bytes())
    }

    /// Derive the deterministic seed for one scenario with a specific model.
    pub fn model_scenario_seed(&self, model: &str, application: &str, direction: Direction) -> u64 {
        let canonical = format!(
            "{:016x};{model}",
            self.scenario_seed(application, direction)
        );
        fnv1a64(canonical.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `scenario_seed("jacobi", CudaToOmp)` under the default base seed.
    const SCENARIO_SEED_PIN: u64 = 0x583d_45d4_3982_8dcf;
    /// `model_scenario_seed("GPT-4", "jacobi", CudaToOmp)` likewise.
    const MODEL_SEED_PIN: u64 = 0x5825_ba3a_ce6a_2308;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let config = PipelineConfig::default();
        let a = config.model_scenario_seed("GPT-4", "jacobi", Direction::CudaToOmp);
        let b = config.model_scenario_seed("GPT-4", "jacobi", Direction::CudaToOmp);
        assert_eq!(a, b);
        let c = config.model_scenario_seed("GPT-4", "jacobi", Direction::OmpToCuda);
        let d = config.model_scenario_seed("Codestral", "jacobi", Direction::CudaToOmp);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn seed_derivation_is_pinned() {
        // Scenario seeds are content-addressed into the harness cache and
        // drive every simulated record; these pins catch any accidental
        // change to the derivation (which would invalidate caches and shift
        // every regenerated table). Regenerate by printing the values if the
        // derivation changes deliberately.
        let config = PipelineConfig::default();
        assert_eq!(
            config.scenario_seed("jacobi", Direction::CudaToOmp),
            SCENARIO_SEED_PIN
        );
        assert_eq!(
            config.model_scenario_seed("GPT-4", "jacobi", Direction::CudaToOmp),
            MODEL_SEED_PIN
        );
    }

    #[test]
    fn defaults_match_paper_setup() {
        let config = PipelineConfig::default();
        assert_eq!(config.timing_runs, 3);
        assert!(
            config.max_self_corrections >= 34,
            "must allow the pathological Codestral case"
        );
    }
}
