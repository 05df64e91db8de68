//! # lassi
//!
//! Umbrella crate for the LASSI reproduction: re-exports the public API of
//! every workspace crate so examples and downstream users can depend on a
//! single package.
//!
//! ```
//! use lassi::prelude::*;
//!
//! let app = application("layout").expect("benchmark exists");
//! let report = run_application(&app, Dialect::CudaLite).expect("reference run");
//! assert!(report.stdout.contains("layout checksum"));
//! ```

/// ParC front-end (lexer, parser, AST, printer).
pub use lassi_lang as lang;

/// Semantic analysis / the ParC "compiler".
pub use lassi_sema as sema;

/// Functional execution substrate (values, memory, evaluator, interpreter).
pub use lassi_runtime as runtime;

/// Simulated A100-class GPU.
pub use lassi_gpusim as gpusim;

/// Simulated OpenMP host + offload runtime.
pub use lassi_ompsim as ompsim;

/// Simulated LLM substrate (prompts, models, translation engine, faults).
pub use lassi_llm as llm;

/// Evaluation metrics (Sim-T, Sim-L, aggregates).
pub use lassi_metrics as metrics;

/// Observability core (metrics registry, structured tracing).
pub use lassi_obs as obs;

/// HeCBench-style benchmark applications.
pub use lassi_hecbench as hecbench;

/// The LASSI pipeline and experiment driver.
pub use lassi_core as pipeline;

/// Concurrent experiment service: job scheduler, scenario cache, artifact store.
pub use lassi_harness as harness;

/// HTTP/1.1 front end for the experiment service.
pub use lassi_server as server;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use lassi_core::{
        run_direction, run_scenario, run_table4, scenario_outcomes, Direction, Lassi,
        PipelineConfig, ScenarioStatus, TranslationRecord,
    };
    pub use lassi_harness::{
        ArtifactStore, Harness, HarnessOptions, Job, JobOutput, RunArtifact, RunManifest,
        ScenarioCache, SweepGrid,
    };
    pub use lassi_hecbench::{application, applications, run_application, Application, Machine};
    pub use lassi_lang::{parse, print_program, Dialect};
    pub use lassi_llm::{all_models, model_by_name, ChatModel, SimulatedLlm};
    pub use lassi_metrics::{sim_l, sim_t, AggregateStats};
    pub use lassi_runtime::{ExecutionReport, RunConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        assert_eq!(applications().len(), 10);
        assert_eq!(all_models().len(), 4);
        assert_eq!(Dialect::CudaLite.other(), Dialect::OmpLite);
    }
}
