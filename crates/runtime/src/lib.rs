//! # lassi-runtime
//!
//! Functional execution substrate for ParC programs.
//!
//! The crate provides everything needed to *run* a semantically valid ParC
//! program the way the LASSI paper runs benchmark binaries:
//!
//! * [`value::Value`] / [`memory::Memory`] — copyable typed scalars, host
//!   and device buffers behind one single-threaded shared handle,
//! * [`eval::Evaluator`] — the statement/expression evaluator shared by host
//!   code, CUDA kernels and OpenMP regions,
//! * [`interp::HostInterpreter`] — runs `main`, services the CUDA runtime API
//!   (`cudaMalloc`, `cudaMemcpy`, launches) and OpenMP pragmas by delegating
//!   to a [`backend::ParallelBackend`],
//! * [`error::ExecError`] — runtime failures formatted like the error output
//!   a real binary would print (illegal memory access, division by zero, ...),
//!   which the LASSI execution self-correction loop feeds back to the LLM,
//! * [`cost::CostCounter`] + simulated-time accounting so each run reports a
//!   deterministic runtime in seconds for the Table IV/VI/VII reproductions.
//!
//! ## Execution engine and test oracle
//!
//! [`bytecode`] is the one production engine: it lowers the checked AST once
//! into flat register bytecode ([`bytecode::compile`]) and executes it on a
//! dispatch-loop VM ([`bytecode::Vm`]) with preallocated register frames.
//! The tree-walking interpreter ([`eval`] / [`interp`]) is kept as the test
//! oracle the VM is differentially tested against; it shares the
//! VM's observables and error surface, but no production path selects it.

pub mod backend;
pub mod bytecode;
pub mod cost;
pub mod env;
pub mod error;
pub mod eval;
pub mod interp;
pub mod memory;
pub mod printf;
pub mod value;

pub use backend::{
    CompiledKernelLaunch, CompiledParallelFor, KernelLaunchRequest, LaunchStats, ParallelBackend,
    ParallelForRequest,
};
pub use bytecode::{compile, run_compiled, run_compiled_with_memory, CompiledProgram, Vm};
pub use cost::CostCounter;
pub use env::Env;
pub use error::ExecError;
pub use eval::{ControlFlow, EvalContext, Evaluator};
pub use interp::{ExecutionReport, HostInterpreter, RunConfig};
pub use memory::{Buffer, BufferId, MemSpace, Memory};
pub use value::{Dim3Val, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};

    /// A backend that rejects every parallel construct; good enough for
    /// host-only smoke tests of the public API.
    struct NoParallel;
    impl ParallelBackend for NoParallel {}

    #[test]
    fn run_host_only_program() {
        let src = r#"
        int main() {
            int n = 5;
            long s = 0;
            for (int i = 0; i < n; i++) { s += i * i; }
            printf("sum=%ld\n", s);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let mut interp = HostInterpreter::new(&program, RunConfig::default());
        let report = interp.run(&NoParallel, &[]).expect("run");
        assert_eq!(report.stdout, "sum=30\n");
        assert_eq!(report.exit_code, 0);
        assert!(report.simulated_seconds > 0.0);
    }
}
