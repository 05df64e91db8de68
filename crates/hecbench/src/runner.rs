//! Reference runner: a combined machine backend (GPU simulator + OpenMP
//! runtime simulator) and helpers for compiling and executing benchmark
//! programs the way the LASSI pipeline's "source code preparation" step does.

use lassi_gpusim::GpuSimulator;
use lassi_lang::{Dialect, Program};
use lassi_ompsim::OmpSimulator;
use lassi_runtime::{
    CompiledKernelLaunch, CompiledParallelFor, ExecError, ExecutionReport, KernelLaunchRequest,
    LaunchStats, Memory, ParallelBackend, ParallelForRequest, RunConfig,
};

use crate::apps::Application;

/// The simulated experimental platform from the paper: a multi-core host with
/// an NVIDIA A100, reachable both through CUDA and through OpenMP offload.
pub struct Machine {
    gpu: GpuSimulator,
    omp: OmpSimulator,
}

impl Machine {
    /// The default A100-class machine.
    pub fn a100() -> Self {
        Machine {
            gpu: GpuSimulator::a100(),
            omp: OmpSimulator::a100_offload(),
        }
    }

    /// Run configuration used for every benchmark execution (a small fixed
    /// start-up cost plus deterministic per-operation costs).
    pub fn run_config() -> RunConfig {
        RunConfig {
            step_limit: 200_000_000,
            host_op_seconds: 1.2e-9,
            startup_seconds: 5.0e-5,
        }
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::a100()
    }
}

impl ParallelBackend for Machine {
    fn launch_kernel(
        &self,
        req: &KernelLaunchRequest<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.gpu.launch_kernel(req, mem)
    }

    fn parallel_for(
        &self,
        req: &ParallelForRequest<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.omp.parallel_for(req, mem)
    }

    fn launch_compiled_kernel(
        &self,
        req: &CompiledKernelLaunch<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.gpu.launch_compiled_kernel(req, mem)
    }

    fn compiled_parallel_for(
        &self,
        req: &CompiledParallelFor<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        self.omp.compiled_parallel_for(req, mem)
    }

    fn memcpy_seconds(&self, bytes: u64) -> f64 {
        self.gpu.memcpy_seconds(bytes)
    }

    fn name(&self) -> &'static str {
        "a100-machine"
    }
}

/// Errors from running a benchmark source.
#[derive(Debug)]
pub enum RunError {
    /// The program did not compile; the diagnostics are compiler-style text.
    Compile(Vec<lassi_lang::Diagnostic>),
    /// The program compiled but failed at runtime.
    Execute(ExecError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(diags) => {
                write!(
                    f,
                    "compile error: {}",
                    lassi_lang::diag::render_diagnostics(diags)
                )
            }
            RunError::Execute(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Compile (semantic-check), lower to register bytecode and execute an
/// already-parsed program on the default machine's bytecode VM.
pub fn run_program(program: &Program) -> Result<ExecutionReport, RunError> {
    lassi_sema::compile(program).map_err(RunError::Compile)?;
    let machine = Machine::a100();
    let compiled = lassi_runtime::compile(program, 0);
    lassi_runtime::run_compiled(&compiled, &Machine::run_config(), &machine, &[])
        .map_err(RunError::Execute)
}

/// Parse, compile and execute source text in the given dialect.
pub fn run_source(source: &str, dialect: Dialect) -> Result<ExecutionReport, RunError> {
    let program = lassi_lang::parse(source, dialect).map_err(|d| RunError::Compile(vec![d]))?;
    run_program(&program)
}

/// Run one reference benchmark application in one dialect.
pub fn run_application(app: &Application, dialect: Dialect) -> Result<ExecutionReport, RunError> {
    run_source(app.source(dialect), dialect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::application;
    use lassi_runtime::bytecode::Instr;
    use lassi_runtime::HostInterpreter;

    #[test]
    fn bsearch_openmp_is_faster_than_cuda() {
        // Table IV: bsearch runs in 0.3273 s (CUDA) vs 0.0140 s (OpenMP).
        let app = application("bsearch").unwrap();
        let cuda = run_application(&app, Dialect::CudaLite).unwrap();
        let omp = run_application(&app, Dialect::OmpLite).unwrap();
        assert_eq!(cuda.stdout, omp.stdout);
        assert!(
            omp.simulated_seconds < cuda.simulated_seconds,
            "OpenMP bsearch should be faster ({} vs {})",
            omp.simulated_seconds,
            cuda.simulated_seconds
        );
    }

    #[test]
    fn jacobi_cuda_is_much_faster_than_openmp() {
        // Table IV: jacobi runs in 0.8641 s (CUDA) vs 57.3354 s (OpenMP).
        let app = application("jacobi").unwrap();
        let cuda = run_application(&app, Dialect::CudaLite).unwrap();
        let omp = run_application(&app, Dialect::OmpLite).unwrap();
        assert_eq!(cuda.stdout, omp.stdout);
        assert!(
            omp.simulated_seconds > cuda.simulated_seconds * 3.0,
            "OpenMP jacobi should be several times slower ({} vs {})",
            omp.simulated_seconds,
            cuda.simulated_seconds
        );
    }

    #[test]
    fn atomic_cost_outputs_match() {
        let app = application("atomicCost").unwrap();
        let cuda = run_application(&app, Dialect::CudaLite).unwrap();
        let omp = run_application(&app, Dialect::OmpLite).unwrap();
        assert_eq!(cuda.stdout, omp.stdout);
        assert!(cuda.stdout.contains("total 20000.0"));
    }

    #[test]
    fn bytecode_engine_matches_interpreter_on_every_app() {
        // The two engines must agree bit-for-bit on every reference
        // benchmark in both dialects: stdout, steps, cost counters, memory
        // stats and the simulated clock.
        for app in crate::apps::applications() {
            for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
                let program = lassi_lang::parse(app.source(dialect), dialect).unwrap();
                let reference = HostInterpreter::new(&program, Machine::run_config())
                    .run(&Machine::a100(), &[])
                    .map_err(RunError::Execute);
                let compiled = run_program(&program);
                match (reference, compiled) {
                    (Ok(a), Ok(b)) => {
                        let tag = format!("{} ({dialect:?})", app.name);
                        assert_eq!(a.stdout, b.stdout, "stdout: {tag}");
                        assert_eq!(a.exit_code, b.exit_code, "exit_code: {tag}");
                        assert_eq!(a.steps, b.steps, "steps: {tag}");
                        assert_eq!(a.cost, b.cost, "cost: {tag}");
                        assert_eq!(a.memory, b.memory, "memory: {tag}");
                        assert_eq!(
                            a.simulated_seconds.to_bits(),
                            b.simulated_seconds.to_bits(),
                            "simulated_seconds: {tag}"
                        );
                        assert_eq!(
                            a.parallel_seconds.to_bits(),
                            b.parallel_seconds.to_bits(),
                            "parallel_seconds: {tag}"
                        );
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{}", app.name)
                    }
                    (a, b) => panic!(
                        "{} ({dialect:?}): engines disagree: interpreter={a:?} vm={b:?}",
                        app.name
                    ),
                }
            }
        }
    }

    /// The instructions of a compiled kernel: its first segment's entry
    /// through the `EndUnit` that closes its last segment.
    fn kernel_code<'c>(prog: &'c lassi_runtime::CompiledProgram, name: &str) -> (&'c [Instr], u32) {
        let kernel = prog.kernels.iter().find(|k| k.name == name).unwrap();
        let start = kernel.segments[0] as usize;
        let last = *kernel.segments.last().unwrap() as usize;
        let end = last
            + prog.code[last..]
                .iter()
                .position(|i| matches!(i, Instr::EndUnit { .. }))
                .unwrap();
        (&prog.code[start..=end], kernel.nslots)
    }

    #[test]
    fn bytecode_lowering_shape_of_the_hot_kernels() {
        // Operands are read where they live: no copy of a local or a literal
        // just to feed the next instruction, one instruction per
        // thread-coordinate read, and statement entries that carry the
        // charges following them. The sizes are pinned so a silent fall-back
        // to copy-then-operate lowering fails here.
        for (app, kernel, len, nslots) in [
            ("jacobi", "jacobi_sweep", 38, 18),
            ("colorwheel", "shade", 32, 19),
        ] {
            let source = application(app).unwrap().source(Dialect::CudaLite);
            let program = lassi_lang::parse(source, Dialect::CudaLite).unwrap();
            let compiled = lassi_runtime::compile(&program, 0);
            let (code, slots) = kernel_code(&compiled, kernel);
            for pair in code.windows(2) {
                let shape = format!("{kernel}: {:?} then {:?}", pair[0], pair[1]);
                assert!(
                    !matches!(pair[0], Instr::LoadVar { .. } | Instr::Const { .. }),
                    "copy feeding an operand in {shape}"
                );
                assert!(
                    !matches!(
                        (&pair[0], &pair[1]),
                        (Instr::LoadSpecial { .. }, Instr::MemberGet { .. })
                    ),
                    "unfused thread-coordinate read in {shape}"
                );
                assert!(
                    !matches!(
                        (&pair[0], &pair[1]),
                        (
                            Instr::Stmt { .. } | Instr::StmtBranch { .. },
                            Instr::Charge { .. }
                        )
                    ),
                    "unfolded statement charge in {shape}"
                );
            }
            assert_eq!((code.len(), slots), (len, nslots), "{kernel} size");
        }
    }

    #[test]
    fn run_source_reports_compile_errors() {
        let err = run_source(
            "int main() { undeclared = 1; return 0; }",
            Dialect::CudaLite,
        )
        .expect_err("should fail");
        assert!(err.to_string().contains("compile error"));
    }

    #[test]
    fn run_source_reports_runtime_errors() {
        let err = run_source(
            "int main() { int a[4]; a[9] = 1; return 0; }",
            Dialect::CudaLite,
        )
        .expect_err("should fail");
        assert!(err.to_string().contains("out of bounds"));
    }
}
