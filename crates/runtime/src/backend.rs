//! The interface between host execution and the parallel substrates.
//!
//! The host interpreter does not know how kernels or OpenMP regions are
//! executed or costed; it packages a request and hands it to a
//! [`ParallelBackend`]. `lassi-gpusim` implements the CUDA side
//! ([`ParallelBackend::launch_kernel`]) and `lassi-ompsim` the OpenMP side
//! ([`ParallelBackend::parallel_for`]); a combined backend used by the
//! pipeline forwards to whichever is appropriate.

use lassi_lang::{Block, Function, OmpDirective, Program};

use crate::bytecode::CompiledProgram;
use crate::cost::CostCounter;
use crate::env::Env;
use crate::error::ExecError;
use crate::memory::Memory;
use crate::value::{Dim3Val, Value};

/// A CUDA kernel launch, with launch geometry and evaluated arguments.
pub struct KernelLaunchRequest<'a> {
    /// The full program (for `__device__` helper calls).
    pub program: &'a Program,
    /// The kernel being launched.
    pub kernel: &'a Function,
    /// Grid dimensions.
    pub grid: Dim3Val,
    /// Block dimensions.
    pub block: Dim3Val,
    /// Evaluated kernel arguments, in parameter order.
    pub args: Vec<Value>,
    /// The launching evaluator's string pool, which `Value::Str` arguments
    /// index (see [`crate::Evaluator::with_strings`]).
    pub strings: &'a [String],
    /// Source line of the launch statement.
    pub line: u32,
}

/// An OpenMP work-sharing region (`parallel for` or
/// `target teams distribute parallel for`).
pub struct ParallelForRequest<'a> {
    /// The full program (for helper calls).
    pub program: &'a Program,
    /// The directive with its clauses.
    pub directive: &'a OmpDirective,
    /// Canonical loop variable name.
    pub loop_var: String,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
    /// Loop step (> 0).
    pub step: i64,
    /// Loop body.
    pub body: &'a Block,
    /// Snapshot of the enclosing environment (shared/firstprivate view).
    pub base_env: Env,
    /// The host evaluator's string pool, which `Value::Str` bindings in
    /// `base_env` index (see [`crate::Evaluator::with_strings`]).
    pub strings: &'a [String],
    /// True for `target ...` directives that offload to the device.
    pub offload: bool,
    /// Source line of the pragma.
    pub line: u32,
}

/// A CUDA kernel launch against the compiled bytecode engine.
pub struct CompiledKernelLaunch<'a> {
    /// The compiled program (kernel units plus callable helpers).
    pub program: &'a CompiledProgram,
    /// Index into [`CompiledProgram::kernels`].
    pub kernel: u32,
    /// Grid dimensions.
    pub grid: Dim3Val,
    /// Block dimensions.
    pub block: Dim3Val,
    /// Evaluated kernel arguments, in parameter order.
    pub args: Vec<Value>,
    /// Source line of the launch statement.
    pub line: u32,
}

/// An OpenMP work-sharing region against the compiled bytecode engine.
pub struct CompiledParallelFor<'a> {
    /// The compiled program (region units plus callable helpers).
    pub program: &'a CompiledProgram,
    /// Index into [`CompiledProgram::regions`].
    pub region: u32,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
    /// Loop step (> 0).
    pub step: i64,
    /// Snapshot of the captured enclosing bindings, in region-slot order
    /// (see [`crate::bytecode::CompiledRegion::captures`]).
    pub captures: Vec<Value>,
    /// True for `target ...` directives that offload to the device.
    pub offload: bool,
    /// Source line of the pragma.
    pub line: u32,
}

/// What a backend reports after executing a parallel construct.
#[derive(Debug, Clone, Default)]
pub struct LaunchStats {
    /// Simulated execution time of the construct, in seconds.
    pub simulated_seconds: f64,
    /// Dynamic operation counts aggregated over every thread.
    pub cost: CostCounter,
    /// Reduction results to merge back into the host environment
    /// (variable name, final value).
    pub reduction_updates: Vec<(String, Value)>,
}

/// Executes parallel constructs on behalf of the host interpreter.
///
/// Every method has a default implementation that reports the construct as
/// unsupported, so single-purpose backends only implement their half and
/// host-only tests can use a unit struct.
pub trait ParallelBackend: Sync {
    /// Execute a CUDA kernel launch.
    fn launch_kernel(
        &self,
        req: &KernelLaunchRequest<'_>,
        _mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        Err(ExecError::other(format!(
            "kernel launch of '{}' is not supported by backend '{}'",
            req.kernel.name,
            self.name()
        )))
    }

    /// Execute an OpenMP work-sharing loop.
    fn parallel_for(
        &self,
        req: &ParallelForRequest<'_>,
        _mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        Err(ExecError::other(format!(
            "OpenMP '{}' regions are not supported by backend '{}'",
            req.directive.kind.spelling(),
            self.name()
        )))
    }

    /// Execute a CUDA kernel launch from the bytecode engine.
    fn launch_compiled_kernel(
        &self,
        req: &CompiledKernelLaunch<'_>,
        _mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        Err(ExecError::other(format!(
            "kernel launch of '{}' is not supported by backend '{}'",
            req.program.kernels[req.kernel as usize].name,
            self.name()
        )))
    }

    /// Execute an OpenMP work-sharing loop from the bytecode engine.
    fn compiled_parallel_for(
        &self,
        req: &CompiledParallelFor<'_>,
        _mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        Err(ExecError::other(format!(
            "OpenMP '{}' regions are not supported by backend '{}'",
            req.program.regions[req.region as usize]
                .directive
                .kind
                .spelling(),
            self.name()
        )))
    }

    /// Simulated duration of an explicit host↔device copy of `bytes` bytes.
    fn memcpy_seconds(&self, bytes: u64) -> f64 {
        // Default: 16 GB/s effective PCIe gen4 bandwidth + 8 µs latency.
        8.0e-6 + bytes as f64 / 16.0e9
    }

    /// Simulated duration of one host scalar operation.
    fn host_op_seconds(&self) -> f64 {
        1.0e-9
    }

    /// Short backend name used in diagnostics.
    fn name(&self) -> &'static str {
        "generic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};

    struct Nothing;
    impl ParallelBackend for Nothing {}

    #[test]
    fn default_backend_rejects_parallel_constructs() {
        let program = parse(
            "__global__ void k(float* a) { a[0] = 1.0; } int main() { return 0; }",
            Dialect::CudaLite,
        )
        .unwrap();
        let kernel = program.function("k").unwrap();
        let req = KernelLaunchRequest {
            program: &program,
            kernel,
            grid: Dim3Val::linear(1),
            block: Dim3Val::linear(32),
            args: vec![Value::NullPtr],
            strings: &[],
            line: 1,
        };
        let mem = Memory::new();
        let err = Nothing.launch_kernel(&req, &mem).unwrap_err();
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn default_cost_helpers() {
        let b = Nothing;
        assert!(b.memcpy_seconds(1 << 20) > b.memcpy_seconds(0));
        assert!(b.host_op_seconds() > 0.0);
        assert_eq!(b.name(), "generic");
    }
}
