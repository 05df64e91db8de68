//! Kernel execution: functional simulation of a CUDA launch.

use lassi_lang::{Expr, StmtKind, Type, VarDecl};
use lassi_runtime::bytecode::SharedLen;
use lassi_runtime::{
    CompiledKernelLaunch, CostCounter, Dim3Val, Env, EvalContext, Evaluator, ExecError,
    KernelLaunchRequest, LaunchStats, MemSpace, Memory, ParallelBackend, Value, Vm,
};

use crate::cost::KernelCostModel;
use crate::device::DeviceSpec;

/// Hard cap on the number of simulated threads in one launch; larger launches
/// are rejected with a runtime error (they would indicate a broken translated
/// program anyway, e.g. a grid computed from uninitialized data).
const MAX_SIMULATED_THREADS: u64 = 8_000_000;

/// Per-thread step budget inside a kernel.
const THREAD_STEP_LIMIT: u64 = 20_000_000;

/// The simulated GPU. Implements [`ParallelBackend`] for CUDA kernel launches.
pub struct GpuSimulator {
    model: KernelCostModel,
    backend_name: &'static str,
}

impl GpuSimulator {
    /// Simulator for an arbitrary device.
    pub fn new(spec: DeviceSpec) -> Self {
        GpuSimulator {
            model: KernelCostModel::new(spec),
            backend_name: "gpusim",
        }
    }

    /// Simulator for the A100-class device used throughout the paper.
    pub fn a100() -> Self {
        GpuSimulator {
            model: KernelCostModel::new(DeviceSpec::a100()),
            backend_name: "gpusim-a100",
        }
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &KernelCostModel {
        &self.model
    }

    fn block_coords(grid: Dim3Val) -> Vec<Dim3Val> {
        let mut out = Vec::with_capacity(grid.count() as usize);
        for z in 0..grid.z {
            for y in 0..grid.y {
                for x in 0..grid.x {
                    out.push(Dim3Val { x, y, z });
                }
            }
        }
        out
    }

    fn thread_coords(block: Dim3Val) -> Vec<Dim3Val> {
        let mut out = Vec::with_capacity(block.count() as usize);
        for z in 0..block.z {
            for y in 0..block.y {
                for x in 0..block.x {
                    out.push(Dim3Val { x, y, z });
                }
            }
        }
        out
    }

    /// Split a kernel body into segments delimited by *top-level*
    /// `__syncthreads()` calls. All threads of a block execute segment `k`
    /// before any thread starts segment `k + 1`, which is exactly the barrier
    /// semantics well-formed CUDA code relies on.
    fn barrier_segments(stmts: &[lassi_lang::Stmt]) -> Vec<&[lassi_lang::Stmt]> {
        let mut segments = Vec::new();
        let mut start = 0usize;
        for (i, stmt) in stmts.iter().enumerate() {
            if let StmtKind::Expr(Expr::Call { callee, .. }) = &stmt.kind {
                if callee == "__syncthreads" {
                    segments.push(&stmts[start..i]);
                    start = i + 1;
                }
            }
        }
        segments.push(&stmts[start..]);
        segments
    }

    fn shared_decls(stmts: &[lassi_lang::Stmt]) -> Vec<&VarDecl> {
        stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::VarDecl(d) if d.is_shared => Some(d),
                _ => None,
            })
            .collect()
    }

    fn run_block(
        &self,
        req: &KernelLaunchRequest<'_>,
        mem: &Memory,
        block_idx: Dim3Val,
        segments: &[&[lassi_lang::Stmt]],
        shared: &[&VarDecl],
    ) -> Result<CostCounter, ExecError> {
        // Allocate this block's shared memory.
        let mut shared_bindings: Vec<(String, Type, Value)> = Vec::with_capacity(shared.len());
        for decl in shared {
            let len = match &decl.array_len {
                Some(Expr::IntLit(v)) => (*v).max(1) as usize,
                Some(other) => {
                    // Evaluate the length with the kernel arguments in scope.
                    let mut env = Env::new();
                    for (param, arg) in req.kernel.params.iter().zip(&req.args) {
                        env.declare(&param.name, param.ty.clone(), arg.coerce_to(&param.ty));
                    }
                    let mut eval = Evaluator::for_context(req.program, EvalContext::Host, 100_000)
                        .with_strings(req.strings);
                    eval.eval_expr(other, &mut env, mem)?.as_int().max(1) as usize
                }
                None => 1,
            };
            let ptr = mem.alloc(&decl.name, decl.ty.clone(), len, MemSpace::Shared);
            shared_bindings.push((decl.name.clone(), decl.ty.clone().ptr(), Value::Ptr(ptr)));
        }

        let threads = Self::thread_coords(req.block);
        let mut states: Vec<(Evaluator<'_>, Env, bool)> = threads
            .iter()
            .map(|&tid| {
                let ctx = EvalContext::DeviceThread {
                    thread_idx: tid,
                    block_idx,
                    block_dim: req.block,
                    grid_dim: req.grid,
                };
                let mut env = Env::new();
                for (param, arg) in req.kernel.params.iter().zip(&req.args) {
                    env.declare(&param.name, param.ty.clone(), arg.coerce_to(&param.ty));
                }
                for (name, ty, value) in &shared_bindings {
                    env.declare(name, ty.clone(), *value);
                }
                (
                    Evaluator::for_context(req.program, ctx, THREAD_STEP_LIMIT)
                        .with_strings(req.strings),
                    env,
                    false,
                )
            })
            .collect();

        for segment in segments {
            for (eval, env, finished) in states.iter_mut() {
                if *finished {
                    continue;
                }
                match eval.exec_stmts(segment, env, mem) {
                    Ok(lassi_runtime::ControlFlow::Return(_)) => *finished = true,
                    Ok(_) => {}
                    Err(ExecError::BarrierDivergence { .. }) => {
                        return Err(ExecError::BarrierDivergence {
                            kernel: req.kernel.name.clone(),
                        })
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        let mut cost = CostCounter::new();
        for (eval, ..) in &states {
            cost.merge(&eval.cost);
        }
        Ok(cost)
    }

    /// Bytecode twin of [`GpuSimulator::run_block`]: one VM per thread of the
    /// block, stepped segment by segment so `__syncthreads()` barriers hold.
    /// `launch_frame` is the kernel's initial frame with the coerced
    /// arguments in place and `threads` a block's thread coordinates, both
    /// built once per launch.
    fn run_compiled_block(
        &self,
        req: &CompiledKernelLaunch<'_>,
        mem: &Memory,
        block_idx: Dim3Val,
        launch_frame: &[Value],
        threads: &[Dim3Val],
    ) -> Result<CostCounter, ExecError> {
        let kernel = &req.program.kernels[req.kernel as usize];

        // This block's initial frame: the launch frame plus the pointers to
        // the block's shared memory, allocated here.
        let mut frame = launch_frame.to_vec();
        for decl in &kernel.shared {
            let len = match &decl.len {
                SharedLen::Lit(v) => (*v).max(1) as usize,
                SharedLen::Dynamic {
                    entry,
                    nslots,
                    consts,
                } => {
                    // Evaluate the length with the kernel arguments in scope.
                    let mut len_frame = consts.frame(*nslots);
                    let params = kernel.params.len();
                    len_frame[..params].copy_from_slice(&launch_frame[..params]);
                    let mut vm = Vm::for_context(req.program, EvalContext::Host, 100_000);
                    vm.load_frame(&len_frame);
                    match vm.run_unit(mem, *entry)? {
                        lassi_runtime::ControlFlow::Return(v) => v.as_int().max(1) as usize,
                        _ => 1,
                    }
                }
                SharedLen::One => 1,
            };
            let ptr = mem.alloc(&decl.name, decl.elem.clone(), len, MemSpace::Shared);
            frame[decl.slot as usize] = Value::Ptr(ptr);
        }

        let thread_ctx = |tid: Dim3Val| EvalContext::DeviceThread {
            thread_idx: tid,
            block_idx,
            block_dim: req.block,
            grid_dim: req.grid,
        };

        // Single segment (no top-level `__syncthreads()`): every thread runs
        // to completion before the next starts, so one reused VM serves the
        // whole block — no per-thread register-stack allocation. Costs keep
        // accumulating in the VM and are taken once at the end.
        if kernel.segments.len() == 1 {
            let origin = thread_ctx(Dim3Val { x: 0, y: 0, z: 0 });
            let mut vm = Vm::for_context(req.program, origin, THREAD_STEP_LIMIT);
            for &tid in threads {
                vm.reset_thread(thread_ctx(tid));
                vm.load_frame(&frame);
                match vm.run_unit(mem, kernel.segments[0]) {
                    Ok(_) => {}
                    Err(ExecError::BarrierDivergence { .. }) => {
                        return Err(ExecError::BarrierDivergence {
                            kernel: kernel.name.clone(),
                        })
                    }
                    Err(e) => return Err(e),
                }
            }
            return Ok(vm.cost);
        }

        let mut states: Vec<(Vm<'_>, bool)> = threads
            .iter()
            .map(|&tid| {
                let mut vm = Vm::for_context(req.program, thread_ctx(tid), THREAD_STEP_LIMIT);
                vm.load_frame(&frame);
                (vm, false)
            })
            .collect();

        for &segment in &kernel.segments {
            for (vm, finished) in states.iter_mut() {
                if *finished {
                    continue;
                }
                match vm.run_unit(mem, segment) {
                    Ok(lassi_runtime::ControlFlow::Return(_)) => *finished = true,
                    Ok(_) => {}
                    Err(ExecError::BarrierDivergence { .. }) => {
                        return Err(ExecError::BarrierDivergence {
                            kernel: kernel.name.clone(),
                        })
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        let mut cost = CostCounter::new();
        for (vm, _) in &states {
            cost.merge(&vm.cost);
        }
        Ok(cost)
    }
}

impl ParallelBackend for GpuSimulator {
    fn launch_kernel(
        &self,
        req: &KernelLaunchRequest<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        let total_threads = req.grid.count().saturating_mul(req.block.count());
        if total_threads > MAX_SIMULATED_THREADS {
            return Err(ExecError::InvalidLaunchConfig {
                kernel: req.kernel.name.clone(),
                reason: format!(
                    "launch of {total_threads} threads exceeds the simulator limit of {MAX_SIMULATED_THREADS}"
                ),
            });
        }
        if req.args.len() != req.kernel.params.len() {
            return Err(ExecError::other(format!(
                "kernel '{}' launched with {} arguments but declares {} parameters",
                req.kernel.name,
                req.args.len(),
                req.kernel.params.len()
            )));
        }

        let segments = Self::barrier_segments(&req.kernel.body.stmts);
        let shared = Self::shared_decls(&req.kernel.body.stmts);

        let mut cost = CostCounter::new();
        for block_idx in Self::block_coords(req.grid) {
            cost.merge(&self.run_block(req, mem, block_idx, &segments, &shared)?);
        }
        let simulated_seconds = self.model.kernel_seconds(req.grid, req.block, &cost);
        Ok(LaunchStats {
            simulated_seconds,
            cost,
            reduction_updates: Vec::new(),
        })
    }

    fn launch_compiled_kernel(
        &self,
        req: &CompiledKernelLaunch<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        let kernel = &req.program.kernels[req.kernel as usize];
        let total_threads = req.grid.count().saturating_mul(req.block.count());
        if total_threads > MAX_SIMULATED_THREADS {
            return Err(ExecError::InvalidLaunchConfig {
                kernel: kernel.name.clone(),
                reason: format!(
                    "launch of {total_threads} threads exceeds the simulator limit of {MAX_SIMULATED_THREADS}"
                ),
            });
        }
        if req.args.len() != kernel.params.len() {
            return Err(ExecError::other(format!(
                "kernel '{}' launched with {} arguments but declares {} parameters",
                kernel.name,
                req.args.len(),
                kernel.params.len()
            )));
        }

        // Launch-invariant set-up, done once: the kernel's initial frame
        // with the arguments coerced to the parameter types, and the thread
        // coordinates every block walks.
        let mut frame = kernel.consts.frame(kernel.nslots);
        for (slot, (ty, arg)) in frame.iter_mut().zip(kernel.params.iter().zip(&req.args)) {
            *slot = arg.coerce_to(ty);
        }
        let threads = Self::thread_coords(req.block);

        let mut cost = CostCounter::new();
        for block_idx in Self::block_coords(req.grid) {
            cost.merge(&self.run_compiled_block(req, mem, block_idx, &frame, &threads)?);
        }
        let simulated_seconds = self.model.kernel_seconds(req.grid, req.block, &cost);
        Ok(LaunchStats {
            simulated_seconds,
            cost,
            reduction_updates: Vec::new(),
        })
    }

    fn memcpy_seconds(&self, bytes: u64) -> f64 {
        self.model.memcpy_seconds(bytes)
    }

    fn name(&self) -> &'static str {
        self.backend_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect, Program};

    fn launch(
        src: &str,
        kernel: &str,
        grid: u32,
        block: u32,
        setup: impl FnOnce(&Memory) -> Vec<Value>,
    ) -> (Program, Memory, Result<LaunchStats, ExecError>) {
        let program = parse(src, Dialect::CudaLite).unwrap();
        let mem = Memory::new();
        let args = setup(&mem);
        let gpu = GpuSimulator::a100();
        let kernel_fn = program.function(kernel).unwrap();
        let req = KernelLaunchRequest {
            program: &program,
            kernel: kernel_fn,
            grid: Dim3Val::linear(grid),
            block: Dim3Val::linear(block),
            args,
            strings: &[],
            line: 1,
        };
        let result = gpu.launch_kernel(&req, &mem);
        (program, mem, result)
    }

    #[test]
    fn every_thread_runs() {
        let src = r#"
        __global__ void fill(int* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i * 3; }
        }
        int main() { return 0; }
        "#;
        let mut out_ptr = None;
        let (_, mem, result) = launch(src, "fill", 4, 64, |mem| {
            let p = mem.alloc("out", Type::Int, 256, MemSpace::Device);
            out_ptr = Some(p);
            vec![Value::Ptr(p), Value::Int(256)]
        });
        let stats = result.unwrap();
        let p = out_ptr.unwrap();
        assert_eq!(mem.load(&p, 0, true, 0).unwrap(), Value::Int(0));
        assert_eq!(mem.load(&p, 255, true, 0).unwrap(), Value::Int(765));
        assert!(stats.simulated_seconds > 0.0);
        assert!(stats.cost.total_ops() > 256);
    }

    #[test]
    fn two_dimensional_geometry() {
        let src = r#"
        __global__ void idx2d(int* out, int n) {
            int i = blockIdx.y * blockDim.y + threadIdx.y;
            int j = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n && j < n) { out[i * n + j] = i * 100 + j; }
        }
        int main() { return 0; }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let mem = Memory::new();
        let out = mem.alloc("out", Type::Int, 64, MemSpace::Device);
        let gpu = GpuSimulator::a100();
        let req = KernelLaunchRequest {
            program: &program,
            kernel: program.function("idx2d").unwrap(),
            grid: Dim3Val::new(2, 2, 1),
            block: Dim3Val::new(4, 4, 1),
            args: vec![Value::Ptr(out), Value::Int(8)],
            strings: &[],
            line: 1,
        };
        gpu.launch_kernel(&req, &mem).unwrap();
        assert_eq!(mem.load(&out, 7 * 8 + 5, true, 0).unwrap(), Value::Int(705));
    }

    #[test]
    fn atomic_add_across_blocks() {
        let src = r#"
        __global__ void count(double* sum, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { atomicAdd(sum, 1.0); }
        }
        int main() { return 0; }
        "#;
        let mut sum_ptr = None;
        let (_, mem, result) = launch(src, "count", 8, 128, |mem| {
            let p = mem.alloc("sum", Type::Double, 1, MemSpace::Device);
            sum_ptr = Some(p);
            vec![Value::Ptr(p), Value::Int(1000)]
        });
        result.unwrap();
        assert_eq!(
            mem.load(&sum_ptr.unwrap(), 0, true, 0).unwrap(),
            Value::Float(1000.0)
        );
    }

    #[test]
    fn float_atomic_add_folds_blocks_in_grid_order() {
        // Block 0 adds 1e16 first; every later 1.0 then rounds away (the
        // spacing of doubles at 1e16 is 2). Only in-order block execution
        // gives exactly 1e16: any two 1.0 terms landing first would show.
        let src = r#"
        __global__ void accumulate(double* sum) {
            if (blockIdx.x == 0 && threadIdx.x == 0) {
                atomicAdd(sum, 10000000000000000.0);
            } else {
                atomicAdd(sum, 1.0);
            }
        }
        int main() {
            double* h_sum = (double*)malloc(sizeof(double));
            h_sum[0] = 0.0;
            double* d_sum;
            cudaMalloc(&d_sum, sizeof(double));
            cudaMemcpy(d_sum, h_sum, sizeof(double), cudaMemcpyHostToDevice);
            accumulate<<<64, 32>>>(d_sum);
            cudaMemcpy(h_sum, d_sum, sizeof(double), cudaMemcpyDeviceToHost);
            printf("%.1f\n", h_sum[0]);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let gpu = GpuSimulator::a100();
        let config = lassi_runtime::RunConfig::default();
        let reference = lassi_runtime::HostInterpreter::new(&program, config.clone())
            .run(&gpu, &[])
            .unwrap();
        let compiled = lassi_runtime::compile(&program, 0);
        let vm = lassi_runtime::run_compiled(&compiled, &config, &gpu, &[]).unwrap();
        assert_eq!(reference.stdout, "10000000000000000.0\n");
        assert_eq!(vm.stdout, reference.stdout);
    }

    #[test]
    fn shared_memory_reduction_with_barrier() {
        let src = r#"
        __global__ void block_sum(double* out, const double* in, int n) {
            __shared__ double tile[64];
            int tid = threadIdx.x;
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { tile[tid] = in[i]; } else { tile[tid] = 0.0; }
            __syncthreads();
            if (tid == 0) {
                double s = 0.0;
                for (int k = 0; k < 64; k++) { s += tile[k]; }
                out[blockIdx.x] = s;
            }
        }
        int main() { return 0; }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let mem = Memory::new();
        let n = 128usize;
        let input = mem.alloc("in", Type::Double, n, MemSpace::Device);
        for i in 0..n {
            mem.store(&input, i as i64, &Value::Float(1.0), true, 0)
                .unwrap();
        }
        let out = mem.alloc("out", Type::Double, 2, MemSpace::Device);
        let gpu = GpuSimulator::a100();
        let req = KernelLaunchRequest {
            program: &program,
            kernel: program.function("block_sum").unwrap(),
            grid: Dim3Val::linear(2),
            block: Dim3Val::linear(64),
            args: vec![Value::Ptr(out), Value::Ptr(input), Value::Int(n as i64)],
            strings: &[],
            line: 1,
        };
        gpu.launch_kernel(&req, &mem).unwrap();
        assert_eq!(mem.load(&out, 0, true, 0).unwrap(), Value::Float(64.0));
        assert_eq!(mem.load(&out, 1, true, 0).unwrap(), Value::Float(64.0));
    }

    #[test]
    fn out_of_bounds_in_kernel_is_reported() {
        let src = r#"
        __global__ void bad(int* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = i;
        }
        int main() { return 0; }
        "#;
        let (_, _, result) = launch(src, "bad", 4, 64, |mem| {
            let p = mem.alloc("out", Type::Int, 16, MemSpace::Device);
            vec![Value::Ptr(p), Value::Int(16)]
        });
        assert_eq!(result.unwrap_err().category(), "out_of_bounds");
    }

    #[test]
    fn host_pointer_dereference_is_a_cuda_error() {
        let src = r#"
        __global__ void bad(float* out) { out[0] = 1.0; }
        int main() { return 0; }
        "#;
        let (_, _, result) = launch(src, "bad", 1, 32, |mem| {
            let p = mem.alloc("h_out", Type::Float, 8, MemSpace::Host);
            vec![Value::Ptr(p)]
        });
        let err = result.unwrap_err();
        assert_eq!(err.category(), "illegal_memory_space");
        assert!(err.to_string().contains("CUDA error"));
    }

    #[test]
    fn oversized_launch_rejected() {
        let src = r#"
        __global__ void k(int* out) { out[0] = 1; }
        int main() { return 0; }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let mem = Memory::new();
        let out = mem.alloc("out", Type::Int, 1, MemSpace::Device);
        let gpu = GpuSimulator::a100();
        let req = KernelLaunchRequest {
            program: &program,
            kernel: program.function("k").unwrap(),
            grid: Dim3Val::linear(100_000),
            block: Dim3Val::linear(1024),
            args: vec![Value::Ptr(out)],
            strings: &[],
            line: 1,
        };
        assert_eq!(
            gpu.launch_kernel(&req, &mem).unwrap_err().category(),
            "invalid_launch_config"
        );
    }

    #[test]
    fn argument_count_mismatch_is_reported() {
        let src = r#"
        __global__ void k(int* out, int n) { out[0] = n; }
        int main() { return 0; }
        "#;
        let (_, _, result) = launch(src, "k", 1, 32, |mem| {
            let p = mem.alloc("out", Type::Int, 1, MemSpace::Device);
            vec![Value::Ptr(p)]
        });
        assert!(result
            .unwrap_err()
            .to_string()
            .contains("declares 2 parameters"));
    }

    #[test]
    fn device_helper_functions_are_callable() {
        let src = r#"
        __device__ double square(double x) { return x * x; }
        __global__ void apply(double* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = square(i); }
        }
        int main() { return 0; }
        "#;
        let mut p_out = None;
        let (_, mem, result) = launch(src, "apply", 1, 32, |mem| {
            let p = mem.alloc("out", Type::Double, 32, MemSpace::Device);
            p_out = Some(p);
            vec![Value::Ptr(p), Value::Int(32)]
        });
        result.unwrap();
        assert_eq!(
            mem.load(&p_out.unwrap(), 5, true, 0).unwrap(),
            Value::Float(25.0)
        );
    }

    #[test]
    fn cost_model_penalizes_single_thread_launch() {
        let src = r#"
        __global__ void work(double* out, int n) {
            int start = blockIdx.x * blockDim.x + threadIdx.x;
            int stride = gridDim.x * blockDim.x;
            for (int i = start; i < n; i += stride) { out[i] = i * 2.0; }
        }
        int main() { return 0; }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let gpu = GpuSimulator::a100();
        let n = 4096i64;

        let run = |grid: u32, block: u32| {
            let mem = Memory::new();
            let out = mem.alloc("out", Type::Double, n as usize, MemSpace::Device);
            let req = KernelLaunchRequest {
                program: &program,
                kernel: program.function("work").unwrap(),
                grid: Dim3Val::linear(grid),
                block: Dim3Val::linear(block),
                args: vec![Value::Ptr(out), Value::Int(n)],
                strings: &[],
                line: 1,
            };
            gpu.launch_kernel(&req, &mem).unwrap().simulated_seconds
        };

        let wide = run(16, 256);
        let narrow = run(1, 1);
        assert!(
            narrow > wide * 20.0,
            "serialized kernel should be much slower ({narrow} vs {wide})"
        );
    }
}
