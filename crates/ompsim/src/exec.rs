//! Work-sharing loop execution for the simulated OpenMP runtime.

use lassi_lang::{ReductionOp, Type};
use lassi_runtime::{
    CompiledParallelFor, ControlFlow, CostCounter, EvalContext, Evaluator, ExecError, LaunchStats,
    Memory, ParallelBackend, ParallelForRequest, Value, Vm,
};

use crate::cost::OmpSpec;

/// Hard cap on simulated loop iterations per region.
const MAX_SIMULATED_ITERATIONS: u64 = 8_000_000;

/// Per-worker step budget.
const WORKER_STEP_LIMIT: u64 = 50_000_000;

/// Number of functional execution chunks used to run a region. Chunks run one
/// after another on the calling thread and their partial reductions combine
/// in chunk order, so float reductions and `omp atomic` updates are
/// deterministic. This is a simulation detail, independent of the *modelled*
/// thread count that drives the cost model.
const EXEC_CHUNKS: u64 = 64;

/// The simulated OpenMP runtime. Implements [`ParallelBackend`] for
/// work-sharing loops (both host `parallel for` and `target` offload).
pub struct OmpSimulator {
    spec: OmpSpec,
}

impl OmpSimulator {
    /// Simulator for an arbitrary environment.
    pub fn new(spec: OmpSpec) -> Self {
        OmpSimulator { spec }
    }

    /// Simulator for the paper's platform (multi-core host + A100 offload).
    pub fn a100_offload() -> Self {
        OmpSimulator {
            spec: OmpSpec::a100_offload(),
        }
    }

    /// The cost specification in use.
    pub fn spec(&self) -> &OmpSpec {
        &self.spec
    }
}

fn reduction_identity(op: ReductionOp, ty: &Type) -> Value {
    match op {
        ReductionOp::Add => {
            if ty.is_integer() {
                Value::Int(0)
            } else {
                Value::Float(0.0)
            }
        }
        ReductionOp::Mul => {
            if ty.is_integer() {
                Value::Int(1)
            } else {
                Value::Float(1.0)
            }
        }
        ReductionOp::Min => {
            if ty.is_integer() {
                Value::Int(i64::MAX)
            } else {
                Value::Float(f64::INFINITY)
            }
        }
        ReductionOp::Max => {
            if ty.is_integer() {
                Value::Int(i64::MIN)
            } else {
                Value::Float(f64::NEG_INFINITY)
            }
        }
    }
}

fn reduce_combine(op: ReductionOp, ty: &Type, a: &Value, b: &Value) -> Value {
    if ty.is_integer() {
        let (x, y) = (a.as_int(), b.as_int());
        Value::Int(match op {
            ReductionOp::Add => x + y,
            ReductionOp::Mul => x * y,
            ReductionOp::Min => x.min(y),
            ReductionOp::Max => x.max(y),
        })
    } else {
        let (x, y) = (a.as_float(), b.as_float());
        Value::Float(match op {
            ReductionOp::Add => x + y,
            ReductionOp::Mul => x * y,
            ReductionOp::Min => x.min(y),
            ReductionOp::Max => x.max(y),
        })
    }
}

struct ChunkResult {
    cost: CostCounter,
    reductions: Vec<Value>,
}

impl ParallelBackend for OmpSimulator {
    fn parallel_for(
        &self,
        req: &ParallelForRequest<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        let iterations = if req.hi > req.lo {
            ((req.hi - req.lo) as u64).div_ceil(req.step.max(1) as u64)
        } else {
            0
        };
        if iterations > MAX_SIMULATED_ITERATIONS {
            return Err(ExecError::other(format!(
                "line {}: work-sharing loop of {iterations} iterations exceeds the simulator limit of {MAX_SIMULATED_ITERATIONS}",
                req.line
            )));
        }

        // Reduction bookkeeping.
        let reduction = req
            .directive
            .reduction()
            .map(|(op, vars)| (op, vars.clone()));
        let reduction_types: Vec<Type> = match &reduction {
            Some((_, vars)) => vars
                .iter()
                .map(|v| {
                    req.base_env
                        .get(v)
                        .map(|b| b.ty.clone())
                        .unwrap_or(Type::Double)
                })
                .collect(),
            None => Vec::new(),
        };

        let resources = self
            .spec
            .region_resources(req.directive, req.offload, iterations);

        // Functional execution over chunks of the iteration space.
        let chunk_count = EXEC_CHUNKS.min(iterations.max(1));
        let chunk_size = iterations.div_ceil(chunk_count).max(1);
        let results: Result<Vec<ChunkResult>, ExecError> = (0..chunk_count)
            .map(|chunk| {
                let first = chunk * chunk_size;
                let last = ((chunk + 1) * chunk_size).min(iterations);
                if first >= last {
                    return Ok(ChunkResult {
                        cost: CostCounter::new(),
                        reductions: reduction_types
                            .iter()
                            .zip(
                                reduction
                                    .iter()
                                    .flat_map(|(op, vars)| vars.iter().map(move |_| *op)),
                            )
                            .map(|(ty, op)| reduction_identity(op, ty))
                            .collect(),
                    });
                }
                let ctx = EvalContext::OmpWorker {
                    thread_num: (chunk % resources.threads.max(1)) as i64,
                    num_threads: resources.threads as i64,
                    offloaded: req.offload,
                };
                let mut eval = Evaluator::for_context(req.program, ctx, WORKER_STEP_LIMIT)
                    .with_strings(req.strings);
                let mut env = req.base_env.clone();
                // Private copies of reduction variables start at the identity.
                if let Some((op, vars)) = &reduction {
                    for (var, ty) in vars.iter().zip(&reduction_types) {
                        let ident = reduction_identity(*op, ty);
                        if !env.set(var, ident) {
                            env.declare(var, ty.clone(), ident);
                        }
                    }
                }
                // Loop variable is private to each iteration.
                env.declare(&req.loop_var, Type::Long, Value::Int(req.lo));
                for k in first..last {
                    let i = req.lo + (k as i64) * req.step;
                    env.set(&req.loop_var, Value::Int(i));
                    match eval.exec_block(req.body, &mut env, mem)? {
                        ControlFlow::Normal | ControlFlow::Continue => {}
                        ControlFlow::Break => break,
                        ControlFlow::Return(_) => {
                            return Err(ExecError::other(format!(
                            "line {}: 'return' is not allowed inside an OpenMP work-sharing region",
                            req.line
                        )))
                        }
                    }
                }
                let reductions = match &reduction {
                    Some((_, vars)) => vars
                        .iter()
                        .map(|v| env.get(v).map(|b| b.value).unwrap_or(Value::Int(0)))
                        .collect(),
                    None => Vec::new(),
                };
                Ok(ChunkResult {
                    cost: eval.cost,
                    reductions,
                })
            })
            .collect();

        let results = results?;
        let mut cost = CostCounter::new();
        for r in &results {
            cost.merge(&r.cost);
        }

        // Combine reductions across chunks and with the original values.
        let mut reduction_updates = Vec::new();
        if let Some((op, vars)) = &reduction {
            for (vi, (var, ty)) in vars.iter().zip(&reduction_types).enumerate() {
                let mut acc = reduction_identity(*op, ty);
                for r in &results {
                    if let Some(v) = r.reductions.get(vi) {
                        acc = reduce_combine(*op, ty, &acc, v);
                    }
                }
                let original = req
                    .base_env
                    .get(var)
                    .map(|b| b.value)
                    .unwrap_or_else(|| reduction_identity(*op, ty));
                let combined = reduce_combine(*op, ty, &original, &acc);
                reduction_updates.push((var.clone(), combined));
            }
        }

        let simulated_seconds = self
            .spec
            .region_seconds(&cost, resources, req.offload, iterations);
        Ok(LaunchStats {
            simulated_seconds,
            cost,
            reduction_updates,
        })
    }

    fn compiled_parallel_for(
        &self,
        req: &CompiledParallelFor<'_>,
        mem: &Memory,
    ) -> Result<LaunchStats, ExecError> {
        let region = &req.program.regions[req.region as usize];
        let iterations = if req.hi > req.lo {
            ((req.hi - req.lo) as u64).div_ceil(req.step.max(1) as u64)
        } else {
            0
        };
        if iterations > MAX_SIMULATED_ITERATIONS {
            return Err(ExecError::other(format!(
                "line {}: work-sharing loop of {iterations} iterations exceeds the simulator limit of {MAX_SIMULATED_ITERATIONS}",
                req.line
            )));
        }

        let resources = self
            .spec
            .region_resources(&region.directive, req.offload, iterations);

        // Every chunk starts from one frame: the captured bindings, with the
        // private copies of reduction variables at the identity.
        let mut frame = region.consts.frame(region.nslots);
        frame[..req.captures.len()].copy_from_slice(&req.captures);
        for r in &region.reductions {
            let ident = reduction_identity(r.op, &r.ty);
            frame[r.init_slot as usize] = if r.init_coerce {
                ident.coerce_to(&r.ty)
            } else {
                ident
            };
        }

        // Functional execution over chunks of the iteration space.
        let chunk_count = EXEC_CHUNKS.min(iterations.max(1));
        let chunk_size = iterations.div_ceil(chunk_count).max(1);
        let results: Result<Vec<ChunkResult>, ExecError> = (0..chunk_count)
            .map(|chunk| {
                let first = chunk * chunk_size;
                let last = ((chunk + 1) * chunk_size).min(iterations);
                if first >= last {
                    return Ok(ChunkResult {
                        cost: CostCounter::new(),
                        reductions: region
                            .reductions
                            .iter()
                            .map(|r| reduction_identity(r.op, &r.ty))
                            .collect(),
                    });
                }
                let ctx = EvalContext::OmpWorker {
                    thread_num: (chunk % resources.threads.max(1)) as i64,
                    num_threads: resources.threads as i64,
                    offloaded: req.offload,
                };
                let mut vm = Vm::for_context(req.program, ctx, WORKER_STEP_LIMIT);
                vm.load_frame(&frame);
                // Loop variable is private to each iteration.
                for k in first..last {
                    let i = req.lo + (k as i64) * req.step;
                    vm.set_slot(region.loop_var_slot, Value::Int(i));
                    match vm.run_unit(mem, region.body_entry)? {
                        ControlFlow::Normal | ControlFlow::Continue => {}
                        ControlFlow::Break => break,
                        ControlFlow::Return(_) => {
                            return Err(ExecError::other(format!(
                            "line {}: 'return' is not allowed inside an OpenMP work-sharing region",
                            req.line
                        )))
                        }
                    }
                }
                let reductions = region
                    .reductions
                    .iter()
                    .map(|r| *vm.slot(r.read_slot))
                    .collect();
                Ok(ChunkResult {
                    cost: vm.cost,
                    reductions,
                })
            })
            .collect();

        let results = results?;
        let mut cost = CostCounter::new();
        for r in &results {
            cost.merge(&r.cost);
        }

        // Combine reductions across chunks and with the original values.
        let mut reduction_updates = Vec::new();
        for (vi, r) in region.reductions.iter().enumerate() {
            let mut acc = reduction_identity(r.op, &r.ty);
            for chunk in &results {
                if let Some(v) = chunk.reductions.get(vi) {
                    acc = reduce_combine(r.op, &r.ty, &acc, v);
                }
            }
            let original = if r.init_coerce {
                req.captures[r.init_slot as usize]
            } else {
                reduction_identity(r.op, &r.ty)
            };
            let combined = reduce_combine(r.op, &r.ty, &original, &acc);
            reduction_updates.push((r.var.clone(), combined));
        }

        let simulated_seconds = self
            .spec
            .region_seconds(&cost, resources, req.offload, iterations);
        Ok(LaunchStats {
            simulated_seconds,
            cost,
            reduction_updates,
        })
    }

    fn memcpy_seconds(&self, bytes: u64) -> f64 {
        self.spec.transfer_seconds(bytes)
    }

    fn name(&self) -> &'static str {
        "ompsim-a100-offload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};
    use lassi_runtime::{HostInterpreter, RunConfig};

    fn run_omp(src: &str) -> Result<lassi_runtime::ExecutionReport, ExecError> {
        let program = parse(src, Dialect::OmpLite).unwrap();
        let omp = OmpSimulator::a100_offload();
        let mut interp = HostInterpreter::new(&program, RunConfig::default());
        interp.run(&omp, &[])
    }

    #[test]
    fn reduction_matches_sequential_sum() {
        let report = run_omp(
            r#"
            int main() {
                int n = 2000;
                double sum = 100.0;
                #pragma omp target teams distribute parallel for reduction(+:sum)
                for (int i = 0; i < n; i++) { sum += i; }
                printf("%.1f\n", sum);
                return 0;
            }
            "#,
        )
        .unwrap();
        // 100 + sum_{i<2000} i = 100 + 1999000
        assert_eq!(report.stdout, "1999100.0\n");
    }

    #[test]
    fn max_reduction() {
        let report = run_omp(
            r#"
            int main() {
                int n = 100;
                double best = -1.0;
                double* a = (double*)malloc(n * sizeof(double));
                for (int i = 0; i < n; i++) { a[i] = (i * 37) % 91; }
                #pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(max:best)
                for (int i = 0; i < n; i++) {
                    if (a[i] > best) { best = a[i]; }
                }
                printf("%.1f\n", best);
                free(a);
                return 0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(report.stdout, "90.0\n");
    }

    #[test]
    fn array_writes_visible_after_region() {
        let report = run_omp(
            r#"
            int main() {
                int n = 300;
                long* out = (long*)malloc(n * sizeof(long));
                #pragma omp target teams distribute parallel for map(from: out[0:n])
                for (int i = 0; i < n; i++) { out[i] = i * i; }
                printf("%ld %ld\n", out[2], out[299]);
                free(out);
                return 0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(report.stdout, "4 89401\n");
    }

    #[test]
    fn atomic_update_inside_region() {
        let report = run_omp(
            r#"
            int main() {
                int n = 1000;
                double* total = (double*)malloc(1 * sizeof(double));
                total[0] = 0.0;
                #pragma omp target teams distribute parallel for map(tofrom: total[0:1])
                for (int i = 0; i < n; i++) {
                    #pragma omp atomic
                    total[0] += 1.0;
                }
                printf("%.1f\n", total[0]);
                free(total);
                return 0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(report.stdout, "1000.0\n");
    }

    #[test]
    fn float_atomic_update_folds_chunks_in_order() {
        // Iteration 0 adds 1e16 first; every later 1.0 then rounds away (the
        // spacing of doubles at 1e16 is 2). Only in-order chunk execution
        // gives exactly 1e16: any two 1.0 terms landing first would show.
        let src = r#"
            int main() {
                int n = 2048;
                double* total = (double*)malloc(1 * sizeof(double));
                total[0] = 0.0;
                #pragma omp parallel for
                for (int i = 0; i < n; i++) {
                    double term = 1.0;
                    if (i == 0) { term = 10000000000000000.0; }
                    #pragma omp atomic
                    total[0] += term;
                }
                printf("%.1f\n", total[0]);
                free(total);
                return 0;
            }
            "#;
        let reference = run_omp(src).unwrap();
        let program = parse(src, Dialect::OmpLite).unwrap();
        let compiled = lassi_runtime::compile(&program, 0);
        let vm = lassi_runtime::run_compiled(
            &compiled,
            &RunConfig::default(),
            &OmpSimulator::a100_offload(),
            &[],
        )
        .unwrap();
        assert_eq!(reference.stdout, "10000000000000000.0\n");
        assert_eq!(vm.stdout, reference.stdout);
    }

    #[test]
    fn runtime_error_in_region_propagates() {
        let err = run_omp(
            r#"
            int main() {
                int n = 10;
                double* a = (double*)malloc(4 * sizeof(double));
                #pragma omp target teams distribute parallel for map(tofrom: a[0:4])
                for (int i = 0; i < n; i++) { a[i] = i; }
                free(a);
                return 0;
            }
            "#,
        )
        .unwrap_err();
        assert_eq!(err.category(), "out_of_bounds");
    }

    #[test]
    fn unmapped_buffer_in_offload_region_fails() {
        let err = run_omp(
            r#"
            int main() {
                int n = 16;
                double* a = (double*)malloc(n * sizeof(double));
                #pragma omp target teams distribute parallel for
                for (int i = 0; i < n; i++) { a[i] = i; }
                free(a);
                return 0;
            }
            "#,
        )
        .unwrap_err();
        assert_eq!(err.category(), "illegal_memory_space");
    }

    #[test]
    fn host_parallel_for_accesses_host_memory_without_map() {
        let report = run_omp(
            r#"
            int main() {
                int n = 64;
                double* a = (double*)malloc(n * sizeof(double));
                #pragma omp parallel for num_threads(8)
                for (int i = 0; i < n; i++) { a[i] = 2.0 * i; }
                printf("%.1f\n", a[63]);
                free(a);
                return 0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(report.stdout, "126.0\n");
    }

    #[test]
    fn transfers_dominate_when_mapping_inside_a_loop() {
        // The naive "map per iteration" pattern (the reason jacobi/dense-embedding
        // are slow in OpenMP in Table IV) must cost far more than mapping once.
        let per_iteration = run_omp(
            r#"
            int main() {
                int n = 60000;
                int iters = 8;
                double* a = (double*)malloc(n * sizeof(double));
                double sum = 0.0;
                for (int it = 0; it < iters; it++) {
                    #pragma omp target teams distribute parallel for map(tofrom: a[0:n]) map(tofrom: sum) reduction(+:sum)
                    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; sum += 1.0; }
                }
                printf("%.1f\n", sum);
                free(a);
                return 0;
            }
            "#,
        )
        .unwrap();
        let map_once = run_omp(
            r#"
            int main() {
                int n = 60000;
                int iters = 8;
                double* a = (double*)malloc(n * sizeof(double));
                double sum = 0.0;
                #pragma omp target data map(tofrom: a[0:n])
                {
                    for (int it = 0; it < iters; it++) {
                        #pragma omp target teams distribute parallel for map(tofrom: sum) reduction(+:sum)
                        for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; sum += 1.0; }
                    }
                }
                printf("%.1f\n", sum);
                free(a);
                return 0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(per_iteration.stdout, map_once.stdout);
        assert!(
            per_iteration.parallel_seconds > map_once.parallel_seconds * 1.5,
            "per-iteration mapping should be much slower ({} vs {})",
            per_iteration.parallel_seconds,
            map_once.parallel_seconds
        );
    }

    #[test]
    fn backend_name_and_spec() {
        let sim = OmpSimulator::a100_offload();
        assert_eq!(sim.name(), "ompsim-a100-offload");
        assert_eq!(sim.spec().host_cores, 64);
    }
}
