//! The ParC evaluator: executes statements and expressions against an
//! [`Env`] and a shared [`Memory`].
//!
//! One evaluator type serves three roles:
//!
//! * **host code** — run by [`crate::interp::HostInterpreter`], with a
//!   [`ParallelBackend`] attached so kernel launches and OpenMP pragmas can be
//!   delegated,
//! * **CUDA device threads** — `lassi-gpusim` creates one evaluator per
//!   thread with [`EvalContext::DeviceThread`] bindings for
//!   `threadIdx`/`blockIdx`/`blockDim`/`gridDim`,
//! * **OpenMP workers** — `lassi-ompsim` creates evaluators with
//!   [`EvalContext::OmpWorker`].

use lassi_lang::{
    AssignOp, BinOp, Block, Expr, FnQualifier, Function, OmpClause, OmpDirectiveKind, PragmaStmt,
    Program, Stmt, StmtKind, Type, UnOp,
};

#[cfg(test)]
use lassi_lang::Dialect;

use crate::backend::{KernelLaunchRequest, ParallelBackend, ParallelForRequest};
use crate::cost::CostCounter;
use crate::env::Env;
use crate::error::ExecError;
use crate::memory::{MemSpace, Memory};
use crate::printf;
use crate::value::{Dim3Val, PtrValue, Value};

/// Where the code being evaluated conceptually runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalContext {
    /// Sequential host code.
    Host,
    /// One CUDA thread of a kernel launch.
    DeviceThread {
        /// `threadIdx`.
        thread_idx: Dim3Val,
        /// `blockIdx`.
        block_idx: Dim3Val,
        /// `blockDim`.
        block_dim: Dim3Val,
        /// `gridDim`.
        grid_dim: Dim3Val,
    },
    /// One OpenMP worker thread.
    OmpWorker {
        /// `omp_get_thread_num()`.
        thread_num: i64,
        /// `omp_get_num_threads()`.
        num_threads: i64,
        /// True inside a `target` (offloaded) region.
        offloaded: bool,
    },
}

impl EvalContext {
    /// Whether memory accesses should be treated as device-side accesses.
    pub fn is_device_access(&self) -> bool {
        match self {
            EvalContext::Host => false,
            EvalContext::DeviceThread { .. } => true,
            EvalContext::OmpWorker { offloaded, .. } => *offloaded,
        }
    }
}

/// Non-local control flow produced by a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFlow {
    /// Keep going.
    Normal,
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return value;`
    Return(Value),
}

/// The evaluator. See the module documentation for the three usage modes.
pub struct Evaluator<'a> {
    /// The program being executed (needed for user function calls).
    pub program: &'a Program,
    /// Execution context.
    pub ctx: EvalContext,
    /// Operation counters for code executed directly by this evaluator
    /// (host statements when used as the host evaluator).
    pub cost: CostCounter,
    /// Operation counters accumulated by parallel constructs (kernels and
    /// OpenMP regions) delegated to the backend. Kept separate so the
    /// simulated-time model does not price device work at host speed.
    pub parallel_cost: CostCounter,
    /// Captured standard output (host context only).
    pub stdout: String,
    /// Simulated seconds accrued by parallel constructs and transfers.
    pub extra_seconds: f64,
    /// Steps executed so far (guards against runaway loops).
    pub steps: u64,
    /// Maximum number of steps before aborting.
    pub step_limit: u64,
    /// Source line of the statement currently executing.
    pub current_line: u32,
    /// String-literal pool that `Value::Str` ids index.
    strings: Vec<String>,
    backend: Option<&'a dyn ParallelBackend>,
    /// Depth of nested user-function calls (guards against runaway recursion).
    call_depth: u32,
}

/// An assignable location.
enum LValue {
    Var(String),
    Mem { ptr: PtrValue, index: i64 },
}

impl<'a> Evaluator<'a> {
    /// Evaluator for device / worker code (no backend, no stdout).
    pub fn for_context(program: &'a Program, ctx: EvalContext, step_limit: u64) -> Self {
        Evaluator {
            program,
            ctx,
            cost: CostCounter::new(),
            parallel_cost: CostCounter::new(),
            stdout: String::new(),
            extra_seconds: 0.0,
            steps: 0,
            step_limit,
            current_line: 0,
            strings: Vec::new(),
            backend: None,
            call_depth: 0,
        }
    }

    /// Start from a parent evaluator's string-literal pool. Child evaluators
    /// (kernel threads, work-sharing chunks) do this so `Value::Str` ids
    /// passed down as arguments or captures resolve to the same text.
    pub fn with_strings(mut self, strings: &[String]) -> Self {
        self.strings = strings.to_vec();
        self
    }

    /// Evaluator for host code with an attached parallel backend.
    pub fn for_host(
        program: &'a Program,
        backend: &'a dyn ParallelBackend,
        step_limit: u64,
    ) -> Self {
        let mut e = Evaluator::for_context(program, EvalContext::Host, step_limit);
        e.backend = Some(backend);
        e
    }

    fn step(&mut self) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(ExecError::StepLimitExceeded {
                limit: self.step_limit,
            })
        } else {
            Ok(())
        }
    }

    fn is_device_access(&self) -> bool {
        self.ctx.is_device_access()
    }

    fn intern(&mut self, s: &str) -> u32 {
        match self.strings.iter().position(|x| x == s) {
            Some(id) => id as u32,
            None => {
                self.strings.push(s.to_string());
                (self.strings.len() - 1) as u32
            }
        }
    }

    // -------------------------------------------------------------- statements

    /// Execute every statement of a block in a fresh scope.
    pub fn exec_block(
        &mut self,
        block: &Block,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError> {
        env.push_scope();
        let flow = self.exec_stmts(&block.stmts, env, mem);
        env.pop_scope();
        flow
    }

    /// Execute a statement list without introducing a scope (used by the GPU
    /// simulator to run the segments between `__syncthreads()` barriers).
    pub fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        env: &mut Env,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError> {
        for stmt in stmts {
            match self.exec_stmt(stmt, env, mem)? {
                ControlFlow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(ControlFlow::Normal)
    }

    /// Execute one statement.
    pub fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError> {
        self.step()?;
        if stmt.line > 0 {
            self.current_line = stmt.line;
        }
        match &stmt.kind {
            StmtKind::VarDecl(d) => {
                if d.is_shared && env.contains(&d.name) {
                    // Shared arrays are pre-allocated per block by the GPU
                    // simulator; the in-body declaration just names them.
                    return Ok(ControlFlow::Normal);
                }
                if let Some(len_expr) = &d.array_len {
                    let len = self.eval_expr(len_expr, env, mem)?.as_int().max(0) as usize;
                    let space = if self.is_device_access() {
                        MemSpace::Device
                    } else {
                        MemSpace::Host
                    };
                    let ptr = mem.alloc(&d.name, d.ty.clone(), len, space);
                    env.declare(&d.name, d.ty.clone().ptr(), Value::Ptr(ptr));
                    return Ok(ControlFlow::Normal);
                }
                let value = match &d.init {
                    Some(init) => {
                        let v = self.eval_init(init, &d.ty, &d.name, env, mem)?;
                        v.coerce_to(&d.ty)
                    }
                    None => Value::zero_of(&d.ty),
                };
                env.declare(&d.name, d.ty.clone(), value);
                Ok(ControlFlow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                self.exec_assign(target, *op, value, env, mem)?;
                Ok(ControlFlow::Normal)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.cost.branches += 1;
                let c = self.eval_expr(cond, env, mem)?;
                if c.is_truthy() {
                    self.exec_block(then_branch, env, mem)
                } else if let Some(els) = else_branch {
                    self.exec_block(els, env, mem)
                } else {
                    Ok(ControlFlow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.step()?;
                    self.cost.branches += 1;
                    let c = self.eval_expr(cond, env, mem)?;
                    if !c.is_truthy() {
                        break;
                    }
                    match self.exec_block(body, env, mem)? {
                        ControlFlow::Break => break,
                        ControlFlow::Return(v) => return Ok(ControlFlow::Return(v)),
                        ControlFlow::Normal | ControlFlow::Continue => {}
                    }
                }
                Ok(ControlFlow::Normal)
            }
            StmtKind::For(f) => {
                env.push_scope();
                if let Some(init) = &f.init {
                    self.exec_stmt(init, env, mem)?;
                }
                let flow = loop {
                    self.step()?;
                    self.cost.branches += 1;
                    if let Some(cond) = &f.cond {
                        let c = self.eval_expr(cond, env, mem)?;
                        if !c.is_truthy() {
                            break ControlFlow::Normal;
                        }
                    }
                    match self.exec_block(&f.body, env, mem)? {
                        ControlFlow::Break => break ControlFlow::Normal,
                        ControlFlow::Return(v) => break ControlFlow::Return(v),
                        ControlFlow::Normal | ControlFlow::Continue => {}
                    }
                    if let Some(step) = &f.step {
                        self.exec_stmt(step, env, mem)?;
                    }
                };
                env.pop_scope();
                Ok(flow)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval_expr(e, env, mem)?,
                    None => Value::Void,
                };
                Ok(ControlFlow::Return(v))
            }
            StmtKind::Break => Ok(ControlFlow::Break),
            StmtKind::Continue => Ok(ControlFlow::Continue),
            StmtKind::Expr(e) => {
                self.eval_expr(e, env, mem)?;
                Ok(ControlFlow::Normal)
            }
            StmtKind::Block(b) => self.exec_block(b, env, mem),
            StmtKind::KernelLaunch(launch) => {
                self.exec_kernel_launch(launch, env, mem)?;
                Ok(ControlFlow::Normal)
            }
            StmtKind::Pragma(p) => self.exec_pragma(p, env, mem),
        }
    }

    fn eval_init(
        &mut self,
        init: &Expr,
        declared_ty: &Type,
        name: &str,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<Value, ExecError> {
        let v = self.eval_expr(init, env, mem)?;
        // Name and retype buffers bound to a fresh pointer variable so that
        // diagnostics can mention the variable and `p[i]` uses the right
        // element size.
        if let (Value::Ptr(p), Type::Ptr(elem)) = (&v, declared_ty) {
            mem.rename(p.buffer, name);
            mem.retype(p.buffer, elem.as_ref().clone());
        }
        Ok(v)
    }

    fn exec_assign(
        &mut self,
        target: &Expr,
        op: AssignOp,
        value: &Expr,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<(), ExecError> {
        let rhs = self.eval_expr(value, env, mem)?;
        let lvalue = self.eval_lvalue(target, env, mem)?;
        let new_value = match op.binop() {
            None => rhs,
            Some(binop) => {
                let old = self.read_lvalue(&lvalue, env, mem)?;
                self.apply_binop(binop, &old, &rhs)?
            }
        };
        self.write_lvalue(&lvalue, new_value, env, mem)
    }

    fn eval_lvalue(
        &mut self,
        target: &Expr,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<LValue, ExecError> {
        match target {
            Expr::Ident(name) => Ok(LValue::Var(name.clone())),
            Expr::Index { base, index } => {
                let b = self.eval_expr(base, env, mem)?;
                let i = self.eval_expr(index, env, mem)?.as_int();
                match b {
                    Value::Ptr(ptr) => Ok(LValue::Mem { ptr, index: i }),
                    Value::NullPtr => Err(ExecError::NullPointer {
                        line: self.current_line,
                    }),
                    _ => Err(ExecError::other(format!(
                        "line {}: subscripted value is not a pointer",
                        self.current_line
                    ))),
                }
            }
            Expr::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let b = self.eval_expr(operand, env, mem)?;
                match b {
                    Value::Ptr(ptr) => Ok(LValue::Mem { ptr, index: 0 }),
                    _ => Err(ExecError::NullPointer {
                        line: self.current_line,
                    }),
                }
            }
            other => Err(ExecError::other(format!(
                "line {}: expression is not assignable: {}",
                self.current_line,
                lassi_lang::printer::print_expr(other)
            ))),
        }
    }

    fn read_lvalue(
        &mut self,
        lvalue: &LValue,
        env: &Env,
        mem: &Memory,
    ) -> Result<Value, ExecError> {
        match lvalue {
            LValue::Var(name) => env
                .get(name)
                .map(|b| b.value)
                .ok_or_else(|| ExecError::other(format!("read of unbound variable '{name}'"))),
            LValue::Mem { ptr, index } => {
                let elem_size = mem.buffer_elem(ptr.buffer).map_or(8, |t| t.size_bytes());
                self.cost.bytes_read += elem_size;
                mem.load(ptr, *index, self.is_device_access(), self.current_line)
            }
        }
    }

    fn write_lvalue(
        &mut self,
        lvalue: &LValue,
        value: Value,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<(), ExecError> {
        match lvalue {
            LValue::Var(name) => {
                if !env.set(name, value) {
                    return Err(ExecError::other(format!(
                        "assignment to unbound variable '{name}'"
                    )));
                }
                Ok(())
            }
            LValue::Mem { ptr, index } => {
                let elem_size = mem.buffer_elem(ptr.buffer).map_or(8, |t| t.size_bytes());
                self.cost.bytes_written += elem_size;
                mem.store(
                    ptr,
                    *index,
                    &value,
                    self.is_device_access(),
                    self.current_line,
                )
            }
        }
    }

    // ------------------------------------------------------------- expressions

    /// Evaluate an expression to a value.
    pub fn eval_expr(
        &mut self,
        expr: &Expr,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<Value, ExecError> {
        self.step()?;
        match expr {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Float(*v)),
            Expr::StrLit(s) => Ok(Value::Str(self.intern(s))),
            Expr::Ident(name) => self.eval_ident(name, env),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval_expr(lhs, env, mem)?;
                // Short-circuit logical operators.
                if *op == BinOp::And && !l.is_truthy() {
                    return Ok(Value::Int(0));
                }
                if *op == BinOp::Or && l.is_truthy() {
                    return Ok(Value::Int(1));
                }
                let r = self.eval_expr(rhs, env, mem)?;
                self.apply_binop(*op, &l, &r)
            }
            Expr::Unary { op, operand } => match op {
                UnOp::Neg => {
                    let v = self.eval_expr(operand, env, mem)?;
                    self.cost.int_ops += 1;
                    Ok(match v {
                        Value::Int(i) => Value::Int(-i),
                        other => Value::Float(-other.as_float()),
                    })
                }
                UnOp::Not => {
                    let v = self.eval_expr(operand, env, mem)?;
                    Ok(Value::Int(if v.is_truthy() { 0 } else { 1 }))
                }
                UnOp::Deref => {
                    let v = self.eval_expr(operand, env, mem)?;
                    match v {
                        Value::Ptr(ptr) => {
                            self.cost.bytes_read += mem.buffer_elem(ptr.buffer).map_or(8, |t| t.size_bytes());
                            mem.load(&ptr, 0, self.is_device_access(), self.current_line)
                        }
                        _ => Err(ExecError::NullPointer { line: self.current_line }),
                    }
                }
                UnOp::AddrOf => Err(ExecError::other(format!(
                    "line {}: the address-of operator is only supported as the first argument of cudaMalloc",
                    self.current_line
                ))),
            },
            Expr::Call { callee, args } => self.eval_call(callee, args, env, mem),
            Expr::Index { base, index } => {
                let b = self.eval_expr(base, env, mem)?;
                let i = self.eval_expr(index, env, mem)?.as_int();
                match b {
                    Value::Ptr(ptr) => {
                        self.cost.bytes_read += mem.buffer_elem(ptr.buffer).map_or(8, |t| t.size_bytes());
                        mem.load(&ptr, i, self.is_device_access(), self.current_line)
                    }
                    Value::NullPtr => Err(ExecError::NullPointer { line: self.current_line }),
                    _ => Err(ExecError::other(format!(
                        "line {}: subscripted value is not a pointer",
                        self.current_line
                    ))),
                }
            }
            Expr::Member { base, field } => {
                let b = self.eval_expr(base, env, mem)?;
                match b {
                    Value::Dim3(d) => Ok(Value::Int(match field.as_str() {
                        "x" => d.x as i64,
                        "y" => d.y as i64,
                        _ => d.z as i64,
                    })),
                    other => Err(ExecError::other(format!(
                        "line {}: member access '.{field}' on non-dim3 value {}",
                        self.current_line,
                        other.text(&self.strings)
                    ))),
                }
            }
            Expr::Cast { ty, expr } => {
                let v = self.eval_expr(expr, env, mem)?;
                if let (Value::Ptr(p), Type::Ptr(elem)) = (&v, ty) {
                    mem.retype(p.buffer, elem.as_ref().clone());
                    return Ok(v);
                }
                Ok(v.coerce_to(ty))
            }
            Expr::Ternary { cond, then_expr, else_expr } => {
                self.cost.branches += 1;
                let c = self.eval_expr(cond, env, mem)?;
                if c.is_truthy() {
                    self.eval_expr(then_expr, env, mem)
                } else {
                    self.eval_expr(else_expr, env, mem)
                }
            }
            Expr::Sizeof(ty) => Ok(Value::Int(ty.size_bytes() as i64)),
        }
    }

    fn eval_ident(&mut self, name: &str, env: &Env) -> Result<Value, ExecError> {
        if let Some(binding) = env.get(name) {
            return Ok(binding.value);
        }
        if let EvalContext::DeviceThread {
            thread_idx,
            block_idx,
            block_dim,
            grid_dim,
        } = self.ctx
        {
            match name {
                "threadIdx" => return Ok(Value::Dim3(thread_idx)),
                "blockIdx" => return Ok(Value::Dim3(block_idx)),
                "blockDim" => return Ok(Value::Dim3(block_dim)),
                "gridDim" => return Ok(Value::Dim3(grid_dim)),
                _ => {}
            }
        }
        match name {
            "cudaMemcpyHostToDevice" => Ok(Value::Int(1)),
            "cudaMemcpyDeviceToHost" => Ok(Value::Int(2)),
            "cudaMemcpyDeviceToDevice" => Ok(Value::Int(3)),
            _ => Err(ExecError::other(format!(
                "line {}: use of unbound identifier '{name}'",
                self.current_line
            ))),
        }
    }

    fn apply_binop(&mut self, op: BinOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
        apply_binop(op, l, r, &mut self.cost, self.current_line)
    }

    // -------------------------------------------------------------------- calls

    fn eval_call(
        &mut self,
        callee: &str,
        args: &[Expr],
        env: &mut Env,
        mem: &Memory,
    ) -> Result<Value, ExecError> {
        self.cost.calls += 1;

        // User-defined functions first.
        if let Some(func) = self.program.function(callee) {
            return self.call_user_function(func, args, env, mem);
        }

        match callee {
            "printf" => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval_expr(a, env, mem)?);
                }
                let fmt = match values.first() {
                    Some(Value::Str(id)) => self.strings[*id as usize].as_str(),
                    _ => "",
                };
                let text = printf::format(fmt, &values[1..], &self.strings);
                self.stdout.push_str(&text);
                Ok(Value::Int(text.len() as i64))
            }
            "malloc" => {
                let bytes = self.eval_expr(&args[0], env, mem)?.as_int().max(0) as u64;
                let ptr = mem.alloc_bytes("<anon>", bytes, MemSpace::Host);
                Ok(Value::Ptr(ptr))
            }
            "free" | "cudaFree" => {
                let v = self.eval_expr(&args[0], env, mem)?;
                match v {
                    Value::Ptr(ptr) => {
                        mem.free(&ptr, self.current_line)?;
                        Ok(Value::Int(0))
                    }
                    Value::NullPtr => Ok(Value::Int(0)),
                    _ => Err(ExecError::InvalidFree {
                        line: self.current_line,
                    }),
                }
            }
            "cudaMalloc" => self.eval_cuda_malloc(args, env, mem),
            "cudaMemcpy" => {
                let dst = self.eval_expr(&args[0], env, mem)?;
                let src = self.eval_expr(&args[1], env, mem)?;
                let bytes = self.eval_expr(&args[2], env, mem)?.as_int().max(0) as u64;
                // The 4th argument (direction) only matters for cost.
                let (Value::Ptr(d), Value::Ptr(s)) = (&dst, &src) else {
                    return Err(ExecError::NullPointer {
                        line: self.current_line,
                    });
                };
                mem.copy(d, s, bytes, self.current_line)?;
                if let Some(backend) = self.backend {
                    self.extra_seconds += backend.memcpy_seconds(bytes);
                }
                self.cost.bytes_read += bytes;
                self.cost.bytes_written += bytes;
                Ok(Value::Int(0))
            }
            "cudaMemset" | "memset" => {
                let dst = self.eval_expr(&args[0], env, mem)?;
                let fill = self.eval_expr(&args[1], env, mem)?;
                let bytes = self.eval_expr(&args[2], env, mem)?.as_int().max(0) as u64;
                if let Value::Ptr(ptr) = dst {
                    let elem_size = mem
                        .buffer_elem(ptr.buffer)
                        .map_or(8, |t| t.size_bytes())
                        .max(1);
                    let count = (bytes / elem_size) as i64;
                    // memset semantics beyond zero-fill are byte-based; ParC
                    // programs only ever use 0, which is type-agnostic.
                    let v = if fill.as_int() == 0 {
                        Value::Int(0)
                    } else {
                        fill
                    };
                    for i in 0..count {
                        mem.store(
                            &ptr,
                            i,
                            &v,
                            self.is_device_access() || ptr.space != MemSpace::Host,
                            self.current_line,
                        )?;
                    }
                    self.cost.bytes_written += bytes;
                }
                Ok(Value::Int(0))
            }
            "cudaDeviceSynchronize" => Ok(Value::Int(0)),
            "memcpy" => {
                let dst = self.eval_expr(&args[0], env, mem)?;
                let src = self.eval_expr(&args[1], env, mem)?;
                let bytes = self.eval_expr(&args[2], env, mem)?.as_int().max(0) as u64;
                if let (Value::Ptr(d), Value::Ptr(s)) = (&dst, &src) {
                    mem.copy(d, s, bytes, self.current_line)?;
                }
                Ok(Value::Int(0))
            }
            "exit" => {
                let code = self.eval_expr(&args[0], env, mem)?.as_int();
                if code == 0 {
                    Ok(ControlFlowExit::ok())
                } else {
                    Err(ExecError::NonZeroExit { code })
                }
            }
            "__syncthreads" => Err(ExecError::BarrierDivergence {
                kernel: "<current kernel>".to_string(),
            }),
            "atomicAdd" => {
                let target = self.eval_expr(&args[0], env, mem)?;
                let delta = self.eval_expr(&args[1], env, mem)?;
                self.cost.atomics += 1;
                match target {
                    Value::Ptr(ptr) => {
                        mem.atomic_add(&ptr, 0, &delta, self.is_device_access(), self.current_line)
                    }
                    _ => Err(ExecError::NullPointer {
                        line: self.current_line,
                    }),
                }
            }
            "atomicMax" | "atomicMin" => {
                let target = self.eval_expr(&args[0], env, mem)?;
                let operand = self.eval_expr(&args[1], env, mem)?;
                self.cost.atomics += 1;
                match target {
                    Value::Ptr(ptr) => mem.atomic_minmax(
                        &ptr,
                        0,
                        &operand,
                        callee == "atomicMax",
                        self.is_device_access(),
                        self.current_line,
                    ),
                    _ => Err(ExecError::NullPointer {
                        line: self.current_line,
                    }),
                }
            }
            "omp_get_wtime" => Ok(Value::Float(self.extra_seconds + self.steps as f64 * 1e-9)),
            "omp_get_thread_num" => Ok(Value::Int(match self.ctx {
                EvalContext::OmpWorker { thread_num, .. } => thread_num,
                _ => 0,
            })),
            "omp_get_num_threads" => Ok(Value::Int(match self.ctx {
                EvalContext::OmpWorker { num_threads, .. } => num_threads,
                _ => 1,
            })),
            "omp_get_max_threads" => Ok(Value::Int(64)),
            "omp_set_num_threads" => {
                self.eval_expr(&args[0], env, mem)?;
                Ok(Value::Int(0))
            }
            "dim3" => {
                let mut dims = [1u32; 3];
                for (i, a) in args.iter().take(3).enumerate() {
                    dims[i] = self.eval_expr(a, env, mem)?.as_int().max(1) as u32;
                }
                Ok(Value::Dim3(Dim3Val::new(dims[0], dims[1], dims[2])))
            }
            _ => self.eval_math_builtin(callee, args, env, mem),
        }
    }

    fn eval_cuda_malloc(
        &mut self,
        args: &[Expr],
        env: &mut Env,
        mem: &Memory,
    ) -> Result<Value, ExecError> {
        let bytes = self.eval_expr(&args[1], env, mem)?.as_int().max(0) as u64;
        match &args[0] {
            Expr::Unary {
                op: UnOp::AddrOf,
                operand,
            } => {
                if let Expr::Ident(name) = operand.as_ref() {
                    let elem = env
                        .get(name)
                        .map(|b| b.ty.clone())
                        .and_then(|t| t.pointee().cloned())
                        .unwrap_or(Type::Double);
                    let len = (bytes / elem.size_bytes().max(1)).max(1) as usize;
                    let ptr = mem.alloc(name, elem, len, MemSpace::Device);
                    if !env.set(name, Value::Ptr(ptr)) {
                        return Err(ExecError::other(format!(
                            "line {}: cudaMalloc target '{name}' is not declared",
                            self.current_line
                        )));
                    }
                    Ok(Value::Int(0))
                } else {
                    Err(ExecError::other(format!(
                        "line {}: cudaMalloc expects '&pointer_variable' as its first argument",
                        self.current_line
                    )))
                }
            }
            _ => Err(ExecError::other(format!(
                "line {}: cudaMalloc expects '&pointer_variable' as its first argument",
                self.current_line
            ))),
        }
    }

    fn eval_math_builtin(
        &mut self,
        callee: &str,
        args: &[Expr],
        env: &mut Env,
        mem: &Memory,
    ) -> Result<Value, ExecError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval_expr(a, env, mem)?);
        }
        let f = |i: usize| vals.get(i).map_or(0.0, |v| v.as_float());
        let n = |i: usize| vals.get(i).map_or(0, |v| v.as_int());
        self.cost.special_ops += 1;
        let out = match callee {
            "sqrt" | "sqrtf" => Value::Float(f(0).sqrt()),
            "fabs" | "fabsf" => Value::Float(f(0).abs()),
            "exp" | "expf" => Value::Float(f(0).exp()),
            "log" | "logf" => Value::Float(f(0).ln()),
            "log2" => Value::Float(f(0).log2()),
            "sin" | "sinf" => Value::Float(f(0).sin()),
            "cos" | "cosf" => Value::Float(f(0).cos()),
            "atan2" => Value::Float(f(0).atan2(f(1))),
            "pow" => Value::Float(f(0).powf(f(1))),
            "floor" => Value::Float(f(0).floor()),
            "ceil" => Value::Float(f(0).ceil()),
            "fmin" => Value::Float(f(0).min(f(1))),
            "fmax" => Value::Float(f(0).max(f(1))),
            "min" => Value::Int(n(0).min(n(1))),
            "max" => Value::Int(n(0).max(n(1))),
            "abs" => Value::Int(n(0).abs()),
            other => {
                return Err(ExecError::other(format!(
                    "line {}: call to unknown function '{other}'",
                    self.current_line
                )))
            }
        };
        Ok(out)
    }

    fn call_user_function(
        &mut self,
        func: &Function,
        args: &[Expr],
        env: &mut Env,
        mem: &Memory,
    ) -> Result<Value, ExecError> {
        if func.qualifier == FnQualifier::Kernel {
            return Err(ExecError::other(format!(
                "line {}: kernel '{}' called directly without a launch configuration",
                self.current_line, func.name
            )));
        }
        if self.call_depth > 64 {
            return Err(ExecError::other("call stack depth exceeded 64 frames"));
        }
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval_expr(a, env, mem)?);
        }
        let mut callee_env = Env::new();
        for (param, value) in func.params.iter().zip(values) {
            callee_env.declare(&param.name, param.ty.clone(), value.coerce_to(&param.ty));
        }
        self.call_depth += 1;
        // The callee body runs in the function's own environment (no access to
        // the caller's locals), matching C semantics.
        let program_fn = self
            .program
            .function(&func.name)
            .expect("function table is stable during execution");
        let flow = self.exec_block(&program_fn.body, &mut callee_env, mem)?;
        self.call_depth -= 1;
        Ok(match flow {
            ControlFlow::Return(v) => v.coerce_to(&func.ret),
            _ => Value::zero_of(&func.ret),
        })
    }

    // ---------------------------------------------------------- parallel hand-off

    fn eval_launch_geometry(
        &mut self,
        e: &Expr,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<Dim3Val, ExecError> {
        let v = self.eval_expr(e, env, mem)?;
        Ok(match v {
            Value::Dim3(d) => d,
            other => Dim3Val::linear(other.as_int().max(0) as u32),
        })
    }

    fn exec_kernel_launch(
        &mut self,
        launch: &lassi_lang::KernelLaunch,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<(), ExecError> {
        let Some(backend) = self.backend else {
            return Err(ExecError::other(
                "kernel launch attempted without a device backend",
            ));
        };
        let Some(kernel) = self.program.function(&launch.kernel) else {
            return Err(ExecError::other(format!(
                "line {}: launch of undefined kernel '{}'",
                self.current_line, launch.kernel
            )));
        };
        let grid = self.eval_launch_geometry(&launch.grid, env, mem)?;
        let block = self.eval_launch_geometry(&launch.block, env, mem)?;
        if grid.count() == 0 || block.count() == 0 {
            return Err(ExecError::InvalidLaunchConfig {
                kernel: launch.kernel.clone(),
                reason: "grid and block dimensions must be non-zero".to_string(),
            });
        }
        if block.count() > 1024 {
            return Err(ExecError::InvalidLaunchConfig {
                kernel: launch.kernel.clone(),
                reason: format!("block size {} exceeds the 1024-thread limit", block.count()),
            });
        }
        let mut args = Vec::with_capacity(launch.args.len());
        for a in &launch.args {
            args.push(self.eval_expr(a, env, mem)?);
        }
        let req = KernelLaunchRequest {
            program: self.program,
            kernel,
            grid,
            block,
            args,
            strings: &self.strings,
            line: self.current_line,
        };
        let stats = backend.launch_kernel(&req, mem)?;
        self.extra_seconds += stats.simulated_seconds;
        self.parallel_cost.merge(&stats.cost);
        Ok(())
    }

    fn exec_pragma(
        &mut self,
        pragma: &PragmaStmt,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError> {
        match pragma.directive.kind {
            OmpDirectiveKind::Barrier => Ok(ControlFlow::Normal),
            OmpDirectiveKind::Atomic => {
                // In sequential host execution the atomicity is trivially
                // satisfied; inside worker threads the backend routes the
                // update through Memory's atomics.
                if let Some(body) = &pragma.body {
                    if let StmtKind::Assign { target, op, value } = &body.kind {
                        if let Expr::Index { .. } = target {
                            let delta = self.eval_expr(value, env, mem)?;
                            let lv = self.eval_lvalue(target, env, mem)?;
                            if let LValue::Mem { ptr, index } = lv {
                                self.cost.atomics += 1;
                                let signed = match op {
                                    AssignOp::SubAssign => match delta {
                                        Value::Int(i) => Value::Int(-i),
                                        other => Value::Float(-other.as_float()),
                                    },
                                    _ => delta,
                                };
                                mem.atomic_add(
                                    &ptr,
                                    index,
                                    &signed,
                                    self.is_device_access(),
                                    self.current_line,
                                )?;
                                return Ok(ControlFlow::Normal);
                            }
                        }
                    }
                    self.exec_stmt(body, env, mem)?;
                }
                Ok(ControlFlow::Normal)
            }
            OmpDirectiveKind::TargetData => {
                let mapped = self.map_sections(&pragma.directive.clauses, env, mem, true)?;
                let flow = match &pragma.body {
                    Some(body) => self.exec_stmt(body, env, mem)?,
                    None => ControlFlow::Normal,
                };
                for id in mapped {
                    mem.set_mapped(id, false);
                }
                Ok(flow)
            }
            OmpDirectiveKind::ParallelFor | OmpDirectiveKind::TargetTeamsDistributeParallelFor => {
                self.exec_worksharing_loop(pragma, env, mem)?;
                Ok(ControlFlow::Normal)
            }
        }
    }

    /// Apply map clauses: mark buffers device-visible and charge transfer time.
    fn map_sections(
        &mut self,
        clauses: &[OmpClause],
        env: &mut Env,
        mem: &Memory,
        charge_transfers: bool,
    ) -> Result<Vec<crate::memory::BufferId>, ExecError> {
        let mut mapped = Vec::new();
        for clause in clauses {
            if let OmpClause::Map { sections, .. } = clause {
                for s in sections {
                    if let Some(binding) = env.get(&s.var) {
                        if let Value::Ptr(ptr) = binding.value {
                            mem.set_mapped(ptr.buffer, true);
                            mapped.push(ptr.buffer);
                            if charge_transfers {
                                let elem =
                                    mem.buffer_elem(ptr.buffer).map_or(8, |t| t.size_bytes());
                                let len = match (&s.lower, &s.len) {
                                    (Some(_), Some(len_expr)) => {
                                        self.eval_expr(&len_expr.clone(), env, mem)?.as_int().max(0)
                                            as u64
                                    }
                                    _ => mem.buffer_len(ptr.buffer) as u64,
                                };
                                let bytes = len * elem;
                                if let Some(backend) = self.backend {
                                    self.extra_seconds += backend.memcpy_seconds(bytes);
                                }
                                self.cost.bytes_read += bytes;
                            }
                        }
                    }
                }
            }
        }
        Ok(mapped)
    }

    fn exec_worksharing_loop(
        &mut self,
        pragma: &PragmaStmt,
        env: &mut Env,
        mem: &Memory,
    ) -> Result<(), ExecError> {
        let Some(backend) = self.backend else {
            return Err(ExecError::other(
                "OpenMP region attempted without a runtime backend",
            ));
        };
        let Some(body_stmt) = pragma.body.as_deref() else {
            return Err(ExecError::other(
                "work-sharing pragma without an associated loop",
            ));
        };
        let StmtKind::For(for_stmt) = &body_stmt.kind else {
            return Err(ExecError::other(format!(
                "line {}: '#pragma omp {}' must be followed by a for loop",
                self.current_line,
                pragma.directive.kind.spelling()
            )));
        };
        let Some((loop_var, lo_expr, hi_expr, step_expr)) = for_stmt.canonical() else {
            return Err(ExecError::other(format!(
                "line {}: loop after '#pragma omp {}' is not in canonical form",
                self.current_line,
                pragma.directive.kind.spelling()
            )));
        };
        let lo = self.eval_expr(&lo_expr, env, mem)?.as_int();
        let hi = self.eval_expr(&hi_expr, env, mem)?.as_int();
        let step = self.eval_expr(&step_expr, env, mem)?.as_int().max(1);

        let offload = pragma.directive.kind.is_offload();
        let mapped = if offload {
            self.map_sections(&pragma.directive.clauses, env, mem, true)?
        } else {
            Vec::new()
        };

        let req = ParallelForRequest {
            program: self.program,
            directive: &pragma.directive,
            loop_var,
            lo,
            hi,
            step,
            body: &for_stmt.body,
            base_env: env.flatten(),
            strings: &self.strings,
            offload,
            line: self.current_line,
        };
        let stats = backend.parallel_for(&req, mem)?;
        self.extra_seconds += stats.simulated_seconds;
        self.parallel_cost.merge(&stats.cost);
        for (name, value) in &stats.reduction_updates {
            env.set(name, *value);
        }
        for id in mapped {
            mem.set_mapped(id, false);
        }
        Ok(())
    }
}

/// Helper used by `exit(0)`: a successful early exit is modelled as a return
/// from main with status 0 (ParC programs only ever call `exit(0)` on the
/// success path; error paths use non-zero codes which become [`ExecError`]s).
struct ControlFlowExit;
impl ControlFlowExit {
    fn ok() -> Value {
        Value::Int(0)
    }
}

/// Apply a binary operator to two values, charging the operator's cost.
/// Shared between the tree-walking evaluator and the bytecode VM so operator
/// semantics (pointer arithmetic, wrapping, coercions) cannot drift.
pub(crate) fn apply_binop(
    op: BinOp,
    l: &Value,
    r: &Value,
    cost: &mut CostCounter,
    line: u32,
) -> Result<Value, ExecError> {
    use BinOp::*;
    // Pointer arithmetic and comparisons.
    if let Value::Ptr(p) = l {
        return match op {
            Add => Ok(Value::Ptr(PtrValue {
                offset: p.offset + r.as_int(),
                ..*p
            })),
            Sub => match r {
                Value::Ptr(q) => Ok(Value::Int(p.offset - q.offset)),
                other => Ok(Value::Ptr(PtrValue {
                    offset: p.offset - other.as_int(),
                    ..*p
                })),
            },
            Eq | Ne | Lt | Gt | Le | Ge => {
                let rq = match r {
                    Value::Ptr(q) => q.offset,
                    other => other.as_int(),
                };
                Ok(Value::Int(compare_ints(op, p.offset, rq)))
            }
            _ => Err(ExecError::other("invalid pointer arithmetic")),
        };
    }
    if let Value::Ptr(q) = r {
        if op == Add {
            return Ok(Value::Ptr(PtrValue {
                offset: q.offset + l.as_int(),
                ..*q
            }));
        }
    }

    let ints = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
    if ints {
        cost.int_ops += 1;
    } else {
        cost.flops += 1;
    }
    let result = if ints {
        match int_binop(op, l.as_int(), r.as_int()) {
            Some(v) => Value::Int(v),
            None => return Err(ExecError::DivisionByZero { line }),
        }
    } else {
        let (a, b) = (l.as_float(), r.as_float());
        match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => Value::Float(a / b),
            Rem => Value::Float(a % b),
            Lt => Value::Int((a < b) as i64),
            Gt => Value::Int((a > b) as i64),
            Le => Value::Int((a <= b) as i64),
            Ge => Value::Int((a >= b) as i64),
            Eq => Value::Int((a == b) as i64),
            Ne => Value::Int((a != b) as i64),
            And => Value::Int(((a != 0.0) && (b != 0.0)) as i64),
            Or => Value::Int(((a != 0.0) || (b != 0.0)) as i64),
            Shl | Shr | BitAnd | BitOr | BitXor => {
                return Err(ExecError::other(format!(
                    "line {line}: bitwise operator applied to floating point operands"
                )))
            }
        }
    };
    Ok(result)
}

/// The int×int result of `op`, or `None` for division or remainder by zero.
#[inline]
pub(crate) fn int_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    use BinOp::*;
    Some(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div | Rem if b == 0 => return None,
        Div => a.wrapping_div(b),
        Rem => a.wrapping_rem(b),
        Shl => a.wrapping_shl(b as u32),
        Shr => a.wrapping_shr(b as u32),
        BitAnd => a & b,
        BitOr => a | b,
        BitXor => a ^ b,
        Lt | Gt | Le | Ge | Eq | Ne => compare_ints(op, a, b),
        And => ((a != 0) && (b != 0)) as i64,
        Or => ((a != 0) || (b != 0)) as i64,
    })
}

fn compare_ints(op: BinOp, a: i64, b: i64) -> i64 {
    let r = match op {
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Le => a <= b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => false,
    };
    r as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::parse;

    fn eval_main(src: &str) -> (Value, Evaluator<'static>, Memory) {
        // Leak the program to keep the test helper simple; tests are short-lived.
        let program: &'static Program =
            Box::leak(Box::new(parse(src, Dialect::CudaLite).expect("parse")));
        let mem = Memory::new();
        let mut env = Env::new();
        let mut eval = Evaluator::for_context(program, EvalContext::Host, 10_000_000);
        let main = program.main().expect("main");
        let flow = eval.exec_block(&main.body, &mut env, &mem).expect("exec");
        let value = match flow {
            ControlFlow::Return(v) => v,
            _ => Value::Void,
        };
        (value, eval, mem)
    }

    #[test]
    fn arithmetic_and_loops() {
        let (v, ..) = eval_main(
            "int main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } return s; }",
        );
        assert_eq!(v, Value::Int(55));
    }

    #[test]
    fn while_break_continue() {
        let (v, ..) = eval_main(
            "int main() { int i = 0; int s = 0; while (1) { i++; if (i > 10) { break; } if (i % 2 == 0) { continue; } s += i; } return s; }",
        );
        assert_eq!(v, Value::Int(25));
    }

    #[test]
    fn malloc_cast_index_free() {
        let (v, _, mem) = eval_main(
            r#"
            int main() {
                int n = 8;
                float* a = (float*)malloc(n * sizeof(float));
                for (int i = 0; i < n; i++) { a[i] = i * 2.0; }
                float s = 0.0;
                for (int i = 0; i < n; i++) { s += a[i]; }
                free(a);
                return (int)s;
            }
            "#,
        );
        assert_eq!(v, Value::Int(56));
        assert_eq!(mem.stats().allocations, 1);
    }

    #[test]
    fn printf_capture() {
        let (_, eval, _) = eval_main(
            r#"int main() { printf("x=%d y=%.2f\n", 3, 1.5); printf("done\n"); return 0; }"#,
        );
        assert_eq!(eval.stdout, "x=3 y=1.50\ndone\n");
    }

    #[test]
    fn user_function_calls() {
        let (v, ..) = eval_main(
            "int square(int x) { return x * x; } int main() { return square(7) + square(2); }",
        );
        assert_eq!(v, Value::Int(53));
    }

    #[test]
    fn ternary_and_logical_short_circuit() {
        let (v, ..) = eval_main(
            "int main() { int a = 0; int b = (a != 0 && 10 / a > 1) ? 1 : 2; return b; }",
        );
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn division_by_zero_detected() {
        let program = parse(
            "int main() { int a = 0; return 10 / a; }",
            Dialect::CudaLite,
        )
        .unwrap();
        let mem = Memory::new();
        let mut env = Env::new();
        let mut eval = Evaluator::for_context(&program, EvalContext::Host, 1_000_000);
        let err = eval
            .exec_block(&program.main().unwrap().body, &mut env, &mem)
            .unwrap_err();
        assert_eq!(err.category(), "division_by_zero");
    }

    #[test]
    fn out_of_bounds_read_detected() {
        let program = parse(
            "int main() { int a[4]; for (int i = 0; i <= 4; i++) { a[i] = i; } return 0; }",
            Dialect::CudaLite,
        )
        .unwrap();
        let mem = Memory::new();
        let mut env = Env::new();
        let mut eval = Evaluator::for_context(&program, EvalContext::Host, 1_000_000);
        let err = eval
            .exec_block(&program.main().unwrap().body, &mut env, &mem)
            .unwrap_err();
        assert_eq!(err.category(), "out_of_bounds");
    }

    #[test]
    fn step_limit_catches_infinite_loops() {
        let program = parse("int main() { while (1) { } return 0; }", Dialect::CudaLite).unwrap();
        let mem = Memory::new();
        let mut env = Env::new();
        let mut eval = Evaluator::for_context(&program, EvalContext::Host, 10_000);
        let err = eval
            .exec_block(&program.main().unwrap().body, &mut env, &mem)
            .unwrap_err();
        assert_eq!(err.category(), "step_limit");
    }

    #[test]
    fn device_thread_geometry_bindings() {
        let program = parse(
            "__global__ void k(int* out) { out[threadIdx.x] = blockIdx.x * blockDim.x + threadIdx.x; } int main() { return 0; }",
            Dialect::CudaLite,
        )
        .unwrap();
        let mem = Memory::new();
        let out = mem.alloc("out", Type::Int, 8, MemSpace::Device);
        let kernel = program.function("k").unwrap();
        let ctx = EvalContext::DeviceThread {
            thread_idx: Dim3Val::linear(3),
            block_idx: Dim3Val::linear(2),
            block_dim: Dim3Val::linear(4),
            grid_dim: Dim3Val::linear(4),
        };
        let mut eval = Evaluator::for_context(&program, ctx, 100_000);
        let mut env = Env::new();
        env.declare("out", Type::Int.ptr(), Value::Ptr(out));
        eval.exec_block(&kernel.body, &mut env, &mem).unwrap();
        assert_eq!(mem.load(&out, 3, true, 0).unwrap(), Value::Int(11));
    }

    #[test]
    fn cost_counters_accumulate() {
        let (_, eval, _) = eval_main(
            "int main() { double s = 0.0; for (int i = 0; i < 100; i++) { s += i * 0.5; } return 0; }",
        );
        assert!(eval.cost.flops >= 100);
        assert!(eval.cost.branches >= 100);
    }

    #[test]
    fn math_builtins() {
        let (v, ..) = eval_main(
            "int main() { double a = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0) + fmax(1.0, 5.0); return (int)a; }",
        );
        assert_eq!(v, Value::Int(19));
    }

    #[test]
    fn float_arrays_round_to_single_precision() {
        let (v, ..) = eval_main(
            "int main() { float a[2]; a[0] = 0.1; double d = a[0]; int ok = d != 0.1; return ok; }",
        );
        assert_eq!(v, Value::Int(1), "stored float must lose double precision");
    }

    #[test]
    fn sizeof_values() {
        let (v, ..) =
            eval_main("int main() { return (int)(sizeof(double) + sizeof(float) + sizeof(int)); }");
        assert_eq!(v, Value::Int(16));
    }
}
