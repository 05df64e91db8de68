//! The register VM: a flat dispatch loop over [`Instr`] streams.
//!
//! One [`Vm`] serves the same three roles as [`crate::eval::Evaluator`] —
//! host code, CUDA device threads and OpenMP workers — selected by the
//! [`EvalContext`] it is constructed with. Registers live in one contiguous
//! `Vec<Value>`; user-function calls push a frame by bumping the base offset,
//! so the hot path never allocates, hashes a name or walks a scope chain.
//! [`Value`] is `Copy` (string literals are ids into
//! [`CompiledProgram::names`]), so filling a frame for each simulated GPU
//! thread and every register move is a plain copy, and int×int operators
//! are computed inline without going through the generic [`apply_binop`].
//!
//! Instructions read their operands in place: a local's slot, or one of the
//! unit's constant slots. A frame therefore starts as a copy of its unit's
//! initial frame ([`Vm::load_frame`], built by [`super::ConstSlots::frame`]
//! plus the caller's parameters), and a user call fills the callee's
//! constant slots itself. Nothing writes a constant slot. Steps are charged
//! by the few charging instructions, each of which may carry the folded
//! steps of the expression nodes that follow it.
//!
//! Every observable of the tree-walking interpreter is reproduced exactly:
//! stdout, cost counters, memory traffic, `extra_seconds`, the step counter
//! (see the charging table in [`super::instr`]) and every error message.

use lassi_lang::{BinOp, Type};

use super::instr::{Axis, FlowKind, Instr, MathFn, Reg, SpecialIdent};
use super::CompiledProgram;
use crate::backend::{CompiledKernelLaunch, CompiledParallelFor, ParallelBackend};
use crate::cost::CostCounter;
use crate::error::ExecError;
use crate::eval::{apply_binop, int_binop, ControlFlow, EvalContext};
use crate::interp::{ExecutionReport, RunConfig};
use crate::memory::{BufferId, MemSpace, Memory};
use crate::printf;
use crate::value::{Dim3Val, Value};

/// One saved call frame of the register stack.
struct Frame {
    /// pc to resume at in the caller.
    ret_pc: usize,
    /// Caller's register base offset.
    caller_base: usize,
    /// Caller's register watermark (start of the callee frame).
    caller_top: usize,
    /// Absolute register index receiving the coerced return value.
    dst_abs: usize,
    /// Function-table index of the callee (for return-type coercion).
    func: u32,
}

/// The bytecode virtual machine.
///
/// The public fields mirror [`crate::eval::Evaluator`]'s so orchestrators
/// (host run, GPU simulator, OpenMP workers) read the run's observables the
/// same way for either engine.
pub struct Vm<'p> {
    /// The compiled program being executed.
    pub prog: &'p CompiledProgram,
    /// Execution context.
    pub ctx: EvalContext,
    /// Operation counters for code executed directly by this VM.
    pub cost: CostCounter,
    /// Operation counters accumulated by delegated parallel constructs.
    pub parallel_cost: CostCounter,
    /// Captured standard output (host context only).
    pub stdout: String,
    /// Simulated seconds accrued by parallel constructs and transfers.
    pub extra_seconds: f64,
    /// Steps executed so far.
    pub steps: u64,
    /// Maximum number of steps before aborting.
    pub step_limit: u64,
    /// Source line of the statement currently executing.
    pub current_line: u32,
    backend: Option<&'p dyn ParallelBackend>,
    call_depth: u32,
    regs: Vec<Value>,
    frames: Vec<Frame>,
    /// Base offset of the current frame inside `regs`.
    base: usize,
    /// One past the last slot of the current frame.
    frame_top: usize,
    /// Buffers mapped by open `target data` / offload frames, in map order.
    mapped: Vec<BufferId>,
    /// `mapped` watermarks, one per open map frame.
    map_marks: Vec<usize>,
}

impl<'p> Vm<'p> {
    /// VM for device / worker code (no backend, no stdout consumers).
    pub fn for_context(prog: &'p CompiledProgram, ctx: EvalContext, step_limit: u64) -> Self {
        Vm {
            prog,
            ctx,
            cost: CostCounter::new(),
            parallel_cost: CostCounter::new(),
            stdout: String::new(),
            extra_seconds: 0.0,
            steps: 0,
            step_limit,
            current_line: 0,
            backend: None,
            call_depth: 0,
            regs: Vec::new(),
            frames: Vec::new(),
            base: 0,
            frame_top: 0,
            mapped: Vec::new(),
            map_marks: Vec::new(),
        }
    }

    /// VM for host code with an attached parallel backend.
    pub fn for_host(
        prog: &'p CompiledProgram,
        backend: &'p dyn ParallelBackend,
        step_limit: u64,
    ) -> Self {
        let mut vm = Vm::for_context(prog, EvalContext::Host, step_limit);
        vm.backend = Some(backend);
        vm
    }

    /// Reset the register stack to a single frame holding a copy of
    /// `frame`: a unit's initial frame, with its constant slots filled (see
    /// [`super::ConstSlots::frame`]) and its parameters seeded. Call once
    /// before the first [`Vm::run_unit`] of a frame's lifetime; kernel
    /// threads keep their frame across barrier segments by *not* calling
    /// this again.
    pub fn load_frame(&mut self, frame: &[Value]) {
        self.regs.clear();
        self.regs.extend_from_slice(frame);
        self.frames.clear();
        self.base = 0;
        self.frame_top = frame.len();
    }

    /// Reset per-thread state so one `Vm` can serve many device threads in
    /// sequence (single-segment kernels, where threads run to completion one
    /// at a time): fresh context, step counter and line. `cost` is left
    /// accumulating — merging once per block equals merging per thread,
    /// since [`CostCounter::merge`] is field-wise addition.
    pub fn reset_thread(&mut self, ctx: EvalContext) {
        self.ctx = ctx;
        self.steps = 0;
        self.current_line = 0;
        self.call_depth = 0;
        self.stdout.clear();
        self.extra_seconds = 0.0;
        self.mapped.clear();
        self.map_marks.clear();
    }

    /// Write a slot of the current frame (parameter / capture seeding).
    pub fn set_slot(&mut self, slot: Reg, v: Value) {
        self.regs[self.base + slot as usize] = v;
    }

    /// Read a slot of the current frame (reduction results, return scratch).
    pub fn slot(&self, slot: Reg) -> &Value {
        &self.regs[self.base + slot as usize]
    }

    #[inline]
    fn charge(&mut self, n: u32) -> Result<(), ExecError> {
        self.steps += n as u64;
        if self.steps > self.step_limit {
            Err(ExecError::StepLimitExceeded {
                limit: self.step_limit,
            })
        } else {
            Ok(())
        }
    }

    #[inline]
    fn reg(&self, r: Reg) -> &Value {
        &self.regs[self.base + r as usize]
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, v: Value) {
        self.regs[self.base + r as usize] = v;
    }

    #[inline]
    fn args(&self, args_base: Reg, argc: u32) -> &[Value] {
        let s = self.base + args_base as usize;
        &self.regs[s..s + argc as usize]
    }

    fn is_device_access(&self) -> bool {
        self.ctx.is_device_access()
    }

    /// An int×int operator computed inline: the value and `int_ops` charge
    /// of [`apply_binop`], without building its `Result`. `None` sends the
    /// operator to [`apply_binop`]: division or remainder by zero, pointers,
    /// floats and mixed operands.
    #[inline(always)]
    fn int_fast(&mut self, op: BinOp, l: &Value, r: &Value) -> Option<Value> {
        let (Value::Int(a), Value::Int(b)) = (l, r) else {
            return None;
        };
        let v = int_binop(op, *a, *b)?;
        self.cost.int_ops += 1;
        Some(Value::Int(v))
    }

    fn err_line(&self, msg: &str) -> ExecError {
        ExecError::other(format!("line {}: {}", self.current_line, msg))
    }

    /// A context builtin's value; outside device code the identifier is
    /// unbound.
    #[inline]
    fn special(&self, which: SpecialIdent, name: u32) -> Result<Dim3Val, ExecError> {
        let EvalContext::DeviceThread {
            thread_idx,
            block_idx,
            block_dim,
            grid_dim,
        } = self.ctx
        else {
            return Err(self.err_line(&format!(
                "use of unbound identifier '{}'",
                self.prog.name(name)
            )));
        };
        Ok(match which {
            SpecialIdent::ThreadIdx => thread_idx,
            SpecialIdent::BlockIdx => block_idx,
            SpecialIdent::BlockDim => block_dim,
            SpecialIdent::GridDim => grid_dim,
        })
    }

    /// Element size used for byte-traffic accounting, like the interpreter's
    /// `buffer_elem(..).map_or(8, ..)`.
    fn elem_size(&self, mem: &Memory, buf: BufferId) -> u64 {
        mem.buffer_elem(buf).map_or(8, |t| t.size_bytes())
    }

    fn pop_map_frame(&mut self, mem: &Memory) {
        let mark = self.map_marks.pop().unwrap_or(0);
        for id in self.mapped.drain(mark..) {
            mem.set_mapped(id, false);
        }
    }

    /// Finish a callee unit: write the coerced return value into the caller's
    /// destination register and restore the caller frame.
    fn pop_frame(&mut self, flow: ControlFlow) -> usize {
        let f = self.frames.pop().expect("return without a frame");
        let ret = &self.prog.funcs[f.func as usize].ret;
        let v = match flow {
            ControlFlow::Return(v) => v.coerce_to(ret),
            _ => Value::zero_of(ret),
        };
        self.regs[f.dst_abs] = v;
        self.base = f.caller_base;
        self.frame_top = f.caller_top;
        self.call_depth -= 1;
        f.ret_pc
    }

    /// Execute one compiled unit starting at `entry` until it terminates.
    ///
    /// The unit runs in the current frame; user calls made by it push and pop
    /// frames internally. Returns the unit's terminal control flow.
    pub fn run_unit(&mut self, mem: &Memory, entry: u32) -> Result<ControlFlow, ExecError> {
        let prog = self.prog;
        let entry_frames = self.frames.len();
        let mut pc = entry as usize;
        loop {
            match &prog.code[pc] {
                Instr::Stmt { line, n } => {
                    self.charge(*n)?;
                    if *line > 0 {
                        self.current_line = *line;
                    }
                }
                Instr::StmtBranch { line, n } => {
                    self.charge(*n)?;
                    if *line > 0 {
                        self.current_line = *line;
                    }
                    self.cost.branches += 1;
                }
                Instr::LoopIter { n } | Instr::TernaryBranch { n } => {
                    self.charge(*n)?;
                    self.cost.branches += 1;
                }
                Instr::Charge { n } => self.charge(*n)?,

                Instr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Instr::JumpIfFalse { cond, target } => {
                    if !self.reg(*cond).is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::JumpIfTrue { cond, target } => {
                    if self.reg(*cond).is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::Ret { src } => {
                    let v = match src {
                        Some(r) => *self.reg(*r),
                        None => Value::Void,
                    };
                    if self.frames.len() == entry_frames {
                        return Ok(ControlFlow::Return(v));
                    }
                    pc = self.pop_frame(ControlFlow::Return(v));
                    continue;
                }
                Instr::EndUnit { flow } => {
                    let flow = match flow {
                        FlowKind::Normal => ControlFlow::Normal,
                        FlowKind::Break => ControlFlow::Break,
                        FlowKind::Continue => ControlFlow::Continue,
                    };
                    if self.frames.len() == entry_frames {
                        return Ok(flow);
                    }
                    pc = self.pop_frame(flow);
                    continue;
                }

                Instr::Const { dst, id } => {
                    self.charge(1)?;
                    self.set_reg(*dst, prog.consts[*id as usize]);
                }
                Instr::ConstFree { dst, id } => {
                    self.set_reg(*dst, prog.consts[*id as usize]);
                }
                Instr::Move { dst, src } => {
                    let v = *self.reg(*src);
                    self.set_reg(*dst, v);
                }
                Instr::LoadVar { dst, slot } => {
                    self.charge(1)?;
                    let v = *self.reg(*slot);
                    self.set_reg(*dst, v);
                }
                Instr::LoadSpecial { dst, which, name } => {
                    let d = self.special(*which, *name)?;
                    self.set_reg(*dst, Value::Dim3(d));
                }
                Instr::ThreadCoord {
                    dst,
                    which,
                    axis,
                    name,
                } => {
                    let d = self.special(*which, *name)?;
                    let v = match axis {
                        Axis::X => d.x,
                        Axis::Y => d.y,
                        Axis::Z => d.z,
                    };
                    self.set_reg(*dst, Value::Int(v as i64));
                }
                Instr::ErrUnbound { name } => {
                    self.charge(1)?;
                    return Err(
                        self.err_line(&format!("use of unbound identifier '{}'", prog.name(*name)))
                    );
                }
                Instr::StoreVar { slot, src, ty } => {
                    let v = self.reg(*src).coerce_to(prog.ty(*ty));
                    self.set_reg(*slot, v);
                }
                Instr::DeclPtrInit {
                    slot,
                    src,
                    ty,
                    name,
                } => {
                    let v = *self.reg(*src);
                    if let Value::Ptr(p) = &v {
                        if let Some(elem) = prog.ty(*ty).pointee() {
                            mem.rename(p.buffer, prog.name(*name));
                            mem.retype(p.buffer, elem.clone());
                        }
                    }
                    let v = v.coerce_to(prog.ty(*ty));
                    self.set_reg(*slot, v);
                }
                Instr::DeclArray {
                    slot,
                    len,
                    elem,
                    name,
                } => {
                    let n = self.reg(*len).as_int().max(0) as usize;
                    let space = if self.is_device_access() {
                        MemSpace::Device
                    } else {
                        MemSpace::Host
                    };
                    let ptr = mem.alloc(prog.name(*name), prog.ty(*elem).clone(), n, space);
                    self.set_reg(*slot, Value::Ptr(ptr));
                }

                Instr::Binary { op, dst, l, r } => {
                    let (lv, rv) = (*self.reg(*l), *self.reg(*r));
                    let v = match self.int_fast(*op, &lv, &rv) {
                        Some(v) => v,
                        None => apply_binop(*op, &lv, &rv, &mut self.cost, self.current_line)?,
                    };
                    self.set_reg(*dst, v);
                }
                Instr::Neg { dst, src } => {
                    let v = match self.reg(*src) {
                        Value::Int(i) => Value::Int(-i),
                        other => Value::Float(-other.as_float()),
                    };
                    self.cost.int_ops += 1;
                    self.set_reg(*dst, v);
                }
                Instr::Not { dst, src } => {
                    let v = Value::Int(if self.reg(*src).is_truthy() { 0 } else { 1 });
                    self.set_reg(*dst, v);
                }
                Instr::DerefLoad { dst, ptr } => {
                    let v = match self.reg(*ptr) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let (v, elem) = mem.load_counted(
                                &p,
                                0,
                                self.is_device_access(),
                                self.current_line,
                            )?;
                            self.cost.bytes_read += elem;
                            v
                        }
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::IndexLoad { dst, base, idx } => {
                    let i = self.reg(*idx).as_int();
                    let v = match self.reg(*base) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let (v, elem) = mem.load_counted(
                                &p,
                                i,
                                self.is_device_access(),
                                self.current_line,
                            )?;
                            self.cost.bytes_read += elem;
                            v
                        }
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                        _ => return Err(self.err_line("subscripted value is not a pointer")),
                    };
                    self.set_reg(*dst, v);
                }
                Instr::MemberGet {
                    dst,
                    src,
                    axis,
                    field,
                } => {
                    let v = match self.reg(*src) {
                        Value::Dim3(d) => Value::Int(match axis {
                            Axis::X => d.x,
                            Axis::Y => d.y,
                            Axis::Z => d.z,
                        } as i64),
                        other => {
                            return Err(self.err_line(&format!(
                                "member access '.{}' on non-dim3 value {}",
                                prog.name(*field),
                                other.text(&prog.names)
                            )))
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::CastScalar { dst, src, ty } => {
                    let v = self.reg(*src).coerce_to(prog.ty(*ty));
                    self.set_reg(*dst, v);
                }
                Instr::CastPtr { dst, src, elem } => {
                    let v = *self.reg(*src);
                    if let Value::Ptr(p) = &v {
                        mem.retype(p.buffer, prog.ty(*elem).clone());
                    }
                    self.set_reg(*dst, v);
                }
                Instr::ErrAddrOf => {
                    self.charge(1)?;
                    return Err(self.err_line(
                        "the address-of operator is only supported as the first argument of cudaMalloc",
                    ));
                }

                Instr::StoreIndex { base, idx, src } => {
                    let i = self.reg(*idx).as_int();
                    let v = *self.reg(*src);
                    match self.reg(*base) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let elem = mem.store_counted(
                                &p,
                                i,
                                &v,
                                self.is_device_access(),
                                self.current_line,
                            )?;
                            self.cost.bytes_written += elem;
                        }
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                        _ => return Err(self.err_line("subscripted value is not a pointer")),
                    }
                }
                Instr::RmwIndex { op, base, idx, src } => {
                    let i = self.reg(*idx).as_int();
                    let p = match self.reg(*base) {
                        Value::Ptr(p) => *p,
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                        _ => return Err(self.err_line("subscripted value is not a pointer")),
                    };
                    let (old, elem) =
                        mem.load_counted(&p, i, self.is_device_access(), self.current_line)?;
                    self.cost.bytes_read += elem;
                    let rv = *self.reg(*src);
                    let new = match self.int_fast(*op, &old, &rv) {
                        Some(v) => v,
                        None => apply_binop(*op, &old, &rv, &mut self.cost, self.current_line)?,
                    };
                    self.cost.bytes_written += elem;
                    mem.store(&p, i, &new, self.is_device_access(), self.current_line)?;
                }
                Instr::StoreDeref { ptr, src } => {
                    let v = *self.reg(*src);
                    match self.reg(*ptr) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let elem = mem.store_counted(
                                &p,
                                0,
                                &v,
                                self.is_device_access(),
                                self.current_line,
                            )?;
                            self.cost.bytes_written += elem;
                        }
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                    }
                }
                Instr::RmwDeref { op, ptr, src } => {
                    let p = match self.reg(*ptr) {
                        Value::Ptr(p) => *p,
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                    };
                    let (old, elem) =
                        mem.load_counted(&p, 0, self.is_device_access(), self.current_line)?;
                    self.cost.bytes_read += elem;
                    let rv = *self.reg(*src);
                    let new = match self.int_fast(*op, &old, &rv) {
                        Some(v) => v,
                        None => apply_binop(*op, &old, &rv, &mut self.cost, self.current_line)?,
                    };
                    self.cost.bytes_written += elem;
                    mem.store(&p, 0, &new, self.is_device_access(), self.current_line)?;
                }
                Instr::RmwVar { op, slot, src, ty } => {
                    let (lv, rv) = (*self.reg(*slot), *self.reg(*src));
                    let new = match self.int_fast(*op, &lv, &rv) {
                        Some(v) => v,
                        None => apply_binop(*op, &lv, &rv, &mut self.cost, self.current_line)?,
                    };
                    self.set_reg(*slot, new.coerce_to(prog.ty(*ty)));
                }
                Instr::ErrPlain { msg } => {
                    return Err(ExecError::other(prog.name(*msg)));
                }
                Instr::ErrLine { msg } => {
                    return Err(self.err_line(prog.name(*msg)));
                }

                Instr::CallPre { n } => {
                    self.charge(*n)?;
                    self.cost.calls += 1;
                }
                Instr::UserCallPre => {
                    self.charge(1)?;
                    self.cost.calls += 1;
                    if self.call_depth > 64 {
                        return Err(ExecError::other("call stack depth exceeded 64 frames"));
                    }
                }
                Instr::CallUser {
                    func,
                    args_base,
                    argc,
                    dst,
                } => {
                    let f = &prog.funcs[*func as usize];
                    let callee_base = self.frame_top;
                    let nslots = f.nslots as usize;
                    if self.regs.len() < callee_base + nslots {
                        self.regs.resize(callee_base + nslots, Value::Int(0));
                    }
                    for (i, param) in f.params.iter().enumerate() {
                        let v = if (i as u32) < *argc {
                            self.regs[self.base + *args_base as usize + i].coerce_to(param)
                        } else {
                            Value::zero_of(param)
                        };
                        self.regs[callee_base + i] = v;
                    }
                    f.consts
                        .fill(&mut self.regs[callee_base..callee_base + nslots]);
                    self.frames.push(Frame {
                        ret_pc: pc + 1,
                        caller_base: self.base,
                        caller_top: self.frame_top,
                        dst_abs: self.base + *dst as usize,
                        func: *func,
                    });
                    self.base = callee_base;
                    self.frame_top = callee_base + nslots;
                    self.call_depth += 1;
                    pc = f.entry as usize;
                    continue;
                }
                Instr::Printf {
                    args_base,
                    argc,
                    dst,
                } => {
                    let text = {
                        let vals = self.args(*args_base, *argc);
                        let fmt = match vals.first() {
                            Some(Value::Str(id)) => prog.name(*id),
                            _ => "",
                        };
                        printf::format(fmt, vals.get(1..).unwrap_or(&[]), &prog.names)
                    };
                    self.stdout.push_str(&text);
                    self.set_reg(*dst, Value::Int(text.len() as i64));
                }
                Instr::Malloc { bytes, dst } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let ptr = mem.alloc_bytes("<anon>", n, MemSpace::Host);
                    self.set_reg(*dst, Value::Ptr(ptr));
                }
                Instr::FreeVal { src, dst } => {
                    match self.reg(*src) {
                        Value::Ptr(p) => mem.free(p, self.current_line)?,
                        Value::NullPtr => {}
                        _ => {
                            return Err(ExecError::InvalidFree {
                                line: self.current_line,
                            })
                        }
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::CudaMalloc {
                    bytes,
                    slot,
                    elem,
                    slot_ty,
                    name,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let elem = prog.ty(*elem).clone();
                    let len = (n / elem.size_bytes().max(1)).max(1) as usize;
                    let ptr = mem.alloc(prog.name(*name), elem, len, MemSpace::Device);
                    let v = Value::Ptr(ptr).coerce_to(prog.ty(*slot_ty));
                    self.set_reg(*slot, v);
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::CudaMallocUnbound { bytes, name } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let len = (n / Type::Double.size_bytes().max(1)).max(1) as usize;
                    mem.alloc(prog.name(*name), Type::Double, len, MemSpace::Device);
                    return Err(self.err_line(&format!(
                        "cudaMalloc target '{}' is not declared",
                        prog.name(*name)
                    )));
                }
                Instr::Memcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let (Value::Ptr(d), Value::Ptr(s)) = (self.reg(*dptr), self.reg(*sptr)) else {
                        return Err(ExecError::NullPointer {
                            line: self.current_line,
                        });
                    };
                    mem.copy(d, s, n, self.current_line)?;
                    if let Some(backend) = self.backend {
                        self.extra_seconds += backend.memcpy_seconds(n);
                    }
                    self.cost.bytes_read += n;
                    self.cost.bytes_written += n;
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::Memset {
                    ptr,
                    fill,
                    bytes,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    if let Value::Ptr(p) = self.reg(*ptr) {
                        let p = *p;
                        let fill = *self.reg(*fill);
                        let elem_size = self.elem_size(mem, p.buffer).max(1);
                        let count = (n / elem_size) as i64;
                        let v = if fill.as_int() == 0 {
                            Value::Int(0)
                        } else {
                            fill
                        };
                        let dev = self.is_device_access() || p.space != MemSpace::Host;
                        for i in 0..count {
                            mem.store(&p, i, &v, dev, self.current_line)?;
                        }
                        self.cost.bytes_written += n;
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::HostMemcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    if let (Value::Ptr(d), Value::Ptr(s)) = (self.reg(*dptr), self.reg(*sptr)) {
                        mem.copy(d, s, n, self.current_line)?;
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::Exit { code, dst } => {
                    let code = self.reg(*code).as_int();
                    if code != 0 {
                        return Err(ExecError::NonZeroExit { code });
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::SyncCallErr => {
                    self.charge(1)?;
                    self.cost.calls += 1;
                    return Err(ExecError::BarrierDivergence {
                        kernel: "<current kernel>".to_string(),
                    });
                }
                Instr::AtomicAdd { target, delta, dst } => {
                    let delta = *self.reg(*delta);
                    self.cost.atomics += 1;
                    let v = match self.reg(*target) {
                        Value::Ptr(p) => mem.atomic_add(
                            p,
                            0,
                            &delta,
                            self.is_device_access(),
                            self.current_line,
                        )?,
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::AtomicMinMax {
                    target,
                    delta,
                    dst,
                    is_max,
                } => {
                    let operand = *self.reg(*delta);
                    self.cost.atomics += 1;
                    let v = match self.reg(*target) {
                        Value::Ptr(p) => mem.atomic_minmax(
                            p,
                            0,
                            &operand,
                            *is_max,
                            self.is_device_access(),
                            self.current_line,
                        )?,
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::WTime { dst } => {
                    let v = Value::Float(self.extra_seconds + self.steps as f64 * 1e-9);
                    self.set_reg(*dst, v);
                }
                Instr::OmpInt { dst, which } => {
                    let v = match which {
                        0 => match self.ctx {
                            EvalContext::OmpWorker { thread_num, .. } => thread_num,
                            _ => 0,
                        },
                        1 => match self.ctx {
                            EvalContext::OmpWorker { num_threads, .. } => num_threads,
                            _ => 1,
                        },
                        _ => 64,
                    };
                    self.set_reg(*dst, Value::Int(v));
                }
                Instr::Dim3Ctor {
                    args_base,
                    argc,
                    dst,
                } => {
                    let mut dims = [1u32; 3];
                    for (i, v) in self.args(*args_base, *argc).iter().enumerate() {
                        dims[i] = v.as_int().max(1) as u32;
                    }
                    self.set_reg(*dst, Value::Dim3(Dim3Val::new(dims[0], dims[1], dims[2])));
                }
                Instr::MathOp {
                    f,
                    args_base,
                    argc,
                    dst,
                } => {
                    let v = {
                        let vals = self.args(*args_base, *argc);
                        let f0 = vals.first().map_or(0.0, |v| v.as_float());
                        let f1 = vals.get(1).map_or(0.0, |v| v.as_float());
                        let n0 = vals.first().map_or(0, |v| v.as_int());
                        let n1 = vals.get(1).map_or(0, |v| v.as_int());
                        match f {
                            MathFn::Sqrt => Value::Float(f0.sqrt()),
                            MathFn::Fabs => Value::Float(f0.abs()),
                            MathFn::Exp => Value::Float(f0.exp()),
                            MathFn::Log => Value::Float(f0.ln()),
                            MathFn::Log2 => Value::Float(f0.log2()),
                            MathFn::Sin => Value::Float(f0.sin()),
                            MathFn::Cos => Value::Float(f0.cos()),
                            MathFn::Atan2 => Value::Float(f0.atan2(f1)),
                            MathFn::Pow => Value::Float(f0.powf(f1)),
                            MathFn::Floor => Value::Float(f0.floor()),
                            MathFn::Ceil => Value::Float(f0.ceil()),
                            MathFn::Fmin => Value::Float(f0.min(f1)),
                            MathFn::Fmax => Value::Float(f0.max(f1)),
                            MathFn::MinInt => Value::Int(n0.min(n1)),
                            MathFn::MaxInt => Value::Int(n0.max(n1)),
                            MathFn::AbsInt => Value::Int(n0.abs()),
                        }
                    };
                    self.cost.special_ops += 1;
                    self.set_reg(*dst, v);
                }
                Instr::ErrUnknownCall { msg } => {
                    self.cost.special_ops += 1;
                    return Err(self.err_line(prog.name(*msg)));
                }

                Instr::LaunchPre { name, defined } => {
                    if self.backend.is_none() {
                        return Err(ExecError::other(
                            "kernel launch attempted without a device backend",
                        ));
                    }
                    if !defined {
                        return Err(self.err_line(&format!(
                            "launch of undefined kernel '{}'",
                            prog.name(*name)
                        )));
                    }
                }
                Instr::GeomConvert { dst, src } => {
                    let d = match self.reg(*src) {
                        Value::Dim3(d) => *d,
                        other => Dim3Val::linear(other.as_int().max(0) as u32),
                    };
                    self.set_reg(*dst, Value::Dim3(d));
                }
                Instr::LaunchCheck { grid, block, name } => {
                    let (Value::Dim3(g), Value::Dim3(b)) = (self.reg(*grid), self.reg(*block))
                    else {
                        unreachable!("GeomConvert always precedes LaunchCheck");
                    };
                    if g.count() == 0 || b.count() == 0 {
                        return Err(ExecError::InvalidLaunchConfig {
                            kernel: prog.name(*name).to_string(),
                            reason: "grid and block dimensions must be non-zero".to_string(),
                        });
                    }
                    if b.count() > 1024 {
                        return Err(ExecError::InvalidLaunchConfig {
                            kernel: prog.name(*name).to_string(),
                            reason: format!(
                                "block size {} exceeds the 1024-thread limit",
                                b.count()
                            ),
                        });
                    }
                }
                Instr::LaunchKernel {
                    kernel,
                    grid,
                    block,
                    args_base,
                    argc,
                } => {
                    let backend = self
                        .backend
                        .expect("LaunchPre verified the backend is attached");
                    let (Value::Dim3(g), Value::Dim3(b)) = (self.reg(*grid), self.reg(*block))
                    else {
                        unreachable!("GeomConvert always precedes LaunchKernel");
                    };
                    let req = CompiledKernelLaunch {
                        program: prog,
                        kernel: *kernel,
                        grid: *g,
                        block: *b,
                        args: self.args(*args_base, *argc).to_vec(),
                        line: self.current_line,
                    };
                    let stats = backend.launch_compiled_kernel(&req, mem)?;
                    self.extra_seconds += stats.simulated_seconds;
                    self.parallel_cost.merge(&stats.cost);
                }

                Instr::AtomicRmw {
                    base,
                    idx,
                    src,
                    negate,
                } => {
                    let i = self.reg(*idx).as_int();
                    let p = match self.reg(*base) {
                        Value::Ptr(p) => *p,
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.current_line,
                            })
                        }
                        _ => return Err(self.err_line("subscripted value is not a pointer")),
                    };
                    self.cost.atomics += 1;
                    let delta = *self.reg(*src);
                    let signed = if *negate {
                        match delta {
                            Value::Int(v) => Value::Int(-v),
                            other => Value::Float(-other.as_float()),
                        }
                    } else {
                        delta
                    };
                    mem.atomic_add(&p, i, &signed, self.is_device_access(), self.current_line)?;
                }
                Instr::MapFramePush => {
                    self.map_marks.push(self.mapped.len());
                }
                Instr::MapFramePop => {
                    self.pop_map_frame(mem);
                }
                Instr::UnmapFrames { n } => {
                    for _ in 0..*n {
                        self.pop_map_frame(mem);
                    }
                }
                Instr::MapSecWhole { slot } => {
                    if let Value::Ptr(p) = self.reg(*slot) {
                        let p = *p;
                        mem.set_mapped(p.buffer, true);
                        self.mapped.push(p.buffer);
                        let elem = self.elem_size(mem, p.buffer);
                        let bytes = mem.buffer_len(p.buffer) as u64 * elem;
                        if let Some(backend) = self.backend {
                            self.extra_seconds += backend.memcpy_seconds(bytes);
                        }
                        self.cost.bytes_read += bytes;
                    }
                }
                Instr::MapSecBegin { slot, tmp, skip } => {
                    if let Value::Ptr(p) = self.reg(*slot) {
                        let p = *p;
                        mem.set_mapped(p.buffer, true);
                        self.mapped.push(p.buffer);
                        self.set_reg(*tmp, Value::Ptr(p));
                    } else {
                        pc = *skip as usize;
                        continue;
                    }
                }
                Instr::MapSecCharge { tmp, len } => {
                    let Value::Ptr(p) = self.reg(*tmp) else {
                        unreachable!("MapSecBegin stored a pointer in the scratch register");
                    };
                    let elem = self.elem_size(mem, p.buffer);
                    let bytes = self.reg(*len).as_int().max(0) as u64 * elem;
                    if let Some(backend) = self.backend {
                        self.extra_seconds += backend.memcpy_seconds(bytes);
                    }
                    self.cost.bytes_read += bytes;
                }
                Instr::OmpPre => {
                    if self.backend.is_none() {
                        return Err(ExecError::other(
                            "OpenMP region attempted without a runtime backend",
                        ));
                    }
                }
                Instr::ParallelFor {
                    region,
                    lo,
                    hi,
                    step,
                } => {
                    let backend = self
                        .backend
                        .expect("OmpPre verified the backend is attached");
                    let r = &prog.regions[*region as usize];
                    let captures = r
                        .captures
                        .iter()
                        .map(|&c| self.regs[self.base + c as usize])
                        .collect();
                    let req = CompiledParallelFor {
                        program: prog,
                        region: *region,
                        lo: self.reg(*lo).as_int(),
                        hi: self.reg(*hi).as_int(),
                        step: self.reg(*step).as_int().max(1),
                        captures,
                        offload: r.offload,
                        line: self.current_line,
                    };
                    let stats = backend.compiled_parallel_for(&req, mem)?;
                    self.extra_seconds += stats.simulated_seconds;
                    self.parallel_cost.merge(&stats.cost);
                    for (name, value) in &stats.reduction_updates {
                        if let Some((_, Some((slot, ty)))) =
                            r.updates.iter().find(|(n, _)| n == name)
                        {
                            self.regs[self.base + *slot as usize] = value.coerce_to(ty);
                        }
                    }
                }
            }
            pc += 1;
        }
    }
}

/// Run a compiled program's host unit end to end, creating a fresh [`Memory`].
/// The compiled twin of [`crate::interp::HostInterpreter::run`].
pub fn run_compiled(
    program: &CompiledProgram,
    config: &RunConfig,
    backend: &dyn ParallelBackend,
    args: &[i64],
) -> Result<ExecutionReport, ExecError> {
    let memory = Memory::new();
    run_compiled_with_memory(program, config, backend, args, &memory)
}

/// Run a compiled program's host unit against a caller-provided [`Memory`]
/// (exposed so callers can inspect buffers after the run).
pub fn run_compiled_with_memory(
    program: &CompiledProgram,
    config: &RunConfig,
    backend: &dyn ParallelBackend,
    args: &[i64],
    memory: &Memory,
) -> Result<ExecutionReport, ExecError> {
    let host = program
        .host
        .as_ref()
        .ok_or_else(|| ExecError::other("program has no 'main' function"))?;
    let mut frame = host.consts.frame(host.nslots);
    for (slot, v) in frame.iter_mut().zip(args.iter().take(host.argc)) {
        *slot = Value::Int(*v);
    }
    let mut vm = Vm::for_host(program, backend, config.step_limit);
    vm.load_frame(&frame);
    let flow = vm.run_unit(memory, host.entry)?;
    let exit_code = match flow {
        ControlFlow::Return(v) => v.as_int(),
        _ => 0,
    };
    if exit_code != 0 {
        return Err(ExecError::NonZeroExit { code: exit_code });
    }
    let host_seconds = vm.cost.total_ops() as f64 * config.host_op_seconds;
    let simulated_seconds = config.startup_seconds + host_seconds + vm.extra_seconds;
    Ok(ExecutionReport {
        stdout: vm.stdout,
        exit_code,
        simulated_seconds,
        parallel_seconds: vm.extra_seconds,
        cost: vm.cost + vm.parallel_cost,
        memory: memory.stats(),
        steps: vm.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LaunchStats, ParallelForRequest};
    use crate::env::Env;
    use crate::eval::{EvalContext, Evaluator};
    use crate::interp::HostInterpreter;
    use lassi_lang::{parse, Dialect};

    struct HostOnly;
    impl ParallelBackend for HostOnly {}

    /// Runs no loop body: reports each work-sharing loop's bounds through
    /// its stats, so a bound read at the wrong time shows in the run's cost
    /// and clock.
    struct BoundsProbe;

    fn bounds_stats(lo: i64, hi: i64, step: i64) -> LaunchStats {
        let cost = CostCounter {
            int_ops: (lo * 1_000_000 + hi * 1_000 + step) as u64,
            ..CostCounter::new()
        };
        LaunchStats {
            simulated_seconds: cost.int_ops as f64 * 1e-9,
            cost,
            reduction_updates: Vec::new(),
        }
    }

    impl ParallelBackend for BoundsProbe {
        fn parallel_for(
            &self,
            req: &ParallelForRequest<'_>,
            _mem: &Memory,
        ) -> Result<LaunchStats, ExecError> {
            Ok(bounds_stats(req.lo, req.hi, req.step))
        }

        fn compiled_parallel_for(
            &self,
            req: &CompiledParallelFor<'_>,
            _mem: &Memory,
        ) -> Result<LaunchStats, ExecError> {
            Ok(bounds_stats(req.lo, req.hi, req.step))
        }
    }

    fn run_both(
        src: &str,
    ) -> (
        Result<ExecutionReport, ExecError>,
        Result<ExecutionReport, ExecError>,
    ) {
        run_both_with(src, Dialect::CudaLite, &HostOnly, RunConfig::default())
    }

    fn run_both_with(
        src: &str,
        dialect: Dialect,
        backend: &dyn ParallelBackend,
        config: RunConfig,
    ) -> (
        Result<ExecutionReport, ExecError>,
        Result<ExecutionReport, ExecError>,
    ) {
        let program = parse(src, dialect).unwrap();
        let mut interp = HostInterpreter::new(&program, config.clone());
        let reference = interp.run(backend, &[]);
        let compiled = super::super::compile(&program, 0);
        let vm = run_compiled(&compiled, &config, backend, &[]);
        (reference, vm)
    }

    fn assert_identical(src: &str) {
        assert_same(run_both(src));
    }

    /// Bit-for-bit agreement of the two engines' results.
    fn assert_same(
        (reference, vm): (
            Result<ExecutionReport, ExecError>,
            Result<ExecutionReport, ExecError>,
        ),
    ) {
        match (reference, vm) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.stdout, b.stdout, "stdout");
                assert_eq!(a.exit_code, b.exit_code, "exit_code");
                assert_eq!(a.steps, b.steps, "steps");
                assert_eq!(a.cost, b.cost, "cost");
                assert_eq!(a.memory, b.memory, "memory");
                assert!(
                    (a.simulated_seconds - b.simulated_seconds).abs() < 1e-15,
                    "simulated_seconds {} vs {}",
                    a.simulated_seconds,
                    b.simulated_seconds
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors must match"),
            (a, b) => panic!("engines disagree: interpreter={a:?} vm={b:?}"),
        }
    }

    // Operands are read in place from their slots; these pin the places
    // where a read must still be a copy, and the folded step charges.

    #[test]
    fn cuda_malloc_after_an_in_place_read_of_its_target() {
        // `cudaMalloc(&v, ...)` rewrites `v` after an earlier operand read
        // it: the operand must keep the value it had when it was read.
        let src = r#"
            int main() {
                long n = 5;
                long m = n + cudaMalloc(&n, 64);
                double* p;
                cudaMalloc(&p, 8);
                double* q = p;
                int same = q == p + cudaMalloc(&p, 16);
                long k = 7;
                int hit = 0;
                if (k + cudaMalloc(&k, 8) == 7) { hit = 1; }
                long t = 3;
                long u = (t > 1) ? t * cudaMalloc(&t, 8) + t : 0;
                printf("%ld %d %d %d\n", m, same, hit, u == t);
                return 0;
            }
        "#;
        assert_identical(src);
        let (_, vm) = run_both(src);
        assert!(vm.unwrap().stdout.starts_with("5 1 1 "));
    }

    #[test]
    fn short_circuit_and_ternary_over_locals_and_literals() {
        assert_identical(
            r#"
            int main() {
                int a = 0;
                int b = 3;
                double x = 2.5;
                int r1 = a && b;
                int r2 = b && 7;
                int r3 = a || 0;
                int r4 = 0 || b;
                int r5 = b || a;
                int r6 = a ? b : 4;
                int r7 = b ? 9 : a;
                double r8 = (x > 2.0) ? x : 1.5;
                int r9 = (a == 0 && b > 2) || x < 0.0;
                int r10 = 0 && 10 / a;
                for (int i = 0; i < 6; i++) {
                    if (i % 2 == 0 && i > 1 || i == 5) { a += i ? i : 100; }
                }
                printf("%d %d %d %d %d %d %d %f %d %d %d\n", r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, a);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn call_windows_mix_locals_literals_and_temporaries() {
        assert_identical(
            r#"
            double f3(double a, int b, double c) { return a * b + c; }
            int g1(int v) { return v + 1; }
            int main() {
                int i = 4;
                double d = 1.5;
                double r = f3(d, 3, d * i) + f3(2.0, i, g1(i)) + g1(7) + g1(i) + g1(i * 2);
                printf("%f %d %s %d %f\n", r, i, "lit", i + 1, d);
                printf("%d %d\n", g1(g1(i)), i);
                printf("done\n");
                printf("%f\n", fmax(d, 2.0) + fmin(1.0, d) + sqrt(d) + pow(d, i));
                dim3 g = dim3(i, 2);
                printf("%d %d %d\n", g.x, g.y, g.z);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn offloaded_loop_bounds_held_across_map_clauses() {
        let src = r#"
            int main() {
                int lo = 2;
                int hi = 40;
                int st = 3;
                int n = 64;
                double* a = (double*)malloc(n * sizeof(double));
                double* b = (double*)malloc(n * sizeof(double));
                #pragma omp target teams distribute parallel for map(to: a[0:n]) map(from: b[0:hi])
                for (int i = lo; i < hi; i += st) {
                    b[i] = a[i];
                }
                #pragma omp target data map(to: a[0:n])
                {
                    #pragma omp target teams distribute parallel for map(tofrom: b[0:n - lo])
                    for (int j = lo * 2; j <= hi; j++) {
                        b[j] = 1.0;
                    }
                }
                #pragma omp parallel for
                for (int k = 0; k < n; k += st) {
                    a[k] = 2.0;
                }
                printf("%f\n", omp_get_wtime());
                return 0;
            }
        "#;
        let (reference, vm) =
            run_both_with(src, Dialect::OmpLite, &BoundsProbe, RunConfig::default());
        let (a, b) = (reference.unwrap(), vm.unwrap());
        // The probe folds every loop's bounds into the cost.
        assert_eq!(a.cost.int_ops, b.cost.int_ops);
        assert!(b.cost.int_ops > 2_000_000 + 40_000 + 3);
        assert_same((Ok(a), Ok(b)));
    }

    #[test]
    fn step_limit_sweep_across_folded_charges() {
        // Every limit from zero to past the end of a host loop: the engines
        // fail with the same error below the run's step count and agree
        // bit for bit from it on. The loop's statements carry folded
        // charges, so the kill lands inside a folded run.
        let src = "int main() { long s = 0; for (int i = 0; i < 6; i++) { s += i * i + 3; } printf(\"%ld\\n\", s); return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let compiled = super::super::compile(&program, 0);
        assert!(compiled
            .code
            .iter()
            .any(|i| matches!(i, Instr::Stmt { n, .. } | Instr::LoopIter { n } if *n > 1)));
        let total = run_compiled(&compiled, &RunConfig::default(), &HostOnly, &[])
            .unwrap()
            .steps;
        for limit in 0..=total + 3 {
            let config = RunConfig {
                step_limit: limit,
                ..RunConfig::default()
            };
            let (reference, vm) = run_both_with(src, Dialect::CudaLite, &HostOnly, config);
            if limit < total {
                assert_eq!(
                    reference.as_ref().unwrap_err(),
                    &ExecError::StepLimitExceeded { limit }
                );
            }
            assert_same((reference, vm));
        }

        // The same sweep over one device thread of a kernel whose statements
        // fold thread-coordinate and operator charges.
        let src = "__global__ void k(int* out, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { out[i] = i * 2 + n; } } int main() { return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let compiled = super::super::compile(&program, 0);
        let kernel = &compiled.kernels[0];
        let ctx = EvalContext::DeviceThread {
            thread_idx: Dim3Val::linear(3),
            block_idx: Dim3Val::linear(1),
            block_dim: Dim3Val::linear(4),
            grid_dim: Dim3Val::linear(2),
        };
        let run_vm = |limit: u64| {
            let mem = Memory::new();
            let out = mem.alloc("out", Type::Int, 8, MemSpace::Device);
            let mut frame = kernel.consts.frame(kernel.nslots);
            frame[0] = Value::Ptr(out);
            frame[1] = Value::Int(8);
            let mut vm = Vm::for_context(&compiled, ctx, limit);
            vm.load_frame(&frame);
            vm.run_unit(&mem, kernel.segments[0])
                .map(|_| (vm.steps, vm.cost, mem.load(&out, 7, true, 0).unwrap()))
        };
        let run_eval = |limit: u64| {
            let mem = Memory::new();
            let out = mem.alloc("out", Type::Int, 8, MemSpace::Device);
            let mut env = Env::new();
            env.declare("out", Type::Int.ptr(), Value::Ptr(out));
            env.declare("n", Type::Int, Value::Int(8));
            let mut eval = Evaluator::for_context(&program, ctx, limit);
            eval.exec_block(&program.function("k").unwrap().body, &mut env, &mem)
                .map(|_| (eval.steps, eval.cost, mem.load(&out, 7, true, 0).unwrap()))
        };
        let total = run_vm(u64::MAX).unwrap().0;
        assert_eq!(run_vm(u64::MAX).unwrap().2, Value::Int(22));
        for limit in 0..=total + 3 {
            assert_eq!(run_vm(limit), run_eval(limit), "limit {limit}");
        }
    }

    #[test]
    fn arithmetic_loops_match() {
        assert_identical(
            "int main() { int s = 0; for (int i = 1; i <= 100; i++) { s += i * i; } printf(\"%d\\n\", s); return 0; }",
        );
    }

    #[test]
    fn while_break_continue_match() {
        assert_identical(
            "int main() { int i = 0; int s = 0; while (1) { i++; if (i > 10) { break; } if (i % 2 == 0) { continue; } s += i; } printf(\"%d\\n\", s); return 0; }",
        );
    }

    #[test]
    fn malloc_cast_index_free_match() {
        assert_identical(
            r#"
            int main() {
                int n = 8;
                float* a = (float*)malloc(n * sizeof(float));
                for (int i = 0; i < n; i++) { a[i] = i * 2.0; }
                float s = 0.0;
                for (int i = 0; i < n; i++) { s += a[i]; }
                free(a);
                printf("%f\n", s);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn user_functions_match() {
        assert_identical(
            "int square(int x) { return x * x; } double fma2(double a, double b) { return a * b + 1.0; } int main() { printf(\"%d %f\\n\", square(7) + square(2), fma2(2.0, 3.0)); return 0; }",
        );
    }

    #[test]
    fn recursion_depth_limit_matches() {
        assert_identical("int rec(int n) { if (n <= 0) { return 0; } return rec(n - 1) + 1; } int main() { return rec(200); }");
    }

    #[test]
    fn ternary_shortcircuit_match() {
        assert_identical(
            "int main() { int a = 0; int b = (a != 0 && 10 / a > 1) ? 1 : 2; int c = (a == 0 || 10 / a > 1) ? 5 : 6; printf(\"%d %d\\n\", b, c); return 0; }",
        );
    }

    #[test]
    fn division_by_zero_matches() {
        assert_identical("int main() { int a = 0; return 10 / a; }");
    }

    #[test]
    fn out_of_bounds_matches() {
        assert_identical(
            "int main() { int a[4]; for (int i = 0; i <= 4; i++) { a[i] = i; } return 0; }",
        );
    }

    #[test]
    fn step_limit_matches() {
        let src = "int main() { while (1) { } return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let config = RunConfig {
            step_limit: 10_000,
            ..RunConfig::default()
        };
        let mut interp = HostInterpreter::new(&program, config.clone());
        let a = interp.run(&HostOnly, &[]).unwrap_err();
        let compiled = super::super::compile(&program, 0);
        let b = run_compiled(&compiled, &config, &HostOnly, &[]).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn math_builtins_match() {
        assert_identical(
            "int main() { double a = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0) + fmax(1.0, 5.0) + min(3, 9) + abs(-4); printf(\"%f\\n\", a); return 0; }",
        );
    }

    #[test]
    fn wtime_step_parity() {
        // omp_get_wtime derives its reading from the live step counter, so
        // any step drift between the engines shows up in stdout.
        assert_identical(
            "int main() { double t0 = omp_get_wtime(); double s = 0.0; for (int i = 0; i < 1000; i++) { s += i * 0.5; } double t1 = omp_get_wtime(); printf(\"%.12f %f\\n\", t1 - t0, s); return 0; }",
        );
    }

    #[test]
    fn runtime_args_match() {
        let src = "int main() { long n = arg0; printf(\"%ld\\n\", n * 2); return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let config = RunConfig::default();
        let mut interp = HostInterpreter::new(&program, config.clone());
        let a = interp.run(&HostOnly, &[21]).unwrap();
        let compiled = super::super::compile(&program, 1);
        let b = run_compiled(&compiled, &config, &HostOnly, &[21]).unwrap();
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn unbound_identifier_matches() {
        assert_identical("int main() { int x = nope; return 0; }");
        // Context builtins are unbound outside device code, whether read
        // whole or through a thread-coordinate member.
        assert_identical("int main() { int x = 1 + threadIdx.x; return 0; }");
        assert_identical("int main() { dim3 b = blockDim; return 0; }");
        let (_, vm) = run_both("int main() { int x = 1 + threadIdx.x; return 0; }");
        assert!(vm
            .unwrap_err()
            .to_string()
            .contains("line 1: use of unbound identifier 'threadIdx'"));
    }

    #[test]
    fn unknown_function_matches() {
        assert_identical("int main() { int x = frobnicate(3); return 0; }");
    }

    #[test]
    fn float_precision_matches() {
        assert_identical(
            "int main() { float a[2]; a[0] = 0.1; double d = a[0]; int ok = d != 0.1; printf(\"%d\\n\", ok); return 0; }",
        );
    }

    #[test]
    fn host_string_literals_match() {
        // Literals as the format, as `%s` arguments (padded too) and passed
        // through a user-function parameter before use as a format.
        let src = r#"
            void say(int* fmt, int n) { printf(fmt, n, "tail"); }
            int main() {
                printf("%s=%d %s\n", "answer", 42, "ok");
                printf("plain\n");
                say("n=%d %s\n", 7);
                printf("[%5s|%-6s]\n", "ab", "cd");
                return 0;
            }
        "#;
        assert_identical(src);
        let (_, vm) = run_both(src);
        assert_eq!(
            vm.unwrap().stdout,
            "answer=42 ok\nplain\nn=7 tail\n[   ab|cd    ]\n"
        );
    }

    #[test]
    fn member_access_on_a_string_matches() {
        let src = r#"int main() { int* s = "abc"; int x = s.y; return 0; }"#;
        assert_identical(src);
        let (_, vm) = run_both(src);
        assert!(vm
            .unwrap_err()
            .to_string()
            .contains("member access '.y' on non-dim3 value abc"));
    }

    #[test]
    fn kernel_string_literals_match() {
        let src = r#"
            __global__ void k(int* out) {
                printf("thread %d of %s\n", threadIdx.x, "k");
                printf("%s|%3s\n", "done", "x");
                out[threadIdx.x] = 1;
            }
            int main() { return 0; }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let ctx = EvalContext::DeviceThread {
            thread_idx: Dim3Val::linear(2),
            block_idx: Dim3Val::linear(0),
            block_dim: Dim3Val::linear(4),
            grid_dim: Dim3Val::linear(1),
        };

        let compiled = super::super::compile(&program, 0);
        let kernel = &compiled.kernels[0];
        let mem = Memory::new();
        let out = mem.alloc("out", Type::Int, 4, MemSpace::Device);
        let mut vm = Vm::for_context(&compiled, ctx, 100_000);
        vm.load_frame(&kernel.consts.frame(kernel.nslots));
        vm.set_slot(0, Value::Ptr(out));
        for &seg in &kernel.segments {
            vm.run_unit(&mem, seg).unwrap();
        }

        let mut eval = Evaluator::for_context(&program, ctx, 100_000);
        let mem2 = Memory::new();
        let out2 = mem2.alloc("out", Type::Int, 4, MemSpace::Device);
        let mut env = Env::new();
        env.declare("out", Type::Int.ptr(), Value::Ptr(out2));
        eval.exec_block(&program.function("k").unwrap().body, &mut env, &mem2)
            .unwrap();

        assert_eq!(vm.stdout, "thread 2 of k\ndone|  x\n");
        assert_eq!(vm.stdout, eval.stdout, "device-thread stdout parity");
        assert_eq!(vm.steps, eval.steps, "device-thread step parity");
        assert_eq!(vm.cost, eval.cost, "device-thread cost parity");
    }

    #[test]
    fn device_thread_segments_execute() {
        // Drive the VM directly as a device thread over a kernel unit.
        let src = "__global__ void k(int* out) { out[threadIdx.x] = blockIdx.x * blockDim.x + threadIdx.x; } int main() { return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let compiled = super::super::compile(&program, 0);
        let kernel = &compiled.kernels[0];
        let mem = Memory::new();
        let out = mem.alloc("out", Type::Int, 8, MemSpace::Device);
        let ctx = EvalContext::DeviceThread {
            thread_idx: Dim3Val::linear(3),
            block_idx: Dim3Val::linear(2),
            block_dim: Dim3Val::linear(4),
            grid_dim: Dim3Val::linear(4),
        };
        let mut vm = Vm::for_context(&compiled, ctx, 100_000);
        vm.load_frame(&kernel.consts.frame(kernel.nslots));
        vm.set_slot(0, Value::Ptr(out));
        for &seg in &kernel.segments {
            vm.run_unit(&mem, seg).unwrap();
        }
        assert_eq!(mem.load(&out, 3, true, 0).unwrap(), Value::Int(11));

        // And the tree-walking evaluator agrees on the step count.
        let mut eval = Evaluator::for_context(&program, ctx, 100_000);
        let mem2 = Memory::new();
        let out2 = mem2.alloc("out", Type::Int, 8, MemSpace::Device);
        let mut env = Env::new();
        env.declare("out", Type::Int.ptr(), Value::Ptr(out2));
        eval.exec_block(&program.function("k").unwrap().body, &mut env, &mem2)
            .unwrap();
        assert_eq!(vm.steps, eval.steps, "device-thread step parity");
        assert_eq!(vm.cost, eval.cost, "device-thread cost parity");
    }
}
