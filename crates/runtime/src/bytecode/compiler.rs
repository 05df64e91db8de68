//! AST → bytecode lowering.
//!
//! The compiler performs a single walk over a (checked) [`Program`] and emits
//! one flat instruction stream. Name resolution happens here: every variable
//! becomes a frame-relative slot, with lexical scopes mirroring the
//! interpreter's dynamic scope stack (within a function the two agree — ParC
//! has no gotos, so the set of live bindings at a program point is static).
//!
//! Operands are read where they already live. An identifier that resolves
//! to a local returns that slot as the operand register, and a literal
//! returns one of the unit's constant slots ([`super::ConstSlots`]), filled
//! when the frame is set up; neither emits an instruction. Expressions
//! cannot assign, so the one expression that writes a local slot is
//! `cudaMalloc(&v, ...)`: in a statement that calls it, locals and literals
//! are copied into fresh registers ([`Instr::LoadVar`] / [`Instr::Const`])
//! so a later operand cannot see the write. Copies are also kept in argument
//! windows of two or more registers, which must be contiguous, and for an
//! offloaded loop's bounds, which are held across its map clauses. A
//! `threadIdx.x`-style member read of a context builtin is one
//! [`Instr::ThreadCoord`].
//!
//! Step parity with the interpreter is the one invariant everything else
//! leans on; see the charging table in [`super::instr`]. An expression
//! node's step is folded into the charging instruction emitted directly
//! before it ([`Instr::Charge`], a statement entry, a loop head, ...) and
//! never across a bound label: a jump landing between the two would observe
//! the wrong step count. Folding moves a charge only past instructions that
//! were never emitted, so the kill step, its error and every later reading
//! of the counter are unchanged.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use lassi_lang::{
    printer, AssignOp, BinOp, Block, Expr, FnQualifier, ForStmt, Function, KernelLaunch, OmpClause,
    OmpDirectiveKind, PragmaStmt, Program, Stmt, StmtKind, Type, UnOp,
};

use super::instr::{Axis, FlowKind, Instr, MathFn, Reg, SpecialIdent};
use super::{
    CompiledFunction, CompiledKernel, CompiledProgram, CompiledReduction, CompiledRegion,
    CompiledShared, ConstSlots, HostUnit, SharedLen,
};
use crate::value::Value;

/// Compile a checked program into register bytecode.
///
/// `argc` is the number of `arg{i}` runtime-argument bindings the host entry
/// is compiled against (the interpreter declares one `long` per element of
/// the argument slice passed to `HostInterpreter::run`).
///
/// The input is expected to have passed semantic checking; malformed builtin
/// calls (wrong arity) may panic here, exactly as they would at run time in
/// the interpreter.
pub fn compile(program: &Program, argc: usize) -> CompiledProgram {
    let mut cc = Compiler::new(program);
    cc.register_functions();
    cc.compile_units(argc);
    CompiledProgram {
        code: cc.code,
        consts: cc.consts,
        names: cc.names,
        types: cc.types,
        funcs: cc.funcs,
        kernels: cc.kernels,
        regions: cc.regions,
        host: cc.host,
    }
}

/// Hashable key for constant-pool deduplication.
#[derive(Hash, PartialEq, Eq)]
enum ConstKey {
    Int(i64),
    Float(u64),
    Str(u32),
    Dim3(u32, u32, u32),
    Void,
    NullPtr,
}

impl ConstKey {
    fn of(v: &Value) -> ConstKey {
        match v {
            Value::Int(i) => ConstKey::Int(*i),
            Value::Float(f) => ConstKey::Float(f.to_bits()),
            Value::Str(id) => ConstKey::Str(*id),
            Value::Dim3(d) => ConstKey::Dim3(d.x, d.y, d.z),
            Value::Void => ConstKey::Void,
            _ => ConstKey::NullPtr,
        }
    }
}

/// One lexical scope of a function context.
struct Scope {
    /// Bindings in declaration order (resolution scans in reverse, so a
    /// re-declaration shadows an earlier one exactly like `Env::declare`
    /// replacing the binding).
    vars: Vec<(String, Reg, Type)>,
    /// Slot watermark to restore on scope exit.
    base: Reg,
}

/// Break/continue patch lists of the innermost loop being compiled.
struct LoopCtx {
    break_jumps: Vec<usize>,
    continue_jumps: Vec<usize>,
    /// `target data` nesting depth at loop entry; break/continue unwind the
    /// difference.
    map_depth: u32,
}

/// Per-unit compilation state: scopes, the slot bump allocator and loop
/// patch lists.
struct FnCtx {
    scopes: Vec<Scope>,
    next_slot: Reg,
    high: Reg,
    loops: Vec<LoopCtx>,
    map_depth: u32,
    /// The unit's constant slots, by value.
    consts: HashMap<ConstKey, Reg>,
}

impl FnCtx {
    fn new() -> FnCtx {
        FnCtx {
            scopes: Vec::new(),
            next_slot: 0,
            high: 0,
            loops: Vec::new(),
            map_depth: 0,
            consts: HashMap::new(),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(Scope {
            vars: Vec::new(),
            base: self.next_slot,
        });
    }

    fn pop_scope(&mut self) {
        let s = self.scopes.pop().expect("scope underflow");
        self.next_slot = s.base;
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_slot;
        self.next_slot += 1;
        self.high = self.high.max(self.next_slot);
        r
    }

    fn alloc_n(&mut self, n: u32) -> Reg {
        let r = self.next_slot;
        self.next_slot += n;
        self.high = self.high.max(self.next_slot);
        r
    }

    fn bind(&mut self, name: &str, slot: Reg, ty: Type) {
        self.scopes
            .last_mut()
            .expect("bind outside any scope")
            .vars
            .push((name.to_string(), slot, ty));
    }

    fn resolve(&self, name: &str) -> Option<(Reg, Type)> {
        for scope in self.scopes.iter().rev() {
            for (n, r, t) in scope.vars.iter().rev() {
                if n == name {
                    return Some((*r, t.clone()));
                }
            }
        }
        None
    }
}

struct Compiler<'p> {
    program: &'p Program,
    code: Vec<Instr>,
    consts: Vec<Value>,
    const_ids: HashMap<ConstKey, u32>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    types: Vec<Type>,
    funcs: Vec<CompiledFunction>,
    /// Function-table id per *first-match* function name (the interpreter's
    /// `Program::function` resolves first by declaration order).
    func_ids: HashMap<String, u32>,
    kernels: Vec<CompiledKernel>,
    kernel_ids: HashMap<String, u32>,
    regions: Vec<CompiledRegion>,
    host: Option<HostUnit>,
    /// `code.len()` at the most recent bound label; charges never merge
    /// across it.
    last_label: usize,
    /// Set while compiling a statement that calls `cudaMalloc`, the one
    /// expression that writes a local slot: locals and literals are then
    /// copied instead of read in place.
    copy_leaves: bool,
}

impl<'p> Compiler<'p> {
    fn new(program: &'p Program) -> Compiler<'p> {
        Compiler {
            program,
            code: Vec::new(),
            consts: Vec::new(),
            const_ids: HashMap::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            types: Vec::new(),
            funcs: Vec::new(),
            func_ids: HashMap::new(),
            kernels: Vec::new(),
            kernel_ids: HashMap::new(),
            regions: Vec::new(),
            host: None,
            last_label: 0,
            copy_leaves: false,
        }
    }

    // ------------------------------------------------------------ pools

    fn const_id(&mut self, v: Value) -> u32 {
        let key = ConstKey::of(&v);
        if let Some(&id) = self.const_ids.get(&key) {
            return id;
        }
        let id = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ids.insert(key, id);
        id
    }

    fn name_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_ids.insert(s.to_string(), id);
        id
    }

    fn type_id(&mut self, t: &Type) -> u32 {
        if let Some(pos) = self.types.iter().position(|x| x == t) {
            return pos as u32;
        }
        self.types.push(t.clone());
        (self.types.len() - 1) as u32
    }

    // ------------------------------------------------------- code emission

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    /// Mark the current pc as a jump target: charges must not merge across.
    fn bind_label(&mut self) -> u32 {
        self.last_label = self.code.len();
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Instr::Jump { target }
            | Instr::JumpIfFalse { target, .. }
            | Instr::JumpIfTrue { target, .. } => *target = to,
            Instr::MapSecBegin { skip, .. } => *skip = to,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    /// Charge one expression-node step, merging into the trailing charging
    /// instruction when no label was bound since it was emitted. Only
    /// instructions that charge before anything else they do and cannot
    /// fail afterwards take merged steps.
    fn charge(&mut self) {
        if self.code.len() > self.last_label {
            if let Some(
                Instr::Charge { n }
                | Instr::Stmt { n, .. }
                | Instr::StmtBranch { n, .. }
                | Instr::LoopIter { n }
                | Instr::TernaryBranch { n }
                | Instr::CallPre { n },
            ) = self.code.last_mut()
            {
                *n += 1;
                return;
            }
        }
        self.emit(Instr::Charge { n: 1 });
    }

    /// Give each literal the unit's statements evaluate a constant slot in
    /// `ctx`'s frame, allocated at the current watermark.
    fn reserve_consts<'s>(
        &mut self,
        stmts: impl IntoIterator<Item = &'s Stmt>,
        ctx: &mut FnCtx,
    ) -> ConstSlots {
        let mut literals = Vec::new();
        for s in stmts {
            walk_stmts(s, false, &mut |st| {
                own_exprs(st, &mut |e| self.collect_literals(e, &mut literals))
            });
        }
        self.const_slots(literals, ctx)
    }

    fn collect_literals(&mut self, e: &Expr, out: &mut Vec<Value>) {
        walk_expr(e, &mut |node| out.extend(self.literal_value(node)));
    }

    /// Allocate one slot per distinct value of `literals` at the current
    /// watermark.
    fn const_slots(&mut self, literals: Vec<Value>, ctx: &mut FnCtx) -> ConstSlots {
        let mut values = Vec::new();
        for v in literals {
            if let Entry::Vacant(slot) = ctx.consts.entry(ConstKey::of(&v)) {
                slot.insert(ctx.next_slot + values.len() as Reg);
                values.push(v);
            }
        }
        let base = ctx.alloc_n(values.len() as u32);
        ConstSlots { base, values }
    }

    fn literal_value(&mut self, e: &Expr) -> Option<Value> {
        Some(match e {
            Expr::IntLit(v) => Value::Int(*v),
            Expr::FloatLit(v) => Value::Float(*v),
            Expr::StrLit(s) => Value::Str(self.name_id(s)),
            Expr::Sizeof(ty) => Value::Int(ty.size_bytes() as i64),
            _ => return None,
        })
    }

    /// A literal's value: read in place from its constant slot, or copied
    /// into a fresh register when `copy` is set or the unit has no slot for
    /// it (a literal synthesized by the lowering itself).
    fn literal(&mut self, v: Value, ctx: &mut FnCtx, copy: bool) -> Reg {
        if !copy {
            if let Some(&slot) = ctx.consts.get(&ConstKey::of(&v)) {
                self.charge();
                return slot;
            }
        }
        let id = self.const_id(v);
        let dst = ctx.alloc();
        self.emit(Instr::Const { dst, id });
        dst
    }

    // -------------------------------------------------------- expressions

    /// Compile an expression; returns the register holding its value.
    /// Locals and literals are read in place unless the statement being
    /// compiled calls `cudaMalloc`.
    fn expr(&mut self, e: &Expr, ctx: &mut FnCtx) -> Reg {
        self.operand(e, ctx, self.copy_leaves)
    }

    /// [`Compiler::expr`], where `copy` decides whether a local or literal at
    /// the root of `e` is copied into a fresh register. Subexpressions follow
    /// the statement's rule.
    fn operand(&mut self, e: &Expr, ctx: &mut FnCtx, copy: bool) -> Reg {
        match e {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::StrLit(_) | Expr::Sizeof(_) => {
                let v = self.literal_value(e).expect("a literal");
                self.literal(v, ctx, copy)
            }
            Expr::Ident(name) => self.ident(name, ctx, copy),
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, ctx),
            Expr::Unary { op, operand } => match op {
                UnOp::Neg => {
                    self.charge();
                    let src = self.expr(operand, ctx);
                    let dst = ctx.alloc();
                    self.emit(Instr::Neg { dst, src });
                    dst
                }
                UnOp::Not => {
                    self.charge();
                    let src = self.expr(operand, ctx);
                    let dst = ctx.alloc();
                    self.emit(Instr::Not { dst, src });
                    dst
                }
                UnOp::Deref => {
                    self.charge();
                    let ptr = self.expr(operand, ctx);
                    let dst = ctx.alloc();
                    self.emit(Instr::DerefLoad { dst, ptr });
                    dst
                }
                UnOp::AddrOf => {
                    // The interpreter fails without evaluating the operand.
                    self.emit(Instr::ErrAddrOf);
                    ctx.alloc()
                }
            },
            Expr::Call { callee, args } => self.call(callee, args, ctx),
            Expr::Index { base, index } => {
                self.charge();
                let b = self.expr(base, ctx);
                let idx = self.expr(index, ctx);
                let dst = ctx.alloc();
                self.emit(Instr::IndexLoad { dst, base: b, idx });
                dst
            }
            Expr::Member { base, field } => {
                self.charge();
                let axis = match field.as_str() {
                    "x" => Axis::X,
                    "y" => Axis::Y,
                    _ => Axis::Z,
                };
                let special = match base.as_ref() {
                    Expr::Ident(name) if ctx.resolve(name).is_none() => {
                        special_ident(name).map(|which| (which, name))
                    }
                    _ => None,
                };
                if let Some((which, name)) = special {
                    self.charge();
                    let name = self.name_id(name);
                    let dst = ctx.alloc();
                    self.emit(Instr::ThreadCoord {
                        dst,
                        which,
                        axis,
                        name,
                    });
                    return dst;
                }
                let src = self.expr(base, ctx);
                let field = self.name_id(field);
                let dst = ctx.alloc();
                self.emit(Instr::MemberGet {
                    dst,
                    src,
                    axis,
                    field,
                });
                dst
            }
            Expr::Cast { ty, expr } => {
                self.charge();
                let src = self.expr(expr, ctx);
                let dst = ctx.alloc();
                match ty {
                    Type::Ptr(elem) => {
                        let elem = self.type_id(elem);
                        self.emit(Instr::CastPtr { dst, src, elem });
                    }
                    other => {
                        let ty = self.type_id(other);
                        self.emit(Instr::CastScalar { dst, src, ty });
                    }
                }
                dst
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let dst = ctx.alloc();
                self.emit(Instr::TernaryBranch { n: 1 });
                let c = self.expr(cond, ctx);
                let jf = self.emit(Instr::JumpIfFalse { cond: c, target: 0 });
                let t = self.expr(then_expr, ctx);
                self.emit(Instr::Move { dst, src: t });
                let jend = self.emit(Instr::Jump { target: 0 });
                let else_l = self.bind_label();
                self.patch(jf, else_l);
                let e = self.expr(else_expr, ctx);
                self.emit(Instr::Move { dst, src: e });
                let end = self.bind_label();
                self.patch(jend, end);
                dst
            }
        }
    }

    /// An identifier read: a local is its own slot (or a copy with `copy`).
    fn ident(&mut self, name: &str, ctx: &mut FnCtx, copy: bool) -> Reg {
        if let Some((slot, _)) = ctx.resolve(name) {
            if !copy {
                self.charge();
                return slot;
            }
            let dst = ctx.alloc();
            self.emit(Instr::LoadVar { dst, slot });
            return dst;
        }
        if let Some(which) = special_ident(name) {
            self.charge();
            let name = self.name_id(name);
            let dst = ctx.alloc();
            self.emit(Instr::LoadSpecial { dst, which, name });
            return dst;
        }
        let constant = match name {
            "cudaMemcpyHostToDevice" => Some(1),
            "cudaMemcpyDeviceToHost" => Some(2),
            "cudaMemcpyDeviceToDevice" => Some(3),
            _ => None,
        };
        if let Some(v) = constant {
            return self.literal(Value::Int(v), ctx, copy);
        }
        let name = self.name_id(name);
        self.emit(Instr::ErrUnbound { name });
        ctx.alloc()
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &mut FnCtx) -> Reg {
        self.charge();
        let l = self.expr(lhs, ctx);
        if op == BinOp::And || op == BinOp::Or {
            let dst = ctx.alloc();
            let jshort = if op == BinOp::And {
                self.emit(Instr::JumpIfFalse { cond: l, target: 0 })
            } else {
                self.emit(Instr::JumpIfTrue { cond: l, target: 0 })
            };
            let r = self.expr(rhs, ctx);
            self.emit(Instr::Binary { op, dst, l, r });
            let jend = self.emit(Instr::Jump { target: 0 });
            let short_l = self.bind_label();
            self.patch(jshort, short_l);
            let id = self.const_id(Value::Int((op == BinOp::Or) as i64));
            self.emit(Instr::ConstFree { dst, id });
            let end = self.bind_label();
            self.patch(jend, end);
            return dst;
        }
        let r = self.expr(rhs, ctx);
        let dst = ctx.alloc();
        self.emit(Instr::Binary { op, dst, l, r });
        dst
    }

    /// Compile argument expressions and return a contiguous register block.
    /// A one-register window is contiguous as it stands, so its argument
    /// may be read in place; in a wider window a local or literal argument
    /// is copied, so the block stays contiguous without moves.
    fn gather<'e>(&mut self, args: impl Iterator<Item = &'e Expr>, ctx: &mut FnCtx) -> (Reg, u32) {
        let args: Vec<&Expr> = args.collect();
        let copy = self.copy_leaves || args.len() > 1;
        let regs: Vec<Reg> = args.iter().map(|a| self.operand(a, ctx, copy)).collect();
        if regs.is_empty() {
            return (0, 0);
        }
        let contiguous = regs.windows(2).all(|w| w[1] == w[0] + 1);
        if contiguous {
            return (regs[0], regs.len() as u32);
        }
        let base = ctx.alloc_n(regs.len() as u32);
        for (i, &src) in regs.iter().enumerate() {
            self.emit(Instr::Move {
                dst: base + i as u32,
                src,
            });
        }
        (base, regs.len() as u32)
    }

    fn call(&mut self, callee: &str, args: &[Expr], ctx: &mut FnCtx) -> Reg {
        // User-defined functions first, matching `Evaluator::eval_call`.
        if let Some(func) = self.program.function(callee) {
            if func.qualifier == FnQualifier::Kernel {
                self.emit(Instr::CallPre { n: 1 });
                let msg = self.name_id(&format!(
                    "kernel '{}' called directly without a launch configuration",
                    func.name
                ));
                self.emit(Instr::ErrLine { msg });
                return ctx.alloc();
            }
            self.emit(Instr::UserCallPre);
            let (args_base, argc) = self.gather(args.iter(), ctx);
            let func = self.func_ids[callee];
            let dst = ctx.alloc();
            self.emit(Instr::CallUser {
                func,
                args_base,
                argc,
                dst,
            });
            return dst;
        }

        match callee {
            "printf" => {
                self.emit(Instr::CallPre { n: 1 });
                let (args_base, argc) = self.gather(args.iter(), ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Printf {
                    args_base,
                    argc,
                    dst,
                });
                dst
            }
            "malloc" => {
                self.emit(Instr::CallPre { n: 1 });
                let bytes = self.expr(&args[0], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Malloc { bytes, dst });
                dst
            }
            "free" | "cudaFree" => {
                self.emit(Instr::CallPre { n: 1 });
                let src = self.expr(&args[0], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::FreeVal { src, dst });
                dst
            }
            "cudaMalloc" => self.cuda_malloc(args, ctx),
            "cudaMemcpy" => {
                self.emit(Instr::CallPre { n: 1 });
                let dptr = self.expr(&args[0], ctx);
                let sptr = self.expr(&args[1], ctx);
                let bytes = self.expr(&args[2], ctx);
                // The 4th (direction) argument is never evaluated.
                let dst = ctx.alloc();
                self.emit(Instr::Memcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                });
                dst
            }
            "cudaMemset" | "memset" => {
                self.emit(Instr::CallPre { n: 1 });
                let ptr = self.expr(&args[0], ctx);
                let fill = self.expr(&args[1], ctx);
                let bytes = self.expr(&args[2], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Memset {
                    ptr,
                    fill,
                    bytes,
                    dst,
                });
                dst
            }
            "cudaDeviceSynchronize" => {
                self.emit(Instr::CallPre { n: 1 });
                let id = self.const_id(Value::Int(0));
                let dst = ctx.alloc();
                self.emit(Instr::ConstFree { dst, id });
                dst
            }
            "memcpy" => {
                self.emit(Instr::CallPre { n: 1 });
                let dptr = self.expr(&args[0], ctx);
                let sptr = self.expr(&args[1], ctx);
                let bytes = self.expr(&args[2], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::HostMemcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                });
                dst
            }
            "exit" => {
                self.emit(Instr::CallPre { n: 1 });
                let code = self.expr(&args[0], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Exit { code, dst });
                dst
            }
            "__syncthreads" => {
                self.emit(Instr::SyncCallErr);
                ctx.alloc()
            }
            "atomicAdd" => {
                self.emit(Instr::CallPre { n: 1 });
                let target = self.expr(&args[0], ctx);
                let delta = self.expr(&args[1], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::AtomicAdd { target, delta, dst });
                dst
            }
            "atomicMax" | "atomicMin" => {
                self.emit(Instr::CallPre { n: 1 });
                let target = self.expr(&args[0], ctx);
                let delta = self.expr(&args[1], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::AtomicMinMax {
                    target,
                    delta,
                    dst,
                    is_max: callee == "atomicMax",
                });
                dst
            }
            "omp_get_wtime" => {
                self.emit(Instr::CallPre { n: 1 });
                let dst = ctx.alloc();
                self.emit(Instr::WTime { dst });
                dst
            }
            "omp_get_thread_num" | "omp_get_num_threads" | "omp_get_max_threads" => {
                self.emit(Instr::CallPre { n: 1 });
                let which = match callee {
                    "omp_get_thread_num" => 0,
                    "omp_get_num_threads" => 1,
                    _ => 2,
                };
                let dst = ctx.alloc();
                self.emit(Instr::OmpInt { dst, which });
                dst
            }
            "omp_set_num_threads" => {
                self.emit(Instr::CallPre { n: 1 });
                self.expr(&args[0], ctx);
                let id = self.const_id(Value::Int(0));
                let dst = ctx.alloc();
                self.emit(Instr::ConstFree { dst, id });
                dst
            }
            "dim3" => {
                self.emit(Instr::CallPre { n: 1 });
                let (args_base, argc) = self.gather(args.iter().take(3), ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Dim3Ctor {
                    args_base,
                    argc,
                    dst,
                });
                dst
            }
            other => {
                self.emit(Instr::CallPre { n: 1 });
                let (args_base, argc) = self.gather(args.iter(), ctx);
                if let Some(f) = MathFn::from_name(other) {
                    let dst = ctx.alloc();
                    self.emit(Instr::MathOp {
                        f,
                        args_base,
                        argc,
                        dst,
                    });
                    dst
                } else {
                    let msg = self.name_id(&format!("call to unknown function '{other}'"));
                    self.emit(Instr::ErrUnknownCall { msg });
                    ctx.alloc()
                }
            }
        }
    }

    fn cuda_malloc(&mut self, args: &[Expr], ctx: &mut FnCtx) -> Reg {
        self.emit(Instr::CallPre { n: 1 });
        let bytes = self.expr(&args[1], ctx);
        if let Expr::Unary {
            op: UnOp::AddrOf,
            operand,
        } = &args[0]
        {
            if let Expr::Ident(target) = operand.as_ref() {
                let name = self.name_id(target);
                return match ctx.resolve(target) {
                    Some((slot, ty)) => {
                        let elem = ty.pointee().cloned().unwrap_or(Type::Double);
                        let elem = self.type_id(&elem);
                        let slot_ty = self.type_id(&ty);
                        let dst = ctx.alloc();
                        self.emit(Instr::CudaMalloc {
                            bytes,
                            slot,
                            elem,
                            slot_ty,
                            name,
                            dst,
                        });
                        dst
                    }
                    None => {
                        self.emit(Instr::CudaMallocUnbound { bytes, name });
                        ctx.alloc()
                    }
                };
            }
        }
        let msg = self.name_id("cudaMalloc expects '&pointer_variable' as its first argument");
        self.emit(Instr::ErrLine { msg });
        ctx.alloc()
    }

    // --------------------------------------------------------- statements

    fn block(&mut self, b: &Block, ctx: &mut FnCtx) {
        ctx.push_scope();
        for s in &b.stmts {
            self.stmt(s, ctx);
        }
        ctx.pop_scope();
    }

    fn stmt(&mut self, s: &Stmt, ctx: &mut FnCtx) {
        let mark = ctx.next_slot;
        let outer = std::mem::replace(&mut self.copy_leaves, writes_local(s));
        let kept = self.stmt_inner(s, ctx);
        self.copy_leaves = outer;
        ctx.next_slot = mark + kept;
    }

    /// Compile one statement; returns how many slots allocated at the
    /// statement's watermark must stay live (1 for declarations).
    fn stmt_inner(&mut self, s: &Stmt, ctx: &mut FnCtx) -> u32 {
        let line = s.line;
        match &s.kind {
            StmtKind::VarDecl(d) => {
                self.emit(Instr::Stmt { line, n: 1 });
                // A `__shared__` re-declaration of a name the kernel prologue
                // (or any enclosing binding) already provides is a no-op,
                // like the interpreter's `env.contains` check.
                if d.is_shared && ctx.resolve(&d.name).is_some() {
                    return 0;
                }
                let slot = ctx.alloc();
                if let Some(len_expr) = &d.array_len {
                    let len = self.expr(len_expr, ctx);
                    let elem = self.type_id(&d.ty);
                    let name = self.name_id(&d.name);
                    self.emit(Instr::DeclArray {
                        slot,
                        len,
                        elem,
                        name,
                    });
                    ctx.bind(&d.name, slot, d.ty.clone().ptr());
                } else if let Some(init) = &d.init {
                    let src = self.expr(init, ctx);
                    let ty = self.type_id(&d.ty);
                    if matches!(d.ty, Type::Ptr(_)) {
                        let name = self.name_id(&d.name);
                        self.emit(Instr::DeclPtrInit {
                            slot,
                            src,
                            ty,
                            name,
                        });
                    } else {
                        self.emit(Instr::StoreVar { slot, src, ty });
                    }
                    ctx.bind(&d.name, slot, d.ty.clone());
                } else {
                    let id = self.const_id(Value::zero_of(&d.ty));
                    self.emit(Instr::ConstFree { dst: slot, id });
                    ctx.bind(&d.name, slot, d.ty.clone());
                }
                1
            }
            StmtKind::Assign { target, op, value } => {
                self.emit(Instr::Stmt { line, n: 1 });
                self.assign(target, *op, value, ctx);
                0
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.emit(Instr::StmtBranch { line, n: 1 });
                let c = self.expr(cond, ctx);
                let jf = self.emit(Instr::JumpIfFalse { cond: c, target: 0 });
                self.block(then_branch, ctx);
                match else_branch {
                    Some(eb) => {
                        let jend = self.emit(Instr::Jump { target: 0 });
                        let else_l = self.bind_label();
                        self.patch(jf, else_l);
                        self.block(eb, ctx);
                        let end = self.bind_label();
                        self.patch(jend, end);
                    }
                    None => {
                        let end = self.bind_label();
                        self.patch(jf, end);
                    }
                }
                0
            }
            StmtKind::While { cond, body } => {
                self.emit(Instr::Stmt { line, n: 1 });
                let head = self.bind_label();
                self.emit(Instr::LoopIter { n: 1 });
                let c = self.expr(cond, ctx);
                let jexit = self.emit(Instr::JumpIfFalse { cond: c, target: 0 });
                ctx.loops.push(LoopCtx {
                    break_jumps: Vec::new(),
                    continue_jumps: Vec::new(),
                    map_depth: ctx.map_depth,
                });
                self.block(body, ctx);
                self.emit(Instr::Jump { target: head });
                let lp = ctx.loops.pop().expect("loop ctx");
                let end = self.bind_label();
                self.patch(jexit, end);
                for j in lp.break_jumps {
                    self.patch(j, end);
                }
                for j in lp.continue_jumps {
                    self.patch(j, head);
                }
                0
            }
            StmtKind::For(f) => {
                self.emit(Instr::Stmt { line, n: 1 });
                ctx.push_scope();
                if let Some(init) = &f.init {
                    self.stmt(init, ctx);
                }
                let head = self.bind_label();
                self.emit(Instr::LoopIter { n: 1 });
                let jexit = f.cond.as_ref().map(|cond| {
                    let c = self.expr(cond, ctx);
                    self.emit(Instr::JumpIfFalse { cond: c, target: 0 })
                });
                ctx.loops.push(LoopCtx {
                    break_jumps: Vec::new(),
                    continue_jumps: Vec::new(),
                    map_depth: ctx.map_depth,
                });
                self.block(&f.body, ctx);
                let lp = ctx.loops.pop().expect("loop ctx");
                let step_l = self.bind_label();
                for j in lp.continue_jumps {
                    self.patch(j, step_l);
                }
                if let Some(step) = &f.step {
                    self.stmt(step, ctx);
                }
                self.emit(Instr::Jump { target: head });
                let end = self.bind_label();
                if let Some(j) = jexit {
                    self.patch(j, end);
                }
                for j in lp.break_jumps {
                    self.patch(j, end);
                }
                ctx.pop_scope();
                0
            }
            StmtKind::Return(value) => {
                self.emit(Instr::Stmt { line, n: 1 });
                let src = value.as_ref().map(|e| self.expr(e, ctx));
                if ctx.map_depth > 0 {
                    self.emit(Instr::UnmapFrames { n: ctx.map_depth });
                }
                self.emit(Instr::Ret { src });
                0
            }
            StmtKind::Break => {
                self.emit(Instr::Stmt { line, n: 1 });
                self.loop_exit(ctx, FlowKind::Break);
                0
            }
            StmtKind::Continue => {
                self.emit(Instr::Stmt { line, n: 1 });
                self.loop_exit(ctx, FlowKind::Continue);
                0
            }
            StmtKind::Expr(e) => {
                self.emit(Instr::Stmt { line, n: 1 });
                self.expr(e, ctx);
                0
            }
            StmtKind::Block(b) => {
                self.emit(Instr::Stmt { line, n: 1 });
                self.block(b, ctx);
                0
            }
            StmtKind::KernelLaunch(kl) => {
                self.emit(Instr::Stmt { line, n: 1 });
                self.launch(kl, ctx);
                0
            }
            StmtKind::Pragma(p) => {
                self.pragma(p, line, ctx);
                0
            }
        }
    }

    fn loop_exit(&mut self, ctx: &mut FnCtx, kind: FlowKind) {
        match ctx.loops.last() {
            Some(lp) => {
                let unwind = ctx.map_depth - lp.map_depth;
                if unwind > 0 {
                    self.emit(Instr::UnmapFrames { n: unwind });
                }
                let j = self.emit(Instr::Jump { target: 0 });
                let lp = ctx.loops.last_mut().expect("loop ctx");
                if kind == FlowKind::Break {
                    lp.break_jumps.push(j);
                } else {
                    lp.continue_jumps.push(j);
                }
            }
            None => {
                // No enclosing loop in this unit: the flow propagates out of
                // it (a region body's break, a kernel segment's stray
                // continue, ...), unwinding any open map frames on the way.
                if ctx.map_depth > 0 {
                    self.emit(Instr::UnmapFrames { n: ctx.map_depth });
                }
                self.emit(Instr::EndUnit { flow: kind });
            }
        }
    }

    fn assign(&mut self, target: &Expr, op: AssignOp, value: &Expr, ctx: &mut FnCtx) {
        // The interpreter evaluates the right-hand side before the lvalue.
        let src = self.expr(value, ctx);
        match target {
            Expr::Ident(name) => match ctx.resolve(name) {
                Some((slot, ty)) => {
                    let ty = self.type_id(&ty);
                    match op.binop() {
                        Some(op) => self.emit(Instr::RmwVar { op, slot, src, ty }),
                        None => self.emit(Instr::StoreVar { slot, src, ty }),
                    };
                }
                None => {
                    // Compound assignments fail on the read, plain ones on
                    // the write; both messages are line-less.
                    let msg = if op.binop().is_some() {
                        format!("read of unbound variable '{name}'")
                    } else {
                        format!("assignment to unbound variable '{name}'")
                    };
                    let msg = self.name_id(&msg);
                    self.emit(Instr::ErrPlain { msg });
                }
            },
            Expr::Index { base, index } => {
                let b = self.expr(base, ctx);
                let idx = self.expr(index, ctx);
                match op.binop() {
                    Some(op) => self.emit(Instr::RmwIndex {
                        op,
                        base: b,
                        idx,
                        src,
                    }),
                    None => self.emit(Instr::StoreIndex { base: b, idx, src }),
                };
            }
            Expr::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let ptr = self.expr(operand, ctx);
                match op.binop() {
                    Some(op) => self.emit(Instr::RmwDeref { op, ptr, src }),
                    None => self.emit(Instr::StoreDeref { ptr, src }),
                };
            }
            other => {
                let msg = self.name_id(&format!(
                    "expression is not assignable: {}",
                    printer::print_expr(other)
                ));
                self.emit(Instr::ErrLine { msg });
            }
        }
    }

    fn launch(&mut self, kl: &KernelLaunch, ctx: &mut FnCtx) {
        let defined = self.program.function(&kl.kernel).is_some();
        let name = self.name_id(&kl.kernel);
        self.emit(Instr::LaunchPre { name, defined });
        if !defined {
            // LaunchPre unconditionally fails; nothing after it runs.
            return;
        }
        let src = self.expr(&kl.grid, ctx);
        let grid = ctx.alloc();
        self.emit(Instr::GeomConvert { dst: grid, src });
        let src = self.expr(&kl.block, ctx);
        let block = ctx.alloc();
        self.emit(Instr::GeomConvert { dst: block, src });
        self.emit(Instr::LaunchCheck { grid, block, name });
        let (args_base, argc) = self.gather(kl.args.iter(), ctx);
        let kernel = self.kernel_ids[&kl.kernel];
        self.emit(Instr::LaunchKernel {
            kernel,
            grid,
            block,
            args_base,
            argc,
        });
    }

    // ------------------------------------------------------------ pragmas

    fn pragma(&mut self, p: &PragmaStmt, line: u32, ctx: &mut FnCtx) {
        match p.directive.kind {
            OmpDirectiveKind::Barrier => {
                self.emit(Instr::Stmt { line, n: 1 });
            }
            OmpDirectiveKind::Atomic => {
                self.emit(Instr::Stmt { line, n: 1 });
                if let Some(body) = &p.body {
                    if let StmtKind::Assign {
                        target: Expr::Index { base, index },
                        op,
                        value,
                    } = &body.kind
                    {
                        let src = self.expr(value, ctx);
                        let b = self.expr(base, ctx);
                        let idx = self.expr(index, ctx);
                        self.emit(Instr::AtomicRmw {
                            base: b,
                            idx,
                            src,
                            negate: *op == AssignOp::SubAssign,
                        });
                        return;
                    }
                    self.stmt(body, ctx);
                }
            }
            OmpDirectiveKind::TargetData => {
                self.emit(Instr::Stmt { line, n: 1 });
                self.emit(Instr::MapFramePush);
                ctx.map_depth += 1;
                self.map_clauses(&p.directive.clauses, ctx);
                if let Some(body) = &p.body {
                    self.stmt(body, ctx);
                }
                ctx.map_depth -= 1;
                self.emit(Instr::MapFramePop);
            }
            OmpDirectiveKind::ParallelFor | OmpDirectiveKind::TargetTeamsDistributeParallelFor => {
                self.worksharing(p, line, ctx);
            }
        }
    }

    fn map_clauses(&mut self, clauses: &[OmpClause], ctx: &mut FnCtx) {
        for clause in clauses {
            if let OmpClause::Map { sections, .. } = clause {
                for s in sections {
                    let Some((slot, _)) = ctx.resolve(&s.var) else {
                        // Unbound map variables are silently skipped.
                        continue;
                    };
                    match (&s.lower, &s.len) {
                        (Some(_), Some(len_expr)) => {
                            let tmp = ctx.alloc();
                            let begin = self.emit(Instr::MapSecBegin { slot, tmp, skip: 0 });
                            let len = self.expr(len_expr, ctx);
                            self.emit(Instr::MapSecCharge { tmp, len });
                            let skip = self.bind_label();
                            self.patch(begin, skip);
                        }
                        _ => {
                            self.emit(Instr::MapSecWhole { slot });
                        }
                    }
                }
            }
        }
    }

    fn worksharing(&mut self, p: &PragmaStmt, line: u32, ctx: &mut FnCtx) {
        self.emit(Instr::Stmt { line, n: 1 });
        self.emit(Instr::OmpPre);
        let Some(body) = p.body.as_deref() else {
            let msg = self.name_id("work-sharing pragma without an associated loop");
            self.emit(Instr::ErrPlain { msg });
            return;
        };
        let StmtKind::For(for_stmt) = &body.kind else {
            let msg = self.name_id(&format!(
                "'#pragma omp {}' must be followed by a for loop",
                p.directive.kind.spelling()
            ));
            self.emit(Instr::ErrLine { msg });
            return;
        };
        let Some((loop_var, lo_e, hi_e, step_e)) = for_stmt.canonical() else {
            let msg = self.name_id(&format!(
                "loop after '#pragma omp {}' is not in canonical form",
                p.directive.kind.spelling()
            ));
            self.emit(Instr::ErrLine { msg });
            return;
        };
        // An offloaded loop's map clauses run between the bounds and their
        // use, so its bounds are copies.
        let offload = p.directive.kind.is_offload();
        let copy = self.copy_leaves || offload;
        let lo = self.operand(&lo_e, ctx, copy);
        let hi = self.operand(&hi_e, ctx, copy);
        let step = self.operand(&step_e, ctx, copy);
        if offload {
            self.emit(Instr::MapFramePush);
            ctx.map_depth += 1;
            self.map_clauses(&p.directive.clauses, ctx);
        }
        let region = self.region(p, for_stmt, &loop_var, ctx);
        self.emit(Instr::ParallelFor {
            region,
            lo,
            hi,
            step,
        });
        if offload {
            ctx.map_depth -= 1;
            self.emit(Instr::MapFramePop);
        }
    }

    /// Compile a work-sharing region body as its own unit, jumped over in
    /// the enclosing code. `ctx` is the *enclosing* context: the region
    /// captures a snapshot of its live bindings, mirroring `env.flatten()`.
    fn region(&mut self, p: &PragmaStmt, f: &ForStmt, loop_var: &str, ctx: &FnCtx) -> u32 {
        let skip = self.emit(Instr::Jump { target: 0 });

        // Captures: every distinct visible name, innermost binding wins.
        let mut seen: HashSet<&str> = HashSet::new();
        let mut cap_info: Vec<(String, Reg, Type)> = Vec::new();
        for scope in ctx.scopes.iter().rev() {
            for (n, r, t) in scope.vars.iter().rev() {
                if seen.insert(n.as_str()) {
                    cap_info.push((n.clone(), *r, t.clone()));
                }
            }
        }

        let mut rctx = FnCtx::new();
        rctx.push_scope();
        for (name, _, ty) in &cap_info {
            let slot = rctx.alloc();
            rctx.bind(name, slot, ty.clone());
        }

        // Reduction identity slots resolve before the loop variable...
        let mut red_init: Vec<(String, Reg, Type, bool)> = Vec::new();
        if let Some((_, vars)) = p.directive.reduction() {
            for var in vars {
                match rctx.resolve(var) {
                    Some((slot, ty)) => red_init.push((var.clone(), slot, ty, true)),
                    None => {
                        let slot = rctx.alloc();
                        rctx.bind(var, slot, Type::Double);
                        red_init.push((var.clone(), slot, Type::Double, false));
                    }
                }
            }
        }

        // ... the loop variable shadows same-name bindings ...
        let loop_var_slot = rctx.alloc();
        rctx.bind(loop_var, loop_var_slot, Type::Long);
        let consts = self.reserve_consts(&f.body.stmts, &mut rctx);

        // ... and the post-chunk reads resolve after it.
        let reductions: Vec<CompiledReduction> = match p.directive.reduction() {
            Some((op, _)) => red_init
                .iter()
                .map(|(var, init_slot, ty, init_coerce)| {
                    let (read_slot, _) = rctx.resolve(var).expect("reduction var bound");
                    CompiledReduction {
                        var: var.clone(),
                        op,
                        ty: ty.clone(),
                        init_slot: *init_slot,
                        init_coerce: *init_coerce,
                        read_slot,
                    }
                })
                .collect(),
            None => Vec::new(),
        };

        let body_entry = self.bind_label();
        self.block(&f.body, &mut rctx);
        self.emit(Instr::EndUnit {
            flow: FlowKind::Normal,
        });
        let after = self.bind_label();
        self.patch(skip, after);

        let updates = reductions
            .iter()
            .map(|r| (r.var.clone(), ctx.resolve(&r.var)))
            .collect();

        let id = self.regions.len() as u32;
        self.regions.push(CompiledRegion {
            directive: p.directive.clone(),
            body_entry,
            nslots: rctx.high,
            captures: cap_info.iter().map(|(_, r, _)| *r).collect(),
            loop_var_slot,
            reductions,
            updates,
            offload: p.directive.kind.is_offload(),
            consts,
        });
        id
    }

    // --------------------------------------------------------------- units

    /// Pre-register function and kernel tables so call/launch sites can
    /// reference them before their bodies are compiled.
    fn register_functions(&mut self) {
        let mut launched: HashSet<String> = HashSet::new();
        for f in self.program.functions() {
            for s in &f.body.stmts {
                walk_stmts(s, true, &mut |s| {
                    if let StmtKind::KernelLaunch(kl) = &s.kind {
                        launched.insert(kl.kernel.clone());
                    }
                });
            }
        }
        for f in self.program.functions() {
            if self.func_ids.contains_key(&f.name) || self.kernel_ids.contains_key(&f.name) {
                // Only the first function of a name is reachable.
                continue;
            }
            if f.qualifier != FnQualifier::Kernel {
                let id = self.funcs.len() as u32;
                self.funcs.push(CompiledFunction {
                    name: f.name.clone(),
                    entry: 0,
                    nslots: 0,
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                    ret: f.ret.clone(),
                    consts: ConstSlots::default(),
                });
                self.func_ids.insert(f.name.clone(), id);
            }
            if f.qualifier == FnQualifier::Kernel || launched.contains(&f.name) {
                let id = self.kernels.len() as u32;
                self.kernels.push(CompiledKernel {
                    name: f.name.clone(),
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                    shared: Vec::new(),
                    segments: Vec::new(),
                    nslots: 0,
                    consts: ConstSlots::default(),
                });
                self.kernel_ids.insert(f.name.clone(), id);
            }
        }
    }

    fn compile_units(&mut self, argc: usize) {
        let mut done: HashSet<String> = HashSet::new();
        for f in self.program.functions() {
            if !done.insert(f.name.clone()) {
                continue;
            }
            if let Some(&id) = self.func_ids.get(&f.name) {
                let (entry, nslots, consts) = self.function_unit(f);
                let func = &mut self.funcs[id as usize];
                func.entry = entry;
                func.nslots = nslots;
                func.consts = consts;
            }
            if let Some(&id) = self.kernel_ids.get(&f.name) {
                let compiled = self.kernel_unit(f);
                self.kernels[id as usize] = compiled;
            }
        }
        self.host = self.program.main().map(|main| {
            let mut ctx = FnCtx::new();
            ctx.push_scope();
            for i in 0..argc {
                let slot = ctx.alloc();
                ctx.bind(&format!("arg{i}"), slot, Type::Long);
            }
            let consts = self.reserve_consts(&main.body.stmts, &mut ctx);
            let entry = self.bind_label();
            self.block(&main.body, &mut ctx);
            self.emit(Instr::EndUnit {
                flow: FlowKind::Normal,
            });
            HostUnit {
                entry,
                nslots: ctx.high,
                argc,
                consts,
            }
        });
    }

    fn function_unit(&mut self, f: &Function) -> (u32, u32, ConstSlots) {
        let mut ctx = FnCtx::new();
        ctx.push_scope();
        for p in &f.params {
            let slot = ctx.alloc();
            ctx.bind(&p.name, slot, p.ty.clone());
        }
        let consts = self.reserve_consts(&f.body.stmts, &mut ctx);
        let entry = self.bind_label();
        self.block(&f.body, &mut ctx);
        self.emit(Instr::EndUnit {
            flow: FlowKind::Normal,
        });
        (entry, ctx.high, consts)
    }

    fn kernel_unit(&mut self, f: &Function) -> CompiledKernel {
        let mut ctx = FnCtx::new();
        ctx.push_scope();
        for p in &f.params {
            let slot = ctx.alloc();
            ctx.bind(&p.name, slot, p.ty.clone());
        }

        // Top-level `__shared__` declarations become per-block allocations
        // performed by the launch orchestrator; the thread frame sees only
        // the resulting pointers.
        let mut shared = Vec::new();
        for stmt in &f.body.stmts {
            let StmtKind::VarDecl(d) = &stmt.kind else {
                continue;
            };
            if !d.is_shared {
                continue;
            }
            let slot = ctx.alloc();
            let len = match &d.array_len {
                Some(Expr::IntLit(v)) => SharedLen::Lit(*v),
                Some(other) => {
                    // A dynamic length is evaluated against the kernel
                    // parameters only, in a throwaway host-context frame.
                    let mut sctx = FnCtx::new();
                    sctx.push_scope();
                    for p in &f.params {
                        let s = sctx.alloc();
                        sctx.bind(&p.name, s, p.ty.clone());
                    }
                    let mut literals = Vec::new();
                    self.collect_literals(other, &mut literals);
                    let consts = self.const_slots(literals, &mut sctx);
                    let entry = self.bind_label();
                    self.copy_leaves = calls_cuda_malloc(other);
                    let r = self.expr(other, &mut sctx);
                    self.copy_leaves = false;
                    self.emit(Instr::Ret { src: Some(r) });
                    SharedLen::Dynamic {
                        entry,
                        nslots: sctx.high,
                        consts,
                    }
                }
                None => SharedLen::One,
            };
            ctx.bind(&d.name, slot, d.ty.clone().ptr());
            shared.push(CompiledShared {
                name: d.name.clone(),
                elem: d.ty.clone(),
                slot,
                len,
            });
        }

        // Top-level `__shared__` declarations compile to nothing, so their
        // lengths need no constant slots.
        let consts = self.reserve_consts(
            f.body
                .stmts
                .iter()
                .filter(|s| !matches!(&s.kind, StmtKind::VarDecl(d) if d.is_shared)),
            &mut ctx,
        );

        // Barrier-delimited segments share the one frame: statements compile
        // directly in the params+shared scope (the interpreter's
        // `exec_stmts` on a flat env), so declarations persist across
        // segment boundaries.
        let mut segments = Vec::new();
        let mut start = 0usize;
        let stmts = &f.body.stmts;
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for (i, stmt) in stmts.iter().enumerate() {
            if let StmtKind::Expr(Expr::Call { callee, .. }) = &stmt.kind {
                if callee == "__syncthreads" {
                    ranges.push((start, i));
                    start = i + 1;
                }
            }
        }
        ranges.push((start, stmts.len()));
        for (lo, hi) in ranges {
            let entry = self.bind_label();
            for stmt in &stmts[lo..hi] {
                self.stmt(stmt, &mut ctx);
            }
            self.emit(Instr::EndUnit {
                flow: FlowKind::Normal,
            });
            segments.push(entry);
        }

        CompiledKernel {
            name: f.name.clone(),
            params: f.params.iter().map(|p| p.ty.clone()).collect(),
            shared,
            segments,
            nslots: ctx.high,
            consts,
        }
    }
}

/// The context builtin an identifier names, if any (a local of the same name
/// shadows it).
fn special_ident(name: &str) -> Option<SpecialIdent> {
    match name {
        "threadIdx" => Some(SpecialIdent::ThreadIdx),
        "blockIdx" => Some(SpecialIdent::BlockIdx),
        "blockDim" => Some(SpecialIdent::BlockDim),
        "gridDim" => Some(SpecialIdent::GridDim),
        _ => None,
    }
}

/// Visit `e` and every subexpression of it.
fn walk_expr(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Unary { operand, .. } => walk_expr(operand, f),
        Expr::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, f)),
        Expr::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        Expr::Member { base, .. } => walk_expr(base, f),
        Expr::Cast { expr, .. } => walk_expr(expr, f),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            walk_expr(cond, f);
            walk_expr(then_expr, f);
            walk_expr(else_expr, f);
        }
        Expr::IntLit(_)
        | Expr::FloatLit(_)
        | Expr::StrLit(_)
        | Expr::Ident(_)
        | Expr::Sizeof(_) => {}
    }
}

/// Visit the expressions a statement evaluates itself, leaving out those of
/// the statements nested in it. A work-sharing pragma evaluates its loop's
/// bounds and its map-section lengths; an `atomic` pragma its update.
fn own_exprs(s: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match &s.kind {
        StmtKind::VarDecl(d) => d.array_len.iter().chain(&d.init).for_each(f),
        StmtKind::Assign { target, value, .. } => {
            f(target);
            f(value);
        }
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => f(cond),
        StmtKind::For(fs) => fs.cond.iter().for_each(f),
        StmtKind::Return(value) => value.iter().for_each(f),
        StmtKind::Expr(e) => f(e),
        StmtKind::KernelLaunch(kl) => {
            f(&kl.grid);
            f(&kl.block);
            kl.args.iter().for_each(f);
        }
        StmtKind::Pragma(p) => {
            for clause in &p.directive.clauses {
                if let OmpClause::Map { sections, .. } = clause {
                    sections
                        .iter()
                        .filter_map(|s| s.len.as_ref())
                        .for_each(&mut *f);
                }
            }
            match (p.directive.kind, p.body.as_deref()) {
                (OmpDirectiveKind::Atomic, Some(body)) => own_exprs(body, f),
                (
                    OmpDirectiveKind::ParallelFor
                    | OmpDirectiveKind::TargetTeamsDistributeParallelFor,
                    Some(Stmt {
                        kind: StmtKind::For(fs),
                        ..
                    }),
                ) => {
                    if let Some((_, lo, hi, step)) = fs.canonical() {
                        [lo, hi, step].iter().for_each(f);
                    }
                }
                _ => {}
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => {}
    }
}

/// Visit `s` and every statement nested in it. Without `into_regions` the
/// walk stays in the unit `s` compiles into and skips work-sharing loop
/// bodies, which are units of their own.
fn walk_stmts(s: &Stmt, into_regions: bool, f: &mut dyn FnMut(&Stmt)) {
    f(s);
    let nested: Vec<&Stmt> = match &s.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => then_branch
            .stmts
            .iter()
            .chain(else_branch.iter().flat_map(|b| &b.stmts))
            .collect(),
        StmtKind::While { body, .. } | StmtKind::Block(body) => body.stmts.iter().collect(),
        StmtKind::For(fs) => {
            let head = fs.init.iter().chain(&fs.step).map(|s| s.as_ref());
            head.chain(&fs.body.stmts).collect()
        }
        StmtKind::Pragma(p) => {
            let region = matches!(
                p.directive.kind,
                OmpDirectiveKind::ParallelFor | OmpDirectiveKind::TargetTeamsDistributeParallelFor
            );
            match &p.body {
                Some(body) if into_regions || !region => vec![body.as_ref()],
                _ => Vec::new(),
            }
        }
        _ => Vec::new(),
    };
    for s in nested {
        walk_stmts(s, into_regions, f);
    }
}

fn calls_cuda_malloc(e: &Expr) -> bool {
    let mut found = false;
    walk_expr(e, &mut |node| {
        found |= matches!(node, Expr::Call { callee, .. } if callee == "cudaMalloc");
    });
    found
}

/// Whether a statement's own expressions call `cudaMalloc`, which writes a
/// local slot in the middle of an expression.
fn writes_local(s: &Stmt) -> bool {
    let mut found = false;
    own_exprs(s, &mut |e| found |= calls_cuda_malloc(e));
    found
}
