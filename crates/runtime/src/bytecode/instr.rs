//! The flat instruction set executed by the bytecode VM.
//!
//! Design rule: the compiler emits exactly one step charge per AST node the
//! tree-walking evaluator calls `step()` on, so the VM's step count (and
//! therefore the step-limit kill point and `omp_get_wtime` readings) is
//! bit-identical to the interpreter's. A node's step may be folded into the
//! charging instruction emitted directly before it when no label lies between
//! the two and nothing that can fail or observe the counter runs in between;
//! the kill then happens at the same step with the same error. The charging
//! instructions are:
//!
//! * [`Instr::Stmt`] / [`Instr::StmtBranch`] — one statement step (the `If`
//!   variant also charges the branch the interpreter counts before the
//!   condition) plus the folded steps of the expression nodes that follow,
//!   `n` in all,
//! * [`Instr::LoopIter`] — the per-iteration step + branch of `while`/`for`,
//!   plus the folded steps of the condition's leading nodes,
//! * [`Instr::TernaryBranch`] — the ternary node's step + branch, plus folded
//!   steps,
//! * [`Instr::Charge`] — folded steps of expression nodes whose work happens
//!   later (binary/unary operators, index loads, casts, ...) or needs no
//!   instruction at all: a local or a literal is read in place from its slot,
//!   and a thread-coordinate read ([`Instr::ThreadCoord`], `threadIdx.x` and
//!   friends) or [`Instr::LoadSpecial`] charges nothing itself,
//! * [`Instr::Const`], [`Instr::LoadVar`] — a literal or local copied into a
//!   fresh register, kept only where a copy is needed: argument windows that
//!   must be contiguous, statements where `cudaMalloc` can rewrite a slot
//!   between its read and its use, and bounds held across map clauses,
//! * [`Instr::ErrUnbound`], [`Instr::ErrAddrOf`] — failing identifier and
//!   address-of nodes,
//! * [`Instr::CallPre`] / [`Instr::UserCallPre`] / [`Instr::SyncCallErr`] —
//!   call nodes (step + `calls` cost; `CallPre` also carries folded steps,
//!   `UserCallPre` never does because its depth check can fail after it).
//!
//! Every other instruction charges no step itself; it only applies the
//! operator/memory costs the interpreter charges at the same point.

use lassi_lang::BinOp;

/// A frame-relative register index.
pub type Reg = u32;

/// Special identifiers resolved at runtime against the evaluation context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialIdent {
    /// `threadIdx` inside a device thread.
    ThreadIdx,
    /// `blockIdx` inside a device thread.
    BlockIdx,
    /// `blockDim` inside a device thread.
    BlockDim,
    /// `gridDim` inside a device thread.
    GridDim,
}

/// Recognized math builtins (anything else is an unknown-function error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn {
    /// `sqrt` / `sqrtf`.
    Sqrt,
    /// `fabs` / `fabsf`.
    Fabs,
    /// `exp` / `expf`.
    Exp,
    /// `log` / `logf`.
    Log,
    /// `log2`.
    Log2,
    /// `sin` / `sinf`.
    Sin,
    /// `cos` / `cosf`.
    Cos,
    /// `atan2`.
    Atan2,
    /// `pow`.
    Pow,
    /// `floor`.
    Floor,
    /// `ceil`.
    Ceil,
    /// `fmin`.
    Fmin,
    /// `fmax`.
    Fmax,
    /// Integer `min`.
    MinInt,
    /// Integer `max`.
    MaxInt,
    /// Integer `abs`.
    AbsInt,
}

impl MathFn {
    /// Map a callee name to its math builtin, if it is one.
    pub fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "sqrt" | "sqrtf" => MathFn::Sqrt,
            "fabs" | "fabsf" => MathFn::Fabs,
            "exp" | "expf" => MathFn::Exp,
            "log" | "logf" => MathFn::Log,
            "log2" => MathFn::Log2,
            "sin" | "sinf" => MathFn::Sin,
            "cos" | "cosf" => MathFn::Cos,
            "atan2" => MathFn::Atan2,
            "pow" => MathFn::Pow,
            "floor" => MathFn::Floor,
            "ceil" => MathFn::Ceil,
            "fmin" => MathFn::Fmin,
            "fmax" => MathFn::Fmax,
            "min" => MathFn::MinInt,
            "max" => MathFn::MaxInt,
            "abs" => MathFn::AbsInt,
            _ => return None,
        })
    }
}

/// Component read by a `dim3` member access. Any field other than `x` or
/// `y` reads `z`, as in the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `.x`.
    X,
    /// `.y`.
    Y,
    /// `.z` (and any other field name).
    Z,
}

/// Non-`Return` terminal flow of a compiled unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// The unit's block fell off its end.
    Normal,
    /// A `break` with no enclosing loop inside the unit.
    Break,
    /// A `continue` with no enclosing loop inside the unit.
    Continue,
}

/// One VM instruction. `u32` payloads index the compiled program's constant,
/// name and type pools; `Reg` payloads are frame-relative register indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ------------------------------------------------ step/cost bookkeeping
    /// Statement entry: `n` steps (the statement's own plus folded ones),
    /// then update `current_line` when `line > 0`.
    Stmt {
        /// Source line (0 = synthesized, leaves `current_line` untouched).
        line: u32,
        /// Steps charged.
        n: u32,
    },
    /// `if` statement entry: `n` steps, line update, one branch.
    StmtBranch {
        /// Source line.
        line: u32,
        /// Steps charged.
        n: u32,
    },
    /// Loop-iteration head: `n` steps plus one branch.
    LoopIter {
        /// Steps charged.
        n: u32,
    },
    /// Ternary node: `n` steps plus one branch (before the condition).
    TernaryBranch {
        /// Steps charged.
        n: u32,
    },
    /// Charge `n` steps (merged expression-node steps).
    Charge {
        /// Number of steps.
        n: u32,
    },

    // ------------------------------------------------------- control flow
    /// Unconditional jump.
    Jump {
        /// Absolute target pc.
        target: u32,
    },
    /// Jump when the register is falsy.
    JumpIfFalse {
        /// Condition register.
        cond: Reg,
        /// Absolute target pc.
        target: u32,
    },
    /// Jump when the register is truthy.
    JumpIfTrue {
        /// Condition register.
        cond: Reg,
        /// Absolute target pc.
        target: u32,
    },
    /// Return from the current function (or unit) with a value.
    Ret {
        /// Value register; `None` returns `Value::Void`.
        src: Option<Reg>,
    },
    /// Terminate the current unit with a non-return flow.
    EndUnit {
        /// How the unit ended.
        flow: FlowKind,
    },

    // ------------------------------------------------------ data movement
    /// Literal copied into a fresh register (charges the literal node's
    /// step). Literals read in place come from the unit's constant slots.
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant-pool index.
        id: u32,
    },
    /// Constant load without a step charge (declaration defaults,
    /// short-circuit results, builtin `Int(0)` returns).
    ConstFree {
        /// Destination register.
        dst: Reg,
        /// Constant-pool index.
        id: u32,
    },
    /// Free register copy (no step, no cost): joins branch results and
    /// gathers call arguments into contiguous blocks.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Local copied into a fresh register (charges the identifier step).
    /// Locals read in place need no instruction.
    LoadVar {
        /// Destination register.
        dst: Reg,
        /// Source slot.
        slot: Reg,
    },
    /// Bare identifier read of a `threadIdx`-style context builtin (its
    /// step is charged before; errors as an unbound identifier outside
    /// device code).
    LoadSpecial {
        /// Destination register.
        dst: Reg,
        /// Which builtin.
        which: SpecialIdent,
        /// Name-pool index (for the error message).
        name: u32,
    },
    /// Thread-coordinate read `threadIdx.x` and friends: the member access
    /// and its builtin base in one instruction (both steps are charged
    /// before; errors like [`Instr::LoadSpecial`] outside device code).
    ThreadCoord {
        /// Destination register.
        dst: Reg,
        /// Which builtin.
        which: SpecialIdent,
        /// The component read.
        axis: Axis,
        /// Name-pool index of the builtin (for the error message).
        name: u32,
    },
    /// Unresolvable identifier: charge the step, then fail.
    ErrUnbound {
        /// Name-pool index.
        name: u32,
    },
    /// Plain store to a slot, coercing to the binding's declared type
    /// (the `env.set` path — assignments and declaration initializers).
    StoreVar {
        /// Destination slot.
        slot: Reg,
        /// Value register.
        src: Reg,
        /// Type-pool index of the binding type.
        ty: u32,
    },
    /// Pointer-typed declaration initializer: adopt the buffer (rename +
    /// retype) before the coercing store, like `Evaluator::eval_init`.
    DeclPtrInit {
        /// Destination slot.
        slot: Reg,
        /// Value register.
        src: Reg,
        /// Type-pool index of the declared pointer type.
        ty: u32,
        /// Name-pool index of the declared variable.
        name: u32,
    },
    /// Array declaration: allocate `len` elements and bind the pointer.
    DeclArray {
        /// Destination slot.
        slot: Reg,
        /// Length register (`as_int().max(0)` applied at runtime).
        len: Reg,
        /// Type-pool index of the element type.
        elem: u32,
        /// Name-pool index of the declared variable.
        name: u32,
    },

    // ---------------------------------------------------------- operators
    /// Apply a binary operator (operator cost charged here; the node's step
    /// was pre-charged before the operands).
    Binary {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
    },
    /// Unary minus (always charges one `int_op`, like the interpreter).
    Neg {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// Logical not (no operator cost).
    Not {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// Pointer dereference read.
    DerefLoad {
        /// Destination register.
        dst: Reg,
        /// Pointer register.
        ptr: Reg,
    },
    /// Indexed read `base[idx]`.
    IndexLoad {
        /// Destination register.
        dst: Reg,
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
    },
    /// `dim3` member access.
    MemberGet {
        /// Destination register.
        dst: Reg,
        /// Base register.
        src: Reg,
        /// The component read, resolved from the field name at compile time.
        axis: Axis,
        /// Name-pool index of the field (for the non-`dim3` error message).
        field: u32,
    },
    /// Scalar cast (`coerce_to`).
    CastScalar {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
        /// Type-pool index of the target type.
        ty: u32,
    },
    /// Pointer cast: retype the buffer when the operand is a pointer.
    CastPtr {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
        /// Type-pool index of the pointee type.
        elem: u32,
    },
    /// Address-of outside `cudaMalloc`: charge the step, then fail.
    ErrAddrOf,

    // ------------------------------------------------------ lvalue stores
    /// Simple store through `base[idx]`.
    StoreIndex {
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// Value register.
        src: Reg,
    },
    /// Compound assignment through `base[idx]` (read, op, write).
    RmwIndex {
        /// The arithmetic operator.
        op: BinOp,
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// Right-hand-side register.
        src: Reg,
    },
    /// Simple store through `*ptr`.
    StoreDeref {
        /// Pointer register.
        ptr: Reg,
        /// Value register.
        src: Reg,
    },
    /// Compound assignment through `*ptr`.
    RmwDeref {
        /// The arithmetic operator.
        op: BinOp,
        /// Pointer register.
        ptr: Reg,
        /// Right-hand-side register.
        src: Reg,
    },
    /// Compound assignment to a slot (read, op, coercing write).
    RmwVar {
        /// The arithmetic operator.
        op: BinOp,
        /// Target slot.
        slot: Reg,
        /// Right-hand-side register.
        src: Reg,
        /// Type-pool index of the binding type.
        ty: u32,
    },
    /// Fail with `runtime error: {msg}` (no line prefix).
    ErrPlain {
        /// Name-pool index of the message.
        msg: u32,
    },
    /// Fail with `runtime error: line {current_line}: {msg}`.
    ErrLine {
        /// Name-pool index of the message.
        msg: u32,
    },

    // --------------------------------------------------------------- calls
    /// Builtin call entry: `n` steps plus one `calls` cost.
    CallPre {
        /// Steps charged.
        n: u32,
    },
    /// User call entry: `CallPre` plus the 64-frame depth check.
    UserCallPre,
    /// Call a compiled user function.
    CallUser {
        /// Function-table index.
        func: u32,
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
        /// Destination register for the (coerced) return value.
        dst: Reg,
    },
    /// `printf`.
    Printf {
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
        /// Destination register.
        dst: Reg,
    },
    /// `malloc`.
    Malloc {
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `free` / `cudaFree`.
    FreeVal {
        /// Pointer register.
        src: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `cudaMalloc(&var, bytes)` with a statically resolved target slot.
    CudaMalloc {
        /// Byte-count register.
        bytes: Reg,
        /// Target slot.
        slot: Reg,
        /// Type-pool index of the element type (pointee of the binding type,
        /// `double` when the binding is not a pointer).
        elem: u32,
        /// Type-pool index of the binding type (for the `env.set` coercion).
        slot_ty: u32,
        /// Name-pool index of the target variable.
        name: u32,
        /// Destination register.
        dst: Reg,
    },
    /// `cudaMalloc(&var, bytes)` whose target is unbound: allocate (the
    /// interpreter allocates before the failed `env.set`), then fail.
    CudaMallocUnbound {
        /// Byte-count register.
        bytes: Reg,
        /// Name-pool index of the target variable.
        name: u32,
    },
    /// `cudaMemcpy` (charges transfer time and bytes).
    Memcpy {
        /// Destination-pointer register.
        dptr: Reg,
        /// Source-pointer register.
        sptr: Reg,
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `cudaMemset` / `memset`.
    Memset {
        /// Pointer register.
        ptr: Reg,
        /// Fill-value register.
        fill: Reg,
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// Plain `memcpy` (no transfer cost, silently ignores non-pointers).
    HostMemcpy {
        /// Destination-pointer register.
        dptr: Reg,
        /// Source-pointer register.
        sptr: Reg,
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `exit(code)`.
    Exit {
        /// Code register.
        code: Reg,
        /// Destination register (`Int(0)` when code is 0).
        dst: Reg,
    },
    /// `__syncthreads()` reached outside a kernel's top level: charge the
    /// call, then report barrier divergence.
    SyncCallErr,
    /// `atomicAdd`.
    AtomicAdd {
        /// Target-pointer register.
        target: Reg,
        /// Delta register.
        delta: Reg,
        /// Destination register (the old value).
        dst: Reg,
    },
    /// `atomicMax` / `atomicMin`.
    AtomicMinMax {
        /// Target-pointer register.
        target: Reg,
        /// Operand register.
        delta: Reg,
        /// Destination register (the old value).
        dst: Reg,
        /// True for `atomicMax`.
        is_max: bool,
    },
    /// `omp_get_wtime` (reads the live step counter).
    WTime {
        /// Destination register.
        dst: Reg,
    },
    /// `omp_get_thread_num` (0) / `omp_get_num_threads` (1) /
    /// `omp_get_max_threads` (2).
    OmpInt {
        /// Destination register.
        dst: Reg,
        /// Which query.
        which: u8,
    },
    /// `dim3(...)` constructor.
    Dim3Ctor {
        /// First argument register.
        args_base: Reg,
        /// Argument count (at most 3).
        argc: u32,
        /// Destination register.
        dst: Reg,
    },
    /// Math builtin (charges one `special_op`).
    MathOp {
        /// Which builtin.
        f: MathFn,
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
        /// Destination register.
        dst: Reg,
    },
    /// Unknown function: charge the `special_op` the interpreter charges
    /// before its match, then fail.
    ErrUnknownCall {
        /// Name-pool index of the message suffix.
        msg: u32,
    },

    // ----------------------------------------------------- kernel launches
    /// Kernel-launch entry: backend presence + kernel-defined checks.
    LaunchPre {
        /// Name-pool index of the kernel name.
        name: u32,
        /// Whether the kernel resolved at compile time.
        defined: bool,
    },
    /// Convert an evaluated geometry expression to launch geometry
    /// (`Dim3Val`).
    GeomConvert {
        /// Destination register.
        dst: Reg,
        /// Register holding the evaluated geometry expression.
        src: Reg,
    },
    /// Validate grid/block sizes before evaluating launch arguments.
    LaunchCheck {
        /// Grid register (holds a `Dim3` value).
        grid: Reg,
        /// Block register.
        block: Reg,
        /// Name-pool index of the kernel name.
        name: u32,
    },
    /// Hand the launch to the backend and merge its stats.
    LaunchKernel {
        /// Kernel-table index.
        kernel: u32,
        /// Grid register.
        grid: Reg,
        /// Block register.
        block: Reg,
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
    },

    // -------------------------------------------------------------- OpenMP
    /// `#pragma omp atomic` over `base[idx] op= src`.
    AtomicRmw {
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// Delta register.
        src: Reg,
        /// True when the pragma's operator is `-=`.
        negate: bool,
    },
    /// Open a map-tracking frame (entering a `target data` region or the
    /// map clauses of an offload work-sharing loop).
    MapFramePush,
    /// Unmap and close the innermost map-tracking frame.
    MapFramePop,
    /// Unmap and close the `n` innermost map frames (break/continue/return
    /// crossing `target data` boundaries).
    UnmapFrames {
        /// Number of frames to close.
        n: u32,
    },
    /// Map a whole buffer section (no explicit length): mark mapped and
    /// charge the transfer from the buffer's length.
    MapSecWhole {
        /// Slot holding the mapped variable.
        slot: Reg,
    },
    /// Begin an explicit-length map section: when the slot holds a pointer,
    /// mark it mapped and stash it; otherwise skip the length evaluation.
    MapSecBegin {
        /// Slot holding the mapped variable.
        slot: Reg,
        /// Scratch register receiving the pointer.
        tmp: Reg,
        /// Absolute pc to skip to when the slot is not a pointer.
        skip: u32,
    },
    /// Charge the transfer for an explicit-length map section.
    MapSecCharge {
        /// Scratch register holding the pointer.
        tmp: Reg,
        /// Evaluated length register.
        len: Reg,
    },
    /// Work-sharing entry: backend presence check.
    OmpPre,
    /// Hand a work-sharing loop to the backend and merge its stats.
    ParallelFor {
        /// Region-table index.
        region: u32,
        /// Evaluated lower-bound register.
        lo: Reg,
        /// Evaluated upper-bound register.
        hi: Reg,
        /// Evaluated step register.
        step: Reg,
    },
}
