//! Register bytecode: the compiled execution engine.
//!
//! [`compile`] lowers a checked [`lassi_lang::Program`] into a
//! [`CompiledProgram`]: one flat instruction stream ([`instr::Instr`]) shared
//! by every function, kernel segment, OpenMP region body and dynamic
//! shared-length expression, plus pooled constants, names and types. Name
//! resolution happens entirely at compile time — every variable becomes a
//! frame-relative register slot, so the VM ([`vm::Vm`]) never touches a scope
//! chain or a hash map in the hot path. Instructions read locals in place
//! from those slots and literals from per-unit constant slots
//! ([`ConstSlots`]), so neither costs an instruction of its own.
//!
//! The engine is observationally identical to the tree-walking interpreter in
//! [`crate::eval`] / [`crate::interp`] (kept as the test oracle):
//! same stdout, same cost counters, same memory stats, same simulated time
//! and — load-bearing, because `omp_get_wtime` derives its reading from the
//! step counter — the same step count at every observation point. The
//! differential suite in the workspace root pins this.
//!
//! Compilation is cheap (one AST walk) and cacheable: a `CompiledProgram`
//! owns all of its data (no borrow of the AST), so the pipeline shares one
//! compilation per distinct program via `Arc`.

pub mod compiler;
pub mod instr;
pub mod vm;

pub use compiler::compile;
pub use instr::{Axis, FlowKind, Instr, MathFn, Reg, SpecialIdent};
pub use vm::{run_compiled, run_compiled_with_memory, Vm};

use lassi_lang::{OmpDirective, ReductionOp, Type};

use crate::value::Value;

/// The literal operands of one compiled unit. They live in the unit's frame,
/// in slots `base..base + values.len()`, filled when the frame is set up, and
/// instructions read them in place like any local. No instruction writes
/// them.
#[derive(Debug, Clone, Default)]
pub struct ConstSlots {
    /// First constant slot.
    pub(crate) base: Reg,
    /// The values, in slot order.
    pub(crate) values: Vec<Value>,
}

impl ConstSlots {
    /// A fresh frame of `nslots` slots: zeros, with the constant slots
    /// filled. Callers seed parameters and captures on top.
    pub fn frame(&self, nslots: u32) -> Vec<Value> {
        let mut frame = vec![Value::Int(0); nslots as usize];
        self.fill(&mut frame);
        frame
    }

    /// Fill the constant slots of `frame`, a frame of this unit.
    #[inline]
    pub(crate) fn fill(&self, frame: &mut [Value]) {
        let base = self.base as usize;
        frame[base..base + self.values.len()].copy_from_slice(&self.values);
    }
}

/// A program lowered to register bytecode. Fully owned: safe to cache and
/// share across runs via `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The single flat instruction stream. Units (functions, kernel segments,
    /// region bodies, shared-length expressions) are pc ranges ending in
    /// `Ret`/`EndUnit`.
    pub code: Vec<Instr>,
    /// Constant pool (`Const`/`ConstFree` operands).
    pub consts: Vec<Value>,
    /// Name pool: identifiers and precomputed diagnostic messages.
    pub names: Vec<String>,
    /// Type pool (`StoreVar`/`CastScalar`/... operands).
    pub types: Vec<Type>,
    /// Callable (non-kernel) functions.
    pub funcs: Vec<CompiledFunction>,
    /// Launchable functions (`__global__` kernels plus anything named in a
    /// launch statement), compiled as barrier-delimited segments.
    pub kernels: Vec<CompiledKernel>,
    /// OpenMP work-sharing regions, one per pragma site.
    pub regions: Vec<CompiledRegion>,
    /// The host entry unit (`main` with `arg{i}` bindings), if `main` exists.
    pub host: Option<HostUnit>,
}

/// The host entry point: `main`'s body compiled with the runtime-argument
/// bindings of the interpreter convention in an enclosing scope.
#[derive(Debug, Clone)]
pub struct HostUnit {
    /// Entry pc.
    pub entry: u32,
    /// Frame size in slots.
    pub nslots: u32,
    /// Number of `arg{i}` bindings compiled in (slots `0..argc`).
    pub argc: usize,
    /// Literal operands.
    pub consts: ConstSlots,
}

/// A compiled callable function.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Function name (diagnostics).
    pub name: String,
    /// Entry pc.
    pub entry: u32,
    /// Frame size in slots; parameters occupy slots `0..params.len()`.
    pub nslots: u32,
    /// Parameter types, for call-site coercion.
    pub params: Vec<Type>,
    /// Return type: `Return(v)` coerces to it, falling off returns its zero.
    pub ret: Type,
    /// Literal operands, filled by every call.
    pub consts: ConstSlots,
}

/// How a `__shared__` array's per-block length is determined.
#[derive(Debug, Clone)]
pub enum SharedLen {
    /// Literal length.
    Lit(i64),
    /// Arbitrary expression, compiled as a mini-unit evaluated with only the
    /// kernel parameters in scope (host context, small step budget) — the
    /// same throwaway evaluation the interpreter performs.
    Dynamic {
        /// Entry pc of the expression unit (ends in `Ret`).
        entry: u32,
        /// Frame size of the expression unit.
        nslots: u32,
        /// Literal operands of the expression unit.
        consts: ConstSlots,
    },
    /// No length given: a single element.
    One,
}

/// One top-level `__shared__` declaration of a kernel.
#[derive(Debug, Clone)]
pub struct CompiledShared {
    /// Buffer name.
    pub name: String,
    /// Element type.
    pub elem: Type,
    /// Frame slot receiving the pointer in every thread.
    pub slot: Reg,
    /// Per-block length.
    pub len: SharedLen,
}

/// A compiled launchable kernel. Parameters occupy slots `0..params.len()`,
/// shared-memory pointers the slots recorded in `shared`; each thread keeps
/// one frame alive across all segments.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel name (diagnostics).
    pub name: String,
    /// Parameter types, for argument coercion.
    pub params: Vec<Type>,
    /// Top-level `__shared__` declarations.
    pub shared: Vec<CompiledShared>,
    /// Entry pcs of the barrier-delimited segments, in execution order.
    /// Every thread of a block finishes segment `k` before any starts `k+1`.
    pub segments: Vec<u32>,
    /// Frame size in slots.
    pub nslots: u32,
    /// Literal operands (after the parameter and shared slots).
    pub consts: ConstSlots,
}

/// One reduction variable of a work-sharing region.
#[derive(Debug, Clone)]
pub struct CompiledReduction {
    /// Variable name (keys the backend's reduction updates).
    pub var: String,
    /// Reduction operator.
    pub op: ReductionOp,
    /// The variable's binding type in the enclosing scope (`double` when the
    /// variable was unbound there), which selects the identity element.
    pub ty: Type,
    /// Region slot seeded with the identity before the chunk runs. Equals the
    /// variable's capture slot when it was bound in the enclosing scope.
    pub init_slot: Reg,
    /// Whether the identity store goes through the binding-type coercion
    /// (`env.set` semantics); false when the interpreter would `declare` the
    /// variable fresh.
    pub init_coerce: bool,
    /// Region slot read back after the chunk (resolved after the loop
    /// variable, which may shadow the reduction variable by name).
    pub read_slot: Reg,
}

/// A compiled work-sharing region (`parallel for` / offload variant).
///
/// Invariant: region slots `0..captures.len()` hold the captured enclosing
/// bindings, in `captures` order — the caller snapshots `captures[i]` from
/// its own frame into region slot `i`.
#[derive(Debug, Clone)]
pub struct CompiledRegion {
    /// The directive with its clauses (drives the cost model's
    /// `region_resources`, exactly as in the interpreter path).
    pub directive: OmpDirective,
    /// Entry pc of the loop-body unit (one execution per iteration).
    pub body_entry: u32,
    /// Frame size in slots.
    pub nslots: u32,
    /// Caller-frame slots to snapshot, in region-slot order.
    pub captures: Vec<Reg>,
    /// Region slot of the loop variable, written before every iteration.
    pub loop_var_slot: Reg,
    /// Reduction bookkeeping.
    pub reductions: Vec<CompiledReduction>,
    /// Where the backend's reduction updates land in the caller's frame:
    /// `(variable name, Some((caller slot, binding type)))`, or `None` when
    /// the name was unbound at the pragma site (updates are then dropped,
    /// matching the interpreter's ignored `env.set` failure).
    pub updates: Vec<(String, Option<(Reg, Type)>)>,
    /// True for `target ...` offload directives.
    pub offload: bool,
    /// Literal operands of the loop body.
    pub consts: ConstSlots,
}

impl CompiledProgram {
    /// Name-pool lookup.
    #[inline]
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Type-pool lookup.
    #[inline]
    pub fn ty(&self, id: u32) -> &Type {
        &self.types[id as usize]
    }

    /// Rough heap footprint in bytes, for cache-size accounting.
    pub fn approx_bytes(&self) -> u64 {
        let code = self.code.len() * std::mem::size_of::<Instr>();
        let slots: usize = self
            .host
            .iter()
            .map(|h| &h.consts)
            .chain(self.funcs.iter().map(|f| &f.consts))
            .chain(self.kernels.iter().map(|k| &k.consts))
            .chain(self.regions.iter().map(|r| &r.consts))
            .map(|c| c.values.len())
            .sum();
        let consts = (self.consts.len() + slots) * std::mem::size_of::<Value>();
        let names: usize = self.names.iter().map(|n| n.len() + 24).sum();
        let types = self.types.len() * std::mem::size_of::<Type>();
        let funcs = self.funcs.len() * std::mem::size_of::<CompiledFunction>();
        let kernels = self.kernels.len() * 160;
        let regions = self.regions.len() * 240;
        (code + consts + names + types + funcs + kernels + regions) as u64
    }
}
