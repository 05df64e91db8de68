//! Runtime values.
//!
//! [`Value`] is `Copy` and two words (16 bytes), so the VM fills, moves and
//! coerces registers with plain copies. The one value that would own heap
//! data, a string literal, is held as an id into the executing program's
//! string pool instead: [`crate::bytecode::CompiledProgram::names`] for the
//! VM, the evaluator's literal pool for the interpreter. No store keeps a
//! string (buffers hold numbers only), so an id never outlives the run of
//! the program that issued it.

use crate::memory::{BufferId, MemSpace};
use lassi_lang::Type;
use std::fmt;

/// The value of a `dim3` (CUDA launch geometry) object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3Val {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3Val {
    /// Construct a dim3, defaulting missing components to 1.
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3Val {
            x: x.max(1),
            y: y.max(1),
            z: z.max(1),
        }
    }

    /// 1-dimensional geometry.
    pub fn linear(x: u32) -> Self {
        Dim3Val::new(x, 1, 1)
    }

    /// Total number of elements (threads/blocks) described.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl fmt::Display for Dim3Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A pointer value: a buffer plus an element offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtrValue {
    /// The buffer the pointer refers to.
    pub buffer: BufferId,
    /// Offset in *elements* from the start of the buffer.
    pub offset: i64,
    /// Which memory space the buffer lives in (cached from the allocation).
    pub space: MemSpace,
}

/// Any runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (covers `bool`, `int` and `long`).
    Int(i64),
    /// Floating point (covers `float` and `double`).
    Float(f64),
    /// Pointer into a [`crate::memory::Memory`] buffer.
    Ptr(PtrValue),
    /// Null / uninitialized pointer.
    NullPtr,
    /// CUDA `dim3`.
    Dim3(Dim3Val),
    /// String literal (printf format strings): an id into the executing
    /// program's string pool (see the module docs).
    Str(u32),
    /// No value.
    Void,
}

impl Value {
    /// Interpret as an integer (floats truncate toward zero).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Float(v) => *v as i64,
            Value::NullPtr => 0,
            Value::Dim3(d) => d.x as i64,
            _ => 0,
        }
    }

    /// Interpret as a float.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            _ => 0.0,
        }
    }

    /// Truthiness, C-style.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Ptr(_) => true,
            Value::NullPtr => false,
            Value::Dim3(_) | Value::Str(_) => true,
            Value::Void => false,
        }
    }

    /// Coerce a value to a declared type (applies f32 rounding for `float`,
    /// truncation for integer targets). Pointers and dim3 pass through.
    pub fn coerce_to(&self, ty: &Type) -> Value {
        match ty {
            Type::Int | Type::Long | Type::Bool => Value::Int(self.as_int()),
            Type::Float => Value::Float(self.as_float() as f32 as f64),
            Type::Double => Value::Float(self.as_float()),
            Type::Dim3 => match self {
                Value::Dim3(d) => Value::Dim3(*d),
                other => Value::Dim3(Dim3Val::linear(other.as_int().max(0) as u32)),
            },
            Type::Ptr(_) | Type::Void => *self,
        }
    }

    /// The value as `printf`'s `%s` renders it, resolving a string id
    /// through `strings`, the pool of the program that issued it.
    pub fn text(&self, strings: &[String]) -> String {
        match self {
            Value::Str(id) => strings[*id as usize].clone(),
            other => other.to_string(),
        }
    }

    /// The default (zero) value for a declared type.
    pub fn zero_of(ty: &Type) -> Value {
        match ty {
            Type::Int | Type::Long | Type::Bool => Value::Int(0),
            Type::Float | Type::Double => Value::Float(0.0),
            Type::Dim3 => Value::Dim3(Dim3Val::new(1, 1, 1)),
            Type::Ptr(_) => Value::NullPtr,
            Type::Void => Value::Void,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ptr(p) => write!(f, "<ptr buf{} +{}>", p.buffer.0, p.offset),
            Value::NullPtr => write!(f, "<null>"),
            Value::Dim3(d) => write!(f, "{d}"),
            Value::Str(id) => write!(f, "<str #{id}>"),
            Value::Void => write!(f, "<void>"),
        }
    }
}

// Registers are refilled for every simulated GPU thread and copied by
// almost every instruction: keep them plain two-word copies. (At 24 bytes
// the enum tag lands in the pointer's `space` byte and each register copy
// compiles to a chain of partial moves.)
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Value>();
    assert!(std::mem::size_of::<Value>() <= 16);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_counts() {
        assert_eq!(Dim3Val::new(4, 2, 1).count(), 8);
        assert_eq!(
            Dim3Val::linear(0).count(),
            1,
            "components clamp to at least 1"
        );
    }

    #[test]
    fn coercion_rounds_float() {
        let v = Value::Float(0.1234567890123);
        match v.coerce_to(&Type::Float) {
            Value::Float(x) => assert_eq!(x, 0.1234567890123f64 as f32 as f64),
            other => panic!("unexpected {other:?}"),
        }
        match v.coerce_to(&Type::Int) {
            Value::Int(0) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truthiness_follows_c() {
        assert!(Value::Int(2).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        assert!(!Value::NullPtr.is_truthy());
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero_of(&Type::Int), Value::Int(0));
        assert_eq!(Value::zero_of(&Type::Double), Value::Float(0.0));
        assert_eq!(Value::zero_of(&Type::Float.ptr()), Value::NullPtr);
    }

    #[test]
    fn strings_resolve_through_their_pool() {
        let pool = vec!["fmt".to_string(), "ok".to_string()];
        assert_eq!(Value::Str(1).text(&pool), "ok");
        assert_eq!(Value::Int(7).text(&pool), "7");
        let ptr = Value::Str(0).coerce_to(&Type::Int.ptr());
        assert_eq!(
            ptr,
            Value::Str(0),
            "pointer coercion passes strings through"
        );
    }
}
