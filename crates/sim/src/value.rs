//! Runtime values of the interpreter.

use hidet_ir::{BinOp, DType, UnOp};

/// A dynamically typed scalar produced by expression evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Floating point (F32/F16 both evaluate in f32 precision).
    F32(f32),
    /// Integer (I32/I64 both evaluate in i64).
    I64(i64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// As float, converting integers; `None` for booleans.
    #[inline]
    pub fn as_f32(self) -> Option<f32> {
        match self {
            Value::F32(v) => Some(v),
            Value::I64(v) => Some(v as f32),
            Value::Bool(_) => None,
        }
    }

    /// As integer; floats truncate toward zero (CUDA C cast semantics).
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(v),
            Value::F32(v) => Some(v as i64),
            Value::Bool(_) => None,
        }
    }

    /// As boolean.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Casts to the given IR type.
    #[inline]
    pub fn cast(self, dtype: DType) -> Value {
        match dtype {
            DType::F32 | DType::F16 => Value::F32(self.as_f32().unwrap_or(0.0)),
            DType::I32 | DType::I64 => Value::I64(self.as_i64().unwrap_or(0)),
            DType::Bool => Value::Bool(match self {
                Value::Bool(b) => b,
                Value::I64(v) => v != 0,
                Value::F32(v) => v != 0.0,
            }),
        }
    }

    /// Applies a binary operator; both operands are promoted to float if
    /// either is float. Integer arithmetic wraps on overflow (two's
    /// complement, as on the device), in every build profile.
    ///
    /// Integer division by zero yields `None` (reported as a runtime error by
    /// the interpreter rather than a panic).
    #[inline(always)]
    pub fn binary(op: BinOp, a: Value, b: Value) -> Option<Value> {
        use BinOp::*;
        match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => Some(match op {
                And => Value::Bool(x && y),
                Or => Value::Bool(x || y),
                Eq => Value::Bool(x == y),
                Ne => Value::Bool(x != y),
                _ => return None,
            }),
            (Value::I64(x), Value::I64(y)) => Some(match op {
                Add => Value::I64(x.wrapping_add(y)),
                Sub => Value::I64(x.wrapping_sub(y)),
                Mul => Value::I64(x.wrapping_mul(y)),
                Div => Value::I64(x.checked_div(y)?),
                Mod => Value::I64(x.checked_rem(y)?),
                Min => Value::I64(x.min(y)),
                Max => Value::I64(x.max(y)),
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Eq => Value::Bool(x == y),
                Ne => Value::Bool(x != y),
                And | Or => return None,
            }),
            _ => {
                let x = a.as_f32()?;
                let y = b.as_f32()?;
                Some(match op {
                    Add => Value::F32(x + y),
                    Sub => Value::F32(x - y),
                    Mul => Value::F32(x * y),
                    Div => Value::F32(x / y),
                    Mod => Value::F32(x % y),
                    Min => Value::F32(x.min(y)),
                    Max => Value::F32(x.max(y)),
                    Lt => Value::Bool(x < y),
                    Le => Value::Bool(x <= y),
                    Eq => Value::Bool(x == y),
                    Ne => Value::Bool(x != y),
                    And | Or => return None,
                })
            }
        }
    }

    /// Applies a unary operator. Integer negation and `abs` wrap on
    /// `i64::MIN`, like the binary operators.
    #[inline]
    pub fn unary(op: UnOp, v: Value) -> Option<Value> {
        use UnOp::*;
        match op {
            Not => Some(Value::Bool(!v.as_bool()?)),
            Neg => Some(match v {
                Value::I64(x) => Value::I64(x.wrapping_neg()),
                Value::F32(x) => Value::F32(-x),
                Value::Bool(_) => return None,
            }),
            Abs => Some(match v {
                Value::I64(x) => Value::I64(x.wrapping_abs()),
                Value::F32(x) => Value::F32(x.abs()),
                Value::Bool(_) => return None,
            }),
            _ => {
                let x = v.as_f32()?;
                Some(Value::F32(match op {
                    Exp => x.exp(),
                    Sqrt => x.sqrt(),
                    Rsqrt => 1.0 / x.sqrt(),
                    Tanh => x.tanh(),
                    Erf => erf(x),
                    Log => x.ln(),
                    Sigmoid => 1.0 / (1.0 + (-x).exp()),
                    Neg | Not | Abs => unreachable!("handled above"),
                }))
            }
        }
    }
}

/// Abramowitz–Stegun rational approximation of the error function
/// (max abs error 1.5e-7, matching CUDA `erff` to fp32 tolerance).
pub fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_8) * t - 0.284_496_72) * t
            + 0.254_829_6)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic() {
        assert_eq!(
            Value::binary(BinOp::Add, Value::I64(2), Value::I64(3)),
            Some(Value::I64(5))
        );
        assert_eq!(
            Value::binary(BinOp::Div, Value::I64(7), Value::I64(2)),
            Some(Value::I64(3))
        );
        assert_eq!(
            Value::binary(BinOp::Div, Value::I64(7), Value::I64(0)),
            None
        );
        assert_eq!(
            Value::binary(BinOp::Mod, Value::I64(7), Value::I64(4)),
            Some(Value::I64(3))
        );
    }

    #[test]
    fn integer_overflow_wraps_in_every_profile() {
        let (min, max) = (Value::I64(i64::MIN), Value::I64(i64::MAX));
        let one = Value::I64(1);
        assert_eq!(Value::binary(BinOp::Add, max, one), Some(min));
        assert_eq!(Value::binary(BinOp::Sub, min, one), Some(max));
        assert_eq!(
            Value::binary(BinOp::Mul, max, Value::I64(2)),
            Some(Value::I64(-2))
        );
        assert_eq!(Value::unary(UnOp::Neg, min), Some(min));
        assert_eq!(Value::unary(UnOp::Abs, min), Some(min));
        // The one overflowing division stays a fault, not a wrap.
        assert_eq!(Value::binary(BinOp::Div, min, Value::I64(-1)), None);
    }

    #[test]
    fn mixed_promotes_to_float() {
        assert_eq!(
            Value::binary(BinOp::Mul, Value::I64(2), Value::F32(1.5)),
            Some(Value::F32(3.0))
        );
    }

    #[test]
    fn comparisons_produce_bools() {
        assert_eq!(
            Value::binary(BinOp::Lt, Value::F32(1.0), Value::F32(2.0)),
            Some(Value::Bool(true))
        );
        assert_eq!(
            Value::binary(BinOp::Eq, Value::I64(3), Value::I64(3)),
            Some(Value::Bool(true))
        );
    }

    #[test]
    fn casts_follow_cuda_semantics() {
        assert_eq!(Value::F32(2.9).cast(DType::I64), Value::I64(2));
        assert_eq!(Value::I64(1).cast(DType::Bool), Value::Bool(true));
        assert_eq!(Value::I64(3).cast(DType::F32), Value::F32(3.0));
    }

    #[test]
    fn unary_math() {
        assert_eq!(Value::unary(UnOp::Neg, Value::I64(4)), Some(Value::I64(-4)));
        let s = Value::unary(UnOp::Sigmoid, Value::F32(0.0)).unwrap();
        assert_eq!(s, Value::F32(0.5));
        let e = Value::unary(UnOp::Exp, Value::F32(0.0)).unwrap();
        assert_eq!(e, Value::F32(1.0));
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427008).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }
}
