//! Builtin operations: evaluation and type signatures.
//!
//! This is the pragmatic subset of the Scilla standard builtins that the
//! contract corpus needs: checked integer arithmetic, comparisons, string and
//! byte-string operations, in-memory map operations, block-number
//! arithmetic, boolean connectives, and a (non-cryptographic, deterministic)
//! stand-in for `sha256hash`.

use crate::error::{ExecError, TypeError};
use crate::span::Span;
use crate::types::Type;
use crate::value::Value;

/// A pre-bound builtin operation: name dispatch resolved once, ahead of time.
pub type BuiltinFn = fn(&[Value]) -> Result<Value, ExecError>;

/// Resolves a builtin name to a direct function pointer.
///
/// Each returned function is monomorphic in its op name (a literal), so the
/// name match inside [`eval_builtin`] constant-folds away; the compiled
/// transition path pays one indirect call per builtin instead of a string
/// dispatch.
pub fn bind_builtin(op: &str) -> Option<BuiltinFn> {
    macro_rules! bound {
        ($name:literal) => {{
            fn f(args: &[Value]) -> Result<Value, ExecError> {
                eval_builtin($name, args)
            }
            Some(f as BuiltinFn)
        }};
    }
    match op {
        "add" => bound!("add"),
        "sub" => bound!("sub"),
        "mul" => bound!("mul"),
        "div" => bound!("div"),
        "rem" => bound!("rem"),
        "pow" => bound!("pow"),
        "lt" => bound!("lt"),
        "le" => bound!("le"),
        "gt" => bound!("gt"),
        "ge" => bound!("ge"),
        "eq" => bound!("eq"),
        "concat" => bound!("concat"),
        "strlen" => bound!("strlen"),
        "substr" => bound!("substr"),
        "to_string" => bound!("to_string"),
        "sha256hash" => bound!("sha256hash"),
        "keccak256hash" => bound!("keccak256hash"),
        "schnorr_verify" => bound!("schnorr_verify"),
        "blt" => bound!("blt"),
        "badd" => bound!("badd"),
        "put" => bound!("put"),
        "get" => bound!("get"),
        "contains" => bound!("contains"),
        "remove" => bound!("remove"),
        "size" => bound!("size"),
        "andb" => bound!("andb"),
        "orb" => bound!("orb"),
        "notb" => bound!("notb"),
        "to_uint128" => bound!("to_uint128"),
        "to_uint256" => bound!("to_uint256"),
        _ => None,
    }
}

fn int_bounds(width: u32) -> (i128, i128) {
    match width {
        32 => (i32::MIN as i128, i32::MAX as i128),
        64 => (i64::MIN as i128, i64::MAX as i128),
        _ => (i128::MIN, i128::MAX),
    }
}

/// The inclusive maximum of `UintN`. Widths above 128 saturate to `u128::MAX`
/// (our runtime representation is 128-bit; `Uint256` values beyond that are
/// not representable, which the corpus never needs).
pub fn uint_max(width: u32) -> u128 {
    match width {
        32 => u32::MAX as u128,
        64 => u64::MAX as u128,
        _ => u128::MAX,
    }
}

fn arith_err(op: &str, a: &Value, b: &Value) -> ExecError {
    ExecError::Arith(format!("{op} failed on {a} and {b}"))
}

fn uint_arith(op: &str, w: u32, a: u128, b: u128) -> Result<Value, ExecError> {
    let max = uint_max(w);
    let r = match op {
        "add" => a.checked_add(b).filter(|r| *r <= max),
        "sub" => a.checked_sub(b),
        "mul" => a.checked_mul(b).filter(|r| *r <= max),
        "div" => a.checked_div(b),
        "rem" => a.checked_rem(b),
        "pow" => b.try_into().ok().and_then(|e: u32| a.checked_pow(e)).filter(|r| *r <= max),
        _ => None,
    };
    r.map(|v| Value::Uint(w, v)).ok_or_else(|| arith_err(op, &Value::Uint(w, a), &Value::Uint(w, b)))
}

fn int_arith(op: &str, w: u32, a: i128, b: i128) -> Result<Value, ExecError> {
    let (min, max) = int_bounds(w);
    let r = match op {
        "add" => a.checked_add(b),
        "sub" => a.checked_sub(b),
        "mul" => a.checked_mul(b),
        "div" => a.checked_div(b),
        "rem" => a.checked_rem(b),
        "pow" => b.try_into().ok().and_then(|e: u32| a.checked_pow(e)),
        _ => None,
    };
    r.filter(|v| *v >= min && *v <= max)
        .map(|v| Value::Int(w, v))
        .ok_or_else(|| arith_err(op, &Value::Int(w, a), &Value::Int(w, b)))
}

/// A deterministic 32-byte digest (FNV-1a over a canonical rendering).
///
/// Not cryptographically secure — it stands in for `sha256hash` so that
/// contracts using content hashes (HTLC, ProofIPFS, …) run unmodified; see
/// DESIGN.md.
pub fn digest32(v: &Value) -> Vec<u8> {
    let repr = v.to_string();
    let mut out = Vec::with_capacity(32);
    let mut h: u64 = 0xcbf29ce484222325;
    for round in 0u8..4 {
        h ^= round as u64;
        for b in repr.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        out.extend_from_slice(&h.to_be_bytes());
    }
    out
}

/// Evaluates builtin `op` on `args`.
///
/// # Errors
///
/// [`ExecError::Arith`] on overflow/underflow/division-by-zero and
/// [`ExecError::Internal`] when the arguments have shapes the type checker
/// should have rejected.
pub fn eval_builtin(op: &str, args: &[Value]) -> Result<Value, ExecError> {
    let internal = |msg: &str| ExecError::Internal(format!("builtin {op}: {msg}"));
    match (op, args) {
        ("add" | "sub" | "mul" | "div" | "rem" | "pow", [a, b]) => match (a, b) {
            (Value::Uint(w1, x), Value::Uint(w2, y)) if w1 == w2 => {
                if matches!(op, "div" | "rem") && *y == 0 {
                    return Err(arith_err(op, a, b));
                }
                uint_arith(op, *w1, *x, *y)
            }
            (Value::Uint(w, x), Value::Uint(_, y)) if op == "pow" => uint_arith(op, *w, *x, *y),
            (Value::Int(w1, x), Value::Int(w2, y)) if w1 == w2 => {
                if matches!(op, "div" | "rem") && *y == 0 {
                    return Err(arith_err(op, a, b));
                }
                int_arith(op, *w1, *x, *y)
            }
            (Value::Int(w, x), Value::Uint(_, y)) if op == "pow" => {
                int_arith(op, *w, *x, *y as i128)
            }
            _ => Err(internal("arguments must be integers of matching width")),
        },
        ("lt" | "le" | "gt" | "ge", [a, b]) => {
            let ord = match (a, b) {
                (Value::Uint(w1, x), Value::Uint(w2, y)) if w1 == w2 => x.cmp(y),
                (Value::Int(w1, x), Value::Int(w2, y)) if w1 == w2 => x.cmp(y),
                (Value::Str(x), Value::Str(y)) => x.cmp(y),
                (Value::BNum(x), Value::BNum(y)) => x.cmp(y),
                _ => return Err(internal("arguments must be comparable of matching type")),
            };
            let r = match op {
                "lt" => ord.is_lt(),
                "le" => ord.is_le(),
                "gt" => ord.is_gt(),
                _ => ord.is_ge(),
            };
            Ok(Value::bool(r))
        }
        ("eq", [a, b]) => {
            if !a.is_first_order() || !b.is_first_order() {
                return Err(internal("cannot compare closures"));
            }
            Ok(Value::bool(a == b))
        }
        ("concat", [Value::Str(a), Value::Str(b)]) => Ok(Value::Str(format!("{a}{b}"))),
        ("concat", [Value::ByStr(a), Value::ByStr(b)]) => {
            let mut out = a.clone();
            out.extend_from_slice(b);
            Ok(Value::ByStr(out))
        }
        ("strlen", [Value::Str(s)]) => Ok(Value::Uint(32, s.len() as u128)),
        ("substr", [Value::Str(s), Value::Uint(_, start), Value::Uint(_, len)]) => {
            let start = *start as usize;
            let len = *len as usize;
            if start.checked_add(len).is_none_or(|e| e > s.len()) {
                return Err(ExecError::Arith(format!("substr out of range for {s:?}")));
            }
            Ok(Value::Str(s[start..start + len].to_string()))
        }
        ("to_string", [v]) => Ok(Value::Str(v.to_string())),
        ("to_uint128", [v]) => {
            let n = match v {
                Value::Uint(_, n) => Some(*n),
                Value::Int(_, n) if *n >= 0 => Some(*n as u128),
                Value::Str(s) => s.parse::<u128>().ok(),
                _ => None,
            };
            n.map(|n| Value::Uint(128, n))
                .ok_or_else(|| ExecError::Arith(format!("to_uint128 failed on {v}")))
        }
        ("to_uint256", [v]) => {
            let n = match v {
                Value::Uint(_, n) => Some(*n),
                Value::Int(_, n) if *n >= 0 => Some(*n as u128),
                _ => None,
            };
            n.map(|n| Value::Uint(256, n))
                .ok_or_else(|| ExecError::Arith(format!("to_uint256 failed on {v}")))
        }
        ("sha256hash" | "keccak256hash", [v]) => Ok(Value::ByStr(digest32(v))),
        ("schnorr_verify", [Value::ByStr(_), _, Value::ByStr(_)]) => {
            // Signature verification stand-in: structurally well-formed
            // signatures verify. See DESIGN.md substitutions.
            Ok(Value::bool(true))
        }
        ("blt", [Value::BNum(a), Value::BNum(b)]) => Ok(Value::bool(a < b)),
        ("badd", [Value::BNum(a), Value::Uint(_, n)]) => {
            a.checked_add(*n as u64)
                .map(Value::BNum)
                .ok_or_else(|| ExecError::Arith("block number overflow".into()))
        }
        ("put", [Value::Map(m), k, v]) => {
            let mut m = m.clone();
            crate::state::map_make_mut(&mut m).insert(k.clone(), v.clone());
            Ok(Value::Map(m))
        }
        ("get", [Value::Map(m), k]) => {
            Ok(m.get(k).map(|v| Value::some(v.clone())).unwrap_or_else(Value::none))
        }
        ("contains", [Value::Map(m), k]) => Ok(Value::bool(m.contains_key(k))),
        ("remove", [Value::Map(m), k]) => {
            let mut m = m.clone();
            if m.contains_key(k) {
                crate::state::map_make_mut(&mut m).remove(k);
            }
            Ok(Value::Map(m))
        }
        ("size", [Value::Map(m)]) => Ok(Value::Uint(32, m.len() as u128)),
        ("andb", [a, b]) => match (a.as_bool(), b.as_bool()) {
            (Some(x), Some(y)) => Ok(Value::bool(x && y)),
            _ => Err(internal("arguments must be Bool")),
        },
        ("orb", [a, b]) => match (a.as_bool(), b.as_bool()) {
            (Some(x), Some(y)) => Ok(Value::bool(x || y)),
            _ => Err(internal("arguments must be Bool")),
        },
        ("notb", [a]) => match a.as_bool() {
            Some(x) => Ok(Value::bool(!x)),
            _ => Err(internal("argument must be Bool")),
        },
        _ => Err(internal("unknown builtin or wrong arity")),
    }
}

/// Computes the result type of builtin `op` applied to arguments of the given
/// types. Used by the type checker.
///
/// # Errors
///
/// Returns a [`TypeError`] at `span` when the argument types do not fit the
/// builtin's signature.
pub fn builtin_result_type(op: &str, arg_types: &[Type], span: Span) -> Result<Type, TypeError> {
    let err = |msg: String| TypeError { span, message: msg };
    let same_integral = |ts: &[Type]| -> Option<Type> {
        match ts {
            [a, b] if a == b && a.is_integral() => Some(a.clone()),
            _ => None,
        }
    };
    match op {
        "add" | "sub" | "mul" | "div" | "rem" => same_integral(arg_types)
            .ok_or_else(|| err(format!("builtin {op} expects two equal integer types, got {arg_types:?}"))),
        "pow" => match arg_types {
            [a, Type::Uint(32)] if a.is_integral() => Ok(a.clone()),
            _ => Err(err("builtin pow expects (intN, Uint32)".into())),
        },
        "lt" | "le" | "gt" | "ge" => match arg_types {
            [a, b] if a == b && (a.is_integral() || *a == Type::Str || *a == Type::BNum) => {
                Ok(Type::bool())
            }
            _ => Err(err(format!("builtin {op} expects two equal comparable types"))),
        },
        "eq" => match arg_types {
            [a, b] if a == b && !matches!(a, Type::Fun(..) | Type::Forall(..)) => Ok(Type::bool()),
            _ => Err(err("builtin eq expects two equal first-order types".into())),
        },
        "concat" => match arg_types {
            [Type::Str, Type::Str] => Ok(Type::Str),
            [Type::ByStr(a), Type::ByStr(b)] => Ok(Type::ByStr(a + b)),
            _ => Err(err("builtin concat expects two Strings or two ByStrs".into())),
        },
        "strlen" => match arg_types {
            [Type::Str] => Ok(Type::Uint(32)),
            _ => Err(err("builtin strlen expects a String".into())),
        },
        "substr" => match arg_types {
            [Type::Str, Type::Uint(32), Type::Uint(32)] => Ok(Type::Str),
            _ => Err(err("builtin substr expects (String, Uint32, Uint32)".into())),
        },
        "to_string" => match arg_types {
            [_] => Ok(Type::Str),
            _ => Err(err("builtin to_string expects one argument".into())),
        },
        "to_uint128" => match arg_types {
            [t] if t.is_integral() || *t == Type::Str => Ok(Type::Uint(128)),
            _ => Err(err("builtin to_uint128 expects an integer or String".into())),
        },
        "to_uint256" => match arg_types {
            [t] if t.is_integral() => Ok(Type::Uint(256)),
            _ => Err(err("builtin to_uint256 expects an integer".into())),
        },
        "sha256hash" | "keccak256hash" => match arg_types {
            [_] => Ok(Type::ByStr(32)),
            _ => Err(err(format!("builtin {op} expects one argument"))),
        },
        "schnorr_verify" => match arg_types {
            [Type::ByStr(33), _, Type::ByStr(64)] => Ok(Type::bool()),
            _ => Err(err("builtin schnorr_verify expects (ByStr33, msg, ByStr64)".into())),
        },
        "blt" => match arg_types {
            [Type::BNum, Type::BNum] => Ok(Type::bool()),
            _ => Err(err("builtin blt expects two BNums".into())),
        },
        "badd" => match arg_types {
            [Type::BNum, Type::Uint(_)] => Ok(Type::BNum),
            _ => Err(err("builtin badd expects (BNum, UintN)".into())),
        },
        "put" => match arg_types {
            [Type::Map(k, v), kt, vt] if **k == *kt && **v == *vt => {
                Ok(Type::Map(k.clone(), v.clone()))
            }
            _ => Err(err("builtin put expects (Map k v, k, v)".into())),
        },
        "get" => match arg_types {
            [Type::Map(k, v), kt] if **k == *kt => Ok(Type::option((**v).clone())),
            _ => Err(err("builtin get expects (Map k v, k)".into())),
        },
        "contains" => match arg_types {
            [Type::Map(k, _), kt] if **k == *kt => Ok(Type::bool()),
            _ => Err(err("builtin contains expects (Map k v, k)".into())),
        },
        "remove" => match arg_types {
            [Type::Map(k, v), kt] if **k == *kt => Ok(Type::Map(k.clone(), v.clone())),
            _ => Err(err("builtin remove expects (Map k v, k)".into())),
        },
        "size" => match arg_types {
            [Type::Map(..)] => Ok(Type::Uint(32)),
            _ => Err(err("builtin size expects a Map".into())),
        },
        "andb" | "orb" => match arg_types {
            [a, b] if *a == Type::bool() && *b == Type::bool() => Ok(Type::bool()),
            _ => Err(err(format!("builtin {op} expects two Bools"))),
        },
        "notb" => match arg_types {
            [a] if *a == Type::bool() => Ok(Type::bool()),
            _ => Err(err("builtin notb expects a Bool".into())),
        },
        _ => Err(err(format!("unknown builtin '{op}'"))),
    }
}

/// An empty map value (helper for initialisers).
pub fn empty_map() -> Value {
    Value::empty_map()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_uint_arithmetic() {
        assert_eq!(
            eval_builtin("add", &[Value::Uint(128, 2), Value::Uint(128, 3)]).unwrap(),
            Value::Uint(128, 5)
        );
        assert!(eval_builtin("sub", &[Value::Uint(128, 2), Value::Uint(128, 3)]).is_err());
        assert!(eval_builtin("add", &[Value::Uint(32, u32::MAX as u128), Value::Uint(32, 1)]).is_err());
        assert!(eval_builtin("div", &[Value::Uint(128, 1), Value::Uint(128, 0)]).is_err());
    }

    #[test]
    fn checked_int_arithmetic_respects_width() {
        assert!(eval_builtin("add", &[Value::Int(32, i32::MAX as i128), Value::Int(32, 1)]).is_err());
        assert_eq!(
            eval_builtin("sub", &[Value::Int(64, 5), Value::Int(64, 9)]).unwrap(),
            Value::Int(64, -4)
        );
    }

    #[test]
    fn comparisons_produce_bools() {
        assert_eq!(
            eval_builtin("lt", &[Value::Uint(128, 2), Value::Uint(128, 3)]).unwrap(),
            Value::bool(true)
        );
        assert_eq!(
            eval_builtin("le", &[Value::Uint(128, 3), Value::Uint(128, 3)]).unwrap(),
            Value::bool(true)
        );
        assert_eq!(
            eval_builtin("eq", &[Value::Str("a".into()), Value::Str("b".into())]).unwrap(),
            Value::bool(false)
        );
    }

    #[test]
    fn map_builtins_are_persistent() {
        let m = empty_map();
        let m2 = eval_builtin("put", &[m.clone(), Value::Str("k".into()), Value::Uint(128, 1)]).unwrap();
        assert_eq!(eval_builtin("size", std::slice::from_ref(&m)).unwrap(), Value::Uint(32, 0));
        assert_eq!(eval_builtin("size", std::slice::from_ref(&m2)).unwrap(), Value::Uint(32, 1));
        assert_eq!(
            eval_builtin("get", &[m2.clone(), Value::Str("k".into())]).unwrap(),
            Value::some(Value::Uint(128, 1))
        );
        assert_eq!(
            eval_builtin("contains", &[m2, Value::Str("k".into())]).unwrap(),
            Value::bool(true)
        );
    }

    #[test]
    fn digest_is_deterministic_and_32_bytes() {
        let a = digest32(&Value::Str("hello".into()));
        let b = digest32(&Value::Str("hello".into()));
        let c = digest32(&Value::Str("world".into()));
        assert_eq!(a.len(), 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bnum_arithmetic() {
        assert_eq!(
            eval_builtin("badd", &[Value::BNum(5), Value::Uint(128, 7)]).unwrap(),
            Value::BNum(12)
        );
        assert_eq!(
            eval_builtin("blt", &[Value::BNum(5), Value::BNum(7)]).unwrap(),
            Value::bool(true)
        );
    }

    #[test]
    fn type_signatures_reject_mismatches() {
        let s = Span::dummy();
        assert!(builtin_result_type("add", &[Type::Uint(128), Type::Uint(64)], s).is_err());
        assert_eq!(
            builtin_result_type("add", &[Type::Uint(128), Type::Uint(128)], s).unwrap(),
            Type::Uint(128)
        );
        assert_eq!(
            builtin_result_type("concat", &[Type::ByStr(20), Type::ByStr(12)], s).unwrap(),
            Type::ByStr(32)
        );
        assert!(builtin_result_type("frobnicate", &[], s).is_err());
    }

    #[test]
    fn bool_connectives() {
        assert_eq!(
            eval_builtin("andb", &[Value::bool(true), Value::bool(false)]).unwrap(),
            Value::bool(false)
        );
        assert_eq!(eval_builtin("notb", &[Value::bool(false)]).unwrap(), Value::bool(true));
    }
}
