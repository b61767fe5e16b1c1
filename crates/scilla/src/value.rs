//! Runtime values and environments.

use crate::ast::{FunLit, TFunLit};
use crate::intern::Sym;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A closure: a function literal together with its captured environment.
/// The literal is the parser's own `Arc`, so creating a closure copies no
/// part of the syntax tree.
#[derive(Debug, Clone)]
pub struct Closure {
    /// The `fun` literal: parameter, its type, and the body.
    pub lit: Arc<FunLit>,
    /// Captured environment.
    pub env: Env,
}

/// A type closure produced by `tfun`, sharing its literal like [`Closure`].
#[derive(Debug, Clone)]
pub struct TypeClosure {
    /// The `tfun` literal: type variable and body.
    pub lit: Arc<TFunLit>,
    /// Captured environment.
    pub env: Env,
}

/// A runtime value.
///
/// The shapes the transaction path copies most clone without allocating: an
/// address is an inline [`Value::ByStr20`], and maps, messages and closures
/// are `Arc`-shared.
///
/// Comparison: all first-order values compare structurally; closures compare
/// by identity (allocation address). Well-typed programs never use closures
/// or messages as map keys, so the identity fallback only exists to make
/// `BTreeMap<Value, Value>` total.
#[derive(Debug, Clone)]
pub enum Value {
    /// Signed integer with bit width.
    Int(u32, i128),
    /// Unsigned integer with bit width.
    Uint(u32, u128),
    /// String.
    Str(String),
    /// Byte string on the heap. [`Value::bystr`] builds the canonical form,
    /// which is inline for 20 bytes; a heap `ByStr` of 20 bytes still equals
    /// it.
    ByStr(Vec<u8>),
    /// A 20-byte string (an address), stored inline: cloning it is a copy.
    /// It is the same value as a `ByStr` of the same bytes: the two forms
    /// compare equal and print and encode alike.
    ByStr20([u8; 20]),
    /// Block number.
    BNum(u64),
    /// A (possibly nested) map. The entry tree is `Arc`-shared: cloning a
    /// map value is a pointer bump, and mutation goes through
    /// [`crate::state::map_make_mut`], which copies the node only when it is
    /// shared (copy-on-write).
    Map(Arc<BTreeMap<Value, Value>>),
    /// A constructed ADT value; type arguments are erased at runtime.
    Adt {
        /// Constructor tag (`Some`, `True`, `Cons`, …), interned.
        ctor: Sym,
        /// Constructor arguments.
        args: Vec<Value>,
    },
    /// A message (for `send`/`event`/`throw`): interned key → payload,
    /// `Arc`-shared like a map. Messages are never updated in place.
    Msg(Arc<BTreeMap<Sym, Value>>),
    /// A function closure.
    Clo(Arc<Closure>),
    /// A type-abstraction closure.
    TClo(Arc<TypeClosure>),
}

impl Value {
    /// The canonical `True`/`False` values. No allocation or table lookup:
    /// the constructor tags are pre-interned constants.
    pub fn bool(b: bool) -> Value {
        Value::Adt { ctor: if b { Sym::TRUE } else { Sym::FALSE }, args: vec![] }
    }

    /// `Some v`.
    pub fn some(v: Value) -> Value {
        Value::Adt { ctor: Sym::SOME, args: vec![v] }
    }

    /// `None`.
    pub fn none() -> Value {
        Value::Adt { ctor: Sym::NONE, args: vec![] }
    }

    /// An empty map value.
    pub fn empty_map() -> Value {
        Value::Map(Arc::new(BTreeMap::new()))
    }

    /// Builds a map value from entries.
    pub fn map_from(entries: BTreeMap<Value, Value>) -> Value {
        Value::Map(Arc::new(entries))
    }

    /// Extracts a boolean, if this is a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Adt { ctor, args } if args.is_empty() => {
                if *ctor == Sym::TRUE {
                    Some(true)
                } else if *ctor == Sym::FALSE {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Extracts the unsigned payload, if this is a `Uint` of any width.
    pub fn as_uint(&self) -> Option<u128> {
        match self {
            Value::Uint(_, v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts the address bytes, if this is a 20-byte string in either
    /// form.
    pub fn as_address(&self) -> Option<[u8; 20]> {
        match self {
            Value::ByStr20(a) => Some(*a),
            Value::ByStr(bs) => bs.as_slice().try_into().ok(),
            _ => None,
        }
    }

    /// The bytes of a byte string in either form.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::ByStr20(a) => Some(a),
            Value::ByStr(bs) => Some(bs),
            _ => None,
        }
    }

    /// Builds a `ByStr20` value from address bytes.
    pub fn address(bytes: [u8; 20]) -> Value {
        Value::ByStr20(bytes)
    }

    /// The canonical byte-string value: inline [`Value::ByStr20`] for 20
    /// bytes, a heap `ByStr` otherwise. Every byte string the interpreter
    /// builds (literals, wire decoding, `concat`) comes through here.
    pub fn bystr(bytes: &[u8]) -> Value {
        match bytes.try_into() {
            Ok(a) => Value::ByStr20(a),
            Err(_) => Value::ByStr(bytes.to_vec()),
        }
    }

    /// A small integer tag used to order values of different shapes.
    fn shape_tag(&self) -> u8 {
        match self {
            Value::Int(..) => 0,
            Value::Uint(..) => 1,
            Value::Str(_) => 2,
            Value::ByStr(_) | Value::ByStr20(_) => 3,
            Value::BNum(_) => 4,
            Value::Map(_) => 5,
            Value::Adt { .. } => 6,
            Value::Msg(_) => 7,
            Value::Clo(_) => 8,
            Value::TClo(_) => 9,
        }
    }

    /// Is this value first-order (no closures anywhere inside)?
    pub fn is_first_order(&self) -> bool {
        match self {
            Value::Clo(_) | Value::TClo(_) => false,
            Value::Map(m) => m.iter().all(|(k, v)| k.is_first_order() && v.is_first_order()),
            Value::Adt { args, .. } => args.iter().all(Value::is_first_order),
            Value::Msg(m) => m.values().all(Value::is_first_order),
            _ => true,
        }
    }
}

// Inline addresses must not grow the value: every frame slot, map entry and
// constructor argument pays for it.
const _: () = assert!(std::mem::size_of::<Value>() == 32);

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use Value::*;
        match (self, other) {
            (Int(w1, v1), Int(w2, v2)) => (w1, v1).cmp(&(w2, v2)),
            (Uint(w1, v1), Uint(w2, v2)) => (w1, v1).cmp(&(w2, v2)),
            (Str(a), Str(b)) => a.cmp(b),
            (ByStr20(a), ByStr20(b)) => a.cmp(b),
            (ByStr(_) | ByStr20(_), ByStr(_) | ByStr20(_)) => self.as_bytes().cmp(&other.as_bytes()),
            (BNum(a), BNum(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.cmp(b),
            (Adt { ctor: c1, args: a1 }, Adt { ctor: c2, args: a2 }) => {
                c1.cmp(c2).then_with(|| a1.cmp(a2))
            }
            (Msg(a), Msg(b)) => a.cmp(b),
            (Clo(a), Clo(b)) => (Arc::as_ptr(a) as usize).cmp(&(Arc::as_ptr(b) as usize)),
            (TClo(a), TClo(b)) => (Arc::as_ptr(a) as usize).cmp(&(Arc::as_ptr(b) as usize)),
            (a, b) => a.shape_tag().cmp(&b.shape_tag()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(w, v) => write!(f, "Int{w} {v}"),
            Value::Uint(w, v) => write!(f, "Uint{w} {v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::ByStr(_) | Value::ByStr20(_) => {
                write!(f, "0x")?;
                for b in self.as_bytes().unwrap_or_default() {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            Value::BNum(n) => write!(f, "BNum {n}"),
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} => {v}")?;
                }
                write!(f, "}}")
            }
            Value::Adt { ctor, args } => {
                write!(f, "{ctor}")?;
                for a in args {
                    write!(f, " ({a})")?;
                }
                Ok(())
            }
            Value::Msg(m) => {
                write!(f, "Msg{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Clo(_) => write!(f, "<closure>"),
            Value::TClo(_) => write!(f, "<tclosure>"),
        }
    }
}

/// A persistent (cons-list) environment binding identifiers to values.
///
/// Cloning is O(1); extension is O(1); lookup is O(depth). This makes
/// closure capture cheap, which matters because contract libraries define
/// many small combinators.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Arc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: Sym,
    value: Value,
    rest: Env,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// Returns an environment extended with `name → value`.
    pub fn bind(&self, name: impl Into<Sym>, value: Value) -> Env {
        Env(Some(Arc::new(EnvNode { name: name.into(), value, rest: self.clone() })))
    }

    /// Looks up the innermost binding of `name`.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        self.lookup_sym(crate::intern::intern(name))
    }

    /// Looks up the innermost binding of an interned name. Each list node is
    /// rejected or accepted on a single integer compare.
    pub fn lookup_sym(&self, name: Sym) -> Option<&Value> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if node.name == name {
                return Some(&node.value);
            }
            cur = &node.rest;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_shadows_innermost() {
        let e = Env::new().bind("x", Value::Uint(128, 1)).bind("x", Value::Uint(128, 2));
        assert_eq!(e.lookup("x"), Some(&Value::Uint(128, 2)));
        assert_eq!(e.lookup("y"), None);
    }

    #[test]
    fn env_extension_does_not_mutate_parent() {
        let base = Env::new().bind("x", Value::Uint(128, 1));
        let _child = base.bind("x", Value::Uint(128, 2));
        assert_eq!(base.lookup("x"), Some(&Value::Uint(128, 1)));
    }

    #[test]
    fn value_ordering_is_total_over_shapes() {
        let vals = [
            Value::Int(32, -1),
            Value::Uint(128, 0),
            Value::Str("a".into()),
            Value::ByStr(vec![1]),
            Value::BNum(0),
            Value::bool(true),
        ];
        for a in &vals {
            for b in &vals {
                // Must not panic, and must be antisymmetric.
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab.reverse(), ba);
            }
        }
    }

    #[test]
    fn bool_helpers_roundtrip() {
        assert_eq!(Value::bool(true).as_bool(), Some(true));
        assert_eq!(Value::bool(false).as_bool(), Some(false));
        assert_eq!(Value::Uint(128, 1).as_bool(), None);
    }

    #[test]
    fn address_roundtrip() {
        let a = [7u8; 20];
        assert_eq!(Value::address(a).as_address(), Some(a));
        assert_eq!(Value::ByStr(a.to_vec()).as_address(), Some(a));
        assert_eq!(Value::ByStr(vec![1, 2]).as_address(), None);
        assert!(matches!(Value::bystr(&a), Value::ByStr20(_)));
        assert_eq!(Value::bystr(&a), Value::ByStr(a.to_vec()));
    }

    #[test]
    fn maps_use_structural_keys() {
        let mut m = BTreeMap::new();
        m.insert(Value::Str("k".into()), Value::Uint(128, 5));
        let v = Value::map_from(m);
        if let Value::Map(m) = &v {
            assert_eq!(m.get(&Value::Str("k".into())), Some(&Value::Uint(128, 5)));
        }
    }

    #[test]
    fn first_order_check_descends() {
        use crate::ast::{Expr, Ident};
        let lit = FunLit {
            param: Ident::new("x"),
            param_type: crate::types::Type::Str,
            body: Expr::Var(Ident::new("x")),
        };
        let clo = Value::Clo(Arc::new(Closure { lit: Arc::new(lit), env: Env::new() }));
        assert!(!clo.is_first_order());
        let nested = Value::Adt { ctor: "Some".into(), args: vec![clo] };
        assert!(!nested.is_first_order());
        assert!(Value::Uint(128, 3).is_first_order());
    }
}
