//! Abstract syntax for the Scilla subset (paper Fig. 4).
//!
//! The language is in *administrative normal form*: statement operands and
//! application arguments are identifiers, never compound expressions. This is
//! exactly the property the CoSplit analysis relies on to give a direct
//! statement → effect translation (paper §3.3).

use crate::intern::{intern, Sym};
use crate::span::Span;
use crate::types::Type;
use std::fmt;
use std::sync::Arc;

/// An identifier occurrence (variable, field, transition, or constructor).
///
/// The text is interned at construction: `sym` is the handle the interpreter
/// and compiler use for equality and environment lookup, so executing code
/// never compares identifier strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// The identifier text.
    pub name: String,
    /// The interned form of `name`.
    pub sym: Sym,
    /// Where it occurred.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a dummy span (for synthesised nodes and tests).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let sym = intern(&name);
        Ident { name, sym, span: Span::dummy() }
    }

    /// Creates an identifier at a given location.
    pub fn spanned(name: impl Into<String>, span: Span) -> Self {
        let name = name.into();
        let sym = intern(&name);
        Ident { name, sym, span }
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Literal values appearing in expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// A signed integer of a given bit width (32/64/128/256), e.g. `Int128 -4`.
    Int(u32, i128),
    /// An unsigned integer of a given bit width, e.g. `Uint128 10`.
    Uint(u32, u128),
    /// A string literal.
    Str(String),
    /// A hex byte string of fixed width, e.g. `0x1234…` for `ByStr20`.
    ByStr(Vec<u8>),
    /// A block number literal, e.g. `BNum 42`.
    BNum(u64),
    /// An empty map literal `Emp kt vt`.
    EmpMap(Type, Type),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(w, v) => write!(f, "Int{w} {v}"),
            Literal::Uint(w, v) => write!(f, "Uint{w} {v}"),
            Literal::Str(s) => write!(f, "{s:?}"),
            Literal::ByStr(bs) => {
                write!(f, "0x")?;
                for b in bs {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            Literal::BNum(n) => write!(f, "BNum {n}"),
            Literal::EmpMap(k, v) => write!(f, "Emp {k} {v}"),
        }
    }
}

/// Patterns for `match` (paper Fig. 4: `pat ::= _ | i | constr c pat*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// Wildcard `_`.
    Wildcard(Span),
    /// A binder that captures the scrutinee (or sub-value).
    Binder(Ident),
    /// A constructor pattern with sub-patterns, e.g. `Some v` or `Cons h t`.
    Constructor(Ident, Vec<Pattern>),
}

impl Pattern {
    /// All binders introduced by this pattern, in left-to-right order.
    pub fn binders(&self) -> Vec<&Ident> {
        match self {
            Pattern::Wildcard(_) => Vec::new(),
            Pattern::Binder(i) => vec![i],
            Pattern::Constructor(_, ps) => ps.iter().flat_map(|p| p.binders()).collect(),
        }
    }

    /// The source location of the pattern.
    pub fn span(&self) -> Span {
        match self {
            Pattern::Wildcard(s) => *s,
            Pattern::Binder(i) => i.span,
            Pattern::Constructor(c, _) => c.span,
        }
    }
}

/// One entry of a message literal: either a payload field or one of the
/// protocol-interpreted fields (`_tag`, `_recipient`, `_amount`, `_eventname`,
/// `_exception`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgEntry {
    /// Entry name, including any leading underscore. Interned by the
    /// parser, like [`Ident::sym`], so building a message interns nothing.
    pub key: Sym,
    /// Entry payload.
    pub value: MsgValue,
}

/// A message entry payload: an identifier or a literal (ANF keeps these flat).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgValue {
    /// Reference to a local binding or parameter.
    Var(Ident),
    /// An inline literal (commonly a string tag).
    Lit(Literal),
}

/// Expressions (paper Fig. 4). The pure fragment of the language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal: `val v`.
    Lit(Literal, Span),
    /// A variable occurrence: `var i`.
    Var(Ident),
    /// A message construction: `{_tag : "Foo"; _recipient : to; …}`.
    Message(Vec<MsgEntry>, Span),
    /// A saturated constructor application: `constr c {targs} args`.
    Constr {
        /// Constructor name, e.g. `Some`, `Cons`, `True`.
        name: Ident,
        /// Explicit type arguments, e.g. `Some {Uint128} x`.
        type_args: Vec<Type>,
        /// Constructor arguments (identifiers, by ANF).
        args: Vec<Ident>,
    },
    /// A builtin application: `builtin add x y`.
    Builtin {
        /// Builtin operation name.
        op: Ident,
        /// Arguments (identifiers, by ANF).
        args: Vec<Ident>,
    },
    /// `let i = e1 in e2`, with an optional type annotation on `i`.
    Let {
        /// The bound identifier.
        bound: Ident,
        /// Optional annotation.
        ann: Option<Type>,
        /// Bound expression.
        rhs: Box<Expr>,
        /// Body.
        body: Box<Expr>,
    },
    /// A function literal: `fun (i : t) => e`. `Arc`-shared so a closure
    /// points at the literal instead of copying it.
    Fun(Arc<FunLit>),
    /// An application `app f a1 … an` (all identifiers, by ANF).
    App {
        /// The function being applied.
        func: Ident,
        /// Arguments.
        args: Vec<Ident>,
    },
    /// `match i with | pat => e … end`.
    Match {
        /// Scrutinee identifier.
        scrutinee: Ident,
        /// Clauses in order.
        clauses: Vec<(Pattern, Expr)>,
        /// Source location of the whole match.
        span: Span,
    },
    /// A type abstraction `tfun 'A => e`, `Arc`-shared like [`Expr::Fun`].
    TFun(Arc<TFunLit>),
    /// A type instantiation `@i T1 … Tn`.
    Inst {
        /// The polymorphic identifier being instantiated.
        target: Ident,
        /// Type arguments.
        type_args: Vec<Type>,
    },
}

/// The literal of a function `fun (param : param_type) => body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunLit {
    /// Formal parameter.
    pub param: Ident,
    /// Parameter type.
    pub param_type: Type,
    /// Body.
    pub body: Expr,
}

/// The literal of a type abstraction `tfun 'tvar => body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TFunLit {
    /// The bound type variable (without the quote).
    pub tvar: String,
    /// Body.
    pub body: Expr,
    /// Location.
    pub span: Span,
}

impl Expr {
    /// The source location of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Lit(_, s) | Expr::Message(_, s) => *s,
            Expr::Var(i) => i.span,
            Expr::Constr { name, .. } => name.span,
            Expr::Builtin { op, .. } => op.span,
            Expr::Let { bound, .. } => bound.span,
            Expr::Fun(f) => f.param.span,
            Expr::App { func, .. } => func.span,
            Expr::Match { span, .. } => *span,
            Expr::TFun(t) => t.span,
            Expr::Inst { target, .. } => target.span,
        }
    }
}

/// Statements (paper Fig. 4). The effectful fragment, only legal inside
/// transitions and procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `x <- f` — load a whole contract field into a local.
    Load { lhs: Ident, field: Ident },
    /// `f := x` — store a local into a whole contract field.
    Store { field: Ident, rhs: Ident },
    /// `x = e` — bind a pure expression.
    Bind { lhs: Ident, rhs: Expr },
    /// `m[k1]…[kn] := x` — update one (possibly nested) map entry.
    MapUpdate { map: Ident, keys: Vec<Ident>, rhs: Ident },
    /// `x <- m[k1]…[kn]` — fetch one map entry; `x : Option V`.
    MapGet { lhs: Ident, map: Ident, keys: Vec<Ident> },
    /// `x <- exists m[k1]…[kn]` — membership test; `x : Bool`.
    MapExists { lhs: Ident, map: Ident, keys: Vec<Ident> },
    /// `delete m[k1]…[kn]` — remove one map entry.
    MapDelete { map: Ident, keys: Vec<Ident> },
    /// `x <- &B` — read a blockchain value (e.g. `BLOCKNUMBER`).
    ReadBlockchain { lhs: Ident, query: Ident },
    /// `match i with | pat => s… end` over statements.
    Match { scrutinee: Ident, clauses: Vec<(Pattern, Vec<Stmt>)>, span: Span },
    /// `accept` — accept the incoming native-token amount.
    Accept(Span),
    /// `send msgs` — emit outgoing messages (a `List Message` or single message).
    Send { msgs: Ident },
    /// `event e` — emit an event message.
    Event { event: Ident },
    /// `throw` — abort the transaction, optionally with an exception value.
    Throw { exception: Option<Ident>, span: Span },
}

impl Stmt {
    /// The source location of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Load { lhs, .. }
            | Stmt::MapGet { lhs, .. }
            | Stmt::MapExists { lhs, .. }
            | Stmt::ReadBlockchain { lhs, .. }
            | Stmt::Bind { lhs, .. } => lhs.span,
            Stmt::Store { field, .. } => field.span,
            Stmt::MapUpdate { map, .. } | Stmt::MapDelete { map, .. } => map.span,
            Stmt::Match { span, .. } => *span,
            Stmt::Accept(s) => *s,
            Stmt::Send { msgs } => msgs.span,
            Stmt::Event { event } => event.span,
            Stmt::Throw { span, .. } => *span,
        }
    }
}

/// A formal parameter `(name : type)` of a transition or contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Ident,
    /// Declared type.
    pub ty: Type,
}

/// A mutable contract field declaration with its initialiser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: Ident,
    /// Declared type.
    pub ty: Type,
    /// Initialiser expression (pure).
    pub init: Expr,
}

/// A transition: the unit of contract invocation (paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Transition name.
    pub name: Ident,
    /// Explicit formal parameters (implicit `_sender`/`_amount` are added by
    /// the interpreter's environment, not listed here).
    pub params: Vec<Param>,
    /// The body.
    pub body: Vec<Stmt>,
}

/// One constructor of a user-defined algebraic data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtorDef {
    /// Constructor name.
    pub name: Ident,
    /// Argument types.
    pub arg_types: Vec<Type>,
}

/// A library entry: a pure value/function definition or an ADT declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibEntry {
    /// `let x = e` at library scope.
    Let {
        /// The defined name.
        name: Ident,
        /// Optional annotation.
        ann: Option<Type>,
        /// The definition body (pure).
        body: Expr,
    },
    /// `type T = | C1 of t… | C2 …` — a monomorphic user ADT.
    TypeDef {
        /// Type name.
        name: Ident,
        /// Constructors.
        ctors: Vec<CtorDef>,
    },
}

/// A parsed contract module: optional library plus the contract proper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractModule {
    /// Library name, if a `library` section is present.
    pub library_name: Option<Ident>,
    /// Library entries in declaration order.
    pub library: Vec<LibEntry>,
    /// The contract definition.
    pub contract: Contract,
}

/// The contract definition: immutable parameters, fields, and transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// Contract name.
    pub name: Ident,
    /// Immutable deployment parameters.
    pub params: Vec<Param>,
    /// Mutable fields.
    pub fields: Vec<FieldDef>,
    /// Transitions in declaration order.
    pub transitions: Vec<Transition>,
}

impl Contract {
    /// Looks up a transition by name.
    pub fn transition(&self, name: &str) -> Option<&Transition> {
        self.transitions.iter().find(|t| t.name.name == name)
    }

    /// Looks up a field definition by name.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_binders_are_in_order() {
        let p = Pattern::Constructor(
            Ident::new("Pair"),
            vec![
                Pattern::Binder(Ident::new("a")),
                Pattern::Wildcard(Span::dummy()),
                Pattern::Constructor(Ident::new("Some"), vec![Pattern::Binder(Ident::new("b"))]),
            ],
        );
        let names: Vec<_> = p.binders().iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn literal_display_roundtrips_shape() {
        assert_eq!(Literal::Uint(128, 7).to_string(), "Uint128 7");
        assert_eq!(Literal::ByStr(vec![0xab, 0x01]).to_string(), "0xab01");
        assert_eq!(Literal::BNum(9).to_string(), "BNum 9");
    }

    #[test]
    fn contract_lookup_by_name() {
        let c = Contract {
            name: Ident::new("C"),
            params: vec![],
            fields: vec![],
            transitions: vec![Transition {
                name: Ident::new("T"),
                params: vec![],
                body: vec![],
            }],
        };
        assert!(c.transition("T").is_some());
        assert!(c.transition("U").is_none());
    }
}
