//! Transition compilation: one-time lowering of transition ASTs into compact
//! pre-resolved instruction sequences.
//!
//! The definitional interpreter ([`crate::interpreter`]) re-resolves every
//! name against a cons-list environment and re-allocates an environment node
//! per binding, per call. This module removes that per-call work by doing the
//! resolution **once**: each transition lowers to a [`CompiledTransition`]
//! whose locals are frame *slots* (plain vector indices), whose library
//! references are pre-looked-up constants, whose builtins are pre-bound
//! function pointers ([`crate::builtins::bind_builtin`]), and whose field
//! names are pre-interned [`Sym`]s driving the `*_sym` fast path of
//! [`crate::state::StateStore`].
//!
//! Semantics are bit-identical to the AST walker, by construction:
//!
//! * `CStmt`/`CExpr` mirror [`Stmt`]/[`Expr`] one-to-one, with every gas
//!   charge at the same point in the same order (`COST_STMT` per statement,
//!   `COST_EXPR` per expression node, the per-op extras where the walker
//!   charges them);
//! * tracer hooks fire at the same points with the same payloads, so audited
//!   (traced) execution works compiled too;
//! * anything the compiler cannot resolve statically — an unbound name, an
//!   unknown builtin — makes the *whole transition* fall back to the AST
//!   walker ([`TransitionCode::Ast`]), never to divergent behaviour.
//!
//! Closures are the one deliberate seam: `fun`/`tfun` literals capture their
//! free variables into a real [`Env`] and application re-enters the AST
//! evaluator, so higher-order library code behaves exactly as before (and
//! bodies are `Arc`-shared instead of deep-cloned per closure creation).
//!
//! The differential property tests in `tests/compile_props.rs` check the
//! equivalence on random contracts.

use crate::ast::*;
use crate::builtins::{bind_builtin, empty_map, BuiltinFn};
use crate::error::ExecError;
use crate::gas::{self, GasMeter};
use crate::intern::Sym;
use crate::interpreter::{
    apply, eval_expr_inner, flatten_messages, parse_out_msg, TransitionContext, TransitionOutcome,
};
use crate::span::Span;
use crate::state::StateStore;
use crate::trace::EffectTracer;
use crate::types::Type;
use crate::value::{Closure, Env, TypeClosure, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The lowered form of one transition: compiled code, or a marker that this
/// transition must run on the AST walker.
#[derive(Debug)]
pub enum TransitionCode {
    /// Fully pre-resolved; executed by [`run_compiled`](crate::compile).
    Compiled(CompiledTransition),
    /// Some name could not be resolved statically; the interpreter's AST
    /// walker (the differential reference) runs this transition instead.
    Ast,
}

/// A value source: a local frame slot or a compile-time constant (library
/// definitions, pre-evaluated once per contract).
#[derive(Debug, Clone)]
pub(crate) enum Operand {
    /// Read the slot written by an earlier statement/binder.
    Slot(u32),
    /// A pre-resolved library value (clone is an `Arc` bump for all
    /// structured values).
    Const(Value),
}

/// A message entry payload, pre-resolved.
#[derive(Debug, Clone)]
pub(crate) enum CMsgValue {
    Var(Operand),
    Lit(Value),
}

/// Compiled pattern: binders write straight into frame slots.
#[derive(Debug, Clone)]
pub(crate) enum CPattern {
    Wildcard,
    Binder(u32),
    Constructor(Sym, Vec<CPattern>),
}

/// Compiled expression — mirrors [`Expr`] node-for-node so gas parity is
/// structural, not incidental.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    /// A pre-converted literal (cloned per evaluation, like the walker).
    Lit(Value),
    /// `Emp kt vt` — allocates a fresh empty map per evaluation so value
    /// sharing (and CoW-break telemetry) matches the walker exactly.
    Emp,
    Var(Operand),
    Message(Vec<(Sym, CMsgValue)>),
    Constr { ctor: Sym, args: Vec<Operand> },
    Builtin { op: Sym, f: BuiltinFn, cost: u64, args: Vec<Operand> },
    Let { dst: u32, rhs: Box<CExpr>, body: Box<CExpr> },
    Fun { param: Ident, param_type: Type, body: Arc<Expr>, captures: Vec<(Sym, Operand)> },
    App { func: Operand, args: Vec<Operand> },
    Match { scrutinee: Operand, clauses: Vec<(CPattern, CExpr)> },
    TFun { tvar: String, body: Arc<Expr>, captures: Vec<(Sym, Operand)> },
    Inst { target: Operand, count: usize },
}

/// Compiled statement — mirrors [`Stmt`] one-to-one. Spans are kept for the
/// tracer hooks so audited footprints are identical.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Load { dst: u32, field: Sym, span: Span },
    Store { field: Sym, rhs: Operand, span: Span },
    Bind { dst: u32, rhs: CExpr },
    MapUpdate { map: Sym, keys: Vec<Operand>, rhs: Operand, span: Span },
    MapGet { dst: u32, map: Sym, keys: Vec<Operand>, span: Span },
    MapExists { dst: u32, map: Sym, keys: Vec<Operand>, span: Span },
    MapDelete { map: Sym, keys: Vec<Operand>, span: Span },
    ReadBlockchain { dst: u32 },
    Match { scrutinee: Operand, clauses: Vec<(CPattern, Vec<CStmt>)>, span: Span },
    Accept,
    Send { msgs: Operand, span: Span },
    Event { event: Operand },
    Throw { exception: Option<Operand> },
}

/// One transition, lowered: a flat local frame plus pre-resolved code.
#[derive(Debug)]
pub struct CompiledTransition {
    name: Sym,
    /// Number of local slots (contract params, implicit context, transition
    /// params, and every binder anywhere in the body).
    frame_size: usize,
    /// Declared contract parameters, in declaration order.
    contract_params: Vec<(Sym, u32)>,
    /// Slots of `_sender`, `_origin`, `_amount`, `_this_address`.
    ctx_slots: [u32; 4],
    /// Declared transition parameters, in declaration order.
    params: Vec<(Sym, u32)>,
    body: Vec<CStmt>,
}

// ------------------------------------------------------------------ compile

/// Lexical compile-time scope: a stack of (name, slot) with innermost-last,
/// mirroring the walker's cons-list environment shadowing exactly.
struct Scope<'c> {
    lib_env: &'c Env,
    stack: Vec<(Sym, u32)>,
    frame_size: usize,
}

impl Scope<'_> {
    fn bind(&mut self, sym: Sym) -> u32 {
        let slot = self.frame_size as u32;
        self.frame_size += 1;
        self.stack.push((sym, slot));
        slot
    }

    fn mark(&self) -> usize {
        self.stack.len()
    }

    fn pop_to(&mut self, mark: usize) {
        self.stack.truncate(mark);
    }

    /// Innermost local binding, else a library constant, else unresolvable
    /// (which falls the transition back to the AST walker).
    fn resolve(&self, sym: Sym) -> Result<Operand, Sym> {
        if let Some((_, slot)) = self.stack.iter().rev().find(|(s, _)| *s == sym) {
            return Ok(Operand::Slot(*slot));
        }
        match self.lib_env.lookup_sym(sym) {
            Some(v) => Ok(Operand::Const(v.clone())),
            None => Err(sym),
        }
    }

    fn ident(&self, id: &Ident) -> Result<Operand, Sym> {
        self.resolve(id.sym)
    }
}

/// Lowers one transition. Any statically unresolvable name yields
/// [`TransitionCode::Ast`] — the walker remains the behaviour of record for
/// code the compiler cannot prove it understands.
pub fn compile_transition(contract: &Contract, lib_env: &Env, t: &Transition) -> TransitionCode {
    let mut scope = Scope { lib_env, stack: Vec::new(), frame_size: 0 };
    let contract_params: Vec<(Sym, u32)> =
        contract.params.iter().map(|p| (p.name.sym, scope.bind(p.name.sym))).collect();
    let ctx_slots = [
        scope.bind(Sym::SENDER),
        scope.bind(Sym::ORIGIN),
        scope.bind(Sym::AMOUNT),
        scope.bind(Sym::THIS_ADDRESS),
    ];
    let params: Vec<(Sym, u32)> =
        t.params.iter().map(|p| (p.name.sym, scope.bind(p.name.sym))).collect();
    match compile_stmts(&mut scope, &t.body) {
        Ok(body) => {
            if telemetry::enabled() {
                telemetry::counter!("scilla.compile.transitions").inc();
            }
            TransitionCode::Compiled(CompiledTransition {
                name: t.name.sym,
                frame_size: scope.frame_size,
                contract_params,
                ctx_slots,
                params,
                body,
            })
        }
        Err(_unresolved) => {
            if telemetry::enabled() {
                telemetry::counter!("scilla.compile.fallbacks").inc();
            }
            TransitionCode::Ast
        }
    }
}

fn compile_stmts(scope: &mut Scope, stmts: &[Stmt]) -> Result<Vec<CStmt>, Sym> {
    stmts.iter().map(|s| compile_stmt(scope, s)).collect()
}

fn compile_stmt(scope: &mut Scope, s: &Stmt) -> Result<CStmt, Sym> {
    Ok(match s {
        Stmt::Load { lhs, field } => {
            let (field, span) = (field.sym, s.span());
            CStmt::Load { dst: scope.bind(lhs.sym), field, span }
        }
        Stmt::Store { field, rhs } => {
            CStmt::Store { field: field.sym, rhs: scope.ident(rhs)?, span: s.span() }
        }
        Stmt::Bind { lhs, rhs } => {
            let rhs = compile_expr(scope, rhs)?;
            CStmt::Bind { dst: scope.bind(lhs.sym), rhs }
        }
        Stmt::MapUpdate { map, keys, rhs } => CStmt::MapUpdate {
            map: map.sym,
            keys: compile_idents(scope, keys)?,
            rhs: scope.ident(rhs)?,
            span: s.span(),
        },
        Stmt::MapGet { lhs, map, keys } => {
            let keys = compile_idents(scope, keys)?;
            CStmt::MapGet { dst: scope.bind(lhs.sym), map: map.sym, keys, span: s.span() }
        }
        Stmt::MapExists { lhs, map, keys } => {
            let keys = compile_idents(scope, keys)?;
            CStmt::MapExists { dst: scope.bind(lhs.sym), map: map.sym, keys, span: s.span() }
        }
        Stmt::MapDelete { map, keys } => CStmt::MapDelete {
            map: map.sym,
            keys: compile_idents(scope, keys)?,
            span: s.span(),
        },
        Stmt::ReadBlockchain { lhs, .. } => CStmt::ReadBlockchain { dst: scope.bind(lhs.sym) },
        Stmt::Match { scrutinee, clauses, span } => {
            let scrutinee = scope.ident(scrutinee)?;
            let mut cc = Vec::with_capacity(clauses.len());
            for (pat, body) in clauses {
                let mark = scope.mark();
                let cpat = compile_pattern(scope, pat);
                let cbody = compile_stmts(scope, body);
                scope.pop_to(mark);
                cc.push((cpat, cbody?));
            }
            CStmt::Match { scrutinee, clauses: cc, span: *span }
        }
        Stmt::Accept(_) => CStmt::Accept,
        Stmt::Send { msgs } => CStmt::Send { msgs: scope.ident(msgs)?, span: s.span() },
        Stmt::Event { event } => CStmt::Event { event: scope.ident(event)? },
        Stmt::Throw { exception, .. } => {
            CStmt::Throw { exception: exception.as_ref().map(|e| scope.ident(e)).transpose()? }
        }
    })
}

fn compile_idents(scope: &Scope, ids: &[Ident]) -> Result<Vec<Operand>, Sym> {
    ids.iter().map(|i| scope.ident(i)).collect()
}

fn compile_pattern(scope: &mut Scope, pat: &Pattern) -> CPattern {
    match pat {
        Pattern::Wildcard(_) => CPattern::Wildcard,
        Pattern::Binder(i) => CPattern::Binder(scope.bind(i.sym)),
        Pattern::Constructor(c, subs) => {
            CPattern::Constructor(c.sym, subs.iter().map(|p| compile_pattern(scope, p)).collect())
        }
    }
}

fn compile_expr(scope: &mut Scope, e: &Expr) -> Result<CExpr, Sym> {
    Ok(match e {
        Expr::Lit(Literal::EmpMap(..), _) => CExpr::Emp,
        Expr::Lit(l, _) => CExpr::Lit(literal_value(l)),
        Expr::Var(i) => CExpr::Var(scope.ident(i)?),
        Expr::Message(entries, _) => {
            let mut out = Vec::with_capacity(entries.len());
            for en in entries {
                let v = match &en.value {
                    MsgValue::Var(i) => CMsgValue::Var(scope.ident(i)?),
                    MsgValue::Lit(l) => CMsgValue::Lit(literal_value(l)),
                };
                out.push((crate::intern::intern(&en.key), v));
            }
            CExpr::Message(out)
        }
        Expr::Constr { name, args, .. } => {
            CExpr::Constr { ctor: name.sym, args: compile_idents(scope, args)? }
        }
        Expr::Builtin { op, args } => {
            let f = bind_builtin(&op.name).ok_or(op.sym)?;
            let cost = if op.name.ends_with("hash") { gas::COST_HASH } else { gas::COST_BUILTIN };
            CExpr::Builtin { op: op.sym, f, cost, args: compile_idents(scope, args)? }
        }
        Expr::Let { bound, rhs, body, .. } => {
            let rhs = compile_expr(scope, rhs)?;
            let mark = scope.mark();
            let dst = scope.bind(bound.sym);
            let body = compile_expr(scope, body);
            scope.pop_to(mark);
            CExpr::Let { dst, rhs: Box::new(rhs), body: Box::new(body?) }
        }
        Expr::Fun { param, param_type, body } => CExpr::Fun {
            param: param.clone(),
            param_type: param_type.clone(),
            body: Arc::new((**body).clone()),
            captures: captures_of(scope, e)?,
        },
        Expr::App { func, args } => {
            CExpr::App { func: scope.ident(func)?, args: compile_idents(scope, args)? }
        }
        Expr::Match { scrutinee, clauses, .. } => {
            let scrutinee = scope.ident(scrutinee)?;
            let mut cc = Vec::with_capacity(clauses.len());
            for (pat, body) in clauses {
                let mark = scope.mark();
                let cpat = compile_pattern(scope, pat);
                let cbody = compile_expr(scope, body);
                scope.pop_to(mark);
                cc.push((cpat, cbody?));
            }
            CExpr::Match { scrutinee, clauses: cc }
        }
        Expr::TFun { tvar, body, .. } => CExpr::TFun {
            tvar: tvar.clone(),
            body: Arc::new((**body).clone()),
            captures: captures_of(scope, e)?,
        },
        Expr::Inst { target, type_args } => {
            CExpr::Inst { target: scope.ident(target)?, count: type_args.len() }
        }
    })
}

/// The capture list for a closure literal: every free variable of the whole
/// `fun`/`tfun` expression, resolved in the current scope. Re-binding only
/// the free variables (rather than snapshotting the entire environment) is
/// observationally identical — the body can mention nothing else — and keeps
/// closure creation O(free vars).
fn captures_of(scope: &Scope, e: &Expr) -> Result<Vec<(Sym, Operand)>, Sym> {
    let mut bound = Vec::new();
    let mut free = Vec::new();
    free_vars(e, &mut bound, &mut free);
    free.into_iter().map(|sym| Ok((sym, scope.resolve(sym)?))).collect()
}

fn free_vars(e: &Expr, bound: &mut Vec<Sym>, out: &mut Vec<Sym>) {
    fn var(sym: Sym, bound: &[Sym], out: &mut Vec<Sym>) {
        if !bound.contains(&sym) && !out.contains(&sym) {
            out.push(sym);
        }
    }
    match e {
        Expr::Lit(..) => {}
        Expr::Var(i) => var(i.sym, bound, out),
        Expr::Message(entries, _) => {
            for en in entries {
                if let MsgValue::Var(i) = &en.value {
                    var(i.sym, bound, out);
                }
            }
        }
        Expr::Constr { args, .. } | Expr::Builtin { args, .. } => {
            for a in args {
                var(a.sym, bound, out);
            }
        }
        Expr::Let { bound: b, rhs, body, .. } => {
            free_vars(rhs, bound, out);
            bound.push(b.sym);
            free_vars(body, bound, out);
            bound.pop();
        }
        Expr::Fun { param, body, .. } => {
            bound.push(param.sym);
            free_vars(body, bound, out);
            bound.pop();
        }
        Expr::App { func, args } => {
            var(func.sym, bound, out);
            for a in args {
                var(a.sym, bound, out);
            }
        }
        Expr::Match { scrutinee, clauses, .. } => {
            var(scrutinee.sym, bound, out);
            for (pat, body) in clauses {
                let mark = bound.len();
                bound.extend(pat.binders().iter().map(|i| i.sym));
                free_vars(body, bound, out);
                bound.truncate(mark);
            }
        }
        Expr::TFun { body, .. } => free_vars(body, bound, out),
        Expr::Inst { target, .. } => var(target.sym, bound, out),
    }
}

fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(w, v) => Value::Int(*w, *v),
        Literal::Uint(w, v) => Value::Uint(*w, *v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::ByStr(bs) => Value::ByStr(bs.clone()),
        Literal::BNum(n) => Value::BNum(*n),
        Literal::EmpMap(..) => empty_map(),
    }
}

// ---------------------------------------------------------------- execution

/// Executes a compiled transition. Entered from
/// [`crate::interpreter::CompiledContract`] after the transition lookup and
/// `COST_TX_BASE` charge, mirroring the walker from that point on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_compiled(
    ct: &CompiledTransition,
    store: &mut dyn StateStore,
    args: &[(String, Value)],
    contract_params: &[(String, Value)],
    ctx: &TransitionContext,
    gas: &mut GasMeter,
    tracer: Option<&mut EffectTracer>,
) -> Result<TransitionOutcome, ExecError> {
    if telemetry::enabled() {
        telemetry::counter!("scilla.compile.runs").inc();
    }
    // Frames are taken from (not borrowed out of) a per-thread pool so a
    // re-entrant dispatch — a contract message fanning back into
    // `run_compiled` — simply allocates a fresh one instead of aliasing.
    let mut frame: Vec<Option<Value>> = FRAME_POOL.with(|p| std::mem::take(&mut *p.borrow_mut()));
    frame.clear();
    frame.resize(ct.frame_size, None);
    for (sym, slot) in &ct.contract_params {
        let want = sym.as_str();
        let v = contract_params
            .iter()
            .find(|(n, _)| n.as_str() == want)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| {
                ExecError::BadInvocation(format!("missing contract parameter '{sym}'"))
            })?;
        frame[*slot as usize] = Some(v);
    }
    let [s_sender, s_origin, s_amount, s_this] = ct.ctx_slots;
    frame[s_sender as usize] = Some(Value::address(ctx.sender));
    frame[s_origin as usize] = Some(Value::address(ctx.origin));
    frame[s_amount as usize] = Some(Value::Uint(128, ctx.amount));
    frame[s_this as usize] = Some(Value::address(ctx.this_address));
    for (sym, slot) in &ct.params {
        let want = sym.as_str();
        let v = args
            .iter()
            .find(|(n, _)| n.as_str() == want)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| {
                ExecError::BadInvocation(format!(
                    "missing argument '{sym}' for transition '{}'",
                    ct.name
                ))
            })?;
        frame[*slot as usize] = Some(v);
    }
    let mut run = CRun { store, ctx, outcome: TransitionOutcome::default(), tracer };
    let res = run.run_stmts(&mut frame, &ct.body, gas);
    // Hand the (cleared) frame back for the next call on this thread; on
    // the error path the values are dropped with the frame as before.
    frame.clear();
    FRAME_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.capacity() < frame.capacity() {
            *pool = std::mem::take(&mut frame);
        }
    });
    res?;
    let mut outcome = run.outcome;
    outcome.gas_used = gas.used();
    Ok(outcome)
}

thread_local! {
    /// Scratch slot-frame reused by [`run_compiled`] to avoid a
    /// malloc/free per transition call.
    static FRAME_POOL: std::cell::RefCell<Vec<Option<Value>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

struct CRun<'a> {
    store: &'a mut dyn StateStore,
    ctx: &'a TransitionContext,
    outcome: TransitionOutcome,
    tracer: Option<&'a mut EffectTracer>,
}

fn fetch(frame: &[Option<Value>], op: &Operand) -> Result<Value, ExecError> {
    match op {
        Operand::Slot(i) => frame[*i as usize]
            .clone()
            .ok_or_else(|| ExecError::Internal("read of unwritten slot (compiler bug)".into())),
        Operand::Const(v) => Ok(v.clone()),
    }
}

fn fetch_all(frame: &[Option<Value>], ops: &[Operand]) -> Result<Vec<Value>, ExecError> {
    ops.iter().map(|op| fetch(frame, op)).collect()
}

/// Pattern match writing binders straight into the frame. Binder slots are
/// unique per clause, so a partial match that fails midway leaves only dead
/// slots behind (nothing in scope can read them).
fn match_into(pat: &CPattern, v: &Value, frame: &mut [Option<Value>]) -> bool {
    match pat {
        CPattern::Wildcard => true,
        CPattern::Binder(slot) => {
            frame[*slot as usize] = Some(v.clone());
            true
        }
        CPattern::Constructor(c, subs) => match v {
            Value::Adt { ctor, args } if ctor == c && args.len() == subs.len() => {
                subs.iter().zip(args).all(|(p, a)| match_into(p, a, frame))
            }
            _ => false,
        },
    }
}

impl CRun<'_> {
    fn run_stmts(
        &mut self,
        frame: &mut Vec<Option<Value>>,
        stmts: &[CStmt],
        gas: &mut GasMeter,
    ) -> Result<(), ExecError> {
        for s in stmts {
            self.run_stmt(frame, s, gas)?;
        }
        Ok(())
    }

    fn run_stmt(
        &mut self,
        frame: &mut Vec<Option<Value>>,
        s: &CStmt,
        gas: &mut GasMeter,
    ) -> Result<(), ExecError> {
        gas.charge(gas::COST_STMT)?;
        match s {
            CStmt::Load { dst, field, span } => {
                gas.charge(gas::COST_FIELD)?;
                let v = self.store.load(*field).ok_or_else(|| {
                    ExecError::Internal(format!("field '{field}' missing from state"))
                })?;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(field.as_str(), Vec::new(), *span);
                }
                frame[*dst as usize] = Some(v);
            }
            CStmt::Store { field, rhs, span } => {
                gas.charge(gas::COST_FIELD)?;
                let v = fetch(frame, rhs)?;
                match self.tracer.as_deref_mut() {
                    Some(t) => {
                        let prior = self.store.load(*field);
                        self.store.store(*field, v.clone());
                        t.record_write(field.as_str(), Vec::new(), prior, Some(v), *span);
                    }
                    None => self.store.store(*field, v),
                }
            }
            CStmt::Bind { dst, rhs } => {
                let v = self.eval(frame, rhs, gas)?;
                frame[*dst as usize] = Some(v);
            }
            CStmt::MapUpdate { map, keys, rhs, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = fetch_all(frame, keys)?;
                let v = fetch(frame, rhs)?;
                match self.tracer.as_deref_mut() {
                    Some(t) => {
                        let prior = self.store.map_get(*map, &ks);
                        self.store.map_update(*map, &ks, v.clone());
                        t.record_write(map.as_str(), ks, prior, Some(v), *span);
                    }
                    None => self.store.map_update(*map, &ks, v),
                }
            }
            CStmt::MapGet { dst, map, keys, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = fetch_all(frame, keys)?;
                let v = match self.store.map_get(*map, &ks) {
                    Some(v) => Value::some(v),
                    None => Value::none(),
                };
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(map.as_str(), ks, *span);
                }
                frame[*dst as usize] = Some(v);
            }
            CStmt::MapExists { dst, map, keys, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = fetch_all(frame, keys)?;
                let b = self.store.map_exists(*map, &ks);
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(map.as_str(), ks, *span);
                }
                frame[*dst as usize] = Some(Value::bool(b));
            }
            CStmt::MapDelete { map, keys, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = fetch_all(frame, keys)?;
                match self.tracer.as_deref_mut() {
                    Some(t) => {
                        let prior = self.store.map_get(*map, &ks);
                        self.store.map_delete(*map, &ks);
                        t.record_write(map.as_str(), ks, prior, None, *span);
                    }
                    None => self.store.map_delete(*map, &ks),
                }
            }
            CStmt::ReadBlockchain { dst } => {
                gas.charge(gas::COST_FIELD)?;
                frame[*dst as usize] = Some(Value::BNum(self.ctx.block_number));
            }
            CStmt::Match { scrutinee, clauses, span } => {
                let v = fetch(frame, scrutinee)?;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_cond(v.clone(), *span);
                }
                for (pat, body) in clauses {
                    if match_into(pat, &v, frame) {
                        return self.run_stmts(frame, body, gas);
                    }
                }
                return Err(ExecError::MatchFailure(format!("no clause matched {v}")));
            }
            CStmt::Accept => {
                self.outcome.accepted = true;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_accept();
                }
            }
            CStmt::Send { msgs, span } => {
                let v = fetch(frame, msgs)?;
                for m in flatten_messages(&v)? {
                    gas.charge(gas::COST_MESSAGE)?;
                    let om = parse_out_msg(&m)?;
                    if let Some(t) = self.tracer.as_deref_mut() {
                        t.record_send(om.recipient, om.amount, &om.tag, *span);
                    }
                    self.outcome.messages.push(om);
                }
            }
            CStmt::Event { event } => {
                gas.charge(gas::COST_MESSAGE)?;
                let v = fetch(frame, event)?;
                if !matches!(v, Value::Msg(_)) {
                    return Err(ExecError::Internal("event payload must be a message".into()));
                }
                self.outcome.events.push(v);
            }
            CStmt::Throw { exception } => {
                let detail = match exception {
                    Some(e) => fetch(frame, e)?.to_string(),
                    None => "unspecified".into(),
                };
                return Err(ExecError::Thrown(detail));
            }
        }
        Ok(())
    }

    fn eval(
        &mut self,
        frame: &mut Vec<Option<Value>>,
        e: &CExpr,
        gas: &mut GasMeter,
    ) -> Result<Value, ExecError> {
        gas.charge(gas::COST_EXPR)?;
        match e {
            CExpr::Lit(v) => Ok(v.clone()),
            CExpr::Emp => Ok(empty_map()),
            CExpr::Var(op) => fetch(frame, op),
            CExpr::Message(entries) => {
                let mut m = BTreeMap::new();
                for (k, mv) in entries {
                    let v = match mv {
                        CMsgValue::Var(op) => fetch(frame, op)?,
                        CMsgValue::Lit(v) => v.clone(),
                    };
                    m.insert(*k, v);
                }
                Ok(Value::Msg(m))
            }
            CExpr::Constr { ctor, args } => {
                Ok(Value::Adt { ctor: *ctor, args: fetch_all(frame, args)? })
            }
            CExpr::Builtin { op, f, cost, args } => {
                gas.charge(*cost)?;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_builtin(op.as_str());
                }
                let vals = fetch_all(frame, args)?;
                f(&vals)
            }
            CExpr::Let { dst, rhs, body } => {
                let v = self.eval(frame, rhs, gas)?;
                frame[*dst as usize] = Some(v);
                self.eval(frame, body, gas)
            }
            CExpr::Fun { param, param_type, body, captures } => {
                let env = self.capture_env(frame, captures)?;
                Ok(Value::Clo(Arc::new(Closure {
                    param: param.clone(),
                    param_type: param_type.clone(),
                    body: Arc::clone(body),
                    env,
                })))
            }
            CExpr::App { func, args } => {
                let mut f = fetch(frame, func)?;
                for a in args {
                    let arg = fetch(frame, a)?;
                    f = apply(f, arg, gas, self.tracer.as_deref_mut())?;
                }
                Ok(f)
            }
            CExpr::Match { scrutinee, clauses } => {
                let v = fetch(frame, scrutinee)?;
                for (pat, body) in clauses {
                    if match_into(pat, &v, frame) {
                        return self.eval(frame, body, gas);
                    }
                }
                Err(ExecError::MatchFailure(format!("no clause matched {v}")))
            }
            CExpr::TFun { tvar, body, captures } => {
                let env = self.capture_env(frame, captures)?;
                Ok(Value::TClo(Arc::new(TypeClosure {
                    tvar: tvar.clone(),
                    body: Arc::clone(body),
                    env,
                })))
            }
            CExpr::Inst { target, count } => {
                let mut v = fetch(frame, target)?;
                for _ in 0..*count {
                    match v {
                        Value::TClo(tc) => {
                            v = eval_expr_inner(&tc.env, &tc.body, gas, self.tracer.as_deref_mut())?
                        }
                        other => {
                            return Err(ExecError::Internal(format!(
                                "cannot type-instantiate non-tfun value {other}"
                            )))
                        }
                    }
                }
                Ok(v)
            }
        }
    }

    fn capture_env(
        &self,
        frame: &[Option<Value>],
        captures: &[(Sym, Operand)],
    ) -> Result<Env, ExecError> {
        let mut env = Env::new();
        for (sym, op) in captures {
            env = env.bind(*sym, fetch(frame, op)?);
        }
        Ok(env)
    }
}
