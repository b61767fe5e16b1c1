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
//! Library functions run compiled too. A *saturated* application of a
//! library closure (every curried argument supplied) lowers its `fun` body
//! into the caller's frame, once per transition however many call sites
//! share it: the parameters and the body's binders become fresh slots, and
//! the body's free names resolve through the closure's own captured
//! [`Env`] to constants, never to the caller's locals (a transition may
//! shadow a library name). The walker charges `COST_EXPR` for each
//! intermediate `fun` it evaluates to a closure on the way; the lowered call
//! charges the same. Library code is pure and cannot recurse (a `let` sees
//! only earlier definitions), so a lowered body is never active twice at
//! once and its slots need no stack.
//!
//! What stays on the walker is what is only known at run time: partial and
//! over-application, and closures made while the transition runs (`fun` and
//! `tfun` literals capture their free variables into a real [`Env`], and
//! applying one re-enters [`crate::interpreter`]).
//!
//! The differential property tests in `tests/compile_props.rs` check the
//! equivalence on random contracts.

use crate::ast::*;
use crate::builtins::{bind_builtin, empty_map, BuiltinFn};
use crate::error::ExecError;
use crate::gas::{self, GasMeter};
use crate::intern::Sym;
use crate::interpreter::{
    apply, eval_expr_inner, flatten_messages, literal_value, parse_out_msg, TransitionContext,
    TransitionOutcome,
};
use crate::span::Span;
use crate::state::StateStore;
use crate::trace::EffectTracer;
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
    Fun { lit: Arc<FunLit>, captures: Vec<(Sym, Operand)> },
    App { callee: Callee, args: Vec<Operand> },
    Match { scrutinee: Operand, clauses: Vec<(CPattern, CExpr)> },
    TFun { lit: Arc<TFunLit>, captures: Vec<(Sym, Operand)> },
    Inst { target: Operand, count: usize },
}

/// What an application applies.
#[derive(Debug, Clone)]
pub(crate) enum Callee {
    /// A library closure with exactly as many curried parameters as the
    /// call has arguments, lowered into the caller's frame.
    Lowered(Arc<CLambda>),
    /// Any other function value, applied by the walker one argument at a
    /// time.
    Walker(Operand),
}

/// A library closure's curried `fun` chain, lowered: one slot per
/// parameter, outermost first, and the innermost body.
#[derive(Debug)]
pub(crate) struct CLambda {
    params: Vec<u32>,
    body: CExpr,
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
    /// Declared contract parameters, in declaration order, each with its
    /// slot if the body (closure captures included) reads it. An unread
    /// parameter is checked for presence but never cloned into the frame.
    contract_params: Vec<(Sym, Option<u32>)>,
    /// Slots of `_sender`, `_origin`, `_amount`, `_this_address`.
    ctx_slots: [u32; 4],
    /// Declared transition parameters, in declaration order.
    params: Vec<(Sym, u32)>,
    body: Vec<CStmt>,
}

// ------------------------------------------------------------------ compile

/// Lexical compile-time scope: a stack of (name, slot) with innermost-last,
/// mirroring the walker's cons-list environment shadowing exactly, over the
/// environment that names the stack does not bind resolve in (the library,
/// or a lowered closure's captured environment).
struct Scope {
    env: Env,
    stack: Vec<(Sym, u32)>,
    frame_size: usize,
    /// Which of the first slots (the contract parameters) were resolved.
    params_read: Vec<bool>,
    /// The library closures lowered so far, each once per transition.
    lowered: Vec<(Arc<Closure>, Arc<CLambda>)>,
}

impl Scope {
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

    /// Innermost local binding, else a constant from the environment, else
    /// unresolvable (which falls the transition back to the AST walker).
    fn resolve(&mut self, sym: Sym) -> Result<Operand, Sym> {
        if let Some((_, slot)) = self.stack.iter().rev().find(|(s, _)| *s == sym) {
            if let Some(read) = self.params_read.get_mut(*slot as usize) {
                *read = true;
            }
            return Ok(Operand::Slot(*slot));
        }
        match self.env.lookup_sym(sym) {
            Some(v) => Ok(Operand::Const(v.clone())),
            None => Err(sym),
        }
    }

    fn ident(&mut self, id: &Ident) -> Result<Operand, Sym> {
        self.resolve(id.sym)
    }

    /// Lowers `clo`'s chain of `arity` curried `fun`s, or returns the body
    /// already lowered for this transition. The body compiles against a
    /// fresh stack over the closure's own environment, with new slots.
    fn lower(&mut self, clo: &Arc<Closure>, arity: usize) -> Result<Arc<CLambda>, Sym> {
        if let Some((_, lam)) = self.lowered.iter().find(|(c, _)| Arc::ptr_eq(c, clo)) {
            return Ok(Arc::clone(lam));
        }
        let env = std::mem::replace(&mut self.env, clo.env.clone());
        let stack = std::mem::take(&mut self.stack);
        let mut lit = &clo.lit;
        let mut params = Vec::with_capacity(arity);
        loop {
            params.push(self.bind(lit.param.sym));
            match &lit.body {
                Expr::Fun(inner) if params.len() < arity => lit = inner,
                _ => break,
            }
        }
        let body = compile_expr(self, &lit.body);
        self.env = env;
        self.stack = stack;
        let lam = Arc::new(CLambda { params, body: body? });
        self.lowered.push((Arc::clone(clo), Arc::clone(&lam)));
        Ok(lam)
    }
}

/// The number of curried parameters of a `fun` literal: its own, plus one
/// per `fun` its body is directly.
fn arity(lit: &FunLit) -> usize {
    match &lit.body {
        Expr::Fun(inner) => 1 + arity(inner),
        _ => 1,
    }
}

/// Lowers one transition. Any statically unresolvable name yields
/// [`TransitionCode::Ast`] — the walker remains the behaviour of record for
/// code the compiler cannot prove it understands.
pub fn compile_transition(contract: &Contract, lib_env: &Env, t: &Transition) -> TransitionCode {
    let mut scope = Scope {
        env: lib_env.clone(),
        stack: Vec::new(),
        frame_size: 0,
        params_read: vec![false; contract.params.len()],
        lowered: Vec::new(),
    };
    let param_slots: Vec<(Sym, u32)> =
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
            let contract_params = param_slots
                .into_iter()
                .map(|(sym, slot)| (sym, scope.params_read[slot as usize].then_some(slot)))
                .collect();
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

fn compile_idents(scope: &mut Scope, ids: &[Ident]) -> Result<Vec<Operand>, Sym> {
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
                out.push((en.key, v));
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
        Expr::Fun(lit) => CExpr::Fun { lit: Arc::clone(lit), captures: captures_of(scope, e)? },
        Expr::App { func, args } => {
            let callee = match scope.ident(func)? {
                Operand::Const(Value::Clo(clo)) if arity(&clo.lit) == args.len() => {
                    Callee::Lowered(scope.lower(&clo, args.len())?)
                }
                func => Callee::Walker(func),
            };
            CExpr::App { callee, args: compile_idents(scope, args)? }
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
        Expr::TFun(lit) => CExpr::TFun { lit: Arc::clone(lit), captures: captures_of(scope, e)? },
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
fn captures_of(scope: &mut Scope, e: &Expr) -> Result<Vec<(Sym, Operand)>, Sym> {
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
        Expr::Fun(f) => {
            bound.push(f.param.sym);
            free_vars(&f.body, bound, out);
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
        Expr::TFun(t) => free_vars(&t.body, bound, out),
        Expr::Inst { target, .. } => var(target.sym, bound, out),
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
    // The frame and the scratch buffer are taken from (not borrowed out of)
    // a per-thread pool so a re-entrant dispatch — a contract message
    // fanning back into `run_compiled` — simply allocates fresh ones
    // instead of aliasing.
    let Buffers { mut frame, scratch } = POOL.with(|p| std::mem::take(&mut *p.borrow_mut()));
    frame.clear();
    frame.resize(ct.frame_size, None);
    for (sym, slot) in &ct.contract_params {
        let want = sym.as_str();
        let (_, v) = contract_params.iter().find(|(n, _)| n.as_str() == want).ok_or_else(|| {
            ExecError::BadInvocation(format!("missing contract parameter '{sym}'"))
        })?;
        if let Some(slot) = slot {
            frame[*slot as usize] = Some(v.clone());
        }
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
    let mut run = CRun { store, ctx, outcome: TransitionOutcome::default(), tracer, scratch };
    let res = run.run_stmts(&mut frame, &ct.body, gas);
    // Hand the (cleared) buffers back for the next call on this thread; on
    // the error path the values are dropped with them as before.
    let mut scratch = run.scratch;
    frame.clear();
    scratch.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.frame.capacity() < frame.capacity() {
            pool.frame = frame;
        }
        if pool.scratch.capacity() < scratch.capacity() {
            pool.scratch = scratch;
        }
    });
    res?;
    let mut outcome = run.outcome;
    outcome.gas_used = gas.used();
    Ok(outcome)
}

/// The per-call buffers [`run_compiled`] reuses across calls on a thread.
#[derive(Default)]
struct Buffers {
    /// The slot frame.
    frame: Vec<Option<Value>>,
    /// Map keys and builtin arguments, gathered into one slice.
    scratch: Vec<Value>,
}

thread_local! {
    /// Buffers reused by [`run_compiled`] to avoid a malloc/free per
    /// transition call and per map access.
    static POOL: std::cell::RefCell<Buffers> =
        const { std::cell::RefCell::new(Buffers { frame: Vec::new(), scratch: Vec::new() }) };
}

struct CRun<'a> {
    store: &'a mut dyn StateStore,
    ctx: &'a TransitionContext,
    outcome: TransitionOutcome,
    tracer: Option<&'a mut EffectTracer>,
    scratch: Vec<Value>,
}

fn fetch_ref<'v>(frame: &'v [Option<Value>], op: &'v Operand) -> Result<&'v Value, ExecError> {
    match op {
        Operand::Slot(i) => frame[*i as usize]
            .as_ref()
            .ok_or_else(|| ExecError::Internal("read of unwritten slot (compiler bug)".into())),
        Operand::Const(v) => Ok(v),
    }
}

fn fetch(frame: &[Option<Value>], op: &Operand) -> Result<Value, ExecError> {
    fetch_ref(frame, op).cloned()
}

/// The values of `ops` as one slice: a lone operand is borrowed where it
/// lives, several are cloned into `scratch`.
fn fetch_slice<'v>(
    frame: &'v [Option<Value>],
    ops: &'v [Operand],
    scratch: &'v mut Vec<Value>,
) -> Result<&'v [Value], ExecError> {
    if let [op] = ops {
        return fetch_ref(frame, op).map(std::slice::from_ref);
    }
    scratch.clear();
    for op in ops {
        scratch.push(fetch(frame, op)?);
    }
    Ok(scratch)
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

/// The body of the first clause whose pattern matches the scrutinee, with
/// that clause's binders written into the frame; `seen` gets the scrutinee
/// first. A slot's scrutinee moves out for the match instead of being
/// cloned: binder slots are fresh, so none of them is the scrutinee's.
fn select<'c, T>(
    frame: &mut [Option<Value>],
    scrutinee: &Operand,
    clauses: &'c [(CPattern, T)],
    seen: impl FnOnce(&Value),
) -> Result<&'c T, ExecError> {
    let (v, slot) = match scrutinee {
        Operand::Slot(i) => (frame[*i as usize].take(), Some(*i as usize)),
        Operand::Const(v) => (Some(v.clone()), None),
    };
    let v = v.ok_or_else(|| ExecError::Internal("read of unwritten slot (compiler bug)".into()))?;
    seen(&v);
    let hit = clauses.iter().find(|(pat, _)| match_into(pat, &v, frame)).map(|(_, body)| body);
    let res = hit.ok_or_else(|| ExecError::MatchFailure(format!("no clause matched {v}")));
    if let Some(i) = slot {
        frame[i] = Some(v);
    }
    res
}

/// Writes one component (`None` removes it) and, when tracing, records
/// the write with the value it replaced.
fn write(
    store: &mut dyn StateStore,
    tracer: Option<&mut EffectTracer>,
    field: Sym,
    keys: &[Value],
    value: Option<Value>,
    span: Span,
) {
    match tracer {
        Some(t) => {
            let prior = store.get(field, keys);
            store.set(field, keys, value.clone());
            t.record_write(field.as_str(), keys.to_vec(), prior, value, span);
        }
        None => store.set(field, keys, value),
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
                let v = self.store.get(*field, &[]).ok_or_else(|| {
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
                write(self.store, self.tracer.as_deref_mut(), *field, &[], Some(v), *span);
            }
            CStmt::Bind { dst, rhs } => {
                let v = self.eval(frame, rhs, gas)?;
                frame[*dst as usize] = Some(v);
            }
            CStmt::MapUpdate { map, keys, rhs, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let v = fetch(frame, rhs)?;
                let ks = fetch_slice(frame, keys, &mut self.scratch)?;
                write(self.store, self.tracer.as_deref_mut(), *map, ks, Some(v), *span);
            }
            CStmt::MapGet { dst, map, keys, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = fetch_slice(frame, keys, &mut self.scratch)?;
                let v = match self.store.get(*map, ks) {
                    Some(v) => Value::some(v),
                    None => Value::none(),
                };
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(map.as_str(), ks.to_vec(), *span);
                }
                frame[*dst as usize] = Some(v);
            }
            CStmt::MapExists { dst, map, keys, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = fetch_slice(frame, keys, &mut self.scratch)?;
                let b = self.store.exists(*map, ks);
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(map.as_str(), ks.to_vec(), *span);
                }
                frame[*dst as usize] = Some(Value::bool(b));
            }
            CStmt::MapDelete { map, keys, span } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = fetch_slice(frame, keys, &mut self.scratch)?;
                write(self.store, self.tracer.as_deref_mut(), *map, ks, None, *span);
            }
            CStmt::ReadBlockchain { dst } => {
                gas.charge(gas::COST_FIELD)?;
                frame[*dst as usize] = Some(Value::BNum(self.ctx.block_number));
            }
            CStmt::Match { scrutinee, clauses, span } => {
                let tracer = self.tracer.as_deref_mut();
                let body = select(frame, scrutinee, clauses, |v| {
                    if let Some(t) = tracer {
                        t.record_cond(v.clone(), *span);
                    }
                })?;
                return self.run_stmts(frame, body, gas);
            }
            CStmt::Accept => {
                self.outcome.accepted = true;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_accept();
                }
            }
            CStmt::Send { msgs, span } => {
                for m in flatten_messages(fetch_ref(frame, msgs)?)? {
                    gas.charge(gas::COST_MESSAGE)?;
                    let om = parse_out_msg(m)?;
                    if let Some(t) = self.tracer.as_deref_mut() {
                        t.record_send(om.recipient, om.amount, om.tag(), *span);
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
                    Some(e) => fetch_ref(frame, e)?.to_string(),
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
                Ok(Value::Msg(Arc::new(m)))
            }
            CExpr::Constr { ctor, args } => {
                let args = args.iter().map(|op| fetch(frame, op)).collect::<Result<_, _>>()?;
                Ok(Value::Adt { ctor: *ctor, args })
            }
            CExpr::Builtin { op, f, cost, args } => {
                gas.charge(*cost)?;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_builtin(op.as_str());
                }
                f(fetch_slice(frame, args, &mut self.scratch)?)
            }
            CExpr::Let { dst, rhs, body } => {
                let v = self.eval(frame, rhs, gas)?;
                frame[*dst as usize] = Some(v);
                self.eval(frame, body, gas)
            }
            CExpr::Fun { lit, captures } => {
                let env = self.capture_env(frame, captures)?;
                Ok(Value::Clo(Arc::new(Closure { lit: Arc::clone(lit), env })))
            }
            CExpr::App { callee: Callee::Lowered(lam), args } => {
                // The walker evaluates each `fun` of the chain but the
                // innermost to a closure on the way, one node each.
                gas.charge(gas::COST_EXPR * (lam.params.len() as u64 - 1))?;
                for (slot, a) in lam.params.iter().zip(args) {
                    frame[*slot as usize] = Some(fetch(frame, a)?);
                }
                self.eval(frame, &lam.body, gas)
            }
            CExpr::App { callee: Callee::Walker(func), args } => {
                let mut f = fetch(frame, func)?;
                for a in args {
                    let arg = fetch(frame, a)?;
                    f = apply(f, arg, gas, self.tracer.as_deref_mut())?;
                }
                Ok(f)
            }
            CExpr::Match { scrutinee, clauses } => {
                let body = select(frame, scrutinee, clauses, |_| {})?;
                self.eval(frame, body, gas)
            }
            CExpr::TFun { lit, captures } => {
                let env = self.capture_env(frame, captures)?;
                Ok(Value::TClo(Arc::new(TypeClosure { lit: Arc::clone(lit), env })))
            }
            CExpr::Inst { target, count } => {
                let mut v = fetch(frame, target)?;
                for _ in 0..*count {
                    match v {
                        Value::TClo(tc) => {
                            v = eval_expr_inner(&tc.env, &tc.lit.body, gas, self.tracer.as_deref_mut())?
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
