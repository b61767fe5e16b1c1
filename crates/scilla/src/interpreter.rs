//! Definitional interpreter for the Scilla subset.
//!
//! Executes one transition at a time against a [`StateStore`], mirroring the
//! way Zilliqa drives the reference Scilla interpreter (paper §2.4): pure
//! expressions evaluate in an environment, the small set of effectful
//! statements touch the blockchain state, and all inter-contract interaction
//! is by returned messages.

use crate::ast::*;
use crate::builtins::{empty_map, eval_builtin};
use crate::error::ExecError;
use crate::gas::{self, GasMeter};
use crate::intern::Sym;
use crate::span::Span;
use crate::state::StateStore;
use crate::trace::EffectTracer;
use crate::typechecker::CheckedModule;
use crate::value::{Closure, Env, TypeClosure, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Blockchain-supplied context for a single transition invocation.
#[derive(Debug, Clone)]
pub struct TransitionContext {
    /// The immediate sender (`_sender`).
    pub sender: [u8; 20],
    /// The original transaction signer (`_origin`).
    pub origin: [u8; 20],
    /// Native tokens sent along (`_amount`).
    pub amount: u128,
    /// The contract's own address (`_this_address`).
    pub this_address: [u8; 20],
    /// Current block number (`& BLOCKNUMBER`).
    pub block_number: u64,
}

impl TransitionContext {
    /// A context with every address zeroed — convenient for tests.
    pub fn zeroed() -> Self {
        TransitionContext {
            sender: [0; 20],
            origin: [0; 20],
            amount: 0,
            this_address: [0; 20],
            block_number: 0,
        }
    }
}

/// An outgoing message produced by `send`: the message value itself,
/// shared, plus its two validated numeric protocol fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutMsg {
    /// Destination address (`_recipient`).
    pub recipient: [u8; 20],
    /// Native token amount attached (`_amount`).
    pub amount: u128,
    msg: Arc<BTreeMap<Sym, Value>>,
}

impl OutMsg {
    /// Transition tag (`_tag`).
    pub fn tag(&self) -> &str {
        match self.msg.get(&Sym::TAG) {
            Some(Value::Str(s)) => s,
            // `parse_out_msg` admits only messages with a `String` tag.
            _ => "",
        }
    }

    /// The payload entries (every key without a leading underscore), in
    /// key order.
    pub fn params(&self) -> impl Iterator<Item = (&'static str, &Value)> {
        self.msg.iter().map(|(k, v)| (k.as_str(), v)).filter(|(k, _)| !k.starts_with('_'))
    }
}

/// The observable result of executing a transition.
#[derive(Debug, Clone, Default)]
pub struct TransitionOutcome {
    /// Whether `accept` ran (the incoming `_amount` moves to the contract).
    pub accepted: bool,
    /// Messages emitted by `send`, in order.
    pub messages: Vec<OutMsg>,
    /// Events emitted by `event`, in order.
    pub events: Vec<Value>,
    /// Gas consumed.
    pub gas_used: u64,
}

/// Which interpreter backend runs a transition.
///
/// `Auto` (the normal path) uses the compiled form whenever the transition
/// lowered. The forced modes exist for the differential tests that run the
/// same transaction through both backends and compare every observable bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Compiled when the transition lowered; AST walker otherwise.
    Auto,
    /// Always the AST walker (the definitional reference).
    Ast,
    /// Always the compiled form; error if the transition fell back.
    Compiled,
}

/// A contract ready to execute: type-checked module plus its evaluated
/// library environment.
///
/// Transitions additionally lower to pre-resolved instruction sequences
/// (see [`crate::compile`]), one write-once slot per transition in
/// declaration order: on first use, or all at once by
/// [`CompiledContract::precompile`], which deployment calls.
#[derive(Debug)]
pub struct CompiledContract {
    checked: CheckedModule,
    lib_env: Env,
    code: Vec<OnceLock<crate::compile::TransitionCode>>,
}

impl CompiledContract {
    /// Evaluates the library definitions of a checked module.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] raised while evaluating library `let`s
    /// (which are pure, so this only fails on e.g. arithmetic overflow in a
    /// constant).
    pub fn compile(checked: CheckedModule) -> Result<Self, ExecError> {
        let mut gas = GasMeter::unlimited();
        let mut env = Env::new();
        for entry in &checked.module.library {
            if let LibEntry::Let { name, body, .. } = entry {
                let v = eval_expr(&env, body, &mut gas)?;
                env = env.bind(name.sym, v);
            }
        }
        let code = checked.module.contract.transitions.iter().map(|_| OnceLock::new()).collect();
        Ok(CompiledContract { checked, lib_env: env, code })
    }

    /// The underlying checked module.
    pub fn checked(&self) -> &CheckedModule {
        &self.checked
    }

    /// The lowered code of the transition declared at position `i`,
    /// compiling it (once) on first use.
    fn code_for(&self, i: usize) -> &crate::compile::TransitionCode {
        let contract = self.contract();
        self.code[i].get_or_init(|| {
            crate::compile::compile_transition(contract, &self.lib_env, &contract.transitions[i])
        })
    }

    /// Lowers every transition now (deploy-time warm-up) instead of on first
    /// call, so the first transaction of an epoch pays no compile cost.
    pub fn precompile(&self) {
        for i in 0..self.code.len() {
            self.code_for(i);
        }
    }

    /// The contract definition.
    pub fn contract(&self) -> &Contract {
        &self.checked.module.contract
    }

    /// Evaluates the field initialisers for a fresh deployment, with the
    /// immutable contract parameters bound to `params`.
    ///
    /// # Errors
    ///
    /// Fails if a parameter is missing or an initialiser raises.
    pub fn init_fields(
        &self,
        params: &[(String, Value)],
    ) -> Result<BTreeMap<String, Value>, ExecError> {
        let mut gas = GasMeter::unlimited();
        let env = self.param_env(params)?;
        let mut fields = BTreeMap::new();
        for f in &self.contract().fields {
            let v = eval_expr(&env, &f.init, &mut gas)?;
            fields.insert(f.name.name.clone(), v);
        }
        Ok(fields)
    }

    fn param_env(&self, params: &[(String, Value)]) -> Result<Env, ExecError> {
        let mut env = self.lib_env.clone();
        for p in &self.contract().params {
            let v = params
                .iter()
                .find(|(n, _)| *n == p.name.name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| {
                    ExecError::BadInvocation(format!("missing contract parameter '{}'", p.name.name))
                })?;
            env = env.bind(p.name.sym, v);
        }
        Ok(env)
    }

    /// Executes `transition` with the given arguments against `store`.
    ///
    /// Transitions are atomic: on error the caller must discard any writes
    /// `store` observed (use a scratch overlay).
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] aborts the transaction; `gas.used()` remains valid.
    pub fn execute(
        &self,
        store: &mut dyn StateStore,
        transition: &str,
        args: &[(String, Value)],
        contract_params: &[(String, Value)],
        ctx: &TransitionContext,
        gas: &mut GasMeter,
    ) -> Result<TransitionOutcome, ExecError> {
        self.execute_mode(store, transition, args, contract_params, ctx, gas, None, ExecMode::Auto)
    }

    /// Like [`CompiledContract::execute`], but records the concrete dynamic
    /// footprint (reads, writes with observed ops, branch conditions, accepts,
    /// sends) into `tracer`. Tracing charges no gas and never changes the
    /// outcome; take the footprint with [`EffectTracer::finish`] afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledContract::execute`]. The tracer holds the partial
    /// footprint observed up to the failure point.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_traced(
        &self,
        store: &mut dyn StateStore,
        transition: &str,
        args: &[(String, Value)],
        contract_params: &[(String, Value)],
        ctx: &TransitionContext,
        gas: &mut GasMeter,
        tracer: &mut EffectTracer,
    ) -> Result<TransitionOutcome, ExecError> {
        self.execute_mode(store, transition, args, contract_params, ctx, gas, Some(tracer), ExecMode::Auto)
    }

    /// Like [`CompiledContract::execute_traced`], but with an explicit
    /// [`ExecMode`] — the entry point for differential tests that pin the
    /// backend instead of letting `Auto` choose.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledContract::execute`]; additionally,
    /// [`ExecMode::Compiled`] fails with an internal error if the transition
    /// fell back to the AST walker at compile time.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_mode(
        &self,
        store: &mut dyn StateStore,
        transition: &str,
        args: &[(String, Value)],
        contract_params: &[(String, Value)],
        ctx: &TransitionContext,
        gas: &mut GasMeter,
        tracer: Option<&mut EffectTracer>,
        mode: ExecMode,
    ) -> Result<TransitionOutcome, ExecError> {
        let transitions = &self.contract().transitions;
        let resolved = transitions.iter().position(|t| t.name.name == transition);
        let mut _tspan = telemetry::span!("scilla.interpreter.transition");
        if _tspan.trace_id() != 0 {
            match resolved {
                Some(i) => _tspan.attr("transition", transitions[i].name.sym.as_str()),
                None => _tspan.attr("transition", transition.to_owned()),
            }
        }
        let gas_before = gas.used();
        let run = || -> Result<TransitionOutcome, ExecError> {
            let i = resolved
                .ok_or_else(|| ExecError::BadInvocation(format!("unknown transition '{transition}'")))?;
            let t = &transitions[i];
            gas.charge(gas::COST_TX_BASE)?;
            if mode != ExecMode::Ast {
                if let crate::compile::TransitionCode::Compiled(ct) = self.code_for(i) {
                    return crate::compile::run_compiled(ct, store, args, contract_params, ctx, gas, tracer);
                }
                if mode == ExecMode::Compiled {
                    return Err(ExecError::Internal(format!(
                        "transition '{transition}' fell back to the AST walker"
                    )));
                }
            }
            let mut env = self.param_env(contract_params)?;
            env = env.bind(Sym::SENDER, Value::address(ctx.sender));
            env = env.bind(Sym::ORIGIN, Value::address(ctx.origin));
            env = env.bind(Sym::AMOUNT, Value::Uint(128, ctx.amount));
            env = env.bind(Sym::THIS_ADDRESS, Value::address(ctx.this_address));
            for p in &t.params {
                let v = args
                    .iter()
                    .find(|(n, _)| *n == p.name.name)
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| {
                        ExecError::BadInvocation(format!(
                            "missing argument '{}' for transition '{transition}'",
                            p.name.name
                        ))
                    })?;
                env = env.bind(p.name.sym, v);
            }
            let mut exec = Exec { store, ctx, outcome: TransitionOutcome::default(), tracer };
            exec.run_stmts(env, &t.body, gas)?;
            let mut outcome = exec.outcome;
            outcome.gas_used = gas.used();
            Ok(outcome)
        };
        let result = run();
        _tspan.attr("ok", result.is_ok());
        _tspan.attr("gas", gas.used().saturating_sub(gas_before));
        if telemetry::enabled() {
            telemetry::counter!("scilla.interpreter.transitions").inc();
            telemetry::counter!("scilla.interpreter.gas_charged")
                .add(gas.used().saturating_sub(gas_before));
            if result.is_err() {
                telemetry::counter!("scilla.interpreter.exec_failures").inc();
            }
        }
        result
    }
}

struct Exec<'a> {
    store: &'a mut dyn StateStore,
    ctx: &'a TransitionContext,
    outcome: TransitionOutcome,
    tracer: Option<&'a mut EffectTracer>,
}

impl Exec<'_> {
    fn run_stmts(&mut self, mut env: Env, stmts: &[Stmt], gas: &mut GasMeter) -> Result<(), ExecError> {
        for s in stmts {
            env = self.run_stmt(env, s, gas)?;
        }
        Ok(())
    }

    fn key_values(&self, env: &Env, keys: &[Ident]) -> Result<Vec<Value>, ExecError> {
        keys.iter().map(|k| lookup(env, k)).collect()
    }

    /// Writes one component (`None` removes it) and, when tracing, records
    /// the write with the value it replaced.
    fn write(&mut self, field: Sym, keys: Vec<Value>, value: Option<Value>, span: Span) {
        match self.tracer.as_deref_mut() {
            Some(t) => {
                let prior = self.store.get(field, &keys);
                self.store.set(field, &keys, value.clone());
                t.record_write(field.as_str(), keys, prior, value, span);
            }
            None => self.store.set(field, &keys, value),
        }
    }

    fn run_stmt(&mut self, env: Env, s: &Stmt, gas: &mut GasMeter) -> Result<Env, ExecError> {
        gas.charge(gas::COST_STMT)?;
        match s {
            Stmt::Load { lhs, field } => {
                gas.charge(gas::COST_FIELD)?;
                let v = self.store.get(field.sym, &[]).ok_or_else(|| {
                    ExecError::Internal(format!("field '{}' missing from state", field.name))
                })?;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(&field.name, Vec::new(), s.span());
                }
                Ok(env.bind(lhs.sym, v))
            }
            Stmt::Store { field, rhs } => {
                gas.charge(gas::COST_FIELD)?;
                let v = lookup(&env, rhs)?;
                self.write(field.sym, Vec::new(), Some(v), s.span());
                Ok(env)
            }
            Stmt::Bind { lhs, rhs } => {
                let v = eval_expr_inner(&env, rhs, gas, self.tracer.as_deref_mut())?;
                Ok(env.bind(lhs.sym, v))
            }
            Stmt::MapUpdate { map, keys, rhs } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = self.key_values(&env, keys)?;
                let v = lookup(&env, rhs)?;
                self.write(map.sym, ks, Some(v), s.span());
                Ok(env)
            }
            Stmt::MapGet { lhs, map, keys } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = self.key_values(&env, keys)?;
                let v = match self.store.get(map.sym, &ks) {
                    Some(v) => Value::some(v),
                    None => Value::none(),
                };
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(&map.name, ks, s.span());
                }
                Ok(env.bind(lhs.sym, v))
            }
            Stmt::MapExists { lhs, map, keys } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = self.key_values(&env, keys)?;
                let b = self.store.exists(map.sym, &ks);
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_read(&map.name, ks, s.span());
                }
                Ok(env.bind(lhs.sym, Value::bool(b)))
            }
            Stmt::MapDelete { map, keys } => {
                gas.charge(gas::COST_MAP_KEY * keys.len() as u64)?;
                let ks = self.key_values(&env, keys)?;
                self.write(map.sym, ks, None, s.span());
                Ok(env)
            }
            Stmt::ReadBlockchain { lhs, .. } => {
                gas.charge(gas::COST_FIELD)?;
                Ok(env.bind(lhs.sym, Value::BNum(self.ctx.block_number)))
            }
            Stmt::Match { scrutinee, clauses, .. } => {
                let v = lookup(&env, scrutinee)?;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_cond(v.clone(), s.span());
                }
                for (pat, body) in clauses {
                    if let Some(binds) = match_pattern(pat, &v) {
                        let mut inner = env.clone();
                        for (n, bv) in binds {
                            inner = inner.bind(n, bv);
                        }
                        self.run_stmts(inner, body, gas)?;
                        return Ok(env);
                    }
                }
                Err(ExecError::MatchFailure(format!("no clause matched {v}")))
            }
            Stmt::Accept(_) => {
                self.outcome.accepted = true;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.record_accept();
                }
                Ok(env)
            }
            Stmt::Send { msgs } => {
                let v = lookup(&env, msgs)?;
                for m in flatten_messages(&v)? {
                    gas.charge(gas::COST_MESSAGE)?;
                    let om = parse_out_msg(m)?;
                    if let Some(t) = self.tracer.as_deref_mut() {
                        t.record_send(om.recipient, om.amount, om.tag(), s.span());
                    }
                    self.outcome.messages.push(om);
                }
                Ok(env)
            }
            Stmt::Event { event } => {
                gas.charge(gas::COST_MESSAGE)?;
                let v = lookup(&env, event)?;
                if !matches!(v, Value::Msg(_)) {
                    return Err(ExecError::Internal("event payload must be a message".into()));
                }
                self.outcome.events.push(v);
                Ok(env)
            }
            Stmt::Throw { exception, .. } => {
                let detail = match exception {
                    Some(e) => lookup(&env, e)?.to_string(),
                    None => "unspecified".into(),
                };
                Err(ExecError::Thrown(detail))
            }
        }
    }
}

pub(crate) fn lookup(env: &Env, id: &Ident) -> Result<Value, ExecError> {
    env.lookup_sym(id.sym)
        .cloned()
        .ok_or_else(|| ExecError::Internal(format!("unbound identifier '{}'", id.name)))
}

pub(crate) fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(w, v) => Value::Int(*w, *v),
        Literal::Uint(w, v) => Value::Uint(*w, *v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::ByStr(bs) => Value::bystr(bs),
        Literal::BNum(n) => Value::BNum(*n),
        Literal::EmpMap(..) => empty_map(),
    }
}

/// Evaluates a pure expression.
///
/// # Errors
///
/// Fails on arithmetic errors in builtins, failed matches, out-of-gas, or
/// internal shape mismatches (which a passed type check rules out).
pub fn eval_expr(env: &Env, e: &Expr, gas: &mut GasMeter) -> Result<Value, ExecError> {
    eval_expr_inner(env, e, gas, None)
}

pub(crate) fn eval_expr_inner(
    env: &Env,
    e: &Expr,
    gas: &mut GasMeter,
    mut tracer: Option<&mut EffectTracer>,
) -> Result<Value, ExecError> {
    gas.charge(gas::COST_EXPR)?;
    match e {
        Expr::Lit(l, _) => Ok(literal_value(l)),
        Expr::Var(i) => lookup(env, i),
        Expr::Message(entries, _) => {
            let mut m = BTreeMap::new();
            for en in entries {
                let v = match &en.value {
                    MsgValue::Var(i) => lookup(env, i)?,
                    MsgValue::Lit(l) => literal_value(l),
                };
                m.insert(en.key, v);
            }
            Ok(Value::Msg(Arc::new(m)))
        }
        Expr::Constr { name, args, .. } => {
            let vals: Result<Vec<Value>, _> = args.iter().map(|a| lookup(env, a)).collect();
            Ok(Value::Adt { ctor: name.sym, args: vals? })
        }
        Expr::Builtin { op, args } => {
            gas.charge(if op.name.ends_with("hash") { gas::COST_HASH } else { gas::COST_BUILTIN })?;
            if let Some(t) = tracer.as_deref_mut() {
                t.record_builtin(&op.name);
            }
            let vals: Result<Vec<Value>, _> = args.iter().map(|a| lookup(env, a)).collect();
            eval_builtin(&op.name, &vals?)
        }
        Expr::Let { bound, rhs, body, .. } => {
            let v = eval_expr_inner(env, rhs, gas, tracer.as_deref_mut())?;
            let inner = env.bind(bound.sym, v);
            eval_expr_inner(&inner, body, gas, tracer)
        }
        Expr::Fun(lit) => Ok(Value::Clo(Arc::new(Closure { lit: Arc::clone(lit), env: env.clone() }))),
        Expr::App { func, args } => {
            let mut f = lookup(env, func)?;
            for a in args {
                let arg = lookup(env, a)?;
                f = apply(f, arg, gas, tracer.as_deref_mut())?;
            }
            Ok(f)
        }
        Expr::Match { scrutinee, clauses, .. } => {
            let v = lookup(env, scrutinee)?;
            for (pat, body) in clauses {
                if let Some(binds) = match_pattern(pat, &v) {
                    let mut inner = env.clone();
                    for (n, bv) in binds {
                        inner = inner.bind(n, bv);
                    }
                    return eval_expr_inner(&inner, body, gas, tracer);
                }
            }
            Err(ExecError::MatchFailure(format!("no clause matched {v}")))
        }
        Expr::TFun(lit) => {
            Ok(Value::TClo(Arc::new(TypeClosure { lit: Arc::clone(lit), env: env.clone() })))
        }
        Expr::Inst { target, type_args } => {
            // Types are erased at runtime: instantiation just unwraps the
            // type closure once per type argument.
            let mut v = lookup(env, target)?;
            for _ in type_args {
                match v {
                    Value::TClo(tc) => v = eval_expr_inner(&tc.env, &tc.lit.body, gas, tracer.as_deref_mut())?,
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

thread_local! {
    static WALKER_APPLIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many closure applications the AST walker has made on the calling
/// thread. Compiled transitions lower saturated library calls, so one that
/// adds to this count applied a closure through the walker.
pub fn walker_applies() -> u64 {
    WALKER_APPLIES.with(std::cell::Cell::get)
}

/// Applies a closure to one argument.
pub(crate) fn apply(
    f: Value,
    arg: Value,
    gas: &mut GasMeter,
    tracer: Option<&mut EffectTracer>,
) -> Result<Value, ExecError> {
    WALKER_APPLIES.with(|n| n.set(n.get() + 1));
    match f {
        Value::Clo(c) => {
            let inner = c.env.bind(c.lit.param.sym, arg);
            eval_expr_inner(&inner, &c.lit.body, gas, tracer)
        }
        other => Err(ExecError::Internal(format!("cannot apply non-function value {other}"))),
    }
}

/// Matches `v` against `pat`, returning the bindings on success.
pub fn match_pattern(pat: &Pattern, v: &Value) -> Option<Vec<(Sym, Value)>> {
    match pat {
        Pattern::Wildcard(_) => Some(vec![]),
        Pattern::Binder(i) => Some(vec![(i.sym, v.clone())]),
        Pattern::Constructor(c, subs) => match v {
            Value::Adt { ctor, args } if *ctor == c.sym && args.len() == subs.len() => {
                let mut binds = Vec::new();
                for (sub, av) in subs.iter().zip(args) {
                    binds.extend(match_pattern(sub, av)?);
                }
                Some(binds)
            }
            _ => None,
        },
    }
}

pub(crate) fn flatten_messages(v: &Value) -> Result<Vec<Value>, ExecError> {
    match v {
        Value::Msg(_) => Ok(vec![v.clone()]),
        Value::Adt { ctor, args } if *ctor == Sym::CONS && args.len() == 2 => {
            let mut out = flatten_messages(&args[0])?;
            out.extend(flatten_messages(&args[1])?);
            Ok(out)
        }
        Value::Adt { ctor, args } if *ctor == Sym::NIL && args.is_empty() => Ok(vec![]),
        other => Err(ExecError::Internal(format!("send expects messages, got {other}"))),
    }
}

pub(crate) fn parse_out_msg(v: Value) -> Result<OutMsg, ExecError> {
    let Value::Msg(msg) = v else {
        return Err(ExecError::Internal("not a message".into()));
    };
    let recipient = msg
        .get(&Sym::RECIPIENT)
        .and_then(Value::as_address)
        .ok_or_else(|| ExecError::Internal("message lacks a ByStr20 '_recipient'".into()))?;
    let amount = msg
        .get(&Sym::AMOUNT)
        .and_then(Value::as_uint)
        .ok_or_else(|| ExecError::Internal("message lacks a Uint '_amount'".into()))?;
    if !matches!(msg.get(&Sym::TAG), Some(Value::Str(_))) {
        return Err(ExecError::Internal("message lacks a String '_tag'".into()));
    }
    Ok(OutMsg { recipient, amount, msg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;
    use crate::state::InMemoryState;
    use crate::typechecker::typecheck;

    fn compile(src: &str) -> CompiledContract {
        CompiledContract::compile(typecheck(parse_module(src).unwrap()).unwrap()).unwrap()
    }

    fn addr(b: u8) -> [u8; 20] {
        [b; 20]
    }

    const TOKEN: &str = r#"
        library TokenLib
        let nil_msg = Nil {Message}
        let one_msg = fun (m : Message) => Cons {Message} m nil_msg
        contract Token (owner : ByStr20)
        field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Mint (to : ByStr20, amount : Uint128)
          balances[to] := amount
        end
        transition Transfer (to : ByStr20, amount : Uint128)
          bal_opt <- balances[_sender];
          match bal_opt with
          | Some bal =>
            ok = builtin le amount bal;
            match ok with
            | True =>
              new_bal = builtin sub bal amount;
              balances[_sender] := new_bal;
              to_opt <- balances[to];
              new_to = match to_opt with
                | Some b => builtin add b amount
                | None => amount
                end;
              balances[to] := new_to
            | False => throw
            end
          | None => throw
          end
        end
    "#;

    fn run(
        c: &CompiledContract,
        store: &mut InMemoryState,
        transition: &str,
        sender: [u8; 20],
        args: &[(String, Value)],
    ) -> Result<TransitionOutcome, ExecError> {
        let ctx = TransitionContext { sender, ..TransitionContext::zeroed() };
        let mut gas = GasMeter::new(1_000_000);
        let params = vec![("owner".to_string(), Value::address(addr(99)))];
        c.execute(store, transition, args, &params, &ctx, &mut gas)
    }

    #[test]
    fn mint_then_transfer_moves_balances() {
        let c = compile(TOKEN);
        let mut store = InMemoryState::from_fields(c.init_fields(&[("owner".into(), Value::address(addr(99)))]).unwrap());
        run(&c, &mut store, "Mint", addr(99), &[
            ("to".into(), Value::address(addr(1))),
            ("amount".into(), Value::Uint(128, 100)),
        ])
        .unwrap();
        run(&c, &mut store, "Transfer", addr(1), &[
            ("to".into(), Value::address(addr(2))),
            ("amount".into(), Value::Uint(128, 30)),
        ])
        .unwrap();
        assert_eq!(store.get("balances".into(), &[Value::address(addr(1))]), Some(Value::Uint(128, 70)));
        assert_eq!(store.get("balances".into(), &[Value::address(addr(2))]), Some(Value::Uint(128, 30)));
    }

    #[test]
    fn overdraft_throws() {
        let c = compile(TOKEN);
        let mut store = InMemoryState::from_fields(c.init_fields(&[("owner".into(), Value::address(addr(99)))]).unwrap());
        let err = run(&c, &mut store, "Transfer", addr(1), &[
            ("to".into(), Value::address(addr(2))),
            ("amount".into(), Value::Uint(128, 30)),
        ])
        .unwrap_err();
        assert!(matches!(err, ExecError::Thrown(_)));
    }

    #[test]
    fn out_of_gas_aborts() {
        let c = compile(TOKEN);
        let mut store = InMemoryState::from_fields(c.init_fields(&[("owner".into(), Value::address(addr(99)))]).unwrap());
        let ctx = TransitionContext { sender: addr(99), ..TransitionContext::zeroed() };
        let mut gas = GasMeter::new(10);
        let params = vec![("owner".to_string(), Value::address(addr(99)))];
        let err = c
            .execute(&mut store, "Mint", &[
                ("to".into(), Value::address(addr(1))),
                ("amount".into(), Value::Uint(128, 1)),
            ], &params, &ctx, &mut gas)
            .unwrap_err();
        assert_eq!(err, ExecError::OutOfGas);
    }

    #[test]
    fn send_produces_parsed_messages() {
        let src = r#"
            library L
            let nil_msg = Nil {Message}
            let one_msg = fun (m : Message) => Cons {Message} m nil_msg
            contract C ()
            transition Notify (to : ByStr20)
              zero = Uint128 0;
              m = {_tag : "Ping"; _recipient : to; _amount : zero; note : "hi"};
              msgs = one_msg m;
              send msgs
            end
        "#;
        let c = compile(src);
        let mut store = InMemoryState::new();
        let ctx = TransitionContext::zeroed();
        let mut gas = GasMeter::new(100_000);
        let out = c
            .execute(&mut store, "Notify", &[("to".into(), Value::address(addr(5)))], &[], &ctx, &mut gas)
            .unwrap();
        assert_eq!(out.messages.len(), 1);
        let m = &out.messages[0];
        assert_eq!(m.recipient, addr(5));
        assert_eq!(m.tag(), "Ping");
        assert_eq!(m.params().collect::<Vec<_>>(), [("note", &Value::Str("hi".into()))]);
    }

    #[test]
    fn unread_contract_parameter_is_still_required() {
        let src = r#"
            contract C (owner : ByStr20, label : String)
            field last : ByStr20 = owner
            transition T ()
              last := owner
            end
        "#;
        let c = compile(src);
        let params = vec![
            ("owner".to_string(), Value::address(addr(3))),
            ("label".to_string(), Value::Str("unread".into())),
        ];
        let mut store = InMemoryState::from_fields(c.init_fields(&params).unwrap());
        let ctx = TransitionContext::zeroed();
        for mode in [ExecMode::Ast, ExecMode::Compiled] {
            let mut gas = GasMeter::new(100_000);
            c.execute_mode(&mut store, "T", &[], &params, &ctx, &mut gas, None, mode).unwrap();
            let mut gas = GasMeter::new(100_000);
            let err = c
                .execute_mode(&mut store, "T", &[], &params[..1], &ctx, &mut gas, None, mode)
                .unwrap_err();
            assert_eq!(err, ExecError::BadInvocation("missing contract parameter 'label'".into()));
        }
        assert_eq!(store.get("last".into(), &[]), Some(Value::address(addr(3))));
    }

    #[test]
    fn accept_sets_flag() {
        let src = r#"
            contract C ()
            transition Deposit ()
              accept
            end
        "#;
        let c = compile(src);
        let mut store = InMemoryState::new();
        let mut gas = GasMeter::new(100_000);
        let out = c
            .execute(&mut store, "Deposit", &[], &[], &TransitionContext::zeroed(), &mut gas)
            .unwrap();
        assert!(out.accepted);
    }

    #[test]
    fn blockchain_read_sees_block_number() {
        let src = r#"
            contract C ()
            field last : BNum = BNum 0
            transition Touch ()
              b <- & BLOCKNUMBER;
              last := b
            end
        "#;
        let c = compile(src);
        let mut store = InMemoryState::from_fields(c.init_fields(&[]).unwrap());
        let ctx = TransitionContext { block_number: 77, ..TransitionContext::zeroed() };
        let mut gas = GasMeter::new(100_000);
        c.execute(&mut store, "Touch", &[], &[], &ctx, &mut gas).unwrap();
        assert_eq!(store.get("last".into(), &[]), Some(Value::BNum(77)));
    }

    #[test]
    fn polymorphic_library_function_executes() {
        let src = r#"
            library L
            let tid = tfun 'A => fun (x : 'A) => x
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (v : Uint128)
              idu = @tid Uint128;
              v2 = idu v;
              n := v2
            end
        "#;
        let c = compile(src);
        let mut store = InMemoryState::from_fields(c.init_fields(&[]).unwrap());
        let mut gas = GasMeter::new(100_000);
        c.execute(&mut store, "T", &[("v".into(), Value::Uint(128, 42))], &[], &TransitionContext::zeroed(), &mut gas)
            .unwrap();
        assert_eq!(store.get("n".into(), &[]), Some(Value::Uint(128, 42)));
    }

    #[test]
    fn tracer_records_transfer_footprint_without_gas_skew() {
        use crate::trace::{EffectTracer, ObservedOp};
        let params = vec![("owner".to_string(), Value::address(addr(99)))];
        let c = compile(TOKEN);
        let fields = c.init_fields(&params).unwrap();
        let mut plain = InMemoryState::from_fields(fields.clone());
        let mut traced = InMemoryState::from_fields(fields);
        for store in [&mut plain, &mut traced] {
            run(&c, store, "Mint", addr(99), &[
                ("to".into(), Value::address(addr(1))),
                ("amount".into(), Value::Uint(128, 100)),
            ])
            .unwrap();
        }
        let args = vec![
            ("to".to_string(), Value::address(addr(2))),
            ("amount".to_string(), Value::Uint(128, 30)),
        ];
        let ctx = TransitionContext { sender: addr(1), ..TransitionContext::zeroed() };

        let mut gas_plain = GasMeter::new(1_000_000);
        let out_plain =
            c.execute(&mut plain, "Transfer", &args, &params, &ctx, &mut gas_plain).unwrap();
        let mut gas_traced = GasMeter::new(1_000_000);
        let mut tracer = EffectTracer::new("Transfer");
        let out_traced = c
            .execute_traced(&mut traced, "Transfer", &args, &params, &ctx, &mut gas_traced, &mut tracer)
            .unwrap();
        assert_eq!(gas_plain.used(), gas_traced.used(), "tracing must not charge gas");
        assert_eq!(out_plain.gas_used, out_traced.gas_used);

        let fp = tracer.finish();
        assert_eq!(fp.transition, "Transfer");
        // Reads: balances[_sender] and balances[to].
        assert_eq!(fp.reads.len(), 2);
        assert!(fp.reads.iter().all(|r| r.field == "balances"));
        assert_eq!(fp.reads[0].keys, vec![Value::address(addr(1))]);
        assert_eq!(fp.reads[1].keys, vec![Value::address(addr(2))]);
        // Writes: sub 30 from the sender, add 30 to a fresh recipient entry.
        assert_eq!(fp.writes.len(), 2);
        assert_eq!(fp.writes[0].op, ObservedOp::Sub(30));
        assert_eq!(fp.writes[0].keys, vec![Value::address(addr(1))]);
        assert_eq!(fp.writes[1].op, ObservedOp::Add(30));
        assert_eq!(fp.writes[1].prior, None);
        // Two statement-level matches branch on state-derived data.
        assert_eq!(fp.conditions.len(), 2);
        assert!(fp.conditions.iter().all(|c| c.span.line > 0));
        assert_eq!(fp.accepts, 0);
        assert!(fp.sends.is_empty());
        assert_eq!(fp.builtin_ops.get("sub"), Some(&1));
        // The recipient entry is fresh, so the `None => amount` branch runs
        // and `builtin add` is never evaluated on this path.
        assert_eq!(fp.builtin_ops.get("add"), None);
        assert_eq!(fp.builtin_ops.get("le"), Some(&1));
    }

    #[test]
    fn events_collected() {
        let src = r#"
            contract C ()
            transition E ()
              ev = {_eventname : "Fired"};
              event ev
            end
        "#;
        let c = compile(src);
        let mut store = InMemoryState::new();
        let mut gas = GasMeter::new(100_000);
        let out = c.execute(&mut store, "E", &[], &[], &TransitionContext::zeroed(), &mut gas).unwrap();
        assert_eq!(out.events.len(), 1);
    }
}
