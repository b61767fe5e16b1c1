//! Transaction dispatch — `dispatch_oc(T, x)` (paper §4.3).
//!
//! The lookup node instantiates a transition's symbolic ownership
//! constraints with the transaction's actual arguments and finds a shard
//! satisfying all of them; if none exists the transaction is routed to the
//! DS committee, which processes leftovers sequentially after the shards.

use crate::address::{fnv1a, Address, Fnv1a};
use crate::network::ChainConfig;
use crate::state::{DeployedContract, GlobalState};
use crate::tx::{Transaction, TxKind};
use crate::xshard::{LockKey, XShardPlan};
use cosplit_analysis::callgraph::{
    compose, Binding, ComposedSummary, ContractCalls, DeploymentView, Recipient, Target,
};
use cosplit_analysis::domain::PseudoField;
use cosplit_analysis::effects::TransitionSummary;
use cosplit_analysis::signature::Constraint;
use scilla::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Where a transaction is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Assignment {
    /// One of the transaction shards.
    Shard(u32),
    /// The cross-shard atomic-commit stage: the footprint spans several
    /// shards, and a coordinator drives an S-BAC-style two-phase commit
    /// over them instead of serialising at the DS committee
    /// ([`crate::xshard`]).
    XShard,
    /// The DS committee (sequential, after the shards).
    Ds,
}

/// Why the dispatcher chose what it chose — used by the evaluation's
/// strategy-attribution breakdown (§5.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchReason {
    /// Payments go to the sender's home shard (default strategy).
    Payment,
    /// No signature: baseline contract strategy, same-shard case.
    BaselineLocal,
    /// No signature: baseline contract strategy, cross-shard case.
    BaselineCross,
    /// Transition not in the signature's selection.
    Unselected,
    /// The signature marks the transition unsatisfiable.
    Unsat,
    /// All ownership constraints pin to one shard.
    OwnershipPinned,
    /// No ownership constraints at all (pure commutative effects).
    Unconstrained,
    /// Ownership constraints span several shards.
    SplitFootprint,
    /// Ownership constraints span several shards and the cross-shard
    /// two-phase commit takes it (instead of DS serialisation).
    CrossShard,
    /// Two map keys alias at runtime.
    AliasConflict,
    /// A `UserAddr` parameter holds a contract address.
    NotUserAddr,
    /// A constraint referenced an argument the transaction did not supply.
    BadArguments,
    /// Strict (non-relaxed) nonce ordering forced DS serialisation
    /// (§4.2.1 ablation).
    StrictNonceOrder,
    /// A cross-contract chain whose composed interprocedural footprint
    /// pins to a single shard commits there instead of falling back to
    /// the DS committee ([`cosplit_analysis::callgraph`]).
    ComposedLocal,
}

impl DispatchReason {
    /// Stable label used in epoch reports and `chain.dispatch.reason.*`
    /// metrics.
    pub fn name(self) -> &'static str {
        match self {
            DispatchReason::Payment => "payment",
            DispatchReason::BaselineLocal => "baseline-local",
            DispatchReason::BaselineCross => "baseline-cross",
            DispatchReason::Unselected => "unselected",
            DispatchReason::Unsat => "unsat",
            DispatchReason::OwnershipPinned => "ownership",
            DispatchReason::Unconstrained => "commutative",
            DispatchReason::SplitFootprint => "split-footprint",
            DispatchReason::CrossShard => "xshard",
            DispatchReason::AliasConflict => "alias",
            DispatchReason::NotUserAddr => "not-user-addr",
            DispatchReason::BadArguments => "bad-args",
            DispatchReason::StrictNonceOrder => "strict-nonce",
            DispatchReason::ComposedLocal => "composed-local",
        }
    }

    /// Every reason, in discriminant order (each `r` satisfies
    /// `ALL_REASONS[r as usize] == r` — the per-reason counter array and
    /// the drift test depend on it).
    pub fn all() -> &'static [DispatchReason] {
        &ALL_REASONS
    }
}

pub(crate) const ALL_REASONS: [DispatchReason; 14] = [
    DispatchReason::Payment,
    DispatchReason::BaselineLocal,
    DispatchReason::BaselineCross,
    DispatchReason::Unselected,
    DispatchReason::Unsat,
    DispatchReason::OwnershipPinned,
    DispatchReason::Unconstrained,
    DispatchReason::SplitFootprint,
    DispatchReason::CrossShard,
    DispatchReason::AliasConflict,
    DispatchReason::NotUserAddr,
    DispatchReason::BadArguments,
    DispatchReason::StrictNonceOrder,
    DispatchReason::ComposedLocal,
];

/// Per-reason counters, resolved once: dispatch runs for every pool
/// transaction every epoch, so the registry lookup must stay off the hot
/// path.
fn record_decision(d: &Decision) {
    use std::sync::{Arc, OnceLock};
    if !telemetry::enabled() {
        return;
    }
    static COUNTERS: OnceLock<[Arc<telemetry::Counter>; ALL_REASONS.len()]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        ALL_REASONS.map(|r| {
            telemetry::registry().counter(&format!("chain.dispatch.reason.{}", r.name()))
        })
    });
    counters[d.reason as usize].inc();
    telemetry::counter!("chain.dispatch.total").inc();
    if d.assignment == Assignment::Ds {
        telemetry::counter!("chain.dispatch.to_ds").inc();
    }
    if d.assignment == Assignment::XShard {
        telemetry::counter!("chain.dispatch.to_xshard").inc();
    }
}

/// A dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Where to execute.
    pub assignment: Assignment,
    /// Why.
    pub reason: DispatchReason,
}

/// The shard that owns a concrete state component of a contract.
///
/// Placement is by the entry's *first map key*:
///
/// * all entries under the same top-level key — across fields and nesting
///   depths — live in one shard, so a transition touching e.g. `balances
///   [from]` and `allowances[from][spender]`, or the UD registry's
///   `registry_owners[node]` and `records[node][key]`, pins to a single
///   shard;
/// * a first key that is an *address* places the entry in that account's
///   home shard, aligning `Owns(f[_sender])` with the `SenderShard`
///   constraint and with gas accounting (§4.2.2);
/// * whole fields are placed by field name.
///
/// The hash is FNV-1a of `contract ++ field` for a whole field and of
/// `contract ++ [0] ++ key.to_string()` for a keyed entry; the key's
/// rendering streams into the hash instead of being built.
pub fn component_shard(contract: Address, field: &str, keys: &[Value], num_shards: u32) -> u32 {
    let mut h = Fnv1a::new();
    h.bytes(&contract.0);
    match keys.first() {
        None => h.bytes(field.as_bytes()),
        Some(k) => {
            if let Some(addr) = k.as_address() {
                return Address(addr).home_shard(num_shards);
            }
            h.bytes(&[0]);
            write!(h, "{k}").expect("hashing a rendering cannot fail");
        }
    }
    (h.0 % num_shards as u64) as u32
}

/// Dispatches one transaction (paper §4.3, "Assigning Transactions to
/// Shards").
///
/// `use_cosplit` switches between the CoSplit strategy (signatures honoured
/// when present) and the default Zilliqa strategy used as the evaluation
/// baseline (§4.1).
pub fn dispatch(
    tx: &Transaction,
    state: &GlobalState,
    num_shards: u32,
    use_cosplit: bool,
) -> Decision {
    dispatch_policy(tx, state, &ChainConfig::evaluation(num_shards, use_cosplit))
}

/// [`dispatch`] under a chain's protocol switches. Without §4.2.1
/// `relaxed_nonces`, the strict gap-free nonce order forces all of a
/// sender's transactions through one place: a decision away from the
/// sender's home shard is demoted to the DS committee.
pub fn dispatch_policy(tx: &Transaction, state: &GlobalState, policy: &ChainConfig) -> Decision {
    let inner = dispatch_inner(tx, state, policy);
    let decision = if policy.relaxed_nonces {
        inner
    } else {
        // Strict nonces: a sender's transactions must be totally ordered, so
        // anything not in the sender's home shard serialises at the DS. The
        // cross-shard stage commits out of nonce order too, so it demotes
        // the same way under the ablation.
        match inner.assignment {
            Assignment::Shard(s) if s == tx.sender.home_shard(policy.num_shards) => inner,
            Assignment::Ds => inner,
            Assignment::Shard(_) | Assignment::XShard => {
                Decision { assignment: Assignment::Ds, reason: DispatchReason::StrictNonceOrder }
            }
        }
    };
    record_decision(&decision);
    decision
}

fn dispatch_inner(tx: &Transaction, state: &GlobalState, policy: &ChainConfig) -> Decision {
    match resolve::<Shards>(tx, state, policy) {
        Ok(Resolution::Payment) => Decision {
            assignment: Assignment::Shard(tx.sender.home_shard(policy.num_shards)),
            reason: DispatchReason::Payment,
        },
        Ok(Resolution::Baseline(contract)) => baseline(tx, state, contract, policy.num_shards),
        Ok(Resolution::Footprint { pins, composed }) => decide(tx, pins, policy, composed),
        Err(reason) => Decision { assignment: Assignment::Ds, reason },
    }
}

/// The default Zilliqa strategy (paper §4.1): contract and user are
/// statically assigned to shards; same-shard calls execute in the shard,
/// cross-shard calls go to the DS committee.
fn baseline(tx: &Transaction, state: &GlobalState, contract: Address, num_shards: u32) -> Decision {
    let user_shard = tx.sender.home_shard(num_shards);
    let contract_shard = state.home_shard_of(&contract, num_shards);
    if user_shard == contract_shard {
        Decision { assignment: Assignment::Shard(contract_shard), reason: DispatchReason::BaselineLocal }
    } else {
        Decision { assignment: Assignment::Ds, reason: DispatchReason::BaselineCross }
    }
}

/// Where [`instantiate`] reports each resource a transaction's constraints
/// pin: its owning shard, and its lock key on demand. One key always pins
/// one shard, so a sink that keeps only shards sees exactly the
/// participants of the lock plan that a sink keeping keys builds.
trait Pins: Default {
    fn pin(&mut self, shard: u32, key: impl FnOnce() -> LockKey);
}

/// Dispatch's sink: how many distinct shards the footprint pins, and which
/// when it is one. It never renders a lock key.
#[derive(Debug, Clone, Copy, Default)]
enum Shards {
    #[default]
    None,
    One(u32),
    Many,
}

impl Pins for Shards {
    fn pin(&mut self, shard: u32, _key: impl FnOnce() -> LockKey) {
        *self = match *self {
            Shards::None => Shards::One(shard),
            Shards::One(s) if s == shard => Shards::One(s),
            _ => Shards::Many,
        };
    }
}

/// The lock plan's sink: `lock → owning shard`, deduplicated and in global
/// lock order.
type Locks = BTreeMap<LockKey, u32>;

impl Pins for Locks {
    fn pin(&mut self, shard: u32, key: impl FnOnce() -> LockKey) {
        self.insert(key(), shard);
    }
}

/// What a transaction resolves to. Dispatch derives the assignment from it
/// and the cross-shard coordinator its lock plan, so the two can never
/// disagree.
enum Resolution<P> {
    /// A payment (default strategy: the sender's home shard).
    Payment,
    /// A call the signature does not cover: the baseline strategy.
    Baseline(Address),
    /// The concrete ownership footprint: every lockable resource the
    /// constraints pin, reported to `pins`. `composed` when it is a whole
    /// cross-contract chain's.
    Footprint { pins: P, composed: bool },
}

/// Resolves a transaction against the current state (paper §4.3,
/// `dispatch_oc(T, x)`): the composed chain first when `compose_calls` is
/// on, the root transition's own constraints otherwise.
///
/// # Errors
///
/// The dispatch reason that forces DS routing: an unknown contract, an
/// unselected or `Unsat` transition, missing arguments, runtime key
/// aliasing, contract-valued `UserAddr` parameters.
fn resolve<P: Pins>(
    tx: &Transaction,
    state: &GlobalState,
    policy: &ChainConfig,
) -> Result<Resolution<P>, DispatchReason> {
    let TxKind::Call { contract, transition, args, .. } = &tx.kind else {
        return Ok(Resolution::Payment);
    };
    // Unknown contract: let the DS committee reject it.
    let deployed = state.contracts.get(contract).ok_or(DispatchReason::BadArguments)?;
    let Some(sig) = deployed.signature.as_ref().filter(|_| policy.use_cosplit) else {
        return Ok(Resolution::Baseline(*contract));
    };
    let tc = sig.transition(transition).ok_or(DispatchReason::Unselected)?;
    let n = policy.num_shards;
    if policy.compose_calls {
        if let Some(pins) = composed_locks(tx, state, deployed, transition, args, n) {
            return Ok(Resolution::Footprint { pins, composed: true });
        }
    }
    let mut pins = P::default();
    instantiate(
        &tc.constraints,
        deployed.address,
        (tx.sender, tx.sender.home_shard(n)),
        &|name| root_value(name, tx.sender, args, deployed),
        None,
        state,
        n,
        &mut pins,
    )?;
    Ok(Resolution::Footprint { pins, composed: false })
}

/// Instantiates one transition's symbolic constraints (of `contract`,
/// called by `sender` living in `sender_shard`) with the concrete values
/// `frame` gives its names, reporting the pinned resources to `pins`. The
/// one place a [`Constraint`] meets a transaction.
///
/// Inside a composed chain (`chain` holds its member contracts), a
/// send-derived `Unsat` is skipped — compose() proved every send of the
/// member lands inside the chain or in a wallet, so the chain's own locks
/// subsume it — and a `UserAddr` that names a chain member is satisfied.
///
/// # Errors
///
/// The first constraint's DS reason, in constraint order.
#[allow(clippy::too_many_arguments)]
fn instantiate(
    constraints: &BTreeSet<Constraint>,
    contract: Address,
    (sender, sender_shard): (Address, u32),
    frame: &dyn Fn(&str) -> Option<Value>,
    chain: Option<&[Address]>,
    state: &GlobalState,
    num_shards: u32,
    pins: &mut impl Pins,
) -> Result<(), DispatchReason> {
    // Derived keys (`sha256hash(account)`) replay their derivation on the
    // resolved base argument, matching the interpreter's builtin evaluation
    // bit-for-bit. A pre-sized loop: collecting through `Option` cannot
    // size the vector up front, which dispatch pays on every transaction.
    let values = |keys: &[String]| -> Result<Vec<Value>, DispatchReason> {
        let mut vals = Vec::with_capacity(keys.len());
        for k in keys {
            let v = cosplit_analysis::domain::resolve_key(k, frame);
            vals.push(v.ok_or(DispatchReason::BadArguments)?);
        }
        Ok(vals)
    };
    for c in constraints {
        match c {
            Constraint::Unsat if chain.is_some() => {}
            Constraint::Unsat => return Err(DispatchReason::Unsat),
            Constraint::Owns(PseudoField { field, keys }) => {
                let key_vals = values(keys)?;
                let shard = component_shard(contract, field, &key_vals, num_shards);
                pins.pin(shard, || LockKey::Component {
                    contract,
                    field: field.clone(),
                    keys: key_vals.iter().map(Value::to_string).collect(),
                });
            }
            Constraint::SenderShard => pins.pin(sender_shard, || LockKey::Account(sender)),
            Constraint::ContractShard => {
                let shard = state.home_shard_of(&contract, num_shards);
                pins.pin(shard, || LockKey::Account(contract));
            }
            Constraint::UserAddr(p) => {
                let bytes = frame(p).as_ref().and_then(Value::as_address);
                let target = Address(bytes.ok_or(DispatchReason::BadArguments)?);
                let in_chain = || chain.is_some_and(|members| members.contains(&target));
                if state.is_contract(&target) && !in_chain() {
                    return Err(DispatchReason::NotUserAddr);
                }
            }
            Constraint::NoAliases(t1, t2) => {
                if values(t1)? == values(t2)? {
                    return Err(DispatchReason::AliasConflict);
                }
            }
        }
    }
    Ok(())
}

/// Resolves a name in the root transition's frame: `_sender`/`_origin` are
/// the transaction sender, anything else a transition argument or, failing
/// that, a deployment parameter.
fn root_value(
    name: &str,
    sender: Address,
    args: &[(String, Value)],
    root: &DeployedContract,
) -> Option<Value> {
    match name {
        "_sender" | "_origin" => Some(sender.to_value()),
        _ => args
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| root.param(name).cloned()),
    }
}

/// Turns a footprint's shards into a decision: none or one shard commits
/// shard-locally, several go to the cross-shard two-phase commit when it is
/// enabled and serialise at the DS committee otherwise. A `composed`
/// whole-chain footprint commits locally as `ComposedLocal`.
fn decide(tx: &Transaction, shards: Shards, policy: &ChainConfig, composed: bool) -> Decision {
    let local = |shard, reason| Decision {
        assignment: Assignment::Shard(shard),
        reason: if composed { DispatchReason::ComposedLocal } else { reason },
    };
    match shards {
        // Fully commutative footprint: spread by transaction id.
        Shards::None => local(
            (fnv1a(&tx.id.to_be_bytes()) % policy.num_shards as u64) as u32,
            DispatchReason::Unconstrained,
        ),
        Shards::One(shard) => local(shard, DispatchReason::OwnershipPinned),
        Shards::Many if policy.cross_shard_commit => {
            Decision { assignment: Assignment::XShard, reason: DispatchReason::CrossShard }
        }
        Shards::Many => {
            Decision { assignment: Assignment::Ds, reason: DispatchReason::SplitFootprint }
        }
    }
}

/// The value a send site's recipient resolves to, seen from `caller`:
/// literals, the caller's deployment parameters and immutable fields
/// (whose epoch-start value is the deployment-time value, so reading it is
/// sound), and `frame` for transition parameters. Shared by composition
/// and the executor's runtime hop check.
pub(crate) fn recipient_value(
    state: &GlobalState,
    caller: Address,
    recipient: &Recipient,
    frame: impl FnOnce(&str) -> Option<Value>,
) -> Option<Value> {
    match recipient {
        Recipient::Literal(c) => Address::from_hex(c).ok().map(Address::to_value),
        Recipient::ContractParam(p) => state.contracts.get(&caller)?.param(p).cloned(),
        Recipient::InitField(f) => state.storage.get(&caller)?.fields().get(f).cloned(),
        Recipient::TransitionParam(p) => frame(p),
        Recipient::Dynamic => None,
    }
}

// ------------------------------------------------- interprocedural chains

/// The deployment view the interprocedural composition runs against on
/// chain: contract identities are `Address` display strings, summaries and
/// call sites come from the deployed contracts, and recipients resolve
/// through [`recipient_value`], transition parameters through the
/// transaction's arguments.
struct ChainView<'a> {
    state: &'a GlobalState,
    root: &'a DeployedContract,
    args: &'a [(String, Value)],
    sender: Address,
}

impl DeploymentView for ChainView<'_> {
    fn resolve_target(
        &self,
        caller: &str,
        recipient: &Recipient,
        binding: Option<&Binding>,
    ) -> Target {
        let Ok(caller) = Address::from_hex(caller) else { return Target::Unknown };
        let value = recipient_value(self.state, caller, recipient, |_| match binding {
            Some(Binding::Param(p)) => root_value(p, self.sender, self.args, self.root),
            Some(Binding::Const(c)) => Address::from_hex(c).ok().map(Address::to_value),
            _ => None,
        });
        match value.as_ref().and_then(Value::as_address).map(Address) {
            None => Target::Unknown,
            Some(addr) if self.state.is_contract(&addr) => Target::Contract(addr.to_string()),
            Some(_) => Target::Wallet,
        }
    }

    fn summary(&self, contract: &str, transition: &str) -> Option<&TransitionSummary> {
        let addr = Address::from_hex(contract).ok()?;
        self.state.contracts.get(&addr)?.summary(transition)
    }

    fn calls(&self, contract: &str) -> Option<&ContractCalls> {
        let addr = Address::from_hex(contract).ok()?;
        Some(self.state.contracts.get(&addr)?.call_info())
    }
}

/// Composes the interprocedural chain rooted at one call, against the
/// current deployment and the transaction's arguments. Shared by dispatch
/// and the executor's trace auditor.
pub(crate) fn compose_chain(
    state: &GlobalState,
    root: &DeployedContract,
    transition: &str,
    args: &[(String, Value)],
    sender: Address,
) -> Option<ComposedSummary> {
    // Cheap gate: transitions without send sites have nothing to compose.
    root.call_info().sites_of(transition).next()?;
    let view = ChainView { state, root, args, sender };
    compose(&view, &root.address.to_string(), transition)
}

/// The whole-chain ownership footprint of a composed cross-contract call:
/// every member's own signature constraints instantiated in the member's
/// frame (its [`Binding`]s, resolved against the transaction), reported to
/// one sink. `None` when composition does not apply (no chain,
/// widened, an unsigned/unselected member, or any constraint that fails)
/// — the caller then falls back to the root transition alone, which names
/// the precise DS reason.
fn composed_locks<P: Pins>(
    tx: &Transaction,
    state: &GlobalState,
    deployed: &DeployedContract,
    transition: &str,
    args: &[(String, Value)],
    num_shards: u32,
) -> Option<P> {
    let composed = compose_chain(state, deployed, transition, args, tx.sender)?;
    if composed.widened || !composed.is_chain() {
        return None;
    }
    let members: Vec<Address> = composed
        .members
        .iter()
        .map(|m| Address::from_hex(&m.contract).ok())
        .collect::<Option<_>>()?;
    let contract_of = |i: usize| members.get(i).copied();
    let mut pins = P::default();
    for (m, &addr) in composed.members.iter().zip(&members) {
        let member = state.contracts.get(&addr)?;
        let tc = member.signature.as_ref()?.transition(&m.transition)?;
        // The member's sender: the transaction sender for the root, the
        // calling member's contract account deeper in.
        let sender = match m.caller {
            None => (tx.sender, tx.sender.home_shard(num_shards)),
            Some(c) => contract_of(c).map(|a| (a, state.home_shard_of(&a, num_shards)))?,
        };
        let frame = |name: &str| match m.bindings.get(name) {
            Some(Binding::Param(p)) => root_value(p, tx.sender, args, deployed),
            Some(Binding::Const(c)) => Address::from_hex(c).ok().map(Address::to_value),
            Some(Binding::Caller(c)) => contract_of(*c).map(Address::to_value),
            Some(Binding::Unknown) => None,
            // Not a transition parameter of this member: a deployment
            // constant of the member contract.
            None => member.param(name).cloned(),
        };
        let chain = Some(members.as_slice());
        instantiate(&tc.constraints, addr, sender, &frame, chain, state, num_shards, &mut pins)
            .ok()?;
    }
    if telemetry::enabled() {
        telemetry::counter!("chain.dispatch.composed_chains").inc();
    }
    Some(pins)
}

/// Resolves the coordinator's lock plan for a cross-shard transaction: the
/// same resolution as [`dispatch_policy`], reified as `(shard, lock)` pairs
/// instead of dispatch's shard summary. With `compose_calls` on and a call that
/// roots a statically-resolved chain, the plan locks the whole chain's
/// composed footprint, so the two-phase commit covers the downstream sends
/// too. The coordinator is the lowest participant; the lock vector is in
/// global key order, which is the deadlock-free acquisition order.
///
/// # Errors
///
/// The [`DispatchReason`] that should send this transaction to the DS
/// committee instead (the state may have changed between packet formation
/// and the commit stage).
pub fn xshard_plan(
    tx: &Transaction,
    state: &GlobalState,
    policy: &ChainConfig,
) -> Result<XShardPlan, DispatchReason> {
    let locks: Locks = match resolve(tx, state, policy)? {
        Resolution::Payment => return Err(DispatchReason::Payment),
        Resolution::Baseline(_) => return Err(DispatchReason::BaselineCross),
        Resolution::Footprint { pins, .. } => pins,
    };
    let participants: BTreeSet<u32> = locks.values().copied().collect();
    let Some(coordinator) = participants.first().copied() else {
        // A fully commutative footprint has nothing to lock; dispatch never
        // routes it here, but fall back to DS defensively.
        return Err(DispatchReason::Unconstrained);
    };
    Ok(XShardPlan {
        coordinator,
        participants,
        locks: locks.into_iter().map(|(k, s)| (s, k)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Account;
    use cosplit_analysis::signature::WeakReads;
    use cosplit_analysis::solver::AnalyzedContract;
    use std::sync::Arc;

    const TOKEN: &str = r#"
        contract Token ()
        field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Transfer (to : ByStr20, amount : Uint128)
          bal_opt <- balances[_sender];
          match bal_opt with
          | Some bal =>
            ok = builtin le amount bal;
            match ok with
            | True =>
              nf = builtin sub bal amount;
              balances[_sender] := nf;
              to_opt <- balances[to];
              nt = match to_opt with
                | Some b => builtin add b amount
                | None => amount
                end;
              balances[to] := nt
            | False => throw
            end
          | None => throw
          end
        end
        transition Mint (to : ByStr20, amount : Uint128)
          to_opt <- balances[to];
          nt = match to_opt with
            | Some b => builtin add b amount
            | None => amount
            end;
          balances[to] := nt
        end
    "#;

    fn setup(with_sig: bool) -> (GlobalState, Address) {
        let caddr = Address::from_index(999);
        let module = scilla::parser::parse_module(TOKEN).unwrap();
        let checked = scilla::typechecker::typecheck(module).unwrap();
        let analyzed = AnalyzedContract::analyze(&checked);
        let signature = with_sig.then(|| {
            analyzed.query(&["Transfer".into(), "Mint".into()], &WeakReads::AcceptAll)
        });
        let compiled = scilla::interpreter::CompiledContract::compile(checked).unwrap();
        let mut state = GlobalState::new();
        state.accounts.insert(caddr, Account::contract());
        state.contracts.insert(
            caddr,
            Arc::new(DeployedContract::new(caddr, compiled, vec![], signature, analyzed.summaries)),
        );
        state.storage.insert(caddr, Default::default());
        (state, caddr)
    }

    fn transfer_tx(sender: u64, to: u64, contract: Address) -> Transaction {
        Transaction::call(
            sender * 1000 + to,
            Address::from_index(sender),
            1,
            contract,
            "Transfer",
            vec![
                ("to".into(), Address::from_index(to).to_value()),
                ("amount".into(), Value::Uint(128, 5)),
            ],
        )
    }

    #[test]
    fn cosplit_pins_transfer_to_sender_component_shard() {
        let (state, c) = setup(true);
        let tx = transfer_tx(1, 2, c);
        let d = dispatch(&tx, &state, 4, true);
        assert_eq!(d.reason, DispatchReason::OwnershipPinned);
        let expected =
            component_shard(c, "balances", &[Address::from_index(1).to_value()], 4);
        assert_eq!(d.assignment, Assignment::Shard(expected));
    }

    #[test]
    fn self_transfer_aliases_and_goes_to_ds() {
        let (state, c) = setup(true);
        let tx = transfer_tx(1, 1, c);
        let d = dispatch(&tx, &state, 4, true);
        assert_eq!(d.assignment, Assignment::Ds);
        assert_eq!(d.reason, DispatchReason::AliasConflict);
    }

    #[test]
    fn mint_is_unconstrained_and_spreads() {
        let (state, c) = setup(true);
        let shards: BTreeSet<Assignment> = (0..64)
            .map(|i| {
                let tx = Transaction::call(
                    i,
                    Address::from_index(7),
                    i,
                    c,
                    "Mint",
                    vec![
                        ("to".into(), Address::from_index(i).to_value()),
                        ("amount".into(), Value::Uint(128, 1)),
                    ],
                );
                let d = dispatch(&tx, &state, 4, true);
                assert_eq!(d.reason, DispatchReason::Unconstrained);
                d.assignment
            })
            .collect();
        assert!(shards.len() > 1, "minting should spread across shards");
    }

    #[test]
    fn baseline_routes_cross_shard_to_ds() {
        let (state, c) = setup(false);
        let mut local = 0;
        let mut ds = 0;
        for i in 0..100 {
            let tx = transfer_tx(i, i + 1, c);
            match dispatch(&tx, &state, 4, true).assignment {
                Assignment::Shard(s) => {
                    assert_eq!(s, c.home_shard(4));
                    local += 1;
                }
                Assignment::Ds => ds += 1,
                Assignment::XShard => panic!("baseline dispatch never picks xshard"),
            }
        }
        assert!(ds > local, "most users live outside the contract's shard");
        assert!(local > 0);
    }

    #[test]
    fn cosplit_flag_off_ignores_signatures() {
        let (state, c) = setup(true);
        let tx = transfer_tx(1, 2, c);
        let d = dispatch(&tx, &state, 4, false);
        assert!(matches!(d.reason, DispatchReason::BaselineLocal | DispatchReason::BaselineCross));
    }

    /// Placement is part of the state layout: `component_shard` must hash
    /// exactly `contract ++ [0] ++ k.to_string()` for a keyed component and
    /// `contract ++ field` for a whole field, and place an address key in
    /// its account's home shard.
    #[test]
    fn component_shard_matches_the_rendered_reference() {
        fn reference(contract: Address, field: &str, keys: &[Value], n: u32) -> u32 {
            let mut bytes = contract.0.to_vec();
            match keys.first() {
                None => bytes.extend_from_slice(field.as_bytes()),
                Some(k) => {
                    if let Some(addr) = k.as_address() {
                        return Address(addr).home_shard(n);
                    }
                    bytes.push(0);
                    bytes.extend_from_slice(k.to_string().as_bytes());
                }
            }
            (fnv1a(&bytes) % n as u64) as u32
        }
        let addr = [0xa5u8; 20];
        let keys = [
            Value::Str("plain".into()),
            Value::Str("say \"hi\"\\ ünïcødé ✓".into()),
            Value::Str(String::new()),
            Value::ByStr((0u8..32).collect()),
            Value::ByStr20(addr),
            Value::ByStr(addr.to_vec()),
            Value::Uint(32, 7),
            Value::Uint(128, u128::MAX),
            Value::Uint(256, 12_345_678_901_234_567_890),
            Value::Int(32, -5),
            Value::Int(64, i64::MIN as i128),
            Value::Int(128, i128::MAX),
            Value::BNum(42),
            Value::some(Value::Uint(64, 9)),
            Value::Adt {
                ctor: scilla::intern::intern("Pair"),
                args: vec![Value::Str("k".into()), Value::bool(true)],
            },
        ];
        for n in [2, 3, 5, 7] {
            for i in 0..16 {
                let contract = Address::from_index(i);
                for field in ["balances", "registry_owners", ""] {
                    let got = component_shard(contract, field, &[], n);
                    assert_eq!(got, reference(contract, field, &[], n), "{field}/{n}");
                    for k in &keys {
                        let path = [k.clone(), Value::Uint(32, 1)];
                        let got = component_shard(contract, field, &path, n);
                        assert_eq!(got, reference(contract, field, &path, n), "{k}/{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn payments_use_sender_home_shard() {
        let (state, _) = setup(false);
        let tx = Transaction::payment(1, Address::from_index(3), 1, Address::from_index(4), 10);
        let d = dispatch(&tx, &state, 4, true);
        assert_eq!(d.assignment, Assignment::Shard(Address::from_index(3).home_shard(4)));
    }
}
