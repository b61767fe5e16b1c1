//! Batch execution of transactions by a shard or by the DS committee.
//!
//! A shard executes its packet sequentially against the epoch-start state
//! snapshot, producing a `MicroBlock` with a [`StateDelta`] (paper Fig. 10).
//! Each contract's working state is a [`CowState`], the one record of the
//! batch's writes: a transaction's writes stay open in it until the
//! executor commits them or, on failure, rolls them back (gas is still
//! charged), and its tree becomes the batch's delta. The DS
//! committee reuses the same executor after the shard deltas merge, with
//! chained contract calls enabled. The cross-shard stage runs it too, one
//! step at a time: it prepares a transaction with its effects left open,
//! and commits or rolls it back once the participants have voted.
//!
//! The native-token side of a batch — balance slices (paper §4.2.2) and
//! relaxed nonces (§4.2.1) — is one table of account slots. The first
//! touch of an address reads its balance and nonces from the snapshot and
//! works out its slice; every later nonce check, fee reservation, refund,
//! transfer and nonce commit indexes the slot, and the sender's slot rides
//! with the prepared transaction, so a batch searches for each account
//! once.
//!
//! This serial loop is the only shard executor. Parallelism is
//! across shards — `Network::execute_shards` runs one thread per shard and
//! the deltas join per field (paper §4) — not inside a packet; DESIGN §6d
//! holds the measurement behind that choice.

use crate::account::NonceState;
use crate::address::Address;
use crate::delta::{ContractDelta, StateDelta};
use crate::dispatch::{component_shard, compose_chain, recipient_value, Assignment};
use crate::tx::{Transaction, TxKind};
use cosplit_analysis::audit::{audit_placement, audit_transition, AuditViolation, ViolationKind};
use cosplit_analysis::signature::Join;
use scilla::builtins::uint_max;
use scilla::error::ExecError;
use scilla::gas::{GasMeter, COST_TX_BASE};
use scilla::interpreter::{ExecMode, OutMsg, TransitionContext};
use scilla::span::Span;
use scilla::state::{CowState, StateStore};
use scilla::trace::{DynamicFootprint, EffectTracer};
use scilla::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::state::{DeployedContract, GlobalState};

/// Execution parameters for one committee in one epoch.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Which committee this is.
    pub role: Assignment,
    /// Total number of transaction shards in the network.
    pub num_shards: u32,
    /// The committee's per-epoch gas budget.
    pub gas_limit: u64,
    /// Current block number.
    pub block_number: u64,
    /// Honour sharding signatures when computing deltas.
    pub use_cosplit: bool,
    /// Enforce the §6 overflow guard on `IntMerge` components.
    pub overflow_guard: bool,
    /// Run every transition with the effect tracer and audit its concrete
    /// footprint against the static summary and sharding discipline.
    pub audit: bool,
    /// Follow statically-validated cross-contract send hops in place
    /// instead of rerouting them to the DS committee: a message whose
    /// recipient matches the classified call site that produced it
    /// ([`cosplit_analysis::callgraph`]) executes here, because dispatch
    /// already locked the whole composed chain. Unvalidated hops still
    /// reroute. Also arms the composed-chain containment cross-check in
    /// audit mode.
    pub compose_calls: bool,
}

/// Outcome of one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxStatus {
    /// Committed with its state changes.
    Success,
    /// Committed, state rolled back, gas charged.
    Failed(String),
    /// Re-routed to the DS committee with no state change and no gas
    /// charged: either the §6 overflow guard fired, or the transaction
    /// turned out not to be single-contract (its message chain reaches
    /// another contract, paper §4.3).
    Rerouted(RerouteCause),
}

/// Why a shard handed a transaction to the DS committee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerouteCause {
    /// The §6 overflow guard on an `IntMerge` component fired.
    OverflowGuard,
    /// The transaction sent a message to another contract.
    CrossContract,
}

/// Internal: distinguishes interpreter failures from reroute conditions.
enum CallError {
    Exec(ExecError),
    CrossContract,
}

impl From<ExecError> for CallError {
    fn from(e: ExecError) -> Self {
        CallError::Exec(e)
    }
}

/// A per-transaction receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The transaction.
    pub tx_id: u64,
    /// What happened.
    pub status: TxStatus,
    /// Gas consumed.
    pub gas_used: u64,
    /// Events emitted (empty unless the transaction succeeded).
    pub events: Vec<Value>,
}

/// What one committee produced in one epoch (paper Fig. 10: MicroBlock +
/// StateDelta).
#[derive(Debug, Clone)]
pub struct MicroBlock {
    /// The producing committee.
    pub role: Assignment,
    /// Receipts for processed transactions, in order.
    pub receipts: Vec<Receipt>,
    /// Transactions that did not fit the gas budget (stay in the pool).
    pub deferred: Vec<Transaction>,
    /// Transactions the overflow guard rerouted to the DS committee.
    pub rerouted: Vec<Transaction>,
    /// The state delta.
    pub delta: StateDelta,
    /// Total gas consumed.
    pub gas_used: u64,
    /// Containment breaches found by the effect-trace auditor (empty unless
    /// `ExecutorConfig::audit` is set; non-empty means a static summary
    /// under-approximated a real execution).
    pub audit_violations: Vec<AuditViolation>,
}

impl MicroBlock {
    /// A committee's block before it has processed anything.
    pub fn empty(role: Assignment) -> MicroBlock {
        MicroBlock {
            role,
            receipts: Vec::new(),
            deferred: Vec::new(),
            rerouted: Vec::new(),
            delta: StateDelta::default(),
            gas_used: 0,
            audit_violations: Vec::new(),
        }
    }

    /// Number of successfully committed transactions.
    pub fn committed(&self) -> usize {
        self.receipts.iter().filter(|r| r.status == TxStatus::Success).count()
    }
}

/// Executes a batch of transactions for one committee against a state
/// snapshot.
pub fn execute_batch(
    cfg: &ExecutorConfig,
    snapshot: &GlobalState,
    txs: Vec<Transaction>,
) -> MicroBlock {
    execute_slice(cfg, snapshot, &txs)
}

/// [`execute_batch`] over a borrowed packet, so a shard thread can run a
/// packet its spawner still owns.
pub fn execute_slice(
    cfg: &ExecutorConfig,
    snapshot: &GlobalState,
    txs: &[Transaction],
) -> MicroBlock {
    let _span = batch_span(cfg, txs.len());
    let mut exec = Executor::new(cfg, snapshot);
    let mut over_budget = false;
    for tx in txs {
        // Once one transaction waits, every later one a budget admits waits
        // too, so the packet keeps its order.
        over_budget = over_budget || exec.over_budget(tx);
        if over_budget && tx.gas_limit <= cfg.gas_limit {
            exec.defer(tx.clone());
            continue;
        }
        let prepared = exec.prepare(tx);
        exec.commit(tx, prepared);
    }
    let mb = exec.finish();
    record_batch_metrics(&mb);
    mb
}

/// The span one committee's batch runs under
/// (`chain.executor.batch_duration`).
pub(crate) fn batch_span(cfg: &ExecutorConfig, txs: usize) -> telemetry::SpanGuard {
    let mut span = telemetry::span!("chain.executor.batch_duration");
    if span.trace_id() != 0 {
        span.attr("role", crate::network::assignment_label(cfg.role));
        span.attr("txs", txs);
    }
    span
}

/// Records per-batch outcome counters and the delta-size histogram
/// (`chain.executor.*`).
pub(crate) fn record_batch_metrics(mb: &MicroBlock) {
    if !telemetry::enabled() {
        return;
    }
    let mut success = 0u64;
    let mut failed = 0u64;
    let mut rerouted = 0u64;
    for r in &mb.receipts {
        match &r.status {
            TxStatus::Success => success += 1,
            TxStatus::Failed(_) => failed += 1,
            TxStatus::Rerouted(cause) => {
                rerouted += 1;
                match cause {
                    RerouteCause::OverflowGuard => {
                        telemetry::counter!("chain.executor.reroute.overflow_guard").inc()
                    }
                    RerouteCause::CrossContract => {
                        telemetry::counter!("chain.executor.reroute.cross_contract").inc()
                    }
                }
            }
        }
    }
    telemetry::counter!("chain.executor.tx_status.success").add(success);
    telemetry::counter!("chain.executor.tx_status.failed").add(failed);
    telemetry::counter!("chain.executor.tx_status.rerouted").add(rerouted);
    telemetry::counter!("chain.executor.deferred").add(mb.deferred.len() as u64);
    telemetry::counter!("chain.executor.gas_used").add(mb.gas_used);
    telemetry::histogram!("chain.executor.delta_components", telemetry::SIZE_BUCKETS)
        .record(mb.delta.changed_components() as u64);
}

/// The batch's account bookkeeping: the balance slices (paper §4.2.2:
/// "splitting a user's balance across shards, with a larger fraction given
/// to the shard handling money transfers from that user") and the relaxed
/// nonces (§4.2.1), one slot per account. The first touch of an address
/// reads its epoch-start balance and nonces and works out its slice, once;
/// every later nonce check, debit, credit and nonce commit indexes the
/// slot, so a batch searches for each account once.
struct Ledger<'a> {
    snapshot: &'a GlobalState,
    role: Assignment,
    num_shards: u32,
    /// Slot of every touched address. Never iterated, as its order varies
    /// between runs: `into_delta` emits in address order.
    index: HashMap<Address, usize>,
    slots: Vec<Slot<'a>>,
    /// `(slot, spent, delta)` before each mutation since the last commit,
    /// so a per-transaction rollback is O(mutations).
    log: Vec<(usize, u128, i128)>,
}

/// One account's bookkeeping in a batch.
struct Slot<'a> {
    addr: Address,
    /// What gross debits may add up to. For the cross-shard stage, the
    /// epoch-start balance its running limit starts from.
    slice: u128,
    /// Gross debits, checked against the slice.
    spent: u128,
    /// Net change, reported in the state delta.
    delta: i128,
    /// Epoch-start nonces (`None`: no account yet).
    nonces: Option<&'a NonceState>,
    /// Nonces committed in this batch, ascending.
    committed: Vec<u64>,
}

impl<'a> Ledger<'a> {
    fn new(snapshot: &'a GlobalState, role: Assignment, num_shards: u32) -> Ledger<'a> {
        Ledger {
            snapshot,
            role,
            num_shards,
            index: HashMap::new(),
            slots: Vec::new(),
            log: Vec::new(),
        }
    }

    /// `addr`'s slot, made on first touch.
    fn slot(&mut self, addr: Address) -> usize {
        if let Some(&i) = self.index.get(&addr) {
            return i;
        }
        let account = self.snapshot.accounts.get(&addr);
        let base = account.map_or(0, |a| a.balance);
        let slice = match self.role {
            // The DS committee sees everything. A cross-shard coordinator
            // locks the accounts its footprint pins, so it works the full
            // balance too, and its limit runs (see `debit`).
            Assignment::Ds | Assignment::XShard => base,
            Assignment::Shard(s) => {
                let n = self.num_shards as u128;
                if self.snapshot.is_contract(&addr) {
                    // A contract's funds move only in its home shard
                    // (`ContractShard` constraint; placement-aware, so a
                    // co-located family's funds follow its dispatch shard).
                    if self.snapshot.home_shard_of(&addr, self.num_shards) == s {
                        base
                    } else {
                        0
                    }
                } else {
                    // The away-slice is base/(4n); the home shard keeps the
                    // rest.
                    let away = base / (4 * n);
                    if addr.home_shard(self.num_shards) == s {
                        base - away * (n - 1)
                    } else {
                        away
                    }
                }
            }
        };
        let i = self.slots.len();
        self.slots.push(Slot {
            addr,
            slice,
            spent: 0,
            delta: 0,
            nonces: account.map(|a| &a.nonces),
            committed: Vec::new(),
        });
        self.index.insert(addr, i);
        i
    }

    fn debit(&mut self, i: usize, amount: u128) -> Result<(), String> {
        let slot = &mut self.slots[i];
        let limit = match self.role {
            // The stage settles one transaction at a time, so what it
            // credited (refunds included) is spendable: the limit is the
            // running balance plus the debits.
            Assignment::XShard => {
                slot.slice.saturating_add(slot.spent.saturating_add_signed(slot.delta))
            }
            _ => slot.slice,
        };
        // Checked: a hostile amount must neither wrap past the slice test
        // nor change sign in the signed delta (`amount ≤ spent ≤ i128::MAX`).
        let spent = slot
            .spent
            .checked_add(amount)
            .filter(|total| *total <= limit && i128::try_from(*total).is_ok())
            .ok_or_else(|| format!("insufficient balance slice for {}", slot.addr))?;
        self.log.push((i, slot.spent, slot.delta));
        slot.spent = spent;
        slot.delta -= amount as i128;
        Ok(())
    }

    /// Checked like a debit: credits that would take the account's batch
    /// delta past `i128::MAX` fail the transaction instead of wrapping.
    fn credit(&mut self, i: usize, amount: u128) -> Result<(), String> {
        let slot = &mut self.slots[i];
        let delta = i128::try_from(amount)
            .ok()
            .and_then(|amount| slot.delta.checked_add(amount))
            .ok_or_else(|| format!("balance delta overflow for {}", slot.addr))?;
        self.log.push((i, slot.spent, slot.delta));
        slot.delta = delta;
        Ok(())
    }

    fn checkpoint(&self) -> usize {
        self.log.len()
    }

    fn undo(&mut self, checkpoint: usize) {
        for (i, spent, delta) in self.log.drain(checkpoint..).rev() {
            let slot = &mut self.slots[i];
            (slot.spent, slot.delta) = (spent, delta);
        }
    }

    /// Drops the undo log: no checkpoint outlives a commit.
    fn settle(&mut self) {
        self.log.clear();
    }

    fn nonce_usable(&self, i: usize, nonce: u64) -> bool {
        let slot = &self.slots[i];
        slot.nonces.map_or(nonce > 0, |n| n.is_usable(nonce))
            && slot.committed.binary_search(&nonce).is_err()
    }

    fn commit_nonce(&mut self, i: usize, nonce: u64) {
        let committed = &mut self.slots[i].committed;
        if let Err(at) = committed.binary_search(&nonce) {
            committed.insert(at, nonce);
        }
    }

    /// The batch's non-zero balance deltas and committed nonces, by address.
    fn into_delta(self) -> (BTreeMap<Address, i128>, BTreeMap<Address, Vec<u64>>) {
        let balances =
            self.slots.iter().filter(|s| s.delta != 0).map(|s| (s.addr, s.delta)).collect();
        let nonces = self
            .slots
            .into_iter()
            .filter(|s| !s.committed.is_empty())
            .map(|s| (s.addr, s.committed))
            .collect();
        (balances, nonces)
    }
}

/// The frame a message was sent from, as [`Executor::deliver`] needs it to
/// validate the hop against the sender's classified call sites.
struct CallerFrame<'a> {
    contract: Address,
    transition: &'a str,
    args: &'a [(String, Value)],
    sender: Address,
}

/// One audited transition invocation, retained for the composed-chain
/// cross-check (populated only when `ExecutorConfig::audit` is set).
struct TracedCall {
    tx_id: u64,
    contract: Address,
    sender: Address,
    args: Vec<(String, Value)>,
    footprint: DynamicFootprint,
}

/// One committee's executor: it runs a batch one transaction at a time on
/// its working state, and [`Executor::finish`] emits the batch's one delta.
pub(crate) struct Executor<'a> {
    cfg: &'a ExecutorConfig,
    snapshot: &'a GlobalState,
    /// Each invoked contract's working view: a copy-on-write overlay over
    /// the epoch-start snapshot, so creating it is O(1) and an epoch costs
    /// O(touched state), never O(total state).
    storages: BTreeMap<Address, CowState>,
    /// The contracts the open transaction invoked. There is at most one
    /// open transaction: each prepare is committed or rolled back before
    /// the next.
    open: Vec<Address>,
    balance: Ledger<'a>,
    receipts: Vec<Receipt>,
    /// Transactions that stay in the pool for a later epoch.
    pub(crate) deferred: Vec<Transaction>,
    rerouted: Vec<Transaction>,
    gas_used: u64,
    violations: Vec<AuditViolation>,
    traced: Vec<TracedCall>,
    /// Id of the transaction being prepared (tags traced calls).
    current_tx: u64,
}

/// A transaction [`Executor::prepare`] ran whose effects are still open:
/// its storage writes, ledger entries and audit records stay undoable until
/// [`Executor::commit`] or [`Executor::rollback`] settles it.
pub(crate) struct Prepared {
    receipt: Receipt,
    /// Commit counts its gas and consumes its nonce (not refused or rerouted).
    charged: bool,
    /// The sender's ledger slot.
    sender: usize,
    /// The ledger before the fee reservation.
    ledger_cp: usize,
    /// Audit records before the transaction ran.
    violations: usize,
    traced: usize,
}

impl Prepared {
    /// Refused before running: a `Failed` receipt, the nonce still usable.
    fn refused(mut self, why: &str) -> Prepared {
        self.receipt.status = TxStatus::Failed(why.into());
        self
    }

    /// Did the transaction reroute (overflow guard or cross-contract call)?
    pub(crate) fn rerouted(&self) -> bool {
        matches!(self.receipt.status, TxStatus::Rerouted(_))
    }
}

impl<'a> Executor<'a> {
    pub(crate) fn new(cfg: &'a ExecutorConfig, snapshot: &'a GlobalState) -> Executor<'a> {
        Executor {
            cfg,
            snapshot,
            storages: BTreeMap::new(),
            open: Vec::new(),
            balance: Ledger::new(snapshot, cfg.role, cfg.num_shards),
            receipts: Vec::new(),
            deferred: Vec::new(),
            rerouted: Vec::new(),
            gas_used: 0,
            violations: Vec::new(),
            traced: Vec::new(),
            current_tx: 0,
        }
    }

    /// Whether `tx` must wait for a later epoch because what is left of the
    /// budget cannot hold it. Never for a transaction no budget admits:
    /// deferring it would never end, so [`Executor::prepare`] fails it.
    pub(crate) fn over_budget(&self, tx: &Transaction) -> bool {
        tx.gas_limit <= self.cfg.gas_limit
            && self.gas_used.saturating_add(tx.gas_limit) > self.cfg.gas_limit
    }

    /// Leaves `tx` in the pool for a later epoch: the budget is spent.
    pub(crate) fn defer(&mut self, tx: Transaction) {
        telemetry::trace::instant_with(telemetry::names::TX_DEFER, |a| {
            a.push(("tx", tx.id.into()));
            a.push(("why", "gas_budget".into()));
        });
        self.deferred.push(tx);
    }

    /// Runs one transaction and leaves its effects open, wrapped in a
    /// per-transaction trace span (`chain.tx.exec`) carrying the committee
    /// and the receipt's outcome.
    pub(crate) fn prepare(&mut self, tx: &Transaction) -> Prepared {
        if !telemetry::trace::tracing_enabled() {
            return self.prepare_inner(tx);
        }
        let mut span = telemetry::span!(telemetry::names::TX_EXEC);
        span.attr("tx", tx.id);
        span.attr("role", crate::network::assignment_label(self.cfg.role));
        let prepared = self.prepare_inner(tx);
        let status: telemetry::trace::AttrValue = match &prepared.receipt.status {
            TxStatus::Success => "success".into(),
            TxStatus::Failed(e) => format!("failed:{e}").into(),
            TxStatus::Rerouted(RerouteCause::OverflowGuard) => "rerouted:overflow_guard".into(),
            TxStatus::Rerouted(RerouteCause::CrossContract) => "rerouted:cross_contract".into(),
        };
        span.attr("status", status);
        span.attr("gas", prepared.receipt.gas_used);
        prepared
    }

    fn prepare_inner(&mut self, tx: &Transaction) -> Prepared {
        self.current_tx = tx.id;
        let sender = self.balance.slot(tx.sender);
        let mut prepared = Prepared {
            receipt: Receipt {
                tx_id: tx.id,
                status: TxStatus::Success,
                gas_used: 0,
                events: vec![],
            },
            charged: false,
            sender,
            ledger_cp: self.balance.checkpoint(),
            violations: self.violations.len(),
            traced: self.traced.len(),
        };
        if tx.gas_limit > self.cfg.gas_limit {
            // Deferring would never end: not even an empty budget admits
            // this transaction, and it would block the packet behind it.
            return prepared.refused("gas limit exceeds the committee's budget");
        }
        if !self.balance.nonce_usable(sender, tx.nonce) {
            return prepared.refused("nonce already used");
        }

        // Reserve the full gas budget up front; refund after execution. A
        // price that overflows the reservation cannot be paid by anyone.
        let reserved = u128::from(tx.gas_limit)
            .checked_mul(tx.gas_price)
            .filter(|fee| self.balance.debit(sender, *fee).is_ok());
        let Some(fee_reserve) = reserved else {
            return prepared.refused("cannot reserve gas");
        };

        let after_fee = self.balance.checkpoint();
        let (mut status, gas, mut events) = match &tx.kind {
            TxKind::Payment { to, amount } => {
                let to = self.balance.slot(*to);
                let moved = self
                    .balance
                    .debit(sender, *amount)
                    .and_then(|()| self.balance.credit(to, *amount));
                let status = match moved {
                    Ok(()) => TxStatus::Success,
                    Err(e) => {
                        self.balance.undo(after_fee);
                        TxStatus::Failed(e)
                    }
                };
                (status, COST_TX_BASE, Vec::new())
            }
            TxKind::Call { contract, transition, args, amount } => {
                self.run_call(tx, *contract, transition, args, *amount)
            }
        };

        if let TxStatus::Rerouted(_) = status {
            // No gas charged: release the reservation. Committing hands the
            // transaction to the DS committee.
            self.balance.undo(prepared.ledger_cp);
            prepared.receipt.status = status;
            return prepared;
        }

        // Refund unused gas (a payment's flat charge can exceed a tiny
        // `gas_limit`, hence the saturating product and difference).
        let actual_fee = u128::from(gas).saturating_mul(tx.gas_price);
        let refund = fee_reserve.saturating_sub(actual_fee);
        if let Err(e) = self.balance.credit(sender, refund) {
            // Only credits the transaction paid its own sender can leave
            // the refund no room. Fail it: with its effects undone the
            // refund fits, since it returns at most the reserved fee.
            self.close(CowState::rollback);
            self.balance.undo(after_fee);
            let refunded = self.balance.credit(sender, refund);
            debug_assert!(refunded.is_ok(), "a refund fits the delta it was reserved from");
            (status, events) = (TxStatus::Failed(e), Vec::new());
        }
        prepared.receipt = Receipt { tx_id: tx.id, status, gas_used: gas, events };
        prepared.charged = true;
        prepared
    }

    /// Settles a prepare into the batch: its writes join the delta, its
    /// receipt is issued, and a charged transaction's gas and nonce count.
    pub(crate) fn commit(&mut self, tx: &Transaction, prepared: Prepared) {
        if prepared.rerouted() {
            self.rerouted.push(tx.clone());
        }
        self.close(CowState::commit);
        self.balance.settle();
        if prepared.charged {
            self.gas_used += prepared.receipt.gas_used;
            self.balance.commit_nonce(prepared.sender, tx.nonce);
        }
        self.receipts.push(prepared.receipt);
    }

    /// Undoes a prepare as if the transaction had never run: no write, fee,
    /// nonce, receipt or audit record remains.
    pub(crate) fn rollback(&mut self, prepared: Prepared) {
        self.close(CowState::rollback);
        self.balance.undo(prepared.ledger_cp);
        self.violations.truncate(prepared.violations);
        self.traced.truncate(prepared.traced);
    }

    /// Commits or rolls back the open transaction's storage writes.
    fn close(&mut self, settle: fn(&mut CowState)) {
        for contract in self.open.drain(..) {
            if let Some(state) = self.storages.get_mut(&contract) {
                settle(state);
            }
        }
    }

    /// Runs a call. On success its writes stay open; on failure or reroute
    /// they are rolled back here, and so is the ledger back to the fee
    /// reservation.
    fn run_call(
        &mut self,
        tx: &Transaction,
        contract: Address,
        transition: &str,
        args: &[(String, Value)],
        amount: u128,
    ) -> (TxStatus, u64, Vec<Value>) {
        let mut gas = GasMeter::new(tx.gas_limit.saturating_sub(COST_TX_BASE));
        let ledger_cp = self.balance.checkpoint();
        let mut events = Vec::new();
        let result = self.invoke(
            &mut gas,
            &mut events,
            tx.sender,
            tx.sender,
            contract,
            transition,
            args,
            amount,
            0,
        );
        let gas_total = COST_TX_BASE + gas.used();
        let (status, charged) = match result {
            Ok(()) if self.cfg.overflow_guard && self.overflows() => {
                (TxStatus::Rerouted(RerouteCause::OverflowGuard), 0)
            }
            Ok(()) => return (TxStatus::Success, gas_total, events),
            // The conservative single-contract check failed at runtime:
            // hand the whole transaction to the DS committee.
            Err(CallError::CrossContract) => (TxStatus::Rerouted(RerouteCause::CrossContract), 0),
            Err(CallError::Exec(e)) => (TxStatus::Failed(e.to_string()), gas_total),
        };
        self.close(CowState::rollback);
        // The checkpoint was taken after the fee reservation, so undoing
        // restores exactly the reserved-fee ledger state.
        self.balance.undo(ledger_cp);
        (status, charged, Vec::new())
    }

    /// Executes one transition invocation, recursing into messages sent to
    /// other contracts (DS committee only).
    #[allow(clippy::too_many_arguments)]
    fn invoke(
        &mut self,
        gas: &mut GasMeter,
        events: &mut Vec<Value>,
        origin: Address,
        sender: Address,
        contract: Address,
        transition: &str,
        args: &[(String, Value)],
        amount: u128,
        depth: u32,
    ) -> Result<(), CallError> {
        if depth > 4 {
            return Err(ExecError::BadInvocation("message chain too deep".into()).into());
        }
        let snapshot: &'a GlobalState = self.snapshot;
        let deployed = snapshot
            .contracts
            .get(&contract)
            .ok_or_else(|| ExecError::BadInvocation(format!("no contract at {contract}")))?;

        let ctx = TransitionContext {
            sender: sender.0,
            origin: origin.0,
            amount,
            this_address: contract.0,
            block_number: self.cfg.block_number,
        };

        let mut tracer = self.cfg.audit.then(|| EffectTracer::new(transition));
        let outcome = deployed
            .compiled
            .execute_mode(
                self.open_storage(contract),
                transition,
                args,
                &deployed.params,
                &ctx,
                gas,
                tracer.as_mut(),
                ExecMode::Auto,
            )
            .map_err(CallError::Exec)?;
        let footprint = tracer.map(EffectTracer::finish);
        if let Some(fp) = footprint {
            self.audit_invocation(deployed, &fp, args, &ctx);
            self.traced.push(TracedCall {
                tx_id: self.current_tx,
                contract,
                sender,
                args: args.to_vec(),
                footprint: fp,
            });
        }

        if outcome.accepted && amount > 0 {
            self.transfer(sender, contract, amount)?;
        }
        events.extend(outcome.events);

        for msg in outcome.messages {
            self.deliver(
                gas,
                events,
                origin,
                CallerFrame { contract, transition, args, sender },
                &msg,
                depth,
            )?;
        }
        Ok(())
    }

    /// Audits one traced invocation: containment of the concrete footprint
    /// in the static summary, plus the sharding-placement discipline when
    /// this committee is a shard and the contract carries a signature.
    fn audit_invocation(
        &mut self,
        deployed: &DeployedContract,
        fp: &DynamicFootprint,
        args: &[(String, Value)],
        ctx: &TransitionContext,
    ) {
        if telemetry::enabled() {
            telemetry::counter!(telemetry::names::AUDIT_TRACED).inc();
        }
        let resolve = |name: &str| -> Option<Value> {
            match name {
                "_sender" => Some(Value::address(ctx.sender)),
                "_origin" => Some(Value::address(ctx.origin)),
                "_amount" => Some(Value::Uint(128, ctx.amount)),
                "_this_address" => Some(Value::address(ctx.this_address)),
                _ => args
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.clone())
                    .or_else(|| deployed.param(name).cloned()),
            }
        };
        let mut found = Vec::new();
        if let Some(summary) = deployed.summary(&fp.transition) {
            found.extend(audit_transition(fp, summary, &resolve));
        }
        if self.cfg.use_cosplit {
            if let (Assignment::Shard(s), Some(sig)) = (self.cfg.role, &deployed.signature) {
                if let Some(tcons) = sig.transition(&fp.transition) {
                    let contract = deployed.address;
                    let shard_of = |field: &str, keys: &[Value]| {
                        component_shard(contract, field, keys, self.cfg.num_shards)
                    };
                    found.extend(audit_placement(fp, sig, tcons, s, &shard_of));
                }
            }
        }
        if telemetry::enabled() && !found.is_empty() {
            telemetry::counter!(telemetry::names::AUDIT_VIOLATION).add(found.len() as u64);
        }
        self.violations.extend(found);
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        gas: &mut GasMeter,
        events: &mut Vec<Value>,
        origin: Address,
        from: CallerFrame<'_>,
        msg: &OutMsg,
        depth: u32,
    ) -> Result<(), CallError> {
        let recipient = Address(msg.recipient);
        if self.snapshot.is_contract(&recipient) {
            // The DS committee follows every hop. A shard (or the cross-shard
            // stage) may follow one in place only when dispatch could have
            // predicted it: the message must match a statically classified
            // call site of the sending transition whose resolved recipient is
            // this recipient. Everything else reroutes to DS.
            let may_follow = self.cfg.role == Assignment::Ds
                || (self.cfg.compose_calls && self.hop_allowed(&from, msg, recipient));
            if !may_follow {
                return Err(CallError::CrossContract);
            }
            let args: Vec<(String, Value)> =
                msg.params().map(|(k, v)| (k.to_owned(), v.clone())).collect();
            return self.invoke(
                gas,
                events,
                origin,
                from.contract,
                recipient,
                msg.tag(),
                &args,
                msg.amount,
                depth + 1,
            );
        }
        if msg.amount > 0 {
            self.transfer(from.contract, recipient, msg.amount)?;
        }
        Ok(())
    }

    /// Moves funds for `accept` or `send`. A failure leaves the ledger for
    /// [`Executor::run_call`] to undo.
    fn transfer(&mut self, from: Address, to: Address, amount: u128) -> Result<(), CallError> {
        let (from, to) = (self.balance.slot(from), self.balance.slot(to));
        self.balance.debit(from, amount).map_err(ExecError::InsufficientFunds)?;
        self.balance.credit(to, amount).map_err(ExecError::Arith)?;
        Ok(())
    }

    /// Validates one concrete send hop against the sender's classified call
    /// sites: some site of the sending transition must carry this tag and
    /// resolve — through deployment parameters, immutable init fields, or
    /// the caller's own frame — to exactly this recipient. This is the
    /// runtime re-check of the resolution dispatch composed over, so a
    /// contract whose behaviour diverges from its static call graph (stale
    /// summaries, byzantine code) falls back to DS instead of executing an
    /// unlocked hop.
    fn hop_allowed(&self, from: &CallerFrame<'_>, msg: &OutMsg, recipient: Address) -> bool {
        let Some(deployed) = self.snapshot.contracts.get(&from.contract) else {
            return false;
        };
        deployed.call_info().sites_of(from.transition).any(|site| {
            let frame = |p: &str| match p {
                "_sender" => Some(from.sender.to_value()),
                "_origin" => None, // origin is never a contract's frame value here
                _ => from.args.iter().find(|(n, _)| n == p).map(|(_, v)| v.clone()),
            };
            site.tag.as_deref() == Some(msg.tag())
                && recipient_value(self.snapshot, from.contract, &site.recipient, frame)
                    .as_ref()
                    .and_then(Value::as_address)
                    == Some(recipient.0)
        })
    }

    /// The contract's working state, joined to the open transaction.
    fn open_storage(&mut self, contract: Address) -> &mut CowState {
        if !self.open.contains(&contract) {
            self.open.push(contract);
        }
        // O(1): the epoch-start store is Arc-shared, not copied.
        let base = self.snapshot.storage.get(&contract);
        self.storages
            .entry(contract)
            .or_insert_with(|| base.map(|b| CowState::new(Arc::clone(b))).unwrap_or_default())
    }

    /// The §6 overflow guard: for every `IntMerge` component the *open
    /// transaction* wrote, the shard's cumulative positive delta (which
    /// includes earlier committed transactions, via the working state) must
    /// not exceed `⌊(MAX − v)/N⌋` of the epoch-start value `v`.
    fn overflows(&self) -> bool {
        // The DS committee serialises against merged state; the cross-shard
        // stage likewise settles each prepare before the next, so neither
        // needs the N-way headroom split.
        if matches!(self.cfg.role, Assignment::Ds | Assignment::XShard) {
            return false;
        }
        self.open.iter().any(|contract| {
            let (Some(joins), Some(state)) = (self.joins_of(contract), self.storages.get(contract))
            else {
                return false;
            };
            let base = self.snapshot.storage.get(contract);
            state.uncommitted().any(|(field, keys)| {
                if joins.get(field.as_str()) != Some(&Join::IntMerge) {
                    return false;
                }
                let initial: u128 = match base.and_then(|s| s.get(field, keys)) {
                    Some(Value::Uint(_, n)) => n,
                    None => 0,
                    // A non-integer epoch-start value cannot be guarded;
                    // force the conservative path.
                    Some(_) => return true,
                };
                let Some(Value::Uint(width, now)) = state.get(field, keys) else { return false };
                let headroom = uint_max(width).saturating_sub(initial);
                now > initial && now - initial > headroom / self.cfg.num_shards as u128
            })
        })
    }

    fn joins_of(&self, contract: &Address) -> Option<&BTreeMap<String, Join>> {
        if !self.cfg.use_cosplit {
            return None;
        }
        self.snapshot.contracts.get(contract).and_then(|d| d.signature.as_ref()).map(|s| &s.joins)
    }

    /// Composed-chain containment cross-check (audit + compose mode): for
    /// every traced transaction whose invocations span several contracts,
    /// re-run the interprocedural composition from the root frame and
    /// require every executed frame to appear in the composed callee set.
    /// An escape means a chain executed a hop the static call graph did not
    /// predict — the locks dispatch took did not cover it.
    fn composed_cross_check(&mut self) {
        if !self.cfg.compose_calls || self.traced.is_empty() {
            return;
        }
        let mut found = Vec::new();
        let mut i = 0;
        while i < self.traced.len() {
            let mut j = i + 1;
            while j < self.traced.len() && self.traced[j].tx_id == self.traced[i].tx_id {
                j += 1;
            }
            let group = &self.traced[i..j];
            i = j;
            // Root-frame trace order: the root is pushed before its
            // messages deliver, so it is first in the group.
            let root = &group[0];
            if !group.iter().any(|t| t.contract != root.contract) {
                continue; // single-contract: nothing composed to check.
            }
            let Some(deployed) = self.snapshot.contracts.get(&root.contract) else { continue };
            let composed = compose_chain(
                self.snapshot,
                deployed,
                &root.footprint.transition,
                &root.args,
                root.sender,
            );
            // No claim to check: composition declined or widened to ⊤, so
            // dispatch never routed this chain shard-locally.
            let Some(composed) = composed.filter(|c| !c.widened) else { continue };
            for frame in &group[1..] {
                let contract = frame.contract.to_string();
                if composed.contains(&contract, &frame.footprint.transition) {
                    continue;
                }
                found.push(AuditViolation {
                    kind: ViolationKind::ComposedEscape,
                    transition: root.footprint.transition.clone(),
                    pseudofield: None,
                    concrete: format!(
                        "tx {} reached {}.{} outside the composed callee set",
                        root.tx_id, contract, frame.footprint.transition
                    ),
                    abstract_op: None,
                    observed_op: None,
                    span: Span::default(),
                });
            }
        }
        if telemetry::enabled() && !found.is_empty() {
            telemetry::counter!(telemetry::names::AUDIT_VIOLATION).add(found.len() as u64);
        }
        self.violations.extend(found);
    }

    pub(crate) fn finish(mut self) -> MicroBlock {
        self.composed_cross_check();
        let mut delta = StateDelta::new();
        for (addr, state) in std::mem::take(&mut self.storages) {
            let cd = ContractDelta::from_state(state, self.joins_of(&addr));
            if !cd.is_empty() {
                delta.contracts.insert(addr, cd);
            }
        }
        // Nonces sorted, as `StateDelta::merge_ref` canonicalises them.
        (delta.balances, delta.nonces) = self.balance.into_delta();

        MicroBlock {
            role: self.cfg.role,
            receipts: self.receipts,
            deferred: self.deferred,
            rerouted: self.rerouted,
            delta,
            gas_used: self.gas_used,
            audit_violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Account;
    use crate::network::{ChainConfig, Network};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The ledger stated over whole maps, as the executor kept it before
    /// slots: gross debits checked against a slice read from the snapshot at
    /// every debit, net deltas, undo to a checkpoint, and the cross-shard
    /// stage's running limit.
    struct Model<'a> {
        snapshot: &'a GlobalState,
        role: Assignment,
        spent: BTreeMap<Address, u128>,
        deltas: BTreeMap<Address, i128>,
        nonces: BTreeMap<Address, BTreeSet<u64>>,
        /// The maps at each live checkpoint, outermost first.
        saved: Vec<(BTreeMap<Address, u128>, BTreeMap<Address, i128>)>,
    }

    impl Model<'_> {
        fn slice(&self, addr: &Address) -> u128 {
            let base = self.snapshot.balance(addr);
            match self.role {
                Assignment::Ds => base,
                Assignment::XShard => {
                    let debited = self.spent.get(addr).copied().unwrap_or(0);
                    let net = self.deltas.get(addr).copied().unwrap_or(0);
                    base.saturating_add(debited.saturating_add_signed(net))
                }
                Assignment::Shard(s) => {
                    let n = u128::from(SHARDS);
                    if self.snapshot.is_contract(addr) {
                        if self.snapshot.home_shard_of(addr, SHARDS) == s {
                            base
                        } else {
                            0
                        }
                    } else if addr.home_shard(SHARDS) == s {
                        base - base / (4 * n) * (n - 1)
                    } else {
                        base / (4 * n)
                    }
                }
            }
        }

        fn debit(&mut self, addr: Address, amount: u128) -> bool {
            let spent = self.spent.get(&addr).copied().unwrap_or(0);
            let Some(total) = spent.checked_add(amount) else { return false };
            if total > self.slice(&addr) || total > i128::MAX as u128 {
                return false;
            }
            self.spent.insert(addr, total);
            *self.deltas.entry(addr).or_default() -= amount as i128;
            true
        }

        fn credit(&mut self, addr: Address, amount: u128) -> bool {
            let delta = self.deltas.get(&addr).copied().unwrap_or(0);
            let Some(sum) = i128::try_from(amount).ok().and_then(|a| delta.checked_add(a)) else {
                return false;
            };
            self.deltas.insert(addr, sum);
            true
        }

        fn nonce_usable(&self, addr: &Address, nonce: u64) -> bool {
            let base =
                self.snapshot.accounts.get(addr).map_or(nonce > 0, |a| a.nonces.is_usable(nonce));
            base && !self.nonces.get(addr).is_some_and(|ns| ns.contains(&nonce))
        }
    }

    const SHARDS: u32 = 2;

    #[derive(Debug, Clone)]
    enum Op {
        Debit(usize, u128),
        Credit(usize, u128),
        Checkpoint,
        /// Undo to one of the live checkpoints (index modulo their count).
        Undo(usize),
        /// A commit: every checkpoint dies.
        Settle,
        NonceCheck(usize, u64),
        NonceCommit(usize, u64),
    }

    /// A user at home in shard 0, a user away from it, a contract placed on
    /// shard 0, one placed off it, and an absent account.
    fn accounts() -> (GlobalState, [Address; 5]) {
        let user = |shard| (100..).map(Address::from_index).find(|a| a.home_shard(SHARDS) == shard);
        let (home, away) = (user(0).unwrap(), user(1).unwrap());
        let (on, off) = (Address::from_index(900), Address::from_index(901));
        let mut net = Network::new(ChainConfig::evaluation(SHARDS, true));
        let source = scilla::corpus::get("HelloWorld").unwrap().source;
        for c in [on, off] {
            net.deploy(c, source, vec![("hello_owner".into(), home.to_value())], None).unwrap();
        }
        let mut state = net.state().clone();
        state.placement.insert(on, 0);
        state.placement.insert(off, 1);
        for (addr, committed) in [(home, &[1, 2, 3, 5][..]), (away, &[2][..])] {
            let mut account = Account::user(0);
            for &n in committed {
                account.nonces.commit(n);
            }
            state.accounts.insert(addr, account);
        }
        (state, [home, away, on, off, Address::from_index(999)])
    }

    fn amount() -> impl Strategy<Value = u128> {
        prop_oneof![
            0u128..3_000,
            (0u32..4).prop_map(|k| (i128::MAX as u128 >> k) + 7),
            any::<u128>()
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..5, amount()).prop_map(|(a, x)| Op::Debit(a, x)),
            (0usize..5, amount()).prop_map(|(a, x)| Op::Credit(a, x)),
            Just(Op::Checkpoint),
            (0usize..8).prop_map(Op::Undo),
            Just(Op::Settle),
            (0usize..5, 0u64..8).prop_map(|(a, n)| Op::NonceCheck(a, n)),
            (0usize..5, 0u64..8).prop_map(|(a, n)| Op::NonceCommit(a, n)),
        ]
    }

    fn role() -> impl Strategy<Value = Assignment> {
        prop_oneof![
            Just(Assignment::Shard(0)),
            Just(Assignment::Shard(1)),
            Just(Assignment::Ds),
            Just(Assignment::XShard),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The slots agree with the map model on every result, and emit the
        /// same balance and nonce deltas.
        #[test]
        fn slots_match_the_map_ledger(
            fixture in Just(accounts()),
            balances in prop::collection::vec(prop_oneof![0u128..10_000, any::<u128>()], 4),
            role in role(),
            ops in prop::collection::vec(op(), 1..60),
        ) {
            let (mut snapshot, addrs) = fixture;
            for (addr, b) in addrs.iter().zip(&balances) {
                snapshot.accounts.entry(*addr).or_default().balance = *b;
            }
            let mut ledger = Ledger::new(&snapshot, role, SHARDS);
            let mut model = Model {
                snapshot: &snapshot,
                role,
                spent: BTreeMap::new(),
                deltas: BTreeMap::new(),
                nonces: BTreeMap::new(),
                saved: Vec::new(),
            };
            let mut checkpoints = Vec::new();
            for op in &ops {
                match *op {
                    Op::Debit(a, x) => {
                        let slot = ledger.slot(addrs[a]);
                        prop_assert_eq!(ledger.debit(slot, x).is_ok(), model.debit(addrs[a], x), "{:?}", op);
                    }
                    Op::Credit(a, x) => {
                        let slot = ledger.slot(addrs[a]);
                        prop_assert_eq!(ledger.credit(slot, x).is_ok(), model.credit(addrs[a], x), "{:?}", op);
                    }
                    Op::Checkpoint => {
                        checkpoints.push(ledger.checkpoint());
                        model.saved.push((model.spent.clone(), model.deltas.clone()));
                    }
                    Op::Undo(k) if !checkpoints.is_empty() => {
                        let j = k % checkpoints.len();
                        ledger.undo(checkpoints[j]);
                        (model.spent, model.deltas) = model.saved[j].clone();
                        checkpoints.truncate(j + 1);
                        model.saved.truncate(j + 1);
                    }
                    Op::Undo(_) => {}
                    Op::Settle => {
                        ledger.settle();
                        checkpoints.clear();
                        model.saved.clear();
                    }
                    Op::NonceCheck(a, n) => {
                        let slot = ledger.slot(addrs[a]);
                        prop_assert_eq!(ledger.nonce_usable(slot, n), model.nonce_usable(&addrs[a], n), "{:?}", op);
                    }
                    Op::NonceCommit(a, n) => {
                        let slot = ledger.slot(addrs[a]);
                        ledger.commit_nonce(slot, n);
                        model.nonces.entry(addrs[a]).or_default().insert(n);
                    }
                }
            }
            let (balances, nonces) = ledger.into_delta();
            let want: BTreeMap<Address, i128> =
                model.deltas.iter().filter(|(_, d)| **d != 0).map(|(a, d)| (*a, *d)).collect();
            prop_assert_eq!(balances, want);
            let want: BTreeMap<Address, Vec<u64>> =
                model.nonces.into_iter().map(|(a, ns)| (a, ns.into_iter().collect())).collect();
            prop_assert_eq!(nonces, want);
        }
    }
}
