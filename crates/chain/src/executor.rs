//! Batch execution of transactions by a shard or by the DS committee.
//!
//! A shard executes its packet sequentially against the epoch-start state
//! snapshot, producing a `MicroBlock` with a [`StateDelta`] (paper Fig. 10).
//! Each transaction runs atomically through a journaled store: on failure
//! its writes are undone, gas is still charged. The DS committee reuses the
//! same executor after the shard deltas merge, with chained contract calls
//! enabled. The cross-shard stage runs it too, one step at a time: it
//! prepares a transaction with its effects left open, and commits or rolls
//! it back once the participants have voted.
//!
//! This serial journaled loop is the only shard executor. Parallelism is
//! across shards — `Network::execute_shards` runs one thread per shard and
//! the deltas join per field (paper §4) — not inside a packet; DESIGN §6d
//! holds the measurement behind that choice.

use crate::address::Address;
use crate::delta::{compute_int_delta, read_component, Component, ContractDelta, StateDelta};
use crate::dispatch::{component_shard, compose_chain, recipient_value, Assignment};
use crate::tx::{Transaction, TxKind};
use cosplit_analysis::audit::{audit_placement, audit_transition, AuditViolation, ViolationKind};
use cosplit_analysis::signature::Join;
use scilla::builtins::uint_max;
use scilla::error::ExecError;
use scilla::gas::{GasMeter, COST_TX_BASE};
use scilla::intern::Sym;
use scilla::interpreter::{OutMsg, TransitionContext};
use scilla::span::Span;
use scilla::state::{CowState, StateStore};
use scilla::trace::{DynamicFootprint, EffectTracer};
use scilla::value::Value;
use std::collections::{BTreeMap, BTreeSet};
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

/// Per-shard balance ledger with slice limits (paper §4.2.2: "splitting a
/// user's balance across shards, with a larger fraction given to the shard
/// handling money transfers from that user").
struct Ledger<'a> {
    snapshot: &'a GlobalState,
    role: Assignment,
    num_shards: u32,
    /// Gross debits, checked against the slice.
    spent: BTreeMap<Address, u128>,
    /// Net changes, reported in the state delta.
    deltas: BTreeMap<Address, i128>,
    /// Prior value of every entry mutated since the last checkpoint, so a
    /// per-transaction rollback is O(mutations) instead of cloning both maps.
    log: Vec<LedgerUndo>,
}

/// One `Ledger` mutation's undo record (`None` = the entry did not exist).
enum LedgerUndo {
    Spent(Address, Option<u128>),
    Delta(Address, Option<i128>),
}

impl Ledger<'_> {
    /// What `addr`'s gross debits in this batch may add up to.
    fn slice(&self, addr: &Address) -> u128 {
        let base = self.snapshot.balance(addr);
        match self.role {
            // The DS committee sees everything.
            Assignment::Ds => base,
            // A cross-shard coordinator locks the accounts its footprint
            // pins, so it works the full balance; and the stage settles one
            // transaction at a time, so what it credited (refunds included)
            // is spendable: the limit is the running balance plus the debits.
            Assignment::XShard => {
                let debited = self.spent.get(addr).copied().unwrap_or(0);
                let net = self.deltas.get(addr).copied().unwrap_or(0);
                base.saturating_add(debited.saturating_add_signed(net))
            }
            Assignment::Shard(s) => {
                let n = self.num_shards as u128;
                if self.snapshot.is_contract(addr) {
                    // A contract's funds move only in its home shard
                    // (`ContractShard` constraint; placement-aware, so a
                    // co-located family's funds follow its dispatch shard).
                    if self.snapshot.home_shard_of(addr, self.num_shards) == s { base } else { 0 }
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
        }
    }

    fn debit(&mut self, addr: Address, amount: u128) -> Result<(), String> {
        let prior = self.spent.get(&addr).copied();
        // Checked: a hostile amount must neither wrap past the slice test
        // nor change sign in the signed delta (`amount ≤ spent ≤ i128::MAX`).
        let spent = prior
            .unwrap_or(0)
            .checked_add(amount)
            .filter(|total| *total <= self.slice(&addr) && i128::try_from(*total).is_ok())
            .ok_or_else(|| format!("insufficient balance slice for {addr}"))?;
        self.log.push(LedgerUndo::Spent(addr, prior));
        self.spent.insert(addr, spent);
        self.log.push(LedgerUndo::Delta(addr, self.deltas.get(&addr).copied()));
        *self.deltas.entry(addr).or_insert(0) -= amount as i128;
        Ok(())
    }

    fn credit(&mut self, addr: Address, amount: u128) {
        self.log.push(LedgerUndo::Delta(addr, self.deltas.get(&addr).copied()));
        *self.deltas.entry(addr).or_insert(0) += amount as i128;
    }

    fn undo(&mut self, checkpoint: usize) {
        while self.log.len() > checkpoint {
            match self.log.pop().expect("len checked") {
                LedgerUndo::Spent(a, Some(v)) => {
                    self.spent.insert(a, v);
                }
                LedgerUndo::Spent(a, None) => {
                    self.spent.remove(&a);
                }
                LedgerUndo::Delta(a, Some(v)) => {
                    self.deltas.insert(a, v);
                }
                LedgerUndo::Delta(a, None) => {
                    self.deltas.remove(&a);
                }
            }
        }
    }

    fn checkpoint(&self) -> usize {
        self.log.len()
    }
}

/// A shard's working view of one contract's storage, with touched
/// components. The view is a copy-on-write overlay over the epoch-start
/// snapshot: creating it is O(1) and writes land in the overlay, so an
/// epoch's cost is O(touched state), never O(total state).
struct ShardStorage {
    state: CowState,
    /// Every write a committed transaction made, repeats included;
    /// [`Executor::finish`] sorts them once.
    touched: Vec<Component>,
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
    storages: BTreeMap<Address, ShardStorage>,
    balance: Ledger<'a>,
    nonce_committed: BTreeMap<Address, BTreeSet<u64>>,
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
    journal: TxJournal,
    /// Commit counts its gas and consumes its nonce (not refused or rerouted).
    charged: bool,
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
            balance: Ledger {
                snapshot,
                role: cfg.role,
                num_shards: cfg.num_shards,
                spent: BTreeMap::new(),
                deltas: BTreeMap::new(),
                log: Vec::new(),
            },
            nonce_committed: BTreeMap::new(),
            receipts: Vec::new(),
            deferred: Vec::new(),
            rerouted: Vec::new(),
            gas_used: 0,
            violations: Vec::new(),
            traced: Vec::new(),
            current_tx: 0,
        }
    }

    fn nonce_usable(&self, addr: &Address, nonce: u64) -> bool {
        let base_ok = self
            .snapshot
            .accounts
            .get(addr)
            .map(|a| a.nonces.is_usable(nonce))
            .unwrap_or(nonce > 0);
        base_ok
            && !self
                .nonce_committed
                .get(addr)
                .is_some_and(|ns| ns.contains(&nonce))
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
        let mut prepared = Prepared {
            receipt: Receipt { tx_id: tx.id, status: TxStatus::Success, gas_used: 0, events: vec![] },
            journal: TxJournal::default(),
            charged: false,
            ledger_cp: self.balance.checkpoint(),
            violations: self.violations.len(),
            traced: self.traced.len(),
        };
        if tx.gas_limit > self.cfg.gas_limit {
            // Deferring would never end: not even an empty budget admits
            // this transaction, and it would block the packet behind it.
            return prepared.refused("gas limit exceeds the committee's budget");
        }
        if !self.nonce_usable(&tx.sender, tx.nonce) {
            return prepared.refused("nonce already used");
        }

        // Reserve the full gas budget up front; refund after execution. A
        // price that overflows the reservation cannot be paid by anyone.
        let reserved = u128::from(tx.gas_limit)
            .checked_mul(tx.gas_price)
            .filter(|fee| self.balance.debit(tx.sender, *fee).is_ok());
        let Some(fee_reserve) = reserved else {
            return prepared.refused("cannot reserve gas");
        };

        let (status, gas, events) = match &tx.kind {
            TxKind::Payment { to, amount } => {
                let gas = COST_TX_BASE;
                let status = match self.balance.debit(tx.sender, *amount) {
                    Ok(()) => {
                        self.balance.credit(*to, *amount);
                        TxStatus::Success
                    }
                    Err(e) => TxStatus::Failed(e),
                };
                (status, gas, Vec::new())
            }
            TxKind::Call { contract, transition, args, amount } => {
                self.run_call(&mut prepared.journal, tx, *contract, transition, args, *amount)
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
        self.balance.credit(tx.sender, fee_reserve.saturating_sub(actual_fee));
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
        prepared.journal.commit(&mut self.storages);
        if prepared.charged {
            self.gas_used += prepared.receipt.gas_used;
            self.nonce_committed.entry(tx.sender).or_default().insert(tx.nonce);
        }
        self.receipts.push(prepared.receipt);
    }

    /// Undoes a prepare as if the transaction had never run: no write, fee,
    /// nonce, receipt or audit record remains.
    pub(crate) fn rollback(&mut self, prepared: Prepared) {
        prepared.journal.rollback(&mut self.storages);
        self.balance.undo(prepared.ledger_cp);
        self.violations.truncate(prepared.violations);
        self.traced.truncate(prepared.traced);
    }

    /// Runs a call. On success its writes stay open in `journal`; on
    /// failure or reroute they are rolled back here, and so is the ledger
    /// back to the fee reservation.
    fn run_call(
        &mut self,
        journal: &mut TxJournal,
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
            journal,
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
            Ok(()) if self.cfg.overflow_guard && self.overflow_violation(journal).is_some() => {
                (TxStatus::Rerouted(RerouteCause::OverflowGuard), 0)
            }
            Ok(()) => return (TxStatus::Success, gas_total, events),
            // The conservative single-contract check failed at runtime:
            // hand the whole transaction to the DS committee.
            Err(CallError::CrossContract) => (TxStatus::Rerouted(RerouteCause::CrossContract), 0),
            Err(CallError::Exec(e)) => (TxStatus::Failed(e.to_string()), gas_total),
        };
        std::mem::take(journal).rollback(&mut self.storages);
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
        journal: &mut TxJournal,
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
        let deployed = self
            .snapshot
            .contracts
            .get(&contract)
            .cloned()
            .ok_or_else(|| ExecError::BadInvocation(format!("no contract at {contract}")))?;

        self.ensure_storage(contract);
        let ctx = TransitionContext {
            sender: sender.0,
            origin: origin.0,
            amount,
            this_address: contract.0,
            block_number: self.cfg.block_number,
        };

        let (outcome, footprint) = {
            let storage = self.storages.get_mut(&contract).expect("ensured above");
            let mut store = JournaledStore { contract, inner: &mut storage.state, journal };
            if self.cfg.audit {
                let mut tracer = EffectTracer::new(transition);
                let out = deployed
                    .compiled
                    .execute_traced(
                        &mut store,
                        transition,
                        args,
                        &deployed.params,
                        &ctx,
                        gas,
                        &mut tracer,
                    )
                    .map_err(CallError::Exec)?;
                (out, Some(tracer.finish()))
            } else {
                let out = deployed
                    .compiled
                    .execute(&mut store, transition, args, &deployed.params, &ctx, gas)
                    .map_err(CallError::Exec)?;
                (out, None)
            }
        };
        if let Some(fp) = footprint {
            self.audit_invocation(&deployed, &fp, args, &ctx);
            self.traced.push(TracedCall {
                tx_id: self.current_tx,
                contract,
                sender,
                args: args.to_vec(),
                footprint: fp,
            });
        }

        if outcome.accepted && amount > 0 {
            self.balance
                .debit(sender, amount)
                .map_err(|e| CallError::Exec(ExecError::InsufficientFunds(e)))?;
            self.balance.credit(contract, amount);
        }
        events.extend(outcome.events);

        for msg in outcome.messages {
            self.deliver(
                journal,
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
            found.extend(audit_transition(fp, &summary, &resolve));
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
        journal: &mut TxJournal,
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
                msg.params.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            return self.invoke(
                journal,
                gas,
                events,
                origin,
                from.contract,
                recipient,
                &msg.tag,
                &args,
                msg.amount,
                depth + 1,
            );
        }
        if msg.amount > 0 {
            self.balance
                .debit(from.contract, msg.amount)
                .map_err(|e| CallError::Exec(ExecError::InsufficientFunds(e)))?;
            self.balance.credit(recipient, msg.amount);
        }
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
            site.tag.as_deref() == Some(&msg.tag)
                && recipient_value(self.snapshot, from.contract, &site.recipient, frame)
                    .as_ref()
                    .and_then(Value::as_address)
                    == Some(recipient.0)
        })
    }

    fn ensure_storage(&mut self, contract: Address) {
        self.storages.entry(contract).or_insert_with(|| ShardStorage {
            // O(1): the epoch-start store is Arc-shared, not copied; all
            // writes land in the CowState overlay.
            state: self
                .snapshot
                .storage
                .get(&contract)
                .map(|base| CowState::new(Arc::clone(base)))
                .unwrap_or_default(),
            touched: Vec::new(),
        });
    }

    /// The §6 overflow guard: for every `IntMerge` component the *current
    /// transaction* touched, the shard's cumulative positive delta (which
    /// includes earlier committed transactions, via the working state) must
    /// not exceed `⌊(MAX − v)/N⌋` of the epoch-start value `v`.
    fn overflow_violation(&self, journal: &TxJournal) -> Option<Component> {
        // The DS committee serialises against merged state; the cross-shard
        // stage likewise settles each prepare before the next, so neither
        // needs the N-way headroom split.
        if matches!(self.cfg.role, Assignment::Ds | Assignment::XShard) {
            return None;
        }
        for (addr, comp, _) in &journal.undo {
            {
                let Some(joins) = self.joins_of(addr) else { continue };
                let Some(storage) = self.storages.get(addr) else { continue };
                if joins.get(comp.0.as_str()) != Some(&Join::IntMerge) {
                    continue;
                }
                let base_storage = self.snapshot.storage.get(addr);
                let initial: u128 = match base_storage.and_then(|s| read_component(s.as_ref(), comp))
                {
                    Some(Value::Uint(_, n)) => n,
                    None => 0,
                    // A non-integer epoch-start value cannot be guarded;
                    // force the conservative path.
                    Some(_) => return Some(comp.clone()),
                };
                let (now, width) = match read_component(&storage.state, comp) {
                    Some(Value::Uint(w, n)) => (n, w),
                    _ => continue,
                };
                let headroom = uint_max(width).saturating_sub(initial);
                let allowance = headroom / self.cfg.num_shards as u128;
                if now > initial && now - initial > allowance {
                    return Some(comp.clone());
                }
            }
        }
        None
    }

    fn joins_of(&self, contract: &Address) -> Option<&BTreeMap<String, Join>> {
        if !self.cfg.use_cosplit {
            return None;
        }
        self.snapshot
            .contracts
            .get(contract)
            .and_then(|d| d.signature.as_ref())
            .map(|s| &s.joins)
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
        for (addr, mut storage) in std::mem::take(&mut self.storages) {
            storage.touched.sort_unstable();
            storage.touched.dedup();
            if storage.touched.is_empty() {
                continue;
            }
            let joins = self.joins_of(&addr).cloned().unwrap_or_default();
            let base = self.snapshot.storage.get(&addr);
            let mut cd = ContractDelta::default();
            for comp in storage.touched {
                let final_v = read_component(&storage.state, &comp);
                let merge = joins.get(comp.0.as_str()) == Some(&Join::IntMerge);
                let delta = match (&final_v, merge) {
                    (Some(v), true) => {
                        let initial = base.and_then(|s| read_component(s.as_ref(), &comp));
                        compute_int_delta(initial.as_ref(), v)
                    }
                    _ => None,
                };
                match delta {
                    Some(id) => {
                        cd.int_deltas.insert(comp, id);
                    }
                    // Non-integer, shape-changing, or out-of-i128-range
                    // changes fall back to an overwrite; under a correct
                    // signature only one shard can produce them.
                    None => {
                        cd.overwrites.insert(comp, final_v);
                    }
                }
            }
            delta.contracts.insert(addr, cd);
        }
        delta.balances = self.balance.deltas.iter().filter(|(_, d)| **d != 0).map(|(a, d)| (*a, *d)).collect();
        // Sorted, as `StateDelta::merge_ref` canonicalises them.
        delta.nonces =
            self.nonce_committed.into_iter().map(|(a, ns)| (a, ns.into_iter().collect())).collect();

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

/// The undo log shared by all invocations of one transaction (chained calls
/// roll back together — transitions are atomic, paper §3.1).
#[derive(Default)]
struct TxJournal {
    /// (contract, component, prior value) in write order.
    undo: Vec<(Address, Component, Option<Value>)>,
}

impl TxJournal {
    fn commit(self, storages: &mut BTreeMap<Address, ShardStorage>) {
        for (addr, comp, _) in self.undo {
            if let Some(s) = storages.get_mut(&addr) {
                s.touched.push(comp);
            }
        }
    }

    fn rollback(self, storages: &mut BTreeMap<Address, ShardStorage>) {
        for (addr, comp, prior) in self.undo.into_iter().rev() {
            let Some(s) = storages.get_mut(&addr) else { continue };
            let (field, keys) = &comp;
            match prior {
                Some(v) => {
                    if keys.is_empty() {
                        s.state.store(*field, v);
                    } else {
                        s.state.map_update(*field, keys, v);
                    }
                }
                None => {
                    if keys.is_empty() {
                        s.state.remove_field(*field);
                    } else {
                        s.state.map_delete(*field, keys);
                    }
                }
            }
        }
    }
}

/// A [`StateStore`] view that records each write's component and prior
/// value into the transaction journal.
struct JournaledStore<'a, 'j> {
    contract: Address,
    inner: &'a mut CowState,
    journal: &'j mut TxJournal,
}

impl JournaledStore<'_, '_> {
    fn record(&mut self, field: Sym, keys: &[Value]) {
        // The field side of the component is a `Copy` symbol; only the key
        // path is owned.
        let comp: Component = (field, keys.to_vec());
        let prior = read_component(self.inner, &comp);
        self.journal.undo.push((self.contract, comp, prior));
    }
}

impl StateStore for JournaledStore<'_, '_> {
    fn load(&self, field: Sym) -> Option<Value> {
        self.inner.load(field)
    }

    fn store(&mut self, field: Sym, value: Value) {
        self.record(field, &[]);
        self.inner.store(field, value);
    }

    fn map_get(&self, field: Sym, keys: &[Value]) -> Option<Value> {
        self.inner.map_get(field, keys)
    }

    fn map_update(&mut self, field: Sym, keys: &[Value], value: Value) {
        self.record(field, keys);
        self.inner.map_update(field, keys, value);
    }

    fn map_exists(&self, field: Sym, keys: &[Value]) -> bool {
        self.inner.map_exists(field, keys)
    }

    fn map_delete(&mut self, field: Sym, keys: &[Value]) {
        self.record(field, keys);
        self.inner.map_delete(field, keys);
    }
}
