//! Deterministic simulation and fault injection over the epoch pipeline.
//!
//! In the style of FoundationDB-like deterministic testing, this module
//! drives the epoch pipeline the product runs — [`Network::form_packets`],
//! then [`Network::run_packets`], real shard threads included — under a
//! virtual clock and a *seeded fault plan*. Delivery faults are edits of the
//! packets between the two calls: dropped packets (re-entering the pending
//! pool after an exponential backoff), duplicated packets (exercising
//! §4.2.1 replay protection) and reordered packets. Shard-thread deaths,
//! mid-batch gas exhaustion and the cross-shard protocol faults ride the
//! pipeline's own hook trait ([`XShardFaults`]); the recovery from a dead
//! shard thread (its packet rerouted to the DS committee) is the product's,
//! not this harness's. Same seed + same plan ⇒ bit-identical outcomes, so
//! every failure is replayable.
//!
//! The module also provides the **differential oracle** behind the paper's
//! central claim (Thm 4.6, observational equivalence with sequential
//! execution): a simulated sharded run is replayed on a 1-shard reference
//! chain and the final states, balances, nonces, and per-transaction event
//! logs are compared field by field. Divergences produce a replayable
//! repro artifact (seed + fault plan + transaction trace) as JSON.

use crate::address::{fnv1a, Address};
use crate::executor::{Receipt, TxStatus};
use crate::network::{ChainConfig, Network, EPOCH_DURATION_SECS};
use crate::tx::Transaction;
use crate::xshard::{ShardFault, VoteMsg, XShardFaults};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scilla::value::Value;
use serde_json::json;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// The kinds of injected faults (the fault taxonomy in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The shard's executor thread panics mid-batch; its packet is
    /// recovered by rerouting to the DS committee.
    ShardPanic,
    /// The shard's packet is lost in transit; it re-enters the pending pool
    /// after an exponential backoff.
    DropPacket,
    /// The shard's packet is delivered twice — once to the shard, once to
    /// the DS committee — exercising nonce replay protection.
    DuplicatePacket,
    /// The packet arrives with its transactions reversed.
    ReorderPacket,
    /// The shard runs out of gas mid-batch (budget cut to ⅛); the tail is
    /// deferred to later epochs.
    GasExhaustion,
    /// Cross-shard protocol fault: the coordinator crashes between prepare
    /// and commit — its locks go stale (broken at the next epoch's
    /// recovery) and the transaction retries. For this and the other
    /// `xshard` kinds, [`FaultEvent::shard`] selects the *target
    /// transaction* (index into the epoch's xshard packet, modulo its
    /// length) rather than a shard.
    CoordinatorCrash,
    /// Cross-shard protocol fault: one participant's vote is lost in
    /// transit; the coordinator times out and aborts-with-release.
    LostVote,
    /// Cross-shard protocol fault: every vote is delivered twice; the
    /// decision must absorb the duplicates idempotently.
    DuplicateVote,
    /// Cross-shard protocol fault: the votes arrive in reverse order; the
    /// decision must be order-independent.
    ReorderVotes,
    /// Cross-shard protocol fault: a lock leaked by an earlier (unseen)
    /// crash sits on the transaction's first key; it aborts busy and
    /// retries after stale-lock recovery breaks the leak.
    StaleLock,
}

impl FaultKind {
    /// All fault kinds, for plan generation.
    pub fn all() -> [FaultKind; 10] {
        [
            FaultKind::ShardPanic,
            FaultKind::DropPacket,
            FaultKind::DuplicatePacket,
            FaultKind::ReorderPacket,
            FaultKind::GasExhaustion,
            FaultKind::CoordinatorCrash,
            FaultKind::LostVote,
            FaultKind::DuplicateVote,
            FaultKind::ReorderVotes,
            FaultKind::StaleLock,
        ]
    }

    /// Does this kind target the cross-shard commit stage (as opposed to a
    /// shard packet)?
    pub fn is_xshard(self) -> bool {
        matches!(
            self,
            FaultKind::CoordinatorCrash
                | FaultKind::LostVote
                | FaultKind::DuplicateVote
                | FaultKind::ReorderVotes
                | FaultKind::StaleLock
        )
    }

    /// Stable label used in plans, metrics, and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ShardPanic => "shard-panic",
            FaultKind::DropPacket => "drop-packet",
            FaultKind::DuplicatePacket => "duplicate-packet",
            FaultKind::ReorderPacket => "reorder-packet",
            FaultKind::GasExhaustion => "gas-exhaustion",
            FaultKind::CoordinatorCrash => "coordinator-crash",
            FaultKind::LostVote => "lost-vote",
            FaultKind::DuplicateVote => "duplicate-vote",
            FaultKind::ReorderVotes => "reorder-votes",
            FaultKind::StaleLock => "stale-lock",
        }
    }

    /// Parses a [`FaultKind::name`] label.
    ///
    /// # Errors
    ///
    /// Reports an unknown label.
    pub fn from_name(s: &str) -> Result<FaultKind, String> {
        FaultKind::all()
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown fault kind {s}"))
    }
}

/// One scheduled fault: at simulation epoch `epoch`, hit shard `shard` with
/// `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation epoch (0-based, relative to the start of `run_sim`).
    pub epoch: u64,
    /// The targeted transaction shard.
    pub shard: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, replayable schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduled faults, in injection order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (fault-free run — what the reference chain uses).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Generates a plan deterministically from a seed: each (epoch, shard)
    /// slot faults with probability `intensity`, with a uniformly chosen
    /// kind.
    pub fn generate(seed: u64, epochs: u64, shards: u32, intensity: f64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds = FaultKind::all();
        let mut events = Vec::new();
        for epoch in 0..epochs {
            for shard in 0..shards {
                if rng.gen_bool(intensity) {
                    let kind = kinds[rng.gen_range(0..kinds.len())];
                    events.push(FaultEvent { epoch, shard, kind });
                }
            }
        }
        FaultPlan { events }
    }

    /// The faults scheduled for one epoch.
    pub fn events_at(&self, epoch: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.epoch == epoch)
    }

    /// JSON form for repro artifacts.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "events": self
                .events
                .iter()
                .map(|e| json!({"epoch": e.epoch, "shard": e.shard, "kind": e.kind.name()}))
                .collect::<Vec<_>>(),
        })
    }

    /// Parses the JSON form produced by [`FaultPlan::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed node.
    pub fn from_json(j: &serde_json::Value) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for e in j["events"].as_array().ok_or("missing events")? {
            events.push(FaultEvent {
                epoch: e["epoch"].as_u64().ok_or("missing epoch")?,
                shard: e["shard"].as_u64().ok_or("missing shard")? as u32,
                kind: FaultKind::from_name(e["kind"].as_str().ok_or("missing kind")?)?,
            });
        }
        Ok(FaultPlan { events })
    }
}

// ---------------------------------------------------------------------------
// Simulation harness
// ---------------------------------------------------------------------------

/// Parameters of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The run's seed (recorded in artifacts; fault plans and workloads are
    /// derived from it by the caller).
    pub seed: u64,
    /// Epoch budget: the run stops (undrained) after this many epochs.
    pub max_epochs: u64,
}

impl SimConfig {
    /// A configuration with the default epoch budget.
    pub fn new(seed: u64) -> SimConfig {
        SimConfig { seed, max_epochs: 64 }
    }
}

/// The final outcome of one transaction across the whole run. Transient
/// statuses (reroutes, replay rejections of duplicated deliveries) do not
/// count: a transaction that eventually commits is `Success`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// Committed, with its emitted events.
    Success {
        /// The event log of the committing execution.
        events: Vec<Value>,
    },
    /// Terminally failed (gas charged, state rolled back).
    Failed(String),
}

impl TxOutcome {
    /// Short label for divergence reports.
    pub fn label(&self) -> &'static str {
        match self {
            TxOutcome::Success { .. } => "success",
            TxOutcome::Failed(_) => "failed",
        }
    }
}

/// What one simulated run did and ended with.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Epochs executed.
    pub epochs: u64,
    /// Virtual time elapsed (epochs × epoch duration).
    pub sim_seconds: f64,
    /// Did the pending pool (and the retry queue) fully drain?
    pub drained: bool,
    /// Final outcome per transaction id.
    pub outcomes: BTreeMap<u64, TxOutcome>,
    /// Injected faults by kind label.
    pub injected: BTreeMap<&'static str, u64>,
    /// Recovery actions by label (`reroute-to-ds`, `backoff-repool`,
    /// `deferred-retry`).
    pub recoveries: BTreeMap<&'static str, u64>,
    /// Safety violations observed (merge conflicts, double commits). Always
    /// empty under correct signatures — any entry is a divergence.
    pub safety_violations: Vec<String>,
    /// Gas fees actually charged, per paying account. Gas metering is
    /// path-dependent (commutative execution on epoch-start snapshots can
    /// take different micro-branches than sequential execution, e.g. an
    /// `add_or_init` seeing `None` on a fresh shard), so the differential
    /// oracle compares balances *modulo* these fees.
    pub fees: BTreeMap<Address, u128>,
    /// Transaction ids in the order their *final* outcome committed — the
    /// witness serialization for Thm 4.6: the faulted sharded run must be
    /// observationally equivalent to the sequential execution of this
    /// schedule (delivery faults legitimately reorder arrival, so the
    /// original pool order is not the right reference schedule).
    pub commit_order: Vec<u64>,
    /// FNV-1a digest of the final state (see [`state_digest`]).
    pub digest: u64,
}

impl SimReport {
    /// Committed transactions.
    pub fn committed(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| matches!(o, TxOutcome::Success { .. })).count()
    }
}

/// The fault plan's hook-borne faults for one epoch: dying and gas-starved
/// shards by shard id, cross-shard protocol faults by target transaction id
/// (selected deterministically from the epoch's xshard packet).
#[derive(Debug, Default)]
struct PlanFaults {
    shards: Vec<(FaultKind, u32)>,
    txs: Vec<(FaultKind, u64)>,
}

impl PlanFaults {
    fn hits(&self, kind: FaultKind, tx: &Transaction) -> bool {
        self.txs.contains(&(kind, tx.id))
    }
}

impl XShardFaults for PlanFaults {
    fn shard_fault(&mut self, _epoch: u64, shard: u32) -> ShardFault {
        if self.shards.contains(&(FaultKind::ShardPanic, shard)) {
            ShardFault::Crash
        } else if self.shards.contains(&(FaultKind::GasExhaustion, shard)) {
            ShardFault::GasCollapse
        } else {
            ShardFault::None
        }
    }

    fn deliver_votes(
        &mut self,
        _epoch: u64,
        tx: &Transaction,
        mut votes: Vec<VoteMsg>,
    ) -> Vec<VoteMsg> {
        if self.hits(FaultKind::ReorderVotes, tx) {
            votes.reverse();
        }
        if self.hits(FaultKind::DuplicateVote, tx) {
            let again = votes.clone();
            votes.extend(again);
        }
        if self.hits(FaultKind::LostVote, tx) {
            votes.pop();
        }
        votes
    }

    fn coordinator_crash(&mut self, _epoch: u64, tx: &Transaction) -> bool {
        self.hits(FaultKind::CoordinatorCrash, tx)
    }

    fn plant_stale_lock(&mut self, _epoch: u64, tx: &Transaction) -> bool {
        self.hits(FaultKind::StaleLock, tx)
    }
}

/// A deterministic digest of the network's observable final state: every
/// account (balance, nonce watermark, committed-above set, contract flag)
/// and every contract storage field, in canonical `BTreeMap` order, hashed
/// with FNV-1a. Two same-seed simulation runs must produce identical
/// digests.
pub fn state_digest(net: &Network) -> u64 {
    let mut dump = String::new();
    for (addr, acc) in &net.state().accounts {
        dump.push_str(&format!(
            "A {addr} {} {} {}[",
            acc.balance,
            acc.nonces.watermark(),
            acc.is_contract
        ));
        for n in acc.nonces.committed_above() {
            dump.push_str(&format!("{n},"));
        }
        dump.push_str("];");
    }
    for (addr, storage) in &net.state().storage {
        for (field, v) in storage.fields() {
            dump.push_str(&format!("S {addr} {field} {};", scilla::wire::to_json(v)));
        }
    }
    fnv1a(dump.as_bytes())
}

/// Appends deterministic *malformed* transactions to a pool: a call to a
/// contract that does not exist, a replay-protected nonce-0 transaction, an
/// unfunded over-sized payment, and three whose fields sit at the edge of
/// their integer range (amount, gas limit, gas price). All of them must fail
/// identically on the sharded and the reference chain. Returns how many were
/// injected.
pub fn inject_malformed(pool: &mut Vec<Transaction>, seed: u64, first_id: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_6c66_6f72_6d65);
    let chaos = Address::from_index(66_000_000 + rng.gen_range(0..1_000u64));
    let ghost = Address::from_index(67_000_000 + rng.gen_range(0..1_000u64));
    let malformed = vec![
        // Unfunded sender calling a contract that was never deployed.
        Transaction::call(first_id, chaos, 1, ghost, "Nop", vec![]),
        // Nonce 0 is never usable: rejected by replay protection everywhere.
        Transaction::payment(first_id + 1, chaos, 0, ghost, 1),
        // An unfunded account trying to move a fortune.
        Transaction::payment(first_id + 2, chaos, 2, ghost, u128::MAX / 2),
        // An amount that wraps any running sum it is added to.
        Transaction::payment(first_id + 3, chaos, 3, ghost, u128::MAX),
        // A gas limit no committee's budget admits (and that wraps the
        // admission sum).
        Transaction { gas_limit: u64::MAX, ..Transaction::payment(first_id + 4, chaos, 4, ghost, 1) },
        // A gas price whose fee reservation overflows.
        Transaction {
            gas_price: u128::MAX / 1000,
            ..Transaction::payment(first_id + 5, chaos, 5, ghost, 1)
        },
    ];
    let n = malformed.len();
    pool.extend(malformed);
    n
}

/// Runs the epoch pipeline under the fault plan until the pool drains or
/// the epoch budget runs out.
///
/// Each epoch is [`Network::form_packets`] and [`Network::run_packets`] —
/// what [`Network::run_epoch`] runs — with the plan's faults in between.
/// Where `run_epoch` panics on a merge or apply failure, this records it as
/// a safety violation in the report (and counts it in telemetry), so a
/// byzantine sharding signature surfaces as a divergence instead of a crash.
pub fn run_sim(
    net: &mut Network,
    pool: &mut Vec<Transaction>,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> SimReport {
    let num_shards = net.config().num_shards;
    let mut report = SimReport::default();
    // Receipts carry only the tx id; remember who pays which gas price so
    // fees can be attributed (every transaction the run will ever see is in
    // the initial pool — retries and duplicates reuse the same ids).
    let payers: BTreeMap<u64, (Address, u128)> =
        pool.iter().map(|t| (t.id, (t.sender, t.gas_price))).collect();
    // Raw (tx id, succeeded) sequence of non-transient receipts, reduced to
    // the final commit order once the run ends.
    let mut seq: Vec<(u64, bool)> = Vec::new();
    // Packets awaiting redelivery: (release epoch, transactions).
    let mut delayed: Vec<(u64, Vec<Transaction>)> = Vec::new();
    let mut drops_so_far: u32 = 0;
    let mut epoch: u64 = 0;

    while (!pool.is_empty() || !delayed.is_empty()) && epoch < cfg.max_epochs {
        let mut _epoch_span = telemetry::span!("chain.sim.epoch_duration");
        _epoch_span.attr("epoch", epoch);
        // Virtual clock tick: redeliver packets whose backoff expired.
        let (due, still): (Vec<_>, Vec<_>) =
            delayed.into_iter().partition(|(release, _)| *release <= epoch);
        delayed = still;
        for (_, txs) in due {
            pool.extend(txs);
        }
        report.epochs += 1;
        report.sim_seconds += EPOCH_DURATION_SECS;
        if pool.is_empty() {
            // Nothing deliverable this epoch; the chain still makes blocks.
            net.advance_block();
            epoch += 1;
            continue;
        }

        // --- Lookup stage, then the fault plan edits the packets and arms
        // the hooks.
        let mut packets = net.form_packets(pool);
        let mut faults = PlanFaults::default();
        for ev in plan.events_at(epoch) {
            if ev.kind.is_xshard() {
                // The event's `shard` field selects the target transaction
                // (index into the xshard packet, modulo its length).
                let batch = &packets.xshard_batch;
                if batch.is_empty() {
                    continue;
                }
                faults.txs.push((ev.kind, batch[ev.shard as usize % batch.len()].id));
            } else {
                if ev.shard >= num_shards {
                    continue; // plan generated for a wider network
                }
                let batch = &mut packets.shard_batches[ev.shard as usize];
                if batch.is_empty() && ev.kind != FaultKind::ShardPanic {
                    continue; // nothing to fault
                }
                match ev.kind {
                    FaultKind::ReorderPacket => batch.reverse(),
                    // The second delivery goes to the DS committee, where it
                    // must bounce off replay protection.
                    FaultKind::DuplicatePacket => packets.ds_batch.extend(batch.iter().cloned()),
                    FaultKind::DropPacket => {
                        // Graceful degradation: the packet re-enters the
                        // pending pool after an exponential backoff instead
                        // of vanishing.
                        let backoff = 1u64 << drops_so_far.min(3);
                        drops_so_far += 1;
                        delayed.push((epoch + backoff, std::mem::take(batch)));
                        *report.recoveries.entry("backoff-repool").or_default() += 1;
                        telemetry::registry()
                            .counter(telemetry::names::SIM_RECOVERY_BACKOFF)
                            .inc();
                    }
                    // Shard panics and gas exhaustion ride the hooks.
                    _ => faults.shards.push((ev.kind, ev.shard)),
                }
            }
            *report.injected.entry(ev.kind.name()).or_default() += 1;
            telemetry::registry()
                .counter(&format!("{}{}", telemetry::names::SIM_FAULT_PREFIX, ev.kind.name()))
                .inc();
        }

        // --- The product's pipeline: shards → merge → cross-shard commits →
        // DS, with deferred transactions back in the pool.
        let done = net.run_packets(packets, pool, &mut faults);

        // --- Bookkeeping: safety violations, recoveries, final outcomes.
        // Effect-trace sanitizer escapes are safety violations too: a static
        // summary failed to contain a concrete execution.
        let audits = done.audit_violations.iter().map(|v| format!("audit violation: {v}"));
        for v in done.errors.iter().cloned().chain(audits) {
            report.safety_violations.push(format!("epoch {epoch}: {v}"));
            telemetry::registry().counter(telemetry::names::SIM_SAFETY_VIOLATION).inc();
        }
        for (label, n) in [
            ("reroute-to-ds", done.crashed_shards),
            ("xshard-abort-retry", done.xshard.aborted),
            ("deferred-retry", done.deferred),
        ] {
            if n > 0 {
                *report.recoveries.entry(label).or_default() += n as u64;
            }
        }
        for r in &done.receipts {
            record_outcome(&mut report, r, epoch);
            match &r.status {
                TxStatus::Success => seq.push((r.tx_id, true)),
                TxStatus::Failed(_) => seq.push((r.tx_id, false)),
                TxStatus::Rerouted(_) => {}
            }
            if r.gas_used > 0 {
                if let Some((sender, price)) = payers.get(&r.tx_id) {
                    *report.fees.entry(*sender).or_default() += u128::from(r.gas_used) * price;
                }
            }
        }
        telemetry::registry().counter(telemetry::names::SIM_EPOCHS).inc();
        epoch += 1;
    }

    report.drained = pool.is_empty() && delayed.is_empty();
    // Reduce the receipt sequence to each transaction's *final* position:
    // the first `Success` wins (overriding any earlier replay rejection);
    // otherwise the first terminal failure.
    let mut pos: BTreeMap<u64, usize> = BTreeMap::new();
    let mut succeeded: BTreeSet<u64> = BTreeSet::new();
    for (i, (id, ok)) in seq.iter().enumerate() {
        if *ok {
            if succeeded.insert(*id) {
                pos.insert(*id, i);
            }
        } else {
            pos.entry(*id).or_insert(i);
        }
    }
    let mut ordered: Vec<(usize, u64)> = pos.into_iter().map(|(id, i)| (i, id)).collect();
    ordered.sort_unstable();
    report.commit_order = ordered.into_iter().map(|(_, id)| id).collect();
    report.digest = state_digest(net);
    report
}

/// Folds one receipt into the run's final-outcome map. A `Success` wins over
/// any failure; replay rejections of duplicated deliveries after a commit
/// are dropped; a *second* `Success` for the same id is a double commit —
/// a safety violation.
fn record_outcome(report: &mut SimReport, r: &Receipt, epoch: u64) {
    match &r.status {
        TxStatus::Success => {
            if matches!(report.outcomes.get(&r.tx_id), Some(TxOutcome::Success { .. })) {
                report
                    .safety_violations
                    .push(format!("epoch {epoch}: tx {} committed twice", r.tx_id));
                telemetry::registry().counter(telemetry::names::SIM_SAFETY_VIOLATION).inc();
            } else {
                report
                    .outcomes
                    .insert(r.tx_id, TxOutcome::Success { events: r.events.clone() });
            }
        }
        TxStatus::Failed(msg) => {
            if !matches!(report.outcomes.get(&r.tx_id), Some(TxOutcome::Success { .. })) {
                report.outcomes.insert(r.tx_id, TxOutcome::Failed(msg.clone()));
            }
        }
        TxStatus::Rerouted(_) => {} // transient; the DS receipt is final
    }
}

// ---------------------------------------------------------------------------
// Differential oracle
// ---------------------------------------------------------------------------

/// One observable difference between the sharded run and the reference run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A transaction ended differently (or exists on only one side).
    Outcome {
        /// The transaction.
        tx_id: u64,
        /// Outcome label on the sharded chain (`-` when absent).
        sharded: String,
        /// Outcome label on the reference chain (`-` when absent).
        reference: String,
    },
    /// A committed transaction emitted different events.
    Events {
        /// The transaction.
        tx_id: u64,
    },
    /// An account field differs (balance, nonce state, or contract flag).
    Account {
        /// The account.
        addr: String,
        /// What differs, rendered for humans.
        detail: String,
    },
    /// A contract storage field differs.
    Storage {
        /// The contract.
        contract: String,
        /// The field name.
        field: String,
    },
    /// The sharded run recorded a safety violation (merge conflict or
    /// double commit).
    SafetyViolation(String),
    /// A run failed to drain its pool within the epoch budget.
    Liveness(String),
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Outcome { tx_id, sharded, reference } => {
                write!(f, "tx {tx_id}: outcome {sharded} (sharded) vs {reference} (reference)")
            }
            Divergence::Events { tx_id } => write!(f, "tx {tx_id}: event logs differ"),
            Divergence::Account { addr, detail } => write!(f, "account {addr}: {detail}"),
            Divergence::Storage { contract, field } => {
                write!(f, "contract {contract}: field {field} differs")
            }
            Divergence::SafetyViolation(s) => write!(f, "safety violation: {s}"),
            Divergence::Liveness(s) => write!(f, "liveness: {s}"),
        }
    }
}

/// The oracle's verdict: both runs' reports plus every divergence found.
#[derive(Debug)]
pub struct DiffReport {
    /// Differences, empty when the runs are observationally equivalent.
    pub divergences: Vec<Divergence>,
    /// The sharded (faulted) run.
    pub sharded: SimReport,
    /// The sequential reference run.
    pub reference: SimReport,
}

impl DiffReport {
    /// No divergence found?
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The sequential reference configuration for a sharded one: a single
/// shard, signatures off, with the whole network's gas budget so draining takes comparably many epochs.
pub fn reference_config(sharded: &ChainConfig) -> ChainConfig {
    ChainConfig {
        num_shards: 1,
        use_cosplit: false,
        shard_gas_limit: sharded
            .shard_gas_limit
            .saturating_mul(u64::from(sharded.num_shards))
            .saturating_add(sharded.ds_gas_limit),
        ..sharded.clone()
    }
}

/// Runs the load on a sharded chain under the fault plan, replays it on a
/// 1-shard reference chain without faults, and compares everything
/// observable: per-transaction outcomes and event logs, every account's
/// balance/nonce state, and every contract storage field.
///
/// `build` constructs a ready world (funded accounts, deployed contracts)
/// for a given configuration — both runs must start from the same world.
pub fn differential(
    build: &dyn Fn(&ChainConfig) -> Network,
    load: &[Transaction],
    sharded_cfg: &ChainConfig,
    reference_cfg: &ChainConfig,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> DiffReport {
    let mut sharded_net = build(sharded_cfg);
    let sharded_initial = balances_of(&sharded_net);
    let mut pool = load.to_vec();
    let sharded = run_sim(&mut sharded_net, &mut pool, cfg, plan);

    let mut reference_net = build(reference_cfg);
    let reference_initial = balances_of(&reference_net);
    // Replay the sharded run's witness schedule: delivery faults (drops,
    // duplicates, reorders) legitimately change *arrival* order, and
    // overwrite-join updates are last-writer-wins, so the reference must
    // serialize in the order the sharded run actually committed — Thm 4.6
    // promises equivalence to *a* sequential execution, and the commit
    // order is that execution. Never-committed transactions keep their
    // original relative order at the end (the stable sort below).
    let order: BTreeMap<u64, usize> =
        sharded.commit_order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let mut ref_pool = load.to_vec();
    ref_pool.sort_by_key(|t| order.get(&t.id).copied().unwrap_or(usize::MAX));
    let reference = run_sim(&mut reference_net, &mut ref_pool, cfg, &FaultPlan::none());

    let mut divergences = Vec::new();
    for v in &sharded.safety_violations {
        divergences.push(Divergence::SafetyViolation(v.clone()));
    }
    if !sharded.drained {
        divergences.push(Divergence::Liveness(format!(
            "sharded pool not drained after {} epochs",
            sharded.epochs
        )));
    }
    if !reference.drained {
        divergences.push(Divergence::Liveness(format!(
            "reference pool not drained after {} epochs",
            reference.epochs
        )));
    }

    // Per-transaction outcomes and event logs.
    let tx_ids: BTreeSet<u64> =
        sharded.outcomes.keys().chain(reference.outcomes.keys()).copied().collect();
    for id in tx_ids {
        match (sharded.outcomes.get(&id), reference.outcomes.get(&id)) {
            (Some(s), Some(r)) => {
                if s.label() != r.label() {
                    divergences.push(Divergence::Outcome {
                        tx_id: id,
                        sharded: s.label().into(),
                        reference: r.label().into(),
                    });
                } else if let (
                    TxOutcome::Success { events: se },
                    TxOutcome::Success { events: re },
                ) = (s, r)
                {
                    if se != re {
                        divergences.push(Divergence::Events { tx_id: id });
                    }
                }
            }
            (s, r) => divergences.push(Divergence::Outcome {
                tx_id: id,
                sharded: s.map_or("-".into(), |o| o.label().into()),
                reference: r.map_or("-".into(), |o| o.label().into()),
            }),
        }
    }

    compare_states(
        Side { net: &sharded_net, fees: &sharded.fees, initial: &sharded_initial },
        Side { net: &reference_net, fees: &reference.fees, initial: &reference_initial },
        &mut divergences,
    );

    if !divergences.is_empty() {
        telemetry::registry()
            .counter(telemetry::names::SIM_DIVERGENCE)
            .add(divergences.len() as u64);
    }
    DiffReport { divergences, sharded, reference }
}

/// The snapshot of every account's balance (for pre/post comparison).
fn balances_of(net: &Network) -> BTreeMap<Address, u128> {
    net.state().accounts.iter().map(|(a, acc)| (*a, acc.balance)).collect()
}

/// One side of the state comparison: the final network plus the run's fee
/// ledger and pre-load balances.
struct Side<'a> {
    net: &'a Network,
    fees: &'a BTreeMap<Address, u128>,
    initial: &'a BTreeMap<Address, u128>,
}

/// Field-by-field comparison of two final states. Balances are compared as
/// the load's *pre-gas effect*, `final + fees − initial`: state must match
/// exactly, but gas metering is path-dependent (on both the load and the
/// setup phase), so the exact burn may legitimately differ between a
/// sharded and a sequential run of the same load.
fn compare_states(sharded: Side<'_>, reference: Side<'_>, out: &mut Vec<Divergence>) {
    let (s, r) = (sharded.net.state(), reference.net.state());
    let addrs: BTreeSet<Address> = s.accounts.keys().chain(r.accounts.keys()).copied().collect();
    for addr in addrs {
        match (s.accounts.get(&addr), r.accounts.get(&addr)) {
            (Some(a), Some(b)) => {
                // final_a + fees_a − init_a == final_b + fees_b − init_b,
                // rearranged so every term stays an unsigned addition.
                let lhs = a
                    .balance
                    .saturating_add(sharded.fees.get(&addr).copied().unwrap_or(0))
                    .saturating_add(reference.initial.get(&addr).copied().unwrap_or(0));
                let rhs = b
                    .balance
                    .saturating_add(reference.fees.get(&addr).copied().unwrap_or(0))
                    .saturating_add(sharded.initial.get(&addr).copied().unwrap_or(0));
                if lhs != rhs {
                    out.push(Divergence::Account {
                        addr: addr.to_string(),
                        detail: format!(
                            "pre-gas balance effect differs (raw {} vs {})",
                            a.balance, b.balance
                        ),
                    });
                }
                if a.nonces != b.nonces {
                    out.push(Divergence::Account {
                        addr: addr.to_string(),
                        detail: format!(
                            "nonces (watermark {} vs {})",
                            a.nonces.watermark(),
                            b.nonces.watermark()
                        ),
                    });
                }
                if a.is_contract != b.is_contract {
                    out.push(Divergence::Account {
                        addr: addr.to_string(),
                        detail: "contract flag differs".into(),
                    });
                }
            }
            (a, _) => {
                // Zero-balance, nonce-free accounts may exist on one side
                // only (e.g. created by a 0-amount credit); that is not
                // observable.
                let ghost = a.or_else(|| r.accounts.get(&addr)).expect("one side has it");
                if ghost.balance != 0 || ghost.nonces != Default::default() {
                    out.push(Divergence::Account {
                        addr: addr.to_string(),
                        detail: "account exists on one side only".into(),
                    });
                }
            }
        }
    }
    let contracts: BTreeSet<Address> = s.storage.keys().chain(r.storage.keys()).copied().collect();
    for c in contracts {
        let empty = Default::default();
        let sf = s.storage.get(&c).unwrap_or(&empty);
        let rf = r.storage.get(&c).unwrap_or(&empty);
        let fields: BTreeSet<&String> = sf.fields().keys().chain(rf.fields().keys()).collect();
        for field in fields {
            if sf.fields().get(field) != rf.fields().get(field) {
                out.push(Divergence::Storage {
                    contract: c.to_string(),
                    field: field.clone(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Repro artifacts
// ---------------------------------------------------------------------------

/// Everything needed to replay a divergence: the seed, the network shape,
/// the fault plan, and the transaction trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproArtifact {
    /// The run's seed.
    pub seed: u64,
    /// Shards on the sharded side.
    pub num_shards: u32,
    /// The fault plan in force.
    pub plan: FaultPlan,
    /// The transaction trace that still diverges.
    pub trace: Vec<Transaction>,
    /// Human-readable divergence descriptions.
    pub divergences: Vec<String>,
}

impl ReproArtifact {
    /// Builds an artifact from a diff report.
    pub fn from_diff(
        diff: &DiffReport,
        cfg: &SimConfig,
        num_shards: u32,
        plan: &FaultPlan,
        trace: Vec<Transaction>,
    ) -> ReproArtifact {
        ReproArtifact {
            seed: cfg.seed,
            num_shards,
            plan: plan.clone(),
            trace,
            divergences: diff.divergences.iter().map(|d| d.to_string()).collect(),
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "seed": self.seed,
            "num_shards": self.num_shards,
            "plan": self.plan.to_json(),
            "trace": self.trace.iter().map(Transaction::to_json).collect::<Vec<_>>(),
            "divergences": self.divergences.clone(),
        })
    }

    /// Parses the JSON form produced by [`ReproArtifact::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed node.
    pub fn from_json(j: &serde_json::Value) -> Result<ReproArtifact, String> {
        Ok(ReproArtifact {
            seed: j["seed"].as_u64().ok_or("missing seed")?,
            num_shards: j["num_shards"].as_u64().ok_or("missing num_shards")? as u32,
            plan: FaultPlan::from_json(&j["plan"])?,
            trace: j["trace"]
                .as_array()
                .ok_or("missing trace")?
                .iter()
                .map(Transaction::from_json)
                .collect::<Result<Vec<_>, String>>()?,
            divergences: j["divergences"]
                .as_array()
                .ok_or("missing divergences")?
                .iter()
                .map(|d| d.as_str().map(String::from).ok_or_else(|| "bad divergence".into()))
                .collect::<Result<Vec<_>, String>>()?,
        })
    }

    /// Writes the artifact as pretty-stable JSON.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string())
    }

    /// Reads an artifact back.
    ///
    /// # Errors
    ///
    /// Reports I/O and parse failures as strings.
    pub fn read(path: &std::path::Path) -> Result<ReproArtifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let j: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        ReproArtifact::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ChainConfig;

    #[test]
    fn fault_plans_are_seeded_and_roundtrip() {
        let a = FaultPlan::generate(42, 8, 4, 0.3);
        let b = FaultPlan::generate(42, 8, 4, 0.3);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::generate(43, 8, 4, 0.3));
        assert!(!a.events.is_empty());
        let back = FaultPlan::from_json(&a.to_json()).unwrap();
        assert_eq!(a, back);
        let partial: serde_json::Value =
            serde_json::from_str(r#"{"events": [{"epoch": 1}]}"#).unwrap();
        assert!(FaultPlan::from_json(&partial).is_err());
    }

    #[test]
    fn payments_survive_every_fault_kind() {
        // One seeded world, every fault kind in one plan; all payments must
        // still commit exactly once, and two identical runs must agree
        // bit-for-bit.
        let build = || {
            let mut net = Network::new(ChainConfig::small(3, true));
            for i in 0..12u64 {
                net.fund_account(Address::from_index(i), 1_000_000);
            }
            net
        };
        let load: Vec<Transaction> = (0..24u64)
            .map(|i| {
                Transaction::payment(
                    i + 1,
                    Address::from_index(i % 12),
                    i / 12 + 1,
                    Address::from_index((i + 1) % 12),
                    100,
                )
            })
            .collect();
        // Shard 1 is the busiest for these users (6 of 12 live there), so
        // gas exhaustion at epoch 0 leaves it deferred work to drop at
        // epoch 1.
        let plan = FaultPlan {
            events: vec![
                FaultEvent { epoch: 0, shard: 1, kind: FaultKind::GasExhaustion },
                FaultEvent { epoch: 0, shard: 2, kind: FaultKind::DuplicatePacket },
                FaultEvent { epoch: 0, shard: 2, kind: FaultKind::ReorderPacket },
                FaultEvent { epoch: 0, shard: 0, kind: FaultKind::ShardPanic },
                FaultEvent { epoch: 1, shard: 1, kind: FaultKind::DropPacket },
            ],
        };
        let cfg = SimConfig::new(7);
        let run = |plan: &FaultPlan| {
            let mut net = build();
            let mut pool = load.clone();
            let r = run_sim(&mut net, &mut pool, &cfg, plan);
            (r, state_digest(&net))
        };
        let (r1, d1) = run(&plan);
        let (r2, d2) = run(&plan);
        assert_eq!(d1, d2, "same seed + plan ⇒ identical digests");
        assert_eq!(r1.outcomes, r2.outcomes);
        assert_eq!(r1.epochs, r2.epochs);
        assert!(r1.drained, "pool must drain despite faults");
        assert!(r1.safety_violations.is_empty(), "{:?}", r1.safety_violations);
        assert_eq!(r1.committed(), 24, "every payment commits exactly once");
        assert_eq!(r1.injected.len(), 5, "every fault kind injected: {:?}", r1.injected);
        // The fault-free run ends in the same state (payments commute).
        let (r0, d0) = run(&FaultPlan::none());
        assert_eq!(d0, d1, "faults must not change the final state");
        assert_eq!(r0.outcomes, r1.outcomes);
    }

    #[test]
    fn malformed_txs_fail_without_state_damage() {
        let mut net = Network::new(ChainConfig::small(2, true));
        net.fund_account(Address::from_index(1), 500_000);
        let mut pool = Vec::new();
        let n = inject_malformed(&mut pool, 99, 1_000);
        assert_eq!(pool.len(), n);
        let before = state_digest(&net);
        let r = run_sim(&mut net, &mut pool, &SimConfig::new(99), &FaultPlan::none());
        assert!(r.drained);
        assert_eq!(r.committed(), 0);
        assert_eq!(r.outcomes.len(), n);
        assert_eq!(state_digest(&net), before, "malformed txs must not change state");
    }

    #[test]
    fn artifacts_roundtrip_through_json_files() {
        let plan = FaultPlan::generate(5, 4, 2, 0.5);
        let art = ReproArtifact {
            seed: 5,
            num_shards: 4,
            plan,
            trace: vec![Transaction::payment(
                1,
                Address::from_index(1),
                1,
                Address::from_index(2),
                10,
            )],
            divergences: vec!["tx 1: outcome success vs failed".into()],
        };
        let dir = std::env::temp_dir().join(format!("cosplit_sim_art_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro.json");
        art.write(&path).unwrap();
        let back = ReproArtifact::read(&path).unwrap();
        assert_eq!(art, back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
