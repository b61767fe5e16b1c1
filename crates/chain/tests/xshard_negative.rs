//! Negative paths of the cross-shard two-phase commit: every way a
//! multi-shard transaction can fail to ride the atomic-commit stage must
//! land safely and be attributed — unsatisfiable signatures still serialise
//! at the DS committee (with the right reason counter) even when the stage
//! is enabled, a participant veto mid-prepare aborts with release and the
//! transaction retries cleanly, and a lost vote inside the full simulator
//! aborts, repools, and commits on a later epoch. The stage's one executor
//! must commit what one stage per transaction commits, and a veto in the
//! middle of a packet must undo exactly its own transaction.

use chain::address::Address;
use chain::dispatch::{dispatch_policy, Assignment, DispatchReason};
use chain::network::{ChainConfig, Network};
use chain::executor::TxStatus;
use chain::sim::{run_sim, state_digest, FaultEvent, FaultKind, FaultPlan, SimConfig, TxOutcome};
use chain::tx::{Transaction, TxKind};
use chain::xshard::{NoFaults, ShardFault, VoteMsg, XShardFaults, XShardStats};
use cosplit_analysis::signature::WeakReads;
use scilla::value::Value;
use std::sync::Mutex;

const SHARDS: u32 = 4;

/// `Route`'s recipient is read from storage (ω-cardinality), so the
/// transition's constraint set is unsatisfiable — multi-shard or not, it
/// can only go to the DS.
const ROUTER: &str = r#"
    library RouterLib
    let nil_msg = Nil {Message}
    let one_msg = fun (m : Message) => Cons {Message} m nil_msg
    let zero = Uint128 0

    contract Router (init_target : ByStr20)
    field target : ByStr20 = init_target

    transition Route (amount : Uint128)
      t <- target;
      msg = {_tag : "Mint"; _recipient : t; _amount : zero;
             to : _sender; amount : amount};
      msgs = one_msg msg;
      send msgs
    end
"#;

fn cfg(cross_shard_commit: bool) -> ChainConfig {
    ChainConfig { cross_shard_commit, ..ChainConfig::small(SHARDS, true) }
}

/// A ProofIPFS world: the `Register` transition's footprint is the sender's
/// account plus the registry component keyed by the hash string — two
/// shards for most (sender, hash) pairs.
fn ipfs_world(config: ChainConfig) -> (Network, Address) {
    let mut net = Network::new(config);
    let admin = Address::from_index(999);
    for i in 0..64 {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    net.fund_account(admin, 1_000_000_000);
    let contract = Address::from_index(3_000_000);
    let source = scilla::corpus::get("ProofIPFS").expect("corpus contract").source;
    net.deploy(
        contract,
        source,
        vec![("initial_admin".to_string(), admin.to_value())],
        Some((&["Register"], WeakReads::AcceptAll)),
    )
    .expect("ProofIPFS deploys");
    (net, contract)
}

/// A `Register` call whose resolved footprint spans at least two shards
/// (scans hash strings until one lands off the sender's home shard).
fn split_register(net: &Network, contract: Address, id: u64, nonce: u64) -> Transaction {
    split_register_by(net, contract, Address::from_index(1), id, nonce, |i| format!("Qm{i:060}"))
}

/// [`split_register`] from any sender, over the hash strings `hash(0..256)`.
fn split_register_by(
    net: &Network,
    contract: Address,
    sender: Address,
    id: u64,
    nonce: u64,
    hash: impl Fn(u32) -> String,
) -> Transaction {
    (0..256u32)
        .map(|i| {
            Transaction::call(
                id,
                sender,
                nonce,
                contract,
                "Register",
                vec![("ipfs_hash".into(), Value::Str(hash(i)))],
            )
            .with_amount(10)
        })
        .find(|tx| {
            dispatch_policy(tx, net.state(), &cfg(true)).assignment == Assignment::XShard
        })
        .expect("some hash string maps off the sender's home shard")
}

/// A split-footprint `Register` whose hash string no other id uses.
fn register(net: &Network, contract: Address, sender: Address, id: u64, nonce: u64) -> Transaction {
    split_register_by(net, contract, sender, id, nonce, |i| format!("Qm{id:08}{i:052}"))
}

/// Serialises this file's tests: each asserts on diffs of the
/// process-global telemetry registry.
static TELEMETRY_GUARD: Mutex<()> = Mutex::new(());

/// One participant votes no on its first prepare, then behaves.
struct VetoOnce {
    done: bool,
}

impl XShardFaults for VetoOnce {
    fn prepare_panic(&mut self, _epoch: u64, _tx: &Transaction, _shard: u32) -> bool {
        !std::mem::replace(&mut self.done, true)
    }
}

/// Single test function: the telemetry registry is process-global, so each
/// phase measures its own snapshot diff sequentially.
#[test]
fn negative_paths_abort_cleanly_and_are_counted() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let reason = |r: DispatchReason| format!("chain.dispatch.reason.{}", r.name());

    // --- An unsatisfiable signature stays a DS transaction even with the
    // cross-shard stage enabled: enabling 2PC must never widen what shards.
    let mut net = Network::new(cfg(true));
    for i in 0..8 {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    let router = Address::from_index(1_000_002);
    let token = Address::from_index(1_000_000);
    net.deploy(
        router,
        ROUTER,
        vec![("init_target".to_string(), token.to_value())],
        Some((&["Route"], WeakReads::AcceptAll)),
    )
    .unwrap();
    let before = telemetry::registry().snapshot();
    let d = dispatch_policy(
        &Transaction::call(1, Address::from_index(0), 1, router, "Route", vec![(
            "amount".into(),
            Value::Uint(128, 1),
        )]),
        net.state(),
        &cfg(true),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::Unsat);
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(delta.counter(&reason(DispatchReason::Unsat)), 1);
    assert_eq!(delta.counter("chain.dispatch.to_ds"), 1);
    assert_eq!(delta.counter("chain.dispatch.to_xshard"), 0);

    // --- The same multi-shard footprint: DS (split-footprint) with the
    // stage off, cross-shard commit with it on.
    let (net, contract) = ipfs_world(cfg(true));
    let tx = split_register(&net, contract, 10, 1);
    let off = dispatch_policy(&tx, net.state(), &cfg(false));
    assert_eq!(off.assignment, Assignment::Ds);
    assert_eq!(off.reason, DispatchReason::SplitFootprint);
    let before = telemetry::registry().snapshot();
    let on = dispatch_policy(&tx, net.state(), &cfg(true));
    assert_eq!(on.assignment, Assignment::XShard);
    assert_eq!(on.reason, DispatchReason::CrossShard);
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(delta.counter(&reason(DispatchReason::CrossShard)), 1);
    assert_eq!(delta.counter("chain.dispatch.to_xshard"), 1);

    // --- Participant veto mid-prepare: abort with release (no receipt, no
    // state change, no orphan lock), the transaction defers, and the retry
    // commits.
    let (mut net, contract) = ipfs_world(cfg(true));
    let tx = split_register(&net, contract, 20, 1);
    let before = telemetry::registry().snapshot();
    let xb = net.execute_xshard(vec![tx.clone()], &mut VetoOnce { done: false });
    assert_eq!(xb.stats.aborted, 1, "veto must abort: {:?}", xb.stats);
    assert_eq!(xb.stats.committed, 0);
    assert!(xb.block.receipts.is_empty(), "an aborted prepare leaves no receipt");
    assert_eq!(xb.block.deferred.len(), 1, "the aborted tx repools");
    assert_eq!(xb.block.deferred[0].id, tx.id);
    assert!(xb.errors.is_empty(), "{:?}", xb.errors);
    assert!(net.lock_table().is_empty(), "abort must release every acquired lock");
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(delta.counter("chain.xshard.aborted"), 1);
    assert_eq!(delta.counter("chain.xshard.committed"), 0);

    let xb = net.execute_xshard(vec![tx], &mut NoFaults);
    assert_eq!(xb.stats.committed, 1, "the retry must commit: {:?}", xb.stats);
    assert_eq!(xb.block.receipts.len(), 1);
    assert!(net.lock_table().is_empty(), "commit must release every lock");

    // --- Lost vote inside the full simulator: abort, backoff repool, and a
    // later epoch commits — the outcome is still success and the recovery
    // is attributed.
    let (mut net, contract) = ipfs_world(cfg(true));
    let tx = split_register(&net, contract, 30, 1);
    let mut pool = vec![tx.clone()];
    let plan = FaultPlan {
        events: vec![FaultEvent { epoch: 0, shard: 0, kind: FaultKind::LostVote }],
    };
    let report = run_sim(&mut net, &mut pool, &SimConfig::new(7), &plan);
    assert!(report.drained, "the retried transaction must drain");
    assert!(report.epochs >= 2, "a lost vote costs at least one extra epoch");
    assert_eq!(report.injected.get("lost-vote").copied(), Some(1));
    assert!(report.recoveries.get("xshard-abort-retry").copied().unwrap_or(0) >= 1);
    assert!(
        matches!(report.outcomes.get(&tx.id), Some(TxOutcome::Success { .. })),
        "{:?}",
        report.outcomes.get(&tx.id)
    );
    assert!(report.safety_violations.is_empty(), "{:?}", report.safety_violations);
    assert!(net.lock_table().is_empty());
}

fn sum(a: XShardStats, b: XShardStats) -> XShardStats {
    XShardStats {
        prepared: a.prepared + b.prepared,
        committed: a.committed + b.committed,
        aborted: a.aborted + b.aborted,
        lock_wait: a.lock_wait + b.lock_wait,
        ds_fallback: a.ds_fallback + b.ds_fallback,
        stale_locks_broken: a.stale_locks_broken + b.stale_locks_broken,
        coordinator_crashes: a.coordinator_crashes + b.coordinator_crashes,
        duplicate_votes: a.duplicate_votes + b.duplicate_votes,
    }
}

/// One executor over the whole packet commits exactly what one stage per
/// transaction commits — including for a sender who can afford its second
/// `Register` only with the first one's gas refund, which the stage must
/// credit before the next prepare runs.
#[test]
fn one_stage_equals_one_transaction_at_a_time() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let rich = Address::from_index(1);
    let broke = Address::from_index(500);
    let (mut stage, contract) = ipfs_world(cfg(true));
    let senders = [(broke, 1), (rich, 1), (rich, 2), (broke, 2), (rich, 3), (rich, 4)];
    let batch: Vec<Transaction> = senders
        .into_iter()
        .zip(40..)
        .map(|((sender, nonce), id)| register(&stage, contract, sender, id, nonce))
        .collect();
    let (first, second) = (&batch[0], &batch[3]);

    // What the first `Register` really costs, learnt on a third world.
    let (mut dry, _) = ipfs_world(cfg(true));
    dry.fund_account(broke, 1_000_000_000);
    let dry_run = dry.execute_xshard(vec![first.clone()], &mut NoFaults);
    let actual_fee = u128::from(dry_run.block.receipts[0].gas_used) * first.gas_price;
    let amount = |tx: &Transaction| match tx.kind {
        TxKind::Call { amount, .. } => amount,
        TxKind::Payment { amount, .. } => amount,
    };
    let funds = actual_fee
        + amount(first)
        + u128::from(second.gas_limit) * second.gas_price
        + amount(second);

    stage.fund_account(broke, funds);
    let staged = stage.execute_xshard(batch.clone(), &mut NoFaults);

    let (mut serial, _) = ipfs_world(cfg(true));
    serial.fund_account(broke, funds);
    let mut receipts = Vec::new();
    let mut stats = XShardStats::default();
    for tx in &batch {
        let one = serial.execute_xshard(vec![tx.clone()], &mut NoFaults);
        assert!(one.errors.is_empty() && one.block.deferred.is_empty(), "{:?}", one.errors);
        receipts.extend(one.block.receipts);
        stats = sum(stats, one.stats);
    }

    assert!(staged.errors.is_empty(), "{:?}", staged.errors);
    assert!(staged.block.deferred.is_empty());
    assert!(
        receipts.iter().all(|r| r.status == TxStatus::Success),
        "every Register commits, the near-broke sender's second included: {receipts:?}"
    );
    assert_eq!(staged.block.receipts, receipts);
    assert_eq!(staged.stats, stats);
    assert!(stage.lock_table().is_empty() && serial.lock_table().is_empty());
    assert_eq!(state_digest(&stage), state_digest(&serial));
}

/// A fault plan that records every hook call as `(hook, tx id, shard)` and
/// has every participant of one transaction vote no.
struct Recorder {
    veto: u64,
    log: Vec<(&'static str, u64, Option<u32>)>,
}

impl XShardFaults for Recorder {
    fn shard_fault(&mut self, _epoch: u64, shard: u32) -> ShardFault {
        self.log.push(("shard_fault", 0, Some(shard)));
        ShardFault::None
    }

    fn deliver_votes(&mut self, _epoch: u64, tx: &Transaction, votes: Vec<VoteMsg>) -> Vec<VoteMsg> {
        self.log.push(("deliver_votes", tx.id, None));
        votes
    }

    fn prepare_panic(&mut self, _epoch: u64, tx: &Transaction, shard: u32) -> bool {
        self.log.push(("prepare_panic", tx.id, Some(shard)));
        tx.id == self.veto
    }

    fn coordinator_crash(&mut self, _epoch: u64, tx: &Transaction) -> bool {
        self.log.push(("coordinator_crash", tx.id, None));
        false
    }

    fn plant_stale_lock(&mut self, _epoch: u64, tx: &Transaction) -> bool {
        self.log.push(("plant_stale_lock", tx.id, None));
        false
    }
}

/// A veto in the middle of a packet rolls back that transaction alone — its
/// writes, fee and nonce — while its neighbours commit around it, and the
/// stage calls its hooks in the protocol's order.
#[test]
fn a_mid_batch_veto_rolls_back_only_its_transaction() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let sender = Address::from_index(1);
    let (mut net, contract) = ipfs_world(cfg(true));
    let [a, b, c] =
        [(60, 1), (61, 2), (62, 3)].map(|(id, nonce)| register(&net, contract, sender, id, nonce));
    let mut faults = Recorder { veto: b.id, log: Vec::new() };
    let xb = net.execute_xshard(vec![a.clone(), b.clone(), c.clone()], &mut faults);

    let hooks = |id: u64, shards: [u32; 2]| {
        [
            ("plant_stale_lock", id, None),
            ("prepare_panic", id, Some(shards[0])),
            ("prepare_panic", id, Some(shards[1])),
            ("coordinator_crash", id, None),
            ("deliver_votes", id, None),
        ]
    };
    let expected: Vec<_> =
        [hooks(a.id, [0, 2]), hooks(b.id, [0, 3]), hooks(c.id, [0, 1])].concat();
    assert_eq!(faults.log, expected);

    let committed: Vec<u64> = xb.block.receipts.iter().map(|r| r.tx_id).collect();
    assert_eq!(committed, [a.id, c.id]);
    assert!(xb.block.receipts.iter().all(|r| r.status == TxStatus::Success));
    assert_eq!(xb.block.deferred, std::slice::from_ref(&b));
    assert_eq!((xb.stats.committed, xb.stats.aborted), (2, 1));
    assert!(xb.errors.is_empty(), "{:?}", xb.errors);
    assert!(net.lock_table().is_empty());

    let (mut only, _) = ipfs_world(cfg(true));
    let reference = only.execute_xshard(vec![a, c], &mut NoFaults);
    assert_eq!(reference.block.receipts, xb.block.receipts);
    assert_eq!(net.state().balance(&sender), only.state().balance(&sender));
    assert_eq!(net.storage_of(&contract), only.storage_of(&contract));
    assert_eq!(state_digest(&net), state_digest(&only));

    // The vetoed transaction's nonce is still free: the retry commits.
    let retry = net.execute_xshard(vec![b.clone()], &mut NoFaults);
    assert_eq!(retry.block.receipts.len(), 1);
    assert_eq!(retry.block.receipts[0].tx_id, b.id);
    assert_eq!(retry.block.receipts[0].status, TxStatus::Success);
    assert!(net.lock_table().is_empty());
}
