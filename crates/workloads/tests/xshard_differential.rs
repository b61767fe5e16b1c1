//! Cross-shard-commit differential corpus: every evaluation workload, run
//! with the two-phase cross-shard commit enabled, must stay observationally
//! equivalent to a 1-shard sequential reference — fault-free, under the
//! generated fault sweep (which now includes the five cross-shard protocol
//! faults), and under handcrafted worst-case protocol plans that crash the
//! coordinator between prepare and commit, lose votes, duplicate votes,
//! reorder votes, and plant stale locks.
//!
//! The oracle ([`chain::sim::differential`]) compares per-transaction
//! outcomes and event logs, final balances (modulo gas), the full nonce
//! state, and contract storage field by field, and flags liveness failures
//! (undrained pools) and safety violations. On top of that this suite
//! asserts the dispatch-quality target: with `cross_shard_commit`
//! enabled, the fraction of transactions serialised through the DS
//! committee stays **under 10 %** on every workload — multi-shard
//! footprints ride the atomic-commit stage instead.

use chain::network::ChainConfig;
use chain::sim::{
    differential, reference_config, DiffReport, FaultEvent, FaultKind, FaultPlan, SimConfig,
};
use workloads::runner::{run_with, world_builder};
use workloads::scenarios::{build, Kind};

const NUM_SHARDS: u32 = 4;
const USERS: u64 = 40;
const LOAD: usize = 360;

/// The sharded configuration under test: CoSplit dispatch with the
/// cross-shard two-phase commit stage enabled.
fn xshard_cfg() -> ChainConfig {
    ChainConfig { cross_shard_commit: true, ..ChainConfig::small(NUM_SHARDS, true) }
}

fn diff_for(kind: Kind, plan: &FaultPlan) -> DiffReport {
    let seed = 0x5BAC_0000u64 + kind as u64;
    let scenario = build(kind, USERS, LOAD, seed);
    let builder = world_builder(&scenario);
    let sharded = xshard_cfg();
    let reference = reference_config(&sharded);
    differential(&builder, &scenario.load, &sharded, &reference, &SimConfig::new(seed), plan)
}

fn assert_clean(kind: Kind, plan: &FaultPlan, plan_label: &str) -> DiffReport {
    let report = diff_for(kind, plan);
    assert!(
        report.is_clean(),
        "{} [{plan_label}]: {} divergence(s):\n{}",
        kind.label(),
        report.divergences.len(),
        report
            .divergences
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.sharded.drained, "{} [{plan_label}]: sharded pool undrained", kind.label());
    report
}

/// A handcrafted plan that fires one cross-shard protocol fault kind every
/// epoch for the first `epochs` epochs, sweeping the target-transaction
/// index so different transactions in the packet get hit.
fn protocol_plan(kind: FaultKind, epochs: u64) -> FaultPlan {
    let events = (0..epochs)
        .map(|epoch| FaultEvent { epoch, shard: epoch as u32, kind })
        .collect();
    FaultPlan { events }
}

#[test]
fn all_workloads_fault_free() {
    for kind in Kind::all() {
        let report = assert_clean(kind, &FaultPlan::none(), "fault-free");
        let committed = report
            .sharded
            .outcomes
            .values()
            .filter(|o| matches!(o, chain::sim::TxOutcome::Success { .. }))
            .count();
        assert!(committed > 0, "{}: nothing committed", kind.label());
    }
}

#[test]
fn all_workloads_under_generated_fault_sweep() {
    // The generator draws from all ten fault kinds, so this sweep exercises
    // packet faults and cross-shard protocol faults in the same runs.
    for kind in Kind::all() {
        let plan = FaultPlan::generate(0xFA_14 + kind as u64, 8, NUM_SHARDS, 0.4);
        assert_clean(kind, &plan, "generated");
    }
}

/// ProofIPFS `Register` is the workload whose ownership constraints span
/// shards (sender shard + registry-key shard), so its transactions ride the
/// cross-shard commit stage — the protocol plans below must actually hit
/// prepared transactions there, not no-op.
#[test]
fn coordinator_crash_between_prepare_and_commit() {
    let plan = protocol_plan(FaultKind::CoordinatorCrash, 6);
    let report = assert_clean(Kind::IpfsRegister, &plan, "coordinator-crash");
    let injected = report.sharded.injected.get("coordinator-crash").copied().unwrap_or(0);
    assert!(injected > 0, "plan never hit the cross-shard stage");
    // A crashed coordinator keeps its locks; the next epoch must break them
    // as stale and the transaction must retry to commitment.
    let retried = report.sharded.recoveries.get("xshard-abort-retry").copied().unwrap_or(0);
    assert!(retried > 0, "crashed transactions should abort and retry");
}

#[test]
fn lost_votes_abort_with_release_and_retry() {
    let plan = protocol_plan(FaultKind::LostVote, 6);
    let report = assert_clean(Kind::IpfsRegister, &plan, "lost-vote");
    assert!(
        report.sharded.injected.get("lost-vote").copied().unwrap_or(0) > 0,
        "plan never hit the cross-shard stage"
    );
    assert!(
        report.sharded.recoveries.get("xshard-abort-retry").copied().unwrap_or(0) > 0,
        "timed-out transactions should abort and retry"
    );
}

#[test]
fn duplicate_and_reordered_votes_are_absorbed() {
    // Duplicated and reordered vote deliveries must not change any decision:
    // the run stays equivalent *and* nothing even needs to retry.
    for (kind, label) in
        [(FaultKind::DuplicateVote, "duplicate-vote"), (FaultKind::ReorderVotes, "reorder-votes")]
    {
        let plan = protocol_plan(kind, 6);
        let report = assert_clean(Kind::IpfsRegister, &plan, label);
        assert!(
            report.sharded.injected.get(label).copied().unwrap_or(0) > 0,
            "[{label}] plan never hit the cross-shard stage"
        );
        assert_eq!(
            report.sharded.recoveries.get("xshard-abort-retry").copied().unwrap_or(0),
            0,
            "[{label}] vote-delivery noise must not force aborts"
        );
    }
}

#[test]
fn stale_foreign_locks_are_broken_and_the_tx_retries() {
    let plan = protocol_plan(FaultKind::StaleLock, 6);
    let report = assert_clean(Kind::IpfsRegister, &plan, "stale-lock");
    assert!(
        report.sharded.injected.get("stale-lock").copied().unwrap_or(0) > 0,
        "plan never hit the cross-shard stage"
    );
    assert!(
        report.sharded.recoveries.get("xshard-abort-retry").copied().unwrap_or(0) > 0,
        "a planted foreign lock should force one abort before recovery"
    );
}

#[test]
fn mixed_protocol_fault_storm() {
    // All five protocol faults interleaved in the same epochs.
    let kinds = [
        FaultKind::CoordinatorCrash,
        FaultKind::LostVote,
        FaultKind::DuplicateVote,
        FaultKind::ReorderVotes,
        FaultKind::StaleLock,
    ];
    let events = (0..8u64)
        .flat_map(|epoch| {
            kinds
                .iter()
                .enumerate()
                .map(move |(i, k)| FaultEvent { epoch, shard: (epoch as u32) + i as u32, kind: *k })
        })
        .collect();
    assert_clean(Kind::IpfsRegister, &FaultPlan { events }, "protocol-storm");
}

/// Dispatch reasons that end in DS serialisation (everything the
/// cross-shard commit could not or must not take).
const DS_REASONS: [&str; 8] = [
    "baseline-cross",
    "unselected",
    "unsat",
    "split-footprint",
    "alias",
    "not-user-addr",
    "bad-args",
    "strict-nonce",
];

#[test]
fn to_ds_fraction_stays_under_ten_percent_on_every_workload() {
    for kind in Kind::all() {
        let scenario = build(kind, USERS, 1_200, 0xD5_00 + kind as u64);
        let result = run_with(&scenario, xshard_cfg(), 6);
        let mut total = 0usize;
        let mut to_ds = 0usize;
        let mut to_xshard = 0usize;
        for report in &result.reports {
            for (reason, n) in &report.dispatch_reasons {
                total += n;
                if DS_REASONS.contains(reason) {
                    to_ds += n;
                }
                if *reason == "xshard" {
                    to_xshard += n;
                }
            }
        }
        assert!(total > 0, "{}: no dispatch decisions", kind.label());
        let permille = to_ds * 1000 / total;
        assert!(
            permille < 100,
            "{}: to_ds fraction {}‰ breaches the 10% budget ({to_ds}/{total})",
            kind.label(),
            permille
        );
        if kind == Kind::IpfsRegister {
            assert!(
                to_xshard > 0,
                "ProofIPFS register should exercise the cross-shard commit path"
            );
        }
    }
}
