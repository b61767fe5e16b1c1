//! The single differential entry point: every workload kind (Fig. 14's
//! eight plus the relay chain and the airdrop) runs on a 4-shard CoSplit
//! chain under both named profiles — `paper` (every optional flag off) and
//! `full` (cross-shard 2PC + call composition + family colocation, together)
//! — and several seeded fault plans, is replayed on a fault-free 1-shard
//! reference chain (the executable specification), and the two final worlds
//! must be observationally identical — per-transaction outcomes, event
//! logs, balances, nonce state, and contract storage — with the footprint
//! auditor on. On top of the equivalence check, native tokens must be
//! conserved modulo gas burn even with faults injected, the dispatch
//! fractions of the headline workloads are pinned exactly, and dispatch and
//! the cross-shard lock plan agree on every transaction.

use cosplit::chain::dispatch::{dispatch_policy, xshard_plan, Assignment, DispatchReason};
use cosplit::chain::network::{ChainConfig, Network};
use cosplit::chain::sim::{
    differential, inject_malformed, reference_config, run_sim, FaultPlan, SimConfig,
};
use cosplit::workloads::runner::world_builder;
use cosplit::workloads::scenarios::{build, Kind};
use cosplit::workloads::seeds;
use std::collections::{BTreeMap, BTreeSet};

const MASTER_SEED: u64 = 4242;

/// Fig. 14's eight workloads plus the two that exist for one mechanism each:
/// the relay chain (call composition) and the airdrop (derived-key dispatch).
fn kinds() -> Vec<Kind> {
    Kind::all().into_iter().chain([Kind::RelayPing, Kind::FtAirdrop]).collect()
}

/// The two profiles the benchmark names: `paper` is §4–5 as published,
/// `full` turns every optional mechanism on at once.
fn profiles() -> [(&'static str, ChainConfig); 2] {
    let paper = ChainConfig::small(4, true);
    let full = ChainConfig {
        cross_shard_commit: true,
        compose_calls: true,
        colocate_families: true,
        ..paper.clone()
    };
    [("paper", paper), ("full", full)]
}

fn total_native(net: &Network) -> u128 {
    net.state().accounts.values().map(|a| a.balance).sum()
}

/// Four distinct generated plans plus the fault-free control.
fn plans(shards: u32) -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::none()];
    for i in 0..4u64 {
        plans.push(FaultPlan::generate(
            seeds::derive(MASTER_SEED, &format!("corpus-plan-{i}")),
            8,
            shards,
            0.3,
        ));
    }
    plans
}

#[test]
fn every_workload_and_profile_matches_the_sequential_reference() {
    let plans = plans(4);
    assert!(plans.iter().skip(1).all(|p| !p.events.is_empty()), "plans must inject faults");

    for (profile, sharded_cfg) in profiles() {
        assert!(sharded_cfg.audit, "the sweep runs with the footprint auditor on");
        let reference_cfg = reference_config(&sharded_cfg);
        for kind in kinds() {
            let scenario =
                build(kind, 24, 160, seeds::derive(MASTER_SEED, &format!("corpus-{kind:?}")));
            let builder = world_builder(&scenario);
            // Every run also carries the malformed and hostile transactions:
            // they must fail identically on both chains and starve nobody.
            let mut load = scenario.load.clone();
            inject_malformed(&mut load, MASTER_SEED, 9_000_000);
            for (i, plan) in plans.iter().enumerate() {
                let cfg = SimConfig::new(MASTER_SEED);
                let diff = differential(
                    &builder,
                    &load,
                    &sharded_cfg,
                    &reference_cfg,
                    &cfg,
                    plan,
                );
                assert!(
                    diff.is_clean(),
                    "{kind:?} [{profile}] diverged under plan {i}: {:?}",
                    diff.divergences
                );
                assert_eq!(
                    diff.sharded.committed(),
                    scenario.load.len(),
                    "{kind:?} [{profile}] plan {i}: corpus loads always succeed"
                );
            }
        }
    }
}

/// Where the lookup node sends `kinds`' loads (40 users, 500 tx, seed 13
/// each): permille per dispatch reason, and permille at the DS committee.
/// Dispatch is a pure function of signature and state, so these are exact
/// on every host.
fn dispatch_permille(kinds: &[Kind], config: &ChainConfig) -> (BTreeMap<String, usize>, usize) {
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    let (mut ds, mut total) = (0, 0);
    for &kind in kinds {
        let scenario = build(kind, 40, 500, 13);
        let packets = world_builder(&scenario)(config).form_packets(&mut scenario.load.clone());
        for (reason, n) in packets.dispatch_reasons {
            *reasons.entry(reason).or_default() += n;
        }
        ds += packets.ds_batch.len();
        total += scenario.load.len();
    }
    (reasons.into_iter().map(|(k, n)| (k, n * 1000 / total)).collect(), ds * 1000 / total)
}

#[test]
fn dispatch_fractions_are_pinned() {
    let paper = ChainConfig::evaluation(3, true);
    // Ownership-, commutativity- and DS-heavy together: ProofIPFS `Register`
    // is the split footprint that serialises under the paper profile.
    let (reasons, ds) =
        dispatch_permille(&[Kind::FtTransfer, Kind::NftMint, Kind::IpfsRegister], &paper);
    let expected = [("ownership", 788), ("split-footprint", 211)];
    assert_eq!(reasons, expected.map(|(k, v)| (k.to_string(), v)).into());
    assert_eq!(ds, 211);
    // Derived `sha256hash proof` keys resolve at dispatch: no claim goes to DS.
    assert_eq!(dispatch_permille(&[Kind::FtAirdrop], &paper).1, 0);
    // A statically resolved relay chain dispatches shard-local once composed.
    let composed = ChainConfig { compose_calls: true, ..paper };
    assert_eq!(dispatch_permille(&[Kind::RelayPing], &composed).1, 0);
}

/// Dispatch and the two-phase-commit lock plan resolve a transaction the
/// same way: for every transaction of `kinds`' loads (40 users, 500 tx,
/// seed 13, plus the malformed ones) under both profiles, the plan's
/// participants are the shards dispatch saw, and a transaction dispatch
/// keeps away from the cross-shard stage has no plan, for the same reason.
#[test]
fn dispatch_and_the_lock_plan_agree() {
    use DispatchReason as R;
    let mut tallies: BTreeMap<&str, usize> = BTreeMap::new();
    for (profile, config) in profiles() {
        for kind in kinds() {
            let scenario = build(kind, 40, 500, 13);
            let net = world_builder(&scenario)(&config);
            let mut load = scenario.load.clone();
            inject_malformed(&mut load, MASTER_SEED, 9_000_000);
            for tx in &load {
                let d = dispatch_policy(tx, net.state(), &config);
                let plan = xshard_plan(tx, net.state(), &config).map(|p| p.participants);
                let agrees = match (d.assignment, d.reason) {
                    (_, R::Payment) => plan == Err(R::Payment),
                    (_, R::BaselineLocal | R::BaselineCross) => plan == Err(R::BaselineCross),
                    (_, R::Unconstrained) => plan == Err(R::Unconstrained),
                    (Assignment::Shard(s), R::OwnershipPinned) => plan == Ok(BTreeSet::from([s])),
                    // A lock-free chain spreads by transaction id.
                    (Assignment::Shard(s), R::ComposedLocal) => {
                        plan == Ok(BTreeSet::from([s])) || plan == Err(R::Unconstrained)
                    }
                    (Assignment::XShard, _) | (Assignment::Ds, R::SplitFootprint) => {
                        plan.as_ref().is_ok_and(|p| p.len() >= 2)
                    }
                    (Assignment::Ds, r) => plan == Err(r),
                    (Assignment::Shard(_), r) => panic!("a shard decision for {}", r.name()),
                };
                assert!(agrees, "{kind:?} [{profile}] tx {}: {d:?} but plan {plan:?}", tx.id);
                *tallies.entry(d.reason.name()).or_default() += 1;
            }
        }
    }
    let expected = [
        ("bad-args", 20),
        ("composed-local", 500),
        ("not-user-addr", 500),
        ("ownership", 8270),
        ("payment", 100),
        ("split-footprint", 365),
        ("xshard", 365),
    ];
    assert_eq!(tallies, BTreeMap::from(expected));
}

#[test]
fn faulted_runs_conserve_native_tokens_modulo_gas() {
    let sharded_cfg = ChainConfig::small(4, true);
    for kind in Kind::all() {
        let scenario =
            build(kind, 24, 160, seeds::derive(MASTER_SEED, &format!("conserve-{kind:?}")));
        let plan = FaultPlan::generate(
            seeds::derive(MASTER_SEED, "conserve-plan"),
            8,
            sharded_cfg.num_shards,
            0.4,
        );
        let mut net = world_builder(&scenario)(&sharded_cfg);
        let before = total_native(&net);
        let mut pool = scenario.load.clone();
        let report = run_sim(&mut net, &mut pool, &SimConfig::new(MASTER_SEED), &plan);
        assert!(report.drained, "{kind:?}: pool drains despite faults");
        assert!(report.safety_violations.is_empty(), "{kind:?}: {:?}", report.safety_violations);

        let after = total_native(&net);
        assert!(after <= before, "{kind:?}: faults must never mint tokens");
        // The only sink is gas: the burn is bounded by every load
        // transaction exhausting its whole budget (duplicated deliveries
        // never commit twice, so they charge nothing extra).
        let max_burn: u128 =
            scenario.load.iter().map(|t| u128::from(t.gas_limit) * t.gas_price).sum();
        assert!(
            before - after <= max_burn,
            "{kind:?}: burned {} > worst-case gas {max_burn}",
            before - after
        );
    }
}
