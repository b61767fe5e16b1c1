//! Two pillars of the simulation harness, end to end:
//!
//! 1. **Determinism** — the same seed and fault plan must reproduce a run
//!    bit-for-bit: identical state digests, identical per-transaction
//!    outcomes, identical injected-fault counts.
//! 2. **Byzantine signatures are caught** — a forged sharding signature
//!    that lets non-commutative writes spread across shards must surface
//!    as a divergence in the differential oracle (never a silent
//!    corruption), and the dumped repro artifact must replay the failure
//!    after a JSON round-trip.

use chain::address::Address;
use chain::network::{ChainConfig, Network};
use chain::sim::{
    differential, reference_config, run_sim, Divergence, FaultEvent, FaultKind, FaultPlan,
    ReproArtifact, SimConfig,
};
use chain::tx::Transaction;
use cosplit_analysis::signature::{
    Join, ShardingSignature, TransitionConstraints, WeakReads,
};
use scilla::value::Value;
use std::collections::{BTreeMap, BTreeSet};

const TOKEN: &str = r#"
    contract Token ()
    field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
    transition Transfer (to : ByStr20, amount : Uint128)
      bal_opt <- balances[_sender];
      match bal_opt with
      | Some bal =>
        nf = builtin sub bal amount;
        balances[_sender] := nf;
        to_opt <- balances[to];
        nt = match to_opt with
          | Some b => builtin add b amount
          | None => amount
          end;
        balances[to] := nt
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

const USERS: u64 = 16;

fn token_addr() -> Address {
    Address::from_index(500_000)
}

fn transfer(id: u64, from: Address, nonce: u64, to: Address) -> Transaction {
    Transaction::call(
        id,
        from,
        nonce,
        token_addr(),
        "Transfer",
        vec![("to".into(), to.to_value()), ("amount".into(), Value::Uint(128, 3))],
    )
}

/// Funds users, deploys the token (honest signature unless `forged` is
/// given), and mints everyone a balance through committed epochs.
fn build_world(config: &ChainConfig, forged: Option<&ShardingSignature>) -> Network {
    let mut net = Network::new(config.clone());
    for i in 0..USERS {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    match forged {
        Some(sig) => net
            .deploy_with_signature(token_addr(), TOKEN, vec![], Some(sig.clone()))
            .expect("forged deploy bypasses validation"),
        None => {
            net.deploy(token_addr(), TOKEN, vec![], Some((&["Transfer", "Mint"], WeakReads::AcceptAll)))
                .map(|_| ())
                .expect("honest deploy validates");
        }
    }
    let mut setup: Vec<Transaction> = (0..USERS)
        .map(|i| {
            Transaction::call(
                1_000 + i,
                Address::from_index(i),
                1,
                token_addr(),
                "Mint",
                vec![
                    ("to".into(), Address::from_index(i).to_value()),
                    ("amount".into(), Value::Uint(128, 10_000)),
                ],
            )
        })
        .collect();
    let mut guard = 0;
    while !setup.is_empty() {
        net.run_epoch(&mut setup);
        guard += 1;
        assert!(guard < 100, "setup drains");
    }
    net
}

/// A mixed load: token transfers between users plus native payments.
fn load() -> Vec<Transaction> {
    let mut txs = Vec::new();
    for i in 0..USERS {
        let from = Address::from_index(i);
        txs.push(transfer(2_000 + i, from, 2, Address::from_index((i + 3) % USERS)));
        txs.push(Transaction::payment(
            3_000 + i,
            from,
            3,
            Address::from_index((i + 7) % USERS),
            11,
        ));
    }
    txs
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let cfg = ChainConfig::small(4, true);
    for plan_seed in 0..4u64 {
        let plan = FaultPlan::generate(0x5eed_0000 + plan_seed, 6, cfg.num_shards, 0.4);
        let sim_cfg = SimConfig::new(77);

        let run = |_: ()| {
            let mut net = build_world(&cfg, None);
            let mut pool = load();
            run_sim(&mut net, &mut pool, &sim_cfg, &plan)
        };
        let (a, b) = (run(()), run(()));
        assert_eq!(a.digest, b.digest, "plan {plan_seed}: digests must be bit-identical");
        assert_eq!(a.outcomes, b.outcomes, "plan {plan_seed}: outcomes must match");
        assert_eq!(a.injected, b.injected, "plan {plan_seed}: fault schedule must replay");
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.commit_order, b.commit_order);
        assert!(a.safety_violations.is_empty(), "{:?}", a.safety_violations);
    }
}

/// Every shard thread dies in epoch 0. The recovery is the product's
/// (`Network::execute_shards`): each packet reroutes whole to the DS
/// committee, which commits what its budget admits and defers the rest, so
/// the run drains, commits the whole load and matches the reference.
#[test]
fn a_run_survives_every_shard_crashing_at_once() {
    let sharded_cfg = ChainConfig::small(4, true);
    let crash = |shard| FaultEvent { epoch: 0, shard, kind: FaultKind::ShardPanic };
    let plan = FaultPlan { events: (0..sharded_cfg.num_shards).map(crash).collect() };
    let build = |cfg: &ChainConfig| build_world(cfg, None);
    let load = load();
    let diff = differential(
        &build,
        &load,
        &sharded_cfg,
        &reference_config(&sharded_cfg),
        &SimConfig::new(5),
        &plan,
    );
    assert!(diff.is_clean(), "{:?}", diff.divergences);
    assert!(diff.sharded.drained);
    assert_eq!(diff.sharded.committed(), load.len());
    assert_eq!(diff.sharded.injected.get("shard-panic"), Some(&4));
    assert_eq!(diff.sharded.recoveries.get("reroute-to-ds"), Some(&4));
}

/// A forged signature: `Transfer` is declared fully commutative (no
/// ownership constraints, so the dispatcher spreads it by transaction id)
/// while `balances` is declared an *overwrite* join. Many senders paying
/// one recipient then make several shards overwrite the same component —
/// exactly what an honest analysis precludes.
fn forged_signature() -> ShardingSignature {
    ShardingSignature {
        transitions: vec![TransitionConstraints {
            name: "Transfer".into(),
            params: vec!["to".into(), "amount".into()],
            constraints: BTreeSet::new(),
        }],
        joins: BTreeMap::from([("balances".to_string(), Join::OwnOverwrite)]),
        weak_reads: BTreeSet::new(),
    }
}

#[test]
fn forged_signature_is_caught_with_a_replayable_artifact() {
    let sharded_cfg = ChainConfig::small(4, true);
    let ref_cfg = reference_config(&sharded_cfg);
    let sig = forged_signature();
    let build = |cfg: &ChainConfig| build_world(cfg, Some(&sig));

    // Everyone pays the same hot recipient: under the forged signature the
    // writes to `balances[hot]` land on several shards as overwrites.
    let hot = Address::from_index(0);
    let load: Vec<Transaction> = (1..USERS)
        .map(|i| transfer(4_000 + i, Address::from_index(i), 2, hot))
        .collect();

    let sim_cfg = SimConfig::new(99);
    let plan = FaultPlan::none();
    let diff = differential(&build, &load, &sharded_cfg, &ref_cfg, &sim_cfg, &plan);
    assert!(!diff.is_clean(), "the broken signature must be caught");
    assert!(
        diff.divergences.iter().any(|d| matches!(d, Divergence::SafetyViolation(_))),
        "conflicting overwrites must surface as a safety violation: {:?}",
        diff.divergences
    );

    // Dump the repro, round-trip it through JSON on disk, and replay it.
    let artifact =
        ReproArtifact::from_diff(&diff, &sim_cfg, sharded_cfg.num_shards, &plan, load);
    let dir = std::env::temp_dir().join(format!("sim_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.json");
    artifact.write(&path).unwrap();
    let restored = ReproArtifact::read(&path).unwrap();
    assert_eq!(restored, artifact, "artifact must survive the JSON round-trip");
    std::fs::remove_dir_all(&dir).ok();

    let replayed = differential(
        &build,
        &restored.trace,
        &sharded_cfg,
        &ref_cfg,
        &SimConfig::new(restored.seed),
        &restored.plan,
    );
    assert!(!replayed.is_clean(), "the restored artifact must reproduce the divergence");
    assert!(replayed
        .divergences
        .iter()
        .any(|d| matches!(d, Divergence::SafetyViolation(_))));
}
