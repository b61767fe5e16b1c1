//! Acceptance test for the effect-trace sanitizer: a deliberately weakened
//! static summary (one dropped `Write` effect) must be caught by the dynamic
//! footprint auditor with a span-bearing violation and a replayable repro
//! artifact, while the honest pipeline stays violation-free.

use cosplit::analysis::analysis::summarize_contract;
use cosplit::analysis::audit::ViolationKind;
use cosplit::analysis::effects::Effect;
use cosplit::chain::executor::execute_batch;
use cosplit::chain::network::{ChainConfig, Network};
use cosplit::chain::sim::{
    differential, reference_config, run_sim, FaultPlan, ReproArtifact, SimConfig,
};
use cosplit::workloads::runner::world_builder;
use cosplit::workloads::scenarios::{build, Kind};
use cosplit::workloads::seeds;
use std::collections::BTreeMap;

const MASTER_SEED: u64 = 0xA0D1;

/// Pins every deployed contract's auditor summaries to a weakened copy of
/// the real analysis result: the *last* static `Write` of each non-⊤
/// transition summary is dropped. Execution is untouched — only the
/// auditor's reference is lied to.
fn weaken_summaries(net: &Network) {
    let mut any_dropped = false;
    for c in net.state().contracts.values() {
        let mut summaries = summarize_contract(c.compiled.checked());
        for s in &mut summaries {
            if s.has_top() {
                continue;
            }
            if let Some(i) = s.effects.iter().rposition(|e| matches!(e, Effect::Write(..))) {
                s.effects.remove(i);
                any_dropped = true;
            }
        }
        c.override_summaries(summaries);
    }
    assert!(any_dropped, "mutation must drop at least one static write");
}

fn scenario() -> cosplit::workloads::scenarios::Scenario {
    build(Kind::FtTransfer, 24, 96, seeds::derive(MASTER_SEED, "audit-sanitizer"))
}

#[test]
fn weakened_summary_yields_span_bearing_typed_violations() {
    // Drive one epoch's shard batches directly so the violations arrive as
    // typed values, not rendered strings.
    let cfg = ChainConfig::small(4, true);
    let sc = scenario();
    let net = world_builder(&sc)(&cfg);
    weaken_summaries(&net);

    let mut pool = sc.load.clone();
    let packets = net.form_packets(&mut pool);
    let mut blocks = Vec::new();
    for (s, batch) in packets.shard_batches.into_iter().enumerate() {
        let ecfg = net.shard_executor_config(s as u32);
        assert!(ecfg.audit, "ChainConfig::small must audit");
        blocks.push(execute_batch(&ecfg, net.state(), batch));
    }
    blocks.push(execute_batch(&net.ds_executor_config(), net.state(), packets.ds_batch));
    let receipts: usize = blocks.iter().map(|b| b.receipts.len()).sum();
    let violations: Vec<_> = blocks.into_iter().flat_map(|b| b.audit_violations).collect();

    // Every transfer writes the dropped component exactly once, and nothing
    // else about the summary was touched: the tally is exact.
    assert!(receipts > 0);
    let mut tally: BTreeMap<ViolationKind, usize> = BTreeMap::new();
    for v in &violations {
        *tally.entry(v.kind).or_default() += 1;
    }
    assert_eq!(tally, BTreeMap::from([(ViolationKind::UnsummarisedWrite, receipts)]));
    let v = &violations[0];
    assert!(v.span.line > 0, "violation must carry a real source span: {v:?}");
    assert!(v.observed_op.is_some(), "{v:?}");
    assert!(!v.concrete.is_empty(), "{v:?}");
    // The wire form round-trips, so the violation can ride a repro artifact.
    let back = cosplit::analysis::audit::AuditViolation::from_json(&v.to_json()).unwrap();
    assert_eq!(&back, v);
}

#[test]
fn weakened_summary_produces_replayable_repro_artifact() {
    let sharded_cfg = ChainConfig::small(4, true);
    let reference_cfg = reference_config(&sharded_cfg);
    let sc = scenario();
    let honest = world_builder(&sc);
    let weakened = |cfg: &ChainConfig| {
        let net = honest(cfg);
        weaken_summaries(&net);
        net
    };
    let sim_cfg = SimConfig::new(MASTER_SEED);
    let plan = FaultPlan::none();

    // The honest pipeline is clean on the same load.
    let clean = differential(&honest, &sc.load, &sharded_cfg, &reference_cfg, &sim_cfg, &plan);
    assert!(clean.is_clean(), "honest run diverged: {:?}", clean.divergences);

    // The weakened pipeline diverges — purely through audit violations,
    // because tracing never alters execution.
    let diff = differential(&weakened, &sc.load, &sharded_cfg, &reference_cfg, &sim_cfg, &plan);
    assert!(!diff.is_clean(), "weakened summaries must be caught");
    for d in &diff.divergences {
        let s = d.to_string();
        assert!(s.contains("audit violation"), "unexpected divergence: {s}");
    }
    let rendered = diff.divergences[0].to_string();
    assert!(rendered.contains("UnsummarisedWrite"), "{rendered}");
    assert!(rendered.contains(" at "), "span missing from {rendered}");
    assert!(!rendered.contains(" at 0:0"), "dummy span in {rendered}");

    // The artifact round-trips through disk…
    let artifact = ReproArtifact::from_diff(
        &diff,
        &sim_cfg,
        sharded_cfg.num_shards,
        &plan,
        sc.load.clone(),
    );
    let dir = std::env::temp_dir().join(format!("cosplit_audit_repro_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("audit_repro.json");
    artifact.write(&path).unwrap();
    let back = ReproArtifact::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(back, artifact);
    assert!(!back.divergences.is_empty());

    // …and replaying it (same seed, plan, and trace) reproduces the catch.
    let replay_cfg = SimConfig::new(back.seed);
    let replay = differential(
        &weakened,
        &back.trace,
        &ChainConfig::small(back.num_shards, true),
        &reference_cfg,
        &replay_cfg,
        &back.plan,
    );
    assert!(!replay.is_clean(), "replay must reproduce the violation");
    assert_eq!(
        replay.divergences[0].to_string(),
        diff.divergences[0].to_string(),
        "replay is deterministic"
    );
}

#[test]
fn weakened_summary_is_flagged_in_sim_reports_and_telemetry() {
    let cfg = ChainConfig::small(4, true);
    let sc = scenario();
    let net = &mut world_builder(&sc)(&cfg);
    weaken_summaries(net);

    let before = telemetry::registry().snapshot().counter("chain.audit.violations");
    let mut pool = sc.load.clone();
    let report = run_sim(net, &mut pool, &SimConfig::new(MASTER_SEED), &FaultPlan::none());
    assert!(report.drained);
    assert!(
        report.safety_violations.iter().any(|v| v.contains("audit violation")),
        "{:?}",
        report.safety_violations
    );
    let after = telemetry::registry().snapshot().counter("chain.audit.violations");
    assert!(after > before, "violation counter must move ({before} -> {after})");
}
