//! Canonical bytes do not depend on interning order (DESIGN §7, invariant 6).
//!
//! A `Sym` is an index into the process-wide interner, so two processes that
//! meet the same identifiers in a different order number them differently.
//! Nothing canonical may notice: not the wire form of any stage's delta, not
//! the receipts with their rendered events, not the final state digest. The
//! interner cannot be reset inside a process, so the test re-runs this binary
//! once per interning order on the ignored `interning_order_child` test. The
//! child interns the whole corpus vocabulary in that order, then runs staged
//! epochs of three workloads under the full profile and prints one hash per
//! workload. The unpermuted run must also reproduce [`PINNED`], so a change
//! that alters wire deltas, rendered events, receipts or the state digest
//! fails here even when it alters them identically under every order.

use cosplit::chain::address::fnv1a;
use cosplit::chain::delta::StateDelta;
use cosplit::chain::network::{ChainConfig, EpochPackets};
use cosplit::chain::sim::state_digest;
use cosplit::chain::xshard::NoFaults;
use cosplit::scilla::intern::intern;
use cosplit::workloads::runner::prepare_with;
use cosplit::workloads::scenarios::{build, Kind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::process::{Command, Stdio};

/// Selects the child's interning order. Only this file reads it.
const ORDER_VAR: &str = "INTERNING_ORDER_UNDER_TEST";
const ORDERS: [&str; 4] = ["unpermuted", "reversed", "shuffle-1", "shuffle-2"];
/// Prefix of the lines the parent compares (the harness prints others).
const LINE: &str = "canonical-hash";
/// The unpermuted child's lines. They were recorded when addresses were heap
/// byte strings and messages unshared maps, so they also check that value
/// representation never reaches canonical bytes. Re-record them only with a
/// change that means to alter behaviour, and say so.
const PINNED: [&str; 3] = [
    "canonical-hash FtTransfer db490c5850df1dae",
    "canonical-hash NftMint 81f48f9450f1714d",
    "canonical-hash IpfsRegister 78662a7766ca29c2",
];

/// Every identifier token of every corpus source, in first-seen order.
fn vocabulary() -> Vec<&'static str> {
    let mut seen = HashSet::new();
    cosplit::scilla::corpus::all()
        .iter()
        .flat_map(|entry| {
            entry.source.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '\''))
        })
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .filter(|w| seen.insert(*w))
        .collect()
}

fn permuted(order: &str) -> Vec<&'static str> {
    let mut words = vocabulary();
    match order {
        "unpermuted" => {}
        "reversed" => words.reverse(),
        _ => {
            let seed = order.strip_prefix("shuffle-").and_then(|s| s.parse().ok());
            let mut rng = StdRng::seed_from_u64(seed.expect("a known order"));
            for i in (1..words.len()).rev() {
                words.swap(i, rng.gen_range(0..=i));
            }
        }
    }
    words
}

/// Staged epochs of one workload until its pool drains: a hash over each
/// epoch's merged shard delta, cross-shard and DS deltas on the wire, every
/// receipt, and the final state digest.
fn workload_hash(kind: Kind) -> u64 {
    let config = ChainConfig {
        cross_shard_commit: true,
        compose_calls: true,
        colocate_families: true,
        max_packet_txs: 16,
        ..ChainConfig::small(4, true)
    };
    let scenario = build(kind, 24, 160, 28);
    let mut net = prepare_with(&scenario, config);
    let mut pool = scenario.load.clone();
    let mut canonical = String::new();
    let mut xshard_commits = 0;
    for _ in 0..20 {
        if pool.is_empty() {
            break;
        }
        let EpochPackets { shard_batches, xshard_batch, mut ds_batch, .. } =
            net.form_packets(&mut pool);
        let mut shards = net.execute_shards(shard_batches);
        let merged = StateDelta::merge_ref(shards.iter().map(|mb| &mb.delta)).expect("merge");
        canonical += &merged.to_wire();
        net.merge_shard_deltas(&shards).expect("merged delta applies");
        let xshard = net.execute_xshard(xshard_batch, &mut NoFaults);
        assert!(xshard.errors.is_empty(), "{kind:?}: {:?}", xshard.errors);
        canonical += &xshard.block.delta.to_wire();
        xshard_commits += xshard.block.receipts.len();
        ds_batch.extend(xshard.ds_fallback);
        for mb in &mut shards {
            ds_batch.append(&mut mb.rerouted);
        }
        let ds = net.execute_ds(ds_batch).expect("DS delta applies");
        canonical += &ds.delta.to_wire();
        for block in shards.iter().chain([&xshard.block, &ds]) {
            for r in &block.receipts {
                let events: Vec<String> = r.events.iter().map(ToString::to_string).collect();
                canonical += &format!("{} {:?} {} {events:?};", r.tx_id, r.status, r.gas_used);
            }
            pool.extend(block.deferred.iter().cloned());
        }
        net.advance_block();
    }
    assert!(pool.is_empty(), "{kind:?}: {} transactions never committed", pool.len());
    assert!(kind != Kind::IpfsRegister || xshard_commits > 0, "no cross-shard commit ran");
    canonical += &state_digest(&net).to_string();
    fnv1a(canonical.as_bytes())
}

#[test]
#[ignore = "run by canonical_bytes_do_not_depend_on_interning_order in a fresh process"]
fn interning_order_child() {
    let order = std::env::var(ORDER_VAR).unwrap_or_else(|_| ORDERS[0].to_string());
    for word in permuted(&order) {
        intern(word);
    }
    for kind in [Kind::FtTransfer, Kind::NftMint, Kind::IpfsRegister] {
        println!("{LINE} {kind:?} {:016x}", workload_hash(kind));
    }
}

#[test]
fn canonical_bytes_do_not_depend_on_interning_order() {
    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = ORDERS
        .iter()
        .map(|order| {
            let child = Command::new(&exe)
                .args(["interning_order_child", "--exact", "--ignored", "--nocapture"])
                .env(ORDER_VAR, order)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("re-run the test binary");
            (order, child)
        })
        .collect();
    let mut runs = Vec::new();
    for (order, child) in children {
        let out = child.wait_with_output().expect("child exits");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{order} run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lines: Vec<String> =
            stdout.lines().filter(|l| l.starts_with(LINE)).map(str::to_string).collect();
        assert_eq!(lines.len(), 3, "{order} run printed {stdout}");
        runs.push((order, lines));
    }
    assert_eq!(runs[0].1, PINNED, "{} run differs from the pinned canonical bytes", runs[0].0);
    for (order, lines) in &runs[1..] {
        assert_eq!(lines, &runs[0].1, "{order} interning differs from {}", runs[0].0);
    }
}
