//! The transaction workloads: a closed loop of staged epochs over the
//! public `Network` API, with the benchmark's spans around each stage.
//!
//! One client, one generator thread: each epoch the next `TXS_PER_EPOCH`
//! generated transactions enter the pool (plus whatever the previous epoch
//! deferred), and the next epoch starts when the previous one returns.

use crate::metrics::Records;
use crate::model::Model;
use crate::spans::Tracer;
use crate::{median, quantile, vm_kb, RunArgs, RunOutput};
use chain::delta::StateDelta;
use chain::executor::{execute_batch, MicroBlock, TxStatus};
use chain::network::{ChainConfig, Network};
use chain::tx::{Transaction, TxKind};
use chain::xshard::NoFaults;
use scilla::gas::GasMeter;
use scilla::interpreter::{ExecMode, TransitionContext};
use std::time::{Duration, Instant};
use workloads::runner::{prepare_with, run_with};
use workloads::scenarios::{build, contract_addr, Kind};

pub const USERS: u64 = 2_000;
pub const TXS_PER_EPOCH: usize = 2_000;
/// Equal to the bench host's core count: the system spawns one thread per
/// shard and the generator thread idles while they run.
pub const NUM_SHARDS: u32 = 2;
/// Transitions run through the bare interpreter probe, in spans of
/// `TXS_PER_EPOCH` calls.
const INTERPRETER_PROBE_CALLS: usize = 3 * TXS_PER_EPOCH;

/// One transaction workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct TxWorkload {
    pub kind: Kind,
    /// `false`: the paper profile (every optional flag off). `true`: the
    /// full profile (`cross_shard_commit`, `compose_calls`,
    /// `colocate_families` on).
    pub full_profile: bool,
    /// Run with `telemetry::trace` on, as "Profiling a run" tells users to.
    pub telemetry_tracing: bool,
    /// Traced pass also measures `protocol.tps`.
    pub protocol: bool,
    /// Traced pass also measures `state.users_x10_slowdown_x1000`.
    pub users_probe: bool,
}

/// The named profile at the paper's calibrated gas limits.
fn profile(full: bool, num_shards: u32) -> ChainConfig {
    ChainConfig {
        cross_shard_commit: full,
        compose_calls: full,
        colocate_families: full,
        ..ChainConfig::evaluation(num_shards, true)
    }
}

/// The profile with gas limits and packet size lifted, so that the batch
/// size — not the calibrated gas model — is the denominator.
fn wall_clock_profile(full: bool) -> ChainConfig {
    ChainConfig {
        shard_gas_limit: u64::MAX,
        ds_gas_limit: u64::MAX,
        max_packet_txs: usize::MAX,
        ..profile(full, NUM_SHARDS)
    }
}

/// A prepared network, the not-yet-entered part of the generated stream,
/// and the bookkeeping the correctness check needs.
struct World {
    net: Network,
    stream: std::vec::IntoIter<Transaction>,
    pool: Vec<Transaction>,
    model: Model,
    /// Id of the first load transaction; ids are consecutive from there.
    first_id: u64,
    /// Success receipts seen per entered load transaction.
    seen: Vec<u8>,
    failed_receipts: usize,
    first_failure: Option<String>,
    /// Wall time of scenario generation + fund and deploy + setup epochs.
    setup: Duration,
    seed_txs: usize,
    /// Load transactions fed into the pool so far.
    entered: usize,
    /// Wall time of each epoch run so far, in ns.
    walls_ns: Vec<f64>,
    /// Committed transactions per second of each epoch's own wall time.
    rates: Vec<f64>,
    counts: Counts,
}

fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    tr.begin(name, 0);
    let t0 = Instant::now();
    let out = f();
    let took = t0.elapsed();
    tr.end();
    (out, took)
}

/// Scenario generation + `runner::prepare_with` + the setup epochs.
fn setup(
    w: &TxWorkload,
    users: u64,
    epochs: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<World, String> {
    let (mut scenario, generate) = timed(tr, "setup.generate", || {
        build(w.kind, users, epochs * TXS_PER_EPOCH, seed)
    });
    let load = std::mem::take(&mut scenario.load);
    // The setup transactions run below, not inside `prepare_with`, so that
    // their cost has a span of its own.
    let mut seed_pool = std::mem::take(&mut scenario.setup);
    let mut model = Model::new(w.kind);
    seed_pool.iter().for_each(|tx| model.enter(tx));
    let seed_txs = seed_pool.len();

    let (mut net, fund_deploy) = timed(tr, "setup.fund_deploy", || {
        prepare_with(&scenario, wall_clock_profile(w.full_profile))
    });
    let (committed, seeding) = timed(tr, "setup.seed", || {
        let mut committed = 0;
        for _ in 0..8 {
            if seed_pool.is_empty() {
                break;
            }
            committed += net.run_epoch(&mut seed_pool).committed;
        }
        committed
    });
    if committed != seed_txs {
        return Err(format!(
            "setup committed {committed} of {seed_txs} transactions"
        ));
    }
    let first_id = load.first().map_or(0, |tx| tx.id);
    Ok(World {
        net,
        seen: vec![0; load.len()],
        stream: load.into_iter(),
        pool: Vec::new(),
        model,
        first_id,
        failed_receipts: 0,
        first_failure: None,
        setup: generate + fund_deploy + seeding,
        seed_txs,
        entered: 0,
        walls_ns: Vec::with_capacity(epochs),
        rates: Vec::with_capacity(epochs),
        counts: Counts::default(),
    })
}

impl World {
    /// Books one block's receipts; returns how many committed.
    fn note_receipts(&mut self, block: &MicroBlock) -> Result<usize, String> {
        let mut committed = 0;
        for r in &block.receipts {
            match &r.status {
                TxStatus::Success => {
                    committed += 1;
                    let slot = r
                        .tx_id
                        .checked_sub(self.first_id)
                        .and_then(|i| self.seen.get_mut(i as usize))
                        .ok_or(format!("receipt for unknown transaction {}", r.tx_id))?;
                    *slot = slot.saturating_add(1);
                }
                TxStatus::Failed(why) => {
                    self.failed_receipts += 1;
                    self.first_failure
                        .get_or_insert_with(|| format!("tx {}: {why}", r.tx_id));
                }
                // Re-executed by the DS committee in the same epoch.
                TxStatus::Rerouted(_) => {}
            }
        }
        Ok(committed)
    }

    /// Entered transactions with exactly one success receipt.
    fn committed(&self) -> usize {
        self.seen[..self.entered]
            .iter()
            .filter(|&&n| n == 1)
            .count()
    }

    /// The correctness check: every entered transaction has exactly one
    /// success receipt, nothing failed or is left in the pool, and the
    /// contract's fields equal the independent model.
    fn check(&self) -> Result<(), String> {
        if let Some(i) = self.seen[..self.entered].iter().position(|&n| n != 1) {
            return Err(format!(
                "transaction {} has {} success receipts (first failure: {:?}, {} left in pool)",
                self.first_id + i as u64,
                self.seen[i],
                self.first_failure,
                self.pool.len()
            ));
        }
        if self.failed_receipts > 0 || !self.pool.is_empty() {
            return Err(format!(
                "{} failed receipts, {} transactions left in the pool",
                self.failed_receipts,
                self.pool.len()
            ));
        }
        self.model.verify(&self.net)
    }

    fn output(&self, epochs: usize, metrics: Records) -> RunOutput {
        RunOutput {
            attempted: self.entered,
            failed: self.entered - self.committed(),
            metrics: metrics.finish(),
            info: crate::run_facts(epochs, &self.walls_ns),
        }
    }
}

/// Exact counts taken at the layer boundaries, summed over a world's epochs.
#[derive(Debug, Default)]
struct Counts {
    dispatched: usize,
    to_ds: usize,
    to_xshard: usize,
    shard_txs: usize,
    /// Σ over epochs of the largest shard batch.
    shard_max: usize,
    rerouted: usize,
    shard_gas: u64,
    shard_receipts: usize,
    components: usize,
    xshard_aborted: usize,
    xshard_ds_fallback: usize,
    xshard_lock_wait: usize,
    ds_txs: usize,
    deferred: usize,
    wire_bytes: usize,
    joined_components: usize,
}

impl World {
    /// Runs up to `epochs` epochs, stopping early once `cap` has passed.
    fn run(&mut self, epochs: usize, cap: Duration, spans: &mut Tracer) -> Result<(), String> {
        let started = Instant::now();
        for _ in 0..epochs {
            if started.elapsed() > cap {
                break;
            }
            self.step(spans, None)?;
        }
        Ok(())
    }

    /// Feeds the next `TXS_PER_EPOCH` generated transactions into the pool
    /// and runs one epoch through the staged API, in the order
    /// `Network::run_epoch` composes the stages, with a span in `tr` around
    /// each.
    ///
    /// With `probes`, each shard's batch first runs serially through
    /// `execute_batch`, outside the epoch, on a copy of the pool and the same
    /// epoch-start state the shard threads will see (busy time, and a
    /// determinism check of the parallel run's deltas); `to_wire` and
    /// `merge_ref` run alone on the epoch's micro-blocks afterwards.
    fn step(&mut self, tr: &mut Tracer, mut probes: Option<&mut Tracer>) -> Result<(), String> {
        for tx in self.stream.by_ref().take(TXS_PER_EPOCH) {
            self.model.enter(&tx);
            self.pool.push(tx);
            self.entered += 1;
        }
        let World {
            net,
            pool,
            counts: c,
            ..
        } = self;
        let id = net.block_number();

        let mut serial_wires = Vec::new();
        if let Some(probes) = probes.as_deref_mut() {
            let packets = net.form_packets(&mut pool.clone());
            for (shard, batch) in packets.shard_batches.into_iter().enumerate() {
                let cfg = net.shard_executor_config(shard as u32);
                let block = probes.span("probe.shard_exec", id, || {
                    execute_batch(&cfg, net.state(), batch)
                });
                serial_wires.push(block.delta.to_wire());
            }
        }

        let t0 = Instant::now();
        tr.begin("epoch", id);
        let packets = tr.span("dispatch", id, || net.form_packets(pool));
        let mut ds_batch = packets.ds_batch;
        let shard_sizes = packets.shard_batches.iter().map(Vec::len);
        let to_shards: usize = shard_sizes.clone().sum();
        c.shard_max += shard_sizes.max().unwrap_or(0);
        c.shard_txs += to_shards;
        c.to_xshard += packets.xshard_batch.len();
        c.to_ds += ds_batch.len();
        c.dispatched += to_shards + packets.xshard_batch.len() + ds_batch.len();

        let blocks = tr.span("shard_exec", id, || {
            net.execute_shards(packets.shard_batches)
        });
        let merged = tr.span("merge", id, || net.merge_shard_deltas(&blocks));
        c.components += merged.map_err(|e| format!("epoch {id}: merge error {e:?}"))?;

        let xshard = tr.span("xshard", id, || {
            net.execute_xshard(packets.xshard_batch, &mut NoFaults)
        });
        if let Some(e) = xshard.errors.first() {
            return Err(format!("epoch {id}: xshard error {e}"));
        }
        c.xshard_aborted += xshard.stats.aborted;
        c.xshard_ds_fallback += xshard.stats.ds_fallback;
        c.xshard_lock_wait += xshard.stats.lock_wait;

        ds_batch.extend(xshard.ds_fallback);
        for block in &blocks {
            c.rerouted += block.rerouted.len();
            ds_batch.extend(block.rerouted.iter().cloned());
        }
        c.ds_txs += ds_batch.len();
        let ds = tr.span("ds_exec", id, || net.execute_ds(ds_batch));
        let ds = ds.map_err(|e| format!("epoch {id}: DS delta {e:?}"))?;

        for block in blocks.iter().chain([&xshard.block, &ds]) {
            c.deferred += block.deferred.len();
            pool.extend(block.deferred.iter().cloned());
        }
        net.advance_block();
        tr.end();
        let wall_ns = t0.elapsed().as_nanos() as f64;
        self.walls_ns.push(wall_ns);

        for block in &blocks {
            c.shard_gas += block.gas_used;
            c.shard_receipts += block.receipts.len();
        }
        if let Some(probes) = probes {
            for (shard, (block, serial)) in blocks.iter().zip(&serial_wires).enumerate() {
                let wire = probes.span("probe.to_wire", id, || block.delta.to_wire());
                c.wire_bytes += wire.len();
                if wire != *serial {
                    return Err(format!(
                        "epoch {id} shard {shard}: parallel delta differs from serial"
                    ));
                }
            }
            let joined = probes.span("probe.merge_ref", id, || {
                StateDelta::merge_ref(blocks.iter().map(|b| &b.delta))
            });
            c.joined_components += joined
                .map_err(|e| format!("epoch {id}: merge_ref {e:?}"))?
                .changed_components();
        }
        let mut committed = 0;
        for block in blocks.iter().chain([&xshard.block, &ds]) {
            committed += self.note_receipts(block)?;
        }
        self.rates.push(committed as f64 / (wall_ns / 1e9));
        Ok(())
    }
}

/// The bare interpreter on the workload's own transition and arguments:
/// the first load transactions, run one after another against a copy of the
/// contract's post-setup storage.
fn interpreter_probe(world: &World, tr: &mut Tracer) -> Result<usize, String> {
    let addr = contract_addr();
    let deployed = world
        .net
        .state()
        .contracts
        .get(&addr)
        .ok_or("contract not deployed")?;
    let mut store = world
        .net
        .storage_of(&addr)
        .ok_or("contract has no storage")?
        .clone();
    let txs = world.stream.as_slice();
    let txs = &txs[..txs.len().min(INTERPRETER_PROBE_CALLS)];
    for (i, chunk) in txs.chunks(TXS_PER_EPOCH).enumerate() {
        tr.span("probe.interpreter", i as u64, || {
            for tx in chunk {
                let TxKind::Call {
                    transition,
                    args,
                    amount,
                    ..
                } = &tx.kind
                else {
                    return Err("the stream holds contract calls only".to_string());
                };
                let ctx = TransitionContext {
                    sender: tx.sender.0,
                    origin: tx.sender.0,
                    amount: *amount,
                    this_address: addr.0,
                    block_number: world.net.block_number(),
                };
                deployed
                    .compiled
                    .execute_mode(
                        &mut store,
                        transition,
                        args,
                        &deployed.params,
                        &ctx,
                        &mut GasMeter::new(tx.gas_limit),
                        None,
                        ExecMode::Auto,
                    )
                    .map_err(|e| format!("interpreter probe, tx {}: {e:?}", tx.id))?;
            }
            Ok(())
        })?;
    }
    Ok(txs.len())
}

/// Fig. 14's own figure: committed tx per simulated second at 5 shards,
/// calibrated gas limits ÷ 4, 10 epochs, over-supplied load. Deterministic.
fn protocol_tps(w: &TxWorkload, seed: u64) -> f64 {
    let scenario = build(w.kind, USERS, 60_000, seed);
    let base = profile(w.full_profile, 5);
    let config = ChainConfig {
        shard_gas_limit: base.shard_gas_limit / 4,
        ds_gas_limit: base.ds_gas_limit / 4,
        ..base
    };
    run_with(&scenario, config, 10).tps()
}

/// The timed pass: product defaults, none of the benchmark's spans.
pub fn run_timed(w: &TxWorkload, epochs: usize, args: &RunArgs) -> Result<RunOutput, String> {
    telemetry::trace::set_tracing(w.telemetry_tracing);
    let mut off = Tracer::new(false);

    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(world.take());
        let fresh = setup(w, USERS, epochs, args.seed, &mut off)?;
        setups.push(fresh.setup.as_secs_f64());
        world = Some(fresh);
    }
    let mut world = world.expect("SETUP_REPEATS > 0");

    world.run(
        epochs,
        Duration::from_secs_f64(crate::CAP_FACTOR * args.seconds),
        &mut off,
    )?;
    if args.perturb_model {
        world.model.perturb();
    }
    world.check()?;

    let mut rec = Records::new(crate::metrics::END_TO_END);
    rec.set("committed_per_s", quantile(&world.rates, 0.9));
    rec.set("epoch_ms_p10", quantile(&world.walls_ns, 0.1) / 1e6);
    rec.set("peak_rss_mb", vm_kb("VmHWM") / 1024.0);
    rec.set("setup_s", median(&setups[crate::SETUP_WARMUPS..]));
    Ok(world.output(epochs, rec))
}

/// Median over epochs of `a[i] / b[i]`, scaled by 1000: two lanes that ran
/// the same epochs in lockstep, compared pair by pair.
fn paired_ratio_x1000(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| 1000.0 * a / b).collect();
    median(&ratios)
}

/// The traced pass: the same seed and calls over the first
/// `1 / TRACED_SHARE` of the epochs. Separate worlds ("lanes") run the same
/// epochs in lockstep, so that host noise and warm-up hit them alike:
/// `plain` without spans, `spanned` with the benchmark's spans (the
/// per-layer table), and `probed` with the serial probes between its epochs.
pub fn run_traced(
    w: &TxWorkload,
    epochs: usize,
    args: &RunArgs,
    tr: &mut Tracer,
) -> Result<RunOutput, String> {
    telemetry::trace::set_tracing(w.telemetry_tracing);
    let cap = Duration::from_secs_f64(crate::CAP_FACTOR * args.seconds);
    let mut off = Tracer::new(false);
    let mut rec = Records::new(crate::metrics::PER_LAYER);

    let mut plain = setup(w, USERS, epochs, args.seed, &mut off)?;
    let mut probed = setup(w, USERS, epochs, args.seed, &mut off)?;
    let mut spanned = setup(w, USERS, epochs, args.seed, tr)?;
    let interpreter_calls = interpreter_probe(&spanned, tr)?;

    let rss_before = vm_kb("VmRSS");
    let started = Instant::now();
    for i in 0..epochs {
        if started.elapsed() > cap {
            break;
        }
        // Alternate which of the two compared lanes runs first, so neither
        // always runs on caches the other has just warmed.
        if i % 2 == 0 {
            plain.step(&mut off, None)?;
            spanned.step(tr, None)?;
        } else {
            spanned.step(tr, None)?;
            plain.step(&mut off, None)?;
        }
        probed.step(&mut off, Some(tr))?;
    }
    let rss_after = vm_kb("VmRSS");
    if args.perturb_model {
        spanned.model.perturb();
    }
    for world in [&plain, &probed, &spanned] {
        world.check()?;
    }

    let c = &spanned.counts;
    let ns = |name: &str| tr.total_ns(name) as f64;
    let n = |count: usize| count as f64;
    let epoch_ns = ns("epoch");
    let shard_txs = n(c.shard_txs);
    let busy_ns_per_tx = if c.shard_txs == 0 {
        0.0
    } else {
        ns("probe.shard_exec") / shard_txs
    };
    let interpreter_ns = ns("probe.interpreter") / n(interpreter_calls.max(1));

    rec.set_per("dispatch.ns_per_tx", ns("dispatch"), n(c.dispatched));
    rec.set_ratio_x1000("dispatch.epoch_share_permille", ns("dispatch"), epoch_ns);
    rec.set_ratio_x1000("dispatch.to_ds_permille", n(c.to_ds), n(c.dispatched));
    rec.set_ratio_x1000(
        "dispatch.to_xshard_permille",
        n(c.to_xshard),
        n(c.dispatched),
    );
    rec.set_ratio_x1000(
        "dispatch.shard_imbalance_x1000",
        n(c.shard_max),
        shard_txs / NUM_SHARDS as f64,
    );
    rec.set_per("shard_exec.wall_ns_per_tx", ns("shard_exec"), shard_txs);
    rec.set("shard_exec.busy_ns_per_tx", busy_ns_per_tx);
    rec.set_ratio_x1000(
        "shard_exec.parallel_efficiency_x1000",
        ns("probe.shard_exec"),
        ns("shard_exec") * NUM_SHARDS as f64,
    );
    rec.set_ratio_x1000(
        "shard_exec.epoch_share_permille",
        ns("shard_exec"),
        epoch_ns,
    );
    rec.set_ratio_x1000("shard_exec.rerouted_permille", n(c.rerouted), shard_txs);
    rec.set_per(
        "shard_exec.gas_per_tx",
        c.shard_gas as f64,
        n(c.shard_receipts),
    );
    rec.set("interpreter.ns_per_call", interpreter_ns);
    rec.set(
        "executor.overhead_ns_per_tx",
        busy_ns_per_tx - interpreter_ns,
    );
    rec.set_per("merge.ns_per_tx", ns("merge"), shard_txs);
    rec.set_per("merge.ns_per_component", ns("merge"), n(c.components));
    rec.set_ratio_x1000("merge.epoch_share_permille", ns("merge"), epoch_ns);
    rec.set_ratio_x1000("merge.components_per_tx_x1000", n(c.components), shard_txs);
    rec.set_per(
        "delta.join_ns_per_component",
        ns("probe.merge_ref"),
        n(probed.counts.joined_components),
    );
    rec.set_per(
        "delta.wire_bytes_per_tx",
        n(probed.counts.wire_bytes),
        shard_txs,
    );
    rec.set_per("xshard.ns_per_tx", ns("xshard"), n(c.to_xshard));
    rec.set_ratio_x1000("xshard.epoch_share_permille", ns("xshard"), epoch_ns);
    rec.set_ratio_x1000("xshard.abort_permille", n(c.xshard_aborted), n(c.to_xshard));
    rec.set_ratio_x1000(
        "xshard.ds_fallback_permille",
        n(c.xshard_ds_fallback),
        n(c.to_xshard),
    );
    rec.set_ratio_x1000(
        "xshard.lock_wait_permille",
        n(c.xshard_lock_wait),
        n(c.to_xshard),
    );
    rec.set_per("ds_exec.ns_per_tx", ns("ds_exec"), n(c.ds_txs));
    rec.set_ratio_x1000("ds_exec.epoch_share_permille", ns("ds_exec"), epoch_ns);

    let epoch_walls: Vec<f64> = tr
        .durations_ns("epoch")
        .into_iter()
        .map(|d| d as f64)
        .collect();
    rec.set("epoch.ms_p50", median(&epoch_walls) / 1e6);
    rec.set("epoch.ms_p90", quantile(&epoch_walls, 0.9) / 1e6);
    rec.set("epoch.samples", n(epoch_walls.len()));
    let epoch_self = tr.self_times().get("epoch").map_or(0, |row| row.self_ns);
    rec.set_ratio_x1000("epoch.unattributed_permille", epoch_self as f64, epoch_ns);
    rec.set_ratio_x1000("epoch.deferred_permille", n(c.deferred), n(c.dispatched));

    rec.set(
        "bench.span_overhead_x1000",
        paired_ratio_x1000(&spanned.walls_ns, &plain.walls_ns),
    );
    rec.set_per(
        "state.rss_kb_per_ktx",
        (rss_after - rss_before).max(0.0),
        n(3 * spanned.entered) / 1e3,
    );
    rec.set("setup.generate_s", ns("setup.generate") / 1e9);
    rec.set(
        "setup.prepare_s",
        (ns("setup.fund_deploy") + ns("setup.seed")) / 1e9,
    );
    rec.set_per(
        "setup.seed_ns_per_tx",
        ns("setup.seed"),
        n(spanned.seed_txs),
    );
    let output = |rec| spanned.output(epochs, rec);
    drop((plain, probed));

    if w.users_probe {
        // Same loop, ten times the accounts: does per-transaction cost stay
        // flat as the CoW state grows?
        let probe_epochs = epochs.min(20);
        let mut spans = Tracer::new(true);
        let mut grown = setup(w, 10 * USERS, probe_epochs, args.seed, &mut spans)?;
        for _ in 0..probe_epochs {
            grown.step(&mut off, Some(&mut spans))?;
        }
        grown.check()?;
        // One single-sender packet of ten times the setup transactions.
        rec.set_per(
            "setup.seed_x10_ns_per_tx",
            spans.total_ns("setup.seed") as f64,
            n(grown.seed_txs),
        );
        rec.set_ratio_x1000(
            "state.users_x10_slowdown_x1000",
            spans.total_ns("probe.shard_exec") as f64 / n(grown.counts.shard_txs.max(1)),
            busy_ns_per_tx,
        );
    }
    if w.protocol {
        rec.set("protocol.tps", protocol_tps(w, args.seed));
    }
    Ok(output(rec))
}
