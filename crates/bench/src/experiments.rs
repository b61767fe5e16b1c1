//! Experiment runners: one function per paper table/figure.
//!
//! Each returns structured data; the `paper` binary renders it, the
//! criterion benches time the hot paths, and integration tests assert the
//! shapes (who wins, by roughly what factor).

use chain::delta::StateDelta;
use chain::dispatch::{dispatch, Decision};
use chain::network::ChainConfig;
use chain::state::GlobalState;
use chain::tx::Transaction;
use cosplit_analysis::callgraph::{CallGraph, ContractCalls, GraphContract};
use cosplit_analysis::ge::{ge_stats, GeStats};
use cosplit_analysis::signature::ShardingSignature;
use cosplit_analysis::solver::AnalyzedContract;
use scilla::corpus;
use scilla::typechecker::CheckedModule;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use telemetry::trace::{self, TraceRecord, TxLifecycle};
use workloads::scenarios::Kind;

/// Parses and type-checks a corpus contract (helper shared by experiments).
pub fn check_contract(name: &str) -> CheckedModule {
    let entry = corpus::get(name).unwrap_or_else(|| panic!("unknown corpus contract {name}"));
    let module = scilla::parser::parse_module(entry.source).expect("corpus parses");
    scilla::typechecker::typecheck(module).expect("corpus typechecks")
}

// ---------------------------------------------------------------- Fig. 12

/// Per-contract deployment-pipeline timings (paper Fig. 12).
#[derive(Debug, Clone)]
pub struct PipelineTiming {
    /// Contract name.
    pub name: &'static str,
    /// Lines of Scilla source.
    pub loc: usize,
    /// Parsing time.
    pub parse: Duration,
    /// Type checking time.
    pub typecheck: Duration,
    /// Sharding analysis time.
    pub analysis: Duration,
}

impl PipelineTiming {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.parse + self.typecheck + self.analysis
    }
}

/// Runs the deployment pipeline `reps` times per mainnet-sample contract,
/// averaging the per-stage times (the paper averages 1000 runs).
pub fn fig12_pipeline_timings(reps: u32) -> Vec<PipelineTiming> {
    let mut out = Vec::new();
    for entry in corpus::mainnet_sample() {
        let mut parse = Duration::ZERO;
        let mut typecheck = Duration::ZERO;
        let mut analysis = Duration::ZERO;
        for _ in 0..reps {
            let t0 = Instant::now();
            let module = scilla::parser::parse_module(entry.source).expect("parses");
            parse += t0.elapsed();
            let t0 = Instant::now();
            let checked = scilla::typechecker::typecheck(module).expect("typechecks");
            typecheck += t0.elapsed();
            let t0 = Instant::now();
            let _ = AnalyzedContract::analyze(&checked);
            analysis += t0.elapsed();
        }
        out.push(PipelineTiming {
            name: entry.name,
            loc: entry.source.lines().count(),
            parse: parse / reps,
            typecheck: typecheck / reps,
            analysis: analysis / reps,
        });
    }
    // The paper orders the chart by decreasing total time.
    out.sort_by_key(|t| std::cmp::Reverse(t.total()));
    out
}

/// The §5.1.1 headline: analysis overhead as a share of total deployment
/// time, aggregated over the whole sample (the paper reports ≈46%).
pub fn analysis_overhead_pct(timings: &[PipelineTiming]) -> f64 {
    let analysis: f64 = timings.iter().map(|t| t.analysis.as_secs_f64()).sum();
    let total: f64 = timings.iter().map(|t| t.total().as_secs_f64()).sum();
    100.0 * analysis / total
}

// ---------------------------------------------------------------- Fig. 13

/// GE statistics for one contract (paper Fig. 13a/b).
#[derive(Debug, Clone)]
pub struct GeRow {
    /// Contract name.
    pub name: &'static str,
    /// The statistics.
    pub stats: GeStats,
}

/// Computes good-enough signature statistics for every mainnet-sample
/// contract (paper Fig. 13). Exponential in the transition count — the
/// paper notes deployers do this offline.
pub fn fig13_ge_statistics() -> Vec<GeRow> {
    corpus::mainnet_sample()
        .map(|entry| {
            let analyzed = AnalyzedContract::analyze(&check_contract(entry.name));
            GeRow { name: entry.name, stats: ge_stats(&analyzed) }
        })
        .collect()
}

// --------------------------------------------------------------- Table §5.2

/// One row of the §5.2 contract table.
#[derive(Debug, Clone)]
pub struct Table52Row {
    /// Contract name.
    pub name: &'static str,
    /// Lines of source.
    pub loc: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Largest good-enough signature.
    pub largest_ges: usize,
    /// Number of maximal good-enough signatures.
    pub max_ges: usize,
}

/// The §5.2 evaluation-contract table. The paper's numbers come from the
/// Fig-6 accumulator, so this pins the legacy analysis mode; the refined
/// flow-sensitive default is compared against it by the precision experiment.
pub fn table52() -> Vec<Table52Row> {
    corpus::evaluation_contracts()
        .iter()
        .map(|entry| {
            let checked = check_contract(entry.name);
            let analyzed = AnalyzedContract::analyze_with_mode(
                &checked,
                cosplit_analysis::analysis::AnalysisMode::Legacy,
            );
            let stats = ge_stats(&analyzed);
            Table52Row {
                name: entry.name,
                loc: entry.source.lines().count(),
                transitions: stats.transitions,
                largest_ges: stats.largest,
                max_ges: stats.maximal_count,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 14

/// One workload's TPS series (paper Fig. 14 bars).
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Workload label.
    pub label: &'static str,
    /// Baseline with 3 shards.
    pub baseline3: f64,
    /// CoSplit with 3, 4, 5 shards.
    pub cosplit: [f64; 3],
}

/// Runs the full Fig. 14 grid. `epochs` sustained epochs per cell (the
/// paper uses 10); `scale` shrinks the calibrated gas budgets for quicker
/// runs (1 = paper scale).
pub fn fig14_throughput(epochs: usize, users: u64, scale: u64) -> Vec<Fig14Row> {
    use workloads::runner::run_with;
    use workloads::scenarios::{build, Kind};

    let config = |shards: u32, cosplit: bool| {
        let mut c = ChainConfig::evaluation(shards, cosplit);
        c.shard_gas_limit /= scale;
        c.ds_gas_limit /= scale;
        c
    };
    Kind::all()
        .iter()
        .map(|&kind| {
            // Over-supply load so gas budgets are the binding constraint:
            // 5 shards × capacity × epochs, plus slack.
            let capacity_per_epoch = (ChainConfig::evaluation(5, true).shard_gas_limit / scale / 200) as usize;
            let load = capacity_per_epoch * 6 * epochs;
            let scenario = build(kind, users, load, 0xC0517);
            let tps = |shards: u32, cosplit: bool| {
                run_with(&scenario, config(shards, cosplit), epochs).tps()
            };
            Fig14Row {
                label: kind.label(),
                baseline3: tps(3, false),
                cosplit: [tps(3, true), tps(4, true), tps(5, true)],
            }
        })
        .collect()
}

// -------------------------------------------------------------- §5.2.2

/// The dispatch/merge overhead measurements of §5.2.2.
#[derive(Debug, Clone)]
pub struct Overheads {
    /// Mean baseline dispatch time (no signature).
    pub dispatch_baseline: Duration,
    /// Mean CoSplit dispatch time including the JSON-RPC-style signature
    /// round-trip (the serialisation the paper blames for its 60× factor).
    pub dispatch_cosplit: Duration,
    /// Mean per-component time to apply a delta directly.
    pub merge_baseline: Duration,
    /// Mean per-component time to wire-encode, merge, and apply deltas.
    pub merge_cosplit: Duration,
}

/// Builds a ready-to-measure dispatch workload: a prepared network and a
/// batch of transfer transactions.
pub fn dispatch_fixture(users: u64, txs: usize) -> (GlobalState, Vec<Transaction>, GlobalState) {
    use workloads::runner::prepare;
    use workloads::scenarios::{build, Kind};
    let scenario = build(Kind::FtTransfer, users, txs, 7);
    let with_sig = prepare(&scenario, 3, true);
    let without_sig = prepare(&scenario, 3, false);
    (with_sig.state().clone(), scenario.load, without_sig.state().clone())
}

/// Dispatches through the JSON wire boundary: the signature travels to the
/// lookup node serialised, as in the paper's CoSplit↔Zilliqa integration.
pub fn dispatch_via_wire(tx: &Transaction, state: &GlobalState, num_shards: u32) -> Decision {
    if let chain::tx::TxKind::Call { contract, .. } = &tx.kind {
        if let Some(deployed) = state.contracts.get(contract) {
            if let Some(sig) = &deployed.signature {
                // Round-trip the signature through its wire form.
                let json = sig.to_json();
                let _decoded: ShardingSignature =
                    ShardingSignature::from_json(&json).expect("wire roundtrip");
            }
        }
    }
    dispatch(tx, state, num_shards, true)
}

/// Measures the §5.2.2 overheads over a transfer workload.
pub fn measure_overheads(users: u64, txs: usize) -> Overheads {
    let (state_sig, load, state_plain) = dispatch_fixture(users, txs);

    let t0 = Instant::now();
    for tx in &load {
        std::hint::black_box(dispatch(tx, &state_plain, 3, true));
    }
    let dispatch_baseline = t0.elapsed() / load.len() as u32;

    let t0 = Instant::now();
    for tx in &load {
        std::hint::black_box(dispatch_via_wire(tx, &state_sig, 3));
    }
    let dispatch_cosplit = t0.elapsed() / load.len() as u32;

    // Merge: produce real deltas by running one epoch on each config.
    let deltas = epoch_deltas(&state_sig, &load);
    let components: usize = deltas.iter().map(StateDelta::changed_components).sum();

    let mut base_state = state_plain.clone();
    let merged = StateDelta::merge(deltas.clone()).expect("merges");
    let t0 = Instant::now();
    merged.apply(&mut base_state).expect("applies");
    let merge_baseline = t0.elapsed() / components.max(1) as u32;

    let mut cosplit_state = state_sig.clone();
    let t0 = Instant::now();
    // Wire-encode each shard's delta (MicroBlock → DS), then merge + apply.
    for d in &deltas {
        std::hint::black_box(d.to_wire());
    }
    let merged = StateDelta::merge(deltas).expect("merges");
    std::hint::black_box(merged.to_wire());
    merged.apply(&mut cosplit_state).expect("applies");
    let merge_cosplit = t0.elapsed() / components.max(1) as u32;

    Overheads { dispatch_baseline, dispatch_cosplit, merge_baseline, merge_cosplit }
}

/// Runs one epoch's shard executions over `load` and returns the per-shard
/// deltas (without applying them).
pub fn epoch_deltas(state: &GlobalState, load: &[Transaction]) -> Vec<StateDelta> {
    use chain::dispatch::Assignment;
    use chain::executor::{execute_batch, ExecutorConfig};
    let num_shards = 3;
    let mut batches: Vec<Vec<Transaction>> = (0..num_shards).map(|_| Vec::new()).collect();
    for tx in load {
        if let Assignment::Shard(s) = dispatch(tx, state, num_shards, true).assignment {
            batches[s as usize].push(tx.clone());
        }
    }
    batches
        .into_iter()
        .enumerate()
        .map(|(s, batch)| {
            let cfg = ExecutorConfig {
                role: Assignment::Shard(s as u32),
                num_shards,
                gas_limit: u64::MAX,
                block_number: 10,
                use_cosplit: true,
                overflow_guard: false,
                audit: false,
                compose_calls: false,
            };
            execute_batch(&cfg, state, batch).delta
        })
        .collect()
}

// -------------------------------------------------------------- §5.2.3

/// Strategy attribution for one workload (paper §5.2.3): which of the two
/// sharding strategies each measured transaction relied on. A transaction
/// *uses ownership* when its constraints pin state components to the
/// executing shard (Strategy 1), and *uses commutativity* when it writes
/// fields whose join is `IntMerge` (Strategy 2) — many use both.
#[derive(Debug, Clone)]
pub struct StrategyRow {
    /// Workload label.
    pub label: &'static str,
    /// Shard-executed transactions relying on disjoint state ownership.
    pub uses_ownership: usize,
    /// Shard-executed transactions relying on commutative (IntMerge) writes.
    pub uses_commutativity: usize,
    /// Shard-executed transactions with *no* ownership constraints at all
    /// (pure commutative footprint, freely spreadable).
    pub unconstrained: usize,
    /// Routed to the DS committee.
    pub ds: usize,
}

/// Computes the ownership-vs-commutativity breakdown for all workloads.
pub fn strategies(users: u64, txs: usize) -> Vec<StrategyRow> {
    use chain::dispatch::Assignment;
    use chain::tx::TxKind;
    use cosplit_analysis::signature::{Constraint, Join};
    use workloads::runner::prepare;
    use workloads::scenarios::{build, Kind};
    Kind::all()
        .iter()
        .map(|&kind| {
            let scenario = build(kind, users, txs, 3);
            let net = prepare(&scenario, 3, true);
            // The analysis metadata for the deployed contract: which fields
            // merge commutatively, and which transitions write them.
            let analyzed = AnalyzedContract::analyze(&check_contract(scenario.corpus_name));
            let mut row = StrategyRow {
                label: kind.label(),
                uses_ownership: 0,
                uses_commutativity: 0,
                unconstrained: 0,
                ds: 0,
            };
            for tx in &scenario.load {
                let d = dispatch(tx, net.state(), 3, true);
                if d.assignment == Assignment::Ds {
                    row.ds += 1;
                    continue;
                }
                let TxKind::Call { contract, transition, .. } = &tx.kind else { continue };
                let deployed = &net.state().contracts[contract];
                let sig = deployed.signature.as_ref().expect("cosplit deployment");
                let tc = sig.transition(transition).expect("selected transition");
                let owns = tc.constraints.iter().any(|c| matches!(c, Constraint::Owns(_)));
                if owns {
                    row.uses_ownership += 1;
                } else {
                    row.unconstrained += 1;
                }
                let summary = analyzed.summary(transition).expect("transition summary");
                let merges = summary
                    .writes()
                    .any(|(pf, _)| sig.joins.get(&pf.field) == Some(&Join::IntMerge));
                if merges {
                    row.uses_commutativity += 1;
                }
            }
            row
        })
        .collect()
}

// -------------------------------------------------------------- Ablations

/// One workload's TPS under ablated protocol features (DESIGN.md: ablation
/// benches for the design choices).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Workload label.
    pub label: &'static str,
    /// Full system: CoSplit + relaxed nonces + IntMerge.
    pub full: f64,
    /// §4.2.1 ablated: strict gap-free nonce ordering.
    pub strict_nonces: f64,
    /// Strategy 2 ablated: weak reads declined, every join OwnOverwrite.
    pub ownership_only: f64,
    /// Both strategies off: the §4.1 baseline.
    pub baseline: f64,
}

/// Runs the ablation grid for the two workloads the paper singles out:
/// NFT mint (whose linear scaling "is only possible because of the changes
/// to the account-based model" of §4.2) and FT transfer (whose recipient
/// updates need commutativity).
pub fn ablation(shards: u32, users: u64, epochs: usize, scale: u64) -> Vec<AblationRow> {
    use workloads::runner::run_with;
    use workloads::scenarios::{build, Kind};

    let base_config = |cosplit: bool| {
        let mut c = ChainConfig::evaluation(shards, cosplit);
        c.shard_gas_limit /= scale;
        c.ds_gas_limit /= scale;
        c
    };
    [Kind::NftMint, Kind::FtTransfer]
        .iter()
        .map(|&kind| {
            let capacity = (ChainConfig::evaluation(shards, true).shard_gas_limit / scale / 200) as usize;
            let load = capacity * (shards as usize + 1) * epochs;
            let scenario = build(kind, users, load, 0xAB1A7E);

            let full = run_with(&scenario, base_config(true), epochs).tps();

            let mut strict = base_config(true);
            strict.relaxed_nonces = false;
            let strict_nonces = run_with(&scenario, strict, epochs).tps();

            let mut ownership_scenario = scenario.clone();
            ownership_scenario.weak_reads =
                cosplit_analysis::signature::WeakReads::Fields(Default::default());
            let ownership_only = run_with(&ownership_scenario, base_config(true), epochs).tps();

            let baseline = run_with(&scenario, base_config(false), epochs).tps();

            AblationRow { label: kind.label(), full, strict_nonces, ownership_only, baseline }
        })
        .collect()
}

// ------------------------------------------------------ lifecycle tracing

/// One DS-residency bucket of the trace experiment: a workload/transition
/// pair with the number of transactions whose *final* execution landed on
/// the DS committee, and the dispatch reasons that sent them there.
#[derive(Debug, Clone)]
pub struct DsAttribution {
    /// Workload label.
    pub workload: &'static str,
    /// Transition name, or `"(payment)"` for native transfers.
    pub transition: String,
    /// Transactions resident on the DS committee.
    pub ds_txs: usize,
    /// Dispatch-reason distribution over those transactions.
    pub reasons: BTreeMap<String, usize>,
}

/// One traced workload run inside [`trace_experiment`].
#[derive(Debug, Clone)]
pub struct TraceRunReport {
    /// Workload label.
    pub label: &'static str,
    /// Measured-phase committed transactions (successful receipts).
    pub committed: usize,
    /// Committed transactions whose lifecycle is *not* a complete
    /// dispatch→commit chain — must be zero (`chain/tests/trace_lifecycle.rs`).
    pub missing_chains: usize,
    /// Assembled lifecycles (setup phase included).
    pub lifecycles: Vec<TxLifecycle>,
    /// Lifecycles whose final execution ran on the DS committee.
    pub ds: usize,
    /// Lifecycles whose final execution ran on a transaction shard.
    pub shard: usize,
}

/// The `paper -- trace` experiment: per-workload lifecycle coverage and
/// DS-fallback attribution — plus the raw records for the Chrome export.
/// (What tracing costs is `ft_transfer_traced` vs `ft_transfer` in
/// `BENCHMARK.json`.)
#[derive(Debug, Clone)]
pub struct TraceExperiment {
    /// Per-workload traced runs.
    pub runs: Vec<TraceRunReport>,
    /// DS-residency attribution across all runs, most-resident first.
    pub attribution: Vec<DsAttribution>,
    /// Every trace record from every run, for [`trace::chrome_trace_json`].
    pub records: Vec<TraceRecord>,
}

/// Runs each workload once with tracing on and assembles the full report.
/// The flight recorder is drained between runs because transaction ids are
/// per-scenario. Gauges the headline numbers (`trace.*`) into the metrics
/// snapshot; tracing is left off on return.
pub fn trace_experiment(
    kinds: &[Kind],
    users: u64,
    txs: usize,
    epochs: usize,
) -> TraceExperiment {
    use workloads::runner::run_with;
    use workloads::scenarios::build;
    use workloads::seeds;

    telemetry::set_enabled(true);
    let config = || {
        let mut c = ChainConfig::small(4, true);
        c.audit = false;
        c
    };
    let mut runs = Vec::new();
    let mut records = Vec::new();
    let mut attribution: BTreeMap<(&'static str, String), DsAttribution> = BTreeMap::new();
    for &kind in kinds {
        let scenario = build(kind, users, txs, seeds::derive(0x7eace, kind.label()));
        trace::set_tracing(true);
        trace::recorder().clear();
        let result = run_with(&scenario, config(), epochs);
        let run_records = trace::recorder().drain();
        trace::set_tracing(false);

        let lifecycles = trace::build_lifecycles(&run_records);
        let committed_ids: BTreeSet<u64> = result
            .reports
            .iter()
            .flat_map(|r| r.receipts.iter())
            .filter(|r| r.status == chain::executor::TxStatus::Success)
            .map(|r| r.tx_id)
            .collect();
        let complete: BTreeSet<u64> = lifecycles
            .iter()
            .filter(|lc| lc.complete_commit_chain())
            .map(|lc| lc.tx_id)
            .collect();
        let missing_chains = committed_ids.difference(&complete).count();
        let mut ds = 0;
        let mut shard = 0;
        for lc in &lifecycles {
            match lc.assignment() {
                Some("ds") => {
                    ds += 1;
                    let transition =
                        lc.transition().unwrap_or("(payment)").to_string();
                    let entry = attribution
                        .entry((kind.label(), transition.clone()))
                        .or_insert_with(|| DsAttribution {
                            workload: kind.label(),
                            transition,
                            ds_txs: 0,
                            reasons: BTreeMap::new(),
                        });
                    entry.ds_txs += 1;
                    if let Some(reason) = lc.dispatch_reason() {
                        *entry.reasons.entry(reason.to_string()).or_insert(0) += 1;
                    }
                }
                Some(_) => shard += 1,
                None => {}
            }
        }
        runs.push(TraceRunReport {
            label: kind.label(),
            committed: result.committed(),
            missing_chains,
            lifecycles,
            ds,
            shard,
        });
        records.extend(run_records);
    }

    let mut attribution: Vec<DsAttribution> = attribution.into_values().collect();
    attribution.sort_by_key(|a| std::cmp::Reverse(a.ds_txs));

    let reg = telemetry::registry();
    reg.gauge("trace.records").set(records.len() as i64);
    reg.gauge("trace.ds_txs").set(runs.iter().map(|r| r.ds).sum::<usize>() as i64);
    reg.gauge("trace.shard_txs").set(runs.iter().map(|r| r.shard).sum::<usize>() as i64);
    reg.gauge("trace.missing_chains")
        .set(runs.iter().map(|r| r.missing_chains).sum::<usize>() as i64);

    TraceExperiment { runs, attribution, records }
}

// ------------------------------------------------- cross-shard 2PC stage

/// Dispatch reasons that end in DS serialisation (the complement of shard,
/// cross-shard, and sender-home placements).
pub const DS_REASONS: [&str; 8] = [
    "baseline-cross",
    "unselected",
    "unsat",
    "split-footprint",
    "alias",
    "not-user-addr",
    "bad-args",
    "strict-nonce",
];

/// One workload's cross-shard commit measurement (`paper -- xshard`).
#[derive(Debug, Clone)]
pub struct XShardRow {
    /// Workload label.
    pub label: &'static str,
    /// Transactions committed over the measured epochs.
    pub committed: usize,
    /// Share of dispatch decisions serialised at the DS committee (‰).
    pub to_ds_permille: u64,
    /// Share of dispatch decisions routed to the cross-shard stage (‰).
    pub to_xshard_permille: u64,
    /// Transactions committed atomically by the two-phase stage.
    pub xs_committed: u64,
    /// Cross-shard aborts (fault-free epochs: always 0).
    pub xs_aborted: u64,
    /// Plans handed to the DS after resolution failed or the prepare
    /// rerouted.
    pub xs_ds_fallback: u64,
}

/// Runs every evaluation workload with the cross-shard two-phase commit
/// enabled and measures where dispatch sends the load and what the stage
/// does with it. Records `chain.dispatch.to_ds_permille` (aggregate and
/// per-workload) and `chain.xshard.*_total` gauges so the metrics snapshot
/// (`BENCH_metrics.json`) carries the PR's acceptance numbers.
pub fn xshard_rows(users: u64, txs: usize, epochs: usize) -> Vec<XShardRow> {
    use workloads::runner::run_with;
    use workloads::scenarios::build;

    telemetry::set_enabled(true);
    let reg = telemetry::registry();
    let mut agg_total = 0u64;
    let mut agg_ds = 0u64;
    let mut xs_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let rows = Kind::all()
        .iter()
        .map(|&kind| {
            let scenario = build(kind, users, txs, 0x5BAC + kind as u64);
            let config = ChainConfig {
                cross_shard_commit: true,
                ..ChainConfig::evaluation(4, true)
            };
            let before = reg.snapshot();
            let result = run_with(&scenario, config, epochs);
            let delta = reg.snapshot().diff(&before);

            let (mut total, mut ds, mut xshard) = (0u64, 0u64, 0u64);
            for report in &result.reports {
                for (reason, n) in &report.dispatch_reasons {
                    total += *n as u64;
                    if DS_REASONS.contains(&reason.as_str()) {
                        ds += *n as u64;
                    }
                    if reason == "xshard" {
                        xshard += *n as u64;
                    }
                }
            }
            agg_total += total;
            agg_ds += ds;
            for key in ["committed", "aborted", "ds_fallback"] {
                *xs_totals.entry(key).or_default() +=
                    delta.counter(&format!("chain.xshard.{key}"));
            }
            let slug = scenario.kind.label().to_lowercase().replace(' ', "_");
            let permille = |n: u64| n * 1000 / total.max(1);
            reg.gauge(&format!("chain.dispatch.to_ds_permille.{slug}"))
                .set(permille(ds) as i64);
            XShardRow {
                label: scenario.kind.label(),
                committed: result.committed(),
                to_ds_permille: permille(ds),
                to_xshard_permille: permille(xshard),
                xs_committed: delta.counter("chain.xshard.committed"),
                xs_aborted: delta.counter("chain.xshard.aborted"),
                xs_ds_fallback: delta.counter("chain.xshard.ds_fallback"),
            }
        })
        .collect();
    reg.gauge("chain.dispatch.to_ds_permille").set((agg_ds * 1000 / agg_total.max(1)) as i64);
    for (key, v) in xs_totals {
        reg.gauge(&format!("chain.xshard.{key}_total")).set(v as i64);
    }
    rows
}

// ------------------------------------------------- Interprocedural chains

/// Builds the static cross-contract call graph over a set of corpus
/// contracts (default: the 49-contract mainnet sample plus the relay
/// harness pair). Panics on a corpus contract that stops analysing.
pub fn corpus_call_graph(entries: &[&'static corpus::CorpusEntry]) -> CallGraph {
    let inputs: Vec<GraphContract> = entries
        .iter()
        .map(|entry| {
            let checked = check_contract(entry.name);
            let analyzed = AnalyzedContract::analyze(&checked);
            GraphContract {
                name: entry.name.to_string(),
                transitions: analyzed.summaries.iter().map(|s| s.name.clone()).collect(),
                calls: ContractCalls::extract(&checked, &analyzed.summaries),
            }
        })
        .collect();
    CallGraph::build(&inputs)
}

/// One workload's dispatch routing with interprocedural composition off vs
/// on (`paper -- callgraph`).
#[derive(Debug, Clone)]
pub struct CallGraphRow {
    /// Workload label.
    pub label: &'static str,
    /// Transactions committed with composition on.
    pub committed: usize,
    /// Share of dispatch decisions serialised at the DS committee with
    /// composition off (‰).
    pub to_ds_off_permille: u64,
    /// The same share with composition on (‰).
    pub to_ds_on_permille: u64,
    /// Share of decisions claimed shard-local by a composed chain (‰).
    pub composed_permille: u64,
}

/// Runs the relay-chain workload plus two Fig. 14 controls with
/// `compose_calls` off and on. Records the per-workload DS shares as
/// `chain.dispatch.to_ds_permille.compose_{off,on}.{slug}` gauges and the
/// corpus resolved-edge fraction as `cosplit.callgraph.resolved_permille`,
/// so `BENCH_metrics.json` carries the PR's acceptance numbers.
pub fn callgraph_rows(users: u64, txs: usize, epochs: usize) -> Vec<CallGraphRow> {
    use workloads::runner::run_with;
    use workloads::scenarios::build;

    telemetry::set_enabled(true);
    let reg = telemetry::registry();

    let sample: Vec<&'static corpus::CorpusEntry> = corpus::mainnet_sample().collect();
    let graph = corpus_call_graph(&sample);
    reg.gauge("cosplit.callgraph.resolved_permille")
        .set((graph.resolved_fraction() * 1000.0) as i64);

    // The relay chain is the workload composition exists for; the controls
    // show single-contract routing is untouched by the flag.
    let kinds = [Kind::RelayPing, Kind::FtTransfer, Kind::IpfsRegister];
    kinds
        .iter()
        .map(|&kind| {
            let scenario = build(kind, users, txs, 0xCA11 + kind as u64);
            let slug = scenario.kind.label().to_lowercase().replace(' ', "_");
            let run = |compose: bool| {
                let config = ChainConfig {
                    compose_calls: compose,
                    ..ChainConfig::evaluation(4, true)
                };
                let result = run_with(&scenario, config, epochs);
                let (mut total, mut ds, mut composed) = (0u64, 0u64, 0u64);
                for report in &result.reports {
                    for (reason, n) in &report.dispatch_reasons {
                        total += *n as u64;
                        if DS_REASONS.contains(&reason.as_str()) {
                            ds += *n as u64;
                        }
                        if reason == "composed-local" {
                            composed += *n as u64;
                        }
                    }
                }
                let permille = |n: u64| n * 1000 / total.max(1);
                let mode = if compose { "compose_on" } else { "compose_off" };
                reg.gauge(&format!("chain.dispatch.to_ds_permille.{mode}.{slug}"))
                    .set(permille(ds) as i64);
                (result.committed(), permille(ds), permille(composed))
            };
            let (_, off_ds, _) = run(false);
            let (committed, on_ds, composed) = run(true);
            CallGraphRow {
                label: scenario.kind.label(),
                committed,
                to_ds_off_permille: off_ds,
                to_ds_on_permille: on_ds,
                composed_permille: composed,
            }
        })
        .collect()
}

// ------------------------------------------------- Precision frontier

/// The corpus-wide precision census: how much imprecision each analysis
/// mode reports over the 49-contract mainnet sample (`paper -- precision`).
#[derive(Debug, Clone)]
pub struct PrecisionCensus {
    /// Contracts analysed.
    pub contracts: usize,
    /// Transitions whose *legacy* summary collapsed to global ⊤.
    pub top_legacy: usize,
    /// Transitions whose *refined* summary is global ⊤ (invariant: 0).
    pub top_refined: usize,
    /// Transitions carrying a localized `⊤[field]` under the refined
    /// analysis — the survivors the blame engine explains.
    pub top_field_refined: usize,
    /// Blame causes recorded by the refined analysis, corpus-wide.
    pub blames: usize,
}

/// Analyses the whole mainnet sample under both modes and measures the
/// precision gap. Every blame cause is round-tripped through its JSON wire
/// form (a corpus-wide panic-free sweep of the blame engine). Records the
/// `cosplit.precision.*` gauges so `BENCH_metrics.json` carries the
/// numbers.
pub fn precision_census() -> PrecisionCensus {
    use cosplit_analysis::analysis::AnalysisMode;
    use cosplit_analysis::blame::BlameCause;

    telemetry::set_enabled(true);
    let mut census = PrecisionCensus {
        contracts: 0,
        top_legacy: 0,
        top_refined: 0,
        top_field_refined: 0,
        blames: 0,
    };
    for entry in corpus::mainnet_sample() {
        census.contracts += 1;
        let checked = check_contract(entry.name);
        let legacy = AnalyzedContract::analyze_with_mode(&checked, AnalysisMode::Legacy);
        let refined = AnalyzedContract::analyze_with_mode(&checked, AnalysisMode::Refined);
        census.top_legacy += legacy.summaries.iter().filter(|s| s.has_top()).count();
        census.top_refined += refined.summaries.iter().filter(|s| s.has_top()).count();
        census.top_field_refined +=
            refined.summaries.iter().filter(|s| s.top_fields().next().is_some()).count();
        census.blames += refined.blames.len();
        for b in &refined.blames {
            let back = BlameCause::from_json(&b.to_json())
                .unwrap_or_else(|e| panic!("{}: blame wire round-trip failed: {e}", entry.name));
            assert_eq!(&back, b, "{}: blame wire round-trip drifted", entry.name);
        }
    }

    let reg = telemetry::registry();
    reg.gauge("cosplit.precision.top_summaries.legacy").set(census.top_legacy as i64);
    reg.gauge("cosplit.precision.top_summaries.refined").set(census.top_refined as i64);
    reg.gauge("cosplit.precision.top_fields.refined").set(census.top_field_refined as i64);
    reg.gauge("cosplit.precision.blames").set(census.blames as i64);
    census
}

/// One workload's dispatch routing under the legacy vs the refined default
/// analysis (`paper -- precision`).
#[derive(Debug, Clone)]
pub struct PrecisionRow {
    /// Workload label.
    pub label: &'static str,
    /// Transactions committed under the refined analysis.
    pub committed: usize,
    /// Share of dispatch decisions serialised at the DS committee with the
    /// legacy analysis deployed (‰).
    pub to_ds_legacy_permille: u64,
    /// The same share with the refined analysis deployed (‰).
    pub to_ds_refined_permille: u64,
}

/// Runs the airdrop workload (whose `ClaimAirdrop` is exactly on the
/// precision frontier: ⊤ under legacy, summarisable under refined) plus a
/// Fig. 14 control with each analysis mode's signature deployed, and
/// measures where dispatch sends the load. Records the per-workload DS
/// shares as `chain.dispatch.to_ds_permille.{legacy,refined}.{slug}`
/// gauges.
pub fn precision_rows(users: u64, txs: usize, epochs: usize) -> Vec<PrecisionRow> {
    use cosplit_analysis::analysis::AnalysisMode;
    use workloads::scenarios::build;

    telemetry::set_enabled(true);
    let reg = telemetry::registry();
    let kinds = [Kind::FtAirdrop, Kind::FtTransfer];
    let rows = kinds
        .iter()
        .map(|&kind| {
            let scenario = build(kind, users, txs, 0x9EC1 + kind as u64);
            let slug = scenario.kind.label().to_lowercase().replace(' ', "_");
            let run = |mode: AnalysisMode| {
                let reports = run_with_mode(&scenario, mode, epochs);
                let (mut total, mut ds) = (0u64, 0u64);
                for report in &reports {
                    for (reason, n) in &report.dispatch_reasons {
                        total += *n as u64;
                        if DS_REASONS.contains(&reason.as_str()) {
                            ds += *n as u64;
                        }
                    }
                }
                let permille = ds * 1000 / total.max(1);
                let mode_slug = match mode {
                    AnalysisMode::Legacy => "legacy",
                    AnalysisMode::Refined => "refined",
                };
                reg.gauge(&format!("chain.dispatch.to_ds_permille.{mode_slug}.{slug}"))
                    .set(permille as i64);
                (reports.iter().map(|r| r.committed).sum::<usize>(), permille)
            };
            let (_, legacy_ds) = run(AnalysisMode::Legacy);
            let (committed, refined_ds) = run(AnalysisMode::Refined);
            PrecisionRow {
                label: scenario.kind.label(),
                committed,
                to_ds_legacy_permille: legacy_ds,
                to_ds_refined_permille: refined_ds,
            }
        })
        .collect();
    rows
}

/// `workloads::runner::run_with` on a 4-shard evaluation chain, except that
/// the scenario contract's signature is derived by `mode` and installed
/// with `Network::deploy_with_signature`; `Network::deploy` always
/// analyses with the refined default.
fn run_with_mode(
    scenario: &workloads::scenarios::Scenario,
    mode: cosplit_analysis::analysis::AnalysisMode,
    epochs: usize,
) -> Vec<chain::network::EpochReport> {
    use chain::address::Address;
    use workloads::scenarios::{admin, contract_addr};
    assert!(scenario.extra.is_empty(), "one contract per precision row");
    let checked = check_contract(scenario.corpus_name);
    let selection: Vec<String> =
        scenario.sharded_transitions.iter().map(|t| t.to_string()).collect();
    let signature = AnalyzedContract::analyze_with_mode(&checked, mode)
        .query(&selection, &scenario.weak_reads);
    let mut net = chain::network::Network::new(ChainConfig::evaluation(4, true));
    net.fund_account(admin(), u128::MAX / 4);
    for i in 0..scenario.users {
        net.fund_account(Address::from_index(i), 1_000_000_000_000);
    }
    let source = corpus::get(scenario.corpus_name).expect("corpus contract").source;
    net.deploy_with_signature(contract_addr(), source, scenario.params.clone(), Some(signature))
        .expect("scenario contract deploys");
    let mut setup = scenario.setup.clone();
    for _ in 0..1_000 {
        if setup.is_empty() {
            break;
        }
        net.run_epoch(&mut setup);
    }
    assert!(setup.is_empty(), "setup did not converge");
    net.run_epochs(&mut scenario.load.clone(), epochs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_census_and_rows_show_the_frontier() {
        let census = precision_census();
        assert_eq!(census.contracts, 49, "{census:?}");
        // The refined analysis never goes globally ⊤ and strictly shrinks
        // the ⊤ population; every surviving loss carries at least one blame.
        assert_eq!(census.top_refined, 0, "{census:?}");
        assert!(census.top_field_refined < census.top_legacy, "{census:?}");
        assert!(census.blames >= census.top_field_refined, "{census:?}");

        let rows = precision_rows(20, 200, 2);
        let airdrop = rows.iter().find(|r| r.label == "FT airdrop").unwrap();
        // The acceptance criterion: the refined analysis strictly cuts the
        // airdrop workload's DS share (legacy: every claim is unsat-routed).
        assert!(
            airdrop.to_ds_refined_permille < airdrop.to_ds_legacy_permille,
            "refined analysis must cut the DS share: {airdrop:?}"
        );
        assert!(airdrop.committed > 0, "{airdrop:?}");
        // The control workload never had a ⊤ transition in its load, so the
        // mode flip must not move it.
        let control = rows.iter().find(|r| r.label == "FT transfer").unwrap();
        assert_eq!(
            control.to_ds_legacy_permille, control.to_ds_refined_permille,
            "{control:?}"
        );
    }

    #[test]
    fn callgraph_rows_cut_the_relay_ds_share() {
        let rows = callgraph_rows(20, 200, 2);
        let relay = rows.iter().find(|r| r.label == "Relay ping").unwrap();
        // The acceptance criterion: composition strictly reduces the relay
        // chain's DS share (off: every Relay serialises; on: none do).
        assert!(
            relay.to_ds_on_permille < relay.to_ds_off_permille,
            "composition must cut the DS share: {relay:?}"
        );
        assert!(relay.composed_permille > 0, "{relay:?}");
        assert!(relay.committed > 0, "{relay:?}");
        // Single-contract controls are untouched by the flag.
        for r in rows.iter().filter(|r| r.label != "Relay ping") {
            assert_eq!(r.to_ds_on_permille, r.to_ds_off_permille, "{r:?}");
            assert_eq!(r.composed_permille, 0, "{r:?}");
        }
    }

    #[test]
    fn xshard_rows_meet_the_ds_budget() {
        let rows = xshard_rows(20, 200, 2);
        assert_eq!(rows.len(), Kind::all().len());
        for r in &rows {
            // The PR's acceptance criterion: with the cross-shard stage on,
            // under 10% of dispatch decisions serialise at the DS.
            assert!(r.to_ds_permille < 100, "{r:?}");
            assert_eq!(r.xs_aborted, 0, "fault-free epochs must not abort: {r:?}");
        }
        let ipfs = rows.iter().find(|r| r.label == "ProofIPFS register").unwrap();
        assert!(ipfs.to_xshard_permille > 0, "{ipfs:?}");
        assert!(ipfs.xs_committed > 0, "{ipfs:?}");
    }

    #[test]
    fn pipeline_timing_covers_the_sample() {
        let t = fig12_pipeline_timings(1);
        assert_eq!(t.len(), 49);
        assert!(t.iter().all(|x| x.loc > 0));
        let pct = analysis_overhead_pct(&t);
        assert!(pct > 5.0 && pct < 95.0, "analysis share {pct}%");
    }

    #[test]
    fn table52_matches_paper() {
        let rows = table52();
        let expect = [
            ("FungibleToken", 10, 6, 2),
            ("Crowdfunding", 3, 2, 1),
            ("NonfungibleToken", 5, 3, 2),
            ("ProofIPFS", 10, 8, 2),
            ("UD_registry", 11, 6, 2),
        ];
        for (row, (name, t, l, m)) in rows.iter().zip(expect) {
            assert_eq!(row.name, name);
            assert_eq!(row.transitions, t, "{name}");
            assert_eq!(row.largest_ges, l, "{name}");
            assert_eq!(row.max_ges, m, "{name}");
        }
    }

    #[test]
    fn overheads_show_serialisation_cost() {
        let o = measure_overheads(30, 400);
        assert!(
            o.dispatch_cosplit > o.dispatch_baseline,
            "signature round-trip must cost something: {o:?}"
        );
    }

    #[test]
    fn ablations_isolate_each_mechanism() {
        let rows = ablation(5, 40, 2, 8);
        let nft = rows.iter().find(|r| r.label == "NFT mint").unwrap();
        // §4.2.1: without relaxed nonces the single-source mint serialises.
        assert!(nft.strict_nonces < nft.full * 0.5, "{nft:?}");
        assert!(nft.full > nft.baseline * 3.0, "{nft:?}");

        let ft = rows.iter().find(|r| r.label == "FT transfer").unwrap();
        // Strategy 2: without IntMerge the two-entry footprint splits and
        // throughput falls back to near-baseline.
        assert!(ft.ownership_only < ft.full * 0.6, "{ft:?}");
        assert!(ft.ownership_only < ft.baseline * 1.7, "{ft:?}");
        // FT transfers already pin to the sender's home shard, so strict
        // nonces cost them nothing.
        assert!(ft.strict_nonces > ft.full * 0.9, "{ft:?}");
    }

    #[test]
    fn strategy_attribution_matches_5_2_3() {
        let rows = strategies(30, 300);
        let get = |label: &str| rows.iter().find(|r| r.label == label).unwrap().clone();
        // Fungible quantities benefit from commutativity…
        let ft = get("FT transfer");
        assert_eq!(ft.uses_commutativity, 300, "{ft:?}");
        // …non-fungible ones from disjoint ownership (UD writes no IntMerge
        // field at all).
        let ud = get("UD config");
        assert!(ud.uses_ownership > 0 && ud.uses_commutativity == 0, "{ud:?}");
        // NFT transfers mix both: owned token entries + commutative counters.
        let nft = get("NFT transfer");
        assert!(nft.uses_ownership > 0 && nft.uses_commutativity > 0, "{nft:?}");
        // ProofIPFS is the split-footprint workload: most load goes to DS.
        let ipfs = get("ProofIPFS register");
        assert!(ipfs.ds > ipfs.uses_ownership, "{ipfs:?}");
    }
}
