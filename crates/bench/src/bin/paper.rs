//! Regenerates every table and figure of the paper as text output.
//!
//! Usage:
//!
//! ```text
//! paper [fig1|fig12|fig13|table52|fig14|overheads|strategies|ablation|trace|xshard|callgraph|precision|overflow|all] [--fast]
//! ```
//!
//! `--fast` shrinks the Fig. 14 grid (fewer epochs, smaller gas budgets) so
//! the whole suite finishes in well under a minute even in debug builds.

use cosplit_bench::experiments::*;
use cosplit_bench::fmt::{bar, render_table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let which = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");

    match which {
        "fig1" => fig1(),
        "fig12" => fig12(fast),
        "fig13" => fig13(),
        "table52" => table52_cmd(),
        "fig14" => fig14(fast),
        "overheads" => overheads(),
        "strategies" => strategies_cmd(),
        "overflow" => overflow(),
        "ablation" => ablation_cmd(fast),
        "trace" => trace_cmd(fast),
        "xshard" => xshard_cmd(fast),
        "callgraph" => callgraph_cmd(fast),
        "precision" => precision_cmd(fast),
        "all" => {
            fig1();
            fig12(fast);
            fig13();
            table52_cmd();
            fig14(fast);
            overheads();
            strategies_cmd();
            ablation_cmd(fast);
            trace_cmd(fast);
            xshard_cmd(fast);
            callgraph_cmd(fast);
            precision_cmd(fast);
            overflow();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("expected: fig1 | fig12 | fig13 | table52 | fig14 | overheads | strategies | ablation | trace | xshard | callgraph | precision | overflow | all");
            std::process::exit(2);
        }
    }

    // Every run leaves a machine-readable telemetry snapshot next to the
    // text output (override the path with BENCH_METRICS).
    let metrics_path =
        std::env::var("BENCH_METRICS").unwrap_or_else(|_| "BENCH_metrics.json".into());
    match workloads::runner::dump_metrics(std::path::Path::new(&metrics_path)) {
        Ok(()) => println!("\nmetrics snapshot written to {metrics_path}"),
        Err(e) => eprintln!("failed to write {metrics_path}: {e}"),
    }
}

fn heading(title: &str) {
    println!("\n=== {title} ===\n");
}

fn fig1() {
    use workloads::ethtrace::*;
    heading("Fig. 1 — Ethereum transaction breakdown per type (synthetic trace, see DESIGN.md)");
    let trace = synthesize(1_100_000, PAPER_HORIZON, 2020);
    let buckets = breakdown(&trace, PAPER_HORIZON, PAPER_BUCKET);
    // Print every 10th bucket (1M-block steps) to keep the table readable.
    let rows: Vec<Vec<String>> = buckets
        .iter()
        .step_by(10)
        .map(|b| {
            vec![
                format!("{:.2}M", b.start_block as f64 / 1e6),
                format!("{:5.1}%", b.pct_transfer),
                format!("{:5.1}%", b.pct_single),
                format!("{:5.1}%", b.pct_multi),
                format!("{:5.1}%", b.pct_other),
                format!("{:5.1}%", b.pct_single_erc20),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["block", "transfer", "single-call", "multi-call", "other", "ERC20 single"],
            &rows
        )
    );
    let last = buckets.last().expect("buckets");
    println!(
        "late-chain single-contract share: {:.0}% (paper: \"up to 55% of recent blocks\")",
        last.pct_single
    );
}

fn fig12(fast: bool) {
    heading("Fig. 12 — parsing, type checking, and analysis times (µs)");
    let reps = if fast { 5 } else { 100 };
    let timings = fig12_pipeline_timings(reps);
    let max_total = timings.iter().map(|t| t.total().as_micros()).max().unwrap_or(1) as f64;
    let rows: Vec<Vec<String>> = timings
        .iter()
        .map(|t| {
            vec![
                t.name.to_string(),
                t.loc.to_string(),
                format!("{:.1}", t.parse.as_secs_f64() * 1e6),
                format!("{:.1}", t.typecheck.as_secs_f64() * 1e6),
                format!("{:.1}", t.analysis.as_secs_f64() * 1e6),
                bar(t.total().as_micros() as f64, max_total, 30),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["contract", "loc", "parse µs", "typecheck µs", "analysis µs", "total"], &rows)
    );
    println!(
        "analysis share of deployment time: {:.0}% (paper: ≈46%, \"significant but acceptable\")",
        analysis_overhead_pct(&timings)
    );
}

fn fig13() {
    heading("Fig. 13 — good-enough sharding signatures per contract");
    let rows_data = fig13_ge_statistics();

    // The paper's §5.1.2 inset: how many corpus contracts have 1..18
    // transitions.
    let mut histogram = std::collections::BTreeMap::new();
    for r in &rows_data {
        *histogram.entry(r.stats.transitions).or_insert(0usize) += 1;
    }
    println!("transition-count histogram over the 49-contract sample:");
    for (transitions, count) in &histogram {
        println!("  {transitions:>2} transitions: {}", "#".repeat(*count));
    }
    println!();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.stats.transitions.to_string(),
                r.stats.largest.to_string(),
                r.stats.maximal_count.to_string(),
                r.stats.ge_count.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["contract", "#transitions", "largest GE (13a)", "#maximal GE (13b)", "#GE total"],
            &rows
        )
    );
}

fn table52_cmd() {
    heading("Table §5.2 — evaluation contracts");
    let rows: Vec<Vec<String>> = table52()
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.loc.to_string(),
                r.transitions.to_string(),
                r.largest_ges.to_string(),
                r.max_ges.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["contract", "LOC", "#Trans", "Larg.GES", "#Max.GES"], &rows));
    println!("paper:  FungibleToken 439/10/6/2  Crowdfunding 186/3/2/1  NonfungibleToken 288/5/3/2");
    println!("        ProofIPFS 289/10/8/2  UD Registry 500/11/6/2");
}

fn fig14(fast: bool) {
    heading("Fig. 14 — average TPS per workload (10 epochs; baseline vs CoSplit)");
    let (epochs, users, scale) = if fast { (2, 40, 8) } else { (10, 200, 1) };
    let rows_data = fig14_throughput(epochs, users, scale);
    let max_tps = rows_data
        .iter()
        .flat_map(|r| r.cosplit.iter().copied().chain(std::iter::once(r.baseline3)))
        .fold(0.0f64, f64::max);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .flat_map(|r| {
            let mk = |label: String, tps: f64| {
                vec![label, format!("{tps:7.1}"), bar(tps, max_tps, 40)]
            };
            vec![
                mk(format!("{} — baseline 3 shards", r.label), r.baseline3),
                mk(format!("{} — CoSplit 3 shards", r.label), r.cosplit[0]),
                mk(format!("{} — CoSplit 4 shards", r.label), r.cosplit[1]),
                mk(format!("{} — CoSplit 5 shards", r.label), r.cosplit[2]),
                vec![String::new(), String::new(), String::new()],
            ]
        })
        .collect();
    println!("{}", render_table(&["configuration", "TPS", ""], &rows));
    if fast {
        println!("(--fast run: scaled-down budgets; run without --fast for paper-scale numbers)");
    }
}

fn overheads() {
    heading("§5.2.2 — dispatch and state-delta merging overheads");
    let o = measure_overheads(60, 2_000);
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let rows = vec![
        vec![
            "transaction dispatch".to_string(),
            format!("{:.2} µs", us(o.dispatch_baseline)),
            format!("{:.2} µs", us(o.dispatch_cosplit)),
            format!("{:.1}×", us(o.dispatch_cosplit) / us(o.dispatch_baseline).max(1e-9)),
        ],
        vec![
            "delta merge (per component)".to_string(),
            format!("{:.2} µs", us(o.merge_baseline)),
            format!("{:.2} µs", us(o.merge_cosplit)),
            format!("{:.1}×", us(o.merge_cosplit) / us(o.merge_baseline).max(1e-9)),
        ],
    ];
    println!("{}", render_table(&["operation", "baseline", "CoSplit (wire)", "slowdown"], &rows));
    println!("paper: dispatch 8 µs → 475 µs; merge 0.8 µs → 48.65 µs per changed field —");
    println!("\"most of it a result of serialisation and deserialisation costs\".");
}

fn strategies_cmd() {
    heading("§5.2.3 — ownership vs commutativity attribution");
    let rows: Vec<Vec<String>> = strategies(60, 1_000)
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.uses_ownership.to_string(),
                r.uses_commutativity.to_string(),
                r.unconstrained.to_string(),
                r.ds.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload", "uses ownership", "uses commutativity", "unconstrained", "DS"],
            &rows
        )
    );
    println!("(paper: non-fungible state benefits from ownership, fungible state from");
    println!(" commutativity; mixed contracts benefit from both)");
}

fn ablation_cmd(fast: bool) {
    heading("Ablation — §4.2 account-model revisions and Strategy 2 (5 shards)");
    let (epochs, users, scale) = if fast { (2, 40, 8) } else { (5, 120, 2) };
    let rows: Vec<Vec<String>> = ablation(5, users, epochs, scale)
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:7.1}", r.full),
                format!("{:7.1}", r.strict_nonces),
                format!("{:7.1}", r.ownership_only),
                format!("{:7.1}", r.baseline),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload (TPS)", "full", "strict nonces", "ownership only", "baseline"],
            &rows
        )
    );
    println!("paper §5.2.1: NFT mint's linear scaling \"is only possible because of the");
    println!("changes to the account-based model that we detailed in Sec. 4.2\"; FT");
    println!("transfers additionally need the commutative IntMerge join (Strategy 2).");
}

fn trace_cmd(fast: bool) {
    use telemetry::trace;
    use workloads::scenarios::Kind;

    heading("Transaction-lifecycle tracing — coverage, DS-fallback attribution");
    let (users, txs, epochs) = if fast { (24, 120, 2) } else { (60, 600, 3) };
    // Fast mode keeps one ownership-heavy, one commutativity-heavy, and one
    // DS-heavy workload so the attribution section still has content.
    let kinds: Vec<Kind> = if fast {
        vec![Kind::FtTransfer, Kind::NftMint, Kind::IpfsRegister]
    } else {
        Kind::all().to_vec()
    };
    let e = trace_experiment(&kinds, users, txs, epochs);

    let rows: Vec<Vec<String>> = e
        .runs
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.committed.to_string(),
                r.lifecycles.len().to_string(),
                r.missing_chains.to_string(),
                r.ds.to_string(),
                r.shard.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload", "committed", "lifecycles", "missing chains", "DS final", "shard final"],
            &rows
        )
    );
    let missing: usize = e.runs.iter().map(|r| r.missing_chains).sum();
    println!("every committed transaction has a complete dispatch→commit chain: {}", missing == 0);

    println!("\nDS-fallback attribution — top contracts/transitions by DS residency:");
    if e.attribution.is_empty() {
        println!("  (none — every transaction stayed on a transaction shard)");
    }
    for a in e.attribution.iter().take(8) {
        let reasons: Vec<String> =
            a.reasons.iter().map(|(reason, n)| format!("{reason}×{n}")).collect();
        println!("  {:>5} txs  {:<18} {:<22} [{}]", a.ds_txs, a.workload, a.transition, reasons.join(", "));
    }

    println!("\n(what tracing costs: `ft_transfer_traced` vs `ft_transfer` in BENCHMARK.json)");

    let chrome_path = std::env::var("TRACE_CHROME").unwrap_or_else(|_| "TRACE_chrome.json".into());
    match std::fs::write(&chrome_path, trace::chrome_trace_json(&e.records)) {
        Ok(()) => println!("chrome trace ({} records) written to {chrome_path} — load in ui.perfetto.dev", e.records.len()),
        Err(err) => eprintln!("failed to write {chrome_path}: {err}"),
    }
    // Transaction ids are per-scenario, so the lifecycle export nests one
    // array per workload instead of concatenating colliding ids.
    let mut lj = String::from("{\"workloads\":{");
    for (i, r) in e.runs.iter().enumerate() {
        if i > 0 {
            lj.push(',');
        }
        lj.push_str(&format!("\n\"{}\":", r.label));
        lj.push_str(trace::lifecycle_json(&r.lifecycles).trim_end());
    }
    lj.push_str("\n}}\n");
    let lifecycle_path =
        std::env::var("TRACE_LIFECYCLE").unwrap_or_else(|_| "TRACE_lifecycle.json".into());
    match std::fs::write(&lifecycle_path, lj) {
        Ok(()) => println!("lifecycle export written to {lifecycle_path}"),
        Err(err) => eprintln!("failed to write {lifecycle_path}: {err}"),
    }
}

fn xshard_cmd(fast: bool) {
    heading("Cross-shard 2PC — dispatch routing and atomic-commit stage (4 shards)");
    let (users, txs, epochs) = if fast { (40, 500, 3) } else { (120, 2_000, 6) };
    let rows_data = xshard_rows(users, txs, epochs);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.committed.to_string(),
                format!("{}‰", r.to_ds_permille),
                format!("{}‰", r.to_xshard_permille),
                r.xs_committed.to_string(),
                r.xs_aborted.to_string(),
                r.xs_ds_fallback.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload", "committed", "to DS", "to xshard", "2PC commits", "aborts", "DS fallback"],
            &rows
        )
    );
    let worst = rows_data.iter().map(|r| r.to_ds_permille).max().unwrap_or(0);
    println!("worst-case DS share: {worst}‰ (acceptance budget: <100‰ per workload)");
    println!("(multi-shard ownership footprints prepare under per-component locks and commit");
    println!(" atomically — only votes cross shard boundaries; ⊤-summaries still go to DS)");
}

fn callgraph_cmd(fast: bool) {
    heading("Interprocedural call graph — resolved edges and composed dispatch (4 shards)");
    let sample: Vec<_> = scilla::corpus::mainnet_sample().collect();
    let graph = corpus_call_graph(&sample);
    let resolved = graph.edges.iter().filter(|e| e.is_resolved()).count();
    println!(
        "mainnet sample: {} contracts, {} send edges, {} statically resolved ({:.0}%)",
        graph.contracts.len(),
        graph.edges.len(),
        resolved,
        graph.resolved_fraction() * 100.0
    );

    let (users, txs, epochs) = if fast { (40, 500, 3) } else { (120, 2_000, 6) };
    let rows_data = callgraph_rows(users, txs, epochs);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.committed.to_string(),
                format!("{}‰", r.to_ds_off_permille),
                format!("{}‰", r.to_ds_on_permille),
                format!("{}‰", r.composed_permille),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload", "committed", "to DS (compose off)", "to DS (compose on)", "composed-local"],
            &rows
        )
    );
    println!("(a statically-resolved cross-contract chain composes its members' footprints and");
    println!(" dispatches shard-local; unresolvable recipients are ⊤ and still serialise at DS)");
}

fn precision_cmd(fast: bool) {
    heading("Precision frontier — localized ⊤, blame census, and dispatch impact (4 shards)");
    let census = precision_census();
    let rows = vec![
        vec!["contracts analysed".to_string(), census.contracts.to_string(), String::new()],
        vec![
            "global-⊤ transitions".to_string(),
            census.top_legacy.to_string(),
            census.top_refined.to_string(),
        ],
        vec![
            "localized ⊤[field] transitions".to_string(),
            "—".to_string(),
            census.top_field_refined.to_string(),
        ],
        vec!["blame causes".to_string(), "—".to_string(), census.blames.to_string()],
    ];
    println!("{}", render_table(&["corpus measure", "legacy", "refined"], &rows));

    let (users, txs, epochs) = if fast { (20, 200, 2) } else { (60, 1_000, 4) };
    let rows_data = precision_rows(users, txs, epochs);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.committed.to_string(),
                format!("{}‰", r.to_ds_legacy_permille),
                format!("{}‰", r.to_ds_refined_permille),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload", "committed", "to DS (legacy)", "to DS (refined)"],
            &rows
        )
    );
    println!("(the airdrop's `ClaimAirdrop` keys state by `sha256hash proof` — global ⊤ under");
    println!(" the legacy accumulator, a derived pseudo-field under the flow-sensitive");
    println!(" analysis. `cosplit-cli blame <contract>` explains every surviving ⊤[field])");
}

fn overflow() {
    use chain::address::Address;
    use chain::network::{ChainConfig, Network};
    use chain::tx::Transaction;
    use cosplit_analysis::signature::WeakReads;
    use scilla::value::Value;

    heading("§6 — IntMerge overflow guard");
    let src = r#"
        contract Counter ()
        field total : Uint128 = Uint128 0
        transition Add (v : Uint128)
          t <- total;
          t2 = builtin add t v;
          total := t2
        end
    "#;
    let mut config = ChainConfig::evaluation(4, true);
    config.overflow_guard = true;
    let mut net = Network::new(config);
    let c = Address::from_index(500);
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000_000);
    net.deploy(c, src, vec![], Some((&["Add"], WeakReads::AcceptAll))).unwrap();

    // Push the counter near MAX, then fire concurrent adds that are
    // individually safe but collectively overflowing without the guard.
    let near_max = u128::MAX - 1_000;
    let mut pool = vec![Transaction::call(
        1,
        user,
        1,
        c,
        "Add",
        vec![("v".into(), Value::Uint(128, near_max))],
    )];
    net.run_epoch(&mut pool);
    let mut pool: Vec<Transaction> = (0..8)
        .map(|i| {
            Transaction::call(10 + i, user, 2 + i, c, "Add", vec![(
                "v".into(),
                Value::Uint(128, 400),
            )])
        })
        .collect();
    let report = net.run_epoch(&mut pool);
    println!("adds near MAX with the guard on: committed={}, rerouted to DS and decided sequentially there", report.committed);
    println!("final counter state remains within range; without the guard the shard deltas");
    println!("would individually fit but their sum would overflow at merge time.");
}
