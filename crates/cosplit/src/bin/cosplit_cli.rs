//! The CoSplit command-line tool (paper Fig. 11, offline mode).
//!
//! A contract developer runs the analyser over a Scilla source file, asks
//! the sharding query solver about a selection of transitions, and receives
//! the sharding signature to submit with the deployment transaction.
//!
//! ```text
//! cosplit <file.scilla | corpus:Name> [--transitions T1,T2,…]
//!         [--weak-reads f1,f2,… | --accept-stale]
//!         [--summaries] [--json] [--repair] [--ge] [--metrics <path>]
//! cosplit lint <file.scilla | corpus:Name>     # a.k.a. `cosplit audit …`
//! cosplit blame <file.scilla | corpus:Name> [--json]
//! cosplit callgraph <src>[,<src>,…] | corpus [--json | --dot]
//! cosplit trace <file.scilla | corpus:Name> [--out <path>]
//! ```
//!
//! `cosplit lint` (alias `cosplit audit`) runs the contract lint pass over
//! the analysed summaries and prints span-bearing findings: state that is
//! written but never read back, transitions whose summary collapsed to ⊤
//! (with the offending statement named), pseudofields no transition can
//! reach, and `accept`s whose funds never influence state or outgoing
//! messages. Findings are advisory — the exit code stays 0 — but each one
//! increments the `cosplit.lint.findings` telemetry counter so CI can gate
//! on the metrics snapshot.
//!
//! `cosplit blame` answers "why is my contract unsharded?": it prints every
//! precision loss the flow-sensitive analysis recorded — the exact source
//! span where a summary degraded to `⊤[field]` or `⊤`, the taxonomy kind
//! (`computed-key`, `partial-access`, `top-scrutinee`, …), and the touched
//! pseudo-field — grouped per transition, with a per-kind tally at the end.
//! A clean contract prints `no precision losses`. With `--json` it prints a
//! JSON array of the causes' wire forms instead (same schema the lint pass
//! and the corpus sweep consume).
//!
//! `cosplit callgraph` prints the static cross-contract send graph over a
//! contract set: one line per send site with its resolved candidates, or
//! its JSON (`--json`) or Graphviz DOT (`--dot`) form.
//!
//! `cosplit trace` runs the same offline pipeline (parse → typecheck →
//! analyse → query) with structured tracing on and writes the span tree as
//! Chrome `trace_event` JSON — load it in `chrome://tracing` or
//! <https://ui.perfetto.dev>. `--out <path>` overrides the default
//! `TRACE_cosplit.json`; a per-span timing summary is printed to stdout.
//! (Full transaction-lifecycle traces come from the chain side:
//! `paper trace` in `cosplit-bench`.)
//!
//! `--metrics <path>` (or the `COSPLIT_METRICS` environment variable) writes
//! the telemetry snapshot of the run as JSON on exit.

use cosplit_analysis::audit::lint_contract;
use cosplit_analysis::ge::ge_stats;
use cosplit_analysis::repair::repair_contract;
use cosplit_analysis::signature::WeakReads;
use cosplit_analysis::solver::AnalyzedContract;
use std::collections::BTreeSet;
use std::process::ExitCode;

struct Args {
    source_arg: String,
    transitions: Option<Vec<String>>,
    weak_reads: WeakReads,
    summaries: bool,
    json: bool,
    repair: bool,
    ge: bool,
    lint: bool,
    blame: bool,
    callgraph: bool,
    dot: bool,
    trace: bool,
    trace_out: String,
    metrics: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cosplit <file.scilla | corpus:Name> [--transitions T1,T2,...]\n\
         \x20             [--weak-reads f1,f2,... | --accept-stale]\n\
         \x20             [--summaries] [--json] [--repair] [--ge]\n\
         \x20      cosplit lint <file.scilla | corpus:Name>   (alias: audit)\n\
         \x20      cosplit blame <file.scilla | corpus:Name> [--json]\n\
         \x20      cosplit callgraph <src>[,<src>,...] | corpus [--json | --dot]\n\
         \x20      cosplit trace <file.scilla | corpus:Name> [--out <path>]\n\
         \n\
         \x20 --transitions   transitions to shard (default: all)\n\
         \x20 --weak-reads    fields whose reads may be stale (paper §4.2.3)\n\
         \x20 --accept-stale  accept every weak read the algorithm requires\n\
         \x20 --summaries     print per-transition effect summaries (Fig. 8)\n\
         \x20 --json          print the signature's JSON wire form\n\
         \x20 --repair        attempt the §6 compare-and-swap repair first\n\
         \x20 --ge            print good-enough signature statistics (Fig. 13)\n\
         \x20 --lint          run the contract lint pass (same as `lint` mode)\n\
         \x20 --dot           print the call graph as Graphviz DOT (callgraph mode)\n\
         \x20 --out           Chrome trace output path for `trace` mode\n\
         \x20                 (default TRACE_cosplit.json)\n\
         \x20 --metrics       write the run's telemetry snapshot (JSON) to a file\n\
         \x20                 (also COSPLIT_METRICS=<path>)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        source_arg: String::new(),
        transitions: None,
        weak_reads: WeakReads::Fields(BTreeSet::new()),
        summaries: false,
        json: false,
        repair: false,
        ge: false,
        lint: false,
        blame: false,
        callgraph: false,
        dot: false,
        trace: false,
        trace_out: "TRACE_cosplit.json".to_string(),
        metrics: std::env::var("COSPLIT_METRICS").ok(),
    };
    let mut it = std::env::args().skip(1);
    let mut first_positional = true;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--transitions" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.transitions = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--weak-reads" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.weak_reads =
                    WeakReads::Fields(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--accept-stale" => args.weak_reads = WeakReads::AcceptAll,
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage())),
            "--out" => args.trace_out = it.next().unwrap_or_else(|| usage()),
            "--summaries" => args.summaries = true,
            "--json" => args.json = true,
            "--repair" => args.repair = true,
            "--ge" => args.ge = true,
            "--lint" => args.lint = true,
            "--help" | "-h" => usage(),
            // A leading mode word (`lint`/`audit`, `blame`, `callgraph`,
            // `trace`) selects the mode; the next positional argument is then
            // the contract source.
            "lint" | "audit" if first_positional => {
                args.lint = true;
                first_positional = false;
            }
            "blame" if first_positional => {
                args.blame = true;
                first_positional = false;
            }
            "callgraph" if first_positional => {
                args.callgraph = true;
                first_positional = false;
            }
            "--dot" => args.dot = true,
            "trace" if first_positional => {
                args.trace = true;
                first_positional = false;
            }
            other if args.source_arg.is_empty() && !other.starts_with('-') => {
                args.source_arg = other.to_string();
                first_positional = false;
            }
            _ => usage(),
        }
    }
    if args.source_arg.is_empty() {
        usage();
    }
    args
}

fn load_source(arg: &str) -> Result<String, String> {
    if let Some(name) = arg.strip_prefix("corpus:") {
        return scilla::corpus::get(name)
            .map(|e| e.source.to_string())
            .ok_or_else(|| format!("unknown corpus contract '{name}'"));
    }
    std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))
}

fn main() -> ExitCode {
    let args = parse_args();
    let metrics = args.metrics.clone();
    let trace_out = args.trace.then(|| args.trace_out.clone());
    if args.trace {
        telemetry::trace::set_tracing(true);
        telemetry::trace::recorder().clear();
    }
    let code = run(args);
    if let Some(path) = trace_out {
        telemetry::trace::set_tracing(false);
        let records = telemetry::trace::recorder().drain();
        let mut by_name: std::collections::BTreeMap<&str, (usize, u64)> =
            std::collections::BTreeMap::new();
        for r in &records {
            let e = by_name.entry(r.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.dur_micros;
        }
        for (name, (count, total)) in &by_name {
            println!("  {name:<40} ×{count:<3} {total:>7} µs");
        }
        if let Err(e) = std::fs::write(&path, telemetry::trace::chrome_trace_json(&records)) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("chrome trace ({} spans) written to {path} — load in ui.perfetto.dev", records.len());
    }
    if let Some(path) = metrics {
        let json = telemetry::registry().snapshot().to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

/// `cosplit callgraph` — builds the static cross-contract send graph over
/// a comma-separated contract set (or the whole corpus) and prints it as a
/// site table, JSON wire form (`--json`), or Graphviz DOT (`--dot`).
fn run_callgraph(args: &Args) -> ExitCode {
    use cosplit_analysis::callgraph::{CallGraph, ContractCalls, GraphContract};

    let sources: Vec<(String, String)> = if args.source_arg == "corpus" {
        scilla::corpus::all()
            .iter()
            .map(|e| (e.name.to_string(), e.source.to_string()))
            .collect()
    } else {
        let mut out = Vec::new();
        for part in args.source_arg.split(',') {
            match load_source(part.trim()) {
                Ok(s) => out.push((part.trim().to_string(), s)),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        out
    };

    let mut inputs = Vec::new();
    for (label, source) in &sources {
        let module = match scilla::parser::parse_module(source) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {label}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let checked = match scilla::typechecker::typecheck(module) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {label}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let analyzed = AnalyzedContract::analyze(&checked);
        inputs.push(GraphContract {
            name: analyzed.name.clone(),
            transitions: analyzed.summaries.iter().map(|s| s.name.clone()).collect(),
            calls: ContractCalls::extract(&checked, &analyzed.summaries),
        });
    }
    let graph = CallGraph::build(&inputs);

    if args.json {
        println!("{}", graph.to_json());
        return ExitCode::SUCCESS;
    }
    if args.dot {
        print!("{}", graph.to_dot());
        return ExitCode::SUCCESS;
    }
    for e in &graph.edges {
        let tag = e.tag.as_deref().unwrap_or("⊤");
        let status = if e.is_resolved() { "resolved" } else { "⊤" };
        let candidates = if e.candidates.is_empty() {
            "(no candidate in set)".to_string()
        } else {
            e.candidates.join(", ")
        };
        println!(
            "  {}.{} —[{}]→ {}  recipient: {:?}  [{}]",
            e.from_contract, e.from_transition, tag, candidates, e.recipient, status
        );
    }
    let resolved = graph.edges.iter().filter(|e| e.is_resolved()).count();
    println!(
        "{} contracts, {} send edges, {} resolved ({:.0}%)",
        graph.contracts.len(),
        graph.edges.len(),
        resolved,
        graph.resolved_fraction() * 100.0
    );
    ExitCode::SUCCESS
}

fn run(args: Args) -> ExitCode {
    if args.callgraph {
        return run_callgraph(&args);
    }
    let source = match load_source(&args.source_arg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut _pipeline_span = telemetry::span!("cosplit.cli.pipeline");
    _pipeline_span.attr("source", &args.source_arg);

    // The miner-side pipeline: parse → typecheck.
    let module = {
        let mut _span = telemetry::span!("scilla.parse_duration");
        _span.attr("bytes", source.len());
        match scilla::parser::parse_module(&source) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut checked = {
        let _span = telemetry::span!("scilla.typecheck_duration");
        match scilla::typechecker::typecheck(module) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    if args.repair {
        match repair_contract(&checked) {
            Ok(outcome) => {
                for r in &outcome.reports {
                    for p in &r.added_params {
                        eprintln!(
                            "repaired {}: added parameter '{}' : {} (compare-and-swap for '{}')",
                            r.transition, p.param, p.ty, p.replaces_binder
                        );
                    }
                }
                if outcome.reports.is_empty() {
                    eprintln!("repair: nothing to do");
                }
                checked = outcome.checked;
            }
            Err(e) => {
                eprintln!("error: repair produced an ill-typed contract: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let analyzed = AnalyzedContract::analyze(&checked);

    if args.lint {
        let findings = lint_contract(&checked, &analyzed);
        let counter = telemetry::registry().counter(telemetry::names::LINT_FINDINGS);
        for f in &findings {
            counter.inc();
            println!("{f}");
        }
        if findings.is_empty() {
            println!("{}: lint clean ({} transitions)", analyzed.name, analyzed.summaries.len());
        } else {
            println!(
                "{}: {} lint finding{}",
                analyzed.name,
                findings.len(),
                if findings.len() == 1 { "" } else { "s" }
            );
        }
        return ExitCode::SUCCESS;
    }

    if args.blame {
        if args.json {
            let causes: Vec<String> = analyzed.blames.iter().map(|b| b.to_json()).collect();
            println!("[{}]", causes.join(","));
            return ExitCode::SUCCESS;
        }
        if analyzed.blames.is_empty() {
            println!(
                "{}: no precision losses ({} transitions fully summarised)",
                analyzed.name,
                analyzed.summaries.len()
            );
            return ExitCode::SUCCESS;
        }
        let mut by_kind: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for s in &analyzed.summaries {
            let causes: Vec<_> =
                analyzed.blames.iter().filter(|b| b.transition == s.name).collect();
            if causes.is_empty() {
                continue;
            }
            let verdict = if s.has_top() {
                "summary is ⊤".to_string()
            } else {
                let tops: Vec<String> = s.top_fields().map(|pf| pf.field.clone()).collect();
                if tops.is_empty() {
                    "summary precise (losses recovered)".to_string()
                } else {
                    format!("⊤ on field(s) {}", tops.join(", "))
                }
            };
            println!("transition {} — {verdict}:", s.name);
            for b in causes {
                *by_kind.entry(b.kind.as_str()).or_default() += 1;
                let field = match &b.field {
                    Some(pf) => format!(" on {pf}"),
                    None => String::new(),
                };
                println!("  [{}] at {}{}: {}", b.kind, b.span, field, b.detail);
            }
        }
        println!(
            "{}: {} precision loss{}",
            analyzed.name,
            analyzed.blames.len(),
            if analyzed.blames.len() == 1 { "" } else { "es" }
        );
        for (kind, n) in &by_kind {
            println!("  {kind}: {n}");
        }
        return ExitCode::SUCCESS;
    }

    if args.summaries {
        for s in &analyzed.summaries {
            println!("{s}");
        }
    }

    if args.ge {
        let stats = ge_stats(&analyzed);
        println!("transitions:           {}", stats.transitions);
        println!("largest GE signature:  {} {:?}", stats.largest, stats.largest_selection);
        println!("maximal GE signatures: {}", stats.maximal_count);
        println!("GE selections total:   {}", stats.ge_count);
        return ExitCode::SUCCESS;
    }

    let selection = args.transitions.unwrap_or_else(|| analyzed.transition_names());
    let signature = analyzed.query(&selection, &args.weak_reads);

    if args.json {
        println!("{}", signature.to_json());
        return ExitCode::SUCCESS;
    }

    println!("contract {}:", analyzed.name);
    for t in &signature.transitions {
        println!("  transition {}:", t.name);
        if t.constraints.is_empty() {
            println!("    (no constraints)");
        }
        for c in &t.constraints {
            println!("    {c}");
        }
    }
    println!("  joins:");
    for (f, j) in &signature.joins {
        println!("    {f} ⊎ {j:?}");
    }
    if !signature.weak_reads.is_empty() {
        println!("  weak reads required: {:?}", signature.weak_reads);
    }
    ExitCode::SUCCESS
}
