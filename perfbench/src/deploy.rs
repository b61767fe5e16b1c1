//! The `deploy_corpus` workload: the miner's validation pipeline of Fig. 12
//! over every corpus contract, round after round. `chain` does no work
//! here, so this is the bypass workload for every executor change.

use crate::metrics::Records;
use crate::spans::Tracer;
use crate::{median, quantile, vm_kb, RunArgs, RunOutput};
use cosplit_analysis::signature::{ShardingSignature, WeakReads};
use cosplit_analysis::solver::AnalyzedContract;
use scilla::corpus::{self, CorpusEntry};
use scilla::interpreter::CompiledContract;
use std::time::{Duration, Instant};

const STAGES: [&str; 5] = ["parse", "typecheck", "analysis", "signature", "compile"];

/// parse → typecheck → analyze → query + validate → compile for one
/// contract, under a span named after it. `None` = deployment rejected.
fn validate_one(e: &CorpusEntry, tr: &mut Tracer, round: u64) -> Option<ShardingSignature> {
    tr.begin(e.name, round);
    let signature = (|| {
        let module = tr
            .span("parse", round, || scilla::parser::parse_module(e.source))
            .ok()?;
        let checked = tr
            .span("typecheck", round, || {
                scilla::typechecker::typecheck(module)
            })
            .ok()?;
        let analyzed = tr.span("analysis", round, || AnalyzedContract::analyze(&checked));
        let signature = tr.span("signature", round, || {
            let submitted = analyzed.query(&analyzed.transition_names(), &WeakReads::AcceptAll);
            analyzed.validate(&submitted).then_some(submitted)
        })?;
        let compiled = tr
            .span("compile", round, || CompiledContract::compile(checked))
            .ok()?;
        std::hint::black_box(compiled);
        Some(signature)
    })();
    tr.end();
    signature
}

/// One round over the whole corpus; returns its wall time and signatures.
fn round(tr: &mut Tracer, id: u64) -> (f64, Vec<Option<ShardingSignature>>) {
    let t0 = Instant::now();
    tr.begin("round", id);
    let signatures = corpus::all()
        .iter()
        .map(|e| validate_one(e, tr, id))
        .collect();
    tr.end();
    (t0.elapsed().as_nanos() as f64, signatures)
}

struct Pass {
    walls_ns: Vec<f64>,
    /// Accepted contracts per second of each round's own wall time.
    rates: Vec<f64>,
    attempted: usize,
    rejected: usize,
    /// Signature wire bytes of one round.
    wire_bytes: usize,
}

/// Runs up to `rounds` rounds. Correct means: every contract is accepted,
/// every round derives the same signatures as the first, and those survive
/// a round trip through their wire form.
fn run_pass(rounds: usize, cap: Duration, tr: &mut Tracer, perturb: bool) -> Result<Pass, String> {
    let started = Instant::now();
    let (_, mut reference) = round(&mut Tracer::new(false), 0);
    let mut wire_bytes = 0;
    for (e, s) in corpus::all().iter().zip(&reference) {
        let s = s
            .as_ref()
            .ok_or(format!("{}: deployment rejected", e.name))?;
        let wire = s.to_json();
        wire_bytes += wire.len();
        if ShardingSignature::from_json(&wire).ok().as_ref() != Some(s) {
            return Err(format!(
                "{}: signature does not survive its wire form",
                e.name
            ));
        }
    }
    if perturb {
        reference[0] = None;
    }
    let mut pass = Pass {
        walls_ns: Vec::with_capacity(rounds),
        rates: Vec::with_capacity(rounds),
        attempted: 0,
        rejected: 0,
        wire_bytes,
    };
    for id in 1..=rounds as u64 {
        if started.elapsed() > cap {
            break;
        }
        let (wall, signatures) = round(tr, id);
        let accepted = signatures.iter().flatten().count();
        pass.walls_ns.push(wall);
        pass.rates.push(accepted as f64 / (wall / 1e9));
        pass.attempted += signatures.len();
        pass.rejected += signatures.len() - accepted;
        if signatures != reference {
            return Err(format!(
                "round {id}: signatures differ from the first round's"
            ));
        }
    }
    Ok(pass)
}

pub fn run_timed(rounds: usize, args: &RunArgs) -> Result<RunOutput, String> {
    telemetry::trace::set_tracing(false);
    let mut off = Tracer::new(false);
    let setups: Vec<f64> = (0..crate::SETUP_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(corpus::all());
            round(&mut off, 0);
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let cap = Duration::from_secs_f64(crate::CAP_FACTOR * args.seconds);
    let pass = run_pass(rounds, cap, &mut off, args.perturb_model)?;

    let mut rec = Records::new(crate::metrics::END_TO_END);
    rec.set("committed_per_s", quantile(&pass.rates, 0.9));
    rec.set("epoch_ms_p10", quantile(&pass.walls_ns, 0.1) / 1e6);
    rec.set("peak_rss_mb", vm_kb("VmHWM") / 1024.0);
    rec.set("setup_s", median(&setups[crate::SETUP_WARMUPS..]));
    Ok(RunOutput {
        attempted: pass.attempted,
        failed: pass.rejected,
        metrics: rec.finish(),
        info: crate::run_facts(rounds, &pass.walls_ns),
    })
}

pub fn run_traced(rounds: usize, args: &RunArgs, tr: &mut Tracer) -> Result<RunOutput, String> {
    telemetry::trace::set_tracing(false);
    let cap = Duration::from_secs_f64(crate::CAP_FACTOR * args.seconds);
    let plain = run_pass(rounds, cap, &mut Tracer::new(false), false)?;
    let pass = run_pass(rounds, cap, tr, args.perturb_model)?;

    let mut rec = Records::new(crate::metrics::PER_LAYER);
    let contracts = pass.attempted as f64;
    let stage_ns: Vec<f64> = STAGES.iter().map(|s| tr.total_ns(s) as f64).collect();
    for (stage, ns) in STAGES.iter().zip(&stage_ns) {
        rec.set_per(
            &format!("deploy.{stage}_us_per_contract"),
            ns / 1e3,
            contracts,
        );
    }
    rec.set_ratio_x1000(
        "deploy.analysis_share_permille",
        stage_ns[2],
        stage_ns.iter().sum(),
    );
    let source_bytes: usize = corpus::all().iter().map(|e| e.source.len()).sum();
    rec.set_per(
        "deploy.parse_mb_per_s",
        (source_bytes * pass.walls_ns.len()) as f64 / 1e6,
        stage_ns[0] / 1e9,
    );
    let slowest = corpus::all()
        .iter()
        .map(|e| tr.total_ns(e.name) as f64 / 1e3 / pass.walls_ns.len().max(1) as f64)
        .fold(0.0, f64::max);
    rec.set("deploy.slowest_contract_us", slowest);
    rec.set("deploy.signature_wire_bytes", pass.wire_bytes as f64);
    rec.set_ratio_x1000(
        "bench.span_overhead_x1000",
        median(&pass.walls_ns),
        median(&plain.walls_ns),
    );

    Ok(RunOutput {
        attempted: pass.attempted,
        failed: pass.rejected,
        metrics: rec.finish(),
        info: crate::run_facts(rounds, &pass.walls_ns),
    })
}
