//! Lifecycle-tracing smoke test for CI (`scripts/check.sh`).
//!
//! Runs a traced FungibleToken + ProofIPFS epoch batch and asserts the
//! tracing subsystem's end-to-end contract:
//!
//! - the Chrome `trace_event` export and the lifecycle export are
//!   syntactically valid JSON (validated offline, no external tools);
//! - the recorded span forest is well-formed — every parent exists, no
//!   cycles, child intervals nest inside their parents;
//! - lifecycle coverage is total: every committed transaction has a
//!   complete dispatch→commit chain with a reason attribution;
//! - tracing overhead stays under the 1.5× ceiling, and the
//!   `trace.overhead_x1000` gauge lands in the metrics snapshot.
//!
//! Usage: `trace_smoke`.

use cosplit_bench::experiments::trace_experiment;
use telemetry::trace;
use workloads::scenarios::Kind;

fn main() {
    let e = trace_experiment(&[Kind::FtTransfer, Kind::IpfsRegister], 24, 120, 2, 3);
    let mut failures = 0u32;

    for r in &e.runs {
        println!(
            "  {:<20} committed {:>4}, lifecycles {:>4}, missing chains {}, ds {}, shard {}",
            r.label,
            r.committed,
            r.lifecycles.len(),
            r.missing_chains,
            r.ds,
            r.shard
        );
        if r.committed == 0 {
            eprintln!("FAIL {}: nothing committed", r.label);
            failures += 1;
        }
        if r.missing_chains != 0 {
            eprintln!(
                "FAIL {}: {} committed tx(s) without a complete dispatch->commit chain",
                r.label, r.missing_chains
            );
            failures += 1;
        }
        if r.lifecycles.iter().any(|lc| lc.committed() && lc.dispatch_reason().is_none()) {
            eprintln!("FAIL {}: committed lifecycle without a dispatch reason", r.label);
            failures += 1;
        }
    }

    if let Err(err) = trace::validate_span_tree(&e.records) {
        eprintln!("FAIL: span forest malformed: {err}");
        failures += 1;
    }
    let chrome = trace::chrome_trace_json(&e.records);
    if let Err(err) = trace::validate_json(&chrome) {
        eprintln!("FAIL: chrome trace export is not valid JSON: {err}");
        failures += 1;
    }
    for r in &e.runs {
        if let Err(err) = trace::validate_json(&trace::lifecycle_json(&r.lifecycles)) {
            eprintln!("FAIL {}: lifecycle export is not valid JSON: {err}", r.label);
            failures += 1;
        }
    }
    if e.records.is_empty() {
        eprintln!("FAIL: traced run produced no records");
        failures += 1;
    }

    println!("  tracing overhead {:.2}x (ceiling 1.50x), {} records", e.overhead, e.records.len());
    if e.overhead >= 1.5 {
        eprintln!("FAIL: tracing overhead {:.2}x breaches the 1.5x ceiling", e.overhead);
        failures += 1;
    }
    let snap = telemetry::registry().snapshot();
    match snap.gauges.get("trace.overhead_x1000") {
        None => {
            eprintln!("FAIL: trace.overhead_x1000 gauge missing from the metrics snapshot");
            failures += 1;
        }
        Some(&v) if v >= 1_500 => {
            eprintln!("FAIL: trace.overhead_x1000 = {v} breaches the 1500 ceiling");
            failures += 1;
        }
        Some(_) => {}
    }

    if failures > 0 {
        eprintln!("trace-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("trace-smoke: exports valid, span forest well-formed, lifecycle coverage 100%");
}
