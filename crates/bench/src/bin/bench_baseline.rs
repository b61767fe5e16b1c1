//! Deterministic baseline: measure, record, and gate.
//!
//! `write` measures the dispatch fractions and saves `BENCH_baseline.json`
//! (the file `scripts/bench_baseline.sh` commits); `check` re-measures and
//! fails if a dispatch fraction moved more than ±10‰. The rows are exact
//! and host-independent; wall-clock regressions are `BENCHMARK.json`'s job.
//!
//! Usage: `bench_baseline [write|check] [path]` (default: `check
//! BENCH_baseline.json`).

use cosplit_bench::experiments::{check_baseline, measure_baseline, BaselineMeasurement};

const DEFAULT_PATH: &str = "BENCH_baseline.json";

fn print_measurement(tag: &str, m: &BaselineMeasurement) {
    let reasons: Vec<String> =
        m.reason_permille.iter().map(|(reason, v)| format!("{reason} {v}‰")).collect();
    println!("  {tag}: DS share {}‰; dispatch fractions: {}", m.to_ds_permille, reasons.join(", "));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("check");
    let path = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);

    match mode {
        "write" => {
            let m = measure_baseline();
            print_measurement("measured", &m);
            std::fs::write(path, m.to_snapshot().to_json()).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            println!("bench-baseline: written to {path}");
        }
        "check" => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e} (run `bench_baseline write` first)");
                std::process::exit(1);
            });
            let snap = telemetry::Snapshot::from_json(&text).unwrap_or_else(|e| {
                eprintln!("failed to parse {path}: {e}");
                std::process::exit(1);
            });
            let committed = BaselineMeasurement::from_snapshot(&snap).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            let current = measure_baseline();
            print_measurement("baseline", &committed);
            print_measurement("current ", &current);
            let failures = check_baseline(&current, &committed);
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("FAIL: {f}");
                }
                eprintln!("bench-baseline: {} dispatch fraction(s) drifted", failures.len());
                std::process::exit(1);
            }
            println!("bench-baseline: dispatch fractions match the baseline");
        }
        other => {
            eprintln!("unknown mode '{other}'; expected: write | check");
            std::process::exit(2);
        }
    }
}
