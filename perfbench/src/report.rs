//! Whole-ledger commands: `all` (every workload, both passes, each in a
//! fresh child process), `compare` (two result sets against the bounds in
//! `BENCHMARK.json`) and `selfcheck` (metric-name drift).

use crate::metrics::{Decl, END_TO_END, PER_LAYER};
use crate::{RunArgs, WORKLOADS};
use serde_json::{json, Map, Value};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// What one child run printed: `workload metric value unit` records and
/// the final JSON object.
struct ChildRun {
    records: Vec<(String, f64, String)>,
    last: Value,
    wall_s: f64,
}

fn run_child(workload: &str, args: &RunArgs, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.arg("--out").arg(&args.out);
    if let Some(epochs) = args.epochs {
        cmd.args(["--epochs", &epochs.to_string()]);
    }
    let t0 = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{workload} --trace {}: {}\n{}",
            trace as u8,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or(format!("{workload}: no output"))?;
    let last = serde_json::from_str(last).map_err(|e| format!("{workload}: last line: {e}"))?;
    let mut records = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [w, name, value, unit] if w == workload => {
                let value = value
                    .parse()
                    .map_err(|_| format!("{workload}: bad line '{line}'"))?;
                records.push((name.to_string(), value, unit.to_string()));
            }
            _ => {
                return Err(format!(
                    "{workload}: line is not 'workload metric value unit': {line}"
                ))
            }
        }
    }
    Ok(ChildRun {
        records,
        last,
        wall_s,
    })
}

fn commit() -> String {
    let out = Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// The `run.*` facts and the metrics of one child run, as JSON.
fn pass_json(run: &ChildRun, metrics: &mut Map) -> Value {
    let mut facts = Map::new();
    facts.insert("run_wall_s".to_string(), json!(run.wall_s));
    for (name, value, unit) in &run.records {
        match name.strip_prefix("run.") {
            Some(fact) => facts.insert(fact.to_string(), json!(*value)),
            None => metrics.insert(name.clone(), json!({"value": *value, "unit": unit})),
        };
    }
    Value::Object(facts)
}

/// Runs every workload, timed pass then traced pass, each in a fresh child
/// process; prints the table and writes the result set.
pub fn run_all(args: &RunArgs) -> Result<(), String> {
    let t0 = Instant::now();
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let timed = run_child(w.name, args, false)?;
        let traced = run_child(w.name, args, true)?;
        let mut metrics = Map::new();
        let timed_facts = pass_json(&timed, &mut metrics);
        let traced_facts = pass_json(&traced, &mut metrics);
        for run in [&timed, &traced] {
            for (name, value, unit) in run.records.iter().filter(|r| !r.0.starts_with("run.")) {
                println!("{} {name} {value} {unit}", w.name);
            }
        }
        workloads.push(json!({
            "name": w.name,
            "attempted": timed.last["attempted"].clone(),
            "failed": timed.last["failed"].clone(),
            "timed": timed_facts,
            "traced": traced_facts,
            "metrics": Value::Object(metrics),
        }));
    }
    // What `telemetry::trace` costs, sustained: the two workloads differ in
    // nothing else. Toggling tracing inside one process under-reports it
    // (the recorder's working set slows the untraced epochs too).
    let rate = |name: &str| {
        workloads
            .iter()
            .find(|w| w["name"].as_str() == Some(name))
            .and_then(|w| w["metrics"]["committed_per_s"]["value"].as_f64())
    };
    let trace_overhead = match (rate("ft_transfer"), rate("ft_transfer_traced")) {
        (Some(plain), Some(traced)) => 1000.0 * plain / traced,
        _ => return Err("ft_transfer / ft_transfer_traced missing from the set".to_string()),
    };
    println!("derived telemetry.trace_overhead_x1000 {trace_overhead} x1000");
    let set = json!({
        "benchmark": "perfbench",
        "claim": Value::Null,
        "derived": json!({"telemetry.trace_overhead_x1000": trace_overhead}),
        "commit": commit(),
        "host_cores": std::thread::available_parallelism().map_or(1, usize::from),
        "num_shards": crate::epochs::NUM_SHARDS,
        "seed": args.seed,
        "seconds": args.seconds,
        "total_s": t0.elapsed().as_secs_f64(),
        "workloads": workloads,
    });
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("results.json");
    std::fs::write(&path, format!("{set}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wrote {} ({:.0} s)",
        path.display(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads_of(set: &Value) -> &[Value] {
    set["workloads"].as_array().map_or(&[], Vec::as_slice)
}

/// Lists, per workload and end-to-end metric, both values, the ratio with
/// its base, and pass/fail against the bound in `BENCHMARK.json`; then the
/// exact per-layer counts that differ. Refuses unlike sets.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = load(Path::new("BENCHMARK.json"))?;
    for key in ["host_cores", "num_shards", "seed", "seconds"] {
        if a[key] != b[key] {
            return Err(format!(
                "refusing to compare: {key} differs ({} vs {})",
                a[key], b[key]
            ));
        }
    }
    let shape = |set: &Value| -> Vec<String> {
        workloads_of(set)
            .iter()
            .map(|w| {
                format!(
                    "{} {} {}",
                    w["name"], w["timed"]["epochs"], w["traced"]["epochs"]
                )
            })
            .collect()
    };
    if shape(&a) != shape(&b) {
        return Err("refusing to compare: workload lists or epoch counts differ".to_string());
    }

    let mut failures = 0;
    println!("base A = {} ({})", a_path.display(), a["commit"]);
    println!("     B = {} ({})", b_path.display(), b["commit"]);
    for (wa, wb) in workloads_of(&a).iter().zip(workloads_of(&b)) {
        let name = wa["name"].as_str().unwrap_or("?");
        for m in spec["end_to_end"]
            .as_array()
            .ok_or("BENCHMARK.json: end_to_end")?
        {
            let metric = m["name"].as_str().ok_or("BENCHMARK.json: metric name")?;
            let bound = m["bound"].as_f64().ok_or("BENCHMARK.json: bound")?;
            let (Some(va), Some(vb)) = (
                wa["metrics"][metric]["value"].as_f64(),
                wb["metrics"][metric]["value"].as_f64(),
            ) else {
                return Err(format!("{name}: {metric} missing from a result set"));
            };
            let worse_by = match m["better"].as_str() {
                Some("higher") => (va - vb) / va,
                _ => (vb - va) / va,
            };
            let ok = worse_by <= bound;
            failures += usize::from(!ok);
            println!(
                "{name:<22} {metric:<16} A {va:>14.4}  B {vb:>14.4}  B/A {:>6.3} (base A)  \
                 worse by {:>+7.2}% of A, bound {:.0}%  {}",
                vb / va,
                100.0 * worse_by,
                100.0 * bound,
                if ok { "pass" } else { "FAIL" }
            );
        }
        if wa["failed"] != wb["failed"] {
            failures += 1;
            println!(
                "{name:<22} failed transactions differ: {} vs {}  FAIL",
                wa["failed"], wb["failed"]
            );
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (va, vb) = (
                &wa["metrics"][d.name]["value"],
                &wb["metrics"][d.name]["value"],
            );
            if va != vb {
                failures += 1;
                println!(
                    "{name:<22} {:<16} exact count differs: {va} vs {vb}  FAIL",
                    d.name
                );
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} comparisons failed"));
    }
    println!("all end-to-end metrics within their bounds; all exact counts identical");
    Ok(())
}

fn declared(spec: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    spec[key]
        .as_array()
        .ok_or(format!("BENCHMARK.json: no '{key}'"))?
        .iter()
        .map(|m| match (m["name"].as_str(), m["unit"].as_str()) {
            (Some(name), Some(unit)) => Ok((name.to_string(), unit.to_string())),
            _ => Err(format!(
                "BENCHMARK.json: '{key}' entry without name and unit"
            )),
        })
        .collect()
}

fn same_catalogue(spec: &Value, key: &str, decls: &[Decl]) -> Result<(), String> {
    let ours: Vec<_> = decls
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect();
    let theirs = declared(spec, key)?;
    for entry in &ours {
        if !theirs.contains(entry) {
            return Err(format!(
                "{key}: {entry:?} is emitted but not in BENCHMARK.json"
            ));
        }
    }
    for (i, entry) in theirs.iter().enumerate() {
        let valid = |s: &str| {
            s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        if !valid(&entry.0) || entry.0.is_empty() {
            return Err(format!(
                "{key}: name '{}' does not match [A-Za-z0-9_.-]+",
                entry.0
            ));
        }
        if !ours.contains(entry) || theirs[..i].contains(entry) {
            return Err(format!(
                "{key}: {entry:?} is declared but not emitted exactly once"
            ));
        }
    }
    Ok(())
}

/// The name-drift check: `BENCHMARK.json` and the catalogue agree, and a
/// 3-epoch run of every workload prints each declared metric exactly once
/// with a finite value and nothing undeclared.
pub fn selfcheck() -> Result<(), String> {
    let spec = load(Path::new("BENCHMARK.json"))?;
    same_catalogue(&spec, "end_to_end", END_TO_END)?;
    same_catalogue(&spec, "per_layer", PER_LAYER)?;
    let names: Vec<&str> = workloads_of(&spec)
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    if names != WORKLOADS.map(|w| w.name) {
        return Err(format!("workloads: BENCHMARK.json lists {names:?}"));
    }

    let args = RunArgs {
        workload: String::new(),
        seed: crate::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        epochs: Some(3),
        perturb_model: false,
        out: Path::new("perfbench/out/selfcheck").to_path_buf(),
    };
    for w in &WORKLOADS {
        for (trace, decls) in [(false, END_TO_END), (true, PER_LAYER)] {
            let run = run_child(w.name, &args, trace)?;
            let metrics: Vec<_> = run
                .records
                .iter()
                .filter(|r| !r.0.starts_with("run."))
                .collect();
            for d in decls {
                let hits: Vec<_> = metrics.iter().filter(|r| r.0 == d.name).collect();
                let in_json = run.last["metrics"][d.name]["value"].as_f64();
                match hits[..] {
                    [(_, value, unit)]
                        if value.is_finite() && unit == d.unit && in_json.is_some() => {}
                    _ => {
                        return Err(format!(
                            "{} --trace {}: {} emitted {} times",
                            w.name,
                            trace as u8,
                            d.name,
                            hits.len()
                        ))
                    }
                }
            }
            if metrics.len() != decls.len() {
                return Err(format!(
                    "{} --trace {}: undeclared metrics printed",
                    w.name, trace as u8
                ));
            }
            println!(
                "{} --trace {}: {} metrics ok",
                w.name,
                trace as u8,
                decls.len()
            );
        }
    }
    Ok(())
}
