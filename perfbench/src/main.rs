//! The repo's benchmark. See `perfbench/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench all [--seed <n>] [--seconds <s>] [--out <dir>]
//! perfbench compare <A.json> <B.json>
//! perfbench selfcheck
//! ```
//!
//! One invocation with `--workload` runs one workload in this process:
//! `--trace 0` is the timed pass (end-to-end metrics, none of the
//! benchmark's spans), `--trace 1` the traced pass (per-layer metrics).
//! Each prints `workload metric value unit` lines and, last, one JSON object.

mod deploy;
mod epochs;
mod metrics;
mod model;
mod report;
mod spans;

use epochs::TxWorkload;
use metrics::Decl;
use std::path::PathBuf;
use workloads::scenarios::Kind;

/// What a workload runs.
pub enum Plan {
    Tx(TxWorkload),
    DeployCorpus,
}

/// A named workload. `rate_per_s` sizes the work: epochs (deploy rounds)
/// per second of `--seconds`, as measured on the 2-core bench host, so that
/// one timed pass lasts about `--seconds` there. The work — not the time —
/// is what a run fixes, so counts and memory repeat exactly.
pub struct Workload {
    pub name: &'static str,
    pub plan: Plan,
    pub rate_per_s: f64,
}

const PAPER_FT: TxWorkload = TxWorkload {
    kind: Kind::FtTransfer,
    full_profile: false,
    telemetry_tracing: false,
    protocol: true,
    users_probe: true,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ft_transfer",
        plan: Plan::Tx(PAPER_FT),
        rate_per_s: 26.0,
    },
    Workload {
        name: "nft_mint",
        plan: Plan::Tx(TxWorkload {
            kind: Kind::NftMint,
            users_probe: false,
            ..PAPER_FT
        }),
        rate_per_s: 26.0,
    },
    Workload {
        name: "ipfs_register",
        plan: Plan::Tx(TxWorkload {
            kind: Kind::IpfsRegister,
            users_probe: false,
            ..PAPER_FT
        }),
        rate_per_s: 13.0,
    },
    Workload {
        name: "ipfs_register_xshard",
        plan: Plan::Tx(TxWorkload {
            kind: Kind::IpfsRegister,
            full_profile: true,
            users_probe: false,
            ..PAPER_FT
        }),
        rate_per_s: 15.0,
    },
    Workload {
        name: "ft_transfer_traced",
        plan: Plan::Tx(TxWorkload {
            telemetry_tracing: true,
            protocol: false,
            users_probe: false,
            ..PAPER_FT
        }),
        rate_per_s: 16.0,
    },
    Workload {
        name: "deploy_corpus",
        plan: Plan::DeployCorpus,
        rate_per_s: 50.0,
    },
];

/// A pass stops early once it has run this many times `--seconds`, so a
/// slow host bounds a run's time instead of the driver's patience.
pub const CAP_FACTOR: f64 = 1.25;
/// The traced pass covers the first `1 / TRACED_SHARE` of the epochs.
pub const TRACED_SHARE: usize = 8;

/// A timed run sets up this many times. The first `SETUP_WARMUPS` pay for
/// growing the heap to the stream's size, symbol interning and other lazy
/// initialisation; `setup_s` is the median of the rest.
pub const SETUP_REPEATS: usize = 9;
pub const SETUP_WARMUPS: usize = 2;

/// The seed a run uses unless `--seed` names another.
pub const DEFAULT_SEED: u64 = 1;

/// Arguments of one workload run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the epoch (round) count `--seconds` would give.
    pub epochs: Option<usize>,
    /// Makes the expected model wrong by one, to show the check bites.
    pub perturb_model: bool,
    /// Where the traced pass writes its Chrome trace.
    pub out: PathBuf,
}

/// What one workload run reports: the records behind both the printed
/// lines and the machine-readable object.
pub struct RunOutput {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(Decl, f64)>,
    /// Facts about the run (`run.*`): epochs, samples, pass wall time.
    pub info: Vec<(&'static str, f64, &'static str)>,
}

/// The `run.*` facts every pass reports next to its metrics: how much work
/// was planned and done, how long it took, and where the epoch walls lay —
/// enough to tell a slow host phase from a slow program.
pub fn run_facts(planned: usize, walls_ns: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("run.epochs", planned as f64, "count"),
        ("run.samples", walls_ns.len() as f64, "count"),
        ("run.pass_wall_s", walls_ns.iter().sum::<f64>() / 1e9, "s"),
        ("run.epoch_ms_p50", quantile(walls_ns, 0.5) / 1e6, "ms"),
        ("run.epoch_ms_p90", quantile(walls_ns, 0.9) / 1e6, "ms"),
    ]
}

/// The `p`-quantile of `values`, interpolating linearly between ranks.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A `kB` line of `/proc/self/status` (`VmHWM`, `VmRSS`); 0 where absent.
pub fn vm_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

fn run_workload(args: &RunArgs) -> Result<(), String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!("unknown workload '{}'", args.workload))?;
    // Epochs (rounds) of the timed pass; the traced pass covers a share.
    let planned = args
        .epochs
        .unwrap_or((w.rate_per_s * args.seconds).ceil() as usize)
        .max(1);
    let traced = planned.div_ceil(TRACED_SHARE);
    let mut tr = spans::Tracer::new(args.trace);
    let out = match (&w.plan, args.trace) {
        (Plan::Tx(tx), false) => epochs::run_timed(tx, planned, args)?,
        (Plan::Tx(tx), true) => epochs::run_traced(tx, traced, args, &mut tr)?,
        (Plan::DeployCorpus, false) => deploy::run_timed(planned, args)?,
        (Plan::DeployCorpus, true) => deploy::run_traced(traced, args, &mut tr)?,
    };
    if args.trace {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!("{}.trace.json", w.name));
        std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        for (name, row) in tr.self_times() {
            eprintln!(
                "span {name:<24} count {:>7}  total {:>12.3} ms  self {:>12.3} ms",
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
    }

    let mut json = serde_json::Map::new();
    for (decl, value) in &out.metrics {
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", decl.name));
        }
        println!("{} {} {} {}", w.name, decl.name, value, decl.unit);
        json.insert(
            decl.name.to_string(),
            serde_json::json!({"value": *value, "unit": decl.unit}),
        );
    }
    for (name, value, unit) in &out.info {
        println!("{} {name} {value} {unit}", w.name);
    }
    println!(
        "{}",
        serde_json::json!({
            "correct": true,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": serde_json::Value::Object(json),
        })
    );
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--epochs <n>] [--out <dir>] [--perturb-model]\n       \
         perfbench all [--seed <n>] [--seconds <s>] [--out <dir>]\n       \
         perfbench compare <A.json> <B.json>\n       perfbench selfcheck\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(c @ ("all" | "compare" | "selfcheck")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };

    let mut args = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        epochs: None,
        perturb_model: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut files = Vec::new();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--epochs" => args.epochs = Some(value().parse().unwrap_or_else(|_| usage())),
            "--out" => args.out = PathBuf::from(value()),
            "--perturb-model" => args.perturb_model = true,
            f if !f.starts_with("--") && command == "compare" => files.push(PathBuf::from(f)),
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        usage();
    }

    let result = match command {
        "run" if !args.workload.is_empty() => run_workload(&args),
        "all" => report::run_all(&args),
        "compare" if files.len() == 2 => report::compare(&files[0], &files[1]),
        "selfcheck" => report::selfcheck(),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
