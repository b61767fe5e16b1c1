//! CoW-state scaling smoke test for CI (`scripts/check.sh`).
//!
//! Runs the fixed 200-tx FungibleToken transfer packet against token states
//! of 1k and 25k pre-populated holders and asserts the copy-on-write layer
//! keeps per-epoch snapshot cost flat:
//!
//! - `chain.state.cow_breaks` / `chain.state.bytes_cloned` stay zero — the
//!   epoch pipeline never deep-copies a shared map node;
//! - epoch wall time does not scale with the untouched holder set (lenient
//!   factor bound, best-of-reps, to stay robust on noisy CI hosts).
//!
//! Usage: `state_smoke`.

use cosplit_bench::experiments::state_scaling;

fn main() {
    // 25× spread keeps the gate fast; the full 100× sweep is `paper state`.
    let rows = state_scaling(&[1_000, 25_000], 200, 3);
    let mut failures = 0u32;

    for r in &rows {
        println!(
            "  holders {:>6}: committed {}, epoch {:.2} ms, snapshots {}, \
             cow_breaks {}, bytes_cloned {}",
            r.holders,
            r.committed,
            r.epoch_wall.as_secs_f64() * 1e3,
            r.snapshots,
            r.cow_breaks,
            r.bytes_cloned
        );
        if r.committed == 0 {
            eprintln!("FAIL holders {}: packet committed nothing", r.holders);
            failures += 1;
        }
        if r.cow_breaks != 0 || r.bytes_cloned != 0 {
            eprintln!(
                "FAIL holders {}: epoch deep-copied shared state ({} breaks, {} bytes)",
                r.holders, r.cow_breaks, r.bytes_cloned
            );
            failures += 1;
        }
    }

    let (small, large) = (&rows[0], &rows[1]);
    if small.committed != large.committed {
        eprintln!(
            "FAIL: committed count changed with state size ({} vs {})",
            small.committed, large.committed
        );
        failures += 1;
    }
    // Wall-time flatness: a deep-copy regression makes the 25k epoch many
    // times slower; honest jitter does not reach 5×.
    let ratio = large.epoch_wall.as_secs_f64() / small.epoch_wall.as_secs_f64().max(1e-9);
    if ratio > 5.0 {
        eprintln!(
            "FAIL: epoch wall scales with untouched state ({:.2} ms -> {:.2} ms, {ratio:.1}x)",
            small.epoch_wall.as_secs_f64() * 1e3,
            large.epoch_wall.as_secs_f64() * 1e3
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("state-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("state-smoke: snapshot cost flat across 25x state growth");
}
