//! Hot-path smoke test for CI (`scripts/check.sh`).
//!
//! Two gates:
//!
//! - compiled transition dispatch beats the AST walker on a serial
//!   FungibleToken transfer stream (≥ 1.05×, lenient against CI noise —
//!   `paper hotpath` reports the full number);
//! - the transaction path performs zero owned-name state accesses
//!   (`chain.state.hot_clones`) over one shard's transfer batch.
//!
//! Usage: `hotpath_smoke`.

use cosplit_bench::experiments::hotpath_experiment;

fn main() {
    let h = hotpath_experiment(2_048, 800, 2_000, 3);
    let mut failures = 0u32;

    println!(
        "  dispatch: AST {:.0} calls/s, compiled {:.0} calls/s ({:.2}x)",
        h.dispatch.ast_tps(),
        h.dispatch.compiled_tps(),
        h.dispatch.speedup()
    );
    if h.dispatch.speedup() < 1.05 {
        eprintln!(
            "FAIL: compiled dispatch is not faster than the AST walker ({:.2}x)",
            h.dispatch.speedup()
        );
        failures += 1;
    }

    println!("  hot clones: {} over {} committed txs", h.hot_clones, h.committed);
    if h.committed == 0 {
        eprintln!("FAIL: the audited shard batch committed nothing");
        failures += 1;
    }
    if h.hot_clones != 0 {
        eprintln!(
            "FAIL: {} owned-name state accesses on the transaction path",
            h.hot_clones
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("hotpath_smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("hotpath_smoke: all gates passed");
}
