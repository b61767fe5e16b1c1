//! The metric catalogue. `BENCHMARK.json` declares the same names and units;
//! `selfcheck` fails when the two drift apart.

use std::collections::BTreeMap;

/// One declared metric. `exact` marks counts that must repeat bit-for-bit on
/// the same commit, seed and epoch count.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the system sees; measured by the untraced timed pass.
///
/// The two wall-clock figures are the fastest decile over the run's epochs,
/// not medians: on a shared host interference only ever adds time, in
/// phases that can outlast half a run, so the fast decile is the steadiest
/// estimate of the system's own speed (see README, "Why the fast decile").
/// The median and p90 are in the `run.*` facts and the per-layer table.
pub const END_TO_END: &[Decl] = &[
    timed("committed_per_s", "1/s"),
    timed("epoch_ms_p10", "ms"),
    timed("peak_rss_mb", "MiB"),
    timed("setup_s", "s"),
];

/// Single-layer metrics; measured by the traced pass. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: &[Decl] = &[
    // chain::dispatch -> Network::form_packets
    timed("dispatch.ns_per_tx", "ns"),
    timed("dispatch.epoch_share_permille", "permille"),
    exact("dispatch.to_ds_permille", "permille"),
    exact("dispatch.to_xshard_permille", "permille"),
    exact("dispatch.shard_imbalance_x1000", "x1000"),
    // chain::executor -> Network::execute_shards, serial execute_batch probe
    timed("shard_exec.wall_ns_per_tx", "ns"),
    timed("shard_exec.busy_ns_per_tx", "ns"),
    timed("shard_exec.parallel_efficiency_x1000", "x1000"),
    timed("shard_exec.epoch_share_permille", "permille"),
    exact("shard_exec.rerouted_permille", "permille"),
    exact("shard_exec.gas_per_tx", "gas"),
    // scilla::interpreter / scilla::compile -> CompiledContract::execute_mode
    timed("interpreter.ns_per_call", "ns"),
    timed("executor.overhead_ns_per_tx", "ns"),
    // chain::delta -> Network::merge_shard_deltas, merge_ref / to_wire alone
    timed("merge.ns_per_tx", "ns"),
    timed("merge.ns_per_component", "ns"),
    timed("merge.epoch_share_permille", "permille"),
    exact("merge.components_per_tx_x1000", "x1000"),
    timed("delta.join_ns_per_component", "ns"),
    exact("delta.wire_bytes_per_tx", "B"),
    // chain::xshard -> Network::execute_xshard
    timed("xshard.ns_per_tx", "ns"),
    timed("xshard.epoch_share_permille", "permille"),
    exact("xshard.abort_permille", "permille"),
    exact("xshard.ds_fallback_permille", "permille"),
    exact("xshard.lock_wait_permille", "permille"),
    // DS committee -> Network::execute_ds
    timed("ds_exec.ns_per_tx", "ns"),
    timed("ds_exec.epoch_share_permille", "permille"),
    // chain::network, the epoch as a whole
    timed("epoch.ms_p50", "ms"),
    timed("epoch.ms_p90", "ms"),
    exact("epoch.samples", "count"),
    timed("epoch.unattributed_permille", "permille"),
    exact("epoch.deferred_permille", "permille"),
    // scilla front end + cosplit_analysis -> the six deploy-pipeline calls
    timed("deploy.parse_us_per_contract", "us"),
    timed("deploy.typecheck_us_per_contract", "us"),
    timed("deploy.analysis_us_per_contract", "us"),
    timed("deploy.signature_us_per_contract", "us"),
    timed("deploy.compile_us_per_contract", "us"),
    timed("deploy.analysis_share_permille", "permille"),
    timed("deploy.parse_mb_per_s", "MB/s"),
    timed("deploy.slowest_contract_us", "us"),
    exact("deploy.signature_wire_bytes", "B"),
    // the benchmark's own spans
    timed("bench.span_overhead_x1000", "x1000"),
    // scilla::state / chain::state
    timed("state.rss_kb_per_ktx", "KiB/ktx"),
    timed("state.users_x10_slowdown_x1000", "x1000"),
    // workloads -> scenarios::build, runner::prepare_with
    timed("setup.generate_s", "s"),
    timed("setup.prepare_s", "s"),
    timed("setup.seed_ns_per_tx", "ns"),
    timed("setup.seed_x10_ns_per_tx", "ns"),
    // the paper's own Fig. 14 figure, on simulated time
    exact("protocol.tps", "tx/sim-s"),
];

/// Values for one catalogue, each set at most once.
pub struct Records {
    decls: &'static [Decl],
    values: BTreeMap<&'static str, f64>,
}

impl Records {
    pub fn new(decls: &'static [Decl]) -> Records {
        Records {
            decls,
            values: BTreeMap::new(),
        }
    }

    /// Records a value. An undeclared name or a second value for one name is
    /// a bug in the benchmark, so it panics.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = self
            .decls
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"));
        assert!(
            self.values.insert(decl.name, value).is_none(),
            "metric '{name}' set twice"
        );
    }

    /// A ratio scaled by 1000; 0 when the denominator is 0.
    pub fn set_ratio_x1000(&mut self, name: &str, num: f64, den: f64) {
        self.set(name, if den == 0.0 { 0.0 } else { 1000.0 * num / den });
    }

    /// A quotient; 0 when the denominator is 0.
    pub fn set_per(&mut self, name: &str, num: f64, den: f64) {
        self.set(name, if den == 0.0 { 0.0 } else { num / den });
    }

    /// Every declared metric in catalogue order; unset ones read 0.
    pub fn finish(self) -> Vec<(Decl, f64)> {
        self.decls
            .iter()
            .map(|d| (*d, self.values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}
