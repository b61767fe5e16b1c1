//! Metrics and span timing for the CoSplit pipeline.
//!
//! Zero dependencies (std only) so every crate in the workspace — from the
//! Scilla interpreter up to the bench harness — can record into one global
//! [`MetricsRegistry`] without dependency cycles. Everything is designed to
//! sit on hot paths:
//!
//! - counters are thread-striped atomics (no contention on parallel shards);
//! - histograms are fixed-bucket atomic arrays (three relaxed `fetch_add`s
//!   per record: the bucket, the sum and the count);
//! - handle lookup happens once per call site via the [`counter!`],
//!   [`gauge!`], [`histogram!`] and [`span!`] macros (a `OnceLock` static);
//! - a single relaxed atomic load short-circuits all of it when telemetry
//!   is disabled ([`set_enabled`], or `COSPLIT_TELEMETRY=0`).
//!
//! Metric names follow `crate.component.name`, e.g.
//! `chain.dispatch.reason.payment` or `scilla.interpreter.gas_charged`.
//! Snapshots ([`MetricsRegistry::snapshot`]) are plain data: diff two of
//! them for per-epoch deltas, export as JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Well-known metric names shared between emitters and test assertions, so
/// a renamed counter breaks the build rather than silently zeroing a test.
pub mod names {
    /// Epochs driven by the deterministic simulation harness.
    pub const SIM_EPOCHS: &str = "chain.sim.epochs";
    /// Prefix for per-kind injected-fault counters
    /// (`chain.sim.fault.injected.<kind>`).
    pub const SIM_FAULT_PREFIX: &str = "chain.sim.fault.injected.";
    /// Shard executor threads that died (injected or real); each one's
    /// packet was rerouted whole to the DS committee.
    pub const SHARD_CRASHES: &str = "chain.network.shard_crashes";
    /// Packets recovered by backoff re-pooling after a drop.
    pub const SIM_RECOVERY_BACKOFF: &str = "chain.sim.recovery.backoff_repool";
    /// Safety violations observed by the harness (merge conflicts, double
    /// commits). Non-zero is always a bug or an injected byzantine world.
    pub const SIM_SAFETY_VIOLATION: &str = "chain.sim.safety_violation";
    /// Divergences detected by the differential oracle.
    pub const SIM_DIVERGENCE: &str = "chain.sim.divergence.detected";
    /// Transition executions run with the effect tracer attached.
    pub const AUDIT_TRACED: &str = "chain.audit.traced_executions";
    /// Containment breaches reported by the effect-trace auditor. Non-zero
    /// means a static summary under-approximated a real execution.
    pub const AUDIT_VIOLATION: &str = "chain.audit.violations";
    /// Findings reported by the contract lint pass.
    pub const LINT_FINDINGS: &str = "cosplit.lint.findings";
    /// Shared map nodes copied because a write landed on them (CoW breaks).
    pub const STATE_COW_BREAKS: &str = "chain.state.cow_breaks";
    /// Approximate bytes shallow-copied by those CoW breaks.
    pub const STATE_BYTES_CLONED: &str = "chain.state.bytes_cloned";
    /// Trace records accepted by the flight recorder (spans + instants).
    pub const TRACE_RECORDS: &str = "telemetry.trace.records";
    /// Trace records evicted from the flight recorder — by the per-stripe
    /// capacity cap or by epoch retention pruning.
    pub const TRACE_DROPPED: &str = "telemetry.trace.dropped";
    /// Per-transaction dispatch decision instant (attrs: tx, reason, assign).
    pub const TX_DISPATCH: &str = "chain.tx.dispatch";
    /// Per-transaction held-back instant: the target packet was full this
    /// epoch, so the transaction stays in the pool.
    pub const TX_HELD_BACK: &str = "chain.tx.held_back";
    /// Per-transaction deferral instant inside the executor (attrs: tx, why).
    pub const TX_DEFER: &str = "chain.tx.defer";
    /// Per-transaction execution span in the executor (attrs: tx, role,
    /// status, gas).
    pub const TX_EXEC: &str = "chain.tx.exec";
    /// Cross-shard 2PC: prepare hop instant (attrs: tx, coordinator,
    /// participants).
    pub const TX_XSHARD_PREPARE: &str = "chain.tx.xshard_prepare";
    /// Cross-shard 2PC: one participant's vote instant (attrs: tx, shard,
    /// yes).
    pub const TX_XSHARD_VOTE: &str = "chain.tx.xshard_vote";
    /// Cross-shard 2PC: commit hop instant (attrs: tx, coordinator).
    pub const TX_XSHARD_COMMIT: &str = "chain.tx.xshard_commit";
    /// Cross-shard 2PC: abort hop instant (attrs: tx, cause) — also emitted
    /// with a `ds-fallback:*` cause when the stage hands a transaction to
    /// the DS committee.
    pub const TX_XSHARD_ABORT: &str = "chain.tx.xshard_abort";
    /// Cross-shard transactions that finished prepare with all locks held.
    pub const XSHARD_PREPARED: &str = "chain.xshard.prepared";
    /// Cross-shard transactions committed atomically.
    pub const XSHARD_COMMITTED: &str = "chain.xshard.committed";
    /// Cross-shard transactions aborted (they retry from the pool).
    pub const XSHARD_ABORTED: &str = "chain.xshard.aborted";
    /// Lock acquisitions that found a key busy.
    pub const XSHARD_LOCK_WAIT: &str = "chain.xshard.lock_wait";
    /// Cross-shard transactions handed to the DS committee (unresolvable
    /// plan or rerouting prepare).
    pub const XSHARD_DS_FALLBACK: &str = "chain.xshard.ds_fallback";
    /// Stale locks broken by epoch-start recovery.
    pub const XSHARD_STALE_BROKEN: &str = "chain.xshard.stale_locks_broken";
}

pub mod trace;

/// Number of per-counter stripes. Power of two; enough that the handful of
/// shard executor threads rarely collide.
const STRIPES: usize = 16;

/// Global kill switch, checked (relaxed) before any metric write.
static ENABLED: AtomicBool = AtomicBool::new(true);

static INIT_ENV: OnceLock<()> = OnceLock::new();

fn init_from_env() {
    INIT_ENV.get_or_init(|| {
        if let Ok(v) = std::env::var("COSPLIT_TELEMETRY") {
            if matches!(v.as_str(), "0" | "off" | "false") {
                ENABLED.store(false, Ordering::Relaxed);
            }
        }
    });
}

/// Turns all metric recording on or off at runtime. Disabled recording is a
/// single relaxed load + branch per call site.
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is recording currently enabled?
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, striped across cache lines.
pub struct Counter {
    stripes: [PaddedU64; STRIPES],
}

fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl Counter {
    fn new() -> Counter {
        Counter { stripes: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))) }
    }

    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if ENABLED.load(Ordering::Relaxed) {
            self.stripes[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all stripes.
    pub fn get(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-value-wins signed gauge.
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { value: AtomicI64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if ENABLED.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if ENABLED.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Default bucket upper bounds for durations, in nanoseconds: 1µs to ~67s,
/// quadrupling. Values above the last bound land in the overflow bucket.
pub const DURATION_BUCKETS_NS: &[u64] = &[
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
    16_777_216_000,
    67_108_864_000,
];

/// Default bucket upper bounds for sizes/counts: 1 to ~1M, quadrupling.
pub const SIZE_BUCKETS: &[u64] =
    &[1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];

/// A fixed-bucket histogram: `counts[i]` holds samples `<= bounds[i]`
/// (non-cumulative); one extra overflow bucket holds the rest.
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must be ascending");
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// An RAII timer recording its lifetime into a histogram on drop.
///
/// When structured tracing is on ([`trace::set_tracing`]), the guard also
/// allocates a span id, links to the innermost open span on this thread
/// (the thread-local span stack), and writes a [`trace::TraceRecord`] into
/// the flight recorder on drop — so nested guards produce a parent/child
/// tree instead of independent flat timings. With tracing off the extra
/// cost is one relaxed atomic load and two zeroed words; no allocation.
/// Either way the guard reads the clock once when it opens and once when it
/// drops; the trace timestamps are derived from those two readings.
pub struct SpanGuard {
    name: &'static str,
    hist: Option<&'static Histogram>,
    start: Instant,
    /// Trace span id; 0 while tracing is disabled (the guard is hist-only).
    trace_id: u64,
    trace_parent: u64,
    attrs: trace::Attrs,
}

impl SpanGuard {
    pub fn new(name: &'static str, hist: Option<&'static Histogram>) -> SpanGuard {
        let (trace_id, trace_parent) = if trace::tracing_enabled() {
            let id = trace::next_span_id();
            let parent = trace::current_span();
            trace::push_span(id);
            (id, parent)
        } else {
            (0, 0)
        };
        SpanGuard { name, hist, start: Instant::now(), trace_id, trace_parent, attrs: Vec::new() }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Attaches a key/value attribute to the trace record. A no-op unless
    /// tracing was enabled when the span opened; the conversion runs only
    /// then, so the disabled hot path never allocates.
    pub fn attr(&mut self, key: &'static str, value: impl Into<trace::AttrValue>) {
        if self.trace_id != 0 {
            self.attrs.push((key, value.into()));
        }
    }

    /// The span's trace id (0 while tracing is disabled). Pass it to
    /// [`trace::adopt_parent`] inside a spawned closure to nest the
    /// spawned thread's spans under this one.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = Instant::now();
        if let Some(h) = self.hist {
            h.record_duration(end.saturating_duration_since(self.start));
        }
        if self.trace_id != 0 {
            trace::pop_span(self.trace_id);
            trace::record_span(
                self.trace_id,
                self.trace_parent,
                self.name,
                self.start,
                end,
                std::mem::take(&mut self.attrs),
            );
        }
    }
}

/// The process-wide metric store.
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The global registry (created on first use).
pub fn registry() -> &'static MetricsRegistry {
    init_from_env();
    REGISTRY.get_or_init(|| MetricsRegistry {
        counters: RwLock::new(BTreeMap::new()),
        gauges: RwLock::new(BTreeMap::new()),
        histograms: RwLock::new(BTreeMap::new()),
    })
}

fn get_or_insert<T>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    if let Some(v) = map.read().expect("telemetry lock").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("telemetry lock");
    Arc::clone(w.entry(name.to_string()).or_insert_with(|| Arc::new(make())))
}

impl MetricsRegistry {
    /// The named counter, created on first use. Cache the handle (or use
    /// [`counter!`]) on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// The named duration histogram (nanosecond buckets), created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, DURATION_BUCKETS_NS)
    }

    /// The named histogram with explicit bucket bounds; bounds are fixed by
    /// whichever call registers the name first.
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(bounds))
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .expect("telemetry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("telemetry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("telemetry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every metric (keeps registrations).
    pub fn reset(&self) {
        for c in self.counters.read().expect("telemetry lock").values() {
            c.reset();
        }
        for g in self.gauges.read().expect("telemetry lock").values() {
            g.reset();
        }
        for h in self.histograms.read().expect("telemetry lock").values() {
            h.reset();
        }
    }
}

/// One histogram's state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) sample counts; one more entry than
    /// `bounds` (the overflow bucket).
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Saturating per-bucket difference (`self` minus `earlier`).
    fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        if self.bounds != earlier.bounds || self.counts.len() != earlier.counts.len() {
            return self.clone();
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// Merges another histogram's samples into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A point-in-time copy of the registry, exportable and diffable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The delta `self - earlier`: counters and histogram buckets subtract
    /// (saturating), gauges keep their current value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match earlier.histograms.get(k) {
                    Some(e) => (k.clone(), h.diff(e)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// JSON export: one object each for counters, gauges and histograms,
    /// keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        json::write_map(&mut out, &self.counters, |out, v| out.push_str(&v.to_string()));
        out.push_str("},\n  \"gauges\": {");
        json::write_map(&mut out, &self.gauges, |out, v| out.push_str(&v.to_string()));
        out.push_str("},\n  \"histograms\": {");
        json::write_map(&mut out, &self.histograms, |out, h| {
            out.push_str("{\"bounds\": ");
            json::write_u64s(out, &h.bounds);
            out.push_str(", \"counts\": ");
            json::write_u64s(out, &h.counts);
            out.push_str(&format!(", \"sum\": {}, \"count\": {}}}", h.sum, h.count));
        });
        out.push_str("}\n}\n");
        out
    }
}

/// Minimal JSON writers for [`Snapshot`] and the trace exporters — kept
/// in-crate so telemetry stays dependency-free.
mod json {
    use std::collections::BTreeMap;

    pub(super) fn write_map<V>(
        out: &mut String,
        map: &BTreeMap<String, V>,
        mut write_value: impl FnMut(&mut String, &V),
    ) {
        for (i, (k, v)) in map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_escaped(out, k);
            out.push_str(": ");
            write_value(out, v);
        }
        if !map.is_empty() {
            out.push_str("\n  ");
        }
    }

    pub(super) fn write_u64s(out: &mut String, xs: &[u64]) {
        out.push('[');
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&x.to_string());
        }
        out.push(']');
    }

    pub(crate) fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// A cached handle to a named counter: `counter!("chain.dispatch.total").inc()`.
/// The registry lookup happens once per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// A cached handle to a named gauge.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// A cached handle to a named histogram; optional second argument sets
/// non-default bucket bounds (e.g. `$crate::SIZE_BUCKETS`).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
    ($name:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram_with($name, $bounds))
    }};
}

/// Times the enclosing scope into the named duration histogram:
/// `let _span = span!("executor.run_batch");`. The guard borrows the
/// histogram the call site's handle owns for the life of the process, so
/// opening a span touches no shared reference count.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::new($name, if $crate::enabled() { Some(&**$crate::histogram!($name)) } else { None })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that record metrics or toggle the global enabled
    /// flag (the flag is process-wide, so these must not interleave).
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn enabled_for_test() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        guard
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let _g = enabled_for_test();
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10] {
            h.record(v); // first bucket: <= 10
        }
        h.record(11); // second bucket
        h.record(100); // second bucket (inclusive upper)
        h.record(101); // third
        h.record(1000); // third
        h.record(1001); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2, 1]);
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 10 + 11 + 100 + 101 + 1000 + 1001);
    }

    #[test]
    fn histogram_snapshot_merge_sums_buckets() {
        let _g = enabled_for_test();
        let a = Histogram::new(&[10, 100]);
        let b = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(50);
        b.record(50);
        b.record(500);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counts, vec![1, 2, 1]);
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 605);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let a = Histogram::new(&[10]);
        let b = Histogram::new(&[20]);
        a.snapshot().merge(&b.snapshot());
    }

    #[test]
    fn counter_concurrency_exact_total() {
        let _g = enabled_for_test();
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn snapshot_diff_and_json_roundtrip() {
        let mut before = Snapshot::default();
        before.counters.insert("a.b.c".into(), 5);
        before.histograms.insert(
            "a.dur".into(),
            HistogramSnapshot { bounds: vec![10, 100], counts: vec![1, 0, 0], sum: 5, count: 1 },
        );
        let mut after = before.clone();
        *after.counters.get_mut("a.b.c").unwrap() = 12;
        after.counters.insert("fresh \"name\"".into(), 3);
        after.gauges.insert("g".into(), -7);
        {
            let h = after.histograms.get_mut("a.dur").unwrap();
            h.counts = vec![1, 2, 1];
            h.sum = 1205;
            h.count = 4;
        }

        let delta = after.diff(&before);
        assert_eq!(delta.counter("a.b.c"), 7);
        assert_eq!(delta.counter("fresh \"name\""), 3);
        assert_eq!(delta.histograms["a.dur"].counts, vec![0, 2, 1]);
        assert_eq!(delta.histograms["a.dur"].count, 3);

        // The JSON export carries every value back exactly.
        let json: serde_json::Value = serde_json::from_str(&after.to_json()).unwrap();
        for (name, v) in &after.counters {
            assert_eq!(json["counters"][name.as_str()].as_u64(), Some(*v), "counter {name}");
        }
        assert_eq!(json["counters"].as_object().map(|m| m.len()), Some(after.counters.len()));
        assert_eq!(json["gauges"]["g"].as_i64(), Some(-7));
        assert_eq!(json["gauges"].as_object().map(|m| m.len()), Some(1));
        let h = &json["histograms"]["a.dur"];
        let u64s = |v: &serde_json::Value| -> Vec<u64> {
            v.as_array().unwrap().iter().map(|x| x.as_u64().unwrap()).collect()
        };
        assert_eq!(u64s(&h["bounds"]), vec![10, 100]);
        assert_eq!(u64s(&h["counts"]), vec![1, 2, 1]);
        assert_eq!(h["sum"].as_u64(), Some(1205));
        assert_eq!(h["count"].as_u64(), Some(4));
        assert_eq!(json["histograms"].as_object().map(|m| m.len()), Some(1));
    }

    #[test]
    fn disabled_registry_is_a_no_op() {
        let _g = enabled_for_test();
        let c = Counter::new();
        let h = Histogram::new(&[10]);
        c.inc();
        h.record(1);
        set_enabled(false);
        c.inc();
        c.add(100);
        h.record(1);
        set_enabled(true);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_guard_records_into_histogram() {
        let _g = enabled_for_test();
        let h: &'static Histogram = histogram!("test.span.duration");
        let before = h.count();
        {
            let _span = SpanGuard::new("test.span.duration", Some(h));
            std::hint::black_box(42);
        }
        assert_eq!(h.count(), before + 1);
        assert!(h.sum() > 0);
    }
}
