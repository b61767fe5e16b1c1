//! Structured tracing: hierarchical spans, an epoch-scoped flight
//! recorder, and exporters.
//!
//! The flat metrics in the crate root answer "how much"; this module
//! answers "which transaction, where, and why". Three pieces:
//!
//! - **Spans.** [`crate::SpanGuard`] (the `span!` macro) allocates a span
//!   id when tracing is on and links it to the innermost open span on the
//!   current thread via a thread-local span stack, so nested guards form a
//!   parent/child tree. Cross-thread structure (the network spawning one
//!   executor per shard) is stitched with [`adopt_parent`]: capture
//!   [`current_span`] (or `SpanGuard::trace_id`) before `spawn`, adopt it
//!   inside the closure.
//! - **Records.** A [`TraceRecord`] carries typed attributes
//!   ([`AttrValue`]: integers, flags, static labels, addresses, and owned
//!   text only for rare values such as failure messages). Nothing is
//!   formatted while recording; the exporters render text.
//! - **Flight recorder.** A bounded, thread-striped buffer of
//!   [`TraceRecord`]s. Stripes are independent mutexes indexed by a
//!   per-thread ordinal, so parallel shard executors almost never contend
//!   (lock-free-ish: one uncontended lock per record). A stripe keeps its
//!   records in arrival order, grouped into segments that share an epoch
//!   tag. It evicts its oldest records past a capacity cap, and
//!   [`begin_epoch`] drops whole segments older than the retention window
//!   without walking the records it keeps — the recorder holds "the last
//!   N epochs", crash-dump style. Evictions are counted in
//!   `telemetry.trace.dropped`, accepted records in
//!   `telemetry.trace.records`.
//! - **Exporters.** [`chrome_trace_json`] renders a snapshot as Chrome
//!   `trace_event` JSON (load in `chrome://tracing` or Perfetto);
//!   [`build_lifecycles`]/[`lifecycle_json`] group records carrying a
//!   `tx` attribute into per-transaction lifecycle chains
//!   (dispatch decision → executor span → defer/held-back hops → outcome).
//!
//! Everything is gated on a single relaxed atomic ([`tracing_enabled`],
//! env `COSPLIT_TRACING=1`). Disabled, a `span!` costs one load and zero
//! allocations; `instant_with` never runs its closure. Enabled, a span reads
//! the clock once when it opens and once when it closes: the histogram
//! sample and the record's timestamps come from the same two readings.

use crate::names;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable flag and clock.

static TRACING: AtomicBool = AtomicBool::new(false);
static TRACE_ENV: OnceLock<()> = OnceLock::new();

fn init_from_env() {
    TRACE_ENV.get_or_init(|| {
        if let Ok(v) = std::env::var("COSPLIT_TRACING") {
            if matches!(v.as_str(), "1" | "on" | "true") {
                TRACING.store(true, Ordering::Relaxed);
            }
        }
    });
}

/// Turns structured tracing on or off (also `COSPLIT_TRACING=1`).
/// Independent of the metrics kill switch: counters can stay on while
/// tracing is off, and vice versa.
pub fn set_tracing(on: bool) {
    init_from_env();
    TRACING.store(on, Ordering::Relaxed);
}

/// Is structured tracing currently enabled?
#[inline]
pub fn tracing_enabled() -> bool {
    init_from_env();
    TRACING.load(Ordering::Relaxed)
}

/// Microseconds since the process first touched the trace clock. All
/// record timestamps share this origin, so ordering across threads is
/// meaningful (single monotonic `Instant`).
pub fn now_micros() -> u64 {
    micros_at(Instant::now())
}

/// `t` on the trace clock: whole microseconds since its origin. Monotonic
/// in `t`, so a child span read between its parent's two readings stays
/// inside the parent's interval.
pub(crate) fn micros_at(t: Instant) -> u64 {
    static EPOCH0: OnceLock<Instant> = OnceLock::new();
    let t0 = EPOCH0.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(*t0).as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Span ids and the per-thread span stack.

/// Allocates a fresh nonzero span id.
pub(crate) fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Small dense per-thread ordinal (1-based) — stable for the thread's
/// lifetime, used as the Chrome `tid` and the recorder stripe key.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    /// Innermost-last stack of open span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span id on this thread (0 when none). Capture this
/// before spawning worker threads and hand it to [`adopt_parent`] inside
/// the spawned closure.
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

pub(crate) fn push_span(id: u64) {
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
}

pub(crate) fn pop_span(id: u64) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // RAII guards drop LIFO, so this is normally the top; remove by
        // value anyway so an out-of-order drop cannot corrupt the stack.
        if let Some(pos) = stack.iter().rposition(|&x| x == id) {
            stack.remove(pos);
        }
    });
}

/// Makes `parent` the innermost span for the current thread until the
/// guard drops. Used to stitch spawned worker threads (which start with an
/// empty span stack) under the span that spawned them.
pub fn adopt_parent(parent: u64) -> ParentGuard {
    if parent != 0 && tracing_enabled() {
        push_span(parent);
        ParentGuard { id: parent }
    } else {
        ParentGuard { id: 0 }
    }
}

/// RAII guard returned by [`adopt_parent`].
pub struct ParentGuard {
    id: u64,
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            pop_span(self.id);
        }
    }
}

// ---------------------------------------------------------------------------
// Records and the flight recorder.

/// What a [`TraceRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A duration: `start_micros .. start_micros + dur_micros`.
    Span,
    /// A point event (`dur_micros == 0`).
    Instant,
}

/// A typed attribute value. Recording stores the value as it is; text is
/// produced only by the exporters (and [`fmt::Display`]), which render
/// every variant as a JSON string: `U64(42)` as `"42"`, `Addr` as
/// `"0x…"` (40 lowercase hex digits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    U64(u64),
    Bool(bool),
    /// A static label: a reason or role name, an interned identifier.
    Str(&'static str),
    /// A 20-byte account or contract address.
    Addr([u8; 20]),
    /// Owned text, for rare values only (failure messages, composed
    /// causes, command-line paths): it costs an allocation per record.
    Text(Box<str>),
}

impl AttrValue {
    /// The value's text, when it is a label or owned text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The value, when it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Text(s) => f.write_str(s),
            AttrValue::Addr(bytes) => {
                f.write_str("0x")?;
                bytes.iter().try_for_each(|b| write!(f, "{b:02x}"))
            }
        }
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> AttrValue {
        AttrValue::U64(n)
    }
}

impl From<u32> for AttrValue {
    fn from(n: u32) -> AttrValue {
        AttrValue::U64(n.into())
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> AttrValue {
        AttrValue::U64(n as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> AttrValue {
        AttrValue::Bool(b)
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> AttrValue {
        AttrValue::Str(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Text(s.into_boxed_str())
    }
}

impl From<&String> for AttrValue {
    fn from(s: &String) -> AttrValue {
        AttrValue::Text(s.as_str().into())
    }
}

/// A record's attributes, in the order they were attached.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// The last value attached under `key` (last write wins).
fn find_attr<'a>(attrs: &'a [(&'static str, AttrValue)], key: &str) -> Option<&'a AttrValue> {
    attrs.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// One completed span or instant in the flight recorder.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Unique nonzero id.
    pub id: u64,
    /// Enclosing span id, 0 for roots.
    pub parent: u64,
    pub name: &'static str,
    pub kind: RecordKind,
    /// Per-thread ordinal (Chrome `tid`).
    pub thread: u64,
    /// Block epoch current when the record was written (see [`begin_epoch`]).
    pub epoch: u64,
    /// Start, microseconds on the shared trace clock ([`now_micros`]).
    pub start_micros: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_micros: u64,
    /// Key/value attributes (`tx`, `reason`, `role`, …).
    pub attrs: Attrs,
}

impl TraceRecord {
    /// End of the record's interval.
    pub fn end_micros(&self) -> u64 {
        self.start_micros.saturating_add(self.dur_micros)
    }

    /// The value of attribute `key`, if present (last write wins).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        find_attr(&self.attrs, key)
    }
}

/// Stripe count for the recorder. Power of two, sized for the handful of
/// shard/worker threads a node runs.
const TRACE_STRIPES: usize = 8;

/// Default total record capacity (across stripes): a backstop. Retention
/// should bind first, and on the skewed stripes too: the dispatching
/// thread's stripe takes a third of each `ft_transfer` epoch's records plus
/// a shard thread's share every fourth epoch (≈20 000 over 8 epochs), so
/// its 1/8 share of this total must exceed that. Measured on `ft_transfer`
/// (2 000 transactions an epoch): 2¹⁸ holds exactly 8 epochs (48 072
/// records); 2¹⁷ and 2¹⁶ evict by capacity (44 462 and 36 130 resident).
const DEFAULT_CAPACITY: usize = 1 << 18;

/// Default epoch retention window. The consumers read few epochs:
/// `paper -- trace` drains after each run, whose setup and 2–3 measured
/// epochs carry up to five epoch tags (a window of 4 loses NFT transfer's
/// setup lifecycles); the chain's lifecycle tests read one epoch and
/// `cosplit-cli trace` runs none. Each epoch of `ft_transfer` leaves
/// ≈6 000 records, so the window, not [`DEFAULT_CAPACITY`], decides what
/// stays resident: 48 000 records instead of a full 262 144-record ring,
/// which kept evicting the executor's working set from cache.
const DEFAULT_RETAIN_EPOCHS: u64 = 8;

/// Records that arrived back to back under one epoch tag, oldest first.
struct Segment {
    epoch: u64,
    records: VecDeque<TraceRecord>,
}

/// One stripe of the recorder: its records in arrival order, as a queue of
/// segments. Concatenating the segments gives the arrival order, so
/// evicting from the front of the first segment is evicting the oldest
/// record, and a retention pass can drop whole segments by their tag.
#[derive(Default)]
struct Stripe {
    segments: VecDeque<Segment>,
    len: usize,
}

impl Stripe {
    fn push(&mut self, rec: TraceRecord) {
        match self.segments.back_mut() {
            Some(seg) if seg.epoch == rec.epoch => seg.records.push_back(rec),
            _ => {
                self.segments.push_back(Segment { epoch: rec.epoch, records: VecDeque::from([rec]) })
            }
        }
        self.len += 1;
    }

    /// Evicts the oldest record.
    fn pop_oldest(&mut self) {
        if let Some(seg) = self.segments.front_mut() {
            seg.records.pop_front();
            self.len -= 1;
            if seg.records.is_empty() {
                self.segments.pop_front();
            }
        }
    }

    /// Drops every segment tagged before `oldest`, wherever it sits (tags
    /// need not ascend: a second network in one process restarts at block
    /// 0). Returns the number of records dropped.
    fn prune_before(&mut self, oldest: u64) -> usize {
        let before = self.len;
        self.segments.retain(|seg| seg.epoch >= oldest);
        self.len = self.segments.iter().map(|seg| seg.records.len()).sum();
        before - self.len
    }

    fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.segments.iter().flat_map(|seg| seg.records.iter())
    }

    fn take(&mut self) -> impl Iterator<Item = TraceRecord> {
        self.len = 0;
        std::mem::take(&mut self.segments).into_iter().flat_map(|seg| seg.records)
    }
}

/// Bounded thread-striped buffer holding the last N epochs of trace
/// records. One uncontended mutex acquisition per record; stripes are
/// keyed by thread so shard executors write in parallel.
pub struct FlightRecorder {
    stripes: Vec<Mutex<Stripe>>,
    stripe_capacity: AtomicUsize,
    retain_epochs: AtomicU64,
    epoch: AtomicU64,
}

/// The global flight recorder (created on first use).
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder {
        stripes: (0..TRACE_STRIPES).map(|_| Mutex::new(Stripe::default())).collect(),
        stripe_capacity: AtomicUsize::new(DEFAULT_CAPACITY / TRACE_STRIPES),
        retain_epochs: AtomicU64::new(DEFAULT_RETAIN_EPOCHS),
        epoch: AtomicU64::new(0),
    })
}

impl FlightRecorder {
    fn stripe(&self, i: usize) -> std::sync::MutexGuard<'_, Stripe> {
        self.stripes[i].lock().expect("trace stripe lock")
    }

    /// Reconfigures the ring: total record capacity and how many recent
    /// epochs [`begin_epoch`] retains.
    pub fn configure(&self, total_capacity: usize, retain_epochs: u64) {
        self.stripe_capacity
            .store((total_capacity / TRACE_STRIPES).max(1), Ordering::Relaxed);
        self.retain_epochs.store(retain_epochs.max(1), Ordering::Relaxed);
    }

    /// The epoch tag new records receive.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Advances the recorder's epoch and drops the segments that fell out
    /// of the retention window (counted in `telemetry.trace.dropped`).
    pub fn begin_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        let retain = self.retain_epochs.load(Ordering::Relaxed);
        let oldest = epoch.saturating_sub(retain.saturating_sub(1));
        let pruned: usize = (0..TRACE_STRIPES).map(|i| self.stripe(i).prune_before(oldest)).sum();
        if pruned > 0 {
            crate::counter!(names::TRACE_DROPPED).add(pruned as u64);
        }
    }

    /// Appends one record, evicting the stripe's oldest past capacity.
    pub fn record(&self, rec: TraceRecord) {
        crate::counter!(names::TRACE_RECORDS).inc();
        let cap = self.stripe_capacity.load(Ordering::Relaxed);
        let mut stripe = self.stripe((thread_ordinal() as usize) % TRACE_STRIPES);
        let mut evicted = 0u64;
        while stripe.len >= cap {
            stripe.pop_oldest();
            evicted += 1;
        }
        stripe.push(rec);
        drop(stripe);
        if evicted > 0 {
            crate::counter!(names::TRACE_DROPPED).add(evicted);
        }
    }

    /// A copy of every buffered record, sorted by start time.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for i in 0..TRACE_STRIPES {
            out.extend(self.stripe(i).records().cloned());
        }
        out.sort_by_key(|r| (r.start_micros, r.id));
        out
    }

    /// Removes and returns every buffered record, sorted by start time.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for i in 0..TRACE_STRIPES {
            out.extend(self.stripe(i).take());
        }
        out.sort_by_key(|r| (r.start_micros, r.id));
        out
    }

    /// Discards every buffered record (no drop accounting — this is the
    /// harness resetting between runs, not backpressure).
    pub fn clear(&self) {
        for i in 0..TRACE_STRIPES {
            *self.stripe(i) = Stripe::default();
        }
    }

    /// Buffered record count.
    pub fn len(&self) -> usize {
        (0..TRACE_STRIPES).map(|i| self.stripe(i).len).sum()
    }

    /// Is the recorder empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Advances the global recorder's epoch (see [`FlightRecorder::begin_epoch`]).
/// A no-op while tracing is disabled.
pub fn begin_epoch(epoch: u64) {
    if tracing_enabled() {
        recorder().begin_epoch(epoch);
    }
}

/// Writes a completed span record (called by `SpanGuard::drop`). `start`
/// and `end` are the guard's own clock readings, the same two that time its
/// histogram sample, so a child's interval is always contained in its
/// parent's.
pub(crate) fn record_span(
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
    attrs: Attrs,
) {
    let start_micros = micros_at(start);
    let recorder = recorder();
    recorder.record(TraceRecord {
        id,
        parent,
        name,
        kind: RecordKind::Span,
        thread: thread_ordinal(),
        epoch: recorder.current_epoch(),
        start_micros,
        dur_micros: micros_at(end).saturating_sub(start_micros),
        attrs,
    });
}

/// Records a point event with lazily built attributes. The closure only
/// runs when tracing is enabled, so the disabled path neither formats nor
/// allocates:
///
/// ```ignore
/// trace::instant_with(names::TX_DISPATCH, |a| {
///     a.push(("tx", tx.id.into()));
///     a.push(("reason", reason.name().into()));
/// });
/// ```
pub fn instant_with(name: &'static str, fill: impl FnOnce(&mut Attrs)) {
    if !tracing_enabled() {
        return;
    }
    let mut attrs = Vec::new();
    fill(&mut attrs);
    let recorder = recorder();
    recorder.record(TraceRecord {
        id: next_span_id(),
        parent: current_span(),
        name,
        kind: RecordKind::Instant,
        thread: thread_ordinal(),
        epoch: recorder.current_epoch(),
        start_micros: now_micros(),
        dur_micros: 0,
        attrs,
    });
}

// ---------------------------------------------------------------------------
// Well-formedness.

/// Checks that `records` form well-formed span trees: unique nonzero ids,
/// every nonzero parent resolves to a present record, no parent cycles,
/// and every child's interval is contained in its parent's.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_span_tree(records: &[TraceRecord]) -> Result<(), String> {
    let mut by_id: BTreeMap<u64, &TraceRecord> = BTreeMap::new();
    for r in records {
        if r.id == 0 {
            return Err(format!("record '{}' has id 0", r.name));
        }
        if by_id.insert(r.id, r).is_some() {
            return Err(format!("duplicate span id {} ('{}')", r.id, r.name));
        }
    }
    for r in records {
        if r.parent == 0 {
            continue;
        }
        let parent = by_id
            .get(&r.parent)
            .ok_or_else(|| format!("span {} ('{}') has missing parent {}", r.id, r.name, r.parent))?;
        if r.start_micros < parent.start_micros || r.end_micros() > parent.end_micros() {
            return Err(format!(
                "span {} ('{}') interval [{}, {}] escapes parent {} ('{}') [{}, {}]",
                r.id,
                r.name,
                r.start_micros,
                r.end_micros(),
                parent.id,
                parent.name,
                parent.start_micros,
                parent.end_micros(),
            ));
        }
        // Walk to the root; more hops than records means a cycle.
        let mut cursor = r.parent;
        let mut hops = 0usize;
        while cursor != 0 {
            hops += 1;
            if hops > records.len() {
                return Err(format!("parent cycle reachable from span {} ('{}')", r.id, r.name));
            }
            cursor = by_id.get(&cursor).map_or(0, |p| p.parent);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-transaction lifecycle assembly.

/// One stage of a transaction's lifecycle (a record that carried its `tx`
/// attribute), in time order.
#[derive(Debug, Clone)]
pub struct TxStage {
    pub name: &'static str,
    pub epoch: u64,
    pub at_micros: u64,
    pub dur_micros: u64,
    pub attrs: Attrs,
}

impl TxStage {
    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        find_attr(&self.attrs, key)
    }
}

/// The assembled lifecycle of one transaction: every traced stage it went
/// through, in time order (dispatch decision, executor span, defers,
/// held-back hops, re-dispatches after deferral).
#[derive(Debug, Clone)]
pub struct TxLifecycle {
    pub tx_id: u64,
    pub stages: Vec<TxStage>,
}

impl TxLifecycle {
    /// The text of the last `key` attribute on a `stage_name` stage.
    fn last_attr(&self, stage_name: &str, key: &str) -> Option<&str> {
        self.stages
            .iter()
            .rev()
            .filter(|s| s.name == stage_name)
            .find_map(|s| s.attr(key))
            .and_then(AttrValue::as_str)
    }

    /// The dispatch reason that last routed this transaction (the
    /// sharding-signature verdict, `DispatchReason::name()`).
    pub fn dispatch_reason(&self) -> Option<&str> {
        self.last_attr(names::TX_DISPATCH, "reason")
    }

    /// Where the transaction last executed (`"ds"` or `"shard<i>"`).
    pub fn assignment(&self) -> Option<&str> {
        self.last_attr(names::TX_EXEC, "role")
    }

    /// Scilla transition called, when the dispatch stage recorded one.
    pub fn transition(&self) -> Option<&str> {
        self.last_attr(names::TX_DISPATCH, "transition")
    }

    /// Final execution status (`"success"`, `"failed:…"`, …).
    pub fn outcome(&self) -> Option<&str> {
        self.last_attr(names::TX_EXEC, "status")
    }

    /// Extra trips through the pipeline before the final execution:
    /// held-back hops, executor deferrals, and re-dispatches.
    pub fn hops(&self) -> usize {
        let held = self.stages.iter().filter(|s| s.name == names::TX_HELD_BACK).count();
        let defers = self.stages.iter().filter(|s| s.name == names::TX_DEFER).count();
        let dispatches = self.stages.iter().filter(|s| s.name == names::TX_DISPATCH).count();
        held + defers + dispatches.saturating_sub(1)
    }

    /// Did the transaction commit (final execution succeeded)?
    pub fn committed(&self) -> bool {
        self.outcome() == Some("success")
    }

    /// A committed transaction's chain is complete when a reason-attributed
    /// dispatch decision precedes the successful execution — the acceptance
    /// shape for the lifecycle export.
    ///
    /// A transaction committed by the cross-shard 2PC stage (executor role
    /// `"xshard"`) additionally needs the full protocol chain: a prepare
    /// hop, at least one vote per prepare's participant count, and a commit
    /// hop, none of them earlier than the dispatch decision.
    pub fn complete_commit_chain(&self) -> bool {
        if !self.committed() {
            return false;
        }
        let exec_at = self
            .stages
            .iter()
            .rev()
            .find(|s| {
                s.name == names::TX_EXEC && s.attr("status").and_then(AttrValue::as_str) == Some("success")
            })
            .map(|s| s.at_micros);
        let Some(exec_at) = exec_at else { return false };
        let dispatched = self.stages.iter().any(|s| {
            s.name == names::TX_DISPATCH && s.attr("reason").is_some() && s.at_micros <= exec_at
        });
        if !dispatched {
            return false;
        }
        if self.assignment() != Some("xshard") {
            return true;
        }
        // The committing attempt's protocol hops: the *last* commit hop,
        // the prepare that precedes it, and that prepare's votes (earlier
        // aborted attempts may have left partial hop sets behind).
        let Some(commit_at) =
            self.stages.iter().rev().find(|s| s.name == names::TX_XSHARD_COMMIT).map(|s| s.at_micros)
        else {
            return false;
        };
        let prepare = self
            .stages
            .iter()
            .rev()
            .find(|s| s.name == names::TX_XSHARD_PREPARE && s.at_micros <= commit_at);
        let Some(prepare) = prepare else { return false };
        let participants =
            prepare.attr("participants").and_then(AttrValue::as_u64).unwrap_or(1) as usize;
        let votes = self
            .stages
            .iter()
            .filter(|s| {
                s.name == names::TX_XSHARD_VOTE
                    && s.at_micros >= prepare.at_micros
                    && s.at_micros <= commit_at
            })
            .count();
        votes >= participants
    }
}

/// Groups records carrying a numeric `tx` attribute into per-transaction
/// lifecycles, each stage list in time order, transactions by id.
pub fn build_lifecycles(records: &[TraceRecord]) -> Vec<TxLifecycle> {
    let mut by_tx: BTreeMap<u64, Vec<TxStage>> = BTreeMap::new();
    for r in records {
        let Some(tx) = r.attr("tx").and_then(AttrValue::as_u64) else { continue };
        by_tx.entry(tx).or_default().push(TxStage {
            name: r.name,
            epoch: r.epoch,
            at_micros: r.start_micros,
            dur_micros: r.dur_micros,
            attrs: r.attrs.clone(),
        });
    }
    by_tx
        .into_iter()
        .map(|(tx_id, mut stages)| {
            stages.sort_by_key(|s| s.at_micros);
            TxLifecycle { tx_id, stages }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Exporters.

fn push_escaped(out: &mut String, s: &str) {
    crate::json::write_escaped(out, s);
}

/// Renders one attribute value as a JSON string. Only label and text
/// values can need escaping; numbers, flags and addresses are written
/// straight into the output.
fn push_attr_value(out: &mut String, v: &AttrValue) {
    match v.as_str() {
        Some(s) => push_escaped(out, s),
        None => {
            let _ = write!(out, "\"{v}\"");
        }
    }
}

fn push_attrs_object(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(out, k);
        out.push(':');
        push_attr_value(out, v);
    }
    out.push('}');
}

/// Renders records as Chrome `trace_event` JSON — load the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>. Spans become complete
/// (`"ph":"X"`) events, instants become instant (`"ph":"i"`) events;
/// span/parent ids and the epoch ride along in `args`.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        push_escaped(&mut out, r.name);
        out.push_str(",\"cat\":\"cosplit\",\"pid\":1,\"tid\":");
        out.push_str(&r.thread.to_string());
        out.push_str(&format!(",\"ts\":{}", r.start_micros));
        match r.kind {
            RecordKind::Span => out.push_str(&format!(",\"ph\":\"X\",\"dur\":{}", r.dur_micros)),
            RecordKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        out.push_str(&format!(
            ",\"args\":{{\"span_id\":\"{}\",\"parent\":\"{}\",\"epoch\":{},\"attrs\":",
            r.id, r.parent, r.epoch
        ));
        push_attrs_object(&mut out, &r.attrs);
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Renders assembled lifecycles as JSON: one object per transaction with
/// the derived verdicts (`reason`, `assignment`, `outcome`, `hops`,
/// `complete`) and the full stage list.
pub fn lifecycle_json(lifecycles: &[TxLifecycle]) -> String {
    let opt = |out: &mut String, v: Option<&str>| match v {
        Some(s) => push_escaped(out, s),
        None => out.push_str("null"),
    };
    let mut out = String::from("{\"transactions\":[");
    for (i, lc) in lifecycles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n{{\"tx\":{},\"reason\":", lc.tx_id));
        opt(&mut out, lc.dispatch_reason());
        out.push_str(",\"assignment\":");
        opt(&mut out, lc.assignment());
        out.push_str(",\"transition\":");
        opt(&mut out, lc.transition());
        out.push_str(",\"outcome\":");
        opt(&mut out, lc.outcome());
        out.push_str(&format!(
            ",\"hops\":{},\"committed\":{},\"complete\":{},\"stages\":[",
            lc.hops(),
            lc.committed(),
            lc.complete_commit_chain()
        ));
        for (j, s) in lc.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_escaped(&mut out, s.name);
            out.push_str(&format!(
                ",\"epoch\":{},\"ts\":{},\"dur\":{},\"attrs\":",
                s.epoch, s.at_micros, s.dur_micros
            ));
            push_attrs_object(&mut out, &s.attrs);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}
