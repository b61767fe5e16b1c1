//! The benchmark's own in-memory spans: one around each call into a layer.
//!
//! Spans live in a `Vec` until the run ends; the per-layer table and the
//! Chrome `trace_event` artefact are both derived from that one list, so
//! they cannot disagree. A disabled tracer records nothing — the timed pass
//! runs the same code with `on == false`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `epoch` is the identifier all spans of one epoch (or
/// deploy round) share; `parent` indexes into the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder with an explicit open-span stack (single-threaded: the
/// benchmark's generator thread is the only caller).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: how often, how long, and how long excluding children.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Pair with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, epoch: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        let parent = self.open.iter().rev().nth(1).copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            epoch,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, epoch);
        let out = f();
        self.end();
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// The self-time table: a span's duration minus what its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += s.dur_ns().saturating_sub(children);
        }
        table
    }

    /// Chrome `trace_event` JSON (complete events, microsecond timestamps).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"epoch\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.epoch,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
