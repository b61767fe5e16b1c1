//! Integration tests for the structured-tracing subsystem: span-tree
//! well-formedness, cross-thread adoption, lifecycle assembly, recorder
//! bounds, the JSON exporters, and the disabled-path zero-record audit.
//!
//! Tracing state (the enable flag, the global recorder, the drop counters)
//! is process-global, so every test serialises on one mutex and resets the
//! recorder around itself — same idiom as the chain crate's `state_cow.rs`.

use serde_json::Value;
use std::sync::{Mutex, MutexGuard, OnceLock};
use telemetry::trace::{self, AttrValue, RecordKind, TraceRecord};
use telemetry::{names, registry};

fn trace_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    trace::set_tracing(true);
    trace::recorder().configure(1 << 18, 64);
    trace::recorder().clear();
    guard
}

fn find<'a>(records: &'a [TraceRecord], name: &str) -> &'a TraceRecord {
    records.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("no record '{name}'"))
}

#[test]
fn nested_spans_link_parent_and_child() {
    let _guard = trace_guard();
    {
        let mut outer = telemetry::span!("test.outer");
        outer.attr("k", "v");
        {
            let _inner = telemetry::span!("test.inner");
        }
    }
    trace::set_tracing(false);
    let records = trace::recorder().drain();
    trace::validate_span_tree(&records).expect("well-formed tree");

    let outer = find(&records, "test.outer");
    let inner = find(&records, "test.inner");
    assert_eq!(outer.parent, 0, "outer span is a root");
    assert_eq!(inner.parent, outer.id, "inner span links to the enclosing guard");
    assert_eq!(outer.attr("k"), Some(&AttrValue::Str("v")));
    assert!(inner.start_micros >= outer.start_micros);
    assert!(inner.end_micros() <= outer.end_micros());
}

#[test]
fn sibling_spans_share_a_parent_and_instants_nest() {
    let _guard = trace_guard();
    {
        let _outer = telemetry::span!("test.root");
        {
            let _a = telemetry::span!("test.a");
            trace::instant_with("test.mark", |attrs| attrs.push(("tx", 7u64.into())));
        }
        let _b = telemetry::span!("test.b");
    }
    trace::set_tracing(false);
    let records = trace::recorder().drain();
    trace::validate_span_tree(&records).expect("well-formed tree");

    let root = find(&records, "test.root");
    let a = find(&records, "test.a");
    let b = find(&records, "test.b");
    let mark = find(&records, "test.mark");
    assert_eq!(a.parent, root.id);
    assert_eq!(b.parent, root.id);
    assert_eq!(mark.parent, a.id, "instant nests under the innermost open span");
    assert_eq!(mark.kind, RecordKind::Instant);
    assert_eq!(mark.attr("tx"), Some(&AttrValue::U64(7)));
}

#[test]
fn adopt_parent_stitches_spawned_threads_under_the_spawner() {
    let _guard = trace_guard();
    {
        let outer = telemetry::span!("test.spawner");
        let parent = outer.trace_id();
        assert_ne!(parent, 0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    let _adopt = trace::adopt_parent(parent);
                    let _w = telemetry::span!("test.worker");
                });
            }
        });
    }
    trace::set_tracing(false);
    let records = trace::recorder().drain();
    trace::validate_span_tree(&records).expect("cross-thread tree is well-formed");

    let outer = find(&records, "test.spawner");
    let workers: Vec<&TraceRecord> = records.iter().filter(|r| r.name == "test.worker").collect();
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(w.parent, outer.id, "worker adopted the spawner as parent");
        assert!(w.start_micros >= outer.start_micros && w.end_micros() <= outer.end_micros());
    }
}

fn rec(id: u64, parent: u64, start: u64, dur: u64) -> TraceRecord {
    TraceRecord {
        id,
        parent,
        name: "synthetic",
        kind: RecordKind::Span,
        thread: 1,
        epoch: 0,
        start_micros: start,
        dur_micros: dur,
        attrs: Vec::new(),
    }
}

#[test]
fn validator_rejects_malformed_forests() {
    // Missing parent.
    assert!(trace::validate_span_tree(&[rec(2, 1, 0, 10)]).is_err());
    // Duplicate ids.
    assert!(trace::validate_span_tree(&[rec(1, 0, 0, 10), rec(1, 0, 5, 1)]).is_err());
    // Zero id.
    assert!(trace::validate_span_tree(&[rec(0, 0, 0, 10)]).is_err());
    // Child interval escaping the parent's.
    assert!(trace::validate_span_tree(&[rec(1, 0, 10, 10), rec(2, 1, 15, 10)]).is_err());
    assert!(trace::validate_span_tree(&[rec(1, 0, 10, 10), rec(2, 1, 5, 2)]).is_err());
    // Parent cycle.
    let mut x = rec(1, 2, 0, 10);
    let mut y = rec(2, 1, 0, 10);
    x.parent = 2;
    y.parent = 1;
    assert!(trace::validate_span_tree(&[x, y]).is_err());
    // A proper forest passes.
    assert!(trace::validate_span_tree(&[rec(1, 0, 0, 10), rec(2, 1, 2, 3), rec(3, 0, 20, 5)])
        .is_ok());
}

#[test]
fn lifecycles_assemble_dispatch_and_execution_stages() {
    let attr = |k: &'static str, v: &'static str| (k, AttrValue::Str(v));
    let tx = |id: u64| ("tx", AttrValue::U64(id));
    let mut dispatch = rec(1, 0, 100, 0);
    dispatch.name = names::TX_DISPATCH;
    dispatch.kind = RecordKind::Instant;
    dispatch.attrs =
        vec![tx(42), attr("reason", "ownership"), attr("assign", "shard1")];
    let mut exec = rec(2, 0, 200, 50);
    exec.name = names::TX_EXEC;
    exec.attrs = vec![tx(42), attr("role", "shard1"), attr("status", "success")];
    let mut failed = rec(3, 0, 300, 10);
    failed.name = names::TX_EXEC;
    failed.attrs = vec![tx(43), attr("role", "ds"), attr("status", "failed:no gas")];

    let lifecycles = trace::build_lifecycles(&[dispatch, exec, failed]);
    assert_eq!(lifecycles.len(), 2);

    let committed = &lifecycles[0];
    assert_eq!(committed.tx_id, 42);
    assert_eq!(committed.dispatch_reason(), Some("ownership"));
    assert_eq!(committed.assignment(), Some("shard1"));
    assert_eq!(committed.outcome(), Some("success"));
    assert!(committed.committed());
    assert!(committed.complete_commit_chain());
    assert_eq!(committed.hops(), 0);

    // No dispatch stage and a failed outcome: neither committed nor complete.
    let aborted = &lifecycles[1];
    assert_eq!(aborted.tx_id, 43);
    assert!(!aborted.committed());
    assert!(!aborted.complete_commit_chain());
    assert_eq!(aborted.outcome(), Some("failed:no gas"));
}

#[test]
fn recorder_capacity_evictions_are_bounded_and_counted() {
    let _guard = trace_guard();
    trace::recorder().configure(16, 64);
    let before = registry().snapshot();
    for i in 0..100u64 {
        trace::instant_with("test.flood", |attrs| attrs.push(("i", i.into())));
    }
    let delta = registry().snapshot().diff(&before);
    trace::set_tracing(false);
    let records = trace::recorder().drain();
    trace::recorder().configure(1 << 18, 64);

    assert!(records.len() <= 16, "capacity bounds the buffer ({} records)", records.len());
    assert_eq!(delta.counter(names::TRACE_RECORDS), 100, "every write was counted");
    assert_eq!(
        delta.counter(names::TRACE_DROPPED),
        100 - records.len() as u64,
        "every eviction was counted"
    );
    // The newest record survived.
    assert!(records.iter().any(|r| r.attr("i") == Some(&AttrValue::U64(99))));
}

#[test]
fn epoch_retention_prunes_old_epochs_and_counts_drops() {
    let _guard = trace_guard();
    trace::recorder().configure(1 << 18, 4);
    let before = registry().snapshot();
    trace::begin_epoch(1);
    trace::instant_with("test.old", |_| {});
    trace::begin_epoch(2);
    trace::instant_with("test.older", |_| {});
    // Epoch 10 with a 4-epoch window retains epochs 7..=10 only.
    trace::begin_epoch(10);
    trace::instant_with("test.fresh", |_| {});
    let delta = registry().snapshot().diff(&before);
    trace::set_tracing(false);
    let records = trace::recorder().drain();
    trace::recorder().configure(1 << 18, 64);

    assert_eq!(records.len(), 1, "only the in-window record survives");
    assert_eq!(records[0].name, "test.fresh");
    assert_eq!(records[0].epoch, 10);
    assert_eq!(delta.counter(names::TRACE_DROPPED), 2, "pruned records are counted");
}

#[test]
fn retention_drops_out_of_window_segments_even_behind_newer_ones() {
    let _guard = trace_guard();
    trace::recorder().configure(1 << 18, 4);
    let before = registry().snapshot();
    trace::begin_epoch(10);
    trace::instant_with("test.ten", |_| {});
    // Tags need not ascend: a second network in the process restarts at
    // block 0, so an old epoch's segment can follow a newer one.
    trace::begin_epoch(3);
    trace::instant_with("test.three", |_| {});
    // Epoch 12 with a 4-epoch window retains epochs 9..=12: the epoch-10
    // segment stays although an out-of-window segment sits behind it.
    trace::begin_epoch(12);
    let delta = registry().snapshot().diff(&before);
    trace::set_tracing(false);
    let records = trace::recorder().drain();
    trace::recorder().configure(1 << 18, 64);

    let names: Vec<&str> = records.iter().map(|r| r.name).collect();
    assert_eq!(names, ["test.ten"], "only the in-window record survives");
    assert_eq!(delta.counter(names::TRACE_DROPPED), 1, "exactly the pruned record is counted");
}

#[test]
fn capacity_evictions_span_epoch_segments() {
    let _guard = trace_guard();
    trace::recorder().configure(16, 64);
    let before = registry().snapshot();
    let mut written = 0u64;
    for epoch in 1..=3u64 {
        trace::begin_epoch(epoch);
        for _ in 0..10 {
            trace::instant_with("test.segmented", |attrs| attrs.push(("i", written.into())));
            written += 1;
        }
    }
    let delta = registry().snapshot().diff(&before);
    trace::set_tracing(false);
    let records = trace::recorder().drain();
    trace::recorder().configure(1 << 18, 64);

    assert!(records.len() <= 16, "capacity bounds the buffer ({} records)", records.len());
    assert_eq!(delta.counter(names::TRACE_RECORDS), written, "every write was counted");
    assert_eq!(
        delta.counter(names::TRACE_DROPPED),
        written - records.len() as u64,
        "every eviction was counted"
    );
    let newest = records.iter().find(|r| r.attr("i") == Some(&AttrValue::U64(written - 1)));
    assert_eq!(newest.map(|r| r.epoch), Some(3), "the newest record survived");
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = trace_guard();
    trace::set_tracing(false);
    let before = registry().snapshot();
    {
        let mut s = telemetry::span!("test.dark");
        s.attr("expensive", "ignored");
        assert_eq!(s.trace_id(), 0, "no span id is allocated while tracing is off");
        trace::instant_with("test.dark_instant", |_| panic!("closure must not run"));
        trace::begin_epoch(99);
    }
    let delta = registry().snapshot().diff(&before);
    assert!(trace::recorder().is_empty(), "nothing reached the recorder");
    assert_eq!(delta.counter(names::TRACE_RECORDS), 0);
    assert_eq!(delta.counter(names::TRACE_DROPPED), 0);
    assert_eq!(trace::current_span(), 0, "span stack stays empty");
}

#[test]
fn exporters_emit_valid_json() {
    let _guard = trace_guard();
    {
        let mut outer = telemetry::span!("test.export");
        outer.attr("quote", "say \"hi\"\n\\done");
        trace::instant_with(names::TX_DISPATCH, |attrs| {
            attrs.push(("tx", 3u64.into()));
            attrs.push(("reason", "ownership".into()));
        });
        let mut exec = telemetry::span!(names::TX_EXEC);
        exec.attr("tx", 3u64);
        exec.attr("role", "shard0");
        exec.attr("status", "success");
    }
    trace::set_tracing(false);
    let records = trace::recorder().drain();

    let chrome: Value =
        serde_json::from_str(&trace::chrome_trace_json(&records)).expect("chrome export parses");
    let events = chrome["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), records.len());
    let phases: Vec<&str> = events.iter().filter_map(|e| e["ph"].as_str()).collect();
    assert_eq!(phases.iter().filter(|&&p| p == "X").count(), 2, "two spans");
    assert_eq!(phases.iter().filter(|&&p| p == "i").count(), 1, "one instant");
    let outer = events.iter().find(|e| e["name"].as_str() == Some("test.export")).expect("outer span");
    assert_eq!(outer["args"]["attrs"]["quote"].as_str(), Some("say \"hi\"\n\\done"));

    let lifecycles = trace::build_lifecycles(&records);
    assert_eq!(lifecycles.len(), 1);
    assert!(lifecycles[0].complete_commit_chain());
    let exported: Value = serde_json::from_str(&trace::lifecycle_json(&lifecycles))
        .expect("lifecycle export parses");
    let txs = exported["transactions"].as_array().expect("transactions array");
    assert_eq!(txs.len(), 1);
    assert_eq!(txs[0]["tx"].as_u64(), Some(3));
    assert_eq!(txs[0]["complete"].as_bool(), Some(true));
    assert_eq!(txs[0]["stages"].as_array().map(Vec::len), Some(2));
}

#[test]
fn json_validator_accepts_and_rejects() {
    for good in [
        "null",
        "true",
        "-12.5e3",
        "\"a \\\"quoted\\\" string\\n\"",
        "[1, 2, {\"k\": [false, null]}]",
        "{\"a\": {\"b\": []}, \"c\": \"\\u00e9\"}",
    ] {
        serde_json::from_str::<Value>(good).unwrap_or_else(|e| panic!("rejected {good}: {e}"));
    }
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "{'a': 1}",
        "[1] trailing",
        "\"unterminated",
        "01",
        "{\"a\": \\u12}",
    ] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "accepted malformed JSON: {bad}");
    }
}
