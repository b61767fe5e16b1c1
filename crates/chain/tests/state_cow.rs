//! Telemetry-audited zero-copy guarantees of the CoW state layer: overlay
//! writes over a large base and epoch-snapshotting `GlobalState` must not
//! deep-copy a single map node.

use chain::state::GlobalState;
use chain::address::Address;
use scilla::state::{CowState, InMemoryState, StateStore};
use scilla::value::Value;
use std::sync::{Arc, Mutex};
use telemetry::names;

/// Serialises tests in this binary: telemetry counters are process-global.
static TELEMETRY_GUARD: Mutex<()> = Mutex::new(());

fn key(i: u64) -> Value {
    Value::Uint(128, i as u128)
}

/// A base store with one large map field plus a few scalars — the shape of
/// a token contract with `n` holders.
fn big_base(n: u64) -> Arc<InMemoryState> {
    let mut s = InMemoryState::new();
    for i in 0..n {
        s.set("balances".into(), &[key(i)], Some(Value::Uint(128, 1_000)));
    }
    s.set("total_supply".into(), &[], Some(Value::Uint(128, 1_000 * n as u128)));
    s.set("owner".into(), &[], Some(Value::Str("genesis".into())));
    Arc::new(s)
}

fn counters() -> telemetry::Snapshot {
    telemetry::registry().snapshot()
}

#[test]
fn overlay_writes_over_large_base_copy_zero_bytes() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let mut working = CowState::new(big_base(10_000));

    let before = counters();
    // Eighty overlay entries over the 10k-entry base: none of the base
    // entries moves, and reads through the overlay stay clone-free too.
    for t in 0..80u64 {
        working.set("balances".into(), &[key(t)], Some(Value::Uint(128, t as u128)));
        assert!(working.exists("balances".into(), &[key(9_999)]));
        let untouched = working.get("balances".into(), &[key(9_999)]);
        assert_eq!(untouched, Some(Value::Uint(128, 1_000)));
    }
    let delta = counters().diff(&before);

    assert_eq!(delta.counter(names::STATE_COW_BREAKS), 0, "no shared map node was copied");
    assert_eq!(delta.counter(names::STATE_BYTES_CLONED), 0, "overlay writes are O(writes)");
}

#[test]
fn global_state_epoch_snapshot_shares_storage() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let mut state = GlobalState::new();
    let contract = Address::from_index(7);
    state.storage.insert(contract, big_base(10_000));

    let before = counters();
    // The per-shard epoch snapshot the executor takes is a plain clone of
    // GlobalState: per-contract stores are Arc-shared, not deep-copied.
    let epoch_view = state.clone();
    let delta = counters().diff(&before);

    assert!(Arc::ptr_eq(&state.storage[&contract], &epoch_view.storage[&contract]));
    assert_eq!(delta.counter(names::STATE_COW_BREAKS), 0);
    assert_eq!(delta.counter(names::STATE_BYTES_CLONED), 0);

    // A shard-side overlay write never reaches the snapshot's base.
    let mut shard = CowState::new(Arc::clone(&epoch_view.storage[&contract]));
    shard.set("balances".into(), &[key(3)], Some(Value::Uint(128, 0)));
    assert_eq!(
        state.storage[&contract].get("balances".into(), &[key(3)]),
        Some(Value::Uint(128, 1_000))
    );
}

#[test]
fn delete_after_a_materialising_insert_copies_zero_bytes() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    // `items[owner][0]` for 10 000 owners: the shape of a registry keyed by
    // owner, then by item.
    let mut s = InMemoryState::new();
    for i in 0..10_000 {
        s.set("items".into(), &[key(i), key(0)], Some(Value::Uint(32, 1)));
    }
    let base = Arc::new(s);
    let mut working = CowState::new(Arc::clone(&base));
    let fresh = [key(10_000), key(1)];

    let before = counters();
    // A new owner registers an item and removes it in the same batch: the
    // insert creates `items[fresh]`, which the delete must leave in place.
    working.set("items".into(), &fresh, Some(Value::Uint(32, 1)));
    working.set("items".into(), &fresh, None);
    let delta = counters().diff(&before);

    assert!(working.exists("items".into(), &fresh[..1]), "the owner's map stays");
    assert_eq!(delta.counter(names::STATE_COW_BREAKS), 0, "no shared map node was copied");
    assert_eq!(delta.counter(names::STATE_BYTES_CLONED), 0, "the delete is O(path)");

    let mut plain = (*base).clone();
    plain.set("items".into(), &fresh, Some(Value::Uint(32, 1)));
    plain.set("items".into(), &fresh, None);
    assert_eq!(working.snapshot(), plain);
}
