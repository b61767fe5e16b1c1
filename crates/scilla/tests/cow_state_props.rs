//! Differential property tests for [`CowState`]: under any interleaving of
//! whole-field and map-entry reads/writes/deletes — including journal-style
//! rollback — the copy-on-write overlay must be observationally identical
//! to a plain deep-copied [`InMemoryState`].

use proptest::prelude::*;
use scilla::state::{CowState, InMemoryState, StateStore};
use scilla::value::Value;
use std::sync::Arc;

/// One step of a random op sequence. Mutations are applied to both stores;
/// reads are compared; `Checkpoint`/`Rollback` mirror the executor's
/// transaction journal (undo via recorded priors, applied to both stores).
#[derive(Debug, Clone)]
enum Op {
    Store(u8, u8),
    RemoveField(u8),
    MapUpdate(u8, Vec<u8>, u8),
    MapDelete(u8, Vec<u8>),
    Load(u8),
    MapGet(u8, Vec<u8>),
    MapExists(u8, Vec<u8>),
    Checkpoint,
    Rollback,
}

/// Journal-style undo record, captured before each mutation — exactly what
/// the executor's `TxJournal` stores. Undoing replays priors in reverse on
/// BOTH stores, so the test checks they stay equal through rollback (not
/// that rollback is a perfect inverse, which journal semantics don't
/// promise for implicitly-materialised intermediate maps).
#[derive(Debug, Clone)]
enum Undo {
    /// Prior whole-field value (`None`: field was absent).
    WholeField(u8, Option<Value>),
    /// Prior value at a map path (`None`: entry was absent).
    Component(u8, Vec<Value>, Option<Value>),
}

fn field_name(f: u8) -> &'static str {
    ["balances", "allowances", "owner", "total_supply"][f as usize % 4]
}

fn key(k: u8) -> Value {
    // A tiny key universe maximises collisions between overlay and base.
    // It mixes variants and `Str`s sharing a prefix, so writes to sibling
    // keys that sort next to each other (`"a"`, `"ab"`, `"b"`) or compare
    // across variants must each leave the others' entries as they were.
    match k % 7 {
        0 => Value::Uint(32, 0),
        1 => Value::Uint(32, 1),
        2 => Value::Str("a".into()),
        3 => Value::Str("ab".into()),
        4 => Value::Str("b".into()),
        5 => Value::ByStr(vec![1; 20]),
        _ => Value::ByStr(vec![2; 20]),
    }
}

fn keys(ks: &[u8]) -> Vec<Value> {
    ks.iter().map(|&k| key(k)).collect()
}

fn val(v: u8) -> Value {
    Value::Uint(128, v as u128)
}

fn path() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..5)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(f, v)| Op::Store(f, v)),
        any::<u8>().prop_map(Op::RemoveField),
        (any::<u8>(), path(), any::<u8>()).prop_map(|(f, p, v)| Op::MapUpdate(f, p, v)),
        (any::<u8>(), path()).prop_map(|(f, p)| Op::MapDelete(f, p)),
        any::<u8>().prop_map(Op::Load),
        (any::<u8>(), path()).prop_map(|(f, p)| Op::MapGet(f, p)),
        (any::<u8>(), path()).prop_map(|(f, p)| Op::MapExists(f, p)),
        Just(Op::Checkpoint),
        Just(Op::Rollback),
    ]
}

/// A populated base shared by both stores: nested maps plus scalars.
fn seeded_base() -> Arc<InMemoryState> {
    let mut s = InMemoryState::new();
    for k in 0..7u8 {
        s.map_update("balances".into(), &[key(k)], val(k));
        s.map_update("allowances".into(), &[key(k), key(k.wrapping_add(1))], val(100 + k));
    }
    s.store("owner".into(), Value::Str("genesis".into()));
    s.store("total_supply".into(), val(255));
    Arc::new(s)
}

fn undo_one(cow: &mut CowState, plain: &mut InMemoryState, undo: Undo) {
    match undo {
        Undo::WholeField(f, Some(v)) => {
            cow.store(field_name(f).into(), v.clone());
            plain.store(field_name(f).into(), v);
        }
        Undo::WholeField(f, None) => {
            cow.remove_field(field_name(f).into());
            plain.remove_field(field_name(f).into());
        }
        Undo::Component(f, path, Some(v)) => {
            cow.map_update(field_name(f).into(), &path, v.clone());
            plain.map_update(field_name(f).into(), &path, v);
        }
        Undo::Component(f, path, None) => {
            cow.map_delete(field_name(f).into(), &path);
            plain.map_delete(field_name(f).into(), &path);
        }
    }
}

fn full_state_eq(cow: &CowState, plain: &InMemoryState) -> Result<(), TestCaseError> {
    prop_assert_eq!(&*cow.snapshot(), plain);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn cow_state_matches_plain_store(ops in prop::collection::vec(op(), 1..=120)) {
        let base = seeded_base();
        let mut cow = CowState::new(Arc::clone(&base));
        let mut plain = (*base).clone();
        let mut undo: Vec<Undo> = Vec::new();
        let mut marks: Vec<usize> = Vec::new();

        for o in ops {
            match o {
                Op::Store(f, v) => {
                    undo.push(Undo::WholeField(f, plain.load(field_name(f).into())));
                    cow.store(field_name(f).into(), val(v));
                    plain.store(field_name(f).into(), val(v));
                }
                Op::RemoveField(f) => {
                    undo.push(Undo::WholeField(f, plain.load(field_name(f).into())));
                    cow.remove_field(field_name(f).into());
                    plain.remove_field(field_name(f).into());
                }
                Op::MapUpdate(f, p, v) => {
                    let p = keys(&p);
                    undo.push(Undo::Component(f, p.clone(), plain.map_get(field_name(f).into(), &p)));
                    cow.map_update(field_name(f).into(), &p, val(v));
                    plain.map_update(field_name(f).into(), &p, val(v));
                }
                Op::MapDelete(f, p) => {
                    let p = keys(&p);
                    undo.push(Undo::Component(f, p.clone(), plain.map_get(field_name(f).into(), &p)));
                    cow.map_delete(field_name(f).into(), &p);
                    plain.map_delete(field_name(f).into(), &p);
                }
                Op::Load(f) => {
                    prop_assert_eq!(cow.load(field_name(f).into()), plain.load(field_name(f).into()));
                }
                Op::MapGet(f, p) => {
                    let p = keys(&p);
                    prop_assert_eq!(
                        cow.map_get(field_name(f).into(), &p),
                        plain.map_get(field_name(f).into(), &p)
                    );
                }
                Op::MapExists(f, p) => {
                    let p = keys(&p);
                    prop_assert_eq!(
                        cow.map_exists(field_name(f).into(), &p),
                        plain.map_exists(field_name(f).into(), &p)
                    );
                }
                Op::Checkpoint => {
                    marks.push(undo.len());
                }
                Op::Rollback => {
                    let mark = marks.pop().unwrap_or(0);
                    while undo.len() > mark {
                        let u = undo.pop().expect("len checked");
                        undo_one(&mut cow, &mut plain, u);
                    }
                    full_state_eq(&cow, &plain)?;
                }
            }
        }
        // Final full-state equivalence: flattening the overlay reproduces
        // the deep-copied store exactly.
        full_state_eq(&cow, &plain)?;
        // And the shared base was never disturbed by any of it.
        prop_assert_eq!(&*base, &*seeded_base());
    }
}
