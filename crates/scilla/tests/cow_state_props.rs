//! Differential property tests for [`CowState`]: under any interleaving of
//! whole-field and map-entry reads/writes/deletes — including journal-style
//! rollback — the copy-on-write overlay must be observationally identical
//! to a plain deep-copied [`InMemoryState`]; and over well-typed fields,
//! rolling back a journal kept with [`undo_point`] restores both stores
//! exactly.

use proptest::prelude::*;
use scilla::intern::Sym;
use scilla::state::{undo_point, CowState, InMemoryState, StateStore};
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

/// Undo record for one mutation, captured before it: the field, the key
/// path (empty: the whole field) and the component's prior value (`None`:
/// absent). Undoing replays priors in reverse on BOTH stores, so the test
/// checks they stay equal through rollback. That rollback is an exact
/// inverse is asserted in the typed test,
/// `rollback_restores_the_checkpoint_exactly`: this test mixes scalars into
/// map fields, which a write replaces with maps no undo record restores.
#[derive(Debug, Clone)]
struct Undo(u8, Vec<Value>, Option<Value>);

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
        s.set("balances".into(), &[key(k)], Some(val(k)));
        s.set("allowances".into(), &[key(k), key(k.wrapping_add(1))], Some(val(100 + k)));
    }
    s.set("owner".into(), &[], Some(Value::Str("genesis".into())));
    s.set("total_supply".into(), &[], Some(val(255)));
    Arc::new(s)
}

fn undo_one(cow: &mut CowState, plain: &mut InMemoryState, Undo(f, path, prior): Undo) {
    cow.set(field_name(f).into(), &path, prior.clone());
    plain.set(field_name(f).into(), &path, prior);
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
                    undo.push(Undo(f, vec![], plain.get(field_name(f).into(), &[])));
                    cow.set(field_name(f).into(), &[], Some(val(v)));
                    plain.set(field_name(f).into(), &[], Some(val(v)));
                }
                Op::RemoveField(f) => {
                    undo.push(Undo(f, vec![], plain.get(field_name(f).into(), &[])));
                    cow.set(field_name(f).into(), &[], None);
                    plain.set(field_name(f).into(), &[], None);
                }
                Op::MapUpdate(f, p, v) => {
                    let p = keys(&p);
                    undo.push(Undo(f, p.clone(), plain.get(field_name(f).into(), &p)));
                    cow.set(field_name(f).into(), &p, Some(val(v)));
                    plain.set(field_name(f).into(), &p, Some(val(v)));
                }
                Op::MapDelete(f, p) => {
                    let p = keys(&p);
                    undo.push(Undo(f, p.clone(), plain.get(field_name(f).into(), &p)));
                    cow.set(field_name(f).into(), &p, None);
                    plain.set(field_name(f).into(), &p, None);
                }
                Op::Load(f) => {
                    let f: Sym = field_name(f).into();
                    prop_assert_eq!(cow.get(f, &[]), plain.get(f, &[]));
                }
                Op::MapGet(f, p) => {
                    let p = keys(&p);
                    prop_assert_eq!(
                        cow.get(field_name(f).into(), &p),
                        plain.get(field_name(f).into(), &p)
                    );
                }
                Op::MapExists(f, p) => {
                    let p = keys(&p);
                    prop_assert_eq!(
                        cow.exists(field_name(f).into(), &p),
                        plain.exists(field_name(f).into(), &p)
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

/// One step over well-typed fields: `balances` a one-level map,
/// `allowances` a two-level map and `total_supply` a scalar.
#[derive(Debug, Clone)]
enum TypedOp {
    Credit(u8, u8),
    Allow(u8, u8, u8),
    /// Removes an allowance leaf, or with `whole` the owner's whole map.
    Forget { owner: u8, spender: u8, whole: bool },
    Supply(u8),
    Checkpoint,
    Rollback,
}

fn typed_op() -> impl Strategy<Value = TypedOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| TypedOp::Credit(k, v)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(o, s, v)| TypedOp::Allow(o, s, v)),
        (any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(owner, spender, whole)| TypedOp::Forget { owner, spender, whole }),
        any::<u8>().prop_map(TypedOp::Supply),
        Just(TypedOp::Checkpoint),
        Just(TypedOp::Rollback),
    ]
}

/// A store with the executor's journal: each write records its
/// [`undo_point`], and rollback sets each recorded prefix back in reverse.
struct Journaled<S> {
    store: S,
    undo: Vec<(Sym, Vec<Value>, usize, Option<Value>)>,
}

impl<S: StateStore> Journaled<S> {
    fn set(&mut self, field: &str, keys: &[Value], value: Option<Value>) {
        let field = Sym::from(field);
        let (depth, prior) = undo_point(&self.store, field, keys);
        self.undo.push((field, keys.to_vec(), depth, prior));
        self.store.set(field, keys, value);
    }

    fn rollback(&mut self, mark: usize) {
        for (field, keys, depth, prior) in self.undo.drain(mark..).rev() {
            self.store.set(field, &keys[..depth], prior);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn rollback_restores_the_checkpoint_exactly(
        ops in prop::collection::vec(typed_op(), 1..=120)
    ) {
        let base = seeded_base();
        let mut cow = Journaled { store: CowState::new(Arc::clone(&base)), undo: Vec::new() };
        let mut plain = Journaled { store: (*base).clone(), undo: Vec::new() };
        // (journal length, cow view, plain store) at each open checkpoint;
        // a rollback with none open returns to the start. Both stores
        // journal every write, so their journals stay the same length.
        let start = (0, Arc::clone(&base), (*base).clone());
        let mut marks = Vec::new();

        for o in ops {
            let (field, keys, value) = match o {
                TypedOp::Credit(k, v) => ("balances", vec![key(k)], Some(val(v))),
                TypedOp::Allow(o, s, v) => ("allowances", vec![key(o), key(s)], Some(val(v))),
                TypedOp::Forget { owner, spender, whole } => {
                    let path = if whole { vec![key(owner)] } else { vec![key(owner), key(spender)] };
                    ("allowances", path, None)
                }
                TypedOp::Supply(v) => ("total_supply", vec![], Some(val(v))),
                TypedOp::Checkpoint => {
                    marks.push((cow.undo.len(), cow.store.snapshot(), plain.store.clone()));
                    continue;
                }
                TypedOp::Rollback => {
                    let (mark, cow_then, plain_then) = marks.pop().unwrap_or_else(|| start.clone());
                    cow.rollback(mark);
                    plain.rollback(mark);
                    prop_assert_eq!(&*cow.store.snapshot(), &*cow_then);
                    prop_assert_eq!(&plain.store, &plain_then);
                    continue;
                }
            };
            cow.set(field, &keys, value.clone());
            plain.set(field, &keys, value);
        }
        prop_assert_eq!(&*cow.store.snapshot(), &plain.store);
    }
}
