//! Differential property tests for [`CowState`]: under any interleaving of
//! whole-field and map-entry reads/writes/deletes, commits and rollbacks,
//! the copy-on-write overlay must be observationally identical to a plain
//! deep-copied [`InMemoryState`]; a rollback must restore the pending
//! writes of the last commit exactly; and the delta the chain's executor
//! builds from the overlay ([`ContractDelta::from_state`]), applied to the
//! base, must give the view.

use chain::address::Address;
use chain::delta::{ContractDelta, StateDelta};
use chain::state::GlobalState;
use cosplit_analysis::signature::Join;
use proptest::prelude::*;
use scilla::intern::Sym;
use scilla::state::{Change, CowState, InMemoryState, StateStore, Tree};
use scilla::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One step of a random op sequence. Mutations are applied to both stores;
/// reads are compared; `Commit`/`Rollback` mirror the executor's
/// transaction boundary (the plain store rolls back to a copy taken at the
/// last commit).
#[derive(Debug, Clone)]
enum Op {
    Store(u8, u8),
    RemoveField(u8),
    MapUpdate(u8, Vec<u8>, u8),
    MapDelete(u8, Vec<u8>),
    Load(u8),
    MapGet(u8, Vec<u8>),
    MapExists(u8, Vec<u8>),
    Commit,
    Rollback,
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
        Just(Op::Commit),
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

/// The pending writes as [`CowState::into_writes`] hands them over, each
/// leaf the component's value in the view.
type Writes = BTreeMap<Sym, Tree<Change>>;

fn writes(cow: &CowState) -> Writes {
    cow.clone().into_writes(|_| (false, |_: &mut Change, _: Option<&Value>| {}))
}

/// No branch of a drained tree is empty: a branch stands for writes below
/// it.
fn no_empty_branch(writes: &Writes) -> Result<(), TestCaseError> {
    fn check<L>(tree: &Tree<L>) -> bool {
        match tree {
            Tree::Leaf(_) => true,
            Tree::Branch(children) => !children.is_empty() && children.values().all(check),
        }
    }
    prop_assert!(writes.values().all(check), "an empty branch: {:?}", writes);
    Ok(())
}

/// The overlay flattened through its writes is the plain store.
fn full_state_eq(cow: &CowState, plain: &InMemoryState) -> Result<(), TestCaseError> {
    prop_assert_eq!(&cow.snapshot(), plain);
    Ok(())
}

/// The delta the executor builds from the overlay, applied to the base with
/// [`StateDelta::apply`], gives the view and the plain store. `balances`
/// (a map) and `total_supply` (a scalar) join by `IntMerge`, so their
/// integer writes travel as numeric deltas; `allowances` and `owner` do
/// not.
fn delta_applies_to_the_view(
    base: &Arc<InMemoryState>,
    cow: &CowState,
    plain: &InMemoryState,
) -> Result<(), TestCaseError> {
    let joins = BTreeMap::from([
        ("balances".to_string(), Join::IntMerge),
        ("total_supply".to_string(), Join::IntMerge),
        ("allowances".to_string(), Join::OwnOverwrite),
    ]);
    let contract = Address::from_index(42);
    let mut delta = StateDelta::new();
    delta.contracts.insert(contract, ContractDelta::from_state(cow.clone(), Some(&joins)));
    let mut state = GlobalState::new();
    state.storage.insert(contract, Arc::clone(base));
    prop_assert_eq!(delta.apply(&mut state), Ok(()));
    prop_assert_eq!(&*state.storage[&contract], &cow.snapshot());
    prop_assert_eq!(&*state.storage[&contract], plain);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn cow_state_matches_plain_store(ops in prop::collection::vec(op(), 1..=120)) {
        let base = seeded_base();
        let mut cow = CowState::new(Arc::clone(&base));
        let mut plain = (*base).clone();
        // The plain store and the pending writes at the last commit.
        let mut committed = (plain.clone(), Writes::new());

        for o in ops {
            match o {
                Op::Store(f, v) => {
                    cow.set(field_name(f).into(), &[], Some(val(v)));
                    plain.set(field_name(f).into(), &[], Some(val(v)));
                }
                Op::RemoveField(f) => {
                    cow.set(field_name(f).into(), &[], None);
                    plain.set(field_name(f).into(), &[], None);
                }
                Op::MapUpdate(f, p, v) => {
                    let p = keys(&p);
                    cow.set(field_name(f).into(), &p, Some(val(v)));
                    plain.set(field_name(f).into(), &p, Some(val(v)));
                }
                Op::MapDelete(f, p) => {
                    let p = keys(&p);
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
                Op::Commit => {
                    cow.commit();
                    committed = (plain.clone(), writes(&cow));
                }
                Op::Rollback => {
                    cow.rollback();
                    plain = committed.0.clone();
                    prop_assert_eq!(writes(&cow), committed.1.clone());
                    full_state_eq(&cow, &plain)?;
                }
            }
        }
        // Final full-state equivalence: grafting the overlay's writes onto
        // the base reproduces the deep-copied store exactly, and so does
        // the chain's delta of them.
        full_state_eq(&cow, &plain)?;
        no_empty_branch(&writes(&cow))?;
        delta_applies_to_the_view(&base, &cow, &plain)?;
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
    Forget {
        owner: u8,
        spender: u8,
        whole: bool,
    },
    Supply(u8),
    Commit,
    Rollback,
}

fn typed_op() -> impl Strategy<Value = TypedOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| TypedOp::Credit(k, v)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(o, s, v)| TypedOp::Allow(o, s, v)),
        (any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(owner, spender, whole)| TypedOp::Forget { owner, spender, whole }),
        any::<u8>().prop_map(TypedOp::Supply),
        Just(TypedOp::Commit),
        Just(TypedOp::Rollback),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn rollback_restores_the_last_commit_exactly(
        ops in prop::collection::vec(typed_op(), 1..=120)
    ) {
        let base = seeded_base();
        let mut cow = CowState::new(Arc::clone(&base));
        let mut plain = (*base).clone();
        // The view, the pending writes and the plain store at the last
        // commit; a rollback before any commit returns to the start.
        let mut committed = ((*base).clone(), Writes::new(), (*base).clone());

        for o in ops {
            let (field, keys, value) = match o {
                TypedOp::Credit(k, v) => ("balances", vec![key(k)], Some(val(v))),
                TypedOp::Allow(o, s, v) => ("allowances", vec![key(o), key(s)], Some(val(v))),
                TypedOp::Forget { owner, spender, whole } => {
                    let path = if whole { vec![key(owner)] } else { vec![key(owner), key(spender)] };
                    ("allowances", path, None)
                }
                TypedOp::Supply(v) => ("total_supply", vec![], Some(val(v))),
                TypedOp::Commit => {
                    cow.commit();
                    prop_assert!(cow.uncommitted().next().is_none());
                    committed = (cow.snapshot(), writes(&cow), plain.clone());
                    continue;
                }
                TypedOp::Rollback => {
                    cow.rollback();
                    prop_assert!(cow.uncommitted().next().is_none());
                    plain = committed.2.clone();
                    prop_assert_eq!(&cow.snapshot(), &committed.0);
                    prop_assert_eq!(writes(&cow), committed.1.clone());
                    continue;
                }
            };
            cow.set(field.into(), &keys, value.clone());
            plain.set(field.into(), &keys, value);
        }
        full_state_eq(&cow, &plain)?;
        no_empty_branch(&writes(&cow))?;
        delta_applies_to_the_view(&base, &cow, &plain)?;
    }
}
