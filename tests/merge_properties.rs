//! Property tests for the state-delta merge (DESIGN.md invariant 2): the
//! DS committee's three-way merge must be order-independent — the formal
//! backbone of the paper's `⊎` join (§2.3).

use cosplit::analysis::signature::ShardingSignature;
use cosplit::chain::address::Address;
use cosplit::chain::delta::{apply_int_delta, component_name, IntDelta, StateDelta};
use cosplit::chain::dispatch::Assignment;
use cosplit::chain::error::MergeError;
use cosplit::chain::executor::MicroBlock;
use cosplit::chain::network::{ChainConfig, Network};
use cosplit::chain::sim::state_digest;
use cosplit::chain::state::GlobalState;
use cosplit::chain::xshard::NoFaults;
use cosplit::scilla::state::StateStore;
use cosplit::scilla::value::Value;
use cosplit::workloads::runner::world_builder;
use cosplit::workloads::scenarios::{admin, build, contract_addr, Kind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn addr(i: u8) -> Address {
    Address::from_index(i as u64)
}

/// A random delta over a small component space. Overwrites are drawn from
/// per-shard-disjoint component ids to model ownership dispatch.
fn delta(shard: usize) -> impl Strategy<Value = StateDelta> {
    (
        prop::collection::btree_map(0u8..6, -50i128..50, 0..5),
        prop::collection::btree_map(0u8..6, 0u128..100, 0..5),
        prop::collection::btree_map((0u8..4).prop_map(addr), -30i128..30, 0..3),
    )
        .prop_map(move |(ints, ows, balances)| {
            let mut sd = StateDelta::new();
            let contract = Address::from_index(42);
            let cd = sd.contracts.entry(contract).or_default();
            for (k, d) in ints {
                let id = IntDelta { delta: d, width: 128, signed: false };
                cd.add("counters".into(), &[addr(k).to_value()], id).expect("distinct keys");
            }
            for (k, v) in ows {
                // Disjointness by construction: each shard owns its own key
                // range.
                let key = Value::Str(format!("s{shard}-{k}"));
                cd.set("owners".into(), &[key], Some(Value::Uint(128, v))).expect("distinct keys");
            }
            sd.balances = balances;
            sd
        })
}

fn base_state() -> GlobalState {
    let mut state = GlobalState::new();
    let contract = Address::from_index(42);
    let storage = std::sync::Arc::make_mut(state.storage.entry(contract).or_default());
    for k in 0u8..6 {
        storage.set("counters".into(), &[addr(k).to_value()], Some(Value::Uint(128, 1_000)));
    }
    for a in 0u8..4 {
        state.credit(addr(a), 10_000);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_permutation_invariant(
        d1 in delta(1), d2 in delta(2), d3 in delta(3)
    ) {
        let orders = [[&d1, &d2, &d3], [&d3, &d1, &d2], [&d2, &d3, &d1]];
        let mut results = Vec::new();
        for order in orders {
            let merged = StateDelta::merge_ref(order).expect("disjoint by construction");
            let mut state = base_state();
            merged.apply(&mut state).expect("bases are large enough");
            results.push(state);
        }
        prop_assert_eq!(&results[0].storage, &results[1].storage);
        prop_assert_eq!(&results[1].storage, &results[2].storage);
        prop_assert_eq!(&results[0].accounts, &results[2].accounts);
    }

    #[test]
    fn merge_is_associative_through_apply(
        d1 in delta(1), d2 in delta(2), d3 in delta(3)
    ) {
        // (d1 ⊎ d2) ⊎ d3 == d1 ⊎ (d2 ⊎ d3)
        let left =
            StateDelta::merge_ref([&StateDelta::merge_ref([&d1, &d2]).unwrap(), &d3]).unwrap();
        let right =
            StateDelta::merge_ref([&d1, &StateDelta::merge_ref([&d2, &d3]).unwrap()]).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn applying_merged_equals_applying_sequentially(
        d1 in delta(1), d2 in delta(2)
    ) {
        let mut merged_state = base_state();
        StateDelta::merge_ref([&d1, &d2])
            .unwrap()
            .apply(&mut merged_state)
            .unwrap();

        let mut seq_state = base_state();
        d1.apply(&mut seq_state).unwrap();
        d2.apply(&mut seq_state).unwrap();

        prop_assert_eq!(merged_state.storage, seq_state.storage);
        prop_assert_eq!(merged_state.accounts, seq_state.accounts);
    }

    #[test]
    fn int_deltas_sum_exactly(
        deltas in prop::collection::vec(-40i128..40, 1..6)
    ) {
        let contract = Address::from_index(42);
        let key = [addr(0).to_value()];
        let shards: Vec<StateDelta> = deltas
            .iter()
            .map(|d| {
                let mut sd = StateDelta::new();
                let id = IntDelta { delta: *d, width: 128, signed: false };
                sd.contracts.entry(contract).or_default().add("counters".into(), &key, id).unwrap();
                sd
            })
            .collect();
        let mut state = base_state();
        StateDelta::merge_ref(&shards).unwrap().apply(&mut state).unwrap();
        let expected = 1_000i128 + deltas.iter().sum::<i128>();
        let got = state.storage[&contract]
            .get("counters".into(), &[addr(0).to_value()])
            .and_then(|v| v.as_uint())
            .unwrap();
        prop_assert_eq!(got as i128, expected);
    }
}

/// A delta carrying only nonce commitments, in arbitrary order — the merge
/// must canonicalise them so the PCM laws hold at the delta level too.
fn nonce_delta(shard: u64) -> impl Strategy<Value = StateDelta> {
    prop::collection::vec((0u8..4, 0u64..20), 0..6).prop_map(move |pairs| {
        let mut sd = StateDelta::new();
        for (a, n) in pairs {
            // Per-shard-disjoint nonce ranges, as relaxed-nonce dispatch
            // guarantees (each shard commits its own slice of an account's
            // nonce space).
            sd.nonces.entry(addr(a)).or_default().push(n + shard * 100);
        }
        sd
    })
}

fn with_nonces(d: StateDelta, n: StateDelta) -> StateDelta {
    let mut d = d;
    d.nonces = n.nonces;
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- PCM laws at the delta level (not just through apply) ----
    // Valid since the merge sorts each account's nonce list into a
    // canonical multiset representation.

    #[test]
    fn merge_is_commutative(
        d1 in delta(1), d2 in delta(2), n1 in nonce_delta(1), n2 in nonce_delta(2)
    ) {
        let d1 = with_nonces(d1, n1);
        let d2 = with_nonces(d2, n2);
        let ab = StateDelta::merge_ref([&d1, &d2]).unwrap();
        let ba = StateDelta::merge_ref([&d2, &d1]).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        d1 in delta(1), d2 in delta(2), d3 in delta(3),
        n1 in nonce_delta(1), n2 in nonce_delta(2), n3 in nonce_delta(3)
    ) {
        let d1 = with_nonces(d1, n1);
        let d2 = with_nonces(d2, n2);
        let d3 = with_nonces(d3, n3);
        let left =
            StateDelta::merge_ref([&StateDelta::merge_ref([&d1, &d2]).unwrap(), &d3]).unwrap();
        let right =
            StateDelta::merge_ref([&d1, &StateDelta::merge_ref([&d2, &d3]).unwrap()]).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn empty_delta_is_identity(d in delta(1), n in nonce_delta(1)) {
        let d = with_nonces(d, n);
        // merge_ref([d]) is the canonical form of d (sorted nonces); joining
        // the empty delta on either side must not change it.
        let empty = StateDelta::new();
        let canon = StateDelta::merge_ref([&d]).unwrap();
        let left = StateDelta::merge_ref([&empty, &d]).unwrap();
        let right = StateDelta::merge_ref([&d, &empty]).unwrap();
        prop_assert_eq!(&left, &canon);
        prop_assert_eq!(&right, &canon);
    }

    #[test]
    fn nonces_merge_as_sorted_multisets(
        n1 in nonce_delta(1), n2 in nonce_delta(2), n3 in nonce_delta(3)
    ) {
        let merged = StateDelta::merge_ref([&n1, &n2, &n3]).unwrap();
        for (a, ns) in &merged.nonces {
            let mut expected: Vec<u64> = [&n1, &n2, &n3]
                .iter()
                .flat_map(|d| d.nonces.get(a).into_iter().flatten().copied())
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(ns, &expected);
            prop_assert!(ns.windows(2).all(|w| w[0] <= w[1]), "canonical order");
        }
    }
}

/// A delta of up to three entries over the field `m`, at key paths that
/// nest into each other (`m`, `m[1]`, `m[2]`, `m[1][3]`, `m[1][4]`). Each
/// entry is an integer delta, 32 or 128 bits wide, or an overwrite (a value
/// or a delete). The constructor refuses an entry that nests with or
/// repeats one before it in the same delta, so nested pairs occur only
/// across deltas.
fn nested_delta() -> impl Strategy<Value = StateDelta> {
    const PATHS: [&[u8]; 5] = [&[], &[1], &[2], &[1, 3], &[1, 4]];
    let entry = (0..PATHS.len(), 0u8..3, -4i128..5, prop_oneof![Just(32u32), Just(128u32)]);
    prop::collection::vec(entry, 0..4).prop_map(|entries| {
        let mut sd = StateDelta::new();
        let cd = sd.contracts.entry(Address::from_index(42)).or_default();
        for (path, kind, n, width) in entries {
            let keys: Vec<Value> = PATHS[path].iter().map(|&k| addr(k).to_value()).collect();
            let id = IntDelta { delta: n, width, signed: true };
            // A refused entry is left out.
            let _ = match kind {
                0 => cd.add("m".into(), &keys, id),
                1 => cd.set("m".into(), &keys, Some(Value::Int(128, n))),
                _ => cd.set("m".into(), &keys, None),
            };
        }
        sd
    })
}

/// A merge's outcome up to the error's payload: the merged delta, or which
/// kind of error.
type Verdict = Result<StateDelta, std::mem::Discriminant<MergeError>>;

fn verdict(merged: Result<StateDelta, MergeError>) -> Verdict {
    merged.map_err(|e| std::mem::discriminant(&e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The merge verdict, conflicts included, is a PCM join's: every order
    /// of three deltas and both groupings agree on the merged delta or on
    /// the kind of error.
    #[test]
    fn merge_verdict_ignores_order_and_grouping(
        a in nested_delta(), b in nested_delta(), c in nested_delta()
    ) {
        let merge = |ds: &[&StateDelta]| StateDelta::merge_ref(ds.iter().copied());
        let (a, b, c) = (&a, &b, &c);
        let expected = verdict(merge(&[a, b, c]));
        for [x, y, z] in [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]] {
            let left = merge(&[x, y]).and_then(|xy| merge(&[&xy, z]));
            let right = merge(&[y, z]).and_then(|yz| merge(&[x, &yz]));
            prop_assert_eq!(&verdict(merge(&[x, y, z])), &expected);
            prop_assert_eq!(&verdict(left), &expected);
            prop_assert_eq!(&verdict(right), &expected);
        }
    }
}

/// The components of the equivalence test, each with the integer shape
/// (width, signedness) the base holds there: `m` nests (`m`, `m[1]`,
/// `m[2]`, `m[1][3]`, `m[1][4]`), `c[0..3]` are counters near the ends of
/// their types, and `n` is a field the base lacks.
const COMPONENTS: [(&str, &[u8], (u32, bool)); 10] = [
    ("m", &[], (128, true)),
    ("m", &[1], (128, true)),
    ("m", &[2], (128, true)),
    ("m", &[1, 3], (128, true)),
    ("m", &[1, 4], (32, true)),
    ("c", &[0], (32, false)),
    ("c", &[1], (32, false)),
    ("c", &[2], (128, true)),
    ("n", &[], (128, true)),
    ("n", &[5], (32, false)),
];

/// A small change, or in three of sixteen one at the end of `i128`, so
/// that sums wrap.
fn amount() -> impl Strategy<Value = i128> {
    (0u8..16, -5i128..6).prop_map(|(pick, n)| match pick {
        0 => i128::MAX,
        1 => i128::MIN,
        2 => i128::MAX - 1,
        _ => n,
    })
}

/// A change to one component, as the flat model of the join sees it.
#[derive(Debug, Clone)]
enum Part {
    Set(Option<Value>),
    Add(IntDelta),
}

/// The field, key path and change of each component change a delta holds.
type Parts = Vec<(&'static str, Vec<Value>, Part)>;

/// A shard delta for the equivalence test, with its component changes: up
/// to four changes over [`COMPONENTS`], each an integer delta (four in
/// six), an overwrite of a value or a delete, so that one leaf may both
/// set and add. Half of them take the component's own shape, the rest one
/// of three. Then balance changes and committed nonces of four accounts. A change the delta refuses (a repeat, or one that
/// nests with one before it) is left out, so nested pairs occur across
/// deltas.
fn shard_delta() -> impl Strategy<Value = (StateDelta, Parts)> {
    let change = (0..COMPONENTS.len(), 0u8..6, amount(), 0u8..6);
    (
        prop::collection::vec(change, 0..5),
        prop::collection::btree_map((0u8..4).prop_map(addr), amount(), 0..3),
        prop::collection::btree_map(
            (0u8..4).prop_map(addr),
            prop::collection::vec(1u64..12, 0..5),
            0..3,
        ),
    )
        .prop_map(|(changes, balances, mut nonces)| {
            let mut sd = StateDelta::new();
            let mut parts = Parts::new();
            let cd = sd.contracts.entry(Address::from_index(42)).or_default();
            for (component, kind, n, shape) in changes {
                let (field, path, own) = COMPONENTS[component];
                let keys: Vec<Value> = path.iter().map(|&k| addr(k).to_value()).collect();
                let (width, signed) =
                    [own, own, own, (32, false), (128, true), (32, true)][shape as usize];
                let value = match signed {
                    true => Value::Int(width, n.clamp(i32::MIN.into(), i32::MAX.into())),
                    false => Value::Uint(width, n.unsigned_abs().min(u32::MAX.into())),
                };
                let part = match kind {
                    0..=3 => Part::Add(IntDelta { delta: n, width, signed }),
                    4 => Part::Set(Some(value)),
                    _ => Part::Set(None),
                };
                let accepted = match &part {
                    Part::Add(id) => cd.add(field.into(), &keys, *id),
                    Part::Set(v) => cd.set(field.into(), &keys, v.clone()),
                };
                if accepted.is_ok() {
                    parts.push((field, keys, part));
                }
            }
            sd.balances = balances;
            // A shard commits each nonce once, in order.
            for ns in nonces.values_mut() {
                ns.sort_unstable();
                ns.dedup();
            }
            sd.nonces = nonces;
            (sd, parts)
        })
}

/// The merge of `deltas`, applied to `state`, by a flat model of the join
/// that shares no code with the tree walk: components keyed by field and
/// key path, joined one delta after another in component order, then each
/// joined change set in component order with `StateStore::set`, each
/// balance added, each nonce committed. Returns the changed components.
fn model_merge(
    deltas: &[(StateDelta, Parts)],
    state: &mut GlobalState,
) -> Result<usize, MergeError> {
    let contract = Address::from_index(42);
    let named = |field: &str, keys: &[Value]| component_name(field.into(), keys);
    let conflict =
        |component| MergeError::OverwriteConflict { contract: contract.to_string(), component };
    let out_of_range = |at: Address, component| MergeError::DeltaOutOfRange {
        contract: at.to_string(),
        component,
    };
    // Per component: the overwrite, the summed numeric delta and its net
    // wraps past `i128`.
    type Joined = (Option<Option<Value>>, Option<IntDelta>, i64);
    let mut joined: BTreeMap<(&str, Vec<Value>), Joined> = BTreeMap::new();
    for (_, parts) in deltas {
        // This delta's change per component: its overwrite and its numeric
        // delta.
        type Mine = (Option<Option<Value>>, Option<IntDelta>);
        let mut mine: BTreeMap<(&str, Vec<Value>), Mine> = BTreeMap::new();
        for (field, keys, part) in parts {
            let change = mine.entry((*field, keys.clone())).or_default();
            match part {
                Part::Set(v) => change.0 = Some(v.clone()),
                Part::Add(id) => change.1 = Some(*id),
            }
        }
        for ((field, keys), (set, add)) in mine {
            // A joined component above or below this one conflicts at the
            // shorter of the two paths.
            let nested = joined
                .keys()
                .filter(|(f, k)| {
                    *f == field && *k != keys && (k.starts_with(&keys) || keys.starts_with(k))
                })
                .map(|(_, k)| k.len().min(keys.len()))
                .next();
            if let Some(depth) = nested {
                return Err(conflict(named(field, &keys[..depth])));
            }
            let j = joined.entry((field, keys.clone())).or_default();
            let shapes = |a: IntDelta, b: IntDelta| (a.width, a.signed) != (b.width, b.signed);
            if (j.0.is_some() && set.is_some())
                || matches!((j.1, add), (Some(a), Some(b)) if shapes(a, b))
            {
                return Err(conflict(named(field, &keys)));
            }
            j.0 = j.0.take().or(set);
            match (&mut j.1, add) {
                (Some(a), Some(b)) => {
                    let wrapped;
                    (a.delta, wrapped) = a.delta.overflowing_add(b.delta);
                    j.2 += if wrapped { b.delta.signum() as i64 } else { 0 };
                }
                (sum, add) => *sum = sum.or(add),
            }
        }
    }
    let mut balances: BTreeMap<Address, (i128, i64)> = BTreeMap::new();
    for (d, _) in deltas {
        for (a, b) in &d.balances {
            let (sum, wraps) = balances.entry(*a).or_default();
            let wrapped;
            (*sum, wrapped) = sum.overflowing_add(*b);
            *wraps += if wrapped { b.signum() as i64 } else { 0 };
        }
    }
    // The first sum past `i128`: by account, a balance before a contract's
    // components.
    let balance = balances.iter().find(|(_, (_, w))| *w != 0).map(|(a, _)| *a);
    let component = joined.iter().find(|(_, (.., w))| *w != 0).map(|((f, k), _)| named(f, k));
    match (balance, component) {
        (Some(a), None) => return Err(out_of_range(a, "balance".into())),
        (Some(a), Some(_)) if a <= contract => return Err(out_of_range(a, "balance".into())),
        (_, Some(component)) => return Err(out_of_range(contract, component)),
        (None, None) => {}
    }
    let storage = Arc::make_mut(state.storage.entry(contract).or_default());
    let mut components = balances.len();
    for ((field, keys), (set, add, _)) in &joined {
        components += usize::from(set.is_some()) + usize::from(add.is_some());
        let old = match set {
            Some(v) => v.clone(),
            None => storage.get((*field).into(), keys),
        };
        let new = match add {
            Some(id) => Some(
                apply_int_delta(old.as_ref(), id)
                    .ok_or_else(|| out_of_range(contract, named(field, keys)))?,
            ),
            None => old,
        };
        storage.set((*field).into(), keys, new);
    }
    for (a, (sum, _)) in &balances {
        let account = state.accounts.entry(*a).or_default();
        account.balance = account
            .balance
            .checked_add_signed(*sum)
            .ok_or_else(|| out_of_range(*a, "balance".into()))?;
    }
    for (d, _) in deltas {
        for (a, ns) in &d.nonces {
            let account = state.accounts.entry(*a).or_default();
            for &n in ns {
                account.nonces.commit(n);
            }
        }
    }
    Ok(components)
}

/// The base of the equivalence test: `m` a two-level map, counters one
/// step from either end of `Uint32` and three from the top of `Int128`,
/// and four funded accounts, one of them one debit from `u128::MAX`.
fn equivalence_base() -> Network {
    let mut net = Network::new(ChainConfig::small(4, true));
    let contract = Address::from_index(42);
    let key = |i: u8| addr(i).to_value();
    let m1 = BTreeMap::from([(key(3), Value::Int(128, 5)), (key(4), Value::Int(32, -2))]);
    net.seed_map_field(
        contract,
        "m",
        [(key(1), Value::Map(Arc::new(m1))), (key(2), Value::Int(128, 7))],
    );
    let counters = [
        (key(0), Value::Uint(32, u128::from(u32::MAX) - 1)),
        (key(1), Value::Uint(32, 1)),
        (key(2), Value::Int(128, i128::MAX - 3)),
    ];
    net.seed_map_field(contract, "c", counters);
    for a in 0u8..3 {
        net.fund_account(addr(a), 10_000);
    }
    net.fund_account(addr(3), u128::MAX - 1);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The merge stage grafts shard deltas straight into the state: for
    /// one to four of them, it must do what building their merged delta
    /// with `merge_ref` and applying it does, and what a flat model of the
    /// join does. Same state and component count on success; the same
    /// error, component included, on failure. A verdict error leaves the
    /// state untouched. A change that does not apply leaves the contracts
    /// and the balances as the merged delta's `apply` leaves them; nonces
    /// may then differ, since each account is grafted whole, balance and
    /// nonces, before the next.
    #[test]
    fn merge_stage_grafts_what_merge_ref_applies(
        deltas in prop::collection::vec(shard_delta(), 1..=4)
    ) {
        let mut net = equivalence_base();
        let before = state_digest(&net);
        let mut modelled = net.state().clone();
        let model = model_merge(&deltas, &mut modelled);
        let mut expected = net.state().clone();
        let merged = StateDelta::merge_ref(deltas.iter().map(|(d, _)| d));
        let applied = merged.as_ref().map_err(Clone::clone).and_then(|m| {
            m.apply(&mut expected).map(|()| m.changed_components())
        });
        let blocks: Vec<MicroBlock> = deltas
            .into_iter()
            .enumerate()
            .map(|(s, (delta, _))| MicroBlock { delta, ..MicroBlock::empty(Assignment::Shard(s as u32)) })
            .collect();
        let got = net.merge_shard_deltas(&blocks);
        prop_assert_eq!(&got, &model);
        prop_assert_eq!(&got, &applied);
        let state = net.state();
        prop_assert_eq!(&state.storage, &expected.storage);
        match (merged, got) {
            (Err(_), _) => prop_assert_eq!(state_digest(&net), before),
            (Ok(_), Ok(_)) => {
                prop_assert_eq!(&state.accounts, &expected.accounts);
                prop_assert_eq!(&state.storage, &modelled.storage);
                prop_assert_eq!(&state.accounts, &modelled.accounts);
            }
            (Ok(_), Err(_)) => {
                for a in 0u8..4 {
                    prop_assert_eq!(state.balance(&addr(a)), expected.balance(&addr(a)));
                }
            }
        }
    }
}

#[test]
fn overlapping_overwrites_always_conflict() {
    let contract = Address::from_index(42);
    let mk = |v: u128| {
        let mut sd = StateDelta::new();
        let key = Value::Str("same".into());
        let cd = sd.contracts.entry(contract).or_default();
        cd.set("owners".into(), &[key], Some(Value::Uint(128, v))).unwrap();
        sd
    };
    assert!(StateDelta::merge_ref([&mk(1), &mk(1)]).is_err(), "even equal values conflict");
}

/// A component nested under another, in either delta and of either kind,
/// conflicts: applying both would let the deeper write undo or outlive
/// the shallower one.
#[test]
fn nested_components_conflict() {
    let contract = Address::from_index(42);
    let keys = |keys: &[u8]| -> Vec<Value> { keys.iter().map(|&k| addr(k).to_value()).collect() };
    let delete_m_a = {
        let mut sd = StateDelta::new();
        sd.contracts.entry(contract).or_default().set("m".into(), &keys(&[1]), None).unwrap();
        sd
    };
    let write_m_a_c = {
        let mut sd = StateDelta::new();
        let cd = sd.contracts.entry(contract).or_default();
        cd.set("m".into(), &keys(&[1, 3]), Some(Value::Uint(128, 9))).unwrap();
        sd
    };
    let add_m_a_c = {
        let mut sd = StateDelta::new();
        let cd = sd.contracts.entry(contract).or_default();
        let id = IntDelta { delta: 5, width: 128, signed: false };
        cd.add("m".into(), &keys(&[1, 3]), id).unwrap();
        sd
    };
    for nested in [&write_m_a_c, &add_m_a_c] {
        for pair in [[&delete_m_a, nested], [nested, &delete_m_a]] {
            match StateDelta::merge_ref(pair) {
                Err(MergeError::OverwriteConflict { .. }) => {}
                other => panic!("a nested pair merged: {other:?}"),
            }
        }
    }
}

/// A hostile delta may not panic a node: two wire-decoded deltas whose
/// balance entries sum past `i128::MAX` must surface as a merge error, not
/// overflow (debug panic / silent release wrap).
#[test]
fn out_of_range_balance_join_is_an_error() {
    let account = addr(1);
    let wire = format!(
        r#"{{"contracts": [], "balances": [{{"account": "{account}", "delta": "{}"}}]}}"#,
        i128::MAX
    );
    let d1 = StateDelta::from_wire(&wire).expect("well-formed wire");
    let d2 = StateDelta::from_wire(&wire).expect("well-formed wire");
    assert_eq!(d1.balances[&account], i128::MAX);
    match StateDelta::merge_ref([&d1, &d2]) {
        Err(MergeError::DeltaOutOfRange { component, .. }) => assert_eq!(component, "balance"),
        other => panic!("expected DeltaOutOfRange on the balance join, got {other:?}"),
    }
}

/// Sums are exact whatever the order: `[MAX, 1, -1]` merges like
/// `[MAX, -1, 1]`, on a component and on a balance, while `[MAX, 1]` alone
/// leaves `i128`.
#[test]
fn out_of_range_verdict_ignores_order() {
    let contract = Address::from_index(42);
    let key = [addr(0).to_value()];
    let int_delta = |n: i128| {
        let mut sd = StateDelta::new();
        let id = IntDelta { delta: n, width: 128, signed: true };
        sd.contracts.entry(contract).or_default().add("counters".into(), &key, id).unwrap();
        sd
    };
    let component: &dyn Fn(i128) -> StateDelta = &int_delta;
    let balance: &dyn Fn(i128) -> StateDelta = &|n| balance_delta(addr(1), n);
    for mk in [component, balance] {
        let (max, up, down) = (mk(i128::MAX), mk(1), mk(-1));
        for order in [[&max, &up, &down], [&max, &down, &up], [&up, &down, &max]] {
            assert_eq!(StateDelta::merge_ref(order), StateDelta::merge_ref([&max]), "{order:?}");
        }
        match StateDelta::merge_ref([&max, &up]) {
            Err(MergeError::DeltaOutOfRange { .. }) => {}
            other => panic!("[MAX, +1] merged: {other:?}"),
        }
    }
}

fn balance_delta(account: Address, delta: i128) -> StateDelta {
    let mut sd = StateDelta::new();
    sd.balances.insert(account, delta);
    sd
}

/// Balances are `u128`: applying a credit to one above `i128::MAX` must be
/// exact (the old `as i128` cast wrapped it negative and clamped it to 0).
#[test]
fn apply_credits_balances_beyond_i128_exactly() {
    let mut state = GlobalState::new();
    state.credit(addr(1), 1 << 127);
    balance_delta(addr(1), 1).apply(&mut state).expect("in range");
    assert_eq!(state.accounts[&addr(1)].balance, (1 << 127) + 1);
    state.credit(addr(2), u128::MAX);
    match balance_delta(addr(2), 1).apply(&mut state) {
        Err(MergeError::DeltaOutOfRange { component, .. }) => assert_eq!(component, "balance"),
        other => panic!("expected DeltaOutOfRange past u128::MAX, got {other:?}"),
    }
}

/// A debit larger than the balance is an error, never a silent clamp to 0
/// that makes the missing tokens vanish.
#[test]
fn apply_rejects_an_overdrawing_balance_delta() {
    let mut state = GlobalState::new();
    state.credit(addr(1), 5);
    match balance_delta(addr(1), -9).apply(&mut state) {
        Err(MergeError::DeltaOutOfRange { component, .. }) => assert_eq!(component, "balance"),
        other => panic!("expected DeltaOutOfRange on the overdraw, got {other:?}"),
    }
}

/// `n` byte mutations of `wire`, each replacing, deleting or inserting one
/// JSON-grammar byte at a position drawn from a SplitMix64 stream. A
/// mutation that splits a UTF-8 sequence decodes lossily, as a node reading
/// bytes off the wire would.
fn wire_mutants(wire: &str, mut seed: u64, n: usize) -> Vec<String> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    const BYTES: &[u8] = b"{}[]\":,0-9eE.ntf \\\x7f\xff";
    (0..n)
        .map(|_| {
            let mut bytes = wire.as_bytes().to_vec();
            let at = (next() % bytes.len() as u64) as usize;
            let byte = BYTES[(next() % BYTES.len() as u64) as usize];
            match next() % 3 {
                0 => bytes[at] = byte,
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
            String::from_utf8_lossy(&bytes).into_owned()
        })
        .collect()
}

/// A node decodes shard deltas off the wire and applies them: no byte
/// mutation of a real epoch's deltas may panic it. Whatever decodes applies
/// to the epoch's state with `Ok` or `Err`.
#[test]
fn wire_deltas_survive_byte_mutations() {
    let (mut mutants, mut decoded) = (0, 0);
    for kind in [Kind::FtTransfer, Kind::NftMint, Kind::IpfsRegister] {
        let scenario = build(kind, 40, 400, 7);
        let net = world_builder(&scenario)(&ChainConfig::small(3, true));
        let packets = net.form_packets(&mut scenario.load.clone());
        for (shard, block) in net.execute_shards(packets.shard_batches).into_iter().enumerate() {
            let wire = block.delta.to_wire();
            for (i, m) in wire_mutants(&wire, 7 + shard as u64, 300).into_iter().enumerate() {
                let what = format!("{kind:?} shard {shard} mutant {i}");
                let applied = catch_unwind(AssertUnwindSafe(|| {
                    StateDelta::from_wire(&m).map(|d| d.apply(&mut net.state().clone()))
                }));
                let Ok(applied) = applied else { panic!("{what} panicked: {m}") };
                mutants += 1;
                decoded += usize::from(applied.is_ok());
            }
        }
    }
    // Some mutants must decode, or `apply` was never exercised.
    assert!(decoded > 0, "none of {mutants} mutants decoded");
    eprintln!("{decoded} of {mutants} mutated deltas decoded");
}

/// A deployer may submit any signature through `deploy_with_signature`: no
/// byte mutation of a workload's real signature that still decodes may
/// panic the node that deploys it and runs epochs under it. Merge and
/// apply failures land in the epoch report's errors.
#[test]
fn mutated_signatures_survive_deployment_and_epochs() {
    let (mut mutants, mut ran) = (0, 0);
    for kind in [Kind::FtTransfer, Kind::NftMint, Kind::IpfsRegister] {
        let scenario = build(kind, 20, 100, 7);
        let source = cosplit::scilla::corpus::get(scenario.corpus_name).expect("corpus").source;
        let net = world_builder(&scenario)(&ChainConfig::small(3, true));
        let signature = net.state().contracts[&contract_addr()].signature.as_ref().expect("signed");
        for (i, m) in wire_mutants(&signature.to_json(), 11, 100).into_iter().enumerate() {
            mutants += 1;
            let Ok(signature) = ShardingSignature::from_json(&m) else { continue };
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut net = Network::new(ChainConfig::small(3, true));
                net.fund_account(admin(), u128::MAX / 4);
                for u in 0..scenario.users {
                    net.fund_account(Address::from_index(u), 1_000_000_000_000);
                }
                let params = scenario.params.clone();
                let sig = Some(signature);
                if net.deploy_with_signature(contract_addr(), source, params, sig).is_err() {
                    return false;
                }
                let mut pool = [scenario.setup.clone(), scenario.load.clone()].concat();
                for _ in 0..3 {
                    let packets = net.form_packets(&mut pool);
                    net.run_packets(packets, &mut pool, &mut NoFaults);
                }
                true
            }));
            let Ok(deployed) = run else { panic!("{kind:?} mutant {i} panicked: {m}") };
            ran += usize::from(deployed);
        }
    }
    // Some mutants must deploy, or no epoch ran under a mutated signature.
    assert!(ran > 0, "none of {mutants} mutants deployed");
    eprintln!("{ran} of {mutants} mutated signatures deployed and ran");
}

/// The number of components the DS committee merges is an exact count
/// (perfbench reports it as `merge.components_per_tx_x1000`): a change to
/// how deltas are built or joined must leave it as it is. Summed over every
/// epoch of a fixed run of each workload until its pool drains; a leaf
/// that both sets and adds counts two.
#[test]
fn merged_component_counts_are_pinned() {
    let mut counts = Vec::new();
    for kind in [Kind::FtTransfer, Kind::NftMint, Kind::IpfsRegister] {
        let scenario = build(kind, 40, 400, 7);
        let mut net = world_builder(&scenario)(&ChainConfig::small(3, true));
        let mut pool = scenario.load.clone();
        let mut merged = 0;
        for _ in 0..40 {
            if pool.is_empty() {
                break;
            }
            merged += net.run_epoch(&mut pool).merged_components;
        }
        assert!(pool.is_empty(), "{kind:?}: {} transactions never committed", pool.len());
        counts.push((kind, merged));
    }
    assert_eq!(counts, [(Kind::FtTransfer, 107), (Kind::NftMint, 442), (Kind::IpfsRegister, 350)]);
}
