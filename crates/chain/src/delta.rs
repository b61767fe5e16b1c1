//! State deltas and the three-way merge (paper §4.1, §4.3).
//!
//! Each shard's `MicroBlock` carries a `StateDelta` describing what its
//! transactions changed relative to the epoch-start state. Per contract, a
//! [`ContractDelta`] holds one [`Tree`] per written field, shaped like the
//! field's nested maps: the executor's working-state tree, handed over
//! whole ([`ContractDelta::from_state`]). Each leaf is a change to one
//! component:
//!
//! * components of fields with an [`Join::IntMerge`] join carry *numeric
//!   deltas* (`add`) that sum across shards (Strategy 2, commutativity);
//! * everything else carries *overwrites* (`set`) whose disjointness is
//!   guaranteed by ownership dispatch (Strategy 1).
//!
//! The DS committee joins the trees ([`StateDelta::merge_ref`]) and grafts
//! the result onto the state ([`StateDelta::apply`]), one walk per field.
//! The join detects violations rather than silently losing writes: a
//! change above or below another, two overwrites of one component, or two
//! numeric deltas of different shapes on one component are a conflict.
//!
//! [`Join::IntMerge`]: cosplit_analysis::signature::Join::IntMerge

use crate::address::Address;
use crate::error::MergeError;
use crate::state::GlobalState;
use cosplit_analysis::signature::Join;
use scilla::builtins::uint_max;
use scilla::intern::Sym;
use scilla::state::{CowState, Tree};
use scilla::value::Value;
use serde_json::json;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Renders a component, a field plus a key path, for diagnostics.
pub fn component_name<'a>(field: Sym, keys: impl IntoIterator<Item = &'a Value>) -> String {
    let mut s = field.as_str().to_string();
    for k in keys {
        s.push_str(&format!("[{k}]"));
    }
    s
}

/// A numeric delta on an integer-valued component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntDelta {
    /// Signed change (final − initial).
    pub delta: i128,
    /// Bit width of the component's integer type.
    pub width: u32,
    /// Whether the component is a signed integer.
    pub signed: bool,
}

/// What a delta does to one component: a leaf of a field's [`Tree`]. At
/// least one part is present; applied, `set` goes first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Change {
    /// An overwrite; `Some(None)` removes the component.
    set: Option<Option<Value>>,
    /// A numeric delta, summed with other shards' deltas on the component.
    add: Option<IntDelta>,
}

impl Change {
    /// The component's value after the change, given its value before
    /// (`None`: absent). `None` if the sum leaves the component's type or
    /// the value is not an integer of the delta's shape.
    fn applied(&self, old: Option<&Value>) -> Option<Option<Value>> {
        let old = match &self.set {
            Some(set) => set.as_ref(),
            None => old,
        };
        match &self.add {
            Some(id) => apply_int_delta(old, id).map(Some),
            None => Some(old.cloned()),
        }
    }
}

/// Changes to one contract's fields: one tree of changes per written
/// field, in field-text order. A branch is never empty, and each leaf
/// holds a `set`, an `add` or both; [`ContractDelta::set`] and
/// [`ContractDelta::add`] keep it so.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContractDelta {
    fields: BTreeMap<Sym, Tree<Change>>,
}

impl ContractDelta {
    /// Is there nothing to apply?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Takes over a contract's working state as its delta: one walk per
    /// written field beside the base, moving the overlay's nodes. A write
    /// to a field whose join in `joins` is [`Join::IntMerge`] becomes an
    /// `add` against the base value when both are integers of one shape
    /// and the change fits `i128`; every other write is a `set`.
    pub fn from_state(state: CowState, joins: Option<&BTreeMap<String, Join>>) -> ContractDelta {
        let fields = state.into_writes_with(|field| {
            let int_merge = joins.is_some_and(|j| j.get(field.as_str()) == Some(&Join::IntMerge));
            // Only an `add` is computed against the base value.
            (int_merge, move |value: Option<Value>, base: Option<&Value>| {
                match value.as_ref().filter(|_| int_merge).and_then(|v| compute_int_delta(base, v)) {
                    Some(id) => Change { set: None, add: Some(id) },
                    // Non-integer, shape-changing, or out-of-i128-range
                    // changes fall back to an overwrite; under a correct
                    // signature only one shard can produce them.
                    None => Change { set: Some(value), add: None },
                }
            })
        });
        ContractDelta { fields }
    }

    /// Records an overwrite of a component (`None` removes it).
    ///
    /// # Errors
    ///
    /// If the delta already overwrites the component, or changes one above
    /// or below it.
    pub fn set(&mut self, field: Sym, keys: &[Value], value: Option<Value>) -> Result<(), String> {
        let change = self.change_mut(field, keys)?;
        if change.set.is_some() {
            return Err(format!("{} overwritten twice", component_name(field, keys)));
        }
        change.set = Some(value);
        Ok(())
    }

    /// Records a numeric delta on a component.
    ///
    /// # Errors
    ///
    /// If the delta already adds to the component, or changes one above or
    /// below it.
    pub fn add(&mut self, field: Sym, keys: &[Value], id: IntDelta) -> Result<(), String> {
        let change = self.change_mut(field, keys)?;
        if change.add.is_some() {
            return Err(format!("{} added to twice", component_name(field, keys)));
        }
        change.add = Some(id);
        Ok(())
    }

    /// The leaf at a component, made empty if the path is new.
    fn change_mut(&mut self, field: Sym, keys: &[Value]) -> Result<&mut Change, String> {
        let new = |depth: usize| match depth == keys.len() {
            true => Tree::Leaf(Change::default()),
            false => Tree::Branch(BTreeMap::new()),
        };
        let nested = || format!("{} nests with another component", component_name(field, keys));
        let mut tree = self.fields.entry(field).or_insert_with(|| new(0));
        for (depth, k) in keys.iter().enumerate() {
            let Tree::Branch(children) = tree else { return Err(nested()) };
            tree = children.entry(k.clone()).or_insert_with(|| new(depth + 1));
        }
        match tree {
            Tree::Leaf(change) => Ok(change),
            Tree::Branch(_) => Err(nested()),
        }
    }

    /// Visits the leaves in component order with their key paths.
    fn for_each_change<'a>(&'a self, mut visit: impl FnMut(Sym, &[&'a Value], &'a Change)) {
        fn walk<'a>(
            tree: &'a Tree<Change>,
            keys: &mut Vec<&'a Value>,
            visit: &mut impl FnMut(&[&'a Value], &'a Change),
        ) {
            match tree {
                Tree::Leaf(change) => visit(keys, change),
                Tree::Branch(children) => {
                    for (k, tree) in children {
                        keys.push(k);
                        walk(tree, keys, visit);
                        keys.pop();
                    }
                }
            }
        }
        let mut keys = Vec::new();
        for (&field, tree) in &self.fields {
            walk(tree, &mut keys, &mut |keys, change| visit(field, keys, change));
        }
    }
}

/// Joins `theirs` into `ours`, two trees of one field's changes; `at` is
/// the path to them. Two adds on a component sum, and `wrapped` hears of
/// each sum that wraps past the `i128` range, with its direction.
///
/// # Errors
///
/// A conflict, with `at` left at its component: an overwrite meets another
/// overwrite, a change above or below its component, or two adds differ in
/// width or signedness.
fn join<'a>(
    ours: &mut Tree<Change>,
    theirs: &'a Tree<Change>,
    at: &mut Vec<&'a Value>,
    wrapped: &mut impl FnMut(&[&'a Value], i64),
) -> Result<(), ()> {
    match (ours, theirs) {
        (Tree::Branch(ours), Tree::Branch(theirs)) => {
            for (k, theirs) in theirs {
                match ours.entry(k.clone()) {
                    Entry::Occupied(ours) => {
                        at.push(k);
                        join(ours.into_mut(), theirs, at, wrapped)?;
                        at.pop();
                    }
                    Entry::Vacant(e) => drop(e.insert(theirs.clone())),
                }
            }
            Ok(())
        }
        (Tree::Leaf(ours), Tree::Leaf(theirs)) => {
            match (&ours.set, &theirs.set) {
                (Some(_), Some(_)) => return Err(()),
                (None, Some(set)) => ours.set = Some(set.clone()),
                _ => {}
            }
            match (&mut ours.add, theirs.add) {
                (_, None) => {}
                (None, add) => ours.add = add,
                (Some(a), Some(b)) if (a.width, a.signed) == (b.width, b.signed) => {
                    let (sum, wraps) = a.delta.overflowing_add(b.delta);
                    a.delta = sum;
                    if wraps {
                        wrapped(at, b.delta.signum() as i64);
                    }
                }
                (Some(_), Some(_)) => return Err(()),
            }
            Ok(())
        }
        _ => Err(()),
    }
}

/// Everything a shard changed during one epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDelta {
    /// Per-contract field changes.
    pub contracts: BTreeMap<Address, ContractDelta>,
    /// Net native-balance changes (always mergeable: gas burns and transfers
    /// are commutative deltas).
    pub balances: BTreeMap<Address, i128>,
    /// Nonces committed per account (paper §4.2.1).
    pub nonces: BTreeMap<Address, Vec<u64>>,
}

impl StateDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is there nothing to apply?
    pub fn is_empty(&self) -> bool {
        self.contracts.values().all(ContractDelta::is_empty)
            && self.balances.is_empty()
            && self.nonces.is_empty()
    }

    /// Merges several shard deltas into one (the `FinalStateDelta`) by
    /// joining their trees field by field. It borrows them: the DS
    /// committee merges micro-block deltas in place without cloning each
    /// one first.
    ///
    /// # Errors
    ///
    /// [`MergeError::OverwriteConflict`] if an overwrite meets another
    /// overwrite of its component or any change above or below it, a
    /// numeric delta meets a change above or below it, or two numeric
    /// deltas on a component differ in width or signedness — impossible
    /// under correct ownership dispatch; [`MergeError::DeltaOutOfRange`] if
    /// the exact sum of a component's integer deltas, or of an account's
    /// balance deltas, leaves `i128` — only a hostile wire delta gets there.
    ///
    /// The verdict does not depend on the order of `deltas`: every conflict
    /// is between two of them, and sums are taken exactly, so `[MAX, 1, -1]`
    /// merges like `[MAX, -1, 1]`. Grouping is promised only while every
    /// sum is in range: merging `[MAX, 1]` first fails, because that inner
    /// sum has no `i128` value.
    ///
    /// An integer delta and an overwrite on the same component do merge:
    /// the executor falls back to an overwrite where a value's change
    /// leaves `i128`, and [`StateDelta::apply`] sets the overwrite before
    /// it adds the integer delta.
    pub fn merge_ref<'a>(
        deltas: impl IntoIterator<Item = &'a StateDelta>,
    ) -> Result<StateDelta, MergeError> {
        let mut out = StateDelta::new();
        // Net wraps past the `i128` range per (contract, component) and per
        // account (`None`): each sum is exact as `wrapped + n × 2¹²⁸`.
        type Wraps = BTreeMap<(Address, Option<(Sym, Vec<Value>)>), i64>;
        let mut wraps: Wraps = BTreeMap::new();
        let mut at = Vec::new();
        for d in deltas {
            for (addr, cd) in &d.contracts {
                let target = out.contracts.entry(*addr).or_default();
                for (&field, theirs) in &cd.fields {
                    let Some(ours) = target.fields.get_mut(&field) else {
                        target.fields.insert(field, theirs.clone());
                        continue;
                    };
                    at.clear();
                    let mut count = |at: &[&Value], n| {
                        let comp = (field, at.iter().map(|&k| k.clone()).collect());
                        *wraps.entry((*addr, Some(comp))).or_default() += n;
                    };
                    join(ours, theirs, &mut at, &mut count).map_err(|()| {
                        MergeError::OverwriteConflict {
                            contract: addr.to_string(),
                            component: component_name(field, at.iter().copied()),
                        }
                    })?;
                }
            }
            for (addr, b) in &d.balances {
                let sum = out.balances.entry(*addr).or_insert(0);
                let wrapped;
                (*sum, wrapped) = sum.overflowing_add(*b);
                if wrapped {
                    *wraps.entry((*addr, None)).or_default() += b.signum() as i64;
                }
            }
            for (addr, ns) in &d.nonces {
                out.nonces.entry(*addr).or_default().extend(ns.iter().copied());
            }
        }
        if let Some(((addr, comp), _)) = wraps.iter().find(|(_, n)| **n != 0) {
            return Err(MergeError::DeltaOutOfRange {
                contract: addr.to_string(),
                component: comp
                    .as_ref()
                    .map_or_else(|| "balance".into(), |(field, keys)| component_name(*field, keys)),
            });
        }
        // Canonical multiset representation: merging is commutative and
        // associative only if the committed-nonce list is order-free.
        for ns in out.nonces.values_mut() {
            ns.sort_unstable();
        }
        Ok(out)
    }

    /// Applies the delta to the global state (the DS committee's three-way
    /// merge of epoch-start state with the combined deltas): each field's
    /// tree is grafted onto the contract's storage in one walk.
    ///
    /// # Errors
    ///
    /// [`MergeError::DeltaOutOfRange`] if an integer component or a native
    /// balance leaves its type's range — the situation the paper's §6
    /// overflow guard prevents — or a numeric delta meets a value that is
    /// not an integer of its shape.
    pub fn apply(&self, state: &mut GlobalState) -> Result<(), MergeError> {
        for (addr, cd) in &self.contracts {
            // In the normal epoch flow the shard executors' snapshot views
            // have been dropped by merge time, so `make_mut` mutates in
            // place; a surviving snapshot (e.g. a held block digest input)
            // triggers one shallow O(fields) copy, never a value deep-copy.
            let storage = Arc::make_mut(state.storage.entry(*addr).or_default());
            for (&field, tree) in &cd.fields {
                storage.graft(field, tree, &mut |change, old| change.applied(old).ok_or(())).map_err(
                    |((), keys)| MergeError::DeltaOutOfRange {
                        contract: addr.to_string(),
                        component: component_name(field, &keys),
                    },
                )?;
            }
        }
        for (addr, b) in &self.balances {
            let acc = state.accounts.entry(*addr).or_default();
            // In `u128`, like the integer components: a balance past
            // `i128::MAX` is exact, and an overdraw is an error, not a clamp.
            acc.balance = acc.balance.checked_add_signed(*b).ok_or_else(|| {
                MergeError::DeltaOutOfRange {
                    contract: addr.to_string(),
                    component: "balance".into(),
                }
            })?;
        }
        for (addr, ns) in &self.nonces {
            let acc = state.accounts.entry(*addr).or_default();
            acc.nonces.merge(ns);
        }
        Ok(())
    }

    /// Serialises the delta through the JSON wire format (the boundary whose
    /// cost the paper measures in §5.2.2): per contract, the numeric deltas
    /// and then the overwrites, each list in component order.
    pub fn to_wire(&self) -> String {
        let keys = |keys: &[&Value]| keys.iter().map(|k| scilla::wire::to_json(k)).collect::<Vec<_>>();
        let contracts: Vec<serde_json::Value> = self
            .contracts
            .iter()
            .map(|(addr, cd)| {
                let (mut ints, mut ows) = (Vec::new(), Vec::new());
                cd.for_each_change(|field, path, change| {
                    if let Some(d) = &change.add {
                        ints.push(json!({
                            "field": field.as_str(),
                            "keys": keys(path),
                            "delta": d.delta.to_string(),
                            "width": d.width,
                            "signed": d.signed,
                        }));
                    }
                    if let Some(v) = &change.set {
                        ows.push(json!({
                            "field": field.as_str(),
                            "keys": keys(path),
                            "value": v.as_ref().map(scilla::wire::to_json),
                        }));
                    }
                });
                json!({"contract": addr.to_string(), "ints": ints, "overwrites": ows})
            })
            .collect();
        let balances: Vec<serde_json::Value> = self
            .balances
            .iter()
            .map(|(a, b)| json!({"account": a.to_string(), "delta": b.to_string()}))
            .collect();
        json!({"contracts": contracts, "balances": balances}).to_string()
    }

    /// Parses the JSON wire format produced by [`StateDelta::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed node: among others, a
    /// width other than 32, 64, 128 or 256, and a component that repeats
    /// or lies above or below another of the same contract.
    pub fn from_wire(wire: &str) -> Result<StateDelta, String> {
        let root: serde_json::Value = serde_json::from_str(wire).map_err(|e| e.to_string())?;
        let mut out = StateDelta::new();
        let parse_addr = Address::from_hex;
        let parse_keys = |j: &serde_json::Value| -> Result<Vec<Value>, String> {
            j.as_array()
                .ok_or("keys must be an array")?
                .iter()
                .map(scilla::wire::from_json)
                .collect()
        };
        for c in root["contracts"].as_array().ok_or("missing contracts")? {
            let addr = parse_addr(c["contract"].as_str().ok_or("missing contract address")?)?;
            let cd = out.contracts.entry(addr).or_default();
            for i in c["ints"].as_array().ok_or("missing ints")? {
                let field = scilla::intern::intern(i["field"].as_str().ok_or("missing field")?);
                let keys = parse_keys(&i["keys"])?;
                let delta: i128 =
                    i["delta"].as_str().ok_or("missing delta")?.parse().map_err(|_| "bad delta")?;
                let width = i["width"].as_u64().ok_or("missing width")?;
                let width = match width {
                    32 | 64 | 128 | 256 => width as u32,
                    _ => return Err(format!("bad width {width}")),
                };
                let signed = i["signed"].as_bool().ok_or("missing signed")?;
                cd.add(field, &keys, IntDelta { delta, width, signed })?;
            }
            for o in c["overwrites"].as_array().ok_or("missing overwrites")? {
                let field = scilla::intern::intern(o["field"].as_str().ok_or("missing field")?);
                let keys = parse_keys(&o["keys"])?;
                let value = match &o["value"] {
                    serde_json::Value::Null => None,
                    v => Some(scilla::wire::from_json(v)?),
                };
                cd.set(field, &keys, value)?;
            }
        }
        for b in root["balances"].as_array().ok_or("missing balances")? {
            let addr = parse_addr(b["account"].as_str().ok_or("missing account")?)?;
            let delta: i128 =
                b["delta"].as_str().ok_or("missing delta")?.parse().map_err(|_| "bad delta")?;
            out.balances.insert(addr, delta);
        }
        Ok(out)
    }

    /// The number of changed state components (the unit of the paper's
    /// "per changed state field" merge cost): an overwrite and a numeric
    /// delta on one component count two.
    pub fn changed_components(&self) -> usize {
        let mut n = self.balances.len();
        for cd in self.contracts.values() {
            cd.for_each_change(|_, _, c| n += usize::from(c.set.is_some()) + usize::from(c.add.is_some()));
        }
        n
    }
}

/// Computes the signed delta between two integer values of the same shape
/// (the initial value may be absent, meaning 0). `None` when the values are
/// not integers of a common shape or the delta exceeds `i128` (e.g. a fresh
/// write of nearly `u128::MAX` — such writes fall back to overwrites).
pub fn compute_int_delta(initial: Option<&Value>, now: &Value) -> Option<IntDelta> {
    match now {
        Value::Uint(w, n) => {
            let old: u128 = match initial {
                Some(Value::Uint(w2, o)) if w2 == w => *o,
                None => 0,
                _ => return None,
            };
            let delta = if *n >= old {
                i128::try_from(*n - old).ok()?
            } else {
                i128::try_from(old - *n).ok()?.checked_neg()?
            };
            Some(IntDelta { delta, width: *w, signed: false })
        }
        Value::Int(w, n) => {
            let old: i128 = match initial {
                Some(Value::Int(w2, o)) if w2 == w => *o,
                None => 0,
                _ => return None,
            };
            Some(IntDelta { delta: n.checked_sub(old)?, width: *w, signed: true })
        }
        _ => None,
    }
}

/// Applies a signed delta to an integer value (absent = 0), range-checked
/// against the component's declared width. Arithmetic happens in the
/// value's own domain, so `u128` values beyond `i128::MAX` are exact.
/// `None` if the result leaves the width's range, or the value is not an
/// integer of the delta's width and signedness: a delta never retypes a
/// component.
pub fn apply_int_delta(old: Option<&Value>, id: &IntDelta) -> Option<Value> {
    if id.signed {
        let old_i: i128 = match old {
            Some(Value::Int(w, n)) if *w == id.width => *n,
            None => 0,
            _ => return None,
        };
        let new = old_i.checked_add(id.delta)?;
        let (min, max) = match id.width {
            32 => (i32::MIN as i128, i32::MAX as i128),
            64 => (i64::MIN as i128, i64::MAX as i128),
            _ => (i128::MIN, i128::MAX),
        };
        (new >= min && new <= max).then_some(Value::Int(id.width, new))
    } else {
        let old_u: u128 = match old {
            Some(Value::Uint(w, n)) if *w == id.width => *n,
            None => 0,
            _ => return None,
        };
        let new = old_u.checked_add_signed(id.delta)?;
        (new <= uint_max(id.width)).then_some(Value::Uint(id.width, new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scilla::state::{InMemoryState, StateStore};

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn key(i: u64) -> Value {
        addr(i).to_value()
    }

    fn int_delta(d: i128) -> IntDelta {
        IntDelta { delta: d, width: 128, signed: false }
    }

    /// The change recorded for contract 100.
    fn cd(sd: &mut StateDelta) -> &mut ContractDelta {
        sd.contracts.entry(addr(100)).or_default()
    }

    fn adding(field: &str, keys: &[Value], id: IntDelta) -> StateDelta {
        let mut sd = StateDelta::new();
        cd(&mut sd).add(field.into(), keys, id).unwrap();
        sd
    }

    fn setting(field: &str, keys: &[Value], value: Option<Value>) -> StateDelta {
        let mut sd = StateDelta::new();
        cd(&mut sd).set(field.into(), keys, value).unwrap();
        sd
    }

    #[test]
    fn int_deltas_sum_across_shards() {
        let mk = |d: i128| adding("balances", &[key(1)], int_delta(d));
        let merged = StateDelta::merge_ref(&[mk(10), mk(-3), mk(5)]).unwrap();
        assert_eq!(merged, mk(12));
    }

    #[test]
    fn overwrite_conflicts_are_detected() {
        let mk = |v: u128| setting("owners", &[key(1)], Some(Value::Uint(128, v)));
        let err = StateDelta::merge_ref(&[mk(1), mk(2)]).unwrap_err();
        assert!(matches!(err, MergeError::OverwriteConflict { .. }));
    }

    /// Two adds on one component at different widths have no common type
    /// to sum in: a conflict, whichever arrives first.
    #[test]
    fn adds_of_another_shape_conflict_in_every_order() {
        let narrow = adding("n", &[], IntDelta { delta: 1, width: 32, signed: false });
        let wide = adding("n", &[], int_delta(1));
        let signed = adding("n", &[], IntDelta { delta: 1, width: 128, signed: true });
        for pair in [[&narrow, &wide], [&wide, &narrow], [&wide, &signed], [&signed, &wide]] {
            match StateDelta::merge_ref(pair) {
                Err(MergeError::OverwriteConflict { component, .. }) => assert_eq!(component, "n"),
                other => panic!("{pair:?} merged: {other:?}"),
            }
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let mut d1 = adding("x", &[], int_delta(4));
        d1.balances.insert(addr(1), -7);
        let mut d2 = adding("x", &[], int_delta(-1));
        cd(&mut d2).set("y".into(), &[key(2)], None).unwrap();
        d2.balances.insert(addr(1), 3);

        let ab = StateDelta::merge_ref([&d1, &d2]).unwrap();
        let ba = StateDelta::merge_ref([&d2, &d1]).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn apply_adds_deltas_to_base_values() {
        let c = addr(100);
        let mut state = GlobalState::new();
        let storage = Arc::make_mut(state.storage.entry(c).or_default());
        storage.set("balances".into(), &[key(1)], Some(Value::Uint(128, 100)));

        let mut sd = adding("balances", &[key(1)], int_delta(-30));
        cd(&mut sd).add("balances".into(), &[key(2)], int_delta(30)).unwrap();
        sd.apply(&mut state).unwrap();

        let storage = &state.storage[&c];
        assert_eq!(storage.get("balances".into(), &[key(1)]), Some(Value::Uint(128, 70)));
        assert_eq!(storage.get("balances".into(), &[key(2)]), Some(Value::Uint(128, 30)));
    }

    /// A leaf that sets and adds applies the set first; a branch over a
    /// scalar replaces it with a map, unless it only removes, as a plain
    /// store's `set` does.
    #[test]
    fn apply_sets_before_it_adds_and_grafts_maps_over_scalars() {
        let c = addr(100);
        let mut state = GlobalState::new();
        let storage = Arc::make_mut(state.storage.entry(c).or_default());
        storage.set("n".into(), &[], Some(Value::Uint(128, 7)));
        storage.set("s".into(), &[], Some(Value::Uint(128, 1)));
        storage.set("t".into(), &[], Some(Value::Uint(128, 2)));
        let mut sd = setting("n", &[], Some(Value::Uint(128, 100)));
        cd(&mut sd).add("n".into(), &[], int_delta(5)).unwrap();
        cd(&mut sd).set("s".into(), &[key(1), key(2)], Some(Value::Uint(32, 9))).unwrap();
        cd(&mut sd).set("s".into(), &[key(3)], None).unwrap();
        cd(&mut sd).set("t".into(), &[key(1), key(2)], None).unwrap();
        sd.apply(&mut state).unwrap();

        let mut plain = InMemoryState::new();
        plain.set("n".into(), &[], Some(Value::Uint(128, 105)));
        plain.set("s".into(), &[key(1), key(2)], Some(Value::Uint(32, 9)));
        plain.set("t".into(), &[], Some(Value::Uint(128, 2)));
        assert_eq!(*state.storage[&c], plain);
    }

    /// A wire delta may overwrite a whole field with `null`: that removes
    /// the field. No executor emits one, since no statement removes a field.
    #[test]
    fn null_whole_field_overwrite_removes_the_field() {
        let c = addr(100);
        let mut state = GlobalState::new();
        let storage = Arc::make_mut(state.storage.entry(c).or_default());
        storage.set("owner".into(), &[], Some(Value::Str("x".into())));
        let sd = setting("owner", &[], None);
        let sd = StateDelta::from_wire(&sd.to_wire()).unwrap();
        sd.apply(&mut state).unwrap();
        assert!(!state.storage[&c].fields().contains_key("owner"));
    }

    #[test]
    fn apply_rejects_underflow() {
        let mut state = GlobalState::new();
        state.storage.entry(addr(100)).or_default();
        let sd = adding("balances", &[key(1)], int_delta(-5));
        match sd.apply(&mut state) {
            Err(MergeError::DeltaOutOfRange { component, .. }) => {
                assert_eq!(component, component_name("balances".into(), &[key(1)]))
            }
            other => panic!("expected DeltaOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn apply_rejects_width_overflow() {
        let c = addr(100);
        let mut state = GlobalState::new();
        let storage = Arc::make_mut(state.storage.entry(c).or_default());
        storage.set("counter".into(), &[], Some(Value::Uint(32, u32::MAX as u128 - 1)));
        let sd = adding("counter", &[], IntDelta { delta: 5, width: 32, signed: false });
        assert!(matches!(sd.apply(&mut state), Err(MergeError::DeltaOutOfRange { .. })));
    }

    /// A delta never retypes a component: a base integer of another width
    /// or signedness refuses it.
    #[test]
    fn apply_refuses_a_base_integer_of_another_shape() {
        let narrow = IntDelta { delta: 1, width: 32, signed: false };
        assert_eq!(apply_int_delta(Some(&Value::Uint(128, 5)), &narrow), None);
        assert_eq!(apply_int_delta(Some(&Value::Int(32, 5)), &narrow), None);
        assert_eq!(apply_int_delta(Some(&Value::Uint(32, 5)), &narrow), Some(Value::Uint(32, 6)));
        let signed = IntDelta { delta: 1, width: 64, signed: true };
        assert_eq!(apply_int_delta(Some(&Value::Int(128, 5)), &signed), None);

        let c = addr(100);
        let mut state = GlobalState::new();
        let storage = Arc::make_mut(state.storage.entry(c).or_default());
        storage.set("counter".into(), &[], Some(Value::Uint(128, 5)));
        let sd = adding("counter", &[], narrow);
        assert!(matches!(sd.apply(&mut state), Err(MergeError::DeltaOutOfRange { .. })));
        assert_eq!(state.storage[&c].get("counter".into(), &[]), Some(Value::Uint(128, 5)));
    }

    #[test]
    fn balances_and_nonces_merge() {
        let mut d1 = StateDelta::new();
        d1.balances.insert(addr(1), -10);
        d1.nonces.insert(addr(1), vec![1, 3]);
        let mut d2 = StateDelta::new();
        d2.balances.insert(addr(1), 4);
        d2.nonces.insert(addr(1), vec![2]);
        let merged = StateDelta::merge_ref([&d1, &d2]).unwrap();
        let mut state = GlobalState::new();
        state.credit(addr(1), 100);
        merged.apply(&mut state).unwrap();
        assert_eq!(state.balance(&addr(1)), 94);
        assert_eq!(state.accounts[&addr(1)].nonces.high(), 3);
    }

    #[test]
    fn wire_roundtrips_modulo_nonces() {
        let mut sd = adding("balances", &[key(1)], int_delta(-42));
        cd(&mut sd).set("balances".into(), &[key(1)], Some(Value::Uint(128, 3))).unwrap();
        cd(&mut sd).set("owners".into(), &[key(2)], Some(Value::Str("x".into()))).unwrap();
        cd(&mut sd).set("owners".into(), &[key(3)], None).unwrap();
        sd.balances.insert(addr(1), -3);
        let back = StateDelta::from_wire(&sd.to_wire()).unwrap();
        // Nonce commits are carried in MicroBlock headers, not the wire
        // delta; everything else must roundtrip exactly.
        assert_eq!(back.contracts, sd.contracts);
        assert_eq!(back.balances, sd.balances);
    }

    #[test]
    fn malformed_wire_is_rejected() {
        assert!(StateDelta::from_wire("not json").is_err());
        assert!(StateDelta::from_wire("{}").is_err());
        assert!(StateDelta::from_wire(r#"{"contracts": [{"contract": "bogus"}], "balances": []}"#)
            .is_err());
    }

    /// A delta's own components never nest or repeat: the tree has no
    /// place for `m[1]` beside `m[1][3]`, so the decoder refuses them.
    #[test]
    fn wire_rejects_components_that_nest_or_repeat() {
        // The wire entries of one-component deltas, spliced into one.
        let entry = |sd: StateDelta, list: &str| {
            let wire: serde_json::Value = serde_json::from_str(&sd.to_wire()).unwrap();
            (list.to_string(), wire["contracts"][0][list][0].clone())
        };
        let set = |keys: &[u64]| {
            let keys: Vec<Value> = keys.iter().map(|&k| key(k)).collect();
            entry(setting("m", &keys, Some(Value::Uint(128, 9))), "overwrites")
        };
        let add = |keys: &[u64]| {
            let keys: Vec<Value> = keys.iter().map(|&k| key(k)).collect();
            entry(adding("m", &keys, int_delta(1)), "ints")
        };
        let spliced = |entries: &[(String, serde_json::Value)]| {
            let of = |list: &str| -> Vec<serde_json::Value> {
                entries.iter().filter(|(l, _)| l == list).map(|(_, e)| e.clone()).collect()
            };
            let contract = json!({
                "contract": addr(100).to_string(),
                "ints": of("ints"),
                "overwrites": of("overwrites"),
            });
            let balances: Vec<serde_json::Value> = Vec::new();
            StateDelta::from_wire(&json!({"contracts": vec![contract], "balances": balances}).to_string())
        };
        assert!(spliced(&[set(&[1]), set(&[2]), add(&[1]), add(&[3, 4])]).is_ok());
        for pair in [
            [set(&[1]), set(&[1, 3])],
            [set(&[1, 3]), set(&[1])],
            [add(&[1]), set(&[1, 3])],
            [add(&[1, 3]), add(&[1])],
            [set(&[]), add(&[1])],
            [set(&[1]), set(&[1])],
            [add(&[1]), add(&[1])],
        ] {
            assert!(spliced(&pair).is_err(), "{pair:?}");
        }
    }

    #[test]
    fn non_hex_wire_key_is_an_error_not_a_panic() {
        let sd = setting("owners", &[Value::ByStr(vec![0xab])], None);
        let wire = sd.to_wire();
        assert!(StateDelta::from_wire(&wire).is_ok());
        // An even-length payload whose second byte is inside 'é'.
        let hostile = wire.replace(r#""v":"ab""#, r#""v":"aéb""#);
        assert_ne!(hostile, wire);
        assert!(StateDelta::from_wire(&hostile).is_err());
    }

    #[test]
    fn hostile_wire_address_or_width_is_an_error_not_a_panic() {
        let sd = adding("balances", &[key(1)], int_delta(1));
        let wire = sd.to_wire();
        let contract = addr(100).to_string();
        // A two-byte character straddling a digit pair, and signed digits.
        let straddling = format!("0xa\u{e9}{}", "0".repeat(37));
        let signed = format!("0x{}", "+f".repeat(20));
        for hostile in [straddling, signed] {
            assert_eq!(hostile.len(), contract.len());
            let bad = wire.replace(&contract, &hostile);
            assert_ne!(bad, wire);
            assert!(StateDelta::from_wire(&bad).is_err(), "accepted contract {hostile:?}");
        }
        // A width past `u32` is an error, not a truncation to 128, and so is
        // any width no integer type has.
        for width in [(1u64 << 32) + 128, 0, 8, 48, 512] {
            let bad = wire.replace(r#""width":128"#, &format!(r#""width":{width}"#));
            assert_ne!(bad, wire);
            assert!(StateDelta::from_wire(&bad).is_err(), "accepted width {width}");
        }
        for width in [32, 64, 256] {
            let good = wire.replace(r#""width":128"#, &format!(r#""width":{width}"#));
            assert!(StateDelta::from_wire(&good).is_ok(), "refused width {width}");
        }
    }

    #[test]
    fn wire_encoding_is_valid_json() {
        let mut sd = adding("balances", &[key(1)], int_delta(5));
        cd(&mut sd).set("owners".into(), &[key(2)], Some(Value::Str("x".into()))).unwrap();
        sd.balances.insert(addr(1), -3);
        let wire = sd.to_wire();
        let parsed: serde_json::Value = serde_json::from_str(&wire).unwrap();
        assert!(parsed["contracts"].is_array());
        assert_eq!(sd.changed_components(), 3);
    }
}
