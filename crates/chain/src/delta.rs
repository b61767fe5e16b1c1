//! State deltas and the three-way merge (paper §4.1, §4.3).
//!
//! Each shard's `MicroBlock` carries a `StateDelta` describing what its
//! transactions changed relative to the epoch-start state. Per contract, a
//! [`ContractDelta`] holds one [`Tree`] per written field, shaped like the
//! field's nested maps: the executor's working-state tree, drained in place
//! ([`ContractDelta::from_state`]). Each leaf is a [`Change`] to one
//! component:
//!
//! * components of fields with an [`Join::IntMerge`] join carry *numeric
//!   deltas* (`add`) that sum across shards (Strategy 2, commutativity);
//! * everything else carries *overwrites* (`set`) whose disjointness is
//!   guaranteed by ownership dispatch (Strategy 1).
//!
//! One join walk visits the shard deltas' trees side by side, a k-way merge
//! of their children in key order, and hands what it joins to a sink: a
//! check that only gives the verdict, [`StateDelta::merge_ref`], which
//! builds the merged delta, or a graft straight into the state
//! ([`StateDelta::apply`] and the epoch's merge stage, after a check). The
//! join detects violations rather than silently losing writes: a change
//! above or below another, two overwrites of one component, or two numeric
//! deltas of different shapes on one component are a conflict.
//!
//! [`Join::IntMerge`]: cosplit_analysis::signature::Join::IntMerge

use crate::address::Address;
use crate::error::MergeError;
use crate::state::GlobalState;
use cosplit_analysis::signature::Join;
use scilla::builtins::uint_max;
use scilla::intern::Sym;
pub use scilla::state::IntDelta;
use scilla::state::{Change, CowState, GraftMap, Tree};
use scilla::value::Value;
use serde_json::json;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::iter::Peekable;
use std::sync::Arc;

/// Renders a component, a field plus a key path, for diagnostics.
pub fn component_name<'a>(field: Sym, keys: impl IntoIterator<Item = &'a Value>) -> String {
    let mut s = field.as_str().to_string();
    for k in keys {
        s.push_str(&format!("[{k}]"));
    }
    s
}

/// A leaf as the join leaves it: the overwrite of the one delta that makes
/// one, borrowed, and the sum of the deltas' numeric deltas.
#[derive(Clone, Copy)]
struct Joined<'a> {
    set: Option<&'a Option<Value>>,
    add: Option<IntDelta>,
}

impl<'a> Joined<'a> {
    fn of(change: &'a Change) -> Self {
        Joined { set: change.set(), add: change.add() }
    }

    /// Its changed components: an overwrite and a numeric delta count two.
    fn components(self) -> usize {
        usize::from(self.set.is_some()) + usize::from(self.add.is_some())
    }

    /// The component's value after the change, given its value before
    /// (`None`: absent). `None` if the sum leaves the component's type or
    /// the value is not an integer of the delta's shape.
    fn applied(self, old: Option<&Value>) -> Option<Option<Value>> {
        let old = match self.set {
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

    /// Takes over a contract's working state as its delta: its trees,
    /// drained in place ([`CowState::into_writes`]). A write to a field
    /// whose join in `joins` is [`Join::IntMerge`] becomes an `add` against
    /// the base value when both are integers of one shape and the change
    /// fits `i128`; every other write stays a `set`.
    pub fn from_state(state: CowState, joins: Option<&BTreeMap<String, Join>>) -> ContractDelta {
        let fields = state.into_writes(|field| {
            let int_merge = joins.is_some_and(|j| j.get(field.as_str()) == Some(&Join::IntMerge));
            // Only an `add` is computed against the base value.
            (int_merge, move |change: &mut Change, base: Option<&Value>| {
                // Non-integer, shape-changing, or out-of-i128-range changes
                // stay overwrites; under a correct signature only one shard
                // can produce them.
                let add =
                    change.written().filter(|_| int_merge).and_then(|v| compute_int_delta(base, v));
                if let Some(add) = Change::from_parts(None, add) {
                    *change = add;
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
        self.record(field, keys, Some(value), None, "overwritten twice")
    }

    /// Records a numeric delta on a component.
    ///
    /// # Errors
    ///
    /// If the delta already adds to the component, or changes one above or
    /// below it.
    pub fn add(&mut self, field: Sym, keys: &[Value], id: IntDelta) -> Result<(), String> {
        self.record(field, keys, None, Some(id), "added to twice")
    }

    /// Records an overwrite or a numeric delta on a component, beside the
    /// other part if the delta already has it there; `twice` says what a
    /// part the leaf already holds is.
    fn record(
        &mut self,
        field: Sym,
        keys: &[Value],
        set: Option<Option<Value>>,
        add: Option<IntDelta>,
        twice: &str,
    ) -> Result<(), String> {
        let nested = || format!("{} nests with another component", component_name(field, keys));
        // A new path ends in an empty branch, which the leaf replaces.
        let branch = || Tree::Branch(BTreeMap::new());
        let mut tree = self.fields.entry(field).or_insert_with(branch);
        for k in keys {
            let Tree::Branch(children) = tree else { return Err(nested()) };
            tree = children.entry(k.clone()).or_insert_with(branch);
        }
        let (set, add) = match tree {
            Tree::Branch(children) if children.is_empty() => (set, add),
            Tree::Branch(_) => return Err(nested()),
            Tree::Leaf(had)
                if set.is_some() && had.set().is_some() || add.is_some() && had.add().is_some() =>
            {
                return Err(format!("{} {twice}", component_name(field, keys)))
            }
            Tree::Leaf(had) => (set.or_else(|| had.set().cloned()), add.or(had.add())),
        };
        if let Some(change) = Change::from_parts(set, add) {
            *tree = Tree::Leaf(change);
        }
        Ok(())
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

/// Where the join walk puts one level of a field's joined tree: `K` is the
/// field at the top and a map key below it. An error of `sole` or `joined`
/// is the path below `key` to a component whose change does not apply.
trait Sink<K> {
    /// A subtree that one delta alone changes.
    fn sole(&mut self, key: &K, tree: &Tree<Change>) -> Result<(), Vec<Value>>;

    /// A leaf that several deltas change, joined.
    fn joined(&mut self, key: &K, leaf: Joined<'_>) -> Result<(), Vec<Value>>;

    /// A branch that several deltas change: `below` walks its children into
    /// the sink it is given.
    fn branch(&mut self, key: &K, below: &mut Below<'_, Value>) -> Result<(), MergeError>;
}

/// The rest of the walk below a node, into the sink it is given.
type Below<'w, K> = dyn FnMut(&mut dyn Sink<K>) -> Result<(), MergeError> + 'w;

/// Where the join walk puts a state delta's top level.
trait Target {
    /// A contract that any delta changes: `fields` walks its fields into
    /// the sink it is given.
    fn contract(&mut self, addr: Address, fields: &mut Below<'_, Sym>) -> Result<(), MergeError>;

    /// An account that any delta changes: its balance change, summed, if a
    /// delta has one, and each delta's part.
    fn account(
        &mut self,
        addr: Address,
        balance: Option<i128>,
        parts: &[(usize, Account<'_>)],
    ) -> Result<(), MergeError>;
}

/// One delta's change to an account: its balance change and the nonces it
/// commits.
type Account<'a> = (Option<&'a i128>, Option<&'a Vec<u64>>);

/// The sink that only gives the verdict.
struct Check;

impl<K> Sink<K> for Check {
    fn sole(&mut self, _: &K, _: &Tree<Change>) -> Result<(), Vec<Value>> {
        Ok(())
    }

    fn joined(&mut self, _: &K, _: Joined<'_>) -> Result<(), Vec<Value>> {
        Ok(())
    }

    fn branch(&mut self, _: &K, below: &mut Below<'_, Value>) -> Result<(), MergeError> {
        below(self)
    }
}

impl Target for Check {
    fn contract(&mut self, _: Address, fields: &mut Below<'_, Sym>) -> Result<(), MergeError> {
        fields(self)
    }

    fn account(
        &mut self,
        _: Address,
        _: Option<i128>,
        _: &[(usize, Account<'_>)],
    ) -> Result<(), MergeError> {
        Ok(())
    }
}

/// The sink that builds one level of the merged delta: its children, in key
/// order.
struct Build<K>(Vec<(K, Tree<Change>)>);

impl<K: Clone> Sink<K> for Build<K> {
    fn sole(&mut self, key: &K, tree: &Tree<Change>) -> Result<(), Vec<Value>> {
        self.0.push((key.clone(), tree.clone()));
        Ok(())
    }

    fn joined(&mut self, key: &K, leaf: Joined<'_>) -> Result<(), Vec<Value>> {
        if let Some(change) = Change::from_parts(leaf.set.cloned(), leaf.add) {
            self.0.push((key.clone(), Tree::Leaf(change)));
        }
        Ok(())
    }

    fn branch(&mut self, key: &K, below: &mut Below<'_, Value>) -> Result<(), MergeError> {
        let mut children = Build(Vec::new());
        below(&mut children)?;
        self.0.push((key.clone(), Tree::Branch(children.0.into_iter().collect())));
        Ok(())
    }
}

/// The merged delta is built at the top.
impl Target for StateDelta {
    fn contract(&mut self, addr: Address, fields: &mut Below<'_, Sym>) -> Result<(), MergeError> {
        let mut built = Build(Vec::new());
        fields(&mut built)?;
        self.contracts.insert(addr, ContractDelta { fields: built.0.into_iter().collect() });
        Ok(())
    }

    fn account(
        &mut self,
        addr: Address,
        balance: Option<i128>,
        parts: &[(usize, Account<'_>)],
    ) -> Result<(), MergeError> {
        if let Some(b) = balance {
            self.balances.insert(addr, b);
        }
        let mut committed = parts.iter().filter_map(|(_, (_, ns))| *ns).peekable();
        if committed.peek().is_some() {
            // Canonical multiset representation: merging is commutative and
            // associative only if the committed-nonce list is order-free.
            let ns = self.nonces.entry(addr).or_default();
            ns.extend(committed.flatten());
            ns.sort_unstable();
        }
        Ok(())
    }
}

/// The sink that grafts the join into `map`: a contract's store, one of its
/// map values, or at the top the global state. It counts the changed
/// components.
struct Graft<'m, M> {
    map: &'m mut M,
    components: &'m mut usize,
}

impl<K, M: GraftMap<K>> Sink<K> for Graft<'_, M> {
    fn sole(&mut self, key: &K, tree: &Tree<Change>) -> Result<(), Vec<Value>> {
        let components = &mut *self.components;
        let mut leaf = |change: &Change, old: Option<&Value>| {
            let leaf = Joined::of(change);
            *components += leaf.components();
            leaf.applied(old).ok_or(())
        };
        self.map.graft_tree(key, tree, &mut leaf).map_err(|((), below)| below)
    }

    fn joined(&mut self, key: &K, leaf: Joined<'_>) -> Result<(), Vec<Value>> {
        *self.components += leaf.components();
        self.map.graft_leaf(key, |old| leaf.applied(old).ok_or(())).map_err(|()| Vec::new())
    }

    fn branch(&mut self, key: &K, below: &mut Below<'_, Value>) -> Result<(), MergeError> {
        let components = &mut *self.components;
        self.map.graft_branch(key, |map| below(&mut Graft { map, components }))
    }
}

impl Target for Graft<'_, GlobalState> {
    fn contract(&mut self, addr: Address, fields: &mut Below<'_, Sym>) -> Result<(), MergeError> {
        // In the normal epoch flow the shard executors' snapshot views have
        // been dropped by merge time, so `make_mut` mutates in place; a
        // surviving snapshot (e.g. a held block digest input) triggers one
        // shallow O(fields) copy, never a value deep-copy.
        let map = Arc::make_mut(self.map.storage.entry(addr).or_default());
        fields(&mut Graft { map, components: &mut *self.components })
    }

    /// One search of the accounts per address: the balance, then the
    /// nonces.
    fn account(
        &mut self,
        addr: Address,
        balance: Option<i128>,
        parts: &[(usize, Account<'_>)],
    ) -> Result<(), MergeError> {
        let acc = self.map.accounts.entry(addr).or_default();
        if let Some(b) = balance {
            *self.components += 1;
            // In `u128`, like the integer components: a balance past
            // `i128::MAX` is exact, and an overdraw is an error, not a clamp.
            acc.balance =
                acc.balance.checked_add_signed(b).ok_or_else(|| MergeError::DeltaOutOfRange {
                    contract: addr.to_string(),
                    component: "balance".into(),
                })?;
        }
        // The deltas' sorted lists, merged into one increasing run.
        let lists = parts.iter().filter_map(|&(j, (_, ns))| Some((j, ns?.iter().map(|n| (n, ())))));
        let Ok(()) = kway(lists, |&n, _| {
            acc.nonces.commit(n);
            Ok::<_, Infallible>(())
        });
        Ok(())
    }
}

/// The join walk's place and findings. Nodes come with the index of their
/// delta; the verdict is the one [`StateDelta::merge_ref`] has always
/// given, which joins the deltas one after another.
struct Walk<'a> {
    contract: Address,
    field: Sym,
    /// The key path below `field`.
    at: Vec<&'a Value>,
    /// The first conflict that joining the deltas in order meets: the least
    /// delta index, then the first component in order.
    conflict: Option<(usize, MergeError)>,
    /// The first component whose exact sum leaves `i128`: by account, a
    /// balance (`false`) before a contract's components (`true`), then in
    /// component order.
    wrapped: Option<((Address, bool), MergeError)>,
}

impl<'a> Walk<'a> {
    /// Walks the join of `deltas` into `target`.
    ///
    /// # Errors
    ///
    /// A change `target` cannot apply, as soon as it meets it; otherwise
    /// the verdict.
    fn run(deltas: &[&'a StateDelta], target: &mut impl Target) -> Result<(), MergeError> {
        let mut walk = Walk {
            contract: Address([0; 20]),
            field: Sym::default(),
            at: Vec::new(),
            conflict: None,
            wrapped: None,
        };
        let contracts = deltas.iter().enumerate().map(|(j, d)| (j, d.contracts.iter()));
        kway(contracts, |&addr, cds| {
            walk.contract = addr;
            target.contract(addr, &mut |sink| {
                let fields = cds.iter().map(|&(j, cd)| (j, cd.fields.iter()));
                kway(fields, |&field, nodes| {
                    walk.field = field;
                    walk.join(&field, nodes, sink)
                })
            })
        })?;
        let accounts = deltas.iter().enumerate().map(|(j, d)| (j, accounts(d)));
        kway(accounts, |&addr, parts| {
            let (mut balance, mut wraps) = (None, 0i64);
            for (_, (b, _)) in parts {
                let Some(&b) = *b else { continue };
                let (sum, wrapped) = balance.unwrap_or(0i128).overflowing_add(b);
                balance = Some(sum);
                wraps += if wrapped { b.signum() as i64 } else { 0 };
            }
            if wraps != 0 {
                walk.wrap((addr, false), || "balance".into());
            }
            target.account(addr, balance, parts)
        })?;
        match (walk.conflict, walk.wrapped) {
            (Some((_, e)), _) | (None, Some((_, e))) => Err(e),
            (None, None) => Ok(()),
        }
    }

    /// Joins the deltas' nodes at `key`, the walk's path, into `sink`.
    fn join<K: Clone>(
        &mut self,
        key: &K,
        nodes: &[(usize, &'a Tree<Change>)],
        sink: &mut dyn Sink<K>,
    ) -> Result<(), MergeError> {
        // A node one delta alone changes goes whole, unread: the check then
        // touches only the keys of the deltas' trees.
        if let [(_, tree)] = nodes {
            return sink.sole(key, tree).map_err(|below| self.out_of_range(&below));
        }
        let is_leaf = |node: &Tree<Change>| matches!(node, Tree::Leaf(_));
        // Joined in delta order, the first node of another kind than the
        // first one's conflicts; the ones before it still join.
        let leaf = is_leaf(nodes[0].1);
        let same = nodes.iter().position(|(_, n)| is_leaf(n) != leaf).unwrap_or(nodes.len());
        if let Some(&(j, _)) = nodes.get(same) {
            self.conflict(j);
        }
        match &nodes[..same] {
            [(_, tree)] => sink.sole(key, tree).map_err(|below| self.out_of_range(&below)),
            nodes if leaf => {
                let joined = self.join_leaves(nodes);
                sink.joined(key, joined).map_err(|below| self.out_of_range(&below))
            }
            nodes => sink.branch(key, &mut |sink| {
                let children = nodes.iter().filter_map(|&(j, node)| match node {
                    Tree::Branch(children) => Some((j, children.iter())),
                    Tree::Leaf(_) => None,
                });
                kway(children, |k, nodes| {
                    self.at.push(k);
                    self.join(k, nodes, sink)?;
                    self.at.pop();
                    Ok(())
                })
            }),
        }
    }

    /// Joins several deltas' leaves at the walk's path: the one overwrite,
    /// and the numeric deltas summed.
    fn join_leaves(&mut self, nodes: &[(usize, &'a Tree<Change>)]) -> Joined<'a> {
        let mut out = Joined { set: None, add: None };
        let mut wraps = 0i64;
        for &(j, node) in nodes {
            let Tree::Leaf(change) = node else { continue };
            let clash = match (&mut out.add, change.add()) {
                (_, None) => false,
                (None, add) => {
                    out.add = add;
                    false
                }
                (Some(a), Some(b)) if (a.width, a.signed) == (b.width, b.signed) => {
                    let wrapped;
                    (a.delta, wrapped) = a.delta.overflowing_add(b.delta);
                    wraps += if wrapped { b.delta.signum() as i64 } else { 0 };
                    false
                }
                (Some(_), Some(_)) => true,
            };
            if clash || (out.set.is_some() && change.set().is_some()) {
                self.conflict(j);
                return out;
            }
            out.set = out.set.or(change.set());
        }
        if wraps != 0 {
            let component = component_name(self.field, self.at.iter().copied());
            self.wrap((self.contract, true), || component);
        }
        out
    }

    /// Notes a conflict of delta `j` at the walk's path.
    fn conflict(&mut self, j: usize) {
        if self.conflict.as_ref().is_none_or(|(first, _)| j < *first) {
            let component = component_name(self.field, self.at.iter().copied());
            let e =
                MergeError::OverwriteConflict { contract: self.contract.to_string(), component };
            self.conflict = Some((j, e));
        }
    }

    /// Notes a sum past `i128` at `at`, an account and whether the sum is a
    /// contract component's.
    fn wrap(&mut self, at: (Address, bool), component: impl FnOnce() -> String) {
        if self.wrapped.as_ref().is_none_or(|(first, _)| at < *first) {
            let e =
                MergeError::DeltaOutOfRange { contract: at.0.to_string(), component: component() };
            self.wrapped = Some((at, e));
        }
    }

    /// The error of a change that does not apply, `below` the walk's path.
    fn out_of_range(&self, below: &[Value]) -> MergeError {
        MergeError::DeltaOutOfRange {
            contract: self.contract.to_string(),
            component: component_name(self.field, self.at.iter().copied().chain(below)),
        }
    }
}

/// Visits the union of sorted streams in key order, a k-way merge: `visit`
/// gets each key with the values under it, each beside its stream's index,
/// in stream order.
fn kway<'a, K, V, I, E>(
    streams: impl IntoIterator<Item = (usize, I)>,
    mut visit: impl FnMut(&'a K, &[(usize, V)]) -> Result<(), E>,
) -> Result<(), E>
where
    K: Ord + 'a,
    V: Copy,
    I: Iterator<Item = (&'a K, V)>,
{
    let mut streams = streams.into_iter();
    let Some(first) = streams.next() else { return Ok(()) };
    let Some(second) = streams.next() else {
        let (j, mut stream) = first;
        return stream.try_for_each(|(k, v)| visit(k, &[(j, v)]));
    };
    let mut heads: Vec<(usize, Peekable<I>)> =
        [first, second].into_iter().chain(streams).map(|(j, s)| (j, s.peekable())).collect();
    // The heads holding the least key, by position, and their values.
    let (mut least, mut here) = (Vec::with_capacity(heads.len()), Vec::with_capacity(heads.len()));
    loop {
        let mut key = None;
        least.clear();
        here.clear();
        for (i, (j, stream)) in heads.iter_mut().enumerate() {
            let Some(&(k, v)) = stream.peek() else { continue };
            match key.map(|key| k.cmp(key)) {
                Some(Ordering::Greater) => continue,
                Some(Ordering::Less) | None => {
                    key = Some(k);
                    least.clear();
                    here.clear();
                }
                Some(Ordering::Equal) => {}
            }
            least.push(i);
            here.push((*j, v));
        }
        let Some(key) = key else { return Ok(()) };
        for &i in &least {
            heads[i].1.next();
        }
        visit(key, &here)?;
    }
}

/// One delta's accounts in address order, each with its part.
fn accounts(d: &StateDelta) -> impl Iterator<Item = (&Address, Account<'_>)> {
    let (mut balances, mut nonces) = (d.balances.iter().peekable(), d.nonces.iter().peekable());
    std::iter::from_fn(move || {
        let addr = match (balances.peek(), nonces.peek()) {
            (Some(&(b, _)), Some(&(n, _))) => b.min(n),
            (Some(&(b, _)), None) => b,
            (None, Some(&(n, _))) => n,
            (None, None) => return None,
        };
        let balance = balances.next_if(|&(a, _)| a == addr).map(|(_, b)| b);
        let committed = nonces.next_if(|&(a, _)| a == addr).map(|(_, ns)| ns);
        Some((addr, (balance, committed)))
    })
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
    /// one first. The epoch's merge stage builds no merged delta: it checks
    /// the join and grafts it straight into the state.
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
    /// A conflict names the component where joining the deltas one after
    /// another first meets one.
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
        let deltas: Vec<&StateDelta> = deltas.into_iter().collect();
        // The walk gives the verdict at its end, and building never fails
        // before it.
        let mut out = StateDelta::new();
        Walk::run(&deltas, &mut out)?;
        Ok(out)
    }

    /// The verdict [`StateDelta::merge_ref`] gives `deltas`, found without
    /// building anything.
    ///
    /// # Errors
    ///
    /// As [`StateDelta::merge_ref`]'s.
    pub(crate) fn check(deltas: &[&StateDelta]) -> Result<(), MergeError> {
        Walk::run(deltas, &mut Check)
    }

    /// Grafts the join of `deltas`, which passed [`StateDelta::check`],
    /// straight onto the state: one walk beside the state's maps, each
    /// delta's nodes read where they lie. It applies what
    /// `merge_ref(deltas)` would, and returns its `changed_components()`.
    ///
    /// # Errors
    ///
    /// As [`StateDelta::apply`]'s, for the first change in component order
    /// that does not apply.
    pub(crate) fn graft(
        deltas: &[&StateDelta],
        state: &mut GlobalState,
    ) -> Result<usize, MergeError> {
        let mut components = 0;
        Walk::run(deltas, &mut Graft { map: state, components: &mut components })?;
        Ok(components)
    }

    /// Applies the delta to the global state (the DS committee's three-way
    /// merge of epoch-start state with the combined deltas): each field's
    /// tree is grafted onto the contract's storage in one walk, and each
    /// account is looked up once.
    ///
    /// # Errors
    ///
    /// [`MergeError::DeltaOutOfRange`] if an integer component or a native
    /// balance leaves its type's range — the situation the paper's §6
    /// overflow guard prevents — or a numeric delta meets a value that is
    /// not an integer of its shape.
    pub fn apply(&self, state: &mut GlobalState) -> Result<(), MergeError> {
        // One delta joins with nothing, so it passes the check.
        StateDelta::graft(&[self], state).map(drop)
    }

    /// Serialises the delta through the JSON wire format (the boundary whose
    /// cost the paper measures in §5.2.2): per contract, the numeric deltas
    /// and then the overwrites, each list in component order.
    pub fn to_wire(&self) -> String {
        let keys =
            |keys: &[&Value]| keys.iter().map(|k| scilla::wire::to_json(k)).collect::<Vec<_>>();
        let contracts: Vec<serde_json::Value> = self
            .contracts
            .iter()
            .map(|(addr, cd)| {
                let (mut ints, mut ows) = (Vec::new(), Vec::new());
                cd.for_each_change(|field, path, change| {
                    if let Some(d) = change.add() {
                        ints.push(json!({
                            "field": field.as_str(),
                            "keys": keys(path),
                            "delta": d.delta.to_string(),
                            "width": d.width,
                            "signed": d.signed,
                        }));
                    }
                    if let Some(v) = change.set() {
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
            cd.for_each_change(|_, _, c| n += Joined::of(c).components());
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
            StateDelta::from_wire(
                &json!({"contracts": vec![contract], "balances": balances}).to_string(),
            )
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
