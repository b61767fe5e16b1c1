//! Contract state storage abstraction.
//!
//! The interpreter manipulates contract fields through the [`StateStore`]
//! trait so that the blockchain layer can interpose overlays (per-shard
//! scratch states, write logs for state-delta computation) without the
//! interpreter knowing. The trait addresses state the way the merge does
//! (paper §4): by component, a field plus a key path, with three
//! operations — [`StateStore::get`], [`StateStore::exists`] and
//! [`StateStore::set`], where setting `None` removes.
//!
//! Storage values are structurally shared: every [`Value::Map`] node is
//! `Arc`-backed, so cloning a store (or any value read out of it) is a
//! pointer bump. Mutation goes through [`map_make_mut`], which copies a map
//! node only when it is shared — and counts each such copy-on-write break in
//! telemetry, so benchmarks can assert that overlay writes cost O(writes),
//! not O(state).
//!
//! [`CowState`] builds on this: pending writes over an `Arc`-shared
//! [`InMemoryState`] base, kept per field as a [`Tree`] shaped like the
//! field's nested maps, one key per level, with a [`Change`] at each leaf.
//! It is the one record of a batch's writes: it owns the transaction
//! boundary ([`CowState::commit`], [`CowState::rollback`]: transitions are
//! atomic, §3.1), and [`CowState::into_writes`] drains its trees in place
//! into the batch's delta, which a [`GraftMap`] writes into a store in one
//! walk.

use crate::intern::Sym;
use crate::value::Value;
use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;
use telemetry::names;

/// Mutable access to a contract's fields, one component at a time.
///
/// A component is a field plus a key path (paper §4): the empty path is the
/// whole field, and a path shorter than the field's map nesting depth
/// addresses a whole sub-map.
///
/// Field names are pre-interned [`Sym`]s: they resolve once at parse/compile
/// time, so the per-statement path does no string hashing or allocation.
/// Callers holding text intern it at the call (`"balances".into()`).
pub trait StateStore {
    /// Reads a component. `None` if it does not exist.
    fn get(&self, field: Sym, keys: &[Value]) -> Option<Value>;

    /// Tests whether a component exists, without cloning it (a partial key
    /// path would otherwise clone a whole sub-map just to discard it).
    fn exists(&self, field: Sym, keys: &[Value]) -> bool;

    /// Writes a component, materialising intermediate maps as needed.
    /// `None` removes it, and removing an absent component is a no-op;
    /// `set(field, &[], None)` removes the whole field.
    fn set(&mut self, field: Sym, keys: &[Value], value: Option<Value>);
}

/// Grants mutable access to a shared map node, copying it first if anyone
/// else holds a reference (`Arc::make_mut`). Each such copy — a CoW break —
/// is counted in telemetry (`chain.state.cow_breaks` / `bytes_cloned`) so
/// experiments can measure how much state the write path actually copies.
pub fn map_make_mut(node: &mut Arc<BTreeMap<Value, Value>>) -> &mut BTreeMap<Value, Value> {
    if telemetry::enabled() && Arc::strong_count(node) > 1 {
        telemetry::counter!(names::STATE_COW_BREAKS).inc();
        let approx = node.len() * std::mem::size_of::<(Value, Value)>();
        telemetry::counter!(names::STATE_BYTES_CLONED).add(approx as u64);
    }
    Arc::make_mut(node)
}

/// Walks `keys` through nested maps, returning the addressed value.
pub fn descend<'v>(mut value: &'v Value, keys: &[Value]) -> Option<&'v Value> {
    for k in keys {
        match value {
            Value::Map(m) => value = m.get(k)?,
            _ => return None,
        }
    }
    Some(value)
}

/// Inserts `new` at the nested key path inside `root`, creating intermediate
/// maps as needed. `root` must be a map if `keys` is non-empty. Shared map
/// nodes along the path are copied (copy-on-write); untouched siblings stay
/// shared with the original tree.
pub fn insert_at(root: &mut Value, keys: &[Value], new: Value) {
    match keys.split_first() {
        None => *root = new,
        Some((k, rest)) => {
            let Value::Map(m) = root else {
                // Type checker guarantees map shape; recover by replacing.
                *root = Value::empty_map();
                return insert_at(root, keys, new);
            };
            let entry = map_make_mut(m).entry(k.clone()).or_insert_with(Value::empty_map);
            insert_at(entry, rest, new);
        }
    }
}

/// Removes the entry at the nested key path inside `root`. No-op if any
/// prefix is missing — checked up front so absent deletes never trigger a
/// copy-on-write break.
pub fn delete_at(root: &mut Value, keys: &[Value]) {
    if descend(root, keys).is_none() {
        return;
    }
    delete_at_present(root, keys);
}

fn delete_at_present(root: &mut Value, keys: &[Value]) {
    let Some((k, rest)) = keys.split_first() else { return };
    let Value::Map(m) = root else { return };
    let m = map_make_mut(m);
    if rest.is_empty() {
        m.remove(k);
    } else if let Some(child) = m.get_mut(k) {
        delete_at_present(child, rest);
    }
}

/// A plain in-memory field store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InMemoryState {
    fields: BTreeMap<String, Value>,
}

impl InMemoryState {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store from initial field values.
    pub fn from_fields(fields: BTreeMap<String, Value>) -> Self {
        InMemoryState { fields }
    }

    /// All fields, by name.
    pub fn fields(&self) -> &BTreeMap<String, Value> {
        &self.fields
    }
}

/// A map that a graft writes into, one key at a time: a store's fields by
/// name, or the entries of a map value. [`GraftMap::graft_tree`] writes a
/// tree of changes in one walk beside the maps, copying each shared map
/// node it changes once; the other two write one node of a walk the caller
/// leads.
pub trait GraftMap<K> {
    /// Writes under `key` the value `leaf` makes of the one there (`None`:
    /// absent, and from `leaf`: remove).
    ///
    /// # Errors
    ///
    /// `leaf`'s error, with nothing written.
    fn graft_leaf<E>(
        &mut self,
        key: &K,
        leaf: impl FnOnce(Option<&Value>) -> Result<Option<Value>, E>,
    ) -> Result<(), E>;

    /// Lets `below` write into the map under `key`. A missing or non-map
    /// value gets a fresh map, which replaces it unless it stays empty.
    ///
    /// # Errors
    ///
    /// `below`'s error; a fresh map is then dropped.
    fn graft_branch<E>(
        &mut self,
        key: &K,
        below: impl FnOnce(&mut BTreeMap<Value, Value>) -> Result<(), E>,
    ) -> Result<(), E>;

    /// Writes a tree of changes under `key`. `leaf` maps a leaf and the
    /// value at its path (`None`: absent) to the new value (`None`:
    /// remove). So setting each leaf's component in component order with
    /// [`StateStore::set`] gives the same store.
    ///
    /// # Errors
    ///
    /// The first error `leaf` returns, with its leaf's key path below `key`;
    /// the leaves before it in component order are written, unless they lie
    /// in a fresh map.
    fn graft_tree<L, E>(
        &mut self,
        key: &K,
        tree: &Tree<L>,
        leaf: &mut impl FnMut(&L, Option<&Value>) -> Result<Option<Value>, E>,
    ) -> Result<(), (E, Vec<Value>)> {
        match tree {
            Tree::Leaf(l) => self.graft_leaf(key, |old| leaf(l, old)).map_err(|e| (e, Vec::new())),
            Tree::Branch(children) => self.graft_branch(key, |map| {
                for (k, tree) in children {
                    map.graft_tree(k, tree, leaf).map_err(|(e, mut path)| {
                        path.insert(0, k.clone());
                        (e, path)
                    })?;
                }
                Ok(())
            }),
        }
    }
}

impl GraftMap<Sym> for InMemoryState {
    fn graft_leaf<E>(
        &mut self,
        field: &Sym,
        leaf: impl FnOnce(Option<&Value>) -> Result<Option<Value>, E>,
    ) -> Result<(), E> {
        let name = field.as_str();
        match self.fields.get_mut(name) {
            Some(old) => match leaf(Some(old))? {
                Some(v) => *old = v,
                None => drop(self.fields.remove(name)),
            },
            // Only a new field allocates its name.
            None => {
                if let Some(v) = leaf(None)? {
                    self.fields.insert(name.to_string(), v);
                }
            }
        }
        Ok(())
    }

    fn graft_branch<E>(
        &mut self,
        field: &Sym,
        below: impl FnOnce(&mut BTreeMap<Value, Value>) -> Result<(), E>,
    ) -> Result<(), E> {
        let name = field.as_str();
        graft_branch(&mut self.fields, name, || name.to_string(), below)
    }
}

impl GraftMap<Value> for BTreeMap<Value, Value> {
    fn graft_leaf<E>(
        &mut self,
        key: &Value,
        leaf: impl FnOnce(Option<&Value>) -> Result<Option<Value>, E>,
    ) -> Result<(), E> {
        // One search: the key is cloned as an insert would need it.
        match self.entry(key.clone()) {
            Entry::Occupied(mut e) => match leaf(Some(e.get()))? {
                Some(v) => *e.get_mut() = v,
                None => drop(e.remove()),
            },
            Entry::Vacant(e) => {
                if let Some(v) = leaf(None)? {
                    e.insert(v);
                }
            }
        }
        Ok(())
    }

    fn graft_branch<E>(
        &mut self,
        key: &Value,
        below: impl FnOnce(&mut BTreeMap<Value, Value>) -> Result<(), E>,
    ) -> Result<(), E> {
        graft_branch(self, key, || key.clone(), below)
    }
}

/// [`GraftMap::graft_branch`] on `map[key]`; `owned` makes the key of an
/// entry it inserts.
fn graft_branch<K, Q, E>(
    map: &mut BTreeMap<K, Value>,
    key: &Q,
    owned: impl FnOnce() -> K,
    below: impl FnOnce(&mut BTreeMap<Value, Value>) -> Result<(), E>,
) -> Result<(), E>
where
    K: Borrow<Q> + Ord,
    Q: Ord + ?Sized,
{
    match map.get_mut(key) {
        Some(Value::Map(m)) => below(map_make_mut(m)),
        slot => {
            let mut fresh = BTreeMap::new();
            below(&mut fresh)?;
            if !fresh.is_empty() {
                let new = Value::Map(Arc::new(fresh));
                match slot {
                    Some(slot) => *slot = new,
                    None => drop(map.insert(owned(), new)),
                }
            }
            Ok(())
        }
    }
}

impl StateStore for InMemoryState {
    fn get(&self, field: Sym, keys: &[Value]) -> Option<Value> {
        descend(self.fields.get(field.as_str())?, keys).cloned()
    }

    fn exists(&self, field: Sym, keys: &[Value]) -> bool {
        self.fields.get(field.as_str()).is_some_and(|root| descend(root, keys).is_some())
    }

    fn set(&mut self, field: Sym, keys: &[Value], value: Option<Value>) {
        let name = field.as_str();
        match (value, self.fields.get_mut(name)) {
            (Some(v), Some(root)) => insert_at(root, keys, v),
            // Only a new field allocates its name.
            (Some(v), None) => {
                let mut root = Value::empty_map();
                insert_at(&mut root, keys, v);
                self.fields.insert(name.to_string(), root);
            }
            (None, Some(_)) if keys.is_empty() => {
                self.fields.remove(name);
            }
            (None, Some(root)) => delete_at(root, keys),
            (None, None) => {}
        }
    }
}

/// A tree of key paths shaped like a field's nested maps, one map key per
/// level, with an `L` at each leaf. No leaf lies above or below another, so
/// a leaf is a component and the leaves come in component order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree<L> {
    /// The component at this path.
    Leaf(L),
    /// The map at this path, with these children changed.
    Branch(BTreeMap<Value, Tree<L>>),
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

/// What happens to one component: a leaf of a field's [`Tree`]. In a
/// [`CowState`]'s overlay it is a pin, an overwrite alone; drained into a
/// delta ([`CowState::into_writes`]) it may become a numeric delta, and a
/// join of deltas may hold both (applied, the overwrite goes first).
///
/// It takes a value's 32 bytes, as the overlay's pins did before they were
/// the delta's leaves too: a numeric delta alone is kept in 64-bit halves,
/// which fit beside a value's tag, and both parts at once are boxed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change(Parts);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Parts {
    Set(Option<Value>),
    Add(Packed),
    Both(Box<(Option<Value>, IntDelta)>),
}

/// An [`IntDelta`] aligned to 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed {
    halves: [u64; 2],
    width: u32,
    signed: bool,
}

impl From<IntDelta> for Packed {
    fn from(d: IntDelta) -> Packed {
        let bits = d.delta as u128;
        Packed { halves: [bits as u64, (bits >> 64) as u64], width: d.width, signed: d.signed }
    }
}

impl From<Packed> for IntDelta {
    fn from(p: Packed) -> IntDelta {
        let bits = u128::from(p.halves[0]) | (u128::from(p.halves[1]) << 64);
        IntDelta { delta: bits as i128, width: p.width, signed: p.signed }
    }
}

impl Change {
    /// An overwrite with `value` (`None`: removal).
    pub fn pin(value: Option<Value>) -> Change {
        Change(Parts::Set(value))
    }

    /// A change of its parts: an overwrite (`Some(None)` removes) and a
    /// numeric delta. `None` if it has neither.
    pub fn from_parts(set: Option<Option<Value>>, add: Option<IntDelta>) -> Option<Change> {
        Some(Change(match (set, add) {
            (Some(value), None) => Parts::Set(value),
            (None, Some(add)) => Parts::Add(add.into()),
            (Some(value), Some(add)) => Parts::Both(Box::new((value, add))),
            (None, None) => return None,
        }))
    }

    /// The overwrite, if there is one (`Some(None)`: a removal).
    pub fn set(&self) -> Option<&Option<Value>> {
        match &self.0 {
            Parts::Set(value) => Some(value),
            Parts::Both(both) => Some(&both.0),
            Parts::Add(_) => None,
        }
    }

    /// The numeric delta, if there is one.
    pub fn add(&self) -> Option<IntDelta> {
        match &self.0 {
            Parts::Add(add) => Some((*add).into()),
            Parts::Both(both) => Some(both.1),
            Parts::Set(_) => None,
        }
    }

    /// The value the overwrite leaves; `None` if it removes, or there is
    /// none.
    pub fn written(&self) -> Option<&Value> {
        self.set().and_then(Option::as_ref)
    }
}

/// A field's pending writes inside a [`CowState`]. A leaf pins the value at
/// its path, whatever the base holds ([`Change::pin`]). A branch is the
/// base's map at its path with its children rewritten; where the base holds
/// no value or a non-map there, the empty map that [`insert_at`] would have
/// made.
type Node = Tree<Change>;

/// Where a key path ends in the merged view.
enum At<'a> {
    /// A value that one side decides alone (`None`: absent).
    Value(Option<&'a Value>),
    /// A branch over the base's value at the path: merge it with [`merged`].
    Branch(Option<&'a Value>, &'a Node),
}

/// The base map's entry under `k`, if the base holds a map.
fn child<'a>(base: Option<&'a Value>, k: &Value) -> Option<&'a Value> {
    match base {
        Some(Value::Map(m)) => m.get(k),
        _ => None,
    }
}

/// Walks `keys` down the tree alongside the base, one key at a time. The
/// first missing child hands the rest of the path to the base, and a pin
/// hands it to the pinned value.
fn walk<'a>(mut base: Option<&'a Value>, mut node: Option<&'a Node>, keys: &[Value]) -> At<'a> {
    let mut keys = keys.iter();
    loop {
        match node {
            None => return At::Value(base.and_then(|b| descend(b, keys.as_slice()))),
            Some(Node::Leaf(pin)) => {
                return At::Value(pin.written().and_then(|v| descend(v, keys.as_slice())))
            }
            Some(branch @ Node::Branch(children)) => {
                let Some(k) = keys.next() else { return At::Branch(base, branch) };
                base = child(base, k);
                node = children.get(k);
            }
        }
    }
}

/// The merged value of `node` over `base`, the base's value at its path. A
/// base map node is copied only where a child changes it: a child that
/// merges to the base's own node is left alone, and a key is removed only
/// if present.
fn merged(base: Option<&Value>, node: &Node) -> Option<Value> {
    let children = match node {
        Node::Leaf(pin) => return pin.written().cloned(),
        Node::Branch(children) => children,
    };
    let mut map = match base {
        Some(Value::Map(m)) => Arc::clone(m),
        _ => Arc::default(),
    };
    for (k, node) in children {
        let was = child(base, k);
        match merged(was, node) {
            Some(Value::Map(new)) if matches!(was, Some(Value::Map(old)) if Arc::ptr_eq(old, &new)) =>
                {}
            Some(v) => {
                map_make_mut(&mut map).insert(k.clone(), v);
            }
            None if was.is_some() => {
                map_make_mut(&mut map).remove(k);
            }
            None => {}
        }
    }
    Some(Value::Map(map))
}

/// The nodes a write to `keys` below a missing node creates: a branch per
/// key, down to the leaf.
fn fresh(keys: &[Value], value: Option<Value>) -> Node {
    keys.iter().rev().fold(Node::Leaf(Change::pin(value)), |node, k| {
        Node::Branch(BTreeMap::from([(k.clone(), node)]))
    })
}

/// Whether some leaf at or under `node` holds a value.
fn holds_value(node: &Node) -> bool {
    match node {
        Node::Leaf(pin) => pin.written().is_some(),
        Node::Branch(children) => children.values().any(holds_value),
    }
}

/// The drain rule, in place: leaves in `node` the tree of writes that,
/// grafted onto `base` (the base's value at its path), make its view, and
/// lets `leaf` rewrite each leaf beside its base value. A pin is one write,
/// unless it removes what the base does not hold. A branch is its
/// children's writes, except one over a non-map base under which no pin
/// holds a value: removals alone would not make that map, so it is written
/// whole. Returns whether anything is written; a branch keeps only the
/// children that are.
///
/// Unless `reads_base`, `leaf` ignores its base argument, and a pin that
/// holds a value is drained without looking its path up in the base (see
/// [`base_at`]).
fn drain(
    base: Option<&Value>,
    node: &mut Node,
    reads_base: bool,
    leaf: &mut impl FnMut(&mut Change, Option<&Value>),
) -> bool {
    if matches!(node, Node::Branch(_)) && !matches!(base, Some(Value::Map(_))) && !holds_value(node)
    {
        *node = Node::Leaf(Change::pin(merged(base, node)));
    }
    match node {
        Node::Leaf(pin) if pin.written().is_none() && base.is_none() => false,
        Node::Leaf(pin) => {
            leaf(pin, base);
            true
        }
        Node::Branch(children) => {
            children.retain(|k, node| {
                drain(base_at(node, reads_base, || child(base, k)), node, reads_base, leaf)
            });
            !children.is_empty()
        }
    }
}

/// The base value [`drain`] needs under `node`: `lookup`'s, except for a
/// pin that holds a value when the leaf function ignores the base. The rule
/// reads the base only to drop a removal of nothing and to walk or write a
/// branch, so such a pin drains alike over any base.
fn base_at<'a>(
    node: &Node,
    reads_base: bool,
    lookup: impl FnOnce() -> Option<&'a Value>,
) -> Option<&'a Value> {
    match node {
        Node::Leaf(pin) if !reads_base && pin.written().is_some() => None,
        _ => lookup(),
    }
}

/// The node at `keys` under `node`, if the tree holds one there.
fn node_mut<'a>(mut node: Option<&'a mut Node>, keys: &[Value]) -> Option<&'a mut Node> {
    for k in keys {
        node = match node? {
            Node::Branch(children) => children.get_mut(k),
            Node::Leaf(_) => None,
        };
    }
    node
}

/// A copy-on-write working store: pending writes over an `Arc`-shared
/// [`InMemoryState`] base.
///
/// This is how an executor obtains a private, mutable view of a contract's
/// storage without copying it. The base is the epoch-start snapshot, shared
/// by every shard; all writes land in the overlay, one tree per written
/// field. Reads walk the tree alongside the base and fall back to
/// the base at the first key the tree does not hold.
///
/// The store also holds one open transaction: every write since the last
/// [`CowState::commit`] logs the tree node it replaced, so
/// [`CowState::rollback`] restores the overlay exactly. Transactions do
/// not nest.
///
/// Cost model: [`CowState::new`] is O(1). Point reads, writes, existence
/// tests and deletes cost one ordered lookup per key in the tree and in the
/// base, and never materialise base maps — only a `get` that ends at a
/// branch (a whole map or sub-map over pending writes below it) merges,
/// copying the base map nodes those writes change. A write inside a pinned
/// map copies the map nodes it changes, because the log keeps the prior
/// value. Rolling a write back costs one lookup per key of its path, and
/// [`CowState::into_writes`] one walk of the tree beside the base, in
/// place.
#[derive(Debug, Clone, Default)]
pub struct CowState {
    base: Arc<InMemoryState>,
    overlay: BTreeMap<Sym, Node>,
    /// Each write since the last commit: its field, key path, and the depth
    /// of the tree node it replaced (`Some`) or created (`None`).
    log: Vec<(Sym, Vec<Value>, usize, Option<Node>)>,
}

impl CowState {
    /// A working store over a shared base. O(1): no field is copied.
    pub fn new(base: Arc<InMemoryState>) -> CowState {
        CowState { base, overlay: BTreeMap::new(), log: Vec::new() }
    }

    /// True if no writes are pending (reads are served straight from base).
    pub fn is_clean(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Keeps every write since the last commit.
    pub fn commit(&mut self) {
        self.log.clear();
    }

    /// Undoes every write since the last commit, newest first: each puts
    /// back the node it replaced or removes the node it created, so the
    /// overlay is again what it was at the commit.
    pub fn rollback(&mut self) {
        while let Some((field, keys, depth, prior)) = self.log.pop() {
            let at = &keys[..depth];
            match (prior, at.split_last()) {
                (Some(node), _) => {
                    if let Some(slot) = node_mut(self.overlay.get_mut(&field), at) {
                        *slot = node;
                    }
                }
                (None, None) => {
                    self.overlay.remove(&field);
                }
                (None, Some((last, parent))) => {
                    if let Some(Node::Branch(children)) =
                        node_mut(self.overlay.get_mut(&field), parent)
                    {
                        children.remove(last);
                    }
                }
            }
        }
    }

    /// The components written since the last commit, in write order,
    /// repeats included.
    pub fn uncommitted(&self) -> impl Iterator<Item = (Sym, &[Value])> {
        self.log.iter().map(|(field, keys, ..)| (*field, keys.as_slice()))
    }

    /// Hands the pending writes over, one tree per written field: the
    /// overlay's own trees, drained in place, so no map is rebuilt and no
    /// node reallocated. For each field, `per_field` says whether its leaf
    /// function reads the base, and gives that function, which may rewrite
    /// a write's leaf beside its value in the base. Where it does not read
    /// the base, a write of a value is drained without a lookup in the base
    /// and its function gets `None` for the base value. Grafting the
    /// unrewritten writes onto the base ([`GraftMap::graft_tree`]) gives the
    /// view.
    pub fn into_writes<C>(
        self,
        mut per_field: impl FnMut(Sym) -> (bool, C),
    ) -> BTreeMap<Sym, Tree<Change>>
    where
        C: FnMut(&mut Change, Option<&Value>),
    {
        let CowState { base, mut overlay, .. } = self;
        overlay.retain(|&field, node| {
            let (reads_base, mut leaf) = per_field(field);
            let at = base_at(node, reads_base, || base.fields.get(field.as_str()));
            drain(at, node, reads_base, &mut leaf)
        });
        overlay
    }

    /// The view as a standalone store: the base with the pending writes
    /// grafted onto it, as the merge applies them.
    pub fn snapshot(&self) -> InMemoryState {
        let pending = CowState {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            log: Vec::new(),
        };
        let writes = pending.into_writes(|_| (false, |_: &mut Change, _: Option<&Value>| {}));
        let mut state = (*self.base).clone();
        for (field, tree) in &writes {
            let Ok(()) = state.graft_tree(field, tree, &mut |pin: &Change, _| {
                Ok::<_, Infallible>(pin.written().cloned())
            });
        }
        state
    }

    fn walk(&self, field: Sym, keys: &[Value]) -> At<'_> {
        walk(self.base.fields.get(field.as_str()), self.overlay.get(&field), keys)
    }

    /// Makes a write in the tree and returns its undo depth and node.
    fn write(&mut self, field: Sym, keys: &[Value], value: Option<Value>) -> (usize, Option<Node>) {
        let mut node = match self.overlay.entry(field) {
            Entry::Vacant(e) => {
                e.insert(fresh(keys, value));
                return (0, None);
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        for (depth, k) in keys.iter().enumerate() {
            match node {
                Node::Leaf(pin) => {
                    // An `Arc` bump: the write below copies the pinned map
                    // node it changes.
                    let prior = std::mem::replace(pin, Change::pin(None));
                    let mut pinned = prior.written().cloned();
                    let rest = &keys[depth..];
                    match (value, &mut pinned) {
                        // As on a plain store: a deleted value is recreated
                        // as a map.
                        (Some(v), pinned) => {
                            insert_at(pinned.get_or_insert_with(Value::empty_map), rest, v)
                        }
                        (None, Some(root)) => delete_at(root, rest),
                        (None, None) => {}
                    }
                    *pin = Change::pin(pinned);
                    return (depth, Some(Node::Leaf(prior)));
                }
                Node::Branch(children) => match children.entry(k.clone()) {
                    Entry::Vacant(e) => {
                        e.insert(fresh(&keys[depth + 1..], value));
                        return (depth + 1, None);
                    }
                    Entry::Occupied(e) => node = e.into_mut(),
                },
            }
        }
        (keys.len(), Some(std::mem::replace(node, Node::Leaf(Change::pin(value)))))
    }
}

impl StateStore for CowState {
    fn get(&self, field: Sym, keys: &[Value]) -> Option<Value> {
        match self.walk(field, keys) {
            At::Value(v) => v.cloned(),
            At::Branch(base, node) => merged(base, node),
        }
    }

    fn exists(&self, field: Sym, keys: &[Value]) -> bool {
        !matches!(self.walk(field, keys), At::Value(None))
    }

    fn set(&mut self, field: Sym, keys: &[Value], value: Option<Value>) {
        // A plain store ignores absent removes, and recording one would
        // grow branches, which stand for maps.
        if value.is_none() && !self.exists(field, keys) {
            return;
        }
        let (depth, prior) = self.write(field, keys, value);
        self.log.push((field, keys.to_vec(), depth, prior));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> Value {
        Value::address([b; 20])
    }

    #[test]
    fn nested_update_creates_intermediate_maps() {
        let mut s = InMemoryState::new();
        s.set("allow".into(), &[], Some(Value::empty_map()));
        s.set("allow".into(), &[addr(1), addr(2)], Some(Value::Uint(128, 9)));
        assert_eq!(s.get("allow".into(), &[addr(1), addr(2)]), Some(Value::Uint(128, 9)));
        assert!(s.exists("allow".into(), &[addr(1)]));
        assert!(!s.exists("allow".into(), &[addr(3)]));
    }

    #[test]
    fn delete_removes_only_target() {
        let mut s = InMemoryState::new();
        s.set("m".into(), &[addr(1)], Some(Value::Uint(128, 1)));
        s.set("m".into(), &[addr(2)], Some(Value::Uint(128, 2)));
        s.set("m".into(), &[addr(1)], None);
        assert_eq!(s.get("m".into(), &[addr(1)]), None);
        assert_eq!(s.get("m".into(), &[addr(2)]), Some(Value::Uint(128, 2)));
        // Deleting a missing path is a no-op.
        s.set("m".into(), &[addr(9), addr(9)], None);
    }

    #[test]
    fn partial_key_path_returns_submap() {
        let mut s = InMemoryState::new();
        s.set("m".into(), &[addr(1), addr(2)], Some(Value::Uint(128, 7)));
        match s.get("m".into(), &[addr(1)]) {
            Some(Value::Map(sub)) => assert_eq!(sub.len(), 1),
            other => panic!("expected submap, got {other:?}"),
        }
    }

    #[test]
    fn whole_field_load_store() {
        let mut s = InMemoryState::new();
        s.set("n".into(), &[], Some(Value::Uint(128, 3)));
        assert_eq!(s.get("n".into(), &[]), Some(Value::Uint(128, 3)));
        assert_eq!(s.get("missing".into(), &[]), None);
    }

    #[test]
    fn cloned_map_values_share_until_written() {
        let mut s = InMemoryState::new();
        s.set("m".into(), &[addr(1)], Some(Value::Uint(128, 1)));
        let before = s.get("m".into(), &[]).unwrap();
        s.set("m".into(), &[addr(2)], Some(Value::Uint(128, 2)));
        // The clone read out earlier is unaffected by the later write.
        let Value::Map(m) = &before else { panic!("expected map") };
        assert_eq!(m.len(), 1);
        let Some(Value::Map(after)) = s.get("m".into(), &[]) else { panic!("expected map") };
        assert_eq!(after.len(), 2);
    }

    fn base_with_balances() -> Arc<InMemoryState> {
        let mut s = InMemoryState::new();
        s.set("balances".into(), &[addr(1)], Some(Value::Uint(128, 100)));
        s.set("balances".into(), &[addr(2)], Some(Value::Uint(128, 200)));
        s.set("total".into(), &[], Some(Value::Uint(128, 300)));
        Arc::new(s)
    }

    #[test]
    fn cow_reads_fall_through_to_base() {
        let cow = CowState::new(base_with_balances());
        assert_eq!(cow.get("balances".into(), &[addr(1)]), Some(Value::Uint(128, 100)));
        assert_eq!(cow.get("total".into(), &[]), Some(Value::Uint(128, 300)));
        assert!(cow.exists("balances".into(), &[addr(2)]));
        assert!(!cow.exists("balances".into(), &[addr(9)]));
        assert!(cow.is_clean());
    }

    #[test]
    fn cow_writes_shadow_base_and_leave_it_untouched() {
        let base = base_with_balances();
        let mut cow = CowState::new(Arc::clone(&base));
        cow.set("balances".into(), &[addr(1)], Some(Value::Uint(128, 50)));
        cow.set("balances".into(), &[addr(2)], None);
        cow.set("total".into(), &[], Some(Value::Uint(128, 150)));
        assert_eq!(cow.get("balances".into(), &[addr(1)]), Some(Value::Uint(128, 50)));
        assert_eq!(cow.get("balances".into(), &[addr(2)]), None);
        assert!(!cow.exists("balances".into(), &[addr(2)]));
        assert_eq!(cow.get("total".into(), &[]), Some(Value::Uint(128, 150)));
        // Base unchanged.
        assert_eq!(base.get("balances".into(), &[addr(1)]), Some(Value::Uint(128, 100)));
        assert_eq!(base.get("total".into(), &[]), Some(Value::Uint(128, 300)));
    }

    #[test]
    fn cow_whole_map_load_merges_overlay() {
        let mut cow = CowState::new(base_with_balances());
        cow.set("balances".into(), &[addr(3)], Some(Value::Uint(128, 7)));
        cow.set("balances".into(), &[addr(1)], None);
        let Some(Value::Map(m)) = cow.get("balances".into(), &[]) else { panic!("expected map") };
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&addr(3)), Some(&Value::Uint(128, 7)));
        assert!(!m.contains_key(&addr(1)));
    }

    #[test]
    fn cow_snapshot_flattens_to_plain_semantics() {
        let base = base_with_balances();
        let mut cow = CowState::new(Arc::clone(&base));
        let mut plain = (*base).clone();
        for s in [&mut cow as &mut dyn StateStore, &mut plain as &mut dyn StateStore] {
            s.set("balances".into(), &[addr(1)], Some(Value::Uint(128, 1)));
            s.set("balances".into(), &[addr(2)], None);
            s.set("allow".into(), &[addr(1), addr(2)], Some(Value::Uint(128, 5)));
            s.set("total".into(), &[], Some(Value::Uint(128, 1)));
        }
        assert_eq!(cow.snapshot(), plain);
    }

    #[test]
    fn cow_remove_field_tombstones_and_recreates() {
        let mut cow = CowState::new(base_with_balances());
        cow.set("balances".into(), &[], None);
        assert_eq!(cow.get("balances".into(), &[]), None);
        assert!(!cow.exists("balances".into(), &[addr(1)]));
        cow.set("balances".into(), &[addr(5)], Some(Value::Uint(128, 5)));
        let Some(Value::Map(m)) = cow.get("balances".into(), &[]) else { panic!("expected map") };
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn cow_delete_in_unknown_field_stays_clean() {
        let mut cow = CowState::new(base_with_balances());
        cow.set("no_such_field".into(), &[addr(1)], None);
        assert!(cow.is_clean());
        assert_eq!(cow.get("no_such_field".into(), &[]), None);
    }

    #[test]
    fn cow_prefix_writes_fold_into_overlay() {
        let mut cow = CowState::new(Arc::new(InMemoryState::new()));
        // Deep write first, then a shallower write that shadows it, then a
        // deep write folding into the shallow entry.
        cow.set("allow".into(), &[addr(1), addr(2)], Some(Value::Uint(128, 1)));
        cow.set("allow".into(), &[addr(1)], Some(Value::empty_map()));
        assert_eq!(cow.get("allow".into(), &[addr(1), addr(2)]), None);
        cow.set("allow".into(), &[addr(1), addr(3)], Some(Value::Uint(128, 3)));
        assert_eq!(cow.get("allow".into(), &[addr(1), addr(3)]), Some(Value::Uint(128, 3)));
        assert!(cow.exists("allow".into(), &[addr(1)]));
        let Some(Value::Map(sub)) = cow.get("allow".into(), &[addr(1)]) else {
            panic!("expected submap")
        };
        assert_eq!(sub.len(), 1);
    }

    fn s(text: &str) -> Value {
        Value::Str(text.into())
    }

    /// A CoW overlay and a plain store over the same base: field `m`, an
    /// empty map.
    fn overlay_and_plain() -> (CowState, InMemoryState) {
        let mut base = InMemoryState::new();
        base.set("m".into(), &[], Some(Value::empty_map()));
        (CowState::new(Arc::new(base.clone())), base)
    }

    /// `Str` keys sharing a prefix sort `"a" < "aa" < "ab" < "b"`: every
    /// point operation reads and writes only its own key's entries, never a
    /// neighbour's that sorts next to it.
    #[test]
    fn cow_point_ops_stay_inside_their_subtree() {
        let (mut cow, mut plain) = overlay_and_plain();
        let m: Sym = "m".into();
        for st in [&mut cow as &mut dyn StateStore, &mut plain] {
            st.set(m, &[s("a"), s("x")], Some(Value::Uint(32, 1)));
            st.set(m, &[s("ab"), s("x")], Some(Value::Uint(32, 2)));
            st.set(m, &[s("ab"), s("y")], Some(Value::Uint(32, 3)));
            st.set(m, &[s("b"), s("x")], Some(Value::Uint(32, 4)));
        }
        let Some(Value::Map(a)) = cow.get(m, &[s("a")]) else { panic!("expected submap") };
        assert_eq!(a.len(), 1, "only a's own entries are materialised");
        for path in [&[s("a")][..], &[s("aa")], &[s("ab")], &[s("ab"), s("x")], &[s("b")]] {
            assert_eq!(cow.get(m, path), plain.get(m, path), "{path:?}");
            assert_eq!(cow.exists(m, path), plain.exists(m, path), "{path:?}");
        }
        // A write above a's entries replaces them and nothing next to them.
        for st in [&mut cow as &mut dyn StateStore, &mut plain] {
            st.set(m, &[s("a")], Some(Value::empty_map()));
        }
        assert_eq!(cow.get(m, &[s("ab"), s("y")]), Some(Value::Uint(32, 3)));
        assert_eq!(cow.snapshot(), plain);
    }

    /// Deleting the only insert under `["a", "x"]` must keep the maps it
    /// materialised, as a plain store does, whatever a neighbouring key's
    /// subtree (`["ab", …]` next to `["a", …]`, `["a", "xy", …]` next to
    /// `["a", "x", …]`) holds.
    #[test]
    fn cow_delete_flatten_ignores_sibling_subtrees() {
        let m: Sym = "m".into();
        let doomed = [s("a"), s("x"), s("p")];
        for sibling in [[s("ab"), s("x"), s("p")], [s("a"), s("xy"), s("p")]] {
            let (mut cow, mut plain) = overlay_and_plain();
            for st in [&mut cow as &mut dyn StateStore, &mut plain] {
                st.set(m, &doomed, Some(Value::Uint(32, 1)));
                st.set(m, &sibling, Some(Value::Uint(32, 2)));
                st.set(m, &doomed, None);
            }
            assert!(cow.exists(m, &doomed[..2]), "{sibling:?}");
            assert_eq!(cow.snapshot(), plain, "{sibling:?}");
        }
    }
}
