//! Contract state storage abstraction.
//!
//! The interpreter manipulates contract fields through the [`StateStore`]
//! trait so that the blockchain layer can interpose overlays (per-shard
//! scratch states, write logs for state-delta computation) without the
//! interpreter knowing.
//!
//! Storage values are structurally shared: every [`Value::Map`] node is
//! `Arc`-backed, so cloning a store (or any value read out of it) is a
//! pointer bump. Mutation goes through [`map_make_mut`], which copies a map
//! node only when it is shared — and counts each such copy-on-write break in
//! telemetry, so benchmarks can assert that overlay writes cost O(writes),
//! not O(state).
//!
//! [`CowState`] builds on this: a component-level overlay of pending writes
//! over an `Arc`-shared [`InMemoryState`] base. Taking a snapshot of an
//! untouched store never copies field values.

use crate::intern::Sym;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use telemetry::names;

/// Mutable access to a contract's fields.
///
/// Nested map entries are addressed by a field name plus a key path; a key
/// path shorter than the map's nesting depth addresses a whole sub-map.
///
/// Field names are pre-interned [`Sym`]s: they resolve once at parse/compile
/// time, so the per-statement path does no string hashing or allocation.
/// Callers holding text intern it at the call (`"balances".into()`).
pub trait StateStore {
    /// Reads a whole field. `None` if the field does not exist.
    fn load(&self, field: Sym) -> Option<Value>;

    /// Overwrites a whole field.
    fn store(&mut self, field: Sym, value: Value);

    /// Reads one (possibly nested) map entry.
    fn map_get(&self, field: Sym, keys: &[Value]) -> Option<Value>;

    /// Writes one (possibly nested) map entry, materialising intermediate
    /// maps as needed.
    fn map_update(&mut self, field: Sym, keys: &[Value], value: Value);

    /// Tests whether a map entry exists.
    ///
    /// The default goes through [`StateStore::map_get`]; stores should
    /// override it with a clone-free walk (a partial key path would otherwise
    /// clone a whole sub-map just to discard it).
    fn map_exists(&self, field: Sym, keys: &[Value]) -> bool {
        self.map_get(field, keys).is_some()
    }

    /// Deletes one (possibly nested) map entry. No-op if absent.
    fn map_delete(&mut self, field: Sym, keys: &[Value]);
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

    /// Removes a whole field. Used by transaction journals to undo a store
    /// into a previously-nonexistent field.
    pub fn remove_field(&mut self, field: Sym) {
        self.fields.remove(field.as_str());
    }
}

impl StateStore for InMemoryState {
    fn load(&self, field: Sym) -> Option<Value> {
        self.fields.get(field.as_str()).cloned()
    }

    fn store(&mut self, field: Sym, value: Value) {
        self.fields.insert(field.as_str().to_string(), value);
    }

    fn map_get(&self, field: Sym, keys: &[Value]) -> Option<Value> {
        descend(self.fields.get(field.as_str())?, keys).cloned()
    }

    fn map_update(&mut self, field: Sym, keys: &[Value], value: Value) {
        let root =
            self.fields.entry(field.as_str().to_string()).or_insert_with(Value::empty_map);
        insert_at(root, keys, value);
    }

    fn map_exists(&self, field: Sym, keys: &[Value]) -> bool {
        // Clone-free override: the default would clone a whole sub-map via
        // `map_get` just to test presence.
        self.fields.get(field.as_str()).is_some_and(|root| descend(root, keys).is_some())
    }

    fn map_delete(&mut self, field: Sym, keys: &[Value]) {
        if let Some(root) = self.fields.get_mut(field.as_str()) {
            delete_at(root, keys);
        }
    }
}

/// Per-field pending writes inside a [`CowState`].
#[derive(Debug, Clone)]
enum FieldOverlay {
    /// The whole field was overwritten (`None`: field deleted).
    Whole(Option<Value>),
    /// Entry-level writes over the base field: key path → new value
    /// (`None`: tombstone for a deleted entry). Invariant: no recorded path
    /// is a proper prefix of another — a write below an existing entry folds
    /// into that entry's value, and a write above evicts the deeper entries
    /// it shadows. Merged reads rely on this to consult at most one entry
    /// per lookup.
    Entries(BTreeMap<Vec<Value>, Option<Value>>),
}

/// A copy-on-write working store: a component-level overlay of pending
/// writes over an `Arc`-shared [`InMemoryState`] base.
///
/// This is how an executor obtains a private, mutable view of a contract's
/// storage without copying it. The base is the epoch-start snapshot, shared
/// by every shard; all writes land in the overlay.
/// Reads consult the overlay first and fall back to the base.
///
/// Cost model: [`CowState::new`] is O(1); [`CowState::snapshot`] of an
/// untouched store is O(1). Point reads, writes, existence tests and
/// deletes cost O(log n + k) in a field's n pending writes, k of which lie
/// under the addressed path, and never materialise base maps — only a
/// whole-map `load` over a field with entry-level pending writes pays
/// O(field) to merge, the same a deep-cloning store would have paid on
/// every read.
#[derive(Debug, Clone, Default)]
pub struct CowState {
    base: Arc<InMemoryState>,
    overlay: BTreeMap<Sym, FieldOverlay>,
}

impl CowState {
    /// A working store over a shared base. O(1): no field is copied.
    pub fn new(base: Arc<InMemoryState>) -> CowState {
        CowState { base, overlay: BTreeMap::new() }
    }

    /// The shared base this overlay was created from.
    pub fn base(&self) -> &Arc<InMemoryState> {
        &self.base
    }

    /// True if no writes are pending (reads are served straight from base).
    pub fn is_clean(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Flattens overlay over base into a standalone snapshot. O(1) when the
    /// overlay is empty (the common per-shard case: contracts a packet never
    /// touched); otherwise O(base fields + pending writes) with all values
    /// structurally shared.
    pub fn snapshot(&self) -> Arc<InMemoryState> {
        telemetry::counter!(names::STATE_SNAPSHOTS).inc();
        if self.overlay.is_empty() {
            return Arc::clone(&self.base);
        }
        let mut fields = self.base.fields.clone();
        for (field, ov) in &self.overlay {
            let name = field.as_str();
            match ov {
                FieldOverlay::Whole(Some(v)) => {
                    fields.insert(name.to_string(), v.clone());
                }
                FieldOverlay::Whole(None) => {
                    fields.remove(name);
                }
                FieldOverlay::Entries(entries) => {
                    let root = fields.entry(name.to_string()).or_insert_with(Value::empty_map);
                    for (path, slot) in entries {
                        match slot {
                            Some(v) => insert_at(root, path, v.clone()),
                            None => delete_at(root, path),
                        }
                    }
                }
            }
        }
        Arc::new(InMemoryState { fields })
    }

    /// Removes a whole field (journal undo for a store into a
    /// previously-nonexistent field). If the base never had the field,
    /// dropping the overlay record restores the pristine view.
    pub fn remove_field(&mut self, field: Sym) {
        if self.base.fields.contains_key(field.as_str()) {
            self.overlay.insert(field, FieldOverlay::Whole(None));
        } else {
            self.overlay.remove(&field);
        }
    }

    /// Finds the unique overlay entry whose path is a (non-strict) prefix of
    /// `keys`, if any. Uniqueness follows from the no-prefix invariant.
    fn prefix_len(entries: &BTreeMap<Vec<Value>, Option<Value>>, keys: &[Value]) -> Option<usize> {
        (1..=keys.len()).find(|&l| entries.contains_key(&keys[..l]))
    }

    /// Entries at or below `keys` (their paths equal or extend it), in
    /// O(log n + k): `Vec<Value>` orders lexicographically, so a path's
    /// extensions sort contiguously right after it. Where [`Self::prefix_len`]
    /// found nothing, no entry sits at `keys` itself and these are exactly
    /// the entries strictly below it.
    fn subtree<'e>(
        entries: &'e BTreeMap<Vec<Value>, Option<Value>>,
        keys: &'e [Value],
    ) -> impl Iterator<Item = (&'e Vec<Value>, &'e Option<Value>)> + Clone {
        entries
            .range::<[Value], _>((Bound::Included(keys), Bound::Unbounded))
            .take_while(move |(p, _)| p.starts_with(keys))
    }

    /// Records `slot` at `keys`, evicting the deeper entries it shadows
    /// (keeps the no-prefix invariant). Caller checked that no entry sits at
    /// or above `keys`.
    fn shadow_below(
        entries: &mut BTreeMap<Vec<Value>, Option<Value>>,
        keys: &[Value],
        slot: Option<Value>,
    ) {
        let doomed: Vec<Vec<Value>> =
            Self::subtree(entries, keys).map(|(p, _)| p.clone()).collect();
        for p in doomed {
            entries.remove(&p);
        }
        entries.insert(keys.to_vec(), slot);
    }

    /// Would a tombstone at `keys` lose materialisation a plain store keeps?
    ///
    /// Deleting at `keys` drops every overlay entry at or below it. A
    /// dropped `Some` entry, when merged, materialised intermediate maps
    /// along its path (exactly as `insert_at` does in a plain store) — and
    /// plain-store deletion only removes the leaf, leaving those
    /// intermediates behind. A bare tombstone reproduces that only if every
    /// strict prefix of `keys` stays map-shaped some other way: in the base,
    /// or via a surviving `Some` entry. Otherwise the field must be
    /// flattened into a whole-field overlay before deleting.
    fn delete_needs_flatten(
        &self,
        field: Sym,
        entries: &BTreeMap<Vec<Value>, Option<Value>>,
        keys: &[Value],
    ) -> bool {
        if !Self::subtree(entries, keys).any(|(_, s)| s.is_some()) {
            // Only tombstones vanish; they never materialised anything.
            return false;
        }
        let base_field = self.base.fields.get(field.as_str());
        // No entry sits at a strict prefix of `keys` (the caller's
        // `prefix_len` found none, or found `keys` itself), so the subtree
        // of `keys[..j]` is the entries strictly below it.
        let surviving_some = |j: usize| {
            Self::subtree(entries, &keys[..j]).any(|(q, s)| s.is_some() && !q.starts_with(keys))
        };
        // The field root: a non-map base value was destroyed by the first
        // map write (insert_at's recovery) and must stay destroyed.
        let root_ok = match base_field {
            None | Some(Value::Map(_)) => true,
            Some(_) => surviving_some(0),
        };
        if !root_ok {
            return true;
        }
        (1..keys.len()).any(|j| {
            let base_is_map = base_field
                .and_then(|r| descend(r, &keys[..j]))
                .is_some_and(|v| matches!(v, Value::Map(_)));
            !base_is_map && !surviving_some(j)
        })
    }
}

impl StateStore for CowState {
    fn load(&self, field: Sym) -> Option<Value> {
        match self.overlay.get(&field) {
            None => self.base.fields.get(field.as_str()).cloned(),
            Some(FieldOverlay::Whole(v)) => v.clone(),
            Some(FieldOverlay::Entries(entries)) => {
                // Whole-map read over entry-level writes: merge on demand.
                let mut root = self
                    .base
                    .fields
                    .get(field.as_str())
                    .cloned()
                    .unwrap_or_else(Value::empty_map);
                for (path, slot) in entries {
                    match slot {
                        Some(v) => insert_at(&mut root, path, v.clone()),
                        None => delete_at(&mut root, path),
                    }
                }
                Some(root)
            }
        }
    }

    fn store(&mut self, field: Sym, value: Value) {
        self.overlay.insert(field, FieldOverlay::Whole(Some(value)));
    }

    fn map_get(&self, field: Sym, keys: &[Value]) -> Option<Value> {
        if keys.is_empty() {
            return self.load(field);
        }
        match self.overlay.get(&field) {
            None => descend(self.base.fields.get(field.as_str())?, keys).cloned(),
            Some(FieldOverlay::Whole(v)) => descend(v.as_ref()?, keys).cloned(),
            Some(FieldOverlay::Entries(entries)) => {
                if let Some(plen) = Self::prefix_len(entries, keys) {
                    // An overlay write at or above the path shadows base.
                    return descend(entries[&keys[..plen]].as_ref()?, &keys[plen..]).cloned();
                }
                let base_sub = self
                    .base
                    .fields
                    .get(field.as_str())
                    .and_then(|root| descend(root, keys))
                    .cloned();
                // Pending writes below the path: materialise the sub-map.
                // An insert below a base-absent path creates it (matching
                // `insert_at`'s intermediate-map materialisation).
                let deeper = Self::subtree(entries, keys);
                let mut root = match base_sub {
                    Some(v) => v,
                    None if deeper.clone().any(|(_, s)| s.is_some()) => Value::empty_map(),
                    None => return None,
                };
                for (path, slot) in deeper {
                    match slot {
                        Some(v) => insert_at(&mut root, &path[keys.len()..], v.clone()),
                        None => delete_at(&mut root, &path[keys.len()..]),
                    }
                }
                Some(root)
            }
        }
    }

    fn map_update(&mut self, field: Sym, keys: &[Value], value: Value) {
        if keys.is_empty() {
            // A whole-field map write; same net effect as `store`.
            self.store(field, value);
            return;
        }
        match self.overlay.get_mut(&field) {
            Some(FieldOverlay::Whole(Some(root))) => insert_at(root, keys, value),
            Some(slot @ FieldOverlay::Whole(None)) => {
                // Field was deleted; recreate it, as `map_update` on a plain
                // store materialises a fresh empty map.
                let mut root = Value::empty_map();
                insert_at(&mut root, keys, value);
                *slot = FieldOverlay::Whole(Some(root));
            }
            Some(FieldOverlay::Entries(entries)) => {
                if let Some(plen) = Self::prefix_len(entries, keys) {
                    let slot = entries.get_mut(&keys[..plen]).expect("prefix entry");
                    if plen == keys.len() {
                        *slot = Some(value);
                    } else {
                        let root = slot.get_or_insert_with(Value::empty_map);
                        insert_at(root, &keys[plen..], value);
                    }
                } else {
                    Self::shadow_below(entries, keys, Some(value));
                }
            }
            None => {
                let mut entries = BTreeMap::new();
                entries.insert(keys.to_vec(), Some(value));
                self.overlay.insert(field, FieldOverlay::Entries(entries));
            }
        }
    }

    fn map_exists(&self, field: Sym, keys: &[Value]) -> bool {
        match self.overlay.get(&field) {
            None => self.base.map_exists(field, keys),
            Some(FieldOverlay::Whole(v)) => {
                v.as_ref().is_some_and(|root| descend(root, keys).is_some())
            }
            Some(FieldOverlay::Entries(entries)) => {
                if keys.is_empty() {
                    // The field exists: entry overlays only form over an
                    // existing base field or a materialising insert.
                    return true;
                }
                if let Some(plen) = Self::prefix_len(entries, keys) {
                    return entries[&keys[..plen]]
                        .as_ref()
                        .is_some_and(|root| descend(root, &keys[plen..]).is_some());
                }
                // An insert below the path materialises every prefix of it.
                if Self::subtree(entries, keys).any(|(_, slot)| slot.is_some()) {
                    return true;
                }
                // Tombstones below remove entries, never the sub-map itself,
                // so base existence stands.
                self.base.map_exists(field, keys)
            }
        }
    }

    fn map_delete(&mut self, field: Sym, keys: &[Value]) {
        if keys.is_empty() {
            return;
        }
        // Decide first with shared borrows: the exactness check (and the
        // flatten fallback's `load`) needs the whole overlay.
        let flatten = match self.overlay.get(&field) {
            Some(FieldOverlay::Entries(entries)) => match Self::prefix_len(entries, keys) {
                // A delete inside a pinned sub-map value is always exact.
                Some(plen) if plen < keys.len() => false,
                _ => self.delete_needs_flatten(field, entries, keys),
            },
            _ => false,
        };
        if flatten {
            // A bare tombstone would forget intermediate maps that the
            // dropped overlay writes materialised (a plain store keeps them
            // through deletes): pin the merged field and delete inside it.
            let mut merged = self.load(field).unwrap_or_else(Value::empty_map);
            delete_at(&mut merged, keys);
            self.overlay.insert(field, FieldOverlay::Whole(Some(merged)));
            return;
        }
        match self.overlay.get_mut(&field) {
            Some(FieldOverlay::Whole(Some(root))) => delete_at(root, keys),
            Some(FieldOverlay::Whole(None)) => {}
            Some(FieldOverlay::Entries(entries)) => {
                if let Some(plen) = Self::prefix_len(entries, keys) {
                    let slot = entries.get_mut(&keys[..plen]).expect("prefix entry");
                    if plen == keys.len() {
                        // Tombstone, not removal: the base may hold an older
                        // value at this path that must stay shadowed.
                        *slot = None;
                    } else if let Some(root) = slot {
                        delete_at(root, &keys[plen..]);
                    }
                } else {
                    Self::shadow_below(entries, keys, None);
                }
            }
            None => {
                // Deleting in a field the base never had is a no-op; do not
                // fabricate an overlay (it would make the field "exist").
                if self.base.fields.contains_key(field.as_str()) {
                    let mut entries = BTreeMap::new();
                    entries.insert(keys.to_vec(), None);
                    self.overlay.insert(field, FieldOverlay::Entries(entries));
                }
            }
        }
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
        s.store("allow".into(), Value::empty_map());
        s.map_update("allow".into(), &[addr(1), addr(2)], Value::Uint(128, 9));
        assert_eq!(s.map_get("allow".into(), &[addr(1), addr(2)]), Some(Value::Uint(128, 9)));
        assert!(s.map_exists("allow".into(), &[addr(1)]));
        assert!(!s.map_exists("allow".into(), &[addr(3)]));
    }

    #[test]
    fn delete_removes_only_target() {
        let mut s = InMemoryState::new();
        s.map_update("m".into(), &[addr(1)], Value::Uint(128, 1));
        s.map_update("m".into(), &[addr(2)], Value::Uint(128, 2));
        s.map_delete("m".into(), &[addr(1)]);
        assert_eq!(s.map_get("m".into(), &[addr(1)]), None);
        assert_eq!(s.map_get("m".into(), &[addr(2)]), Some(Value::Uint(128, 2)));
        // Deleting a missing path is a no-op.
        s.map_delete("m".into(), &[addr(9), addr(9)]);
    }

    #[test]
    fn partial_key_path_returns_submap() {
        let mut s = InMemoryState::new();
        s.map_update("m".into(), &[addr(1), addr(2)], Value::Uint(128, 7));
        match s.map_get("m".into(), &[addr(1)]) {
            Some(Value::Map(sub)) => assert_eq!(sub.len(), 1),
            other => panic!("expected submap, got {other:?}"),
        }
    }

    #[test]
    fn whole_field_load_store() {
        let mut s = InMemoryState::new();
        s.store("n".into(), Value::Uint(128, 3));
        assert_eq!(s.load("n".into()), Some(Value::Uint(128, 3)));
        assert_eq!(s.load("missing".into()), None);
    }

    #[test]
    fn cloned_map_values_share_until_written() {
        let mut s = InMemoryState::new();
        s.map_update("m".into(), &[addr(1)], Value::Uint(128, 1));
        let before = s.load("m".into()).unwrap();
        s.map_update("m".into(), &[addr(2)], Value::Uint(128, 2));
        // The clone read out earlier is unaffected by the later write.
        let Value::Map(m) = &before else { panic!("expected map") };
        assert_eq!(m.len(), 1);
        let Some(Value::Map(after)) = s.load("m".into()) else { panic!("expected map") };
        assert_eq!(after.len(), 2);
    }

    fn base_with_balances() -> Arc<InMemoryState> {
        let mut s = InMemoryState::new();
        s.map_update("balances".into(), &[addr(1)], Value::Uint(128, 100));
        s.map_update("balances".into(), &[addr(2)], Value::Uint(128, 200));
        s.store("total".into(), Value::Uint(128, 300));
        Arc::new(s)
    }

    #[test]
    fn cow_reads_fall_through_to_base() {
        let cow = CowState::new(base_with_balances());
        assert_eq!(cow.map_get("balances".into(), &[addr(1)]), Some(Value::Uint(128, 100)));
        assert_eq!(cow.load("total".into()), Some(Value::Uint(128, 300)));
        assert!(cow.map_exists("balances".into(), &[addr(2)]));
        assert!(!cow.map_exists("balances".into(), &[addr(9)]));
        assert!(cow.is_clean());
    }

    #[test]
    fn cow_writes_shadow_base_and_leave_it_untouched() {
        let base = base_with_balances();
        let mut cow = CowState::new(Arc::clone(&base));
        cow.map_update("balances".into(), &[addr(1)], Value::Uint(128, 50));
        cow.map_delete("balances".into(), &[addr(2)]);
        cow.store("total".into(), Value::Uint(128, 150));
        assert_eq!(cow.map_get("balances".into(), &[addr(1)]), Some(Value::Uint(128, 50)));
        assert_eq!(cow.map_get("balances".into(), &[addr(2)]), None);
        assert!(!cow.map_exists("balances".into(), &[addr(2)]));
        assert_eq!(cow.load("total".into()), Some(Value::Uint(128, 150)));
        // Base unchanged.
        assert_eq!(base.map_get("balances".into(), &[addr(1)]), Some(Value::Uint(128, 100)));
        assert_eq!(base.load("total".into()), Some(Value::Uint(128, 300)));
    }

    #[test]
    fn cow_whole_map_load_merges_overlay() {
        let mut cow = CowState::new(base_with_balances());
        cow.map_update("balances".into(), &[addr(3)], Value::Uint(128, 7));
        cow.map_delete("balances".into(), &[addr(1)]);
        let Some(Value::Map(m)) = cow.load("balances".into()) else { panic!("expected map") };
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&addr(3)), Some(&Value::Uint(128, 7)));
        assert!(!m.contains_key(&addr(1)));
    }

    #[test]
    fn cow_snapshot_of_clean_store_is_same_allocation() {
        let base = base_with_balances();
        let cow = CowState::new(Arc::clone(&base));
        let snap = cow.snapshot();
        assert!(Arc::ptr_eq(&base, &snap));
    }

    #[test]
    fn cow_snapshot_flattens_to_plain_semantics() {
        let base = base_with_balances();
        let mut cow = CowState::new(Arc::clone(&base));
        let mut plain = (*base).clone();
        for s in [&mut cow as &mut dyn StateStore, &mut plain as &mut dyn StateStore] {
            s.map_update("balances".into(), &[addr(1)], Value::Uint(128, 1));
            s.map_delete("balances".into(), &[addr(2)]);
            s.map_update("allow".into(), &[addr(1), addr(2)], Value::Uint(128, 5));
            s.store("total".into(), Value::Uint(128, 1));
        }
        assert_eq!(*cow.snapshot(), plain);
    }

    #[test]
    fn cow_remove_field_tombstones_and_recreates() {
        let mut cow = CowState::new(base_with_balances());
        cow.remove_field("balances".into());
        assert_eq!(cow.load("balances".into()), None);
        assert!(!cow.map_exists("balances".into(), &[addr(1)]));
        cow.map_update("balances".into(), &[addr(5)], Value::Uint(128, 5));
        let Some(Value::Map(m)) = cow.load("balances".into()) else { panic!("expected map") };
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn cow_delete_in_unknown_field_stays_clean() {
        let mut cow = CowState::new(base_with_balances());
        cow.map_delete("no_such_field".into(), &[addr(1)]);
        assert!(cow.is_clean());
        assert_eq!(cow.load("no_such_field".into()), None);
    }

    #[test]
    fn cow_prefix_writes_fold_into_overlay() {
        let mut cow = CowState::new(Arc::new(InMemoryState::new()));
        // Deep write first, then a shallower write that shadows it, then a
        // deep write folding into the shallow entry.
        cow.map_update("allow".into(), &[addr(1), addr(2)], Value::Uint(128, 1));
        cow.map_update("allow".into(), &[addr(1)], Value::empty_map());
        assert_eq!(cow.map_get("allow".into(), &[addr(1), addr(2)]), None);
        cow.map_update("allow".into(), &[addr(1), addr(3)], Value::Uint(128, 3));
        assert_eq!(cow.map_get("allow".into(), &[addr(1), addr(3)]), Some(Value::Uint(128, 3)));
        assert!(cow.map_exists("allow".into(), &[addr(1)]));
        let Some(Value::Map(sub)) = cow.map_get("allow".into(), &[addr(1)]) else {
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
        base.store("m".into(), Value::empty_map());
        (CowState::new(Arc::new(base.clone())), base)
    }

    /// `Str` keys sharing a prefix sort `["a"] < ["a", …] < ["aa"] < ["ab", …]
    /// < ["b", …]`, so a sibling's overlay entries sit right after a path's
    /// own extensions: every point operation must stop at the end of its
    /// own subtree.
    #[test]
    fn cow_point_ops_stay_inside_their_subtree() {
        let (mut cow, mut plain) = overlay_and_plain();
        let m: Sym = "m".into();
        for st in [&mut cow as &mut dyn StateStore, &mut plain] {
            st.map_update(m, &[s("a"), s("x")], Value::Uint(32, 1));
            st.map_update(m, &[s("ab"), s("x")], Value::Uint(32, 2));
            st.map_update(m, &[s("ab"), s("y")], Value::Uint(32, 3));
            st.map_update(m, &[s("b"), s("x")], Value::Uint(32, 4));
        }
        let Some(Value::Map(a)) = cow.map_get(m, &[s("a")]) else { panic!("expected submap") };
        assert_eq!(a.len(), 1, "only a's own entries are materialised");
        for path in [&[s("a")][..], &[s("aa")], &[s("ab")], &[s("ab"), s("x")], &[s("b")]] {
            assert_eq!(cow.map_get(m, path), plain.map_get(m, path), "{path:?}");
            assert_eq!(cow.map_exists(m, path), plain.map_exists(m, path), "{path:?}");
        }
        // A write above a's entries evicts them and nothing after them.
        for st in [&mut cow as &mut dyn StateStore, &mut plain] {
            st.map_update(m, &[s("a")], Value::empty_map());
        }
        assert_eq!(cow.map_get(m, &[s("ab"), s("y")]), Some(Value::Uint(32, 3)));
        assert_eq!(*cow.snapshot(), plain);
    }

    /// Deleting the only insert under `["a", "x"]` must keep the maps it
    /// materialised, as a plain store does, so `map_delete` flattens — unless
    /// an insert survives under each prefix. A sibling subtree next to a
    /// prefix's own (`["ab", …]` after `["a", …]`, `["a", "xy", …]` after
    /// `["a", "x", …]`) is not such a survivor.
    #[test]
    fn cow_delete_flatten_ignores_sibling_subtrees() {
        let m: Sym = "m".into();
        let doomed = [s("a"), s("x"), s("p")];
        for sibling in [[s("ab"), s("x"), s("p")], [s("a"), s("xy"), s("p")]] {
            let (mut cow, mut plain) = overlay_and_plain();
            for st in [&mut cow as &mut dyn StateStore, &mut plain] {
                st.map_update(m, &doomed, Value::Uint(32, 1));
                st.map_update(m, &sibling, Value::Uint(32, 2));
                st.map_delete(m, &doomed);
            }
            assert!(cow.map_exists(m, &doomed[..2]), "{sibling:?}");
            assert_eq!(*cow.snapshot(), plain, "{sibling:?}");
        }
    }
}
