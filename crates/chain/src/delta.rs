//! State deltas and the three-way merge (paper §4.1, §4.3).
//!
//! Each shard's `MicroBlock` carries a `StateDelta` describing what its
//! transactions changed relative to the epoch-start state. The DS committee
//! merges all deltas into the final state:
//!
//! * components of fields with an [`Join::IntMerge`] join carry *numeric
//!   deltas* that sum across shards (Strategy 2, commutativity);
//! * everything else carries *overwrites* whose disjointness is guaranteed
//!   by ownership dispatch (Strategy 1) — the merge detects violations
//!   rather than silently losing writes.
//!
//! [`Join::IntMerge`]: cosplit_analysis::signature::Join::IntMerge

use crate::address::Address;
use crate::error::MergeError;
use crate::state::GlobalState;
use std::sync::Arc;
use scilla::builtins::uint_max;
use scilla::intern::Sym;
use scilla::state::StateStore;
use scilla::value::Value;
use serde_json::json;
use std::collections::BTreeMap;

/// One addressable state component: a field plus a (possibly empty) key path.
///
/// The field name is interned; components order by field text, then keys,
/// so component maps iterate in the canonical (wire) order.
pub type Component = (Sym, Vec<Value>);

/// Renders a component for diagnostics.
pub fn component_name(c: &Component) -> String {
    let mut s = c.0.as_str().to_string();
    for k in &c.1 {
        s.push_str(&format!("[{k}]"));
    }
    s
}

/// The first component of `cd`, of either kind, that lies strictly below
/// another in the same field. In component order every component between
/// a component and one below it lies below it too, so one pass over the
/// two sorted maps, comparing neighbours, finds a nested pair if any.
fn first_nested(cd: &ContractDelta) -> Option<&Component> {
    let mut ints = cd.int_deltas.keys().peekable();
    let mut overwrites = cd.overwrites.keys().peekable();
    let mut sorted = std::iter::from_fn(|| match (ints.peek(), overwrites.peek()) {
        (Some(i), Some(o)) if o < i => overwrites.next(),
        (Some(_), _) => ints.next(),
        (None, _) => overwrites.next(),
    });
    let mut above = sorted.next()?;
    for comp in sorted {
        if comp.0 == above.0 && comp.1.len() > above.1.len() && comp.1.starts_with(&above.1) {
            return Some(comp);
        }
        above = comp;
    }
    None
}

/// Adds `b` to `acc`, wrapping, and counts the wrap under `key`, up for a
/// positive `b` and down for a negative one.
fn add_counting_wraps<K: Ord>(acc: &mut i128, b: i128, wraps: &mut BTreeMap<K, i64>, key: K) {
    let (sum, wrapped) = acc.overflowing_add(b);
    *acc = sum;
    if wrapped {
        *wraps.entry(key).or_default() += b.signum() as i64;
    }
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

/// Changes to one contract's fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContractDelta {
    /// Components merged by summation.
    pub int_deltas: BTreeMap<Component, IntDelta>,
    /// Components merged by (disjoint) overwrite; `None` deletes the entry.
    pub overwrites: BTreeMap<Component, Option<Value>>,
}

impl ContractDelta {
    /// Is there nothing to apply?
    pub fn is_empty(&self) -> bool {
        self.int_deltas.is_empty() && self.overwrites.is_empty()
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

    /// Merges several shard deltas into one (the `FinalStateDelta`),
    /// checking disjointness of overwrites. It borrows them: the DS
    /// committee merges micro-block deltas in place without cloning each
    /// one first.
    ///
    /// # Errors
    ///
    /// [`MergeError::OverwriteConflict`] if two deltas overwrite the same
    /// component, or a component of either kind lies above or below another
    /// in the same field — impossible under correct ownership dispatch;
    /// [`MergeError::DeltaOutOfRange`] if the exact sum of a component's
    /// integer deltas, or of an account's balance deltas, leaves `i128` —
    /// only a hostile wire delta gets there.
    ///
    /// The verdict does not depend on the order of `deltas`: sums are taken
    /// exactly, so `[MAX, 1, -1]` merges like `[MAX, -1, 1]`. Grouping is
    /// promised only while every sum is in range: merging `[MAX, 1]` first
    /// fails, because that inner sum has no `i128` value.
    ///
    /// An integer delta and an overwrite on the same component do merge:
    /// the executor falls back to an overwrite where a value's change
    /// leaves `i128`, and [`StateDelta::apply`] sets overwrites before it
    /// adds integer deltas.
    pub fn merge_ref<'a>(
        deltas: impl IntoIterator<Item = &'a StateDelta>,
    ) -> Result<StateDelta, MergeError> {
        let mut out = StateDelta::new();
        // Net wraps past the `i128` range per (contract, component) and per
        // account (`None`): each sum is exact as `wrapped + n × 2¹²⁸`.
        let mut wraps: BTreeMap<(Address, Option<&Component>), i64> = BTreeMap::new();
        for d in deltas {
            for (addr, cd) in &d.contracts {
                let target = out.contracts.entry(*addr).or_default();
                for (comp, id) in &cd.int_deltas {
                    let entry = target.int_deltas.entry(comp.clone()).or_insert(IntDelta {
                        delta: 0,
                        width: id.width,
                        signed: id.signed,
                    });
                    add_counting_wraps(&mut entry.delta, id.delta, &mut wraps, (*addr, Some(comp)));
                }
                for (comp, ow) in &cd.overwrites {
                    if target.overwrites.insert(comp.clone(), ow.clone()).is_some() {
                        return Err(MergeError::OverwriteConflict {
                            contract: addr.to_string(),
                            component: component_name(comp),
                        });
                    }
                }
            }
            for (addr, b) in &d.balances {
                let entry = out.balances.entry(*addr).or_insert(0);
                add_counting_wraps(entry, *b, &mut wraps, (*addr, None));
            }
            for (addr, ns) in &d.nonces {
                out.nonces.entry(*addr).or_default().extend(ns.iter().copied());
            }
        }
        // A merge only adds components, so one check of the result finds
        // every nested pair, whether inside one delta or across two.
        for (addr, cd) in &out.contracts {
            if let Some(comp) = first_nested(cd) {
                return Err(MergeError::OverwriteConflict {
                    contract: addr.to_string(),
                    component: component_name(comp),
                });
            }
        }
        if let Some(((addr, comp), _)) = wraps.iter().find(|(_, n)| **n != 0) {
            return Err(MergeError::DeltaOutOfRange {
                contract: addr.to_string(),
                component: comp.map_or_else(|| "balance".into(), component_name),
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
    /// merge of epoch-start state with the combined deltas).
    ///
    /// # Errors
    ///
    /// [`MergeError::DeltaOutOfRange`] if an integer component or a native
    /// balance leaves its type's range — the situation the paper's §6
    /// overflow guard prevents.
    pub fn apply(&self, state: &mut GlobalState) -> Result<(), MergeError> {
        for (addr, cd) in &self.contracts {
            // In the normal epoch flow the shard executors' snapshot views
            // have been dropped by merge time, so `make_mut` mutates in
            // place; a surviving snapshot (e.g. a held block digest input)
            // triggers one shallow O(fields) copy, never a value deep-copy.
            let storage = Arc::make_mut(state.storage.entry(*addr).or_default());
            for ((field, keys), ow) in &cd.overwrites {
                storage.set(*field, keys, ow.clone());
            }
            for (comp, id) in &cd.int_deltas {
                let (field, keys) = comp;
                let err = || MergeError::DeltaOutOfRange {
                    contract: addr.to_string(),
                    component: component_name(comp),
                };
                let old = storage.get(*field, keys);
                let nv = apply_int_delta(old.as_ref(), id).ok_or_else(err)?;
                storage.set(*field, keys, Some(nv));
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
    /// cost the paper measures in §5.2.2).
    pub fn to_wire(&self) -> String {
        let contracts: Vec<serde_json::Value> = self
            .contracts
            .iter()
            .map(|(addr, cd)| {
                let ints: Vec<serde_json::Value> = cd
                    .int_deltas
                    .iter()
                    .map(|(c, d)| {
                        json!({
                            "field": c.0.as_str(),
                            "keys": c.1.iter().map(scilla::wire::to_json).collect::<Vec<_>>(),
                            "delta": d.delta.to_string(),
                            "width": d.width,
                            "signed": d.signed,
                        })
                    })
                    .collect();
                let ows: Vec<serde_json::Value> = cd
                    .overwrites
                    .iter()
                    .map(|(c, v)| {
                        json!({
                            "field": c.0.as_str(),
                            "keys": c.1.iter().map(scilla::wire::to_json).collect::<Vec<_>>(),
                            "value": v.as_ref().map(scilla::wire::to_json),
                        })
                    })
                    .collect();
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
    /// Returns a description of the first malformed node.
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
                let width = u32::try_from(width).map_err(|_| format!("bad width {width}"))?;
                let signed = i["signed"].as_bool().ok_or("missing signed")?;
                cd.int_deltas.insert((field, keys), IntDelta { delta, width, signed });
            }
            for o in c["overwrites"].as_array().ok_or("missing overwrites")? {
                let field = scilla::intern::intern(o["field"].as_str().ok_or("missing field")?);
                let keys = parse_keys(&o["keys"])?;
                let value = match &o["value"] {
                    serde_json::Value::Null => None,
                    v => Some(scilla::wire::from_json(v)?),
                };
                cd.overwrites.insert((field, keys), value);
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
    /// "per changed state field" merge cost).
    pub fn changed_components(&self) -> usize {
        self.contracts
            .values()
            .map(|cd| cd.int_deltas.len() + cd.overwrites.len())
            .sum::<usize>()
            + self.balances.len()
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
pub fn apply_int_delta(old: Option<&Value>, id: &IntDelta) -> Option<Value> {
    if id.signed {
        let old_i: i128 = match old {
            Some(Value::Int(_, n)) => *n,
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
            Some(Value::Uint(_, n)) => *n,
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

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn key(i: u64) -> Value {
        addr(i).to_value()
    }

    fn int_delta(d: i128) -> IntDelta {
        IntDelta { delta: d, width: 128, signed: false }
    }

    #[test]
    fn int_deltas_sum_across_shards() {
        let c = addr(100);
        let mk = |d: i128| {
            let mut sd = StateDelta::new();
            sd.contracts.entry(c).or_default().int_deltas.insert(
                ("balances".into(), vec![key(1)]),
                int_delta(d),
            );
            sd
        };
        let merged = StateDelta::merge_ref(&[mk(10), mk(-3), mk(5)]).unwrap();
        assert_eq!(
            merged.contracts[&c].int_deltas[&("balances".into(), vec![key(1)])].delta,
            12
        );
    }

    #[test]
    fn overwrite_conflicts_are_detected() {
        let c = addr(100);
        let mk = |v: u128| {
            let mut sd = StateDelta::new();
            sd.contracts
                .entry(c)
                .or_default()
                .overwrites
                .insert(("owners".into(), vec![key(1)]), Some(Value::Uint(128, v)));
            sd
        };
        let err = StateDelta::merge_ref(&[mk(1), mk(2)]).unwrap_err();
        assert!(matches!(err, MergeError::OverwriteConflict { .. }));
    }

    #[test]
    fn merge_is_order_independent() {
        let c = addr(100);
        let mut d1 = StateDelta::new();
        d1.contracts.entry(c).or_default().int_deltas.insert(("x".into(), vec![]), int_delta(4));
        d1.balances.insert(addr(1), -7);
        let mut d2 = StateDelta::new();
        d2.contracts.entry(c).or_default().int_deltas.insert(("x".into(), vec![]), int_delta(-1));
        d2.contracts
            .entry(c)
            .or_default()
            .overwrites
            .insert(("y".into(), vec![key(2)]), None);
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

        let mut sd = StateDelta::new();
        sd.contracts
            .entry(c)
            .or_default()
            .int_deltas
            .insert(("balances".into(), vec![key(1)]), int_delta(-30));
        sd.contracts
            .entry(c)
            .or_default()
            .int_deltas
            .insert(("balances".into(), vec![key(2)]), int_delta(30));
        sd.apply(&mut state).unwrap();

        let storage = &state.storage[&c];
        assert_eq!(storage.get("balances".into(), &[key(1)]), Some(Value::Uint(128, 70)));
        assert_eq!(storage.get("balances".into(), &[key(2)]), Some(Value::Uint(128, 30)));
    }

    /// A wire delta may overwrite a whole field with `null`: that removes
    /// the field. No executor emits one, since no statement removes a field.
    #[test]
    fn null_whole_field_overwrite_removes_the_field() {
        let c = addr(100);
        let mut state = GlobalState::new();
        let storage = Arc::make_mut(state.storage.entry(c).or_default());
        storage.set("owner".into(), &[], Some(Value::Str("x".into())));
        let mut sd = StateDelta::new();
        sd.contracts.entry(c).or_default().overwrites.insert(("owner".into(), vec![]), None);
        let sd = StateDelta::from_wire(&sd.to_wire()).unwrap();
        sd.apply(&mut state).unwrap();
        assert!(!state.storage[&c].fields().contains_key("owner"));
    }

    #[test]
    fn apply_rejects_underflow() {
        let c = addr(100);
        let mut state = GlobalState::new();
        state.storage.entry(c).or_default();
        let mut sd = StateDelta::new();
        sd.contracts
            .entry(c)
            .or_default()
            .int_deltas
            .insert(("balances".into(), vec![key(1)]), int_delta(-5));
        assert!(matches!(sd.apply(&mut state), Err(MergeError::DeltaOutOfRange { .. })));
    }

    #[test]
    fn apply_rejects_width_overflow() {
        let c = addr(100);
        let mut state = GlobalState::new();
        let storage = Arc::make_mut(state.storage.entry(c).or_default());
        storage.set("counter".into(), &[], Some(Value::Uint(32, u32::MAX as u128 - 1)));
        let mut sd = StateDelta::new();
        sd.contracts.entry(c).or_default().int_deltas.insert(
            ("counter".into(), vec![]),
            IntDelta { delta: 5, width: 32, signed: false },
        );
        assert!(matches!(sd.apply(&mut state), Err(MergeError::DeltaOutOfRange { .. })));
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
        let c = addr(100);
        let mut sd = StateDelta::new();
        sd.contracts
            .entry(c)
            .or_default()
            .int_deltas
            .insert(("balances".into(), vec![key(1)]), int_delta(-42));
        sd.contracts
            .entry(c)
            .or_default()
            .overwrites
            .insert(("owners".into(), vec![key(2)]), Some(Value::Str("x".into())));
        sd.contracts
            .entry(c)
            .or_default()
            .overwrites
            .insert(("owners".into(), vec![key(3)]), None);
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

    #[test]
    fn non_hex_wire_key_is_an_error_not_a_panic() {
        let mut sd = StateDelta::new();
        sd.contracts
            .entry(addr(100))
            .or_default()
            .overwrites
            .insert(("owners".into(), vec![Value::ByStr(vec![0xab])]), None);
        let wire = sd.to_wire();
        assert!(StateDelta::from_wire(&wire).is_ok());
        // An even-length payload whose second byte is inside 'é'.
        let hostile = wire.replace(r#""v":"ab""#, r#""v":"aéb""#);
        assert_ne!(hostile, wire);
        assert!(StateDelta::from_wire(&hostile).is_err());
    }

    #[test]
    fn hostile_wire_address_or_width_is_an_error_not_a_panic() {
        let mut sd = StateDelta::new();
        sd.contracts
            .entry(addr(100))
            .or_default()
            .int_deltas
            .insert(("balances".into(), vec![key(1)]), int_delta(1));
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
        // A width past `u32` is an error, not a truncation to 128.
        let wide =
            wire.replace(r#""width":128"#, &format!(r#""width":{}"#, (1u64 << 32) + 128));
        assert_ne!(wide, wire);
        assert!(StateDelta::from_wire(&wide).is_err());
    }

    #[test]
    fn wire_encoding_is_valid_json() {
        let c = addr(100);
        let mut sd = StateDelta::new();
        sd.contracts
            .entry(c)
            .or_default()
            .int_deltas
            .insert(("balances".into(), vec![key(1)]), int_delta(5));
        sd.contracts
            .entry(c)
            .or_default()
            .overwrites
            .insert(("owners".into(), vec![key(2)]), Some(Value::Str("x".into())));
        sd.balances.insert(addr(1), -3);
        let wire = sd.to_wire();
        let parsed: serde_json::Value = serde_json::from_str(&wire).unwrap();
        assert!(parsed["contracts"].is_array());
        assert_eq!(sd.changed_components(), 3);
    }
}
