//! Process-wide symbol interning.
//!
//! Identifier text — field names, transition names, constructor tags,
//! message keys — is drawn from a small static vocabulary (the contract
//! sources), yet the hot path used to compare and clone `String`s for every
//! load, store, and constructor application. A [`Sym`] is a `Copy` handle
//! into a process-wide append-only table: equality and hashing are integer
//! ops, and nothing is ever freed (the vocabulary is bounded by the deployed
//! code, not the workload).
//!
//! `Sym`'s `Ord` is the order of its text, not of its id. Ids depend on
//! interning history and thread timing; text does not, so every
//! `BTreeMap<Sym, _>` iterates in the same order in every process and
//! canonical output (wire deltas, digests, printed values) needs no
//! re-sort. Comparing distinct symbols reads both texts, and
//! [`Sym::as_str`] is lock-free: the table's slots are written once, under
//! the interning lock, before the new `Sym` is handed out.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string: a `Copy` integer handle with O(1) equality/hash,
/// ordered by its text.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// Segment `k` of the text table holds `1 << (FIRST_SEGMENT_BITS + k)`
/// slots, so `SEGMENTS` doubling segments cover every `u32` id.
const FIRST_SEGMENT_BITS: u32 = 6;
const SEGMENTS: usize = (u32::BITS - FIRST_SEGMENT_BITS + 1) as usize;

struct Interner {
    /// Resolved text by id, append-only. A segment is allocated on first
    /// use and never moves, and each slot is set once, so a read is a few
    /// acquire loads and hands out the leaked `&'static str`.
    segments: [OnceLock<Box<[OnceLock<&'static str>]>>; SEGMENTS],
    /// Reverse map used by [`intern`]; its write lock serialises appends.
    ids: RwLock<HashMap<&'static str, Sym>>,
}

impl Interner {
    /// The table slot of `id`, allocating its segment if needed.
    fn slot(&self, id: u32) -> &OnceLock<&'static str> {
        // Offset by the first segment's size, an id's top bit names its
        // segment, and the segment's length is that bit's value.
        let n = u64::from(id) + (1 << FIRST_SEGMENT_BITS);
        let top = u64::BITS - 1 - n.leading_zeros();
        let len = 1usize << top;
        let segment = self.segments[(top - FIRST_SEGMENT_BITS) as usize]
            .get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
        &segment[n as usize - len]
    }

    /// Appends `s` under the held `ids` write lock.
    fn push(&self, ids: &mut HashMap<&'static str, Sym>, s: &'static str) -> Sym {
        let sym = Sym(u32::try_from(ids.len()).expect("symbol table full"));
        self.slot(sym.0).set(s).expect("each id is assigned once");
        ids.insert(s, sym);
        sym
    }
}

/// Symbols interned at table construction, in fixed order, so their ids are
/// compile-time constants. `well_known_ids_match` pins the correspondence.
const WELL_KNOWN: &[&str] = &[
    "",
    "True",
    "False",
    "Some",
    "None",
    "Cons",
    "Nil",
    "Pair",
    "_sender",
    "_origin",
    "_amount",
    "_this_address",
    "_recipient",
    "_tag",
    "_eventname",
    "_exception",
];

impl Sym {
    /// The empty string.
    pub const EMPTY: Sym = Sym(0);
    /// `True`.
    pub const TRUE: Sym = Sym(1);
    /// `False`.
    pub const FALSE: Sym = Sym(2);
    /// `Some`.
    pub const SOME: Sym = Sym(3);
    /// `None`.
    pub const NONE: Sym = Sym(4);
    /// `Cons`.
    pub const CONS: Sym = Sym(5);
    /// `Nil`.
    pub const NIL: Sym = Sym(6);
    /// `Pair`.
    pub const PAIR: Sym = Sym(7);
    /// `_sender`.
    pub const SENDER: Sym = Sym(8);
    /// `_origin`.
    pub const ORIGIN: Sym = Sym(9);
    /// `_amount`.
    pub const AMOUNT: Sym = Sym(10);
    /// `_this_address`.
    pub const THIS_ADDRESS: Sym = Sym(11);
    /// `_recipient`.
    pub const RECIPIENT: Sym = Sym(12);
    /// `_tag`.
    pub const TAG: Sym = Sym(13);
    /// `_eventname`.
    pub const EVENTNAME: Sym = Sym(14);
    /// `_exception`.
    pub const EXCEPTION: Sym = Sym(15);

    /// The interned text, without taking a lock. The return borrows the
    /// process-wide table (leaked storage).
    pub fn as_str(self) -> &'static str {
        table().slot(self.0).get().expect("a Sym's slot is set before it escapes")
    }
}

impl Ord for Sym {
    /// Text order, with an integer fast path on equality (interned text is
    /// unique, so equal ids and equal text coincide).
    fn cmp(&self, other: &Sym) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn table() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| {
        let t = Interner {
            segments: std::array::from_fn(|_| OnceLock::new()),
            ids: RwLock::new(HashMap::new()),
        };
        {
            let mut ids = t.ids.write().unwrap();
            for s in WELL_KNOWN {
                t.push(&mut ids, s);
            }
        }
        t
    })
}

/// Interns `s`, returning its stable in-process handle. Idempotent; never
/// allocates when `s` is already in the table.
pub fn intern(s: &str) -> Sym {
    let t = table();
    if let Some(sym) = t.ids.read().unwrap().get(s) {
        return *sym;
    }
    let mut ids = t.ids.write().unwrap();
    // Somebody may have interned `s` between our read and write lock.
    if let Some(sym) = ids.get(s) {
        return *sym;
    }
    t.push(&mut ids, Box::leak(s.to_owned().into_boxed_str()))
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        intern(&s)
    }
}

impl Default for Sym {
    fn default() -> Sym {
        Sym::EMPTY
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("balances");
        let b = intern("balances");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "balances");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(intern("alpha_x"), intern("alpha_y"));
    }

    #[test]
    fn well_known_ids_match() {
        for (i, s) in WELL_KNOWN.iter().enumerate() {
            assert_eq!(intern(s), Sym(i as u32), "well-known symbol {s:?} drifted");
        }
        assert_eq!(Sym::TRUE, "True");
        assert_eq!(Sym::FALSE, "False");
        assert_eq!(Sym::SOME, "Some");
        assert_eq!(Sym::NONE, "None");
        assert_eq!(Sym::CONS, "Cons");
        assert_eq!(Sym::NIL, "Nil");
        assert_eq!(Sym::PAIR, "Pair");
        assert_eq!(Sym::SENDER, "_sender");
        assert_eq!(Sym::ORIGIN, "_origin");
        assert_eq!(Sym::AMOUNT, "_amount");
        assert_eq!(Sym::THIS_ADDRESS, "_this_address");
        assert_eq!(Sym::RECIPIENT, "_recipient");
        assert_eq!(Sym::TAG, "_tag");
        assert_eq!(Sym::EVENTNAME, "_eventname");
        assert_eq!(Sym::EXCEPTION, "_exception");
    }

    #[test]
    fn ord_is_text_order_not_id_order() {
        // Intern in reverse-lexicographic order so ids disagree with text.
        let z = intern("zzz_order_probe");
        let a = intern("aaa_order_probe");
        assert!(z.0 < a.0);
        assert_eq!(a.cmp(&z), Ordering::Less);
        assert_eq!(z.cmp(&a), Ordering::Greater);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn table_grows_past_its_first_segments() {
        let syms: Vec<Sym> = (0..1_000).map(|i| intern(&format!("segment_probe_{i}"))).collect();
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(sym.as_str(), format!("segment_probe_{i}"));
        }
    }

    #[test]
    fn string_equality_shortcuts() {
        assert!(intern("Pair") == "Pair");
        assert!("Pair" == intern("Pair"));
        assert!(intern("Pair") != "Cons");
    }
}
