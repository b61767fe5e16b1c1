//! Account addresses and their deterministic shard assignment.

use std::fmt;

/// A 20-byte account address (Zilliqa/Ethereum style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// A deterministic test/workload address derived from an index.
    pub fn from_index(i: u64) -> Address {
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&i.to_be_bytes());
        bytes[8] = 0xAA; // avoid colliding with the all-zero address
        Address(bytes)
    }

    /// A stable 64-bit hash of the address (FNV-1a).
    pub fn hash64(&self) -> u64 {
        fnv1a(&self.0)
    }

    /// The shard this account is deterministically assigned to (paper §4.1:
    /// "transactions are deterministically assigned to shards based on the
    /// sender's address").
    pub fn home_shard(&self, num_shards: u32) -> u32 {
        (self.hash64() % num_shards as u64) as u32
    }

    /// The interpreter-level value for this address.
    pub fn to_value(self) -> scilla::value::Value {
        scilla::value::Value::address(self.0)
    }

    /// Parses the `0x`-prefixed hex form produced by `Display`: exactly 20
    /// bytes of hex digits (the wire's [`scilla::wire::decode_hex`]).
    ///
    /// # Errors
    ///
    /// A missing prefix, a byte that is not a hex digit, or a length other
    /// than 20 bytes. Never panics, whatever the input.
    pub fn from_hex(s: &str) -> Result<Address, String> {
        let hex = s.strip_prefix("0x").ok_or("address must start with 0x")?;
        let bytes =
            scilla::wire::decode_hex(hex).ok_or_else(|| format!("bad address hex in {s}"))?;
        let bytes =
            <[u8; 20]>::try_from(bytes).map_err(|_| format!("bad address length in {s}"))?;
        Ok(Address(bytes))
    }
}

impl From<Address> for telemetry::trace::AttrValue {
    fn from(a: Address) -> Self {
        telemetry::trace::AttrValue::Addr(a.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// FNV-1a over arbitrary bytes; used for every deterministic placement
/// decision (account→shard, state component→shard).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.0
}

/// FNV-1a over a byte stream fed piecewise. As a [`fmt::Write`] sink it
/// hashes a value's `Display` rendering without collecting it into a
/// `String`: the result is `fnv1a` of the concatenated pieces.
pub(crate) struct Fnv1a(pub(crate) u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_index_is_injective_for_small_indices() {
        let a: Vec<Address> = (0..1000).map(Address::from_index).collect();
        let mut b = a.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn home_shard_is_stable_and_in_range() {
        for i in 0..100 {
            let addr = Address::from_index(i);
            let s = addr.home_shard(5);
            assert!(s < 5);
            assert_eq!(s, addr.home_shard(5));
        }
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[Address::from_index(i).home_shard(4) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn display_is_hex() {
        let a = Address([0xab; 20]);
        assert!(a.to_string().starts_with("0xabab"));
        assert_eq!(a.to_string().len(), 42);
    }

    #[test]
    fn from_hex_round_trips_display_and_rejects_hostile_strings() {
        let a = Address::from_index(77);
        assert_eq!(Address::from_hex(&a.to_string()), Ok(a));
        // 40 bytes after the prefix, but a two-byte character straddles a
        // digit pair: slicing by byte offsets would panic.
        let straddling = format!("0xa\u{e9}{}", "0".repeat(37));
        assert_eq!(straddling.len(), 42);
        assert!(Address::from_hex(&straddling).is_err());
        // `u8::from_str_radix` would read each "+f" as 0x0f.
        assert!(Address::from_hex(&format!("0x{}", "+f".repeat(20))).is_err());
        let short = format!("0x{}", "ab".repeat(19));
        let long = format!("0x{}", "ab".repeat(21));
        let odd = format!("0x{}a", "ab".repeat(19));
        for bad in [String::new(), "0x".into(), "ab".repeat(21), short, long, odd] {
            assert!(Address::from_hex(&bad).is_err(), "accepted {bad:?}");
        }
    }
}
