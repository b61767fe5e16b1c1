//! Accounts with relaxed nonce tracking (paper §4.2.1).
//!
//! Ethereum's strict gap-free nonce ordering would force all of a user's
//! transactions into one shard. The paper relaxes this: transactions commit
//! in *increasing* nonce order without waiting for gaps to fill (like Paxos
//! ballots), which keeps replay protection while allowing, e.g., nonces
//! {1,3,5} and {2,4} from the same user to execute in two shards in
//! parallel.

use std::collections::BTreeSet;

/// Replay-safe, gap-tolerant nonce state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NonceState {
    /// Every nonce `≤ watermark` is committed.
    watermark: u64,
    /// Committed nonces above the watermark.
    committed_above: BTreeSet<u64>,
}

impl NonceState {
    /// Fresh state: no nonce committed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Can a transaction with this nonce still commit?
    pub fn is_usable(&self, nonce: u64) -> bool {
        nonce > self.watermark && !self.committed_above.contains(&nonce)
    }

    /// Marks a nonce committed. The nonce just above the watermark moves
    /// it, so nonces committed in order (a single sender's epoch) never
    /// enter `committed_above`.
    ///
    /// Returns `false` (and changes nothing) if it was already committed —
    /// the replay-protection property.
    pub fn commit(&mut self, nonce: u64) -> bool {
        if !self.is_usable(nonce) {
            return false;
        }
        if nonce != self.watermark + 1 {
            self.committed_above.insert(nonce);
            return true;
        }
        self.watermark = nonce;
        while !self.committed_above.is_empty() && self.committed_above.remove(&(self.watermark + 1))
        {
            self.watermark += 1;
        }
        true
    }

    /// Merges another shard's committed set into this one, in any order;
    /// in increasing order it touches `committed_above` least.
    pub fn merge(&mut self, committed: impl IntoIterator<Item = u64>) {
        for n in committed {
            self.commit(n);
        }
    }

    /// Highest committed nonce (0 when none).
    pub fn high(&self) -> u64 {
        self.committed_above.iter().next_back().copied().unwrap_or(self.watermark)
    }

    /// The contiguous-prefix watermark: every nonce `≤ watermark` is
    /// committed. Exposed for state digests and field-by-field comparison.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Committed nonces above the watermark, in increasing order. Together
    /// with [`NonceState::watermark`] this is the full observable state.
    pub fn committed_above(&self) -> impl Iterator<Item = u64> + '_ {
        self.committed_above.iter().copied()
    }
}

/// The protocol-level state of one account.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Account {
    /// Native token balance.
    pub balance: u128,
    /// Relaxed nonce state.
    pub nonces: NonceState,
    /// Whether this address holds a contract.
    pub is_contract: bool,
}

impl Account {
    /// A user account with an initial balance.
    pub fn user(balance: u128) -> Self {
        Account { balance, nonces: NonceState::new(), is_contract: false }
    }

    /// A contract account.
    pub fn contract() -> Self {
        Account { balance: 0, nonces: NonceState::new(), is_contract: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn out_of_order_commit_is_allowed() {
        let mut n = NonceState::new();
        assert!(n.commit(3));
        assert!(n.commit(1));
        assert!(n.commit(5));
        assert!(n.is_usable(2));
        assert!(n.is_usable(4));
        assert!(!n.is_usable(3));
    }

    #[test]
    fn replay_is_rejected() {
        let mut n = NonceState::new();
        assert!(n.commit(2));
        assert!(!n.commit(2), "replaying a committed nonce must fail");
    }

    #[test]
    fn watermark_compacts_contiguous_prefix() {
        let mut n = NonceState::new();
        for nonce in [2, 1, 3] {
            n.commit(nonce);
        }
        // 1..=3 contiguous → watermark 3 with an empty overflow set.
        assert!(!n.is_usable(3));
        assert!(n.is_usable(4));
        assert_eq!(n.high(), 3);
        assert!(n.committed_above.is_empty());
    }

    #[test]
    fn merge_unions_parallel_shards() {
        // Shard A committed {1,3,5}; shard B committed {2,4} (the paper's
        // example).
        let mut n = NonceState::new();
        n.merge([1, 3, 5]);
        n.merge([2, 4]);
        assert_eq!(n.high(), 5);
        assert!(n.is_usable(6));
        for used in 1..=5 {
            assert!(!n.is_usable(used));
        }
    }

    /// A shard's committed list: a sorted run from `start` with gaps of
    /// `gaps`, then stray nonces in any order, repeats and nonces below the
    /// watermark included.
    fn committed() -> impl Strategy<Value = Vec<u64>> {
        (0u64..12, prop::collection::vec(0u64..3, 0..12), prop::collection::vec(0u64..30, 0..6))
            .prop_map(|(start, gaps, strays)| {
                let mut n = start;
                let mut run: Vec<u64> = gaps
                    .iter()
                    .map(|g| {
                        n += 1 + g;
                        n - 1 - g
                    })
                    .collect();
                run.extend(strays);
                run
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Merges and commits agree with a set of every committed nonce:
        /// the watermark is its longest prefix from 1, `committed_above`
        /// the rest, and a nonce is usable exactly when it is not in it.
        #[test]
        fn merge_matches_a_set_of_committed_nonces(
            steps in prop::collection::vec((committed(), any::<bool>(), 0u64..30), 1..8)
        ) {
            let mut n = NonceState::new();
            let mut model = BTreeSet::from([0]);
            for (list, commits, c) in steps {
                n.merge(list.iter().copied());
                model.extend(&list);
                if commits {
                    prop_assert_eq!(n.commit(c), model.insert(c));
                }
                let watermark = (1..).find(|k| !model.contains(k)).unwrap() - 1;
                prop_assert_eq!(n.watermark(), watermark);
                let above: Vec<u64> = model.range(watermark + 1..).copied().collect();
                prop_assert_eq!(n.committed_above().collect::<Vec<_>>(), above);
                for k in 0..45 {
                    prop_assert_eq!(n.is_usable(k), !model.contains(&k));
                }
            }
        }
    }
}
