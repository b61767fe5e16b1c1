//! Cross-shard two-phase atomic commit (S-BAC-style, after Chainspace).
//!
//! A transaction whose sharding-signature footprint resolves to *several*
//! shards does not have to serialise at the DS committee: its owned
//! components form a lock set partitioned over the participant shards, and
//! a coordinator (the lowest participant) drives a lock → prepare → vote →
//! commit/abort state machine. Only the votes cross shard boundaries; the
//! state writes stay on the components' home shards. True ⊤-summary
//! transitions (and every other unsatisfiable footprint) still route to the
//! DS committee.
//!
//! The protocol stage runs after the per-epoch delta merge and before the
//! DS batch, so prepared executions see the merged epoch state, and the
//! differential oracle's commit-order witness (shard commits, then
//! cross-shard commits, then DS commits) stays a valid serialisation.
//!
//! Commutativity keeps the lock set small: `IntMerge` fields never appear
//! in `Owns` constraints, so concurrent commutative writers (e.g. every
//! `Register` crediting the same `pot`) take no lock at all — the paper's
//! ownership/commutativity analysis is what makes S-BAC-style locking
//! practical here.

use crate::address::Address;
use crate::tx::Transaction;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One lockable resource. Exclusive locks protect exactly what the
/// signature's constraints pin: account-level ownership (`SenderShard` /
/// `ContractShard`) and non-commutative state components (`Owns`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKey {
    /// An account's funds + nonce stream (sender accepting-funds side, or a
    /// contract account sending funds out).
    Account(Address),
    /// A concrete state component: contract, field, resolved key path
    /// (canonical string form — the same rendering `component_shard` hashes).
    Component {
        /// The owning contract.
        contract: Address,
        /// The field name.
        field: String,
        /// Resolved map keys (empty = the whole field).
        keys: Vec<String>,
    },
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockKey::Account(a) => write!(f, "account:{a}"),
            LockKey::Component { contract, field, keys } => {
                write!(f, "{contract}.{field}[{}]", keys.join("]["))
            }
        }
    }
}

/// The coordinator's plan for one multi-shard transaction: who participates
/// and which locks each participant must take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XShardPlan {
    /// The coordinating shard (lowest participant id — deterministic).
    pub coordinator: u32,
    /// Every shard owning part of the footprint.
    pub participants: BTreeSet<u32>,
    /// `(owning shard, lock)` pairs, sorted by lock key — the global
    /// acquisition order that makes deadlock impossible.
    pub locks: Vec<(u32, LockKey)>,
}

impl XShardPlan {
    /// The locks owned by one participant, in acquisition order.
    pub fn locks_of(&self, shard: u32) -> impl Iterator<Item = &LockKey> {
        self.locks.iter().filter(move |(s, _)| *s == shard).map(|(_, k)| k)
    }
}

/// Who holds a lock, and since when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Held {
    /// The preparing transaction.
    pub tx_id: u64,
    /// The epoch the lock was taken in (stale-lock recovery compares this
    /// against the current epoch).
    pub epoch: u64,
}

/// Why an acquisition failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockBusy {
    /// The contended key.
    pub key: LockKey,
    /// The current holder.
    pub holder: Held,
}

/// The per-network lock table (conceptually sharded by `LockKey` placement;
/// kept in one map because placement is a pure function of the key).
///
/// Invariants (proptested in `tests/xshard_locks.rs`):
/// * acquisition is all-or-nothing in sorted key order — a failed
///   acquisition leaves nothing newly held (no hold-and-wait, hence no
///   deadlock);
/// * `release(tx)` removes exactly the keys `tx` holds;
/// * no key is ever held by two transactions.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: BTreeMap<LockKey, Held>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// No lock held?
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// The keys a transaction currently holds, in key order.
    pub fn held_by(&self, tx_id: u64) -> Vec<LockKey> {
        self.locks
            .iter()
            .filter(|(_, h)| h.tx_id == tx_id)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// The holder of a key, if any.
    pub fn holder(&self, key: &LockKey) -> Option<Held> {
        self.locks.get(key).copied()
    }

    /// Tries to take every key for `tx_id`, all-or-nothing, in the caller's
    /// (sorted) order. Re-acquisition by the same transaction is idempotent.
    ///
    /// # Errors
    ///
    /// On the first key held by another transaction, every key newly taken
    /// by this call is released again and the contended key is reported.
    pub fn try_acquire<'k>(
        &mut self,
        tx_id: u64,
        epoch: u64,
        keys: impl IntoIterator<Item = &'k LockKey>,
    ) -> Result<usize, LockBusy> {
        let mut taken: Vec<&LockKey> = Vec::new();
        for key in keys {
            match self.locks.get(key) {
                Some(h) if h.tx_id == tx_id => {}
                Some(h) => {
                    let busy = LockBusy { key: key.clone(), holder: *h };
                    for k in taken {
                        self.locks.remove(k);
                    }
                    return Err(busy);
                }
                None => {
                    self.locks.insert(key.clone(), Held { tx_id, epoch });
                    taken.push(key);
                }
            }
        }
        Ok(taken.len())
    }

    /// Releases every key held by `tx_id` (commit or abort). Returns how
    /// many were released.
    pub fn release(&mut self, tx_id: u64) -> usize {
        let before = self.locks.len();
        self.locks.retain(|_, h| h.tx_id != tx_id);
        before - self.locks.len()
    }

    /// Breaks locks left by coordinators that crashed in an *earlier* epoch
    /// (their prepared transactions were abandoned, so the locks can never
    /// be released by a commit). Returns how many were broken.
    pub fn break_stale(&mut self, current_epoch: u64) -> usize {
        let before = self.locks.len();
        self.locks.retain(|_, h| h.epoch >= current_epoch);
        before - self.locks.len()
    }

    /// Plants a lock directly — the stale-lock fault injection hook and the
    /// proptests use this; the protocol itself only goes through
    /// [`LockTable::try_acquire`].
    pub fn plant(&mut self, key: LockKey, held: Held) {
        self.locks.insert(key, held);
    }
}

/// One participant's vote, as a message the fault plan can drop, duplicate,
/// or reorder in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteMsg {
    /// The transaction being voted on.
    pub tx_id: u64,
    /// The voting participant.
    pub shard: u32,
    /// Prepared successfully?
    pub yes: bool,
}

/// The coordinator's commit decision for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every participant voted yes.
    Commit,
    /// A participant voted no (lock conflict or prepare failure).
    Abort,
    /// A participant's vote never arrived (timeout).
    Timeout {
        /// The silent participant.
        shard: u32,
    },
}

/// Folds a delivered vote stream into a verdict. Duplicate deliveries are
/// idempotent (first vote per shard wins), arrival order is irrelevant, and
/// votes for other transactions are ignored — the properties the
/// vote-message fault plans probe.
pub fn decide(tx_id: u64, participants: &BTreeSet<u32>, votes: &[VoteMsg]) -> Verdict {
    let mut seen: BTreeMap<u32, bool> = BTreeMap::new();
    for v in votes {
        if v.tx_id != tx_id || !participants.contains(&v.shard) {
            continue;
        }
        seen.entry(v.shard).or_insert(v.yes);
    }
    for p in participants {
        match seen.get(p) {
            None => return Verdict::Timeout { shard: *p },
            Some(false) => return Verdict::Abort,
            Some(true) => {}
        }
    }
    Verdict::Commit
}

/// What befalls one shard's executor thread this epoch
/// ([`XShardFaults::shard_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Nothing: the shard executes its packet.
    None,
    /// The shard runs out of gas mid-batch (budget cut to ⅛); the tail is
    /// deferred to later epochs.
    GasCollapse,
    /// The thread dies mid-batch. Its packet takes the path a real panic
    /// takes: rerouted whole to the DS committee.
    Crash,
}

/// Fault-injection hooks the epoch pipeline consults at each step. The
/// default implementation is fault-free; the simulation harness
/// ([`crate::sim`]) maps its seeded fault plan onto these.
pub trait XShardFaults {
    /// What befalls this shard's executor thread this epoch? Asked once per
    /// shard before the shard stage spawns its threads.
    fn shard_fault(&mut self, _epoch: u64, _shard: u32) -> ShardFault {
        ShardFault::None
    }

    /// Mutates a transaction's vote stream in transit (drop / duplicate /
    /// reorder).
    fn deliver_votes(&mut self, _epoch: u64, _tx: &Transaction, votes: Vec<VoteMsg>) -> Vec<VoteMsg> {
        votes
    }

    /// Does this participant crash mid-prepare (vote no)?
    fn prepare_panic(&mut self, _epoch: u64, _tx: &Transaction, _shard: u32) -> bool {
        false
    }

    /// Does the coordinator crash between prepare and commit? (Its locks go
    /// stale and are broken at the start of a later epoch.)
    fn coordinator_crash(&mut self, _epoch: u64, _tx: &Transaction) -> bool {
        false
    }

    /// Should a stale foreign lock be planted on this transaction's first
    /// key before it acquires? (Models a lock leaked by a crash the table
    /// has not recovered yet.)
    fn plant_stale_lock(&mut self, _epoch: u64, _tx: &Transaction) -> bool {
        false
    }
}

/// The fault-free hook set (production epochs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl XShardFaults for NoFaults {}

/// Why one cross-shard transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// A required lock was held by another transaction.
    LockBusy,
    /// A participant crashed mid-prepare and voted no.
    ParticipantVeto,
    /// A vote was lost; the coordinator timed out.
    LostVote,
    /// The coordinator crashed after prepare (locks left stale).
    CoordinatorCrash,
}

impl AbortCause {
    /// Stable label for metrics and traces.
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::LockBusy => "lock-busy",
            AbortCause::ParticipantVeto => "participant-veto",
            AbortCause::LostVote => "lost-vote",
            AbortCause::CoordinatorCrash => "coordinator-crash",
        }
    }
}

/// Counters of one epoch's cross-shard stage (mirrored into the
/// `chain.xshard.*` telemetry counters by the driver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XShardStats {
    /// Transactions that finished prepare with all locks held.
    pub prepared: usize,
    /// Transactions committed atomically across their participants.
    pub committed: usize,
    /// Transactions aborted (they re-enter the pool and retry).
    pub aborted: usize,
    /// Lock acquisitions that hit a busy lock.
    pub lock_wait: usize,
    /// Transactions handed to the DS committee after plan resolution failed
    /// or the prepared execution rerouted (cross-contract call, overflow
    /// guard).
    pub ds_fallback: usize,
    /// Stale locks broken at epoch start (crashed-coordinator recovery).
    pub stale_locks_broken: usize,
    /// Coordinator crashes injected by the fault plan.
    pub coordinator_crashes: usize,
    /// Duplicate vote deliveries absorbed idempotently.
    pub duplicate_votes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> LockKey {
        LockKey::Component {
            contract: Address::from_index(9),
            field: "f".into(),
            keys: vec![i.to_string()],
        }
    }

    #[test]
    fn acquisition_is_all_or_nothing() {
        let mut t = LockTable::new();
        let keys: Vec<LockKey> = (0..4).map(key).collect();
        assert_eq!(t.try_acquire(1, 0, &keys).unwrap(), 4);
        // Another tx contends on key 2: nothing of its set may stick.
        let other: Vec<LockKey> = vec![key(7), key(2), key(8)];
        let busy = t.try_acquire(2, 0, &other).unwrap_err();
        assert_eq!(busy.key, key(2));
        assert_eq!(busy.holder.tx_id, 1);
        assert!(t.held_by(2).is_empty(), "failed acquire must leave nothing held");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn reacquisition_is_idempotent_and_release_is_exact() {
        let mut t = LockTable::new();
        let keys: Vec<LockKey> = (0..3).map(key).collect();
        t.try_acquire(5, 1, &keys).unwrap();
        assert_eq!(t.try_acquire(5, 1, &keys).unwrap(), 0, "re-acquire takes nothing new");
        assert_eq!(t.release(5), 3);
        assert!(t.is_empty());
        assert_eq!(t.release(5), 0);
    }

    #[test]
    fn stale_locks_break_only_for_older_epochs() {
        let mut t = LockTable::new();
        t.plant(key(1), Held { tx_id: 1, epoch: 3 });
        t.plant(key(2), Held { tx_id: 2, epoch: 5 });
        assert_eq!(t.break_stale(5), 1, "only the epoch-3 lock is stale");
        assert_eq!(t.holder(&key(2)), Some(Held { tx_id: 2, epoch: 5 }));
    }

    #[test]
    fn verdicts_tolerate_duplicates_and_reorders_but_not_silence() {
        let ps: BTreeSet<u32> = [0, 2, 3].into_iter().collect();
        let yes = |s| VoteMsg { tx_id: 7, shard: s, yes: true };
        let all = vec![yes(3), yes(0), yes(2), yes(0)]; // reordered + duplicated
        assert_eq!(decide(7, &ps, &all), Verdict::Commit);
        let veto = vec![yes(0), VoteMsg { tx_id: 7, shard: 2, yes: false }, yes(3)];
        assert_eq!(decide(7, &ps, &veto), Verdict::Abort);
        let lost = vec![yes(0), yes(3)];
        assert_eq!(decide(7, &ps, &lost), Verdict::Timeout { shard: 2 });
        // A foreign vote must not stand in for a missing one.
        let foreign = vec![yes(0), yes(3), VoteMsg { tx_id: 8, shard: 2, yes: true }];
        assert_eq!(decide(7, &ps, &foreign), Verdict::Timeout { shard: 2 });
    }
}
