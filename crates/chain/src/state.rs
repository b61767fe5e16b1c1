//! Global replicated state: accounts, deployed contracts, contract storage.

use crate::account::Account;
use crate::address::Address;
use cosplit_analysis::analysis::summarize_contract;
use cosplit_analysis::callgraph::ContractCalls;
use cosplit_analysis::conflict::ConflictMatrix;
use cosplit_analysis::effects::TransitionSummary;
use cosplit_analysis::signature::ShardingSignature;
use scilla::interpreter::CompiledContract;
use scilla::state::InMemoryState;
use scilla::value::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A deployed contract: compiled code, immutable parameters, and the
/// (optional) sharding signature accepted at deployment.
#[derive(Debug)]
pub struct DeployedContract {
    /// The contract's account address.
    pub address: Address,
    /// Compiled code (shared across shards).
    pub compiled: CompiledContract,
    /// Immutable deployment parameters.
    pub params: Vec<(String, Value)>,
    /// The validated sharding signature, if one was submitted.
    pub signature: Option<ShardingSignature>,
    /// Lazily derived static effect summaries, shared by every shard's
    /// effect-trace auditor, indexed by transition name for O(log n) lookup.
    /// Derived on first use so chains that never audit pay nothing.
    summaries: RwLock<Option<Arc<SummaryIndex>>>,
    /// Lazily derived pairwise commutativity matrix over the summaries,
    /// consumed by the audit-mode conflict cross-check and the matrix
    /// reports. Follows the same derive-on-first-use discipline.
    conflicts: RwLock<Option<Arc<ConflictMatrix>>>,
    /// Lazily extracted call sites (classified send recipients), consumed
    /// by the interprocedural composition in dispatch and the executor's
    /// send-hop validation. Same derive-on-first-use discipline.
    calls: RwLock<Option<Arc<ContractCalls>>>,
}

/// Derived transition summaries: the ordered list (wire/report order) plus a
/// by-name index built once at derivation, so per-invocation lookups are a
/// map probe returning a shared `Arc` instead of a linear scan plus clone.
#[derive(Debug)]
struct SummaryIndex {
    list: Arc<Vec<TransitionSummary>>,
    by_name: BTreeMap<String, Arc<TransitionSummary>>,
}

impl SummaryIndex {
    fn build(list: Vec<TransitionSummary>) -> SummaryIndex {
        let by_name =
            list.iter().map(|s| (s.name.clone(), Arc::new(s.clone()))).collect();
        SummaryIndex { list: Arc::new(list), by_name }
    }
}

impl DeployedContract {
    /// Packages a contract for deployment.
    pub fn new(
        address: Address,
        compiled: CompiledContract,
        params: Vec<(String, Value)>,
        signature: Option<ShardingSignature>,
    ) -> Self {
        // Deploy-time warm-up: lower every transition now so the first
        // transaction of the contract's life pays no compile cost.
        compiled.precompile();
        DeployedContract {
            address,
            compiled,
            params,
            signature,
            summaries: RwLock::new(None),
            conflicts: RwLock::new(None),
            calls: RwLock::new(None),
        }
    }

    /// Looks up an immutable contract parameter by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The static effect summaries of every transition, derived on demand.
    pub fn summaries(&self) -> Arc<Vec<TransitionSummary>> {
        Arc::clone(&self.summary_index().list)
    }

    /// The static summary of one transition, if it exists. O(log n) via the
    /// name index built at derivation; the returned entry is shared, not
    /// cloned per call.
    pub fn summary(&self, transition: &str) -> Option<Arc<TransitionSummary>> {
        self.summary_index().by_name.get(transition).cloned()
    }

    fn summary_index(&self) -> Arc<SummaryIndex> {
        if let Some(s) = self.summaries.read().expect("summaries lock").as_ref() {
            return Arc::clone(s);
        }
        // Derive outside the write lock; a racing deriver produces the same
        // result, and the first store wins.
        let derived = Arc::new(SummaryIndex::build(summarize_contract(self.compiled.checked())));
        let mut slot = self.summaries.write().expect("summaries lock");
        Arc::clone(slot.get_or_insert(derived))
    }

    /// The pairwise transition-commutativity matrix, derived on demand from
    /// the summaries (so an overridden summary set also rebuilds it).
    pub fn conflict_matrix(&self) -> Arc<ConflictMatrix> {
        if let Some(m) = self.conflicts.read().expect("conflict matrix lock").as_ref() {
            return Arc::clone(m);
        }
        let derived =
            Arc::new(ConflictMatrix::build(&self.address.to_string(), &self.summaries()));
        let mut slot = self.conflicts.write().expect("conflict matrix lock");
        Arc::clone(slot.get_or_insert(derived))
    }

    /// The contract's extracted call sites (classified send recipients),
    /// derived on demand from the checked module and the summaries.
    pub fn call_info(&self) -> Arc<ContractCalls> {
        if let Some(c) = self.calls.read().expect("call info lock").as_ref() {
            return Arc::clone(c);
        }
        let derived =
            Arc::new(ContractCalls::extract(self.compiled.checked(), &self.summaries()));
        let mut slot = self.calls.write().expect("call info lock");
        Arc::clone(slot.get_or_insert(derived))
    }

    /// Test hook: pins the summaries the auditor will check against,
    /// bypassing the analysis — replaces any already-derived set (the world
    /// builders execute setup transitions, which derives summaries before a
    /// test gets hold of the contract). Invalidates the derived conflict
    /// matrix so it is rebuilt from the pinned summaries.
    pub fn override_summaries(&self, summaries: Vec<TransitionSummary>) {
        *self.summaries.write().expect("summaries lock") =
            Some(Arc::new(SummaryIndex::build(summaries)));
        *self.conflicts.write().expect("conflict matrix lock") = None;
        *self.calls.write().expect("call info lock") = None;
    }
}

/// The full replicated state every shard stores (Zilliqa shards execution,
/// not storage — paper §4.1).
#[derive(Debug, Clone, Default)]
pub struct GlobalState {
    /// Protocol accounts.
    pub accounts: BTreeMap<Address, Account>,
    /// Deployed contract code + metadata (immutable once deployed).
    pub contracts: BTreeMap<Address, Arc<DeployedContract>>,
    /// Mutable contract fields, per contract. `Arc`-shared so a per-shard
    /// epoch snapshot is a pointer bump: executors layer a
    /// [`scilla::state::CowState`] overlay over these bases, and the merge
    /// step writes back through `Arc::make_mut` (in place once the shard
    /// views are dropped).
    pub storage: BTreeMap<Address, Arc<InMemoryState>>,
    /// Signature-aware placement overrides: contracts co-located away from
    /// their hash-derived home shard (family co-location along the
    /// cross-contract reroute path). Consulted wherever a *contract*
    /// account is placed — dispatch and the executor's balance slicing must
    /// agree, so both go through [`GlobalState::home_shard_of`]. User
    /// accounts never appear here.
    pub placement: BTreeMap<Address, u32>,
}

impl GlobalState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The balance of an account (0 if absent).
    pub fn balance(&self, addr: &Address) -> u128 {
        self.accounts.get(addr).map(|a| a.balance).unwrap_or(0)
    }

    /// Is the address a contract account?
    pub fn is_contract(&self, addr: &Address) -> bool {
        self.contracts.contains_key(addr)
    }

    /// The shard an account lives in: the placement override if the
    /// deployment co-located it, the address-derived home shard otherwise.
    pub fn home_shard_of(&self, addr: &Address, num_shards: u32) -> u32 {
        match self.placement.get(addr) {
            Some(s) => s % num_shards.max(1),
            None => addr.home_shard(num_shards),
        }
    }

    /// Credits an account, creating it if needed.
    pub fn credit(&mut self, addr: Address, amount: u128) {
        let acc = self.accounts.entry(addr).or_insert_with(|| Account::user(0));
        acc.balance = acc.balance.saturating_add(amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_creates_accounts() {
        let mut s = GlobalState::new();
        let a = Address::from_index(1);
        assert_eq!(s.balance(&a), 0);
        s.credit(a, 100);
        s.credit(a, 50);
        assert_eq!(s.balance(&a), 150);
        assert!(!s.is_contract(&a));
    }
}
