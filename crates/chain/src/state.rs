//! Global replicated state: accounts, deployed contracts, contract storage.

use crate::account::Account;
use crate::address::Address;
use cosplit_analysis::callgraph::ContractCalls;
use cosplit_analysis::effects::TransitionSummary;
use cosplit_analysis::signature::ShardingSignature;
use scilla::interpreter::CompiledContract;
use scilla::state::InMemoryState;
use scilla::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A deployed contract: compiled code, immutable parameters, the
/// (optional) sharding signature accepted at deployment, and what the
/// analysis derived from the code. Everything is fixed at install.
#[derive(Debug)]
pub struct DeployedContract {
    /// The contract's account address.
    pub address: Address,
    /// Compiled code, every transition lowered.
    pub compiled: CompiledContract,
    /// Immutable deployment parameters.
    pub params: Vec<(String, Value)>,
    /// The validated sharding signature, if one was submitted.
    pub signature: Option<ShardingSignature>,
    /// Static effect summaries, one per transition in declaration order:
    /// the reference of every shard's effect-trace auditor.
    summaries: Vec<TransitionSummary>,
    /// Call sites (classified send recipients) extracted from the
    /// summaries, consumed by the interprocedural composition in dispatch
    /// and the executor's send-hop validation.
    calls: ContractCalls,
}

impl DeployedContract {
    /// Packages a contract for deployment with the summaries the analysis
    /// derived from its code, lowering every transition and extracting its
    /// call sites now, so no transaction of the contract's life pays for
    /// either.
    pub fn new(
        address: Address,
        compiled: CompiledContract,
        params: Vec<(String, Value)>,
        signature: Option<ShardingSignature>,
        summaries: Vec<TransitionSummary>,
    ) -> Self {
        compiled.precompile();
        let calls = ContractCalls::extract(compiled.checked(), &summaries);
        DeployedContract { address, compiled, params, signature, summaries, calls }
    }

    /// Looks up an immutable contract parameter by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The static effect summaries of every transition, in declaration
    /// order.
    pub fn summaries(&self) -> &Vec<TransitionSummary> {
        &self.summaries
    }

    /// The static summary of one transition, if it exists.
    pub fn summary(&self, transition: &str) -> Option<&TransitionSummary> {
        self.summaries.iter().find(|s| s.name == transition)
    }

    /// The contract's extracted call sites (classified send recipients).
    pub fn call_info(&self) -> &ContractCalls {
        &self.calls
    }
}

/// The full replicated state every shard stores (Zilliqa shards execution,
/// not storage — paper §4.1).
#[derive(Debug, Clone, Default)]
pub struct GlobalState {
    /// Protocol accounts.
    pub accounts: BTreeMap<Address, Account>,
    /// Deployed contracts. Immutable once installed: no field of a
    /// [`DeployedContract`] can change after [`Network::deploy`] builds it
    /// (test hooks replace the whole entry).
    ///
    /// [`Network::deploy`]: crate::network::Network::deploy
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
