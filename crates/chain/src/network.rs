//! The sharded network: lookup dispatch, parallel shard execution, DS
//! committee merge — one epoch at a time (paper Fig. 10).

use crate::address::Address;
use crate::delta::StateDelta;
use crate::dispatch::{dispatch_policy, xshard_plan, Assignment, ALL_REASONS};
use crate::error::{DeployError, MergeError};
use crate::executor::{self, execute_batch, execute_slice, Executor, ExecutorConfig, MicroBlock};
use crate::executor::{Receipt, TxStatus};
use crate::state::{DeployedContract, GlobalState};
use crate::tx::Transaction;
use crate::xshard::{decide, AbortCause, LockTable, NoFaults, ShardFault, Verdict, VoteMsg};
use crate::xshard::{XShardFaults, XShardStats};
use cosplit_analysis::analysis::summarize_contract;
use cosplit_analysis::effects::TransitionSummary;
use cosplit_analysis::signature::{ShardingSignature, WeakReads};
use cosplit_analysis::solver::AnalyzedContract;
use scilla::interpreter::CompiledContract;
use scilla::state::InMemoryState;
use scilla::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulated wall-clock duration of one epoch (Zilliqa: ≈51 s — the
/// paper's 10 epochs take "roughly 8.5 minutes").
pub const EPOCH_DURATION_SECS: f64 = 51.0;

/// Network-wide protocol parameters.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Number of transaction shards (the DS committee is extra).
    pub num_shards: u32,
    /// Per-shard gas budget per epoch.
    pub shard_gas_limit: u64,
    /// DS-committee gas budget per epoch.
    pub ds_gas_limit: u64,
    /// Use CoSplit signatures for dispatch and delta merging.
    pub use_cosplit: bool,
    /// Enforce the §6 overflow guard.
    pub overflow_guard: bool,
    /// Maximum transactions a lookup node packs into one committee's packet
    /// per epoch (paper Fig. 10: lookups "group several transactions
    /// together in a packet"). Overflow stays in the pool.
    pub max_packet_txs: usize,
    /// §4.2.1 relaxed nonces (false only for the ablation study).
    pub relaxed_nonces: bool,
    /// Run every transition with the effect-trace sanitizer: trace the
    /// concrete footprint and audit it against the static summary and the
    /// sharding discipline. On by default in the scaled-down test/sim
    /// configuration, off in the benchmark configuration.
    pub audit: bool,
    /// Route split-footprint transactions through the S-BAC-style
    /// cross-shard two-phase commit ([`crate::xshard`]) instead of
    /// serialising them at the DS committee. Off by default (plain Zilliqa
    /// routing); the xshard test suite and experiments switch it on.
    pub cross_shard_commit: bool,
    /// Signature-aware placement: a contract deployed with an init
    /// parameter pointing at an existing contract (the cross-contract
    /// reroute path) is co-located with that family root, so fewer of its
    /// transactions are multi-shard in the first place.
    pub colocate_families: bool,
    /// Interprocedural composition ([`cosplit_analysis::callgraph`]):
    /// dispatch composes transition summaries across statically-resolved
    /// cross-contract sends, single-shard chains commit shard-locally, and
    /// shard executors follow validated send hops instead of rerouting
    /// them to the DS committee. Off by default (chains serialise at DS).
    pub compose_calls: bool,
}

impl ChainConfig {
    /// The paper's evaluation setting with a given shard count.
    pub fn evaluation(num_shards: u32, use_cosplit: bool) -> Self {
        ChainConfig {
            num_shards,
            // Calibrated so one shard sustains ≈3600 simple token transfers
            // per epoch (≈70 TPS), matching the magnitude of Fig. 14. The DS
            // committee gets half a shard's budget: it spends part of the
            // epoch collecting MicroBlocks and merging deltas.
            shard_gas_limit: 720_000,
            ds_gas_limit: 360_000,
            use_cosplit,
            overflow_guard: false,
            max_packet_txs: 10_000,
            relaxed_nonces: true,
            audit: false,
            cross_shard_commit: false,
            colocate_families: false,
            compose_calls: false,
        }
    }

    /// A scaled-down configuration for fast (debug-build) tests: ≈200
    /// transfers per shard-epoch.
    pub fn small(num_shards: u32, use_cosplit: bool) -> Self {
        ChainConfig {
            shard_gas_limit: 40_000,
            ds_gas_limit: 20_000,
            audit: true,
            ..ChainConfig::evaluation(num_shards, use_cosplit)
        }
    }
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig::evaluation(3, true)
    }
}

/// What happened during one epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Successfully committed transactions.
    pub committed: usize,
    /// Included but failed transactions.
    pub failed: usize,
    /// Transactions deferred to the next epoch (gas budget exhausted).
    pub deferred: usize,
    /// Committed per committee: (committee, committed, gas used).
    pub per_committee: Vec<(Assignment, usize, u64)>,
    /// Dispatch decisions by reason.
    pub dispatch_reasons: BTreeMap<&'static str, usize>,
    /// Number of state components merged by the DS committee.
    pub merged_components: usize,
    /// Simulated duration of the epoch.
    pub sim_seconds: f64,
    /// All transaction receipts, in per-committee order (shards first, then
    /// the DS committee).
    pub receipts: Vec<Receipt>,
    /// Rendered effect-trace audit violations from every committee (empty
    /// unless `ChainConfig::audit` is set; never empty silently — a
    /// violation means a static summary failed to contain an execution).
    pub audit_violations: Vec<String>,
    /// Shard threads that died this epoch; each one's packet was rerouted
    /// whole to the DS committee.
    pub crashed_shards: usize,
    /// The cross-shard commit stage's protocol counters.
    pub xshard: XShardStats,
    /// Deltas that failed to merge or apply. Impossible under validated
    /// signatures — [`Network::run_epoch`] treats an entry as a bug — and
    /// reported rather than panicked on so the simulation harness can show
    /// a byzantine signature as a divergence.
    pub errors: Vec<String>,
}

/// Per-committee packets formed by the lookup nodes for one epoch
/// (paper Fig. 10: lookups "group several transactions together in a
/// packet"). Plain data between [`Network::form_packets`] and
/// [`Network::run_packets`]: the simulation harness ([`crate::sim`]) injects
/// its delivery faults (reorder, drop, duplicate) by editing it.
#[derive(Debug, Clone, Default)]
pub struct EpochPackets {
    /// One packet per transaction shard.
    pub shard_batches: Vec<Vec<Transaction>>,
    /// The cross-shard commit stage's packet (split-footprint transactions,
    /// only when [`ChainConfig::cross_shard_commit`] is on).
    pub xshard_batch: Vec<Transaction>,
    /// The DS committee's packet.
    pub ds_batch: Vec<Transaction>,
    /// Dispatch decisions by reason, for the epoch report.
    pub dispatch_reasons: BTreeMap<&'static str, usize>,
}

/// The outcome of one epoch's cross-shard commit stage
/// ([`Network::execute_xshard`]).
#[derive(Debug, Clone)]
pub struct XShardBlock {
    /// The stage's executor output (role [`Assignment::XShard`]): receipts
    /// of committed transactions in commit order, and the stage's one delta,
    /// already applied. Aborted and over-budget transactions sit in
    /// `block.deferred` and retry from the pool next epoch.
    pub block: MicroBlock,
    /// Transactions handed to this epoch's DS packet (plan unresolvable, or
    /// the prepare rerouted on a cross-contract call).
    pub ds_fallback: Vec<Transaction>,
    /// Protocol counters for this stage.
    pub stats: XShardStats,
    /// A stage delta that failed to apply — impossible under validated
    /// signatures, surfaced so the sim can report a byzantine one as a
    /// safety violation instead of panicking.
    pub errors: Vec<String>,
}

/// The whole simulated network.
#[derive(Debug)]
pub struct Network {
    config: ChainConfig,
    state: GlobalState,
    block_number: u64,
    /// The cross-shard commit stage's lock table. Persistent across epochs:
    /// a coordinator crash leaves its locks behind, and stale-lock recovery
    /// breaks them at the start of a later epoch.
    lock_table: LockTable,
}

impl Network {
    /// A fresh network with the given configuration.
    pub fn new(config: ChainConfig) -> Self {
        Network { config, state: GlobalState::new(), block_number: 1, lock_table: LockTable::new() }
    }

    /// Read access to the cross-shard lock table (test assertions).
    pub fn lock_table(&self) -> &LockTable {
        &self.lock_table
    }

    /// The network configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Read access to the replicated state.
    pub fn state(&self) -> &GlobalState {
        &self.state
    }

    /// The current block number.
    pub fn block_number(&self) -> u64 {
        self.block_number
    }

    /// Creates/funds a user account.
    pub fn fund_account(&mut self, addr: Address, balance: u128) {
        self.state.credit(addr, balance);
    }

    /// One contract's storage (for assertions in tests/examples).
    pub fn storage_of(&self, addr: &Address) -> Option<&InMemoryState> {
        self.state.storage.get(addr).map(Arc::as_ref)
    }

    /// Bench/test world-builder hook: bulk-writes entries straight into a
    /// deployed contract's map field, bypassing transition execution. The
    /// result is indistinguishable from the equivalent transitions having
    /// run serially in earlier epochs; scaling experiments use it because
    /// pre-populating 100k token holders through `Mint` calls would dominate
    /// setup time. Production state changes must go through transactions.
    pub fn seed_map_field(
        &mut self,
        contract: Address,
        field: &str,
        entries: impl IntoIterator<Item = (Value, Value)>,
    ) {
        use scilla::state::StateStore;
        let storage = Arc::make_mut(self.state.storage.entry(contract).or_default());
        let field = scilla::intern::intern(field);
        for (k, v) in entries {
            storage.set(field, &[k], Some(v));
        }
    }

    /// Deploys a contract, running the full miner validation pipeline:
    /// parse, type-check, and — when a sharding selection is provided —
    /// derive the signature with CoSplit and validate it (paper §4.3).
    ///
    /// # Errors
    ///
    /// Any pipeline failure rejects the deployment; see [`DeployError`].
    pub fn deploy(
        &mut self,
        addr: Address,
        source: &str,
        params: Vec<(String, Value)>,
        sharding: Option<(&[&str], WeakReads)>,
    ) -> Result<(), DeployError> {
        let checked = self.check_source(addr, source)?;
        let (signature, summaries) = match sharding {
            Some((selection, weak_reads)) => {
                let analyzed = AnalyzedContract::analyze(&checked);
                let selection: Vec<String> = selection.iter().map(|s| s.to_string()).collect();
                let submitted = analyzed.query(&selection, &weak_reads);
                // Miner-side validation: re-derive and compare.
                if !analyzed.validate(&submitted) {
                    return Err(DeployError::InvalidSignature);
                }
                (Some(submitted), analyzed.summaries)
            }
            None => (None, summarize_contract(&checked)),
        };
        self.install(addr, checked, params, signature, summaries)
    }

    /// The front half both deployment paths share: the address must be
    /// free, and the source must parse and type-check.
    fn check_source(
        &self,
        addr: Address,
        source: &str,
    ) -> Result<scilla::typechecker::CheckedModule, DeployError> {
        if self.state.contracts.contains_key(&addr) {
            return Err(DeployError::AddressTaken);
        }
        let module = scilla::parser::parse_module(source)?;
        Ok(scilla::typechecker::typecheck(module)?)
    }

    /// The install tail both deployment paths share: compile, initialise
    /// storage, flag the account, place it, and register the contract with
    /// the summaries the analysis derived from `checked`.
    fn install(
        &mut self,
        addr: Address,
        checked: scilla::typechecker::CheckedModule,
        params: Vec<(String, Value)>,
        signature: Option<ShardingSignature>,
        summaries: Vec<TransitionSummary>,
    ) -> Result<(), DeployError> {
        let compiled = CompiledContract::compile(checked)?;
        let fields = compiled.init_fields(&params)?;
        self.state.storage.insert(addr, Arc::new(InMemoryState::from_fields(fields)));
        self.state
            .accounts
            .entry(addr)
            .or_insert_with(crate::account::Account::contract)
            .is_contract = true;
        self.maybe_colocate(addr, &params);
        let deployed = DeployedContract::new(addr, compiled, params, signature, summaries);
        self.state.contracts.insert(addr, Arc::new(deployed));
        Ok(())
    }

    /// Test hook: re-installs a deployed contract with `summaries` in place
    /// of what the analysis derived, and its call sites re-extracted from
    /// them. Code, parameters, signature and storage are kept; the auditor
    /// and the interprocedural composition read the pinned summaries from
    /// then on. Does nothing if no contract lives at `addr`.
    pub fn override_summaries(&mut self, addr: Address, summaries: Vec<TransitionSummary>) {
        let Some(old) = self.state.contracts.get(&addr) else { return };
        let compiled = CompiledContract::compile(old.compiled.checked().clone())
            .expect("the library evaluated once already");
        let deployed = DeployedContract::new(
            addr,
            compiled,
            old.params.clone(),
            old.signature.clone(),
            summaries,
        );
        self.state.contracts.insert(addr, Arc::new(deployed));
    }

    /// Signature-aware placement (`ChainConfig::colocate_families`): a
    /// contract whose init parameters reference an already-deployed
    /// contract will reroute its cross-contract calls to that family root,
    /// so dispatching the two to different shards makes every such call
    /// multi-shard. Pin the new contract to the root's shard instead.
    /// Dispatch ([`crate::dispatch`]) and the executor's balance slicing
    /// both read the override through [`GlobalState::home_shard_of`].
    fn maybe_colocate(&mut self, addr: Address, params: &[(String, Value)]) {
        if !self.config.colocate_families {
            return;
        }
        let n = self.config.num_shards;
        for (_, v) in params {
            let Some(bytes) = v.as_address() else { continue };
            let root = Address(bytes);
            if root != addr && self.state.is_contract(&root) {
                let home = self.state.home_shard_of(&root, n);
                if home != addr.home_shard(n) {
                    self.state.placement.insert(addr, home);
                    telemetry::counter!("chain.network.colocated").inc();
                }
                return;
            }
        }
    }

    /// Deploys a contract with an *arbitrary, unvalidated* sharding
    /// signature, bypassing the §4.3 miner-side re-derivation check.
    ///
    /// This exists solely so the simulation harness and tests can model a
    /// byzantine deployment (a signature the analysis would reject) and
    /// demonstrate that the differential oracle catches the resulting
    /// divergence. Production deployment paths must use [`Network::deploy`].
    ///
    /// # Errors
    ///
    /// Parse, type-check, or field-initialisation failures still reject the
    /// deployment; only signature validation is skipped.
    pub fn deploy_with_signature(
        &mut self,
        addr: Address,
        source: &str,
        params: Vec<(String, Value)>,
        signature: Option<ShardingSignature>,
    ) -> Result<(), DeployError> {
        let checked = self.check_source(addr, source)?;
        let summaries = summarize_contract(&checked);
        self.install(addr, checked, params, signature, summaries)
    }

    /// Lookup-node stage: drains the pool into per-committee packets.
    /// Transactions that do not fit their packet (`max_packet_txs`) are
    /// pushed back into the pool for a later epoch.
    pub fn form_packets(&self, pool: &mut Vec<Transaction>) -> EpochPackets {
        // Both `run_epoch` and the sim harness enter the epoch through this
        // stage, so the flight recorder's epoch tag is advanced here.
        telemetry::trace::begin_epoch(self.block_number);
        let mut packets = EpochPackets {
            shard_batches: (0..self.config.num_shards).map(|_| Vec::new()).collect(),
            ..Default::default()
        };
        let mut held_back: Vec<Transaction> = Vec::new();
        // Decisions by reason, indexed by discriminant (`ALL_REASONS[r as
        // usize] == r`); the report's map is built once, after the loop.
        let mut reasons = [0usize; ALL_REASONS.len()];
        {
            let _span = telemetry::span!("chain.network.phase.dispatch");
            for tx in pool.drain(..) {
                let decision = dispatch_policy(&tx, &self.state, &self.config);
                let packet = match decision.assignment {
                    Assignment::Shard(s) => &mut packets.shard_batches[s as usize],
                    Assignment::XShard => &mut packets.xshard_batch,
                    Assignment::Ds => &mut packets.ds_batch,
                };
                if packet.len() >= self.config.max_packet_txs {
                    // The packet is full; the transaction waits for a later
                    // epoch (and is not counted as dispatched this epoch).
                    telemetry::trace::instant_with(telemetry::names::TX_HELD_BACK, |a| {
                        a.push(("tx", tx.id.into()));
                    });
                    held_back.push(tx);
                    continue;
                }
                reasons[decision.reason as usize] += 1;
                telemetry::trace::instant_with(telemetry::names::TX_DISPATCH, |a| {
                    a.reserve_exact(5);
                    a.push(("tx", tx.id.into()));
                    a.push(("reason", decision.reason.name().into()));
                    a.push(("assign", assignment_label(decision.assignment).into()));
                    if let crate::tx::TxKind::Call { contract, transition, .. } = &tx.kind {
                        a.push(("contract", (*contract).into()));
                        a.push(("transition", self.transition_label(contract, transition)));
                    }
                });
                packet.push(tx);
            }
        }
        packets.dispatch_reasons = ALL_REASONS
            .iter()
            .zip(reasons)
            .filter(|&(_, n)| n > 0)
            .map(|(r, n)| (r.name(), n))
            .collect();
        telemetry::counter!("chain.network.held_back").add(held_back.len() as u64);
        pool.extend(held_back);
        packets
    }

    /// The `transition` attribute of a dispatch record: the deployed
    /// contract's own interned name, so the record formats no text. A call
    /// naming no deployed transition (it will fail) carries its name as
    /// owned text.
    fn transition_label(&self, contract: &Address, name: &str) -> telemetry::trace::AttrValue {
        let deployed = self.state.contracts.get(contract);
        deployed
            .and_then(|c| c.compiled.contract().transition(name))
            .map_or_else(|| name.to_owned().into(), |t| t.name.sym.as_str().into())
    }

    /// The executor configuration one transaction shard runs with this
    /// epoch.
    pub fn shard_executor_config(&self, shard: u32) -> ExecutorConfig {
        self.executor_config(Assignment::Shard(shard))
    }

    /// What every role's executor takes from the chain configuration; the
    /// role decides the gas budget, and the executor reads it for whether
    /// the §6 overflow guard applies and whether contract messages may run.
    fn executor_config(&self, role: Assignment) -> ExecutorConfig {
        let c = &self.config;
        ExecutorConfig {
            role,
            num_shards: c.num_shards,
            gas_limit: if role == Assignment::Ds { c.ds_gas_limit } else { c.shard_gas_limit },
            block_number: self.block_number,
            use_cosplit: c.use_cosplit,
            overflow_guard: c.overflow_guard,
            audit: c.audit,
            compose_calls: c.compose_calls,
        }
    }

    /// Cross-shard commit stage (paper's DS choke point, replaced by an
    /// S-BAC-style two-phase commit — see [`crate::xshard`]): runs between
    /// the delta merge and DS execution, one coordinator per transaction and
    /// one executor for the whole packet, as the DS committee runs its own.
    ///
    /// Stale locks break first. Per transaction: resolve the lock plan from
    /// the signature's constraints, have every participant take its locks
    /// in global key order, prepare with the effects left open, collect
    /// votes (through the fault hooks), then commit the prepare or roll it
    /// back, and release. One delta is applied after the loop; a failed
    /// apply lands in `errors`. Unresolvable plans and rerouting prepares
    /// fall back to this epoch's DS packet.
    pub fn execute_xshard(
        &mut self,
        batch: Vec<Transaction>,
        faults: &mut dyn XShardFaults,
    ) -> XShardBlock {
        let _span = telemetry::span!("chain.network.phase.xshard");
        let epoch = self.block_number;
        let mut stats = XShardStats {
            stale_locks_broken: self.lock_table.break_stale(epoch),
            ..Default::default()
        };
        // A coordinator works the full balances of the accounts its locks
        // pin (like DS), but cross-contract messages still reroute: chained
        // calls escape the lock plan, so only the DS committee may run them.
        let cfg = self.executor_config(Assignment::XShard);
        // An epoch without cross-shard traffic runs no batch.
        let batch_span = (!batch.is_empty()).then(|| executor::batch_span(&cfg, batch.len()));
        let mut exec = Executor::new(&cfg, &self.state);
        let mut ds_fallback: Vec<Transaction> = Vec::new();

        for tx in batch {
            // Stage gas budget: a shard packet's admission rule, except that
            // a transaction which fits may follow one which did not.
            if exec.over_budget(&tx) {
                exec.defer(tx);
                continue;
            }

            // Coordinator resolves the lock plan. The pool may have been
            // mutated between dispatch and this stage (sim faults), so a
            // failed resolution degrades to DS routing, with the reason.
            let plan = match xshard_plan(&tx, &self.state, &self.config) {
                Ok(p) => p,
                Err(reason) => {
                    stats.ds_fallback += 1;
                    telemetry::trace::instant_with(telemetry::names::TX_XSHARD_ABORT, |a| {
                        a.push(("tx", tx.id.into()));
                        a.push(("cause", format!("ds-fallback:{}", reason.name()).into()));
                    });
                    ds_fallback.push(tx);
                    continue;
                }
            };

            // Fault hook: a lock leaked by an unrecovered crash sits on the
            // transaction's first key (broken by `break_stale` next epoch).
            if faults.plant_stale_lock(epoch, &tx) {
                if let Some((_, key)) = plan.locks.first() {
                    self.lock_table.plant(
                        key.clone(),
                        crate::xshard::Held {
                            tx_id: u64::MAX - tx.id,
                            epoch: epoch.saturating_sub(1),
                        },
                    );
                }
            }

            telemetry::trace::instant_with(telemetry::names::TX_XSHARD_PREPARE, |a| {
                a.push(("tx", tx.id.into()));
                a.push(("coordinator", plan.coordinator.into()));
                a.push(("participants", plan.participants.len().into()));
            });

            // Phase 1a: every participant takes its lock subset, in global
            // key order (deterministic and deadlock-free). All-or-nothing
            // per participant; a conflict aborts the whole transaction and
            // releases exactly what was acquired.
            let mut lock_ok = true;
            for &p in &plan.participants {
                if self.lock_table.try_acquire(tx.id, epoch, plan.locks_of(p)).is_err() {
                    stats.lock_wait += 1;
                    lock_ok = false;
                    break;
                }
            }

            // Phase 1b: prepare in the stage's executor, on the merged state
            // plus every earlier commit of this stage. Its effects stay open
            // until the decision, so an abort rolls them back.
            let mut votes: Vec<VoteMsg> = Vec::new();
            let mut prepared = None;
            if lock_ok {
                let open = exec.prepare(&tx);
                if open.rerouted() {
                    // Cross-contract call: outside the lock plan; only the
                    // DS committee may chain calls. Release and hand over.
                    exec.rollback(open);
                    self.lock_table.release(tx.id);
                    stats.ds_fallback += 1;
                    telemetry::trace::instant_with(telemetry::names::TX_XSHARD_ABORT, |a| {
                        a.push(("tx", tx.id.into()));
                        a.push(("cause", "ds-fallback:rerouted".into()));
                    });
                    ds_fallback.push(tx);
                    continue;
                }
                stats.prepared += 1;
                for &p in &plan.participants {
                    let yes = !faults.prepare_panic(epoch, &tx, p);
                    telemetry::trace::instant_with(telemetry::names::TX_XSHARD_VOTE, |a| {
                        a.push(("tx", tx.id.into()));
                        a.push(("shard", p.into()));
                        a.push(("yes", yes.into()));
                    });
                    votes.push(VoteMsg { tx_id: tx.id, shard: p, yes });
                }
                prepared = Some(open);
            }

            // Fault hook: the coordinator dies between prepare and commit.
            // Its locks stay behind (stale) and the transaction retries
            // after recovery breaks them.
            if faults.coordinator_crash(epoch, &tx) {
                if let Some(open) = prepared {
                    exec.rollback(open);
                }
                stats.coordinator_crashes += 1;
                stats.aborted += 1;
                telemetry::trace::instant_with(telemetry::names::TX_XSHARD_ABORT, |a| {
                    a.push(("tx", tx.id.into()));
                    a.push(("cause", AbortCause::CoordinatorCrash.name().into()));
                });
                exec.deferred.push(tx);
                continue;
            }

            // Phase 2: the vote messages cross shard boundaries — the only
            // traffic that does — and the fault plan may drop, duplicate,
            // or reorder them in transit.
            let sent = votes.len();
            let delivered = faults.deliver_votes(epoch, &tx, votes);
            stats.duplicate_votes += delivered.len().saturating_sub(sent);

            let cause = match prepared {
                None => AbortCause::LockBusy,
                Some(open) => match decide(tx.id, &plan.participants, &delivered) {
                    Verdict::Commit => {
                        exec.commit(&tx, open);
                        self.lock_table.release(tx.id);
                        stats.committed += 1;
                        telemetry::trace::instant_with(telemetry::names::TX_XSHARD_COMMIT, |a| {
                            a.push(("tx", tx.id.into()));
                            a.push(("coordinator", plan.coordinator.into()));
                        });
                        continue;
                    }
                    verdict => {
                        exec.rollback(open);
                        if matches!(verdict, Verdict::Timeout { .. }) {
                            AbortCause::LostVote
                        } else {
                            AbortCause::ParticipantVeto
                        }
                    }
                },
            };
            self.lock_table.release(tx.id);
            stats.aborted += 1;
            telemetry::trace::instant_with(telemetry::names::TX_XSHARD_ABORT, |a| {
                a.push(("tx", tx.id.into()));
                a.push(("cause", cause.name().into()));
            });
            exec.deferred.push(tx);
        }

        let block = exec.finish();
        if let Some(_batch) = batch_span {
            executor::record_batch_metrics(&block);
        }
        // Impossible under validated signatures; surfaced, not panicked on,
        // so the sim can report a byzantine one as a safety violation.
        let errors = match block.delta.apply(&mut self.state) {
            Ok(()) => Vec::new(),
            Err(e) => vec![format!("xshard apply failed: {e:?}")],
        };

        if telemetry::enabled() {
            telemetry::counter!(telemetry::names::XSHARD_PREPARED).add(stats.prepared as u64);
            telemetry::counter!(telemetry::names::XSHARD_COMMITTED).add(stats.committed as u64);
            telemetry::counter!(telemetry::names::XSHARD_ABORTED).add(stats.aborted as u64);
            telemetry::counter!(telemetry::names::XSHARD_LOCK_WAIT).add(stats.lock_wait as u64);
            telemetry::counter!(telemetry::names::XSHARD_DS_FALLBACK).add(stats.ds_fallback as u64);
            telemetry::counter!(telemetry::names::XSHARD_STALE_BROKEN)
                .add(stats.stale_locks_broken as u64);
        }
        XShardBlock { block, ds_fallback, stats, errors }
    }

    /// The executor configuration the DS committee runs with this epoch.
    pub fn ds_executor_config(&self) -> ExecutorConfig {
        self.executor_config(Assignment::Ds)
    }

    /// Shard stage: executes the per-shard packets in parallel on the
    /// epoch-start snapshot, one OS thread per shard. A shard whose thread
    /// dies yields a micro-block with an empty delta whose `rerouted` is its
    /// whole packet (counted in `chain.network.shard_crashes`).
    pub fn execute_shards(&self, shard_batches: Vec<Vec<Transaction>>) -> Vec<MicroBlock> {
        self.execute_shards_with(shard_batches, &mut NoFaults).0
    }

    /// [`Network::execute_shards`] under fault hooks; also returns how many
    /// shard threads died.
    fn execute_shards_with(
        &self,
        shard_batches: Vec<Vec<Transaction>>,
        faults: &mut dyn XShardFaults,
    ) -> (Vec<MicroBlock>, usize) {
        let snapshot = &self.state;
        let _span = telemetry::span!("chain.network.phase.shard_exec");
        // Shard threads start with an empty span stack; hand them this
        // phase's span id so their batch spans nest under it.
        let parent = _span.trace_id();
        let plans: Vec<(ExecutorConfig, ShardFault)> = shard_batches
            .iter()
            .enumerate()
            .map(|(s, batch)| {
                let mut cfg = self.shard_executor_config(s as u32);
                let fault = faults.shard_fault(self.block_number, s as u32);
                if fault == ShardFault::GasCollapse {
                    // Never below the packet's largest admissible
                    // transaction: a collapsed budget defers; it must not
                    // make the executor fail what the real budget admits.
                    let admissible =
                        batch.iter().map(|t| t.gas_limit).filter(|g| *g <= cfg.gas_limit);
                    cfg.gas_limit = (cfg.gas_limit / 8).max(admissible.max().unwrap_or(1));
                }
                (cfg, fault)
            })
            .collect();
        // The threads borrow their packets; an owned packet moves only into
        // a dead shard's `rerouted`.
        let joined: Vec<std::thread::Result<MicroBlock>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_batches
                .iter()
                .zip(&plans)
                .map(|(batch, (cfg, fault))| {
                    scope.spawn(move || {
                        let _adopt = telemetry::trace::adopt_parent(parent);
                        if *fault == ShardFault::Crash {
                            // Partial work is lost with the unwind: nothing
                            // global was mutated, blocks are built on the
                            // epoch-start snapshot. (`resume_unwind` skips
                            // the panic hook; a real panic still reports.)
                            let _ = execute_slice(cfg, snapshot, &batch[..batch.len() / 2]);
                            std::panic::resume_unwind(Box::new("injected shard crash"));
                        }
                        execute_slice(cfg, snapshot, batch)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut crashed = 0;
        let blocks = joined
            .into_iter()
            .zip(shard_batches)
            .enumerate()
            .map(|(s, (block, batch))| {
                block.unwrap_or_else(|_| {
                    crashed += 1;
                    telemetry::counter!(telemetry::names::SHARD_CRASHES).inc();
                    MicroBlock { rerouted: batch, ..MicroBlock::empty(Assignment::Shard(s as u32)) }
                })
            })
            .collect();
        (blocks, crashed)
    }

    /// DS merge stage: combines the shards' state deltas and applies the
    /// result to the replicated state. Returns the number of merged state
    /// components.
    ///
    /// # Errors
    ///
    /// [`MergeError`] when two deltas overwrite the same component or an
    /// integer component leaves its range — impossible under correct
    /// ownership dispatch, and surfaced (rather than panicking) so the
    /// simulation harness can report byzantine signatures as divergences.
    pub fn merge_shard_deltas(&mut self, microblocks: &[MicroBlock]) -> Result<usize, MergeError> {
        let _span = telemetry::span!("chain.network.phase.merge");
        // The join is checked first, so a conflict leaves the state as it
        // was; then the micro-blocks' deltas are grafted straight into it,
        // with no merged delta built in between.
        let deltas: Vec<&StateDelta> = microblocks.iter().map(|mb| &mb.delta).collect();
        StateDelta::check(&deltas).inspect_err(|_| {
            telemetry::counter!("chain.network.merge_conflicts").inc();
        })?;
        let components = StateDelta::graft(&deltas, &mut self.state)?;
        telemetry::histogram!("chain.network.merged_components", telemetry::SIZE_BUCKETS)
            .record(components as u64);
        Ok(components)
    }

    /// DS execution stage: processes the DS packet (leftovers plus shard
    /// reroutes) sequentially on the merged state and applies its delta.
    ///
    /// # Errors
    ///
    /// [`MergeError::DeltaOutOfRange`] if the DS delta cannot be applied.
    pub fn execute_ds(&mut self, ds_batch: Vec<Transaction>) -> Result<MicroBlock, MergeError> {
        let ds_cfg = self.ds_executor_config();
        let _span = telemetry::span!("chain.network.phase.ds_exec");
        let block = execute_batch(&ds_cfg, &self.state, ds_batch);
        block.delta.apply(&mut self.state)?;
        Ok(block)
    }

    /// Finishes an epoch: bumps the block number and the epoch counter.
    pub fn advance_block(&mut self) {
        telemetry::counter!("chain.network.epochs").inc();
        self.block_number += 1;
    }

    /// Runs one epoch over the pending pool: [`Network::form_packets`], then
    /// [`Network::run_packets`] fault-free. Deferred transactions are
    /// returned to the pool.
    ///
    /// # Panics
    ///
    /// If a delta fails to merge or apply: ownership dispatch and the
    /// cross-shard locks preclude it, so it is a bug in this program.
    pub fn run_epoch(&mut self, pool: &mut Vec<Transaction>) -> EpochReport {
        let mut _epoch_span = telemetry::span!("chain.network.epoch_duration");
        _epoch_span.attr("epoch", self.block_number);
        let packets = self.form_packets(pool);
        let report = self.run_packets(packets, pool, &mut NoFaults);
        assert!(
            report.errors.is_empty(),
            "ownership dispatch and locks preclude merge and apply conflicts: {:?}",
            report.errors
        );
        report
    }

    /// Everything after the lookup stage, the only composition of the
    /// stages: parallel shard execution → delta merge → cross-shard commits
    /// → DS committee execution → accounting. Deferred transactions go back
    /// into `pool` and the block number advances. Merge and apply failures
    /// land in [`EpochReport::errors`]; the epoch still completes.
    ///
    /// [`Network::run_epoch`] calls this fault-free; the simulation harness
    /// ([`crate::sim`]) edits the packets first and passes its plan's hooks.
    pub fn run_packets(
        &mut self,
        packets: EpochPackets,
        pool: &mut Vec<Transaction>,
        faults: &mut dyn XShardFaults,
    ) -> EpochReport {
        let EpochPackets { shard_batches, xshard_batch, mut ds_batch, dispatch_reasons } = packets;
        let mut report = EpochReport {
            sim_seconds: EPOCH_DURATION_SECS,
            dispatch_reasons,
            ..Default::default()
        };

        // --- Shards execute their packets in parallel on the epoch-start
        // snapshot.
        let (mut microblocks, crashed) = self.execute_shards_with(shard_batches, faults);
        report.crashed_shards = crashed;

        // --- DS committee: merge the state deltas…
        match self.merge_shard_deltas(&microblocks) {
            Ok(components) => report.merged_components = components,
            Err(e) => report.errors.push(format!("delta merge failed: {e:?}")),
        }

        // --- Cross-shard two-phase commits run on the merged state.
        let xshard = self.execute_xshard(xshard_batch, faults);
        report.xshard = xshard.stats;
        report.errors.extend(xshard.errors);
        ds_batch.extend(xshard.ds_fallback);

        // …then process its own packet (plus reroutes, a dead shard's whole
        // packet among them) sequentially on the merged state.
        for mb in &mut microblocks {
            ds_batch.append(&mut mb.rerouted);
        }
        let ds_block = match self.execute_ds(ds_batch) {
            Ok(block) => Some(block),
            Err(e) => {
                report.errors.push(format!("ds apply failed: {e:?}"));
                None
            }
        };

        // --- Accounting. Receipt order is the witness serialization: shard
        // commits, then cross-shard commits, then DS commits.
        for mb in microblocks.into_iter().chain([xshard.block]).chain(ds_block) {
            let committed = mb.committed();
            report.committed += committed;
            report.failed +=
                mb.receipts.iter().filter(|r| matches!(r.status, TxStatus::Failed(_))).count();
            report.deferred += mb.deferred.len();
            report.per_committee.push((mb.role, committed, mb.gas_used));
            report.receipts.extend(mb.receipts);
            report.audit_violations.extend(mb.audit_violations.iter().map(ToString::to_string));
            pool.extend(mb.deferred);
        }
        self.advance_block();
        report
    }

    /// Runs `epochs` epochs, returning all reports.
    pub fn run_epochs(&mut self, pool: &mut Vec<Transaction>, epochs: usize) -> Vec<EpochReport> {
        (0..epochs).map(|_| self.run_epoch(pool)).collect()
    }
}

/// Trace-attribute label for a committee assignment (`"ds"`, `"xshard"`,
/// `"shard<i>"`). A shard's label is interned the first time this thread
/// asks for it and cached per thread after that, so a label never
/// allocates once warm, for any shard count.
pub fn assignment_label(a: Assignment) -> &'static str {
    thread_local! {
        static SHARD_LABELS: std::cell::RefCell<Vec<&'static str>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    match a {
        Assignment::Shard(s) => SHARD_LABELS.with(|labels| {
            let mut labels = labels.borrow_mut();
            let s = s as usize;
            while labels.len() <= s {
                let next = labels.len();
                labels.push(scilla::intern::intern(&format!("shard{next}")).as_str());
            }
            labels[s]
        }),
        Assignment::XShard => "xshard",
        Assignment::Ds => "ds",
    }
}

/// Aggregate throughput in transactions per (simulated) second.
pub fn throughput(reports: &[EpochReport]) -> f64 {
    let committed: usize = reports.iter().map(|r| r.committed).sum();
    let seconds: f64 = reports.iter().map(|r| r.sim_seconds).sum();
    if seconds == 0.0 {
        0.0
    } else {
        committed as f64 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CrashShard(u32);

    impl XShardFaults for CrashShard {
        fn shard_fault(&mut self, _epoch: u64, shard: u32) -> ShardFault {
            if shard == self.0 {
                ShardFault::Crash
            } else {
                ShardFault::None
            }
        }
    }

    #[test]
    fn a_dead_shard_thread_reroutes_its_whole_packet() {
        let mut net = Network::new(ChainConfig::small(3, true));
        for i in 0..12 {
            net.fund_account(Address::from_index(i), 1_000_000);
        }
        let mut pool: Vec<Transaction> = (0..12)
            .map(|i| {
                let (from, to) = (Address::from_index(i), Address::from_index((i + 1) % 12));
                Transaction::payment(i + 1, from, 1, to, 100)
            })
            .collect();
        let packets = net.form_packets(&mut pool).shard_batches;
        assert!(packets.iter().all(|p| !p.is_empty()), "every shard has work to lose");

        let (blocks, crashed) = net.execute_shards_with(packets.clone(), &mut CrashShard(1));
        assert_eq!(crashed, 1);
        for (shard, (block, packet)) in blocks.iter().zip(&packets).enumerate() {
            assert_eq!(block.role, Assignment::Shard(shard as u32));
            if shard == 1 {
                assert!(block.delta.is_empty(), "the half-run prefix left nothing behind");
                assert!(block.receipts.is_empty() && block.deferred.is_empty());
                assert_eq!(block.rerouted, *packet);
            } else {
                assert_eq!(block.committed(), packet.len());
                assert!(block.rerouted.is_empty());
            }
        }
    }
}
