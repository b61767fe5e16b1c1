//! End-to-end: a CoSplit-sharded ERC20 token processed across parallel
//! shards must produce exactly the state a sequential execution would —
//! the paper's concurrent-revisions consistency (§1, §4.3).

use chain::address::Address;
use chain::dispatch::Assignment;
use chain::network::{ChainConfig, Network};
use chain::tx::Transaction;
use cosplit_analysis::signature::WeakReads;
use scilla::value::Value;
use std::collections::BTreeMap;

const SHARDED: &[&str] =
    &["Mint", "Burn", "Transfer", "TransferFrom", "IncreaseAllowance", "DecreaseAllowance"];

fn token_source() -> &'static str {
    scilla::corpus::get("FungibleToken").unwrap().source
}

fn contract_addr() -> Address {
    Address::from_index(1_000_000)
}

fn owner() -> Address {
    Address::from_index(999)
}

fn deploy_token(net: &mut Network, with_signature: bool) {
    let params = vec![
        ("contract_owner".to_string(), owner().to_value()),
        ("name".to_string(), Value::Str("Test".into())),
        ("symbol".to_string(), Value::Str("TST".into())),
        ("init_supply".to_string(), Value::Uint(128, 0)),
    ];
    let sharding = with_signature.then_some((SHARDED, WeakReads::AcceptAll));
    net.deploy(contract_addr(), token_source(), params, sharding).unwrap();
}

fn setup(num_shards: u32, use_cosplit: bool, users: u64) -> Network {
    let mut net = Network::new(ChainConfig::evaluation(num_shards, use_cosplit));
    net.fund_account(owner(), 1_000_000_000);
    for i in 0..users {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    deploy_token(&mut net, use_cosplit);
    net
}

fn mint_tx(id: u64, nonce: u64, to: Address, amount: u128) -> Transaction {
    Transaction::call(
        id,
        owner(),
        nonce,
        contract_addr(),
        "Mint",
        vec![("to".into(), to.to_value()), ("amount".into(), Value::Uint(128, amount))],
    )
}

fn transfer_tx(id: u64, sender: Address, nonce: u64, to: Address, amount: u128) -> Transaction {
    Transaction::call(
        id,
        sender,
        nonce,
        contract_addr(),
        "Transfer",
        vec![("to".into(), to.to_value()), ("amount".into(), Value::Uint(128, amount))],
    )
}

fn balance_of(net: &Network, who: Address) -> u128 {
    net.storage_of(&contract_addr())
        .and_then(|s| {
            scilla::state::StateStore::get(s, "balances".into(), &[who.to_value()])
        })
        .and_then(|v| v.as_uint())
        .unwrap_or(0)
}

fn total_supply(net: &Network) -> u128 {
    net.storage_of(&contract_addr())
        .and_then(|s| scilla::state::StateStore::get(s, "total_supply".into(), &[]))
        .and_then(|v| v.as_uint())
        .unwrap_or(0)
}

#[test]
fn sharded_equals_sequential() {
    let users = 40u64;
    // Mint 1000 tokens to each user (committed in an earlier epoch so the
    // weak reads of later transfers see them), then a deterministic
    // pseudo-random transfer pattern where every transfer is guaranteed to
    // succeed: each user sends at most 10 × 25 = 250 < 1000, and a user's
    // outgoing transfers are serialised in the shard owning their balance
    // entry, so stale reads can only *under*-estimate funds by the amounts
    // not yet received.
    let mints: Vec<Transaction> =
        (0..users).map(|i| mint_tx(i + 1, i + 1, Address::from_index(i), 1000)).collect();
    let mut transfers = Vec::new();
    let mut id = 10_000u64;
    let mut nonces: BTreeMap<u64, u64> = (0..users).map(|i| (i, 0)).collect();
    for round in 0..10u64 {
        for i in 0..users {
            let to = (i + 1 + round * 7) % users;
            if to == i {
                continue;
            }
            id += 1;
            let n = nonces.get_mut(&i).unwrap();
            *n += 1;
            transfers.push(transfer_tx(id, Address::from_index(i), *n, Address::from_index(to), 25));
        }
    }

    // Reference: a 1-shard network (everything serial in effect).
    let mut reference = setup(1, true, users);
    let mut pool = mints.clone();
    while !pool.is_empty() {
        reference.run_epoch(&mut pool);
    }
    let mut pool = transfers.clone();
    while !pool.is_empty() {
        reference.run_epoch(&mut pool);
    }

    // Sharded: 5 shards, CoSplit dispatch, real parallel threads.
    let mut sharded = setup(5, true, users);
    let mut pool = mints.clone();
    while !pool.is_empty() {
        sharded.run_epoch(&mut pool);
    }
    let mut pool = transfers.clone();
    let mut committed = 0;
    while !pool.is_empty() {
        let r = sharded.run_epoch(&mut pool);
        committed += r.committed;
        assert_eq!(r.failed, 0, "no transfer should fail: {r:?}");
    }
    assert_eq!(committed, transfers.len());

    for i in 0..users {
        assert_eq!(
            balance_of(&sharded, Address::from_index(i)),
            balance_of(&reference, Address::from_index(i)),
            "balance of user {i} diverged"
        );
    }
    assert_eq!(total_supply(&sharded), total_supply(&reference));
    assert_eq!(total_supply(&sharded), 1000 * users as u128);
}

#[test]
fn transfers_actually_spread_across_shards() {
    let users = 60u64;
    let mut net = setup(4, true, users);
    let mut pool: Vec<Transaction> =
        (0..users).map(|i| mint_tx(i + 1, i + 1, Address::from_index(i), 1000)).collect();
    net.run_epoch(&mut pool);

    let mut pool: Vec<Transaction> = (0..users)
        .map(|i| {
            transfer_tx(1000 + i, Address::from_index(i), 1, Address::from_index((i + 1) % users), 10)
        })
        .collect();
    let report = net.run_epoch(&mut pool);
    let busy_shards = report
        .per_committee
        .iter()
        .filter(|(role, committed, _)| matches!(role, Assignment::Shard(_)) && *committed > 0)
        .count();
    assert!(busy_shards >= 3, "expected parallel shards, got {:?}", report.per_committee);
    assert_eq!(report.committed, users as usize);
}

#[test]
fn self_transfer_is_routed_to_ds_and_preserves_state() {
    let mut net = setup(3, true, 4);
    let alice = Address::from_index(0);
    let mut pool = vec![mint_tx(1, 1, alice, 100)];
    net.run_epoch(&mut pool);

    let mut pool = vec![transfer_tx(2, alice, 1, alice, 40)];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.dispatch_reasons.get("alias"), Some(&1));
    assert_eq!(report.committed, 1);
    assert_eq!(balance_of(&net, alice), 100, "self transfer must be a no-op on the balance");
}

#[test]
fn overdraft_fails_without_corrupting_state() {
    let mut net = setup(3, true, 4);
    let alice = Address::from_index(0);
    let bob = Address::from_index(1);
    let mut pool = vec![mint_tx(1, 1, alice, 50)];
    net.run_epoch(&mut pool);

    let mut pool = vec![transfer_tx(2, alice, 1, bob, 500)];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.failed, 1);
    assert_eq!(balance_of(&net, alice), 50);
    assert_eq!(balance_of(&net, bob), 0);
}

#[test]
fn unselected_transition_goes_to_ds_but_still_works() {
    let mut net = setup(3, true, 4);
    let alice = Address::from_index(0);
    // ChangeMinter is not in the sharded selection.
    let mut pool = vec![Transaction::call(
        1,
        owner(),
        1,
        contract_addr(),
        "ChangeMinter",
        vec![("new_minter".into(), alice.to_value())],
    )];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.dispatch_reasons.get("unselected"), Some(&1));
    assert_eq!(report.committed, 1);
    // New minter can mint.
    let mut pool = vec![Transaction::call(
        2,
        alice,
        1,
        contract_addr(),
        "Mint",
        vec![("to".into(), alice.to_value()), ("amount".into(), Value::Uint(128, 5))],
    )];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.committed, 1, "{report:?}");
    assert_eq!(balance_of(&net, alice), 5);
}

#[test]
fn stale_minter_read_rejected_at_ds_only_when_it_matters() {
    // Mint by a non-minter must fail wherever it executes.
    let mut net = setup(3, true, 4);
    let eve = Address::from_index(2);
    let mut pool = vec![Transaction::call(
        1,
        eve,
        1,
        contract_addr(),
        "Mint",
        vec![("to".into(), eve.to_value()), ("amount".into(), Value::Uint(128, 5))],
    )];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.failed, 1);
    assert_eq!(balance_of(&net, eve), 0);
}

#[test]
fn relaxed_nonces_commit_across_shards() {
    let mut net = setup(4, true, 8);
    let alice = Address::from_index(0);
    // Mint, then transfers with nonces {2,3,4,5} to different recipients —
    // they may land in different shards but must all commit in one epoch.
    let mut pool = vec![mint_tx(1, 1, alice, 1000)];
    net.run_epoch(&mut pool);
    let mut pool: Vec<Transaction> = (2..=5)
        .map(|n| transfer_tx(n, alice, n, Address::from_index(n), 10))
        .collect();
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.committed, 4, "{report:?}");
    // Replays of any of those nonces must fail.
    let mut pool = vec![transfer_tx(99, alice, 3, Address::from_index(7), 1)];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.failed, 1);
}

#[test]
fn baseline_bottlenecks_on_the_contract_shard() {
    let users = 60u64;
    let mut net = setup(4, false, users);
    let mut pool: Vec<Transaction> =
        (0..users).map(|i| mint_tx(i + 1, i + 1, Address::from_index(i), 1000)).collect();
    while !pool.is_empty() {
        net.run_epoch(&mut pool);
    }
    let mut pool: Vec<Transaction> = (0..users)
        .map(|i| {
            transfer_tx(1000 + i, Address::from_index(i), 1, Address::from_index((i + 1) % users), 10)
        })
        .collect();
    let report = net.run_epoch(&mut pool);
    // Everything lands on the contract's home shard or the DS committee.
    for (role, committed, _) in &report.per_committee {
        if *committed > 0 {
            assert!(
                *role == Assignment::Ds || *role == Assignment::Shard(contract_addr().home_shard(4)),
                "baseline leaked work to {role:?}"
            );
        }
    }
}
