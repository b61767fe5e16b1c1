//! Focused executor tests: balance slices (§4.2.2), transaction rollback
//! atomicity, gas budgeting/deferral, the §6 overflow guard, hostile
//! transaction fields, and the zero-CoW-break gate on the epoch pipeline.

use chain::address::Address;
use chain::dispatch::Assignment;
use chain::executor::{execute_batch, ExecutorConfig, RerouteCause, TxStatus};
use chain::network::{ChainConfig, Network};
use chain::state::GlobalState;
use chain::tx::Transaction;
use cosplit_analysis::signature::WeakReads;
use scilla::state::StateStore;
use scilla::value::Value;

fn cfg(role: Assignment, num_shards: u32) -> ExecutorConfig {
    ExecutorConfig {
        role,
        num_shards,
        gas_limit: 1_000_000,
        block_number: 5,
        use_cosplit: true,
        overflow_guard: false,
        audit: true,
        compose_calls: false,
    }
}

#[test]
fn payment_in_away_shard_is_limited_to_the_slice() {
    let mut state = GlobalState::new();
    let alice = Address::from_index(1);
    let bob = Address::from_index(2);
    state.credit(alice, 1_000_000);

    let num_shards = 4;
    let away = (0..num_shards).find(|s| *s != alice.home_shard(num_shards)).unwrap();

    // The away-slice is base/(4n) = 62_500; a larger payment must fail there…
    let tx = Transaction::payment(1, alice, 1, bob, 100_000);
    let mb = execute_batch(&cfg(Assignment::Shard(away), num_shards), &state, vec![tx.clone()]);
    assert!(matches!(&mb.receipts[0].status, TxStatus::Failed(m) if m.contains("slice")));

    // …but succeed in the home shard, which holds the large fraction.
    let home = alice.home_shard(num_shards);
    let mb = execute_batch(&cfg(Assignment::Shard(home), num_shards), &state, vec![tx]);
    assert_eq!(mb.receipts[0].status, TxStatus::Success);
    assert_eq!(mb.delta.balances[&bob], 100_000);
}

#[test]
fn slices_of_one_account_never_oversubscribe_the_balance() {
    let mut state = GlobalState::new();
    let alice = Address::from_index(1);
    state.credit(alice, 1_000_000);
    let num_shards = 5;

    // Spend the *whole slice* in every shard concurrently; the summed
    // debits must not exceed the balance.
    let mut total_spent: i128 = 0;
    for s in 0..num_shards {
        let mut spent_here = 0u128;
        // Binary-search-free approach: try payments of decreasing size.
        for amount in [900_000u128, 500_000, 100_000, 50_000, 10_000, 1_000] {
            let tx = Transaction::payment(
                u64::from(s) * 100 + amount as u64 % 97,
                alice,
                u64::from(s) + 1,
                Address::from_index(99),
                amount,
            );
            let mb = execute_batch(&cfg(Assignment::Shard(s), num_shards), &state, vec![tx]);
            if mb.receipts[0].status == TxStatus::Success {
                spent_here += amount;
                total_spent += mb.delta.balances.get(&alice).copied().unwrap_or(0).abs();
                break;
            }
        }
        let _ = spent_here;
    }
    assert!(
        total_spent <= 1_000_000,
        "parallel slices overspent the balance: {total_spent}"
    );
}

#[test]
fn failed_transaction_rolls_back_but_still_pays_gas() {
    // Build a network to get a deployed contract + storage conveniently.
    let mut net = Network::new(ChainConfig::evaluation(1, true));
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000);
    let contract = Address::from_index(50);
    let src = r#"
        contract C ()
        field n : Uint128 = Uint128 7
        transition SetThenThrow (v : Uint128)
          n := v;
          throw
        end
    "#;
    net.deploy(contract, src, vec![], Some((&["SetThenThrow"], WeakReads::AcceptAll))).unwrap();

    let balance_before = net.state().balance(&user);
    let mut pool = vec![Transaction::call(
        1,
        user,
        1,
        contract,
        "SetThenThrow",
        vec![("v".into(), Value::Uint(128, 999))],
    )];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.failed, 1);
    // The write rolled back…
    assert_eq!(net.storage_of(&contract).unwrap().get("n".into(), &[]), Some(Value::Uint(128, 7)));
    // …but gas was charged.
    assert!(net.state().balance(&user) < balance_before);
}

/// A failed insert leaves nothing behind (§3.1): rolling back
/// `m[_sender][k] := v` must also remove the `m[_sender]` map the write
/// made, or a later transaction of the same batch sees it.
#[test]
fn a_failed_insert_leaves_no_map_behind() {
    let mut net = Network::new(ChainConfig::evaluation(1, true));
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000);
    let contract = Address::from_index(60);
    let src = r#"
        contract C ()
        field m : Map ByStr20 (Map Uint32 Uint32) = Emp ByStr20 (Map Uint32 Uint32)
        transition Put (k : Uint32)
          v = Uint32 1;
          m[_sender][k] := v;
          throw
        end
        transition Look ()
          present <- exists m[_sender];
          e = {_eventname : "Looked"; present : present};
          event e
        end
    "#;
    net.deploy_with_signature(contract, src, vec![], None).unwrap();
    let k = vec![("k".into(), Value::Uint(32, 7))];
    let put = Transaction::call(1, user, 1, contract, "Put", k);
    let look = Transaction::call(2, user, 2, contract, "Look", vec![]);
    let mb = execute_batch(&cfg(Assignment::Ds, 1), net.state(), vec![put, look]);
    assert!(matches!(mb.receipts[0].status, TxStatus::Failed(_)));
    assert_eq!(mb.receipts[1].status, TxStatus::Success);
    let Value::Msg(event) = &mb.receipts[1].events[0] else { panic!("expected an event") };
    assert_eq!(event.get(&"present".into()), Some(&Value::bool(false)));
}

/// A map that insert-then-delete made survives the merge: after
/// `m[_sender][k] := v; delete m[_sender][k]`, `exists m[_sender]` reads
/// the same later in the batch as in the next epoch, over the applied delta.
#[test]
fn an_insert_then_delete_keeps_its_map_across_epochs() {
    let mut net = Network::new(ChainConfig::evaluation(1, true));
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000);
    let contract = Address::from_index(60);
    let src = r#"
        contract C ()
        field m : Map ByStr20 (Map Uint32 Uint32) = Emp ByStr20 (Map Uint32 Uint32)
        transition Put (k : Uint32)
          v = Uint32 1;
          m[_sender][k] := v;
          delete m[_sender][k]
        end
        transition Look ()
          present <- exists m[_sender];
          e = {_eventname : "Looked"; present : present};
          event e
        end
    "#;
    net.deploy_with_signature(contract, src, vec![], None).unwrap();
    let k = vec![("k".into(), Value::Uint(32, 7))];
    let put = |id| Transaction::call(id, user, id, contract, "Put", k.clone());
    let look = |id| Transaction::call(id, user, id, contract, "Look", vec![]);
    let present = |mb: &chain::executor::MicroBlock| {
        let receipt = mb.receipts.last().unwrap();
        assert_eq!(receipt.status, TxStatus::Success);
        let Value::Msg(event) = &receipt.events[0] else { panic!("expected an event") };
        event.get(&"present".into()).cloned()
    };

    let same_batch = execute_batch(&cfg(Assignment::Ds, 1), net.state(), vec![put(1), look(2)]);
    let mb = execute_batch(&cfg(Assignment::Ds, 1), net.state(), vec![put(1)]);
    assert_eq!(mb.receipts[0].status, TxStatus::Success);
    let mut state = net.state().clone();
    mb.delta.apply(&mut state).unwrap();
    let next_epoch = execute_batch(&cfg(Assignment::Ds, 1), &state, vec![look(2)]);
    assert_eq!(present(&same_batch), Some(Value::bool(true)), "as a plain store reads");
    assert_eq!(present(&next_epoch), present(&same_batch));
}

/// Hostile field (a): an amount of `u128::MAX` must not wrap past the slice
/// check into a "successful" payment that debits the *recipient*.
#[test]
fn payment_amount_at_the_integer_limit_fails_and_touches_nobody_else() {
    let mut state = GlobalState::new();
    let (alice, bob) = (Address::from_index(1), Address::from_index(2));
    state.credit(alice, 1_000_000);
    state.credit(bob, 10);

    let tx = Transaction::payment(1, alice, 1, bob, u128::MAX);
    let mb = execute_batch(&cfg(Assignment::Ds, 1), &state, vec![tx]);
    assert!(
        matches!(&mb.receipts[0].status, TxStatus::Failed(m) if m.contains("slice")),
        "{:?}",
        mb.receipts
    );
    assert_eq!(mb.delta.balances.get(&bob), None, "a third party's balance moved");
    assert_eq!(mb.delta.balances[&alice], -i128::from(mb.receipts[0].gas_used), "gas only");
}

/// Hostile field (b): a `gas_limit` of `u64::MAX` behind a committed
/// transaction must not overflow the admission sum.
#[test]
fn gas_limit_at_the_integer_limit_is_refused_not_summed() {
    let mut state = GlobalState::new();
    let alice = Address::from_index(1);
    state.credit(alice, u128::MAX / 2);

    let honest = Transaction::payment(1, alice, 1, Address::from_index(2), 1);
    let evil = Transaction {
        gas_limit: u64::MAX,
        ..Transaction::payment(2, alice, 2, Address::from_index(2), 1)
    };
    let mb = execute_batch(&cfg(Assignment::Ds, 1), &state, vec![honest, evil]);
    assert_eq!(mb.receipts[0].status, TxStatus::Success);
    assert!(matches!(&mb.receipts[1].status, TxStatus::Failed(m) if m.contains("budget")));
    assert_eq!(mb.receipts[1].gas_used, 0);
    assert!(mb.deferred.is_empty());
}

/// Hostile field (c): a `gas_price` whose fee products overflow — the
/// reservation (`gas_limit · price`) and, with a zero `gas_limit` that
/// reserves nothing, the charge for a payment's flat gas.
#[test]
fn gas_price_that_overflows_the_fee_cannot_reserve_gas() {
    let mut state = GlobalState::new();
    let alice = Address::from_index(1);
    state.credit(alice, u128::MAX / 2);
    let pay = |id, nonce| Transaction::payment(id, alice, nonce, Address::from_index(2), 0);

    let reserve = Transaction { gas_price: u128::MAX / 1000, ..pay(1, 1) };
    let charge = Transaction { gas_limit: 0, gas_price: u128::MAX, ..pay(2, 2) };
    let mb = execute_batch(&cfg(Assignment::Ds, 1), &state, vec![reserve, charge]);
    assert_eq!(mb.receipts[0].status, TxStatus::Failed("cannot reserve gas".into()));
    assert_eq!(mb.receipts[0].gas_used, 0);
    assert_eq!(mb.receipts[1].status, TxStatus::Success, "nothing reserved, nothing refunded");
    assert!(mb.delta.balances.is_empty(), "{:?}", mb.delta.balances);
}

/// Hostile field (e): credits to one account that together pass the
/// `i128` range of its batch delta. The credit is checked like a debit, so
/// the second payment fails with its gas charged, instead of wrapping the
/// recipient's delta negative, failing the merge and destroying both debits.
#[test]
fn credits_past_the_delta_range_fail_the_transaction_not_the_epoch() {
    let mut net = Network::new(ChainConfig::evaluation(1, true));
    let (a, b, c) = (Address::from_index(1), Address::from_index(2), Address::from_index(3));
    let amount = u128::MAX / 10 * 3;
    net.fund_account(a, amount + 1_000_000);
    net.fund_account(b, amount + 1_000_000);
    let native = |net: &Network| net.state().accounts.values().map(|x| x.balance).sum::<u128>();
    let before = native(&net);

    let mut pool =
        vec![Transaction::payment(1, a, 1, c, amount), Transaction::payment(2, b, 1, c, amount)];
    let report = net.run_epoch(&mut pool);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let status: Vec<_> = report.receipts.iter().map(|r| (r.tx_id, &r.status)).collect();
    assert_eq!(status[0], (1, &TxStatus::Success), "{status:?}");
    assert!(matches!(status[1], (2, TxStatus::Failed(m)) if m.contains("overflow")), "{status:?}");
    // Gas price 1: the burn is the gas used.
    let burned: u128 = report.receipts.iter().map(|r| u128::from(r.gas_used)).sum();
    assert_eq!(native(&net) + burned, before);
    assert_eq!(net.state().balance(&c), amount);
}

/// A refund with no room: credits the transaction paid its own sender took
/// the sender's delta near `i128::MAX`, so the refund of unused gas does not
/// fit. The transaction fails, its effects are undone, and then the refund
/// fits, since it returns at most the reserved fee.
#[test]
fn a_refund_with_no_room_fails_its_transaction() {
    let mut net = Network::new(ChainConfig::evaluation(1, true));
    let (backer, whale) = (Address::from_index(1), Address::from_index(2));
    let campaign = Address::from_index(777);
    net.fund_account(backer, 100_000);
    net.deploy(
        campaign,
        scilla::corpus::get("Crowdfunding").unwrap().source,
        vec![
            ("campaign_owner".to_string(), whale.to_value()),
            ("max_block".to_string(), Value::BNum(3)),
            ("goal".to_string(), Value::Uint(128, u128::MAX / 2)),
        ],
        Some((&["Donate", "ClaimBack"], WeakReads::AcceptAll)),
    )
    .unwrap();
    let donate = Transaction::call(1, backer, 1, campaign, "Donate", vec![]).with_amount(5_000);
    assert_eq!(net.run_epoch(&mut vec![donate]).committed, 1);

    // At block 5 the campaign is over and unfunded. The whale's payment
    // (its fee reservation kept small to leave room for it) takes the
    // backer 1 000 below the limit; the ClaimBack's reservation of 10 000
    // makes room for the 5 000 it returns, but not for the refund.
    let mut state = net.state().clone();
    state.credit(whale, u128::MAX / 2);
    let near_max = i128::MAX - 1_000;
    let txs = vec![
        Transaction {
            gas_limit: 1_000,
            ..Transaction::payment(2, whale, 1, backer, near_max as u128)
        },
        Transaction::call(3, backer, 2, campaign, "ClaimBack", vec![]),
    ];
    let mb = execute_batch(&cfg(Assignment::Ds, 1), &state, txs);
    assert_eq!(mb.receipts[0].status, TxStatus::Success);
    assert!(
        matches!(&mb.receipts[1].status, TxStatus::Failed(m) if m.starts_with("balance delta overflow")),
        "{:?}",
        mb.receipts
    );
    assert!(mb.receipts[1].gas_used > 0 && mb.receipts[1].events.is_empty());
    assert_eq!(mb.delta.balances[&backer], near_max - i128::from(mb.receipts[1].gas_used));
    assert_eq!(mb.delta.balances.get(&campaign), None, "the returned donation was undone");
    assert!(!mb.delta.contracts.contains_key(&campaign), "{:?}", mb.delta.contracts);
}

/// Hostile field (d): a transaction whose `gas_limit` exceeds the whole
/// committee budget used to be deferred forever and, re-entering the pool
/// first each epoch, deferred everything behind it forever too.
#[test]
fn a_transaction_no_budget_admits_fails_instead_of_starving_its_packet() {
    use chain::sim::{run_sim, FaultPlan, SimConfig, TxOutcome};
    let mut net = Network::new(ChainConfig::small(2, true));
    let alice = Address::from_index(1);
    net.fund_account(alice, u128::MAX / 2);

    let evil = Transaction {
        gas_limit: 1_000_000,
        ..Transaction::payment(1, alice, 1, Address::from_index(2), 1)
    };
    let honest = Transaction::payment(2, alice, 2, Address::from_index(2), 1);
    let mut pool = vec![evil, honest];
    let r = run_sim(&mut net, &mut pool, &SimConfig::new(1), &FaultPlan::none());
    assert!(r.drained, "epochs={} outcomes={:?}", r.epochs, r.outcomes);
    assert!(matches!(&r.outcomes[&1], TxOutcome::Failed(m) if m.contains("budget")));
    assert!(matches!(&r.outcomes[&2], TxOutcome::Success { .. }));
}

#[test]
fn gas_budget_defers_the_tail_of_the_batch() {
    let mut state = GlobalState::new();
    let alice = Address::from_index(1);
    state.credit(alice, u128::MAX / 2);
    let home = alice.home_shard(1);

    let mut config = cfg(Assignment::Shard(home), 1);
    // Admission checks actual usage so far plus the next tx's gas_limit
    // (5_000): 50·k + 5_000 > 5_200 first holds at k = 5.
    config.gas_limit = 5_200;
    let txs: Vec<Transaction> = (0..10)
        .map(|i| Transaction::payment(i, alice, i + 1, Address::from_index(2), 1))
        .collect();
    let mb = execute_batch(&config, &state, txs);
    assert_eq!(mb.receipts.len(), 5, "{:?}", mb.receipts);
    assert_eq!(mb.deferred.len(), 5);
}

#[test]
fn lookup_packets_hold_back_overflowing_transactions() {
    let mut net = Network::new(ChainConfig {
        max_packet_txs: 3,
        ..ChainConfig::evaluation(1, true)
    });
    let alice = Address::from_index(1);
    net.fund_account(alice, 1_000_000);
    let mut pool: Vec<Transaction> = (0..10)
        .map(|i| Transaction::payment(i + 1, alice, i + 1, Address::from_index(2), 1))
        .collect();
    let r1 = net.run_epoch(&mut pool);
    assert_eq!(r1.committed, 3, "{r1:?}");
    assert_eq!(pool.len(), 7, "overflow stays in the pool");
    let r2 = net.run_epoch(&mut pool);
    assert_eq!(r2.committed, 3);
    // Everything eventually drains.
    let mut total = r1.committed + r2.committed;
    while !pool.is_empty() {
        total += net.run_epoch(&mut pool).committed;
    }
    assert_eq!(total, 10);
}

#[test]
fn strict_nonce_policy_serialises_away_from_home() {
    use chain::dispatch::dispatch_policy;
    // An unconstrained (fully commutative) call normally spreads; with
    // strict nonces it may only run at the sender's home shard.
    let mut net =
        Network::new(ChainConfig { relaxed_nonces: false, ..ChainConfig::evaluation(4, true) });
    let alice = Address::from_index(1);
    net.fund_account(alice, 1_000_000);
    let contract = Address::from_index(80);
    let src = r#"
        contract Counter ()
        field total : Uint128 = Uint128 0
        transition Add (v : Uint128)
          t <- total;
          t2 = builtin add t v;
          total := t2
        end
    "#;
    net.deploy(contract, src, vec![], Some((&["Add"], WeakReads::AcceptAll))).unwrap();
    for i in 0..32 {
        let tx = Transaction::call(i, alice, i + 1, contract, "Add", vec![(
            "v".into(),
            Value::Uint(128, 1),
        )]);
        let d = dispatch_policy(&tx, net.state(), net.config());
        match d.assignment {
            Assignment::Shard(s) => assert_eq!(s, alice.home_shard(4)),
            Assignment::Ds => {}
            Assignment::XShard => panic!("strict nonces demote xshard to DS"),
        }
    }
}

#[test]
fn overflow_guard_reroutes_risky_adds() {
    let mut net = Network::new(ChainConfig::evaluation(4, true));
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000_000);
    let contract = Address::from_index(60);
    let src = r#"
        contract Counter ()
        field total : Uint128 = Uint128 0
        transition Add (v : Uint128)
          t <- total;
          t2 = builtin add t v;
          total := t2
        end
    "#;
    net.deploy(contract, src, vec![], Some((&["Add"], WeakReads::AcceptAll))).unwrap();

    // Fill the counter close to the top.
    let near_max = u128::MAX - 1_000;
    let mut pool = vec![Transaction::call(
        1,
        user,
        1,
        contract,
        "Add",
        vec![("v".into(), Value::Uint(128, near_max))],
    )];
    net.run_epoch(&mut pool);

    // Now reconfigure with the guard on and fire adds that individually fit
    // but collectively overflow: with N=4 shards the per-shard allowance is
    // ⌊1000/4⌋ = 250 < 400, so every one reroutes to the DS committee,
    // where the interpreter's checked arithmetic decides sequentially.
    let mut guarded = Network::new(ChainConfig { overflow_guard: true, ..ChainConfig::evaluation(4, true) });
    guarded.fund_account(user, 1_000_000_000);
    guarded.deploy(contract, src, vec![], Some((&["Add"], WeakReads::AcceptAll))).unwrap();
    let mut pool = vec![Transaction::call(
        1,
        user,
        1,
        contract,
        "Add",
        vec![("v".into(), Value::Uint(128, near_max))],
    )];
    guarded.run_epoch(&mut pool);

    let mut pool: Vec<Transaction> = (0..8)
        .map(|i| {
            Transaction::call(10 + i, user, 2 + i, contract, "Add", vec![(
                "v".into(),
                Value::Uint(128, 400),
            )])
        })
        .collect();
    let report = guarded.run_epoch(&mut pool);
    // Exactly ⌊1000/400⌋ = 2 adds can succeed before the counter tops out;
    // the rest fail sequentially at the DS with checked arithmetic, and the
    // final value never exceeds MAX (the merge would otherwise panic).
    assert_eq!(report.committed, 2, "{report:?}");
    let total = guarded.storage_of(&contract).unwrap().get("total".into(), &[]).unwrap();
    assert_eq!(total, Value::Uint(128, near_max + 800));
}

#[test]
fn huge_uint_values_fall_back_to_overwrites_and_merge_fine() {
    // A fresh write of nearly u128::MAX has no i128-representable delta;
    // the executor must fall back to an overwrite rather than corrupt it.
    let mut net = Network::new(ChainConfig::evaluation(3, true));
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000_000);
    let contract = Address::from_index(61);
    let src = r#"
        contract Big ()
        field total : Uint128 = Uint128 0
        transition Add (v : Uint128)
          t <- total;
          t2 = builtin add t v;
          total := t2
        end
    "#;
    net.deploy(contract, src, vec![], Some((&["Add"], WeakReads::AcceptAll))).unwrap();
    let huge = u128::MAX - 5;
    let mut pool = vec![Transaction::call(
        1,
        user,
        1,
        contract,
        "Add",
        vec![("v".into(), Value::Uint(128, huge))],
    )];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.committed, 1, "{report:?}");
    assert_eq!(
        net.storage_of(&contract).unwrap().get("total".into(), &[]),
        Some(Value::Uint(128, huge))
    );
}

#[test]
fn cross_contract_message_reroutes_with_cause() {
    let mut net = Network::new(ChainConfig::evaluation(2, true));
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000_000);
    let target = Address::from_index(70);
    let proxy = Address::from_index(71);
    let ping_src = r#"
        contract Target ()
        field pings : Uint128 = Uint128 0
        transition Ping (note : String)
          one = Uint128 1;
          p <- pings;
          p2 = builtin add p one;
          pings := p2
        end
    "#;
    let proxy_src = r#"
        library L
        let nil_msg = Nil {Message}
        let one_msg = fun (m : Message) => Cons {Message} m nil_msg
        let zero = Uint128 0
        contract Proxy (target : ByStr20)
        transition Relay (note : String)
          m = {_tag : "Ping"; _recipient : target; _amount : zero; note : note};
          msgs = one_msg m;
          send msgs
        end
    "#;
    net.deploy(target, ping_src, vec![], None).unwrap();
    net.deploy(
        proxy,
        proxy_src,
        vec![("target".to_string(), target.to_value())],
        // Sharding Relay: its recipient is the `target` contract parameter;
        // dispatch's UserAddr check sees a contract address and routes to
        // the DS — but we exercise the runtime fallback by executing in a
        // shard directly.
        None,
    )
    .unwrap();

    // Execute directly in a shard: the message chain must cause a reroute.
    let tx = Transaction::call(1, user, 1, proxy, "Relay", vec![(
        "note".into(),
        Value::Str("hi".into()),
    )]);
    let mb = execute_batch(&cfg(Assignment::Shard(0), 2), net.state(), vec![tx]);
    assert_eq!(mb.receipts[0].status, TxStatus::Rerouted(RerouteCause::CrossContract));
    assert_eq!(mb.rerouted.len(), 1);
    assert!(mb.delta.is_empty(), "reroute must leave no trace: {:?}", mb.delta);
}

#[test]
fn events_surface_in_epoch_receipts() {
    let mut net = Network::new(ChainConfig::evaluation(2, true));
    let user = Address::from_index(1);
    net.fund_account(user, 1_000_000);
    let contract = Address::from_index(90);
    let src = r#"
        contract C ()
        field last : String = ""
        transition Shout (text : String)
          last := text;
          e = {_eventname : "Shouted"; text : text};
          event e
        end
    "#;
    net.deploy(contract, src, vec![], Some((&["Shout"], WeakReads::AcceptAll))).unwrap();
    let mut pool = vec![Transaction::call(1, user, 1, contract, "Shout", vec![(
        "text".into(),
        Value::Str("hello".into()),
    )])];
    let report = net.run_epoch(&mut pool);
    let receipt = report.receipts.iter().find(|r| r.tx_id == 1).expect("receipt");
    assert_eq!(receipt.status, TxStatus::Success);
    assert_eq!(receipt.events.len(), 1);
    match &receipt.events[0] {
        Value::Msg(m) => assert_eq!(m.get(&scilla::intern::Sym::EVENTNAME), Some(&Value::Str("Shouted".into()))),
        other => panic!("expected event message, got {other}"),
    }
}

/// The epoch pipeline never deep-copies resident state: over 10 000 seeded
/// holders the packets never touch, full epochs (snapshot, shard execution,
/// merge, apply) and a shard batch of FungibleToken transfers (same-sender
/// nonce chains, shared recipients) break no shared map node. (That no state
/// access on this path carries an owned name holds by type: `StateStore`
/// takes `Sym`s only.)
#[test]
fn hot_path_is_clone_free() {
    telemetry::set_enabled(true);
    let owner = Address::from_index(999);
    let token = Address::from_index(1_000_000);
    let users = 8u64;
    let mut net = Network::new(ChainConfig::evaluation(1, true));
    net.fund_account(owner, 1_000_000_000);
    for i in 0..users {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    let params = vec![
        ("contract_owner".to_string(), owner.to_value()),
        ("name".to_string(), Value::Str("Test".into())),
        ("symbol".to_string(), Value::Str("TST".into())),
        ("init_supply".to_string(), Value::Uint(128, 0)),
    ];
    let src = scilla::corpus::get("FungibleToken").unwrap().source;
    net.deploy(token, src, params, Some((&["Mint", "Transfer"], WeakReads::AcceptAll))).unwrap();
    net.seed_map_field(
        token,
        "balances",
        (0..10_000).map(|i| (Address::from_index(1_000 + i).to_value(), Value::Uint(128, 7))),
    );
    let before_epochs = telemetry::registry().snapshot();
    let mut pool: Vec<Transaction> = (0..users)
        .map(|i| {
            Transaction::call(1000 + i, owner, i + 1, token, "Mint", vec![
                ("to".into(), Address::from_index(i).to_value()),
                ("amount".into(), Value::Uint(128, 300)),
            ])
        })
        .collect();
    while !pool.is_empty() {
        net.run_epoch(&mut pool);
    }

    let batch: Vec<Transaction> = (0..40u64)
        .map(|i| {
            Transaction::call(i, Address::from_index(i % users), i / users + 1, token, "Transfer", vec![
                ("to".into(), Address::from_index((i + 1) % users).to_value()),
                ("amount".into(), Value::Uint(128, 2)),
            ])
        })
        .collect();
    let config = ExecutorConfig { audit: false, ..cfg(Assignment::Shard(0), 1) };
    let mb = execute_batch(&config, net.state(), batch);
    assert_eq!(mb.committed(), 40, "{:?}", mb.receipts);
    let delta = telemetry::registry().snapshot().diff(&before_epochs);
    assert_eq!(delta.counter(telemetry::names::STATE_COW_BREAKS), 0, "a shared map node was copied");
    assert_eq!(delta.counter(telemetry::names::STATE_BYTES_CLONED), 0);
}
