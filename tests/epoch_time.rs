//! Block-time semantics across epochs: each epoch advances the block
//! number, so deadline-driven contract logic (crowdfunding, HTLC, auctions)
//! changes behaviour over the sharded network's life cycle.

use cosplit::analysis::signature::WeakReads;
use cosplit::chain::address::Address;
use cosplit::chain::network::{ChainConfig, Network};
use cosplit::chain::tx::Transaction;
use cosplit::scilla;
use scilla::value::Value;

fn node_bytes(i: u8) -> Value {
    Value::ByStr(vec![i; 32])
}

#[test]
fn block_number_advances_once_per_epoch() {
    let mut net = Network::new(ChainConfig::evaluation(3, true));
    let b0 = net.block_number();
    net.run_epoch(&mut Vec::new());
    net.run_epoch(&mut Vec::new());
    assert_eq!(net.block_number(), b0 + 2);
}

#[test]
fn crowdfunding_deadline_flips_between_epochs() {
    let mut net = Network::new(ChainConfig::evaluation(3, true));
    let donor = Address::from_index(1);
    let owner = Address::from_index(2);
    let contract = Address::from_index(300);
    net.fund_account(donor, 1_000_000);
    net.fund_account(owner, 1_000_000);
    // Campaign closes at block 2: the first epoch (block 1) accepts
    // donations, the next (block 2) does not.
    net.deploy(
        contract,
        scilla::corpus::get("Crowdfunding").unwrap().source,
        vec![
            ("campaign_owner".to_string(), owner.to_value()),
            ("max_block".to_string(), Value::BNum(2)),
            ("goal".to_string(), Value::Uint(128, 10)),
        ],
        Some((&["Donate", "ClaimBack"], WeakReads::AcceptAll)),
    )
    .unwrap();

    let mut pool = vec![Transaction::call(1, donor, 1, contract, "Donate", vec![]).with_amount(100)];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.committed, 1, "in time: {r:?}");

    let mut pool = vec![Transaction::call(2, donor, 2, contract, "Donate", vec![]).with_amount(100)];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.failed, 1, "after the deadline: {r:?}");

    // The donor can claim back (goal 10 was actually reached by the first
    // donation, so ClaimBack is refused — check that path too).
    let mut pool = vec![Transaction::call(3, donor, 3, contract, "ClaimBack", vec![])];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.committed + r.failed, 1);
}

#[test]
fn auction_closes_only_after_its_end_block() {
    let mut net = Network::new(ChainConfig::evaluation(2, true));
    let registrar = Address::from_index(1);
    let bidder = Address::from_index(2);
    let contract = Address::from_index(301);
    net.fund_account(registrar, 1_000_000);
    net.fund_account(bidder, 1_000_000);
    net.deploy(
        contract,
        scilla::corpus::get("AuctionRegistrar").unwrap().source,
        vec![("registrar_owner".to_string(), registrar.to_value())],
        None,
    )
    .unwrap();

    // Epoch 1 (block 1): the auction opens, running until block 4. The bid
    // waits for the next epoch — shard transactions execute against the
    // epoch-start state, so a same-epoch bid could race the DS-processed
    // StartAuction.
    let mut pool = vec![Transaction::call(1, registrar, 1, contract, "StartAuction", vec![
        ("node".into(), node_bytes(5)),
        ("end_block".into(), Value::BNum(4)),
    ])];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.committed, 1, "{r:?}");

    // Epoch 2 (block 2 < 4): bidding is open.
    let mut pool = vec![Transaction::call(2, bidder, 1, contract, "Bid", vec![(
        "node".into(),
        node_bytes(5),
    )])
    .with_amount(500)];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.committed, 1, "{r:?}");

    // Epoch 3 (block 3 < 4): closing is refused.
    let mut pool = vec![Transaction::call(3, registrar, 2, contract, "CloseAuction", vec![(
        "node".into(),
        node_bytes(5),
    )])];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.failed, 1, "{r:?}");

    // Let blocks 4 and 5 pass; closing now succeeds.
    net.run_epoch(&mut Vec::new());
    net.run_epoch(&mut Vec::new());
    let mut pool = vec![Transaction::call(4, registrar, 3, contract, "CloseAuction", vec![(
        "node".into(),
        node_bytes(5),
    )])];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.committed, 1, "{r:?}");

    use scilla::state::StateStore;
    let winner = net.storage_of(&contract).unwrap().get("winners".into(), &[node_bytes(5)]);
    assert_eq!(winner, Some(Address::from_index(2).to_value()));
}
