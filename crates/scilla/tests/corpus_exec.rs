//! Execution smoke tests over the corpus: beyond compiling, representative
//! contracts must actually *run* — transitions succeed, guards reject, and
//! state lands where expected.

use scilla::error::ExecError;
use scilla::gas::GasMeter;
use scilla::interpreter::{CompiledContract, TransitionContext, TransitionOutcome};
use scilla::state::{InMemoryState, StateStore};
use scilla::value::Value;

struct Harness {
    contract: CompiledContract,
    params: Vec<(String, Value)>,
    state: InMemoryState,
    block: u64,
}

fn addr(b: u8) -> [u8; 20] {
    [b; 20]
}

impl Harness {
    fn new(corpus_name: &str, params: Vec<(String, Value)>) -> Self {
        let entry = scilla::corpus::get(corpus_name).expect("corpus contract");
        let contract = scilla::compile_str(entry.source).expect("compiles");
        let state = InMemoryState::from_fields(contract.init_fields(&params).expect("init"));
        Harness { contract, params, state, block: 1 }
    }

    fn call(
        &mut self,
        sender: [u8; 20],
        amount: u128,
        transition: &str,
        args: &[(&str, Value)],
    ) -> Result<TransitionOutcome, ExecError> {
        let ctx = TransitionContext {
            sender,
            origin: sender,
            amount,
            this_address: addr(0xCC),
            block_number: self.block,
        };
        let args: Vec<(String, Value)> =
            args.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
        let mut gas = GasMeter::new(1_000_000);
        // Atomicity: run against a scratch copy, commit on success.
        let mut scratch = self.state.clone();
        let r = self.contract.execute(&mut scratch, transition, &args, &self.params, &ctx, &mut gas);
        if r.is_ok() {
            self.state = scratch;
        }
        r
    }
}

fn uint(v: u128) -> Value {
    Value::Uint(128, v)
}

#[test]
fn htlc_lock_withdraw_refund_cycle() {
    let mut h = Harness::new("HTLC", vec![("init_fee_collector".into(), Value::address(addr(9)))]);
    // The contract hashes the preimage with the (deterministic) digest.
    let preimage = Value::Str("secret".into());
    let hash = Value::ByStr(scilla::builtins::digest32(&preimage));

    h.call(addr(1), 500, "NewLock", &[("hash", hash.clone()), ("deadline", Value::BNum(10))])
        .expect("lock");
    assert_eq!(h.state.get("lock_amounts".into(), std::slice::from_ref(&hash)), Some(uint(500)));

    // Refund before the deadline fails…
    let err = h.call(addr(1), 0, "Refund", &[("hash", hash.clone())]).unwrap_err();
    assert!(matches!(&err, ExecError::Thrown(m) if m.contains("NotExpired")), "{err}");

    // …withdrawal with the right preimage pays out.
    let out = h.call(addr(2), 0, "Withdraw", &[("preimage", preimage)]).expect("withdraw");
    assert_eq!(out.messages.len(), 1);
    assert_eq!(out.messages[0].amount, 500);
    assert_eq!(out.messages[0].recipient, addr(2));
    assert_eq!(h.state.get("lock_amounts".into(), &[hash]), None);
}

#[test]
fn voting_single_vote_per_account() {
    let mut h = Harness::new("Voting", vec![("election_officer".into(), Value::address(addr(9)))]);
    h.call(addr(1), 0, "Vote", &[("option", Value::Str("yes".into()))]).expect("first vote");
    let err = h.call(addr(1), 0, "Vote", &[("option", Value::Str("no".into()))]).unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("AlreadyVoted")));
    h.call(addr(2), 0, "Vote", &[("option", Value::Str("yes".into()))]).expect("second voter");
    assert_eq!(h.state.get("tallies".into(), &[Value::Str("yes".into())]), Some(uint(2)));

    // After finalisation nobody votes.
    h.call(addr(9), 0, "Finalize", &[]).expect("officer closes");
    let err = h.call(addr(3), 0, "Vote", &[("option", Value::Str("yes".into()))]).unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("ElectionClosed")));
}

#[test]
fn bookstore_stock_depletes() {
    let mut h = Harness::new("Bookstore", vec![("store_owner".into(), Value::address(addr(9)))]);
    h.call(addr(9), 0, "AddBook", &[
        ("book_id", Value::Str("rust-book".into())),
        ("price", uint(10)),
        ("stock", uint(1)),
    ])
    .expect("stock the shelf");

    // Underpaying fails.
    let err = h
        .call(addr(1), 5, "BuyBook", &[("book_id", Value::Str("rust-book".into()))])
        .unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("PaymentTooLow")));

    let out = h
        .call(addr(1), 10, "BuyBook", &[("book_id", Value::Str("rust-book".into()))])
        .expect("buy");
    assert!(out.accepted, "payment accepted");

    let err = h
        .call(addr(2), 10, "BuyBook", &[("book_id", Value::Str("rust-book".into()))])
        .unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("OutOfStock")));
}

#[test]
fn multisig_requires_enough_confirmations() {
    let mut h = Harness::new("Multisig", vec![("founder".into(), Value::address(addr(9)))]);
    for owner in [1, 2] {
        h.call(addr(9), 0, "AddOwner", &[("new_owner", Value::address(addr(owner)))])
            .expect("add owner");
    }
    h.call(addr(1), 0, "SubmitTransaction", &[
        ("tx_id", uint(1)),
        ("to", Value::address(addr(7))),
        ("amount", uint(123)),
    ])
    .expect("submit");

    // One confirmation is not enough (required = 2).
    h.call(addr(1), 0, "ConfirmTransaction", &[("tx_id", uint(1))]).expect("confirm 1");
    let err = h.call(addr(1), 0, "ExecuteTransaction", &[("tx_id", uint(1))]).unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("NotEnoughConfirmations")));

    // Double-confirm is rejected; the second owner tips it over.
    let err = h.call(addr(1), 0, "ConfirmTransaction", &[("tx_id", uint(1))]).unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("AlreadyConfirmed")));
    h.call(addr(2), 0, "ConfirmTransaction", &[("tx_id", uint(1))]).expect("confirm 2");
    let out = h.call(addr(2), 0, "ExecuteTransaction", &[("tx_id", uint(1))]).expect("execute");
    assert_eq!(out.messages[0].amount, 123);
    assert_eq!(out.messages[0].recipient, addr(7));
}

#[test]
fn zeecash_shield_and_unshield() {
    let mut h = Harness::new("Zeecash", vec![("init_owner".into(), Value::address(addr(9)))]);
    h.call(addr(9), 0, "Mint", &[("to", Value::address(addr(1))), ("amount", uint(100))])
        .expect("mint");
    h.call(addr(1), 0, "Shield", &[("secret", Value::Str("note1".into())), ("amount", uint(60))])
        .expect("shield");
    assert_eq!(h.state.get("balances".into(), &[Value::address(addr(1))]), Some(uint(40)));
    assert_eq!(h.state.get("shielded_total".into(), &[]), Some(uint(60)));

    // Anyone knowing the secret can unshield — but only once.
    h.call(addr(2), 0, "Unshield", &[("secret", Value::Str("note1".into()))]).expect("unshield");
    assert_eq!(h.state.get("balances".into(), &[Value::address(addr(2))]), Some(uint(60)));
    let err = h.call(addr(3), 0, "Unshield", &[("secret", Value::Str("note1".into()))]).unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("NoNote")));
}

#[test]
fn auction_bids_must_increase() {
    let node = Value::ByStr(vec![7u8; 32]);
    let mut h =
        Harness::new("AuctionRegistrar", vec![("registrar_owner".into(), Value::address(addr(9)))]);
    h.call(addr(9), 0, "StartAuction", &[("node", node.clone()), ("end_block", Value::BNum(100))])
        .expect("start");
    h.call(addr(1), 200, "Bid", &[("node", node.clone())]).expect("first bid");
    let err = h.call(addr(2), 150, "Bid", &[("node", node.clone())]).unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("BidTooLow")));
    h.call(addr(2), 300, "Bid", &[("node", node.clone())]).expect("higher bid");
    assert_eq!(h.state.get("high_bidders".into(), &[node]), Some(Value::address(addr(2))));
}

#[test]
fn cryptoman_commit_reveal() {
    let mut h = Harness::new("Cryptoman", vec![]);
    let secret = Value::Str("hunter2".into());
    let commitment = Value::ByStr(scilla::builtins::digest32(&secret));
    h.call(addr(1), 0, "Commit", &[("commitment", commitment.clone())]).expect("commit");
    let err = h.call(addr(1), 0, "Reveal", &[("secret", Value::Str("wrong".into()))]).unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("WrongSecret")));
    h.call(addr(1), 0, "Reveal", &[("secret", secret)]).expect("reveal");
    assert_eq!(h.state.get("winners".into(), &[commitment]), Some(Value::address(addr(1))));
}

#[test]
fn hello_world_events() {
    let mut h = Harness::new("HelloWorld", vec![("hello_owner".into(), Value::address(addr(9)))]);
    h.call(addr(9), 0, "SetHello", &[("msg", Value::Str("hei".into()))]).expect("set");
    assert_eq!(h.state.get("welcome_msg".into(), &[]), Some(Value::Str("hei".into())));
    let out = h.call(addr(1), 0, "GetHello", &[]).expect("get");
    assert_eq!(out.events.len(), 1);
}

#[test]
fn xsgd_blacklist_blocks_transfers() {
    let mut h = Harness::new(
        "XSGD",
        vec![
            ("init_owner".into(), Value::address(addr(9))),
            ("proxy".into(), Value::address(addr(8))),
        ],
    );
    h.call(addr(9), 0, "Mint", &[("to", Value::address(addr(1))), ("amount", uint(100))])
        .expect("mint");
    h.call(addr(9), 0, "Blacklist", &[("account", Value::address(addr(1)))]).expect("blacklist");
    let err = h
        .call(addr(1), 0, "Transfer", &[("to", Value::address(addr(2))), ("amount", uint(10))])
        .unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("Blacklisted")));
    h.call(addr(9), 0, "Unblacklist", &[("account", Value::address(addr(1)))]).expect("unblacklist");
    h.call(addr(1), 0, "Transfer", &[("to", Value::address(addr(2))), ("amount", uint(10))])
        .expect("transfer after unblacklisting");

    // Pause blocks everyone.
    h.call(addr(9), 0, "Pause", &[]).expect("pause");
    let err = h
        .call(addr(1), 0, "Transfer", &[("to", Value::address(addr(2))), ("amount", uint(1))])
        .unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("Paused")));
}

#[test]
fn ud_registry_full_domain_lifecycle() {
    let node = Value::ByStr(vec![3u8; 32]);
    let mut h = Harness::new(
        "UD_registry",
        vec![
            ("initial_admin".into(), Value::address(addr(9))),
            ("initial_root".into(), Value::ByStr(vec![0u8; 32])),
        ],
    );
    h.call(addr(9), 0, "Bestow", &[
        ("node", node.clone()),
        ("new_owner", Value::address(addr(1))),
        ("resolver", Value::address(addr(5))),
    ])
    .expect("bestow");
    // Double bestow fails.
    let err = h
        .call(addr(9), 0, "Bestow", &[
            ("node", node.clone()),
            ("new_owner", Value::address(addr(2))),
            ("resolver", Value::address(addr(5))),
        ])
        .unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("DomainTaken")));

    // Only the owner configures.
    let err = h
        .call(addr(2), 0, "Configure", &[("node", node.clone()), ("resolver", Value::address(addr(6)))])
        .unwrap_err();
    assert!(matches!(err, ExecError::Thrown(m) if m.contains("SenderNotOwner")));
    h.call(addr(1), 0, "Configure", &[("node", node.clone()), ("resolver", Value::address(addr(6)))])
        .expect("configure");
    h.call(addr(1), 0, "ConfigureRecord", &[
        ("node", node.clone()),
        ("rec_key", Value::Str("crypto.ZIL.address".into())),
        ("rec_value", Value::Str("zil1xyz".into())),
    ])
    .expect("record");

    // Transfer moves ownership (DS-only in the sharded setting, but the
    // interpreter semantics are ordinary).
    h.call(addr(1), 0, "TransferDomain", &[("node", node.clone()), ("new_owner", Value::address(addr(2)))])
        .expect("transfer");
    assert_eq!(h.state.get("registry_owners".into(), &[node]), Some(Value::address(addr(2))));
}
