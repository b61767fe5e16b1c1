//! End-to-end behaviour of the interprocedural call-graph composition
//! (`compose_calls`): a statically-resolved cross-contract chain whose
//! composed footprint pins to one shard dispatches `ComposedLocal` and
//! executes its send hop inside the shard; with composition off (or when
//! the recipient is dynamic) the same chain serialises at the DS committee
//! exactly as before; and a contract whose runtime sends diverge from its
//! static call graph both reroutes at the hop check and is flagged by the
//! `ComposedEscape` trace auditor.

use chain::address::Address;
use chain::dispatch::{component_shard, dispatch_policy, xshard_plan, Assignment, DispatchReason};
use chain::executor::{execute_batch, RerouteCause, TxStatus};
use chain::network::{ChainConfig, Network};
use chain::tx::Transaction;
use chain::xshard::LockKey;
use cosplit_analysis::audit::ViolationKind;
use cosplit_analysis::domain::{ContribSource, ContribType};
use cosplit_analysis::effects::Effect;
use cosplit_analysis::signature::WeakReads;
use scilla::state::StateStore;
use scilla::value::Value;

const SHARDS: u32 = 4;

fn config(compose: bool) -> ChainConfig {
    ChainConfig { compose_calls: compose, ..ChainConfig::small(SHARDS, true) }
}

/// A TestRelay → TestReceiver world: the relay's `sink` init parameter is
/// the receiver, so `Relay`'s send resolves statically.
fn relay_world(compose: bool) -> (Network, Address, Address) {
    let mut net = Network::new(config(compose));
    let receiver = Address::from_index(7001);
    let relay = Address::from_index(7002);
    net.deploy(
        receiver,
        scilla::corpus::get("TestReceiver").expect("in corpus").source,
        vec![],
        Some((&["Hello", "Deposit"], WeakReads::AcceptAll)),
    )
    .expect("receiver deploys");
    net.deploy(
        relay,
        scilla::corpus::get("TestRelay").expect("in corpus").source,
        vec![("sink".into(), receiver.to_value())],
        Some((&["Relay", "Fund"], WeakReads::AcceptAll)),
    )
    .expect("relay deploys");
    (net, relay, receiver)
}

fn relay_tx(id: u64, sender: Address, nonce: u64, relay: Address) -> Transaction {
    Transaction::call(id, sender, nonce, relay, "Relay", vec![])
}

#[test]
fn composed_chain_dispatches_shard_local() {
    let (net, relay, _) = relay_world(true);
    let user = Address::from_index(42);
    let tx = relay_tx(1, user, 1, relay);

    let on = dispatch_policy(&tx, net.state(), &config(true));
    assert_eq!(on.reason, DispatchReason::ComposedLocal);
    // Both chain members' map updates are commutative (`IntMerge`), so the
    // composed footprint has no ownership locks and any single shard works.
    assert!(
        matches!(on.assignment, Assignment::Shard(_)),
        "composed chain must stay out of the DS committee: {on:?}"
    );

    // Composition off: the relay's UserAddr(sink) constraint sees a
    // contract address and the chain serialises at the DS committee.
    let off = dispatch_policy(&tx, net.state(), &config(false));
    assert_eq!(off.assignment, Assignment::Ds);
}

#[test]
fn composed_chain_executes_inside_the_shard() {
    let (mut net, relay, receiver) = relay_world(true);
    let user = Address::from_index(42);
    net.fund_account(user, 1_000_000);
    let mut pool = vec![relay_tx(1, user, 1, relay)];

    let report = net.run_epoch(&mut pool);
    assert_eq!(report.committed, 1, "chain commits: {:?}", report.receipts);
    assert_eq!(report.dispatch_reasons.get("composed-local"), Some(&1));
    assert!(
        report.audit_violations.is_empty(),
        "composed execution must satisfy the auditor: {:?}",
        report.audit_violations
    );
    // The chain ran in a transaction shard — the DS committee was idle.
    for (role, committed, _) in &report.per_committee {
        if *role == Assignment::Ds {
            assert_eq!(*committed, 0, "nothing may serialise at DS");
        }
    }
    // Both ends of the chain mutated state.
    let key = [user.to_value()];
    let relayed = net.storage_of(&relay).unwrap().get("relayed".into(), &key);
    assert_eq!(relayed, Some(Value::Uint(128, 1)));
    let greeted = net.storage_of(&receiver).unwrap().get("greetings".into(), &key);
    assert_eq!(greeted, Some(Value::Uint(128, 1)));
}

#[test]
fn composition_off_serialises_at_ds_with_same_result() {
    let (mut net, relay, receiver) = relay_world(false);
    let user = Address::from_index(42);
    net.fund_account(user, 1_000_000);
    let mut pool = vec![relay_tx(1, user, 1, relay)];

    let report = net.run_epoch(&mut pool);
    assert_eq!(report.committed, 1);
    assert_eq!(report.dispatch_reasons.get("composed-local"), None);
    let key = [user.to_value()];
    let greeted = net.storage_of(&receiver).unwrap().get("greetings".into(), &key);
    assert_eq!(greeted, Some(Value::Uint(128, 1)), "DS path reaches the same state");
}

/// A callee's `_sender` is the contract that sent to it, not the
/// transaction sender: a receiver that accepts (`SenderShard`) and keys a
/// write by `_sender` (`Owns(seen[_sender])`) must lock the relay's account
/// and the relay's entry.
#[test]
fn callee_sender_constraints_lock_the_relay() {
    const SENDER_BOOK: &str = r#"
        library SenderBookLib
        contract SenderBook ()
        field seen : Map ByStr20 ByStr20 = Emp ByStr20 ByStr20
        transition Hello (from : ByStr20)
          accept;
          seen[_sender] := from
        end
    "#;
    let mut net = Network::new(config(true));
    let book = Address::from_index(7003);
    let relay = Address::from_index(7004);
    net.deploy(book, SENDER_BOOK, vec![], Some((&["Hello"], WeakReads::AcceptAll)))
        .expect("sender book deploys");
    net.deploy(
        relay,
        scilla::corpus::get("TestRelay").expect("in corpus").source,
        vec![("sink".into(), book.to_value())],
        Some((&["Relay", "Fund"], WeakReads::AcceptAll)),
    )
    .expect("relay deploys");
    let user = Address::from_index(42);
    let tx = relay_tx(1, user, 1, relay);

    let plan = xshard_plan(&tx, net.state(), &config(true)).expect("the chain composes");
    let entry = vec![relay.to_value()];
    let expected = vec![
        (net.state().home_shard_of(&relay, SHARDS), LockKey::Account(relay)),
        (
            component_shard(book, "seen", &entry, SHARDS),
            LockKey::Component {
                contract: book,
                field: "seen".into(),
                keys: entry.iter().map(Value::to_string).collect(),
            },
        ),
    ];
    assert_eq!(plan.locks, expected);
}

/// A recipient read from *mutable* storage (another transition writes the
/// field) is ⊤ for the call graph: the composition declines, and a shard
/// executor with composition enabled still reroutes the hop because no
/// classified site validates it.
#[test]
fn dynamic_recipient_still_reroutes() {
    const ROUTER: &str = r#"
        library RouterLib
        let nil_msg = Nil {Message}
        let one_msg = fun (m : Message) => Cons {Message} m nil_msg
        let zero = Uint128 0

        contract Router (init_target : ByStr20)
        field target : ByStr20 = init_target

        transition SetTarget (t : ByStr20)
          target := t
        end

        transition Route (from : ByStr20)
          t <- target;
          msg = {_tag : "Hello"; _recipient : t; _amount : zero; from : from};
          msgs = one_msg msg;
          send msgs
        end
    "#;
    let mut net = Network::new(config(true));
    let receiver = Address::from_index(7001);
    let router = Address::from_index(7003);
    net.deploy(
        receiver,
        scilla::corpus::get("TestReceiver").expect("in corpus").source,
        vec![],
        Some((&["Hello"], WeakReads::AcceptAll)),
    )
    .unwrap();
    net.deploy(
        router,
        ROUTER,
        vec![("init_target".into(), receiver.to_value())],
        Some((&["Route"], WeakReads::AcceptAll)),
    )
    .unwrap();
    let user = Address::from_index(42);
    net.fund_account(user, 1_000_000);

    let tx = Transaction::call(1, user, 1, router, "Route", vec![(
        "from".into(),
        user.to_value(),
    )]);
    // Dispatch never claims the chain…
    let d = dispatch_policy(&tx, net.state(), &config(true));
    assert_ne!(d.reason, DispatchReason::ComposedLocal);
    // …and even if a shard were handed the transaction, the hop check
    // refuses to follow the unpredicted send.
    let cfg = chain::executor::ExecutorConfig {
        compose_calls: true,
        ..net.shard_executor_config(user.home_shard(SHARDS))
    };
    let mb = execute_batch(&cfg, net.state(), vec![tx]);
    assert_eq!(mb.receipts[0].status, TxStatus::Rerouted(RerouteCause::CrossContract));
    assert!(mb.delta.is_empty());
}

/// Byzantine static info: the relay's pinned summaries claim `Relay` sends
/// to a *different* receiver than the code really targets. The shard hop
/// check refuses the unpredicted hop (reroute), and when the DS committee
/// then runs the real chain, the composed-containment auditor reports a
/// `ComposedEscape` instead of silently accepting the divergence.
#[test]
fn divergent_call_graph_is_caught_by_the_escape_auditor() {
    let (mut net, relay, _receiver) = relay_world(true);
    // A decoy receiver the doctored summaries point at.
    let decoy = Address::from_index(7009);
    net.deploy(
        decoy,
        scilla::corpus::get("TestReceiver").expect("in corpus").source,
        vec![],
        Some((&["Hello", "Deposit"], WeakReads::AcceptAll)),
    )
    .unwrap();

    // Re-point the static send of `Relay` at the decoy. Extraction and
    // composition read the pinned summaries, so the static call graph now
    // disagrees with the executable code.
    let deployed = net.state().contracts.get(&relay).unwrap().clone();
    let mut summaries = (*deployed.summaries()).clone();
    for s in &mut summaries {
        for e in &mut s.effects {
            if let Effect::SendMsg(msg) = e {
                msg.recipient =
                    ContribType::source(ContribSource::Const(decoy.to_string()));
            }
        }
    }
    net.override_summaries(relay, summaries);

    let user = Address::from_index(42);
    net.fund_account(user, 1_000_000);
    let mut pool = vec![relay_tx(1, user, 1, relay)];
    let report = net.run_epoch(&mut pool);

    // The transaction still commits (at DS, where chains are legal)…
    assert_eq!(report.committed, 1);
    // …but the auditor flags the escape from the composed callee set.
    assert!(
        report
            .audit_violations
            .iter()
            .any(|v| v.contains(ViolationKind::ComposedEscape.as_str())),
        "expected a ComposedEscape violation, got: {:?}",
        report.audit_violations
    );
}

/// Satellite: `DispatchReason::all()` must stay in sync with the enum — the
/// per-reason counter array indexes by discriminant, and the names feed the
/// epoch-report breakdown, so drift would silently misattribute decisions.
#[test]
fn dispatch_reason_table_in_sync() {
    let all = DispatchReason::all();
    for (i, r) in all.iter().enumerate() {
        assert_eq!(*r as usize, i, "ALL_REASONS[{i}] out of discriminant order");
    }
    let mut names: Vec<&str> = all.iter().map(|r| r.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "duplicate reason name");
}
