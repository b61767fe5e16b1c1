//! Cross-contract messaging: single-contract transactions shard; a call
//! that chains into another contract is conservatively routed to the DS
//! committee, which executes the whole message chain atomically after the
//! shard deltas merge (paper §4.1/§4.3).

use cosplit::analysis::signature::WeakReads;
use cosplit::chain::address::Address;
use cosplit::chain::network::{ChainConfig, Network};
use cosplit::chain::tx::Transaction;
use cosplit::scilla;
use scilla::state::StateStore;
use scilla::value::Value;

fn node(i: u64) -> Value {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&i.to_be_bytes());
    Value::ByStr(bytes.to_vec())
}

#[test]
fn operator_contract_configures_registry_through_ds() {
    let mut net = Network::new(ChainConfig::evaluation(3, true));
    let admin = Address::from_index(1);
    let operator_user = Address::from_index(2);
    let registry = Address::from_index(100);
    let operator_contract = Address::from_index(101);
    net.fund_account(admin, 1_000_000_000);
    net.fund_account(operator_user, 1_000_000_000);

    // Deploy the UD registry (sharded) and the operator proxy contract.
    net.deploy(
        registry,
        scilla::corpus::get("UD_registry").unwrap().source,
        vec![
            ("initial_admin".to_string(), admin.to_value()),
            ("initial_root".to_string(), node(0)),
        ],
        Some((&["Bestow", "Configure", "ConfigureRecord"], WeakReads::AcceptAll)),
    )
    .unwrap();
    net.deploy(
        operator_contract,
        scilla::corpus::get("UD_operator_contract").unwrap().source,
        vec![
            ("init_admin".to_string(), admin.to_value()),
            ("registry".to_string(), registry.to_value()),
        ],
        None,
    )
    .unwrap();

    // The *operator contract* owns a domain, and the user is whitelisted.
    let mut pool = vec![
        Transaction::call(
            1,
            admin,
            1,
            registry,
            "Bestow",
            vec![
                ("node".into(), node(7)),
                ("new_owner".into(), operator_contract.to_value()),
                ("resolver".into(), admin.to_value()),
            ],
        ),
        Transaction::call(
            2,
            admin,
            2,
            operator_contract,
            "AddOperator",
            vec![("operator".into(), operator_user.to_value())],
        ),
    ];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.committed, 2, "{r:?}");

    // The user calls the operator contract, which messages the registry's
    // Configure — a contract→contract chain, only legal on the DS.
    let new_resolver = Address::from_index(55);
    let mut pool = vec![Transaction::call(
        3,
        operator_user,
        1,
        operator_contract,
        "OperatorConfigure",
        vec![("node".into(), node(7)), ("resolver".into(), new_resolver.to_value())],
    )];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.committed, 1, "{r:?}");

    let resolver = net
        .storage_of(&registry)
        .unwrap()
        .get("registry_resolvers".into(), &[node(7)])
        .unwrap();
    assert_eq!(resolver, new_resolver.to_value(), "chained Configure took effect");
}

#[test]
fn chained_call_to_unauthorized_domain_rolls_back_atomically() {
    let mut net = Network::new(ChainConfig::evaluation(3, true));
    let admin = Address::from_index(1);
    let user = Address::from_index(2);
    let outsider = Address::from_index(3);
    let registry = Address::from_index(100);
    let operator_contract = Address::from_index(101);
    for a in [admin, user, outsider] {
        net.fund_account(a, 1_000_000_000);
    }
    net.deploy(
        registry,
        scilla::corpus::get("UD_registry").unwrap().source,
        vec![
            ("initial_admin".to_string(), admin.to_value()),
            ("initial_root".to_string(), node(0)),
        ],
        None,
    )
    .unwrap();
    net.deploy(
        operator_contract,
        scilla::corpus::get("UD_operator_contract").unwrap().source,
        vec![
            ("init_admin".to_string(), admin.to_value()),
            ("registry".to_string(), registry.to_value()),
        ],
        None,
    )
    .unwrap();

    // Domain owned by an *outsider*, not the operator contract; whitelist
    // the user anyway.
    let mut pool = vec![
        Transaction::call(
            1,
            admin,
            1,
            registry,
            "Bestow",
            vec![
                ("node".into(), node(9)),
                ("new_owner".into(), outsider.to_value()),
                ("resolver".into(), admin.to_value()),
            ],
        ),
        Transaction::call(
            2,
            admin,
            2,
            operator_contract,
            "AddOperator",
            vec![("operator".into(), user.to_value())],
        ),
    ];
    net.run_epoch(&mut pool);

    // The chained Configure throws inside the registry (SenderNotOwner);
    // the whole transaction — including the operator contract's own
    // bookkeeping — must roll back.
    let mut pool = vec![Transaction::call(
        3,
        user,
        1,
        operator_contract,
        "OperatorConfigure",
        vec![("node".into(), node(9)), ("resolver".into(), user.to_value())],
    )];
    let r = net.run_epoch(&mut pool);
    assert_eq!(r.failed, 1, "{r:?}");
    let resolver = net
        .storage_of(&registry)
        .unwrap()
        .get("registry_resolvers".into(), &[node(9)])
        .unwrap();
    assert_eq!(resolver, admin.to_value(), "failed chain must not change the registry");
}
