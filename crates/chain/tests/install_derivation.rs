//! A deployed contract is derived once, at install: its summaries are what
//! the analysis says about its code, and its call sites are extracted from
//! those summaries. Checked for every corpus contract, deployed with a
//! full-selection signature and without one, and again after the
//! `override_summaries` test hook pins different summaries (the
//! composition and the hop check must then read call sites re-extracted
//! from the pinned set).

use chain::address::Address;
use chain::network::{ChainConfig, Network};
use cosplit_analysis::analysis::summarize_contract;
use cosplit_analysis::callgraph::ContractCalls;
use cosplit_analysis::effects::Effect;
use cosplit_analysis::signature::WeakReads;
use scilla::types::Type;
use scilla::value::Value;

/// A deployment value for one contract parameter. Every corpus parameter
/// is a byte string (an address at width 20), a string or a number.
fn param_value(ty: &Type, i: u64) -> Value {
    match ty {
        Type::ByStr(20) => Address::from_index(1_000 + i).to_value(),
        Type::ByStr(n) => Value::ByStr(vec![i as u8; *n as usize]),
        Type::Uint(w) => Value::Uint(*w, u128::from(i) + 1),
        Type::Int(w) => Value::Int(*w, i128::from(i) + 1),
        Type::Str => Value::Str(format!("p{i}")),
        Type::BNum => Value::BNum(i + 1),
        other => panic!("no deployment value for a parameter of type {other:?}"),
    }
}

#[test]
fn install_derives_summaries_and_call_sites_from_the_code() {
    let addr = Address::from_index(900);
    let mut with_sends = 0;
    for entry in scilla::corpus::all() {
        let module = scilla::parser::parse_module(entry.source).expect("corpus parses");
        let checked = scilla::typechecker::typecheck(module).expect("corpus typechecks");
        let summaries = summarize_contract(&checked);
        let calls = ContractCalls::extract(&checked, &summaries);
        let contract = checked.contract();
        let params: Vec<(String, Value)> = (0u64..)
            .zip(&contract.params)
            .map(|(i, p)| (p.name.name.clone(), param_value(&p.ty, i)))
            .collect();
        with_sends += usize::from(!calls.sites.is_empty());
        let names: Vec<&str> = contract
            .transitions
            .iter()
            .map(|t| t.name.name.as_str())
            .collect();

        for signed in [true, false] {
            let mut net = Network::new(ChainConfig::small(2, true));
            let sharding = signed.then_some((names.as_slice(), WeakReads::AcceptAll));
            net.deploy(addr, entry.source, params.clone(), sharding)
                .unwrap_or_else(|e| panic!("{} (signed: {signed}) deploys: {e:?}", entry.name));
            let deployed = &net.state().contracts[&addr];
            assert_eq!(deployed.signature.is_some(), signed, "{}", entry.name);
            assert_eq!(
                *deployed.summaries(),
                summaries,
                "{} (signed: {signed})",
                entry.name
            );
            assert_eq!(
                *deployed.call_info(),
                calls,
                "{} (signed: {signed})",
                entry.name
            );

            // Pin summaries that send nothing: the call sites must follow.
            let mut pinned = summaries.clone();
            for s in &mut pinned {
                s.effects.retain(|e| !matches!(e, Effect::SendMsg(_)));
            }
            let storage = net.storage_of(&addr).cloned();
            net.override_summaries(addr, pinned.clone());
            let deployed = &net.state().contracts[&addr];
            assert_eq!(*deployed.summaries(), pinned, "{}", entry.name);
            let repinned = ContractCalls::extract(&checked, &pinned);
            assert!(repinned.sites.is_empty(), "{}", entry.name);
            assert_eq!(
                *deployed.call_info(),
                repinned,
                "{} (signed: {signed})",
                entry.name
            );
            assert_eq!(deployed.signature.is_some(), signed, "{}", entry.name);
            assert_eq!(net.storage_of(&addr).cloned(), storage, "{}", entry.name);
        }
    }
    assert!(
        with_sends > 0,
        "some corpus contract sends, so pinning changes its call sites"
    );
}
