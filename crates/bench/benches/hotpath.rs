//! Criterion benches for the hot-path layers: symbol interning and compiled
//! vs AST transition dispatch.

use criterion::{criterion_group, criterion_main, Criterion};
use scilla::gas::GasMeter;
use scilla::interpreter::{CompiledContract, ExecMode, TransitionContext};
use scilla::state::InMemoryState;
use scilla::value::Value;

fn bench_intern(c: &mut Criterion) {
    // Pre-intern so the bench measures the steady-state lookup, not the
    // one-time insertion.
    let names: Vec<String> = (0..64).map(|i| format!("field_{i}")).collect();
    for n in &names {
        scilla::intern::intern(n);
    }
    c.bench_function("intern/lookup-hit", |b| {
        let mut i = 0;
        b.iter(|| {
            let s = scilla::intern::intern(&names[i % names.len()]);
            i += 1;
            s
        })
    });
    let syms: Vec<scilla::intern::Sym> =
        names.iter().map(|n| scilla::intern::intern(n)).collect();
    c.bench_function("intern/sym-as-str", |b| {
        let mut i = 0;
        b.iter(|| {
            let s = syms[i % syms.len()].as_str();
            i += 1;
            s.len()
        })
    });
}

type TokenFixture = (CompiledContract, Vec<(String, Value)>, InMemoryState, Vec<[u8; 20]>);

/// A minted FungibleToken world at the scilla layer, shared by the
/// dispatch benches.
fn token_fixture() -> TokenFixture {
    let entry = scilla::corpus::get("FungibleToken").expect("corpus");
    let contract = scilla::compile_str(entry.source).expect("compiles");
    contract.precompile();
    let owner = [9u8; 20];
    let params = vec![
        ("contract_owner".to_string(), Value::address(owner)),
        ("name".to_string(), Value::Str("Bench".into())),
        ("symbol".to_string(), Value::Str("B".into())),
        ("init_supply".to_string(), Value::Uint(128, 0)),
    ];
    let mut state = InMemoryState::from_fields(contract.init_fields(&params).expect("init"));
    let users: Vec<[u8; 20]> = (0..16u8).map(|i| [i + 1; 20]).collect();
    for u in &users {
        let ctx = TransitionContext {
            sender: owner,
            origin: owner,
            amount: 0,
            this_address: [0xCC; 20],
            block_number: 1,
        };
        let mut gas = GasMeter::new(u64::MAX);
        contract
            .execute_mode(
                &mut state,
                "Mint",
                &[("to".into(), Value::address(*u)), ("amount".into(), Value::Uint(128, 1 << 40))],
                &params,
                &ctx,
                &mut gas,
                None,
                ExecMode::Auto,
            )
            .expect("mint");
    }
    (contract, params, state, users)
}

fn bench_dispatch(c: &mut Criterion) {
    let (contract, params, state, users) = token_fixture();
    let run = |mode: ExecMode, st: &mut InMemoryState, i: usize| {
        let from = users[i % users.len()];
        let to = users[(i + 1) % users.len()];
        let ctx = TransitionContext {
            sender: from,
            origin: from,
            amount: 0,
            this_address: [0xCC; 20],
            block_number: 2,
        };
        let mut gas = GasMeter::new(u64::MAX);
        contract
            .execute_mode(
                st,
                "Transfer",
                &[("to".into(), Value::address(to)), ("amount".into(), Value::Uint(128, 1))],
                &params,
                &ctx,
                &mut gas,
                None,
                mode,
            )
            .expect("transfer")
    };

    c.bench_function("transition/ast-walker", |b| {
        let mut st = state.clone();
        let mut i = 0;
        b.iter(|| {
            i += 1;
            run(ExecMode::Ast, &mut st, i)
        })
    });
    c.bench_function("transition/compiled", |b| {
        let mut st = state.clone();
        let mut i = 0;
        b.iter(|| {
            i += 1;
            run(ExecMode::Compiled, &mut st, i)
        })
    });
}

criterion_group!(benches, bench_intern, bench_dispatch);
criterion_main!(benches);
