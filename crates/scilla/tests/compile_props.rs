//! Differential properties: the compiled interpreter must be bit-identical
//! to the definitional AST walker on every observable — result, gas (at any
//! limit, including mid-execution exhaustion), outcome (accept/messages/
//! events), traced footprint, and final state.
//!
//! The corpus is the test vector source: every corpus transition must
//! actually lower (no silent fallback), and randomized typed-argument call
//! sequences over the corpus must agree between backends call-for-call.

use proptest::prelude::*;
use scilla::gas::GasMeter;
use scilla::interpreter::{CompiledContract, ExecMode, TransitionContext, TransitionOutcome};
use scilla::state::InMemoryState;
use scilla::trace::EffectTracer;
use scilla::types::Type;
use scilla::value::Value;

fn addr(b: u8) -> [u8; 20] {
    [b; 20]
}

/// A deterministic, type-directed argument sampler. Returns `None` for types
/// we cannot synthesise (functions, type variables, user ADTs we don't
/// know); callers skip those transitions rather than guess.
fn sample_value(ty: &Type, seed: u64) -> Option<Value> {
    Some(match ty {
        Type::Int(w) => Value::Int(*w, i128::from(seed % 1000) - 500),
        Type::Uint(w) => Value::Uint(*w, u128::from(seed % 1000)),
        Type::Str => Value::Str(format!("s{}", seed % 7)),
        Type::ByStr(n) => Value::ByStr(vec![(seed % 251) as u8; *n as usize]),
        Type::BNum => Value::BNum(seed % 50),
        Type::Map(..) => Value::empty_map(),
        Type::Adt(name, args) => match (name.as_str(), args.as_slice()) {
            ("Bool", []) => Value::bool(seed.is_multiple_of(2)),
            ("Option", [t]) => {
                if seed.is_multiple_of(3) {
                    Value::none()
                } else {
                    Value::some(sample_value(t, seed / 3)?)
                }
            }
            ("List", [t]) => {
                let mut v = Value::Adt { ctor: "Nil".into(), args: vec![] };
                for i in 0..seed % 3 {
                    v = Value::Adt {
                        ctor: "Cons".into(),
                        args: vec![sample_value(t, seed + i)?, v],
                    };
                }
                v
            }
            ("Pair", [a, b]) => Value::Adt {
                ctor: "Pair".into(),
                args: vec![sample_value(a, seed)?, sample_value(b, seed + 1)?],
            },
            _ => return None,
        },
        Type::Message | Type::Fun(..) | Type::TypeVar(_) | Type::Forall(..) => return None,
    })
}

/// Samples every declared contract parameter; `None` if any is unsamplable.
fn sample_params(c: &CompiledContract, seed: u64) -> Option<Vec<(String, Value)>> {
    c.contract()
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| Some((p.name.name.clone(), sample_value(&p.ty, seed + i as u64)?)))
        .collect()
}

fn outcome_eq(a: &TransitionOutcome, b: &TransitionOutcome) -> bool {
    a.accepted == b.accepted
        && a.messages == b.messages
        && a.events == b.events
        && a.gas_used == b.gas_used
}

/// Runs one call through both backends against clones of `state` and checks
/// every observable agrees. On success, commits the post-state and returns it.
#[allow(clippy::too_many_arguments)]
fn differential_call(
    contract: &CompiledContract,
    params: &[(String, Value)],
    state: &InMemoryState,
    transition: &str,
    args: &[(String, Value)],
    ctx: &TransitionContext,
    gas_limit: u64,
) -> InMemoryState {
    let run = |mode: ExecMode| {
        let mut st = state.clone();
        let mut gas = GasMeter::new(gas_limit);
        let mut tracer = EffectTracer::new(transition);
        let r = contract.execute_mode(
            &mut st,
            transition,
            args,
            params,
            ctx,
            &mut gas,
            Some(&mut tracer),
            mode,
        );
        (r, gas.used(), tracer.finish(), st)
    };
    let (ra, gas_a, fp_a, st_a) = run(ExecMode::Ast);
    let (rc, gas_c, fp_c, st_c) = run(ExecMode::Compiled);

    let label = format!("{transition} args={args:?} gas_limit={gas_limit}");
    assert_eq!(gas_a, gas_c, "gas diverged: {label}");
    assert_eq!(fp_a.reads, fp_c.reads, "read footprint diverged: {label}");
    assert_eq!(fp_a.writes, fp_c.writes, "write footprint diverged: {label}");
    assert_eq!(fp_a.conditions, fp_c.conditions, "branch trace diverged: {label}");
    assert_eq!(fp_a.accepts, fp_c.accepts, "accepts diverged: {label}");
    assert_eq!(fp_a.sends, fp_c.sends, "sends diverged: {label}");
    assert_eq!(fp_a.builtin_ops, fp_c.builtin_ops, "builtin trace diverged: {label}");
    assert_eq!(st_a, st_c, "post-state diverged: {label}");
    match (&ra, &rc) {
        (Ok(a), Ok(c)) => assert!(outcome_eq(a, c), "outcome diverged: {label}\n{a:?}\n{c:?}"),
        (Err(a), Err(c)) => {
            assert_eq!(a.to_string(), c.to_string(), "error diverged: {label}")
        }
        _ => panic!("result shape diverged: {label}\nast={ra:?}\ncompiled={rc:?}"),
    }
    // Atomicity discipline as in the real executor: commit only on success.
    if ra.is_ok() {
        st_a
    } else {
        state.clone()
    }
}

/// Every corpus transition must lower to compiled code. `ExecMode::Compiled`
/// errors with a distinctive message when a transition fell back, and that
/// check happens before argument binding — so probing with empty args (and
/// tolerating the resulting invocation errors) covers every transition
/// regardless of parameter types.
#[test]
fn every_corpus_transition_compiles() {
    for entry in scilla::corpus::all() {
        let contract = scilla::compile_str(entry.source)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", entry.name));
        contract.precompile();
        for t in &contract.contract().transitions {
            let mut st = InMemoryState::new();
            let ctx = TransitionContext {
                sender: addr(1),
                origin: addr(1),
                amount: 0,
                this_address: addr(0xCC),
                block_number: 1,
            };
            let mut gas = GasMeter::new(1_000_000);
            let r = contract.execute_mode(
                &mut st,
                &t.name.name,
                &[],
                &[],
                &ctx,
                &mut gas,
                None,
                ExecMode::Compiled,
            );
            if let Err(e) = r {
                assert!(
                    !e.to_string().contains("fell back"),
                    "{}::{} fell back to the AST walker",
                    entry.name,
                    t.name.name
                );
            }
        }
    }
}

/// Randomized differential sweep: pick a corpus contract, deploy it with
/// sampled parameters, then fire a sequence of transitions with typed
/// sampled arguments through both backends — at gas limits tight enough to
/// die mid-transition and roomy enough to finish — asserting bit-identical
/// behaviour at every step.
fn differential_sequence(contract_idx: usize, calls: &[(usize, u64, u8, u64)], gas_limit: u64) {
    let all = scilla::corpus::all();
    let entry = &all[contract_idx % all.len()];
    let contract = scilla::compile_str(entry.source).expect("corpus compiles");
    let Some(params) = sample_params(&contract, 7) else { return };
    let Ok(fields) = contract.init_fields(&params) else { return };
    let mut state = InMemoryState::from_fields(fields);

    for (t_idx, seed, sender, amount) in calls {
        let transitions = &contract.contract().transitions;
        if transitions.is_empty() {
            return;
        }
        let t = &transitions[t_idx % transitions.len()];
        let args: Option<Vec<(String, Value)>> = t
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| Some((p.name.name.clone(), sample_value(&p.ty, seed + i as u64)?)))
            .collect();
        let Some(args) = args else { continue };
        let ctx = TransitionContext {
            sender: addr(*sender),
            origin: addr(*sender),
            amount: *amount as u128,
            this_address: addr(0xCC),
            block_number: 1 + seed % 20,
        };
        state = differential_call(
            &contract,
            &params,
            &state,
            &t.name.name,
            &args,
            &ctx,
            gas_limit,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_matches_ast_on_corpus_sequences(
        contract_idx in 0usize..64,
        calls in prop::collection::vec(
            (0usize..12, 0u64..10_000, 0u8..6, 0u64..600),
            1..6,
        ),
    ) {
        differential_sequence(contract_idx, &calls, 1_000_000);
    }

    /// Tight gas limits force out-of-gas at arbitrary points; structural gas
    /// parity means both backends die at the identical charge with identical
    /// partial footprints.
    #[test]
    fn compiled_matches_ast_under_gas_exhaustion(
        contract_idx in 0usize..64,
        calls in prop::collection::vec(
            (0usize..12, 0u64..10_000, 0u8..6, 0u64..600),
            1..4,
        ),
        gas_limit in 51u64..400,
    ) {
        differential_sequence(contract_idx, &calls, gas_limit);
    }
}

/// A directed scenario with sends, events, accepts, map ops, and throws —
/// the full outcome surface — checked differentially step by step.
#[test]
fn htlc_differential_scenario() {
    let entry = scilla::corpus::get("HTLC").expect("corpus");
    let contract = scilla::compile_str(entry.source).expect("compiles");
    let params = vec![("init_fee_collector".to_string(), Value::address(addr(9)))];
    let mut state = InMemoryState::from_fields(contract.init_fields(&params).expect("init"));

    let preimage = Value::Str("secret".into());
    let hash = Value::ByStr(scilla::builtins::digest32(&preimage));
    let ctx = |sender: u8, amount: u128| TransitionContext {
        sender: addr(sender),
        origin: addr(sender),
        amount,
        this_address: addr(0xCC),
        block_number: 1,
    };

    state = differential_call(
        &contract,
        &params,
        &state,
        "NewLock",
        &[("hash".into(), hash.clone()), ("deadline".into(), Value::BNum(10))],
        &ctx(1, 500),
        1_000_000,
    );
    // Refund before expiry throws — identically on both backends.
    state = differential_call(
        &contract,
        &params,
        &state,
        "Refund",
        &[("hash".into(), hash.clone())],
        &ctx(1, 0),
        1_000_000,
    );
    state = differential_call(
        &contract,
        &params,
        &state,
        "Withdraw",
        &[("preimage".into(), preimage)],
        &ctx(2, 0),
        1_000_000,
    );
    assert_eq!(
        scilla::state::StateStore::get(&state, "lock_amounts".into(), &[hash]),
        None,
        "withdraw cleared the lock"
    );
}

/// Compiled execution really runs compiled code: with telemetry on, the
/// compiled-run counter advances when `ExecMode::Compiled` executes.
#[test]
fn compiled_mode_is_not_vacuous() {
    telemetry::set_enabled(true);
    let entry = scilla::corpus::get("HelloWorld").expect("corpus");
    let contract = scilla::compile_str(entry.source).expect("compiles");
    let params = vec![("hello_owner".to_string(), Value::address(addr(9)))];
    let mut state = InMemoryState::from_fields(contract.init_fields(&params).expect("init"));
    let ctx = TransitionContext {
        sender: addr(9),
        origin: addr(9),
        amount: 0,
        this_address: addr(0xCC),
        block_number: 1,
    };
    let runs_before = telemetry::registry().counter("scilla.compile.runs").get();
    let mut gas = GasMeter::new(1_000_000);
    contract
        .execute_mode(
            &mut state,
            "SetHello",
            &[("msg".to_string(), Value::Str("hei".into()))],
            &params,
            &ctx,
            &mut gas,
            None,
            ExecMode::Compiled,
        )
        .expect("runs compiled");
    let runs_after = telemetry::registry().counter("scilla.compile.runs").get();
    assert!(runs_after > runs_before, "compiled run counter did not advance");
}
