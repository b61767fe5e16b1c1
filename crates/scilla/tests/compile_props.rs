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

/// Library calls the corpus sampler may not reach. The compiled backend
/// lowers a saturated call of a library closure into the caller's frame;
/// everything else (partial and over-application, closures held in locals)
/// applies through the walker. `Rematch` reads a scrutinee again after
/// matching on it. Each case runs at every gas limit from 0 to one past
/// what the call needs, so exhaustion lands at every point inside the
/// lowered bodies too.
const LIBRARY_CALLS: &str = r#"
library LibCalls

let nil_msg = Nil {Message}
let one_msg = fun (m : Message) => Cons {Message} m nil_msg
let two_msg =
  fun (m1 : Message) =>
  fun (m2 : Message) =>
    let t = one_msg m2 in
    Cons {Message} m1 t
let one = Uint128 1
let add_two =
  fun (a : Uint128) =>
  fun (b : Uint128) =>
    builtin add a b
let add_three =
  fun (a : Uint128) =>
  fun (b : Uint128) =>
  fun (c : Uint128) =>
    let s = add_two a b in
    add_two s c
let bump = fun (x : Uint128) => builtin add x one
let inc = add_two one
let adder =
  fun (a : Uint128) =>
    let k = builtin add a one in
    fun (b : Uint128) => builtin add k b
let twice =
  fun (f : Uint128 -> Uint128) =>
  fun (x : Uint128) =>
    let y = f x in
    f y
let or_default =
  fun (o : Option Uint128) =>
  fun (d : Uint128) =>
    match o with
    | Some v => bump v
    | None => d
    end

contract LibCalls ()

field total : Uint128 = Uint128 0
field counts : Map ByStr20 Uint128 = Emp ByStr20 Uint128

transition Partial (x : Uint128, y : Uint128)
  f = add_two x;
  r = f y;
  total := r
end

transition Over (x : Uint128, y : Uint128)
  r = adder x y;
  total := r
end

transition Nested (x : Uint128, y : Uint128, z : Uint128)
  r = add_three x y z;
  total := r;
  zero = Uint128 0;
  a = {_tag : "A"; _recipient : _sender; _amount : zero; r : r};
  b = {_tag : "B"; _recipient : _sender; _amount : zero};
  msgs = two_msg a b;
  send msgs
end

transition Shadow (x : Uint128)
  one = Uint128 1000;
  nil_msg = Uint128 7;
  r = bump x;
  s = inc r;
  c <- counts[_sender];
  n = or_default c one;
  counts[_sender] := n;
  total := s
end

transition Rematch (x : Uint128)
  o = Some {Uint128} x;
  y = match o with
    | Some v => v
    | None => x
    end;
  match o with
  | Some w =>
    z = or_default o y;
    total := z
  | None =>
    throw
  end
end

transition Higher (x : Uint128)
  r = twice bump x;
  total := r
end
"#;

#[test]
fn library_calls_match_the_walker_at_every_gas_limit() {
    let contract = scilla::compile_str(LIBRARY_CALLS).expect("compiles");
    let mut state = InMemoryState::from_fields(contract.init_fields(&[]).expect("init"));
    let ctx = TransitionContext {
        sender: addr(3),
        origin: addr(3),
        amount: 0,
        this_address: addr(0xCC),
        block_number: 1,
    };
    let u = |n| Value::Uint(128, n);
    let calls: [(&str, Vec<(String, Value)>); 7] = [
        ("Partial", vec![("x".into(), u(2)), ("y".into(), u(40))]),
        ("Over", vec![("x".into(), u(2)), ("y".into(), u(40))]),
        ("Nested", vec![("x".into(), u(1)), ("y".into(), u(2)), ("z".into(), u(3))]),
        ("Shadow", vec![("x".into(), u(5))]),
        ("Shadow", vec![("x".into(), u(6))]),
        ("Rematch", vec![("x".into(), u(4))]),
        ("Higher", vec![("x".into(), u(5))]),
    ];
    for (transition, args) in &calls {
        let mut gas = GasMeter::new(1_000_000);
        let mut st = state.clone();
        contract
            .execute_mode(&mut st, transition, args, &[], &ctx, &mut gas, None, ExecMode::Ast)
            .unwrap_or_else(|e| panic!("{transition} fails on the walker: {e}"));
        for limit in 0..=gas.used() + 1 {
            differential_call(&contract, &[], &state, transition, args, &ctx, limit);
        }
        state = differential_call(&contract, &[], &state, transition, args, &ctx, 1_000_000);
    }
    let get = |field: &str, keys: &[Value]| {
        scilla::state::StateStore::get(&state, field.into(), keys)
    };
    // Higher: bump (bump 5). The shadowing locals never reach a library
    // body: Shadow's `bump` and `inc` add the library's `one`, and the
    // second call's `or_default` bumps the stored 1000.
    assert_eq!(get("total", &[]), Some(u(7)));
    assert_eq!(get("counts", &[Value::address(addr(3))]), Some(u(1001)));
}

/// The calls that dominate the benchmark workloads lower completely: a
/// compiled FungibleToken `Transfer` (`add_or_init`, then the curried
/// `two_msg`), NonfungibleToken `Mint` and ProofIPFS `Register` (both
/// `add_or_init`) apply no closure through the walker, which the same
/// calls on the walker do.
#[test]
fn library_calls_do_not_reenter_the_walker() {
    let ctx = |sender: u8| TransitionContext {
        sender: addr(sender),
        origin: addr(sender),
        amount: 0,
        this_address: addr(0xCC),
        block_number: 1,
    };
    type Args = Vec<(String, Value)>;
    type Calls = Vec<(u8, &'static str, Args)>;
    let owner = Value::address(addr(9));
    let named = |extra: Args| {
        let mut params = vec![("contract_owner".to_string(), owner.clone())];
        params.push(("name".into(), Value::Str("N".into())));
        params.push(("symbol".into(), Value::Str("S".into())));
        params.extend(extra);
        params
    };
    let cases: [(&str, Args, Calls); 3] = [
        (
            "FungibleToken",
            named(vec![("init_supply".into(), Value::Uint(128, 0))]),
            vec![
                (9, "Mint", vec![
                    ("to".into(), Value::address(addr(1))),
                    ("amount".into(), Value::Uint(128, 100)),
                ]),
                (1, "Transfer", vec![
                    ("to".into(), Value::address(addr(2))),
                    ("amount".into(), Value::Uint(128, 10)),
                ]),
            ],
        ),
        (
            "NonfungibleToken",
            named(vec![]),
            vec![(9, "Mint", vec![
                ("to".into(), Value::address(addr(1))),
                ("token_id".into(), Value::Uint(256, 7)),
            ])],
        ),
        (
            "ProofIPFS",
            vec![("initial_admin".to_string(), owner.clone())],
            vec![(1, "Register", vec![("ipfs_hash".into(), Value::Str("Qm1".into()))])],
        ),
    ];
    for (name, params, calls) in cases {
        let contract = scilla::compile_str(scilla::corpus::get(name).expect("corpus").source)
            .expect("compiles");
        let mut state = InMemoryState::from_fields(contract.init_fields(&params).expect("init"));
        for (sender, transition, args) in calls {
            let applies = |mode: ExecMode| {
                let mut st = state.clone();
                let before = scilla::interpreter::walker_applies();
                let mut gas = GasMeter::new(1_000_000);
                contract
                    .execute_mode(&mut st, transition, &args, &params, &ctx(sender), &mut gas, None, mode)
                    .unwrap_or_else(|e| panic!("{name}::{transition} fails: {e}"));
                (scilla::interpreter::walker_applies() - before, st)
            };
            let (on_walker, _) = applies(ExecMode::Ast);
            let (compiled, next) = applies(ExecMode::Compiled);
            assert!(on_walker > 0, "{name}::{transition} makes no library call");
            assert_eq!(compiled, 0, "{name}::{transition} applied {compiled} closures on the walker");
            state = next;
        }
    }
}
