//! Generative properties of interprocedural summary composition.
//!
//! Two laws dispatch leans on (it instantiates each member's own signature
//! constraints in the member's frame, and acts only on a non-widened
//! composition):
//!
//! * **Members and frames** — a non-widened composition lists every frame
//!   of the chain, and each member's frame maps the member's names into the
//!   root's: the callee's `k` is the root's `who` (through the call-site
//!   binding), its `_sender` is the calling member, and its `_origin` is
//!   the root's. A missing member would let a composed chain under-lock; a
//!   wrong binding would lock the wrong component.
//! * **Monotonicity under callee widening** — growing a callee's summary
//!   (more effects, or collapse to ⊤) never un-widens the composition, and
//!   a ⊤ callee always widens it. A sound analysis losing precision may
//!   only make dispatch more conservative.

use cosplit_analysis::callgraph::{
    compose, Binding, CallSite, ContractCalls, MapDeployment, Recipient,
};
use cosplit_analysis::domain::{ContribSource, ContribType, Op, PseudoField};
use cosplit_analysis::effects::{Effect, TransitionSummary};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Pseudo-fields over the callee's single parameter `k` (which the call
/// site binds to the root's `who`) or whole fields.
fn pseudofield() -> impl Strategy<Value = PseudoField> {
    let field = prop_oneof![Just("greetings"), Just("total"), Just("log")];
    (field, any::<bool>()).prop_map(|(f, keyed)| {
        if keyed {
            PseudoField::entry(f, vec!["k".to_string()])
        } else {
            PseudoField::whole(f)
        }
    })
}

fn effect() -> impl Strategy<Value = Effect> {
    prop_oneof![
        pseudofield().prop_map(Effect::Read),
        pseudofield().prop_map(|pf| {
            Effect::Write(pf, ContribType::source(ContribSource::Param("k".into())))
        }),
        pseudofield().prop_map(|pf| {
            let own = ContribType::source(ContribSource::Field(pf.clone()))
                .with_op(Op::Builtin("add".into()));
            Effect::Write(pf, own)
        }),
        pseudofield().prop_map(|pf| {
            Effect::Condition(ContribType::source(ContribSource::Field(pf)))
        }),
        Just(Effect::AcceptFunds),
    ]
}

/// A Caller.Ping → Callee.Handle world with the given callee effects; the
/// call site binds the callee's `k` to the root's `who`.
fn world(callee_effects: Vec<Effect>) -> MapDeployment {
    let caller_summary = TransitionSummary {
        name: "Ping".into(),
        params: vec!["who".into(), "amt".into()],
        effects: vec![
            Effect::Write(
                PseudoField::entry("pings", vec!["who".to_string()]),
                ContribType::source(ContribSource::Param("amt".into())),
            ),
            Effect::Read(PseudoField::whole("paused")),
        ],
    };
    let caller_calls = ContractCalls {
        contract: "Caller".into(),
        params: vec!["sink".into()],
        immutable_fields: Default::default(),
        sites: vec![CallSite {
            transition: "Ping".into(),
            tag: Some("Handle".into()),
            recipient: Recipient::ContractParam("sink".into()),
            amount_is_zero: true,
            args: BTreeMap::from([("k".to_string(), Binding::Param("who".into()))]),
        }],
    };
    let callee_summary =
        TransitionSummary { name: "Handle".into(), params: vec!["k".into()], effects: callee_effects };
    let callee_calls = ContractCalls { contract: "Callee".into(), ..Default::default() };

    let mut dep = MapDeployment::default();
    dep.deploy("Caller", vec![caller_summary], caller_calls);
    dep.deploy("Callee", vec![callee_summary], callee_calls);
    dep.set_value("Caller", "sink", "Callee");
    dep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn composition_contains_every_member(effects in prop::collection::vec(effect(), 0..6)) {
        let dep = world(effects);
        let composed = compose(&dep, "Caller", "Ping").expect("root summary exists");
        prop_assert!(!composed.widened, "a fully-resolvable chain must not widen");
        prop_assert!(composed.is_chain());
        prop_assert!(composed.contains("Caller", "Ping"));
        prop_assert!(composed.contains("Callee", "Handle"));

        // The callee's frame, in the root's names.
        let callee = &composed.members[1];
        prop_assert_eq!(callee.caller, Some(0));
        let binding = |name: &str| callee.bindings.get(name).cloned();
        prop_assert_eq!(binding("k"), Some(Binding::Param("who".into())));
        prop_assert_eq!(binding("_sender"), Some(Binding::Caller(0)));
        prop_assert_eq!(binding("_origin"), Some(Binding::Param("_origin".into())));
    }

    #[test]
    fn widening_the_callee_never_shrinks_the_footprint(
        base in prop::collection::vec(effect(), 0..5),
        extra in prop::collection::vec(effect(), 1..4),
        to_top in any::<bool>(),
    ) {
        let small = compose(&world(base.clone()), "Caller", "Ping").expect("composes");
        let mut grown = base.clone();
        if to_top {
            grown.push(Effect::Top);
        }
        grown.extend(extra);
        let big = compose(&world(grown), "Caller", "Ping").expect("composes");

        let unwidened = small.widened && !big.widened;
        prop_assert!(!unwidened, "growing the callee un-widened the composition");
        if to_top {
            prop_assert!(big.widened, "a ⊤ callee must widen the composition");
        }
    }
}
