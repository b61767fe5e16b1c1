//! Generative properties over runtime values: JSON wire round-trips, total
//! ordering laws, one byte-string order for both representations, and
//! interpreter determinism.

use proptest::prelude::*;
use scilla::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Byte strings of length 0–40, biased to 20 (addresses) and 32 (hashes).
fn byte_string() -> impl Strategy<Value = Vec<u8>> {
    let len = prop_oneof![0usize..41, Just(20usize), Just(32usize)];
    (len, prop::collection::vec(any::<u8>(), 40)).prop_map(|(n, mut bytes)| {
        bytes.truncate(n);
        bytes
    })
}

/// Random first-order values (the storable fragment).
fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        (prop_oneof![Just(32u32), Just(64), Just(128)], any::<u64>())
            .prop_map(|(w, n)| Value::Uint(w, n as u128)),
        (prop_oneof![Just(32u32), Just(64), Just(128)], any::<i64>())
            .prop_map(|(w, n)| Value::Int(w, n as i128)),
        "[ -~]{0,12}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..24).prop_map(Value::ByStr),
        byte_string().prop_map(|b| Value::bystr(&b)),
        any::<u32>().prop_map(|n| Value::BNum(n as u64)),
        Just(Value::bool(true)),
        Just(Value::none()),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::btree_map(inner.clone(), inner.clone(), 0..4)
                .prop_map(Value::map_from),
            (prop_oneof![Just("Some"), Just("Pair"), Just("Cons")], prop::collection::vec(inner.clone(), 1..3))
                .prop_map(|(c, args)| Value::Adt { ctor: scilla::intern::intern(c), args }),
            prop::collection::btree_map("[a-z_]{1,8}", inner, 0..3)
                .prop_map(|m| {
                    Value::Msg(Arc::new(m.into_iter().map(|(k, v): (String, Value)| (scilla::intern::intern(&k), v)).collect::<BTreeMap<_, _>>()))
                }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_roundtrips_every_first_order_value(v in value()) {
        let json = scilla::wire::to_json(&v);
        let back = scilla::wire::from_json(&json).expect("canonical form parses");
        prop_assert_eq!(v, back);
    }

    #[test]
    fn ordering_is_total_and_antisymmetric(a in value(), b in value(), c in value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.cmp(&b).reverse(), b.cmp(&a));
        // Transitivity spot-check.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    #[test]
    fn map_insert_lookup_agree_with_ordering(k1 in value(), k2 in value()) {
        let mut m = BTreeMap::new();
        m.insert(k1.clone(), Value::Uint(128, 1));
        m.insert(k2.clone(), Value::Uint(128, 2));
        if k1 == k2 {
            prop_assert_eq!(m.len(), 1);
        } else {
            prop_assert_eq!(m.get(&k1), Some(&Value::Uint(128, 1)));
            prop_assert_eq!(m.get(&k2), Some(&Value::Uint(128, 2)));
        }
    }
}

/// The inline 20-byte form and the heap form are one value: equal, ordered
/// alike against every other value, printed and encoded alike.
mod one_byte_string_order {
    use super::*;
    use scilla::wire::{from_json, to_json};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn canonical_and_heap_forms_are_equal(b in byte_string()) {
            let (canonical, heap) = (Value::bystr(&b), Value::ByStr(b.clone()));
            prop_assert_eq!(matches!(canonical, Value::ByStr20(_)), b.len() == 20);
            prop_assert_eq!(canonical.cmp(&heap), std::cmp::Ordering::Equal);
            prop_assert_eq!(heap.cmp(&canonical), std::cmp::Ordering::Equal);
            prop_assert_eq!(canonical.as_bytes(), Some(b.as_slice()));
        }

        #[test]
        fn both_forms_order_like_the_heap_form(b in byte_string(), other in value()) {
            let heap = Value::ByStr(b.clone());
            let canonical = Value::bystr(&b);
            prop_assert_eq!(canonical.cmp(&other), heap.cmp(&other));
            prop_assert_eq!(other.cmp(&canonical), other.cmp(&heap));
        }

        #[test]
        fn byte_strings_order_by_their_bytes(a in byte_string(), b in byte_string()) {
            let forms = |x: &[u8]| [Value::bystr(x), Value::ByStr(x.to_vec())];
            for va in forms(&a) {
                for vb in forms(&b) {
                    prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
                }
            }
        }

        #[test]
        fn both_forms_print_and_encode_alike(b in byte_string()) {
            let (canonical, heap) = (Value::bystr(&b), Value::ByStr(b.clone()));
            prop_assert_eq!(canonical.to_string(), heap.to_string());
            prop_assert_eq!(to_json(&canonical), to_json(&heap));
            let back = from_json(&to_json(&heap)).expect("canonical form parses");
            prop_assert_eq!(matches!(back, Value::ByStr20(_)), b.len() == 20);
            prop_assert_eq!(back, heap);
        }
    }
}

mod interpreter_determinism {
    use super::*;
    use scilla::gas::GasMeter;
    use scilla::interpreter::TransitionContext;
    use scilla::state::InMemoryState;

    const COUNTER: &str = r#"
        contract Counter ()
        field counts : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Add (v : Uint128)
          c <- counts[_sender];
          nc = match c with
            | Some n => builtin add n v
            | None => v
            end;
          counts[_sender] := nc
        end
        transition Reset ()
          delete counts[_sender]
        end
    "#;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Same transaction sequence ⇒ identical final state *and* identical
        /// gas consumption — the determinism every replicating miner needs.
        #[test]
        fn replays_are_bit_identical(
            ops in prop::collection::vec((0u8..4, 0u128..1000, any::<bool>()), 1..30)
        ) {
            let run = || {
                let c = scilla::compile_str(COUNTER).unwrap();
                let mut state = InMemoryState::from_fields(c.init_fields(&[]).unwrap());
                let mut total_gas = 0u64;
                for (who, v, reset) in &ops {
                    let ctx = TransitionContext { sender: [*who; 20], ..TransitionContext::zeroed() };
                    let mut gas = GasMeter::new(100_000);
                    let r = if *reset {
                        c.execute(&mut state, "Reset", &[], &[], &ctx, &mut gas)
                    } else {
                        c.execute(
                            &mut state,
                            "Add",
                            &[("v".into(), Value::Uint(128, *v))],
                            &[],
                            &ctx,
                            &mut gas,
                        )
                    };
                    r.expect("counter ops cannot fail");
                    total_gas += gas.used();
                }
                (state, total_gas)
            };
            let (s1, g1) = run();
            let (s2, g2) = run();
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(g1, g2);
        }
    }
}
