//! Round-trips of the JSON wire forms exchanged with the blockchain nodes:
//! sharding signatures (deployment artefact) and audit violations (the
//! sanitizer's replayable repro records). Every decoder also survives
//! byte-mutated encodings of the whole corpus without panicking.

use cosplit_analysis::audit::{AuditViolation, ViolationKind};
use cosplit_analysis::blame::BlameCause;
use cosplit_analysis::callgraph::{CallGraph, ContractCalls, GraphContract};
use cosplit_analysis::domain::PseudoField;
use cosplit_analysis::signature::{
    Constraint, Join, ShardingSignature, TransitionConstraints, WeakReads,
};
use cosplit_analysis::solver::AnalyzedContract;
use scilla::span::Span;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn analyzed(src: &str) -> AnalyzedContract {
    let checked =
        scilla::typechecker::typecheck(scilla::parser::parse_module(src).unwrap()).unwrap();
    AnalyzedContract::analyze(&checked)
}

const TOKEN: &str = r#"
    library L
    contract Token ()
    field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
    field total : Uint128 = Uint128 0
    transition Transfer (to : ByStr20, amount : Uint128)
      b <- balances[_sender];
      match b with
      | Some v =>
        nb = builtin sub v amount;
        balances[_sender] := nb;
        t <- balances[to];
        nt = match t with
          | Some u => builtin add u amount
          | None => amount
          end;
        balances[to] := nt
      | None =>
      end
    end
    transition CheckTotal ()
      t <- total;
      total := t
    end
"#;

fn roundtrip(sig: &ShardingSignature) -> ShardingSignature {
    let json = sig.to_json();
    ShardingSignature::from_json(&json)
        .unwrap_or_else(|e| panic!("round-trip failed: {e}\n{json}"))
}

#[test]
fn derived_signature_roundtrips_with_accept_all() {
    let sig = analyzed(TOKEN)
        .query(&["Transfer".into(), "CheckTotal".into()], &WeakReads::AcceptAll);
    assert_eq!(roundtrip(&sig), sig);
}

#[test]
fn derived_signature_roundtrips_with_declined_weak_reads() {
    // Declining every weak read exercises the revocation path: the resulting
    // signature must still round-trip (different joins, empty weak_reads).
    let a = analyzed(TOKEN);
    let names = vec!["Transfer".to_string(), "CheckTotal".to_string()];
    let declined = a.query(&names, &WeakReads::Fields(BTreeSet::new()));
    assert_eq!(roundtrip(&declined), declined);

    let accepted = a.query(&names, &WeakReads::AcceptAll);
    assert_eq!(roundtrip(&accepted), accepted);

    // The two variants must stay distinguishable on the wire.
    if accepted != declined {
        assert_ne!(accepted.to_json(), declined.to_json());
    }
}

#[test]
fn derived_signature_roundtrips_with_selective_weak_reads() {
    let fields: BTreeSet<String> = ["balances".to_string(), "total".to_string()].into();
    let sig = analyzed(TOKEN).query(
        &["Transfer".into(), "CheckTotal".into()],
        &WeakReads::Fields(fields),
    );
    assert_eq!(roundtrip(&sig), sig);
}

#[test]
fn hand_built_signature_with_every_constraint_roundtrips() {
    let sig = ShardingSignature {
        transitions: vec![
            TransitionConstraints {
                name: "A".into(),
                params: vec!["x".into(), "y".into()],
                constraints: [
                    Constraint::Owns(PseudoField::whole("f")),
                    Constraint::Owns(PseudoField::entry("m", vec!["x".into(), "y".into()])),
                    Constraint::UserAddr("x".into()),
                    Constraint::NoAliases(vec!["x".into()], vec!["y".into()]),
                    Constraint::SenderShard,
                    Constraint::ContractShard,
                ]
                .into_iter()
                .collect(),
            },
            TransitionConstraints {
                name: "B".into(),
                params: vec![],
                constraints: [Constraint::Unsat].into_iter().collect(),
            },
        ],
        joins: [("f".to_string(), Join::OwnOverwrite), ("m".to_string(), Join::IntMerge)]
            .into_iter()
            .collect(),
        weak_reads: ["f".to_string()].into_iter().collect(),
    };
    assert_eq!(roundtrip(&sig), sig);
}

#[test]
fn violation_roundtrips_for_every_kind() {
    for (i, kind) in ViolationKind::all().into_iter().enumerate() {
        let v = AuditViolation {
            kind,
            transition: format!("T{i}"),
            pseudofield: Some(PseudoField::entry("balances", vec!["who".into()])),
            concrete: "balances[0x0101]".into(),
            abstract_op: Some("{add, sub}".into()),
            observed_op: Some("set".into()),
            span: Span { start: 10 + i, end: 20 + i, line: 3, col: 7 },
        };
        let back = AuditViolation::from_json(&v.to_json())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(back, v, "{kind}");
    }
}

#[test]
fn violation_roundtrips_with_absent_optionals() {
    let v = AuditViolation {
        kind: ViolationKind::UnsummarisedAccept,
        transition: "Deposit".into(),
        pseudofield: None,
        concrete: "accept".into(),
        abstract_op: None,
        observed_op: None,
        span: Span::dummy(),
    };
    let json = v.to_json();
    assert_eq!(AuditViolation::from_json(&json).unwrap(), v);

    // Whole-field pseudo-field (empty key list) survives too.
    let v = AuditViolation {
        pseudofield: Some(PseudoField::whole("pot")),
        ..v
    };
    assert_eq!(AuditViolation::from_json(&v.to_json()).unwrap(), v);
}

#[test]
fn violation_parse_rejects_malformed_input() {
    assert!(AuditViolation::from_json("not json").is_err());
    assert!(AuditViolation::from_json("{}").is_err());
    assert!(AuditViolation::from_json(
        r#"{"kind":"NoSuchKind","transition":"T","concrete":"x",
            "span":{"start":0,"end":0,"line":0,"col":0}}"#
    )
    .is_err());
    // A missing span is an error, not a panic.
    assert!(AuditViolation::from_json(r#"{"kind":"UnsummarisedRead","transition":"T","concrete":"x"}"#).is_err());
}

#[test]
fn kind_names_are_stable_and_distinct() {
    let names: BTreeSet<&str> = ViolationKind::all().iter().map(|k| k.as_str()).collect();
    assert_eq!(names.len(), ViolationKind::all().len());
    // Display matches the wire name (repro artefacts grep on it).
    for k in ViolationKind::all() {
        assert_eq!(k.to_string(), k.as_str());
    }
}

/// `n` byte mutations of a valid encoding, each an overwrite, a deletion, an
/// insertion or a truncation at a position drawn from a SplitMix64 stream.
/// A mutation that splits a UTF-8 sequence decodes lossily, as a node
/// reading bytes off the wire would.
fn mutants(json: &str, seed: u64, n: usize) -> Vec<String> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    // Mostly JSON-grammar bytes, so most mutants break the structure rather
    // than only a string's contents.
    const BYTES: &[u8] = b"{}[]\":,0-9eE.ntf \\\x7f\xff";
    (0..n)
        .map(|_| {
            let mut bytes = json.as_bytes().to_vec();
            let at = (next() % bytes.len() as u64) as usize;
            let byte = BYTES[(next() % BYTES.len() as u64) as usize];
            match next() % 4 {
                0 => bytes[at] = byte,
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, byte),
                _ => bytes.truncate(at),
            }
            String::from_utf8_lossy(&bytes).into_owned()
        })
        .collect()
}

/// Feeds every mutant of `json` to `decode`: it must return, never panic,
/// and whatever it accepts must survive its own wire form.
fn survives_mutation<T: PartialEq + Debug, E: Debug>(
    what: &str,
    json: &str,
    decode: impl Fn(&str) -> Result<T, E>,
    encode: impl Fn(&T) -> String,
) {
    let seed = json
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    for m in mutants(json, seed, 100) {
        let decoded = catch_unwind(AssertUnwindSafe(|| decode(&m)))
            .unwrap_or_else(|_| panic!("{what}: decoder panicked on {m}"));
        if let Ok(v) = decoded {
            let again = decode(&encode(&v));
            let stable = again.as_ref().is_ok_and(|w| *w == v);
            assert!(stable, "{what}: {m} decoded to {v:?}, re-read as {again:?}");
        }
    }
}

#[test]
fn decoders_survive_byte_mutations_of_every_corpus_encoding() {
    let mut graph_inputs = Vec::new();
    for (i, entry) in scilla::corpus::all().iter().enumerate() {
        let module = scilla::parser::parse_module(entry.source).expect("corpus parses");
        let checked = scilla::typechecker::typecheck(module).expect("corpus typechecks");
        let a = AnalyzedContract::analyze(&checked);
        let names = a.transition_names();
        let sig = a.query(&names, &WeakReads::AcceptAll);
        let what = format!("{} signature", entry.name);
        survives_mutation(&what, &sig.to_json(), ShardingSignature::from_json, |s| s.to_json());
        for b in &a.blames {
            let what = format!("{} blame", entry.name);
            survives_mutation(&what, &b.to_json(), BlameCause::from_json, |b| b.to_json());
        }
        // One violation per contract, on its first transition that owns a
        // pseudo-field; the kinds take turns across the corpus.
        let owned = sig.transitions.iter().find_map(|t| {
            t.constraints.iter().find_map(|c| match c {
                Constraint::Owns(pf) => Some((t, pf.clone())),
                _ => None,
            })
        });
        if let Some((t, pf)) = owned {
            let kinds = ViolationKind::all();
            let v = AuditViolation {
                kind: kinds[i % kinds.len()],
                transition: t.name.clone(),
                concrete: pf.to_string(),
                pseudofield: Some(pf),
                abstract_op: Some("{add, sub}".into()),
                observed_op: Some("set".into()),
                span: Span { start: 1, end: 9, line: 2, col: 3 },
            };
            let what = format!("{} violation", entry.name);
            survives_mutation(&what, &v.to_json(), AuditViolation::from_json, |v| v.to_json());
        }
        graph_inputs.push(GraphContract {
            name: entry.name.to_string(),
            transitions: names,
            calls: ContractCalls::extract(&checked, &a.summaries),
        });
    }
    let graph = CallGraph::build(&graph_inputs);
    survives_mutation("corpus call graph", &graph.to_json(), CallGraph::from_json, |g| g.to_json());
}
