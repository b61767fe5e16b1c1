//! Analysis results on the five §5.2 evaluation contracts must reproduce the
//! paper's table: #transitions, largest good-enough signature, and number of
//! maximal good-enough signatures. The closing corpus sweep holds every
//! analysis product (signature, lint, blame, call graph) to
//! its corpus-wide invariants.

use cosplit_analysis::analysis::AnalysisMode;
use cosplit_analysis::audit::lint_contract;
use cosplit_analysis::callgraph::{CallGraph, ContractCalls, GraphContract};
use cosplit_analysis::ge::ge_stats;
use cosplit_analysis::signature::{Constraint, Join, WeakReads};
use cosplit_analysis::solver::AnalyzedContract;
use scilla::corpus;
use scilla::typechecker::CheckedModule;
use std::collections::BTreeMap;

fn checked(name: &str) -> CheckedModule {
    let entry = corpus::get(name).expect("corpus contract");
    let module = scilla::parser::parse_module(entry.source).expect("parses");
    scilla::typechecker::typecheck(module).expect("typechecks")
}

fn analyzed(name: &str) -> AnalyzedContract {
    AnalyzedContract::analyze(&checked(name))
}

/// The paper's numbers were produced by the Fig-6 single-pass accumulator, so
/// the table-reproduction tests pin that mode explicitly; the flow-sensitive
/// default is strictly more precise (see `refined_analysis_is_more_precise`).
fn analyzed_legacy(name: &str) -> AnalyzedContract {
    AnalyzedContract::analyze_with_mode(&checked(name), AnalysisMode::Legacy)
}

#[test]
fn paper_table_5_2_statistics() {
    // (name, #transitions, largest GES, #maximal GES) from paper §5.2.
    let expected = [
        ("FungibleToken", 10, 6, 2),
        ("Crowdfunding", 3, 2, 1),
        ("NonfungibleToken", 5, 3, 2),
        ("ProofIPFS", 10, 8, 2),
        ("UD_registry", 11, 6, 2),
    ];
    for (name, transitions, largest, maximal) in expected {
        let stats = ge_stats(&analyzed_legacy(name));
        assert_eq!(stats.transitions, transitions, "{name}: transition count");
        assert_eq!(stats.largest, largest, "{name}: largest GE signature (witness: {:?})", stats.largest_selection);
        assert_eq!(stats.maximal_count, maximal, "{name}: maximal GE signatures");
    }
}

#[test]
fn fungible_token_sharded_selection_from_the_paper() {
    // §5.2: "we shard Mint, Transfer and TransferFrom, but not
    // IncreaseAllowance, Burn, or other administrative transitions".
    let a = analyzed("FungibleToken");
    let selection: Vec<String> =
        ["Mint", "Transfer", "TransferFrom"].iter().map(|s| s.to_string()).collect();
    let sig = a.query(&selection, &WeakReads::AcceptAll);
    for t in &sig.transitions {
        assert!(t.is_shardable(), "{} should shard", t.name);
    }
    assert_eq!(sig.joins["balances"], Join::IntMerge);
    assert_eq!(sig.joins["allowances"], Join::IntMerge);
    assert_eq!(sig.joins["total_supply"], Join::IntMerge);
    // Mint requires no ownership at all: pure commutative additions.
    let mint = sig.transition("Mint").unwrap();
    assert!(mint.constraints.iter().all(|c| !matches!(c, Constraint::Owns(_))), "{mint:?}");
}

#[test]
fn nft_burn_is_unshardable_and_transfer_is_repaired() {
    let a = analyzed_legacy("NonfungibleToken");
    let sig = a.query(
        &["Mint".into(), "Transfer".into(), "Burn".into()],
        &WeakReads::AcceptAll,
    );
    assert!(!sig.transition("Burn").unwrap().is_shardable());
    // The compare-and-swap rewrite (paper §6) keeps Transfer shardable.
    assert!(sig.transition("Transfer").unwrap().is_shardable());
    assert!(sig.transition("Mint").unwrap().is_shardable());
}

#[test]
fn refined_analysis_is_more_precise_than_the_paper_table() {
    // Store forwarding resolves NFT Burn's read-after-write, so the refined
    // default localizes the damage: Burn sheds its global ⊤ and shards with
    // (at worst) whole-field ownership.
    let a = analyzed("NonfungibleToken");
    let burn = a.summary("Burn").unwrap();
    assert!(!burn.has_top(), "refined mode never emits global ⊤");
    let sig = a.query(
        &["Mint".into(), "Transfer".into(), "Burn".into()],
        &WeakReads::AcceptAll,
    );
    assert!(sig.transition("Burn").unwrap().is_shardable());
    // The good-enough frontier widens accordingly: every largest GE
    // signature under the refined analysis is at least as large as the
    // paper's legacy number.
    for (name, legacy_largest) in
        [("FungibleToken", 6), ("Crowdfunding", 2), ("NonfungibleToken", 3), ("ProofIPFS", 8), ("UD_registry", 6)]
    {
        let stats = ge_stats(&analyzed(name));
        assert!(
            stats.largest >= legacy_largest,
            "{name}: refined largest GES {} < legacy {legacy_largest}",
            stats.largest
        );
    }
}

#[test]
fn ud_registry_bestow_and_configure_shard_together() {
    let a = analyzed("UD_registry");
    let sig = a.query(
        &["Bestow".into(), "Configure".into(), "ConfigureRecord".into()],
        &WeakReads::AcceptAll,
    );
    for t in &sig.transitions {
        assert!(t.is_shardable(), "{}: {:?}", t.name, t.constraints);
    }
    // Ownership is per-domain (entry-level), so different domains can be
    // processed by different shards.
    for t in &sig.transitions {
        for c in &t.constraints {
            if let Constraint::Owns(pf) = c {
                assert!(!pf.is_whole_field(), "{}: whole-field ownership of {}", t.name, pf);
            }
        }
    }
}

#[test]
fn proof_ipfs_register_needs_two_components() {
    let a = analyzed("ProofIPFS");
    let sig = a.query(&["Register".into()], &WeakReads::AcceptAll);
    let reg = sig.transition("Register").unwrap();
    assert!(reg.is_shardable());
    // The two separately-owned state components the paper blames for the
    // limited scaling of the "ProofIPFS register" workload (Fig. 14).
    let owned_fields: Vec<&str> = reg
        .constraints
        .iter()
        .filter_map(|c| match c {
            Constraint::Owns(pf) => Some(pf.field.as_str()),
            _ => None,
        })
        .collect();
    assert!(owned_fields.contains(&"registry"), "{owned_fields:?}");
    assert!(owned_fields.contains(&"items"), "{owned_fields:?}");
}

/// The lint census over the 49-contract mainnet sample, per rule. A drift in
/// either direction means a rule changed behaviour — recheck the findings by
/// hand and update both this table and the DESIGN.md §6c numbers.
const EXPECTED_CENSUS: [(&str, usize); 5] = [
    ("accept-no-balance-effect", 4),
    ("dead-pseudofield", 1),
    ("dynamic-recipient", 4),
    ("top-summary", 12),
    ("write-never-read-back", 43),
];

/// Every analysis product derives for every corpus contract and keeps the
/// corpus-wide invariants: the lint census, no
/// global ⊤ under the refined analysis, every `⊤[field]` blamed, and a ⊤
/// population strictly below the legacy accumulator's.
#[test]
fn whole_mainnet_sample_analyses_cleanly() {
    let mut census: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut top_legacy, mut top_field_refined) = (0, 0);
    let mut graph_inputs = Vec::new();
    // The call graph also takes the relay harness pair, which sits outside
    // the mainnet sample; everything else is per sample contract.
    for entry in corpus::all() {
        let checked = checked(entry.name);
        let a = AnalyzedContract::analyze(&checked);
        let names = a.transition_names();
        graph_inputs.push(GraphContract {
            name: entry.name.to_string(),
            transitions: names.clone(),
            calls: ContractCalls::extract(&checked, &a.summaries),
        });
        if !entry.mainnet_sample {
            continue;
        }
        assert!(!a.summaries.is_empty(), "{} has no transitions", entry.name);
        // Querying the full selection must never panic and must produce a
        // well-formed signature.
        let sig = a.query(&names, &WeakReads::AcceptAll);
        assert_eq!(sig.transitions.len(), names.len(), "{}", entry.name);

        for f in lint_contract(&checked, &a) {
            assert!(
                !(f.rule == "top-summary" && f.message.contains("unanalysed construct")),
                "{}: a ⊤ summary without a blame cause: {}",
                entry.name,
                f.message
            );
            *census.entry(f.rule).or_default() += 1;
        }

        for s in &a.summaries {
            assert!(!s.has_top(), "{}.{}: refined summary went globally ⊤", entry.name, s.name);
            top_field_refined += usize::from(s.top_fields().next().is_some());
            for pf in s.top_fields() {
                assert!(
                    a.blames.iter().any(|b| b.transition == s.name
                        && b.field.as_ref().is_some_and(|f| f.field == pf.field)),
                    "{}.{}: ⊤[{pf}] has no blame cause naming its field",
                    entry.name,
                    s.name
                );
            }
        }
        let legacy = AnalyzedContract::analyze_with_mode(&checked, AnalysisMode::Legacy);
        top_legacy += legacy.summaries.iter().filter(|s| s.has_top()).count();
    }
    assert_eq!(census, BTreeMap::from(EXPECTED_CENSUS));
    assert!(top_field_refined < top_legacy, "⊤ population: {top_field_refined} vs {top_legacy}");

    let graph = CallGraph::build(&graph_inputs);
    assert_eq!(graph.contracts.len(), corpus::all().len());
    assert!(!graph.edges.is_empty(), "the corpus has send sites");
    assert!(graph.to_dot().contains("digraph"));
}
