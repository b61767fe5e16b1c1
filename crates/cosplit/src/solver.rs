//! The sharding query solver (paper Fig. 11).
//!
//! In offline mode a contract developer runs the analyser once to obtain
//! transition summaries, then queries the solver with a selection of
//! transitions and a set of weak-read fields, receiving a sharding signature
//! `(oc, ⊎f)`. In online mode miners re-run the same pipeline to validate a
//! submitted signature.

use crate::analysis::{analyze_contract, AnalysisMode};
use crate::blame::BlameCause;
use crate::effects::TransitionSummary;
use crate::signature::{derive_signature, ShardingSignature, WeakReads};
use scilla::typechecker::CheckedModule;

/// A contract's analysis result: one effect summary per transition, plus the
/// metadata queries need.
#[derive(Debug, Clone)]
pub struct AnalyzedContract {
    /// Contract name.
    pub name: String,
    /// Per-transition effect summaries, in declaration order.
    pub summaries: Vec<TransitionSummary>,
    /// Mutable field names, in declaration order.
    pub field_names: Vec<String>,
    /// Every precision loss the analysis recorded, across all transitions.
    pub blames: Vec<BlameCause>,
}

impl AnalyzedContract {
    /// Runs the CoSplit analysis (the refined mode) on a checked contract.
    ///
    /// # Examples
    ///
    /// ```
    /// let src = r#"
    ///   contract C ()
    ///   field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
    ///   transition Put (k : ByStr20, v : Uint128)
    ///     m[k] := v
    ///   end
    /// "#;
    /// let checked = scilla::typechecker::typecheck(scilla::parser::parse_module(src).unwrap()).unwrap();
    /// let analyzed = cosplit_analysis::solver::AnalyzedContract::analyze(&checked);
    /// let sig = analyzed.query(&["Put".into()], &cosplit_analysis::signature::WeakReads::AcceptAll);
    /// assert!(sig.transition("Put").unwrap().is_shardable());
    /// ```
    pub fn analyze(checked: &CheckedModule) -> Self {
        Self::analyze_with_mode(checked, AnalysisMode::Refined)
    }

    /// Like [`Self::analyze`], but with an explicit analysis mode (used by
    /// benchmarks and the paper-table tests, which pin the legacy Fig-6
    /// accumulator's behaviour).
    pub fn analyze_with_mode(checked: &CheckedModule, mode: AnalysisMode) -> Self {
        let mut _span = telemetry::span!("cosplit.analysis.analyze_duration");
        _span.attr("contract", checked.contract().name.sym.as_str());
        let analysis = analyze_contract(checked, mode);
        let analyzed = AnalyzedContract {
            name: checked.contract().name.name.clone(),
            summaries: analysis.summaries,
            field_names: checked.contract().fields.iter().map(|f| f.name.name.clone()).collect(),
            blames: analysis.blames,
        };
        if telemetry::enabled() {
            telemetry::counter!("cosplit.analysis.contracts_analyzed").inc();
            telemetry::counter!("cosplit.analysis.transitions_summarized")
                .add(analyzed.summaries.len() as u64);
            for s in &analyzed.summaries {
                telemetry::histogram!("cosplit.analysis.summary_size", telemetry::SIZE_BUCKETS)
                    .record(s.effects.len() as u64);
            }
        }
        analyzed
    }

    /// Names of all transitions.
    pub fn transition_names(&self) -> Vec<String> {
        self.summaries.iter().map(|s| s.name.clone()).collect()
    }

    /// Looks up one transition's summary.
    pub fn summary(&self, name: &str) -> Option<&TransitionSummary> {
        self.summaries.iter().find(|s| s.name == name)
    }

    /// Derives the sharding signature for a selection of transitions
    /// (paper Fig. 11: the sharding query solver).
    pub fn query(&self, selected: &[String], weak_reads: &WeakReads) -> ShardingSignature {
        let mut _span = telemetry::span!("cosplit.analysis.query_duration");
        _span.attr("contract", &self.name);
        _span.attr("selected", selected.len());
        let sig = derive_signature(&self.summaries, selected, weak_reads);
        if telemetry::enabled() {
            telemetry::counter!("cosplit.analysis.queries").inc();
            let constraints: usize = sig.transitions.iter().map(|t| t.constraints.len()).sum();
            telemetry::histogram!("cosplit.analysis.signature_constraints", telemetry::SIZE_BUCKETS)
                .record(constraints as u64);
        }
        sig
    }

    /// Validates a submitted signature the way miners do on deployment
    /// (paper §4.3): re-derive from the selection recorded in the signature
    /// and compare.
    pub fn validate(&self, submitted: &ShardingSignature) -> bool {
        let selection: Vec<String> = submitted.transitions.iter().map(|t| t.name.clone()).collect();
        let rederived =
            self.query(&selection, &WeakReads::Fields(submitted.weak_reads.iter().cloned().collect()));
        rederived == *submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Join;
    use scilla::parser::parse_module;
    use scilla::typechecker::typecheck;

    fn analyzed(src: &str) -> AnalyzedContract {
        AnalyzedContract::analyze(&typecheck(parse_module(src).unwrap()).unwrap())
    }

    const SRC: &str = r#"
        contract Counter ()
        field hits : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Hit ()
          one = Uint128 1;
          c_opt <- hits[_sender];
          c2 = match c_opt with
            | Some c => builtin add c one
            | None => one
            end;
          hits[_sender] := c2
        end
        transition Reset (who : ByStr20)
          zero = Uint128 0;
          hits[who] := zero
        end
    "#;

    #[test]
    fn query_respects_selection() {
        let a = analyzed(SRC);
        assert_eq!(a.transition_names(), vec!["Hit", "Reset"]);
        let only_hit = a.query(&["Hit".into()], &WeakReads::AcceptAll);
        assert_eq!(only_hit.joins["hits"], Join::IntMerge);
        let both = a.query(&["Hit".into(), "Reset".into()], &WeakReads::AcceptAll);
        assert_eq!(both.joins["hits"], Join::OwnOverwrite);
    }

    #[test]
    fn validation_accepts_honest_and_rejects_tampered_signatures() {
        let a = analyzed(SRC);
        let sig = a.query(&["Hit".into()], &WeakReads::AcceptAll);
        assert!(a.validate(&sig));

        let mut forged = sig.clone();
        forged.joins.insert("hits".into(), Join::OwnOverwrite);
        assert!(!a.validate(&forged));

        // Dropping the ownership constraint a transition genuinely needs is
        // also caught.
        let both = a.query(&["Hit".into(), "Reset".into()], &WeakReads::AcceptAll);
        assert!(a.validate(&both));
        let mut emptied = both.clone();
        let reset = emptied.transitions.iter_mut().find(|t| t.name == "Reset").unwrap();
        assert!(!reset.constraints.is_empty());
        reset.constraints.clear();
        assert!(!a.validate(&emptied));
    }
}
