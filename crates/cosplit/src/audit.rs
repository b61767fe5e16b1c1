//! Effect-trace soundness auditor and contract lint pass.
//!
//! The static analysis promises that every `TransitionSummary`
//! *over-approximates* the runtime behaviour of its transition (paper §3.2).
//! This module checks that promise against reality: the interpreter's
//! [`DynamicFootprint`] (one concrete execution's reads, writes, accepts and
//! sends) is abstracted back into the Fig-6 domain and tested for containment
//! in the summary. Any escape — a read of a component the summary never
//! mentions, a write whose concrete op the abstract `ContribType` does not
//! subsume, an accept or send with no static counterpart — is a bug in the
//! analysis (or a deliberately weakened summary) and is reported as a
//! structured [`AuditViolation`] with the offending pseudo-field, the
//! abstract vs. observed op, and the source span.
//!
//! The containment relation, for a non-⊤ summary `S` and footprint `F`:
//!
//! * every concrete read in `F` is covered by some `Read(pf)` in `S`
//!   (a whole-field `pf` covers any entry of that field; an entry `pf`
//!   covers a concrete access whose keys agree under the transaction's
//!   argument binding);
//! * every concrete write is covered by some `Write(pf, τ)`, and if `τ` is a
//!   commutative contribution (paper §3.4) the observed op must be one of its
//!   declared merge ops (`add`/`sub`) — an overwrite-style `τ` subsumes any
//!   concrete op;
//! * `accept` executed ⇒ `AcceptFunds ∈ S`; every sent message is covered by
//!   some `SendMsg` with a compatible tag and amount-zero claim.
//!
//! A summary containing `⊤` vacuously contains every footprint and is
//! skipped. On top of the same machinery, [`audit_placement`] checks the
//! derived sharding discipline (hogged fields only touched by their owner
//! shard, non-owner reads only where a weak read was accepted), and
//! [`lint_contract`] reports contract-quality findings (lost updates, causes
//! of ⊤ summaries, dead fields, accepts that never reach a balance).

use crate::domain::{ContribSource, ContribType, PseudoField};
use crate::effects::{Effect, MsgAbs, TransitionSummary};
use crate::signature::{is_commutative_write, Join, ShardingSignature, TransitionConstraints};
use crate::solver::AnalyzedContract;
use scilla::ast::Stmt;
use scilla::span::Span;
use scilla::trace::{DynamicFootprint, ObservedOp, TraceWrite};
use scilla::typechecker::CheckedModule;
use scilla::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// What kind of containment breach an [`AuditViolation`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A concrete read of a component no static `Read` covers.
    UnsummarisedRead,
    /// A concrete write of a component no static `Write` covers.
    UnsummarisedWrite,
    /// A covered write whose concrete op escapes the commutative abstract op
    /// set (e.g. an overwrite observed where the summary promised `add`).
    NonCommutativeOp,
    /// `accept` ran but the summary has no `AcceptFunds`.
    UnsummarisedAccept,
    /// A message was sent that no static `SendMsg` covers.
    UnsummarisedSend,
    /// A shard read a hogged component it does not own, without a weak read.
    NotOwnedRead,
    /// A shard wrote a component it does not own (and the field's join is
    /// not a commutative merge).
    NotOwnedWrite,
    /// A transition with the unsatisfiable constraint executed on a shard.
    UnsatOnShard,
    /// A traced multi-contract invocation chain reached a (contract,
    /// transition) frame outside its composed interprocedural summary
    /// ([`crate::callgraph`]) — the static callee set under-approximated a
    /// real chain.
    ComposedEscape,
}

impl ViolationKind {
    /// Stable name, as rendered in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::UnsummarisedRead => "UnsummarisedRead",
            ViolationKind::UnsummarisedWrite => "UnsummarisedWrite",
            ViolationKind::NonCommutativeOp => "NonCommutativeOp",
            ViolationKind::UnsummarisedAccept => "UnsummarisedAccept",
            ViolationKind::UnsummarisedSend => "UnsummarisedSend",
            ViolationKind::NotOwnedRead => "NotOwnedRead",
            ViolationKind::NotOwnedWrite => "NotOwnedWrite",
            ViolationKind::UnsatOnShard => "UnsatOnShard",
            ViolationKind::ComposedEscape => "ComposedEscape",
        }
    }

    /// All variants, for exhaustive tests.
    pub fn all() -> [ViolationKind; 9] {
        [
            ViolationKind::UnsummarisedRead,
            ViolationKind::UnsummarisedWrite,
            ViolationKind::NonCommutativeOp,
            ViolationKind::UnsummarisedAccept,
            ViolationKind::UnsummarisedSend,
            ViolationKind::NotOwnedRead,
            ViolationKind::NotOwnedWrite,
            ViolationKind::UnsatOnShard,
            ViolationKind::ComposedEscape,
        ]
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One containment breach: a concrete effect that escaped its summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    pub kind: ViolationKind,
    /// The transition whose execution escaped.
    pub transition: String,
    /// The nearest static pseudo-field (param-name keys), when one exists.
    pub pseudofield: Option<PseudoField>,
    /// The concrete access, rendered (`balances[0x0101…]`).
    pub concrete: String,
    /// The abstract op set the summary declared for this component.
    pub abstract_op: Option<String>,
    /// The concretely observed op (`add(+30)`, `set`, …).
    pub observed_op: Option<String>,
    /// Source location of the escaping statement.
    pub span: Span,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in transition '{}' at {}: {}", self.kind, self.transition, self.span, self.concrete)?;
        if let (Some(a), Some(o)) = (&self.abstract_op, &self.observed_op) {
            write!(f, " (abstract {a}, observed {o})")?;
        } else if let Some(o) = &self.observed_op {
            write!(f, " (observed {o})")?;
        }
        Ok(())
    }
}

fn render_access(field: &str, keys: &[Value]) -> String {
    let mut s = field.to_string();
    for k in keys {
        s.push('[');
        s.push_str(&k.to_string());
        s.push(']');
    }
    s
}

/// Does the static pseudo-field cover the concrete access, under the
/// transaction's argument binding `resolve` (param name → concrete value)?
///
/// A whole-field pseudo-field covers every entry of its field. An entry
/// pseudo-field covers a same-depth access whose every key either resolves to
/// the observed concrete value or cannot be resolved (unknown bindings are
/// treated as wildcards so imprecise resolution never fabricates an escape).
/// Derived keys (`sha256hash(account)`) resolve their base parameter and
/// replay the derivation (see [`crate::domain::resolve_key`]).
fn pf_covers(
    pf: &PseudoField,
    field: &str,
    keys: &[Value],
    resolve: &dyn Fn(&str) -> Option<Value>,
) -> bool {
    if pf.field != field {
        return false;
    }
    if pf.is_whole_field() {
        return true;
    }
    if pf.keys.len() != keys.len() {
        return false;
    }
    pf.keys.iter().zip(keys).all(|(name, concrete)| {
        match crate::domain::resolve_key(name, resolve) {
            Some(v) => v == *concrete,
            None => true,
        }
    })
}

/// Renders the abstract op set of the self-contribution of `t` on `pf`
/// (e.g. `{add}`), or the overwrite/⊤ nature of the write.
fn render_abstract_op(pf: &PseudoField, t: &ContribType) -> String {
    if t.is_top() {
        return "⊤".into();
    }
    if !is_commutative_write(pf, t) {
        return "overwrite".into();
    }
    let Some(sources) = t.sources() else { return "⊥".into() };
    for (cs, c) in sources {
        if let ContribSource::Field(f) = cs {
            if f == pf {
                let ops: Vec<String> = c.ops.iter().map(|o| o.to_string()).collect();
                return format!("{{{}}}", ops.join(", "));
            }
        }
    }
    "⊥".into()
}

/// Does the static write `(pf, t)` subsume the concretely observed op?
///
/// Overwrite-style writes (non-commutative `τ`, including `⊤` and `⊥`)
/// subsume everything: the merge discipline treats them as ownership-gated
/// full overwrites. A commutative write only subsumes deltas expressible in
/// its declared merge ops.
fn write_subsumes(pf: &PseudoField, t: &ContribType, op: &ObservedOp) -> bool {
    if !is_commutative_write(pf, t) {
        return true;
    }
    if op.is_noop() {
        return true;
    }
    let has_op = |name: &str| {
        t.sources().is_some_and(|sources| {
            sources.iter().any(|(cs, c)| {
                matches!(cs, ContribSource::Field(f) if f == pf)
                    && c.ops.iter().any(|o| o.to_string() == name)
            })
        })
    };
    match op {
        ObservedOp::Add(_) => has_op("add"),
        ObservedOp::Sub(_) => has_op("sub"),
        ObservedOp::Set | ObservedOp::Delete => false,
    }
}

fn send_covered(send_tag: &str, send_amount: u128, m: &MsgAbs) -> bool {
    if let Some(tag) = &m.tag {
        if tag != send_tag {
            return false;
        }
    }
    !(m.amount_is_zero && send_amount > 0)
}

/// Checks one concrete footprint for containment in its static summary.
///
/// `resolve` maps a pseudo-field key name (a transition parameter, `_sender`,
/// or `_origin`) to the concrete value it was bound to in this invocation;
/// returning `None` makes that key a wildcard.
///
/// A summary containing `⊤` contains everything and yields no violations.
pub fn audit_transition(
    fp: &DynamicFootprint,
    summary: &TransitionSummary,
    resolve: &dyn Fn(&str) -> Option<Value>,
) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    if summary.has_top() {
        return out;
    }

    for r in &fp.reads {
        let covered = summary.reads().any(|pf| pf_covers(pf, &r.field, &r.keys, resolve))
            // A static write to the same component also witnesses awareness of
            // it, but reads must still be declared: the derivation's weak-read
            // logic keys off Read effects. Only whole-field *writes* (which
            // force ownership of the whole field) excuse an undeclared read.
            || summary
                .writes()
                .any(|(pf, _)| pf.is_whole_field() && pf.field == r.field)
            // A field-localized ⊤ subsumes every access to its field.
            || summary.top_fields().any(|pf| pf_covers(pf, &r.field, &r.keys, resolve))
            // A read that only observes this invocation's own earlier write
            // to the exact same component never touches pre-state; store
            // forwarding elides its static `Read`, so the audit excuses it.
            // (The earlier write is itself audited for coverage below.)
            || fp.writes.iter().any(|w| {
                w.field == r.field && w.keys == r.keys && w.span.start <= r.span.start
            });
        if !covered {
            out.push(AuditViolation {
                kind: ViolationKind::UnsummarisedRead,
                transition: fp.transition.clone(),
                pseudofield: nearest_pf(summary, &r.field),
                concrete: render_access(&r.field, &r.keys),
                abstract_op: None,
                observed_op: None,
                span: r.span,
            });
        }
    }

    for w in &fp.writes {
        out.extend(audit_write(fp, summary, w, resolve));
    }

    if fp.accepts > 0 && !summary.effects.iter().any(|e| matches!(e, Effect::AcceptFunds)) {
        out.push(AuditViolation {
            kind: ViolationKind::UnsummarisedAccept,
            transition: fp.transition.clone(),
            pseudofield: None,
            concrete: "accept".into(),
            abstract_op: None,
            observed_op: None,
            span: Span::dummy(),
        });
    }

    for s in &fp.sends {
        let covered = summary.effects.iter().any(
            |e| matches!(e, Effect::SendMsg(m) if send_covered(&s.tag, s.amount, m)),
        );
        if !covered {
            out.push(AuditViolation {
                kind: ViolationKind::UnsummarisedSend,
                transition: fp.transition.clone(),
                pseudofield: None,
                concrete: format!("send tag '{}' amount {}", s.tag, s.amount),
                abstract_op: None,
                observed_op: None,
                span: s.span,
            });
        }
    }

    out
}

fn nearest_pf(summary: &TransitionSummary, field: &str) -> Option<PseudoField> {
    summary
        .reads()
        .chain(summary.writes().map(|(pf, _)| pf))
        .find(|pf| pf.field == field)
        .cloned()
}

fn audit_write(
    fp: &DynamicFootprint,
    summary: &TransitionSummary,
    w: &TraceWrite,
    resolve: &dyn Fn(&str) -> Option<Value>,
) -> Vec<AuditViolation> {
    // A field-localized ⊤ declares unbounded effects on its field: any
    // write to it, with any op, is contained (ownership of the whole field
    // is forced by the `Owns` constraint the signature derives from it).
    if summary.top_fields().any(|pf| pf_covers(pf, &w.field, &w.keys, resolve)) {
        return Vec::new();
    }
    let matching: Vec<(&PseudoField, &ContribType)> =
        summary.writes().filter(|(pf, _)| pf_covers(pf, &w.field, &w.keys, resolve)).collect();
    if matching.is_empty() {
        return vec![AuditViolation {
            kind: ViolationKind::UnsummarisedWrite,
            transition: fp.transition.clone(),
            pseudofield: nearest_pf(summary, &w.field),
            concrete: render_access(&w.field, &w.keys),
            abstract_op: None,
            observed_op: Some(w.op.to_string()),
            span: w.span,
        }];
    }
    if matching.iter().any(|(pf, t)| write_subsumes(pf, t, &w.op)) {
        return Vec::new();
    }
    let (pf, t) = matching[0];
    vec![AuditViolation {
        kind: ViolationKind::NonCommutativeOp,
        transition: fp.transition.clone(),
        pseudofield: Some(pf.clone()),
        concrete: render_access(&w.field, &w.keys),
        abstract_op: Some(render_abstract_op(pf, t)),
        observed_op: Some(w.op.to_string()),
        span: w.span,
    }]
}

/// Checks the sharding discipline for one footprint executed on `shard`.
///
/// `component_shard` maps a concrete component (field + concrete keys) to its
/// owner shard, mirroring the dispatcher's placement function.
///
/// Rules (paper §3.4–3.5): a transition with the unsatisfiable constraint may
/// never run on a shard; a write or read of a field whose join is
/// `OwnOverwrite` must happen on the owner shard of the touched component.
/// `IntMerge` fields are exempt on both sides: deltas compose from any shard,
/// and their reads are either self-reads absorbed by delta extraction
/// (read-modify-write of the same component) or weak reads the deployer
/// accepted at derivation time — a declined weak read revokes the `IntMerge`
/// join itself, so the final signature already encodes the read discipline.
pub fn audit_placement(
    fp: &DynamicFootprint,
    sig: &ShardingSignature,
    tcons: &TransitionConstraints,
    shard: u32,
    component_shard: &dyn Fn(&str, &[Value]) -> u32,
) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    if !tcons.is_shardable() {
        out.push(AuditViolation {
            kind: ViolationKind::UnsatOnShard,
            transition: fp.transition.clone(),
            pseudofield: None,
            concrete: format!("executed on shard {shard} despite Unsat constraint"),
            abstract_op: None,
            observed_op: None,
            span: Span::dummy(),
        });
        return out;
    }
    for w in &fp.writes {
        match sig.joins.get(&w.field) {
            Some(Join::OwnOverwrite) => {
                let owner = component_shard(&w.field, &w.keys);
                if owner != shard {
                    out.push(AuditViolation {
                        kind: ViolationKind::NotOwnedWrite,
                        transition: fp.transition.clone(),
                        pseudofield: None,
                        concrete: format!(
                            "{} owned by shard {owner}, written on shard {shard}",
                            render_access(&w.field, &w.keys)
                        ),
                        abstract_op: None,
                        observed_op: Some(w.op.to_string()),
                        span: w.span,
                    });
                }
            }
            // IntMerge deltas compose from any shard; a write to a field
            // outside the joins is an analysis escape that the containment
            // audit already reports.
            Some(Join::IntMerge) | None => {}
        }
    }
    for r in &fp.reads {
        if sig.joins.get(&r.field) != Some(&Join::OwnOverwrite) {
            continue;
        }
        let owner = component_shard(&r.field, &r.keys);
        if owner != shard {
            out.push(AuditViolation {
                kind: ViolationKind::NotOwnedRead,
                transition: fp.transition.clone(),
                pseudofield: None,
                concrete: format!(
                    "{} owned by shard {owner}, read on shard {shard}",
                    render_access(&r.field, &r.keys)
                ),
                abstract_op: None,
                observed_op: None,
                span: r.span,
            });
        }
    }
    out
}

/// One contract-quality finding from the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Stable rule name (`write-never-read-back`, `top-summary`,
    /// `dead-pseudofield`, `accept-no-balance-effect`,
    /// `dynamic-recipient`).
    pub rule: &'static str,
    pub transition: Option<String>,
    pub field: Option<String>,
    pub span: Option<Span>,
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.rule)?;
        if let Some(t) = &self.transition {
            write!(f, " transition '{t}'")?;
        }
        if let Some(sp) = &self.span {
            write!(f, " at {sp}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Runs the lint rule catalogue over an analysed contract.
///
/// Rules:
/// * `write-never-read-back` — a field some transition writes but whose
///   value no transition of the contract ever consumes: every write is a
///   potential lost update (nothing downstream observes it), or the field is
///   write-only telemetry. "Consumes" is contract-global and counts every
///   reading position — explicit loads/map gets, condition scrutinees,
///   outgoing-message recipients and amounts, and contributions flowing
///   into any field's written value (a read in *one* transition clears the
///   field for the whole contract).
/// * `top-summary` — a transition whose summary contains a `⊤` in any form:
///   global (legacy mode) or field-localized (`⊤[pf]`). The message names
///   the blamed statement — kind, detail, and span from the analysis's
///   [`crate::blame::BlameCause`] record — so the author can restructure;
///   a summary with no blame record gets a generic message at the
///   transition's first statement.
/// * `dead-pseudofield` — a declared field no summary mentions at all.
/// * `accept-no-balance-effect` — a transition accepts funds but the
///   accepted `_amount` never flows into any state write, so the deposit is
///   absorbed without a ledger trace.
/// * `dynamic-recipient` — a transition sends to a recipient the
///   call-graph classifier ([`crate::callgraph`]) cannot resolve
///   statically (computed, or read from mutable state): the interprocedural
///   composition widens to `⊤` at the site, so every such send serialises
///   at the DS committee.
///
/// The two whole-contract rules are suppressed when any summary is a global
/// `⊤` (unknown effects could be the missing read/mention); a field-localized
/// `⊤` only exempts its own field from them.
pub fn lint_contract(checked: &CheckedModule, analyzed: &AnalyzedContract) -> Vec<LintFinding> {
    let mut out = Vec::new();
    let any_top = analyzed.summaries.iter().any(TransitionSummary::has_top);

    let mut read_fields: BTreeSet<&str> = BTreeSet::new();
    let mut written_fields: BTreeSet<&str> = BTreeSet::new();
    let mut mentioned: BTreeSet<&str> = BTreeSet::new();
    for s in &analyzed.summaries {
        for pf in s.reads() {
            read_fields.insert(&pf.field);
            mentioned.insert(&pf.field);
        }
        // A field-localized ⊤ may read and write its field arbitrarily, so
        // it suppresses the contract-global rules for that field only.
        for pf in s.top_fields() {
            read_fields.insert(&pf.field);
            written_fields.insert(&pf.field);
            mentioned.insert(&pf.field);
        }
        for (pf, t) in s.writes() {
            written_fields.insert(&pf.field);
            mentioned.insert(&pf.field);
            // A contribution flowing into a written value consumes the
            // source field's current value — that is a read-back, even when
            // the summariser elides the paired `Read` effect. This includes
            // the field's own RMW self-contribution (`x := x + 1` observes
            // the previous write of `x`).
            for f in t.fields() {
                mentioned.insert(&f.field);
                read_fields.insert(&f.field);
            }
        }
        for e in &s.effects {
            let ts: Vec<&ContribType> = match e {
                Effect::Condition(t) => vec![t],
                Effect::SendMsg(m) => vec![&m.recipient, &m.amount],
                _ => vec![],
            };
            for t in ts {
                // Condition scrutinees and message payloads consume the
                // field's value just as writes do.
                for f in t.fields() {
                    mentioned.insert(&f.field);
                    read_fields.insert(&f.field);
                }
            }
        }
    }

    if !any_top {
        for field in written_fields.difference(&read_fields) {
            out.push(LintFinding {
                rule: "write-never-read-back",
                transition: None,
                field: Some((*field).to_string()),
                span: field_span(checked, field),
                message: format!(
                    "field '{field}' is written but never read by any transition — \
                     writes cannot influence later behaviour (lost-update candidate)"
                ),
            });
        }
        for f in &checked.contract().fields {
            if !mentioned.contains(f.name.name.as_str()) {
                out.push(LintFinding {
                    rule: "dead-pseudofield",
                    transition: None,
                    field: Some(f.name.name.clone()),
                    span: Some(f.name.span),
                    message: format!(
                        "field '{}' is never read, written, or mentioned by any transition",
                        f.name.name
                    ),
                });
            }
        }
    }

    for s in &analyzed.summaries {
        let top_fields: Vec<String> =
            s.top_fields().map(|pf| pf.field.clone()).collect::<BTreeSet<_>>().into_iter().collect();
        if s.has_top() || !top_fields.is_empty() {
            // The blame engine knows the exact statement that cost the
            // precision. Every corpus ⊤ carries a blame; the generic
            // message covers summaries built by hand without one.
            let blame = analyzed
                .blames
                .iter()
                .filter(|b| b.transition == s.name)
                .find(|b| match &b.field {
                    Some(pf) => top_fields.contains(&pf.field),
                    None => s.has_top(),
                })
                .or_else(|| analyzed.blames.iter().find(|b| b.transition == s.name));
            let scope = if s.has_top() {
                "summary is ⊤".to_string()
            } else {
                format!("summary has ⊤ on field(s) {}", top_fields.join(", "))
            };
            let (message, span) = match blame {
                Some(b) => (format!("{scope}: [{}] {}", b.kind, b.detail), Some(b.span)),
                None => (
                    format!(
                        "{scope} from an unanalysed construct \
                         (data-dependent branch or dynamic message list)"
                    ),
                    checked
                        .contract()
                        .transition(&s.name)
                        .and_then(|t| t.body.first().map(Stmt::span)),
                ),
            };
            out.push(LintFinding {
                rule: "top-summary",
                transition: Some(s.name.clone()),
                field: top_fields.first().cloned(),
                span,
                message,
            });
        }
        let accepts = s.effects.iter().any(|e| matches!(e, Effect::AcceptFunds));
        if accepts && !s.has_top() && !amount_reaches_state(s) {
            out.push(LintFinding {
                rule: "accept-no-balance-effect",
                transition: Some(s.name.clone()),
                field: None,
                span: None,
                message: format!(
                    "transition '{}' accepts funds but the accepted _amount never \
                     flows into any state write or outgoing message",
                    s.name
                ),
            });
        }
    }

    // `dynamic-recipient`: classify every send site through the call-graph
    // extractor and flag the transitions whose recipients stay ⊤.
    let calls = crate::callgraph::ContractCalls::extract(checked, &analyzed.summaries);
    for (transition, count) in calls.dynamic_recipients() {
        out.push(LintFinding {
            rule: "dynamic-recipient",
            transition: Some(transition.clone()),
            field: None,
            span: None,
            message: format!(
                "{count} send(s) in '{transition}' have a statically unresolvable \
                 recipient — the interprocedural composition cannot follow them, \
                 so these chains always serialise at the DS committee"
            ),
        });
    }

    out
}

fn field_span(checked: &CheckedModule, field: &str) -> Option<Span> {
    checked.contract().fields.iter().find(|f| f.name.name == field).map(|f| f.name.span)
}

fn amount_reaches_state(s: &TransitionSummary) -> bool {
    let amount = ContribSource::Param("_amount".into());
    s.effects.iter().any(|e| match e {
        Effect::Write(_, t) => contrib_mentions(t, &amount),
        Effect::SendMsg(m) => contrib_mentions(&m.amount, &amount),
        _ => false,
    })
}

fn contrib_mentions(t: &ContribType, cs: &ContribSource) -> bool {
    match t.sources() {
        Some(sources) => sources.contains_key(cs),
        // ⊤ might mention anything — assume it does (suppresses the lint).
        None => true,
    }
}
