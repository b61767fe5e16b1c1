//! Interprocedural call-graph analysis: composing transition summaries
//! across cross-contract sends (ROADMAP item (a)).
//!
//! The intra-contract analysis already abstracts every outgoing message's
//! `_recipient`/`_tag`/`_amount`/payload ([`MsgAbs`]). This module lifts
//! those per-send abstractions into a whole-deployment view:
//!
//! 1. **Classification** — each send's `_recipient` contribution is
//!    classified into one of five [`Recipient`] classes: a literal address,
//!    an immutable contract deployment parameter, a field provably never
//!    written after initialisation, a transition parameter (resolved per
//!    transaction at dispatch), or `Dynamic` (⊤). The first three resolve
//!    statically per deployment; the fourth resolves at dispatch time; the
//!    fifth degrades the edge to ⊤ — soundly, because a chain containing a
//!    ⊤ edge is never composed and falls back to the baseline DS path.
//! 2. **Graph construction** — [`CallGraph::build`] assembles the static
//!    tag-matched graph over a contract set (JSON/DOT exportable), used by
//!    the CLI, the corpus snapshot tests and the bench experiment.
//! 3. **Composition** — [`compose`] walks resolvable edges transitively
//!    from a root transition, substituting caller argument bindings into
//!    callee pseudo-field keys ([`substitute_effects`]), with a depth bound
//!    of [`DEPTH_BOUND`] (matching the executor's invocation cap) and
//!    widening on cycles, yielding a [`ComposedSummary`] whose members are
//!    the exact set of (contract, transition) frames the chain may touch.
//!
//! Everything unresolvable sets [`ComposedSummary::widened`]; a widened
//! composition is *never* acted upon by dispatch, so precision loss can
//! only cost performance, never safety.

use crate::effects::{Effect, MsgAbs, TransitionSummary};
use crate::domain::{
    Cardinality, ContribSource, ContribType, Contribution, Precision, PseudoField,
};
use scilla::ast::Expr;
use scilla::typechecker::CheckedModule;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Maximum composed-chain depth, matching the executor's invocation cap: a
/// chain the executor would refuse to run is not worth composing.
pub const DEPTH_BOUND: usize = 4;

/// The resolution class of a send's `_recipient` (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Recipient {
    /// A literal address constant, rendered (`0x…`).
    Literal(String),
    /// The value of an immutable contract deployment parameter.
    ContractParam(String),
    /// The value of a field provably never written after initialisation
    /// (no transition writes it and no summary is ⊤).
    InitField(String),
    /// A transition parameter (including `_sender`/`_origin`), resolved
    /// against the transaction's arguments at dispatch time.
    TransitionParam(String),
    /// Unresolvable: mutable field, map read, joined branches, or ⊤.
    Dynamic,
}

impl Recipient {
    /// Is this edge statically or dispatch-time resolvable (not ⊤)?
    pub fn is_resolved(&self) -> bool {
        !matches!(self, Recipient::Dynamic)
    }

    /// Stable kind tag for the JSON wire and telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            Recipient::Literal(_) => "literal",
            Recipient::ContractParam(_) => "contract-param",
            Recipient::InitField(_) => "init-field",
            Recipient::TransitionParam(_) => "transition-param",
            Recipient::Dynamic => "dynamic",
        }
    }

    /// The classified name (literal text, param or field name), if any.
    pub fn name(&self) -> Option<&str> {
        match self {
            Recipient::Literal(s)
            | Recipient::ContractParam(s)
            | Recipient::InitField(s)
            | Recipient::TransitionParam(s) => Some(s),
            Recipient::Dynamic => None,
        }
    }
}

impl fmt::Display for Recipient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => write!(f, "{}:{n}", self.kind()),
            None => write!(f, "{}", self.kind()),
        }
    }
}

/// Where a callee argument's value comes from, expressed in the *root*
/// transition's frame after composition (or the immediate caller's frame
/// inside a [`CallSite`], before mapping).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Binding {
    /// A root transition parameter (including `_sender`/`_origin`).
    Param(String),
    /// A literal constant, rendered.
    Const(String),
    /// The address of the composed chain member at this index (a callee's
    /// `_sender` is the contract that sent to it).
    Caller(usize),
    /// Not expressible as a single parameter or constant.
    Unknown,
}

/// One statically-extracted send site of a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The sending transition.
    pub transition: String,
    /// The `_tag` (the callee transition name), when a string literal.
    pub tag: Option<String>,
    /// The `_recipient` classification.
    pub recipient: Recipient,
    /// Whether `_amount` is statically the constant zero.
    pub amount_is_zero: bool,
    /// Callee-argument bindings in the *sending* transition's frame.
    pub args: BTreeMap<String, Binding>,
}

/// All call sites of one contract, plus the deployment metadata needed to
/// resolve them (parameter names, the immutable-field proof).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContractCalls {
    /// Contract name.
    pub contract: String,
    /// Immutable deployment parameter names.
    pub params: Vec<String>,
    /// Fields never written by any transition (empty when any summary is
    /// ⊤ — a ⊤ transition might write anything).
    pub immutable_fields: BTreeSet<String>,
    /// Every send site, in transition declaration order.
    pub sites: Vec<CallSite>,
}

impl ContractCalls {
    /// Extracts the call sites of a checked contract from its transition
    /// summaries, classifying each recipient (see module docs).
    pub fn extract(checked: &CheckedModule, summaries: &[TransitionSummary]) -> Self {
        let contract = checked.contract();
        let params: Vec<String> = contract.params.iter().map(|p| p.name.name.clone()).collect();

        // A field is immutable iff no transition writes it and no summary
        // collapsed to ⊤ (which could hide a write). Field initialisers are
        // pure expressions, so an unwritten field keeps its deployment
        // value forever — reading it at dispatch time is sound.
        let any_top = summaries.iter().any(|s| s.has_top());
        let written: BTreeSet<&str> = summaries
            .iter()
            .flat_map(|s| {
                // A localized ⊤[pf] may hide a write to its field.
                s.writes()
                    .map(|(pf, _)| pf.field.as_str())
                    .chain(s.top_fields().map(|pf| pf.field.as_str()))
            })
            .collect();
        let immutable_fields: BTreeSet<String> = if any_top {
            BTreeSet::new()
        } else {
            contract
                .fields
                .iter()
                .map(|f| f.name.name.clone())
                .filter(|f| !written.contains(f.as_str()))
                .collect()
        };

        // Which immutable fields have an initialiser we could also resolve
        // purely statically (a contract param or a literal)? Not required
        // for dispatch (which reads storage), but it keeps the static
        // graph honest about what resolves without a deployment.
        let _static_inits: BTreeSet<&str> = contract
            .fields
            .iter()
            .filter(|f| matches!(f.init, Expr::Var(_) | Expr::Lit(..)))
            .map(|f| f.name.name.as_str())
            .collect();

        let mut sites = Vec::new();
        for summary in summaries {
            for effect in &summary.effects {
                let Effect::SendMsg(m) = effect else { continue };
                sites.push(CallSite {
                    transition: summary.name.clone(),
                    tag: m.tag.clone(),
                    recipient: classify_recipient(
                        &m.recipient,
                        &summary.params,
                        &params,
                        &immutable_fields,
                    ),
                    amount_is_zero: m.amount_is_zero,
                    args: extract_args(m),
                });
            }
        }
        ContractCalls { contract: contract.name.name.clone(), params, immutable_fields, sites }
    }

    /// The call sites of one transition.
    pub fn sites_of<'a: 'r, 'b: 'r, 'r>(
        &'a self,
        transition: &'b str,
    ) -> impl Iterator<Item = &'a CallSite> + 'r {
        self.sites.iter().filter(move |s| s.transition == transition)
    }

    /// Transitions with at least one ⊤-recipient send — the
    /// `dynamic-recipient` lint feed. Returns `(transition, count)` pairs.
    pub fn dynamic_recipients(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.sites {
            if !s.recipient.is_resolved() {
                *counts.entry(s.transition.as_str()).or_insert(0) += 1;
            }
        }
        counts.into_iter().map(|(t, n)| (t.to_string(), n)).collect()
    }
}

/// The sole contribution source of `t`, when `t` is exactly one source
/// flowing linearly, untransformed, with exact precision — the only shape
/// dispatch can instantiate from transaction data.
pub fn sole_source(t: &ContribType) -> Option<&ContribSource> {
    let sources = t.sources()?;
    if sources.len() != 1 {
        return None;
    }
    let (cs, c) = sources.iter().next()?;
    if c.card == Cardinality::One && c.ops.is_empty() && c.precision == Precision::Exact {
        Some(cs)
    } else {
        None
    }
}

fn classify_recipient(
    t: &ContribType,
    transition_params: &[String],
    contract_params: &[String],
    immutable_fields: &BTreeSet<String>,
) -> Recipient {
    match sole_source(t) {
        Some(ContribSource::Param(p)) => {
            if p == "_sender" || p == "_origin" || transition_params.iter().any(|q| q == p) {
                Recipient::TransitionParam(p.clone())
            } else if contract_params.iter().any(|q| q == p) {
                Recipient::ContractParam(p.clone())
            } else {
                Recipient::Dynamic
            }
        }
        Some(ContribSource::Const(c)) => Recipient::Literal(c.clone()),
        Some(ContribSource::Field(pf)) => {
            if pf.is_whole_field() && immutable_fields.contains(&pf.field) {
                Recipient::InitField(pf.field.clone())
            } else {
                Recipient::Dynamic
            }
        }
        None => Recipient::Dynamic,
    }
}

fn extract_args(m: &MsgAbs) -> BTreeMap<String, Binding> {
    m.params
        .iter()
        .map(|(k, t)| {
            let b = match sole_source(t) {
                Some(ContribSource::Param(p)) => Binding::Param(p.clone()),
                Some(ContribSource::Const(c)) => Binding::Const(c.clone()),
                _ => Binding::Unknown,
            };
            (k.clone(), b)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Static whole-deployment graph
// ---------------------------------------------------------------------------

/// One contract's input to [`CallGraph::build`].
#[derive(Debug, Clone)]
pub struct GraphContract {
    /// Contract name.
    pub name: String,
    /// Its transition names.
    pub transitions: Vec<String>,
    /// Its extracted call sites.
    pub calls: ContractCalls,
}

/// One edge of the static graph: a send site plus its tag-matched
/// candidate callees in the contract set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// The sending contract.
    pub from_contract: String,
    /// The sending transition.
    pub from_transition: String,
    /// The literal `_tag`, if any.
    pub tag: Option<String>,
    /// The recipient classification.
    pub recipient: Recipient,
    /// Whether the send carries statically-zero funds.
    pub amount_is_zero: bool,
    /// Contracts in the set declaring a transition named `tag` (empty for
    /// tag-less or candidate-less sends — those edges point at ⊤).
    pub candidates: Vec<String>,
}

impl GraphEdge {
    /// A resolved edge has a literal tag and a non-⊤ recipient: it can be
    /// bound to a concrete callee (statically or at dispatch time).
    pub fn is_resolved(&self) -> bool {
        self.tag.is_some() && self.recipient.is_resolved()
    }
}

/// The static call graph over a set of contracts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallGraph {
    /// `(contract, transitions)` in input order.
    pub contracts: Vec<(String, Vec<String>)>,
    /// One edge per send site.
    pub edges: Vec<GraphEdge>,
}

impl CallGraph {
    /// Builds the graph: one edge per send site, candidates matched by
    /// transition name against the whole set.
    pub fn build(inputs: &[GraphContract]) -> Self {
        let mut graph = CallGraph::default();
        for c in inputs {
            graph.contracts.push((c.name.clone(), c.transitions.clone()));
        }
        for c in inputs {
            for site in &c.calls.sites {
                let candidates = match &site.tag {
                    Some(tag) => inputs
                        .iter()
                        .filter(|i| i.transitions.iter().any(|t| t == tag))
                        .map(|i| i.name.clone())
                        .collect(),
                    None => Vec::new(),
                };
                graph.edges.push(GraphEdge {
                    from_contract: c.name.clone(),
                    from_transition: site.transition.clone(),
                    tag: site.tag.clone(),
                    recipient: site.recipient.clone(),
                    amount_is_zero: site.amount_is_zero,
                    candidates,
                });
            }
        }
        if telemetry::enabled() {
            telemetry::counter!("cosplit.callgraph.edges_total").add(graph.edges.len() as u64);
            telemetry::counter!("cosplit.callgraph.edges_resolved")
                .add(graph.resolved_edges() as u64);
        }
        graph
    }

    /// Number of edges that can be bound to a concrete callee.
    pub fn resolved_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.is_resolved()).count()
    }

    /// Fraction of resolved edges (1.0 for an edge-less graph).
    pub fn resolved_fraction(&self) -> f64 {
        if self.edges.is_empty() {
            1.0
        } else {
            self.resolved_edges() as f64 / self.edges.len() as f64
        }
    }

    /// JSON wire encoding (stable key order; round-trips via
    /// [`CallGraph::from_json`]).
    pub fn to_json(&self) -> String {
        use serde_json::{json, Value};
        let contracts: Vec<Value> = self
            .contracts
            .iter()
            .map(|(name, ts)| json!({ "name": name, "transitions": ts.clone() }))
            .collect();
        let edges: Vec<Value> = self
            .edges
            .iter()
            .map(|e| {
                let recipient = match e.recipient.name() {
                    Some(n) => json!({ "kind": e.recipient.kind(), "name": n }),
                    None => json!({ "kind": e.recipient.kind() }),
                };
                let tag = match &e.tag {
                    Some(t) => Value::from(t.as_str()),
                    None => Value::Null,
                };
                json!({
                    "from": e.from_contract.clone(),
                    "transition": e.from_transition.clone(),
                    "tag": tag,
                    "recipient": recipient,
                    "amount_is_zero": e.amount_is_zero,
                    "candidates": e.candidates.clone(),
                })
            })
            .collect();
        json!({ "contracts": contracts, "edges": edges }).to_string()
    }

    /// Decodes the JSON wire encoding.
    ///
    /// # Errors
    ///
    /// Describes the first malformed element on bad input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        use serde_json::Value;
        let v: Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let mut graph = CallGraph::default();
        for c in v["contracts"].as_array().ok_or("missing contracts array")? {
            let name = c["name"].as_str().ok_or("contract missing name")?.to_string();
            let transitions = c["transitions"]
                .as_array()
                .ok_or("contract missing transitions")?
                .iter()
                .map(|t| t.as_str().map(String::from).ok_or("non-string transition"))
                .collect::<Result<Vec<_>, _>>()?;
            graph.contracts.push((name, transitions));
        }
        for e in v["edges"].as_array().ok_or("missing edges array")? {
            let kind = e["recipient"]["kind"].as_str().ok_or("edge missing recipient kind")?;
            let rname = e["recipient"]["name"].as_str().map(String::from);
            let recipient = match (kind, rname) {
                ("literal", Some(n)) => Recipient::Literal(n),
                ("contract-param", Some(n)) => Recipient::ContractParam(n),
                ("init-field", Some(n)) => Recipient::InitField(n),
                ("transition-param", Some(n)) => Recipient::TransitionParam(n),
                ("dynamic", None) => Recipient::Dynamic,
                _ => return Err(format!("malformed recipient kind {kind:?}")),
            };
            graph.edges.push(GraphEdge {
                from_contract: e["from"].as_str().ok_or("edge missing from")?.to_string(),
                from_transition: e["transition"]
                    .as_str()
                    .ok_or("edge missing transition")?
                    .to_string(),
                tag: e["tag"].as_str().map(String::from),
                recipient,
                amount_is_zero: e["amount_is_zero"].as_bool().unwrap_or(false),
                candidates: e["candidates"]
                    .as_array()
                    .map(|a| a.iter().filter_map(|c| c.as_str().map(String::from)).collect())
                    .unwrap_or_default(),
            });
        }
        Ok(graph)
    }

    /// GraphViz DOT rendering: solid edges resolve, dashed edges are ⊤.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n");
        for (contract, transitions) in &self.contracts {
            for t in transitions {
                out.push_str(&format!("  \"{contract}.{t}\";\n"));
            }
        }
        for e in &self.edges {
            let label = match &e.tag {
                Some(tag) => format!("{tag} ({})", e.recipient.kind()),
                None => format!("? ({})", e.recipient.kind()),
            };
            let style = if e.is_resolved() { "solid" } else { "dashed" };
            if e.candidates.is_empty() {
                out.push_str(&format!(
                    "  \"{}.{}\" -> \"⊤\" [label=\"{label}\", style={style}];\n",
                    e.from_contract, e.from_transition
                ));
            }
            for cand in &e.candidates {
                let to = e.tag.as_deref().unwrap_or("?");
                out.push_str(&format!(
                    "  \"{}.{}\" -> \"{cand}.{to}\" [label=\"{label}\", style={style}];\n",
                    e.from_contract, e.from_transition
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

/// A call-site resolution outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// The recipient is a deployed contract with this identity (a name
    /// statically, an address string on chain).
    Contract(String),
    /// The recipient resolves to a plain (non-contract) account: the send
    /// is a payment, not a call, and adds no chain member.
    Wallet,
    /// Unresolvable here — the edge degrades to ⊤.
    Unknown,
}

/// The deployment a composition runs against. Statically this is a set of
/// analysed contracts ([`MapDeployment`]); on chain it is the global state
/// (deployed contracts, their parameter values, storage for immutable
/// fields, and the transaction's arguments).
pub trait DeploymentView {
    /// Resolves a call site's recipient to a concrete callee. `caller` is
    /// the sending contract's deployment identity. For
    /// [`Recipient::TransitionParam`] edges the recipient has already been
    /// mapped into root-transition space and arrives as `binding` (a root
    /// parameter or a constant); for the other classes the view resolves
    /// against `caller`'s own deployment.
    fn resolve_target(
        &self,
        caller: &str,
        recipient: &Recipient,
        binding: Option<&Binding>,
    ) -> Target;

    /// The summary of one deployed contract's transition.
    fn summary(&self, contract: &str, transition: &str) -> Option<TransitionSummary>;

    /// The extracted call sites of one deployed contract.
    fn calls(&self, contract: &str) -> Option<ContractCalls>;
}

/// One frame of a composed chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedMember {
    /// Deployment identity of the contract.
    pub contract: String,
    /// The transition invoked in this frame.
    pub transition: String,
    /// Chain depth (0 for the root).
    pub depth: usize,
    /// Index of the invoking member, `None` for the root.
    pub caller: Option<usize>,
    /// This frame's parameter names (plus `_sender`/`_origin`) mapped into
    /// the root transition's frame.
    pub bindings: BTreeMap<String, Binding>,
    /// The frame's effects with pseudo-field keys substituted into root
    /// space (see [`substitute_effects`]).
    pub effects: Vec<Effect>,
}

/// The transitive footprint of a root transition across every resolvable
/// send edge (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedSummary {
    /// The root contract's deployment identity.
    pub root: String,
    /// The root transition.
    pub transition: String,
    /// All frames the chain may execute; `members[0]` is the root.
    pub members: Vec<ComposedMember>,
    /// ⊤-degradation: some edge was dynamic or tag-less, a cycle or the
    /// depth bound was hit, or a member's summary is ⊤/missing. A widened
    /// composition must not be acted upon.
    pub widened: bool,
    /// Sends that resolved to plain accounts (payments, not calls).
    pub wallet_sends: usize,
}

impl ComposedSummary {
    /// Does the chain reach a second contract?
    pub fn is_chain(&self) -> bool {
        self.members.len() > 1
    }

    /// Is this (contract, transition) frame a member of the chain?
    pub fn contains(&self, contract: &str, transition: &str) -> bool {
        self.members.iter().any(|m| m.contract == contract && m.transition == transition)
    }

    /// The composed state footprint: every `(contract, pseudo-field)` the
    /// chain may read or write, keys rendered in root space. `None` when
    /// widened (⊤ contains everything).
    pub fn footprint(&self) -> Option<BTreeSet<(String, String)>> {
        if self.widened {
            return None;
        }
        let mut out = BTreeSet::new();
        for m in &self.members {
            for e in &m.effects {
                match e {
                    Effect::Read(pf) | Effect::Write(pf, _) | Effect::TopField(pf) => {
                        out.insert((m.contract.clone(), pf.to_string()));
                    }
                    Effect::AcceptFunds => {
                        out.insert((m.contract.clone(), "_balance".to_string()));
                    }
                    _ => {}
                }
            }
        }
        Some(out)
    }
}

/// Instantiates a callee summary's effects in root-transition space: every
/// pseudo-field key and contribution source named after a callee parameter
/// is replaced by its root-space binding. An [`Binding::Unknown`] key
/// renders as `⊤` and degrades the contribution to `⊤` — the effect is
/// kept (the write still happens) but its key can no longer be named.
pub fn substitute_effects(
    summary: &TransitionSummary,
    bindings: &BTreeMap<String, Binding>,
) -> Vec<Effect> {
    summary
        .effects
        .iter()
        .map(|e| match e {
            Effect::Read(pf) => Effect::Read(sub_pf(pf, bindings)),
            Effect::Write(pf, t) => Effect::Write(sub_pf(pf, bindings), sub_contrib(t, bindings)),
            Effect::Condition(t) => Effect::Condition(sub_contrib(t, bindings)),
            Effect::AcceptFunds => Effect::AcceptFunds,
            Effect::SendMsg(m) => Effect::SendMsg(MsgAbs {
                recipient: sub_contrib(&m.recipient, bindings),
                amount: sub_contrib(&m.amount, bindings),
                amount_is_zero: m.amount_is_zero,
                tag: m.tag.clone(),
                params: m.params.iter().map(|(k, t)| (k.clone(), sub_contrib(t, bindings))).collect(),
            }),
            Effect::TopField(pf) => Effect::TopField(sub_pf(pf, bindings)),
            Effect::Top => Effect::Top,
        })
        .collect()
}

fn sub_key(key: &str, bindings: &BTreeMap<String, Binding>) -> String {
    // A derived key substitutes its base parameter and keeps the wrapper
    // chain: the derivation replays unchanged on the caller's argument.
    if let Some((builtin, inner)) = crate::domain::parse_derived_key(key) {
        return format!("{builtin}({})", sub_key(inner, bindings));
    }
    match bindings.get(key) {
        Some(Binding::Param(p)) => p.clone(),
        Some(Binding::Const(c)) => c.clone(),
        Some(Binding::Caller(i)) => format!("caller#{i}"),
        Some(Binding::Unknown) | None => "⊤".to_string(),
    }
}

fn sub_pf(pf: &PseudoField, bindings: &BTreeMap<String, Binding>) -> PseudoField {
    if pf.is_whole_field() {
        pf.clone()
    } else {
        PseudoField::entry(
            pf.field.clone(),
            pf.keys.iter().map(|k| sub_key(k, bindings)).collect(),
        )
    }
}

fn sub_contrib(t: &ContribType, bindings: &BTreeMap<String, Binding>) -> ContribType {
    let Some(sources) = t.sources() else { return ContribType::Top };
    let mut out: BTreeMap<ContribSource, Contribution> = BTreeMap::new();
    for (cs, c) in sources {
        let mapped = match cs {
            ContribSource::Param(p) => match bindings.get(p) {
                Some(Binding::Param(rp)) => ContribSource::Param(rp.clone()),
                Some(Binding::Const(rc)) => ContribSource::Const(rc.clone()),
                Some(Binding::Caller(i)) => ContribSource::Const(format!("caller#{i}")),
                Some(Binding::Unknown) | None => return ContribType::Top,
            },
            ContribSource::Const(c) => ContribSource::Const(c.clone()),
            ContribSource::Field(pf) => ContribSource::Field(sub_pf(pf, bindings)),
        };
        match out.remove(&mapped) {
            None => {
                out.insert(mapped, c.clone());
            }
            Some(prev) => {
                // Two callee sources collapsed onto one root source:
                // combine sequentially (both flows happen).
                out.insert(
                    mapped,
                    Contribution {
                        card: prev.card.add(c.card),
                        ops: prev.ops.union(&c.ops).cloned().collect(),
                        precision: prev.precision.join(c.precision),
                    },
                );
            }
        }
    }
    ContribType::Known(out)
}

/// Composes the transitive summary of `(root, transition)` against a
/// deployment (see module docs). Returns `None` when the root transition
/// does not exist.
pub fn compose(
    view: &dyn DeploymentView,
    root: &str,
    transition: &str,
) -> Option<ComposedSummary> {
    let root_summary = view.summary(root, transition)?;
    let mut composed = ComposedSummary {
        root: root.to_string(),
        transition: transition.to_string(),
        members: Vec::new(),
        widened: false,
        wallet_sends: 0,
    };
    let mut bindings = BTreeMap::new();
    for p in &root_summary.params {
        bindings.insert(p.clone(), Binding::Param(p.clone()));
    }
    bindings.insert("_sender".to_string(), Binding::Param("_sender".to_string()));
    bindings.insert("_origin".to_string(), Binding::Param("_origin".to_string()));
    let mut stack = vec![(root.to_string(), transition.to_string())];
    walk(view, &mut composed, root, transition, &root_summary, bindings, 0, None, &mut stack);
    Some(composed)
}

#[allow(clippy::too_many_arguments)]
fn walk(
    view: &dyn DeploymentView,
    composed: &mut ComposedSummary,
    contract: &str,
    transition: &str,
    summary: &TransitionSummary,
    bindings: BTreeMap<String, Binding>,
    depth: usize,
    caller: Option<usize>,
    stack: &mut Vec<(String, String)>,
) {
    if summary.has_top() {
        // A ⊤ member may send anywhere; the chain cannot be contained.
        composed.widened = true;
    }
    let my_index = composed.members.len();
    composed.members.push(ComposedMember {
        contract: contract.to_string(),
        transition: transition.to_string(),
        depth,
        caller,
        effects: substitute_effects(summary, &bindings),
        bindings: bindings.clone(),
    });
    if composed.widened {
        return;
    }
    let has_sends = summary.effects.iter().any(|e| matches!(e, Effect::SendMsg(_)));
    let Some(calls) = view.calls(contract) else {
        if has_sends {
            composed.widened = true;
        }
        return;
    };
    for site in calls.sites_of(transition) {
        let Some(tag) = &site.tag else {
            composed.widened = true;
            continue;
        };
        let binding = match &site.recipient {
            Recipient::TransitionParam(p) => {
                Some(bindings.get(p).cloned().unwrap_or(Binding::Unknown))
            }
            _ => None,
        };
        let target = match (&site.recipient, &binding) {
            (Recipient::Dynamic, _) => Target::Unknown,
            (_, Some(Binding::Caller(i))) => Target::Contract(composed.members[*i].contract.clone()),
            (_, Some(Binding::Unknown)) => Target::Unknown,
            _ => view.resolve_target(contract, &site.recipient, binding.as_ref()),
        };
        match target {
            Target::Wallet => composed.wallet_sends += 1,
            Target::Unknown => composed.widened = true,
            Target::Contract(callee) => {
                if depth + 1 > DEPTH_BOUND {
                    composed.widened = true;
                    continue;
                }
                if stack.iter().any(|(c, t)| c == &callee && t == tag) {
                    // Cycle: widen rather than unroll (the fixpoint of a
                    // recursive chain is not finitely enumerable here).
                    composed.widened = true;
                    continue;
                }
                let Some(callee_summary) = view.summary(&callee, tag) else {
                    // No such transition: the runtime send would bounce,
                    // but statically we must not claim containment.
                    composed.widened = true;
                    continue;
                };
                let mut callee_bindings = BTreeMap::new();
                for p in &callee_summary.params {
                    let v = site
                        .args
                        .get(p)
                        .map(|a| match a {
                            Binding::Param(q) => {
                                bindings.get(q).cloned().unwrap_or(Binding::Unknown)
                            }
                            Binding::Const(c) => Binding::Const(c.clone()),
                            _ => Binding::Unknown,
                        })
                        .unwrap_or(Binding::Unknown);
                    callee_bindings.insert(p.clone(), v);
                }
                callee_bindings.insert("_sender".to_string(), Binding::Caller(my_index));
                callee_bindings.insert("_origin".to_string(), Binding::Param("_origin".to_string()));
                stack.push((callee.clone(), tag.clone()));
                walk(
                    view,
                    composed,
                    &callee,
                    tag,
                    &callee_summary,
                    callee_bindings,
                    depth + 1,
                    Some(my_index),
                    stack,
                );
                stack.pop();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A static deployment for tests and offline tooling
// ---------------------------------------------------------------------------

/// A [`DeploymentView`] over a static contract set, with explicit values
/// for deployment parameters and immutable fields. Names registered as
/// contracts resolve to [`Target::Contract`]; any other resolved value is a
/// wallet. Root transaction arguments are unknown.
#[derive(Debug, Clone, Default)]
pub struct MapDeployment {
    contracts: BTreeMap<String, (Vec<TransitionSummary>, ContractCalls)>,
    /// `(contract, param-or-field name) → value`.
    values: BTreeMap<(String, String), String>,
}

impl MapDeployment {
    /// Registers a contract with its summaries and call sites.
    pub fn deploy(&mut self, name: &str, summaries: Vec<TransitionSummary>, calls: ContractCalls) {
        self.contracts.insert(name.to_string(), (summaries, calls));
    }

    /// Sets a deployment parameter or immutable field value.
    pub fn set_value(&mut self, contract: &str, name: &str, value: &str) {
        self.values.insert((contract.to_string(), name.to_string()), value.to_string());
    }

    fn target_of(&self, value: &str) -> Target {
        if self.contracts.contains_key(value) {
            Target::Contract(value.to_string())
        } else {
            Target::Wallet
        }
    }
}

impl DeploymentView for MapDeployment {
    fn resolve_target(
        &self,
        caller: &str,
        recipient: &Recipient,
        binding: Option<&Binding>,
    ) -> Target {
        match recipient {
            Recipient::Literal(c) => self.target_of(c),
            Recipient::ContractParam(p) | Recipient::InitField(p) => {
                match self.values.get(&(caller.to_string(), p.clone())) {
                    Some(v) => self.target_of(v),
                    None => Target::Unknown,
                }
            }
            Recipient::TransitionParam(_) => match binding {
                Some(Binding::Const(c)) => self.target_of(c),
                _ => Target::Unknown,
            },
            Recipient::Dynamic => Target::Unknown,
        }
    }

    fn summary(&self, contract: &str, transition: &str) -> Option<TransitionSummary> {
        let (summaries, _) = self.contracts.get(contract)?;
        summaries.iter().find(|s| s.name == transition).cloned()
    }

    fn calls(&self, contract: &str) -> Option<ContractCalls> {
        self.contracts.get(contract).map(|(_, c)| c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::summarize_contract;
    use scilla::parser::parse_module;
    use scilla::typechecker::typecheck;

    const LIB: &str = r#"
        library TestLib
        let nil_msg = Nil {Message}
        let one_msg = fun (m : Message) => Cons {Message} m nil_msg
    "#;

    fn checked(src: &str) -> CheckedModule {
        typecheck(parse_module(&format!("{LIB}\n{src}")).unwrap()).unwrap()
    }

    fn analyse(src: &str) -> (CheckedModule, Vec<TransitionSummary>) {
        let m = checked(src);
        let s = summarize_contract(&m);
        (m, s)
    }

    const RELAY: &str = r#"
        contract Relay (sink : ByStr20)
        field relayed : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Ping ()
          one = Uint128 1;
          n_opt <- relayed[_sender];
          n = match n_opt with
            | Some m => builtin add m one
            | None => one
            end;
          relayed[_sender] := n;
          zero = Uint128 0;
          msg = { _tag : "Hello"; _recipient : sink; _amount : zero; from : _sender };
          msgs = one_msg msg;
          send msgs
        end
    "#;

    const RECEIVER: &str = r#"
        contract Receiver ()
        field greetings : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Hello (from : ByStr20)
          one = Uint128 1;
          n_opt <- greetings[from];
          n = match n_opt with
            | Some m => builtin add m one
            | None => one
            end;
          greetings[from] := n
        end
    "#;

    #[test]
    fn relay_site_classifies_as_contract_param() {
        let (m, s) = analyse(RELAY);
        let calls = ContractCalls::extract(&m, &s);
        assert_eq!(calls.sites.len(), 1);
        let site = &calls.sites[0];
        assert_eq!(site.tag.as_deref(), Some("Hello"));
        assert_eq!(site.recipient, Recipient::ContractParam("sink".into()));
        assert!(site.amount_is_zero);
        assert_eq!(site.args.get("from"), Some(&Binding::Param("_sender".into())));
    }

    #[test]
    fn mutable_field_recipient_is_dynamic() {
        let (m, s) = analyse(
            r#"
            contract Proxy (init_impl : ByStr20)
            field impl : ByStr20 = init_impl
            transition Retarget (next : ByStr20)
              impl := next
            end
            transition Forward ()
              target <- impl;
              zero = Uint128 0;
              msg = { _tag : "Handle"; _recipient : target; _amount : zero };
              msgs = one_msg msg;
              send msgs
            end
        "#,
        );
        let calls = ContractCalls::extract(&m, &s);
        let fwd: Vec<_> = calls.sites_of("Forward").collect();
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].recipient, Recipient::Dynamic);
        assert!(!calls.immutable_fields.contains("impl"));
        assert_eq!(calls.dynamic_recipients(), vec![("Forward".to_string(), 1)]);
    }

    #[test]
    fn unwritten_field_recipient_resolves_as_init_field() {
        let (m, s) = analyse(
            r#"
            contract Fwd (init_impl : ByStr20)
            field impl : ByStr20 = init_impl
            transition Forward ()
              target <- impl;
              zero = Uint128 0;
              msg = { _tag : "Handle"; _recipient : target; _amount : zero };
              msgs = one_msg msg;
              send msgs
            end
        "#,
        );
        let calls = ContractCalls::extract(&m, &s);
        assert!(calls.immutable_fields.contains("impl"));
        let fwd: Vec<_> = calls.sites_of("Forward").collect();
        assert_eq!(fwd[0].recipient, Recipient::InitField("impl".into()));
    }

    #[test]
    fn graph_builds_and_wire_roundtrips() {
        let (rm, rs) = analyse(RELAY);
        let (hm, hs) = analyse(RECEIVER);
        let graph = CallGraph::build(&[
            GraphContract {
                name: "Relay".into(),
                transitions: rs.iter().map(|s| s.name.clone()).collect(),
                calls: ContractCalls::extract(&rm, &rs),
            },
            GraphContract {
                name: "Receiver".into(),
                transitions: hs.iter().map(|s| s.name.clone()).collect(),
                calls: ContractCalls::extract(&hm, &hs),
            },
        ]);
        assert_eq!(graph.edges.len(), 1);
        assert!(graph.edges[0].is_resolved());
        assert_eq!(graph.edges[0].candidates, vec!["Receiver".to_string()]);
        assert!((graph.resolved_fraction() - 1.0).abs() < f64::EPSILON);

        let round = CallGraph::from_json(&graph.to_json()).unwrap();
        assert_eq!(round, graph);

        let dot = graph.to_dot();
        assert!(dot.contains("\"Relay.Ping\" -> \"Receiver.Hello\""));
    }

    #[test]
    fn compose_substitutes_caller_bindings_into_callee_keys() {
        let (rm, rs) = analyse(RELAY);
        let (hm, hs) = analyse(RECEIVER);
        let mut dep = MapDeployment::default();
        let rc = ContractCalls::extract(&rm, &rs);
        let hc = ContractCalls::extract(&hm, &hs);
        dep.deploy("Relay", rs, rc);
        dep.deploy("Receiver", hs, hc);
        dep.set_value("Relay", "sink", "Receiver");

        let composed = compose(&dep, "Relay", "Ping").unwrap();
        assert!(!composed.widened, "fully resolvable chain must not widen");
        assert!(composed.is_chain());
        assert!(composed.contains("Receiver", "Hello"));
        let fp = composed.footprint().unwrap();
        // The callee writes greetings[from]; `from` is bound to the
        // caller's `_sender`, which in root space is... the root's own
        // `_sender` (the transaction sender).
        assert!(
            fp.contains(&("Receiver".to_string(), "greetings[_sender]".to_string())),
            "callee key not substituted: {fp:?}"
        );
        assert!(fp.contains(&("Relay".to_string(), "relayed[_sender]".to_string())));
    }

    #[test]
    fn compose_widens_on_unresolvable_sink_and_on_cycles() {
        // Unresolvable deployment value for `sink`.
        let (rm, rs) = analyse(RELAY);
        let mut dep = MapDeployment::default();
        let rc = ContractCalls::extract(&rm, &rs);
        dep.deploy("Relay", rs.clone(), rc.clone());
        let composed = compose(&dep, "Relay", "Ping").unwrap();
        assert!(composed.widened, "unknown sink must widen");

        // A wallet sink is fine: the send is a payment.
        dep.set_value("Relay", "sink", "some-wallet");
        let composed = compose(&dep, "Relay", "Ping").unwrap();
        assert!(!composed.widened);
        assert!(!composed.is_chain());
        assert_eq!(composed.wallet_sends, 1);

        // Two relays pointed at each other: Ping → Hello is fine, but a
        // self-loop A.Ping → A.Ping must widen.
        let loop_src = r#"
            contract Looper (peer : ByStr20)
            transition Ping ()
              zero = Uint128 0;
              msg = { _tag : "Ping"; _recipient : peer; _amount : zero };
              msgs = one_msg msg;
              send msgs
            end
        "#;
        let (lm, ls) = analyse(loop_src);
        let lc = ContractCalls::extract(&lm, &ls);
        let mut dep = MapDeployment::default();
        dep.deploy("A", ls.clone(), lc.clone());
        dep.deploy("B", ls, lc);
        dep.set_value("A", "peer", "B");
        dep.set_value("B", "peer", "A");
        let composed = compose(&dep, "A", "Ping").unwrap();
        assert!(composed.widened, "A→B→A cycle must widen");
        assert!(composed.contains("B", "Ping"), "first hop still recorded");
    }

    #[test]
    fn depth_bound_widens_long_chains() {
        // A chain of distinct one-send contracts longer than DEPTH_BOUND.
        let hop = |next_tag: &str| {
            format!(
                r#"
                contract Hop (next : ByStr20)
                transition Go{next_tag} ()
                  zero = Uint128 0;
                  msg = {{ _tag : "Go{}"; _recipient : next; _amount : zero }};
                  msgs = one_msg msg;
                  send msgs
                end
            "#,
                next_tag.parse::<usize>().unwrap() + 1
            )
        };
        let mut dep = MapDeployment::default();
        for i in 0..7usize {
            let (m, s) = analyse(&hop(&i.to_string()));
            let c = ContractCalls::extract(&m, &s);
            dep.deploy(&format!("H{i}"), s, c);
            if i > 0 {
                dep.set_value(&format!("H{}", i - 1), "next", &format!("H{i}"));
            }
        }
        // Terminal hop points at a wallet so only depth can widen.
        dep.set_value("H6", "next", "wallet");
        let composed = compose(&dep, "H0", "Go0").unwrap();
        assert!(composed.widened, "chain deeper than DEPTH_BOUND must widen");
        assert!(composed.members.len() <= DEPTH_BOUND + 1);
    }
}
