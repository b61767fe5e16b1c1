//! The effect analysis: abstract interpretation of transitions into
//! [`TransitionSummary`]s (paper §3.2–3.4, Fig. 7).
//!
//! The analysis mirrors the interpreter on an abstract domain. Pure values
//! are tracked as [`ContribType`]s; functions are tracked as *abstract
//! closures* and applied at call sites. This realises the paper's `EFun`
//! arrow types (which defer normalisation until arguments are known) by
//! direct substitution — equivalent for the paper's up-to-second-order
//! fragment, and total because the language has no recursion.
//!
//! Two modes are supported (see [`AnalysisMode`]). The *refined* mode is
//! flow-sensitive: an abstract per-field store (`AbsStore`) forwards
//! values written by the transition itself to later reads of the same
//! pseudo-field (sound because pseudo-field keys are transition parameters,
//! fixed per invocation), and every remaining imprecision is localized to
//! the pseudo-field it can touch (`Effect::TopField`) and recorded as a
//! span-bearing [`BlameCause`]. The *legacy* mode reproduces the original
//! single-pass accumulator, where any such imprecision poisoned the whole
//! summary with a global `⊤` — kept as the reference point for precision
//! comparisons and differential tests.

use crate::blame::{BlameCause, BlameKind};
use crate::domain::{ContribSource, ContribType, Op, PseudoField};
use crate::effects::{Effect, MsgAbs, TransitionSummary};
use scilla::ast::*;
use scilla::span::Span;
use scilla::typechecker::CheckedModule;
use scilla::types::Type;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

/// A persistent (cons-list) abstract environment: O(1) clone and extend,
/// O(depth) lookup. Scopes in contract code are shallow, and the analysis
/// clones environments at every statement, match clause, and closure
/// capture — a hash map would make those clones dominate analysis time.
#[derive(Debug, Clone, Default)]
struct AbsEnv(Option<Rc<AbsEnvNode>>);

#[derive(Debug)]
struct AbsEnvNode {
    name: String,
    value: AbsVal,
    rest: AbsEnv,
}

impl AbsEnv {
    fn new() -> Self {
        AbsEnv(None)
    }

    fn insert(&mut self, name: String, value: AbsVal) {
        *self = AbsEnv(Some(Rc::new(AbsEnvNode { name, value, rest: self.clone() })));
    }

    fn get(&self, name: &str) -> Option<&AbsVal> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if node.name == name {
                return Some(&node.value);
            }
            cur = &node.rest;
        }
        None
    }

    fn extend(&mut self, binds: impl IntoIterator<Item = (String, AbsVal)>) {
        for (n, v) in binds {
            self.insert(n, v);
        }
    }
}

/// An abstract value.
#[derive(Debug, Clone)]
enum AbsVal {
    /// A first-order value summarised by its contributions.
    Contrib(ContribType),
    /// A function with its captured abstract environment.
    Clo { param: String, body: Rc<Expr>, env: AbsEnv },
    /// A type abstraction.
    TClo { body: Rc<Expr>, env: AbsEnv },
    /// A message literal (kept structured so `send` can be summarised).
    Msg(MsgAbs),
    /// A constructed value whose arguments include structured values
    /// (messages, closures) — kept structured so matches stay precise.
    Adt { ctor: String, args: Vec<AbsVal> },
}

impl AbsVal {
    fn top() -> Self {
        AbsVal::Contrib(ContribType::Top)
    }

    /// Collapses a structured value to its overall contribution.
    fn collapse(&self) -> ContribType {
        match self {
            AbsVal::Contrib(t) => t.clone(),
            AbsVal::Msg(m) => m.recipient.add(&m.amount),
            AbsVal::Adt { args, .. } => args
                .iter()
                .fold(ContribType::bottom(), |acc, a| acc.add(&a.collapse())),
            AbsVal::Clo { .. } | AbsVal::TClo { .. } => ContribType::Top,
        }
    }
}

/// Which analysis pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// The original single-pass accumulator: any read-after-write or
    /// unsummarisable access poisons the whole summary with a global `⊤`.
    Legacy,
    /// Flow-sensitive: the abstract store forwards written values to later
    /// reads and imprecision localizes to `⊤[pf]` per pseudo-field.
    #[default]
    Refined,
}

/// The full result of analysing a contract: per-transition summaries plus
/// every precision loss the analysis had to take, with source spans.
#[derive(Debug, Clone)]
pub struct ContractAnalysis {
    /// One summary per transition, in declaration order.
    pub summaries: Vec<TransitionSummary>,
    /// Every recorded precision loss, across all transitions.
    pub blames: Vec<BlameCause>,
}

/// Analyses every transition of a checked contract, producing one summary
/// per transition (paper Fig. 8 shows the summary for `Transfer`), under
/// the refined analysis.
///
/// # Examples
///
/// ```
/// let src = r#"
///   contract C ()
///   field n : Uint128 = Uint128 0
///   transition Bump (v : Uint128)
///     c <- n;
///     c2 = builtin add c v;
///     n := c2
///   end
/// "#;
/// let checked = scilla::typechecker::typecheck(scilla::parser::parse_module(src).unwrap()).unwrap();
/// let summaries = cosplit_analysis::analysis::summarize_contract(&checked);
/// assert_eq!(summaries[0].name, "Bump");
/// assert!(summaries[0].effects.iter().any(|e| e.to_string().starts_with("Write(n")));
/// ```
pub fn summarize_contract(checked: &CheckedModule) -> Vec<TransitionSummary> {
    analyze_contract(checked, AnalysisMode::Refined).summaries
}

/// [`summarize_contract`] pinned to the legacy accumulator, for precision
/// comparisons.
pub fn summarize_contract_legacy(checked: &CheckedModule) -> Vec<TransitionSummary> {
    analyze_contract(checked, AnalysisMode::Legacy).summaries
}

/// Analyses every transition under an explicit mode, also returning the
/// blame causes behind each precision loss.
pub fn analyze_contract(checked: &CheckedModule, mode: AnalysisMode) -> ContractAnalysis {
    let lib_env = library_env(checked);
    let mut summaries = Vec::new();
    let mut blames = Vec::new();
    for t in &checked.contract().transitions {
        let (s, b) = summarize_transition(checked, &lib_env, t, mode);
        summaries.push(s);
        blames.extend(b);
    }
    ContractAnalysis { summaries, blames }
}

fn library_env(checked: &CheckedModule) -> AbsEnv {
    let mut env = AbsEnv::new();
    for entry in &checked.module.library {
        if let LibEntry::Let { name, body, .. } = entry {
            let v = Analyzer::pure_eval(&env, body);
            env.insert(name.name.clone(), v);
        }
    }
    env
}

/// The flow-sensitive abstract store: what this transition has written so
/// far, per pseudo-field, plus the *shapes* (key depths) of those writes.
///
/// Forwarding an entry is sound because pseudo-field keys are transition
/// parameters — fixed for the whole invocation — so syntactic pseudo-field
/// equality implies concrete component equality. A read whose depth differs
/// from some recorded write depth (`defeated`) may observe a component the
/// store cannot name precisely, and degrades to `⊤[field]`.
#[derive(Debug, Clone, Default)]
struct AbsStore {
    entries: BTreeMap<PseudoField, StoreEntry>,
    depths: BTreeMap<String, BTreeSet<usize>>,
}

/// Sentinel depth for writes whose key shape is unknown (unsummarisable
/// accesses): defeats every subsequent read of the field.
const UNKNOWN_DEPTH: usize = usize::MAX;

#[derive(Debug, Clone)]
struct StoreEntry {
    /// Contribution of the written value.
    val: ContribType,
    /// Written on *every* path reaching here (forwardable), as opposed to
    /// only some branches of a join (must still read the initial value).
    definite: bool,
}

impl AbsStore {
    fn record_write(&mut self, pf: &PseudoField, val: ContribType) {
        let depth = pf.keys.len();
        if depth == 0 {
            // A whole-field store overwrites the entire field: earlier
            // entry-writes can no longer defeat later reads.
            let f = pf.field.clone();
            self.entries.retain(|k, _| k.field != f);
            self.depths.insert(f, BTreeSet::from([0]));
        } else {
            self.depths.entry(pf.field.clone()).or_default().insert(depth);
        }
        self.entries.insert(pf.clone(), StoreEntry { val, definite: true });
    }

    /// An unsummarisable write happened on `field`: forget everything known
    /// about it and defeat all subsequent reads.
    fn record_unsummarised(&mut self, field: &str) {
        self.entries.retain(|k, _| k.field != field);
        self.depths.entry(field.to_string()).or_default().insert(UNKNOWN_DEPTH);
    }

    /// Is a read of `field` at key-depth `depth` defeated by a write whose
    /// shape differs (which may alias the read component)?
    fn defeated(&self, field: &str, depth: usize) -> bool {
        self.depths.get(field).is_some_and(|ds| ds.iter().any(|d| *d != depth))
    }

    fn get(&self, pf: &PseudoField) -> Option<&StoreEntry> {
        self.entries.get(pf)
    }

    /// Joins the stores flowing out of a match's clauses. Depth sets union;
    /// an entry stays `definite` only if every clause wrote it definitely.
    fn join_clauses(entry: &AbsStore, outs: Vec<AbsStore>) -> AbsStore {
        if outs.is_empty() {
            return entry.clone();
        }
        let mut depths: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for s in &outs {
            for (f, ds) in &s.depths {
                depths.entry(f.clone()).or_default().extend(ds.iter().copied());
            }
        }
        let keys: BTreeSet<PseudoField> =
            outs.iter().flat_map(|s| s.entries.keys().cloned()).collect();
        let mut entries = BTreeMap::new();
        for k in keys {
            let hits: Vec<&StoreEntry> = outs.iter().filter_map(|s| s.entries.get(&k)).collect();
            let mut val = hits[0].val.clone();
            for h in &hits[1..] {
                val = val.join(&h.val);
            }
            let definite = hits.len() == outs.len() && hits.iter().all(|h| h.definite);
            entries.insert(k, StoreEntry { val, definite });
        }
        AbsStore { entries, depths }
    }
}

/// Analyses one transition against a prebuilt library environment.
fn summarize_transition(
    checked: &CheckedModule,
    lib_env: &AbsEnv,
    t: &Transition,
    mode: AnalysisMode,
) -> (TransitionSummary, Vec<BlameCause>) {
    let mut env = lib_env.clone();
    let mut key_params: HashSet<String> = HashSet::new();
    for implicit in ["_sender", "_origin", "_amount", "_this_address"] {
        env.insert(implicit.into(), AbsVal::Contrib(ContribType::source(ContribSource::Param(implicit.into()))));
    }
    key_params.insert("_sender".into());
    key_params.insert("_origin".into());
    for p in &checked.contract().params {
        env.insert(p.name.name.clone(), AbsVal::Contrib(ContribType::source(ContribSource::Param(p.name.name.clone()))));
    }
    for p in &t.params {
        env.insert(p.name.name.clone(), AbsVal::Contrib(ContribType::source(ContribSource::Param(p.name.name.clone()))));
        key_params.insert(p.name.name.clone());
    }
    let mut analyzer = Analyzer {
        field_types: &checked.field_types,
        key_params,
        derived: HashMap::new(),
        mode,
        summary: TransitionSummary {
            name: t.name.name.clone(),
            params: t.params.iter().map(|p| p.name.name.clone()).collect(),
            effects: Vec::new(),
        },
        store: AbsStore::default(),
        blames: Vec::new(),
    };
    analyzer.stmts(&env, &t.body);
    (analyzer.summary, analyzer.blames)
}

/// Why an access could not be summarised into a pseudo-field.
enum AccessProblem {
    /// Some key is not a transition parameter (it was computed).
    ComputedKey(String),
    /// The access stops at an interior map level, so the set of touched
    /// bottom-level components is unbounded.
    PartialAccess,
}

struct Analyzer<'a> {
    field_types: &'a HashMap<String, Type>,
    /// Names usable as summarisable map keys: transition parameters plus the
    /// implicit `_sender`/`_origin` (paper §3.3 `CanSummarise`).
    key_params: HashSet<String>,
    /// Refined mode only: binders whose value is an exact, dispatch-replayable
    /// derivation of a transition parameter — a pure alias (`k = who`) or a
    /// chain of [`crate::domain::DERIVABLE_KEY_BUILTINS`] applications
    /// (`slot = builtin sha256hash account`). Maps the binder to the derived
    /// key expression (`"who"`, `"sha256hash(account)"`).
    derived: HashMap<String, String>,
    mode: AnalysisMode,
    summary: TransitionSummary,
    /// Refined mode only: values this transition has written so far.
    store: AbsStore,
    blames: Vec<BlameCause>,
}

impl Analyzer<'_> {
    /// `CanSummarise` (paper §3.3, extended): each key must be a transition
    /// parameter — or, in refined mode, an exact derivation of one that
    /// dispatch can replay — and the access must reach a bottom-level
    /// (non-map) value. On failure reports *which* condition failed, for
    /// blame.
    fn classify_access(&self, field: &Ident, keys: &[Ident]) -> Result<PseudoField, AccessProblem> {
        let mut key_exprs = Vec::with_capacity(keys.len());
        for k in keys {
            match self.key_expr_of_ident(k) {
                Some(expr) => key_exprs.push(expr),
                None => return Err(AccessProblem::ComputedKey(k.name.clone())),
            }
        }
        let value_ty = self
            .field_types
            .get(&field.name)
            .and_then(|fty| fty.map_access(keys.len()))
            .map(|(_, v)| v)
            .ok_or(AccessProblem::PartialAccess)?;
        if matches!(value_ty, Type::Map(..)) {
            return Err(AccessProblem::PartialAccess);
        }
        Ok(PseudoField::entry(&field.name, key_exprs))
    }

    /// The derived-key expression an identifier denotes, if any: the
    /// identifier itself for a transition parameter, or its recorded
    /// derivation for a tracked binder.
    fn key_expr_of_ident(&self, i: &Ident) -> Option<String> {
        if self.key_params.contains(&i.name) {
            Some(i.name.clone())
        } else {
            self.derived.get(&i.name).cloned()
        }
    }

    /// Records (or kills, on rebinding) a binder's key derivation.
    fn note_derived(&mut self, lhs: &Ident, rhs: &Expr) {
        self.derived.remove(&lhs.name);
        if self.mode != AnalysisMode::Refined {
            return;
        }
        let expr = match rhs {
            Expr::Var(i) => self.key_expr_of_ident(i),
            Expr::Builtin { op, args }
                if crate::domain::DERIVABLE_KEY_BUILTINS.contains(&op.name.as_str()) =>
            {
                match args.as_slice() {
                    [a] => self.key_expr_of_ident(a).map(|inner| format!("{}({inner})", op.name)),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(expr) = expr {
            self.derived.insert(lhs.name.clone(), expr);
        }
    }

    /// Clause entry: pattern binders shadow same-named derivations. Returns
    /// the pre-clause map to restore on exit (clause-local bindings are out
    /// of scope afterwards, and derivations must not leak across branches).
    fn shadow_derived(&mut self, pat: &Pattern) -> HashMap<String, String> {
        let saved = self.derived.clone();
        for b in pat.binders() {
            self.derived.remove(&b.name);
        }
        saved
    }

    /// Records a precision loss (deduplicated).
    fn blame(&mut self, kind: BlameKind, field: Option<PseudoField>, detail: String, span: Span) {
        let b = BlameCause { transition: self.summary.name.clone(), kind, field, detail, span };
        if !self.blames.contains(&b) {
            self.blames.push(b);
        }
    }

    /// An access that `classify_access` rejected: blame it, then either
    /// poison the summary (legacy) or localize the ⊤ to the field (refined).
    fn unsummarised_access(&mut self, field: &Ident, problem: &AccessProblem, span: Span) {
        let (kind, detail) = match problem {
            AccessProblem::ComputedKey(k) => (
                BlameKind::ComputedKey,
                format!("map key '{k}' is not a transition parameter"),
            ),
            AccessProblem::PartialAccess => (
                BlameKind::PartialAccess,
                format!("access into '{}' stops at an interior map level", field.name),
            ),
        };
        self.blame(kind, Some(PseudoField::whole(&field.name)), detail, span);
        match self.mode {
            AnalysisMode::Legacy => self.summary.push(Effect::Top),
            AnalysisMode::Refined => {
                self.summary.push(Effect::TopField(PseudoField::whole(&field.name)));
                self.store.record_unsummarised(&field.name);
            }
        }
    }

    /// Refined-mode read of component `pf`: forwards the stored value when
    /// this exact component was definitely written, degrades to `⊤[field]`
    /// when a differently-shaped write defeats forwarding, and otherwise
    /// reads the initial value. Returns the abstract value to bind.
    fn refined_read(&mut self, pf: PseudoField, span: Span) -> AbsVal {
        if self.store.defeated(&pf.field, pf.keys.len()) {
            self.blame(
                BlameKind::ReadAfterWrite,
                Some(pf.clone()),
                format!("read of {pf} after a differently-shaped write to '{}'", pf.field),
                span,
            );
            self.summary.push(Effect::TopField(PseudoField::whole(&pf.field)));
            return AbsVal::top();
        }
        match self.store.get(&pf) {
            // Store forwarding: the read observes the value this transition
            // wrote, not initial state — no Read effect.
            Some(e) if e.definite => AbsVal::Contrib(e.val.clone()),
            // Written on some paths only: may still observe the initial
            // value, so the Read stays and the values join.
            Some(e) => {
                let joined = e.val.join(&ContribType::source(ContribSource::Field(pf.clone())));
                self.summary.push(Effect::Read(pf));
                AbsVal::Contrib(joined)
            }
            None => {
                self.summary.push(Effect::Read(pf.clone()));
                AbsVal::Contrib(ContribType::source(ContribSource::Field(pf)))
            }
        }
    }

    /// Records a summarised write into the store (refined mode only).
    fn note_write(&mut self, pf: &PseudoField, val: &ContribType) {
        if self.mode == AnalysisMode::Refined {
            self.store.record_write(pf, val.clone());
        }
    }

    fn stmts(&mut self, env: &AbsEnv, body: &[Stmt]) -> AbsEnv {
        let mut env = env.clone();
        for s in body {
            env = self.stmt(&env, s);
        }
        env
    }

    fn stmt(&mut self, env: &AbsEnv, s: &Stmt) -> AbsEnv {
        let mut env = env.clone();
        match s {
            Stmt::Load { lhs, field } => {
                let pf = PseudoField::whole(&field.name);
                let v = match self.mode {
                    AnalysisMode::Legacy => {
                        if self.summary.has_write(&pf) {
                            self.blame(
                                BlameKind::ReadAfterWrite,
                                Some(pf),
                                format!("load of '{}' after this transition wrote it", field.name),
                                s.span(),
                            );
                            self.summary.push(Effect::Top);
                            AbsVal::top()
                        } else {
                            self.summary.push(Effect::Read(pf.clone()));
                            AbsVal::Contrib(ContribType::source(ContribSource::Field(pf)))
                        }
                    }
                    AnalysisMode::Refined => self.refined_read(pf, s.span()),
                };
                env.insert(lhs.name.clone(), v);
            }
            Stmt::Store { field, rhs } => {
                let pf = PseudoField::whole(&field.name);
                let t = self.lookup(&env, rhs).collapse();
                self.note_write(&pf, &t);
                self.summary.push(Effect::Write(pf, t));
            }
            Stmt::Bind { lhs, rhs } => {
                let v = self.eval(&env, rhs);
                self.note_derived(lhs, rhs);
                env.insert(lhs.name.clone(), v);
            }
            Stmt::MapUpdate { map, keys, rhs } => match self.classify_access(map, keys) {
                Ok(pf) => {
                    let t = self.lookup(&env, rhs).collapse();
                    self.note_write(&pf, &t);
                    self.summary.push(Effect::Write(pf, t));
                }
                Err(p) => self.unsummarised_access(map, &p, s.span()),
            },
            Stmt::MapGet { lhs, map, keys } => {
                // Fig. 7 MapGet: informative only if the keys can be
                // summarised and no earlier write gets in the way — in
                // refined mode the abstract store forwards same-component
                // writes instead of giving up.
                let v = match self.classify_access(map, keys) {
                    Ok(pf) => match self.mode {
                        AnalysisMode::Legacy if self.summary.has_write(&pf) => {
                            self.blame(
                                BlameKind::ReadAfterWrite,
                                Some(pf),
                                format!("read of '{}' entry after this transition wrote it", map.name),
                                s.span(),
                            );
                            self.summary.push(Effect::Top);
                            AbsVal::top()
                        }
                        AnalysisMode::Legacy => {
                            self.summary.push(Effect::Read(pf.clone()));
                            AbsVal::Contrib(ContribType::source(ContribSource::Field(pf)))
                        }
                        AnalysisMode::Refined => self.refined_read(pf, s.span()),
                    },
                    Err(p) => {
                        self.unsummarised_access(map, &p, s.span());
                        AbsVal::top()
                    }
                };
                env.insert(lhs.name.clone(), v);
            }
            Stmt::MapExists { lhs, map, keys } => {
                let v = match self.classify_access(map, keys) {
                    Ok(pf) => {
                        let defeated = self.mode == AnalysisMode::Refined
                            && self.store.defeated(&pf.field, pf.keys.len());
                        if self.mode == AnalysisMode::Legacy && self.summary.has_write(&pf) {
                            self.blame(
                                BlameKind::ReadAfterWrite,
                                Some(pf),
                                format!("existence test on '{}' after this transition wrote it", map.name),
                                s.span(),
                            );
                            self.summary.push(Effect::Top);
                            AbsVal::top()
                        } else if defeated {
                            self.blame(
                                BlameKind::ReadAfterWrite,
                                Some(pf.clone()),
                                format!(
                                    "existence test on {pf} after a differently-shaped write to '{}'",
                                    map.name
                                ),
                                s.span(),
                            );
                            self.summary.push(Effect::TopField(PseudoField::whole(&pf.field)));
                            AbsVal::top()
                        } else if self.mode == AnalysisMode::Refined
                            && self.store.get(&pf).is_some_and(|e| e.definite)
                        {
                            // The transition itself determined the entry's
                            // existence (wrote or deleted it): the test's
                            // outcome is a constant — no read of initial
                            // state, no provenance.
                            AbsVal::Contrib(ContribType::bottom())
                        } else {
                            self.summary.push(Effect::Read(pf.clone()));
                            let t = ContribType::source(ContribSource::Field(pf))
                                .with_op(Op::Builtin("exists".into()));
                            AbsVal::Contrib(t)
                        }
                    }
                    Err(p) => {
                        self.unsummarised_access(map, &p, s.span());
                        AbsVal::top()
                    }
                };
                env.insert(lhs.name.clone(), v);
            }
            Stmt::MapDelete { map, keys } => match self.classify_access(map, keys) {
                // A delete is an overwriting effect whose "written value"
                // (absence) depends on nothing: ⊥ provenance. It is still
                // non-commutative (no self-contribution), hence owned.
                Ok(pf) => {
                    self.note_write(&pf, &ContribType::bottom());
                    self.summary.push(Effect::Write(pf, ContribType::bottom()));
                }
                Err(p) => self.unsummarised_access(map, &p, s.span()),
            },
            Stmt::ReadBlockchain { lhs, .. } => {
                // The block number is identical across shards within an
                // epoch, so it acts as an environment constant.
                env.insert(
                    lhs.name.clone(),
                    AbsVal::Contrib(ContribType::source(ContribSource::Const("BLOCKNUMBER".into()))),
                );
            }
            Stmt::Match { scrutinee, clauses, span } => {
                let sv = self.lookup(&env, scrutinee);
                let mut handled = false;
                if let AbsVal::Adt { ctor, args } = &sv {
                    // Structured scrutinee: select the clause statically. The
                    // single selected clause executes unconditionally, so the
                    // store flows through it linearly.
                    for (pat, body) in clauses {
                        if let Some(binds) = match_structured(pat, ctor, args) {
                            let mut inner = env.clone();
                            inner.extend(binds);
                            let saved = self.shadow_derived(pat);
                            self.stmts(&inner, body);
                            self.derived = saved;
                            handled = true;
                            break;
                        }
                    }
                    // No clause matched the constructor (non-exhaustive
                    // match): fall through to the join-all-clauses path
                    // below instead of silently dropping every branch's
                    // effects.
                }
                if !handled {
                    let t = sv.collapse();
                    if t.is_top() {
                        self.blame(
                            BlameKind::TopScrutinee,
                            None,
                            format!("scrutinee '{}' has unknown value", scrutinee.name),
                            *span,
                        );
                        match self.mode {
                            AnalysisMode::Legacy => self.summary.push(Effect::Top),
                            // Control flow depends on something unknown; the
                            // fields it can depend on are already covered by
                            // the `⊤[pf]` that made the value unknown.
                            AnalysisMode::Refined => {
                                self.summary.push(Effect::Condition(ContribType::Top))
                            }
                        }
                    } else if !t.fields().is_empty() {
                        self.summary.push(Effect::Condition(t.clone()));
                    }
                    // All clauses contribute effects; binders get Γ(x). Each
                    // clause sees the store as of the match, and the stores
                    // flowing out of the clauses join.
                    let entry_store = self.store.clone();
                    let mut outs = Vec::with_capacity(clauses.len());
                    for (pat, body) in clauses {
                        self.store = entry_store.clone();
                        let mut inner = env.clone();
                        for b in pat.binders() {
                            inner.insert(b.name.clone(), AbsVal::Contrib(t.clone()));
                        }
                        let saved = self.shadow_derived(pat);
                        self.stmts(&inner, body);
                        self.derived = saved;
                        outs.push(std::mem::take(&mut self.store));
                    }
                    self.store = AbsStore::join_clauses(&entry_store, outs);
                }
            }
            Stmt::Accept(_) => self.summary.push(Effect::AcceptFunds),
            Stmt::Send { msgs } => {
                let v = self.lookup(&env, msgs);
                match collect_messages(&v) {
                    Some(list) => {
                        for m in list {
                            self.summary.push(Effect::SendMsg(m));
                        }
                    }
                    None => {
                        self.blame(
                            BlameKind::UnresolvedSend,
                            None,
                            format!("message list '{}' could not be statically resolved", msgs.name),
                            msgs.span,
                        );
                        match self.mode {
                            AnalysisMode::Legacy => self.summary.push(Effect::Top),
                            // An unknown send touches no contract state of
                            // this contract — record a maximally unknown
                            // message instead of poisoning the summary.
                            AnalysisMode::Refined => self.summary.push(Effect::SendMsg(MsgAbs {
                                recipient: ContribType::Top,
                                amount: ContribType::Top,
                                amount_is_zero: false,
                                tag: None,
                                params: BTreeMap::new(),
                            })),
                        }
                    }
                }
            }
            Stmt::Event { .. } | Stmt::Throw { .. } => {
                // Events are observational; throw aborts atomically. Neither
                // constrains sharding.
            }
        }
        env
    }

    fn lookup(&mut self, env: &AbsEnv, id: &Ident) -> AbsVal {
        match env.get(&id.name) {
            Some(v) => v.clone(),
            None => {
                // An unbound identifier should be impossible after
                // typechecking; if it happens anyway, don't manufacture an
                // anonymous ⊤ — count it and blame it.
                if telemetry::enabled() {
                    telemetry::counter!("cosplit.analysis.unbound_idents").inc();
                }
                self.blame(
                    BlameKind::UnboundIdent,
                    None,
                    format!("identifier '{}' has no binding in the abstract environment", id.name),
                    id.span,
                );
                AbsVal::top()
            }
        }
    }

    /// Abstract evaluation of a pure expression in a context with no
    /// transition parameters (library definitions).
    fn pure_eval(env: &AbsEnv, e: &Expr) -> AbsVal {
        let mut dummy = Analyzer {
            field_types: &EMPTY_FIELDS,
            key_params: HashSet::new(),
            derived: HashMap::new(),
            mode: AnalysisMode::Refined,
            summary: TransitionSummary { name: String::new(), params: vec![], effects: vec![] },
            store: AbsStore::default(),
            blames: Vec::new(),
        };
        dummy.eval(env, e)
    }

    fn eval(&mut self, env: &AbsEnv, e: &Expr) -> AbsVal {
        match e {
            Expr::Lit(l, _) => AbsVal::Contrib(ContribType::source(ContribSource::Const(l.to_string()))),
            Expr::Var(i) => self.lookup(env, i),
            Expr::Message(entries, _) => AbsVal::Msg(self.message_abs(env, entries)),
            Expr::Constr { name, args, .. } => {
                let vals: Vec<AbsVal> = args.iter().map(|a| self.lookup(env, a)).collect();
                if vals.iter().all(|v| matches!(v, AbsVal::Contrib(_))) {
                    // Fig. 7 Constr: τ = ⊕ Γ(i).
                    let t = vals
                        .iter()
                        .fold(ContribType::bottom(), |acc, v| acc.add(&v.collapse()));
                    AbsVal::Contrib(t)
                } else {
                    AbsVal::Adt { ctor: name.name.clone(), args: vals }
                }
            }
            Expr::Builtin { op, args } => {
                // Fig. 7 Builtin: sum argument contributions, record the op.
                let t = args
                    .iter()
                    .map(|a| self.lookup(env, a).collapse())
                    .fold(ContribType::bottom(), |acc, t| acc.add(&t));
                AbsVal::Contrib(t.with_op(Op::Builtin(op.name.clone())))
            }
            Expr::Let { bound, rhs, body, .. } => {
                let v = self.eval(env, rhs);
                let mut inner = env.clone();
                inner.insert(bound.name.clone(), v);
                self.eval(&inner, body)
            }
            Expr::Fun { param, body, .. } => AbsVal::Clo {
                param: param.name.clone(),
                body: Rc::new((**body).clone()),
                env: env.clone(),
            },
            Expr::App { func, args } => {
                let mut head = self.lookup(env, func);
                for a in args {
                    let arg = self.lookup(env, a);
                    head = match head {
                        AbsVal::Clo { param, body, env: cenv } => {
                            let mut inner = cenv.clone();
                            inner.insert(param, arg);
                            self.eval(&inner, &body)
                        }
                        _ => AbsVal::top(),
                    };
                }
                head
            }
            Expr::Match { scrutinee, clauses, .. } => {
                let sv = self.lookup(env, scrutinee);
                match &sv {
                    AbsVal::Adt { ctor, args } => {
                        for (pat, body) in clauses {
                            if let Some(binds) = match_structured(pat, ctor, args) {
                                let mut inner = env.clone();
                                inner.extend(binds);
                                return self.eval(&inner, body);
                            }
                        }
                        AbsVal::top()
                    }
                    other => {
                        let tx = other.collapse();
                        let mut results = Vec::with_capacity(clauses.len());
                        for (pat, body) in clauses {
                            let mut inner = env.clone();
                            for b in pat.binders() {
                                inner.insert(b.name.clone(), AbsVal::Contrib(tx.clone()));
                            }
                            results.push(self.eval(&inner, body));
                        }
                        join_match_results(&tx, clauses, &results)
                    }
                }
            }
            Expr::TFun { body, .. } => {
                AbsVal::TClo { body: Rc::new((**body).clone()), env: env.clone() }
            }
            Expr::Inst { target, type_args } => {
                let mut v = self.lookup(env, target);
                for _ in type_args {
                    v = match v {
                        AbsVal::TClo { body, env: cenv } => self.eval(&cenv, &body),
                        _ => AbsVal::top(),
                    };
                }
                v
            }
        }
    }

    fn message_abs(&mut self, env: &AbsEnv, entries: &[MsgEntry]) -> MsgAbs {
        let mut recipient = ContribType::bottom();
        let mut amount = ContribType::bottom();
        let mut amount_is_zero = false;
        let mut tag = None;
        let mut params = std::collections::BTreeMap::new();
        for en in entries {
            let (t, zero, lit_tag) = match &en.value {
                MsgValue::Lit(l) => (
                    ContribType::source(ContribSource::Const(l.to_string())),
                    literal_is_zero(l),
                    match l {
                        Literal::Str(s) => Some(s.clone()),
                        _ => None,
                    },
                ),
                MsgValue::Var(i) => {
                    let t = self.lookup(env, i).collapse();
                    let zero = contrib_is_const_zero(&t);
                    (t, zero, None)
                }
            };
            match en.key.as_str() {
                "_recipient" => recipient = t,
                "_amount" => {
                    amount = t;
                    amount_is_zero = zero;
                }
                "_tag" => tag = lit_tag,
                key if !key.starts_with('_') => {
                    params.insert(key.to_string(), t);
                }
                _ => {}
            }
        }
        MsgAbs { recipient, amount, amount_is_zero, tag, params }
    }
}

static EMPTY_FIELDS: std::sync::LazyLock<HashMap<String, Type>> =
    std::sync::LazyLock::new(HashMap::new);

fn literal_is_zero(l: &Literal) -> bool {
    matches!(l, Literal::Uint(_, 0) | Literal::Int(_, 0))
}

/// A contribution is *statically zero* when its only source is a zero
/// integer literal reaching the value unchanged.
fn contrib_is_const_zero(t: &ContribType) -> bool {
    let Some(sources) = t.sources() else { return false };
    sources.len() == 1
        && sources.iter().all(|(cs, c)| {
            c.ops.is_empty()
                && matches!(cs, ContribSource::Const(c)
                    if c.split_whitespace().last() == Some("0")
                        && (c.starts_with("Uint") || c.starts_with("Int")))
        })
}

/// Matches a structured abstract ADT value against a pattern, yielding
/// bindings; `None` if the constructor differs.
fn match_structured(pat: &Pattern, ctor: &str, args: &[AbsVal]) -> Option<Vec<(String, AbsVal)>> {
    match pat {
        Pattern::Wildcard(_) => Some(vec![]),
        Pattern::Binder(i) => {
            Some(vec![(i.name.clone(), AbsVal::Adt { ctor: ctor.into(), args: args.to_vec() })])
        }
        Pattern::Constructor(c, subs) if c.name == ctor && subs.len() == args.len() => {
            let mut binds = Vec::new();
            for (sub, arg) in subs.iter().zip(args) {
                match (sub, arg) {
                    (Pattern::Wildcard(_), _) => {}
                    (Pattern::Binder(i), v) => binds.push((i.name.clone(), v.clone())),
                    (Pattern::Constructor(..), AbsVal::Adt { ctor: c2, args: a2 }) => {
                        binds.extend(match_structured(sub, c2, a2)?);
                    }
                    // A structured pattern over a collapsed value: bind all
                    // pattern binders to the collapsed contribution.
                    (Pattern::Constructor(..), other) => {
                        for b in sub.binders() {
                            binds.push((b.name.clone(), AbsVal::Contrib(other.collapse())));
                        }
                    }
                }
            }
            Some(binds)
        }
        Pattern::Constructor(..) => None,
    }
}

/// `MatchC` (paper §3.4): combines per-clause results for a match over an
/// unstructured scrutinee.
fn join_match_results(tx: &ContribType, clauses: &[(Pattern, Expr)], results: &[AbsVal]) -> AbsVal {
    // Messages join structurally so branch-built messages stay sendable.
    if results.iter().all(|r| matches!(r, AbsVal::Msg(_))) {
        let msgs: Vec<&MsgAbs> = results
            .iter()
            .map(|r| match r {
                AbsVal::Msg(m) => m,
                _ => unreachable!("checked above"),
            })
            .collect();
        let mut it = msgs.iter();
        let first = (*it.next().expect("at least one clause")).clone();
        let joined = it.fold(first, |acc, m| {
            // Payload entries join pointwise; a key missing from either
            // branch has unknown provenance there, so it degrades to ⊤.
            let keys: std::collections::BTreeSet<&String> =
                acc.params.keys().chain(m.params.keys()).collect();
            let params = keys
                .into_iter()
                .map(|k| {
                    let t = match (acc.params.get(k), m.params.get(k)) {
                        (Some(a), Some(b)) => a.join(b),
                        _ => ContribType::Top,
                    };
                    (k.clone(), t)
                })
                .collect();
            MsgAbs {
                recipient: acc.recipient.join(&m.recipient),
                amount: acc.amount.join(&m.amount),
                amount_is_zero: acc.amount_is_zero && m.amount_is_zero,
                tag: if acc.tag == m.tag { acc.tag } else { None },
                params,
            }
        });
        return AbsVal::Msg(joined);
    }
    if !results.iter().all(|r| matches!(r, AbsVal::Contrib(_))) {
        return AbsVal::top();
    }
    let types: Vec<ContribType> = results.iter().map(AbsVal::collapse).collect();
    let mut joined = types[0].clone();
    for t in &types[1..] {
        joined = joined.join(t);
    }
    let cond = if is_known_op(clauses) {
        ContribType::bottom()
    } else {
        tx.adapt_cond(same_vars(&types))
    };
    AbsVal::Contrib(cond.add(&joined))
}

/// `IsKnownOp` (paper §3.4): the match merely peels an `Option` constructor
/// — clause patterns are `Some`/`None` (or irrefutable), so the scrutinee's
/// content flows only through the binder, which already carries its
/// contribution.
fn is_known_op(clauses: &[(Pattern, Expr)]) -> bool {
    clauses.iter().all(|(p, _)| match p {
        Pattern::Wildcard(_) | Pattern::Binder(_) => true,
        Pattern::Constructor(c, subs) => {
            (c.name == "Some"
                && subs.len() == 1
                && matches!(subs[0], Pattern::Wildcard(_) | Pattern::Binder(_)))
                || (c.name == "None" && subs.is_empty())
        }
    })
}

/// `SameVars` (paper §3.4): do all clause types draw on the same sources?
fn same_vars(types: &[ContribType]) -> bool {
    let keys = |t: &ContribType| -> Option<Vec<ContribSource>> {
        t.sources().map(|s| s.keys().cloned().collect())
    };
    let Some(first) = keys(&types[0]) else { return false };
    types[1..].iter().all(|t| keys(t).as_ref() == Some(&first))
}

fn collect_messages(v: &AbsVal) -> Option<Vec<MsgAbs>> {
    match v {
        AbsVal::Msg(m) => Some(vec![m.clone()]),
        AbsVal::Adt { ctor, args } if ctor == "Cons" && args.len() == 2 => {
            let mut out = collect_messages(&args[0])?;
            out.extend(collect_messages(&args[1])?);
            Some(out)
        }
        AbsVal::Adt { ctor, args } if ctor == "Nil" && args.is_empty() => Some(vec![]),
        // `Nil {Message}` evaluates to a Contrib ⊥ (constructor of no
        // structured args); accept the empty contribution as an empty list.
        AbsVal::Contrib(t) if *t == ContribType::bottom() => Some(vec![]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scilla::parser::parse_module;
    use scilla::typechecker::typecheck;

    fn summaries(src: &str) -> Vec<TransitionSummary> {
        summarize_contract(&typecheck(parse_module(src).unwrap()).unwrap())
    }

    const TRANSFER: &str = r#"
        library TokenLib
        let nil_msg = Nil {Message}
        let one_msg = fun (m : Message) => Cons {Message} m nil_msg
        contract Token ()
        field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Transfer (to : ByStr20, amount : Uint128)
          bal_opt <- balances[_sender];
          match bal_opt with
          | Some bal =>
            can_do = builtin le amount bal;
            match can_do with
            | True =>
              new_from = builtin sub bal amount;
              balances[_sender] := new_from;
              to_opt <- balances[to];
              new_to = match to_opt with
                | Some b => builtin add b amount
                | None => amount
                end;
              balances[to] := new_to
            | False => throw
            end
          | None => throw
          end
        end
    "#;

    fn pf(field: &str, keys: &[&str]) -> PseudoField {
        PseudoField::entry(field, keys.iter().map(|k| k.to_string()).collect())
    }

    #[test]
    fn transfer_summary_matches_fig8_shape() {
        let s = &summaries(TRANSFER)[0];
        assert!(!s.has_top(), "{s}");
        // Reads of both balance entries.
        let reads: Vec<_> = s.reads().collect();
        assert!(reads.contains(&&pf("balances", &["_sender"])), "{s}");
        assert!(reads.contains(&&pf("balances", &["to"])), "{s}");
        // Condition over the sender's balance.
        assert!(
            s.effects.iter().any(|e| matches!(e, Effect::Condition(t)
                if t.mentions_field(&pf("balances", &["_sender"])))),
            "{s}"
        );
        // Both writes present.
        let writes: Vec<_> = s.writes().collect();
        assert_eq!(writes.len(), 2, "{s}");
    }

    #[test]
    fn transfer_sender_write_is_linear_sub() {
        let s = &summaries(TRANSFER)[0];
        let (_, t) = s
            .writes()
            .find(|(w, _)| **w == pf("balances", &["_sender"]))
            .expect("write to sender's balance");
        let c = &t.sources().unwrap()[&ContribSource::Field(pf("balances", &["_sender"]))];
        assert_eq!(c.card, crate::domain::Cardinality::One);
        assert_eq!(c.ops.iter().collect::<Vec<_>>(), vec![&Op::Builtin("sub".into())]);
        assert_eq!(c.precision, crate::domain::Precision::Exact);
    }

    #[test]
    fn transfer_recipient_write_is_linear_add_despite_option_peel() {
        let s = &summaries(TRANSFER)[0];
        let (_, t) = s
            .writes()
            .find(|(w, _)| **w == pf("balances", &["to"]))
            .expect("write to recipient's balance");
        let c = &t.sources().unwrap()[&ContribSource::Field(pf("balances", &["to"]))];
        assert_eq!(c.card, crate::domain::Cardinality::One);
        assert_eq!(c.ops.iter().collect::<Vec<_>>(), vec![&Op::Builtin("add".into())]);
        // The option-peel keeps the *field's* contribution exact (the
        // parameter's may degrade), which is what commutativity needs.
        assert_eq!(c.precision, crate::domain::Precision::Exact, "{t}");
    }

    #[test]
    fn nonlinear_use_has_cardinality_many() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition Double ()
              c <- n;
              c2 = builtin add c c;
              n := c2
            end
        "#;
        let s = &summaries(src)[0];
        let (_, t) = s.writes().next().unwrap();
        let c = &t.sources().unwrap()[&ContribSource::Field(PseudoField::whole("n"))];
        assert_eq!(c.card, crate::domain::Cardinality::Many);
    }

    fn analyze(src: &str, mode: AnalysisMode) -> ContractAnalysis {
        analyze_contract(&typecheck(parse_module(src).unwrap()).unwrap(), mode)
    }

    #[test]
    fn computed_map_key_localizes_to_field_top() {
        let src = r#"
            contract C ()
            field m : Map String Uint128 = Emp String Uint128
            field n : Uint128 = Uint128 0
            transition T (x : String, v : Uint128)
              k = builtin concat x x;
              m[k] := v;
              n := v
            end
        "#;
        let a = analyze(src, AnalysisMode::Refined);
        let s = &a.summaries[0];
        // The computed key taints only `m`; `n`'s write stays precise.
        assert!(!s.has_top(), "{s}");
        assert!(s.has_top_field_on("m"), "{s}");
        assert!(!s.has_top_field_on("n"), "{s}");
        assert!(s.writes().any(|(w, _)| *w == PseudoField::whole("n")), "{s}");
        // …and the loss is blamed on the computed key.
        assert!(
            a.blames.iter().any(|b| b.kind == crate::blame::BlameKind::ComputedKey
                && b.transition == "T"
                && b.span.line > 0),
            "{:?}",
            a.blames
        );
        // The legacy accumulator still poisons the whole summary.
        assert!(analyze(src, AnalysisMode::Legacy).summaries[0].has_top());
    }

    #[test]
    fn hash_derived_keys_are_summarisable() {
        // `slot = builtin sha256hash account` is an exact, dispatch-replayable
        // derivation of a parameter: the access names the single entry
        // `m[sha256hash(account)]` and stays fully precise.
        let src = r#"
            contract C ()
            field m : Map ByStr32 Uint128 = Emp ByStr32 Uint128
            transition T (account : ByStr20, v : Uint128)
              slot = builtin sha256hash account;
              m[slot] := v
            end
        "#;
        let a = analyze(src, AnalysisMode::Refined);
        let s = &a.summaries[0];
        assert!(!s.has_top(), "{s}");
        assert_eq!(s.top_fields().count(), 0, "{s}");
        let expect = PseudoField::entry("m", vec!["sha256hash(account)".into()]);
        assert!(s.has_write(&expect), "{s}");
        assert!(a.blames.is_empty(), "{:?}", a.blames);
        // Legacy keeps the paper's parameter-only key rule: still ⊤.
        assert!(analyze(src, AnalysisMode::Legacy).summaries[0].has_top());
    }

    #[test]
    fn parameter_alias_keys_are_summarisable() {
        // A binder that merely renames a parameter resolves to the parameter
        // itself; derivations also compose (`hash of an alias`), and a
        // binder bound to anything else kills its derivation.
        let src = r#"
            contract C ()
            field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            field h : Map ByStr32 Uint128 = Emp ByStr32 Uint128
            transition T (who : ByStr20, v : Uint128)
              k = who;
              m[k] := v;
              slot = builtin sha256hash k;
              h[slot] := v
            end
        "#;
        let a = analyze(src, AnalysisMode::Refined);
        let s = &a.summaries[0];
        assert_eq!(s.top_fields().count(), 0, "{s}");
        assert!(s.has_write(&PseudoField::entry("m", vec!["who".into()])), "{s}");
        assert!(s.has_write(&PseudoField::entry("h", vec!["sha256hash(who)".into()])), "{s}");
    }

    #[test]
    fn rebinding_kills_a_key_derivation() {
        // After `k` is rebound to something unresolvable, using it as a key
        // must degrade — the old derivation must not stick.
        let src = r#"
            contract C ()
            field m : Map String Uint128 = Emp String Uint128
            transition T (x : String, v : Uint128)
              k = x;
              m[k] := v;
              k = builtin concat x x;
              m[k] := v
            end
        "#;
        let a = analyze(src, AnalysisMode::Refined);
        let s = &a.summaries[0];
        assert!(s.has_write(&PseudoField::entry("m", vec!["x".into()])), "{s}");
        assert!(s.has_top_field_on("m"), "{s}");
        assert!(
            a.blames.iter().any(|b| b.kind == crate::blame::BlameKind::ComputedKey),
            "{:?}",
            a.blames
        );
    }

    #[test]
    fn non_bottom_level_access_localizes_to_field_top() {
        let src = r#"
            contract C ()
            field m : Map ByStr20 (Map ByStr20 Uint128) = Emp ByStr20 (Map ByStr20 Uint128)
            transition T (a : ByStr20)
              sub_opt <- m[a];
              match sub_opt with
              | Some s =>
              | None =>
              end
            end
        "#;
        let a = analyze(src, AnalysisMode::Refined);
        let s = &a.summaries[0];
        assert!(!s.has_top(), "{s}");
        assert!(s.has_top_field_on("m"), "{s}");
        assert!(
            a.blames.iter().any(|b| b.kind == crate::blame::BlameKind::PartialAccess),
            "{:?}",
            a.blames
        );
        assert!(analyze(src, AnalysisMode::Legacy).summaries[0].has_top());
    }

    #[test]
    fn send_through_library_one_msg_is_summarised() {
        let src = r#"
            library L
            let nil_msg = Nil {Message}
            let one_msg = fun (m : Message) => Cons {Message} m nil_msg
            contract C ()
            transition Ping (to : ByStr20)
              zero = Uint128 0;
              m = {_tag : "Pong"; _recipient : to; _amount : zero};
              msgs = one_msg m;
              send msgs
            end
        "#;
        let s = &summaries(src)[0];
        let send = s
            .effects
            .iter()
            .find_map(|e| match e {
                Effect::SendMsg(m) => Some(m),
                _ => None,
            })
            .expect("send effect");
        assert!(send.amount_is_zero);
        assert_eq!(send.tag.as_deref(), Some("Pong"));
        assert_eq!(
            send.recipient,
            ContribType::source(ContribSource::Param("to".into()))
        );
    }

    #[test]
    fn accept_produces_accept_funds() {
        let src = r#"
            contract C ()
            transition Deposit ()
              accept
            end
        "#;
        let s = &summaries(src)[0];
        assert_eq!(s.effects, vec![Effect::AcceptFunds]);
    }

    #[test]
    fn delete_is_a_bottom_provenance_write() {
        let src = r#"
            contract C ()
            field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition Del (k : ByStr20)
              delete m[k]
            end
        "#;
        let s = &summaries(src)[0];
        assert!(
            matches!(&s.effects[0], Effect::Write(w, t)
                if *w == pf("m", &["k"]) && *t == ContribType::bottom()),
            "{s}"
        );
        // …and it is not commutative: deletes need ownership.
        let (w, t) = s.writes().next().unwrap();
        assert!(!crate::signature::is_commutative_write(w, t));
    }

    #[test]
    fn whole_field_counter_reads_and_writes() {
        let src = r#"
            contract C ()
            field total : Uint128 = Uint128 0
            transition Add (v : Uint128)
              t <- total;
              t2 = builtin add t v;
              total := t2
            end
        "#;
        let s = &summaries(src)[0];
        assert!(s.reads().any(|r| *r == PseudoField::whole("total")));
        let (_, t) = s.writes().next().unwrap();
        let c = &t.sources().unwrap()[&ContribSource::Field(PseudoField::whole("total"))];
        assert_eq!(c.card, crate::domain::Cardinality::One);
        assert!(c.ops.contains(&Op::Builtin("add".into())));
    }

    #[test]
    fn blocknumber_is_a_constant_source() {
        let src = r#"
            contract C ()
            field deadline : BNum = BNum 10
            transition Check ()
              blk <- & BLOCKNUMBER;
              d <- deadline;
              late = builtin blt d blk;
              match late with
              | True => throw
              | False =>
              end
            end
        "#;
        let s = &summaries(src)[0];
        // The condition mentions the deadline field but BLOCKNUMBER is const.
        let cond = s
            .effects
            .iter()
            .find_map(|e| match e {
                Effect::Condition(t) => Some(t),
                _ => None,
            })
            .expect("condition");
        assert!(cond.mentions_field(&PseudoField::whole("deadline")));
        assert!(cond
            .sources()
            .unwrap()
            .contains_key(&ContribSource::Const("BLOCKNUMBER".into())));
    }

    #[test]
    fn read_after_write_forwards_written_value() {
        let src = r#"
            contract C ()
            field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition T (k : ByStr20, v : Uint128)
              m[k] := v;
              x <- m[k];
              match x with
              | Some y => m[k] := y
              | None =>
              end
            end
        "#;
        let s = &summaries(src)[0];
        // The store forwards `v` to the read: no ⊤ anywhere, and the
        // write-back has the same provenance, so it dedupes into the first.
        assert!(!s.has_top(), "{s}");
        assert_eq!(s.top_fields().count(), 0, "{s}");
        let writes: Vec<_> = s.writes().collect();
        assert_eq!(writes.len(), 1, "{s}");
        assert!(
            writes[0].1.sources().unwrap().contains_key(&ContribSource::Param("v".into())),
            "{s}"
        );
        // The read was satisfied from the store: no Read effect.
        assert_eq!(s.reads().count(), 0, "{s}");
        // The legacy accumulator degrades the whole summary — pinned so the
        // precision gap stays visible.
        assert!(analyze(src, AnalysisMode::Legacy).summaries[0].has_top());
    }

    #[test]
    fn whole_field_store_forwards_to_load() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            field m : Uint128 = Uint128 0
            transition T (v : Uint128)
              n := v;
              x <- n;
              m := x
            end
        "#;
        let s = &summaries(src)[0];
        assert!(!s.has_top(), "{s}");
        assert_eq!(s.reads().count(), 0, "{s}");
        let writes: Vec<_> = s.writes().collect();
        assert_eq!(writes.len(), 2, "{s}");
        for (_, t) in writes {
            assert!(t.sources().unwrap().contains_key(&ContribSource::Param("v".into())), "{s}");
        }
        assert!(analyze(src, AnalysisMode::Legacy).summaries[0].has_top());
    }

    #[test]
    fn whole_store_after_entry_write_defeats_forwarding_soundly() {
        // m[k] := v; x <- m — the load observes a *modified* map, which the
        // old analysis mislabelled as a Read of the initial value. Refined
        // mode degrades the field to ⊤[m] instead.
        let src = r#"
            contract C ()
            field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            field n : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition T (k : ByStr20, v : Uint128)
              m[k] := v;
              x <- m;
              n := x
            end
        "#;
        let s = &summaries(src)[0];
        assert!(!s.has_top(), "{s}");
        assert!(s.has_top_field_on("m"), "{s}");
        assert!(!s.reads().any(|r| r.field == "m"), "{s}");
    }

    #[test]
    fn structured_match_with_no_matching_clause_still_collects_effects() {
        // The scrutinee is a structured `Pair (Some m1) (Some m2)` but both
        // clauses require a `None` component: no clause selects. (The
        // coverage checker's per-column nested exhaustiveness accepts this
        // diagonal matrix.) Before the fallback, the writes inside the
        // clauses were silently dropped — a soundness hole.
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (v : Uint128, r : ByStr20)
              zero = Uint128 0;
              m1 = {_tag : "A"; _recipient : r; _amount : zero};
              m2 = {_tag : "B"; _recipient : r; _amount : zero};
              om1 = Some {Message} m1;
              om2 = Some {Message} m2;
              p = Pair {(Option Message) (Option Message)} om1 om2;
              match p with
              | Pair (Some a) None => n := v
              | Pair None (Some b) => n := v
              end
            end
        "#;
        for mode in [AnalysisMode::Legacy, AnalysisMode::Refined] {
            let s = &analyze(src, mode).summaries[0];
            assert!(
                s.writes().any(|(w, _)| *w == PseudoField::whole("n")),
                "mode {mode:?} dropped the unmatched clause's effects: {s}"
            );
        }
    }

    #[test]
    fn branch_divergent_store_entries_are_indefinite() {
        // Only the True branch writes n before the load: the read must keep
        // its Read effect (it may observe the initial value) and the bound
        // value joins both possibilities.
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            field out : Uint128 = Uint128 0
            transition T (v : Uint128, c : Bool)
              match c with
              | True => n := v
              | False =>
              end;
              x <- n;
              out := x
            end
        "#;
        let s = &summaries(src)[0];
        assert!(!s.has_top(), "{s}");
        assert!(s.reads().any(|r| *r == PseudoField::whole("n")), "{s}");
        let (_, t) = s.writes().find(|(w, _)| **w == PseudoField::whole("out")).unwrap();
        let sources = t.sources().unwrap();
        assert!(sources.contains_key(&ContribSource::Param("v".into())), "{s}");
        assert!(
            sources.contains_key(&ContribSource::Field(PseudoField::whole("n"))),
            "{s}"
        );
    }

    #[test]
    fn unresolved_send_stays_shardable_with_unknown_message() {
        // Joining an `Adt` list with a collapsed `Nil` defeats
        // `collect_messages`, so the send's payload is unknown.
        let src = r#"
            library L
            let nil_msg = Nil {Message}
            let one_msg = fun (m : Message) => Cons {Message} m nil_msg
            contract C ()
            transition T (r : ByStr20, c : Bool)
              zero = Uint128 0;
              m1 = {_tag : "A"; _recipient : r; _amount : zero};
              msgs = match c with
                | True => one_msg m1
                | False => nil_msg
                end;
              send msgs
            end
        "#;
        let a = analyze(src, AnalysisMode::Refined);
        let s = &a.summaries[0];
        assert!(!s.has_top(), "{s}");
        assert!(
            s.effects.iter().any(|e| matches!(e, Effect::SendMsg(m) if m.recipient.is_top())),
            "{s}"
        );
        assert!(
            a.blames.iter().any(|b| b.kind == crate::blame::BlameKind::UnresolvedSend),
            "{:?}",
            a.blames
        );
        assert!(analyze(src, AnalysisMode::Legacy).summaries[0].has_top());
    }
}
