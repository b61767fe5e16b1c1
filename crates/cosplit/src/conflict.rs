//! Pairwise transition-commutativity analysis: the conflict matrix.
//!
//! CoSplit's signatures (paper §3.4) prove each transition commutes with
//! *itself* across shards; this pass asks which *pairs* of transitions
//! commute, by intersecting the Fig-6 abstract footprints the analysis
//! already computes. The product is an N×N matrix of [`Verdict`]s, reported
//! by `cosplit-cli matrix` and checked against every audited execution by
//! the chain executor's `ConflictMissed` oracle (see `chain::executor`).
//!
//! Two transitions commute when every shared field is either read/read or
//! covered by commutative writes with a common `{add, sub}` operation set
//! (linear, exact, self-contributing — [`is_commutative_write`]). Anything
//! uninformative is forced to *conflict*: `⊤` summaries, `accept`s,
//! `send`s that move funds, and `⊤` conditions paired with any write.
//!
//! Parameter-keyed map accesses are where the interesting middle ground
//! lives. A read (or condition) of `balances[_sender]` against a cross
//! write of `balances[to]` aliases only when the two invocations bind the
//! key parameters to the same account — which is not statically refutable,
//! but *is* refutable per invocation pair. In the spirit of the `MatchC` /
//! `AdaptC` rules (which adapt contributions across a match by comparing
//! key variables), such pairs yield a [`KeyClash`]: the verdict is
//! [`Verdict::CommuteUnless`], and a consumer re-checks each clash with
//! the concrete argument bindings of the two invocations
//! ([`ConflictMatrix::conflicts_concrete`]). Unresolvable or
//! depth-mismatched key tuples (whole-field vs entry) degrade to a hard
//! conflict.

use crate::domain::{ContribType, PseudoField};
use crate::effects::{Effect, TransitionSummary};
use crate::signature::is_commutative_write;
use scilla::trace::{DynamicFootprint, ObservedOp};
use scilla::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a pair of transitions was forced to conflict.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConflictReason {
    /// One side's summary contains `⊤`: its footprint is unknown.
    TopSummary,
    /// One side accepts funds or sends a message that moves funds: both
    /// touch the contract's native balance, which the matrix treats as a
    /// single unkeyed resource.
    NativeFunds,
    /// One side's control flow depends on a `⊤` contribution and the other
    /// writes state: the condition may observe any field.
    TopCondition,
    /// The two footprints overlap on this field through key tuples whose
    /// equality can never be refuted (whole-field access, or mismatched
    /// key depth).
    UnkeyedOverlap(String),
}

impl ConflictReason {
    /// Stable kebab-case tag (wire format, CLI output).
    pub fn as_str(&self) -> &'static str {
        match self {
            ConflictReason::TopSummary => "top-summary",
            ConflictReason::NativeFunds => "native-funds",
            ConflictReason::TopCondition => "top-condition",
            ConflictReason::UnkeyedOverlap(_) => "unkeyed-overlap",
        }
    }
}

impl fmt::Display for ConflictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictReason::UnkeyedOverlap(field) => write!(f, "unkeyed-overlap({field})"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// A runtime-checkable aliasing hazard: the pair commutes unless, for some
/// clash, the left invocation's key tuple resolves equal to the right's.
///
/// `left` / `right` hold key *parameter names* (including the implicit
/// `_sender` / `_origin`), to be resolved in the respective invocation's
/// binding. Tuples always have equal length (depth mismatches conflict
/// outright at build time).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyClash {
    /// The shared field.
    pub field: String,
    /// Key names of the left transition's access.
    pub left: Vec<String>,
    /// Key names of the right transition's access.
    pub right: Vec<String>,
}

impl KeyClash {
    /// Does this clash fire under the two concrete bindings — i.e. do the
    /// key tuples alias? Unresolvable keys conservatively alias.
    pub fn fires(
        &self,
        bind_left: &dyn Fn(&str) -> Option<Value>,
        bind_right: &dyn Fn(&str) -> Option<Value>,
    ) -> bool {
        self.left.iter().zip(self.right.iter()).all(|(l, r)| {
            match (bind_left(l), bind_right(r)) {
                (Some(a), Some(b)) => a == b,
                // An unresolvable key cannot refute equality.
                _ => true,
            }
        })
    }

    /// The clash as seen from the other side of the pair.
    fn mirrored(&self) -> KeyClash {
        KeyClash { field: self.field.clone(), left: self.right.clone(), right: self.left.clone() }
    }
}

impl fmt::Display for KeyClash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] ~ {}[{}]",
            self.field,
            self.left.join(", "),
            self.field,
            self.right.join(", ")
        )
    }
}

/// The commutativity verdict for one ordered pair of transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The pair can never be reordered or run concurrently.
    Conflict(ConflictReason),
    /// The footprints are compatible for every argument binding.
    Commute,
    /// The footprints are compatible unless one of these key clashes
    /// aliases under the concrete bindings.
    CommuteUnless(Vec<KeyClash>),
}

impl Verdict {
    /// Unconditional conflict?
    pub fn is_conflict(&self) -> bool {
        matches!(self, Verdict::Conflict(_))
    }

    /// Is there any binding under which the pair commutes?
    pub fn may_commute(&self) -> bool {
        !self.is_conflict()
    }

    /// Do two concretely-bound invocations conflict under this verdict?
    pub fn conflicts_under(
        &self,
        bind_left: &dyn Fn(&str) -> Option<Value>,
        bind_right: &dyn Fn(&str) -> Option<Value>,
    ) -> bool {
        match self {
            Verdict::Conflict(_) => true,
            Verdict::Commute => false,
            Verdict::CommuteUnless(clashes) => {
                clashes.iter().any(|c| c.fires(bind_left, bind_right))
            }
        }
    }

    fn mirrored(&self) -> Verdict {
        match self {
            Verdict::CommuteUnless(clashes) => {
                let mut m: Vec<KeyClash> = clashes.iter().map(KeyClash::mirrored).collect();
                m.sort();
                m.dedup();
                Verdict::CommuteUnless(m)
            }
            other => other.clone(),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Conflict(r) => write!(f, "conflict ({r})"),
            Verdict::Commute => f.write_str("commute"),
            Verdict::CommuteUnless(clashes) => {
                f.write_str("commute unless")?;
                for (i, c) in clashes.iter().enumerate() {
                    write!(f, "{} {c}", if i == 0 { "" } else { ";" })?;
                }
                Ok(())
            }
        }
    }
}

/// The N×N commutativity matrix of one contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictMatrix {
    /// The contract's name (diagnostics only).
    pub contract: String,
    /// Transition names, indexing rows and columns.
    pub transitions: Vec<String>,
    /// Row-major verdicts; `entries[i * n + j]` is the verdict for the
    /// ordered pair `(transitions[i], transitions[j])`. Mirror entries are
    /// the left/right swap of each other (the relation is symmetric).
    entries: Vec<Verdict>,
}

/// One transition's accesses to a single field, pre-classified.
#[derive(Default)]
struct FieldAccess {
    /// Key tuples read or mentioned by a condition.
    read_like: Vec<Vec<String>>,
    /// Written key tuples, with commutativity per [`is_commutative_write`].
    writes: Vec<(Vec<String>, bool)>,
}

/// A transition's whole footprint, pre-classified for pairing.
struct Footprint {
    fields: BTreeMap<String, FieldAccess>,
    has_top: bool,
    /// Accepts funds, or sends a message that is not statically zero.
    moves_funds: bool,
    /// Some condition's contribution is `⊤`.
    top_condition: bool,
    writes_anything: bool,
}

impl Footprint {
    fn of(summary: &TransitionSummary) -> Footprint {
        let mut fp = Footprint {
            fields: BTreeMap::new(),
            has_top: summary.has_top(),
            moves_funds: false,
            top_condition: false,
            writes_anything: false,
        };
        let read_like = |fields: &mut BTreeMap<String, FieldAccess>, pf: &PseudoField| {
            fields.entry(pf.field.clone()).or_default().read_like.push(pf.keys.clone());
        };
        for e in &summary.effects {
            match e {
                Effect::Read(pf) => read_like(&mut fp.fields, pf),
                Effect::Write(pf, t) => {
                    fp.writes_anything = true;
                    let comm = is_commutative_write(pf, t);
                    fp.fields
                        .entry(pf.field.clone())
                        .or_default()
                        .writes
                        .push((pf.keys.clone(), comm));
                    // A non-self contribution from another field means the
                    // written value *reads* that field.
                    if let ContribType::Known(_) = t {
                        for src in t.fields() {
                            if src != pf {
                                read_like(&mut fp.fields, src);
                            }
                        }
                    }
                }
                Effect::Condition(t) => {
                    if t.is_top() {
                        fp.top_condition = true;
                    } else {
                        for pf in t.fields() {
                            read_like(&mut fp.fields, pf);
                        }
                    }
                }
                Effect::AcceptFunds => fp.moves_funds = true,
                Effect::SendMsg(m) => {
                    if !m.amount_is_zero {
                        fp.moves_funds = true;
                    }
                }
                // A localized ⊤ may read or write anything under the field,
                // non-commutatively: a read-like plus a non-commutative
                // write at its key shape (whole-field unless the access was
                // partially resolved), which `pair_tuples` treats as an
                // unkeyed overlap against any same-field access.
                Effect::TopField(pf) => {
                    fp.writes_anything = true;
                    read_like(&mut fp.fields, pf);
                    fp.fields
                        .entry(pf.field.clone())
                        .or_default()
                        .writes
                        .push((pf.keys.clone(), false));
                }
                Effect::Top => {}
            }
        }
        fp
    }
}

/// Pairs two key tuples on `field`: either a hard conflict (equality never
/// refutable) or a runtime clash.
fn pair_tuples(
    field: &str,
    left: &[String],
    right: &[String],
    clashes: &mut BTreeSet<KeyClash>,
) -> Result<(), ConflictReason> {
    if left.len() != right.len() || left.is_empty() {
        // Whole-field access or depth mismatch: the accesses overlap for
        // every binding.
        return Err(ConflictReason::UnkeyedOverlap(field.to_string()));
    }
    clashes.insert(KeyClash {
        field: field.to_string(),
        left: left.to_vec(),
        right: right.to_vec(),
    });
    Ok(())
}

/// Computes the verdict for one ordered pair of footprints.
fn pair_verdict(a: &Footprint, b: &Footprint) -> Verdict {
    if a.has_top || b.has_top {
        return Verdict::Conflict(ConflictReason::TopSummary);
    }
    if a.moves_funds || b.moves_funds {
        return Verdict::Conflict(ConflictReason::NativeFunds);
    }
    if (a.top_condition && b.writes_anything) || (b.top_condition && a.writes_anything) {
        return Verdict::Conflict(ConflictReason::TopCondition);
    }
    let mut clashes = BTreeSet::new();
    for (field, fa) in &a.fields {
        let Some(fb) = b.fields.get(field) else { continue };
        // Cross write × read-like pairs (reads and condition mentions must
        // not observe a concurrent peer's write, commutative or not —
        // serial execution would have shown them the peer's effect).
        for (wk, _) in &fa.writes {
            for rk in &fb.read_like {
                if let Err(r) = pair_tuples(field, wk, rk, &mut clashes) {
                    return Verdict::Conflict(r);
                }
            }
        }
        for (wk, _) in &fb.writes {
            for rk in &fa.read_like {
                if let Err(r) = pair_tuples(field, rk, wk, &mut clashes) {
                    return Verdict::Conflict(r);
                }
            }
        }
        // Cross write × write pairs: two commutative writes compose as
        // deltas in either order (the PCM merge); anything else must be
        // provably disjoint.
        for (wa, ca) in &fa.writes {
            for (wb, cb) in &fb.writes {
                if *ca && *cb {
                    continue;
                }
                if let Err(r) = pair_tuples(field, wa, wb, &mut clashes) {
                    return Verdict::Conflict(r);
                }
            }
        }
    }
    if clashes.is_empty() {
        Verdict::Commute
    } else {
        Verdict::CommuteUnless(clashes.into_iter().collect())
    }
}

impl ConflictMatrix {
    /// Builds the matrix from a contract's transition summaries.
    pub fn build(contract: &str, summaries: &[TransitionSummary]) -> ConflictMatrix {
        let n = summaries.len();
        let footprints: Vec<Footprint> = summaries.iter().map(Footprint::of).collect();
        let mut entries = vec![Verdict::Commute; n * n];
        for i in 0..n {
            for j in i..n {
                let v = pair_verdict(&footprints[i], &footprints[j]);
                entries[j * n + i] = v.mirrored();
                entries[i * n + j] = v;
            }
        }
        let matrix = ConflictMatrix {
            contract: contract.to_string(),
            transitions: summaries.iter().map(|s| s.name.clone()).collect(),
            entries,
        };
        if telemetry::enabled() {
            let conflicts = matrix
                .entries
                .iter()
                .filter(|v| v.is_conflict())
                .count();
            telemetry::counter!(telemetry::names::CONFLICT_MATRICES).inc();
            telemetry::counter!(telemetry::names::CONFLICT_PAIRS).add((n * n) as u64);
            telemetry::counter!(telemetry::names::CONFLICT_CONFLICTING).add(conflicts as u64);
        }
        matrix
    }

    /// Number of transitions (the matrix is `len × len`).
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Is the matrix empty (contract with no transitions)?
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Index of a transition by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.transitions.iter().position(|t| t == name)
    }

    /// Verdict by indices.
    pub fn verdict_at(&self, i: usize, j: usize) -> &Verdict {
        &self.entries[i * self.len() + j]
    }

    /// Verdict by transition names; `None` when either name is unknown.
    pub fn verdict(&self, left: &str, right: &str) -> Option<&Verdict> {
        let i = self.index_of(left)?;
        let j = self.index_of(right)?;
        Some(self.verdict_at(i, j))
    }

    /// Is there any binding under which the named pair commutes? Unknown
    /// transitions conservatively conflict.
    pub fn may_commute(&self, left: &str, right: &str) -> bool {
        self.verdict(left, right).is_some_and(Verdict::may_commute)
    }

    /// Do two concretely-bound invocations conflict? Unknown transitions
    /// conservatively conflict.
    pub fn conflicts_concrete(
        &self,
        left: &str,
        bind_left: &dyn Fn(&str) -> Option<Value>,
        right: &str,
        bind_right: &dyn Fn(&str) -> Option<Value>,
    ) -> bool {
        match self.verdict(left, right) {
            Some(v) => v.conflicts_under(bind_left, bind_right),
            None => true,
        }
    }

    /// Fraction of ordered pairs that conflict unconditionally (0 for a
    /// contract whose transitions all commute, 1 when nothing does).
    pub fn conflict_density(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let conflicts = self.entries.iter().filter(|v| v.is_conflict()).count();
        conflicts as f64 / self.entries.len() as f64
    }

    /// Fraction of ordered pairs that commute only conditionally.
    pub fn conditional_density(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let cond =
            self.entries.iter().filter(|v| matches!(v, Verdict::CommuteUnless(_))).count();
        cond as f64 / self.entries.len() as f64
    }

    /// Renders the matrix as a text grid: `.` commute, `?` conditional,
    /// `X` conflict.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let n = self.len();
        let mut out = String::new();
        let _ = writeln!(out, "conflict matrix for {} ({n} transitions)", self.contract);
        let width = self.transitions.iter().map(|t| t.len()).max().unwrap_or(1).max(2);
        let _ = write!(out, "{:width$}  ", "");
        for j in 0..n {
            let _ = write!(out, "{:>3}", format!("T{j}"));
        }
        let _ = writeln!(out);
        for i in 0..n {
            let _ = write!(out, "{:width$}  ", self.transitions[i]);
            for j in 0..n {
                let c = match self.verdict_at(i, j) {
                    Verdict::Conflict(_) => 'X',
                    Verdict::Commute => '.',
                    Verdict::CommuteUnless(_) => '?',
                };
                let _ = write!(out, "{c:>3}");
            }
            let _ = writeln!(out, "  T{i}");
        }
        let _ = writeln!(out, "legend: . commute   ? commute unless keys alias   X conflict");
        out
    }
}

/// How two *concrete* footprints conflicted (the dynamic mirror of
/// [`ConflictReason`], used by the `ConflictMissed` audit cross-check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConcreteClash {
    /// Both invocations moved native funds.
    NativeFunds,
    /// One side wrote this concrete component while the other read it.
    ReadWrite { field: String, keys: Vec<Value> },
    /// Both sides wrote this concrete component and at least one write was
    /// not an add/sub delta.
    WriteWrite { field: String, keys: Vec<Value> },
}

impl fmt::Display for ConcreteClash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let render = |field: &str, keys: &[Value]| {
            let mut s = field.to_string();
            for k in keys {
                s.push_str(&format!("[{k}]"));
            }
            s
        };
        match self {
            ConcreteClash::NativeFunds => f.write_str("both moved native funds"),
            ConcreteClash::ReadWrite { field, keys } => {
                write!(f, "read/write overlap on {}", render(field, keys))
            }
            ConcreteClash::WriteWrite { field, keys } => {
                write!(f, "non-commutative write/write overlap on {}", render(field, keys))
            }
        }
    }
}

/// Did two concrete invocation footprints conflict — i.e. could reordering
/// them have produced an observably different execution? Mirrors the
/// static tolerances: read/read is free, and add/sub deltas to the same
/// cell compose in any order.
pub fn concrete_pair_conflicts(
    a: &DynamicFootprint,
    b: &DynamicFootprint,
) -> Option<ConcreteClash> {
    if a.moves_native_funds() && b.moves_native_funds() {
        return Some(ConcreteClash::NativeFunds);
    }
    let check = |x: &DynamicFootprint, y: &DynamicFootprint| -> Option<ConcreteClash> {
        let y_reads = y.read_components();
        let y_writes = y.write_components();
        for (comp, ops) in x.write_components() {
            if y_reads.contains(&comp) {
                return Some(ConcreteClash::ReadWrite {
                    field: comp.0.to_string(),
                    keys: comp.1.to_vec(),
                });
            }
            if let Some(peer_ops) = y_writes.get(&comp) {
                let delta_only = |ops: &[&ObservedOp]| {
                    ops.iter().all(|op| matches!(op, ObservedOp::Add(_) | ObservedOp::Sub(_)))
                };
                if !delta_only(&ops) || !delta_only(peer_ops) {
                    return Some(ConcreteClash::WriteWrite {
                        field: comp.0.to_string(),
                        keys: comp.1.to_vec(),
                    });
                }
            }
        }
        None
    };
    check(a, b).or_else(|| check(b, a))
}

/// JSON wire format, hand-rolled in the same externally-tagged style as
/// the signature and audit wire modules.
pub mod wire {
    use super::*;
    use serde_json::{json, Value as Json};

    fn names(items: &[String]) -> Json {
        Json::Array(items.iter().map(|s| Json::from(s.as_str())).collect())
    }

    fn clash_to_value(c: &KeyClash) -> Json {
        json!({ "field": &c.field, "left": names(&c.left), "right": names(&c.right) })
    }

    fn names_from(v: &Json) -> Option<Vec<String>> {
        v.as_array()?.iter().map(|x| x.as_str().map(String::from)).collect()
    }

    fn clash_from_value(v: &Json) -> Option<KeyClash> {
        Some(KeyClash {
            field: v.get("field")?.as_str()?.to_string(),
            left: names_from(v.get("left")?)?,
            right: names_from(v.get("right")?)?,
        })
    }

    fn verdict_to_value(v: &Verdict) -> Json {
        match v {
            Verdict::Conflict(r) => {
                let field = match r {
                    ConflictReason::UnkeyedOverlap(field) => Json::from(field.as_str()),
                    _ => Json::Null,
                };
                json!({ "verdict": "conflict", "reason": r.as_str(), "field": field })
            }
            Verdict::Commute => json!({ "verdict": "commute" }),
            Verdict::CommuteUnless(clashes) => {
                let cs: Vec<Json> = clashes.iter().map(clash_to_value).collect();
                json!({ "verdict": "commute-unless", "clashes": Json::Array(cs) })
            }
        }
    }

    fn verdict_from_value(v: &Json) -> Option<Verdict> {
        match v.get("verdict")?.as_str()? {
            "conflict" => {
                let reason = match v.get("reason")?.as_str()? {
                    "top-summary" => ConflictReason::TopSummary,
                    "native-funds" => ConflictReason::NativeFunds,
                    "top-condition" => ConflictReason::TopCondition,
                    "unkeyed-overlap" => {
                        ConflictReason::UnkeyedOverlap(v.get("field")?.as_str()?.to_string())
                    }
                    _ => return None,
                };
                Some(Verdict::Conflict(reason))
            }
            "commute" => Some(Verdict::Commute),
            "commute-unless" => {
                let clashes = v
                    .get("clashes")?
                    .as_array()?
                    .iter()
                    .map(clash_from_value)
                    .collect::<Option<Vec<_>>>()?;
                Some(Verdict::CommuteUnless(clashes))
            }
            _ => None,
        }
    }

    /// Serialises a matrix.
    pub fn matrix_to_value(m: &ConflictMatrix) -> Json {
        let n = m.len();
        let mut entries = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                entries.push(verdict_to_value(m.verdict_at(i, j)));
            }
        }
        json!({
            "contract": &m.contract,
            "transitions": names(&m.transitions),
            "entries": Json::Array(entries),
        })
    }

    /// Parses a matrix back; `None` on malformed input.
    pub fn matrix_from_value(v: &Json) -> Option<ConflictMatrix> {
        let contract = v.get("contract")?.as_str()?.to_string();
        let transitions = names_from(v.get("transitions")?)?;
        let entries: Vec<Verdict> = v
            .get("entries")?
            .as_array()?
            .iter()
            .map(verdict_from_value)
            .collect::<Option<_>>()?;
        if entries.len() != transitions.len() * transitions.len() {
            return None;
        }
        Some(ConflictMatrix { contract, transitions, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::summarize_contract;

    const TOKEN: &str = r#"
library TokenLib
let zero = Uint128 0
let nil_msg = Nil {Message}
let one_msg = fun (m : Message) => Cons {Message} m nil_msg
let add_or_init =
  fun (b : Option Uint128) =>
  fun (amount : Uint128) =>
    match b with
    | Some v => builtin add v amount
    | None => amount
    end

contract Token (owner : ByStr20)

field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
field total_supply : Uint128 = Uint128 0
field admin : ByStr20 = owner

transition Transfer (to : ByStr20, amount : Uint128)
  bal_opt <- balances[_sender];
  match bal_opt with
  | Some bal =>
    can_do = builtin le amount bal;
    match can_do with
    | True =>
      new_from = builtin sub bal amount;
      balances[_sender] := new_from;
      to_bal <- balances[to];
      new_to = add_or_init to_bal amount;
      balances[to] := new_to
    | False =>
      err = {_exception : "InsufficientFunds"};
      throw err
    end
  | None =>
    err = {_exception : "NoBalance"};
    throw err
  end
end

transition Mint (to : ByStr20, amount : Uint128)
  to_bal <- balances[to];
  new_to = add_or_init to_bal amount;
  balances[to] := new_to;
  ts <- total_supply;
  ts2 = builtin add ts amount;
  total_supply := ts2
end

transition SetAdmin (new_admin : ByStr20)
  admin := new_admin
end

transition Drain (to : ByStr20)
  msg = {_tag : "AddFunds"; _recipient : to; _amount : Uint128 100};
  msgs = one_msg msg;
  send msgs
end
"#;

    fn matrix_for(src: &str) -> ConflictMatrix {
        let module = scilla::parser::parse_module(src).expect("parses");
        let checked = scilla::typechecker::typecheck(module).expect("typechecks");
        let summaries = summarize_contract(&checked);
        ConflictMatrix::build(&checked.module.contract.name.name, &summaries)
    }

    fn addr(n: u8) -> Value {
        Value::ByStr(vec![n; 20])
    }

    fn bind<'a>(pairs: &'a [(&'a str, Value)]) -> impl Fn(&str) -> Option<Value> + 'a {
        move |name| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| v.clone())
    }

    #[test]
    fn transfer_pair_commutes_statically() {
        let m = matrix_for(TOKEN);
        let v = m.verdict("Transfer", "Transfer").expect("known pair");
        assert!(v.may_commute(), "Transfer/Transfer must not hard-conflict: {v}");
        assert!(
            matches!(v, Verdict::CommuteUnless(_)),
            "Transfer/Transfer aliasing must be key-conditional: {v}"
        );
    }

    #[test]
    fn transfer_pair_concrete_resolution() {
        let m = matrix_for(TOKEN);
        // Disjoint accounts: commute.
        let a = [("_sender", addr(1)), ("to", addr(2)), ("amount", Value::Uint(128, 5))];
        let b = [("_sender", addr(3)), ("to", addr(4)), ("amount", Value::Uint(128, 5))];
        assert!(!m.conflicts_concrete("Transfer", &bind(&a), "Transfer", &bind(&b)));
        // B pays A's sender: the read/write alias fires.
        let b2 = [("_sender", addr(3)), ("to", addr(1)), ("amount", Value::Uint(128, 5))];
        assert!(m.conflicts_concrete("Transfer", &bind(&a), "Transfer", &bind(&b2)));
        // Same sender on both sides.
        let b3 = [("_sender", addr(1)), ("to", addr(4)), ("amount", Value::Uint(128, 5))];
        assert!(m.conflicts_concrete("Transfer", &bind(&a), "Transfer", &bind(&b3)));
    }

    #[test]
    fn transfer_vs_delegated_transfer_resolves_on_the_owner() {
        let m = matrix_for(scilla::corpus::get("FungibleToken").expect("in corpus").source);
        let a = [("_sender", addr(1)), ("to", addr(2)), ("amount", Value::Uint(128, 1))];
        // A delegated transfer out of A's sender debits the same balance
        // entry behind a spendability check: concrete conflict.
        let shared = [("_sender", addr(5)), ("from", addr(1)), ("to", addr(6))];
        assert!(m.conflicts_concrete("Transfer", &bind(&a), "TransferFrom", &bind(&shared)));
        // Moving the delegated owner elsewhere clears it.
        let disjoint = [("_sender", addr(5)), ("from", addr(3)), ("to", addr(6))];
        assert!(!m.conflicts_concrete("Transfer", &bind(&a), "TransferFrom", &bind(&disjoint)));
    }

    #[test]
    fn unkeyed_rmw_field_conflicts() {
        let m = matrix_for(TOKEN);
        // Mint reads and writes the whole-field total_supply: two Mints
        // overlap on an unkeyed component.
        let v = m.verdict("Mint", "Mint").expect("known pair");
        assert_eq!(v, &Verdict::Conflict(ConflictReason::UnkeyedOverlap("total_supply".into())));
    }

    #[test]
    fn overwrite_vs_reader_conflicts_conditionally_or_hard() {
        let m = matrix_for(TOKEN);
        // SetAdmin overwrites `admin`; it never touches balances, so it
        // commutes with Transfer outright.
        assert_eq!(m.verdict("SetAdmin", "Transfer"), Some(&Verdict::Commute));
        // Two SetAdmins overwrite the same unkeyed cell.
        assert_eq!(
            m.verdict("SetAdmin", "SetAdmin"),
            Some(&Verdict::Conflict(ConflictReason::UnkeyedOverlap("admin".into())))
        );
    }

    #[test]
    fn fund_moving_send_forces_conflict() {
        let m = matrix_for(TOKEN);
        assert_eq!(
            m.verdict("Drain", "Transfer"),
            Some(&Verdict::Conflict(ConflictReason::NativeFunds))
        );
        assert_eq!(
            m.verdict("Transfer", "Drain"),
            Some(&Verdict::Conflict(ConflictReason::NativeFunds))
        );
    }

    #[test]
    fn matrix_is_symmetric() {
        let m = matrix_for(TOKEN);
        for i in 0..m.len() {
            for j in 0..m.len() {
                let ij = m.verdict_at(i, j);
                let ji = m.verdict_at(j, i);
                assert_eq!(ij.is_conflict(), ji.is_conflict());
                assert_eq!(ij, &ji.clone().mirrored(), "asymmetry at ({i}, {j})");
            }
        }
    }

    #[test]
    fn wire_roundtrip() {
        let m = matrix_for(TOKEN);
        let v = wire::matrix_to_value(&m);
        let back = wire::matrix_from_value(&v).expect("parses back");
        assert_eq!(m, back);
    }

    #[test]
    fn unknown_transition_conservatively_conflicts() {
        let m = matrix_for(TOKEN);
        assert!(!m.may_commute("Transfer", "NoSuchTransition"));
        assert!(m.conflicts_concrete("Nope", &|_| None, "Transfer", &|_| None));
    }
}
