//! Precision blame: *why* did the analysis lose precision?
//!
//! Every place the flow-sensitive analysis (see [`crate::analysis`])
//! degrades to a localized `⊤[pf]`, a global `⊤`, or an anonymous
//! top-contribution records a span-bearing [`BlameCause`]. The causes are
//! surfaced by the `cosplit blame` CLI subcommand and the lint pass so a
//! contract author can see the exact statement that cost the contract its
//! sharding signature.

use crate::domain::PseudoField;
use scilla::span::Span;
use std::fmt;

/// The taxonomy of precision losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameKind {
    /// A map access whose key is not a transition parameter (paper §3.3
    /// `CanSummarise` fails on the key test).
    ComputedKey,
    /// A map access that stops at an interior map level, so the touched
    /// entry set is unbounded.
    PartialAccess,
    /// A read of a component after a write to the same field defeated
    /// store forwarding (differently-keyed write in between).
    ReadAfterWrite,
    /// A `match` whose scrutinee collapsed to ⊤, forcing a ⊤ condition.
    TopScrutinee,
    /// A `send` whose message list could not be statically collected.
    UnresolvedSend,
    /// An identifier with no binding in the abstract environment.
    UnboundIdent,
}

impl BlameKind {
    /// Stable wire/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            BlameKind::ComputedKey => "computed-key",
            BlameKind::PartialAccess => "partial-access",
            BlameKind::ReadAfterWrite => "read-after-write",
            BlameKind::TopScrutinee => "top-scrutinee",
            BlameKind::UnresolvedSend => "unresolved-send",
            BlameKind::UnboundIdent => "unbound-ident",
        }
    }
}

impl fmt::Display for BlameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded precision loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameCause {
    /// The transition being analysed when precision was lost.
    pub transition: String,
    /// What went wrong.
    pub kind: BlameKind,
    /// The pseudo-field the imprecision localizes to, when it does.
    pub field: Option<PseudoField>,
    /// Human-oriented detail (the key expression, the identifier, …).
    pub detail: String,
    /// Source location of the offending statement or expression.
    pub span: Span,
}

impl fmt::Display for BlameCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] transition '{}' at {}", self.kind, self.transition, self.span)?;
        if let Some(pf) = &self.field {
            write!(f, " on {pf}")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

impl BlameCause {
    /// Serialises to the stable JSON wire form (`cosplit-cli blame --json`).
    pub fn to_json(&self) -> String {
        use serde_json::{json, Value};
        let pf_json = match &self.field {
            Some(pf) => {
                let keys: Vec<Value> = pf.keys.iter().map(Value::from).collect();
                json!({"field": &pf.field, "keys": Value::Array(keys)})
            }
            None => Value::Null,
        };
        let span = json!({
            "start": self.span.start as u64,
            "end": self.span.end as u64,
            "line": u64::from(self.span.line),
            "col": u64::from(self.span.col),
        });
        json!({
            "transition": &self.transition,
            "kind": self.kind.as_str(),
            "field": pf_json,
            "detail": &self.detail,
            "span": span,
        })
        .to_string()
    }
}
