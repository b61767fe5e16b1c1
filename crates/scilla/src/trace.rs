//! Dynamic effect tracing for the interpreter.
//!
//! An [`EffectTracer`] rides along with one transition execution and records
//! the *concrete* footprint — which fields and map entries were read, what was
//! written (with the observed contribution op), which values were branched on,
//! whether funds were accepted, and which messages were sent. The result is a
//! [`DynamicFootprint`]: the runtime counterpart of a static
//! `TransitionSummary`, consumed by the CoSplit soundness auditor to check
//! that every executed path stays inside its declared abstract footprint.
//!
//! Tracing never charges gas and never alters evaluation: a traced execution
//! and an untraced one are bit-identical in outcome and gas usage.

use crate::span::Span;
use crate::value::Value;
use std::collections::BTreeMap;

/// The concrete contribution op observed at a single write.
///
/// Classified from the prior and new value of the written cell, so a
/// `balances[to] := builtin add old amount` shows up as `Add(amount)` even
/// though the interpreter only sees the final store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObservedOp {
    /// The cell's integer value increased by this delta (a fresh entry counts
    /// as an increase from an implicit zero).
    Add(u128),
    /// The cell's integer value decreased by this delta.
    Sub(u128),
    /// Any other overwrite: non-integer value, width change, or a write whose
    /// delta cannot be expressed as a single add/sub.
    Set,
    /// The cell was deleted.
    Delete,
}

impl ObservedOp {
    /// Classifies a write from the cell's prior and new contents.
    pub fn classify(prior: Option<&Value>, new: Option<&Value>) -> ObservedOp {
        match (prior, new) {
            (_, None) => ObservedOp::Delete,
            (Some(Value::Uint(w1, a)), Some(Value::Uint(w2, b))) if w1 == w2 => {
                if b >= a {
                    ObservedOp::Add(b - a)
                } else {
                    ObservedOp::Sub(a - b)
                }
            }
            (None, Some(Value::Uint(_, b))) => ObservedOp::Add(*b),
            _ => ObservedOp::Set,
        }
    }

    /// Short lowercase name, aligned with the static `Op::Builtin` spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ObservedOp::Add(_) => "add",
            ObservedOp::Sub(_) => "sub",
            ObservedOp::Set => "set",
            ObservedOp::Delete => "delete",
        }
    }

    /// True when the write left the cell's value unchanged (a no-op delta).
    pub fn is_noop(&self) -> bool {
        matches!(self, ObservedOp::Add(0) | ObservedOp::Sub(0))
    }
}

impl std::fmt::Display for ObservedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObservedOp::Add(d) => write!(f, "add(+{d})"),
            ObservedOp::Sub(d) => write!(f, "sub(-{d})"),
            ObservedOp::Set => write!(f, "set"),
            ObservedOp::Delete => write!(f, "delete"),
        }
    }
}

/// One concrete read: a field with the concrete key path used to reach it
/// (empty for whole-field loads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRead {
    pub field: String,
    pub keys: Vec<Value>,
    pub span: Span,
}

/// One concrete write, with before/after snapshots of the touched cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceWrite {
    pub field: String,
    pub keys: Vec<Value>,
    pub prior: Option<Value>,
    pub new: Option<Value>,
    pub op: ObservedOp,
    pub span: Span,
}

/// One concrete branch decision (a statement-level `match` scrutinee).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCond {
    pub value: Value,
    pub span: Span,
}

/// One concrete outgoing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSend {
    pub recipient: [u8; 20],
    pub amount: u128,
    pub tag: String,
    pub span: Span,
}

/// The full concrete footprint of one transition execution.
#[derive(Debug, Clone, Default)]
pub struct DynamicFootprint {
    /// The executed transition's name.
    pub transition: String,
    pub reads: Vec<TraceRead>,
    pub writes: Vec<TraceWrite>,
    pub conditions: Vec<TraceCond>,
    /// Number of `accept` statements executed.
    pub accepts: u32,
    pub sends: Vec<TraceSend>,
    /// Builtins evaluated along the path, with call counts — used by lint
    /// heuristics and overhead accounting, not by the containment check.
    pub builtin_ops: BTreeMap<String, u64>,
}

/// Records the footprint of one execution. Create one per invocation, pass it
/// to `CompiledContract::execute_traced`, then take the footprint with
/// [`EffectTracer::finish`].
#[derive(Debug, Default)]
pub struct EffectTracer {
    fp: DynamicFootprint,
}

impl EffectTracer {
    pub fn new(transition: &str) -> Self {
        EffectTracer {
            fp: DynamicFootprint { transition: transition.to_string(), ..Default::default() },
        }
    }

    pub fn record_read(&mut self, field: &str, keys: Vec<Value>, span: Span) {
        self.fp.reads.push(TraceRead { field: field.to_string(), keys, span });
    }

    pub fn record_write(
        &mut self,
        field: &str,
        keys: Vec<Value>,
        prior: Option<Value>,
        new: Option<Value>,
        span: Span,
    ) {
        let op = ObservedOp::classify(prior.as_ref(), new.as_ref());
        self.fp.writes.push(TraceWrite { field: field.to_string(), keys, prior, new, op, span });
    }

    pub fn record_cond(&mut self, value: Value, span: Span) {
        self.fp.conditions.push(TraceCond { value, span });
    }

    pub fn record_accept(&mut self) {
        self.fp.accepts += 1;
    }

    pub fn record_send(&mut self, recipient: [u8; 20], amount: u128, tag: &str, span: Span) {
        self.fp.sends.push(TraceSend { recipient, amount, tag: tag.to_string(), span });
    }

    pub fn record_builtin(&mut self, op: &str) {
        *self.fp.builtin_ops.entry(op.to_string()).or_insert(0) += 1;
    }

    /// Consumes the tracer, yielding the recorded footprint.
    pub fn finish(self) -> DynamicFootprint {
        self.fp
    }

    /// The footprint recorded so far (useful mid-flight in tests).
    pub fn footprint(&self) -> &DynamicFootprint {
        &self.fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_integer_deltas() {
        let a = Value::Uint(128, 70);
        let b = Value::Uint(128, 100);
        assert_eq!(ObservedOp::classify(Some(&b), Some(&a)), ObservedOp::Sub(30));
        assert_eq!(ObservedOp::classify(Some(&a), Some(&b)), ObservedOp::Add(30));
        assert_eq!(ObservedOp::classify(None, Some(&b)), ObservedOp::Add(100));
        assert_eq!(ObservedOp::classify(Some(&a), None), ObservedOp::Delete);
        assert_eq!(ObservedOp::classify(Some(&a), Some(&a)), ObservedOp::Add(0));
        assert!(ObservedOp::classify(Some(&a), Some(&a)).is_noop());
    }

    #[test]
    fn classify_non_integer_is_set() {
        let s = Value::Str("x".into());
        let u = Value::Uint(128, 1);
        assert_eq!(ObservedOp::classify(Some(&s), Some(&u)), ObservedOp::Set);
        assert_eq!(ObservedOp::classify(Some(&u), Some(&s)), ObservedOp::Set);
        // Width change cannot be a plain add/sub.
        let w = Value::Uint(64, 1);
        assert_eq!(ObservedOp::classify(Some(&u), Some(&w)), ObservedOp::Set);
        assert_eq!(ObservedOp::classify(None, Some(&s)), ObservedOp::Set);
    }
}
