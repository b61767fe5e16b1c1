//! Automated contract repair (paper §6, "Automated Contract Repair").
//!
//! The analysis can only summarise map accesses whose keys are transition
//! parameters. A common unshardable pattern reads a value from the contract
//! state (e.g. an NFT's current owner) and then uses it as a map key:
//!
//! ```text
//! owner_opt <- token_owners[token_id];
//! match owner_opt with
//! | Some owner => … owned_token_count[owner] …   (* key from state: ⊤ *)
//! ```
//!
//! The paper's proposed repair turns the state-read key into a transition
//! parameter checked against the stored value — a compare-and-swap:
//!
//! ```text
//! transition T (…, claimed_owner : ByStr20)
//! owner_opt <- token_owners[token_id];
//! match owner_opt with
//! | Some owner =>
//!   repair_ok = builtin eq owner claimed_owner;
//!   match repair_ok with
//!   | True => … owned_token_count[claimed_owner] …  (* key is a parameter *)
//!   | False => throw
//! ```
//!
//! This module implements that transformation and proposes the rewritten
//! contract to the developer before deployment.

use crate::solver::AnalyzedContract;
use scilla::ast::*;
use scilla::span::Span;
use scilla::typechecker::{typecheck, CheckedModule};
use scilla::types::Type;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What the repair changed in one transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The repaired transition.
    pub transition: String,
    /// New parameters added, with the state binder each one replaces.
    pub added_params: Vec<AddedParam>,
}

/// One compare-and-swap parameter introduced by the repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddedParam {
    /// The new parameter's name.
    pub param: String,
    /// Its type.
    pub ty: Type,
    /// The state-derived binder it replaces as a map key.
    pub replaces_binder: String,
}

/// The outcome of repairing a whole contract.
#[derive(Debug)]
pub struct RepairOutcome {
    /// The rewritten, re-type-checked module.
    pub checked: CheckedModule,
    /// One report per transition that was changed.
    pub reports: Vec<RepairReport>,
}

/// Attempts the §6 repair on every transition of a contract.
///
/// Only transitions whose summaries carry imprecision — a global `⊤` or a
/// localized `⊤[pf]` — are touched; precisely-summarised transitions pass
/// through unchanged. The rewritten module is re-type-checked before being
/// returned, so the repair can never produce an ill-typed contract.
///
/// # Errors
///
/// Returns the type error if the rewritten module fails to re-check — which
/// indicates a bug in the rewriter, not user error.
pub fn repair_contract(checked: &CheckedModule) -> Result<RepairOutcome, scilla::error::TypeError> {
    let analyzed = AnalyzedContract::analyze(checked);
    let mut module = checked.module.clone();
    let mut reports = Vec::new();

    for t in &mut module.contract.transitions {
        let summary = analyzed.summary(&t.name.name).expect("summary per transition");
        if !summary.has_top() && summary.top_fields().next().is_none() {
            continue;
        }
        if let Some(report) = repair_transition(t, &checked.field_types) {
            reports.push(report);
        }
    }

    let checked = typecheck(module)?;
    Ok(RepairOutcome { checked, reports })
}

/// Repairs one transition in place. Returns `None` when the transition does
/// not exhibit the repairable pattern.
fn repair_transition(t: &mut Transition, field_types: &HashMap<String, Type>) -> Option<RepairReport> {
    let mut existing: HashSet<String> = t.params.iter().map(|p| p.name.name.clone()).collect();
    let mut added = Vec::new();
    let body = std::mem::take(&mut t.body);
    let new_body = repair_stmts(body, field_types, &mut existing, &mut added);
    t.body = new_body;
    if added.is_empty() {
        return None;
    }
    for a in &added {
        t.params.push(Param { name: Ident::new(a.param.clone()), ty: a.ty.clone() });
    }
    Some(RepairReport { transition: t.name.name.clone(), added_params: added })
}

/// Walks a statement list, looking for `x ← m[ks]; match x with Some b ⇒ …`
/// where `b` is later used as a map key, and rewrites the `Some` branch with
/// a compare-and-swap guard.
fn repair_stmts(
    stmts: Vec<Stmt>,
    field_types: &HashMap<String, Type>,
    existing: &mut HashSet<String>,
    added: &mut Vec<AddedParam>,
) -> Vec<Stmt> {
    // Track binders introduced by map gets: binder → value type.
    let mut get_types: HashMap<String, Type> = HashMap::new();
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::MapGet { lhs, map, keys } => {
                if let Some((_, vt)) =
                    field_types.get(&map.name).and_then(|ft| ft.map_access(keys.len()))
                {
                    get_types.insert(lhs.name.clone(), vt.clone());
                }
                out.push(Stmt::MapGet { lhs, map, keys });
            }
            Stmt::Match { scrutinee, clauses, span } => {
                let scrutinee_type = get_types.get(&scrutinee.name).cloned();
                let clauses = clauses
                    .into_iter()
                    .map(|(pat, body)| {
                        // Recurse first so nested patterns repair too.
                        let body = repair_stmts(body, field_types, existing, added);
                        match (&pat, &scrutinee_type) {
                            (Pattern::Constructor(c, subs), Some(vt))
                                if c.name == "Some" && subs.len() == 1 =>
                            {
                                if let Pattern::Binder(b) = &subs[0] {
                                    if used_as_map_key(&body, &b.name) {
                                        let (guarded, param) =
                                            guard_branch(body, b, vt, existing);
                                        added.push(AddedParam {
                                            param: param.clone(),
                                            ty: vt.clone(),
                                            replaces_binder: b.name.clone(),
                                        });
                                        return (pat, guarded);
                                    }
                                }
                                (pat, body)
                            }
                            _ => (pat, body),
                        }
                    })
                    .collect();
                out.push(Stmt::Match { scrutinee, clauses, span });
            }
            other => out.push(other),
        }
    }
    out
}

/// Is `name` used as a map key anywhere in these statements?
fn used_as_map_key(stmts: &[Stmt], name: &str) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::MapGet { keys, .. }
        | Stmt::MapUpdate { keys, .. }
        | Stmt::MapExists { keys, .. }
        | Stmt::MapDelete { keys, .. } => keys.iter().any(|k| k.name == name),
        Stmt::Match { clauses, .. } => clauses.iter().any(|(_, body)| used_as_map_key(body, name)),
        _ => false,
    })
}

/// Wraps a `Some`-branch body in the compare-and-swap guard and substitutes
/// the state binder with the new parameter. Returns the guarded body and
/// the parameter name.
fn guard_branch(
    body: Vec<Stmt>,
    binder: &Ident,
    _ty: &Type,
    existing: &mut HashSet<String>,
) -> (Vec<Stmt>, String) {
    let mut param = format!("claimed_{}", binder.name);
    while existing.contains(&param) {
        param.push('_');
    }
    existing.insert(param.clone());

    let substituted = body.into_iter().map(|s| subst_stmt(s, &binder.name, &param)).collect();
    let check = Ident::new(format!("repair_ok_{}", binder.name));
    let guard = vec![
        Stmt::Bind {
            lhs: check.clone(),
            rhs: Expr::Builtin {
                op: Ident::new("eq"),
                args: vec![binder.clone(), Ident::new(param.clone())],
            },
        },
        Stmt::Match {
            scrutinee: check,
            clauses: vec![
                (Pattern::Constructor(Ident::new("True"), vec![]), substituted),
                (
                    Pattern::Constructor(Ident::new("False"), vec![]),
                    vec![Stmt::Throw { exception: None, span: Span::dummy() }],
                ),
            ],
            span: Span::dummy(),
        },
    ];
    (guard, param)
}

// --- identifier substitution over statements/expressions -------------------

fn subst_ident(i: Ident, from: &str, to: &str) -> Ident {
    if i.name == from {
        Ident::spanned(to, i.span)
    } else {
        i
    }
}

fn subst_stmt(s: Stmt, from: &str, to: &str) -> Stmt {
    let sub = |i: Ident| subst_ident(i, from, to);
    let sub_vec = |v: Vec<Ident>| v.into_iter().map(|i| subst_ident(i, from, to)).collect();
    match s {
        Stmt::Load { lhs, field } => Stmt::Load { lhs, field },
        Stmt::Store { field, rhs } => Stmt::Store { field, rhs: sub(rhs) },
        Stmt::Bind { lhs, rhs } => Stmt::Bind { lhs, rhs: subst_expr(rhs, from, to) },
        Stmt::MapUpdate { map, keys, rhs } => {
            Stmt::MapUpdate { map, keys: sub_vec(keys), rhs: sub(rhs) }
        }
        Stmt::MapGet { lhs, map, keys } => Stmt::MapGet { lhs, map, keys: sub_vec(keys) },
        Stmt::MapExists { lhs, map, keys } => Stmt::MapExists { lhs, map, keys: sub_vec(keys) },
        Stmt::MapDelete { map, keys } => Stmt::MapDelete { map, keys: sub_vec(keys) },
        Stmt::ReadBlockchain { lhs, query } => Stmt::ReadBlockchain { lhs, query },
        Stmt::Match { scrutinee, clauses, span } => Stmt::Match {
            scrutinee: sub(scrutinee),
            clauses: clauses
                .into_iter()
                .map(|(p, body)| {
                    // Shadowing: if the pattern rebinds `from`, leave the body.
                    if p.binders().iter().any(|b| b.name == from) {
                        (p, body)
                    } else {
                        (p, body.into_iter().map(|s| subst_stmt(s, from, to)).collect())
                    }
                })
                .collect(),
            span,
        },
        Stmt::Accept(sp) => Stmt::Accept(sp),
        Stmt::Send { msgs } => Stmt::Send { msgs: sub(msgs) },
        Stmt::Event { event } => Stmt::Event { event: sub(event) },
        Stmt::Throw { exception, span } => {
            Stmt::Throw { exception: exception.map(sub), span }
        }
    }
}

fn subst_expr(e: Expr, from: &str, to: &str) -> Expr {
    let sub = |i: Ident| subst_ident(i, from, to);
    let sub_vec = |v: Vec<Ident>| v.into_iter().map(|i| subst_ident(i, from, to)).collect();
    match e {
        Expr::Lit(l, s) => Expr::Lit(l, s),
        Expr::Var(i) => Expr::Var(sub(i)),
        Expr::Message(entries, s) => Expr::Message(
            entries
                .into_iter()
                .map(|en| MsgEntry {
                    value: match en.value {
                        MsgValue::Var(i) => MsgValue::Var(sub(i)),
                        lit => lit,
                    },
                    ..en
                })
                .collect(),
            s,
        ),
        Expr::Constr { name, type_args, args } => {
            Expr::Constr { name, type_args, args: sub_vec(args) }
        }
        Expr::Builtin { op, args } => Expr::Builtin { op, args: sub_vec(args) },
        Expr::Let { bound, ann, rhs, body } => {
            let rhs = Box::new(subst_expr(*rhs, from, to));
            let body = if bound.name == from {
                body // shadowed
            } else {
                Box::new(subst_expr(*body, from, to))
            };
            Expr::Let { bound, ann, rhs, body }
        }
        Expr::Fun(f) if f.param.name == from => Expr::Fun(f), // shadowed
        Expr::Fun(f) => {
            let FunLit { param, param_type, body } = Arc::unwrap_or_clone(f);
            Expr::Fun(Arc::new(FunLit { param, param_type, body: subst_expr(body, from, to) }))
        }
        Expr::App { func, args } => Expr::App { func: sub(func), args: sub_vec(args) },
        Expr::Match { scrutinee, clauses, span } => Expr::Match {
            scrutinee: sub(scrutinee),
            clauses: clauses
                .into_iter()
                .map(|(p, body)| {
                    if p.binders().iter().any(|b| b.name == from) {
                        (p, body)
                    } else {
                        (p, subst_expr(body, from, to))
                    }
                })
                .collect(),
            span,
        },
        Expr::TFun(t) => {
            let TFunLit { tvar, body, span } = Arc::unwrap_or_clone(t);
            Expr::TFun(Arc::new(TFunLit { tvar, body: subst_expr(body, from, to), span }))
        }
        Expr::Inst { target, type_args } => Expr::Inst { target: sub(target), type_args },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::WeakReads;
    use scilla::parser::parse_module;

    fn check(src: &str) -> CheckedModule {
        typecheck(parse_module(src).unwrap()).unwrap()
    }

    const UNSHARDABLE_NFT: &str = r#"
        library L
        let one = Uint128 1
        contract MiniNFT ()
        field owners : Map Uint256 ByStr20 = Emp Uint256 ByStr20
        field counts : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Burn (token_id : Uint256)
          owner_opt <- owners[token_id];
          match owner_opt with
          | Some owner =>
            ok = builtin eq _sender owner;
            match ok with
            | True =>
              delete owners[token_id];
              c_opt <- counts[owner];
              match c_opt with
              | Some c =>
                nc = builtin sub c one;
                counts[owner] := nc
              | None =>
              end
            | False => throw
            end
          | None => throw
          end
        end
    "#;

    #[test]
    fn burn_becomes_shardable_after_repair() {
        let checked = check(UNSHARDABLE_NFT);
        // Before: the state-read key localizes a ⊤ onto `counts` (the whole
        // field must be owned, not just the entry).
        let before = AnalyzedContract::analyze(&checked);
        assert!(before.summary("Burn").unwrap().has_top_field_on("counts"));

        let outcome = repair_contract(&checked).expect("repair re-typechecks");
        assert_eq!(outcome.reports.len(), 1);
        let report = &outcome.reports[0];
        assert_eq!(report.transition, "Burn");
        assert_eq!(report.added_params.len(), 1);
        assert_eq!(report.added_params[0].param, "claimed_owner");
        assert_eq!(report.added_params[0].ty, Type::address());

        // After: Burn is summarisable precisely and shardable.
        let after = AnalyzedContract::analyze(&outcome.checked);
        let burn = after.summary("Burn").unwrap();
        assert!(!burn.has_top());
        assert_eq!(burn.top_fields().count(), 0, "{burn}");
        let sig = after.query(&["Burn".into()], &WeakReads::AcceptAll);
        assert!(sig.transition("Burn").unwrap().is_shardable());
    }

    #[test]
    fn repaired_transition_gains_the_parameter() {
        let checked = check(UNSHARDABLE_NFT);
        let outcome = repair_contract(&checked).unwrap();
        let t = outcome.checked.contract().transition("Burn").unwrap();
        assert_eq!(t.params.len(), 2);
        assert_eq!(t.params[1].name.name, "claimed_owner");
    }

    #[test]
    fn shardable_transitions_are_untouched() {
        let src = r#"
            contract C ()
            field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition Put (k : ByStr20, v : Uint128)
              m[k] := v
            end
        "#;
        let checked = check(src);
        let outcome = repair_contract(&checked).unwrap();
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.checked.contract().transition("Put").unwrap().params.len(), 2);
    }

    #[test]
    fn corpus_nft_burn_repairs() {
        let entry = scilla::corpus::get("NonfungibleToken").unwrap();
        let checked = check(entry.source);
        let outcome = repair_contract(&checked).unwrap();
        assert!(outcome.reports.iter().any(|r| r.transition == "Burn"), "{:?}", outcome.reports);
        let after = AnalyzedContract::analyze(&outcome.checked);
        let burn = after.summary("Burn").unwrap();
        assert!(!burn.has_top());
        assert_eq!(burn.top_fields().count(), 0, "{burn}");
    }

    #[test]
    fn computed_key_patterns_are_not_repairable() {
        // Keys built by multi-argument builtins have no dispatch-replayable
        // derivation and cannot be turned into parameters by this
        // transformation either.
        let src = r#"
            contract C ()
            field m : Map String Uint128 = Emp String Uint128
            transition T (s : String, v : Uint128)
              k = builtin concat s s;
              m[k] := v
            end
        "#;
        let checked = check(src);
        let outcome = repair_contract(&checked).unwrap();
        assert!(outcome.reports.is_empty());
        let after = AnalyzedContract::analyze(&outcome.checked);
        assert!(after.summary("T").unwrap().has_top_field_on("m"), "still imprecise, honestly");
    }
}
