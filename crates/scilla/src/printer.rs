//! Pretty-printer: AST back to parseable source.
//!
//! Round-trip guarantee: for any module `m`, `parse(print(m))` yields an AST
//! equal to `m` up to source spans. Used by the contract-repair tool to show
//! developers the rewritten contract, and by round-trip tests over the whole
//! corpus.

use crate::ast::*;
use crate::types::Type;
use std::fmt::Write;

/// Pretty-prints a whole module.
pub fn print_module(m: &ContractModule) -> String {
    let mut out = String::new();
    if let Some(lib) = &m.library_name {
        let _ = writeln!(out, "library {lib}");
        for entry in &m.library {
            match entry {
                LibEntry::Let { name, ann, body } => match ann {
                    Some(t) => {
                        let _ = writeln!(out, "let {name} : {t} = {}", print_expr(body, 1));
                    }
                    None => let_line(&mut out, name, body),
                },
                LibEntry::TypeDef { name, ctors } => {
                    let _ = writeln!(out, "type {name} =");
                    for c in ctors {
                        let _ = write!(out, "  | {}", c.name);
                        if !c.arg_types.is_empty() {
                            let _ = write!(out, " of");
                            for t in &c.arg_types {
                                let _ = write!(out, " {}", atom_type(t));
                            }
                        }
                        let _ = writeln!(out);
                    }
                }
            }
        }
        out.push('\n');
    }
    let c = &m.contract;
    let _ = write!(out, "contract {} (", c.name);
    let params: Vec<String> = c.params.iter().map(|p| format!("{} : {}", p.name, p.ty)).collect();
    let _ = writeln!(out, "{})", params.join(", "));
    for f in &c.fields {
        let _ = writeln!(out, "field {} : {} = {}", f.name, f.ty, print_expr(&f.init, 1));
    }
    for t in &c.transitions {
        out.push('\n');
        let params: Vec<String> =
            t.params.iter().map(|p| format!("{} : {}", p.name, p.ty)).collect();
        let _ = writeln!(out, "transition {} ({})", t.name, params.join(", "));
        print_stmts(&mut out, &t.body, 1);
        let _ = writeln!(out, "end");
    }
    out
}

fn let_line(out: &mut String, name: &Ident, body: &Expr) {
    let _ = writeln!(out, "let {name} = {}", print_expr(body, 1));
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_stmts(out: &mut String, stmts: &[Stmt], level: usize) {
    for (i, s) in stmts.iter().enumerate() {
        indent(out, level);
        print_stmt(out, s, level);
        if i + 1 < stmts.len() {
            out.push(';');
        }
        out.push('\n');
    }
}

fn keys_str(keys: &[Ident]) -> String {
    keys.iter().map(|k| format!("[{k}]")).collect()
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    match s {
        Stmt::Load { lhs, field } => {
            let _ = write!(out, "{lhs} <- {field}");
        }
        Stmt::Store { field, rhs } => {
            let _ = write!(out, "{field} := {rhs}");
        }
        Stmt::Bind { lhs, rhs } => {
            let _ = write!(out, "{lhs} = {}", print_expr(rhs, level + 1));
        }
        Stmt::MapUpdate { map, keys, rhs } => {
            let _ = write!(out, "{map}{} := {rhs}", keys_str(keys));
        }
        Stmt::MapGet { lhs, map, keys } => {
            let _ = write!(out, "{lhs} <- {map}{}", keys_str(keys));
        }
        Stmt::MapExists { lhs, map, keys } => {
            let _ = write!(out, "{lhs} <- exists {map}{}", keys_str(keys));
        }
        Stmt::MapDelete { map, keys } => {
            let _ = write!(out, "delete {map}{}", keys_str(keys));
        }
        Stmt::ReadBlockchain { lhs, query } => {
            let _ = write!(out, "{lhs} <- & {query}");
        }
        Stmt::Match { scrutinee, clauses, .. } => {
            let _ = write!(out, "match {scrutinee} with");
            for (pat, body) in clauses {
                out.push('\n');
                indent(out, level);
                let _ = write!(out, "| {} =>", print_pattern(pat));
                if !body.is_empty() {
                    out.push('\n');
                    print_stmts(out, body, level + 1);
                    // strip trailing newline added by print_stmts
                    out.pop();
                }
            }
            out.push('\n');
            indent(out, level);
            let _ = write!(out, "end");
        }
        Stmt::Accept(_) => {
            let _ = write!(out, "accept");
        }
        Stmt::Send { msgs } => {
            let _ = write!(out, "send {msgs}");
        }
        Stmt::Event { event } => {
            let _ = write!(out, "event {event}");
        }
        Stmt::Throw { exception, .. } => {
            match exception {
                Some(e) => {
                    let _ = write!(out, "throw {e}");
                }
                None => {
                    let _ = write!(out, "throw");
                }
            };
        }
    }
}

/// Pretty-prints a pattern.
pub fn print_pattern(p: &Pattern) -> String {
    match p {
        Pattern::Wildcard(_) => "_".into(),
        Pattern::Binder(i) => i.name.clone(),
        Pattern::Constructor(c, subs) => {
            let mut s = c.name.clone();
            for sub in subs {
                let rendered = print_pattern(sub);
                if matches!(sub, Pattern::Constructor(_, args) if !args.is_empty()) {
                    s.push_str(&format!(" ({rendered})"));
                } else {
                    s.push_str(&format!(" {rendered}"));
                }
            }
            s
        }
    }
}

fn atom_type(t: &Type) -> String {
    let rendered = t.to_string();
    let atomic = matches!(t, Type::Adt(_, args) if args.is_empty())
        || matches!(
            t,
            Type::Int(_) | Type::Uint(_) | Type::Str | Type::ByStr(_) | Type::BNum | Type::Message | Type::TypeVar(_)
        );
    if atomic {
        rendered
    } else {
        format!("({rendered})")
    }
}

/// Pretty-prints an expression at a given indent level.
#[allow(clippy::only_used_in_recursion)] // the level is part of the stable API
pub fn print_expr(e: &Expr, level: usize) -> String {
    match e {
        Expr::Lit(l, _) => match l {
            Literal::EmpMap(k, v) => format!("Emp {} {}", atom_type(k), atom_type(v)),
            other => other.to_string(),
        },
        Expr::Var(i) => i.name.clone(),
        Expr::Message(entries, _) => {
            let parts: Vec<String> = entries
                .iter()
                .map(|en| {
                    let v = match &en.value {
                        MsgValue::Var(i) => i.name.clone(),
                        MsgValue::Lit(l) => l.to_string(),
                    };
                    format!("{} : {v}", en.key)
                })
                .collect();
            format!("{{{}}}", parts.join("; "))
        }
        Expr::Constr { name, type_args, args } => {
            let mut s = name.name.clone();
            if !type_args.is_empty() {
                let ts: Vec<String> = type_args.iter().map(atom_type).collect();
                s.push_str(&format!(" {{{}}}", ts.join(" ")));
            }
            for a in args {
                s.push_str(&format!(" {a}"));
            }
            s
        }
        Expr::Builtin { op, args } => {
            let args: Vec<String> = args.iter().map(|a| a.name.clone()).collect();
            format!("builtin {op} {}", args.join(" "))
        }
        Expr::Let { bound, ann, rhs, body } => {
            let ann = ann.as_ref().map(|t| format!(" : {t}")).unwrap_or_default();
            format!(
                "let {bound}{ann} = {} in {}",
                print_expr(rhs, level),
                print_expr(body, level)
            )
        }
        Expr::Fun(f) => {
            let FunLit { param, param_type, body } = &**f;
            format!("fun ({param} : {param_type}) => {}", print_expr(body, level))
        }
        Expr::App { func, args } => {
            let args: Vec<String> = args.iter().map(|a| a.name.clone()).collect();
            format!("{func} {}", args.join(" "))
        }
        Expr::Match { scrutinee, clauses, .. } => {
            let mut s = format!("match {scrutinee} with");
            for (pat, body) in clauses {
                s.push_str(&format!("\n| {} => {}", print_pattern(pat), print_expr(body, level)));
            }
            s.push_str("\nend");
            s
        }
        Expr::TFun(t) => {
            format!("tfun '{} => {}", t.tvar, print_expr(&t.body, level))
        }
        Expr::Inst { target, type_args } => {
            let ts: Vec<String> = type_args.iter().map(atom_type).collect();
            format!("@{target} {}", ts.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    /// Structural equality up to spans: compare re-parsed ASTs of both.
    fn normalize(src: &str) -> String {
        let m = parse_module(src).unwrap();
        print_module(&m)
    }

    #[test]
    fn roundtrip_is_a_fixpoint_on_the_whole_corpus() {
        for entry in crate::corpus::all() {
            let printed = normalize(entry.source);
            let reparsed = parse_module(&printed)
                .unwrap_or_else(|e| panic!("{}: reprint does not parse: {e}\n{printed}", entry.name));
            let reprinted = print_module(&reparsed);
            assert_eq!(printed, reprinted, "{}: print ∘ parse not idempotent", entry.name);
        }
    }

    #[test]
    fn roundtrip_preserves_semantic_structure() {
        for entry in crate::corpus::all() {
            let original = parse_module(entry.source).unwrap();
            let reparsed = parse_module(&print_module(&original)).unwrap();
            assert_eq!(
                original.contract.transitions.len(),
                reparsed.contract.transitions.len(),
                "{}",
                entry.name
            );
            assert_eq!(original.contract.fields.len(), reparsed.contract.fields.len());
            for (a, b) in original.contract.transitions.iter().zip(&reparsed.contract.transitions) {
                assert_eq!(a.name.name, b.name.name);
                assert_eq!(a.params.len(), b.params.len());
                assert_eq!(a.body.len(), b.body.len(), "{}.{}", entry.name, a.name.name);
            }
        }
    }

    #[test]
    fn reprinted_corpus_still_typechecks() {
        for entry in crate::corpus::all() {
            let printed = normalize(entry.source);
            let reparsed = parse_module(&printed).unwrap();
            crate::typechecker::typecheck(reparsed)
                .unwrap_or_else(|e| panic!("{}: reprint fails typecheck: {e}", entry.name));
        }
    }
}
