//! Type checker for the Scilla subset.
//!
//! Checks library entries, field initialisers, and transition bodies. The
//! checker is monomorphic with explicit polymorphism: `tfun`/`@inst` follow
//! System-F-style substitution (paper §3.1), and constructor type arguments
//! are either explicit (`Some {Uint128} x`) or inferred by one-way matching
//! against the argument types.

use crate::adt::AdtRegistry;
use crate::ast::*;
use crate::builtins::builtin_result_type;
use crate::error::TypeError;
use crate::span::Span;
use crate::types::Type;
use std::collections::HashMap;

/// A successfully checked module, with the derived type information the
/// interpreter and the CoSplit analysis both consume.
#[derive(Debug, Clone)]
pub struct CheckedModule {
    /// The underlying AST.
    pub module: ContractModule,
    /// ADT registry (built-ins + user types).
    pub adts: AdtRegistry,
    /// Types of library `let` definitions, in declaration order.
    pub lib_types: Vec<(String, Type)>,
    /// Types of mutable contract fields.
    pub field_types: HashMap<String, Type>,
}

impl CheckedModule {
    /// The contract definition.
    pub fn contract(&self) -> &Contract {
        &self.module.contract
    }
}

/// Type-checks a parsed module.
///
/// # Errors
///
/// Returns the first [`TypeError`] found.
///
/// # Examples
///
/// ```
/// let src = r#"
///   contract C ()
///   field n : Uint128 = Uint128 0
///   transition Set (v : Uint128)
///     n := v
///   end
/// "#;
/// let module = scilla::parser::parse_module(src).unwrap();
/// let checked = scilla::typechecker::typecheck(module)?;
/// assert_eq!(checked.field_types["n"], scilla::types::Type::Uint(128));
/// # Ok::<(), scilla::error::TypeError>(())
/// ```
pub fn typecheck(module: ContractModule) -> Result<CheckedModule, TypeError> {
    let adts = AdtRegistry::with_library(&module.library)?;
    let mut checker = Checker { adts };

    // Library lets, in order; each sees the previous ones.
    let mut lib_env: TEnv = HashMap::new();
    let mut lib_types = Vec::new();
    for entry in &module.library {
        if let LibEntry::Let { name, ann, body } = entry {
            let ty = checker.check_expr(&lib_env, body)?;
            if let Some(ann) = ann {
                if *ann != ty {
                    return Err(err(
                        name.span,
                        format!("library '{}' annotated as {ann} but has type {ty}", name.name),
                    ));
                }
            }
            lib_env.insert(name.name.clone(), ty.clone());
            lib_types.push((name.name.clone(), ty));
        }
    }

    // Contract parameters.
    let mut contract_env = lib_env.clone();
    for p in &module.contract.params {
        check_no_dup(&contract_env, &p.name)?;
        contract_env.insert(p.name.name.clone(), p.ty.clone());
    }

    // Fields: initialiser types must match declarations, and be storable.
    let mut field_types = HashMap::new();
    for f in &module.contract.fields {
        if !f.ty.is_storable() {
            return Err(err(f.name.span, format!("field '{}' has unstorable type {}", f.name.name, f.ty)));
        }
        let ty = checker.check_expr(&contract_env, &f.init)?;
        if ty != f.ty {
            return Err(err(
                f.name.span,
                format!("field '{}' declared as {} but initialiser has type {ty}", f.name.name, f.ty),
            ));
        }
        if field_types.insert(f.name.name.clone(), f.ty.clone()).is_some() {
            return Err(err(f.name.span, format!("duplicate field '{}'", f.name.name)));
        }
    }

    // Transitions.
    for t in &module.contract.transitions {
        let mut env = contract_env.clone();
        env.insert("_sender".into(), Type::address());
        env.insert("_origin".into(), Type::address());
        env.insert("_amount".into(), Type::Uint(128));
        env.insert("_this_address".into(), Type::address());
        for p in &t.params {
            check_no_dup(&env, &p.name)?;
            env.insert(p.name.name.clone(), p.ty.clone());
        }
        checker.check_stmts(&mut env, &field_types, &t.body)?;
    }

    Ok(CheckedModule { module, adts: checker.adts, lib_types, field_types })
}

type TEnv = HashMap<String, Type>;

fn err(span: Span, message: String) -> TypeError {
    TypeError { span, message }
}

fn check_no_dup(env: &TEnv, name: &Ident) -> Result<(), TypeError> {
    if env.contains_key(&name.name) {
        Err(err(name.span, format!("duplicate binding '{}' shadows an outer one", name.name)))
    } else {
        Ok(())
    }
}

struct Checker {
    adts: AdtRegistry,
}

impl Checker {
    fn lookup(&self, env: &TEnv, id: &Ident) -> Result<Type, TypeError> {
        env.get(&id.name)
            .cloned()
            .ok_or_else(|| err(id.span, format!("unbound identifier '{}'", id.name)))
    }

    fn literal_type(&self, lit: &Literal) -> Type {
        match lit {
            Literal::Int(w, _) => Type::Int(*w),
            Literal::Uint(w, _) => Type::Uint(*w),
            Literal::Str(_) => Type::Str,
            Literal::ByStr(bs) => Type::ByStr(bs.len() as u32),
            Literal::BNum(_) => Type::BNum,
            Literal::EmpMap(k, v) => Type::Map(Box::new(k.clone()), Box::new(v.clone())),
        }
    }

    fn check_expr(&mut self, env: &TEnv, e: &Expr) -> Result<Type, TypeError> {
        match e {
            Expr::Lit(l, _) => Ok(self.literal_type(l)),
            Expr::Var(i) => self.lookup(env, i),
            Expr::Message(entries, span) => {
                let has_kind = entries
                    .iter()
                    .any(|en| matches!(en.key.as_str(), "_tag" | "_eventname" | "_exception"));
                if !has_kind {
                    return Err(err(
                        *span,
                        "message literal needs a '_tag', '_eventname', or '_exception' entry".into(),
                    ));
                }
                for en in entries {
                    if let MsgValue::Var(v) = &en.value {
                        self.lookup(env, v)?;
                    }
                }
                Ok(Type::Message)
            }
            Expr::Constr { name, type_args, args } => {
                let arg_types: Vec<Type> =
                    args.iter().map(|a| self.lookup(env, a)).collect::<Result<_, _>>()?;
                let type_args = if type_args.is_empty() {
                    self.infer_ctor_type_args(&name.name, &arg_types, name.span)?
                } else {
                    type_args.clone()
                };
                let (declared, result) =
                    self.adts.instantiate_ctor(&name.name, &type_args, name.span)?;
                if declared.len() != args.len() {
                    return Err(err(
                        name.span,
                        format!(
                            "constructor '{}' expects {} argument(s), got {}",
                            name.name,
                            declared.len(),
                            args.len()
                        ),
                    ));
                }
                for ((d, a), id) in declared.iter().zip(&arg_types).zip(args) {
                    if d != a {
                        return Err(err(
                            id.span,
                            format!("constructor argument '{}' has type {a}, expected {d}", id.name),
                        ));
                    }
                }
                Ok(result)
            }
            Expr::Builtin { op, args } => {
                let arg_types: Vec<Type> =
                    args.iter().map(|a| self.lookup(env, a)).collect::<Result<_, _>>()?;
                builtin_result_type(&op.name, &arg_types, op.span)
            }
            Expr::Let { bound, ann, rhs, body } => {
                let rhs_ty = self.check_expr(env, rhs)?;
                if let Some(ann) = ann {
                    if *ann != rhs_ty {
                        return Err(err(
                            bound.span,
                            format!("'{}' annotated as {ann} but has type {rhs_ty}", bound.name),
                        ));
                    }
                }
                let mut inner = env.clone();
                inner.insert(bound.name.clone(), rhs_ty);
                self.check_expr(&inner, body)
            }
            Expr::Fun(f) => {
                let FunLit { param, param_type, body } = &**f;
                let mut inner = env.clone();
                inner.insert(param.name.clone(), param_type.clone());
                let body_ty = self.check_expr(&inner, body)?;
                Ok(Type::Fun(Box::new(param_type.clone()), Box::new(body_ty)))
            }
            Expr::App { func, args } => {
                let mut fty = self.lookup(env, func)?;
                for a in args {
                    let aty = self.lookup(env, a)?;
                    match fty {
                        Type::Fun(p, r) => {
                            if *p != aty {
                                return Err(err(
                                    a.span,
                                    format!("argument '{}' has type {aty}, expected {p}", a.name),
                                ));
                            }
                            fty = *r;
                        }
                        other => {
                            return Err(err(
                                func.span,
                                format!("'{}' of type {other} applied to too many arguments", func.name),
                            ))
                        }
                    }
                }
                Ok(fty)
            }
            Expr::Match { scrutinee, clauses, span } => {
                let sty = self.lookup(env, scrutinee)?;
                let pats: Vec<&Pattern> = clauses.iter().map(|(p, _)| p).collect();
                self.check_match_coverage(*span, &pats, &sty)?;
                let mut result: Option<Type> = None;
                for (pat, body) in clauses {
                    let mut inner = env.clone();
                    self.bind_pattern(pat, &sty, &mut inner)?;
                    let bty = self.check_expr(&inner, body)?;
                    match &result {
                        None => result = Some(bty),
                        Some(r) if *r == bty => {}
                        Some(r) => {
                            return Err(err(
                                pat.span(),
                                format!("match clauses disagree: {r} vs {bty}"),
                            ))
                        }
                    }
                }
                result.ok_or_else(|| err(*span, "empty match".into()))
            }
            Expr::TFun(t) => {
                let body_ty = self.check_expr(env, &t.body)?;
                Ok(Type::Forall(t.tvar.clone(), Box::new(body_ty)))
            }
            Expr::Inst { target, type_args } => {
                let mut ty = self.lookup(env, target)?;
                for targ in type_args {
                    match ty {
                        Type::Forall(v, body) => ty = body.subst(&v, targ),
                        other => {
                            return Err(err(
                                target.span,
                                format!("'{}' of type {other} cannot be type-instantiated", target.name),
                            ))
                        }
                    }
                }
                Ok(ty)
            }
        }
    }

    /// Infers the ADT type arguments for a constructor application by
    /// matching declared against actual argument types.
    fn infer_ctor_type_args(
        &self,
        ctor: &str,
        arg_types: &[Type],
        span: Span,
    ) -> Result<Vec<Type>, TypeError> {
        let def = self
            .adts
            .adt_of_ctor(ctor)
            .ok_or_else(|| err(span, format!("unknown constructor '{ctor}'")))?;
        if def.tvars.is_empty() {
            return Ok(vec![]);
        }
        let declared = &def
            .ctors
            .iter()
            .find(|(c, _)| c == ctor)
            .expect("registry consistent")
            .1;
        if declared.len() != arg_types.len() {
            return Err(err(
                span,
                format!("constructor '{ctor}' expects {} argument(s), got {}", declared.len(), arg_types.len()),
            ));
        }
        let mut subst: HashMap<String, Type> = HashMap::new();
        for (d, a) in declared.iter().zip(arg_types) {
            if !match_types(d, a, &mut subst) {
                return Err(err(span, format!("constructor '{ctor}' argument type mismatch: declared {d}, got {a}")));
            }
        }
        def.tvars
            .iter()
            .map(|tv| {
                subst.get(tv).cloned().ok_or_else(|| {
                    err(span, format!("cannot infer type argument '{tv}' for '{ctor}'; annotate with {{…}}"))
                })
            })
            .collect()
    }

    /// Checks a match's clause patterns for exhaustiveness and reachability
    /// (Scilla rejects both gaps and dead clauses).
    ///
    /// Exhaustiveness is accept-biased for nested patterns: each constructor
    /// argument column is checked independently, which can accept a
    /// "diagonal" matrix that is not truly exhaustive — but never rejects an
    /// exhaustive one. Top-level constructor gaps (the common bug) are
    /// always caught.
    fn check_match_coverage(
        &self,
        span: Span,
        patterns: &[&Pattern],
        ty: &Type,
    ) -> Result<(), TypeError> {
        // Reachability: nothing may follow an irrefutable pattern.
        for (i, p) in patterns.iter().enumerate() {
            if matches!(p, Pattern::Wildcard(_) | Pattern::Binder(_)) && i + 1 < patterns.len() {
                return Err(err(
                    patterns[i + 1].span(),
                    "unreachable match clause (an earlier pattern matches everything)".into(),
                ));
            }
        }
        if self.covers(patterns, ty) {
            Ok(())
        } else {
            Err(err(span, format!("match over {ty} is not exhaustive")))
        }
    }

    fn covers(&self, patterns: &[&Pattern], ty: &Type) -> bool {
        if patterns.iter().any(|p| matches!(p, Pattern::Wildcard(_) | Pattern::Binder(_))) {
            return true;
        }
        let Type::Adt(head, targs) = ty else {
            // Integers, strings, … have no finite constructor set: only an
            // irrefutable pattern covers them.
            return false;
        };
        let Some(def) = self.adts.adt(head) else { return false };
        def.ctors.iter().all(|(cname, _)| {
            let rows: Vec<&Pattern> = patterns
                .iter()
                .copied()
                .filter(|p| matches!(p, Pattern::Constructor(c, _) if c.name == *cname))
                .collect();
            if rows.is_empty() {
                return false;
            }
            let Ok((arg_types, _)) = self.adts.instantiate_ctor(cname, targs, Span::dummy())
            else {
                return false;
            };
            // Column-wise (accept-biased) coverage of the sub-patterns.
            (0..arg_types.len()).all(|j| {
                let col: Vec<&Pattern> = rows
                    .iter()
                    .filter_map(|p| match p {
                        Pattern::Constructor(_, subs) => subs.get(j),
                        _ => None,
                    })
                    .collect();
                self.covers(&col, &arg_types[j])
            })
        })
    }

    fn bind_pattern(&self, pat: &Pattern, ty: &Type, env: &mut TEnv) -> Result<(), TypeError> {
        match pat {
            Pattern::Wildcard(_) => Ok(()),
            Pattern::Binder(i) => {
                env.insert(i.name.clone(), ty.clone());
                Ok(())
            }
            Pattern::Constructor(c, subs) => {
                let (head, targs) = match ty {
                    Type::Adt(n, a) => (n.as_str(), a.as_slice()),
                    other => {
                        return Err(err(
                            c.span,
                            format!("cannot match constructor '{}' against non-ADT type {other}", c.name),
                        ))
                    }
                };
                let def = self
                    .adts
                    .adt_of_ctor(&c.name)
                    .ok_or_else(|| err(c.span, format!("unknown constructor '{}'", c.name)))?;
                if def.name != head {
                    return Err(err(
                        c.span,
                        format!("constructor '{}' belongs to '{}', not '{head}'", c.name, def.name),
                    ));
                }
                let (arg_types, _) = self.adts.instantiate_ctor(&c.name, targs, c.span)?;
                if arg_types.len() != subs.len() {
                    return Err(err(
                        c.span,
                        format!("pattern '{}' expects {} sub-pattern(s), got {}", c.name, arg_types.len(), subs.len()),
                    ));
                }
                for (sub, sub_ty) in subs.iter().zip(&arg_types) {
                    self.bind_pattern(sub, sub_ty, env)?;
                }
                Ok(())
            }
        }
    }

    fn check_stmts(
        &mut self,
        env: &mut TEnv,
        fields: &HashMap<String, Type>,
        stmts: &[Stmt],
    ) -> Result<(), TypeError> {
        for s in stmts {
            self.check_stmt(env, fields, s)?;
        }
        Ok(())
    }

    fn field_type<'f>(
        &self,
        fields: &'f HashMap<String, Type>,
        f: &Ident,
    ) -> Result<&'f Type, TypeError> {
        fields
            .get(&f.name)
            .ok_or_else(|| err(f.span, format!("unknown field '{}'", f.name)))
    }

    fn map_value_type(
        &mut self,
        env: &TEnv,
        fields: &HashMap<String, Type>,
        map: &Ident,
        keys: &[Ident],
    ) -> Result<Type, TypeError> {
        let fty = self.field_type(fields, map)?;
        let Some((key_types, value_ty)) = fty.map_access(keys.len()) else {
            return Err(err(
                map.span,
                format!("field '{}' of type {fty} cannot be indexed with {} key(s)", map.name, keys.len()),
            ));
        };
        for (k, kt) in keys.iter().zip(key_types) {
            let actual = self.lookup(env, k)?;
            if actual != *kt {
                return Err(err(k.span, format!("map key '{}' has type {actual}, expected {kt}", k.name)));
            }
        }
        Ok(value_ty.clone())
    }

    fn check_stmt(
        &mut self,
        env: &mut TEnv,
        fields: &HashMap<String, Type>,
        s: &Stmt,
    ) -> Result<(), TypeError> {
        match s {
            Stmt::Load { lhs, field } => {
                let fty = self.field_type(fields, field)?.clone();
                env.insert(lhs.name.clone(), fty);
                Ok(())
            }
            Stmt::Store { field, rhs } => {
                let fty = self.field_type(fields, field)?.clone();
                let rty = self.lookup(env, rhs)?;
                if fty != rty {
                    return Err(err(
                        rhs.span,
                        format!("storing {rty} into field '{}' of type {fty}", field.name),
                    ));
                }
                Ok(())
            }
            Stmt::Bind { lhs, rhs } => {
                let ty = self.check_expr(env, rhs)?;
                env.insert(lhs.name.clone(), ty);
                Ok(())
            }
            Stmt::MapUpdate { map, keys, rhs } => {
                let vty = self.map_value_type(env, fields, map, keys)?;
                let rty = self.lookup(env, rhs)?;
                if vty != rty {
                    return Err(err(
                        rhs.span,
                        format!("updating '{}' entry of type {vty} with value of type {rty}", map.name),
                    ));
                }
                Ok(())
            }
            Stmt::MapGet { lhs, map, keys } => {
                let vty = self.map_value_type(env, fields, map, keys)?;
                env.insert(lhs.name.clone(), Type::option(vty));
                Ok(())
            }
            Stmt::MapExists { lhs, map, keys } => {
                self.map_value_type(env, fields, map, keys)?;
                env.insert(lhs.name.clone(), Type::bool());
                Ok(())
            }
            Stmt::MapDelete { map, keys } => {
                self.map_value_type(env, fields, map, keys)?;
                Ok(())
            }
            Stmt::ReadBlockchain { lhs, query } => {
                if query.name != "BLOCKNUMBER" {
                    return Err(err(query.span, format!("unknown blockchain query '{}'", query.name)));
                }
                env.insert(lhs.name.clone(), Type::BNum);
                Ok(())
            }
            Stmt::Match { scrutinee, clauses, span } => {
                let sty = self.lookup(env, scrutinee)?;
                let pats: Vec<&Pattern> = clauses.iter().map(|(p, _)| p).collect();
                self.check_match_coverage(*span, &pats, &sty)?;
                for (pat, body) in clauses {
                    let mut inner = env.clone();
                    self.bind_pattern(pat, &sty, &mut inner)?;
                    self.check_stmts(&mut inner, fields, body)?;
                }
                Ok(())
            }
            Stmt::Accept(_) => Ok(()),
            Stmt::Send { msgs } => {
                let ty = self.lookup(env, msgs)?;
                if ty != Type::Message && ty != Type::list(Type::Message) {
                    return Err(err(
                        msgs.span,
                        format!("send expects Message or List Message, got {ty}"),
                    ));
                }
                Ok(())
            }
            Stmt::Event { event } => {
                let ty = self.lookup(env, event)?;
                if ty != Type::Message {
                    return Err(err(event.span, format!("event expects Message, got {ty}")));
                }
                Ok(())
            }
            Stmt::Throw { exception, .. } => {
                if let Some(e) = exception {
                    self.lookup(env, e)?;
                }
                Ok(())
            }
        }
    }
}

/// One-way type matching: fills `subst` for type variables occurring in
/// `declared` so that `declared[subst] == actual`.
fn match_types(declared: &Type, actual: &Type, subst: &mut HashMap<String, Type>) -> bool {
    match (declared, actual) {
        (Type::TypeVar(v), a) => match subst.get(v) {
            Some(t) => t == a,
            None => {
                subst.insert(v.clone(), a.clone());
                true
            }
        },
        (Type::Map(k1, v1), Type::Map(k2, v2)) => {
            match_types(k1, k2, subst) && match_types(v1, v2, subst)
        }
        (Type::Fun(a1, b1), Type::Fun(a2, b2)) => {
            match_types(a1, a2, subst) && match_types(b1, b2, subst)
        }
        (Type::Adt(n1, a1), Type::Adt(n2, a2)) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(d, a)| match_types(d, a, subst))
        }
        (d, a) => d == a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn check(src: &str) -> Result<CheckedModule, TypeError> {
        typecheck(parse_module(src).unwrap())
    }

    #[test]
    fn accepts_transfer_contract() {
        let src = r#"
            contract Token (owner : ByStr20)
            field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition Transfer (to : ByStr20, amount : Uint128)
              bal_opt <- balances[_sender];
              match bal_opt with
              | Some bal =>
                ok = builtin le amount bal;
                match ok with
                | True =>
                  new_bal = builtin sub bal amount;
                  balances[_sender] := new_bal
                | False =>
                end
              | None =>
              end
            end
        "#;
        let m = check(src).unwrap();
        assert_eq!(
            m.field_types["balances"],
            Type::Map(Box::new(Type::address()), Box::new(Type::Uint(128)))
        );
    }

    #[test]
    fn rejects_width_mismatch() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (v : Uint64)
              n := v
            end
        "#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("storing"), "{}", e.message);
    }

    #[test]
    fn rejects_unknown_field() {
        let src = r#"
            contract C ()
            transition T (v : Uint128)
              missing := v
            end
        "#;
        assert!(check(src).is_err());
    }

    #[test]
    fn rejects_bad_map_key_type() {
        let src = r#"
            contract C ()
            field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition T (k : String, v : Uint128)
              m[k] := v
            end
        "#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("map key"), "{}", e.message);
    }

    #[test]
    fn map_get_produces_option() {
        let src = r#"
            contract C ()
            field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition T (k : ByStr20)
              v_opt <- m[k];
              match v_opt with
              | Some v => m[k] := v
              | None =>
              end
            end
        "#;
        check(src).unwrap();
    }

    #[test]
    fn library_functions_apply() {
        let src = r#"
            library L
            let one = Uint128 1
            let incr = fun (x : Uint128) => builtin add x one
            contract C ()
            field n : Uint128 = Uint128 0
            transition T ()
              c <- n;
              c2 = incr c;
              n := c2
            end
        "#;
        let m = check(src).unwrap();
        assert_eq!(m.lib_types[1].1, Type::Fun(Box::new(Type::Uint(128)), Box::new(Type::Uint(128))));
    }

    #[test]
    fn polymorphic_identity_via_tfun() {
        let src = r#"
            library L
            let tid = tfun 'A => fun (x : 'A) => x
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (v : Uint128)
              idu = @tid Uint128;
              v2 = idu v;
              n := v2
            end
        "#;
        check(src).unwrap();
    }

    #[test]
    fn match_clauses_must_agree() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (b : Bool)
              x = match b with
                | True => Uint128 1
                | False => "no"
                end;
              n := x
            end
        "#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("disagree"), "{}", e.message);
    }

    #[test]
    fn ctor_inference_from_args() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (v : Uint128)
              o = Some v;
              match o with
              | Some x => n := x
              | None =>
              end
            end
        "#;
        check(src).unwrap();
    }

    #[test]
    fn nullary_ctor_needs_annotation() {
        let src = r#"
            contract C ()
            transition T ()
              o = None
            end
        "#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("annotate"), "{}", e.message);
    }

    #[test]
    fn send_requires_message_list_or_message() {
        let src = r#"
            contract C ()
            transition T (to : ByStr20)
              zero = Uint128 0;
              m = {_tag : "Hi"; _recipient : to; _amount : zero};
              send m
            end
        "#;
        check(src).unwrap();

        let bad = r#"
            contract C ()
            transition T ()
              x = Uint128 1;
              send x
            end
        "#;
        assert!(check(bad).is_err());
    }

    #[test]
    fn user_adts_check() {
        let src = r#"
            library L
            type Status =
              | Open
              | Closed of Uint128
            contract C ()
            field s : Status = Open
            transition T (v : Uint128)
              c = Closed v;
              s := c
            end
        "#;
        check(src).unwrap();
    }

    #[test]
    fn non_exhaustive_match_is_rejected() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (o : Option Uint128)
              match o with
              | Some v => n := v
              end
            end
        "#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("not exhaustive"), "{}", e.message);
    }

    #[test]
    fn nested_constructor_gap_is_caught() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (o : Option Bool)
              x = match o with
                | Some True => Uint128 1
                | None => Uint128 0
                end;
              n := x
            end
        "#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("not exhaustive"), "{}", e.message);
    }

    #[test]
    fn unreachable_clause_is_rejected() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (o : Option Uint128)
              x = match o with
                | _ => Uint128 0
                | Some v => v
                end;
              n := x
            end
        "#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("unreachable"), "{}", e.message);
    }

    #[test]
    fn wildcard_completes_any_match() {
        let src = r#"
            contract C ()
            field n : Uint128 = Uint128 0
            transition T (o : Option Uint128)
              x = match o with
                | Some v => v
                | _ => Uint128 0
                end;
              n := x
            end
        "#;
        check(src).unwrap();
    }

    #[test]
    fn match_over_integers_needs_a_binder() {
        let src = r#"
            contract C ()
            transition T (v : Uint128)
              match v with
              | w => accept
              end
            end
        "#;
        check(src).unwrap();
    }

    #[test]
    fn field_initialiser_type_must_match() {
        let src = r#"
            contract C ()
            field n : Uint128 = "hello"
        "#;
        assert!(check(src).is_err());
    }
}
