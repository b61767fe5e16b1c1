//! Recursive-descent parser for the Scilla subset.
//!
//! The grammar follows paper Fig. 4. The language is kept in administrative
//! normal form: arguments of applications, builtins, and constructors are
//! identifiers, so the statement → effect translation in the analysis stays
//! direct.

use crate::ast::*;
use crate::error::ParseError;
use crate::intern::intern;
use crate::lexer::{lex, Tok, Token};
use crate::span::Span;
use crate::types::Type;
use std::sync::Arc;

/// Parses a full contract module (optional `library` section + `contract`).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
///
/// # Examples
///
/// ```
/// let src = r#"
///   contract Counter ()
///   field count : Uint128 = Uint128 0
///   transition Incr ()
///     one = Uint128 1;
///     c <- count;
///     c2 = builtin add c one;
///     count := c2
///   end
/// "#;
/// let module = scilla::parser::parse_module(src)?;
/// assert_eq!(module.contract.name.name, "Counter");
/// assert_eq!(module.contract.transitions.len(), 1);
/// # Ok::<(), scilla::error::ParseError>(())
/// ```
pub fn parse_module(src: &str) -> Result<ContractModule, ParseError> {
    let tokens = lex(src)?;
    Parser::new(tokens).module()
}

/// Parses a standalone expression (useful for tests and the REPL-style examples).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    fn span(&self) -> Span {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.span)
            .unwrap_or_else(Span::dummy)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { span: self.span(), message: msg.into() }
    }

    fn expect(&mut self, tok: Tok) -> Result<Span, ParseError> {
        match self.peek() {
            Some(t) if *t == tok => Ok(self.bump().expect("peeked").span),
            Some(t) => Err(self.err(format!("expected '{tok}', found '{t}'"))),
            None => Err(self.err(format!("expected '{tok}', found end of input"))),
        }
    }

    fn accept(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("unexpected trailing tokens"))
        }
    }

    /// Any identifier usable in value position: lower-case or special (`_sender`).
    fn value_ident(&mut self) -> Result<Ident, ParseError> {
        match self.peek().cloned() {
            Some(Tok::LIdent(name)) | Some(Tok::SpecialIdent(name)) => {
                let span = self.bump().expect("peeked").span;
                Ok(Ident::spanned(name, span))
            }
            other => Err(self.err(format!(
                "expected identifier, found '{}'",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn cident(&mut self) -> Result<Ident, ParseError> {
        match self.peek().cloned() {
            Some(Tok::CIdent(name)) => {
                let span = self.bump().expect("peeked").span;
                Ok(Ident::spanned(name, span))
            }
            other => Err(self.err(format!(
                "expected capitalised identifier, found '{}'",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    // ---------------------------------------------------------------- types

    fn type_atom(&mut self) -> Result<Type, ParseError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.bump();
                let t = self.type_expr()?;
                self.expect(Tok::RParen)?;
                Ok(t)
            }
            Some(Tok::TypeVar(v)) => {
                self.bump();
                Ok(Type::TypeVar(v))
            }
            Some(Tok::CIdent(name)) => {
                self.bump();
                Ok(named_nullary_type(&name))
            }
            other => Err(self.err(format!(
                "expected type, found '{}'",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn type_app(&mut self) -> Result<Type, ParseError> {
        match self.peek().cloned() {
            Some(Tok::CIdent(name)) => {
                self.bump();
                if name == "Map" {
                    let k = self.type_atom()?;
                    let v = self.type_atom()?;
                    return Ok(Type::Map(Box::new(k), Box::new(v)));
                }
                let base = named_nullary_type(&name);
                // Only ADT heads take type arguments.
                if let Type::Adt(head, _) = &base {
                    let mut args = Vec::new();
                    while self.type_arg_starts() {
                        args.push(self.type_atom()?);
                    }
                    if !args.is_empty() {
                        return Ok(Type::Adt(head.clone(), args));
                    }
                }
                Ok(base)
            }
            _ => self.type_atom(),
        }
    }

    fn type_arg_starts(&self) -> bool {
        matches!(self.peek(), Some(Tok::CIdent(_)) | Some(Tok::LParen) | Some(Tok::TypeVar(_)))
    }

    fn type_expr(&mut self) -> Result<Type, ParseError> {
        let lhs = self.type_app()?;
        if self.accept(&Tok::ThinArrow) {
            let rhs = self.type_expr()?;
            Ok(Type::Fun(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    // ------------------------------------------------------------- patterns

    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        match self.peek().cloned() {
            Some(Tok::CIdent(_)) => {
                let ctor = self.cident()?;
                let mut subs = Vec::new();
                while self.pattern_atom_starts() {
                    subs.push(self.pattern_atom()?);
                }
                Ok(Pattern::Constructor(ctor, subs))
            }
            _ => self.pattern_atom(),
        }
    }

    fn pattern_atom_starts(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Underscore) | Some(Tok::LIdent(_)) | Some(Tok::CIdent(_)) | Some(Tok::LParen)
        )
    }

    fn pattern_atom(&mut self) -> Result<Pattern, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Underscore) => {
                let span = self.bump().expect("peeked").span;
                Ok(Pattern::Wildcard(span))
            }
            Some(Tok::LIdent(name)) => {
                let span = self.bump().expect("peeked").span;
                Ok(Pattern::Binder(Ident::spanned(name, span)))
            }
            Some(Tok::CIdent(_)) => {
                let c = self.cident()?;
                Ok(Pattern::Constructor(c, vec![]))
            }
            Some(Tok::LParen) => {
                self.bump();
                let p = self.pattern()?;
                self.expect(Tok::RParen)?;
                Ok(p)
            }
            other => Err(self.err(format!(
                "expected pattern, found '{}'",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Let) => {
                self.bump();
                let bound = self.value_ident()?;
                let ann = if self.accept(&Tok::Colon) { Some(self.type_expr()?) } else { None };
                self.expect(Tok::Eq)?;
                let rhs = self.expr()?;
                self.expect(Tok::In)?;
                let body = self.expr()?;
                Ok(Expr::Let { bound, ann, rhs: Box::new(rhs), body: Box::new(body) })
            }
            Some(Tok::Fun) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let param = self.value_ident()?;
                self.expect(Tok::Colon)?;
                let param_type = self.type_expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::FatArrow)?;
                let body = self.expr()?;
                Ok(Expr::Fun(Arc::new(FunLit { param, param_type, body })))
            }
            Some(Tok::TFun) => {
                let span = self.span();
                self.bump();
                let tvar = match self.peek().cloned() {
                    Some(Tok::TypeVar(v)) => {
                        self.bump();
                        v
                    }
                    _ => return Err(self.err("expected type variable after 'tfun'")),
                };
                self.expect(Tok::FatArrow)?;
                let body = self.expr()?;
                Ok(Expr::TFun(Arc::new(TFunLit { tvar, body, span })))
            }
            Some(Tok::At) => {
                self.bump();
                let target = self.value_ident()?;
                let mut type_args = Vec::new();
                while self.type_arg_starts() {
                    type_args.push(self.type_atom()?);
                }
                if type_args.is_empty() {
                    return Err(self.err("expected at least one type argument after '@ident'"));
                }
                Ok(Expr::Inst { target, type_args })
            }
            Some(Tok::Builtin) => {
                self.bump();
                let op = self.value_ident()?;
                let mut args = Vec::new();
                while matches!(self.peek(), Some(Tok::LIdent(_)) | Some(Tok::SpecialIdent(_))) {
                    args.push(self.value_ident()?);
                }
                if args.is_empty() {
                    return Err(self.err("builtin application needs at least one argument"));
                }
                Ok(Expr::Builtin { op, args })
            }
            Some(Tok::Match) => {
                let span = self.span();
                self.bump();
                let scrutinee = self.value_ident()?;
                self.expect(Tok::With)?;
                let mut clauses = Vec::new();
                while self.accept(&Tok::Bar) {
                    let pat = self.pattern()?;
                    self.expect(Tok::FatArrow)?;
                    let body = self.expr()?;
                    clauses.push((pat, body));
                }
                self.expect(Tok::End)?;
                if clauses.is_empty() {
                    return Err(self.err("match expression needs at least one clause"));
                }
                Ok(Expr::Match { scrutinee, clauses, span })
            }
            Some(Tok::LBrace) => self.message_literal(),
            Some(Tok::Emp) => {
                let span = self.span();
                self.bump();
                let k = self.type_atom()?;
                let v = self.type_atom()?;
                Ok(Expr::Lit(Literal::EmpMap(k, v), span))
            }
            Some(Tok::StrLit(s)) => {
                let span = self.bump().expect("peeked").span;
                Ok(Expr::Lit(Literal::Str(s), span))
            }
            Some(Tok::HexLit(bs)) => {
                let span = self.bump().expect("peeked").span;
                Ok(Expr::Lit(Literal::ByStr(bs), span))
            }
            Some(Tok::CIdent(name)) => self.constr_or_literal(&name),
            Some(Tok::LIdent(_)) | Some(Tok::SpecialIdent(_)) => {
                let head = self.value_ident()?;
                let mut args = Vec::new();
                while matches!(self.peek(), Some(Tok::LIdent(_)) | Some(Tok::SpecialIdent(_))) {
                    args.push(self.value_ident()?);
                }
                if args.is_empty() {
                    Ok(Expr::Var(head))
                } else {
                    Ok(Expr::App { func: head, args })
                }
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!(
                "expected expression, found '{}'",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    /// `Uint128 10`, `BNum 4`, or a constructor application `Some {T} x`.
    fn constr_or_literal(&mut self, head: &str) -> Result<Expr, ParseError> {
        let span = self.span();
        if let Some(lit_width) = int_type_width(head) {
            if let Some(Tok::IntLit(_)) = self.peek2() {
                self.bump(); // type name
                let Some(Token { tok: Tok::IntLit(n), .. }) = self.bump() else { unreachable!() };
                let lit = if head.starts_with("Uint") {
                    if n < 0 {
                        return Err(self.err("unsigned literal cannot be negative"));
                    }
                    Literal::Uint(lit_width, n as u128)
                } else {
                    Literal::Int(lit_width, n)
                };
                return Ok(Expr::Lit(lit, span));
            }
        }
        if head == "BNum" {
            if let Some(Tok::IntLit(_)) = self.peek2() {
                self.bump();
                let Some(Token { tok: Tok::IntLit(n), .. }) = self.bump() else { unreachable!() };
                if n < 0 {
                    return Err(self.err("block number cannot be negative"));
                }
                return Ok(Expr::Lit(Literal::BNum(n as u64), span));
            }
        }
        let name = self.cident()?;
        let mut type_args = Vec::new();
        if self.accept(&Tok::LBrace) {
            while !self.accept(&Tok::RBrace) {
                type_args.push(self.type_atom()?);
            }
        }
        let mut args = Vec::new();
        while matches!(self.peek(), Some(Tok::LIdent(_)) | Some(Tok::SpecialIdent(_))) {
            args.push(self.value_ident()?);
        }
        Ok(Expr::Constr { name, type_args, args })
    }

    fn message_literal(&mut self) -> Result<Expr, ParseError> {
        let span = self.expect(Tok::LBrace)?;
        let mut entries = Vec::new();
        loop {
            let key = match self.peek().cloned() {
                Some(Tok::LIdent(k)) | Some(Tok::SpecialIdent(k)) => {
                    self.bump();
                    k
                }
                _ => return Err(self.err("expected message entry key")),
            };
            self.expect(Tok::Colon)?;
            let value = match self.peek().cloned() {
                Some(Tok::StrLit(s)) => {
                    self.bump();
                    MsgValue::Lit(Literal::Str(s))
                }
                Some(Tok::HexLit(bs)) => {
                    self.bump();
                    MsgValue::Lit(Literal::ByStr(bs))
                }
                Some(Tok::CIdent(name)) => {
                    if let Some(w) = int_type_width(&name) {
                        self.bump();
                        match self.bump() {
                            Some(Token { tok: Tok::IntLit(n), .. }) => {
                                if name.starts_with("Uint") {
                                    MsgValue::Lit(Literal::Uint(w, n as u128))
                                } else {
                                    MsgValue::Lit(Literal::Int(w, n))
                                }
                            }
                            _ => return Err(self.err("expected integer after type name")),
                        }
                    } else {
                        return Err(self.err("expected message entry value"));
                    }
                }
                Some(Tok::LIdent(_)) | Some(Tok::SpecialIdent(_)) => MsgValue::Var(self.value_ident()?),
                _ => return Err(self.err("expected message entry value")),
            };
            entries.push(MsgEntry { key: intern(&key), value });
            if !self.accept(&Tok::Semi) {
                break;
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(Expr::Message(entries, span.merge(end)))
    }

    // ----------------------------------------------------------- statements

    fn map_keys(&mut self) -> Result<Vec<Ident>, ParseError> {
        let mut keys = Vec::new();
        while self.accept(&Tok::LBracket) {
            keys.push(self.value_ident()?);
            self.expect(Tok::RBracket)?;
        }
        Ok(keys)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Accept) => {
                let span = self.bump().expect("peeked").span;
                Ok(Stmt::Accept(span))
            }
            Some(Tok::Send) => {
                self.bump();
                let msgs = self.value_ident()?;
                Ok(Stmt::Send { msgs })
            }
            Some(Tok::Event) => {
                self.bump();
                let event = self.value_ident()?;
                Ok(Stmt::Event { event })
            }
            Some(Tok::Throw) => {
                let span = self.bump().expect("peeked").span;
                let exception = if matches!(self.peek(), Some(Tok::LIdent(_))) {
                    Some(self.value_ident()?)
                } else {
                    None
                };
                Ok(Stmt::Throw { exception, span })
            }
            Some(Tok::Delete) => {
                self.bump();
                let map = self.value_ident()?;
                let keys = self.map_keys()?;
                if keys.is_empty() {
                    return Err(self.err("'delete' requires at least one map key"));
                }
                Ok(Stmt::MapDelete { map, keys })
            }
            Some(Tok::Match) => {
                let span = self.span();
                self.bump();
                let scrutinee = self.value_ident()?;
                self.expect(Tok::With)?;
                let mut clauses = Vec::new();
                while self.accept(&Tok::Bar) {
                    let pat = self.pattern()?;
                    self.expect(Tok::FatArrow)?;
                    let body = if matches!(self.peek(), Some(Tok::Bar) | Some(Tok::End)) {
                        Vec::new()
                    } else {
                        self.stmts()?
                    };
                    clauses.push((pat, body));
                }
                self.expect(Tok::End)?;
                if clauses.is_empty() {
                    return Err(self.err("match statement needs at least one clause"));
                }
                Ok(Stmt::Match { scrutinee, clauses, span })
            }
            Some(Tok::LIdent(_)) | Some(Tok::SpecialIdent(_)) => {
                let first = self.value_ident()?;
                match self.peek() {
                    Some(Tok::LeftArrow) => {
                        self.bump();
                        match self.peek().cloned() {
                            Some(Tok::Amp) => {
                                self.bump();
                                let query = self.cident()?;
                                Ok(Stmt::ReadBlockchain { lhs: first, query })
                            }
                            Some(Tok::Exists) => {
                                self.bump();
                                let map = self.value_ident()?;
                                let keys = self.map_keys()?;
                                if keys.is_empty() {
                                    return Err(self.err("'exists' requires at least one map key"));
                                }
                                Ok(Stmt::MapExists { lhs: first, map, keys })
                            }
                            Some(Tok::LIdent(_)) | Some(Tok::SpecialIdent(_)) => {
                                let source = self.value_ident()?;
                                let keys = self.map_keys()?;
                                if keys.is_empty() {
                                    Ok(Stmt::Load { lhs: first, field: source })
                                } else {
                                    Ok(Stmt::MapGet { lhs: first, map: source, keys })
                                }
                            }
                            _ => Err(self.err("expected field, map access, '&', or 'exists' after '<-'")),
                        }
                    }
                    Some(Tok::Assign) => {
                        self.bump();
                        let rhs = self.value_ident()?;
                        Ok(Stmt::Store { field: first, rhs })
                    }
                    Some(Tok::LBracket) => {
                        let keys = self.map_keys()?;
                        self.expect(Tok::Assign)?;
                        let rhs = self.value_ident()?;
                        Ok(Stmt::MapUpdate { map: first, keys, rhs })
                    }
                    Some(Tok::Eq) => {
                        self.bump();
                        let rhs = self.expr()?;
                        Ok(Stmt::Bind { lhs: first, rhs })
                    }
                    _ => Err(self.err("expected '<-', ':=', '[', or '=' after identifier")),
                }
            }
            other => Err(self.err(format!(
                "expected statement, found '{}'",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = vec![self.stmt()?];
        while self.accept(&Tok::Semi) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    // -------------------------------------------------------- declarations

    fn params(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.accept(&Tok::RParen) {
            return Ok(params);
        }
        loop {
            let name = self.value_ident()?;
            self.expect(Tok::Colon)?;
            let ty = self.type_expr()?;
            params.push(Param { name, ty });
            if !self.accept(&Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(params)
    }

    fn library_section(&mut self) -> Result<(Option<Ident>, Vec<LibEntry>), ParseError> {
        if !self.accept(&Tok::Library) {
            return Ok((None, Vec::new()));
        }
        let name = self.cident()?;
        let mut entries = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Let) => {
                    self.bump();
                    let name = self.value_ident()?;
                    let ann = if self.accept(&Tok::Colon) { Some(self.type_expr()?) } else { None };
                    self.expect(Tok::Eq)?;
                    let body = self.expr()?;
                    entries.push(LibEntry::Let { name, ann, body });
                }
                Some(Tok::Type) => {
                    self.bump();
                    let name = self.cident()?;
                    self.expect(Tok::Eq)?;
                    let mut ctors = Vec::new();
                    while self.accept(&Tok::Bar) {
                        let cname = self.cident()?;
                        let mut arg_types = Vec::new();
                        if self.accept(&Tok::Of) {
                            arg_types.push(self.type_atom()?);
                            while self.type_arg_starts() {
                                arg_types.push(self.type_atom()?);
                            }
                        }
                        ctors.push(CtorDef { name: cname, arg_types });
                    }
                    if ctors.is_empty() {
                        return Err(self.err("type declaration needs at least one constructor"));
                    }
                    entries.push(LibEntry::TypeDef { name, ctors });
                }
                _ => break,
            }
        }
        Ok((Some(name), entries))
    }

    fn module(&mut self) -> Result<ContractModule, ParseError> {
        let (library_name, library) = self.library_section()?;
        self.expect(Tok::Contract)?;
        let name = self.cident()?;
        let params = self.params()?;
        let mut fields = Vec::new();
        while self.accept(&Tok::Field) {
            let fname = self.value_ident()?;
            self.expect(Tok::Colon)?;
            let ty = self.type_expr()?;
            self.expect(Tok::Eq)?;
            let init = self.expr()?;
            fields.push(FieldDef { name: fname, ty, init });
        }
        let mut transitions = Vec::new();
        while self.accept(&Tok::Transition) {
            let tname = self.cident()?;
            let tparams = self.params()?;
            let body = if self.peek() == Some(&Tok::End) { Vec::new() } else { self.stmts()? };
            self.expect(Tok::End)?;
            transitions.push(Transition { name: tname, params: tparams, body });
        }
        self.expect_eof()?;
        Ok(ContractModule { library_name, library, contract: Contract { name, params, fields, transitions } })
    }
}

fn int_type_width(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("Uint").or_else(|| name.strip_prefix("Int"))?;
    match digits {
        "32" => Some(32),
        "64" => Some(64),
        "128" => Some(128),
        "256" => Some(256),
        _ => None,
    }
}

fn named_nullary_type(name: &str) -> Type {
    if let Some(w) = int_type_width(name) {
        return if name.starts_with("Uint") { Type::Uint(w) } else { Type::Int(w) };
    }
    if let Some(rest) = name.strip_prefix("ByStr") {
        if let Ok(w) = rest.parse::<u32>() {
            return Type::ByStr(w);
        }
    }
    match name {
        "String" => Type::Str,
        "BNum" => Type::BNum,
        "Message" => Type::Message,
        other => Type::Adt(other.to_string(), vec![]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_transfer_transition() {
        let src = r#"
            contract Token (owner : ByStr20)
            field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
            transition Transfer (to : ByStr20, amount : Uint128)
              bal_opt <- balances[_sender];
              match bal_opt with
              | Some bal =>
                new_bal = builtin sub bal amount;
                balances[_sender] := new_bal;
                to_bal_opt <- balances[to];
                new_to = match to_bal_opt with
                  | Some b => builtin add b amount
                  | None => amount
                  end;
                balances[to] := new_to
              | None => throw
              end
            end
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.contract.name.name, "Token");
        assert_eq!(m.contract.fields.len(), 1);
        let t = m.contract.transition("Transfer").unwrap();
        assert_eq!(t.params.len(), 2);
        assert!(matches!(t.body[0], Stmt::MapGet { .. }));
        assert!(matches!(t.body[1], Stmt::Match { .. }));
    }

    #[test]
    fn parses_library_functions_and_adts() {
        let src = r#"
            library Lib
            let one = Uint128 1
            let incr = fun (x : Uint128) => builtin add x one
            type Order =
              | Buy of Uint128
              | Sell of Uint128 ByStr20
            contract C ()
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.library_name.as_ref().unwrap().name, "Lib");
        assert_eq!(m.library.len(), 3);
        match &m.library[2] {
            LibEntry::TypeDef { name, ctors } => {
                assert_eq!(name.name, "Order");
                assert_eq!(ctors.len(), 2);
                assert_eq!(ctors[1].arg_types.len(), 2);
            }
            other => panic!("expected type def, got {other:?}"),
        }
    }

    #[test]
    fn parses_messages_and_send() {
        let src = r#"
            contract C ()
            transition Notify (to : ByStr20)
              zero = Uint128 0;
              msg = {_tag : "Accepted"; _recipient : to; _amount : zero; note : to};
              msgs = one_msg msg;
              send msgs
            end
        "#;
        let m = parse_module(src).unwrap();
        let t = &m.contract.transitions[0];
        match &t.body[1] {
            Stmt::Bind { rhs: Expr::Message(entries, _), .. } => {
                assert_eq!(entries.len(), 4);
                assert_eq!(entries[0].key, "_tag");
            }
            other => panic!("expected message bind, got {other:?}"),
        }
        assert!(matches!(t.body.last(), Some(Stmt::Send { .. })));
    }

    #[test]
    fn parses_nested_map_ops() {
        let src = r#"
            contract C ()
            field allowances : Map ByStr20 (Map ByStr20 Uint128) = Emp ByStr20 (Map ByStr20 Uint128)
            transition T (a : ByStr20, b : ByStr20, v : Uint128)
              allowances[a][b] := v;
              x <- allowances[a][b];
              ok <- exists allowances[a][b];
              delete allowances[a][b]
            end
        "#;
        let m = parse_module(src).unwrap();
        let body = &m.contract.transitions[0].body;
        assert!(matches!(&body[0], Stmt::MapUpdate { keys, .. } if keys.len() == 2));
        assert!(matches!(&body[1], Stmt::MapGet { keys, .. } if keys.len() == 2));
        assert!(matches!(&body[2], Stmt::MapExists { keys, .. } if keys.len() == 2));
        assert!(matches!(&body[3], Stmt::MapDelete { keys, .. } if keys.len() == 2));
    }

    #[test]
    fn parses_tfun_and_inst() {
        let e = parse_expr("tfun 'A => fun (x : 'A) => x").unwrap();
        assert!(matches!(e, Expr::TFun { .. }));
        let e = parse_expr("@id Uint128").unwrap();
        assert!(matches!(e, Expr::Inst { type_args, .. } if type_args.len() == 1));
    }

    #[test]
    fn parses_blockchain_read_and_accept() {
        let src = r#"
            contract C ()
            field deadline : BNum = BNum 100
            transition T ()
              accept;
              blk <- & BLOCKNUMBER;
              deadline := blk
            end
        "#;
        let m = parse_module(src).unwrap();
        let body = &m.contract.transitions[0].body;
        assert!(matches!(body[0], Stmt::Accept(_)));
        assert!(matches!(&body[1], Stmt::ReadBlockchain { query, .. } if query.name == "BLOCKNUMBER"));
    }

    #[test]
    fn rejects_compound_args() {
        // ANF: applications take identifiers only.
        assert!(parse_expr("f (g x)").is_err());
    }

    #[test]
    fn error_spans_point_to_problem() {
        let err = parse_module("contract c ()").unwrap_err();
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn empty_transition_body_allowed() {
        let m = parse_module("contract C () transition Nop () end").unwrap();
        assert!(m.contract.transitions[0].body.is_empty());
    }

    #[test]
    fn constructor_with_type_args() {
        let e = parse_expr("Some {Uint128} x").unwrap();
        match e {
            Expr::Constr { name, type_args, args } => {
                assert_eq!(name.name, "Some");
                assert_eq!(type_args, vec![Type::Uint(128)]);
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected constructor, got {other:?}"),
        }
    }
}
