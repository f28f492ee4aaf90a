//! Recursive-descent parser for the Serena DDL and algebra language.
//!
//! An algebra expression is parsed straight into core's [`Plan`] and
//! [`Formula`], through the same builder calls a programmatic plan uses:
//! there is no second tree between the text and the executor.
//!
//! Grammar summary (keywords case-insensitive):
//!
//! ```text
//! program    := statement* ;
//! statement  := prototype | service | xrelation | insert | delete | drop
//!             | register | unregister | execute ;
//! prototype  := PROTOTYPE name '(' params? ')' ':' '(' params ')' ACTIVE? ';'
//! service    := SERVICE name IMPLEMENTS name (',' name)* ';'
//! xrelation  := EXTENDED RELATION name '(' attr (',' attr)* ')'
//!               (USING BINDING PATTERNS '(' binding (',' binding)* ')')?
//!               STREAM? ';'
//! binding    := name '[' name ']' ('(' names? ')' (':' '(' names? ')')?)?
//! insert     := INSERT INTO name VALUES tuple (',' tuple)* ';'
//! delete     := DELETE FROM name VALUES tuple (',' tuple)* ';'
//! drop       := DROP RELATION name ';'
//! register   := REGISTER QUERY name AS expr ';'
//! unregister := UNREGISTER QUERY name ';'
//! execute    := EXECUTE expr ';'
//! expr       := SELECT '[' formula ']' '(' expr ')'
//!             | PROJECT '[' names ']' '(' expr ')'
//!             | RENAME '[' name '->' name ']' '(' expr ')'
//!             | JOIN/UNION/INTERSECT/DIFFERENCE '(' expr ',' expr ')'
//!             | ASSIGN '[' name ':=' (literal | name) ']' '(' expr ')'
//!             | INVOKE '[' name '[' name ']' ']' '(' expr ')'
//!             | AGGREGATE '[' names? ';' agg (',' agg)* ']' '(' expr ')'
//!             | WINDOW '[' int ']' '(' expr ')'
//!             | STREAM '[' kind ']' '(' expr ')'
//!             | SAMPLE '[' name '[' name ']' ',' int ']' '(' expr ')'
//!             | '(' expr ')' | name
//! formula    := or ; or := and (OR and)* ; and := not (AND not)* ;
//! not        := NOT not | TRUE | FALSE | '(' formula ')' | term cmp term
//! ```

use serena_core::formula::{CmpOp, Expr, Formula};
use serena_core::ops::{AggFun, AggSpec, AssignSource};
use serena_core::plan::{Plan, StreamKind};
use serena_core::value::{DataType, Value};

use crate::ast::*;
use crate::lexer::{lex, Spanned, Token};

/// Parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// Line (0 = end of input).
    pub line: usize,
    /// Column.
    pub col: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "parse error at end of input: {}", self.message)
        } else {
            write!(
                f,
                "parse error at {}:{}: {}",
                self.line, self.col, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a whole program (a `;`-separated statement list).
pub fn parse_program(input: &str) -> Result<Vec<Statement>, ParseError> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(p.statement()?);
    }
    Ok(out)
}

/// Parse a single algebra expression (no trailing `;` required).
pub fn parse_query(input: &str) -> Result<Plan, ParseError> {
    let mut p = Parser::new(input)?;
    let plan = p.expr()?;
    if !p.at_end() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(plan)
}

/// Bound on the depth of the tree one statement parses into: operator and
/// formula nesting, parentheses, and the left-deep spine an `AND` / `OR`
/// chain grows, alike. The parser and every walk behind it (schema
/// derivation, the optimizer, compilation, `Drop`) recurse once per level,
/// and a debug build spends up to 18 KiB of stack on one: this many levels
/// — twice over, for a `SELECT` whose conjuncts lower to σ levels above
/// formulas of their own — hold on a 2 MiB thread stack.
pub(crate) const MAX_DEPTH: usize = 48;

/// The token cursor both front ends parse from ([`crate::sql`] reads its
/// clauses with the same methods).
pub(crate) struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Levels open above the production being parsed: [`Parser::nested`]
    /// frames, plus the SQL items [`Parser::deepen`] counted.
    depth: usize,
}

/// The aggregate function called `name`, in either front end.
pub(crate) fn agg_fun(name: &str) -> Option<AggFun> {
    match name.to_ascii_lowercase().as_str() {
        "count" => Some(AggFun::Count),
        "sum" => Some(AggFun::Sum),
        "avg" => Some(AggFun::Avg),
        "min" => Some(AggFun::Min),
        "max" => Some(AggFun::Max),
        _ => None,
    }
}

impl Parser {
    pub(crate) fn new(input: &str) -> Result<Parser, ParseError> {
        let tokens = lex(input).map_err(|e| ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        })?;
        Ok(Parser {
            tokens,
            pos: 0,
            depth: 0,
        })
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    pub(crate) fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    pub(crate) fn err(&self, message: &str) -> ParseError {
        match self.tokens.get(self.pos) {
            Some(t) => ParseError {
                message: format!("{message} (found `{}`)", t.token),
                line: t.line,
                col: t.col,
            },
            None => ParseError {
                message: message.to_string(),
                line: 0,
                col: 0,
            },
        }
    }

    pub(crate) fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn eat(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{t}`")))
        }
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword `{kw}`")))
        }
    }

    pub(crate) fn try_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn data_type(&mut self) -> Result<DataType, ParseError> {
        let name = self.ident()?;
        match name.to_ascii_uppercase().as_str() {
            "STRING" => Ok(DataType::Str),
            "BOOLEAN" => Ok(DataType::Bool),
            "INTEGER" => Ok(DataType::Int),
            "REAL" => Ok(DataType::Real),
            "BLOB" => Ok(DataType::Blob),
            "SERVICE" => Ok(DataType::Service),
            other => Err(ParseError {
                message: format!("unknown data type `{other}`"),
                line: self
                    .tokens
                    .get(self.pos.saturating_sub(1))
                    .map_or(0, |t| t.line),
                col: self
                    .tokens
                    .get(self.pos.saturating_sub(1))
                    .map_or(0, |t| t.col),
            }),
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        let v = match self.peek() {
            Some(Token::Str(s)) => Value::str(s),
            Some(Token::Int(i)) => Value::Int(*i),
            Some(Token::Real(r)) => Value::Real(*r),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => Value::Bool(true),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => Value::Bool(false),
            _ => return Err(self.err("expected literal")),
        };
        self.pos += 1;
        Ok(v)
    }

    // ---------------------------------------------------------------
    // statements
    // ---------------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Some(t) if t.is_kw("PROTOTYPE") => self.prototype(),
            Some(t) if t.is_kw("SERVICE") => self.service(),
            Some(t) if t.is_kw("EXTENDED") => self.xrelation(),
            Some(t) if t.is_kw("INSERT") => self.insert(),
            Some(t) if t.is_kw("DELETE") => self.delete(),
            Some(t) if t.is_kw("DROP") => self.drop_relation(),
            Some(t) if t.is_kw("REGISTER") => self.register(),
            Some(t) if t.is_kw("UNREGISTER") => self.unregister(),
            Some(t) if t.is_kw("EXECUTE") => self.execute(),
            _ => Err(self.err("expected a statement")),
        }
    }

    fn params(&mut self) -> Result<Vec<(String, DataType)>, ParseError> {
        self.eat(&Token::LParen)?;
        let mut out = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                let name = self.ident()?;
                let ty = self.data_type()?;
                out.push((name, ty));
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        self.eat(&Token::RParen)?;
        Ok(out)
    }

    fn prototype(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("PROTOTYPE")?;
        let name = self.ident()?;
        let input = self.params()?;
        self.eat(&Token::Colon)?;
        let output = self.params()?;
        let active = self.try_kw("ACTIVE");
        self.eat(&Token::Semi)?;
        Ok(Statement::Prototype {
            name,
            input,
            output,
            active,
        })
    }

    fn service(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("SERVICE")?;
        let name = self.ident()?;
        self.eat_kw("IMPLEMENTS")?;
        let mut prototypes = vec![self.ident()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.pos += 1;
            prototypes.push(self.ident()?);
        }
        self.eat(&Token::Semi)?;
        Ok(Statement::Service { name, prototypes })
    }

    fn xrelation(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("EXTENDED")?;
        self.eat_kw("RELATION")?;
        let name = self.ident()?;
        self.eat(&Token::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let aname = self.ident()?;
            let ty = self.data_type()?;
            let virtual_ = self.try_kw("VIRTUAL");
            attrs.push(AttrDecl {
                name: aname,
                ty,
                virtual_,
            });
            if !matches!(self.peek(), Some(Token::Comma)) {
                break;
            }
            self.pos += 1;
        }
        self.eat(&Token::RParen)?;
        let mut bindings = Vec::new();
        if self.try_kw("USING") {
            self.eat_kw("BINDING")?;
            self.eat_kw("PATTERNS")?;
            self.eat(&Token::LParen)?;
            loop {
                bindings.push(self.binding()?);
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
            self.eat(&Token::RParen)?;
        }
        let stream = self.try_kw("STREAM");
        self.eat(&Token::Semi)?;
        Ok(Statement::ExtendedRelation {
            name,
            attrs,
            bindings,
            stream,
        })
    }

    fn name_list_parens(&mut self) -> Result<Vec<String>, ParseError> {
        self.eat(&Token::LParen)?;
        let mut out = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                out.push(self.ident()?);
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        self.eat(&Token::RParen)?;
        Ok(out)
    }

    fn binding(&mut self) -> Result<BindingDecl, ParseError> {
        let prototype = self.ident()?;
        self.eat(&Token::LBracket)?;
        let service_attr = self.ident()?;
        self.eat(&Token::RBracket)?;
        let mut input = Vec::new();
        let mut output = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            input = self.name_list_parens()?;
            if self.peek() == Some(&Token::Colon) {
                self.pos += 1;
                output = self.name_list_parens()?;
            }
        }
        Ok(BindingDecl {
            prototype,
            service_attr,
            input,
            output,
        })
    }

    fn tuple(&mut self) -> Result<Vec<Value>, ParseError> {
        self.eat(&Token::LParen)?;
        let mut out = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                out.push(self.literal()?);
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        self.eat(&Token::RParen)?;
        Ok(out)
    }

    fn tuples(&mut self) -> Result<Vec<Vec<Value>>, ParseError> {
        let mut out = vec![self.tuple()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.pos += 1;
            out.push(self.tuple()?);
        }
        Ok(out)
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("INSERT")?;
        self.eat_kw("INTO")?;
        let relation = self.ident()?;
        self.eat_kw("VALUES")?;
        let tuples = self.tuples()?;
        self.eat(&Token::Semi)?;
        Ok(Statement::Insert { relation, tuples })
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("DELETE")?;
        self.eat_kw("FROM")?;
        let relation = self.ident()?;
        self.eat_kw("VALUES")?;
        let tuples = self.tuples()?;
        self.eat(&Token::Semi)?;
        Ok(Statement::Delete { relation, tuples })
    }

    fn drop_relation(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("DROP")?;
        self.eat_kw("RELATION")?;
        let name = self.ident()?;
        self.eat(&Token::Semi)?;
        Ok(Statement::DropRelation { name })
    }

    fn register(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("REGISTER")?;
        self.eat_kw("QUERY")?;
        let name = self.ident()?;
        self.eat_kw("AS")?;
        let plan = self.expr()?;
        self.eat(&Token::Semi)?;
        Ok(Statement::RegisterQuery { name, plan })
    }

    fn unregister(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("UNREGISTER")?;
        self.eat_kw("QUERY")?;
        let name = self.ident()?;
        self.eat(&Token::Semi)?;
        Ok(Statement::UnregisterQuery { name })
    }

    fn execute(&mut self) -> Result<Statement, ParseError> {
        self.eat_kw("EXECUTE")?;
        let plan = self.expr()?;
        self.eat(&Token::Semi)?;
        Ok(Statement::Execute { plan })
    }

    // ---------------------------------------------------------------
    // algebra expressions
    // ---------------------------------------------------------------

    /// Whether a tree `levels` deep still fits under the open levels.
    fn fits(&self, levels: usize) -> Result<(), ParseError> {
        if self.depth + levels > MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// One level deeper for the rest of the parse: SQL's `FROM` / `WITH` /
    /// `USING` items each lower to a level of the plan.
    pub(crate) fn deepen(&mut self) -> Result<(), ParseError> {
        self.fits(1)?;
        self.depth += 1;
        Ok(())
    }

    /// Run `f` one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deepen()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    pub(crate) fn expr(&mut self) -> Result<Plan, ParseError> {
        self.nested(|p| match p.peek() {
            Some(Token::LParen) => p.parens_expr(),
            Some(Token::Ident(s)) => {
                let kw = s.to_ascii_uppercase();
                p.operator(&kw)
            }
            _ => Err(p.err("expected an algebra expression")),
        })
    }

    fn operator(&mut self, kw: &str) -> Result<Plan, ParseError> {
        match kw {
            "SELECT" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let f = self.formula()?;
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.select(f))
            }
            "PROJECT" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let mut attrs = vec![self.ident()?];
                while matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                    attrs.push(self.ident()?);
                }
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.project(attrs))
            }
            "RENAME" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let from = self.ident()?;
                self.eat(&Token::Arrow)?;
                let to = self.ident()?;
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.rename(from, to))
            }
            "JOIN" | "UNION" | "INTERSECT" | "DIFFERENCE" => {
                self.pos += 1;
                self.eat(&Token::LParen)?;
                let a = self.expr()?;
                self.eat(&Token::Comma)?;
                let b = self.expr()?;
                self.eat(&Token::RParen)?;
                Ok(match kw {
                    "JOIN" => a.join(b),
                    "UNION" => a.union(b),
                    "INTERSECT" => a.intersect(b),
                    _ => a.difference(b),
                })
            }
            "ASSIGN" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let attr = self.ident()?;
                self.eat(&Token::Assign)?;
                let src = self.assign_source()?;
                self.eat(&Token::RBracket)?;
                let e = self.parens_expr()?;
                Ok(Plan::Assign(Box::new(e), attr.into(), src))
            }
            "INVOKE" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let (proto, service_attr) = self.binding_ref()?;
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.invoke(proto, service_attr))
            }
            "AGGREGATE" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let mut group = Vec::new();
                while matches!(self.peek(), Some(Token::Ident(_))) {
                    // lookahead: an agg function is followed by '('
                    if self.tokens.get(self.pos + 1).map(|t| &t.token) == Some(&Token::LParen) {
                        break;
                    }
                    group.push(self.ident()?);
                    if matches!(self.peek(), Some(Token::Comma)) {
                        self.pos += 1;
                    }
                }
                if self.peek() == Some(&Token::Semi) {
                    self.pos += 1;
                }
                let mut aggs = vec![self.agg()?];
                while matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                    aggs.push(self.agg()?);
                }
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.aggregate(group, aggs))
            }
            "SAMPLE" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let (proto, service_attr) = self.binding_ref()?;
                self.eat(&Token::Comma)?;
                let n = self.period("expected positive sampling period")?;
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.sample_invoke(proto, service_attr, n))
            }
            "WINDOW" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let n = self.period("expected positive window period")?;
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.window(n))
            }
            "STREAM" => {
                self.pos += 1;
                self.eat(&Token::LBracket)?;
                let kind = match self.ident()?.to_ascii_lowercase().as_str() {
                    "insertion" => StreamKind::Insertion,
                    "deletion" => StreamKind::Deletion,
                    "heartbeat" => StreamKind::Heartbeat,
                    other => return Err(self.err(&format!("unknown streaming kind `{other}`"))),
                };
                self.eat(&Token::RBracket)?;
                Ok(self.parens_expr()?.stream(kind))
            }
            // plain source name
            _ => Ok(Plan::source(self.ident()?)),
        }
    }

    fn parens_expr(&mut self) -> Result<Plan, ParseError> {
        self.eat(&Token::LParen)?;
        let e = self.expr()?;
        self.eat(&Token::RParen)?;
        Ok(e)
    }

    /// `prototype '[' service_attr ']'`.
    pub(crate) fn binding_ref(&mut self) -> Result<(String, String), ParseError> {
        let proto = self.ident()?;
        self.eat(&Token::LBracket)?;
        let service_attr = self.ident()?;
        self.eat(&Token::RBracket)?;
        Ok((proto, service_attr))
    }

    /// A positive `W` / `βˢ` period.
    pub(crate) fn period(&mut self, expected: &str) -> Result<u64, ParseError> {
        match self.bump() {
            Some(Token::Int(i)) if i > 0 => Ok(i as u64),
            _ => Err(self.err(expected)),
        }
    }

    fn agg(&mut self) -> Result<AggSpec, ParseError> {
        let name = self.ident()?;
        let fun = agg_fun(&name)
            .ok_or_else(|| self.err(&format!("unknown aggregate function `{name}`")))?;
        self.agg_args(fun)
    }

    /// `'(' attr ')' (AS name)?` after an aggregate function's name.
    pub(crate) fn agg_args(&mut self, fun: AggFun) -> Result<AggSpec, ParseError> {
        self.eat(&Token::LParen)?;
        let spec = AggSpec::new(fun, self.ident()?);
        self.eat(&Token::RParen)?;
        Ok(if self.try_kw("AS") {
            spec.named(self.ident()?)
        } else {
            spec
        })
    }

    // ---------------------------------------------------------------
    // formulas
    // ---------------------------------------------------------------

    pub(crate) fn formula(&mut self) -> Result<Formula, ParseError> {
        Ok(self.or_formula()?.0)
    }

    // A connective chain grows its left-deep spine in a loop, where
    // `nested` cannot see it: the formula productions return each tree
    // with its height, and `chain` refuses a level the open frames above
    // leave no room for.

    fn or_formula(&mut self) -> Result<(Formula, usize), ParseError> {
        self.chain("OR", Self::and_formula, Formula::or)
    }

    fn and_formula(&mut self) -> Result<(Formula, usize), ParseError> {
        self.chain("AND", Self::not_formula, Formula::and)
    }

    fn chain(
        &mut self,
        kw: &str,
        operand: fn(&mut Self) -> Result<(Formula, usize), ParseError>,
        connect: fn(Formula, Formula) -> Formula,
    ) -> Result<(Formula, usize), ParseError> {
        let (mut left, mut height) = operand(self)?;
        while self.try_kw(kw) {
            let (right, h) = operand(self)?;
            height = height.max(h) + 1;
            self.fits(height)?;
            left = connect(left, right);
        }
        Ok((left, height))
    }

    fn not_formula(&mut self) -> Result<(Formula, usize), ParseError> {
        if self.try_kw("NOT") {
            let (f, height) = self.nested(Self::not_formula)?;
            return Ok((f.not(), height + 1));
        }
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let f = self.nested(Self::or_formula)?;
            self.eat(&Token::RParen)?;
            return Ok(f);
        }
        let atom = if self.try_kw("TRUE") {
            Formula::True
        } else if self.try_kw("FALSE") {
            Formula::False
        } else {
            self.comparison()?
        };
        Ok((atom, 0))
    }

    fn comparison(&mut self) -> Result<Formula, ParseError> {
        let left = self.term()?;
        if self.try_kw("CONTAINS") {
            let Expr::Attr(attr) = left else {
                return Err(self.err("CONTAINS requires an attribute on the left"));
            };
            return match self.bump() {
                Some(Token::Str(needle)) => Ok(Formula::Contains(attr, needle)),
                _ => Err(self.err("CONTAINS requires a string literal")),
            };
        }
        let op = match self.bump() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected comparison operator"));
            }
        };
        Ok(Formula::Cmp(left, op, self.term()?))
    }

    /// `name | literal`: a comparison's term.
    fn term(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Ident(s))
                if !s.eq_ignore_ascii_case("true") && !s.eq_ignore_ascii_case("false") =>
            {
                Ok(Expr::attr(self.ident()?))
            }
            _ => Ok(Expr::Const(self.literal()?)),
        }
    }

    /// `name | literal`: the right-hand side of `ASSIGN` and of SQL's `WITH`.
    pub(crate) fn assign_source(&mut self) -> Result<AssignSource, ParseError> {
        Ok(match self.term()? {
            Expr::Attr(a) => AssignSource::Attr(a),
            Expr::Const(v) => AssignSource::Const(v),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_table_1_prototypes() {
        let program = "
            PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
            PROTOTYPE checkPhoto( area STRING ) : ( quality INTEGER, delay REAL );
            PROTOTYPE takePhoto( area STRING, quality INTEGER ) : ( photo BLOB );
            PROTOTYPE getTemperature( ) : ( temperature REAL );
        ";
        let stmts = parse_program(program).unwrap();
        assert_eq!(stmts.len(), 4);
        match &stmts[0] {
            Statement::Prototype {
                name,
                input,
                output,
                active,
            } => {
                assert_eq!(name, "sendMessage");
                assert_eq!(input.len(), 2);
                assert_eq!(output, &vec![("sent".to_string(), DataType::Bool)]);
                assert!(active);
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &stmts[3] {
            Statement::Prototype { input, active, .. } => {
                assert!(input.is_empty());
                assert!(!active);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_table_1_services() {
        let stmts = parse_program("SERVICE camera01 IMPLEMENTS checkPhoto, takePhoto;").unwrap();
        assert_eq!(
            stmts[0],
            Statement::Service {
                name: "camera01".into(),
                prototypes: vec!["checkPhoto".into(), "takePhoto".into()],
            }
        );
    }

    #[test]
    fn parses_table_2_extended_relation() {
        let program = "
            EXTENDED RELATION contacts (
              name STRING,
              address STRING,
              text STRING VIRTUAL,
              messenger SERVICE,
              sent BOOLEAN VIRTUAL
            )
            USING BINDING PATTERNS (
              sendMessage[messenger] ( address, text ) : ( sent )
            );
        ";
        let stmts = parse_program(program).unwrap();
        match &stmts[0] {
            Statement::ExtendedRelation {
                name,
                attrs,
                bindings,
                stream,
            } => {
                assert_eq!(name, "contacts");
                assert_eq!(attrs.len(), 5);
                assert!(attrs[2].virtual_);
                assert!(!attrs[3].virtual_);
                assert_eq!(bindings.len(), 1);
                assert_eq!(bindings[0].prototype, "sendMessage");
                assert_eq!(bindings[0].service_attr, "messenger");
                assert_eq!(bindings[0].input, vec!["address", "text"]);
                assert_eq!(bindings[0].output, vec!["sent"]);
                assert!(!stream);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_stream_relation() {
        let stmts = parse_program(
            "EXTENDED RELATION temperatures ( location STRING, temperature REAL ) STREAM;",
        )
        .unwrap();
        assert!(matches!(
            &stmts[0],
            Statement::ExtendedRelation { stream: true, .. }
        ));
    }

    #[test]
    fn parses_insert_delete_drop() {
        let program = "
            INSERT INTO contacts VALUES ('Nicolas', 'n@e.fr', 'email'), ('Carla', 'c@e.fr', 'email');
            DELETE FROM contacts VALUES ('Carla', 'c@e.fr', 'email');
            DROP RELATION contacts;
        ";
        let stmts = parse_program(program).unwrap();
        assert!(matches!(&stmts[0], Statement::Insert { tuples, .. } if tuples.len() == 2));
        assert!(matches!(&stmts[1], Statement::Delete { tuples, .. } if tuples.len() == 1));
        assert!(matches!(&stmts[2], Statement::DropRelation { name } if name == "contacts"));
    }

    #[test]
    fn parses_q1_expression() {
        let q = parse_query(
            "INVOKE[sendMessage[messenger]](ASSIGN[text := 'Bonjour!'](SELECT[name <> 'Carla'](contacts)))",
        )
        .unwrap();
        assert_eq!(q, serena_core::plan::examples::q1());
    }

    #[test]
    fn parses_continuous_q3_and_q4_expressions() {
        let q = parse_query(
            "INVOKE[sendMessage[messenger]](ASSIGN[text := 'Hot!'](JOIN(PROJECT[temperature](SELECT[temperature > 35.5](WINDOW[1](temperatures))), contacts)))",
        )
        .unwrap();
        assert_eq!(q, serena_stream::plan::examples::q3());
        let q = parse_query(
            "STREAM[insertion](PROJECT[photo](INVOKE[takePhoto[camera]](INVOKE[checkPhoto[camera]](JOIN(PROJECT[area](RENAME[location -> area](SELECT[temperature < 12.0](WINDOW[1](temperatures)))), cameras)))))",
        )
        .unwrap();
        assert_eq!(q, serena_stream::plan::examples::q4());
    }

    #[test]
    fn parses_sample_invoke() {
        let q = parse_query("WINDOW[3](SAMPLE[getTemperature[sensor], 2](sensors))").unwrap();
        assert_eq!(
            q,
            Plan::source("sensors")
                .sample_invoke("getTemperature", "sensor", 2)
                .window(3)
        );
        assert!(parse_query("SAMPLE[getTemperature[sensor], 0](sensors)").is_err());
    }

    #[test]
    fn parses_register_and_execute() {
        let stmts = parse_program(
            "REGISTER QUERY alert AS SELECT[temperature > 35.5](WINDOW[1](temperatures));
             EXECUTE PROJECT[name](contacts);",
        )
        .unwrap();
        assert_eq!(
            stmts,
            vec![
                Statement::RegisterQuery {
                    name: "alert".into(),
                    plan: Plan::source("temperatures")
                        .window(1)
                        .select(Formula::gt_const("temperature", 35.5)),
                },
                Statement::Execute {
                    plan: Plan::source("contacts").project(["name"]),
                },
            ]
        );
    }

    #[test]
    fn parses_aggregate_with_and_without_group() {
        let q = parse_query("AGGREGATE[location; avg(temperature) AS mean](readings)").unwrap();
        assert_eq!(
            q,
            Plan::source("readings").aggregate(
                ["location"],
                vec![AggSpec::new(AggFun::Avg, "temperature").named("mean")]
            )
        );
        // without a group, and with the defaulted `fun_attr` output name
        let q = parse_query("AGGREGATE[count(name)](contacts)").unwrap();
        let no_group: [&str; 0] = [];
        assert_eq!(
            q,
            Plan::source("contacts").aggregate(no_group, vec![AggSpec::new(AggFun::Count, "name")])
        );
        let Plan::Aggregate(_, _, aggs) = q else {
            panic!()
        };
        assert_eq!(aggs[0].as_name.as_str(), "count_name");
    }

    #[test]
    fn parses_formula_precedence() {
        // OR binds loosest: Or(a=1, And(b=2, Not(c=3)))
        let q = parse_query("SELECT[a = 1 OR b = 2 AND NOT c = 3](t)").unwrap();
        assert_eq!(
            q,
            Plan::source("t").select(
                Formula::eq_const("a", 1)
                    .or(Formula::eq_const("b", 2).and(Formula::eq_const("c", 3).not()))
            )
        );
    }

    #[test]
    fn parses_the_full_formula_surface() {
        let q = parse_query(
            "SELECT[NOT (a = 1 AND b <> 'x') OR c >= 2.5 AND d = TRUE OR 3 < e AND f CONTAINS 'y' AND (TRUE OR FALSE)](t)",
        )
        .unwrap();
        let formula = Formula::eq_const("a", 1)
            .and(Formula::ne_const("b", "x"))
            .not()
            .or(Formula::ge_const("c", 2.5).and(Formula::eq_const("d", true)))
            .or(Formula::Cmp(Expr::val(3), CmpOp::Lt, Expr::attr("e"))
                .and(Formula::contains_const("f", "y"))
                .and(Formula::True.or(Formula::False)));
        assert_eq!(q, Plan::source("t").select(formula));
    }

    #[test]
    fn parses_boolean_literals_in_formula() {
        assert_eq!(
            parse_query("SELECT[sent = TRUE](t)").unwrap(),
            Plan::source("t").select(Formula::eq_const("sent", true))
        );
    }

    #[test]
    fn error_reporting_has_position() {
        let err = parse_program("PROTOTYPE ;").unwrap_err();
        assert!(err.message.contains("identifier"));
        assert_eq!(err.line, 1);
        let err = parse_query("SELECT[").unwrap_err();
        assert!(err.line == 0 || err.message.contains("expected"));
    }

    #[test]
    fn rejects_trailing_garbage_in_query() {
        assert!(parse_query("contacts extra").is_err());
    }

    #[test]
    fn parenthesized_expression() {
        let q = parse_query("(contacts)").unwrap();
        assert_eq!(q, Plan::source("contacts"));
    }
}
