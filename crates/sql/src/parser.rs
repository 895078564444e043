//! Recursive-descent parser for the supported SQL dialect.
//!
//! Grammar (informal):
//!
//! ```text
//! statement   := select | insert | delete | update | create | set
//!              | begin | commit | rollback
//! select      := SELECT [DISTINCT] items FROM table_refs [WHERE expr]
//!                [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
//!                [LIMIT n]
//! expr        := or_expr
//! or_expr     := and_expr (OR and_expr)*
//! and_expr    := not_expr (AND not_expr)*
//! not_expr    := [NOT] cmp_expr
//! cmp_expr    := add_expr [cmp_op add_expr | BETWEEN | IN | LIKE | IS NULL]
//! add_expr    := mul_expr ((+|-) mul_expr)*
//! mul_expr    := unary ((*|/) unary)*
//! unary       := [-] primary
//! primary     := literal | date/interval literal | column | function(...)
//!              | (expr) | (select) | CASE ... END | EXISTS (select)
//! ```
//!
//! # Nesting is bounded
//!
//! The descent recurses on nesting, and so does everything that later walks
//! the tree: `Display`, the visitors, the engine's compiler and evaluator,
//! `Drop`. A statement that nests deeper than [`MAX_NESTING`] is therefore
//! refused here, with a [`ParseError`], before anything can recurse on it —
//! whether it opens that many scopes at once (parentheses, function
//! arguments, `CASE` branches, `IN` lists, subqueries and derived tables,
//! which the parser descends into) or builds a syntax tree that tall (which
//! is how a long `a + 1 + 1 …`, `p OR q OR …` or `- - - x` grows: the
//! parser loops over it, the tree is left-deep or a spine).
//!
//! `Display` parenthesizes every operator and the parser opens a scope per
//! parenthesis, so a rendering can need more scopes than the text it was
//! parsed from — up to one more per `IN` list or clause on the way down. A
//! statement within a few levels of the bound may therefore be refused
//! when its rendering is re-parsed (by a cluster node, after the SVP
//! rewrite): an error there too, never a crash.

use crate::ast::*;
use crate::lexer::{Lexer, Symbol, Token};
use crate::value::{Date, Interval, Value};
use crate::{ParseError, ParseResult};
use std::sync::Arc;

/// The deepest a statement may nest: the most scopes the parser has open at
/// once, and the height of the syntax tree it builds (a subquery counts with
/// its `SELECT`, so each level of subquery nesting takes two).
///
/// Chosen from what a *debug* build survives on a 2 MiB thread — the stack
/// of the cluster's node threads, which run every statement —
/// through parse, plan, evaluation and drop. Unbounded, the descent gives
/// out first there: at about 100 nested function calls or `CASE`s, 125
/// scopes of nested subqueries, 160 parentheses; evaluation gives out on a
/// tree about 300 tall. At 64 the worst of those shapes (function calls
/// nested to the bound) runs in 1.4 MiB, parentheses in 0.9 MiB and every
/// other shape in under 0.6 MiB, and 64 is several times what the TPC-H
/// statements and their SVP rewrites nest. An optimized build uses a
/// twentieth of that.
pub const MAX_NESTING: usize = 64;

/// Parses a single SQL statement (a trailing `;` is tolerated).
pub fn parse_statement(sql: &str) -> ParseResult<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat_symbol(Symbol::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a `;`-separated script into statements.
pub fn parse_statements(sql: &str) -> ParseResult<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(Symbol::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        out.push(p.statement()?);
    }
}

/// Parses a standalone expression (used in tests and by the rewriter).
pub fn parse_expression(sql: &str) -> ParseResult<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The parser itself. Public so callers with unusual needs (e.g. the TPC-H
/// query templates) can drive it incrementally.
pub struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    /// Scopes the descent has open (see [`MAX_NESTING`]).
    depth: usize,
    /// Height of the syntax tree the expression or `SELECT` parsed last
    /// came to: how a parent learns how tall it is.
    height: usize,
}

impl Parser {
    pub fn new(sql: &str) -> ParseResult<Self> {
        Ok(Parser {
            tokens: Lexer::new(sql).tokenize()?,
            pos: 0,
            depth: 0,
            height: 0,
        })
    }

    fn too_deep(&self) -> ParseError {
        self.error(format!(
            "statement nests more than {MAX_NESTING} levels deep"
        ))
    }

    /// Opens a scope; the caller closes it (`depth -= 1`) once its content
    /// has parsed. An error abandons the parse, so it closes nothing.
    fn descend(&mut self) -> ParseResult<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    /// Records that a node was built over children the tallest of which is
    /// `below` high.
    fn built(&mut self, below: usize) -> ParseResult<usize> {
        self.height = below + 1;
        if self.height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(self.height)
    }

    /// Parses one child of the node being built, keeping `below` the height
    /// of its tallest.
    fn under(
        &mut self,
        below: &mut usize,
        parse: fn(&mut Self) -> ParseResult<Expr>,
    ) -> ParseResult<Expr> {
        let child = parse(self)?;
        *below = (*below).max(self.height);
        Ok(child)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].0
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].1
    }

    /// Consumes the current token. The parser never looks behind, so a
    /// token it steps past is moved out, not cloned; the last one, `Eof`,
    /// stays for every later peek.
    fn advance(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos < last {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].0, Token::Eof)
        } else {
            self.tokens[last].0.clone()
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn expect_eof(&self) -> ParseResult<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.offset())
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> ParseResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword '{kw}', found {:?}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if *self.peek() == Token::Symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> ParseResult<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected {s:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn string(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            Token::Str(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected string literal, found {other:?}"))),
        }
    }

    // -- statements ---------------------------------------------------------

    /// Parses one statement at the current position.
    pub fn statement(&mut self) -> ParseResult<Statement> {
        match self.peek().clone() {
            Token::Ident(kw) => match kw.as_str() {
                "select" => Ok(Statement::Select(self.select()?)),
                "explain" => {
                    self.advance();
                    let analyze = self.eat_kw("analyze");
                    self.descend()?;
                    let inner = Box::new(self.statement()?);
                    self.depth -= 1;
                    Ok(Statement::Explain { analyze, inner })
                }
                "insert" => self.insert(),
                "delete" => self.delete(),
                "update" => self.update(),
                "create" => self.create(),
                "set" => self.set(),
                "begin" | "start" => {
                    self.advance();
                    self.eat_kw("transaction");
                    Ok(Statement::Begin)
                }
                "commit" => {
                    self.advance();
                    Ok(Statement::Commit)
                }
                "rollback" => {
                    self.advance();
                    Ok(Statement::Rollback)
                }
                other => Err(self.error(format!("unknown statement keyword '{other}'"))),
            },
            other => Err(self.error(format!("expected statement, found {other:?}"))),
        }
    }

    /// Parses a SELECT (entry point also used for subqueries).
    pub fn select(&mut self) -> ParseResult<Select> {
        self.descend()?;
        let mut below = 0;
        self.expect_kw("select")?;
        let quantifier = if self.eat_kw("distinct") {
            SetQuantifier::Distinct
        } else {
            self.eat_kw("all");
            SetQuantifier::All
        };
        let mut items = Vec::new();
        loop {
            if self.eat_symbol(Symbol::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.under(&mut below, Self::expr)?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if let Token::Ident(name) = self.peek().clone() {
                    // Bare alias, as in `sum(x) total`, unless it's a clause
                    // keyword.
                    if RESERVED_AFTER_ITEM.contains(&name.as_str()) {
                        None
                    } else {
                        self.advance();
                        Some(name)
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.table_ref()?);
                below = below.max(self.height);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_kw("where") {
            Some(self.under(&mut below, Self::expr)?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.under(&mut below, Self::expr)?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.under(&mut below, Self::expr)?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.under(&mut below, Self::expr)?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.advance() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(self.error(format!("expected LIMIT count, got {other:?}"))),
            }
        } else {
            None
        };
        self.depth -= 1;
        self.built(below)?;
        Ok(Select {
            quantifier,
            items,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> ParseResult<TableRef> {
        if self.eat_symbol(Symbol::LParen) {
            let query = Box::new(self.select()?);
            self.expect_symbol(Symbol::RParen)?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery { query, alias });
        }
        self.height = 0;
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Token::Ident(a) = self.peek().clone() {
            if RESERVED_AFTER_TABLE.contains(&a.as_str()) {
                None
            } else {
                self.advance();
                Some(a)
            }
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    fn insert(&mut self) -> ParseResult<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_symbol(Symbol::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Symbol::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            rows.push(row);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn delete(&mut self) -> ParseResult<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let selection = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, selection })
    }

    fn update(&mut self) -> ParseResult<Statement> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol(Symbol::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let selection = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            selection,
        })
    }

    fn create(&mut self) -> ParseResult<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("index") {
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let column = self.ident()?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
            });
        }
        self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                self.expect_symbol(Symbol::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
            } else {
                let col_name = self.ident()?;
                let ty = self.data_type()?;
                let mut not_null = false;
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    not_null = true;
                }
                columns.push(ColumnDef {
                    name: col_name,
                    data_type: ty,
                    not_null,
                });
            }
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        let clustered_by = if self.eat_kw("clustered") {
            self.expect_kw("by")?;
            self.expect_symbol(Symbol::LParen)?;
            let c = self.ident()?;
            self.expect_symbol(Symbol::RParen)?;
            Some(c)
        } else {
            None
        };
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
            clustered_by,
        })
    }

    fn data_type(&mut self) -> ParseResult<DataType> {
        let name = self.ident()?;
        let ty = match name.as_str() {
            "int" | "integer" | "bigint" | "smallint" => DataType::Int,
            "float" | "double" | "real" | "decimal" | "numeric" => {
                // Tolerate `decimal(15,2)` precision suffixes.
                if self.eat_symbol(Symbol::LParen) {
                    while !self.eat_symbol(Symbol::RParen) {
                        self.advance();
                    }
                }
                DataType::Float
            }
            "text" | "varchar" | "char" | "string" => {
                if self.eat_symbol(Symbol::LParen) {
                    while !self.eat_symbol(Symbol::RParen) {
                        self.advance();
                    }
                }
                DataType::Text
            }
            "date" => DataType::Date,
            "bool" | "boolean" => DataType::Bool,
            other => return Err(self.error(format!("unknown data type '{other}'"))),
        };
        Ok(ty)
    }

    fn set(&mut self) -> ParseResult<Statement> {
        self.expect_kw("set")?;
        let name = self.ident()?;
        // Accept both `set x = v` and PostgreSQL's `set x to v`.
        if !self.eat_symbol(Symbol::Eq) {
            self.expect_kw("to")?;
        }
        let value = match self.advance() {
            Token::Ident(s) => s,
            Token::Int(i) => i.to_string(),
            Token::Float(fl) => fl.to_string(),
            Token::Str(s) => s,
            other => return Err(self.error(format!("bad SET value {other:?}"))),
        };
        Ok(Statement::Set { name, value })
    }

    // -- expressions --------------------------------------------------------

    /// Parses an expression at the lowest precedence (OR). Everything that
    /// nests an expression inside another comes through here, so this is
    /// one of the scopes [`MAX_NESTING`] counts.
    pub fn expr(&mut self) -> ParseResult<Expr> {
        self.descend()?;
        let mut lhs = self.and_expr()?;
        let mut height = self.height;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            height = self.built(height.max(self.height))?;
            lhs = Expr::binary(lhs, BinOp::Or, rhs);
        }
        self.height = height;
        self.depth -= 1;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.not_expr()?;
        let mut height = self.height;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            height = self.built(height.max(self.height))?;
            lhs = Expr::binary(lhs, BinOp::And, rhs);
        }
        self.height = height;
        Ok(lhs)
    }

    fn not_expr(&mut self) -> ParseResult<Expr> {
        // A run of NOTs is counted, not descended into.
        let mut nots = 0usize;
        while self.peek().is_kw("not") && !self.peek_is_not_exists() {
            self.advance();
            nots += 1;
        }
        let mut e = self.cmp_expr()?;
        for _ in 0..nots {
            self.built(self.height)?;
            e = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            };
        }
        Ok(e)
    }

    /// `NOT EXISTS` is handled inside `primary` so the negation attaches to
    /// the EXISTS node (the SVP rewriter relies on that shape).
    fn peek_is_not_exists(&self) -> bool {
        if !self.peek().is_kw("not") {
            return false;
        }
        matches!(&self.tokens.get(self.pos + 1), Some((t, _)) if t.is_kw("exists"))
    }

    fn cmp_expr(&mut self) -> ParseResult<Expr> {
        let lhs = self.add_expr()?;
        let mut below = self.height;
        // Postfix predicates.
        let negated = if self.peek().is_kw("not")
            && matches!(&self.tokens.get(self.pos + 1),
                Some((t, _)) if t.is_kw("between") || t.is_kw("in") || t.is_kw("like"))
        {
            self.advance();
            true
        } else {
            false
        };
        let node = if self.eat_kw("between") {
            let low = self.under(&mut below, Self::add_expr)?;
            self.expect_kw("and")?;
            let high = self.under(&mut below, Self::add_expr)?;
            Expr::Between {
                expr: Box::new(lhs),
                negated,
                low: Box::new(low),
                high: Box::new(high),
            }
        } else if self.eat_kw("in") {
            self.expect_symbol(Symbol::LParen)?;
            if self.peek().is_kw("select") {
                let query = Arc::new(self.select()?);
                below = below.max(self.height);
                self.expect_symbol(Symbol::RParen)?;
                Expr::InSubquery {
                    expr: Box::new(lhs),
                    negated,
                    query,
                }
            } else {
                let mut list = Vec::new();
                loop {
                    list.push(self.under(&mut below, Self::expr)?);
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
                Expr::InList {
                    expr: Box::new(lhs),
                    negated,
                    list,
                }
            }
        } else if self.eat_kw("like") {
            let pattern = self.under(&mut below, Self::add_expr)?;
            Expr::Like {
                expr: Box::new(lhs),
                negated,
                pattern: Box::new(pattern),
            }
        } else if negated {
            return Err(self.error("dangling NOT before comparison"));
        } else if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            }
        } else {
            let op = match self.peek() {
                Token::Symbol(Symbol::Eq) => BinOp::Eq,
                Token::Symbol(Symbol::NotEq) => BinOp::NotEq,
                Token::Symbol(Symbol::Lt) => BinOp::Lt,
                Token::Symbol(Symbol::LtEq) => BinOp::LtEq,
                Token::Symbol(Symbol::Gt) => BinOp::Gt,
                Token::Symbol(Symbol::GtEq) => BinOp::GtEq,
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.under(&mut below, Self::add_expr)?;
            Expr::binary(lhs, op, rhs)
        };
        self.built(below)?;
        Ok(node)
    }

    fn add_expr(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.mul_expr()?;
        let mut height = self.height;
        loop {
            let op = match self.peek() {
                Token::Symbol(Symbol::Plus) => BinOp::Add,
                Token::Symbol(Symbol::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.mul_expr()?;
            height = self.built(height.max(self.height))?;
            lhs = Expr::binary(lhs, op, rhs);
        }
        self.height = height;
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.unary()?;
        let mut height = self.height;
        loop {
            let op = match self.peek() {
                Token::Symbol(Symbol::Star) => BinOp::Mul,
                Token::Symbol(Symbol::Slash) => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.unary()?;
            height = self.built(height.max(self.height))?;
            lhs = Expr::binary(lhs, op, rhs);
        }
        self.height = height;
        Ok(lhs)
    }

    fn unary(&mut self) -> ParseResult<Expr> {
        // A run of signs is counted, not descended into.
        let mut negations = 0usize;
        loop {
            if self.eat_symbol(Symbol::Minus) {
                negations += 1;
            } else if !self.eat_symbol(Symbol::Plus) {
                break;
            }
        }
        let mut e = self.primary()?;
        for _ in 0..negations {
            e = match e {
                // Fold negation into numeric literals for cleaner trees.
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => {
                    self.built(self.height)?;
                    Expr::Unary {
                        op: UnaryOp::Neg,
                        expr: Box::new(other),
                    }
                }
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> ParseResult<Expr> {
        // A leaf, unless an arm below builds on children.
        self.height = 1;
        match self.peek().clone() {
            Token::Int(i) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(i)))
            }
            Token::Float(x) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(x)))
            }
            Token::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Str(s)))
            }
            Token::Param(n) => {
                self.advance();
                Ok(Expr::Parameter(n))
            }
            Token::Symbol(Symbol::LParen) => {
                self.advance();
                if self.peek().is_kw("select") {
                    let q = Arc::new(self.select()?);
                    self.expect_symbol(Symbol::RParen)?;
                    self.built(self.height)?;
                    Ok(Expr::ScalarSubquery(q))
                } else {
                    let e = self.expr()?;
                    self.expect_symbol(Symbol::RParen)?;
                    Ok(e)
                }
            }
            Token::Ident(name) => self.ident_led(name),
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    fn ident_led(&mut self, name: String) -> ParseResult<Expr> {
        match name.as_str() {
            "null" => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            "true" => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            "false" => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            "date" => {
                // `date '1994-01-01'` — fall back to a column named "date"
                // never happens in this dialect.
                self.advance();
                let text = self.string()?;
                let d = Date::parse(&text)
                    .ok_or_else(|| self.error(format!("bad date literal '{text}'")))?;
                Ok(Expr::Literal(Value::Date(d)))
            }
            "interval" => {
                self.advance();
                let text = self.string()?;
                let n: i32 = text
                    .trim()
                    .parse()
                    .map_err(|_| self.error(format!("bad interval quantity '{text}'")))?;
                let unit = self.ident()?;
                let iv = match unit.as_str() {
                    "day" | "days" => Interval::days(n),
                    "month" | "months" => Interval::months(n),
                    "year" | "years" => Interval::years(n),
                    other => return Err(self.error(format!("bad interval unit '{other}'"))),
                };
                Ok(Expr::Literal(Value::Interval(iv)))
            }
            "case" => {
                self.advance();
                let mut branches = Vec::new();
                let mut below = 0;
                while self.eat_kw("when") {
                    let cond = self.under(&mut below, Self::expr)?;
                    self.expect_kw("then")?;
                    let result = self.under(&mut below, Self::expr)?;
                    branches.push((cond, result));
                }
                let else_expr = if self.eat_kw("else") {
                    Some(Box::new(self.under(&mut below, Self::expr)?))
                } else {
                    None
                };
                self.expect_kw("end")?;
                if branches.is_empty() {
                    return Err(self.error("CASE requires at least one WHEN branch"));
                }
                self.built(below)?;
                Ok(Expr::Case {
                    branches,
                    else_expr,
                })
            }
            "exists" => {
                self.advance();
                self.expect_symbol(Symbol::LParen)?;
                let query = Arc::new(self.select()?);
                self.expect_symbol(Symbol::RParen)?;
                self.built(self.height)?;
                Ok(Expr::Exists {
                    negated: false,
                    query,
                })
            }
            "not" if self.peek_is_not_exists() => {
                self.advance(); // not
                self.advance(); // exists
                self.expect_symbol(Symbol::LParen)?;
                let query = Arc::new(self.select()?);
                self.expect_symbol(Symbol::RParen)?;
                self.built(self.height)?;
                Ok(Expr::Exists {
                    negated: true,
                    query,
                })
            }
            _ => {
                self.advance();
                // Function call?
                if self.eat_symbol(Symbol::LParen) {
                    if self.eat_symbol(Symbol::Star) {
                        self.expect_symbol(Symbol::RParen)?;
                        return Ok(Expr::Function {
                            name,
                            args: vec![],
                            distinct: false,
                            star: true,
                        });
                    }
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    let mut below = 0;
                    if !self.eat_symbol(Symbol::RParen) {
                        loop {
                            args.push(self.under(&mut below, Self::expr)?);
                            if !self.eat_symbol(Symbol::Comma) {
                                break;
                            }
                        }
                        self.expect_symbol(Symbol::RParen)?;
                    }
                    self.built(below)?;
                    return Ok(Expr::Function {
                        name,
                        args,
                        distinct,
                        star: false,
                    });
                }
                // Qualified column?
                if self.eat_symbol(Symbol::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column(ColumnRef::qualified(name, col)));
                }
                Ok(Expr::Column(ColumnRef::new(name)))
            }
        }
    }
}

/// Keywords that terminate a bare select-item alias.
const RESERVED_AFTER_ITEM: &[&str] = &[
    "from", "where", "group", "having", "order", "limit", "as", "and", "or", "not", "between",
    "in", "like", "is", "asc", "desc", "union",
];

/// Keywords that terminate a bare table alias.
const RESERVED_AFTER_TABLE: &[&str] = &[
    "where", "group", "having", "order", "limit", "on", "join", "inner", "left", "right", "cross",
    "and", "or", "union", "set",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) -> String {
        parse_statement(sql).unwrap().to_string()
    }

    #[test]
    fn simple_select() {
        let s = parse_statement("select a, b from t where a > 3").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.from.len(), 1);
                assert!(sel.selection.is_some());
            }
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn select_rendered_sql_reparses() {
        let sql = "select l_returnflag, sum(l_quantity) as sum_qty from lineitem \
                   where l_shipdate <= date '1998-12-01' - interval '90' day \
                   group by l_returnflag order by l_returnflag limit 10";
        let once = roundtrip(sql);
        let twice = parse_statement(&once).unwrap().to_string();
        assert_eq!(once, twice);
    }

    #[test]
    fn parameter_placeholders_parse_and_roundtrip() {
        let e = parse_expression("k >= $1 and k < $2").unwrap();
        assert_eq!(e.to_string(), "((k >= $1) and (k < $2))");
        let sql = "select sum(v) as s from t where k >= $1 and k < $2";
        assert_eq!(
            roundtrip(sql),
            parse_statement(&roundtrip(sql)).unwrap().to_string()
        );
    }

    #[test]
    fn date_and_interval_literals() {
        let e = parse_expression("date '1994-01-01' + interval '1' year").unwrap();
        assert_eq!(e.to_string(), "(date '1994-01-01' + interval '1' year)");
    }

    #[test]
    fn between_and_in() {
        let e = parse_expression("x between 1 and 5 and y in (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn not_between() {
        let e = parse_expression("x not between 1 and 5").unwrap();
        assert!(matches!(e, Expr::Between { negated: true, .. }));
    }

    #[test]
    fn exists_and_not_exists() {
        let e = parse_expression("exists (select 1 from t)").unwrap();
        assert!(matches!(e, Expr::Exists { negated: false, .. }));
        let e = parse_expression("not exists (select 1 from t)").unwrap();
        assert!(matches!(e, Expr::Exists { negated: true, .. }));
    }

    #[test]
    fn in_subquery() {
        let e = parse_expression("x in (select y from t)").unwrap();
        assert!(matches!(e, Expr::InSubquery { negated: false, .. }));
    }

    #[test]
    fn scalar_subquery() {
        let e = parse_expression("(select max(y) from t)").unwrap();
        assert!(matches!(e, Expr::ScalarSubquery(_)));
    }

    #[test]
    fn case_expression() {
        let e =
            parse_expression("case when a = 1 then 'x' when a = 2 then 'y' else 'z' end").unwrap();
        match e {
            Expr::Case {
                branches,
                else_expr,
            } => {
                assert_eq!(branches.len(), 2);
                assert!(else_expr.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "(1 + (2 * 3))");
        let e = parse_expression("a or b and c").unwrap();
        assert_eq!(e.to_string(), "(a or (b and c))");
    }

    #[test]
    fn unary_minus_folds_into_literal() {
        let e = parse_expression("-5").unwrap();
        assert_eq!(e, Expr::Literal(Value::Int(-5)));
    }

    #[test]
    fn insert_multirow() {
        let s = parse_statement("insert into t (a, b) values (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns, vec!["a", "b"]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn delete_with_predicate() {
        let s = parse_statement("delete from orders where o_orderkey >= 100").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                selection: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn update_statement() {
        let s = parse_statement("update t set a = 1, b = b + 1 where c = 2").unwrap();
        match s {
            Statement::Update { assignments, .. } => assert_eq!(assignments.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn create_table_with_cluster() {
        let s = parse_statement(
            "create table orders (o_orderkey int not null, o_comment varchar(79), \
             primary key (o_orderkey)) clustered by (o_orderkey)",
        )
        .unwrap();
        match s {
            Statement::CreateTable {
                columns,
                primary_key,
                clustered_by,
                ..
            } => {
                assert_eq!(columns.len(), 2);
                assert_eq!(primary_key, vec!["o_orderkey"]);
                assert_eq!(clustered_by.as_deref(), Some("o_orderkey"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_index() {
        let s = parse_statement("create index idx on lineitem (l_orderkey)").unwrap();
        assert!(matches!(s, Statement::CreateIndex { .. }));
    }

    #[test]
    fn set_statement_both_syntaxes() {
        assert_eq!(
            parse_statement("set enable_seqscan = off").unwrap(),
            Statement::Set {
                name: "enable_seqscan".into(),
                value: "off".into()
            }
        );
        assert!(parse_statement("set enable_seqscan to off").is_ok());
    }

    #[test]
    fn multi_statement_script() {
        let stmts = parse_statements("begin; insert into t values (1); commit;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn derived_table() {
        let s = parse_statement("select x from (select a as x from t) sub where x > 1").unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(&sel.from[0], TableRef::Subquery { alias, .. } if alias == "sub"))
            }
            _ => panic!(),
        }
    }

    #[test]
    fn table_alias_forms() {
        let s = parse_statement("select l.l_orderkey from lineitem as l").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.from[0].binding_name(), "l");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn error_messages_carry_offsets() {
        let err = parse_statement("select , from t").unwrap_err();
        assert!(err.offset > 0);
    }

    #[test]
    fn like_predicate() {
        let e = parse_expression("p_type like 'PROMO%'").unwrap();
        assert!(matches!(e, Expr::Like { negated: false, .. }));
        let e = parse_expression("p_type not like 'PROMO%'").unwrap();
        assert!(matches!(e, Expr::Like { negated: true, .. }));
    }

    #[test]
    fn count_star() {
        let e = parse_expression("count(*)").unwrap();
        assert!(matches!(e, Expr::Function { star: true, .. }));
    }

    #[test]
    fn count_distinct() {
        let e = parse_expression("count(distinct x)").unwrap();
        assert!(matches!(e, Expr::Function { distinct: true, .. }));
    }

    /// One statement per way of nesting, `n` levels of it.
    fn nested(shape: &str, n: usize) -> String {
        match shape {
            "(" => format!("select {}a{} from t", "(".repeat(n), ")".repeat(n)),
            "- " => format!("select {}a from t", "- ".repeat(n)),
            "not " => format!("select a from t where {}b", "not ".repeat(n)),
            "+ 1" => format!("select a{} from t", " + 1".repeat(n)),
            "or" => format!("select a from t where b{}", " or b".repeat(n)),
            "f(" => format!("select {}a{} from t", "abs(".repeat(n), ")".repeat(n)),
            "case" => format!(
                "select {}a{} from t",
                "case when b then 1 else ".repeat(n),
                " end".repeat(n)
            ),
            "(select" => (0..n).fold("select a from t".to_string(), |q, _| {
                format!("select ({q}) from t")
            }),
            "from (select" => (0..n).fold("select a from t".to_string(), |q, _| {
                format!("select a from ({q}) d")
            }),
            "explain" => format!("{}select a from t", "explain ".repeat(n)),
            other => panic!("no shape {other}"),
        }
    }

    const SHAPES: [&str; 10] = [
        "explain",
        "(",
        "- ",
        "not ",
        "+ 1",
        "or",
        "f(",
        "case",
        "(select",
        "from (select",
    ];

    /// On the stack of a node thread.
    fn on_a_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error_not_a_stack_overflow() {
        on_a_small_stack(|| {
            for shape in SHAPES {
                for n in [MAX_NESTING, 2 * MAX_NESTING, 50_000] {
                    let err = parse_statements(&nested(shape, n))
                        .expect_err(&format!("{n} levels of `{shape}`"));
                    assert!(err.message.contains("levels deep"), "{shape}: {err}");
                }
            }
        });
    }

    #[test]
    fn nesting_up_to_the_bound_parses_renders_and_drops() {
        on_a_small_stack(|| {
            for shape in SHAPES {
                // A scalar subquery is two levels, the node and its SELECT.
                let levels = if shape == "(select" { 2 } else { 1 };
                // The statement's SELECT and the innermost leaf are the
                // other two levels.
                let n = (MAX_NESTING - 2) / levels;
                let stmt =
                    parse_statement(&nested(shape, n)).unwrap_or_else(|e| panic!("{shape}: {e}"));
                assert!(!stmt.to_string().is_empty());
                assert!(parse_statement(&nested(shape, n + 1)).is_err(), "{shape}");
                // Rendering adds scopes, never as many again.
                let stmt = parse_statement(&nested(shape, n / 2)).unwrap();
                assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt, "{shape}");
            }
        });
    }

    /// Width is not depth: long lists, many items and many statements are
    /// no taller than one of their members.
    #[test]
    fn wide_statements_are_not_deep() {
        let list: Vec<String> = (0..5_000).map(|i| (i % 7 + 1).to_string()).collect();
        let items = vec!["a * b + 1"; 500].join(", ");
        let sql = format!(
            "select {items} from t where a in ({}) and coalesce({}) > 0; \
             insert into t values {}",
            list.join(", "),
            list.join(", "),
            vec!["(1 + 1, 'x')"; 2_000].join(", "),
        );
        assert_eq!(parse_statements(&sql).unwrap().len(), 2);
    }
}
