//! The read request: what one read is, for every layer that passes it on.
//!
//! The controller, the Apuama engine, a node processor, the driver seam
//! and [`Database::read`](crate::Database::read) all take this one value,
//! so a read has one way down and is parsed once on it: whoever builds a
//! `ReadRequest` has already decided it is a read, and when deciding that
//! took a parse — the controller's classification — the parsed statement
//! rides along ([`ReadRequest::stmt`]) for the rewriter and the node to
//! run from. The database's `&self` entry refusing anything but SELECT /
//! SET / EXPLAIN is the check that makes trusting the builder safe.

use std::borrow::Cow;

use apuama_sql::{parse_statement, visit, Statement, Value};

use crate::error::{EngineError, EngineResult};
use crate::governor::QueryGovernor;

/// One read statement and how to run it.
#[derive(Debug, Clone, Copy)]
pub struct ReadRequest<'a> {
    /// The statement text; `$N` placeholders when `params` is present. It
    /// stays beside `stmt` because fault injection and text-only
    /// connections match on it.
    pub sql: &'a str,
    /// `sql` already parsed, when the request's builder parsed it; absent,
    /// the layer that needs the statement parses `sql` itself.
    pub stmt: Option<&'a Statement>,
    /// Present: run from the plan cache under the exact text with these
    /// values bound. Absent: a text read, whose WHERE literals the node
    /// lifts into values of its own ([`visit::lift_where_literals`]).
    pub params: Option<&'a [Value]>,
    /// Cancel token and deadline the statement observes at batch grain.
    pub governor: Option<&'a QueryGovernor>,
    /// Plan this statement as under `SET enable_seqscan = off`, whatever
    /// the session says — the optimizer interference of an SVP sub-query,
    /// scoped to the one statement that needs it.
    pub avoid_seqscan: bool,
}

impl<'a> ReadRequest<'a> {
    /// A plain-text read.
    pub fn text(sql: &'a str) -> Self {
        ReadRequest {
            sql,
            stmt: None,
            params: None,
            governor: None,
            avoid_seqscan: false,
        }
    }

    /// A read executed from the plan cache with `params` bound.
    pub fn bound(sql: &'a str, params: &'a [Value]) -> Self {
        ReadRequest {
            params: Some(params),
            ..Self::text(sql)
        }
    }

    /// The same read carrying `stmt`, the parse of its text.
    pub fn parsed(mut self, stmt: &'a Statement) -> Self {
        self.stmt = Some(stmt);
        self
    }

    /// A read of the script `sql`, which parsed to `stmts`: one statement
    /// rides along; a script of several goes as text, for the layer that
    /// runs it to refuse.
    pub fn script(sql: &'a str, stmts: &'a [Statement]) -> Self {
        match stmts {
            [stmt] => Self::text(sql).parsed(stmt),
            _ => Self::text(sql),
        }
    }

    /// The same read under `gov`.
    pub fn governed(mut self, gov: &'a QueryGovernor) -> Self {
        self.governor = Some(gov);
        self
    }

    /// The same read with the avoid-sequential-scans hint set to `avoid`.
    pub fn avoiding_seqscan(mut self, avoid: bool) -> Self {
        self.avoid_seqscan = avoid;
        self
    }

    /// The statement this request runs, with its bound values substituted
    /// for the `$N` placeholders: the carried parse when there are no
    /// values, else the text parsed here, once.
    pub fn statement(&self) -> EngineResult<Cow<'a, Statement>> {
        let params = match (self.stmt, self.params) {
            (Some(stmt), None | Some([])) => return Ok(Cow::Borrowed(stmt)),
            (None, None | Some([])) => return Ok(Cow::Owned(parse_statement(self.sql)?)),
            (_, Some(p)) => p,
        };
        let mut stmt = parse_statement(self.sql)?;
        match &mut stmt {
            Statement::Select(q) => {
                visit::bind_parameters(q, params).map_err(EngineError::TypeError)?;
                Ok(Cow::Owned(stmt))
            }
            _ => Err(EngineError::Unsupported(
                "parameters are only supported on single SELECT statements".into(),
            )),
        }
    }

    /// The statement as text with the bound values substituted for its
    /// `$N` placeholders — what the request is for a connection that only
    /// takes text. Byte-identical to what the template would have produced
    /// with the literals inlined.
    pub fn rendered(&self) -> EngineResult<Cow<'a, str>> {
        match self.params {
            None | Some([]) => Ok(Cow::Borrowed(self.sql)),
            Some(_) => Ok(Cow::Owned(self.statement()?.to_string())),
        }
    }
}
