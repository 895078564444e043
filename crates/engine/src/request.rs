//! The read request: what one read is, for every layer that passes it on.
//!
//! The controller, the Apuama engine, a node processor, the driver seam
//! and [`Database::read`](crate::Database::read) all take this one value,
//! so a read has one way down and nothing on it re-parses the statement to
//! find out what it is: whoever builds a `ReadRequest` has already decided
//! it is a read, and the database's `&self` entry refusing anything but
//! SELECT / SET / EXPLAIN is the check that makes that safe.

use std::borrow::Cow;

use apuama_sql::{parse_statements, visit, Statement, Value};

use crate::error::{EngineError, EngineResult};
use crate::governor::QueryGovernor;

/// One read statement and how to run it.
#[derive(Debug, Clone, Copy)]
pub struct ReadRequest<'a> {
    /// The statement text; `$N` placeholders when `params` is present.
    pub sql: &'a str,
    /// Present: run from the plan cache with these values bound (parsed
    /// and lowered once per text). Absent: plain text, parsed and planned
    /// per execution.
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

    /// The statement as text with the bound values substituted for its
    /// `$N` placeholders — what the request is for a connection that only
    /// takes text, and what a rewriter parses. Byte-identical to what the
    /// template would have produced with the literals inlined.
    pub fn rendered(&self) -> EngineResult<Cow<'a, str>> {
        let params = match self.params {
            None | Some([]) => return Ok(Cow::Borrowed(self.sql)),
            Some(p) => p,
        };
        let mut stmts = parse_statements(self.sql)?;
        match stmts.as_mut_slice() {
            [Statement::Select(q)] => {
                visit::bind_parameters(q, params).map_err(EngineError::TypeError)?;
                Ok(Cow::Owned(stmts[0].to_string()))
            }
            _ => Err(EngineError::Unsupported(
                "parameters are only supported on single SELECT statements".into(),
            )),
        }
    }
}
