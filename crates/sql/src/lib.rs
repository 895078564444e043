//! SQL front end for the Apuama database-cluster reproduction.
//!
//! This crate provides the pieces every other layer builds on:
//!
//! * [`Value`] — the dynamic scalar type flowing through the system
//!   (integers, floats, strings, dates, intervals, booleans, NULL),
//! * a hand-written [`lexer`] and recursive-descent [`parser`] for the SQL
//!   dialect used by the TPC-H evaluation queries (SELECT with joins,
//!   aggregates, GROUP BY / HAVING / ORDER BY / LIMIT, EXISTS / IN /
//!   scalar subqueries, CASE, BETWEEN, LIKE, date/interval arithmetic)
//!   plus the DML/DDL and session statements the cluster needs
//!   (INSERT, DELETE, UPDATE, CREATE TABLE/INDEX, SET, BEGIN/COMMIT/ROLLBACK),
//! * an [`ast`] whose `Display` implementation renders back to parseable SQL —
//!   the property the SVP rewriter depends on (rewrite the tree, re-render,
//!   ship the text to a backend), and
//! * [`visit`] — read-only walkers and in-place mutators used by the
//!   Apuama query parser (table-reference discovery) and the SVP rewriter
//!   (range-predicate injection, aggregate decomposition).
//!
//! The dialect deliberately mirrors what the paper's middleware needed from
//! JDBC-reachable DBMSs: enough SQL to run TPC-H queries Q1, Q3, Q4, Q5, Q6,
//! Q12, Q14 and Q21 and the RF1/RF2 refresh streams, nothing more exotic.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod value;
pub mod visit;

pub use ast::{
    BinOp, ColumnDef, ColumnRef, DataType, Expr, OrderByItem, Select, SelectItem, SetQuantifier,
    Statement, TableRef, UnaryOp,
};
pub use lexer::{Lexer, Token};
pub use parser::{parse_expression, parse_statement, parse_statements, Parser, MAX_NESTING};
pub use value::{Date, HashableValue, Interval, Value};

/// Errors produced while lexing or parsing SQL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset into the source text where the error was detected.
    pub offset: usize,
}

impl ParseError {
    pub(crate) fn new(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Result alias used throughout the crate.
pub type ParseResult<T> = Result<T, ParseError>;
