//! A single-node relational engine — the "PostgreSQL" each cluster node runs.
//!
//! The Apuama paper treats the per-node DBMS as a black box reachable over
//! JDBC. This crate supplies that black box: enough of a relational engine
//! to execute the TPC-H evaluation queries and refresh streams for real,
//! while exposing the two behaviours the middleware's correctness and
//! performance arguments rest on:
//!
//! 1. **A cost-based access-path choice** between full sequential scans and
//!    clustered-index range scans, overridable per session with
//!    `SET enable_seqscan = off` and per statement with
//!    [`ReadRequest::avoid_seqscan`] — the interference Apuama applies to
//!    SVP sub-queries (paper §3: "Apuama directly interferes in optimizer
//!    choices in order to force index usage").
//! 2. **Exact I/O accounting** through a per-node LRU buffer pool, so the
//!    simulator can convert page faults into time and reproduce the paper's
//!    memory-fit super-linear speedups.
//!
//! Architecture (one module per stage, DataFusion-style layering):
//!
//! ```text
//!   SQL text ──parse──▶ AST ──plan──▶ AccessPlan ──execute──▶ rows + stats
//!              (apuama-sql)  (planner)              (exec, eval)
//! ```
//!
//! Updates (INSERT/DELETE/UPDATE) maintain every index and support
//! single-session transactions with an undo log — the granularity C-JDBC
//! needs for its totally ordered write broadcast.

mod agg;
pub mod catalog;
pub mod db;
pub mod error;
pub mod eval;
pub mod exec;
pub mod governor;
mod physical;
mod plan_cache;
pub mod planner;
mod request;
pub mod stats;
mod subquery;
pub mod table;

pub use agg::{FoldFn, PartialAgg};
pub use catalog::{Catalog, ColumnMeta, TableSchema};
pub use db::{Database, QueryOutput, Settings};
pub use error::{EngineError, EngineResult};
pub use exec::SCAN_BATCH_ROWS;
pub use governor::{CancelToken, MemoryGauge, QueryGovernor};
pub use plan_cache::PlanCacheStats;
pub use request::ReadRequest;
pub use stats::{ExecStats, PhaseTiming};
pub use table::Table;
