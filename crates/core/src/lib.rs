//! The Apuama Engine — intra-query parallelism for a C-JDBC-style cluster.
//!
//! This crate is the paper's contribution: a non-intrusive middleware layer
//! between the C-JDBC controller and the per-node DBMSs that adds
//! **Simple Virtual Partitioning (SVP)** intra-query parallelism for OLAP
//! queries while leaving OLTP processing (and C-JDBC itself) untouched.
//!
//! Components, named as in the paper's Fig. 1(b):
//!
//! * **Query Parser** + **Data Catalog** ([`catalog`]) — determines which
//!   tables a query references and whether any of them is virtually
//!   partitionable (fact tables clustered by their VPA);
//! * **SVP rewriter** ([`rewrite`]) — produces one sub-query per node by
//!   injecting a VPA range predicate, decomposing aggregates
//!   (`avg → sum + count`, `count → sum` of partial counts), and
//!   synthesizing the composition query that re-aggregates partial results;
//! * **Node Processor** ([`node`]) — per-node connection pool, and the
//!   optimizer interference (every SVP sub-query is planned as under
//!   `enable_seqscan = off`; the hint rides on the statement's request);
//! * **Result Composer** ([`composer`]) — one per query: folds partial
//!   results as they arrive, loads what is left into an in-memory engine
//!   (the paper uses HSQLDB) and runs the composition query;
//! * **consistency protocol** ([`consistency`]) — per-node transaction
//!   counters plus the update-blocking gate: an SVP query waits for all
//!   replicas to converge, blocks newly arriving update transactions until
//!   every sub-query has been dispatched, then lets updates flow again
//!   under the DBMS's isolation;
//! * **Intra-Query Executor** ([`engine`]) — ties it all together and
//!   exposes per-node [`apuama_cjdbc::Connection`]s so C-JDBC plugs in
//!   without source changes.

pub mod avp;
pub mod catalog;
pub mod composer;
pub mod consistency;
pub mod engine;
pub mod fault;
pub mod node;
pub mod rewrite;

pub use avp::{execute_avp, AvpConfig, AvpOutcome, NodeTrace};
pub use catalog::{DataCatalog, VirtualPartitioning};
pub use composer::{compose, compose_with, Composed, ComposerStrategy, StreamingComposer};
pub use consistency::UpdateGate;
pub use engine::{route, ApuamaConfig, ApuamaConnection, ApuamaEngine, SvpExecution};
pub use fault::{FaultPolicy, RecoveryReport};
pub use node::NodeProcessor;
pub use rewrite::{
    ComposeSpec, FoldFn, LiteralSubqueries, QueryTemplate, Rewritten, SvpPlan, SvpRewriter,
};
