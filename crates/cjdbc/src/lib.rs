//! A C-JDBC-style database-cluster controller.
//!
//! C-JDBC (Cecchet, 2004) is the middleware Apuama extends: applications
//! talk JDBC to a *controller*, which presents a set of independent DBMS
//! replicas as one virtual database. This crate re-implements the
//! components the paper's architecture diagram (Fig. 1a) relies on:
//!
//! * [`connection::Connection`] — the driver seam. C-JDBC reaches each
//!   backend through a JDBC driver; Apuama interposes *at exactly this
//!   interface* ("C-JDBC no longer makes any direct connection to the
//!   DBMSs. Each Database Backend connects to Apuama through a JDBC
//!   driver"). Anything implementing the trait — a raw engine node or the
//!   Apuama proxy — can serve as a backend.
//! * [`scheduler::WriteScheduler`] — total ordering of update requests:
//!   "makes sure that update requests are executed in the same order by
//!   all DBMSs", while reads proceed concurrently.
//! * [`controller::Controller`] — the virtual-database façade gluing the
//!   above together. It balances reads as the paper configures C-JDBC:
//!   "the node with the least number of pending requests".
//!
//! * [`health::HealthTracker`] — per-node consecutive-failure circuit
//!   breaker shared between the read balancer and Apuama's SVP dispatcher:
//!   over an engine's connections, [`Controller::new`] takes the engine's
//!   own ([`Connection::engine_seam`]). Only a backend that did not serve a
//!   request (`EngineError::Unavailable`) is charged with a failure.
//! * [`fault::FaultyConnection`] — deterministic fault injection at the
//!   `Connection` seam for tests and the ablation bench.
//! * [`recovery::RecoveryLog`] — C-JDBC's recovery log: every committed
//!   write is recorded (statement + scheduler sequence) so a failed
//!   backend can replay the suffix it missed and rejoin the cluster
//!   consistently. The rejoin state machine (`Disabled → CatchingUp →
//!   Probing → Enabled`) lives in [`Controller::rejoin_backend`]; see
//!   DESIGN.md §8 "Recovery & rejoin semantics" for the protocol.
//! * [`admission::AdmissionController`] — per-class (OLTP/OLAP) admission
//!   limits with a bounded wait queue and graceful shedding, consulted by
//!   the controller before dispatch. See DESIGN.md §11 "Resource
//!   governance".
//!
//! Out of scope (documented in DESIGN.md): controller replication — a
//! controller crash still loses the virtual database.

pub mod admission;
pub mod connection;
pub mod controller;
pub mod fault;
pub mod health;
pub mod recovery;
pub mod scheduler;

pub use admission::{AdmissionController, AdmissionPermit, AdmissionPolicy};
pub use connection::{
    classify, classify_script, Connection, EngineNode, NodeConnection, StatementKind,
};
pub use controller::{Controller, ControllerConfig, GovernanceCounters};
pub use fault::{FaultPlan, FaultTarget, FaultyConnection};
pub use health::{BreakerPolicy, CircuitState, HealthTracker};
pub use recovery::{
    engine_node_clone_fn, CloneFn, LogEntry, NoRejoinHooks, RecoveryConfig, RecoveryLog,
    RejoinHooks, RejoinOutcome, RejoinState,
};
pub use scheduler::WriteScheduler;
