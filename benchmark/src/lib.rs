//! End-to-end benchmark of the real-thread Apuama cluster.
//!
//! Drives `Controller` → `ApuamaEngine` → four in-process replicas with
//! the TPC-H evaluation queries, refresh transactions and pass-through
//! statements, in four traffic mixes. See `README.md` for the metric
//! definitions and how to run it.

pub mod aa;
pub mod cluster;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
