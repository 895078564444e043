//! Discrete-event cluster simulator for the Apuama evaluation.
//!
//! **What is real and what is simulated.** Every query in every experiment
//! is *executed for real* against per-node replicas of the TPC-H database
//! (full engine: parsing, planning, index scans, joins, aggregation), and
//! every update mutates every replica, so buffer-pool state, replica
//! contents, and query answers evolve exactly as in a live cluster. Only
//! **time** is simulated: the engine reports hardware-neutral work counters
//! ([`apuama_engine::ExecStats`]) and the [`cost::CostModel`] — calibrated
//! to the paper's 2006 testbed (dual 2.2 GHz Opteron, 2 GB RAM, local
//! disk, Gigabit Ethernet) — prices them into milliseconds on a virtual
//! clock.
//!
//! Why this reproduces the paper's figures:
//!
//! * the per-node buffer pool is sized at the paper's RAM:database ratio,
//!   so virtual partitions start fitting in memory at the same node counts
//!   — the source of the super-linear speedups in Fig. 2 and Fig. 3;
//! * each node is a 2-server queue (two CPUs per node), so concurrent
//!   sequences contend exactly as the throughput experiments require;
//! * update broadcasts place one task on *every* node plus an O(n)
//!   coordination charge, producing the 16→32-node flattening of Fig. 4.
//!
//! Each kind of job is priced through one path: an SVP query through
//! [`SimCluster::exec_svp`] (the engine's bound sub-queries, one streaming
//! composition, the engine's requeue rule under a fault), a pass-through
//! read through [`SimCluster::exec_read`], a write through
//! [`SimCluster::broadcast_write`]; concurrent runs, closed- or open-loop,
//! share one event core.
//!
//! Modules: [`cost`] (work → milliseconds), [`cluster`] (replicas + SVP
//! machinery), [`des`] (event queue and node queues), [`isolated`]
//! (Fig. 2 runs), [`workload`] (Figs. 3–4 runs and the overload storm),
//! [`recovery`] (rejoin pricing).

pub mod cluster;
pub mod cost;
pub mod des;
pub mod isolated;
pub mod recovery;
pub mod workload;

pub use cluster::{
    ComposedTiming, SimBalancer, SimCluster, SimClusterConfig, SimFault, SimQueryResult,
};
pub use cost::CostModel;
pub use isolated::{run_isolated, IsolatedReport};
pub use recovery::{price_rejoin, RejoinCost};
pub use workload::{
    run_overload, run_workload, OverloadGovernance, OverloadReport, OverloadSpec, SimReport,
    WorkloadSpec,
};
