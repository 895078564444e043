//! Fault injection at the `Connection` seam.
//!
//! [`FaultyConnection`] wraps any backend connection and injects
//! deterministic, seeded faults — errors, fixed delays, and stalls — so
//! unit tests, property tests, and the ablation bench can exercise the
//! retry/reassignment machinery without a real flaky network. Everything is
//! reproducible: the error coin-flips come from a seeded [`StdRng`] and the
//! stall cadence is a fixed modulus over the per-connection call counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use apuama_engine::{EngineError, EngineResult, QueryOutput, ReadRequest};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::connection::{classify, Connection, StatementKind};
use crate::health::HealthTracker;
use crate::recovery::RejoinHooks;

/// Which statements a fault plan applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultTarget {
    /// Every statement (reads, writes, SETs).
    #[default]
    All,
    /// Reads only (SELECT and SET) — writes still replicate, which keeps
    /// the consistency protocol's transaction counters converging.
    Reads,
    /// Writes only.
    Writes,
}

/// A deterministic fault schedule for one wrapped connection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a matching statement fails with an
    /// injected error (before touching the backend). `1.0` fails every
    /// matching call.
    pub error_rate: f64,
    /// Fixed latency added to every matching statement.
    pub delay: Duration,
    /// Every `stall_every`-th matching statement (1-based) additionally
    /// sleeps `stall` before executing — the "slow node" a per-sub-query
    /// timeout is meant to catch. `stall_every = 0` disables stalls.
    pub stall_every: u64,
    /// Stall duration.
    pub stall: Duration,
    /// Restrict injection to a statement class.
    pub target: FaultTarget,
    /// Only statements containing this fragment are targeted (e.g.
    /// `"from orders"` to fail just the sub-queries on the fact table).
    pub only_matching: Option<String>,
    /// Scripted fail-at-call-N / recover-at-call-M windows: half-open
    /// `[from, to)` ranges over the 1-based *lifetime* call counter (all
    /// statements, matching or not — so a window means "the node is dead
    /// between its Nth and Mth request" regardless of statement mix).
    /// A matching statement whose call number falls inside any window
    /// fails deterministically, independent of `error_rate`. Note that
    /// `set_plan` does not reset the call counter, so windows compose with
    /// mid-test plan swaps.
    pub fail_windows: Vec<(u64, u64)>,
    /// Seed for the error coin-flips.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            error_rate: 0.0,
            delay: Duration::ZERO,
            stall_every: 0,
            stall: Duration::ZERO,
            target: FaultTarget::All,
            only_matching: None,
            fail_windows: Vec::new(),
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// A plan that fails every matching statement.
    pub fn fail_all() -> Self {
        FaultPlan {
            error_rate: 1.0,
            ..FaultPlan::default()
        }
    }

    /// A plan that fails every statement whose lifetime call number lies in
    /// `[from, to)` — "the node dies at its `from`-th request and heals at
    /// its `to`-th". Deterministic: no coin-flips involved.
    pub fn fail_between(from: u64, to: u64) -> Self {
        FaultPlan {
            fail_windows: vec![(from, to)],
            ..FaultPlan::default()
        }
    }
}

/// A [`Connection`] decorator injecting the faults described by its
/// [`FaultPlan`]. The plan can be swapped at runtime (`set_plan` / `heal`)
/// to script failure-then-recovery sequences.
pub struct FaultyConnection {
    inner: Arc<dyn Connection>,
    plan: Mutex<FaultPlan>,
    rng: Mutex<StdRng>,
    calls: AtomicU64,
    matching_calls: AtomicU64,
    injected_errors: AtomicU64,
    injected_stalls: AtomicU64,
}

impl FaultyConnection {
    pub fn new(inner: Arc<dyn Connection>, plan: FaultPlan) -> Arc<Self> {
        let rng = StdRng::seed_from_u64(plan.seed);
        Arc::new(FaultyConnection {
            inner,
            plan: Mutex::new(plan),
            rng: Mutex::new(rng),
            calls: AtomicU64::new(0),
            matching_calls: AtomicU64::new(0),
            injected_errors: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
        })
    }

    /// Replaces the fault plan (and reseeds the error stream from it).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.rng.lock() = StdRng::seed_from_u64(plan.seed);
        *self.plan.lock() = plan;
    }

    /// Stops injecting anything; the connection behaves like the inner one.
    pub fn heal(&self) {
        self.set_plan(FaultPlan::default());
    }

    /// Statements seen (matching or not).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Statements the active plan targeted.
    pub fn matching_calls(&self) -> u64 {
        self.matching_calls.load(Ordering::SeqCst)
    }

    /// Errors injected so far.
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors.load(Ordering::SeqCst)
    }

    /// Stalls injected so far.
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls.load(Ordering::SeqCst)
    }

    /// `kind` is what the caller already knows the statement to be (a
    /// request down [`Connection::read`] is a read); `None` classifies the
    /// text, and only when the plan's target needs to know.
    fn matches(&self, plan: &FaultPlan, sql: &str, kind: Option<StatementKind>) -> bool {
        if let Some(frag) = &plan.only_matching {
            if !sql.contains(frag.as_str()) {
                return false;
            }
        }
        let wanted = match plan.target {
            FaultTarget::All => return true,
            FaultTarget::Reads => StatementKind::Read,
            FaultTarget::Writes => StatementKind::Write,
        };
        // If the statement does not even classify, let the backend
        // produce its own (real) parse error.
        kind.or_else(|| classify(sql).ok()) == Some(wanted)
    }

    /// Runs the plan against one statement: sleeps for delays/stalls and
    /// returns the injected error, if any. `Ok(())` means "pass through".
    fn inject(&self, sql: &str, kind: Option<StatementKind>) -> EngineResult<()> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        let plan = self.plan.lock().clone();
        if self.matches(&plan, sql, kind) {
            let matching = self.matching_calls.fetch_add(1, Ordering::SeqCst) + 1;
            if !plan.delay.is_zero() {
                std::thread::sleep(plan.delay);
            }
            if plan.stall_every > 0 && matching.is_multiple_of(plan.stall_every) {
                self.injected_stalls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(plan.stall);
            }
            if plan
                .fail_windows
                .iter()
                .any(|&(from, to)| call >= from && call < to)
            {
                self.injected_errors.fetch_add(1, Ordering::SeqCst);
                return Err(EngineError::Unavailable(format!(
                    "injected fault (scheduled outage) on {}",
                    self.inner.name()
                )));
            }
            if plan.error_rate > 0.0 {
                let hit = plan.error_rate >= 1.0 || self.rng.lock().random_bool(plan.error_rate);
                if hit {
                    self.injected_errors.fetch_add(1, Ordering::SeqCst);
                    return Err(EngineError::Unavailable(format!(
                        "injected fault on {}",
                        self.inner.name()
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Connection for FaultyConnection {
    fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.inject(sql, None)?;
        self.inner.execute(sql)
    }

    /// One request is one call: the fault (matched against the statement
    /// text as sent, placeholders included) and then the whole request,
    /// governor and hint with it, to the wrapped connection.
    fn read(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        self.inject(req.sql, Some(StatementKind::Read))?;
        self.inner.read(req)
    }

    fn mem_peak_bytes(&self) -> u64 {
        self.inner.mem_peak_bytes()
    }

    fn engine_seam(&self) -> Option<(Arc<HealthTracker>, Arc<dyn RejoinHooks>)> {
        self.inner.engine_seam()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::{EngineNode, NodeConnection};
    use apuama_engine::Database;
    use apuama_sql::Value;

    fn backend() -> Arc<dyn Connection> {
        let mut db = Database::in_memory();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1)").unwrap();
        Arc::new(NodeConnection::new(EngineNode::new("n0", db)))
    }

    #[test]
    fn fail_all_fails_everything_until_healed() {
        let c = FaultyConnection::new(backend(), FaultPlan::fail_all());
        assert!(c.execute("select a from t").is_err());
        assert!(c.execute("insert into t values (2)").is_err());
        assert_eq!(c.injected_errors(), 2);
        c.heal();
        let out = c.execute("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(1));
    }

    #[test]
    fn reads_target_lets_writes_through() {
        let c = FaultyConnection::new(
            backend(),
            FaultPlan {
                target: FaultTarget::Reads,
                ..FaultPlan::fail_all()
            },
        );
        c.execute("insert into t values (2)").unwrap();
        assert!(c.execute("select a from t").is_err());
        assert!(c.execute("set enable_seqscan = off").is_err());
        assert_eq!(c.injected_errors(), 2);
    }

    #[test]
    fn only_matching_narrows_injection_to_a_fragment() {
        let c = FaultyConnection::new(
            backend(),
            FaultPlan {
                only_matching: Some("enable_seqscan".into()),
                ..FaultPlan::fail_all()
            },
        );
        assert!(c.execute("set enable_seqscan = off").is_err());
        c.execute("select a from t").unwrap();
        assert_eq!(c.injected_errors(), 1);
    }

    #[test]
    fn error_rate_is_seeded_and_deterministic() {
        let plan = FaultPlan {
            error_rate: 0.5,
            seed: 42,
            ..FaultPlan::default()
        };
        let run = |plan: FaultPlan| -> Vec<bool> {
            let c = FaultyConnection::new(backend(), plan);
            (0..32)
                .map(|_| c.execute("select a from t").is_err())
                .collect()
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b, "same seed, same fault sequence");
        assert!(a.iter().any(|&e| e) && a.iter().any(|&e| !e));
    }

    #[test]
    fn fail_window_scripts_a_die_then_heal_outage() {
        // Dies at call 2, heals at call 4: ok, err, err, ok, ok...
        let c = FaultyConnection::new(backend(), FaultPlan::fail_between(2, 4));
        let outcomes: Vec<bool> = (0..5)
            .map(|_| c.execute("select a from t").is_ok())
            .collect();
        assert_eq!(outcomes, vec![true, false, false, true, true]);
        assert_eq!(c.injected_errors(), 2);
    }

    #[test]
    fn fail_windows_respect_the_target_filter_but_count_all_calls() {
        // Window spans calls 1..=3 of the *lifetime* counter, yet only
        // writes are targeted: the read at call 2 sails through while the
        // writes at calls 1 and 3 die.
        let c = FaultyConnection::new(
            backend(),
            FaultPlan {
                target: FaultTarget::Writes,
                ..FaultPlan::fail_between(1, 4)
            },
        );
        assert!(c.execute("insert into t values (2)").is_err()); // call 1
        c.execute("select a from t").unwrap(); // call 2: read, not targeted
        assert!(c.execute("insert into t values (3)").is_err()); // call 3
        c.execute("insert into t values (4)").unwrap(); // call 4: healed
        assert_eq!(c.injected_errors(), 2);
    }

    #[test]
    fn set_plan_keeps_the_call_counter_so_windows_compose() {
        let c = FaultyConnection::new(backend(), FaultPlan::default());
        c.execute("select a from t").unwrap(); // call 1
        c.execute("select a from t").unwrap(); // call 2
        c.set_plan(FaultPlan::fail_between(3, 4));
        assert!(c.execute("select a from t").is_err()); // call 3: in window
        c.execute("select a from t").unwrap(); // call 4: recovered
        assert_eq!(c.injected_errors(), 1);
    }

    #[test]
    fn stall_cadence_counts_matching_statements() {
        let c = FaultyConnection::new(
            backend(),
            FaultPlan {
                stall_every: 2,
                stall: Duration::from_millis(1),
                ..FaultPlan::default()
            },
        );
        for _ in 0..4 {
            c.execute("select a from t").unwrap();
        }
        assert_eq!(c.injected_stalls(), 2);
    }
}
