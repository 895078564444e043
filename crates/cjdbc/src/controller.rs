//! The virtual-database façade.
//!
//! The controller is what the client application connects to: it classifies
//! each request, broadcasts writes to every backend under the write
//! scheduler's total order, and load-balances reads across backends. This
//! is the full inter-query-parallelism story of C-JDBC on replicated data —
//! any read can go to any node — and the exact layer Apuama slots beneath
//! without modification.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use apuama_engine::{EngineError, EngineResult, QueryOutput, ReadRequest};
use apuama_sql::parse_statements;
use parking_lot::Mutex;

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::connection::{classify_script, Connection, StatementKind};
use crate::health::{BreakerPolicy, HealthTracker};
use crate::recovery::{
    NoRejoinHooks, RecoveryConfig, RecoveryLog, RejoinHooks, RejoinOutcome, RejoinState,
};
use crate::scheduler::WriteScheduler;

/// Entries replayed per live catch-up round of a rejoin (new writes keep
/// flowing between rounds).
const REJOIN_CATCHUP_BATCH: usize = 32;
/// Once a rejoining backend's lag drops to this many entries, live replay
/// stops and the rest drains under the write pause (the paper's
/// update-blocking gate, applied to catch-up).
const REJOIN_PAUSE_THRESHOLD: u64 = 4;
/// Live rounds before the write-pause drain is forced: guards against a
/// write rate that outruns replay forever.
const REJOIN_MAX_LIVE_ROUNDS: usize = 64;

/// One registered backend and its in-flight request counter.
struct Backend {
    conn: Arc<dyn Connection>,
    /// Requests the backend is serving or waiting to serve: the reads
    /// routed to it, and the write broadcast while it waits for or
    /// applies the write (see [`Controller::pending_counts`]).
    pending: AtomicUsize,
    /// Rejoin state machine position ([`RejoinState`] as u8). Only
    /// `Enabled` backends receive routed traffic; a backend that failed a
    /// request moves to `Disabled` (C-JDBC's backend-disable) and comes
    /// back through [`Controller::rejoin_backend`]'s
    /// `CatchingUp → Probing → Enabled` path.
    state: AtomicU8,
    /// Reads this backend has served (load-balance diagnostics).
    reads_served: AtomicUsize,
}

/// One request counted pending on a backend for as long as it lives: the
/// count drops on every exit, an error or a panic included.
struct Pending<'a>(&'a AtomicUsize);

impl<'a> Pending<'a> {
    fn raise(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        Pending(count)
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Controller construction options.
#[derive(Default)]
pub struct ControllerConfig {
    /// On a backend failure, disable that backend and keep serving from
    /// the rest (C-JDBC's behaviour); the recovery log keeps tracking what
    /// the disabled backend misses so [`Controller::rejoin_backend`] can
    /// catch it up later. When false, a failing write surfaces the error
    /// and all backends stay enabled.
    pub disable_failed_backends: bool,
    /// Circuit-breaker tuning for the per-backend health tracker, when the
    /// controller builds its own (its connections front no engine). Unlike
    /// `disable_failed_backends` (permanent until rejoin), the breaker is
    /// transient: it opens after consecutive failures and recovers on its
    /// own through a timed probe.
    pub breaker: BreakerPolicy,
    /// Recovery-log retention and rejoin-protocol tuning.
    pub recovery: RecoveryConfig,
    /// Admission limits and shed policy consulted before every client
    /// statement is dispatched. Defaults to fully open (no governance).
    pub admission: AdmissionPolicy,
}

/// Governance counters surfaced by [`Controller::governance_counts`]
/// (DESIGN.md §11): how many statements the admission gate let in or
/// shed, how many admitted statements ended cancelled or past a deadline,
/// and the largest pipeline-breaker memory peak any backend reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernanceCounters {
    /// Statements the admission gate let through.
    pub admitted: u64,
    /// Statements shed (queue full or queue-wait deadline).
    pub shed: u64,
    /// Admitted statements that ended with `EngineError::Cancelled`.
    pub cancelled: u64,
    /// Admitted statements that ended with `EngineError::Timeout`.
    pub deadline_exceeded: u64,
    /// Max over the backends' memory-gauge high-water marks, in bytes.
    pub peak_mem_bytes: u64,
}

/// The C-JDBC controller: one virtual database over N backends.
pub struct Controller {
    backends: Vec<Backend>,
    scheduler: WriteScheduler,
    disable_failed: bool,
    health: Arc<HealthTracker>,
    log: Arc<RecoveryLog>,
    recovery: RecoveryConfig,
    hooks: Arc<dyn RejoinHooks>,
    /// Serializes rejoin/enable attempts: one backend recovers at a time.
    rejoin_token: Mutex<()>,
    /// The admission gate every client statement passes through.
    admission: AdmissionController,
    /// Admitted statements that ended cancelled / past a deadline.
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl Controller {
    /// Builds a controller over the given backend connections. When they
    /// are one engine's connections, in node order
    /// ([`Connection::engine_seam`]), the controller shares that engine's
    /// health tracker — the read balancer and the SVP dispatcher consult
    /// the same circuits — and fires its rejoin hooks, so disabling a
    /// backend takes it out of the engine's update gate too. Otherwise it
    /// builds its own tracker from [`ControllerConfig::breaker`] and fires
    /// no hooks.
    pub fn new(conns: Vec<Arc<dyn Connection>>, config: ControllerConfig) -> Controller {
        assert!(!conns.is_empty(), "a cluster needs at least one backend");
        let seam = conns[0].engine_seam().filter(|(health, _)| {
            health.node_count() == conns.len()
                && conns[1..].iter().all(|c| {
                    c.engine_seam()
                        .is_some_and(|(other, _)| Arc::ptr_eq(health, &other))
                })
        });
        let (health, hooks) = seam.unwrap_or_else(|| {
            (
                Arc::new(HealthTracker::new(conns.len(), config.breaker)),
                Arc::new(NoRejoinHooks) as Arc<dyn RejoinHooks>,
            )
        });
        let log = Arc::new(RecoveryLog::new(
            conns.len(),
            config.recovery.max_entries,
            config.recovery.retention,
        ));
        Controller {
            backends: conns
                .into_iter()
                .map(|conn| Backend {
                    conn,
                    pending: AtomicUsize::new(0),
                    state: AtomicU8::new(RejoinState::Enabled.as_u8()),
                    reads_served: AtomicUsize::new(0),
                })
                .collect(),
            scheduler: WriteScheduler::new(),
            disable_failed: config.disable_failed_backends,
            health,
            log,
            recovery: config.recovery,
            hooks,
            rejoin_token: Mutex::new(()),
            admission: AdmissionController::new(config.admission),
            cancelled: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
        }
    }

    /// The shared per-backend health tracker. Hand a clone to whatever
    /// dispatches work outside the controller (Apuama's SVP executor uses
    /// it to route sub-queries around open circuits).
    pub fn health(&self) -> Arc<HealthTracker> {
        Arc::clone(&self.health)
    }

    /// The write recovery log (rejoin observability, tests, tooling).
    pub fn recovery_log(&self) -> Arc<RecoveryLog> {
        Arc::clone(&self.log)
    }

    /// Where backend `i` stands in the rejoin state machine.
    pub fn backend_state(&self, i: usize) -> RejoinState {
        RejoinState::from_u8(self.backends[i].state.load(Ordering::SeqCst))
    }

    fn set_state(&self, i: usize, s: RejoinState) {
        self.backends[i].state.store(s.as_u8(), Ordering::SeqCst);
    }

    /// Indices of the backends currently in rotation.
    pub fn enabled_backends(&self) -> Vec<usize> {
        (0..self.backends.len())
            .filter(|&i| self.is_enabled(i))
            .collect()
    }

    fn is_enabled(&self, i: usize) -> bool {
        self.backends[i].state.load(Ordering::SeqCst) == RejoinState::Enabled.as_u8()
    }

    /// Administratively removes backend `i` from rotation: it stops
    /// receiving routed traffic (reads, writes, and — via quarantine — any
    /// external dispatcher sharing the health tracker), the recovery log
    /// starts its retention deadline, and the rejoin hooks take it out of
    /// the consistency protocol. Idempotent.
    pub fn disable_backend(&self, i: usize) {
        self.set_state(i, RejoinState::Disabled);
        self.log.mark_disabled(i);
        self.health.set_quarantined(i, true);
        self.hooks.on_disable(i);
    }

    /// Puts a backend back into rotation — but only if it is consistent:
    /// if its applied sequence lags the recovery log's head, the call is
    /// refused (re-enabling a stale replica would silently serve stale
    /// reads and corrupt SVP results). Catch a lagging replica up with
    /// [`Controller::rejoin_backend`], or override with
    /// [`Controller::force_enable_backend`].
    pub fn enable_backend(&self, i: usize) -> EngineResult<()> {
        let _rejoin = self.rejoin_token.lock();
        let _pause = self.scheduler.pause_writes();
        if self.backend_state(i) == RejoinState::Enabled {
            return Ok(());
        }
        let applied = self.log.applied_seq(i);
        let head = self.log.head();
        if applied < head {
            return Err(EngineError::Unsupported(format!(
                "backend {i} lags the recovery log (applied {applied} < head {head}); \
                 use rejoin_backend to catch it up or force_enable_backend to override"
            )));
        }
        self.admit(i);
        Ok(())
    }

    /// The escape hatch: re-enters backend `i` unconditionally, marking it
    /// consistent in the log even if it is not. This is the pre-recovery-log
    /// behaviour, made explicit for tests and operators who re-synced the
    /// replica out of band.
    pub fn force_enable_backend(&self, i: usize) {
        let _rejoin = self.rejoin_token.lock();
        let _pause = self.scheduler.pause_writes();
        self.log.force_set_applied(i, self.log.head());
        self.admit(i);
    }

    /// Readmission (call with writes paused): log bookkeeping, quarantine
    /// lift, engine hook, state flip — in that order, so by the time the
    /// backend is `Enabled` every layer agrees it is consistent.
    fn admit(&self, i: usize) {
        let applied = self.log.applied_seq(i);
        self.log.mark_enabled(i);
        self.health.set_quarantined(i, false);
        self.hooks.on_enable(i, applied);
        self.set_state(i, RejoinState::Enabled);
    }

    fn abort_rejoin(&self, i: usize) {
        self.set_state(i, RejoinState::Disabled);
        self.log.mark_disabled(i); // refresh the retention deadline
    }

    /// Brings a disabled backend back through the full rejoin protocol:
    ///
    /// 1. **CatchingUp** — replay the missed suffix from the recovery log
    ///    in batches while new writes keep flowing (each round shrinks the
    ///    lag; a bound on the rounds stops a write rate that outruns
    ///    replay).
    /// 2. Once the lag is small (or the round budget is spent), drain the
    ///    rest under a **write pause** — the paper's update-blocking gate
    ///    applied to recovery — so the backend reaches the exact log head.
    ///    If truncation already ate the suffix (retention expired), fall
    ///    back to a full re-clone from a healthy peer (`clone_via`).
    /// 3. **Probing** — run the configured probe statement against the
    ///    backend; a failure aborts the rejoin and records with the
    ///    breaker.
    /// 4. **Enabled** — still under the pause: seed the engine's counters
    ///    via the rejoin hooks and re-enter rotation.
    ///
    /// Any replay/clone/probe error aborts back to `Disabled` (with a
    /// fresh retention deadline) and surfaces the error. Rejoins are
    /// serialized; rejoining an already-enabled backend is a no-op.
    pub fn rejoin_backend(&self, i: usize) -> EngineResult<RejoinOutcome> {
        let _rejoin = self.rejoin_token.lock();
        if self.backend_state(i) == RejoinState::Enabled {
            return Ok(RejoinOutcome::default());
        }
        let mut out = RejoinOutcome::default();
        // Enter catch-up: quarantined for routing, excluded from the
        // consistency protocol, but receiving replay writes.
        self.health.set_quarantined(i, true);
        self.hooks.on_disable(i);
        self.set_state(i, RejoinState::CatchingUp);

        // Phase 1: live replay, writes still flowing.
        let mut rounds = 0;
        while self.log.has_suffix_for(i)
            && self.log.lag(i) > REJOIN_PAUSE_THRESHOLD
            && rounds < REJOIN_MAX_LIVE_ROUNDS
        {
            for entry in self.log.suffix_for(i, REJOIN_CATCHUP_BATCH) {
                if let Err(e) = self.backends[i].conn.execute(&entry.sql) {
                    self.abort_rejoin(i);
                    return Err(e);
                }
                self.log.mark_applied(i, entry.seq);
                out.live_replayed += 1;
            }
            self.log.checkpoint();
            rounds += 1;
        }

        // Phase 2: final drain (or re-clone) under the write pause. The
        // log is frozen while we hold the pause, so reaching the head here
        // means the replica is exactly consistent when it re-enters.
        let pause = self.scheduler.pause_writes();
        if !self.log.has_suffix_for(i) {
            // Truncation outran this backend: replay cannot reconstruct
            // it. Re-provision wholesale from a healthy peer.
            let Some(clone) = self.recovery.clone_via.clone() else {
                self.abort_rejoin(i);
                return Err(EngineError::Unsupported(format!(
                    "backend {i}'s recovery-log suffix was truncated and no \
                     clone_via is configured: cannot rejoin"
                )));
            };
            let Some(source) = (0..self.backends.len())
                .find(|&j| j != i && self.backend_state(j) == RejoinState::Enabled)
            else {
                self.abort_rejoin(i);
                return Err(EngineError::Unsupported(
                    "no healthy peer remains to re-clone from".into(),
                ));
            };
            if let Err(e) = clone(source, i) {
                self.abort_rejoin(i);
                return Err(e);
            }
            self.log.force_set_applied(i, self.log.head());
            out.recloned = true;
        } else {
            for entry in self.log.suffix_for(i, 0) {
                if let Err(e) = self.backends[i].conn.execute(&entry.sql) {
                    self.abort_rejoin(i);
                    return Err(e);
                }
                self.log.mark_applied(i, entry.seq);
                out.pause_replayed += 1;
            }
        }
        self.log.checkpoint();

        // Phase 3: health probe. Must be a pass-through read so an
        // interposing engine actually sends it to this one node.
        self.set_state(i, RejoinState::Probing);
        if let Some(probe) = &self.recovery.probe_sql {
            match self.backends[i].conn.execute(probe) {
                Ok(_) => {
                    self.health.record_success(i);
                    out.probed = true;
                }
                Err(e) => {
                    self.health.record_failure(i);
                    self.abort_rejoin(i);
                    return Err(e);
                }
            }
        }

        // Phase 4: admit while still holding the pause — the engine's
        // counter seeding happens with nothing in flight.
        self.admit(i);
        drop(pause);
        Ok(out)
    }

    /// Number of backends.
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Current pending counts per backend: the balancer's input. A backend
    /// counts each read routed to it until the read returns, and the write
    /// broadcast for as long as it waits for or applies the write (the
    /// broadcast visits the backends in turn, so it is pending on one at a
    /// time), as C-JDBC's least-pending balancer counts every request in
    /// flight. A read therefore routes around the replica a write is on.
    /// Consistency is unchanged: a read concurrent with a write may see the
    /// replica before or after it, and a read issued after the write
    /// returned sees it on every backend.
    pub fn pending_counts(&self) -> Vec<usize> {
        self.backends
            .iter()
            .map(|b| b.pending.load(Ordering::SeqCst))
            .collect()
    }

    /// Resource-governance diagnostics (see [`GovernanceCounters`]).
    /// `admitted + shed` equals the number of client statements submitted
    /// through the controller's execute entry points.
    pub fn governance_counts(&self) -> GovernanceCounters {
        GovernanceCounters {
            admitted: self.admission.admitted(),
            shed: self.admission.shed(),
            cancelled: self.cancelled.load(Ordering::SeqCst),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::SeqCst),
            peak_mem_bytes: self
                .backends
                .iter()
                .map(|b| b.conn.mem_peak_bytes())
                .max()
                .unwrap_or(0),
        }
    }

    /// Classifies an admitted statement's terminal error for the
    /// governance counters.
    fn note_outcome<T>(&self, result: &EngineResult<T>) {
        match result {
            Err(EngineError::Cancelled(_)) => {
                self.cancelled.fetch_add(1, Ordering::SeqCst);
            }
            Err(EngineError::Timeout(_)) => {
                self.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
    }

    /// Reads served per backend (load-balance distribution diagnostics).
    pub fn reads_served(&self) -> Vec<usize> {
        self.backends
            .iter()
            .map(|b| b.reads_served.load(Ordering::SeqCst))
            .collect()
    }

    /// Per-backend recovery-log positions (highest applied write
    /// sequence). Equal values mean every replica has applied the same
    /// write history — the convergence property the rejoin tests assert.
    pub fn write_counters(&self) -> Vec<u64> {
        (0..self.backends.len())
            .map(|i| self.log.applied_seq(i))
            .collect()
    }

    /// Total writes put through the scheduler.
    pub fn writes_scheduled(&self) -> u64 {
        self.scheduler.writes_scheduled()
    }

    /// Executes a request, classifying it as the real controller does —
    /// once, here: a read goes down as a [`ReadRequest`] carrying the
    /// statement this classification parsed, and nothing below parses it
    /// again. Returns the output and the
    /// index of the backend that served it (writes report backend 0 —
    /// they ran everywhere). A script that contains a session `SET` takes
    /// the write path: load-balanced, it would land on one backend and the
    /// replicas' sessions would diverge; broadcast in the scheduler's order
    /// and recorded in the recovery log, every enabled backend has it and a
    /// rejoining one replays it.
    pub fn execute(&self, sql: &str) -> EngineResult<(QueryOutput, usize)> {
        let stmts = parse_statements(sql)?;
        match classify_script(&stmts, StatementKind::Write) {
            StatementKind::Read => self.read(&ReadRequest::script(sql, &stmts)),
            StatementKind::Write => self.execute_write(sql).map(|o| (o, 0)),
        }
    }

    /// The read path: admission, then the paper's balancer — the backend
    /// with the fewest pending requests ([`Controller::pending_counts`]:
    /// reads and the write broadcast alike), the lowest index on ties,
    /// picked under one acquisition of the health tracker's lock — over
    /// the enabled backends whose circuits admit traffic (if every enabled
    /// backend's circuit is open, the full enabled set — serving a request
    /// into a tripped backend beats refusing the query outright, and the
    /// attempt doubles as a probe), pending accounting, health recording,
    /// and the disable-on-failure policy. Only a backend that did not
    /// serve the request ([`EngineError::Unavailable`]) is charged with
    /// the failure; any other error is the statement's own and leaves the
    /// backend's health alone. Bound values, client
    /// cancellation and deadline ride into the backend with the request
    /// (engine-backed backends run bound statements from their plan cache
    /// and stop within one batch of a cancel).
    pub fn read(&self, req: &ReadRequest<'_>) -> EngineResult<(QueryOutput, usize)> {
        let _permit = self.admission.admit(StatementKind::Read)?;
        let enabled = (0..self.backends.len()).filter(|&i| self.is_enabled(i));
        let Some(chosen) = self
            .health
            .least_loaded(enabled, |i| self.backends[i].pending.load(Ordering::SeqCst))
        else {
            return Err(EngineError::Unsupported(
                "no enabled backends remain".into(),
            ));
        };
        let backend = &self.backends[chosen];
        let result = {
            let _pending = Pending::raise(&backend.pending);
            backend.conn.read(req)
        };
        self.note_outcome(&result);
        match &result {
            Ok(_) => {
                backend.reads_served.fetch_add(1, Ordering::SeqCst);
                self.health.record_success(chosen);
            }
            Err(EngineError::Unavailable(_)) => self.fail_backend(chosen),
            Err(_) => {}
        }
        result.map(|o| (o, chosen))
    }

    /// Charges backend `i` with a request it did not serve: a breaker
    /// strike, and under `disable_failed_backends` the backend leaves
    /// rotation.
    fn fail_backend(&self, i: usize) {
        self.health.record_failure(i);
        if self.disable_failed {
            self.disable_backend(i);
        }
    }

    /// Totally ordered write broadcast: every enabled backend executes the
    /// script; the first success's output is returned.
    ///
    /// A statement error — the script itself fails, as it then does on
    /// every replica — is surfaced and charges no backend. A backend that
    /// did not serve the write ([`EngineError::Unavailable`]) follows
    /// `disable_failed_backends`: when set, it is taken out of rotation and
    /// the write succeeds if at least one backend applied it (C-JDBC's
    /// model); otherwise the first error is surfaced after the remaining
    /// backends were still given the write, keeping replicas maximally
    /// aligned.
    pub fn execute_write(&self, sql: &str) -> EngineResult<QueryOutput> {
        let _permit = self.admission.admit(StatementKind::Write)?;
        let ticket = self.scheduler.begin_write();
        let mut first: Option<QueryOutput> = None;
        let (mut unavailable, mut statement_error) = (None, None);
        let mut applied_on: Vec<usize> = Vec::new();
        for (i, backend) in self.backends.iter().enumerate() {
            if !self.is_enabled(i) {
                continue;
            }
            // Writes are broadcast to every enabled backend regardless of
            // circuit state: skipping one would silently de-sync a replica
            // that the breaker expects to recover. The outcome still feeds
            // the tracker. The write is pending on the backend while it
            // waits for and applies it, so reads route around it.
            let result = {
                let _pending = Pending::raise(&backend.pending);
                backend.conn.execute(sql)
            };
            match result {
                Ok(out) => {
                    self.health.record_success(i);
                    applied_on.push(i);
                    if first.is_none() {
                        first = Some(out);
                    }
                }
                Err(e @ EngineError::Unavailable(_)) => {
                    self.fail_backend(i);
                    unavailable.get_or_insert(e);
                }
                Err(e) => {
                    statement_error.get_or_insert(e);
                }
            }
        }
        // A write that failed everywhere is never logged: its sequence
        // number becomes a permanent gap (the log's truncation floor, not
        // front-entry arithmetic, detects unreplayable backends).
        if !applied_on.is_empty() {
            self.log.record(ticket.sequence(), sql, &applied_on);
            self.log.checkpoint();
        }
        drop(ticket);
        // A statement error outranks a backend that did not serve.
        let result = match (first, statement_error.or(unavailable)) {
            (Some(out), None) => Ok(out),
            (Some(out), Some(EngineError::Unavailable(_))) if self.disable_failed => Ok(out),
            (_, Some(e)) => Err(e),
            (None, None) => Err(EngineError::Unsupported(
                "no enabled backends remain".into(),
            )),
        };
        self.note_outcome(&result);
        result
    }

    /// Executes a multi-statement write transaction atomically on every
    /// backend (wrapped in BEGIN/COMMIT).
    pub fn execute_write_transaction(&self, statements: &[String]) -> EngineResult<QueryOutput> {
        let script = format!("begin; {}; commit", statements.join("; "));
        self.execute_write(&script)
    }

    /// Name of backend `i`.
    pub fn backend_name(&self, i: usize) -> &str {
        self.backends[i].conn.name()
    }
}

/// Spins until `ready` holds, failing the test with `what` after 10 s.
#[cfg(test)]
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !ready() {
        assert!(start.elapsed().as_secs() < 10, "{what}");
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::{EngineNode, NodeConnection};
    use apuama_engine::Database;
    use apuama_sql::Value;

    fn cluster(n: usize) -> (Controller, Vec<Arc<EngineNode>>) {
        let mut nodes = Vec::new();
        let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
        for i in 0..n {
            let mut db = Database::in_memory();
            db.execute("create table t (a int, b text)").unwrap();
            let node = EngineNode::new(format!("node-{i}"), db);
            conns.push(Arc::new(NodeConnection::new(node.clone())));
            nodes.push(node);
        }
        (Controller::new(conns, ControllerConfig::default()), nodes)
    }

    #[test]
    fn writes_reach_every_replica() {
        let (c, nodes) = cluster(4);
        c.execute("insert into t values (1, 'x')").unwrap();
        c.execute("insert into t values (2, 'y')").unwrap();
        for node in &nodes {
            let n = node.with_db(|db| db.table("t").unwrap().row_count());
            assert_eq!(n, 2);
        }
        assert_eq!(c.write_counters(), vec![2, 2, 2, 2]);
        assert_eq!(c.writes_scheduled(), 2);
    }

    #[test]
    fn reads_are_load_balanced() {
        let (c, _nodes) = cluster(3);
        c.execute("insert into t values (1, 'x')").unwrap();
        // With least-pending and sequential reads, ties go to index 0 every
        // time; verify the read executes and reports a valid backend.
        let (out, backend) = c.execute("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(1));
        assert!(backend < 3);
    }

    #[test]
    fn concurrent_writers_keep_replicas_identical() {
        let (c, nodes) = cluster(3);
        let c = Arc::new(c);
        std::thread::scope(|s| {
            for w in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..25 {
                        c.execute(&format!("insert into t values ({}, 'w{w}')", w * 100 + i))
                            .unwrap();
                    }
                });
            }
        });
        // All replicas converged to the same multiset of rows.
        let reference: Vec<Vec<Value>> =
            nodes[0].with_db(|db| db.query("select a, b from t order by a").unwrap().rows);
        assert_eq!(reference.len(), 100);
        for node in &nodes[1..] {
            let rows = node.with_db(|db| db.query("select a, b from t order by a").unwrap().rows);
            assert_eq!(rows, reference);
        }
    }

    #[test]
    fn write_transaction_is_atomic_per_backend() {
        let (c, nodes) = cluster(2);
        c.execute_write_transaction(&[
            "insert into t values (1, 'a')".to_string(),
            "insert into t values (2, 'b')".to_string(),
        ])
        .unwrap();
        for node in &nodes {
            assert_eq!(node.with_db(|db| db.table("t").unwrap().row_count()), 2);
            assert!(!node.with_db(|db| db.in_transaction()));
        }
    }

    #[test]
    fn mixed_read_write_under_concurrency() {
        let (c, nodes) = cluster(3);
        let c = Arc::new(c);
        std::thread::scope(|s| {
            let cw = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..50 {
                    cw.execute(&format!("insert into t values ({i}, 'x')"))
                        .unwrap();
                }
            });
            for _ in 0..3 {
                let cr = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..50 {
                        let (out, _) = cr.execute("select count(*) as n from t").unwrap();
                        let n = out.rows[0][0].as_i64().unwrap();
                        assert!((0..=50).contains(&n));
                    }
                });
            }
        });
        for node in &nodes {
            assert_eq!(node.with_db(|db| db.table("t").unwrap().row_count()), 50);
        }
    }

    #[test]
    fn failed_write_surfaces_error() {
        let (c, _nodes) = cluster(2);
        assert!(c.execute("insert into missing values (1)").is_err());
    }

    #[test]
    fn bound_reads_balance_and_match_text_reads() {
        let (c, nodes) = cluster(3);
        for i in 0..20 {
            c.execute(&format!("insert into t values ({i}, 'x')"))
                .unwrap();
        }
        let sql = "select count(*) as n from t where a >= $1 and a < $2";
        let params = [Value::Int(5), Value::Int(15)];
        let (bound, backend) = c.read(&ReadRequest::bound(sql, &params)).unwrap();
        assert!(backend < 3);
        let (text, _) = c
            .execute("select count(*) as n from t where a >= 5 and a < 15")
            .unwrap();
        assert_eq!(bound.rows, text.rows);
        assert_eq!(bound.rows[0][0], Value::Int(10));
        // Serial reads tie at zero pending and land on the same backend,
        // so the second bound execution is a plan-cache hit there. The
        // text read lowered its lifted form, a key of its own.
        let (_, again) = c.read(&ReadRequest::bound(sql, &params)).unwrap();
        assert_eq!(again, backend);
        let stats = nodes[backend].with_db(|db| db.plan_cache_stats());
        assert_eq!((stats.misses, stats.hits), (2, 1), "{stats:?}");
    }

    #[test]
    fn bound_read_failures_follow_the_disable_policy() {
        let (c, _nodes) = cluster(2);
        // An unparseable bound read surfaces an error without disabling.
        assert!(c
            .read(&ReadRequest::bound("select nonsense from", &[]))
            .is_err());
        assert_eq!(c.enabled_backends(), vec![0, 1]);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::connection::{EngineNode, NodeConnection};
    use apuama_engine::Database;
    use std::sync::atomic::AtomicBool as FailFlag;

    /// A connection that can be tripped into failing every request.
    struct Flaky {
        inner: NodeConnection,
        failing: FailFlag,
    }

    impl Connection for Flaky {
        fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
            if self.failing.load(Ordering::SeqCst) {
                return Err(EngineError::Unavailable("injected failure".into()));
            }
            self.inner.execute(sql)
        }

        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    fn flaky_cluster(
        n: usize,
        disable_failed: bool,
    ) -> (Controller, Vec<Arc<Flaky>>, Vec<Arc<EngineNode>>) {
        let mut flakies = Vec::new();
        let mut nodes = Vec::new();
        let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
        for i in 0..n {
            let mut db = Database::in_memory();
            db.execute("create table t (a int)").unwrap();
            let node = EngineNode::new(format!("node-{i}"), db);
            let flaky = Arc::new(Flaky {
                inner: NodeConnection::new(node.clone()),
                failing: FailFlag::new(false),
            });
            conns.push(flaky.clone());
            flakies.push(flaky);
            nodes.push(node);
        }
        let controller = Controller::new(
            conns,
            ControllerConfig {
                disable_failed_backends: disable_failed,
                ..ControllerConfig::default()
            },
        );
        (controller, flakies, nodes)
    }

    #[test]
    fn failed_backend_is_disabled_and_cluster_continues() {
        let (c, flakies, nodes) = flaky_cluster(3, true);
        c.execute("insert into t values (1)").unwrap();
        flakies[1].failing.store(true, Ordering::SeqCst);
        // The write succeeds on the healthy backends and disables node 1.
        c.execute("insert into t values (2)").unwrap();
        assert_eq!(c.enabled_backends(), vec![0, 2]);
        // Reads keep flowing from the survivors.
        let (out, served_by) = c.execute("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], apuama_sql::Value::Int(2));
        assert_ne!(served_by, 1);
        // The healthy replicas both applied the write; the disabled one is
        // stale (recovery-log replay is out of scope).
        assert_eq!(nodes[0].with_db(|db| db.table("t").unwrap().row_count()), 2);
        assert_eq!(nodes[1].with_db(|db| db.table("t").unwrap().row_count()), 1);
        assert_eq!(nodes[2].with_db(|db| db.table("t").unwrap().row_count()), 2);
    }

    #[test]
    fn a_failed_write_leaves_nothing_pending() {
        for disable_failed in [true, false] {
            let (c, flakies, _) = flaky_cluster(3, disable_failed);
            flakies[1].failing.store(true, Ordering::SeqCst);
            let _ = c.execute("insert into t values (1)");
            assert_eq!(c.pending_counts(), vec![0, 0, 0], "after Unavailable");
            flakies[1].failing.store(false, Ordering::SeqCst);
            assert!(c.execute("insert into missing values (1)").is_err());
            assert_eq!(c.pending_counts(), vec![0, 0, 0], "after a statement error");
        }
    }

    #[test]
    fn strict_mode_surfaces_the_error_and_keeps_rotation() {
        let (c, flakies, _) = flaky_cluster(2, false);
        flakies[0].failing.store(true, Ordering::SeqCst);
        assert!(c.execute("insert into t values (1)").is_err());
        assert_eq!(c.enabled_backends(), vec![0, 1]);
    }

    #[test]
    fn reenabling_a_backend_restores_rotation() {
        let (c, flakies, nodes) = flaky_cluster(2, true);
        flakies[0].failing.store(true, Ordering::SeqCst);
        let _ = c.execute("insert into t values (1)");
        assert_eq!(c.enabled_backends(), vec![1]);
        assert_eq!(c.backend_state(0), RejoinState::Disabled);
        flakies[0].failing.store(false, Ordering::SeqCst);
        // The replica is stale: a bare enable must refuse it.
        assert!(c.enable_backend(0).is_err());
        assert_eq!(c.enabled_backends(), vec![1]);
        // Rejoin replays the missed write and restores rotation.
        let out = c.rejoin_backend(0).unwrap();
        assert_eq!(out.live_replayed + out.pause_replayed, 1);
        assert!(!out.recloned);
        assert_eq!(c.enabled_backends(), vec![0, 1]);
        assert_eq!(c.backend_state(0), RejoinState::Enabled);
        assert_eq!(c.write_counters()[0], c.write_counters()[1]);
        assert_eq!(nodes[0].with_db(|db| db.table("t").unwrap().row_count()), 1);
        // Now consistent: a bare enable is a no-op that succeeds.
        c.enable_backend(0).unwrap();
    }

    #[test]
    fn force_enable_overrides_the_staleness_check() {
        let (c, flakies, _) = flaky_cluster(2, true);
        flakies[0].failing.store(true, Ordering::SeqCst);
        let _ = c.execute("insert into t values (1)");
        assert!(c.enable_backend(0).is_err());
        c.force_enable_backend(0);
        assert_eq!(c.enabled_backends(), vec![0, 1]);
        // Force marks the backend consistent in the log (explicitly
        // accepting staleness), so checkpointing is not held back.
        assert_eq!(c.write_counters()[0], c.write_counters()[1]);
    }

    #[test]
    fn rejoin_replays_a_write_burst_missed_while_down() {
        let (c, flakies, nodes) = flaky_cluster(3, true);
        c.execute("insert into t values (0)").unwrap();
        flakies[1].failing.store(true, Ordering::SeqCst);
        let _ = c.execute("insert into t values (1)"); // disables node 1
        for i in 2..20 {
            c.execute(&format!("insert into t values ({i})")).unwrap();
        }
        flakies[1].failing.store(false, Ordering::SeqCst);
        let out = c.rejoin_backend(1).unwrap();
        assert_eq!(out.live_replayed + out.pause_replayed, 19);
        assert_eq!(c.write_counters(), vec![20, 20, 20]);
        let reference = nodes[0].with_db(|db| db.query("select a from t order by a").unwrap().rows);
        for node in &nodes[1..] {
            let rows = node.with_db(|db| db.query("select a from t order by a").unwrap().rows);
            assert_eq!(rows, reference);
        }
    }

    #[test]
    fn rejoin_against_a_still_failing_backend_aborts_to_disabled() {
        let (c, flakies, _) = flaky_cluster(2, true);
        flakies[0].failing.store(true, Ordering::SeqCst);
        let _ = c.execute("insert into t values (1)");
        // Node 0 is still down: replay fails and the backend stays out.
        assert!(c.rejoin_backend(0).is_err());
        assert_eq!(c.backend_state(0), RejoinState::Disabled);
        assert_eq!(c.enabled_backends(), vec![1]);
        // Heal and retry: now it comes back.
        flakies[0].failing.store(false, Ordering::SeqCst);
        c.rejoin_backend(0).unwrap();
        assert_eq!(c.enabled_backends(), vec![0, 1]);
    }

    #[test]
    fn disabled_backend_is_quarantined_for_external_dispatchers() {
        let (c, flakies, _) = flaky_cluster(2, true);
        flakies[0].failing.store(true, Ordering::SeqCst);
        let _ = c.execute("insert into t values (1)");
        assert!(c.health().is_quarantined(0), "SVP must route around it");
        flakies[0].failing.store(false, Ordering::SeqCst);
        c.rejoin_backend(0).unwrap();
        assert!(!c.health().is_quarantined(0));
    }

    #[test]
    fn all_backends_down_is_an_error() {
        let (c, flakies, _) = flaky_cluster(2, true);
        for f in &flakies {
            f.failing.store(true, Ordering::SeqCst);
        }
        let _ = c.execute("insert into t values (1)"); // disables both
        assert!(c.enabled_backends().is_empty());
        assert!(c.execute("select count(*) as n from t").is_err());
        assert!(c.execute("insert into t values (2)").is_err());
    }

    #[test]
    fn circuit_breaker_routes_reads_around_a_flapping_backend() {
        use crate::health::CircuitState;
        use std::time::Duration;
        // disable_failed = false: only the breaker protects the cluster.
        let (_, flakies, _) = flaky_cluster(3, false);
        let c = Controller::new(
            flakies
                .iter()
                .map(|f| f.clone() as Arc<dyn Connection>)
                .collect(),
            ControllerConfig {
                disable_failed_backends: false,
                breaker: crate::health::BreakerPolicy {
                    threshold: 2,
                    probe_after: Duration::ZERO,
                },
                ..ControllerConfig::default()
            },
        );
        c.execute("insert into t values (1)").unwrap();
        flakies[0].failing.store(true, Ordering::SeqCst);
        // Least-pending ties pick backend 0; two consecutive failures open
        // its circuit.
        assert!(c.execute("select a from t").is_err());
        assert!(c.execute("select a from t").is_err());
        assert_eq!(c.health().state(0), CircuitState::Open);
        // With probe_after = 0 the next read admits backend 0 as a probe —
        // but it is still failing, so the probe re-opens the circuit and
        // the error surfaces once more.
        assert!(c.execute("select a from t").is_err());
        assert_eq!(c.health().state(0), CircuitState::Open);
        // Heal the backend: the next probe succeeds and closes the circuit.
        flakies[0].failing.store(false, Ordering::SeqCst);
        assert!(c.execute("select a from t").is_ok());
        assert_eq!(c.health().state(0), CircuitState::Closed);
        assert_eq!(
            c.enabled_backends(),
            vec![0, 1, 2],
            "breaker never disables"
        );
    }

    #[test]
    fn open_circuit_with_long_probe_window_sheds_reads_to_survivors() {
        use crate::health::CircuitState;
        use std::time::Duration;
        let (_, flakies, _) = flaky_cluster(3, false);
        let c = Controller::new(
            flakies
                .iter()
                .map(|f| f.clone() as Arc<dyn Connection>)
                .collect(),
            ControllerConfig {
                disable_failed_backends: false,
                breaker: crate::health::BreakerPolicy {
                    threshold: 1,
                    probe_after: Duration::from_secs(60),
                },
                ..ControllerConfig::default()
            },
        );
        c.execute("insert into t values (1)").unwrap();
        flakies[0].failing.store(true, Ordering::SeqCst);
        assert!(c.execute("select a from t").is_err());
        assert_eq!(c.health().state(0), CircuitState::Open);
        // All subsequent reads avoid backend 0 until the probe window
        // expires — so they all succeed even though node 0 is still down.
        for _ in 0..5 {
            let (_, served_by) = c.execute("select a from t").unwrap();
            assert_ne!(served_by, 0);
        }
    }

    #[test]
    fn failing_read_disables_only_the_serving_backend() {
        let (c, flakies, _) = flaky_cluster(3, true);
        c.execute("insert into t values (1)").unwrap();
        flakies[0].failing.store(true, Ordering::SeqCst);
        // Least-pending with zero load picks backend 0 → fails → disabled.
        assert!(c.execute("select a from t").is_err());
        assert_eq!(c.enabled_backends(), vec![1, 2]);
        // Next read succeeds from the survivors.
        assert!(c.execute("select a from t").is_ok());
    }
}

#[cfg(test)]
mod balance_tests {
    use super::*;
    use crate::connection::{EngineNode, NodeConnection};
    use apuama_engine::Database;

    fn cluster(n: usize) -> Controller {
        let conns = (nodes(n).into_iter())
            .map(|node| Arc::new(NodeConnection::new(node)) as Arc<dyn Connection>)
            .collect();
        Controller::new(conns, ControllerConfig::default())
    }

    #[test]
    fn concurrent_reads_all_complete_and_are_counted() {
        let c = Arc::new(cluster(4));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..25 {
                        c.execute("select a from t").unwrap();
                    }
                });
            }
        });
        assert_eq!(c.reads_served().iter().sum::<usize>(), 200);
    }

    /// A connection whose statements containing `parks` block until
    /// released — lets a test hold a read or a write in flight
    /// deterministically.
    struct Parking {
        inner: NodeConnection,
        parks: &'static str,
        hold: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }

    impl Parking {
        fn new(node: Arc<EngineNode>, parks: &'static str) -> Arc<Parking> {
            Arc::new(Parking {
                inner: NodeConnection::new(node),
                parks,
                hold: std::sync::Mutex::new(true),
                cv: std::sync::Condvar::new(),
            })
        }

        fn release(&self) {
            *self.hold.lock().unwrap() = false;
            self.cv.notify_all();
        }
    }

    impl Connection for Parking {
        fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
            if sql.contains(self.parks) {
                let mut held = self.hold.lock().unwrap();
                while *held {
                    held = self.cv.wait(held).unwrap();
                }
            }
            self.inner.execute(sql)
        }

        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    fn nodes(n: usize) -> Vec<Arc<EngineNode>> {
        (0..n)
            .map(|i| {
                let mut db = Database::in_memory();
                db.execute("create table t (a int)").unwrap();
                db.execute("insert into t values (1)").unwrap();
                EngineNode::new(format!("n{i}"), db)
            })
            .collect()
    }

    #[test]
    fn least_pending_avoids_the_busy_backend() {
        // Backend 0 parks its first read; while it is in flight, a second
        // read must be routed to backend 1 (pending[0] = 1 > pending[1]).
        let dbs = nodes(2);
        let parking = Parking::new(dbs[0].clone(), "select");
        let conns: Vec<Arc<dyn Connection>> = vec![
            parking.clone(),
            Arc::new(NodeConnection::new(dbs[1].clone())),
        ];
        let c = Arc::new(Controller::new(conns, ControllerConfig::default()));

        let blocked = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.execute("select a from t").unwrap())
        };
        wait_until("the parked read never became pending on backend 0", || {
            c.pending_counts()[0] > 0
        });
        let (_, served_by) = c.execute("select a from t").unwrap();
        assert_eq!(
            served_by, 1,
            "least-pending must route around the busy node"
        );
        parking.release();
        let (_, first_served_by) = blocked.join().unwrap();
        assert_eq!(first_served_by, 0);
        assert_eq!(c.reads_served(), vec![1, 1]);
    }

    #[test]
    fn a_read_routes_around_the_backend_a_write_is_on() {
        // Backend 0 parks the write broadcast; a read sent meanwhile is
        // served by backend 1 and comes back before the write is released.
        let dbs = nodes(2);
        let parking = Parking::new(dbs[0].clone(), "insert");
        let conns: Vec<Arc<dyn Connection>> = vec![
            parking.clone(),
            Arc::new(NodeConnection::new(dbs[1].clone())),
        ];
        let c = Arc::new(Controller::new(conns, ControllerConfig::default()));
        let write = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.execute("insert into t values (2)").unwrap())
        };
        wait_until("the parked write never became pending on backend 0", || {
            c.pending_counts()[0] > 0
        });
        let (out, served_by) = c.execute("select count(*) as n from t").unwrap();
        assert_eq!(served_by, 1, "the read waited behind the write's backend");
        // Backend 1 gets the write only after backend 0 applied it.
        assert_eq!(out.rows[0][0], apuama_sql::Value::Int(1));
        assert!(!write.is_finished(), "the write was released early");
        parking.release();
        write.join().unwrap();
        assert_eq!(c.pending_counts(), vec![0, 0]);
        for node in &dbs {
            assert_eq!(node.with_db(|db| db.table("t").unwrap().row_count()), 2);
        }
    }

    #[test]
    fn a_read_after_a_write_sees_it_on_every_backend() {
        // Reads parked on backends 0..k steer the next read to backend k:
        // each backend in turn serves a read issued after a write returned.
        let dbs = nodes(4);
        let parkings: Vec<Arc<Parking>> = (dbs.iter())
            .map(|n| Parking::new(n.clone(), "a < 0"))
            .collect();
        let conns = (parkings.iter())
            .map(|p| p.clone() as Arc<dyn Connection>)
            .collect();
        let c = Arc::new(Controller::new(conns, ControllerConfig::default()));
        for k in 0..4i64 {
            c.execute(&format!("insert into t values ({})", 10 + k))
                .unwrap();
            std::thread::scope(|s| {
                for busy in 0..k as usize {
                    let c = &c;
                    s.spawn(move || {
                        let (_, by) = c.execute("select a from t where a < 0").unwrap();
                        assert_eq!(by, busy);
                    });
                    wait_until("a parked read never became pending", || {
                        c.pending_counts()[busy] > 0
                    });
                }
                let (out, served_by) = c
                    .execute(&format!("select count(*) as n from t where a = {}", 10 + k))
                    .unwrap();
                assert_eq!(served_by, k as usize);
                assert_eq!(out.rows[0][0], apuama_sql::Value::Int(1), "backend {k}");
                for p in &parkings {
                    p.release();
                }
            });
            for p in &parkings {
                *p.hold.lock().unwrap() = true;
            }
        }
        assert_eq!(c.pending_counts(), vec![0; 4]);
    }
}

#[cfg(test)]
mod governance_tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::connection::{EngineNode, NodeConnection};
    use crate::fault::{FaultPlan, FaultyConnection};
    use apuama_engine::{Database, QueryGovernor};
    use std::time::Duration;

    fn node(i: usize) -> Arc<EngineNode> {
        let mut db = Database::in_memory();
        db.execute("create table t (a int, b int)").unwrap();
        for k in 0..32 {
            db.execute(&format!("insert into t values ({k}, {})", k % 5))
                .unwrap();
        }
        EngineNode::new(format!("n{i}"), db)
    }

    fn config(admission: AdmissionPolicy) -> ControllerConfig {
        ControllerConfig {
            admission,
            ..ControllerConfig::default()
        }
    }

    /// Satellite (f): the counters are exact under a deterministic
    /// sequence — every entry-point call lands in exactly one bucket.
    #[test]
    fn governance_counters_are_exact() {
        let nodes: Vec<Arc<EngineNode>> = (0..2).map(node).collect();
        let conns: Vec<Arc<dyn Connection>> = nodes
            .iter()
            .map(|n| Arc::new(NodeConnection::new(n.clone())) as Arc<dyn Connection>)
            .collect();
        let c = Controller::new(conns, ControllerConfig::default());

        for _ in 0..3 {
            c.execute("select count(*) as n from t").unwrap();
        }
        c.execute("insert into t values (99, 0)").unwrap();

        // Abandoned before dispatch: counted cancelled, not a node failure.
        let cancelled = QueryGovernor::new();
        cancelled.cancel();
        let err = c
            .read(&ReadRequest::text("select count(*) as n from t").governed(&cancelled))
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled(_)), "{err:?}");

        // Deadline already passed: counted deadline_exceeded.
        let expired = QueryGovernor::new().with_deadline_in(Duration::ZERO);
        let err = c
            .read(&ReadRequest::text("select count(*) as n from t").governed(&expired))
            .unwrap_err();
        assert!(matches!(err, EngineError::Timeout(_)), "{err:?}");

        let expected_peak = nodes
            .iter()
            .map(|n| n.with_db(|db| db.mem_peak_bytes()))
            .max()
            .unwrap();
        assert_eq!(
            c.governance_counts(),
            GovernanceCounters {
                admitted: 6,
                shed: 0,
                cancelled: 1,
                deadline_exceeded: 1,
                peak_mem_bytes: expected_peak,
            }
        );
        // Neither outcome disabled a backend or opened a breaker: the next
        // plain read still works.
        c.execute("select count(*) as n from t").unwrap();
        assert_eq!(c.governance_counts().admitted, 7);
    }

    /// A statement shed at the front door leaves the controller fully
    /// usable: the client gets a fast `ResourceExhausted`, and the same
    /// statement succeeds once the load clears.
    #[test]
    fn shed_statement_then_controller_still_serves() {
        let stalled = FaultyConnection::new(
            Arc::new(NodeConnection::new(node(0))),
            FaultPlan {
                stall_every: 1,
                stall: Duration::from_millis(150),
                only_matching: Some("select".into()),
                ..FaultPlan::default()
            },
        );
        let c = Arc::new(Controller::new(
            vec![stalled as Arc<dyn Connection>],
            config(AdmissionPolicy {
                max_olap: 1,
                queue_depth: 0,
                ..AdmissionPolicy::default()
            }),
        ));

        let holder = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.execute("select count(*) as n from t").unwrap())
        };
        // Wait until the slow read holds the only OLAP slot.
        wait_until("the slow read never reached the backend", || {
            c.pending_counts()[0] > 0
        });
        let err = c.execute("select count(*) as n from t").unwrap_err();
        assert!(matches!(err, EngineError::ResourceExhausted(_)), "{err:?}");
        holder.join().unwrap();

        // Slot released on completion: the controller serves again.
        c.execute("select count(*) as n from t").unwrap();
        let counts = c.governance_counts();
        assert_eq!((counts.admitted, counts.shed), (2, 1));
    }

    /// The bounded queue admits a waiter once a slot frees — shedding only
    /// starts past `queue_depth`.
    #[test]
    fn queued_statement_is_served_after_the_slot_frees() {
        let stalled = FaultyConnection::new(
            Arc::new(NodeConnection::new(node(0))),
            FaultPlan {
                stall_every: 1,
                stall: Duration::from_millis(60),
                only_matching: Some("select".into()),
                ..FaultPlan::default()
            },
        );
        let c = Arc::new(Controller::new(
            vec![stalled as Arc<dyn Connection>],
            config(AdmissionPolicy {
                max_olap: 1,
                queue_depth: 2,
                queue_timeout: Duration::from_secs(5),
                ..AdmissionPolicy::default()
            }),
        ));
        let holder = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.execute("select count(*) as n from t").unwrap())
        };
        wait_until("the stalled read never reached the backend", || {
            c.pending_counts()[0] > 0
        });
        // Queues behind the stalled read, then runs.
        c.execute("select count(*) as n from t").unwrap();
        holder.join().unwrap();
        let counts = c.governance_counts();
        assert_eq!((counts.admitted, counts.shed), (2, 0));
    }
}
