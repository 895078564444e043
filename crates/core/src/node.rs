//! Node Processors: per-node connection pools, optimizer interference, and
//! the snapshot ordering SVP sub-queries need.
//!
//! The interference (paper §3: "Apuama disables full scans only before
//! starting to process a query using intra-query parallelism. When the
//! query processing is finished, the original settings are
//! re-established") rides on each sub-query's request as the
//! avoid-sequential-scans hint. In PostgreSQL the `SET enable_seqscan` the
//! paper sends is scoped to one session of the pool; here every pool slot
//! of a node shares one session, so the per-statement hint is what gives
//! the setting the scope the paper relied on — no pass-through read that
//! overlaps a sub-query sees it, and there is nothing to restore.
//!
//! Paper §4: "For each connection established by C-JDBC using Apuama, a
//! Node Processor is created and is responsible for mediating and
//! monitoring requests sent to its corresponding DBMS. To be able to
//! process multiple requests, the Node Processor creates a pool of
//! connections."

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

use apuama_cjdbc::{Connection, HealthTracker};
use apuama_engine::{EngineError, EngineResult, QueryOutput, ReadRequest};
use apuama_sql::Value;

/// A counting semaphore bounding concurrent statements per node — the
/// connection pool. (In-process we do not hold real sockets; the pool's
/// observable behaviour — at most `capacity` statements in flight — is what
/// matters.)
#[derive(Debug)]
struct ConnectionPool {
    state: Mutex<usize>,
    available: Condvar,
    capacity: usize,
}

impl ConnectionPool {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a pool needs at least one connection");
        ConnectionPool {
            state: Mutex::new(capacity),
            available: Condvar::new(),
            capacity,
        }
    }

    fn acquire(&self) {
        let mut free = self.state.lock();
        while *free == 0 {
            self.available.wait(&mut free);
        }
        *free -= 1;
    }

    fn release(&self) {
        let mut free = self.state.lock();
        *free += 1;
        drop(free);
        self.available.notify_one();
    }
}

/// RAII pool slot.
struct PoolSlot<'a>(&'a ConnectionPool);

impl Drop for PoolSlot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// One node's processor.
pub struct NodeProcessor {
    conn: Arc<dyn Connection>,
    pool: ConnectionPool,
    /// Ordering lock standing in for the DBMS's snapshot isolation: SVP
    /// sub-queries hold it shared, updates exclusively, so an update
    /// admitted after sub-query dispatch cannot slip *before* a sub-query
    /// on one replica and *after* it on another (our engine has no MVCC —
    /// see DESIGN.md).
    snapshot: RwLock<()>,
    /// Shared cluster health tracker this processor reports into.
    health: Arc<HealthTracker>,
    /// This node's index in the tracker.
    index: usize,
    /// SVP sub-query statements currently inside `run_subquery` (queued on
    /// the pool or executing). Observable for the timeout-reassignment
    /// leak regression: after an abandoned attempt is cancelled, this
    /// drains back to zero.
    in_flight: AtomicUsize,
}

/// RAII decrement for [`NodeProcessor::in_flight`].
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl NodeProcessor {
    /// Builds node `index`'s processor over its connection, reporting
    /// request outcomes into the cluster's shared [`HealthTracker`] — one
    /// breaker for every processor of the engine.
    pub fn new(
        conn: Arc<dyn Connection>,
        pool_size: usize,
        health: Arc<HealthTracker>,
        index: usize,
    ) -> Arc<Self> {
        assert!(index < health.node_count());
        Arc::new(NodeProcessor {
            conn,
            pool: ConnectionPool::new(pool_size),
            snapshot: RwLock::new(()),
            health,
            index,
            in_flight: AtomicUsize::new(0),
        })
    }

    /// The health tracker this processor reports into.
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.health
    }

    /// Node name (from the wrapped connection).
    pub fn name(&self) -> &str {
        self.conn.name()
    }

    /// Pool capacity.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity
    }

    /// SVP sub-query statements currently in flight on this node (queued
    /// on the pool or executing).
    pub fn subqueries_in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Pass-through read (non-SVP OLTP/OLAP query, or SET), as the
    /// request describes it. The snapshot lock is taken before the pool
    /// slot, so a read queued behind a writer holds no slot a sub-query may
    /// need.
    pub fn execute_read(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        let _shared = self.snapshot.read();
        self.pool.acquire();
        let _slot = PoolSlot(&self.pool);
        self.conn.read(req)
    }

    /// Peak pipeline-breaker memory reported by the wrapped backend.
    pub fn mem_peak_bytes(&self) -> u64 {
        self.conn.mem_peak_bytes()
    }

    /// Write (single statement or transaction script): serialized against
    /// in-flight SVP sub-queries; the update gate counts it. The snapshot
    /// lock is taken before the pool slot: a write waiting for the tickets
    /// of an SVP query holds no slot, so the query's sub-queries — a range
    /// requeued under a ticket included — can always get one.
    pub fn execute_write(&self, sql: &str) -> EngineResult<QueryOutput> {
        let _exclusive = self.snapshot.write();
        self.pool.acquire();
        let _slot = PoolSlot(&self.pool);
        self.conn.execute(sql)
    }

    /// Acquires the shared snapshot ticket for an SVP sub-query. The
    /// returned guard must be held until the sub-query finishes; callers
    /// signal "dispatched" (unblocking updates) once every node holds its
    /// ticket.
    pub fn begin_subquery(&self) -> SubqueryTicket<'_> {
        SubqueryTicket {
            _shared: self.snapshot.read(),
        }
    }

    /// Runs one SVP sub-query — pool slot, optimizer interference,
    /// execution — *without* touching the snapshot lock. Snapshot ordering
    /// is the ticket's job; splitting the statement out lets the engine
    /// run it on any thread — a worker, or a detached one under a deadline
    /// — while the query's coordinator holds the ticket (the guard is not
    /// `Send`). A bound
    /// request is served from the node's plan cache — the dispatcher's
    /// "parse and plan once per node" path — and a governed one stops at
    /// the next batch boundary once its governor fires, which is how the
    /// engine reclaims an abandoned (timed-out) attempt: the detached
    /// thread observes the cancel, unwinds, and releases its pool slot.
    /// The interference is the request's avoid-sequential-scans hint, set
    /// here on every sub-query; nothing else is sent. A success, and a
    /// request the backend did not serve (`EngineError::Unavailable`), are
    /// reported to the health tracker; any other error is the statement's
    /// own and health-neutral.
    pub fn run_subquery(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let _in_flight = InFlightGuard(&self.in_flight);
        self.pool.acquire();
        let _slot = PoolSlot(&self.pool);
        let result = self.conn.read(&req.avoiding_seqscan(true));
        match &result {
            Ok(_) => self.health.record_success(self.index),
            Err(EngineError::Unavailable(_)) => self.health.record_failure(self.index),
            // A cooperative cancel is the coordinator abandoning the
            // attempt; a type error or a constraint fails on every replica.
            // Neither is the node's doing.
            Err(_) => {}
        }
        result
    }

    /// [`NodeProcessor::run_subquery`] on a statement's text; the
    /// benchmark package's per-layer trace calls it.
    pub fn run_subquery_statement(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.run_subquery(&ReadRequest::text(sql))
    }

    /// [`NodeProcessor::run_subquery`] on a bound statement; the benchmark
    /// package's per-layer trace calls it.
    pub fn run_subquery_bound(&self, sql: &str, params: &[Value]) -> EngineResult<QueryOutput> {
        self.run_subquery(&ReadRequest::bound(sql, params))
    }

    /// Marks an externally detected failure (the engine's sub-query
    /// deadline firing) against this node.
    pub fn record_timeout(&self) {
        self.health.record_failure(self.index);
    }
}

/// The dispatch ticket: holding it keeps this node's updates ordered after
/// the sub-query. It is only the snapshot guard — the sub-query itself runs
/// through the processor ([`NodeProcessor::run_subquery`]), on
/// whichever thread the dispatcher chooses.
pub struct SubqueryTicket<'a> {
    _shared: parking_lot::RwLockReadGuard<'a, ()>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_cjdbc::{BreakerPolicy, EngineNode, FaultPlan, FaultyConnection, NodeConnection};
    use apuama_engine::Database;

    fn engine_node() -> Arc<EngineNode> {
        let mut db = Database::new(64);
        db.execute("create table t (k int not null, v float, primary key (k)) clustered by (k)")
            .unwrap();
        for i in 0..100 {
            db.execute(&format!("insert into t values ({i}, {i}.0)"))
                .unwrap();
        }
        EngineNode::new("n0", db)
    }

    /// A one-node cluster's processor: pool of 4, its own breaker.
    fn processor(conn: Arc<dyn Connection>) -> Arc<NodeProcessor> {
        let health = Arc::new(HealthTracker::new(1, BreakerPolicy::default()));
        NodeProcessor::new(conn, 4, health, 0)
    }

    fn node() -> (Arc<NodeProcessor>, Arc<EngineNode>) {
        let engine_node = engine_node();
        let conn = Arc::new(NodeConnection::new(engine_node.clone()));
        (processor(conn), engine_node)
    }

    fn rows_in_t(node: &EngineNode) -> u64 {
        node.with_db(|db| db.table("t").unwrap().row_count())
    }

    /// A range on the clustered key wide enough that the planner's own
    /// choice is the sequential scan: the access path follows the
    /// sequential-scan permission and nothing else.
    const WIDE: &str = "select sum(v) as s from t where k >= 0";

    fn plan_of(out: &QueryOutput) -> String {
        let lines: Vec<&str> = out.rows.iter().filter_map(|r| r[0].as_str()).collect();
        lines.join("\n")
    }

    #[test]
    fn passthrough_read_and_write_count() {
        let (np, engine_node) = node();
        assert_eq!(rows_in_t(&engine_node), 100);
        np.execute_write("insert into t values (1000, 0.0)")
            .unwrap();
        assert_eq!(rows_in_t(&engine_node), 101);
        let out = np
            .execute_read(&ReadRequest::text("select count(*) as n from t"))
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(101));
        assert_eq!(rows_in_t(&engine_node), 101);
    }

    #[test]
    fn subquery_carries_the_hint_and_the_session_keeps_its_setting() {
        let (np, engine_node) = node();
        let ticket = np.begin_subquery();
        let with_hint = np.run_subquery(&ReadRequest::text(WIDE)).unwrap();
        drop(ticket);
        let without = np.execute_read(&ReadRequest::text(WIDE)).unwrap();
        assert_eq!(with_hint.rows, without.rows);
        assert_ne!(with_hint.stats, without.stats, "the index was forced");
        // EXPLAIN of a sub-query plans under the same hint; a pass-through
        // EXPLAIN plans as the session would.
        let explain = format!("explain {WIDE}");
        let hinted_plan = plan_of(&np.run_subquery(&ReadRequest::text(&explain)).unwrap());
        assert!(hinted_plan.contains("index range"), "{hinted_plan}");
        let plain_plan = plan_of(&np.execute_read(&ReadRequest::text(&explain)).unwrap());
        assert!(plain_plan.contains("seq scan"), "{plain_plan}");
        // No SET was sent: the hint is the whole interference.
        assert!(engine_node.with_db(|db| db.seqscan_enabled()));
    }

    #[test]
    fn bound_subquery_matches_literal_and_uses_the_plan_cache() {
        let (np, engine_node) = node();
        let sql = "select sum(v) as s from t where k >= $1 and k < $2";
        let ticket = np.begin_subquery();
        let want = np
            .run_subquery(&ReadRequest::text(
                "select sum(v) as s from t where k >= 10 and k < 20",
            ))
            .unwrap();
        for _ in 0..3 {
            let got = np
                .run_subquery(&ReadRequest::bound(sql, &[Value::Int(10), Value::Int(20)]))
                .unwrap();
            assert_eq!(got.rows, want.rows);
        }
        drop(ticket);
        // The literal text lowered its lifted form; the three bound runs
        // shared one plan of their own text, lowered by the first.
        let stats = engine_node.with_db(|db| db.plan_cache_stats());
        assert_eq!((stats.misses, stats.hits), (2, 2), "{stats:?}");
    }

    /// A pass-through read that overlaps an SVP sub-query on the same node
    /// is planned exactly as on an idle node: the sub-query's interference
    /// is its own request's, not the session every pool slot shares.
    #[test]
    fn passthrough_read_is_untouched_by_a_subquery_in_flight() {
        let read = ReadRequest::text(WIDE);
        let idle = node().0.execute_read(&read).unwrap();

        let engine_node = engine_node();
        // Holds the sub-query (and only it) inside the connection.
        let faulty = FaultyConnection::new(
            Arc::new(NodeConnection::new(engine_node.clone())),
            FaultPlan {
                delay: std::time::Duration::from_millis(300),
                only_matching: Some("count(*)".into()),
                ..FaultPlan::default()
            },
        );
        let np = processor(faulty.clone());
        let seqscan_on = || engine_node.with_db(|db| db.seqscan_enabled());
        let overlapped = std::thread::scope(|s| {
            let sub = s.spawn(|| {
                let _ticket = np.begin_subquery();
                np.run_subquery(&ReadRequest::text(
                    "select count(*) as n from t where k >= 0",
                ))
            });
            while faulty.matching_calls() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(np.subqueries_in_flight(), 1);
            assert!(seqscan_on(), "session setting flipped under a sub-query");
            let out = np.execute_read(&read);
            assert!(seqscan_on());
            assert_eq!(sub.join().unwrap().unwrap().rows[0][0], Value::Int(100));
            out.unwrap()
        });
        assert_eq!(overlapped.rows, idle.rows);
        assert_eq!(overlapped.stats, idle.stats);
        assert!(seqscan_on());
        assert_eq!(faulty.calls(), 2, "one call per statement, no SET");
    }

    #[test]
    fn writes_wait_for_held_tickets() {
        let (np, engine_node) = node();
        let ticket = np.begin_subquery();
        let np2 = Arc::clone(&np);
        let writer = std::thread::spawn(move || {
            np2.execute_write("insert into t values (500, 1.0)")
                .unwrap();
        });
        // Give the writer a moment to block on the snapshot lock.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(
            rows_in_t(&engine_node),
            100,
            "write must wait for the ticket"
        );
        drop(ticket);
        writer.join().unwrap();
        assert_eq!(rows_in_t(&engine_node), 101);
    }

    #[test]
    fn statement_outcomes_feed_the_health_tracker() {
        let (np, _) = node();
        let ticket = np.begin_subquery();
        np.run_subquery(&ReadRequest::text("select count(*) as n from t"))
            .unwrap();
        assert!(np
            .run_subquery(&ReadRequest::text("select nope from missing"))
            .is_err());
        drop(ticket);
        // The unknown table is the statement's error, not the node's.
        assert_eq!(np.health().successes(0), 1);
        assert_eq!(np.health().failures(0), 0);
        // A backend that does not serve the request is charged with it.
        let dead = processor(FaultyConnection::new(
            Arc::new(NodeConnection::new(engine_node())),
            FaultPlan::fail_all(),
        ));
        let err = dead
            .run_subquery(&ReadRequest::text("select count(*) as n from t"))
            .unwrap_err();
        assert!(matches!(err, EngineError::Unavailable(_)), "{err:?}");
        assert_eq!(dead.health().failures(0), 1);
    }

    #[test]
    fn pool_bounds_concurrency() {
        let (np, _) = node();
        // 16 threads over a pool of 4: everything completes (no deadlock)
        // and results are correct.
        std::thread::scope(|s| {
            for _ in 0..16 {
                let np = Arc::clone(&np);
                s.spawn(move || {
                    for _ in 0..10 {
                        np.execute_read(&ReadRequest::text("select count(*) as n from t"))
                            .unwrap();
                    }
                });
            }
        });
    }
}
