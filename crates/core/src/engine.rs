//! The Apuama Engine and its per-node connection seam.
//!
//! C-JDBC is configured with one Database Backend per node; each backend's
//! "JDBC driver" is an [`ApuamaConnection`] handed out by
//! [`ApuamaEngine::connection`]. Reads that the Data Catalog marks
//! SVP-eligible are hijacked into the Intra-Query Executor (sub-queries on
//! every node in parallel, then result composition); everything else —
//! OLTP statements, non-rewritable queries — passes straight through to the
//! node the controller picked, so C-JDBC's inter-query parallelism and
//! write ordering are preserved bit-for-bit.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use apuama_cjdbc::{classify_script, Connection, HealthTracker, RejoinHooks, StatementKind};
use apuama_engine::{
    EngineError, EngineResult, ExecStats, PhaseTiming, QueryGovernor, QueryOutput, ReadRequest,
};
use apuama_sql::{parse_statements, Value};

use crate::catalog::DataCatalog;
use crate::composer::StreamingComposer;
use crate::consistency::UpdateGate;
use crate::dispatch::{Action, Dispatch, Event, NodeState};
use crate::fault::{FaultPolicy, RecoveryReport};
use crate::node::NodeProcessor;
use crate::rewrite::{Rewritten, SvpPlan, SvpRewriter};

/// What a deployment sizes and bounds. The paper's mechanisms themselves
/// are not configurable: every eligible read runs SVP, every sub-query
/// carries the avoid-sequential-scans hint, and updates block until every
/// sub-query is dispatched and started. A session setting such as
/// `statement_timeout_ms` goes through the controller
/// (`Controller::execute("set statement_timeout_ms = N")`), which broadcasts
/// it in total order and records it in the recovery log.
#[derive(Debug, Clone, Copy)]
pub struct ApuamaConfig {
    /// Per-node connection-pool size.
    pub pool_size: usize,
    /// What to do when a sub-query fails: timeout, retries, reassignment,
    /// circuit breaker (see [`FaultPolicy`]).
    pub fault: FaultPolicy,
    /// Whole-SVP-query deadline (consistency wait + dispatch + composition).
    /// Distinct from [`FaultPolicy::subquery_timeout_ms`], which bounds one
    /// attempt on one node: when *this* expires the entire query is doomed,
    /// so every sibling sub-query is cancelled rather than reassigned.
    /// `None` = no deadline.
    pub query_deadline_ms: Option<u64>,
}

impl Default for ApuamaConfig {
    fn default() -> Self {
        ApuamaConfig {
            pool_size: 8,
            fault: FaultPolicy::default(),
            query_deadline_ms: None,
        }
    }
}

/// Detailed result of one SVP execution (the simulator and the benches
/// price the pieces separately).
#[derive(Debug, Clone)]
pub struct SvpExecution {
    /// Final result; its `stats` is the merge of all sub-query stats plus
    /// the composition stats.
    pub output: QueryOutput,
    /// Per-node sub-query statistics, in node order.
    pub per_node: Vec<ExecStats>,
    /// Composition-step statistics.
    pub composition_stats: ExecStats,
    /// Total partial rows shipped to the composer.
    pub partial_rows: u64,
    /// Wall-clock phase breakdown of the pipelined execution.
    pub timing: PhaseTiming,
    /// What fault handling had to do (empty/zero on a healthy run).
    pub recovery: RecoveryReport,
}

/// The engine: Cluster Administrator + Node Processors (paper Fig. 1b).
///
/// What it holds is what queries share: the nodes, the rewriter, the update
/// gate and the breaker. Per-query state — the governor, the composer — is
/// local to [`ApuamaEngine::execute_svp_governed`], so concurrent SVP
/// queries meet only at the gate and on the nodes.
pub struct ApuamaEngine {
    nodes: Vec<Arc<NodeProcessor>>,
    rewriter: SvpRewriter,
    gate: UpdateGate,
    config: ApuamaConfig,
    /// Cluster-wide circuit breaker: fed by every node processor, consulted
    /// by the SVP dispatcher, and shared with the C-JDBC read balancer of a
    /// controller built over [`ApuamaEngine::connections`].
    health: Arc<HealthTracker>,
}

impl ApuamaEngine {
    /// Builds the engine over the given DBMS connections (one per node).
    pub fn new(
        conns: Vec<Arc<dyn Connection>>,
        catalog: DataCatalog,
        config: ApuamaConfig,
    ) -> Arc<ApuamaEngine> {
        assert!(!conns.is_empty(), "a cluster needs at least one node");
        let n = conns.len();
        let health = Arc::new(HealthTracker::new(n, config.fault.breaker));
        Arc::new(ApuamaEngine {
            nodes: conns
                .into_iter()
                .enumerate()
                .map(|(i, c)| NodeProcessor::new(c, config.pool_size, Arc::clone(&health), i))
                .collect(),
            rewriter: SvpRewriter::new(catalog),
            gate: UpdateGate::new(n),
            config,
            health,
        })
    }

    /// The cluster health tracker (circuit breaker per node).
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.health
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &ApuamaConfig {
        &self.config
    }

    /// The SVP rewriter (exposed for EXPLAIN-style inspection and the
    /// simulator, which prices sub-queries individually).
    pub fn rewriter(&self) -> &SvpRewriter {
        &self.rewriter
    }

    /// Per-node transaction counters (consistency diagnostics).
    pub fn txn_counters(&self) -> Vec<u64> {
        self.gate.counters()
    }

    /// The update gate (rejoin tests and diagnostics).
    pub fn gate(&self) -> &UpdateGate {
        &self.gate
    }

    /// The per-node connection C-JDBC's backend `node` plugs into. `node`
    /// indexes the cluster like a slice: out of range, this call panics (it
    /// reads the node's name), not a later use of the connection.
    pub fn connection(self: &Arc<Self>, node: usize) -> Arc<ApuamaConnection> {
        Arc::new(ApuamaConnection {
            engine: Arc::clone(self),
            node,
            name: format!("apuama-{}", self.nodes[node].name()),
        })
    }

    /// Connections for all nodes, in order — what you hand to
    /// [`apuama_cjdbc::Controller::new`], which then shares this engine's
    /// health tracker and fires its rejoin hooks
    /// ([`Connection::engine_seam`]).
    pub fn connections(self: &Arc<Self>) -> Vec<Arc<dyn Connection>> {
        (0..self.nodes.len())
            .map(|i| self.connection(i) as Arc<dyn Connection>)
            .collect()
    }

    /// Read entry point: SVP when eligible, pass-through to the
    /// controller-chosen node otherwise. The rewriter reads the statement
    /// the request carries, or the one parsed here when it carries none
    /// (with its bound values substituted, when it has them). An SVP query
    /// derives its per-query governor from the request's; a pass-through
    /// hands the request on — with this parse, when it was a text read
    /// that came without one — so the node runs it from its plan cache
    /// without parsing it again.
    pub fn read(&self, preferred_node: usize, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        let stmt = req.statement()?;
        match self.rewriter.rewrite_statement(&stmt, self.nodes.len()) {
            Rewritten::Svp(plan) => self
                .execute_svp_governed(&plan, req.governor)
                .map(|e| e.output),
            Rewritten::Passthrough { .. } => {
                let node = &self.nodes[preferred_node];
                match (&stmt, req.params) {
                    (Cow::Owned(parsed), None) => node.execute_read(&req.parsed(parsed)),
                    _ => node.execute_read(req),
                }
            }
        }
    }

    /// The per-node processors, in node order (governance diagnostics:
    /// in-flight counts, backend memory peaks).
    pub fn node_processors(&self) -> &[Arc<NodeProcessor>] {
        &self.nodes
    }

    /// Write entry point: pass-through under the consistency gate.
    pub fn execute_write(&self, node: usize, sql: &str) -> EngineResult<QueryOutput> {
        self.gate.begin_node_write(node, sql);
        let result = self.nodes[node].execute_write(sql);
        self.gate.end_node_write(node, sql, result.is_ok());
        result
    }

    /// The Intra-Query Executor: consistency wait → parallel dispatch →
    /// early update release → pipelined composition, with fault recovery.
    ///
    /// It carries out the [`Dispatch`] policy's actions (DESIGN.md §8): the
    /// ranges are placed and the ticket of every node with one is taken
    /// before updates are released ("sent and started", paper §3); one
    /// worker per such node sends each partial the moment it completes,
    /// and the composer — a [`StreamingComposer`] this call owns — folds it
    /// in while the others run. A requeued range runs on the calling
    /// thread under the ticket taken before the release, so every partial
    /// sees the same prefix, and keeps its range index, so the answer is
    /// byte-identical to the healthy run. Each sub-query is a prepared
    /// statement ([`SvpPlan::prepared`]) bound to its range, run under the
    /// [`FaultPolicy`]'s deadline and same-node retries.
    pub fn execute_svp(&self, plan: &SvpPlan) -> EngineResult<SvpExecution> {
        self.execute_svp_governed(plan, None)
    }

    /// [`ApuamaEngine::execute_svp`] under a caller-supplied governor
    /// (client cancel / deadline). A per-query governor is derived from it
    /// (plus [`ApuamaConfig::query_deadline_ms`], earlier deadline wins) and
    /// shared by every sub-query: cancelling it — by the caller, or
    /// internally once the query is doomed — stops every sibling at its
    /// next batch boundary instead of letting them run to completion.
    pub fn execute_svp_governed(
        &self,
        plan: &SvpPlan,
        caller: Option<&QueryGovernor>,
    ) -> EngineResult<SvpExecution> {
        let n = self.nodes.len();
        if plan.prepared.len() != n {
            return Err(EngineError::Unsupported(format!(
                "plan was rewritten for {} nodes, the cluster has {n}",
                plan.prepared.len()
            )));
        }
        // Per-query governor: a child of the caller's (so our internal
        // doom-cancel never fires the caller's token) with the configured
        // whole-query deadline. The clock starts *before* the consistency
        // wait — a stuck gate counts against the deadline too.
        let gov = {
            let g = match caller {
                Some(c) => c.child(),
                None => QueryGovernor::new(),
            };
            match self.config.query_deadline_ms {
                Some(ms) => g.with_deadline_in(std::time::Duration::from_millis(ms)),
                None => g,
            }
        };
        // 1. Wait for replica convergence; hold new updates.
        self.gate.block_updates_and_wait();
        gov.check().inspect_err(|_| self.gate.release_updates())?;

        // 2. Place the ranges, take the ticket of every node with one, then
        //    release updates. The tickets live here, on the coordinator, so
        //    no worker waits for a requeue that may never come.
        let policy = self.config.fault;
        let health = &self.health;
        let state = |j| match (health.is_available(j), health.is_quarantined(j)) {
            (true, _) => NodeState::Available,
            (false, false) => NodeState::Open,
            (false, true) => NodeState::Quarantined,
        };
        let states: Vec<NodeState> = (0..n).map(state).collect();
        let mut actions = Vec::new();
        let mut dispatch = Dispatch::start(n, &states, policy.reassign, &mut actions)
            .inspect_err(|_| self.gate.release_updates())?;
        let mut queues = vec![Vec::new(); n];
        for action in actions.drain(..) {
            if let Action::Run { range, node } = action {
                queues[node].push(range);
            }
        }
        let mut tickets: Vec<_> = (queues.iter().zip(&self.nodes))
            .map(|(ranges, node)| (!ranges.is_empty()).then(|| node.begin_subquery()))
            .collect();
        self.gate.release_updates();
        let dispatched = Instant::now();
        let run = |range: usize, node: usize| {
            let (sql, params) = &plan.prepared[range];
            let (attempts, result) =
                run_with_retries(&self.nodes[node], sql, params, &policy, &gov);
            (range, node, attempts, result)
        };

        // 3. One worker per node with ranges; each sends a partial the moment
        //    it completes, and the receiver drains every message.
        let (tx, rx) = crossbeam::channel::unbounded();
        std::thread::scope(|s| {
            for (node, ranges) in queues.into_iter().enumerate() {
                if ranges.is_empty() {
                    continue;
                }
                let (tx, run) = (tx.clone(), &run);
                s.spawn(move || {
                    for range in ranges {
                        let _ = tx.send(run(range, node));
                    }
                });
            }
            drop(tx);

            // 4. Feed each outcome to the dispatcher and carry out its
            //    actions; a requeued range's outcome goes first. The composer
            //    is this query's own: an early return drops it.
            let available = |j| health.is_available(j);
            let mut composer = StreamingComposer::new(plan);
            let mut timing = PhaseTiming::default();
            let mut per_node = vec![ExecStats::default(); n];
            let (mut accepted, mut partial, mut requeued, mut rejected) = (0, None, None, None);
            loop {
                for action in actions.drain(..) {
                    match action {
                        Action::Run { range, node } => requeued = Some(run(range, node)),
                        Action::DropTicket(node) => tickets[node] = None,
                        Action::CancelSiblings => gov.cancel(),
                        Action::Accept { range, .. } => {
                            let Some(out) = partial.take() else { continue };
                            let t = Instant::now();
                            let result = composer.accept(range, out);
                            let spent = t.elapsed().as_secs_f64() * 1e3;
                            accepted += 1;
                            if accepted == n {
                                timing.compose_tail_ms += spent;
                            } else {
                                timing.compose_overlap_ms += spent;
                            }
                            if let Err(e) = result {
                                rejected = Some(e);
                                break;
                            } else if accepted == 1 {
                                timing.first_partial_ms = dispatched.elapsed().as_secs_f64() * 1e3;
                            }
                        }
                        Action::Fail(e) => return Err(e),
                        Action::Finish => {
                            // 5. The serial tail, under no ticket.
                            let t = Instant::now();
                            let composed = composer.finish()?;
                            timing.compose_tail_ms += t.elapsed().as_secs_f64() * 1e3;
                            timing.total_ms = dispatched.elapsed().as_secs_f64() * 1e3;
                            let mut output = composed.output;
                            output.stats = ExecStats::default();
                            for s in per_node.iter().chain([&composed.composition_stats]) {
                                output.stats.merge(s);
                            }
                            return Ok(SvpExecution {
                                output,
                                per_node,
                                composition_stats: composed.composition_stats,
                                partial_rows: composed.partial_rows,
                                timing,
                                recovery: dispatch.recovery().clone(),
                            });
                        }
                    }
                }
                let event = match rejected.take() {
                    Some(e) => Event::Rejected(e),
                    None => match requeued.take().or_else(|| rx.recv().ok()) {
                        Some((range, node, attempts, Ok(out))) => {
                            per_node[range] = out.stats;
                            partial = Some(out);
                            Event::Partial(range, node, attempts)
                        }
                        Some((range, node, attempts, Err(f))) => Event::Failed {
                            range,
                            node,
                            attempts,
                            node_fault: f.node_fault,
                            error: f.error,
                            live: gov.check().is_ok(),
                            available: &available,
                        },
                        None => {
                            let e = "SVP dispatch ended without an answer";
                            return Err(EngineError::Unsupported(e.into()));
                        }
                    },
                };
                dispatch.on(event, &mut actions);
            }
        })
    }
}

/// The engine side of the controller's rejoin protocol: a node leaving
/// rotation is excluded from the consistency protocol (its begin/end calls
/// stop coming, and without exclusion one dead replica would wedge every
/// Blocking-mode write); a node re-entering has its transaction counter
/// seeded to the active maximum — the controller calls `on_enable` under
/// its write pause, so nothing is in flight and the seed is exact.
impl RejoinHooks for ApuamaEngine {
    fn on_disable(&self, node: usize) {
        self.gate.set_excluded(node, true);
    }

    fn on_enable(&self, node: usize, _applied_seq: u64) {
        self.gate.seed_counter(node, self.gate.active_max_counter());
        self.gate.set_excluded(node, false);
    }
}

/// A failed attempt, and whether it counts against its node (DESIGN.md §8):
/// the backend did not serve the request ([`EngineError::Unavailable`]), or
/// the attempt outran the sub-query deadline. Only such a failure is
/// retried or requeued; any other is the statement's own and fails the
/// query at once.
struct Failure {
    error: EngineError,
    node_fault: bool,
}

impl Failure {
    fn of(error: EngineError) -> Failure {
        let node_fault = matches!(error, EngineError::Unavailable(_));
        Failure { error, node_fault }
    }
}

/// Runs the prepared statement on `node` with the policy's deadline and
/// bounded same-node retries; returns `(attempts made, final outcome)`.
/// Every attempt executes under `gov` — the per-query governor — so a
/// doomed query stops retrying (and backing off) as soon as it is
/// cancelled or its deadline passes.
fn run_with_retries(
    node: &Arc<NodeProcessor>,
    sql: &str,
    params: &[Value],
    policy: &FaultPolicy,
    gov: &QueryGovernor,
) -> (u32, Result<QueryOutput, Failure>) {
    let mut attempt = 1;
    loop {
        // The query may have been doomed before this attempt (or while we
        // slept in backoff): bail without burning another execution.
        if let Err(e) = gov.check() {
            return (attempt - 1, Err(Failure::of(e)));
        }
        match run_attempt(node, sql, params, policy.subquery_timeout_ms, gov) {
            Ok(out) => return (attempt, Ok(out)),
            Err(f) if !f.node_fault || attempt > policy.max_retries => return (attempt, Err(f)),
            Err(_) => {}
        }
        let backoff = policy.backoff(attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        attempt += 1;
    }
}

/// One attempt, under a deadline when the policy sets one.
///
/// The deadline cannot simply join the statement thread: the statement
/// runs on a detached thread over a cloned `Arc<NodeProcessor>` (the node's
/// snapshot ticket stays with the query's coordinator) and the attempt
/// gives up after the deadline. The abandoned statement is
/// *cancelled* through a per-attempt child of the query governor — it
/// observes the token at its next batch boundary, unwinds, and releases
/// its pool slot. (The seed left it running to completion, pinning a slot
/// for the statement's full duration.) The child token keeps sibling
/// attempts and the query itself unaffected.
fn run_attempt(
    node: &Arc<NodeProcessor>,
    sql: &str,
    params: &[Value],
    timeout_ms: Option<u64>,
    gov: &QueryGovernor,
) -> Result<QueryOutput, Failure> {
    let Some(ms) = timeout_ms else {
        return node
            .run_subquery(&ReadRequest::bound(sql, params).governed(gov))
            .map_err(Failure::of);
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let worker_node = Arc::clone(node);
    let statement = sql.to_string();
    let bound: Vec<Value> = params.to_vec();
    let attempt_gov = gov.child();
    let worker_gov = attempt_gov.clone();
    std::thread::spawn(move || {
        let req = ReadRequest::bound(&statement, &bound).governed(&worker_gov);
        let _ = tx.send(worker_node.run_subquery(&req));
    });
    match rx.recv_timeout(std::time::Duration::from_millis(ms)) {
        Ok(result) => result.map_err(Failure::of),
        Err(_) => {
            attempt_gov.cancel();
            node.record_timeout();
            Err(Failure {
                error: EngineError::Timeout(format!(
                    "sub-query exceeded {ms} ms on {}",
                    node.name()
                )),
                node_fault: true,
            })
        }
    }
}

/// The driver C-JDBC's backend for one node connects through.
pub struct ApuamaConnection {
    engine: Arc<ApuamaEngine>,
    node: usize,
    name: String,
}

impl ApuamaConnection {
    /// The node index this connection fronts.
    pub fn node_index(&self) -> usize {
        self.node
    }
}

impl Connection for ApuamaConnection {
    fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
        let stmts = parse_statements(sql)?;
        match classify_script(&stmts, StatementKind::Read) {
            StatementKind::Read => self.read(&ReadRequest::script(sql, &stmts)),
            StatementKind::Write => self.engine.execute_write(self.node, sql),
        }
    }

    fn read(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        self.engine.read(self.node, req)
    }

    fn mem_peak_bytes(&self) -> u64 {
        self.engine.nodes[self.node].mem_peak_bytes()
    }

    fn engine_seam(&self) -> Option<(Arc<HealthTracker>, Arc<dyn RejoinHooks>)> {
        let hooks = Arc::clone(&self.engine) as Arc<dyn RejoinHooks>;
        Some((Arc::clone(&self.engine.health), hooks))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_cjdbc::{Controller, ControllerConfig, EngineNode, NodeConnection};
    use apuama_engine::Database;
    use apuama_sql::Value;

    /// A tiny replicated cluster with Apuama interposed.
    fn cluster(n: usize, config: ApuamaConfig) -> (Arc<ApuamaEngine>, Vec<Arc<EngineNode>>) {
        let mut nodes = Vec::new();
        let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
        for i in 0..n {
            let mut db = Database::in_memory();
            db.execute(
                "create table orders (o_orderkey int not null, o_totalprice float, \
                 primary key (o_orderkey)) clustered by (o_orderkey)",
            )
            .unwrap();
            let rows: Vec<Vec<Value>> = (1..=60i64)
                .map(|k| vec![Value::Int(k), Value::Float(k as f64)])
                .collect();
            db.load_table("orders", rows).unwrap();
            let node = EngineNode::new(format!("n{i}"), db);
            conns.push(Arc::new(NodeConnection::new(node.clone())));
            nodes.push(node);
        }
        let engine = ApuamaEngine::new(conns, DataCatalog::tpch(60), config);
        (engine, nodes)
    }

    #[test]
    fn svp_result_matches_single_node() {
        let (engine, nodes) = cluster(4, ApuamaConfig::default());
        let sql = "select count(*) as n, sum(o_totalprice) as t, avg(o_totalprice) as a \
                   from orders";
        let reference = nodes[0].with_db(|db| db.query(sql).unwrap());
        let out = engine.read(0, &ReadRequest::text(sql)).unwrap();
        assert_eq!(out.columns, vec!["n", "t", "a"]);
        assert_eq!(out.rows[0][0], reference.rows[0][0]);
        assert_eq!(out.rows[0][1], reference.rows[0][1]);
        let (a, b) = (
            out.rows[0][2].as_f64().unwrap(),
            reference.rows[0][2].as_f64().unwrap(),
        );
        assert!((a - b).abs() < 1e-9);
    }

    /// The statement deadline is a session setting every replica must
    /// share: sent through the controller it lands on each of them, and the
    /// SVP answer is the one the nodes' own default gives.
    #[test]
    fn statement_timeout_set_through_the_controller_reaches_every_node() {
        let (engine, nodes) = cluster(3, ApuamaConfig::default());
        let sql = "select sum(o_totalprice) as s from orders";
        let before = engine.read(0, &ReadRequest::text(sql)).unwrap();
        for node in &nodes {
            assert_eq!(node.with_db(|db| db.setting("statement_timeout_ms")), None);
        }
        let controller = Controller::new(engine.connections(), ControllerConfig::default());
        controller
            .execute("set statement_timeout_ms = 60000")
            .unwrap();
        for node in &nodes {
            let setting = node.with_db(|db| db.setting("statement_timeout_ms"));
            assert_eq!(setting.as_deref(), Some("60000"), "{}", node.name());
        }
        // Sum of 1..=60: integer-valued floats, exact at any association.
        let (after, _) = controller.execute(sql).unwrap();
        assert_eq!(after.rows, vec![vec![Value::Float(1830.0)]]);
        assert_eq!(after.rows, before.rows);
    }

    #[test]
    fn svp_execution_reports_per_node_stats() {
        let (engine, _) = cluster(3, ApuamaConfig::default());
        let Rewritten::Svp(plan) = engine
            .rewriter()
            .rewrite("select sum(o_totalprice) as t from orders", 3)
            .unwrap()
        else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        assert_eq!(exec.per_node.len(), 3);
        // Partitioning means each node scanned roughly a third of the rows.
        for s in &exec.per_node {
            assert!(s.rows_scanned <= 30, "scanned {}", s.rows_scanned);
        }
        assert_eq!(exec.partial_rows, 3);
    }

    #[test]
    fn repeated_svp_runs_plan_once_per_node() {
        let (engine, nodes) = cluster(4, ApuamaConfig::default());
        let sql = "select count(*) as n, sum(o_totalprice) as t from orders";
        let reference = nodes[0].with_db(|db| db.query(sql).unwrap());
        let before: Vec<_> = nodes
            .iter()
            .map(|n| n.with_db(|db| db.plan_cache_stats()))
            .collect();
        for _ in 0..5 {
            let out = engine.read(0, &ReadRequest::text(sql)).unwrap();
            assert_eq!(out.rows, reference.rows);
        }
        // Each node saw one statement text five times (interior nodes share
        // the two-parameter text; outer nodes have their own one-sided
        // text): the first execution plans it, every later one hits.
        for (node, before) in nodes.iter().zip(before) {
            let stats = node.with_db(|db| db.plan_cache_stats());
            let (misses, hits) = (stats.misses - before.misses, stats.hits - before.hits);
            assert_eq!((misses, hits), (1, 4), "{stats:?}");
        }
    }

    #[test]
    fn non_eligible_query_passes_through_to_preferred_node() {
        let (engine, _) = cluster(3, ApuamaConfig::default());
        // No fact table involved once we create a dimension-only table on
        // every node. Writes are broadcast statement-by-statement, the way
        // the C-JDBC scheduler serializes them.
        for stmt in ["create table dim (d int)", "insert into dim values (7)"] {
            for i in 0..3 {
                engine.execute_write(i, stmt).unwrap();
            }
        }
        let out = engine
            .read(2, &ReadRequest::text("select d from dim"))
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(7)]]);
    }

    #[test]
    fn through_cjdbc_controller() {
        let (engine, _) = cluster(4, ApuamaConfig::default());
        let controller = Controller::new(engine.connections(), ControllerConfig::default());
        // OLAP query goes through the controller, gets hijacked by Apuama.
        let (out, _) = controller
            .execute("select sum(o_totalprice) as t from orders")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Float((1..=60).sum::<i64>() as f64));
        // An update broadcast through the controller reaches all replicas
        // and the counters converge.
        controller
            .execute("insert into orders values (61, 61.0)")
            .unwrap();
        assert_eq!(engine.txn_counters(), vec![1, 1, 1, 1]);
        let (out, _) = controller
            .execute("select count(*) as n from orders")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(61));
    }

    /// A session `SET` sent through the controller is a statement every
    /// replica's session must see: load-balanced like a read it would land
    /// on one backend and the sessions would diverge.
    #[test]
    fn set_through_the_controller_reaches_every_replica_session() {
        let (engine, nodes) = cluster(3, ApuamaConfig::default());
        let controller = Controller::new(engine.connections(), ControllerConfig::default());
        let timeout = |i: usize| nodes[i].with_db(|db| db.setting("statement_timeout_ms"));
        controller.disable_backend(2);
        controller
            .execute("set statement_timeout_ms = 60000")
            .unwrap();
        assert_eq!(timeout(0).as_deref(), Some("60000"));
        assert_eq!(timeout(1).as_deref(), Some("60000"));
        assert_eq!(timeout(2), None, "disabled during the SET");
        // A SELECT after it is still one read on one backend.
        let reads = |c: &Controller| c.reads_served().iter().sum::<usize>();
        let before = reads(&controller);
        let (out, _) = controller
            .execute("select o_totalprice from orders where o_orderkey = 7")
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Float(7.0)]]);
        assert_eq!(reads(&controller), before + 1);
        // The SET went into the recovery log: rejoining replays it.
        let rejoined = controller.rejoin_backend(2).unwrap();
        assert_eq!(rejoined.live_replayed + rejoined.pause_replayed, 1);
        assert_eq!(timeout(2).as_deref(), Some("60000"));
    }

    #[test]
    fn updates_and_svp_interleave_consistently() {
        let (engine, _) = cluster(3, ApuamaConfig::default());
        let controller = Arc::new(Controller::new(
            engine.connections(),
            ControllerConfig::default(),
        ));
        let sums: Vec<i64> = std::thread::scope(|s| {
            let writer = {
                let c = Arc::clone(&controller);
                s.spawn(move || {
                    for k in 61..=100i64 {
                        c.execute(&format!("insert into orders values ({k}, 0.0)"))
                            .unwrap();
                    }
                })
            };
            let reader = {
                let c = Arc::clone(&controller);
                s.spawn(move || {
                    let mut counts = Vec::new();
                    for _ in 0..15 {
                        let (out, _) = c.execute("select count(*) as n from orders").unwrap();
                        counts.push(out.rows[0][0].as_i64().unwrap());
                    }
                    counts
                })
            };
            writer.join().unwrap();
            reader.join().unwrap()
        });
        // Every SVP count is a consistent snapshot: monotone within the
        // writer's progression and within bounds. (A torn read across
        // partitions would typically double- or zero-count in-flight rows.)
        for w in sums.windows(2) {
            assert!(w[1] >= w[0], "counts regressed: {sums:?}");
        }
        assert!(sums.iter().all(|&n| (60..=100).contains(&n)), "{sums:?}");
        // Final state: all replicas converged.
        assert_eq!(engine.txn_counters(), vec![40, 40, 40]);
        let (out, _) = controller
            .execute("select count(*) as n from orders")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(100));
    }

    #[test]
    fn refresh_keys_beyond_catalog_range_are_still_counted() {
        // The catalog recorded high=60; insert far beyond it and make sure
        // the unbounded last partition owns the new keys.
        let (engine, _) = cluster(4, ApuamaConfig::default());
        let controller = Controller::new(engine.connections(), ControllerConfig::default());
        controller
            .execute("insert into orders values (5000, 1.0)")
            .unwrap();
        let (out, _) = controller
            .execute("select count(*) as n from orders")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(61));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultPolicy;
    use apuama_cjdbc::{
        BreakerPolicy, Controller, ControllerConfig, EngineNode, FaultPlan, FaultTarget,
        FaultyConnection, NodeConnection,
    };
    use apuama_engine::Database;
    use apuama_sql::Value;
    use apuama_storage::Row;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A cluster whose every connection is wrapped in a (initially inert)
    /// fault injector.
    fn faulty_cluster(
        n: usize,
        config: ApuamaConfig,
    ) -> (Arc<ApuamaEngine>, Vec<Arc<FaultyConnection>>) {
        let mut faulties = Vec::new();
        let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
        for i in 0..n {
            let mut db = Database::in_memory();
            db.execute(
                "create table orders (o_orderkey int not null, o_totalprice float, \
                 primary key (o_orderkey)) clustered by (o_orderkey)",
            )
            .unwrap();
            let rows: Vec<Vec<Value>> = (1..=60i64)
                .map(|k| vec![Value::Int(k), Value::Float(k as f64 * 1.37)])
                .collect();
            db.load_table("orders", rows).unwrap();
            let node = EngineNode::new(format!("n{i}"), db);
            let faulty =
                FaultyConnection::new(Arc::new(NodeConnection::new(node)), FaultPlan::default());
            conns.push(faulty.clone() as Arc<dyn Connection>);
            faulties.push(faulty);
        }
        let engine = ApuamaEngine::new(conns, DataCatalog::tpch(60), config);
        (engine, faulties)
    }

    const SQL: &str = "select count(*) as n, sum(o_totalprice) as t, avg(o_totalprice) as a \
                       from orders";

    #[test]
    fn dead_node_subqueries_are_reassigned_byte_identically() {
        let (healthy, _) = faulty_cluster(4, ApuamaConfig::default());
        let (engine, faulties) = faulty_cluster(4, ApuamaConfig::default());
        faulties[1].set_plan(FaultPlan {
            target: FaultTarget::Reads,
            ..FaultPlan::fail_all()
        });
        let want = healthy.read(0, &ReadRequest::text(SQL)).unwrap();
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 4).unwrap() else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        // Byte-identical to the healthy cluster, including float bits.
        assert_eq!(exec.output.rows, want.rows);
        // Range 1 was produced by some surviving node.
        assert!(exec
            .recovery
            .reassigned
            .iter()
            .any(|&(range, node)| range == 1 && node != 1));
        assert!(exec.recovery.failed_attempts > 0);
    }

    #[test]
    fn failed_svp_leaves_nothing_behind_for_same_template() {
        // A failed SVP followed by a successful same-template SVP must be
        // byte-identical to a fresh engine.
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                fault: FaultPolicy::fail_fast(),
                ..ApuamaConfig::default()
            },
        );
        faulties[2].set_plan(FaultPlan {
            target: FaultTarget::Reads,
            ..FaultPlan::fail_all()
        });
        assert!(engine.read(0, &ReadRequest::text(SQL)).is_err());
        faulties[2].heal();
        let replay = engine.read(0, &ReadRequest::text(SQL)).unwrap();
        let (fresh, _) = faulty_cluster(3, ApuamaConfig::default());
        let want = fresh.read(0, &ReadRequest::text(SQL)).unwrap();
        assert_eq!(replay.rows, want.rows);
    }

    /// A query whose sub-queries fold `min(` and `max(` and never `sum(`,
    /// so a fault plan matching `sum(` leaves it alone.
    const FAST_SQL: &str = "select min(o_totalprice) as lo, max(o_totalprice) as hi from orders";

    fn healthy_answer(sql: &str) -> Vec<Row> {
        let (healthy, _) = faulty_cluster(3, ApuamaConfig::default());
        healthy.read(0, &ReadRequest::text(sql)).unwrap().rows
    }

    /// Blocks until `node` has counted a statement its plan targets: the
    /// query that sent it has dispatched, and that sub-query is now inside
    /// its injected delay.
    fn wait_for_targeted_subquery(node: &FaultyConnection) {
        let start = Instant::now();
        while node.matching_calls() == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "never sent");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Inter-query parallelism reaches the composer: with one node's
    /// sub-query of [`SQL`] held for 350 ms, [`FAST_SQL`] sent after it
    /// through the same seam (`run` answers one statement) is back long
    /// before it — anything the slow query held from dispatch to `finish`
    /// would keep it waiting for that node too.
    fn assert_fast_query_is_not_queued_behind_slow(
        delayed: &FaultyConnection,
        run: impl Fn(&str) -> Vec<Row> + Sync,
    ) {
        delayed.set_plan(FaultPlan {
            delay: Duration::from_millis(350),
            only_matching: Some("sum(".into()),
            ..FaultPlan::default()
        });
        let timed = |sql: &str| {
            let t = Instant::now();
            (run(sql), t.elapsed())
        };
        let ((slow, slow_took), (fast, fast_took)) = std::thread::scope(|s| {
            let slow = s.spawn(|| timed(SQL));
            wait_for_targeted_subquery(delayed);
            let fast = timed(FAST_SQL);
            (slow.join().expect("slow query's thread"), fast)
        });
        assert_eq!(fast, healthy_answer(FAST_SQL));
        assert_eq!(slow, healthy_answer(SQL));
        assert!(
            fast_took * 4 < slow_took,
            "the fast query took {fast_took:?} of the slow one's {slow_took:?}"
        );
    }

    #[test]
    fn fast_svp_query_returns_while_a_slow_one_waits_for_its_node() {
        let (engine, faulties) = faulty_cluster(3, ApuamaConfig::default());
        assert_fast_query_is_not_queued_behind_slow(&faulties[1], |sql| {
            engine.read(0, &ReadRequest::text(sql)).unwrap().rows
        });
    }

    /// The same through the C-JDBC seam, one client thread per query.
    #[test]
    fn fast_svp_query_overtakes_a_slow_one_through_the_controller() {
        let (engine, faulties) = faulty_cluster(3, ApuamaConfig::default());
        let controller = Controller::new(engine.connections(), ControllerConfig::default());
        assert_fast_query_is_not_queued_behind_slow(&faulties[1], |sql| {
            controller.read(&ReadRequest::text(sql)).unwrap().0.rows
        });
    }

    /// A query that fails while another is mid-composition takes only its
    /// own composer down: node 1 fails A's sub-query under the fail-fast
    /// policy while B waits for node 2 with two partials already folded.
    #[test]
    fn a_failing_query_leaves_a_concurrent_composition_alone() {
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                fault: FaultPolicy::fail_fast(),
                ..ApuamaConfig::default()
            },
        );
        faulties[1].set_plan(FaultPlan {
            only_matching: Some("sum(".into()),
            ..FaultPlan::fail_all()
        });
        faulties[2].set_plan(FaultPlan {
            delay: Duration::from_millis(150),
            only_matching: Some("min(".into()),
            ..FaultPlan::default()
        });
        let b = std::thread::scope(|s| {
            let b = s.spawn(|| engine.read(0, &ReadRequest::text(FAST_SQL)));
            wait_for_targeted_subquery(&faulties[2]);
            assert!(engine.read(1, &ReadRequest::text(SQL)).is_err());
            assert!(!b.is_finished(), "A failed while B was still composing");
            b.join().expect("B's thread")
        });
        assert_eq!(b.unwrap().rows, healthy_answer(FAST_SQL));
    }

    #[test]
    fn first_partial_ms_ignores_errored_partials() {
        // Node 0 fails instantly; nodes 1 and 2 are delayed. The stamp must
        // come from a *composed* partial, i.e. after the delay — the seed
        // stamped it at the errored partial's arrival (~0 ms).
        let (engine, faulties) = faulty_cluster(3, ApuamaConfig::default());
        faulties[0].set_plan(FaultPlan {
            target: FaultTarget::Reads,
            ..FaultPlan::fail_all()
        });
        for f in &faulties[1..] {
            f.set_plan(FaultPlan {
                delay: std::time::Duration::from_millis(30),
                only_matching: Some("from orders".into()),
                ..FaultPlan::default()
            });
        }
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        assert!(
            exec.timing.first_partial_ms >= 25.0,
            "first_partial_ms = {} stamped by an errored partial",
            exec.timing.first_partial_ms
        );
    }

    #[test]
    fn stalled_subquery_times_out_and_is_reassigned() {
        let (healthy, _) = faulty_cluster(3, ApuamaConfig::default());
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                fault: FaultPolicy {
                    subquery_timeout_ms: Some(25),
                    max_retries: 0,
                    ..FaultPolicy::default()
                },
                ..ApuamaConfig::default()
            },
        );
        faulties[0].set_plan(FaultPlan {
            stall_every: 1,
            stall: std::time::Duration::from_millis(300),
            only_matching: Some("from orders".into()),
            ..FaultPlan::default()
        });
        let want = healthy.read(0, &ReadRequest::text(SQL)).unwrap();
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        assert_eq!(exec.output.rows, want.rows);
        assert!(exec
            .recovery
            .reassigned
            .iter()
            .any(|&(range, _)| range == 0));
        assert!(engine.health().failures(0) > 0, "timeout recorded");
    }

    #[test]
    fn open_circuit_routes_ranges_around_the_node_at_dispatch() {
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                fault: FaultPolicy {
                    breaker: BreakerPolicy {
                        threshold: 2,
                        probe_after: Duration::from_secs(60),
                    },
                    ..FaultPolicy::default()
                },
                ..ApuamaConfig::default()
            },
        );
        faulties[1].set_plan(FaultPlan {
            target: FaultTarget::Reads,
            ..FaultPlan::fail_all()
        });
        // First query trips node 1's breaker (2 attempts fail), recovers by
        // reassignment.
        engine.read(0, &ReadRequest::text(SQL)).unwrap();
        assert_eq!(engine.health().state(1), apuama_cjdbc::CircuitState::Open);
        let calls_before = faulties[1].calls();
        // Second query never touches node 1: its range is pre-routed.
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        assert_eq!(faulties[1].calls(), calls_before);
        assert!(exec
            .recovery
            .reassigned
            .iter()
            .any(|&(range, node)| range == 1 && node != 1));
    }

    /// Opens node 1's circuit for a minute and makes node 0 — where range 1
    /// is routed at dispatch — fail its sub-queries of [`SQL`] after
    /// `delay_ms`.
    fn open_node_1_and_fail_node_0(
        delay_ms: u64,
    ) -> (Arc<ApuamaEngine>, Vec<Arc<FaultyConnection>>) {
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                fault: FaultPolicy {
                    max_retries: 0,
                    breaker: BreakerPolicy {
                        threshold: 1,
                        probe_after: Duration::from_secs(60),
                    },
                    ..FaultPolicy::default()
                },
                ..ApuamaConfig::default()
            },
        );
        engine.health().record_failure(1);
        assert_eq!(engine.health().state(1), apuama_cjdbc::CircuitState::Open);
        faulties[0].set_plan(FaultPlan {
            delay: Duration::from_millis(delay_ms),
            only_matching: Some("from orders".into()),
            ..FaultPlan::fail_all()
        });
        (engine, faulties)
    }

    /// `reassigned` names each range once, with the node that produced its
    /// partial: range 1, routed around node 1's open circuit to node 0 and
    /// failing there, is listed as produced by node 2 only.
    #[test]
    fn a_range_routed_around_a_node_then_requeued_is_reported_once() {
        let (engine, faulties) = open_node_1_and_fail_node_0(0);
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        assert_eq!(exec.output.rows, healthy_answer(SQL));
        let mut reassigned = exec.recovery.reassigned.clone();
        reassigned.sort();
        assert_eq!(reassigned, vec![(0, 2), (1, 2)], "{:?}", exec.recovery);
        assert_eq!(faulties[1].calls(), 0);
    }

    /// A node whose circuit was open at dispatch took no ticket for the
    /// query, so it never receives a requeued range — even once it is
    /// available again by the time the failure arrives.
    #[test]
    fn a_node_open_at_dispatch_never_receives_a_requeued_range() {
        let (engine, faulties) = open_node_1_and_fail_node_0(150);
        let exec = std::thread::scope(|s| {
            let query = s.spawn(|| engine.read(0, &ReadRequest::text(SQL)));
            wait_for_targeted_subquery(&faulties[0]);
            // Node 1 recovers while node 0 is still inside its delay.
            engine.health().record_success(1);
            assert!(engine.health().is_available(1));
            query.join().expect("query thread")
        });
        assert_eq!(exec.unwrap().rows, healthy_answer(SQL));
        assert_eq!(faulties[1].calls(), 0, "node 1 ran a requeued range");
        assert_eq!(faulties[2].calls(), 3, "range 2, then ranges 0 and 1");
    }

    /// A requeued range needs a pool slot on a node whose ticket the query
    /// still holds. A write queued behind that ticket, and a pass-through read
    /// queued behind the write, wait on the snapshot lock holding no slot,
    /// so with a pool of two the range still runs and the query completes.
    #[test]
    fn a_requeued_range_gets_a_slot_past_a_queued_write_and_reads() {
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                pool_size: 2,
                fault: FaultPolicy {
                    max_retries: 0,
                    ..FaultPolicy::default()
                },
                ..ApuamaConfig::default()
            },
        );
        faulties[2].set_plan(FaultPlan {
            delay: Duration::from_millis(150),
            only_matching: Some("from orders".into()),
            ..FaultPlan::fail_all()
        });
        let want = healthy_answer(SQL);
        let (done_tx, done) = std::sync::mpsc::channel();
        let query = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let _ = done_tx.send(engine.read(0, &ReadRequest::text(SQL)));
            })
        };
        wait_for_targeted_subquery(&faulties[2]);
        let mut others = Vec::new();
        for node in 0..3 {
            let engine = Arc::clone(&engine);
            others.push(std::thread::spawn(move || {
                engine
                    .execute_write(node, "insert into orders values (61, 1.0)")
                    .map(|_| ())
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        for node in 0..2 {
            let engine = Arc::clone(&engine);
            others.push(std::thread::spawn(move || {
                engine.node_processors()[node]
                    .execute_read(&ReadRequest::text(
                        "select o_totalprice from orders where o_orderkey = 5",
                    ))
                    .map(|_| ())
            }));
        }
        let out = done
            .recv_timeout(Duration::from_secs(10))
            .expect("the query is stuck: its requeued range never got a pool slot")
            .unwrap();
        assert_eq!(out.rows, want);
        query.join().unwrap();
        for other in others {
            other.join().unwrap().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_connection_to_a_node_outside_the_cluster_panics_when_made() {
        let (engine, _) = faulty_cluster(2, ApuamaConfig::default());
        engine.connection(2);
    }

    /// A plan rewritten for another cluster size is caller input, refused
    /// before the update gate is touched: a write and a correct SVP query
    /// both go through afterwards.
    #[test]
    fn a_plan_for_another_cluster_size_is_an_error_not_a_panic() {
        let (engine, _) = faulty_cluster(4, ApuamaConfig::default());
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let err = engine.execute_svp(&plan).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
        let controller = Controller::new(engine.connections(), ControllerConfig::default());
        controller
            .execute("insert into orders values (61, 1.0)")
            .unwrap();
        assert_eq!(engine.txn_counters(), vec![1; 4]);
        let (out, _) = controller
            .execute("select count(*) as n from orders")
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(61)]]);
    }

    /// A sub-query is one request to its node: no SET before it, none
    /// after it, no warm-up prepare — on the first run and on every later
    /// one.
    #[test]
    fn svp_query_makes_exactly_one_call_per_node() {
        let (engine, faulties) = faulty_cluster(4, ApuamaConfig::default());
        for run in 1..=3 {
            engine.read(0, &ReadRequest::text(SQL)).unwrap();
            for (i, f) in faulties.iter().enumerate() {
                assert_eq!(f.calls(), run, "node {i} after run {run}");
            }
        }
    }

    /// A request down `read` is a read by construction; when a caller gets
    /// that wrong, the node's read entry is what refuses it — every layer
    /// above passed it on unparsed.
    #[test]
    fn write_text_down_the_read_path_is_refused_and_changes_nothing() {
        let (engine, faulties) = faulty_cluster(4, ApuamaConfig::default());
        let conn = engine.connection(2);
        for sql in [
            "insert into orders values (1000, 1.0)",
            "delete from orders where o_orderkey > 0",
        ] {
            let err = conn.read(&ReadRequest::text(sql)).unwrap_err();
            assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
        }
        assert_eq!(faulties[2].calls(), 2, "both reached the node");
        let out = engine.read(2, &ReadRequest::text(SQL)).unwrap();
        assert_eq!(out.rows[0][0], Value::Int(60));
        assert_eq!(engine.txn_counters(), vec![0; 4]);
    }

    #[test]
    fn healthy_run_reports_clean_recovery() {
        let (engine, _) = faulty_cluster(3, ApuamaConfig::default());
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        assert!(exec.recovery.clean(), "{:?}", exec.recovery);
    }
}

#[cfg(test)]
mod governance_tests {
    use super::*;
    use crate::fault::FaultPolicy;
    use apuama_cjdbc::{EngineNode, FaultPlan, FaultyConnection, NodeConnection};
    use apuama_engine::{Database, EngineError, QueryGovernor};
    use apuama_sql::Value;
    use std::sync::Arc;
    use std::time::Duration;

    fn faulty_cluster(
        n: usize,
        config: ApuamaConfig,
    ) -> (Arc<ApuamaEngine>, Vec<Arc<FaultyConnection>>) {
        let mut faulties = Vec::new();
        let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
        for i in 0..n {
            let mut db = Database::in_memory();
            db.execute(
                "create table orders (o_orderkey int not null, o_totalprice float, \
                 primary key (o_orderkey)) clustered by (o_orderkey)",
            )
            .unwrap();
            let rows: Vec<Vec<Value>> = (1..=60i64)
                .map(|k| vec![Value::Int(k), Value::Float(k as f64 * 1.37)])
                .collect();
            db.load_table("orders", rows).unwrap();
            let node = EngineNode::new(format!("n{i}"), db);
            let faulty =
                FaultyConnection::new(Arc::new(NodeConnection::new(node)), FaultPlan::default());
            conns.push(faulty.clone() as Arc<dyn Connection>);
            faulties.push(faulty);
        }
        let engine = ApuamaEngine::new(conns, DataCatalog::tpch(60), config);
        (engine, faulties)
    }

    const SQL: &str = "select count(*) as n, sum(o_totalprice) as t, avg(o_totalprice) as a \
                       from orders";

    fn delay_all(faulties: &[Arc<FaultyConnection>], ms: u64) {
        for f in faulties {
            f.set_plan(FaultPlan {
                delay: Duration::from_millis(ms),
                only_matching: Some("from orders".into()),
                ..FaultPlan::default()
            });
        }
    }

    fn heal_all(faulties: &[Arc<FaultyConnection>]) {
        for f in faulties {
            f.heal();
        }
    }

    /// Satellite (a) regression: the timeout path in `run_attempt` spawns a
    /// detached worker thread. Before governance it kept the node's pool
    /// slot and in-flight count pinned for the full stall; now the
    /// abandoned attempt's child token is cancelled and the thread exits at
    /// its next batch boundary, draining the in-flight count to zero.
    #[test]
    fn in_flight_drains_to_zero_after_timeout_reassignment() {
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                fault: FaultPolicy {
                    subquery_timeout_ms: Some(25),
                    max_retries: 0,
                    ..FaultPolicy::default()
                },
                ..ApuamaConfig::default()
            },
        );
        faulties[0].set_plan(FaultPlan {
            stall_every: 1,
            stall: Duration::from_millis(300),
            only_matching: Some("from orders".into()),
            ..FaultPlan::default()
        });
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let exec = engine.execute_svp(&plan).unwrap();
        assert!(
            exec.recovery
                .reassigned
                .iter()
                .any(|&(range, _)| range == 0),
            "{:?}",
            exec.recovery
        );
        // The stalled node's worker is still asleep inside the injected
        // stall when the query completes; it must wake, observe its
        // cancelled token, and release the slot — not linger forever.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let in_flight: usize = engine
                .node_processors()
                .iter()
                .map(|n| n.subqueries_in_flight())
                .sum();
            if in_flight == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "abandoned attempt leaked: {in_flight} sub-queries still in flight"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The deadline outcome leaves as little behind as the failure outcome:
    /// a same-template replay after a deadline-killed SVP is byte-identical
    /// to a fresh engine.
    #[test]
    fn deadline_exceeded_svp_leaves_nothing_behind() {
        let (engine, faulties) = faulty_cluster(3, ApuamaConfig::default());
        delay_all(&faulties, 60);
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let gov = QueryGovernor::new().with_deadline_in(Duration::from_millis(10));
        let err = engine.execute_svp_governed(&plan, Some(&gov)).unwrap_err();
        assert!(matches!(err, EngineError::Timeout(_)), "{err:?}");

        heal_all(&faulties);
        let replay = engine.read(0, &ReadRequest::text(SQL)).unwrap();
        let (fresh, _) = faulty_cluster(3, ApuamaConfig::default());
        let want = fresh.read(0, &ReadRequest::text(SQL)).unwrap();
        assert_eq!(replay.rows, want.rows);
    }

    /// Cancellation outcome: a caller that abandons the query mid-flight
    /// (cancel fires while sub-queries are delayed) must not poison the
    /// template's next run either.
    #[test]
    fn cancelled_svp_leaves_nothing_behind() {
        let (engine, faulties) = faulty_cluster(3, ApuamaConfig::default());
        delay_all(&faulties, 60);
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let gov = QueryGovernor::new();
        let canceller = {
            let token = gov.cancel_token().clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                token.cancel();
            })
        };
        let err = engine.execute_svp_governed(&plan, Some(&gov)).unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, EngineError::Cancelled(_)), "{err:?}");

        heal_all(&faulties);
        let replay = engine.read(0, &ReadRequest::text(SQL)).unwrap();
        let (fresh, _) = faulty_cluster(3, ApuamaConfig::default());
        let want = fresh.read(0, &ReadRequest::text(SQL)).unwrap();
        assert_eq!(replay.rows, want.rows);
    }

    /// Cancellation is health-neutral: the abandoning caller is not the
    /// nodes' fault, so no breaker strikes accrue from a cancelled query.
    #[test]
    fn cancelled_query_records_no_node_failures() {
        let (engine, faulties) = faulty_cluster(3, ApuamaConfig::default());
        delay_all(&faulties, 60);
        let Rewritten::Svp(plan) = engine.rewriter().rewrite(SQL, 3).unwrap() else {
            panic!()
        };
        let gov = QueryGovernor::new();
        let canceller = {
            let token = gov.cancel_token().clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                token.cancel();
            })
        };
        let err = engine.execute_svp_governed(&plan, Some(&gov)).unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, EngineError::Cancelled(_)), "{err:?}");
        for node in 0..3 {
            assert_eq!(engine.health().failures(node), 0, "node {node}");
        }
    }

    /// A bound read through the driver connection is governed like its
    /// text form: the request reaches the SVP executor whole.
    #[test]
    fn bound_read_through_the_connection_observes_its_deadline() {
        let (engine, faulties) = faulty_cluster(3, ApuamaConfig::default());
        delay_all(&faulties, 80);
        let conn = engine.connection(0);
        let sql = "select count(*) as n from orders where o_totalprice > $1";
        let gov = QueryGovernor::new().with_deadline_in(Duration::from_millis(10));
        let params = [Value::Float(10.0)];
        let err = conn
            .read(&ReadRequest::bound(sql, &params).governed(&gov))
            .unwrap_err();
        assert!(matches!(err, EngineError::Timeout(_)), "{err:?}");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine
            .node_processors()
            .iter()
            .any(|n| n.subqueries_in_flight() > 0)
        {
            assert!(
                std::time::Instant::now() < deadline,
                "sub-queries still in flight"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        heal_all(&faulties);
        let out = conn.read(&ReadRequest::bound(sql, &params)).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(53)]]);
    }

    /// `ApuamaConfig::query_deadline_ms` bounds every statement without
    /// the caller carrying a governor; the engine works again for the next
    /// statement once the slowdown clears.
    #[test]
    fn config_statement_deadline_times_out_and_recovers() {
        let (engine, faulties) = faulty_cluster(
            3,
            ApuamaConfig {
                query_deadline_ms: Some(15),
                ..ApuamaConfig::default()
            },
        );
        delay_all(&faulties, 80);
        let err = engine.read(0, &ReadRequest::text(SQL)).unwrap_err();
        assert!(matches!(err, EngineError::Timeout(_)), "{err:?}");

        heal_all(&faulties);
        let out = engine.read(0, &ReadRequest::text(SQL)).unwrap();
        let (fresh, _) = faulty_cluster(3, ApuamaConfig::default());
        let want = fresh.read(0, &ReadRequest::text(SQL)).unwrap();
        assert_eq!(out.rows, want.rows);
    }
}
