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

use std::sync::Arc;
use std::time::Instant;

use apuama_cjdbc::{classify, Connection, HealthTracker, StatementKind};
use apuama_engine::{
    EngineError, EngineResult, ExecStats, PhaseTiming, QueryGovernor, QueryOutput, ReadRequest,
};
use apuama_sql::Value;

use crate::catalog::DataCatalog;
use crate::composer::{Composer, StreamingComposer};
use crate::consistency::{ConsistencyMode, UpdateGate};
use crate::fault::{FaultPolicy, RecoveryReport};
use crate::node::NodeProcessor;
use crate::rewrite::{Rewritten, SvpPlan, SvpRewriter};

/// Configuration knobs (defaults reproduce the paper; the alternatives are
/// ablation arms).
#[derive(Debug, Clone, Copy)]
pub struct ApuamaConfig {
    /// Intra-query parallelism on/off. Off = plain C-JDBC behaviour.
    pub svp_enabled: bool,
    /// Optimizer interference on SVP sub-queries: each one is planned as
    /// under `SET enable_seqscan = off` (the hint rides on the sub-query's
    /// request; the node's session setting is never touched).
    pub force_index: bool,
    /// Replica-consistency protocol.
    pub consistency: ConsistencyMode,
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
    /// Per-node morsel-parallel worker count (the third parallelism tier:
    /// intra-node, across one node's cores — the paper's testbed machines
    /// were 2-way SMPs). Applied to every node as
    /// `SET parallel_workers = N` at construction, so SVP sub-queries
    /// inherit it. `None` leaves each node's default (its own core count).
    pub parallel_workers: Option<usize>,
}

impl Default for ApuamaConfig {
    fn default() -> Self {
        ApuamaConfig {
            svp_enabled: true,
            force_index: true,
            consistency: ConsistencyMode::Blocking,
            pool_size: 8,
            fault: FaultPolicy::default(),
            query_deadline_ms: None,
            parallel_workers: None,
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
    /// by the SVP dispatcher (and shareable with the C-JDBC read balancer
    /// via [`apuama_cjdbc::Controller::with_health`]).
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
        if let Some(w) = config.parallel_workers {
            // Session-level: every statement the middleware sends — SVP
            // sub-queries included — runs under this intra-node worker
            // count. Results are byte-identical at any setting, so a
            // failure here only costs the knob, not correctness.
            for c in &conns {
                let _ = c.execute(&format!("set parallel_workers = {w}"));
            }
        }
        let health = Arc::new(HealthTracker::new(n, config.fault.breaker()));
        Arc::new(ApuamaEngine {
            nodes: conns
                .into_iter()
                .enumerate()
                .map(|(i, c)| {
                    NodeProcessor::with_health(
                        c,
                        config.pool_size,
                        config.force_index,
                        Arc::clone(&health),
                        i,
                    )
                })
                .collect(),
            rewriter: SvpRewriter::new(catalog),
            gate: UpdateGate::new(n, config.consistency),
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

    /// This engine as controller rejoin hooks — wire into
    /// [`apuama_cjdbc::ControllerConfig`]'s `rejoin_hooks` so backend
    /// disable/rejoin transitions keep the update gate's view of the
    /// cluster in sync (see the [`apuama_cjdbc::RejoinHooks`] impl below).
    pub fn rejoin_hooks(self: &Arc<Self>) -> Arc<dyn apuama_cjdbc::RejoinHooks> {
        Arc::clone(self) as Arc<dyn apuama_cjdbc::RejoinHooks>
    }

    /// The per-node connection C-JDBC's backend `node` plugs into.
    pub fn connection(self: &Arc<Self>, node: usize) -> Arc<ApuamaConnection> {
        assert!(node < self.nodes.len());
        Arc::new(ApuamaConnection {
            engine: Arc::clone(self),
            node,
            name: format!("apuama-{}", self.nodes[node].name()),
        })
    }

    /// Connections for all nodes, in order — what you hand to
    /// [`apuama_cjdbc::Controller::new`].
    pub fn connections(self: &Arc<Self>) -> Vec<Arc<dyn Connection>> {
        (0..self.nodes.len())
            .map(|i| self.connection(i) as Arc<dyn Connection>)
            .collect()
    }

    /// Read entry point: SVP when eligible, pass-through to the
    /// controller-chosen node otherwise. An SVP query derives its
    /// per-query governor from the request's; a pass-through hands the
    /// request on as it came (a bound one runs from that node's plan
    /// cache).
    pub fn read(&self, preferred_node: usize, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        if self.config.svp_enabled {
            match self.rewriter.rewrite(&req.rendered()?, self.nodes.len())? {
                Rewritten::Svp(plan) => {
                    return self
                        .execute_svp_governed(&plan, req.governor)
                        .map(|e| e.output)
                }
                Rewritten::Passthrough { .. } => {}
            }
        }
        self.nodes[preferred_node].execute_read(req)
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
    /// Sub-query results are not join-all'ed: each node thread sends its
    /// partial through a channel the moment it completes, and the composer
    /// — a [`StreamingComposer`] this call builds for its plan and owns —
    /// folds it in while the remaining sub-queries are still running. The
    /// update gate still releases at "dispatched and started" — composition
    /// happens strictly after the release point.
    ///
    /// Sub-queries are dispatched as *prepared statements*
    /// ([`SvpPlan::prepared`]): the first execution of a statement text on
    /// a node parses and lowers it into that node's plan cache, and every
    /// later one — retries and repeated runs of the same eval query
    /// included — binds range values into the cached plan instead of
    /// re-parsing and re-planning the rendered SQL. Connections without a
    /// plan cache transparently fall back to executing the identically
    /// rendered text.
    ///
    /// Fault handling (see DESIGN.md §8, driven by [`FaultPolicy`]):
    ///
    /// * Ranges owned by a node whose circuit is open are routed to
    ///   available replicas at dispatch time.
    /// * Each sub-query runs under an optional deadline and bounded
    ///   same-node retries with exponential backoff.
    /// * A range whose node exhausted its retries is handed whole to one
    ///   surviving replica — the residual is the node's entire range, so
    ///   the survivor runs the planned statement ([`SvpPlan::prepared`]) —
    ///   with the partial attributed to the *original* range index, so the
    ///   composed result is byte-identical to the healthy run (splitting
    ///   the residual across survivors would change float-fold order).
    /// * Reassigned sub-queries take fresh snapshot tickets after the gate
    ///   released, so they may observe a slightly later snapshot than the
    ///   original dispatch wave (documented relaxation; the paper does not
    ///   specify failure behaviour).
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
        assert_eq!(
            plan.subqueries.len(),
            self.nodes.len(),
            "plan was rewritten for a different cluster size"
        );
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
        if let Err(e) = gov.check() {
            self.gate.release_updates();
            return Err(e);
        }

        let n = self.nodes.len();
        let policy = self.config.fault;
        let mut recovery = RecoveryReport::default();

        // 2. Assign ranges: node i owns range i unless its circuit is open
        //    or it is quarantined (disabled / catching up after a failure),
        //    in which case the range is spread round-robin over available
        //    nodes. If every circuit is open, dispatch to the non-quarantined
        //    nodes as planned — those attempts double as probes; quarantine,
        //    by contrast, is a hard fence (a catching-up replica would
        //    return stale rows), so a quarantined node never receives a
        //    range, and an all-quarantined cluster is an error.
        let quarantined: Vec<bool> = (0..n).map(|i| self.health.is_quarantined(i)).collect();
        if quarantined.iter().all(|&q| q) {
            self.gate.release_updates();
            return Err(EngineError::Unsupported(
                "every node is quarantined: no replica may serve SVP ranges".into(),
            ));
        }
        let assignment: Vec<usize> = {
            let available: Vec<bool> = (0..n).map(|i| self.health.is_available(i)).collect();
            let targets: Vec<usize> = if available.iter().any(|&a| a) {
                (0..n).filter(|&i| available[i]).collect()
            } else {
                (0..n).filter(|&i| !quarantined[i]).collect()
            };
            let mut rr = 0usize;
            (0..n)
                .map(|range| {
                    if targets.contains(&range) {
                        range
                    } else {
                        let t = targets[rr % targets.len()];
                        rr += 1;
                        t
                    }
                })
                .collect()
        };
        for (range, &node) in assignment.iter().enumerate() {
            if node != range {
                recovery.reassigned.push((range, node));
            }
        }
        let mut units: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (range, &node) in assignment.iter().enumerate() {
            units[node].push(range);
        }
        let workers: Vec<usize> = (0..n).filter(|&i| !units[i].is_empty()).collect();

        // 3. Dispatch; release updates once every worker has its snapshot
        //    ticket ("sent and started").
        let barrier = std::sync::Barrier::new(workers.len() + 1);
        let (tx, rx) = crossbeam::channel::unbounded();
        std::thread::scope(|s| {
            for &i in &workers {
                let node = &self.nodes[i];
                let my_ranges = units[i].clone();
                let barrier = &barrier;
                let tx = tx.clone();
                let policy = &policy;
                let gov = &gov;
                s.spawn(move || {
                    let ticket = node.begin_subquery();
                    barrier.wait();
                    for range in my_ranges {
                        let (sql, params) = &plan.prepared[range];
                        let (attempts, result) = run_with_retries(node, sql, params, policy, gov);
                        // The receiver drains every message, but ignore send
                        // errors anyway so a panicking main can't wedge a
                        // node.
                        let _ = tx.send((range, i, attempts, result));
                    }
                    drop(ticket);
                });
            }
            drop(tx);
            barrier.wait();
            // All sub-queries dispatched and snapshot-ordered: updates may
            // flow again (paper §3).
            self.gate.release_updates();
            let dispatched = Instant::now();

            // 4. Pipelined composition: consume partials as they complete.
            //    The composer is this query's own — every early return
            //    below drops it, and no other query waits on it.
            /// What a finished sub-query updates, in the first wave and in
            /// every reassignment round alike.
            struct Settling<'a> {
                composer: StreamingComposer<'a>,
                gov: &'a QueryGovernor,
                reassign: bool,
                dispatched: Instant,
                recovery: RecoveryReport,
                per_node: Vec<Option<ExecStats>>,
                tried: Vec<Vec<usize>>,
                accept_error: Option<EngineError>,
                timing: PhaseTiming,
                first_composed: bool,
            }
            impl Settling<'_> {
                /// Accounts for `range`'s outcome on `node` and, when it is
                /// a partial, composes it — into the overlap while siblings
                /// are still `outstanding`, into the tail after the last.
                /// `rerouted` marks a partial a reassignment round
                /// produced. Returns the failure, if it was one.
                fn settle(
                    &mut self,
                    (range, node, attempts, result): (usize, usize, u32, EngineResult<QueryOutput>),
                    outstanding: usize,
                    rerouted: bool,
                ) -> Option<(usize, EngineError)> {
                    self.recovery.retries += attempts.saturating_sub(1);
                    let failure = match result {
                        Ok(out) => {
                            self.recovery.failed_attempts += attempts - 1;
                            if rerouted {
                                self.recovery.reassigned.push((range, node));
                            }
                            self.per_node[range] = Some(out.stats);
                            if self.accept_error.is_none() {
                                let t = Instant::now();
                                let accepted = self.composer.accept(range, out);
                                let spent = t.elapsed().as_secs_f64() * 1e3;
                                if outstanding == 0 {
                                    self.timing.compose_tail_ms += spent;
                                } else {
                                    self.timing.compose_overlap_ms += spent;
                                }
                                match accepted {
                                    // Stamped only by a successfully
                                    // composed partial — errored partials
                                    // used to skew this under fault
                                    // injection.
                                    Ok(()) if !self.first_composed => {
                                        self.first_composed = true;
                                        self.timing.first_partial_ms =
                                            self.dispatched.elapsed().as_secs_f64() * 1e3;
                                    }
                                    Ok(()) => {}
                                    Err(e) => self.accept_error = Some(e),
                                }
                            }
                            None
                        }
                        Err(e) => {
                            self.recovery.failed_attempts += attempts;
                            self.tried[range].push(node);
                            // With reassignment off a single failure dooms
                            // the query — cancel the siblings so they stop
                            // at their next batch boundary instead of
                            // finishing work nobody will compose.
                            if !self.reassign {
                                self.gov.cancel();
                            }
                            Some((range, e))
                        }
                    };
                    if self.accept_error.is_some() {
                        // Composition is broken: nothing else can be
                        // accepted, so the query is doomed regardless of
                        // reassignment.
                        self.gov.cancel();
                    }
                    failure
                }
            }
            let mut st = Settling {
                composer: StreamingComposer::new(plan),
                gov: &gov,
                reassign: policy.reassign,
                dispatched,
                recovery,
                per_node: vec![None; n],
                tried: vec![Vec::new(); n],
                accept_error: None,
                timing: PhaseTiming::default(),
                first_composed: false,
            };
            let mut failed: Vec<(usize, EngineError)> = Vec::new();
            let mut outstanding = n;
            for partial in rx.iter() {
                outstanding -= 1;
                failed.extend(st.settle(partial, outstanding, false));
            }

            // 5. Reassignment rounds: every still-missing range goes whole
            //    to a surviving replica it has not been tried on, until all
            //    ranges composed or some range has nowhere left to go.
            while policy.reassign
                && !failed.is_empty()
                && st.accept_error.is_none()
                && !gov.is_cancelled()
            {
                let mut batch: Vec<(usize, usize)> = Vec::with_capacity(failed.len());
                let mut stuck = false;
                for (rr, (range, _)) in failed.iter().enumerate() {
                    let candidates: Vec<usize> = (0..n)
                        .filter(|j| !st.tried[*range].contains(j))
                        .filter(|&j| self.health.is_available(j))
                        .collect();
                    if candidates.is_empty() {
                        stuck = true;
                        break;
                    }
                    batch.push((*range, candidates[rr % candidates.len()]));
                }
                if stuck {
                    break;
                }
                let (rtx, rrx) = crossbeam::channel::unbounded();
                for &(range, target) in &batch {
                    let node = &self.nodes[target];
                    let rtx = rtx.clone();
                    let policy = &policy;
                    let gov = &gov;
                    // A whole failed node's residual is its entire original
                    // range, so the survivor runs the planned statement with
                    // the planned values — and the composed result is
                    // byte-identical to the healthy run's.
                    let (sql, bound) = &plan.prepared[range];
                    s.spawn(move || {
                        let ticket = node.begin_subquery();
                        let (attempts, result) = run_with_retries(node, sql, bound, policy, gov);
                        drop(ticket);
                        let _ = rtx.send((range, target, attempts, result));
                    });
                }
                drop(rtx);
                let mut outstanding = batch.len();
                failed.clear();
                for partial in rrx.iter() {
                    outstanding -= 1;
                    failed.extend(st.settle(partial, outstanding, true));
                }
            }
            let Settling {
                composer,
                recovery,
                per_node,
                accept_error,
                mut timing,
                ..
            } = st;

            // 6. Error out: the siblings are cancelled and the composer,
            //    with whatever it accepted, is dropped.
            if let Some(e) = accept_error {
                gov.cancel();
                return Err(e);
            }
            if !failed.is_empty() {
                gov.cancel();
                // Surface the root cause: a sibling's `Cancelled` is fallout
                // from the doom-cancel above, not the reason the query died.
                failed.sort_by_key(|(range, _)| *range);
                let root = failed
                    .iter()
                    .position(|(_, e)| !matches!(e, EngineError::Cancelled(_)))
                    .unwrap_or(0);
                return Err(failed.swap_remove(root).1);
            }

            // 7. Finish the composition (serial tail).
            let t = Instant::now();
            let composed = composer.finish()?;
            timing.compose_tail_ms += t.elapsed().as_secs_f64() * 1e3;
            timing.total_ms = dispatched.elapsed().as_secs_f64() * 1e3;

            let per_node: Vec<ExecStats> = per_node
                .into_iter()
                .map(|s| s.expect("every range composed"))
                .collect();
            let mut merged = ExecStats::default();
            for s in &per_node {
                merged.merge(s);
            }
            merged.merge(&composed.composition_stats);
            let mut output = composed.output;
            output.stats = merged;
            Ok(SvpExecution {
                output,
                per_node,
                composition_stats: composed.composition_stats,
                partial_rows: composed.partial_rows,
                timing,
                recovery,
            })
        })
    }
}

/// The engine side of the controller's rejoin protocol: a node leaving
/// rotation is excluded from the consistency protocol (its begin/end calls
/// stop coming, and without exclusion one dead replica would wedge every
/// Blocking-mode write); a node re-entering has its transaction counter
/// seeded to the active maximum — the controller calls `on_enable` under
/// its write pause, so nothing is in flight and the seed is exact.
impl apuama_cjdbc::RejoinHooks for ApuamaEngine {
    fn on_disable(&self, node: usize) {
        self.gate.set_excluded(node, true);
    }

    fn on_enable(&self, node: usize, _applied_seq: u64) {
        self.gate.seed_counter(node, self.gate.active_max_counter());
        self.gate.set_excluded(node, false);
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
) -> (u32, EngineResult<QueryOutput>) {
    let max_attempts = policy.max_retries.saturating_add(1);
    let mut last = None;
    for attempt in 1..=max_attempts {
        if attempt > 1 {
            let backoff = policy.backoff(attempt - 1);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        // The query may have been doomed before this attempt (or while we
        // slept in backoff): bail without burning another execution.
        if let Err(e) = gov.check() {
            return (attempt - 1, Err(e));
        }
        match run_attempt(node, sql, params, policy.subquery_timeout_ms, gov) {
            Ok(out) => return (attempt, Ok(out)),
            Err(e) => last = Some(e),
        }
    }
    (max_attempts, Err(last.expect("at least one attempt ran")))
}

/// One attempt, under a deadline when the policy sets one.
///
/// The snapshot ticket guard is not `Send`, so the deadline cannot simply
/// join the statement thread: the statement runs on a detached thread over
/// a cloned `Arc<NodeProcessor>` (the *caller* keeps holding the ticket)
/// and the attempt gives up after the deadline. The abandoned statement is
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
) -> EngineResult<QueryOutput> {
    let Some(ms) = timeout_ms else {
        return node.run_guarded(&ReadRequest::bound(sql, params).governed(gov));
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let worker_node = Arc::clone(node);
    let statement = sql.to_string();
    let bound: Vec<Value> = params.to_vec();
    let attempt_gov = gov.child();
    let worker_gov = attempt_gov.clone();
    std::thread::spawn(move || {
        let req = ReadRequest::bound(&statement, &bound).governed(&worker_gov);
        let _ = tx.send(worker_node.run_guarded(&req));
    });
    match rx.recv_timeout(std::time::Duration::from_millis(ms)) {
        Ok(result) => result,
        Err(_) => {
            attempt_gov.cancel();
            node.record_timeout();
            Err(EngineError::Timeout(format!(
                "sub-query exceeded {ms} ms on {}",
                node.name()
            )))
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
        match classify(sql)? {
            StatementKind::Read => self.read(&ReadRequest::text(sql)),
            StatementKind::Write => self.engine.execute_write(self.node, sql),
        }
    }

    fn read(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        self.engine.read(self.node, req)
    }

    fn mem_peak_bytes(&self) -> u64 {
        self.engine.nodes[self.node].mem_peak_bytes()
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

    #[test]
    fn parallel_workers_config_reaches_every_node() {
        let (engine, nodes) = cluster(
            3,
            ApuamaConfig {
                parallel_workers: Some(3),
                ..ApuamaConfig::default()
            },
        );
        // The session knob landed on every backend, so SVP sub-queries
        // dispatched over these connections inherit it.
        for node in &nodes {
            let setting = node.with_db(|db| db.setting("parallel_workers"));
            assert_eq!(setting.as_deref(), Some("3"), "{}", node.name());
        }
        // And execution under the knob still answers correctly: sum of
        // 1..=60 (integer-valued floats, exact at any association).
        let out = engine
            .read(
                0,
                &ReadRequest::text("select sum(o_totalprice) as s from orders"),
            )
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Float(1830.0)]]);
        // Default config leaves the node's own default untouched.
        let (_, nodes) = cluster(1, ApuamaConfig::default());
        assert_eq!(nodes[0].with_db(|db| db.setting("parallel_workers")), None);
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
        for _ in 0..5 {
            let out = engine.read(0, &ReadRequest::text(sql)).unwrap();
            assert_eq!(out.rows, reference.rows);
        }
        // Each node saw one statement text five times (interior nodes share
        // the two-parameter text; outer nodes have their own one-sided
        // text): the first execution plans it, every later one hits.
        for node in &nodes {
            let stats = node.with_db(|db| db.plan_cache_stats());
            assert_eq!((stats.misses, stats.hits), (1, 4), "{stats:?}");
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
    fn svp_disabled_config_behaves_like_cjdbc() {
        let (engine, _) = cluster(
            3,
            ApuamaConfig {
                svp_enabled: false,
                ..ApuamaConfig::default()
            },
        );
        let out = engine
            .read(1, &ReadRequest::text("select count(*) as n from orders"))
            .unwrap();
        // Still correct, just single-node.
        assert_eq!(out.rows[0][0], Value::Int(60));
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
        let controller = Controller::with_health(
            engine.connections(),
            ControllerConfig {
                rejoin_hooks: engine.rejoin_hooks(),
                ..ControllerConfig::default()
            },
            Arc::clone(engine.health()),
        );
        let workers = |i: usize| nodes[i].with_db(|db| db.setting("parallel_workers"));
        controller.disable_backend(2);
        controller.execute("set parallel_workers = 3").unwrap();
        assert_eq!(workers(0).as_deref(), Some("3"));
        assert_eq!(workers(1).as_deref(), Some("3"));
        assert_eq!(workers(2), None, "disabled during the SET");
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
        assert_eq!(workers(2).as_deref(), Some("3"));
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
        Controller, ControllerConfig, EngineNode, FaultPlan, FaultTarget, FaultyConnection,
        NodeConnection,
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
                    breaker_threshold: 2,
                    probe_after_ms: 60_000,
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
