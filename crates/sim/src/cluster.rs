//! The simulated cluster: N real replicas plus the Apuama machinery,
//! driven single-threaded by the event loop.
//!
//! An SVP query runs here as the engine runs it: the engine's dispatcher
//! ([`apuama::Dispatch`]) places each range's bound sub-query and requeues
//! a failed one, and one composition runs through the
//! [`apuama::StreamingComposer`]. Only time is priced:
//! [`SimCluster::exec_svp`] is the one place a plan executes, and
//! [`SimCluster::compose_timed`] prices its composition on two timelines.

use apuama::{
    Action, DataCatalog, Dispatch, Event, NodeState, Rewritten, StreamingComposer, SvpPlan,
    SvpRewriter,
};
use apuama_engine::{Database, EngineError, EngineResult, ExecStats, QueryOutput, ReadRequest};
use apuama_tpch::{load_into, TpchData};

use crate::cost::CostModel;
use crate::des::EventQueue;

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimClusterConfig {
    /// Number of nodes (replicas).
    pub nodes: usize,
    /// Per-node buffer pool as a fraction of the database's *heap* page
    /// count (see [`SimClusterConfig::paper`] for the calibration).
    pub pool_fraction: f64,
    /// Apuama on (SVP intra-query parallelism) or off (plain C-JDBC
    /// inter-query baseline).
    pub svp: bool,
    /// Plan SVP sub-queries as under `SET enable_seqscan = off` (ablation
    /// knob; the hint rides on each sub-query's request).
    pub force_index: bool,
    /// CPUs per node — each node is a k-server queue (the testbed's dual
    /// Opterons ⇒ 2).
    pub servers_per_node: usize,
    /// Read load-balancing policy for pass-through queries in workload
    /// runs (the paper configures least-pending).
    pub balancer: SimBalancer,
    /// The pricing model.
    pub cost: CostModel,
    /// Failure arm: when set, isolated SVP queries price the degraded-mode
    /// timeline — the failed node's range is detected dead, then reassigned
    /// to a surviving replica (see [`SimFault`]). `None` = healthy cluster.
    pub fault: Option<SimFault>,
}

/// A failure scenario for isolated SVP runs: one node fails 100% of its
/// sub-queries. Mirrors `apuama::FaultPolicy`'s recovery protocol in
/// virtual time: each attempt burns `detect_ms` (error round trip or
/// timeout), `retries` same-node retries are exhausted, and the range then
/// runs whole, from the moment the failure is detected, on the survivor
/// the dispatcher requeues it to (see [`SimCluster::exec_svp`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFault {
    /// The failing node.
    pub node: usize,
    /// Virtual ms burned per failed attempt before the failure is
    /// detected (calibrate to the fault policy's timeout, or to an error
    /// round trip for fail-fast errors).
    pub detect_ms: f64,
    /// Same-node retries before reassignment (the policy's `max_retries`).
    pub retries: u32,
}

impl SimClusterConfig {
    /// The paper's configuration at `nodes` nodes.
    ///
    /// `pool_fraction`: the testbed has 2 GB RAM against 11 GB *on disk*,
    /// but the 11 GB includes index pages (roughly a quarter of a TPC-H
    /// PostgreSQL footprint), which this engine's accounting does not
    /// charge as heap I/O. 2 GB against ~8 GB of heap pages ≈ 0.25 — and
    /// it is this ratio that determines where the paper's memory-fit
    /// crossovers land (lineitem partitions start fitting at n = 4).
    pub fn paper(nodes: usize) -> SimClusterConfig {
        SimClusterConfig {
            nodes,
            pool_fraction: 0.25,
            svp: true,
            force_index: true,
            servers_per_node: 2,
            balancer: SimBalancer::LeastPending,
            cost: CostModel::paper_2006(),
            fault: None,
        }
    }
}

/// Read load-balancing policies available in workload simulations. The
/// real controller (`apuama_cjdbc::Controller::read`) runs only the first,
/// the paper's; the other two exist for the balancer ablation (table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBalancer {
    /// The paper's configuration: fewest queued+running requests.
    #[default]
    LeastPending,
    /// Cycle through nodes regardless of load.
    RoundRobin,
    /// Seeded uniform choice.
    Random {
        /// RNG seed (keeps runs reproducible).
        seed: u64,
    },
}

/// Outcome of one simulated query (isolated-mode timing).
#[derive(Debug, Clone)]
pub struct SimQueryResult {
    /// End-to-end latency assuming the sub-queries run concurrently on
    /// their nodes with no competing load.
    pub makespan_ms: f64,
    /// When each range's partial leaves its node (the DES enqueues the
    /// healthy durations as tasks).
    pub node_task_ms: Vec<f64>,
    /// Total composition work (0 for pass-through queries).
    pub composition_ms: f64,
    /// Network time: partials in, final result out.
    pub transfer_ms: f64,
    /// Composition work that ran while sub-queries were still executing
    /// (0 for pass-through queries).
    pub compose_overlap_ms: f64,
    /// The real query answer.
    pub output: QueryOutput,
}

/// The priced composition of one SVP query, given when each partial
/// lands: one composition, through the streaming composer, on two
/// timelines.
#[derive(Debug, Clone)]
pub struct ComposedTiming {
    /// The real composed answer (stats cleared — already priced).
    pub output: QueryOutput,
    /// Virtual time at which the final result reaches the client, with
    /// partial `i` finishing its node-local execution at `finish_ms[i]`:
    /// each partial ships as its node finishes and is folded on arrival.
    pub done_ms: f64,
    /// The same work staged, as the paper's HSQLDB staging table runs it:
    /// every transfer, every fold and the final statement serialized
    /// after the last partial. Never earlier than `done_ms`.
    pub staged_done_ms: f64,
    /// Work left after the last sub-query finishes — the serialized part
    /// of composition that a DES charges as the job's tail.
    pub tail_ms: f64,
    /// Composition work absorbed while sub-queries were still running.
    pub overlap_ms: f64,
    /// Total composition work (per-partial folds + final statement).
    pub compose_ms: f64,
    /// Total network time: partials in plus final result out.
    pub transfer_ms: f64,
}

/// N full replicas plus rewriter and cost model.
pub struct SimCluster {
    nodes: Vec<Database>,
    rewriter: SvpRewriter,
    config: SimClusterConfig,
    /// Generation parameters of the loaded data (refresh streams reuse
    /// them for key-domain sizing).
    tpch_config: apuama_tpch::TpchConfig,
    /// Next key for refresh transactions (above the loaded key range).
    next_refresh_key: i64,
}

impl SimCluster {
    /// Builds the cluster: loads `data` into every replica and sizes each
    /// buffer pool at `pool_fraction` of the database's pages.
    pub fn new(data: &TpchData, config: SimClusterConfig) -> EngineResult<SimCluster> {
        assert!(config.nodes > 0);
        let mut nodes = Vec::with_capacity(config.nodes);
        for _ in 0..config.nodes {
            // Load with an unbounded pool (loading is not measured), then
            // clamp to the RAM budget and start cold.
            let mut db = Database::in_memory();
            load_into(&mut db, data)?;
            let budget = (db.total_pages() as f64 * config.pool_fraction).ceil() as usize;
            db.set_pool_capacity(budget.max(1));
            db.drop_caches();
            nodes.push(db);
        }
        let order_count = data.config.orders() as i64;
        Ok(SimCluster {
            nodes,
            rewriter: SvpRewriter::new(DataCatalog::tpch(order_count)),
            config,
            tpch_config: data.config,
            next_refresh_key: order_count + 1,
        })
    }

    /// Generation parameters of the loaded dataset.
    pub fn tpch_config(&self) -> apuama_tpch::TpchConfig {
        self.tpch_config
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimClusterConfig {
        &self.config
    }

    /// Switches the failure arm on or off mid-experiment — the recovery
    /// arm prices a fail → degrade → rejoin → healed timeline on one
    /// cluster instance (see `crate::recovery`).
    pub fn set_fault(&mut self, fault: Option<SimFault>) {
        self.config.fault = fault;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to a replica (assertions in tests).
    pub fn node(&self, i: usize) -> &Database {
        &self.nodes[i]
    }

    /// Empties every node's buffer pool — cold-start state between
    /// experiments sharing one loaded cluster.
    pub fn drop_caches(&self) {
        for db in &self.nodes {
            db.drop_caches();
        }
    }

    /// Reserves a fresh refresh key range of `n` orders.
    pub fn reserve_refresh_keys(&mut self, n: i64) -> i64 {
        let k = self.next_refresh_key;
        self.next_refresh_key += n;
        k
    }

    /// The reusable virtual-partitioning template for a query (`None` when
    /// not SVP-eligible) — AVP and other adaptive executors build on it.
    pub fn template(&self, sql: &str) -> EngineResult<Option<apuama::QueryTemplate>> {
        Ok(self.rewriter.template(sql)?)
    }

    /// Rewrites a query for this cluster (SVP plan or pass-through).
    pub fn rewrite(&self, sql: &str) -> EngineResult<Rewritten> {
        if !self.config.svp {
            return Ok(Rewritten::Passthrough {
                reason: "SVP disabled (inter-query baseline)".into(),
            });
        }
        Ok(self.rewriter.rewrite(sql, self.nodes.len())?)
    }

    /// Executes one sub-query text on a node **now** (in event-loop order),
    /// applying the optimizer interference, and prices it — the AVP
    /// executor's chunks.
    pub fn exec_subquery(&self, node: usize, sql: &str) -> EngineResult<(QueryOutput, f64)> {
        let req = ReadRequest::text(sql).avoiding_seqscan(self.config.force_index);
        self.exec_request(node, &req)
    }

    /// Executes range `range` of `plan` on `node` as the engine does — its
    /// prepared statement with the range's bounds bound, under the
    /// optimizer interference — and prices it.
    pub fn exec_range(
        &self,
        node: usize,
        plan: &SvpPlan,
        range: usize,
    ) -> EngineResult<(QueryOutput, f64)> {
        let (sql, params) = &plan.prepared[range];
        let req = ReadRequest::bound(sql, params).avoiding_seqscan(self.config.force_index);
        self.exec_request(node, &req)
    }

    fn exec_request(&self, node: usize, req: &ReadRequest) -> EngineResult<(QueryOutput, f64)> {
        let out = self.nodes[node].read(req)?;
        let ms = self.config.cost.statement_ms(&out.stats);
        Ok((out, ms))
    }

    /// Executes a pass-through read on one node and prices it (query time
    /// plus result transfer).
    pub fn exec_read(&self, node: usize, sql: &str) -> EngineResult<(QueryOutput, f64)> {
        let out = self.nodes[node].query(sql)?;
        let ms =
            self.config.cost.statement_ms(&out.stats) + self.config.cost.transfer_ms(&out.stats);
        Ok((out, ms))
    }

    /// Executes a write script on one node (replica maintenance) and
    /// prices the node-local work.
    pub fn exec_write(&mut self, node: usize, script: &str) -> EngineResult<f64> {
        let out = self.nodes[node].execute_script(script)?;
        Ok(self.config.cost.statement_ms(&out.stats))
    }

    /// Executes every range of `plan` **now**, where [`apuama::Dispatch`]
    /// places it, all dispatched at once (the dispatch-time snapshot), and
    /// prices their composition. Returns when each partial leaves its node,
    /// beside the priced composition.
    ///
    /// With `fault` set, that node runs nothing: every attempt burns
    /// `detect_ms`, and the failure reaches the dispatcher at `detect_ms ×
    /// (retries + 1)`, after every partial landing by then, one landing at
    /// that instant included. The range then runs whole from the detection
    /// on, where the dispatcher requeues it, and keeps its range index, so
    /// the answer matches the healthy cluster's exactly; only the arrival
    /// schedule the composer is priced against degrades.
    pub fn exec_svp(
        &self,
        plan: &SvpPlan,
        fault: Option<SimFault>,
    ) -> EngineResult<(Vec<f64>, ComposedTiming)> {
        let ranges = plan.ranges.len();
        let states = vec![NodeState::Available; self.nodes.len()];
        let mut actions = Vec::new();
        let mut dispatch = Dispatch::start(ranges, &states, true, &mut actions)?;
        let (mut partials, mut finish_ms) = (vec![None; ranges], vec![0.0; ranges]);
        // `(failed, range, node)` as each run reaches the dispatcher; ties
        // go in scheduling order, and a failure is scheduled last.
        let mut arrivals = EventQueue::new();
        let mut failure = None;
        loop {
            for action in actions.drain(..) {
                match action {
                    Action::Run { range, node } => match fault.filter(|f| f.node == node) {
                        Some(f) => {
                            failure = Some((f.detect_ms * (f.retries + 1) as f64, range, node))
                        }
                        None => {
                            let (out, ms) = self.exec_range(node, plan, range)?;
                            partials[range] = Some(out);
                            finish_ms[range] = arrivals.now() + ms;
                            arrivals.schedule(finish_ms[range], (false, range, node));
                        }
                    },
                    Action::Fail(e) => return Err(e),
                    Action::Finish => {
                        let partials: Vec<QueryOutput> = partials.into_iter().flatten().collect();
                        let timed = self.compose_timed(plan, &partials, &finish_ms)?;
                        return Ok((finish_ms, timed));
                    }
                    // Tickets, cancels and folds take no virtual time here:
                    // `compose_timed` prices the composition.
                    _ => {}
                }
            }
            if let Some((at, range, node)) = failure.take() {
                arrivals.schedule(at, (true, range, node));
            }
            let Some((_, (failed, range, node))) = arrivals.pop() else {
                let e = "SVP dispatch ended without an answer";
                return Err(EngineError::Unsupported(e.into()));
            };
            let event = match fault.filter(|_| failed) {
                Some(f) => Event::Failed {
                    range,
                    node,
                    attempts: f.retries + 1,
                    node_fault: true,
                    error: EngineError::Unavailable(format!("node {node} is down")),
                    live: true,
                    available: &|_| true,
                },
                None => Event::Partial(range, node, 1),
            };
            dispatch.on(event, &mut actions);
        }
    }

    /// Composes partial results once, through the streaming composer the
    /// engine runs, and prices composition + network against the arrival
    /// schedule: partial `i` leaves its node at `finish_ms[i]`.
    ///
    /// Streaming ([`ComposedTiming::done_ms`]): each partial ships as soon
    /// as its node finishes (the controller NIC serializes transfers) and
    /// is folded on arrival, so only the final statement over the folded
    /// rows remains after the last node. Staged
    /// ([`ComposedTiming::staged_done_ms`]): the same transfers, folds and
    /// statement, all after the last node — the paper's HSQLDB
    /// staging-table timeline.
    pub fn compose_timed(
        &self,
        plan: &SvpPlan,
        partials: &[QueryOutput],
        finish_ms: &[f64],
    ) -> EngineResult<ComposedTiming> {
        let cost = &self.config.cost;
        let mut composer = StreamingComposer::new(plan);
        for (node, p) in partials.iter().enumerate() {
            composer.accept(node, p.clone())?;
        }
        let composed = composer.finish()?;
        let statement_ms = cost.statement_ms(&composed.composition_stats);
        let final_transfer = cost.transfer_ms(&composed.output.stats);
        let last = finish_ms.iter().cloned().fold(0.0, f64::max);
        let mut order: Vec<usize> = (0..partials.len()).collect();
        order.sort_by(|&a, &b| finish_ms[a].total_cmp(&finish_ms[b]).then(a.cmp(&b)));
        let mut nic_free = 0.0;
        let mut busy = 0.0;
        let mut overlap = 0.0;
        let mut transfer = 0.0;
        let mut accept_total = 0.0;
        for &i in &order {
            let t = cost.transfer_ms(&partials[i].stats);
            transfer += t;
            let arrive = finish_ms[i].max(nic_free) + t;
            nic_free = arrive;
            // Folding a partial costs roughly one tuple op per cell:
            // hash-probe the group key, fold each aggregate.
            let accept = partials[i].rows.len() as f64
                * partials[i].columns.len() as f64
                * cost.cpu_tuple_ms;
            accept_total += accept;
            let start = arrive.max(busy);
            busy = start + accept;
            overlap += (busy.min(last) - start.min(last)).max(0.0);
        }
        let done = busy.max(last) + statement_ms + final_transfer;
        let compose_ms = accept_total + statement_ms;
        let transfer_ms = transfer + final_transfer;
        let mut output = composed.output;
        output.stats = ExecStats::default();
        Ok(ComposedTiming {
            output,
            done_ms: done,
            staged_done_ms: last + compose_ms + transfer_ms,
            tail_ms: done - last,
            overlap_ms: overlap,
            compose_ms,
            transfer_ms,
        })
    }

    /// Runs a whole query in isolation (no competing load): SVP sub-queries
    /// in parallel, degraded when the failure arm is set, or single-node
    /// pass-through.
    pub fn run_query_isolated(&self, sql: &str) -> EngineResult<SimQueryResult> {
        match self.rewrite(sql)? {
            Rewritten::Svp(plan) => {
                let n = self.nodes.len();
                let fault = self.config.fault.filter(|f| f.node < n && n > 1);
                let (node_task_ms, timed) = self.exec_svp(&plan, fault)?;
                Ok(SimQueryResult {
                    makespan_ms: timed.done_ms,
                    node_task_ms,
                    composition_ms: timed.compose_ms,
                    transfer_ms: timed.transfer_ms,
                    compose_overlap_ms: timed.overlap_ms,
                    output: timed.output,
                })
            }
            Rewritten::Passthrough { .. } => {
                let (output, ms) = self.exec_read(0, sql)?;
                Ok(SimQueryResult {
                    makespan_ms: ms,
                    node_task_ms: vec![ms],
                    composition_ms: 0.0,
                    transfer_ms: 0.0,
                    compose_overlap_ms: 0.0,
                    output,
                })
            }
        }
    }

    /// Applies one update script to **every** replica (C-JDBC broadcast),
    /// returning per-node execution times and the coordination charge.
    pub fn broadcast_write(&mut self, script: &str) -> EngineResult<(Vec<f64>, f64)> {
        let mut times = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            times.push(self.exec_write(i, script)?);
        }
        let coord = self.config.cost.broadcast_coord_ms(self.nodes.len());
        Ok((times, coord))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_tpch::{generate, QueryParams, TpchConfig, TpchQuery};

    fn tiny_cluster(nodes: usize) -> SimCluster {
        let data = generate(TpchConfig {
            scale_factor: 0.002,
            seed: 11,
        });
        SimCluster::new(&data, SimClusterConfig::paper(nodes)).unwrap()
    }

    #[test]
    fn pool_sized_at_paper_ratio() {
        let c = tiny_cluster(2);
        let pages = c.node(0).total_pages() as f64;
        let cap = c.node(0).pool_capacity() as f64;
        assert!((cap / pages - 0.25).abs() < 0.01, "{cap}/{pages}");
    }

    #[test]
    fn svp_answer_matches_single_node_answer() {
        let c = tiny_cluster(4);
        let sql = TpchQuery::Q6.sql(&QueryParams::default());
        let svp = c.run_query_isolated(&sql).unwrap();
        let (direct, _) = c.exec_read(0, &sql).unwrap();
        assert_eq!(svp.output.rows.len(), direct.rows.len());
        let (a, b) = (
            svp.output.rows[0][0].as_f64().unwrap_or(0.0),
            direct.rows[0][0].as_f64().unwrap_or(0.0),
        );
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn more_nodes_reduce_isolated_latency() {
        let sql = TpchQuery::Q1.sql(&QueryParams::default());
        let c1 = tiny_cluster(1);
        let t1 = c1.run_query_isolated(&sql).unwrap().makespan_ms;
        let c4 = tiny_cluster(4);
        let t4 = c4.run_query_isolated(&sql).unwrap().makespan_ms;
        assert!(
            t4 < t1 / 2.0,
            "expected clear speedup: 1 node = {t1} ms, 4 nodes = {t4} ms"
        );
    }

    #[test]
    fn warm_cache_is_faster_than_cold() {
        // At 8 nodes a lineitem virtual partition (~1/8 of the database)
        // fits inside the per-node pool (~18% of the database), so the
        // second run hits cache; at fewer nodes LRU sequential flooding
        // keeps every run disk-bound — exactly the paper's memory-fit
        // crossover.
        let c = tiny_cluster(8);
        let sql = TpchQuery::Q6.sql(&QueryParams::default());
        let cold = c.run_query_isolated(&sql).unwrap().makespan_ms;
        let warm = c.run_query_isolated(&sql).unwrap().makespan_ms;
        assert!(warm < cold, "cold={cold} warm={warm}");
    }

    #[test]
    fn broadcast_touches_every_replica() {
        let mut c = tiny_cluster(3);
        let before = c.node(2).table("orders").unwrap().row_count();
        let key = c.reserve_refresh_keys(1);
        c.broadcast_write(&format!(
            "insert into orders values ({key}, 1, 'O', 1.0, date '1995-01-01', '1-URGENT', 'c', 0, 'x')"
        ))
        .unwrap();
        for i in 0..3 {
            assert_eq!(c.node(i).table("orders").unwrap().row_count(), before + 1);
        }
    }

    #[test]
    fn smp_cores_ablation_speeds_up_isolated_queries() {
        // The testbed's nodes were 2-way Opteron SMPs, but the paper's
        // PostgreSQL ran each statement on one core. Pricing the second
        // core in (a modelled intra-node split) must shrink the
        // CPU-bound part of an isolated Q1 — but only that part, so the
        // speedup stays below 2× (disk and composition do not scale).
        let data = generate(TpchConfig {
            scale_factor: 0.002,
            seed: 11,
        });
        let sql = TpchQuery::Q1.sql(&QueryParams::default());
        let one_core = SimCluster::new(&data, SimClusterConfig::paper(4)).unwrap();
        let t1 = one_core.run_query_isolated(&sql).unwrap().makespan_ms;
        let mut cfg = SimClusterConfig::paper(4);
        cfg.cost = cfg.cost.with_cores(2);
        let smp = SimCluster::new(&data, cfg).unwrap();
        let t2 = smp.run_query_isolated(&sql).unwrap().makespan_ms;
        assert!(
            t2 < t1,
            "2-way SMP must help: 1 core = {t1} ms, 2 = {t2} ms"
        );
        assert!(
            t2 > t1 / 2.0,
            "speedup must stay sub-linear (Amdahl): 1 core = {t1} ms, 2 = {t2} ms"
        );
    }

    #[test]
    fn svp_disabled_runs_single_node() {
        let data = generate(TpchConfig {
            scale_factor: 0.002,
            seed: 11,
        });
        let mut cfg = SimClusterConfig::paper(4);
        cfg.svp = false;
        let c = SimCluster::new(&data, cfg).unwrap();
        let res = c
            .run_query_isolated(&TpchQuery::Q6.sql(&QueryParams::default()))
            .unwrap();
        assert_eq!(res.node_task_ms.len(), 1);
        assert_eq!(res.composition_ms, 0.0);
    }
}

#[cfg(test)]
mod fault_arm_tests {
    use super::*;
    use apuama_tpch::{generate, QueryParams, TpchConfig, TpchQuery};

    fn data() -> apuama_tpch::TpchData {
        generate(TpchConfig {
            scale_factor: 0.002,
            seed: 11,
        })
    }

    #[test]
    fn degraded_run_matches_healthy_answers_and_costs_more() {
        let healthy = SimCluster::new(&data(), SimClusterConfig::paper(4)).unwrap();
        let mut cfg = SimClusterConfig::paper(4);
        cfg.fault = Some(SimFault {
            node: 0,
            detect_ms: 50.0,
            retries: 1,
        });
        let degraded = SimCluster::new(&data(), cfg).unwrap();
        for q in [TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q12] {
            let sql = q.sql(&QueryParams::default());
            let h = healthy.run_query_isolated(&sql).unwrap();
            let d = degraded.run_query_isolated(&sql).unwrap();
            assert_eq!(d.output.rows, h.output.rows, "{}", q.label());
            assert!(
                d.makespan_ms > h.makespan_ms,
                "{}: degraded {} ms vs healthy {} ms",
                q.label(),
                d.makespan_ms,
                h.makespan_ms
            );
        }
    }

    #[test]
    fn failed_range_lands_after_detection_on_a_survivor() {
        let mut cfg = SimClusterConfig::paper(3);
        cfg.fault = Some(SimFault {
            node: 1,
            detect_ms: 100.0,
            retries: 2,
        });
        let c = SimCluster::new(&data(), cfg).unwrap();
        let r = c
            .run_query_isolated(&TpchQuery::Q6.sql(&QueryParams::default()))
            .unwrap();
        // 3 attempts × 100 ms of detection precede the reassigned range.
        assert!(r.node_task_ms[1] > 300.0, "{:?}", r.node_task_ms);
        // The makespan is bounded below by the recovered range's finish.
        assert!(r.makespan_ms >= r.node_task_ms[1]);
    }

    /// Runs Q6 on three nodes with node 1 failing after `detect_ms`, and
    /// returns when range 1 landed beside when it lands run at detection
    /// on the node `target` picks from the survivors' finish times: after
    /// that node's own range, as a cold twin cluster prices it.
    fn requeue(detect_ms: f64, target: impl Fn(&[f64]) -> usize) -> (f64, f64) {
        let mut cfg = SimClusterConfig::paper(3);
        cfg.fault = Some(SimFault {
            node: 1,
            detect_ms,
            retries: 0,
        });
        let degraded = SimCluster::new(&data(), cfg).unwrap();
        let sql = TpchQuery::Q6.sql(&QueryParams::default());
        let r = degraded.run_query_isolated(&sql).unwrap();
        let target = target(&r.node_task_ms);
        let twin = SimCluster::new(&data(), SimClusterConfig::paper(3)).unwrap();
        let Rewritten::Svp(plan) = twin.rewrite(&sql).unwrap() else {
            panic!("Q6 is SVP-eligible");
        };
        twin.exec_range(target, &plan, target).unwrap();
        let (_, ms) = twin.exec_range(target, &plan, 1).unwrap();
        (r.node_task_ms[1], detect_ms + ms)
    }

    #[test]
    fn a_failed_range_is_requeued_where_the_engine_routes_it() {
        // Detection lands before any survivor finishes, so the engine runs
        // range 1 at once on the lowest-index survivor still running,
        // node 0, beside node 0's own range — not after it.
        let (landed, want) = requeue(0.001, |finish| {
            assert!(finish[0] > 0.001 && finish[2] > 0.001, "{finish:?}");
            0
        });
        assert!(
            (landed - want).abs() < 1e-9,
            "range 1 landed at {landed} ms, the engine's schedule lands it at {want} ms"
        );
    }

    #[test]
    fn a_range_failing_after_every_survivor_goes_to_the_first_to_finish() {
        // Every survivor is done when the failure arrives: only the first
        // to finish still holds its ticket, and the range runs there.
        let (landed, want) = requeue(10_000.0, |finish| {
            assert!(finish[0] < 10_000.0 && finish[2] < 10_000.0, "{finish:?}");
            if finish[2] < finish[0] {
                2
            } else {
                0
            }
        });
        assert!(
            (landed - want).abs() < 1e-9,
            "range 1 landed at {landed} ms, the engine's schedule lands it at {want} ms"
        );
    }

    #[test]
    fn fault_on_a_single_node_cluster_is_ignored() {
        let mut cfg = SimClusterConfig::paper(1);
        cfg.fault = Some(SimFault {
            node: 0,
            detect_ms: 50.0,
            retries: 0,
        });
        let c = SimCluster::new(&data(), cfg).unwrap();
        // No survivor exists; the arm is skipped rather than panicking.
        c.run_query_isolated(&TpchQuery::Q6.sql(&QueryParams::default()))
            .unwrap();
    }
}

#[cfg(test)]
mod composer_timing_tests {
    use super::*;
    use apuama_tpch::{generate, QueryParams, TpchConfig, TpchQuery};

    fn cluster(nodes: usize) -> SimCluster {
        let data = generate(TpchConfig {
            scale_factor: 0.002,
            seed: 11,
        });
        SimCluster::new(&data, SimClusterConfig::paper(nodes)).unwrap()
    }

    fn plan(c: &SimCluster, q: TpchQuery) -> SvpPlan {
        let Rewritten::Svp(plan) = c.rewrite(&q.sql(&QueryParams::default())).unwrap() else {
            panic!("{} is SVP-eligible", q.label());
        };
        plan
    }

    #[test]
    fn strategies_produce_identical_answers() {
        // The one streaming composition answers what staging every partial
        // and composing once answers, and prices both timelines.
        let c = cluster(4);
        for q in [TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q12] {
            let plan = plan(&c, q);
            let partials: Vec<_> = (0..plan.ranges.len())
                .map(|i| c.exec_range(i, &plan, i).unwrap().0)
                .collect();
            let timed = c.compose_timed(&plan, &partials, &[1.0; 4]).unwrap();
            let staged = apuama::compose(&plan, &partials).unwrap();
            assert_eq!(timed.output.rows, staged.output.rows, "{}", q.label());
            assert!(timed.done_ms <= timed.staged_done_ms, "{}", q.label());
        }
    }

    #[test]
    fn streaming_composition_is_never_slower() {
        let c = cluster(4);
        let (_, timed) = c.exec_svp(&plan(&c, TpchQuery::Q1), None).unwrap();
        assert!(
            timed.done_ms <= timed.staged_done_ms,
            "staged {} ms vs streaming {} ms",
            timed.staged_done_ms,
            timed.done_ms
        );
        assert!(timed.overlap_ms >= 0.0);
    }

    #[test]
    fn staged_timing_matches_the_serial_decomposition() {
        // The staged timeline is the classic slowest + composition +
        // transfer formula: every fold, the final statement and every
        // transfer after the last partial.
        let c = cluster(3);
        let (finish, timed) = c.exec_svp(&plan(&c, TpchQuery::Q6), None).unwrap();
        let slowest = finish.iter().cloned().fold(0.0, f64::max);
        let expect = slowest + timed.compose_ms + timed.transfer_ms;
        assert!(
            (timed.staged_done_ms - expect).abs() < 1e-9,
            "{} vs {}",
            timed.staged_done_ms,
            expect
        );
    }

    #[test]
    fn streaming_overlap_appears_under_a_straggler_schedule() {
        // Feed compose_timed a skewed schedule directly: three partials
        // land early, the fourth is a straggler — the early folds must be
        // priced inside the straggler's window.
        let c = cluster(4);
        let plan = plan(&c, TpchQuery::Q1);
        let partials: Vec<_> = (0..plan.ranges.len())
            .map(|i| c.exec_range(i, &plan, i).unwrap().0)
            .collect();
        let timed = c
            .compose_timed(&plan, &partials, &[1.0, 2.0, 3.0, 10_000.0])
            .unwrap();
        assert!(
            timed.overlap_ms > 0.0,
            "early partials should fold inside the straggler window"
        );
        assert!(timed.tail_ms < timed.compose_ms + timed.transfer_ms);
        assert!((timed.done_ms - (10_000.0 + timed.tail_ms)).abs() < 1e-9);
        assert!(timed.done_ms < timed.staged_done_ms);
    }
}
