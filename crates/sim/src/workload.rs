//! Concurrent-workload simulation — the Figs. 3 and 4 methodology.
//!
//! TPC-H-style streams: each read stream runs its permuted sequence of the
//! eight queries, submitting the next query when the previous one
//! completes; the optional update stream applies refresh transactions the
//! same way (paper §5). Queries and updates contend for the nodes' 2-CPU
//! servers; SVP queries fan one task out to every node and finish with a
//! composition step; update broadcasts place a task on every node plus an
//! O(n) coordination charge.
//!
//! Consistency semantics mirror the Apuama gate: an SVP query arriving
//! while an update broadcast is in flight waits for it to drain (replica
//! convergence); once dispatched, its sub-queries take priority in the node
//! queues (the dispatch-time snapshot) and subsequent updates queue behind
//! them.
//!
//! The closed loop ([`run_workload`]) and the open-loop storm
//! ([`run_overload`]) share one event core; each keeps only its arrival
//! policy.

use std::collections::VecDeque;

use apuama::Rewritten;
use apuama_engine::EngineResult;
use apuama_tpch::{query_sequence, refresh_stream, QueryParams};
use rand::{RngExt, SeedableRng};

use crate::cluster::{SimBalancer, SimCluster};
use crate::des::{EventQueue, NodeQueue};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of concurrent read-only query sequences.
    pub read_streams: usize,
    /// How many times each stream runs its 8-query sequence.
    pub rounds: usize,
    /// Refresh transactions in the update stream (0 = read-only workload).
    /// The first half inserts, the second half deletes, as in the paper.
    pub update_txns: usize,
    /// Seed for query-parameter substitution and refresh data.
    pub seed: u64,
}

/// One completed read query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub stream: usize,
    pub label: String,
    pub start_ms: f64,
    pub end_ms: f64,
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which everything finished.
    pub makespan_ms: f64,
    /// Read queries completed.
    pub read_queries_done: usize,
    /// Update transactions completed.
    pub updates_done: usize,
    /// Per-query completion records.
    pub records: Vec<QueryRecord>,
}

impl SimReport {
    /// Virtual time at which the last read query completed. The paper's
    /// throughput is measured over the query streams; the update stream may
    /// keep draining afterwards (its tail is visible in `makespan_ms`).
    pub fn read_span_ms(&self) -> f64 {
        self.records.iter().map(|r| r.end_ms).fold(0.0, f64::max)
    }

    /// Read-query throughput in queries per minute — the paper's Fig. 3(a)
    /// / 4(a) metric.
    pub fn throughput_qpm(&self) -> f64 {
        let span = self.read_span_ms();
        if span <= 0.0 {
            return 0.0;
        }
        self.read_queries_done as f64 / (span / 60_000.0)
    }

    /// Per-query-label latency summary `(label, executions, mean ms)`,
    /// sorted by label — lets harnesses report which queries dominate a
    /// stream's wall clock.
    pub fn latency_by_label(&self) -> Vec<(String, usize, f64)> {
        let mut acc: std::collections::BTreeMap<&str, (usize, f64)> =
            std::collections::BTreeMap::new();
        for r in &self.records {
            let e = acc.entry(r.label.as_str()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += r.end_ms - r.start_ms;
        }
        acc.into_iter()
            .map(|(label, (n, total))| (label.to_string(), n, total / n as f64))
            .collect()
    }
}

/// The event core both arrival policies drive: the event queue, the nodes'
/// k-server queues and the job table. A job is one read or one broadcast
/// write: a task per node it occupies, then a tail charged after its last
/// task (composition and transfer for an SVP read, the coordination charge
/// for a write). The policy schedules its own events `A` and hears of each
/// finished job, carrying its payload `J`; tasks and tails run here.
struct Core<A, J> {
    queue: EventQueue<Ev<A>>,
    nodes: Vec<NodeQueue<Task>>,
    jobs: Vec<Job<J>>,
    balancer: SimBalancer,
    rr_next: usize,
    lb_rng: rand::rngs::StdRng,
}

enum Ev<A> {
    /// An event of the arrival policy's own.
    Policy(A),
    TaskDone {
        node: usize,
        job: usize,
    },
    JobFinal {
        job: usize,
    },
}

/// What the core hands its arrival policy.
enum Step<A, J> {
    Policy(A),
    /// A job's last task and tail are done.
    Finished {
        job: J,
        dispatched_ms: f64,
    },
}

struct Job<J> {
    payload: J,
    dispatched_ms: f64,
    remaining: usize,
    tail_ms: f64,
}

/// A task sitting in a node queue: which job it belongs to and how long it
/// will run once a server picks it up.
#[derive(Clone, Copy)]
struct Task {
    job: usize,
    dur_ms: f64,
}

impl<A, J: Clone> Core<A, J> {
    fn new(cluster: &SimCluster) -> Self {
        let config = cluster.config();
        Core {
            queue: EventQueue::new(),
            nodes: (0..cluster.node_count())
                .map(|_| NodeQueue::new(config.servers_per_node))
                .collect(),
            jobs: Vec::new(),
            balancer: config.balancer,
            rr_next: 0,
            lb_rng: rand::rngs::StdRng::seed_from_u64(match config.balancer {
                SimBalancer::Random { seed } => seed,
                _ => 0,
            }),
        }
    }

    fn schedule(&mut self, at: f64, event: A) {
        self.queue.schedule(at, Ev::Policy(event));
    }

    /// The next event for the policy, with its virtual time; task
    /// completions in between are handled here.
    fn next(&mut self) -> Option<(f64, Step<A, J>)> {
        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Ev::Policy(event) => return Some((now, Step::Policy(event))),
                Ev::TaskDone { node, job } => self.task_done(node, job),
                Ev::JobFinal { job } => {
                    let j = &self.jobs[job];
                    let step = Step::Finished {
                        job: j.payload.clone(),
                        dispatched_ms: j.dispatched_ms,
                    };
                    return Some((now, step));
                }
            }
        }
        None
    }

    /// Frees the node's server for its next task; the job's last task
    /// schedules the job's end after its tail.
    fn task_done(&mut self, node: usize, job: usize) {
        if let Some(next) = self.nodes[node].complete() {
            self.queue.schedule_in(
                next.dur_ms,
                Ev::TaskDone {
                    node,
                    job: next.job,
                },
            );
        }
        let j = &mut self.jobs[job];
        j.remaining -= 1;
        if j.remaining == 0 {
            let tail = j.tail_ms;
            self.queue.schedule_in(tail, Ev::JobFinal { job });
        }
    }

    /// Starts a job of one `(node, ms)` task each, queued at the front of
    /// their nodes when `priority` (an SVP query's dispatch-time snapshot).
    fn start_job(
        &mut self,
        payload: J,
        tasks: impl ExactSizeIterator<Item = (usize, f64)>,
        tail_ms: f64,
        priority: bool,
    ) {
        let job = self.jobs.len();
        self.jobs.push(Job {
            payload,
            dispatched_ms: self.queue.now(),
            remaining: tasks.len(),
            tail_ms,
        });
        for (node, dur_ms) in tasks {
            if let Some(t) = self.nodes[node].submit(Task { job, dur_ms }, priority) {
                self.queue
                    .schedule_in(t.dur_ms, Ev::TaskDone { node, job: t.job });
            }
        }
    }

    /// Dispatches a read now: an SVP plan executes and composes for real
    /// (the dispatch-time snapshot) and occupies every node for its
    /// measured durations; a pass-through read runs on the node the
    /// balancer picks.
    fn dispatch_read(
        &mut self,
        cluster: &SimCluster,
        sql: &str,
        rewritten: Rewritten,
        payload: J,
    ) -> EngineResult<()> {
        match rewritten {
            Rewritten::Svp(plan) => {
                let (durs, timed) = cluster.exec_svp(&plan, None)?;
                self.start_job(payload, durs.into_iter().enumerate(), timed.tail_ms, true);
            }
            Rewritten::Passthrough { .. } => {
                let n = self.nodes.len();
                let node = match self.balancer {
                    SimBalancer::LeastPending => {
                        (0..n).min_by_key(|&i| self.nodes[i].load()).expect("n > 0")
                    }
                    SimBalancer::RoundRobin => {
                        self.rr_next = (self.rr_next + 1) % n;
                        self.rr_next
                    }
                    SimBalancer::Random { .. } => self.lb_rng.random_range(0..n),
                };
                let (_, dur) = cluster.exec_read(node, sql)?;
                self.start_job(payload, std::iter::once((node, dur)), 0.0, false);
            }
        }
        Ok(())
    }

    /// Applies a write script to every replica now and occupies every node
    /// for its measured time, plus the coordination charge.
    fn broadcast(
        &mut self,
        cluster: &mut SimCluster,
        script: &str,
        payload: J,
    ) -> EngineResult<()> {
        let (durs, coord) = cluster.broadcast_write(script)?;
        self.start_job(payload, durs.into_iter().enumerate(), coord, false);
        Ok(())
    }
}

/// The closed loop's events.
enum WorkloadEv {
    SubmitRead { stream: usize },
    SubmitUpdate,
}

/// A closed-loop job: a stream's read, or the update stream's write.
#[derive(Clone)]
enum JobKind {
    Read { stream: usize, label: String },
    Update,
}

/// Runs the workload to completion on the cluster.
pub fn run_workload(cluster: &mut SimCluster, spec: WorkloadSpec) -> EngineResult<SimReport> {
    // Build each stream's query list: rounds × permuted sequences with
    // TPC-H-style randomized parameters.
    let mut streams: Vec<VecDeque<(String, String)>> = (0..spec.read_streams)
        .map(|s| {
            let mut q = VecDeque::new();
            for round in 0..spec.rounds {
                let perm = query_sequence(s as u64 + spec.read_streams as u64 * round as u64);
                for (qi, query) in perm.iter().enumerate() {
                    let pseed = spec
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((s as u64) << 32)
                        .wrapping_add((round as u64) << 16)
                        .wrapping_add(qi as u64);
                    q.push_back((query.label(), query.sql(&QueryParams::random(pseed))));
                }
            }
            q
        })
        .collect();
    let mut updates: VecDeque<String> = if spec.update_txns > 0 {
        let start_key = cluster.reserve_refresh_keys(spec.update_txns.div_ceil(2) as i64);
        refresh_stream(
            &cluster.tpch_config(),
            spec.update_txns,
            start_key,
            spec.seed,
        )
        .into_iter()
        .map(|t| t.script())
        .collect()
    } else {
        VecDeque::new()
    };

    let mut core: Core<WorkloadEv, JobKind> = Core::new(cluster);
    // SVP reads that arrived while a broadcast was in flight: the gate
    // holds them until the replicas converge.
    let mut waiting_svp: VecDeque<(JobKind, String, Rewritten)> = VecDeque::new();
    let mut update_inflight = false;
    let mut report = SimReport {
        makespan_ms: 0.0,
        read_queries_done: 0,
        updates_done: 0,
        records: Vec::new(),
    };

    for s in 0..spec.read_streams {
        core.schedule(0.0, WorkloadEv::SubmitRead { stream: s });
    }
    if !updates.is_empty() {
        core.schedule(0.0, WorkloadEv::SubmitUpdate);
    }

    while let Some((now, step)) = core.next() {
        report.makespan_ms = now;
        match step {
            Step::Policy(WorkloadEv::SubmitRead { stream }) => {
                let Some((label, sql)) = streams[stream].pop_front() else {
                    continue;
                };
                let rewritten = cluster.rewrite(&sql)?;
                let read = JobKind::Read { stream, label };
                if update_inflight && matches!(rewritten, Rewritten::Svp(_)) {
                    waiting_svp.push_back((read, sql, rewritten));
                } else {
                    core.dispatch_read(cluster, &sql, rewritten, read)?;
                }
            }
            Step::Policy(WorkloadEv::SubmitUpdate) => {
                let Some(script) = updates.pop_front() else {
                    continue;
                };
                update_inflight = true;
                core.broadcast(cluster, &script, JobKind::Update)?;
            }
            Step::Finished {
                job: JobKind::Read { stream, label },
                dispatched_ms,
            } => {
                report.read_queries_done += 1;
                report.records.push(QueryRecord {
                    stream,
                    label,
                    start_ms: dispatched_ms,
                    end_ms: now,
                });
                core.schedule(now, WorkloadEv::SubmitRead { stream });
            }
            Step::Finished {
                job: JobKind::Update,
                ..
            } => {
                report.updates_done += 1;
                update_inflight = false;
                // Replicas converged: dispatch the SVP queries that were
                // waiting on the gate.
                while let Some((read, sql, rewritten)) = waiting_svp.pop_front() {
                    core.dispatch_read(cluster, &sql, rewritten, read)?;
                }
                core.schedule(now, WorkloadEv::SubmitUpdate);
            }
        }
    }
    Ok(report)
}

/// Open-loop overload parameters (Ablation 9). Unlike [`WorkloadSpec`]'s
/// closed loop — where a stream submits its next query only after the
/// previous one completes — arrivals here land on a fixed clock regardless
/// of completions, so an under-provisioned cluster accumulates backlog.
#[derive(Debug, Clone, Copy)]
pub struct OverloadSpec {
    /// Total queries submitted.
    pub arrivals: usize,
    /// Inter-arrival gap in virtual milliseconds. Overload means this is
    /// smaller than the cluster's mean service time.
    pub interval_ms: f64,
    /// Seed for query-parameter substitution.
    pub seed: u64,
    /// `None` = ungoverned (every arrival is dispatched immediately and
    /// queues without bound); `Some` = admission control with shedding.
    pub governance: Option<OverloadGovernance>,
}

/// The sim-side mirror of `apuama_cjdbc::AdmissionPolicy`: a concurrency
/// limit, a bounded wait queue, and a queue-wait deadline.
#[derive(Debug, Clone, Copy)]
pub struct OverloadGovernance {
    /// Queries admitted (dispatched) concurrently.
    pub max_concurrent: usize,
    /// Arrivals allowed to wait once the limit is reached; beyond this an
    /// arrival is shed immediately.
    pub queue_depth: usize,
    /// Longest a queued arrival may wait before it is shed.
    pub queue_timeout_ms: f64,
}

/// Outcome of an open-loop run. Latencies are measured from *arrival*, so
/// time spent in the admission queue (or, ungoverned, in node queues) is
/// charged to the query — the cost model prices queue wait.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    pub submitted: usize,
    pub completed: usize,
    /// Queries refused by admission control (queue full on arrival, or
    /// queue-wait deadline passed). Always 0 when ungoverned.
    pub shed: usize,
    pub makespan_ms: f64,
    /// Largest number of queries simultaneously in the system (dispatched
    /// but unfinished, plus waiting for admission) — the proxy for memory
    /// pinned by in-flight statements. Governance bounds it at
    /// `max_concurrent + queue_depth`.
    pub peak_backlog: usize,
    /// Arrival-to-completion latency of each completed query, in arrival
    /// order.
    pub latencies_ms: Vec<f64>,
}

impl OverloadReport {
    fn percentile(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let idx = ((sorted.len() - 1) as f64 * p).ceil() as usize;
        sorted[idx]
    }

    /// 99th-percentile completion latency — the ablation's tail metric.
    pub fn p99_ms(&self) -> f64 {
        self.percentile(0.99)
    }

    pub fn median_ms(&self) -> f64 {
        self.percentile(0.5)
    }

    pub fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }
}

/// The open loop's events.
enum OverloadEv {
    Arrive { idx: usize },
    QueueTimeout { ticket: usize },
}

/// Runs an open-loop arrival storm against the cluster. The read-only
/// overload arm: every arrival is one of the eight evaluation queries with
/// randomized parameters, dispatched SVP (or, when ineligible, pass-through
/// to the node the balancer picks).
pub fn run_overload(cluster: &SimCluster, spec: OverloadSpec) -> EngineResult<OverloadReport> {
    // Arrival list: permuted 8-query rounds, TPC-H-style parameters.
    let mut arrivals: Vec<String> = Vec::with_capacity(spec.arrivals);
    let mut round = 0u64;
    while arrivals.len() < spec.arrivals {
        for (qi, query) in query_sequence(spec.seed.wrapping_add(round))
            .iter()
            .enumerate()
        {
            if arrivals.len() >= spec.arrivals {
                break;
            }
            let pseed = spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round << 16)
                .wrapping_add(qi as u64);
            arrivals.push(query.sql(&QueryParams::random(pseed)));
        }
        round += 1;
    }

    // A job's payload is its arrival time: latency is anchored there, not
    // at dispatch.
    let mut core: Core<OverloadEv, f64> = Core::new(cluster);
    let dispatch = |core: &mut Core<OverloadEv, f64>, sql: &str, arrival_ms: f64| {
        core.dispatch_read(cluster, sql, cluster.rewrite(sql)?, arrival_ms)
    };
    // Admission state (governed runs only).
    let mut running = 0usize;
    let mut pending: VecDeque<(usize, f64, String)> = VecDeque::new();
    let mut next_ticket = 0usize;
    let mut report = OverloadReport {
        submitted: spec.arrivals,
        completed: 0,
        shed: 0,
        makespan_ms: 0.0,
        peak_backlog: 0,
        latencies_ms: Vec::new(),
    };

    for i in 0..arrivals.len() {
        core.schedule(spec.interval_ms * i as f64, OverloadEv::Arrive { idx: i });
    }

    while let Some((now, step)) = core.next() {
        report.makespan_ms = now;
        match step {
            Step::Policy(OverloadEv::Arrive { idx }) => {
                let sql = &arrivals[idx];
                match spec.governance {
                    Some(gov) if running >= gov.max_concurrent => {
                        if pending.len() >= gov.queue_depth {
                            report.shed += 1;
                        } else {
                            pending.push_back((next_ticket, now, sql.clone()));
                            core.schedule(
                                now + gov.queue_timeout_ms,
                                OverloadEv::QueueTimeout {
                                    ticket: next_ticket,
                                },
                            );
                            next_ticket += 1;
                        }
                    }
                    _ => {
                        running += 1;
                        dispatch(&mut core, sql, now)?;
                    }
                }
                report.peak_backlog = report.peak_backlog.max(running + pending.len());
            }
            Step::Policy(OverloadEv::QueueTimeout { ticket }) => {
                // Still waiting at the deadline → shed. (If the ticket is
                // gone it was admitted in the meantime; nothing to do.)
                if let Some(pos) = pending.iter().position(|(t, _, _)| *t == ticket) {
                    pending.remove(pos);
                    report.shed += 1;
                }
            }
            Step::Finished {
                job: arrival_ms, ..
            } => {
                report.completed += 1;
                report.latencies_ms.push(now - arrival_ms);
                running -= 1;
                // A slot freed: admit from the queue, oldest first.
                if let Some(gov) = spec.governance {
                    while running < gov.max_concurrent {
                        let Some((_, arrival_ms, sql)) = pending.pop_front() else {
                            break;
                        };
                        running += 1;
                        dispatch(&mut core, &sql, arrival_ms)?;
                    }
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimClusterConfig;
    use apuama_tpch::{generate, TpchConfig};

    fn data() -> apuama_tpch::TpchData {
        generate(TpchConfig {
            scale_factor: 0.002,
            seed: 21,
        })
    }

    fn spec(streams: usize, updates: usize) -> WorkloadSpec {
        WorkloadSpec {
            read_streams: streams,
            rounds: 1,
            update_txns: updates,
            seed: 9,
        }
    }

    #[test]
    fn read_only_workload_completes_all_queries() {
        let d = data();
        let mut c = SimCluster::new(&d, SimClusterConfig::paper(2)).unwrap();
        let r = run_workload(&mut c, spec(3, 0)).unwrap();
        assert_eq!(r.read_queries_done, 24);
        assert_eq!(r.updates_done, 0);
        assert!(r.makespan_ms > 0.0);
        assert!(r.throughput_qpm() > 0.0);
        assert_eq!(r.records.len(), 24);
    }

    #[test]
    fn mixed_workload_completes_reads_and_updates() {
        let d = data();
        let mut c = SimCluster::new(&d, SimClusterConfig::paper(2)).unwrap();
        let before = c.node(0).table("orders").unwrap().row_count();
        let r = run_workload(&mut c, spec(2, 10)).unwrap();
        assert_eq!(r.read_queries_done, 16);
        assert_eq!(r.updates_done, 10);
        // Even txn count: inserts fully deleted again on every replica.
        for i in 0..2 {
            assert_eq!(c.node(i).table("orders").unwrap().row_count(), before);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = data();
        let mut c1 = SimCluster::new(&d, SimClusterConfig::paper(2)).unwrap();
        let r1 = run_workload(&mut c1, spec(2, 4)).unwrap();
        let mut c2 = SimCluster::new(&d, SimClusterConfig::paper(2)).unwrap();
        let r2 = run_workload(&mut c2, spec(2, 4)).unwrap();
        assert_eq!(r1.makespan_ms, r2.makespan_ms);
        assert_eq!(r1.read_queries_done, r2.read_queries_done);
    }

    #[test]
    fn more_nodes_give_higher_read_throughput() {
        let d = data();
        let mut c1 = SimCluster::new(&d, SimClusterConfig::paper(1)).unwrap();
        let t1 = run_workload(&mut c1, spec(3, 0)).unwrap().throughput_qpm();
        let mut c4 = SimCluster::new(&d, SimClusterConfig::paper(4)).unwrap();
        let t4 = run_workload(&mut c4, spec(3, 0)).unwrap().throughput_qpm();
        assert!(t4 > t1, "1 node: {t1} qpm, 4 nodes: {t4} qpm");
    }

    #[test]
    fn latency_summary_counts_every_execution() {
        let d = data();
        let mut c = SimCluster::new(&d, SimClusterConfig::paper(2)).unwrap();
        let r = run_workload(&mut c, spec(2, 0)).unwrap();
        let summary = r.latency_by_label();
        // 8 distinct query labels, 2 streams each.
        assert_eq!(summary.len(), 8);
        assert!(summary.iter().all(|(_, n, _)| *n == 2));
        assert!(summary.iter().all(|(_, _, ms)| *ms > 0.0));
        let total: usize = summary.iter().map(|(_, n, _)| n).sum();
        assert_eq!(total, r.read_queries_done);
    }

    #[test]
    fn records_are_well_formed() {
        let d = data();
        let mut c = SimCluster::new(&d, SimClusterConfig::paper(2)).unwrap();
        let r = run_workload(&mut c, spec(1, 0)).unwrap();
        for rec in &r.records {
            assert!(rec.end_ms >= rec.start_ms);
            assert!(rec.end_ms <= r.makespan_ms);
            assert!(rec.label.starts_with('Q'));
        }
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::cluster::SimClusterConfig;
    use apuama_tpch::{generate, TpchConfig};

    fn cluster() -> SimCluster {
        let d = generate(TpchConfig {
            scale_factor: 0.002,
            seed: 21,
        });
        SimCluster::new(&d, SimClusterConfig::paper(2)).unwrap()
    }

    fn storm(governance: Option<OverloadGovernance>) -> OverloadSpec {
        // Queries at this scale take tens of virtual ms; a 1 ms gap is a
        // many-times-capacity arrival storm.
        OverloadSpec {
            arrivals: 48,
            interval_ms: 1.0,
            seed: 9,
            governance,
        }
    }

    fn governed() -> OverloadGovernance {
        OverloadGovernance {
            max_concurrent: 2,
            queue_depth: 4,
            queue_timeout_ms: 200.0,
        }
    }

    #[test]
    fn ungoverned_storm_completes_everything_but_queues_without_bound() {
        let c = cluster();
        let r = run_overload(&c, storm(None)).unwrap();
        assert_eq!(r.completed, r.submitted);
        assert_eq!(r.shed, 0);
        // Open loop: arrivals outpace service, so nearly the whole storm
        // is in the system at once.
        assert!(
            r.peak_backlog > r.submitted / 2,
            "expected unbounded backlog, saw peak {}",
            r.peak_backlog
        );
    }

    #[test]
    fn governance_bounds_backlog_and_accounts_for_every_arrival() {
        let c = cluster();
        let g = governed();
        let r = run_overload(&c, storm(Some(g))).unwrap();
        assert!(r.shed > 0, "a 4x storm must shed");
        assert_eq!(r.completed + r.shed, r.submitted);
        assert!(
            r.peak_backlog <= g.max_concurrent + g.queue_depth,
            "backlog {} exceeds admission bound {}",
            r.peak_backlog,
            g.max_concurrent + g.queue_depth
        );
    }

    #[test]
    fn governed_tail_latency_beats_ungoverned() {
        let c = cluster();
        let ungoverned = run_overload(&c, storm(None)).unwrap();
        let governed_run = run_overload(&c, storm(Some(governed()))).unwrap();
        assert!(
            governed_run.p99_ms() < ungoverned.p99_ms(),
            "governed p99 {:.0}ms must beat ungoverned {:.0}ms",
            governed_run.p99_ms(),
            ungoverned.p99_ms()
        );
    }

    #[test]
    fn overload_is_deterministic_given_seed() {
        let c = cluster();
        let r1 = run_overload(&c, storm(Some(governed()))).unwrap();
        let r2 = run_overload(&c, storm(Some(governed()))).unwrap();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.shed, r2.shed);
        assert_eq!(r1.makespan_ms, r2.makespan_ms);
        assert_eq!(r1.latencies_ms, r2.latencies_ms);
    }
}

#[cfg(test)]
mod balancer_tests {
    use super::*;
    use crate::cluster::{SimBalancer, SimClusterConfig};
    use apuama_tpch::{generate, TpchConfig};

    fn baseline_cluster(balancer: SimBalancer) -> SimCluster {
        let d = generate(TpchConfig {
            scale_factor: 0.002,
            seed: 21,
        });
        let mut cfg = SimClusterConfig::paper(4);
        cfg.svp = false; // every query is a pass-through read → balanced
        cfg.balancer = balancer;
        SimCluster::new(&d, cfg).unwrap()
    }

    #[test]
    fn all_policies_complete_the_baseline_workload() {
        for balancer in [
            SimBalancer::LeastPending,
            SimBalancer::RoundRobin,
            SimBalancer::Random { seed: 5 },
        ] {
            let mut c = baseline_cluster(balancer);
            let r = run_workload(
                &mut c,
                WorkloadSpec {
                    read_streams: 3,
                    rounds: 1,
                    update_txns: 0,
                    seed: 9,
                },
            )
            .unwrap();
            assert_eq!(r.read_queries_done, 24, "{balancer:?}");
            assert!(r.throughput_qpm() > 0.0, "{balancer:?}");
        }
    }

    #[test]
    fn least_pending_beats_or_matches_random_on_the_baseline() {
        let mut lp = baseline_cluster(SimBalancer::LeastPending);
        let t_lp = run_workload(
            &mut lp,
            WorkloadSpec {
                read_streams: 4,
                rounds: 1,
                update_txns: 0,
                seed: 9,
            },
        )
        .unwrap()
        .read_span_ms();
        let mut rnd = baseline_cluster(SimBalancer::Random { seed: 3 });
        let t_rnd = run_workload(
            &mut rnd,
            WorkloadSpec {
                read_streams: 4,
                rounds: 1,
                update_txns: 0,
                seed: 9,
            },
        )
        .unwrap()
        .read_span_ms();
        // Random can collide streams on one node; least-pending never
        // queues behind an idle alternative.
        assert!(
            t_lp <= t_rnd * 1.05,
            "least-pending {t_lp:.0}ms vs random {t_rnd:.0}ms"
        );
    }
}
