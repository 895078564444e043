//! The layer-by-layer replay of the traced run.
//!
//! Everything here is measured from outside the program: by timing calls
//! into public functions of each crate and reading the public result
//! structs they return. It runs on the quiesced cluster after the traced
//! rounds, so nothing else competes for the two cores.

use std::time::Instant;

use apuama::{compose_with, ComposerStrategy, Rewritten, SvpPlan};
use apuama_engine::{Database, QueryOutput};
use apuama_sql::{parse_statement, Value};
use apuama_tpch::{refresh_stream, RefreshTransaction};

use crate::cluster::{Cluster, NODES};
use crate::inputs::{self, OlapStatement};
use crate::metrics::Metric;
use crate::stats::{mean, median};
use crate::trace::{SpanId, Tracer, NONE};

/// Repetitions of each replayed OLAP step; the median is reported.
const OLAP_REPS: usize = 3;
/// Repetitions of each short-statement probe.
const SHORT_REPS: usize = 400;
/// Refresh pairs sent through the quiesced controller and the fork.
const REFRESH_PAIRS: usize = 100;
/// Keys of the replay's refresh transactions start this far above the
/// loaded range, clear of every client's.
const REPLAY_KEY_OFFSET: i64 = 20_000_000;

/// Operator self time of `EXPLAIN ANALYZE` lines, in ms, by class.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct OperatorMs {
    pub scan: f64,
    pub filter: f64,
    pub agg: f64,
    pub join: f64,
    pub sort: f64,
}

#[derive(Debug, Clone, Copy)]
enum OperatorClass {
    Scan,
    Filter,
    Agg,
    Join,
    Sort,
}

impl OperatorClass {
    fn of(label: &str) -> Option<OperatorClass> {
        let label = label.trim_start();
        let starts = |p: &str| label.starts_with(p);
        if starts("scan ") {
            Some(OperatorClass::Scan)
        } else if starts("filter") || starts("post-filter") {
            Some(OperatorClass::Filter)
        } else if starts("aggregate") || starts("fused aggregate") || starts("distinct") {
            // A fused aggregate is scan + filter + fold in one loop; its time
            // cannot be split from outside, so all of it counts as aggregation.
            Some(OperatorClass::Agg)
        } else if starts("hash join") || starts("cross join") || starts("derived table") {
            Some(OperatorClass::Join)
        } else if starts("sort") || starts("limit") {
            Some(OperatorClass::Sort)
        } else {
            None
        }
    }
}

impl OperatorMs {
    fn slot(&mut self, class: OperatorClass) -> &mut f64 {
        match class {
            OperatorClass::Scan => &mut self.scan,
            OperatorClass::Filter => &mut self.filter,
            OperatorClass::Agg => &mut self.agg,
            OperatorClass::Join => &mut self.join,
            OperatorClass::Sort => &mut self.sort,
        }
    }

    fn add(&mut self, other: &OperatorMs) {
        self.scan += other.scan;
        self.filter += other.filter;
        self.agg += other.agg;
        self.join += other.join;
        self.sort += other.sort;
    }
}

/// Sums operator self time by class over the lines of one
/// `EXPLAIN ANALYZE`. A `parallel worker` line belongs to the operator
/// line above it (the operator's own self time is then what is left after
/// its workers, usually nothing).
pub fn operator_self_ms(lines: &[String]) -> OperatorMs {
    let mut out = OperatorMs::default();
    let mut current = None;
    for line in lines {
        let Some(at) = line.find("self_ms=") else {
            continue;
        };
        let rest = &line[at + "self_ms=".len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len());
        let Ok(ms) = rest[..end].parse::<f64>() else {
            continue;
        };
        if !line.trim_start().starts_with("parallel worker") {
            current = OperatorClass::of(line);
        }
        if let Some(class) = current {
            *out.slot(class) += ms;
        }
    }
    out
}

/// Where the replay's spans hang: under one parent, for one request.
struct Scope<'a> {
    tracer: &'a Tracer,
    parent: SpanId,
    request: u64,
}

impl Scope<'_> {
    /// Runs `f` inside a span.
    fn span<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer
            .within(name, layer, self.parent, self.request, f)
    }

    /// Runs `f` inside a span; returns what it took in ms too.
    fn timed<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span(name, layer, || ms_of(f))
    }
}

fn ms_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Mean µs per call of `f` over `calls` calls, median over a few batches.
fn us_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    const BATCHES: usize = 5;
    let per_batch = (calls / BATCHES).max(1);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            start.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// What the replay of one evaluation query measured.
struct QueryReplay {
    /// The whole request through `Controller::execute`, quiesced.
    request_ms: f64,
    parse_us: f64,
    rewrite_us: f64,
    svp_ms: f64,
    first_partial_ms: f64,
    compose_overlap_ms: f64,
    compose_tail_ms: f64,
    /// `timing.total_ms`: dispatch to final result.
    dispatched_ms: f64,
    range_ms: Vec<f64>,
    operators: OperatorMs,
    compose_streaming_ms: f64,
    compose_staged_ms: f64,
    single_node_ms: f64,
    rows_scanned: u64,
    cpu_tuple_ops: u64,
    page_accesses: u64,
    pages_pruned: u64,
    partial_rows: u64,
}

fn svp_plan(cluster: &Cluster, sql: &str) -> SvpPlan {
    match cluster
        .engine
        .rewriter()
        .rewrite(sql, NODES)
        .expect("benchmark statements parse")
    {
        Rewritten::Svp(plan) => plan,
        Rewritten::Passthrough { reason } => panic!("expected an SVP plan ({reason}): {sql}"),
    }
}

fn replay_query(
    cluster: &Cluster,
    tracer: &Tracer,
    root: SpanId,
    st: &OlapStatement,
) -> QueryReplay {
    let scope = Scope {
        tracer,
        parent: tracer.alloc_id(),
        request: tracer.alloc_id(),
    };
    let start = Instant::now();

    // The whole request and the calls below it take turns, so drift of the
    // host hits both sides of `trace.coverage`.
    let plan = svp_plan(cluster, &st.sql);
    let (mut request_ms, mut parse, mut rewrite, mut svp) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..OLAP_REPS {
        let (_, ms) = scope.timed("controller.execute", "cjdbc", || {
            cluster.controller.execute(&st.sql).expect("query runs")
        });
        request_ms.push(ms);
        let (_, ms) = scope.timed("sql.parse_statement", "sql", || {
            parse_statement(&st.sql).expect("parses")
        });
        parse.push(ms * 1e3);
        let (_, ms) = scope.timed("core.rewrite", "core", || svp_plan(cluster, &st.sql));
        rewrite.push(ms * 1e3);
        let (exec, ms) = scope.timed("core.execute_svp", "core", || {
            cluster.engine.execute_svp(&plan).expect("SVP query runs")
        });
        svp.push(ms);
        last = Some(exec);
    }
    let exec = last.expect("OLAP_REPS > 0");

    // Each range alone on its node: what the node does when nothing
    // competes with it, and the partials the composer is replayed on.
    let processors = cluster.engine.node_processors();
    let mut range_ms = Vec::with_capacity(NODES);
    let mut partials: Vec<QueryOutput> = Vec::with_capacity(NODES);
    let mut operators = OperatorMs::default();
    for (r, (sql, params)) in plan.prepared.iter().enumerate() {
        let (partial, ms) = scope.timed("node.run_subquery_bound", "engine", || {
            processors[r]
                .run_subquery_bound(sql, params)
                .expect("sub-query runs")
        });
        range_ms.push(ms);
        partials.push(partial);
        let explained = scope.span("engine.explain_analyze", "engine", || {
            processors[r]
                .run_subquery_statement(&format!("explain analyze {}", plan.subqueries[r]))
                .expect("EXPLAIN ANALYZE runs")
        });
        let lines: Vec<String> = explained
            .rows
            .iter()
            .filter_map(|row| row[0].as_str().map(str::to_string))
            .collect();
        operators.add(&operator_self_ms(&lines));
    }

    let compose = |strategy, name| {
        let runs: Vec<f64> = (0..OLAP_REPS)
            .map(|_| {
                scope
                    .timed(name, "core", || {
                        compose_with(strategy, &plan, &partials).expect("composes")
                    })
                    .1
            })
            .collect();
        median(&runs)
    };
    let compose_streaming_ms = compose(ComposerStrategy::Streaming, "core.compose_with.streaming");
    let compose_staged_ms = compose(ComposerStrategy::Staged, "core.compose_with.staged");

    let single: Vec<f64> = (0..OLAP_REPS)
        .map(|_| {
            scope
                .timed("engine.query", "engine", || {
                    cluster.nodes[0]
                        .with_db(|db| db.query(&st.sql))
                        .expect("query runs")
                })
                .1
        })
        .collect();
    tracer.record_as(
        scope.parent,
        "replay.request",
        "client",
        root,
        scope.request,
        start,
        Instant::now(),
    );

    let stats = exec.output.stats;
    QueryReplay {
        request_ms: median(&request_ms),
        parse_us: median(&parse),
        rewrite_us: median(&rewrite),
        svp_ms: median(&svp),
        first_partial_ms: exec.timing.first_partial_ms,
        compose_overlap_ms: exec.timing.compose_overlap_ms,
        compose_tail_ms: exec.timing.compose_tail_ms,
        dispatched_ms: exec.timing.total_ms,
        range_ms,
        operators,
        compose_streaming_ms,
        compose_staged_ms,
        single_node_ms: median(&single),
        rows_scanned: stats.rows_scanned,
        cpu_tuple_ops: stats.cpu_tuple_ops,
        page_accesses: stats.buffer.accesses(),
        pages_pruned: stats.pages_pruned,
        partial_rows: exec.partial_rows,
    }
}

/// Q1 and Q3 over the whole key range on a forked replica with one
/// execution-mode knob flipped at a time — never on the cluster under test.
fn mode_verdicts(fork: &Database, pass: &[OlapStatement]) -> Vec<Metric> {
    // (metric suffix, setting, value for the verdict, value to restore)
    let knobs = [
        ("kernel_off", "enable_kernel", "off", "on".to_string()),
        ("batch_off", "enable_batch_exec", "off", "on".to_string()),
        ("columnar_off", "enable_columnar", "off", "on".to_string()),
        (
            "workers1",
            "parallel_workers",
            "1",
            fork.parallel_workers().to_string(),
        ),
    ];
    let mut out = Vec::new();
    for query in [1, 3] {
        let st = pass
            .iter()
            .find(|s| s.query.number() == query)
            .expect("Q1 and Q3 are evaluation queries");
        for (suffix, setting, value, restore) in &knobs {
            let set = |v: &str| {
                fork.query(&format!("set {setting} = {v}"))
                    .expect("SET is accepted");
            };
            set(value);
            let runs: Vec<f64> = (0..2)
                .map(|_| ms_of(|| fork.query(&st.sql).expect("query runs")).1)
                .collect();
            set(restore);
            out.push(Metric::new(
                format!("engine.q{query}_ms.{suffix}"),
                median(&runs),
                "ms",
            ));
        }
    }
    out
}

/// Median latency of an insert and of a delete refresh transaction, in µs.
#[derive(Debug, Clone, Copy)]
struct RefreshUs {
    insert: f64,
    delete: f64,
}

impl RefreshUs {
    /// Median µs of `apply` over the insert scripts, then the delete ones.
    fn measure<T>(inserts: &[T], deletes: &[T], mut apply: impl FnMut(&T)) -> RefreshUs {
        let mut median_us = |items: &[T]| {
            let us: Vec<f64> = items.iter().map(|t| ms_of(|| apply(t)).1 * 1e3).collect();
            median(&us)
        };
        RefreshUs {
            insert: median_us(inserts),
            delete: median_us(deletes),
        }
    }

    /// One refresh transaction: the mean of the two kinds, as
    /// `refresh_txn_ms` averages them.
    fn mean(self) -> f64 {
        (self.insert + self.delete) / 2.0
    }
}

/// Latencies of the short statements on the quiesced cluster.
struct ShortReplay {
    parse_us: f64,
    rewrite_us: f64,
    plan_hit_us: f64,
    plan_miss_us: f64,
    point_lookup_us: f64,
    controller_read_us: f64,
    direct_read_us: f64,
    gate_us: f64,
    svp_short_us: f64,
    /// `execute_svp` of a short aggregate, and its slowest range run alone.
    svp_short_wall_us: f64,
    svp_short_slowest_us: f64,
    /// Refresh transactions through the controller, through
    /// `ApuamaEngine::execute_write` on each node in turn, and straight
    /// into one engine.
    controller_refresh: RefreshUs,
    core_refresh: RefreshUs,
    engine_refresh: RefreshUs,
}

fn replay_short(
    cluster: &Cluster,
    tracer: &Tracer,
    root: SpanId,
    fork: &mut Database,
) -> ShortReplay {
    let scope = Scope {
        tracer,
        parent: root,
        request: NONE,
    };
    let customers = cluster.tpch.customers() as i64;
    let key = |i: usize| (i as i64 * 7_919) % customers + 1;
    let reads: Vec<String> = (0..SHORT_REPS)
        .map(|i| inputs::point_read_sql(key(i)))
        .collect();
    let node = &cluster.nodes[0];

    let parse_us = scope.span("sql.parse_statement", "sql", || {
        us_per_call(SHORT_REPS, |i| {
            std::hint::black_box(parse_statement(&reads[i]).expect("parses"));
        })
    });
    let rewriter = cluster.engine.rewriter();
    let rewrite_us = scope.span("core.rewrite", "core", || {
        us_per_call(SHORT_REPS, |i| {
            std::hint::black_box(rewriter.rewrite(&reads[i], NODES).expect("parses"));
        })
    });

    let prepared = "select c_custkey, c_nationkey, c_acctbal from customer where c_custkey = $1";
    let (plan_hit_us, plan_miss_us) = scope.span("engine.prepare", "engine", || {
        node.with_db(|db| {
            db.prepare(prepared).expect("prepares");
            let hit = us_per_call(SHORT_REPS, |_| {
                db.prepare(prepared).expect("prepares");
            });
            // Distinct texts, so every call parses and plans afresh.
            let miss = us_per_call(SHORT_REPS, |i| {
                db.prepare(&format!("{prepared} and c_custkey <> -{i}"))
                    .expect("prepares");
            });
            (hit, miss)
        })
    });
    let point_lookup_us = scope.span("engine.query_bound", "storage", || {
        node.with_db(|db| {
            us_per_call(SHORT_REPS, |i| {
                std::hint::black_box(
                    db.query_bound(prepared, &[Value::Int(key(i))])
                        .expect("runs"),
                );
            })
        })
    });

    // Through the controller and straight into one engine, batch by batch
    // in turns: `cjdbc.read_overhead_us` is the difference of the two.
    const BATCHES: usize = 8;
    let (mut through, mut direct) = (Vec::new(), Vec::new());
    for batch in reads.chunks(SHORT_REPS / BATCHES) {
        let per_read_us = |ms: f64| ms * 1e3 / batch.len() as f64;
        let (_, ms) = scope.timed("controller.execute", "cjdbc", || {
            for sql in batch {
                std::hint::black_box(cluster.controller.execute(sql).expect("reads"));
            }
        });
        through.push(per_read_us(ms));
        let (_, ms) = scope.timed("engine.query", "engine", || {
            for sql in batch {
                std::hint::black_box(node.with_db(|db| db.query(sql)).expect("reads"));
            }
        });
        direct.push(per_read_us(ms));
    }

    let gate = cluster.engine.gate();
    let gate_us = scope.span("core.gate", "core", || {
        us_per_call(SHORT_REPS, |_| {
            gate.block_updates_and_wait();
            gate.release_updates();
        })
    });

    // Short SVP aggregates: through the controller, then the same plan
    // through `execute_svp` against its slowest range run alone.
    let orders = cluster.tpch.orders() as i64;
    let aggregates: Vec<String> = (0..SHORT_REPS / 4)
        .map(|i| (i as i64 * 104_729) % (orders - inputs::SHORT_RANGE_KEYS) + 1)
        .map(inputs::short_aggregate_sql)
        .collect();
    let svp_short_us = scope.span("controller.execute", "cjdbc", || {
        us_per_call(aggregates.len(), |i| {
            std::hint::black_box(
                cluster
                    .controller
                    .execute(&aggregates[i])
                    .expect("aggregates"),
            );
        })
    });
    let processors = cluster.engine.node_processors();
    let (mut walls, mut slowests) = (Vec::new(), Vec::new());
    scope.span("core.execute_svp", "core", || {
        for sql in aggregates.iter().take(20) {
            let plan = svp_plan(cluster, sql);
            let wall = ms_of(|| cluster.engine.execute_svp(&plan).expect("runs")).1;
            let slowest = plan
                .prepared
                .iter()
                .enumerate()
                .map(|(r, (sql, params))| {
                    ms_of(|| processors[r].run_subquery_bound(sql, params).expect("runs")).1
                })
                .fold(0.0, f64::max);
            walls.push(wall * 1e3);
            slowests.push(slowest * 1e3);
        }
    });

    // Refresh transactions with nobody else on the cluster; then the same
    // scripts one layer down, through the middleware's write path on each
    // node in turn, as the controller's broadcast calls it; then straight
    // into one engine (the fork, so the replicas under test stay
    // converged).
    let start_key = orders + 1 + REPLAY_KEY_OFFSET;
    let stream = refresh_stream(&cluster.tpch, 2 * REFRESH_PAIRS, start_key, 0xFEED);
    let (inserts, deletes) = stream.split_at(REFRESH_PAIRS);
    let controller_refresh = scope.span("controller.execute_write_transaction", "cjdbc", || {
        RefreshUs::measure(inserts, deletes, |t| {
            cluster
                .controller
                .execute_write_transaction(&t.statements)
                .expect("refresh runs");
        })
    });
    let scripts = |txns: &[RefreshTransaction]| -> Vec<String> {
        txns.iter()
            .map(|t| format!("begin; {}; commit", t.script()))
            .collect()
    };
    let (inserts, deletes) = (scripts(inserts), scripts(deletes));
    let core_refresh = scope.span("core.execute_write", "core", || {
        RefreshUs::measure(&inserts, &deletes, |script| {
            for node in 0..NODES {
                cluster
                    .engine
                    .execute_write(node, script)
                    .expect("refresh runs");
            }
        })
    });
    let engine_refresh = scope.span("engine.execute_script", "engine", || {
        RefreshUs::measure(&inserts, &deletes, |script| {
            fork.execute_script(script).expect("refresh runs");
        })
    });

    ShortReplay {
        parse_us,
        rewrite_us,
        plan_hit_us,
        plan_miss_us,
        point_lookup_us,
        controller_read_us: median(&through),
        direct_read_us: median(&direct),
        gate_us,
        svp_short_us,
        svp_short_wall_us: median(&walls),
        svp_short_slowest_us: median(&slowests),
        controller_refresh,
        core_refresh,
        engine_refresh,
    }
}

/// Time along the blocking steps of one operation, by layer.
pub type Path = Vec<(&'static str, f64)>;

/// The replay's numbers: the per-layer metrics it yields, and the pieces
/// the run report derives the remaining ones and the layer shares from.
pub struct Replay {
    pub metrics: Vec<Metric>,
    /// Σ over the eight queries of the medians of the parse, rewrite and
    /// `execute_svp` spans, over Σ of the medians of the request spans: how
    /// much of a request the calls below the controller account for.
    pub coverage: f64,
    /// One OLAP pass, in ms.
    pub olap_path_ms: Path,
    /// One point read, one refresh transaction (mean of an insert and a
    /// delete) and one short SVP aggregate, in µs.
    pub point_read_path_us: Path,
    pub refresh_path_us: Path,
    pub short_aggregate_path_us: Path,
    /// p50 of an uncontended refresh transaction through the controller,
    /// mean of inserts and deletes, in ms.
    pub uncontended_refresh_ms: f64,
    /// Median latency of a short SVP aggregate on the quiesced cluster.
    pub svp_short_us: f64,
}

/// Replays one `olap_power` pass and the short statements layer by layer.
pub fn replay(cluster: &Cluster, tracer: &Tracer) -> Replay {
    let root = tracer.alloc_id();
    let start = Instant::now();
    let pass = inputs::olap_pass(0);
    let queries: Vec<QueryReplay> = pass
        .iter()
        .map(|st| replay_query(cluster, tracer, root, st))
        .collect();
    let mut fork = cluster.nodes[0]
        .with_db(|db| db.fork())
        .expect("no transaction is open");
    let mut metrics = Vec::new();
    tracer.within("engine.query.modes", "engine", root, NONE, || {
        metrics.extend(mode_verdicts(&fork, &pass));
    });
    let short = replay_short(cluster, tracer, root, &mut fork);
    tracer.record_as(root, "replay", "client", NONE, NONE, start, Instant::now());

    let sum = |f: &dyn Fn(&QueryReplay) -> f64| queries.iter().map(f).sum::<f64>();
    for (st, q) in pass.iter().zip(&queries) {
        metrics.push(Metric::new(
            format!("engine.q{}_ms", st.query.number()),
            q.single_node_ms,
            "ms",
        ));
    }
    let ops = |f: fn(&OperatorMs) -> f64| sum(&|q| f(&q.operators));
    let node_busy_ms = sum(&|q| q.range_ms.iter().sum());
    let slowest_ms = sum(&|q| q.range_ms.iter().copied().fold(0.0, f64::max));
    let svp_ms = sum(&|q| q.svp_ms);
    let count = |f: &dyn Fn(&QueryReplay) -> u64| queries.iter().map(f).sum::<u64>() as f64;
    metrics.extend([
        Metric::new("engine.scan_ms", ops(|o| o.scan), "ms"),
        Metric::new("engine.filter_ms", ops(|o| o.filter), "ms"),
        Metric::new("engine.agg_ms", ops(|o| o.agg), "ms"),
        Metric::new("engine.join_ms", ops(|o| o.join), "ms"),
        Metric::new("engine.sort_ms", ops(|o| o.sort), "ms"),
        Metric::new(
            "engine.rows_scanned_per_pass",
            count(&|q| q.rows_scanned),
            "count",
        ),
        Metric::new(
            "engine.cpu_tuple_ops_per_pass",
            count(&|q| q.cpu_tuple_ops),
            "count",
        ),
        Metric::new(
            "storage.page_accesses_per_pass",
            count(&|q| q.page_accesses),
            "count",
        ),
        Metric::new(
            "storage.pages_pruned_per_pass",
            count(&|q| q.pages_pruned),
            "count",
        ),
        Metric::new(
            "core.partial_rows_per_pass",
            count(&|q| q.partial_rows),
            "count",
        ),
        Metric::new("core.node_busy_ms", node_busy_ms, "ms"),
        Metric::new(
            "core.node_skew",
            slowest_ms / (node_busy_ms / NODES as f64),
            "ratio",
        ),
        Metric::new("core.first_partial_ms", sum(&|q| q.first_partial_ms), "ms"),
        Metric::new(
            "core.compose_overlap_ms",
            sum(&|q| q.compose_overlap_ms),
            "ms",
        ),
        Metric::new("core.compose_tail_ms", sum(&|q| q.compose_tail_ms), "ms"),
        Metric::new(
            "core.svp_speedup_vs_serial",
            sum(&|q| q.single_node_ms) / svp_ms,
            "ratio",
        ),
        Metric::new(
            "core.compose_ms.streaming",
            sum(&|q| q.compose_streaming_ms),
            "ms",
        ),
        Metric::new(
            "core.compose_ms.staged",
            sum(&|q| q.compose_staged_ms),
            "ms",
        ),
        Metric::new(
            "core.rewrite_us",
            mean(&queries.iter().map(|q| q.rewrite_us).collect::<Vec<_>>()),
            "us",
        ),
        Metric::new("core.gate_uncontended_us", short.gate_us, "us"),
        Metric::new(
            "core.svp_overhead_us",
            short.svp_short_wall_us - short.svp_short_slowest_us,
            "us",
        ),
        Metric::new(
            "sql.parse_us.olap",
            mean(&queries.iter().map(|q| q.parse_us).collect::<Vec<_>>()),
            "us",
        ),
        Metric::new("sql.parse_us.short", short.parse_us, "us"),
        Metric::new("engine.plan_us.hit", short.plan_hit_us, "us"),
        Metric::new("engine.plan_us.miss", short.plan_miss_us, "us"),
        Metric::new("storage.point_lookup_us", short.point_lookup_us, "us"),
        Metric::new(
            "cjdbc.read_overhead_us",
            short.controller_read_us - short.direct_read_us,
            "us",
        ),
        Metric::new("engine.insert_txn_us", short.engine_refresh.insert, "us"),
        Metric::new("engine.delete_txn_us", short.engine_refresh.delete, "us"),
    ]);
    let controller_pair_us = short.controller_refresh.mean();
    let core_pair_us = short.core_refresh.mean();
    let engine_pair_us = short.engine_refresh.mean();
    metrics.extend([
        Metric::new("cjdbc.write_broadcast_us", controller_pair_us, "us"),
        Metric::new(
            "cjdbc.write_overhead_us",
            controller_pair_us - core_pair_us,
            "us",
        ),
    ]);

    // Blocking steps of one pass, from the public phase timings: the nodes
    // work until the last partial arrives; the composer's serial tail,
    // dispatch (SVP wall − dispatch-to-result) and the rewrite are the
    // middleware's; parsing is the SQL layer's; what the request takes
    // beyond all that is the controller's.
    let request_ms = sum(&|q| q.request_ms);
    let dispatched_ms = sum(&|q| q.dispatched_ms);
    let tail_ms = sum(&|q| q.compose_tail_ms);
    let parse_ms = sum(&|q| q.parse_us) / 1e3;
    let rewrite_ms = sum(&|q| q.rewrite_us) / 1e3;
    let explained_ms = parse_ms + rewrite_ms + svp_ms;
    let rest = |total: f64, parts: &[f64]| (total - parts.iter().sum::<f64>()).max(0.0);
    let olap_path_ms = vec![
        ("sql", parse_ms),
        (
            "core",
            rewrite_ms + tail_ms + (svp_ms - dispatched_ms).max(0.0),
        ),
        ("engine+storage", (dispatched_ms - tail_ms).max(0.0)),
        ("cjdbc", rest(request_ms, &[explained_ms])),
    ];
    let point_read_path_us = vec![
        ("sql", short.parse_us),
        ("core", short.rewrite_us),
        (
            "engine+storage",
            rest(short.direct_read_us, &[short.parse_us]),
        ),
        (
            "cjdbc",
            rest(
                short.controller_read_us,
                &[short.direct_read_us, short.rewrite_us],
            ),
        ),
    ];
    let refresh_path_us = vec![
        ("core", rest(core_pair_us, &[NODES as f64 * engine_pair_us])),
        ("engine+storage", NODES as f64 * engine_pair_us),
        ("cjdbc", rest(controller_pair_us, &[core_pair_us])),
    ];
    let short_aggregate_path_us = vec![
        ("sql", short.parse_us),
        (
            "core",
            short.rewrite_us + rest(short.svp_short_wall_us, &[short.svp_short_slowest_us]),
        ),
        ("engine+storage", short.svp_short_slowest_us),
        (
            "cjdbc",
            rest(
                short.svp_short_us,
                &[short.svp_short_wall_us, short.rewrite_us, short.parse_us],
            ),
        ),
    ];
    Replay {
        metrics,
        coverage: explained_ms / request_ms,
        olap_path_ms,
        point_read_path_us,
        refresh_path_us,
        short_aggregate_path_us,
        uncontended_refresh_ms: controller_pair_us / 1e3,
        svp_short_us: short.svp_short_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_lines_are_classified_and_workers_follow_their_operator() {
        let lines: Vec<String> = [
            "aggregate (actual rows=69 batches=1 self_ms=0.250 total_ms=24.821)",
            "  hash join block (greedy order) (actual rows=174 batches=1 self_ms=7.000 total_ms=24.535)",
            "    scan orders [parallel ×2] (actual rows=3634 batches=4 self_ms=0.500 total_ms=2.397)",
            "      parallel worker 0 (actual rows=7500 batches=8 self_ms=1.500 total_ms=1.652)",
            "      parallel worker 1 (actual rows=0 batches=0 self_ms=0.000 total_ms=0.001)",
            "    filter (2 predicate(s)) (actual rows=10 batches=1 self_ms=0.125 total_ms=0.2)",
            "  sort (1 key(s)) (actual rows=10 batches=1 self_ms=0.375 total_ms=0.4)",
            "execution time: 24.946 ms",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            operator_self_ms(&lines),
            OperatorMs {
                scan: 2.0,
                filter: 0.125,
                agg: 0.25,
                join: 7.0,
                sort: 0.375,
            }
        );
    }
}
