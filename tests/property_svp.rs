//! Property-based tests of the core invariants:
//!
//! 1. **SVP equivalence** — for random data, random partition counts, and a
//!    family of aggregate queries, executing the SVP plan over replicas and
//!    composing the partials equals executing the original query directly.
//! 2. **Partition coverage** — the injected range predicates form an exact
//!    partition of the key space (every key owned exactly once).
//! 3. **SQL round-trip** — rendering a parsed statement and re-parsing it
//!    is a fixed point.
//! 4. **Composer equivalence** — the incremental [`StreamingComposer`]
//!    produces byte-identical rows to the one-shot staging-table
//!    [`compose`], for every query in the family, every node count, and
//!    every arrival order.
//! 5. **Fault equivalence** — injecting a fault at any stage of the SVP
//!    pipeline (sub-query execution, pure latency, or a stall caught by
//!    the timeout) must not change a byte of the answer relative to the
//!    same cluster running healthy.

use std::sync::Arc;

use proptest::prelude::*;

use apuama::{
    compose, compose_with, ApuamaConfig, ApuamaEngine, ComposerStrategy, DataCatalog, FaultPolicy,
    Rewritten, StreamingComposer, SvpPlan, SvpRewriter, VirtualPartitioning,
};
use apuama_cjdbc::{
    Connection, EngineNode, FaultPlan, FaultTarget, FaultyConnection, NodeConnection,
};
use apuama_engine::{Database, QueryOutput, ReadRequest};
use apuama_sql::{parse_statement, Value};

/// Builds a fresh database with an `orders`-like fact table holding the
/// given rows (key, qty, price, tag).
fn db_with_orders(rows: &[(i64, i64, f64, u8)]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table orders (o_orderkey int not null, o_qty int, o_price float, \
         o_tag text, primary key (o_orderkey)) clustered by (o_orderkey)",
    )
    .unwrap();
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, q, p, t)| {
            vec![
                Value::Int(*k),
                Value::Int(*q),
                Value::Float(*p),
                Value::Str(format!("tag{}", t % 4)),
            ]
        })
        .collect();
    db.load_table("orders", data).unwrap();
    db
}

/// Strategy: unique order keys with arbitrary payloads.
fn orders_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64, u8)>> {
    proptest::collection::btree_map(1i64..500, (0i64..100, 0.0f64..1000.0, any::<u8>()), 0..120)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, (q, p, t))| (k, q, p, t))
                .collect::<Vec<_>>()
        })
}

/// The aggregate query family exercised by the equivalence property.
const QUERIES: &[&str] = &[
    "select count(*) as n from orders",
    "select sum(o_qty) as s from orders",
    "select avg(o_price) as a from orders",
    "select min(o_price) as lo, max(o_price) as hi from orders",
    "select o_tag, count(*) as n, sum(o_qty) as s from orders group by o_tag order by o_tag",
    "select o_tag, avg(o_qty) as a from orders group by o_tag having count(*) > 2 order by o_tag",
    "select sum(o_price) / (count(*) + 1) as weird from orders",
    "select o_orderkey, o_qty from orders where o_qty > 50 order by o_orderkey limit 7",
    "select o_tag, count(*) as n from orders where o_price between 100.0 and 900.0 \
     group by o_tag order by n desc, o_tag limit 3",
];

/// Each range's sub-query with its bounds as literals.
fn literal_subqueries(plan: &SvpPlan) -> Vec<String> {
    (plan.ranges.iter())
        .map(|&(lo, hi)| plan.template.subquery_for_range(lo, hi))
        .collect()
}

fn values_close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            let tol = 1e-6 * x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= tol
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn svp_equals_direct_execution(
        rows in orders_strategy(),
        nodes in 1usize..7,
        query_idx in 0usize..QUERIES.len(),
    ) {
        let sql = QUERIES[query_idx];
        let reference_db = db_with_orders(&rows);
        let expected = reference_db.query(sql).unwrap();

        let rewriter = SvpRewriter::new(DataCatalog::tpch(500));
        let plan = match rewriter.rewrite(sql, nodes).unwrap() {
            Rewritten::Svp(p) => p,
            Rewritten::Passthrough { reason } => {
                prop_assert!(false, "unexpected passthrough: {reason}");
                unreachable!()
            }
        };
        // Each "node" is a full replica.
        let partials: Vec<QueryOutput> = literal_subqueries(&plan)
            .iter()
            .map(|sub| db_with_orders(&rows).query(sub).unwrap())
            .collect();
        let composed = compose(&plan, &partials).unwrap();

        prop_assert_eq!(&composed.output.columns, &expected.columns);
        prop_assert_eq!(composed.output.rows.len(), expected.rows.len(),
            "row count for {} on {} nodes", sql, nodes);
        for (got, want) in composed.output.rows.iter().zip(&expected.rows) {
            for (x, y) in got.iter().zip(want) {
                prop_assert!(values_close(x, y),
                    "{} on {} nodes: {} vs {}", sql, nodes, x, y);
            }
        }
    }

    #[test]
    fn partitions_cover_every_key_exactly_once(
        low in -1000i64..1000,
        span in 1i64..100_000,
        nodes in 1usize..40,
        probe_offset in -500i64..500,
    ) {
        let vp = VirtualPartitioning {
            table: "t".into(),
            vpa: "k".into(),
            low,
            high: low + span,
            domain: "d".into(),
        };
        // Probe keys inside and outside the recorded range.
        let probes = [low - 1, low, low + span / 2, low + span, low + span + probe_offset.abs() + 1, probe_offset];
        for key in probes {
            let mut owners = 0;
            for i in 0..nodes {
                let (lo, hi) = vp.partition_bounds(i, nodes);
                if lo.is_none_or(|v| key >= v) && hi.is_none_or(|v| key < v) {
                    owners += 1;
                }
            }
            prop_assert_eq!(owners, 1, "key {} with {} nodes", key, nodes);
        }
    }

    #[test]
    fn partition_bounds_are_monotone(
        low in 0i64..100,
        span in 1i64..1_000_000,
        nodes in 2usize..33,
    ) {
        let vp = VirtualPartitioning {
            table: "t".into(),
            vpa: "k".into(),
            low,
            high: low + span,
            domain: "d".into(),
        };
        let mut last_hi: Option<i64> = None;
        for i in 0..nodes {
            let (lo, hi) = vp.partition_bounds(i, nodes);
            if i == 0 {
                prop_assert!(lo.is_none());
            }
            if i == nodes - 1 {
                prop_assert!(hi.is_none());
            }
            if let (Some(prev_hi), Some(this_lo)) = (last_hi, lo) {
                prop_assert_eq!(prev_hi, this_lo, "gap between partitions");
            }
            if let (Some(l), Some(h)) = (lo, hi) {
                prop_assert!(l <= h);
            }
            last_hi = hi;
        }
    }
}

/// Deterministic Fisher–Yates permutation of `0..n` from a seed (keeps the
/// arrival-order property reproducible without pulling in an RNG).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming composer folds partials incrementally yet must agree
    /// with the staging-table composer byte-for-byte — same rows, same
    /// ordering — no matter in which order the node partials arrive.
    #[test]
    fn streaming_composer_equals_staged_composer(
        rows in orders_strategy(),
        nodes in 1usize..7,
        query_idx in 0usize..QUERIES.len(),
        shuffle_seed in any::<u64>(),
    ) {
        let sql = QUERIES[query_idx];
        let rewriter = SvpRewriter::new(DataCatalog::tpch(500));
        let plan = match rewriter.rewrite(sql, nodes).unwrap() {
            Rewritten::Svp(p) => p,
            Rewritten::Passthrough { reason } => {
                prop_assert!(false, "unexpected passthrough: {reason}");
                unreachable!()
            }
        };
        let partials: Vec<QueryOutput> = literal_subqueries(&plan)
            .iter()
            .map(|sub| db_with_orders(&rows).query(sub).unwrap())
            .collect();

        let staged = compose_with(ComposerStrategy::Staged, &plan, &partials).unwrap();
        let streaming = compose_with(ComposerStrategy::Streaming, &plan, &partials).unwrap();
        prop_assert_eq!(&streaming.output.columns, &staged.output.columns);
        prop_assert_eq!(&streaming.output.rows, &staged.output.rows,
            "{} on {} nodes", sql, nodes);
        prop_assert_eq!(streaming.partial_rows, staged.partial_rows);

        // A shuffled arrival order must not change a single byte.
        let mut composer = StreamingComposer::new(&plan);
        for &i in &permutation(nodes, shuffle_seed) {
            composer.accept(i, partials[i].clone()).unwrap();
        }
        let shuffled = composer.finish().unwrap();
        prop_assert_eq!(&shuffled.output.rows, &staged.output.rows,
            "{} on {} nodes, seed {}", sql, nodes, shuffle_seed);
    }
}

/// A full engine over replicas of `rows`, each behind a fault injector.
fn engine_over(
    rows: &[(i64, i64, f64, u8)],
    nodes: usize,
    config: ApuamaConfig,
) -> (Arc<ApuamaEngine>, Vec<Arc<FaultyConnection>>) {
    let mut faulties = Vec::new();
    let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
    for i in 0..nodes {
        let faulty = FaultyConnection::new(
            Arc::new(NodeConnection::new(EngineNode::new(
                format!("node-{i}"),
                db_with_orders(rows),
            ))),
            FaultPlan::default(),
        );
        conns.push(faulty.clone() as Arc<dyn Connection>);
        faulties.push(faulty);
    }
    (
        ApuamaEngine::new(conns, DataCatalog::tpch(500), config),
        faulties,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault equivalence: whatever stage of the pipeline the fault hits on
    /// whichever node, the recovered answer is byte-identical to the same
    /// cluster running with injection disabled.
    #[test]
    fn faulted_svp_equals_healthy_svp(
        rows in orders_strategy(),
        nodes in 2usize..6,
        query_idx in 0usize..QUERIES.len(),
        fault_node in 0usize..6,
        stage in 0usize..3,
    ) {
        let sql = QUERIES[query_idx];
        let f = fault_node % nodes;
        // Stage 2 (stall) needs the per-sub-query timeout armed.
        let config = if stage == 2 {
            ApuamaConfig {
                fault: FaultPolicy {
                    subquery_timeout_ms: Some(30),
                    max_retries: 0,
                    ..FaultPolicy::default()
                },
                ..ApuamaConfig::default()
            }
        } else {
            ApuamaConfig::default()
        };
        let (healthy, _) = engine_over(&rows, nodes, ApuamaConfig::default());
        let (engine, faulties) = engine_over(&rows, nodes, config);
        let plan = match stage {
            // Sub-query execution fails outright on node f.
            0 => FaultPlan { target: FaultTarget::Reads, ..FaultPlan::fail_all() },
            // Pure latency: slow but correct.
            1 => FaultPlan {
                delay: std::time::Duration::from_millis(15),
                ..FaultPlan::default()
            },
            // A stall the timeout must detect; survivors are untouched.
            _ => FaultPlan {
                stall_every: 1,
                stall: std::time::Duration::from_millis(200),
                only_matching: Some("from orders".into()),
                ..FaultPlan::default()
            },
        };
        faulties[f].set_plan(plan);

        let want = healthy.read(0, &ReadRequest::text(sql)).unwrap();
        let got = engine.read(0, &ReadRequest::text(sql)).unwrap();
        prop_assert_eq!(&got.columns, &want.columns);
        prop_assert_eq!(&got.rows, &want.rows,
            "{} on {} nodes, fault stage {} at node {}", sql, nodes, stage, f);
    }
}

/// Replays the checked-in shrink case from `property_svp.proptest-regressions`
/// explicitly (HAVING over a single-node plan with groups below the
/// threshold), so the triaged scenario stays covered even under harnesses
/// that do not read the regression file.
#[test]
fn regression_having_below_threshold_single_node() {
    let rows = [
        (1i64, 21i64, 0.0f64, 128u8),
        (2, 32, 0.0, 152),
        (3, 14, 0.0, 12),
    ];
    let sql = QUERIES[5];
    let expected = db_with_orders(&rows).query(sql).unwrap();

    let rewriter = SvpRewriter::new(DataCatalog::tpch(500));
    let Rewritten::Svp(plan) = rewriter.rewrite(sql, 1).unwrap() else {
        panic!("expected SVP plan");
    };
    let partials: Vec<QueryOutput> = literal_subqueries(&plan)
        .iter()
        .map(|sub| db_with_orders(&rows).query(sub).unwrap())
        .collect();
    let composed = compose(&plan, &partials).unwrap();
    assert_eq!(composed.output.rows, expected.rows);
    for strategy in [ComposerStrategy::Staged, ComposerStrategy::Streaming] {
        let got = compose_with(strategy, &plan, &partials).unwrap();
        assert_eq!(got.output.rows, expected.rows, "{strategy:?}");
    }
}

/// `between lo and hi` with `hi` on a virtual-partition boundary: the
/// sub-query that ends there carries `… between lo and hi and o_orderkey <
/// hi`, two upper bounds on the same value that the index range consumes
/// together. It used to keep the inclusive one and count the boundary
/// order twice (PR 13's benchmark found it on one statement in 350 000).
#[test]
fn regression_between_ending_on_a_partition_boundary() {
    let rows: Vec<(i64, i64, f64, u8)> = (1..=400).map(|k| (k, k % 10, 1.0, 0)).collect();
    let reference = db_with_orders(&rows);
    let catalog = DataCatalog::tpch(400);
    let vp = catalog.get("orders").unwrap();
    for nodes in [2usize, 4, 7] {
        let rewriter = SvpRewriter::new(catalog.clone());
        for i in 0..nodes {
            // Every partition edge, as the upper and as the lower end.
            let (lo, hi) = vp.partition_bounds(i, nodes);
            for (from, to) in [(Some(3), hi), (lo, Some(390)), (lo, hi)] {
                let (Some(from), Some(to)) = (from, to) else {
                    continue;
                };
                let sql = format!(
                    "select count(*) as n, sum(o_qty) as s from orders \
                     where o_orderkey between {from} and {to}"
                );
                let expected = reference.query(&sql).unwrap();
                let Rewritten::Svp(plan) = rewriter.rewrite(&sql, nodes).unwrap() else {
                    panic!("expected SVP plan for {sql}");
                };
                let partials: Vec<QueryOutput> = literal_subqueries(&plan)
                    .iter()
                    .map(|sub| {
                        // As on a cluster node: the index is forced.
                        db_with_orders(&rows)
                            .read(&ReadRequest::text(sub).avoiding_seqscan(true))
                            .unwrap()
                    })
                    .collect();
                let composed = compose(&plan, &partials).unwrap();
                assert_eq!(
                    composed.output.rows, expected.rows,
                    "{sql} on {nodes} nodes"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Display(parse(sql)) is a fixed point of Display ∘ parse.
    #[test]
    fn rendered_sql_reparses_to_itself(query_idx in 0usize..QUERIES.len(), nodes in 1usize..9) {
        let sql = QUERIES[query_idx];
        let stmt = parse_statement(sql).unwrap();
        let rendered = stmt.to_string();
        let reparsed = parse_statement(&rendered).unwrap();
        prop_assert_eq!(&reparsed.to_string(), &rendered);

        // The SVP sub-queries and composition query also round-trip.
        let rewriter = SvpRewriter::new(DataCatalog::tpch(500));
        // (orders-family queries are always eligible here)
        if let Rewritten::Svp(plan) = rewriter.rewrite(sql, nodes).unwrap() {
            for sub in &literal_subqueries(&plan) {
                let p = parse_statement(sub).unwrap();
                prop_assert_eq!(&p.to_string(), sub);
            }
            let c = parse_statement(&plan.composition_sql).unwrap();
            prop_assert_eq!(&c.to_string(), &plan.composition_sql);
        }
    }
}
