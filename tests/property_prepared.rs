//! Property-based tests of the prepared-plan path:
//!
//! 1. **Prepared/text equivalence** — for random data and a family of
//!    TPC-H-shaped range queries, executing via `prepare` + `query_bound`
//!    is byte-identical (rows *and* work counters) to executing the
//!    rendered text, with the fused kernel on or off.
//! 2. **Kernel/interpreter equivalence** — the fused scan→filter→aggregate
//!    kernel agrees with the interpreted pipeline bit for bit on the same
//!    bound statement.
//! 3. **DDL invalidation** — a schema change broadcast through the
//!    controller evicts cached plans on every backend; subsequent bound
//!    reads replan instead of serving a stale access path.

use proptest::prelude::*;

use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::{Database, ReadRequest};
use apuama_sql::Value;

/// A lineitem-shaped fact table: clustered integer key, an integer
/// quantity, a float price, and a low-cardinality flag.
fn lineitem_db(rows: &[(i64, i64, f64, u8)]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table lineitem (l_orderkey int not null, l_quantity int, \
         l_extendedprice float, l_returnflag text, primary key (l_orderkey)) \
         clustered by (l_orderkey)",
    )
    .unwrap();
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, q, p, f)| {
            vec![
                Value::Int(*k),
                Value::Int(*q),
                Value::Float(*p),
                Value::Str(format!("F{}", f % 3)),
            ]
        })
        .collect();
    db.load_table("lineitem", data).unwrap();
    db
}

/// Strategy: unique order keys with arbitrary payloads. Float payloads are
/// quarter-steps (exactly representable, sums never round), so the strict
/// byte-identity assertions stay valid however partial aggregates
/// associate — including under morsel-parallel execution on multi-core
/// hosts, where `parallel_workers` defaults to the core count.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64, u8)>> {
    proptest::collection::btree_map(0i64..500, (0i64..100, 0i64..4000, any::<u8>()), 0..150)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, (q, p, f))| (k, q, p as f64 * 0.25, f))
                .collect::<Vec<_>>()
        })
}

/// The query family: `(statement with placeholders, parameter count)`.
/// Covers the kernel's supported shape (single table, range + residual
/// predicates, decomposable aggregates, GROUP BY) and its documented
/// fallbacks (non-aggregated projection, DISTINCT).
const FAMILY: &[(&str, usize)] = &[
    (
        "select sum(l_quantity) as s from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    (
        "select count(*) as n, sum(l_extendedprice) as s from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    (
        "select l_returnflag, sum(l_quantity) as s, avg(l_extendedprice) as a, \
         count(*) as n from lineitem where l_orderkey >= $1 and l_orderkey < $2 \
         group by l_returnflag order by l_returnflag",
        2,
    ),
    (
        "select min(l_extendedprice) as lo, max(l_extendedprice) as hi from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    (
        "select l_returnflag, count(*) as n from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3 \
         group by l_returnflag order by n desc, l_returnflag",
        3,
    ),
    (
        "select sum(l_extendedprice) as s from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3",
        3,
    ),
    // Kernel fallback shapes: the interpreter must serve these through the
    // same cached-plan seam.
    (
        "select l_orderkey, l_quantity from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3 \
         order by l_orderkey limit 10",
        3,
    ),
    (
        "select distinct l_quantity from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 order by l_quantity",
        2,
    ),
];

/// Renders the placeholder statement as literal text — what a driver
/// without prepared statements would send.
fn render(template: &str, params: &[Value]) -> String {
    let mut sql = template.to_string();
    for (i, v) in params.iter().enumerate() {
        sql = sql.replace(&format!("${}", i + 1), &v.to_string());
    }
    sql
}

fn params_for(n: usize, lo: i64, hi: i64, qty: i64) -> Vec<Value> {
    [Value::Int(lo), Value::Int(hi), Value::Int(qty)][..n].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prepared+bound path must be indistinguishable from the text
    /// path: same bytes out, same work counted.
    #[test]
    fn prepared_equals_text_byte_for_byte(
        rows in rows_strategy(),
        query_idx in 0usize..FAMILY.len(),
        lo in 0i64..400,
        width in 1i64..400,
        qty in 0i64..100,
        kernel_off in any::<bool>(),
    ) {
        let (template, n_params) = FAMILY[query_idx];
        let db = lineitem_db(&rows);
        if kernel_off {
            db.query("set enable_kernel = off").unwrap();
        }
        let params = params_for(n_params, lo, lo + width, qty);
        let text = render(template, &params);

        prop_assert_eq!(db.prepare(template).unwrap(), n_params);
        let want = db.query(&text).unwrap();
        let got = db.query_bound(template, &params).unwrap();

        prop_assert_eq!(&got.columns, &want.columns);
        // Byte identity, float bits included — no tolerance.
        prop_assert_eq!(&got.rows, &want.rows, "{}", text);
        prop_assert_eq!(got.stats.rows_scanned, want.stats.rows_scanned, "{}", text);
        prop_assert_eq!(got.stats.cpu_tuple_ops, want.stats.cpu_tuple_ops, "{}", text);
        prop_assert_eq!(got.stats.index_probes, want.stats.index_probes, "{}", text);
        prop_assert_eq!(got.stats.rows_out, want.stats.rows_out, "{}", text);
        prop_assert_eq!(
            got.stats.buffer.accesses(),
            want.stats.buffer.accesses(),
            "{}", text
        );
    }

    /// The fused kernel and the interpreted pipeline agree bit for bit on
    /// every bound statement (the kernel silently falls back on shapes it
    /// does not support, so every family member must hold).
    #[test]
    fn kernel_equals_interpreter_byte_for_byte(
        rows in rows_strategy(),
        query_idx in 0usize..FAMILY.len(),
        lo in 0i64..400,
        width in 1i64..400,
        qty in 0i64..100,
    ) {
        let (template, n_params) = FAMILY[query_idx];
        let db = lineitem_db(&rows);
        let params = params_for(n_params, lo, lo + width, qty);

        let kernel = db.query_bound(template, &params).unwrap();
        db.query("set enable_kernel = off").unwrap();
        let interpreted = db.query_bound(template, &params).unwrap();

        prop_assert_eq!(&kernel.columns, &interpreted.columns);
        prop_assert_eq!(&kernel.rows, &interpreted.rows, "{}", template);
        prop_assert_eq!(kernel.stats.rows_scanned, interpreted.stats.rows_scanned);
        prop_assert_eq!(kernel.stats.cpu_tuple_ops, interpreted.stats.cpu_tuple_ops);
        prop_assert_eq!(kernel.stats.index_probes, interpreted.stats.index_probes);
        prop_assert_eq!(
            kernel.stats.buffer.accesses(),
            interpreted.stats.buffer.accesses()
        );
    }
}

/// DDL broadcast through the controller invalidates every backend's cached
/// plans: the bound statement replans against the new schema instead of
/// serving a stale access path, and keeps matching the text path.
#[test]
fn ddl_through_controller_evicts_cached_plans_on_every_backend() {
    let rows: Vec<(i64, i64, f64, u8)> = (0..300)
        .map(|i| (i, i % 17, (i % 23) as f64 * 1.5, (i % 3) as u8))
        .collect();
    let nodes: Vec<_> = (0..2)
        .map(|i| EngineNode::new(format!("n{i}"), lineitem_db(&rows)))
        .collect();
    let conns: Vec<std::sync::Arc<dyn Connection>> = nodes
        .iter()
        .map(|n| std::sync::Arc::new(NodeConnection::new(n.clone())) as _)
        .collect();
    let controller = Controller::new(conns, ControllerConfig::default());

    let sql = "select l_returnflag, sum(l_extendedprice) as s, count(*) as n \
               from lineitem where l_quantity >= $1 and l_quantity < $2 \
               group by l_returnflag order by l_returnflag";
    // Warm every backend's plan cache, whichever the balancer picks later.
    for node in &nodes {
        assert_eq!(node.with_db(|db| db.prepare(sql)).unwrap(), 2);
    }
    let params = [Value::Int(3), Value::Int(12)];
    let bound = ReadRequest::bound(sql, &params);
    let (before, _) = controller.read(&bound).unwrap();

    // Broadcast DDL: a secondary index on the filtered column changes what
    // the planner would choose for this very statement.
    controller
        .execute("create index li_qty on lineitem (l_quantity)")
        .unwrap();
    for node in &nodes {
        let stats = node.with_db(|db| db.plan_cache_stats());
        assert_eq!(
            stats.invalidations, 0,
            "invalidation is detected lazily, at next lookup"
        );
    }

    // Every backend must replan; drain the balancer until both served.
    let mut served_after = Vec::new();
    for _ in 0..8 {
        let (after, node) = controller.read(&bound).unwrap();
        assert_eq!(after.rows, before.rows, "stale plan changed the answer");
        served_after.push(node);
    }
    for (i, node) in nodes.iter().enumerate() {
        if !served_after.contains(&i) {
            continue;
        }
        let stats = node.with_db(|db| db.plan_cache_stats());
        assert!(
            stats.invalidations >= 1,
            "backend {i} served a bound read without evicting: {stats:?}"
        );
    }
    assert!(
        !served_after.is_empty(),
        "balancer routed no bound reads at all"
    );

    // And the replanned statement still matches a text execution.
    let text = render(sql, &params);
    let (text_out, _) = controller.execute(&text).unwrap();
    let (bound_out, _) = controller.read(&bound).unwrap();
    assert_eq!(bound_out.rows, text_out.rows);
}
