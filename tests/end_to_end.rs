//! End-to-end correctness: the full stack (C-JDBC controller → Apuama →
//! per-node engines) must answer every TPC-H evaluation query exactly as a
//! single standalone engine does.

use std::sync::Arc;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog};
use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::Database;
use apuama_sql::Value;
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, ALL_QUERIES};

fn tpch_data() -> apuama_tpch::TpchData {
    generate(TpchConfig {
        scale_factor: 0.002,
        seed: 13,
    })
}

/// One connection per replica of `data`, straight to its engine.
fn replicas(data: &apuama_tpch::TpchData, nodes: usize) -> Vec<Arc<dyn Connection>> {
    (0..nodes)
        .map(|i| {
            let mut db = Database::in_memory();
            load_into(&mut db, data).expect("replica loads");
            Arc::new(NodeConnection::new(EngineNode::new(
                format!("node-{i}"),
                db,
            ))) as Arc<dyn Connection>
        })
        .collect()
}

fn build_cluster(
    data: &apuama_tpch::TpchData,
    nodes: usize,
    config: ApuamaConfig,
) -> (Arc<ApuamaEngine>, Controller) {
    let engine = ApuamaEngine::new(
        replicas(data, nodes),
        DataCatalog::tpch(data.config.orders() as i64),
        config,
    );
    let controller = Controller::new(engine.connections(), ControllerConfig::default());
    (engine, controller)
}

fn rows_approx_equal(a: &[Vec<Value>], b: &[Vec<Value>], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: row count");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len(), "{context}: arity");
        for (x, y) in ra.iter().zip(rb) {
            match (x.as_f64(), y.as_f64()) {
                (Some(fx), Some(fy)) => {
                    let tol = 1e-6 * fx.abs().max(fy.abs()).max(1.0);
                    assert!((fx - fy).abs() <= tol, "{context}: {fx} vs {fy}");
                }
                _ => assert_eq!(x, y, "{context}"),
            }
        }
    }
}

#[test]
fn all_tpch_queries_match_single_node_reference() {
    let data = tpch_data();
    // Reference: one standalone engine.
    let mut reference_db = Database::in_memory();
    load_into(&mut reference_db, &data).unwrap();

    let (_, controller) = build_cluster(&data, 4, ApuamaConfig::default());
    let params = QueryParams::default();
    for q in ALL_QUERIES {
        let sql = q.sql(&params);
        let expected = reference_db.query(&sql).unwrap();
        let (actual, _) = controller.execute(&sql).unwrap();
        assert_eq!(actual.columns, expected.columns, "{}", q.label());
        rows_approx_equal(&actual.rows, &expected.rows, &q.label());
    }
}

/// The paper's comparator: plain C-JDBC, a controller straight over the
/// replicas with no Apuama between, answering each query on one node.
#[test]
fn svp_and_baseline_agree_with_each_other() {
    let data = tpch_data();
    let (_, with_svp) = build_cluster(&data, 3, ApuamaConfig::default());
    let without_svp = Controller::new(replicas(&data, 3), ControllerConfig::default());
    let params = QueryParams::random(5);
    for q in ALL_QUERIES {
        let sql = q.sql(&params);
        let (a, _) = with_svp.execute(&sql).unwrap();
        let (b, _) = without_svp.execute(&sql).unwrap();
        rows_approx_equal(&a.rows, &b.rows, &q.label());
    }
}

#[test]
fn results_identical_across_cluster_sizes() {
    let data = tpch_data();
    let params = QueryParams::default();
    let sql = apuama_tpch::TpchQuery::Q1.sql(&params);
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for n in [1usize, 2, 5, 8] {
        let (_, controller) = build_cluster(&data, n, ApuamaConfig::default());
        let (out, _) = controller.execute(&sql).unwrap();
        match &reference {
            None => reference = Some(out.rows),
            Some(r) => rows_approx_equal(&out.rows, r, &format!("{n} nodes")),
        }
    }
}

#[test]
fn refresh_stream_through_full_stack_preserves_query_answers() {
    let data = tpch_data();
    let (engine, controller) = build_cluster(&data, 3, ApuamaConfig::default());
    let params = QueryParams::default();
    let q1 = apuama_tpch::TpchQuery::Q1.sql(&params);
    let before = controller.execute(&q1).unwrap().0;

    // Apply a full refresh cycle (inserts then deletes) through the stack.
    let start_key = data.config.orders() as i64 + 1;
    let txns = apuama_tpch::refresh_stream(&data.config, 12, start_key, 3);
    for t in &txns {
        controller.execute_write_transaction(&t.statements).unwrap();
    }
    assert_eq!(engine.txn_counters(), vec![12, 12, 12]);

    // Inserted-then-deleted data must leave OLAP answers unchanged...
    let after = controller.execute(&q1).unwrap().0;
    rows_approx_equal(&after.rows, &before.rows, "Q1 after refresh cycle");

    // ...and new keys beyond the catalog range were visible in between
    // (the unbounded last partition owns them).
    let mid_insert = &txns[0];
    controller
        .execute_write_transaction(&mid_insert.statements)
        .unwrap();
    let (count, _) = controller
        .execute(&format!(
            "select count(*) as n from orders where o_orderkey = {}",
            mid_insert.orderkey
        ))
        .unwrap();
    assert_eq!(count.rows[0][0], Value::Int(1));
}

mod svp_failure {
    use super::*;
    use apuama_engine::QueryOutput;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A connection that fails queries on demand (writes always succeed).
    struct FlakyReads {
        inner: NodeConnection,
        failing: AtomicBool,
    }

    impl Connection for FlakyReads {
        fn execute(&self, sql: &str) -> Result<QueryOutput, apuama_engine::EngineError> {
            if self.failing.load(Ordering::SeqCst)
                && sql.trim_start().to_ascii_lowercase().starts_with("select")
            {
                return Err(apuama_engine::EngineError::Unavailable(
                    "injected sub-query failure".into(),
                ));
            }
            self.inner.execute(sql)
        }

        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    #[test]
    fn failed_subqueries_reassign_or_surface_and_gate_recovers() {
        let data = generate(TpchConfig {
            scale_factor: 0.001,
            seed: 23,
        });
        let mut flakies = Vec::new();
        let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
        for i in 0..3 {
            let mut db = Database::in_memory();
            load_into(&mut db, &data).unwrap();
            let f = Arc::new(FlakyReads {
                inner: NodeConnection::new(EngineNode::new(format!("n{i}"), db)),
                failing: AtomicBool::new(false),
            });
            conns.push(f.clone());
            flakies.push(f);
        }
        let engine = ApuamaEngine::new(
            conns,
            DataCatalog::tpch(data.config.orders() as i64),
            ApuamaConfig::default(),
        );
        let controller = Controller::new(engine.connections(), ControllerConfig::default());

        let (want, _) = controller
            .execute("select count(*) as n from lineitem")
            .unwrap();

        // Break node 1's reads: its range is reassigned to a survivor and
        // the SVP query still returns the full answer.
        flakies[1].failing.store(true, Ordering::SeqCst);
        let (out, _) = controller
            .execute("select count(*) as n from lineitem")
            .unwrap();
        assert_eq!(out.rows, want.rows);

        // Break every node: with nowhere left to reassign, the query must
        // fail loudly, not hang or return a partial answer.
        for f in &flakies {
            f.failing.store(true, Ordering::SeqCst);
        }
        assert!(controller
            .execute("select count(*) as n from lineitem")
            .is_err());

        // The consistency gate must not be left blocked: writes still flow
        // and a healed cluster answers again.
        controller
            .execute(
                "insert into orders values (9999999, 1, 'O', 1.0, date '1997-01-01', \
                 '5-LOW', 'c', 0, 'post-failure')",
            )
            .expect("updates must not deadlock after a failed SVP query");
        for f in &flakies {
            f.failing.store(false, Ordering::SeqCst);
        }
        let (out, _) = controller
            .execute("select count(*) as n from orders")
            .unwrap();
        assert_eq!(
            out.rows[0][0].as_i64().unwrap(),
            data.config.orders() as i64 + 1
        );
        assert_eq!(engine.txn_counters(), vec![1, 1, 1]);
    }
}

/// Pass-through point reads run from each node's plan cache: the
/// controller's parse rides down to the node, which lifts the key into a
/// bound value. A thousand reads of distinct keys cost each node that
/// serves them one miss; every other read is a hit.
#[test]
fn distinct_key_point_reads_miss_once_per_serving_node() {
    const CUSTOMERS: i64 = 1_200;
    let nodes: Vec<Arc<EngineNode>> = (0..4)
        .map(|i| {
            let mut db = Database::in_memory();
            db.execute(
                "create table customer (c_custkey int not null, c_nationkey int, \
                 c_acctbal float, primary key (c_custkey)) clustered by (c_custkey)",
            )
            .unwrap();
            let rows: Vec<Vec<Value>> = (1..=CUSTOMERS)
                .map(|k| vec![Value::Int(k), Value::Int(k % 25), Value::Float(k as f64)])
                .collect();
            db.load_table("customer", rows).unwrap();
            EngineNode::new(format!("node-{i}"), db)
        })
        .collect();
    let conns = nodes
        .iter()
        .map(|n| Arc::new(NodeConnection::new(Arc::clone(n))) as Arc<dyn Connection>)
        .collect();
    let engine = ApuamaEngine::new(conns, DataCatalog::tpch(1_000), ApuamaConfig::default());
    let controller = Controller::new(engine.connections(), ControllerConfig::default());

    for i in 0..1_000i64 {
        let key = (i * 7) % CUSTOMERS + 1;
        let (out, _) = controller
            .execute(&format!(
                "select c_custkey, c_nationkey, c_acctbal from customer where c_custkey = {key}"
            ))
            .unwrap();
        let want = vec![
            Value::Int(key),
            Value::Int(key % 25),
            Value::Float(key as f64),
        ];
        assert_eq!(out.rows, vec![want]);
    }
    let served = controller.reads_served();
    assert_eq!(served.iter().sum::<usize>(), 1_000);
    for (node, served) in nodes.iter().zip(served) {
        let stats = node.with_db(|db| db.plan_cache_stats());
        let misses = u64::from(served > 0);
        assert_eq!(
            (stats.misses, stats.hits),
            (misses, served as u64 - misses),
            "{}: {stats:?}",
            node.name()
        );
    }
}
