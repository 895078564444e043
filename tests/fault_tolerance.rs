//! Fault-tolerance integration tests: the cluster must answer correctly —
//! byte-identically to a healthy cluster — while nodes fail, stall, or
//! recover, and the consistency protocol must neither deadlock nor skew
//! its transaction counters when failures overlap concurrent updates.

use std::sync::Arc;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog, FaultPolicy};
use apuama_cjdbc::{
    CircuitState, Connection, Controller, ControllerConfig, EngineNode, FaultPlan, FaultTarget,
    FaultyConnection, NodeConnection, RecoveryConfig,
};
use apuama_engine::{Database, EngineError, ReadRequest};
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, TpchData};

fn dataset() -> TpchData {
    generate(TpchConfig {
        scale_factor: 0.001,
        seed: 17,
    })
}

/// A TPC-H cluster whose every backend sits behind an (initially inert)
/// fault injector, plus a C-JDBC controller over the engine's connections.
fn faulty_cluster(
    data: &TpchData,
    nodes: usize,
    config: ApuamaConfig,
) -> (
    Arc<ApuamaEngine>,
    Arc<Controller>,
    Vec<Arc<FaultyConnection>>,
) {
    let mut faulties = Vec::new();
    let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
    for i in 0..nodes {
        let mut db = Database::in_memory();
        load_into(&mut db, data).expect("replica loads");
        let faulty = FaultyConnection::new(
            Arc::new(NodeConnection::new(EngineNode::new(
                format!("node-{i}"),
                db,
            ))),
            FaultPlan::default(),
        );
        conns.push(faulty.clone() as Arc<dyn Connection>);
        faulties.push(faulty);
    }
    let orders = data.config.orders() as i64;
    let engine = ApuamaEngine::new(conns, DataCatalog::tpch(orders), config);
    let controller = Arc::new(Controller::new(
        engine.connections(),
        ControllerConfig::default(),
    ));
    (engine, controller, faulties)
}

fn fail_reads() -> FaultPlan {
    FaultPlan {
        target: FaultTarget::Reads,
        ..FaultPlan::fail_all()
    }
}

/// Acceptance criterion: with one node failing 100% of its sub-queries,
/// every evaluation query still returns byte-for-byte the healthy answer —
/// the failed VPA range is re-executed on a survivor and folded at its
/// original position.
#[test]
fn dead_node_cluster_answers_every_eval_query_byte_identically() {
    let data = dataset();
    let (healthy, _, _) = faulty_cluster(&data, 4, ApuamaConfig::default());
    let (engine, _, faulties) = faulty_cluster(&data, 4, ApuamaConfig::default());
    faulties[1].set_plan(fail_reads());

    let params = QueryParams::default();
    for q in apuama_tpch::ALL_QUERIES {
        let sql = q.sql(&params);
        let want = healthy
            .read(0, &ReadRequest::text(&sql))
            .expect("healthy run");
        let got = engine
            .read(0, &ReadRequest::text(&sql))
            .expect("degraded run");
        assert_eq!(got.columns, want.columns, "{}", q.label());
        assert_eq!(
            got.rows,
            want.rows,
            "{}: degraded answer diverged",
            q.label()
        );
    }
    assert!(
        faulties[1].injected_errors() > 0,
        "the dead node was never even asked"
    );
    // The repeated failures tripped the breaker.
    assert_eq!(engine.health().state(1), CircuitState::Open);
}

/// Satellite: a fault-injected SVP stream running against concurrent
/// update transactions must not deadlock the update gate, must only ever
/// observe consistent (monotonically growing) snapshots, and must leave
/// the per-node transaction counters converged.
#[test]
fn faulted_svp_under_concurrent_writes_neither_deadlocks_nor_skews_counters() {
    let data = dataset();
    let (engine, controller, faulties) = faulty_cluster(&data, 3, ApuamaConfig::default());
    // Reads fail on node 2; writes still replicate everywhere, which is
    // what keeps the counters converging.
    faulties[2].set_plan(fail_reads());
    let base_orders = data.config.orders() as i64;

    std::thread::scope(|s| {
        let writer = {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                for k in 0..25i64 {
                    let key = base_orders + 1 + k;
                    c.execute(&format!(
                        "insert into orders values ({key}, 1, 'O', 1.0, \
                         date '1997-01-01', '5-LOW', 'c', 0, 'w')"
                    ))
                    .unwrap();
                }
            })
        };
        let reader = {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                let mut last = 0i64;
                for _ in 0..12 {
                    // SVP count; node 2's range is reassigned every time.
                    let (out, _) = c.execute("select count(*) as n from orders").unwrap();
                    let now = out.rows[0][0].as_i64().unwrap();
                    assert!(now >= last, "count went backwards: {last} -> {now}");
                    last = now;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    });
    assert_eq!(engine.txn_counters(), vec![25, 25, 25]);
    let (out, _) = controller
        .execute("select count(*) as n from orders")
        .unwrap();
    assert_eq!(out.rows[0][0].as_i64().unwrap(), base_orders + 25);
}

/// Satellite: when every replica is down, retries and reassignment must
/// exhaust cleanly — an error, not a hang — and the same engine must serve
/// correct answers again once the nodes heal.
#[test]
fn retry_exhaustion_yields_clean_error_and_engine_stays_usable() {
    let data = dataset();
    let (engine, controller, faulties) = faulty_cluster(&data, 3, ApuamaConfig::default());
    let (reference, _, _) = faulty_cluster(&data, 3, ApuamaConfig::default());
    const SQL: &str = "select count(*) as n, sum(o_totalprice) as t from orders";
    let want = reference.read(0, &ReadRequest::text(SQL)).unwrap();

    for f in &faulties {
        f.set_plan(fail_reads());
    }
    let err = engine
        .read(0, &ReadRequest::text(SQL))
        .expect_err("all replicas down");
    assert!(
        !err.to_string().is_empty(),
        "exhaustion must surface a real error"
    );

    // The gate must have been released: a write still goes through.
    let base_orders = data.config.orders() as i64;
    controller
        .execute(&format!(
            "insert into orders values ({}, 1, 'O', 1.0, \
             date '1997-01-01', '5-LOW', 'c', 0, 'x')",
            base_orders + 1
        ))
        .expect("write after failed SVP");

    // Heal; the open circuits half-open on the next dispatch and the probe
    // succeeds, so the very same engine is usable again.
    for f in &faulties {
        f.heal();
    }
    let got = engine.read(0, &ReadRequest::text(SQL)).expect("healed run");
    let n = got.rows[0][0].as_i64().unwrap();
    assert_eq!(n, want.rows[0][0].as_i64().unwrap() + 1);
    assert_eq!(engine.txn_counters(), vec![1, 1, 1]);
}

/// Satellite: a node that exhausts the SVP retry budget mid-query is
/// worked around (correct answer from the survivors), then taken out of
/// rotation by a failing write — and the recovery log's rejoin path brings
/// it back consistent, after which SVP dispatches to it again.
#[test]
fn retry_exhaustion_then_rejoin_restores_the_node_consistently() {
    let data = dataset();
    let (engine, _, faulties) = faulty_cluster(&data, 3, ApuamaConfig::default());
    // A controller over the engine's connections shares its health
    // tracker (quarantine fences SVP) and drives its update gate through
    // the rejoin hooks.
    let controller = Arc::new(Controller::new(
        engine.connections(),
        ControllerConfig {
            disable_failed_backends: true,
            recovery: RecoveryConfig {
                // Pass-through (nation is not virtually partitioned), so
                // the probe really targets the one recovering node.
                probe_sql: Some("select n_nationkey from nation limit 1".into()),
                ..RecoveryConfig::default()
            },
            ..ControllerConfig::default()
        },
    ));
    let base = data.config.orders() as i64;

    // Node 1 dies outright. An SVP read exhausts its retries against it,
    // reassigns the orphaned range, and still answers correctly.
    faulties[1].set_plan(FaultPlan::fail_all());
    let (out, _) = controller
        .execute("select count(*) as n from orders")
        .unwrap();
    assert_eq!(out.rows[0][0].as_i64().unwrap(), base);
    assert!(faulties[1].injected_errors() > 0, "node 1 was never tried");

    // The write burst disables node 1 at its first statement; the rest of
    // the burst reaches only the survivors, tracked by the recovery log.
    for k in 0..10 {
        controller
            .execute(&format!(
                "insert into orders values ({}, 1, 'O', 1.0, \
                 date '1997-01-01', '5-LOW', 'c', 0, 'w')",
                base + 1 + k
            ))
            .unwrap();
    }
    assert_eq!(controller.enabled_backends(), vec![0, 2]);
    assert!(engine.health().is_quarantined(1));
    let (out, _) = controller
        .execute("select count(*) as n from orders")
        .unwrap();
    assert_eq!(out.rows[0][0].as_i64().unwrap(), base + 10);

    // Heal and rejoin: the missed burst replays, the probe passes, and
    // every layer converges.
    faulties[1].heal();
    let outcome = controller.rejoin_backend(1).unwrap();
    assert_eq!(outcome.live_replayed + outcome.pause_replayed, 10);
    assert!(outcome.probed && !outcome.recloned);
    assert_eq!(controller.enabled_backends(), vec![0, 1, 2]);
    assert!(!engine.health().is_quarantined(1));
    assert_eq!(engine.txn_counters(), vec![10, 10, 10]);
    let wc = controller.write_counters();
    assert!(wc.iter().all(|&w| w == wc[0]), "log positions diverged");

    // SVP fans out over the rejoined node again and stays correct.
    let calls_before = faulties[1].calls();
    let (out, _) = controller
        .execute("select count(*) as n from orders")
        .unwrap();
    assert_eq!(out.rows[0][0].as_i64().unwrap(), base + 10);
    assert!(faulties[1].calls() > calls_before, "node 1 left out of SVP");
}

/// Stalls (not errors) on one node: the per-sub-query timeout detects the
/// hang and reassignment produces the healthy answer.
#[test]
fn stalling_node_is_timed_out_and_worked_around() {
    let data = dataset();
    let config = ApuamaConfig {
        fault: FaultPolicy {
            subquery_timeout_ms: Some(40),
            max_retries: 0,
            ..FaultPolicy::default()
        },
        ..ApuamaConfig::default()
    };
    let (reference, _, _) = faulty_cluster(&data, 3, ApuamaConfig::default());
    let (engine, _, faulties) = faulty_cluster(&data, 3, config);
    faulties[0].set_plan(FaultPlan {
        stall_every: 1,
        stall: std::time::Duration::from_millis(400),
        only_matching: Some("from orders".into()),
        ..FaultPlan::default()
    });
    const SQL: &str = "select count(*) as n, avg(o_totalprice) as a from orders";
    let want = reference.read(0, &ReadRequest::text(SQL)).unwrap();
    let got = engine
        .read(0, &ReadRequest::text(SQL))
        .expect("timed-out range reassigned");
    assert_eq!(got.rows, want.rows);
    assert!(faulties[0].injected_stalls() > 0);
}

/// Paper §3–4: every SVP sub-query runs after one converged prefix, a
/// requeued one included. Node 2 fails its range after a delay; an insert
/// into that range arrives once the gate has released. The range is rerun
/// on a survivor under the ticket it took before the release, so the answer
/// is the count from before the insert — and the next query counts it.
#[test]
fn a_requeued_range_sees_its_siblings_prefix() {
    let data = dataset();
    let config = ApuamaConfig {
        fault: FaultPolicy {
            max_retries: 0,
            ..FaultPolicy::default()
        },
        ..ApuamaConfig::default()
    };
    let (_engine, controller, faulties) = faulty_cluster(&data, 3, config);
    faulties[2].set_plan(FaultPlan {
        delay: std::time::Duration::from_millis(150),
        only_matching: Some("from orders".into()),
        ..fail_reads()
    });
    let base_orders = data.config.orders() as i64;

    let counted = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (out, _) = controller
                .execute("select count(*) as n from orders")
                .unwrap();
            out.rows[0][0].as_i64().unwrap()
        });
        let start = std::time::Instant::now();
        while faulties[2].matching_calls() < 1 {
            assert!(start.elapsed().as_secs() < 10, "range 2 never sent");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Node 2's range is dispatched, so the gate has released; this
        // order's key lies in node 2's (last, unbounded) range.
        controller
            .execute(&format!(
                "insert into orders values ({}, 1, 'O', 1.0, \
                 date '1997-01-01', '5-LOW', 'c', 0, 'p')",
                base_orders + 1
            ))
            .unwrap();
        reader.join().unwrap()
    });
    assert_eq!(
        counted, base_orders,
        "the requeued range saw a later prefix"
    );
    faulties[2].heal();
    let (out, _) = controller
        .execute("select count(*) as n from orders")
        .unwrap();
    assert_eq!(out.rows[0][0].as_i64().unwrap(), base_orders + 1);
}

/// An SVP query whose sub-queries fail a type check, as they do on every
/// replica.
const TYPE_ERROR_SVP: &str = "select count(*) as n from orders where o_comment + 1 > 0";

fn assert_no_strikes(health: &apuama_cjdbc::HealthTracker, nodes: usize) {
    for i in 0..nodes {
        assert_eq!(health.failures(i), 0, "node {i} was charged");
        assert_eq!(health.state(i), CircuitState::Closed, "node {i}");
    }
}

/// DESIGN.md §8: only a node's fault counts against it. A statement error
/// in the sub-queries is the statement's: each range runs once — no retry,
/// no requeue — the error comes back as it is, and no circuit opens, however
/// often the query is sent.
#[test]
fn statement_error_in_svp_subqueries_strikes_no_breaker() {
    let data = dataset();
    let (engine, _, faulties) = faulty_cluster(&data, 3, ApuamaConfig::default());
    for run in 1..=2 {
        let err = engine
            .read(0, &ReadRequest::text(TYPE_ERROR_SVP))
            .unwrap_err();
        assert!(matches!(err, EngineError::TypeError(_)), "{err:?}");
        let calls: u64 = faulties.iter().map(|f| f.calls()).sum();
        assert!(calls <= 3 * run, "{calls} sub-queries for {run} × 3 ranges");
    }
    assert_no_strikes(engine.health(), 3);
    // The healthy answer is still one query away.
    let out = engine
        .read(0, &ReadRequest::text("select count(*) as n from orders"))
        .unwrap();
    assert_eq!(
        out.rows[0][0].as_i64().unwrap(),
        data.config.orders() as i64
    );
}

/// The controller charges a backend with the same rule: two failed SVP
/// queries and a malformed pass-through read leave every circuit closed.
#[test]
fn statement_error_in_a_pass_through_read_strikes_no_breaker() {
    let data = dataset();
    let (_engine, controller, _) = faulty_cluster(&data, 3, ApuamaConfig::default());
    for _ in 0..2 {
        let err = controller.execute(TYPE_ERROR_SVP).unwrap_err();
        assert!(matches!(err, EngineError::TypeError(_)), "{err:?}");
    }
    let err = controller
        .execute("select n_name + 1 from nation")
        .unwrap_err();
    assert!(matches!(err, EngineError::TypeError(_)), "{err:?}");
    assert_no_strikes(&controller.health(), 3);
    assert_eq!(controller.enabled_backends(), vec![0, 1, 2]);
}

/// Under `disable_failed_backends`, a write every replica refuses disables
/// none of them: the client gets the constraint error and the cluster
/// keeps serving reads and writes on every backend.
#[test]
fn statement_error_in_a_write_disables_no_backend() {
    let data = dataset();
    let (engine, _, _) = faulty_cluster(&data, 3, ApuamaConfig::default());
    let controller = Controller::new(
        engine.connections(),
        ControllerConfig {
            disable_failed_backends: true,
            ..ControllerConfig::default()
        },
    );
    let err = controller
        .execute("insert into orders values (1)")
        .unwrap_err();
    assert!(matches!(err, EngineError::Constraint(_)), "{err:?}");
    assert_eq!(controller.enabled_backends(), vec![0, 1, 2]);
    assert_no_strikes(&controller.health(), 3);
    let base = data.config.orders() as i64;
    controller
        .execute(&format!(
            "insert into orders values ({}, 1, 'O', 1.0, \
             date '1997-01-01', '5-LOW', 'c', 0, 's')",
            base + 1
        ))
        .unwrap();
    let (out, _) = controller
        .execute("select count(*) as n from orders")
        .unwrap();
    assert_eq!(out.rows[0][0].as_i64().unwrap(), base + 1);
    // Every backend applied the good write; the refused one's sequence
    // number is a gap in the log.
    assert_eq!(controller.write_counters(), vec![2, 2, 2]);
}
