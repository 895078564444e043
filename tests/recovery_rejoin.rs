//! Recovery-log and rejoin integration tests: a node killed mid-workload
//! must catch up from the controller's recovery log, re-enter read
//! rotation and SVP dispatch, and afterwards serve answers byte-identical
//! to a cluster that never failed. Retention expiry degrades rejoin to a
//! full re-clone; the log's memory stays bounded while a node is down; and
//! a property test sweeps random fail/burst/rejoin schedules.

use std::sync::Arc;
use std::time::Duration;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog};
use apuama_cjdbc::{
    engine_node_clone_fn, Connection, Controller, ControllerConfig, EngineNode, FaultPlan,
    FaultyConnection, NodeConnection, RecoveryConfig, RejoinState,
};
use apuama_engine::{Database, ReadRequest};
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, TpchData};
use proptest::prelude::*;

fn dataset() -> TpchData {
    generate(TpchConfig {
        scale_factor: 0.001,
        seed: 19,
    })
}

/// A probe the SVP rewriter passes through (nation is not in the virtual
/// partitioning catalog), so the controller really does probe the one
/// recovering node instead of fanning out.
const PROBE: &str = "select n_nationkey from nation order by n_nationkey limit 1";

/// The full Apuama stack over fault-injectable TPC-H replicas, built as the
/// README builds it: the controller over the engine's connections shares
/// its health tracker (quarantine fences SVP dispatch) and fires its
/// rejoin hooks (the update gate follows disable and rejoin), and the
/// recovery config gets this cluster's probe and re-clone path filled in.
type ApuamaHarness = (
    Arc<ApuamaEngine>,
    Arc<Controller>,
    Vec<Arc<FaultyConnection>>,
    Vec<Arc<EngineNode>>,
);

fn apuama_cluster(data: &TpchData, nodes: usize, mut recovery: RecoveryConfig) -> ApuamaHarness {
    let mut engine_nodes = Vec::new();
    let mut faulties = Vec::new();
    let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
    for i in 0..nodes {
        let mut db = Database::in_memory();
        load_into(&mut db, data).expect("replica loads");
        let node = EngineNode::new(format!("node-{i}"), db);
        let faulty = FaultyConnection::new(
            Arc::new(NodeConnection::new(node.clone())),
            FaultPlan::default(),
        );
        conns.push(faulty.clone() as Arc<dyn Connection>);
        faulties.push(faulty);
        engine_nodes.push(node);
    }
    let orders = data.config.orders() as i64;
    let engine = ApuamaEngine::new(conns, DataCatalog::tpch(orders), ApuamaConfig::default());
    recovery.probe_sql = Some(PROBE.into());
    recovery.clone_via = Some(engine_node_clone_fn(engine_nodes.clone()));
    let controller = Arc::new(Controller::new(
        engine.connections(),
        ControllerConfig {
            disable_failed_backends: true,
            recovery,
            ..ControllerConfig::default()
        },
    ));
    (engine, controller, faulties, engine_nodes)
}

fn insert_order(base: i64, k: i64) -> String {
    format!(
        "insert into orders values ({}, 1, 'O', 1.0, date '1996-01-01', '3-MEDIUM', 'c', 0, 'r')",
        base + 1 + k
    )
}

/// Acceptance criterion: a node killed mid-workload is caught up from the
/// recovery log, re-enters read rotation and SVP dispatch, and every
/// post-rejoin evaluation query is byte-identical to a never-failed
/// cluster's answer.
#[test]
fn killed_node_catches_up_from_the_log_and_rejoins_rotation() {
    let data = dataset();
    let (reference, ref_controller, _, _) = apuama_cluster(&data, 3, RecoveryConfig::default());
    let (engine, controller, faulties, _) = apuama_cluster(&data, 3, RecoveryConfig::default());
    let base = data.config.orders() as i64;

    // Healthy prefix: both clusters apply the first five writes everywhere.
    for k in 0..5 {
        controller.execute(&insert_order(base, k)).unwrap();
        ref_controller.execute(&insert_order(base, k)).unwrap();
    }

    // Node 1 dies mid-workload; the next write disables it and the rest of
    // the burst lands only on the survivors (the reference cluster still
    // applies everything everywhere).
    faulties[1].set_plan(FaultPlan::fail_all());
    for k in 5..20 {
        controller.execute(&insert_order(base, k)).unwrap();
        ref_controller.execute(&insert_order(base, k)).unwrap();
    }
    assert_eq!(controller.enabled_backends(), vec![0, 2]);
    assert_eq!(controller.backend_state(1), RejoinState::Disabled);
    assert!(
        engine.health().is_quarantined(1),
        "SVP dispatch must route around the disabled node"
    );

    // Degraded but correct: every eval query still matches the reference.
    let params = QueryParams::default();
    for q in apuama_tpch::ALL_QUERIES {
        let sql = q.sql(&params);
        let want = reference
            .read(0, &ReadRequest::text(&sql))
            .expect("reference run");
        let got = engine
            .read(0, &ReadRequest::text(&sql))
            .expect("degraded run");
        assert_eq!(
            got.rows,
            want.rows,
            "{}: degraded answer diverged",
            q.label()
        );
    }

    // Heal and rejoin: the 15 missed writes replay from the log.
    faulties[1].heal();
    let out = controller.rejoin_backend(1).unwrap();
    assert_eq!(out.live_replayed + out.pause_replayed, 15);
    assert!(out.probed, "the health probe must have run");
    assert!(!out.recloned, "the log held the suffix: no re-clone");

    // Every layer agrees the node is back.
    assert_eq!(controller.enabled_backends(), vec![0, 1, 2]);
    assert!(!engine.health().is_quarantined(1));
    let wc = controller.write_counters();
    assert_eq!(wc, vec![20, 20, 20], "write counters converge");
    assert!(engine.gate().is_converged(), "update gate sees convergence");

    // Post-rejoin answers are byte-identical to the never-failed cluster.
    for q in apuama_tpch::ALL_QUERIES {
        let sql = q.sql(&params);
        let want = reference
            .read(0, &ReadRequest::text(&sql))
            .expect("reference run");
        let got = engine
            .read(0, &ReadRequest::text(&sql))
            .expect("rejoined run");
        assert_eq!(
            got.rows,
            want.rows,
            "{}: post-rejoin answer diverged",
            q.label()
        );
    }

    // Node 1 is back in SVP dispatch: an eligible query reaches it again.
    let calls_before = faulties[1].calls();
    engine
        .read(0, &ReadRequest::text("select count(*) as n from orders"))
        .unwrap();
    assert!(
        faulties[1].calls() > calls_before,
        "the rejoined node received no SVP sub-query"
    );

    // And back in read rotation: pass-through reads reach it through the
    // controller again (the probe/read is not SVP-eligible, so it is
    // served by exactly one backend). Least-pending sends an idle read to
    // backend 0, so one read is held there while a second is routed: with
    // node 1 enabled, the fewest pending requests are on node 1.
    faulties[0].set_plan(FaultPlan {
        delay: Duration::from_millis(300),
        only_matching: Some("from nation".into()),
        ..FaultPlan::default()
    });
    let served_before = controller.reads_served()[1];
    let served_by = std::thread::scope(|s| {
        let held = s.spawn(|| controller.execute(PROBE).unwrap().1);
        let start = std::time::Instant::now();
        while controller.pending_counts()[0] == 0 {
            assert!(
                start.elapsed().as_secs() < 10,
                "the held read never reached node 0"
            );
            std::thread::yield_now();
        }
        let (_, served_by) = controller.execute(PROBE).unwrap();
        assert_eq!(held.join().unwrap(), 0);
        served_by
    });
    faulties[0].heal();
    assert_eq!(served_by, 1, "the rejoined node served no reads");
    assert!(
        controller.reads_served()[1] > served_before,
        "the rejoined node served no reads"
    );
}

/// Satellite: a bare `enable_backend` must refuse a stale replica — the
/// operator either catches it up (`rejoin_backend`) or explicitly accepts
/// staleness (`force_enable_backend`).
#[test]
fn bare_enable_refuses_a_stale_replica_but_force_overrides() {
    let data = dataset();
    let (_, controller, faulties, _) = apuama_cluster(&data, 3, RecoveryConfig::default());
    let base = data.config.orders() as i64;
    faulties[2].set_plan(FaultPlan::fail_all());
    controller.execute(&insert_order(base, 0)).unwrap();
    assert_eq!(controller.backend_state(2), RejoinState::Disabled);
    faulties[2].heal();

    let err = controller.enable_backend(2).unwrap_err().to_string();
    assert!(
        err.contains("rejoin_backend"),
        "the refusal must point at the recovery path: {err}"
    );
    assert_eq!(controller.enabled_backends(), vec![0, 1]);

    controller.force_enable_backend(2);
    assert_eq!(controller.enabled_backends(), vec![0, 1, 2]);
    assert_eq!(
        controller.write_counters()[2],
        controller.write_counters()[0],
        "force marks the replica consistent in the log (staleness accepted)"
    );
}

/// When the disabled node's retention deadline expires, checkpointing
/// reclaims its suffix and rejoin degrades to a full re-clone from a
/// healthy peer — which must still leave every replica byte-identical.
#[test]
fn expired_retention_degrades_rejoin_to_a_full_reclone() {
    let data = dataset();
    let recovery = RecoveryConfig {
        retention: Duration::ZERO,
        ..RecoveryConfig::default()
    };
    let (engine, controller, faulties, nodes) = apuama_cluster(&data, 3, recovery);
    let base = data.config.orders() as i64;

    faulties[1].set_plan(FaultPlan::fail_all());
    for k in 0..10 {
        controller.execute(&insert_order(base, k)).unwrap();
    }
    // The deadline (ZERO) has passed; the next write's checkpoint reclaims
    // everything node 1 would have needed.
    std::thread::sleep(Duration::from_millis(5));
    controller.execute(&insert_order(base, 10)).unwrap();
    assert!(
        !controller.recovery_log().has_suffix_for(1),
        "truncation must have outrun the disabled backend"
    );

    faulties[1].heal();
    let out = controller.rejoin_backend(1).unwrap();
    assert!(out.recloned, "replay was impossible: must have re-cloned");
    assert!(out.probed);
    let wc = controller.write_counters();
    assert_eq!(wc, vec![11, 11, 11]);
    assert_eq!(controller.enabled_backends(), vec![0, 1, 2]);

    // The fork preserved heap order: replicas agree byte-for-byte, and the
    // engine serves SVP answers over the re-cloned node again.
    let reference = nodes[0].with_db(|db| {
        db.query("select o_orderkey, o_totalprice from orders order by o_orderkey")
            .unwrap()
            .rows
    });
    for node in &nodes[1..] {
        let rows = node.with_db(|db| {
            db.query("select o_orderkey, o_totalprice from orders order by o_orderkey")
                .unwrap()
                .rows
        });
        assert_eq!(rows, reference);
    }
    let out = engine
        .read(0, &ReadRequest::text("select count(*) as n from orders"))
        .unwrap();
    assert_eq!(out.rows[0][0].as_i64().unwrap(), base + 11);
}

/// A plain (no interposing engine) controller over small fault-injectable
/// replicas — cheap enough for soak and property tests. The recovery
/// config's re-clone path is wired to the cluster's own nodes.
fn plain_cluster(
    n: usize,
    mut recovery: RecoveryConfig,
) -> (
    Arc<Controller>,
    Vec<Arc<FaultyConnection>>,
    Vec<Arc<EngineNode>>,
) {
    let mut nodes = Vec::new();
    let mut faulties = Vec::new();
    let mut conns: Vec<Arc<dyn Connection>> = Vec::new();
    for i in 0..n {
        let mut db = Database::in_memory();
        db.execute("create table t (a int)").unwrap();
        let node = EngineNode::new(format!("n{i}"), db);
        let faulty = FaultyConnection::new(
            Arc::new(NodeConnection::new(node.clone())),
            FaultPlan::default(),
        );
        conns.push(faulty.clone() as Arc<dyn Connection>);
        faulties.push(faulty);
        nodes.push(node);
    }
    recovery.clone_via = Some(engine_node_clone_fn(nodes.clone()));
    let controller = Arc::new(Controller::new(
        conns,
        ControllerConfig {
            disable_failed_backends: true,
            recovery,
            ..ControllerConfig::default()
        },
    ));
    (controller, faulties, nodes)
}

/// Soak: with one backend down past its retention deadline, a long write
/// burst must not grow the log without bound — checkpointing truncates it
/// back under the cap — and the backend still rejoins (by re-clone) with
/// byte-identical contents.
#[test]
fn soak_log_memory_stays_bounded_while_a_backend_is_down() {
    let recovery = RecoveryConfig {
        max_entries: 64,
        retention: Duration::from_millis(20),
        ..RecoveryConfig::default()
    };
    let (controller, faulties, nodes) = plain_cluster(3, recovery);
    let log = controller.recovery_log();

    faulties[1].set_plan(FaultPlan::fail_all());
    controller.execute("insert into t values (0)").unwrap();
    assert_eq!(controller.backend_state(1), RejoinState::Disabled);
    // Let the retention deadline lapse, then pour writes through.
    std::thread::sleep(Duration::from_millis(25));
    for i in 1..=400 {
        controller
            .execute(&format!("insert into t values ({i})"))
            .unwrap();
        assert!(
            log.len() <= 64,
            "log grew past the cap after the deadline lapsed: {} entries at write {i}",
            log.len()
        );
    }
    assert!(
        log.truncated_total() >= 300,
        "checkpointing barely ran: {} truncated",
        log.truncated_total()
    );

    faulties[1].heal();
    let out = controller.rejoin_backend(1).unwrap();
    assert!(out.recloned, "the suffix was truncated: rejoin re-clones");
    let reference = nodes[0].with_db(|db| db.query("select a from t order by a").unwrap().rows);
    assert_eq!(reference.len(), 401);
    for node in &nodes[1..] {
        let rows = node.with_db(|db| db.query("select a from t order by a").unwrap().rows);
        assert_eq!(rows, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any healthy prefix, victim node, and missed write
    /// burst, fail → burst → heal → rejoin leaves the per-backend write
    /// counters converged and the replica contents byte-identical.
    #[test]
    fn prop_fail_burst_rejoin_converges_counters_and_replicas(
        n in 2usize..5,
        victim_pick in 0usize..64,
        prefix in 0i64..8,
        burst in 1i64..25,
    ) {
        let (controller, faulties, nodes) = plain_cluster(n, RecoveryConfig::default());
        let victim = victim_pick % n;
        for k in 0..prefix {
            controller.execute(&format!("insert into t values ({k})")).unwrap();
        }
        faulties[victim].set_plan(FaultPlan::fail_all());
        for k in prefix..prefix + burst {
            controller.execute(&format!("insert into t values ({k})")).unwrap();
        }
        prop_assert_eq!(controller.backend_state(victim), RejoinState::Disabled);
        faulties[victim].heal();
        let out = controller.rejoin_backend(victim).unwrap();
        prop_assert_eq!((out.live_replayed + out.pause_replayed) as i64, burst);

        let wc = controller.write_counters();
        prop_assert!(
            wc.iter().all(|&w| w == wc[0]),
            "write counters diverged after rejoin: {:?}", wc
        );
        prop_assert_eq!(controller.enabled_backends().len(), n);
        let reference =
            nodes[0].with_db(|db| db.query("select a from t order by a").unwrap().rows);
        prop_assert_eq!(reference.len() as i64, prefix + burst);
        for node in &nodes[1..] {
            let rows = node.with_db(|db| db.query("select a from t order by a").unwrap().rows);
            prop_assert_eq!(&rows, &reference);
        }
    }
}
