//! The morsel tier is one host-wide resource (DESIGN.md §12): however many
//! databases a process holds and whatever `parallel_workers` says, the
//! process keeps at most one `apuama-worker` thread per core, and
//! statements on different replicas and on a fork queue their morsels on
//! that one pool without changing an answer.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog};
use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::Database;
use apuama_sql::Value;
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, TpchData, ALL_QUERIES};

/// Long enough for a debug build on a loaded host; a pool that deadlocks
/// fails here instead of hanging the suite.
const DEADLINE: Duration = Duration::from_secs(180);

/// The `apuama-worker` threads of this process.
#[cfg(target_os = "linux")]
fn morsel_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("listing this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("apuama-worker"))
        .count()
}

/// Every eval query's rows on `db`.
fn answers(db: &Database, params: &QueryParams) -> Vec<Vec<Vec<Value>>> {
    (ALL_QUERIES.iter())
        .map(|q| {
            let sql = q.sql(params);
            db.query(&sql)
                .unwrap_or_else(|e| panic!("{}: {e}", q.label()))
                .rows
        })
        .collect()
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

fn four_replicas_share_one_pool(data: &TpchData) {
    let params = QueryParams::default();
    let mut reference = Database::in_memory();
    load_into(&mut reference, data).unwrap();
    reference.query("set parallel_workers = 1").unwrap();
    let want = answers(&reference, &params);

    let nodes: Vec<Arc<EngineNode>> = (0..4)
        .map(|i| {
            let mut db = Database::in_memory();
            load_into(&mut db, data).expect("replica loads");
            EngineNode::new(format!("node-{i}"), db)
        })
        .collect();
    let connections = (nodes.iter())
        .map(|n| Arc::new(NodeConnection::new(n.clone())) as Arc<dyn Connection>)
        .collect();
    let engine = ApuamaEngine::new(
        connections,
        DataCatalog::tpch(data.config.orders() as i64),
        ApuamaConfig::default(),
    );
    let controller = Controller::new(engine.connections(), ControllerConfig::default());
    controller.execute("set parallel_workers = 3").unwrap();
    for (q, want) in ALL_QUERIES.iter().zip(&want) {
        let (got, _) = controller.execute(&q.sql(&params)).unwrap();
        rows_approx_equal(&got.rows, want, &q.label());
    }

    // Two streams on different replicas and a fork's stream, at once: each
    // answers what one worker answers (merging morsel partials reassociates
    // float sums, so those agree to 1e-6, as across the cluster).
    std::thread::scope(|s| {
        let streams = [
            s.spawn(|| nodes[0].with_db(|db| answers(db, &params))),
            s.spawn(|| nodes[1].with_db(|db| answers(db, &params))),
            s.spawn(|| {
                let fork = nodes[2].with_db(|db| db.fork()).unwrap();
                fork.query("set parallel_workers = 3").unwrap();
                answers(&fork, &params)
            }),
        ];
        for (i, stream) in streams.into_iter().enumerate() {
            let got = stream.join().unwrap();
            for ((q, got), want) in ALL_QUERIES.iter().zip(&got).zip(&want) {
                rows_approx_equal(got, want, &format!("stream {i}, {}", q.label()));
            }
        }
    });

    #[cfg(target_os = "linux")]
    {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = morsel_threads();
        assert!(
            threads >= 1,
            "the fused queries ran without the morsel tier"
        );
        assert!(
            threads <= cores,
            "{threads} morsel threads on {cores} cores: a pool per database again"
        );
    }
}

#[test]
fn four_replicas_and_a_fork_share_one_morsel_pool_of_at_most_one_thread_per_core() {
    let data = generate(TpchConfig {
        scale_factor: 0.002,
        seed: 13,
    });
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        four_replicas_share_one_pool(&data);
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the check failed; see its panic above")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no answer in {DEADLINE:?}: the pool deadlocked")
        }
    }
}
