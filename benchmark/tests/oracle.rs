//! The oracle must count what it is there to catch: a wrong answer, a
//! dropped row, a statement that errors or is shed, a diverged replica.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use apuama_benchmark::cluster::{Cluster, SMOKE_SCALE_FACTOR};
use apuama_benchmark::inputs;
use apuama_benchmark::oracle::{check_convergence, compare_rows, Tally};
use apuama_cjdbc::{AdmissionPolicy, Connection, Controller, ControllerConfig};
use apuama_engine::{EngineResult, QueryOutput};
use apuama_sql::Value;

fn row(key: i64, price: f64, flag: &str) -> Vec<Value> {
    vec![
        Value::Int(key),
        Value::Float(price),
        Value::Str(flag.into()),
    ]
}

#[test]
fn comparator_flags_a_wrong_answer_and_a_dropped_row() {
    let reference = vec![row(1, 100.0, "A"), row(2, 250.5, "N"), row(3, 7.25, "R")];
    assert_eq!(compare_rows(&reference, &reference, true), Ok(()));

    let mut wrong = reference.clone();
    wrong[1][1] = Value::Float(250.6);
    let e = compare_rows(&reference, &wrong, true).unwrap_err();
    assert!(e.contains("row 1 column 1"), "{e}");

    let mut wrong_text = reference.clone();
    wrong_text[2][2] = Value::Str("N".into());
    assert!(compare_rows(&reference, &wrong_text, true).is_err());

    let dropped = &reference[..2];
    let e = compare_rows(&reference, dropped, true).unwrap_err();
    assert!(e.contains("expected 3 rows, got 2"), "{e}");
}

#[test]
fn floats_compare_within_relative_tolerance_only() {
    let reference = vec![row(1, 1.0e9, "A")];
    // SVP re-associates sums: the last bits differ, the answer does not.
    assert_eq!(
        compare_rows(&reference, &[row(1, 1.0e9 + 10.0, "A")], true),
        Ok(())
    );
    assert!(compare_rows(&reference, &[row(1, 1.0e9 + 10_000.0, "A")], true).is_err());
    // An integer where the reference has a float of the same value is fine;
    // a NULL is not.
    let as_int = vec![vec![
        Value::Int(1),
        Value::Int(1_000_000_000),
        Value::Str("A".into()),
    ]];
    assert_eq!(compare_rows(&reference, &as_int, true), Ok(()));
    let null = vec![vec![Value::Int(1), Value::Null, Value::Str("A".into())]];
    assert!(compare_rows(&reference, &null, true).is_err());
}

#[test]
fn row_order_counts_only_for_order_by_queries() {
    let reference = vec![row(1, 1.0, "A"), row(2, 2.0, "B")];
    let swapped = vec![row(2, 2.0, "B"), row(1, 1.0, "A")];
    assert!(compare_rows(&reference, &swapped, true).is_err());
    assert_eq!(compare_rows(&reference, &swapped, false), Ok(()));
    // Unordered comparison still sees a wrong value.
    let wrong = vec![row(2, 2.0, "B"), row(1, 1.5, "A")];
    assert!(compare_rows(&reference, &wrong, false).is_err());
}

/// A backend whose reads block until the test lets them go, so a second
/// read provably arrives while the first holds the only admission slot.
struct Gated {
    entered: mpsc::SyncSender<()>,
    release: std::sync::Mutex<mpsc::Receiver<()>>,
}

impl Connection for Gated {
    fn execute(&self, _sql: &str) -> EngineResult<QueryOutput> {
        self.entered.send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        Ok(QueryOutput::default())
    }

    fn name(&self) -> &str {
        "gated"
    }
}

#[test]
fn errors_and_shed_statements_count_as_failed() {
    let (entered_tx, entered_rx) = mpsc::sync_channel(1);
    let (release_tx, release_rx) = mpsc::channel();
    let controller = Controller::new(
        vec![Arc::new(Gated {
            entered: entered_tx,
            release: std::sync::Mutex::new(release_rx),
        })],
        ControllerConfig {
            admission: AdmissionPolicy {
                max_olap: 1,
                queue_depth: 0,
                queue_timeout: Duration::from_millis(1),
                ..AdmissionPolicy::default()
            },
            ..ControllerConfig::default()
        },
    );
    let sql = inputs::point_read_sql(1);
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let first = s.spawn(|| {
            let mut t = Tally::default();
            t.record(&sql, controller.execute(&sql));
            t
        });
        // The first read is inside the backend: the slot is taken and the
        // queue holds nobody, so this one is shed.
        entered_rx.recv().unwrap();
        assert!(tally.record(&sql, controller.execute(&sql)).is_none());
        release_tx.send(()).unwrap();
        tally.merge(first.join().unwrap());
    });
    assert_eq!(controller.governance_counts().shed, 1);
    // A statement the controller rejects outright is an error too.
    assert!(tally
        .record("not sql", controller.execute("not sql"))
        .is_none());
    assert_eq!((tally.attempted, tally.failed), (3, 2));
    assert!(tally.reasons[0].contains("shed"), "{:?}", tally.reasons);

    // And a mismatch is counted against a statement that did return.
    tally.attempt();
    tally.check(
        "Q6",
        compare_rows(&[row(1, 1.0, "A")], &[row(1, 2.0, "A")], false),
    );
    assert_eq!((tally.attempted, tally.failed), (4, 3));
}

#[test]
fn convergence_check_catches_an_extra_row_and_a_lone_write() {
    let cluster = Cluster::build(SMOKE_SCALE_FACTOR);
    assert!(check_convergence(&cluster.engine, &cluster.nodes, cluster.baseline).is_empty());

    // One replica is given a row the others never see.
    let extra = cluster.tpch.orders() + 77;
    cluster.nodes[2].with_db_mut(|db| {
        db.execute(&format!(
            "insert into orders values ({extra}, 1, 'O', 1.0, date '1998-01-01', \
             '1-URGENT', 'Clerk#000000001', 0, 'stray')"
        ))
        .unwrap();
    });
    let problems = check_convergence(&cluster.engine, &cluster.nodes, cluster.baseline);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("node-2"), "{problems:?}");

    // Taking it out again restores the baseline...
    cluster.nodes[2].with_db_mut(|db| {
        db.execute(&format!("delete from orders where o_orderkey = {extra}"))
            .unwrap();
    });
    assert!(check_convergence(&cluster.engine, &cluster.nodes, cluster.baseline).is_empty());

    // ...but a write that reached one node only leaves the transaction
    // counters apart even when the row counts agree.
    cluster
        .engine
        .execute_write(1, "delete from orders where o_orderkey = -1")
        .unwrap();
    let problems = check_convergence(&cluster.engine, &cluster.nodes, cluster.baseline);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("counters diverged"), "{problems:?}");
}

#[test]
fn short_statement_references_come_from_the_generator() {
    let cluster = Cluster::build(SMOKE_SCALE_FACTOR);
    for key in [1, 150, cluster.tpch.customers() as i64] {
        let (out, _) = cluster
            .controller
            .execute(&inputs::point_read_sql(key))
            .unwrap();
        assert_eq!(
            compare_rows(&[cluster.expected_point_read(key)], &out.rows, true),
            Ok(())
        );
    }
    // Ranges that start, end and straddle an SVP partition boundary.
    let quarter = cluster.tpch.orders() as i64 / 4;
    for lo in [1, quarter - 63, quarter - 10, quarter + 1, 3 * quarter - 20] {
        let (out, _) = cluster
            .controller
            .execute(&inputs::short_aggregate_sql(lo))
            .unwrap();
        assert_eq!(
            compare_rows(&[cluster.expected_short_aggregate(lo)], &out.rows, true),
            Ok(()),
            "range from {lo}"
        );
    }
}
