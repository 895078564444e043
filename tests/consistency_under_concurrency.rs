//! Concurrency torture tests for the replica-consistency protocol: OLAP
//! queries must see converged snapshots while refresh transactions hammer
//! the cluster from multiple angles.

use std::sync::Arc;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog};
use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::{Database, ReadRequest};
use apuama_tpch::{generate, load_into, TpchConfig};

fn cluster(nodes: usize) -> (Arc<ApuamaEngine>, Arc<Controller>, i64) {
    let (engine, controller, orders, _) = cluster_with_nodes(nodes);
    (engine, controller, orders)
}

/// The cluster with its replicas, for a look inside them afterwards.
fn cluster_with_nodes(
    nodes: usize,
) -> (
    Arc<ApuamaEngine>,
    Arc<Controller>,
    i64,
    Vec<Arc<EngineNode>>,
) {
    let data = generate(TpchConfig {
        scale_factor: 0.001,
        seed: 17,
    });
    let replicas: Vec<Arc<EngineNode>> = (0..nodes)
        .map(|i| {
            let mut db = Database::in_memory();
            load_into(&mut db, &data).expect("replica loads");
            EngineNode::new(format!("node-{i}"), db)
        })
        .collect();
    let conns: Vec<Arc<dyn Connection>> = (replicas.iter())
        .map(|node| Arc::new(NodeConnection::new(Arc::clone(node))) as Arc<dyn Connection>)
        .collect();
    let orders = data.config.orders() as i64;
    let engine = ApuamaEngine::new(conns, DataCatalog::tpch(orders), ApuamaConfig::default());
    let controller = Arc::new(Controller::new(
        engine.connections(),
        ControllerConfig::default(),
    ));
    (engine, controller, orders, replicas)
}

/// The cluster as the README builds it keeps serving after an operator
/// takes a backend out. The controller over the engine's connections
/// shares the engine's breaker, and its rejoin hooks take the node out of
/// the update gate; without them the gate waits forever for the disabled
/// node to complete the first broadcast.
#[test]
fn the_readme_cluster_keeps_serving_after_disable_backend() {
    let (engine, controller, base_orders) = cluster(3);
    let (tx, rx) = std::sync::mpsc::channel();
    // Not scoped: a hung client must fail the test, not block it.
    let client = {
        let controller = Arc::clone(&controller);
        std::thread::spawn(move || {
            controller.disable_backend(1);
            for k in 1..=3 {
                controller
                    .execute(&format!(
                        "insert into orders values ({}, 1, 'O', 1.0, \
                         date '1997-01-01', '5-LOW', 'c', 0, 'd')",
                        base_orders + k
                    ))
                    .unwrap();
            }
            let (out, _) = controller
                .execute("select count(*) as n from orders")
                .unwrap();
            let _ = tx.send(out.rows[0][0].as_i64());
        })
    };
    let counted = match rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(counted) => {
            client.join().expect("client thread");
            counted
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!(
                "the cluster hung after disable_backend (gate {:?})",
                engine.txn_counters()
            )
        }
        Err(e) => panic!("the client thread failed: {e}"),
    };
    assert_eq!(counted, Some(base_orders + 3));
    assert!(Arc::ptr_eq(&controller.health(), engine.health()));
}

#[test]
fn snapshot_counts_never_tear() {
    let (engine, controller, base_orders) = cluster(3);
    // Each inserted order comes with exactly 2 lineitems, so a consistent
    // snapshot always satisfies: lineitems_added = 2 × orders_added.
    let base_lineitems = {
        let (o, _) = controller
            .execute("select count(*) as n from lineitem")
            .unwrap();
        o.rows[0][0].as_i64().unwrap()
    };
    std::thread::scope(|s| {
        let writer = {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                for k in 0..30i64 {
                    let key = base_orders + 1 + k;
                    c.execute_write_transaction(&[
                        format!(
                            "insert into orders values ({key}, 1, 'O', 1.0, \
                             date '1997-01-01', '5-LOW', 'c', 0, 'x')"
                        ),
                        format!(
                            "insert into lineitem values ({key}, 1, 1, 1, 1.0, 1.0, 0.0, 0.0, \
                             'N', 'O', date '1997-02-01', date '1997-02-01', date '1997-02-02', \
                             'NONE', 'MAIL', 'x')"
                        ),
                        format!(
                            "insert into lineitem values ({key}, 1, 1, 2, 1.0, 1.0, 0.0, 0.0, \
                             'N', 'O', date '1997-02-01', date '1997-02-01', date '1997-02-02', \
                             'NONE', 'MAIL', 'x')"
                        ),
                    ])
                    .unwrap();
                }
            })
        };
        for _ in 0..2 {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                for _ in 0..10 {
                    // One SVP query returning both counts in one snapshot.
                    let (out, _) = c.execute("select count(*) as n from orders").unwrap();
                    let orders_now = out.rows[0][0].as_i64().unwrap();
                    let (out, _) = c.execute("select count(*) as n from lineitem").unwrap();
                    let lineitems_now = out.rows[0][0].as_i64().unwrap();
                    // Within each single snapshot the invariant holds; the
                    // two queries are separate snapshots, so lineitems can
                    // only have grown relative to the first query's state.
                    let orders_added = orders_now - base_orders;
                    let lineitems_added = lineitems_now - base_lineitems;
                    assert!(
                        lineitems_added >= 2 * orders_added - 2 * 30 && lineitems_added >= 0,
                        "torn counts: +{orders_added} orders, +{lineitems_added} lineitems"
                    );
                }
            });
        }
        writer.join().unwrap();
    });
    // Converged at the end.
    assert_eq!(engine.txn_counters(), vec![30, 30, 30]);
    let (o, _) = controller
        .execute("select count(*) as n from orders")
        .unwrap();
    assert_eq!(o.rows[0][0].as_i64().unwrap(), base_orders + 30);
}

#[test]
fn single_snapshot_join_invariant_holds_exactly() {
    // Stronger check: ONE SVP query that observes both tables must see the
    // 2-lineitems-per-new-order invariant exactly, never a torn state.
    let (_, controller, base_orders) = cluster(3);
    std::thread::scope(|s| {
        let writer = {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                for k in 0..20i64 {
                    let key = base_orders + 1 + k;
                    c.execute_write_transaction(&[
                        format!(
                            "insert into orders values ({key}, 1, 'O', 1.0, \
                             date '2005-01-01', '5-LOW', 'c', 0, 'probe')"
                        ),
                        format!(
                            "insert into lineitem values ({key}, 1, 1, 1, 1.0, 1.0, 0.0, 0.0, \
                             'N', 'O', date '2005-02-01', date '2005-02-01', date '2005-02-02', \
                             'NONE', 'MAIL', 'probe')"
                        ),
                        format!(
                            "insert into lineitem values ({key}, 1, 1, 2, 1.0, 1.0, 0.0, 0.0, \
                             'N', 'O', date '2005-02-01', date '2005-02-01', date '2005-02-02', \
                             'NONE', 'MAIL', 'probe')"
                        ),
                    ])
                    .unwrap();
                }
            })
        };
        let reader = {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                for _ in 0..12 {
                    // New orders are dated 2005+, disjoint from base data,
                    // so this join counts exactly the inserted pairs.
                    let (out, _) = c
                        .execute(
                            "select count(*) as pairs, count(l_orderkey) as li \
                             from orders, lineitem \
                             where l_orderkey = o_orderkey \
                               and o_orderdate >= date '2005-01-01'",
                        )
                        .unwrap();
                    let pairs = out.rows[0][0].as_i64().unwrap();
                    // Each new order joins to its 2 lineitems: pairs is
                    // always even in a consistent snapshot.
                    assert_eq!(pairs % 2, 0, "torn join snapshot: {pairs} pairs");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    });
}

#[test]
fn many_writers_one_svp_reader_no_deadlock() {
    let (engine, controller, base_orders) = cluster(4);
    std::thread::scope(|s| {
        // The C-JDBC scheduler serializes broadcasts; competing writer
        // threads exercise the ticket + gate interplay.
        for w in 0..3i64 {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                for k in 0..10i64 {
                    let key = base_orders + 1 + w * 100 + k;
                    c.execute(&format!(
                        "insert into orders values ({key}, 1, 'O', 1.0, \
                         date '1997-01-01', '5-LOW', 'c', 0, 'w')"
                    ))
                    .unwrap();
                }
            });
        }
        let c = Arc::clone(&controller);
        s.spawn(move || {
            for _ in 0..15 {
                c.execute("select max(o_orderkey) as k from orders")
                    .unwrap();
            }
        });
    });
    assert_eq!(engine.txn_counters(), vec![30, 30, 30, 30]);
}

/// Refresh transactions from three writers in disjoint key blocks reach
/// every replica in the scheduler's one order, so the order keys arrive out
/// of order — the same way everywhere: beside SVP readers whose ranges run
/// through the growing tail, every replica ends with the same ordered
/// prefix and the same tail, and answers a key range alike.
#[test]
fn interleaved_refreshes_leave_every_replica_the_same_prefix_and_answers() {
    let (engine, controller, base_orders, replicas) = cluster_with_nodes(4);
    let insert = |key: i64| {
        [
            format!(
                "insert into orders values ({key}, 1, 'O', 1.0, \
                 date '2005-01-01', '5-LOW', 'c', 0, 'probe')"
            ),
            format!(
                "insert into lineitem values ({key}, 1, 1, 1, 1.0, 1.0, 0.0, 0.0, \
                 'N', 'O', date '2005-02-01', date '2005-02-01', date '2005-02-02', \
                 'NONE', 'MAIL', 'probe')"
            ),
        ]
    };
    std::thread::scope(|s| {
        for w in 0..3i64 {
            let c = Arc::clone(&controller);
            s.spawn(move || {
                let first = base_orders + 1 + w * 100;
                // Highest key first: whatever the race between the writers,
                // a writer's second order arrives behind a higher key.
                for key in (first..first + 12).rev() {
                    c.execute_write_transaction(&insert(key)).unwrap();
                }
                // Every other one goes again: tombstones in prefix and tail.
                for key in (first..first + 12).step_by(2) {
                    c.execute_write_transaction(&[
                        format!("delete from lineitem where l_orderkey = {key}"),
                        format!("delete from orders where o_orderkey = {key}"),
                    ])
                    .unwrap();
                }
            });
        }
        let c = Arc::clone(&controller);
        s.spawn(move || {
            for _ in 0..10 {
                // One snapshot: an order above the loaded keys has its one
                // lineitem or is gone with it.
                let (out, _) = c
                    .execute(&format!(
                        "select count(*) as pairs, count(distinct o_orderkey) as orders \
                         from orders, lineitem \
                         where l_orderkey = o_orderkey and o_orderkey > {base_orders}"
                    ))
                    .unwrap();
                assert_eq!(out.rows[0][0], out.rows[0][1], "torn snapshot");
            }
        });
    });
    assert_eq!(engine.txn_counters(), vec![54; 4]);

    let inside = |node: &Arc<EngineNode>| {
        node.with_db(|db| {
            let prefixes: Vec<(u64, u64)> = ["orders", "lineitem"]
                .iter()
                .map(|t| {
                    let table = db.table(t).unwrap();
                    (table.ordered_prefix(), table.heap.slots())
                })
                .collect();
            let answer = db
                .read(
                    &ReadRequest::text(&format!(
                        "select o_orderkey, l_linenumber from orders, lineitem \
                         where l_orderkey = o_orderkey and o_orderkey >= {} \
                           and l_orderkey >= {}",
                        base_orders - 5,
                        base_orders - 5
                    ))
                    .avoiding_seqscan(true),
                )
                .unwrap();
            (prefixes, answer.rows)
        })
    };
    let first = inside(&replicas[0]);
    // The loaded rows are prefix; the first arrival extends it; behind the
    // first one out of order everything is tail.
    let (orders_prefix, orders_slots) = first.0[0];
    assert!(orders_prefix > base_orders as u64 && orders_prefix < orders_slots);
    assert_eq!(orders_slots, base_orders as u64 + 36);
    // The last six loaded orders and the eighteen that stayed, in whatever
    // slot order the writers' race left them.
    assert_eq!(
        first.1.len(),
        6 * 3 + inside_loaded(&replicas[0], base_orders)
    );
    for node in &replicas[1..] {
        assert_eq!(inside(node), first, "{}", node.name());
    }
}

/// Lineitems of the last six loaded orders on a replica.
fn inside_loaded(node: &Arc<EngineNode>, base_orders: i64) -> usize {
    node.with_db(|db| {
        let out = db
            .query(&format!(
                "select count(*) as n from lineitem \
                 where l_orderkey >= {} and l_orderkey <= {base_orders}",
                base_orders - 5
            ))
            .unwrap();
        out.rows[0][0].as_i64().unwrap() as usize
    })
}
