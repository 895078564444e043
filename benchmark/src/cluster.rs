//! Set-up: the four-replica cluster under test, with default configuration
//! everywhere, plus the reference answers the oracle compares against.

use std::sync::Arc;
use std::time::Instant;

use apuama::{ApuamaConfig, ApuamaEngine, DataCatalog};
use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::Database;
use apuama_sql::Value;
use apuama_storage::Row;
use apuama_tpch::{generate, load_into, TpchConfig, ALL_QUERIES};

use crate::inputs::{self, SHORT_RANGE_KEYS};
use crate::oracle::Baseline;

/// In-process replicas, as in the paper's smallest multi-node configuration
/// that still leaves each of the host's two cores two sub-queries.
pub const NODES: usize = 4;
/// One scale factor for all four workloads: on the 2-core reference host an
/// `olap_power` pass takes about 0.5 s and set-up about 2.6 s.
pub const SCALE_FACTOR: f64 = 0.022;
/// Scale factor of `--smoke` runs and of the tests.
pub const SMOKE_SCALE_FACTOR: f64 = 0.002;
/// The data set is part of the benchmark's definition; `--seed` drives the
/// traffic, not the data.
pub const DATA_SEED: u64 = 42;

/// Wall time of the set-up phases, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub generate_s: f64,
    pub load_s: f64,
    pub references_s: f64,
}

pub struct Cluster {
    pub tpch: TpchConfig,
    pub nodes: Vec<Arc<EngineNode>>,
    pub engine: Arc<ApuamaEngine>,
    pub controller: Controller,
    /// Row counts of `orders` and `lineitem` as loaded.
    pub baseline: Baseline,
    /// `references[set][query]`: the answer of evaluation query `query`
    /// under parameter set `set`, from one replica without SVP.
    pub references: Vec<Vec<Vec<Row>>>,
    /// `(c_nationkey, c_acctbal)` by `c_custkey - 1`, from the generator.
    customers: Vec<(Value, Value)>,
    /// `o_totalprice` by `o_orderkey - 1`, from the generator.
    order_prices: Vec<f64>,
    pub timing: SetupTiming,
}

impl Cluster {
    /// Generates TPC-H at `scale_factor`, loads it into [`NODES`] replicas,
    /// stacks `ApuamaEngine` and `Controller` on top with default
    /// configurations, and computes the reference answers.
    pub fn build(scale_factor: f64) -> Cluster {
        let tpch = TpchConfig {
            scale_factor,
            seed: DATA_SEED,
        };
        let start = Instant::now();
        let data = generate(tpch);
        let generate_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut nodes = Vec::with_capacity(NODES);
        let mut conns: Vec<Arc<dyn Connection>> = Vec::with_capacity(NODES);
        for i in 0..NODES {
            let mut db = Database::in_memory();
            load_into(&mut db, &data).expect("generated data loads");
            let node = EngineNode::new(format!("node-{i}"), db);
            conns.push(Arc::new(NodeConnection::new(Arc::clone(&node))));
            nodes.push(node);
        }
        let load_s = start.elapsed().as_secs_f64();

        let engine = ApuamaEngine::new(
            conns,
            DataCatalog::tpch(tpch.orders() as i64),
            ApuamaConfig::default(),
        );
        let controller = Controller::new(engine.connections(), ControllerConfig::default());

        // The oracle for the short statements comes straight from the
        // generator, independent of any engine.
        let customers = data
            .customer
            .iter()
            .enumerate()
            .map(|(i, row)| {
                assert_eq!(row[0], Value::Int(i as i64 + 1), "customer keys are dense");
                (row[3].clone(), row[5].clone())
            })
            .collect();
        let order_prices = data
            .orders
            .iter()
            .enumerate()
            .map(|(i, row)| {
                assert_eq!(row[0], Value::Int(i as i64 + 1), "order keys are dense");
                row[3].as_f64().expect("o_totalprice is numeric")
            })
            .collect();
        drop(data);

        // One parameter set per thread, each on its own replica.
        let start = Instant::now();
        let references = std::thread::scope(|s| {
            let workers: Vec<_> = (0..inputs::PARAM_SETS)
                .map(|set| {
                    let node = &nodes[set % NODES];
                    s.spawn(move || {
                        let params = inputs::eval_params(set);
                        ALL_QUERIES
                            .iter()
                            .map(|q| {
                                node.with_db(|db| db.query(&q.sql(&params)))
                                    .expect("reference query runs")
                                    .rows
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference thread panicked"))
                .collect()
        });
        let references_s = start.elapsed().as_secs_f64();

        let baseline = Baseline::of(&nodes[0]);
        Cluster {
            tpch,
            nodes,
            engine,
            controller,
            baseline,
            references,
            customers,
            order_prices,
            timing: SetupTiming {
                generate_s,
                load_s,
                references_s,
            },
        }
    }

    /// The row [`inputs::point_read_sql`] must return.
    pub fn expected_point_read(&self, custkey: i64) -> Row {
        let (nation, acctbal) = &self.customers[custkey as usize - 1];
        vec![Value::Int(custkey), nation.clone(), acctbal.clone()]
    }

    /// The row [`inputs::short_aggregate_sql`] must return.
    pub fn expected_short_aggregate(&self, lo: i64) -> Row {
        let first = lo as usize - 1;
        let prices = &self.order_prices[first..first + SHORT_RANGE_KEYS as usize];
        vec![
            Value::Float(prices.iter().sum()),
            Value::Int(prices.len() as i64),
        ]
    }

    /// Heap pages over all replicas.
    pub fn pages_total(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.with_db(|db| db.total_pages()))
            .sum()
    }
}
