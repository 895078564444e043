//! A virtual partition is a slot interval of the ordered heap (DESIGN.md
//! §13): what resolving the SVP sub-queries of the evaluation set by
//! position must leave exactly as the B-tree posting walk left it.
//!
//! 1. **Counters** — every `ExecStats` counter the simulator prices from,
//!    per query over its four sub-queries, equals what the parent commit
//!    (c907259) reported for the same statements.
//! 2. **Rows** — a sub-query answers byte for byte (float bits included)
//!    what the same statement answers through a forced sequential scan,
//!    before and after refresh transactions give the fact tables a tail and
//!    tombstones: a range yields its rows in slot order, which is the order
//!    a sequential scan meets them in.

use apuama::{DataCatalog, Rewritten, SvpRewriter};
use apuama_engine::{Database, ReadRequest};
use apuama_tpch::{
    generate, load_into, refresh_stream, QueryParams, TpchConfig, TpchData, ALL_QUERIES,
};

const CONFIG: TpchConfig = TpchConfig {
    scale_factor: 0.01,
    seed: 7,
};

fn replica(data: &TpchData) -> Database {
    let mut db = Database::in_memory();
    load_into(&mut db, data).unwrap();
    db
}

/// The four SVP sub-queries of evaluation query `q`.
fn subqueries(data: &TpchData, q: usize, params: &QueryParams) -> Vec<String> {
    let rewriter = SvpRewriter::new(DataCatalog::tpch(data.config.orders() as i64));
    match rewriter.rewrite(&ALL_QUERIES[q].sql(params), 4).unwrap() {
        Rewritten::Svp(plan) => (plan.ranges.iter())
            .map(|&(lo, hi)| plan.template.subquery_for_range(lo, hi))
            .collect(),
        Rewritten::Passthrough { reason } => panic!("{}: {reason}", ALL_QUERIES[q].label()),
    }
}

/// `[rows_scanned, scan_batches, index_probes, buffer hits, sequential
/// misses, random misses, cpu_tuple_ops]` summed over a query's four
/// sub-queries, each sent as the middleware sends it (sequential scans
/// discouraged), Q1 first on a cold pool.
#[test]
fn subquery_counters_equal_the_parents() {
    // Recorded on c907259 with this very test. `cpu_tuple_ops` of Q3, Q5
    // and Q21 read 126 712 / 132 859 / 236 586 there: the join block's leaf
    // reduction (DESIGN.md §10) moved them, and nothing the range
    // resolution touches. The key filters on a join's driving scan then
    // moved those of the five join queries, Q3 / Q5 / Q12 / Q14 / Q21
    // 126 760 / 124 389 / 108 657 / 99 647 / 126 162 before: a filter
    // charges the tuples it tests, its step probes only what it kept.
    const PINNED: [[u64; 7]; 8] = [
        [60615, 60, 4, 3, 1516, 0, 120435],
        [81615, 84, 12, 1609, 288, 0, 127053],
        [15000, 16, 563, 1063, 0, 0, 27719],
        [82135, 96, 24, 1909, 4, 0, 120724],
        [60615, 60, 4, 1519, 0, 0, 116017],
        [75615, 76, 8, 1781, 0, 0, 108963],
        [68615, 68, 8, 1651, 44, 0, 100377],
        [76115, 84, 725, 2877, 0, 0, 125560],
    ];
    let data = generate(CONFIG);
    let db = replica(&data);
    let params = QueryParams::default();
    for (q, want) in PINNED.iter().enumerate() {
        let mut got = [0u64; 7];
        for sql in subqueries(&data, q, &params) {
            let s = db
                .read(&ReadRequest::text(&sql).avoiding_seqscan(true))
                .unwrap()
                .stats;
            let add = [
                s.rows_scanned,
                s.scan_batches,
                s.index_probes,
                s.buffer.hits,
                s.buffer.misses_seq,
                s.buffer.misses_rand,
                s.cpu_tuple_ops,
            ];
            got.iter_mut().zip(add).for_each(|(g, a)| *g += a);
        }
        assert_eq!(&got, want, "{}", ALL_QUERIES[q].label());
    }
}

/// Rows with their float bits spelled out.
fn bits(rows: &[Vec<apuama_sql::Value>]) -> String {
    format!("{rows:?}")
}

#[test]
fn a_clustered_range_answers_what_a_sequential_scan_of_it_answers() {
    let data = generate(CONFIG);
    let mut db = replica(&data);
    let sets = [QueryParams::default(), QueryParams::random(0x5EED_0001)];
    let compare = |db: &Database, stage: &str| {
        for params in &sets {
            for (q, query) in ALL_QUERIES.iter().enumerate() {
                for sql in subqueries(&data, q, params) {
                    let ranged = db
                        .read(&ReadRequest::text(&sql).avoiding_seqscan(true))
                        .unwrap();
                    assert!(ranged.stats.index_probes >= 1, "{stage}: {sql}");
                    db.query("set enable_indexscan = off").unwrap();
                    let scanned = db.query(&sql).unwrap();
                    db.query("set enable_indexscan = on").unwrap();
                    assert_eq!(
                        bits(&ranged.rows),
                        bits(&scanned.rows),
                        "{stage}, {}: {sql}",
                        query.label()
                    );
                }
            }
        }
    };
    compare(&db, "loaded");
    assert_eq!(
        db.table("lineitem").unwrap().ordered_prefix(),
        db.table("lineitem").unwrap().heap.slots()
    );

    // Forty orders above the loaded keys, the second half of them first:
    // the later ones extend the prefix, the earlier ones start the tail.
    // Then ten of them go, from both halves.
    let first_new = data.config.orders() as i64 + 1;
    let stream = refresh_stream(&data.config, 80, first_new, 11);
    let (inserts, deletes) = stream.split_at(40);
    for txn in inserts[20..].iter().chain(&inserts[..20]) {
        db.execute_script(&txn.script()).unwrap();
    }
    let orders = db.table("orders").unwrap();
    assert_eq!(orders.ordered_prefix(), orders.heap.slots() - 20);
    compare(&db, "refreshed");
    for txn in deletes[15..25].iter() {
        db.execute_script(&txn.script()).unwrap();
    }
    compare(&db, "tombstoned");
}
