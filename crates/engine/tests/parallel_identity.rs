//! Morsel-driven parallel execution is *observationally invisible*: for
//! any `parallel_workers` setting, a query answers with byte-identical
//! rows AND identical work counters (`rows_scanned`, `cpu_tuple_ops`,
//! `index_probes`, `pages_pruned`, `scan_batches`, buffer-pool touches) to
//! the serial execution, on the fused shape and the general tree
//! (`enable_kernel` on and off). The table spans many
//! page-aligned morsels so the parallel decomposition genuinely engages;
//! float payloads are quarter-steps (exactly representable) so partial-sum
//! merging cannot round differently from the serial fold.

use apuama_engine::{Database, QueryOutput};
use apuama_sql::Value;

const ROWS: i64 = 5_000;

/// `k` clustered (index-range morsels reachable), `g` a grouping column,
/// `z` monotone in `k` (tight per-page zone ranges, so zone-map pruning
/// fires on equality predicates), `v` an exactly-representable float.
fn db() -> Database {
    let mut d = Database::in_memory();
    d.execute(
        "create table t (k int not null, g int, z int, v float, \
         primary key (k)) clustered by (k)",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (1..=ROWS)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Int(k % 23),
                Value::Int(k / 500),
                Value::Float((k % 97) as f64 * 0.25),
            ]
        })
        .collect();
    d.load_table("t", rows).unwrap();
    d
}

fn assert_identical(a: &QueryOutput, b: &QueryOutput, what: &str) {
    assert_eq!(a.columns, b.columns, "{what}");
    assert_eq!(a.rows, b.rows, "{what}");
    assert_eq!(a.stats.rows_scanned, b.stats.rows_scanned, "{what}");
    assert_eq!(a.stats.cpu_tuple_ops, b.stats.cpu_tuple_ops, "{what}");
    assert_eq!(a.stats.index_probes, b.stats.index_probes, "{what}");
    assert_eq!(a.stats.pages_pruned, b.stats.pages_pruned, "{what}");
    assert_eq!(a.stats.rows_out, b.stats.rows_out, "{what}");
    assert_eq!(a.stats.bytes_out, b.stats.bytes_out, "{what}");
    assert_eq!(a.stats.scan_batches, b.stats.scan_batches, "{what}");
    assert_eq!(
        a.stats.buffer.accesses(),
        b.stats.buffer.accesses(),
        "{what}"
    );
}

/// Every scan/aggregate/sort shape the parallel decomposition touches:
/// global fused aggregation, grouped aggregation (partial-group merge),
/// zone-map-pruned scans, index-range morsels, parallel filter + chunk
/// sort, DISTINCT, and the predicate shapes and expression arguments that
/// run on the stored columns (`BETWEEN`, `IN`, column against column,
/// `+ − ×` aggregate arguments).
const QUERIES: &[&str] = &[
    "select count(*) as n, sum(v) as s, avg(v) as a, min(v) as lo, max(v) as hi from t",
    "select g, count(*) as n, sum(v) as s, avg(v) as a from t group by g order by g",
    "select count(*) as n, sum(v) as s from t where v > 3.0",
    "select g, count(*) as n from t where z = 3 group by g order by g",
    "select k, v from t where g = 7 order by k",
    "select k, v from t where k >= 100 and k < 4200 and g <> 3 order by v, k limit 50",
    "select distinct g from t order by g",
    "select k, g from t order by g",
    "select count(*) as n, sum(v * (1.0 + v)) as s from t \
     where g between 3 and 9 and z in (1, 3, 5, null)",
    "select g, sum(v * 2.0 - 1.0) as s, avg(v * v) as a from t \
     where k >= z and v not between 2.0 and 5.0 group by g order by g",
    "select k from t where g not in (1, 2, 3) and z <= g and v < g order by k limit 40",
];

/// The same statements with the scan forced through an index. A clustered
/// range is how SVP sub-queries arrive: a row-id list cut into per-segment
/// morsels, whatever the range's ends. A secondary range hops: its row ids
/// come in key order, so the list re-enters every segment once per key.
#[test]
fn parallel_index_ranges_are_byte_identical_to_serial() {
    let mut d = db();
    d.execute("create index ig on t (g)").unwrap();
    let hopping = "select count(*) as n, sum(v) as s, min(k) as lo from t \
                   where g >= 5 and g < 9 and z <> 4";
    let by_scan = d.query(hopping).unwrap();
    d.query("set enable_seqscan = off").unwrap();
    assert_eq!(d.query(hopping).unwrap().rows, by_scan.rows);
    for sql in [
        hopping,
        "select count(*) as n, sum(v * (1.0 + v)) as s from t \
         where k >= 700 and k < 4100 and g between 3 and 9",
        "select g, sum(v) as s, count(*) as n from t \
         where k >= 1023 and k <= 2049 and z in (2, 4) group by g order by g",
        "select k, v from t where k > 30 and k < 4990 and g = z order by k",
    ] {
        for kernel in ["on", "off"] {
            d.query(&format!("set enable_kernel = {kernel}")).unwrap();
            d.query("set parallel_workers = 1").unwrap();
            let serial = d.query(sql).unwrap();
            assert_eq!(serial.stats.index_probes, 1, "{sql}");
            for workers in [2usize, 4] {
                d.query(&format!("set parallel_workers = {workers}"))
                    .unwrap();
                let what = format!("×{workers} kernel={kernel}: {sql}");
                assert_identical(&d.query(sql).unwrap(), &serial, &what);
            }
        }
    }
}

#[test]
fn parallel_execution_is_byte_identical_to_serial() {
    for sql in QUERIES {
        let d = db();
        for kernel in ["on", "off"] {
            d.query(&format!("set enable_kernel = {kernel}")).unwrap();
            d.query("set parallel_workers = 1").unwrap();
            let serial = d.query(sql).unwrap();
            for workers in [2usize, 4, 8] {
                d.query(&format!("set parallel_workers = {workers}"))
                    .unwrap();
                let parallel = d.query(sql).unwrap();
                assert_identical(
                    &parallel,
                    &serial,
                    &format!("×{workers} kernel={kernel}: {sql}"),
                );
                assert_eq!(
                    d.mem_gauge().used_bytes(),
                    0,
                    "worker memory charges must drain: {sql}"
                );
            }
        }
    }
}

/// The prepared/bound path re-reads the knob at execution time — the same
/// cached plan must answer identically at any worker count (the knob is
/// deliberately *not* part of the plan fingerprint).
#[test]
fn cached_plan_is_reused_across_worker_counts() {
    let d = db();
    let template = "select g, count(*) as n, sum(v) as s from t \
                    where k >= $1 and k < $2 group by g order by g";
    let params = vec![Value::Int(10), Value::Int(4800)];
    d.query("set parallel_workers = 1").unwrap();
    let serial = d.query_bound(template, &params).unwrap();
    for workers in [2usize, 4] {
        d.query(&format!("set parallel_workers = {workers}"))
            .unwrap();
        let parallel = d.query_bound(template, &params).unwrap();
        assert_identical(&parallel, &serial, &format!("bound ×{workers}"));
    }
    // The worker-count changes did not force replans: after the first
    // compile, every later bound execution hit the cache.
    assert!(
        d.plan_cache_stats().hits >= 2,
        "changing parallel_workers must not invalidate cached plans: {:?}",
        d.plan_cache_stats()
    );
}

/// A predicate that fails mid-scan raises the *same* error parallel as
/// serial: the coordinator reports the earliest morsel's failure, and the
/// earliest morsel starts at the serial scan's first row.
#[test]
fn parallel_errors_match_serial() {
    for kernel in ["on", "off"] {
        let d = db();
        d.query(&format!("set enable_kernel = {kernel}")).unwrap();
        let sql = "select count(*) as n from t where v > 'oops'";
        d.query("set parallel_workers = 1").unwrap();
        let serial = d.query(sql).unwrap_err().to_string();
        d.query("set parallel_workers = 4").unwrap();
        let parallel = d.query(sql).unwrap_err().to_string();
        assert_eq!(parallel, serial, "kernel={kernel}");
        assert_eq!(
            d.mem_gauge().used_bytes(),
            0,
            "failed parallel run must release all memory charges"
        );
        // The engine still answers correctly afterwards.
        let after = d.query("select count(*) as n from t").unwrap();
        assert_eq!(after.rows, vec![vec![Value::Int(ROWS)]]);
    }
}
