//! The fused scan→filter→aggregate rule is *observationally invisible*:
//! with `enable_kernel` on and off, a query answers with byte-identical
//! rows AND identical work counters (`rows_scanned`, `cpu_tuple_ops`,
//! `index_probes`, `pages_pruned`, `scan_batches`, buffer-pool touches), so
//! the fused shape and the general tree it rewrites are one statement to
//! every observer (DESIGN.md §10). The table spans many stored segments;
//! float payloads are quarter-steps (exactly representable) so a sum
//! cannot round differently between the two folds.

use apuama_engine::{Database, QueryOutput};
use apuama_sql::Value;

const ROWS: i64 = 5_000;

/// `k` clustered (clustered ranges reachable), `g` a grouping column,
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

/// Every scan/aggregate/sort shape the fused rule touches or leaves to the
/// general tree: global and grouped aggregation, zone-map-pruned scans,
/// filter + sort, DISTINCT, and the predicate shapes and expression arguments that
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

/// Runs `sql` with the fused rule off (the general tree, the reference)
/// and on, and asserts the two runs are one.
fn assert_kernel_invisible(d: &Database, sql: &str) -> QueryOutput {
    d.query("set enable_kernel = off").unwrap();
    let general = d.query(sql).unwrap();
    d.query("set enable_kernel = on").unwrap();
    let fused = d.query(sql).unwrap();
    assert_identical(&fused, &general, &format!("kernel on ≡ off: {sql}"));
    general
}

/// The same statements with the scan forced through an index. A clustered
/// range is how SVP sub-queries arrive: a row-id list cut per segment,
/// whatever the range's ends. A secondary range hops: its row ids come in
/// key order, so the list re-enters every segment once per key.
#[test]
fn index_ranges_are_byte_identical_across_the_kernel() {
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
        let general = assert_kernel_invisible(&d, sql);
        assert_eq!(general.stats.index_probes, 1, "{sql}");
    }
}

#[test]
fn the_fused_rule_is_byte_identical_to_the_general_tree() {
    for sql in QUERIES {
        let d = db();
        assert_kernel_invisible(&d, sql);
        assert_eq!(
            d.mem_gauge().used_bytes(),
            0,
            "memory charges must drain: {sql}"
        );
    }
}

/// The bound path runs one cached plan per kernel setting (the knob is part
/// of the plan fingerprint): each answers what the other does, and what the
/// statement with its literals in place answers.
#[test]
fn a_cached_plan_answers_alike_across_the_kernel() {
    let d = db();
    let template = "select g, count(*) as n, sum(v) as s from t \
                    where k >= $1 and k < $2 group by g order by g";
    let literal = "select g, count(*) as n, sum(v) as s from t \
                   where k >= 10 and k < 4800 group by g order by g";
    let params = vec![Value::Int(10), Value::Int(4800)];
    let want = assert_kernel_invisible(&d, literal);
    for kernel in ["off", "on", "off", "on"] {
        d.query(&format!("set enable_kernel = {kernel}")).unwrap();
        let bound = d.query_bound(template, &params).unwrap();
        assert_identical(&bound, &want, &format!("bound, kernel={kernel}"));
    }
    // After each setting's first compile, its later execution hit the cache.
    assert!(d.plan_cache_stats().hits >= 2, "{:?}", d.plan_cache_stats());
}

/// A predicate that fails mid-scan raises the *same* error fused as in the
/// general tree, and leaves nothing charged.
#[test]
fn errors_match_across_the_kernel() {
    let d = db();
    let sql = "select count(*) as n from t where v > 'oops'";
    d.query("set enable_kernel = off").unwrap();
    let general = d.query(sql).unwrap_err().to_string();
    d.query("set enable_kernel = on").unwrap();
    let fused = d.query(sql).unwrap_err().to_string();
    assert_eq!(fused, general);
    assert_eq!(
        d.mem_gauge().used_bytes(),
        0,
        "a failed run must release all memory charges"
    );
    // The engine still answers correctly afterwards.
    let after = d.query("select count(*) as n from t").unwrap();
    assert_eq!(after.rows, vec![vec![Value::Int(ROWS)]]);
}
