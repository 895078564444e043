//! Property: cooperative cancellation is *clean*. A query whose cancel
//! token fires at an arbitrary batch boundary (DESIGN.md §11) either
//! completes normally or fails with `Cancelled` — and in both cases the
//! engine answers the next, ungoverned run of the same statement
//! byte-identically to a never-cancelled engine. Checked with
//! `enable_kernel` on and off, so the general tree and the fused kernel
//! honor the same unwind contract.

use proptest::prelude::*;

use apuama_engine::{Database, EngineError, QueryGovernor, ReadRequest};
use apuama_sql::Value;

/// Rows spanning several 1024-row scan batches, with enough groups to put
/// real state into the aggregation and sort operators that a cancelled
/// unwind must discard.
const ROWS: i64 = 3_000;

fn db() -> Database {
    let mut d = Database::in_memory();
    d.execute("create table t (k int not null, g int, v float, primary key (k)) clustered by (k)")
        .unwrap();
    let rows: Vec<Vec<Value>> = (1..=ROWS)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Int(k % 17),
                Value::Float(k as f64 * 0.25),
            ]
        })
        .collect();
    d.load_table("t", rows).unwrap();
    d
}

fn set_kernel(d: &Database, kernel: bool) {
    let onoff = |b: bool| if b { "on" } else { "off" };
    d.query(&format!("set enable_kernel = {}", onoff(kernel)))
        .unwrap();
}

const QUERIES: [&str; 3] = [
    // Aggregation over every batch (kernel-eligible shape).
    "select count(*) as n, sum(v) as s, avg(v) as a from t",
    // Grouped aggregate + sort: pipeline breakers holding per-group state.
    "select g, count(*) as n, sum(v) as s from t group by g order by g",
    // Filter + projection: the streaming path.
    "select k, v from t where k >= 100 and k < 200 order by k",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cancelled_query_leaves_engine_byte_identical(
        query_idx in 0usize..QUERIES.len(),
        fuse in 0u64..48,
        kernel in any::<bool>(),
    ) {
        let sql = QUERIES[query_idx];

        // Reference: an engine that never saw a cancellation.
        let clean = db();
        set_kernel(&clean, kernel);
        let want = clean.query(sql).unwrap();

        let d = db();
        set_kernel(&d, kernel);
        let gov = QueryGovernor::new();
        gov.cancel_token().cancel_after_checks(fuse);
        match d.read(&ReadRequest::text(sql).governed(&gov)) {
            // Fuse fired past the last check: the run completed, and it
            // must already be byte-identical.
            Ok(out) => {
                prop_assert_eq!(&out.columns, &want.columns);
                prop_assert_eq!(&out.rows, &want.rows);
            }
            Err(EngineError::Cancelled(_)) => {}
            Err(other) => prop_assert!(
                false,
                "expected clean completion or Cancelled, got {other:?}"
            ),
        }

        // The replay — same statement, no governor — must not observe any
        // residue of the cancelled attempt (plan cache, operator state,
        // buffer pool bookkeeping, memory gauge).
        let replay = d
            .read(&ReadRequest::text(sql).governed(&QueryGovernor::new()))
            .unwrap();
        prop_assert_eq!(&replay.columns, &want.columns);
        prop_assert_eq!(&replay.rows, &want.rows);
        prop_assert_eq!(d.mem_gauge().used_bytes(), 0, "cancel must release its memory charge");
    }
}
