//! Property-based tests of the physical operator pipeline:
//!
//! 1. **Shape equivalence** — for random data and a family of generated
//!    filters, joins, aggregates, ORDER BY/LIMIT/DISTINCT, and
//!    subquery-bearing statements, the general operator tree and the fused
//!    scan→filter→aggregate rewrite (`enable_kernel` on vs off) produce
//!    byte-identical rows *and* identical work counters — `rows_scanned`,
//!    `cpu_tuple_ops`, `index_probes`, `rows_out`, `bytes_out`,
//!    `scan_batches`, and buffer-pool page touches.
//! 2. **Path equivalence** — for every family member, the text path and
//!    the prepared/bound path (cached physical plan) are indistinguishable
//!    under either knob setting.
//! 3. **TPC-H sweep** — the full evaluation-query set answers identically
//!    with the fusion rewrite enabled and disabled.

use proptest::prelude::*;

use apuama_engine::{Database, EngineError, QueryOutput};
use apuama_sql::Value;
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, ALL_QUERIES};

/// Two joinable tables: an orders-like dimension and a lineitem-like fact,
/// both clustered on their key so index-range and seq-scan access paths
/// are each reachable depending on the generated predicate range.
fn cluster_db(rows: &[(i64, i64, f64, u8)]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table orders (o_orderkey int not null, o_priority text, \
         primary key (o_orderkey)) clustered by (o_orderkey)",
    )
    .unwrap();
    db.execute(
        "create table lineitem (l_orderkey int not null, l_quantity int, \
         l_extendedprice float, l_returnflag text, primary key (l_orderkey)) \
         clustered by (l_orderkey)",
    )
    .unwrap();
    // Every third key is an order, so equi-joins hit a real subset.
    let orders: Vec<Vec<Value>> = rows
        .iter()
        .filter(|(k, ..)| k % 3 == 0)
        .map(|(k, _, _, f)| vec![Value::Int(*k), Value::Str(format!("P{}", f % 2))])
        .collect();
    let lineitem: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, q, p, f)| {
            vec![
                Value::Int(*k),
                Value::Int(*q),
                Value::Float(*p),
                Value::Str(format!("F{}", f % 3)),
            ]
        })
        .collect();
    let mut lineitem = lineitem;
    // Pad the fact table with rows outside the generated key range so full
    // scans span several page-aligned morsels and the parallel execution
    // path genuinely engages when `parallel_workers` > 1; range queries
    // over the generated keys keep seeing exactly the generated rows.
    for k in 10_000i64..14_000 {
        lineitem.push(vec![
            Value::Int(k),
            Value::Int(k % 97),
            Value::Float((k % 89) as f64 * 0.25),
            Value::Str(format!("F{}", k % 3)),
        ]);
    }
    db.load_table("orders", orders).unwrap();
    db.load_table("lineitem", lineitem).unwrap();
    db
}

/// Strategy: unique order keys with arbitrary payloads. Float payloads are
/// quarter-steps (exactly representable, sums never round), so aggregate
/// results are byte-identical regardless of how partial sums associate —
/// the property the parallel-workers dimension depends on.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64, u8)>> {
    proptest::collection::btree_map(0i64..500, (0i64..100, 0i64..4000, any::<u8>()), 1..150)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, (q, p, f))| (k, q, p as f64 * 0.25, f))
                .collect::<Vec<_>>()
        })
}

/// The query family: `(statement with placeholders, parameter count)`.
/// Spans every operator the pipeline lowers to: scans with range and
/// residual filters, projection, hash join, global and grouped
/// aggregation, HAVING, ORDER BY, LIMIT, DISTINCT, and subqueries (the
/// pipeline-breaker path).
const FAMILY: &[(&str, usize)] = &[
    // Fusion-rule shapes: single table, range + residual, aggregated.
    (
        "select sum(l_extendedprice) as s, count(*) as n from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    (
        "select l_returnflag, sum(l_quantity) as s, avg(l_extendedprice) as a, \
         count(*) as n from lineitem where l_orderkey >= $1 and l_orderkey < $2 \
         group by l_returnflag order by l_returnflag",
        2,
    ),
    (
        "select min(l_extendedprice) as lo, max(l_extendedprice) as hi from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3",
        3,
    ),
    // Scan → filter → project with ORDER BY/LIMIT.
    (
        "select l_orderkey, l_quantity from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3 \
         order by l_orderkey limit 10",
        3,
    ),
    // DISTINCT.
    (
        "select distinct l_returnflag from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 order by l_returnflag",
        2,
    ),
    // Hash join → grouped aggregate.
    (
        "select o_priority, count(*) as n, sum(l_quantity) as s from orders, lineitem \
         where l_orderkey = o_orderkey and o_orderkey >= $1 and o_orderkey < $2 \
         group by o_priority order by o_priority",
        2,
    ),
    // Hash join, non-aggregated, with ORDER BY/LIMIT.
    (
        "select o_orderkey, l_quantity from orders, lineitem \
         where l_orderkey = o_orderkey and l_quantity > $3 \
         order by o_orderkey limit 10",
        3,
    ),
    // HAVING over grouped aggregation ($1 reused as the count threshold).
    (
        "select l_returnflag, count(*) as n from lineitem group by l_returnflag \
         having count(*) > $1 order by l_returnflag",
        1,
    ),
    // Subquery in the predicate: the pipeline-breaker path.
    (
        "select count(*) as n from lineitem \
         where l_orderkey in (select o_orderkey from orders where o_priority = 'P0') \
         and l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    // Correlated EXISTS compiled to an index semi-join probe, with a
    // bound parameter on the probe's outer side.
    (
        "select count(*) as n from orders \
         where o_orderkey >= $1 and o_orderkey < $2 \
         and exists (select * from lineitem where l_orderkey = o_orderkey and l_quantity > $3)",
        3,
    ),
    // Anti-join probe whose key is an expression over the outer row.
    (
        "select o_orderkey from orders \
         where not exists (select * from lineitem l \
                           where l.l_orderkey = o_orderkey + $1 and l.l_quantity > $3) \
         order by o_orderkey limit 10",
        3,
    ),
    // EXISTS under OR: not a top-level conjunct, so the framed evaluator
    // reaches the probe through the per-execution memo.
    (
        "select count(*) as n from orders \
         where o_priority = 'P0' \
         or exists (select * from lineitem where l_orderkey = o_orderkey and l_quantity > $3)",
        3,
    ),
    // A probe inside a derived table.
    (
        "select count(*) as n from \
         (select o_orderkey from orders \
          where exists (select * from lineitem \
                        where l_orderkey = o_orderkey and l_quantity > $3)) d \
         where d.o_orderkey >= $1",
        3,
    ),
];

/// Renders the placeholder statement as literal text.
fn render(template: &str, params: &[Value]) -> String {
    let mut sql = template.to_string();
    for (i, v) in params.iter().enumerate() {
        sql = sql.replace(&format!("${}", i + 1), &v.to_string());
    }
    sql
}

fn params_for(n: usize, lo: i64, hi: i64, qty: i64) -> Vec<Value> {
    [Value::Int(lo), Value::Int(hi), Value::Int(qty)][..n].to_vec()
}

/// Byte identity: rows (float bits included) and every work counter.
fn assert_identical(a: &QueryOutput, b: &QueryOutput, what: &str) {
    assert_eq!(a.columns, b.columns, "{what}");
    assert_eq!(a.rows, b.rows, "{what}");
    assert_eq!(a.stats.rows_scanned, b.stats.rows_scanned, "{what}");
    assert_eq!(a.stats.cpu_tuple_ops, b.stats.cpu_tuple_ops, "{what}");
    assert_eq!(a.stats.index_probes, b.stats.index_probes, "{what}");
    assert_eq!(a.stats.rows_out, b.stats.rows_out, "{what}");
    assert_eq!(a.stats.bytes_out, b.stats.bytes_out, "{what}");
    assert_eq!(a.stats.scan_batches, b.stats.scan_batches, "{what}");
    assert_eq!(a.stats.pages_pruned, b.stats.pages_pruned, "{what}");
    assert_eq!(
        a.stats.buffer.accesses(),
        b.stats.buffer.accesses(),
        "{what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every generated statement, all eight executions — text and
    /// bound, fusion rewrite on and off, batch-exec fast paths on and off
    /// — are byte-identical in rows and work counters, under every
    /// `parallel_workers` setting; the parallel runs are additionally
    /// anchored to an explicitly serial (`parallel_workers = 1`) reference.
    #[test]
    fn pipeline_identical_across_kernel_toggle_and_bind_path(
        rows in rows_strategy(),
        query_idx in 0usize..FAMILY.len(),
        lo in 0i64..400,
        width in 1i64..400,
        qty in 0i64..100,
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (template, n_params) = FAMILY[query_idx];
        let db = cluster_db(&rows);
        let params = params_for(n_params, lo, lo + width, qty);
        let text = render(template, &params);

        db.query("set parallel_workers = 1").unwrap();
        let serial = db.query(&text).unwrap();
        db.query(&format!("set parallel_workers = {workers}")).unwrap();

        let text_on = db.query(&text).unwrap();
        assert_identical(&text_on, &serial, &format!("parallel ×{workers}≡serial: {text}"));
        let bound_on = db.query_bound(template, &params).unwrap();
        // The columnar fold (DESIGN.md §13) must be invisible: same rows,
        // same counters, with the kernel's scalar row loop forced instead.
        db.query("set enable_columnar = off").unwrap();
        let scalar_fold = db.query(&text).unwrap();
        assert_identical(&scalar_fold, &text_on, &format!("columnar off≡on: {text}"));
        db.query("set enable_columnar = on").unwrap();
        db.query("set enable_kernel = off").unwrap();
        let text_off = db.query(&text).unwrap();
        let bound_off = db.query_bound(template, &params).unwrap();

        assert_identical(&bound_on, &text_on, &format!("bound≡text, kernel on: {text}"));
        assert_identical(&bound_off, &text_off, &format!("bound≡text, kernel off: {text}"));
        assert_identical(&text_off, &text_on, &format!("kernel off≡on: {text}"));

        // The legacy row-at-a-time execution mode must be observationally
        // identical to the batch-exec fast paths, on both lowered shapes.
        db.query("set enable_batch_exec = off").unwrap();
        let legacy_text = db.query(&text).unwrap();
        let legacy_bound = db.query_bound(template, &params).unwrap();
        assert_identical(&legacy_text, &text_off, &format!("legacy≡batch, kernel off: {text}"));
        assert_identical(&legacy_bound, &bound_off, &format!("legacy bound≡batch, kernel off: {text}"));
        db.query("set enable_kernel = on").unwrap();
        let legacy_kernel = db.query(&text).unwrap();
        assert_identical(&legacy_kernel, &text_on, &format!("legacy≡batch, kernel on: {text}"));
    }
}

/// ORDER BY is stable: rows whose sort keys tie on every component come
/// out in input (clustered-key) order — across more than one scan batch,
/// in both batch-exec modes, and on the bound path.
#[test]
fn sort_is_stable_for_equal_keys() {
    let mut db = Database::in_memory();
    db.execute("create table t (k int not null, g int, primary key (k)) clustered by (k)")
        .unwrap();
    // 3000 rows (> 2 full 1024-row batches) with only 7 distinct keys, so
    // every key group spans many batches and ties dominate the sort.
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|k| vec![Value::Int(k), Value::Int(k % 7)])
        .collect();
    db.load_table("t", rows).unwrap();
    let sql = "select k, g from t order by g";
    let expected: Vec<Vec<Value>> = (0..7i64)
        .flat_map(|g| {
            (0..3000i64)
                .filter(move |k| k % 7 == g)
                .map(move |k| vec![Value::Int(k), Value::Int(g)])
        })
        .collect();
    // 3000 rows also clear the parallel chunk-sort threshold, so the
    // workers dimension exercises the chunk-sort + k-way-merge path, which
    // must preserve the same tie order.
    for workers in [1usize, 4] {
        db.query(&format!("set parallel_workers = {workers}"))
            .unwrap();
        for mode in ["on", "off"] {
            db.query(&format!("set enable_batch_exec = {mode}"))
                .unwrap();
            let out = db.query(sql).unwrap();
            assert_eq!(
                out.rows, expected,
                "ties must keep input order (mode {mode}, workers {workers})"
            );
            let bound = db.query_bound(sql, &[]).unwrap();
            assert_eq!(
                bound.rows, expected,
                "bound path (mode {mode}, workers {workers})"
            );
            // DESC reverses key groups, not the tie order within a group.
            let desc = db.query("select k, g from t order by g desc").unwrap();
            let expected_desc: Vec<Vec<Value>> = (0..7i64)
                .rev()
                .flat_map(|g| {
                    (0..3000i64)
                        .filter(move |k| k % 7 == g)
                        .map(move |k| vec![Value::Int(k), Value::Int(g)])
                })
                .collect();
            assert_eq!(
                desc.rows, expected_desc,
                "desc ties (mode {mode}, workers {workers})"
            );
        }
    }
    db.query("set enable_batch_exec = on").unwrap();
}

/// Columnar-substrate edge cases (DESIGN.md §13), each asserted
/// byte-identical across the `enable_kernel` × `enable_batch_exec` ×
/// `enable_columnar` × `parallel_workers` matrix against one pinned
/// serial/scalar reference:
///
/// * **empty batches** — a predicate range matching zero rows, so column
///   extraction and the selection vector both see empty input;
/// * **all-rows-filtered selection vectors** — every row survives the
///   scan but fails the residual predicate, leaving `sel` empty before
///   the aggregation stage;
/// * **NULL-heavy columns** — a column that is mostly NULL (validity
///   bitmap round-trip: aggregates must skip exactly the invalid slots,
///   and `count(*)` must not);
/// * **mixed Int/Float widening** — a column holding both Int and Float
///   values, which extracts as a boxed `Val` column: predicate batches
///   decline to the scalar loop, aggregate updates take the boxed path.
#[test]
fn columnar_edge_cases_identical_across_modes() {
    let mut db = Database::in_memory();
    db.execute(
        "create table edge (k int not null, q int, p float, f text, \
         primary key (k)) clustered by (k)",
    )
    .unwrap();
    // > 2 full scan batches so batch boundaries land mid-table. q is
    // NULL-heavy (two of three slots), p mixes Int and Float values
    // mid-column (quarter-step floats stay exactly representable), f is a
    // low-cardinality group key with occasional NULLs.
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|k| {
            vec![
                Value::Int(k),
                if k % 3 == 0 {
                    Value::Int(k % 50)
                } else {
                    Value::Null
                },
                if k % 2 == 0 {
                    Value::Int(k % 89)
                } else {
                    Value::Float((k % 89) as f64 * 0.25)
                },
                if k % 11 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("F{}", k % 3))
                },
            ]
        })
        .collect();
    db.load_table("edge", rows).unwrap();

    let cases: &[&str] = &[
        // Empty batches: the range matches no rows at all.
        "select count(*) as n, sum(q) as s from edge where k >= 90000 and k < 90010",
        // All rows filtered: the residual predicate kills every row the
        // scan produces, so the selection vector drains to empty.
        "select count(*) as n, sum(q) as s from edge where k >= 0 and k < 3000 and q > 100",
        // NULL-heavy aggregation: count/sum/avg skip the invalid slots,
        // count(*) counts them.
        "select f, count(*) as n, count(q) as nq, sum(q) as s, avg(q) as a \
         from edge where k >= 0 and k < 3000 group by f order by f",
        // Mixed Int/Float widening under both predicate and aggregate.
        "select f, sum(p) as s, min(p) as lo, max(p) as hi from edge \
         where k >= 0 and k < 3000 and p >= 1 group by f order by f",
    ];
    for sql in cases {
        // Pinned reference: serial, scalar, row-at-a-time.
        db.query("set parallel_workers = 1").unwrap();
        db.query("set enable_kernel = off").unwrap();
        db.query("set enable_batch_exec = off").unwrap();
        db.query("set enable_columnar = off").unwrap();
        let want = db.query(sql).unwrap();
        for workers in [1usize, 4] {
            db.query(&format!("set parallel_workers = {workers}"))
                .unwrap();
            for kernel in ["on", "off"] {
                db.query(&format!("set enable_kernel = {kernel}")).unwrap();
                for batch in ["on", "off"] {
                    db.query(&format!("set enable_batch_exec = {batch}"))
                        .unwrap();
                    for columnar in ["on", "off"] {
                        db.query(&format!("set enable_columnar = {columnar}"))
                            .unwrap();
                        let got = db.query(sql).unwrap();
                        assert_identical(
                            &got,
                            &want,
                            &format!(
                                "kernel {kernel}, batch {batch}, columnar {columnar}, \
                                 workers {workers}: {sql}"
                            ),
                        );
                    }
                }
            }
        }
    }
    db.query("set parallel_workers = 1").unwrap();
    db.query("set enable_kernel = on").unwrap();
    db.query("set enable_batch_exec = on").unwrap();
    db.query("set enable_columnar = on").unwrap();
}

/// The full TPC-H evaluation-query set answers byte-identically — rows and
/// counters — with the fusion rewrite enabled and disabled, and with the
/// batch-exec fast paths enabled and disabled.
#[test]
fn tpch_eval_queries_identical_with_kernel_on_and_off() {
    let data = generate(TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    // Pinned serial: TPC-H prices are hundredths (not exactly
    // representable), so parallel partial-sum merging may legitimately
    // differ from the serial fold in the last float bit — the strict
    // byte-identity contract under this kernel toggle is a *serial*
    // contract. The parallel≡serial property is proven on
    // exactly-representable data by the operator property suite above.
    db.query("set parallel_workers = 1").unwrap();
    let params = QueryParams::default();
    for q in ALL_QUERIES {
        let sql = q.sql(&params);
        db.query("set enable_kernel = on").unwrap();
        let on = db.query(&sql).unwrap();
        db.query("set enable_kernel = off").unwrap();
        let off = db.query(&sql).unwrap();
        assert!(!on.columns.is_empty(), "{}", q.label());
        assert_identical(&on, &off, &q.label());
        db.query("set enable_batch_exec = off").unwrap();
        let legacy = db.query(&sql).unwrap();
        assert_identical(&legacy, &off, &format!("{} (legacy exec)", q.label()));
        db.query("set enable_batch_exec = on").unwrap();
    }
}

// ---------------------------------------------------------------------------
// Correlated EXISTS: the index semi-/anti-join probe against its references
// ---------------------------------------------------------------------------

type OuterRow = (Option<i64>, Option<i64>, u8);
type InnerRow = (Option<i64>, Option<i64>, Option<i64>);

fn opt_int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// Two small tables that share the column names `a` and `s` (so an
/// unqualified `a` inside the subquery shadows the outer one). With
/// `indexed`, `i.k` carries a secondary index and a qualifying `EXISTS`
/// probes it; without it the probe runs over the heap. The one-row table
/// `unit` is what [`interpreted`] joins into a subquery to keep it from
/// qualifying at all.
fn probe_db(outer: &[OuterRow], inner: &[InnerRow], indexed: bool) -> Database {
    let mut db = Database::in_memory();
    db.execute("create table o (ok int, a int, g int, s text)")
        .unwrap();
    db.execute("create table i (k int, a int, b int, s text)")
        .unwrap();
    db.execute("create table unit (u int)").unwrap();
    db.load_table("unit", vec![vec![Value::Int(0)]]).unwrap();
    if indexed {
        db.execute("create index ik on i (k)").unwrap();
    }
    let o_rows = outer
        .iter()
        .map(|(ok, a, g)| {
            vec![
                opt_int(*ok),
                opt_int(*a),
                Value::Int((*g % 2) as i64),
                Value::Str(format!("s{}", g % 3)),
            ]
        })
        .collect();
    let i_rows = inner
        .iter()
        .map(|(k, a, b)| {
            vec![
                opt_int(*k),
                opt_int(*a),
                opt_int(*b),
                b.map_or(Value::Null, |b| Value::Str(format!("s{}", b % 3))),
            ]
        })
        .collect();
    db.load_table("o", o_rows).unwrap();
    db.load_table("i", i_rows).unwrap();
    db
}

/// The same statement with every subquery over `i` cross-joined to the
/// one-row `unit`: the same rows, but two tables in FROM, so `run_select`
/// executes it with the frame stack — the interpreted reference.
fn interpreted(sql: &str) -> String {
    sql.replace("from i ", "from unit, i ")
}

fn nullable(range: std::ops::Range<i64>) -> impl Strategy<Value = Option<i64>> {
    proptest::option::of(range)
}

/// Keys come from a narrow range so index buckets hold several rows.
fn probe_rows_strategy() -> impl Strategy<Value = (Vec<OuterRow>, Vec<InnerRow>)> {
    (
        proptest::collection::vec((nullable(0..8), nullable(0..6), any::<u8>()), 0..40),
        proptest::collection::vec((nullable(0..8), nullable(0..6), nullable(0..6)), 0..60),
    )
}

/// `(statement, parameter count)`. No statement here pairs a nullable
/// conjunct with a later failing one: that is the one place the probe
/// (interpreter order, continue past NULL) and `run_select` (conjuncts
/// split, stop at the first non-true) legitimately differ, and it is
/// pinned by hand in `exists_probe_corner_cases`.
const PROBE_FAMILY: &[(&str, usize)] = &[
    (
        "select ok, a from o where exists (select * from i where i.k = o.ok)",
        0,
    ),
    // NULL outer key, NULL inner comparison column.
    (
        "select ok, a from o where not exists (select * from i where i.k = o.ok and i.b > o.a)",
        0,
    ),
    // Unqualified `a` resolves to the inner table, shadowing `o.a`.
    (
        "select ok, a from o where exists (select * from i where i.k = o.ok and a > $1)",
        1,
    ),
    // Outer side written on the left; inner column against inner column.
    (
        "select ok, a from o \
         where exists (select 1 from i where o.ok = i.k and i.b <> o.a and i.a < i.b)",
        0,
    ),
    // Under OR: reached through the framed evaluator's memo.
    (
        "select ok, a from o \
         where g = 1 or not exists (select * from i where i.k = o.ok and i.b >= $1)",
        1,
    ),
    // In a projection, keyed by an expression with a bound parameter.
    (
        "select ok, case when exists (select k from i where i.k = o.ok + $1) \
         then 1 else 0 end as e from o",
        1,
    ),
    // Inside a derived table.
    (
        "select count(*) as n from \
         (select ok from o where exists (select * from i where i.k = o.ok and i.b > $1)) d",
        1,
    ),
    // Text against int: a TypeError as soon as a candidate reaches it.
    (
        "select ok, a from o where exists (select * from i where i.k = o.ok and i.s > o.a)",
        0,
    ),
    // The Q21 shape: a semi- and an anti-probe on one scan.
    (
        "select ok, a from o \
         where exists (select * from i i2 where i2.k = o.ok and i2.a <> o.a) \
         and not exists (select * from i i3 \
                         where i3.k = o.ok and i3.a <> o.a and i3.b > i3.a)",
        0,
    ),
    // `a` is the *inner* column here, so this is uncorrelated: true for
    // every outer row as soon as some inner row has k = a.
    (
        "select count(*) as n from o where exists (select * from i where i.k = a)",
        0,
    ),
];

/// Rows, or the error's class.
fn outcome(r: Result<QueryOutput, EngineError>) -> Result<Vec<Vec<Value>>, String> {
    match r {
        Ok(out) => Ok(out.rows),
        Err(e) => Err(format!("{:?}", std::mem::discriminant(&e))),
    }
}

/// What the probe must do for `exists (… i.k = o.ok [and i.b > o.a])`, from
/// the data alone: whether it finds a match, and how many candidates it
/// fetches on the way (index bucket in insertion order, NULL keys included,
/// stop at the first match).
fn model_probe(ok: Option<i64>, a: Option<i64>, inner: &[InnerRow], with_b: bool) -> (bool, u64) {
    let mut fetched = 0;
    for (k, _, b) in inner.iter().filter(|(k, ..)| *k == ok) {
        fetched += 1;
        let key_true = k.is_some();
        let b_true = !with_b || matches!((b, a), (Some(b), Some(a)) if b > &a);
        if key_true && b_true {
            return (true, fetched);
        }
    }
    (false, fetched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every statement of the family answers with the same rows — or fails
    /// with the same error class — through the index probe, on the text and
    /// the bound path and under every `enable_kernel` × `enable_batch_exec`
    /// × `parallel_workers` setting, and through the un-keyed probe on an
    /// index-less copy of the data, as the interpreted `run_select`
    /// reference does.
    #[test]
    fn exists_probe_matches_interpreted_reference(
        tables in probe_rows_strategy(),
        query_idx in 0usize..PROBE_FAMILY.len(),
        p in 0i64..6,
    ) {
        let (outer, inner) = tables;
        let (template, n_params) = PROBE_FAMILY[query_idx];
        let params = vec![Value::Int(p); n_params];
        let text = render(template, &params);
        let plain = probe_db(&outer, &inner, false);
        let want = outcome(plain.query(&interpreted(&text)));
        prop_assert_eq!(&outcome(plain.query(&text)), &want, "un-keyed≡interpreted: {}", &text);

        let db = probe_db(&outer, &inner, true);
        db.query("set parallel_workers = 1").unwrap();
        let serial = db.query(&text);
        prop_assert_eq!(&outcome(serial.clone()), &want, "probe≡interpreted: {}", &text);
        for workers in [1usize, 2, 4] {
            db.query(&format!("set parallel_workers = {workers}")).unwrap();
            for kernel in ["on", "off"] {
                db.query(&format!("set enable_kernel = {kernel}")).unwrap();
                for batch in ["on", "off"] {
                    db.query(&format!("set enable_batch_exec = {batch}")).unwrap();
                    let what = format!("kernel {kernel}, batch {batch}, workers {workers}: {text}");
                    let got = db.query(&text);
                    let bound = db.query_bound(template, &params);
                    match (&serial, &got, &bound) {
                        (Ok(s), Ok(g), Ok(b)) => {
                            assert_identical(g, s, &what);
                            assert_identical(b, s, &format!("bound, {what}"));
                        }
                        _ => {
                            prop_assert_eq!(&outcome(got), &want, "{}", &what);
                            prop_assert_eq!(&outcome(bound), &want, "bound, {}", &what);
                        }
                    }
                }
            }
        }
    }

    /// Rows and work counters of the two plainest probes against a model
    /// computed from the data alone: one `index_probes` bump per outer row,
    /// one page touch per candidate fetched up to the first match.
    #[test]
    fn exists_probe_rows_and_counters_match_the_data_model(
        tables in probe_rows_strategy(),
        anti_with_b in any::<bool>(),
    ) {
        let (outer, inner) = tables;
        let db = probe_db(&outer, &inner, true);
        db.query("set parallel_workers = 1").unwrap();
        let sql = PROBE_FAMILY[anti_with_b as usize].0;
        let out = db.query(sql).unwrap();
        let mut rows = Vec::new();
        let mut fetched = 0;
        for (ok, a, _) in &outer {
            let (found, n) = model_probe(*ok, *a, &inner, anti_with_b);
            fetched += n;
            // Template 0 is EXISTS, template 1 NOT EXISTS.
            if found != anti_with_b {
                rows.push(vec![opt_int(*ok), opt_int(*a)]);
            }
        }
        prop_assert_eq!(&out.rows, &rows, "{}", sql);
        prop_assert_eq!(out.stats.index_probes, outer.len() as u64);
        prop_assert_eq!(out.stats.rows_scanned, outer.len() as u64);
        // One charge per predicate evaluation, one per projected row.
        prop_assert_eq!(out.stats.cpu_tuple_ops, (outer.len() + rows.len()) as u64);
        let outer_pages = db.table("o").unwrap().pages();
        prop_assert_eq!(out.stats.buffer.accesses(), outer_pages + fetched);
    }
}

/// The fixed two-table data set the pinned counters below were recorded on.
fn fixed_probe_tables() -> (Vec<OuterRow>, Vec<InnerRow>) {
    let outer = (0..30i64)
        .map(|n| {
            (
                (n % 7 != 6).then_some(n % 8),
                (n % 5 != 4).then_some(n % 6),
                n as u8,
            )
        })
        .collect();
    let inner = (0..50i64)
        .map(|n| {
            (
                (n % 9 != 8).then_some((n * 3) % 8),
                (n % 4 != 3).then_some((n * 5) % 6),
                (n % 6 != 5).then_some((n * 7) % 6),
            )
        })
        .collect();
    (outer, inner)
}

/// `ExecStats` of the probe are the parent's, to the page touch: the
/// counters below were recorded by running these statements on the commit
/// before the probe existed (e61a1d8, whose `eval_exists` re-analysed the
/// subquery per outer row and then probed the same index). The second set
/// is after a delete, which leaves the index buckets in `swap_remove`
/// order rather than heap order.
#[test]
fn exists_probe_counters_equal_the_parents() {
    /// `(rows, rows_scanned, cpu_tuple_ops, index_probes, page accesses)`.
    type Pinned = (usize, u64, u64, u64, u64);
    const STATEMENTS: &[(&str, Pinned, Pinned)] = &[
        (
            "select ok, a from o where exists (select * from i where i.k = o.ok)",
            (26, 30, 56, 30, 47),
            (26, 30, 56, 30, 47),
        ),
        (
            "select ok, a from o where not exists (select * from i where i.k = o.ok and i.b > o.a)",
            (21, 30, 51, 30, 135),
            (21, 30, 51, 30, 129),
        ),
        (
            "select ok, a from o where exists (select * from i where i.k = o.ok and a > 2)",
            (19, 30, 49, 30, 103),
            (19, 30, 49, 30, 103),
        ),
        (
            "select ok, a from o \
             where exists (select 1 from i where o.ok = i.k and i.b <> o.a and i.a < i.b)",
            (6, 30, 36, 30, 147),
            (6, 30, 36, 30, 141),
        ),
        (
            "select ok, a from o \
             where g = 1 or not exists (select * from i where i.k = o.ok and i.b >= 2)",
            (17, 30, 47, 15, 32),
            (17, 30, 47, 15, 32),
        ),
        (
            "select ok, case when exists (select k from i where i.k = o.ok + 2) \
             then 1 else 0 end as e from o",
            (30, 30, 30, 30, 42),
            (30, 30, 30, 30, 42),
        ),
        (
            "select count(*) as n from \
             (select ok from o where exists (select * from i where i.k = o.ok and i.b > 2)) d",
            (1, 30, 82, 30, 73),
            (1, 30, 76, 30, 79),
        ),
        (
            "select ok, a from o \
             where exists (select * from i i2 where i2.k = o.ok and i2.a <> o.a) \
             and not exists (select * from i i3 \
                             where i3.k = o.ok and i3.a <> o.a and i3.b > i3.a)",
            (8, 30, 53, 45, 163),
            (8, 30, 53, 45, 159),
        ),
    ];
    let (outer, inner) = fixed_probe_tables();
    let mut db = probe_db(&outer, &inner, true);
    let mut plain = probe_db(&outer, &inner, false);
    db.query("set parallel_workers = 1").unwrap();
    for after_delete in [false, true] {
        if after_delete {
            for d in [&mut db, &mut plain] {
                d.execute("delete from i where k = 3 and a = 3").unwrap();
            }
        }
        for (sql, before, after) in STATEMENTS {
            let want = if after_delete { after } else { before };
            let out = db.query(sql).unwrap();
            let got = (
                out.rows.len(),
                out.stats.rows_scanned,
                out.stats.cpu_tuple_ops,
                out.stats.index_probes,
                out.stats.buffer.accesses(),
            );
            assert_eq!(&got, want, "after_delete={after_delete}: {sql}");
            assert_eq!(out.rows, plain.query(sql).unwrap().rows, "{sql}");
            assert_eq!(
                out.rows,
                plain.query(&interpreted(sql)).unwrap().rows,
                "{sql}"
            );
        }
    }
}

/// The corners of the probe's contract, each with its expected outcome
/// derived by hand.
#[test]
fn exists_probe_corner_cases() {
    let class = |r: Result<QueryOutput, EngineError>| outcome(r).map(|rows| rows.len());
    let type_error = Err(format!(
        "{:?}",
        std::mem::discriminant(&EngineError::TypeError(String::new()))
    ));
    // One outer row (ok = 1, a = 1, s = 's0'); the inner rows vary.
    // `b` takes any value: the engine is dynamically typed, so a text
    // value in the int column is how one candidate fails where another
    // compares.
    let build = |inner: &[(i64, Value, &str)], indexed: bool| {
        let mut db = probe_db(&[(Some(1), Some(1), 0)], &[], indexed);
        let rows = inner
            .iter()
            .map(|(k, b, s)| {
                vec![
                    Value::Int(*k),
                    Value::Int(0),
                    b.clone(),
                    Value::Str(s.to_string()),
                ]
            })
            .collect();
        db.load_table("i", rows).unwrap();
        db
    };

    // `NULL AND <error>`: the interpreter's AND stops at false, not at
    // NULL, so a NULL comparison lets the failing one after it run …
    let null_then_error = "select ok from o where exists \
        (select * from i where i.k = o.ok and i.b > o.a and i.s > o.a)";
    assert_eq!(
        class(build(&[(1, Value::Null, "x")], true).query(null_then_error)),
        type_error
    );
    // … a false one does not …
    assert_eq!(
        class(build(&[(1, Value::Int(0), "x")], true).query(null_then_error)),
        Ok(0)
    );
    // … and a candidate that matches first ends the probe before a later
    // candidate can fail, with or without an index to find them through.
    let match_first = "select ok from o where exists \
        (select * from i where i.k = o.ok and i.b > o.a)";
    let two = [(1, Value::Int(5), "x"), (1, Value::Str("five".into()), "x")];
    assert_eq!(class(build(&two, true).query(match_first)), Ok(1));
    assert_eq!(class(build(&two, false).query(match_first)), Ok(1));
    let failing_first = [two[1].clone(), two[0].clone()];
    assert_eq!(
        class(build(&failing_first, false).query(match_first)),
        type_error
    );
    // The un-keyed probe evaluates the same AND chain over heap rows.
    assert_eq!(
        class(build(&[(1, Value::Null, "x")], false).query(null_then_error)),
        type_error
    );

    // A key of the wrong type finds no bucket: no candidates, no error
    // (the un-keyed probe compares it with the first row and fails).
    let text_key = "select ok from o where exists (select * from i where i.k = o.s)";
    let db = build(&[(1, Value::Int(1), "x")], true);
    db.query("set parallel_workers = 1").unwrap();
    let out = db.query(text_key).unwrap();
    assert_eq!(
        (
            out.rows.len(),
            out.stats.index_probes,
            out.stats.buffer.accesses()
        ),
        (0, 1, 1)
    );
    assert_eq!(
        class(build(&[(1, Value::Int(1), "x")], false).query(text_key)),
        type_error
    );

    // A key expression that fails to evaluate makes the evaluation un-keyed:
    // it fails when (and only when) an inner row reaches the comparison.
    let bad_key = "select ok from o where exists (select * from i where i.k = -o.s)";
    assert_eq!(
        class(build(&[(1, Value::Int(1), "x")], true).query(bad_key)),
        type_error
    );
    assert_eq!(class(build(&[], true).query(bad_key)), Ok(0));

    // Empty inner table: one probe per outer row, nothing fetched.
    let (outer, _) = fixed_probe_tables();
    let db = probe_db(&outer, &[], true);
    db.query("set parallel_workers = 1").unwrap();
    let outer_pages = db.table("o").unwrap().pages();
    for (sql, rows) in [(PROBE_FAMILY[0].0, 0), (PROBE_FAMILY[1].0, outer.len())] {
        let out = db.query(sql).unwrap();
        assert_eq!(out.rows.len(), rows, "{sql}");
        assert_eq!(out.stats.index_probes, outer.len() as u64, "{sql}");
        assert_eq!(out.stats.buffer.accesses(), outer_pages, "{sql}");
    }

    // Which path each family member takes: the top-level conjuncts are
    // probes by index on the indexed copy and over the heap on the plain
    // one; the shadowed key of the last member is no correlation at all.
    let (outer, inner) = fixed_probe_tables();
    let db = probe_db(&outer, &inner, true);
    let plain = probe_db(&outer, &inner, false);
    let plan = |db: &Database, sql: &str| -> String {
        let out = db.query(&format!("explain {sql}")).unwrap();
        out.rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    for idx in [0, 1, 2, 3, 6, 7, 8] {
        let sql = render(PROBE_FAMILY[idx].0, &[Value::Int(2)]);
        let (keyed, unkeyed) = (plan(&db, &sql), plan(&plain, &sql));
        assert!(
            keyed.contains("-probe i") && keyed.contains("via index(k)"),
            "{sql}"
        );
        assert!(
            unkeyed.contains("-probe i") && unkeyed.contains("via seq scan"),
            "{sql}"
        );
        assert!(
            plan(&plain, &interpreted(&sql)).contains("subquery (interpreted)"),
            "{sql}"
        );
    }
    let under_or = render(PROBE_FAMILY[4].0, &[Value::Int(2)]);
    assert!(plan(&db, &under_or).contains("anti-probe i via index(k) (memo)"));
    let shadowed = PROBE_FAMILY[9].0;
    assert!(!plan(&db, shadowed).contains("via index"), "{shadowed}");
    assert_eq!(db.query(shadowed).unwrap().stats.index_probes, 0);
}

/// Q4 and Q21 under both benchmark parameter sets against formulations
/// decorrelated by hand into joins and group-bys — an oracle that shares
/// no code with the subquery machinery — with the work counters pinned to
/// the ones the parent commit (e61a1d8) reported for the same statements.
#[test]
fn tpch_q4_q21_match_decorrelated_oracles_and_the_parents_counters() {
    let data = generate(TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    db.query("set parallel_workers = 1").unwrap();
    // (rows_scanned, cpu_tuple_ops, index_probes, page accesses) of
    // (Q4, Q21) under the validation parameters and the benchmark's second
    // parameter set.
    type Pinned = (u64, u64, u64, u64);
    let sets: [(QueryParams, Pinned, Pinned); 2] = [
        (
            QueryParams::default(),
            (15_000, 27_730, 559, 1_060),
            (75_740, 165_097, 75_698, 117_436),
        ),
        (
            QueryParams::random(0x5EED_0001),
            (15_000, 28_832, 572, 1_070),
            (75_740, 165_156, 75_698, 117_436),
        ),
    ];
    let pinned = |out: &QueryOutput| {
        (
            out.stats.rows_scanned,
            out.stats.cpu_tuple_ops,
            out.stats.index_probes,
            out.stats.buffer.accesses(),
        )
    };
    for (p, q4_counters, q21_counters) in sets {
        let q4 = db.query(&ALL_QUERIES[2].sql(&p)).unwrap();
        // An order qualifies when it has a late lineitem: join with the
        // distinct order keys of late lineitems.
        let q4_oracle = db
            .query(&format!(
                "select o_orderpriority, count(*) as order_count \
                 from orders, \
                      (select l_orderkey as late_key from lineitem \
                       where l_commitdate < l_receiptdate group by l_orderkey) late \
                 where o_orderkey = late.late_key \
                   and o_orderdate >= date '{y}-{m:02}-01' \
                   and o_orderdate < date '{y}-{m:02}-01' + interval '3' month \
                 group by o_orderpriority order by o_orderpriority",
                y = p.q4_year,
                m = p.q4_month
            ))
            .unwrap();
        assert!(!q4.rows.is_empty());
        assert_eq!(q4.rows, q4_oracle.rows, "Q4");
        assert_eq!(pinned(&q4), q4_counters, "Q4 counters");

        let q21 = db.query(&ALL_QUERIES[7].sql(&p)).unwrap();
        // l1 is late and in its order, so: another supplier in the order
        // ⇔ the order has > 1 distinct suppliers; no *other* late supplier
        // ⇔ the order's late lineitems have exactly 1 distinct supplier.
        let q21_oracle = db
            .query(&format!(
                "select s_name, count(*) as numwait \
                 from supplier, lineitem l1, orders, nation, \
                      (select l_orderkey as all_key, count(distinct l_suppkey) as suppliers \
                       from lineitem group by l_orderkey) every, \
                      (select l_orderkey as late_key, count(distinct l_suppkey) as late_suppliers \
                       from lineitem where l_receiptdate > l_commitdate group by l_orderkey) late \
                 where s_suppkey = l1.l_suppkey \
                   and o_orderkey = l1.l_orderkey \
                   and o_orderstatus = 'F' \
                   and l1.l_receiptdate > l1.l_commitdate \
                   and every.all_key = l1.l_orderkey and every.suppliers > 1 \
                   and late.late_key = l1.l_orderkey and late.late_suppliers = 1 \
                   and s_nationkey = n_nationkey \
                   and n_name = '{}' \
                 group by s_name order by numwait desc, s_name limit 100",
                p.q21_nation
            ))
            .unwrap();
        assert!(!q21.rows.is_empty());
        assert_eq!(q21.rows, q21_oracle.rows, "Q21");
        assert_eq!(pinned(&q21), q21_counters, "Q21 counters");
    }
}
