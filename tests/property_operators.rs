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
//! 4. **Join block** — generated 2–4-table joins against the same
//!    statement with every base table wrapped as a derived table (the
//!    un-pruned, whole-row path), the join table's key semantics by hand,
//!    governed cross joins, memory accounting, and the evaluation set's
//!    join queries pinned to the parent commit's rows and counters.

use proptest::prelude::*;

use apuama_engine::{Database, EngineError, QueryGovernor, QueryOutput, ReadRequest};
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
    // scans span several stored segments; range queries over the generated
    // keys keep seeing exactly the generated rows.
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
/// results are byte-identical regardless of how partial sums associate.
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

    /// For every generated statement, all four executions — text and
    /// bound, fusion rewrite on and off — are byte-identical in rows and
    /// work counters.
    #[test]
    fn pipeline_identical_across_kernel_toggle_and_bind_path(
        rows in rows_strategy(),
        query_idx in 0usize..FAMILY.len(),
        lo in 0i64..400,
        width in 1i64..400,
        qty in 0i64..100,
    ) {
        let (template, n_params) = FAMILY[query_idx];
        let db = cluster_db(&rows);
        let params = params_for(n_params, lo, lo + width, qty);
        let text = render(template, &params);

        let text_on = db.query(&text).unwrap();
        let bound_on = db.query_bound(template, &params).unwrap();
        db.query("set enable_kernel = off").unwrap();
        let text_off = db.query(&text).unwrap();
        let bound_off = db.query_bound(template, &params).unwrap();

        assert_identical(&bound_on, &text_on, &format!("bound≡text, kernel on: {text}"));
        assert_identical(&bound_off, &text_off, &format!("bound≡text, kernel off: {text}"));
        assert_identical(&text_off, &text_on, &format!("kernel off≡on: {text}"));
    }
}

/// ORDER BY is stable: rows whose sort keys tie on every component come
/// out in input (clustered-key) order — across more than one scan batch,
/// at any worker count, and on the bound path.
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
    let out = db.query(sql).unwrap();
    assert_eq!(out.rows, expected, "ties must keep input order");
    let bound = db.query_bound(sql, &[]).unwrap();
    assert_eq!(bound.rows, expected, "bound path");
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
    assert_eq!(desc.rows, expected_desc, "desc ties");
}

/// Columnar-fold edge cases (DESIGN.md §13). Each statement must answer
/// with the rows computed here from the data alone, and byte-identically —
/// rows and counters — on the fused shape (whose inner loop is the
/// columnar fold wherever a batch allows it) and the general tree, text and
/// bound:
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
    let q_of = |k: i64| (k % 3 == 0).then_some(k % 50);
    let p_of = |k: i64| {
        if k % 2 == 0 {
            Value::Int(k % 89)
        } else {
            Value::Float((k % 89) as f64 * 0.25)
        }
    };
    let f_of = |k: i64| (k % 11 != 0).then(|| format!("F{}", k % 3));
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|k| {
            vec![
                Value::Int(k),
                opt_int(q_of(k)),
                p_of(k),
                f_of(k).map_or(Value::Null, Value::Str),
            ]
        })
        .collect();
    db.load_table("edge", rows).unwrap();

    // The answers, from the data alone. NULL is the first group under
    // `order by f`, as `None` is the first key of the map.
    let group_key = |f: &Option<String>| f.clone().map_or(Value::Null, Value::Str);
    let mut by_f: std::collections::BTreeMap<Option<String>, Vec<i64>> = Default::default();
    for k in 0..3000i64 {
        by_f.entry(f_of(k)).or_default().push(k);
    }
    let null_heavy: Vec<Vec<Value>> = by_f
        .iter()
        .map(|(f, ks)| {
            // q is NULL throughout F1 and F2 (it is set where k % 3 == 0):
            // an all-NULL column sums and averages to NULL.
            let qs: Vec<i64> = ks.iter().filter_map(|&k| q_of(k)).collect();
            let sum: i64 = qs.iter().sum();
            let (s, a) = if qs.is_empty() {
                (Value::Null, Value::Null)
            } else {
                (Value::Int(sum), Value::Float(sum as f64 / qs.len() as f64))
            };
            vec![
                group_key(f),
                Value::Int(ks.len() as i64),
                Value::Int(qs.len() as i64),
                s,
                a,
            ]
        })
        .collect();
    let as_f64 = |v: &Value| v.as_f64().unwrap();
    let mixed: Vec<Vec<Value>> = by_f
        .iter()
        .map(|(f, ks)| {
            let ps: Vec<Value> = (ks.iter().map(|&k| p_of(k)))
                .filter(|p| as_f64(p) >= 1.0)
                .collect();
            // Strict comparisons: of equal values the first seen is kept,
            // Int or Float as it was stored.
            let pick = |better: fn(f64, f64) -> bool| {
                ps.iter()
                    .fold(None::<&Value>, |cur, p| match cur {
                        Some(c) if !better(as_f64(p), as_f64(c)) => Some(c),
                        _ => Some(p),
                    })
                    .unwrap()
                    .clone()
            };
            vec![
                group_key(f),
                Value::Float(ps.iter().map(as_f64).sum()),
                pick(|a, b| a < b),
                pick(|a, b| a > b),
            ]
        })
        .collect();
    let nothing = vec![vec![Value::Int(0), Value::Null]];

    let cases: &[(&str, &Vec<Vec<Value>>)] = &[
        // Empty batches: the range matches no rows at all.
        (
            "select count(*) as n, sum(q) as s from edge where k >= 90000 and k < 90010",
            &nothing,
        ),
        // All rows filtered: the residual predicate kills every row the
        // scan produces, so the selection vector drains to empty.
        (
            "select count(*) as n, sum(q) as s from edge where k >= 0 and k < 3000 and q > 100",
            &nothing,
        ),
        // NULL-heavy aggregation: count/sum/avg skip the invalid slots,
        // count(*) counts them.
        (
            "select f, count(*) as n, count(q) as nq, sum(q) as s, avg(q) as a \
             from edge where k >= 0 and k < 3000 group by f order by f",
            &null_heavy,
        ),
        // Mixed Int/Float widening under both predicate and aggregate.
        (
            "select f, sum(p) as s, min(p) as lo, max(p) as hi from edge \
             where k >= 0 and k < 3000 and p >= 1 group by f order by f",
            &mixed,
        ),
    ];
    for (sql, answer) in cases {
        // Reference: the general tree.
        db.query("set enable_kernel = off").unwrap();
        let want = db.query(sql).unwrap();
        assert_eq!(&want.rows, *answer, "{sql}");
        for kernel in ["on", "off"] {
            db.query(&format!("set enable_kernel = {kernel}")).unwrap();
            let what = format!("kernel {kernel}: {sql}");
            assert_identical(&db.query(sql).unwrap(), &want, &what);
            assert_identical(&db.query_bound(sql, &[]).unwrap(), &want, &what);
        }
    }
}

/// The full TPC-H evaluation-query set answers byte-identically — rows and
/// counters — with the fusion rewrite enabled and disabled.
#[test]
fn tpch_eval_queries_identical_with_kernel_on_and_off() {
    let data = generate(TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    let params = QueryParams::default();
    for q in ALL_QUERIES {
        let sql = q.sql(&params);
        db.query("set enable_kernel = on").unwrap();
        let on = db.query(&sql).unwrap();
        db.query("set enable_kernel = off").unwrap();
        let off = db.query(&sql).unwrap();
        assert!(!on.columns.is_empty(), "{}", q.label());
        assert_identical(&on, &off, &q.label());
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
    /// the bound path and under either `enable_kernel` setting, and through
    /// the un-keyed probe on an
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
        let first = db.query(&text);
        prop_assert_eq!(&outcome(first.clone()), &want, "probe≡interpreted: {}", &text);
        for kernel in ["on", "off"] {
            db.query(&format!("set enable_kernel = {kernel}")).unwrap();
            let what = format!("kernel {kernel}: {text}");
            let got = db.query(&text);
            let bound = db.query_bound(template, &params);
            match (&first, &got, &bound) {
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

/// `(evaluations, candidates, matches)` of the one probe line of an
/// `EXPLAIN ANALYZE`.
fn probe_counters(db: &Database, sql: &str) -> (u64, u64, u64) {
    let plan = db.query(&format!("explain analyze {sql}")).unwrap();
    let line = (plan.rows.iter())
        .map(|r| r[0].as_str().unwrap())
        .find(|l| l.contains("-probe i via index(k)"))
        .unwrap_or_else(|| panic!("{:?}", plan.rows));
    let field = |name: &str| -> u64 {
        let rest = &line[line.find(name).unwrap() + name.len()..];
        rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap()]
            .parse()
            .unwrap()
    };
    (
        field("evaluations="),
        field("candidates="),
        field("matches="),
    )
}

/// A scan's probe remembers the last key it looked up and reuses the
/// postings while the next outer row carries an equal key. Outer keys that
/// repeat, alternate and go NULL answer exactly like the probe that
/// remembers nothing — the framed evaluator's, which `EXISTS` under `OR`
/// reaches through the per-execution memo — row for row and counter for
/// counter, and nothing is remembered from one statement to the next: the
/// index changes between two, and both probes see it.
#[test]
fn exists_probe_key_memo_matches_the_unmemoized_probe() {
    let keys = [5, 5, 5, 1, 2, 1, 2, -1, -1, 5, 7, 7, 2, 2, 5];
    let outer: Vec<OuterRow> = keys
        .iter()
        .map(|&k| ((k >= 0).then_some(k), Some(1), 0))
        .collect();
    let mut inner: Vec<InnerRow> = vec![
        (Some(5), None, Some(0)),
        (Some(5), None, Some(2)),
        (Some(5), None, Some(9)),
        (Some(1), None, Some(5)),
        (Some(2), None, Some(1)),
        (Some(2), None, Some(1)),
        (None, None, Some(7)),
        (None, None, Some(7)),
    ];
    let mut db = probe_db(&outer, &inner, true);
    let subquery = "(select * from i where i.k = o.ok and i.b > o.a)";
    for negated in ["", "not "] {
        let memoized = format!("select ok from o where {negated}exists {subquery}");
        let unmemoized = format!("select ok from o where {negated}exists {subquery} or 1 = 0");
        for round in 0..2 {
            let (a, b) = (db.query(&memoized).unwrap(), db.query(&unmemoized).unwrap());
            // From the data: which outer rows match, how many candidates
            // each evaluation fetches.
            let model: Vec<(bool, u64)> = outer
                .iter()
                .map(|(ok, a, _)| model_probe(*ok, *a, &inner, true))
                .collect();
            let want: Vec<Vec<Value>> = outer
                .iter()
                .zip(&model)
                .filter(|(_, (found, _))| *found == negated.is_empty())
                .map(|((ok, ..), _)| vec![opt_int(*ok)])
                .collect();
            assert_eq!(a.rows, want, "{memoized}, round {round}");
            assert_eq!(b.rows, want, "{unmemoized}, round {round}");
            let counters = (
                outer.len() as u64,
                model.iter().map(|(_, fetched)| fetched).sum::<u64>(),
                model.iter().filter(|(found, _)| *found).count() as u64,
            );
            assert_eq!(probe_counters(&db, &memoized), counters, "{memoized}");
            assert_eq!(probe_counters(&db, &unmemoized), counters, "{unmemoized}");
            // One index probe per evaluation, remembered key or not, and
            // the same heap fetches.
            assert_eq!(a.stats.index_probes, outer.len() as u64);
            assert_eq!(b.stats.index_probes, outer.len() as u64);
            assert_eq!(a.stats.buffer.accesses(), b.stats.buffer.accesses());

            // Between the statements the index changes under a key the
            // probe looked up last: 5 loses its only match, 7 gains one.
            if round == 0 && negated.is_empty() {
                db.execute("delete from i where k = 5 and b > 1").unwrap();
                db.execute("insert into i values (7, null, 3, 'z')")
                    .unwrap();
                inner.retain(|(k, _, b)| !(*k == Some(5) && b.is_some_and(|b| b > 1)));
                inner.push((Some(7), None, Some(3)));
            }
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
/// the ones the parent commit (e61a1d8) reported for the same statements
/// (Q21's `cpu_tuple_ops` re-recorded with
/// `tpch_join_queries_match_the_parents_rows_and_counters`' since, the
/// last time for the key filters on its driving scan).
#[test]
fn tpch_q4_q21_match_decorrelated_oracles_and_the_parents_counters() {
    let data = generate(TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    // (rows_scanned, cpu_tuple_ops, index_probes, page accesses) of
    // (Q4, Q21) under the validation parameters and the benchmark's second
    // parameter set.
    type Pinned = (u64, u64, u64, u64);
    let sets: [(QueryParams, Pinned, Pinned); 2] = [
        (
            QueryParams::default(),
            (15_000, 27_730, 559, 1_060),
            (75_740, 125_172, 709, 2_862),
        ),
        (
            QueryParams::random(0x5EED_0001),
            (15_000, 28_832, 572, 1_070),
            (75_740, 130_848, 1_825, 4_541),
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

// ---------------------------------------------------------------------------
// The join block: column pruning at the scan, one chained join table
// ---------------------------------------------------------------------------

/// `(key or NULL, small value or NULL, payload byte)` — one generated row of
/// any of the three join tables.
type JoinRow = (Option<i64>, Option<i64>, u8);

/// Four tables for 2–4-way joins. `a.x` and `b.x` share a name (so an
/// unqualified `x` is ambiguous), `b.a_id` and `c.b_id` are nullable
/// foreign keys with duplicates, `u` has one row. `b` is padded with 2500
/// rows that join nothing, so its scan spans several stored segments.
fn join_db(a: &[JoinRow], b: &[JoinRow], c: &[JoinRow]) -> Database {
    let mut db = Database::in_memory();
    db.execute("create table a (ak int, x int, s text, v float)")
        .unwrap();
    db.execute("create table b (bk int, a_id int, x int, y int)")
        .unwrap();
    db.execute("create table c (ck int, b_id int, z int, t text)")
        .unwrap();
    db.execute("create table u (one int)").unwrap();
    db.execute("create table sink (n int, s float)").unwrap();
    db.load_table("u", vec![vec![Value::Int(1)]]).unwrap();
    let a_rows = a
        .iter()
        .enumerate()
        .map(|(i, (_, x, g))| {
            vec![
                Value::Int(i as i64),
                opt_int(*x),
                Value::Str(format!("s{}", g % 3)),
                Value::Float(*g as f64 * 0.25),
            ]
        })
        .collect();
    let mut b_rows: Vec<Vec<Value>> = b
        .iter()
        .enumerate()
        .map(|(i, (a_id, x, g))| {
            vec![
                Value::Int(i as i64),
                opt_int(*a_id),
                opt_int(*x),
                Value::Int((*g % 8) as i64),
            ]
        })
        .collect();
    for k in 0..2500i64 {
        b_rows.push(vec![
            Value::Int(1_000 + k),
            Value::Int(100_000 + k),
            Value::Null,
            Value::Int(-1),
        ]);
    }
    let c_rows = c
        .iter()
        .enumerate()
        .map(|(i, (b_id, z, g))| {
            vec![
                Value::Int(i as i64),
                opt_int(*b_id),
                opt_int(*z),
                Value::Str(format!("t{}", g % 2)),
            ]
        })
        .collect();
    db.load_table("a", a_rows).unwrap();
    db.load_table("b", b_rows).unwrap();
    db.load_table("c", c_rows).unwrap();
    db
}

fn join_rows_strategy() -> impl Strategy<Value = (Vec<JoinRow>, Vec<JoinRow>, Vec<JoinRow>)> {
    let rows = |keys: i64, n: usize| {
        proptest::collection::vec((nullable(0..keys), nullable(0..5), any::<u8>()), 0..n)
    };
    (rows(1, 12), rows(12, 30), rows(30, 30))
}

/// `table` as a derived table that selects every column by name: the same
/// rows under the same names, but an input the join block leaves alone
/// and joins at full width — the path every input took before there was
/// pruning. (By name because a derived `select *` does not tell the
/// planner its column names.)
fn whole_rows(db: &Database, table: &str, alias: &str) -> String {
    let columns: Vec<&str> = db
        .table(table)
        .unwrap()
        .schema
        .columns
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    format!("(select {} from {table}) {alias}", columns.join(", "))
}

/// Expands the FROM-item markers of a template: `@t` is base table `t`,
/// `@t=alias` the same under an alias. Without `wrap_in` that is the table
/// itself — a scan the join block prunes; with it, [`whole_rows`].
fn from_items(template: &str, wrap_in: Option<&Database>) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some(at) = rest.find('@') {
        out.push_str(&rest[..at]);
        rest = &rest[at + 1..];
        let ident = |s: &str| {
            s.find(|c: char| !c.is_ascii_alphanumeric())
                .unwrap_or(s.len())
        };
        let table = &rest[..ident(rest)];
        rest = &rest[table.len()..];
        let alias = rest.strip_prefix('=').map(|r| {
            let alias = &r[..ident(r)];
            rest = &r[alias.len()..];
            alias
        });
        out.push_str(&match (wrap_in, alias) {
            (None, None) => table.to_string(),
            (None, Some(alias)) => format!("{table} {alias}"),
            (Some(db), alias) => whole_rows(db, table, alias.unwrap_or(table)),
        });
    }
    out + rest
}

/// `(statement, parameter count)`; `$1` is a small integer.
const JOIN_FAMILY: &[(&str, usize)] = &[
    // Qualified and unqualified names.
    (
        "select a.ak, b.bk, b.y from @a, @b where a.ak = b.a_id and b.y > $1",
        1,
    ),
    (
        "select ak, y, z from @a, @b, @c where ak = a_id and bk = b_id and z > $1",
        1,
    ),
    // A name two inputs share: ambiguous unqualified, fine qualified.
    ("select x from @a, @b where ak = a_id", 0),
    (
        "select a.x, b.x, a.x + b.x as t from @a, @b where a.ak = b.a_id",
        0,
    ),
    // Columns used only in pushed-down filters.
    (
        "select a.ak, b.bk from @a, @b \
         where a.ak = b.a_id and a.s = 's1' and b.y < $1 and a.x is not null",
        1,
    ),
    // Only in HAVING; only in ORDER BY.
    (
        "select a.s, count(*) as n, sum(a.v) as sv from @a, @b where a.ak = b.a_id \
         group by a.s having max(b.y) > $1 order by a.s",
        1,
    ),
    (
        "select a.ak from @a, @b where a.ak = b.a_id order by b.y desc, b.bk, a.ak limit 7",
        0,
    ),
    // Only inside a correlated scalar subquery of the select list,
    // qualified and unqualified.
    (
        "select a.ak, (select max(c.z) from c where c.b_id = b.bk) as m \
         from @a, @b where a.ak = b.a_id",
        0,
    ),
    (
        "select a.ak, (select count(*) from c where b_id = bk and z >= $1) as n \
         from @a, @b where a.ak = b.a_id",
        1,
    ),
    // Only inside an EXISTS of a post-filter.
    (
        "select a.ak, b.bk from @a, @b where a.ak = b.a_id \
         and (b.y > $1 or exists (select * from c where c.b_id = b.bk and c.z > a.v))",
        1,
    ),
    // `*` keeps everything.
    ("select * from @a, @b where ak = a_id and y <= $1", 1),
    // An input that contributes no column.
    ("select count(*) as n from @a, @u", 0),
    (
        "select count(*) as n, sum(y) as s from @b, @u where y > $1",
        1,
    ),
    // A join inside a derived table.
    (
        "select d.s, d.n from (select a.s as s, count(*) as n from @a, @b \
                               where a.ak = b.a_id group by a.s) d \
         where d.n > $1 order by d.s",
        1,
    ),
    // Four inputs, one table twice.
    (
        "select a.ak, a2.s, c.z from @a, @b, @c, @a=a2 \
         where a.ak = b.a_id and b.bk = c.b_id and a2.ak = c.z",
        0,
    ),
    // An expression key; a composite key from two edges.
    ("select a.ak, b.bk from @a, @b where a.ak + 1 = b.a_id", 0),
    (
        "select a.ak, b.bk from @a, @b where a.ak = b.a_id and a.x = b.x",
        0,
    ),
    // No join predicate at all.
    ("select a.ak, u.one from @a, @u where a.ak < $1", 1),
    // A join inside a correlated subquery: the outer reference in a pushed
    // conjunct, and inside a join key (which then evaluates with frames).
    (
        "select a.ak from @a where exists \
         (select * from @b, @c where b.bk = c.b_id and b.a_id = a.ak and c.z > $1)",
        1,
    ),
    (
        "select a.ak from @a where exists \
         (select * from @b, @c where b.bk + a.ak = c.b_id)",
        0,
    ),
    // Text against int in a post-filter: a TypeError once a row gets there.
    (
        "select a.ak from @a, @b where a.ak = b.a_id and a.s > b.y",
        0,
    ),
    // DISTINCT, and an aggregate that reads nothing but the keys.
    (
        "select distinct a.s from @a, @b where a.ak = b.a_id order by a.s",
        0,
    ),
    (
        "select count(*) as n from @a, @b, @c where a.ak = b.a_id and b.bk = c.b_id",
        0,
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every statement of the family answers with the same rows in the
    /// same order — or fails with the same error class — as the same
    /// statement with every base table wrapped as a derived table, and,
    /// rows and work counters, the same on the text and the bound path
    /// under either `enable_kernel` setting.
    #[test]
    fn join_block_matches_the_unpruned_derived_table_form(
        tables in join_rows_strategy(),
        query_idx in 0usize..JOIN_FAMILY.len(),
        p in 0i64..6,
    ) {
        let (a, b, c) = tables;
        let (template, n_params) = JOIN_FAMILY[query_idx];
        let params = vec![Value::Int(p); n_params];
        let db = join_db(&a, &b, &c);
        let unpruned = render(&from_items(template, Some(&db)), &params);
        let template = from_items(template, None);
        let text = render(&template, &params);
        let want = outcome(db.query(&unpruned));
        let first = db.query(&text);
        prop_assert_eq!(&outcome(first.clone()), &want, "pruned≡unpruned: {}", &text);
        for kernel in ["on", "off"] {
            db.query(&format!("set enable_kernel = {kernel}")).unwrap();
            let what = format!("kernel {kernel}: {text}");
            let got = db.query(&text);
            let bound = db.query_bound(&template, &params);
            match (&first, &got, &bound) {
                (Ok(s), Ok(g), Ok(b)) => {
                    assert_identical(g, s, &what);
                    assert_identical(b, s, &format!("bound, {what}"));
                }
                _ => {
                    prop_assert_eq!(&outcome(got), &want, "{}", &what);
                    prop_assert_eq!(&outcome(bound), &want, "bound, {}", &what);
                }
            }
            prop_assert_eq!(&outcome(db.query(&unpruned)), &want, "unpruned, {}", &what);
        }
    }
}

/// A join evaluated for an `INSERT`: the engine has no `INSERT … SELECT`,
/// so the join sits in scalar subqueries of the VALUES list.
#[test]
fn join_inside_an_insert_matches_the_unpruned_form() {
    let rows: Vec<JoinRow> = (0..20)
        .map(|n| (Some(n % 7), Some(n % 5), n as u8))
        .collect();
    let insert = "insert into sink values (\
        (select count(*) from @a, @b where a.ak = b.a_id and b.y > 2), \
        (select sum(a.v) from @a, @b, @c where a.ak = b.a_id and b.bk = c.b_id))";
    let sinks: Vec<_> = [false, true]
        .into_iter()
        .map(|wrapped| {
            let mut db = join_db(&rows[..9], &rows, &rows);
            let insert = from_items(insert, wrapped.then_some(&db));
            db.execute(&insert).unwrap();
            db.query("select n, s from sink").unwrap().rows
        })
        .collect();
    assert_eq!(sinks[0].len(), 1);
    assert!(sinks[0][0][0] != Value::Int(0) && !sinks[0][0][1].is_null());
    assert_eq!(sinks[0], sinks[1]);
}

/// The join table's key semantics, each outcome derived by hand.
#[test]
fn join_key_semantics_by_hand() {
    let mut db = Database::in_memory();
    db.execute("create table l (id int, k int, kf float, ks text, k2 int)")
        .unwrap();
    db.execute("create table r (id int, k int, k2 int)")
        .unwrap();
    db.execute("create table one (w int)").unwrap();
    db.execute("create table m (id int, k int)").unwrap();
    let int = Value::Int;
    let l = |id: i64, k: Option<i64>, k2: i64| {
        vec![
            int(id),
            opt_int(k),
            k.map_or(Value::Null, |k| Value::Float(k as f64)),
            k.map_or(Value::Null, |k| Value::Str(k.to_string())),
            int(k2),
        ]
    };
    // l: keys 1, 2, 2, NULL, 3 — the largest table, so it drives.
    db.load_table(
        "l",
        vec![
            l(0, Some(1), 10),
            l(1, Some(2), 20),
            l(2, Some(2), 21),
            l(3, None, 30),
            l(4, Some(3), 40),
            l(5, Some(9), 90),
        ],
    )
    .unwrap();
    // r: key 2 twice (ids 0 and 2), a NULL key, key 1 once, key 4 unmatched.
    db.load_table(
        "r",
        vec![
            vec![int(0), int(2), int(20)],
            vec![int(1), Value::Null, int(30)],
            vec![int(2), int(2), int(21)],
            vec![int(3), int(1), int(10)],
            vec![int(4), int(4), int(0)],
        ],
    )
    .unwrap();
    db.load_table("one", vec![vec![int(2)]]).unwrap();
    db.load_table(
        "m",
        vec![
            vec![int(0), int(2)],
            vec![int(1), int(7)],
            vec![int(2), int(2)],
            vec![int(3), Value::Null],
        ],
    )
    .unwrap();
    let ids = |sql: &str| -> Vec<Vec<i64>> {
        db.query(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.as_i64().unwrap()).collect())
            .collect()
    };
    // Build on `r`: l-major, r ascending under each l row; NULL
    // never matches NULL; duplicate build keys in row order.
    assert_eq!(
        ids("select l.id, r.id from l, r where l.k = r.k"),
        [[0, 3], [1, 0], [1, 2], [2, 0], [2, 2]]
    );
    // `2 = 2.0`: the float column finds the same rows.
    assert_eq!(
        ids("select l.id, r.id from l, r where l.kf = r.k"),
        [[0, 3], [1, 0], [1, 2], [2, 0], [2, 2]]
    );
    // Text never equals a number, and raises nothing.
    assert!(ids("select l.id, r.id from l, r where l.ks = r.k").is_empty());
    // A composite key from two edges.
    assert_eq!(
        ids("select l.id, r.id from l, r where l.k = r.k and l.k2 = r.k2"),
        [[0, 3], [1, 0], [2, 2]]
    );
    // Expression keys, on either side.
    assert_eq!(
        ids("select l.id, r.id from l, r where l.k + 1 = r.k"),
        [[0, 0], [0, 2], [4, 4]]
    );
    assert_eq!(
        ids("select l.id, r.id from l, r where l.k = r.k - 1"),
        [[0, 0], [0, 2], [4, 4]]
    );
    // The table sits on the joined input however few tuples are left
    // to probe it: `one` cuts the stream down to l's two key-2 rows,
    // fewer than m's four — and the output is l-major with m
    // ascending.
    let shrunk = "select l.id, m.id from l, one, m where l.k = one.w and l.k = m.k";
    assert_eq!(ids(shrunk), [[1, 0], [1, 2], [2, 0], [2, 2]]);
    let plan = db.query(&format!("explain analyze {shrunk}")).unwrap();
    assert!(
        plan.rows.iter().any(|r| r[0]
            .as_str()
            .unwrap()
            .contains("⋈ m on l.k = m.k: build m 4, probe 2 → 4")),
        "{:?}",
        plan.rows
    );
    // A key that does not resolve raises what it always raised.
    assert!(matches!(
        db.query("select l.id from l, r where l.k = r.nosuch"),
        Err(EngineError::UnknownColumn(_))
    ));
}

/// A FROM list without a join predicate is produced row by row under the
/// statement's governor: the self-product of `lineitem` (3.6 · 10⁹ rows at
/// this scale factor; the parent asked the allocator for all of them up
/// front and aborted the process) ends in an error under a memory budget
/// or a cancel, with the gauge drained, and a small product keeps its
/// rows, order and counters.
#[test]
fn cross_join_is_governed_and_small_ones_are_unchanged() {
    let data = generate(TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    let product = "select count(*) from lineitem a, lineitem b";
    db.query("set mem_budget_bytes = 67108864").unwrap();
    assert!(matches!(
        db.query(product),
        Err(EngineError::ResourceExhausted(_))
    ));
    assert_eq!(db.mem_gauge().used_bytes(), 0);
    db.query("set mem_budget_bytes = 0").unwrap();
    let gov = QueryGovernor::new();
    // Past both scans (some 240 checks) and well into the product.
    gov.cancel_token().cancel_after_checks(1_000);
    assert!(matches!(
        db.read(&ReadRequest::text(product).governed(&gov)),
        Err(EngineError::Cancelled(_))
    ));
    assert_eq!(db.mem_gauge().used_bytes(), 0);

    // region (5 rows) drives, the two-row slice of nation varies fastest.
    let small = db
        .query("select r_regionkey, n_nationkey from region, nation where n_nationkey < 2")
        .unwrap();
    let expected: Vec<Vec<Value>> = (0..5)
        .flat_map(|r| (0..2).map(move |n| vec![Value::Int(r), Value::Int(n)]))
        .collect();
    assert_eq!(small.rows, expected);
    // 25 filter evaluations, 10 product rows, 10 projected rows.
    assert_eq!(small.stats.cpu_tuple_ops, 45);
    assert_eq!(small.stats.rows_scanned, 30);
}

/// Memory accounting follows what the join block holds — its build sides
/// in their kept columns and the rows that leave its last stage, never its
/// driving input: Q5 charges exactly that sum (195 488 bytes where the
/// parent, which built a row per `lineitem` survivor and per intermediate
/// tuple, charged 5 763 400 and its whole-row predecessor 15 175 352), runs
/// inside a budget a quarter the size of its driver's 60 615 narrow rows,
/// and the gauge drains on success, error and cancel.
#[test]
fn join_memory_accounting_follows_the_kept_width() {
    let data = generate(TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    let q5 = ALL_QUERIES[3].sql(&QueryParams::default());
    let from = "from customer, orders, lineitem, supplier, nation, region";
    assert!(q5.contains(from), "{q5}");
    let items: Vec<String> = from["from ".len()..]
        .split(", ")
        .map(|t| whole_rows(&db, t, t))
        .collect();
    let whole_rows = q5.replace(from, &format!("from {}", items.join(", ")));

    // What the block says it read and emitted: `(label, rows)` per line.
    let plan = db.query(&format!("explain analyze {q5}")).unwrap();
    let lines: Vec<(&str, u64)> = (plan.rows.iter())
        .map(|r| r[0].as_str().unwrap().trim_start())
        .filter_map(|l| {
            let (label, rest) = l.split_once(" (actual rows=")?;
            Some((label, rest.split(' ').next()?.parse().ok()?))
        })
        .collect();
    let state = |rows: u64, cols: u64| rows * (32 + 8 * cols);
    let mut expected = 0;
    let mut joined_width = 0;
    for (label, rows) in &lines {
        if let Some(("scan", table)) = label.split_once(' ') {
            let kept = table.split("cols ").nth(1).unwrap();
            let kept: u64 = kept.split('/').next().unwrap().parse().unwrap();
            joined_width += kept;
            if !table.starts_with("lineitem") {
                expected += state(*rows, kept);
            }
        }
    }
    let rows_of = |prefix: &str| lines.iter().find(|(l, _)| l.starts_with(prefix)).unwrap().1;
    assert_eq!(rows_of("scan lineitem"), 60_615);
    // The block's output; five groups of a row and one accumulator; the
    // sort's rows of two columns and a key.
    expected += state(rows_of("hash join block"), joined_width);
    expected += state(rows_of("aggregate"), joined_width + 1);
    expected += state(rows_of("sort"), 2 + 1);
    assert_eq!(db.mem_peak_bytes(), expected);
    assert_eq!(expected, 195_488);

    db.query("set mem_budget_bytes = 1000000").unwrap();
    assert!(state(60_615, 4) > 3_800_000);
    let out = db.query(&q5).unwrap();
    assert_eq!(db.mem_peak_bytes(), expected);
    assert_eq!(db.mem_gauge().used_bytes(), 0);
    // A derived table is rows whichever role it gets: sixteen columns of
    // every lineitem do not fit.
    db.query("set mem_budget_bytes = 8000000").unwrap();
    assert!(matches!(
        db.query(&whole_rows),
        Err(EngineError::ResourceExhausted(_))
    ));
    assert_eq!(db.mem_gauge().used_bytes(), 0);
    db.query("set mem_budget_bytes = 100000").unwrap();
    assert!(matches!(
        db.query(&q5),
        Err(EngineError::ResourceExhausted(_))
    ));
    assert_eq!(db.mem_gauge().used_bytes(), 0);

    db.query("set mem_budget_bytes = 0").unwrap();
    let gov = QueryGovernor::new();
    gov.cancel_token().cancel_after_checks(100);
    assert!(matches!(
        db.read(&ReadRequest::text(&q5).governed(&gov)),
        Err(EngineError::Cancelled(_))
    ));
    assert_eq!(db.mem_gauge().used_bytes(), 0);
    // Unbudgeted, the whole-row form answers the same; it holds every
    // input as the rows its derived tables made, and no intermediate.
    assert_eq!(db.query(&whole_rows).unwrap().rows, out.rows);
    assert_eq!(db.mem_peak_bytes(), 10_112_376);
    assert_eq!(db.mem_gauge().used_bytes(), 0);
}

/// FNV-1a over the rows' debug rendering (float bits included).
fn rows_digest(rows: &[Vec<Value>]) -> u64 {
    format!("{rows:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

/// The five join queries of the evaluation set under both benchmark
/// parameter sets: rows and every `ExecStats` counter — buffer hits and
/// misses included, so the order pages are touched in as well — are the
/// ones commit a35f20d reported for the same statements in the same
/// sequence. Q21's rows are too; its counters were re-recorded when its
/// two `EXISTS` probes moved from `l1`'s scan behind the joins (PR 19:
/// `l1` now drives, so `index_probes` 75 698 → 709 and page accesses
/// 117 436 → 2 862 under the validation parameters, and `cpu_tuple_ops`
/// 165 097 → 236 210 — three hash steps over 37 869 tuples cost more ops
/// than they save predicate evaluations; `rows_scanned`, `scan_batches`
/// and `rows_out` are unchanged). `cpu_tuple_ops` of Q3, Q5 and Q21 — and
/// nothing else, page order included: every input is scanned as before —
/// were re-recorded when build sides began to shed what a leaf excludes
/// before the order is fixed (PR 22): Q21's `supplier` loses the other
/// nations' rows, so `l1`'s first step keeps a twenty-fifth of its tuples
/// (236 210 → 125 774, 237 922 → 132 084), Q5's `supplier` loses the other
/// regions' (127 977 → 119 357, 121 582 → 112 800), and Q3's `orders` the
/// other segments' customers', which costs as many probes as it saves
/// (122 060 → 122 108, 122 659 → 123 093). `cpu_tuple_ops` of all five —
/// and nothing else — were re-recorded when a hash step's integer build
/// keys began to filter the driving selection before the stream starts:
/// a filter charges one op per tuple it tests and its step then probes
/// only the tuples it kept, so a step that kept a small share costs less
/// (Q5 119 357 → 115 692 and 112 800 → 109 196, Q21 125 774 → 125 172
/// and 132 084 → 130 848) and one that kept most, a little more (Q3
/// 122 401 and 123 403, Q12 108 965 and 108 836, Q14 94 279 and 99 648).
#[test]
fn tpch_join_queries_match_the_parents_rows_and_counters() {
    /// `(row count, digest, [rows_scanned, cpu_tuple_ops, rows_out,
    /// bytes_out, index_probes, scan_batches, pages_pruned, hits,
    /// misses_seq, misses_rand, evictions])`.
    type Pinned = (usize, u64, [u64; 11]);
    // Q3, Q5, Q12, Q14, Q21 per set.
    const QUERIES: [usize; 5] = [1, 3, 5, 6, 7];
    #[rustfmt::skip]
    const PINNED: [[Pinned; 5]; 2] = [
        [
            (10, 0x4552763857b8489f, [77115, 122401, 10, 320, 0, 77, 0, 0, 1804, 0, 0]),
            (5, 0xf94dc74c17491783, [77245, 115692, 5, 111, 0, 80, 0, 1804, 4, 0, 0]),
            (2, 0x5f40c36d1c54f10f, [75615, 108965, 2, 56, 0, 75, 0, 1775, 0, 0, 0]),
            (1, 0x4e67e3b9f10e7842, [62615, 94279, 1, 12, 0, 62, 0, 1516, 44, 0, 0]),
            (2, 0x87b5895bdc88083f, [75740, 125172, 2, 68, 709, 77, 0, 2862, 0, 0, 0]),
        ],
        [
            (10, 0xc6faf75c795540b9, [77115, 123403, 10, 320, 0, 77, 0, 1804, 0, 0, 0]),
            (5, 0x7ec6697e7fd8a09f, [77245, 109196, 5, 111, 0, 80, 0, 1808, 0, 0, 0]),
            (2, 0x22655db92d38afaa, [75615, 108836, 2, 59, 0, 75, 0, 1775, 0, 0, 0]),
            (1, 0x2287bbcc0be632e3, [62615, 99648, 1, 12, 0, 62, 0, 1560, 0, 0, 0]),
            (5, 0x8d56f4c8920b5105, [75740, 130848, 5, 170, 1825, 77, 0, 4541, 0, 0, 0]),
        ],
    ];
    let data = generate(TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    let sets = [QueryParams::default(), QueryParams::random(0x5EED_0001)];
    for (params, pinned) in sets.iter().zip(PINNED) {
        for (q, want) in QUERIES.into_iter().zip(pinned) {
            let out = db.query(&ALL_QUERIES[q].sql(params)).unwrap();
            let s = out.stats;
            let got: Pinned = (
                out.rows.len(),
                rows_digest(&out.rows),
                [
                    s.rows_scanned,
                    s.cpu_tuple_ops,
                    s.rows_out,
                    s.bytes_out,
                    s.index_probes,
                    s.scan_batches,
                    s.pages_pruned,
                    s.buffer.hits,
                    s.buffer.misses_seq,
                    s.buffer.misses_rand,
                    s.buffer.evictions,
                ],
            );
            assert_eq!(got, want, "{}", ALL_QUERIES[q].label());
        }
    }
}

// ---------------------------------------------------------------------------
// Stored columns: what runs vectorized against the general tree and the data
// ---------------------------------------------------------------------------

/// Runs `sql` on the general tree — the reference — then under
/// every kernel × text/bound combination, which must agree with
/// it: rows and counters, or the error's text.
fn across_modes(db: &Database, sql: &str) -> Result<QueryOutput, String> {
    db.query("set enable_kernel = off").unwrap();
    let want = db.query(sql).map_err(|e| e.to_string());
    for kernel in ["on", "off"] {
        db.query(&format!("set enable_kernel = {kernel}")).unwrap();
        let what = format!("kernel {kernel}: {sql}");
        for got in [db.query(sql), db.query_bound(sql, &[])] {
            match (&want, got.map_err(|e| e.to_string())) {
                (Ok(want), Ok(got)) => assert_identical(&got, want, &what),
                (Err(want), Err(got)) => assert_eq!(&got, want, "{what}"),
                (want, got) => panic!("{what}: {got:?} against the reference's {want:?}"),
            }
        }
    }
    db.query("set enable_kernel = on").unwrap();
    want
}

/// One row of the table the vectorized predicate shapes run over.
#[derive(Clone, Copy)]
struct VecRow {
    k: i64,
    a: Option<i64>,
    b: Option<f64>,
    c: Option<i64>,
    s: Option<&'static str>,
    d: Option<i32>,
}

fn vec_rows() -> Vec<VecRow> {
    const WORDS: [&str; 5] = ["x", "y", "zeta", "", "żółw"];
    // 3100 rows: three stored segments, so batch boundaries land mid-table.
    (0..3100i64)
        .map(|k| VecRow {
            k,
            a: (k % 7 != 0).then_some((k * 37) % 41 - 5),
            b: (k % 5 != 1).then_some(((k * 13) % 53) as f64 * 0.25),
            c: (k % 11 != 3).then_some((k * 29) % 41 - 5),
            s: (k % 6 != 2).then_some(WORDS[(k % 5) as usize]),
            d: (k % 9 != 4).then_some(9_000 + ((k * 17) % 400) as i32),
        })
        .collect()
}

fn vec_db(rows: &[VecRow]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table v (k int not null, a int, b float, c int, s text, d date, \
         primary key (k)) clustered by (k)",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            vec![
                Value::Int(r.k),
                opt_int(r.a),
                r.b.map_or(Value::Null, Value::Float),
                opt_int(r.c),
                r.s.map_or(Value::Null, |s| Value::Str(s.to_string())),
                r.d.map_or(Value::Null, |d| Value::Date(apuama_sql::Date(d))),
            ]
        })
        .collect();
    db.load_table("v", rows).unwrap();
    db
}

/// Three-valued AND, for the models below.
fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// `v [not] in (members)`, `None` members being NULL or incomparable.
fn in3<T: PartialEq>(v: Option<T>, members: &[Option<T>], negated: bool) -> Option<bool> {
    let v = v?;
    if members.iter().flatten().any(|m| *m == v) {
        Some(!negated)
    } else if members.iter().any(Option::is_none) {
        None
    } else {
        Some(negated)
    }
}

/// Each predicate shape the scan runs over typed column slices — NULLs on
/// either side, an inverted `BETWEEN`, `IN` with a NULL and with an
/// incomparable member, `NOT IN`, column against column across Int and
/// Float, operands folded once per execution — answers with the rows the
/// data says it should, on the fused shape (count and sum of the keys) and
/// on the general scan (the keys themselves), identically in every mode.
#[test]
fn vectorized_predicate_shapes_match_the_data() {
    type Model = fn(&VecRow) -> Option<bool>;
    let day = |y: i32, m: u32, d: u32| apuama_sql::Date::from_ymd(y, m, d).unwrap().0;
    let d0 = day(1994, 9, 1);
    assert!(
        (9_000..9_400).contains(&d0),
        "the date literals hit the data"
    );
    let cases: &[(&str, Model)] = &[
        ("a < 10", |r| r.a.map(|a| a < 10)),
        ("10 > a", |r| r.a.map(|a| a < 10)),
        ("a <= 3 + 4", |r| r.a.map(|a| a <= 7)),
        ("a <> 2.0", |r| r.a.map(|a| a != 2)),
        ("b >= 6.5", |r| r.b.map(|b| b >= 6.5)),
        ("b < 3", |r| r.b.map(|b| b < 3.0)),
        ("s >= 'y'", |r| r.s.map(|s| s >= "y")),
        ("s = ''", |r| r.s.map(|s| s.is_empty())),
        ("d < date '1994-09-01'", |r| r.d.map(|d| d < 9_009)),
        ("d >= date '1994-06-01' + interval '3' month", |r| {
            r.d.map(|d| d >= 9_009)
        }),
        ("a = c", |r| Some(r.a? == r.c?)),
        ("c > a", |r| Some(r.c? > r.a?)),
        ("b >= a", |r| Some(r.b? >= r.a? as f64)),
        ("a < b", |r| Some((r.a? as f64) < r.b?)),
        ("a between 5 and 20", |r| r.a.map(|a| (5..=20).contains(&a))),
        ("a between 20 and 5", |_| Some(false)),
        ("a not between 20 and 5", |r| r.a.map(|_| true)),
        ("a not between 5 and 20", |r| {
            r.a.map(|a| !(5..=20).contains(&a))
        }),
        ("b between 1 and 2.5", |r| {
            r.b.map(|b| (1.0..=2.5).contains(&b))
        }),
        ("a between 2 + 3 and 40 / 2", |r| {
            r.a.map(|a| (5..=20).contains(&a))
        }),
        // A NULL bound is unknown on its side: false beyond the other
        // bound, unknown within it.
        ("a between null and 20", |r| {
            and3(None, r.a.map(|a| a <= 20))
        }),
        ("a not between null and 20", |r| {
            and3(None, r.a.map(|a| a <= 20)).map(|w| !w)
        }),
        // So is a bound of another type class: no error, unknown.
        ("a not between 'x' and 20", |r| {
            and3(None, r.a.map(|a| a <= 20)).map(|w| !w)
        }),
        ("s in ('x', 'zeta')", |r| {
            in3(r.s, &[Some("x"), Some("zeta")], false)
        }),
        ("s not in ('x', 'zeta')", |r| {
            in3(r.s, &[Some("x"), Some("zeta")], true)
        }),
        ("s in ('x', null)", |r| in3(r.s, &[Some("x"), None], false)),
        ("s not in ('x', null)", |r| {
            in3(r.s, &[Some("x"), None], true)
        }),
        ("a in (1, 2.0, 30)", |r| {
            in3(r.a, &[Some(1), Some(2), Some(30)], false)
        }),
        ("a not in (1, 'one')", |r| in3(r.a, &[Some(1), None], true)),
        ("a in (0 - 1, 1 + 1)", |r| {
            in3(r.a, &[Some(-1), Some(2)], false)
        }),
        // Prefixes of several shapes, and one ending in a predicate that
        // has no vector form.
        ("a >= 0 and b < 8 and s in ('x', 'y') and c <> a", |r| {
            and3(
                and3(r.a.map(|a| a >= 0), r.b.map(|b| b < 8.0)),
                and3(
                    in3(r.s, &[Some("x"), Some("y")], false),
                    (|| Some(r.c? != r.a?))(),
                ),
            )
        }),
        ("a between 0 and 30 and abs(c) < 4", |r| {
            and3(r.a.map(|a| (0..=30).contains(&a)), r.c.map(|c| c.abs() < 4))
        }),
    ];
    assert_eq!(day(1994, 6, 1) + 92, d0);
    let rows = vec_rows();
    let db = vec_db(&rows);
    for (pred, model) in cases {
        let keys: Vec<i64> = (rows.iter())
            .filter(|r| model(r) == Some(true))
            .map(|r| r.k)
            .collect();
        let fused = format!("select count(*) as n, sum(k) as sk from v where {pred}");
        let sum = match keys.len() {
            0 => Value::Null,
            _ => Value::Int(keys.iter().sum()),
        };
        assert_eq!(
            across_modes(&db, &fused).unwrap().rows,
            vec![vec![Value::Int(keys.len() as i64), sum]],
            "{pred}"
        );
        let general = format!("select k from v where {pred} order by k");
        let want: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
        assert_eq!(across_modes(&db, &general).unwrap().rows, want, "{pred}");
    }
}

/// Where the vectorized prefix ends, the list goes on row-major in plan
/// order, so charges and errors are the row loop's:
///
/// * a vectorizable predicate *after* one without a vector form is
///   evaluated only for the rows the first one keeps (`cpu_tuple_ops` is
///   the sum the short-circuit gives);
/// * a predicate that is a type error for every non-NULL cell, second in
///   the list, raises exactly when a row survives the first with a
///   non-NULL cell — the same message in every mode — and is never
///   evaluated when the first predicate keeps nothing.
#[test]
fn the_vectorized_prefix_ends_where_the_row_loop_takes_over() {
    let rows = vec_rows();
    let db = vec_db(&rows);
    let n = rows.len() as u64;

    // abs(c) has no vector form; `a < 10` after it stays row-major.
    let sql = "select count(*) as n from v where abs(c) < 4 and a < 10";
    let first: u64 = (rows.iter())
        .filter(|r| r.c.is_some_and(|c| c.abs() < 4))
        .count() as u64;
    let both = (rows.iter())
        .filter(|r| r.c.is_some_and(|c| c.abs() < 4) && r.a.is_some_and(|a| a < 10))
        .count() as u64;
    let out = across_modes(&db, sql).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(both as i64)]]);
    // One charge per predicate evaluation, one per aggregated row.
    assert_eq!(out.stats.cpu_tuple_ops, n + first + both, "{sql}");
    // The same two predicates the other way round: the prefix takes both.
    let sql = "select count(*) as n from v where a < 10 and abs(c) < 4";
    let a_first = rows.iter().filter(|r| r.a.is_some_and(|a| a < 10)).count() as u64;
    let out = across_modes(&db, sql).unwrap();
    assert_eq!(out.stats.cpu_tuple_ops, n + a_first + both, "{sql}");

    // `s > 5` compares text with a number: an error for every non-NULL s,
    // raised by the first row that gets there with one (and, against
    // another column, with a non-NULL cell on that side too).
    for (sql, needs_c) in [
        ("select count(*) as n from v where a < 30 and s > 5", false),
        ("select k from v where a < 30 and s > 5 order by k", false),
        ("select count(*) as n from v where a < 30 and s > c", true),
    ] {
        let culprit = (rows.iter())
            .find(|r| r.a.is_some_and(|a| a < 30) && r.s.is_some() && (r.c.is_some() || !needs_c))
            .unwrap();
        let err = across_modes(&db, sql).unwrap_err();
        let s = Value::Str(culprit.s.unwrap().to_string());
        let other = if needs_c { culprit.c.unwrap() } else { 5 };
        assert!(
            err.contains(&format!("cannot compare {s} with {other}")),
            "{sql}: {err}"
        );
    }
    // Nothing survives the first predicate: the second is never reached.
    let sql = "select count(*) as n from v where a < -100 and s > 5";
    let out = across_modes(&db, sql).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(0)]]);
    assert_eq!(out.stats.cpu_tuple_ops, n, "{sql}");
    // Only NULLs reach it: no error either.
    let sql = "select count(*) as n from v where k in (2, 8, 14) and s > 5";
    assert!(rows
        .iter()
        .filter(|r| [2, 8, 14].contains(&r.k))
        .all(|r| r.s.is_none()));
    let out = across_modes(&db, sql).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(0)]]);
    assert_eq!(out.stats.cpu_tuple_ops, n + 3, "{sql}");
}

/// Expression aggregates (`sum(p * (1.0 - q))`) are computed once per
/// batch over `f64` slices where the segment's columns are `Float`, and
/// per tuple on the scratch row where they are not: the table below turns
/// `p` boxed in its second segment (an `Int` among the floats), gives `q`
/// a NULL in its third and `p` a NaN in its fourth, so one statement
/// changes form three times mid-stream. Groups, their first-seen order and
/// every float bit equal a fold over the data in key order.
#[test]
fn expression_aggregates_fall_back_mid_table_without_a_trace() {
    let mut db = Database::in_memory();
    db.execute(
        "create table w (k int not null, g text, p float, q float, \
         primary key (k)) clustered by (k)",
    )
    .unwrap();
    let n = 4500i64;
    let p_of = |k: i64| match k {
        1500 => Value::Int(3),
        3700 => Value::Float(f64::NAN),
        _ => Value::Float(((k * 7) % 64) as f64 * 0.25),
    };
    let q_of = |k: i64| (k != 2500).then_some(((k * 3) % 4) as f64 * 0.25);
    // Not in key order: the first-seen group order is not the sorted one.
    let g_of = |k: i64| format!("G{}", (k * 5 + k / 1000) % 4);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Str(g_of(k)),
                p_of(k),
                q_of(k).map_or(Value::Null, Value::Float),
            ]
        })
        .collect();
    db.load_table("w", rows).unwrap();

    // `between` drops the NaN without raising (a comparison would).
    let sql = "select g, sum(p * (1.0 - q)) as disc, sum(p * (1.0 - q) * (1.0 + q)) as charge, \
               avg(p + q * 2) as a, count(*) as n \
               from w where p between 0.0 and 100.0 group by g";
    let mut order: Vec<String> = Vec::new();
    let mut groups: std::collections::HashMap<String, (f64, f64, f64, i64, i64)> =
        Default::default();
    let (mut any_disc, mut scanned) = (std::collections::HashSet::new(), 0u64);
    for k in 0..n {
        scanned += 1;
        let Some(p) = p_of(k).as_f64().filter(|p| (0.0..=100.0).contains(p)) else {
            continue;
        };
        let g = g_of(k);
        if !groups.contains_key(&g) {
            order.push(g.clone());
        }
        let acc = groups.entry(g.clone()).or_default();
        acc.4 += 1;
        // A NULL q makes every expression over it NULL, which sum and avg skip.
        if let Some(q) = q_of(k) {
            any_disc.insert(g);
            acc.0 += p * (1.0 - q);
            acc.1 += p * (1.0 - q) * (1.0 + q);
            acc.2 += p + q * 2.0;
            acc.3 += 1;
        }
    }
    let want: Vec<Vec<Value>> = order
        .iter()
        .map(|g| {
            let (disc, charge, a, n_a, count) = groups[g];
            assert!(any_disc.contains(g));
            vec![
                Value::Str(g.clone()),
                Value::Float(disc),
                Value::Float(charge),
                Value::Float(a / n_a as f64),
                Value::Int(count),
            ]
        })
        .collect();
    let out = across_modes(&db, sql).unwrap();
    assert_eq!(out.rows, want);
    assert_eq!(out.stats.rows_scanned, scanned);

    // EXPLAIN ANALYZE says how the batches ran: the first segment takes the
    // vectorized fold, the others fall to the row somewhere — the keys
    // above sit in the second, third and fourth.
    let heap = &db.table("w").unwrap().heap;
    assert_eq!(heap.segments().len(), 4);
    for (at, k) in [1500, 2500, 3700].into_iter().enumerate() {
        assert_eq!(k / heap.segment_slots(), at as u64 + 1);
    }
    let plan = db.query(&format!("explain analyze {sql}")).unwrap();
    let fold = (plan.rows.iter())
        .map(|r| r[0].as_str().unwrap().trim_start().to_string())
        .find(|l| l.starts_with("fold: "))
        .unwrap_or_else(|| panic!("{:?}", plan.rows));
    assert_eq!(fold, "fold: 1 batch(es) vectorized, 3 row-major");
}

/// SVP sub-queries arrive as clustered index ranges with
/// `enable_seqscan = off`: row-id lists that start and end anywhere, cross
/// segment boundaries and run over tombstones. They are cut into
/// per-segment selections; the answer is the data's, and everything but
/// the access path's own counters equals the sequential scan's.
#[test]
fn clustered_ranges_cross_segments_and_skip_tombstones() {
    let mut db = Database::in_memory();
    db.execute("create table t (k int not null, g int, v float, primary key (k)) clustered by (k)")
        .unwrap();
    let n = 3300i64;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Int(k * 7 / 3 - k * 2),
                Value::Float(((k * 11) % 97) as f64 * 0.25),
            ]
        })
        .collect();
    db.load_table("t", rows).unwrap();
    // Tombstones on both sides of the first two segment boundaries (row id
    // = k; a segment is 1024 slots here), a sixth of the table in all —
    // under the auto-vacuum threshold.
    assert_eq!(db.table("t").unwrap().heap.segment_slots(), 1024);
    let dead = |k: i64| (1000..1300).contains(&k) || (1990..2200).contains(&k) || k == 2999;
    let out = db
        .execute(
            "delete from t where (k >= 1000 and k < 1300) or (k >= 1990 and k < 2200) or k = 2999",
        )
        .unwrap();
    assert_eq!(out.rows_affected, 511);
    let g_of = |k: i64| k * 7 / 3 - k * 2;

    for (lo, hi) in [
        (0, n),
        (900, 2300),
        (1100, 1250),
        (1299, 1301),
        (2150, 3299),
        (3000, 9000),
    ] {
        let live: Vec<i64> = (lo..hi.min(n)).filter(|&k| !dead(k)).collect();
        let kept: Vec<i64> = live.iter().copied().filter(|&k| g_of(k) <= k / 4).collect();
        let sum: f64 = kept
            .iter()
            .map(|&k| ((k * 11) % 97) as f64 * 0.25 * 2.0)
            .sum();
        let want = vec![vec![
            Value::Int(kept.len() as i64),
            if kept.is_empty() {
                Value::Null
            } else {
                Value::Float(sum)
            },
        ]];
        let sql = format!(
            "select count(*) as n, sum(v * 2.0) as s from t \
             where k >= {lo} and k < {hi} and g <= k / 4"
        );
        db.query("set enable_seqscan = off").unwrap();
        let by_index = across_modes(&db, &sql).unwrap();
        db.query("set enable_seqscan = on").unwrap();
        db.query("set enable_indexscan = off").unwrap();
        let by_scan = across_modes(&db, &sql).unwrap();
        db.query("set enable_indexscan = on").unwrap();
        assert_eq!(by_index.rows, want, "{sql}");
        assert_eq!(by_scan.rows, want, "{sql}");
        assert_eq!(by_index.stats.index_probes, 1);
        assert_eq!(by_index.stats.rows_scanned, live.len() as u64, "{sql}");
        // The range is consumed by the index: one residual predicate per
        // live row, one update per kept row.
        assert_eq!(
            by_index.stats.cpu_tuple_ops,
            (live.len() + kept.len()) as u64,
            "{sql}"
        );
        // The plain rows come back in key order, tombstones skipped.
        let sql = format!("select k from t where k >= {lo} and k < {hi} and g <= k / 4 order by k");
        db.query("set enable_seqscan = off").unwrap();
        let rows = across_modes(&db, &sql).unwrap().rows;
        db.query("set enable_seqscan = on").unwrap();
        let want: Vec<Vec<Value>> = kept.iter().map(|&k| vec![Value::Int(k)]).collect();
        assert_eq!(rows, want, "{sql}");
    }
}

/// Insert, delete and update inside a transaction — appended cells, flipped
/// tombstone bits, a string grown in place, an `Int` column handed a
/// `Float` (its segment's column degrades to boxed values) — then scans
/// inside the transaction and after rolling it back: every mode agrees
/// with the data both times, and the rollback restores the rows exactly.
#[test]
fn scans_inside_and_after_a_rolled_back_transaction() {
    let mut db = Database::in_memory();
    db.execute("create table t (k int not null, q int, s text, primary key (k)) clustered by (k)")
        .unwrap();
    let n = 2500i64;
    let s_of = |k: i64| format!("s{}", k % 13);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|k| vec![Value::Int(k), Value::Int(k % 50), Value::Str(s_of(k))])
        .collect();
    db.load_table("t", rows).unwrap();
    let summary = "select count(*) as n, sum(q) as sq, min(s) as lo, max(s) as hi from t \
                   where q between 10 and 45 and s <> 's3'";
    let listing = "select k, q, s from t where q >= 48 and k >= 1000 and k < 1400 order by k";
    let before = (
        across_modes(&db, summary).unwrap().rows,
        across_modes(&db, listing).unwrap().rows,
    );
    let count = |rows: &[Vec<Value>]| rows[0][0].as_i64().unwrap();
    let in_range = |k: i64| (10..=45).contains(&(k % 50)) && k % 13 != 3;
    assert_eq!(
        count(&before.0),
        (0..n).filter(|&k| in_range(k)).count() as i64
    );

    db.execute("begin").unwrap();
    db.execute("insert into t values (5000, 20, 'new'), (5001, 49, 'new'), (5002, null, null)")
        .unwrap();
    assert_eq!(
        db.execute("delete from t where k >= 1100 and k < 1200")
            .unwrap()
            .rows_affected,
        100
    );
    // A longer string in place, and a float into the int column.
    db.execute("update t set s = 'a considerably longer string than before' where k = 1049")
        .unwrap();
    db.execute("update t set q = 48.5 where k = 1348").unwrap();
    db.execute("update t set q = 12 where k = 7").unwrap();

    let inside = across_modes(&db, summary).unwrap().rows;
    // +1 for the inserted (5000, 20, 'new'); k = 7 moves into the range
    // (q was 7); the deleted block leaves it.
    let gone = (1100..1200).filter(|&k| in_range(k)).count() as i64;
    assert!(!in_range(7));
    assert_eq!(count(&inside), count(&before.0) + 1 + 1 - gone);
    let listed = across_modes(&db, listing).unwrap().rows;
    let want: Vec<Vec<Value>> = (1000..1400)
        .filter(|k| !(1100..1200).contains(k))
        .filter_map(|k| {
            let (q, s) = match k {
                1348 => (Value::Float(48.5), s_of(k)),
                1049 => (
                    Value::Int(49),
                    "a considerably longer string than before".into(),
                ),
                _ => (Value::Int(k % 50), s_of(k)),
            };
            (q.as_f64().unwrap() >= 48.0).then(|| vec![Value::Int(k), q, Value::Str(s)])
        })
        .collect();
    assert_eq!(listed, want);

    db.execute("rollback").unwrap();
    let after = (
        across_modes(&db, summary).unwrap().rows,
        across_modes(&db, listing).unwrap().rows,
    );
    assert_eq!(after, before);
    assert_eq!(
        db.query("select count(*) as n from t").unwrap().rows,
        vec![vec![Value::Int(n)]]
    );
}

/// At SF 0.01 the fused fold takes every batch of Q1 and of Q6 in its
/// vectorized form — `EXPLAIN ANALYZE` lists the tally — and a `lineitem` scan that keeps 3 of its 16 columns
/// (Q3's) builds no row through the heap's row API: survivors are
/// materialized from the columns, kept columns only.
#[test]
fn q1_and_q6_fold_vectorized_and_scans_derive_no_rows() {
    let data = generate(TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    let lineitem = db.table("lineitem").unwrap();
    let segments = lineitem.heap.segments().len() as u64;
    assert!(segments > 50);
    for params in [QueryParams::default(), QueryParams::random(7)] {
        for q in [ALL_QUERIES[0], ALL_QUERIES[4]] {
            let plan = db
                .query(&format!("explain analyze {}", q.sql(&params)))
                .unwrap();
            let lines: Vec<&str> = plan.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
            assert!(lines[..2]
                .iter()
                .any(|l| l.contains("fused aggregate over lineitem")));
            let fold = (lines.iter().map(|l| l.trim_start()))
                .find(|l| l.starts_with("fold: "))
                .unwrap_or_else(|| panic!("{lines:?}"));
            assert_eq!(
                fold,
                format!("fold: {segments} batch(es) vectorized, 0 row-major"),
                "{}",
                q.label()
            );
        }
    }

    let derived = || db.table("lineitem").unwrap().heap.rows_derived();
    let before = derived();
    let plan = db
        .query(&format!(
            "explain analyze {}",
            ALL_QUERIES[1].sql(&QueryParams::default())
        ))
        .unwrap();
    assert!(
        (plan.rows.iter()).any(|r| r[0].as_str().unwrap().contains("scan lineitem")
            && r[0].as_str().unwrap().contains("cols 3/16")),
        "{:?}",
        plan.rows
    );
    for q in ALL_QUERIES {
        db.query(&q.sql(&QueryParams::default())).unwrap();
    }
    assert_eq!(derived(), before, "a SELECT went through Heap::get");
}

/// Rows with every float spelled by its bits: `0.1 + 0.2` summed in
/// another order, `-0.0` and NaN all show.
fn float_bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    (rows.iter())
        .map(|row| {
            (row.iter())
                .map(|v| match v {
                    Value::Float(x) => format!("float {:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The fused fold folds a batch one accumulator at a time over group ids
/// computed first — from the key codes where every key column is
/// dictionary-coded in the segment — and must answer what the general
/// tree's row loop answers, float bits included: NULL group keys,
/// two-column keys, segments whose dictionaries list the same strings in
/// another order, a segment whose second key outgrew its dictionary (ids
/// probed), sums of tenths that round differently in any other order, an
/// expression key, no GROUP BY, and the errors a non-numeric `sum` raises
/// (which keep a batch on the row loop). Against the row loop bit for bit,
/// and across the kernel, text and bound through [`across_modes`] on
/// quarter steps.
#[test]
fn column_major_fold_equals_the_row_loop_bit_for_bit() {
    let build = |tenths: bool| {
        let mut db = Database::in_memory();
        db.execute(
            "create table t (k int not null, s text, u text, n int, x float, y float, \
             primary key (k)) clustered by (k)",
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..4200i64)
            .map(|k| {
                // The order strings first appear in flips every 700 keys,
                // so consecutive segments code them differently.
                let words = match (k / 700) % 2 {
                    0 => ["b", "a", "c", ""],
                    _ => ["a", "c", "b", ""],
                };
                let s = match (k * 7) % 9 {
                    8 => Value::Null,
                    i => Value::Str(words[(i % 4) as usize].to_string()),
                };
                let u = match k {
                    3300.. => Value::Str(format!("w{k}")),
                    _ if k % 11 == 0 => Value::Null,
                    _ => Value::Str(["p", "q"][(k % 2) as usize].to_string()),
                };
                let n = match k % 13 {
                    0 => Value::Null,
                    i => Value::Int(i - 6),
                };
                let x = match tenths {
                    true => (k % 97) as f64 * 0.1,
                    false => (k % 97) as f64 * 0.25,
                };
                let y = (k % 17 != 0).then_some(((k % 5) as f64) * 0.5);
                vec![
                    Value::Int(k),
                    s,
                    u,
                    n,
                    Value::Float(x),
                    y.map_or(Value::Null, Value::Float),
                ]
            })
            .collect();
        db.load_table("t", rows).unwrap();
        db
    };
    let statements = [
        "select s, u, sum(x) as sx, avg(x) as ax, sum(n) as sn, avg(n) as an, count(*) as c, \
         count(y) as cy, count(distinct n) as dn, min(u) as lo, max(x) as hi \
         from t group by s, u",
        "select s, sum(x * (1.0 - y)) as d, sum(y) as sy, count(*) as c from t \
         where n > -3 group by s",
        "select n, sum(x) as sx, count(s) as cs from t group by n",
        "select n + 1 as m, sum(x) as sx, min(s) as lo from t group by n + 1",
        "select sum(x) as sx, avg(n) as an, count(*) as c, max(s) as hi from t where x > 1.0",
        "select s, sum(x) as sx, sum(u) as bad from t group by s",
        "select s, count(*) as c, avg(s) as bad from t where k > 1000 group by s",
    ];

    let db = build(true);
    let heap = &db.table("t").unwrap().heap;
    assert_eq!(heap.segments().len(), 4);
    // 1 116-slot segments: the third holds 48 of the `w` strings, coded
    // still; the fourth holds only `w` strings, more than its dictionary
    // takes.
    assert_eq!(heap.segment_slots(), 1116);
    let dict = |seg: usize, col: usize| -> Vec<String> {
        match heap.segments()[seg].column(col).data() {
            apuama_storage::ColumnVec::Str(strs) => (strs.coded())
                .map(|(dict, _)| {
                    (0..dict.len())
                        .map(|i| dict.str_at(i).to_string())
                        .collect()
                })
                .unwrap_or_default(),
            other => panic!("{other:?}"),
        }
    };
    // The same four strings, listed in another order.
    let (first, second) = (dict(0, 1), dict(1, 1));
    assert_ne!(first, second);
    let sorted = |mut d: Vec<String>| {
        d.sort();
        d
    };
    assert_eq!(sorted(first), sorted(second));
    assert_eq!(dict(0, 1).len(), 4);
    assert!(dict(3, 2).is_empty(), "u outgrew segment 3's dictionary");
    for sql in statements {
        db.query("set enable_kernel = off").unwrap();
        let row_loop = db.query(sql).map_err(|e| e.to_string());
        db.query("set enable_kernel = on").unwrap();
        let fused = db.query(sql).map_err(|e| e.to_string());
        match (&row_loop, &fused) {
            (Ok(want), Ok(got)) => {
                assert_eq!(float_bits(&got.rows), float_bits(&want.rows), "{sql}");
                assert_identical(got, want, sql);
            }
            (Err(want), Err(got)) => assert_eq!(got, want, "{sql}"),
            _ => panic!("{sql}: {fused:?} against the row loop's {row_loop:?}"),
        }
    }
    // Which batches took which form: both key columns are coded in the
    // first three segments, `u` is not in the last.
    let plan = db
        .query(&format!("explain analyze {}", statements[0]))
        .unwrap();
    let lines: Vec<&str> = (plan.rows.iter())
        .map(|r| r[0].as_str().unwrap().trim_start())
        .filter(|l| l.starts_with("fold: ") || l.starts_with("column-major: "))
        .collect();
    assert_eq!(
        lines,
        [
            "fold: 4 batch(es) vectorized, 0 row-major",
            "column-major: 4 batch(es), 3 by coded group keys",
        ]
    );

    let db = build(false);
    for sql in statements {
        across_modes(&db, sql).ok();
    }
}
