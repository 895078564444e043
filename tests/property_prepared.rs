//! Property-based tests of the prepared-plan path:
//!
//! 1. **Prepared/text equivalence** — for random data and a family of
//!    TPC-H-shaped range queries, executing via `prepare` + `query_bound`
//!    is byte-identical (rows *and* work counters) to executing the
//!    rendered text, with the fused kernel on or off.
//! 2. **Kernel/interpreter equivalence** — the fused scan→filter→aggregate
//!    kernel agrees with the interpreted pipeline bit for bit on the same
//!    bound statement.
//! 3. **DDL invalidation** — a schema change broadcast through the
//!    controller evicts cached plans on every backend; subsequent bound
//!    reads replan instead of serving a stale access path.
//! 4. **Lifted/unlifted equivalence** — a text SELECT runs from the plan
//!    cache with its WHERE comparison literals lifted into bound values;
//!    that answers exactly what running the statement with its literals in
//!    place (`Database::execute`, which never consults the cache) answers:
//!    rows, column names and every `ExecStats` counter, or an error of the
//!    same class. Random data mixes NULL, NaN, integers beyond 2^53 against
//!    float literals, dictionary-coded and over-cap string segments; random
//!    predicates mix comparisons with the literal on either side, BETWEEN
//!    and IN lists of varying length. The eight TPC-H evaluation queries
//!    are checked the same way as pass-through text. Statements that
//!    differ only outside the lifted literals (a select-list literal, ORDER
//!    BY, LIMIT, an IN list's length) key apart.

use proptest::prelude::*;

use apuama_cjdbc::{Connection, Controller, ControllerConfig, EngineNode, NodeConnection};
use apuama_engine::{Database, EngineError, EngineResult, ExecStats, QueryOutput, ReadRequest};
use apuama_sql::{parse_statement, visit, Statement, Value};
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, ALL_QUERIES};

/// A lineitem-shaped fact table: clustered integer key, an integer
/// quantity, a float price, and a low-cardinality flag.
fn lineitem_db(rows: &[(i64, i64, f64, u8)]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table lineitem (l_orderkey int not null, l_quantity int, \
         l_extendedprice float, l_returnflag text, primary key (l_orderkey)) \
         clustered by (l_orderkey)",
    )
    .unwrap();
    let data: Vec<Vec<Value>> = rows
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
    db.load_table("lineitem", data).unwrap();
    db
}

/// Strategy: unique order keys with arbitrary payloads. Float payloads are
/// quarter-steps (exactly representable, sums never round), so the strict
/// byte-identity assertions stay valid however partial aggregates
/// associate.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64, u8)>> {
    proptest::collection::btree_map(0i64..500, (0i64..100, 0i64..4000, any::<u8>()), 0..150)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, (q, p, f))| (k, q, p as f64 * 0.25, f))
                .collect::<Vec<_>>()
        })
}

/// The query family: `(statement with placeholders, parameter count)`.
/// Covers the kernel's supported shape (single table, range + residual
/// predicates, decomposable aggregates, GROUP BY) and its documented
/// fallbacks (non-aggregated projection, DISTINCT).
const FAMILY: &[(&str, usize)] = &[
    (
        "select sum(l_quantity) as s from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    (
        "select count(*) as n, sum(l_extendedprice) as s from lineitem \
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
         where l_orderkey >= $1 and l_orderkey < $2",
        2,
    ),
    (
        "select l_returnflag, count(*) as n from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3 \
         group by l_returnflag order by n desc, l_returnflag",
        3,
    ),
    (
        "select sum(l_extendedprice) as s from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3",
        3,
    ),
    // Kernel fallback shapes: the interpreter must serve these through the
    // same cached-plan seam.
    (
        "select l_orderkey, l_quantity from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 and l_quantity > $3 \
         order by l_orderkey limit 10",
        3,
    ),
    (
        "select distinct l_quantity from lineitem \
         where l_orderkey >= $1 and l_orderkey < $2 order by l_quantity",
        2,
    ),
];

/// Renders the placeholder statement as literal text — what a driver
/// without prepared statements would send.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prepared+bound path must be indistinguishable from the text
    /// path: same bytes out, same work counted.
    #[test]
    fn prepared_equals_text_byte_for_byte(
        rows in rows_strategy(),
        query_idx in 0usize..FAMILY.len(),
        lo in 0i64..400,
        width in 1i64..400,
        qty in 0i64..100,
        kernel_off in any::<bool>(),
    ) {
        let (template, n_params) = FAMILY[query_idx];
        let db = lineitem_db(&rows);
        if kernel_off {
            db.query("set enable_kernel = off").unwrap();
        }
        let params = params_for(n_params, lo, lo + width, qty);
        let text = render(template, &params);

        prop_assert_eq!(db.prepare(template).unwrap(), n_params);
        let want = db.query(&text).unwrap();
        let got = db.query_bound(template, &params).unwrap();

        prop_assert_eq!(&got.columns, &want.columns);
        // Byte identity, float bits included — no tolerance.
        prop_assert_eq!(&got.rows, &want.rows, "{}", text);
        prop_assert_eq!(got.stats.rows_scanned, want.stats.rows_scanned, "{}", text);
        prop_assert_eq!(got.stats.cpu_tuple_ops, want.stats.cpu_tuple_ops, "{}", text);
        prop_assert_eq!(got.stats.index_probes, want.stats.index_probes, "{}", text);
        prop_assert_eq!(got.stats.rows_out, want.stats.rows_out, "{}", text);
        prop_assert_eq!(
            got.stats.buffer.accesses(),
            want.stats.buffer.accesses(),
            "{}", text
        );
    }

    /// The fused kernel and the interpreted pipeline agree bit for bit on
    /// every bound statement (the kernel silently falls back on shapes it
    /// does not support, so every family member must hold).
    #[test]
    fn kernel_equals_interpreter_byte_for_byte(
        rows in rows_strategy(),
        query_idx in 0usize..FAMILY.len(),
        lo in 0i64..400,
        width in 1i64..400,
        qty in 0i64..100,
    ) {
        let (template, n_params) = FAMILY[query_idx];
        let db = lineitem_db(&rows);
        let params = params_for(n_params, lo, lo + width, qty);

        let kernel = db.query_bound(template, &params).unwrap();
        db.query("set enable_kernel = off").unwrap();
        let interpreted = db.query_bound(template, &params).unwrap();

        prop_assert_eq!(&kernel.columns, &interpreted.columns);
        prop_assert_eq!(&kernel.rows, &interpreted.rows, "{}", template);
        prop_assert_eq!(kernel.stats.rows_scanned, interpreted.stats.rows_scanned);
        prop_assert_eq!(kernel.stats.cpu_tuple_ops, interpreted.stats.cpu_tuple_ops);
        prop_assert_eq!(kernel.stats.index_probes, interpreted.stats.index_probes);
        prop_assert_eq!(
            kernel.stats.buffer.accesses(),
            interpreted.stats.buffer.accesses()
        );
    }
}

/// DDL broadcast through the controller invalidates every backend's cached
/// plans: the bound statement replans against the new schema instead of
/// serving a stale access path, and keeps matching the text path.
#[test]
fn ddl_through_controller_evicts_cached_plans_on_every_backend() {
    let rows: Vec<(i64, i64, f64, u8)> = (0..300)
        .map(|i| (i, i % 17, (i % 23) as f64 * 1.5, (i % 3) as u8))
        .collect();
    let nodes: Vec<_> = (0..2)
        .map(|i| EngineNode::new(format!("n{i}"), lineitem_db(&rows)))
        .collect();
    let conns: Vec<std::sync::Arc<dyn Connection>> = nodes
        .iter()
        .map(|n| std::sync::Arc::new(NodeConnection::new(n.clone())) as _)
        .collect();
    let controller = Controller::new(conns, ControllerConfig::default());

    let sql = "select l_returnflag, sum(l_extendedprice) as s, count(*) as n \
               from lineitem where l_quantity >= $1 and l_quantity < $2 \
               group by l_returnflag order by l_returnflag";
    // Warm every backend's plan cache, whichever the balancer picks later.
    for node in &nodes {
        assert_eq!(node.with_db(|db| db.prepare(sql)).unwrap(), 2);
    }
    let params = [Value::Int(3), Value::Int(12)];
    let bound = ReadRequest::bound(sql, &params);
    let (before, _) = controller.read(&bound).unwrap();

    // Broadcast DDL: a secondary index on the filtered column changes what
    // the planner would choose for this very statement.
    controller
        .execute("create index li_qty on lineitem (l_quantity)")
        .unwrap();
    for node in &nodes {
        let stats = node.with_db(|db| db.plan_cache_stats());
        assert_eq!(
            stats.invalidations, 0,
            "invalidation is detected lazily, at next lookup"
        );
    }

    // Every backend must replan; drain the balancer until both served.
    let mut served_after = Vec::new();
    for _ in 0..8 {
        let (after, node) = controller.read(&bound).unwrap();
        assert_eq!(after.rows, before.rows, "stale plan changed the answer");
        served_after.push(node);
    }
    for (i, node) in nodes.iter().enumerate() {
        if !served_after.contains(&i) {
            continue;
        }
        let stats = node.with_db(|db| db.plan_cache_stats());
        assert!(
            stats.invalidations >= 1,
            "backend {i} served a bound read without evicting: {stats:?}"
        );
    }
    assert!(
        !served_after.is_empty(),
        "balancer routed no bound reads at all"
    );

    // And the replanned statement still matches a text execution.
    let text = render(sql, &params);
    let (text_out, _) = controller.execute(&text).unwrap();
    let (bound_out, _) = controller.read(&bound).unwrap();
    assert_eq!(bound_out.rows, text_out.rows);
}

// ---------------------------------------------------------------------------
// Lifted/unlifted equivalence
// ---------------------------------------------------------------------------

/// What one route made of a statement: column names, rows (as debug text,
/// so NaN equals NaN and -0.0 differs from 0.0) and every counter — or the
/// class of its error.
type Outcome = Result<(Vec<String>, String, ExecStats), std::mem::Discriminant<EngineError>>;

fn outcome(result: EngineResult<QueryOutput>) -> Outcome {
    result
        .map(|out| (out.columns, format!("{:?}", out.rows), out.stats))
        .map_err(|e| std::mem::discriminant(&e))
}

/// Runs `sql` lifted — from the plan cache, after `warm` (the same shape
/// with other literals) had the chance to compile it, on a cold pool — and
/// unlifted, each on its own fork of `base`, so the buffer pool starts the
/// same for both.
fn lifted_and_unlifted(
    base: &Database,
    warm: &str,
    sql: &str,
    kernel_on: bool,
) -> (Outcome, Outcome) {
    let knob = format!(
        "set enable_kernel = {}",
        if kernel_on { "on" } else { "off" }
    );
    let lifted = base.fork().unwrap();
    lifted.query(&knob).unwrap();
    let _ = lifted.query(warm);
    lifted.drop_caches();
    let mut unlifted = base.fork().unwrap();
    unlifted.query(&knob).unwrap();
    (outcome(lifted.query(sql)), outcome(unlifted.execute(sql)))
}

/// 2^53 + 1: the first integer a float cannot hold.
const BIG: i64 = (1 << 53) + 1;

type MixedRow = (Option<i64>, Option<f64>, Option<u8>, Option<u16>);

/// `m (k, i, f, code, wide)`: `i` an integer column reaching past 2^53,
/// `f` a float column holding NaN, `code` a handful of strings (every
/// segment dictionary-coded), `wide` a string per row (past a few hundred
/// rows, a segment outgrows its dictionary). Every payload may be NULL.
fn mixed_db(rows: &[MixedRow]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "create table m (k int not null, i int, f float, code text, wide text, \
         primary key (k)) clustered by (k)",
    )
    .unwrap();
    let or_null = |v: Option<Value>| v.unwrap_or(Value::Null);
    let data: Vec<Vec<Value>> = (rows.iter().enumerate())
        .map(|(k, (i, f, code, wide))| {
            vec![
                Value::Int(k as i64),
                or_null(i.map(Value::Int)),
                or_null(f.map(Value::Float)),
                or_null(code.map(|c| Value::Str(format!("c{}", c % 5)))),
                or_null(wide.map(|w| Value::Str(format!("w{w:04}")))),
            ]
        })
        .collect();
    db.load_table("m", data).unwrap();
    db
}

fn mixed_rows() -> impl Strategy<Value = Vec<MixedRow>> {
    const WIDE_INTS: [i64; 5] = [BIG, -BIG, BIG - 1, BIG + 1, i64::MAX];
    const ODD_FLOATS: [f64; 5] = [
        f64::NAN,
        -0.0,
        9007199254740992.0,
        -9007199254740992.0,
        1e300,
    ];
    let int = prop_oneof![
        Just(None),
        (-40i64..40).prop_map(Some),
        (0..WIDE_INTS.len()).prop_map(|i| Some(WIDE_INTS[i])),
    ];
    let float = prop_oneof![
        Just(None),
        (0..ODD_FLOATS.len()).prop_map(|i| Some(ODD_FLOATS[i])),
        (-160i32..160).prop_map(|x| Some(x as f64 * 0.25)),
    ];
    let code = proptest::option::of(any::<u8>());
    let wide = proptest::option::of(0u16..2000);
    proptest::collection::vec((int, float, code, wide), 0..700)
}

/// Literals a predicate compares with.
const LITERALS: &[&str] = &[
    "0",
    "7",
    "-3",
    "9007199254740993",
    "-9007199254740993",
    "9007199254740992.0",
    "2.5",
    "-0.25",
    "null",
    "'c1'",
    "'c3'",
    "'w0500'",
    "'zz'",
];

/// One predicate of a generated WHERE clause; `usize`s index [`LITERALS`].
#[derive(Debug, Clone)]
enum Pred {
    Cmp(&'static str, &'static str, usize, bool),
    Between(&'static str, usize, usize, bool),
    In(&'static str, Vec<usize>, bool),
    /// A literal inside arithmetic: never lifted.
    Arith(&'static str, usize),
    IsNull(&'static str),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    /// The predicate as SQL, each literal index moved on by `shift`.
    fn render(&self, shift: usize) -> String {
        let lit = |i: &usize| LITERALS[(i + shift) % LITERALS.len()];
        let not = |n: &bool| if *n { "not " } else { "" };
        match self {
            Pred::Cmp(col, op, l, true) => format!("{} {op} {col}", lit(l)),
            Pred::Cmp(col, op, l, false) => format!("{col} {op} {}", lit(l)),
            Pred::Between(col, lo, hi, n) => {
                format!("{col} {}between {} and {}", not(n), lit(lo), lit(hi))
            }
            Pred::In(col, list, n) => {
                let items: Vec<&str> = list.iter().map(lit).collect();
                format!("{col} {}in ({})", not(n), items.join(", "))
            }
            Pred::Arith(col, l) => format!("{col} + 1 > {}", lit(l)),
            Pred::IsNull(col) => format!("{col} is null"),
            Pred::And(a, b) => format!("({} and {})", a.render(shift), b.render(shift)),
            Pred::Or(a, b) => format!("({} or {})", a.render(shift), b.render(shift)),
            Pred::Not(a) => format!("not ({})", a.render(shift)),
        }
    }
}

fn pred() -> impl Strategy<Value = Pred> {
    const COLUMNS: [&str; 5] = ["k", "i", "f", "code", "wide"];
    const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    let col = || (0..COLUMNS.len()).prop_map(|c| COLUMNS[c]);
    let lit = || 0..LITERALS.len();
    let cmp = (col(), (0..OPS.len()), lit(), any::<bool>())
        .prop_map(|(c, o, l, left)| Pred::Cmp(c, OPS[o], l, left));
    let leaf = prop_oneof![
        cmp.clone(),
        cmp,
        (col(), lit(), lit(), any::<bool>()).prop_map(|(c, lo, hi, n)| Pred::Between(c, lo, hi, n)),
        (col(), proptest::collection::vec(lit(), 1..6), any::<bool>())
            .prop_map(|(c, l, n)| Pred::In(c, l, n)),
        ((0..3usize), lit()).prop_map(|(c, l)| Pred::Arith(COLUMNS[c], l)),
        col().prop_map(Pred::IsNull),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Pred::Not(Box::new(a))),
        ]
    })
}

/// Statement shapes around a generated WHERE clause: the general tree,
/// the fused aggregate, an index-range candidate, LIMIT and DISTINCT; then
/// the single-table source lowering compiles — select-list expressions,
/// `*`, an aliased table, the point read — and one it leaves to `open`, a
/// subquery conjunct.
const SHAPES: &[&str] = &[
    "select k, i, f, code, wide from m where {} order by k",
    "select code, count(*) as n, sum(f) as s, min(i) as lo, max(wide) as w from m \
     where {} group by code order by code",
    "select count(*) as n, sum(i) as s from m where {}",
    "select k, f from m where {} order by f desc, k limit 5",
    "select distinct code from m where {} order by code",
    "select k + 1 as k1, f * 2.0 from m where {} order by k1",
    "select * from m where {} order by k",
    "select t.k, t.code, wide from m as t where {} order by t.k",
    "select k, f from m where k = 7 and {}",
    "select k, code from m where {} and k in (select k from m where i > 0) order by k",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A text read lifted into the plan cache answers what the statement
    /// with its literals in place answers, counter for counter — whether
    /// the plan it ran was compiled for these literals or others.
    #[test]
    fn lifted_text_reads_equal_unlifted_execution(
        rows in mixed_rows(),
        pred in pred(),
        shape in 0..SHAPES.len(),
        shift in 0..LITERALS.len(),
        kernel_on in any::<bool>(),
    ) {
        let base = mixed_db(&rows);
        let sql = SHAPES[shape].replace("{}", &pred.render(0));
        let warm = SHAPES[shape].replace("{}", &pred.render(shift));
        let (lifted, unlifted) = lifted_and_unlifted(&base, &warm, &sql, kernel_on);
        prop_assert_eq!(lifted, unlifted, "{}", sql);
    }
}

/// Pairs of statements that differ only outside the WHERE literals a text
/// read lifts: a select-list literal, ORDER BY, LIMIT, an IN list's length.
/// Each pair lifts to two shapes, so it must key apart.
const APART: &[(&str, &str)] = &[
    (
        "select k, 1 as c from m where {} order by k",
        "select k, 2 as c from m where {} order by k",
    ),
    (
        "select k, f from m where {} order by k",
        "select k, f from m where {} order by k desc",
    ),
    (
        "select k from m where {} order by k limit 3",
        "select k from m where {} order by k limit 4",
    ),
    (
        "select k from m where k in (1, 2) and {} order by k",
        "select k from m where k in (1, 2, 3) and {} order by k",
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A statement differing from a cached one only outside its lifted
    /// literals misses, and answers what it answers uncached.
    #[test]
    fn lifted_shapes_differing_outside_the_literals_key_apart(
        rows in mixed_rows(),
        pred in pred(),
        pair in 0..APART.len(),
        kernel_on in any::<bool>(),
    ) {
        let base = mixed_db(&rows);
        let (a, b) = APART[pair];
        let (a, b) = (a.replace("{}", &pred.render(0)), b.replace("{}", &pred.render(0)));
        for (warm, sql) in [(&a, &b), (&b, &a)] {
            let (lifted, unlifted) = lifted_and_unlifted(&base, warm, sql, kernel_on);
            prop_assert_eq!(lifted, unlifted, "{} after {}", sql, warm);
        }
        let db = base.fork().unwrap();
        let _ = db.query(&a);
        let _ = db.query(&b);
        let stats = db.plan_cache_stats();
        prop_assert_eq!((stats.misses, stats.hits), (2, 0), "{} / {}", a, b);
    }
}

/// The eight TPC-H evaluation queries, sent as pass-through text under two
/// parameter sets: lifted (each run after the other set compiled its
/// shape) equals unlifted, and the second set of each shape is a hit.
#[test]
fn tpch_eval_queries_lifted_equal_unlifted() {
    let mut base = Database::in_memory();
    load_into(
        &mut base,
        &generate(TpchConfig {
            scale_factor: 0.002,
            seed: 5,
        }),
    )
    .unwrap();
    let sets = [QueryParams::default(), QueryParams::random(11)];
    let mut shapes_shared = 0;
    for q in ALL_QUERIES {
        for (i, params) in sets.iter().enumerate() {
            let sql = q.sql(params);
            let warm = q.sql(&sets[1 - i]);
            for kernel_on in [true, false] {
                let (lifted, unlifted) = lifted_and_unlifted(&base, &warm, &sql, kernel_on);
                assert!(lifted.is_ok(), "{}: {lifted:?}", q.label());
                assert_eq!(lifted, unlifted, "{} kernel {kernel_on}", q.label());
            }
        }
        // The second set hits the first's entry exactly when both lift to
        // one text (a literal inside date arithmetic stays in the text).
        let lifted = |p: &QueryParams| match parse_statement(&q.sql(p)).unwrap() {
            Statement::Select(s) => visit::lift_where_literals(&s).text,
            _ => unreachable!("evaluation queries are SELECTs"),
        };
        let shared = lifted(&sets[0]) == lifted(&sets[1]);
        let db = base.fork().unwrap();
        db.query(&q.sql(&sets[0])).unwrap();
        db.query(&q.sql(&sets[1])).unwrap();
        let stats = db.plan_cache_stats();
        let want = if shared { (1, 1) } else { (2, 0) };
        assert_eq!((stats.misses, stats.hits), want, "{}: {stats:?}", q.label());
        shapes_shared += shared as usize;
    }
    // Q3 and Q21 compare columns with plain literals only; the others add
    // an interval to a date literal, and arithmetic stays in the text.
    assert_eq!(shapes_shared, 2, "{shapes_shared} of 8 shapes shared");
}
