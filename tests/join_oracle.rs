//! Join answers checked against the data, not against another build of
//! the engine: generated statements over two to four small tables run
//! through the join block — serial and on the morsel tier, as text and
//! bound — and their rows must be the ones nested loops over
//! [`apuama_storage::Heap::iter`], written here, produce: the same multiset
//! always, the same sequence for the `ORDER BY` forms.
//!
//! Between the two halves: the shapes in which the block sheds build rows
//! through a *leaf* input before it fixes its order, and those in which a
//! build side's integer keys narrow the driving selection before the
//! stream starts (DESIGN.md §10) — the same oracle, plus which reductions
//! and which key filters `EXPLAIN ANALYZE` says ran.
//!
//! The second half is about *where* the block evaluates an input's
//! subquery conjuncts (DESIGN.md §10): behind the joins that cannot expand
//! the stream when the input drives, over its selection before it is
//! materialized when it does not — the same answers as the oracle's and as
//! the conjunct hoisted by hand through a derived table, with the probe
//! counts the placement rule promises; and the two divergences from the
//! scan-first order that rule accepts, each pinned.

use proptest::prelude::*;

use apuama_engine::{Database, EngineError, QueryOutput};
use apuama_sql::Value;
use apuama_storage::{ColumnVec, Row};

// Every table has these columns: `id` is unique and the clustering key, `k`
// a nullable key with duplicates, `f` the same number as a float (or
// NULL, or off by a half), `s` the same as text (or NULL), `w` a small int.
const ID: usize = 0;
const K: usize = 1;
const F: usize = 2;
const S: usize = 3;
const W: usize = 4;
const COLUMNS: &str = "id, k, f, s, w";

/// A generated row: its key and a byte the other columns derive from.
type Gen = (Option<i64>, u8);

fn row(id: i64, (k, byte): Gen) -> Row {
    let num = |k: i64| match byte % 8 {
        0 | 4 => Value::Null,
        1 => Value::Float(k as f64 + 0.5),
        _ => Value::Float(k as f64),
    };
    vec![
        Value::Int(id),
        k.map_or(Value::Null, Value::Int),
        k.map_or(Value::Null, num),
        k.filter(|_| byte % 5 != 0)
            .map_or(Value::Null, |k| Value::Str(format!("s{k}"))),
        Value::Int((byte % 4) as i64),
    ]
}

/// How many rows `b` is padded to: three stored segments, so its scan
/// splits into morsels and a clustered range can cross a segment boundary.
const B_ROWS: i64 = 2_200;

/// The tables of one case. `b` is the large one (it drives every join it
/// is in), `e` is empty, `u` has one row per key (`id = k`), `p` is what
/// `EXISTS` probes through its index on `k`.
fn build(a: &[Gen], b: &[Gen], c: &[Gen], d: &[Gen], p: &[Gen], tombstones: bool) -> Database {
    let mut db = Database::in_memory();
    for t in ["a", "b", "c", "d", "e", "u", "p"] {
        db.execute(&format!(
            "create table {t} (id int not null, k int, f float, s text, w int, \
             primary key (id)) clustered by (id)"
        ))
        .unwrap();
    }
    db.execute("create index p_k on p (k)").unwrap();
    let rows = |gen: &[Gen]| -> Vec<Row> {
        (gen.iter().enumerate())
            .map(|(i, g)| row(i as i64, *g))
            .collect()
    };
    let mut b_rows = rows(b);
    // Padding keys mostly miss the small tables' 0..6, sometimes hit.
    b_rows.extend(
        (b.len() as i64..B_ROWS).map(|i| row(i, (Some((i * 7) % 40), (i * 13 % 251) as u8))),
    );
    db.load_table("a", rows(a)).unwrap();
    db.load_table("b", b_rows).unwrap();
    db.load_table("c", rows(c)).unwrap();
    db.load_table("d", rows(d)).unwrap();
    db.load_table("p", rows(p)).unwrap();
    let unique: Vec<Row> = (0..8).map(|k| row(k, (Some(k), 2 + k as u8))).collect();
    db.load_table("u", unique).unwrap();
    if tombstones {
        for dml in [
            "delete from a where w = 1",
            "delete from b where id - (id / 5) * 5 = 2",
            "delete from c where id = 0",
            "delete from p where w = 3",
        ] {
            db.execute(dml).unwrap();
        }
    }
    db
}

/// The live rows of `table`, in heap order — ascending `id`.
fn live(db: &Database, table: &str) -> Vec<Row> {
    let rows: Vec<Row> = (db.table(table).unwrap().heap.iter())
        .map(|(_, r)| r)
        .collect();
    assert!(rows
        .windows(2)
        .all(|w| w[0][ID].as_i64() < w[1][ID].as_i64()));
    rows
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// SQL `=` over the values the tables hold: unknown on NULL, numbers by
/// value (`1 = 1.0`), text by bytes.
fn eq(a: &Value, b: &Value) -> Option<bool> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => None,
        (Value::Str(x), Value::Str(y)) => Some(x == y),
        _ => Some(num(a).expect("a number") == num(b).expect("a number")),
    }
}

fn and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn int(v: &Value) -> Option<i64> {
    v.as_i64()
}

/// Does `p` hold a row whose `k` equals `key`?
fn exists(p: &[Row], key: &Value) -> bool {
    p.iter().any(|r| eq(&r[K], key) == Some(true))
}

/// A case's conjuncts over more than one FROM item, on one row of each.
type Keep<'a> = Box<dyn Fn(&[&Row]) -> Option<bool> + 'a>;

/// One statement and what the data says it answers.
struct Case<'a> {
    /// `from … where …`, with `$1` where the parameter goes.
    body: String,
    /// The scope name of each FROM item, in FROM order.
    names: Vec<&'static str>,
    /// The rows each FROM item stands for, its own conjuncts applied.
    inputs: Vec<Vec<Row>>,
    /// The conjuncts over more than one item.
    keep: Keep<'a>,
}

impl Case<'_> {
    /// `id`, `s` and `w` of every FROM item: which rows met, and that the
    /// right cells came along.
    fn select(&self) -> String {
        format!("select {} {}", self.items(), self.body)
    }

    fn items(&self) -> String {
        self.list(|i, n| format!("{n}.id as i{i}, {n}.s as s{i}, {n}.w as w{i}"))
    }

    /// `item(position, scope name)` of every FROM item, comma-separated.
    fn list(&self, item: impl Fn(usize, &str) -> String) -> String {
        let items: Vec<String> = (self.names.iter().enumerate())
            .map(|(i, n)| item(i, n))
            .collect();
        items.join(", ")
    }

    fn ordered(&self) -> String {
        let ids = self.list(|i, _| format!("i{i}"));
        format!("{} order by {ids}", self.select())
    }

    /// Nested loops, first item outermost: the answer in `ORDER BY` order,
    /// since every item's rows ascend in `id`.
    fn oracle(&self) -> Vec<Row> {
        let mut out = Vec::new();
        let mut at = vec![0usize; self.inputs.len()];
        if self.inputs.iter().any(Vec::is_empty) {
            return out;
        }
        loop {
            let tuple: Vec<&Row> = (at.iter().zip(&self.inputs))
                .map(|(&i, rows)| &rows[i])
                .collect();
            if (self.keep)(&tuple) == Some(true) {
                out.push(
                    (tuple.iter())
                        .flat_map(|r| [r[ID].clone(), r[S].clone(), r[W].clone()])
                        .collect(),
                );
            }
            // Advance the innermost item first.
            let mut i = at.len();
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                at[i] += 1;
                if at[i] < self.inputs[i].len() {
                    break;
                }
                at[i] = 0;
            }
        }
    }
}

/// The rows' `id` columns: unique per answer row, so sorting on them makes
/// any order of a correct answer the oracle's.
fn ids(row: &Row) -> Vec<i64> {
    row.iter().step_by(3).map(|v| v.as_i64().unwrap()).collect()
}

/// Work counters that must not depend on workers or on text against bound.
fn counters(out: &QueryOutput) -> [u64; 7] {
    let s = &out.stats;
    [
        s.rows_scanned,
        s.cpu_tuple_ops,
        s.index_probes,
        s.scan_batches,
        s.rows_out,
        s.bytes_out,
        s.buffer.accesses(),
    ]
}

/// Runs the case's two forms under workers × text/bound: the unordered
/// form's rows are a permutation of the oracle's, the ordered form's are
/// the oracle's, and the counters agree across the four executions.
fn check(db: &Database, case: &Case<'_>, p: i64) {
    let want = case.oracle();
    for (sql, ordered) in [(case.select(), false), (case.ordered(), true)] {
        let text = sql.replace("$1", &p.to_string());
        let params: Vec<Value> = sql
            .contains("$1")
            .then_some(Value::Int(p))
            .into_iter()
            .collect();
        let mut reference: Option<QueryOutput> = None;
        for workers in [1, 4] {
            db.query(&format!("set parallel_workers = {workers}"))
                .unwrap();
            for (path, out) in [
                ("text", db.query(&text)),
                ("bound", db.query_bound(&sql, &params)),
            ] {
                let what = format!("{path} ×{workers}: {text}");
                let out = out.unwrap_or_else(|e| panic!("{what}: {e}"));
                let mut got = out.rows.clone();
                if !ordered {
                    got.sort_by_key(ids);
                }
                assert_eq!(got, want, "{what}");
                match &reference {
                    None => reference = Some(out),
                    Some(first) => {
                        assert_eq!(out.rows, first.rows, "{what}");
                        assert_eq!(counters(&out), counters(first), "{what}");
                    }
                }
            }
        }
    }
}

/// The equi-join and post-filter shapes the block has a path for.
fn family<'a>(db: &Database, p: i64) -> Vec<Case<'a>> {
    let t = |name: &str| live(db, name);
    let (a, b, c, d) = (t("a"), t("b"), t("c"), t("d"));
    let case = |body: &str, names: &[&'static str], inputs: Vec<Vec<Row>>, keep: Keep<'a>| Case {
        body: body.to_string(),
        names: names.to_vec(),
        inputs,
        keep,
    };
    let only = |rows: &[Row], f: &dyn Fn(&Row) -> bool| -> Vec<Row> {
        rows.iter().filter(|r| f(r)).cloned().collect()
    };
    let w_below = |n: i64| move |r: &Row| int(&r[W]).is_some_and(|w| w < n);
    vec![
        // NULL keys and duplicate keys, on both sides.
        case(
            "from a, b where a.k = b.k",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(|r| eq(&r[0][K], &r[1][K])),
        ),
        // Int against Float; text keys.
        case(
            "from a, b where a.f = b.k",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(|r| eq(&r[0][F], &r[1][K])),
        ),
        case(
            "from b, c where b.s = c.s",
            &["b", "c"],
            vec![b.clone(), c.clone()],
            Box::new(|r| eq(&r[0][S], &r[1][S])),
        ),
        // An expression key, on the build side and on the probing one.
        case(
            "from a, b where a.k + 1 = b.k",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(|r| {
                eq(
                    &int(&r[0][K]).map_or(Value::Null, |k| Value::Int(k + 1)),
                    &r[1][K],
                )
            }),
        ),
        case(
            "from a, b where a.k = b.k - b.w",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(|r| {
                let key = int(&r[1][K]).zip(int(&r[1][W])).map(|(k, w)| k - w);
                eq(&r[0][K], &key.map_or(Value::Null, Value::Int))
            }),
        ),
        // A composite key whose components come from two bound inputs.
        case(
            "from a, b, c where a.k = b.k and c.k = b.w and c.w = a.w",
            &["a", "b", "c"],
            vec![a.clone(), b.clone(), c.clone()],
            Box::new(|r| {
                and(
                    eq(&r[0][K], &r[1][K]),
                    and(eq(&r[2][K], &r[1][W]), eq(&r[2][W], &r[0][W])),
                )
            }),
        ),
        // A post-filter across two inputs, with the parameter in it.
        case(
            "from a, b where a.k = b.k and a.w + b.w > $1",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(move |r| {
                let sum = int(&r[0][W]).zip(int(&r[1][W])).map(|(x, y)| x + y > p);
                and(eq(&r[0][K], &r[1][K]), sum)
            }),
        ),
        // A disconnected input (cross step), with a filter of its own.
        case(
            "from a, b, d where a.k = b.k and d.w < $1",
            &["a", "b", "d"],
            vec![a.clone(), b.clone(), only(&d, &w_below(p))],
            Box::new(|r| eq(&r[0][K], &r[1][K])),
        ),
        // An empty input, joined and crossed.
        case(
            "from a, b, e where a.k = b.k and e.k = b.w",
            &["a", "b", "e"],
            vec![a.clone(), b.clone(), Vec::new()],
            Box::new(|_| Some(true)),
        ),
        case(
            "from c, e",
            &["c", "e"],
            vec![c.clone(), Vec::new()],
            Box::new(|_| Some(true)),
        ),
        // A derived table as the largest input, and as a smaller one.
        case(
            &format!("from a, (select {COLUMNS} from b where w < 3) x where a.k = x.k"),
            &["a", "x"],
            vec![a.clone(), only(&b, &w_below(3))],
            Box::new(|r| eq(&r[0][K], &r[1][K])),
        ),
        case(
            &format!("from b, (select {COLUMNS} from a where w < $1) x where b.k = x.k"),
            &["b", "x"],
            vec![b.clone(), only(&a, &w_below(p))],
            Box::new(|r| eq(&r[0][K], &r[1][K])),
        ),
        // Four inputs.
        case(
            "from a, b, c, d where a.k = b.k and b.w = c.w and c.k = d.k",
            &["a", "b", "c", "d"],
            vec![a.clone(), b.clone(), c.clone(), d.clone()],
            Box::new(|r| {
                and(
                    eq(&r[0][K], &r[1][K]),
                    and(eq(&r[1][W], &r[2][W]), eq(&r[2][K], &r[3][K])),
                )
            }),
        ),
    ]
}

/// `b` restricted to a key range that crosses its first segment boundary
/// (slot 1024), joined as the driver and — against an unrestricted alias
/// of itself — as a build side.
fn ranges<'a>(db: &Database, p: i64) -> Vec<Case<'a>> {
    let (a, b) = (live(db, "a"), live(db, "b"));
    let (lo, hi) = (1_000 - 20 * p, 1_040 + 20 * p);
    let in_range: Vec<Row> = (b.iter())
        .filter(|r| int(&r[ID]).is_some_and(|id| id >= lo && id < hi))
        .cloned()
        .collect();
    vec![
        Case {
            body: format!("from a, b where a.k = b.k and b.id >= {lo} and b.id < {hi}"),
            names: vec!["a", "b"],
            inputs: vec![a, in_range.clone()],
            keep: Box::new(|r| eq(&r[0][K], &r[1][K])),
        },
        Case {
            body: format!(
                "from b, b x where b.w = x.k and x.id >= {lo} and x.id < {hi} and b.k < 2"
            ),
            names: vec!["b", "x"],
            inputs: vec![
                (b.iter())
                    .filter(|r| int(&r[K]).is_some_and(|k| k < 2))
                    .cloned()
                    .collect(),
                in_range,
            ],
            keep: Box::new(|r| eq(&r[0][W], &r[1][K])),
        },
    ]
}

fn gens(keys: i64, n: usize) -> impl Strategy<Value = Vec<Gen>> {
    proptest::collection::vec((proptest::option::of(0..keys), any::<u8>()), 0..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn joins_answer_what_nested_loops_over_the_heap_answer(
        a in gens(6, 12),
        b in gens(6, 30),
        c in gens(6, 12),
        d in gens(6, 4),
        tombstones in any::<bool>(),
        p in 1i64..4,
    ) {
        let db = build(&a, &b, &c, &d, &[], tombstones);
        for case in family(&db, p) {
            check(&db, &case, p);
        }
        // Clustered ranges arrive as row ids cut at segment boundaries
        // under `enable_seqscan = off`, as filtered segments otherwise.
        for seqscan in ["off", "on"] {
            db.query(&format!("set enable_seqscan = {seqscan}")).unwrap();
            for case in ranges(&db, p) {
                check(&db, &case, p);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Build sides reduced through their leaves
// ---------------------------------------------------------------------------

/// The `⋉` lines of the statement's `EXPLAIN ANALYZE`, each as
/// `(parent by leaf, rows before, rows after)`.
fn reductions(db: &Database, sql: &str) -> Vec<(String, u64, u64)> {
    let plan = db.query(&format!("explain analyze {sql}")).unwrap();
    (plan.rows.iter())
        .filter_map(|r| r[0].as_str().unwrap().trim_start().strip_prefix("⋉ "))
        .map(|line| {
            let (pair, rest) = line.split_once(" on ").unwrap();
            let (before, after) = rest.rsplit_once(": ").unwrap().1.split_once(" → ").unwrap();
            (
                pair.to_string(),
                before.parse().unwrap(),
                after.parse().unwrap(),
            )
        })
        .collect()
}

/// Shapes with a leaf — an input all of whose edges go to one other input —
/// under a build side, and the shapes next to them that must be left
/// alone: each case with the `parent by leaf` pairs the block reduces, in
/// the order it does. `b` drives all of them.
fn leaves<'a>(db: &Database, p: i64) -> Vec<(Case<'a>, Vec<&'static str>)> {
    let t = |name: &str| live(db, name);
    let (a, b, c, d) = (t("a"), t("b"), t("c"), t("d"));
    let case = |body: &str, names: &[&'static str], inputs: Vec<Vec<Row>>, keep: Keep<'a>| Case {
        body: body.to_string(),
        names: names.to_vec(),
        inputs,
        keep,
    };
    let only = |rows: &[Row], f: &dyn Fn(&Row) -> bool| -> Vec<Row> {
        rows.iter().filter(|r| f(r)).cloned().collect()
    };
    vec![
        // One deep; the leaf's keys repeat and some are NULL.
        (
            case(
                "from b, c, d where b.w = c.w and c.k = d.k",
                &["b", "c", "d"],
                vec![b.clone(), c.clone(), d.clone()],
                Box::new(|r| and(eq(&r[0][W], &r[1][W]), eq(&r[1][K], &r[2][K]))),
            ),
            vec!["c by d"],
        ),
        // Two deep, leaves first: `a` under `d` under `c`.
        (
            case(
                "from a, d, c, b where b.w = c.w and c.k = d.k and d.w = a.w",
                &["a", "d", "c", "b"],
                vec![a.clone(), d.clone(), c.clone(), b.clone()],
                Box::new(|r| {
                    and(
                        eq(&r[3][W], &r[2][W]),
                        and(eq(&r[2][K], &r[1][K]), eq(&r[1][W], &r[0][W])),
                    )
                }),
            ),
            vec!["d by a", "c by d"],
        ),
        // Float against int keys, and text keys with NULLs among them.
        (
            case(
                "from b, c, d where b.w = c.w and c.f = d.k",
                &["b", "c", "d"],
                vec![b.clone(), c.clone(), d.clone()],
                Box::new(|r| and(eq(&r[0][W], &r[1][W]), eq(&r[1][F], &r[2][K]))),
            ),
            vec!["c by d"],
        ),
        (
            case(
                "from b, c, a where b.w = c.w and c.s = a.s",
                &["b", "c", "a"],
                vec![b.clone(), c.clone(), a.clone()],
                Box::new(|r| and(eq(&r[0][W], &r[1][W]), eq(&r[1][S], &r[2][S]))),
            ),
            vec!["c by a"],
        ),
        // A leaf that empties its parent: the empty table, and a filter
        // nothing passes.
        (
            case(
                "from b, c, e where b.w = c.w and c.k = e.k",
                &["b", "c", "e"],
                vec![b.clone(), c.clone(), Vec::new()],
                Box::new(|_| Some(true)),
            ),
            vec!["c by e"],
        ),
        (
            case(
                "from b, c, d where b.w = c.w and c.k = d.k and d.w > 100",
                &["b", "c", "d"],
                vec![b.clone(), c.clone(), Vec::new()],
                Box::new(|_| Some(true)),
            ),
            vec!["c by d"],
        ),
        // An expression with the parameter on the parent's side of the
        // edge, a filter on the leaf, and a post-filter across the parent.
        (
            case(
                "from b, c, d where b.w = c.w and c.k + $1 = d.k + 2 and d.w < $1 \
                 and b.id + c.id > 10",
                &["b", "c", "d"],
                vec![
                    b.clone(),
                    c.clone(),
                    only(&d, &|r| int(&r[W]).is_some_and(|w| w < p)),
                ],
                Box::new(move |r| {
                    let plus =
                        |v: &Value, n: i64| int(v).map_or(Value::Null, |k| Value::Int(k + n));
                    let far = int(&r[0][ID]).zip(int(&r[1][ID])).map(|(x, y)| x + y > 10);
                    and(
                        and(
                            eq(&r[0][W], &r[1][W]),
                            eq(&plus(&r[1][K], p), &plus(&r[2][K], 2)),
                        ),
                        far,
                    )
                }),
            ),
            vec!["c by d"],
        ),
        // A leaf of the driver is left to its step.
        (
            case(
                "from a, b, c where a.k = b.k and c.w = b.w",
                &["a", "b", "c"],
                vec![a.clone(), b.clone(), c.clone()],
                Box::new(|r| and(eq(&r[0][K], &r[1][K]), eq(&r[2][W], &r[1][W]))),
            ),
            vec![],
        ),
        // A cycle (Q5's customer – supplier – lineitem – orders): nothing
        // on it is a leaf, and what hangs off it still reduces it.
        (
            case(
                "from b, a, c, d where b.k = a.k and a.w = c.w and c.k = b.w and d.k = c.k",
                &["b", "a", "c", "d"],
                vec![b.clone(), a.clone(), c.clone(), d.clone()],
                Box::new(|r| {
                    and(
                        and(eq(&r[0][K], &r[1][K]), eq(&r[1][W], &r[2][W])),
                        and(eq(&r[2][K], &r[0][W]), eq(&r[3][K], &r[2][K])),
                    )
                }),
            ),
            vec!["c by d"],
        ),
        // Two inputs joined to each other and crossed with the rest: the
        // first of them in FROM order is the other's leaf.
        (
            case(
                "from a, b, c, d where a.k = b.k and c.k = d.k and a.w < 2",
                &["a", "b", "c", "d"],
                vec![
                    only(&a, &|r| int(&r[W]).is_some_and(|w| w < 2)),
                    b.clone(),
                    c.clone(),
                    d.clone(),
                ],
                Box::new(|r| and(eq(&r[0][K], &r[1][K]), eq(&r[2][K], &r[3][K]))),
            ),
            vec!["d by c"],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn build_sides_reduced_through_leaves_answer_what_nested_loops_answer(
        a in gens(6, 12),
        b in gens(6, 30),
        c in gens(6, 12),
        d in gens(6, 6),
        tombstones in any::<bool>(),
        p in 1i64..4,
    ) {
        let db = build(&a, &b, &c, &d, &[], tombstones);
        for (case, reduced) in leaves(&db, p) {
            check(&db, &case, p);
            let text = case.select().replace("$1", &p.to_string());
            let ran = reductions(&db, &text);
            let pairs: Vec<&str> = ran.iter().map(|(pair, ..)| pair.as_str()).collect();
            prop_assert_eq!(&pairs, &reduced, "{}", text);
            // A reduction only sheds: what it leaves is what the parent's
            // step then builds on.
            for (pair, before, after) in &ran {
                prop_assert!(after <= before, "{}: {}", text, pair);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The driving selection narrowed by build keys
// ---------------------------------------------------------------------------

/// The `∈` lines of the statement's `EXPLAIN ANALYZE`, each as
/// `(build side, rows in, rows out)`.
fn key_filters(db: &Database, sql: &str) -> Vec<(String, u64, u64)> {
    let plan = db.query(&format!("explain analyze {sql}")).unwrap();
    (plan.rows.iter())
        .filter_map(|r| {
            r[0].as_str()
                .unwrap()
                .trim_start()
                .strip_prefix("∈ keys of ")
        })
        .map(|line| {
            let (name, rest) = line.split_once(" on ").unwrap();
            let (before, after) = rest.rsplit_once(": ").unwrap().1.split_once(" → ").unwrap();
            (
                name.to_string(),
                before.parse().unwrap(),
                after.parse().unwrap(),
            )
        })
        .collect()
}

/// How many of `rows` have a `col` that is an integer among `keys`' —
/// what a key filter keeps of an `Int` driving column.
fn among(rows: &[Row], col: usize, keys: &[Row], key: usize) -> u64 {
    let set: Vec<i64> = keys.iter().filter_map(|r| int(&r[key])).collect();
    (rows.iter())
        .filter(|r| int(&r[col]).is_some_and(|k| set.contains(&k)))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A hash step joined by one edge whose probing side is a column of
    /// the driving table filters that table's selection by its integer
    /// build keys: dense ones (a bitset) and sparse ones (sorted keys),
    /// NULLs on either side, an empty build side. A `Float` driving column
    /// is left to the step, and so is a segment whose `Int` column took a
    /// `Float`; `Float` build keys yield no filter. Answers are the
    /// oracle's throughout.
    #[test]
    fn key_filters_answer_what_nested_loops_answer(
        a in gens(6, 12),
        b in gens(6, 30),
        c in gens(6, 12),
        tombstones in any::<bool>(),
    ) {
        let mut db = build(&a, &b, &c, &[], &[], tombstones);
        let t = |name: &str| live(&db, name);
        let (a, b, c, u) = (t("a"), t("b"), t("c"), t("u"));
        let n = b.len() as u64;
        let case = |body: &str, names: &[&'static str], inputs: Vec<Vec<Row>>, keep: Keep<'static>| Case {
            body: body.to_string(),
            names: names.to_vec(),
            inputs,
            keep,
        };
        // Dense keys: `u`'s 0..8, a bitset.
        let dense = case(
            "from b, u where b.k = u.id",
            &["b", "u"],
            vec![b.clone(), u.clone()],
            Box::new(|r| eq(&r[0][K], &r[1][ID])),
        );
        check(&db, &dense, 0);
        let kept = among(&b, K, &u, ID);
        prop_assert_eq!(key_filters(&db, &dense.select()), [("u".to_string(), n, kept)]);
        // Sparse keys: `c.k * 500` spans 0..2 500 with at most six keys —
        // sorted keys — and hits `b.id` at 0, 500, 1 000, 1 500, 2 000.
        let sparse = case(
            "from b, c where b.id = c.k * 500",
            &["b", "c"],
            vec![b.clone(), c.clone()],
            Box::new(|r| {
                let key = int(&r[1][K]).map_or(Value::Null, |k| Value::Int(k * 500));
                eq(&r[0][ID], &key)
            }),
        );
        check(&db, &sparse, 0);
        let spread: Vec<Row> = (c.iter())
            .map(|r| vec![int(&r[K]).map_or(Value::Null, |k| Value::Int(k * 500))])
            .collect();
        let kept = among(&b, ID, &spread, 0);
        prop_assert_eq!(key_filters(&db, &sparse.select()), [("c".to_string(), n, kept)]);
        // NULL keys on both sides: neither meets anything.
        let nulls = case(
            "from a, b where a.k = b.k",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(|r| eq(&r[0][K], &r[1][K])),
        );
        check(&db, &nulls, 0);
        let kept = among(&b, K, &a, K);
        prop_assert_eq!(key_filters(&db, &nulls.select()), [("a".to_string(), n, kept)]);
        // A `Float` driving column: the step decides (`1 = 1.0`).
        let float_driver = case(
            "from a, b where a.k = b.f",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(|r| eq(&r[0][K], &r[1][F])),
        );
        check(&db, &float_driver, 0);
        prop_assert_eq!(key_filters(&db, &float_driver.select()), [("a".to_string(), n, n)]);
        // `Float` build keys: no filter — unless `a` has no key at all,
        // when the step can match nothing.
        let float_keys = case(
            "from a, b where a.f = b.k",
            &["a", "b"],
            vec![a.clone(), b.clone()],
            Box::new(|r| eq(&r[0][F], &r[1][K])),
        );
        check(&db, &float_keys, 0);
        let want = match a.iter().all(|r| r[F].is_null()) {
            true => vec![("a".to_string(), n, 0)],
            false => vec![],
        };
        prop_assert_eq!(key_filters(&db, &float_keys.select()), want);
        // An empty build side keeps nothing.
        let empty = case(
            "from b, e where b.k = e.k",
            &["b", "e"],
            vec![b.clone(), Vec::new()],
            Box::new(|_| Some(true)),
        );
        check(&db, &empty, 0);
        prop_assert_eq!(key_filters(&db, &empty.select()), [("e".to_string(), n, 0)]);

        // A `Float` that equals an integer key, in `b`'s last segment: that
        // segment's `k` is boxed from then on and left to the step, which
        // matches it with `u`'s 3; the other segments are filtered.
        db.execute("insert into b values (5000, 3.0, 3.0, 's3', 0)").unwrap();
        let b = live(&db, "b");
        let mixed = case(
            "from b, u where b.k = u.id",
            &["b", "u"],
            vec![b.clone(), u.clone()],
            Box::new(|r| eq(&r[0][K], &r[1][ID])),
        );
        check(&db, &mixed, 0);
        let heap = &db.table("b").unwrap().heap;
        let last = heap.segments().len() as u64 - 1;
        let boxed = heap.segments()[last as usize].column(K).data();
        prop_assert!(matches!(boxed, ColumnVec::Val(_)));
        let first_of_last = (last * heap.segment_slots()) as i64;
        let (filtered, left): (Vec<Row>, Vec<Row>) =
            b.iter().cloned().partition(|r| int(&r[ID]).unwrap() < first_of_last);
        let kept = among(&filtered, K, &u, ID) + left.len() as u64;
        prop_assert_eq!(
            key_filters(&db, &mixed.select()),
            [("u".to_string(), b.len() as u64, kept)]
        );
    }
}

// ---------------------------------------------------------------------------
// Where a subquery conjunct runs
// ---------------------------------------------------------------------------

/// `(evaluations, matches)` of the one probe line in the statement's
/// `EXPLAIN ANALYZE`, and the counts on its `⋈` lines as `(in, out)`.
fn probe_account(db: &Database, sql: &str) -> ((u64, u64), Vec<(u64, u64)>) {
    let plan = db.query(&format!("explain analyze {sql}")).unwrap();
    let lines: Vec<&str> = plan.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    let field = |line: &str, name: &str| -> u64 {
        let rest = line.split(&format!("{name}=")).nth(1).unwrap();
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next().unwrap();
        digits.parse().unwrap()
    };
    let probes: Vec<&&str> = lines.iter().filter(|l| l.contains("-probe p ")).collect();
    assert_eq!(probes.len(), 1, "{lines:?}");
    let steps = (lines.iter())
        .filter(|l| l.trim_start().starts_with('⋈'))
        .map(|l| {
            let counts = l.rsplit("probe ").next().unwrap();
            let (seen, kept) = counts.split_once(" → ").unwrap();
            (seen.parse().unwrap(), kept.parse().unwrap())
        })
        .collect();
    (
        (field(probes[0], "evaluations"), field(probes[0], "matches")),
        steps,
    )
}

/// A placement case — its body ends in the `[NOT] EXISTS` conjunct — with
/// that conjunct hoisted by hand: the join in a derived table that also
/// carries the probe `key`, the `EXISTS` outside it, in the oracle's order.
fn hoisted(case: &Case<'_>, key: &str, not: &str) -> String {
    let (join, _) = (case.body)
        .rsplit_once(&format!(" and {not}exists "))
        .expect("the body ends in the conjunct");
    format!(
        "select {} from (select {}, {key} as key {join}) j \
         where {not}exists (select * from p where p.k = j.key) order by {}",
        case.list(|i, _| format!("j.i{i}, j.s{i}, j.w{i}")),
        case.items(),
        case.list(|i, _| format!("j.i{i}")),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn subquery_conjuncts_run_where_the_fewest_tuples_reach_them(
        a in gens(6, 12),
        b in gens(6, 30),
        p_rows in gens(8, 20),
        tombstones in any::<bool>(),
        negated in any::<bool>(),
    ) {
        let db = build(&a, &b, &[], &[], &p_rows, tombstones);
        let (a, b, u, p) = (live(&db, "a"), live(&db, "b"), live(&db, "u"), live(&db, "p"));
        let not = if negated { "not " } else { "" };
        let found = |key: &Value| Some(exists(&p, key) != negated);

        // On the largest input, every build side unique: the probe runs
        // behind both joins, once per tuple that survives them. Its key is
        // NULL where `b.f` is — no row exists then, whatever `p` holds.
        // Both steps' integer keys narrow `b` first, to exactly the tuples
        // the steps keep.
        let unique = Case {
            body: format!(
                "from b, u, u v where b.k = u.id and b.w = v.id \
                 and {not}exists (select * from p where p.k = b.f)"
            ),
            names: vec!["b", "u", "v"],
            inputs: vec![b.clone(), u.clone(), u.clone()],
            keep: Box::new(|r| {
                and(and(eq(&r[0][K], &r[1][ID]), eq(&r[0][W], &r[2][ID])), found(&r[0][F]))
            }),
        };
        check(&db, &unique, 0);
        let joined = Case {
            keep: Box::new(|r| and(eq(&r[0][K], &r[1][ID]), eq(&r[0][W], &r[2][ID]))),
            inputs: unique.inputs.clone(),
            names: unique.names.clone(),
            body: String::new(),
        };
        let joined = joined.oracle().len() as u64;
        let ((evaluations, matches), steps) = probe_account(&db, &unique.select());
        prop_assert_eq!(evaluations, joined);
        prop_assert_eq!(steps.last().map(|s| s.1), Some(joined));
        prop_assert_eq!(steps[0].0, joined);
        let filters = key_filters(&db, &unique.select());
        prop_assert_eq!(filters.len(), 2);
        prop_assert_eq!((filters[0].1, filters[1].2), (b.len() as u64, joined));
        let kept = if negated { evaluations - matches } else { matches };
        prop_assert_eq!(kept, unique.oracle().len() as u64);
        prop_assert_eq!(
            db.query(&hoisted(&unique, "b.f", not)).unwrap().rows,
            unique.oracle()
        );

        // An expanding step ahead (`a.k` repeats): the probe runs before
        // it, once per tuple of `b` whose key `a` holds — the others are
        // filtered out before the stream starts — never more than the scan
        // would have shown it. Should `a` happen to be unique on `k`, it
        // moves behind.
        let expanding = Case {
            body: format!(
                "from a, b where a.k = b.k and {not}exists (select * from p where p.k = b.w)"
            ),
            names: vec!["a", "b"],
            inputs: vec![a.clone(), b.clone()],
            keep: Box::new(|r| and(eq(&r[0][K], &r[1][K]), found(&r[1][W]))),
        };
        check(&db, &expanding, 0);
        let ((evaluations, matches), steps) = probe_account(&db, &expanding.select());
        let mut keys: Vec<Option<i64>> = a.iter().map(|r| int(&r[K])).collect();
        keys.sort_unstable();
        keys.dedup();
        let reach = among(&b, K, &a, K);
        prop_assert_eq!(
            key_filters(&db, &expanding.select()),
            [("a".to_string(), b.len() as u64, reach)]
        );
        if keys.len() < a.len() {
            prop_assert_eq!(evaluations, reach);
            let kept = if negated { evaluations - matches } else { matches };
            prop_assert_eq!(steps[0].0, kept);
        } else {
            prop_assert_eq!(evaluations, steps[0].1);
        }
        prop_assert!(evaluations <= b.len() as u64);
        prop_assert_eq!(
            db.query(&hoisted(&expanding, "b.w", not)).unwrap().rows,
            expanding.oracle()
        );

        // On an input that does not drive: over its selection, before it
        // becomes a build side.
        let smaller = Case {
            body: format!(
                "from a, b where a.k = b.k and a.w < 3 \
                 and {not}exists (select * from p where p.k = a.w + 1)"
            ),
            names: vec!["a", "b"],
            inputs: vec![
                (a.iter())
                    .filter(|r| int(&r[W]).is_some_and(|w| w < 3))
                    .filter(|r| found(&Value::Int(int(&r[W]).unwrap() + 1)) == Some(true))
                    .cloned()
                    .collect(),
                b.clone(),
            ],
            keep: Box::new(|r| eq(&r[0][K], &r[1][K])),
        };
        check(&db, &smaller, 0);
        let ((evaluations, _), steps) = probe_account(&db, &smaller.select());
        let selected = a.iter().filter(|r| int(&r[W]).is_some_and(|w| w < 3)).count();
        prop_assert_eq!(evaluations, selected as u64);
        prop_assert_eq!(
            db.query(&hoisted(&smaller, "a.w + 1", not)).unwrap().rows,
            smaller.oracle()
        );
        // What the step builds on is what the probe kept.
        let plan = db.query(&format!("explain analyze {}", smaller.select())).unwrap();
        let built = format!("build a {}, probe {}", smaller.inputs[0].len(), steps[0].0);
        prop_assert!(
            plan.rows.iter().any(|r| r[0].as_str().unwrap().contains(&built)),
            "{built}: {:?}", plan.rows
        );
    }
}

/// The two documented divergences from evaluating an input's subquery
/// conjuncts in its scan, each on a statement built to show it — the first
/// also as a leaf reduction and as a key filter produce it.
#[test]
fn probe_placement_divergences_are_the_documented_ones() {
    // `b`: 2 000 rows, `k = id`; the small `u` keeps keys 0..8 only.
    let b: Vec<Gen> = Vec::new();
    let mut db = build(&[], &b, &[], &[], &[], false);
    db.execute("delete from b where id >= 2000").unwrap();
    db.execute("update b set k = id where id >= 0").unwrap();
    // `p.s > b.w` compares text with a number: a type error, raised when a
    // candidate of `p` reaches it. Only `b.id = 500` has a candidate, and
    // the join with `u` drops that tuple first.
    db.execute("insert into p values (0, 500, 500.0, 'x', 0)")
        .unwrap();
    let sql = "select b.id from b, u where b.k = u.id \
               and exists (select * from p where p.k = b.id and p.s > b.w)";
    for workers in [1, 4] {
        db.query(&format!("set parallel_workers = {workers}"))
            .unwrap();
        // **Error divergence.** Evaluated in `b`'s scan — as the lone-input
        // statement still does, and as the parent did under the join —
        // tuple 500 raises. Behind the join nothing reaches the conjunct
        // that would: the statement answers (with no row: `p` matches
        // nothing the join keeps).
        let scan_first = "select b.id from b \
                          where exists (select * from p where p.k = b.id and p.s > b.w)";
        assert!(matches!(
            db.query(scan_first),
            Err(EngineError::TypeError(_))
        ));
        assert_eq!(db.query(sql).unwrap().rows, Vec::<Row>::new());
    }

    // The same divergence, from a build row shed through a leaf: `c`'s key
    // towards `b` is `c.s + 1`, a type error on the row whose `s` is text
    // — raised when `c`'s table is built, as the two-table statement shows
    // and as the parent did here. `d` keeps only `c`'s other row, whose key
    // is NULL + 1: no error is left to raise, and no match.
    db.execute("insert into c values (0, 1, 1.0, 's1', 0), (1, 2, 2.0, null, 0)")
        .unwrap();
    db.execute("insert into d values (0, 2, 2.0, 's2', 0)")
        .unwrap();
    for workers in [1, 4] {
        db.query(&format!("set parallel_workers = {workers}"))
            .unwrap();
        assert!(matches!(
            db.query("select b.id from b, c where b.w = c.s + 1"),
            Err(EngineError::TypeError(_))
        ));
        let shed = "select b.id from b, c, d where b.w = c.s + 1 and c.k = d.k";
        assert_eq!(db.query(shed).unwrap().rows, Vec::<Row>::new());
        assert_eq!(reductions(&db, shed), [("c by d".to_string(), 2, 1)]);
        // A row whose key fails on the *probing* side of the leaf's edge is
        // not shed — nothing says it matches nothing — and its step raises
        // as it always did.
        assert!(matches!(
            db.query("select b.id from b, c, d where b.w = c.w and c.s + 1 = d.k"),
            Err(EngineError::TypeError(_))
        ));
    }

    // The same divergence, from a tuple a key filter drops: `d` holds key
    // 2 twice, so its step expands and the conjunct runs ahead of it — on
    // the tuples of `b` whose key is 2, since `d`'s keys narrow `b` before
    // the stream starts. Tuple 500, which raises, is not among them. With
    // an expression on the probing side there is no filter, and the
    // conjunct meets tuple 500 as it did under the parent.
    db.execute("insert into d values (1, 2, 2.0, 's2', 0)")
        .unwrap();
    db.execute("insert into p values (1, 500, 500.0, 'x', 0)")
        .unwrap();
    for workers in [1, 4] {
        db.query(&format!("set parallel_workers = {workers}"))
            .unwrap();
        let conjunct = "exists (select * from p where p.k = b.id and p.s > b.w)";
        let filtered = format!("select b.id from b, d where b.k = d.k and {conjunct}");
        assert_eq!(db.query(&filtered).unwrap().rows, Vec::<Row>::new());
        assert_eq!(
            key_filters(&db, &filtered),
            [("d".to_string(), 2000, 1)],
            "×{workers}"
        );
        let unfiltered = format!("select b.id from b, d where b.k + 0 = d.k and {conjunct}");
        assert!(matches!(
            db.query(&unfiltered),
            Err(EngineError::TypeError(_))
        ));
        assert!(key_filters(&db, "select b.id from b, d where b.k + 0 = d.k").is_empty());
    }

    // **Unordered output follows the new driver.** `x` is 1 000 rows of
    // which its `EXISTS` keeps 8, `y` is 40. Counting `x` after its probe,
    // the parent drove with `y` and emitted `y`-major; the conjunct no
    // longer counts toward `x`'s cardinality, so `x` drives (the probe
    // ahead of the expanding step on `w`) and the output is `x`-major. An
    // `ORDER BY` form answers as it always did.
    db.execute("delete from p where id >= 0").unwrap();
    for k in 0..8 {
        db.execute(&format!("insert into p values ({k}, {k}, {k}.0, 'x', 0)"))
            .unwrap();
    }
    let body = "from b x, b y where x.w = y.w and y.id < 40 and x.id < 1000 \
                and exists (select * from p where p.k = x.id)";
    let (x, y) = (live(&db, "b"), live(&db, "b"));
    let mut x_major = Vec::new();
    for xr in x.iter().filter(|r| int(&r[ID]).unwrap() < 8) {
        for yr in y.iter().filter(|r| int(&r[ID]).unwrap() < 40) {
            if eq(&xr[W], &yr[W]) == Some(true) {
                x_major.push(vec![xr[ID].clone(), yr[ID].clone()]);
            }
        }
    }
    assert!(x_major.len() > 40);
    let mut y_major = x_major.clone();
    y_major.sort_by_key(|r| (r[1].as_i64(), r[0].as_i64()));
    assert_ne!(x_major, y_major);
    for workers in [1, 4] {
        db.query(&format!("set parallel_workers = {workers}"))
            .unwrap();
        let unordered = db.query(&format!("select x.id, y.id {body}")).unwrap();
        assert_eq!(unordered.rows, x_major, "×{workers}");
        let ordered = db
            .query(&format!(
                "select x.id as xi, y.id as yi {body} order by yi, xi"
            ))
            .unwrap();
        assert_eq!(ordered.rows, y_major, "×{workers}");
    }
}
