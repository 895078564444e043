//! Exhaustive checks of SQL three-valued logic and NULL propagation,
//! exercised through the full SQL surface (not the evaluator internals):
//! every law is asserted for all combinations of TRUE / FALSE / NULL.

use apuama_engine::Database;
use apuama_sql::Value;

/// One-row database exposing columns `a` and `b` with the given 3VL values.
fn db_with(a: Option<bool>, b: Option<bool>) -> Database {
    let mut d = Database::in_memory();
    d.execute("create table t (a bool, b bool)").unwrap();
    let lit = |v: Option<bool>| match v {
        None => "null".to_string(),
        Some(true) => "true".to_string(),
        Some(false) => "false".to_string(),
    };
    d.execute(&format!("insert into t values ({}, {})", lit(a), lit(b)))
        .unwrap();
    d
}

/// Evaluates a boolean SQL expression over the row, returning the 3VL result.
fn eval3(d: &Database, expr: &str) -> Option<bool> {
    let out = d
        .query(&format!(
            "select case when {expr} then 1 else 0 end as r, \
                         case when not ({expr}) then 1 else 0 end as nr from t"
        ))
        .unwrap();
    let r = out.rows[0][0].as_i64().unwrap();
    let nr = out.rows[0][1].as_i64().unwrap();
    match (r, nr) {
        (1, 0) => Some(true),
        (0, 1) => Some(false),
        (0, 0) => None, // UNKNOWN: neither the predicate nor its negation held
        _ => panic!("impossible 3VL readout"),
    }
}

const DOMAIN: [Option<bool>; 3] = [Some(true), Some(false), None];

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn not3(a: Option<bool>) -> Option<bool> {
    a.map(|x| !x)
}

#[test]
fn and_truth_table() {
    for a in DOMAIN {
        for b in DOMAIN {
            let d = db_with(a, b);
            assert_eq!(eval3(&d, "a and b"), and3(a, b), "a={a:?} b={b:?}");
        }
    }
}

#[test]
fn or_truth_table() {
    for a in DOMAIN {
        for b in DOMAIN {
            let d = db_with(a, b);
            assert_eq!(eval3(&d, "a or b"), or3(a, b), "a={a:?} b={b:?}");
        }
    }
}

#[test]
fn not_truth_table() {
    for a in DOMAIN {
        let d = db_with(a, Some(true));
        assert_eq!(eval3(&d, "not a"), not3(a), "a={a:?}");
    }
}

#[test]
fn de_morgan_laws_hold_under_3vl() {
    for a in DOMAIN {
        for b in DOMAIN {
            let d = db_with(a, b);
            assert_eq!(
                eval3(&d, "not (a and b)"),
                eval3(&d, "(not a) or (not b)"),
                "¬(a∧b) = ¬a∨¬b for a={a:?} b={b:?}"
            );
            assert_eq!(
                eval3(&d, "not (a or b)"),
                eval3(&d, "(not a) and (not b)"),
                "¬(a∨b) = ¬a∧¬b for a={a:?} b={b:?}"
            );
        }
    }
}

#[test]
fn null_comparisons_are_unknown() {
    let d = db_with(None, None);
    for expr in ["a = b", "a <> b", "a = a"] {
        assert_eq!(eval3(&d, expr), None, "{expr}");
    }
    // IS NULL is the only way to see NULL as a definite value.
    assert_eq!(eval3(&d, "a is null"), Some(true));
    assert_eq!(eval3(&d, "a is not null"), Some(false));
}

#[test]
fn null_arithmetic_propagates() {
    let mut d = Database::in_memory();
    d.execute("create table n (x int, y int)").unwrap();
    d.execute("insert into n values (null, 5)").unwrap();
    let out = d
        .query("select x + y as a, x * y as b, x / y as c, y - x as e from n")
        .unwrap();
    for v in &out.rows[0] {
        assert!(v.is_null(), "NULL must propagate through arithmetic: {v}");
    }
}

#[test]
fn where_keeps_only_definite_true() {
    // A row is returned only when the predicate is TRUE — not FALSE, not
    // UNKNOWN. This is the 3VL rule aggregate answers depend on.
    let mut d = Database::in_memory();
    d.execute("create table w (x int)").unwrap();
    d.execute("insert into w values (1), (null), (3)").unwrap();
    let out = d.query("select count(*) as n from w where x > 1").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(1)); // only 3; NULL row excluded
    let out = d
        .query("select count(*) as n from w where not (x > 1)")
        .unwrap();
    assert_eq!(out.rows[0][0], Value::Int(1)); // only 1; NULL still excluded
}

#[test]
fn not_in_with_null_in_list_is_never_true() {
    let mut d = Database::in_memory();
    d.execute("create table w (x int)").unwrap();
    d.execute("insert into w values (1), (2)").unwrap();
    // 1 NOT IN (2, NULL) is UNKNOWN, not TRUE — the classic trap.
    let out = d
        .query("select count(*) as n from w where x not in (2, null)")
        .unwrap();
    assert_eq!(out.rows[0][0], Value::Int(0));
}

#[test]
fn aggregates_skip_nulls_but_count_star_does_not() {
    let mut d = Database::in_memory();
    d.execute("create table w (x int)").unwrap();
    d.execute("insert into w values (1), (null), (3)").unwrap();
    let out = d
        .query("select count(*) as all_rows, count(x) as non_null, sum(x) as s, avg(x) as a from w")
        .unwrap();
    assert_eq!(out.rows[0][0], Value::Int(3));
    assert_eq!(out.rows[0][1], Value::Int(2));
    assert_eq!(out.rows[0][2], Value::Int(4));
    assert_eq!(out.rows[0][3], Value::Float(2.0));
}

/// An index range is a conjunct the scan does not re-check, so the range
/// itself must hold the 3VL line: `k < 5` is UNKNOWN of a NULL `k` and
/// keeps no such row, whichever kind of index resolves it — the clustered
/// column by position (loaded in key order: the NULLs head the ordered
/// prefix; inserted in arrival order: they sit in the tail), the secondary
/// one by its B-tree, whose NULL postings sort first — as text and bound. (Before PR 22 an open low bound began at
/// the NULL keys: `k < 5` counted 4.)
#[test]
fn an_index_range_with_a_bound_keeps_no_null_key() {
    // k = j ∈ {1, NULL, 3, 7, NULL, 10, 11, …}; v is the row number. Three
    // stored segments, so the wide ranges cross segment boundaries.
    let rows: Vec<Vec<Value>> = (0..2500i64)
        .map(|v| {
            let k = match v {
                0 => Value::Int(1),
                1 | 4 => Value::Null,
                2 => Value::Int(3),
                3 => Value::Int(7),
                v => Value::Int(v + 5),
            };
            vec![k.clone(), k, Value::Int(v)]
        })
        .collect();
    let ddl = "create table t (k int, j int, v int not null, primary key (v)) clustered by (k)";
    let mut loaded = Database::in_memory();
    loaded.execute(ddl).unwrap();
    loaded.load_table("t", rows.clone()).unwrap();
    let mut inserted = Database::in_memory();
    inserted.execute(ddl).unwrap();
    inserted.append_rows("t", rows).unwrap();
    for d in [&mut loaded, &mut inserted] {
        d.execute("create index t_j on t (j)").unwrap();
    }
    assert_eq!(loaded.table("t").unwrap().ordered_prefix(), 2500);
    assert_eq!(inserted.table("t").unwrap().ordered_prefix(), 1);

    // (predicate over `c`, bound form and its values, matching rows)
    let cases: [(&str, &str, Vec<Value>, i64); 7] = [
        ("c < 5", "c < $1", vec![Value::Int(5)], 2),
        ("c <= 3", "c <= $1", vec![Value::Int(3)], 2),
        ("c <= 7", "c <= $1", vec![Value::Int(7)], 3),
        (
            "c between 0 and 7",
            "c between $1 and $2",
            vec![Value::Int(0), Value::Int(7)],
            3,
        ),
        ("c < 2000", "c < $1", vec![Value::Int(2000)], 3 + 1990),
        (
            "c between -5 and 2400",
            "c between $1 and $2",
            vec![Value::Int(-5), Value::Int(2400)],
            3 + 2391,
        ),
        // A NULL bound is UNKNOWN of every row.
        ("c > null", "c > $1", vec![Value::Null], 0),
    ];
    for (d, how) in [(&loaded, "loaded"), (&inserted, "inserted")] {
        for seqscan in ["off", "on"] {
            d.query(&format!("set enable_seqscan = {seqscan}")).unwrap();
            for col in ["k", "j"] {
                for (text, bound, params, want) in &cases {
                    let what = format!("{how}, seqscan {seqscan}: {col} / {text}");
                    let (text, bound) = (text.replace('c', col), bound.replace('c', col));
                    let count = format!("select count(*) as n from t where {text}");
                    let out = d.query(&count).unwrap();
                    assert_eq!(out.rows[0][0], Value::Int(*want), "{what}");
                    if seqscan == "off" {
                        assert_eq!(out.stats.index_probes, 1, "{what}");
                    }
                    let count = format!("select count(*) as n from t where {bound}");
                    let out = d.query_bound(&count, params).unwrap();
                    assert_eq!(out.rows[0][0], Value::Int(*want), "{what} (bound)");
                    // The rows themselves: none has a NULL key.
                    let list = format!("select {col}, v from t where {text}");
                    let out = d.query(&list).unwrap();
                    assert_eq!(out.rows.len() as i64, *want, "{what}");
                    assert!(out.rows.iter().all(|r| !r[0].is_null()), "{what}");
                }
            }
        }
    }
    // Without a bound the index path is every row, NULL keys included.
    for d in [&loaded, &inserted] {
        d.query("set enable_seqscan = off").unwrap();
        let out = d.query("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2500));
        assert_eq!(out.stats.index_probes, 1);
    }
}
