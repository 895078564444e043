//! What evaluation promises at the SQL level, statement by statement: errors
//! are raised when an expression is *evaluated*, not when it is compiled;
//! subqueries work in every clause; an `EXISTS` inside a larger predicate is
//! still an index probe. Every answer and every work counter below — but
//! for the one case marked — was recorded at the commit before the
//! interpreter was deleted (7ed303b) and must not move.

use apuama_engine::{Database, EngineError, QueryOutput};
use apuama_sql::Value;

/// `t` is the outer table; `u` and `ui` hold the same rows, `ui` with an
/// index on `x`.
fn db() -> Database {
    let mut d = Database::in_memory();
    d.execute("create table t (a int, b int, s text)").unwrap();
    d.execute("create table u (x int, y int)").unwrap();
    d.execute("create table ui (x int, y int)").unwrap();
    d.execute("create index ui_x on ui (x)").unwrap();
    d.execute("insert into t values (1, 1, 'x'), (2, 1, 'y'), (3, 2, 'z'), (4, null, 'w')")
        .unwrap();
    for table in ["u", "ui"] {
        d.execute(&format!(
            "insert into {table} values (1, 10), (2, 20), (2, 5), (5, 7), (null, 1)"
        ))
        .unwrap();
    }
    d
}

fn class(e: &EngineError) -> &'static str {
    match e {
        EngineError::UnknownColumn(_) => "UnknownColumn",
        EngineError::AmbiguousColumn(_) => "AmbiguousColumn",
        EngineError::TypeError(_) => "TypeError",
        EngineError::Unsupported(_) => "Unsupported",
        _ => "other",
    }
}

/// Rows and work counters on one line, or the error's class.
fn outcome(r: Result<QueryOutput, EngineError>) -> String {
    match r {
        Err(e) => format!("{}: {e}", class(&e)),
        Ok(out) => {
            let rows: Vec<String> = out
                .rows
                .iter()
                .map(|r| {
                    let cells: Vec<String> = r.iter().map(Value::to_string).collect();
                    format!("({})", cells.join(", "))
                })
                .collect();
            let s = &out.stats;
            format!(
                "[{}] affected={} scanned={} cpu={} probes={} pages={}",
                rows.join(" "),
                out.rows_affected,
                s.rows_scanned,
                s.cpu_tuple_ops,
                s.index_probes,
                s.buffer.accesses(),
            )
        }
    }
}

/// Runs every `(statement, recorded outcome)` on one database, in order, and
/// reports all the differences at once.
fn check(d: &mut Database, table: &[(&str, &str)]) {
    let mut wrong = Vec::new();
    for (sql, want) in table {
        let got = outcome(d.execute(sql));
        if got != *want {
            wrong.push(format!("{sql}\n   got: {got}\n  want: {want}"));
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

#[test]
fn errors_are_raised_by_evaluation_not_by_compilation() {
    check(
        &mut db(),
        &[
            // No row reaches the expression: no error.
            (
                "select nosuch from t where a = 99",
                "[] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select a from t where a = 99 and nosuch = 1",
                "[] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select a from t where a <> 99 or nosuch = 1",
                "[(1) (2) (3) (4)] affected=0 scanned=4 cpu=8 probes=0 pages=1",
            ),
            (
                "select sum(nosuch) from t where a = 99",
                "[(NULL)] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select a from t where a = 99 group by a having nosuch > 1",
                "[] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select a from t, u where a = 99 and x = nosuch",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "select a from t where a = 99 and t.a = u.x",
                "[] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            // A row does.
            (
                "select nosuch from t where a = 1",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "select a from t where a = 1 and nosuch = 1",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "select a from t where a = 99 or nosuch = 1",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "select sum(nosuch) from t",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "select count(*) from t having nosuch > 1",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "select a from t, u where a = x and y = nosuch",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "select x from t, u, ui where a = u.x and a = ui.x",
                "AmbiguousColumn: ambiguous column 'x'",
            ),
            // An aggregate where there is no aggregation.
            (
                "select a from t where sum(a) > 1",
                "TypeError: type error: aggregate sum() used outside aggregation context",
            ),
            (
                "select a from t where a = 99 and sum(a) > 1",
                "[] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select sum(sum(a)) from t",
                "TypeError: type error: aggregate sum() used outside aggregation context",
            ),
            (
                "select sum(sum(a)) from t where a = 99",
                "[(NULL)] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            // An unbound parameter.
            (
                "select a from t where a = 99 and b = $1",
                "[] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select a from t where a = 1 and b = $1",
                "TypeError: type error: parameter $1 is not bound",
            ),
            // `*` beside an aggregate fails when a group is projected.
            (
                "select *, count(*) from t",
                "Unsupported: unsupported: SELECT * with aggregation",
            ),
            (
                "select *, count(*) from t group by a having a > 99",
                "[] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
        ],
    );
}

#[test]
fn aggregation_projects_each_group_from_its_representative_row() {
    check(
        &mut db(),
        &[
            (
                "select a, count(*) from t",
                "[(1, 4)] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select s, b, count(*) as n, sum(a) from t group by b order by n desc, b",
                "[('x', 1, 2, 3) ('w', NULL, 1, 4) ('z', 2, 1, 3)] affected=0 scanned=4 cpu=8 probes=0 pages=1",
            ),
            (
                "select b, sum(a) as total from t group by b having sum(a) > 2 order by total",
                "[(1, 3) (2, 3) (NULL, 4)] affected=0 scanned=4 cpu=8 probes=0 pages=1",
            ),
            (
                "select b + 1, max(a) - min(a) from t group by b + 1 order by b + 1",
                "[(NULL, 0) (2, 1) (3, 0)] affected=0 scanned=4 cpu=8 probes=0 pages=1",
            ),
            (
                "select b, count(*) from t group by b order by sum(a) desc",
                "[(NULL, 1) (1, 2) (2, 1)] affected=0 scanned=4 cpu=8 probes=0 pages=1",
            ),
            (
                "select case when sum(a) > 5 then 'big' else s end, coalesce(sum(b), 0) from t",
                "[('big', 4)] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            (
                "select count(*) from t where a = 99",
                "[(0)] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
            // The one answer that is not the parent's: its per-group
            // substitution skipped the operand of `IN (subquery)`, so the
            // aggregate there was "used outside aggregation context".
            (
                "select sum(a) in (select x + 5 from u) from t",
                "[(true)] affected=0 scanned=9 cpu=9 probes=0 pages=2",
            ),
            (
                "select sum(a) in (10, 11), sum(a) between 1 and 9, min(s) like 'w%' from t",
                "[(true, false, true)] affected=0 scanned=4 cpu=4 probes=0 pages=1",
            ),
        ],
    );
}

#[test]
fn subqueries_evaluate_in_every_clause() {
    check(
        &mut db(),
        &[
            (
                "select a, count(*) from t group by a \
                 having exists (select 1 from u where u.x = a) order by a",
                "[(1, 1) (2, 1)] affected=0 scanned=17 cpu=6 probes=0 pages=5",
            ),
            (
                "select sum(a) + (select max(x) from u) from t",
                "[(15)] affected=0 scanned=9 cpu=9 probes=0 pages=2",
            ),
            (
                "select a from t order by (select 1), a desc",
                "[(4) (3) (2) (1)] affected=0 scanned=4 cpu=13 probes=0 pages=1",
            ),
            (
                "select a from t order by (select max(y) from u where u.x = t.a), a",
                "[(3) (4) (1) (2)] affected=0 scanned=24 cpu=35 probes=0 pages=5",
            ),
            (
                "select count(*) from t group by (select 1)",
                "[(4)] affected=0 scanned=4 cpu=5 probes=0 pages=1",
            ),
            (
                "select (select count(*) from u where u.x = t.b), count(*) from t \
                 group by (select count(*) from u where u.x = t.b) order by 1",
                "[(1, 2) (2, 1) (0, 1)] affected=0 scanned=39 cpu=50 probes=0 pages=8",
            ),
            (
                "select sum((select max(y) from u where u.x = t.a)) from t",
                "[(30)] affected=0 scanned=24 cpu=27 probes=0 pages=5",
            ),
            // Correlated two scopes out.
            (
                "select a from t where b = (select count(*) from u \
                 where u.x = (select min(x) from u u2 where u2.x >= t.a and u2.y <> u.y))",
                "[] affected=0 scanned=124 cpu=207 probes=0 pages=25",
            ),
            (
                "select a, (select max(y) from u where u.x = \
                 (select min(x) from ui where ui.x > t.a)) from t order by a",
                "[(1, 20) (2, 7) (3, 7) (4, 7)] affected=0 scanned=124 cpu=167 probes=0 pages=25",
            ),
            (
                "select a from t where a in (select x from u where y > 5) order by a",
                "[(1) (2)] affected=0 scanned=9 cpu=16 probes=0 pages=2",
            ),
            (
                "select a from t where a not in (select x from u) order by a",
                "[] affected=0 scanned=9 cpu=9 probes=0 pages=2",
            ),
            (
                "select a from t where a not in (select x from u where x is not null)",
                "[(3) (4)] affected=0 scanned=9 cpu=15 probes=0 pages=2",
            ),
            (
                "select a, a in (select x from u where u.y > t.a * 4) from t order by a",
                "[(1, true) (2, true) (3, false) (4, false)] affected=0 scanned=24 cpu=40 probes=0 pages=5",
            ),
            (
                "select a from t where (select max(x) from u) > a + 1 order by a",
                "[(1) (2) (3)] affected=0 scanned=9 cpu=16 probes=0 pages=2",
            ),
            (
                "select a from t where a = (select x from u where y < 11)",
                "TypeError: type error: scalar subquery returned more than one row",
            ),
            (
                "select a from t where a in (select x, y from u)",
                "TypeError: type error: IN subquery must return one column",
            ),
        ],
    );
}

/// The same rows from the indexed and the index-less copy, and the probe
/// count the indexed one made before.
#[test]
fn exists_inside_a_larger_predicate_is_still_a_probe() {
    check(
        &mut db(),
        &[
            (
                "select a from t where b = 2 or exists (select * from ui where ui.x = t.a)",
                "[(1) (2) (3)] affected=0 scanned=4 cpu=7 probes=3 pages=3",
            ),
            (
                "select a from t where b = 2 or exists (select * from u where u.x = t.a)",
                "[(1) (2) (3)] affected=0 scanned=12 cpu=7 probes=0 pages=4",
            ),
            (
                "select a, case when not exists (select 1 from ui where ui.x = t.a and ui.y > t.b) \
                 then 'none' else s end from t",
                "[(1, 'x') (2, 'y') (3, 'none') (4, 'none')] affected=0 scanned=4 cpu=4 probes=4 pages=3",
            ),
            (
                "select a, case when not exists (select 1 from u where u.x = t.a and u.y > t.b) \
                 then 'none' else s end from t",
                "[(1, 'x') (2, 'y') (3, 'none') (4, 'none')] affected=0 scanned=17 cpu=4 probes=0 pages=5",
            ),
            (
                "select a from t where exists (select * from ui where ui.x = t.a)",
                "[(1) (2)] affected=0 scanned=4 cpu=6 probes=4 pages=3",
            ),
            (
                "select a from t where not exists (select * from u where u.x = t.a)",
                "[(3) (4)] affected=0 scanned=17 cpu=6 probes=0 pages=5",
            ),
            (
                "select a from t where exists (select * from ui where ui.x = t.a + $1)",
                "TypeError: type error: parameter $1 is not bound",
            ),
            (
                "select count(*) from t where exists \
                 (select x from ui where ui.x = t.a group by x)",
                "[(2)] affected=0 scanned=24 cpu=29 probes=0 pages=5",
            ),
            (
                "explain select a from t where b = 2 or exists (select * from ui where ui.x = t.a)",
                "[('project: 1 column(s), ~2 rows') ('  scan t: seq scan, 1 filter(s) [subquery (interpreted), semi-probe ui via index(x) (memo)], cols 1/3, ~2 rows (cost 1.0)')] affected=0 scanned=0 cpu=0 probes=0 pages=0",
            ),
            (
                "explain select a from t where exists (select x from ui where ui.x = t.a group by x)",
                "[('project: 1 column(s), ~2 rows') ('  scan t: seq scan, 1 filter(s) [subquery (interpreted)], cols 1/3, ~2 rows (cost 1.0)')] affected=0 scanned=0 cpu=0 probes=0 pages=0",
            ),
        ],
    );
}

#[test]
fn dml_operands_may_be_subqueries() {
    check(
        &mut db(),
        &[
            (
                "insert into t values ((select max(x) from u) + 1, 2, 'n')",
                "[] affected=1 scanned=5 cpu=6 probes=0 pages=2",
            ),
            (
                "insert into t values (7, nosuch, 'n')",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "insert into t values (7, $1, 'n')",
                "TypeError: type error: parameter $1 is not bound",
            ),
            (
                "update t set b = (select count(*) from u where u.x = t.a) \
                 where a in (select x from u)",
                "[] affected=2 scanned=20 cpu=25 probes=0 pages=6",
            ),
            (
                "update t set b = nosuch where a = 99",
                "[] affected=0 scanned=5 cpu=5 probes=0 pages=1",
            ),
            (
                "update t set b = nosuch where a = 1",
                "UnknownColumn: unknown column 'nosuch'",
            ),
            (
                "update t set b = b + a where exists (select 1 from ui where ui.x = t.a)",
                "[] affected=2 scanned=5 cpu=7 probes=5 pages=5",
            ),
            (
                "delete from t where exists (select 1 from u where u.x = t.a and u.y > 9)",
                "[] affected=2 scanned=23 cpu=7 probes=0 pages=8",
            ),
            (
                "delete from t where a > (select min(x) from ui) + 3",
                "[] affected=1 scanned=8 cpu=9 probes=0 pages=3",
            ),
            (
                "select a, b, s from t order by a",
                "[(3, 2, 'z') (4, NULL, 'w')] affected=0 scanned=2 cpu=4 probes=0 pages=1",
            ),
        ],
    );
}

/// One select list mixing a positional item, a scalar subquery and a
/// reference to an enclosing query answers what three lists of one item
/// each answer.
#[test]
fn a_mixed_select_list_equals_its_items_evaluated_apart() {
    let d = db();
    let inner = |items: &str| {
        format!(
            "select a, (select sum(c) from (select {items} from u where u.x <= t.a) d) \
             from t order by a"
        )
    };
    let column = |sql: String| -> Vec<Value> {
        let out = d.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        out.rows.into_iter().map(|mut r| r.pop().unwrap()).collect()
    };
    let items = ["u.y + 1", "(select max(y) from u u2)", "t.a * 100"];
    let apart: Vec<Vec<Value>> = items
        .iter()
        .map(|item| column(inner(&format!("{item} as c"))))
        .collect();
    let mixed = column(inner(&format!(
        "{} + {} + {} as c",
        items[0], items[1], items[2]
    )));
    let as_int = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        Value::Null => None,
        other => panic!("{other}"),
    };
    for (row, got) in mixed.iter().enumerate() {
        let want: Option<i64> = apart.iter().map(|c| as_int(&c[row])).sum();
        assert_eq!(as_int(got), want, "row {row}");
    }
    assert!(mixed.iter().any(|v| !v.is_null()));
}

/// Hostile nesting is refused by the parser, on the stack of a node thread,
/// and a statement nested to the bound still runs there: parsed, planned,
/// compiled, evaluated and dropped.
#[test]
fn nesting_is_bounded_before_anything_recurses_on_it() {
    use apuama_sql::MAX_NESTING;
    let nested = |shape: &str, n: usize| match shape {
        "(" => format!("select {}a{} from t", "(".repeat(n), ")".repeat(n)),
        "- " => format!("select {}a from t", "- ".repeat(n)),
        "not " => format!("select a from t where {}(b = 1)", "not ".repeat(n)),
        "+ 1" => format!("select a{} from t", " + 1".repeat(n)),
        "(select" => (0..n).fold("select max(a) from t".to_string(), |q, _| {
            format!("select ({q}) from t where a = 1")
        }),
        other => panic!("no shape {other}"),
    };
    let run = move || {
        let d = db();
        for shape in ["(", "- ", "not ", "+ 1", "(select"] {
            for n in [2 * MAX_NESTING, 20_000] {
                let err = d.query(&nested(shape, n)).unwrap_err();
                assert!(matches!(err, EngineError::Parse(_)), "{shape} × {n}: {err}");
            }
            // The statement's SELECT, a comparison and the leaf take up to
            // three levels; a subquery is two levels a time.
            let n = (MAX_NESTING - 3) / if shape == "(select" { 2 } else { 1 };
            let out = d
                .query(&nested(shape, n))
                .unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert!(!out.rows.is_empty(), "{shape}");
        }
        let out = d.query(&nested("+ 1", MAX_NESTING - 2)).unwrap();
        assert_eq!(out.rows[0], [Value::Int(MAX_NESTING as i64 - 1)]);
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .unwrap()
        .join()
        .unwrap();
}
