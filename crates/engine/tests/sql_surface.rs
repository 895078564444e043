//! Broad black-box coverage of the engine's SQL surface: resolution rules,
//! scalar functions, join shapes, error paths — each test pins one behaviour.

use apuama_engine::{Database, EngineError};
use apuama_sql::Value;

fn db() -> Database {
    let mut d = Database::in_memory();
    d.execute(
        "create table emp (id int not null, name text, dept int, salary float, \
         hired date, primary key (id))",
    )
    .unwrap();
    d.execute("create table dept (id int not null, dname text, primary key (id))")
        .unwrap();
    d.execute(
        "insert into emp values \
         (1, 'ada', 10, 120.0, date '1995-03-01'), \
         (2, 'bob', 10, 80.0, date '1996-07-15'), \
         (3, 'cy', 20, 95.5, date '1994-01-20'), \
         (4, 'dee', null, 60.0, date '1997-11-05')",
    )
    .unwrap();
    d.execute("insert into dept values (10, 'eng'), (20, 'ops'), (30, 'empty')")
        .unwrap();
    d
}

#[test]
fn qualified_and_bare_columns_resolve() {
    let d = db();
    let out = d
        .query("select emp.name, dname from emp, dept where emp.dept = dept.id order by emp.name")
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0][0], Value::Str("ada".into()));
}

#[test]
fn ambiguous_column_is_an_error() {
    let d = db();
    let err = d
        .query("select id from emp, dept where emp.dept = dept.id")
        .unwrap_err();
    assert!(matches!(err, EngineError::AmbiguousColumn(_)), "{err}");
}

#[test]
fn unknown_column_and_table_errors() {
    let d = db();
    assert!(matches!(
        d.query("select nope from emp").unwrap_err(),
        EngineError::UnknownColumn(_)
    ));
    assert!(matches!(
        d.query("select 1 from nope").unwrap_err(),
        EngineError::UnknownTable(_)
    ));
}

#[test]
fn aliases_shadow_table_names() {
    let d = db();
    let out = d
        .query("select e.salary from emp e where e.id = 3")
        .unwrap();
    assert_eq!(out.rows, vec![vec![Value::Float(95.5)]]);
    // The original name is no longer a valid qualifier once aliased.
    assert!(d
        .query("select emp.salary from emp e where e.id = 3")
        .is_err());
}

#[test]
fn self_join_with_two_aliases() {
    let d = db();
    // Pairs of distinct employees in the same department.
    let out = d
        .query(
            "select a.name, b.name from emp a, emp b \
             where a.dept = b.dept and a.id < b.id",
        )
        .unwrap();
    assert_eq!(
        out.rows,
        vec![vec![Value::Str("ada".into()), Value::Str("bob".into())]]
    );
}

#[test]
fn null_join_keys_never_match() {
    let d = db();
    // dee has dept NULL and must not join to anything.
    let out = d
        .query("select count(*) as n from emp, dept where emp.dept = dept.id")
        .unwrap();
    assert_eq!(out.rows[0][0], Value::Int(3));
}

#[test]
fn scalar_functions() {
    let d = db();
    let out = d
        .query(
            "select abs(0.0 - salary) as a, substring(name, 1, 2) as s, \
             coalesce(dept, 0 - 1) as c, year(hired) as y \
             from emp where id = 4",
        )
        .unwrap();
    assert_eq!(
        out.rows[0],
        vec![
            Value::Float(60.0),
            Value::Str("de".into()),
            Value::Int(-1),
            Value::Int(1997)
        ]
    );
}

#[test]
fn case_without_else_yields_null() {
    let d = db();
    let out = d
        .query("select case when salary > 100.0 then 'high' end as band from emp where id = 2")
        .unwrap();
    assert_eq!(out.rows, vec![vec![Value::Null]]);
}

#[test]
fn between_and_not_between() {
    let d = db();
    let a = d
        .query("select count(*) as n from emp where salary between 80.0 and 100.0")
        .unwrap();
    assert_eq!(a.rows[0][0], Value::Int(2));
    let b = d
        .query("select count(*) as n from emp where salary not between 80.0 and 100.0")
        .unwrap();
    assert_eq!(b.rows[0][0], Value::Int(2));
}

#[test]
fn in_list_and_like() {
    let d = db();
    let out = d
        .query("select name from emp where dept in (10, 20) and name like '%b%' ")
        .unwrap();
    assert_eq!(out.rows, vec![vec![Value::Str("bob".into())]]);
}

#[test]
fn uncorrelated_in_subquery_and_scalar_subquery() {
    let d = db();
    let out = d
        .query(
            "select name from emp where dept in (select id from dept where dname = 'eng') \
             order by name",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    let out = d
        .query("select name from emp where salary = (select max(salary) from emp)")
        .unwrap();
    assert_eq!(out.rows, vec![vec![Value::Str("ada".into())]]);
}

#[test]
fn correlated_exists_over_dimension() {
    let d = db();
    // Departments with at least one employee.
    let out = d
        .query(
            "select dname from dept where exists \
             (select 1 from emp where emp.dept = dept.id) order by dname",
        )
        .unwrap();
    assert_eq!(
        out.rows,
        vec![
            vec![Value::Str("eng".into())],
            vec![Value::Str("ops".into())]
        ]
    );
}

#[test]
fn group_by_expression() {
    let d = db();
    let out = d
        .query("select year(hired) as y, count(*) as n from emp group by year(hired) order by y")
        .unwrap();
    assert_eq!(out.rows.len(), 4);
    assert_eq!(out.rows[0], vec![Value::Int(1994), Value::Int(1)]);
}

#[test]
fn order_by_expression_not_in_output() {
    let d = db();
    let out = d
        .query("select name from emp order by salary desc")
        .unwrap();
    let names: Vec<&str> = out.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["ada", "cy", "bob", "dee"]);
}

#[test]
fn limit_zero_and_overlarge() {
    let d = db();
    assert_eq!(d.query("select id from emp limit 0").unwrap().rows.len(), 0);
    assert_eq!(
        d.query("select id from emp limit 99").unwrap().rows.len(),
        4
    );
}

#[test]
fn division_by_zero_yields_null() {
    let d = db();
    let out = d
        .query("select 1 / 0 as a, 1.0 / 0.0 as b from emp limit 1")
        .unwrap();
    assert!(out.rows[0][0].is_null());
    assert!(out.rows[0][1].is_null());
}

#[test]
fn date_comparisons_and_arithmetic() {
    let d = db();
    let out = d
        .query(
            "select name from emp \
             where hired >= date '1995-01-01' and hired < date '1995-01-01' + interval '2' year \
             order by name",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn string_ordering_is_lexicographic() {
    let d = db();
    let out = d
        .query("select min(name) as lo, max(name) as hi from emp")
        .unwrap();
    assert_eq!(
        out.rows[0],
        vec![Value::Str("ada".into()), Value::Str("dee".into())]
    );
}

#[test]
fn cross_join_without_predicate() {
    let d = db();
    let out = d.query("select count(*) as n from emp, dept").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(12));
}

#[test]
fn update_with_self_reference_and_filter() {
    let mut d = db();
    let out = d
        .execute("update emp set salary = salary * 1.1 where dept = 10")
        .unwrap();
    assert_eq!(out.rows_affected, 2);
    let check = d.query("select salary from emp where id = 1").unwrap();
    assert!((check.rows[0][0].as_f64().unwrap() - 132.0).abs() < 1e-9);
}

#[test]
fn insert_wrong_arity_is_constraint_error() {
    let mut d = db();
    assert!(matches!(
        d.execute("insert into dept values (1)").unwrap_err(),
        EngineError::Constraint(_)
    ));
}

#[test]
fn delete_everything_then_aggregate() {
    let mut d = db();
    d.execute("delete from emp").unwrap();
    let out = d
        .query("select count(*) as n, sum(salary) as s, min(hired) as h from emp")
        .unwrap();
    assert_eq!(out.rows[0], vec![Value::Int(0), Value::Null, Value::Null]);
}

#[test]
fn distinct_on_expressions() {
    let d = db();
    let out = d
        .query("select distinct coalesce(dept, 0) as dd from emp order by dd")
        .unwrap();
    assert_eq!(
        out.rows,
        vec![
            vec![Value::Int(0)],
            vec![Value::Int(10)],
            vec![Value::Int(20)]
        ]
    );
}

#[test]
fn having_without_group_by() {
    let d = db();
    // Global aggregate with HAVING: one group, filtered in or out.
    let keep = d
        .query("select count(*) as n from emp having count(*) > 2")
        .unwrap();
    assert_eq!(keep.rows.len(), 1);
    let drop = d
        .query("select count(*) as n from emp having count(*) > 100")
        .unwrap();
    assert_eq!(drop.rows.len(), 0);
}

#[test]
fn count_distinct_executes_single_node() {
    let d = db();
    let out = d
        .query("select count(distinct dept) as depts, count(dept) as rows_with_dept from emp")
        .unwrap();
    // Departments 10, 10, 20, NULL → 2 distinct, 3 non-null.
    assert_eq!(out.rows[0], vec![Value::Int(2), Value::Int(3)]);
}

#[test]
fn sum_distinct_executes_single_node() {
    let mut d = Database::in_memory();
    d.execute("create table s (x int)").unwrap();
    d.execute("insert into s values (5), (5), (7)").unwrap();
    let out = d
        .query("select sum(distinct x) as t, sum(x) as all_t from s")
        .unwrap();
    assert_eq!(out.rows[0], vec![Value::Int(12), Value::Int(17)]);
}

#[test]
fn multi_key_order_by_mixed_directions() {
    let d = db();
    let out = d
        .query("select dept, name from emp where dept is not null order by dept desc, name asc")
        .unwrap();
    let got: Vec<(i64, &str)> = out
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_str().unwrap()))
        .collect();
    assert_eq!(got, vec![(20, "cy"), (10, "ada"), (10, "bob")]);
}

#[test]
fn derived_table_with_aggregation_inside() {
    let d = db();
    let out = d
        .query(
            "select max(n) as busiest from \
             (select dept, count(*) as n from emp where dept is not null group by dept) counts",
        )
        .unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn consumed_range_predicates_are_not_reevaluated() {
    // A clustered range consumed by the index must not be charged as a
    // per-row filter: compare CPU between a fully-consumed predicate and
    // an equivalent residual-only one.
    let mut d = Database::in_memory();
    d.execute("create table big (k int not null, v int, primary key (k)) clustered by (k)")
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..20_000i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 97)])
        .collect();
    d.load_table("big", rows).unwrap();
    let consumed = d
        .query("select count(*) as n from big where k >= 1000 and k < 9000")
        .unwrap();
    let residual = d
        .query("select count(*) as n from big where k + 0 >= 1000 and k + 0 < 9000")
        .unwrap();
    assert_eq!(consumed.rows, residual.rows);
    assert!(
        consumed.stats.cpu_tuple_ops < residual.stats.cpu_tuple_ops,
        "consumed={} residual={}",
        consumed.stats.cpu_tuple_ops,
        residual.stats.cpu_tuple_ops
    );
    // And far fewer rows even reach the scan when the index is usable.
    assert!(consumed.stats.rows_scanned < residual.stats.rows_scanned);
}

#[test]
fn secondary_index_point_lookup_beats_seq_scan() {
    let mut d = Database::new(10_000);
    d.execute(
        "create table li (k int not null, part int not null, primary key (k)) clustered by (k)",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..30_000i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 500)])
        .collect();
    d.load_table("li", rows).unwrap();
    d.execute("create index idx_part on li (part)").unwrap();

    let with_index = d
        .query("select count(*) as n from li where part = 42")
        .unwrap();
    assert_eq!(with_index.rows[0][0], Value::Int(60));
    // The secondary path touches only the matching rows.
    assert!(
        with_index.stats.rows_scanned <= 60,
        "scanned {} rows through the secondary index",
        with_index.stats.rows_scanned
    );
    // And its page accesses are classified as random (index probes).
    assert!(with_index.stats.buffer.misses_rand + with_index.stats.buffer.hits > 0);
    assert_eq!(with_index.stats.buffer.misses_seq, 0);

    // EXPLAIN agrees.
    let plan = d
        .query("explain select count(*) as n from li where part = 42")
        .unwrap();
    let text: String = plan
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("secondary index range on part"), "{text}");
}

#[test]
fn planner_prefers_tighter_of_two_indexes() {
    let mut d = Database::new(10_000);
    d.execute(
        "create table li (k int not null, part int not null, primary key (k)) clustered by (k)",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..30_000i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 500)])
        .collect();
    d.load_table("li", rows).unwrap();
    d.execute("create index idx_part on li (part)").unwrap();
    // Wide clustered range vs narrow secondary point: the point wins.
    let plan = d
        .query(
            "explain select count(*) as n from li \
             where k >= 0 and k < 29000 and part = 7",
        )
        .unwrap();
    let text: String = plan
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("secondary index range on part"), "{text}");
}

/// An `IN (subquery)` or scalar subquery that references no outer column
/// runs once per statement execution, not once per outer row: the inner
/// table is scanned once, so `rows_scanned` is inner + outer. A correlated
/// one still runs per outer row.
#[test]
fn uncorrelated_subqueries_run_once_per_execution() {
    let mut d = Database::in_memory();
    d.execute("create table outer_t (k int not null, v int)")
        .unwrap();
    d.execute("create table inner_t (k int not null, v int)")
        .unwrap();
    let outer: Vec<Vec<Value>> = (0..200i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
        .collect();
    let inner: Vec<Vec<Value>> = (0..50i64)
        .map(|i| vec![Value::Int(i * 3), Value::Int(i % 5)])
        .collect();
    d.load_table("outer_t", outer).unwrap();
    d.load_table("inner_t", inner).unwrap();

    // Under OR the predicate cannot be pushed anywhere clever: it is
    // evaluated for each of the 200 outer rows.
    let in_sub = d
        .query(
            "select count(*) as n from outer_t \
             where v = 6 or k in (select k from inner_t where v < 3)",
        )
        .unwrap();
    // Keys 0, 3, …, 147 with (k / 3) % 5 < 3: 30 of them, 4 of which have
    // v = 6 already; plus the 28 rows with v = 6 (k % 7 = 6, k < 200).
    assert_eq!(in_sub.rows, vec![vec![Value::Int(54)]]);
    assert_eq!(in_sub.stats.rows_scanned, 200 + 50);

    let scalar = d
        .query("select count(*) as n from outer_t where k > (select max(k) from inner_t)")
        .unwrap();
    assert_eq!(scalar.rows, vec![vec![Value::Int(52)]]);
    assert_eq!(scalar.stats.rows_scanned, 200 + 50);

    // The bound path reuses the cached plan but not a previous execution's
    // result: a different parameter, a different set.
    let bound = |limit: i64| {
        d.query_bound(
            "select count(*) as n from outer_t where k in (select k from inner_t where v < $1)",
            &[Value::Int(limit)],
        )
        .unwrap()
    };
    assert_eq!(bound(3).rows, vec![vec![Value::Int(30)]]);
    assert_eq!(bound(1).rows, vec![vec![Value::Int(10)]]);
    assert_eq!(bound(1).stats.rows_scanned, 200 + 50);

    // Correlated: the inner table is scanned once per outer row.
    let correlated = d
        .query(
            "select count(*) as n from outer_t \
             where k in (select k from inner_t where inner_t.v < outer_t.v)",
        )
        .unwrap();
    assert_eq!(correlated.stats.rows_scanned, 200 + 200 * 50);
}

/// Two bounds on the same value, one inclusive and one exclusive, are both
/// consumed by the index range — which therefore has to keep the exclusive
/// one, whichever conjunct comes first.
#[test]
fn equal_valued_index_bounds_keep_the_exclusive_one() {
    let mut d = Database::in_memory();
    d.execute("create table orders (o_orderkey int not null, primary key (o_orderkey)) clustered by (o_orderkey)")
        .unwrap();
    let rows: Vec<Vec<Value>> = (1..=50i64).map(|k| vec![Value::Int(k)]).collect();
    d.load_table("orders", rows).unwrap();
    for (pred, want) in [
        ("o_orderkey between 1 and 7 and o_orderkey < 7", 6),
        ("o_orderkey < 7 and o_orderkey between 1 and 7", 6),
        ("o_orderkey >= 2 and o_orderkey > 2 and o_orderkey <= 7", 5),
        ("o_orderkey > 2 and o_orderkey >= 2 and o_orderkey <= 7", 5),
        ("o_orderkey <= 7 and o_orderkey < 7 and o_orderkey >= 2", 5),
        ("o_orderkey = 7 and o_orderkey < 7", 0),
        ("o_orderkey > 7 and o_orderkey = 7", 0),
    ] {
        for seqscan in ["on", "off"] {
            d.query(&format!("set enable_seqscan = {seqscan}")).unwrap();
            let out = d
                .query(&format!("select count(*) as n from orders where {pred}"))
                .unwrap();
            assert_eq!(
                out.rows,
                vec![vec![Value::Int(want)]],
                "{pred} (enable_seqscan = {seqscan})"
            );
        }
    }
}

/// The same uncorrelated subquery text used as both `IN (…)` and a scalar
/// subquery in one grouped statement: aggregate substitution clones the
/// HAVING expression and each select item per group, so the per-execution
/// memo must tell the two uses apart however the clones are laid out.
#[test]
fn one_subquery_text_as_in_and_as_scalar() {
    let mut d = Database::in_memory();
    d.execute("create table outer_t (k int not null, v int)")
        .unwrap();
    d.execute("create table inner_t (k int not null, v int)")
        .unwrap();
    let outer: Vec<Vec<Value>> = (0..20i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
        .collect();
    let inner: Vec<Vec<Value>> = (0..10i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
        .collect();
    d.load_table("outer_t", outer).unwrap();
    d.load_table("inner_t", inner).unwrap();

    let having = d
        .query(
            "select v, (select max(v) from inner_t) from outer_t group by v \
             having v in (select max(v) from inner_t)",
        )
        .unwrap();
    assert_eq!(having.rows, vec![vec![Value::Int(4), Value::Int(4)]]);

    let items = d
        .query(
            "select v, v in (select max(v) from inner_t), (select max(v) from inner_t) \
             from outer_t group by v order by v",
        )
        .unwrap();
    let want: Vec<Vec<Value>> = (0..7i64)
        .map(|v| vec![Value::Int(v), Value::Bool(v == 4), Value::Int(4)])
        .collect();
    assert_eq!(items.rows, want);
    // Each use runs once: the inner table is scanned twice, not per group.
    assert_eq!(items.stats.rows_scanned, 20 + 2 * 10);
}

/// `EXISTS` over one un-indexed table stops at the first inner row that
/// satisfies the subquery's predicate, whatever the predicate mentions:
/// the inner table is never scanned to the end for an outer row that has
/// a match. The counters are the ones the commit before the probe (e61a1d8,
/// whose `eval_exists` had a sequential first-match path) reported.
#[test]
fn unindexed_exists_stops_at_the_first_match() {
    let mut d = Database::in_memory();
    d.execute("create table outer_t (k int not null, v int)")
        .unwrap();
    d.execute("create table inner_t (k int not null, v int)")
        .unwrap();
    let outer: Vec<Vec<Value>> = (0..200i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
        .collect();
    let inner: Vec<Vec<Value>> = (0..50i64)
        .map(|i| vec![Value::Int(i * 3), Value::Int(i % 5)])
        .collect();
    d.load_table("outer_t", outer).unwrap();
    d.load_table("inner_t", inner).unwrap();
    // (count, rows_scanned, cpu_tuple_ops, index_probes, page accesses)
    let run = |pred: &str| {
        let out = d
            .query(&format!("select count(*) as n from outer_t where {pred}"))
            .unwrap();
        (
            out.rows[0][0].clone(),
            out.stats.rows_scanned,
            out.stats.cpu_tuple_ops,
            out.stats.index_probes,
            out.stats.buffer.accesses(),
        )
    };

    // No WHERE: the first inner row answers for every outer row.
    assert_eq!(
        run("exists (select 1 from inner_t i)"),
        (Value::Int(200), 200 + 200, 400, 0, 201)
    );
    // An outer-only conjunct is evaluated per inner row, like any other:
    // true at the first row for the 84 outer rows with v > 3, false on all
    // 50 for the other 116.
    assert_eq!(
        run("exists (select 1 from inner_t i where outer_t.v > 3)"),
        (Value::Int(84), 200 + 84 + 116 * 50, 284, 0, 201)
    );
    // Correlated on an un-indexed column: inner key 3j sits at position
    // j + 1, the 150 outer keys without a partner scan all 50 rows.
    let scanned = 200 + (1..=50).sum::<u64>() + 150 * 50;
    assert_eq!(
        run("exists (select 1 from inner_t i where i.k = outer_t.k)"),
        (Value::Int(50), scanned, 250, 0, 201)
    );
    assert_eq!(
        run("not exists (select 1 from inner_t i where i.k = outer_t.k)"),
        (Value::Int(150), scanned, 350, 0, 201)
    );
    // Under OR, through the memo's probe.
    assert_eq!(
        run("v = 6 or exists (select 1 from inner_t i where i.k = outer_t.k and i.v < 3)"),
        (Value::Int(54), 8146, 254, 0, 173)
    );
}
