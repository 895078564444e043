//! AST walkers and in-place mutators.
//!
//! The Apuama middleware needs exactly two tree operations, both provided
//! here in a general form:
//!
//! * **discovery** — which base tables does a query reference (the paper's
//!   Query Parser component feeding the Data Catalog lookup), and
//! * **mutation** — rewriting expressions in place (SVP's range-predicate
//!   injection and aggregate decomposition).

use crate::ast::{Expr, Select, SelectItem, Statement, TableRef};
use std::sync::Arc;

/// Calls `f` for every expression in the select, including inside
/// subqueries. Traversal is pre-order.
pub fn walk_select_exprs<'a>(select: &'a Select, f: &mut dyn FnMut(&'a Expr)) {
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr(expr, f);
        }
    }
    for t in &select.from {
        if let TableRef::Subquery { query, .. } = t {
            walk_select_exprs(query, f);
        }
    }
    if let Some(e) = &select.selection {
        walk_expr(e, f);
    }
    for g in &select.group_by {
        walk_expr(g, f);
    }
    if let Some(h) = &select.having {
        walk_expr(h, f);
    }
    for o in &select.order_by {
        walk_expr(&o.expr, f);
    }
}

/// Pre-order walk over one expression tree, descending into subqueries.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                walk_expr(c, f);
                walk_expr(r, f);
            }
            if let Some(e) = else_expr {
                walk_expr(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for e in list {
                walk_expr(e, f);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            walk_expr(expr, f);
            walk_select_exprs(query, f);
        }
        Expr::Exists { query, .. } => walk_select_exprs(query, f),
        Expr::ScalarSubquery(q) => walk_select_exprs(q, f),
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f);
            walk_expr(pattern, f);
        }
        Expr::IsNull { expr, .. } => walk_expr(expr, f),
    }
}

/// Collects the names of all base tables referenced anywhere in the select
/// (FROM clauses of the query itself, derived tables, and subqueries in any
/// expression position), in first-appearance order, deduplicated.
pub fn referenced_tables(select: &Select) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push = |name: &str| {
        if !out.iter().any(|n| n == name) {
            out.push(name.to_string());
        }
    };
    collect_tables(select, &mut push);
    out
}

fn collect_tables(select: &Select, push: &mut dyn FnMut(&str)) {
    for t in &select.from {
        match t {
            TableRef::Table { name, .. } => push(name),
            TableRef::Subquery { query, .. } => collect_tables(query, push),
        }
    }
    let mut visit = |e: &Expr| match e {
        Expr::Exists { query, .. } | Expr::InSubquery { query, .. } => collect_tables(query, push),
        Expr::ScalarSubquery(q) => collect_tables(q, push),
        _ => {}
    };
    // Walk only the top-level expressions for subquery discovery; nested
    // subqueries are reached recursively via `collect_tables` above, so we
    // must not descend into subqueries twice here. A shallow walk suffices
    // because `walk_select_exprs` already descends into subquery bodies and
    // would double-count.
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            shallow_walk(expr, &mut visit);
        }
    }
    if let Some(e) = &select.selection {
        shallow_walk(e, &mut visit);
    }
    for g in &select.group_by {
        shallow_walk(g, &mut visit);
    }
    if let Some(h) = &select.having {
        shallow_walk(h, &mut visit);
    }
    for o in &select.order_by {
        shallow_walk(&o.expr, &mut visit);
    }
}

/// Walks an expression tree but does NOT descend into subqueries; the
/// callback sees subquery nodes themselves.
pub fn shallow_walk<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary { expr, .. } => shallow_walk(expr, f),
        Expr::Binary { left, right, .. } => {
            shallow_walk(left, f);
            shallow_walk(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                shallow_walk(a, f);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                shallow_walk(c, f);
                shallow_walk(r, f);
            }
            if let Some(e) = else_expr {
                shallow_walk(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            shallow_walk(expr, f);
            shallow_walk(low, f);
            shallow_walk(high, f);
        }
        Expr::InList { expr, list, .. } => {
            shallow_walk(expr, f);
            for e in list {
                shallow_walk(e, f);
            }
        }
        Expr::InSubquery { expr, .. } => shallow_walk(expr, f),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::Like { expr, pattern, .. } => {
            shallow_walk(expr, f);
            shallow_walk(pattern, f);
        }
        Expr::IsNull { expr, .. } => shallow_walk(expr, f),
    }
}

/// Collects tables referenced by a statement (SELECT/INSERT/DELETE/UPDATE).
pub fn statement_tables(stmt: &Statement) -> Vec<String> {
    match stmt {
        Statement::Select(s) => referenced_tables(s),
        Statement::Explain { inner, .. } => statement_tables(inner),
        Statement::Insert { table, .. }
        | Statement::Delete { table, .. }
        | Statement::Update { table, .. } => vec![table.clone()],
        Statement::CreateTable { name, .. } => vec![name.clone()],
        Statement::CreateIndex { table, .. } => vec![table.clone()],
        Statement::Set { .. } | Statement::Begin | Statement::Commit | Statement::Rollback => {
            vec![]
        }
    }
}

/// Rewrites every expression of the top-level select in place (not
/// descending into subqueries — SVP's aggregate decomposition must only
/// touch the outer query block).
pub fn rewrite_top_level_exprs(select: &mut Select, f: &mut dyn FnMut(&mut Expr)) {
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            f(expr);
        }
    }
    if let Some(e) = &mut select.selection {
        f(e);
    }
    for g in &mut select.group_by {
        f(g);
    }
    if let Some(h) = &mut select.having {
        f(h);
    }
    for o in &mut select.order_by {
        f(&mut o.expr);
    }
}

/// Post-order mutable walk over one expression tree, descending into
/// subqueries. The callback may replace whole nodes (parameter binding).
pub fn rewrite_expr_deep(expr: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary { expr, .. } => rewrite_expr_deep(expr, f),
        Expr::Binary { left, right, .. } => {
            rewrite_expr_deep(left, f);
            rewrite_expr_deep(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                rewrite_expr_deep(a, f);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                rewrite_expr_deep(c, f);
                rewrite_expr_deep(r, f);
            }
            if let Some(e) = else_expr {
                rewrite_expr_deep(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            rewrite_expr_deep(expr, f);
            rewrite_expr_deep(low, f);
            rewrite_expr_deep(high, f);
        }
        Expr::InList { expr, list, .. } => {
            rewrite_expr_deep(expr, f);
            for e in list {
                rewrite_expr_deep(e, f);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            rewrite_expr_deep(expr, f);
            rewrite_select_exprs_deep(Arc::make_mut(query), f);
        }
        Expr::Exists { query, .. } => rewrite_select_exprs_deep(Arc::make_mut(query), f),
        Expr::ScalarSubquery(q) => rewrite_select_exprs_deep(Arc::make_mut(q), f),
        Expr::Like { expr, pattern, .. } => {
            rewrite_expr_deep(expr, f);
            rewrite_expr_deep(pattern, f);
        }
        Expr::IsNull { expr, .. } => rewrite_expr_deep(expr, f),
    }
    f(expr);
}

/// Applies [`rewrite_expr_deep`] to every expression of the select,
/// including derived tables and subqueries.
pub fn rewrite_select_exprs_deep(select: &mut Select, f: &mut dyn FnMut(&mut Expr)) {
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            rewrite_expr_deep(expr, f);
        }
    }
    for t in &mut select.from {
        if let TableRef::Subquery { query, .. } = t {
            rewrite_select_exprs_deep(query, f);
        }
    }
    if let Some(e) = &mut select.selection {
        rewrite_expr_deep(e, f);
    }
    for g in &mut select.group_by {
        rewrite_expr_deep(g, f);
    }
    if let Some(h) = &mut select.having {
        rewrite_expr_deep(h, f);
    }
    for o in &mut select.order_by {
        rewrite_expr_deep(&mut o.expr, f);
    }
}

/// Highest `$N` placeholder referenced anywhere in the select (0 when the
/// statement has no parameters) — the number of values a bind must supply.
pub fn parameter_count(select: &Select) -> usize {
    let mut max = 0usize;
    walk_select_exprs(select, &mut |e| {
        if let Expr::Parameter(n) = e {
            max = max.max(*n);
        }
    });
    max
}

/// Replaces every `$N` placeholder with the corresponding literal from
/// `params` (1-based). Errors if a placeholder has no matching value. This
/// is the textual-fallback path for backends without a native bound-execute:
/// the bound statement renders to plain SQL byte-identical to what the
/// template would have produced with inlined literals.
pub fn bind_parameters(select: &mut Select, params: &[crate::Value]) -> Result<(), String> {
    let mut missing = None;
    rewrite_select_exprs_deep(select, &mut |e| {
        if let Expr::Parameter(n) = e {
            match params.get(*n - 1) {
                Some(v) => *e = Expr::Literal(v.clone()),
                None => missing = Some(*n),
            }
        }
    });
    match missing {
        Some(n) => Err(format!(
            "statement references ${n} but only {} parameter(s) were bound",
            params.len()
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn tables_of(sql: &str) -> Vec<String> {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => referenced_tables(&s),
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn tables_from_simple_join() {
        assert_eq!(
            tables_of("select * from lineitem, orders where l_orderkey = o_orderkey"),
            vec!["lineitem", "orders"]
        );
    }

    #[test]
    fn tables_from_exists_subquery() {
        assert_eq!(
            tables_of(
                "select o_orderpriority from orders where exists \
                 (select * from lineitem where l_orderkey = o_orderkey)"
            ),
            vec!["orders", "lineitem"]
        );
    }

    #[test]
    fn tables_deduplicated() {
        assert_eq!(
            tables_of(
                "select * from lineitem l1 where exists \
                 (select * from lineitem l2 where l2.l_orderkey = l1.l_orderkey)"
            ),
            vec!["lineitem"]
        );
    }

    #[test]
    fn tables_from_scalar_subquery_in_select_list() {
        assert_eq!(
            tables_of("select (select max(o_orderkey) from orders) from nation"),
            vec!["nation", "orders"]
        );
    }

    #[test]
    fn tables_from_derived_table() {
        assert_eq!(
            tables_of("select x from (select l_orderkey as x from lineitem) d"),
            vec!["lineitem"]
        );
    }

    #[test]
    fn statement_tables_for_dml() {
        let s = parse_statement("delete from orders where o_orderkey = 5").unwrap();
        assert_eq!(statement_tables(&s), vec!["orders"]);
    }

    #[test]
    fn walk_counts_all_exprs() {
        let stmt = parse_statement("select a + b from t where c > 1").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let mut count = 0;
        walk_select_exprs(&s, &mut |_| count += 1);
        // (a+b), a, b, (c>1), c, 1 = 6 nodes
        assert_eq!(count, 6);
    }

    #[test]
    fn bind_parameters_replaces_placeholders_everywhere() {
        let stmt = parse_statement(
            "select k from t where k >= $1 and k < $2 \
             and exists (select 1 from u where u.k >= $1)",
        )
        .unwrap();
        let Statement::Select(mut s) = stmt else {
            panic!()
        };
        assert_eq!(parameter_count(&s), 2);
        bind_parameters(&mut s, &[crate::Value::Int(10), crate::Value::Int(20)]).unwrap();
        assert_eq!(parameter_count(&s), 0);
        assert_eq!(
            s.to_string(),
            "select k from t where (((k >= 10) and (k < 20)) \
             and (exists (select 1 from u where (u.k >= 10))))"
        );
    }

    #[test]
    fn bind_parameters_rejects_short_binds() {
        let stmt = parse_statement("select k from t where k >= $1 and k < $2").unwrap();
        let Statement::Select(mut s) = stmt else {
            panic!()
        };
        assert!(bind_parameters(&mut s, &[crate::Value::Int(10)]).is_err());
    }

    #[test]
    fn rewrite_top_level_only() {
        let stmt = parse_statement(
            "select sum(x) from t where exists (select sum(y) from u where u.k = t.k)",
        )
        .unwrap();
        let Statement::Select(mut s) = stmt else {
            panic!()
        };
        let mut touched = 0;
        rewrite_top_level_exprs(&mut s, &mut |_| touched += 1);
        // One select item and one where predicate.
        assert_eq!(touched, 2);
    }
}
