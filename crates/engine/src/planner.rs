//! Cost-based planning: conjunct classification, access-path choice, join
//! ordering.
//!
//! The cost model is deliberately PostgreSQL-shaped (`seq_page_cost = 1`,
//! `random_page_cost = 4`, `cpu_tuple_cost = 0.01`) because the paper's SVP
//! argument hinges on reproducing a PostgreSQL behaviour: *a full table scan
//! can look cheaper than a clustered-index range scan for an isolated
//! sub-query, which destroys virtual partitioning* — Apuama therefore turns
//! `enable_seqscan` off for its sub-queries, which this planner honours the
//! way PostgreSQL does (a discouragement penalty, not a hard ban).

use std::collections::HashSet;
use std::ops::Bound;

use apuama_sql::ast::{BinOp, Expr, Select, SelectItem, TableRef};
use apuama_sql::{visit, Value};

use crate::catalog::Catalog;
use crate::eval::CompiledExpr;
use crate::exec;
use crate::table::Table;

/// PostgreSQL-default planner constants.
pub const SEQ_PAGE_COST: f64 = 1.0;
pub const RANDOM_PAGE_COST: f64 = 4.0;
pub const CPU_TUPLE_COST: f64 = 0.01;
/// Penalty PostgreSQL adds to discouraged paths (`enable_seqscan = off`).
pub const DISABLE_COST: f64 = 1.0e10;

/// How a base table will be read.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full heap scan in slot order.
    SeqScan,
    /// Ordered-index scan over a key range. `clustered` means the heap is
    /// physically ordered by this column, so the touched pages are
    /// contiguous (sequential I/O); otherwise every matching row is a
    /// random page fetch.
    IndexRange {
        column: usize,
        low: Bound<Value>,
        high: Bound<Value>,
        clustered: bool,
    },
}

/// Plan for reading one FROM-item.
#[derive(Debug, Clone)]
pub struct ScanChoice {
    pub path: AccessPath,
    /// Estimated rows produced after ALL single-table conjuncts.
    pub estimated_rows: f64,
    /// Planner cost of the chosen path (exposed for tests/EXPLAIN-ish use).
    pub cost: f64,
    /// Indices (into the conjunct slice given to [`choose_access_path`]) of
    /// predicates fully consumed by the chosen index range — the executor
    /// must not re-evaluate them per row, exactly as an index condition is
    /// not re-checked as a filter in PostgreSQL.
    pub consumed: Vec<usize>,
}

/// Key-range bounds accumulated for one column.
#[derive(Debug, Clone, Default)]
struct ColumnBounds {
    low: Option<(Value, bool)>,  // (value, inclusive)
    high: Option<(Value, bool)>, // (value, inclusive)
}

impl ColumnBounds {
    /// Both conjuncts are marked consumed, so the merged bound must imply
    /// each of them: the larger value wins, and on equal values the
    /// exclusive bound does (`k >= 2 and k > 2` is `k > 2`).
    fn tighten_low(&mut self, v: Value, inclusive: bool) {
        let better = match &self.low {
            None => true,
            Some((cur, cur_inclusive)) => match v.sort_cmp(cur) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *cur_inclusive && !inclusive,
                std::cmp::Ordering::Less => false,
            },
        };
        if better {
            self.low = Some((v, inclusive));
        }
    }

    /// Mirror image of [`Self::tighten_low`]: the smaller value wins, the
    /// exclusive bound on a tie.
    fn tighten_high(&mut self, v: Value, inclusive: bool) {
        let better = match &self.high {
            None => true,
            Some((cur, cur_inclusive)) => match v.sort_cmp(cur) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *cur_inclusive && !inclusive,
                std::cmp::Ordering::Greater => false,
            },
        };
        if better {
            self.high = Some((v, inclusive));
        }
    }

    fn low_bound(&self) -> Bound<Value> {
        match &self.low {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(v.clone()),
            Some((v, false)) => Bound::Excluded(v.clone()),
        }
    }

    fn high_bound(&self) -> Bound<Value> {
        match &self.high {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(v.clone()),
            Some((v, false)) => Bound::Excluded(v.clone()),
        }
    }

    fn is_constraining(&self) -> bool {
        self.low.is_some() || self.high.is_some()
    }
}

/// Chooses the access path for one base table given its single-table
/// conjuncts. `eval_const` evaluates column-free expressions (date
/// arithmetic in TPC-H predicates) to values; it returns `None` when the
/// expression references columns.
pub fn choose_access_path(
    table: &Table,
    binding_name: &str,
    conjuncts: &[Expr],
    enable_seqscan: bool,
    enable_indexscan: bool,
    eval_const: &dyn Fn(&Expr) -> Option<Value>,
) -> ScanChoice {
    // Residual selectivity heuristics for conjuncts the index can't consume.
    let residual_selectivity: f64 = conjuncts.iter().map(default_selectivity).product();
    let mut best = seq_choice(table, residual_selectivity, enable_seqscan);
    for col in table.indexed_columns() {
        let col_name = &table.schema.columns[col].name;
        let mut bounds = ColumnBounds::default();
        let mut consumed = Vec::new();
        for (ci, c) in conjuncts.iter().enumerate() {
            if extract_bounds(c, binding_name, col_name, eval_const, &mut bounds) {
                consumed.push(ci);
            }
        }
        let costed = index_choice(
            table,
            col,
            &bounds,
            residual_selectivity,
            enable_indexscan,
            best.cost,
        );
        if let Some(choice) = costed {
            best = ScanChoice {
                consumed: consumed.clone(),
                ..choice
            };
        }
    }
    best
}

/// The sequential scan's choice: every conjunct left to the row level.
fn seq_choice(table: &Table, residual_selectivity: f64, enable_seqscan: bool) -> ScanChoice {
    let rows = table.row_count() as f64;
    let pages = table.pages() as f64;
    let mut seq_cost = pages * SEQ_PAGE_COST + rows * CPU_TUPLE_COST;
    if !enable_seqscan {
        seq_cost += DISABLE_COST;
    }
    ScanChoice {
        path: AccessPath::SeqScan,
        estimated_rows: (rows * residual_selectivity).max(1.0),
        cost: seq_cost,
        consumed: Vec::new(),
    }
}

/// The index range `bounds` give on `col`, when the column is indexed and
/// the range costs less than `to_beat`; `consumed` is left to the caller.
fn index_choice(
    table: &Table,
    col: usize,
    bounds: &ColumnBounds,
    residual_selectivity: f64,
    enable_indexscan: bool,
    to_beat: f64,
) -> Option<ScanChoice> {
    let idx = table.index_on(col)?;
    let rows = table.row_count() as f64;
    let pages = table.pages() as f64;
    let lo = bounds.low_bound();
    let hi = bounds.high_bound();
    let sel = if bounds.is_constraining() {
        idx.range_selectivity(as_ref_bound(&lo), as_ref_bound(&hi))
    } else {
        1.0
    };
    let clustered = table.schema.clustered_by == Some(col);
    let mut cost = if clustered {
        // Contiguous slice of the heap plus a descent.
        sel * pages * SEQ_PAGE_COST + sel * rows * CPU_TUPLE_COST + 10.0
    } else {
        // One random heap page per matching posting.
        sel * rows * RANDOM_PAGE_COST + sel * rows * CPU_TUPLE_COST + 10.0
    };
    if !enable_indexscan {
        cost += DISABLE_COST;
    }
    (cost < to_beat).then(|| ScanChoice {
        path: AccessPath::IndexRange {
            column: col,
            low: lo,
            high: hi,
            clustered,
        },
        estimated_rows: (rows * sel.max(1e-9) * residual_selectivity
            / default_selectivity_for_bounds(bounds))
        .max(1.0),
        cost,
        consumed: Vec::new(),
    })
}

/// One scan's access-path choice fixed at lowering up to its bound values:
/// per indexed column, which conjuncts bound it and their value operands,
/// compiled. A cached plan keeps it, so an execution only values the
/// operands and costs the ranges ([`AccessShape::choose`]) — the choice
/// [`choose_access_path`] makes from the same values.
#[derive(Debug, Clone)]
pub(crate) struct AccessShape {
    residual_selectivity: f64,
    columns: Vec<ColumnTerms>,
}

/// One indexed column's bounding conjuncts, in conjunct order.
#[derive(Debug, Clone)]
struct ColumnTerms {
    column: usize,
    terms: Vec<BoundTerm<CompiledExpr>>,
    /// The conjuncts `terms` came from: what the range consumes.
    consumed: Vec<usize>,
}

impl AccessShape {
    /// The shape of `conjuncts`' access path over `table`, their operands
    /// compiled by `compile`; `None` when an operand does not compile to a
    /// program an execution can value alone (`compile` says so).
    pub(crate) fn of(
        table: &Table,
        binding_name: &str,
        conjuncts: &[Expr],
        compile: &dyn Fn(&Expr) -> Option<CompiledExpr>,
    ) -> Option<AccessShape> {
        let mut columns = Vec::new();
        for column in table.indexed_columns() {
            let col_name = &table.schema.columns[column].name;
            let (mut terms, mut consumed) = (Vec::new(), Vec::new());
            for (ci, c) in conjuncts.iter().enumerate() {
                let Some(term) = bound_term(c, binding_name, col_name) else {
                    continue;
                };
                // An operand reading a column never values: not consumed.
                let operands = match term {
                    BoundTerm::Cmp(_, e) => [Some(e), None],
                    BoundTerm::Between(lo, hi) => [Some(lo), Some(hi)],
                };
                if operands.iter().flatten().any(|e| exec::expr_has_columns(e)) {
                    continue;
                }
                terms.push(match term {
                    BoundTerm::Cmp(op, e) => BoundTerm::Cmp(op, compile(e)?),
                    BoundTerm::Between(lo, hi) => BoundTerm::Between(compile(lo)?, compile(hi)?),
                });
                consumed.push(ci);
            }
            columns.push(ColumnTerms {
                column,
                terms,
                consumed,
            });
        }
        Some(AccessShape {
            residual_selectivity: conjuncts.iter().map(default_selectivity).product(),
            columns,
        })
    }

    /// The access path and the conjuncts it consumes, from the operand
    /// values `value` gives. `None` when an operand does not value (an
    /// error or an unbound parameter): the caller then chooses through
    /// [`choose_access_path`], which leaves that conjunct unconsumed.
    pub(crate) fn choose(
        &self,
        table: &Table,
        enable_seqscan: bool,
        enable_indexscan: bool,
        value: &dyn Fn(&CompiledExpr) -> Option<Value>,
    ) -> Option<(AccessPath, &[usize])> {
        let mut best = seq_choice(table, self.residual_selectivity, enable_seqscan);
        let mut consumed: &[usize] = &[];
        for c in &self.columns {
            let mut bounds = ColumnBounds::default();
            for term in &c.terms {
                if !term.apply(&mut bounds, value) {
                    return None;
                }
            }
            let costed = index_choice(
                table,
                c.column,
                &bounds,
                self.residual_selectivity,
                enable_indexscan,
                best.cost,
            );
            if let Some(choice) = costed {
                best = choice;
                consumed = &c.consumed;
            }
        }
        Some((best.path, consumed))
    }
}

/// The heuristic selectivity a conjunct contributes when it is not consumed
/// by an index.
fn default_selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Binary { op, .. } if *op == BinOp::Eq => 0.1,
        Expr::Binary { op, .. } if op.is_comparison() => 0.4,
        Expr::Between { negated: false, .. } => 0.25,
        Expr::Between { negated: true, .. } => 0.75,
        Expr::Like { negated: false, .. } => 0.25,
        Expr::Like { negated: true, .. } => 0.75,
        Expr::InList { list, .. } => (0.1 * list.len() as f64).min(1.0),
        Expr::Exists { .. } => 0.5,
        Expr::InSubquery { .. } => 0.3,
        _ => 0.5,
    }
}

/// Correction used so bound-consumed conjuncts are not double counted: the
/// product of defaults for range-shaped conjuncts is divided back out when
/// the index consumed them. We approximate with one factor per present
/// bound.
fn default_selectivity_for_bounds(b: &ColumnBounds) -> f64 {
    let mut f = 1.0;
    if b.low.is_some() {
        f *= 0.4;
    }
    if b.high.is_some() {
        f *= 0.4;
    }
    f
}

fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
    }
}

/// True if `col` refers to `col_name` of `binding_name` (qualifier optional).
fn is_column(e: &Expr, binding_name: &str, col_name: &str) -> bool {
    match e {
        Expr::Column(c) => {
            c.column == col_name
                && match &c.table {
                    None => true,
                    Some(q) => q == binding_name,
                }
        }
        _ => false,
    }
}

/// A conjunct's bound on one column before its operands are valued:
/// `col op operand` (the operator flipped when the column stood on the
/// right) or `col between low and high`.
#[derive(Debug, Clone)]
enum BoundTerm<E> {
    Cmp(BinOp, E),
    Between(E, E),
}

impl<E> BoundTerm<E> {
    /// Adds the term to `bounds` when `value` values every operand; false,
    /// adding nothing, otherwise.
    fn apply(&self, bounds: &mut ColumnBounds, value: &dyn Fn(&E) -> Option<Value>) -> bool {
        match self {
            BoundTerm::Cmp(op, e) => match value(e) {
                Some(v) => {
                    apply_bound(bounds, *op, v);
                    true
                }
                None => false,
            },
            BoundTerm::Between(low, high) => match (value(low), value(high)) {
                (Some(lo), Some(hi)) => {
                    bounds.tighten_low(lo, true);
                    bounds.tighten_high(hi, true);
                    true
                }
                _ => false,
            },
        }
    }
}

/// The bound `conjunct` puts on `col_name` of `binding_name`, if it has the
/// shape of one.
fn bound_term<'x>(
    conjunct: &'x Expr,
    binding_name: &str,
    col_name: &str,
) -> Option<BoundTerm<&'x Expr>> {
    match conjunct {
        Expr::Binary { left, op, right } if op.is_comparison() && *op != BinOp::NotEq => {
            if is_column(left, binding_name, col_name) {
                Some(BoundTerm::Cmp(*op, right))
            } else if is_column(right, binding_name, col_name) {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::LtEq => BinOp::GtEq,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::GtEq => BinOp::LtEq,
                    other => *other,
                };
                Some(BoundTerm::Cmp(flipped, left))
            } else {
                None
            }
        }
        Expr::Between {
            expr,
            negated: false,
            low,
            high,
        } if is_column(expr, binding_name, col_name) => Some(BoundTerm::Between(low, high)),
        _ => None,
    }
}

/// Accumulates index bounds contributed by one conjunct. Returns true when
/// the conjunct is *fully captured* by the accumulated range (and can
/// therefore be dropped from the residual filter).
fn extract_bounds(
    conjunct: &Expr,
    binding_name: &str,
    col_name: &str,
    eval_const: &dyn Fn(&Expr) -> Option<Value>,
    bounds: &mut ColumnBounds,
) -> bool {
    bound_term(conjunct, binding_name, col_name)
        .is_some_and(|term| term.apply(bounds, &|e: &&Expr| eval_const(e)))
}

fn apply_bound(bounds: &mut ColumnBounds, op: BinOp, v: Value) {
    match op {
        BinOp::Eq => {
            bounds.tighten_low(v.clone(), true);
            bounds.tighten_high(v, true);
        }
        BinOp::Lt => bounds.tighten_high(v, false),
        BinOp::LtEq => bounds.tighten_high(v, true),
        BinOp::Gt => bounds.tighten_low(v, false),
        BinOp::GtEq => bounds.tighten_low(v, true),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Conjunct classification (which FROM bindings does a predicate touch?)
// ---------------------------------------------------------------------------

/// Lightweight description of a FROM binding for scope resolution.
pub struct BindingScope {
    /// The name the binding is referred to by (alias or table name).
    pub name: String,
    /// Column names visible through it.
    pub columns: Vec<String>,
}

/// Builds the scope list for a SELECT's FROM clause.
pub fn scopes_for_from(from: &[TableRef], catalog: &Catalog) -> Vec<BindingScope> {
    from.iter()
        .map(|t| match t {
            TableRef::Table { name, alias } => {
                let columns = catalog
                    .get(name)
                    .map(|s| s.columns.iter().map(|c| c.name.clone()).collect())
                    .unwrap_or_default();
                BindingScope {
                    name: alias.clone().unwrap_or_else(|| name.clone()),
                    columns,
                }
            }
            TableRef::Subquery { query, alias } => BindingScope {
                name: alias.clone(),
                columns: query
                    .items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| item.output_name(i))
                    .collect(),
            },
        })
        .collect()
}

/// Returns the set of top-level binding names a conjunct references,
/// accounting for subquery scoping: a column that resolves inside a nested
/// subquery's own FROM does not count; one that escapes to the top level
/// does (that is a correlated reference).
pub fn conjunct_bindings(
    conjunct: &Expr,
    top: &[BindingScope],
    catalog: &Catalog,
) -> HashSet<String> {
    let mut out = HashSet::new();
    collect_refs(conjunct, &mut vec![], catalog, &mut |c| {
        if let Some(name) = resolve_name(top, c) {
            out.insert(name);
        }
    });
    out
}

/// True when every column the subquery mentions resolves in its own FROM
/// (or a nested subquery's): it references nothing of an enclosing query,
/// so its result does not depend on the outer row.
pub fn subquery_is_uncorrelated(q: &Select, catalog: &Catalog) -> bool {
    let mut escapes = false;
    descend_subquery(q, &mut vec![], catalog, &mut |_| escapes = true);
    !escapes
}

/// Walks `e`, reporting to `escaped` every column that no enclosing
/// subquery scope (`inner_scopes`, innermost last) resolves.
fn collect_refs(
    e: &Expr,
    inner_scopes: &mut Vec<Vec<BindingScope>>,
    catalog: &Catalog,
    escaped: &mut dyn FnMut(&apuama_sql::ColumnRef),
) {
    match e {
        Expr::Column(c) => {
            // Innermost subquery scopes shadow the top scope.
            for scope in inner_scopes.iter().rev() {
                if resolves_in(scope, c) {
                    return;
                }
            }
            escaped(c);
        }
        Expr::Exists { query, .. } => descend_subquery(query, inner_scopes, catalog, escaped),
        Expr::InSubquery { expr, query, .. } => {
            collect_refs(expr, inner_scopes, catalog, escaped);
            descend_subquery(query, inner_scopes, catalog, escaped);
        }
        Expr::ScalarSubquery(query) => descend_subquery(query, inner_scopes, catalog, escaped),
        Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
            collect_refs(expr, inner_scopes, catalog, escaped)
        }
        Expr::Binary { left, right, .. } => {
            collect_refs(left, inner_scopes, catalog, escaped);
            collect_refs(right, inner_scopes, catalog, escaped);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_refs(a, inner_scopes, catalog, escaped);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                collect_refs(c, inner_scopes, catalog, escaped);
                collect_refs(r, inner_scopes, catalog, escaped);
            }
            if let Some(el) = else_expr {
                collect_refs(el, inner_scopes, catalog, escaped);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_refs(expr, inner_scopes, catalog, escaped);
            collect_refs(low, inner_scopes, catalog, escaped);
            collect_refs(high, inner_scopes, catalog, escaped);
        }
        Expr::InList { expr, list, .. } => {
            collect_refs(expr, inner_scopes, catalog, escaped);
            for i in list {
                collect_refs(i, inner_scopes, catalog, escaped);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            collect_refs(expr, inner_scopes, catalog, escaped);
            collect_refs(pattern, inner_scopes, catalog, escaped);
        }
    }
}

fn descend_subquery(
    q: &Select,
    inner_scopes: &mut Vec<Vec<BindingScope>>,
    catalog: &Catalog,
    escaped: &mut dyn FnMut(&apuama_sql::ColumnRef),
) {
    inner_scopes.push(scopes_for_from(&q.from, catalog));
    let mut visit_expr = |e: &Expr| collect_refs(e, inner_scopes, catalog, escaped);
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit_expr(expr);
        }
    }
    if let Some(w) = &q.selection {
        visit_expr(w);
    }
    for g in &q.group_by {
        visit_expr(g);
    }
    if let Some(h) = &q.having {
        visit_expr(h);
    }
    for o in &q.order_by {
        visit_expr(&o.expr);
    }
    // Derived tables in the subquery's FROM also carry expressions.
    for t in &q.from {
        if let TableRef::Subquery { query, .. } = t {
            descend_subquery(query, inner_scopes, catalog, escaped);
        }
    }
    inner_scopes.pop();
}

fn resolves_in(scope: &[BindingScope], c: &apuama_sql::ColumnRef) -> bool {
    match &c.table {
        Some(q) => scope.iter().any(|b| &b.name == q),
        None => scope
            .iter()
            .any(|b| b.columns.iter().any(|n| n == &c.column)),
    }
}

fn resolve_name(top: &[BindingScope], c: &apuama_sql::ColumnRef) -> Option<String> {
    match &c.table {
        Some(q) => top.iter().find(|b| &b.name == q).map(|b| b.name.clone()),
        None => top
            .iter()
            .find(|b| b.columns.iter().any(|n| n == &c.column))
            .map(|b| b.name.clone()),
    }
}

/// An equi-join edge between two FROM items: `left_col` on binding
/// `left`, `right_col` on binding `right`.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    pub left: String,
    pub left_expr: Expr,
    pub right: String,
    pub right_expr: Expr,
}

/// Tries to interpret a conjunct as an equi-join between two different
/// bindings.
pub fn as_join_edge(conjunct: &Expr, top: &[BindingScope], catalog: &Catalog) -> Option<JoinEdge> {
    let Expr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = conjunct
    else {
        return None;
    };
    // Each side must reference exactly one binding and contain no subquery.
    let lb = conjunct_bindings(left, top, catalog);
    let rb = conjunct_bindings(right, top, catalog);
    if lb.len() != 1 || rb.len() != 1 || lb == rb {
        return None;
    }
    if has_subquery(left) || has_subquery(right) {
        return None;
    }
    Some(JoinEdge {
        left: lb.into_iter().next().expect("len checked"),
        left_expr: (**left).clone(),
        right: rb.into_iter().next().expect("len checked"),
        right_expr: (**right).clone(),
    })
}

fn has_subquery(e: &Expr) -> bool {
    let mut found = false;
    visit::shallow_walk(e, &mut |x| {
        if matches!(
            x,
            Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_)
        ) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use apuama_sql::{parse_expression, ColumnDef, DataType};

    fn test_table(rows: i64) -> Table {
        let schema = TableSchema::from_ddl(
            0,
            "t",
            &[
                ColumnDef {
                    name: "k".into(),
                    data_type: DataType::Int,
                    not_null: true,
                },
                ColumnDef {
                    name: "v".into(),
                    data_type: DataType::Float,
                    not_null: false,
                },
            ],
            &["k".into()],
            None,
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.bulk_load(
            (0..rows)
                .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
                .collect(),
        )
        .unwrap();
        t
    }

    fn const_eval(e: &Expr) -> Option<Value> {
        match e {
            Expr::Literal(v) => Some(v.clone()),
            _ => None,
        }
    }

    #[test]
    fn unfiltered_scan_prefers_seq() {
        let t = test_table(10_000);
        let c = choose_access_path(&t, "t", &[], true, true, &const_eval);
        assert_eq!(c.path, AccessPath::SeqScan);
    }

    #[test]
    fn narrow_range_prefers_clustered_index() {
        let t = test_table(10_000);
        let pred = parse_expression("k >= 100 and k < 200").unwrap();
        let conjuncts = crate::eval::split_conjuncts(Some(&pred));
        let c = choose_access_path(&t, "t", &conjuncts, true, true, &const_eval);
        match c.path {
            AccessPath::IndexRange {
                column, clustered, ..
            } => {
                assert_eq!(column, 0);
                assert!(clustered);
            }
            other => panic!("expected index range, got {other:?}"),
        }
        assert!(c.estimated_rows < 1_000.0);
    }

    #[test]
    fn disabled_seqscan_forces_index_even_for_wide_range() {
        let t = test_table(10_000);
        // A range covering ~everything: seq scan is genuinely cheaper...
        let pred = parse_expression("k >= 0").unwrap();
        let conjuncts = crate::eval::split_conjuncts(Some(&pred));
        let on = choose_access_path(&t, "t", &conjuncts, true, true, &const_eval);
        // ...but with enable_seqscan = off the index must win (Apuama's
        // interference).
        let off = choose_access_path(&t, "t", &conjuncts, false, true, &const_eval);
        assert_eq!(on.path, AccessPath::SeqScan);
        assert!(matches!(off.path, AccessPath::IndexRange { .. }));
    }

    #[test]
    fn equality_bound_is_point_range() {
        let t = test_table(1_000);
        let pred = parse_expression("k = 42").unwrap();
        let conjuncts = crate::eval::split_conjuncts(Some(&pred));
        let c = choose_access_path(&t, "t", &conjuncts, true, true, &const_eval);
        match c.path {
            AccessPath::IndexRange { low, high, .. } => {
                assert_eq!(low, Bound::Included(Value::Int(42)));
                assert_eq!(high, Bound::Included(Value::Int(42)));
            }
            other => panic!("expected point range, got {other:?}"),
        }
    }

    #[test]
    fn flipped_literal_comparison_extracts_bound() {
        let t = test_table(1_000);
        let pred = parse_expression("10 <= k and 20 > k").unwrap();
        let conjuncts = crate::eval::split_conjuncts(Some(&pred));
        let c = choose_access_path(&t, "t", &conjuncts, true, true, &const_eval);
        match c.path {
            AccessPath::IndexRange { low, high, .. } => {
                assert_eq!(low, Bound::Included(Value::Int(10)));
                assert_eq!(high, Bound::Excluded(Value::Int(20)));
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    /// Two conjuncts on the same value, one inclusive and one exclusive:
    /// both are consumed by the range, so the exclusive one must win
    /// whichever comes first.
    #[test]
    fn equal_valued_bounds_keep_the_exclusive_one() {
        let t = test_table(1_000);
        for (pred, low, high) in [
            (
                "k between 1 and 7 and k < 7",
                Bound::Included(Value::Int(1)),
                Bound::Excluded(Value::Int(7)),
            ),
            (
                "k < 7 and k between 1 and 7",
                Bound::Included(Value::Int(1)),
                Bound::Excluded(Value::Int(7)),
            ),
            (
                "k >= 2 and k > 2 and k <= 7",
                Bound::Excluded(Value::Int(2)),
                Bound::Included(Value::Int(7)),
            ),
            (
                "k > 2 and k >= 2 and k <= 7",
                Bound::Excluded(Value::Int(2)),
                Bound::Included(Value::Int(7)),
            ),
        ] {
            let pred = parse_expression(pred).unwrap();
            let conjuncts = crate::eval::split_conjuncts(Some(&pred));
            let c = choose_access_path(&t, "t", &conjuncts, true, true, &const_eval);
            assert_eq!(c.consumed.len(), conjuncts.len(), "{pred}");
            match c.path {
                AccessPath::IndexRange {
                    low: l, high: h, ..
                } => {
                    assert_eq!(l, low, "{pred}");
                    assert_eq!(h, high, "{pred}");
                }
                other => panic!("expected range for {pred}, got {other:?}"),
            }
        }
    }

    #[test]
    fn subquery_correlation_analysis() {
        let mut catalog = Catalog::new();
        for (id, name, col) in [(0, "a", "x"), (1, "b", "y")] {
            catalog
                .add(
                    TableSchema::from_ddl(
                        id,
                        name,
                        &[ColumnDef {
                            name: col.into(),
                            data_type: DataType::Int,
                            not_null: false,
                        }],
                        &[],
                        None,
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        let subquery = |sql: &str| -> Select {
            match apuama_sql::parse_statement(sql).unwrap() {
                apuama_sql::Statement::Select(s) => s,
                other => panic!("{other:?}"),
            }
        };
        for (sql, uncorrelated) in [
            ("select y from b where y > 3", true),
            ("select y from b where y > $1", true),
            ("select y from b where y in (select x from a)", true),
            ("select y from b where y = x", false),
            ("select y from b where y = a.x", false),
            (
                "select y from b where exists (select 1 from a where x = y)",
                true,
            ),
            (
                "select y from b where exists (select 1 from a where x = z)",
                false,
            ),
            ("select d.y from (select y from b where y = x) d", false),
        ] {
            assert_eq!(
                subquery_is_uncorrelated(&subquery(sql), &catalog),
                uncorrelated,
                "{sql}"
            );
        }
    }

    #[test]
    fn conjunct_bindings_sees_correlation() {
        let mut catalog = Catalog::new();
        catalog
            .add(
                TableSchema::from_ddl(
                    0,
                    "orders",
                    &[ColumnDef {
                        name: "o_orderkey".into(),
                        data_type: DataType::Int,
                        not_null: true,
                    }],
                    &[],
                    None,
                )
                .unwrap(),
            )
            .unwrap();
        catalog
            .add(
                TableSchema::from_ddl(
                    1,
                    "lineitem",
                    &[ColumnDef {
                        name: "l_orderkey".into(),
                        data_type: DataType::Int,
                        not_null: true,
                    }],
                    &[],
                    None,
                )
                .unwrap(),
            )
            .unwrap();
        let q = apuama_sql::parse_statement(
            "select 1 from orders where exists \
             (select 1 from lineitem where l_orderkey = o_orderkey)",
        )
        .unwrap();
        let apuama_sql::Statement::Select(sel) = q else {
            panic!()
        };
        let scopes = scopes_for_from(&sel.from, &catalog);
        let refs = conjunct_bindings(sel.selection.as_ref().unwrap(), &scopes, &catalog);
        // l_orderkey resolves inside the subquery; o_orderkey escapes to the
        // outer orders binding.
        assert_eq!(refs, HashSet::from(["orders".to_string()]));
    }

    #[test]
    fn join_edge_detection() {
        let mut catalog = Catalog::new();
        for (id, name, col) in [(0, "a", "x"), (1, "b", "y")] {
            catalog
                .add(
                    TableSchema::from_ddl(
                        id,
                        name,
                        &[ColumnDef {
                            name: col.into(),
                            data_type: DataType::Int,
                            not_null: false,
                        }],
                        &[],
                        None,
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        let q = apuama_sql::parse_statement("select 1 from a, b where x = y").unwrap();
        let apuama_sql::Statement::Select(sel) = q else {
            panic!()
        };
        let scopes = scopes_for_from(&sel.from, &catalog);
        let edge = as_join_edge(sel.selection.as_ref().unwrap(), &scopes, &catalog).unwrap();
        assert_eq!(edge.left, "a");
        assert_eq!(edge.right, "b");
    }

    #[test]
    fn literal_equals_column_is_not_a_join_edge() {
        let catalog = Catalog::new();
        let e = parse_expression("x = 1").unwrap();
        assert!(as_join_edge(&e, &[], &catalog).is_none());
    }
}
