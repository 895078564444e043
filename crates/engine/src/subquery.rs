//! Subquery evaluation: the compiled semi-/anti-join probe behind
//! `[NOT] EXISTS` over one table, and the per-execution memo that keeps
//! every subquery from being re-analysed (or, when it references no outer
//! column, re-executed) for each outer row.
//!
//! # The probe
//!
//! A correlated single-table `EXISTS` whose predicate contains
//! `inner_indexed_col = outer_expr` is a semi-join by index lookup — the
//! plan PostgreSQL picks for TPC-H Q4 and Q21. [`ExistsProbe`] is that plan,
//! compiled once per statement execution: the inner table, the probe key
//! (index column and outer key operand) when there is one, and the
//! subquery's conjuncts in their written order, each `inner_col <cmp>
//! operand` ([`ProbeConjunct::Cmp`]), a positional program over the inner
//! row ([`ProbeConjunct::Inner`]) or a predicate over the outer side alone
//! ([`ProbeConjunct::Outer`]). Evaluating it is one `OrderedIndex::get`
//! — none when the key equals the previous evaluation's, see [`ProbeMemo`]
//! — plus a handful of comparisons per candidate, each on the candidate's
//! own *cells*: the heap stores columns, and materializing a sixteen-column
//! row per candidate would cost more than the probe. No name resolution,
//! no subquery execution. Without a usable key the same conjuncts run over
//! the heap in row order, still stopping at the first match.
//!
//! **What qualifies** ([`ExistsProbe::build`]): one base table in FROM; no
//! GROUP BY, HAVING, aggregates, ORDER BY or LIMIT; a select list of `*`,
//! literals and inner columns (nothing that could fail or needs a frame);
//! every WHERE conjunct subquery-free and inner-only, outer-only, or a
//! comparison between one inner column and an expression over the outer
//! scopes. The first such comparison, in written order, that is an equality
//! on an indexed column becomes the probe key. Everything else (joins,
//! grouping, nested subqueries, conjuncts mixing both sides any other way)
//! is executed by [`exec::run_select`] with the frame stack, per evaluation.
//!
//! **Semantics** are those of evaluating the subquery's WHERE as one AND
//! chain, conjunct for conjunct: the predicate is evaluated left to right
//! per candidate, stops at the first *false* (not at NULL — `NULL AND
//! <error>` still surfaces the error), and the candidate matches when every
//! conjunct is true. Keyed candidates come from the index bucket in posting
//! order; tombstoned row ids are skipped uncharged. Accounting: one
//! `index_probes` bump per keyed evaluation and one random row fetch per
//! live candidate until the first match; un-keyed, one sequential page
//! charge per page entered and one `rows_scanned` per row until the first
//! match. A key expression that fails to evaluate makes that evaluation
//! un-keyed, which surfaces the error exactly when some inner row reaches
//! that conjunct.
//!
//! There is one probe type. Its outer side — the key operand, the right-hand
//! sides of comparisons, the outer-only conjuncts — is [`CompiledExpr`]s
//! compiled against the [`Scope`] of the expression the `EXISTS` stands in:
//! the operator's row and the frames around it, bound parameters folded in.
//! A probe borrows nothing from the statement's frames and is immutable.
//! What differs between probes is
//! who evaluates them: a top-level `EXISTS` conjunct whose outer side is
//! positional is held by its operator, which keeps a [`ProbeMemo`] for it
//! from row to row; an `EXISTS` anywhere else (under `OR`/`CASE`, in a
//! projection, in DML, reaching into an enclosing frame) is a node of a
//! compiled expression and looks its key up on every evaluation.
//!
//! # The memo
//!
//! [`SubqueryMemo`] lives in the [`ExecContext`] and holds the result of
//! every `IN (subquery)` / scalar subquery that references no outer column,
//! which is therefore computed once per execution instead of once per outer
//! row.
//!
//! Entries are keyed by the subquery node itself. The AST holds subqueries
//! behind an `Arc`, so every compilation of an expression (an operator's own
//! program, a correlated subquery re-run per outer row) still points at the
//! one node, and each entry keeps a handle on its node, so the address
//! cannot be reused while the entry lives: pointer equality is identity.
//! The two subquery kinds have a table each, so a node that some hand-built
//! AST shares between them still gets one entry per kind.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use apuama_sql::ast::{BinOp, Expr, Select, SelectItem, TableRef};
use apuama_sql::value::HashableValue;
use apuama_sql::{visit, Value};
use apuama_storage::{AccessKind, RowId, Segment, TableId};

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, truthiness, CompiledExpr, Frame, Scope};
use crate::exec::{self, Binding, ExecContext, Relation};
use crate::planner;

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

/// One side of a probe comparison.
#[derive(Debug, Clone)]
enum Operand {
    /// Column of the candidate (inner) row.
    Inner(usize),
    Lit(Value),
    /// An expression over the scopes enclosing the subquery, evaluated each
    /// time a candidate reaches it.
    Outer(CompiledExpr),
}

impl Operand {
    /// `inner` reads one cell of the candidate.
    fn value<'r>(
        &'r self,
        inner: impl FnOnce(usize) -> Value,
        row: &'r [Value],
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Cow<'r, Value>> {
        Ok(match self {
            Operand::Inner(i) => Cow::Owned(inner(*i)),
            Operand::Lit(v) => Cow::Borrowed(v),
            Operand::Outer(CompiledExpr::Col(i)) => Cow::Borrowed(&row[*i]),
            Operand::Outer(o) => Cow::Owned(eval::eval_compiled(o, row, outer, ctx)?),
        })
    }
}

/// One WHERE conjunct of the subquery, in its evaluable form.
#[derive(Debug)]
enum ProbeConjunct {
    /// `inner[col] <op> rhs`, normalized so the inner column is on the left.
    Cmp { col: usize, op: BinOp, rhs: Operand },
    /// Any other predicate over the inner row alone, with the columns it
    /// reads (the cells the scratch inner row is filled with).
    Inner {
        prog: CompiledExpr,
        cols: Vec<usize>,
    },
    /// A predicate over the outer scopes alone.
    Outer(CompiledExpr),
}

/// What `EXPLAIN` shows of one probe: the fragment naming its access path
/// and, under `ANALYZE`, its counters.
#[derive(Debug)]
pub(crate) struct ProbeReport {
    /// `lineitem l2 via index(l_orderkey)`, `inner_t i via seq scan`.
    description: String,
    evaluations: AtomicU64,
    candidates: AtomicU64,
    matches: AtomicU64,
}

impl ProbeReport {
    pub(crate) fn describe(&self) -> &str {
        &self.description
    }

    /// `(evaluations, candidates examined, matches)` so far.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            self.evaluations.load(AtomicOrdering::Relaxed),
            self.candidates.load(AtomicOrdering::Relaxed),
            self.matches.load(AtomicOrdering::Relaxed),
        )
    }
}

/// What one probe carries from one evaluation to the next. The probe itself
/// is shared and immutable; this belongs to the operator evaluating it, one
/// per execution, so nothing here outlives a statement (the index it
/// remembers postings of cannot change while the statement holds the
/// database).
#[derive(Debug, Default)]
pub(crate) struct ProbeMemo {
    /// The last key looked up and the postings the index returned for it.
    /// Outer rows arrive clustered on the probe key more often than not
    /// (Q21's `l1` scan: about four rows per `l_orderkey`), and an equal
    /// key then skips the B-tree walk. Equality is `Value`'s own, so a NaN
    /// key never matches and `1` does not stand in for `1.0`.
    key: Option<Value>,
    postings: Vec<RowId>,
    /// Scratch inner row for [`ProbeConjunct::Inner`] programs.
    inner_row: Vec<Value>,
}

/// One empty memo per predicate of a list (see
/// [`crate::physical::keep_row_charged`]).
pub(crate) fn probe_memos(n: usize) -> Vec<ProbeMemo> {
    (0..n).map(|_| ProbeMemo::default()).collect()
}

/// A compiled single-table `EXISTS`: see the module documentation.
#[derive(Debug)]
pub(crate) struct ExistsProbe {
    table: TableId,
    /// Index column and the operand (never [`Operand::Inner`]) looked up in
    /// it; `None` scans the heap.
    key: Option<(usize, Operand)>,
    conjuncts: Vec<ProbeConjunct>,
    report: Arc<ProbeReport>,
}

impl ExistsProbe {
    /// The probe for `query` standing in an expression compiled in `scope`;
    /// `None` when the subquery does not qualify, or there is no execution
    /// to build it for.
    pub(crate) fn build(query: &Select, scope: &Scope<'_>) -> Option<Self> {
        let ctx = scope.ctx?;
        let [TableRef::Table { name, alias }] = query.from.as_slice() else {
            return None;
        };
        if !query.group_by.is_empty()
            || query.having.is_some()
            || !query.order_by.is_empty()
            || query.limit.is_some()
            || exec::select_has_aggregates(query)
        {
            return None;
        }
        let table = ctx.db.table(name)?;
        let inner = exec::bindings_for_table(&table.schema, alias.as_deref());
        // EXISTS ignores what the subquery selects, so the select list only
        // has to be something that cannot fail.
        let harmless = |item: &SelectItem| match item {
            SelectItem::Wildcard
            | SelectItem::Expr {
                expr: Expr::Literal(_),
                ..
            } => true,
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => exec::resolve_column(&inner, c).is_ok(),
            SelectItem::Expr { .. } => false,
        };
        if !query.items.iter().all(harmless) {
            return None;
        }
        // The subquery's aggregates, had it any, would not be the enclosing
        // aggregation's: its outer side sees none.
        let outer_scope = Scope {
            aggs: &[],
            ..*scope
        };
        let inner_scope = Scope::new(&inner, &[], ctx);

        let mut conjuncts = Vec::new();
        let mut key: Option<(usize, Operand)> = None;
        let mut pending: Vec<&Expr> = query.selection.iter().collect();
        while let Some(e) = pending.pop() {
            if let Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } = e
            {
                // Right first onto the stack, so conjuncts pop left to right.
                pending.push(right);
                pending.push(left);
                continue;
            }
            if exec::contains_subquery(e) {
                return None;
            }
            let conjunct = compile_conjunct(e, &inner_scope, &outer_scope, ctx)?;
            // The first equality between an indexed inner column and an
            // outer-side operand is what the probe looks up.
            if let (None, ProbeConjunct::Cmp { col, op, rhs }) = (&key, &conjunct) {
                if *op == BinOp::Eq
                    && !matches!(rhs, Operand::Inner(_))
                    && table.index_on(*col).is_some()
                {
                    key = Some((*col, rhs.clone()));
                }
            }
            conjuncts.push(conjunct);
        }
        let path = match &key {
            Some((col, _)) => format!("index({})", table.schema.columns[*col].name),
            None => "seq scan".to_string(),
        };
        let description = format!(
            "{name}{} via {path}",
            alias.as_ref().map(|a| format!(" {a}")).unwrap_or_default(),
        );
        Some(ExistsProbe {
            table: table.schema.id,
            key,
            conjuncts,
            report: Arc::new(ProbeReport {
                description,
                evaluations: AtomicU64::new(0),
                candidates: AtomicU64::new(0),
                matches: AtomicU64::new(0),
            }),
        })
    }

    /// The probe's outer-side programs.
    fn outer_side(&self) -> impl Iterator<Item = &CompiledExpr> {
        let operands =
            self.key
                .iter()
                .map(|(_, operand)| operand)
                .chain(self.conjuncts.iter().filter_map(|c| match c {
                    ProbeConjunct::Cmp { rhs, .. } => Some(rhs),
                    _ => None,
                }));
        let compared = operands.filter_map(|operand| match operand {
            Operand::Outer(o) => Some(o),
            _ => None,
        });
        compared.chain(self.conjuncts.iter().filter_map(|c| match c {
            ProbeConjunct::Outer(o) => Some(o),
            _ => None,
        }))
    }

    /// Whether the outer side reads nothing but the row it is evaluated on:
    /// the probe an operator can hold for one of its own predicates.
    pub(crate) fn is_positional(&self) -> bool {
        self.outer_side().all(CompiledExpr::is_positional)
    }

    /// Appends every position of the row the outer side reads.
    pub(crate) fn collect_outer_cols(&self, out: &mut Vec<usize>) {
        self.outer_side().for_each(|o| o.collect_cols(out));
    }

    /// Does the subquery return a row for this outer row? Stops at the
    /// first candidate that satisfies every conjunct.
    pub(crate) fn eval(
        &self,
        row: &[Value],
        outer: &[Frame<'_>],
        memo: &mut ProbeMemo,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<bool> {
        let table = ctx.db.table_by_id(self.table);
        let heap = &table.heap;
        // A key that fails to evaluate leaves the error to the conjunct it
        // came from, should a row get that far.
        let keyed = self.key.as_ref().and_then(|(col, operand)| {
            let key = operand
                .value(
                    |_| unreachable!("a probe key is never an inner column"),
                    row,
                    outer,
                    ctx,
                )
                .ok()?;
            Some((*col, key))
        });
        let ProbeMemo {
            key: last_key,
            postings,
            inner_row,
        } = memo;
        let mut examined = 0u64;
        let mut found = false;
        match keyed {
            Some((col, key)) => {
                ctx.bump_index_probes(1);
                if last_key.as_ref() != Some(key.as_ref()) {
                    let idx = table
                        .index_on(col)
                        .expect("probe key built on an indexed column");
                    postings.clear();
                    postings.extend_from_slice(idx.get(&key));
                    *last_key = Some(key.into_owned());
                }
                for &rid in postings.iter() {
                    let Some((seg, slot)) = heap.locate(rid) else {
                        continue; // tombstoned: costs nothing
                    };
                    ctx.charge_row_fetch(table, rid);
                    examined += 1;
                    if self.matches(seg, slot, row, outer, inner_row, ctx)? {
                        found = true;
                        break;
                    }
                }
            }
            None => {
                let mut last_page = u64::MAX;
                for (rid, seg, slot) in heap.live_range(0, heap.slots()) {
                    let page = heap.geometry().page_of(rid);
                    if page != last_page {
                        ctx.charge_page(table.schema.id, page, AccessKind::Sequential);
                        last_page = page;
                    }
                    ctx.bump_rows_scanned(1);
                    examined += 1;
                    if self.matches(seg, slot, row, outer, inner_row, ctx)? {
                        found = true;
                        break;
                    }
                }
            }
        }
        let r = &self.report;
        r.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        r.candidates.fetch_add(examined, AtomicOrdering::Relaxed);
        r.matches.fetch_add(found as u64, AtomicOrdering::Relaxed);
        Ok(found)
    }

    /// The AND chain over one candidate — the tuple at `slot` of `seg`,
    /// read cell by cell: left to right, stop at the first false, keep
    /// going past NULL (so later errors surface).
    fn matches(
        &self,
        seg: &Segment,
        slot: usize,
        row: &[Value],
        outer: &[Frame<'_>],
        inner_row: &mut Vec<Value>,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<bool> {
        let cell = |col: usize| seg.column(col).value_at(slot);
        let mut all_true = true;
        for c in &self.conjuncts {
            let t = match c {
                ProbeConjunct::Cmp { col, op, rhs } => {
                    let l = cell(*col);
                    let r = rhs.value(cell, row, outer, ctx)?;
                    if l.is_null() || r.is_null() {
                        None
                    } else {
                        match l.sql_cmp(&r) {
                            Some(ord) => Some(eval::cmp_matches(*op, ord)),
                            None => {
                                return Err(EngineError::TypeError(format!(
                                    "cannot compare {l} with {r}"
                                )))
                            }
                        }
                    }
                }
                ProbeConjunct::Inner { prog, cols } => {
                    if inner_row.is_empty() {
                        inner_row.resize(seg.width(), Value::Null);
                    }
                    for &col in cols {
                        seg.column(col).read_into(slot, &mut inner_row[col]);
                    }
                    truthiness(&eval::eval_compiled(prog, inner_row, &[], ctx)?)
                }
                ProbeConjunct::Outer(o) => truthiness(&eval::eval_compiled(o, row, outer, ctx)?),
            };
            match t {
                Some(true) => {}
                Some(false) => return Ok(false),
                None => all_true = false,
            }
        }
        Ok(all_true)
    }

    pub(crate) fn report(&self) -> &Arc<ProbeReport> {
        &self.report
    }
}

/// Does any column of `e` (subquery-free) resolve in the inner bindings?
/// `None` when one is ambiguous there — evaluation must report that.
fn mentions_inner(e: &Expr, inner: &[Binding]) -> Option<bool> {
    let mut seen = Some(false);
    visit::shallow_walk(e, &mut |x| {
        if let Expr::Column(c) = x {
            match exec::resolve_column(inner, c) {
                Ok(_) => seen = seen.map(|_| true),
                Err(EngineError::AmbiguousColumn(_)) => seen = None,
                Err(_) => {}
            }
        }
    });
    seen
}

/// Compiles one subquery-free conjunct: a comparison of an inner column
/// with an outer-side expression or another inner column becomes a `Cmp`,
/// any other predicate over one side alone a program for that side, and
/// everything else (`None`) disqualifies the probe.
fn compile_conjunct(
    e: &Expr,
    inner: &Scope<'_>,
    outer: &Scope<'_>,
    ctx: &ExecContext<'_>,
) -> Option<ProbeConjunct> {
    if let Expr::Binary { left, op, right } = e {
        if op.is_comparison() {
            let sides = [
                (left, right, *op),
                (right, left, crate::physical::flip_cmp(*op)),
            ];
            for (a, b, op) in sides {
                let Expr::Column(c) = a.as_ref() else {
                    continue;
                };
                let col = match exec::resolve_column(inner.bindings, c) {
                    Ok(i) => i,
                    Err(EngineError::AmbiguousColumn(_)) => return None,
                    Err(_) => continue,
                };
                if mentions_inner(b, inner.bindings)? {
                    continue;
                }
                // A column-free side that evaluates is a constant; one that
                // fails keeps failing lazily, on the candidate that reaches
                // it.
                let b = eval::compile_expr(b, outer);
                let rhs = match b.constant(ctx) {
                    Some(v) => Operand::Lit(v),
                    None => Operand::Outer(b),
                };
                return Some(ProbeConjunct::Cmp { col, op, rhs });
            }
        }
    }
    if !mentions_inner(e, inner.bindings)? && exec::expr_has_columns(e) {
        return Some(ProbeConjunct::Outer(eval::compile_expr(e, outer)));
    }
    // What is left has to be a predicate over the inner row alone.
    let compiled = eval::compile_expr(e, inner);
    if !compiled.is_positional() {
        return None;
    }
    if let CompiledExpr::Binary { left, op, right } = &compiled {
        if let (true, CompiledExpr::Col(l), CompiledExpr::Col(r)) =
            (op.is_comparison(), left.as_ref(), right.as_ref())
        {
            return Some(ProbeConjunct::Cmp {
                col: *l,
                op: *op,
                rhs: Operand::Inner(*r),
            });
        }
    }
    let mut cols = Vec::new();
    compiled.collect_cols(&mut cols);
    Some(ProbeConjunct::Inner {
        prog: compiled,
        cols,
    })
}

// ---------------------------------------------------------------------------
// Executed subqueries and their memo
// ---------------------------------------------------------------------------

/// A subquery node that is executed: the statement, and the names of the
/// row it stands in — which becomes the statement's innermost enclosing
/// frame.
#[derive(Debug, Clone)]
pub(crate) struct Subquery {
    query: Arc<Select>,
    bindings: Arc<[Binding]>,
}

impl Subquery {
    pub(crate) fn new(query: &Arc<Select>, scope: &Scope<'_>) -> Self {
        Subquery {
            query: query.clone(),
            bindings: scope.bindings.into(),
        }
    }

    /// Executes the statement for the current row.
    pub(crate) fn run(
        &self,
        row: &[Value],
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Relation> {
        let mut frames = Vec::with_capacity(outer.len() + 1);
        frames.push(Frame {
            bindings: &self.bindings,
            row,
        });
        frames.extend_from_slice(outer);
        exec::run_select(&self.query, &frames, ctx)
    }
}

/// The distinct values of an `IN (subquery)` column plus whether a NULL
/// appeared (SQL's NOT IN trap).
pub(crate) type ValueSet = (HashSet<HashableValue>, bool);

/// Per-execution state of subquery nodes of one kind, keyed by node
/// address. Each entry holds its node, which pins the address.
struct NodeMemo<T> {
    entries: RefCell<HashMap<usize, (Arc<Select>, T)>>,
}

impl<T> Default for NodeMemo<T> {
    fn default() -> Self {
        NodeMemo {
            entries: RefCell::new(HashMap::new()),
        }
    }
}

impl<T: Clone> NodeMemo<T> {
    /// Cloned out, so the memo is not borrowed while the subquery runs.
    fn get(&self, node: &Arc<Select>) -> Option<T> {
        let entries = self.entries.borrow();
        entries
            .get(&(Arc::as_ptr(node) as usize))
            .map(|(_, state)| state.clone())
    }

    fn set(&self, node: &Arc<Select>, state: T) {
        self.entries
            .borrow_mut()
            .insert(Arc::as_ptr(node) as usize, (node.clone(), state));
    }
}

/// Per-execution subquery state; see the module documentation.
#[derive(Default)]
pub(crate) struct SubqueryMemo {
    /// `None`: the subquery references an outer column, nothing to reuse.
    /// An uncorrelated one is entered by its first successful evaluation.
    sets: NodeMemo<Option<Arc<ValueSet>>>,
    scalars: NodeMemo<Option<Value>>,
}

/// Runs `compute` once per execution when the subquery references no
/// column of an enclosing scope (its result is then the same for every
/// outer row), once per evaluation otherwise.
fn once_if_uncorrelated<T: Clone>(
    memo: &NodeMemo<Option<T>>,
    query: &Arc<Select>,
    ctx: &ExecContext<'_>,
    compute: impl FnOnce() -> EngineResult<T>,
) -> EngineResult<T> {
    match memo.get(query) {
        Some(Some(done)) => return Ok(done),
        Some(None) => return compute(),
        None => {}
    }
    if !planner::subquery_is_uncorrelated(query, ctx.db.catalog()) {
        memo.set(query, None);
        return compute();
    }
    let result = compute()?;
    memo.set(query, Some(result.clone()));
    Ok(result)
}

/// The value set of an `IN (subquery)`: its (single) output column.
pub(crate) fn in_subquery_values(
    sub: &Subquery,
    row: &[Value],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Arc<ValueSet>> {
    once_if_uncorrelated(&ctx.subqueries().sets, &sub.query, ctx, || {
        let rel = sub.run(row, outer, ctx)?;
        let mut set = HashSet::with_capacity(rel.rows.len());
        let mut saw_null = false;
        for row in &rel.rows {
            if row.len() != 1 {
                return Err(EngineError::TypeError(
                    "IN subquery must return one column".into(),
                ));
            }
            if row[0].is_null() {
                saw_null = true;
            } else {
                set.insert(row[0].hash_key());
            }
        }
        Ok(Arc::new((set, saw_null)))
    })
}

/// The value of a scalar subquery.
pub(crate) fn scalar_subquery(
    sub: &Subquery,
    row: &[Value],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    once_if_uncorrelated(&ctx.subqueries().scalars, &sub.query, ctx, || {
        let mut rel = sub.run(row, outer, ctx)?;
        match rel.rows.len() {
            0 => Ok(Value::Null),
            1 => {
                let mut row = rel.rows.pop().expect("len checked");
                if row.len() != 1 {
                    return Err(EngineError::TypeError(
                        "scalar subquery must return one column".into(),
                    ));
                }
                Ok(row.pop().expect("len checked"))
            }
            _ => Err(EngineError::TypeError(
                "scalar subquery returned more than one row".into(),
            )),
        }
    })
}
