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
//! no [`Frame`] stack. Without a usable key the same conjuncts run over
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
//! is executed by [`exec::run_select`] with the frame stack, unchanged.
//!
//! **Semantics** are the framed interpreter's, conjunct for conjunct: the
//! predicate is evaluated left to right per candidate, stops at the first
//! *false* (not at NULL — `NULL AND <error>` still surfaces the error), and
//! the candidate matches when every conjunct is true. Keyed candidates come
//! from the index bucket in posting order; tombstoned row ids are skipped
//! uncharged. Accounting is the interpreter's too: one `index_probes` bump
//! per keyed evaluation and one random row fetch per live candidate until
//! the first match; un-keyed, one sequential page charge per page entered
//! and one `rows_scanned` per row until the first match. A key expression
//! that fails to evaluate makes that evaluation un-keyed, which surfaces
//! the error exactly when some inner row reaches that conjunct.
//!
//! A probe borrows nothing from the statement's frames. Its outer side is
//! an [`OuterSide`]: positional programs over the operator's own row
//! ([`RowProbe`], built at `open`), or expressions resolved through the
//! frame stack each evaluation hands it (the memo's form, reached from
//! [`eval::eval_expr`]) — the probe type says which, so an operand can only
//! ever meet the environment it was compiled for. A probe is immutable, so
//! it would be safe to evaluate on morsel workers; scans carrying subquery
//! predicates are still kept serial today.
//!
//! # The memo
//!
//! [`SubqueryMemo`] lives in the [`ExecContext`]. It holds the probe (or
//! the fact that the subquery does not qualify) for every `EXISTS` reached
//! through the framed evaluator — under `OR`/`CASE`, in a projection, in
//! DML — and the result of every `IN (subquery)` / scalar subquery that
//! references no outer column, which is therefore computed once per
//! execution instead of once per outer row.
//!
//! Entries are keyed by the subquery node itself. The AST holds subqueries
//! behind an `Arc`, so every clone of an expression (aggregate substitution
//! per group, an operator's own copy of its predicates) still points at the
//! one node, and each entry keeps a handle on its node, so the address
//! cannot be reused while the entry lives: pointer equality is identity.
//! The three subquery kinds have a table each, so a node that some
//! hand-built AST shares between two kinds still gets one entry per kind.

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
use crate::eval::{self, eval_expr, truthiness, CompiledExpr, Frame};
use crate::exec::{self, Binding, ExecContext};
use crate::planner;

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

/// An expression over the scopes enclosing the subquery (no inner column,
/// no subquery), in the form one kind of caller can evaluate.
pub(crate) trait OuterSide: Sized {
    /// What the caller has in hand for the current outer row.
    type Env<'r>: Copy
    where
        Self: 'r;

    fn value<'r>(
        &'r self,
        env: Self::Env<'r>,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Cow<'r, Value>>;
}

/// Operator form: a positional program over the operator's own row, bound
/// parameters folded in.
impl OuterSide for CompiledExpr {
    type Env<'r> = &'r [Value];

    fn value<'r>(
        &'r self,
        row: &'r [Value],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Cow<'r, Value>> {
        Ok(match self {
            CompiledExpr::Col(i) => Cow::Borrowed(&row[*i]),
            CompiledExpr::Lit(v) => Cow::Borrowed(v),
            other => Cow::Owned(eval::eval_compiled(other, row, ctx)?),
        })
    }
}

/// Memo form: resolved by name through whatever frame stack the evaluation
/// arrives with, because the memo cannot know the callers' row layouts.
impl OuterSide for Expr {
    type Env<'r> = &'r [Frame<'r>];

    fn value<'r>(
        &'r self,
        frames: &'r [Frame<'r>],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Cow<'r, Value>> {
        Ok(Cow::Owned(eval_expr(self, frames, ctx)?))
    }
}

/// One side of a probe comparison.
#[derive(Debug, Clone)]
enum Operand<O> {
    /// Column of the candidate (inner) row.
    Inner(usize),
    Lit(Value),
    /// Evaluated each time a candidate reaches it, as the interpreter did.
    Outer(O),
}

impl<O: OuterSide> Operand<O> {
    /// `inner` reads one cell of the candidate.
    fn value<'r>(
        &'r self,
        inner: impl FnOnce(usize) -> Value,
        outer: O::Env<'r>,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Cow<'r, Value>> {
        match self {
            Operand::Inner(i) => Ok(Cow::Owned(inner(*i))),
            Operand::Lit(v) => Ok(Cow::Borrowed(v)),
            Operand::Outer(o) => o.value(outer, ctx),
        }
    }
}

/// One WHERE conjunct of the subquery, in its evaluable form.
#[derive(Debug)]
enum ProbeConjunct<O> {
    /// `inner[col] <op> rhs`, normalized so the inner column is on the left.
    Cmp {
        col: usize,
        op: BinOp,
        rhs: Operand<O>,
    },
    /// Any other predicate over the inner row alone, with the columns it
    /// reads (the cells the scratch inner row is filled with).
    Inner {
        prog: CompiledExpr,
        cols: Vec<usize>,
    },
    /// A predicate over the outer scopes alone.
    Outer(O),
}

/// How the builder turns an outer-side expression into the probe's form;
/// `None` disqualifies the probe in that form.
type CompileOuter<'f, O> = &'f dyn Fn(&Expr) -> Option<O>;

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
pub(crate) struct ExistsProbe<O> {
    table: TableId,
    /// Index column and the operand (never [`Operand::Inner`]) looked up in
    /// it; `None` scans the heap.
    key: Option<(usize, Operand<O>)>,
    conjuncts: Vec<ProbeConjunct<O>>,
    report: Arc<ProbeReport>,
}

/// The probe an operator holds for one of its own predicates.
pub(crate) type RowProbe = ExistsProbe<CompiledExpr>;
/// The probe the memo holds for a node the framed evaluator reaches.
pub(crate) type FramedProbe = ExistsProbe<Expr>;

impl RowProbe {
    /// `None` when the subquery does not qualify or an outer operand
    /// reaches past `bindings` into an enclosing frame — the predicate then
    /// stays framed and is served by the memo's probe.
    pub(crate) fn for_row(
        query: &Select,
        bindings: &[Binding],
        ctx: &ExecContext<'_>,
    ) -> Option<RowProbe> {
        Self::build(query, ctx, &|e| {
            Some(eval::prebind_params(&eval::compile_expr(e, bindings)?, ctx))
        })
    }

    /// Appends every position of the operator's row the probe reads.
    pub(crate) fn collect_outer_cols(&self, out: &mut Vec<usize>) {
        let operands =
            self.key
                .iter()
                .map(|(_, operand)| operand)
                .chain(self.conjuncts.iter().filter_map(|c| match c {
                    ProbeConjunct::Cmp { rhs, .. } => Some(rhs),
                    _ => None,
                }));
        for operand in operands {
            if let Operand::Outer(o) = operand {
                o.collect_cols(out);
            }
        }
        for c in &self.conjuncts {
            if let ProbeConjunct::Outer(o) = c {
                o.collect_cols(out);
            }
        }
    }
}

impl<O: OuterSide + Clone> ExistsProbe<O> {
    fn build(
        query: &Select,
        ctx: &ExecContext<'_>,
        compile_outer: CompileOuter<'_, O>,
    ) -> Option<Self> {
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
            SelectItem::Wildcard => true,
            SelectItem::Expr { expr, .. } => matches!(
                eval::compile_expr(expr, &inner),
                Some(CompiledExpr::Col(_) | CompiledExpr::Lit(_))
            ),
        };
        if !query.items.iter().all(harmless) {
            return None;
        }

        let mut conjuncts = Vec::new();
        let mut key: Option<(usize, Operand<O>)> = None;
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
            let conjunct = compile_conjunct(e, &inner, ctx, compile_outer)?;
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

    /// Does the subquery return a row for this outer row? Stops at the
    /// first candidate that satisfies every conjunct.
    pub(crate) fn eval<'r>(
        &'r self,
        outer: O::Env<'r>,
        memo: &mut ProbeMemo,
        ctx: &'r ExecContext<'_>,
    ) -> EngineResult<bool> {
        let table = ctx.db.table_by_id(self.table);
        let heap = &table.heap;
        // A key that fails to evaluate leaves the error to the conjunct it
        // came from, should a row get that far.
        let keyed = self.key.as_ref().and_then(|(col, operand)| {
            let key = operand
                .value(
                    |_| unreachable!("a probe key is never an inner column"),
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
                        continue; // tombstoned: costs nothing, as in the interpreter
                    };
                    ctx.charge_row_fetch(table, rid);
                    examined += 1;
                    if self.matches(seg, slot, outer, inner_row, ctx)? {
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
                    if self.matches(seg, slot, outer, inner_row, ctx)? {
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

    /// The interpreter's AND chain over one candidate — the tuple at `slot`
    /// of `seg`, read cell by cell: left to right, stop at the first false,
    /// keep going past NULL (so later errors surface).
    fn matches<'r>(
        &'r self,
        seg: &Segment,
        slot: usize,
        outer: O::Env<'r>,
        inner_row: &mut Vec<Value>,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<bool> {
        let cell = |col: usize| seg.column(col).value_at(slot);
        let mut all_true = true;
        for c in &self.conjuncts {
            let t = match c {
                ProbeConjunct::Cmp { col, op, rhs } => {
                    let l = cell(*col);
                    let r = rhs.value(cell, outer, ctx)?;
                    if l.is_null() || r.is_null() {
                        None
                    } else {
                        match l.sql_cmp(&r) {
                            Some(ord) => Some(crate::physical::cmp_matches(*op, ord)),
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
                    truthiness(&eval::eval_compiled(prog, inner_row, ctx)?)
                }
                ProbeConjunct::Outer(o) => truthiness(o.value(outer, ctx)?.as_ref()),
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
/// `None` when one is ambiguous there — the interpreter must report that.
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
fn compile_conjunct<O>(
    e: &Expr,
    inner: &[Binding],
    ctx: &ExecContext<'_>,
    compile_outer: CompileOuter<'_, O>,
) -> Option<ProbeConjunct<O>> {
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
                let col = match exec::resolve_column(inner, c) {
                    Ok(i) => i,
                    Err(EngineError::AmbiguousColumn(_)) => return None,
                    Err(_) => continue,
                };
                if mentions_inner(b, inner)? {
                    continue;
                }
                // A column-free side that evaluates is a constant; one that
                // fails keeps failing lazily, where the interpreter did.
                let rhs = match (b.as_ref(), exec::expr_has_columns(b)) {
                    (Expr::Literal(v), _) => Operand::Lit(v.clone()),
                    (_, false) => match eval_expr(b, &[], ctx) {
                        Ok(v) => Operand::Lit(v),
                        Err(_) => Operand::Outer(compile_outer(b)?),
                    },
                    (_, true) => Operand::Outer(compile_outer(b)?),
                };
                return Some(ProbeConjunct::Cmp { col, op, rhs });
            }
        }
    }
    if !mentions_inner(e, inner)? && exec::expr_has_columns(e) {
        return Some(ProbeConjunct::Outer(compile_outer(e)?));
    }
    let compiled = eval::prebind_params(&eval::compile_expr(e, inner)?, ctx);
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
// Memo
// ---------------------------------------------------------------------------

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
    /// `None`: the subquery does not qualify for a probe.
    probes: NodeMemo<Option<Arc<FramedProbe>>>,
    /// `None`: the subquery references an outer column, nothing to reuse.
    /// An uncorrelated one is entered by its first successful evaluation.
    sets: NodeMemo<Option<Arc<ValueSet>>>,
    scalars: NodeMemo<Option<Value>>,
}

/// The memo's probe for an `EXISTS` node, built on first use; `None` when
/// the subquery does not qualify.
pub(crate) fn memoized_probe(
    query: &Arc<Select>,
    ctx: &ExecContext<'_>,
) -> Option<Arc<FramedProbe>> {
    let memo = &ctx.subqueries().probes;
    if let Some(known) = memo.get(query) {
        return known;
    }
    // Load-bearing clone: each outer operand once per node per execution.
    let probe = FramedProbe::build(query, ctx, &|e| Some(e.clone())).map(Arc::new);
    memo.set(query, probe.clone());
    probe
}

/// Evaluates `EXISTS (subquery)` for the current frame stack: through the
/// memoized probe when the subquery qualifies, by full execution otherwise.
pub(crate) fn eval_exists(
    query: &Arc<Select>,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<bool> {
    match memoized_probe(query, ctx) {
        // No operator owns this evaluation, so nothing is remembered from
        // one to the next: every call looks its key up.
        Some(probe) => probe.eval(frames, &mut ProbeMemo::default(), ctx),
        None => Ok(!exec::run_select(query, frames, ctx)?.rows.is_empty()),
    }
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

/// The value set of an `IN (subquery)`.
pub(crate) fn in_subquery_values(
    query: &Arc<Select>,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Arc<ValueSet>> {
    once_if_uncorrelated(&ctx.subqueries().sets, query, ctx, || {
        Ok(Arc::new(value_set(query, frames, ctx)?))
    })
}

/// The value of a scalar subquery.
pub(crate) fn scalar_subquery(
    query: &Arc<Select>,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    once_if_uncorrelated(&ctx.subqueries().scalars, query, ctx, || {
        scalar_value(query, frames, ctx)
    })
}

/// Executes an IN-subquery and collects its (single) output column.
fn value_set(
    query: &Select,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<ValueSet> {
    let rel = exec::run_select(query, frames, ctx)?;
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
    Ok((set, saw_null))
}

fn scalar_value(
    query: &Select,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    let mut rel = exec::run_select(query, frames, ctx)?;
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
}
