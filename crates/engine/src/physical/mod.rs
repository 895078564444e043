//! The batch-at-a-time physical operator pipeline.
//!
//! The planner lowers every SELECT to a [`PhysicalPlan`]: a tree of
//! operators (`SeqScan`/`IndexRangeScan`, `Filter`, `Project`, `HashJoin`,
//! `HashAggregate`, `Sort`, `Limit`, `Distinct`) each implementing
//! [`Operator::next_batch`] over [`RowBatch`]es of up to
//! [`exec::SCAN_BATCH_ROWS`] rows. One executor serves every shape, and
//! each operator has one `next_batch` body, over programs compiled once at
//! `open` ([`crate::eval::compile_expr`], which never fails) — or once at
//! lowering, where no execution is needed ([`FusedPlan`], a cached plan's
//! [`CompiledSource`]): there is no
//! interpreted arm beside it. What such an arm would stand for is carried
//! by the program instead — one that evaluates a subquery
//! ([`CompiledExpr::has_subquery`]) is not vectorized, is handed the whole
//! row, and keeps its scan page-grained; a stage whose expressions hold a
//! subquery is a pipeline breaker. The old fused
//! aggregation kernel survives as the scan→filter→aggregate *fusion rule*
//! applied during lowering ([`Shape::Fused`]), so `SET enable_kernel`
//! toggles a plan rewrite, not a second executor, and there is no
//! "unsupported shape" fallback left to take. What the aggregating operators
//! accumulate into — `Acc`, the `Groups` table, the merge of two partial
//! aggregates — is [`crate::agg`]'s, shared with, above the engine, the
//! cluster's result composer. Every operator runs on the thread that sent
//! the statement (DESIGN.md §12): the cluster's sub-queries are the only
//! intra-query split.
//!
//! # What is fixed, and what is only consistent
//!
//! **Rows and error classes are fixed forever**: every path answers a
//! statement with the rows (order and float bits included) and the error
//! class the row-at-a-time interpreter this module replaced gave it.
//! **[`crate::ExecStats`] counters must agree across `enable_kernel` at
//! HEAD** — the simulator prices from them, and the property suites compare
//! the fused rule against the general tree counter by counter — but they
//! are no longer pinned to the interpreter's values: a change that legitimately lowers one
//! re-records the affected EXPERIMENTS.md tables and
//! `ci/olap_power_smoke.counters` in the same change (DESIGN.md §10).
//! One statement shape has moved so far — a join block with a subquery
//! conjunct on one of its inputs (Q21; third bullet) — and a planner change
//! that moves which input drives also moves *unordered* row order and float
//! association for that shape, which DESIGN.md §10 records. Everywhere else
//! the counters still equal the interpreter's, because:
//!
//! * **Charging contracts were ported verbatim** — each operator charges the
//!   same counters in the same per-row pattern the interpreter did (scan
//!   pages once per page change, `cpu_tuple_ops` before each predicate
//!   evaluation, one `n·log n` charge per sort, ...). Totals are sums, so
//!   batching never changes them — nor does running a scan's leading
//!   predicates predicate-major over stored column slices, which charges
//!   each one `sel.len()` ([`columns`] has the argument).
//! * **Pipeline breakers are explicit.** Streaming an operator is
//!   order-safe only when its per-row expressions are subquery-free: then
//!   the only interleaved charges are CPU counters, which commute. An
//!   expression containing a subquery can touch buffer-pool pages, and the
//!   pool's LRU makes the hit/miss *order* observable — so subquery-bearing
//!   `Filter`/`Project`/`Aggregate` stages materialize their input first,
//!   which is exactly when the interpreter evaluated them. `Sort` and
//!   `Limit` are always breakers (the interpreter never terminated a scan
//!   early).
//! * **Join inputs are read in FROM order, to their selections, before
//!   anything is joined** — the interpreter's phases, and the reason a
//!   join's page touches and counters do not depend on the join order. A
//!   base-table input is read to the `(segment, slots)` survivors of its
//!   pushed-down conjuncts ([`ScanExec::select`]): every page charge and
//!   counter of the scan, no `Value` built. That is the count the greedy
//!   order needs. The largest input then *drives*: its tuples stream from
//!   the segments through one [`JoinExec`] hash table per other input, and
//!   only what leaves the last step becomes rows. The other inputs are
//!   materialized in the columns they *keep*, which is narrower than what
//!   they read: lowering records, by name, every column anything other than
//!   the input's own pushed-down conjuncts can resolve to
//!   ([`input_columns`]). Everything downstream — join keys, post-filters,
//!   the aggregate's representative row, memory charges — resolves columns
//!   by name against the bindings it is handed, so it is narrower without
//!   knowing why. By name, because a plan outlives the catalog it was
//!   lowered against and an unqualified name has to stay ambiguous when
//!   two inputs carry it. A pushed-down conjunct that evaluates a subquery
//!   is the exception to "before anything is joined": in a block of two or
//!   more inputs it runs where the fewest tuples reach it — behind the
//!   joins that cannot expand the stream when its input drives, over the
//!   selection before it is materialized otherwise (DESIGN.md §10) — so a
//!   statement with one (Q21) touches its probe pages after every scan's,
//!   not between them.
//!
//! The accepted divergences are about *errors*: the streaming pipeline
//! may surface a projection error from an early batch before a scan error
//! from a later row, where the interpreter would surface the scan error
//! first — which error wins can differ; successful results and their
//! statistics never do — and an error only a tuple the joins eliminate
//! would have raised in a relocated subquery conjunct no longer surfaces.

use std::borrow::Cow;

use apuama_sql::ast::{ColumnRef, Expr, Select, SelectItem, SetQuantifier, TableRef};
use apuama_sql::visit;
use apuama_storage::TableId;

use crate::agg::{self, AggSpec};
use crate::db::Database;
use crate::error::EngineResult;
use crate::eval::{self, CompiledExpr, Frame, Scope};
use crate::exec::{self, Binding, ExecContext, Relation};
use crate::planner::{self};

mod batch;
mod columns;
mod compile;
mod explain;
mod operators;

pub(crate) use batch::*;
pub(crate) use columns::*;
pub(crate) use compile::*;
pub(crate) use explain::*;
pub(crate) use operators::*;
// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// A lowered SELECT: the original statement plus the operator shape the
/// planner chose for it. Cached plans store this tree; the access path of
/// each scan is still chosen per execution from the actual bound values.
#[derive(Debug, Clone)]
pub(crate) struct PhysicalPlan {
    pub(crate) select: Select,
    pub(crate) shape: Shape,
}

/// The two lowering outcomes: the fused scan→filter→aggregate pipeline
/// (the old kernel, now a rewrite rule) or the general operator tree.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    Fused(FusedPlan),
    General(GeneralPlan),
}

/// General shape: one node per FROM item, the equi-join edges between
/// them, and the residual (post-join) predicates with the scope names each
/// one needs.
#[derive(Debug, Clone)]
pub(crate) struct GeneralPlan {
    inputs: Vec<InputNode>,
    edges: Vec<planner::JoinEdge>,
    post: Vec<(Expr, Vec<String>)>,
    aggregated: bool,
    /// A lone base-table input compiled at lowering ([`compile_source`]);
    /// `None` leaves its scan and projection to compile at `open`.
    source: Option<Box<CompiledSource>>,
}

/// The general tree's single-table source compiled once, at lowering, the
/// way the fusion rule compiles its plan: against the table alone, with no
/// execution in hand, bound values folded per execution
/// ([`eval::prebind_params`]). What is left to `open` is the access path,
/// chosen from the values bound, and the residual list it leaves.
#[derive(Debug, Clone)]
pub(crate) struct CompiledSource {
    pub(crate) scan: CompiledScan,
    /// The projection over the scan's rows; `None` for an aggregation, or
    /// a select list or ORDER BY that reaches past the row.
    pub(crate) project: Option<CompiledProject>,
}

/// A base-table scan's bindings and conjunct programs, resolved at
/// lowering.
#[derive(Debug, Clone)]
pub(crate) struct CompiledScan {
    pub(crate) table: TableId,
    /// Cells of the table's row: what the conjunct programs index.
    pub(crate) width: usize,
    /// Kept column positions, when the output is narrower than the table.
    pub(crate) cols: Option<Vec<usize>>,
    pub(crate) out_bindings: Vec<Binding>,
    /// One program per pushed-down conjunct, aligned with the input's
    /// `single`.
    pub(crate) single: Vec<CompiledExpr>,
    /// The access path's shape — which index, which operands bound it —
    /// left to value per execution; `None` chooses it afresh each time.
    pub(crate) access: Option<planner::AccessShape>,
}

/// A projection's output and programs, resolved at lowering against the
/// scan's output row.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProject {
    pub(crate) out_bindings: Vec<Binding>,
    pub(crate) items: Vec<ItemProg>,
    pub(crate) order: Vec<OrderKeyProg>,
}

/// One FROM item with its pushed-down single-scope conjuncts.
#[derive(Debug, Clone)]
pub(crate) enum InputNode {
    Table {
        name: String,
        alias: Option<String>,
        single: Vec<Expr>,
        /// The column names the rest of the statement can read from this
        /// input (see [`input_columns`]). `None` — a top-level `*` —
        /// keeps whole rows.
        keep: Option<Vec<String>>,
    },
    Derived {
        alias: String,
        plan: Box<PhysicalPlan>,
        single: Vec<Expr>,
    },
}

impl InputNode {
    fn scope_name(&self) -> &str {
        match self {
            InputNode::Table { name, alias, .. } => alias.as_deref().unwrap_or(name),
            InputNode::Derived { alias, .. } => alias,
        }
    }
}

/// The fusion rule's compiled form: a single-table aggregation whose
/// predicates, group-by keys, and aggregate arguments are pre-resolved to
/// positional programs. Built once at lowering, reused across executions.
#[derive(Debug, Clone)]
pub(crate) struct FusedPlan {
    table: String,
    binding_name: String,
    bindings: Vec<Binding>,
    /// Single-table conjuncts in classification order — the planner input.
    single: Vec<Expr>,
    compiled_single: Vec<CompiledExpr>,
    /// Conjuncts the general path would defer to post-filters (constant or
    /// parameter-only predicates), applied after the single-table ones.
    compiled_post: Vec<CompiledExpr>,
    specs: Vec<AggSpec>,
    /// Compiled aggregate arguments, aligned with `specs`; `None` for
    /// `count(*)` and argument-less specs.
    agg_args: Vec<Option<CompiledExpr>>,
    group_by: Vec<CompiledExpr>,
}

/// Lowers a SELECT to its physical shape. Infallible by design: unknown
/// tables and other execution-time errors surface when the tree is opened,
/// exactly where the interpreter surfaced them.
///
/// This is the plan cache's lowering: the plan runs again for every bound
/// execution, so the general tree's single-table source is compiled here
/// too ([`CompiledSource`]).
pub(crate) fn lower(q: Select, db: &Database, kernel_on: bool) -> PhysicalPlan {
    lower_plan(q, db, kernel_on, true)
}

/// The shape of a statement lowered to run once — an uncached read, a
/// subquery, `EXPLAIN` — whose general tree compiles at `open`.
pub(crate) fn lower_shape(q: &Select, db: &Database, kernel_on: bool) -> Shape {
    lower_shape_for(q, db, kernel_on, false)
}

/// `cached`: compile the general tree's single-table source at lowering.
fn lower_plan(q: Select, db: &Database, kernel_on: bool, cached: bool) -> PhysicalPlan {
    PhysicalPlan {
        shape: lower_shape_for(&q, db, kernel_on, cached),
        // The plan owns its statement so the plan cache can keep it past
        // the parse.
        select: q,
    }
}

fn lower_shape_for(q: &Select, db: &Database, kernel_on: bool, cached: bool) -> Shape {
    if kernel_on {
        if let Some(f) = compile_fused(q, db) {
            return Shape::Fused(f);
        }
    }
    Shape::General(lower_general(q, db, kernel_on, cached))
}

/// The general lowering: classify WHERE conjuncts against the FROM scopes
/// (single-scope → pushed into that scan, equality across two scopes → a
/// join edge, the rest → post-filters) and lower derived tables
/// recursively.
fn lower_general(q: &Select, db: &Database, kernel_on: bool, cached: bool) -> GeneralPlan {
    let catalog = db.catalog();
    let scopes = planner::scopes_for_from(&q.from, catalog);

    let conjuncts = eval::split_conjuncts(q.selection.as_ref());
    let mut single: Vec<Vec<Expr>> = vec![Vec::new(); q.from.len()];
    let mut edges: Vec<planner::JoinEdge> = Vec::new();
    let mut post: Vec<(Expr, Vec<String>)> = Vec::new();
    for c in conjuncts {
        let refs = planner::conjunct_bindings(&c, &scopes, catalog);
        if refs.len() == 1 {
            let name = refs.iter().next().expect("len checked");
            let idx = scopes
                .iter()
                .position(|s| &s.name == name)
                .expect("binding came from scopes");
            single[idx].push(c);
        } else if let Some(edge) = planner::as_join_edge(&c, &scopes, catalog) {
            edges.push(edge);
        } else {
            post.push((c, refs.into_iter().collect()));
        }
    }
    // Evaluate subquery-bearing residuals last within each scan.
    for list in &mut single {
        list.sort_by_key(exec::contains_subquery);
    }

    let used = input_columns(q, &edges, &post);
    let inputs: Vec<InputNode> = q
        .from
        .iter()
        .zip(single)
        .map(|(item, single)| match item {
            TableRef::Table { name, alias } => InputNode::Table {
                keep: used.as_ref().map(|used| {
                    let scope = alias.as_deref().unwrap_or(name);
                    let mut keep: Vec<String> = used
                        .iter()
                        .filter(|c| c.table.as_deref().is_none_or(|t| t == scope))
                        .map(|c| c.column.clone())
                        .collect();
                    keep.sort_unstable();
                    keep.dedup();
                    keep
                }),
                name: name.clone(),
                alias: alias.clone(),
                single,
            },
            TableRef::Subquery { query, alias } => InputNode::Derived {
                alias: alias.clone(),
                plan: Box::new(lower_plan(query.as_ref().clone(), db, kernel_on, cached)),
                single,
            },
        })
        .collect();

    let aggregated = !q.group_by.is_empty() || exec::select_has_aggregates(q);
    let source = match inputs.as_slice() {
        [input] if cached => compile_source(q, input, aggregated, db).map(Box::new),
        _ => None,
    };
    GeneralPlan {
        inputs,
        edges,
        post,
        aggregated,
        source,
    }
}

/// Compiles a lone base-table input — and, unless the statement
/// aggregates, the projection above it — for [`CompiledSource`]. Every
/// program must be positional ([`CompiledExpr::is_positional`]): one that
/// evaluates a subquery, reads an enclosing frame or carries a name error
/// needs the execution it runs in, so the whole source then keeps compiling
/// at `open`. A positional program resolves every name against its own row,
/// which the frames around an execution cannot shadow, so it is the program
/// `open` would compile, parameters aside.
fn compile_source(
    q: &Select,
    input: &InputNode,
    aggregated: bool,
    db: &Database,
) -> Option<CompiledSource> {
    let InputNode::Table {
        name,
        alias,
        single,
        keep,
    } = input
    else {
        return None;
    };
    let table = db.table(name)?;
    let bindings = exec::bindings_for_table(&table.schema, alias.as_deref());
    let scope = Scope {
        bindings: &bindings,
        outer: &[],
        aggs: &[],
        ctx: None,
    };
    let positional = |e: &Expr, scope: &Scope<'_>| {
        Some(eval::compile_expr(e, scope)).filter(CompiledExpr::is_positional)
    };
    let compiled_single = (single.iter())
        .map(|e| positional(e, &scope))
        .collect::<Option<Vec<_>>>()?;
    let no_row = Scope {
        bindings: &[],
        ..scope
    };
    let access = planner::AccessShape::of(table, alias.as_deref().unwrap_or(name), single, &|e| {
        positional(e, &no_row)
    });
    let cols = keep
        .as_deref()
        .and_then(|keep| kept_positions(&table.schema, keep));
    let out_bindings: Vec<Binding> = match &cols {
        Some(cols) => cols.iter().map(|&c| bindings[c].clone()).collect(),
        None => bindings.clone(),
    };
    let project = (!aggregated)
        .then(|| compile_project(q, &out_bindings))
        .flatten();
    Some(CompiledSource {
        scan: CompiledScan {
            table: table.schema.id,
            width: bindings.len(),
            cols,
            out_bindings,
            single: compiled_single,
            access,
        },
        project,
    })
}

/// [`compile_output`] at lowering, over the scan's output row; `None` when
/// a program is not positional.
fn compile_project(q: &Select, in_bindings: &[Binding]) -> Option<CompiledProject> {
    let out_bindings = exec::output_bindings(q, in_bindings);
    let out_names: Vec<String> = out_bindings.iter().map(|b| b.name.clone()).collect();
    let scope = Scope {
        bindings: in_bindings,
        outer: &[],
        aggs: &[],
        ctx: None,
    };
    let (items, order) = compile_output(q, &out_names, &scope);
    let positional = items.iter().all(|i| match i {
        ItemProg::Wildcard => true,
        ItemProg::Expr(c) => c.is_positional(),
    }) && order.iter().all(|o| match o {
        OrderKeyProg::Output(_) => true,
        OrderKeyProg::Expr(c) => c.is_positional(),
    });
    positional.then_some(CompiledProject {
        out_bindings,
        items,
        order,
    })
}

/// Every column reference a statement's inputs may have to serve: the
/// select list, GROUP BY, HAVING, ORDER BY, the join-edge expressions and
/// the post-filters, descending into every nested subquery and derived
/// table (a correlated reference is resolved against the joined row). An
/// input's own pushed-down conjuncts are left out — the scan evaluates
/// them on the stored columns before it materializes anything.
/// Deliberately by name and conservative: an input keeps a column when a
/// reference is unqualified or qualified with the input's scope name,
/// whatever inner scope might shadow it, so a name two inputs share stays
/// in both and still resolves to `AmbiguousColumn`. `None` when nothing is
/// to be pruned: a top-level `*`. A lone FROM item is narrowed like a join
/// input — the heap stores columns, so a cell nothing reads is a cell not
/// built (a primary-key read of three numeric columns used to borrow the
/// row; it must not now pay for five strings).
fn input_columns<'q>(
    q: &'q Select,
    edges: &'q [planner::JoinEdge],
    post: &'q [(Expr, Vec<String>)],
) -> Option<Vec<&'q ColumnRef>> {
    if q.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
        return None;
    }
    let mut used: Vec<&ColumnRef> = Vec::new();
    let mut note = |e: &'q Expr| {
        if let Expr::Column(c) = e {
            used.push(c);
        }
    };
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit::walk_expr(expr, &mut note);
        }
    }
    for t in &q.from {
        if let TableRef::Subquery { query, .. } = t {
            visit::walk_select_exprs(query, &mut note);
        }
    }
    let clauses = (q.group_by.iter())
        .chain(&q.having)
        .chain(q.order_by.iter().map(|o| &o.expr))
        .chain(edges.iter().flat_map(|e| [&e.left_expr, &e.right_expr]))
        .chain(post.iter().map(|(e, _)| e));
    for e in clauses {
        visit::walk_expr(e, &mut note);
    }
    Some(used)
}

/// The fusion rule: a single-table aggregation with no subqueries anywhere
/// and every expression compilable to a positional program collapses to
/// [`Shape::Fused`]. `None` means the shape stays on the general tree.
pub(crate) fn compile_fused(q: &Select, db: &Database) -> Option<FusedPlan> {
    if q.quantifier != SetQuantifier::All {
        return None;
    }
    let [TableRef::Table { name, alias }] = q.from.as_slice() else {
        return None;
    };
    // Aggregated single-table shape only; plain scans stay general.
    if q.group_by.is_empty() && !exec::select_has_aggregates(q) {
        return None;
    }
    if q.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
        return None;
    }
    // No subqueries anywhere (selection, items, having, order by, ...).
    let mut has_subquery = false;
    apuama_sql::visit::walk_select_exprs(q, &mut |e| {
        if matches!(
            e,
            Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_)
        ) {
            has_subquery = true;
        }
    });
    if has_subquery {
        return None;
    }

    let table = db.table(name)?;
    let bindings = exec::bindings_for_table(&table.schema, alias.as_deref());
    let binding_name = alias.clone().unwrap_or_else(|| name.clone());

    // Classify WHERE conjuncts the way the general lowering does:
    // table-bound ones feed the access-path choice, binding-free ones
    // become post-filters.
    let catalog = db.catalog();
    let scopes = planner::scopes_for_from(&q.from, catalog);
    let mut single: Vec<Expr> = Vec::new();
    let mut post: Vec<Expr> = Vec::new();
    for c in eval::split_conjuncts(q.selection.as_ref()) {
        let refs = planner::conjunct_bindings(&c, &scopes, catalog);
        if refs.len() == 1 && refs.contains(&scopes[0].name) {
            single.push(c);
        } else if refs.is_empty() {
            post.push(c);
        } else {
            // A conjunct resolving outside the one scope means correlation
            // or a planner corner the general tree should handle.
            return None;
        }
    }

    // Compiled without an execution in hand (the plan outlives it) and
    // against the table alone: anything that reaches past the row — a name
    // it does not have, an aggregate inside an aggregate — stays general.
    let scope = Scope {
        bindings: &bindings,
        outer: &[],
        aggs: &[],
        ctx: None,
    };
    let positional = |e: &Expr| Some(eval::compile_expr(e, &scope)).filter(|c| c.is_positional());
    let all = |es: &[Expr]| es.iter().map(positional).collect::<Option<Vec<_>>>();
    let compiled_single = all(&single)?;
    let compiled_post = all(&post)?;
    let group_by = all(&q.group_by)?;
    let specs = agg::collect_agg_specs(q);
    let agg_args = specs
        .iter()
        .map(|s| match (&s.arg, s.star) {
            (_, true) | (None, _) => Some(None),
            (Some(a), false) => positional(a).map(Some),
        })
        .collect::<Option<Vec<_>>>()?;

    Some(FusedPlan {
        table: name.clone(),
        binding_name,
        bindings,
        single,
        compiled_single,
        compiled_post,
        specs,
        agg_args,
        group_by,
    })
}

/// The batch-at-a-time operator contract. `open` is called exactly once,
/// before the first `next_batch`, and returns the operator's output
/// bindings; `next_batch` returns a non-empty batch or `None` once the
/// stream is exhausted. A batch owns its rows: the heap stores columns, so
/// there is no row for a scan to lend.
pub(crate) trait Operator<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>>;
    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>>;

    /// How the operator evaluates each of its subquery predicates (valid
    /// after `open`), for `EXPLAIN ANALYZE` to list under it.
    fn subquery_lines(&self) -> Vec<SubqueryLine> {
        Vec::new()
    }
}

/// Executes a lowered plan, draining the operator tree into a materialized
/// relation (the statement boundary — results cross the network whole).
pub(crate) fn execute(
    plan: &PhysicalPlan,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    execute_shape(&plan.select, &plan.shape, outer, ctx)
}

pub(crate) fn execute_shape<'e>(
    q: &'e Select,
    shape: &'e Shape,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
) -> EngineResult<Relation> {
    let (mut root, _) = build_tree(q, shape, outer, ctx, None);
    let bindings = root.open()?;
    let mut rows = Vec::new();
    while let Some(batch) = root.next_batch()? {
        ctx.check_interrupt()?;
        rows.extend(batch.rows);
    }
    Ok(Relation {
        bindings: bindings.into_owned(),
        rows,
    })
}

/// Wraps a freshly built operator in a timing probe when an `EXPLAIN
/// ANALYZE` collector is active; otherwise passes it through untouched,
/// and its label is never built.
pub(crate) fn instrument<'e>(
    az: Option<&'e Analyze>,
    op: Box<dyn Operator<'e> + 'e>,
    label: impl FnOnce() -> String,
    children: Vec<usize>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    let idx = az.map(|a| a.register(label(), children));
    timed(az, idx, op)
}

/// [`instrument`] for an operator whose probe node was registered before
/// it was built, because it attaches to the node as it runs (the join
/// block its inputs as children, the fused aggregate its fold's notes).
fn timed<'e>(
    az: Option<&'e Analyze>,
    idx: Option<usize>,
    op: Box<dyn Operator<'e> + 'e>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    match (az, idx) {
        (Some(az), Some(idx)) => (Box::new(TimedExec { inner: op, az, idx }), Some(idx)),
        _ => (op, None),
    }
}

/// Assembles the operator tree for one shape: the source block (fused
/// pipeline, streamed single scan, or materializing join), the projection
/// or aggregation stage, then the uniform DISTINCT → Sort → Limit tail.
/// With `az` set, every operator is wrapped in a [`TimedExec`] probe and
/// the returned index identifies the root's probe node.
pub(crate) fn build_tree<'e>(
    q: &'e Select,
    shape: &'e Shape,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    az: Option<&'e Analyze>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    let (mut op, mut idx) = match shape {
        Shape::Fused(f) => {
            // Registered up front (like the join block) so the fold's tally
            // can attach its notes from the run.
            let pidx = az.map(|a| {
                a.register(
                    format!("fused aggregate over {}", f.binding_name),
                    Vec::new(),
                )
            });
            let fused = FusedExec::new(q, f, outer, ctx, az, pidx);
            timed(az, pidx, Box::new(fused))
        }
        Shape::General(g) => {
            let (source, sidx) = build_source(g, outer, ctx, az);
            let children: Vec<usize> = sidx.into_iter().collect();
            if g.aggregated {
                instrument(
                    az,
                    Box::new(AggregateExec::new(q, source, outer, ctx)),
                    || "aggregate".to_string(),
                    children,
                )
            } else {
                let project = g.source.as_ref().and_then(|s| s.project.as_ref());
                instrument(
                    az,
                    Box::new(ProjectExec::new(q, source, project, outer, ctx)),
                    || format!("project ({} column(s))", q.items.len()),
                    children,
                )
            }
        }
    };
    if q.quantifier == SetQuantifier::Distinct {
        (op, idx) = instrument(
            az,
            Box::new(DistinctExec::new(op, ctx)),
            || "distinct".to_string(),
            idx.into_iter().collect(),
        );
    }
    if !q.order_by.is_empty() {
        (op, idx) = instrument(
            az,
            Box::new(SortExec::new(q, op, ctx)),
            || format!("sort ({} key(s))", q.order_by.len()),
            idx.into_iter().collect(),
        );
    }
    if let Some(l) = q.limit {
        (op, idx) = instrument(
            az,
            Box::new(LimitExec::new(l, op, ctx)),
            || format!("limit {l}"),
            idx.into_iter().collect(),
        );
    }
    (op, idx)
}

/// The source block under projection/aggregation. A single FROM item
/// streams through a `Filter`; several are counted and joined by
/// [`JoinExec`] (the greedy join phase needs full cardinalities, exactly as
/// the interpreter did).
pub(crate) fn build_source<'e>(
    g: &'e GeneralPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    az: Option<&'e Analyze>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    if g.inputs.len() == 1 {
        let compiled = g.source.as_ref().map(|s| &s.scan);
        let (base, bidx) = build_input(&g.inputs[0], compiled, outer, ctx, az);
        // With one scope every post predicate is scope-free (single-scope
        // conjuncts were pushed into the scan), so all of them apply here.
        if g.post.is_empty() {
            (base, bidx)
        } else {
            let preds: Vec<Expr> = g.post.iter().map(|(e, _)| e.clone()).collect();
            let n = preds.len();
            instrument(
                az,
                Box::new(FilterExec::new(base, preds, outer, ctx)),
                || format!("filter ({n} predicate(s))"),
                bidx.into_iter().collect(),
            )
        }
    } else {
        // The join registers its probe node up front so it can attach its
        // input probes as children when it materializes them in open().
        let jidx = az.map(|a| a.register("hash join block (greedy order)".to_string(), Vec::new()));
        timed(az, jidx, Box::new(JoinExec::new(g, outer, ctx, az, jidx)))
    }
}

/// A base-table scan's `EXPLAIN ANALYZE` label: `scan lineitem as l1
/// cols 4/16`.
pub(crate) fn scan_label(
    name: &str,
    alias: Option<&str>,
    keep: Option<&[String]>,
    ctx: &ExecContext<'_>,
) -> String {
    let mut label = match alias {
        Some(alias) => format!("scan {name} as {alias}"),
        None => format!("scan {name}"),
    };
    if let (Some(keep), Some(table)) = (keep, ctx.db.table(name)) {
        label.push_str(&format!(" {}", cols_note(&table.schema, keep)));
    }
    label
}

/// One FROM item's operator; `compiled` is a base table's scan as lowering
/// compiled it, when it could.
pub(crate) fn build_input<'e>(
    node: &'e InputNode,
    compiled: Option<&'e CompiledScan>,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    az: Option<&'e Analyze>,
) -> (Box<dyn Operator<'e> + 'e>, Option<usize>) {
    match node {
        InputNode::Table {
            name,
            alias,
            single,
            keep,
        } => {
            let (alias, keep) = (alias.as_deref(), keep.as_deref());
            let scan = ScanExec::new(name, alias, single, keep, outer, ctx).compiled(compiled);
            let label = || scan_label(name, alias, keep, ctx);
            instrument(az, Box::new(scan), label, Vec::new())
        }
        InputNode::Derived {
            alias,
            plan,
            single,
        } => instrument(
            az,
            Box::new(DerivedExec::new(alias, plan, single, outer, ctx)),
            || format!("derived table {alias}"),
            Vec::new(),
        ),
    }
}
