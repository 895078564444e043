use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

use apuama_sql::ast::{BinOp, Expr};
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, cmp_matches, truthiness, CompiledExpr, Frame, Scope};
use crate::exec::{self, Binding, ExecContext, Relation};
use crate::planner;
use crate::subquery::{probe_memos, ExistsProbe, ProbeMemo};
use crate::table::Table;

use crate::physical::ScanPreds;

/// A filter predicate, compiled. The hot `col <cmp> literal` shape is
/// specialized to a direct comparison (`FastCmp`), skipping the expression
/// walk and its per-operand `Value` clones. A single-table `[NOT] EXISTS`
/// that qualifies (see [`crate::subquery`]) and reads nothing but the
/// operator's row becomes a semi-/anti-join probe the operator holds, with
/// a memo of its own from row to row.
pub(crate) enum ResidualPred {
    /// `col <op> lit`, normalized so the column is on the left. Semantics
    /// are the evaluator's for comparison operators: NULL on either side
    /// filters the row (three-valued logic), incomparable non-null operands
    /// are a type error with the same message.
    FastCmp {
        col: usize,
        op: BinOp,
        lit: Value,
    },
    Compiled(CompiledExpr),
    Exists {
        negated: bool,
        probe: Arc<ExistsProbe>,
    },
}

impl ResidualPred {
    /// Sinks a compiled predicate into its fastest evaluable form.
    pub(crate) fn from_compiled(c: CompiledExpr) -> ResidualPred {
        let fast = match &c {
            CompiledExpr::Binary { left, op, right } if op.is_comparison() => {
                match (left.as_ref(), right.as_ref()) {
                    (CompiledExpr::Col(i), CompiledExpr::Lit(v)) => Some((*i, *op, v)),
                    (CompiledExpr::Lit(v), CompiledExpr::Col(i)) => Some((*i, flip_cmp(*op), v)),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some((col, op, lit)) = fast {
            let lit = lit.clone();
            return ResidualPred::FastCmp { col, op, lit };
        }
        match c {
            CompiledExpr::Probe { negated, probe } if probe.is_positional() => {
                ResidualPred::Exists { negated, probe }
            }
            c => ResidualPred::Compiled(c),
        }
    }

    /// Appends the positions of the `width`-cell row the predicate reads: a
    /// predicate that evaluates a subquery is handed every cell, because
    /// the subquery resolves names against the row when it runs.
    pub(crate) fn collect_cols(&self, width: usize, out: &mut Vec<usize>) {
        match self {
            ResidualPred::FastCmp { col, .. } => out.push(*col),
            ResidualPred::Compiled(c) if c.has_subquery() => out.extend(0..width),
            ResidualPred::Compiled(c) => c.collect_cols(out),
            ResidualPred::Exists { probe, .. } => probe.collect_outer_cols(out),
        }
    }
}

/// Mirror image of a comparison operator (`lit < col` ⇔ `col > lit`).
pub(crate) fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other, // Eq / NotEq are symmetric.
    }
}

/// Compiles an operator's predicate list against its row bindings and the
/// frames around it, once per execution: bound parameters are folded in,
/// `col <cmp> literal` is specialized. Values and errors are the same in
/// every form; only the per-row cost differs.
pub(crate) fn resolve_preds<'p>(
    preds: impl IntoIterator<Item = &'p Expr>,
    bindings: &[Binding],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> Vec<ResidualPred> {
    let scope = Scope::new(bindings, outer, ctx);
    preds
        .into_iter()
        .map(|e| ResidualPred::from_compiled(eval::compile_expr(e, &scope)))
        .collect()
}

/// One row through a conjunctive predicate list — the one row-major
/// predicate evaluator: `charge` is called before each evaluation and the
/// list short-circuits on the first non-true. `memos` is the evaluating
/// operator's, one per predicate ([`probe_memos`]). Streaming operators
/// count the charges locally and flush them once per batch; materialized
/// paths use [`keep_row`]. A scan reaches this only for the predicates its
/// vectorized prefix does not cover ([`ScanPreds::filter`]).
pub(crate) fn keep_row_charged(
    row: &Row,
    preds: &[ResidualPred],
    memos: &mut [ProbeMemo],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
    mut charge: impl FnMut(),
) -> EngineResult<bool> {
    debug_assert_eq!(preds.len(), memos.len(), "one memo per predicate");
    for (pred, memo) in preds.iter().zip(memos) {
        charge();
        let keep = match pred {
            ResidualPred::FastCmp { col, op, lit } => {
                let v = &row[*col];
                if v.is_null() || lit.is_null() {
                    false // NULL comparison result is never true.
                } else {
                    match v.sql_cmp(lit) {
                        None => {
                            return Err(EngineError::TypeError(format!(
                                "cannot compare {v} with {lit}"
                            )))
                        }
                        Some(ord) => cmp_matches(*op, ord),
                    }
                }
            }
            ResidualPred::Compiled(c) => {
                truthiness(&eval::eval_compiled(c, row, outer, ctx)?) == Some(true)
            }
            ResidualPred::Exists { negated, probe } => {
                probe.eval(row, outer, memo, ctx)? != *negated
            }
        };
        if !keep {
            return Ok(false);
        }
    }
    Ok(true)
}

/// [`keep_row_charged`] with each charge bumped straight onto the context:
/// the form for rows that are already materialized (pipeline breakers,
/// derived tables, the join phase), where there is no batch to flush at.
pub(crate) fn keep_row(
    row: &Row,
    preds: &[ResidualPred],
    memos: &mut [ProbeMemo],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<bool> {
    keep_row_charged(row, preds, memos, outer, ctx, || ctx.bump_cpu(1))
}

// ---------------------------------------------------------------------------
// Access path
// ---------------------------------------------------------------------------

/// Chooses one base-table scan's access path from the values actually
/// bound (column-free conjunct operands are evaluated here, parameters
/// included) and returns it with the conjuncts it leaves to the row level —
/// those the index range does not already imply — in plan order. Every
/// scan, `EXPLAIN` and DML plan through here, so they agree on the path.
pub(crate) fn plan_scan<'x>(
    table: &Table,
    binding_name: &str,
    single: &'x [Expr],
    ctx: &ExecContext<'_>,
) -> (planner::ScanChoice, Vec<&'x Expr>) {
    let choice = choose_path(table, binding_name, single, ctx);
    let residual = single
        .iter()
        .enumerate()
        .filter(|(i, _)| !choice.consumed.contains(i))
        .map(|(_, e)| e)
        .collect();
    (choice, residual)
}

/// [`plan_scan`]'s access path alone: the conjuncts it leaves are those
/// whose positions `consumed` does not list.
pub(crate) fn choose_path(
    table: &Table,
    binding_name: &str,
    single: &[Expr],
    ctx: &ExecContext<'_>,
) -> planner::ScanChoice {
    let eval_const = |e: &Expr| -> Option<Value> {
        if exec::expr_has_columns(e) {
            None
        } else {
            eval::eval_once(e, ctx).ok()
        }
    };
    planner::choose_access_path(
        table,
        binding_name,
        single,
        ctx.seqscan_allowed(),
        ctx.db.indexscan_enabled(),
        &eval_const,
    )
}

// ---------------------------------------------------------------------------
// Zone-map page pruning
// ---------------------------------------------------------------------------

/// Does `page`'s zone map prove no live row can satisfy `col <op> lit`?
///
/// Decisions mirror the row-level comparison semantics ([`Value::sql_cmp`]):
/// a NULL literal or an all-NULL page can never produce a `true`
/// comparison (NULL operands short-circuit to false before comparing), so
/// both always prune; an incomparable min or max means some row might
/// raise a type error, so the page is kept and row-level evaluation
/// surfaces the same error it always did. Comparable min/max bounds are
/// safe because [`Value::sort_cmp`]'s type ranks coincide with
/// `sql_cmp`'s comparability classes: if both bounds compare with the
/// literal, every value between them does too (NaN sorts above all floats
/// and is itself incomparable, so a page containing one is never pruned).
pub(crate) fn zone_page_refutes(
    heap: &apuama_storage::Heap,
    page: u64,
    preds: &[(usize, BinOp, Value)],
) -> bool {
    use apuama_storage::ZoneRange;
    preds.iter().any(|(col, op, lit)| {
        match heap.zone_range(*col, page) {
            None => false,
            Some(ZoneRange::Empty) => true,
            Some(ZoneRange::Range { min, max }) => {
                if lit.is_null() {
                    return true;
                }
                let (Some(lo), Some(hi)) = (min.sql_cmp(lit), max.sql_cmp(lit)) else {
                    return false;
                };
                match op {
                    BinOp::Eq => lo == Ordering::Greater || hi == Ordering::Less,
                    // Only refutable when the page holds a single value.
                    BinOp::NotEq => lo == Ordering::Equal && hi == Ordering::Equal,
                    BinOp::Lt => lo != Ordering::Less,
                    BinOp::LtEq => lo == Ordering::Greater,
                    BinOp::Gt => hi != Ordering::Greater,
                    BinOp::GtEq => hi == Ordering::Less,
                    _ => false,
                }
            }
        }
    })
}

/// Which heap pages a sequential scan reads: `allowed[page]` is false for
/// the pages whose zone maps refute a residual conjunct, which are never
/// iterated — no page charge, no `rows_scanned` — and counted as
/// `pages_pruned`. The eligible conjuncts are the list's
/// [`ScanPreds::zone_bounds`] — `col <cmp> const` however the constant is
/// spelled, `BETWEEN` as its two bounds — on a column the heap keeps zone
/// maps for; `None` when there is none: every page is read.
pub(crate) fn zone_allowed_pages(table: &Table, preds: &ScanPreds) -> (Option<Vec<bool>>, u64) {
    let zone_cols = table.heap.zone_columns();
    let eligible: Vec<(usize, BinOp, Value)> = (preds.zone_bounds().iter())
        .filter(|(col, ..)| zone_cols.contains(col))
        .cloned()
        .collect();
    if eligible.is_empty() {
        return (None, 0);
    }
    let allowed: Vec<bool> = (0..table.heap.pages())
        .map(|page| !zone_page_refutes(&table.heap, page, &eligible))
        .collect();
    let pruned = allowed.iter().filter(|&&a| !a).count() as u64;
    (Some(allowed), pruned)
}

// ---------------------------------------------------------------------------
// Key programs
// ---------------------------------------------------------------------------

/// One group-by key component program: a direct column read (no clone per
/// row) or a compiled expression evaluated into a per-row scratch slot.
pub(crate) enum KeyProg {
    Col(usize),
    Expr { expr: CompiledExpr, slot: usize },
}

/// [`KeyProg`]s of compiled key expressions (group-by keys, one side of a
/// join's edges), in order.
pub(crate) fn key_progs(exprs: impl IntoIterator<Item = CompiledExpr>) -> Vec<KeyProg> {
    let mut slots = 0usize;
    exprs
        .into_iter()
        .map(|c| match c {
            CompiledExpr::Col(i) => KeyProg::Col(i),
            expr => {
                let slot = slots;
                slots += 1;
                KeyProg::Expr { expr, slot }
            }
        })
        .collect()
}

/// Evaluates the expression-valued key components into `scratch` (cleared
/// first); `Col` components are read straight from the row at lookup time.
pub(crate) fn eval_key_scratch(
    progs: &[KeyProg],
    row: &[Value],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
    scratch: &mut Vec<Value>,
) -> EngineResult<()> {
    scratch.clear();
    for p in progs {
        if let KeyProg::Expr { expr, .. } = p {
            scratch.push(eval::eval_compiled(expr, row, outer, ctx)?);
        }
    }
    Ok(())
}

pub(crate) fn key_component<'a>(
    progs: &[KeyProg],
    i: usize,
    row: &'a [Value],
    scratch: &'a [Value],
) -> &'a Value {
    match &progs[i] {
        KeyProg::Col(c) => &row[*c],
        KeyProg::Expr { slot, .. } => &scratch[*slot],
    }
}

/// FNV-1a, the bucketing hash of the group table and the join table —
/// byte by byte over strings, a word at a time over the fixed-width values
/// [`hash_value`] writes (a key is mostly one integer: a tag and a word,
/// two rounds instead of nine). Only bucket placement depends on the hash —
/// key equality is `sort_cmp` and output order is first-seen — so a cheap
/// function will do.
pub(crate) struct FnvHasher(u64);

impl FnvHasher {
    pub(crate) fn new() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn round(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.round(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.round(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.round(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.round(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Keeps only rows satisfying every predicate (materialized form, used by
/// the join phase and derived tables): predicates are resolved once, then
/// each row goes through them in order with one cpu charge per evaluation.
pub(crate) fn filter_rows(
    rel: Relation,
    preds: &[Expr],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    let bindings = rel.bindings;
    let resolved = resolve_preds(preds, &bindings, outer, ctx);
    let mut memos = probe_memos(resolved.len());
    let mut rows = Vec::with_capacity(rel.rows.len());
    for row in rel.rows {
        if keep_row(&row, &resolved, &mut memos, outer, ctx)? {
            rows.push(row);
        }
    }
    Ok(Relation { bindings, rows })
}
