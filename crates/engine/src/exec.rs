//! Execution infrastructure shared across the engine: the per-statement
//! context and statistics, column binding/resolution, and the row-id scan
//! the DML path mutates through (aggregation is `crate::agg`'s).
//!
//! SELECT execution itself lives in `crate::physical`: the planner lowers
//! every query to a batch-at-a-time physical operator tree, and
//! [`run_select`] is now a thin wrapper that lowers and drains that tree.
//! The pieces here are the parts both that pipeline and the write path
//! (INSERT/DELETE/UPDATE in `db.rs`) need to agree on — most importantly
//! the statistics charging contracts, which the simulator prices and which
//! must not drift between read and write paths.

use std::cell::{Cell, RefCell};

use apuama_sql::ast::{Expr, Select, SelectItem};
use apuama_sql::{visit, Value};
use apuama_storage::{AccessKind, PageKey, Row, RowId, TableId};

use crate::catalog::TableSchema;
use crate::db::Database;
use crate::error::{EngineError, EngineResult};
use crate::eval::Frame;
use crate::governor::QueryGovernor;
use crate::physical;
use crate::planner::AccessPath;
use crate::stats::ExecStats;
use crate::subquery::SubqueryMemo;
use crate::table::Table;

/// Describes one column of an intermediate relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Table alias / name the column came from; `None` for computed output
    /// columns.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

/// A materialized intermediate or final relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub bindings: Vec<Binding>,
    pub rows: Vec<Row>,
}

/// Resolves a column reference against a binding list.
pub fn resolve_column(bindings: &[Binding], col: &apuama_sql::ColumnRef) -> EngineResult<usize> {
    let mut found = None;
    for (i, b) in bindings.iter().enumerate() {
        let matches = match &col.table {
            Some(q) => b.qualifier.as_deref() == Some(q.as_str()) && b.name == col.column,
            None => b.name == col.column,
        };
        if matches {
            if found.is_some() {
                return Err(EngineError::AmbiguousColumn(col.column.clone()));
            }
            found = Some(i);
        }
    }
    found.ok_or_else(|| EngineError::UnknownColumn(format!("{col}")))
}

/// Bindings a base-table scan produces.
pub fn bindings_for_table(schema: &TableSchema, alias: Option<&str>) -> Vec<Binding> {
    let q = alias.unwrap_or(&schema.name).to_string();
    schema
        .columns
        .iter()
        .map(|c| Binding {
            qualifier: Some(q.clone()),
            name: c.name.clone(),
        })
        .collect()
}

/// Per-statement execution context: the database handle, the bound
/// parameter values (empty for plain text statements), the statistics
/// being accumulated for this statement, and the governance handle
/// (cancellation + deadline) checked at batch boundaries.
pub struct ExecContext<'a> {
    pub db: &'a Database,
    params: Vec<Value>,
    stats: RefCell<ExecStats>,
    gov: Option<QueryGovernor>,
    /// Whether this statement's scans may be sequential: the session's
    /// `enable_seqscan`, unless the request asked to avoid them.
    seqscan: bool,
    /// Bytes this statement has charged to the node's [`MemoryGauge`];
    /// released on drop so every exit path (success, error, cancel)
    /// returns the budget.
    mem_charged: Cell<u64>,
    /// Once-per-execution subquery results.
    subqueries: SubqueryMemo,
}

impl<'a> ExecContext<'a> {
    pub fn new(db: &'a Database) -> Self {
        Self::with_params(db, Vec::new())
    }

    /// Context for a prepared statement executed with bound values; `$N`
    /// placeholders resolve to `params[N-1]`.
    pub fn with_params(db: &'a Database, params: Vec<Value>) -> Self {
        Self::governed(db, params, None)
    }

    /// Context carrying a [`QueryGovernor`] (cancel token + deadline); the
    /// physical pipeline checks it once per scan batch.
    pub fn governed(db: &'a Database, params: Vec<Value>, gov: Option<QueryGovernor>) -> Self {
        ExecContext {
            db,
            params,
            stats: RefCell::new(ExecStats::default()),
            gov,
            seqscan: db.seqscan_enabled(),
            mem_charged: Cell::new(0),
            subqueries: SubqueryMemo::default(),
        }
    }

    /// Narrows the sequential-scan permission: `allowed = false` is the
    /// request's avoid-sequential-scans hint.
    pub(crate) fn restrict_seqscan(mut self, allowed: bool) -> Self {
        self.seqscan &= allowed;
        self
    }

    /// Whether the planner may pick a sequential scan for this statement.
    pub(crate) fn seqscan_allowed(&self) -> bool {
        self.seqscan
    }

    pub(crate) fn subqueries(&self) -> &SubqueryMemo {
        &self.subqueries
    }

    /// Value bound to placeholder `$n` (1-based).
    pub fn param(&self, n: usize) -> EngineResult<Value> {
        self.params
            .get(n.wrapping_sub(1))
            .cloned()
            .ok_or_else(|| EngineError::TypeError(format!("parameter ${n} is not bound")))
    }

    /// Touches a page in the node's buffer pool, attributing the result to
    /// this statement.
    pub fn charge_page(&self, table: TableId, page: u64, kind: AccessKind) {
        let hit = self.db.pool_access(PageKey { table, page }, kind);
        let mut s = self.stats.borrow_mut();
        if hit {
            s.buffer.hits += 1;
        } else {
            match kind {
                AccessKind::Sequential => s.buffer.misses_seq += 1,
                AccessKind::Random => s.buffer.misses_rand += 1,
            }
        }
    }

    /// Random fetch of one row's heap page (index probes, point updates).
    pub fn charge_row_fetch(&self, table: &Table, rid: RowId) {
        self.charge_page(
            table.schema.id,
            table.heap.geometry().page_of(rid),
            AccessKind::Random,
        );
    }

    pub fn bump_cpu(&self, n: u64) {
        self.stats.borrow_mut().cpu_tuple_ops += n;
    }

    pub fn bump_rows_scanned(&self, n: u64) {
        self.stats.borrow_mut().rows_scanned += n;
    }

    pub fn bump_index_probes(&self, n: u64) {
        self.stats.borrow_mut().index_probes += n;
    }

    /// Heap pages a sequential scan skipped via zone maps. Pruned pages
    /// are never iterated, so they generate no page charge and none of
    /// their rows count as scanned.
    pub fn bump_pages_pruned(&self, n: u64) {
        self.stats.borrow_mut().pages_pruned += n;
    }

    /// One scan batch dispatched ([`SCAN_BATCH_ROWS`] rows or the final
    /// partial batch). The sim's cost model can price per-batch dispatch
    /// overhead off this without touching the per-tuple counters.
    pub fn bump_scan_batches(&self, n: u64) {
        self.stats.borrow_mut().scan_batches += n;
    }

    /// Records the statement's result size.
    pub fn record_output(&self, rel: &Relation) {
        let mut s = self.stats.borrow_mut();
        s.rows_out += rel.rows.len() as u64;
        s.bytes_out += rel.rows.iter().map(row_bytes).sum::<u64>();
    }

    /// Consumes the accumulated statistics.
    pub fn take_stats(&self) -> ExecStats {
        std::mem::take(&mut self.stats.borrow_mut())
    }

    /// One cooperative cancellation point: fails with
    /// [`EngineError::Cancelled`] / [`EngineError::Timeout`] when this
    /// statement's governor fired. Called once per scan batch — a single
    /// branch when no governor is attached.
    #[inline]
    pub fn check_interrupt(&self) -> EngineResult<()> {
        match &self.gov {
            Some(g) => g.check(),
            None => Ok(()),
        }
    }

    /// Charges `bytes` of pipeline-breaker state growth against the node's
    /// memory gauge (batch-grain accounting). Fails the statement with
    /// [`EngineError::ResourceExhausted`] when the budget is exceeded; the
    /// cumulative charge is released when this context drops.
    pub fn charge_mem(&self, bytes: u64) -> EngineResult<()> {
        if bytes == 0 {
            return Ok(());
        }
        self.db.mem_gauge().charge(bytes)?;
        self.mem_charged.set(self.mem_charged.get() + bytes);
        Ok(())
    }
}

impl Drop for ExecContext<'_> {
    fn drop(&mut self) {
        let charged = self.mem_charged.get();
        if charged > 0 {
            self.db.mem_gauge().release(charged);
        }
    }
}

/// Cheap constant-time estimate of materialized row-set growth, used for
/// batch-grain memory accounting where summing [`row_bytes`] per row would
/// show up in the hot path: per-row `Vec` + enum-value overhead plus eight
/// bytes per column.
pub(crate) fn approx_state_bytes(rows: u64, cols: usize) -> u64 {
    rows * (32 + 8 * cols as u64)
}

/// Approximate wire size of a row.
pub fn row_bytes(row: &Row) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Date(_) => 4,
            Value::Str(s) => s.len() as u64 + 4,
            Value::Interval(_) => 8,
        })
        .sum::<u64>()
        + 4
}

// ---------------------------------------------------------------------------
// SELECT pipeline
// ---------------------------------------------------------------------------

/// Executes a SELECT with the given outer frames (empty for top-level
/// queries; populated for correlated subqueries and derived tables).
///
/// Lowers the statement to its physical operator shape and drains the
/// tree. Subquery evaluation comes through here too, so nested SELECTs
/// get the same pipeline (and the same fusion rule) as top-level ones.
pub fn run_select(
    q: &Select,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    let shape = physical::lower_shape(q, ctx.db, ctx.db.kernel_enabled());
    physical::execute_shape(q, &shape, outer, ctx)
}

pub(crate) fn contains_subquery(e: &Expr) -> bool {
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

pub(crate) fn expr_has_columns(e: &Expr) -> bool {
    let mut found = false;
    visit::shallow_walk(e, &mut |x| {
        if matches!(x, Expr::Column(_)) {
            found = true;
        }
    });
    found
}

/// Whether any output clause of `q` (select list, HAVING, ORDER BY) calls an
/// aggregate — with GROUP BY, what makes a SELECT an aggregation.
pub fn select_has_aggregates(q: &Select) -> bool {
    let item_agg = q.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard => false,
    });
    item_agg
        || q.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || q.order_by.iter().any(|o| o.expr.contains_aggregate())
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Rows per batch everywhere in the physical pipeline: operators exchange
/// `crate::physical` batches of this many rows, and stats counters are
/// charged once per batch (identical totals to per-row charging, a
/// fraction of the borrow traffic). Public so the cluster layer's
/// streaming sinks can chunk at the same grain. It is the heap's segment
/// size, so one stored segment is one batch of a scan.
pub const SCAN_BATCH_ROWS: u64 = apuama_storage::SEGMENT_SLOTS;

/// Scans a base table through the chosen access path collecting matching
/// row ids — the DML path (DELETE/UPDATE) needs ids to mutate through.
/// Same cursor, same predicate programs and so the same charges as the
/// read pipeline's scan.
pub(crate) fn scan_rids(
    ctx: &ExecContext<'_>,
    table: &Table,
    path: &AccessPath,
    residual: &[&Expr],
) -> EngineResult<Vec<RowId>> {
    let bindings = bindings_for_table(&table.schema, None);
    let preds = physical::ScanPreds::new(
        physical::resolve_preds(residual.iter().copied(), &bindings, &[], ctx),
        bindings.len(),
        ctx,
    );
    let mut scratch = preds.scratch();
    let mut sel = physical::Sel::new();
    let mut out = Vec::new();
    let mut scanned = physical::ScanTally::new(ctx);
    let mut cursor = physical::ScanCursor::open(table, path, &preds, ctx);
    while let Some((seg, base, slots)) = cursor.next(ctx) {
        scanned.rows += slots.len() as u64;
        let (survivors, cpu) = preds.filter(seg, slots, &mut sel, &mut scratch, &[], ctx)?;
        ctx.bump_cpu(cpu);
        out.extend(survivors.iter().map(|&slot| base + slot as u64));
    }
    Ok(out)
}

pub(crate) fn bound_ref(b: &std::ops::Bound<Value>) -> std::ops::Bound<&Value> {
    match b {
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
        std::ops::Bound::Included(v) => std::ops::Bound::Included(v),
        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v),
    }
}

// ---------------------------------------------------------------------------
// Projection helpers (shared by the physical pipeline's operators)
// ---------------------------------------------------------------------------

/// Output bindings of a SELECT list over the given input bindings.
pub(crate) fn output_bindings(q: &Select, input: &[Binding]) -> Vec<Binding> {
    let mut out = Vec::new();
    for (i, item) in q.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => out.extend(input.iter().map(|b| Binding {
                qualifier: None,
                name: b.name.clone(),
            })),
            other => out.push(Binding {
                qualifier: None,
                name: other.output_name(i),
            }),
        }
    }
    out
}
