use apuama_sql::ast::Expr;
use apuama_storage::{AccessKind, Row, RowId};

use crate::catalog::TableSchema;
use crate::error::{EngineError, EngineResult};
use crate::eval::Frame;
use crate::exec::{self, BatchedCounter, Binding, ExecContext, Relation};
use crate::planner::{AccessPath, ScanChoice};
use crate::table::Table;

use crate::physical::*;

// ---------------------------------------------------------------------------
// Scan operators (SeqScan / IndexRangeScan)
// ---------------------------------------------------------------------------

enum ScanIter<'e> {
    Heap(Box<dyn Iterator<Item = (RowId, &'e Row)> + 'e>),
    /// Index ranges pre-collect their row ids (index traversal is
    /// charge-free); heap pages are still touched lazily, row by row, in
    /// range order — identical LRU traffic to the interpreter.
    Rids(std::vec::IntoIter<RowId>),
}

/// How an index range's heap fetches count against the buffer pool: a
/// clustered range walks the heap in order, a secondary one hops.
pub(crate) fn index_access_kind(clustered: bool) -> AccessKind {
    if clustered {
        AccessKind::Sequential
    } else {
        AccessKind::Random
    }
}

/// One base-table scan in flight — the serial scan loop, written once: the
/// live rows of the chosen access path in path order, each row's heap page
/// charged to the statement once per page change. The general scan, the
/// fused kernel and DML's row-id scan all pull from it.
pub(crate) struct ScanCursor<'e> {
    table: &'e Table,
    iter: ScanIter<'e>,
    kind: AccessKind,
    last_page: u64,
}

impl<'e> ScanCursor<'e> {
    /// Opens `path` over `table`, counting the index probe or the pages
    /// the zone maps refute for `residual_exprs` (see [`seq_scan_iter`]).
    pub(crate) fn open(
        table: &'e Table,
        bindings: &[Binding],
        path: &AccessPath,
        residual_exprs: &[&Expr],
        ctx: &ExecContext<'_>,
    ) -> Self {
        let (iter, kind) = match path {
            AccessPath::SeqScan => (
                ScanIter::Heap(seq_scan_iter(table, bindings, residual_exprs, ctx)),
                AccessKind::Sequential,
            ),
            AccessPath::IndexRange {
                column,
                low,
                high,
                clustered,
            } => {
                let idx = table
                    .index_on(*column)
                    .expect("planner only chooses existing indexes");
                ctx.bump_index_probes(1);
                let rids: Vec<RowId> = idx
                    .range(exec::bound_ref(low), exec::bound_ref(high))
                    .map(|(_, rid)| rid)
                    .collect();
                (
                    ScanIter::Rids(rids.into_iter()),
                    index_access_kind(*clustered),
                )
            }
        };
        ScanCursor {
            table,
            iter,
            kind,
            last_page: u64::MAX,
        }
    }

    /// The next live row. A dead row id costs nothing, as in the
    /// interpreter.
    pub(crate) fn next(&mut self, ctx: &ExecContext<'_>) -> Option<(RowId, &'e Row)> {
        let table = self.table;
        let (rid, row) = match &mut self.iter {
            ScanIter::Heap(it) => it.next()?,
            ScanIter::Rids(it) => it.find_map(|rid| Some((rid, table.heap.get(rid)?)))?,
        };
        let page = table.heap.geometry().page_of(rid);
        if page != self.last_page {
            ctx.charge_page(table.schema.id, page, self.kind);
            self.last_page = page;
        }
        Some((rid, row))
    }
}

struct ScanState<'e> {
    cursor: ScanCursor<'e>,
    residual: Vec<ResidualPred>,
    scanned: BatchedCounter<'e, 'e>,
}

/// Schema positions of the columns a join-feeding scan keeps, in schema
/// order; `None` when `keep` names every column, so nothing is narrowed.
pub(crate) fn kept_positions(schema: &TableSchema, keep: &[String]) -> Option<Vec<usize>> {
    let cols: Vec<usize> = (0..schema.columns.len())
        .filter(|&i| keep.binary_search(&schema.columns[i].name).is_ok())
        .collect();
    (cols.len() < schema.columns.len()).then_some(cols)
}

/// `cols 4/16`: how many of its table's columns a join input keeps.
pub(crate) fn cols_note(schema: &TableSchema, keep: &[String]) -> String {
    let all = schema.columns.len();
    let kept = kept_positions(schema, keep).map_or(all, |cols| cols.len());
    format!("cols {kept}/{all}")
}

/// The kept columns of one surviving row, cloned.
pub(crate) fn project_row(row: &Row, cols: &[usize]) -> Row {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// What [`ScanExec::plan`] decides before any row is read: the table, the
/// access path chosen from the bound values, the conjuncts left to the row
/// level, and the bindings the scan emits.
pub(crate) struct PlannedScan<'e> {
    pub(crate) table: &'e Table,
    pub(crate) choice: ScanChoice,
    pub(crate) residual_exprs: Vec<&'e Expr>,
    pub(crate) out_bindings: Vec<Binding>,
}

/// Base-table scan: chooses the access path at open (from the actual bound
/// parameter values), then streams surviving rows in batches. Under a join
/// (`keep` set) the survivors are narrowed to the kept columns *after* the
/// pushed-down predicates ran on the whole heap row; a scan that feeds no
/// join computes no projection and hands out rows borrowed from the heap.
pub(crate) struct ScanExec<'e> {
    name: &'e str,
    alias: Option<&'e str>,
    single: &'e [Expr],
    keep: Option<&'e [String]>,
    outer: &'e [Frame<'e>],
    pub(crate) ctx: &'e ExecContext<'e>,
    /// The table's full bindings: what the predicates resolve against.
    pub(crate) bindings: Vec<Binding>,
    /// Kept column positions, when the output is narrower than the table.
    pub(crate) cols: Option<Vec<usize>>,
    state: Option<ScanState<'e>>,
}

impl<'e> ScanExec<'e> {
    pub(crate) fn new(
        name: &'e str,
        alias: Option<&'e str>,
        single: &'e [Expr],
        keep: Option<&'e [String]>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        ScanExec {
            name,
            alias,
            single,
            keep,
            outer,
            ctx,
            bindings: Vec::new(),
            cols: None,
            state: None,
        }
    }

    /// The first half of `open`: resolves the table, chooses the access
    /// path and fixes the bindings (the full ones the predicates use, the
    /// kept positions, and what the scan emits). [`ParallelScanExec`] plans
    /// through here too and hands the result back to [`Self::start`] when
    /// the scan is too small to split.
    pub(crate) fn plan(&mut self) -> EngineResult<PlannedScan<'e>> {
        let table = self
            .ctx
            .db
            .table(self.name)
            .ok_or_else(|| EngineError::UnknownTable(self.name.to_string()))?;
        let (choice, residual_exprs) = plan_scan(
            table,
            self.alias.unwrap_or(self.name),
            self.single,
            self.ctx,
        );
        self.bindings = exec::bindings_for_table(&table.schema, self.alias);
        self.cols = self
            .keep
            .and_then(|keep| kept_positions(&table.schema, keep));
        let out_bindings = match &self.cols {
            Some(cols) => cols.iter().map(|&c| self.bindings[c].clone()).collect(),
            None => self.bindings.clone(),
        };
        Ok(PlannedScan {
            table,
            choice,
            residual_exprs,
            out_bindings,
        })
    }

    /// The second half of `open`: resolves the residual predicates and
    /// opens the cursor.
    pub(crate) fn start(&mut self, planned: PlannedScan<'e>) -> Vec<Binding> {
        let ctx = self.ctx;
        self.state = Some(ScanState {
            residual: resolve_preds(planned.residual_exprs.iter().copied(), &self.bindings, ctx),
            cursor: ScanCursor::open(
                planned.table,
                &self.bindings,
                &planned.choice.path,
                &planned.residual_exprs,
                ctx,
            ),
            scanned: BatchedCounter::new(ctx),
        });
        planned.out_bindings
    }
}

impl<'e> Operator<'e> for ScanExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        let planned = self.plan()?;
        Ok(self.start(planned))
    }

    fn subquery_lines(&self) -> Vec<SubqueryLine> {
        let residual = self.state.as_ref().map_or(&[][..], |s| &s.residual);
        subquery_lines(residual, self.ctx)
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        self.ctx.check_interrupt()?;
        let Some(state) = self.state.as_mut() else {
            return Ok(None);
        };
        // Survivors that keep every column are *borrowed* from the heap (no
        // per-row clone). Narrowed survivors are cloned here, kept columns
        // only — the clone the join's materialization would otherwise pay
        // on whole rows.
        let mut borrowed: Vec<&'e Row> = Vec::new();
        let mut narrowed: Vec<Row> = Vec::new();
        let mut exhausted = false;
        // cpu charges accumulate locally and flush once per batch.
        let mut cpu = 0u64;
        while ((borrowed.len() + narrowed.len()) as u64) < exec::SCAN_BATCH_ROWS {
            let Some((_, row)) = state.cursor.next(self.ctx) else {
                exhausted = true;
                break;
            };
            state.scanned.row_scanned();
            let keep = state.residual.is_empty()
                || keep_row_charged(
                    row,
                    &self.bindings,
                    &state.residual,
                    self.outer,
                    self.ctx,
                    || cpu += 1,
                )?;
            if keep {
                match &self.cols {
                    Some(cols) => narrowed.push(project_row(row, cols)),
                    None => borrowed.push(row),
                }
            }
        }
        self.ctx.bump_cpu(cpu);
        if exhausted {
            // Dropping the state flushes the batched row_scanned counter.
            self.state = None;
        }
        let rows = match self.cols {
            Some(_) => BatchRows::Owned(narrowed),
            None => BatchRows::Borrowed(borrowed),
        };
        Ok((!rows.is_empty()).then(|| RowBatch {
            rows,
            keys: KeyBuf::default(),
        }))
    }
}
/// Derived table (FROM subquery): executes the lowered inner plan — a
/// pipeline breaker by construction — requalifies its bindings to the
/// alias, applies the pushed-down conjuncts, and re-emits batches.
pub(crate) struct DerivedExec<'e> {
    alias: &'e str,
    plan: &'e PhysicalPlan,
    single: &'e [Expr],
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    emitter: Option<BatchEmitter>,
}

impl<'e> DerivedExec<'e> {
    pub(crate) fn new(
        alias: &'e str,
        plan: &'e PhysicalPlan,
        single: &'e [Expr],
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        DerivedExec {
            alias,
            plan,
            single,
            outer,
            ctx,
            emitter: None,
        }
    }
}

impl<'e> Operator<'e> for DerivedExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        let mut rel = execute(self.plan, self.outer, self.ctx)?;
        for b in &mut rel.bindings {
            b.qualifier = Some(self.alias.to_string());
        }
        if !self.single.is_empty() {
            rel = filter_rows(rel, self.single, self.outer, self.ctx)?;
        }
        let Relation { bindings, rows } = rel;
        self.emitter = Some(BatchEmitter::rows_only(rows));
        Ok(bindings)
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}
