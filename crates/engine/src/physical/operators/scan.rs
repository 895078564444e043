use apuama_sql::ast::Expr;
use apuama_sql::Value;
use apuama_storage::{AccessKind, Row, RowId};

use crate::catalog::TableSchema;
use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_expr, Frame};
use crate::exec::{self, BatchedCounter, Binding, ExecContext, Relation};
use crate::planner::{self, AccessPath};
use crate::table::Table;

use crate::physical::*;

// ---------------------------------------------------------------------------
// Scan operators (SeqScan / IndexRangeScan)
// ---------------------------------------------------------------------------

pub(crate) enum ScanIter<'e> {
    Heap(Box<dyn Iterator<Item = (RowId, &'e Row)> + 'e>),
    /// Index ranges pre-collect their row ids (index traversal is
    /// charge-free); heap pages are still touched lazily, per batch, in
    /// range order — identical LRU traffic to the interpreter.
    Rids(std::vec::IntoIter<RowId>),
}

pub(crate) struct ScanState<'e> {
    table: &'e Table,
    iter: ScanIter<'e>,
    kind: AccessKind,
    last_page: u64,
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

/// Base-table scan: chooses the access path at open (from the actual bound
/// parameter values), then streams surviving rows in batches. Under a join
/// (`keep` set) the survivors are narrowed to the kept columns *after* the
/// pushed-down predicates ran on the whole heap row; a scan that feeds no
/// join computes no projection and hands out borrowed rows.
pub(crate) struct ScanExec<'e> {
    pub(crate) name: &'e str,
    pub(crate) alias: Option<&'e str>,
    pub(crate) single: &'e [Expr],
    pub(crate) keep: Option<&'e [String]>,
    pub(crate) outer: &'e [Frame<'e>],
    pub(crate) ctx: &'e ExecContext<'e>,
    pub(crate) batch_mode: bool,
    /// The table's full bindings: what the predicates resolve against.
    pub(crate) bindings: Vec<Binding>,
    /// Kept column positions, when the output is narrower than the table.
    pub(crate) cols: Option<Vec<usize>>,
    pub(crate) state: Option<ScanState<'e>>,
}

impl<'e> ScanExec<'e> {
    pub(crate) fn new(
        name: &'e str,
        alias: Option<&'e str>,
        single: &'e [Expr],
        keep: Option<&'e [String]>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
        batch_mode: bool,
    ) -> Self {
        ScanExec {
            name,
            alias,
            single,
            keep,
            outer,
            ctx,
            batch_mode,
            bindings: Vec::new(),
            cols: None,
            state: None,
        }
    }

    /// Fixes the scan's bindings: records the full ones the predicates
    /// use and the kept positions, and returns what the scan emits.
    pub(crate) fn bind(&mut self, table: &Table) -> Vec<Binding> {
        self.bindings = exec::bindings_for_table(&table.schema, self.alias);
        self.cols = self
            .keep
            .and_then(|keep| kept_positions(&table.schema, keep));
        match &self.cols {
            Some(cols) => cols.iter().map(|&c| self.bindings[c].clone()).collect(),
            None => self.bindings.clone(),
        }
    }
}

impl<'e> Operator<'e> for ScanExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        let ctx = self.ctx;
        let table = ctx
            .db
            .table(self.name)
            .ok_or_else(|| EngineError::UnknownTable(self.name.to_string()))?;
        let binding_name = self.alias.unwrap_or(self.name);
        let eval_const = |e: &Expr| -> Option<Value> {
            if exec::expr_has_columns(e) {
                None
            } else {
                eval_expr(e, &[], ctx).ok()
            }
        };
        let choice = planner::choose_access_path(
            table,
            binding_name,
            self.single,
            ctx.db.seqscan_enabled(),
            ctx.db.indexscan_enabled(),
            &eval_const,
        );
        let out_bindings = self.bind(table);
        let bindings = &self.bindings;
        // Predicates consumed by the index range are implied by the scan
        // bounds; only the rest are re-checked per row.
        let residual_exprs: Vec<&Expr> = self
            .single
            .iter()
            .enumerate()
            .filter(|(i, _)| !choice.consumed.contains(i))
            .map(|(_, e)| e)
            .collect();
        let residual = resolve_preds(
            residual_exprs.iter().copied(),
            bindings,
            ctx,
            self.batch_mode,
        );
        let (iter, kind) = match &choice.path {
            AccessPath::SeqScan => (
                ScanIter::Heap(seq_scan_iter(table, bindings, &residual_exprs, ctx)),
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
                    if *clustered {
                        AccessKind::Sequential
                    } else {
                        AccessKind::Random
                    },
                )
            }
        };
        self.state = Some(ScanState {
            table,
            iter,
            kind,
            last_page: u64::MAX,
            residual,
            scanned: BatchedCounter::new(ctx),
        });
        Ok(out_bindings)
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
        let ScanState {
            table,
            iter,
            kind,
            last_page,
            residual,
            scanned,
        } = state;
        // Batch-exec survivors that keep every column are *borrowed* from
        // the heap (no per-row clone). Narrowed survivors are cloned here,
        // kept columns only — the clone the join's materialization would
        // otherwise pay on whole rows — and the legacy (seed-profile) mode
        // always hands out owned rows.
        let mut out = if self.batch_mode && self.cols.is_none() {
            BatchRows::Borrowed(Vec::new())
        } else {
            BatchRows::Owned(Vec::new())
        };
        let mut exhausted = false;
        let mut cpu = 0u64;
        loop {
            let fetched = match iter {
                ScanIter::Heap(it) => it.next(),
                ScanIter::Rids(it) => match it.next() {
                    None => None,
                    Some(rid) => match table.heap.get(rid) {
                        // A dead row id costs nothing, as in the interpreter.
                        None => continue,
                        Some(row) => Some((rid, row)),
                    },
                },
            };
            let Some((rid, row)) = fetched else {
                exhausted = true;
                break;
            };
            let page = table.heap.geometry().page_of(rid);
            if page != *last_page {
                self.ctx.charge_page(table.schema.id, page, *kind);
                *last_page = page;
            }
            scanned.row_scanned();
            // Batch-exec mode accumulates cpu charges locally and flushes
            // them once per batch; the legacy mode bumps the shared
            // context per predicate evaluation (totals identical).
            let keep = residual.is_empty()
                || if self.batch_mode {
                    keep_row_charged(row, &self.bindings, residual, self.outer, self.ctx, || {
                        cpu += 1
                    })?
                } else {
                    keep_row(row, &self.bindings, residual, self.outer, self.ctx)?
                };
            if keep {
                match (&mut out, &self.cols) {
                    (BatchRows::Borrowed(rows), _) => rows.push(row),
                    (BatchRows::Owned(rows), Some(cols)) => rows.push(project_row(row, cols)),
                    // Load-bearing clone: the legacy row-at-a-time mode
                    // hands out owned rows.
                    (BatchRows::Owned(rows), None) => rows.push(row.clone()),
                }
            }
            if out.len() as u64 == exec::SCAN_BATCH_ROWS {
                break;
            }
        }
        self.ctx.bump_cpu(cpu);
        if exhausted {
            // Dropping the state flushes the batched row_scanned counter.
            self.state = None;
        }
        Ok((!out.is_empty()).then(|| RowBatch {
            rows: out,
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
