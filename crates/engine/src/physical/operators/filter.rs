use apuama_sql::ast::Expr;
use apuama_storage::Row;

use crate::error::EngineResult;
use crate::eval::Frame;
use crate::exec::{self, Binding, ExecContext};

use crate::physical::*;

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// Streaming conjunctive filter. Subquery-bearing predicates make it a
/// pipeline breaker: the child is drained first, then filtered in order,
/// so the subqueries' page touches land after the child's — exactly the
/// interpreter's sequencing.
pub(crate) struct FilterExec<'e> {
    child: Box<dyn Operator<'e> + 'e>,
    preds: Vec<Expr>,
    breaker: bool,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    in_bindings: Vec<Binding>,
    resolved: Vec<ResidualPred>,
    emitter: Option<BatchEmitter>,
}

impl<'e> FilterExec<'e> {
    pub(crate) fn new(
        child: Box<dyn Operator<'e> + 'e>,
        preds: Vec<Expr>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        let breaker = preds.iter().any(exec::contains_subquery);
        FilterExec {
            child,
            preds,
            breaker,
            outer,
            ctx,
            in_bindings: Vec::new(),
            resolved: Vec::new(),
            emitter: None,
        }
    }

    /// Compacts the survivors into the batch's own allocation, whichever
    /// way it holds its rows (borrowed rows stay borrowed), counting one
    /// cpu charge per predicate evaluation into `cpu`.
    fn retain_rows<R: std::borrow::Borrow<Row>>(
        &self,
        rows: &mut Vec<R>,
        cpu: &mut u64,
    ) -> EngineResult<()> {
        let mut kept = 0;
        for i in 0..rows.len() {
            if keep_row_charged(
                rows[i].borrow(),
                &self.in_bindings,
                &self.resolved,
                self.outer,
                self.ctx,
                || *cpu += 1,
            )? {
                rows.swap(kept, i);
                kept += 1;
            }
        }
        rows.truncate(kept);
        Ok(())
    }

    /// Filters one streamed batch in place; cpu charges are flushed once
    /// per batch.
    fn filter_batch(&self, mut rows: BatchRows<'e>) -> EngineResult<BatchRows<'e>> {
        let mut cpu = 0u64;
        match &mut rows {
            BatchRows::Owned(v) => self.retain_rows(v, &mut cpu)?,
            BatchRows::Borrowed(v) => self.retain_rows(v, &mut cpu)?,
        }
        self.ctx.bump_cpu(cpu);
        Ok(rows)
    }
}

impl<'e> Operator<'e> for FilterExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        self.in_bindings = self.child.open()?;
        self.resolved = resolve_preds(&self.preds, &self.in_bindings, self.ctx);
        Ok(self.in_bindings.clone())
    }

    fn subquery_lines(&self) -> Vec<SubqueryLine> {
        subquery_lines(&self.resolved, self.ctx)
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        if self.breaker {
            if self.emitter.is_none() {
                // Drain first (the subqueries' page touches must land
                // after the child's), then filter in order; borrowed rows
                // are cloned only when they survive.
                let mut batches: Vec<BatchRows<'e>> = Vec::new();
                while let Some(batch) = self.child.next_batch()? {
                    self.ctx.check_interrupt()?;
                    batches.push(batch.rows);
                }
                let keep = |row: &Row| {
                    keep_row(row, &self.in_bindings, &self.resolved, self.outer, self.ctx)
                };
                let mut kept: Vec<Row> = Vec::new();
                for b in batches {
                    match b {
                        BatchRows::Owned(v) => {
                            for row in v {
                                if keep(&row)? {
                                    kept.push(row);
                                }
                            }
                        }
                        BatchRows::Borrowed(v) => {
                            for row in v {
                                if keep(row)? {
                                    // Load-bearing clone: survivors of a
                                    // borrowed batch must outlive the scan.
                                    kept.push(row.clone());
                                }
                            }
                        }
                    }
                }
                self.emitter = Some(BatchEmitter::rows_only(kept));
            }
            return Ok(self.emitter.as_mut().and_then(BatchEmitter::next));
        }
        loop {
            self.ctx.check_interrupt()?;
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let rows = self.filter_batch(batch.rows)?;
            if !rows.is_empty() {
                return Ok(Some(RowBatch {
                    rows,
                    keys: KeyBuf::default(),
                }));
            }
        }
    }
}
