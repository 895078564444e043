use std::borrow::Cow;

use apuama_sql::ast::Expr;
use apuama_storage::Row;

use crate::error::EngineResult;
use crate::eval::Frame;
use crate::exec::{self, Binding, ExecContext};
use crate::subquery::{probe_memos, ProbeMemo};

use crate::physical::*;

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// Streaming conjunctive filter. Subquery-bearing predicates make it a
/// pipeline breaker: the child is drained first, then filtered in order,
/// so the subqueries' page touches land after the child's.
pub(crate) struct FilterExec<'e> {
    child: Box<dyn Operator<'e> + 'e>,
    preds: Vec<Expr>,
    breaker: bool,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    resolved: Vec<ResidualPred>,
    /// The `EXISTS` probes' memos, one per predicate.
    memos: Vec<ProbeMemo>,
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
            resolved: Vec::new(),
            memos: Vec::new(),
            emitter: None,
        }
    }

    /// Filters one streamed batch in place — the survivors are compacted
    /// into the batch's own allocation — with one cpu charge per predicate
    /// evaluation, flushed once per batch.
    fn filter_batch(&mut self, rows: &mut Vec<Row>) -> EngineResult<()> {
        let mut cpu = 0u64;
        let mut kept = 0;
        for i in 0..rows.len() {
            if keep_row_charged(
                &rows[i],
                &self.resolved,
                &mut self.memos,
                self.outer,
                self.ctx,
                || cpu += 1,
            )? {
                rows.swap(kept, i);
                kept += 1;
            }
        }
        rows.truncate(kept);
        self.ctx.bump_cpu(cpu);
        Ok(())
    }
}

impl<'e> Operator<'e> for FilterExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        let bindings = self.child.open()?;
        self.resolved = resolve_preds(&self.preds, &bindings, self.outer, self.ctx);
        self.memos = probe_memos(self.resolved.len());
        Ok(bindings)
    }

    fn subquery_lines(&self) -> Vec<SubqueryLine> {
        subquery_lines(&self.resolved)
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        if self.breaker {
            if self.emitter.is_none() {
                // Drain first (the subqueries' page touches must land
                // after the child's), then filter in order.
                let mut rows: Vec<Row> = Vec::new();
                while let Some(batch) = self.child.next_batch()? {
                    self.ctx.check_interrupt()?;
                    rows.extend(batch.rows);
                }
                let mut kept: Vec<Row> = Vec::new();
                for row in rows {
                    if keep_row(&row, &self.resolved, &mut self.memos, self.outer, self.ctx)? {
                        kept.push(row);
                    }
                }
                self.emitter = Some(BatchEmitter::rows_only(kept));
            }
            return Ok(self.emitter.as_mut().and_then(BatchEmitter::next));
        }
        loop {
            self.ctx.check_interrupt()?;
            let Some(RowBatch { mut rows, .. }) = self.child.next_batch()? else {
                return Ok(None);
            };
            self.filter_batch(&mut rows)?;
            if !rows.is_empty() {
                return Ok(Some(RowBatch {
                    rows,
                    keys: KeyBuf::default(),
                }));
            }
        }
    }
}
