use std::borrow::Cow;
use std::collections::HashSet;

use apuama_sql::ast::Select;
use apuama_sql::value::HashableValue;
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::EngineResult;
use crate::exec::{self, Binding, ExecContext};

use crate::physical::*;

// ---------------------------------------------------------------------------
// Distinct, Sort, Limit
// ---------------------------------------------------------------------------

/// Streaming DISTINCT over whole output rows, preserving first-seen order
/// and the row-parallel sort keys. Charges no cpu, like the interpreter,
/// but its seen-set growth counts against the memory budget.
pub(crate) struct DistinctExec<'e> {
    child: Box<dyn Operator<'e> + 'e>,
    ctx: &'e ExecContext<'e>,
    seen: HashSet<Vec<HashableValue>>,
}

impl<'e> DistinctExec<'e> {
    pub(crate) fn new(child: Box<dyn Operator<'e> + 'e>, ctx: &'e ExecContext<'e>) -> Self {
        DistinctExec {
            child,
            ctx,
            seen: HashSet::new(),
        }
    }
}

impl<'e> Operator<'e> for DistinctExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        self.child.open()
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        loop {
            self.ctx.check_interrupt()?;
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let in_rows = batch.rows;
            let width = in_rows.first().map_or(0, Vec::len);
            let mut rows = Vec::with_capacity(in_rows.len());
            let stride = batch.keys.stride();
            let mut keys = KeyBuf::with_capacity(stride, batch.keys.len());
            let mut key_vals = batch.keys.into_vals().into_iter();
            for row in in_rows {
                let k: Vec<HashableValue> = row.iter().map(Value::hash_key).collect();
                if self.seen.insert(k) {
                    for v in key_vals.by_ref().take(stride) {
                        keys.push_val(v);
                    }
                    keys.end_row();
                    rows.push(row);
                } else if stride > 0 {
                    key_vals.by_ref().take(stride).for_each(drop);
                }
            }
            // Every emitted row added one key to the seen set.
            self.ctx
                .charge_mem(exec::approx_state_bytes(rows.len() as u64, width))?;
            if !rows.is_empty() {
                return Ok(Some(RowBatch { rows, keys }));
            }
        }
    }
}
/// Pipeline breaker: drains the child, charges the interpreter's `n·log n`
/// comparison estimate once, and re-emits rows in key order. The sort keys
/// were computed by the projection stage; they are consumed here.
///
/// The sort is **stable**: rows whose keys compare equal on every ORDER BY
/// component (per [`Value::sort_cmp`], including its NULL and NaN ranking)
/// keep their input order — `sort_by` over an index vector never reorders
/// equal elements, and DESC reverses each key comparison, not the tie
/// order. Tests rely on this for deterministic output on duplicate keys.
pub(crate) struct SortExec<'e> {
    q: &'e Select,
    child: Box<dyn Operator<'e> + 'e>,
    ctx: &'e ExecContext<'e>,
    emitter: Option<BatchEmitter>,
}

impl<'e> SortExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        child: Box<dyn Operator<'e> + 'e>,
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        SortExec {
            q,
            child,
            ctx,
            emitter: None,
        }
    }
}

impl<'e> Operator<'e> for SortExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        self.child.open()
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        if self.emitter.is_none() {
            let mut rows: Vec<Row> = Vec::new();
            let mut sort_keys = KeyBuf::default();
            let n_keys = self.q.order_by.len();
            while let Some(batch) = self.child.next_batch()? {
                self.ctx.check_interrupt()?;
                let width = batch.rows.first().map_or(0, Vec::len);
                self.ctx.charge_mem(exec::approx_state_bytes(
                    batch.rows.len() as u64,
                    width + n_keys,
                ))?;
                rows.extend(batch.rows);
                sort_keys.append(batch.keys);
            }
            let descs: Vec<bool> = self.q.order_by.iter().map(|o| o.desc).collect();
            let n = rows.len();
            self.ctx
                .bump_cpu((n as f64 * (n.max(2) as f64).log2()) as u64);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| {
                for (k, desc) in sort_keys.key(a).iter().zip(sort_keys.key(b)).zip(&descs) {
                    let ((x, y), desc) = (k, *desc);
                    let ord = x.sort_cmp(y);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut sorted = Vec::with_capacity(rows.len());
            for i in idx {
                sorted.push(std::mem::take(&mut rows[i]));
            }
            self.emitter = Some(BatchEmitter::rows_only(sorted));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}

/// LIMIT truncates after its input is fully produced — the interpreter
/// never terminated upstream work early, and row/page counters must not
/// change, so neither does the pipeline.
pub(crate) struct LimitExec<'e> {
    limit: u64,
    child: Box<dyn Operator<'e> + 'e>,
    ctx: &'e ExecContext<'e>,
    emitter: Option<BatchEmitter>,
}

impl<'e> LimitExec<'e> {
    pub(crate) fn new(
        limit: u64,
        child: Box<dyn Operator<'e> + 'e>,
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        LimitExec {
            limit,
            child,
            ctx,
            emitter: None,
        }
    }
}

impl<'e> Operator<'e> for LimitExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        self.child.open()
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        if self.emitter.is_none() {
            // The child is still drained in full (counters must not
            // change), but rows past the limit are dropped on arrival
            // instead of being materialized and truncated afterwards.
            let limit = self.limit as usize;
            let mut rows: Vec<Row> = Vec::new();
            while let Some(batch) = self.child.next_batch()? {
                self.ctx.check_interrupt()?;
                let room = limit.saturating_sub(rows.len());
                rows.extend(batch.rows.into_iter().take(room));
            }
            self.emitter = Some(BatchEmitter::rows_only(rows));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}
