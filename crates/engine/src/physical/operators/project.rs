use apuama_sql::ast::{Expr, Select, SelectItem};
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::EngineResult;
use crate::eval::{self, eval_expr, CompiledExpr, Frame};
use crate::exec::{self, Binding, ExecContext};

use crate::physical::*;

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

/// Projects the SELECT list and computes ORDER BY keys per row. Streams
/// unless an item or ORDER BY expression contains a subquery. A pure
/// `SELECT *` moves each input row into the output instead of cloning its
/// values.
/// One SELECT item, pre-compiled.
pub(crate) enum ItemProg {
    Wildcard,
    Expr(CompiledExpr),
}

/// One ORDER BY key, pre-compiled: a position in the output row (the
/// bare-column-names-the-output rule of [`exec::sort_key_for_row`], which
/// takes precedence over input-scope resolution) or a compiled expression
/// over the input row.
pub(crate) enum OrderKeyProg {
    Output(usize),
    Expr(CompiledExpr),
}

pub(crate) struct ProjectExec<'e> {
    q: &'e Select,
    child: Box<dyn Operator<'e> + 'e>,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    breaker: bool,
    wildcard_only: bool,
    in_bindings: Vec<Binding>,
    out_bindings: Vec<Binding>,
    out_names: Vec<String>,
    /// Compiled item + order-key programs; `Some` when the projection
    /// streams and every expression compiles (else the framed path runs).
    progs: Option<(Vec<ItemProg>, Vec<OrderKeyProg>)>,
    emitter: Option<BatchEmitter>,
}

impl<'e> ProjectExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        child: Box<dyn Operator<'e> + 'e>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        let item_subquery = q.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => exec::contains_subquery(expr),
            SelectItem::Wildcard => false,
        });
        let order_subquery = q.order_by.iter().any(|o| exec::contains_subquery(&o.expr));
        ProjectExec {
            q,
            child,
            outer,
            ctx,
            breaker: item_subquery || order_subquery,
            wildcard_only: matches!(q.items.as_slice(), [SelectItem::Wildcard]),
            in_bindings: Vec::new(),
            out_bindings: Vec::new(),
            out_names: Vec::new(),
            progs: None,
            emitter: None,
        }
    }

    /// Compiles every SELECT item and ORDER BY key into positional
    /// programs (parameters folded in); `None` when anything needs framed
    /// evaluation.
    pub(crate) fn compile_progs(&self) -> Option<(Vec<ItemProg>, Vec<OrderKeyProg>)> {
        let mut items = Vec::with_capacity(self.q.items.len());
        for item in &self.q.items {
            items.push(match item {
                SelectItem::Wildcard => ItemProg::Wildcard,
                SelectItem::Expr { expr, .. } => ItemProg::Expr(eval::prebind_params(
                    &eval::compile_expr(expr, &self.in_bindings)?,
                    self.ctx,
                )),
            });
        }
        let mut order = Vec::with_capacity(self.q.order_by.len());
        for o in &self.q.order_by {
            if let Expr::Column(c) = &o.expr {
                if c.table.is_none() {
                    if let Some(pos) = self.out_names.iter().position(|n| n == &c.column) {
                        order.push(OrderKeyProg::Output(pos));
                        continue;
                    }
                }
            }
            order.push(OrderKeyProg::Expr(eval::prebind_params(
                &eval::compile_expr(&o.expr, &self.in_bindings)?,
                self.ctx,
            )));
        }
        Some((items, order))
    }

    /// Computes one row's ORDER BY key straight into the batch's flat key
    /// buffer — no per-row `Vec` allocation on the compiled path.
    pub(crate) fn order_key_into(
        progs: &[OrderKeyProg],
        in_row: &[Value],
        out_row: &[Value],
        ctx: &ExecContext<'_>,
        keys: &mut KeyBuf,
    ) -> EngineResult<()> {
        for p in progs {
            match p {
                OrderKeyProg::Output(pos) => keys.push_val(out_row[*pos].clone()),
                OrderKeyProg::Expr(c) => keys.push_val(eval::eval_compiled(c, in_row, ctx)?),
            }
        }
        keys.end_row();
        Ok(())
    }

    /// Compiled projection: one output row built per input row (no
    /// intermediate frame vectors), cpu flushed once per batch.
    pub(crate) fn project_compiled(
        &self,
        rows: Vec<Row>,
        items: &[ItemProg],
        order: &[OrderKeyProg],
    ) -> EngineResult<(Vec<Row>, KeyBuf)> {
        let mut cpu = 0u64;
        let mut out_rows = Vec::with_capacity(rows.len());
        let mut keys = KeyBuf::with_capacity(order.len(), rows.len());
        if self.wildcard_only {
            // `SELECT *`: the output row IS the input row, moved.
            for row in rows {
                cpu += 1;
                Self::order_key_into(order, &row, &row, self.ctx, &mut keys)?;
                out_rows.push(row);
            }
        } else {
            for row in &rows {
                cpu += 1;
                let mut out_row = Vec::with_capacity(self.out_bindings.len());
                for item in items {
                    match item {
                        ItemProg::Wildcard => out_row.extend(row.iter().cloned()),
                        ItemProg::Expr(c) => out_row.push(eval::eval_compiled(c, row, self.ctx)?),
                    }
                }
                Self::order_key_into(order, row, &out_row, self.ctx, &mut keys)?;
                out_rows.push(out_row);
            }
        }
        self.ctx.bump_cpu(cpu);
        Ok((out_rows, keys))
    }

    /// The interpreted fallback — a pipeline breaker, or an expression that
    /// does not compile: each row is evaluated with frames, one cpu charge
    /// per row. An input row is moved into the output when the select list
    /// re-emits it whole, `SELECT *`.
    fn project_framed(&self, in_rows: Vec<Row>) -> EngineResult<(Vec<Row>, KeyBuf)> {
        let names: Vec<&str> = self.out_names.iter().map(|s| s.as_str()).collect();
        let mut rows = Vec::with_capacity(in_rows.len());
        let mut keys = KeyBuf::with_capacity(self.q.order_by.len(), in_rows.len());
        // `None`: the output row IS the input row.
        let mut project = |row: &Row| -> EngineResult<Option<Row>> {
            self.ctx.bump_cpu(1);
            let mut frames = Vec::with_capacity(self.outer.len() + 1);
            frames.push(Frame {
                bindings: &self.in_bindings,
                row,
            });
            frames.extend_from_slice(self.outer);
            let mut out_row = None;
            if !self.wildcard_only {
                let out_row = out_row.insert(Vec::with_capacity(self.out_bindings.len()));
                for item in &self.q.items {
                    match item {
                        SelectItem::Wildcard => out_row.extend(row.iter().cloned()),
                        SelectItem::Expr { expr, .. } => {
                            out_row.push(eval_expr(expr, &frames, self.ctx)?)
                        }
                    }
                }
            }
            keys.push_key(exec::sort_key_for_row(
                &self.q.order_by,
                &names,
                out_row.as_ref().unwrap_or(row),
                &frames,
                self.ctx,
                None,
            )?);
            Ok(out_row)
        };
        for row in in_rows {
            let out_row = project(&row)?;
            rows.push(out_row.unwrap_or(row));
        }
        Ok((rows, keys))
    }
}

impl<'e> Operator<'e> for ProjectExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        self.in_bindings = self.child.open()?;
        self.out_bindings = exec::output_bindings(self.q, &self.in_bindings);
        self.out_names = self.out_bindings.iter().map(|b| b.name.clone()).collect();
        if !self.breaker {
            self.progs = self.compile_progs();
        }
        Ok(self.out_bindings.clone())
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        if self.breaker {
            if self.emitter.is_none() {
                // Drain first, then project in order.
                let mut batches: Vec<Vec<Row>> = Vec::new();
                while let Some(batch) = self.child.next_batch()? {
                    self.ctx.check_interrupt()?;
                    batches.push(batch.rows);
                }
                let mut rows = Vec::new();
                let mut keys = KeyBuf::default();
                for b in batches {
                    let (mut r, k) = self.project_framed(b)?;
                    rows.append(&mut r);
                    keys.append(k);
                }
                self.emitter = Some(BatchEmitter::new(rows, keys));
            }
            return Ok(self.emitter.as_mut().and_then(BatchEmitter::next));
        }
        let Some(batch) = self.child.next_batch()? else {
            return Ok(None);
        };
        let (rows, keys) = match &self.progs {
            Some((items, order)) => self.project_compiled(batch.rows, items, order)?,
            None => self.project_framed(batch.rows)?,
        };
        Ok(Some(RowBatch { rows, keys }))
    }
}
