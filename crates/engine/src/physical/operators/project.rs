use std::borrow::Cow;

use apuama_sql::ast::{Expr, Select, SelectItem};
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::EngineResult;
use crate::eval::{self, CompiledExpr, Frame, Scope};
use crate::exec::{self, Binding, ExecContext};

use crate::physical::*;

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

/// One SELECT item, compiled.
#[derive(Debug, Clone)]
pub(crate) enum ItemProg {
    Wildcard,
    Expr(CompiledExpr),
}

/// One ORDER BY key, compiled: a position in the output row (a bare column
/// naming an output column means that column, which takes precedence over
/// input-scope resolution) or an expression over the input row.
#[derive(Debug, Clone)]
pub(crate) enum OrderKeyProg {
    Output(usize),
    Expr(CompiledExpr),
}

/// Compiles a statement's SELECT items and ORDER BY keys in `scope`, the
/// scope of the row they are projected from; `out_names` names the output
/// columns.
pub(crate) fn compile_output(
    q: &Select,
    out_names: &[String],
    scope: &Scope<'_>,
) -> (Vec<ItemProg>, Vec<OrderKeyProg>) {
    let items = q
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => ItemProg::Wildcard,
            SelectItem::Expr { expr, .. } => ItemProg::Expr(eval::compile_expr(expr, scope)),
        })
        .collect();
    let order = q
        .order_by
        .iter()
        .map(|o| {
            if let Expr::Column(c) = &o.expr {
                if c.table.is_none() {
                    if let Some(pos) = out_names.iter().position(|n| n == &c.column) {
                        return OrderKeyProg::Output(pos);
                    }
                }
            }
            OrderKeyProg::Expr(eval::compile_expr(&o.expr, scope))
        })
        .collect();
    (items, order)
}

/// Computes one row's ORDER BY key straight into the batch's flat key
/// buffer — no per-row `Vec` allocation.
pub(crate) fn order_key_into(
    progs: &[OrderKeyProg],
    in_row: &[Value],
    out_row: &[Value],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
    keys: &mut KeyBuf,
) -> EngineResult<()> {
    for p in progs {
        match p {
            OrderKeyProg::Output(pos) => keys.push_val(out_row[*pos].clone()),
            OrderKeyProg::Expr(c) => keys.push_val(eval::eval_compiled(c, in_row, outer, ctx)?),
        }
    }
    keys.end_row();
    Ok(())
}

/// Projects the SELECT list and computes ORDER BY keys per row. Streams
/// unless an item or ORDER BY expression contains a subquery: then the
/// child is drained first, so the subqueries' page touches land after the
/// child's. A pure `SELECT *`, or a list that names the input's columns in
/// their order (a point read of the columns its scan keeps), moves each
/// input row into the output instead of cloning its values. With `compiled` set — the projection lowering
/// compiled ([`CompiledProject`]) — `open` compiles nothing: it borrows the
/// plan's programs, which read a parameter, if any, as they evaluate.
pub(crate) struct ProjectExec<'e> {
    q: &'e Select,
    child: Box<dyn Operator<'e> + 'e>,
    compiled: Option<&'e CompiledProject>,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    breaker: bool,
    /// Each input row is its output row: set at `open`.
    pass_rows: bool,
    out_width: usize,
    /// Item and order-key programs, compiled at `open` or borrowed from
    /// the plan.
    progs: (Cow<'e, [ItemProg]>, Cow<'e, [OrderKeyProg]>),
    emitter: Option<BatchEmitter>,
}

impl<'e> ProjectExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        child: Box<dyn Operator<'e> + 'e>,
        compiled: Option<&'e CompiledProject>,
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
            compiled,
            outer,
            ctx,
            breaker: item_subquery || order_subquery,
            pass_rows: false,
            out_width: 0,
            progs: (Cow::Borrowed(&[]), Cow::Borrowed(&[])),
            emitter: None,
        }
    }

    /// One output row built per input row, one cpu charge per row, flushed
    /// once per batch.
    fn project(&self, rows: Vec<Row>) -> EngineResult<(Vec<Row>, KeyBuf)> {
        let (items, order) = &self.progs;
        let (outer, ctx) = (self.outer, self.ctx);
        let mut cpu = 0u64;
        let mut keys = KeyBuf::with_capacity(order.len(), rows.len());
        if self.pass_rows {
            // The output row IS the input row, moved.
            for row in &rows {
                cpu += 1;
                order_key_into(order, row, row, outer, ctx, &mut keys)?;
            }
            ctx.bump_cpu(cpu);
            return Ok((rows, keys));
        }
        let mut out_rows = Vec::with_capacity(rows.len());
        for row in &rows {
            cpu += 1;
            let mut out_row = Vec::with_capacity(self.out_width);
            for item in items.iter() {
                match item {
                    ItemProg::Wildcard => out_row.extend(row.iter().cloned()),
                    ItemProg::Expr(c) => out_row.push(eval::eval_compiled(c, row, outer, ctx)?),
                }
            }
            order_key_into(order, row, &out_row, outer, ctx, &mut keys)?;
            out_rows.push(out_row);
        }
        ctx.bump_cpu(cpu);
        Ok((out_rows, keys))
    }
}

impl<'e> Operator<'e> for ProjectExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        let in_bindings = self.child.open()?;
        let out_bindings = match self.compiled {
            Some(c) => {
                self.progs = (Cow::Borrowed(&c.items), Cow::Borrowed(&c.order));
                Cow::Borrowed(&c.out_bindings[..])
            }
            None => {
                let out_bindings = exec::output_bindings(self.q, &in_bindings);
                let out_names: Vec<String> = out_bindings.iter().map(|b| b.name.clone()).collect();
                let scope = Scope::new(&in_bindings, self.outer, self.ctx);
                let (items, order) = compile_output(self.q, &out_names, &scope);
                self.progs = (Cow::Owned(items), Cow::Owned(order));
                Cow::Owned(out_bindings)
            }
        };
        self.out_width = out_bindings.len();
        let items = &self.progs.0;
        self.pass_rows = matches!(self.q.items.as_slice(), [SelectItem::Wildcard])
            || (items.len() == in_bindings.len()
                && (items.iter().enumerate()).all(
                    |(i, item)| matches!(item, ItemProg::Expr(CompiledExpr::Col(c)) if *c == i),
                ));
        Ok(out_bindings)
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
                    let (mut r, k) = self.project(b)?;
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
        let (rows, keys) = self.project(batch.rows)?;
        Ok(Some(RowBatch { rows, keys }))
    }
}
