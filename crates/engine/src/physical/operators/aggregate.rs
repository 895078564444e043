use std::borrow::Cow;

use apuama_sql::ast::Select;
use apuama_sql::Value;
use apuama_storage::Row;

use crate::agg::{self, Acc, AggSpec, GroupState, Groups};
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, truthiness, CompiledExpr, Frame, Scope};
use crate::exec::{self, Binding, ExecContext};

use crate::physical::*;

// ---------------------------------------------------------------------------
// HashAggregate
// ---------------------------------------------------------------------------

/// Hash aggregation: folds input batches into group accumulators, then
/// finalizes through [`project_groups`] (HAVING, the select-list projection,
/// ORDER BY keys). Folding streams unless a group-by key or aggregate
/// argument contains a subquery: then the child is drained first, so the
/// subqueries' page touches land after the child's.
pub(crate) struct AggregateExec<'e> {
    q: &'e Select,
    child: Box<dyn Operator<'e> + 'e>,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    breaker: bool,
    specs: Vec<AggSpec>,
    in_bindings: Vec<Binding>,
    /// Group-key programs and one argument program per spec (`None` covers
    /// both `count(*)` and zero-argument aggregates), compiled at `open`.
    progs: (Vec<KeyProg>, Vec<Option<CompiledExpr>>),
    emitter: Option<BatchEmitter>,
}

impl<'e> AggregateExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        child: Box<dyn Operator<'e> + 'e>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        let specs = agg::collect_agg_specs(q);
        let breaker = q.group_by.iter().any(exec::contains_subquery)
            || specs
                .iter()
                .any(|s| s.arg.as_ref().is_some_and(exec::contains_subquery));
        AggregateExec {
            q,
            child,
            outer,
            ctx,
            breaker,
            specs,
            in_bindings: Vec::new(),
            progs: (Vec::new(), Vec::new()),
            emitter: None,
        }
    }

    /// Folds one batch: positional key/argument programs over its rows,
    /// group lookup without key clones, cpu flushed once (one op per row).
    fn fold(&self, rows: &[Row], table: &mut Groups, scratch: &mut Vec<Value>) -> EngineResult<()> {
        let (key_progs, arg_progs) = &self.progs;
        let (outer, ctx) = (self.outer, self.ctx);
        for row in rows {
            eval_key_scratch(key_progs, row, outer, ctx, scratch)?;
            let group = table.find_or_insert(key_progs, row, scratch, || GroupState {
                rep_row: row.to_vec(),
                accs: self.specs.iter().map(Acc::new).collect(),
            });
            for (prog, acc) in arg_progs.iter().zip(group.accs.iter_mut()) {
                let arg = prog
                    .as_ref()
                    .map(|c| eval::eval_compiled(c, row, outer, ctx));
                acc.update(arg.transpose()?)?;
            }
        }
        ctx.bump_cpu(rows.len() as u64);
        Ok(())
    }
}

impl<'e> Operator<'e> for AggregateExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        self.in_bindings = self.child.open()?.into_owned();
        let scope = Scope::new(&self.in_bindings, self.outer, self.ctx);
        let keys = key_progs(
            self.q
                .group_by
                .iter()
                .map(|g| eval::compile_expr(g, &scope)),
        );
        let args = (self.specs.iter())
            .map(|spec| match (&spec.arg, spec.star) {
                (_, true) | (None, _) => None,
                (Some(arg), false) => Some(eval::compile_expr(arg, &scope)),
            })
            .collect();
        self.progs = (keys, args);
        Ok(exec::output_bindings(self.q, &self.in_bindings).into())
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        if self.emitter.is_none() {
            // Group-state growth is charged against the memory budget at
            // batch grain: one charge per batch covering the groups it
            // created (state width ≈ rep row + one accumulator per spec).
            let state_width = self.in_bindings.len() + self.specs.len();
            let mut table = Groups::new();
            let mut scratch: Vec<Value> = Vec::new();
            if self.breaker {
                // Drain first, then fold each row by reference. The
                // buffered input is charged per batch as it arrives.
                let mut batches: Vec<Vec<Row>> = Vec::new();
                while let Some(batch) = self.child.next_batch()? {
                    self.ctx.check_interrupt()?;
                    self.ctx.charge_mem(exec::approx_state_bytes(
                        batch.rows.len() as u64,
                        self.in_bindings.len(),
                    ))?;
                    batches.push(batch.rows);
                }
                for rows in &batches {
                    self.fold(rows, &mut table, &mut scratch)?;
                }
                self.ctx
                    .charge_mem(exec::approx_state_bytes(table.len() as u64, state_width))?;
            } else {
                let mut charged_groups = 0u64;
                while let Some(batch) = self.child.next_batch()? {
                    self.ctx.check_interrupt()?;
                    self.fold(&batch.rows, &mut table, &mut scratch)?;
                    let groups = table.len() as u64;
                    self.ctx.charge_mem(exec::approx_state_bytes(
                        groups - charged_groups,
                        state_width,
                    ))?;
                    charged_groups = groups;
                }
            }
            let (rows, keys) = project_groups(
                self.q,
                &self.in_bindings,
                &self.specs,
                table.into_states(),
                self.outer,
                self.ctx,
            )?;
            self.emitter = Some(BatchEmitter::new(rows, keys));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}

/// Finalizes accumulated groups into output rows: the empty-input global
/// group, HAVING, the select list and ORDER BY keys. `groups` arrives in
/// first-seen order. HAVING, items and keys are compiled once, against the
/// *group row* — a group's representative input row followed by the
/// finalized value of each aggregate, which is where an aggregate call in
/// them reads its value from ([`Scope::aggs`]) — and evaluated per group in
/// that order, so a group HAVING rejects raises nothing from its select
/// list. Shared by the general aggregation operator and the fused pipeline
/// (which supplies its own accumulation loop) so both shapes finish
/// identically.
pub(crate) fn project_groups(
    q: &Select,
    input_bindings: &[Binding],
    specs: &[AggSpec],
    mut groups: Vec<GroupState>,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<(Vec<Row>, KeyBuf)> {
    // Global aggregation over an empty input still yields one group.
    if groups.is_empty() && q.group_by.is_empty() {
        groups.push(GroupState {
            rep_row: vec![Value::Null; input_bindings.len()],
            accs: specs.iter().map(Acc::new).collect(),
        });
    }

    let scope = Scope {
        aggs: specs,
        ..Scope::new(input_bindings, outer, ctx)
    };
    let having = q.having.as_ref().map(|h| eval::compile_expr(h, &scope));
    let out_names: Vec<String> = (exec::output_bindings(q, input_bindings).into_iter())
        .map(|b| b.name)
        .collect();
    let (items, order) = compile_output(q, &out_names, &scope);

    let mut rows = Vec::with_capacity(groups.len());
    let mut keys = KeyBuf::with_capacity(order.len(), groups.len());
    for group in groups {
        let mut row = group.rep_row;
        row.extend(group.accs.into_iter().map(Acc::finalize));
        if let Some(h) = &having {
            if truthiness(&eval::eval_compiled(h, &row, outer, ctx)?) != Some(true) {
                continue;
            }
        }
        let mut out_row = Vec::with_capacity(items.len());
        for item in &items {
            match item {
                ItemProg::Wildcard => {
                    return Err(EngineError::Unsupported("SELECT * with aggregation".into()))
                }
                ItemProg::Expr(c) => out_row.push(eval::eval_compiled(c, &row, outer, ctx)?),
            }
        }
        order_key_into(&order, &row, &out_row, outer, ctx, &mut keys)?;
        rows.push(out_row);
    }
    Ok((rows, keys))
}
