use std::collections::HashMap;

use apuama_sql::ast::Select;
use apuama_sql::value::HashableValue;
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::EngineResult;
use crate::eval::{self, eval_expr, CompiledExpr, Frame};
use crate::exec::{self, Acc, AggSpec, Binding, ExecContext, GroupState};

use crate::physical::*;

// ---------------------------------------------------------------------------
// HashAggregate
// ---------------------------------------------------------------------------

/// Hash aggregation: folds input batches into group accumulators, then
/// finalizes through [`exec::project_groups`] (HAVING, the select-list
/// projection with aggregates substituted, ORDER BY keys). Folding streams
/// unless a group-by key or aggregate argument contains a subquery.
/// One aggregate argument, pre-compiled: `None` covers both `count(*)` and zero-argument aggregates.
pub(crate) enum AggArg {
    None,
    Expr(CompiledExpr),
}

pub(crate) struct AggregateExec<'e> {
    q: &'e Select,
    child: Box<dyn Operator<'e> + 'e>,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    breaker: bool,
    specs: Vec<AggSpec>,
    in_bindings: Vec<Binding>,
    /// Compiled group-key + aggregate-argument programs; `Some` when the
    /// fold streams and everything compiles (else the framed fold runs).
    progs: Option<(Vec<KeyProg>, Vec<AggArg>)>,
    emitter: Option<BatchEmitter>,
}

impl<'e> AggregateExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        child: Box<dyn Operator<'e> + 'e>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        let specs = exec::collect_agg_specs(q);
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
            progs: None,
            emitter: None,
        }
    }

    pub(crate) fn compile_agg_progs(&self) -> Option<(Vec<KeyProg>, Vec<AggArg>)> {
        let keys = compile_key_progs(&self.q.group_by, &self.in_bindings, self.ctx)?;
        let mut args = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            args.push(match (&spec.arg, spec.star) {
                (_, true) | (None, _) => AggArg::None,
                (Some(arg), false) => AggArg::Expr(eval::prebind_params(
                    &eval::compile_expr(arg, &self.in_bindings)?,
                    self.ctx,
                )),
            });
        }
        Some((keys, args))
    }

    pub(crate) fn fold_row(
        &self,
        row: &Row,
        specs: &[AggSpec],
        groups: &mut HashMap<Vec<HashableValue>, GroupState>,
        order: &mut Vec<Vec<HashableValue>>,
    ) -> EngineResult<()> {
        self.ctx.bump_cpu(1);
        let mut frames = Vec::with_capacity(self.outer.len() + 1);
        frames.push(Frame {
            bindings: &self.in_bindings,
            row,
        });
        frames.extend_from_slice(self.outer);
        let mut key = Vec::with_capacity(self.q.group_by.len());
        for g in &self.q.group_by {
            key.push(eval_expr(g, &frames, self.ctx)?.hash_key());
        }
        let group = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                // Key clone only on first sight of a group: the map owns the
                // key, the first-seen order list needs its own copy.
                order.push(e.key().clone());
                e.insert(GroupState {
                    rep_row: row.clone(),
                    accs: specs.iter().map(Acc::new).collect(),
                })
            }
        };
        for (spec, acc) in specs.iter().zip(group.accs.iter_mut()) {
            let v = match (&spec.arg, spec.star) {
                (_, true) | (None, _) => None,
                (Some(arg), false) => Some(eval_expr(arg, &frames, self.ctx)?),
            };
            acc.update(v)?;
        }
        Ok(())
    }
}

impl<'e> Operator<'e> for AggregateExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        self.in_bindings = self.child.open()?;
        if !self.breaker {
            self.progs = self.compile_agg_progs();
        }
        Ok(exec::output_bindings(self.q, &self.in_bindings))
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        if self.emitter.is_none() {
            // Group-state growth is charged against the memory budget at
            // batch grain: one charge per batch covering the groups it
            // created (state width ≈ rep row + one accumulator per spec).
            let state_width = self.in_bindings.len() + self.specs.len();
            let mut charged_groups = 0u64;
            let states: Vec<GroupState> = if let Some((key_progs, arg_progs)) = &self.progs {
                // Compiled fold: positional key/argument programs over the
                // batch's rows, group lookup without key clones, cpu flushed
                // once per batch (one op per row).
                let mut table = GroupTable::new();
                let mut scratch: Vec<Value> = Vec::new();
                while let Some(batch) = self.child.next_batch()? {
                    self.ctx.check_interrupt()?;
                    let mut cpu = 0u64;
                    for row in &batch.rows {
                        cpu += 1;
                        eval_key_scratch(key_progs, row, self.ctx, &mut scratch)?;
                        let specs = &self.specs;
                        let group = table.find_or_insert(key_progs, row, &scratch, || GroupState {
                            rep_row: row.to_vec(),
                            accs: specs.iter().map(Acc::new).collect(),
                        });
                        for (prog, acc) in arg_progs.iter().zip(group.accs.iter_mut()) {
                            let v = match prog {
                                AggArg::None => None,
                                AggArg::Expr(c) => Some(eval::eval_compiled(c, row, self.ctx)?),
                            };
                            acc.update(v)?;
                        }
                    }
                    self.ctx.bump_cpu(cpu);
                    let groups = table.len() as u64;
                    self.ctx.charge_mem(exec::approx_state_bytes(
                        groups - charged_groups,
                        state_width,
                    ))?;
                    charged_groups = groups;
                }
                table.into_states()
            } else {
                let mut groups: HashMap<Vec<HashableValue>, GroupState> = HashMap::new();
                let mut order: Vec<Vec<HashableValue>> = Vec::new();
                if self.breaker {
                    // Drain first (subquery page touches land after the
                    // child's), then fold each row by reference. The
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
                    for b in &batches {
                        for row in b {
                            self.fold_row(row, &self.specs, &mut groups, &mut order)?;
                        }
                    }
                    self.ctx
                        .charge_mem(exec::approx_state_bytes(groups.len() as u64, state_width))?;
                } else {
                    while let Some(batch) = self.child.next_batch()? {
                        self.ctx.check_interrupt()?;
                        for row in &batch.rows {
                            self.fold_row(row, &self.specs, &mut groups, &mut order)?;
                        }
                        let n = groups.len() as u64;
                        self.ctx.charge_mem(exec::approx_state_bytes(
                            n - charged_groups,
                            state_width,
                        ))?;
                        charged_groups = n;
                    }
                }
                order
                    .into_iter()
                    .map(|k| groups.remove(&k).expect("order tracks the map's keys"))
                    .collect()
            };
            let (rel, keys) = exec::project_groups(
                self.q,
                &self.in_bindings,
                &self.specs,
                states,
                self.outer,
                self.ctx,
            )?;
            self.emitter = Some(BatchEmitter::nested(rel.rows, keys));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}
