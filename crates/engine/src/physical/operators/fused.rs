use apuama_sql::ast::{Expr, Select};
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, CompiledExpr, Frame};
use crate::exec::{self, Acc, Binding, ExecContext, GroupState, Relation};
use crate::planner::ScanChoice;
use crate::table::Table;

use crate::physical::*;

// ---------------------------------------------------------------------------
// Fused scan→filter→aggregate
// ---------------------------------------------------------------------------

/// One aggregate input, pre-resolved: no per-row work for `count(*)`,
/// a direct positional read for plain-column arguments (the common
/// kernel case), a compiled program otherwise.
pub(crate) enum FusedArg {
    None,
    Col(usize),
    Expr(CompiledExpr),
}

/// The fused kernel's fold, specialized once per execution and then shared
/// read-only: [`FusedExec`] folds scan batches through it, the workers of
/// [`ParallelFusedExec`] fold morsels. Residual scan predicates run before
/// post predicates, in plan order; all programs have bound parameters
/// folded in, `col <cmp> literal` predicates are sunk to direct
/// comparisons, group keys are positional programs.
pub(crate) struct FusedFold<'p> {
    plan: &'p FusedPlan,
    preds: Vec<ResidualPred>,
    key_progs: Vec<KeyProg>,
    agg_args: Vec<FusedArg>,
    /// The vectorized inner loop, when the plan shape is fully positional.
    /// Per-batch eligibility (mixed-type or NaN-bearing predicate columns)
    /// is re-checked inside [`ColumnarFused::fold`], which then declines
    /// and the scalar row loop runs instead.
    columnar: Option<ColumnarFused>,
}

impl<'p> FusedFold<'p> {
    pub(crate) fn new(plan: &'p FusedPlan, choice: &ScanChoice, ctx: &ExecContext<'_>) -> Self {
        let preds: Vec<ResidualPred> = plan
            .compiled_single
            .iter()
            .enumerate()
            .filter(|(i, _)| !choice.consumed.contains(i))
            .map(|(_, c)| c)
            .chain(plan.compiled_post.iter())
            .map(|c| ResidualPred::from_compiled(eval::prebind_params(c, ctx)))
            .collect();
        let key_progs = key_progs_from_compiled(&plan.group_by, ctx);
        let agg_args: Vec<FusedArg> = plan
            .agg_args
            .iter()
            .map(|a| match a.as_ref().map(|c| eval::prebind_params(c, ctx)) {
                None => FusedArg::None,
                Some(CompiledExpr::Col(i)) => FusedArg::Col(i),
                Some(other) => FusedArg::Expr(other),
            })
            .collect();
        let columnar = ColumnarFused::try_new(&preds, &key_progs, &agg_args, plan.bindings.len());
        FusedFold {
            plan,
            preds,
            key_progs,
            agg_args,
            columnar,
        }
    }

    /// Value slots one group's state holds (representative row plus one
    /// accumulator per aggregate), for the memory charges.
    pub(crate) fn state_width(&self) -> usize {
        self.plan.bindings.len() + self.plan.specs.len()
    }

    /// Folds `rows` — a scan batch or a morsel — into `groups` and returns
    /// the `cpu_tuple_ops` they cost: one per predicate evaluated, one per
    /// surviving row's aggregation update. Columnar when the batch allows
    /// it; a decline touches neither groups nor counters, so the scalar
    /// loop then starts from the same state.
    pub(crate) fn fold(
        &self,
        rows: &[&Row],
        groups: &mut FusedGroups,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<u64> {
        if let Some(cf) = &self.columnar {
            if let Some(cpu) = cf.fold(rows, &self.preds, &self.plan.specs, groups)? {
                return Ok(cpu);
            }
        }
        let mut cpu = 0u64;
        let mut scratch: Vec<Value> = Vec::new();
        for &row in rows {
            // Fused predicates are all compiled, so no frame is consulted.
            if !self.preds.is_empty()
                && !keep_row_charged(row, &self.plan.bindings, &self.preds, &[], ctx, || cpu += 1)?
            {
                continue;
            }
            cpu += 1; // the aggregation update the general loop charges
            eval_key_scratch(&self.key_progs, row, ctx, &mut scratch)?;
            let group = groups.find_or_insert(&self.key_progs, row, &scratch, || GroupState {
                rep_row: row.to_vec(),
                accs: self.plan.specs.iter().map(Acc::new).collect(),
            });
            for (arg, acc) in self.agg_args.iter().zip(group.accs.iter_mut()) {
                let v = match arg {
                    FusedArg::None => None,
                    FusedArg::Col(i) => Some(row[*i].clone()),
                    FusedArg::Expr(a) => Some(eval::eval_compiled(a, row, ctx)?),
                };
                acc.update(v)?;
            }
        }
        Ok(cpu)
    }
}

/// What one fused execution decides before any row is read: the table, the
/// access path chosen from the bound values, the conjuncts left to the row
/// level, and the fold specialized for them.
pub(crate) struct FusedScan<'e> {
    pub(crate) table: &'e Table,
    pub(crate) choice: ScanChoice,
    pub(crate) residual_exprs: Vec<&'e Expr>,
    pub(crate) fold: FusedFold<'e>,
}

/// The fusion rule's executor: one pass over the base table in borrowed
/// [`exec::SCAN_BATCH_ROWS`]-row batches, predicates and aggregate updates
/// evaluated positionally against borrowed rows, statistics charged once
/// per batch. Finishes through the same [`exec::project_groups`] as the
/// general tree, which is what keeps the two shapes byte-identical.
pub(crate) struct FusedExec<'e> {
    q: &'e Select,
    pub(crate) plan: &'e FusedPlan,
    outer: &'e [Frame<'e>],
    pub(crate) ctx: &'e ExecContext<'e>,
    emitter: Option<BatchEmitter>,
}

impl<'e> FusedExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        plan: &'e FusedPlan,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        FusedExec {
            q,
            plan,
            outer,
            ctx,
            emitter: None,
        }
    }

    pub(crate) fn plan_scan(&self) -> EngineResult<FusedScan<'e>> {
        let (plan, ctx) = (self.plan, self.ctx);
        let table = ctx
            .db
            .table(&plan.table)
            .ok_or_else(|| EngineError::UnknownTable(plan.table.clone()))?;
        let (choice, residual_exprs) = plan_scan(table, &plan.binding_name, &plan.single, ctx);
        Ok(FusedScan {
            table,
            fold: FusedFold::new(plan, &choice, ctx),
            choice,
            residual_exprs,
        })
    }

    /// The serial pass: the cursor's rows, a batch at a time, through the
    /// fold. Each batch is also the kernel's cancellation point and
    /// memory-charge boundary.
    pub(crate) fn fold_serial(&self, scan: &FusedScan<'e>) -> EngineResult<FusedGroups> {
        let ctx = self.ctx;
        let mut groups = FusedGroups::new();
        let mut charged_groups = 0u64;
        let mut cursor = ScanCursor::open(
            scan.table,
            &self.plan.bindings,
            &scan.choice.path,
            &scan.residual_exprs,
            ctx,
        );
        let batch_cap = exec::SCAN_BATCH_ROWS as usize;
        let mut batch: Vec<&Row> = Vec::with_capacity(batch_cap);
        loop {
            batch.clear();
            while batch.len() < batch_cap {
                let Some((_, row)) = cursor.next(ctx) else {
                    break;
                };
                batch.push(row);
            }
            if batch.is_empty() {
                return Ok(groups);
            }
            ctx.check_interrupt()?;
            ctx.bump_rows_scanned(batch.len() as u64);
            ctx.bump_scan_batches(1);
            ctx.bump_cpu(scan.fold.fold(&batch, &mut groups, ctx)?);
            let n = groups.len() as u64;
            ctx.charge_mem(exec::approx_state_bytes(
                n - charged_groups,
                scan.fold.state_width(),
            ))?;
            charged_groups = n;
        }
    }

    /// HAVING, the select list with aggregates substituted, ORDER BY keys.
    pub(crate) fn finish(&self, groups: FusedGroups) -> EngineResult<(Relation, Vec<Vec<Value>>)> {
        exec::project_groups(
            self.q,
            &self.plan.bindings,
            &self.plan.specs,
            groups.into_states(),
            self.outer,
            self.ctx,
        )
    }
}

impl<'e> Operator<'e> for FusedExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        Ok(exec::output_bindings(self.q, &self.plan.bindings))
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        if self.emitter.is_none() {
            let groups = self.fold_serial(&self.plan_scan()?)?;
            let (rel, keys) = self.finish(groups)?;
            self.emitter = Some(BatchEmitter::nested(rel.rows, keys));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use apuama_sql::ast::Statement;

    /// The predicate column is all-Int in the first and third scan batch
    /// and mixes Int with Float in the second, so the columnar fold takes
    /// batches one and three and declines the second mid-stream. Cpu cost
    /// per batch, the groups, their first-seen order and every aggregate
    /// equal the scalar row loop's.
    #[test]
    fn a_columnar_decline_mid_stream_equals_the_scalar_fold() {
        let mut db = Database::in_memory();
        db.execute(
            "create table edge (k int not null, p float, f text, primary key (k)) \
             clustered by (k)",
        )
        .unwrap();
        let rows: Vec<Row> = (0..3000i64)
            .map(|k| {
                vec![
                    Value::Int(k),
                    if (1024..2048).contains(&k) && k % 2 == 1 {
                        Value::Float((k % 89) as f64 * 0.25)
                    } else {
                        Value::Int(k % 89)
                    },
                    Value::Str(format!("F{}", (k * 7 + k / 1000) % 5)),
                ]
            })
            .collect();
        db.load_table("edge", rows).unwrap();
        let sql = "select f, count(*) as n, sum(p) as s, min(p) as lo, max(p) as hi \
                   from edge where p >= 1 group by f";
        let Ok(Statement::Select(q)) = apuama_sql::parse_statement(sql) else {
            panic!("{sql} parses to a SELECT");
        };
        let plan = compile_fused(&q, &db).expect("the statement fuses");
        let ctx = ExecContext::new(&db);
        let table = db.table("edge").unwrap();
        let (choice, _) = plan_scan(table, "edge", &plan.single, &ctx);
        let fold = FusedFold::new(&plan, &choice, &ctx);
        let columnar = fold.columnar.as_ref().expect("a fully positional plan");
        let scalar = FusedFold {
            columnar: None,
            ..FusedFold::new(&plan, &choice, &ctx)
        };

        let all: Vec<&Row> = table.heap.iter().map(|(_, row)| row).collect();
        let declined: Vec<bool> = all
            .chunks(1024)
            .map(|batch| {
                columnar
                    .fold(batch, &fold.preds, &plan.specs, &mut FusedGroups::new())
                    .unwrap()
                    .is_none()
            })
            .collect();
        assert_eq!(declined, [false, true, false]);

        let (mut with_columnar, mut with_scalar) = (FusedGroups::new(), FusedGroups::new());
        for batch in all.chunks(1024) {
            let cpu = fold.fold(batch, &mut with_columnar, &ctx).unwrap();
            assert_eq!(cpu, scalar.fold(batch, &mut with_scalar, &ctx).unwrap());
            assert_eq!(with_columnar.len(), with_scalar.len());
        }
        let finish = |groups: FusedGroups| {
            exec::project_groups(
                &q,
                &plan.bindings,
                &plan.specs,
                groups.into_states(),
                &[],
                &ctx,
            )
            .unwrap()
            .0
            .rows
        };
        let rows = finish(with_columnar);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows, finish(with_scalar));
    }
}
