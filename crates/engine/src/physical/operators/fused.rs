use std::borrow::Cow;
use std::cell::Cell;
use std::hash::Hasher;

use apuama_sql::ast::Select;
use apuama_sql::Value;
use apuama_storage::Row;
use apuama_storage::{Column, ColumnVec, Segment, Validity};

use crate::agg::{Acc, BatchValues, GroupState, Groups};
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, CompiledExpr, Frame};
use crate::exec::{self, Binding, ExecContext};
use crate::planner::ScanChoice;
use crate::table::Table;

use crate::physical::*;

// ---------------------------------------------------------------------------
// Fused scan→filter→aggregate
// ---------------------------------------------------------------------------

/// One aggregate input, pre-resolved: no per-row work for `count(*)`,
/// a direct read of the stored cell for plain-column arguments, a compiled
/// program otherwise — with its vector form beside it when it is `+ − ×`
/// over columns and numeric constants ([`F64Prog`]).
pub(crate) enum FusedArg {
    None,
    Col(usize),
    Expr {
        prog: CompiledExpr,
        vector: Option<F64Prog>,
    },
}

/// One aggregate input as one batch sees it.
enum BatchArg<'a> {
    None,
    /// Read the stored cell.
    Cell(&'a Column),
    /// A `Float` column without NULLs: read the slot straight off the slice.
    FloatCol(&'a [f64]),
    /// Computed for the whole batch: one value per survivor.
    Floats(Vec<f64>),
    /// Evaluated per survivor on the scratch row.
    Row(&'a CompiledExpr),
}

impl<'a> BatchArg<'a> {
    /// The argument over the survivors `sel`, as the column-major fold
    /// takes it; `None` for one evaluated per survivor.
    fn values(&'a self, sel: &'a [u32]) -> Option<BatchValues<'a>> {
        Some(match self {
            BatchArg::None => BatchValues::None,
            BatchArg::Cell(col) => BatchValues::Cells(col, sel),
            BatchArg::FloatCol(v) => BatchValues::FloatCol(v, sel),
            BatchArg::Floats(xs) => BatchValues::Floats(xs),
            BatchArg::Row(_) => return None,
        })
    }
}

/// The group keys of one segment as codes, when every key column is a
/// dictionary-coded string column: the codes, validity and radix
/// (dictionary entries plus one for NULL) of each.
struct CodedKeys<'a>(Vec<(&'a [u8], &'a Validity, usize)>);

impl<'a> CodedKeys<'a> {
    /// The keys `cols` of `seg` as codes, with the span of their code
    /// tuples (one table slot per combination of the key columns'
    /// dictionary entries and NULL) when it is at most `limit`.
    fn of(seg: &'a Segment, cols: &[usize], limit: usize) -> Option<(CodedKeys<'a>, usize)> {
        let keys: Vec<_> = (cols.iter())
            .map(|&c| {
                let col = seg.column(c);
                match col.data() {
                    ColumnVec::Str(strs) => {
                        (strs.coded()).map(|(dict, codes)| (codes, col.validity(), dict.len() + 1))
                    }
                    _ => None,
                }
            })
            .collect::<Option<_>>()?;
        let span = (keys.iter()).try_fold(1usize, |n, &(_, _, radix)| {
            n.checked_mul(radix).filter(|&n| n <= limit)
        })?;
        Some((CodedKeys(keys), span))
    }

    /// The slot of the tuple at `slot`'s code tuple in a table of `span`.
    #[inline]
    fn at(&self, slot: usize) -> usize {
        (self.0.iter()).fold(0, |at, &(codes, valid, radix)| {
            let code = match valid.is_valid(slot) {
                true => codes[slot] as usize,
                false => radix - 1,
            };
            at * radix + code
        })
    }
}

/// Where the fold reads a tuple's group key from.
enum GroupKeys {
    /// Every component is a stored column: the probe compares those cells
    /// with the groups' keys, nothing is copied.
    Cells(Vec<usize>),
    /// A component is an expression: the key programs run on the scratch
    /// row, filled with these cells.
    Row(Vec<usize>),
}

/// How the batches of one execution ran, for `EXPLAIN ANALYZE` to say: the
/// fold is chosen per batch by predicate shape and column representation,
/// so nothing else shows whether a statement's batches took the vectorized
/// form or fell to the row.
#[derive(Default)]
pub(crate) struct FoldTally {
    batches: Cell<u64>,
    /// Batches in which a predicate, a group key or an argument was
    /// evaluated per tuple on the scratch row.
    by_row: Cell<u64>,
    /// Batches whose survivors were folded one accumulator at a time.
    column_major: Cell<u64>,
    /// Of those, batches whose group ids came from their key codes.
    coded: Cell<u64>,
}

/// How one batch was folded.
#[derive(Default)]
struct BatchForm {
    by_row: bool,
    column_major: bool,
    coded: bool,
}

impl FoldTally {
    fn count(&self, form: BatchForm) {
        let add = |n: &Cell<u64>, yes: bool| n.set(n.get() + yes as u64);
        add(&self.batches, true);
        add(&self.by_row, form.by_row);
        add(&self.column_major, form.column_major);
        add(&self.coded, form.coded);
    }

    /// Lists the tally under the operator's `EXPLAIN ANALYZE` node.
    pub(crate) fn note(&self, az: Option<&Analyze>, probe: Option<usize>) {
        if let (Some(az), Some(probe)) = (az, probe) {
            let (batches, by_row) = (self.batches.get(), self.by_row.get());
            az.add_note(
                probe,
                format!(
                    "fold: {} batch(es) vectorized, {by_row} row-major",
                    batches - by_row
                ),
            );
            let (column_major, coded) = (self.column_major.get(), self.coded.get());
            az.add_note(
                probe,
                format!("column-major: {column_major} batch(es), {coded} by coded group keys"),
            );
        }
    }
}

/// What one fold mutates from batch to batch: the predicates' scratch row
/// and probe memos, the selection vector, and the buffers vectorized
/// arguments are computed into. One per pass.
pub(crate) struct FoldScratch {
    row: RowScratch,
    sel: Sel,
    keys: Vec<Value>,
    floats: Vec<Vec<f64>>,
    /// The survivors' group ids, and the code-tuple table they come from.
    ids: Vec<u32>,
    code_groups: Vec<u32>,
}

/// The fused kernel's fold, specialized once per execution: [`FusedExec`]
/// folds scan batches through it. Residual scan predicates run before
/// post predicates, in plan order; all programs have bound parameters
/// folded in, group keys are positional programs.
///
/// It reads the stored segment columns: the predicates through the
/// vectorized prefix ([`ScanPreds`]), plain-column group keys and arguments
/// cell by cell — group keys by their codes where the segment stores them
/// dictionary-coded — and `+ − ×` arguments once per batch over `f64`
/// slices. What is left to the row — a predicate past the prefix, a key
/// expression, an argument without a vector form or over a column that is
/// not `Float` and NULL-free in this segment — is evaluated per survivor on
/// a scratch row filled with just the cells it reads.
pub(crate) struct FusedFold<'p> {
    plan: &'p FusedPlan,
    pub(crate) preds: ScanPreds,
    key_progs: Vec<KeyProg>,
    keys: GroupKeys,
    agg_args: Vec<FusedArg>,
    pub(crate) tally: FoldTally,
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
        let key_progs = key_progs(plan.group_by.iter().map(|c| eval::prebind_params(c, ctx)));
        let cells: Option<Vec<usize>> = (key_progs.iter())
            .map(|k| match k {
                KeyProg::Col(c) => Some(*c),
                KeyProg::Expr { .. } => None,
            })
            .collect();
        let keys = cells.map(GroupKeys::Cells).unwrap_or_else(|| {
            let mut cols = Vec::new();
            for k in &key_progs {
                match k {
                    KeyProg::Col(c) => cols.push(*c),
                    KeyProg::Expr { expr, .. } => expr.collect_cols(&mut cols),
                }
            }
            GroupKeys::Row(cols)
        });
        let agg_args: Vec<FusedArg> = plan
            .agg_args
            .iter()
            .map(|a| match a.as_ref().map(|c| eval::prebind_params(c, ctx)) {
                None => FusedArg::None,
                Some(CompiledExpr::Col(i)) => FusedArg::Col(i),
                Some(prog) => FusedArg::Expr {
                    vector: F64Prog::of(&prog, ctx),
                    prog,
                },
            })
            .collect();
        FusedFold {
            plan,
            preds: ScanPreds::new(preds, plan.bindings.len(), ctx),
            key_progs,
            keys,
            agg_args,
            tally: FoldTally::default(),
        }
    }

    /// Value slots one group's state holds (representative row plus one
    /// accumulator per aggregate), for the memory charges.
    pub(crate) fn state_width(&self) -> usize {
        self.plan.bindings.len() + self.plan.specs.len()
    }

    pub(crate) fn scratch(&self) -> FoldScratch {
        FoldScratch {
            row: self.preds.scratch(),
            sel: Sel::new(),
            keys: Vec::new(),
            floats: Vec::new(),
            ids: Vec::new(),
            code_groups: Vec::new(),
        }
    }

    /// The aggregate arguments as this segment's columns allow them. The
    /// vectorized ones are computed here, over everything the prefix kept:
    /// the programs cannot fail, so a value computed for a tuple the
    /// row-major predicates then drop is only wasted, not observable. The
    /// cells the row-evaluated ones read are appended to `row_cols`.
    fn batch_args<'a>(
        &'a self,
        seg: &'a Segment,
        sel: &[u32],
        floats: &mut Vec<Vec<f64>>,
        row_cols: &mut Vec<usize>,
    ) -> Vec<BatchArg<'a>> {
        let batch_arg = |arg: &'a FusedArg| match arg {
            FusedArg::None => BatchArg::None,
            FusedArg::Col(c) => {
                let column = seg.column(*c);
                match column.data() {
                    ColumnVec::Float(v) if !column.validity().any_null() => BatchArg::FloatCol(v),
                    _ => BatchArg::Cell(column),
                }
            }
            FusedArg::Expr { prog, vector } => match vector {
                Some(v) if v.applies(seg) => {
                    let mut out = floats.pop().unwrap_or_default();
                    out.clear();
                    v.eval(seg, sel, &mut out, floats);
                    BatchArg::Floats(out)
                }
                _ => {
                    prog.collect_cols(row_cols);
                    BatchArg::Row(prog)
                }
            },
        };
        self.agg_args.iter().map(batch_arg).collect()
    }

    /// The group of the tuple at `slot`, found or created as the row loop
    /// finds it: a new group's representative is that tuple. `row` is the
    /// scratch row, holding the cells the key programs read.
    fn group_of(
        &self,
        seg: &Segment,
        slot: usize,
        row: &[Value],
        key_vals: &mut Vec<Value>,
        groups: &mut Groups,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<usize> {
        let new_state = || GroupState {
            rep_row: seg.row(slot),
            accs: self.plan.specs.iter().map(Acc::new).collect(),
        };
        Ok(match &self.keys {
            GroupKeys::Cells(cols) => groups.index_of(
                || {
                    let mut hasher = FnvHasher::new();
                    for &c in cols {
                        hash_cell(seg.column(c), slot, &mut hasher);
                    }
                    hasher.finish()
                },
                |stored| {
                    (cols.iter().zip(stored)).all(|(&c, s)| cell_matches(seg.column(c), slot, s))
                },
                || cols.iter().map(|&c| seg.column(c).value_at(slot)).collect(),
                new_state,
            ),
            GroupKeys::Row(_) => {
                // A fused statement's programs are positional: no frame is
                // consulted.
                eval_key_scratch(&self.key_progs, row, &[], ctx, key_vals)?;
                groups.index_by_progs(&self.key_progs, row, key_vals, new_state)
            }
        })
    }

    /// Each survivor's group, in survivor order, into `ids`: the groups
    /// are found and created in the order, and with the representatives,
    /// the row loop finds and creates them. Without GROUP BY every id is
    /// the one group's; over key columns that are all dictionary-coded in
    /// this segment, a code tuple's group is looked up once and its id
    /// kept in `table` for the tuples after it (two tuples share a code
    /// tuple exactly when they share a key) — when the table has no more
    /// slots than the batch has survivors, so resetting it costs no more
    /// than the probes it saves; otherwise each is looked up.
    /// Returns whether the ids came from the codes.
    #[allow(clippy::too_many_arguments)]
    fn group_ids(
        &self,
        seg: &Segment,
        sel: &[u32],
        row_cols: &[usize],
        scratch: &mut RowScratch,
        key_vals: &mut Vec<Value>,
        ids: &mut Vec<u32>,
        table: &mut Vec<u32>,
        groups: &mut Groups,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<bool> {
        ids.clear();
        if let GroupKeys::Cells(cols) = &self.keys {
            if cols.is_empty() {
                let gi = self.group_of(seg, sel[0] as usize, &[], key_vals, groups, ctx)?;
                ids.resize(sel.len(), gi as u32);
                return Ok(false);
            }
            if let Some((coded, span)) = CodedKeys::of(seg, cols, sel.len()) {
                table.clear();
                table.resize(span, u32::MAX);
                for &slot in sel {
                    let slot = slot as usize;
                    let at = coded.at(slot);
                    if table[at] == u32::MAX {
                        table[at] = self.group_of(seg, slot, &[], key_vals, groups, ctx)? as u32;
                    }
                    ids.push(table[at]);
                }
                return Ok(true);
            }
        }
        for &slot in sel {
            let slot = slot as usize;
            let row = scratch.fill(seg, slot, row_cols);
            ids.push(self.group_of(seg, slot, row, key_vals, groups, ctx)? as u32);
        }
        Ok(false)
    }

    /// Folds the `slots` of `seg` — one scan batch — into
    /// `groups` and returns the `cpu_tuple_ops` they cost: one per
    /// predicate evaluated, one per surviving row's aggregation update.
    ///
    /// A batch is folded column-major — every survivor's group id first
    /// ([`Self::group_ids`]), then one accumulator at a time over all of
    /// them ([`Groups::fold_column`]) — when that cannot change which
    /// error surfaces first: no predicate is left to the row, no argument
    /// is evaluated per row, and no accumulator can fail on the values the
    /// batch hands it. Then the only error left is a key program's, raised
    /// in row order either way. Otherwise the batch runs the row loop:
    /// predicates, key and every accumulator tuple by tuple.
    pub(crate) fn fold(
        &self,
        seg: &Segment,
        slots: &[u32],
        scratch: &mut FoldScratch,
        groups: &mut Groups,
        ctx: &ExecContext<'_>,
    ) -> EngineResult<u64> {
        let FoldScratch {
            row,
            sel,
            keys: key_vals,
            floats,
            ids,
            code_groups,
        } = scratch;
        let (done, mut cpu) = self.preds.filter_prefix(seg, slots, sel)?;
        // What the prefix left to the row runs interleaved with the
        // aggregation below, tuple by tuple, so a predicate that fails on a
        // later row cannot overtake an aggregate that fails on an earlier
        // one. (A prefix predicate cannot either: it fails on the first
        // non-NULL row it sees or on none.)
        let rest = self.preds.has_rest(done);
        if sel.is_empty() {
            self.tally.count(BatchForm::default());
            return Ok(cpu);
        }

        // The scratch row carries the cells of the key programs and of the
        // arguments this segment leaves to the row.
        let mut row_cols = match &self.keys {
            GroupKeys::Cells(_) => Vec::new(),
            GroupKeys::Row(cols) => cols.clone(),
        };
        let args = self.batch_args(seg, sel, floats, &mut row_cols);
        let row_cols = sorted_dedup(row_cols);
        let by_row = rest
            || matches!(self.keys, GroupKeys::Row(_))
            || args.iter().any(|a| matches!(a, BatchArg::Row(_)));
        let columns: Option<Vec<BatchValues<'_>>> = match rest {
            true => None,
            false => (args.iter().zip(&self.plan.specs))
                .map(|(arg, spec)| arg.values(sel).filter(|v| spec.folds_without_error(v)))
                .collect(),
        };

        if let Some(columns) = columns {
            cpu += sel.len() as u64; // one aggregation update per survivor
            let coded = self.group_ids(
                seg,
                sel,
                &row_cols,
                row,
                key_vals,
                ids,
                code_groups,
                groups,
                ctx,
            )?;
            for (j, values) in columns.into_iter().enumerate() {
                groups.fold_column(j, ids, values)?;
            }
            self.tally.count(BatchForm {
                by_row,
                column_major: true,
                coded,
            });
        } else {
            self.tally.count(BatchForm {
                by_row,
                ..BatchForm::default()
            });
            for (k, &slot) in sel.iter().enumerate() {
                let slot = slot as usize;
                if rest
                    && !self
                        .preds
                        .keep_rest(done, seg, slot, row, &[], ctx, || cpu += 1)?
                {
                    continue;
                }
                cpu += 1; // the aggregation update the general loop charges
                let row = row.fill(seg, slot, &row_cols);
                let gi = self.group_of(seg, slot, row, key_vals, groups, ctx)?;
                let group = groups.state_mut(gi);
                for (arg, acc) in args.iter().zip(group.accs.iter_mut()) {
                    match arg {
                        BatchArg::None => acc.update(None)?,
                        BatchArg::Cell(col) => acc.update_cell(col, slot)?,
                        BatchArg::FloatCol(v) => acc.update_f64(v[slot])?,
                        BatchArg::Floats(xs) => acc.update_f64(xs[k])?,
                        BatchArg::Row(prog) => {
                            acc.update(Some(eval::eval_compiled(prog, row, &[], ctx)?))?
                        }
                    }
                }
            }
        }
        for arg in args {
            if let BatchArg::Floats(xs) = arg {
                floats.push(xs);
            }
        }
        Ok(cpu)
    }
}

/// What one fused execution decides before any row is read: the table, the
/// access path chosen from the bound values, and the fold specialized for
/// the conjuncts it leaves to the row level.
struct FusedScan<'e> {
    table: &'e Table,
    choice: ScanChoice,
    fold: FusedFold<'e>,
}

/// The fusion rule's executor: one pass over the base table a stored
/// segment at a time, predicates and aggregate updates evaluated on its
/// columns ([`FusedFold`]), statistics charged once per batch. Finishes
/// through the same [`project_groups`] as the general tree, which is what
/// keeps the two shapes byte-identical.
///
pub(crate) struct FusedExec<'e> {
    q: &'e Select,
    plan: &'e FusedPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    /// The `EXPLAIN ANALYZE` collector and this operator's node in it.
    az: Option<&'e Analyze>,
    probe: Option<usize>,
    emitter: Option<BatchEmitter>,
}

impl<'e> FusedExec<'e> {
    pub(crate) fn new(
        q: &'e Select,
        plan: &'e FusedPlan,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
        az: Option<&'e Analyze>,
        probe: Option<usize>,
    ) -> Self {
        FusedExec {
            q,
            plan,
            outer,
            ctx,
            az,
            probe,
            emitter: None,
        }
    }

    fn plan_scan(&self) -> EngineResult<FusedScan<'e>> {
        let (plan, ctx) = (self.plan, self.ctx);
        let table = ctx
            .db
            .table(&plan.table)
            .ok_or_else(|| EngineError::UnknownTable(plan.table.clone()))?;
        let (choice, _) = plan_scan(table, &plan.binding_name, &plan.single, ctx);
        Ok(FusedScan {
            table,
            fold: FusedFold::new(plan, &choice, ctx),
            choice,
        })
    }

    /// The pass: the cursor's units, one at a time, through the fold. Each
    /// unit is also the kernel's cancellation point and memory-charge
    /// boundary.
    fn fold_serial(&self) -> EngineResult<Groups> {
        let ctx = self.ctx;
        let scan = self.plan_scan()?;
        let mut groups = Groups::new();
        let mut charged_groups = 0u64;
        let mut cursor = ScanCursor::open(scan.table, &scan.choice.path, &scan.fold.preds, ctx);
        let mut scratch = scan.fold.scratch();
        let mut scanned = ScanTally::new(ctx);
        while let Some((seg, _, slots)) = cursor.next(ctx) {
            ctx.check_interrupt()?;
            scanned.rows += slots.len() as u64;
            ctx.bump_cpu(scan.fold.fold(seg, slots, &mut scratch, &mut groups, ctx)?);
            let n = groups.len() as u64;
            ctx.charge_mem(exec::approx_state_bytes(
                n - charged_groups,
                scan.fold.state_width(),
            ))?;
            charged_groups = n;
        }
        scan.fold.tally.note(self.az, self.probe);
        Ok(groups)
    }

    /// HAVING, the select list, ORDER BY keys.
    fn finish(&self, groups: Groups) -> EngineResult<(Vec<Row>, KeyBuf)> {
        project_groups(
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
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        Ok(exec::output_bindings(self.q, &self.plan.bindings).into())
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        if self.emitter.is_none() {
            let (rows, keys) = self.finish(self.fold_serial()?)?;
            self.emitter = Some(BatchEmitter::new(rows, keys));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}
