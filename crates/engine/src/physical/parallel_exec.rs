use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrd};
use std::time::Instant;

use parking_lot::Mutex;

use apuama_sql::ast::{Expr, Select};
use apuama_sql::Value;
use apuama_storage::{AccessKind, Row, RowId};

use crate::db::Database;
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, eval_expr, Frame};
use crate::exec::{self, Acc, Binding, ExecContext, GroupState, Relation};
use crate::planner::{self, AccessPath};
use crate::table::Table;

use crate::physical::*;

// ---------------------------------------------------------------------------
// Morsel-driven parallel scans (intra-node parallelism)
// ---------------------------------------------------------------------------

/// One morsel's row source: a slice of a sequential scan's page list or a
/// slice of an index range's row-id list. Morsels tile the scan in global
/// row order — concatenating their row streams in morsel-index order
/// reproduces the serial scan exactly.
pub(crate) enum MorselInput {
    Pages(Vec<u64>),
    Rids(Vec<RowId>),
}

/// The morsel decomposition of one base-table scan, planned without
/// charging any statistics so the caller can still fall back to the serial
/// operator (which does its own accounting). On commit the coordinator
/// applies `pages_pruned` / `index_probes` itself and replays the page
/// charges via [`precharge_morsel_pages`].
pub(crate) struct ScanMorsels<'e> {
    table: &'e Table,
    kind: AccessKind,
    morsels: Vec<MorselInput>,
    pages_pruned: u64,
    index_probes: u64,
}

/// Splits a scan into ~[`exec::SCAN_BATCH_ROWS`]-row morsels: page-aligned
/// chunks of the zone-allowed page list for sequential scans, row-id
/// slices for index ranges. Zone-map pruning is evaluated here with the
/// same predicates the serial path uses, so both modes skip — and count —
/// the same pages.
pub(crate) fn plan_scan_morsels<'e>(
    table: &'e Table,
    bindings: &[Binding],
    residual_exprs: &[&Expr],
    choice: &planner::ScanChoice,
    ctx: &ExecContext<'_>,
) -> ScanMorsels<'e> {
    match &choice.path {
        AccessPath::SeqScan => {
            let preds = zone_prune_preds(table, bindings, residual_exprs, ctx);
            let mut pages: Vec<u64> = Vec::new();
            let mut pruned = 0u64;
            for page in 0..table.heap.pages() {
                if !preds.is_empty() && zone_page_refutes(&table.heap, page, &preds) {
                    pruned += 1;
                } else {
                    pages.push(page);
                }
            }
            let rpp = table.heap.geometry().rows_per_page;
            let per = (exec::SCAN_BATCH_ROWS.div_ceil(rpp.max(1)).max(1)) as usize;
            ScanMorsels {
                table,
                kind: AccessKind::Sequential,
                morsels: pages
                    .chunks(per)
                    .map(|c| MorselInput::Pages(c.to_vec()))
                    .collect(),
                pages_pruned: pruned,
                index_probes: 0,
            }
        }
        AccessPath::IndexRange {
            column,
            low,
            high,
            clustered,
        } => {
            let idx = table
                .index_on(*column)
                .expect("planner only chooses existing indexes");
            let rids: Vec<RowId> = idx
                .range(exec::bound_ref(low), exec::bound_ref(high))
                .map(|(_, rid)| rid)
                .collect();
            ScanMorsels {
                table,
                kind: if *clustered {
                    AccessKind::Sequential
                } else {
                    AccessKind::Random
                },
                morsels: rids
                    .chunks(exec::SCAN_BATCH_ROWS as usize)
                    .map(|c| MorselInput::Rids(c.to_vec()))
                    .collect(),
                pages_pruned: 0,
                index_probes: 1,
            }
        }
    }
}

/// Replays the serial scan's buffer-pool traffic on the coordinator:
/// pages are touched in exactly the order and multiplicity the serial
/// operator produces — ascending page order for sequential scans, row-id
/// order for index ranges, one charge per page change, pages with no live
/// row skipped — so the LRU state and hit/miss counters after a parallel
/// scan are byte-identical to the serial ones. Workers never touch the
/// pool.
pub(crate) fn precharge_morsel_pages(sm: &ScanMorsels<'_>, ctx: &ExecContext<'_>) {
    let table = sm.table;
    let rpp = table.heap.geometry().rows_per_page;
    let mut last_page = u64::MAX;
    for m in &sm.morsels {
        match m {
            MorselInput::Pages(pages) => {
                for &p in pages {
                    let live = table
                        .heap
                        .iter_range(p * rpp, (p + 1) * rpp)
                        .next()
                        .is_some();
                    if live && p != last_page {
                        ctx.charge_page(table.schema.id, p, sm.kind);
                        last_page = p;
                    }
                }
            }
            MorselInput::Rids(rids) => {
                for &rid in rids {
                    if table.heap.get(rid).is_none() {
                        continue; // dead row ids cost nothing, as in the serial path
                    }
                    let p = table.heap.geometry().page_of(rid);
                    if p != last_page {
                        ctx.charge_page(table.schema.id, p, sm.kind);
                        last_page = p;
                    }
                }
            }
        }
    }
}

/// Iterates one morsel's live rows in scan order.
pub(crate) fn morsel_rows<'a>(
    table: &'a Table,
    m: &'a MorselInput,
) -> Box<dyn Iterator<Item = &'a Row> + 'a> {
    match m {
        MorselInput::Pages(pages) => {
            let heap = &table.heap;
            let rpp = heap.geometry().rows_per_page;
            Box::new(
                pages.iter().flat_map(move |&p| {
                    heap.iter_range(p * rpp, (p + 1) * rpp).map(|(_, row)| row)
                }),
            )
        }
        MorselInput::Rids(rids) => Box::new(rids.iter().filter_map(|&rid| table.heap.get(rid))),
    }
}

/// Per-worker execution tally, recorded as an `EXPLAIN ANALYZE` child
/// probe: rows scanned, morsels processed, wall-clock nanoseconds.
pub(crate) type WorkerTally = (u64, u64, u128);

/// Registers one child probe per worker under a parallel operator's
/// `[parallel ×N]` node, so `EXPLAIN ANALYZE` shows the per-worker
/// row/morsel/time breakdown.
pub(crate) fn record_worker_probes(
    az: Option<&Analyze>,
    probe: Option<usize>,
    tallies: &[WorkerTally],
) {
    let (Some(az), Some(parent)) = (az, probe) else {
        return;
    };
    for (w, &(rows, morsels, nanos)) in tallies.iter().enumerate() {
        let child = az.register(format!("parallel worker {w}"), Vec::new());
        az.add_child(parent, child);
        az.record(child, rows, morsels, nanos);
    }
}

/// A planned-and-committed parallel scan, produced by
/// [`ParallelScanExec::open`] when the scan is wide enough to split.
pub(crate) struct PreparedScan<'e> {
    sm: ScanMorsels<'e>,
    residual: Vec<ResidualPred>,
    /// Columns per emitted row (the kept ones, under a join).
    width: usize,
}

/// Morsel-driven parallel base-table scan: workers pull morsels, filter
/// rows against the pushed-down conjuncts, and clone survivors (under a
/// join, only the columns the scan keeps); the
/// coordinator replays the serial page-charge sequence, sums the workers'
/// counter tallies, and re-emits the survivors in morsel order as owned
/// [`exec::SCAN_BATCH_ROWS`]-row batches — the same row stream, batch
/// boundaries, and statistics the serial [`ScanExec`] produces. Safe under
/// joins and streaming operators because non-breaker operators never touch
/// heap pages and every subquery-evaluating operator is a pipeline breaker
/// (the build layer only chooses this operator when the scan's own
/// conjuncts are subquery-free and compile positionally).
///
/// Holds the serial [`ScanExec`] and delegates to it whenever the parallel
/// decomposition is not viable (residual needs frame evaluation, or fewer
/// than two morsels), so planner errors and small-table behavior are
/// untouched.
pub(crate) struct ParallelScanExec<'e> {
    inner: ScanExec<'e>,
    workers: usize,
    az: Option<&'e Analyze>,
    probe: Option<usize>,
    prepared: Option<PreparedScan<'e>>,
    emitter: Option<BatchEmitter>,
}

impl<'e> ParallelScanExec<'e> {
    pub(crate) fn new(
        inner: ScanExec<'e>,
        workers: usize,
        az: Option<&'e Analyze>,
        probe: Option<usize>,
    ) -> Self {
        ParallelScanExec {
            inner,
            workers,
            az,
            probe,
            prepared: None,
            emitter: None,
        }
    }

    pub(crate) fn run_parallel(&self, prep: PreparedScan<'e>) -> EngineResult<BatchEmitter> {
        let ctx = self.inner.ctx;
        let sm = prep.sm;
        let n_morsels = sm.morsels.len();
        // Commit the decomposition's accounting and replay the serial
        // page-touch sequence before any worker runs.
        ctx.bump_pages_pruned(sm.pages_pruned);
        ctx.bump_index_probes(sm.index_probes);
        precharge_morsel_pages(&sm, ctx);

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        type MorselOut = (Vec<Row>, u64, u64); // survivors, rows scanned, cpu
        let results: Mutex<Vec<Option<EngineResult<MorselOut>>>> =
            Mutex::new((0..n_morsels).map(|_| None).collect());
        let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(vec![(0, 0, 0); self.workers]);
        let db = ctx.db;
        let params = ctx.params_snapshot();
        let width = prep.width;

        let pool = db.worker_pool(self.workers);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let params = params.clone();
            let gov = ctx.child_governor();
            let (next, abort, results, tallies) = (&next, &abort, &results, &tallies);
            let (sm, residual) = (&sm, &prep.residual);
            let (bindings, cols) = (&self.inner.bindings, &self.inner.cols);
            tasks.push(Box::new(move || {
                let start = Instant::now();
                let wctx = ExecContext::governed(db, params, gov);
                let (mut wrows, mut wmorsels) = (0u64, 0u64);
                loop {
                    let i = next.fetch_add(1, AtomicOrd::Relaxed);
                    if i >= n_morsels || abort.load(AtomicOrd::Relaxed) {
                        break;
                    }
                    let r: EngineResult<MorselOut> = (|| {
                        wctx.check_interrupt()?;
                        let mut out: Vec<Row> = Vec::new();
                        let (mut scanned, mut cpu) = (0u64, 0u64);
                        for row in morsel_rows(sm.table, &sm.morsels[i]) {
                            scanned += 1;
                            if residual.is_empty()
                                || keep_row_charged(row, bindings, residual, &[], &wctx, || {
                                    cpu += 1
                                })?
                            {
                                // Load-bearing clone: survivors cross the
                                // worker thread boundary as owned rows.
                                out.push(match cols {
                                    Some(cols) => project_row(row, cols),
                                    None => row.clone(),
                                });
                            }
                        }
                        // Transient survivor materialization, released when
                        // this worker's context drops.
                        wctx.charge_mem(exec::approx_state_bytes(out.len() as u64, width))?;
                        Ok((out, scanned, cpu))
                    })();
                    let failed = r.is_err();
                    if let Ok((_, scanned, _)) = &r {
                        wrows += scanned;
                    }
                    wmorsels += 1;
                    results.lock()[i] = Some(r);
                    if failed {
                        abort.store(true, AtomicOrd::Relaxed);
                    }
                }
                tallies.lock()[w] = (wrows, wmorsels, start.elapsed().as_nanos());
            }));
        }
        pool.scoped_run(tasks);

        // Morsel-order merge; see ParallelFusedExec::run for why the first
        // non-Ok slot is the earliest failure in scan order.
        let mut rows: Vec<Row> = Vec::new();
        let (mut total_scanned, mut total_cpu) = (0u64, 0u64);
        for slot in results.into_inner() {
            ctx.check_interrupt()?;
            match slot {
                Some(Ok((out, scanned, cpu))) => {
                    total_scanned += scanned;
                    total_cpu += cpu;
                    rows.extend(out);
                }
                Some(Err(e)) => return Err(e),
                None => unreachable!("abandoned morsel precedes the slot that aborted it"),
            }
        }
        ctx.bump_rows_scanned(total_scanned);
        ctx.bump_scan_batches(total_scanned.div_ceil(exec::SCAN_BATCH_ROWS));
        ctx.bump_cpu(total_cpu);
        record_worker_probes(self.az, self.probe, &tallies.into_inner());
        Ok(BatchEmitter::rows_only(rows))
    }
}

impl<'e> Operator<'e> for ParallelScanExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        let ctx = self.inner.ctx;
        let table = ctx
            .db
            .table(self.inner.name)
            .ok_or_else(|| EngineError::UnknownTable(self.inner.name.to_string()))?;
        let binding_name = self.inner.alias.unwrap_or(self.inner.name);
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
            self.inner.single,
            ctx.db.seqscan_enabled(),
            ctx.db.indexscan_enabled(),
            &eval_const,
        );
        let out_bindings = self.inner.bind(table);
        let bindings = &self.inner.bindings;
        let residual_exprs: Vec<&Expr> = self
            .inner
            .single
            .iter()
            .enumerate()
            .filter(|(i, _)| !choice.consumed.contains(i))
            .map(|(_, e)| e)
            .collect();
        // Parallel workers evaluate predicates positionally; results and
        // cpu charges are identical to both serial modes (one charge per
        // evaluation, same values, same errors). A residual that needs
        // frame evaluation falls back to the serial operator.
        let residual: Option<Vec<ResidualPred>> = residual_exprs
            .iter()
            .map(|e| {
                eval::compile_expr(e, bindings)
                    .map(|c| ResidualPred::from_compiled(eval::prebind_params(&c, ctx)))
            })
            .collect();
        if let Some(residual) = residual {
            let sm = plan_scan_morsels(table, bindings, &residual_exprs, &choice, ctx);
            if sm.morsels.len() >= 2 {
                self.prepared = Some(PreparedScan {
                    sm,
                    residual,
                    width: out_bindings.len(),
                });
                return Ok(out_bindings);
            }
        }
        self.inner.open()
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        if let Some(prep) = self.prepared.take() {
            self.inner.ctx.check_interrupt()?;
            self.emitter = Some(self.run_parallel(prep)?);
        }
        match &mut self.emitter {
            Some(em) => Ok(em.next()),
            None => self.inner.next_batch(),
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel fused scan→filter→partial-aggregate
// ---------------------------------------------------------------------------

/// Morsel-driven parallel variant of [`FusedExec`] — the engine's third
/// parallelism tier (intra-node), below the cluster's inter-query and
/// intra-query tiers. The scan is split into page-aligned morsels
/// ([`plan_scan_morsels`]); each worker pulls morsel indices from a shared
/// atomic and folds its morsels into private [`FusedGroups`] partials,
/// which the coordinator merges **in morsel-index order** — preserving the
/// serial first-seen group order — before finishing through the same
/// [`exec::project_groups`].
///
/// Byte-identity with serial execution, counters included, is maintained
/// by construction:
/// - page charges are replayed on the coordinator in serial order
///   ([`precharge_morsel_pages`]); workers never touch the buffer pool or
///   the statement's stats;
/// - workers tally `rows_scanned` / `cpu_tuple_ops` in plain integers that
///   the coordinator sums and bumps once (addition is order-free), with
///   `scan_batches = ceil(rows/SCAN_BATCH_ROWS)` exactly as the serial
///   batch loop produces;
/// - each worker runs under a child [`crate::governor::QueryGovernor`]
///   (statement cancel reaches workers; a worker failure aborts peers) and
///   charges its transient partial state to the shared memory gauge
///   through its own context, released when the worker finishes.
///
/// Falls back to [`FusedExec`] at run time when the scan yields fewer than
/// two morsels, so small tables pay no dispatch cost and errors (unknown
/// table, type errors) surface identically.
pub(crate) struct ParallelFusedExec<'e> {
    q: &'e Select,
    plan: &'e FusedPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    workers: usize,
    az: Option<&'e Analyze>,
    probe: Option<usize>,
    emitter: Option<BatchEmitter>,
}

impl<'e> ParallelFusedExec<'e> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        q: &'e Select,
        plan: &'e FusedPlan,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
        workers: usize,
        az: Option<&'e Analyze>,
        probe: Option<usize>,
    ) -> Self {
        ParallelFusedExec {
            q,
            plan,
            outer,
            ctx,
            workers,
            az,
            probe,
            emitter: None,
        }
    }

    pub(crate) fn run(&self) -> EngineResult<(Relation, Vec<Vec<Value>>)> {
        let (plan, ctx) = (self.plan, self.ctx);
        let table = ctx
            .db
            .table(&plan.table)
            .ok_or_else(|| EngineError::UnknownTable(plan.table.clone()))?;
        let eval_const = |e: &Expr| -> Option<Value> {
            if exec::expr_has_columns(e) {
                None
            } else {
                eval_expr(e, &[], ctx).ok()
            }
        };
        let choice = planner::choose_access_path(
            table,
            &plan.binding_name,
            &plan.single,
            ctx.db.seqscan_enabled(),
            ctx.db.indexscan_enabled(),
            &eval_const,
        );
        let residual_exprs: Vec<&Expr> = plan
            .single
            .iter()
            .enumerate()
            .filter(|(i, _)| !choice.consumed.contains(i))
            .map(|(_, e)| e)
            .collect();
        let sm = plan_scan_morsels(table, &plan.bindings, &residual_exprs, &choice, ctx);
        let n_morsels = sm.morsels.len();
        if n_morsels < 2 {
            return FusedExec::new(self.q, plan, self.outer, ctx).run();
        }
        // Committed to the parallel decomposition: apply its accounting and
        // replay the serial page-touch sequence up front (safe because no
        // other page touches can interleave — every subquery-evaluating
        // operator is a pipeline breaker, and the fused shape has none).
        ctx.bump_pages_pruned(sm.pages_pruned);
        ctx.bump_index_probes(sm.index_probes);
        precharge_morsel_pages(&sm, ctx);

        let preds = resolve_fused_preds(plan, &choice, ctx);
        let key_progs = key_progs_from_compiled(&plan.group_by, ctx);
        let agg_args = resolve_fused_args(plan, ctx);
        let state_width = plan.bindings.len() + plan.specs.len();
        // Columnar eligibility is plan-shaped, so it is decided once here
        // and shared read-only by every worker; the per-morsel type checks
        // happen inside `fold`. Workers inherit the coordinator's knob
        // reading — the setting is read exactly once per execution.
        let columnar = if ctx.db.columnar_enabled() {
            ColumnarFused::try_new(&preds, &key_progs, &agg_args, plan.bindings.len())
        } else {
            None
        };

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        type MorselOut = (FusedGroups, u64, u64); // partial groups, rows, cpu
        let results: Mutex<Vec<Option<EngineResult<MorselOut>>>> =
            Mutex::new((0..n_morsels).map(|_| None).collect());
        let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(vec![(0, 0, 0); self.workers]);
        let db = ctx.db;
        let params = ctx.params_snapshot();

        let pool = db.worker_pool(self.workers);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let params = params.clone();
            let gov = ctx.child_governor();
            let (next, abort, results, tallies) = (&next, &abort, &results, &tallies);
            let (sm, preds, key_progs, agg_args) = (&sm, &preds, &key_progs, &agg_args);
            let columnar = &columnar;
            tasks.push(Box::new(move || {
                let start = Instant::now();
                let wctx = ExecContext::governed(db, params, gov);
                let mut scratch: Vec<Value> = Vec::new();
                let (mut wrows, mut wmorsels) = (0u64, 0u64);
                loop {
                    let i = next.fetch_add(1, AtomicOrd::Relaxed);
                    if i >= n_morsels || abort.load(AtomicOrd::Relaxed) {
                        break;
                    }
                    let r: EngineResult<MorselOut> = (|| {
                        wctx.check_interrupt()?;
                        let mut groups = FusedGroups::new();
                        let (mut rows, mut cpu) = (0u64, 0u64);
                        // The scalar per-row fold — the non-columnar path,
                        // and the fallback when a morsel's columns extract
                        // ineligible (mixed types, NaN under a predicate).
                        let mut scalar_row = |row: &Row,
                                              groups: &mut FusedGroups,
                                              cpu: &mut u64|
                         -> EngineResult<()> {
                            if !preds.is_empty()
                                && !keep_row_charged(
                                    row,
                                    &plan.bindings,
                                    preds,
                                    &[],
                                    &wctx,
                                    || *cpu += 1,
                                )?
                            {
                                return Ok(());
                            }
                            *cpu += 1; // the aggregation update charge
                            eval_key_scratch(key_progs, row, &wctx, &mut scratch)?;
                            let group =
                                groups.find_or_insert(key_progs, row, &scratch, || GroupState {
                                    rep_row: row.to_vec(),
                                    accs: plan.specs.iter().map(Acc::new).collect(),
                                });
                            for (arg, acc) in agg_args.iter().zip(group.accs.iter_mut()) {
                                let v = match arg {
                                    FusedArg::None => None,
                                    FusedArg::Col(i) => Some(row[*i].clone()),
                                    FusedArg::Expr(a) => Some(eval::eval_compiled(a, row, &wctx)?),
                                };
                                acc.update(v)?;
                            }
                            Ok(())
                        };
                        if let Some(cf) = columnar {
                            // Whole-morsel columnar fold: counters are
                            // totals and groups merge in morsel order, so
                            // the coarser-than-SCAN_BATCH_ROWS grain
                            // changes no observable statistic.
                            let batch: Vec<&Row> = morsel_rows(sm.table, &sm.morsels[i]).collect();
                            rows = batch.len() as u64;
                            match cf.fold(&batch, preds, &plan.specs, &mut groups)? {
                                Some(morsel_cpu) => cpu = morsel_cpu,
                                None => {
                                    for row in batch {
                                        scalar_row(row, &mut groups, &mut cpu)?;
                                    }
                                }
                            }
                        } else {
                            for row in morsel_rows(sm.table, &sm.morsels[i]) {
                                rows += 1;
                                scalar_row(row, &mut groups, &mut cpu)?;
                            }
                        }
                        // Transient partial-state accounting: charged to the
                        // shared gauge here, released when this worker's
                        // context drops; the coordinator charges the merged
                        // total exactly as the serial operator does.
                        wctx.charge_mem(exec::approx_state_bytes(
                            groups.len() as u64,
                            state_width,
                        ))?;
                        Ok((groups, rows, cpu))
                    })();
                    let failed = r.is_err();
                    if let Ok((_, rows, _)) = &r {
                        wrows += rows;
                    }
                    wmorsels += 1;
                    results.lock()[i] = Some(r);
                    if failed {
                        abort.store(true, AtomicOrd::Relaxed);
                    }
                }
                tallies.lock()[w] = (wrows, wmorsels, start.elapsed().as_nanos());
            }));
        }
        pool.scoped_run(tasks);

        // Merge in morsel-index order. Walking in order also makes error
        // reporting deterministic: morsel indices are claimed in increasing
        // order and abandoned slots (after an abort) always sit beyond the
        // erroring one, so the first non-Ok slot is the earliest failure in
        // scan order. The per-morsel interrupt check mirrors the serial
        // once-per-batch cancellation cadence.
        let mut merged = FusedGroups::new();
        let (mut total_rows, mut total_cpu) = (0u64, 0u64);
        for slot in results.into_inner() {
            ctx.check_interrupt()?;
            match slot {
                Some(Ok((groups, rows, cpu))) => {
                    total_rows += rows;
                    total_cpu += cpu;
                    merged.merge(groups);
                }
                Some(Err(e)) => return Err(e),
                None => unreachable!("abandoned morsel precedes the slot that aborted it"),
            }
        }
        ctx.bump_rows_scanned(total_rows);
        ctx.bump_scan_batches(total_rows.div_ceil(exec::SCAN_BATCH_ROWS));
        ctx.bump_cpu(total_cpu);
        ctx.charge_mem(exec::approx_state_bytes(merged.len() as u64, state_width))?;
        record_worker_probes(self.az, self.probe, &tallies.into_inner());

        exec::project_groups(
            self.q,
            &plan.bindings,
            &plan.specs,
            merged.into_states(),
            self.outer,
            ctx,
        )
    }
}

impl<'e> Operator<'e> for ParallelFusedExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        Ok(exec::output_bindings(self.q, &self.plan.bindings))
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch<'e>>> {
        if self.emitter.is_none() {
            let (rel, keys) = self.run()?;
            self.emitter = Some(BatchEmitter::nested(rel.rows, keys));
        }
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}

/// Sorts an index permutation on the worker pool: each worker stable-sorts
/// one contiguous chunk, then the coordinator k-way merges the chunks. On
/// equal keys the earlier chunk wins, and within a chunk `sort_by` keeps
/// input order — since the chunks partition the (initially ascending)
/// index vector in order, the result is exactly what a stable sort of the
/// whole vector produces, so parallel and serial sorts emit identical row
/// orders.
pub(crate) fn parallel_sort_indices(
    idx: &mut Vec<usize>,
    workers: usize,
    db: &Database,
    cmp: &(dyn Fn(usize, usize) -> std::cmp::Ordering + Sync),
) {
    let n = idx.len();
    let chunk = n.div_ceil(workers).max(1);
    let pool = db.worker_pool(workers);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = idx
        .chunks_mut(chunk)
        .map(|part| {
            Box::new(move || part.sort_by(|&a, &b| cmp(a, b))) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scoped_run(tasks);

    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect();
    let mut heads: Vec<usize> = bounds.iter().map(|&(s, _)| s).collect();
    let mut merged = Vec::with_capacity(n);
    loop {
        let mut best: Option<usize> = None;
        for (c, &(_, end)) in bounds.iter().enumerate() {
            if heads[c] >= end {
                continue;
            }
            match best {
                None => best = Some(c),
                // Strict `Less` only: ties keep the earliest chunk.
                Some(b) => {
                    if cmp(idx[heads[c]], idx[heads[b]]) == std::cmp::Ordering::Less {
                        best = Some(c);
                    }
                }
            }
        }
        let Some(b) = best else { break };
        merged.push(idx[heads[b]]);
        heads[b] += 1;
    }
    *idx = merged;
}
