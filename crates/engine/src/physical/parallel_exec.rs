use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrd};
use std::time::Instant;

use parking_lot::Mutex;

use apuama_storage::{AccessKind, Segment};

use crate::error::EngineResult;
use crate::exec::{self, ExecContext};
use crate::planner;
use crate::table::Table;

use crate::physical::*;

// ---------------------------------------------------------------------------
// Morsel-driven parallel scans (intra-node parallelism)
// ---------------------------------------------------------------------------

/// The morsel decomposition of one base-table scan: the access path's
/// units ([`ScanUnits`]), all of them, one morsel each — a stored segment
/// and the slots of it the path selected. Morsels tile the scan in global
/// row order: concatenating their tuples in morsel-index order reproduces
/// the serial scan exactly. Planned without charging any statistics so the
/// caller can still fall back to the serial operator (which does its own
/// accounting); [`run_scan_morsels`] commits it: applies `pages_pruned` /
/// `index_probes` and replays the page charges.
pub(crate) struct ScanMorsels<'e> {
    table: &'e Table,
    kind: AccessKind,
    morsels: Vec<(usize, Sel)>,
    pages_pruned: u64,
    index_probes: u64,
}

/// Splits a scan into its units. Zone-map pruning is evaluated here with
/// the same predicates the serial path uses, so both modes skip — and
/// count — the same pages.
pub(crate) fn plan_scan_morsels<'e>(
    table: &'e Table,
    preds: &ScanPreds,
    choice: &planner::ScanChoice,
) -> ScanMorsels<'e> {
    let mut units = ScanUnits::plan(table, &choice.path, preds);
    let mut morsels = Vec::new();
    let mut sel = Sel::new();
    while let Some(seg) = units.next_into(&mut sel) {
        morsels.push((seg, std::mem::take(&mut sel)));
    }
    ScanMorsels {
        table,
        kind: units.kind,
        morsels,
        pages_pruned: units.pages_pruned,
        index_probes: units.index_probes,
    }
}

impl<'e> ScanMorsels<'e> {
    /// How many morsels the scan splits into; fewer than two run serial.
    pub(crate) fn len(&self) -> usize {
        self.morsels.len()
    }
}

/// Replays the serial scan's buffer-pool traffic on the coordinator:
/// pages are touched in exactly the order and multiplicity the serial
/// operator produces ([`PageCharger`]), so the LRU state and hit/miss
/// counters after a parallel scan are byte-identical to the serial ones.
/// Workers never touch the pool.
fn precharge_morsel_pages(sm: &ScanMorsels<'_>, ctx: &ExecContext<'_>) {
    let slots = sm.table.heap.segment_slots();
    let mut pages = PageCharger::new(sm.table, sm.kind);
    for (seg, sel) in &sm.morsels {
        pages.charge(*seg as u64 * slots, sel, ctx);
    }
}

/// Per-worker execution tally, recorded as an `EXPLAIN ANALYZE` child
/// probe: rows scanned, morsels processed, wall-clock nanoseconds.
type WorkerTally = (u64, u64, u128);

/// Registers one child probe per worker under a parallel operator's
/// `[parallel ×N]` node, so `EXPLAIN ANALYZE` shows the per-worker
/// row/morsel/time breakdown.
fn record_worker_probes(az: Option<&Analyze>, probe: Option<usize>, tallies: &[WorkerTally]) {
    let (Some(az), Some(parent)) = (az, probe) else {
        return;
    };
    for (w, &(rows, morsels, nanos)) in tallies.iter().enumerate() {
        let child = az.register(format!("parallel worker {w}"), Vec::new());
        az.add_child(parent, child);
        az.record(child, rows, morsels, nanos);
    }
}

/// What folding one morsel produced, with the counters it stands for.
struct MorselOut<T> {
    out: T,
    /// Rows the morsel scanned.
    rows: u64,
    /// `cpu_tuple_ops` the morsel cost.
    cpu: u64,
}

/// The morsel loop, written once: `workers` tasks on the host's pool claim
/// morsel indices `0..n_morsels` from a shared atomic and run `work` on
/// each, under a context of their own — the statement's parameters, a
/// child [`crate::governor::QueryGovernor`] (cancelling the statement
/// reaches the workers; a worker failing does not fire the statement's
/// token) and the shared memory gauge, which gets back whatever the worker
/// charged when its context drops. Workers never touch the statement's
/// stats or the buffer pool.
///
/// Returns the results **in morsel order** with one tally per worker. The
/// first failure stops every worker from claiming further, and the error
/// returned is the failure earliest in scan order: indices are claimed in
/// increasing order and a claimed morsel always runs (the abort flag is
/// read before claiming, never after), so every slot below a filled one is
/// filled and the first non-`Ok` slot is the earliest failure. The
/// coordinator's per-morsel interrupt check mirrors the serial
/// once-per-batch cancellation cadence.
fn run_ordered<T: Send>(
    ctx: &ExecContext<'_>,
    workers: usize,
    n_morsels: usize,
    work: impl Fn(usize, &ExecContext<'_>) -> EngineResult<MorselOut<T>> + Sync,
) -> EngineResult<(Vec<MorselOut<T>>, Vec<WorkerTally>)> {
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results: Mutex<Vec<Option<EngineResult<MorselOut<T>>>>> =
        Mutex::new((0..n_morsels).map(|_| None).collect());
    let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(vec![(0, 0, 0); workers]);
    let db = ctx.db;

    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
    for w in 0..workers {
        let params = ctx.params_snapshot();
        let gov = ctx.child_governor();
        let seqscan = ctx.seqscan_allowed();
        let (next, abort, results, tallies, work) = (&next, &abort, &results, &tallies, &work);
        tasks.push(Box::new(move || {
            let start = Instant::now();
            let wctx = ExecContext::governed(db, params, gov).restrict_seqscan(seqscan);
            let (mut wrows, mut wmorsels) = (0u64, 0u64);
            while !abort.load(AtomicOrd::Relaxed) {
                let i = next.fetch_add(1, AtomicOrd::Relaxed);
                if i >= n_morsels {
                    break;
                }
                let r = wctx.check_interrupt().and_then(|()| work(i, &wctx));
                match &r {
                    Ok(m) => wrows += m.rows,
                    Err(_) => abort.store(true, AtomicOrd::Relaxed),
                }
                wmorsels += 1;
                results.lock()[i] = Some(r);
            }
            tallies.lock()[w] = (wrows, wmorsels, start.elapsed().as_nanos());
        }));
    }
    crate::parallel::host_pool().scoped_run(tasks);

    let mut outs = Vec::with_capacity(n_morsels);
    for slot in results.into_inner() {
        ctx.check_interrupt()?;
        match slot {
            Some(r) => outs.push(r?),
            None => unreachable!("abandoned morsel precedes the slot that aborted it"),
        }
    }
    Ok((outs, tallies.into_inner()))
}

/// Commits a scan's morsel decomposition and folds it on the worker pool.
/// The coordinator applies the decomposition's `pages_pruned` /
/// `index_probes` and replays the serial page-touch sequence up front —
/// safe because no other page touch can interleave: workers never touch
/// the pool, and every subquery-evaluating operator is a pipeline breaker.
/// Each worker hands `fold` one morsel — the segment and the slots selected
/// of it — and gets back the morsel's payload and cpu cost. Afterwards the
/// coordinator bumps the
/// summed `rows_scanned` / `cpu_tuple_ops` once (addition is order-free),
/// with `scan_batches = ceil(rows / SCAN_BATCH_ROWS)` exactly as the
/// serial batch loop counts them, records the per-worker probes, and
/// returns the payloads in morsel order — so rows, first-seen group order,
/// the error reported and every counter equal the serial scan's.
pub(crate) fn run_scan_morsels<T: Send>(
    sm: &ScanMorsels<'_>,
    ctx: &ExecContext<'_>,
    workers: usize,
    az: Option<&Analyze>,
    probe: Option<usize>,
    fold: impl Fn(&Segment, &[u32], &ExecContext<'_>) -> EngineResult<(T, u64)> + Sync,
) -> EngineResult<Vec<T>> {
    ctx.bump_pages_pruned(sm.pages_pruned);
    ctx.bump_index_probes(sm.index_probes);
    precharge_morsel_pages(sm, ctx);

    let (outs, tallies) = run_ordered(ctx, workers, sm.morsels.len(), |i, wctx| {
        let (seg, sel) = &sm.morsels[i];
        let (out, cpu) = fold(&sm.table.heap.segments()[*seg], sel, wctx)?;
        Ok(MorselOut {
            out,
            rows: sel.len() as u64,
            cpu,
        })
    })?;
    let total_rows: u64 = outs.iter().map(|m| m.rows).sum();
    ctx.bump_rows_scanned(total_rows);
    ctx.bump_scan_batches(total_rows.div_ceil(exec::SCAN_BATCH_ROWS));
    ctx.bump_cpu(outs.iter().map(|m| m.cpu).sum());
    record_worker_probes(az, probe, &tallies);
    Ok(outs.into_iter().map(|m| m.out).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::governor::QueryGovernor;

    fn ten_rows(i: usize) -> EngineResult<MorselOut<usize>> {
        Ok(MorselOut {
            out: i,
            rows: 10,
            cpu: 0,
        })
    }

    fn fails(i: usize) -> EngineResult<MorselOut<usize>> {
        Err(EngineError::TypeError(format!("morsel {i}")))
    }

    #[test]
    fn results_come_back_in_morsel_order_and_tallies_cover_every_morsel() {
        let db = Database::in_memory();
        let ctx = ExecContext::new(&db);
        for (workers, n) in [(1, 0), (3, 0), (1, 1), (4, 1), (2, 7), (4, 100)] {
            let (outs, tallies) = run_ordered(&ctx, workers, n, |i, _| ten_rows(i))
                .unwrap_or_else(|e| panic!("×{workers} over {n}: {e}"));
            let order: Vec<usize> = outs.iter().map(|m| m.out).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "×{workers} over {n}");
            assert_eq!(tallies.len(), workers);
            let (rows, morsels) = tallies.iter().fold((0, 0), |(r, m), t| (r + t.0, m + t.1));
            assert_eq!((rows, morsels), (10 * n as u64, n as u64));
        }
    }

    #[test]
    fn the_earliest_failure_is_reported_and_ends_the_claiming() {
        let db = Database::in_memory();
        let ctx = ExecContext::new(&db);
        // One worker makes the abort observable: nothing past the failing
        // morsel runs.
        let ran = AtomicUsize::new(0);
        let r = run_ordered(&ctx, 1, 50, |i, _| {
            ran.fetch_add(1, AtomicOrd::Relaxed);
            if i == 3 {
                fails(i)
            } else {
                ten_rows(i)
            }
        });
        assert_eq!(
            r.err().map(|e| e.to_string()),
            fails(3).err().map(|e| e.to_string())
        );
        assert_eq!(ran.load(AtomicOrd::Relaxed), 4);
        // With peers, several morsels fail, in any order; whichever of them
        // ran, morsel 3 was claimed before them and is the one reported.
        for _ in 0..50 {
            let r = run_ordered(&ctx, 4, 64, |i, _| {
                if i >= 3 && i % 3 == 0 {
                    fails(i)
                } else {
                    ten_rows(i)
                }
            });
            assert_eq!(
                r.err().map(|e| e.to_string()),
                fails(3).err().map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn a_cancelled_statement_stops_claiming() {
        let db = Database::in_memory();
        // Cancelled before the run: no morsel is worked on.
        let gov = QueryGovernor::new();
        gov.cancel();
        let ctx = ExecContext::governed(&db, Vec::new(), Some(gov));
        let ran = AtomicUsize::new(0);
        let r = run_ordered(&ctx, 4, 100, |i, _| {
            ran.fetch_add(1, AtomicOrd::Relaxed);
            ten_rows(i)
        });
        assert!(matches!(r, Err(EngineError::Cancelled(_))));
        assert_eq!(ran.load(AtomicOrd::Relaxed), 0);
        // Cancelled while morsel 5 is folded: it is the last one.
        let gov = QueryGovernor::new();
        let ctx = ExecContext::governed(&db, Vec::new(), Some(gov.clone()));
        let ran = AtomicUsize::new(0);
        let r = run_ordered(&ctx, 1, 100, |i, _| {
            ran.fetch_add(1, AtomicOrd::Relaxed);
            if i == 5 {
                gov.cancel();
            }
            ten_rows(i)
        });
        assert!(matches!(r, Err(EngineError::Cancelled(_))));
        assert_eq!(ran.load(AtomicOrd::Relaxed), 6);
    }
}
