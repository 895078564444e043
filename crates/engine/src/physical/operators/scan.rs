use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::{Bound, Range};

use apuama_sql::ast::Expr;
use apuama_storage::{AccessKind, Heap, Row, RowId, Segment};

use crate::catalog::TableSchema;
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, Frame};
use crate::exec::{self, Binding, ExecContext, Relation};
use crate::planner::{AccessPath, ScanChoice};
use crate::table::{KeyRange, Table};

use crate::physical::*;

// ---------------------------------------------------------------------------
// Scan operators (SeqScan / IndexRangeScan)
// ---------------------------------------------------------------------------

/// How an index range's heap fetches count against the buffer pool: a
/// clustered range walks the heap in order, a secondary one hops.
pub(crate) fn index_access_kind(clustered: bool) -> AccessKind {
    if clustered {
        AccessKind::Sequential
    } else {
        AccessKind::Random
    }
}

/// Where a scan's units come from.
enum UnitSource<'e> {
    /// The segments in order, minus the pages the zone maps refuted
    /// (`allowed[page]`; `None` reads every page).
    Seq {
        next_seg: usize,
        allowed: Option<Vec<bool>>,
    },
    /// A key range on the clustering column, by position. SVP sub-queries
    /// arrive this way. `prefix` is the run of slots of the table's ordered
    /// prefix whose keys the range admits ([`Table::prefix_slots`]: two
    /// binary searches, no posting read); the slots from `tail` on were
    /// appended or updated out of key order and are tested one by one.
    /// Both halves come out in slot order — what a sequential scan of the
    /// same rows yields, equal keys in arrival order — one unit per
    /// segment, the segments between the run's end and the tail skipped.
    Clustered {
        column: usize,
        range: KeyRange,
        prefix: Range<RowId>,
        tail: RowId,
        next_seg: usize,
    },
    /// A secondary index range's row ids, in index order: by key, equal
    /// keys in posting-list order; or one key's posting list, read in
    /// place (an equality, on any index: in slot order on a clustered one).
    Rids { rids: Cow<'e, [RowId]>, pos: usize },
}

/// One base-table access path as a sequence of *units*: `(segment,
/// selection vector)` pairs that tile the path's live tuples in path
/// order. A sequential scan and a clustered range yield one unit per
/// segment; a row-id list is cut wherever the segment changes, and dead
/// slots drop out by the tombstone bitmap. The cursor ([`ScanCursor`])
/// reads its input from here.
pub(crate) struct ScanUnits<'e> {
    heap: &'e Heap,
    source: UnitSource<'e>,
    pub(crate) kind: AccessKind,
    /// Pages the zone maps let the scan skip.
    pub(crate) pages_pruned: u64,
    /// Index lookups the access path made.
    pub(crate) index_probes: u64,
}

impl<'e> ScanUnits<'e> {
    /// Resolves `path` over `table` — a sequential scan skips the pages the
    /// zone maps refute for the scan's `preds` — without charging anything:
    /// the caller applies `pages_pruned` / `index_probes` once it commits to
    /// the plan.
    pub(crate) fn plan(table: &'e Table, path: &AccessPath, preds: &ScanPreds) -> Self {
        let heap = &table.heap;
        match path {
            AccessPath::SeqScan => {
                let (allowed, pages_pruned) = zone_allowed_pages(table, preds);
                ScanUnits {
                    heap,
                    source: UnitSource::Seq {
                        next_seg: 0,
                        allowed,
                    },
                    kind: AccessKind::Sequential,
                    pages_pruned,
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
                // One key: its posting list, probed — what the range `[key,
                // key]` holds, NULL keys in no range.
                let point = match (low, high) {
                    (Bound::Included(key), Bound::Included(high))
                        if !key.is_null() && key.sort_cmp(high) == Ordering::Equal =>
                    {
                        Some(idx.get(key))
                    }
                    _ => None,
                };
                let source = match (point, *clustered) {
                    // A clustered range yields its rows in slot order (the
                    // prefix run, then the tail), so a key's postings go
                    // in ascending order too.
                    (Some(rids), true) if !rids.is_sorted() => {
                        let mut rids = rids.to_vec();
                        rids.sort_unstable();
                        UnitSource::Rids {
                            rids: Cow::Owned(rids),
                            pos: 0,
                        }
                    }
                    (Some(rids), _) => UnitSource::Rids {
                        rids: Cow::Borrowed(rids),
                        pos: 0,
                    },
                    (None, true) => {
                        let range = KeyRange::new(low, high);
                        let (prefix, tail) = (table.prefix_slots(&range), table.ordered_prefix());
                        let first = if prefix.is_empty() {
                            tail
                        } else {
                            prefix.start
                        };
                        UnitSource::Clustered {
                            column: *column,
                            range,
                            prefix,
                            tail,
                            next_seg: (first / heap.segment_slots()) as usize,
                        }
                    }
                    (None, false) => UnitSource::Rids {
                        rids: (idx.range(exec::bound_ref(low), exec::bound_ref(high)))
                            .map(|(_, rid)| rid)
                            .collect(),
                        pos: 0,
                    },
                };
                ScanUnits {
                    heap,
                    source,
                    kind: index_access_kind(*clustered),
                    pages_pruned: 0,
                    index_probes: 1,
                }
            }
        }
    }

    /// Replaces `sel` with the next unit's slots and returns its segment's
    /// index. Units without a live tuple are skipped.
    pub(crate) fn next_into(&mut self, sel: &mut Sel) -> Option<usize> {
        let heap = self.heap;
        let slots = heap.segment_slots();
        sel.clear();
        match &mut self.source {
            UnitSource::Seq { next_seg, allowed } => {
                let rpp = heap.geometry().rows_per_page;
                while let Some(seg) = heap.segments().get(*next_seg) {
                    let i = *next_seg;
                    *next_seg += 1;
                    match allowed {
                        None if seg.dead_count() == 0 => sel.extend(0..seg.len() as u32),
                        None => sel.extend(seg.live_slots(0, seg.len()).map(|s| s as u32)),
                        Some(allowed) => {
                            let first_page = i as u64 * slots / rpp;
                            for (p, lo) in (0..seg.len()).step_by(rpp as usize).enumerate() {
                                if allowed[first_page as usize + p] {
                                    sel.extend(
                                        seg.live_slots(lo, lo + rpp as usize).map(|s| s as u32),
                                    );
                                }
                            }
                        }
                    }
                    if !sel.is_empty() {
                        return Some(i);
                    }
                }
                None
            }
            UnitSource::Clustered {
                column,
                range,
                prefix,
                tail,
                next_seg,
            } => {
                while let Some(seg) = heap.segments().get(*next_seg) {
                    let i = *next_seg;
                    let base = i as u64 * slots;
                    let end = base + seg.len() as u64;
                    // Past the run's last segment nothing is in the range
                    // before the tail's first.
                    *next_seg = if end < prefix.end {
                        i + 1
                    } else {
                        (i + 1).max((*tail / slots) as usize)
                    };
                    let (lo, hi) = (prefix.start.max(base), prefix.end.min(end));
                    if lo < hi {
                        let (lo, hi) = ((lo - base) as usize, (hi - base) as usize);
                        if seg.dead_count() == 0 {
                            sel.extend(lo as u32..hi as u32);
                        } else {
                            sel.extend(seg.live_slots(lo, hi).map(|s| s as u32));
                        }
                    }
                    let col = seg.column(*column);
                    let mut slot = ((*tail).max(base) - base) as usize;
                    while slot < seg.len() {
                        if slot.is_multiple_of(64) && seg.dead_word(slot) {
                            slot += 64;
                            continue;
                        }
                        if seg.is_live(slot) && range.contains(col, slot) {
                            sel.push(slot as u32);
                        }
                        slot += 1;
                    }
                    if !sel.is_empty() {
                        return Some(i);
                    }
                }
                None
            }
            UnitSource::Rids { rids, pos } => {
                // The unit is the run of row ids in the segment of the
                // first live one; ids before it that are dead, in whichever
                // segment, are skipped with it.
                loop {
                    let i = (*rids.get(*pos)? / slots) as usize;
                    let base = i as u64 * slots;
                    let seg = heap.segments().get(i);
                    while let Some(&rid) = rids.get(*pos) {
                        if !(base..base + slots).contains(&rid) {
                            break;
                        }
                        *pos += 1;
                        let slot = (rid - base) as usize;
                        if seg.is_some_and(|seg| seg.is_live(slot)) {
                            sel.push(slot as u32);
                        }
                    }
                    if !sel.is_empty() {
                        return Some(i);
                    }
                }
            }
        }
    }
}

/// Charges a scan's heap pages in the serial scan's order and multiplicity:
/// each tuple's page once per page change along the path, pages without a
/// selected tuple never.
pub(crate) struct PageCharger {
    table: apuama_storage::TableId,
    kind: AccessKind,
    rows_per_page: u64,
    last_page: u64,
}

impl PageCharger {
    pub(crate) fn new(table: &Table, kind: AccessKind) -> Self {
        PageCharger {
            table: table.schema.id,
            kind,
            rows_per_page: table.heap.geometry().rows_per_page,
            last_page: u64::MAX,
        }
    }

    /// Charges the pages of the tuples `base + slot` for `slots` in order.
    pub(crate) fn charge(&mut self, base: RowId, slots: &[u32], ctx: &ExecContext<'_>) {
        let rpp = self.rows_per_page;
        // Row ids `lo..hi` lie on `last_page`: most tuples follow their
        // predecessor onto the same page, which then costs two compares.
        let (mut lo, mut hi) = match self.last_page {
            u64::MAX => (0, 0),
            page => (page * rpp, (page + 1) * rpp),
        };
        for &slot in slots {
            let rid = base + slot as u64;
            if rid < lo || rid >= hi {
                let page = rid / rpp;
                ctx.charge_page(self.table, page, self.kind);
                self.last_page = page;
                (lo, hi) = (page * rpp, (page + 1) * rpp);
            }
        }
    }
}

/// One base-table scan in flight — the serial scan loop, written once: the
/// live tuples of the chosen access path in path order, handed out as
/// `(segment, first row id of the segment, slots)`, their heap pages
/// charged to the statement once per page change. The general scan, the
/// fused kernel and DML's row-id scan all pull from it.
pub(crate) struct ScanCursor<'e> {
    units: ScanUnits<'e>,
    pages: PageCharger,
    /// Hand out one page's tuples at a time, each page charged right
    /// before them ([`ScanPreds::touches_pool`]); otherwise a whole unit,
    /// its pages charged in order on entry.
    page_grain: bool,
    /// The current unit, and how much of it was handed out.
    seg: usize,
    unit: Sel,
    pos: usize,
}

impl<'e> ScanCursor<'e> {
    /// Opens `path` over `table` for a scan evaluating `preds`, counting the
    /// index probe or the pages the zone maps refute for them.
    pub(crate) fn open(
        table: &'e Table,
        path: &AccessPath,
        preds: &ScanPreds,
        ctx: &ExecContext<'_>,
    ) -> Self {
        let units = ScanUnits::plan(table, path, preds);
        ctx.bump_pages_pruned(units.pages_pruned);
        ctx.bump_index_probes(units.index_probes);
        ScanCursor {
            pages: PageCharger::new(table, units.kind),
            units,
            page_grain: preds.touches_pool(),
            seg: 0,
            unit: Sel::new(),
            pos: 0,
        }
    }

    /// The next run of live tuples. A dead row id costs nothing.
    pub(crate) fn next(&mut self, ctx: &ExecContext<'_>) -> Option<(&'e Segment, RowId, &[u32])> {
        let heap = self.units.heap;
        if self.pos == self.unit.len() {
            self.seg = self.units.next_into(&mut self.unit)?;
            self.pos = 0;
        }
        let base = self.seg as u64 * heap.segment_slots();
        let rest = &self.unit[self.pos..];
        let run = if self.page_grain {
            let rpp = heap.geometry().rows_per_page;
            let first = (base + rest[0] as u64) / rpp * rpp;
            let page = first..first + rpp;
            let n = (rest.iter())
                .take_while(|&&s| page.contains(&(base + s as u64)))
                .count();
            &rest[..n]
        } else {
            rest
        };
        self.pos += run.len();
        self.pages.charge(base, run, ctx);
        Some((&heap.segments()[self.seg], base, run))
    }
}

/// A scan's `rows_scanned`, flushed with its `scan_batches` — by formula,
/// `ceil(rows / SCAN_BATCH_ROWS)`, however the access path cut its units —
/// when the scan ends, whichever way it ends.
pub(crate) struct ScanTally<'c, 'a> {
    ctx: &'c ExecContext<'a>,
    pub(crate) rows: u64,
}

impl<'c, 'a> ScanTally<'c, 'a> {
    pub(crate) fn new(ctx: &'c ExecContext<'a>) -> Self {
        ScanTally { ctx, rows: 0 }
    }
}

impl Drop for ScanTally<'_, '_> {
    fn drop(&mut self) {
        self.ctx.bump_rows_scanned(self.rows);
        self.ctx
            .bump_scan_batches(self.rows.div_ceil(exec::SCAN_BATCH_ROWS));
    }
}

struct ScanState<'e> {
    cursor: ScanCursor<'e>,
    residual: ScanPreds,
    scratch: RowScratch,
    sel: Sel,
    scanned: ScanTally<'e, 'e>,
    /// Cells per emitted row.
    width: usize,
}

/// Schema positions of the columns a scan keeps, in schema order; `None` when `keep` names every column, so nothing is narrowed.
pub(crate) fn kept_positions(schema: &TableSchema, keep: &[String]) -> Option<Vec<usize>> {
    let cols: Vec<usize> = (0..schema.columns.len())
        .filter(|&i| keep.binary_search(&schema.columns[i].name).is_ok())
        .collect();
    (cols.len() < schema.columns.len()).then_some(cols)
}

/// `cols 4/16`: how many of its table's columns a scan keeps.
pub(crate) fn cols_note(schema: &TableSchema, keep: &[String]) -> String {
    let all = schema.columns.len();
    let kept = kept_positions(schema, keep).map_or(all, |cols| cols.len());
    format!("cols {kept}/{all}")
}

/// What [`ScanExec::plan`] decides before any row is read: the table, the
/// access path chosen from the bound values, the conjuncts left to the row
/// level, and the bindings the scan emits.
struct PlannedScan<'e> {
    table: &'e Table,
    choice: ScanChoice,
    residual_exprs: Vec<&'e Expr>,
    out_bindings: Vec<Binding>,
}

/// Base-table scan: chooses the access path at open (from the actual bound
/// parameter values), then streams surviving rows in batches. The
/// pushed-down predicates run on the stored columns ([`ScanPreds::filter`]);
/// only the survivors become rows, and with `keep` set (anything but a
/// top-level `*`) only their kept columns. A scan lowering compiled
/// ([`CompiledScan`]) resolves nothing at open but the access path.
pub(crate) struct ScanExec<'e> {
    name: &'e str,
    alias: Option<&'e str>,
    single: &'e [Expr],
    keep: Option<&'e [String]>,
    compiled: Option<&'e CompiledScan>,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    /// The table's full bindings: what the predicates resolve against.
    /// Borrowed from the table when the scan has no alias.
    bindings: Cow<'e, [Binding]>,
    /// Kept column positions, when the output is narrower than the table.
    cols: Option<Cow<'e, [usize]>>,
    state: Option<ScanState<'e>>,
}

impl<'e> ScanExec<'e> {
    pub(crate) fn new(
        name: &'e str,
        alias: Option<&'e str>,
        single: &'e [Expr],
        keep: Option<&'e [String]>,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        ScanExec {
            name,
            alias,
            single,
            keep,
            compiled: None,
            outer,
            ctx,
            bindings: Cow::Borrowed(&[]),
            cols: None,
            state: None,
        }
    }

    /// Opens from `compiled`, the scan as lowering compiled it, when set.
    pub(crate) fn compiled(self, compiled: Option<&'e CompiledScan>) -> Self {
        ScanExec { compiled, ..self }
    }

    /// Resolves the table, chooses the access path and fixes the bindings
    /// (the full ones the predicates use, the kept positions, and what the
    /// scan emits): what `open` and [`Self::select`] share.
    fn plan(&mut self) -> EngineResult<PlannedScan<'e>> {
        let table = self
            .ctx
            .db
            .table(self.name)
            .ok_or_else(|| EngineError::UnknownTable(self.name.to_string()))?;
        let (choice, residual_exprs) = plan_scan(
            table,
            self.alias.unwrap_or(self.name),
            self.single,
            self.ctx,
        );
        self.bindings = match self.alias {
            None => Cow::Borrowed(table.bindings()),
            alias => Cow::Owned(exec::bindings_for_table(&table.schema, alias)),
        };
        self.cols = self
            .keep
            .and_then(|keep| kept_positions(&table.schema, keep))
            .map(Cow::Owned);
        let out_bindings = match &self.cols {
            Some(cols) => cols.iter().map(|&c| self.bindings[c].clone()).collect(),
            None => self.bindings.to_vec(),
        };
        Ok(PlannedScan {
            table,
            choice,
            residual_exprs,
            out_bindings,
        })
    }

    /// `exprs` of the planned scan's residual predicates, compiled against
    /// the table's row.
    fn resolve(&self, exprs: &[&'e Expr]) -> ScanPreds {
        let preds = resolve_preds(exprs.iter().copied(), &self.bindings, self.outer, self.ctx);
        ScanPreds::new(preds, self.bindings.len(), self.ctx)
    }
}

/// A base-table input of a join block, read to its *selection*: the
/// `(segment, slots)` survivors of its subquery-free conjuncts, in access
/// path order, with every statistic and page charge of the scan behind
/// them and not one `Value` built. The block counts them, and only then
/// decides whether the input drives the probe chain (its tuples are read
/// from the segments as they flow) or is materialized as a build side.
pub(crate) struct ScanSelection<'e> {
    /// What the scan emits: the kept columns.
    pub(crate) bindings: Vec<Binding>,
    /// Kept column positions, when narrower than the table.
    pub(crate) cols: Option<Vec<usize>>,
    pub(crate) units: Vec<(&'e Segment, Sel)>,
    /// Live rows of the table the selection was made from.
    pub(crate) table_rows: usize,
    /// The conjuncts that evaluate a subquery, compiled against the table's
    /// whole row. They cost an index probe or a statement per tuple, so
    /// the block runs them where the fewest tuples reach them: as a stage
    /// of the chain when the input drives, over the selection before it is
    /// materialized otherwise.
    pub(crate) deferred: ScanPreds,
}

impl ScanSelection<'_> {
    pub(crate) fn rows(&self) -> usize {
        self.units.iter().map(|(_, sel)| sel.len()).sum()
    }

    /// Narrows the selection to the tuples the deferred conjuncts keep.
    pub(crate) fn apply_deferred(
        &mut self,
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<()> {
        if !self.deferred.has_rest(0) {
            return Ok(());
        }
        let (mut scratch, mut kept, mut cpu) = (self.deferred.scratch(), Sel::new(), 0u64);
        for (seg, sel) in &mut self.units {
            ctx.check_interrupt()?;
            let (_, cost) =
                (self.deferred).filter(seg, sel, &mut kept, &mut scratch, outer, ctx)?;
            cpu += cost;
            std::mem::swap(sel, &mut kept);
        }
        self.units.retain(|(_, sel)| !sel.is_empty());
        ctx.bump_cpu(cpu);
        Ok(())
    }

    /// The selected tuples as rows of the kept columns.
    pub(crate) fn materialize(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.rows());
        for (seg, sel) in &self.units {
            let cols = self.cols.as_deref();
            materialize(seg, sel, cols, self.bindings.len(), &mut rows);
        }
        rows
    }
}

impl<'e> ScanExec<'e> {
    /// Reads the scan to its selection instead of to rows — how the join
    /// block reads a base-table input. The subquery-free conjuncts run as
    /// in `next_batch`, serially; the others are compiled and handed on
    /// unevaluated.
    pub(crate) fn select(mut self) -> EngineResult<ScanSelection<'e>> {
        let planned = self.plan()?;
        let (outer, ctx) = (self.outer, self.ctx);
        let (deferred, free): (Vec<&Expr>, Vec<&Expr>) =
            (planned.residual_exprs.iter()).partition(|e| exec::contains_subquery(e));
        let residual = self.resolve(&free);
        let mut cursor = ScanCursor::open(planned.table, &planned.choice.path, &residual, ctx);
        let mut scanned = ScanTally::new(ctx);
        let (mut scratch, mut sel, mut cpu) = (residual.scratch(), Sel::new(), 0u64);
        let mut units = Vec::new();
        loop {
            ctx.check_interrupt()?;
            let Some((seg, _, slots)) = cursor.next(ctx) else {
                break;
            };
            scanned.rows += slots.len() as u64;
            let (kept, cost) = residual.filter(seg, slots, &mut sel, &mut scratch, outer, ctx)?;
            cpu += cost;
            if !kept.is_empty() {
                units.push((seg, kept.to_vec()));
            }
        }
        ctx.bump_cpu(cpu);
        Ok(ScanSelection {
            bindings: planned.out_bindings,
            deferred: self.resolve(&deferred),
            cols: self.cols.map(Cow::into_owned),
            units,
            table_rows: planned.table.row_count() as usize,
        })
    }
}

impl<'e> Operator<'e> for ScanExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        let ctx = self.ctx;
        let (table, path, residual, out_bindings) = match self.compiled {
            Some(c) => {
                let table = ctx.db.table_by_id(c.table);
                let valued = c.access.as_ref().and_then(|access| {
                    let value = |p: &CompiledExpr| eval::eval_compiled(p, &[], &[], ctx).ok();
                    access.choose(
                        table,
                        ctx.seqscan_allowed(),
                        ctx.db.indexscan_enabled(),
                        &value,
                    )
                });
                let (path, consumed) = match valued {
                    Some((path, consumed)) => (path, Cow::Borrowed(consumed)),
                    None => {
                        let binding_name = self.alias.unwrap_or(self.name);
                        let choice = choose_path(table, binding_name, self.single, ctx);
                        (choice.path, Cow::Owned(choice.consumed))
                    }
                };
                let preds = (c.single.iter().enumerate())
                    .filter(|(i, _)| !consumed.contains(i))
                    .map(|(_, p)| ResidualPred::from_compiled(eval::prebind_params(p, ctx)))
                    .collect();
                self.cols = c.cols.as_deref().map(Cow::Borrowed);
                let residual = ScanPreds::new(preds, c.width, ctx);
                (table, path, residual, Cow::Borrowed(&c.out_bindings[..]))
            }
            None => {
                let planned = self.plan()?;
                let residual = self.resolve(&planned.residual_exprs);
                let out_bindings = Cow::Owned(planned.out_bindings);
                (planned.table, planned.choice.path, residual, out_bindings)
            }
        };
        self.state = Some(ScanState {
            cursor: ScanCursor::open(table, &path, &residual, ctx),
            scratch: residual.scratch(),
            residual,
            sel: Sel::new(),
            scanned: ScanTally::new(ctx),
            width: out_bindings.len(),
        });
        Ok(out_bindings)
    }

    fn subquery_lines(&self) -> Vec<SubqueryLine> {
        let residual = self.state.as_ref().map_or(&[][..], |s| s.residual.preds());
        subquery_lines(residual)
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        let Some(state) = self.state.as_mut() else {
            return Ok(None);
        };
        // Survivors gather across cursor steps until a batch is full: a
        // page-grained scan would otherwise emit a batch per page.
        let mut rows: Vec<Row> = Vec::new();
        let mut exhausted = false;
        // cpu charges accumulate locally and flush once per batch.
        let mut cpu = 0u64;
        while (rows.len() as u64) < exec::SCAN_BATCH_ROWS {
            self.ctx.check_interrupt()?;
            let Some((seg, _, slots)) = state.cursor.next(self.ctx) else {
                exhausted = true;
                break;
            };
            state.scanned.rows += slots.len() as u64;
            let (survivors, cost) = state.residual.filter(
                seg,
                slots,
                &mut state.sel,
                &mut state.scratch,
                self.outer,
                self.ctx,
            )?;
            cpu += cost;
            materialize(seg, survivors, self.cols.as_deref(), state.width, &mut rows);
        }
        self.ctx.bump_cpu(cpu);
        if exhausted {
            // Dropping the state flushes the scan tally.
            self.state = None;
        }
        Ok((!rows.is_empty()).then(|| RowBatch {
            rows,
            keys: KeyBuf::default(),
        }))
    }
}
/// Derived table (FROM subquery): executes the lowered inner plan — a
/// pipeline breaker by construction — requalifies its bindings to the
/// alias, applies the pushed-down conjuncts, and re-emits batches.
pub(crate) struct DerivedExec<'e> {
    alias: &'e str,
    plan: &'e PhysicalPlan,
    single: &'e [Expr],
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    emitter: Option<BatchEmitter>,
}

impl<'e> DerivedExec<'e> {
    pub(crate) fn new(
        alias: &'e str,
        plan: &'e PhysicalPlan,
        single: &'e [Expr],
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
    ) -> Self {
        DerivedExec {
            alias,
            plan,
            single,
            outer,
            ctx,
            emitter: None,
        }
    }
}

impl<'e> Operator<'e> for DerivedExec<'e> {
    fn open(&mut self) -> EngineResult<Cow<'e, [Binding]>> {
        let mut rel = execute(self.plan, self.outer, self.ctx)?;
        for b in &mut rel.bindings {
            b.qualifier = Some(self.alias.to_string());
        }
        if !self.single.is_empty() {
            rel = filter_rows(rel, self.single, self.outer, self.ctx)?;
        }
        let Relation { bindings, rows } = rel;
        self.emitter = Some(BatchEmitter::rows_only(rows));
        Ok(bindings.into())
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}
