//! Paged tuple heaps, stored column-wise.
//!
//! A [`Heap`] stores the tuples of one table and assigns every row slot to
//! a logical page through a [`PageGeometry`]. The geometry mimics a
//! fixed-size-page engine: pages hold `rows_per_page` slots, computed by the
//! engine catalog from the schema's estimated tuple width and an 8 KiB page,
//! so page counts (and therefore I/O charges) track table size the way they
//! do in PostgreSQL.
//!
//! The stored form is the column, not the row: slots are grouped into
//! [`Segment`]s of whole pages (about [`SEGMENT_SLOTS`] slots), and a
//! segment holds one appendable [`Column`] per schema column plus a
//! tombstone bitmap. Scans, pushed-down predicates, aggregate arguments
//! and probes read the typed vectors; a row ([`Heap::get`], [`Heap::iter`])
//! is derived from them on demand.
//!
//! Deletions leave tombstones (like a real heap before VACUUM) so row ids
//! remain stable for the indexes; the engine compacts when the tombstone
//! ratio gets large.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};

use apuama_sql::Value;

use crate::column::Column;
use crate::Row;

/// A stable row identifier: the slot number within the heap.
pub type RowId = u64;

/// Maps row slots to logical page numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageGeometry {
    /// How many row slots share one logical page. Always at least 1.
    pub rows_per_page: u64,
}

impl PageGeometry {
    /// Builds a geometry from an estimated tuple width in bytes, assuming
    /// 8 KiB pages (PostgreSQL's default).
    pub fn for_tuple_bytes(tuple_bytes: u64) -> PageGeometry {
        const PAGE_BYTES: u64 = 8192;
        PageGeometry {
            rows_per_page: (PAGE_BYTES / tuple_bytes.max(1)).max(1),
        }
    }

    /// Page number of a row slot.
    pub fn page_of(&self, row: RowId) -> u64 {
        row / self.rows_per_page
    }

    /// Number of pages needed for `rows` slots.
    pub fn pages_for(&self, rows: u64) -> u64 {
        rows.div_ceil(self.rows_per_page)
    }
}

/// Per-page min/max summary of one column's live, non-null values — the
/// zone map entry a sequential scan consults to skip pages that cannot
/// contain a matching row.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneRange {
    /// No live row on the page has a non-null value in the column (the
    /// page may be empty, all-tombstone, or all-NULL in this column).
    Empty,
    /// Inclusive bounds over the page's live non-null values.
    Range { min: Value, max: Value },
}

impl ZoneRange {
    fn widen(&mut self, v: &Value) {
        match self {
            ZoneRange::Empty => {
                *self = ZoneRange::Range {
                    min: v.clone(),
                    max: v.clone(),
                }
            }
            ZoneRange::Range { min, max } => {
                if v.sort_cmp(min) == Ordering::Less {
                    *min = v.clone();
                }
                if v.sort_cmp(max) == Ordering::Greater {
                    *max = v.clone();
                }
            }
        }
    }
}

/// Zone map for one column: one [`ZoneRange`] per page.
#[derive(Debug, Clone)]
struct ZoneColumn {
    col: usize,
    pages: Vec<ZoneRange>,
}

/// How many slots a segment aims for: the engine's scan batch, so one
/// segment is one batch of a scan.
pub const SEGMENT_SLOTS: u64 = 1024;

/// A run of whole pages stored column-wise: slot `i` of every column is
/// tuple `i` of the segment, dead or alive.
#[derive(Debug, Clone)]
pub struct Segment {
    cols: Vec<Column>,
    /// Tombstone bitmap: bit `i` set ⇔ slot `i` was deleted. Grown on the
    /// first delete that needs the word, so a segment nothing was deleted
    /// from carries none.
    dead: Vec<u64>,
    dead_count: usize,
    len: usize,
}

impl Segment {
    fn new(width: usize) -> Segment {
        Segment {
            cols: (0..width).map(|_| Column::new()).collect(),
            dead: Vec::new(),
            dead_count: 0,
            len: 0,
        }
    }

    /// Slots in use, tombstones included.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many of the slots are tombstones.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Columns per tuple.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn column(&self, col: usize) -> &Column {
        &self.cols[col]
    }

    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        slot < self.len
            && self
                .dead
                .get(slot / 64)
                .is_none_or(|w| w & (1u64 << (slot % 64)) == 0)
    }

    /// The live slots within `lo..hi` (clamped to the segment), ascending.
    pub fn live_slots(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        (lo..hi.min(self.len)).filter(|&s| self.dead_count == 0 || self.is_live(s))
    }

    /// Materializes the tuple at `slot`, whether or not it is live.
    pub fn row(&self, slot: usize) -> Row {
        self.cols.iter().map(|c| c.value_at(slot)).collect()
    }

    fn push(&mut self, row: &[Value]) {
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.len += 1;
    }

    /// Whether `slot`'s bitmap word — it and the 63 slots sharing the word
    /// — is all tombstones: what lets a reader of single slots step over a
    /// deleted run a word at a time.
    #[inline]
    pub fn dead_word(&self, slot: usize) -> bool {
        self.dead.get(slot / 64) == Some(&u64::MAX)
    }

    fn kill(&mut self, slot: usize) {
        if self.dead.len() <= slot / 64 {
            self.dead.resize(slot / 64 + 1, 0);
        }
        self.dead[slot / 64] |= 1u64 << (slot % 64);
        self.dead_count += 1;
    }
}

/// How many rows the derived row API has built: what a reader that is
/// meant to work on cells (a scan, a probe) can be shown not to move. A
/// statistic, hence relaxed; a cloned heap starts its own count.
#[derive(Debug, Default)]
struct DerivedRows(AtomicU64);

impl Clone for DerivedRows {
    fn clone(&self) -> Self {
        DerivedRows::default()
    }
}

/// The heap itself: column segments plus the page geometry.
#[derive(Debug, Clone)]
pub struct Heap {
    segments: Vec<Segment>,
    /// Columns per tuple.
    width: usize,
    /// Slots per segment: a whole number of pages.
    segment_slots: u64,
    geometry: PageGeometry,
    slots: u64,
    live: u64,
    /// Zone maps for the columns the table asked to summarize (indexed /
    /// clustering columns). Maintained on insert, recomputed per page on
    /// delete and update, rebuilt on compaction.
    zones: Vec<ZoneColumn>,
    derived: DerivedRows,
}

impl Heap {
    /// Creates an empty heap of `width`-column tuples with the given
    /// geometry.
    pub fn new(geometry: PageGeometry, width: usize) -> Self {
        let rpp = geometry.rows_per_page;
        Heap {
            segments: Vec::new(),
            width,
            segment_slots: SEGMENT_SLOTS.div_ceil(rpp).max(1) * rpp,
            geometry,
            slots: 0,
            live: 0,
            zones: Vec::new(),
            derived: DerivedRows::default(),
        }
    }

    /// Declares which columns get per-page zone maps, (re)building them
    /// from the current contents. Duplicate columns are collapsed; calling
    /// again replaces the previous configuration.
    pub fn set_zone_columns(&mut self, cols: &[usize]) {
        let mut uniq: Vec<usize> = cols.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        self.zones = uniq
            .into_iter()
            .map(|col| ZoneColumn {
                col,
                pages: Vec::new(),
            })
            .collect();
        let pages = self.pages() as usize;
        for z in &mut self.zones {
            z.pages.resize(pages, ZoneRange::Empty);
        }
        for page in 0..pages {
            self.recompute_zone_page(page);
        }
    }

    /// The columns currently covered by zone maps, ascending.
    pub fn zone_columns(&self) -> Vec<usize> {
        self.zones.iter().map(|z| z.col).collect()
    }

    /// The zone map entry for `col` on `page`, if that column is mapped.
    /// Pages past the end of the heap report [`ZoneRange::Empty`].
    pub fn zone_range(&self, col: usize, page: u64) -> Option<&ZoneRange> {
        let z = self.zones.iter().find(|z| z.col == col)?;
        Some(z.pages.get(page as usize).unwrap_or(&ZoneRange::Empty))
    }

    fn note_insert(&mut self, id: RowId, row: &[Value]) {
        let page = self.geometry.page_of(id) as usize;
        for z in &mut self.zones {
            if z.pages.len() <= page {
                z.pages.resize(page + 1, ZoneRange::Empty);
            }
            if !row[z.col].is_null() {
                z.pages[page].widen(&row[z.col]);
            }
        }
    }

    /// Recomputes every zone map entry for `page` from its live cells.
    fn recompute_zone_page(&mut self, page: usize) {
        if self.zones.is_empty() {
            return;
        }
        let rpp = self.geometry.rows_per_page;
        let first = page as u64 * rpp;
        let fresh: Vec<ZoneRange> = self
            .zones
            .iter()
            .map(|z| {
                let mut entry = ZoneRange::Empty;
                for (_, seg, slot) in self.live_range(first, first + rpp) {
                    let v = seg.column(z.col).value_at(slot);
                    if !v.is_null() {
                        entry.widen(&v);
                    }
                }
                entry
            })
            .collect();
        for (z, entry) in self.zones.iter_mut().zip(fresh) {
            if z.pages.len() <= page {
                z.pages.resize(page + 1, ZoneRange::Empty);
            }
            z.pages[page] = entry;
        }
    }

    /// The page geometry in force.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// Slots per segment: segment `i` holds row ids
    /// `i * segment_slots() .. (i + 1) * segment_slots()`.
    pub fn segment_slots(&self) -> u64 {
        self.segment_slots
    }

    /// The segments, in slot order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Appends a tuple, returning its id.
    pub fn insert(&mut self, row: &[Value]) -> RowId {
        assert_eq!(row.len(), self.width, "tuple width is fixed per heap");
        let id = self.slots;
        if id == self.segments.len() as u64 * self.segment_slots {
            self.segments.push(Segment::new(self.width));
        }
        self.segments
            .last_mut()
            .expect("a segment with room was just ensured")
            .push(row);
        self.note_insert(id, row);
        self.slots += 1;
        self.live += 1;
        id
    }

    /// The segment and slot holding the live tuple `id`; `None` if the
    /// slot is a tombstone or out of range.
    pub fn locate(&self, id: RowId) -> Option<(&Segment, usize)> {
        let (seg, slot) = self.split(id);
        let seg = self.segments.get(seg)?;
        seg.is_live(slot).then_some((seg, slot))
    }

    /// `(segment index, slot within it)` of a row id.
    fn split(&self, id: RowId) -> (usize, usize) {
        (
            (id / self.segment_slots) as usize,
            (id % self.segment_slots) as usize,
        )
    }

    /// Where slot `id` keeps its cell of column `col` — live or tombstoned:
    /// a deleted tuple keeps its cells until compaction, so a reader that
    /// only orders slots (a binary search on a key column) needs no
    /// liveness test. Panics past the last slot.
    pub fn stored_cell(&self, id: RowId, col: usize) -> (&Column, usize) {
        let (seg, slot) = self.split(id);
        (self.segments[seg].column(col), slot)
    }

    /// Materializes a row by id; `None` if the slot is a tombstone or out
    /// of range.
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.locate(id).map(|(seg, slot)| self.derive(seg, slot))
    }

    fn derive(&self, seg: &Segment, slot: usize) -> Row {
        self.derived.0.fetch_add(1, AtomicOrd::Relaxed);
        seg.row(slot)
    }

    /// Rows built so far by [`Self::get`], [`Self::iter`] and
    /// [`Self::iter_range`] — `update`, `delete` and `compact` go through
    /// them. Reading cells ([`Self::cell`], [`Self::locate`], the segments)
    /// does not count.
    pub fn rows_derived(&self) -> u64 {
        self.derived.0.load(AtomicOrd::Relaxed)
    }

    /// Reads one value of a live tuple.
    pub fn cell(&self, id: RowId, col: usize) -> Option<Value> {
        self.locate(id)
            .map(|(seg, slot)| seg.column(col).value_at(slot))
    }

    /// Overwrites a live tuple in place (UPDATE executes through this);
    /// returns the previous row, `None` if there was no live tuple.
    pub fn update(&mut self, id: RowId, row: &[Value]) -> Option<Row> {
        assert_eq!(row.len(), self.width, "tuple width is fixed per heap");
        let old = self.get(id)?;
        let (seg, slot) = self.split(id);
        for (col, v) in self.segments[seg].cols.iter_mut().zip(row) {
            col.set(slot, v);
        }
        self.recompute_zone_page(self.geometry.page_of(id) as usize);
        Some(old)
    }

    /// Tombstones a row; returns the row if it was live.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        let old = self.get(id)?;
        let (seg, slot) = self.split(id);
        self.segments[seg].kill(slot);
        self.live -= 1;
        self.recompute_zone_page(self.geometry.page_of(id) as usize);
        Some(old)
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> u64 {
        self.live
    }

    /// Number of slots (live + tombstoned); page counts derive from this,
    /// matching a heap that has not been vacuumed.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Number of logical pages occupied.
    pub fn pages(&self) -> u64 {
        self.geometry.pages_for(self.slots())
    }

    /// Fraction of slots that are tombstones (compaction heuristic input).
    pub fn tombstone_ratio(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        1.0 - self.live as f64 / self.slots as f64
    }

    /// The live tuples with ids in `start..end` (clamped), in slot order,
    /// as `(row id, segment, slot)` — what a reader of single cells walks.
    pub fn live_range(
        &self,
        start: RowId,
        end: RowId,
    ) -> impl Iterator<Item = (RowId, &Segment, usize)> + '_ {
        let ss = self.segment_slots;
        let end = end.min(self.slots);
        let first = (start / ss) as usize;
        let last = (end.div_ceil(ss) as usize).min(self.segments.len());
        (first..last.max(first)).flat_map(move |i| {
            let (seg, base) = (&self.segments[i], i as u64 * ss);
            let lo = start.saturating_sub(base) as usize;
            let hi = (end - base).min(ss) as usize;
            seg.live_slots(lo, hi)
                .map(move |slot| (base + slot as u64, seg, slot))
        })
    }

    /// Iterates `(row_id, row)` over live rows in slot (clustered) order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        self.iter_range(0, self.slots)
    }

    /// Iterates live rows within a slot range.
    pub fn iter_range(&self, start: RowId, end: RowId) -> impl Iterator<Item = (RowId, Row)> + '_ {
        self.live_range(start, end)
            .map(|(id, seg, slot)| (id, self.derive(seg, slot)))
    }

    /// Rebuilds the heap without tombstones, returning the mapping from old
    /// row id to new row id, in new-id order, so indexes can be rebuilt.
    /// With `order_by` the live tuples are re-inserted in the stable
    /// [`Value::sort_cmp`] order of that column (ties keep slot order) —
    /// how a clustered table gets its out-of-order appends back into key
    /// order; without, slot order is retained. Every column is rebuilt
    /// from its live values, so a column degraded by a since-deleted value
    /// is typed again.
    pub fn compact(&mut self, order_by: Option<usize>) -> Vec<(RowId, RowId)> {
        let mut fresh = Heap::new(self.geometry, self.width);
        fresh.set_zone_columns(&self.zone_columns());
        // Sorted by a copy of the key column alone: the rows are still
        // built one at a time.
        let mut live: Vec<(RowId, Value)> = (self.live_range(0, self.slots))
            .map(|(id, seg, slot)| {
                let key = order_by.map_or(Value::Null, |col| seg.column(col).value_at(slot));
                (id, key)
            })
            .collect();
        if order_by.is_some() {
            live.sort_by(|(_, a), (_, b)| a.sort_cmp(b));
        }
        let mut mapping = Vec::with_capacity(live.len());
        for (id, _) in live {
            let row = self.get(id).expect("a live row id");
            mapping.push((id, fresh.insert(&row)));
        }
        *self = fresh;
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_sql::Value;

    fn row(v: i64) -> Row {
        vec![Value::Int(v)]
    }

    fn heap(rows_per_page: u64) -> Heap {
        Heap::new(PageGeometry { rows_per_page }, 1)
    }

    #[test]
    fn geometry_from_tuple_bytes() {
        let g = PageGeometry::for_tuple_bytes(100);
        assert_eq!(g.rows_per_page, 81);
        assert_eq!(g.page_of(0), 0);
        assert_eq!(g.page_of(81), 1);
        assert_eq!(g.pages_for(0), 0);
        assert_eq!(g.pages_for(1), 1);
        assert_eq!(g.pages_for(82), 2);
    }

    #[test]
    fn geometry_minimum_one_row_per_page() {
        let g = PageGeometry::for_tuple_bytes(1 << 20);
        assert_eq!(g.rows_per_page, 1);
    }

    #[test]
    fn segments_hold_whole_pages() {
        // 81 rows per page: 13 pages reach the 1024-slot target.
        let h = Heap::new(PageGeometry::for_tuple_bytes(100), 1);
        assert_eq!(h.segment_slots(), 13 * 81);
        // A page wider than the target is a segment of its own.
        assert_eq!(heap(5000).segment_slots(), 5000);
    }

    #[test]
    fn insert_get_delete() {
        let mut h = heap(4);
        let a = h.insert(&row(1));
        let b = h.insert(&row(2));
        assert_eq!(h.get(a), Some(row(1)));
        assert_eq!(h.cell(a, 0), Some(Value::Int(1)));
        assert_eq!(h.delete(a), Some(row(1)));
        assert_eq!(h.get(a), None);
        assert_eq!(h.cell(a, 0), None);
        assert_eq!(h.get(b), Some(row(2)));
        assert_eq!(h.live_rows(), 1);
        assert_eq!(h.slots(), 2);
    }

    #[test]
    fn double_delete_is_none() {
        let mut h = heap(4);
        let a = h.insert(&row(1));
        assert!(h.delete(a).is_some());
        assert!(h.delete(a).is_none());
        assert_eq!(h.live_rows(), 0);
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut h = heap(4);
        for i in 0..5 {
            h.insert(&row(i));
        }
        h.delete(2);
        let ids: Vec<RowId> = h.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }

    #[test]
    fn range_iter_bounds() {
        let mut h = heap(4);
        for i in 0..10 {
            h.insert(&row(i));
        }
        let vals: Vec<i64> = h
            .iter_range(3, 7)
            .map(|(_, r)| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![3, 4, 5, 6]);
        // Out-of-range end is clamped.
        assert_eq!(h.iter_range(8, 100).count(), 2);
        assert_eq!(h.iter_range(50, 100).count(), 0);
    }

    #[test]
    fn update_replaces_the_tuple_and_returns_the_old_one() {
        let mut h = heap(4);
        for i in 0..3 {
            h.insert(&row(i));
        }
        assert_eq!(h.update(1, &row(10)), Some(row(1)));
        assert_eq!(h.get(1), Some(row(10)));
        h.delete(2);
        assert_eq!(h.update(2, &row(20)), None);
        assert_eq!(h.update(99, &row(20)), None);
    }

    #[test]
    fn compact_preserves_order_and_maps_ids() {
        let mut h = heap(4);
        for i in 0..6 {
            h.insert(&row(i));
        }
        h.delete(1);
        h.delete(4);
        let mapping = h.compact(None);
        assert_eq!(h.slots(), 4);
        assert_eq!(h.live_rows(), 4);
        assert_eq!(h.tombstone_ratio(), 0.0);
        let vals: Vec<i64> = h.iter().map(|(_, r)| r[0].as_i64().unwrap()).collect();
        assert_eq!(vals, vec![0, 2, 3, 5]);
        assert!(mapping.contains(&(5, 3)));
    }

    fn range_of(h: &Heap, col: usize, page: u64) -> Option<(i64, i64)> {
        match h.zone_range(col, page)? {
            ZoneRange::Empty => None,
            ZoneRange::Range { min, max } => Some((min.as_i64().unwrap(), max.as_i64().unwrap())),
        }
    }

    #[test]
    fn zone_maps_widen_on_insert() {
        let mut h = heap(4);
        h.set_zone_columns(&[0]);
        for i in 0..10 {
            h.insert(&row(i));
        }
        assert_eq!(range_of(&h, 0, 0), Some((0, 3)));
        assert_eq!(range_of(&h, 0, 1), Some((4, 7)));
        assert_eq!(range_of(&h, 0, 2), Some((8, 9)));
        // Unmapped column: no zone information at all.
        assert!(h.zone_range(1, 0).is_none());
        // Pages past the heap end report Empty, not absence.
        assert_eq!(h.zone_range(0, 99), Some(&ZoneRange::Empty));
    }

    #[test]
    fn zone_maps_rebuild_from_existing_rows_and_skip_nulls() {
        let mut h = heap(2);
        h.insert(&row(5));
        h.insert(&[Value::Null]);
        h.insert(&row(7));
        h.set_zone_columns(&[0]);
        assert_eq!(range_of(&h, 0, 0), Some((5, 5)));
        assert_eq!(range_of(&h, 0, 1), Some((7, 7)));
        // An all-NULL page summarizes to Empty.
        h.delete(0);
        assert_eq!(h.zone_range(0, 0), Some(&ZoneRange::Empty));
    }

    #[test]
    fn zone_maps_tighten_on_delete_and_survive_compact() {
        let mut h = heap(4);
        h.set_zone_columns(&[0]);
        for i in 0..8 {
            h.insert(&row(i));
        }
        // Deleting the page max recomputes the page's bounds exactly.
        h.delete(3);
        assert_eq!(range_of(&h, 0, 0), Some((0, 2)));
        h.delete(4);
        assert_eq!(range_of(&h, 0, 1), Some((5, 7)));
        // Compaction shifts rows across page boundaries; the maps follow.
        h.compact(None);
        assert_eq!(h.slots(), 6);
        assert_eq!(range_of(&h, 0, 0), Some((0, 5)));
        assert_eq!(range_of(&h, 0, 1), Some((6, 7)));
    }

    #[test]
    fn zone_maps_follow_an_update() {
        let mut h = heap(4);
        h.set_zone_columns(&[0]);
        for i in 0..4 {
            h.insert(&row(i));
        }
        h.update(2, &row(100));
        assert_eq!(range_of(&h, 0, 0), Some((0, 100)));
        h.update(2, &row(1));
        assert_eq!(range_of(&h, 0, 0), Some((0, 3)));
    }

    #[test]
    fn compact_by_a_column_is_a_stable_sort_of_the_live_tuples() {
        let mut h = Heap::new(PageGeometry { rows_per_page: 4 }, 2);
        let keys = [Some(5), Some(1), None, Some(5), Some(3), Some(1), None];
        for (i, k) in keys.iter().enumerate() {
            h.insert(&[k.map_or(Value::Null, Value::Int), Value::Int(i as i64)]);
        }
        h.delete(4);
        let mapping = h.compact(Some(0));
        // NULLs first, equal keys in their old slot order, the dead row gone.
        let old_ids: Vec<RowId> = mapping.iter().map(|&(old, _)| old).collect();
        assert_eq!(old_ids, [2, 6, 1, 5, 0, 3]);
        let new_ids: Vec<RowId> = mapping.iter().map(|&(_, new)| new).collect();
        assert_eq!(new_ids, [0, 1, 2, 3, 4, 5]);
        let tags: Vec<i64> = h.iter().map(|(_, r)| r[1].as_i64().unwrap()).collect();
        assert_eq!(tags, [2, 6, 1, 5, 0, 3]);
    }

    #[test]
    fn pages_track_slots_not_live_rows() {
        let mut h = heap(2);
        for i in 0..6 {
            h.insert(&row(i));
        }
        for id in 0..6 {
            h.delete(id);
        }
        // All dead but the heap still spans 3 pages until compaction.
        assert_eq!(h.pages(), 3);
        h.compact(None);
        assert_eq!(h.pages(), 0);
    }
}
