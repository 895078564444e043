//! A table: schema + heap + indexes, with index-maintaining mutations.
//!
//! A clustered table also tracks its *ordered prefix*: how many leading
//! slots of the heap are in clustering-key order. A key range on the
//! clustering column is a slot interval of the prefix — two binary
//! searches on the stored key column ([`Table::prefix_slots`]) — plus
//! whichever rows of the *tail* behind it fall in the range
//! ([`KeyRange::contains`]).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::{Bound, Range};

use apuama_sql::Value;
use apuama_storage::{Column, Heap, OrderedIndex, PageGeometry, Row, RowId};

use crate::catalog::TableSchema;
use crate::error::{EngineError, EngineResult};
use crate::exec::{self, Binding};

/// One table of one node's database.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    /// What a scan of the table under its own name binds, built once: a
    /// scan without an alias borrows it.
    bindings: Vec<Binding>,
    pub heap: Heap,
    /// Secondary (and clustered) indexes keyed by column index.
    indexes: HashMap<usize, OrderedIndex>,
    /// Slots `0..ordered_prefix` hold non-decreasing clustering keys
    /// ([`Value::sort_cmp`]: NULLs first, equal keys in arrival order),
    /// tombstones included — a deleted tuple keeps its cells. `bulk_load`
    /// and `vacuum` sort, so they leave the whole heap prefix; an append
    /// extends the prefix while its key is not before the last one and
    /// starts the tail otherwise; an update that changes the key of a
    /// prefix slot cuts the prefix there. Always 0 without a clustering
    /// column.
    ordered_prefix: u64,
}

/// Whether a tuple keyed `key`, stored at slot `prefix`, continues the key
/// order of the `prefix` slots before it. `sort_cmp` is a total order — a
/// NaN ranks above every number, integers included — so a NaN key extends
/// the prefix like any other: after a load or a vacuum the NaNs close it.
fn extends_prefix(heap: &Heap, prefix: u64, col: usize, key: &Value) -> bool {
    prefix == 0 || {
        let (last, slot) = heap.stored_cell(prefix - 1, col);
        last.sort_cmp_at(slot, key) != Ordering::Greater
    }
}

/// The keys a clustered index range admits. A range with a bound admits no
/// NULL key, and a NULL bound admits nothing (`k > NULL` is true of no
/// row); the range without bounds — no conjunct consumed — admits every
/// row. Otherwise bounds compare as [`Value::sort_cmp`] does, like the
/// B-tree's.
#[derive(Debug, Clone)]
pub(crate) struct KeyRange {
    low: Bound<Value>,
    high: Bound<Value>,
}

impl KeyRange {
    pub(crate) fn new(low: &Bound<Value>, high: &Bound<Value>) -> Self {
        let null =
            |b: &Bound<Value>| matches!(b, Bound::Included(v) | Bound::Excluded(v) if v.is_null());
        KeyRange {
            low: low.clone(),
            // No key sorts before NULL: as an excluded high bound it admits
            // nothing, which is what a NULL bound on either side means.
            high: if null(low) || null(high) {
                Bound::Excluded(Value::Null)
            } else {
                high.clone()
            },
        }
    }

    /// The key at `slot` of `col` lies before the range: it fails the low
    /// bound, or it is NULL — NULLs sort first — under a high bound alone.
    fn below(&self, col: &Column, slot: usize) -> bool {
        match &self.low {
            Bound::Unbounded => {
                !matches!(self.high, Bound::Unbounded) && !col.validity().is_valid(slot)
            }
            Bound::Included(v) => col.sort_cmp_at(slot, v) == Ordering::Less,
            Bound::Excluded(v) => col.sort_cmp_at(slot, v) != Ordering::Greater,
        }
    }

    /// The key at `slot` of `col` lies past the range.
    fn above(&self, col: &Column, slot: usize) -> bool {
        match &self.high {
            Bound::Unbounded => false,
            Bound::Included(v) => col.sort_cmp_at(slot, v) == Ordering::Greater,
            Bound::Excluded(v) => col.sort_cmp_at(slot, v) != Ordering::Less,
        }
    }

    /// Whether the range admits the key at `slot` of `col` — the test a
    /// tail row gets.
    pub(crate) fn contains(&self, col: &Column, slot: usize) -> bool {
        !(self.below(col, slot) || self.above(col, slot))
    }
}

/// The first of `0..n` that `before` does not hold for, `before` holding
/// for a leading run only.
fn partition_point(n: u64, before: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl Table {
    /// Creates an empty table. An index on the clustering column is created
    /// automatically (it is the access path SVP relies on).
    pub fn new(schema: TableSchema) -> Table {
        let geometry = PageGeometry::for_tuple_bytes(schema.tuple_bytes());
        let mut indexes = HashMap::new();
        let mut heap = Heap::new(geometry, schema.arity());
        if let Some(c) = schema.clustered_by {
            indexes.insert(c, OrderedIndex::new());
            // Indexed columns carry per-page zone maps so sequential scans
            // with a pushed-down comparison can skip whole pages.
            heap.set_zone_columns(&[c]);
        }
        Table {
            bindings: exec::bindings_for_table(&schema, None),
            schema,
            heap,
            indexes,
            ordered_prefix: 0,
        }
    }

    /// The bindings of a scan of this table under its own name.
    pub(crate) fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// How many leading slots of the heap are in clustering-key order;
    /// the slots from there on are the tail.
    pub fn ordered_prefix(&self) -> u64 {
        self.ordered_prefix
    }

    /// The slots of the ordered prefix whose keys `range` admits — a
    /// contiguous run, found by binary search on the stored key column
    /// (tombstones order like the tuples they were). Only meaningful on a
    /// clustered table.
    pub(crate) fn prefix_slots(&self, range: &KeyRange) -> Range<RowId> {
        let Some(c) = self.schema.clustered_by else {
            return 0..0;
        };
        let n = self.ordered_prefix;
        let lo = partition_point(n, |id| {
            let (col, slot) = self.heap.stored_cell(id, c);
            range.below(col, slot)
        });
        let hi = partition_point(n, |id| {
            let (col, slot) = self.heap.stored_cell(id, c);
            !range.above(col, slot)
        });
        lo..hi.max(lo)
    }

    /// Adds a secondary index on `column` and back-fills it (plus the zone
    /// map a seq scan consults for predicates on that column).
    pub fn create_index(&mut self, column: usize) {
        if self.indexes.contains_key(&column) {
            return;
        }
        let mut idx = OrderedIndex::new();
        for (rid, seg, slot) in self.heap.live_range(0, self.heap.slots()) {
            idx.insert(seg.column(column).value_at(slot), rid);
        }
        self.indexes.insert(column, idx);
        let cols: Vec<usize> = self.indexes.keys().copied().collect();
        self.heap.set_zone_columns(&cols);
    }

    /// Index on a column, if one exists.
    pub fn index_on(&self, column: usize) -> Option<&OrderedIndex> {
        self.indexes.get(&column)
    }

    /// Columns that currently carry an index.
    pub fn indexed_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.indexes.keys().copied()
    }

    /// Validates a row against the schema (arity, NOT NULL, basic types).
    fn check_row(&self, row: &Row) -> EngineResult<()> {
        if row.len() != self.schema.arity() {
            return Err(EngineError::Constraint(format!(
                "table '{}' expects {} columns, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (col, value) in self.schema.columns.iter().zip(row) {
            if col.not_null && value.is_null() {
                return Err(EngineError::Constraint(format!(
                    "column '{}' is NOT NULL",
                    col.name
                )));
            }
        }
        Ok(())
    }

    /// Inserts a row, maintaining all indexes. Returns the new row id.
    pub fn insert(&mut self, row: Row) -> EngineResult<RowId> {
        self.check_row(&row)?;
        Ok(self.append(&row))
    }

    /// Appends a checked row to the heap and posts it to every index; a
    /// clustered table's ordered prefix grows with it while the keys keep
    /// arriving in order.
    fn append(&mut self, row: &Row) -> RowId {
        let rid = self.heap.insert(row);
        if let Some(c) = self.schema.clustered_by {
            if rid == self.ordered_prefix && extends_prefix(&self.heap, rid, c, &row[c]) {
                self.ordered_prefix += 1;
            }
        }
        for (&c, idx) in self.indexes.iter_mut() {
            idx.insert(row[c].clone(), rid);
        }
        rid
    }

    /// Deletes a row by id, maintaining all indexes. Returns the old row.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        let row = self.heap.delete(rid)?;
        for (&c, idx) in self.indexes.iter_mut() {
            idx.remove(&row[c], rid);
        }
        Some(row)
    }

    /// Replaces the values of a row in place, maintaining indexes for the
    /// changed columns; a new clustering key in a slot of the ordered
    /// prefix ends the prefix at that slot. Returns the previous row.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> EngineResult<Option<Row>> {
        self.check_row(&new_row)?;
        let Some(old) = self.heap.update(rid, &new_row) else {
            return Ok(None);
        };
        if let Some(c) = self.schema.clustered_by {
            if rid < self.ordered_prefix && old[c].sort_cmp(&new_row[c]) != Ordering::Equal {
                self.ordered_prefix = rid;
            }
        }
        for (&c, idx) in self.indexes.iter_mut() {
            if old[c] != new_row[c] {
                idx.remove(&old[c], rid);
                idx.insert(new_row[c].clone(), rid);
            }
        }
        Ok(Some(old))
    }

    /// Bulk load: sorts by the clustering column (if any) and appends,
    /// rebuilding indexes. Only valid on an empty table — the loader uses
    /// it once per replica, and hands every replica the same generated rows
    /// by reference (`Vec<&Row>`): the heap copies cells, it never keeps a
    /// row, so an owned `Vec<Row>` is only read too.
    pub fn bulk_load<R: Borrow<Row>>(&mut self, mut rows: Vec<R>) -> EngineResult<()> {
        for r in &rows {
            self.check_row(r.borrow())?;
        }
        if self.heap.slots() != 0 {
            return Err(EngineError::Constraint(format!(
                "bulk_load on non-empty table '{}'",
                self.schema.name
            )));
        }
        if let Some(c) = self.schema.clustered_by {
            rows.sort_by(|a, b| a.borrow()[c].sort_cmp(&b.borrow()[c]));
        }
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
        for row in &rows {
            self.append(row.borrow());
        }
        Ok(())
    }

    /// Rebuilds the heap without tombstones and re-keys every index —
    /// VACUUM FULL in miniature. A clustered table is re-clustered on the
    /// way: its live rows go back in stable key order, so rows appended or
    /// updated out of order rejoin the ordered prefix, which is the whole
    /// heap afterwards. Returns the number of slots reclaimed.
    pub fn vacuum(&mut self) -> u64 {
        let before = self.heap.slots();
        let clustered = self.schema.clustered_by;
        // Row ids are internal to the engine: nothing outside the table
        // holds one across statements, so the compaction mapping can be
        // dropped once the indexes are rebuilt below.
        let _mapping = self.heap.compact(clustered);
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
        self.ordered_prefix = 0;
        for (rid, seg, slot) in self.heap.live_range(0, self.heap.slots()) {
            for (&c, idx) in self.indexes.iter_mut() {
                idx.insert(seg.column(c).value_at(slot), rid);
            }
            if let Some(c) = clustered {
                let key = seg.column(c).value_at(slot);
                if rid == self.ordered_prefix && extends_prefix(&self.heap, rid, c, &key) {
                    self.ordered_prefix += 1;
                }
            }
        }
        before - self.heap.slots()
    }

    /// Fraction of heap slots that are tombstones.
    pub fn tombstone_ratio(&self) -> f64 {
        self.heap.tombstone_ratio()
    }

    /// Live row count.
    pub fn row_count(&self) -> u64 {
        self.heap.live_rows()
    }

    /// Page count (I/O accounting denominator).
    pub fn pages(&self) -> u64 {
        self.heap.pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_sql::{ColumnDef, DataType, Value};
    use std::ops::Bound;

    fn schema() -> TableSchema {
        TableSchema::from_ddl(
            0,
            "t",
            &[
                ColumnDef {
                    name: "k".into(),
                    data_type: DataType::Int,
                    not_null: true,
                },
                ColumnDef {
                    name: "v".into(),
                    data_type: DataType::Text,
                    not_null: false,
                },
            ],
            &["k".into()],
            None,
        )
        .unwrap()
    }

    fn row(k: i64, v: &str) -> Row {
        vec![Value::Int(k), Value::Str(v.into())]
    }

    #[test]
    fn clustered_index_auto_created() {
        let t = Table::new(schema());
        assert!(t.index_on(0).is_some());
        assert!(t.index_on(1).is_none());
    }

    #[test]
    fn insert_maintains_index() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(7, "x")).unwrap();
        assert_eq!(t.index_on(0).unwrap().get(&Value::Int(7)), &[rid]);
    }

    #[test]
    fn delete_maintains_index() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(7, "x")).unwrap();
        t.delete(rid).unwrap();
        assert!(t.index_on(0).unwrap().get(&Value::Int(7)).is_empty());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn update_moves_index_entry() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(7, "x")).unwrap();
        t.update(rid, row(8, "y")).unwrap();
        assert!(t.index_on(0).unwrap().get(&Value::Int(7)).is_empty());
        assert_eq!(t.index_on(0).unwrap().get(&Value::Int(8)), &[rid]);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::new(schema());
        let err = t
            .insert(vec![Value::Null, Value::Str("x".into())])
            .unwrap_err();
        assert!(matches!(err, EngineError::Constraint(_)));
    }

    #[test]
    fn arity_enforced() {
        let mut t = Table::new(schema());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn bulk_load_sorts_by_cluster_key() {
        let mut t = Table::new(schema());
        t.bulk_load(vec![row(5, "c"), row(1, "a"), row(3, "b")])
            .unwrap();
        let keys: Vec<i64> = t.heap.iter().map(|(_, r)| r[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        // Clustered property: index range maps to contiguous row ids.
        let rids: Vec<RowId> = t
            .index_on(0)
            .unwrap()
            .range(Bound::Unbounded, Bound::Unbounded)
            .map(|(_, r)| r)
            .collect();
        assert_eq!(rids, vec![0, 1, 2]);
    }

    #[test]
    fn bulk_load_rejects_nonempty() {
        let mut t = Table::new(schema());
        t.insert(row(1, "a")).unwrap();
        assert!(t.bulk_load(vec![row(2, "b")]).is_err());
    }

    #[test]
    fn secondary_index_backfills() {
        let mut t = Table::new(schema());
        t.insert(row(1, "a")).unwrap();
        t.insert(row(2, "b")).unwrap();
        t.create_index(1);
        assert_eq!(t.index_on(1).unwrap().len(), 2);
    }
}

#[cfg(test)]
mod vacuum_tests {
    use super::*;
    use apuama_sql::{ColumnDef, DataType, Value};
    use std::ops::Bound;

    fn loaded_table(n: i64) -> Table {
        let schema = TableSchema::from_ddl(
            0,
            "t",
            &[ColumnDef {
                name: "k".into(),
                data_type: DataType::Int,
                not_null: true,
            }],
            &["k".into()],
            None,
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.bulk_load((0..n).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        t
    }

    #[test]
    fn vacuum_reclaims_pages_and_keeps_answers() {
        let mut t = loaded_table(1000);
        let pages_before = t.pages();
        // Delete every other row.
        for rid in (0..1000u64).step_by(2) {
            t.delete(rid);
        }
        assert!(t.tombstone_ratio() > 0.4);
        let reclaimed = t.vacuum();
        assert_eq!(reclaimed, 500);
        assert_eq!(t.tombstone_ratio(), 0.0);
        assert!(t.pages() < pages_before);
        // Index agrees with the heap after the rebuild.
        assert_eq!(t.index_on(0).unwrap().len(), 500);
        let keys: Vec<i64> = t
            .index_on(0)
            .unwrap()
            .range(
                Bound::Included(&Value::Int(0)),
                Bound::Excluded(&Value::Int(10)),
            )
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    /// Keys in slot order, NULL as `None`.
    fn keys(t: &Table) -> Vec<Option<i64>> {
        t.heap.iter().map(|(_, row)| row[0].as_i64()).collect()
    }

    #[test]
    fn vacuum_preserves_clustered_order() {
        let mut t = loaded_table(100);
        for rid in 20..40u64 {
            t.delete(rid);
        }
        t.vacuum();
        assert_eq!(
            keys(&t),
            (0..20).chain(40..100).map(Some).collect::<Vec<_>>()
        );
        assert_eq!(t.ordered_prefix(), 80);
    }

    #[test]
    fn the_ordered_prefix_follows_appends_and_key_updates_and_vacuum_restores_it() {
        let mut t = loaded_table(100);
        assert_eq!(t.ordered_prefix(), 100);
        // In-order appends — a duplicate of the last key included — extend
        // the prefix; the first one out of order starts the tail, and
        // nothing after it rejoins.
        for k in [99, 150, 150, 7, 200] {
            t.insert(vec![Value::Int(k)]).unwrap();
        }
        assert_eq!(t.ordered_prefix(), 103);
        // Deleting does not move it: the tombstone keeps its key.
        t.delete(50);
        t.delete(103);
        assert_eq!(t.ordered_prefix(), 103);
        // A new key in a tail slot changes nothing; in a prefix slot it
        // ends the prefix there, an unchanged one does not.
        t.update(104, vec![Value::Int(3)]).unwrap();
        assert_eq!(t.ordered_prefix(), 103);
        t.update(60, vec![Value::Int(60)]).unwrap();
        assert_eq!(t.ordered_prefix(), 103);
        t.update(60, vec![Value::Int(500)]).unwrap();
        assert_eq!(t.ordered_prefix(), 60);
        // The range is still the rows whose keys lie in it, in slot order.
        let range = KeyRange::new(
            &Bound::Included(Value::Int(58)),
            &Bound::Excluded(Value::Int(151)),
        );
        assert_eq!(t.prefix_slots(&range), 58..60);
        let tail: Vec<RowId> = (t.heap.live_range(60, t.heap.slots()))
            .filter(|(_, seg, slot)| range.contains(seg.column(0), *slot))
            .map(|(rid, _, _)| rid)
            .collect();
        assert_eq!(tail, (61..=102).collect::<Vec<RowId>>());

        // Vacuum re-clusters: stable key order, and the whole heap is
        // prefix again.
        t.vacuum();
        let mut want: Vec<i64> = (0..100).filter(|k| ![50, 60].contains(k)).collect();
        want.extend([99, 150, 150, 3, 500]);
        want.sort();
        assert_eq!(keys(&t), want.into_iter().map(Some).collect::<Vec<_>>());
        assert_eq!(t.ordered_prefix(), t.heap.slots());
        assert_eq!(t.prefix_slots(&range), 58..102);
    }

    #[test]
    fn vacuum_on_clean_table_is_a_noop() {
        let mut t = loaded_table(10);
        assert_eq!(t.vacuum(), 0);
        assert_eq!(t.row_count(), 10);
    }
}
