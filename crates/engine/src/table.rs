//! A table: schema + heap + indexes, with index-maintaining mutations.

use std::borrow::Borrow;
use std::collections::HashMap;

use apuama_storage::{Heap, OrderedIndex, PageGeometry, Row, RowId};

use crate::catalog::TableSchema;
use crate::error::{EngineError, EngineResult};

/// One table of one node's database.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    pub heap: Heap,
    /// Secondary (and clustered) indexes keyed by column index.
    indexes: HashMap<usize, OrderedIndex>,
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
            schema,
            heap,
            indexes,
        }
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

    /// Appends a checked row to the heap and posts it to every index.
    fn append(&mut self, row: &Row) -> RowId {
        let rid = self.heap.insert(row);
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
    /// changed columns. Returns the previous row.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> EngineResult<Option<Row>> {
        self.check_row(&new_row)?;
        let Some(old) = self.heap.update(rid, &new_row) else {
            return Ok(None);
        };
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
    /// VACUUM FULL in miniature. Clustered order is preserved. Returns the
    /// number of slots reclaimed.
    pub fn vacuum(&mut self) -> u64 {
        let before = self.heap.slots();
        // Row ids are internal to the engine: nothing outside the table
        // holds one across statements, so the compaction mapping can be
        // dropped once the indexes are rebuilt below.
        let _mapping = self.heap.compact();
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
        for (rid, seg, slot) in self.heap.live_range(0, self.heap.slots()) {
            for (&c, idx) in self.indexes.iter_mut() {
                idx.insert(seg.column(c).value_at(slot), rid);
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

    #[test]
    fn vacuum_preserves_clustered_order() {
        let mut t = loaded_table(100);
        for rid in 20..40u64 {
            t.delete(rid);
        }
        t.vacuum();
        let mut last = i64::MIN;
        for (_, row) in t.heap.iter() {
            let k = row[0].as_i64().unwrap();
            assert!(k > last, "clustered order broken at {k}");
            last = k;
        }
    }

    #[test]
    fn vacuum_on_clean_table_is_a_noop() {
        let mut t = loaded_table(10);
        assert_eq!(t.vacuum(), 0);
        assert_eq!(t.row_count(), 10);
    }
}
