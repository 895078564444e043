use apuama_sql::Value;
use apuama_storage::Row;

use crate::exec::{self};

// ---------------------------------------------------------------------------
// Operator contract
// ---------------------------------------------------------------------------

/// Row-parallel ORDER BY sort keys in one flat buffer: row `i`'s key is
/// `vals[i * stride..(i + 1) * stride]` — a single buffer per batch, not
/// one `Vec` per projected row. `stride` is the ORDER
/// BY component count (0 when the statement has no ORDER BY, in which
/// case the buffer stays empty and only the row count is tracked).
#[derive(Default)]
pub(crate) struct KeyBuf {
    vals: Vec<Value>,
    stride: usize,
    rows: usize,
}

impl KeyBuf {
    pub(crate) fn with_capacity(stride: usize, rows: usize) -> Self {
        KeyBuf {
            vals: Vec::with_capacity(stride * rows),
            stride,
            rows: 0,
        }
    }

    pub(crate) fn from_parts(vals: Vec<Value>, stride: usize, rows: usize) -> Self {
        debug_assert_eq!(vals.len(), stride * rows);
        KeyBuf { vals, stride, rows }
    }

    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Number of keyed rows (meaningful even at stride 0).
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Row `i`'s key components.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> &[Value] {
        &self.vals[i * self.stride..(i + 1) * self.stride]
    }

    /// Appends one key component of the row currently being built; the row
    /// is complete after exactly `stride` pushes followed by [`Self::end_row`].
    #[inline]
    pub(crate) fn push_val(&mut self, v: Value) {
        self.vals.push(v);
    }

    /// Marks the current row complete.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        self.rows += 1;
        debug_assert_eq!(self.vals.len(), self.rows * self.stride);
    }

    /// Moves another buffer's keys onto the end of this one. An empty
    /// buffer adopts the other's stride (batches before the first row
    /// carry stride 0).
    pub(crate) fn append(&mut self, other: KeyBuf) {
        if self.rows == 0 {
            self.stride = other.stride;
        }
        debug_assert!(other.rows == 0 || other.stride == self.stride);
        self.vals.extend(other.vals);
        self.rows += other.rows;
    }

    pub(crate) fn into_vals(self) -> Vec<Value> {
        self.vals
    }
}

/// A batch of rows flowing between operators, with the ORDER BY sort keys
/// computed alongside them. `keys` is row-parallel above the projection
/// stage and empty below it.
pub(crate) struct RowBatch {
    pub(crate) rows: Vec<Row>,
    pub(crate) keys: KeyBuf,
}
// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Re-emits a materialized row set (a pipeline breaker's output) in
/// [`exec::SCAN_BATCH_ROWS`]-row batches.
pub(crate) struct BatchEmitter {
    rows: std::vec::IntoIter<Row>,
    keys: std::vec::IntoIter<Value>,
    stride: usize,
}

impl BatchEmitter {
    pub(crate) fn new(rows: Vec<Row>, keys: KeyBuf) -> Self {
        let stride = keys.stride();
        BatchEmitter {
            rows: rows.into_iter(),
            keys: keys.into_vals().into_iter(),
            stride,
        }
    }

    pub(crate) fn rows_only(rows: Vec<Row>) -> Self {
        Self::new(rows, KeyBuf::default())
    }

    pub(crate) fn next(&mut self) -> Option<RowBatch> {
        let rows: Vec<Row> = self
            .rows
            .by_ref()
            .take(exec::SCAN_BATCH_ROWS as usize)
            .collect();
        if rows.is_empty() {
            return None;
        }
        let vals: Vec<Value> = self.keys.by_ref().take(self.stride * rows.len()).collect();
        let keyed_rows = vals.len().checked_div(self.stride).unwrap_or(0);
        let keys = KeyBuf::from_parts(vals, self.stride, keyed_rows);
        Some(RowBatch { rows, keys })
    }
}
