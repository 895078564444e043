//! Node-local storage substrate for the Apuama reproduction.
//!
//! Each simulated cluster node runs one `apuama-engine` database instance
//! whose tables live in this crate's structures:
//!
//! * [`heap::Heap`] — a paged tuple heap. Pages are *logical*: tuples are
//!   kept in memory, as typed column segments of whole pages, but every
//!   access is attributed to a page number so the buffer pool can account
//!   for I/O exactly as a disk-resident engine would. A clustered table is
//!   loaded in clustering-key order (TPC-H fact tables are clustered by
//!   their virtual-partitioning attribute, the property the paper's SVP
//!   depends on); rows appended later go wherever the heap ends, and the
//!   engine's `Table` tracks how far the key order reaches, so that a key
//!   range is a slot interval of the heap ([`heap::Heap::stored_cell`]
//!   serves its binary search, [`heap::Heap::compact`] re-clusters).
//! * [`buffer::BufferPool`] — an LRU page cache with hit/miss/eviction
//!   accounting. Its capacity is the knob that reproduces the paper's
//!   memory-fit effects: the per-node pool is sized at the paper's RAM:DB
//!   ratio, so virtual partitions start fitting in memory at the same node
//!   counts as in the original 32-node cluster.
//! * [`index::OrderedIndex`] — a B-tree of key → row-id postings: point
//!   probes on any indexed column, range scans on secondary ones (the
//!   access path `SET enable_seqscan = off` forces; a clustering column's
//!   ranges are resolved on the heap instead).
//! * [`column::Column`] — typed, appendable column vectors with validity
//!   bitmaps: what a heap segment stores. The engine's scans, vectorized
//!   predicates and folds run over these; rows are materialized from them
//!   only for the tuples a statement keeps.
//!
//! The engine charges page accesses through [`buffer::BufferPool::access`];
//! the simulator later converts the recorded sequential/random miss counts
//! into time using the calibrated cost model.

pub mod buffer;
pub mod column;
pub mod heap;
pub mod index;

pub use buffer::{AccessKind, BufferPool, BufferStats, PageKey};
pub use column::{Coded, Column, ColumnVec, StrArena, StrVec, Validity, DICT_CAP};
pub use heap::{Heap, PageGeometry, RowId, Segment, ZoneRange, SEGMENT_SLOTS};
pub use index::{IndexKey, OrderedIndex};

/// A tuple: one dynamic value per column.
pub type Row = Vec<apuama_sql::Value>;

/// Identifies a table within a node (assigned by the engine catalog).
pub type TableId = u32;
