//! Per-statement execution statistics.
//!
//! These counters are the contract between the real execution (this crate)
//! and the simulated timing (`apuama-sim`): the engine counts *work*, the
//! simulator prices it. Buffer-pool numbers come from diffing
//! [`apuama_storage::BufferStats`] around the statement; CPU-side numbers
//! are counted by the executor.

use apuama_storage::BufferStats;

/// Everything a statement did, in hardware-neutral units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Buffer pool activity attributed to this statement.
    pub buffer: BufferStats,
    /// Tuples read out of heaps (scan output before filtering).
    pub rows_scanned: u64,
    /// Tuples flowing through CPU-bound operators (filter evaluations,
    /// hash-join build+probe, aggregation updates, sort comparisons are
    /// folded in at `n log n`).
    pub cpu_tuple_ops: u64,
    /// Rows in the statement result.
    pub rows_out: u64,
    /// Approximate bytes in the statement result (network transfer input
    /// for the cost model).
    pub bytes_out: u64,
    /// Number of index probes performed (subquery lookups, secondary-index
    /// point reads).
    pub index_probes: u64,
    /// Scan batches dispatched through the physical pipeline (full
    /// [`crate::exec::SCAN_BATCH_ROWS`]-row batches plus the final partial
    /// one per scan). Identical between the fused and general shapes; the
    /// sim can price per-batch dispatch overhead off it.
    pub scan_batches: u64,
    /// Heap pages a sequential scan skipped outright because the page's
    /// zone map proved no row could satisfy a pushed-down comparison.
    /// Pruned pages are *not* charged to the buffer pool and their rows
    /// are not counted in `rows_scanned`.
    pub pages_pruned: u64,
}

impl ExecStats {
    /// Component-wise sum, used when one logical operation runs several
    /// statements (e.g. a refresh transaction).
    pub fn merge(&mut self, other: &ExecStats) {
        self.buffer.hits += other.buffer.hits;
        self.buffer.misses_seq += other.buffer.misses_seq;
        self.buffer.misses_rand += other.buffer.misses_rand;
        self.buffer.evictions += other.buffer.evictions;
        self.rows_scanned += other.rows_scanned;
        self.cpu_tuple_ops += other.cpu_tuple_ops;
        self.rows_out += other.rows_out;
        self.bytes_out += other.bytes_out;
        self.index_probes += other.index_probes;
        self.scan_batches += other.scan_batches;
        self.pages_pruned += other.pages_pruned;
    }
}

/// Wall-clock phase breakdown of a pipelined parallel execution: how long
/// until the composer received its first partial, how much composition work
/// overlapped still-running sub-queries, and how much ran serially after
/// the last partial. All durations are measured by the orchestrator (the
/// engine counts *work* in [`ExecStats`]; phases are *time*).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTiming {
    /// Dispatch (all sub-queries released) → first partial consumed.
    pub first_partial_ms: f64,
    /// Composition time spent while at least one sub-query was still
    /// outstanding (work the pipeline hides).
    pub compose_overlap_ms: f64,
    /// Composition time after the last partial arrived (the serial tail —
    /// what a non-pipelined executor pays in full).
    pub compose_tail_ms: f64,
    /// Dispatch → final result, total.
    pub total_ms: f64,
}

impl PhaseTiming {
    /// Fraction of total composition time hidden behind sub-query
    /// execution (0 when no composition work happened).
    pub fn overlap_fraction(&self) -> f64 {
        let compose = self.compose_overlap_ms + self.compose_tail_ms;
        if compose <= 0.0 {
            0.0
        } else {
            self.compose_overlap_ms / compose
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_overlap_fraction_is_bounded() {
        let t = PhaseTiming {
            first_partial_ms: 1.0,
            compose_overlap_ms: 3.0,
            compose_tail_ms: 1.0,
            total_ms: 10.0,
        };
        assert!((t.overlap_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(PhaseTiming::default().overlap_fraction(), 0.0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = ExecStats {
            rows_scanned: 10,
            cpu_tuple_ops: 5,
            ..ExecStats::default()
        };
        let b = ExecStats {
            rows_scanned: 3,
            rows_out: 1,
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 13);
        assert_eq!(a.cpu_tuple_ops, 5);
        assert_eq!(a.rows_out, 1);
    }

    /// Scan counters are flushed once per [`crate::exec::SCAN_BATCH_ROWS`]
    /// batch rather than once per row; totals must be exactly the row
    /// count, including the final partial batch.
    #[test]
    fn batched_scan_charges_are_exact() {
        use apuama_sql::Value;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, primary key (k)) clustered by (k)")
            .unwrap();
        // 2500 rows = two full 1024-row batches plus a 452-row remainder.
        let rows: Vec<Vec<Value>> = (0..2500i64).map(|i| vec![Value::Int(i)]).collect();
        d.load_table("t", rows).unwrap();
        let out = d.query("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2500));
        assert_eq!(out.stats.rows_scanned, 2500);
        // 2 full batches + 1 partial.
        assert_eq!(out.stats.scan_batches, 3);
        // An index range scans exactly the rows in range, same batching.
        d.query("set enable_seqscan = off").unwrap();
        let out = d
            .query("select count(*) as n from t where k >= 100 and k < 2100")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2000));
        assert_eq!(out.stats.rows_scanned, 2000);
        assert_eq!(out.stats.scan_batches, 2);
    }

    /// The fused kernel charges statistics per batch; its totals must equal
    /// the general tree's on the same query, text and bound. The totals of
    /// the fused shape, the general aggregate shape and a join are pinned
    /// to what the engine has charged for them since the row-at-a-time
    /// interpreter (the simulator prices from these); a change that
    /// legitimately lowers one re-records it here with EXPERIMENTS.md
    /// (DESIGN.md §10).
    #[test]
    fn kernel_batch_charges_equal_interpreted_totals() {
        use apuama_sql::Value;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, v float, primary key (k)) clustered by (k)")
            .unwrap();
        d.execute("create table u (k int not null, w float, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::Float((i % 5) as f64)])
            .collect();
        d.load_table("t", rows).unwrap();
        let urows: Vec<Vec<Value>> = (0..500i64)
            .map(|i| vec![Value::Int(i * 3), Value::Float(i as f64)])
            .collect();
        d.load_table("u", urows).unwrap();
        // (statement, parameters, [rows_scanned, cpu_tuple_ops, index_probes,
        // scan_batches, rows_out, bytes_out, page accesses])
        let cases: &[(&str, Vec<Value>, [u64; 7])] = &[
            (
                "select sum(v) as s, count(*) as n from t where k >= $1 and k < $2 and v > $3",
                vec![Value::Int(50), Value::Int(2950), Value::Float(0.5)],
                [3000, 11170, 0, 3, 1, 20, 9],
            ),
            (
                "select v, count(*) as n from t where k < $1 group by v order by v",
                vec![Value::Int(2000)],
                [2000, 2011, 1, 2, 5, 100, 6],
            ),
            (
                "select t.v, u.w from t, u where t.k = u.k and u.w < $1 order by t.v, u.w",
                vec![Value::Float(200.0)],
                // 5 628 until `u`'s keys began to filter `t` before the
                // stream (DESIGN.md §10): 3 000 tuples tested, then the
                // 200 kept probed, where all 3 000 were probed before.
                [3500, 5828, 0, 4, 200, 4000, 11],
            ),
        ];
        for kernel in ["on", "off"] {
            d.query(&format!("set enable_kernel = {kernel}")).unwrap();
            for (sql, params, want) in cases {
                let mut text = sql.to_string();
                for (i, v) in params.iter().enumerate() {
                    text = text.replace(&format!("${}", i + 1), &v.to_string());
                }
                for out in [d.query_bound(sql, params).unwrap(), d.query(&text).unwrap()] {
                    let s = &out.stats;
                    let got = [
                        s.rows_scanned,
                        s.cpu_tuple_ops,
                        s.index_probes,
                        s.scan_batches,
                        s.rows_out,
                        s.bytes_out,
                        s.buffer.accesses(),
                    ];
                    assert_eq!(&got, want, "kernel {kernel}: {sql}");
                }
            }
        }
    }

    /// Zone-map pruning accounting, pinned exactly: pruned pages are
    /// counted in `pages_pruned`, generate no buffer-pool access, and
    /// contribute nothing to `rows_scanned` / `scan_batches` — identically
    /// on the fused shape and the general tree.
    #[test]
    fn zone_map_pruning_accounting_is_exact() {
        use apuama_sql::Value;
        use apuama_storage::PageGeometry;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, g int, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect();
        d.load_table("t", rows).unwrap();
        // Same geometry derivation as Table::new: 8-byte header + two
        // 8-byte int columns.
        let rpp = PageGeometry::for_tuple_bytes(8 + 8 + 8).rows_per_page;
        let pages = 3000u64.div_ceil(rpp);
        assert!(pages >= 4, "need a multi-page heap for pruning to show");
        // Force the heap path: with index scans disabled the k-range stays
        // a residual FastCmp conjunct the zone maps can refute per page.
        d.query("set enable_indexscan = off").unwrap();
        let cut = 2 * rpp as i64 + 100; // mid third page
        let sql = format!("select count(*) as n from t where k >= {cut}");
        let out = d.query(&sql).unwrap();
        assert_eq!(out.rows[0][0], Value::Int(3000 - cut));
        // The first two pages hold only keys below the cut.
        assert_eq!(out.stats.pages_pruned, 2);
        assert_eq!(out.stats.buffer.accesses(), pages - 2);
        assert_eq!(out.stats.rows_scanned, 3000 - 2 * rpp);
        assert_eq!(
            out.stats.scan_batches,
            (3000 - 2 * rpp).div_ceil(crate::exec::SCAN_BATCH_ROWS)
        );
        // The general tree prunes the same pages and charges the same
        // counters as the fused shape.
        d.query("set enable_kernel = off").unwrap();
        let other = d.query(&sql).unwrap();
        assert_eq!(other.rows, out.rows);
        assert_eq!(other.stats.pages_pruned, out.stats.pages_pruned);
        assert_eq!(other.stats.rows_scanned, out.stats.rows_scanned);
        assert_eq!(other.stats.cpu_tuple_ops, out.stats.cpu_tuple_ops);
        assert_eq!(other.stats.scan_batches, out.stats.scan_batches);
        assert_eq!(other.stats.buffer.accesses(), out.stats.buffer.accesses());
        d.query("set enable_kernel = on").unwrap();
        // An unmapped column never prunes, even when every page could be
        // refuted by its values.
        let out = d.query("select count(*) as n from t where g > 6").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(0));
        assert_eq!(out.stats.pages_pruned, 0);
        assert_eq!(out.stats.rows_scanned, 3000);
        // Indexing g adds it to the zone maps; every page's g-range is
        // 0..=6, so `g > 6` now refutes the entire heap: nothing scanned,
        // nothing charged.
        d.execute("create index ig on t (g)").unwrap();
        let out = d.query("select count(*) as n from t where g > 6").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(0));
        assert_eq!(out.stats.pages_pruned, pages);
        assert_eq!(out.stats.rows_scanned, 0);
        assert_eq!(out.stats.buffer.accesses(), 0);
        assert_eq!(out.stats.scan_batches, 0);
        // ... while an in-range predicate on the same column prunes nothing.
        let out = d.query("select count(*) as n from t where g = 3").unwrap();
        assert_eq!(out.stats.pages_pruned, 0);
        assert_eq!(out.stats.rows_scanned, 3000);
    }

    /// Zone maps prune on what the vectorized prefix folds: a constant
    /// operand prunes the same pages however it is spelled, `BETWEEN`
    /// prunes as its two bounds, fused or not — and an
    /// operand that fails to evaluate prunes nothing and raises on the
    /// first row that reaches it.
    #[test]
    fn zone_maps_prune_on_folded_constants() {
        use apuama_sql::Value;
        let mut d = crate::Database::in_memory();
        d.execute("create table t (k int not null, g int, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect();
        d.load_table("t", rows).unwrap();
        d.query("set enable_indexscan = off").unwrap();
        let pages = d.table("t").unwrap().heap.pages();
        let spellings = [
            ("k < 15", "k < 10 + 5"),
            ("k >= 2900", "2000 + 900 <= k"),
            ("k >= 2100 and k <= 2150", "k between 2100 and 2100 + 50"),
            // Behind a conjunct that has no vector form.
            ("g + 0 = 3 and k < 15", "g + 0 = 3 and k < 3 * 5"),
        ];
        for kernel in ["on", "off"] {
            d.query(&format!("set enable_kernel = {kernel}")).unwrap();
            for (literal, folded) in spellings {
                let run = |pred: &str| {
                    let sql = format!("select count(*) as n, sum(k) as s from t where {pred}");
                    d.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
                };
                let (want, got) = (run(literal), run(folded));
                let what = format!("{folded}, kernel {kernel}");
                assert_eq!(got.rows, want.rows, "{what}");
                assert!(want.stats.pages_pruned > pages / 2, "{literal}");
                assert_eq!(got.stats.pages_pruned, want.stats.pages_pruned, "{what}");
                assert_eq!(
                    got.stats.buffer.accesses(),
                    want.stats.buffer.accesses(),
                    "{what}"
                );
                assert_eq!(got.stats.rows_scanned, want.stats.rows_scanned, "{what}");
            }
            // `1 + 'x'` does not evaluate: no bound to prune with, and
            // the first row evaluates it. A row only gets there when
            // the conjunct ahead of it lets a page through.
            let broken = "select count(*) as n from t where k < 1 + 'x'";
            assert!(matches!(
                d.query(broken),
                Err(crate::EngineError::TypeError(_))
            ));
            let shielded = d
                .query("select count(*) as n from t where k >= 4000 and k < 1 + 'x'")
                .unwrap();
            assert_eq!(shielded.rows[0][0], Value::Int(0));
            assert_eq!(shielded.stats.pages_pruned, pages);
        }
    }
}
