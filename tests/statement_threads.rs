//! A node runs each statement on the thread that sent it (DESIGN.md §12):
//! the cluster's SVP sub-queries are the only intra-query split, so no
//! statement starts a thread of its own. A binary of its own, so no other
//! test's threads come or go while this one counts.

use apuama_engine::Database;
use apuama_tpch::{generate, load_into, QueryParams, TpchConfig, ALL_QUERIES};

/// The threads of this process, from `/proc/self/task`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("listing this process's threads")
        .count()
}

#[test]
fn every_eval_query_runs_on_the_thread_that_sent_it() {
    let data = generate(TpchConfig {
        scale_factor: 0.002,
        seed: 13,
    });
    let mut db = Database::in_memory();
    load_into(&mut db, &data).unwrap();
    #[cfg(target_os = "linux")]
    let before = threads();
    let params = QueryParams::default();
    for q in ALL_QUERIES {
        let out = (db.query(&q.sql(&params))).unwrap_or_else(|e| panic!("{}: {e}", q.label()));
        assert!(!out.columns.is_empty(), "{}", q.label());
    }
    #[cfg(target_os = "linux")]
    assert_eq!(threads(), before, "a statement started a thread");
}
