//! LRU plan cache for every SELECT on the read path.
//!
//! Entries are keyed by the normalized statement fingerprint: a statement
//! key plus the one session knob that shapes what lowering produces:
//! `enable_kernel` (the fused plan vs the general tree). Which key depends
//! on who chose the placeholders:
//!
//! * **A bound read or [`Database::prepare`]** keys on its exact (trimmed)
//!   text. Its `$N` placeholders are already part of the text, so
//!   statements the client parameterised alike share one entry whatever
//!   values they are later bound with.
//! * **A text read** keys on the hash of its *lifted shape*
//!   ([`apuama_sql::visit::LiftedKey`]): the parsed statement's tree with
//!   its top-level WHERE comparison literals standing as placeholders,
//!   hashed by one walk, nothing rendered. Point reads of different keys
//!   share one entry, and the lifted literals are bound as values; a miss
//!   lowers the parsed statement with those literals replaced. The hash
//!   only finds the entry: the entry stores the shape it was lowered from,
//!   and a hit is one whose shape equals the statement's node by node
//!   ([`apuama_sql::visit::LiftedShape::matches`]). A statement that
//!   hashes alike but differs is a miss, and its plan replaces the entry.
//!
//! Keying on `enable_kernel` means toggling the knob can never serve a plan
//! compiled under the other setting; the two variants simply coexist in
//! the cache. Nothing lowered depends on `enable_seqscan` or on a request's
//! avoid-sequential-scans hint — the access path is chosen per execution
//! from the bound values — so one entry serves both. A cached plan is the
//! lowered [`PhysicalPlan`] (which carries the parsed `Select`) and its
//! parameter count.
//!
//! [`Database::prepare`]: crate::Database::prepare
//!
//! Staleness is handled two ways so the planner's access-path choice stays
//! honest:
//!
//! * **DDL invalidation**: every entry records the catalog version it was
//!   compiled under; `CREATE TABLE` / `CREATE INDEX` bump the database's
//!   version counter and any entry from an older catalog is discarded on
//!   lookup.
//! * **Table-stats invalidation**: every entry records a stats token — the
//!   `(pages, rows)` of each referenced table at compile time, by table id
//!   (a table referenced before it existed is covered by the catalog
//!   version its `CREATE TABLE` bumps). If a
//!   table's cardinality has drifted since, the entry is recompiled; this
//!   matters because index-range extraction is resolved from bound values
//!   per execution, but the *kernel shape* and column resolution are not.

use std::collections::HashMap;
use std::sync::Arc;

use apuama_sql::visit::LiftedShape;
use apuama_storage::TableId;

use crate::physical::PhysicalPlan;

/// Maximum number of cached plans per database before LRU eviction.
const PLAN_CACHE_CAPACITY: usize = 64;

/// A compiled statement, shared between the cache and executing queries.
#[derive(Debug)]
pub(crate) struct CachedPlan {
    /// The lowered operator tree (access paths are still chosen per
    /// execution from the bound values).
    pub(crate) physical: PhysicalPlan,
    pub(crate) n_params: usize,
    /// Catalog version this plan was compiled under.
    pub(crate) catalog_version: u64,
    /// `(table id, pages, rows)` for every referenced table that existed
    /// at compile time.
    pub(crate) stats_token: Vec<(TableId, u64, u64)>,
    /// What the entry was compiled from: what a hit on its key's hash
    /// must match.
    pub(crate) source: PlanSource,
}

/// The statement a [`CachedPlan`] was compiled from, kept to confirm a hit.
#[derive(Debug)]
pub(crate) enum PlanSource {
    /// A [`Key::Text`] entry's trimmed text.
    Text(Box<str>),
    /// A [`Key::Lifted`] entry's lifted shape.
    Lifted(LiftedShape),
}

/// Counters surfaced through `Database::plan_cache_stats` for tests and
/// the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a still-valid plan.
    pub hits: u64,
    /// Lookups that found nothing and compiled fresh.
    pub misses: u64,
    /// Entries pushed out by the LRU capacity bound.
    pub evictions: u64,
    /// Entries discarded because DDL bumped the catalog version.
    pub invalidations: u64,
    /// Entries recompiled because a referenced table's stats drifted.
    pub replans: u64,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    /// Logical timestamp of the last hit, for LRU eviction.
    last_used: u64,
}

#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<Fingerprint, Entry>,
    tick: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// Looks up a plan by fingerprint, validating it against the current
    /// catalog version and table stats. `is_it` confirms the entry is the
    /// statement's (a lifted key's shape comparison); an entry it refuses
    /// is a miss, left for the insert that follows to replace.
    /// `stats_current` says whether a cached entry's stats token still
    /// matches its tables; a mismatch counts as a replan and the stale
    /// entry is dropped.
    pub(crate) fn lookup(
        &mut self,
        fingerprint: &Fingerprint,
        catalog_version: u64,
        is_it: impl Fn(&CachedPlan) -> bool,
        stats_current: impl Fn(&[(TableId, u64, u64)]) -> bool,
    ) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        let Some(entry) = (self.entries.get_mut(fingerprint)).filter(|e| is_it(&e.plan)) else {
            self.stats.misses += 1;
            return None;
        };
        if entry.plan.catalog_version != catalog_version {
            self.stats.invalidations += 1;
            self.stats.misses += 1;
            self.entries.remove(fingerprint);
            return None;
        }
        if !stats_current(&entry.plan.stats_token) {
            self.stats.replans += 1;
            self.stats.misses += 1;
            self.entries.remove(fingerprint);
            return None;
        }
        entry.last_used = self.tick;
        self.stats.hits += 1;
        Some(Arc::clone(&entry.plan))
    }

    /// Inserts a freshly compiled plan, evicting the least-recently-used
    /// entry if the cache is at capacity.
    pub(crate) fn insert(&mut self, fingerprint: Fingerprint, plan: Arc<CachedPlan>) {
        self.tick += 1;
        if self.entries.len() >= PLAN_CACHE_CAPACITY && !self.entries.contains_key(&fingerprint) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            fingerprint,
            Entry {
                plan,
                last_used: self.tick,
            },
        );
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// What a statement is keyed by: see the module documentation. Either
/// key is a hash, and a hit is confirmed against the entry's
/// [`PlanSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    /// A bound read's or a prepared statement's exact (trimmed) text,
    /// hashed ([`apuama_sql::visit::hash_text`]).
    Text(u64),
    /// A text read's lifted-shape hash ([`apuama_sql::visit::LiftedKey`]).
    Lifted(u64),
}

/// The cache key: a statement key (exact text or lifted shape) plus the
/// plan-shaping session knob. `enable_kernel` is part of the key because it
/// selects the lowered shape (fused vs general). `enable_seqscan` changes
/// how a lowered tree runs (which access path), not what is lowered, and
/// is deliberately *not* keyed.
pub(crate) type Fingerprint = (Key, bool);

/// The fingerprint of an exact statement text: trimmed, so surrounding
/// whitespace does not split entries.
pub(crate) fn fingerprint(sql: &str, kernel_on: bool) -> Fingerprint {
    (
        Key::Text(apuama_sql::visit::hash_text(sql.trim())),
        kernel_on,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(text: &str) -> Fingerprint {
        fingerprint(text, true)
    }

    fn plan(version: u64) -> Arc<CachedPlan> {
        let select = apuama_sql::parse_statement("select 1")
            .ok()
            .and_then(|s| match s {
                apuama_sql::ast::Statement::Select(q) => Some(q),
                _ => None,
            })
            .expect("trivial select parses");
        let db = crate::db::Database::in_memory();
        Arc::new(CachedPlan {
            physical: crate::physical::lower(select, &db, false),
            n_params: 0,
            catalog_version: version,
            stats_token: Vec::new(),
            source: PlanSource::Text("select 1".into()),
        })
    }

    #[test]
    fn hit_after_insert_and_miss_when_version_bumps() {
        let mut cache = PlanCache::default();
        cache.insert(key("q"), plan(1));
        assert!(cache.lookup(&key("q"), 1, |_| true, |_| true).is_some());
        assert!(cache.lookup(&key("q"), 2, |_| true, |_| true).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn stats_drift_forces_replan() {
        let mut cache = PlanCache::default();
        let mut p = plan(1);
        Arc::get_mut(&mut p).unwrap().stats_token = vec![(0, 1, 10)];
        cache.insert(key("q"), p);
        // The live stats of the entry's tables, as a token check sees them.
        let live = |pages, rows| move |t: &[(TableId, u64, u64)]| t == [(0, pages, rows)];
        // Same catalog, same stats: hit.
        assert!(cache.lookup(&key("q"), 1, |_| true, live(1, 10)).is_some());
        // Table grew: replan.
        assert!(cache.lookup(&key("q"), 1, |_| true, live(2, 500)).is_none());
        assert_eq!(cache.stats().replans, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = PlanCache::default();
        for i in 0..PLAN_CACHE_CAPACITY {
            cache.insert(key(&format!("q{i}")), plan(1));
        }
        // Touch q0 so q1 becomes the coldest entry.
        assert!(cache.lookup(&key("q0"), 1, |_| true, |_| true).is_some());
        cache.insert(key("overflow"), plan(1));
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key("q0"), 1, |_| true, |_| true).is_some());
        assert!(cache.lookup(&key("q1"), 1, |_| true, |_| true).is_none());
    }

    #[test]
    fn an_entry_the_confirmation_refuses_is_a_miss() {
        let mut cache = PlanCache::default();
        cache.insert(key("q"), plan(1));
        assert!(cache.lookup(&key("q"), 1, |_| false, |_| true).is_none());
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0));
        // Left in place for the insert that follows to replace.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprint_trims_whitespace_and_keys_on_the_kernel_knob() {
        assert_eq!(fingerprint("  select 1\n", true), key("select 1"));
        assert_ne!(fingerprint("select 1", true), fingerprint("select 2", true));
        assert_ne!(
            fingerprint("select 1", true),
            fingerprint("select 1", false)
        );
    }
}
