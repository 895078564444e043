//! Ordered (B-tree) indexes.
//!
//! One index covers one column: key → row-id postings, in a
//! `std::collections::BTreeMap` (a B-tree) over [`IndexKey`], which gives
//! [`apuama_sql::Value`] the total order SQL sorting defines (NULLs first).
//! What it is used for depends on the column:
//!
//! * **secondary index** — point probes ([`OrderedIndex::get`]) and key
//!   ranges ([`OrderedIndex::range`]: postings in key order, equal keys in
//!   posting-list order, which `remove`'s `swap_remove` perturbs), every
//!   posting a random heap-page access;
//! * **index on the clustering column** — point probes (the `EXISTS`
//!   probe, key lookups) and the planner's statistics
//!   ([`OrderedIndex::min_max`], [`OrderedIndex::range_selectivity`]) only.
//!   A key *range* on a clustering column never walks the postings: the
//!   table keeps its heap in key order up to an *ordered prefix* and
//!   resolves the range to a slot interval of it by binary search on the
//!   stored key column, plus the rows appended out of order behind it (the
//!   *tail*), in slot order (`apuama_engine::Table::clustered_slots`,
//!   `physical::operators::scan` there).
//!
//! A range with a bound holds no NULL key — `k < 5` is not true of a NULL
//! `k` — and a NULL bound (`k > NULL`) is true of nothing; only the range
//! without bounds, which stands for no predicate at all, is every posting.

use std::collections::BTreeMap;
use std::ops::Bound;

use apuama_sql::Value;

use crate::heap::RowId;

/// A totally ordered wrapper around [`Value`] usable as a BTreeMap key.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.sort_cmp(&other.0)
    }
}

/// An ordered index from key values to row-id posting lists.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    map: BTreeMap<IndexKey, Vec<RowId>>,
    entries: u64,
}

impl OrderedIndex {
    pub fn new() -> Self {
        OrderedIndex::default()
    }

    /// Inserts a `(key, row)` posting.
    pub fn insert(&mut self, key: Value, row: RowId) {
        self.map.entry(IndexKey(key)).or_default().push(row);
        self.entries += 1;
    }

    /// Removes a `(key, row)` posting; returns true if it existed.
    pub fn remove(&mut self, key: &Value, row: RowId) -> bool {
        let k = IndexKey(key.clone());
        if let Some(list) = self.map.get_mut(&k) {
            if let Some(pos) = list.iter().position(|&r| r == row) {
                list.swap_remove(pos);
                self.entries -= 1;
                if list.is_empty() {
                    self.map.remove(&k);
                }
                return true;
            }
        }
        false
    }

    /// Exact-match postings, in place: for a non-NULL `key`, the postings
    /// [`Self::range`] yields for `[key, key]`, in the same order; for NULL,
    /// the NULL keys' postings, which no range with a bound holds.
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.map
            .get(&IndexKey(key.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates postings with keys in `[low, high)` / `[low, high]` etc.,
    /// expressed as bounds on [`Value`]s, in key order. NULL keys are in no
    /// range that has a bound, and a NULL bound makes the range empty.
    pub fn range<'a>(
        &'a self,
        low: Bound<&'a Value>,
        high: Bound<&'a Value>,
    ) -> impl Iterator<Item = (&'a Value, RowId)> + 'a {
        // An inverted or empty range (which conflicting predicates
        // legitimately produce — e.g. a point lookup intersected with a
        // disjoint virtual-partition range) must yield nothing rather than
        // panic inside BTreeMap::range; so must a NULL bound.
        let empty = match (&low, &high) {
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                let cmp = l.sort_cmp(h);
                cmp == std::cmp::Ordering::Greater
                    || (cmp == std::cmp::Ordering::Equal
                        && !(matches!(low, Bound::Included(_))
                            && matches!(high, Bound::Included(_))))
            }
            _ => false,
        } || [&low, &high]
            .iter()
            .any(|b| matches!(b, Bound::Included(v) | Bound::Excluded(v) if v.is_null()));
        let (lo, hi) = if empty {
            // A canonical always-empty interval (x < k ≤ x matches no key;
            // BTreeMap accepts it, unlike doubly-excluded equal bounds).
            (
                Bound::Excluded(IndexKey(Value::Null)),
                Bound::Included(IndexKey(Value::Null)),
            )
        } else {
            // NULL keys sort first: under a high bound alone, the range
            // starts after them.
            let lo = match (low, &high) {
                (Bound::Unbounded, Bound::Included(_) | Bound::Excluded(_)) => {
                    Bound::Excluded(IndexKey(Value::Null))
                }
                (low, _) => map_bound(low),
            };
            (lo, map_bound(high))
        };
        self.map
            .range::<IndexKey, _>((lo, hi))
            .flat_map(|(k, rows)| rows.iter().map(move |&r| (&k.0, r)))
    }

    /// Smallest and largest non-NULL keys currently present (planner
    /// statistics). NULL sorts first but no bounded range holds it, so it
    /// is no end of the interval a range is priced against.
    pub fn min_max(&self) -> Option<(&Value, &Value)> {
        let mut keys = (self.map)
            .range::<IndexKey, _>((Bound::Excluded(IndexKey(Value::Null)), Bound::Unbounded))
            .map(|(k, _)| &k.0);
        let min = keys.next()?;
        Some((min, keys.next_back().unwrap_or(min)))
    }

    /// Number of postings.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if no postings exist.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys (planner selectivity input).
    pub fn distinct_keys(&self) -> u64 {
        self.map.len() as u64
    }

    /// Estimates the fraction of postings whose keys fall in the range by
    /// linear interpolation between the min and max key — the classic
    /// equi-width histogram assumption planners make for uniformly
    /// distributed keys (TPC-H order keys are uniform, so this is accurate).
    pub fn range_selectivity(&self, low: Bound<&Value>, high: Bound<&Value>) -> f64 {
        let Some((min, max)) = self.min_max() else {
            return 0.0;
        };
        let (Some(min_f), Some(max_f)) = (key_as_f64(min), key_as_f64(max)) else {
            return 0.5; // non-numeric keys: no histogram, assume half
        };
        if max_f <= min_f {
            return 1.0;
        }
        let lo_f = match low {
            Bound::Unbounded => min_f,
            Bound::Included(v) | Bound::Excluded(v) => key_as_f64(v).unwrap_or(min_f),
        };
        let hi_f = match high {
            Bound::Unbounded => max_f,
            Bound::Included(v) | Bound::Excluded(v) => key_as_f64(v).unwrap_or(max_f),
        };
        ((hi_f.min(max_f) - lo_f.max(min_f)) / (max_f - min_f)).clamp(0.0, 1.0)
    }

    /// Clears the index (bulk reload).
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries = 0;
    }
}

fn map_bound(b: Bound<&Value>) -> Bound<IndexKey> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(IndexKey(v.clone())),
        Bound::Excluded(v) => Bound::Excluded(IndexKey(v.clone())),
    }
}

fn key_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Date(d) => Some(d.0 as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn a_probe_holds_what_the_one_key_range_holds() {
        let mut idx = OrderedIndex::new();
        for row in 0..60u64 {
            let key = match row % 4 {
                0 => Value::Null,
                1 => iv((row % 3) as i64),
                2 => Value::Float((row % 3) as f64),
                _ => iv(7),
            };
            idx.insert(key, row);
        }
        // Reorder the posting lists.
        assert!(idx.remove(&iv(7), 3));
        assert!(idx.remove(&Value::Float(1.0), 1));
        for key in [iv(0), iv(1), Value::Float(2.0), iv(7), iv(8)] {
            let ranged: Vec<RowId> = (idx.range(Bound::Included(&key), Bound::Included(&key)))
                .map(|(_, rid)| rid)
                .collect();
            assert_eq!(idx.get(&key), &ranged[..], "{key:?}");
        }
        let null = Value::Null;
        assert_eq!(
            idx.range(Bound::Included(&null), Bound::Included(&null))
                .count(),
            0
        );
        assert_eq!(idx.get(&null).len(), 15);
    }

    #[test]
    fn insert_get_remove() {
        let mut idx = OrderedIndex::new();
        idx.insert(iv(5), 100);
        idx.insert(iv(5), 101);
        assert_eq!(idx.get(&iv(5)), &[100, 101]);
        assert!(idx.remove(&iv(5), 100));
        assert_eq!(idx.get(&iv(5)), &[101]);
        assert!(!idx.remove(&iv(5), 100));
        assert!(idx.remove(&iv(5), 101));
        assert!(idx.get(&iv(5)).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn range_scan_in_key_order() {
        let mut idx = OrderedIndex::new();
        for i in [5i64, 1, 9, 3, 7] {
            idx.insert(iv(i), i as RowId);
        }
        let keys: Vec<i64> = idx
            .range(Bound::Included(&iv(3)), Bound::Excluded(&iv(9)))
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![3, 5, 7]);
    }

    #[test]
    fn unbounded_range_is_everything() {
        let mut idx = OrderedIndex::new();
        for i in 0..10 {
            idx.insert(iv(i), i as RowId);
        }
        assert_eq!(idx.range(Bound::Unbounded, Bound::Unbounded).count(), 10);
    }

    #[test]
    fn a_bounded_range_holds_no_null_key() {
        let mut idx = OrderedIndex::new();
        idx.insert(Value::Null, 0);
        idx.insert(iv(1), 1);
        idx.insert(Value::Null, 2);
        idx.insert(iv(3), 3);
        let (zero, three, null) = (iv(0), iv(3), Value::Null);
        let rows = |low, high| -> Vec<RowId> { idx.range(low, high).map(|(_, r)| r).collect() };
        assert_eq!(rows(Bound::Unbounded, Bound::Unbounded), [0, 2, 1, 3]);
        assert_eq!(rows(Bound::Unbounded, Bound::Excluded(&three)), [1]);
        assert_eq!(rows(Bound::Unbounded, Bound::Included(&three)), [1, 3]);
        assert_eq!(rows(Bound::Included(&zero), Bound::Unbounded), [1, 3]);
        // A NULL bound is true of no key.
        assert_eq!(rows(Bound::Excluded(&null), Bound::Unbounded), []);
        assert_eq!(rows(Bound::Included(&null), Bound::Included(&null)), []);
        assert_eq!(rows(Bound::Unbounded, Bound::Included(&null)), []);
    }

    #[test]
    fn min_max_and_distinct() {
        let mut idx = OrderedIndex::new();
        idx.insert(iv(2), 0);
        idx.insert(iv(8), 1);
        idx.insert(iv(8), 2);
        let (min, max) = idx.min_max().unwrap();
        assert_eq!(min, &iv(2));
        assert_eq!(max, &iv(8));
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn selectivity_interpolation() {
        let mut idx = OrderedIndex::new();
        for i in 0..=100 {
            idx.insert(iv(i), i as RowId);
        }
        let sel = idx.range_selectivity(Bound::Included(&iv(0)), Bound::Included(&iv(50)));
        assert!((sel - 0.5).abs() < 0.01, "sel={sel}");
        let all = idx.range_selectivity(Bound::Unbounded, Bound::Unbounded);
        assert!((all - 1.0).abs() < f64::EPSILON);
    }

    /// NULL keys sort first, but a range is priced between the smallest
    /// and largest non-NULL keys.
    #[test]
    fn selectivity_interpolates_between_the_non_null_keys() {
        let mut idx = OrderedIndex::new();
        for i in 0..=100 {
            idx.insert(iv(i), i as RowId);
        }
        for r in 101..130 {
            idx.insert(Value::Null, r);
        }
        let (min, max) = idx.min_max().unwrap();
        assert_eq!((min, max), (&iv(0), &iv(100)));
        let sel = idx.range_selectivity(Bound::Included(&iv(0)), Bound::Included(&iv(50)));
        assert!((sel - 0.5).abs() < 0.01, "sel={sel}");
        let point = idx.range_selectivity(Bound::Included(&iv(7)), Bound::Included(&iv(7)));
        assert_eq!(point, 0.0);
        // One non-NULL key is both ends; only NULLs is no interval at all.
        let mut one = OrderedIndex::new();
        one.insert(Value::Null, 0);
        assert_eq!(one.min_max(), None);
        one.insert(iv(4), 1);
        assert_eq!(one.min_max(), Some((&iv(4), &iv(4))));
    }

    #[test]
    fn selectivity_clamps_out_of_range() {
        let mut idx = OrderedIndex::new();
        for i in 10..20 {
            idx.insert(iv(i), i as RowId);
        }
        let sel = idx.range_selectivity(Bound::Included(&iv(100)), Bound::Included(&iv(200)));
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let mut idx = OrderedIndex::new();
        for i in 0..10 {
            idx.insert(iv(i), i as RowId);
        }
        // lo > hi
        assert_eq!(
            idx.range(Bound::Included(&iv(8)), Bound::Excluded(&iv(3)))
                .count(),
            0
        );
        // lo == hi but half-open
        assert_eq!(
            idx.range(Bound::Included(&iv(5)), Bound::Excluded(&iv(5)))
                .count(),
            0
        );
        // lo == hi, both inclusive: the point itself
        assert_eq!(
            idx.range(Bound::Included(&iv(5)), Bound::Included(&iv(5)))
                .count(),
            1
        );
    }

    #[test]
    fn date_keys_order_correctly() {
        use apuama_sql::Date;
        let mut idx = OrderedIndex::new();
        let d1 = Value::Date(Date::parse("1994-01-01").unwrap());
        let d2 = Value::Date(Date::parse("1995-01-01").unwrap());
        idx.insert(d2.clone(), 1);
        idx.insert(d1.clone(), 0);
        let rows: Vec<RowId> = idx
            .range(Bound::Included(&d1), Bound::Excluded(&d2))
            .map(|(_, r)| r)
            .collect();
        assert_eq!(rows, vec![0]);
    }
}
