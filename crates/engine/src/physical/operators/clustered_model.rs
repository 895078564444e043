//! Model test of a clustered table's ordered prefix and the ranges
//! resolved from it: a seeded sequence of bulk load, inserts (in key order,
//! out of it, duplicate keys, NULL keys, keys that degrade the stored
//! column to boxed values), updates of key and non-key columns inside and
//! past the prefix, deletes by row and by key range, and vacuum — the
//! auto-vacuum a delete can trigger included — against the simplest thing
//! that can hold the same tuples: a `Vec` of `(row, live)` in slot order
//! and a prefix length moved by the four rules in `Table`'s doc. After
//! every step:
//!
//! * the table's prefix length is the model's and its key column is in
//!   order up to it, tombstones included;
//! * for random bounds of every `Bound` combination, and for one key (an
//!   equality, read from the clustering index's posting list), the units
//!   [`ScanUnits`] resolves are exactly the live rows of `Heap::iter` whose
//!   key the range admits, in slot order, once each;
//! * the same through SQL — `select` under discouraged sequential scans,
//!   text and bound — and, as a step of the
//!   sequence, through `delete from … where k between` (`scan_rids`).

use std::cmp::Ordering;
use std::ops::Bound;

use apuama_sql::Value;
use apuama_storage::{Row, RowId};

use crate::db::Database;
use crate::exec::ExecContext;
use crate::planner::AccessPath;
use crate::request::ReadRequest;

use crate::physical::*;

/// xorshift64*: the test's only randomness, so a failure replays from its
/// seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const DDL: &str =
    "create table t (k int, v int not null, s text, primary key (v)) clustered by (k)";
/// Keys are drawn from `0..KEYS`, so most are shared by several rows.
const KEYS: u64 = 400;

/// The table as slots: each row with whether it is live, and how many
/// leading slots are in key order.
struct Model {
    slots: Vec<(Row, bool)>,
    prefix: usize,
}

impl Model {
    fn live(&self) -> impl Iterator<Item = (usize, &Row)> {
        (self.slots.iter().enumerate())
            .filter(|(_, (_, live))| *live)
            .map(|(i, (row, _))| (i, row))
    }

    fn slot_of(&self, v: i64) -> Option<usize> {
        self.live()
            .find(|(_, row)| row[1] == Value::Int(v))
            .map(|(i, _)| i)
    }

    fn insert(&mut self, row: Row) {
        let in_order = self.prefix == 0
            || self.slots[self.prefix - 1].0[0].sort_cmp(&row[0]) != Ordering::Greater;
        if self.slots.len() == self.prefix && in_order {
            self.prefix += 1;
        }
        self.slots.push((row, true));
    }

    fn update(&mut self, slot: usize, row: Row) {
        if slot < self.prefix && self.slots[slot].0[0].sort_cmp(&row[0]) != Ordering::Equal {
            self.prefix = slot;
        }
        self.slots[slot].0 = row;
    }

    /// Live rows back in stable key order; the whole of it is prefix.
    fn vacuum(&mut self) {
        self.slots.retain(|(_, live)| *live);
        self.slots.sort_by(|(a, _), (b, _)| a[0].sort_cmp(&b[0]));
        self.prefix = self.slots.len();
    }

    /// `exec_delete`'s auto-vacuum rule.
    fn vacuum_if_a_third_is_dead(&mut self) {
        let live = self.live().count() as f64;
        if 1.0 - live / self.slots.len() as f64 > 0.34 && self.slots.len() > 128 {
            self.vacuum();
        }
    }
}

/// Whether a range admits `key`, on values: a bounded range admits no
/// NULL, a NULL bound nothing, no bounds everything.
fn admits(low: &Bound<Value>, high: &Bound<Value>, key: &Value) -> bool {
    if matches!((low, high), (Bound::Unbounded, Bound::Unbounded)) {
        return true;
    }
    let null_bound =
        |b: &Bound<Value>| matches!(b, Bound::Included(v) | Bound::Excluded(v) if v.is_null());
    if key.is_null() || null_bound(low) || null_bound(high) {
        return false;
    }
    let low_ok = match low {
        Bound::Unbounded => true,
        Bound::Included(v) => key.sort_cmp(v) != Ordering::Less,
        Bound::Excluded(v) => key.sort_cmp(v) == Ordering::Greater,
    };
    let high_ok = match high {
        Bound::Unbounded => true,
        Bound::Included(v) => key.sort_cmp(v) != Ordering::Greater,
        Bound::Excluded(v) => key.sort_cmp(v) == Ordering::Less,
    };
    low_ok && high_ok
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{s}'"),
        other => panic!("no literal for {other:?}"),
    }
}

/// The range as a `WHERE` clause over `k`, text and bound form with the
/// bound values; empty for the range without bounds.
fn where_clause(low: &Bound<Value>, high: &Bound<Value>) -> (String, String, Vec<Value>) {
    let mut parts: Vec<(&str, &Value)> = Vec::new();
    match low {
        Bound::Unbounded => {}
        Bound::Included(v) => parts.push((">=", v)),
        Bound::Excluded(v) => parts.push((">", v)),
    }
    match high {
        Bound::Unbounded => {}
        Bound::Included(v) => parts.push(("<=", v)),
        Bound::Excluded(v) => parts.push(("<", v)),
    }
    if parts.is_empty() {
        return (String::new(), String::new(), Vec::new());
    }
    let text: Vec<String> = (parts.iter())
        .map(|(op, v)| format!("k {op} {}", literal(v)))
        .collect();
    let bound: Vec<String> = (parts.iter().enumerate())
        .map(|(i, (op, _))| format!("k {op} ${}", i + 1))
        .collect();
    (
        format!(" where {}", text.join(" and ")),
        format!(" where {}", bound.join(" and ")),
        parts.iter().map(|(_, v)| (*v).clone()).collect(),
    )
}

fn random_key(rng: &mut Rng) -> Value {
    match rng.below(30) {
        0 => Value::Null,
        _ => Value::Int(rng.below(KEYS) as i64),
    }
}

fn random_bound(rng: &mut Rng) -> Bound<Value> {
    let v = match rng.below(20) {
        0 => Value::Null,
        1 => Value::Float(rng.below(KEYS) as f64 + 0.5),
        2 => Value::Str("m".into()),
        3 => Value::Int(-3),
        4 => Value::Int(KEYS as i64 + 50),
        _ => Value::Int(rng.below(KEYS) as i64),
    };
    match rng.below(5) {
        0 => Bound::Unbounded,
        1 | 2 => Bound::Included(v),
        _ => Bound::Excluded(v),
    }
}

/// `assert_eq!` on two long lists, reporting where they part instead of
/// both in full.
fn assert_same<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T], what: &str) {
    let at = (got.iter().zip(want))
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    assert!(
        got == want,
        "{what}: {} against {} entries, first apart at {at}: {:?} against {:?}",
        got.len(),
        want.len(),
        got.get(at),
        want.get(at)
    );
}

fn check(db: &Database, model: &Model, rng: &mut Rng, what: &str) {
    let table = db.table("t").expect("the table exists");
    let heap = &table.heap;

    // The heap is the model, and the prefix is the model's and in order.
    let rows: Vec<(RowId, Row)> = heap.iter().collect();
    let want: Vec<(RowId, Row)> = (model.live())
        .map(|(i, row)| (i as RowId, row.clone()))
        .collect();
    assert_same(&rows, &want, &format!("{what}: heap"));
    assert_eq!(
        table.ordered_prefix(),
        model.prefix as u64,
        "{what}: prefix"
    );
    let key_at = |id: RowId| {
        let (col, slot) = heap.stored_cell(id, 0);
        col.value_at(slot)
    };
    for id in 1..table.ordered_prefix() {
        assert_ne!(
            key_at(id - 1).sort_cmp(&key_at(id)),
            Ordering::Greater,
            "{what}: slots {} and {id} are out of order",
            id - 1
        );
    }

    let ctx = ExecContext::new(db);
    let no_preds = ScanPreds::new(Vec::new(), 3, &ctx);
    for round in 0..8 {
        let (low, high) = match round {
            0 => (Bound::Unbounded, Bound::Unbounded),
            // One key, read from its posting list: as an integer (or NULL)
            // and as the float equal to it.
            1 | 2 => {
                let key = match (round, random_key(rng)) {
                    (2, Value::Int(k)) => Value::Float(k as f64),
                    (_, key) => key,
                };
                (Bound::Included(key.clone()), Bound::Included(key))
            }
            _ => (random_bound(rng), random_bound(rng)),
        };
        let what = format!("{what}, range ({low:?}, {high:?})");
        let want: Vec<RowId> = (rows.iter())
            .filter(|(_, row)| admits(&low, &high, &row[0]))
            .map(|(rid, _)| *rid)
            .collect();

        // The units of the range, as the cursor and DML's row-id scan read
        // them.
        let path = AccessPath::IndexRange {
            column: 0,
            low: low.clone(),
            high: high.clone(),
            clustered: true,
        };
        let mut units = ScanUnits::plan(table, &path, &no_preds);
        assert_eq!(units.index_probes, 1);
        let (mut sel, mut got) = (Sel::new(), Vec::new());
        while let Some(seg) = units.next_into(&mut sel) {
            assert!(!sel.is_empty(), "{what}: an empty unit");
            let base = seg as u64 * heap.segment_slots();
            got.extend(sel.iter().map(|&s| base + s as u64));
        }
        assert_same(&got, &want, &format!("{what}: units"));

        // The same through SQL, where the bounds can be written.
        let writable = |b: &Bound<Value>| {
            !matches!(
                b,
                Bound::Included(Value::Str(_)) | Bound::Excluded(Value::Str(_))
            )
        };
        if !(writable(&low) && writable(&high)) {
            continue;
        }
        let want: Vec<Row> = (rows.iter())
            .filter(|(_, row)| admits(&low, &high, &row[0]))
            .map(|(_, row)| vec![row[1].clone()])
            .collect();
        let (text, bound, params) = where_clause(&low, &high);
        let sql = format!("select v from t{text}");
        let out = db
            .read(&ReadRequest::text(&sql).avoiding_seqscan(true))
            .unwrap_or_else(|e| panic!("{what}: {sql}: {e}"));
        assert_eq!(out.stats.index_probes, 1, "{what}: {sql}");
        assert_same(&out.rows, &want, &format!("{what}: {sql}"));
        let sql = format!("select v from t{bound}");
        let out = db
            .read(&ReadRequest::bound(&sql, &params).avoiding_seqscan(true))
            .unwrap_or_else(|e| panic!("{what}: {sql}: {e}"));
        assert_same(&out.rows, &want, &format!("{what}: {sql} {params:?}"));
    }
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut db = Database::in_memory();
    db.execute(DDL).unwrap();
    let id = db.table("t").unwrap().schema.id;
    let mut next_v = 0i64;
    let mut new_row = |rng: &mut Rng, k: Value| {
        next_v += 1;
        let s = ["", "a", "żółw", "plain ascii"][rng.below(4) as usize];
        vec![k, Value::Int(next_v), Value::Str(s.to_string())]
    };

    // Bulk load sorts: everything is prefix, NULL keys first.
    let loaded: Vec<Row> = (0..2600)
        .map(|_| {
            let k = random_key(&mut rng);
            new_row(&mut rng, k)
        })
        .collect();
    db.load_table("t", loaded.clone()).unwrap();
    let mut model = Model {
        slots: loaded.into_iter().map(|row| (row, true)).collect(),
        prefix: 0,
    };
    model.vacuum();
    assert!(db.table("t").unwrap().heap.segments().len() >= 3);
    check(&db, &model, &mut rng, &format!("seed {seed:#x}, loaded"));

    for step in 0..steps {
        let some_v = |rng: &mut Rng, model: &Model| {
            let live: Vec<i64> = model.live().map(|(_, r)| r[1].as_i64().unwrap()).collect();
            live[rng.below(live.len() as u64) as usize]
        };
        let op = match rng.below(100) {
            0..=29 => {
                // Insert: continuing the order, anywhere, NULL, or a key of
                // another type (the stored column degrades to boxed values).
                let last = model.slots[model.prefix.saturating_sub(1)].0[0].clone();
                let k = match (rng.below(10), last) {
                    (0..=3, Value::Int(last)) => Value::Int(last + rng.below(3) as i64),
                    (4, _) => Value::Null,
                    (5, _) => Value::Float(rng.below(KEYS) as f64 + 0.5),
                    (6, _) if rng.below(4) == 0 => Value::Str("m".into()),
                    _ => random_key(&mut rng),
                };
                let row = new_row(&mut rng, k);
                db.append_rows("t", vec![row.clone()]).unwrap();
                model.insert(row);
                "insert"
            }
            30..=54 => {
                // Update the key: a slot inside the prefix or past it.
                let v = some_v(&mut rng, &model);
                let slot = model.slot_of(v).unwrap();
                let k = match rng.below(8) {
                    0 => Value::Float(rng.below(KEYS) as f64 + 0.5),
                    // The key it has: the prefix must not move.
                    1 => model.slots[slot].0[0].clone(),
                    _ => random_key(&mut rng),
                };
                let n = db
                    .execute(&format!("update t set k = {} where v = {v}", literal(&k)))
                    .unwrap();
                assert_eq!(n.rows_affected, 1);
                let mut row = model.slots[slot].0.clone();
                row[0] = k;
                model.update(slot, row);
                "update of the key"
            }
            55..=64 => {
                let v = some_v(&mut rng, &model);
                let slot = model.slot_of(v).unwrap();
                db.execute(&format!("update t set s = 'changed' where v = {v}"))
                    .unwrap();
                let mut row = model.slots[slot].0.clone();
                row[2] = Value::Str("changed".into());
                model.update(slot, row);
                "update beside the key"
            }
            65..=84 => {
                let v = some_v(&mut rng, &model);
                let slot = model.slot_of(v).unwrap();
                db.execute(&format!("delete from t where v = {v}")).unwrap();
                model.slots[slot].1 = false;
                model.vacuum_if_a_third_is_dead();
                "delete"
            }
            85..=94 => {
                // Delete a key range: the row ids come from the range.
                let lo = rng.below(KEYS) as i64;
                let hi = lo + rng.below(12) as i64;
                let n = db
                    .execute(&format!("delete from t where k between {lo} and {hi}"))
                    .unwrap();
                let (low, high) = (
                    Bound::Included(Value::Int(lo)),
                    Bound::Included(Value::Int(hi)),
                );
                let mut hit = 0;
                for (row, live) in model.slots.iter_mut() {
                    if *live && admits(&low, &high, &row[0]) {
                        *live = false;
                        hit += 1;
                    }
                }
                assert_eq!(n.rows_affected, hit, "step {step}: rows deleted by range");
                model.vacuum_if_a_third_is_dead();
                "delete of a key range"
            }
            95..=97 => {
                // A burst of arrivals and the departure of most of them —
                // a refresh stream's trace: a long tail, then whole bitmap
                // words of it dead.
                let first = model.slots.len();
                for _ in 0..200 {
                    let k = random_key(&mut rng);
                    let row = new_row(&mut rng, k);
                    db.append_rows("t", vec![row.clone()]).unwrap();
                    model.insert(row);
                }
                let (lo, hi) = (first + rng.below(30) as usize, first + 170);
                let v_of = |slot: usize| model.slots[slot].0[1].as_i64().unwrap();
                let n = db
                    .execute(&format!(
                        "delete from t where v between {} and {}",
                        v_of(lo),
                        v_of(hi)
                    ))
                    .unwrap();
                assert_eq!(n.rows_affected, (hi - lo + 1) as u64);
                for (_, live) in &mut model.slots[lo..=hi] {
                    *live = false;
                }
                model.vacuum_if_a_third_is_dead();
                "burst of inserts and deletes"
            }
            _ => {
                db.vacuum_table(id);
                model.vacuum();
                "vacuum"
            }
        };
        let what = format!("seed {seed:#x}, step {step} ({op})");
        check(&db, &model, &mut rng, &what);
    }
}

#[test]
fn clustered_ranges_match_the_slot_model_under_random_mutation() {
    run(0xC1A5_7E4ED, 160);
    run(7, 160);
}
