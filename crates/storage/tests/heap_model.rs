//! Model-based test of the column heap: a seeded sequence of `insert` /
//! `delete` / `update` / `compact` / `clone` over rows chosen to stress the
//! stored form — NULLs, empty and multi-byte strings, NaN, `Bool` and
//! `Interval` cells, an `Int` column that later receives a `Float` (the
//! column degrades to boxed values), a string cell updated to a longer
//! value — checked after every step against the simplest thing that can
//! hold the same tuples, a `Vec<Option<Row>>`. The row API is derived from
//! the columns, so everything it answers must equal the model: `get`,
//! `cell`, `iter`, `iter_range`, `live_rows`, `slots`, `pages`,
//! `tombstone_ratio`, `zone_range`, and the row-id mapping of `compact`.
//! Segment-boundary cases follow.

use std::cmp::Ordering;

use apuama_sql::value::{Date, Interval};
use apuama_sql::Value;
use apuama_storage::{Heap, PageGeometry, Row, RowId, ZoneRange};

const WIDTH: usize = 6;
const ZONE_COLS: [usize; 2] = [0, 2];

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

const STRINGS: [&str; 7] = [
    "",
    "a",
    "żółw",
    "日本語のテキスト",
    "plain ascii of some length",
    "🦀",
    "x",
];

/// `(k, n, s, f, d, x)`: `n` is an `Int` column until `floats_in_n` lets a
/// `Float` in; `x` holds the exotic types and is boxed from its first value.
fn random_row(rng: &mut Rng, k: i64, floats_in_n: bool) -> Row {
    let nullable = |rng: &mut Rng, v: Value| if rng.below(5) == 0 { Value::Null } else { v };
    let s = Value::Str(STRINGS[rng.below(7) as usize].to_string());
    let d = Value::Date(Date(rng.below(20_000) as i32));
    let n = if floats_in_n && rng.below(4) == 0 {
        Value::Float(rng.below(100) as f64 * 0.5)
    } else {
        Value::Int(rng.below(1000) as i64 - 500)
    };
    let f = match rng.below(12) {
        0 => f64::NAN,
        1 => -0.0,
        _ => rng.below(10_000) as f64 * 0.25 - 100.0,
    };
    let x = match rng.below(3) {
        0 => Value::Bool(rng.below(2) == 0),
        1 => Value::Interval(Interval::days(rng.below(90) as i32)),
        _ => Value::Int(rng.below(9) as i64),
    };
    vec![
        Value::Int(k),
        nullable(rng, n),
        nullable(rng, s),
        nullable(rng, Value::Float(f)),
        nullable(rng, d),
        nullable(rng, x),
    ]
}

/// Same variant, same value, same float bits (`NaN == NaN`, `0.0 != -0.0`).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn same_row(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_value(x, y))
}

fn assert_same_rows(got: &[(RowId, Row)], want: &[(RowId, &Row)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for ((gid, grow), (wid, wrow)) in got.iter().zip(want) {
        assert_eq!(gid, wid, "{what}: row id");
        assert!(
            same_row(grow, wrow),
            "{what}: rid {gid}: {grow:?} vs {wrow:?}"
        );
    }
}

/// The model's zone entry: min and max of the page's live non-NULL values.
fn model_zone(model: &[Option<Row>], rpp: u64, col: usize, page: u64) -> ZoneRange {
    let lo = ((page * rpp) as usize).min(model.len());
    let hi = (((page + 1) * rpp) as usize).min(model.len());
    let mut live = model[lo..hi]
        .iter()
        .flatten()
        .map(|r| &r[col])
        .filter(|v| !v.is_null());
    let Some(first) = live.next() else {
        return ZoneRange::Empty;
    };
    let (mut min, mut max) = (first, first);
    for v in live {
        if v.sort_cmp(min) == Ordering::Less {
            min = v;
        }
        if v.sort_cmp(max) == Ordering::Greater {
            max = v;
        }
    }
    ZoneRange::Range {
        min: min.clone(),
        max: max.clone(),
    }
}

fn live_of(model: &[Option<Row>], lo: usize, hi: usize) -> Vec<(RowId, &Row)> {
    let hi = hi.min(model.len());
    (lo.min(hi)..hi)
        .filter_map(|i| model[i].as_ref().map(|r| (i as RowId, r)))
        .collect()
}

/// Everything the heap answers, against the model.
fn check(heap: &Heap, model: &[Option<Row>], rng: &mut Rng, what: &str) {
    let rpp = heap.geometry().rows_per_page;
    let live = model.iter().flatten().count() as u64;
    assert_eq!(heap.slots(), model.len() as u64, "{what}: slots");
    assert_eq!(heap.live_rows(), live, "{what}: live_rows");
    assert_eq!(
        heap.pages(),
        (model.len() as u64).div_ceil(rpp),
        "{what}: pages"
    );
    let ratio = if model.is_empty() {
        0.0
    } else {
        1.0 - live as f64 / model.len() as f64
    };
    assert_eq!(heap.tombstone_ratio(), ratio, "{what}: tombstone_ratio");

    // get and cell, slot by slot, and one past the end.
    for (i, want) in model.iter().enumerate() {
        let got = heap.get(i as RowId);
        match (want, &got) {
            (None, None) => {}
            (Some(w), Some(g)) => assert!(same_row(g, w), "{what}: get({i}): {g:?} vs {w:?}"),
            _ => panic!("{what}: get({i}) is {got:?}, model has {want:?}"),
        }
        for col in 0..WIDTH {
            let cell = heap.cell(i as RowId, col);
            match (want, &cell) {
                (None, None) => {}
                (Some(w), Some(c)) => {
                    assert!(same_value(c, &w[col]), "{what}: cell({i}, {col})")
                }
                _ => panic!("{what}: cell({i}, {col}) is {cell:?}"),
            }
        }
    }
    assert!(
        heap.get(model.len() as RowId).is_none(),
        "{what}: get past the end"
    );
    assert!(heap.cell(model.len() as RowId, 0).is_none());

    // iter, and iter_range over windows that start and end anywhere.
    let all: Vec<(RowId, Row)> = heap.iter().collect();
    assert_same_rows(
        &all,
        &live_of(model, 0, model.len()),
        &format!("{what}: iter"),
    );
    for _ in 0..4 {
        let a = rng.below(model.len() as u64 + 3) as usize;
        let b = rng.below(model.len() as u64 + 3) as usize;
        let got: Vec<(RowId, Row)> = heap.iter_range(a as RowId, b as RowId).collect();
        let want = live_of(model, a, b);
        assert_same_rows(&got, &want, &format!("{what}: iter_range({a}, {b})"));
    }

    // Zone maps: every page, and one past the last.
    assert_eq!(heap.zone_columns(), ZONE_COLS.to_vec());
    for col in ZONE_COLS {
        for page in 0..=heap.pages() {
            let got = heap.zone_range(col, page).expect("a mapped column");
            let want = model_zone(model, rpp, col, page);
            assert_eq!(got, &want, "{what}: zone_range({col}, {page})");
        }
    }
    assert!(heap.zone_range(1, 0).is_none(), "{what}: unmapped column");
}

fn run(seed: u64, rows_per_page: u64, preload: usize, steps: usize) {
    let mut rng = Rng(seed | 1);
    let mut heap = Heap::new(PageGeometry { rows_per_page }, WIDTH);
    heap.set_zone_columns(&[2, 0, 2]); // duplicates collapse
    let mut model: Vec<Option<Row>> = Vec::new();
    let mut next_key = 0i64;
    let what = |step: usize, op: &str| format!("seed {seed} rpp {rows_per_page} step {step} {op}");

    // Grow past the first segment boundary before the mixed phase, so it
    // works on more than one segment from the start.
    for i in 0..preload {
        let row = random_row(&mut rng, next_key, false);
        next_key += 1;
        assert_eq!(heap.insert(&row), model.len() as RowId);
        model.push(Some(row));
        if i % 97 == 0 {
            check(&heap, &model, &mut rng, &what(i, "preload"));
        }
    }
    check(&heap, &model, &mut rng, &what(preload, "preloaded"));

    for step in 0..steps {
        // The `n` column stays `Int` for the first third of the run, so the
        // degrade happens to columns that already hold data.
        let floats_in_n = step > steps / 3;
        let pick = |rng: &mut Rng, model: &Vec<Option<Row>>| rng.below(model.len() as u64 + 2);
        let op = match rng.below(100) {
            0..=39 => {
                let row = random_row(&mut rng, next_key, floats_in_n);
                next_key += 1;
                assert_eq!(heap.insert(&row), model.len() as RowId);
                model.push(Some(row));
                "insert"
            }
            40..=64 => {
                let rid = pick(&mut rng, &model);
                let want = model.get_mut(rid as usize).and_then(Option::take);
                let got = heap.delete(rid);
                match (&want, &got) {
                    (None, None) => {}
                    (Some(w), Some(g)) => assert!(same_row(g, w), "delete({rid}) returned {g:?}"),
                    _ => panic!("delete({rid}) returned {got:?}, model had {want:?}"),
                }
                "delete"
            }
            65..=94 => {
                let rid = pick(&mut rng, &model);
                let mut row = random_row(&mut rng, next_key, floats_in_n);
                next_key += 1;
                // Every few updates: the old string, made longer.
                if let Some(Some(old)) = model.get(rid as usize) {
                    if let (Value::Str(s), true) = (&old[2], rng.below(3) == 0) {
                        row[2] = Value::Str(format!("{s}{s} — and then some more text"));
                    }
                }
                let got = heap.update(rid, &row);
                let want = match model.get_mut(rid as usize) {
                    Some(slot @ Some(_)) => slot.replace(row),
                    _ => None,
                };
                match (&want, &got) {
                    (None, None) => {}
                    (Some(w), Some(g)) => assert!(same_row(g, w), "update({rid}) returned {g:?}"),
                    _ => panic!("update({rid}) returned {got:?}, model had {want:?}"),
                }
                "update"
            }
            95..=97 => {
                // The clone answers like the source and lives its own life.
                let mut copy = heap.clone();
                check(&copy, &model, &mut rng, &what(step, "clone"));
                copy.insert(&random_row(&mut rng, -1, true));
                copy.delete(0);
                "clone"
            }
            _ => {
                let mapping = heap.compact(None);
                let want: Vec<(RowId, RowId)> = (model.iter().enumerate())
                    .filter(|(_, r)| r.is_some())
                    .enumerate()
                    .map(|(new, (old, _))| (old as RowId, new as RowId))
                    .collect();
                assert_eq!(mapping, want, "{}", what(step, "compact mapping"));
                model.retain(Option::is_some);
                "compact"
            }
        };
        check(&heap, &model, &mut rng, &what(step, op));
    }
}

#[test]
fn heap_matches_the_row_model_under_random_mutation() {
    // Three rows per page: 1026-slot segments, so 1100 preloaded rows span
    // two and the mixed phase grows a third and compacts back.
    run(0x5EED, 3, 1100, 260);
    // Wide pages: a segment is one 1500-slot page.
    run(0xC0FFEE, 1500, 1600, 120);
    // Small heaps, many seeds: every op on a nearly empty heap, compaction
    // to nothing, updates and deletes of row ids that do not exist.
    for seed in 1..=12 {
        run(seed, 4, 0, 160);
    }
}

fn int_row(k: i64) -> Row {
    let mut row = vec![Value::Null; WIDTH];
    row[0] = Value::Int(k);
    row
}

#[test]
fn segment_boundaries() {
    let mut rng = Rng(7);
    let mut heap = Heap::new(PageGeometry { rows_per_page: 8 }, WIDTH);
    heap.set_zone_columns(&ZONE_COLS);
    let slots = heap.segment_slots();
    assert_eq!(slots, 1024);
    let mut model: Vec<Option<Row>> = Vec::new();
    let push = |heap: &mut Heap, model: &mut Vec<Option<Row>>| {
        let row = int_row(model.len() as i64);
        heap.insert(&row);
        model.push(Some(row));
    };

    // Exactly one segment, then one slot more.
    for _ in 0..slots {
        push(&mut heap, &mut model);
    }
    assert_eq!(heap.segments().len(), 1);
    assert_eq!(heap.segments()[0].len() as u64, slots);
    check(&heap, &model, &mut rng, "one full segment");
    push(&mut heap, &mut model);
    assert_eq!(heap.segments().len(), 2);
    assert_eq!(heap.segments()[1].len(), 1);
    assert_eq!(heap.locate(slots).map(|(_, slot)| slot), Some(0));
    check(&heap, &model, &mut rng, "one slot more");

    // Three segments, the middle one all tombstones.
    for _ in 0..2 * slots {
        push(&mut heap, &mut model);
    }
    for rid in slots..2 * slots {
        assert!(heap.delete(rid).is_some());
        model[rid as usize] = None;
    }
    assert_eq!(heap.segments()[1].dead_count() as u64, slots);
    assert_eq!(heap.segments()[1].live_slots(0, slots as usize).count(), 0);
    check(&heap, &model, &mut rng, "an all-tombstone segment");

    // Ranges that start and end mid-segment: across the dead segment,
    // inside it, ending exactly on a boundary, and past the end.
    let windows = [
        (slots - 3, 2 * slots + 3),
        (slots + 5, 2 * slots - 5),
        (slots - 1, slots),
        (10, slots),
        (2 * slots, 2 * slots + 1),
        (3 * slots - 2, 3 * slots + 50),
        (7, 7),
        (9, 2),
    ];
    for (a, b) in windows {
        let got: Vec<(RowId, Row)> = heap.iter_range(a, b).collect();
        let want = live_of(&model, a as usize, b as usize);
        assert_same_rows(&got, &want, &format!("iter_range({a}, {b})"));
        let ids: Vec<RowId> = heap.live_range(a, b).map(|(rid, _, _)| rid).collect();
        assert_eq!(ids, want.iter().map(|(rid, _)| *rid).collect::<Vec<_>>());
    }

    // Compaction closes the gap: two segments and one slot again.
    let mapping = heap.compact(None);
    model.retain(Option::is_some);
    assert_eq!(mapping.len() as u64, 2 * slots + 1);
    assert_eq!(mapping[slots as usize], (2 * slots, slots));
    assert_eq!(heap.segments().len(), 3);
    assert_eq!(heap.segments()[2].len(), 1);
    check(&heap, &model, &mut rng, "compacted");
}

/// The row API counts what it builds; reading cells does not.
#[test]
fn rows_derived_counts_the_row_api_only() {
    let mut heap = Heap::new(PageGeometry { rows_per_page: 4 }, WIDTH);
    for k in 0..10 {
        heap.insert(&int_row(k));
    }
    assert_eq!(heap.rows_derived(), 0);
    heap.cell(3, 0);
    heap.locate(3);
    let cells: usize = heap.live_range(0, 10).count();
    assert_eq!((cells, heap.rows_derived()), (10, 0));
    heap.get(3);
    assert_eq!(heap.rows_derived(), 1);
    assert_eq!(heap.iter().count(), 10);
    assert_eq!(heap.rows_derived(), 11);
    heap.delete(3);
    assert_eq!(heap.rows_derived(), 12);
    assert_eq!(heap.clone().rows_derived(), 0);
}
