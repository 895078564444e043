//! NaN among integer keys. `Value::sort_cmp` is the total order every sort
//! of the engine uses — `ORDER BY`, a clustered table's bulk load, and the
//! vacuum that re-clusters it — and NaN ranks above every number, `Int`
//! included. A comparator that called NaN equal to 1 and to 3 while 1 < 3
//! is not a total order, and the standard library's sort may panic on one
//! (Rust ≥ 1.81): a table holding both kinds of key must sort, not abort.

use apuama_engine::Database;
use apuama_sql::Value;
use apuama_storage::Row;

const KEYS: i64 = 2000;
/// Positions of the NaN keys among the loaded rows.
const NAN_AT: [i64; 5] = [3, 401, 977, 1500, 1999];

/// `0..KEYS` shuffled by a seeded Fisher–Yates: an order on which each of
/// the three sorts below panics when NaN compares equal to every integer.
fn shuffled_keys() -> Vec<i64> {
    let mut keys: Vec<i64> = (0..KEYS).collect();
    let mut s: u64 = 1;
    for i in (1..keys.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        keys.swap(i, (s >> 33) as usize % (i + 1));
    }
    keys
}

/// `KEYS` distinct integer keys in a shuffled order, with a NaN key spliced
/// in at each of `NAN_AT`; `v` is the row's position.
fn rows() -> Vec<Row> {
    let mut keys = shuffled_keys().into_iter().map(Value::Int);
    (0..KEYS + NAN_AT.len() as i64)
        .map(|v| {
            let k = if NAN_AT.contains(&v) {
                Value::Float(f64::NAN)
            } else {
                keys.next().expect("a key per non-NaN row")
            };
            vec![k, Value::Int(v)]
        })
        .collect()
}

fn is_nan(v: &Value) -> bool {
    matches!(v, Value::Float(f) if f.is_nan())
}

/// The first column of every row of `sql`'s answer.
fn keys_of(db: &Database, sql: &str) -> Vec<Value> {
    let out = db.query(sql).unwrap();
    out.rows.into_iter().map(|mut r| r.swap_remove(0)).collect()
}

/// Asserts `keys` is `ints` in order followed by `nans` NaNs.
fn assert_ints_then_nans(keys: &[Value], ints: &[i64], nans: usize) {
    assert_eq!(keys.len(), ints.len() + nans);
    let (head, tail) = keys.split_at(ints.len());
    let want: Vec<Value> = ints.iter().map(|&k| Value::Int(k)).collect();
    assert_eq!(head, &want[..]);
    assert!(tail.iter().all(is_nan), "{tail:?}");
}

#[test]
fn order_by_ranks_nan_above_every_integer_key() {
    let mut db = Database::in_memory();
    db.execute("create table t (k float, v int)").unwrap();
    db.load_table("t", rows()).unwrap();
    // One more NaN, made by the SQL arithmetic itself: inf - inf.
    db.execute("insert into t values (1e308 * 10 - 1e308 * 10, -1)")
        .unwrap();
    let nans = NAN_AT.len() + 1;
    let ints: Vec<i64> = (0..KEYS).collect();

    let asc = keys_of(&db, "select k from t order by k");
    assert_ints_then_nans(&asc, &ints, nans);

    let desc = keys_of(&db, "select k from t order by k desc");
    assert!(desc[..nans].iter().all(is_nan), "{:?}", &desc[..nans]);
    let want: Vec<Value> = ints.iter().rev().map(|&k| Value::Int(k)).collect();
    assert_eq!(&desc[nans..], &want[..]);

    // The NaNs tie, so a second key orders them among themselves.
    let by_position = keys_of(&db, "select v from t order by k, v");
    let want: Vec<Value> = [-1].iter().chain(&NAN_AT).map(|&v| Value::Int(v)).collect();
    assert_eq!(&by_position[KEYS as usize..], &want[..]);
}

#[test]
fn a_clustered_load_puts_nan_keys_after_every_integer() {
    let mut db = Database::in_memory();
    db.execute("create table c (k float, v int) clustered by (k)")
        .unwrap();
    db.load_table("c", rows()).unwrap();
    let ints: Vec<i64> = (0..KEYS).collect();
    assert_ints_then_nans(&keys_of(&db, "select k from c"), &ints, NAN_AT.len());
    let table = db.table("c").unwrap();
    assert_eq!(
        table.ordered_prefix(),
        table.row_count(),
        "all in key order"
    );
}

#[test]
fn a_vacuum_reclusters_nan_keys_after_every_integer() {
    let mut db = Database::in_memory();
    // Appended out of order, then a delete of over a third of the rows: the
    // auto-vacuum compacts the heap and re-clusters what is left.
    db.execute("create table d (k float, v int) clustered by (k)")
        .unwrap();
    db.append_rows("d", rows()).unwrap();
    db.execute("delete from d where v < 700").unwrap();
    assert_eq!(db.table("d").unwrap().tombstone_ratio(), 0.0, "vacuumed");
    let mut kept: Vec<i64> = (rows().into_iter())
        .filter(|r| r[1].as_i64() >= Some(700))
        .filter_map(|r| r[0].as_i64())
        .collect();
    kept.sort_unstable();
    let nans = NAN_AT.iter().filter(|&&v| v >= 700).count();
    assert_ints_then_nans(&keys_of(&db, "select k from d"), &kept, nans);
    let table = db.table("d").unwrap();
    assert_eq!(table.ordered_prefix(), table.row_count(), "re-clustered");
}
