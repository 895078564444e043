//! Typed, appendable column vectors: the stored form of a heap segment.
//!
//! A [`Column`] is one attribute of one [`crate::heap::Segment`]: a typed
//! vector ([`ColumnVec`]) plus a [`Validity`] bitmap marking which slots
//! hold non-NULL values. The representation follows the values it is
//! given — a column whose non-NULL values are all `Int` is an `Int(Vec<i64>)`,
//! all-`Float` a `Float(Vec<f64>)`, strings share one byte arena with an
//! offsets vector — and the first value that does not fit (a `Float` into
//! an `Int` column, a boolean, an interval) degrades the whole column to a
//! flat `Vec<Value>`, replaying the typed slots accumulated so far. Leading
//! NULLs fix nothing: a column that is all NULL so far takes the
//! representation of its first non-NULL value.
//!
//! The engine's vectorized predicates, aggregate arguments and probes read
//! the typed vectors directly (`physical::columns` in the engine crate);
//! rows are materialized from them only for the tuples a statement keeps.

use apuama_sql::value::Date;
use apuama_sql::Value;

/// Validity bitmap: bit `i` set ⇔ slot `i` holds a non-NULL value.
#[derive(Debug, Clone, Default)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl Validity {
    pub fn new() -> Self {
        Validity::default()
    }

    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if valid {
            *self.words.last_mut().expect("just ensured") |= 1u64 << (self.len % 64);
        } else {
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// Overwrites slot `i`'s bit.
    pub fn set(&mut self, i: usize, valid: bool) {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        match (*word & bit != 0, valid) {
            (true, false) => {
                *word &= !bit;
                self.nulls += 1;
            }
            (false, true) => {
                *word |= bit;
                self.nulls -= 1;
            }
            _ => {}
        }
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn null_count(&self) -> usize {
        self.nulls
    }

    pub fn any_null(&self) -> bool {
        self.nulls > 0
    }
}

/// One column's values in typed, flat form. Slots whose validity bit is
/// clear hold an arbitrary placeholder (0, 0.0, the empty string) and must
/// never be read as data.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Days since the epoch — [`apuama_sql::value::Date`]'s wire form.
    Date(Vec<i32>),
    /// All string payloads back to back in one arena; string `i` is
    /// `arena[offsets[i] as usize..offsets[i + 1] as usize]`.
    Str {
        arena: String,
        offsets: Vec<u32>,
    },
    /// Mixed- or exotic-typed columns, and columns that are all NULL so
    /// far: one flat vector of boxed values.
    Val(Vec<Value>),
}

impl ColumnVec {
    /// The bytes of the string at slot `i` (callers guarantee the column is
    /// `Str`): what comparisons read, since `str` orders bytewise and a
    /// byte slice needs no char-boundary check.
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        match self {
            ColumnVec::Str { arena, offsets } => {
                &arena.as_bytes()[offsets[i] as usize..offsets[i + 1] as usize]
            }
            _ => unreachable!("bytes_at on a non-Str column"),
        }
    }

    /// The string at slot `i` (callers guarantee the column is `Str`).
    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        match self {
            ColumnVec::Str { arena, offsets } => {
                &arena[offsets[i] as usize..offsets[i + 1] as usize]
            }
            _ => unreachable!("str_at on a non-Str column"),
        }
    }
}

/// One stored column: typed vector + validity bitmap. The fields are
/// private because they move together: every slot has a validity bit, and
/// the representation only changes by the rules in the module header.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnVec,
    validity: Validity,
    /// Whether a `Float` slot has ever held a NaN — vectorized comparisons
    /// need to know up front, because NaN comparisons are per-row type
    /// errors in SQL semantics. Sticky: overwriting the NaN does not clear
    /// it, compaction (which rebuilds the column) does.
    has_nan: bool,
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

impl Column {
    /// An empty column; its first non-NULL value picks the representation.
    pub fn new() -> Column {
        Column {
            data: ColumnVec::Val(Vec::new()),
            validity: Validity::new(),
            has_nan: false,
        }
    }

    pub fn data(&self) -> &ColumnVec {
        &self.data
    }

    pub fn validity(&self) -> &Validity {
        &self.validity
    }

    pub fn has_nan(&self) -> bool {
        self.has_nan
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Appends one value.
    pub fn push(&mut self, v: &Value) {
        if v.is_null() {
            match &mut self.data {
                ColumnVec::Int(vec) => vec.push(0),
                ColumnVec::Float(vec) => vec.push(0.0),
                ColumnVec::Date(vec) => vec.push(0),
                ColumnVec::Str { arena, offsets } => offsets.push(arena.len() as u32),
                ColumnVec::Val(vec) => vec.push(Value::Null),
            }
            self.validity.push(false);
            return;
        }
        self.make_room_for(v);
        match (&mut self.data, v) {
            (ColumnVec::Int(vec), Value::Int(x)) => vec.push(*x),
            (ColumnVec::Float(vec), Value::Float(x)) => {
                self.has_nan |= x.is_nan();
                vec.push(*x);
            }
            (ColumnVec::Date(vec), Value::Date(d)) => vec.push(d.0),
            (ColumnVec::Str { arena, offsets }, Value::Str(s)) => {
                arena.push_str(s);
                offsets.push(arena.len() as u32);
            }
            (ColumnVec::Val(vec), v) => vec.push(v.clone()),
            _ => unreachable!("make_room_for left a representation the value fits"),
        }
        self.validity.push(true);
    }

    /// Overwrites slot `i`.
    pub fn set(&mut self, i: usize, v: &Value) {
        if v.is_null() {
            if let ColumnVec::Val(vec) = &mut self.data {
                vec[i] = Value::Null;
            }
            self.validity.set(i, false);
            return;
        }
        // The slot being overwritten does not count against "all NULL so
        // far": clear it first so a one-slot column can still retype.
        self.validity.set(i, false);
        self.make_room_for(v);
        match (&mut self.data, v) {
            (ColumnVec::Int(vec), Value::Int(x)) => vec[i] = *x,
            (ColumnVec::Float(vec), Value::Float(x)) => {
                self.has_nan |= x.is_nan();
                vec[i] = *x;
            }
            (ColumnVec::Date(vec), Value::Date(d)) => vec[i] = d.0,
            (ColumnVec::Str { arena, offsets }, Value::Str(s)) => {
                let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
                arena.replace_range(start..end, s);
                // Shift what follows by the change in length (modulo 2³²: a
                // shrink is a wrapping add).
                let delta = ((start + s.len()) as u32).wrapping_sub(end as u32);
                for o in &mut offsets[i + 1..] {
                    *o = o.wrapping_add(delta);
                }
            }
            (ColumnVec::Val(vec), v) => vec[i] = v.clone(),
            _ => unreachable!("make_room_for left a representation the value fits"),
        }
        self.validity.set(i, true);
    }

    /// Leaves the column in a representation the non-NULL `v` fits: a
    /// column that is all NULL so far takes `v`'s type, a typed column
    /// `v` does not fit degrades to boxed values.
    fn make_room_for(&mut self, v: &Value) {
        let n = self.len();
        if self.validity.null_count() == n && matches!(self.data, ColumnVec::Val(_)) {
            self.data = match v {
                Value::Int(_) => ColumnVec::Int(vec![0; n]),
                Value::Float(_) => ColumnVec::Float(vec![0.0; n]),
                Value::Date(_) => ColumnVec::Date(vec![0; n]),
                Value::Str(_) => ColumnVec::Str {
                    arena: String::new(),
                    offsets: vec![0; n + 1],
                },
                _ => return, // exotic types stay boxed
            };
        }
        let fits = match (&self.data, v) {
            (ColumnVec::Int(_), Value::Int(_))
            | (ColumnVec::Float(_), Value::Float(_))
            | (ColumnVec::Date(_), Value::Date(_))
            | (ColumnVec::Val(_), _) => true,
            // Offsets are 32-bit: an arena that would outgrow them holds
            // its strings boxed instead.
            (ColumnVec::Str { arena, .. }, Value::Str(s)) => {
                u32::try_from(arena.len() + s.len()).is_ok()
            }
            _ => false,
        };
        if !fits {
            self.data = ColumnVec::Val((0..n).map(|i| self.value_at(i)).collect());
        }
    }

    /// Materializes slot `i` into a boxed [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        if !self.validity.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnVec::Int(v) => Value::Int(v[i]),
            ColumnVec::Float(v) => Value::Float(v[i]),
            ColumnVec::Date(v) => Value::Date(Date(v[i])),
            ColumnVec::Str { .. } => Value::Str(self.data.str_at(i).to_string()),
            ColumnVec::Val(v) => v[i].clone(),
        }
    }

    /// Orders slot `i` against `v` as [`Value::sort_cmp`] orders the slot's
    /// value against it (a NULL slot first), comparing an `Int` or `Date`
    /// column with a value of its own type in place.
    #[inline]
    pub fn sort_cmp_at(&self, i: usize, v: &Value) -> std::cmp::Ordering {
        if self.validity.is_valid(i) {
            match (&self.data, v) {
                (ColumnVec::Int(col), Value::Int(x)) => return col[i].cmp(x),
                (ColumnVec::Date(col), Value::Date(d)) => return col[i].cmp(&d.0),
                _ => {}
            }
        }
        self.value_at(i).sort_cmp(v)
    }

    /// [`Self::value_at`] into an existing value, reusing its string
    /// allocation — the form for a scratch row refilled once per tuple.
    pub fn read_into(&self, i: usize, out: &mut Value) {
        if let (ColumnVec::Str { .. }, Value::Str(s), true) =
            (&self.data, &mut *out, self.validity.is_valid(i))
        {
            s.clear();
            s.push_str(self.data.str_at(i));
        } else {
            *out = self.value_at(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(vals: &[Value]) -> Column {
        let mut c = Column::new();
        for v in vals {
            c.push(v);
        }
        c
    }

    fn assert_holds(c: &Column, vals: &[Value]) {
        assert_eq!(c.len(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            let got = c.value_at(i);
            // NaN != NaN: compare through the total order.
            assert_eq!(got.sort_cmp(v), std::cmp::Ordering::Equal, "slot {i}");
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(v),
                "slot {i}"
            );
        }
    }

    #[test]
    fn typed_columns_and_roundtrip() {
        let ints = [Value::Int(1), Value::Null, Value::Int(3)];
        let c = column(&ints);
        assert!(matches!(c.data(), ColumnVec::Int(_)));
        assert_eq!(c.validity().null_count(), 1);
        assert_holds(&c, &ints);

        let strs = [
            Value::Str("a".into()),
            Value::Str("bc".into()),
            Value::Null,
            Value::Str(String::new()),
            Value::Str("żółw".into()),
        ];
        let c = column(&strs);
        assert!(matches!(c.data(), ColumnVec::Str { .. }));
        assert_eq!(c.data().str_at(1), "bc");
        assert_holds(&c, &strs);
    }

    #[test]
    fn leading_nulls_fix_no_type_and_mixed_types_degrade() {
        let vals = [Value::Null, Value::Null, Value::Float(2.5)];
        let c = column(&vals);
        assert!(matches!(c.data(), ColumnVec::Float(_)));
        assert_holds(&c, &vals);

        let vals = [
            Value::Int(1),
            Value::Null,
            Value::Float(2.5),
            Value::Int(4),
            Value::Bool(true),
        ];
        let c = column(&vals);
        assert!(matches!(c.data(), ColumnVec::Val(_)));
        assert_holds(&c, &vals);

        let all_null = column(&[Value::Null, Value::Null]);
        assert!(matches!(all_null.data(), ColumnVec::Val(_)));
        assert_eq!(all_null.validity().null_count(), 2);
    }

    #[test]
    fn nan_is_flagged_and_sticky() {
        let mut c = column(&[Value::Float(1.0), Value::Float(f64::NAN)]);
        assert!(c.has_nan());
        c.set(1, &Value::Float(2.0));
        assert!(c.has_nan());
        assert_holds(&c, &[Value::Float(1.0), Value::Float(2.0)]);
    }

    #[test]
    fn set_overwrites_in_every_representation() {
        let mut c = column(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
        c.set(1, &Value::Int(20));
        c.set(2, &Value::Null);
        assert_holds(&c, &[Value::Int(1), Value::Int(20), Value::Null]);
        // A value that does not fit degrades the column, keeping the rest.
        c.set(0, &Value::Str("x".into()));
        assert!(matches!(c.data(), ColumnVec::Val(_)));
        assert_holds(&c, &[Value::Str("x".into()), Value::Int(20), Value::Null]);

        // Strings: longer, shorter, empty, then back from NULL.
        let mut vals = vec![
            Value::Str("ab".into()),
            Value::Str("cde".into()),
            Value::Str("f".into()),
        ];
        let mut c = column(&vals);
        for (i, s) in [(1, "a much longer string"), (0, ""), (2, "gh"), (1, "x")] {
            vals[i] = Value::Str(s.into());
            c.set(i, &vals[i]);
            assert_holds(&c, &vals);
        }
        vals[0] = Value::Null;
        c.set(0, &vals[0]);
        vals[0] = Value::Str("back".into());
        c.set(0, &vals[0]);
        assert!(matches!(c.data(), ColumnVec::Str { .. }));
        assert_holds(&c, &vals);

        // A one-slot all-NULL column retypes on its first value.
        let mut c = column(&[Value::Null]);
        c.set(0, &Value::Date(Date(7)));
        assert!(matches!(c.data(), ColumnVec::Date(_)));
    }

    #[test]
    fn sort_cmp_at_is_sort_cmp_of_the_slot() {
        let probes = [
            Value::Null,
            Value::Int(2),
            Value::Float(2.5),
            Value::Str("b".into()),
            Value::Date(Date(2)),
            Value::Bool(true),
        ];
        let columns = [
            column(&[Value::Int(1), Value::Null, Value::Int(2), Value::Int(3)]),
            column(&[Value::Date(Date(1)), Value::Null, Value::Date(Date(3))]),
            column(&[Value::Str("a".into()), Value::Str("c".into()), Value::Null]),
            column(&[Value::Int(1), Value::Float(2.5), Value::Str("b".into())]),
        ];
        for c in &columns {
            for i in 0..c.len() {
                for p in &probes {
                    assert_eq!(c.sort_cmp_at(i, p), c.value_at(i).sort_cmp(p), "{i} {p:?}");
                }
            }
        }
    }

    #[test]
    fn read_into_reuses_the_string_and_matches_value_at() {
        let vals = [
            Value::Str("abc".into()),
            Value::Null,
            Value::Str("de".into()),
        ];
        let c = column(&vals);
        let mut out = Value::Str(String::with_capacity(64));
        for (i, v) in vals.iter().enumerate() {
            c.read_into(i, &mut out);
            assert_eq!(&out, v);
        }
    }
}
