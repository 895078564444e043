//! Typed, appendable column vectors: the stored form of a heap segment.
//!
//! A [`Column`] is one attribute of one [`crate::heap::Segment`]: a typed
//! vector ([`ColumnVec`]) plus a [`Validity`] bitmap marking which slots
//! hold non-NULL values. The representation follows the values it is
//! given — a column whose non-NULL values are all `Int` is an `Int(Vec<i64>)`,
//! all-`Float` a `Float(Vec<f64>)`, strings a [`StrVec`] — and the first
//! value that does not fit (a `Float` into an `Int` column, a boolean, an
//! interval) degrades the whole column to a flat `Vec<Value>`, replaying the
//! typed slots accumulated so far. Leading NULLs fix nothing: a column that
//! is all NULL so far takes the representation of its first non-NULL value.
//!
//! Strings degrade in one more step of the same kind. A string column
//! starts dictionary-coded: one byte per slot, a code into the segment's
//! own dictionary of the distinct strings written to it, while there are at
//! most [`DICT_CAP`] of them. The first string past the cap falls the
//! column back, once, to a per-slot arena (every string back to back, an
//! offsets vector) — TPC-H's flags, modes and priorities stay coded, its
//! comments do not. A dictionary keeps an entry an overwrite left unused
//! until the column is rebuilt ([`crate::Heap::compact`]), so a code is
//! never reassigned under a reader.
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

/// How many distinct strings a segment's dictionary holds at most: what a
/// one-byte code can name.
pub const DICT_CAP: usize = 256;

/// Strings back to back in one arena; string `i` is
/// `arena[offsets[i] as usize..offsets[i + 1] as usize]`.
#[derive(Debug, Clone)]
pub struct StrArena {
    arena: String,
    offsets: Vec<u32>,
}

impl Default for StrArena {
    fn default() -> Self {
        StrArena {
            arena: String::new(),
            offsets: vec![0],
        }
    }
}

impl StrArena {
    /// How many strings it holds.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of string `i`: what comparisons read, since `str` orders
    /// bytewise and a byte slice needs no char-boundary check.
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        &self.arena.as_bytes()[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Offsets are 32-bit: whether `extra` more bytes still fit.
    fn fits(&self, extra: usize) -> bool {
        u32::try_from(self.arena.len() + extra).is_ok()
    }

    fn push(&mut self, s: &str) {
        self.arena.push_str(s);
        self.offsets.push(self.arena.len() as u32);
    }

    fn set(&mut self, i: usize, s: &str) {
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        self.arena.replace_range(start..end, s);
        // Shift what follows by the change in length (modulo 2³²: a shrink
        // is a wrapping add).
        let delta = ((start + s.len()) as u32).wrapping_sub(end as u32);
        for o in &mut self.offsets[i + 1..] {
            *o = o.wrapping_add(delta);
        }
    }
}

/// A string column's slots. Slots whose validity bit is clear hold an
/// arbitrary code or the empty string.
#[derive(Debug, Clone)]
pub enum StrVec {
    Coded(Coded),
    /// One arena entry per slot: a column that outgrew [`DICT_CAP`].
    Plain(StrArena),
}

/// Dictionary-coded strings: slot `i` is `dict` entry `codes[i]`. Entries
/// are distinct, so two slots hold equal strings exactly when they hold
/// equal codes.
#[derive(Debug, Clone, Default)]
pub struct Coded {
    dict: StrArena,
    /// A fingerprint of each entry ([`fingerprint`]): a string's bytes are
    /// compared only with the entries whose fingerprint matches its own.
    prints: Vec<u32>,
    /// An open-addressing index over the fingerprints: slot → code + 1, 0
    /// for empty. A power of two at least twice the entries, so a probe
    /// ends at an empty slot after a few steps.
    slots: Vec<u16>,
    codes: Vec<u8>,
}

/// A cheap hash of a string: its length and its first and last eight
/// bytes, which tell apart the strings that share a prefix (`Clerk#…`) or a
/// length. Short strings are read in two overlapping loads, not a byte at
/// a time.
#[inline]
fn fingerprint(s: &[u8]) -> u32 {
    let word = |b: &[u8]| -> u64 {
        let n = b.len();
        let at = |i: usize, w: usize| {
            (b[i..i + w].iter().rev()).fold(0u64, |acc, &x| (acc << 8) | x as u64)
        };
        match n {
            8.. => at(0, 8),
            4..=7 => at(0, 4) | at(n - 4, 4) << 32,
            1..=3 => b[0] as u64 | (b[n / 2] as u64) << 8 | (b[n - 1] as u64) << 16,
            0 => 0,
        }
    };
    let n = s.len();
    let head = word(&s[..n.min(8)]);
    let tail = if n <= 8 { head } else { word(&s[n - 8..]) };
    let h = (head ^ tail.rotate_left(29) ^ n as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    (h >> 32) as u32
}

impl Coded {
    pub fn dict(&self) -> &StrArena {
        &self.dict
    }

    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Where `s`, whose fingerprint is `print`, is in the dictionary, if it
    /// is.
    fn position(&self, s: &str, print: u32) -> Option<usize> {
        // Compared inline: a dictionary's strings are mostly a few bytes,
        // shorter than a call to compare them takes.
        let same = |at: usize| {
            let entry = self.dict.bytes_at(at);
            self.prints[at] == print
                && entry.len() == s.len()
                && entry.iter().zip(s.as_bytes()).all(|(a, b)| a == b)
        };
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = print as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return None,
                code if same(code as usize - 1) => return Some(code as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Enters `s`, absent so far, as the next entry; returns its position.
    fn enter(&mut self, s: &str, print: u32) -> usize {
        self.dict.push(s);
        self.prints.push(print);
        let at = self.prints.len() - 1;
        if 2 * self.prints.len() > self.slots.len() {
            // Twice the slots: every entry is indexed again.
            self.slots = vec![0; (2 * self.slots.len()).max(8)];
            for (entry, &p) in self.prints.iter().enumerate() {
                Self::index(&mut self.slots, p, entry);
            }
        } else {
            Self::index(&mut self.slots, print, at);
        }
        at
    }

    fn index(slots: &mut [u16], print: u32, entry: usize) {
        let mask = slots.len() - 1;
        let mut slot = print as usize & mask;
        while slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        slots[slot] = entry as u16 + 1;
    }

    /// Whether `s` can be coded: it has a code, or there is room for one.
    fn takes(&self, s: &str) -> bool {
        (self.dict.len() < DICT_CAP && self.dict.fits(s.len()))
            || self.position(s, fingerprint(s.as_bytes())).is_some()
    }

    /// The code `s` has, entering it into the dictionary if it has none;
    /// `None` when it has none and there is no room for it.
    fn code(&mut self, s: &str) -> Option<u8> {
        let print = fingerprint(s.as_bytes());
        let at = match self.position(s, print) {
            Some(at) => at,
            None if self.dict.len() < DICT_CAP && self.dict.fits(s.len()) => self.enter(s, print),
            None => return None,
        };
        Some(u8::try_from(at).expect("a dictionary holds at most DICT_CAP entries"))
    }
}

impl StrVec {
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        match self {
            StrVec::Coded(c) => c.dict.bytes_at(c.codes[i] as usize),
            StrVec::Plain(arena) => arena.bytes_at(i),
        }
    }

    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        match self {
            StrVec::Coded(c) => c.dict.str_at(c.codes[i] as usize),
            StrVec::Plain(arena) => arena.str_at(i),
        }
    }

    /// The dictionary and the codes of a coded column.
    #[inline]
    pub fn coded(&self) -> Option<(&StrArena, &[u8])> {
        match self {
            StrVec::Coded(c) => Some((&c.dict, &c.codes)),
            StrVec::Plain(_) => None,
        }
    }

    /// The arena holding what these slots hold — the empty string where
    /// `validity` says NULL — when its offsets can address it.
    fn plain(&self, validity: &Validity) -> Option<StrArena> {
        let n = validity.len();
        let valid = || (0..n).filter(|&i| validity.is_valid(i));
        let bytes: usize = valid().map(|i| self.bytes_at(i).len()).sum();
        let mut arena = StrArena {
            arena: String::with_capacity(bytes),
            offsets: Vec::with_capacity(n + 1),
        };
        arena.offsets.push(0);
        if !arena.fits(bytes) {
            return None;
        }
        for i in 0..n {
            arena.push(if validity.is_valid(i) {
                self.str_at(i)
            } else {
                ""
            });
        }
        Some(arena)
    }
}

/// One column's values in typed, flat form. Slots whose validity bit is
/// clear hold an arbitrary placeholder (0, 0.0, the empty string, any
/// code) and must never be read as data.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Days since the epoch — [`apuama_sql::value::Date`]'s wire form.
    Date(Vec<i32>),
    Str(StrVec),
    /// Mixed- or exotic-typed columns, and columns that are all NULL so
    /// far: one flat vector of boxed values.
    Val(Vec<Value>),
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
        if self.push_held(v) {
            return;
        }
        if v.is_null() {
            match &mut self.data {
                ColumnVec::Int(vec) => vec.push(0),
                ColumnVec::Float(vec) => vec.push(0.0),
                ColumnVec::Date(vec) => vec.push(0),
                ColumnVec::Str(StrVec::Coded(c)) => c.codes.push(0),
                ColumnVec::Str(StrVec::Plain(arena)) => arena.push(""),
                ColumnVec::Val(vec) => vec.push(Value::Null),
            }
            self.validity.push(false);
            return;
        }
        self.make_room_for(v);
        if let ColumnVec::Val(vec) = &mut self.data {
            vec.push(v.clone());
            self.validity.push(true);
        } else {
            let held = self.push_held(v);
            assert!(held, "make_room_for left a representation the value fits");
        }
    }

    /// Appends the non-NULL `v` if the column's typed representation holds
    /// it as it is — the common case, tried first — and says whether it
    /// did.
    fn push_held(&mut self, v: &Value) -> bool {
        match (&mut self.data, v) {
            (ColumnVec::Int(vec), Value::Int(x)) => vec.push(*x),
            (ColumnVec::Float(vec), Value::Float(x)) => {
                self.has_nan |= x.is_nan();
                vec.push(*x);
            }
            (ColumnVec::Date(vec), Value::Date(d)) => vec.push(d.0),
            (ColumnVec::Str(StrVec::Coded(c)), Value::Str(s)) => match c.code(s) {
                Some(code) => c.codes.push(code),
                None => return false,
            },
            (ColumnVec::Str(StrVec::Plain(arena)), Value::Str(s)) if arena.fits(s.len()) => {
                arena.push(s)
            }
            _ => return false,
        }
        self.validity.push(true);
        true
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
            (ColumnVec::Str(StrVec::Coded(c)), Value::Str(s)) => {
                c.codes[i] = c.code(s).expect("make_room_for made room")
            }
            (ColumnVec::Str(StrVec::Plain(arena)), Value::Str(s)) => arena.set(i, s),
            (ColumnVec::Val(vec), v) => vec[i] = v.clone(),
            _ => unreachable!("make_room_for left a representation the value fits"),
        }
        self.validity.set(i, true);
    }

    /// Leaves the column in a representation the non-NULL `v` fits: a
    /// column that is all NULL so far takes `v`'s type, a coded string
    /// column whose dictionary has no room for `v` falls back to the arena,
    /// a typed column `v` does not fit degrades to boxed values.
    fn make_room_for(&mut self, v: &Value) {
        let n = self.len();
        if self.validity.null_count() == n && matches!(self.data, ColumnVec::Val(_)) {
            self.data = match v {
                Value::Int(_) => ColumnVec::Int(vec![0; n]),
                Value::Float(_) => ColumnVec::Float(vec![0.0; n]),
                Value::Date(_) => ColumnVec::Date(vec![0; n]),
                Value::Str(_) => ColumnVec::Str(StrVec::Coded(Coded {
                    codes: vec![0; n],
                    ..Coded::default()
                })),
                _ => return, // exotic types stay boxed
            };
        }
        if let (ColumnVec::Str(strs @ StrVec::Coded(c)), Value::Str(s)) = (&self.data, v) {
            if !c.takes(s) {
                self.data = match strs.plain(&self.validity) {
                    Some(arena) => ColumnVec::Str(StrVec::Plain(arena)),
                    None => ColumnVec::Val((0..n).map(|i| self.value_at(i)).collect()),
                };
            }
        }
        let fits = match (&self.data, v) {
            (ColumnVec::Int(_), Value::Int(_))
            | (ColumnVec::Float(_), Value::Float(_))
            | (ColumnVec::Date(_), Value::Date(_))
            | (ColumnVec::Str(StrVec::Coded(_)), Value::Str(_))
            | (ColumnVec::Val(_), _) => true,
            // Offsets are 32-bit: an arena that would outgrow them holds
            // its strings boxed instead.
            (ColumnVec::Str(StrVec::Plain(arena)), Value::Str(s)) => arena.fits(s.len()),
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
            ColumnVec::Str(strs) => Value::Str(strs.str_at(i).to_string()),
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
        if let (ColumnVec::Str(strs), Value::Str(s), true) =
            (&self.data, &mut *out, self.validity.is_valid(i))
        {
            s.clear();
            s.push_str(strs.str_at(i));
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
        let ColumnVec::Str(coded @ StrVec::Coded(_)) = c.data() else {
            panic!("{:?}", c.data())
        };
        assert_eq!(coded.str_at(1), "bc");
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
        assert!(matches!(c.data(), ColumnVec::Str(StrVec::Coded(_))));
        assert_holds(&c, &vals);

        // A one-slot all-NULL column retypes on its first value.
        let mut c = column(&[Value::Null]);
        c.set(0, &Value::Date(Date(7)));
        assert!(matches!(c.data(), ColumnVec::Date(_)));
    }

    /// Strings stay coded while the distinct ones fit the dictionary —
    /// NULLs and repeats take no entry — and the first string past the cap
    /// falls the column back to the arena once, through `push` or `set`,
    /// keeping every slot.
    #[test]
    fn strings_are_coded_until_the_dictionary_is_full() {
        let coded = |c: &Column| match c.data() {
            ColumnVec::Str(strs) => strs.coded().map(|(dict, _)| dict.len()),
            other => panic!("{other:?}"),
        };
        let text = |i: usize| Value::Str(format!("v{i}"));
        let mut vals = vec![Value::Null, text(0), text(1), Value::Null, text(0)];
        let mut c = column(&vals);
        assert_eq!(coded(&c), Some(2));
        let ColumnVec::Str(strs) = c.data() else {
            unreachable!()
        };
        assert_eq!(strs.coded().unwrap().1[1..3], [0, 1]);
        assert_eq!(strs.coded().unwrap().1[4], 0);
        assert_holds(&c, &vals);

        // Up to the cap through push, one more through set: the arena.
        for i in 2..DICT_CAP {
            vals.push(text(i));
            c.push(&vals[vals.len() - 1]);
        }
        assert_eq!(coded(&c), Some(DICT_CAP));
        vals[1] = text(3);
        c.set(1, &vals[1]);
        assert_eq!(coded(&c), Some(DICT_CAP));
        assert_holds(&c, &vals);
        vals[3] = text(DICT_CAP);
        c.set(3, &vals[3]);
        assert_eq!(coded(&c), None);
        assert_holds(&c, &vals);
        // Past the fallback the arena takes anything, as before.
        vals.push(text(DICT_CAP + 1));
        c.push(&vals[vals.len() - 1]);
        vals[2] = Value::Null;
        c.set(2, &vals[2]);
        assert_holds(&c, &vals);

        // A string column still degrades to boxed values on a non-string.
        let mut c = column(&[text(0), Value::Null]);
        c.push(&Value::Int(1));
        assert!(matches!(c.data(), ColumnVec::Val(_)));
        assert_holds(&c, &[text(0), Value::Null, Value::Int(1)]);
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
