//! Dynamic scalar values and calendar arithmetic.
//!
//! [`Value`] is the single runtime scalar type shared by the parser, the
//! single-node engine, the result composer and the cluster layers. TPC-H
//! needs exact date arithmetic (`date '1998-12-01' - interval '90' day`), so
//! dates are stored as a day count from 1970-01-01 with a proleptic-Gregorian
//! conversion implemented here (no external chrono dependency).

use std::cmp::Ordering;
use std::fmt;

/// A calendar date stored as days since the Unix epoch (1970-01-01).
///
/// Supports the subset of calendar arithmetic TPC-H predicates use:
/// construction from `YYYY-MM-DD`, adding day/month/year intervals, and
/// total ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

const DAYS_PER_400Y: i64 = 146_097;
const DAYS_PER_100Y: i64 = 36_524;
const DAYS_PER_4Y: i64 = 1_461;

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Date {
    /// Builds a date from calendar components. Returns `None` for
    /// out-of-range months or days.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Option<Date> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        // Days from 1970-01-01 to the start of `year`.
        let y = year as i64 - 1970;
        let mut days = y * 365;
        // Count leap days between 1970 and `year` (exclusive of `year`).
        let leaps = |to: i64| -> i64 {
            // number of leap years in [1970, 1970+to) using absolute years
            let a = 1970;
            let b = 1970 + to;
            let count = |n: i64| n / 4 - n / 100 + n / 400;
            count(b - 1) - count(a - 1)
        };
        if y >= 0 {
            days += leaps(y);
        } else {
            days -= {
                let a = year as i64;
                let b = 1970i64;
                let count = |n: i64| n / 4 - n / 100 + n / 400;
                count(b - 1) - count(a - 1)
            };
        }
        for m in 1..month {
            days += days_in_month(year, m) as i64;
        }
        days += day as i64 - 1;
        Some(Date(days as i32))
    }

    /// Parses a `YYYY-MM-DD` literal.
    pub fn parse(text: &str) -> Option<Date> {
        let mut parts = text.splitn(3, '-');
        let y: i32 = parts.next()?.parse().ok()?;
        let m: u32 = parts.next()?.parse().ok()?;
        let d: u32 = parts.next()?.parse().ok()?;
        Date::from_ymd(y, m, d)
    }

    /// Decomposes the day count back into `(year, month, day)`.
    pub fn to_ymd(self) -> (i32, u32, u32) {
        // Shift to an epoch of 2000-03-01 (aligned with the 400-year cycle)
        // and decompose; this is the classic civil-from-days algorithm.
        let mut days = self.0 as i64 - 11_017; // days from 2000-03-01
        let mut qc = days.div_euclid(DAYS_PER_400Y);
        days = days.rem_euclid(DAYS_PER_400Y);
        let mut c = days / DAYS_PER_100Y;
        if c == 4 {
            c = 3;
        }
        days -= c * DAYS_PER_100Y;
        let mut q = days / DAYS_PER_4Y;
        if q == 25 {
            q = 24;
        }
        days -= q * DAYS_PER_4Y;
        let mut y = days / 365;
        if y == 4 {
            y = 3;
        }
        days -= y * 365;
        let mut year = (2000 + qc * 400 + c * 100 + q * 4 + y) as i32;
        // `days` counts from March 1; month table for March-based year.
        const MDAYS: [i64; 12] = [31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 31, 29];
        let mut month = 0usize;
        while days >= MDAYS[month] {
            days -= MDAYS[month];
            month += 1;
        }
        let mut m = month as u32 + 3;
        if m > 12 {
            m -= 12;
            year += 1;
        }
        let _ = &mut qc;
        (year, m, days as u32 + 1)
    }

    /// Adds a calendar interval, clamping the day-of-month when the target
    /// month is shorter (`2000-01-31 + 1 month = 2000-02-29`), matching SQL
    /// engines' behaviour.
    pub fn add_interval(self, iv: Interval) -> Date {
        let (mut y, mut m, mut d) = self.to_ymd();
        let total = (y as i64) * 12 + (m as i64 - 1) + iv.months as i64;
        y = total.div_euclid(12) as i32;
        m = total.rem_euclid(12) as u32 + 1;
        let dim = days_in_month(y, m);
        if d > dim {
            d = dim;
        }
        let base = Date::from_ymd(y, m, d).expect("component arithmetic stays in range");
        Date(base.0 + iv.days)
    }

    /// Extracts the year component (for `GROUP BY` on shipping years etc.).
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A calendar interval: a month component plus a day component, mirroring
/// SQL's `INTERVAL 'n' DAY | MONTH | YEAR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Whole months (years are stored as 12 months).
    pub months: i32,
    /// Whole days.
    pub days: i32,
}

impl Interval {
    pub fn days(n: i32) -> Interval {
        Interval { months: 0, days: n }
    }
    pub fn months(n: i32) -> Interval {
        Interval { months: n, days: 0 }
    }
    pub fn years(n: i32) -> Interval {
        Interval {
            months: n * 12,
            days: 0,
        }
    }

    /// Flips the sign of both components (for `date - interval`).
    pub fn negate(self) -> Interval {
        Interval {
            months: -self.months,
            days: -self.days,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render in the canonical single-unit form whenever possible so the
        // output stays parseable by our own parser.
        if self.days == 0 && self.months % 12 == 0 && self.months != 0 {
            write!(f, "interval '{}' year", self.months / 12)
        } else if self.days == 0 {
            write!(f, "interval '{}' month", self.months)
        } else if self.months == 0 {
            write!(f, "interval '{}' day", self.days)
        } else {
            // Mixed intervals never appear in our dialect, but render
            // something unambiguous anyway.
            write!(
                f,
                "(interval '{}' month + interval '{}' day)",
                self.months, self.days
            )
        }
    }
}

/// The dynamic scalar value type.
///
/// `NULL` compares as SQL three-valued logic in the engine's evaluator;
/// inside sort keys and group keys the engine uses [`Value::sort_cmp`], which
/// places NULL first, giving a total order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Date(Date),
    Interval(Interval),
}

impl Value {
    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and aggregation; integers widen to
    /// floats when mixed.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (no float truncation — engines should be explicit).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Date view.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Boolean view (used by predicate evaluation).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison: returns `None` when either side is NULL or the types
    /// are incomparable (three-valued logic's UNKNOWN).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).map(Ordering::reverse),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sorting and grouping: NULL sorts first, then by type
    /// rank, then by value. NaN ranks above every number, `Int` included,
    /// and equal to itself — the one numeric pair `sql_cmp` cannot order.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Date(_) => 4,
                Value::Interval(_) => 5,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => rank(self).cmp(&rank(other)).then_with(|| {
                self.sql_cmp(other).unwrap_or_else(|| match (self, other) {
                    (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                        let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
                        nan(self).cmp(&nan(other))
                    }
                    (Value::Interval(a), Value::Interval(b)) => {
                        (a.months, a.days).cmp(&(b.months, b.days))
                    }
                    _ => Ordering::Equal,
                })
            }),
        }
    }

    /// Key used for hashing in group-by / hash-join build sides: a canonical
    /// byte representation with floats normalized via `to_bits` of the
    /// canonicalized value.
    pub fn hash_key(&self) -> HashableValue {
        HashableValue(self.clone())
    }
}

/// An integer against a float, exactly: `None` only for NaN. Converting the
/// integer to `f64` would round beyond 2^53 and make `2^53 + 1` equal to
/// the float `2^53` while greater than the integer `2^53` — no order a sort
/// may rely on. The float's integral part is compared as an integer
/// instead, then its fraction; every `i64` equal to a float converts to
/// that float exactly, so [`hash_value`] still hashes equal values alike.
pub fn cmp_int_float(a: i64, b: f64) -> Option<Ordering> {
    // 2^63, exactly representable: every float at or above it exceeds
    // every `i64`, every float below -2^63 is below them.
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        None
    } else if b >= LIMIT {
        Some(Ordering::Less)
    } else if b < -LIMIT {
        Some(Ordering::Greater)
    } else {
        let whole = b.trunc();
        Some(a.cmp(&(whole as i64)).then(0.0.partial_cmp(&(b - whole))?))
    }
}

/// Wrapper giving [`Value`] `Eq + Hash` semantics suitable for hash tables
/// (NULL equals NULL — SQL GROUP BY treats NULLs as one group; hash joins in
/// the engine filter NULL keys before probing, matching SQL join semantics).
#[derive(Debug, Clone)]
pub struct HashableValue(pub Value);

impl PartialEq for HashableValue {
    fn eq(&self, other: &Self) -> bool {
        self.0.sort_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for HashableValue {}

impl std::hash::Hash for HashableValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        hash_value(&self.0, state)
    }
}

/// Canonical hash of one value, consistent with [`HashableValue`]'s
/// equality (`sort_cmp == Equal`): `Int` and `Float` hash as the same
/// `f64` bit pattern and `-0.0` canonicalizes to `0.0`. Exposed so hash
/// tables keyed on borrowed `&Value`s (the engine's group tables) hash
/// exactly like a `HashableValue` key without cloning the value first.
pub fn hash_value<H: std::hash::Hasher>(v: &Value, state: &mut H) {
    use std::hash::Hash;
    match v {
        Value::Null => 0u8.hash(state),
        Value::Bool(b) => {
            1u8.hash(state);
            b.hash(state);
        }
        Value::Int(i) => {
            2u8.hash(state);
            (*i as f64).to_bits().hash(state);
        }
        Value::Float(f) => {
            2u8.hash(state);
            // `sort_cmp` equates the zeros and the NaNs: so must the hash.
            let canon = match *f {
                0.0 => 0.0,
                f if f.is_nan() => f64::NAN,
                f => f,
            };
            canon.to_bits().hash(state);
        }
        Value::Str(s) => {
            3u8.hash(state);
            s.hash(state);
        }
        Value::Date(d) => {
            4u8.hash(state);
            d.0.hash(state);
        }
        Value::Interval(iv) => {
            5u8.hash(state);
            iv.months.hash(state);
            iv.days.hash(state);
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    // Keep a trailing ".0" so the literal re-parses as a float.
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(d) => write!(f, "date '{d}'"),
            Value::Interval(iv) => write!(f, "{iv}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_epoch() {
        let d = Date::from_ymd(1970, 1, 1).unwrap();
        assert_eq!(d.0, 0);
        assert_eq!(d.to_ymd(), (1970, 1, 1));
    }

    #[test]
    fn date_roundtrip_known_days() {
        // 1998-12-01 is 10561 days after the epoch.
        let d = Date::parse("1998-12-01").unwrap();
        assert_eq!(d.to_ymd(), (1998, 12, 1));
        assert_eq!(d.0, 10_561);
    }

    #[test]
    fn date_roundtrip_many() {
        for days in (-20_000..40_000).step_by(7) {
            let d = Date(days);
            let (y, m, dd) = d.to_ymd();
            assert_eq!(Date::from_ymd(y, m, dd), Some(d), "days={days}");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(1996));
        assert!(!is_leap(1997));
        assert_eq!(Date::from_ymd(1900, 2, 29), None);
        assert!(Date::from_ymd(2000, 2, 29).is_some());
    }

    #[test]
    fn interval_day_arithmetic() {
        let d = Date::parse("1998-12-01").unwrap();
        let e = d.add_interval(Interval::days(-90));
        assert_eq!(e.to_string(), "1998-09-02");
    }

    #[test]
    fn interval_month_clamps_day() {
        let d = Date::parse("2000-01-31").unwrap();
        assert_eq!(
            d.add_interval(Interval::months(1)).to_string(),
            "2000-02-29"
        );
        let d = Date::parse("1999-01-31").unwrap();
        assert_eq!(
            d.add_interval(Interval::months(1)).to_string(),
            "1999-02-28"
        );
    }

    #[test]
    fn interval_year_arithmetic() {
        let d = Date::parse("1994-01-01").unwrap();
        assert_eq!(d.add_interval(Interval::years(1)).to_string(), "1995-01-01");
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn sort_cmp_total_order_nulls_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
    }

    /// `sort_cmp` is antisymmetric and transitive over every triple of
    /// `vals`, and values it calls equal hash alike.
    fn assert_total_order(vals: &[Value]) {
        let hash = |v: &Value| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            hash_value(v, &mut h);
            std::hash::Hasher::finish(&h)
        };
        for a in vals {
            for b in vals {
                let ab = a.sort_cmp(b);
                assert_eq!(ab, b.sort_cmp(a).reverse(), "{a:?} vs {b:?}");
                if ab == Ordering::Equal {
                    assert_eq!(hash(a), hash(b), "{a:?} vs {b:?}");
                }
                for c in vals {
                    let bc = b.sort_cmp(c);
                    if ab != Ordering::Greater && bc != Ordering::Greater {
                        let ac = a.sort_cmp(c);
                        assert_ne!(ac, Ordering::Greater, "{a:?} ≤ {b:?} ≤ {c:?}");
                        if ab == Ordering::Less || bc == Ordering::Less {
                            assert_eq!(ac, Ordering::Less, "{a:?} ≤ {b:?} ≤ {c:?}");
                        }
                    }
                }
            }
        }
    }

    /// Beyond 2^53 an `i64` has no `f64` of its own: rounded, `2^53 + 1`
    /// would equal the float `2^53` that equals the integer `2^53`, while
    /// the two integers differ — and a sort over the three may panic. The
    /// comparison is exact instead, out to the ends of `i64`, and `1 = 1.0`
    /// still holds.
    #[test]
    fn integers_beyond_2_pow_53_compare_exactly_with_floats() {
        let p53 = 1i64 << 53;
        let vals = [
            Value::Int(p53 - 1),
            Value::Int(p53),
            Value::Int(p53 + 1),
            Value::Int(p53 + 2),
            Value::Float(p53 as f64),
            Value::Float((p53 + 2) as f64),
            Value::Float(p53 as f64 + 0.5),
            Value::Int(i64::MAX),
            Value::Int(i64::MAX - 1),
            Value::Float(i64::MAX as f64),
            Value::Int(i64::MIN),
            Value::Int(i64::MIN + 1),
            Value::Float(i64::MIN as f64),
            Value::Float(-9.3e18),
            Value::Int(-1),
            Value::Float(-1.5),
            Value::Float(-1.0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::NAN),
        ];
        assert_total_order(&vals);
        let (int, float) = (Value::Int, Value::Float);
        assert_eq!(int(p53).sql_cmp(&float(p53 as f64)), Some(Ordering::Equal));
        assert_eq!(
            int(p53 + 1).sql_cmp(&float(p53 as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            float(p53 as f64).sql_cmp(&int(p53 + 1)),
            Some(Ordering::Less)
        );
        assert_eq!(
            int(i64::MAX).sql_cmp(&float(i64::MAX as f64)),
            Some(Ordering::Less)
        );
        assert_eq!(
            int(i64::MIN).sql_cmp(&float(i64::MIN as f64)),
            Some(Ordering::Equal)
        );
        assert_eq!(int(1).sql_cmp(&float(1.0)), Some(Ordering::Equal));
        assert_eq!(int(-2).sql_cmp(&float(-1.5)), Some(Ordering::Less));
        assert_eq!(int(0).sql_cmp(&float(-0.0)), Some(Ordering::Equal));
        assert_eq!(int(0).sql_cmp(&float(f64::NAN)), None);
        let mut sorted = vals.to_vec();
        sorted.sort_by(|a, b| a.sort_cmp(b));
        assert!(sorted
            .windows(2)
            .all(|w| w[0].sort_cmp(&w[1]) != Ordering::Greater));
    }

    /// Antisymmetric and transitive over every triple. Under a comparator
    /// that is not — NaN equal to both 1 and 3 while 1 < 3 — the standard
    /// library's sort may panic.
    #[test]
    fn sort_cmp_is_a_total_order_over_nulls_numbers_and_nan() {
        let vals = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(-3),
            Value::Int(0),
            Value::Int(1),
            Value::Int(3),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.5),
            Value::Float(1.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
        ];
        assert_total_order(&vals);
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.sort_cmp(&Value::Int(i64::MAX)), Ordering::Greater);
        assert_eq!(
            nan.sort_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(nan.sort_cmp(&Value::Float(f64::NAN)), Ordering::Equal);
    }

    #[test]
    fn display_roundtrips_string_quoting() {
        assert_eq!(Value::Str("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn hashable_int_float_unify() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(2).hash_key());
        assert!(set.contains(&Value::Float(2.0).hash_key()));
    }

    #[test]
    fn date_display_is_padded() {
        let d = Date::from_ymd(1995, 3, 5).unwrap();
        assert_eq!(d.to_string(), "1995-03-05");
    }

    #[test]
    fn date_year_extraction() {
        assert_eq!(Date::parse("1997-06-15").unwrap().year(), 1997);
    }
}
