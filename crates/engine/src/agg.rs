//! Aggregation, written once: which aggregate calls a query makes
//! ([`AggSpec`]), what each accumulates ([`Acc`]) from a value, a stored
//! cell or a computed float, how rows find their group ([`Groups`]), and how
//! two partial aggregates combine ([`Acc::merge`], [`Groups::merge`]).
//!
//! Every tier that adds goes through here: the general aggregation operator,
//! the fused fold, the morsel tier's combine step and — through
//! [`PartialAgg`], the module's whole public surface — the cluster layer's
//! result composer. Composition is re-aggregation (paper §3: `avg` ships as
//! `sum` and `count`, partial sums are re-summed), and it is only
//! partition-count-invariant if every tier adds the same way; with one
//! accumulator there is no second way to drift from (DESIGN.md §5.4).

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

use apuama_sql::ast::{is_aggregate_name, Expr, Select, SelectItem};
use apuama_sql::value::{cmp_int_float, hash_value, HashableValue};
use apuama_sql::{visit, Value};
use apuama_storage::{Column, ColumnVec, Row};

use crate::error::{EngineError, EngineResult};
use crate::physical::{key_component, FnvHasher, KeyProg};

// ---------------------------------------------------------------------------
// Aggregate calls
// ---------------------------------------------------------------------------

/// One aggregate call discovered in the query, keyed by its rendered SQL so
/// identical calls share an accumulator.
#[derive(Debug, Clone)]
pub(crate) struct AggSpec {
    pub(crate) key: String,
    name: String,
    pub(crate) arg: Option<Expr>,
    pub(crate) distinct: bool,
    pub(crate) star: bool,
}

/// Finds every aggregate call in the query's output clauses (not descending
/// into subqueries — their aggregates belong to the inner query).
pub(crate) fn collect_agg_specs(q: &Select) -> Vec<AggSpec> {
    let mut specs: Vec<AggSpec> = Vec::new();
    let mut add = |e: &Expr| {
        visit::shallow_walk(e, &mut |x| {
            if let Expr::Function {
                name,
                args,
                distinct,
                star,
            } = x
            {
                if is_aggregate_name(name) {
                    let key = x.to_string();
                    if !specs.iter().any(|s| s.key == key) {
                        specs.push(AggSpec {
                            key,
                            name: name.clone(),
                            arg: args.first().cloned(),
                            distinct: *distinct,
                            star: *star,
                        });
                    }
                }
            }
        });
    };
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            add(expr);
        }
    }
    if let Some(h) = &q.having {
        add(h);
    }
    for o in &q.order_by {
        add(&o.expr);
    }
    specs
}

/// What one aggregate folds over a batch's survivors, in survivor order.
pub(crate) enum BatchValues<'a> {
    /// No argument: `count(*)`.
    None,
    /// Computed, one per survivor.
    Floats(&'a [f64]),
    /// A NULL-free `Float` column at the survivors' slots.
    FloatCol(&'a [f64], &'a [u32]),
    /// The stored cells at the survivors' slots.
    Cells(&'a Column, &'a [u32]),
}

impl AggSpec {
    /// Whether folding `values` can raise no error: `sum` and `avg` reject
    /// what is not a number, every other aggregate takes any value.
    pub(crate) fn folds_without_error(&self, values: &BatchValues<'_>) -> bool {
        match (self.name.as_str(), values) {
            ("sum" | "avg", BatchValues::Cells(col, _)) => {
                matches!(col.data(), ColumnVec::Int(_) | ColumnVec::Float(_))
            }
            _ => true,
        }
    }
}

/// Re-aggregation function for one column of a partial aggregate. `count`
/// re-aggregates as `Sum` of partial counts and `avg` decomposes into two
/// `Sum` columns, so three folds cover every decomposable aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldFn {
    Sum,
    Min,
    Max,
}

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

/// Accumulator state for one aggregate within one group.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    CountStar(i64),
    Count {
        n: i64,
        distinct: Option<HashSet<HashableValue>>,
    },
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        n: i64,
        distinct: Option<HashSet<HashableValue>>,
    },
    Avg {
        sum: f64,
        n: i64,
        distinct: Option<HashSet<HashableValue>>,
    },
    /// `min` (`want` is `Less`) or `max` (`Greater`).
    Extreme {
        want: Ordering,
        cur: Option<Value>,
    },
}

/// The min/max rule: a candidate replaces the extremum only when it is
/// strictly better — `cmp` is the candidate against the current value — so
/// among equals, and against a value `sql_cmp` cannot order (NaN, another
/// type class), the first seen stays. Updates and merges all decide here,
/// which is what makes "first seen wins" hold row by row and partial by
/// partial alike.
#[inline]
fn improves(
    cur: &Option<Value>,
    want: Ordering,
    cmp: impl FnOnce(&Value) -> Option<Ordering>,
) -> bool {
    cur.as_ref().is_none_or(|c| cmp(c) == Some(want))
}

impl Acc {
    fn sum(distinct: Option<HashSet<HashableValue>>) -> Acc {
        Acc::Sum {
            int: 0,
            float: 0.0,
            any_float: false,
            n: 0,
            distinct,
        }
    }

    /// The values a DISTINCT accumulator has taken so far.
    fn seen(&mut self) -> Option<&mut HashSet<HashableValue>> {
        match self {
            Acc::Count { distinct, .. } | Acc::Sum { distinct, .. } | Acc::Avg { distinct, .. } => {
                distinct.as_mut()
            }
            Acc::CountStar(_) | Acc::Extreme { .. } => None,
        }
    }

    pub(crate) fn new(spec: &AggSpec) -> Acc {
        let set = || spec.distinct.then(HashSet::new);
        match spec.name.as_str() {
            "count" if spec.star => Acc::CountStar(0),
            "count" => Acc::Count {
                n: 0,
                distinct: set(),
            },
            "sum" => Acc::sum(set()),
            "avg" => Acc::Avg {
                sum: 0.0,
                n: 0,
                distinct: set(),
            },
            "min" => Acc::folding(FoldFn::Min),
            "max" => Acc::folding(FoldFn::Max),
            other => unreachable!("not an aggregate: {other}"),
        }
    }

    fn folding(fold: FoldFn) -> Acc {
        let extreme = |want| Acc::Extreme { want, cur: None };
        match fold {
            FoldFn::Sum => Acc::sum(None),
            FoldFn::Min => extreme(Ordering::Less),
            FoldFn::Max => extreme(Ordering::Greater),
        }
    }

    /// One aggregate update from the argument's value (`None`: the call has
    /// no argument). `count(*)` counts the row; every other accumulator
    /// skips a missing or NULL argument, and a DISTINCT one a value it has
    /// already taken.
    pub(crate) fn update(&mut self, v: Option<Value>) -> EngineResult<()> {
        let Some(v) = v.filter(|v| !v.is_null()) else {
            if let Acc::CountStar(n) = self {
                *n += 1;
            }
            return Ok(());
        };
        if self.seen().is_some_and(|seen| !seen.insert(v.hash_key())) {
            return Ok(());
        }
        match self {
            Acc::CountStar(n) | Acc::Count { n, .. } => *n += 1,
            Acc::Sum {
                int,
                float,
                any_float,
                n,
                ..
            } => {
                match v {
                    Value::Int(i) => {
                        *int = int.wrapping_add(i);
                        *float += i as f64;
                    }
                    Value::Float(x) => {
                        *any_float = true;
                        *float += x;
                    }
                    other => return Err(EngineError::TypeError(format!("sum() over {other}"))),
                }
                *n += 1;
            }
            Acc::Avg { sum, n, .. } => {
                let Some(x) = v.as_f64() else {
                    return Err(EngineError::TypeError(format!("avg() over {v}")));
                };
                *sum += x;
                *n += 1;
            }
            Acc::Extreme { want, cur } => {
                if improves(cur, *want, |c| v.sql_cmp(c)) {
                    *cur = Some(v);
                }
            }
        }
        Ok(())
    }

    /// One aggregate update from a computed `Float`, value-identical to
    /// `update(Some(Value::Float(x)))` without the box on the accumulators
    /// a vectorized argument feeds in practice.
    pub(crate) fn update_f64(&mut self, x: f64) -> EngineResult<()> {
        match self {
            Acc::Sum {
                float,
                any_float,
                n,
                distinct: None,
                ..
            } => {
                *any_float = true;
                *float += x;
                *n += 1;
            }
            Acc::Avg {
                sum,
                n,
                distinct: None,
            } => {
                *sum += x;
                *n += 1;
            }
            other => other.update(Some(Value::Float(x)))?,
        }
        Ok(())
    }

    /// One aggregate update from a stored cell, value- and error-identical
    /// to `update(Some(cell))` but without boxing the cell for the hot
    /// accumulators over typed columns. Everything else — DISTINCT, a boxed
    /// column, an argument the aggregate rejects — materializes the cell and
    /// takes the boxed path: correctness over speed off the hot path.
    pub(crate) fn update_cell(&mut self, col: &Column, i: usize) -> EngineResult<()> {
        if !col.validity().is_valid(i) {
            return self.update(None);
        }
        match (&mut *self, col.data()) {
            (Acc::CountStar(n) | Acc::Count { n, distinct: None }, _) => *n += 1,
            (
                Acc::Sum {
                    int,
                    float,
                    n,
                    distinct: None,
                    ..
                },
                ColumnVec::Int(v),
            ) => {
                *int = int.wrapping_add(v[i]);
                *float += v[i] as f64;
                *n += 1;
            }
            (
                Acc::Avg {
                    sum,
                    n,
                    distinct: None,
                },
                ColumnVec::Int(v),
            ) => {
                *sum += v[i] as f64;
                *n += 1;
            }
            (
                Acc::Sum { distinct: None, .. } | Acc::Avg { distinct: None, .. },
                ColumnVec::Float(v),
            ) => return self.update_f64(v[i]),
            (Acc::Extreme { want, cur }, _) => {
                if improves(cur, *want, |c| cell_sql_cmp(col, i, c)) {
                    *cur = Some(col.value_at(i));
                }
            }
            _ => return self.update(Some(col.value_at(i))),
        }
        Ok(())
    }

    /// Folds another accumulator of the same shape into this one — the
    /// combine step of partial aggregation, whichever tier cut the partials
    /// (morsels of one scan, nodes of one cluster). Merging `other` after
    /// every row of the earlier partial has been applied is exactly
    /// equivalent to updating one accumulator with both partials' rows in
    /// partial order: counts add, sums add (the wrapping integer add and the
    /// float add are both associative over the engine's exact test data),
    /// and min/max keep the earlier value on ties ([`improves`], as
    /// `update` has it). DISTINCT accumulators are never merged — the
    /// parallel planner excludes them, because replaying a hash set's
    /// insertion order is not order-free.
    fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::CountStar(n), Acc::CountStar(m))
            | (Acc::Count { n, distinct: None }, Acc::Count { n: m, .. }) => *n += m,
            (
                Acc::Sum {
                    int,
                    float,
                    any_float,
                    n,
                    distinct: None,
                },
                Acc::Sum {
                    int: oi,
                    float: of,
                    any_float: oa,
                    n: on,
                    ..
                },
            ) => {
                *int = int.wrapping_add(oi);
                *float += of;
                *any_float |= oa;
                *n += on;
            }
            (
                Acc::Avg {
                    sum,
                    n,
                    distinct: None,
                },
                Acc::Avg { sum: os, n: on, .. },
            ) => {
                *sum += os;
                *n += on;
            }
            (Acc::Extreme { want, cur }, Acc::Extreme { cur: other, .. }) => {
                if let Some(v) = other {
                    if improves(cur, *want, |c| v.sql_cmp(c)) {
                        *cur = Some(v);
                    }
                }
            }
            _ => unreachable!("merging mismatched or DISTINCT accumulators"),
        }
    }

    pub(crate) fn finalize(self) -> Value {
        match self {
            Acc::CountStar(n) | Acc::Count { n, .. } => Value::Int(n),
            Acc::Sum {
                int,
                float,
                any_float,
                n,
                ..
            } => {
                if n == 0 {
                    Value::Null
                } else if any_float {
                    Value::Float(float)
                } else {
                    Value::Int(int)
                }
            }
            Acc::Avg { sum, n, .. } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Extreme { cur, .. } => cur.unwrap_or(Value::Null),
        }
    }
}

/// `cell sql_cmp cur` without boxing the cell for the pairs a typed column
/// produces.
fn cell_sql_cmp(col: &Column, i: usize, cur: &Value) -> Option<Ordering> {
    match (col.data(), cur) {
        (ColumnVec::Int(v), Value::Int(b)) => Some(v[i].cmp(b)),
        (ColumnVec::Int(v), Value::Float(b)) => cmp_int_float(v[i], *b),
        (ColumnVec::Float(v), Value::Int(b)) => cmp_int_float(*b, v[i]).map(Ordering::reverse),
        (ColumnVec::Float(v), Value::Float(b)) => v[i].partial_cmp(b),
        (ColumnVec::Str(strs), Value::Str(s)) => Some(strs.str_at(i).cmp(s.as_str())),
        (ColumnVec::Date(v), Value::Date(d)) => Some(v[i].cmp(&d.0)),
        (ColumnVec::Val(v), c) => v[i].sql_cmp(c),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Group table
// ---------------------------------------------------------------------------

/// Accumulator state for one group: a representative input row (what a
/// group's projection reads columns from) plus one accumulator per aggregate
/// spec.
pub(crate) struct GroupState {
    pub(crate) rep_row: Row,
    pub(crate) accs: Vec<Acc>,
}

/// How many groups the table matches by linear scan before cutting over to
/// a hashed index.
const LINEAR_GROUPS_MAX: usize = 16;

/// Group-key equality, component by component: `sort_cmp == Equal`, so
/// NULLs form one group and `1` and `1.0` share one.
fn same_key(stored: &[Value], key: &[Value]) -> bool {
    (stored.iter().zip(key)).all(|(s, k)| s.sort_cmp(k) == Ordering::Equal)
}

/// The group table of every aggregation, fused or general. Groups are
/// matched by *borrowed* key components (no per-row key `Vec` or `Value`
/// clones — the key is cloned exactly once, when its group is first seen);
/// equality is [`same_key`]'s; states come out in first-seen order, ready
/// for `project_groups`. The lookup is specialized for small group counts —
/// an aggregation over one table almost always has few (TPC-H Q1 has four),
/// where a couple of direct comparisons beat hashing the key on every row:
/// the table runs hash-free until the group count outgrows
/// [`LINEAR_GROUPS_MAX`], then builds an FNV index once and probes it from
/// there on.
pub(crate) struct Groups {
    keys: Vec<Vec<Value>>,
    states: Vec<GroupState>,
    /// FNV hash → group indices (collision list); `None` in the linear
    /// regime, built exactly once at cut-over.
    index: Option<HashMap<u64, Vec<u32>>>,
    /// The group the last probe found: tried first in the linear regime,
    /// where neighbouring rows mostly share a group.
    last: usize,
}

impl Groups {
    pub(crate) fn new() -> Self {
        Groups {
            keys: Vec::new(),
            states: Vec::new(),
            index: None,
            last: 0,
        }
    }

    fn stored_hash(key: &[Value]) -> u64 {
        let mut hasher = FnvHasher::new();
        for v in key {
            hash_value(v, &mut hasher);
        }
        hasher.finish()
    }

    /// Probe with a row's key programs: `Col` components are read from the
    /// row, expression components from `scratch`.
    pub(crate) fn find_or_insert(
        &mut self,
        progs: &[KeyProg],
        row: &[Value],
        scratch: &[Value],
        new_state: impl FnOnce() -> GroupState,
    ) -> &mut GroupState {
        let gi = self.index_by_progs(progs, row, scratch, new_state);
        &mut self.states[gi]
    }

    /// [`Self::find_or_insert`], answering with the group's index.
    pub(crate) fn index_by_progs(
        &mut self,
        progs: &[KeyProg],
        row: &[Value],
        scratch: &[Value],
        new_state: impl FnOnce() -> GroupState,
    ) -> usize {
        let component = |i| key_component(progs, i, row, scratch);
        self.index_of(
            || {
                let mut hasher = FnvHasher::new();
                for i in 0..progs.len() {
                    hash_value(component(i), &mut hasher);
                }
                hasher.finish()
            },
            |stored| {
                (stored.iter().enumerate())
                    .all(|(i, s)| s.sort_cmp(component(i)) == Ordering::Equal)
            },
            // Load-bearing clone: a new group's key is materialized once;
            // probes compare against row/scratch without cloning.
            || (0..progs.len()).map(|i| component(i).clone()).collect(),
            new_state,
        )
    }

    /// The group a probe key belongs to, if it has been seen: a linear
    /// `matches` scan until the cut-over, the FNV index after. `probe_hash`
    /// is only called in the indexed regime.
    fn position(
        &mut self,
        probe_hash: impl FnOnce() -> u64,
        matches: impl Fn(&[Value]) -> bool,
    ) -> Option<usize> {
        match &self.index {
            None => {
                if self
                    .keys
                    .get(self.last)
                    .is_some_and(|stored| matches(stored))
                {
                    return Some(self.last);
                }
                let found = self.keys.iter().position(|stored| matches(stored));
                self.last = found.unwrap_or(self.last);
                found
            }
            Some(index) => index.get(&probe_hash()).and_then(|bucket| {
                bucket
                    .iter()
                    .map(|&gi| gi as usize)
                    .find(|&gi| matches(&self.keys[gi]))
            }),
        }
    }

    /// Appends a first-seen group, indexing it — or, when the table has
    /// just outgrown [`LINEAR_GROUPS_MAX`], every group seen so far, once.
    fn push(&mut self, key: Vec<Value>, state: GroupState) -> &mut GroupState {
        let gi = self.states.len() as u32;
        if let Some(index) = &mut self.index {
            index.entry(Self::stored_hash(&key)).or_default().push(gi);
        }
        self.keys.push(key);
        self.states.push(state);
        if self.index.is_none() && self.keys.len() > LINEAR_GROUPS_MAX {
            let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
            for (i, key) in self.keys.iter().enumerate() {
                index
                    .entry(Self::stored_hash(key))
                    .or_default()
                    .push(i as u32);
            }
            self.index = Some(index);
        }
        self.states.last_mut().expect("just pushed")
    }

    /// Generalized probe: the caller supplies how to hash, match, and
    /// materialize the probe key, so the fused fold probes with stored
    /// cells without boxing them first. `probe_hash` is only called
    /// in the indexed regime (the linear regime never hashes) and
    /// `make_key` only when the group is first seen — the same cost
    /// profile as the row-based probe above, which delegates here.
    pub(crate) fn find_or_insert_with(
        &mut self,
        probe_hash: impl FnOnce() -> u64,
        matches: impl Fn(&[Value]) -> bool,
        make_key: impl FnOnce() -> Vec<Value>,
        new_state: impl FnOnce() -> GroupState,
    ) -> &mut GroupState {
        let gi = self.index_of(probe_hash, matches, make_key, new_state);
        &mut self.states[gi]
    }

    /// [`Self::find_or_insert_with`], answering with the group's index —
    /// what a batch's group ids are.
    pub(crate) fn index_of(
        &mut self,
        probe_hash: impl FnOnce() -> u64,
        matches: impl Fn(&[Value]) -> bool,
        make_key: impl FnOnce() -> Vec<Value>,
        new_state: impl FnOnce() -> GroupState,
    ) -> usize {
        match self.position(probe_hash, matches) {
            Some(gi) => gi,
            None => {
                self.push(make_key(), new_state());
                self.states.len() - 1
            }
        }
    }

    /// Folds the batch's values into accumulator `j`: value `k` into group
    /// `ids[k]`'s, `k` ascending. Each group's accumulator takes its values
    /// in the order the row loop hands them to it, so the result is the row
    /// loop's bit for bit; only the interleaving with the other
    /// accumulators differs, which no accumulator sees. The caller folds
    /// this way only values [`AggSpec::folds_without_error`] admits: an
    /// error here could overtake one an earlier row raises in another
    /// accumulator.
    pub(crate) fn fold_column(
        &mut self,
        j: usize,
        ids: &[u32],
        values: BatchValues<'_>,
    ) -> EngineResult<()> {
        let states = &mut self.states;
        macro_rules! acc {
            ($g:expr) => {
                states[$g as usize].accs[j]
            };
        }
        match values {
            BatchValues::None => {
                for &g in ids {
                    acc!(g).update(None)?;
                }
            }
            BatchValues::Floats(xs) => {
                for (&g, &x) in ids.iter().zip(xs) {
                    acc!(g).update_f64(x)?;
                }
            }
            BatchValues::FloatCol(v, slots) => {
                for (&g, &s) in ids.iter().zip(slots) {
                    acc!(g).update_f64(v[s as usize])?;
                }
            }
            BatchValues::Cells(col, slots) => {
                for (&g, &s) in ids.iter().zip(slots) {
                    acc!(g).update_cell(col, s as usize)?;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn state_mut(&mut self, gi: usize) -> &mut GroupState {
        &mut self.states[gi]
    }

    /// The accumulated group states, in first-seen order.
    pub(crate) fn into_states(self) -> Vec<GroupState> {
        self.states
    }

    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// Folds another group table — a partial aggregate over rows that come
    /// *after* this one's — into this one. The caller merges in partial
    /// order (the parallel coordinator in morsel order, the composer in
    /// node-index order), which preserves global first-seen group order: a
    /// group's first occurrence lives in the earliest partial containing it,
    /// so it is either already present (keeping its earlier key and
    /// representative row) or appended here exactly when one pass over the
    /// concatenated rows would have created it. Lookup follows the same
    /// regime as [`Self::find_or_insert`], and [`hash_value`] normalizes
    /// numerics, so hash and linear probes agree on which keys are equal.
    pub(crate) fn merge(&mut self, other: Groups) {
        for (key, state) in other.keys.into_iter().zip(other.states) {
            let found = self.position(|| Self::stored_hash(&key), |stored| same_key(stored, &key));
            match found {
                Some(gi) => {
                    for (acc, o) in self.states[gi].accs.iter_mut().zip(state.accs) {
                        acc.merge(o);
                    }
                }
                None => {
                    self.push(key, state);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Partial aggregates above the engine
// ---------------------------------------------------------------------------

/// A partial aggregate over result rows that are themselves partial
/// aggregates — what the cluster layer's composer keeps per node: the
/// engine's group table and accumulators behind three operations. Rows are
/// [`fold`](Self::fold)ed in as they arrive, tables
/// [`merge`](Self::merge) in the caller's order, and
/// [`into_rows`](Self::into_rows) yields one row per group, first seen
/// first — bit for bit the rows one table folding every input in that order
/// would yield, so the answer does not depend on where the input was cut.
pub struct PartialAgg {
    folds: Vec<FoldFn>,
    groups: Groups,
}

impl PartialAgg {
    /// An empty table re-aggregating value column `i` with `folds[i]`.
    pub fn new(folds: &[FoldFn]) -> Self {
        PartialAgg {
            folds: folds.to_vec(),
            groups: Groups::new(),
        }
    }

    /// Folds one row in: `keys` are its grouping columns, `args[i]` the
    /// value `folds[i]` re-aggregates. A non-numeric value under `Sum` is a
    /// [`EngineError::TypeError`].
    pub fn fold(&mut self, keys: &[Value], args: &[Value]) -> EngineResult<()> {
        assert_eq!(args.len(), self.folds.len(), "one value per fold");
        let folds = &self.folds;
        let group = self.groups.find_or_insert_with(
            || Groups::stored_hash(keys),
            |stored| same_key(stored, keys),
            || keys.to_vec(),
            || GroupState {
                rep_row: Row::new(),
                accs: folds.iter().map(|&f| Acc::folding(f)).collect(),
            },
        );
        for (acc, v) in group.accs.iter_mut().zip(args) {
            acc.update(Some(v.clone()))?;
        }
        Ok(())
    }

    /// Folds in a table whose rows come after this one's.
    pub fn merge(&mut self, other: PartialAgg) {
        assert_eq!(self.folds, other.folds, "partials of one plan");
        self.groups.merge(other.groups);
    }

    /// One row per group in first-seen order: the first-seen key, then each
    /// fold's value.
    pub fn into_rows(self) -> Vec<Row> {
        let Groups { keys, states, .. } = self.groups;
        (keys.into_iter().zip(states))
            .map(|(mut row, state)| {
                row.extend(state.accs.into_iter().map(Acc::finalize));
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One `Sum` over integers only (so `i64` wrap-around is what comes
    /// out), one over the mixed numerics, a `Min` over strings and a `Max`
    /// over numerics that tie across `Int` and `Float`.
    const FOLDS: [FoldFn; 4] = [FoldFn::Sum, FoldFn::Sum, FoldFn::Min, FoldFn::Max];

    /// Twenty-four integer keys take a table past the 16-group cut-over;
    /// `k` and `k.0` must land in one group, NULL in its own.
    fn key() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0..24i64).prop_map(Value::Int),
            (0..24i64).prop_map(|k| Value::Float(k as f64)),
            "[ab]".prop_map(Value::Str),
        ]
    }

    /// Partials merge the same bits whatever the cut only while the float
    /// adds are exact: quarters of small magnitude. NaN is absorbing, so it
    /// is order-free too.
    fn numeric() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            Just(Value::Float(f64::NAN)),
            (-40..40i64).prop_map(Value::Int),
            (-160..160i64).prop_map(|q| Value::Float(q as f64 / 4.0)),
        ]
    }

    type KeyedRow = ((Value, Value), (Value, Value, Value, Value));

    fn row() -> impl Strategy<Value = KeyedRow> {
        let wrapping = prop_oneof![
            Just(Value::Null),
            Just(Value::Int(i64::MAX)),
            Just(Value::Int(i64::MIN)),
            (-3..3i64).prop_map(Value::Int),
        ];
        // min/max follow one comparability class per column and no NaN:
        // against a value `sql_cmp` cannot order, "first seen stays" makes
        // the answer depend on where the input is cut — in the morsel tier
        // and the composer alike, before and after this module.
        let text = prop_oneof![Just(Value::Null), "[a-c]{1,2}".prop_map(Value::Str)];
        let ties = prop_oneof![
            Just(Value::Null),
            (0..3i64).prop_map(Value::Int),
            (0..3i64).prop_map(|k| Value::Float(k as f64)),
        ];
        ((key(), key()), (wrapping, numeric(), text, ties))
    }

    fn fold_all(rows: &[KeyedRow]) -> PartialAgg {
        let mut table = PartialAgg::new(&FOLDS);
        for ((k0, k1), (a, b, c, d)) in rows.iter().cloned() {
            table.fold(&[k0, k1], &[a, b, c, d]).unwrap();
        }
        table
    }

    /// Rows with floats spelled by their bits, so NaN equals itself and
    /// `0.0` differs from `-0.0`.
    fn exact(rows: Vec<Row>) -> Vec<Vec<String>> {
        let cell = |v: Value| match v {
            Value::Float(x) => format!("float {:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        (rows.into_iter())
            .map(|row| row.into_iter().map(cell).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Folding each piece and merging the pieces in order is folding
        /// the concatenation: same rows, same first-seen group order (and
        /// first-seen key spelling), same float bits.
        #[test]
        fn fold_then_merge_in_order_equals_folding_the_concatenation(
            rows in proptest::collection::vec(row(), 0..120),
            cuts in proptest::collection::vec(0..121usize, 0..5),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
            cuts.push(rows.len());
            cuts.sort_unstable();
            let mut merged = PartialAgg::new(&FOLDS);
            let mut start = 0;
            for end in cuts {
                merged.merge(fold_all(&rows[start..end]));
                start = end;
            }
            prop_assert_eq!(exact(merged.into_rows()), exact(fold_all(&rows).into_rows()));
        }
    }

    /// `update_cell` and `update_f64` are `update` without the box: for
    /// every accumulator over every column representation, the same value
    /// or the same error.
    #[test]
    fn cell_and_float_updates_equal_the_boxed_update() {
        let (int, float, text) = (Value::Int, Value::Float, |s: &str| Value::Str(s.into()));
        let date = |d| Value::Date(apuama_sql::value::Date(d));
        let columns = [
            vec![int(3), Value::Null, int(i64::MAX), int(3), int(-7)],
            vec![
                float(0.5),
                float(f64::NAN),
                Value::Null,
                float(0.5),
                float(-2.0),
            ],
            vec![text("b"), text("a"), Value::Null, text("b")],
            vec![date(9), date(2), Value::Null, date(9)],
            vec![int(1), float(1.0), Value::Null, float(2.5), int(1)],
            vec![int(1), text("x")],
        ];
        let spec = |name: &str, distinct, star| AggSpec {
            key: String::new(),
            name: name.into(),
            arg: None,
            distinct,
            star,
        };
        let mut specs = vec![spec("count", false, true)];
        for name in ["count", "sum", "avg", "min", "max"] {
            specs.extend([spec(name, false, false), spec(name, true, false)]);
        }
        let outcome = |r: EngineResult<Acc>| match r.map(Acc::finalize) {
            Ok(Value::Float(x)) => format!("float {:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        for values in &columns {
            let mut column = Column::new();
            values.iter().for_each(|v| column.push(v));
            for spec in &specs {
                let run = |step: &dyn Fn(&mut Acc, usize) -> EngineResult<()>| {
                    let mut acc = Acc::new(spec);
                    (0..values.len())
                        .try_for_each(|i| step(&mut acc, i))
                        .map(|()| acc)
                };
                let boxed = outcome(run(&|acc, i| acc.update(Some(values[i].clone()))));
                let cell = outcome(run(&|acc, i| acc.update_cell(&column, i)));
                assert_eq!(cell, boxed, "{spec:?} over {values:?}");
                if let ColumnVec::Float(xs) = column.data() {
                    let floats = outcome(run(&|acc, i| match column.validity().is_valid(i) {
                        true => acc.update_f64(xs[i]),
                        false => acc.update(Some(Value::Null)),
                    }));
                    assert_eq!(floats, boxed, "{spec:?} over {values:?}");
                }
            }
        }
    }

    #[test]
    fn first_seen_wins_keys_ties_and_order() {
        let int = Value::Int;
        let mut early = PartialAgg::new(&[FoldFn::Min, FoldFn::Max]);
        early.fold(&[int(1)], &[int(2), int(2)]).unwrap();
        let mut late = PartialAgg::new(&[FoldFn::Min, FoldFn::Max]);
        late.fold(&[Value::Null], &[Value::Null, Value::Null])
            .unwrap();
        late.fold(
            &[Value::Float(1.0)],
            &[Value::Float(2.0), Value::Float(2.0)],
        )
        .unwrap();
        early.merge(late);
        assert_eq!(
            early.into_rows(),
            vec![
                vec![int(1), int(2), int(2)],
                vec![Value::Null, Value::Null, Value::Null],
            ]
        );
    }

    #[test]
    fn a_non_numeric_sum_is_a_type_error() {
        let mut table = PartialAgg::new(&[FoldFn::Sum]);
        let err = table.fold(&[], &[Value::Str("x".into())]).unwrap_err();
        assert!(matches!(err, EngineError::TypeError(_)), "{err:?}");
    }
}
