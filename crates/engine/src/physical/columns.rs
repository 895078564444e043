//! Execution over stored column segments: selection vectors, the
//! vectorized predicate prefix, vectorized aggregate arguments, and the
//! two places a row is built — the scratch row the row-major evaluators
//! read, and the survivors a scan hands on.
//!
//! The heap stores tuples as typed columns (`apuama_storage::Segment`), so
//! a scan never has a row to borrow. It receives `(segment, selection
//! vector)` pairs from its access path ([`crate::physical::ScanCursor`]),
//! runs its pushed-down predicates over them through
//! [`ScanPreds::filter`], and materializes the survivors — and only the
//! survivors, and of them only the columns the statement reads.
//!
//! # What runs vectorized, and where it stops
//!
//! The *leading* predicates of a scan's list whose outcome class is uniform
//! over a typed column run predicate-major over the typed slices
//! ([`VecPred`]): `col <cmp> const`, `col <cmp> col`, `col [NOT] BETWEEN
//! const AND const`, `col [NOT] IN (consts)`, where a const is any
//! column-free operand that evaluates, folded once per execution. The first
//! predicate that has no such form — or that meets, in this segment, a
//! boxed ([`ColumnVec::Val`]) or NaN-bearing column — ends the prefix: it
//! and everything after it run row-major, in plan order, through
//! [`keep_row_charged`] on a reused full-width scratch row filled with only
//! the cells those predicates read. The choice is made by predicate shape
//! and column representation alone; there is no setting.
//!
//! # Byte-identity argument
//!
//! The result must be observationally identical to evaluating every
//! predicate row by row — same survivors, same error (message *and* which
//! error surfaces first), same `ExecStats` counters:
//!
//! * **Charges.** The row loop charges `cpu_tuple_ops` before each
//!   predicate evaluation and short-circuits on the first non-true, so
//!   predicate *k* is charged exactly once per row surviving predicates
//!   `0..k`. The prefix evaluates predicate-major over the current
//!   selection vector — which contains exactly those survivors — and
//!   charges `sel.len()` per predicate, so the totals coincide. Charges
//!   accumulate in a local counter the caller flushes per batch; an
//!   erroring batch fails the statement, and its statistics with it.
//! * **Errors.** A comparison raises a type error only for *non-NULL*,
//!   incomparable operands. Within one typed column every non-NULL value
//!   has the same comparability class against a fixed constant or another
//!   typed column, so a prefix predicate errors for none of its input rows
//!   or for all the non-NULL ones — and then the first selected non-NULL
//!   row errors, which is the row the row loop errors on (rows before it
//!   are NULL there and fail the predicate without error in both orders).
//!   `BETWEEN` and `IN` never raise: an incomparable or NULL operand makes
//!   the comparison unknown. The two representations where comparability
//!   is *not* uniform — boxed columns and `Float` columns holding a NaN —
//!   end the prefix, so the row loop decides. Because a prefix predicate's
//!   outcome class does not depend on the row, running it over the whole
//!   selection before a later row-major predicate sees any row cannot move
//!   an error ahead of one the row loop would have raised first: the later
//!   predicate only ever sees the rows that survive the earlier ones.
//! * **Arithmetic.** A vectorized aggregate argument ([`F64Prog`]) is
//!   `+ − ×` over `Float` columns and numeric constants: infallible, the
//!   same IEEE operations in the same order as the scalar evaluator, one
//!   node at a time over the survivors. Each accumulator still takes its
//!   values in survivor order, whether the fold runs row- or column-major
//!   (`FusedFold::fold`), so sums are bit-identical.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use apuama_sql::ast::BinOp;
use apuama_sql::value::{cmp_int_float, hash_value};
use apuama_sql::Value;
use apuama_storage::{Column, ColumnVec, Row, Segment, StrArena, StrVec, Validity, DICT_CAP};

use crate::error::{EngineError, EngineResult};
use crate::eval::{and3, cmp_matches, not3, CompiledExpr, Frame};
use crate::exec::ExecContext;
use crate::subquery::{probe_memos, ProbeMemo};

use crate::physical::*;

/// Selection vector: the slots of one segment a scan still holds, in access
/// path order.
pub(crate) type Sel = Vec<u32>;

// ---------------------------------------------------------------------------
// Typed cells
// ---------------------------------------------------------------------------

/// Three-way comparison of floats neither of which is NaN.
#[inline]
fn fcmp(a: f64, b: f64) -> Ordering {
    if a < b {
        Ordering::Less
    } else if a > b {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

/// An integer against a float that is not NaN, exactly, as
/// [`Value::sql_cmp`] compares them.
#[inline]
fn int_fcmp(a: i64, b: f64) -> Ordering {
    cmp_int_float(a, b).expect("not NaN")
}

/// The cells of one typed, NaN-free column against constants prepared for
/// its type: [`Value::sql_cmp`] with the type dispatch done once per
/// (segment, predicate) instead of once per row.
trait TypedCells<'v> {
    type Lit;

    /// The non-NULL constant in comparable form; `None` when `sql_cmp` is
    /// `None` for every cell of this column (another type class, or NaN).
    fn lit(&self, v: &'v Value) -> Option<Self::Lit>;

    fn cmp(&self, i: usize, lit: &Self::Lit) -> Ordering;

    #[inline]
    fn eq(&self, i: usize, lit: &Self::Lit) -> bool {
        self.cmp(i, lit) == Ordering::Equal
    }

    /// Keeps the selected slots that are non-NULL and satisfy `keep`, a
    /// test of the cell's value alone.
    fn retain(&self, sel: &mut Sel, validity: &Validity, keep: impl FnMut(usize) -> bool) {
        retain_valid(sel, validity, keep)
    }
}

struct IntCells<'a>(&'a [i64]);
struct FloatCells<'a>(&'a [f64]);
struct DateCells<'a>(&'a [i32]);
struct StrCells<'a>(&'a StrArena);
/// A dictionary-coded string column: equal codes are equal strings.
struct CodedCells<'a> {
    dict: StrCells<'a>,
    codes: &'a [u8],
}

/// A numeric constant: integers and floats compare exactly with either
/// column type.
enum NumLit {
    Int(i64),
    Float(f64),
}

impl<'v> TypedCells<'v> for IntCells<'_> {
    type Lit = NumLit;

    fn lit(&self, v: &'v Value) -> Option<NumLit> {
        match v {
            Value::Int(b) => Some(NumLit::Int(*b)),
            Value::Float(b) if !b.is_nan() => Some(NumLit::Float(*b)),
            _ => None,
        }
    }

    #[inline]
    fn cmp(&self, i: usize, lit: &NumLit) -> Ordering {
        match lit {
            NumLit::Int(b) => self.0[i].cmp(b),
            NumLit::Float(b) => int_fcmp(self.0[i], *b),
        }
    }
}

impl<'v> TypedCells<'v> for FloatCells<'_> {
    type Lit = NumLit;

    fn lit(&self, v: &'v Value) -> Option<NumLit> {
        match v {
            Value::Int(b) => Some(NumLit::Int(*b)),
            Value::Float(b) if !b.is_nan() => Some(NumLit::Float(*b)),
            _ => None,
        }
    }

    #[inline]
    fn cmp(&self, i: usize, lit: &NumLit) -> Ordering {
        match lit {
            NumLit::Int(b) => int_fcmp(*b, self.0[i]).reverse(),
            NumLit::Float(b) => fcmp(self.0[i], *b),
        }
    }
}

impl<'v> TypedCells<'v> for DateCells<'_> {
    type Lit = i32;

    fn lit(&self, v: &'v Value) -> Option<i32> {
        v.as_date().map(|d| d.0)
    }

    #[inline]
    fn cmp(&self, i: usize, lit: &i32) -> Ordering {
        self.0[i].cmp(lit)
    }
}

impl<'v> TypedCells<'v> for StrCells<'_> {
    type Lit = &'v str;

    fn lit(&self, v: &'v Value) -> Option<&'v str> {
        v.as_str()
    }

    #[inline]
    fn cmp(&self, i: usize, lit: &&'v str) -> Ordering {
        self.0.bytes_at(i).cmp(lit.as_bytes())
    }

    #[inline]
    fn eq(&self, i: usize, lit: &&'v str) -> bool {
        self.0.bytes_at(i) == lit.as_bytes()
    }
}

impl<'v> TypedCells<'v> for CodedCells<'_> {
    type Lit = &'v str;

    fn lit(&self, v: &'v Value) -> Option<&'v str> {
        self.dict.lit(v)
    }

    #[inline]
    fn cmp(&self, i: usize, lit: &&'v str) -> Ordering {
        self.dict.cmp(self.codes[i] as usize, lit)
    }

    #[inline]
    fn eq(&self, i: usize, lit: &&'v str) -> bool {
        self.dict.eq(self.codes[i] as usize, lit)
    }

    /// `keep` runs once per code the selection holds; every other slot
    /// with that code takes its answer.
    fn retain(&self, sel: &mut Sel, validity: &Validity, mut keep: impl FnMut(usize) -> bool) {
        // Per code: 0 not yet decided, 1 dropped, 2 kept.
        let mut decided = [0u8; DICT_CAP];
        retain_valid(sel, validity, |i| {
            let code = self.codes[i] as usize;
            if decided[code] == 0 {
                decided[code] = 1 + keep(i) as u8;
            }
            decided[code] == 2
        })
    }
}

/// Runs `$body` with `$cells` bound to the typed view of `$col`.
macro_rules! with_cells {
    ($col:expr, |$cells:ident| $body:expr) => {
        match $col.data() {
            ColumnVec::Int(v) => {
                let $cells = IntCells(v);
                $body
            }
            ColumnVec::Float(v) => {
                let $cells = FloatCells(v);
                $body
            }
            ColumnVec::Date(v) => {
                let $cells = DateCells(v);
                $body
            }
            ColumnVec::Str(StrVec::Plain(arena)) => {
                let $cells = StrCells(arena);
                $body
            }
            ColumnVec::Str(StrVec::Coded(coded)) => {
                let $cells = CodedCells {
                    dict: StrCells(coded.dict()),
                    codes: coded.codes(),
                };
                $body
            }
            ColumnVec::Val(_) => unreachable!("a boxed column ends the vectorized prefix"),
        }
    };
}

/// Keeps the selected slots that are non-NULL and satisfy `keep`.
#[inline]
fn retain_valid(sel: &mut Sel, validity: &Validity, mut keep: impl FnMut(usize) -> bool) {
    if validity.any_null() {
        sel.retain(|&i| validity.is_valid(i as usize) && keep(i as usize));
    } else {
        sel.retain(|&i| keep(i as usize));
    }
}

/// The first selected slot `valid` holds for, if any.
fn first_valid(sel: &Sel, valid: impl Fn(usize) -> bool) -> Option<usize> {
    sel.iter().map(|&i| i as usize).find(|&i| valid(i))
}

fn cannot_compare(l: Value, r: &dyn std::fmt::Display) -> EngineError {
    EngineError::TypeError(format!("cannot compare {l} with {r}"))
}

// ---------------------------------------------------------------------------
// The vectorized predicate prefix
// ---------------------------------------------------------------------------

/// A predicate in the form the vectorized prefix runs: its operands are
/// stored columns and constants, nothing to evaluate per row.
pub(crate) enum VecPred {
    Cmp {
        col: usize,
        op: BinOp,
        lit: Value,
    },
    ColCmp {
        left: usize,
        op: BinOp,
        right: usize,
    },
    Between {
        col: usize,
        negated: bool,
        low: Value,
        high: Value,
    },
    InList {
        col: usize,
        negated: bool,
        list: Vec<Value>,
    },
}

impl VecPred {
    /// The vector form of a resolved predicate, when its shape has one.
    /// Column-free operands are folded here, once per execution; one that
    /// fails to evaluate keeps the predicate row-major, where the error
    /// surfaces on the first row that reaches it.
    fn of(pred: &ResidualPred, ctx: &ExecContext<'_>) -> Option<VecPred> {
        let c = match pred {
            ResidualPred::FastCmp { col, op, lit } => {
                return Some(VecPred::Cmp {
                    col: *col,
                    op: *op,
                    lit: lit.clone(),
                })
            }
            ResidualPred::Compiled(c) => c,
            ResidualPred::Exists { .. } => return None,
        };
        match c {
            CompiledExpr::Binary { left, op, right } if op.is_comparison() => {
                match (left.as_ref(), right.as_ref()) {
                    (CompiledExpr::Col(l), CompiledExpr::Col(r)) => Some(VecPred::ColCmp {
                        left: *l,
                        op: *op,
                        right: *r,
                    }),
                    (CompiledExpr::Col(col), k) => Some(VecPred::Cmp {
                        col: *col,
                        op: *op,
                        lit: k.constant(ctx)?,
                    }),
                    (k, CompiledExpr::Col(col)) => Some(VecPred::Cmp {
                        col: *col,
                        op: flip_cmp(*op),
                        lit: k.constant(ctx)?,
                    }),
                    _ => None,
                }
            }
            CompiledExpr::Between {
                expr,
                negated,
                low,
                high,
            } => match expr.as_ref() {
                CompiledExpr::Col(col) => Some(VecPred::Between {
                    col: *col,
                    negated: *negated,
                    low: low.constant(ctx)?,
                    high: high.constant(ctx)?,
                }),
                _ => None,
            },
            CompiledExpr::InList {
                expr,
                negated,
                list,
            } => match expr.as_ref() {
                CompiledExpr::Col(col) => Some(VecPred::InList {
                    col: *col,
                    negated: *negated,
                    list: list
                        .iter()
                        .map(|x| x.constant(ctx))
                        .collect::<Option<_>>()?,
                }),
                _ => None,
            },
            _ => None,
        }
    }

    /// Whether the columns this predicate reads are, in `seg`, typed and
    /// NaN-free — the representations its outcome class is uniform over.
    fn applies(&self, seg: &Segment) -> bool {
        let uniform = |col: usize| {
            let c = seg.column(col);
            match c.data() {
                ColumnVec::Val(_) => false,
                ColumnVec::Float(_) => !c.has_nan(),
                _ => true,
            }
        };
        match self {
            VecPred::ColCmp { left, right, .. } => uniform(*left) && uniform(*right),
            VecPred::Cmp { col, .. }
            | VecPred::Between { col, .. }
            | VecPred::InList { col, .. } => uniform(*col),
        }
    }

    /// Keeps the slots of `sel` whose tuple satisfies the predicate.
    /// Semantics are the row-major arms of [`keep_row_charged`], cell for
    /// cell; see the module header for why the error is the same too.
    fn filter(&self, seg: &Segment, sel: &mut Sel) -> EngineResult<()> {
        match self {
            VecPred::Cmp { col, op, lit } => {
                let column = seg.column(*col);
                with_cells!(column, |cells| filter_cmp(&cells, column, *op, lit, sel))
            }
            VecPred::ColCmp { left, op, right } => {
                filter_col_cmp(seg.column(*left), *op, seg.column(*right), sel)
            }
            VecPred::Between {
                col,
                negated,
                low,
                high,
            } => {
                let column = seg.column(*col);
                with_cells!(column, |cells| filter_between(
                    &cells,
                    column.validity(),
                    *negated,
                    low,
                    high,
                    sel
                ));
                Ok(())
            }
            VecPred::InList { col, negated, list } => {
                let column = seg.column(*col);
                with_cells!(column, |cells| filter_in(
                    &cells,
                    column.validity(),
                    *negated,
                    list,
                    sel
                ));
                Ok(())
            }
        }
    }
}

/// `col <op> lit`: a NULL cell or NULL constant fails the row without
/// error; a constant outside the column's comparability class raises
/// `cannot compare` at the first selected non-NULL cell.
fn filter_cmp<'v, C: TypedCells<'v>>(
    cells: &C,
    column: &Column,
    op: BinOp,
    lit: &'v Value,
    sel: &mut Sel,
) -> EngineResult<()> {
    let validity = column.validity();
    if lit.is_null() {
        sel.clear();
        return Ok(());
    }
    match cells.lit(lit) {
        Some(l) => cells.retain(sel, validity, |i| cmp_matches(op, cells.cmp(i, &l))),
        None => {
            if let Some(i) = first_valid(sel, |i| validity.is_valid(i)) {
                return Err(cannot_compare(column.value_at(i), lit));
            }
            sel.clear();
        }
    }
    Ok(())
}

/// `a <op> b` between two typed columns of one segment.
fn filter_col_cmp(a: &Column, op: BinOp, b: &Column, sel: &mut Sel) -> EngineResult<()> {
    let (va, vb) = (a.validity(), b.validity());
    let both_valid = |i: usize| va.is_valid(i) && vb.is_valid(i);
    macro_rules! retain {
        (|$i:ident| $ord:expr) => {
            if va.any_null() || vb.any_null() {
                sel.retain(|&s| {
                    let $i = s as usize;
                    both_valid($i) && cmp_matches(op, $ord)
                })
            } else {
                sel.retain(|&s| {
                    let $i = s as usize;
                    cmp_matches(op, $ord)
                })
            }
        };
    }
    match (a.data(), b.data()) {
        (ColumnVec::Int(x), ColumnVec::Int(y)) => retain!(|i| x[i].cmp(&y[i])),
        (ColumnVec::Int(x), ColumnVec::Float(y)) => retain!(|i| int_fcmp(x[i], y[i])),
        (ColumnVec::Float(x), ColumnVec::Int(y)) => retain!(|i| int_fcmp(y[i], x[i]).reverse()),
        (ColumnVec::Float(x), ColumnVec::Float(y)) => retain!(|i| fcmp(x[i], y[i])),
        (ColumnVec::Date(x), ColumnVec::Date(y)) => retain!(|i| x[i].cmp(&y[i])),
        (ColumnVec::Str(x), ColumnVec::Str(y)) => retain!(|i| x.bytes_at(i).cmp(y.bytes_at(i))),
        // Two typed columns of different classes: every pair of non-NULL
        // cells is incomparable.
        _ => {
            if let Some(i) = first_valid(sel, both_valid) {
                return Err(cannot_compare(a.value_at(i), &b.value_at(i)));
            }
            sel.clear();
        }
    }
    Ok(())
}

/// `col [NOT] BETWEEN low AND high` in three-valued logic: a bound that is
/// NULL or incomparable makes its half unknown for every row, never an
/// error.
fn filter_between<'v, C: TypedCells<'v>>(
    cells: &C,
    validity: &Validity,
    negated: bool,
    low: &'v Value,
    high: &'v Value,
    sel: &mut Sel,
) {
    let (low, high) = (cells.lit(low), cells.lit(high));
    cells.retain(sel, validity, |i| {
        let ge = low.as_ref().map(|l| cells.cmp(i, l) != Ordering::Less);
        let le = high.as_ref().map(|h| cells.cmp(i, h) != Ordering::Greater);
        let within = and3(ge, le);
        (if negated { not3(within) } else { within }) == Some(true)
    });
}

/// `col [NOT] IN (list)`: a member equal to the cell decides the row; with
/// none, a NULL or incomparable member leaves it unknown.
fn filter_in<'v, C: TypedCells<'v>>(
    cells: &C,
    validity: &Validity,
    negated: bool,
    list: &'v [Value],
    sel: &mut Sel,
) {
    let lits: Vec<C::Lit> = list.iter().filter_map(|w| cells.lit(w)).collect();
    let unknown = lits.len() < list.len();
    cells.retain(sel, validity, |i| {
        if lits.iter().any(|l| cells.eq(i, l)) {
            !negated
        } else {
            negated && !unknown
        }
    });
}

// ---------------------------------------------------------------------------
// A scan's predicate list
// ---------------------------------------------------------------------------

/// What the row-major evaluators mutate from one tuple to the next: the
/// scratch row and the `EXISTS` probes' memos. One per evaluating operator,
/// per execution.
pub(crate) struct RowScratch {
    row: Vec<Value>,
    memos: Vec<ProbeMemo>,
}

impl RowScratch {
    pub(crate) fn new(n_preds: usize) -> RowScratch {
        RowScratch {
            row: Vec::new(),
            memos: probe_memos(n_preds),
        }
    }

    /// Refills the `cols` cells of the scratch row from the tuple at
    /// `slot`; the other cells keep whatever an earlier tuple left, which
    /// no caller reads. The row is sized on first use: a scan whose
    /// predicates are all vectorized never builds one.
    pub(crate) fn fill(&mut self, seg: &Segment, slot: usize, cols: &[usize]) -> &Row {
        if self.row.is_empty() && !cols.is_empty() {
            self.row.resize(seg.width(), Value::Null);
        }
        for &c in cols {
            seg.column(c).read_into(slot, &mut self.row[c]);
        }
        &self.row
    }
}

pub(crate) fn sorted_dedup(mut cols: Vec<usize>) -> Vec<usize> {
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// A scan's residual predicates in the two forms they run in: the resolved
/// list in plan order (the row-major form) and the vector forms of its
/// leading members (the prefix).
pub(crate) struct ScanPreds {
    preds: Vec<ResidualPred>,
    prefix: Vec<VecPred>,
    /// `row_cols[j]`: the scratch-row cells `preds[j..]` read, for every
    /// `j` row-major evaluation can start at (`0..=prefix.len()`).
    row_cols: Vec<Vec<usize>>,
    /// `col <op> const` bounds a zone map can refute a page with: the `Cmp`
    /// vector forms of the list and each `BETWEEN`'s two bounds, so what
    /// prunes is what the prefix folds.
    zone: Vec<(usize, BinOp, Value)>,
}

impl ScanPreds {
    /// `width` is the table's column count ([`ResidualPred::collect_cols`]).
    pub(crate) fn new(preds: Vec<ResidualPred>, width: usize, ctx: &ExecContext<'_>) -> ScanPreds {
        let mut forms: Vec<Option<VecPred>> = preds.iter().map(|p| VecPred::of(p, ctx)).collect();
        let zone = (forms.iter().flatten())
            .flat_map(|form| match form {
                VecPred::Cmp { col, op, lit } => vec![(*col, *op, lit.clone())],
                VecPred::Between {
                    col,
                    negated: false,
                    low,
                    high,
                } => vec![
                    (*col, BinOp::GtEq, low.clone()),
                    (*col, BinOp::LtEq, high.clone()),
                ],
                _ => Vec::new(),
            })
            .collect();
        let prefix: Vec<VecPred> = forms.iter_mut().map_while(Option::take).collect();
        let row_cols = (0..=prefix.len())
            .map(|j| {
                let mut cols = Vec::new();
                preds[j..]
                    .iter()
                    .for_each(|p| p.collect_cols(width, &mut cols));
                sorted_dedup(cols)
            })
            .collect();
        ScanPreds {
            preds,
            prefix,
            row_cols,
            zone,
        }
    }

    pub(crate) fn preds(&self) -> &[ResidualPred] {
        &self.preds
    }

    /// The bounds [`zone_allowed_pages`] prunes with.
    pub(crate) fn zone_bounds(&self) -> &[(usize, BinOp, Value)] {
        &self.zone
    }

    /// A predicate that evaluates a subquery touches the buffer pool, and
    /// the pool's LRU makes the order of touches observable: the scan must
    /// then charge each heap page before the probes of that page's rows,
    /// as a row-at-a-time scan does, so it advances page by page.
    pub(crate) fn touches_pool(&self) -> bool {
        self.preds.iter().any(|p| match p {
            ResidualPred::FastCmp { .. } => false,
            ResidualPred::Compiled(c) => c.has_subquery(),
            ResidualPred::Exists { .. } => true,
        })
    }

    /// A scratch for this list.
    pub(crate) fn scratch(&self) -> RowScratch {
        RowScratch::new(self.preds.len())
    }

    /// Runs the vectorized prefix over the `slots` of `seg` as far as its
    /// columns allow, leaving the survivors in `sel`. Returns how many
    /// predicates of the list that covered and the `cpu_tuple_ops` they
    /// cost; the rest of the list is [`Self::keep_rest`]'s, tuple by tuple.
    pub(crate) fn filter_prefix(
        &self,
        seg: &Segment,
        slots: &[u32],
        sel: &mut Sel,
    ) -> EngineResult<(usize, u64)> {
        sel.clear();
        sel.extend_from_slice(slots);
        let mut cpu = 0u64;
        let mut done = 0;
        for pred in &self.prefix {
            if sel.is_empty() || !pred.applies(seg) {
                break;
            }
            // One charge per row this predicate evaluates — the rows
            // surviving every earlier predicate, as the short-circuit has it.
            cpu += sel.len() as u64;
            pred.filter(seg, sel)?;
            done += 1;
        }
        Ok((done, cpu))
    }

    /// Whether `filter_prefix` covering `done` predicates left any to the
    /// row.
    pub(crate) fn has_rest(&self, done: usize) -> bool {
        done < self.preds.len()
    }

    /// The predicates after the first `done`, row-major in plan order, on
    /// the tuple at `slot`: the scratch row gets the cells they read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn keep_rest(
        &self,
        done: usize,
        seg: &Segment,
        slot: usize,
        scratch: &mut RowScratch,
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
        charge: impl FnMut(),
    ) -> EngineResult<bool> {
        scratch.fill(seg, slot, &self.row_cols[done]);
        keep_row_charged(
            &scratch.row,
            &self.preds[done..],
            &mut scratch.memos[done..],
            outer,
            ctx,
            charge,
        )
    }

    /// The `slots` of `seg` whose tuple satisfies every predicate — left in
    /// `sel`, or `slots` themselves when there is no predicate, so a bare
    /// scan copies nothing — and the `cpu_tuple_ops` finding them cost.
    pub(crate) fn filter<'s>(
        &self,
        seg: &Segment,
        slots: &'s [u32],
        sel: &'s mut Sel,
        scratch: &mut RowScratch,
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<(&'s [u32], u64)> {
        if self.preds.is_empty() {
            return Ok((slots, 0));
        }
        let (done, mut cpu) = self.filter_prefix(seg, slots, sel)?;
        if self.has_rest(done) {
            let mut kept = 0;
            for k in 0..sel.len() {
                let slot = sel[k] as usize;
                if self.keep_rest(done, seg, slot, scratch, outer, ctx, || cpu += 1)? {
                    sel[kept] = sel[k];
                    kept += 1;
                }
            }
            sel.truncate(kept);
        }
        Ok((sel, cpu))
    }
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

#[cfg(test)]
thread_local! {
    /// Rows [`materialize`] built on this thread.
    pub(crate) static ROWS_MATERIALIZED: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// Appends the selected tuples of `seg` to `out` as rows, `cols` of them
/// when the scan narrows (the statement names what it reads), every column
/// otherwise (`SELECT *`); each row is allocated for `width` cells (the
/// join block appends the joined inputs' to them). Built column-major: the
/// representation is matched once per column, not per cell.
pub(crate) fn materialize(
    seg: &Segment,
    sel: &[u32],
    cols: Option<&[usize]>,
    width: usize,
    out: &mut Vec<Row>,
) {
    #[cfg(test)]
    ROWS_MATERIALIZED.set(ROWS_MATERIALIZED.get() + sel.len());
    let start = out.len();
    out.extend(sel.iter().map(|_| Vec::with_capacity(width)));
    let rows = &mut out[start..];
    let mut gather = |c: usize| {
        let column = seg.column(c);
        let valid = column.validity();
        macro_rules! push_cells {
            (|$i:ident| $value:expr) => {
                for (row, &s) in rows.iter_mut().zip(sel) {
                    let $i = s as usize;
                    row.push(if valid.is_valid($i) {
                        $value
                    } else {
                        Value::Null
                    });
                }
            };
        }
        match column.data() {
            ColumnVec::Int(v) => push_cells!(|i| Value::Int(v[i])),
            ColumnVec::Float(v) => push_cells!(|i| Value::Float(v[i])),
            ColumnVec::Date(v) => push_cells!(|i| Value::Date(apuama_sql::value::Date(v[i]))),
            ColumnVec::Str(strs) => push_cells!(|i| Value::Str(strs.str_at(i).to_string())),
            ColumnVec::Val(v) => push_cells!(|i| v[i].clone()),
        }
    };
    match cols {
        Some(cols) => cols.iter().for_each(|&c| gather(c)),
        None => (0..seg.width()).for_each(gather),
    }
}

// ---------------------------------------------------------------------------
// Vectorized aggregate arguments
// ---------------------------------------------------------------------------

/// An aggregate argument as `+ − ×` over `Float` columns and numeric
/// constants: infallible, and `Float`-valued for every row (the program's
/// root combines at least one `Float` column, and arithmetic with a float
/// operand widens to `f64`). Evaluated once per batch, one node at a time
/// over the survivors — the IEEE operations of [`eval::eval_compiled`] in
/// its order, without a `Value` in sight.
pub(crate) enum F64Prog {
    Col(usize),
    Const(f64),
    Bin(Box<F64Prog>, BinOp, Box<F64Prog>),
}

impl F64Prog {
    /// The vector form of an aggregate argument, when it has one. Whether
    /// it applies to a given segment is [`Self::applies`]'s question.
    pub(crate) fn of(arg: &CompiledExpr, ctx: &ExecContext<'_>) -> Option<F64Prog> {
        match Self::node(arg, ctx)? {
            prog @ F64Prog::Bin(..) => Some(prog),
            // A bare column is `FusedArg::Col`'s; a constant keeps its
            // `Int`-or-`Float` type only as a `Value`.
            _ => None,
        }
    }

    fn node(e: &CompiledExpr, ctx: &ExecContext<'_>) -> Option<F64Prog> {
        match e {
            CompiledExpr::Col(i) => Some(F64Prog::Col(*i)),
            CompiledExpr::Binary { left, op, right }
                if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
            {
                // A column-free subtree is folded with the evaluator's own
                // arithmetic (integer operands stay exact until they meet a
                // float), then widened as `arith` widens it.
                if let Some(k) = e.constant(ctx) {
                    return k.as_f64().map(F64Prog::Const);
                }
                Some(F64Prog::Bin(
                    Box::new(Self::node(left, ctx)?),
                    *op,
                    Box::new(Self::node(right, ctx)?),
                ))
            }
            other => other.constant(ctx)?.as_f64().map(F64Prog::Const),
        }
    }

    /// Every column the program reads is, in `seg`, a `Float` column
    /// without NULLs — then every row's value is a non-NULL `Float`.
    pub(crate) fn applies(&self, seg: &Segment) -> bool {
        match self {
            F64Prog::Col(c) => {
                let column = seg.column(*c);
                matches!(column.data(), ColumnVec::Float(_)) && !column.validity().any_null()
            }
            F64Prog::Const(_) => true,
            F64Prog::Bin(l, _, r) => l.applies(seg) && r.applies(seg),
        }
    }

    /// The program's value for each selected tuple, appended to the empty
    /// `out`; `pool` lends the operand buffers.
    pub(crate) fn eval(
        &self,
        seg: &Segment,
        sel: &[u32],
        out: &mut Vec<f64>,
        pool: &mut Vec<Vec<f64>>,
    ) {
        match self {
            F64Prog::Col(c) => {
                let ColumnVec::Float(v) = seg.column(*c).data() else {
                    unreachable!("applies() admits Float columns only");
                };
                out.extend(sel.iter().map(|&i| v[i as usize]));
            }
            F64Prog::Const(x) => out.resize(sel.len(), *x),
            F64Prog::Bin(l, op, r) => {
                l.eval(seg, sel, out, pool);
                let mut rhs = pool.pop().unwrap_or_default();
                rhs.clear();
                r.eval(seg, sel, &mut rhs, pool);
                let pairs = out.iter_mut().zip(&rhs);
                match op {
                    BinOp::Add => pairs.for_each(|(x, y)| *x += y),
                    BinOp::Sub => pairs.for_each(|(x, y)| *x -= y),
                    BinOp::Mul => pairs.for_each(|(x, y)| *x *= y),
                    _ => unreachable!("F64Prog holds + - * only"),
                }
                pool.push(rhs);
            }
        }
    }
}

/// Whether a stored group-key component equals a cell — `stored.sort_cmp(cell)
/// == Equal`, the group tables' equality — without boxing the cell for the
/// pairs a typed column produces.
pub(crate) fn cell_matches(col: &Column, i: usize, stored: &Value) -> bool {
    if col.validity().is_valid(i) {
        match (col.data(), stored) {
            (ColumnVec::Int(v), Value::Int(b)) => return v[i] == *b,
            (ColumnVec::Date(v), Value::Date(d)) => return v[i] == d.0,
            (ColumnVec::Str(strs), Value::Str(s)) => return strs.bytes_at(i) == s.as_bytes(),
            _ => {}
        }
    }
    stored.sort_cmp(&col.value_at(i)) == Ordering::Equal
}

/// [`hash_value`] of a cell, without boxing a string or leaving the typed
/// slice for a call.
#[inline]
pub(crate) fn hash_cell<H: Hasher>(col: &Column, i: usize, state: &mut H) {
    if !col.validity().is_valid(i) {
        return hash_value(&Value::Null, state);
    }
    match col.data() {
        ColumnVec::Int(v) => hash_value(&Value::Int(v[i]), state),
        ColumnVec::Float(v) => hash_value(&Value::Float(v[i]), state),
        ColumnVec::Date(v) => hash_value(&Value::Date(apuama_sql::value::Date(v[i])), state),
        ColumnVec::Str(strs) => {
            // `hash_value`'s `Str` arm, on the borrowed string.
            3u8.hash(state);
            strs.str_at(i).hash(state);
        }
        ColumnVec::Val(v) => hash_value(&v[i], state),
    }
}
