//! Expression evaluation with SQL three-valued logic.
//!
//! Evaluation happens against a stack of [`Frame`]s: the innermost frame is
//! the current tuple; outer frames belong to enclosing queries, which is how
//! correlated subqueries (TPC-H Q4's `EXISTS`, Q21's `EXISTS`/`NOT EXISTS`)
//! resolve their outer references.
//!
//! Subqueries are not analysed here. The three subquery forms hand their
//! AST node and the frame stack to [`crate::subquery`], which keeps one
//! per-execution memo keyed by the node: a single-table `EXISTS` is compiled
//! once into a semi-/anti-join probe — by index when it has an equality on
//! an indexed inner column, over the heap otherwise, stopping at the first
//! match either way — and evaluated against the inner row positionally from
//! then on; `IN (subquery)` and scalar subqueries that reference no outer
//! column are executed once per statement execution; every other shape is
//! run through [`exec::run_select`] with the frames, per evaluation.
//! Predicates the physical operators pre-resolve (`ResidualPred`) hold
//! their probe directly and never come through here.

use apuama_sql::ast::{BinOp, ColumnRef, Expr, UnaryOp};
use apuama_sql::Value;
use std::cmp::Ordering;

use crate::error::{EngineError, EngineResult};
use crate::exec::{self, Binding, ExecContext};
use crate::subquery;

/// One scope level: the bindings describing a tuple's columns plus the
/// tuple itself.
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    pub bindings: &'a [Binding],
    pub row: &'a [Value],
}

/// Resolves a column reference against a frame stack (innermost first).
pub fn resolve_in_frames(frames: &[Frame<'_>], col: &ColumnRef) -> EngineResult<(usize, usize)> {
    for (fi, frame) in frames.iter().enumerate() {
        match exec::resolve_column(frame.bindings, col) {
            Ok(ci) => return Ok((fi, ci)),
            Err(EngineError::AmbiguousColumn(c)) => return Err(EngineError::AmbiguousColumn(c)),
            Err(_) => continue,
        }
    }
    Err(EngineError::UnknownColumn(format!("{col}")))
}

/// Evaluates an expression. `frames[0]` is the innermost scope.
pub fn eval_expr(expr: &Expr, frames: &[Frame<'_>], ctx: &ExecContext<'_>) -> EngineResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Parameter(n) => ctx.param(*n),
        Expr::Column(c) => {
            let (fi, ci) = resolve_in_frames(frames, c)?;
            Ok(frames[fi].row[ci].clone())
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, frames, ctx)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(EngineError::TypeError(format!("cannot negate {other}"))),
                },
                UnaryOp::Not => match truthiness(&v) {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Bool(!b)),
                },
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, frames, ctx),
        Expr::Function { name, args, .. } => eval_scalar_function(name, args, frames, ctx),
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                if truthiness(&eval_expr(cond, frames, ctx)?) == Some(true) {
                    return eval_expr(result, frames, ctx);
                }
            }
            match else_expr {
                Some(e) => eval_expr(e, frames, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            let lo = eval_expr(low, frames, ctx)?;
            let hi = eval_expr(high, frames, ctx)?;
            let ge = compare(&v, &lo).map(|o| o != Ordering::Less);
            let le = compare(&v, &hi).map(|o| o != Ordering::Greater);
            let within = and3(ge, le);
            Ok(bool3(if *negated { not3(within) } else { within }))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_expr(item, frames, ctx)?;
                match compare(&v, &w) {
                    None => saw_null = true,
                    Some(Ordering::Equal) => {
                        return Ok(Value::Bool(!negated));
                    }
                    Some(_) => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::InSubquery {
            expr,
            negated,
            query,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let values = subquery::in_subquery_values(query, frames, ctx)?;
            let (set, saw_null) = &*values;
            if set.contains(&v.hash_key()) {
                Ok(Value::Bool(!negated))
            } else if *saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Exists { negated, query } => {
            let found = subquery::eval_exists(query, frames, ctx)?;
            Ok(Value::Bool(found != *negated))
        }
        Expr::ScalarSubquery(query) => subquery::scalar_subquery(query, frames, ctx),
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval_expr(expr, frames, ctx)?;
            let p = eval_expr(pattern, frames, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    let m = like_match(&s, &pat);
                    Ok(Value::Bool(m != *negated))
                }
                (a, b) => Err(EngineError::TypeError(format!(
                    "LIKE needs strings, got {a} and {b}"
                ))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, frames, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

fn eval_binary(
    left: &Expr,
    op: BinOp,
    right: &Expr,
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    eval_binary_with(
        op,
        || eval_expr(left, frames, ctx),
        || eval_expr(right, frames, ctx),
    )
}

/// Binary-operator semantics parameterized over operand evaluation, so the
/// interpreted evaluator and the fused kernel share one implementation
/// (including AND/OR short-circuiting, which is why operands arrive lazily).
pub(crate) fn eval_binary_with(
    op: BinOp,
    mut left: impl FnMut() -> EngineResult<Value>,
    mut right: impl FnMut() -> EngineResult<Value>,
) -> EngineResult<Value> {
    // AND/OR get short-circuit three-valued logic.
    if op == BinOp::And {
        let l = truthiness(&left()?);
        if l == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = truthiness(&right()?);
        return Ok(bool3(and3(l, r)));
    }
    if op == BinOp::Or {
        let l = truthiness(&left()?);
        if l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = truthiness(&right()?);
        return Ok(bool3(or3(l, r)));
    }
    let l = left()?;
    let r = right()?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let Some(ord) = compare(&l, &r) else {
            return Err(EngineError::TypeError(format!(
                "cannot compare {l} with {r}"
            )));
        };
        let b = match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::NotEq => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::LtEq => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::GtEq => ord != Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    arith(l, op, r)
}

/// Numeric / date arithmetic.
fn arith(l: Value, op: BinOp, r: Value) -> EngineResult<Value> {
    use Value::*;
    match (l, op, r) {
        // Date ± interval.
        (Date(d), BinOp::Add, Interval(iv)) | (Interval(iv), BinOp::Add, Date(d)) => {
            Ok(Date(d.add_interval(iv)))
        }
        (Date(d), BinOp::Sub, Interval(iv)) => Ok(Date(d.add_interval(iv.negate()))),
        // Integer arithmetic stays exact.
        (Int(a), BinOp::Add, Int(b)) => Ok(Int(a.wrapping_add(b))),
        (Int(a), BinOp::Sub, Int(b)) => Ok(Int(a.wrapping_sub(b))),
        (Int(a), BinOp::Mul, Int(b)) => Ok(Int(a.wrapping_mul(b))),
        (Int(a), BinOp::Div, Int(b)) => {
            if b == 0 {
                Ok(Null)
            } else {
                Ok(Int(a / b))
            }
        }
        // Mixed / float arithmetic widens to f64.
        (a, op2, b) => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(EngineError::TypeError(format!(
                    "bad operands for {}: {a}, {b}",
                    op2.symbol()
                )));
            };
            let v = match op2 {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Ok(Null);
                    }
                    x / y
                }
                _ => unreachable!("comparisons handled earlier"),
            };
            Ok(Float(v))
        }
    }
}

/// Scalar (non-aggregate) functions available in expressions. Aggregates
/// reaching this point mean the planner misclassified the query.
fn eval_scalar_function(
    name: &str,
    args: &[Expr],
    frames: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    eval_scalar_function_with(name, args.len(), |i| eval_expr(&args[i], frames, ctx))
}

/// Scalar-function semantics parameterized over argument evaluation (lazy,
/// so `coalesce` keeps its short-circuit), shared by the interpreted
/// evaluator and the fused kernel.
pub(crate) fn eval_scalar_function_with(
    name: &str,
    n_args: usize,
    mut arg: impl FnMut(usize) -> EngineResult<Value>,
) -> EngineResult<Value> {
    match name {
        "extract_year" | "year" => {
            let v = arg(0)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Date(d) => Ok(Value::Int(d.year() as i64)),
                other => Err(EngineError::TypeError(format!("year() on {other}"))),
            }
        }
        "substring" | "substr" => {
            // substring(s, start, len) with 1-based start, SQL style.
            if n_args != 3 {
                return Err(EngineError::TypeError("substring needs 3 args".into()));
            }
            let s = arg(0)?;
            let start = arg(1)?;
            let len = arg(2)?;
            match (s, start, len) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Str(s), Value::Int(st), Value::Int(ln)) => {
                    let st = (st.max(1) - 1) as usize;
                    let ln = ln.max(0) as usize;
                    Ok(Value::Str(s.chars().skip(st).take(ln).collect()))
                }
                _ => Err(EngineError::TypeError("bad substring args".into())),
            }
        }
        "abs" => {
            let v = arg(0)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                other => Err(EngineError::TypeError(format!("abs() on {other}"))),
            }
        }
        "coalesce" => {
            for i in 0..n_args {
                let v = arg(i)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        agg if apuama_sql::ast::is_aggregate_name(agg) => Err(EngineError::TypeError(format!(
            "aggregate {agg}() used outside aggregation context"
        ))),
        other => Err(EngineError::Unsupported(format!("function {other}()"))),
    }
}

/// SQL LIKE matcher (`%` = any run, `_` = any single char); iterative
/// two-pointer algorithm, O(n·m) worst case, no allocation.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// SQL truthiness: NULL ⇒ None, Bool(b) ⇒ Some(b); anything else is a type
/// error in strict SQL but we treat non-null non-bool as an error upstream —
/// here we map it to false to keep predicates total (this never fires on
/// well-typed queries).
pub fn truthiness(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        _ => Some(false),
    }
}

pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub(crate) fn not3(a: Option<bool>) -> Option<bool> {
    a.map(|b| !b)
}

pub(crate) fn bool3(a: Option<bool>) -> Value {
    match a {
        None => Value::Null,
        Some(b) => Value::Bool(b),
    }
}

/// Comparison used by predicates (NULL ⇒ None).
pub fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    a.sql_cmp(b)
}

/// Splits an optional predicate into its top-level AND conjuncts.
pub fn split_conjuncts(pred: Option<&Expr>) -> Vec<Expr> {
    let mut out = Vec::new();
    fn go(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } = e
        {
            go(left, out);
            go(right, out);
        } else {
            out.push(e.clone());
        }
    }
    if let Some(p) = pred {
        go(p, &mut out);
    }
    out
}

/// Rebuilds a predicate from conjuncts (inverse of [`split_conjuncts`]).
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(Expr::and)
}

// ---------------------------------------------------------------------------
// Pre-resolved (compiled) expressions
// ---------------------------------------------------------------------------

/// An expression with every column reference pre-resolved to a positional
/// index into one relation's row — the batch-friendly form every physical
/// operator prefers: no name resolution per row, no [`Frame`] stacks, rows
/// evaluated by reference. Subquery forms are unrepresentable: compilation
/// rejects them, and the operator falls back to framed [`eval_expr`].
#[derive(Debug, Clone)]
pub(crate) enum CompiledExpr {
    Col(usize),
    Lit(Value),
    Param(usize),
    Unary {
        op: UnaryOp,
        expr: Box<CompiledExpr>,
    },
    Binary {
        left: Box<CompiledExpr>,
        op: BinOp,
        right: Box<CompiledExpr>,
    },
    Func {
        name: String,
        args: Vec<CompiledExpr>,
    },
    Case {
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_expr: Option<Box<CompiledExpr>>,
    },
    Between {
        expr: Box<CompiledExpr>,
        negated: bool,
        low: Box<CompiledExpr>,
        high: Box<CompiledExpr>,
    },
    InList {
        expr: Box<CompiledExpr>,
        negated: bool,
        list: Vec<CompiledExpr>,
    },
    Like {
        expr: Box<CompiledExpr>,
        negated: bool,
        pattern: Box<CompiledExpr>,
    },
    IsNull {
        expr: Box<CompiledExpr>,
        negated: bool,
    },
}

impl CompiledExpr {
    /// Appends every row position the program reads to `out`.
    pub(crate) fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            CompiledExpr::Col(i) => out.push(*i),
            CompiledExpr::Lit(_) | CompiledExpr::Param(_) => {}
            CompiledExpr::Unary { expr, .. } | CompiledExpr::IsNull { expr, .. } => {
                expr.collect_cols(out)
            }
            CompiledExpr::Binary { left, right, .. } => {
                left.collect_cols(out);
                right.collect_cols(out);
            }
            CompiledExpr::Func { args, .. } => args.iter().for_each(|a| a.collect_cols(out)),
            CompiledExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, result) in branches {
                    cond.collect_cols(out);
                    result.collect_cols(out);
                }
                if let Some(e) = else_expr {
                    e.collect_cols(out);
                }
            }
            CompiledExpr::Between {
                expr, low, high, ..
            } => {
                expr.collect_cols(out);
                low.collect_cols(out);
                high.collect_cols(out);
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.collect_cols(out);
                list.iter().for_each(|x| x.collect_cols(out));
            }
            CompiledExpr::Like { expr, pattern, .. } => {
                expr.collect_cols(out);
                pattern.collect_cols(out);
            }
        }
    }

    /// The program's value when it reads no column and evaluates without
    /// error — the same for every row, so a caller may compute it once per
    /// execution. `None` leaves the program (and its error, if it has one)
    /// to per-row evaluation.
    pub(crate) fn constant(&self, ctx: &ExecContext<'_>) -> Option<Value> {
        let mut cols = Vec::new();
        self.collect_cols(&mut cols);
        if !cols.is_empty() {
            return None;
        }
        eval_compiled(self, &[], ctx).ok()
    }
}

/// Resolves columns and checks for supported node types; `None` means the
/// expression cannot be pre-resolved (subqueries, aggregate calls, columns
/// not found in `bindings` — e.g. correlated references to outer scopes)
/// and must be evaluated with frames. Compilation succeeding guarantees
/// [`eval_compiled`] agrees with [`eval_expr`] bit for bit: every column
/// resolves in the innermost frame, which is exactly the frame-stack
/// resolution order.
pub(crate) fn compile_expr(e: &Expr, bindings: &[Binding]) -> Option<CompiledExpr> {
    Some(match e {
        Expr::Column(c) => CompiledExpr::Col(exec::resolve_column(bindings, c).ok()?),
        Expr::Literal(v) => CompiledExpr::Lit(v.clone()),
        Expr::Parameter(n) => CompiledExpr::Param(*n),
        Expr::Unary { op, expr } => CompiledExpr::Unary {
            op: *op,
            expr: Box::new(compile_expr(expr, bindings)?),
        },
        Expr::Binary { left, op, right } => CompiledExpr::Binary {
            left: Box::new(compile_expr(left, bindings)?),
            op: *op,
            right: Box::new(compile_expr(right, bindings)?),
        },
        Expr::Function {
            name,
            args,
            distinct: false,
            star: false,
        } if !apuama_sql::ast::is_aggregate_name(name) => CompiledExpr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| compile_expr(a, bindings))
                .collect::<Option<Vec<_>>>()?,
        },
        Expr::Case {
            branches,
            else_expr,
        } => CompiledExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Some((compile_expr(c, bindings)?, compile_expr(r, bindings)?)))
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(x) => Some(Box::new(compile_expr(x, bindings)?)),
                None => None,
            },
        },
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => CompiledExpr::Between {
            expr: Box::new(compile_expr(expr, bindings)?),
            negated: *negated,
            low: Box::new(compile_expr(low, bindings)?),
            high: Box::new(compile_expr(high, bindings)?),
        },
        Expr::InList {
            expr,
            negated,
            list,
        } => CompiledExpr::InList {
            expr: Box::new(compile_expr(expr, bindings)?),
            negated: *negated,
            list: list
                .iter()
                .map(|x| compile_expr(x, bindings))
                .collect::<Option<Vec<_>>>()?,
        },
        Expr::Like {
            expr,
            negated,
            pattern,
        } => CompiledExpr::Like {
            expr: Box::new(compile_expr(expr, bindings)?),
            negated: *negated,
            pattern: Box::new(compile_expr(pattern, bindings)?),
        },
        Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
            expr: Box::new(compile_expr(expr, bindings)?),
            negated: *negated,
        },
        // Subqueries, DISTINCT/star aggregates in scalar position, and
        // anything else falls back to framed evaluation.
        _ => return None,
    })
}

/// Folds bound parameter references into literals, once per execution, so
/// per-row evaluation never goes through `ExecContext::param`'s lookup and
/// clone. Parameters that are *not* bound are left in place: the
/// unbound-parameter error keeps surfacing lazily, on the first row that
/// actually evaluates it, exactly like the unprebound program.
pub(crate) fn prebind_params(e: &CompiledExpr, ctx: &ExecContext<'_>) -> CompiledExpr {
    let bind = |x: &CompiledExpr| Box::new(prebind_params(x, ctx));
    match e {
        CompiledExpr::Param(n) => match ctx.param(*n) {
            Ok(v) => CompiledExpr::Lit(v),
            Err(_) => CompiledExpr::Param(*n),
        },
        CompiledExpr::Col(_) | CompiledExpr::Lit(_) => e.clone(),
        CompiledExpr::Unary { op, expr } => CompiledExpr::Unary {
            op: *op,
            expr: bind(expr),
        },
        CompiledExpr::Binary { left, op, right } => CompiledExpr::Binary {
            left: bind(left),
            op: *op,
            right: bind(right),
        },
        CompiledExpr::Func { name, args } => CompiledExpr::Func {
            name: name.clone(),
            args: args.iter().map(|a| prebind_params(a, ctx)).collect(),
        },
        CompiledExpr::Case {
            branches,
            else_expr,
        } => CompiledExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (prebind_params(c, ctx), prebind_params(r, ctx)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| bind(x)),
        },
        CompiledExpr::Between {
            expr,
            negated,
            low,
            high,
        } => CompiledExpr::Between {
            expr: bind(expr),
            negated: *negated,
            low: bind(low),
            high: bind(high),
        },
        CompiledExpr::InList {
            expr,
            negated,
            list,
        } => CompiledExpr::InList {
            expr: bind(expr),
            negated: *negated,
            list: list.iter().map(|x| prebind_params(x, ctx)).collect(),
        },
        CompiledExpr::Like {
            expr,
            negated,
            pattern,
        } => CompiledExpr::Like {
            expr: bind(expr),
            negated: *negated,
            pattern: bind(pattern),
        },
        CompiledExpr::IsNull { expr, negated } => CompiledExpr::IsNull {
            expr: bind(expr),
            negated: *negated,
        },
    }
}

/// Evaluates a compiled expression against a borrowed row. Semantics are
/// shared with the framed evaluator through [`eval_binary_with`],
/// [`eval_scalar_function_with`], and the three-valued-logic helpers.
pub(crate) fn eval_compiled(
    e: &CompiledExpr,
    row: &[Value],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    match e {
        CompiledExpr::Col(i) => Ok(row[*i].clone()),
        CompiledExpr::Lit(v) => Ok(v.clone()),
        CompiledExpr::Param(n) => ctx.param(*n),
        CompiledExpr::Unary { op, expr } => {
            let v = eval_compiled(expr, row, ctx)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(EngineError::TypeError(format!("cannot negate {other}"))),
                },
                UnaryOp::Not => match truthiness(&v) {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Bool(!b)),
                },
            }
        }
        CompiledExpr::Binary { left, op, right } => eval_binary_with(
            *op,
            || eval_compiled(left, row, ctx),
            || eval_compiled(right, row, ctx),
        ),
        CompiledExpr::Func { name, args } => {
            eval_scalar_function_with(name, args.len(), |i| eval_compiled(&args[i], row, ctx))
        }
        CompiledExpr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                if truthiness(&eval_compiled(cond, row, ctx)?) == Some(true) {
                    return eval_compiled(result, row, ctx);
                }
            }
            match else_expr {
                Some(x) => eval_compiled(x, row, ctx),
                None => Ok(Value::Null),
            }
        }
        CompiledExpr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_compiled(expr, row, ctx)?;
            let lo = eval_compiled(low, row, ctx)?;
            let hi = eval_compiled(high, row, ctx)?;
            let ge = compare(&v, &lo).map(|o| o != Ordering::Less);
            let le = compare(&v, &hi).map(|o| o != Ordering::Greater);
            let within = and3(ge, le);
            Ok(bool3(if *negated { not3(within) } else { within }))
        }
        CompiledExpr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_compiled(expr, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_compiled(item, row, ctx)?;
                match compare(&v, &w) {
                    None => saw_null = true,
                    Some(Ordering::Equal) => {
                        return Ok(Value::Bool(!negated));
                    }
                    Some(_) => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        CompiledExpr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval_compiled(expr, row, ctx)?;
            let p = eval_compiled(pattern, row, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    let m = like_match(&s, &pat);
                    Ok(Value::Bool(m != *negated))
                }
                (a, b) => Err(EngineError::TypeError(format!(
                    "LIKE needs strings, got {a} and {b}"
                ))),
            }
        }
        CompiledExpr::IsNull { expr, negated } => {
            let v = eval_compiled(expr, row, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matcher_cases() {
        assert!(like_match("PROMO BRUSHED", "PROMO%"));
        assert!(!like_match("STANDARD", "PROMO%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abbc", "a_c"));
        assert!(like_match("anything", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("x%y", "x%y"));
        assert!(like_match("special requests", "%special%requests%"));
    }

    #[test]
    fn three_valued_logic_tables() {
        assert_eq!(and3(Some(true), None), None);
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
        assert_eq!(not3(None), None);
    }

    #[test]
    fn conjunct_splitting_roundtrip() {
        let e = apuama_sql::parse_expression("a = 1 and b = 2 and c = 3").unwrap();
        let parts = split_conjuncts(Some(&e));
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts).unwrap();
        assert_eq!(back.to_string(), "(((a = 1) and (b = 2)) and (c = 3))");
    }

    #[test]
    fn or_is_not_split() {
        let e = apuama_sql::parse_expression("a = 1 or b = 2").unwrap();
        assert_eq!(split_conjuncts(Some(&e)).len(), 1);
    }
}
