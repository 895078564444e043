//! Expression evaluation with SQL three-valued logic.
//!
//! There is one evaluator. `compile_expr` turns an [`Expr`] into a
//! `CompiledExpr` — once per operator per execution, and it never fails —
//! and `eval_compiled` runs that program against a row. Compiling resolves
//! every name (`Scope`): a column of the operator's own row becomes a
//! position in it; a column of an enclosing query (the outer references of
//! TPC-H Q4's and Q21's correlated subqueries) a position in one of the
//! enclosing [`Frame`]s; an aggregate call inside an aggregation the cell its
//! finalized value is delivered in. What cannot be resolved — an unknown or
//! ambiguous name, an aggregate outside an aggregation — compiles to a node
//! that carries the error and raises it *when evaluated*, because errors are
//! lazy at the SQL level: `select nosuch from t where a = 99` over no
//! matching row returns zero rows, and `… where a = 99 and nosuch = 1`
//! short-circuits.
//!
//! [`Frame`] is the scope mechanism *between* queries: a correlated subquery
//! that has to be executed is run by [`exec::run_select`] with the frames of
//! the rows around it, and compiles its own expressions against them. Within
//! one query nothing is resolved per row.
//!
//! The three subquery forms compile to nodes holding their `Arc<Select>`;
//! how each is evaluated — a semi-/anti-join probe for a single-table
//! `EXISTS`, once per execution for an uncorrelated `IN` or scalar subquery,
//! [`exec::run_select`] per evaluation otherwise — is `crate::subquery`'s.
//!
//! The row-at-a-time interpreter over `Expr` and a frame stack that this
//! replaced is kept under `#[cfg(test)]` (`reference`, at the end of this
//! file) as the oracle of a differential property test: the two must agree
//! on the `Value` bits or the error class for every expression and every
//! environment.

use std::cmp::Ordering;
use std::sync::Arc;

use apuama_sql::ast::{is_aggregate_name, BinOp, ColumnRef, Expr, UnaryOp};
use apuama_sql::Value;

use crate::agg::AggSpec;
use crate::error::{EngineError, EngineResult};
use crate::exec::{self, Binding, ExecContext};
use crate::subquery::{self, ExistsProbe, ProbeMemo, Subquery};

/// One scope level: the bindings describing a tuple's columns plus the
/// tuple itself.
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    pub bindings: &'a [Binding],
    pub row: &'a [Value],
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// An expression with every name resolved, evaluated by reference against a
/// row and the enclosing frames.
#[derive(Debug, Clone)]
pub(crate) enum CompiledExpr {
    /// A cell of the row.
    Col(usize),
    /// A cell of an enclosing query's row: `outer[frame].row[col]`.
    Outer {
        frame: usize,
        col: usize,
    },
    Lit(Value),
    Param(usize),
    /// What the expression could not be compiled for, raised when — and only
    /// when — it is evaluated.
    Error(EngineError),
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
    /// `[NOT] EXISTS` as a semi-/anti-join probe, compiled against the scope
    /// the expression was.
    Probe {
        negated: bool,
        probe: Arc<ExistsProbe>,
    },
    /// `[NOT] EXISTS` over a subquery no probe covers: executed per
    /// evaluation.
    Exists {
        negated: bool,
        sub: Subquery,
    },
    InSubquery {
        expr: Box<CompiledExpr>,
        negated: bool,
        sub: Subquery,
    },
    Scalar(Subquery),
}

impl CompiledExpr {
    /// Pre-order walk, children in [`apuama_sql::visit::shallow_walk`]'s
    /// order (`EXPLAIN` lists a predicate's probes in it). A subquery is a
    /// leaf: nothing inside it is compiled here.
    pub(crate) fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a CompiledExpr)) {
        f(self);
        match self {
            CompiledExpr::Col(_)
            | CompiledExpr::Outer { .. }
            | CompiledExpr::Lit(_)
            | CompiledExpr::Param(_)
            | CompiledExpr::Error(_)
            | CompiledExpr::Probe { .. }
            | CompiledExpr::Exists { .. }
            | CompiledExpr::Scalar(_) => {}
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::InSubquery { expr, .. } => expr.walk(f),
            CompiledExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            CompiledExpr::Func { args, .. } => args.iter().for_each(|a| a.walk(f)),
            CompiledExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, result) in branches {
                    cond.walk(f);
                    result.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            CompiledExpr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.walk(f);
                list.iter().for_each(|x| x.walk(f));
            }
            CompiledExpr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
        }
    }

    fn any(&self, test: impl Fn(&CompiledExpr) -> bool) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= test(e));
        found
    }

    /// Whether a subquery is evaluated somewhere in the program. Such a
    /// program may read any cell of the row (the subquery resolves names
    /// against it when it runs) and may touch the buffer pool.
    pub(crate) fn has_subquery(&self) -> bool {
        self.any(|e| {
            matches!(
                e,
                CompiledExpr::Probe { .. }
                    | CompiledExpr::Exists { .. }
                    | CompiledExpr::InSubquery { .. }
                    | CompiledExpr::Scalar(_)
            )
        })
    }

    /// Whether the program reads nothing but cells of its row, parameters
    /// and literals: no enclosing frame, no subquery, no deferred error.
    /// The fusion rule and the operator-held `EXISTS` probe admit only
    /// such programs.
    pub(crate) fn is_positional(&self) -> bool {
        !self.has_subquery()
            && !self.any(|e| matches!(e, CompiledExpr::Outer { .. } | CompiledExpr::Error(_)))
    }

    /// Appends every row position the program itself reads to `out`. With a
    /// subquery in it ([`Self::has_subquery`]) that is not all the program
    /// may read.
    pub(crate) fn collect_cols(&self, out: &mut Vec<usize>) {
        self.walk(&mut |e| {
            if let CompiledExpr::Col(i) = e {
                out.push(*i);
            }
        });
    }

    /// The program's value when it is positional, reads no column and
    /// evaluates without error — the same for every row, so a caller may
    /// compute it once per execution. `None` leaves the program (and its
    /// error, if it has one) to per-row evaluation.
    pub(crate) fn constant(&self, ctx: &ExecContext<'_>) -> Option<Value> {
        if !self.is_positional() || self.any(|e| matches!(e, CompiledExpr::Col(_))) {
            return None;
        }
        eval_compiled(self, &[], &[], ctx).ok()
    }
}

/// What the names in an expression can resolve to where it is compiled.
pub(crate) struct Scope<'a> {
    /// The columns of the row the program will be evaluated on.
    pub(crate) bindings: &'a [Binding],
    /// The enclosing queries' frames, innermost first — the ones the program
    /// will be evaluated with. A name the row does not have is looked up
    /// here, frame by frame.
    pub(crate) outer: &'a [Frame<'a>],
    /// The aggregates of the aggregation being projected: the program's row
    /// is then a group's representative row followed by the finalized value
    /// of each, in this order. Empty everywhere else, where an aggregate
    /// call is an error.
    pub(crate) aggs: &'a [AggSpec],
    /// The execution, when there is one: bound parameters are folded into
    /// the program and a qualifying `EXISTS` gets its probe. `None` at
    /// lowering, where the fusion rule compiles for a plan that outlives
    /// the execution (the rule admits no subquery, and folds the parameters
    /// of each execution with [`prebind_params`]).
    pub(crate) ctx: Option<&'a ExecContext<'a>>,
}

impl<'a> Scope<'a> {
    /// An operator's scope: its input row inside the frames it was built
    /// with.
    pub(crate) fn new(
        bindings: &'a [Binding],
        outer: &'a [Frame<'a>],
        ctx: &'a ExecContext<'a>,
    ) -> Self {
        Scope {
            bindings,
            outer,
            aggs: &[],
            ctx: Some(ctx),
        }
    }

    fn column(&self, c: &ColumnRef) -> CompiledExpr {
        let frames = std::iter::once(self.bindings).chain(self.outer.iter().map(|f| f.bindings));
        for (depth, bindings) in frames.enumerate() {
            match exec::resolve_column(bindings, c) {
                Ok(col) if depth == 0 => return CompiledExpr::Col(col),
                Ok(col) => {
                    return CompiledExpr::Outer {
                        frame: depth - 1,
                        col,
                    }
                }
                Err(e @ EngineError::AmbiguousColumn(_)) => return CompiledExpr::Error(e),
                Err(_) => {}
            }
        }
        CompiledExpr::Error(EngineError::UnknownColumn(format!("{c}")))
    }

    /// An aggregate call: the cell after the row's own that holds its value,
    /// or the error of using one where nothing aggregates. (The call's
    /// arguments are the aggregation's to evaluate, not the program's.)
    fn aggregate(&self, call: &Expr, name: &str) -> CompiledExpr {
        let slot = (!self.aggs.is_empty())
            .then(|| call.to_string())
            .and_then(|key| self.aggs.iter().position(|s| s.key == key));
        match slot {
            Some(i) => CompiledExpr::Col(self.bindings.len() + i),
            None => CompiledExpr::Error(EngineError::TypeError(format!(
                "aggregate {name}() used outside aggregation context"
            ))),
        }
    }
}

/// Compiles `e` for evaluation in `scope`. Total: see the module
/// documentation for what an unresolvable name becomes.
pub(crate) fn compile_expr(e: &Expr, scope: &Scope<'_>) -> CompiledExpr {
    let boxed = |x: &Expr| Box::new(compile_expr(x, scope));
    let each = |xs: &[Expr]| xs.iter().map(|x| compile_expr(x, scope)).collect();
    match e {
        Expr::Column(c) => scope.column(c),
        Expr::Literal(v) => CompiledExpr::Lit(v.clone()),
        Expr::Parameter(n) => match scope.ctx.map(|ctx| ctx.param(*n)) {
            Some(Ok(v)) => CompiledExpr::Lit(v),
            // Unbound: the error surfaces on the first row that evaluates it.
            _ => CompiledExpr::Param(*n),
        },
        Expr::Unary { op, expr } => CompiledExpr::Unary {
            op: *op,
            expr: boxed(expr),
        },
        Expr::Binary { left, op, right } => CompiledExpr::Binary {
            left: boxed(left),
            op: *op,
            right: boxed(right),
        },
        Expr::Function { name, .. } if is_aggregate_name(name) => scope.aggregate(e, name),
        Expr::Function { name, args, .. } => CompiledExpr::Func {
            name: name.clone(),
            args: each(args),
        },
        Expr::Case {
            branches,
            else_expr,
        } => CompiledExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (compile_expr(c, scope), compile_expr(r, scope)))
                .collect(),
            else_expr: else_expr.as_deref().map(boxed),
        },
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => CompiledExpr::Between {
            expr: boxed(expr),
            negated: *negated,
            low: boxed(low),
            high: boxed(high),
        },
        Expr::InList {
            expr,
            negated,
            list,
        } => CompiledExpr::InList {
            expr: boxed(expr),
            negated: *negated,
            list: each(list),
        },
        Expr::Like {
            expr,
            negated,
            pattern,
        } => CompiledExpr::Like {
            expr: boxed(expr),
            negated: *negated,
            pattern: boxed(pattern),
        },
        Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
            expr: boxed(expr),
            negated: *negated,
        },
        Expr::Exists { negated, query } => match ExistsProbe::build(query, scope) {
            Some(probe) => CompiledExpr::Probe {
                negated: *negated,
                probe: Arc::new(probe),
            },
            None => CompiledExpr::Exists {
                negated: *negated,
                sub: Subquery::new(query, scope),
            },
        },
        Expr::InSubquery {
            expr,
            negated,
            query,
        } => CompiledExpr::InSubquery {
            expr: boxed(expr),
            negated: *negated,
            sub: Subquery::new(query, scope),
        },
        Expr::ScalarSubquery(query) => CompiledExpr::Scalar(Subquery::new(query, scope)),
    }
}

/// Compiles and evaluates an expression that has no row to read — a
/// `VALUES` cell, a column-free operand the planner wants the value of —
/// once.
pub(crate) fn eval_once(e: &Expr, ctx: &ExecContext<'_>) -> EngineResult<Value> {
    eval_compiled(&compile_expr(e, &Scope::new(&[], &[], ctx)), &[], &[], ctx)
}

/// Folds bound parameter references into literals, for a program that was
/// compiled without an execution in hand (the fused plan's, all positional),
/// so per-row evaluation never goes through `ExecContext::param`'s lookup
/// and clone. Parameters that are *not* bound are left in place: the
/// unbound-parameter error keeps surfacing lazily, on the first row that
/// actually evaluates it.
pub(crate) fn prebind_params(e: &CompiledExpr, ctx: &ExecContext<'_>) -> CompiledExpr {
    let bind = |x: &CompiledExpr| Box::new(prebind_params(x, ctx));
    match e {
        CompiledExpr::Param(n) => match ctx.param(*n) {
            Ok(v) => CompiledExpr::Lit(v),
            Err(_) => CompiledExpr::Param(*n),
        },
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
        // Leaves, and the nodes a positional program does not have.
        CompiledExpr::Col(_)
        | CompiledExpr::Outer { .. }
        | CompiledExpr::Lit(_)
        | CompiledExpr::Error(_)
        | CompiledExpr::Probe { .. }
        | CompiledExpr::Exists { .. }
        | CompiledExpr::InSubquery { .. }
        | CompiledExpr::Scalar(_) => e.clone(),
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Evaluates a compiled expression against a borrowed row; `outer` is the
/// frames the expression was compiled with ([`Scope::outer`]).
pub(crate) fn eval_compiled(
    e: &CompiledExpr,
    row: &[Value],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    let eval = |x: &CompiledExpr| eval_compiled(x, row, outer, ctx);
    match e {
        CompiledExpr::Col(i) => Ok(row[*i].clone()),
        CompiledExpr::Outer { frame, col } => Ok(outer[*frame].row[*col].clone()),
        CompiledExpr::Lit(v) => Ok(v.clone()),
        CompiledExpr::Param(n) => ctx.param(*n),
        CompiledExpr::Error(e) => Err(e.clone()),
        CompiledExpr::Unary { op, expr } => {
            let v = eval(expr)?;
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
        CompiledExpr::Binary { left, op, right } => eval_binary(*op, left, right, row, outer, ctx),
        CompiledExpr::Func { name, args } => eval_scalar_function(name, args, row, outer, ctx),
        CompiledExpr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                if truthiness(&eval(cond)?) == Some(true) {
                    return eval(result);
                }
            }
            match else_expr {
                Some(x) => eval(x),
                None => Ok(Value::Null),
            }
        }
        CompiledExpr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval(expr)?;
            let lo = eval(low)?;
            let hi = eval(high)?;
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
            let v = eval(expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item)?;
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
            let v = eval(expr)?;
            let p = eval(pattern)?;
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
            let v = eval(expr)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        CompiledExpr::Probe { negated, probe } => {
            // No operator owns this evaluation, so nothing is remembered
            // from one to the next: every call looks its key up.
            let found = probe.eval(row, outer, &mut ProbeMemo::default(), ctx)?;
            Ok(Value::Bool(found != *negated))
        }
        CompiledExpr::Exists { negated, sub } => {
            let found = !sub.run(row, outer, ctx)?.rows.is_empty();
            Ok(Value::Bool(found != *negated))
        }
        CompiledExpr::InSubquery { expr, negated, sub } => {
            let v = eval(expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let values = subquery::in_subquery_values(sub, row, outer, ctx)?;
            let (set, saw_null) = &*values;
            if set.contains(&v.hash_key()) {
                Ok(Value::Bool(!negated))
            } else if *saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        CompiledExpr::Scalar(sub) => subquery::scalar_subquery(sub, row, outer, ctx),
    }
}

/// Binary-operator semantics. Operands are evaluated lazily: AND/OR
/// short-circuit in three-valued logic.
fn eval_binary(
    op: BinOp,
    left: &CompiledExpr,
    right: &CompiledExpr,
    row: &[Value],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    if op == BinOp::And {
        let l = truthiness(&eval_compiled(left, row, outer, ctx)?);
        if l == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = truthiness(&eval_compiled(right, row, outer, ctx)?);
        return Ok(bool3(and3(l, r)));
    }
    if op == BinOp::Or {
        let l = truthiness(&eval_compiled(left, row, outer, ctx)?);
        if l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = truthiness(&eval_compiled(right, row, outer, ctx)?);
        return Ok(bool3(or3(l, r)));
    }
    let l = eval_compiled(left, row, outer, ctx)?;
    let r = eval_compiled(right, row, outer, ctx)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        return match compare(&l, &r) {
            Some(ord) => Ok(Value::Bool(cmp_matches(op, ord))),
            None => Err(EngineError::TypeError(format!(
                "cannot compare {l} with {r}"
            ))),
        };
    }
    arith(l, op, r)
}

/// Whether an ordering satisfies a comparison operator.
pub(crate) fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison operator: {op:?}"),
    }
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

/// Scalar (non-aggregate) functions available in expressions. Arguments are
/// evaluated lazily, so `coalesce` keeps its short-circuit.
fn eval_scalar_function(
    name: &str,
    args: &[CompiledExpr],
    row: &[Value],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Value> {
    let arg = |i: usize| match args.get(i) {
        Some(a) => eval_compiled(a, row, outer, ctx),
        None => Err(EngineError::TypeError(format!(
            "{name}() needs {} argument(s)",
            i + 1
        ))),
    };
    match name {
        "extract_year" | "year" => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Date(d) => Ok(Value::Int(d.year() as i64)),
            other => Err(EngineError::TypeError(format!("year() on {other}"))),
        },
        "substring" | "substr" => {
            // substring(s, start, len) with 1-based start, SQL style.
            if args.len() != 3 {
                return Err(EngineError::TypeError("substring needs 3 args".into()));
            }
            match (arg(0)?, arg(1)?, arg(2)?) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Str(s), Value::Int(st), Value::Int(ln)) => {
                    let st = (st.max(1) - 1) as usize;
                    let ln = ln.max(0) as usize;
                    Ok(Value::Str(s.chars().skip(st).take(ln).collect()))
                }
                _ => Err(EngineError::TypeError("bad substring args".into())),
            }
        }
        "abs" => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(x) => Ok(Value::Float(x.abs())),
            other => Err(EngineError::TypeError(format!("abs() on {other}"))),
        },
        "coalesce" => {
            for i in 0..args.len() {
                let v = arg(i)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        other => Err(EngineError::Unsupported(format!("function {other}()"))),
    }
}

/// SQL LIKE matcher (`%` = any run, `_` = any single char); iterative
/// two-pointer algorithm over char boundaries, O(n·m) worst case, no
/// allocation. A `%` or `_` in the text matches itself literally too.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let at = |t: &str, i: usize| t[i..].chars().next();
    let (mut si, mut pi) = (0usize, 0usize);
    // Where the last `%` is in the pattern, and where in the text its run
    // currently ends.
    let mut star: Option<(usize, usize)> = None;
    while let Some(c) = at(s, si) {
        match at(pattern, pi) {
            Some(p) if p == '_' || p == c => {
                si += c.len_utf8();
                pi += p.len_utf8();
            }
            Some('%') => {
                star = Some((pi, si));
                pi += 1;
            }
            _ => match &mut star {
                Some((star_p, star_s)) => {
                    *star_s += at(s, *star_s).map_or(1, char::len_utf8);
                    si = *star_s;
                    pi = *star_p + 1;
                }
                None => return false,
            },
        }
    }
    pattern[pi..].bytes().all(|b| b == b'%')
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

/// The row-at-a-time interpreter the compiled evaluator replaced, kept as
/// its reference: names are resolved through the frame stack on every
/// evaluation, and every subquery is executed by [`exec::run_select`] — no
/// probe, no memo. It shares the value-level semantics (`arith`, `compare`,
/// the three-valued-logic helpers, `like_match`) with the evaluator and
/// nothing else.
#[cfg(test)]
mod reference {
    use super::*;
    use apuama_sql::ast::Select;

    /// Resolves a column reference against a frame stack (innermost first).
    fn resolve_in_frames(frames: &[Frame<'_>], col: &ColumnRef) -> EngineResult<(usize, usize)> {
        for (fi, frame) in frames.iter().enumerate() {
            match exec::resolve_column(frame.bindings, col) {
                Ok(ci) => return Ok((fi, ci)),
                Err(EngineError::AmbiguousColumn(c)) => {
                    return Err(EngineError::AmbiguousColumn(c))
                }
                Err(_) => continue,
            }
        }
        Err(EngineError::UnknownColumn(format!("{col}")))
    }

    /// Evaluates an expression. `frames[0]` is the innermost scope.
    pub(super) fn eval_expr(
        expr: &Expr,
        frames: &[Frame<'_>],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Value> {
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
            Expr::Binary { left, op, right } => eval_binary_with(
                *op,
                || eval_expr(left, frames, ctx),
                || eval_expr(right, frames, ctx),
            ),
            Expr::Function { name, args, .. } => {
                eval_scalar_function_with(name, args.len(), |i| match args.get(i) {
                    Some(a) => eval_expr(a, frames, ctx),
                    None => Err(EngineError::TypeError(format!(
                        "{name}() lacks an argument"
                    ))),
                })
            }
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
                let mut saw_null = false;
                for row in exec::run_select(query, frames, ctx)?.rows {
                    let [w] = row.as_slice() else {
                        return Err(EngineError::TypeError("IN subquery: one column".into()));
                    };
                    match w.sort_cmp(&v) {
                        _ if w.is_null() => saw_null = true,
                        Ordering::Equal => return Ok(Value::Bool(!negated)),
                        _ => {}
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Exists { negated, query } => {
                let found = !exec::run_select(query, frames, ctx)?.rows.is_empty();
                Ok(Value::Bool(found != *negated))
            }
            Expr::ScalarSubquery(query) => scalar(query, frames, ctx),
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

    fn scalar(query: &Select, frames: &[Frame<'_>], ctx: &ExecContext<'_>) -> EngineResult<Value> {
        let rows = exec::run_select(query, frames, ctx)?.rows;
        match rows.as_slice() {
            [] => Ok(Value::Null),
            [row] if row.len() == 1 => Ok(row[0].clone()),
            _ => Err(EngineError::TypeError(
                "scalar subquery: one row of one column".into(),
            )),
        }
    }

    /// Binary-operator semantics parameterized over operand evaluation
    /// (lazy, which is how AND/OR short-circuit).
    fn eval_binary_with(
        op: BinOp,
        mut left: impl FnMut() -> EngineResult<Value>,
        mut right: impl FnMut() -> EngineResult<Value>,
    ) -> EngineResult<Value> {
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

    /// Scalar-function semantics parameterized over argument evaluation
    /// (lazy, so `coalesce` keeps its short-circuit). An aggregate reaching
    /// this point is outside any aggregation.
    fn eval_scalar_function_with(
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
            agg if is_aggregate_name(agg) => Err(EngineError::TypeError(format!(
                "aggregate {agg}() used outside aggregation context"
            ))),
            other => Err(EngineError::Unsupported(format!("function {other}()"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use apuama_sql::value::{Date, Interval};
    use proptest::prelude::*;

    // -----------------------------------------------------------------------
    // The compiled evaluator against the reference interpreter
    // -----------------------------------------------------------------------

    fn binding(qualifier: &str, name: &str) -> Binding {
        Binding {
            qualifier: Some(qualifier.to_string()),
            name: name.to_string(),
        }
    }

    /// The row: `a` is also in the enclosing frame (the row's shadows it),
    /// `x` is there twice (ambiguous unless qualified). `a` holds what the
    /// subqueries correlate on.
    fn row_bindings() -> Vec<Binding> {
        vec![
            binding("r", "a"),
            binding("r", "b"),
            binding("r", "s"),
            binding("r", "d"),
            binding("r", "x"),
            binding("q", "x"),
        ]
    }

    /// The enclosing frame: `c` is only here, `y` is ambiguous here.
    fn outer_bindings() -> Vec<Binding> {
        vec![
            binding("o", "a"),
            binding("o", "c"),
            binding("o", "y"),
            binding("p", "y"),
        ]
    }

    fn small_int() -> impl Strategy<Value = Value> {
        prop_oneof![Just(Value::Null), (0i64..6).prop_map(Value::Int)]
    }

    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-4i64..8).prop_map(Value::Int),
            Just(Value::Int(i64::MAX)),
            prop_oneof![
                Just(f64::NAN),
                Just(-0.0),
                Just(2.0),
                Just(f64::INFINITY),
                -8.0f64..8.0
            ]
            .prop_map(Value::Float),
            prop_oneof!["", "s1", "PROMO x", "%", "a_c"].prop_map(|s: String| Value::Str(s)),
            (0i32..900).prop_map(|d| Value::Date(Date(9000 + d))),
            prop_oneof![
                (-40i32..40).prop_map(Interval::days),
                (-3i32..14).prop_map(Interval::months)
            ]
            .prop_map(Value::Interval),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn column() -> impl Strategy<Value = Expr> {
        let unqualified = prop_oneof!["a", "b", "s", "d", "x", "c", "y", "nosuch"]
            .prop_map(|n: String| Expr::col(n));
        let qualified = prop_oneof![
            Just(("r", "a")),
            Just(("o", "a")),
            Just(("r", "x")),
            Just(("q", "x")),
            Just(("p", "y")),
            Just(("o", "c")),
            Just(("r", "c")),
            Just(("z", "a")),
        ]
        .prop_map(|(t, c)| Expr::Column(ColumnRef::qualified(t, c)));
        prop_oneof![unqualified, qualified]
    }

    /// Subqueries over `i (k int, v int)`, `k` indexed: shapes that become
    /// probes (keyed, un-keyed, reaching into the enclosing frame) and
    /// shapes that are executed, correlated and not. Their own predicates
    /// compare integers only, so the one legitimate difference between a
    /// probe and an executed subquery — which of two failing conjuncts is
    /// reached — cannot show.
    fn subquery(operand: BoxedStrategy<Expr>) -> impl Strategy<Value = Expr> {
        let text = prop_oneof![
            "exists (select * from i where i.k = r.a)",
            "not exists (select 1 from i where i.k = a and i.v > c)",
            "exists (select k from i where i.v = o.a + $1)",
            "exists (select * from i where i.k = nosuch)",
            "not exists (select k from i where i.k = r.a group by k)",
            "exists (select * from i, i i2 where i.k = i2.v and i2.k = c)",
            "(select max(v) from i)",
            "(select min(v) from i where i.k >= r.a)",
            "(select v from i where i.k = c)",
            "(select k, v from i where i.k = 1)",
            "(select count(*) from i where exists (select * from i i2 where i2.k = i.v + r.a))",
        ]
        .prop_map(|sql: String| apuama_sql::parse_expression(&sql).expect("parses"));
        let query = prop_oneof![
            "1 in (select k from i)",
            "1 in (select v from i where i.k > r.a)",
            "1 in (select k from i where v = c)",
            "1 in (select k, v from i)",
        ]
        .prop_map(|sql: String| apuama_sql::parse_expression(&sql).expect("parses"));
        let in_subquery = (operand, query, any::<bool>()).prop_map(|(e, q, negated)| {
            let Expr::InSubquery { query, .. } = q else {
                unreachable!("parsed from `in (select …)`");
            };
            Expr::InSubquery {
                expr: Box::new(e),
                negated,
                query,
            }
        });
        prop_oneof![text, in_subquery]
    }

    fn expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            column(),
            column(),
            any_value().prop_map(Expr::Literal),
            prop_oneof![Just(1usize), Just(2usize)].prop_map(Expr::Parameter),
        ];
        leaf.prop_recursive(4, 48, 4, |inner| {
            let boxed = |e: Expr| Box::new(e);
            let op = prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::Div),
                Just(BinOp::Eq),
                Just(BinOp::NotEq),
                Just(BinOp::Lt),
                Just(BinOp::LtEq),
                Just(BinOp::Gt),
                Just(BinOp::GtEq),
                Just(BinOp::And),
                Just(BinOp::Or),
            ];
            let function = prop_oneof![
                "abs",
                "coalesce",
                "year",
                "extract_year",
                "substring",
                "substr",
                "sum",
                "count",
                "nosuchfn"
            ];
            prop_oneof![
                (inner.clone(), op, inner.clone()).prop_map(|(l, op, r)| Expr::binary(l, op, r)),
                (inner.clone(), any::<bool>()).prop_map(move |(e, not)| Expr::Unary {
                    op: if not { UnaryOp::Not } else { UnaryOp::Neg },
                    expr: boxed(e),
                }),
                (
                    function,
                    proptest::collection::vec(inner.clone(), 0..4),
                    any::<bool>(),
                    any::<bool>()
                )
                    .prop_map(|(name, args, distinct, star)| Expr::Function {
                        name,
                        args,
                        distinct,
                        star,
                    }),
                (
                    proptest::collection::vec((inner.clone(), inner.clone()), 1..3),
                    proptest::option::of(inner.clone())
                )
                    .prop_map(|(branches, else_expr)| Expr::Case {
                        branches,
                        else_expr: else_expr.map(Box::new),
                    }),
                (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                    move |(e, lo, hi, negated)| Expr::Between {
                        expr: boxed(e),
                        negated,
                        low: boxed(lo),
                        high: boxed(hi),
                    }
                ),
                (
                    inner.clone(),
                    proptest::collection::vec(inner.clone(), 0..4),
                    any::<bool>()
                )
                    .prop_map(move |(e, list, negated)| Expr::InList {
                        expr: boxed(e),
                        negated,
                        list,
                    }),
                (inner.clone(), inner.clone(), any::<bool>()).prop_map(
                    move |(e, pattern, negated)| Expr::Like {
                        expr: boxed(e),
                        negated,
                        pattern: boxed(pattern),
                    }
                ),
                (inner.clone(), any::<bool>()).prop_map(move |(e, negated)| Expr::IsNull {
                    expr: boxed(e),
                    negated,
                }),
                subquery(inner),
            ]
        })
    }

    fn inner_table() -> Database {
        let mut db = Database::in_memory();
        db.execute("create table i (k int, v int)").unwrap();
        db.execute("create index ik on i (k)").unwrap();
        db.execute("insert into i values (1, 1), (1, 4), (2, 0), (3, 3), (null, 2), (5, null)")
            .unwrap();
        db
    }

    /// A value's bits, or the error's class.
    fn outcome(r: EngineResult<Value>) -> String {
        match r {
            Ok(Value::Float(x)) => format!("Float({:#x})", x.to_bits()),
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("{:?}", std::mem::discriminant(&e)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// `eval_compiled ∘ compile_expr` gives the reference interpreter's
        /// value, bit for bit, or an error of its class — for names that
        /// resolve in the row, in the enclosing frame, in both, in neither
        /// and ambiguously, for bound (`$1`) and unbound (`$2`) parameters,
        /// and over NULL, NaN, mixed numerics, strings, dates and intervals.
        #[test]
        fn compiled_evaluation_equals_the_reference(
            e in expr(),
            a in small_int(),
            c in small_int(),
            cells in proptest::collection::vec(any_value(), 9..10),
        ) {
            let db = inner_table();
            let (row_names, outer_names) = (row_bindings(), outer_bindings());
            let mut cells = cells.into_iter();
            let mut cell = || cells.next().expect("nine cells");
            let row = vec![a, cell(), cell(), cell(), cell(), cell()];
            let outer_row = vec![cell(), c, cell(), cell()];
            let bound = vec![cell()];
            let outer = [Frame { bindings: &outer_names, row: &outer_row }];
            let frames = [Frame { bindings: &row_names, row: &row }, outer[0]];

            let ctx = ExecContext::with_params(&db, bound.clone());
            let want = outcome(reference::eval_expr(&e, &frames, &ctx));
            let ctx = ExecContext::with_params(&db, bound);
            let compiled = compile_expr(&e, &Scope::new(&row_names, &outer, &ctx));
            let got = outcome(eval_compiled(&compiled, &row, &outer, &ctx));
            prop_assert_eq!(&got, &want, "{}\nrow {:?}\nouter {:?}", e, row, outer_row);
            // Compiled without an execution and bound afterwards — the fused
            // plan's route — it is the same program.
            if compiled.is_positional() {
                let lowered = Scope { ctx: None, ..Scope::new(&row_names, &[], &ctx) };
                let late = prebind_params(&compile_expr(&e, &lowered), &ctx);
                prop_assert_eq!(&outcome(eval_compiled(&late, &row, &[], &ctx)), &want, "{}", e);
            }
        }
    }

    /// An aggregate call compiles to the cell its value is delivered in
    /// when the scope has it, and to a deferred error when it does not.
    #[test]
    fn aggregates_resolve_against_the_scope() {
        let db = Database::in_memory();
        let ctx = ExecContext::new(&db);
        let names = row_bindings();
        let Ok(apuama_sql::Statement::Select(q)) =
            apuama_sql::parse_statement("select sum(b) + 1, count(*) from r having max(a) > 0")
        else {
            panic!("a select");
        };
        let specs = crate::agg::collect_agg_specs(&q);
        let scope = Scope {
            aggs: &specs,
            ..Scope::new(&names, &[], &ctx)
        };
        let mut group_row = vec![Value::Null; names.len()];
        group_row.extend([Value::Int(40), Value::Int(7), Value::Int(3)]);
        let eval = |sql: &str, scope: &Scope<'_>| {
            let e = apuama_sql::parse_expression(sql).unwrap();
            eval_compiled(&compile_expr(&e, scope), &group_row, &[], &ctx)
        };
        assert_eq!(
            eval("sum(b) + count(*) * max(a)", &scope),
            Ok(Value::Int(61))
        );
        assert!(matches!(
            eval("sum(a)", &scope),
            Err(EngineError::TypeError(_))
        ));
        let plain = Scope::new(&names, &[], &ctx);
        assert!(matches!(
            eval("sum(b)", &plain),
            Err(EngineError::TypeError(_))
        ));
    }

    /// The matcher before it went allocation-free: both sides collected
    /// into `Vec<char>`, indices in chars.
    fn like_match_by_chars(s: &str, pattern: &str) -> bool {
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Over an alphabet of one- to four-byte chars, wildcards in the
        /// text as well as the pattern, and `%` runs: the same answer as
        /// the char-vector matcher.
        #[test]
        fn like_match_equals_the_char_vector_matcher(
            s in "[aż日🦀%_]{0,8}",
            p in "[aż日🦀%_]{0,6}",
        ) {
            proptest::prop_assert_eq!(like_match(&s, &p), like_match_by_chars(&s, &p), "{:?} like {:?}", s, p);
        }
    }

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
