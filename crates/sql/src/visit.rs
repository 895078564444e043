//! AST walkers and in-place mutators.
//!
//! The Apuama middleware needs two tree operations, both provided here in a
//! general form:
//!
//! * **discovery** — which base tables does a query reference (the paper's
//!   Query Parser component feeding the Data Catalog lookup), and
//! * **mutation** — rewriting expressions in place (SVP's range-predicate
//!   injection and aggregate decomposition).
//!
//! A node's plan cache needs a third: **literal lifting**
//! ([`lift_where_literals`]), the key under which a text SELECT shares a
//! cached plan with every statement that differs from it only in its WHERE
//! clause's comparison literals.

use crate::ast::{BinOp, Expr, Select, SelectItem, Statement, TableRef, UnaryOp};
use crate::value::Value;
use std::cell::RefCell;
use std::fmt::{self, Write};
use std::sync::Arc;

/// Calls `f` for every expression in the select, including inside
/// subqueries. Traversal is pre-order.
pub fn walk_select_exprs<'a>(select: &'a Select, f: &mut dyn FnMut(&'a Expr)) {
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr(expr, f);
        }
    }
    for t in &select.from {
        if let TableRef::Subquery { query, .. } = t {
            walk_select_exprs(query, f);
        }
    }
    if let Some(e) = &select.selection {
        walk_expr(e, f);
    }
    for g in &select.group_by {
        walk_expr(g, f);
    }
    if let Some(h) = &select.having {
        walk_expr(h, f);
    }
    for o in &select.order_by {
        walk_expr(&o.expr, f);
    }
}

/// Pre-order walk over one expression tree, descending into subqueries.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                walk_expr(c, f);
                walk_expr(r, f);
            }
            if let Some(e) = else_expr {
                walk_expr(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for e in list {
                walk_expr(e, f);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            walk_expr(expr, f);
            walk_select_exprs(query, f);
        }
        Expr::Exists { query, .. } => walk_select_exprs(query, f),
        Expr::ScalarSubquery(q) => walk_select_exprs(q, f),
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f);
            walk_expr(pattern, f);
        }
        Expr::IsNull { expr, .. } => walk_expr(expr, f),
    }
}

/// Collects the names of all base tables referenced anywhere in the select
/// (FROM clauses of the query itself, derived tables, and subqueries in any
/// expression position), in first-appearance order, deduplicated.
pub fn referenced_tables(select: &Select) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push = |name: &str| {
        if !out.iter().any(|n| n == name) {
            out.push(name.to_string());
        }
    };
    collect_tables(select, &mut push);
    out
}

fn collect_tables(select: &Select, push: &mut dyn FnMut(&str)) {
    for t in &select.from {
        match t {
            TableRef::Table { name, .. } => push(name),
            TableRef::Subquery { query, .. } => collect_tables(query, push),
        }
    }
    let mut visit = |e: &Expr| match e {
        Expr::Exists { query, .. } | Expr::InSubquery { query, .. } => collect_tables(query, push),
        Expr::ScalarSubquery(q) => collect_tables(q, push),
        _ => {}
    };
    // Walk only the top-level expressions for subquery discovery; nested
    // subqueries are reached recursively via `collect_tables` above, so we
    // must not descend into subqueries twice here. A shallow walk suffices
    // because `walk_select_exprs` already descends into subquery bodies and
    // would double-count.
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            shallow_walk(expr, &mut visit);
        }
    }
    if let Some(e) = &select.selection {
        shallow_walk(e, &mut visit);
    }
    for g in &select.group_by {
        shallow_walk(g, &mut visit);
    }
    if let Some(h) = &select.having {
        shallow_walk(h, &mut visit);
    }
    for o in &select.order_by {
        shallow_walk(&o.expr, &mut visit);
    }
}

/// Walks an expression tree but does NOT descend into subqueries; the
/// callback sees subquery nodes themselves.
pub fn shallow_walk<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary { expr, .. } => shallow_walk(expr, f),
        Expr::Binary { left, right, .. } => {
            shallow_walk(left, f);
            shallow_walk(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                shallow_walk(a, f);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                shallow_walk(c, f);
                shallow_walk(r, f);
            }
            if let Some(e) = else_expr {
                shallow_walk(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            shallow_walk(expr, f);
            shallow_walk(low, f);
            shallow_walk(high, f);
        }
        Expr::InList { expr, list, .. } => {
            shallow_walk(expr, f);
            for e in list {
                shallow_walk(e, f);
            }
        }
        Expr::InSubquery { expr, .. } => shallow_walk(expr, f),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::Like { expr, pattern, .. } => {
            shallow_walk(expr, f);
            shallow_walk(pattern, f);
        }
        Expr::IsNull { expr, .. } => shallow_walk(expr, f),
    }
}

/// Collects tables referenced by a statement (SELECT/INSERT/DELETE/UPDATE).
pub fn statement_tables(stmt: &Statement) -> Vec<String> {
    match stmt {
        Statement::Select(s) => referenced_tables(s),
        Statement::Explain { inner, .. } => statement_tables(inner),
        Statement::Insert { table, .. }
        | Statement::Delete { table, .. }
        | Statement::Update { table, .. } => vec![table.clone()],
        Statement::CreateTable { name, .. } => vec![name.clone()],
        Statement::CreateIndex { table, .. } => vec![table.clone()],
        Statement::Set { .. } | Statement::Begin | Statement::Commit | Statement::Rollback => {
            vec![]
        }
    }
}

/// Rewrites every expression of the top-level select in place (not
/// descending into subqueries — SVP's aggregate decomposition must only
/// touch the outer query block).
pub fn rewrite_top_level_exprs(select: &mut Select, f: &mut dyn FnMut(&mut Expr)) {
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            f(expr);
        }
    }
    if let Some(e) = &mut select.selection {
        f(e);
    }
    for g in &mut select.group_by {
        f(g);
    }
    if let Some(h) = &mut select.having {
        f(h);
    }
    for o in &mut select.order_by {
        f(&mut o.expr);
    }
}

/// Post-order mutable walk over one expression tree, descending into
/// subqueries. The callback may replace whole nodes (parameter binding).
pub fn rewrite_expr_deep(expr: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary { expr, .. } => rewrite_expr_deep(expr, f),
        Expr::Binary { left, right, .. } => {
            rewrite_expr_deep(left, f);
            rewrite_expr_deep(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                rewrite_expr_deep(a, f);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                rewrite_expr_deep(c, f);
                rewrite_expr_deep(r, f);
            }
            if let Some(e) = else_expr {
                rewrite_expr_deep(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            rewrite_expr_deep(expr, f);
            rewrite_expr_deep(low, f);
            rewrite_expr_deep(high, f);
        }
        Expr::InList { expr, list, .. } => {
            rewrite_expr_deep(expr, f);
            for e in list {
                rewrite_expr_deep(e, f);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            rewrite_expr_deep(expr, f);
            rewrite_select_exprs_deep(Arc::make_mut(query), f);
        }
        Expr::Exists { query, .. } => rewrite_select_exprs_deep(Arc::make_mut(query), f),
        Expr::ScalarSubquery(q) => rewrite_select_exprs_deep(Arc::make_mut(q), f),
        Expr::Like { expr, pattern, .. } => {
            rewrite_expr_deep(expr, f);
            rewrite_expr_deep(pattern, f);
        }
        Expr::IsNull { expr, .. } => rewrite_expr_deep(expr, f),
    }
    f(expr);
}

/// Applies [`rewrite_expr_deep`] to every expression of the select,
/// including derived tables and subqueries.
pub fn rewrite_select_exprs_deep(select: &mut Select, f: &mut dyn FnMut(&mut Expr)) {
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            rewrite_expr_deep(expr, f);
        }
    }
    for t in &mut select.from {
        if let TableRef::Subquery { query, .. } = t {
            rewrite_select_exprs_deep(query, f);
        }
    }
    if let Some(e) = &mut select.selection {
        rewrite_expr_deep(e, f);
    }
    for g in &mut select.group_by {
        rewrite_expr_deep(g, f);
    }
    if let Some(h) = &mut select.having {
        rewrite_expr_deep(h, f);
    }
    for o in &mut select.order_by {
        rewrite_expr_deep(&mut o.expr, f);
    }
}

/// Highest `$N` placeholder referenced anywhere in the select (0 when the
/// statement has no parameters) — the number of values a bind must supply.
pub fn parameter_count(select: &Select) -> usize {
    let mut max = 0usize;
    walk_select_exprs(select, &mut |e| {
        if let Expr::Parameter(n) = e {
            max = max.max(*n);
        }
    });
    max
}

/// Replaces every `$N` placeholder with the corresponding literal from
/// `params` (1-based). Errors if a placeholder has no matching value. This
/// is the textual-fallback path for backends without a native bound-execute:
/// the bound statement renders to plain SQL byte-identical to what the
/// template would have produced with inlined literals.
pub fn bind_parameters(select: &mut Select, params: &[crate::Value]) -> Result<(), String> {
    let mut missing = None;
    rewrite_select_exprs_deep(select, &mut |e| {
        if let Expr::Parameter(n) = e {
            match params.get(*n - 1) {
                Some(v) => *e = Expr::Literal(v.clone()),
                None => missing = Some(*n),
            }
        }
    });
    match missing {
        Some(n) => Err(format!(
            "statement references ${n} but only {} parameter(s) were bound",
            params.len()
        )),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Literal lifting (auto-parameterisation)
// ---------------------------------------------------------------------------

/// A SELECT's auto-parameterised form: its text with each literal
/// [`lift_where_literals`] lifts written as a `$N` placeholder, and those
/// literals in placeholder order. Two statements that differ only in lifted
/// literals share one text, so a plan cache keyed on it serves both.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifted {
    /// The statement rendered with placeholders where the lifted literals
    /// were; what [`parameterize_where_literals`] leaves renders to it.
    pub text: String,
    /// The lifted literals; `values[N - 1]` is what `$N` stands for.
    pub values: Vec<Value>,
}

/// Lifts the literals of the top-level WHERE clause that are a direct
/// operand of a comparison, a `BETWEEN` or an `IN` list against a column,
/// looking through `AND`, `OR` and `NOT`: `c_custkey = 7` becomes
/// `c_custkey = $1` with `7` bound. Every other literal — in arithmetic,
/// select items, subqueries, `GROUP BY`, `HAVING`, `ORDER BY` — stays in the
/// text. Nothing is cloned but the lifted values. A statement that already
/// has placeholders lifts nothing: numbering the lifted literals after its
/// own would give its text another meaning.
pub fn lift_where_literals(select: &Select) -> Lifted {
    let values = RefCell::new(Vec::new());
    // Room for a short statement up front, so rendering one does not
    // regrow the buffer piece by piece.
    let mut text = String::with_capacity(128);
    let rendered = match &select.selection {
        Some(expr) if parameter_count(select) == 0 => {
            let selection = LiftedExpr {
                expr,
                values: &values,
            };
            write!(text, "{}", WithSelection(select, &selection))
        }
        _ => write!(text, "{select}"),
    };
    rendered.expect("rendering into a String does not fail");
    Lifted {
        text,
        values: values.into_inner(),
    }
}

/// Replaces, in place, exactly the literals [`lift_where_literals`] lifts by
/// their placeholders: the statement left renders to [`Lifted::text`].
pub fn parameterize_where_literals(select: &mut Select) {
    if parameter_count(select) > 0 {
        return;
    }
    if let Some(expr) = &mut select.selection {
        parameterize(expr, &mut 0);
    }
}

/// Whether `operand` is a literal [`lift_where_literals`] lifts, `against`
/// being what it is compared with — the one rule both lifting walks share.
fn lifts(operand: &Expr, against: &Expr) -> bool {
    matches!(operand, Expr::Literal(_)) && matches!(against, Expr::Column(_))
}

fn parameterize(expr: &mut Expr, next: &mut usize) {
    let place = |operand: &mut Expr, lifted: bool, next: &mut usize| {
        if lifted {
            *next += 1;
            *operand = Expr::Parameter(*next);
        }
    };
    match expr {
        Expr::Binary {
            left,
            op: BinOp::And | BinOp::Or,
            right,
        } => {
            parameterize(left, next);
            parameterize(right, next);
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => parameterize(expr, next),
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (l, r) = (lifts(left, right), lifts(right, left));
            place(left, l, next);
            place(right, r, next);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            let (l, h) = (lifts(low, expr), lifts(high, expr));
            place(low, l, next);
            place(high, h, next);
        }
        Expr::InList { expr, list, .. } => {
            for item in list {
                let lifted = lifts(item, expr);
                place(item, lifted, next);
            }
        }
        _ => {}
    }
}

/// A select rendered with another WHERE clause.
struct WithSelection<'a>(&'a Select, &'a dyn fmt::Display);

impl fmt::Display for WithSelection<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt_with_selection(f, Some(self.1))
    }
}

/// Renders a WHERE expression as `Expr`'s `Display` does, except that each
/// literal [`lifts`] admits is written as the next placeholder and its value
/// appended to `values` — in text order, which is placeholder order.
struct LiftedExpr<'a> {
    expr: &'a Expr,
    values: &'a RefCell<Vec<Value>>,
}

/// One operand of a lifting site: its placeholder, or itself.
struct Operand<'a> {
    expr: &'a Expr,
    lifted: bool,
    values: &'a RefCell<Vec<Value>>,
}

impl<'a> LiftedExpr<'a> {
    fn sub(&self, expr: &'a Expr) -> LiftedExpr<'a> {
        LiftedExpr {
            expr,
            values: self.values,
        }
    }

    fn operand(&self, expr: &'a Expr, against: &Expr) -> Operand<'a> {
        Operand {
            expr,
            lifted: lifts(expr, against),
            values: self.values,
        }
    }
}

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.expr {
            Expr::Literal(v) if self.lifted => {
                let mut values = self.values.borrow_mut();
                values.push(v.clone());
                write!(f, "${}", values.len())
            }
            other => write!(f, "{other}"),
        }
    }
}

impl fmt::Display for LiftedExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let not = |negated: bool| if negated { "not " } else { "" };
        match self.expr {
            Expr::Binary {
                left,
                op: op @ (BinOp::And | BinOp::Or),
                right,
            } => write!(
                f,
                "({} {} {})",
                self.sub(left),
                op.symbol(),
                self.sub(right)
            ),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => write!(f, "(not {})", self.sub(expr)),
            Expr::Binary { left, op, right } if op.is_comparison() => write!(
                f,
                "({} {} {})",
                self.operand(left, right),
                op.symbol(),
                self.operand(right, left)
            ),
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => write!(
                f,
                "({expr} {}between {} and {})",
                not(*negated),
                self.operand(low, expr),
                self.operand(high, expr)
            ),
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                write!(f, "({expr} {}in (", not(*negated))?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.operand(item, expr))?;
                }
                write!(f, "))")
            }
            other => write!(f, "{other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Lifted shapes (the plan cache's key for a text read)
// ---------------------------------------------------------------------------

/// The key a text SELECT shares a cached plan under, found without
/// rendering it: a hash of its *lifted shape* — the statement's tree with
/// each literal [`lift_where_literals`] lifts standing as the placeholder it
/// becomes. Two statements whose lifted texts are equal have equal shapes.
/// The hash only finds a candidate: a cache confirms it with
/// [`LiftedShape::matches`] against the shape it stored, a full structural
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiftedKey {
    pub hash: u64,
    /// Whether the statement lifts at all: one with placeholders of its own
    /// lifts nothing, as in [`lift_where_literals`].
    lift: bool,
}

impl LiftedKey {
    /// One walk of `select`: its key, and the lifted literals in
    /// placeholder order (`values[N - 1]` is what `$N` stands for).
    pub fn of(select: &Select) -> (LiftedKey, Vec<Value>) {
        let mut hash = HashSink::default();
        let lift = Walk::run(select, true, &mut hash);
        if !lift {
            hash = HashSink::default();
            Walk::run(select, false, &mut hash);
        }
        (LiftedKey { hash: hash.h, lift }, hash.values)
    }

    /// `select`'s shape, owned, to store beside what the key finds.
    /// `select` is the statement this key was made from.
    pub fn shape(&self, select: &Select) -> LiftedShape {
        let mut owned = OwnedSink::default();
        Walk::run(select, self.lift, &mut owned);
        LiftedShape(owned.atoms)
    }
}

/// A hash of `text`, mixed as a shape mixes a name: what a cache keyed on
/// exact statement text can look a text up by without copying it.
pub fn hash_text(text: &str) -> u64 {
    let mut sink = HashSink::default();
    sink.name(text);
    sink.h
}

/// A statement's lifted shape, stored: see [`LiftedKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftedShape(Vec<Atom>);

impl LiftedShape {
    /// Whether `select` (the statement `key` was made from) has this shape:
    /// a node-by-node comparison of the two trees, literals by their bits,
    /// lifted literals as placeholders.
    pub fn matches(&self, select: &Select, key: &LiftedKey) -> bool {
        let mut cmp = CompareSink {
            atoms: &self.0,
            pos: 0,
            equal: true,
        };
        Walk::run(select, key.lift, &mut cmp);
        cmp.equal && cmp.pos == self.0.len()
    }
}

/// One token of a shape: a tag, a count or a scalar's bits, or a name.
/// The walk writes every node as its tag and then its fields, and every
/// list with its length first, so two trees write equal sequences exactly
/// when they are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Atom {
    Word(u64),
    Name(Box<str>),
}

/// Where a walk writes its atoms.
trait Sink<'a> {
    fn word(&mut self, w: u64);
    fn name(&mut self, s: &'a str);
    /// The `n`th lifted literal: written as placeholder `$n` would be.
    fn lifted(&mut self, n: usize, _literal: &'a Value) {
        self.word(tag::PARAM);
        self.word(n as u64);
    }
}

#[derive(Default)]
struct HashSink {
    h: u64,
    values: Vec<Value>,
}

impl HashSink {
    fn mix(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl<'a> Sink<'a> for HashSink {
    fn word(&mut self, w: u64) {
        self.mix(w);
    }
    fn name(&mut self, s: &'a str) {
        self.mix(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(b));
        }
    }
    fn lifted(&mut self, n: usize, v: &'a Value) {
        self.values.push(v.clone());
        self.mix(tag::PARAM);
        self.mix(n as u64);
    }
}

#[derive(Default)]
struct OwnedSink {
    atoms: Vec<Atom>,
}

impl<'a> Sink<'a> for OwnedSink {
    fn word(&mut self, w: u64) {
        self.atoms.push(Atom::Word(w));
    }
    fn name(&mut self, s: &'a str) {
        self.atoms.push(Atom::Name(s.into()));
    }
}

struct CompareSink<'s> {
    atoms: &'s [Atom],
    pos: usize,
    equal: bool,
}

impl CompareSink<'_> {
    fn next(&mut self) -> Option<&Atom> {
        let atom = self.atoms.get(self.pos);
        self.pos += 1;
        atom
    }
}

impl<'a> Sink<'a> for CompareSink<'_> {
    fn word(&mut self, w: u64) {
        if self.equal {
            self.equal = matches!(self.next(), Some(Atom::Word(x)) if *x == w);
        }
    }
    fn name(&mut self, s: &'a str) {
        if self.equal {
            self.equal = matches!(self.next(), Some(Atom::Name(x)) if **x == *s);
        }
    }
}

/// Node tags of a shape.
mod tag {
    pub const COLUMN: u64 = 1;
    pub const LITERAL: u64 = 2;
    pub const PARAM: u64 = 3;
    pub const UNARY: u64 = 4;
    pub const BINARY: u64 = 5;
    pub const FUNCTION: u64 = 6;
    pub const CASE: u64 = 7;
    pub const BETWEEN: u64 = 8;
    pub const IN_LIST: u64 = 9;
    pub const IN_SUBQUERY: u64 = 10;
    pub const EXISTS: u64 = 11;
    pub const SCALAR: u64 = 12;
    pub const LIKE: u64 = 13;
    pub const IS_NULL: u64 = 14;
}

/// The walk behind [`LiftedKey`] and [`LiftedShape`]: with `lift` set, the
/// top-level WHERE's liftable literals ([`lifts`], the sites
/// [`parameterize_where_literals`] replaces, in its order) go to the sink as
/// placeholders.
struct Walk<'s, S> {
    sink: &'s mut S,
    lift: bool,
    lifted: usize,
    saw_param: bool,
}

impl<'a, 's, S: Sink<'a>> Walk<'s, S> {
    /// Walks `select`; false when it lifted a literal of a statement that
    /// has placeholders of its own — the caller walks again without lifting.
    fn run(select: &'a Select, lift: bool, sink: &'s mut S) -> bool {
        let mut walk = Walk {
            sink,
            lift,
            lifted: 0,
            saw_param: false,
        };
        walk.select(select, lift);
        !(walk.saw_param && walk.lifted > 0)
    }

    fn word(&mut self, w: u64) {
        self.sink.word(w);
    }

    fn opt_name(&mut self, s: &'a Option<String>) {
        match s {
            None => self.word(0),
            Some(s) => {
                self.word(1);
                self.sink.name(s);
            }
        }
    }

    fn select(&mut self, q: &'a Select, top: bool) {
        self.word(q.quantifier as u64);
        self.word(q.items.len() as u64);
        for item in &q.items {
            match item {
                SelectItem::Wildcard => self.word(0),
                SelectItem::Expr { expr, alias } => {
                    self.word(1);
                    self.expr(expr);
                    self.opt_name(alias);
                }
            }
        }
        self.word(q.from.len() as u64);
        for t in &q.from {
            match t {
                TableRef::Table { name, alias } => {
                    self.word(0);
                    self.sink.name(name);
                    self.opt_name(alias);
                }
                TableRef::Subquery { query, alias } => {
                    self.word(1);
                    self.select(query, false);
                    self.sink.name(alias);
                }
            }
        }
        match &q.selection {
            None => self.word(0),
            Some(e) => {
                self.word(1);
                if top && self.lift {
                    self.where_expr(e);
                } else {
                    self.expr(e);
                }
            }
        }
        self.exprs(&q.group_by);
        self.opt_expr(q.having.as_ref());
        self.word(q.order_by.len() as u64);
        for o in &q.order_by {
            self.expr(&o.expr);
            self.word(o.desc as u64);
        }
        match q.limit {
            None => self.word(0),
            Some(n) => {
                self.word(1);
                self.word(n);
            }
        }
    }

    fn exprs(&mut self, es: &'a [Expr]) {
        self.word(es.len() as u64);
        for e in es {
            self.expr(e);
        }
    }

    fn opt_expr(&mut self, e: Option<&'a Expr>) {
        match e {
            None => self.word(0),
            Some(e) => {
                self.word(1);
                self.expr(e);
            }
        }
    }

    /// A lifting site's operand: its placeholder, or itself.
    fn operand(&mut self, e: &'a Expr, lifted: bool) {
        match e {
            Expr::Literal(v) if lifted => {
                self.lifted += 1;
                self.sink.lifted(self.lifted, v);
            }
            other => self.expr(other),
        }
    }

    /// The top-level WHERE, looking through `AND`, `OR` and `NOT` for the
    /// sites [`parameterize`] lifts; each node written as [`Self::expr`]
    /// writes it.
    fn where_expr(&mut self, e: &'a Expr) {
        match e {
            Expr::Binary {
                left,
                op: op @ (BinOp::And | BinOp::Or),
                right,
            } => {
                self.word(tag::BINARY);
                self.word(*op as u64);
                self.where_expr(left);
                self.where_expr(right);
            }
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                self.word(tag::UNARY);
                self.word(UnaryOp::Not as u64);
                self.where_expr(expr);
            }
            Expr::Binary { left, op, right } if op.is_comparison() => {
                self.word(tag::BINARY);
                self.word(*op as u64);
                self.operand(left, lifts(left, right));
                self.operand(right, lifts(right, left));
            }
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                self.word(tag::BETWEEN);
                self.expr(expr);
                self.word(*negated as u64);
                self.operand(low, lifts(low, expr));
                self.operand(high, lifts(high, expr));
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                self.word(tag::IN_LIST);
                self.expr(expr);
                self.word(*negated as u64);
                self.word(list.len() as u64);
                for item in list {
                    self.operand(item, lifts(item, expr));
                }
            }
            other => self.expr(other),
        }
    }

    fn value(&mut self, v: &'a Value) {
        match v {
            Value::Null => self.word(0),
            Value::Bool(b) => {
                self.word(1);
                self.word(*b as u64);
            }
            Value::Int(i) => {
                self.word(2);
                self.word(*i as u64);
            }
            Value::Float(f) => {
                self.word(3);
                self.word(f.to_bits());
            }
            Value::Str(s) => {
                self.word(4);
                self.sink.name(s);
            }
            Value::Date(d) => {
                self.word(5);
                self.word(d.0 as u64);
            }
            Value::Interval(iv) => {
                self.word(6);
                self.word(iv.months as u64);
                self.word(iv.days as u64);
            }
        }
    }

    fn expr(&mut self, e: &'a Expr) {
        match e {
            Expr::Column(c) => {
                self.word(tag::COLUMN);
                self.opt_name(&c.table);
                self.sink.name(&c.column);
            }
            Expr::Literal(v) => {
                self.word(tag::LITERAL);
                self.value(v);
            }
            Expr::Parameter(n) => {
                self.saw_param = true;
                self.word(tag::PARAM);
                self.word(*n as u64);
            }
            Expr::Unary { op, expr } => {
                self.word(tag::UNARY);
                self.word(*op as u64);
                self.expr(expr);
            }
            Expr::Binary { left, op, right } => {
                self.word(tag::BINARY);
                self.word(*op as u64);
                self.expr(left);
                self.expr(right);
            }
            Expr::Function {
                name,
                args,
                distinct,
                star,
            } => {
                self.word(tag::FUNCTION);
                self.sink.name(name);
                self.exprs(args);
                self.word(*distinct as u64);
                self.word(*star as u64);
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                self.word(tag::CASE);
                self.word(branches.len() as u64);
                for (cond, result) in branches {
                    self.expr(cond);
                    self.expr(result);
                }
                self.opt_expr(else_expr.as_deref());
            }
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                self.word(tag::BETWEEN);
                self.expr(expr);
                self.word(*negated as u64);
                self.expr(low);
                self.expr(high);
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                self.word(tag::IN_LIST);
                self.expr(expr);
                self.word(*negated as u64);
                self.exprs(list);
            }
            Expr::InSubquery {
                expr,
                negated,
                query,
            } => {
                self.word(tag::IN_SUBQUERY);
                self.expr(expr);
                self.word(*negated as u64);
                self.select(query, false);
            }
            Expr::Exists { negated, query } => {
                self.word(tag::EXISTS);
                self.word(*negated as u64);
                self.select(query, false);
            }
            Expr::ScalarSubquery(query) => {
                self.word(tag::SCALAR);
                self.select(query, false);
            }
            Expr::Like {
                expr,
                negated,
                pattern,
            } => {
                self.word(tag::LIKE);
                self.expr(expr);
                self.word(*negated as u64);
                self.expr(pattern);
            }
            Expr::IsNull { expr, negated } => {
                self.word(tag::IS_NULL);
                self.expr(expr);
                self.word(*negated as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn tables_of(sql: &str) -> Vec<String> {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => referenced_tables(&s),
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn tables_from_simple_join() {
        assert_eq!(
            tables_of("select * from lineitem, orders where l_orderkey = o_orderkey"),
            vec!["lineitem", "orders"]
        );
    }

    #[test]
    fn tables_from_exists_subquery() {
        assert_eq!(
            tables_of(
                "select o_orderpriority from orders where exists \
                 (select * from lineitem where l_orderkey = o_orderkey)"
            ),
            vec!["orders", "lineitem"]
        );
    }

    #[test]
    fn tables_deduplicated() {
        assert_eq!(
            tables_of(
                "select * from lineitem l1 where exists \
                 (select * from lineitem l2 where l2.l_orderkey = l1.l_orderkey)"
            ),
            vec!["lineitem"]
        );
    }

    #[test]
    fn tables_from_scalar_subquery_in_select_list() {
        assert_eq!(
            tables_of("select (select max(o_orderkey) from orders) from nation"),
            vec!["nation", "orders"]
        );
    }

    #[test]
    fn tables_from_derived_table() {
        assert_eq!(
            tables_of("select x from (select l_orderkey as x from lineitem) d"),
            vec!["lineitem"]
        );
    }

    #[test]
    fn statement_tables_for_dml() {
        let s = parse_statement("delete from orders where o_orderkey = 5").unwrap();
        assert_eq!(statement_tables(&s), vec!["orders"]);
    }

    #[test]
    fn walk_counts_all_exprs() {
        let stmt = parse_statement("select a + b from t where c > 1").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let mut count = 0;
        walk_select_exprs(&s, &mut |_| count += 1);
        // (a+b), a, b, (c>1), c, 1 = 6 nodes
        assert_eq!(count, 6);
    }

    #[test]
    fn bind_parameters_replaces_placeholders_everywhere() {
        let stmt = parse_statement(
            "select k from t where k >= $1 and k < $2 \
             and exists (select 1 from u where u.k >= $1)",
        )
        .unwrap();
        let Statement::Select(mut s) = stmt else {
            panic!()
        };
        assert_eq!(parameter_count(&s), 2);
        bind_parameters(&mut s, &[crate::Value::Int(10), crate::Value::Int(20)]).unwrap();
        assert_eq!(parameter_count(&s), 0);
        assert_eq!(
            s.to_string(),
            "select k from t where (((k >= 10) and (k < 20)) \
             and (exists (select 1 from u where (u.k >= 10))))"
        );
    }

    #[test]
    fn bind_parameters_rejects_short_binds() {
        let stmt = parse_statement("select k from t where k >= $1 and k < $2").unwrap();
        let Statement::Select(mut s) = stmt else {
            panic!()
        };
        assert!(bind_parameters(&mut s, &[crate::Value::Int(10)]).is_err());
    }

    fn select_of(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn lifting_writes_placeholders_for_comparison_operands_against_columns() {
        let s = select_of(
            "select a + 1 from t where a = 7 and (3 < b or not c between 2 and 4.5) \
             and d in ('x', 'y', e) and a + 1 = 2 and 1 = 1 and f like 'p%' \
             and exists (select 1 from u where u.k = 9) order by a limit 3",
        );
        let lifted = lift_where_literals(&s);
        assert_eq!(
            lifted.text,
            "select (a + 1) from t where (((((((a = $1) and (($2 < b) or \
             (not (c between $3 and $4)))) and (d in ($5, $6, e))) and ((a + 1) = 2)) \
             and (1 = 1)) and (f like 'p%')) and (exists (select 1 from u where (u.k = 9)))) \
             order by a limit 3"
        );
        assert_eq!(
            lifted.values,
            vec![
                Value::Int(7),
                Value::Int(3),
                Value::Int(2),
                Value::Float(4.5),
                Value::Str("x".into()),
                Value::Str("y".into()),
            ]
        );
        // The in-place form is the same statement, placeholders and all.
        let mut p = s.clone();
        parameterize_where_literals(&mut p);
        assert_eq!(p.to_string(), lifted.text);
        assert_eq!(parameter_count(&p), 6);
        bind_parameters(&mut p, &lifted.values).unwrap();
        assert_eq!(p, s);
    }

    #[test]
    fn a_statement_with_placeholders_lifts_nothing() {
        let s = select_of("select a from t where a = $1 and b = 2");
        let lifted = lift_where_literals(&s);
        assert_eq!(lifted.text, s.to_string());
        assert!(lifted.values.is_empty());
        let mut p = s.clone();
        parameterize_where_literals(&mut p);
        assert_eq!(p, s);
    }

    #[test]
    fn literals_differing_statements_share_one_lifted_text() {
        let a = lift_where_literals(&select_of("select x from t where k = 1"));
        let b = lift_where_literals(&select_of("select x from t where k = 'z'"));
        let c = lift_where_literals(&select_of("select x from t where 1 = k"));
        assert_eq!(a.text, b.text);
        assert_ne!(a.text, c.text, "the side the literal stands on is kept");
        assert_eq!(c.values, vec![Value::Int(1)]);
        let none = lift_where_literals(&select_of("select 1 from t"));
        assert_eq!(none.text, "select 1 from t");
        assert!(none.values.is_empty());
    }

    #[test]
    fn lifted_shapes_are_equal_exactly_when_lifted_texts_are() {
        let texts = [
            "select x from t where k = 1",
            "select x from t where k = 'z'",
            "select x from t where 1 = k",
            "select x from t where k = 1 and j = 2",
            "select x from t where k = 1 and j = 3",
            "select x from t where k = 1 or j = 3",
            "select x from t where k in (1, 2)",
            "select x from t where k in (3, 4)",
            "select x from t where k in (1, 2, 3)",
            "select x from t where k between 1 and 2",
            "select x from t where k not between 1 and 2",
            "select x, 1 from t where k = 1",
            "select x, 2 from t where k = 1",
            "select x, 2.0 from t where k = 1",
            "select x from t where k = 1 order by x",
            "select x from t where k = 1 order by x desc",
            "select x from t where k = 1 limit 5",
            "select x from t where k = 1 limit 6",
            "select x from t where k + 1 = 2",
            "select x from t where k + 1 = 3",
            "select x from t where k = $1 and j = 2",
            "select x from t where k = $1 and j = 3",
            "select x from t as t where k = 1",
            "select y from t where k = 1",
            "select x from u where k = 1",
            "select x from t where exists (select 1 from u where u.k = 9)",
            "select x from t where exists (select 1 from u where u.k = 8)",
            "select x from t",
        ];
        let stmts: Vec<Select> = texts.iter().map(|t| select_of(t)).collect();
        for (i, a) in stmts.iter().enumerate() {
            let (text_a, (key_a, values_a)) = (lift_where_literals(a), LiftedKey::of(a));
            assert_eq!(values_a, text_a.values, "{}", texts[i]);
            let shape_a = key_a.shape(a);
            for (j, b) in stmts.iter().enumerate() {
                let (text_b, (key_b, _)) = (lift_where_literals(b), LiftedKey::of(b));
                let same = text_a.text == text_b.text;
                assert_eq!(
                    shape_a.matches(b, &key_b),
                    same,
                    "{} / {}",
                    texts[i],
                    texts[j]
                );
                assert_eq!(
                    key_b.shape(b) == shape_a,
                    same,
                    "{} / {}",
                    texts[i],
                    texts[j]
                );
                if same {
                    assert_eq!(key_a.hash, key_b.hash, "{} / {}", texts[i], texts[j]);
                }
            }
        }
    }

    #[test]
    fn a_shape_compares_literals_by_their_bits() {
        let shape_of = |t: &str| {
            let s = select_of(t);
            LiftedKey::of(&s).0.shape(&s)
        };
        assert_ne!(shape_of("select 1 from t"), shape_of("select 1.0 from t"));
        let zero = Select {
            items: vec![SelectItem::Expr {
                expr: Expr::Literal(Value::Float(0.0)),
                alias: None,
            }],
            ..Select::default()
        };
        let mut negative_zero = zero.clone();
        negative_zero.items[0] = SelectItem::Expr {
            expr: Expr::Literal(Value::Float(-0.0)),
            alias: None,
        };
        let (key, _) = LiftedKey::of(&negative_zero);
        let (zero_key, _) = LiftedKey::of(&zero);
        assert!(!zero_key.shape(&zero).matches(&negative_zero, &key));
    }

    #[test]
    fn rewrite_top_level_only() {
        let stmt = parse_statement(
            "select sum(x) from t where exists (select sum(y) from u where u.k = t.k)",
        )
        .unwrap();
        let Statement::Select(mut s) = stmt else {
            panic!()
        };
        let mut touched = 0;
        rewrite_top_level_exprs(&mut s, &mut |_| touched += 1);
        // One select item and one where predicate.
        assert_eq!(touched, 2);
    }
}
