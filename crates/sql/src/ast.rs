//! Typed abstract syntax tree for the supported SQL dialect.
//!
//! Every node implements `Display`, rendering back to SQL that this crate's
//! own parser accepts. That round-trip property (checked by property tests)
//! is what lets the Apuama SVP rewriter operate on trees and ship text to
//! black-box backends, exactly as the paper's middleware does with JDBC.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A possibly-qualified column reference (`l_orderkey`, `l.l_orderkey`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional table name or alias qualifier.
    pub table: Option<String>,
    /// Column name (stored lower-cased by the parser).
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Binary operators, in SQL notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    /// Operator token as it appears in SQL text.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }

    /// True for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value (including dates and intervals).
    Literal(Value),
    /// Prepared-statement placeholder `$N` (1-based), bound at execution.
    Parameter(usize),
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operation.
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// Function call — aggregates (`sum`, `avg`, `count`, `min`, `max`) and
    /// scalar helpers (`extract_year`, `substring`). `count(*)` is a call
    /// with `star = true`.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
    /// Searched CASE expression.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        negated: bool,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    /// `expr [NOT] IN (list...)`.
    InList {
        expr: Box<Expr>,
        negated: bool,
        list: Vec<Expr>,
    },
    /// `expr [NOT] IN (subquery)`. The three subquery forms hold their
    /// `Select` behind an `Arc`, so cloning an expression keeps the subquery
    /// node itself: an executor can recognise it by pointer across clones.
    InSubquery {
        expr: Box<Expr>,
        negated: bool,
        query: Arc<Select>,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists { negated: bool, query: Arc<Select> },
    /// Scalar subquery used as a value.
    ScalarSubquery(Arc<Select>),
    /// `expr [NOT] LIKE pattern` (pattern is `%`/`_` SQL syntax).
    Like {
        expr: Box<Expr>,
        negated: bool,
        pattern: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
}

impl Expr {
    /// Convenience constructor: `left op right`.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Convenience constructor: column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(name))
    }

    /// Convenience constructor: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Conjoins two predicates (`a AND b`).
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(self, BinOp::And, other)
    }

    /// True if the expression contains any aggregate function call at the
    /// top level of this expression tree (not descending into subqueries,
    /// where aggregates belong to the inner query).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, .. } if is_aggregate_name(name) => true,
            Expr::Function { args, .. } => args.iter().any(Expr::contains_aggregate),
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
            Expr::Column(_) | Expr::Literal(_) | Expr::Parameter(_) => false,
        }
    }
}

/// Returns true for the five aggregate function names of the dialect.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "sum" | "avg" | "count" | "min" | "max")
}

/// An item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `expr [AS alias]`.
    Expr { expr: Expr, alias: Option<String> },
    /// `*`.
    Wildcard,
}

impl SelectItem {
    /// The output column name for this item, mirroring common DBMS rules:
    /// the alias if present, the column name for bare references, otherwise
    /// a positional name supplied by the caller.
    pub fn output_name(&self, position: usize) -> String {
        match self {
            SelectItem::Expr { alias: Some(a), .. } => a.clone(),
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => c.column.clone(),
            SelectItem::Expr {
                expr: Expr::Function { name, .. },
                ..
            } => format!("{name}_{position}"),
            _ => format!("col_{position}"),
        }
    }
}

/// DISTINCT / ALL quantifier on a SELECT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetQuantifier {
    #[default]
    All,
    Distinct,
}

/// A table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table with optional alias.
    Table { name: String, alias: Option<String> },
    /// Derived table `(SELECT ...) alias`.
    Subquery { query: Box<Select>, alias: String },
}

impl TableRef {
    /// The name this relation is referred to by in the rest of the query.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Subquery { alias, .. } => alias,
        }
    }
}

/// Sort direction plus expression for ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A SELECT statement (comma-join FROM list, as the TPC-H queries use).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub quantifier: SetQuantifier,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

/// Column definition inside CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub not_null: bool,
}

/// Storage data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
    Date,
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Date => "date",
            DataType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Select),
    /// `EXPLAIN [ANALYZE] <statement>` — the engine renders the plan.
    /// Plain `EXPLAIN` never executes; `EXPLAIN ANALYZE` executes the
    /// inner statement and annotates each operator with actual row counts
    /// and timings.
    Explain {
        analyze: bool,
        inner: Box<Statement>,
    },
    Insert {
        table: String,
        columns: Vec<String>,
        rows: Vec<Vec<Expr>>,
    },
    Delete {
        table: String,
        selection: Option<Expr>,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        selection: Option<Expr>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        /// PRIMARY KEY column list (also the clustering key when
        /// `clustered` is set).
        primary_key: Vec<String>,
        /// `CLUSTERED BY (col)` — physical ordering attribute; Apuama's SVP
        /// requires fact tables clustered by the VPA.
        clustered_by: Option<String>,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
    },
    /// Session setting (`SET enable_seqscan = off`). The value is kept as a
    /// raw token: engines interpret it.
    Set {
        name: String,
        value: String,
    },
    Begin,
    Commit,
    Rollback,
}

impl Statement {
    /// True for statements that modify data (drive the cluster's write path).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Statement::Insert { .. }
                | Statement::Delete { .. }
                | Statement::Update { .. }
                | Statement::CreateTable { .. }
                | Statement::CreateIndex { .. }
        )
    }

    /// True for EXPLAIN (plain EXPLAIN never executes its inner
    /// statement; EXPLAIN ANALYZE does, to measure it).
    pub fn is_explain(&self) -> bool {
        matches!(self, Statement::Explain { .. })
    }

    /// True for plain read queries.
    pub fn is_read(&self) -> bool {
        matches!(self, Statement::Select(_))
    }
}

// ---------------------------------------------------------------------------
// Display: render the AST back to parseable SQL.
// ---------------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Parameter(n) => write!(f, "${n}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(- {expr})"),
                UnaryOp::Not => write!(f, "(not {expr})"),
            },
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Function {
                name,
                args,
                distinct,
                star,
            } => {
                if *star {
                    write!(f, "{name}(*)")
                } else {
                    write!(f, "{name}(")?;
                    if *distinct {
                        write!(f, "distinct ")?;
                    }
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "case")?;
                for (cond, result) in branches {
                    write!(f, " when {cond} then {result}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " else {e}")?;
                }
                write!(f, " end")
            }
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => write!(
                f,
                "({expr} {}between {low} and {high})",
                if *negated { "not " } else { "" }
            ),
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                write!(f, "({expr} {}in (", if *negated { "not " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::InSubquery {
                expr,
                negated,
                query,
            } => write!(
                f,
                "({expr} {}in ({query}))",
                if *negated { "not " } else { "" }
            ),
            Expr::Exists { negated, query } => {
                write!(
                    f,
                    "({}exists ({query}))",
                    if *negated { "not " } else { "" }
                )
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
            Expr::Like {
                expr,
                negated,
                pattern,
            } => write!(
                f,
                "({expr} {}like {pattern})",
                if *negated { "not " } else { "" }
            ),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} is {}null)", if *negated { "not " } else { "" })
            }
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => write!(f, "{expr} as {a}"),
            SelectItem::Wildcard => write!(f, "*"),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias: None } => write!(f, "{name}"),
            TableRef::Table {
                name,
                alias: Some(a),
            } => write!(f, "{name} {a}"),
            TableRef::Subquery { query, alias } => write!(f, "({query}) {alias}"),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_selection(f, self.selection.as_ref().map(|w| w as &dyn fmt::Display))
    }
}

impl Select {
    /// Renders the statement with `selection` written as its WHERE clause:
    /// `Display` passes the statement's own, the literal lifting
    /// ([`crate::visit::lift_where_literals`]) a rendering that writes
    /// placeholders for the literals it lifts.
    pub(crate) fn fmt_with_selection(
        &self,
        f: &mut fmt::Formatter<'_>,
        selection: Option<&dyn fmt::Display>,
    ) -> fmt::Result {
        write!(f, "select ")?;
        if self.quantifier == SetQuantifier::Distinct {
            write!(f, "distinct ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            write!(f, " from ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = selection {
            write!(f, " where {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " group by ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " having {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " order by ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    write!(f, " desc")?;
                }
            }
        }
        if let Some(l) = self.limit {
            write!(f, " limit {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Explain { analyze, inner } => {
                if *analyze {
                    write!(f, "explain analyze {inner}")
                } else {
                    write!(f, "explain {inner}")
                }
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                write!(f, "insert into {table}")?;
                if !columns.is_empty() {
                    write!(f, " ({})", columns.join(", "))?;
                }
                write!(f, " values ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Statement::Delete { table, selection } => {
                write!(f, "delete from {table}")?;
                if let Some(w) = selection {
                    write!(f, " where {w}")?;
                }
                Ok(())
            }
            Statement::Update {
                table,
                assignments,
                selection,
            } => {
                write!(f, "update {table} set ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = selection {
                    write!(f, " where {w}")?;
                }
                Ok(())
            }
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                clustered_by,
            } => {
                write!(f, "create table {name} (")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", c.name, c.data_type)?;
                    if c.not_null {
                        write!(f, " not null")?;
                    }
                }
                if !primary_key.is_empty() {
                    write!(f, ", primary key ({})", primary_key.join(", "))?;
                }
                write!(f, ")")?;
                if let Some(c) = clustered_by {
                    write!(f, " clustered by ({c})")?;
                }
                Ok(())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => write!(f, "create index {name} on {table} ({column})"),
            Statement::Set { name, value } => write!(f, "set {name} = {value}"),
            Statement::Begin => write!(f, "begin"),
            Statement::Commit => write!(f, "commit"),
            Statement::Rollback => write!(f, "rollback"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::new("l_orderkey").to_string(), "l_orderkey");
        assert_eq!(
            ColumnRef::qualified("l", "l_orderkey").to_string(),
            "l.l_orderkey"
        );
    }

    #[test]
    fn expr_builders_render() {
        let e = Expr::col("a").and(Expr::binary(Expr::col("b"), BinOp::Lt, Expr::lit(3i64)));
        assert_eq!(e.to_string(), "(a and (b < 3))");
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::binary(
            Expr::Function {
                name: "sum".into(),
                args: vec![Expr::col("x")],
                distinct: false,
                star: false,
            },
            BinOp::Div,
            Expr::lit(7i64),
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn exists_subquery_does_not_leak_aggregates() {
        let inner = Select {
            items: vec![SelectItem::Expr {
                expr: Expr::Function {
                    name: "count".into(),
                    args: vec![],
                    distinct: false,
                    star: true,
                },
                alias: None,
            }],
            ..Select::default()
        };
        let e = Expr::Exists {
            negated: false,
            query: Arc::new(inner),
        };
        assert!(!e.contains_aggregate());
    }

    #[test]
    fn statement_write_classification() {
        assert!(!Statement::Begin.is_write());
        assert!(Statement::Delete {
            table: "t".into(),
            selection: None
        }
        .is_write());
        assert!(Statement::Select(Select::default()).is_read());
    }
}
