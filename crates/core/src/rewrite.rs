//! Simple Virtual Partitioning: query rewriting and composition planning.
//!
//! Given a query `Q` and `n` nodes, SVP produces sub-queries `Q_1..Q_n`,
//! "each formed by the addition of a different range predicate to Q at the
//! where clause" (paper §2), plus a *composition query* that rebuilds the
//! global result from the union of partial results:
//!
//! * partial aggregates are decomposed — `sum` stays `sum`, `count`
//!   re-aggregates as `sum` of partial counts, `min`/`max` stay, and `avg`
//!   "must be rewritten in the sub-queries as a sum() function followed by
//!   a count() function to address a global average" (§2);
//! * `GROUP BY` runs on both levels (per node, then over partials);
//! * `HAVING`, `ORDER BY` and `LIMIT` move entirely to the composition
//!   step (they constrain *global* aggregates);
//! * subqueries (`EXISTS`, `IN`, scalar) are left untouched: every replica
//!   holds the full database, so a subquery evaluates identically on every
//!   node — only the *outer* fact-table reference is partitioned. This is
//!   how Q4 and Q21 stay SVP-eligible even though the paper notes derived
//!   partitioning cannot be pushed *into* subqueries.
//!
//! When the query references several fact tables at the top level (Q3, Q5,
//! Q12, Q21 join `orders` and `lineitem`), the rewriter range-restricts
//! every reference that is connected to the primary one by a VPA-equality
//! join over the same key domain — the paper's derived partitioning. An
//! unconnected fact reference is simply left unpartitioned, which is always
//! correct on replicated data.

use apuama_sql::ast::{
    is_aggregate_name, Expr, Select, SelectItem, SetQuantifier, Statement, TableRef,
};
use apuama_sql::{parse_statement, visit, ParseError};
use std::sync::{Arc, OnceLock};

pub use apuama_engine::FoldFn;
use apuama_engine::{eval::split_conjuncts, exec::select_has_aggregates};

use crate::catalog::DataCatalog;

/// Name of the staging table the composition query reads. The Result
/// Composer loads every node's partial rows into this table.
pub const PARTIALS_TABLE: &str = "svp_partials";

/// Outcome of a rewrite attempt.
// The Svp variant embeds the full template for range re-rendering; plans
// are built once per query, so the size gap to Passthrough is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Rewritten {
    /// The query cannot (or need not) use SVP; run it on one node as-is.
    Passthrough {
        /// Why SVP was not applied (diagnostics, tests, EXPLAIN).
        reason: String,
    },
    /// The SVP plan: one sub-query per node plus the composition step.
    Svp(SvpPlan),
}

/// A complete SVP execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SvpPlan {
    /// One sub-query per partition, in partition order, in prepared form:
    /// statement text with `$N` placeholders for the range bounds, plus the
    /// bound values. All interior partitions share one statement text, so
    /// a node executing several ranges parses and plans once and re-binds
    /// per range.
    pub prepared: Vec<(String, Vec<apuama_sql::Value>)>,
    /// The VPA bounds behind each sub-query, `(lo, hi)` half-open with
    /// `None` = unbounded: `prepared[i]` is the template rendered for
    /// `ranges[i]`, which is why the executor can hand a failed node's
    /// whole range to a surviving replica as the planned statement. Whoever
    /// wants a range's sub-query with its bounds as literals — a shell
    /// printing the rewrite, a test comparing against the literal text —
    /// renders it from these ([`QueryTemplate::subquery_for_range`]).
    pub ranges: Vec<(Option<i64>, Option<i64>)>,
    /// The same sub-queries with their bounds as literals, rendered on
    /// first index and not before: nothing that runs a plan reads them.
    pub subqueries: LiteralSubqueries,
    /// Column names of the partial results (the staging table's schema).
    pub partial_columns: Vec<String>,
    /// Composition query over [`PARTIALS_TABLE`].
    pub composition_sql: String,
    /// Output column names of the final result.
    pub output_columns: Vec<String>,
    /// Which tables were range-restricted (diagnostics).
    pub partitioned_tables: Vec<String>,
    /// Structured description of the composition step, for composers that
    /// fold partials incrementally instead of replaying `composition_sql`
    /// over a full staging table.
    pub compose: ComposeSpec,
    /// The template this plan was instantiated from, kept so a range can
    /// be rendered again with its bounds as literals.
    pub template: Arc<QueryTemplate>,
}

/// [`SvpPlan::subqueries`]: each range's sub-query with its bounds inlined,
/// `plan.subqueries[i]` being `template.subquery_for_range(ranges[i])`. The
/// texts are rendered together on the first index, so a plan that is only
/// executed never pays for them.
#[derive(Debug, Clone)]
pub struct LiteralSubqueries {
    template: Arc<QueryTemplate>,
    ranges: Vec<(Option<i64>, Option<i64>)>,
    texts: OnceLock<Vec<String>>,
}

impl std::ops::Index<usize> for LiteralSubqueries {
    type Output = String;

    fn index(&self, range: usize) -> &String {
        let texts = self.texts.get_or_init(|| {
            (self.ranges.iter())
                .map(|&(lo, hi)| self.template.subquery_for_range(lo, hi))
                .collect()
        });
        &texts[range]
    }
}

/// Equal when they render the same texts, rendered yet or not.
impl PartialEq for LiteralSubqueries {
    fn eq(&self, other: &Self) -> bool {
        self.template == other.template && self.ranges == other.ranges
    }
}

/// How partial rows combine into the final result — derived during
/// decomposition, so an incremental composer never has to re-parse
/// [`SvpPlan::composition_sql`].
#[derive(Debug, Clone, PartialEq)]
pub enum ComposeSpec {
    /// Non-aggregated query: partial rows *are* result rows; composition
    /// only unions them, then applies the global ORDER BY / LIMIT.
    Union,
    /// Aggregated query: the first `group_cols` partial columns are the
    /// grouping keys and column `group_cols + i` re-aggregates with
    /// `folds[i]`.
    Reaggregate {
        group_cols: usize,
        folds: Vec<FoldFn>,
    },
}

/// A reusable virtual-partitioning template: the decomposed sub-query with
/// a *hole* where the range predicate goes, plus the composition plan.
///
/// [`SvpPlan`] instantiates the hole with n static ranges; Adaptive Virtual
/// Partitioning ([`crate::avp`]) instantiates it repeatedly with small,
/// dynamically sized chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// The partial query without any range predicate.
    partial: Select,
    /// Partitioned references: binding name + partitioning metadata.
    partitioned: Vec<(String, crate::catalog::VirtualPartitioning)>,
    /// Column names of the partial results.
    pub partial_columns: Vec<String>,
    /// Composition query over [`PARTIALS_TABLE`].
    pub composition_sql: String,
    /// Output column names of the final result.
    pub output_columns: Vec<String>,
    /// Structured composition description (see [`ComposeSpec`]).
    pub compose: ComposeSpec,
}

impl QueryTemplate {
    /// The half-open VPA key range `[low, high + 1)` recorded in the Data
    /// Catalog for the primary partitioned table.
    pub fn key_range(&self) -> (i64, i64) {
        let vp = &self.partitioned[0].1;
        (vp.low, vp.high + 1)
    }

    /// Tables that receive range predicates (diagnostics).
    pub fn partitioned_tables(&self) -> Vec<String> {
        self.partitioned
            .iter()
            .map(|(b, vp)| {
                if *b == vp.table {
                    vp.table.clone()
                } else {
                    format!("{} ({})", vp.table, b)
                }
            })
            .collect()
    }

    /// The sub-query with `vpa >= lo AND vpa < hi` added for every
    /// partitioned binding, `lo` and `hi` being whatever expression stands
    /// for a present bound — the one rendering both forms below share, so
    /// their texts differ in the bounds' spelling and nothing else.
    fn ranged(&self, lo: Option<Expr>, hi: Option<Expr>) -> String {
        use apuama_sql::BinOp;
        let mut sub = self.partial.clone();
        for (binding, vp) in &self.partitioned {
            let col = || {
                Expr::Column(apuama_sql::ColumnRef::qualified(
                    binding.clone(),
                    vp.vpa.clone(),
                ))
            };
            let lo_pred = lo.clone().map(|b| Expr::binary(col(), BinOp::GtEq, b));
            let hi_pred = hi.clone().map(|b| Expr::binary(col(), BinOp::Lt, b));
            let range = lo_pred.into_iter().chain(hi_pred).reduce(Expr::and);
            sub.selection = (sub.selection.take().into_iter().chain(range)).reduce(Expr::and);
        }
        sub.to_string()
    }

    /// Renders the sub-query restricted to VPA keys in `[lo, hi)`; `None`
    /// on either side leaves that side unbounded.
    pub fn subquery_for_range(&self, lo: Option<i64>, hi: Option<i64>) -> String {
        let literal = |v| Expr::Literal(apuama_sql::Value::Int(v));
        self.ranged(lo.map(literal), hi.map(literal))
    }

    /// Renders the sub-query for `[lo, hi)` as a prepared statement:
    /// `$N` placeholders where [`QueryTemplate::subquery_for_range`] puts
    /// literals, plus the values to bind. Every partitioned binding shares
    /// the same one or two parameters, so the statement text depends only
    /// on *which* sides are bounded — interior SVP partitions all render
    /// the identical text and a node's plan cache satisfies them with one
    /// parse+plan. Binding the returned values reproduces the literal
    /// rendering byte for byte (the composed result cannot tell the paths
    /// apart).
    pub fn prepared_for_range(
        &self,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> (String, Vec<apuama_sql::Value>) {
        let params: Vec<_> = (lo.into_iter().chain(hi).map(apuama_sql::Value::Int)).collect();
        // `lo` binds first when present, so `hi` is the last parameter.
        let text = self.ranged(
            lo.map(|_| Expr::Parameter(1)),
            hi.map(|_| Expr::Parameter(params.len())),
        );
        (text, params)
    }

    /// Instantiates the paper's static SVP plan: `n` aligned partitions of
    /// the key range, first/last partitions unbounded outward.
    pub fn svp_plan(&self, n: usize) -> SvpPlan {
        Arc::new(self.clone()).into_svp_plan(n)
    }

    /// [`QueryTemplate::svp_plan`] on a template the plan may keep.
    fn into_svp_plan(self: Arc<Self>, n: usize) -> SvpPlan {
        assert!(n > 0);
        let vp = &self.partitioned[0].1;
        let ranges: Vec<_> = (0..n).map(|i| vp.partition_bounds(i, n)).collect();
        SvpPlan {
            prepared: (ranges.iter())
                .map(|&(lo, hi)| self.prepared_for_range(lo, hi))
                .collect(),
            subqueries: LiteralSubqueries {
                template: Arc::clone(&self),
                ranges: ranges.clone(),
                texts: OnceLock::new(),
            },
            ranges,
            partial_columns: self.partial_columns.clone(),
            composition_sql: self.composition_sql.clone(),
            output_columns: self.output_columns.clone(),
            partitioned_tables: self.partitioned_tables(),
            compose: self.compose.clone(),
            template: self,
        }
    }
}

/// The SVP rewriter, parameterized by the Data Catalog.
#[derive(Debug, Clone, Default)]
pub struct SvpRewriter {
    catalog: DataCatalog,
}

/// Internal: one aggregate call found in the query, with its
/// composition-side replacement (dedup by rendered SQL so `sum(x)` used in
/// two clauses shares one partial column).
struct AggSlot {
    key: String,
    replacement: Expr,
}

impl SvpRewriter {
    pub fn new(catalog: DataCatalog) -> Self {
        SvpRewriter { catalog }
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &DataCatalog {
        &self.catalog
    }

    /// Rewrites SQL text for `n` nodes. Parse errors bubble; eligibility
    /// failures return [`Rewritten::Passthrough`].
    pub fn rewrite(&self, sql: &str, n: usize) -> Result<Rewritten, ParseError> {
        Ok(self.rewrite_statement(&parse_statement(sql)?, n))
    }

    /// Rewrites a parsed statement for `n` nodes: only a SELECT can be
    /// eligible.
    pub fn rewrite_statement(&self, stmt: &Statement, n: usize) -> Rewritten {
        match stmt {
            Statement::Select(q) => self.rewrite_select(q, n),
            _ => passthrough("not a SELECT"),
        }
    }

    /// Rewrites a parsed SELECT for `n` nodes.
    pub fn rewrite_select(&self, q: &Select, n: usize) -> Rewritten {
        assert!(n > 0, "cluster has at least one node");
        match self.build_template(q) {
            Ok(template) => Rewritten::Svp(Arc::new(template).into_svp_plan(n)),
            Err(reason) => passthrough(reason),
        }
    }

    /// Like [`SvpRewriter::rewrite`] but returns the reusable
    /// [`QueryTemplate`] (for AVP and other adaptive executors) instead of
    /// a fixed n-way plan. `Ok(None)` means the query is not eligible.
    pub fn template(&self, sql: &str) -> Result<Option<QueryTemplate>, ParseError> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = stmt else {
            return Ok(None);
        };
        Ok(self.build_template(&select).ok())
    }

    /// Eligibility analysis + decomposition; `Err` carries the passthrough
    /// reason.
    fn build_template(&self, q: &Select) -> Result<QueryTemplate, String> {
        // -- eligibility -----------------------------------------------------
        if q.quantifier == SetQuantifier::Distinct {
            return Err("SELECT DISTINCT is not decomposed".into());
        }
        if q.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
            return Err("SELECT * has no stable partial schema".into());
        }
        if has_distinct_aggregate(q) {
            return Err("DISTINCT aggregates cannot be recomposed from partials".into());
        }

        // -- find partitionable references ------------------------------------
        // (binding name, table name) of every top-level fact reference.
        let mut fact_refs: Vec<(String, String)> = Vec::new();
        for t in &q.from {
            if let TableRef::Table { name, alias } = t {
                if self.catalog.get(name).is_some() {
                    let binding = alias.clone().unwrap_or_else(|| name.clone());
                    fact_refs.push((binding, name.clone()));
                }
            }
        }
        let Some((primary_binding, primary_table)) = fact_refs.first().cloned() else {
            return Err("no virtually partitionable table referenced".into());
        };
        let primary_vp = self
            .catalog
            .get(&primary_table)
            .expect("fact_refs only holds catalog tables")
            .clone();

        // Derived partitioning: other fact refs in the same key domain that
        // are VPA-equality-joined to the primary reference.
        let conjuncts = split_conjuncts(q.selection.as_ref());
        let mut partitioned: Vec<(String, crate::catalog::VirtualPartitioning)> =
            vec![(primary_binding.clone(), primary_vp.clone())];
        for (binding, table) in fact_refs.iter().skip(1) {
            let vp = self.catalog.get(table).expect("catalog table").clone();
            if vp.domain != primary_vp.domain {
                continue;
            }
            let joined = conjuncts
                .iter()
                .any(|c| is_vpa_equality(c, &primary_binding, &primary_vp.vpa, binding, &vp.vpa));
            if joined {
                partitioned.push((binding.clone(), vp));
            }
        }

        // -- decomposition ----------------------------------------------------
        let aggregated = !q.group_by.is_empty() || select_has_aggregates(q);
        let decomposition = if aggregated {
            decompose_aggregated(q)?
        } else {
            decompose_plain(q)
        };

        // -- template ----------------------------------------------------------
        let partial = Select {
            quantifier: SetQuantifier::All,
            items: decomposition
                .partial_items
                .iter()
                .map(|(alias, expr)| SelectItem::Expr {
                    expr: expr.clone(),
                    alias: Some(alias.clone()),
                })
                .collect(),
            from: q.from.clone(),
            selection: q.selection.clone(),
            group_by: q.group_by.clone(),
            having: None,
            order_by: vec![],
            limit: None,
        };
        Ok(QueryTemplate {
            partial,
            partitioned,
            partial_columns: decomposition
                .partial_items
                .iter()
                .map(|(alias, _)| alias.clone())
                .collect(),
            composition_sql: decomposition.composition.to_string(),
            output_columns: decomposition.output_columns,
            compose: decomposition.compose,
        })
    }
}

fn passthrough(reason: impl Into<String>) -> Rewritten {
    Rewritten::Passthrough {
        reason: reason.into(),
    }
}

/// Decomposition product shared by both query shapes.
struct Decomposition {
    partial_items: Vec<(String, Expr)>,
    composition: Select,
    output_columns: Vec<String>,
    compose: ComposeSpec,
}

/// True if the conjunct is `a.vpa_a = b.vpa_b` in either order.
fn is_vpa_equality(c: &Expr, binding_a: &str, vpa_a: &str, binding_b: &str, vpa_b: &str) -> bool {
    let Expr::Binary {
        left,
        op: apuama_sql::BinOp::Eq,
        right,
    } = c
    else {
        return false;
    };
    let is_ref = |e: &Expr, binding: &str, vpa: &str| -> bool {
        match e {
            Expr::Column(col) => {
                col.column == vpa
                    && match &col.table {
                        Some(q) => q == binding,
                        None => true,
                    }
            }
            _ => false,
        }
    };
    (is_ref(left, binding_a, vpa_a) && is_ref(right, binding_b, vpa_b))
        || (is_ref(left, binding_b, vpa_b) && is_ref(right, binding_a, vpa_a))
}

fn has_distinct_aggregate(q: &Select) -> bool {
    let mut found = false;
    let mut check = |e: &Expr| {
        visit::shallow_walk(e, &mut |x| {
            if let Expr::Function { name, distinct, .. } = x {
                if *distinct && is_aggregate_name(name) {
                    found = true;
                }
            }
        });
    };
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            check(expr);
        }
    }
    if let Some(h) = &q.having {
        check(h);
    }
    for o in &q.order_by {
        check(&o.expr);
    }
    found
}

/// Non-aggregated queries: partials are the original projection; the
/// composition is a plain union with the global ORDER BY / LIMIT.
fn decompose_plain(q: &Select) -> Decomposition {
    let mut partial_items = Vec::with_capacity(q.items.len());
    let mut output_columns = Vec::with_capacity(q.items.len());
    for (i, item) in q.items.iter().enumerate() {
        let SelectItem::Expr { expr, .. } = item else {
            unreachable!("wildcards rejected in eligibility");
        };
        let name = item.output_name(i);
        partial_items.push((name.clone(), expr.clone()));
        output_columns.push(name);
    }
    let composition = Select {
        items: output_columns
            .iter()
            .map(|n| SelectItem::Expr {
                expr: Expr::col(n.clone()),
                alias: None,
            })
            .collect(),
        from: vec![TableRef::Table {
            name: PARTIALS_TABLE.into(),
            alias: None,
        }],
        order_by: rewrite_order_by_plain(q, &output_columns),
        limit: q.limit,
        ..Select::default()
    };
    Decomposition {
        partial_items,
        composition,
        output_columns,
        compose: ComposeSpec::Union,
    }
}

/// For non-aggregated queries, ORDER BY items must reference output
/// columns; anything else already fell back at eligibility time... except
/// we accept column expressions matching output names only and silently
/// keep the others as-is (they will fail at composition, surfacing a clear
/// error rather than a wrong answer).
fn rewrite_order_by_plain(q: &Select, output_columns: &[String]) -> Vec<apuama_sql::OrderByItem> {
    q.order_by
        .iter()
        .map(|o| {
            let expr = match &o.expr {
                Expr::Column(c) if output_columns.contains(&c.column) => {
                    Expr::col(c.column.clone())
                }
                other => other.clone(),
            };
            apuama_sql::OrderByItem { expr, desc: o.desc }
        })
        .collect()
}

/// Aggregated queries: the full decomposition.
fn decompose_aggregated(q: &Select) -> Result<Decomposition, String> {
    let mut slots: Vec<AggSlot> = Vec::new();
    let mut partial_items: Vec<(String, Expr)> = Vec::new();
    // Fold function per aggregate partial column, appended in lockstep with
    // `partial_items` pushes inside `transform_expr`.
    let mut folds: Vec<FoldFn> = Vec::new();

    // 1. Group-by expressions become partial columns (named after the
    //    select item that exposes them, or a synthetic name).
    let mut group_aliases: Vec<(Expr, String)> = Vec::new();
    for (gi, g) in q.group_by.iter().enumerate() {
        let alias = q
            .items
            .iter()
            .enumerate()
            .find_map(|(i, item)| match item {
                SelectItem::Expr { expr, .. } if expr == g => Some(item.output_name(i)),
                _ => None,
            })
            .unwrap_or_else(|| format!("svp_grp{gi}"));
        partial_items.push((alias.clone(), g.clone()));
        group_aliases.push((g.clone(), alias));
    }

    // 2. Transform each output clause.
    let mut comp_items = Vec::with_capacity(q.items.len());
    let mut output_columns = Vec::with_capacity(q.items.len());
    for (i, item) in q.items.iter().enumerate() {
        let SelectItem::Expr { expr, .. } = item else {
            unreachable!("wildcards rejected in eligibility");
        };
        let name = item.output_name(i);
        let comp_expr = transform_expr(
            expr,
            &group_aliases,
            &mut slots,
            &mut partial_items,
            &mut folds,
        )?;
        comp_items.push(SelectItem::Expr {
            expr: comp_expr,
            alias: Some(name.clone()),
        });
        output_columns.push(name);
    }
    let comp_having = match &q.having {
        None => None,
        Some(h) => Some(transform_expr(
            h,
            &group_aliases,
            &mut slots,
            &mut partial_items,
            &mut folds,
        )?),
    };
    let comp_order: Vec<apuama_sql::OrderByItem> = q
        .order_by
        .iter()
        .map(|o| {
            let expr = match &o.expr {
                // Bare reference to an output column stays as-is.
                Expr::Column(c) if c.table.is_none() && output_columns.contains(&c.column) => {
                    Ok(Expr::col(c.column.clone()))
                }
                other => transform_expr(
                    other,
                    &group_aliases,
                    &mut slots,
                    &mut partial_items,
                    &mut folds,
                ),
            }?;
            Ok(apuama_sql::OrderByItem { expr, desc: o.desc })
        })
        .collect::<Result<_, String>>()?;

    let composition = Select {
        items: comp_items,
        from: vec![TableRef::Table {
            name: PARTIALS_TABLE.into(),
            alias: None,
        }],
        group_by: group_aliases
            .iter()
            .map(|(_, alias)| Expr::col(alias.clone()))
            .collect(),
        having: comp_having,
        order_by: comp_order,
        limit: q.limit,
        ..Select::default()
    };
    let compose = ComposeSpec::Reaggregate {
        group_cols: group_aliases.len(),
        folds,
    };
    Ok(Decomposition {
        partial_items,
        composition,
        output_columns,
        compose,
    })
}

/// Rewrites one expression for the composition query: aggregate calls are
/// decomposed into re-aggregations over partial columns; grouped
/// expressions become their partial-column references; anything else must
/// be built from those two, or the query is not decomposable.
fn transform_expr(
    e: &Expr,
    group_aliases: &[(Expr, String)],
    slots: &mut Vec<AggSlot>,
    partial_items: &mut Vec<(String, Expr)>,
    folds: &mut Vec<FoldFn>,
) -> Result<Expr, String> {
    // Grouped expression? Any shape is fine if it structurally matches.
    if let Some((_, alias)) = group_aliases.iter().find(|(g, _)| g == e) {
        return Ok(Expr::col(alias.clone()));
    }
    match e {
        Expr::Function {
            name,
            args,
            distinct: false,
            star,
        } if is_aggregate_name(name) => {
            let key = e.to_string();
            if let Some(slot) = slots.iter().find(|s| s.key == key) {
                return Ok(slot.replacement.clone());
            }
            let k = slots.len();
            let (partials, replacement) = match name.as_str() {
                // sum(e) ⇒ partial sum, recomposed by sum.
                "sum" => {
                    let alias = format!("svp_agg{k}");
                    (
                        vec![(alias.clone(), e.clone(), FoldFn::Sum)],
                        agg_over_column("sum", &alias),
                    )
                }
                // count(*) / count(e) ⇒ partial count, recomposed by SUM of
                // partial counts.
                "count" => {
                    let alias = format!("svp_agg{k}");
                    (
                        vec![(alias.clone(), e.clone(), FoldFn::Sum)],
                        agg_over_column("sum", &alias),
                    )
                }
                "min" | "max" => {
                    let alias = format!("svp_agg{k}");
                    let fold = if name == "min" {
                        FoldFn::Min
                    } else {
                        FoldFn::Max
                    };
                    (
                        vec![(alias.clone(), e.clone(), fold)],
                        agg_over_column(name, &alias),
                    )
                }
                // avg(x) ⇒ partial sum(x) and count(x); global average is
                // sum of sums over sum of counts (§2).
                "avg" => {
                    let arg = args
                        .first()
                        .cloned()
                        .ok_or_else(|| "avg() needs an argument".to_string())?;
                    let sum_alias = format!("svp_agg{k}_sum");
                    let cnt_alias = format!("svp_agg{k}_cnt");
                    let sum_part = Expr::Function {
                        name: "sum".into(),
                        args: vec![arg.clone()],
                        distinct: false,
                        star: false,
                    };
                    let cnt_part = Expr::Function {
                        name: "count".into(),
                        args: vec![arg],
                        distinct: false,
                        star: false,
                    };
                    // Force float division: integer sums over integer
                    // counts would otherwise truncate (SQL's int/int rule).
                    let replacement = Expr::binary(
                        Expr::binary(
                            Expr::Literal(apuama_sql::Value::Float(1.0)),
                            apuama_sql::BinOp::Mul,
                            agg_over_column("sum", &sum_alias),
                        ),
                        apuama_sql::BinOp::Div,
                        agg_over_column("sum", &cnt_alias),
                    );
                    (
                        vec![
                            (sum_alias, sum_part, FoldFn::Sum),
                            (cnt_alias, cnt_part, FoldFn::Sum),
                        ],
                        replacement,
                    )
                }
                other => return Err(format!("aggregate {other}() is not decomposable")),
            };
            let _ = star;
            for (alias, expr, fold) in partials {
                partial_items.push((alias, expr));
                folds.push(fold);
            }
            slots.push(AggSlot {
                key,
                replacement: replacement.clone(),
            });
            Ok(replacement)
        }
        Expr::Literal(_) => Ok(e.clone()),
        Expr::Column(_) => Err(format!(
            "non-grouped column '{e}' in an aggregated clause cannot be recomposed"
        )),
        Expr::Binary { left, op, right } => Ok(Expr::Binary {
            left: Box::new(transform_expr(
                left,
                group_aliases,
                slots,
                partial_items,
                folds,
            )?),
            op: *op,
            right: Box::new(transform_expr(
                right,
                group_aliases,
                slots,
                partial_items,
                folds,
            )?),
        }),
        Expr::Unary { op, expr } => Ok(Expr::Unary {
            op: *op,
            expr: Box::new(transform_expr(
                expr,
                group_aliases,
                slots,
                partial_items,
                folds,
            )?),
        }),
        Expr::Case {
            branches,
            else_expr,
        } => {
            let mut new_branches = Vec::with_capacity(branches.len());
            for (c, r) in branches {
                new_branches.push((
                    transform_expr(c, group_aliases, slots, partial_items, folds)?,
                    transform_expr(r, group_aliases, slots, partial_items, folds)?,
                ));
            }
            let new_else = match else_expr {
                Some(x) => Some(Box::new(transform_expr(
                    x,
                    group_aliases,
                    slots,
                    partial_items,
                    folds,
                )?)),
                None => None,
            };
            Ok(Expr::Case {
                branches: new_branches,
                else_expr: new_else,
            })
        }
        other => Err(format!(
            "clause '{other}' mixes aggregation with shapes SVP cannot recompose"
        )),
    }
}

fn agg_over_column(func: &str, column: &str) -> Expr {
    Expr::Function {
        name: func.to_string(),
        args: vec![Expr::col(column.to_string())],
        distinct: false,
        star: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DataCatalog;

    fn rewriter() -> SvpRewriter {
        SvpRewriter::new(DataCatalog::tpch(6_000_000))
    }

    fn svp(sql: &str, n: usize) -> SvpPlan {
        match rewriter().rewrite(sql, n).unwrap() {
            Rewritten::Svp(p) => p,
            Rewritten::Passthrough { reason } => panic!("unexpected passthrough: {reason}"),
        }
    }

    /// Each range's sub-query with its bounds as literals.
    fn literal_subqueries(plan: &SvpPlan) -> Vec<String> {
        (plan.ranges.iter())
            .map(|&(lo, hi)| plan.template.subquery_for_range(lo, hi))
            .collect()
    }

    #[test]
    fn paper_running_example() {
        // §2: "select sum(l_extendedprice) from lineitem" over 4 nodes.
        let plan = svp("select sum(l_extendedprice) from lineitem", 4);
        let subs = literal_subqueries(&plan);
        assert_eq!(subs.len(), 4);
        assert!(subs[1].contains("lineitem.l_orderkey >= 1500001"));
        assert!(subs[1].contains("lineitem.l_orderkey < 3000001"));
        // Partial sums recomposed by a global sum.
        assert!(plan.composition_sql.contains("sum(svp_agg0)"));
        assert!(plan.composition_sql.contains(PARTIALS_TABLE));
        assert_eq!(plan.partitioned_tables, vec!["lineitem".to_string()]);
    }

    #[test]
    fn subqueries_parse_back() {
        let plan = svp(
            "select l_returnflag, sum(l_quantity) as q, avg(l_discount) as d, count(*) as n \
             from lineitem group by l_returnflag order by l_returnflag",
            3,
        );
        for sub in &literal_subqueries(&plan) {
            apuama_sql::parse_statement(sub).unwrap_or_else(|e| panic!("{e}\n{sub}"));
        }
        apuama_sql::parse_statement(&plan.composition_sql).unwrap();
    }

    #[test]
    fn avg_decomposes_to_sum_and_count() {
        let plan = svp("select avg(l_quantity) as a from lineitem", 2);
        assert!(plan.partial_columns.iter().any(|c| c.ends_with("_sum")));
        assert!(plan.partial_columns.iter().any(|c| c.ends_with("_cnt")));
        assert!(plan.composition_sql.contains("sum(svp_agg0_sum)"));
        assert!(plan.composition_sql.contains("sum(svp_agg0_cnt)"));
    }

    #[test]
    fn count_recomposes_as_sum() {
        let plan = svp("select count(*) as n from orders", 2);
        assert!(plan.composition_sql.contains("sum(svp_agg0) as n"));
        // Partition predicate applies to orders via its own VPA.
        assert!(literal_subqueries(&plan)[0].contains("orders.o_orderkey <"));
    }

    #[test]
    fn min_max_stay_min_max() {
        let plan = svp(
            "select min(o_totalprice) as lo, max(o_totalprice) as hi from orders",
            2,
        );
        assert!(plan.composition_sql.contains("min(svp_agg0) as lo"));
        assert!(plan.composition_sql.contains("max(svp_agg1) as hi"));
    }

    #[test]
    fn derived_partitioning_restricts_both_fact_tables() {
        let plan = svp(
            "select count(*) as n from orders, lineitem where l_orderkey = o_orderkey",
            4,
        );
        assert!(literal_subqueries(&plan)[1].contains("orders.o_orderkey"));
        assert!(literal_subqueries(&plan)[1].contains("lineitem.l_orderkey"));
        assert_eq!(plan.partitioned_tables.len(), 2);
    }

    #[test]
    fn unjoined_second_fact_table_is_not_partitioned() {
        // No VPA equality join: only the primary reference is restricted.
        let plan = svp(
            "select count(*) as n from orders, lineitem where l_partkey = o_custkey",
            4,
        );
        assert_eq!(plan.partitioned_tables, vec!["orders".to_string()]);
        assert!(!literal_subqueries(&plan)[1].contains("lineitem.l_orderkey >="));
    }

    #[test]
    fn aliased_fact_table_uses_alias_qualifier() {
        let plan = svp("select count(*) as n from lineitem l1", 2);
        assert!(literal_subqueries(&plan)[1].contains("l1.l_orderkey >="));
        assert_eq!(plan.partitioned_tables, vec!["lineitem (l1)".to_string()]);
    }

    #[test]
    fn subquery_references_stay_unpartitioned() {
        // Q4's shape: the EXISTS body must NOT receive a range predicate.
        let plan = svp(
            "select o_orderpriority, count(*) as c from orders \
             where exists (select * from lineitem where l_orderkey = o_orderkey) \
             group by o_orderpriority order by o_orderpriority",
            4,
        );
        let subs = literal_subqueries(&plan);
        let sub = &subs[2];
        // The exists body is between the parens; crude but effective check:
        // the only l_orderkey range predicates mention the *outer* orders VPA.
        assert!(sub.contains("orders.o_orderkey >="));
        assert!(!sub.contains("lineitem.l_orderkey >="));
    }

    #[test]
    fn group_by_runs_on_both_levels() {
        let plan = svp(
            "select o_orderpriority, count(*) as c from orders group by o_orderpriority",
            2,
        );
        for sub in &literal_subqueries(&plan) {
            assert!(sub.contains("group by o_orderpriority"));
        }
        assert!(plan.composition_sql.contains("group by o_orderpriority"));
    }

    #[test]
    fn having_order_limit_move_to_composition() {
        let plan = svp(
            "select o_orderpriority, count(*) as c from orders \
             group by o_orderpriority having count(*) > 5 \
             order by c desc limit 3",
            2,
        );
        for sub in &literal_subqueries(&plan) {
            assert!(!sub.contains("having"));
            assert!(!sub.contains("order by"));
            assert!(!sub.contains("limit"));
        }
        assert!(plan.composition_sql.contains("having"));
        assert!(plan.composition_sql.contains("order by c desc"));
        assert!(plan.composition_sql.contains("limit 3"));
        // HAVING over a global count must re-aggregate partial counts.
        assert!(plan.composition_sql.contains("(sum(svp_agg0) > 5)"));
    }

    #[test]
    fn expression_over_aggregates_recomposes() {
        // Q14's shape.
        let plan = svp(
            "select 100.0 * sum(l_extendedprice * l_discount) / sum(l_extendedprice) as r \
             from lineitem",
            2,
        );
        assert_eq!(plan.partial_columns.len(), 2);
        assert!(plan.composition_sql.contains("sum(svp_agg0)"));
        assert!(plan.composition_sql.contains("sum(svp_agg1)"));
    }

    #[test]
    fn shared_aggregate_uses_one_partial_column() {
        let plan = svp(
            "select sum(l_quantity) as a, sum(l_quantity) / count(*) as b from lineitem",
            2,
        );
        // sum(l_quantity) appears twice but yields one partial column; plus
        // one for count(*).
        assert_eq!(plan.partial_columns.len(), 2);
    }

    #[test]
    fn one_node_plan_has_no_range_predicate() {
        let plan = svp("select count(*) as n from lineitem", 1);
        assert_eq!(literal_subqueries(&plan).len(), 1);
        assert!(!literal_subqueries(&plan)[0].contains("l_orderkey"));
    }

    #[test]
    fn passthrough_cases() {
        let r = rewriter();
        for (sql, why) in [
            ("select c_name from customer", "partitionable"),
            ("select distinct l_orderkey from lineitem", "DISTINCT"),
            (
                "select count(distinct l_suppkey) from lineitem",
                "DISTINCT aggregates",
            ),
            ("select * from lineitem", "stable partial schema"),
        ] {
            match r.rewrite(sql, 4).unwrap() {
                Rewritten::Passthrough { reason } => {
                    assert!(reason.contains(why), "{sql}: {reason}")
                }
                Rewritten::Svp(_) => panic!("{sql} should not be SVP-eligible"),
            }
        }
    }

    #[test]
    fn non_select_is_passthrough() {
        match rewriter()
            .rewrite("insert into lineitem values (1)", 2)
            .unwrap()
        {
            Rewritten::Passthrough { reason } => assert!(reason.contains("not a SELECT")),
            _ => panic!(),
        }
    }

    #[test]
    fn non_aggregated_query_unions_partials() {
        let plan = svp(
            "select l_orderkey, l_quantity from lineitem where l_quantity > 49.0 \
             order by l_orderkey limit 5",
            2,
        );
        for sub in &literal_subqueries(&plan) {
            assert!(!sub.contains("limit"));
        }
        assert!(plan.composition_sql.contains("order by l_orderkey"));
        assert!(plan.composition_sql.contains("limit 5"));
        assert_eq!(plan.partial_columns, vec!["l_orderkey", "l_quantity"]);
    }

    #[test]
    fn prepared_subqueries_bind_back_to_the_literal_rendering() {
        use apuama_sql::{parse_statement, visit, Statement};
        let plan = svp(
            "select l_returnflag, sum(l_quantity) as q, count(*) as n \
             from lineitem group by l_returnflag",
            4,
        );
        let subs = literal_subqueries(&plan);
        assert_eq!(plan.prepared.len(), subs.len());
        for (i, (text, params)) in plan.prepared.iter().enumerate() {
            let Statement::Select(mut q) = parse_statement(text).unwrap() else {
                panic!()
            };
            assert_eq!(visit::parameter_count(&q), params.len());
            visit::bind_parameters(&mut q, params).unwrap();
            assert_eq!(q.to_string(), subs[i], "partition {i}");
            // The plan's own literal texts, rendered on this first index.
            assert_eq!(plan.subqueries[i], subs[i], "partition {i}");
        }
        // Outer partitions carry one bound side each; interior partitions
        // carry both and share one statement text (one plan per node).
        assert_eq!(plan.prepared[0].1.len(), 1);
        assert_eq!(plan.prepared[3].1.len(), 1);
        assert_eq!(plan.prepared[1].1.len(), 2);
        assert_eq!(plan.prepared[1].0, plan.prepared[2].0);
        assert_ne!(plan.prepared[1].1, plan.prepared[2].1);
    }

    #[test]
    fn prepared_derived_partitioning_shares_parameters_across_bindings() {
        let plan = svp(
            "select count(*) as n from orders, lineitem where l_orderkey = o_orderkey",
            4,
        );
        let (text, params) = &plan.prepared[1];
        // Both fact references are range-restricted by the *same* two
        // parameters, not four.
        assert_eq!(params.len(), 2);
        assert!(text.contains("orders.o_orderkey >= $1"));
        assert!(text.contains("lineitem.l_orderkey >= $1"));
        assert!(text.contains("orders.o_orderkey < $2"));
        assert!(text.contains("lineitem.l_orderkey < $2"));
    }

    #[test]
    fn one_node_prepared_plan_has_no_parameters() {
        let plan = svp("select count(*) as n from lineitem", 1);
        assert_eq!(plan.prepared[0].1, vec![]);
        assert_eq!(plan.prepared[0].0, literal_subqueries(&plan)[0]);
    }

    #[test]
    fn all_tpch_queries_are_svp_eligible() {
        use apuama_tpch::{QueryParams, ALL_QUERIES};
        let r = rewriter();
        let p = QueryParams::default();
        for q in ALL_QUERIES {
            match r.rewrite(&q.sql(&p), 8).unwrap() {
                Rewritten::Svp(plan) => {
                    assert_eq!(literal_subqueries(&plan).len(), 8, "{}", q.label());
                    for sub in &literal_subqueries(&plan) {
                        apuama_sql::parse_statement(sub)
                            .unwrap_or_else(|e| panic!("{}: {e}\n{sub}", q.label()));
                    }
                    apuama_sql::parse_statement(&plan.composition_sql)
                        .unwrap_or_else(|e| panic!("{}: {e}", q.label()));
                }
                Rewritten::Passthrough { reason } => {
                    panic!("{} unexpectedly passthrough: {reason}", q.label())
                }
            }
        }
    }

    /// Fault recovery hands a failed range to a survivor as
    /// `plan.prepared[range]`: that is only "the rewriter re-invoked on the
    /// residual range" while the two are the same statement and values.
    #[test]
    fn planned_statement_is_the_template_rendered_for_its_range() {
        use apuama_tpch::{QueryParams, ALL_QUERIES};
        let p = QueryParams::default();
        for q in ALL_QUERIES {
            for n in [1usize, 2, 4] {
                let plan = svp(&q.sql(&p), n);
                assert_eq!(plan.prepared.len(), n, "{}", q.label());
                for (i, &(lo, hi)) in plan.ranges.iter().enumerate() {
                    assert_eq!(
                        plan.prepared[i],
                        plan.template.prepared_for_range(lo, hi),
                        "{} range {i} of {n}",
                        q.label()
                    );
                }
            }
        }
    }
}
