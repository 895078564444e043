//! The Result Composer.
//!
//! Paper §3: "Sub-queries produced by SVP in Apuama are independently
//! processed by each node and their partial results must be combined in
//! order to form the final query result. Apuama uses HSQLDB, a fast
//! in-memory DBMS, to perform result composition."
//!
//! Our HSQLDB stand-in is the same relational engine the nodes run, with an
//! unbounded buffer pool ([`Database::in_memory`]): partial results are
//! loaded into the staging table and the composition query re-aggregates
//! them. The composition's own [`ExecStats`] are reported separately so the
//! simulator can price the composition step (the paper measures it at under
//! a second even for large partials).
//!
//! Composition is a per-query step and a composer is a per-query value: a
//! [`StreamingComposer`] borrows the plan of the query that built it, is
//! fed with [`StreamingComposer::accept`] and consumed by
//! [`StreamingComposer::finish`]. A query that errors out drops its
//! composer, staging database included; nothing is shared between queries,
//! so nothing is locked or cleaned between them. The one-shot [`compose`]
//! stages every partial at once — the paper's HSQLDB timeline — and is the
//! reference the fold is tested against.

use apuama_engine::{Database, EngineError, EngineResult, ExecStats, PartialAgg, QueryOutput};
use apuama_sql::Value;
use apuama_storage::Row;

use crate::rewrite::{ComposeSpec, FoldFn, SvpPlan, PARTIALS_TABLE};

/// Result of composing partial outputs.
#[derive(Debug, Clone)]
pub struct Composed {
    /// The final query result.
    pub output: QueryOutput,
    /// Work done by the composition query itself (staging-table scan,
    /// re-aggregation, sort).
    pub composition_stats: ExecStats,
    /// Total partial rows staged.
    pub partial_rows: u64,
}

/// SQL type name for a staging column, inferred from the first non-null
/// value seen in that column (all-NULL columns degrade to text, which
/// compares fine for our dialect).
fn infer_type(rows: &[Row], col: usize) -> &'static str {
    for row in rows {
        match &row[col] {
            Value::Null => continue,
            Value::Int(_) => return "int",
            Value::Float(_) => return "float",
            Value::Str(_) => return "text",
            Value::Date(_) => return "date",
            Value::Bool(_) => return "bool",
            Value::Interval(_) => return "int",
        }
    }
    "text"
}

/// Loads `rows` — already of the plan's arity — into the staging table of a
/// fresh in-memory database and runs the plan's composition query over it.
fn stage_and_compose(plan: &SvpPlan, rows: Vec<Row>) -> EngineResult<Composed> {
    let columns_ddl = plan
        .partial_columns
        .iter()
        .enumerate()
        .map(|(i, name)| format!("{name} {}", infer_type(&rows, i)))
        .collect::<Vec<_>>()
        .join(", ");
    let mut mem = Database::in_memory();
    mem.execute(&format!("create table {PARTIALS_TABLE} ({columns_ddl})"))?;
    let partial_rows = rows.len() as u64;
    mem.append_rows(PARTIALS_TABLE, rows)?;
    let mut output = mem.query(&plan.composition_sql)?;
    let composition_stats = output.stats;
    output.stats = ExecStats::default();
    Ok(Composed {
        output,
        composition_stats,
        partial_rows,
    })
}

/// One-shot composition: loads the partial outputs, in the order given,
/// into an in-memory staging table and runs the plan's composition query.
pub fn compose(plan: &SvpPlan, partials: &[QueryOutput]) -> EngineResult<Composed> {
    for (i, p) in partials.iter().enumerate() {
        check_arity(plan, &i, p)?;
    }
    let rows = partials.iter().flat_map(|p| p.rows.iter().cloned());
    stage_and_compose(plan, rows.collect())
}

/// Every row of `partial` has the plan's arity; `who` names the partial in
/// the error.
fn check_arity(
    plan: &SvpPlan,
    who: &dyn std::fmt::Display,
    partial: &QueryOutput,
) -> EngineResult<()> {
    let arity = plan.partial_columns.len();
    match partial.rows.iter().find(|r| r.len() != arity) {
        Some(bad) => Err(EngineError::Constraint(format!(
            "partial result {who} has arity {} but the plan expects {arity}",
            bad.len()
        ))),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Incremental composition
// ---------------------------------------------------------------------------

/// The two compositions [`compose_with`] chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComposerStrategy {
    /// Stage every partial row, then compose once at the end (the original
    /// HSQLDB-style path): the one-shot [`compose`].
    Staged,
    /// Fold each partial into running per-group state as it arrives;
    /// composition work overlaps the still-running sub-queries and the
    /// final query runs over one folded row per group.
    #[default]
    Streaming,
}

/// Composes per-node partials (partial `i` attributed to node `i`) with the
/// chosen strategy — the one-shot convenience the benchmark and the
/// simulator use. Staging is node-major, so both give the same rows.
pub fn compose_with(
    strategy: ComposerStrategy,
    plan: &SvpPlan,
    partials: &[QueryOutput],
) -> EngineResult<Composed> {
    match strategy {
        ComposerStrategy::Staged => compose(plan, partials),
        ComposerStrategy::Streaming => {
            let mut composer = StreamingComposer::new(plan);
            for (node, p) in partials.iter().enumerate() {
                composer.accept(node, p.clone())?;
            }
            composer.finish()
        }
    }
}

/// Streaming state, chosen from the plan's [`ComposeSpec`].
enum StreamState<'p> {
    /// Aggregated query: one of the engine's partial-aggregate tables per
    /// node, each folding that node's partial rows in its own order.
    Reagg {
        group_cols: usize,
        folds: &'p [FoldFn],
        nodes: Vec<PartialAgg>,
    },
    /// Plain union: one row buffer per node, in the node's own order.
    Union { nodes: Vec<Vec<Row>> },
}

/// The Result Composer: built for one query's plan, fed
/// `accept(node, partial)` per arriving partial, then `finish()`. It folds
/// partial rows into one of the engine's partial-aggregate tables per node
/// as they arrive — its group table, its accumulators ([`PartialAgg`]) —
/// merges the tables in node order at `finish()`, and runs the plan's composition query over the
/// folded rows (one per group) so HAVING / ORDER BY / LIMIT / output
/// expressions get exactly the engine's semantics (DESIGN.md §5.4).
///
/// A non-aggregated query's rows are buffered per node and concatenated in
/// node order at `finish()` — the staging order — and the composition
/// query applies ORDER BY and LIMIT. Sub-queries carry neither, so every
/// partial is whole at its node and there is nothing to cut off earlier.
///
/// All state is keyed on the *node index*, never on arrival order, so the
/// composed result is a function of the per-node partial sequences alone —
/// sub-queries may complete in any interleaving and the output (rows,
/// ordering, floating-point bit patterns) does not change.
pub struct StreamingComposer<'p> {
    plan: &'p SvpPlan,
    state: StreamState<'p>,
    accepted_rows: u64,
}

impl<'p> StreamingComposer<'p> {
    pub fn new(plan: &'p SvpPlan) -> Self {
        let state = match &plan.compose {
            ComposeSpec::Reaggregate { group_cols, folds } => StreamState::Reagg {
                group_cols: *group_cols,
                folds,
                nodes: Vec::new(),
            },
            ComposeSpec::Union => StreamState::Union { nodes: Vec::new() },
        };
        StreamingComposer {
            plan,
            state,
            accepted_rows: 0,
        }
    }

    /// Feeds one partial result produced by `node`. A node may contribute
    /// several partials (AVP chunks); their relative order is the node's
    /// own execution order.
    pub fn accept(&mut self, node: usize, partial: QueryOutput) -> EngineResult<()> {
        check_arity(self.plan, &format_args!("from node {node}"), &partial)?;
        self.accepted_rows += partial.rows.len() as u64;
        match &mut self.state {
            StreamState::Reagg {
                group_cols,
                folds,
                nodes,
            } => {
                if nodes.len() <= node {
                    nodes.resize_with(node + 1, || PartialAgg::new(folds));
                }
                for row in &partial.rows {
                    let (keys, args) = row.split_at(*group_cols);
                    nodes[node].fold(keys, args)?;
                }
            }
            StreamState::Union { nodes } => {
                if nodes.len() <= node {
                    nodes.resize_with(node + 1, Vec::new);
                }
                nodes[node].extend(partial.rows);
            }
        }
        Ok(())
    }

    /// Completes the composition and returns the final result. Abandoning
    /// one instead is dropping the composer.
    pub fn finish(self) -> EngineResult<Composed> {
        let folded: Vec<Row> = match self.state {
            // Node-index order, whatever order the partials arrived in:
            // group order is then global first-seen order, as the staged
            // path's aggregation over node-major staging rows has it.
            StreamState::Reagg { nodes, .. } => {
                let merged = nodes.into_iter().reduce(|mut merged, node| {
                    merged.merge(node);
                    merged
                });
                merged.map(PartialAgg::into_rows).unwrap_or_default()
            }
            StreamState::Union { nodes } => nodes.concat(),
        };
        let mut composed = stage_and_compose(self.plan, folded)?;
        // Report rows *accepted*, not rows staged after folding — callers
        // use this as "partial rows shipped to the composer".
        composed.partial_rows = self.accepted_rows;
        Ok(composed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DataCatalog;
    use crate::rewrite::{Rewritten, SvpRewriter};

    /// Runs an SVP plan end to end against `n` identical in-memory replicas
    /// and checks the composed result equals the plain single-node answer.
    fn check_equivalence(sql: &str, n: usize) {
        // One replica of a small orders/lineitem-ish dataset.
        let build = || {
            let mut db = Database::in_memory();
            db.execute(
                "create table orders (o_orderkey int not null, o_totalprice float, \
                 o_orderpriority text, primary key (o_orderkey)) clustered by (o_orderkey)",
            )
            .unwrap();
            db.execute(
                "create table lineitem (l_orderkey int not null, l_quantity float, \
                 l_discount float, primary key (l_orderkey)) clustered by (l_orderkey)",
            )
            .unwrap();
            for k in 1..=100i64 {
                db.execute(&format!(
                    "insert into orders values ({k}, {}.0, '{}')",
                    k * 10,
                    if k % 2 == 0 { "1-URGENT" } else { "5-LOW" }
                ))
                .unwrap();
                db.execute(&format!(
                    "insert into lineitem values ({k}, {}.0, 0.0{})",
                    k % 7 + 1,
                    k % 10
                ))
                .unwrap();
            }
            db
        };
        let reference = build().query(sql).unwrap();

        let rewriter = SvpRewriter::new(DataCatalog::tpch(100));
        let Rewritten::Svp(plan) = rewriter.rewrite(sql, n).unwrap() else {
            panic!("expected SVP plan for {sql}");
        };
        let replica = build();
        let partials: Vec<QueryOutput> = (plan.ranges.iter())
            .map(|&(lo, hi)| {
                let sub = plan.template.subquery_for_range(lo, hi);
                replica.query(&sub).unwrap()
            })
            .collect();
        let composed = compose(&plan, &partials).unwrap();
        assert_eq!(composed.output.columns, reference.columns, "{sql}");
        assert_eq!(composed.output.rows.len(), reference.rows.len(), "{sql}");
        for (a, b) in composed.output.rows.iter().zip(&reference.rows) {
            for (x, y) in a.iter().zip(b) {
                match (x.as_f64(), y.as_f64()) {
                    (Some(fx), Some(fy)) => {
                        assert!((fx - fy).abs() < 1e-6, "{sql}: {fx} vs {fy}")
                    }
                    _ => assert_eq!(x, y, "{sql}"),
                }
            }
        }
    }

    #[test]
    fn global_sum_recomposes() {
        check_equivalence("select sum(l_quantity) as s from lineitem", 4);
    }

    #[test]
    fn global_avg_recomposes() {
        check_equivalence("select avg(l_quantity) as a from lineitem", 4);
    }

    #[test]
    fn count_star_recomposes() {
        check_equivalence("select count(*) as n from orders", 3);
    }

    #[test]
    fn min_max_recompose() {
        check_equivalence(
            "select min(o_totalprice) as lo, max(o_totalprice) as hi from orders",
            5,
        );
    }

    #[test]
    fn group_by_with_order_and_limit() {
        check_equivalence(
            "select o_orderpriority, count(*) as n, sum(o_totalprice) as t from orders \
             group by o_orderpriority order by o_orderpriority limit 2",
            4,
        );
    }

    #[test]
    fn expression_over_aggregates() {
        check_equivalence(
            "select 100.0 * sum(l_discount) / sum(l_quantity) as ratio from lineitem",
            4,
        );
    }

    #[test]
    fn join_query_recomposes() {
        check_equivalence(
            "select o_orderpriority, sum(l_quantity) as q from orders, lineitem \
             where l_orderkey = o_orderkey group by o_orderpriority order by o_orderpriority",
            4,
        );
    }

    #[test]
    fn non_aggregated_union() {
        check_equivalence(
            "select o_orderkey, o_totalprice from orders where o_totalprice > 900.0 \
             order by o_orderkey",
            3,
        );
    }

    #[test]
    fn having_filters_globally_not_per_node() {
        // Per-node counts are all below the threshold; only the global
        // count passes. Composing must still produce the group.
        check_equivalence(
            "select o_orderpriority, count(*) as n from orders \
             group by o_orderpriority having count(*) > 30 order by o_orderpriority",
            10,
        );
    }

    #[test]
    fn empty_partials_compose_to_empty_or_null() {
        let rewriter = SvpRewriter::new(DataCatalog::tpch(100));
        let Rewritten::Svp(plan) = rewriter
            .rewrite("select sum(l_quantity) as s from lineitem", 2)
            .unwrap()
        else {
            panic!()
        };
        let empty = QueryOutput {
            columns: plan.partial_columns.clone(),
            rows: vec![],
            ..QueryOutput::default()
        };
        let composed = compose(&plan, &[empty.clone(), empty]).unwrap();
        // Global aggregate over nothing: one row, NULL sum.
        assert_eq!(composed.output.rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let rewriter = SvpRewriter::new(DataCatalog::tpch(100));
        let Rewritten::Svp(plan) = rewriter
            .rewrite("select sum(l_quantity) as s from lineitem", 2)
            .unwrap()
        else {
            panic!()
        };
        let bad = QueryOutput {
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Value::Int(1), Value::Int(2)]],
            ..QueryOutput::default()
        };
        assert!(compose(&plan, &[bad]).is_err());
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::catalog::DataCatalog;
    use crate::rewrite::{Rewritten, SvpRewriter};

    fn replica() -> Database {
        let mut db = Database::in_memory();
        db.execute(
            "create table orders (o_orderkey int not null, o_totalprice float, \
             o_orderpriority text, primary key (o_orderkey)) clustered by (o_orderkey)",
        )
        .unwrap();
        for k in 1..=100i64 {
            db.execute(&format!(
                "insert into orders values ({k}, {}.5, '{}')",
                k * 10,
                if k % 2 == 0 { "1-URGENT" } else { "5-LOW" }
            ))
            .unwrap();
        }
        db
    }

    fn plan_and_partials(sql: &str, n: usize) -> (SvpPlan, Vec<QueryOutput>) {
        let rewriter = SvpRewriter::new(DataCatalog::tpch(100));
        let Rewritten::Svp(plan) = rewriter.rewrite(sql, n).unwrap() else {
            panic!("expected SVP plan for {sql}");
        };
        let db = replica();
        let partials = (plan.ranges.iter())
            .map(|&(lo, hi)| db.query(&plan.template.subquery_for_range(lo, hi)).unwrap())
            .collect();
        (plan, partials)
    }

    const QUERIES: &[&str] = &[
        "select sum(o_totalprice) as s from orders",
        "select avg(o_totalprice) as a, count(*) as n from orders",
        "select min(o_totalprice) as lo, max(o_totalprice) as hi from orders",
        "select o_orderpriority, count(*) as n, sum(o_totalprice) as t from orders \
         group by o_orderpriority order by o_orderpriority limit 2",
        "select o_orderpriority, count(*) as n from orders group by o_orderpriority \
         having count(*) > 30 order by o_orderpriority",
        "select o_orderkey, o_totalprice from orders where o_totalprice > 900.0 \
         order by o_orderkey",
        "select o_orderkey, o_totalprice from orders where o_totalprice > 100.0 \
         order by o_totalprice desc, o_orderkey limit 7",
        "select o_orderkey from orders where o_totalprice > 980.0",
    ];

    #[test]
    fn streaming_equals_staged_bit_for_bit() {
        for sql in QUERIES {
            for n in [1usize, 3, 5] {
                let (plan, partials) = plan_and_partials(sql, n);
                let staged = compose_with(ComposerStrategy::Staged, &plan, &partials).unwrap();
                let streaming =
                    compose_with(ComposerStrategy::Streaming, &plan, &partials).unwrap();
                assert_eq!(streaming.output.columns, staged.output.columns, "{sql}");
                assert_eq!(streaming.output.rows, staged.output.rows, "{sql} n={n}");
                assert_eq!(streaming.partial_rows, staged.partial_rows, "{sql} n={n}");
            }
        }
    }

    #[test]
    fn arrival_order_does_not_change_the_result() {
        for sql in QUERIES {
            let (plan, partials) = plan_and_partials(sql, 4);
            let baseline = compose_with(ComposerStrategy::Streaming, &plan, &partials).unwrap();
            // Reverse and interleave arrival orders.
            for order in [vec![3usize, 2, 1, 0], vec![2, 0, 3, 1]] {
                let mut composer = StreamingComposer::new(&plan);
                for &node in &order {
                    composer.accept(node, partials[node].clone()).unwrap();
                }
                let shuffled = composer.finish().unwrap();
                assert_eq!(
                    shuffled.output.rows, baseline.output.rows,
                    "{sql} {order:?}"
                );
            }
        }
    }

    #[test]
    fn both_strategies_match_the_one_shot_composer() {
        for sql in QUERIES {
            let (plan, partials) = plan_and_partials(sql, 3);
            let reference = compose(&plan, &partials).unwrap();
            for strategy in [ComposerStrategy::Staged, ComposerStrategy::Streaming] {
                let got = compose_with(strategy, &plan, &partials).unwrap();
                assert_eq!(got.output.rows, reference.output.rows, "{sql} {strategy:?}");
            }
        }
    }

    #[test]
    fn streaming_reports_accepted_rows_not_folded_rows() {
        // 3 nodes × 1 partial row each fold to a single global-aggregate
        // row; partial_rows must still say 3.
        let (plan, partials) = plan_and_partials("select sum(o_totalprice) as s from orders", 3);
        let got = compose_with(ComposerStrategy::Streaming, &plan, &partials).unwrap();
        assert_eq!(got.partial_rows, 3);
    }

    /// Hand-made partials for a per-key count and sum, one `QueryOutput`
    /// per node.
    fn keyed_plan_and_partials(nodes: Vec<Vec<Row>>) -> (SvpPlan, Vec<QueryOutput>) {
        let sql = "select o_orderkey, count(*) as n, sum(o_totalprice) as t from orders \
                   group by o_orderkey order by o_orderkey";
        let (plan, _) = plan_and_partials(sql, nodes.len());
        let partials = (nodes.into_iter())
            .map(|rows| QueryOutput {
                columns: plan.partial_columns.clone(),
                rows,
                ..QueryOutput::default()
            })
            .collect();
        (plan, partials)
    }

    /// `1` from one node and `1.0` from another are one group, spelled as
    /// the lower-numbered node spelled it — whichever arrived first.
    #[test]
    fn int_and_float_spellings_of_a_key_are_one_group() {
        let (plan, partials) = keyed_plan_and_partials(vec![
            vec![vec![Value::Int(1), Value::Int(2), Value::Float(0.5)]],
            vec![
                vec![Value::Float(1.0), Value::Int(3), Value::Float(0.25)],
                vec![Value::Float(2.0), Value::Int(1), Value::Float(4.0)],
            ],
        ]);
        let want = vec![
            vec![Value::Int(1), Value::Int(5), Value::Float(0.75)],
            vec![Value::Float(2.0), Value::Int(1), Value::Float(4.0)],
        ];
        let staged = compose_with(ComposerStrategy::Staged, &plan, &partials).unwrap();
        assert_eq!(staged.output.rows, want);
        for order in [[0usize, 1], [1, 0]] {
            let mut composer = StreamingComposer::new(&plan);
            for node in order {
                composer.accept(node, partials[node].clone()).unwrap();
            }
            assert_eq!(composer.finish().unwrap().output.rows, want, "{order:?}");
        }
    }

    /// Past sixteen groups a node's table probes its hash index; the
    /// answer is the staged one all the same, overlapping groups included.
    #[test]
    fn a_node_reporting_more_than_sixteen_groups_composes_like_staging() {
        let node = |keys: std::ops::Range<i64>| -> Vec<Row> {
            keys.rev()
                .map(|k| vec![Value::Int(k), Value::Int(1), Value::Float(k as f64 / 4.0)])
                .collect()
        };
        let (plan, partials) = keyed_plan_and_partials(vec![node(0..40), node(30..50)]);
        let staged = compose_with(ComposerStrategy::Staged, &plan, &partials).unwrap();
        let streaming = compose_with(ComposerStrategy::Streaming, &plan, &partials).unwrap();
        assert_eq!(streaming.output.rows.len(), 50);
        assert_eq!(streaming.output.rows, staged.output.rows);
        assert_eq!(
            streaming.output.rows[35],
            vec![Value::Int(35), Value::Int(2), Value::Float(17.5)]
        );
    }

    #[test]
    fn accept_rejects_arity_mismatch() {
        let (plan, _) = plan_and_partials("select sum(o_totalprice) as s from orders", 2);
        let bad = QueryOutput {
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Value::Int(1), Value::Int(2)]],
            ..QueryOutput::default()
        };
        assert!(compose(&plan, std::slice::from_ref(&bad)).is_err());
        assert!(StreamingComposer::new(&plan).accept(0, bad).is_err());
    }

    #[test]
    fn empty_stream_composes_like_empty_staging() {
        let (plan, _) = plan_and_partials("select sum(o_totalprice) as s from orders", 2);
        let empty = QueryOutput {
            columns: plan.partial_columns.clone(),
            rows: vec![],
            ..QueryOutput::default()
        };
        let staged = compose_with(
            ComposerStrategy::Staged,
            &plan,
            &[empty.clone(), empty.clone()],
        )
        .unwrap();
        let streaming =
            compose_with(ComposerStrategy::Streaming, &plan, &[empty.clone(), empty]).unwrap();
        assert_eq!(staged.output.rows, vec![vec![Value::Null]]);
        assert_eq!(streaming.output.rows, staged.output.rows);
    }

    /// Abandoning a composition is dropping the composer: nothing outlives
    /// it, so a second composition of the same plan on the same thread
    /// sees none of what the first accepted — aggregated and union-shaped.
    #[test]
    fn a_composer_dropped_before_finish_leaves_nothing_behind() {
        for sql in [
            "select o_orderpriority, count(*) as n, sum(o_totalprice) as t from orders \
             group by o_orderpriority order by o_orderpriority",
            "select o_orderkey, o_totalprice from orders where o_totalprice > 100.0 \
             order by o_totalprice desc, o_orderkey limit 7",
        ] {
            let (plan, partials) = plan_and_partials(sql, 3);
            let want = compose(&plan, &partials).unwrap();
            {
                let mut abandoned = StreamingComposer::new(&plan);
                abandoned.accept(2, partials[2].clone()).unwrap();
                abandoned.accept(0, partials[0].clone()).unwrap();
            }
            let got = compose_with(ComposerStrategy::Streaming, &plan, &partials).unwrap();
            assert_eq!(got.output.rows, want.output.rows, "{sql}");
            assert_eq!(got.partial_rows, want.partial_rows, "{sql}");
        }
    }
}
