use std::cmp::Ordering;
use std::hash::Hasher;
use std::time::Instant;

use apuama_sql::ast::Expr;
use apuama_sql::value::hash_value;
use apuama_sql::Value;
use apuama_storage::{Column, ColumnVec, Row, Segment};

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, CompiledExpr, Frame, Scope};
use crate::exec::{self, Binding, ExecContext, Relation};
use crate::planner::JoinEdge;
use crate::subquery::{probe_memos, ProbeMemo};

use crate::physical::*;

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

/// Multi-input join block, a probe pipeline over selection vectors.
///
/// **Count first.** Every FROM item is read in FROM order: a base table to
/// the `(segment, slots)` survivors of its subquery-free conjuncts
/// ([`ScanExec::select`] — every page charge and counter of the scan, no
/// `Value` built), a derived table to the relation [`DerivedExec`] makes.
/// The largest drives; the others become rows of their kept columns.
///
/// **Build once.** The greedy order (each round picks the connected input
/// minimizing `driver × candidate / distinct(candidate keys)`) is fixed
/// before the driver moves: every (input, connecting edges) candidate gets
/// one [`JoinTable`], built on it, and the pass that builds it counts its
/// distinct keys.
///
/// **Probe in a stream.** The driver's units flow through the stages —
/// post-filters as soon as their scopes are bound, one hash or cross step
/// per joined input, the driver's subquery conjuncts where the fewest
/// tuples reach them ([`driver_preds_after`]) — as [`Chunk`]s of driver
/// slots plus one match vector per joined input. Key components are read
/// where they lie ([`Cell`]); whatever needs a row (an expression key, a
/// post-filter) gets a scratch joined row filled with the cells it reads.
/// Only what leaves the last stage is materialized, `driver ++ joined
/// inputs` in bound order, driver-major.
pub(crate) struct JoinExec<'e> {
    general: &'e GeneralPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    az: Option<&'e Analyze>,
    idx: Option<usize>,
    /// The inputs' subquery conjuncts, which the block evaluates and
    /// `EXPLAIN ANALYZE` therefore lists under it.
    subqueries: Vec<SubqueryLine>,
    emitter: Option<BatchEmitter>,
}

/// One FROM item after the counting pass.
enum Input<'e> {
    /// A base table, still on its segments, with its scan's probe node.
    Selected(ScanSelection<'e>, Option<usize>),
    Rows(Relation),
}

impl Input<'_> {
    fn rows(&self) -> usize {
        match self {
            Input::Selected(scan, _) => scan.rows(),
            Input::Rows(rel) => rel.rows.len(),
        }
    }
}

impl<'e> JoinExec<'e> {
    pub(crate) fn new(
        general: &'e GeneralPlan,
        outer: &'e [Frame<'e>],
        ctx: &'e ExecContext<'e>,
        az: Option<&'e Analyze>,
        idx: Option<usize>,
    ) -> Self {
        JoinExec {
            general,
            outer,
            ctx,
            az,
            idx,
            subqueries: Vec::new(),
            emitter: None,
        }
    }

    /// The `EXPLAIN ANALYZE` collector and the block's node in it.
    fn probe(&self) -> Option<(&'e Analyze, usize)> {
        self.az.zip(self.idx)
    }

    /// One line of the block's `EXPLAIN ANALYZE` account; the text is only
    /// built when a collector is listening.
    fn note(&self, line: impl FnOnce() -> String) {
        if let Some((az, idx)) = self.probe() {
            az.add_note(idx, line());
        }
    }

    /// Reads one FROM item, charging what reading it charges today.
    fn read_input(&self, node: &'e InputNode) -> EngineResult<Input<'e>> {
        let (outer, ctx) = (self.outer, self.ctx);
        let InputNode::Table {
            name,
            alias,
            single,
            keep,
        } = node
        else {
            let (mut op, child) = build_input(node, outer, ctx, self.az);
            if let (Some((az, idx)), Some(child)) = (self.probe(), child) {
                az.add_child(idx, child);
            }
            let bindings = op.open()?;
            let mut rows = Vec::new();
            while let Some(batch) = op.next_batch()? {
                ctx.check_interrupt()?;
                // The relation is held whole, whichever role it gets.
                ctx.charge_mem(exec::approx_state_bytes(
                    batch.rows.len() as u64,
                    bindings.len(),
                ))?;
                rows.extend(batch.rows);
            }
            return Ok(Input::Rows(Relation { bindings, rows }));
        };
        // Correlated frames cannot cross threads; the conjuncts that need
        // the coordinator's context — subqueries — the scan leaves alone.
        let workers = match outer {
            [] => ctx.db.parallel_workers(),
            _ => 1,
        };
        let (alias, keep) = (alias.as_deref(), keep.as_deref());
        let child = self.probe().map(|(az, idx)| {
            let label = scan_label(name, alias, (workers >= 2).then_some(workers), keep, ctx);
            let child = az.register(label, Vec::new());
            az.add_child(idx, child);
            child
        });
        let start = Instant::now();
        let scan =
            ScanExec::new(name, alias, single, keep, outer, ctx).select(workers, self.az, child)?;
        self.record(child, 0, start);
        Ok(Input::Selected(scan, child))
    }

    /// Adds `rows` and the time since `start` to an input scan's node.
    fn record(&self, child: Option<usize>, rows: usize, start: Instant) {
        if let (Some(az), Some(child)) = (self.az, child) {
            let batches = (rows as u64).div_ceil(exec::SCAN_BATCH_ROWS);
            az.record(child, rows as u64, batches, start.elapsed().as_nanos());
        }
    }
}

impl<'e> Operator<'e> for JoinExec<'e> {
    fn open(&mut self) -> EngineResult<Vec<Binding>> {
        let g = self.general;
        let (outer, ctx) = (self.outer, self.ctx);
        let names: Vec<String> = g
            .inputs
            .iter()
            .map(|n| n.scope_name().to_string())
            .collect();
        // Load-bearing clone: the pending-predicate list is consumed as
        // scopes bind, but the plan is shared across executions.
        let mut post = g.post.clone();
        if g.inputs.is_empty() {
            // No FROM: one empty row, if the predicates let it through.
            let one = Relation {
                bindings: vec![],
                rows: vec![vec![]],
            };
            let preds: Vec<Expr> = post.into_iter().map(|(e, _)| e).collect();
            let Relation { bindings, rows } = filter_rows(one, &preds, outer, ctx)?;
            self.emitter = Some(BatchEmitter::rows_only(rows));
            return Ok(bindings);
        }

        let inputs = (g.inputs.iter())
            .map(|node| self.read_input(node))
            .collect::<EngineResult<Vec<_>>>()?;
        let driving = (0..inputs.len())
            .max_by_key(|&i| inputs[i].rows())
            .expect("inputs nonempty");

        // Every input but the driver becomes rows; a driving base table
        // stays the selection it is.
        let mut driver_scan = None;
        let mut relations: Vec<Relation> = Vec::with_capacity(inputs.len());
        let mut base_rows = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.into_iter().enumerate() {
            base_rows.push(match &input {
                Input::Rows(rel) => rel.rows.len(),
                Input::Selected(scan, _) => scan.table_rows,
            });
            relations.push(match input {
                Input::Rows(rel) => rel,
                Input::Selected(scan, child) if i == driving => {
                    self.record(child, scan.rows(), Instant::now());
                    let bindings = scan.bindings.clone();
                    driver_scan = Some(scan);
                    Relation {
                        bindings,
                        rows: Vec::new(),
                    }
                }
                Input::Selected(mut scan, child) => {
                    let start = Instant::now();
                    scan.apply_deferred(outer, ctx)?;
                    let rows = scan.materialize();
                    ctx.charge_mem(exec::approx_state_bytes(
                        rows.len() as u64,
                        scan.bindings.len(),
                    ))?;
                    self.record(child, rows.len(), start);
                    self.subqueries
                        .extend(subquery_lines(scan.deferred.preds()));
                    Relation {
                        bindings: scan.bindings,
                        rows,
                    }
                }
            });
        }
        let driver_rows = match &driver_scan {
            Some(scan) => scan.rows(),
            None => relations[driving].rows.len(),
        };
        self.note(|| format!("drive {}: {driver_rows} rows", names[driving]));

        let on = |step_edges: &[usize]| {
            let on: Vec<String> = (step_edges.iter())
                .map(|&e| format!("{} = {}", g.edges[e].left_expr, g.edges[e].right_expr))
                .collect();
            on.join(" and ")
        };
        // One cpu op per row a reduction probes and per row it keeps, as
        // for a hash step; the leaf's build is charged with its step.
        let (tables, reductions) =
            reduce_by_leaves(driving, &mut relations, &names, &g.edges, outer, ctx)?;
        let mut cpu = 0;
        for r in &reductions {
            cpu += (r.before + r.after) as u64;
            self.note(|| {
                let (parent, leaf) = (&names[r.parent], &names[r.leaf]);
                let (before, after) = (r.before, r.after);
                format!(
                    "⋉ {parent} by {leaf} on {}: {before} → {after}",
                    on(&r.edges)
                )
            });
        }
        let order_inputs = OrderInputs {
            relations: &relations,
            base_rows: &base_rows,
            names: &names,
            edges: &g.edges,
        };
        let steps = greedy_steps(driving, driver_rows, &order_inputs, tables, outer, ctx)?;
        if let Some(scan) = &mut driver_scan {
            let filters = key_filters(&steps, driving, &relations, &g.edges, &names, outer, ctx);
            for (step, filter) in filters {
                let before = scan.rows();
                cpu += filter.narrow(scan);
                let after = scan.rows();
                self.note(|| {
                    let on = on(&steps[step].edges);
                    let name = &names[steps[step].input];
                    format!("∈ keys of {name} on {on}: {before} → {after}")
                });
            }
        }
        let driver = match &driver_scan {
            Some(scan) => Driver::Selected(scan),
            None => Driver::Rows(&relations[driving].rows),
        };

        // The stages, in the order a tuple meets them.
        let mut bound = vec![driving];
        let mut bindings = relations[driving].bindings.clone();
        let mut offsets = vec![0];
        let mut builds: Vec<&[Row]> = Vec::new();
        let mut stages: Vec<Stage<'_>> = Vec::new();
        // `step_stage[k]`: the stage that is step `k`.
        let mut step_stage = Vec::with_capacity(steps.len());
        let driver_preds = driver_scan
            .as_ref()
            .map(|scan| &scan.deferred)
            .filter(|preds| preds.has_rest(0));
        let preds_after = driver_preds_after(&steps);
        let src = |offsets: &[usize], pos: usize| match offsets.partition_point(|&o| o <= pos) - 1 {
            0 => Src::Driver(pos),
            k => Src::Joined(k - 1, pos - offsets[k]),
        };
        for done in 0..=steps.len() {
            if let Some(step) = done.checked_sub(1).map(|k| &steps[k]) {
                let right = &relations[step.input];
                let kind = match &step.table {
                    None => StageKind::Cross(right.rows.len()),
                    Some(JoinTable { error: Some(e), .. }) => return Err(e.clone()),
                    Some(table) => {
                        let edges: Vec<&JoinEdge> =
                            step.edges.iter().map(|&e| &g.edges[e]).collect();
                        let (others, _) = edge_sides(&edges, &names[step.input]);
                        let scope = Scope::new(&bindings, outer, ctx);
                        let mut cols = Vec::new();
                        let mut evaluated = 0;
                        let probe = (others.iter())
                            .map(|e| match eval::compile_expr(e, &scope) {
                                CompiledExpr::Col(pos) => ProbeComp::Cell(src(&offsets, pos)),
                                expr => {
                                    if expr.has_subquery() {
                                        cols.extend(0..bindings.len());
                                    }
                                    expr.collect_cols(&mut cols);
                                    evaluated += 1;
                                    ProbeComp::Expr(expr, evaluated - 1)
                                }
                            })
                            .collect();
                        StageKind::Hash {
                            table,
                            rows: &right.rows,
                            probe,
                            fills: fills(cols, &|pos| src(&offsets, pos)),
                            keys: Vec::new(),
                        }
                    }
                };
                step_stage.push(stages.len());
                stages.push(Stage::new(kind));
                offsets.push(bindings.len());
                bindings.extend(right.bindings.iter().cloned());
                builds.push(&right.rows);
                bound.push(step.input);
            }
            // Post-filters run as soon as their scopes are bound; once every
            // input is, so do those that name nothing in FROM.
            let ready = ready_post_filters(&mut post, &names, &bound, done == steps.len());
            if !ready.is_empty() {
                let preds = resolve_preds(&ready, &bindings, outer, ctx);
                let mut cols = Vec::new();
                (preds.iter()).for_each(|p| p.collect_cols(bindings.len(), &mut cols));
                stages.push(Stage::new(StageKind::Filter {
                    memos: probe_memos(preds.len()),
                    preds,
                    fills: fills(cols, &|pos| src(&offsets, pos)),
                }));
            }
            if let (Some(preds), true) = (driver_preds, done == preds_after) {
                stages.push(Stage::new(StageKind::DriverPreds {
                    preds,
                    scratch: preds.scratch(),
                }));
                self.subqueries.extend(subquery_lines(preds.preds()));
            }
        }

        let mut env = Env {
            outer,
            ctx,
            builds,
            row: vec![Value::Null; bindings.len()],
            out: Vec::new(),
            settled: 0,
            cpu: 0,
        };
        driver.stream(&mut stages, &mut env)?;
        env.settle()?;

        // One cpu op per build row, per tuple probing and per tuple out of
        // a hash step; per tuple out of a cross step; per evaluation of a
        // filter (counted as it ran). Flushed once — totals are what the
        // counters promise.
        cpu += env.cpu;
        for (step, at) in steps.iter().zip(step_stage) {
            let (name, right_rows) = (&names[step.input], relations[step.input].rows.len());
            let Stage { seen, kept, .. } = stages[at];
            cpu += kept;
            if step.table.is_none() {
                self.note(|| format!("× {name}: {seen} × {right_rows} → {kept}"));
                continue;
            }
            cpu += seen + right_rows as u64;
            self.note(|| {
                format!(
                    "⋈ {name} on {}: build {name} {right_rows}, probe {seen} → {kept}",
                    on(&step.edges)
                )
            });
        }
        ctx.bump_cpu(cpu);
        self.emitter = Some(BatchEmitter::rows_only(env.out));
        Ok(bindings)
    }

    fn subquery_lines(&self) -> Vec<SubqueryLine> {
        self.subqueries.clone()
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}

/// The scratch-row cells `cols` name, each with where a tuple holds it.
fn fills(cols: Vec<usize>, layout: &dyn Fn(usize) -> Src) -> Vec<(usize, Src)> {
    sorted_dedup(cols)
        .into_iter()
        .map(|pos| (pos, layout(pos)))
        .collect()
}

/// Moves the post-filters whose scopes are all bound out of `post`; every
/// one that is left when `all` is set.
fn ready_post_filters(
    post: &mut Vec<(Expr, Vec<String>)>,
    names: &[String],
    bound: &[usize],
    all: bool,
) -> Vec<Expr> {
    let is_bound = |n: &String| bound.iter().any(|&b| &names[b] == n);
    let (ready, pending) = std::mem::take(post)
        .into_iter()
        .partition(|(_, needs)| all || needs.iter().all(is_bound));
    *post = pending;
    ready.into_iter().map(|(e, _)| e).collect()
}

/// After how many steps the driving scan's subquery conjuncts run: after
/// the longest leading run of hash steps whose build side is unique on its
/// key. Each stream tuple matches at most once along such a run, so the
/// stage sees no more tuples than the scan would have shown its conjuncts,
/// and sees them in the driver's order — which an `EXISTS` probe's
/// last-key memo depends on — while every step of the run has had its
/// chance to drop the tuple first. Decided by the plan's shape and the
/// build sides' key counts alone.
fn driver_preds_after(steps: &[Step]) -> usize {
    (steps.iter())
        .take_while(|s| (s.table.as_ref()).is_some_and(|t| t.error.is_none() && t.unique))
        .count()
}

// ---------------------------------------------------------------------------
// Key filters
// ---------------------------------------------------------------------------

/// The build keys of one hash step as a membership test on a column of
/// the driving base table: a tuple whose key is not among them can match
/// no row of the step, so it is dropped from the driving selection before
/// the stream starts — never probed, gathered or tested by a deferred
/// conjunct. A step yields one when it joins by one edge, its probing
/// side is a column of the driving input, and its build keys that are not
/// NULL are all `Int`. The test then acts only on segments that store the
/// driving column as `Int`: there a tuple matches a row exactly when its
/// key is one of the row keys, and a NULL key matches none. (`1 = 1.0`
/// matches, so over a column that holds a `Float` the step decides.)
/// Only a tuple the step would drop is dropped; what changes is where: an
/// error a stage before the step would have raised on it no longer
/// surfaces (DESIGN.md §10).
struct KeyFilter {
    /// The column's position in the driving input's bindings.
    pos: usize,
    keys: IntKeys,
}

/// A set of integers: a bitset over `[min, max]`, or the sorted keys when
/// the bitset would be larger than they are. The sorted form alone bounds
/// memory; the bitset is kept because it pays on the dense keys TPC-H's
/// filters see: traced `olap_power` runs on a two-vCPU host, alternating
/// with a build that binary-searches the sorted keys everywhere, read
/// Q5's node time 7.42 → 5.27 ms in the median, lower in 9 of 10 pairs, a
/// gap wider than the sorted build's inter-quartile distance (1.58 ms);
/// Q21's did not move (BENCH_HISTORY.md).
enum IntKeys {
    Bits { min: i64, bits: Vec<u64> },
    Sorted(Vec<i64>),
}

impl IntKeys {
    fn new(mut keys: Vec<i64>) -> IntKeys {
        keys.sort_unstable();
        keys.dedup();
        match (keys.first(), keys.last()) {
            (Some(&min), Some(&max)) if max.abs_diff(min) / 64 < keys.len() as u64 => {
                let mut bits = vec![0u64; (max.abs_diff(min) / 64 + 1) as usize];
                for k in keys {
                    let at = k.abs_diff(min);
                    bits[(at / 64) as usize] |= 1 << (at % 64);
                }
                IntKeys::Bits { min, bits }
            }
            _ => IntKeys::Sorted(keys),
        }
    }

    #[inline]
    fn contains(&self, k: i64) -> bool {
        match self {
            IntKeys::Bits { min, bits } => {
                let at = k.abs_diff(*min);
                k >= *min
                    && (bits.get((at / 64) as usize)).is_some_and(|w| w & (1 << (at % 64)) != 0)
            }
            IntKeys::Sorted(keys) => keys.binary_search(&k).is_ok(),
        }
    }
}

impl KeyFilter {
    /// Drops the tuples of `scan` the filter rules out; returns how many it
    /// tested, one cpu op each.
    fn narrow(&self, scan: &mut ScanSelection<'_>) -> u64 {
        let col = scan.cols.as_ref().map_or(self.pos, |cols| cols[self.pos]);
        let mut tested = 0;
        for (seg, sel) in &mut scan.units {
            let column = seg.column(col);
            if let ColumnVec::Int(v) = column.data() {
                tested += sel.len() as u64;
                let valid = column.validity();
                sel.retain(|&s| valid.is_valid(s as usize) && self.keys.contains(v[s as usize]));
            }
        }
        scan.units.retain(|(_, sel)| !sel.is_empty());
        tested
    }
}

/// The key filters the steps yield, each with its step's index, in step
/// order. A step's probing side is compiled as its stage compiles it:
/// against the bindings of the driver and the inputs bound before it.
fn key_filters(
    steps: &[Step],
    driving: usize,
    relations: &[Relation],
    edges: &[JoinEdge],
    names: &[String],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> Vec<(usize, KeyFilter)> {
    let width = relations[driving].bindings.len();
    let mut bindings = relations[driving].bindings.clone();
    let mut filters = Vec::new();
    for (k, step) in steps.iter().enumerate() {
        let build = &relations[step.input];
        let filter = match (&step.table, &step.edges[..]) {
            (Some(table @ JoinTable { error: None, .. }), &[e]) => {
                let (others, _) = edge_sides(&[&edges[e]], &names[step.input]);
                match eval::compile_expr(others[0], &Scope::new(&bindings, outer, ctx)) {
                    CompiledExpr::Col(pos) if pos < width => {
                        (table.int_keys(&build.rows)).map(|keys| KeyFilter {
                            pos,
                            keys: IntKeys::new(keys),
                        })
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        filters.extend(filter.map(|f| (k, f)));
        bindings.extend(build.bindings.iter().cloned());
    }
    filters
}

// ---------------------------------------------------------------------------
// Join order
// ---------------------------------------------------------------------------

/// Indices of the equi-join edges that connect input `i` to an already
/// bound input.
fn connecting_edges(edges: &[JoinEdge], names: &[String], bound: &[usize], i: usize) -> Vec<usize> {
    let is_bound = |name: &String| bound.iter().any(|&b| &names[b] == name);
    (0..edges.len())
        .filter(|&e| {
            let e = &edges[e];
            (e.left == names[i] && is_bound(&e.right)) || (e.right == names[i] && is_bound(&e.left))
        })
        .collect()
}

/// Splits each edge into the expression over the input called `name` and
/// the expression over the other side, as `(others, mine)`.
fn edge_sides<'p>(edges: &[&'p JoinEdge], name: &str) -> (Vec<&'p Expr>, Vec<&'p Expr>) {
    edges
        .iter()
        .map(|e| {
            if e.right == name {
                (&e.left_expr, &e.right_expr)
            } else {
                (&e.right_expr, &e.left_expr)
            }
        })
        .unzip()
}

/// One step of the join order: the input joined in, the edges connecting
/// it to the inputs bound before it, and its table over them (none: a
/// cross join).
struct Step {
    input: usize,
    edges: Vec<usize>,
    table: Option<JoinTable>,
}

/// What the join order is decided from: the inputs as rows (the driver's
/// are still on its segments), per input the row count of what it was
/// selected from — its table's, or its own for a derived table, taken
/// before [`reduce_by_leaves`] — and the block's names and edges.
struct OrderInputs<'a> {
    relations: &'a [Relation],
    base_rows: &'a [usize],
    names: &'a [String],
    edges: &'a [JoinEdge],
}

/// A join table with the input it is built on and the edges it is keyed
/// over: what the order looks a candidate's table up by.
type KeyedTable = (usize, Vec<usize>, JoinTable);

/// Builds the table of the input `rel`, called `name`, over `my_edges`.
fn build_table(
    rel: &Relation,
    name: &str,
    edges: &[JoinEdge],
    my_edges: &[usize],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<JoinTable> {
    let refs: Vec<&JoinEdge> = my_edges.iter().map(|&e| &edges[e]).collect();
    let (_, mine) = edge_sides(&refs, name);
    let keys = SideKeys::new(&mine, &Scope::new(&rel.bindings, outer, ctx));
    JoinTable::build(keys, &rel.rows, outer, ctx)
}

/// One semi-join reduction, for the block's account.
struct Reduction {
    leaf: usize,
    parent: usize,
    edges: Vec<usize>,
    before: usize,
    after: usize,
}

/// Sheds from the build sides what a *leaf* already excludes, before the
/// order is fixed. A leaf is a non-driving input all of whose edges go to
/// one other non-driving input, its parent (`nation` under `supplier` in
/// TPC-H Q21; `region` under `nation` under `supplier` in Q5). Every edge
/// is a conjunct of the block, so a parent row whose key finds no row in
/// the leaf's table can be in no tuple the block emits: it is dropped
/// here, and the parent's own table — and every step downstream of it —
/// is that much smaller. The leaf then counts as gone and the rule
/// applies again, to fixpoint, leaves first, so an input's rows are final
/// before a table is built over them. The leaf's table is over exactly the
/// edges its step connects by, so it is handed to [`greedy_steps`] and
/// nothing is hashed twice.
///
/// Only rows the leaf's step could never match are dropped, by that step's
/// own rule: a key with a NULL component matches nothing, a key that fails
/// to evaluate before any NULL keeps its row (the step raises the error if
/// a tuple brings the row that far). A leaf whose table holds an error
/// reduces nothing — its step raises it — and neither does an edge with a
/// subquery on either side, which would be evaluated twice. Inputs on a
/// cycle are nobody's leaf, and a leaf of the driver is left to its step.
fn reduce_by_leaves(
    driving: usize,
    relations: &mut [Relation],
    names: &[String],
    edges: &[JoinEdge],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<(Vec<KeyedTable>, Vec<Reduction>)> {
    let mut gone = vec![false; relations.len()];
    let mut tables = Vec::new();
    let mut reductions = Vec::new();
    // The first input in FROM order whose edges to inputs still there all
    // go to one of them, with that one and the edges.
    let next_leaf = |gone: &[bool]| {
        (0..gone.len())
            .filter(|&l| l != driving && !gone[l])
            .find_map(|l| {
                let (mut parent, mut mine) = (None, Vec::new());
                for (e, edge) in edges.iter().enumerate() {
                    let other = match (edge.left == names[l], edge.right == names[l]) {
                        (true, false) => &edge.right,
                        (false, true) => &edge.left,
                        _ => continue,
                    };
                    let other = names.iter().position(|n| n == other)?;
                    if gone[other] {
                        continue;
                    }
                    if parent.is_some_and(|p| p != other) {
                        return None;
                    }
                    parent = Some(other);
                    mine.push(e);
                }
                let parent = parent.filter(|&p| p != driving)?;
                Some((l, parent, mine))
            })
    };
    while let Some((leaf, parent, my_edges)) = next_leaf(&gone) {
        gone[leaf] = true;
        let table = build_table(&relations[leaf], &names[leaf], edges, &my_edges, outer, ctx)?;
        let refs: Vec<&JoinEdge> = my_edges.iter().map(|&e| &edges[e]).collect();
        let (theirs, _) = edge_sides(&refs, &names[leaf]);
        let probe = SideKeys::new(
            &theirs,
            &Scope::new(&relations[parent].bindings, outer, ctx),
        );
        if table.error.is_none() && !table.keys.has_subquery() && !probe.has_subquery() {
            let before = relations[parent].rows.len();
            let rows = std::mem::take(&mut relations[parent].rows);
            let leaf_rows = &relations[leaf].rows;
            let mut scratch = Vec::new();
            let kept = (rows.into_iter())
                .filter(|row| match probe.eval(row, outer, ctx, &mut scratch) {
                    Ok(()) => {
                        let key = |i| Cell::Value(probe.component(i, row, &scratch));
                        (0..probe.len()).all(|i| !key(i).is_null())
                            && (table.matches(leaf_rows, probe.hash(row, &scratch), key))
                                .next()
                                .is_some()
                    }
                    Err((_, null_first)) => !null_first,
                })
                .collect();
            relations[parent].rows = kept;
            reductions.push(Reduction {
                leaf,
                parent,
                edges: my_edges.clone(),
                before,
                after: relations[parent].rows.len(),
            });
        }
        tables.push((leaf, my_edges, table));
    }
    Ok((tables, reductions))
}

/// The greedy join order from `driving` on. Each round picks, among the
/// inputs connected to a bound one by an equi-join edge, the one minimizing
/// the classic output-cardinality estimate `current × candidate /
/// distinct(candidate join keys)` — which keeps low-distinct edges (TPC-H's
/// nation-key joins) from exploding the intermediate result. The estimate
/// does not see that a filtered build side drops the probing tuples it has
/// no row for, so on equal estimates the candidate that kept the smaller
/// share of what it was selected from wins — it passes the fewest tuples
/// on — then the first in FROM order; with no connected input the smallest
/// unbound one is cross-joined. `current` scales a round's estimates
/// alike, so the driver's cardinality stands in for it and the order is
/// known before a tuple moves. A candidate's distinct count comes out of
/// building its [`JoinTable`], once per (input, connecting edges) —
/// `tables` holds the ones [`reduce_by_leaves`] built already: the table of
/// the pair that is picked is the step's.
fn greedy_steps(
    driving: usize,
    driver_rows: usize,
    inputs: &OrderInputs<'_>,
    mut tables: Vec<KeyedTable>,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Vec<Step>> {
    let OrderInputs {
        relations,
        base_rows,
        names,
        edges,
    } = *inputs;
    let mut bound = vec![driving];
    let mut steps = Vec::new();
    while bound.len() < relations.len() {
        let mut best: Option<(f64, f64, usize)> = None;
        for i in (0..relations.len()).filter(|i| !bound.contains(i)) {
            let my_edges = connecting_edges(edges, names, &bound, i);
            if my_edges.is_empty() {
                continue;
            }
            let known = tables
                .iter()
                .position(|(n, e, _)| *n == i && *e == my_edges);
            let at = match known {
                Some(at) => at,
                None => {
                    let table =
                        build_table(&relations[i], &names[i], edges, &my_edges, outer, ctx)?;
                    tables.push((i, my_edges, table));
                    tables.len() - 1
                }
            };
            let (rows, keys) = (relations[i].rows.len(), tables[at].2.distinct);
            let est = driver_rows as f64 * rows as f64 / keys.max(1) as f64;
            let share = rows as f64 / base_rows[i].max(1) as f64;
            if best.is_none_or(|(b, s, _)| est < b || (est == b && share < s)) {
                best = Some((est, share, at));
            }
        }
        let step = match best {
            Some((_, _, at)) => {
                let (input, edges, table) = tables.swap_remove(at);
                Step {
                    input,
                    edges,
                    table: Some(table),
                }
            }
            // No connected input: the smallest unbound one.
            None => Step {
                input: (0..relations.len())
                    .filter(|i| !bound.contains(i))
                    .min_by_key(|&i| relations[i].rows.len())
                    .expect("an unbound input exists"),
                edges: Vec::new(),
                table: None,
            },
        };
        bound.push(step.input);
        steps.push(step);
    }
    Ok(steps)
}

// ---------------------------------------------------------------------------
// Join table
// ---------------------------------------------------------------------------

/// A build side's composite key, one component per edge, compiled against
/// the side's bindings: column reads in place, programs for the rest. (A
/// name that does not resolve compiles too; its error surfaces from
/// evaluation.)
struct SideKeys(Vec<KeyProg>);

impl SideKeys {
    fn new(exprs: &[&Expr], scope: &Scope<'_>) -> Self {
        SideKeys(key_progs(
            exprs.iter().map(|e| eval::compile_expr(e, scope)),
        ))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// How many components are evaluated into the scratch buffer rather
    /// than read from the row in place.
    fn evaluated(&self) -> usize {
        (self.0.iter())
            .filter(|p| matches!(p, KeyProg::Expr { .. }))
            .count()
    }

    fn has_subquery(&self) -> bool {
        (self.0.iter()).any(|p| matches!(p, KeyProg::Expr { expr, .. } if expr.has_subquery()))
    }

    /// Evaluates `row`'s non-column components into `scratch` (cleared
    /// first), in edge order. An error comes back with whether a NULL
    /// component precedes it: a NULL key never matches, so a join stops
    /// evaluating at the first one and would not have raised it.
    fn eval(
        &self,
        row: &[Value],
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
        scratch: &mut Vec<Value>,
    ) -> Result<(), (EngineError, bool)> {
        scratch.clear();
        let mut null_seen = false;
        for p in &self.0 {
            null_seen |= match p {
                KeyProg::Col(c) => row[*c].is_null(),
                KeyProg::Expr { expr, .. } => {
                    let v =
                        eval::eval_compiled(expr, row, outer, ctx).map_err(|e| (e, null_seen))?;
                    let null = v.is_null();
                    scratch.push(v);
                    null
                }
            };
        }
        Ok(())
    }

    /// Component `i` of an evaluated key.
    fn component<'r>(&self, i: usize, row: &'r [Value], scratch: &'r [Value]) -> &'r Value {
        key_component(&self.0, i, row, scratch)
    }

    /// Canonical hash of an evaluated key (`1` and `1.0` agree).
    fn hash(&self, row: &[Value], scratch: &[Value]) -> u64 {
        let mut hasher = FnvHasher::new();
        for i in 0..self.len() {
            hash_value(self.component(i, row, scratch), &mut hasher);
        }
        hasher.finish()
    }
}

/// End of a bucket chain.
const NIL: u32 = u32::MAX;

/// The one join hash table: the rows of a build side chained per bucket in
/// ascending row order through `next`, keyed on their *borrowed* key
/// components — column components are read from the build row in place,
/// only expression-valued ones are stored. Equality is `sort_cmp == Equal`
/// per component, i.e. [`apuama_sql::value::HashableValue`]'s (`1 = 1.0`
/// matches, text never equals a number and raises nothing); hashing is
/// [`hash_value`] into [`FnvHasher`], mixed once more for the bucket index
/// because FNV's low bits only see the low bits of its input. A key with a
/// NULL component is chained like any other — the greedy order's distinct
/// count takes NULL for a value — and is never found: a probe key has no
/// NULL component, and NULL equals only NULL. The table holds row numbers,
/// not the rows: [`Self::matches`] is handed the rows it was built over.
struct JoinTable {
    keys: SideKeys,
    /// Bucket → first and last row of its chain.
    heads: Vec<u32>,
    tails: Vec<u32>,
    shift: u32,
    /// Row → next row of the same bucket.
    next: Vec<u32>,
    /// Row → key hash, compared before the components are.
    hashes: Vec<u64>,
    /// Expression-valued key components, `keys.evaluated()` per row.
    evaluated: Vec<Value>,
    /// Distinct keys among the rows, NULL counting as a value; the row
    /// count ("all distinct") when a key failed to evaluate.
    distinct: usize,
    /// No two chained rows share a key (two NULL keys count as sharing
    /// one): a probe matches at most one row.
    unique: bool,
    /// The error the first key a join would evaluate in full raised. It
    /// costs a candidate nothing; the step that joins through this table
    /// raises it.
    error: Option<EngineError>,
}

impl JoinTable {
    /// Chains every row of `rows` under its key, counting the distinct ones
    /// on the way: one pass serves the order's estimate and the step.
    fn build(
        keys: SideKeys,
        rows: &[Row],
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
    ) -> EngineResult<Self> {
        if rows.len() >= NIL as usize {
            return Err(EngineError::ResourceExhausted(format!(
                "join build side of {} rows exceeds the hash table's row ids",
                rows.len()
            )));
        }
        #[cfg(test)]
        TABLES_BUILT.set(TABLES_BUILT.get() + 1);
        let bits = (rows.len() * 2).next_power_of_two().trailing_zeros().max(1);
        let mut table = JoinTable {
            heads: vec![NIL; 1 << bits],
            tails: vec![NIL; 1 << bits],
            shift: 64 - bits,
            next: Vec::with_capacity(rows.len()),
            hashes: Vec::with_capacity(rows.len()),
            evaluated: Vec::with_capacity(rows.len() * keys.evaluated()),
            distinct: 0,
            unique: true,
            error: None,
            keys,
        };
        let mut scratch = Vec::new();
        let mut exact = true;
        for row in rows {
            match table.keys.eval(row, outer, ctx, &mut scratch) {
                Ok(()) => {
                    let hash = table.keys.hash(row, &scratch);
                    let key = |i| Cell::Value(table.keys.component(i, row, &scratch));
                    let first = table.matches(rows, hash, key).next().is_none();
                    table.distinct += usize::from(first);
                    table.unique &= first;
                    table.push(Some(hash), &mut scratch);
                }
                // The key is NULL before it fails: unmatchable, no error.
                Err((_, true)) => {
                    exact = false;
                    table.push(None, &mut scratch);
                }
                Err((e, false)) => {
                    table.error = Some(e);
                    break;
                }
            }
        }
        if !exact || table.error.is_some() {
            table.distinct = rows.len();
        }
        Ok(table)
    }

    /// The keys of a one-component table over `rows` that are not NULL,
    /// when every one is an `Int`.
    fn int_keys(&self, rows: &[Row]) -> Option<Vec<i64>> {
        let width = self.keys.evaluated();
        let mut keys = Vec::with_capacity(rows.len());
        for (r, row) in rows.iter().enumerate() {
            let stored = &self.evaluated[r * width..(r + 1) * width];
            match self.keys.component(0, row, stored) {
                Value::Null => {}
                Value::Int(k) => keys.push(*k),
                _ => return None,
            }
        }
        Some(keys)
    }

    /// Adds the next row of `rows` (they arrive in order), taking its
    /// evaluated components from `scratch`. `hash` is `None` for a row that
    /// has no key: it is stored but not chained.
    fn push(&mut self, hash: Option<u64>, scratch: &mut Vec<Value>) {
        let row = self.next.len();
        self.next.push(NIL);
        self.hashes.push(hash.unwrap_or(0));
        self.evaluated.append(scratch);
        self.evaluated
            .resize((row + 1) * self.keys.evaluated(), Value::Null);
        let Some(hash) = hash else { return };
        let bucket = self.bucket(hash);
        match self.tails[bucket] {
            NIL => self.heads[bucket] = row as u32,
            tail => self.next[tail as usize] = row as u32,
        }
        self.tails[bucket] = row as u32;
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The chained rows — numbers into `rows`, the rows the table was built
    /// over — whose key equals the probe's, ascending; `probe` gives the
    /// probe key's component `i`.
    fn matches<'t, 'c>(
        &'t self,
        rows: &'t [Row],
        hash: u64,
        probe: impl Fn(usize) -> Cell<'c> + 't,
    ) -> impl Iterator<Item = usize> + 't {
        let width = self.keys.evaluated();
        let mut at = self.heads[self.bucket(hash)];
        std::iter::from_fn(move || {
            while at != NIL {
                let row = at as usize;
                at = self.next[row];
                let stored = &self.evaluated[row * width..(row + 1) * width];
                if self.hashes[row] == hash
                    && (0..self.keys.len())
                        .all(|i| probe(i).equals(self.keys.component(i, &rows[row], stored)))
                {
                    return Some(row);
                }
            }
            None
        })
    }
}

// ---------------------------------------------------------------------------
// The stream
// ---------------------------------------------------------------------------

/// One value of a stream tuple, where it lies: a stored cell of the driving
/// segment, or a `Value` — of a build row, of a derived driver's row, an
/// evaluated key component. Hash and equality are the join table's
/// ([`hash_value`], `sort_cmp == Equal`) on either.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Stored(&'a Column, usize),
    Value(&'a Value),
}

impl Cell<'_> {
    fn is_null(&self) -> bool {
        match self {
            Cell::Stored(col, i) => !col.validity().is_valid(*i),
            Cell::Value(v) => v.is_null(),
        }
    }

    fn hash(&self, state: &mut FnvHasher) {
        match self {
            Cell::Stored(col, i) => hash_cell(col, *i, state),
            Cell::Value(v) => hash_value(v, state),
        }
    }

    fn equals(&self, stored: &Value) -> bool {
        match self {
            Cell::Stored(col, i) => cell_matches(col, *i, stored),
            Cell::Value(v) => stored.sort_cmp(v) == Ordering::Equal,
        }
    }

    fn read_into(&self, out: &mut Value) {
        match self {
            Cell::Stored(col, i) => col.read_into(*i, out),
            Cell::Value(v) => out.clone_from(v),
        }
    }
}

/// Where a stream tuple holds a position of the joined row: a kept column
/// of the driving input, or a column of the row it matched in the `k`-th
/// joined input.
#[derive(Clone, Copy)]
enum Src {
    Driver(usize),
    Joined(usize, usize),
}

/// A run of the stream: tuple `t` is the driving input's tuple at
/// `slots[t]` joined with row `matches[k][t]` of the `k`-th joined input.
#[derive(Default)]
struct Chunk {
    slots: Vec<u32>,
    matches: Vec<Vec<u32>>,
}

impl Chunk {
    /// Replaces this chunk with the `parents` tuples of `input`, in that
    /// order, each extended by its entry of `matched` (a join stage's).
    fn gather(&mut self, input: &Chunk, parents: &[u32], matched: Option<&[u32]>) {
        let pick = |from: &[u32], to: &mut Vec<u32>| {
            to.clear();
            to.extend(parents.iter().map(|&p| from[p as usize]));
        };
        pick(&input.slots, &mut self.slots);
        self.matches
            .resize_with(input.matches.len() + matched.is_some() as usize, Vec::new);
        for (to, from) in self.matches.iter_mut().zip(&input.matches) {
            pick(from, to);
        }
        if let (Some(matched), Some(last)) = (matched, self.matches.last_mut()) {
            last.clear();
            last.extend_from_slice(matched);
        }
    }
}

/// The tuples a stage hands on at a time, at most (plus the matches of the
/// tuple that crosses the line): what bounds the stream's memory when a
/// step expands.
const CHUNK_TUPLES: usize = exec::SCAN_BATCH_ROWS as usize;

/// The driving input: the selection of a base table, or a derived table's
/// rows (streamed through the same stages, cells read from the row).
enum Driver<'a> {
    Selected(&'a ScanSelection<'a>),
    Rows(&'a [Row]),
}

/// What a chunk's slots index.
#[derive(Clone, Copy)]
enum DriverUnit<'a> {
    Segment(&'a Segment, Option<&'a [usize]>),
    Rows(&'a [Row]),
}

impl<'a> DriverUnit<'a> {
    /// The driving tuple's cell at position `pos` of the input's bindings.
    fn cell(&self, pos: usize, slot: u32) -> Cell<'a> {
        match self {
            DriverUnit::Segment(seg, cols) => {
                Cell::Stored(seg.column(cols.map_or(pos, |c| c[pos])), slot as usize)
            }
            DriverUnit::Rows(rows) => Cell::Value(&rows[slot as usize][pos]),
        }
    }
}

impl Driver<'_> {
    /// Sends the input through the stages, unit by unit, consulting the
    /// governor before each.
    fn stream(&self, stages: &mut [Stage<'_>], env: &mut Env<'_>) -> EngineResult<()> {
        let mut chunk = Chunk::default();
        match self {
            Driver::Selected(scan) => {
                for (seg, sel) in &scan.units {
                    env.ctx.check_interrupt()?;
                    chunk.slots.clone_from(sel);
                    let unit = DriverUnit::Segment(seg, scan.cols.as_deref());
                    run(stages, env, unit, &chunk)?;
                }
            }
            Driver::Rows(rows) => {
                if rows.len() >= NIL as usize {
                    return Err(EngineError::ResourceExhausted(format!(
                        "driving relation of {} rows exceeds the join stream's row ids",
                        rows.len()
                    )));
                }
                for lo in (0..rows.len()).step_by(CHUNK_TUPLES) {
                    env.ctx.check_interrupt()?;
                    let hi = (lo + CHUNK_TUPLES).min(rows.len());
                    chunk.slots.clear();
                    chunk.slots.extend(lo as u32..hi as u32);
                    run(stages, env, DriverUnit::Rows(rows), &chunk)?;
                }
            }
        }
        Ok(())
    }
}

/// One component of a hash step's probe key.
enum ProbeComp {
    /// A column of a bound input: hashed and compared where it lies.
    Cell(Src),
    /// Anything else: evaluated on the scratch joined row, into this slot
    /// of the stage's `keys`.
    Expr(CompiledExpr, usize),
}

enum StageKind<'a> {
    /// Equi-join with the next input, through its table.
    Hash {
        table: &'a JoinTable,
        /// The rows `table` was built over.
        rows: &'a [Row],
        probe: Vec<ProbeComp>,
        /// The cells the expression-valued components read.
        fills: Vec<(usize, Src)>,
        /// Their values for the tuple at hand.
        keys: Vec<Value>,
    },
    /// Cartesian product with an input of this many rows (only reached for
    /// disconnected FROM items, which the TPC-H workload never produces but
    /// the engine stays total for).
    Cross(usize),
    /// Post-filters, on the scratch joined row.
    Filter {
        preds: Vec<ResidualPred>,
        memos: Vec<ProbeMemo>,
        fills: Vec<(usize, Src)>,
    },
    /// The driving scan's subquery conjuncts: its own programs and probe
    /// memos, on the driving tuple's cells through the scan's scratch row.
    DriverPreds {
        preds: &'a ScanPreds,
        scratch: RowScratch,
    },
}

struct Stage<'a> {
    kind: StageKind<'a>,
    /// Tuples that reached the stage, and that left it.
    seen: u64,
    kept: u64,
    /// The tuples leaving, as indices into the chunk at hand, with the row
    /// each matched (join stages); gathered into `out` and handed on.
    parents: Vec<u32>,
    matched: Vec<u32>,
    out: Chunk,
}

impl<'a> Stage<'a> {
    fn new(kind: StageKind<'a>) -> Self {
        Stage {
            kind,
            seen: 0,
            kept: 0,
            parents: Vec::new(),
            matched: Vec::new(),
            out: Chunk::default(),
        }
    }
}

/// What every stage works with: the joined inputs' rows, the scratch joined
/// row, and the block's output as it grows.
struct Env<'a> {
    outer: &'a [Frame<'a>],
    ctx: &'a ExecContext<'a>,
    /// The joined inputs' rows, in bound order.
    builds: Vec<&'a [Row]>,
    /// The scratch joined row: as wide as the block's output, holding of
    /// the tuple at hand only the cells the evaluating stage asked for.
    row: Vec<Value>,
    /// The rows leaving the last stage. Every [`exec::SCAN_BATCH_ROWS`] of
    /// them the governor is consulted and the growth charged to the memory
    /// budget, so a block whose output does not fit ends in `Cancelled` /
    /// `ResourceExhausted` instead of asking the allocator for it.
    out: Vec<Row>,
    settled: usize,
    /// Filter evaluations so far, one cpu op each.
    cpu: u64,
}

impl<'a> Env<'a> {
    /// Where tuple `t` of `chunk` holds `src`.
    fn cell<'x>(&self, src: Src, unit: DriverUnit<'x>, chunk: &Chunk, t: usize) -> Cell<'x>
    where
        'a: 'x,
    {
        match src {
            Src::Driver(pos) => unit.cell(pos, chunk.slots[t]),
            Src::Joined(k, col) => Cell::Value(&self.builds[k][chunk.matches[k][t] as usize][col]),
        }
    }

    /// Refills the scratch joined row's `fills` cells from tuple `t`.
    fn fill(&mut self, fills: &[(usize, Src)], unit: DriverUnit<'_>, chunk: &Chunk, t: usize) {
        for &(pos, src) in fills {
            let cell = self.cell(src, unit, chunk, t);
            cell.read_into(&mut self.row[pos]);
        }
    }

    /// Materializes a chunk that left the last stage: each tuple's kept
    /// driver columns, then its matched rows in bound order.
    fn emit(&mut self, unit: DriverUnit<'_>, chunk: &Chunk) -> EngineResult<()> {
        let (width, start) = (self.row.len(), self.out.len());
        match unit {
            DriverUnit::Segment(seg, cols) => {
                materialize(seg, &chunk.slots, cols, width, &mut self.out)
            }
            DriverUnit::Rows(rows) => self.out.extend(chunk.slots.iter().map(|&s| {
                let mut row = Vec::with_capacity(width);
                row.extend_from_slice(&rows[s as usize]);
                row
            })),
        }
        for (rows, matched) in self.builds.iter().zip(&chunk.matches) {
            for (row, &m) in self.out[start..].iter_mut().zip(matched) {
                row.extend_from_slice(&rows[m as usize]);
            }
        }
        if self.out.len() - self.settled >= CHUNK_TUPLES {
            self.settle()?;
        }
        Ok(())
    }

    fn settle(&mut self) -> EngineResult<()> {
        self.ctx.check_interrupt()?;
        let grown = (self.out.len() - self.settled) as u64;
        self.settled = self.out.len();
        self.ctx
            .charge_mem(exec::approx_state_bytes(grown, self.row.len()))
    }
}

/// Sends `chunk` through `stages`, depth first: a stage hands what it keeps
/// to the next in runs of [`CHUNK_TUPLES`], so tuples leave the last stage
/// in stream order — driver-major, matches ascending — whatever expands on
/// the way, and no stage holds more than a run.
fn run(
    stages: &mut [Stage<'_>],
    env: &mut Env<'_>,
    unit: DriverUnit<'_>,
    chunk: &Chunk,
) -> EngineResult<()> {
    let Some((stage, rest)) = stages.split_first_mut() else {
        return env.emit(unit, chunk);
    };
    let Stage {
        kind,
        seen,
        kept,
        parents,
        matched,
        out,
    } = stage;
    *seen += chunk.slots.len() as u64;
    let joins = matches!(kind, StageKind::Hash { .. } | StageKind::Cross(_));
    let mut hand_on = |env: &mut Env<'_>, parents: &mut Vec<u32>, matched: &mut Vec<u32>| {
        *kept += parents.len() as u64;
        out.gather(chunk, parents, joins.then_some(matched));
        parents.clear();
        matched.clear();
        run(rest, env, unit, out)
    };
    for t in 0..chunk.slots.len() {
        match kind {
            StageKind::Hash {
                table,
                rows,
                probe,
                fills,
                keys,
            } => {
                // A NULL component never matches: evaluation stops at it.
                keys.clear();
                if !fills.is_empty() {
                    env.fill(fills, unit, chunk, t);
                }
                let mut hasher = FnvHasher::new();
                let mut null = false;
                for comp in probe.iter() {
                    null = match comp {
                        ProbeComp::Cell(src) => {
                            let cell = env.cell(*src, unit, chunk, t);
                            cell.hash(&mut hasher);
                            cell.is_null()
                        }
                        ProbeComp::Expr(expr, _) => {
                            let v = eval::eval_compiled(expr, &env.row, env.outer, env.ctx)?;
                            hash_value(&v, &mut hasher);
                            keys.push(v);
                            keys.last().is_some_and(Value::is_null)
                        }
                    };
                    if null {
                        break;
                    }
                }
                if null {
                    continue;
                }
                let key = |i: usize| match &probe[i] {
                    ProbeComp::Cell(src) => env.cell(*src, unit, chunk, t),
                    ProbeComp::Expr(_, slot) => Cell::Value(&keys[*slot]),
                };
                for m in table.matches(rows, hasher.finish(), key) {
                    parents.push(t as u32);
                    matched.push(m as u32);
                }
            }
            StageKind::Cross(rows) => {
                parents.extend(std::iter::repeat_n(t as u32, *rows));
                matched.extend(0..*rows as u32);
            }
            StageKind::Filter {
                preds,
                memos,
                fills,
            } => {
                env.fill(fills, unit, chunk, t);
                let (outer, ctx) = (env.outer, env.ctx);
                if keep_row_charged(&env.row, preds, memos, outer, ctx, || env.cpu += 1)? {
                    parents.push(t as u32);
                }
            }
            StageKind::DriverPreds { preds, scratch } => {
                let DriverUnit::Segment(seg, _) = unit else {
                    unreachable!("only a base table's scan defers conjuncts")
                };
                let slot = chunk.slots[t] as usize;
                if preds.keep_rest(0, seg, slot, scratch, env.outer, env.ctx, || env.cpu += 1)? {
                    parents.push(t as u32);
                }
            }
        }
        if parents.len() >= CHUNK_TUPLES {
            hand_on(env, parents, matched)?;
        }
    }
    if !parents.is_empty() {
        hand_on(env, parents, matched)?;
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// Tables built on this thread.
    static TABLES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    /// A relation of int columns named `cols`, qualified with `name`; row
    /// `r` holds `cell(r, column index)`.
    fn rel(name: &str, cols: &[&str], rows: usize, cell: impl Fn(usize, usize) -> i64) -> Relation {
        Relation {
            bindings: cols
                .iter()
                .map(|c| Binding {
                    qualifier: Some(name.to_string()),
                    name: c.to_string(),
                })
                .collect(),
            rows: (0..rows)
                .map(|r| (0..cols.len()).map(|c| Value::Int(cell(r, c))).collect())
                .collect(),
        }
    }

    fn edge(left: &str, left_col: &str, right: &str, right_col: &str) -> JoinEdge {
        JoinEdge {
            left: left.to_string(),
            left_expr: apuama_sql::parse_expression(left_col).unwrap(),
            right: right.to_string(),
            right_expr: apuama_sql::parse_expression(right_col).unwrap(),
        }
    }

    /// The greedy order from `driving` on — after the leaf reductions, as
    /// `open` runs it, every input counting as a whole table — with how
    /// many tables were built on the way, after how many steps a driving
    /// scan's subquery conjuncts would run, and each input's rows left.
    fn order(
        inputs: &[Relation],
        names: &[&str],
        edges: &[JoinEdge],
        driving: usize,
    ) -> (Vec<usize>, usize, usize, Vec<usize>) {
        let db = Database::in_memory();
        let ctx = ExecContext::new(&db);
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let before = TABLES_BUILT.get();
        let driver_rows = inputs[driving].rows.len();
        let base_rows: Vec<usize> = inputs.iter().map(|r| r.rows.len()).collect();
        let mut relations = inputs.to_vec();
        let (tables, _) =
            reduce_by_leaves(driving, &mut relations, &names, edges, &[], &ctx).unwrap();
        let order_inputs = OrderInputs {
            relations: &relations,
            base_rows: &base_rows,
            names: &names,
            edges,
        };
        let steps = greedy_steps(driving, driver_rows, &order_inputs, tables, &[], &ctx).unwrap();
        let mut bound = vec![driving];
        bound.extend(steps.iter().map(|s| s.input));
        (
            bound,
            TABLES_BUILT.get() - before,
            driver_preds_after(&steps),
            relations.iter().map(|r| r.rows.len()).collect(),
        )
    }

    #[test]
    fn greedy_order_of_q3_q5_and_q21_shaped_inputs() {
        // Q3: customer, orders, lineitem — customer hangs off orders alone,
        // so orders first sheds the rows of the other 120 customers; it is
        // the only input connected to the driving lineitem, which it hangs
        // off in turn and is left to. customer follows.
        let customer = rel("customer", &["c_custkey"], 30, |r, _| r as i64);
        let orders = rel("orders", &["o_orderkey", "o_custkey"], 700, |r, c| {
            [r as i64, (r % 150) as i64][c]
        });
        let lineitem = rel("lineitem", &["l_orderkey", "l_suppkey"], 3000, |r, c| {
            [(r / 4) as i64, (r % 10) as i64][c]
        });
        let q3 = [
            edge("customer", "c_custkey", "orders", "o_custkey"),
            edge("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ];
        let (got, built, _, left) = order(
            &[customer.clone(), orders.clone(), lineitem.clone()],
            &["customer", "orders", "lineitem"],
            &q3,
            2,
        );
        assert_eq!(got, [2, 1, 0]);
        assert_eq!(left, [30, 150, 3000]);
        // One table per step: the pass that counts an input's keys is the
        // pass that builds what the step probes, and customer's is the one
        // orders was reduced through.
        assert_eq!(built, 2);

        // Q5: customer, orders, lineitem, supplier, nation, region. The
        // one region leaves nation 5 of its rows, those leave supplier 2;
        // customer, orders and supplier lie on a cycle with lineitem and
        // are nobody's leaf. Against lineitem, orders (700 / 700 distinct
        // keys → 1 per probe) ties with supplier (2 / 2) and supplier kept
        // the smaller share of itself; so does nation against orders next.
        // orders then ties with the one region on estimate and share and is
        // first in FROM order; customer (30 / 30 once both its edges
        // connect) ties with region again and comes first.
        let supplier = rel("supplier", &["s_suppkey", "s_nationkey"], 10, |r, c| {
            [r as i64, (r % 5) as i64][c]
        });
        let customer5 = rel("customer", &["c_custkey", "c_nationkey"], 30, |r, c| {
            [r as i64, (r % 5) as i64][c]
        });
        let nation = rel("nation", &["n_nationkey", "n_regionkey"], 25, |r, c| {
            [r as i64, (r % 5) as i64][c]
        });
        let region = rel("region", &["r_regionkey"], 1, |_, _| 2);
        let q5 = [
            edge("customer", "c_custkey", "orders", "o_custkey"),
            edge("lineitem", "l_orderkey", "orders", "o_orderkey"),
            edge("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            edge("customer", "c_nationkey", "supplier", "s_nationkey"),
            edge("supplier", "s_nationkey", "nation", "n_nationkey"),
            edge("nation", "n_regionkey", "region", "r_regionkey"),
        ];
        let (got, built, preds_after, left) = order(
            &[
                customer5,
                orders.clone(),
                lineitem.clone(),
                supplier.clone(),
                nation.clone(),
                region,
            ],
            &[
                "customer", "orders", "lineitem", "supplier", "nation", "region",
            ],
            &q5,
            2,
        );
        assert_eq!(got, [2, 3, 4, 1, 0, 5]);
        assert_eq!(left, [30, 700, 3000, 2, 5, 1]);
        // region's and nation's tables come from the reductions; customer
        // is built twice, over its supplier edge and again when orders'
        // edge joins in.
        assert_eq!(built, 6);
        // Every build side is unique on its key: conjuncts deferred from a
        // driving lineitem scan would run after all five steps.
        assert_eq!(preds_after, 5);

        // Q21: supplier, l1, orders, nation with l1 driving — its `EXISTS`
        // conjuncts no longer count toward its cardinality. The one nation
        // leaves supplier 2 rows; orders hangs off the driver and is left
        // alone. supplier and orders tie at one match per probe and
        // supplier kept the smaller share; the one nation row comes last.
        let l1 = rel("l1", &["l_orderkey", "l_suppkey"], 2000, |r, c| {
            [(r / 3) as i64, (r % 10) as i64][c]
        });
        let nation1 = rel("nation", &["n_nationkey"], 1, |_, _| 3);
        let q21 = [
            edge("supplier", "s_suppkey", "l1", "l1.l_suppkey"),
            edge("orders", "o_orderkey", "l1", "l1.l_orderkey"),
            edge("supplier", "s_nationkey", "nation", "n_nationkey"),
        ];
        let (got, _, preds_after, left) = order(
            &[supplier, l1, orders, nation1],
            &["supplier", "l1", "orders", "nation"],
            &q21,
            1,
        );
        assert_eq!(got, [1, 0, 2, 3]);
        assert_eq!(left, [2, 2000, 700, 1]);
        assert_eq!(preds_after, 3);
    }

    /// The driving input is never rows: of a Q5-shaped block's 5 000-tuple
    /// `fact` selection, the only rows built are the 200 that leave the
    /// last stage — beside the build sides, once each.
    #[test]
    fn only_build_sides_and_the_blocks_output_become_rows() {
        let mut db = Database::in_memory();
        db.execute_script(
            "create table fact (f_id int not null, f_okey int, f_skey int, f_price float, \
                                f_note text, primary key (f_id)) clustered by (f_id);
             create table ords (o_key int not null, o_ckey int, o_flag int, primary key (o_key));
             create table cust (c_key int not null, c_nat int, primary key (c_key));
             create table supp (s_key int not null, s_nat int, primary key (s_key));",
        )
        .unwrap();
        let ints = |n: i64, f: &dyn Fn(i64) -> Vec<i64>| -> Vec<Row> {
            (0..n)
                .map(|i| f(i).into_iter().map(Value::Int).collect())
                .collect()
        };
        let fact: Vec<Row> = (0..5000i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 500),
                    Value::Int(i % 20),
                    Value::Float(i as f64 * 0.25),
                    Value::Str(format!("note {i}")),
                ]
            })
            .collect();
        db.load_table("fact", fact).unwrap();
        db.load_table("ords", ints(500, &|j| vec![j, j % 50, (j % 5 == 0) as i64]))
            .unwrap();
        db.load_table("cust", ints(50, &|k| vec![k, k / 10]))
            .unwrap();
        db.load_table("supp", ints(20, &|s| vec![s, s % 5]))
            .unwrap();
        let body = "from cust, ords, fact, supp where c_key = o_ckey and f_okey = o_key \
                    and f_skey = s_key and c_nat = s_nat and o_flag = 1";
        for workers in [1, 2] {
            db.query(&format!("set parallel_workers = {workers}"))
                .unwrap();
            let before = ROWS_MATERIALIZED.get();
            let out = db
                .query(&format!(
                    "select c_nat, sum(f_price) as s {body} group by c_nat"
                ))
                .unwrap();
            assert_eq!(out.rows.len(), 1);
            assert_eq!(out.stats.rows_scanned, 5000 + 500 + 50 + 20);
            // cust, the 100 flagged ords, supp — and the block's output.
            assert_eq!(
                ROWS_MATERIALIZED.get() - before,
                50 + 100 + 20 + 200,
                "×{workers}"
            );
            let n = db.query(&format!("select count(*) as n {body}")).unwrap();
            assert_eq!(n.rows[0][0], Value::Int(200));
        }
    }

    #[test]
    fn equal_estimates_keep_from_order_and_errors_count_as_all_distinct() {
        let big = rel("big", &["k", "j"], 100, |r, _| r as i64);
        // Both candidates: 20 rows over 10 distinct keys → estimate 2 per
        // current row. The first in FROM order wins, whichever way round.
        let p = rel("p", &["pk"], 20, |r, _| (r % 10) as i64);
        let q = rel("q", &["qk"], 20, |r, _| (r % 10) as i64);
        let edges = [edge("big", "k", "q", "qk"), edge("big", "j", "p", "pk")];
        let (got, _, preds_after, _) = order(
            &[big.clone(), p.clone(), q.clone()],
            &["big", "p", "q"],
            &edges,
            0,
        );
        assert_eq!(got, [0, 1, 2]);
        // The first step expands: a deferred conjunct runs ahead of it.
        assert_eq!(preds_after, 0);
        let (got, ..) = order(
            &[big.clone(), q.clone(), p.clone()],
            &["big", "q", "p"],
            &edges,
            0,
        );
        assert_eq!(got, [0, 1, 2]);

        // A key that cannot be evaluated makes its input "all distinct"
        // (20 / 20 → 1), which now beats the honest 2. The step through
        // its table is what raises the error.
        let broken = [edge("big", "k", "q", "nosuch"), edge("big", "j", "p", "pk")];
        let (got, ..) = order(&[big, p, q], &["big", "p", "q"], &broken, 0);
        assert_eq!(got, [0, 2, 1]);

        // NULL is a key value like any other for the estimate, and `1`
        // and `1.0` are the same one; a probe finds the two rows keyed 1
        // in row order and never the NULL ones.
        let db = Database::in_memory();
        let ctx = ExecContext::new(&db);
        let mut mixed = rel("m", &["mk"], 4, |_, _| 1);
        mixed.rows[1][0] = Value::Float(1.0);
        mixed.rows[2][0] = Value::Null;
        mixed.rows[3][0] = Value::Null;
        let mk = apuama_sql::parse_expression("mk").unwrap();
        let keys = SideKeys::new(&[&mk], &Scope::new(&mixed.bindings, &[], &ctx));
        let table = JoinTable::build(keys, &mixed.rows, &[], &ctx).unwrap();
        assert_eq!(table.distinct, 2);
        assert!(!table.unique);
        let find = |v: Value| {
            let mut hasher = FnvHasher::new();
            hash_value(&v, &mut hasher);
            let found: Vec<usize> = table
                .matches(&mixed.rows, hasher.finish(), |_| Cell::Value(&v))
                .collect();
            found
        };
        assert_eq!(find(Value::Int(1)), [0, 1]);
        assert_eq!(find(Value::Float(1.0)), [0, 1]);
        assert_eq!(find(Value::Int(2)), [] as [usize; 0]);

        // A key that is NULL before it fails (`'x' + 1`) cannot match and
        // raises nothing; it makes the estimate "all distinct" but not the
        // side unique — the other two rows still share a key.
        let mut dup = rel("d", &["dk", "z"], 3, |_, _| 1);
        dup.rows[2] = vec![Value::Null, Value::Str("x".into())];
        let (dk, z1) = (
            apuama_sql::parse_expression("dk").unwrap(),
            apuama_sql::parse_expression("z + 1").unwrap(),
        );
        let keys = SideKeys::new(&[&dk, &z1], &Scope::new(&dup.bindings, &[], &ctx));
        let table = JoinTable::build(keys, &dup.rows, &[], &ctx).unwrap();
        assert!(table.error.is_none());
        assert_eq!(table.distinct, 3);
        assert!(!table.unique);
    }
}
