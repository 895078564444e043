use std::cmp::Ordering;
use std::hash::Hasher;

use apuama_sql::ast::Expr;
use apuama_sql::value::hash_value;
use apuama_sql::Value;
use apuama_storage::Row;

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, Frame, Scope};
use crate::exec::{self, Binding, ExecContext, Relation};
use crate::planner::JoinEdge;

use crate::physical::*;

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

/// Multi-input join block: materializes every FROM item in order, then
/// runs the greedy join phase (largest input drives; each step picks the
/// connected input minimizing the classic output-cardinality estimate),
/// applying post-filters as soon as their scopes are bound.
pub(crate) struct JoinExec<'e> {
    general: &'e GeneralPlan,
    outer: &'e [Frame<'e>],
    ctx: &'e ExecContext<'e>,
    az: Option<&'e Analyze>,
    idx: Option<usize>,
    emitter: Option<BatchEmitter>,
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
            emitter: None,
        }
    }

    /// One line of the block's `EXPLAIN ANALYZE` account; the text is only
    /// built when a collector is listening.
    fn note(&self, line: impl FnOnce() -> String) {
        if let (Some(a), Some(i)) = (self.az, self.idx) {
            a.add_note(i, line());
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

        // Materialize each FROM item, in FROM order. Base-table scans have
        // already narrowed their rows to the columns the statement reads.
        let mut inputs: Vec<Relation> = Vec::with_capacity(g.inputs.len());
        for node in &g.inputs {
            let (mut op, cidx) = build_input(node, outer, ctx, self.az);
            if let (Some(a), Some(i), Some(ci)) = (self.az, self.idx, cidx) {
                a.add_child(i, ci);
            }
            let bindings = op.open()?;
            let mut rows = Vec::new();
            while let Some(batch) = op.next_batch()? {
                ctx.check_interrupt()?;
                // Join inputs are materialized in full: charge the build-
                // side growth against the memory budget at batch grain.
                ctx.charge_mem(exec::approx_state_bytes(
                    batch.rows.len() as u64,
                    bindings.len(),
                ))?;
                rows.extend(batch.rows);
            }
            inputs.push(Relation { bindings, rows });
        }

        // Load-bearing clone: the pending-predicate list is consumed as
        // scopes bind, but the plan is shared across executions.
        let mut post = g.post.clone();
        let mut current = if inputs.is_empty() {
            Relation {
                bindings: vec![],
                rows: vec![vec![]],
            }
        } else {
            let driving = inputs
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| r.rows.len())
                .map(|(i, _)| i)
                .expect("inputs nonempty");
            let mut bound: Vec<usize> = vec![driving];
            // The driving input is never revisited: move it out instead of
            // cloning the whole relation.
            let mut current = std::mem::take(&mut inputs[driving]);
            self.note(|| format!("drive {}: {} rows", names[driving], current.rows.len()));
            current = apply_ready_post_filters(current, &mut post, &names, &bound, outer, ctx)?;
            let mut distinct = DistinctKeys::default();
            while bound.len() < inputs.len() {
                let (next, my_edges) = pick_next_input(
                    current.rows.len(),
                    &inputs,
                    &names,
                    &g.edges,
                    &bound,
                    &mut distinct,
                    outer,
                    ctx,
                );
                let next_rel = &inputs[next];
                let my_edges: Vec<&JoinEdge> = my_edges.iter().map(|&e| &g.edges[e]).collect();
                ctx.check_interrupt()?;
                let (n_current, n_next) = (current.rows.len(), next_rel.rows.len());
                // Each greedy step materializes a fresh intermediate and
                // charges it as it grows (a conservative running total —
                // earlier intermediates are freed but stay charged until
                // the statement completes).
                current = if my_edges.is_empty() {
                    cross_join(current, next_rel, ctx)?
                } else {
                    hash_join(current, next_rel, &my_edges, &names[next], outer, ctx)?
                };
                self.note(|| {
                    let (name, out) = (&names[next], current.rows.len());
                    if my_edges.is_empty() {
                        return format!("× {name}: {n_current} × {n_next} → {out}");
                    }
                    let on: Vec<String> = my_edges
                        .iter()
                        .map(|e| format!("{} = {}", e.left_expr, e.right_expr))
                        .collect();
                    let sides = if builds_on_current(n_current, n_next) {
                        format!("build current {n_current}, probe {name} {n_next}")
                    } else {
                        format!("build {name} {n_next}, probe {n_current}")
                    };
                    format!("⋈ {name} on {}: {sides} → {out}", on.join(" and "))
                });
                bound.push(next);
                current = apply_ready_post_filters(current, &mut post, &names, &bound, outer, ctx)?;
            }
            current
        };

        // Any post filters left reference nothing in FROM (constant or
        // purely correlated predicates): apply them row-wise now.
        if !post.is_empty() {
            let leftovers: Vec<Expr> = post.drain(..).map(|(e, _)| e).collect();
            current = filter_rows(current, &leftovers, outer, ctx)?;
        }

        let Relation { bindings, rows } = current;
        self.emitter = Some(BatchEmitter::rows_only(rows));
        Ok(bindings)
    }

    fn next_batch(&mut self) -> EngineResult<Option<RowBatch>> {
        Ok(self.emitter.as_mut().and_then(BatchEmitter::next))
    }
}

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

/// Per-execution memo of [`distinct_join_keys`] by (input, connecting
/// edges): an input stays a candidate over several greedy rounds, and its
/// distinct count only changes when another edge starts connecting it.
#[derive(Default)]
pub(crate) struct DistinctKeys(Vec<(usize, Vec<usize>, usize)>);

/// Picks the next FROM-item to join in: among inputs connected to the
/// current result by an equi-join edge, the one minimizing the classic
/// output-cardinality estimate `current × candidate / distinct(candidate
/// join keys)` — which keeps low-distinct edges (TPC-H's nation-key joins)
/// from exploding the intermediate result. On equal estimates the first
/// candidate in FROM order wins. Returns the input and the edges that
/// connect it (none: a cross join).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pick_next_input(
    current_rows: usize,
    inputs: &[Relation],
    names: &[String],
    edges: &[JoinEdge],
    bound: &[usize],
    distinct: &mut DistinctKeys,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> (usize, Vec<usize>) {
    let mut best: Option<(usize, f64, Vec<usize>)> = None;
    for i in (0..inputs.len()).filter(|i| !bound.contains(i)) {
        let my_edges = connecting_edges(edges, names, bound, i);
        if my_edges.is_empty() {
            continue;
        }
        let known = distinct
            .0
            .iter()
            .find(|(n, e, _)| *n == i && *e == my_edges);
        let keys = match known {
            Some(&(_, _, keys)) => keys,
            None => {
                let refs: Vec<&JoinEdge> = my_edges.iter().map(|&e| &edges[e]).collect();
                let keys = distinct_join_keys(&inputs[i], &refs, &names[i], outer, ctx);
                distinct.0.push((i, my_edges.clone(), keys));
                keys
            }
        };
        let est = current_rows as f64 * inputs[i].rows.len() as f64 / keys.max(1) as f64;
        if best.as_ref().is_none_or(|(_, b, _)| est < *b) {
            best = Some((i, est, my_edges));
        }
    }
    if let Some((b, _, my_edges)) = best {
        return (b, my_edges);
    }
    // No connected input: fall back to the smallest unbound one (cross join).
    let smallest = (0..inputs.len())
        .filter(|i| !bound.contains(i))
        .min_by_key(|&i| inputs[i].rows.len())
        .expect("caller ensures an unbound input exists");
    (smallest, Vec::new())
}

/// Number of distinct composite join keys a candidate input exposes over
/// the given edges, NULLs counting as a value (evaluation errors degrade
/// to "all distinct", which simply keeps the old smallest-input heuristic).
pub(crate) fn distinct_join_keys(
    input: &Relation,
    edges: &[&JoinEdge],
    my_name: &str,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> usize {
    let (_, mine) = edge_sides(edges, my_name);
    let keys = SideKeys::new(&mine, &Scope::new(&input.bindings, outer, ctx));
    let Ok(mut table) = JoinTable::new(&keys, &input.rows) else {
        return input.rows.len();
    };
    let mut scratch = Vec::new();
    let mut distinct = 0;
    for row in &input.rows {
        if keys.eval(row, outer, ctx, false, &mut scratch).is_err() {
            return input.rows.len();
        }
        let hash = keys.hash(row, &scratch);
        let seen = table.matches(hash, &keys, row, &scratch).next().is_some();
        table.push((!seen).then_some(hash), &mut scratch);
        distinct += usize::from(!seen);
    }
    distinct
}

/// One join side's composite key, one component per edge, compiled against
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

    /// Evaluates `row`'s non-column components into `scratch` (cleared
    /// first), in edge order, and reports whether every component is
    /// non-NULL. With `stop_at_null` evaluation ends at the first NULL
    /// component — a NULL key never matches, so the components after it
    /// are never computed (nor their errors raised).
    fn eval(
        &self,
        row: &[Value],
        outer: &[Frame<'_>],
        ctx: &ExecContext<'_>,
        stop_at_null: bool,
        scratch: &mut Vec<Value>,
    ) -> EngineResult<bool> {
        scratch.clear();
        let mut all_set = true;
        for p in &self.0 {
            let null = match p {
                KeyProg::Col(c) => row[*c].is_null(),
                KeyProg::Expr { expr, .. } => {
                    let v = eval::eval_compiled(expr, row, outer, ctx)?;
                    let null = v.is_null();
                    scratch.push(v);
                    null
                }
            };
            all_set &= !null;
            if null && stop_at_null {
                break;
            }
        }
        Ok(all_set)
    }

    /// Component `i` of a fully evaluated key.
    fn component<'r>(&self, i: usize, row: &'r [Value], scratch: &'r [Value]) -> &'r Value {
        key_component(&self.0, i, row, scratch)
    }

    /// Canonical hash of a fully evaluated key (`1` and `1.0` agree).
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

/// The one join hash table: rows of the build side chained per bucket in
/// ascending row order through `next`, keyed on their *borrowed* key
/// components — column components are read from the build row in place,
/// only expression-valued ones are stored. Equality is `sort_cmp == Equal`
/// per component, i.e. [`apuama_sql::value::HashableValue`]'s (`1 = 1.0`
/// matches, text never equals a number and raises nothing); hashing is
/// [`hash_value`] into [`FnvHasher`], mixed once more for the bucket index
/// because FNV's low bits only see the low bits of its input.
struct JoinTable<'a> {
    keys: &'a SideKeys,
    rows: &'a [Row],
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
}

impl<'a> JoinTable<'a> {
    fn new(keys: &'a SideKeys, rows: &'a [Row]) -> EngineResult<Self> {
        if rows.len() >= NIL as usize {
            return Err(EngineError::ResourceExhausted(format!(
                "join build side of {} rows exceeds the hash table's row ids",
                rows.len()
            )));
        }
        let bits = (rows.len() * 2).next_power_of_two().trailing_zeros().max(1);
        Ok(JoinTable {
            keys,
            rows,
            heads: vec![NIL; 1 << bits],
            tails: vec![NIL; 1 << bits],
            shift: 64 - bits,
            next: Vec::with_capacity(rows.len()),
            hashes: Vec::with_capacity(rows.len()),
            evaluated: Vec::with_capacity(rows.len() * keys.evaluated()),
        })
    }

    /// Adds the next row of `rows` (they arrive in order), taking its
    /// evaluated components from `scratch`. `hash` is `None` for a row that
    /// must not be found: it is stored but not chained.
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

    /// The chained rows whose key equals the probe's, ascending.
    fn matches<'t>(
        &'t self,
        hash: u64,
        probe_keys: &'t SideKeys,
        probe_row: &'t [Value],
        probe_scratch: &'t [Value],
    ) -> impl Iterator<Item = usize> + 't {
        let width = self.keys.evaluated();
        let mut at = self.heads[self.bucket(hash)];
        std::iter::from_fn(move || {
            while at != NIL {
                let row = at as usize;
                at = self.next[row];
                let stored = &self.evaluated[row * width..(row + 1) * width];
                if self.hashes[row] == hash
                    && (0..self.keys.len()).all(|i| {
                        self.keys
                            .component(i, &self.rows[row], stored)
                            .sort_cmp(probe_keys.component(i, probe_row, probe_scratch))
                            == Ordering::Equal
                    })
                {
                    return Some(row);
                }
            }
            None
        })
    }
}

/// The rows one join step produces, grown as they are emitted: every
/// [`exec::SCAN_BATCH_ROWS`] rows the statement's governor is consulted and
/// the growth charged to the memory budget, so a step whose output does
/// not fit ends in `Cancelled` / `ResourceExhausted` instead of asking the
/// allocator for it.
struct StepOutput<'c, 'a> {
    rows: Vec<Row>,
    width: usize,
    settled: usize,
    ctx: &'c ExecContext<'a>,
}

impl<'c, 'a> StepOutput<'c, 'a> {
    fn new(width: usize, ctx: &'c ExecContext<'a>) -> Self {
        StepOutput {
            rows: Vec::new(),
            width,
            settled: 0,
            ctx,
        }
    }

    /// Concatenates a row of each side, cloning each value exactly once
    /// into a right-sized output row.
    fn push(&mut self, left: &Row, right: &Row) -> EngineResult<()> {
        let mut combined = Vec::with_capacity(self.width);
        combined.extend_from_slice(left);
        combined.extend_from_slice(right);
        self.rows.push(combined);
        if (self.rows.len() - self.settled) as u64 == exec::SCAN_BATCH_ROWS {
            self.settle()?;
        }
        Ok(())
    }

    fn settle(&mut self) -> EngineResult<()> {
        self.ctx.check_interrupt()?;
        let grown = (self.rows.len() - self.settled) as u64;
        self.settled = self.rows.len();
        self.ctx
            .charge_mem(exec::approx_state_bytes(grown, self.width))
    }

    /// Charges the final partial batch and hands back the rows, having
    /// charged one cpu op per row.
    fn finish(mut self, bindings: Vec<Binding>, cpu: u64) -> EngineResult<Relation> {
        self.settle()?;
        self.ctx.bump_cpu(cpu + self.rows.len() as u64);
        Ok(Relation {
            bindings,
            rows: self.rows,
        })
    }
}

fn joined_bindings(current: &Relation, right: &Relation) -> Vec<Binding> {
    let mut bindings = current.bindings.clone();
    bindings.extend(right.bindings.iter().cloned());
    bindings
}

/// The hash table goes on the smaller side; equal sizes build on the new
/// input.
fn builds_on_current(current_rows: usize, right_rows: usize) -> bool {
    current_rows < right_rows
}

/// Hash join of `current` with the newly added `right` input. Output rows
/// are always `current ++ right` columns, emitted current-major with right
/// matches in ascending right-row order, whichever side the table was
/// built on. NULL key components never match. Charges one cpu op per build
/// row, per probe row and per output row (flushed once — totals are what
/// the counters promise).
pub(crate) fn hash_join(
    current: Relation,
    right: &Relation,
    edges: &[&JoinEdge],
    right_name: &str,
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    let (left_exprs, right_exprs) = edge_sides(edges, right_name);
    let left_keys = SideKeys::new(&left_exprs, &Scope::new(&current.bindings, outer, ctx));
    let right_keys = SideKeys::new(&right_exprs, &Scope::new(&right.bindings, outer, ctx));
    let on_current = builds_on_current(current.rows.len(), right.rows.len());
    let (build_keys, build_rows, probe_keys, probe_rows) = if on_current {
        (&left_keys, &current.rows, &right_keys, &right.rows)
    } else {
        (&right_keys, &right.rows, &left_keys, &current.rows)
    };

    let mut scratch = Vec::new();
    let mut table = JoinTable::new(build_keys, build_rows)?;
    for row in build_rows {
        let keyed = build_keys.eval(row, outer, ctx, true, &mut scratch)?;
        let hash = keyed.then(|| build_keys.hash(row, &scratch));
        table.push(hash, &mut scratch);
    }

    let bindings = joined_bindings(&current, right);
    let mut out = StepOutput::new(bindings.len(), ctx);
    // Probing with `right` finds its matches right-major; they are put
    // back in current-major order (stably, so right rows stay ascending
    // under each current row) before anything is emitted.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (p, row) in probe_rows.iter().enumerate() {
        if !probe_keys.eval(row, outer, ctx, true, &mut scratch)? {
            continue;
        }
        let hash = probe_keys.hash(row, &scratch);
        for b in table.matches(hash, probe_keys, row, &scratch) {
            if on_current {
                pairs.push((b, p));
            } else {
                out.push(row, &build_rows[b])?;
            }
        }
    }
    pairs.sort_by_key(|&(c, _)| c);
    for (c, r) in pairs {
        out.push(&current.rows[c], &right.rows[r])?;
    }
    out.finish(bindings, (build_rows.len() + probe_rows.len()) as u64)
}

/// Cartesian product (only reached for disconnected FROM items, which the
/// TPC-H workload never produces but the engine stays total for).
pub(crate) fn cross_join(
    current: Relation,
    right: &Relation,
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    let bindings = joined_bindings(&current, right);
    let mut out = StepOutput::new(bindings.len(), ctx);
    for l in &current.rows {
        for r in &right.rows {
            out.push(l, r)?;
        }
    }
    out.finish(bindings, 0)
}

pub(crate) fn apply_ready_post_filters(
    current: Relation,
    post: &mut Vec<(Expr, Vec<String>)>,
    names: &[String],
    bound: &[usize],
    outer: &[Frame<'_>],
    ctx: &ExecContext<'_>,
) -> EngineResult<Relation> {
    let bound_names: Vec<&str> = bound.iter().map(|&b| names[b].as_str()).collect();
    // Partition by moving: ready predicates leave the pending list instead
    // of being cloned out of it.
    let mut ready = Vec::new();
    let mut pending = Vec::new();
    for (e, needs) in post.drain(..) {
        if needs.iter().all(|n| bound_names.contains(&n.as_str())) {
            ready.push(e);
        } else {
            pending.push((e, needs));
        }
    }
    *post = pending;
    if ready.is_empty() {
        Ok(current)
    } else {
        filter_rows(current, &ready, outer, ctx)
    }
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

    /// The greedy order from `driving` on, and how many distinct counts
    /// were computed on the way. `current × |candidate|` scales every
    /// estimate alike, so the order does not depend on the intermediate
    /// sizes and one fixed `current_rows` stands in for them.
    fn order(
        inputs: &[Relation],
        names: &[&str],
        edges: &[JoinEdge],
        driving: usize,
    ) -> (Vec<usize>, usize) {
        let db = Database::in_memory();
        let ctx = ExecContext::new(&db);
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let mut bound = vec![driving];
        let mut distinct = DistinctKeys::default();
        while bound.len() < inputs.len() {
            let (next, _) = pick_next_input(
                1000,
                inputs,
                &names,
                edges,
                &bound,
                &mut distinct,
                &[],
                &ctx,
            );
            bound.push(next);
        }
        (bound, distinct.0.len())
    }

    #[test]
    fn greedy_order_of_q3_q5_and_q21_shaped_inputs() {
        // Q3: customer, orders, lineitem — orders is the only input
        // connected to the driving lineitem; customer follows.
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
        let (got, counted) = order(
            &[customer.clone(), orders.clone(), lineitem.clone()],
            &["customer", "orders", "lineitem"],
            &q3,
            2,
        );
        assert_eq!(got, [2, 1, 0]);
        assert_eq!(counted, 2);

        // Q5: customer, orders, lineitem, supplier, nation, region. Against
        // lineitem, orders (700 / 700 distinct keys → 1 per probe) beats
        // supplier (10 / 10 → 1 as well, but later in FROM order); then
        // customer (30/30) ties with supplier again and comes first; the
        // nation-key edges come last because they are the low-distinct ones.
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
        let (got, counted) = order(
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
        assert_eq!(got, [2, 1, 0, 3, 4, 5]);
        // supplier is a candidate in three rounds but counted twice: once
        // over its lineitem edge, once more when customer's edge joins in.
        assert_eq!(counted, 6);

        // Q21: supplier, l1, orders, nation with orders driving.
        let l1 = rel("l1", &["l_orderkey", "l_suppkey"], 200, |r, c| {
            [(r * 3) as i64, (r % 10) as i64][c]
        });
        let nation1 = rel("nation", &["n_nationkey"], 1, |_, _| 3);
        let q21 = [
            edge("supplier", "s_suppkey", "l1", "l1.l_suppkey"),
            edge("orders", "o_orderkey", "l1", "l1.l_orderkey"),
            edge("supplier", "s_nationkey", "nation", "n_nationkey"),
        ];
        let (got, _) = order(
            &[supplier, l1, orders, nation1],
            &["supplier", "l1", "orders", "nation"],
            &q21,
            2,
        );
        assert_eq!(got, [2, 1, 0, 3]);
    }

    #[test]
    fn equal_estimates_keep_from_order_and_errors_count_as_all_distinct() {
        let big = rel("big", &["k", "j"], 100, |r, _| r as i64);
        // Both candidates: 20 rows over 10 distinct keys → estimate 2 per
        // current row. The first in FROM order wins, whichever way round.
        let p = rel("p", &["pk"], 20, |r, _| (r % 10) as i64);
        let q = rel("q", &["qk"], 20, |r, _| (r % 10) as i64);
        let edges = [edge("big", "k", "q", "qk"), edge("big", "j", "p", "pk")];
        let (got, _) = order(
            &[big.clone(), p.clone(), q.clone()],
            &["big", "p", "q"],
            &edges,
            0,
        );
        assert_eq!(got, [0, 1, 2]);
        let (got, _) = order(
            &[big.clone(), q.clone(), p.clone()],
            &["big", "q", "p"],
            &edges,
            0,
        );
        assert_eq!(got, [0, 1, 2]);

        // A key that cannot be evaluated makes its input "all distinct"
        // (20 / 20 → 1), which now beats the honest 2.
        let broken = [edge("big", "k", "q", "nosuch"), edge("big", "j", "p", "pk")];
        let (got, _) = order(&[big, p, q], &["big", "p", "q"], &broken, 0);
        assert_eq!(got, [0, 2, 1]);

        // NULL is a key value like any other for the estimate, and `1`
        // and `1.0` are the same one.
        let db = Database::in_memory();
        let ctx = ExecContext::new(&db);
        let mut mixed = rel("m", &["mk"], 4, |_, _| 1);
        mixed.rows[1][0] = Value::Float(1.0);
        mixed.rows[2][0] = Value::Null;
        mixed.rows[3][0] = Value::Null;
        let e = edge("big", "k", "m", "mk");
        assert_eq!(distinct_join_keys(&mixed, &[&e], "m", &[], &ctx), 2);
    }
}
