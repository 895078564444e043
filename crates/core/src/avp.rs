//! Adaptive Virtual Partitioning — the technique the paper compares SVP
//! against (§6; Lima, Mattoso & Valduriez, SBBD 2004, used by SmaQ).
//!
//! Where SVP hands each node **one** static range, AVP hands each node a
//! region and lets it chew through the region in **small, dynamically
//! sized chunks**:
//!
//! * the chunk starts small (so a mis-sized partition cannot stall a
//!   node for long),
//! * it doubles while the observed cost-per-key keeps up, and shrinks
//!   when performance degrades (the classic additive-probe/multiplicative
//!   adaptation of the original paper),
//! * a node that exhausts its region **steals** half of the largest
//!   remaining region — the dynamic load balancing SmaQ gets from AVP and
//!   static SVP cannot provide.
//!
//! The paper's §6 critique — "since AVP locally subdivides the local
//! sub-query it increases the level of concurrency while inducing a bad
//! memory cache use" — is directly measurable here: each chunk is a
//! separate sub-query with its own plan/descent overhead, and chunk
//! boundaries break the long sequential scans SVP's single range enjoys.
//! The `ablation` bench puts the two side by side.
//!
//! This module is execution-strategy only: it reuses the SVP rewriter's
//! [`QueryTemplate`] (same decomposition, same composition query), so AVP
//! and SVP answers are identical by construction; only the dispatch
//! differs.

use apuama_engine::{EngineResult, QueryOutput};

use crate::rewrite::QueryTemplate;

/// AVP tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct AvpConfig {
    /// First chunk size, in VPA keys. The original AVP starts deliberately
    /// tiny and lets the doubling find the right size.
    pub initial_chunk: i64,
    /// Upper bound on the chunk size.
    pub max_chunk: i64,
    /// A chunk whose cost-per-key is within this factor of the best seen
    /// so far counts as "still improving" and doubles the next chunk.
    pub tolerance: f64,
    /// Enable work stealing between nodes when a region drains.
    pub work_stealing: bool,
}

impl Default for AvpConfig {
    fn default() -> Self {
        AvpConfig {
            initial_chunk: 1024,
            max_chunk: 1 << 20,
            tolerance: 1.25,
            work_stealing: true,
        }
    }
}

/// What one node did during an AVP execution.
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    /// Chunks this node executed.
    pub chunks: usize,
    /// Keys this node covered (sum of chunk widths).
    pub keys: i64,
    /// Total cost charged to this node (caller-defined units; the
    /// simulator passes virtual milliseconds).
    pub cost: f64,
    /// Chunk sizes in execution order (adaptation diagnostics).
    pub chunk_sizes: Vec<i64>,
}

/// Result of an AVP run.
#[derive(Debug, Clone)]
pub struct AvpOutcome {
    /// Partial results from every chunk, in execution order (feed these to
    /// [`crate::compose`] with the template's plan).
    pub partials: Vec<QueryOutput>,
    /// Per-node execution traces.
    pub per_node: Vec<NodeTrace>,
    /// Virtual makespan: the largest per-node cost (nodes run in
    /// parallel).
    pub makespan_cost: f64,
}

/// One node's unprocessed key region.
#[derive(Debug, Clone, Copy)]
struct Region {
    next: i64,
    end: i64,
}

impl Region {
    fn remaining(&self) -> i64 {
        (self.end - self.next).max(0)
    }
}

/// Per-node adaptation state.
struct NodeState {
    region: Region,
    chunk: i64,
    best_rate: f64,
    clock: f64,
    trace: NodeTrace,
    done: bool,
}

/// Executes the template with AVP over `nodes` nodes.
///
/// `exec` runs one sub-query on one node and returns its output plus its
/// cost in caller units (wall milliseconds, simulated milliseconds, page
/// counts — anything additive). Nodes are driven in virtual-parallel: at
/// every step the node with the smallest accumulated cost receives its
/// next chunk, which makes the run deterministic and lets single-threaded
/// callers (the simulator) model concurrency exactly.
pub fn execute_avp<F>(
    template: &QueryTemplate,
    nodes: usize,
    config: AvpConfig,
    mut exec: F,
) -> EngineResult<AvpOutcome>
where
    F: FnMut(usize, &str) -> EngineResult<(QueryOutput, f64)>,
{
    assert!(nodes > 0, "AVP needs at least one node");
    assert!(config.initial_chunk > 0 && config.max_chunk >= config.initial_chunk);
    let (lo, hi) = template.key_range();
    let span = (hi - lo).max(1);
    let mut partials = Vec::new();

    // Initial regions: the same aligned split SVP would use.
    let mut states: Vec<NodeState> = (0..nodes)
        .map(|i| {
            let start = lo + span * i as i64 / nodes as i64;
            let end = lo + span * (i + 1) as i64 / nodes as i64;
            NodeState {
                region: Region { next: start, end },
                chunk: config.initial_chunk,
                best_rate: f64::INFINITY,
                clock: 0.0,
                trace: NodeTrace::default(),
                done: false,
            }
        })
        .collect();

    // A `while let` would hide the steal-and-retry control flow below.
    #[allow(clippy::while_let_loop)]
    loop {
        // Virtual-parallel scheduling: the node with the lowest clock that
        // still has (or can steal) work goes next.
        let Some(node) = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .min_by(|(_, a), (_, b)| a.clock.total_cmp(&b.clock))
            .map(|(i, _)| i)
        else {
            break;
        };

        // Out of local work? Steal half of the largest remaining region.
        if states[node].region.remaining() == 0 {
            let victim = if config.work_stealing {
                states
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| *i != node && s.region.remaining() > 1)
                    .max_by_key(|(_, s)| s.region.remaining())
                    .map(|(i, _)| i)
            } else {
                None
            };
            match victim {
                Some(v) => {
                    let rem = states[v].region.remaining();
                    let give = rem / 2;
                    let new_end = states[v].region.end - give;
                    let stolen = Region {
                        next: new_end,
                        end: states[v].region.end,
                    };
                    states[v].region.end = new_end;
                    states[node].region = stolen;
                    // Fresh territory: restart the probe.
                    states[node].chunk = config.initial_chunk;
                    states[node].best_rate = f64::INFINITY;
                }
                None => {
                    states[node].done = true;
                    continue;
                }
            }
        }

        // Execute one chunk. The first chunk of the first region and the
        // last chunk of the last region stay unbounded outward so keys
        // outside the recorded catalog range (refresh inserts) are owned.
        let st = &mut states[node];
        let chunk_lo = st.region.next;
        let chunk_hi = (chunk_lo + st.chunk).min(st.region.end);
        let sql_lo = if chunk_lo <= lo { None } else { Some(chunk_lo) };
        let sql_hi = if chunk_hi >= hi { None } else { Some(chunk_hi) };
        let sql = template.subquery_for_range(sql_lo, sql_hi);
        let (out, cost) = exec(node, &sql)?;
        let st = &mut states[node];
        let width = chunk_hi - chunk_lo;
        st.region.next = chunk_hi;
        st.clock += cost;
        st.trace.chunks += 1;
        st.trace.keys += width;
        st.trace.cost += cost;
        st.trace.chunk_sizes.push(width);
        partials.push(out);

        // Adapt: double while cost-per-key stays near the best observed,
        // shrink otherwise.
        let rate = cost / width.max(1) as f64;
        if rate <= st.best_rate * config.tolerance {
            st.best_rate = st.best_rate.min(rate);
            st.chunk = (st.chunk * 2).min(config.max_chunk);
        } else {
            st.chunk = (st.chunk / 2).max(config.initial_chunk);
        }
    }

    let per_node: Vec<NodeTrace> = states.into_iter().map(|s| s.trace).collect();
    let makespan_cost = per_node.iter().map(|t| t.cost).fold(0.0, f64::max);
    Ok(AvpOutcome {
        partials,
        per_node,
        makespan_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DataCatalog;
    use crate::composer::compose;
    use crate::rewrite::SvpRewriter;
    use apuama_engine::Database;
    use apuama_sql::Value;

    const KEYS: i64 = 500;

    fn replica() -> Database {
        let mut db = Database::in_memory();
        db.execute(
            "create table orders (o_orderkey int not null, o_qty int, \
             primary key (o_orderkey)) clustered by (o_orderkey)",
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (1..=KEYS)
            .map(|k| vec![Value::Int(k), Value::Int(k % 10)])
            .collect();
        db.load_table("orders", rows).unwrap();
        db
    }

    fn template(sql: &str) -> crate::rewrite::QueryTemplate {
        SvpRewriter::new(DataCatalog::tpch(KEYS))
            .template(sql)
            .unwrap()
            .expect("eligible")
    }

    fn tiny_config() -> AvpConfig {
        AvpConfig {
            initial_chunk: 16,
            max_chunk: 256,
            ..AvpConfig::default()
        }
    }

    #[test]
    fn avp_answer_equals_direct_execution() {
        let sql = "select o_qty, count(*) as n, sum(o_qty) as s from orders \
                   group by o_qty order by o_qty";
        let t = template(sql);
        let replicas: Vec<Database> = (0..3).map(|_| replica()).collect();
        let outcome = execute_avp(&t, 3, tiny_config(), |node, sub| {
            let out = replicas[node].query(sub)?;
            let cost = out.stats.rows_scanned as f64 + 1.0;
            Ok((out, cost))
        })
        .unwrap();
        let plan = t.svp_plan(3);
        let composed = compose(&plan, &outcome.partials).unwrap();
        let expected = replica().query(sql).unwrap();
        assert_eq!(composed.output.rows, expected.rows);
    }

    #[test]
    fn chunks_adapt_upwards_on_uniform_data() {
        let t = template("select count(*) as n from orders");
        let replicas: Vec<Database> = (0..2).map(|_| replica()).collect();
        let outcome = execute_avp(&t, 2, tiny_config(), |node, sub| {
            let out = replicas[node].query(sub)?;
            let cost = out.stats.rows_scanned as f64 + 1.0;
            Ok((out, cost))
        })
        .unwrap();
        for trace in &outcome.per_node {
            assert!(trace.chunks >= 2, "adaptation needs several chunks");
            // Doubling happened: some later chunk is wider than the first.
            let first = trace.chunk_sizes[0];
            assert!(
                trace.chunk_sizes.iter().any(|&c| c > first),
                "chunk sizes never grew: {:?}",
                trace.chunk_sizes
            );
        }
        // Full coverage.
        let total: i64 = outcome.per_node.iter().map(|t| t.keys).sum();
        assert_eq!(total, KEYS); // the half-open span [1, KEYS+1) has KEYS keys
    }

    #[test]
    fn work_stealing_rebalances_a_slow_node() {
        let t = template("select count(*) as n from orders");
        let replicas: Vec<Database> = (0..2).map(|_| replica()).collect();
        // Node 1 is 20x slower per row; with stealing, node 0 should end up
        // covering most keys.
        let outcome = execute_avp(&t, 2, tiny_config(), |node, sub| {
            let out = replicas[node].query(sub)?;
            let base = out.stats.rows_scanned as f64 + 1.0;
            let cost = if node == 1 { base * 20.0 } else { base };
            Ok((out, cost))
        })
        .unwrap();
        assert!(
            outcome.per_node[0].keys > outcome.per_node[1].keys * 2,
            "fast node should cover far more keys: {:?}",
            outcome.per_node.iter().map(|t| t.keys).collect::<Vec<_>>()
        );
        // And the makespan stays near-balanced despite the skew.
        let costs: Vec<f64> = outcome.per_node.iter().map(|t| t.cost).collect();
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            outcome.makespan_cost < min * 3.0,
            "stealing should bound the imbalance: {costs:?}"
        );
    }

    #[test]
    fn no_stealing_leaves_slow_node_with_its_region() {
        let t = template("select count(*) as n from orders");
        let replicas: Vec<Database> = (0..2).map(|_| replica()).collect();
        let cfg = AvpConfig {
            work_stealing: false,
            ..tiny_config()
        };
        let outcome = execute_avp(&t, 2, cfg, |node, sub| {
            let out = replicas[node].query(sub)?;
            let base = out.stats.rows_scanned as f64 + 1.0;
            let cost = if node == 1 { base * 20.0 } else { base };
            Ok((out, cost))
        })
        .unwrap();
        // Each node covered exactly its static half.
        let half = (KEYS + 1) / 2;
        assert!((outcome.per_node[0].keys - half).abs() <= 1);
        assert!((outcome.per_node[1].keys - half).abs() <= 1);
    }

    #[test]
    fn single_node_avp_covers_everything() {
        let t = template("select sum(o_qty) as s from orders");
        let db = replica();
        let outcome = execute_avp(&t, 1, tiny_config(), |_, sub| {
            let out = db.query(sub)?;
            Ok((out, 1.0))
        })
        .unwrap();
        let plan = t.svp_plan(1);
        let composed = compose(&plan, &outcome.partials).unwrap();
        let expected = db.query("select sum(o_qty) as s from orders").unwrap();
        assert_eq!(composed.output.rows, expected.rows);
    }

    #[test]
    fn outermost_chunks_are_unbounded() {
        // Keys outside the catalog range must still be owned by the first
        // or last chunk (the refresh-stream property SVP also has).
        let t = template("select count(*) as n from orders");
        // Insert a key far beyond the range via a separate write handle.
        let mut db2 = replica();
        db2.execute("insert into orders values (100000, 1)")
            .unwrap();
        let outcome = execute_avp(&t, 2, tiny_config(), |_, sub| {
            let out = db2.query(sub)?;
            Ok((out, 1.0))
        })
        .unwrap();
        let plan = t.svp_plan(2);
        let composed = compose(&plan, &outcome.partials).unwrap();
        assert_eq!(composed.output.rows[0][0], Value::Int(KEYS + 1));
    }
}
