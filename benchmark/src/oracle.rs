//! The correctness oracle: row comparison against reference answers, the
//! attempted/failed tally, and the replica convergence check.

use std::sync::Arc;

use apuama::ApuamaEngine;
use apuama_cjdbc::EngineNode;
use apuama_engine::EngineResult;
use apuama_sql::Value;
use apuama_storage::Row;

/// Relative tolerance on floats: SVP re-associates partial sums, so the
/// last bits of a composed aggregate legitimately differ from the
/// single-node answer.
pub const FLOAT_TOLERANCE: f64 = 1e-6;

fn values_match(expected: &Value, got: &Value) -> bool {
    match (expected, got) {
        (Value::Float(_), _) | (_, Value::Float(_)) => match (expected.as_f64(), got.as_f64()) {
            (Some(a), Some(b)) => (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()),
            _ => false,
        },
        _ => expected == got,
    }
}

fn canonical(rows: &[Row]) -> Vec<&Row> {
    let mut v: Vec<&Row> = rows.iter().collect();
    v.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.sort_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    });
    v
}

/// Compares a result with its reference. `ordered` is set for statements
/// with an `ORDER BY`, where row order is part of the answer; otherwise
/// both sides are sorted first. Returns what differs.
pub fn compare_rows(expected: &[Row], got: &[Row], ordered: bool) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "expected {} rows, got {}",
            expected.len(),
            got.len()
        ));
    }
    let (exp, act): (Vec<&Row>, Vec<&Row>) = if ordered {
        (expected.iter().collect(), got.iter().collect())
    } else {
        (canonical(expected), canonical(got))
    };
    for (i, (e, g)) in exp.iter().zip(act.iter()).enumerate() {
        if e.len() != g.len() {
            return Err(format!(
                "row {i}: expected {} columns, got {}",
                e.len(),
                g.len()
            ));
        }
        if let Some(c) = (0..e.len()).find(|&c| !values_match(&e[c], &g[c])) {
            return Err(format!(
                "row {i} column {c}: expected {}, got {}",
                e[c], g[c]
            ));
        }
    }
    Ok(())
}

/// Statements sent through the controller, and how many of them failed:
/// returned an error (a shed statement is one), or differed from the
/// reference.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub reasons: Vec<String>,
}

impl Tally {
    const KEPT_REASONS: usize = 8;

    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl FnOnce() -> String) {
        self.failed += 1;
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason());
        }
    }

    /// Counts one statement sent through the controller. An error — which
    /// is also how a shed statement comes back — is a failure; the payload
    /// of a success is handed on for comparison with its reference.
    pub fn record<T>(&mut self, what: &str, result: EngineResult<T>) -> Option<T> {
        self.attempt();
        match result {
            Ok(out) => Some(out),
            Err(e) => {
                self.fail(|| format!("{e}: {what}"));
                None
            }
        }
    }

    /// Counts one already-attempted statement as failed unless `check` is
    /// `Ok`.
    pub fn check(&mut self, what: &str, check: Result<(), String>) {
        if let Err(e) = check {
            self.fail(|| format!("{what}: {e}"));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < Self::KEPT_REASONS {
                self.reasons.push(r);
            }
        }
    }
}

/// Live row counts of the two tables refresh transactions touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Baseline {
    pub orders: u64,
    pub lineitem: u64,
}

impl Baseline {
    pub fn of(node: &EngineNode) -> Baseline {
        node.with_db(|db| Baseline {
            orders: db.table("orders").map_or(0, |t| t.row_count()),
            lineitem: db.table("lineitem").map_or(0, |t| t.row_count()),
        })
    }
}

/// The replicas hold the same committed history and the refresh rows are
/// gone: every node's transaction counter is equal, and `orders` and
/// `lineitem` are back to `baseline` on every replica. Returns one message
/// per violation.
pub fn check_convergence(
    engine: &ApuamaEngine,
    nodes: &[Arc<EngineNode>],
    baseline: Baseline,
) -> Vec<String> {
    let mut problems = Vec::new();
    let counters = engine.txn_counters();
    if counters.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "replica transaction counters diverged: {counters:?}"
        ));
    }
    for node in nodes {
        let now = Baseline::of(node);
        if now != baseline {
            problems.push(format!(
                "{} holds {} orders / {} lineitems, baseline is {} / {}",
                node.name(),
                now.orders,
                now.lineitem,
                baseline.orders,
                baseline.lineitem
            ));
        }
    }
    problems
}
