//! The driver seam: how the controller reaches a backend.

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::RwLock;

use apuama_engine::{Database, EngineError, EngineResult, QueryGovernor, QueryOutput};
use apuama_sql::{parse_statements, visit, Statement, Value};

/// What a piece of SQL does, from the cluster's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// Pure reads (and session SETs): may be load balanced.
    Read,
    /// Anything touching data or schema: must be broadcast in total order.
    Write,
}

/// Classifies a (possibly multi-statement) SQL script. A script containing
/// any write is a write.
pub fn classify(sql: &str) -> EngineResult<StatementKind> {
    let stmts = parse_statements(sql)?;
    let any_write = stmts.iter().any(|s| {
        s.is_write()
            || matches!(
                s,
                Statement::Begin | Statement::Commit | Statement::Rollback
            )
    });
    Ok(if any_write {
        StatementKind::Write
    } else {
        StatementKind::Read
    })
}

/// The text of `sql` with `params` substituted for its `$N` placeholders:
/// what a bound statement is for a connection that only takes text.
/// Byte-identical to what the template would have produced with the
/// literals inlined.
pub fn render_bound<'s>(sql: &'s str, params: &[Value]) -> EngineResult<Cow<'s, str>> {
    if params.is_empty() {
        return Ok(Cow::Borrowed(sql));
    }
    let mut stmts = parse_statements(sql)?;
    match stmts.as_mut_slice() {
        [Statement::Select(q)] => {
            visit::bind_parameters(q, params).map_err(EngineError::TypeError)?;
            Ok(Cow::Owned(stmts[0].to_string()))
        }
        _ => Err(EngineError::Unsupported(
            "parameters are only supported on single SELECT statements".into(),
        )),
    }
}

/// The JDBC-driver equivalent: an opaque handle that accepts SQL text and
/// returns rows. The controller, the Apuama engine, and tests all speak
/// this interface.
pub trait Connection: Send + Sync {
    /// Executes a SQL script (single statement or `;`-separated write
    /// transaction body) and returns the last statement's output with
    /// merged statistics.
    fn execute(&self, sql: &str) -> EngineResult<QueryOutput>;

    /// Human-readable name for diagnostics (`node-3`).
    fn name(&self) -> &str;

    /// Registers a statement for repeated execution and reports how many
    /// `$N` parameters it takes. The default implementation only counts
    /// placeholders; backends with a plan cache (like [`NodeConnection`])
    /// override this to compile and cache the plan.
    fn prepare(&self, sql: &str) -> EngineResult<usize> {
        let stmts = parse_statements(sql)?;
        Ok(match stmts.as_slice() {
            [Statement::Select(q)] => visit::parameter_count(q),
            _ => 0,
        })
    }

    /// Executes a statement with bound parameter values — the
    /// `PreparedStatement.execute()` of this JDBC stand-in. The default
    /// implementation substitutes the values into the statement text
    /// ([`render_bound`]) and calls [`Connection::execute`], so interposing
    /// connections (fault injection, instrumentation) keep observing plain
    /// SQL; engine-backed connections override it to execute from the
    /// cached plan without re-parsing.
    fn execute_bound(&self, sql: &str, params: &[Value]) -> EngineResult<QueryOutput> {
        self.execute(&render_bound(sql, params)?)
    }

    /// Executes under a [`QueryGovernor`] (cancel token + deadline).
    /// Engine-backed connections thread the governor into the executor so
    /// the statement stops within one scan batch of a cancel; the default
    /// only checks before dispatch, so interposing connections should
    /// forward this to their inner connection.
    fn execute_governed(&self, sql: &str, gov: &QueryGovernor) -> EngineResult<QueryOutput> {
        gov.check()?;
        self.execute(sql)
    }

    /// Bound execution under a [`QueryGovernor`]. The default substitutes
    /// the values into the text, like [`Connection::execute_bound`]'s, and
    /// hands it to [`Connection::execute_governed`] — so a connection that
    /// overrides only the text pair keeps its bound statements governed.
    fn execute_bound_governed(
        &self,
        sql: &str,
        params: &[Value],
        gov: &QueryGovernor,
    ) -> EngineResult<QueryOutput> {
        self.execute_governed(&render_bound(sql, params)?, gov)
    }

    /// High-water mark of pipeline-breaker memory on this backend (bytes);
    /// 0 when the backend does not track it. Governance diagnostics.
    fn mem_peak_bytes(&self) -> u64 {
        0
    }
}

/// One cluster node: a single-node engine behind a reader-writer lock.
/// Reads run concurrently; writes serialize — the concurrency model the
/// paper's scheduler assumes ("it was set to concurrently execute read and
/// write requests", with DBMS transaction isolation below).
#[derive(Debug)]
pub struct EngineNode {
    name: String,
    db: RwLock<Database>,
}

impl EngineNode {
    pub fn new(name: impl Into<String>, db: Database) -> Arc<EngineNode> {
        Arc::new(EngineNode {
            name: name.into(),
            db: RwLock::new(db),
        })
    }

    /// Read access to the underlying database (inspection, statistics).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db.read())
    }

    /// Write access to the underlying database (loading, maintenance).
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.write())
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The default driver: connects the controller directly to an engine node
/// (the no-Apuama baseline configuration).
#[derive(Clone)]
pub struct NodeConnection {
    node: Arc<EngineNode>,
}

impl NodeConnection {
    pub fn new(node: Arc<EngineNode>) -> Self {
        NodeConnection { node }
    }

    /// The node behind this connection.
    pub fn node(&self) -> &Arc<EngineNode> {
        &self.node
    }
}

impl Connection for NodeConnection {
    fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
        match classify(sql)? {
            StatementKind::Read => self.node.db.read().query(sql),
            StatementKind::Write => self.node.db.write().execute_script(sql),
        }
    }

    fn name(&self) -> &str {
        &self.node.name
    }

    fn prepare(&self, sql: &str) -> EngineResult<usize> {
        match classify(sql)? {
            StatementKind::Read => self.node.db.read().prepare(sql),
            StatementKind::Write => Ok(0),
        }
    }

    /// Reads execute straight from the node's plan cache — parsed and
    /// planned once per statement text, not once per execution. Writes
    /// fall back to the text-substitution default.
    fn execute_bound(&self, sql: &str, params: &[Value]) -> EngineResult<QueryOutput> {
        match classify(sql)? {
            StatementKind::Read => self.node.db.read().query_bound(sql, params),
            StatementKind::Write => {
                if params.is_empty() {
                    self.node.db.write().execute_script(sql)
                } else {
                    Err(EngineError::Unsupported(
                        "parameters are only supported on single SELECT statements".into(),
                    ))
                }
            }
        }
    }

    /// Reads run under the governor inside the engine (batch-grain cancel
    /// and deadline); writes stay short OLTP statements, checked once
    /// before dispatch.
    fn execute_governed(&self, sql: &str, gov: &QueryGovernor) -> EngineResult<QueryOutput> {
        match classify(sql)? {
            StatementKind::Read => self.node.db.read().query_governed(sql, gov),
            StatementKind::Write => {
                gov.check()?;
                self.node.db.write().execute_script(sql)
            }
        }
    }

    fn execute_bound_governed(
        &self,
        sql: &str,
        params: &[Value],
        gov: &QueryGovernor,
    ) -> EngineResult<QueryOutput> {
        match classify(sql)? {
            StatementKind::Read => self.node.db.read().query_bound_governed(sql, params, gov),
            StatementKind::Write => {
                gov.check()?;
                if params.is_empty() {
                    self.node.db.write().execute_script(sql)
                } else {
                    Err(EngineError::Unsupported(
                        "parameters are only supported on single SELECT statements".into(),
                    ))
                }
            }
        }
    }

    fn mem_peak_bytes(&self) -> u64 {
        self.node.db.read().mem_peak_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_reads_and_writes() {
        assert_eq!(classify("select 1").unwrap(), StatementKind::Read);
        assert_eq!(
            classify("set enable_seqscan = off").unwrap(),
            StatementKind::Read
        );
        assert_eq!(
            classify("insert into t values (1)").unwrap(),
            StatementKind::Write
        );
        assert_eq!(
            classify("begin; delete from t; commit").unwrap(),
            StatementKind::Write
        );
        assert_eq!(
            classify("create table t (a int)").unwrap(),
            StatementKind::Write
        );
    }

    #[test]
    fn node_connection_routes_reads_and_writes() {
        let mut db = Database::in_memory();
        db.execute("create table t (a int)").unwrap();
        let node = EngineNode::new("n0", db);
        let conn = NodeConnection::new(node.clone());
        conn.execute("insert into t values (1), (2)").unwrap();
        let out = conn.execute("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], apuama_sql::Value::Int(2));
        assert_eq!(conn.name(), "n0");
    }

    #[test]
    fn prepared_reads_use_the_node_plan_cache() {
        let mut db = Database::in_memory();
        db.execute("create table t (a int not null, primary key (a)) clustered by (a)")
            .unwrap();
        db.load_table("t", (0..100i64).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        let conn = NodeConnection::new(EngineNode::new("n0", db));
        let sql = "select count(*) as n from t where a >= $1 and a < $2";
        assert_eq!(conn.prepare(sql).unwrap(), 2);
        for lo in 0..4 {
            let out = conn
                .execute_bound(sql, &[Value::Int(lo), Value::Int(lo + 10)])
                .unwrap();
            assert_eq!(out.rows[0][0], Value::Int(10));
        }
        let stats = conn.node().with_db(|db| db.plan_cache_stats());
        assert_eq!(stats.misses, 1, "one parse+plan for four executions");
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn default_execute_bound_renders_text_for_wrapping_connections() {
        // A connection that implements only execute/name — the shape of the
        // fault-injection wrappers — still gets bound execution via the
        // trait default, and the wrapped text contains the substituted
        // literals so text-matching fault rules keep working.
        struct Recording {
            inner: NodeConnection,
            last: parking_lot::Mutex<String>,
        }
        impl Connection for Recording {
            fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
                *self.last.lock() = sql.to_string();
                self.inner.execute(sql)
            }
            fn name(&self) -> &str {
                self.inner.name()
            }
        }
        let mut db = Database::in_memory();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1), (2), (3)").unwrap();
        let rec = Recording {
            inner: NodeConnection::new(EngineNode::new("n0", db)),
            last: parking_lot::Mutex::new(String::new()),
        };
        assert_eq!(
            rec.prepare("select count(*) as n from t where a > $1")
                .unwrap(),
            1
        );
        let out = rec
            .execute_bound("select count(*) as n from t where a > $1", &[Value::Int(1)])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2));
        let seen = rec.last.lock().clone();
        assert!(seen.contains("a > 1"), "literal rendered into text: {seen}");
        assert!(!seen.contains('$'), "no placeholder leaks through: {seen}");
        // Missing parameters are a type error, not a silent NULL.
        assert!(rec
            .execute_bound("select count(*) as n from t where a > $1", &[])
            .is_err());
    }

    /// A connection that overrides the text pair only — `ApuamaConnection`
    /// is one — has its bound statements governed too: the default hands
    /// the rendered text to *its* `execute_governed`, governor and all.
    #[test]
    fn default_execute_bound_governed_keeps_the_governor() {
        struct Recording {
            inner: NodeConnection,
            governed: parking_lot::Mutex<Vec<String>>,
        }
        impl Connection for Recording {
            fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
                panic!("ungoverned: {sql}");
            }
            fn execute_governed(
                &self,
                sql: &str,
                gov: &QueryGovernor,
            ) -> EngineResult<QueryOutput> {
                self.governed.lock().push(sql.to_string());
                self.inner.execute_governed(sql, gov)
            }
            fn name(&self) -> &str {
                self.inner.name()
            }
        }
        let mut db = Database::in_memory();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1), (2), (3)").unwrap();
        let rec = Recording {
            inner: NodeConnection::new(EngineNode::new("n0", db)),
            governed: parking_lot::Mutex::new(Vec::new()),
        };
        let sql = "select count(*) as n from t where a > $1";
        let gov = QueryGovernor::new();
        let out = rec
            .execute_bound_governed(sql, &[Value::Int(1)], &gov)
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2));
        assert_eq!(
            *rec.governed.lock(),
            ["select count(*) as n from t where (a > 1)"]
        );
        // The governor it was handed is the caller's: once that fires the
        // statement is refused.
        gov.cancel();
        assert!(matches!(
            rec.execute_bound_governed(sql, &[Value::Int(1)], &gov),
            Err(EngineError::Cancelled(_))
        ));
    }

    #[test]
    fn bound_writes_without_params_pass_through() {
        let mut db = Database::in_memory();
        db.execute("create table t (a int)").unwrap();
        let conn = NodeConnection::new(EngineNode::new("n0", db));
        conn.execute_bound("insert into t values (7)", &[]).unwrap();
        let out = conn.execute("select count(*) as n from t").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(1));
        assert!(conn
            .execute_bound("insert into t values ($1)", &[Value::Int(9)])
            .is_err());
    }

    #[test]
    fn concurrent_reads_do_not_deadlock() {
        let mut db = Database::in_memory();
        db.execute("create table t (a int)").unwrap();
        db.execute("insert into t values (1)").unwrap();
        let node = EngineNode::new("n0", db);
        let conn = NodeConnection::new(node);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        conn.execute("select a from t").unwrap();
                    }
                });
            }
        });
    }
}
