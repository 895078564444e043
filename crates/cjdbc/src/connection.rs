//! The driver seam: how the controller reaches a backend.

use std::sync::Arc;

use parking_lot::RwLock;

use apuama_engine::{Database, EngineResult, QueryOutput, ReadRequest};
use apuama_sql::{parse_statements, Statement};

use crate::health::HealthTracker;
use crate::recovery::RejoinHooks;

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
    Ok(classify_script(
        &parse_statements(sql)?,
        StatementKind::Read,
    ))
}

/// [`classify`] over a script already parsed, with the kind of a session
/// `SET` left to the caller: to one connection it is a read, to the
/// controller it is a statement that has to reach every replica's session.
/// The caller keeps the statements, so a read goes down carrying them
/// ([`ReadRequest::script`]) and is not parsed again.
pub fn classify_script(stmts: &[Statement], set_is: StatementKind) -> StatementKind {
    let any_write = stmts.iter().any(|s| {
        s.is_write()
            || matches!(
                s,
                Statement::Begin | Statement::Commit | Statement::Rollback
            )
            || (set_is == StatementKind::Write && matches!(s, Statement::Set { .. }))
    });
    if any_write {
        StatementKind::Write
    } else {
        StatementKind::Read
    }
}

/// The JDBC-driver equivalent: an opaque handle that accepts SQL and
/// returns rows. The controller, the Apuama engine, and tests all speak
/// this interface.
///
/// [`Connection::execute`] is the text entry: it classifies what it is
/// given, so writes, scripts and statements of unknown kind go through it,
/// and it is all a test fake has to implement. [`Connection::read`] is the
/// read entry: the request is a read by construction (the controller
/// classified it once), so nothing below re-parses it to find that out.
pub trait Connection: Send + Sync {
    /// Executes a SQL script (single statement or `;`-separated write
    /// transaction body) and returns the last statement's output with
    /// merged statistics.
    fn execute(&self, sql: &str) -> EngineResult<QueryOutput>;

    /// Human-readable name for diagnostics (`node-3`).
    fn name(&self) -> &str;

    /// Runs one read. The default serves a connection that only takes
    /// text: it checks the governor once before dispatch, substitutes the
    /// bound values into the statement ([`ReadRequest::rendered`]) and
    /// calls [`Connection::execute`] — the avoid-sequential-scans hint has
    /// no text form and is dropped. Engine-backed connections override it
    /// to execute from the cached plan under the governor, and interposing
    /// connections (fault injection, the Apuama driver) to pass the whole
    /// request on.
    fn read(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        if let Some(gov) = req.governor {
            gov.check()?;
        }
        self.execute(&req.rendered()?)
    }

    /// High-water mark of pipeline-breaker memory on this backend (bytes);
    /// 0 when the backend does not track it. Governance diagnostics.
    fn mem_peak_bytes(&self) -> u64 {
        0
    }

    /// What an interposing cluster engine shares with a controller over
    /// its connections: its health tracker, one breaker for pass-through
    /// reads and sub-queries alike, and the hooks that keep its update
    /// gate in step with backend disable and rejoin. [`Controller::new`]
    /// uses them when every connection it is given returns the same
    /// engine's; `None`, the default, is a plain backend.
    ///
    /// [`Controller::new`]: crate::Controller::new
    fn engine_seam(&self) -> Option<(Arc<HealthTracker>, Arc<dyn RejoinHooks>)> {
        None
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
        let stmts = parse_statements(sql)?;
        match classify_script(&stmts, StatementKind::Read) {
            StatementKind::Read => self.node.db.read().read(&ReadRequest::script(sql, &stmts)),
            StatementKind::Write => self.node.db.write().execute_script(sql),
        }
    }

    fn name(&self) -> &str {
        &self.node.name
    }

    /// Straight to the node's read entry, which refuses anything that is
    /// not a read: bound statements run from the plan cache — parsed and
    /// planned once per statement text, not once per execution — and the
    /// governor and the hint ride into the executor.
    fn read(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        self.node.db.read().read(req)
    }

    fn mem_peak_bytes(&self) -> u64 {
        self.node.db.read().mem_peak_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apuama_engine::{EngineError, QueryGovernor};
    use apuama_sql::Value;

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
    fn bound_reads_use_the_node_plan_cache() {
        let mut db = Database::in_memory();
        db.execute("create table t (a int not null, primary key (a)) clustered by (a)")
            .unwrap();
        db.load_table("t", (0..100i64).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        let conn = NodeConnection::new(EngineNode::new("n0", db));
        let sql = "select count(*) as n from t where a >= $1 and a < $2";
        for lo in 0..4 {
            let params = [Value::Int(lo), Value::Int(lo + 10)];
            let out = conn.read(&ReadRequest::bound(sql, &params)).unwrap();
            assert_eq!(out.rows[0][0], Value::Int(10));
        }
        let stats = conn.node().with_db(|db| db.plan_cache_stats());
        assert_eq!(stats.misses, 1, "one parse+plan for four executions");
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn default_read_renders_text_and_checks_the_governor() {
        // A connection that implements only execute/name — the shape of a
        // test fake — still serves requests via the trait default, and the
        // text it is handed contains the substituted literals so
        // text-matching rules keep working.
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
        let sql = "select count(*) as n from t where a > $1";
        let params = [Value::Int(1)];
        let gov = QueryGovernor::new();
        let req = ReadRequest::bound(sql, &params).governed(&gov);
        assert_eq!(rec.read(&req).unwrap().rows[0][0], Value::Int(2));
        assert_eq!(
            *rec.last.lock(),
            "select count(*) as n from t where (a > 1)"
        );
        // Missing parameters are a type error, not a silent NULL.
        assert!(rec.read(&ReadRequest::bound(sql, &[])).is_err());
        // Once the caller's governor fires the statement is refused before
        // it is dispatched.
        gov.cancel();
        rec.last.lock().clear();
        assert!(matches!(rec.read(&req), Err(EngineError::Cancelled(_))));
        assert_eq!(*rec.last.lock(), "");
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
