//! The database façade: statement dispatch, sessions settings, transactions.
//!
//! One [`Database`] instance is one cluster node's DBMS. Reads
//! ([`Database::read`]) take `&self` and may run concurrently from many
//! threads (the buffer pool serializes internally); writes
//! ([`Database::execute`]) take `&mut self`, matching the cluster layer's
//! reader-writer locking and C-JDBC's totally ordered write broadcast.
//!
//! `SET` is accepted on the read path (a session setting opens no write
//! transaction). `SET enable_seqscan = off` is the session-wide form of
//! the optimizer interference; Apuama's SVP sub-queries carry it per
//! statement instead ([`ReadRequest::avoid_seqscan`]), because every
//! connection to one node shares this one session.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use apuama_sql::ast::{Expr, Select, Statement};
use apuama_sql::{parse_statement, parse_statements, visit, Value};
use apuama_storage::{AccessKind, BufferPool, BufferStats, PageKey, Row, RowId, TableId};

use crate::catalog::{Catalog, TableSchema};
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, split_conjuncts, Scope};
use crate::exec::{self, ExecContext};
use crate::governor::{MemoryGauge, QueryGovernor};
use crate::physical;
use crate::plan_cache::{self, CachedPlan, PlanCache, PlanCacheStats};
use crate::request::ReadRequest;
use crate::stats::ExecStats;
use crate::table::Table;

/// Result of one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Row>,
    /// Rows affected by DML (0 for queries/DDL).
    pub rows_affected: u64,
    /// Work accounting for the simulator.
    pub stats: ExecStats,
}

/// Session-level settings, typed: every `SET` name the engine acts on is
/// parsed once in `Database::apply_set` and read back as one atomic load,
/// so no statement path locks a map or re-parses a string. Any other name
/// is accepted and only echoed ([`Database::setting`]) so drivers can
/// round-trip it.
#[derive(Debug)]
pub struct Settings {
    enable_seqscan: AtomicBool,
    enable_indexscan: AtomicBool,
    enable_kernel: AtomicBool,
    /// `SET parallel_workers`, already clamped to `1..=64`. Starts at the
    /// machine's core count, which is asked for in [`core_count`] and
    /// nowhere else.
    parallel_workers: AtomicUsize,
    /// Default per-statement deadline (`SET statement_timeout_ms`, 0 =
    /// none).
    statement_timeout_ms: AtomicU64,
    /// Every `SET` as written, known name or not: the echo behind
    /// [`Database::setting`]. No statement path reads it.
    misc: Mutex<HashMap<String, String>>,
}

#[cfg(test)]
thread_local! {
    /// How often this thread asked the OS for the core count.
    static CORE_COUNT_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The machine's core count, asked of the OS once per process: the call
/// reads cgroup files (~11 µs, all but 0.6 µs of building an in-memory
/// database), and every fork, staging database and test database starts
/// from it.
fn core_count() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        #[cfg(test)]
        CORE_COUNT_READS.with(|n| n.set(n.get() + 1));
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            enable_seqscan: AtomicBool::new(true),
            enable_indexscan: AtomicBool::new(true),
            enable_kernel: AtomicBool::new(true),
            parallel_workers: AtomicUsize::new(core_count().clamp(1, MAX_PARALLEL_WORKERS)),
            statement_timeout_ms: AtomicU64::new(0),
            misc: Mutex::new(HashMap::new()),
        }
    }
}

const MAX_PARALLEL_WORKERS: usize = 64;

/// A boolean `SET` value, in exactly the spellings PostgreSQL's common
/// ones share.
fn parse_bool_setting(name: &str, value: &str) -> EngineResult<bool> {
    match value {
        "on" | "true" | "1" | "yes" => Ok(true),
        "off" | "false" | "0" | "no" => Ok(false),
        _ => Err(EngineError::TypeError(format!(
            "invalid value for {name}: '{value}' (expected on or off)"
        ))),
    }
}

fn parse_uint_setting(name: &str, value: &str) -> EngineResult<u64> {
    value.trim().parse().map_err(|_| {
        EngineError::TypeError(format!(
            "invalid value for {name}: '{value}' (expected a non-negative integer)"
        ))
    })
}

/// What [`Database::plan_for`] made of a statement text.
enum Planned {
    /// A SELECT, lowered and cached.
    Select(Arc<CachedPlan>),
    /// Anything else, as parsed.
    Other(Box<Statement>),
}

/// What a plan-cache miss in [`Database::plan_for`] compiles.
enum Source<'s> {
    /// A prepared or bound statement's exact text, parsed.
    Text(&'s str),
    /// A text SELECT's parse, with the literals its key lifted replaced by
    /// their placeholders.
    Lifted(&'s Select),
}

/// Undo-log entry for transaction rollback.
#[derive(Debug)]
enum Undo {
    Insert {
        table: TableId,
        rid: RowId,
    },
    Delete {
        table: TableId,
        row: Row,
    },
    Update {
        table: TableId,
        rid: RowId,
        old: Row,
    },
}

/// A single-node database instance.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<Table>,
    pool: Mutex<BufferPool>,
    settings: Settings,
    /// `Some` while a transaction is open; holds the undo log.
    txn: Option<Vec<Undo>>,
    /// Bumped by DDL; cached plans from older versions are discarded.
    catalog_version: AtomicU64,
    /// Prepared-statement plan cache (see [`crate::plan_cache`]).
    plan_cache: Mutex<PlanCache>,
    /// Node-level memory accounting for pipeline-breaker state
    /// (`SET mem_budget_bytes` to enforce a budget; see
    /// [`crate::governor::MemoryGauge`]).
    mem_gauge: MemoryGauge,
    /// Lazily-started worker pool for morsel-driven parallel execution
    /// (`SET parallel_workers`); `None` until the first parallel statement.
    workers: Mutex<Option<std::sync::Arc<crate::parallel::WorkerPool>>>,
}

impl Database {
    /// Creates a database whose buffer pool holds `pool_pages` pages. This
    /// is the per-node RAM knob of the reproduction.
    pub fn new(pool_pages: usize) -> Self {
        Self::with_pool(BufferPool::new(pool_pages))
    }

    /// An effectively-infinite buffer pool: the in-memory engine used for
    /// result composition (the paper's HSQLDB role).
    pub fn in_memory() -> Self {
        Self::with_pool(BufferPool::unbounded())
    }

    /// An empty database over `pool`, with default session settings.
    fn with_pool(pool: BufferPool) -> Self {
        Database {
            catalog: Catalog::new(),
            tables: Vec::new(),
            pool: Mutex::new(pool),
            settings: Settings::default(),
            txn: None,
            catalog_version: AtomicU64::new(0),
            plan_cache: Mutex::new(PlanCache::default()),
            mem_gauge: MemoryGauge::unlimited(),
            workers: Mutex::new(None),
        }
    }

    // -- metadata access -----------------------------------------------------

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.catalog.get(name).map(|s| &self.tables[s.id as usize])
    }

    /// The table a compiled plan fragment resolved by name earlier in the
    /// same execution (ids index the table vector directly).
    pub(crate) fn table_by_id(&self, id: TableId) -> &Table {
        &self.tables[id as usize]
    }

    fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id as usize]
    }

    /// Whether the planner may pick sequential scans.
    pub fn seqscan_enabled(&self) -> bool {
        self.settings.enable_seqscan.load(Ordering::SeqCst)
    }

    /// Whether the planner may pick index scans (`SET enable_indexscan`,
    /// default on — PostgreSQL's matching knob).
    pub fn indexscan_enabled(&self) -> bool {
        self.settings.enable_indexscan.load(Ordering::SeqCst)
    }

    /// Whether lowering may apply the fused scan→filter→aggregate plan
    /// rewrite (`SET enable_kernel`, default on). The knob toggles a plan
    /// rewrite, not a second executor: the general tree it leaves in place
    /// is the reference the property suites compare the fused rule against.
    pub fn kernel_enabled(&self) -> bool {
        self.settings.enable_kernel.load(Ordering::SeqCst)
    }

    /// Worker count for morsel-driven intra-node parallel execution
    /// (`SET parallel_workers = N`, `1..=64`; `0` and `1` both mean
    /// serial). Defaults to the machine's cores as counted when this
    /// database was built. The knob changes neither results nor statistics
    /// — execution stays byte-identical to serial — so it is not part of
    /// the plan-cache fingerprint: it is read at execution time, not
    /// lowering time.
    pub fn parallel_workers(&self) -> usize {
        self.settings.parallel_workers.load(Ordering::Relaxed)
    }

    /// The node's lazily-started pool of execution workers, grown to at
    /// least `workers` threads. Shared by every parallel statement on this
    /// database.
    pub(crate) fn worker_pool(
        &self,
        workers: usize,
    ) -> std::sync::Arc<crate::parallel::WorkerPool> {
        let mut slot = self.workers.lock();
        let pool =
            slot.get_or_insert_with(|| std::sync::Arc::new(crate::parallel::WorkerPool::new()));
        pool.ensure_threads(workers);
        pool.clone()
    }

    /// The node's memory gauge: pipeline-breaker state charged by every
    /// statement on this database. `SET mem_budget_bytes = N` arms the
    /// budget (0 disarms it).
    pub fn mem_gauge(&self) -> &MemoryGauge {
        &self.mem_gauge
    }

    /// High-water mark of pipeline-breaker memory since this database was
    /// created (bytes).
    pub fn mem_peak_bytes(&self) -> u64 {
        self.mem_gauge.peak_bytes()
    }

    /// Builds the effective per-statement governor: the caller's governor
    /// (if any) tightened by the session's `statement_timeout_ms` default.
    /// Returns `None` when there is nothing to enforce, keeping the
    /// ungoverned hot path a single atomic load.
    fn statement_governor(&self, caller: Option<&QueryGovernor>) -> Option<QueryGovernor> {
        let timeout_ms = self.settings.statement_timeout_ms.load(Ordering::Relaxed);
        match (caller, timeout_ms) {
            (None, 0) => None,
            (Some(g), 0) => Some(g.clone()),
            (caller, ms) => {
                let base = caller.cloned().unwrap_or_default();
                Some(base.with_deadline_in(std::time::Duration::from_millis(ms)))
            }
        }
    }

    /// Reads back a session setting as it was written (`enable_seqscan`
    /// also before it was ever set). Not on any statement path.
    pub fn setting(&self, name: &str) -> Option<String> {
        if name == "enable_seqscan" {
            return Some(if self.seqscan_enabled() { "on" } else { "off" }.to_string());
        }
        self.settings.misc.lock().get(name).cloned()
    }

    // -- buffer pool ----------------------------------------------------------

    /// Touches a page; returns hit/miss. Called by executors.
    pub(crate) fn pool_access(&self, key: PageKey, kind: AccessKind) -> bool {
        self.pool.lock().access(key, kind)
    }

    /// Cumulative pool counters (includes evictions, which are not
    /// attributable to single statements).
    pub fn pool_stats(&self) -> BufferStats {
        self.pool.lock().stats()
    }

    /// Empties the pool — cold-cache experiment setup.
    pub fn drop_caches(&self) {
        self.pool.lock().clear();
    }

    /// Drops one table's pages from the pool (post-vacuum: the page
    /// layout changed, so cached residency is meaningless).
    fn pool_invalidate(&self, table: TableId) {
        self.pool.lock().invalidate_table(table);
    }

    /// Pool capacity in pages.
    pub fn pool_capacity(&self) -> usize {
        self.pool.lock().capacity()
    }

    /// Re-sizes the buffer pool (evicting if shrinking). The simulator uses
    /// this after loading to set each node's RAM at the paper's
    /// RAM:database ratio.
    pub fn set_pool_capacity(&self, pages: usize) {
        self.pool.lock().set_capacity(pages);
    }

    /// Total heap pages across all tables (database "size on disk").
    pub fn total_pages(&self) -> u64 {
        self.tables.iter().map(|t| t.pages()).sum()
    }

    // -- statement execution ---------------------------------------------------

    /// Executes any statement (reads and writes).
    pub fn execute(&mut self, sql: &str) -> EngineResult<QueryOutput> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Executes a `;`-separated script, merging statistics; returns the
    /// last statement's output with the merged stats.
    pub fn execute_script(&mut self, sql: &str) -> EngineResult<QueryOutput> {
        let stmts = parse_statements(sql)?;
        let mut merged = ExecStats::default();
        let mut last = QueryOutput::default();
        for s in &stmts {
            let out = self.execute_stmt(s)?;
            merged.merge(&out.stats);
            last = out;
        }
        last.stats = merged;
        Ok(last)
    }

    /// Read-only text entry (see [`Database::read`]).
    pub fn query(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.read(&ReadRequest::text(sql))
    }

    /// The read entry point, usable from `&self` (concurrent readers):
    /// runs SELECT, SET and EXPLAIN and refuses anything else, so a write
    /// that reaches it by mistake changes nothing. A SELECT runs from the
    /// plan cache — parsed and lowered once per key and `enable_kernel`
    /// setting, not once per execution. With bound values (`req.params`)
    /// the key is the exact text; a text SELECT is a bound read whose
    /// values were lifted: its key is its text with the WHERE literals
    /// [`visit::lift_where_literals`] lifts written as placeholders, and
    /// the lifted literals are the values. Either way the result is
    /// byte-identical to running the literals in place. The statement comes
    /// from `req.stmt` when the request carries it; otherwise `req.sql` is
    /// parsed here, once. The statement observes `req.governor` at
    /// scan-batch grain, and `req.avoid_seqscan` plans it as under `SET
    /// enable_seqscan = off` without touching the session.
    pub fn read(&self, req: &ReadRequest<'_>) -> EngineResult<QueryOutput> {
        let kernel_on = self.kernel_enabled();
        let parsed;
        let (fp, source, values) = match req.params {
            Some(params) => (
                plan_cache::fingerprint(req.sql, kernel_on),
                Source::Text(req.sql),
                params.to_vec(),
            ),
            None => {
                let stmt = match req.stmt {
                    Some(stmt) => stmt,
                    None => {
                        parsed = parse_statement(req.sql)?;
                        &parsed
                    }
                };
                let Statement::Select(q) = stmt else {
                    return self.read_stmt(stmt, req.governor, req.avoid_seqscan);
                };
                let visit::Lifted { text, values } = visit::lift_where_literals(q);
                ((text, kernel_on), Source::Lifted(q), values)
            }
        };
        let plan = match self.plan_for(fp, source)? {
            Planned::Select(plan) => plan,
            // SET / EXPLAIN take no parameters and are never cached.
            Planned::Other(_) if !values.is_empty() => {
                return Err(EngineError::Unsupported(
                    "parameters are only supported on SELECT statements".into(),
                ));
            }
            Planned::Other(stmt) => return self.read_stmt(&stmt, req.governor, req.avoid_seqscan),
        };
        // Lifted values fill the lifted placeholders by construction; a
        // client's must fill the client's.
        if req.params.is_some() && values.len() != plan.n_params {
            return Err(EngineError::TypeError(format!(
                "statement takes {} parameter(s), got {}",
                plan.n_params,
                values.len()
            )));
        }
        let ctx = self.read_context(values, req.governor, req.avoid_seqscan);
        let rel = physical::execute(&plan.physical, &[], &ctx)?;
        Ok(Self::select_output(rel, &ctx))
    }

    /// The context one read statement executes in: the caller's governor
    /// tightened by the session default, and the sequential-scan
    /// permission left after the request's hint.
    fn read_context(
        &self,
        params: Vec<Value>,
        gov: Option<&QueryGovernor>,
        avoid_seqscan: bool,
    ) -> ExecContext<'_> {
        ExecContext::governed(self, params, self.statement_governor(gov))
            .restrict_seqscan(!avoid_seqscan)
    }

    fn select_output(rel: exec::Relation, ctx: &ExecContext<'_>) -> QueryOutput {
        ctx.record_output(&rel);
        QueryOutput {
            columns: rel.column_names(),
            rows: rel.rows,
            rows_affected: 0,
            stats: ctx.take_stats(),
        }
    }

    /// Runs one parsed read statement uncached: a SET or EXPLAIN for
    /// [`Database::read`], and any read for [`Database::execute_stmt`],
    /// whose SELECT runs with its literals in place.
    fn read_stmt(
        &self,
        stmt: &Statement,
        gov: Option<&QueryGovernor>,
        avoid_seqscan: bool,
    ) -> EngineResult<QueryOutput> {
        match stmt {
            Statement::Select(q) => {
                let ctx = self.read_context(Vec::new(), gov, avoid_seqscan);
                let rel = exec::run_select(q, &[], &ctx)?;
                Ok(Self::select_output(rel, &ctx))
            }
            Statement::Set { name, value } => {
                self.apply_set(name, value)?;
                Ok(QueryOutput::default())
            }
            Statement::Explain { analyze, inner } => match inner.as_ref() {
                Statement::Select(q) => {
                    let ctx = ExecContext::new(self).restrict_seqscan(!avoid_seqscan);
                    let lines = if *analyze {
                        physical::explain_analyze(q, &ctx)?
                    } else {
                        physical::explain(q, &ctx)?
                    };
                    Ok(QueryOutput {
                        columns: vec!["plan".to_string()],
                        rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
                        rows_affected: 0,
                        stats: ctx.take_stats(),
                    })
                }
                other => Err(EngineError::Unsupported(format!(
                    "EXPLAIN only supports SELECT, got: {other}"
                ))),
            },
            other => Err(EngineError::Unsupported(format!(
                "query() only runs SELECT/SET, got: {other}"
            ))),
        }
    }

    // -- prepared statements ---------------------------------------------------

    /// One `(table, pages, rows)` stats entry; missing tables get sentinel
    /// values so a plan compiled before a DROP-like change never validates.
    fn table_stats_entry(&self, name: &str) -> (String, u64, u64) {
        match self.table(name) {
            Some(t) => (name.to_string(), t.pages(), t.row_count()),
            None => (name.to_string(), u64::MAX, u64::MAX),
        }
    }

    /// Whether every table of a cached plan's stats token still has the
    /// pages and rows it had when the plan was compiled.
    fn stats_token_current(&self, token: &[(String, u64, u64)]) -> bool {
        token.iter().all(|(t, pages, rows)| match self.table(t) {
            Some(t) => (t.pages(), t.row_count()) == (*pages, *rows),
            None => (*pages, *rows) == (u64::MAX, u64::MAX),
        })
    }

    /// Fetches (or compiles and caches) the plan keyed `fp`. A miss
    /// compiles what `source` says, under the kernel setting `fp` names; a
    /// text that parses to anything but a SELECT comes back as parsed —
    /// those are never cached.
    fn plan_for(&self, fp: plan_cache::Fingerprint, source: Source<'_>) -> EngineResult<Planned> {
        let version = self.catalog_version.load(Ordering::SeqCst);
        if let Some(plan) = self
            .plan_cache
            .lock()
            .lookup(&fp, version, |token| self.stats_token_current(token))
        {
            return Ok(Planned::Select(plan));
        }
        let q = match source {
            Source::Text(sql) => match parse_statement(sql)? {
                Statement::Select(q) => q,
                other => return Ok(Planned::Other(Box::new(other))),
            },
            Source::Lifted(q) => {
                let mut q = q.clone();
                visit::parameterize_where_literals(&mut q);
                debug_assert_eq!(q.to_string(), fp.0, "the lifted statement is its key");
                q
            }
        };
        let n_params = visit::parameter_count(&q);
        let stats_token = visit::referenced_tables(&q)
            .iter()
            .map(|t| self.table_stats_entry(t))
            .collect();
        let plan = Arc::new(CachedPlan {
            physical: physical::lower(q, self, fp.1),
            n_params,
            catalog_version: version,
            stats_token,
        });
        self.plan_cache.lock().insert(fp, Arc::clone(&plan));
        Ok(Planned::Select(plan))
    }

    /// Parses, plans, and caches a statement without executing it; returns
    /// the number of `$N` parameters it takes. Subsequent bound reads of
    /// the same text skip parsing and planning entirely. Non-SELECT
    /// statements are accepted (C-JDBC prepares writes too) but take no
    /// parameters and are not cached.
    pub fn prepare(&self, sql: &str) -> EngineResult<usize> {
        let fp = plan_cache::fingerprint(sql, self.kernel_enabled());
        Ok(match self.plan_for(fp, Source::Text(sql))? {
            Planned::Select(plan) => plan.n_params,
            Planned::Other(_) => 0,
        })
    }

    /// Bound read entry (see [`Database::read`]).
    pub fn query_bound(&self, sql: &str, params: &[Value]) -> EngineResult<QueryOutput> {
        self.read(&ReadRequest::bound(sql, params))
    }

    /// Plan-cache counters (hits, misses, evictions, invalidations,
    /// replans) since this database was created.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.lock().stats()
    }

    /// Executes an already-parsed statement.
    pub fn execute_stmt(&mut self, stmt: &Statement) -> EngineResult<QueryOutput> {
        match stmt {
            Statement::Select(_) | Statement::Set { .. } | Statement::Explain { .. } => {
                // The read path covers all three.
                self.read_stmt(stmt, None, false)
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.exec_insert(table, columns, rows),
            Statement::Delete { table, selection } => self.exec_delete(table, selection.as_ref()),
            Statement::Update {
                table,
                assignments,
                selection,
            } => self.exec_update(table, assignments, selection.as_ref()),
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                clustered_by,
            } => {
                let id = self.catalog.next_id();
                debug_assert_eq!(id as usize, self.tables.len());
                let schema =
                    TableSchema::from_ddl(id, name, columns, primary_key, clustered_by.as_deref())?;
                self.catalog.add(schema.clone())?;
                self.tables.push(Table::new(schema));
                self.catalog_version.fetch_add(1, Ordering::SeqCst);
                Ok(QueryOutput::default())
            }
            Statement::CreateIndex { table, column, .. } => {
                let schema = self
                    .catalog
                    .get(table)
                    .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
                let ci = schema
                    .column_index(column)
                    .ok_or_else(|| EngineError::UnknownColumn(column.clone()))?;
                let id = schema.id;
                self.table_mut(id).create_index(ci);
                self.catalog_version.fetch_add(1, Ordering::SeqCst);
                Ok(QueryOutput::default())
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(EngineError::Transaction("nested BEGIN".into()));
                }
                self.txn = Some(Vec::new());
                Ok(QueryOutput::default())
            }
            Statement::Commit => {
                if self.txn.take().is_none() {
                    return Err(EngineError::Transaction("COMMIT without BEGIN".into()));
                }
                Ok(QueryOutput::default())
            }
            Statement::Rollback => {
                let Some(undo) = self.txn.take() else {
                    return Err(EngineError::Transaction("ROLLBACK without BEGIN".into()));
                };
                for entry in undo.into_iter().rev() {
                    match entry {
                        Undo::Insert { table, rid } => {
                            self.table_mut(table).delete(rid);
                        }
                        Undo::Delete { table, row } => {
                            self.table_mut(table).insert(row)?;
                        }
                        Undo::Update { table, rid, old } => {
                            self.table_mut(table).update(rid, old)?;
                        }
                    }
                }
                Ok(QueryOutput::default())
            }
        }
    }

    /// Applies one `SET`. A known name parses its value here, once, and a
    /// malformed value is an error that leaves the previous one in force;
    /// an unknown name is only echoed.
    fn apply_set(&self, name: &str, value: &str) -> EngineResult<()> {
        let s = &self.settings;
        let flag = |slot: &AtomicBool| -> EngineResult<()> {
            slot.store(parse_bool_setting(name, value)?, Ordering::SeqCst);
            Ok(())
        };
        match name {
            "enable_seqscan" => flag(&s.enable_seqscan)?,
            "enable_indexscan" => flag(&s.enable_indexscan)?,
            "enable_kernel" => flag(&s.enable_kernel)?,
            "parallel_workers" => {
                let n = parse_uint_setting(name, value)?.clamp(1, MAX_PARALLEL_WORKERS as u64);
                s.parallel_workers.store(n as usize, Ordering::Relaxed);
            }
            "statement_timeout_ms" => s
                .statement_timeout_ms
                .store(parse_uint_setting(name, value)?, Ordering::Relaxed),
            "mem_budget_bytes" => self.mem_gauge.set_limit(parse_uint_setting(name, value)?),
            _ => {}
        }
        s.misc.lock().insert(name.to_string(), value.to_string());
        Ok(())
    }

    // -- DML -----------------------------------------------------------------

    fn exec_insert(
        &mut self,
        table_name: &str,
        columns: &[String],
        value_rows: &[Vec<Expr>],
    ) -> EngineResult<QueryOutput> {
        let schema = self
            .catalog
            .get(table_name)
            .ok_or_else(|| EngineError::UnknownTable(table_name.to_string()))?
            .clone();
        // Column mapping: listed columns or positional.
        let mapping: Vec<usize> = if columns.is_empty() {
            (0..schema.arity()).collect()
        } else {
            columns
                .iter()
                .map(|c| {
                    schema
                        .column_index(c)
                        .ok_or_else(|| EngineError::UnknownColumn(c.clone()))
                })
                .collect::<EngineResult<_>>()?
        };
        // Evaluate the value expressions (column-free by construction).
        let mut stats = ExecStats::default();
        let rows: Vec<Row> = {
            let ctx = ExecContext::new(self);
            let mut out = Vec::with_capacity(value_rows.len());
            for exprs in value_rows {
                if exprs.len() != mapping.len() {
                    return Err(EngineError::Constraint(format!(
                        "INSERT expects {} values per row, got {}",
                        mapping.len(),
                        exprs.len()
                    )));
                }
                let mut row = vec![Value::Null; schema.arity()];
                for (expr, &slot) in exprs.iter().zip(&mapping) {
                    row[slot] = eval::eval_once(expr, &ctx)?;
                }
                out.push(row);
            }
            stats.merge(&ctx.take_stats());
            out
        };
        let index_count = self.tables[schema.id as usize].indexed_columns().count() as u64;
        let mut inserted = Vec::with_capacity(rows.len());
        for row in rows {
            let rid = self.table_mut(schema.id).insert(row)?;
            inserted.push(rid);
        }
        // Charge I/O: each inserted row dirties its heap page; index
        // maintenance is CPU work.
        for &rid in &inserted {
            let table = &self.tables[schema.id as usize];
            let page = table.heap.geometry().page_of(rid);
            let hit = self.pool_access(
                PageKey {
                    table: schema.id,
                    page,
                },
                AccessKind::Random,
            );
            if hit {
                stats.buffer.hits += 1;
            } else {
                stats.buffer.misses_rand += 1;
            }
            stats.cpu_tuple_ops += 1 + index_count;
        }
        let n = inserted.len() as u64;
        if let Some(undo) = &mut self.txn {
            undo.extend(inserted.into_iter().map(|rid| Undo::Insert {
                table: schema.id,
                rid,
            }));
        }
        Ok(QueryOutput {
            rows_affected: n,
            stats,
            ..QueryOutput::default()
        })
    }

    /// Finds row ids matching a predicate, using the same access-path logic
    /// as queries (RF2's keyed deletes hit the clustered index, not a scan).
    fn matching_rids(
        &self,
        table: &Table,
        selection: Option<&Expr>,
        stats: &mut ExecStats,
    ) -> EngineResult<Vec<RowId>> {
        let ctx = ExecContext::new(self);
        let conjuncts = split_conjuncts(selection);
        let (choice, residual) = physical::plan_scan(table, &table.schema.name, &conjuncts, &ctx);
        let rids = exec::scan_rids(&ctx, table, &choice.path, &residual)?;
        stats.merge(&ctx.take_stats());
        Ok(rids)
    }

    /// Compacts and re-clusters one table ([`Table::vacuum`]) and drops its
    /// pages from the pool: the page numbers mean other tuples afterwards.
    /// Returns the slots reclaimed.
    pub(crate) fn vacuum_table(&mut self, id: TableId) -> u64 {
        let reclaimed = self.table_mut(id).vacuum();
        self.pool_invalidate(id);
        reclaimed
    }

    fn exec_delete(
        &mut self,
        table_name: &str,
        selection: Option<&Expr>,
    ) -> EngineResult<QueryOutput> {
        let id = self
            .catalog
            .get(table_name)
            .ok_or_else(|| EngineError::UnknownTable(table_name.to_string()))?
            .id;
        let mut stats = ExecStats::default();
        let rids = self.matching_rids(&self.tables[id as usize], selection, &mut stats)?;
        let index_count = self.tables[id as usize].indexed_columns().count() as u64;
        let mut n = 0u64;
        for rid in rids {
            let page = self.tables[id as usize].heap.geometry().page_of(rid);
            if let Some(row) = self.table_mut(id).delete(rid) {
                n += 1;
                let hit = self.pool_access(PageKey { table: id, page }, AccessKind::Random);
                if hit {
                    stats.buffer.hits += 1;
                } else {
                    stats.buffer.misses_rand += 1;
                }
                stats.cpu_tuple_ops += 1 + index_count;
                if let Some(undo) = &mut self.txn {
                    undo.push(Undo::Delete { table: id, row });
                }
            }
        }
        // Auto-vacuum: once a third of the heap is tombstones, compact and
        // rebuild indexes so page counts (and therefore I/O charges) track
        // live data again — outside transactions only, since the undo log
        // holds no row ids but rollback re-inserts would interleave badly
        // with a concurrent compaction of the same statement.
        if self.txn.is_none() {
            let table = &self.tables[id as usize];
            if table.tombstone_ratio() > 0.34 && table.heap.slots() > 128 {
                stats.cpu_tuple_ops += self.vacuum_table(id);
            }
        }
        Ok(QueryOutput {
            rows_affected: n,
            stats,
            ..QueryOutput::default()
        })
    }

    fn exec_update(
        &mut self,
        table_name: &str,
        assignments: &[(String, Expr)],
        selection: Option<&Expr>,
    ) -> EngineResult<QueryOutput> {
        let schema = self
            .catalog
            .get(table_name)
            .ok_or_else(|| EngineError::UnknownTable(table_name.to_string()))?
            .clone();
        let targets: Vec<usize> = assignments
            .iter()
            .map(|(c, _)| {
                schema
                    .column_index(c)
                    .ok_or_else(|| EngineError::UnknownColumn(c.clone()))
            })
            .collect::<EngineResult<_>>()?;
        let mut stats = ExecStats::default();
        let rids = self.matching_rids(&self.tables[schema.id as usize], selection, &mut stats)?;
        // Compute the new rows (assignments may reference current values).
        let mut updates: Vec<(RowId, Row)> = Vec::with_capacity(rids.len());
        {
            let ctx = ExecContext::new(self);
            let table = &self.tables[schema.id as usize];
            let bindings = exec::bindings_for_table(&table.schema, None);
            let scope = Scope::new(&bindings, &[], &ctx);
            let progs: Vec<_> = (assignments.iter())
                .map(|(_, expr)| eval::compile_expr(expr, &scope))
                .collect();
            for &rid in &rids {
                let Some(row) = table.heap.get(rid) else {
                    continue;
                };
                let mut new_row = row.clone();
                for (prog, &slot) in progs.iter().zip(&targets) {
                    new_row[slot] = eval::eval_compiled(prog, &row, &[], &ctx)?;
                }
                updates.push((rid, new_row));
            }
            stats.merge(&ctx.take_stats());
        }
        let mut n = 0u64;
        for (rid, new_row) in updates {
            let page = self.tables[schema.id as usize].heap.geometry().page_of(rid);
            if let Some(old) = self.table_mut(schema.id).update(rid, new_row)? {
                n += 1;
                let hit = self.pool_access(
                    PageKey {
                        table: schema.id,
                        page,
                    },
                    AccessKind::Random,
                );
                if hit {
                    stats.buffer.hits += 1;
                } else {
                    stats.buffer.misses_rand += 1;
                }
                stats.cpu_tuple_ops += 1;
                if let Some(undo) = &mut self.txn {
                    undo.push(Undo::Update {
                        table: schema.id,
                        rid,
                        old,
                    });
                }
            }
        }
        Ok(QueryOutput {
            rows_affected: n,
            stats,
            ..QueryOutput::default()
        })
    }

    // -- bulk loading ----------------------------------------------------------

    /// Loads rows directly into a (fresh) table, bypassing SQL. Used by the
    /// TPC-H loader to populate replicas quickly; clustered tables are
    /// sorted by their clustering key exactly as the paper's physical
    /// design prescribes.
    pub fn load_table<R: std::borrow::Borrow<Row>>(
        &mut self,
        name: &str,
        rows: Vec<R>,
    ) -> EngineResult<()> {
        let id = self
            .catalog
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?
            .id;
        self.table_mut(id).bulk_load(rows)
    }

    /// Appends rows through the normal insert path (indexes maintained,
    /// works on non-empty tables) — how the Result Composer fills its
    /// staging table.
    pub fn append_rows(&mut self, name: &str, rows: Vec<Row>) -> EngineResult<()> {
        let id = self
            .catalog
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?
            .id;
        for row in rows {
            self.table_mut(id).insert(row)?;
        }
        Ok(())
    }

    /// True while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    // -- replica provisioning --------------------------------------------------

    /// Snapshot-clones this database for replica re-provisioning (the
    /// cluster layer's full-copy recovery path). The clone carries the same
    /// catalog and the same table contents *in the same heap order* — so
    /// aggregate fold order, and therefore every float bit of a query
    /// answer, matches the source replica exactly — behind a fresh, cold
    /// buffer pool of equal capacity and default session settings. Refuses
    /// a source with an open transaction: the undo log is not durable
    /// state a new replica should inherit.
    pub fn fork(&self) -> EngineResult<Database> {
        if self.in_transaction() {
            return Err(EngineError::Transaction(
                "cannot fork a database while a transaction is open".into(),
            ));
        }
        // The clone starts with an empty plan cache (cached plans hold no
        // data, only compiled shapes, and recompiling is cheap) and no
        // worker pool.
        Ok(Database {
            catalog: self.catalog.clone(),
            tables: self.tables.clone(),
            catalog_version: AtomicU64::new(self.catalog_version.load(Ordering::SeqCst)),
            ..Self::with_pool(BufferPool::new(self.pool_capacity()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut d = Database::in_memory();
        d.execute(
            "create table t (k int not null, v float, s text, primary key (k)) clustered by (k)",
        )
        .unwrap();
        d
    }

    #[test]
    fn insert_and_select() {
        let mut d = db();
        let out = d
            .execute("insert into t values (1, 1.5, 'a'), (2, 2.5, 'b')")
            .unwrap();
        assert_eq!(out.rows_affected, 2);
        let res = d.query("select k, v from t where k = 2").unwrap();
        assert_eq!(res.columns, vec!["k", "v"]);
        assert_eq!(res.rows, vec![vec![Value::Int(2), Value::Float(2.5)]]);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut d = db();
        d.execute("insert into t (k) values (7)").unwrap();
        let res = d.query("select v from t").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn delete_with_range_predicate() {
        let mut d = db();
        for i in 0..10 {
            d.execute(&format!("insert into t values ({i}, {i}.0, 'x')"))
                .unwrap();
        }
        let out = d.execute("delete from t where k >= 5 and k < 8").unwrap();
        assert_eq!(out.rows_affected, 3);
        assert_eq!(d.table("t").unwrap().row_count(), 7);
    }

    #[test]
    fn update_statement() {
        let mut d = db();
        d.execute("insert into t values (1, 1.0, 'a')").unwrap();
        let out = d.execute("update t set v = v + 1.0 where k = 1").unwrap();
        assert_eq!(out.rows_affected, 1);
        let res = d.query("select v from t").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Float(2.0)]]);
    }

    #[test]
    fn aggregation_with_group_by() {
        let mut d = db();
        d.execute("insert into t values (1, 10.0, 'a'), (2, 20.0, 'a'), (3, 5.0, 'b')")
            .unwrap();
        let res = d
            .query("select s, sum(v) as total, count(*) as n from t group by s order by s")
            .unwrap();
        assert_eq!(
            res.rows,
            vec![
                vec![Value::Str("a".into()), Value::Float(30.0), Value::Int(2)],
                vec![Value::Str("b".into()), Value::Float(5.0), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn avg_and_expression_over_aggregates() {
        let mut d = db();
        d.execute("insert into t values (1, 10.0, 'a'), (2, 30.0, 'a')")
            .unwrap();
        let res = d
            .query("select avg(v) as m, sum(v) / count(*) as m2 from t")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Float(20.0), Value::Float(20.0)]]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let d = db();
        let res = d.query("select count(*) as n, sum(v) as s from t").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let mut d = db();
        d.execute("insert into t values (1, 1.0, 'a'), (2, 2.0, 'b'), (3, 3.0, 'c')")
            .unwrap();
        let res = d.query("select k from t order by k desc limit 2").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    }

    #[test]
    fn transaction_rollback_restores_rows() {
        let mut d = db();
        d.execute("insert into t values (1, 1.0, 'a')").unwrap();
        d.execute("begin").unwrap();
        d.execute("insert into t values (2, 2.0, 'b')").unwrap();
        d.execute("delete from t where k = 1").unwrap();
        d.execute("rollback").unwrap();
        let res = d.query("select k from t order by k").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn transaction_commit_keeps_changes() {
        let mut d = db();
        d.execute("begin").unwrap();
        d.execute("insert into t values (1, 1.0, 'a')").unwrap();
        d.execute("commit").unwrap();
        assert_eq!(d.table("t").unwrap().row_count(), 1);
        assert!(!d.in_transaction());
    }

    #[test]
    fn nested_begin_rejected() {
        let mut d = db();
        d.execute("begin").unwrap();
        assert!(matches!(
            d.execute("begin"),
            Err(EngineError::Transaction(_))
        ));
    }

    #[test]
    fn set_enable_seqscan_roundtrip() {
        let d = db();
        assert!(d.seqscan_enabled());
        d.query("set enable_seqscan = off").unwrap();
        assert!(!d.seqscan_enabled());
        assert_eq!(d.setting("enable_seqscan").as_deref(), Some("off"));
        d.query("set enable_seqscan = on").unwrap();
        assert!(d.seqscan_enabled());
    }

    /// A malformed value for a setting the engine acts on is an error, not
    /// a silent default, and the previous value stays in force.
    #[test]
    fn malformed_setting_values_are_type_errors() {
        let d = db();
        for good in [
            "set enable_seqscan = off",
            "set enable_indexscan = no",
            "set enable_kernel = 0",
            "set parallel_workers = 3",
            "set statement_timeout_ms = 60000",
            "set mem_budget_bytes = 123456",
        ] {
            d.query(good).unwrap();
        }
        for bad in [
            "set enable_seqscan = banana",
            "set enable_indexscan = 2",
            "set enable_kernel = maybe",
            "set parallel_workers = two",
            "set statement_timeout_ms = abc",
            "set mem_budget_bytes = 1.5",
        ] {
            assert!(
                matches!(d.query(bad), Err(EngineError::TypeError(_))),
                "{bad}"
            );
        }
        assert!(!d.seqscan_enabled());
        assert!(!d.indexscan_enabled());
        assert!(!d.kernel_enabled());
        assert_eq!(d.parallel_workers(), 3);
        assert_eq!(
            d.settings.statement_timeout_ms.load(Ordering::Relaxed),
            60_000
        );
        assert_eq!(d.mem_gauge().limit_bytes(), 123_456);
        // The echo keeps the accepted spelling too.
        assert_eq!(d.setting("parallel_workers").as_deref(), Some("3"));
        assert_eq!(d.setting("enable_kernel").as_deref(), Some("0"));
    }

    /// A name the engine does not act on (a driver's own, or a knob this
    /// engine has retired) is accepted and echoed, whatever the value.
    #[test]
    fn unknown_settings_are_accepted_and_echoed() {
        let d = db();
        assert_eq!(d.setting("enable_retired_knob"), None);
        d.query("set enable_retired_knob = off").unwrap();
        d.query("set application_name = 'psql'").unwrap();
        assert_eq!(d.setting("enable_retired_knob").as_deref(), Some("off"));
        assert_eq!(d.setting("application_name").as_deref(), Some("psql"));
    }

    #[test]
    fn fork_starts_from_default_settings() {
        let d = db();
        let fresh = Database::in_memory();
        for set in [
            "set enable_seqscan = off",
            "set enable_indexscan = off",
            "set enable_kernel = off",
            "set parallel_workers = 7",
            "set statement_timeout_ms = 5",
            "set some_driver_knob = x",
        ] {
            d.query(set).unwrap();
        }
        let f = d.fork().unwrap();
        assert!(f.seqscan_enabled() && f.indexscan_enabled() && f.kernel_enabled());
        assert_eq!(f.parallel_workers(), fresh.parallel_workers());
        assert_eq!(f.settings.statement_timeout_ms.load(Ordering::Relaxed), 0);
        assert_eq!(f.setting("some_driver_knob"), None);
    }

    /// The machine's core count is asked for once per process, by whichever
    /// thread builds the first database, and never on a statement path:
    /// with `parallel_workers` unset, a thousand point reads (text and
    /// bound) leave the per-thread read count alone.
    #[test]
    fn statements_never_ask_the_os_for_the_core_count() {
        let mut d = db();
        for i in 0..64 {
            d.execute(&format!("insert into t values ({i}, {i}.5, 'x')"))
                .unwrap();
        }
        let before = CORE_COUNT_READS.with(|n| n.get());
        assert!(
            before <= 1,
            "at most the process's one read was this thread's"
        );
        for i in 0..500i64 {
            let k = i % 64;
            let text = d.query(&format!("select v from t where k = {k}")).unwrap();
            let bound = d
                .query_bound("select v from t where k = $1", &[Value::Int(k)])
                .unwrap();
            assert_eq!(text.rows, bound.rows);
            assert_eq!(text.rows, vec![vec![Value::Float(k as f64 + 0.5)]]);
        }
        // Nor does building the next database: the count is the process's.
        let _next = Database::in_memory();
        assert_eq!(CORE_COUNT_READS.with(|n| n.get()), before);
    }

    #[test]
    fn query_rejects_writes() {
        let d = db();
        assert!(d.query("insert into t values (1, 1.0, 'x')").is_err());
    }

    #[test]
    fn join_two_tables() {
        let mut d = db();
        d.execute("create table u (k int not null, w text, primary key (k))")
            .unwrap();
        d.execute("insert into t values (1, 1.0, 'a'), (2, 2.0, 'b')")
            .unwrap();
        d.execute("insert into u values (1, 'one'), (3, 'three')")
            .unwrap();
        let res = d.query("select t.k, w from t, u where t.k = u.k").unwrap();
        assert_eq!(
            res.rows,
            vec![vec![Value::Int(1), Value::Str("one".into())]]
        );
    }

    #[test]
    fn exists_subquery_correlated() {
        let mut d = db();
        d.execute("create table u (k int not null, w text, primary key (k))")
            .unwrap();
        d.execute("insert into t values (1, 1.0, 'a'), (2, 2.0, 'b')")
            .unwrap();
        d.execute("insert into u values (2, 'two')").unwrap();
        let res = d
            .query("select k from t where exists (select 1 from u where u.k = t.k)")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(2)]]);
        let res = d
            .query("select k from t where not exists (select 1 from u where u.k = t.k) order by k")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn in_subquery() {
        let mut d = db();
        d.execute("create table u (k int not null, w text, primary key (k))")
            .unwrap();
        d.execute("insert into t values (1, 1.0, 'a'), (2, 2.0, 'b')")
            .unwrap();
        d.execute("insert into u values (2, 'two')").unwrap();
        let res = d
            .query("select k from t where k in (select k from u)")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn scalar_subquery() {
        let mut d = db();
        d.execute("insert into t values (1, 1.0, 'a'), (5, 2.0, 'b')")
            .unwrap();
        let res = d
            .query("select k from t where k = (select max(k) from t)")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn case_expression_aggregation() {
        let mut d = db();
        d.execute("insert into t values (1, 10.0, 'a'), (2, 20.0, 'b'), (3, 30.0, 'a')")
            .unwrap();
        let res = d
            .query("select sum(case when s = 'a' then v else 0.0 end) as a_total from t")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Float(40.0)]]);
    }

    #[test]
    fn distinct_dedups() {
        let mut d = db();
        d.execute("insert into t values (1, 1.0, 'a'), (2, 2.0, 'a')")
            .unwrap();
        let res = d.query("select distinct s from t").unwrap();
        assert_eq!(res.rows.len(), 1);
    }

    #[test]
    fn stats_track_pages_and_rows() {
        let mut d = Database::new(1_000);
        d.execute("create table t (k int not null, v float, primary key (k))")
            .unwrap();
        for i in 0..100 {
            d.execute(&format!("insert into t values ({i}, {i}.0)"))
                .unwrap();
        }
        let out = d.query("select sum(v) from t").unwrap();
        assert_eq!(out.stats.rows_scanned, 100);
        assert!(out.stats.buffer.accesses() > 0);
        assert_eq!(out.stats.rows_out, 1);
    }

    #[test]
    fn derived_table_in_from() {
        let mut d = db();
        d.execute("insert into t values (1, 1.0, 'a'), (2, 2.0, 'b')")
            .unwrap();
        let res = d
            .query("select x from (select k as x from t) sub where x > 1")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn having_filters_groups() {
        let mut d = db();
        d.execute("insert into t values (1, 10.0, 'a'), (2, 20.0, 'a'), (3, 5.0, 'b')")
            .unwrap();
        let res = d
            .query("select s, count(*) as n from t group by s having count(*) > 1")
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Str("a".into()), Value::Int(2)]]);
    }

    #[test]
    fn date_predicates() {
        let mut d = Database::in_memory();
        d.execute("create table e (d date, x int)").unwrap();
        d.execute("insert into e values (date '1994-06-01', 1), (date '1995-06-01', 2)")
            .unwrap();
        let res = d
            .query(
                "select x from e where d >= date '1994-01-01' \
                 and d < date '1994-01-01' + interval '1' year",
            )
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(1)]]);
    }
}

#[cfg(test)]
mod prepared_tests {
    use super::*;

    fn lineitem_db(n: i64) -> Database {
        let mut d = Database::new(1_000);
        d.execute(
            "create table lineitem (l_orderkey int not null, l_quantity float, \
             l_returnflag text, primary key (l_orderkey)) clustered by (l_orderkey)",
        )
        .unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float((i % 7) as f64 + 0.25),
                    Value::Str(if i % 3 == 0 { "A" } else { "R" }.into()),
                ]
            })
            .collect();
        d.load_table("lineitem", rows).unwrap();
        d
    }

    /// TPC-H Q1-shaped scan→filter→aggregate over a `$1 ≤ key < $2` range —
    /// the SVP sub-query shape the kernel exists for.
    const Q1ISH: &str = "select l_returnflag, sum(l_quantity) as s, avg(l_quantity) as a, \
         count(*) as n from lineitem where l_orderkey >= $1 and l_orderkey < $2 \
         group by l_returnflag order by l_returnflag";

    fn rendered(lo: i64, hi: i64) -> String {
        Q1ISH
            .replace("$1", &lo.to_string())
            .replace("$2", &hi.to_string())
    }

    #[test]
    fn prepare_reports_parameter_count() {
        let d = lineitem_db(10);
        assert_eq!(d.prepare(Q1ISH).unwrap(), 2);
        assert_eq!(d.prepare("select count(*) as n from lineitem").unwrap(), 0);
        // Non-SELECTs are accepted and take no parameters.
        assert_eq!(d.prepare("set enable_seqscan = on").unwrap(), 0);
    }

    #[test]
    fn bound_execution_matches_text_byte_for_byte() {
        let d = lineitem_db(3_000);
        let bound = d
            .query_bound(Q1ISH, &[Value::Int(100), Value::Int(2_500)])
            .unwrap();
        let text = d.query(&rendered(100, 2_500)).unwrap();
        assert_eq!(bound.columns, text.columns);
        assert_eq!(bound.rows, text.rows);
        // Identical work accounting, not just identical answers.
        assert_eq!(bound.stats.rows_scanned, text.stats.rows_scanned);
        assert_eq!(bound.stats.cpu_tuple_ops, text.stats.cpu_tuple_ops);
        assert_eq!(bound.stats.index_probes, text.stats.index_probes);
        assert_eq!(bound.stats.rows_out, text.stats.rows_out);
        assert_eq!(bound.stats.bytes_out, text.stats.bytes_out);
        assert_eq!(bound.stats.buffer.accesses(), text.stats.buffer.accesses());
    }

    #[test]
    fn kernel_and_interpreted_agree_exactly() {
        let d = lineitem_db(3_000);
        let params = [Value::Int(10), Value::Int(2_900)];
        assert!(d.kernel_enabled());
        let on = d.query_bound(Q1ISH, &params).unwrap();
        d.query("set enable_kernel = off").unwrap();
        assert!(!d.kernel_enabled());
        let off = d.query_bound(Q1ISH, &params).unwrap();
        assert_eq!(on.columns, off.columns);
        assert_eq!(on.rows, off.rows);
        assert_eq!(on.stats.rows_scanned, off.stats.rows_scanned);
        assert_eq!(on.stats.cpu_tuple_ops, off.stats.cpu_tuple_ops);
        assert_eq!(on.stats.index_probes, off.stats.index_probes);
        assert_eq!(on.stats.bytes_out, off.stats.bytes_out);
        assert_eq!(on.stats.buffer.accesses(), off.stats.buffer.accesses());
    }

    #[test]
    fn general_shapes_lower_to_the_operator_pipeline() {
        let mut d = lineitem_db(100);
        d.execute("create table seen (k int not null, primary key (k))")
            .unwrap();
        d.execute("insert into seen values (3), (4)").unwrap();
        // Non-aggregated, DISTINCT, and subquery-bearing statements don't
        // match the fusion rule; they lower to the general operator tree
        // and agree with the text path.
        for (sql, args, text) in [
            (
                "select l_orderkey from lineitem where l_orderkey = $1",
                vec![Value::Int(7)],
                "select l_orderkey from lineitem where l_orderkey = 7".to_string(),
            ),
            (
                "select distinct l_returnflag from lineitem order by l_returnflag",
                vec![],
                "select distinct l_returnflag from lineitem order by l_returnflag".to_string(),
            ),
            (
                "select count(*) as n from lineitem where l_orderkey in (select k from seen)",
                vec![],
                "select count(*) as n from lineitem where l_orderkey in (select k from seen)"
                    .to_string(),
            ),
        ] {
            let bound = d.query_bound(sql, &args).unwrap();
            let plain = d.query(&text).unwrap();
            assert_eq!(bound.rows, plain.rows, "{sql}");
        }
    }

    /// Toggling `enable_kernel` must never serve a plan compiled under the
    /// other setting: the fingerprint keys on the knob, so each setting has
    /// its own coexisting cache entry.
    #[test]
    fn kernel_toggle_never_reuses_the_other_settings_plan() {
        let d = lineitem_db(500);
        let params = [Value::Int(0), Value::Int(400)];
        d.query_bound(Q1ISH, &params).unwrap();
        d.query_bound(Q1ISH, &params).unwrap();
        let s = d.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (1, 1), "{s:?}");
        // Flipping the knob compiles a fresh plan under the new setting...
        d.query("set enable_kernel = off").unwrap();
        d.query_bound(Q1ISH, &params).unwrap();
        let s = d.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (2, 1), "{s:?}");
        // ...and flipping back hits the original entry — both coexist.
        d.query("set enable_kernel = on").unwrap();
        d.query_bound(Q1ISH, &params).unwrap();
        let s = d.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (2, 2), "{s:?}");
        assert_eq!(s.invalidations + s.replans + s.evictions, 0);
    }

    /// `enable_seqscan` steers the access path per execution and nothing
    /// that is lowered: one cached plan serves both settings and the
    /// per-request hint, the rows are the same, and the path still follows
    /// whichever of the two is in force for that execution.
    #[test]
    fn seqscan_setting_and_hint_share_one_plan_and_steer_each_execution() {
        let d = lineitem_db(500);
        let params = [Value::Int(0), Value::Int(400)];
        // What the access path decides (pool residency aside).
        let work = |s: &ExecStats| {
            let pages = s.buffer.accesses();
            (s.rows_scanned, s.cpu_tuple_ops, s.index_probes, pages)
        };
        let baseline = d.query_bound(Q1ISH, &params).unwrap();
        assert_eq!(baseline.stats.rows_scanned, 500);
        assert_eq!(baseline.stats.cpu_tuple_ops, 1402);
        d.query("set enable_seqscan = off").unwrap();
        let no_seq = d.query_bound(Q1ISH, &params).unwrap();
        assert_eq!(no_seq.rows, baseline.rows);
        assert_eq!(no_seq.stats.rows_scanned, 400, "the index range");
        assert_ne!(work(&no_seq.stats), work(&baseline.stats));
        d.query("set enable_seqscan = on").unwrap();
        let back_on = d.query_bound(Q1ISH, &params).unwrap();
        assert_eq!(work(&back_on.stats), work(&baseline.stats));
        // The hint is the setting for one statement: same path, session
        // untouched, text or bound.
        let hinted = ReadRequest::bound(Q1ISH, &params).avoiding_seqscan(true);
        assert_eq!(work(&d.read(&hinted).unwrap().stats), work(&no_seq.stats));
        let text = rendered(0, 400);
        let hinted_text = ReadRequest::text(&text).avoiding_seqscan(true);
        assert_eq!(
            work(&d.read(&hinted_text).unwrap().stats),
            work(&no_seq.stats)
        );
        assert!(d.seqscan_enabled());
        // The text read lowered its lifted form, a key of its own.
        let s = d.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (2, 3), "{s:?}");
        assert_eq!(s.invalidations + s.replans + s.evictions, 0);
    }

    #[test]
    fn repeated_bound_runs_hit_the_plan_cache() {
        let d = lineitem_db(500);
        d.prepare(Q1ISH).unwrap();
        for i in 0..5 {
            d.query_bound(Q1ISH, &[Value::Int(0), Value::Int(100 + i)])
                .unwrap();
        }
        let s = d.plan_cache_stats();
        assert_eq!(s.misses, 1, "parsed and planned once: {s:?}");
        assert_eq!(s.hits, 5);
        assert_eq!(s.invalidations + s.replans + s.evictions, 0);
    }

    #[test]
    fn ddl_invalidates_cached_plans() {
        let mut d = lineitem_db(500);
        d.prepare(Q1ISH).unwrap();
        d.query_bound(Q1ISH, &[Value::Int(0), Value::Int(10)])
            .unwrap();
        d.execute("create index li_qty on lineitem (l_quantity)")
            .unwrap();
        // The cached plan predates the index: it must be discarded, and the
        // recompiled one must still answer identically to the text path.
        let out = d
            .query_bound(Q1ISH, &[Value::Int(0), Value::Int(10)])
            .unwrap();
        let s = d.plan_cache_stats();
        assert_eq!(s.invalidations, 1, "{s:?}");
        assert_eq!(out.rows, d.query(&rendered(0, 10)).unwrap().rows);
    }

    #[test]
    fn table_growth_forces_replan() {
        let mut d = lineitem_db(500);
        d.prepare(Q1ISH).unwrap();
        d.execute("insert into lineitem values (9000, 1.0, 'A')")
            .unwrap();
        d.query_bound(Q1ISH, &[Value::Int(0), Value::Int(10000)])
            .unwrap();
        assert_eq!(d.plan_cache_stats().replans, 1);
    }

    #[test]
    fn parameter_arity_is_checked() {
        let d = lineitem_db(10);
        assert!(matches!(
            d.query_bound(Q1ISH, &[Value::Int(1)]),
            Err(EngineError::TypeError(_))
        ));
        assert!(d
            .query_bound("set enable_kernel = off", &[Value::Int(1)])
            .is_err());
        // SET without parameters flows through query_bound fine.
        d.query_bound("set enable_kernel = off", &[]).unwrap();
    }

    #[test]
    fn fork_starts_with_an_empty_plan_cache() {
        let d = lineitem_db(50);
        d.prepare(Q1ISH).unwrap();
        let f = d.fork().unwrap();
        f.query_bound(Q1ISH, &[Value::Int(0), Value::Int(10)])
            .unwrap();
        assert_eq!(f.plan_cache_stats().misses, 1);
        assert_eq!(f.plan_cache_stats().hits, 0);
    }
}

#[cfg(test)]
mod lifted_tests {
    use super::*;

    fn customer_db(n: i64) -> Database {
        let mut d = Database::in_memory();
        d.execute(
            "create table customer (c_custkey int not null, c_nationkey int, \
             c_acctbal float, primary key (c_custkey)) clustered by (c_custkey)",
        )
        .unwrap();
        let rows: Vec<Row> = (1..=n)
            .map(|k| {
                vec![
                    Value::Int(k),
                    Value::Int(k % 25),
                    Value::Float(k as f64 * 0.5),
                ]
            })
            .collect();
        d.load_table("customer", rows).unwrap();
        d
    }

    fn point_read(k: i64) -> String {
        format!("select c_custkey, c_nationkey, c_acctbal from customer where c_custkey = {k}")
    }

    /// Point reads of distinct keys share one lifted entry: the first
    /// lowers it, every later one hits, and each still probes the index
    /// for its own key.
    #[test]
    fn distinct_key_point_reads_share_one_lifted_plan() {
        let d = customer_db(2_000);
        for k in 1..=200 {
            let out = d.query(&point_read(k * 7)).unwrap();
            let want = vec![
                Value::Int(k * 7),
                Value::Int(k * 7 % 25),
                Value::Float(k as f64 * 3.5),
            ];
            assert_eq!(out.rows, vec![want]);
            assert_eq!(
                out.stats.rows_scanned, 1,
                "the key's index probe, not a scan"
            );
        }
        let s = d.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (1, 199), "{s:?}");
        // The bound form of the same statement is a text of its own: the
        // client chose its placeholders, and the key is its exact text.
        d.query_bound(
            "select c_custkey, c_nationkey, c_acctbal from customer where c_custkey = $1",
            &[Value::Int(3)],
        )
        .unwrap();
        assert_eq!(d.plan_cache_stats().misses, 2);
    }

    #[test]
    fn create_index_evicts_a_lifted_entry() {
        let mut d = customer_db(2_000);
        let by_nation =
            |n: i64| format!("select count(*) as n from customer where c_nationkey = {n}");
        let before = d.query(&by_nation(3)).unwrap();
        d.query(&by_nation(4)).unwrap();
        assert_eq!(d.plan_cache_stats().hits, 1);
        d.execute("create index c_nation on customer (c_nationkey)")
            .unwrap();
        let after = d.query(&by_nation(3)).unwrap();
        let s = d.plan_cache_stats();
        assert_eq!((s.invalidations, s.misses, s.hits), (1, 2, 1), "{s:?}");
        assert_eq!(after.rows, before.rows);
        assert_eq!(
            after.stats.index_probes, 1,
            "the replanned read uses the index"
        );
        assert_eq!(before.stats.index_probes, 0);
    }

    #[test]
    fn growing_customer_forces_a_replan() {
        let mut d = customer_db(2_000);
        d.query(&point_read(5)).unwrap();
        d.execute("insert into customer values (2001, 1, 0.5)")
            .unwrap();
        let out = d.query(&point_read(2_001)).unwrap();
        assert_eq!(out.rows.len(), 1);
        let s = d.plan_cache_stats();
        assert_eq!((s.replans, s.misses, s.hits), (1, 2, 0), "{s:?}");
        d.query(&point_read(6)).unwrap();
        assert_eq!(
            d.plan_cache_stats().hits,
            1,
            "the replanned entry serves again"
        );
    }

    #[test]
    fn fork_starts_without_lifted_entries() {
        let d = customer_db(100);
        d.query(&point_read(5)).unwrap();
        d.query(&point_read(6)).unwrap();
        let f = d.fork().unwrap();
        assert_eq!(f.plan_cache_stats(), PlanCacheStats::default());
        f.query(&point_read(7)).unwrap();
        let s = f.plan_cache_stats();
        assert_eq!((s.misses, s.hits), (1, 0), "{s:?}");
    }

    /// Text that already carries placeholders lifts nothing and keeps its
    /// unbound-parameter error: reading it with no values fails on the
    /// first row that needs one, as the unlifted statement does.
    #[test]
    fn text_with_its_own_placeholders_is_not_renumbered() {
        let mut d = customer_db(10);
        let sql = "select c_custkey from customer where c_custkey = $1 and c_nationkey = 3";
        let lifted = d.query(sql).map_err(|e| std::mem::discriminant(&e));
        let unlifted = d.execute(sql).map_err(|e| std::mem::discriminant(&e));
        assert!(matches!(d.query(sql), Err(EngineError::TypeError(_))));
        assert_eq!(lifted.map(|o| o.rows), unlifted.map(|o| o.rows));
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    fn db() -> Database {
        let mut d = Database::new(100);
        d.execute(
            "create table orders (o_orderkey int not null, o_totalprice float, \
             primary key (o_orderkey)) clustered by (o_orderkey)",
        )
        .unwrap();
        d.execute(
            "create table lineitem (l_orderkey int not null, l_qty float, \
             primary key (l_orderkey)) clustered by (l_orderkey)",
        )
        .unwrap();
        // Big enough that index ranges beat the (few-page) seq scan.
        let orders: Vec<Vec<Value>> = (1..=5_000i64)
            .map(|k| vec![Value::Int(k), Value::Float(k as f64)])
            .collect();
        let lineitem: Vec<Vec<Value>> = (1..=5_000i64)
            .map(|k| vec![Value::Int(k), Value::Float(1.0)])
            .collect();
        d.load_table("orders", orders).unwrap();
        d.load_table("lineitem", lineitem).unwrap();
        d
    }

    fn plan_text(d: &Database, sql: &str) -> String {
        let out = d.query(sql).unwrap();
        assert_eq!(out.columns, vec!["plan"]);
        out.rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn explain_shows_index_range_for_keyed_predicate() {
        let d = db();
        let plan = plan_text(
            &d,
            "explain select o_totalprice from orders where o_orderkey >= 10 and o_orderkey < 20",
        );
        assert!(
            plan.contains("clustered index range on o_orderkey"),
            "{plan}"
        );
        assert!(plan.contains("[10= .. 20)"), "{plan}");
    }

    #[test]
    fn explain_shows_seq_scan_without_predicates() {
        let d = db();
        let plan = plan_text(&d, "explain select o_totalprice from orders");
        assert!(plan.contains("seq scan"), "{plan}");
    }

    #[test]
    fn explain_respects_enable_seqscan() {
        let d = db();
        d.query("set enable_seqscan = off").unwrap();
        let plan = plan_text(&d, "explain select o_totalprice from orders");
        assert!(plan.contains("index range"), "{plan}");
        d.query("set enable_seqscan = on").unwrap();
    }

    #[test]
    fn explain_shows_join_order_and_aggregate() {
        let d = db();
        let plan = plan_text(
            &d,
            "explain select count(*) as n from orders, lineitem \
             where l_orderkey = o_orderkey group by o_totalprice order by o_totalprice limit 5",
        );
        assert!(plan.contains("drive with"), "{plan}");
        assert!(plan.contains("hash join"), "{plan}");
        assert!(plan.contains("hash group by o_totalprice"), "{plan}");
        assert!(plan.contains("sort: 1 key(s)"), "{plan}");
        assert!(plan.contains("limit 5"), "{plan}");
    }

    /// The fused kernel is a lowering rewrite, so EXPLAIN shows it as a
    /// fusion annotation on the aggregate — present exactly when the knob
    /// is on and the shape matches the rule.
    #[test]
    fn explain_marks_the_fusion_rewrite_only_when_enabled() {
        let d = db();
        let sql = "explain select count(*) as n from lineitem \
                   where l_orderkey >= 10 and l_orderkey < 500";
        let plan_on = plan_text(&d, sql);
        assert!(
            plan_on.contains("[fused scan→filter→aggregate]"),
            "{plan_on}"
        );
        d.query("set enable_kernel = off").unwrap();
        let plan_off = plan_text(&d, sql);
        assert!(
            !plan_off.contains("[fused scan→filter→aggregate]"),
            "{plan_off}"
        );
        d.query("set enable_kernel = on").unwrap();
        // Shapes outside the fusion rule never carry the marker.
        let join = plan_text(
            &d,
            "explain select count(*) as n from orders, lineitem \
             where l_orderkey = o_orderkey",
        );
        assert!(!join.contains("fused"), "{join}");
    }

    #[test]
    fn explain_does_not_execute() {
        let d = db();
        let before = d.pool_stats();
        d.query("explain select count(*) as n from lineitem")
            .unwrap();
        let after = d.pool_stats();
        // Planning touches no heap pages.
        assert_eq!(before, after);
    }

    #[test]
    fn explain_non_select_rejected() {
        let mut d = db();
        assert!(d
            .execute("explain insert into orders values (999999, 1.0)")
            .is_err());
    }

    #[test]
    fn explain_roundtrips_through_display() {
        let stmt = apuama_sql::parse_statement("explain select 1").unwrap();
        assert!(stmt.is_explain());
        assert_eq!(stmt.to_string(), "explain select 1");
    }

    #[test]
    fn explain_analyze_roundtrips_through_display() {
        let stmt = apuama_sql::parse_statement("explain analyze select 1").unwrap();
        assert!(stmt.is_explain());
        assert_eq!(stmt.to_string(), "explain analyze select 1");
    }

    /// `EXPLAIN ANALYZE` actually runs the query (in contrast to plain
    /// EXPLAIN, covered by `explain_does_not_execute`) and reports actual
    /// per-operator row counts plus a timing footer.
    #[test]
    fn explain_analyze_executes_and_reports_actual_rows() {
        let d = db();
        let before = d.pool_stats();
        let plan = plan_text(
            &d,
            "explain analyze select o_totalprice from orders \
             where o_orderkey >= 10 and o_orderkey < 20 order by o_totalprice",
        );
        let after = d.pool_stats();
        assert_ne!(before, after, "EXPLAIN ANALYZE must touch the heap");
        assert!(plan.contains("scan orders"), "{plan}");
        // 10 rows survive the range; the root (sort) reports them.
        assert!(plan.contains("sort (1 key(s)) (actual rows=10"), "{plan}");
        assert!(plan.contains("execution time:"), "{plan}");
        assert!(plan.contains("self_ms="), "{plan}");
    }

    /// The per-operator counters in EXPLAIN ANALYZE match what the plain
    /// query returns.
    #[test]
    fn explain_analyze_root_rows_match_query_output() {
        let d = db();
        let sql = "select o_totalprice, count(*) as n from orders, lineitem \
                   where l_orderkey = o_orderkey and o_orderkey < 50 \
                   group by o_totalprice order by o_totalprice";
        let expected = d.query(sql).unwrap().rows.len();
        let plan = plan_text(&d, &format!("explain analyze {sql}"));
        let root = plan.lines().next().unwrap();
        assert!(root.contains(&format!("actual rows={expected}")), "{plan}");
        assert!(plan.contains("hash join block"), "{plan}");
    }
}

#[cfg(test)]
mod vacuum_integration_tests {
    use super::*;

    #[test]
    fn autocommit_deletes_trigger_auto_vacuum() {
        let mut d = Database::in_memory();
        d.execute("create table t (k int not null, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Row> = (0..1_000i64).map(|i| vec![Value::Int(i)]).collect();
        d.load_table("t", rows).unwrap();
        let pages_before = d.table("t").unwrap().pages();
        d.execute("delete from t where k < 600").unwrap();
        // 60% tombstones → auto-vacuum kicked in.
        assert_eq!(d.table("t").unwrap().tombstone_ratio(), 0.0);
        assert!(d.table("t").unwrap().pages() < pages_before);
        // Data still answers correctly through the rebuilt index.
        let out = d
            .query("select count(*) as n from t where k >= 800 and k < 900")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(100));
    }

    fn db() -> Database {
        let mut d = Database::in_memory();
        d.execute(
            "create table t (k int not null, v float, s text, primary key (k)) clustered by (k)",
        )
        .unwrap();
        d
    }

    #[test]
    fn fork_clones_contents_in_heap_order_with_a_cold_pool() {
        let mut d = db();
        d.execute("insert into t values (2, 0.25, 'b'), (1, 1.125, 'a'), (3, 0.5, 'c')")
            .unwrap();
        d.query("select sum(v) as s from t").unwrap(); // warm the pool
        let f = d.fork().unwrap();
        // Same rows, same heap order, same float bits.
        let want = d.query("select k, v, s from t").unwrap();
        let got = f.query("select k, v, s from t").unwrap();
        assert_eq!(got.rows, want.rows);
        assert_eq!(f.pool_capacity(), d.pool_capacity());
        assert_eq!(f.pool_stats().hits, 0, "the clone starts cold");
        // Independent copies: a write to the source does not leak over.
        d.execute("insert into t values (4, 0.0, 'd')").unwrap();
        assert_eq!(f.table("t").unwrap().row_count(), 3);
    }

    #[test]
    fn fork_refuses_an_open_transaction() {
        let mut d = db();
        d.execute("begin").unwrap();
        d.execute("insert into t values (1, 0.0, 'a')").unwrap();
        assert!(d.fork().is_err());
        d.execute("commit").unwrap();
        assert!(d.fork().is_ok());
    }

    #[test]
    fn transactional_deletes_do_not_vacuum_and_rollback_restores() {
        let mut d = Database::in_memory();
        d.execute("create table t (k int not null, primary key (k)) clustered by (k)")
            .unwrap();
        let rows: Vec<Row> = (0..500i64).map(|i| vec![Value::Int(i)]).collect();
        d.load_table("t", rows).unwrap();
        d.execute("begin").unwrap();
        d.execute("delete from t where k < 400").unwrap();
        // No vacuum inside the transaction: the undo log must stay valid.
        assert!(d.table("t").unwrap().tombstone_ratio() > 0.5);
        d.execute("rollback").unwrap();
        assert_eq!(d.table("t").unwrap().row_count(), 500);
        let out = d
            .query("select count(*) as n from t where k < 400")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(400));
    }
}
