//! Engine error type.

use apuama_sql::ParseError;

/// Anything that can go wrong executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// SQL text failed to parse.
    Parse(ParseError),
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column does not resolve (or is ambiguous).
    UnknownColumn(String),
    /// Column reference matches more than one table in scope.
    AmbiguousColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Type error during evaluation (e.g. `'abc' + 1`).
    TypeError(String),
    /// Statement shape the engine does not support.
    Unsupported(String),
    /// Transaction misuse (nested BEGIN, COMMIT without BEGIN, ...).
    Transaction(String),
    /// Constraint violation (NOT NULL, arity mismatch on INSERT, ...).
    Constraint(String),
    /// A statement exceeded its deadline (statement- or query-level
    /// deadline via [`crate::QueryGovernor`], or the per-sub-query timeout
    /// in the cluster layer).
    Timeout(String),
    /// The statement was cooperatively cancelled via a
    /// [`crate::CancelToken`]; observed within one scan batch.
    Cancelled(String),
    /// A resource budget was exceeded (memory gauge over its limit, or an
    /// admission queue shedding load). The statement failed cleanly and
    /// the engine remains usable.
    ResourceExhausted(String),
    /// The backend did not serve the request: it is down, unreachable, or
    /// failed on its own account. The one statement error that is a
    /// node's fault — the cluster retries, requeues and counts it against
    /// the node; every other error is the statement's own.
    Unavailable(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            EngineError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            EngineError::AmbiguousColumn(c) => write!(f, "ambiguous column '{c}'"),
            EngineError::TableExists(t) => write!(f, "table '{t}' already exists"),
            EngineError::TypeError(m) => write!(f, "type error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Transaction(m) => write!(f, "transaction error: {m}"),
            EngineError::Constraint(m) => write!(f, "constraint violation: {m}"),
            EngineError::Timeout(m) => write!(f, "timeout: {m}"),
            EngineError::Cancelled(m) => write!(f, "cancelled: {m}"),
            EngineError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            EngineError::Unavailable(m) => write!(f, "unavailable: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;
