//! Query lifecycle governance: cooperative cancellation, deadlines, and
//! memory budgets.
//!
//! The engine never preempts a statement; instead every operator checks a
//! [`QueryGovernor`] at batch boundaries ([`crate::SCAN_BATCH_ROWS`] rows),
//! so a cancelled or expired statement stops within one batch of work and
//! unwinds through ordinary `Result` propagation — buffer-pool state and
//! a query's composer are released by the same drop paths an error takes.
//! Memory used by pipeline breakers (hash join build sides, aggregation
//! tables, sorts, distinct sets) is charged to a [`MemoryGauge`] at the
//! same batch grain; exceeding the node's budget fails the statement with
//! [`EngineError::ResourceExhausted`] instead of letting state grow
//! without bound.
//!
//! See DESIGN.md §11 "Resource governance" for the deadline hierarchy
//! (statement < SVP query < admission queue) and shed policy.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{EngineError, EngineResult};

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TokenInner {
    flag: AtomicBool,
    /// Deterministic trip wire for tests: when >= 0, each observation
    /// decrements it and the token fires once it reaches zero. `-1` means
    /// disabled. This lets a test cancel "at the k-th batch boundary"
    /// without racing a second thread.
    fuse: AtomicI64,
}

/// Cooperative cancellation handle. Cloning shares the same flag;
/// [`CancelToken::child`] creates a linked token that observes the parent
/// (cancelling a parent cancels every descendant, but cancelling a child —
/// e.g. one abandoned sub-query attempt — leaves siblings running).
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
    parent: Option<Box<CancelToken>>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                fuse: AtomicI64::new(-1),
            }),
            parent: None,
        }
    }

    /// A fresh token linked under `self`: it fires when either it or any
    /// ancestor is cancelled.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                fuse: AtomicI64::new(-1),
            }),
            parent: Some(Box::new(self.clone())),
        }
    }

    /// Requests cancellation; the statement observes it at its next batch
    /// boundary.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Arms the deterministic fuse: the token fires on the `n`-th
    /// observation (n = 0 fires on the first check). Test support for
    /// pinning a cancel to an exact batch boundary.
    pub fn cancel_after_checks(&self, n: u64) {
        self.inner.fuse.store(n as i64, Ordering::Release);
    }

    /// Non-mutating read of the flag (does not burn the fuse).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match &self.parent {
            Some(p) => p.is_cancelled(),
            None => false,
        }
    }

    /// One cancellation-point observation: burns the fuse (if armed) and
    /// reports whether the token has fired.
    fn observe(&self) -> bool {
        if self.inner.fuse.load(Ordering::Relaxed) >= 0
            && self.inner.fuse.fetch_sub(1, Ordering::AcqRel) <= 0
        {
            self.inner.flag.store(true, Ordering::Release);
        }
        self.is_cancelled()
    }
}

// ---------------------------------------------------------------------------
// MemoryGauge
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct GaugeInner {
    used: AtomicU64,
    peak: AtomicU64,
    /// Budget in bytes; 0 means unlimited.
    limit: AtomicU64,
}

/// Node-level memory accounting for pipeline-breaker state. Shared by
/// every statement on a [`crate::Database`]; statements charge growth at
/// batch grain and release their total on completion (success, error, or
/// cancel — the release rides the [`crate::exec::ExecContext`] drop).
#[derive(Debug, Clone)]
pub struct MemoryGauge {
    inner: Arc<GaugeInner>,
}

impl Default for MemoryGauge {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl MemoryGauge {
    /// Gauge with no budget: accounting only (`peak_bytes` still tracks).
    pub fn unlimited() -> Self {
        Self::with_limit(0)
    }

    /// Gauge that fails charges once usage exceeds `limit_bytes`
    /// (0 = unlimited).
    pub fn with_limit(limit_bytes: u64) -> Self {
        MemoryGauge {
            inner: Arc::new(GaugeInner {
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                limit: AtomicU64::new(limit_bytes),
            }),
        }
    }

    /// Replaces the budget (0 = unlimited). Takes effect on the next
    /// charge.
    pub fn set_limit(&self, limit_bytes: u64) {
        self.inner.limit.store(limit_bytes, Ordering::Release);
    }

    pub fn limit_bytes(&self) -> u64 {
        self.inner.limit.load(Ordering::Acquire)
    }

    /// Bytes currently charged across all in-flight statements.
    pub fn used_bytes(&self) -> u64 {
        self.inner.used.load(Ordering::Acquire)
    }

    /// High-water mark since creation.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.peak.load(Ordering::Acquire)
    }

    /// Charges `bytes` of operator-state growth. On budget overflow the
    /// charge is rolled back and the statement gets
    /// [`EngineError::ResourceExhausted`].
    pub fn charge(&self, bytes: u64) -> EngineResult<()> {
        let used = self.inner.used.fetch_add(bytes, Ordering::AcqRel) + bytes;
        let limit = self.inner.limit.load(Ordering::Acquire);
        if limit != 0 && used > limit {
            self.inner.used.fetch_sub(bytes, Ordering::AcqRel);
            return Err(EngineError::ResourceExhausted(format!(
                "memory budget exceeded: {used} of {limit} bytes"
            )));
        }
        self.inner.peak.fetch_max(used, Ordering::AcqRel);
        Ok(())
    }

    /// Returns `bytes` previously charged.
    pub fn release(&self, bytes: u64) {
        self.inner.used.fetch_sub(bytes, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------------
// QueryGovernor
// ---------------------------------------------------------------------------

/// Per-statement governance handle: a [`CancelToken`] plus an optional
/// wall-clock deadline. Cheap to clone and to check; the engine consults
/// it once per batch.
#[derive(Debug, Clone, Default)]
pub struct QueryGovernor {
    cancel: CancelToken,
    deadline: Option<Instant>,
}

impl QueryGovernor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Governor around an existing token (e.g. one shared by all
    /// sub-queries of an SVP query).
    pub fn with_token(cancel: CancelToken) -> Self {
        QueryGovernor {
            cancel,
            deadline: None,
        }
    }

    /// Absolute deadline; checks fail with [`EngineError::Timeout`] once
    /// passed. When a deadline is already set the earlier one wins.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Relative deadline from now.
    pub fn with_deadline_in(self, budget: Duration) -> Self {
        self.with_deadline_at(Instant::now() + budget)
    }

    /// A governor whose token is a child of this one's (same deadline):
    /// cancelling the child does not fire the parent, but cancelling the
    /// parent fires the child.
    pub fn child(&self) -> QueryGovernor {
        QueryGovernor {
            cancel: self.cancel.child(),
            deadline: self.deadline,
        }
    }

    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// One cancellation point: fails with [`EngineError::Cancelled`] if the
    /// token fired, or [`EngineError::Timeout`] if the deadline passed.
    pub fn check(&self) -> EngineResult<()> {
        if self.cancel.observe() {
            return Err(EngineError::Cancelled("query cancelled".into()));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(EngineError::Timeout("statement deadline exceeded".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_fires_once_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        let g = QueryGovernor::with_token(t);
        assert!(matches!(g.check(), Err(EngineError::Cancelled(_))));
    }

    #[test]
    fn child_token_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        let parent2 = CancelToken::new();
        let child2 = parent2.child();
        parent2.cancel();
        assert!(child2.is_cancelled());
    }

    #[test]
    fn fuse_trips_on_nth_observation() {
        let t = CancelToken::new();
        t.cancel_after_checks(2);
        let g = QueryGovernor::with_token(t);
        assert!(g.check().is_ok());
        assert!(g.check().is_ok());
        assert!(matches!(g.check(), Err(EngineError::Cancelled(_))));
        // Stays cancelled.
        assert!(g.check().is_err());
    }

    #[test]
    fn deadline_in_past_fails_with_timeout() {
        let g = QueryGovernor::new().with_deadline_in(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(g.check(), Err(EngineError::Timeout(_))));
    }

    #[test]
    fn earlier_deadline_wins() {
        let far = Instant::now() + Duration::from_secs(600);
        let near = Instant::now() + Duration::from_millis(1);
        let g = QueryGovernor::new()
            .with_deadline_at(far)
            .with_deadline_at(near);
        assert_eq!(g.deadline(), Some(near));
        let g2 = QueryGovernor::new()
            .with_deadline_at(near)
            .with_deadline_at(far);
        assert_eq!(g2.deadline(), Some(near));
    }

    #[test]
    fn gauge_tracks_used_peak_and_enforces_limit() {
        let g = MemoryGauge::with_limit(100);
        g.charge(60).unwrap();
        g.charge(30).unwrap();
        assert_eq!(g.used_bytes(), 90);
        assert_eq!(g.peak_bytes(), 90);
        let err = g.charge(20).unwrap_err();
        assert!(matches!(err, EngineError::ResourceExhausted(_)));
        // Failed charge rolled back.
        assert_eq!(g.used_bytes(), 90);
        g.release(90);
        assert_eq!(g.used_bytes(), 0);
        assert_eq!(g.peak_bytes(), 90);
        // Unlimited gauge never fails but still tracks peak.
        let u = MemoryGauge::unlimited();
        u.charge(1 << 40).unwrap();
        assert_eq!(u.peak_bytes(), 1 << 40);
    }
}
