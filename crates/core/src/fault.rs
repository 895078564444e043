//! Fault-handling policy for SVP execution.
//!
//! The paper assumes every node answers every sub-query; this module is the
//! knob set that decides what happens when one does not. Full replication
//! makes recovery cheap: any surviving replica can re-run a failed node's
//! range predicate, so a dead backend degrades throughput instead of
//! failing the query. See DESIGN.md §8 for the protocol.

use std::time::Duration;

use apuama_cjdbc::BreakerPolicy;

/// What the Intra-Query Executor does when a sub-query fails on its node's
/// account: the backend did not serve it (`EngineError::Unavailable`) or
/// it outran `subquery_timeout_ms`. Any other error is the statement's
/// own — it would fail the same way on every replica — so it is neither
/// retried nor requeued, strikes no breaker, and fails the query at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Per-sub-query deadline. `None` waits forever (the seed behaviour).
    /// A timed-out statement counts as a failure for retry/reassignment;
    /// the abandoned statement is cancelled through a per-attempt child of
    /// the query governor and stops at its next batch boundary, releasing
    /// its pool slot (an injected stall, which never reaches a batch
    /// boundary, sleeps on to its end).
    pub subquery_timeout_ms: Option<u64>,
    /// Same-node retries after the first failed attempt.
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based): `retry_backoff_ms << (k - 1)`.
    pub retry_backoff_ms: u64,
    /// After same-node retries are exhausted, requeue the failed range's
    /// planned statement whole to another node whose ticket the query
    /// holds, as [`crate::Dispatch`] routes it; the partial keeps its range
    /// index, so composition is byte-identical to the healthy run.
    pub reassign: bool,
    /// The engine's circuit breaker: SVP dispatch and the C-JDBC read
    /// balancer both skip open circuits.
    pub breaker: BreakerPolicy,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            subquery_timeout_ms: None,
            max_retries: 1,
            retry_backoff_ms: 1,
            reassign: true,
            breaker: BreakerPolicy::default(),
        }
    }
}

impl FaultPolicy {
    /// The pre-fault-tolerance behaviour: no timeout, no retries, no
    /// reassignment — the first sub-query error fails the whole SVP query.
    pub fn fail_fast() -> Self {
        FaultPolicy {
            subquery_timeout_ms: None,
            max_retries: 0,
            retry_backoff_ms: 0,
            reassign: false,
            ..FaultPolicy::default()
        }
    }

    /// Backoff before the `attempt`-th retry (1-based), exponential with
    /// base `retry_backoff_ms`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.retry_backoff_ms == 0 || attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(16);
        Duration::from_millis(self.retry_backoff_ms.saturating_mul(1 << shift))
    }
}

/// What fault handling did during one SVP execution (diagnostics; all
/// zeros/empty on a healthy run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Same-node retry attempts beyond each first attempt, summed.
    pub retries: u32,
    /// Failed attempts observed (including exhausted retries).
    pub failed_attempts: u32,
    /// Ranges that ended up on a different node than planned, as
    /// `(range index, node that produced the partial)`, each range at most
    /// once — covers both up-front routing around open circuits and
    /// post-failure requeues.
    pub reassigned: Vec<(usize, usize)>,
}

impl RecoveryReport {
    /// True when the execution needed no fault handling at all.
    pub fn clean(&self) -> bool {
        self.retries == 0 && self.failed_attempts == 0 && self.reassigned.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_recovering_but_gentle() {
        let p = FaultPolicy::default();
        assert_eq!(p.subquery_timeout_ms, None);
        assert!(p.reassign);
        assert_eq!(p.max_retries, 1);
    }

    #[test]
    fn fail_fast_disables_recovery() {
        let p = FaultPolicy::fail_fast();
        assert_eq!(p.max_retries, 0);
        assert!(!p.reassign);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = FaultPolicy {
            retry_backoff_ms: 2,
            ..FaultPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(8));
        // Never overflows even for absurd attempt numbers.
        assert!(p.backoff(u32::MAX) >= p.backoff(17));
    }
}
