//! Node health tracking: a consecutive-failure circuit breaker per backend.
//!
//! C-JDBC's production answer to a sick backend is binary — disable it and
//! replay the recovery log later. The paper never discusses what happens
//! when a PostgreSQL node starts timing out mid-benchmark, so we borrow the
//! standard middleware pattern: each node carries a circuit that is
//! *Closed* (healthy) until `threshold` consecutive failures open it,
//! *Open* (skipped by the read balancer and the SVP dispatcher) until
//! `probe_after` has elapsed, then *HalfOpen* — the next request is a
//! probe whose outcome either closes the circuit again or re-opens it.
//!
//! The tracker is shared: the controller's load balancer consults it when
//! routing pass-through reads, and the Apuama engine consults the same
//! instance when assigning SVP ranges, so a node that fails OLTP traffic is
//! also routed around for OLAP sub-queries and vice versa. A failure is a
//! request the node did not serve (`EngineError::Unavailable`, or an SVP
//! sub-query past its deadline); a statement error is the statement's own
//! and is recorded as neither success nor failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures that open the circuit (min 1).
    pub threshold: u32,
    /// How long an open circuit waits before admitting a probe request.
    pub probe_after: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            threshold: 3,
            probe_after: Duration::from_millis(100),
        }
    }
}

/// One node's circuit state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are routed around this node.
    Open,
    /// Probing: one request is allowed through to test recovery.
    HalfOpen,
}

#[derive(Debug)]
struct NodeHealth {
    state: CircuitState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    failures: u64,
    /// Administratively fenced off (recovery-log catch-up in progress):
    /// unlike the breaker, quarantine never lifts on its own — the rejoin
    /// protocol clears it once the replica is consistent again. A
    /// quarantined node is unavailable regardless of circuit state.
    quarantined: bool,
}

impl NodeHealth {
    fn new() -> Self {
        NodeHealth {
            state: CircuitState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            failures: 0,
            quarantined: false,
        }
    }
}

/// Shared health tracker for a fixed-size cluster.
///
/// One mutex guards every node's circuit. A success on a node whose
/// circuit is already Closed with no failure streak — every request of a
/// healthy cluster — changes nothing the mutex guards, so it is counted
/// without taking it (`clean` mirrors that state, written under the lock).
#[derive(Debug)]
pub struct HealthTracker {
    policy: BreakerPolicy,
    nodes: Mutex<Vec<NodeHealth>>,
    /// Per node: the circuit is Closed and the failure streak is zero.
    clean: Vec<AtomicBool>,
    successes: Vec<AtomicU64>,
}

impl HealthTracker {
    pub fn new(nodes: usize, policy: BreakerPolicy) -> Self {
        assert!(nodes > 0, "a tracker needs at least one node");
        let policy = BreakerPolicy {
            threshold: policy.threshold.max(1),
            ..policy
        };
        HealthTracker {
            policy,
            nodes: Mutex::new((0..nodes).map(|_| NodeHealth::new()).collect()),
            clean: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            successes: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.clean.len()
    }

    /// The active policy.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Records a successful request: resets the failure streak and closes
    /// the circuit (a HalfOpen probe that succeeds recovers the node).
    pub fn record_success(&self, node: usize) {
        self.successes[node].fetch_add(1, Ordering::Relaxed);
        if self.clean[node].load(Ordering::SeqCst) {
            return;
        }
        let mut nodes = self.nodes.lock();
        let h = &mut nodes[node];
        h.consecutive_failures = 0;
        h.state = CircuitState::Closed;
        h.opened_at = None;
        self.clean[node].store(true, Ordering::SeqCst);
    }

    /// Records a failed request; opens the circuit after `threshold`
    /// consecutive failures, and re-opens it immediately on a failed probe.
    pub fn record_failure(&self, node: usize) {
        let mut nodes = self.nodes.lock();
        let h = &mut nodes[node];
        self.clean[node].store(false, Ordering::SeqCst);
        h.failures += 1;
        h.consecutive_failures += 1;
        match h.state {
            CircuitState::HalfOpen => {
                // Failed probe: back to Open, restart the probe timer.
                h.state = CircuitState::Open;
                h.opened_at = Some(Instant::now());
            }
            CircuitState::Closed if h.consecutive_failures >= self.policy.threshold => {
                h.state = CircuitState::Open;
                h.opened_at = Some(Instant::now());
            }
            _ => {}
        }
    }

    /// Fences `node` off (or readmits it). Quarantine is the rejoin
    /// protocol's hard exclusion: while set, the node is unavailable to the
    /// read balancer and the SVP dispatcher no matter what the circuit
    /// says, and no probe transition occurs. Successes recorded during
    /// quarantine (catch-up replay) do *not* lift it.
    pub fn set_quarantined(&self, node: usize, quarantined: bool) {
        self.nodes.lock()[node].quarantined = quarantined;
    }

    /// Whether `node` is currently quarantined.
    pub fn is_quarantined(&self, node: usize) -> bool {
        self.nodes.lock()[node].quarantined
    }

    /// Whether requests may be sent to `node` right now. Transitions an
    /// expired Open circuit to HalfOpen (admitting the probe). Quarantined
    /// nodes are never available.
    pub fn is_available(&self, node: usize) -> bool {
        self.admits(&mut self.nodes.lock()[node])
    }

    /// [`Self::is_available`] on a node already locked.
    fn admits(&self, h: &mut NodeHealth) -> bool {
        if h.quarantined {
            return false;
        }
        match h.state {
            CircuitState::Closed | CircuitState::HalfOpen => true,
            CircuitState::Open => {
                let expired = h
                    .opened_at
                    .is_none_or(|t| t.elapsed() >= self.policy.probe_after);
                if expired {
                    h.state = CircuitState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The read balancer's pick, under one acquisition of the lock: of
    /// `eligible` (ascending node indices), the available node with the
    /// least `load`, the lowest index on ties — or, when none is available,
    /// the least-loaded eligible node (serving into a tripped circuit beats
    /// refusing the request, and the attempt doubles as a probe). Every
    /// eligible node is asked, so each expired Open circuit still turns
    /// HalfOpen. `None` when `eligible` is empty.
    pub fn least_loaded(
        &self,
        eligible: impl Iterator<Item = usize>,
        load: impl Fn(usize) -> usize,
    ) -> Option<usize> {
        let mut nodes = self.nodes.lock();
        // `(load, node)` of the best available and the best eligible node.
        let mut available: Option<(usize, usize)> = None;
        let mut any: Option<(usize, usize)> = None;
        for i in eligible {
            let l = load(i);
            if any.is_none_or(|(best, _)| l < best) {
                any = Some((l, i));
            }
            if self.admits(&mut nodes[i]) && available.is_none_or(|(best, _)| l < best) {
                available = Some((l, i));
            }
        }
        available.or(any).map(|(_, i)| i)
    }

    /// Current circuit state of `node` (no probe transition).
    pub fn state(&self, node: usize) -> CircuitState {
        self.nodes.lock()[node].state
    }

    /// Indices of nodes currently accepting requests (probe transitions
    /// apply, so at most one call sees a given node flip Open → HalfOpen).
    pub fn available_nodes(&self) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&i| self.is_available(i))
            .collect()
    }

    /// Total failed requests recorded for `node`.
    pub fn failures(&self, node: usize) -> u64 {
        self.nodes.lock()[node].failures
    }

    /// Total successful requests recorded for `node`.
    pub fn successes(&self, node: usize) -> u64 {
        self.successes[node].load(Ordering::Relaxed)
    }

    /// Current consecutive-failure streak for `node`.
    pub fn consecutive_failures(&self, node: usize) -> u32 {
        self.nodes.lock()[node].consecutive_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(threshold: u32, probe_ms: u64) -> HealthTracker {
        HealthTracker::new(
            3,
            BreakerPolicy {
                threshold,
                probe_after: Duration::from_millis(probe_ms),
            },
        )
    }

    #[test]
    fn breaker_slice_clamps_threshold() {
        let t = tracker(0, 60_000);
        assert_eq!(t.policy().threshold, 1);
        t.record_failure(0);
        assert_eq!(t.state(0), CircuitState::Open);
    }

    #[test]
    fn circuit_opens_after_threshold_consecutive_failures() {
        let t = tracker(3, 60_000);
        t.record_failure(0);
        t.record_failure(0);
        assert_eq!(t.state(0), CircuitState::Closed);
        assert!(t.is_available(0));
        t.record_failure(0);
        assert_eq!(t.state(0), CircuitState::Open);
        assert!(!t.is_available(0));
        // Other nodes unaffected.
        assert!(t.is_available(1));
        assert_eq!(t.available_nodes(), vec![1, 2]);
    }

    #[test]
    fn success_resets_the_streak() {
        let t = tracker(3, 60_000);
        t.record_failure(0);
        t.record_failure(0);
        t.record_success(0);
        t.record_failure(0);
        t.record_failure(0);
        assert_eq!(t.state(0), CircuitState::Closed);
        assert_eq!(t.consecutive_failures(0), 2);
    }

    #[test]
    fn probe_recovers_the_node() {
        let t = tracker(1, 0);
        t.record_failure(2);
        assert_eq!(t.state(2), CircuitState::Open);
        // probe_after = 0: the next availability check admits a probe.
        assert!(t.is_available(2));
        assert_eq!(t.state(2), CircuitState::HalfOpen);
        t.record_success(2);
        assert_eq!(t.state(2), CircuitState::Closed);
    }

    #[test]
    fn failed_probe_reopens_the_circuit() {
        let t = tracker(1, 0);
        t.record_failure(0);
        assert!(t.is_available(0)); // Open → HalfOpen
        t.record_failure(0); // probe failed
        assert_eq!(t.state(0), CircuitState::Open);
    }

    #[test]
    fn open_circuit_stays_closed_to_traffic_until_probe_timer_expires() {
        let t = tracker(1, 60_000);
        t.record_failure(0);
        assert!(!t.is_available(0));
        assert_eq!(t.state(0), CircuitState::Open);
    }

    #[test]
    fn least_loaded_asks_every_node_and_falls_back_when_none_is_available() {
        // probe_after = 0: both open circuits expire at once, and both turn
        // HalfOpen although the tie goes to the lower index.
        let t = tracker(1, 0);
        t.record_failure(0);
        t.record_failure(2);
        assert_eq!(t.least_loaded(0..3, |i| [0, 5, 0][i]), Some(0));
        assert_eq!(t.state(0), CircuitState::HalfOpen);
        assert_eq!(t.state(2), CircuitState::HalfOpen);
        // Every circuit open: the least-loaded eligible node serves.
        let t = tracker(1, 60_000);
        for i in 0..3 {
            t.record_failure(i);
        }
        assert_eq!(t.least_loaded(0..3, |i| [3, 1, 1][i]), Some(1));
        // An available node beats a less-loaded unavailable one.
        let t = tracker(3, 60_000);
        t.set_quarantined(0, true);
        assert_eq!(t.least_loaded(0..3, |i| [0, 2, 1][i]), Some(2));
        assert_eq!(t.least_loaded(std::iter::empty(), |_| 0), None);
    }

    #[test]
    fn successes_are_counted_on_a_clean_circuit_and_a_tripped_one() {
        let t = tracker(1, 0);
        t.record_success(0);
        t.record_failure(0);
        assert_eq!(t.state(0), CircuitState::Open);
        t.record_success(0);
        assert_eq!(t.state(0), CircuitState::Closed);
        assert_eq!(t.consecutive_failures(0), 0);
        t.record_success(0);
        assert_eq!((t.successes(0), t.failures(0)), (3, 1));
    }

    #[test]
    fn quarantine_overrides_the_circuit_and_survives_successes() {
        let t = tracker(1, 0);
        t.set_quarantined(1, true);
        assert!(!t.is_available(1));
        assert_eq!(t.state(1), CircuitState::Closed, "circuit untouched");
        // Catch-up replay records successes; the fence must hold.
        t.record_success(1);
        assert!(t.is_quarantined(1));
        assert!(!t.is_available(1));
        assert_eq!(t.available_nodes(), vec![0, 2]);
        t.set_quarantined(1, false);
        assert!(t.is_available(1));
    }
}
