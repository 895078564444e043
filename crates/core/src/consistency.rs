//! The replica-consistency protocol.
//!
//! Paper §3: "Apuama has a transaction counter for each node. When a query
//! must be processed with SVP, Apuama waits until a consistent state is
//! reached by all nodes. This happens when all transaction counters are
//! equal. If new update transactions arrive, they are blocked. Then,
//! Apuama starts executing SVP, dispatching all sub-queries to their
//! respective nodes. When all sub-queries are sent and started by the
//! DBMSs, update transactions are unblocked."
//!
//! The gate below implements exactly that, with one structural refinement
//! forced by the per-node driver seam: C-JDBC broadcasts one write to N
//! backends as N driver calls, so a broadcast can be *in flight* (applied
//! on some replicas, pending on others) when an SVP query arrives. New
//! broadcasts are blocked; in-flight ones are admitted to completion —
//! otherwise the counters could never converge and both sides would
//! deadlock. The C-JDBC scheduler serializes broadcasts, so at most one is
//! in flight at a time.

use std::collections::HashSet;

use parking_lot::{Condvar, Mutex};

#[derive(Debug)]
struct GateState {
    /// Number of SVP queries currently holding updates blocked.
    blocks: u32,
    /// The one write broadcast currently in flight: its script and the set
    /// of node indices that have completed it.
    inflight: Option<(String, HashSet<usize>)>,
    /// Per-node committed write-transaction counters.
    counters: Vec<u64>,
    /// Nodes excluded from the protocol (disabled / catching up after a
    /// failure). An excluded node neither holds up convergence nor keeps a
    /// broadcast in flight — without this, one disabled replica would
    /// wedge every write forever, since its begin/end calls never come.
    /// Its counter still tracks (catch-up replay bumps it) but carries no
    /// weight until the node is readmitted.
    excluded: Vec<bool>,
}

impl GateState {
    fn active_counters(&self) -> impl Iterator<Item = u64> + '_ {
        self.counters
            .iter()
            .zip(&self.excluded)
            .filter(|(_, &e)| !e)
            .map(|(&c, _)| c)
    }

    /// Equal counters over the non-excluded nodes (vacuously true when
    /// every node is excluded).
    fn converged(&self) -> bool {
        let mut it = self.active_counters();
        match it.next() {
            Some(first) => it.all(|c| c == first),
            None => true,
        }
    }

    /// Whether the in-flight broadcast has reached every non-excluded node.
    fn inflight_drained(&self) -> bool {
        match &self.inflight {
            Some((_, done)) => self
                .excluded
                .iter()
                .enumerate()
                .filter(|(_, &e)| !e)
                .all(|(i, _)| done.contains(&i)),
            None => true,
        }
    }
}

/// The update-blocking gate plus transaction counters.
#[derive(Debug)]
pub struct UpdateGate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl UpdateGate {
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0);
        UpdateGate {
            state: Mutex::new(GateState {
                blocks: 0,
                inflight: None,
                counters: vec![0; nodes],
                excluded: vec![false; nodes],
            }),
            changed: Condvar::new(),
        }
    }

    /// Snapshot of the per-node transaction counters.
    pub fn counters(&self) -> Vec<u64> {
        self.state.lock().counters.clone()
    }

    /// Excludes `node` from (or readmits it to) the consistency protocol.
    /// Excluding a node mid-broadcast re-evaluates the drain condition —
    /// the broadcast must not wait for a node that will never answer — and
    /// wakes every waiter, since convergence may hold now.
    pub fn set_excluded(&self, node: usize, excluded: bool) {
        let mut st = self.state.lock();
        st.excluded[node] = excluded;
        if st.inflight.is_some() && st.inflight_drained() {
            st.inflight = None;
        }
        drop(st);
        self.changed.notify_all();
    }

    /// Whether `node` is currently excluded from the protocol.
    pub fn is_excluded(&self, node: usize) -> bool {
        self.state.lock().excluded[node]
    }

    /// Overwrites `node`'s counter — the rejoin protocol seeds a caught-up
    /// replica to the cluster's value (see [`UpdateGate::active_max_counter`])
    /// before readmitting it, so convergence holds the moment it re-enters.
    pub fn seed_counter(&self, node: usize, value: u64) {
        let mut st = self.state.lock();
        st.counters[node] = value;
        drop(st);
        self.changed.notify_all();
    }

    /// Highest counter among the non-excluded nodes — the seed value for a
    /// rejoining replica. Call it with no broadcast in flight (e.g. under
    /// the write scheduler's token) for an exact value.
    pub fn active_max_counter(&self) -> u64 {
        self.state.lock().active_counters().max().unwrap_or(0)
    }

    /// Called before executing a write on `node`. Blocks while SVP holds
    /// the gate — unless this call *continues* the broadcast already in
    /// flight, which must be allowed to finish.
    ///
    /// Writes on an excluded node bypass the gate entirely: they are
    /// catch-up replay traffic, invisible to SVP (which never reads from an
    /// excluded replica) and deliberately kept out of the in-flight
    /// tracking — an excluded node's single-replica write could otherwise
    /// never drain.
    pub fn begin_node_write(&self, node: usize, script: &str) {
        let mut st = self.state.lock();
        loop {
            if st.excluded[node] {
                return;
            }
            match &st.inflight {
                Some((s, done)) if s == script && !done.contains(&node) => {
                    // Continuation of the in-flight broadcast: admit.
                    return;
                }
                // A different broadcast is mid-flight (the scheduler normally
                // prevents this — wait for it to drain), or SVP holds the
                // gate.
                Some(_) => self.changed.wait(&mut st),
                None if st.blocks > 0 => self.changed.wait(&mut st),
                None => {
                    st.inflight = Some((script.to_string(), HashSet::new()));
                    return;
                }
            }
        }
    }

    /// Called after a write completed (successfully or not) on `node`. On
    /// an excluded node only the counter moves (replay progress); the
    /// in-flight bookkeeping belongs to the active nodes.
    pub fn end_node_write(&self, node: usize, script: &str, committed: bool) {
        let mut st = self.state.lock();
        if committed {
            st.counters[node] += 1;
        }
        if !st.excluded[node] {
            if let Some((s, done)) = &mut st.inflight {
                if s == script {
                    done.insert(node);
                }
            }
            if st.inflight.is_some() && st.inflight_drained() {
                st.inflight = None;
            }
        }
        drop(st);
        self.changed.notify_all();
    }

    /// SVP entry: blocks new updates, then waits until no broadcast is in
    /// flight and all counters are equal.
    pub fn block_updates_and_wait(&self) {
        let mut st = self.state.lock();
        st.blocks += 1;
        while st.inflight.is_some() || !st.converged() {
            self.changed.wait(&mut st);
        }
    }

    /// SVP dispatch complete: updates may flow again.
    pub fn release_updates(&self) {
        let mut st = self.state.lock();
        debug_assert!(st.blocks > 0, "release without matching block");
        st.blocks = st.blocks.saturating_sub(1);
        drop(st);
        self.changed.notify_all();
    }

    /// True when replicas are converged (equal counters over the
    /// non-excluded nodes, nothing in flight).
    pub fn is_converged(&self) -> bool {
        let st = self.state.lock();
        st.inflight.is_none() && st.converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn broadcast_lifecycle_converges() {
        let g = UpdateGate::new(3);
        let script = "insert into t values (1)";
        for node in 0..3 {
            g.begin_node_write(node, script);
            g.end_node_write(node, script, true);
        }
        assert!(g.is_converged());
        assert_eq!(g.counters(), vec![1, 1, 1]);
    }

    #[test]
    fn inflight_broadcast_is_not_converged() {
        let g = UpdateGate::new(2);
        g.begin_node_write(0, "w");
        g.end_node_write(0, "w", true);
        assert!(!g.is_converged(), "counters diverge mid-broadcast");
        g.begin_node_write(1, "w");
        g.end_node_write(1, "w", true);
        assert!(g.is_converged());
    }

    #[test]
    fn svp_waits_for_inflight_broadcast() {
        let g = Arc::new(UpdateGate::new(2));
        g.begin_node_write(0, "w");
        g.end_node_write(0, "w", true);
        let g2 = Arc::clone(&g);
        let svp = std::thread::spawn(move || {
            g2.block_updates_and_wait();
            g2.release_updates();
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!svp.is_finished(), "SVP must wait for the broadcast");
        g.begin_node_write(1, "w");
        g.end_node_write(1, "w", true);
        svp.join().unwrap();
    }

    #[test]
    fn new_update_blocks_while_svp_holds_gate() {
        let g = Arc::new(UpdateGate::new(1));
        g.block_updates_and_wait();
        let g2 = Arc::clone(&g);
        let writer = std::thread::spawn(move || {
            g2.begin_node_write(0, "w");
            g2.end_node_write(0, "w", true);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!writer.is_finished(), "new update must block");
        g.release_updates();
        writer.join().unwrap();
        assert_eq!(g.counters(), vec![1]);
    }

    #[test]
    fn inflight_broadcast_passes_closed_gate() {
        // The deadlock-avoidance refinement: a broadcast that already
        // started on node 0 must be admitted on node 1 even while SVP holds
        // the gate... but SVP cannot hold the gate while a broadcast is in
        // flight (it waits). So simulate the race the other way: gate
        // closes between node 0 and node 1 — impossible through the public
        // API because block_updates_and_wait waits for the drain. We assert
        // exactly that: the SVP call does not return early.
        let g = Arc::new(UpdateGate::new(2));
        g.begin_node_write(0, "w");
        g.end_node_write(0, "w", true);
        let g2 = Arc::clone(&g);
        let svp = std::thread::spawn(move || g2.block_updates_and_wait());
        std::thread::sleep(Duration::from_millis(30));
        // Broadcast continues despite the pending SVP block request.
        g.begin_node_write(1, "w");
        g.end_node_write(1, "w", true);
        svp.join().unwrap();
        g.release_updates();
    }

    #[test]
    fn failed_writes_do_not_bump_counters() {
        let g = UpdateGate::new(1);
        g.begin_node_write(0, "w");
        g.end_node_write(0, "w", false);
        assert_eq!(g.counters(), vec![0]);
        assert!(g.is_converged());
    }

    #[test]
    fn excluded_node_does_not_hold_up_convergence() {
        let g = UpdateGate::new(3);
        g.set_excluded(2, true);
        for node in 0..2 {
            g.begin_node_write(node, "w");
            g.end_node_write(node, "w", true);
        }
        // Node 2 never saw the write, yet the cluster is converged: the
        // protocol only counts active replicas.
        assert!(g.is_converged());
        assert_eq!(g.counters(), vec![1, 1, 0]);
    }

    #[test]
    fn excluding_a_node_mid_broadcast_drains_the_inflight_write() {
        let g = UpdateGate::new(2);
        g.begin_node_write(0, "w");
        g.end_node_write(0, "w", true);
        assert!(!g.is_converged(), "broadcast still in flight on node 1");
        // Node 1 dies: without exclusion this broadcast would never drain
        // and every SVP query would wedge forever.
        g.set_excluded(1, true);
        assert!(g.is_converged());
    }

    #[test]
    fn excluded_replay_writes_bypass_a_closed_gate() {
        let g = Arc::new(UpdateGate::new(2));
        g.set_excluded(1, true);
        g.block_updates_and_wait(); // SVP holds the gate
                                    // Catch-up replay on the excluded node must not block and must not
                                    // register an in-flight broadcast.
        g.begin_node_write(1, "replay");
        g.end_node_write(1, "replay", true);
        assert_eq!(g.counters(), vec![0, 1]);
        g.release_updates();
        assert!(g.is_converged(), "replay left nothing in flight");
    }

    #[test]
    fn seed_and_readmit_restores_convergence() {
        let g = UpdateGate::new(2);
        g.set_excluded(1, true);
        for _ in 0..3 {
            g.begin_node_write(0, "w");
            g.end_node_write(0, "w", true);
        }
        assert_eq!(g.active_max_counter(), 3);
        // Rejoin: seed the recovered replica to the cluster's counter, then
        // readmit it — convergence must hold the moment it re-enters.
        g.seed_counter(1, g.active_max_counter());
        g.set_excluded(1, false);
        assert!(g.is_converged());
        assert_eq!(g.counters(), vec![3, 3]);
        assert!(!g.is_excluded(1));
    }
}
