//! The recovery log and replica-rejoin protocol.
//!
//! C-JDBC brings a failed backend back with its *recovery log*: every
//! committed write is recorded in total order, and a recovering replica
//! replays the suffix it missed before re-entering rotation. This module
//! is the durable-in-process reproduction of that mechanism, sized for the
//! paper's cluster (Apuama sits on C-JDBC, whose RAIDb-1 recovery log is
//! assumed, not re-described).
//!
//! Pieces:
//!
//! - [`RecoveryLog`]: an append-only, checkpoint-truncated record of every
//!   committed write (statement text + the write scheduler's monotonic
//!   sequence number). Retention is bounded two ways: entries applied by
//!   every protected backend are truncated on checkpoint, and a soft
//!   `max_entries` cap drops the oldest entries — but never entries a
//!   disabled backend still needs while its retention deadline is unexpired
//!   (after expiry the entries go, and that backend's rejoin degrades to a
//!   full re-clone from a healthy peer).
//! - [`RejoinState`]: the per-backend state machine `Disabled → CatchingUp
//!   → Probing → Enabled` that `Controller::rejoin_backend` drives.
//! - [`RejoinHooks`]: the controller→engine callback seam. Apuama's
//!   `UpdateGate` must exclude a catching-up node from the consistency
//!   protocol and seed its transaction counter on readmission; the
//!   controller calls these hooks at exactly those transitions.
//! - [`CloneFn`] / [`engine_node_clone_fn`]: the degraded path — when the
//!   log no longer holds a backend's suffix, the rejoin protocol
//!   re-provisions it wholesale from a healthy peer (`Database::fork`
//!   preserves heap order, so post-clone eval queries stay byte-identical).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apuama_engine::EngineResult;
use parking_lot::Mutex;

use crate::connection::EngineNode;

/// Re-provisions backend `target` from healthy backend `source` (full
/// re-clone when the recovery log can no longer catch `target` up).
pub type CloneFn = Arc<dyn Fn(usize, usize) -> EngineResult<()> + Send + Sync>;

/// A [`CloneFn`] over in-process [`EngineNode`]s: forks the source node's
/// database (heap order preserved — float fold order and therefore result
/// bytes survive the copy) and swaps it in behind the target's lock.
pub fn engine_node_clone_fn(nodes: Vec<Arc<EngineNode>>) -> CloneFn {
    Arc::new(move |source, target| {
        let forked = nodes[source].with_db(|db| db.fork())?;
        nodes[target].with_db_mut(|db| *db = forked);
        Ok(())
    })
}

/// Tuning for the recovery log and the rejoin protocol.
#[derive(Clone)]
pub struct RecoveryConfig {
    /// Soft cap on retained log entries (`0` = unbounded). The cap yields
    /// to disabled-backend retention: entries a disabled backend still
    /// needs are kept past the cap until its deadline expires.
    pub max_entries: usize,
    /// How long a disabled backend's unapplied entries are protected from
    /// truncation. After the deadline, checkpointing reclaims them and the
    /// backend's rejoin degrades to a full re-clone.
    pub retention: Duration,
    /// Optional probe statement executed against the backend after
    /// catch-up, before readmission. Must be a pass-through read (not
    /// SVP-eligible), or an interposing engine may fan it out instead of
    /// probing the one node.
    pub probe_sql: Option<String>,
    /// The degraded path: re-provision the backend from a healthy peer
    /// when the log no longer holds its suffix. `None` makes that case a
    /// rejoin error.
    pub clone_via: Option<CloneFn>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_entries: 4096,
            retention: Duration::from_secs(60),
            probe_sql: None,
            clone_via: None,
        }
    }
}

impl fmt::Debug for RecoveryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryConfig")
            .field("max_entries", &self.max_entries)
            .field("retention", &self.retention)
            .field("probe_sql", &self.probe_sql)
            .field("clone_via", &self.clone_via.is_some())
            .finish()
    }
}

/// Where a backend stands in the rejoin state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejoinState {
    /// In rotation: reads, writes, and SVP ranges may be routed here.
    Enabled = 0,
    /// Out of rotation, not recovering. Writes skip it; the log tracks
    /// what it misses until its retention deadline expires.
    Disabled = 1,
    /// Replaying the missed suffix from the recovery log. Still out of
    /// rotation (quarantined), but receiving replay writes.
    CatchingUp = 2,
    /// Caught up; executing the health probe before readmission.
    Probing = 3,
}

impl RejoinState {
    /// Atomic-storage encoding.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Atomic-storage decoding (panics on an unknown discriminant).
    pub fn from_u8(v: u8) -> RejoinState {
        match v {
            0 => RejoinState::Enabled,
            1 => RejoinState::Disabled,
            2 => RejoinState::CatchingUp,
            3 => RejoinState::Probing,
            _ => unreachable!("invalid RejoinState discriminant {v}"),
        }
    }
}

/// What a successful rejoin did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejoinOutcome {
    /// Entries replayed while writes kept flowing.
    pub live_replayed: usize,
    /// Entries drained under the write pause.
    pub pause_replayed: usize,
    /// Whether the log had lost the suffix and the backend was
    /// re-provisioned from a healthy peer instead.
    pub recloned: bool,
    /// Whether the configured probe statement ran (and succeeded).
    pub probed: bool,
}

/// Controller→engine callbacks at rejoin state transitions. Apuama's
/// engine implements this to keep its `UpdateGate` consistent with the
/// controller's view of the cluster; plain C-JDBC setups use
/// [`NoRejoinHooks`].
pub trait RejoinHooks: Send + Sync {
    /// `node` left rotation (disabled or starting catch-up). Called
    /// idempotently — possibly more than once per outage.
    fn on_disable(&self, _node: usize) {}

    /// `node` is consistent again and re-enters rotation; `applied_seq` is
    /// its recovery-log position at readmission. Called under the write
    /// pause, so no broadcast is in flight.
    fn on_enable(&self, _node: usize, _applied_seq: u64) {}
}

/// The no-op hooks for controllers without an interposing engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRejoinHooks;

impl RejoinHooks for NoRejoinHooks {}

/// One recorded write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The write scheduler's sequence number (1-based, monotonic; gaps
    /// exist where a write failed on every backend and was never logged).
    pub seq: u64,
    /// The statement (or `;`-joined transaction body) as broadcast.
    pub sql: String,
}

#[derive(Debug)]
struct LogState {
    entries: VecDeque<LogEntry>,
    /// Highest sequence ever recorded (0 before the first write).
    head: u64,
    /// Highest sequence ever truncated out of the log. A backend whose
    /// applied sequence is below this floor can no longer be caught up by
    /// replay — sequence gaps (fully-failed writes) make front-entry
    /// arithmetic unreliable, so the floor is tracked explicitly.
    truncation_floor: u64,
    /// Per-backend highest applied sequence.
    applied: Vec<u64>,
    /// Per-backend rotation membership, as the log sees it (drives the
    /// checkpoint floor).
    enabled: Vec<bool>,
    /// Retention deadline for each disabled backend: until it passes, the
    /// backend's unapplied entries are immune to truncation.
    deadlines: Vec<Option<Instant>>,
    /// Total entries ever truncated (soak-test observability).
    truncated_total: u64,
}

/// The durable-in-process write recovery log.
#[derive(Debug)]
pub struct RecoveryLog {
    state: Mutex<LogState>,
    max_entries: usize,
    retention: Duration,
}

impl RecoveryLog {
    pub fn new(backends: usize, max_entries: usize, retention: Duration) -> RecoveryLog {
        assert!(backends > 0, "a recovery log needs at least one backend");
        RecoveryLog {
            state: Mutex::new(LogState {
                entries: VecDeque::new(),
                head: 0,
                truncation_floor: 0,
                applied: vec![0; backends],
                enabled: vec![true; backends],
                deadlines: vec![None; backends],
                truncated_total: 0,
            }),
            max_entries,
            retention,
        }
    }

    /// Number of tracked backends.
    pub fn backend_count(&self) -> usize {
        self.state.lock().applied.len()
    }

    /// Records a committed write: its scheduler sequence, statement text,
    /// and the backends that applied it (their applied marks advance).
    pub fn record(&self, seq: u64, sql: &str, applied_on: &[usize]) {
        let mut st = self.state.lock();
        debug_assert!(seq > st.head, "sequence numbers must be monotonic");
        st.entries.push_back(LogEntry {
            seq,
            sql: sql.to_string(),
        });
        st.head = st.head.max(seq);
        for &b in applied_on {
            st.applied[b] = st.applied[b].max(seq);
        }
    }

    /// Advances `backend`'s applied mark (replay progress).
    pub fn mark_applied(&self, backend: usize, seq: u64) {
        let mut st = self.state.lock();
        st.applied[backend] = st.applied[backend].max(seq);
    }

    /// Overwrites `backend`'s applied mark — used after a full re-clone,
    /// which puts the replica at the source's position regardless of what
    /// the log thought it had applied.
    pub fn force_set_applied(&self, backend: usize, seq: u64) {
        self.state.lock().applied[backend] = seq;
    }

    /// `backend`'s highest applied sequence.
    pub fn applied_seq(&self, backend: usize) -> u64 {
        self.state.lock().applied[backend]
    }

    /// Highest sequence ever recorded.
    pub fn head(&self) -> u64 {
        self.state.lock().head
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.state.lock().entries.is_empty()
    }

    /// Total entries ever truncated by checkpointing.
    pub fn truncated_total(&self) -> u64 {
        self.state.lock().truncated_total
    }

    /// Highest sequence ever truncated.
    pub fn truncation_floor(&self) -> u64 {
        self.state.lock().truncation_floor
    }

    /// Marks `backend` out of rotation and (re)starts its retention
    /// deadline: its unapplied entries survive checkpointing until the
    /// deadline passes.
    pub fn mark_disabled(&self, backend: usize) {
        let mut st = self.state.lock();
        st.enabled[backend] = false;
        st.deadlines[backend] = Some(Instant::now() + self.retention);
    }

    /// Marks `backend` back in rotation (deadline cleared).
    pub fn mark_enabled(&self, backend: usize) {
        let mut st = self.state.lock();
        st.enabled[backend] = true;
        st.deadlines[backend] = None;
    }

    /// Whether the log still holds everything `backend` is missing. False
    /// once truncation has passed the backend's applied mark — replay can
    /// no longer reconstruct it and rejoin must re-clone.
    pub fn has_suffix_for(&self, backend: usize) -> bool {
        let st = self.state.lock();
        st.applied[backend] >= st.truncation_floor
    }

    /// Retained entries `backend` has not applied.
    pub fn lag(&self, backend: usize) -> u64 {
        let st = self.state.lock();
        let applied = st.applied[backend];
        st.entries.iter().filter(|e| e.seq > applied).count() as u64
    }

    /// Up to `limit` oldest entries `backend` has not applied (`limit = 0`
    /// means all of them). Only meaningful while
    /// [`RecoveryLog::has_suffix_for`] holds.
    pub fn suffix_for(&self, backend: usize, limit: usize) -> Vec<LogEntry> {
        let st = self.state.lock();
        let applied = st.applied[backend];
        let it = st.entries.iter().filter(|e| e.seq > applied).cloned();
        if limit == 0 {
            it.collect()
        } else {
            it.take(limit).collect()
        }
    }

    /// Truncates entries no protected backend still needs and enforces the
    /// soft cap; returns how many entries were dropped. Protection:
    /// enabled backends always; disabled backends until their retention
    /// deadline expires. The cap never evicts an entry a deadline still
    /// protects — so while a backend is down, memory is bounded in *time*
    /// (by the deadline) rather than in entries.
    pub fn checkpoint(&self) -> usize {
        let now = Instant::now();
        let mut st = self.state.lock();
        let n = st.applied.len();
        let mut floor = u64::MAX;
        let mut any_protected = false;
        for i in 0..n {
            let protected = st.enabled[i] || st.deadlines[i].is_some_and(|d| now < d);
            if protected {
                floor = floor.min(st.applied[i]);
                any_protected = true;
            }
        }
        if !any_protected {
            floor = st.head;
        }
        let mut dropped = 0usize;
        while let Some(front) = st.entries.front() {
            if front.seq <= floor {
                st.truncation_floor = st.truncation_floor.max(front.seq);
                st.entries.pop_front();
                dropped += 1;
            } else {
                break;
            }
        }
        if self.max_entries > 0 {
            let mut deadline_floor = u64::MAX;
            for i in 0..n {
                if !st.enabled[i] {
                    if let Some(d) = st.deadlines[i] {
                        if now < d {
                            deadline_floor = deadline_floor.min(st.applied[i]);
                        }
                    }
                }
            }
            while st.entries.len() > self.max_entries {
                let front_seq = st.entries.front().expect("len > cap > 0").seq;
                if front_seq > deadline_floor {
                    break; // an unexpired deadline protects this entry
                }
                st.truncation_floor = st.truncation_floor.max(front_seq);
                st.entries.pop_front();
                dropped += 1;
            }
        }
        st.truncated_total += dropped as u64;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(backends: usize) -> RecoveryLog {
        RecoveryLog::new(backends, 0, Duration::from_secs(3600))
    }

    #[test]
    fn record_and_suffix_track_a_lagging_backend() {
        let l = log(2);
        l.record(1, "w1", &[0, 1]);
        l.record(2, "w2", &[0]); // backend 1 missed it
        l.record(3, "w3", &[0]);
        assert_eq!(l.head(), 3);
        assert_eq!(l.applied_seq(0), 3);
        assert_eq!(l.applied_seq(1), 1);
        assert_eq!(l.lag(1), 2);
        let suffix = l.suffix_for(1, 0);
        assert_eq!(suffix.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(l.suffix_for(1, 1).len(), 1);
        l.mark_applied(1, 2);
        assert_eq!(l.lag(1), 1);
    }

    #[test]
    fn checkpoint_truncates_the_fully_applied_prefix() {
        let l = log(2);
        l.record(1, "w1", &[0, 1]);
        l.record(2, "w2", &[0, 1]);
        l.record(3, "w3", &[0]); // backend 1 still needs seq 3
        assert_eq!(l.checkpoint(), 2);
        assert_eq!(l.len(), 1);
        assert_eq!(l.truncation_floor(), 2);
        assert_eq!(l.truncated_total(), 2);
        assert!(l.has_suffix_for(1), "applied 2 ≥ floor 2: replayable");
    }

    #[test]
    fn unexpired_disabled_backend_blocks_truncation_even_past_the_cap() {
        // Cap of 1 entry, but backend 1 is disabled with a long retention
        // deadline: its unapplied entries must survive checkpointing.
        let l = RecoveryLog::new(2, 1, Duration::from_secs(3600));
        l.record(1, "w1", &[0, 1]);
        l.mark_disabled(1);
        l.record(2, "w2", &[0]);
        l.record(3, "w3", &[0]);
        l.record(4, "w4", &[0]);
        assert_eq!(l.checkpoint(), 1, "only the fully-applied seq 1 goes");
        assert_eq!(l.len(), 3, "cap yields to the retention deadline");
        assert!(l.has_suffix_for(1));
    }

    #[test]
    fn expired_deadline_releases_entries_and_forces_a_reclone() {
        let l = RecoveryLog::new(2, 0, Duration::ZERO); // deadline expires immediately
        l.record(1, "w1", &[0, 1]);
        l.mark_disabled(1);
        l.record(2, "w2", &[0]);
        l.record(3, "w3", &[0]);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(l.checkpoint(), 3, "nothing protects the entries now");
        assert!(l.is_empty());
        assert!(
            !l.has_suffix_for(1),
            "backend 1's suffix is gone: rejoin must re-clone"
        );
        assert!(l.has_suffix_for(0));
    }

    #[test]
    fn reenabling_clears_the_deadline_and_restores_protection() {
        let l = RecoveryLog::new(2, 0, Duration::ZERO);
        l.record(1, "w1", &[0]);
        l.mark_disabled(1);
        l.mark_enabled(1); // rejoined before any truncation
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            l.checkpoint(),
            0,
            "an enabled backend protects its suffix regardless of deadlines"
        );
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn force_set_applied_jumps_a_recloned_backend_to_the_head() {
        let l = log(2);
        l.record(1, "w1", &[0]);
        l.record(2, "w2", &[0]);
        l.force_set_applied(1, l.head());
        assert_eq!(l.lag(1), 0);
        assert!(l.has_suffix_for(1));
    }

    #[test]
    fn rejoin_state_round_trips_through_u8() {
        for s in [
            RejoinState::Enabled,
            RejoinState::Disabled,
            RejoinState::CatchingUp,
            RejoinState::Probing,
        ] {
            assert_eq!(RejoinState::from_u8(s.as_u8()), s);
        }
    }

    #[test]
    fn engine_node_clone_fn_reprovisions_a_replica_byte_identically() {
        use apuama_engine::Database;
        let mut src = Database::in_memory();
        src.execute("create table t (a int)").unwrap();
        src.execute("insert into t values (1), (2), (3)").unwrap();
        let stale = {
            let mut db = Database::in_memory();
            db.execute("create table t (a int)").unwrap();
            db
        };
        let nodes = vec![EngineNode::new("n0", src), EngineNode::new("n1", stale)];
        let clone = engine_node_clone_fn(nodes.clone());
        clone(0, 1).unwrap();
        let a = nodes[0].with_db(|db| db.query("select a from t").unwrap().rows);
        let b = nodes[1].with_db(|db| db.query("select a from t").unwrap().rows);
        assert_eq!(a, b);
        assert_eq!(b.len(), 3);
    }
}
