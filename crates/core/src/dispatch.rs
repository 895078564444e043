//! The SVP dispatch policy as one value: where each range runs, which
//! snapshot tickets the query holds, what a failed attempt turns into, and
//! when the query is done (DESIGN.md §8). [`Dispatch`] is plain data that
//! reads no clock and waits on nothing: the engine drives it beside its
//! per-node workers ([`crate::ApuamaEngine::execute_svp`]), the simulator
//! on its virtual clock, and its tests over every arrival order.

use apuama_engine::{EngineError, EngineResult};

use crate::fault::RecoveryReport;

/// A node's state at dispatch, as the cluster's breaker reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Its circuit is closed or half-open.
    Available,
    /// Its circuit is open: it serves only when every circuit is.
    Open,
    /// Disabled or catching up: it never serves a range.
    Quarantined,
}

/// What happened to one run of a range.
pub enum Event<'a> {
    /// `(range, node, attempts)`: the range's partial arrived from `node`
    /// after `attempts` attempts there.
    Partial(usize, usize, u32),
    /// The range's last attempt on `node` failed. `node_fault`: it counts
    /// against the node (a timeout does, a cancel does not). `live`: the
    /// query's governor has not fired. `available(j)`: node `j`'s breaker
    /// admits a request now, asked only of a node that may take the range.
    Failed {
        range: usize,
        node: usize,
        attempts: u32,
        node_fault: bool,
        error: EngineError,
        live: bool,
        available: &'a dyn Fn(usize) -> bool,
    },
    /// The composer rejected the partial of the last [`Action::Accept`].
    Rejected(EngineError),
}

/// What the driver does next, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Run `range`'s statement on `node`, under the node's ticket.
    Run { range: usize, node: usize },
    /// Release `node`'s snapshot ticket: no run of the query is left there.
    DropTicket(usize),
    /// The query is doomed: cancel its governor, so the running siblings
    /// stop at their next batch boundary.
    CancelSiblings,
    /// Fold the partial that just arrived into the composer. If the
    /// composer rejects it, skip the rest of the batch and report
    /// [`Event::Rejected`].
    Accept { range: usize, node: usize },
    /// Every range is accepted: finish the composition.
    Finish,
    /// The query failed.
    Fail(EngineError),
}

/// One SVP query's coordination state.
#[derive(Debug, Clone, Default)]
pub struct Dispatch {
    reassign: bool,
    /// Runs issued and not yet reported, per node.
    outstanding: Vec<usize>,
    /// Whether the query holds node `j`'s ticket.
    tickets: Vec<bool>,
    /// The nodes each range failed on.
    tried: Vec<Vec<usize>>,
    /// The first node to serve all its ranges: with reassignment on it
    /// keeps its ticket, for a failure to go to once the others are done.
    spare: Option<usize>,
    /// Ranges with nowhere left to go, with their errors.
    failed: Vec<(usize, EngineError)>,
    rejected: Option<EngineError>,
    report: RecoveryReport,
}

impl Dispatch {
    /// Places `plan_len` ranges on the nodes whose states `nodes` gives, one
    /// [`Action::Run`] each; the query takes the ticket of every node with a
    /// run. Range `r` runs on node `r` when that node may serve, else on the
    /// allowed node with the fewest runs, the lowest index on ties. The
    /// available nodes may serve; when none is, every node not quarantined,
    /// its attempts doubling as probes. Quarantine is a hard fence: a
    /// catching-up replica would answer stale rows.
    pub fn start(
        plan_len: usize,
        nodes: &[NodeState],
        reassign: bool,
        actions: &mut Vec<Action>,
    ) -> EngineResult<Dispatch> {
        let fallback = !nodes.contains(&NodeState::Available);
        let allowed = |j: usize| match nodes[j] {
            NodeState::Available => true,
            NodeState::Open => fallback,
            NodeState::Quarantined => false,
        };
        let mut d = Dispatch {
            reassign,
            outstanding: vec![0; nodes.len()],
            tickets: vec![false; nodes.len()],
            tried: vec![Vec::new(); plan_len],
            ..Dispatch::default()
        };
        let (home, away): (Vec<usize>, Vec<usize>) =
            (0..plan_len).partition(|&r| r < nodes.len() && allowed(r));
        for range in home.into_iter().chain(away) {
            let Some(node) = d.route(range, allowed) else {
                let e = "every node is quarantined: no replica may serve SVP ranges";
                return Err(EngineError::Unsupported(e.into()));
            };
            d.outstanding[node] += 1;
            d.tickets[node] = true;
            actions.push(Action::Run { range, node });
        }
        d.settle(actions);
        Ok(d)
    }

    /// Pushes the actions `event` calls for. A failed range is requeued
    /// whole while the query is live, reassignment is on and the failure
    /// is the node's: to a node whose ticket the query holds and that has
    /// not failed the range, by the rule [`Dispatch::start`] places with.
    /// Otherwise the query is doomed; once nothing runs it fails with the
    /// composer's error, else with the lowest range's error that is not a
    /// sibling's `Cancelled`.
    pub fn on(&mut self, event: Event<'_>, actions: &mut Vec<Action>) {
        let was_doomed = self.doomed();
        match event {
            Event::Partial(range, node, attempts) => {
                self.report.retries += attempts.saturating_sub(1);
                self.report.failed_attempts += attempts.saturating_sub(1);
                if node != range {
                    self.report.reassigned.push((range, node));
                }
                self.ran(node, true, actions);
                if self.idle() {
                    self.drop_tickets(actions);
                }
                if !self.doomed() {
                    actions.push(Action::Accept { range, node });
                }
            }
            Event::Failed {
                range,
                node,
                attempts,
                node_fault,
                error,
                live,
                available,
            } => {
                self.report.retries += attempts.saturating_sub(1);
                self.report.failed_attempts += attempts;
                self.ran(node, false, actions);
                self.tried[range].push(node);
                let live = self.reassign && node_fault && !self.doomed() && live;
                let (tried, tickets) = (&self.tried[range], &self.tickets);
                let may_take = |j| live && tickets[j] && !tried.contains(&j) && available(j);
                match self.route(range, may_take) {
                    Some(j) => {
                        self.outstanding[j] += 1;
                        actions.push(Action::Run { range, node: j });
                    }
                    None => self.failed.push((range, error)),
                }
            }
            Event::Rejected(error) => {
                self.rejected.get_or_insert(error);
            }
        }
        if self.doomed() && !was_doomed {
            actions.push(Action::CancelSiblings);
        }
        self.settle(actions);
    }

    /// What fault handling did so far.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    fn route(&self, range: usize, may_serve: impl Fn(usize) -> bool) -> Option<usize> {
        if range < self.outstanding.len() && may_serve(range) {
            return Some(range);
        }
        (0..self.outstanding.len())
            .filter(|&j| may_serve(j))
            .min_by_key(|&j| self.outstanding[j])
    }

    /// A run on `node` reported: a node done with its runs drops its
    /// ticket, unless it is the spare.
    fn ran(&mut self, node: usize, served: bool, actions: &mut Vec<Action>) {
        self.outstanding[node] = self.outstanding[node].saturating_sub(1);
        if self.outstanding[node] == 0
            && !(self.reassign && served && *self.spare.get_or_insert(node) == node)
        {
            self.drop_ticket(node, actions);
        }
    }

    fn drop_ticket(&mut self, node: usize, actions: &mut Vec<Action>) {
        if std::mem::replace(&mut self.tickets[node], false) {
            actions.push(Action::DropTicket(node));
        }
    }

    fn drop_tickets(&mut self, actions: &mut Vec<Action>) {
        (0..self.tickets.len()).for_each(|node| self.drop_ticket(node, actions));
    }

    fn idle(&self) -> bool {
        self.outstanding.iter().all(|&o| o == 0)
    }

    fn doomed(&self) -> bool {
        self.rejected.is_some() || !self.failed.is_empty()
    }

    /// Once nothing runs, every ticket drops and the query ends.
    fn settle(&mut self, actions: &mut Vec<Action>) {
        if !self.idle() {
            return;
        }
        self.drop_tickets(actions);
        self.failed.sort_by_key(|(range, _)| *range);
        let cancelled = |(_, e): &(usize, EngineError)| matches!(e, EngineError::Cancelled(_));
        let root = self.failed.iter().position(|f| !cancelled(f)).unwrap_or(0);
        actions.push(match self.rejected.take() {
            Some(error) => Action::Fail(error),
            None if self.failed.is_empty() => Action::Finish,
            None => Action::Fail(self.failed.swap_remove(root).1),
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// How a run the harness lets report ends.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Outcome {
        /// The partial arrives and the composer folds it.
        Ok,
        /// The partial arrives and the composer rejects it.
        Rejected,
        /// The node did not serve the statement.
        NodeFault,
        /// The statement's own error, the same on every replica.
        StatementError,
        /// The run observed the doomed query's cancel.
        Cancelled,
    }

    use Outcome::*;

    /// Failures (cancels aside) one explored query may meet.
    const MAX_FAILURES: usize = 2;

    /// Each outcome's error names its range, not its node, so one failure
    /// schedule fails with one error whatever the nodes the ranges ran on.
    fn error(outcome: Outcome, range: usize) -> EngineError {
        let what = format!("range {range}");
        match outcome {
            NodeFault => EngineError::Unavailable(what),
            StatementError => EngineError::TypeError(what),
            Cancelled => EngineError::Cancelled(what),
            Ok | Rejected => EngineError::Constraint(what),
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum End {
        Finish,
        Fail(EngineError),
    }

    /// A driver that keeps its own books on the dispatcher's actions and
    /// checks each action against them as it comes.
    #[derive(Clone)]
    struct Harness {
        dispatch: Dispatch,
        reassign: bool,
        /// Runs issued and not reported, as `(range, node)`.
        in_flight: Vec<(usize, usize)>,
        tickets: Vec<bool>,
        tried: Vec<Vec<usize>>,
        /// Node faults per node, and how many open a node's breaker.
        faults: Vec<u32>,
        threshold: u32,
        /// The node each range's accepted partial came from.
        accepted: Vec<Option<usize>>,
        cancels: u32,
        /// Each range's outcomes in order: the failure schedule.
        schedule: Vec<Vec<Outcome>>,
    }

    impl Harness {
        /// Lets in-flight run `i` report `outcome`.
        fn step(&mut self, i: usize, outcome: Outcome) -> Option<End> {
            let (range, node) = self.in_flight.swap_remove(i);
            self.schedule[range].push(outcome);
            self.faults[node] += u32::from(outcome == NodeFault);
            let (faults, threshold) = (self.faults.clone(), self.threshold);
            let event = match outcome {
                Ok | Rejected => Event::Partial(range, node, 1),
                NodeFault | StatementError | Cancelled => {
                    self.tried[range].push(node);
                    Event::Failed {
                        range,
                        node,
                        attempts: 1,
                        node_fault: outcome == NodeFault,
                        error: error(outcome, range),
                        live: self.cancels == 0,
                        available: &|j| faults[j] < threshold,
                    }
                }
            };
            let mut actions = Vec::new();
            self.dispatch.on(event, &mut actions);
            self.apply(actions, Some((range, node, outcome)))
        }

        /// Carries out `actions`, the answer to `reported`'s run.
        fn apply(
            &mut self,
            actions: Vec<Action>,
            reported: Option<(usize, usize, Outcome)>,
        ) -> Option<End> {
            let mut actions = actions.into_iter();
            while let Some(action) = actions.next() {
                match action {
                    Action::Run { range, node } => {
                        let Some((r, _, NodeFault)) = reported else {
                            panic!("{action:?} answers no node fault ({reported:?})");
                        };
                        assert_eq!(r, range, "{action:?} requeues another range");
                        assert!(self.reassign && self.cancels == 0, "{action:?}");
                        assert!(self.tickets[node], "{action:?} to a node without a ticket");
                        let open = self.faults[node] >= self.threshold;
                        assert!(!open, "{action:?} to an open circuit");
                        assert!(
                            !self.tried[range].contains(&node),
                            "{action:?} to a node that failed the range"
                        );
                        self.in_flight.push((range, node));
                    }
                    Action::DropTicket(node) => {
                        assert!(self.tickets[node], "ticket {node} dropped twice");
                        assert!(
                            self.in_flight.iter().all(|&(_, j)| j != node),
                            "ticket {node} dropped under a run: {:?}",
                            self.in_flight
                        );
                        self.tickets[node] = false;
                    }
                    Action::CancelSiblings => {
                        self.cancels += 1;
                        assert_eq!(self.cancels, 1, "the siblings are cancelled twice");
                    }
                    Action::Accept { range, node } => {
                        let Some((r, j, outcome @ (Ok | Rejected))) = reported else {
                            panic!("{action:?} answers no partial ({reported:?})");
                        };
                        assert_eq!((range, node), (r, j), "{action:?} of another partial");
                        assert_eq!(self.accepted[range], None, "range {range} accepted twice");
                        self.accepted[range] = Some(node);
                        if outcome == Rejected {
                            // The composer's error skips the rest of the batch.
                            let mut next = Vec::new();
                            self.dispatch
                                .on(Event::Rejected(error(Rejected, range)), &mut next);
                            return self.apply(next, None);
                        }
                    }
                    Action::Finish | Action::Fail(_) => {
                        assert!(actions.next().is_none(), "{action:?} is not the last");
                        assert!(self.in_flight.is_empty(), "{action:?} under a run");
                        assert!(!self.tickets.contains(&true), "{action:?} under a ticket");
                        return Some(match action {
                            Action::Fail(e) => End::Fail(e),
                            _ => End::Finish,
                        });
                    }
                }
            }
            None
        }

        /// The end the schedule calls for, checked against the one reached.
        fn check(&self, end: &End) {
            let last = |r: usize| self.schedule[r].last().copied();
            let failures: Vec<Outcome> = self
                .schedule
                .iter()
                .flatten()
                .copied()
                .filter(|&o| o != Ok)
                .collect();
            match end {
                End::Finish => {
                    assert_eq!(self.cancels, 0, "a finished query cancelled its siblings");
                    assert!(
                        self.accepted.iter().all(Option::is_some),
                        "{:?}",
                        self.accepted
                    );
                    let report = self.dispatch.recovery();
                    assert_eq!(report.failed_attempts as usize, failures.len());
                    let mut reassigned = report.reassigned.clone();
                    reassigned.sort();
                    let moved: Vec<(usize, usize)> = (self.accepted.iter().enumerate())
                        .filter_map(|(r, j)| j.filter(|&j| j != r).map(|j| (r, j)))
                        .collect();
                    assert_eq!(reassigned, moved);
                }
                End::Fail(e) => {
                    assert_eq!(self.cancels, 1, "a doomed query cancels its siblings once");
                    let rejected = (0..self.schedule.len()).find(|&r| last(r) == Some(Rejected));
                    let dead: Vec<(usize, Outcome)> = (0..self.schedule.len())
                        .filter_map(|r| last(r).map(|o| (r, o)))
                        .filter(|&(_, o)| matches!(o, NodeFault | StatementError | Cancelled))
                        .collect();
                    let root = dead.iter().find(|&&(_, o)| o != Cancelled).or(dead.first());
                    let want = match (rejected, root) {
                        (Some(r), _) => error(Rejected, r),
                        (None, Some(&(r, o))) => error(o, r),
                        (None, None) => panic!("failed with nothing failing: {e:?}"),
                    };
                    assert_eq!(*e, want, "the root cause is lost: {:?}", self.schedule);
                }
            }
            // One node fault and nothing else is recovered whenever another
            // node took part: a finished node holds its ticket as the spare.
            let nodes_used = self
                .tried
                .iter()
                .flatten()
                .chain(self.accepted.iter().flatten());
            let mut used: Vec<usize> = nodes_used.copied().collect();
            used.sort();
            used.dedup();
            if self.reassign && failures == [NodeFault] && used.len() > 1 {
                assert_eq!(*end, End::Finish, "a lone node fault failed the query");
            }
        }
    }

    /// Explores every order in which the in-flight runs report, and every
    /// outcome each may report, from `h` on.
    fn explore(h: &Harness, ends: &mut HashMap<Vec<Vec<Outcome>>, End>, leaves: &mut usize) {
        assert!(
            !h.in_flight.is_empty(),
            "nothing runs and the query is not over"
        );
        let failures = h
            .schedule
            .iter()
            .flatten()
            .filter(|o| **o != Ok && **o != Cancelled);
        let budget = failures.count() < MAX_FAILURES;
        for i in 0..h.in_flight.len() {
            for outcome in [Ok, Rejected, NodeFault, StatementError, Cancelled] {
                let allowed = match outcome {
                    Ok => true,
                    Rejected => budget && h.cancels == 0,
                    NodeFault | StatementError => budget,
                    Cancelled => h.cancels == 1,
                };
                if !allowed {
                    continue;
                }
                let mut next = h.clone();
                match next.step(i, outcome) {
                    None => explore(&next, ends, leaves),
                    Some(end) => {
                        *leaves += 1;
                        next.check(&end);
                        let seen = ends.entry(next.schedule.clone()).or_insert(end.clone());
                        assert_eq!(*seen, end, "arrival order changed {:?}", next.schedule);
                    }
                }
            }
        }
    }

    /// Every arrival order and every set of failing attempts, up to four
    /// nodes in every dispatch-time state (at most one not available at
    /// four), with reassignment off and on, a node's first or second node
    /// fault opening its breaker: each range is accepted once or the query fails
    /// once, with its root cause; a requeue goes to an available ticket
    /// holder that has not failed the range; no ticket drops under
    /// a run and every one drops before the end; the siblings are
    /// cancelled once, by a doomed query only; and the end depends on the
    /// failure schedule, not on the order the runs report in.
    #[test]
    fn every_arrival_order_and_failure_set_keeps_the_invariants() {
        let states = [
            NodeState::Available,
            NodeState::Open,
            NodeState::Quarantined,
        ];
        let mut leaves = 0;
        for n in 1..=4u32 {
            for code in 0..3usize.pow(n) {
                let nodes: Vec<NodeState> =
                    (0..n).map(|j| states[code / 3usize.pow(j) % 3]).collect();
                let down = nodes.iter().filter(|&&s| s != NodeState::Available).count();
                if n == 4 && down > 1 {
                    continue;
                }
                for (reassign, threshold) in [(false, 1), (true, 1), (true, 2)] {
                    let n = n as usize;
                    let mut actions = Vec::new();
                    let Result::Ok(dispatch) = Dispatch::start(n, &nodes, reassign, &mut actions)
                    else {
                        assert!(nodes.iter().all(|&s| s == NodeState::Quarantined));
                        continue;
                    };
                    let any_available = nodes.contains(&NodeState::Available);
                    let allowed = |j: usize| match nodes[j] {
                        NodeState::Available => true,
                        NodeState::Open => !any_available,
                        NodeState::Quarantined => false,
                    };
                    let mut h = Harness {
                        dispatch,
                        reassign,
                        in_flight: Vec::new(),
                        tickets: vec![false; n],
                        tried: vec![Vec::new(); n],
                        faults: vec![0; n],
                        threshold,
                        accepted: vec![None; n],
                        cancels: 0,
                        schedule: vec![Vec::new(); n],
                    };
                    for action in actions {
                        let Action::Run { range, node } = action else {
                            panic!("{action:?} at start");
                        };
                        assert!(allowed(node), "{action:?} on {nodes:?}");
                        assert!(!allowed(range) || node == range, "{action:?} left home");
                        h.tickets[node] = true;
                        h.in_flight.push((range, node));
                    }
                    assert_eq!(h.in_flight.len(), n);
                    explore(&h, &mut HashMap::new(), &mut leaves);
                }
            }
        }
        assert!(leaves > 200_000, "explored {leaves} runs");
    }
}
