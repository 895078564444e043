//! The host's worker pool behind morsel-driven parallel execution.
//!
//! The paper's cluster exploits two parallelism tiers — inter-query (one
//! query per node) and intra-query (one sub-query per virtual partition).
//! This module supplies the third: intra-node parallelism across the cores
//! of the host (the paper's testbed machines were 2-way SMPs). There is one
//! [`WorkerPool`] per process, of one thread per core, started by the first
//! statement that runs with `SET parallel_workers` ≥ 2 and never stopped:
//! every [`crate::Database`] of the process — the replicas of an in-process
//! cluster, their forks, the simulator's nodes — queues its morsels on it,
//! so the tiers above share the cores instead of each assuming it owns
//! them. `parallel_workers` is how many tasks one statement splits into,
//! not a thread count. The physical layer (`crate::physical`) splits a
//! fused aggregate's scan into page-aligned morsels and runs one
//! scan→filter→partial-aggregate pipeline per morsel on this pool, merging
//! partial states in morsel order so rows and statistics equal serial
//! execution's (float sums up to their reassociation, DESIGN.md §12).
//!
//! The pool itself is deliberately generic: a queue of boxed jobs, a
//! condvar, and [`WorkerPool::scoped_run`], which lets callers enqueue
//! closures borrowing stack data and blocks until every one of them has
//! finished — the same lifetime contract as [`std::thread::scope`], built
//! on persistent threads so per-statement dispatch costs a queue push, not
//! a thread spawn. A job never queues jobs of its own (a fused plan holds
//! no subquery, so no statement runs inside a fold), so callers waiting on
//! the pool cannot starve it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of execution worker threads draining one job queue.
pub(crate) struct WorkerPool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// The process's pool: one worker per core ([`crate::db::core_count`]),
/// started on first use.
pub(crate) fn host_pool() -> &'static WorkerPool {
    static POOL: OnceLock<&'static WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::start(crate::db::core_count()))
}

impl WorkerPool {
    /// Starts `threads` workers on a pool that lives as long as the
    /// process.
    fn start(threads: usize) -> &'static WorkerPool {
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for i in 0..threads {
            std::thread::Builder::new()
                .name(format!("apuama-worker-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("spawning an execution worker");
        }
        pool
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    self.available.wait(&mut q);
                }
            };
            job();
        }
    }

    /// Runs every task on the pool and blocks until all of them have
    /// finished, so tasks may borrow from the caller's stack. A panicking
    /// task does not poison the pool: the panic is captured, the remaining
    /// tasks still run, and the first payload is re-raised here on the
    /// calling thread.
    pub(crate) fn scoped_run<'s>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 's>>) {
        if tasks.is_empty() {
            return;
        }
        let done = Arc::new((Mutex::new(tasks.len()), Condvar::new()));
        let panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> = Arc::new(Mutex::new(None));
        {
            let mut q = self.queue.lock();
            for task in tasks {
                // SAFETY: the transmute erases the borrow lifetime `'s` so
                // the job fits the queue's `'static` bound. The wait loop
                // below does not return until every job enqueued here has
                // run to completion, so no borrow outlives its referent —
                // the same contract `std::thread::scope` enforces.
                let job: Box<dyn FnOnce() + Send + 'static> =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 's>, Job>(task) };
                let done = done.clone();
                let panic = panic.clone();
                q.push_back(Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                        let mut slot = panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    let (count, cv) = &*done;
                    let mut remaining = count.lock();
                    *remaining -= 1;
                    if *remaining == 0 {
                        cv.notify_all();
                    }
                }));
            }
            self.available.notify_all();
        }
        let (count, cv) = &*done;
        let mut remaining = count.lock();
        while *remaining > 0 {
            cv.wait(&mut remaining);
        }
        drop(remaining);
        let payload = panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn scoped_run_executes_every_task_and_sees_borrows() {
        let sum = AtomicU64::new(0);
        let inputs: Vec<u64> = (1..=100).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = inputs
            .iter()
            .map(|v| {
                let sum = &sum;
                Box::new(move || {
                    sum.fetch_add(*v, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        host_pool().scoped_run(tasks);
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn task_panic_propagates_without_poisoning_the_pool() {
        let pool = host_pool();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_run(vec![
                Box::new(|| panic!("worker exploded")) as Box<dyn FnOnce() + Send>,
                Box::new(|| {}),
            ]);
        }));
        assert!(result.is_err());
        // Pool still works after the panic.
        let ran = AtomicU64::new(0);
        pool.scoped_run(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
