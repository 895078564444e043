//! The per-database worker pool behind morsel-driven parallel execution.
//!
//! The paper's cluster exploits two parallelism tiers — inter-query (one
//! query per node) and intra-query (one sub-query per virtual partition).
//! This module supplies the third: intra-node parallelism across the cores
//! of one node (the paper's testbed machines were 2-way SMPs). A
//! [`WorkerPool`] is started lazily per [`crate::Database`] the first time
//! a statement runs with `SET parallel_workers` ≥ 2 and lives for the
//! database's lifetime; the physical layer
//! (`crate::physical`) splits eligible scans into page-aligned morsels
//! and runs one scan→filter→partial-aggregate pipeline per morsel on this
//! pool, merging partial states in morsel order so results and statistics
//! stay byte-identical to serial execution.
//!
//! The pool itself is deliberately generic: a queue of boxed jobs, a
//! condvar, and [`WorkerPool::scoped_run`], which lets callers enqueue
//! closures borrowing stack data and blocks until every one of them has
//! finished — the same lifetime contract as [`std::thread::scope`], built
//! on persistent threads so per-statement dispatch costs a queue push, not
//! a thread spawn.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads. Workers
/// hold only this (not the pool), so dropping the pool handle is what
/// initiates shutdown.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    self.available.wait(&mut q);
                }
            };
            job();
        }
    }
}

/// A fixed-overhead pool of execution worker threads, grown on demand and
/// joined when dropped.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads.lock().len())
            .finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; threads start on the first [`Self::ensure_threads`].
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Grows the pool to at least `n` threads (never shrinks — a session
    /// lowering `parallel_workers` just leaves the extras idle).
    pub fn ensure_threads(&self, n: usize) {
        let mut threads = self.threads.lock();
        while threads.len() < n {
            let shared = self.shared.clone();
            let name = format!("apuama-worker-{}", threads.len());
            threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || shared.worker_loop())
                    .expect("spawning an execution worker"),
            );
        }
    }

    /// Current thread count.
    pub fn threads(&self) -> usize {
        self.threads.lock().len()
    }

    /// Runs every task on the pool and blocks until all of them have
    /// finished, so tasks may borrow from the caller's stack. A panicking
    /// task does not poison the pool: the panic is captured, the remaining
    /// tasks still run, and the first payload is re-raised here on the
    /// calling thread.
    pub fn scoped_run<'s>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 's>>) {
        if tasks.is_empty() {
            return;
        }
        let done = Arc::new((Mutex::new(tasks.len()), Condvar::new()));
        let panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> = Arc::new(Mutex::new(None));
        {
            let mut q = self.shared.queue.lock();
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
            self.shared.available.notify_all();
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

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for handle in self.threads.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scoped_run_executes_every_task_and_sees_borrows() {
        let pool = WorkerPool::new();
        pool.ensure_threads(3);
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
        pool.scoped_run(tasks);
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn ensure_threads_grows_but_never_shrinks() {
        let pool = WorkerPool::new();
        pool.ensure_threads(2);
        assert_eq!(pool.threads(), 2);
        pool.ensure_threads(1);
        assert_eq!(pool.threads(), 2);
        pool.ensure_threads(4);
        assert_eq!(pool.threads(), 4);
    }

    #[test]
    fn task_panic_propagates_without_poisoning_the_pool() {
        let pool = WorkerPool::new();
        pool.ensure_threads(2);
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
