//! The worker pool: threads, queues, and the stealing scheduler.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::scope::{Scope, ScopeState};
use crate::{lock, unpoisoned};

/// A unit of queued work. Jobs are always the panic-catching wrappers
/// built by [`Scope::spawn`], so executing one never unwinds into the
/// worker loop.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Process-unique pool identities, used to tell which pool (if any) the
/// current thread works for.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Wakes sleeping workers; the generation counter prevents lost wakeups
/// (a worker only sleeps if the generation is unchanged since it last
/// searched every queue and found nothing).
struct SleepState {
    generation: u64,
    shutdown: bool,
}

pub(crate) struct Shared {
    /// External submissions (from threads that are not workers of this
    /// pool) land here, FIFO.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker: the owner pushes and pops at the back
    /// (LIFO, cache-friendly for nested spawns); thieves steal from the
    /// front (FIFO, oldest-first).
    locals: Vec<Mutex<VecDeque<Job>>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
}

impl Shared {
    /// Pushes a job from the current thread, preferring the thread's own
    /// local queue when it is a worker of this pool.
    fn push(&self, pool_id: usize, job: Job) {
        match WORKER.with(|w| w.get()) {
            Some((id, idx)) if id == pool_id => {
                lock(&self.locals[idx]).push_back(job);
            }
            _ => {
                lock(&self.injector).push_back(job);
            }
        }
        let mut sleep = lock(&self.sleep);
        sleep.generation = sleep.generation.wrapping_add(1);
        drop(sleep);
        self.wake.notify_all();
    }

    /// Finds the next runnable job: own local queue (LIFO), then the
    /// injector, then stealing from the other workers (FIFO).
    pub(crate) fn find_job(&self, me: Option<usize>) -> Option<Job> {
        if let Some(idx) = me {
            if let Some(job) = lock(&self.locals[idx]).pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = lock(&self.injector).pop_front() {
            return Some(job);
        }
        let n = self.locals.len();
        let start = me.map(|i| i + 1).unwrap_or(0);
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = lock(&self.locals[victim]).pop_front() {
                return Some(job);
            }
        }
        None
    }
}

/// A fixed-size pool of worker threads supporting scoped tasks and
/// deterministic parallel maps. See the crate docs for the determinism
/// and panic contracts.
pub struct ThreadPool {
    id: usize,
    threads: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("id", &self.id)
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` total parallelism (clamped to at
    /// least 1). `threads - 1` worker threads are spawned; the caller of
    /// [`ThreadPool::scope`] contributes the final lane by helping to run
    /// queued jobs while it waits, so a pool of size 1 spawns no threads
    /// at all.
    #[expect(
        clippy::expect_used,
        reason = "failing to spawn a worker at pool construction is unrecoverable; \
                  fail fast before any work is accepted"
    )]
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let worker_count = threads - 1;
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..worker_count)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            sleep: Mutex::new(SleepState {
                generation: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("uniq-par-{id}-{idx}"))
                    .spawn(move || worker_loop(shared, id, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            id,
            threads,
            shared,
            workers,
        }
    }

    /// The pool's total parallelism (worker threads plus the helping
    /// scope owner).
    pub fn threads(&self) -> usize {
        self.threads
    }

    pub(crate) fn inject(&self, job: Job) {
        self.shared.push(self.id, job);
    }

    /// The current thread's worker index in *this* pool, if any.
    fn current_worker(&self) -> Option<usize> {
        WORKER
            .with(|w| w.get())
            .and_then(|(id, idx)| if id == self.id { Some(idx) } else { None })
    }

    /// Creates a task scope: `f` may spawn borrowing tasks via
    /// [`Scope::spawn`]; `scope` returns only after every spawned task has
    /// finished. If any task panicked, the first captured panic is
    /// re-raised here (after all tasks completed, so borrows stay sound).
    pub fn scope<'env, T>(&'env self, f: impl FnOnce(&Scope<'env>) -> T) -> T {
        // Scope bookkeeping is pool infrastructure: unsuspended, its Arc
        // allocation would be charged to the caller's open stage in the
        // parallel path only (the sequential fast path never builds a
        // scope), breaking the thread-count invariance of per-stage
        // allocation totals.
        let state = {
            let _quiet = uniq_obs::suspend_alloc_stage();
            Arc::new(ScopeState::new())
        };
        let scope = Scope::new(self, state.clone());
        let result = {
            // Block until the scope drains even if `f` itself panics:
            // spawned tasks may borrow locals of `f`'s caller.
            struct Waiter<'a> {
                pool: &'a ThreadPool,
                state: &'a ScopeState,
            }
            impl Drop for Waiter<'_> {
                fn drop(&mut self) {
                    self.pool.wait_scope(self.state);
                }
            }
            let _waiter = Waiter {
                pool: self,
                state: &state,
            };
            f(&scope)
        };
        if let Some(payload) = state.take_panic() {
            std::panic::resume_unwind(payload);
        }
        result
    }

    /// Runs queued jobs on the calling thread until `state` has no
    /// pending tasks. Helping (rather than blocking) keeps nested scopes
    /// deadlock-free: a worker waiting on an inner scope executes other
    /// runnable tasks, including the inner scope's own.
    fn wait_scope(&self, state: &ScopeState) {
        let me = self.current_worker();
        loop {
            if state.is_done() {
                return;
            }
            match self.shared.find_job(me) {
                Some(job) => job(),
                None => state.wait_done_briefly(),
            }
        }
    }

    /// Deterministic parallel map with an automatically chosen chunk
    /// size. Output order always matches input order, and every element
    /// is produced by the same `f(&item)` call the sequential map would
    /// make — scheduling affects only *when*, never *what*.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        // Aim for a few chunks per lane so stealing can balance load, but
        // never chunks so small the queue overhead dominates.
        let chunk = (items.len() / (4 * self.threads)).max(1);
        self.par_map_chunked(items, chunk, f)
    }

    /// [`ThreadPool::par_map`] with an explicit chunk size (`>= 1`):
    /// items are processed in `chunk`-sized runs, each run's outputs kept
    /// together and concatenated in index order.
    ///
    /// # Panics
    /// Panics if `chunk == 0`, or re-raises the first panic from `f`.
    pub fn par_map_chunked<T, U, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        assert!(chunk >= 1, "chunk size must be at least 1");
        // Output-collection Vecs are pool infrastructure: their count and
        // sizes depend on the chunking, not the workload, so they are
        // allocated under suspended attribution on *both* paths — per-item
        // work inside `f` is all the memory profiler sees, which keeps
        // per-stage allocation totals identical at any thread count.
        if self.threads == 1 || items.len() <= chunk {
            let mut out = {
                let _quiet = uniq_obs::suspend_alloc_stage();
                Vec::with_capacity(items.len())
            };
            for item in items {
                out.push(f(item));
            }
            return out;
        }
        let buckets: Mutex<Vec<(usize, Vec<U>)>> = {
            let _quiet = uniq_obs::suspend_alloc_stage();
            Mutex::new(Vec::with_capacity(items.len() / chunk + 1))
        };
        self.scope(|s| {
            for (index, run) in items.chunks(chunk).enumerate() {
                let buckets = &buckets;
                let f = &f;
                s.spawn(move || {
                    let mut values = {
                        let _quiet = uniq_obs::suspend_alloc_stage();
                        Vec::with_capacity(run.len())
                    };
                    for item in run {
                        values.push(f(item));
                    }
                    let _quiet = uniq_obs::suspend_alloc_stage();
                    lock(buckets).push((index, values));
                });
            }
        });
        let _quiet = uniq_obs::suspend_alloc_stage();
        let mut buckets = unpoisoned(buckets.into_inner());
        // Ordered reduction: completion order is scheduling noise; index
        // order is the sequential truth.
        buckets.sort_unstable_by_key(|(index, _)| *index);
        let mut out = Vec::with_capacity(items.len());
        for (_, values) in buckets {
            out.extend(values);
        }
        debug_assert_eq!(out.len(), items.len());
        out
    }

    /// Fallible deterministic parallel map. Every item is evaluated (so
    /// side channels like metrics see the same set of calls at any thread
    /// count), then the lowest-index error — the one a sequential
    /// in-order scan would hit first — is returned.
    pub fn try_par_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        let results = self.par_map(items, f);
        let _quiet = uniq_obs::suspend_alloc_stage();
        let mut out = Vec::with_capacity(results.len());
        for result in results {
            out.push(result?);
        }
        Ok(out)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut sleep = lock(&self.shared.sleep);
            sleep.shutdown = true;
            sleep.generation = sleep.generation.wrapping_add(1);
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, pool_id: usize, index: usize) {
    WORKER.with(|w| w.set(Some((pool_id, index))));
    uniq_obs::mark_pool_worker(index);
    loop {
        // Snapshot the wakeup generation *before* searching, so a push
        // that races with the search bumps the generation and the sleep
        // below returns immediately.
        let seen = {
            let sleep = lock(&shared.sleep);
            if sleep.shutdown {
                return;
            }
            sleep.generation
        };
        if let Some(job) = shared.find_job(Some(index)) {
            job();
            continue;
        }
        let mut sleep = lock(&shared.sleep);
        while sleep.generation == seen && !sleep.shutdown {
            sleep = unpoisoned(shared.wake.wait(sleep));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test asserts on thread identity"
    )]
    fn single_thread_pool_runs_on_caller() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.par_map(&[1, 2, 3], |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.par_map_chunked(&items, 7, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        let data = [5u64, 6, 7];
        pool.scope(|s| {
            for &v in &data {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 18);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let out = pool.par_map(&[10usize, 20, 30, 40], |&base| {
            // Inner parallelism on the same (registry) pool from a task.
            let inner = crate::pool(2).par_map_chunked(&[base, base + 1, base + 2], 1, |&x| x);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![33, 63, 93, 123]);
    }

    #[test]
    fn try_par_map_returns_lowest_index_error() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let result: Result<Vec<usize>, usize> =
            pool.try_par_map(&items, |&x| if x == 13 || x == 77 { Err(x) } else { Ok(x) });
        assert_eq!(result, Err(13));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(3);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |&x| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = outcome.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 5"), "payload: {message}");
        // The pool must remain fully usable afterwards.
        let out = pool.par_map_chunked(&[1, 2, 3, 4], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4, 5]);
    }
}
