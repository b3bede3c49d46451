//! Scoped tasks: borrow-friendly spawning with panic capture.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::pool::{Job, ThreadPool};
use crate::{lock, unpoisoned};

/// Shared bookkeeping for one [`ThreadPool::scope`] call: how many
/// spawned tasks are still outstanding, and the first panic any of them
/// raised.
pub(crate) struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    pub(crate) fn new() -> ScopeState {
        ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn task_started(&self) {
        *lock(&self.pending) += 1;
    }

    fn task_finished(&self) {
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn store_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = lock(&self.panic);
        // Keep the first panic: with several failing tasks the earliest
        // arrival wins, and the rest are dropped like rayon does.
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        lock(&self.panic).take()
    }

    pub(crate) fn is_done(&self) -> bool {
        *lock(&self.pending) == 0
    }

    /// Blocks briefly until a task completes (or a short timeout, after
    /// which the caller re-checks the queues for newly spawned work).
    pub(crate) fn wait_done_briefly(&self) {
        let pending = lock(&self.pending);
        if *pending == 0 {
            return;
        }
        let _unused = unpoisoned(self.done.wait_timeout(pending, Duration::from_micros(200)));
    }
}

/// A task scope handed to the closure of [`ThreadPool::scope`]. Tasks
/// spawned through it may borrow anything that outlives `'env`.
pub struct Scope<'env> {
    pool: &'env ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`: prevents the scope from being coerced to a
    /// longer environment lifetime, which would let tasks borrow data
    /// that dies before the scope drains.
    _env: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

impl<'env> Scope<'env> {
    pub(crate) fn new(pool: &'env ThreadPool, state: Arc<ScopeState>) -> Scope<'env> {
        Scope {
            pool,
            state,
            _env: PhantomData,
        }
    }

    /// Spawns `f` onto the pool. The task may borrow from the
    /// environment (`'env`); the owning [`ThreadPool::scope`] call does
    /// not return until the task has run to completion or panicked.
    #[expect(
        unsafe_code,
        reason = "the pool's one unsafe block: erasing the job's lifetime; audited below"
    )]
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.task_started();
        let state = self.state.clone();
        // Carry the submitting thread's allocation-attribution stage into
        // the job, so the closure's allocations are attributed exactly as
        // they would be running inline on the caller — the property that
        // makes per-stage allocation totals thread-count-invariant. The
        // job box and queue push themselves are pool infrastructure and
        // stay unattributed.
        let stage = uniq_obs::alloc_stage_handoff();
        let _quiet = uniq_obs::suspend_alloc_stage();
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            uniq_obs::with_alloc_stage(stage, || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    state.store_panic(payload);
                }
                state.task_finished();
            });
        });
        // SAFETY: the job is erased to 'static so it can sit in the
        // pool's 'static queues, but it never outlives 'env in practice:
        // `ThreadPool::scope` blocks (in its Waiter guard, even when the
        // scope closure unwinds) until `pending` reaches zero, and
        // `task_finished` runs strictly after the closure body — so every
        // borrow the closure holds is still alive whenever it executes.
        // The fat-pointer layout of Box<dyn FnOnce> is lifetime-invariant,
        // making the transmute itself a no-op.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                wrapped,
            )
        };
        self.pool.inject(job);
    }
}
