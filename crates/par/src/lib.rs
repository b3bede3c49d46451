//! # uniq-par
//!
//! A scoped work-stealing thread pool for the UNIQ personalization
//! pipeline, built on `std` alone (plus `uniq-obs` for allocation
//! attribution — see below). The build environment has no crates.io
//! access, so this crate implements the small subset of rayon's surface
//! the workspace needs — [`ThreadPool::scope`]/[`Scope::spawn`], a chunked
//! [`ThreadPool::par_map`], and panic propagation — from scratch on
//! `std::thread` + `Mutex`/`Condvar`.
//!
//! Design contract, in order:
//!
//! 1. **Determinism.** Parallel results are bit-identical to sequential
//!    ones. [`ThreadPool::par_map`] writes each chunk's output into its
//!    index-ordered slot and reduces in index order, never in completion
//!    order; [`ThreadPool::try_par_map`] evaluates every item and returns
//!    the lowest-index error, exactly what a sequential in-order scan
//!    reports. No atomics-ordered accumulation anywhere.
//! 2. **Panic propagation.** A panicking task is caught on the worker,
//!    carried to the owning [`ThreadPool::scope`] call, and re-raised
//!    there. The pool survives and stays usable.
//! 3. **One thread means zero overhead.** A pool of size 1 spawns no
//!    workers and `par_map` degenerates to a plain sequential `map` on the
//!    caller's thread, preserving the pre-parallel code path exactly.
//!
//! Pools are deduplicated by size through [`pool`], and the default size
//! comes from `UNIQ_THREADS` or the machine's available parallelism.
//!
//! ## Allocation attribution
//!
//! `uniq-memprof` attributes every heap allocation to the active
//! `uniq-obs` span. For per-stage totals to be bit-identical across
//! thread counts — the memory-determinism hard gate — this pool does two
//! things:
//!
//! 1. [`Scope::spawn`] captures the submitting thread's stage
//!    ([`uniq_obs::alloc_stage_handoff`]) into the job and reinstalls it
//!    on the worker, so a parallel closure's allocations land on the same
//!    stage they land on when the closure runs inline on the caller.
//! 2. Pool-owned allocations whose shape varies with thread count — job
//!    boxes, queue growth, chunk buckets, result concatenation — sit
//!    inside [`uniq_obs::suspend_alloc_stage`] regions and stay out of
//!    the per-stage profile entirely.

#![warn(missing_docs)]
// Every result crate runs on this pool, so it is held to the same
// determinism and panic rules (DESIGN.md §9).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod pool;
mod scope;

pub use pool::ThreadPool;
pub use scope::Scope;

use std::sync::{Arc, LockResult, Mutex, MutexGuard, OnceLock};

/// Hard cap on pool size: guards against absurd `UNIQ_THREADS` values.
pub const MAX_THREADS: usize = 256;

/// Parses a thread-count override (the `UNIQ_THREADS` environment
/// variable): a positive integer, clamped to [`MAX_THREADS`]. Returns
/// `None` for absent, empty, zero, or unparsable values.
pub fn threads_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(MAX_THREADS))
}

/// The process-wide default parallelism: `UNIQ_THREADS` if set and valid,
/// otherwise `std::thread::available_parallelism()`. Computed once and
/// cached for the life of the process.
#[expect(
    clippy::disallowed_methods,
    reason = "UNIQ_THREADS and the machine's parallelism pick the pool width only; \
              par_map output is index-ordered and bit-identical at any width"
)]
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        threads_from_env(std::env::var("UNIQ_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(MAX_THREADS))
                .unwrap_or(1)
        })
    })
}

/// Unwraps the result of locking (or waiting on) one of the pool's
/// mutexes. Tasks run under `catch_unwind`, so a poisoned pool mutex
/// means the pool's own bookkeeping panicked mid-update; its queues can
/// no longer be trusted, and the panic propagates.
#[expect(
    clippy::expect_used,
    reason = "a poisoned pool mutex is an unrecoverable pool bug, not an input error"
)]
pub(crate) fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.expect("uniq-par mutex poisoned")
}

/// Locks one of the pool's mutexes; see [`unpoisoned`].
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(mutex.lock())
}

/// Returns the shared pool of the requested size, creating it on first
/// use. `threads == 0` means "default" (see [`default_threads`]). Pools
/// are cached per size and live for the rest of the process, so hot paths
/// can call this per invocation without paying thread-spawn costs.
pub fn pool(threads: usize) -> Arc<ThreadPool> {
    type Registry = Mutex<Vec<(usize, Arc<ThreadPool>)>>;
    static POOLS: OnceLock<Registry> = OnceLock::new();
    let n = if threads == 0 {
        default_threads()
    } else {
        threads.min(MAX_THREADS)
    };
    // Registry growth and pool construction (worker stacks, queues) are
    // one-time infrastructure cost, not stage work.
    let _quiet = uniq_obs::suspend_alloc_stage();
    let mut pools = lock(POOLS.get_or_init(|| Mutex::new(Vec::new())));
    if let Some((_, p)) = pools.iter().find(|(size, _)| *size == n) {
        return p.clone();
    }
    let p = Arc::new(ThreadPool::new(n));
    pools.push((n, p.clone()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("banana")), None);
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 8 ")), Some(8));
        assert_eq!(threads_from_env(Some("100000")), Some(MAX_THREADS));
    }

    #[test]
    fn pool_registry_dedupes_by_size() {
        let a = pool(3);
        let b = pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 3);
        let c = pool(2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn zero_means_default() {
        let d = pool(0);
        assert_eq!(d.threads(), default_threads());
    }

    #[test]
    fn workers_mark_their_index_for_observability() {
        // The calling thread is not a worker.
        assert_eq!(uniq_obs::pool_worker(), None);
        // Chunks run on a spawned worker report its index (< threads - 1);
        // chunks the helping caller ran report None.
        let p = pool(4);
        let items: Vec<u64> = (0..64).collect();
        let ids = p.par_map_chunked(&items, 1, |_| uniq_obs::pool_worker());
        for id in ids.iter().flatten() {
            assert!(*id < p.threads() - 1, "worker index out of range: {id}");
        }
    }
}
