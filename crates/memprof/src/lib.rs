//! # uniq-memprof
//!
//! Span-attributed allocation profiling for the UNIQ pipeline: a
//! `std`-only counting wrapper around the system allocator that
//! attributes every heap allocation to the active `uniq-obs` span, so
//! each `SPAN_*` stage gets a memory profile alongside its latency
//! profile. Zero external dependencies. The snapshot types
//! ([`AllocSnapshot`], [`StageAlloc`]) live in `uniq_obs::alloc`, so the
//! recorder can fold a snapshot into its report; this crate is the
//! allocator shim that fills them.
//!
//! ## Install + measure
//!
//! The wrapper is installed per binary with `#[global_allocator]` and is
//! inert (one relaxed atomic load per allocation) until [`start`] flips
//! it on:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();
//!
//! uniq_memprof::reset();
//! uniq_memprof::start();
//! run_workload();
//! uniq_memprof::stop();
//! let snapshot = uniq_memprof::snapshot();
//! ```
//!
//! ## Attribution and determinism model
//!
//! The hook reads [`uniq_obs::alloc_stage`] — the innermost open span on
//! the allocating thread, carried across `uniq-par` worker boundaries by
//! the pool itself — and charges the allocation to that stage's row of
//! fixed static atomics (one row per registered span name). Per-stage
//! **allocation count and bytes are a pure function of the workload**:
//! bit-identical across repeated runs and across thread counts. That is
//! the hard baseline gate.
//!
//! Peak-live bytes are *not* deterministic — the process-wide live
//! maximum depends on which stages overlap in time, i.e. on scheduling —
//! and per-stage frees can migrate between stages when an object is
//! allocated in one stage and dropped in another. Those columns are
//! warn-tier evidence only (see DESIGN.md §10).
//!
//! Infrastructure allocations (sink dispatch, pool queues and buckets)
//! run under [`uniq_obs::suspend_alloc_stage`] and land in the
//! `unattributed` row, which no gate compares.
//!
//! ## Hook safety
//!
//! A global allocator must never allocate, so the hook path touches only
//! `const`-initialized thread-locals (`Cell`s), fixed static atomic
//! arrays, and the `'static` span-name registry. A per-thread
//! re-entrancy latch makes the hook a plain pass-through if anything in
//! it ever allocates, instead of recursing.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub use uniq_obs::alloc::{AllocSnapshot, StageAlloc, ALLOC_SCHEMA_VERSION};

/// The stages the hook attributes to: the registered span names, one row
/// each by registry index.
const SPANS: &[&str] = uniq_obs::names::ALL_SPANS;
/// Row index for allocations with no stage attribution.
const UNATTRIBUTED: usize = SPANS.len();
/// Row index for allocations under a span name outside the registry
/// (zero for the audited pipeline, whose every name is registered).
const OVERFLOW: usize = SPANS.len() + 1;
/// Total rows: named stages plus the two synthetic rows.
const TRACKS: usize = SPANS.len() + 2;

/// Whether the hook records anything (one relaxed load per allocation
/// when off).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Set by the first allocation that passes through the counting wrapper;
/// lets CLI code detect a binary built without `#[global_allocator]`.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Per-stage counters: the deterministic flow columns (allocs, bytes,
/// frees, freed bytes) and the warn-tier live/peak/largest columns.
static ALLOCS: [AtomicU64; TRACKS] = [const { AtomicU64::new(0) }; TRACKS];
static BYTES: [AtomicU64; TRACKS] = [const { AtomicU64::new(0) }; TRACKS];
static FREES: [AtomicU64; TRACKS] = [const { AtomicU64::new(0) }; TRACKS];
static FREED_BYTES: [AtomicU64; TRACKS] = [const { AtomicU64::new(0) }; TRACKS];
static LIVE: [AtomicI64; TRACKS] = [const { AtomicI64::new(0) }; TRACKS];
static PEAK: [AtomicI64; TRACKS] = [const { AtomicI64::new(0) }; TRACKS];
static LARGEST: [AtomicU64; TRACKS] = [const { AtomicU64::new(0) }; TRACKS];

/// Process-wide live/peak across all stages (the headline peak-live).
static GLOBAL_LIVE: AtomicI64 = AtomicI64::new(0);
static GLOBAL_PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Re-entrancy latch: true while this thread is inside the recording
    /// path. Nothing in that path allocates, but if that ever regresses
    /// the latch degrades the hook to a pass-through instead of a stack
    /// overflow.
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

/// The row for stage `name`: its index in the span registry.
fn track_for(name: &str) -> usize {
    SPANS.iter().position(|s| *s == name).unwrap_or(OVERFLOW)
}

/// Runs `record` on the current allocation's row, unless this thread is
/// already inside the hook.
fn hook(record: impl FnOnce(usize)) {
    if IN_HOOK.with(|latch| latch.replace(true)) {
        return;
    }
    record(match uniq_obs::alloc_stage() {
        Some(name) => track_for(name),
        None => UNATTRIBUTED,
    });
    IN_HOOK.with(|latch| latch.set(false));
}

fn record_alloc(size: usize) {
    hook(|track| {
        ALLOCS[track].fetch_add(1, Ordering::Relaxed);
        BYTES[track].fetch_add(size as u64, Ordering::Relaxed);
        LARGEST[track].fetch_max(size as u64, Ordering::Relaxed);
        let live = LIVE[track].fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK[track].fetch_max(live, Ordering::Relaxed);
        let global = GLOBAL_LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        GLOBAL_PEAK.fetch_max(global, Ordering::Relaxed);
    });
}

fn record_free(size: usize) {
    hook(|track| {
        FREES[track].fetch_add(1, Ordering::Relaxed);
        FREED_BYTES[track].fetch_add(size as u64, Ordering::Relaxed);
        LIVE[track].fetch_sub(size as i64, Ordering::Relaxed);
        GLOBAL_LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    });
}

/// The counting wrapper around [`std::alloc::System`]. Install it once
/// per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// Const constructor for the `#[global_allocator]` static.
    pub const fn new() -> CountingAllocator {
        CountingAllocator
    }
}

#[expect(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; every method forwards to System"
)]
// SAFETY: every method forwards the caller's request verbatim to
// `System`, which upholds the `GlobalAlloc` contract; the recording side
// only touches static atomics and const-initialized thread-locals and
// never allocates, deallocates, or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !INSTALLED.load(Ordering::Relaxed) {
            INSTALLED.store(true, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations are forwarded
        // unchanged to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are forwarded
        // unchanged to the system allocator.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            record_free(layout.size());
        }
        // SAFETY: `ptr` was returned by this allocator with this
        // `layout`, per the caller's `dealloc` contract; `System` only
        // ever sees pointers it produced because every alloc path above
        // forwards to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout`/`new_size` obligations are the caller's,
        // forwarded unchanged; `ptr` originated from `System` (see
        // `dealloc`).
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            // Counted as free-old + alloc-new: sizes stay exact and a
            // grow-in-place is indistinguishable from move, keeping the
            // counters a pure function of the request sequence.
            record_free(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// Whether any allocation has passed through a [`CountingAllocator`] in
/// this process — i.e. whether the binary installed it as
/// `#[global_allocator]`. Used by CLI/test code to fail loudly instead of
/// reporting all-zero profiles.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Starts recording. Cheap to call redundantly.
pub fn start() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording (the hook reverts to one relaxed load per allocation).
pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the profiler is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter. Call while the workload is quiescent —
/// concurrent recording during a reset yields a torn (but still safe)
/// profile.
pub fn reset() {
    for c in [&ALLOCS, &BYTES, &FREES, &FREED_BYTES, &LARGEST]
        .into_iter()
        .flatten()
    {
        c.store(0, Ordering::Relaxed);
    }
    for c in LIVE.iter().chain(&PEAK).chain([&GLOBAL_LIVE, &GLOBAL_PEAK]) {
        c.store(0, Ordering::Relaxed);
    }
}

fn track_stats(track: usize) -> StageAlloc {
    StageAlloc {
        allocs: ALLOCS[track].load(Ordering::Relaxed),
        bytes: BYTES[track].load(Ordering::Relaxed),
        frees: FREES[track].load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES[track].load(Ordering::Relaxed),
        peak_live_bytes: PEAK[track].load(Ordering::Relaxed),
        largest_bytes: LARGEST[track].load(Ordering::Relaxed),
    }
}

/// The current counters as a snapshot; stages that saw no traffic are
/// left out, the rest appear in name order.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        stages: SPANS
            .iter()
            .enumerate()
            .map(|(idx, name)| (name.to_string(), track_stats(idx)))
            .filter(|(_, stats)| *stats != StageAlloc::default())
            .collect(),
        unattributed: track_stats(UNATTRIBUTED),
        overflow: track_stats(OVERFLOW),
        peak_live_bytes: GLOBAL_PEAK.load(Ordering::Relaxed),
    }
}

/// Runs `f` with the profiler recording into freshly zeroed counters and
/// returns its result alongside the resulting snapshot. The enabled flag
/// is restored afterwards. Counters are process-global: concurrent
/// `measure` calls interleave, so gate-grade callers serialize.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let was_enabled = enabled();
    reset();
    start();
    let value = f();
    if !was_enabled {
        stop();
    }
    (value, snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global; tests that measure serialize here.
    static MEASURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn stages_map_to_their_registry_rows() {
        use uniq_obs::names::{SPAN_FUSION, SPAN_SESSION};
        assert_eq!(track_for(SPAN_FUSION), track_for(SPAN_FUSION));
        assert_ne!(track_for(SPAN_FUSION), track_for(SPAN_SESSION));
        assert_eq!(track_for("memprof.test.unregistered"), OVERFLOW);
    }

    // Note: tests exercising the live hook (counting real allocations)
    // live in the workspace `memprof` integration test, whose binary
    // installs the `#[global_allocator]`; unit tests here cannot, because
    // every test binary in this crate shares the default allocator.

    #[test]
    fn measure_without_installed_allocator_reports_empty() {
        let _serial = MEASURE_LOCK.lock().unwrap();
        let ((), snap) = measure(|| {
            let v: Vec<u64> = (0..100).collect();
            std::hint::black_box(&v);
        });
        // No #[global_allocator] in this binary: nothing recorded.
        assert!(!installed());
        assert_eq!(snap.total(), StageAlloc::default());
    }
}
