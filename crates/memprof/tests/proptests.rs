//! Property tests for the stage-merge algebra.
//!
//! [`AllocSnapshot::total`](uniq_memprof::AllocSnapshot::total) folds the
//! per-stage rows with [`StageAlloc::merged`]; the result is only well
//! defined (independent of row order and grouping) if that operation is a
//! commutative monoid. These tests pin the algebra directly so a future
//! field added to `StageAlloc` without a proper merge rule fails here,
//! not as a drifting total downstream.

use proptest::prelude::*;
use uniq_memprof::StageAlloc;

/// Field bound chosen so that summing a handful of values cannot overflow
/// — the real counters hold byte/event counts far below this.
const M: u64 = u64::MAX / 16;

/// Assembles a `StageAlloc` from two sampled tuples (the vendored
/// proptest stand-in caps tuple strategies at four elements).
fn stage(flow: (u64, u64, u64, u64), peaks: (i64, u64)) -> StageAlloc {
    StageAlloc {
        allocs: flow.0,
        bytes: flow.1,
        frees: flow.2,
        freed_bytes: flow.3,
        peak_live_bytes: peaks.0,
        largest_bytes: peaks.1,
    }
}

/// The strategy pair behind [`stage`], bundled so every test samples the
/// same domain.
fn flow() -> (
    std::ops::Range<u64>,
    std::ops::Range<u64>,
    std::ops::Range<u64>,
    std::ops::Range<u64>,
) {
    (0..M, 0..M, 0..M, 0..M)
}

fn peaks() -> (std::ops::Range<i64>, std::ops::Range<u64>) {
    (i64::MIN / 16..i64::MAX / 16, 0..M)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_is_associative(
        fa in flow(), pa in peaks(),
        fb in flow(), pb in peaks(),
        fc in flow(), pc in peaks(),
    ) {
        let (a, b, c) = (stage(fa, pa), stage(fb, pb), stage(fc, pc));
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
    }

    #[test]
    fn merge_is_commutative(fa in flow(), pa in peaks(), fb in flow(), pb in peaks()) {
        let (a, b) = (stage(fa, pa), stage(fb, pb));
        prop_assert_eq!(a.merged(&b), b.merged(&a));
    }

    #[test]
    fn default_is_the_identity(fa in flow(), pa in peaks()) {
        // `peak_live_bytes` merges by max, so the identity only holds on
        // the non-negative domain the live counters actually occupy.
        let mut a = stage(fa, pa);
        a.peak_live_bytes = a.peak_live_bytes.abs();
        prop_assert_eq!(a.merged(&StageAlloc::default()), a);
        prop_assert_eq!(StageAlloc::default().merged(&a), a);
    }

    #[test]
    fn merge_never_loses_flow_counts(fa in flow(), pa in peaks(), fb in flow(), pb in peaks()) {
        let (a, b) = (stage(fa, pa), stage(fb, pb));
        let m = a.merged(&b);
        prop_assert_eq!(m.allocs, a.allocs + b.allocs);
        prop_assert_eq!(m.bytes, a.bytes + b.bytes);
        prop_assert_eq!(m.frees, a.frees + b.frees);
        prop_assert_eq!(m.freed_bytes, a.freed_bytes + b.freed_bytes);
        prop_assert!(m.largest_bytes >= a.largest_bytes.max(b.largest_bytes));
    }

    /// Folding the row list from either end gives the same totals.
    #[test]
    fn fold_order_is_irrelevant(
        flows in prop::collection::vec((0..M, 0..M, 0..M, 0..M), 1..8),
        peak_list in prop::collection::vec((i64::MIN / 16..i64::MAX / 16, 0..M), 8),
    ) {
        let rows: Vec<StageAlloc> = flows
            .into_iter()
            .zip(peak_list)
            .map(|(f, p)| stage(f, p))
            .collect();
        let left = rows.iter().fold(StageAlloc::default(), |acc, s| acc.merged(s));
        let right = rows
            .iter()
            .rev()
            .fold(StageAlloc::default(), |acc, s| s.merged(&acc));
        prop_assert_eq!(left, right);
    }
}
