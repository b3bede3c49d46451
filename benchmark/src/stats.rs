//! Summary statistics and request accounting.

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the value at rank `n - 11` of the sorted samples, with its
/// percentile on the `rank / (n - 1)` scale. `None` below 11 samples,
/// where no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n < TAIL_BEYOND + 1 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND - 1;
    let percentile = if n > 1 {
        100.0 * rank as f64 / (n - 1) as f64
    } else {
        0.0
    };
    Some(Tail {
        value: v[rank],
        percentile,
        samples: n,
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Attempts, failures and answers within their latency limit. A failed
/// request counts against both `failed_frac` and goodput: it misses its
/// limit by definition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub within_limit: u64,
}

impl Tally {
    /// Records one request: `Some(latency)` when it was answered `ok`,
    /// `None` when it failed (error after retries, shed, typed error
    /// reply, or no reply).
    pub fn record(&mut self, latency_s: Option<f64>, limit_s: f64) {
        self.attempted += 1;
        match latency_s {
            Some(l) if l <= limit_s => self.within_limit += 1,
            Some(_) => {}
            None => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_limit += other.within_limit;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed_frac()
    }

    /// Requests answered `ok` within their limit per second of schedule.
    pub fn goodput(&self, schedule_s: f64) -> f64 {
        self.within_limit as f64 / schedule_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: only the minimum has ten beyond it.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (0.0, 0.0, 11));
        // 101 samples 0..=100: p90 has exactly ten beyond it, p91 nine.
        let xs: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // 1001 samples: p99.
        let xs: Vec<f64> = (0..1001).map(f64::from).collect();
        assert!((tail(&xs).unwrap().percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failures_count_against_attempts_and_goodput() {
        let mut t = Tally::default();
        t.record(Some(0.05), 0.1); // ok, within limit
        t.record(Some(0.5), 0.1); // ok, late: not goodput, not a failure
        t.record(None, 0.1); // shed / error / missing reply
        t.record(None, 0.1);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 2);
        assert_eq!(t.failed_frac(), 0.5);
        assert_eq!(t.ok_frac(), 0.5);
        assert_eq!(t.goodput(2.0), 0.5);
        let mut u = Tally::default();
        u.record(Some(0.01), 0.1);
        t.merge(u);
        assert_eq!((t.attempted, t.failed, t.within_limit), (5, 2, 2));
    }
}
