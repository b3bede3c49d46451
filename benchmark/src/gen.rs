//! Seeded input generation: subject seeds and open-loop arrival
//! schedules. Every function here is a pure function of its arguments,
//! so one workload seed always produces the same inputs.

/// SplitMix64: a tiny, well-mixed generator whose whole state is one
/// word, so each input stream is derived from (workload seed, stream id)
/// without sharing state between streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Input streams drawn from one workload seed.
pub const STREAM_SUBJECTS: u64 = 1;
pub const STREAM_RETURNING: u64 = 2;
pub const STREAM_HIT_PICKS: u64 = 5;
pub const STREAM_ORDER: u64 = 6;

/// Seed of the fixed subject panel. Every run personalizes the same
/// panel, so runs on different seeds compare the same work: a subject's
/// personalize time varies by ±25% with its anatomy, far more than any
/// run-to-run noise.
const PANEL_SEED: u64 = 0x554E_4951;

/// Subject seeds live above 2^40 so they never collide with the small
/// indices of the synthetic artifacts that pre-fill the store.
const SUBJECT_SEED_BASE: u64 = 1 << 40;

/// The `n` subject seeds of `stream` under `seed`, distinct within the
/// stream.
pub fn subject_seeds(seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, stream);
    let mut out: Vec<u64> = Vec::with_capacity(n);
    while out.len() < n {
        let s = SUBJECT_SEED_BASE + (rng.next_u64() >> 24);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// The first `n` subjects of the fixed panel.
pub fn panel(n: usize) -> Vec<u64> {
    subject_seeds(PANEL_SEED, STREAM_SUBJECTS, n)
}

/// `items` in the order the workload seed draws (Fisher–Yates).
pub fn shuffled(items: &[u64], seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, STREAM_ORDER);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// `count` arrival times at a constant rate, one every `spacing_s`
/// seconds starting half a spacing in: an open loop at a fixed offered
/// load, so a run's latencies are not at the mercy of chance clustering.
pub fn fixed_rate_times(count: usize, spacing_s: f64) -> Vec<f64> {
    (0..count).map(|k| (k as f64 + 0.5) * spacing_s).collect()
}

/// Which of `n` returning subjects each of `count` hit requests asks for.
pub fn hit_picks(seed: u64, count: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, STREAM_HIT_PICKS);
    (0..count)
        .map(|_| (rng.next_u64() % n as u64) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subject_lists_are_pure_functions_of_the_seed() {
        assert_eq!(
            subject_seeds(7, STREAM_SUBJECTS, 40),
            subject_seeds(7, STREAM_SUBJECTS, 40)
        );
        assert_ne!(
            subject_seeds(7, STREAM_SUBJECTS, 40),
            subject_seeds(8, STREAM_SUBJECTS, 40)
        );
        assert_ne!(
            subject_seeds(7, STREAM_SUBJECTS, 40),
            subject_seeds(7, STREAM_RETURNING, 40)
        );
        // A longer list extends a shorter one: the run length never
        // changes which subjects come first.
        assert_eq!(
            subject_seeds(7, STREAM_SUBJECTS, 10),
            subject_seeds(7, STREAM_SUBJECTS, 40)[..10]
        );
        let seeds = subject_seeds(7, STREAM_SUBJECTS, 40);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        assert!(seeds.iter().all(|&s| s >= SUBJECT_SEED_BASE));
    }

    #[test]
    fn panel_order_is_a_pure_permutation_of_the_panel() {
        let p = panel(16);
        assert_eq!(p, panel(16));
        assert_eq!(panel(11), p[..11]);
        let a = shuffled(&p, 9);
        assert_eq!(a, shuffled(&p, 9));
        assert_ne!(a, shuffled(&p, 10));
        let mut sorted_a = a.clone();
        sorted_a.sort_unstable();
        let mut sorted_p = p.clone();
        sorted_p.sort_unstable();
        assert_eq!(sorted_a, sorted_p);
    }

    #[test]
    fn arrival_schedules_are_pure_functions_of_the_seed() {
        let times = fixed_rate_times(500, 0.05);
        assert_eq!(times, fixed_rate_times(500, 0.05));
        assert_eq!(times.len(), 500);
        assert!(times.windows(2).all(|w| (w[1] - w[0] - 0.05).abs() < 1e-12));
        assert!(times.iter().all(|&t| (0.0..25.0).contains(&t)));
        assert_eq!(hit_picks(3, 100, 4), hit_picks(3, 100, 4));
        assert_ne!(hit_picks(3, 100, 4), hit_picks(4, 100, 4));
        assert!(hit_picks(3, 100, 4).iter().all(|&i| i < 4));
    }
}
