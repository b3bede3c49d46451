//! HRTF-aware binaural angle-of-arrival estimation (§4.5).
//!
//! Earphone microphones sit behind head diffraction and pinna multipath,
//! so classical array AoA does not apply; UNIQ instead matches recordings
//! against the personalized HRTF template:
//!
//! * **Known source** (Eq. 9): estimate both ear channels by
//!   deconvolution, then minimize
//!   `T(θ) = λ·|t₀ − t(θ)| + [1 − c_L(θ)] + [1 − c_R(θ)]`
//!   over the template bank, combining the first-tap TDoA with the
//!   time-domain channel shapes.
//! * **Unknown source** (Eqs. 10–11): the per-ear channels are
//!   unavailable, so work with the *relative* channel — candidate TDoAs
//!   from its correlation peaks map to front/back angle pairs, and the
//!   multiplicative identity `L·HRTF_R(θ) = R·HRTF_L(θ)` picks the true
//!   one.

use crate::config::UniqConfig;
use uniq_acoustics::measure::BinauralRecording;
use uniq_acoustics::types::HrirBank;
use uniq_dsp::complex::Complex;
use uniq_dsp::deconv::wiener_deconvolve_batch;
use uniq_dsp::fft::{fft_in_place, next_pow2};
use uniq_dsp::peaks::{find_peaks, first_tap};
use uniq_dsp::xcorr::{peak_normalized_xcorr, xcorr};

/// Per-angle template features precomputed from a far-field bank.
#[derive(Debug, Clone)]
pub struct AoaTemplates {
    angles: Vec<f64>,
    /// Relative first-tap delay `t(θ) = tap_R − tap_L`, samples.
    t_rel: Vec<f64>,
}

impl AoaTemplates {
    /// Extracts the TDoA feature curve from a far-field bank.
    pub fn from_bank(bank: &HrirBank, cfg: &UniqConfig) -> Self {
        let mut angles = Vec::with_capacity(bank.len());
        let mut t_rel = Vec::with_capacity(bank.len());
        for (&a, ir) in bank.angles().iter().zip(bank.irs()) {
            let tl = first_tap(&ir.left, cfg.tap_threshold);
            let tr = first_tap(&ir.right, cfg.tap_threshold);
            if let (Some(tl), Some(tr)) = (tl, tr) {
                angles.push(a);
                t_rel.push(tr.position - tl.position);
            }
        }
        AoaTemplates { angles, t_rel }
    }

    /// Template angles.
    pub fn angles(&self) -> &[f64] {
        &self.angles
    }

    /// The TDoA curve, index-aligned with [`AoaTemplates::angles`].
    pub fn t_rel(&self) -> &[f64] {
        &self.t_rel
    }
}

/// Known-source AoA (Eq. 9): returns the estimated angle in degrees.
///
/// `bank` is the personalized (or global, for the baseline) far-field
/// HRTF template.
pub fn estimate_known_source(
    recording: &BinauralRecording,
    source: &[f64],
    bank: &HrirBank,
    cfg: &UniqConfig,
) -> f64 {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_AOA_KNOWN);
    // Ear channels by deconvolution with the known source (batched across
    // the pool; same arithmetic as two sequential calls).
    let pool = uniq_par::pool(cfg.threads);
    let mut chans = wiener_deconvolve_batch(
        &[recording.left.as_slice(), recording.right.as_slice()],
        source,
        cfg.deconv_noise_floor,
        cfg.channel_len,
        &pool,
    );
    #[expect(
        clippy::expect_used,
        reason = "par_map returns exactly one output per input; the batch above has two"
    )]
    let ch_right = chans.pop().expect("batch of two");
    #[expect(
        clippy::expect_used,
        reason = "same two-element batch; second pop cannot fail"
    )]
    let ch_left = chans.pop().expect("batch of two");

    let t0 = match (
        first_tap(&ch_left, cfg.tap_threshold),
        first_tap(&ch_right, cfg.tap_threshold),
    ) {
        (Some(l), Some(r)) => r.position - l.position,
        _ => 0.0,
    };

    let templates = AoaTemplates::from_bank(bank, cfg);
    // Per-template costs are independent: compute them across the pool,
    // then take the argmin with the same sequential strict-< fold the
    // serial sweep used (first minimum wins), so the estimate is
    // bit-identical at any thread count.
    let entries: Vec<(f64, f64, &uniq_acoustics::types::BinauralIr)> = templates
        .angles
        .iter()
        .zip(&templates.t_rel)
        .zip(bank.irs())
        .map(|((&theta, &t_theta), ir)| (theta, t_theta, ir))
        .collect();
    let costs = pool.par_map(&entries, |&(theta, t_theta, ir)| {
        let c_l = peak_normalized_xcorr(&ch_left, &ir.left);
        let c_r = peak_normalized_xcorr(&ch_right, &ir.right);
        let cost = cfg.aoa_lambda * (t0 - t_theta).abs() + (1.0 - c_l) + (1.0 - c_r);
        (cost, theta)
    });
    let mut best = (f64::INFINITY, 0.0);
    for &(cost, theta) in &costs {
        if cost < best.0 {
            best = (cost, theta);
        }
    }
    best.1
}

/// Unknown-source AoA (Eqs. 10–11): returns the estimated angle in
/// degrees.
pub fn estimate_unknown_source(
    recording: &BinauralRecording,
    bank: &HrirBank,
    cfg: &UniqConfig,
) -> f64 {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_AOA_UNKNOWN);
    // Relative channel between the ears: cross-correlation peaks give
    // candidate TDoAs (Fig 14: multiple peaks due to pinna multipath).
    let window = 16_384.min(recording.left.len());
    let left = &recording.left[..window];
    let right = &recording.right[..window];
    let r = xcorr(left, right);
    let peaks = find_peaks(&r, 0.5, 3);
    let zero_lag = right.len() as f64 - 1.0;

    let templates = AoaTemplates::from_bank(bank, cfg);
    // Map each candidate TDoA to template angles whose t(θ) matches.
    let mut candidates: Vec<f64> = Vec::new();
    for p in peaks.iter().take(6) {
        // lag convention: a(t) = b(t + lag) → t0 = tap_R − tap_L = +lag.
        let dt = zero_lag - p.position;
        // Find local minima of |t(θ) − dt| (typically one front + one
        // back angle).
        for w in 0..templates.angles.len() {
            let err = (templates.t_rel[w] - dt).abs();
            let better_than_neighbors = {
                let prev = w
                    .checked_sub(1)
                    .map(|i| (templates.t_rel[i] - dt).abs())
                    .unwrap_or(f64::INFINITY);
                let next = templates
                    .t_rel
                    .get(w + 1)
                    .map(|t| (t - dt).abs())
                    .unwrap_or(f64::INFINITY);
                err <= prev && err <= next
            };
            if better_than_neighbors && err < 3.0 {
                candidates.push(templates.angles[w]);
            }
        }
    }
    if candidates.is_empty() {
        candidates.extend_from_slice(&templates.angles);
    }

    // Eq. 11 disambiguation: minimize ‖L·H_R(θ) − R·H_L(θ)‖ in the
    // frequency domain.
    let n = next_pow2(window + bank.irs()[0].len());
    let fl = spectrum_of(left, n);
    let fr = spectrum_of(right, n);

    // Candidate costs are independent: compute across the pool, argmin
    // with the sequential strict-< fold (first minimum wins) for
    // bit-identical estimates at any thread count.
    let pool = uniq_par::pool(cfg.threads);
    let costs = pool.par_map(&candidates, |&theta| {
        let (ir, _) = bank.nearest(theta);
        let hl = spectrum_of(&ir.left, n);
        let hr = spectrum_of(&ir.right, n);
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 0..n {
            let lhs = fl[k] * hr[k];
            let rhs = fr[k] * hl[k];
            num += (lhs - rhs).norm_sqr();
            den += lhs.norm_sqr() + rhs.norm_sqr();
        }
        (num / den.max(1e-30), theta)
    });
    let mut best = (f64::INFINITY, candidates[0]);
    for &(cost, theta) in &costs {
        if cost < best.0 {
            best = (cost, theta);
        }
    }
    best.1
}

/// Trains the Eq. 9 weight λ by golden-section search over a labelled
/// training set of `(recording, source, true_theta)` triples, minimizing
/// the mean absolute AoA error.
pub fn train_lambda(
    training: &[(BinauralRecording, Vec<f64>, f64)],
    bank: &HrirBank,
    cfg: &UniqConfig,
) -> f64 {
    assert!(!training.is_empty(), "training set must not be empty");
    let objective = |lambda: f64| -> f64 {
        let mut c = cfg.clone();
        c.aoa_lambda = lambda;
        training
            .iter()
            .map(|(rec, src, truth)| {
                let est = estimate_known_source(rec, src, bank, &c);
                uniq_geometry::vec2::angle_diff_deg(est, *truth)
            })
            .sum::<f64>()
            / training.len() as f64
    };
    uniq_optim::golden_section(objective, 0.0, 1.0, 1e-3).0
}

fn spectrum_of(signal: &[f64], n: usize) -> Vec<Complex> {
    let mut buf = vec![Complex::ZERO; n];
    for (b, &s) in buf.iter_mut().zip(signal) {
        *b = Complex::from_real(s);
    }
    fft_in_place(&mut buf);
    buf
}

/// Whether an angle is in the frontal hemisphere (θ < 90°). Used by the
/// Fig 22(d) front-back accuracy metric.
pub fn is_front(theta_deg: f64) -> bool {
    theta_deg.rem_euclid(360.0) < 90.0 || theta_deg.rem_euclid(360.0) > 270.0
}

/// Front-back classification accuracy over `(estimate, truth)` pairs.
pub fn front_back_accuracy(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let correct = pairs
        .iter()
        .filter(|(est, truth)| is_front(*est) == is_front(*truth))
        .count();
    correct as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_acoustics::measure::{record_plane_wave, MeasurementSetup};
    use uniq_acoustics::signals::{generate, SignalKind};
    use uniq_geometry::vec2::angle_diff_deg;
    use uniq_subjects::Subject;

    fn cfg() -> UniqConfig {
        UniqConfig::fast_test()
    }

    fn subject() -> Subject {
        Subject::from_seed(90)
    }

    #[test]
    fn known_source_with_own_template_is_accurate() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();

        for truth in [20.0, 75.0, 140.0] {
            let rec = record_plane_wave(&renderer, &setup, truth, &probe, 7);
            let est = estimate_known_source(&rec, &probe, &bank, &c);
            assert!(
                angle_diff_deg(est, truth) <= 10.0,
                "truth {truth}: est {est}"
            );
        }
    }

    #[test]
    fn known_source_with_wrong_template_degrades() {
        let c = cfg();
        let s = subject();
        let other = Subject::from_seed(91);
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let own = renderer.ground_truth_bank(&angles);
        let wrong = other.renderer(c.render, 1024).ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();

        let mut own_err = 0.0;
        let mut wrong_err = 0.0;
        for truth in [30.0, 60.0, 120.0, 150.0] {
            let rec = record_plane_wave(&renderer, &setup, truth, &probe, 8);
            own_err += angle_diff_deg(estimate_known_source(&rec, &probe, &own, &c), truth);
            wrong_err += angle_diff_deg(estimate_known_source(&rec, &probe, &wrong, &c), truth);
        }
        assert!(
            own_err < wrong_err,
            "personal template not better: {own_err} vs {wrong_err}"
        );
    }

    #[test]
    fn unknown_source_white_noise_reasonable() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let sig = generate(SignalKind::WhiteNoise, 0.3, c.render.sample_rate, 3);

        let mut total = 0.0;
        for truth in [25.0, 70.0, 130.0] {
            let rec = record_plane_wave(&renderer, &setup, truth, &sig, 9);
            let est = estimate_unknown_source(&rec, &bank, &c);
            total += angle_diff_deg(est, truth);
        }
        assert!(
            total / 3.0 < 25.0,
            "mean unknown-source error {}",
            total / 3.0
        );
    }

    #[test]
    fn front_back_helpers() {
        assert!(is_front(10.0));
        assert!(is_front(89.0));
        assert!(!is_front(91.0));
        assert!(!is_front(180.0));
        assert!(is_front(300.0));
        let pairs = [(10.0, 15.0), (120.0, 130.0), (30.0, 160.0)];
        assert!((front_back_accuracy(&pairs) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn templates_tdoa_monotone_to_ninety() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 1024);
        let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let t = AoaTemplates::from_bank(&bank, &c);
        // TDoA should rise from ~0 at the front to a maximum near 90°.
        let i0 = 0;
        let i90 = t
            .angles()
            .iter()
            .position(|a| (*a - 90.0).abs() < 1e-9)
            .unwrap();
        assert!(t.t_rel()[i90] > t.t_rel()[i0] + 5.0);
    }

    #[test]
    fn train_lambda_returns_in_range() {
        let c = cfg();
        let s = subject();
        let renderer = s.renderer(c.render, 512);
        let angles: Vec<f64> = (0..=12).map(|k| k as f64 * 15.0).collect();
        let bank = renderer.ground_truth_bank(&angles);
        let setup = MeasurementSetup::anechoic(c.render.sample_rate, 40.0);
        let probe = c.probe();
        let training: Vec<_> = [40.0, 100.0]
            .iter()
            .map(|&t| {
                (
                    record_plane_wave(&renderer, &setup, t, &probe, 11),
                    probe.clone(),
                    t,
                )
            })
            .collect();
        let lambda = train_lambda(&training, &bank, &c);
        assert!((0.0..=1.0).contains(&lambda));
    }
}
