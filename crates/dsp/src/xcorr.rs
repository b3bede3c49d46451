//! Cross-correlation and similarity measures.
//!
//! The paper uses peak-normalized cross-correlation both as its groundwork
//! metric (Fig 2 pinna confusion matrices) and as its headline evaluation
//! metric (HRIR similarity, Figs 18–20). [`peak_normalized_xcorr`]
//! implements exactly that: `max_τ Σ a(t)·b(t+τ)` normalized by the signal
//! energies so identical signals score 1.

use crate::conv::convolve_fft;

/// Full cross-correlation `r[k] = Σ_t a(t) · b(t + (b.len()-1) - k)`.
///
/// Output length is `a.len() + b.len() - 1`; index `b.len() - 1`
/// corresponds to zero lag. Computed via FFT convolution with a reversed
/// operand. Returns an empty vector if either input is empty.
pub fn xcorr(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let b_rev: Vec<f64> = b.iter().rev().copied().collect();
    convolve_fft(a, &b_rev)
}

/// The lag (in samples, positive meaning `b` is delayed relative to `a`)
/// at which the cross-correlation is maximal, plus that maximum value.
///
/// Returns `(0, 0.0)` for empty inputs.
pub fn xcorr_peak_lag(a: &[f64], b: &[f64]) -> (isize, f64) {
    let r = xcorr(a, b);
    if r.is_empty() {
        return (0, 0.0);
    }
    #[expect(clippy::expect_used, reason = "r is non-empty: checked three lines up")]
    let (idx, &val) = r
        .iter()
        .enumerate()
        .max_by(|x, y| x.1.total_cmp(y.1))
        .expect("non-empty");
    // Index b.len()-1 is zero lag; larger index means a leads b, i.e. b is
    // delayed by (idx - (b.len()-1)) samples *negatively*. We define the
    // returned lag so that shifting `b` left by `lag` aligns it with `a`:
    // a(t) ≈ b(t + lag).
    let lag = (b.len() as isize - 1) - idx as isize;
    (lag, val)
}

/// Parabolic (three-point) refinement of the correlation peak, returning a
/// sub-sample lag estimate. Falls back to the integer peak at the edges.
pub fn xcorr_peak_lag_subsample(a: &[f64], b: &[f64]) -> f64 {
    let r = xcorr(a, b);
    if r.is_empty() {
        return 0.0;
    }
    #[expect(clippy::expect_used, reason = "r is non-empty: checked three lines up")]
    let (idx, _) = r
        .iter()
        .enumerate()
        .max_by(|x, y| x.1.total_cmp(y.1))
        .expect("non-empty");
    let zero = b.len() as f64 - 1.0;
    if idx == 0 || idx + 1 >= r.len() {
        return zero - idx as f64;
    }
    let (ym, y0, yp) = (r[idx - 1], r[idx], r[idx + 1]);
    let denom = ym - 2.0 * y0 + yp;
    let frac = if denom.abs() < 1e-30 {
        0.0
    } else {
        0.5 * (ym - yp) / denom
    };
    zero - (idx as f64 + frac.clamp(-0.5, 0.5))
}

/// Peak-normalized cross-correlation similarity in `[-1, 1]`.
///
/// ```
/// use uniq_dsp::xcorr::peak_normalized_xcorr;
/// use uniq_dsp::signal::linear_chirp;
/// let a = linear_chirp(500.0, 4000.0, 0.01, 48_000.0);
/// let mut delayed = vec![0.0; 40];
/// delayed.extend_from_slice(&a);
/// // The metric ignores alignment: a delayed copy still scores 1.
/// assert!((peak_normalized_xcorr(&a, &delayed) - 1.0).abs() < 1e-9);
/// ```
///
/// `max_τ Σ a(t)b(t+τ) / sqrt(Σa² · Σb²)` — the paper's similarity metric
/// for comparing impulse responses irrespective of alignment and gain.
/// Returns 0 when either signal is silent or empty.
pub fn peak_normalized_xcorr(a: &[f64], b: &[f64]) -> f64 {
    let ea: f64 = a.iter().map(|v| v * v).sum();
    let eb: f64 = b.iter().map(|v| v * v).sum();
    if ea <= 0.0 || eb <= 0.0 {
        return 0.0;
    }
    let r = xcorr(a, b);
    let peak = r.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    peak / (ea * eb).sqrt()
}

/// Pearson correlation coefficient between two equal-length slices
/// (no lag search). Returns 0 for degenerate inputs.
///
/// # Panics
/// Panics if lengths differ.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{impulse, linear_chirp};

    #[test]
    fn self_correlation_is_one() {
        let c = linear_chirp(500.0, 4000.0, 0.01, 48000.0);
        assert!((peak_normalized_xcorr(&c, &c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn silent_signal_scores_zero() {
        let c = linear_chirp(500.0, 4000.0, 0.01, 48000.0);
        assert_eq!(peak_normalized_xcorr(&c, &[0.0; 100]), 0.0);
        assert_eq!(peak_normalized_xcorr(&[], &c), 0.0);
    }

    #[test]
    fn shift_invariance_of_peak_metric() {
        let c = linear_chirp(500.0, 4000.0, 0.01, 48000.0);
        let mut shifted = vec![0.0; 37];
        shifted.extend_from_slice(&c);
        assert!((peak_normalized_xcorr(&c, &shifted) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gain_invariance_of_peak_metric() {
        let c = linear_chirp(500.0, 4000.0, 0.01, 48000.0);
        let scaled: Vec<f64> = c.iter().map(|v| v * 3.7).collect();
        assert!((peak_normalized_xcorr(&c, &scaled) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lag_detects_known_shift() {
        let c = linear_chirp(500.0, 6000.0, 0.01, 48000.0);
        let mut delayed = vec![0.0; 25];
        delayed.extend_from_slice(&c);
        let (lag, _) = xcorr_peak_lag(&c, &delayed);
        // b is `c` delayed by 25 samples: aligning b with a needs lag -25
        // under our convention a(t) = b(t + lag) → lag = -25... check sign:
        // a(t) = c(t), b(t) = c(t - 25) → c(t) = b(t + 25) → lag = +25.
        assert_eq!(lag, 25);
    }

    #[test]
    fn lag_sign_symmetry() {
        let c = linear_chirp(500.0, 6000.0, 0.01, 48000.0);
        let mut delayed = vec![0.0; 10];
        delayed.extend_from_slice(&c);
        let (lag_ab, _) = xcorr_peak_lag(&c, &delayed);
        let (lag_ba, _) = xcorr_peak_lag(&delayed, &c);
        assert_eq!(lag_ab, -lag_ba);
    }

    #[test]
    fn subsample_lag_close_to_integer_for_deltas() {
        let a = impulse(64, 10);
        let b = impulse(64, 14);
        let lag = xcorr_peak_lag_subsample(&a, &b);
        // b is a delayed by 4 samples, so the aligning lag is +4.
        assert!((lag - 4.0).abs() < 0.5, "lag = {lag}");
    }

    #[test]
    fn different_chirps_correlate_weakly() {
        let a = linear_chirp(500.0, 2000.0, 0.02, 48000.0);
        let b = linear_chirp(5000.0, 9000.0, 0.02, 48000.0);
        assert!(peak_normalized_xcorr(&a, &b) < 0.3);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c: Vec<f64> = a.iter().map(|v| -v).collect();
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_input_zero() {
        assert_eq!(pearson(&[1.0; 5], &[2.0, 3.0, 1.0, 0.0, 4.0]), 0.0);
    }
}
