//! # uniq-optim
//!
//! Derivative-free optimization routines used by UNIQ's diffraction-aware
//! sensor fusion (Eq. 2 of the paper) and its calibration steps.
//!
//! The objective functions in this system are built from discretized
//! geometry (polygonal wrap paths, sampled channels), so they are cheap but
//! non-smooth — gradient-free methods are the right tool:
//!
//! * [`nelder_mead`] — the simplex method, used to minimize the head-
//!   parameter mismatch `Σ (α_i − θ_i(E))²` over `E = (a, b, c)`.
//! * [`golden_section`] — 1-D bracketing line search (λ training, Eq. 9).
//! * [`grid_search`] — coarse global sweeps that seed the simplex.
//! * [`solve_2d`] — damped Gauss–Newton for 2-D root finding (iso-delay
//!   curve intersection, Fig 10(b)).

// A result crate: its output feeds the evaluation numbers, so it must
// be deterministic and panic-free (DESIGN.md §9).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(missing_docs)]

/// Options for [`nelder_mead`].
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of simplex iterations.
    pub max_iter: usize,
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex collapses below this size.
    pub x_tol: f64,
    /// Relative size of the initial simplex (per coordinate).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_iter: 400,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a minimization.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Minimizer found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether a tolerance criterion (rather than the iteration cap) fired.
    pub converged: bool,
}

/// Minimizes `f` with the Nelder–Mead simplex method starting from `x0`.
///
/// ```
/// use uniq_optim::{nelder_mead, NelderMeadOptions};
/// let r = nelder_mead(|x| (x[0] - 2.0).powi(2) + x[1].powi(2), &[0.0, 1.0],
///                     &NelderMeadOptions::default());
/// assert!((r.x[0] - 2.0).abs() < 1e-3 && r.x[1].abs() < 1e-3);
/// ```
///
/// Objective values may be `INFINITY` to mark infeasible regions; the
/// simplex will move away from them. NaN objectives panic.
///
/// # Panics
/// Panics if `x0` is empty or `f` returns NaN.
pub fn nelder_mead(f: impl Fn(&[f64]) -> f64, x0: &[f64], opts: &NelderMeadOptions) -> OptimResult {
    assert!(!x0.is_empty(), "nelder_mead: empty start point");
    let n = x0.len();
    let eval = |x: &[f64]| -> f64 {
        let v = f(x);
        assert!(!v.is_nan(), "nelder_mead: objective returned NaN at {x:?}");
        v
    };

    // Initial simplex: x0 plus a perturbed point per coordinate. The step
    // is relative to the coordinate, but floored against the problem's
    // overall scale — a coordinate that happens to start near zero must
    // not get a degenerate (needle-thin) simplex, or the search crawls.
    let scale = x0.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let floor = opts.initial_step * 0.05 * (1.0 + scale);
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    simplex.push((x0.to_vec(), eval(x0)));
    for i in 0..n {
        let mut x = x0.to_vec();
        let step = (x[i].abs() * opts.initial_step).max(floor);
        x[i] += step;
        let fx = eval(&x);
        simplex.push((x, fx));
    }

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..opts.max_iter {
        iterations = it + 1;
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));

        // Convergence checks.
        let best = simplex[0].1;
        let worst = simplex[n].1;
        let spread = (worst - best).abs();
        let size: f64 = (0..n)
            .map(|i| {
                let lo = simplex
                    .iter()
                    .map(|(x, _)| x[i])
                    .fold(f64::INFINITY, f64::min);
                let hi = simplex
                    .iter()
                    .map(|(x, _)| x[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .fold(0.0, f64::max);
        if (spread < opts.f_tol && best.is_finite()) || size < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let centroid: Vec<f64> = (0..n)
            .map(|i| simplex[..n].iter().map(|(x, _)| x[i]).sum::<f64>() / n as f64)
            .collect();
        let worst_x = simplex[n].0.clone();
        let blend = |t: f64| -> Vec<f64> {
            (0..n)
                .map(|i| centroid[i] + t * (centroid[i] - worst_x[i]))
                .collect()
        };

        // Reflection.
        let xr = blend(alpha);
        let fr = eval(&xr);
        if fr < simplex[0].1 {
            // Expansion.
            let xe = blend(gamma);
            let fe = eval(&xe);
            simplex[n] = if fe < fr { (xe, fe) } else { (xr, fr) };
            continue;
        }
        if fr < simplex[n - 1].1 {
            simplex[n] = (xr, fr);
            continue;
        }
        // Contraction (outside if reflected better than worst, else inside).
        let (xc, fc) = if fr < simplex[n].1 {
            let x = blend(rho);
            let fx = eval(&x);
            (x, fx)
        } else {
            let x = blend(-rho);
            let fx = eval(&x);
            (x, fx)
        };
        if fc < simplex[n].1.min(fr) {
            simplex[n] = (xc, fc);
            continue;
        }
        // Shrink toward the best vertex.
        let best_x = simplex[0].0.clone();
        for entry in simplex.iter_mut().skip(1) {
            let x: Vec<f64> = entry
                .0
                .iter()
                .zip(&best_x)
                .map(|(&xi, &bi)| bi + sigma * (xi - bi))
                .collect();
            let fx = eval(&x);
            *entry = (x, fx);
        }
    }

    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (x, fx) = simplex.swap_remove(0);
    OptimResult {
        x,
        fx,
        iterations,
        converged,
    }
}

/// Minimizes a 1-D unimodal function on `[lo, hi]` by golden-section
/// search; returns `(x_min, f_min)`.
///
/// # Panics
/// Panics unless `lo < hi` and `tol > 0`.
pub fn golden_section(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> (f64, f64) {
    assert!(lo < hi, "golden_section: empty interval");
    assert!(tol > 0.0, "golden_section: tolerance must be positive");
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let x = (a + b) / 2.0;
    (x, f(x))
}

/// Evaluates `f` on a regular grid over the axis-aligned box and returns
/// the best point — a cheap global seed for [`nelder_mead`].
///
/// `bounds` gives `(lo, hi)` per dimension; `steps` the number of grid
/// points per dimension (≥ 2).
///
/// # Panics
/// Panics on empty bounds, `steps < 2`, or inverted bounds.
pub fn grid_search(f: impl Fn(&[f64]) -> f64, bounds: &[(f64, f64)], steps: usize) -> OptimResult {
    assert!(!bounds.is_empty(), "grid_search: no bounds");
    assert!(steps >= 2, "grid_search: need at least 2 steps");
    for &(lo, hi) in bounds {
        assert!(lo < hi, "grid_search: inverted bounds ({lo}, {hi})");
    }
    let dims = bounds.len();
    let total = steps.pow(dims as u32);
    let mut best_x = vec![0.0; dims];
    let mut best_f = f64::INFINITY;
    let mut x = vec![0.0; dims];
    for flat in 0..total {
        let mut rem = flat;
        for (d, &(lo, hi)) in bounds.iter().enumerate() {
            let idx = rem % steps;
            rem /= steps;
            x[d] = lo + (hi - lo) * idx as f64 / (steps - 1) as f64;
        }
        let fx = f(&x);
        assert!(!fx.is_nan(), "grid_search: objective returned NaN at {x:?}");
        if fx < best_f {
            best_f = fx;
            best_x.copy_from_slice(&x);
        }
    }
    OptimResult {
        x: best_x,
        fx: best_f,
        iterations: total,
        converged: best_f.is_finite(),
    }
}

/// Solves the 2-D system `r(x) = 0` by damped Gauss–Newton with
/// finite-difference Jacobians, starting from `x0`.
///
/// Returns the solution and the final residual norm; callers should check
/// the norm against their own tolerance. Used to intersect the two
/// iso-delay trajectories of Fig 10(b).
pub fn solve_2d(
    r: impl Fn([f64; 2]) -> [f64; 2],
    x0: [f64; 2],
    max_iter: usize,
) -> ([f64; 2], f64) {
    let norm = |v: [f64; 2]| (v[0] * v[0] + v[1] * v[1]).sqrt();
    let mut x = x0;
    let mut fx = r(x);
    for _ in 0..max_iter {
        let res = norm(fx);
        if res < 1e-12 {
            break;
        }
        // Finite-difference Jacobian.
        let h = 1e-7 * (1.0 + x[0].abs().max(x[1].abs()));
        let fx_dx = r([x[0] + h, x[1]]);
        let fx_dy = r([x[0], x[1] + h]);
        let j = [
            [(fx_dx[0] - fx[0]) / h, (fx_dy[0] - fx[0]) / h],
            [(fx_dx[1] - fx[1]) / h, (fx_dy[1] - fx[1]) / h],
        ];
        let det = j[0][0] * j[1][1] - j[0][1] * j[1][0];
        if det.abs() < 1e-18 {
            break; // singular; give up at current point
        }
        // Newton step: solve J·dx = -f.
        let dx = [
            (-fx[0] * j[1][1] + fx[1] * j[0][1]) / det,
            (-fx[1] * j[0][0] + fx[0] * j[1][0]) / det,
        ];
        // Damped line search: halve until the residual decreases.
        let mut t = 1.0;
        let mut accepted = false;
        for _ in 0..20 {
            let cand = [x[0] + t * dx[0], x[1] + t * dx[1]];
            let fc = r(cand);
            if norm(fc) < res {
                x = cand;
                fx = fc;
                accepted = true;
                break;
            }
            t *= 0.5;
        }
        if !accepted {
            break; // stuck — return best so far
        }
    }
    let res = norm(fx);
    (x, res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let r = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!(r.converged);
        assert!((r.x[0] - 3.0).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "x1 = {}", r.x[1]);
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions {
            max_iter: 5000,
            ..Default::default()
        };
        let r = nelder_mead(f, &[-1.2, 1.0], &opts);
        assert!(r.fx < 1e-8, "fx = {}", r.fx);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn nelder_mead_handles_infinity_walls() {
        // Minimum at 2, infeasible below 1.
        let f = |x: &[f64]| {
            if x[0] < 1.0 {
                f64::INFINITY
            } else {
                (x[0] - 2.0).powi(2)
            }
        };
        let r = nelder_mead(f, &[1.5], &NelderMeadOptions::default());
        assert!((r.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_3d() {
        let f = |x: &[f64]| (x[0] - 0.08).powi(2) + (x[1] - 0.10).powi(2) + (x[2] - 0.09).powi(2);
        let r = nelder_mead(f, &[0.075, 0.095, 0.085], &NelderMeadOptions::default());
        assert!(r.fx < 1e-10);
    }

    #[test]
    #[should_panic(expected = "empty start")]
    fn nelder_mead_empty_start_panics() {
        nelder_mead(|_| 0.0, &[], &NelderMeadOptions::default());
    }

    #[test]
    fn golden_section_parabola() {
        let (x, fx) = golden_section(|x| (x - 1.25).powi(2), -10.0, 10.0, 1e-8);
        assert!((x - 1.25).abs() < 1e-6);
        assert!(fx < 1e-10);
    }

    #[test]
    fn golden_section_asymmetric() {
        let (x, _) = golden_section(|x| (x - 0.1).abs() + 0.5 * x, 0.0, 1.0, 1e-9);
        assert!((x - 0.1).abs() < 1e-6);
    }

    #[test]
    fn grid_search_finds_best_cell() {
        let f = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2);
        let r = grid_search(f, &[(0.0, 1.0), (0.0, 1.0)], 11);
        assert!((r.x[0] - 0.3).abs() < 0.05);
        assert!((r.x[1] - 0.7).abs() < 0.05);
        assert_eq!(r.iterations, 121);
    }

    #[test]
    fn grid_then_simplex_pipeline() {
        // Multi-modal objective: grid finds the right basin, simplex refines.
        let f = |x: &[f64]| {
            let base = (x[0] - 2.0).powi(2);
            base + 0.5 * (5.0 * x[0]).sin().powi(2)
        };
        let seed = grid_search(f, &[(-5.0, 5.0)], 41);
        let r = nelder_mead(f, &seed.x, &NelderMeadOptions::default());
        assert!(r.fx <= seed.fx + 1e-12);
    }

    #[test]
    fn solve_2d_linear_system() {
        // x + y = 3, x - y = 1 → (2, 1).
        let r = solve_2d(|x| [x[0] + x[1] - 3.0, x[0] - x[1] - 1.0], [0.0, 0.0], 50);
        assert!(r.1 < 1e-9);
        assert!((r.0[0] - 2.0).abs() < 1e-6);
        assert!((r.0[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn solve_2d_circle_intersection() {
        // Two circles: centred (0,0) r=5 and (6,0) r=5 → intersection (3, ±4).
        let r = solve_2d(
            |x| {
                [
                    x[0] * x[0] + x[1] * x[1] - 25.0,
                    (x[0] - 6.0).powi(2) + x[1] * x[1] - 25.0,
                ]
            },
            [2.0, 2.0],
            100,
        );
        assert!(r.1 < 1e-8, "residual {}", r.1);
        assert!((r.0[0] - 3.0).abs() < 1e-5);
        assert!((r.0[1].abs() - 4.0).abs() < 1e-5);
    }
}
