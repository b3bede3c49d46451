//! Machine-speed calibration.
//!
//! On a shared 2-vCPU host the same single-threaded personalize has been
//! measured anywhere from 1.2 s to 2.7 s within a minute, while steal
//! time stayed near zero: the virtual CPUs themselves run slower at
//! times. A fixed floating-point kernel, written here and independent
//! of the program, is timed whenever the workload is idle. Compute times
//! are then divided by the run's median slowdown, so timings are
//! reported at one nominal machine speed. The raw times stay on the
//! detail line.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, seconds, that defines speed factor 1.0.
const NOMINAL_KERNEL_S: f64 = 0.0065;

/// How much harder a slow phase hits the measured work than the kernel:
/// the slowdown is the kernel's time ratio to this power. On two sets of
/// 10 runs per workload on the 2-vCPU development host, the per-run
/// median personalize times divided by the run's slowdown spread (IQR /
/// median) 0.024–0.030 (home-seq) and 0.041–0.074 (anechoic-batch) at
/// power 1.25, against 0.032–0.033 and 0.034–0.083 at 1.0. home-seq
/// alone spread least at 1.5, anechoic-batch between 1.0 and 1.25.
const SENSITIVITY: f64 = 1.25;

/// Repetitions per calibration. The median is kept: neighbours on the
/// host slow the machine in bursts, and the work being measured runs
/// through them, so the best repetition would understate the slowdown.
const REPS: usize = 7;

/// Trigonometry, square roots and a small array: the kind of arithmetic
/// fusion and the dsp layer do, in a few milliseconds.
fn kernel() -> f64 {
    let mut v: Vec<f64> = (0..4096).map(|i| f64::from(i) * 1e-3).collect();
    let mut acc = 0.0f64;
    for r in 0..40 {
        for x in v.iter_mut() {
            let y = (*x * 1.0001 + f64::from(r) * 1e-4)
                .sin()
                .mul_add(0.5, x.cos() * 0.25);
            acc += y.abs().sqrt() + y.atan2(1.0 + acc.fract());
            *x = y + 1.0;
        }
    }
    acc
}

/// The machine's current slowdown relative to nominal speed (> 1 when
/// slower), as it bears on the measured work.
pub fn factor() -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64()
        })
        .collect();
    (crate::stats::median(&times) / NOMINAL_KERNEL_S).powf(SENSITIVITY)
}

/// The calibrations of one run.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    factors: Vec<f64>,
}

impl Trace {
    pub fn sample(&mut self) {
        self.factors.push(factor());
    }

    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    pub fn median(&self) -> f64 {
        crate::stats::median(&self.factors)
    }
}
