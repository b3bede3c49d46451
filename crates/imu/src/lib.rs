//! # uniq-imu
//!
//! IMU sensor models and hand-gesture trajectory generation for the UNIQ
//! reproduction.
//!
//! The paper's measurement protocol asks a seated user to sweep their
//! smartphone around the head while facing its screen toward their eyes
//! (§4.1). The phone logs 100 Hz IMU data; UNIQ integrates the gyroscope to
//! get the phone's orientation `α`, which equals the polar angle `θ` up to
//! aiming error. This crate simulates all of that:
//!
//! * [`trajectory`] — the arm gesture: a polar sweep with configurable
//!   imperfections (radius wobble, arm droop, aiming error, uneven speed) —
//!   the exact failure modes the paper's gesture auto-correction targets
//!   (§4.6) and that degrade volunteers 4–5 in Fig 19.
//! * [`gyro`] — a consumer gyroscope model: constant bias, white noise and
//!   bias random walk, plus plain rate integration (the "double
//!   integration blows up, so use the gyro only" design point of §4.1).
//! * [`trajectory3d`] — serpentine spherical gestures for the §7 3-D
//!   extension (azimuth + elevation sweeps over multiple rings).

// A result crate: its output feeds the evaluation numbers, so it must
// be deterministic and panic-free (DESIGN.md §9).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(missing_docs)]

pub mod gyro;
pub mod trajectory;
pub mod trajectory3d;

pub use gyro::GyroModel;
pub use trajectory::{GesturePlan, Imperfections, TrajectorySample};
