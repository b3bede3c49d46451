//! The traced run: personalize replayed stage by stage through the
//! layers' public functions, plus per-operation probes on inputs taken
//! from that replay. All timing happens here, in the benchmark; no span
//! is recorded inside the program.

use std::hint::black_box;
use std::time::Instant;

use uniq_acoustics::measure::{record_point_source, BinauralRecording, MeasurementSetup};
use uniq_core::channel::{estimate_channel, EstimatedChannel};
use uniq_core::fusion::{fuse_weighted, localize_phone, session_to_inputs};
use uniq_core::hrtf::PersonalHrtf;
use uniq_core::nearfield::{assemble_discrete, interpolate, mean_radius};
use uniq_core::pipeline::{PersonalizationError, PersonalizationResult};
use uniq_core::session::run_session;
use uniq_core::UniqConfig;
use uniq_geometry::diffraction::path_to_ear;
use uniq_geometry::vec2::unit_from_theta;
use uniq_geometry::{Ear, HeadBoundary};
use uniq_imu::trajectory::{generate_trajectory, measurement_stops, GesturePlan};
use uniq_subjects::{Subject, FORWARD_RESOLUTION};

/// Seed stride between gesture attempts, as in `personalize_with_retry`.
pub const RETRY_STRIDE: u64 = 10_000;

/// One subject replayed stage by stage.
#[derive(Debug)]
pub struct Replay {
    pub result: Result<PersonalizationResult, PersonalizationError>,
    pub wall_s: f64,
    pub session_s: f64,
    pub fusion_s: f64,
    pub nearfield_s: f64,
    pub nearfar_s: f64,
    pub stops: usize,
    pub attempts: usize,
}

impl Replay {
    /// `1 − (session + fusion + nearfield + nearfar) ÷ wall`: the share of
    /// the replay's wall time no stage accounts for.
    pub fn gap_frac(&self) -> f64 {
        1.0 - (self.session_s + self.fusion_s + self.nearfield_s + self.nearfar_s) / self.wall_s
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `personalize_with_retry(subject, cfg, seed, max_attempts)` as its
/// stages: `run_session` → `session_to_inputs` → `fuse_weighted` → the
/// §4.6 gate → `assemble_discrete`/`interpolate` → `nearfar::convert`,
/// with the same per-attempt seeds.
pub fn replay(subject: &Subject, cfg: &UniqConfig, seed: u64, max_attempts: usize) -> Replay {
    let start = Instant::now();
    let mut r = Replay {
        result: Err(PersonalizationError::FusionFailed),
        wall_s: 0.0,
        session_s: 0.0,
        fusion_s: 0.0,
        nearfield_s: 0.0,
        nearfar_s: 0.0,
        stops: 0,
        attempts: 0,
    };
    r.result = (|| {
        cfg.validate()
            .map_err(PersonalizationError::InvalidConfig)?;
        let mut last_err = PersonalizationError::FusionFailed;
        for attempt in 0..max_attempts {
            r.attempts = attempt + 1;
            let s = seed.wrapping_add(RETRY_STRIDE * attempt as u64);
            let t = Instant::now();
            let session = run_session(subject, cfg, s).map_err(PersonalizationError::Session)?;
            r.session_s += secs(t);
            r.stops += session.stops.len();
            let inputs = session_to_inputs(&session, cfg);
            let t = Instant::now();
            let fusion = fuse_weighted(&inputs, None, cfg);
            r.fusion_s += secs(t);
            let fusion = fusion.ok_or(PersonalizationError::FusionFailed)?;
            let radius = mean_radius(&fusion);
            if radius < cfg.min_radius_m || fusion.mean_residual_deg > cfg.max_fusion_residual_deg {
                last_err = PersonalizationError::GestureRejected {
                    radius_m: radius,
                    residual_deg: fusion.mean_residual_deg,
                };
                continue;
            }
            let t = Instant::now();
            let discrete = assemble_discrete(&session, &fusion, cfg);
            let near = interpolate(&discrete, &fusion, cfg, radius);
            r.nearfield_s += secs(t);
            let t = Instant::now();
            let far = uniq_core::nearfar::convert(&near, &fusion, cfg, radius);
            r.nearfar_s += secs(t);
            let localization = session
                .stops
                .iter()
                .zip(&fusion.final_thetas_deg)
                .map(|(s, &est)| (s.truth_theta_deg, est))
                .collect();
            return Ok(PersonalizationResult {
                hrtf: PersonalHrtf::new(near, far, fusion.head),
                fusion,
                localization,
                radius_m: radius,
                attempts: attempt + 1,
            });
        }
        Err(last_err)
    })();
    r.wall_s = secs(start);
    r
}

/// Per-operation costs measured on one subject's own inputs.
#[derive(Debug, Clone, Default)]
pub struct OpCosts {
    pub record_ms: Vec<f64>,
    pub estimate_ms: Vec<f64>,
    pub wiener_ms: Vec<f64>,
    pub rfft_us: Vec<f64>,
    pub localize_us: Vec<f64>,
    pub path_direct_ns: Vec<f64>,
    pub path_wrapped_ns: Vec<f64>,
    pub boundary_build_us: Vec<f64>,
}

/// Repetitions of each nanosecond-scale geometry query per probe point.
const PATH_REPS: u32 = 64;

/// Times the acoustics, channel, dsp, fusion and geometry operations one
/// personalization performs, on `subject`'s first-attempt gesture and on
/// the head `result` fitted. `probe_stops` bounds how many stops the
/// recording-side probes visit.
pub fn probe_ops(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    result: &PersonalizationResult,
    probe_stops: usize,
) -> OpCosts {
    let mut c = OpCosts::default();
    let renderer = subject.renderer(cfg.render, FORWARD_RESOLUTION);
    let setup = if cfg.in_room {
        MeasurementSetup::home(cfg.render.sample_rate, cfg.snr_db)
    } else {
        MeasurementSetup::anechoic(cfg.render.sample_rate, cfg.snr_db)
    };
    let probe = cfg.probe();
    let system_ir = setup.system.calibrate(&probe, 256);
    let plan = GesturePlan::standard(subject.gesture);
    let traj = generate_trajectory(&plan, seed);
    let stops = measurement_stops(&traj, cfg.stops);
    let step = (stops.len() / probe_stops.max(1)).max(1);
    for (i, stop) in stops.iter().enumerate().step_by(step).take(probe_stops) {
        let t = Instant::now();
        let rec: Option<BinauralRecording> = record_point_source(
            &renderer,
            &setup,
            stop.pos,
            &probe,
            seed.wrapping_add(100 + i as u64),
        );
        c.record_ms.push(secs(t) * 1e3);
        let Some(rec) = rec else { continue };
        let t = Instant::now();
        let ch: Result<EstimatedChannel, _> = estimate_channel(&rec, &probe, &system_ir, cfg);
        c.estimate_ms.push(secs(t) * 1e3);
        black_box(&ch);
        let t = Instant::now();
        black_box(uniq_dsp::deconv::wiener_deconvolve(
            &rec.left,
            &probe,
            cfg.deconv_noise_floor,
            cfg.channel_len,
        ));
        c.wiener_ms.push(secs(t) * 1e3);
        // The transform size `wiener_deconvolve` pads each recording to.
        let n = uniq_dsp::fft::next_pow2(rec.left.len().max(probe.len()) + cfg.channel_len);
        let t = Instant::now();
        black_box(uniq_dsp::fft::rfft_padded(black_box(&rec.left), n));
        c.rfft_us.push(secs(t) * 1e6);
    }

    let t = Instant::now();
    let boundary = HeadBoundary::new(result.fusion.head, cfg.inverse_resolution);
    c.boundary_build_us.push(secs(t) * 1e6);
    for (input_stop, loc) in result.fusion.stops.iter().enumerate() {
        if !loc.radius_m.is_finite() {
            continue;
        }
        let pos = unit_from_theta(loc.theta_deg) * loc.radius_m;
        for ear in [Ear::Left, Ear::Right] {
            let direct = boundary.segment_clear(pos, boundary.vertices()[boundary.ear_index(ear)]);
            let t = Instant::now();
            for _ in 0..PATH_REPS {
                black_box(path_to_ear(black_box(&boundary), black_box(pos), ear));
            }
            let ns = secs(t) * 1e9 / f64::from(PATH_REPS);
            if direct {
                c.path_direct_ns.push(ns);
            } else {
                c.path_wrapped_ns.push(ns);
            }
        }
        // Re-localize from the path lengths the fitted head predicts,
        // hinted by the stop's fused angle.
        let (Some(pl), Some(pr)) = (
            path_to_ear(&boundary, pos, Ear::Left),
            path_to_ear(&boundary, pos, Ear::Right),
        ) else {
            continue;
        };
        let hint = result.fusion.final_thetas_deg[input_stop];
        let t = Instant::now();
        black_box(localize_phone(&boundary, pl.length, pr.length, hint));
        c.localize_us.push(secs(t) * 1e6);
    }
    c
}
