//! The UNIQ benchmark.
//!
//! ```text
//! uniq-benchmark --workload <home-seq|anechoic-batch>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCH_BASELINE.json` there).
//! Prints a detail line (provenance, tail percentiles, sample counts,
//! failed gates) and then, as the last line, the result object. Exits 1
//! when a correctness gate fails and 2 on bad arguments. See README.md
//! in this directory for the workloads and metrics.

mod client;
mod gen;
mod replay;
mod report;
mod rig;
mod speed;
mod stats;
mod workloads;

use report::{quote, Report};
use workloads::Opts;

/// The allocator the shipped `uniq` binary installs, so the server and
/// pipeline run here as they do there (idle, it costs one relaxed
/// atomic load per allocation).
#[global_allocator]
static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

const WORKLOADS: [&str; 2] = ["home-seq", "anechoic-batch"];

/// Printed with `--trace 0`, in this order.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "personalize_s_p50",
    "personalize_s_tail",
    "subjects_per_s",
    "hit_ms_p50",
    "hit_ms_tail",
    "goodput_rps",
    "loc_err_deg_p50",
    "hrir_sim_mean",
    "ok_frac",
    "peak_rss_mb",
];

/// Printed with `--trace 1`, in this order.
const PER_LAYER: [&str; 31] = [
    "session.s",
    "session.stops",
    "acoustics.record_ms",
    "channel.estimate_ms",
    "dsp.rfft_us",
    "dsp.wiener_ms",
    "fusion.s",
    "fusion.localize_us",
    "fusion.residual_deg",
    "geometry.path_direct_ns",
    "geometry.path_wrapped_ns",
    "geometry.boundary_build_us",
    "pipeline.attempts_mean",
    "nearfield.ms",
    "nearfar.ms",
    "batch.util",
    "store.open_ms",
    "store.lookup_us",
    "store.get_us",
    "store.put_ms",
    "protocol.parse_us",
    "protocol.render_us",
    "serve.service_ms_hit",
    "serve.wait_ms_hit",
    "serve.service_s_miss",
    "serve.cache_hit_ratio",
    "serve.shed",
    "serve.errors",
    "loadgen.late_ms_max",
    "reconcile.gap_frac",
    "trace.overhead_frac",
];

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok((
        workload,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.detail("workload", quote(&workload));
    report.detail("seed", opts.seed.to_string());
    report.detail("seconds", format!("{:?}", opts.seconds));
    report.detail("trace", opts.trace.to_string());
    report.detail(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    report.detail(
        "profile",
        quote(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    report.detail("git_rev", quote(&report::git_rev()));

    let run = match workload.as_str() {
        "home-seq" => workloads::home_seq(&mut report, &opts),
        _ => workloads::anechoic_batch(&mut report, &opts),
    };
    if let Err(e) = run {
        eprintln!("error: {workload}: {e}");
        std::process::exit(1);
    }
    let names: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let result = report.result_line(names);
    println!("{}", report.detail_line());
    println!("{result}");
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let (w, o) =
            parse_args(&args("--workload home-seq --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "home-seq");
        assert_eq!((o.seed, o.seconds, o.trace), (3, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload home-seq --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload home-seq --seed 3 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload home-seq --seed 3 --seconds 1 --bogus 1")).is_err());
    }
}
