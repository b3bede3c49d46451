//! Result lines: the metrics object the benchmark contract asks for, a
//! detail line with provenance and sample counts before it, and the
//! correctness gates.

use std::fmt::Write as _;

use crate::stats::Tail;

/// Named metrics and free-form details of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    details: Vec<(String, String)>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a tail metric with the percentile it resolved and its
    /// sample count.
    pub fn tail_metric(&mut self, name: &str, tail: Option<Tail>, scale: f64, unit: &'static str) {
        match tail {
            Some(t) => {
                self.metric(name, t.value * scale, unit);
                self.detail(
                    name,
                    format!(
                        "{{\"percentile\": {:.3}, \"samples\": {}}}",
                        t.percentile, t.samples
                    ),
                );
            }
            // Left unmeasured: a run that must report it fails in
            // `result_line`.
            None => self.detail(name, "\"fewer than 11 samples, no tail percentile\"".into()),
        }
    }

    pub fn detail(&mut self, name: &str, json_value: String) {
        self.details.push((name.to_string(), json_value));
    }

    pub fn count(&mut self, name: &str, n: usize) {
        self.detail(name, n.to_string());
    }

    /// Records a failed correctness gate.
    pub fn fail(&mut self, why: String) {
        eprintln!("correctness gate failed: {why}");
        self.failures.push(why);
    }

    /// Checks `expected == actual`, recording a failed gate otherwise.
    pub fn gate_eq(&mut self, what: &str, expected: u64, actual: u64) {
        if expected != actual {
            self.fail(format!(
                "{what}: expected {expected:#018x}, got {actual:#018x}"
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The detail line (provenance, tails, sample counts, gates).
    pub fn detail_line(&self) -> String {
        let mut s = String::from("{\"details\": {");
        for (i, (k, v)) in self.details.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {v}");
        }
        s.push_str("}, \"gate_failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\""));
        }
        s.push_str("]}");
        s
    }

    /// The result line, restricted to `names` in that order. A metric
    /// that was not measured (or is not finite) fails the run.
    pub fn result_line(&mut self, names: &[&str]) -> String {
        let mut body = Vec::new();
        let mut missing = Vec::new();
        for &name in names {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, v, unit)) if v.is_finite() => body.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                )),
                _ => missing.push(name),
            }
        }
        for name in missing {
            self.fail(format!("metric {name} was not measured"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unavailable (not a git work tree)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
