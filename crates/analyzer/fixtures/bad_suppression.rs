//! Fixture: malformed suppressions (analyzed as `render`).

pub fn emit(v: f64) {
    // uniq-analyzer: allow(obs-metric-name)
    uniq_obs::metric("render.latency_ms", v, "ms");
    // uniq-analyzer: allow(no-such-rule) — justifying a rule that does not exist
    uniq_obs::counter("render.frames", 1);
}
