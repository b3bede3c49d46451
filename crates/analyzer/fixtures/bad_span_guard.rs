//! Fixture: span guards dropped on the spot (analyzed as `core`). Only
//! `let _ = …` is the analyzer's: the bare statement on line 6 is
//! rustc's `unused_must_use`, since `span` is `#[must_use]`.

pub fn run() {
    let _ = uniq_obs::span("fusion");
    compute();
    uniq_obs::span("render");
}

fn compute() {}
