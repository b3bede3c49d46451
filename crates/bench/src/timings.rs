//! Wall-clock timing of experiment targets, written as
//! `bench_results/timings.json` (no external dependency).
//!
//! Since schema version 2 the file is an object carrying run metadata
//! (seed base, thread count, build id) around the timing entries; the
//! original bare-array shape is still accepted by [`parse_timings`] so
//! existing checked-in results stay readable.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use uniq_obs::json::Json;

/// Schema stamp written into `timings.json` (bump on shape changes).
pub const TIMINGS_SCHEMA_VERSION: u64 = 2;

/// Run metadata attached to a timing log: everything needed to judge
/// whether two timing files are comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingMeta {
    /// File schema version ([`TIMINGS_SCHEMA_VERSION`] when written by
    /// this build).
    pub schema_version: u64,
    /// Base seed of the run's synthetic subjects.
    pub seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Build identifier (crate version + debug/release) — derived from
    /// the binary itself, no git invocation needed.
    pub build: String,
}

impl TimingMeta {
    /// Metadata describing the current process: crate version,
    /// release/debug flavor, and the process-default thread count.
    pub fn current(seed: u64) -> Self {
        TimingMeta {
            schema_version: TIMINGS_SCHEMA_VERSION,
            seed,
            threads: uniq_par::default_threads(),
            build: crate::build_id(),
        }
    }
}

/// Collects `(target, seconds)` entries and writes them as JSON.
#[derive(Debug, Default)]
pub struct TimingLog {
    entries: Vec<(String, f64)>,
    meta: Option<TimingMeta>,
}

impl TimingLog {
    /// An empty log.
    pub fn new() -> Self {
        TimingLog::default()
    }

    /// Attaches run metadata; the log then serializes as a schema-2
    /// object instead of the legacy bare array.
    pub fn set_meta(&mut self, meta: TimingMeta) {
        self.meta = Some(meta);
    }

    /// Runs `f`, recording its wall time under `name`. Returns `f`'s
    /// result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.entries
            .push((name.to_string(), start.elapsed().as_secs_f64()));
        out
    }

    /// The recorded entries, in run order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    fn entries_json(&self, indent: &str) -> String {
        let mut out = String::from("[\n");
        for (i, (name, secs)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "{indent}  {{\"target\": \"{}\", \"seconds\": {}}}{}\n",
                uniq_obs::sink::json_escape(name),
                uniq_obs::sink::json_number(*secs),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str(indent);
        out.push(']');
        out
    }

    /// Renders the log: a schema-2 object when metadata is attached
    /// (see [`TimingLog::set_meta`]), the legacy bare array otherwise.
    pub fn to_json(&self) -> String {
        match &self.meta {
            None => self.entries_json(""),
            Some(meta) => format!(
                "{{\n  \"schema_version\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \
                 \"build\": \"{}\",\n  \"timings\": {}\n}}",
                meta.schema_version,
                meta.seed,
                meta.threads,
                uniq_obs::sink::json_escape(&meta.build),
                self.entries_json("  "),
            ),
        }
    }

    /// Writes `bench_results/timings.json`, creating the directory if
    /// needed.
    ///
    /// # Panics
    /// Panics on I/O errors (experiments are developer tooling).
    pub fn write(&self) {
        let dir = Path::new(crate::RESULTS_DIR);
        fs::create_dir_all(dir).expect("create bench_results dir");
        let path = dir.join("timings.json");
        let mut file = fs::File::create(&path).expect("create timings.json");
        writeln!(file, "{}", self.to_json()).expect("write timings.json");
        println!("  → wrote {}", path.display());
    }
}

/// Parsed `timings.json`: run metadata (absent for the legacy bare-array
/// shape) plus the `(target, seconds)` entries in file order.
pub type ParsedTimings = (Option<TimingMeta>, Vec<(String, f64)>);

/// Reads a `timings.json` document in either shape: the legacy bare
/// array (`[{"target", "seconds"}, …]` → no metadata) or the schema-2
/// object. Returns `(metadata, entries)`.
pub fn parse_timings(text: &str) -> Result<ParsedTimings, String> {
    let doc = Json::parse(text)?;
    let (meta, entries) = match &doc {
        Json::Arr(_) => (None, &doc),
        Json::Obj(_) => {
            let field = |name: &str| {
                doc.get(name)
                    .ok_or_else(|| format!("timings object missing {name:?}"))
            };
            let meta = TimingMeta {
                schema_version: field("schema_version")?
                    .as_u64()
                    .ok_or("schema_version is not an integer")?,
                seed: field("seed")?.as_u64().ok_or("seed is not an integer")?,
                threads: field("threads")?
                    .as_u64()
                    .ok_or("threads is not an integer")? as usize,
                build: field("build")?
                    .as_str()
                    .ok_or("build is not a string")?
                    .to_string(),
            };
            (Some(meta), field("timings")?)
        }
        _ => return Err("timings.json is neither an array nor an object".into()),
    };
    let items = entries.as_array().ok_or("timings is not an array")?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let target = item
            .get("target")
            .and_then(Json::as_str)
            .ok_or("timing entry missing target")?;
        let seconds = item
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or("timing entry missing seconds")?;
        out.push((target.to_string(), seconds));
    }
    Ok((meta, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_serializes() {
        let mut log = TimingLog::new();
        let v = log.time("fig2", || 41 + 1);
        assert_eq!(v, 42);
        log.time("ablations", || ());
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.entries()[0].0, "fig2");
        assert!(log.entries()[0].1 >= 0.0);

        let json = log.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"target\": \"fig2\""));
        assert!(json.contains("\"target\": \"ablations\""));
        // One comma: two entries.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn empty_log_is_valid_json_array() {
        assert_eq!(TimingLog::new().to_json(), "[\n]");
    }

    #[test]
    fn meta_switches_to_object_shape_and_round_trips() {
        let mut log = TimingLog::new();
        log.time("fig2", || ());
        log.set_meta(TimingMeta::current(5000));
        let json = log.to_json();
        assert!(json.starts_with('{'), "not an object: {json}");

        let (meta, entries) = parse_timings(&json).unwrap();
        let meta = meta.expect("metadata lost");
        assert_eq!(meta.schema_version, TIMINGS_SCHEMA_VERSION);
        assert_eq!(meta.seed, 5000);
        assert_eq!(meta.threads, uniq_par::default_threads());
        assert_eq!(meta.build, crate::build_id());
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "fig2");
    }

    #[test]
    fn legacy_array_shape_still_parses() {
        let legacy = r#"[
  {"target": "fig2", "seconds": 1.25},
  {"target": "ablations", "seconds": 0.5}
]"#;
        let (meta, entries) = parse_timings(legacy).unwrap();
        assert!(meta.is_none());
        assert_eq!(
            entries,
            vec![("fig2".to_string(), 1.25), ("ablations".to_string(), 0.5)]
        );
    }

    #[test]
    fn malformed_timings_rejected() {
        assert!(parse_timings("42").is_err());
        assert!(parse_timings("{\"schema_version\": 2}").is_err());
        assert!(parse_timings("[{\"target\": \"x\"}]").is_err());
    }
}
