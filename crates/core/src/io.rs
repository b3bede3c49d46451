//! HRTF table serialization — the §4.4 export interface.
//!
//! "The near and far-field HRTFs estimated by UNIQ can now be exported to
//! earphone applications as a lookup table." This module defines that
//! table as a simple, versioned, line-oriented text format (`.uniqhrtf`)
//! with a writer and a strict parser, so a personalization run on one
//! device can ship its result to any playback application.
//!
//! Format:
//!
//! ```text
//! UNIQHRTF 1
//! sample_rate 48000
//! head 0.075 0.100 0.090
//! ir_len 512
//! near <angle> <left samples…> <right samples…>    (one line per angle)
//! far  <angle> <left samples…> <right samples…>
//! ```

use crate::hrtf::PersonalHrtf;
use std::fmt::Write as _;
use uniq_acoustics::types::{BinauralIr, HrirBank};
use uniq_geometry::HeadParams;

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from parsing a serialized table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Missing or malformed magic/version line.
    BadHeader(String),
    /// A structural field is missing or malformed.
    BadField(String),
    /// An HRIR line is malformed (wrong arity, non-numeric sample, …).
    BadEntry(String),
    /// The file parsed but describes an inconsistent table.
    Inconsistent(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad header: {s}"),
            ParseError::BadField(s) => write!(f, "bad field: {s}"),
            ParseError::BadEntry(s) => write!(f, "bad entry: {s}"),
            ParseError::Inconsistent(s) => write!(f, "inconsistent table: {s}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a personalized HRTF to the `.uniqhrtf` text format.
///
/// ```no_run
/// use uniq_core::{config::UniqConfig, pipeline::personalize};
/// use uniq_subjects::Subject;
/// let hrtf = personalize(&Subject::from_seed(1), &UniqConfig::default(), 1)
///     .unwrap()
///     .hrtf;
/// let text = uniq_core::io::to_string(&hrtf);
/// let restored = uniq_core::io::from_str(&text).unwrap();
/// assert_eq!(restored.near().len(), hrtf.near().len());
/// ```
pub fn to_string(hrtf: &PersonalHrtf) -> String {
    let mut out = String::new();
    let head = hrtf.head();
    // `fmt::Write` into a String cannot fail; discard the Ok(()) rather
    // than unwrap so this path is structurally panic-free.
    let _ = writeln!(out, "UNIQHRTF {FORMAT_VERSION}");
    let _ = writeln!(out, "sample_rate {}", hrtf.sample_rate());
    let _ = writeln!(out, "head {} {} {}", head.a, head.b, head.c);
    let _ = writeln!(out, "ir_len {}", hrtf.near().irs()[0].len());
    let dump = |out: &mut String, tag: &str, bank: &HrirBank| {
        for (angle, ir) in bank.angles().iter().zip(bank.irs()) {
            let _ = write!(out, "{tag} {angle}");
            for v in ir.left.iter().chain(&ir.right) {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
    };
    dump(&mut out, "near", hrtf.near());
    dump(&mut out, "far", hrtf.far());
    out
}

/// Parses a `.uniqhrtf` document back into a [`PersonalHrtf`].
pub fn from_str(text: &str) -> Result<PersonalHrtf, ParseError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());

    let header = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty document".into()))?;
    let mut hp = header.split_whitespace();
    if hp.next() != Some("UNIQHRTF") {
        return Err(ParseError::BadHeader(format!("bad magic in {header:?}")));
    }
    let version: u32 = hp
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseError::BadHeader("missing version".into()))?;
    if version != FORMAT_VERSION {
        return Err(ParseError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }

    let mut field = |name: &str| -> Result<Vec<f64>, ParseError> {
        let line = lines
            .next()
            .ok_or_else(|| ParseError::BadField(format!("missing {name}")))?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some(name) {
            return Err(ParseError::BadField(format!(
                "expected {name}, got {line:?}"
            )));
        }
        parts
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| ParseError::BadField(format!("bad number in {name}")))
            })
            .collect()
    };

    let sample_rate = field("sample_rate")?;
    let sample_rate = *sample_rate
        .first()
        .ok_or_else(|| ParseError::BadField("empty sample_rate".into()))?;
    let head_vals = field("head")?;
    if head_vals.len() != 3 {
        return Err(ParseError::BadField("head needs 3 axes".into()));
    }
    let ir_len_vals = field("ir_len")?;
    let ir_len = *ir_len_vals
        .first()
        .ok_or_else(|| ParseError::BadField("empty ir_len".into()))? as usize;
    if ir_len == 0 {
        return Err(ParseError::BadField("ir_len must be positive".into()));
    }

    let mut near: Vec<(f64, BinauralIr)> = Vec::new();
    let mut far: Vec<(f64, BinauralIr)> = Vec::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap_or("");
        let dest = match tag {
            "near" => &mut near,
            "far" => &mut far,
            other => {
                return Err(ParseError::BadEntry(format!("unknown tag {other:?}")));
            }
        };
        let nums: Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
        let nums =
            nums.map_err(|_| ParseError::BadEntry(format!("non-numeric sample in {line:?}")))?;
        if nums.len() != 1 + 2 * ir_len {
            return Err(ParseError::BadEntry(format!(
                "expected {} values, found {} in a {tag} entry",
                1 + 2 * ir_len,
                nums.len()
            )));
        }
        let angle = nums[0];
        let left = nums[1..1 + ir_len].to_vec();
        let right = nums[1 + ir_len..].to_vec();
        dest.push((angle, BinauralIr::new(left, right)));
    }

    if near.is_empty() || far.is_empty() {
        return Err(ParseError::Inconsistent(
            "table needs at least one near and one far entry".into(),
        ));
    }
    let head = HeadParams::new(head_vals[0], head_vals[1], head_vals[2]);
    Ok(PersonalHrtf::new(
        HrirBank::new(near, sample_rate),
        HrirBank::new(far, sample_rate),
        head,
    ))
}

/// Writes the table to a file.
///
/// # Errors
/// Propagates I/O errors.
pub fn save(hrtf: &PersonalHrtf, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_string(hrtf))
}

/// Loads a table from a file.
///
/// # Errors
/// Returns I/O errors as `ParseError::BadHeader` (file unreadable) and
/// format errors as their specific variants.
pub fn load(path: &std::path::Path) -> Result<PersonalHrtf, ParseError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseError::BadHeader(format!("cannot read {path:?}: {e}")))?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_acoustics::types::RenderConfig;
    use uniq_geometry::HeadBoundary;

    fn table() -> PersonalHrtf {
        let cfg = RenderConfig {
            ir_len: 256,
            ..RenderConfig::default()
        };
        let head = HeadParams::average_adult();
        let r = Renderer::new(
            HeadBoundary::new(head, 256),
            PinnaModel::from_seed(501),
            PinnaModel::from_seed(502),
            cfg,
        );
        let angles = [0.0, 45.0, 90.0, 135.0, 180.0];
        PersonalHrtf::new(
            r.near_field_bank(&angles, 0.4)
                .expect("test radius clears the head"),
            r.ground_truth_bank(&angles),
            head,
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = table();
        let text = to_string(&t);
        let back = from_str(&text).expect("parse back");
        assert_eq!(back.sample_rate(), t.sample_rate());
        assert_eq!(back.head(), t.head());
        assert_eq!(back.near().angles(), t.near().angles());
        assert_eq!(back.far().angles(), t.far().angles());
        for (a, b) in back.far().irs().iter().zip(t.far().irs()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test files are written under the temp dir"
    )]
    fn file_roundtrip() {
        let t = table();
        let dir = std::env::temp_dir().join("uniq_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("subject.uniqhrtf");
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.near().len(), t.near().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            from_str("NOTHRTF 1\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(from_str(""), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn rejects_future_version() {
        assert!(matches!(
            from_str("UNIQHRTF 99\nsample_rate 48000\n"),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_wrong_arity() {
        let text =
            "UNIQHRTF 1\nsample_rate 48000\nhead 0.07 0.1 0.09\nir_len 4\nnear 0 1 0 0 0 1 0 0\n";
        // 1 angle + 8 samples expected; gave 7 numbers after the angle.
        assert!(matches!(from_str(text), Err(ParseError::BadEntry(_))));
    }

    #[test]
    fn rejects_unknown_tag() {
        let text = "UNIQHRTF 1\nsample_rate 48000\nhead 0.07 0.1 0.09\nir_len 1\nmid 0 1 1\n";
        assert!(matches!(from_str(text), Err(ParseError::BadEntry(_))));
    }

    #[test]
    fn rejects_empty_banks() {
        let text = "UNIQHRTF 1\nsample_rate 48000\nhead 0.07 0.1 0.09\nir_len 1\n";
        assert!(matches!(from_str(text), Err(ParseError::Inconsistent(_))));
    }

    #[test]
    fn minimal_valid_document() {
        let text = "UNIQHRTF 1\nsample_rate 48000\nhead 0.07 0.1 0.09\nir_len 2\nnear 0 1 0 0.5 0\nfar 0 1 0 0.25 0\n";
        let t = from_str(text).unwrap();
        assert_eq!(t.near().len(), 1);
        assert_eq!(t.far().irs()[0].right[0], 0.25);
    }
}
