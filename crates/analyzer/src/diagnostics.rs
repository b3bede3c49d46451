//! Diagnostics: one finding at a `file:line`, with the call path for
//! lock-order findings. Every finding is an error; the run fails unless
//! each one is fixed or suppressed with a justification.

use std::fmt;

/// One hop of a lock-order finding: where a lock is acquired, and where
/// the conflicting acquisition (or pool hand-off) happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Workspace-relative path of the hop.
    pub file: String,
    /// 1-based line of the site.
    pub line: u32,
    /// What happens at this hop (e.g. "acquires `store.inner`").
    pub symbol: String,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.symbol)
    }
}

/// One finding at a file:line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (stable identifier, used in `allow(...)`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Acquisition trace for lock-order findings (empty for the
    /// line-local rules).
    pub trace: Vec<TraceStep>,
}

impl Diagnostic {
    /// A line-local diagnostic with no trace.
    pub fn new(file: String, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file,
            line,
            rule,
            message,
            trace: Vec::new(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.rule, self.message
        )?;
        for step in &self.trace {
            write!(f, "\n    trace: {step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_rule_message_then_trace() {
        let mut d = Diagnostic::new("crates/store/src/x.rs".into(), 7, "lock-order", "no".into());
        assert_eq!(
            d.to_string(),
            "crates/store/src/x.rs:7: error[lock-order]: no"
        );
        d.trace.push(TraceStep {
            file: "crates/store/src/x.rs".into(),
            line: 3,
            symbol: "acquires `store.inner`".into(),
        });
        assert_eq!(
            d.to_string(),
            "crates/store/src/x.rs:7: error[lock-order]: no\n    \
             trace: crates/store/src/x.rs:3: acquires `store.inner`"
        );
    }
}
