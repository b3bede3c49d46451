//! The `uniq-analyzer` binary: `uniq-analyzer check [--root <path>]`.
//! See the library docs for the rule set.

use std::path::PathBuf;
use std::process::ExitCode;

use uniq_analyzer::{analyze_workspace, find_root};

const USAGE: &str = "\
uniq-analyzer — lock-order and observability rules for the UNIQ workspace

USAGE:
    uniq-analyzer check [--root <path>]

OPTIONS:
    --root <path>   workspace root (default: found from the current directory)

EXIT STATUS:
    0  no findings
    1  findings present
    2  usage or I/O error";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["check"] => std::env::current_dir().ok().and_then(|cwd| find_root(&cwd)),
        ["check", "--root", path] => Some(PathBuf::from(path)),
        [] => return usage_error("missing command (expected `check`)"),
        ["check", ..] => return usage_error("`check` takes only `--root <path>`"),
        [other, ..] => return usage_error(&format!("unknown command `{other}`")),
    };
    let Some(root) = root else {
        eprintln!("error: could not locate the workspace root (pass --root)");
        return ExitCode::from(2);
    };
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.diagnostics {
        println!("{d}");
    }
    println!(
        "uniq-analyzer: {} files, {} suppressions ({} stale), {} errors",
        report.files_analyzed,
        report.suppressions,
        report.stale_suppressions,
        report.diagnostics.len()
    );
    ExitCode::from(u8::from(!report.diagnostics.is_empty()))
}
