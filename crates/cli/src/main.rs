//! The `uniq` command-line binary. See [`uniq_cli`] for the interface.

use uniq_cli::args::Args;
use uniq_cli::commands;

/// The counting allocator behind `--record`'s allocation profile —
/// installed unconditionally (recording stays off outside a measurement,
/// costing one relaxed atomic load per allocation on every other run).
#[global_allocator]
static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `trace` and `history` take a positional FILE after their verb, so
    // they are dispatched on the raw argv before the `faults` wrapper is
    // peeled. Their exit codes carry gate semantics (0 ok, 1 finding,
    // 2 usage), so they exit directly.
    match raw.first().map(String::as_str) {
        Some("trace") => std::process::exit(commands::trace_cmd(&raw[1..])),
        Some("history") => std::process::exit(commands::history_cmd(&raw[1..])),
        // `store` owns a verb sub-grammar (put/get/ls/verify/export/import)
        // with its own 0/1/2 exit contract, dispatched the same way.
        Some("store") => std::process::exit(commands::store_cmd(&raw[1..])),
        _ => {}
    }
    // `faults` wraps `personalize` (`uniq faults personalize …`), so it is
    // peeled off before Args::parse, which allows exactly one positional.
    let faulted = raw.first().map(String::as_str) == Some("faults");
    let rest = if faulted { &raw[1..] } else { &raw[..] };
    if faulted && rest.is_empty() {
        eprintln!(
            "error: faults needs a command to run\n\n{}",
            commands::usage()
        );
        std::process::exit(2);
    }
    let parsed = match Args::parse(rest, |command| commands::flags(command, faulted)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(2);
        }
    };
    let result = if faulted {
        commands::run_faults(&parsed)
    } else {
        commands::run(&parsed)
    };
    // Buffered sinks installed process-wide must not lose their tail.
    uniq_obs::flush_global_sink();
    // One shared mapping from outcome to exit status, so wrappers never
    // swallow a wrapped command's failure.
    let code = commands::exit_code(&result);
    match result {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("error: {e}"),
    }
    if code != 0 {
        std::process::exit(code);
    }
}
