//! Validates a Chrome trace-event JSON file produced by `solve --trace`.
//!
//! ```text
//! cargo run -p rbsyn-bench --bin tracecheck -- out.trace.json
//! ```
//!
//! Runs the `rbsyn_trace` in-crate schema checker (well-formed JSON,
//! known event kinds, balanced span begin/end per thread, numeric
//! counter args) and then asserts the engine-level content contract: the
//! trace of a solved benchmark must contain `generate`, `guard`, `eval`
//! and `merge` spans plus at least one counter track. CI's `trace` job
//! runs this on the artifact it uploads, so a regression in either the
//! exporter or the instrumentation fails the build rather than shipping
//! an unreadable trace.
//!
//! Exit codes: `0` valid · `1` validation failure · `2` usage/IO.

use rbsyn_trace::schema::check_chrome_trace;

/// Spans a solved run must contain — the phase-totals track guarantees
/// them even when the run was too fast for any live span to be recorded.
const REQUIRED_SPANS: [&str; 4] = ["generate", "guard", "eval", "merge"];

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: tracecheck FILE.json");
        std::process::exit(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let summary = match check_chrome_trace(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracecheck: {path} is not a valid Chrome trace: {e}");
            std::process::exit(1);
        }
    };
    let mut ok = true;
    for name in REQUIRED_SPANS {
        if !summary.span_names.contains(name) {
            eprintln!("tracecheck: missing required span {name:?}");
            ok = false;
        }
    }
    if summary.counter_tracks.is_empty() {
        eprintln!("tracecheck: no counter track (expected at least `search-stats`)");
        ok = false;
    }
    if !ok {
        eprintln!(
            "tracecheck: {path} has spans {:?} and counter tracks {:?}",
            summary.span_names, summary.counter_tracks
        );
        std::process::exit(1);
    }
    println!(
        "tracecheck: {path} OK — {} events on {} thread(s), spans {:?}, counters {:?}",
        summary.events,
        summary.threads,
        summary.span_names.iter().collect::<Vec<_>>(),
        summary.counter_tracks.iter().collect::<Vec<_>>()
    );
}
