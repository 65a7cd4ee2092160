//! Regenerates Figure 7 (guidance-mode cactus plot) of the paper.
//!
//! Takes no arguments (any argument is a usage error, exit 2); the
//! `RBSYN_*` environment variables in the crate docs configure the run.

use rbsyn_bench::harness::{fig7_rows, format_fig7, no_args_or_exit, Config};

fn main() {
    no_args_or_exit("fig7");
    let cfg = Config::from_env_or_exit();
    eprintln!(
        "fig7: {}s timeout, {} benchmarks × 4 guidance modes",
        cfg.timeout.as_secs(),
        cfg.benchmarks().len()
    );
    let rows = fig7_rows(&cfg);
    print!("{}", format_fig7(&rows));
}
