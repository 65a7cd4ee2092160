//! Regenerates Figure 8 (effect-annotation precision ablation) of the
//! paper.
//!
//! Takes no arguments (any argument is a usage error, exit 2); the
//! `RBSYN_*` environment variables in the crate docs configure the run.

use rbsyn_bench::harness::{fig8_rows, format_fig8, no_args_or_exit, Config};

fn main() {
    no_args_or_exit("fig8");
    let cfg = Config::from_env_or_exit();
    eprintln!(
        "fig8: {}s timeout, {} benchmarks × 3 precision levels",
        cfg.timeout.as_secs(),
        cfg.benchmarks().len()
    );
    let rows = fig8_rows(&cfg);
    print!("{}", format_fig8(&rows));
}
