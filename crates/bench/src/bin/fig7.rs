//! Regenerates Figure 7 (guidance-mode cactus plot) of the paper.

use rbsyn_bench::harness::{fig7_rows, format_fig7, Config};

fn main() {
    let cfg = Config::from_env_or_exit();
    eprintln!(
        "fig7: {}s timeout, {} benchmarks × 4 guidance modes",
        cfg.timeout.as_secs(),
        cfg.benchmarks().len()
    );
    let rows = fig7_rows(&cfg);
    print!("{}", format_fig7(&rows));
}
