//! Regenerates Figure 8 (effect-annotation precision ablation) of the
//! paper.

use rbsyn_bench::harness::{fig8_rows, format_fig8, Config};

fn main() {
    let cfg = Config::from_env_or_exit();
    eprintln!(
        "fig8: {}s timeout, {} benchmarks × 3 precision levels",
        cfg.timeout.as_secs(),
        cfg.benchmarks().len()
    );
    let rows = fig8_rows(&cfg);
    print!("{}", format_fig8(&rows));
}
