//! Regenerates Figure 7 (guidance ablation) and Figure 8 (effect-precision
//! ablation) under `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use rbsyn_bench::harness::{fig7_rows, fig8_rows, format_fig7, format_fig8, Config};
use std::time::Duration;

fn cfg() -> Config {
    let mut cfg = Config::from_env_or_exit();
    if std::env::var("RBSYN_TIMEOUT_SECS").is_err() {
        cfg.timeout = Duration::from_secs(60);
    }
    cfg
}

fn figure7(_c: &mut Criterion) {
    let cfg = cfg();
    eprintln!(
        "\nregenerating Figure 7 ({}s timeout)…",
        cfg.timeout.as_secs()
    );
    let rows = fig7_rows(&cfg);
    println!("\n===== Figure 7 =====\n{}", format_fig7(&rows));
}

fn figure8(_c: &mut Criterion) {
    let cfg = cfg();
    eprintln!(
        "\nregenerating Figure 8 ({}s timeout)…",
        cfg.timeout.as_secs()
    );
    let rows = fig8_rows(&cfg);
    println!("\n===== Figure 8 =====\n{}", format_fig8(&rows));
}

criterion_group!(benches, figure7, figure8);
criterion_main!(benches);
