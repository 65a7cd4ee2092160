//! Criterion bench over the Table 1 benchmarks (full-guidance synthesis
//! time per benchmark), followed by a one-shot regeneration of the complete
//! table so `cargo bench` output contains it.
//!
//! The per-iteration measurement includes environment construction, exactly
//! like the paper's timings (which include app setup).

use criterion::{criterion_group, criterion_main, Criterion};
use rbsyn_bench::harness::{format_table1, run_benchmark, table1_rows, Config};
use rbsyn_core::Guidance;
use rbsyn_suite::all_benchmarks;
use rbsyn_ty::EffectPrecision;
use std::time::Duration;

/// Benchmarks measured under Criterion: the ones that finish in
/// milliseconds-to-a-second, so sampling stays tractable. The full set —
/// including the slow ones — is covered by the table regeneration below.
const SAMPLED: &[&str] = &["S1", "S2", "S4", "S7", "A2", "A5", "A7"];

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_te");
    group.sample_size(10);
    for b in all_benchmarks() {
        if !SAMPLED.contains(&b.id.as_str()) {
            continue;
        }
        group.bench_function(&b.id, |bench| {
            bench.iter(|| {
                let out = run_benchmark(
                    &b,
                    Guidance::both(),
                    EffectPrecision::Precise,
                    Duration::from_secs(120),
                );
                assert!(out.succeeded(), "{} must synthesize", b.id);
                out.time
            });
        });
    }
    group.finish();
}

fn regenerate_table(_c: &mut Criterion) {
    let mut cfg = Config::from_env_or_exit();
    if std::env::var("RBSYN_RUNS").is_err() {
        cfg.runs = 1;
    }
    if std::env::var("RBSYN_TIMEOUT_SECS").is_err() {
        cfg.timeout = Duration::from_secs(60);
    }
    eprintln!(
        "\nregenerating Table 1 ({} runs, {}s timeout, {}s ablation timeout)…",
        cfg.runs,
        cfg.timeout.as_secs(),
        cfg.ablation_timeout.as_secs()
    );
    let rows = table1_rows(&cfg);
    println!("\n===== Table 1 =====\n{}", format_table1(&rows));
}

criterion_group!(benches, bench_synthesis, regenerate_table);
criterion_main!(benches);
