//! Perf-trajectory snapshot: runs the full benchmark suite under each
//! execution configuration — sequential and inter-problem parallel
//! (`--parallel`) — plus a deterministic **1-in-20 sample of the specgen
//! stress corpus** (`generated`, 25 of the 500 pinned problems), and
//! writes one JSON file (`BENCH_pr8.json` in CI) with wall-clocks and
//! effort counters per configuration and the parse+lower time of the
//! `--spec-dir` corpus. The top level carries a `host` header (CPU count,
//! OS/arch, toolchain) so stored trajectories say what machine and build
//! produced their numbers, and every timing row includes the `merge`
//! phase next to generate/guard/eval.
//!
//! ```text
//! cargo run --release -p rbsyn-bench --bin trajectory -- \
//!     [--json BENCH_pr8.json] [--threads N] [--timeout SECS] \
//!     [--spec-dir benchmarks] [--require-speedup]
//! ```
//!
//! `--require-speedup` makes a multi-core host fail the run when the
//! inter-problem `parallel` configuration does not beat the sequential
//! wall clock (`wall_speedup > 1.0`) — a single-core host skips the
//! assertion with a note, since no in-process speedup is possible there.
//!
//! Two speedup figures per run: `wall_speedup` (sequential wall clock over
//! this configuration's wall clock — the number that means "faster") and
//! `cpu_ratio` (cpu time over wall time — the old, misleading `speedup`
//! field, kept under its honest name: a 1-core host can report 2.6× while
//! being slower than sequential).
//!
//! The deterministic solution section of the parallel run is
//! byte-compared against the sequential baseline (the `generated` row is
//! a different problem set, so its gate is solved-count only); a
//! mismatch (or any unsolved benchmark) exits nonzero, so the trajectory
//! file doubles as the parallelism determinism gate.

use rbsyn_bench::harness::{
    format_batch_solutions, run_suite, run_suite_on, write_output_or_exit, Config,
};
use rbsyn_core::BatchReport;
use rbsyn_suite::Benchmark;
use std::path::Path;
use std::time::{Duration, Instant};

struct RunSpec {
    name: &'static str,
    threads: usize,
    /// Run over a deterministic sample of `benchmarks/generated/` (the
    /// specgen stress corpus) instead of the 19 Table 1 problems, so the
    /// row is excluded from the baseline byte-compare — its gate is
    /// "every sampled problem solves".
    generated: bool,
}

fn json_report(spec: &RunSpec, r: &BatchReport, sequential_wall_secs: Option<f64>) -> String {
    let s = &r.stats;
    let wall = s.wall_clock.as_secs_f64();
    // Sequential wall over this config's wall: the honest speedup. The
    // sequential row itself reports 1.0 by construction.
    let wall_speedup = sequential_wall_secs.map_or(1.0, |base| base / wall.max(1e-9));
    format!(
        "    {{\"config\": \"{}\", \"threads\": {}, \"source\": \"{}\",\n     \
         \"wall_clock_secs\": {:.6}, \"cpu_time_secs\": {:.6}, \"wall_speedup\": {:.4}, \
         \"cpu_ratio\": {:.4},\n     \
         \"solved\": {}, \"timeouts\": {}, \"failures\": {}, \"tested\": {},\n     \
         \"popped\": {}, \"expanded\": {}, \"deduped\": {}, \"vector_hits\": {},\n     \
         \"generate_time_secs\": {:.6}, \"guard_time_secs\": {:.6}, \
         \"merge_time_secs\": {:.6}, \"eval_time_secs\": {:.6}}}",
        spec.name,
        spec.threads,
        if spec.generated {
            "generated-sample"
        } else {
            "registry"
        },
        wall,
        s.cpu_time.as_secs_f64(),
        wall_speedup,
        s.speedup(),
        s.solved,
        s.timeouts,
        s.failures,
        s.tested,
        s.popped,
        s.expanded,
        s.deduped,
        s.vector_hits,
        s.generate_time.as_secs_f64(),
        s.guard_time.as_secs_f64(),
        s.merge_time.as_secs_f64(),
        s.eval_time.as_secs_f64(),
    )
}

/// Sampling stride for the `generated` row: every 20th file of the
/// 500-problem pinned specgen corpus, in path order — 25 problems,
/// deterministic so the row is comparable across trajectory runs.
const GENERATED_SAMPLE_STRIDE: usize = 20;

fn load_generated_sample(dir: &Path) -> Result<Vec<Benchmark>, String> {
    let paths = rbsyn_front::spec_paths(dir)?;
    paths
        .iter()
        .step_by(GENERATED_SAMPLE_STRIDE)
        .map(|p| rbsyn_front::load_file(p).map(Benchmark::from_spec))
        .collect()
}

/// Parse+lower wall time over the corpus (the frontend's own cost, kept
/// separate from synthesis time so the trajectory series can track it).
struct CorpusCost {
    files: usize,
    parse_secs: f64,
    lower_secs: f64,
}

fn measure_corpus(dir: &Path) -> Result<CorpusCost, String> {
    let paths = rbsyn_front::spec_paths(dir)?;
    let mut cost = CorpusCost {
        files: paths.len(),
        parse_secs: 0.0,
        lower_secs: 0.0,
    };
    for p in &paths {
        let source = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let t0 = Instant::now();
        let file =
            rbsyn_front::parse(&source).map_err(|d| d.render(&p.display().to_string(), &source))?;
        cost.parse_secs += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        rbsyn_front::lower(&file).map_err(|d| d.render(&p.display().to_string(), &source))?;
        cost.lower_secs += t1.elapsed().as_secs_f64();
    }
    Ok(cost)
}

fn main() {
    let mut json: Option<String> = None;
    let mut threads: usize = 4;
    let mut timeout: Option<Duration> = None;
    let mut spec_dir = "benchmarks".to_owned();
    let mut require_speedup = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--json" => json = Some(value("--json")),
            "--threads" => {
                threads = value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                })
            }
            "--timeout" => {
                timeout = Some(Duration::from_secs(
                    value("--timeout").parse().unwrap_or_else(|_| {
                        eprintln!("--timeout needs seconds");
                        std::process::exit(2);
                    }),
                ))
            }
            "--spec-dir" => spec_dir = value("--spec-dir"),
            "--require-speedup" => require_speedup = true,
            other => {
                eprintln!(
                    "unknown argument {other:?} (try --json PATH, --threads N, \
                     --timeout SECS, --spec-dir DIR, --require-speedup)"
                );
                std::process::exit(2);
            }
        }
    }

    let mut cfg = Config::from_env_or_exit();
    if let Some(t) = timeout {
        cfg.timeout = t;
    }

    // Frontend cost: parse+lower the whole corpus (fails fast on a broken
    // file — the trajectory doubles as a corpus gate).
    let corpus_cost = match measure_corpus(Path::new(&spec_dir)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("trajectory: corpus failed to parse/lower:\n{e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "trajectory: corpus {} file(s) parse {:.1} ms + lower {:.1} ms",
        corpus_cost.files,
        corpus_cost.parse_secs * 1e3,
        corpus_cost.lower_secs * 1e3
    );

    let specs = [
        RunSpec {
            name: "sequential",
            threads: 1,
            generated: false,
        },
        RunSpec {
            name: "parallel",
            threads,
            generated: false,
        },
        // A deterministic 1-in-20 sample of the specgen stress corpus:
        // different problems than the Table 1 suite, so no
        // baseline compare — the gate is that every sampled problem
        // solves within its own file-pinned budget.
        RunSpec {
            name: "generated",
            threads,
            generated: true,
        },
    ];

    let mut rows: Vec<String> = Vec::new();
    let mut baseline_solutions: Option<String> = None;
    let mut sequential_wall: Option<f64> = None;
    let mut parallel_speedup: Option<f64> = None;
    let mut ok = true;
    for spec in &specs {
        eprintln!("trajectory: {} (threads {})…", spec.name, spec.threads);
        let report = if spec.generated {
            let benchmarks = match load_generated_sample(&Path::new(&spec_dir).join("generated")) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("trajectory: generated sample load failed:\n{e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "trajectory: generated sample — {} of the pinned corpus (1 in {})",
                benchmarks.len(),
                GENERATED_SAMPLE_STRIDE
            );
            run_suite_on(benchmarks, &cfg, spec.threads)
        } else {
            run_suite(&cfg, spec.threads)
        };
        eprintln!(
            "trajectory: {} — {}/{} solved in {:.2}s",
            spec.name,
            report.stats.solved,
            report.stats.jobs,
            report.stats.wall_clock.as_secs_f64()
        );
        if report.stats.solved != report.stats.jobs {
            eprintln!("trajectory: {} left benchmarks unsolved", spec.name);
            ok = false;
        }
        if spec.generated {
            // Different problem set: nothing to byte-compare against. The
            // solved-count gate above already covers it.
        } else {
            let solutions = format_batch_solutions(&report);
            match &baseline_solutions {
                None => {
                    baseline_solutions = Some(solutions);
                    sequential_wall = Some(report.stats.wall_clock.as_secs_f64());
                }
                Some(base_sols) if *base_sols != solutions => {
                    eprintln!(
                        "trajectory: MISMATCH — {} diverges from the sequential baseline:\n\
                         --- sequential ---\n{base_sols}--- {} ---\n{solutions}",
                        spec.name, spec.name
                    );
                    ok = false;
                }
                Some(_) => {}
            }
        }
        if spec.name == "parallel" {
            let wall = report.stats.wall_clock.as_secs_f64();
            parallel_speedup = sequential_wall.map(|base| base / wall.max(1e-9));
        }
        rows.push(json_report(spec, &report, sequential_wall));
    }

    // Wall-clocks only mean anything relative to the host's core count
    // (a 1-core machine can never show an in-process speedup).
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if require_speedup {
        match parallel_speedup {
            _ if host <= 1 => {
                eprintln!("trajectory: single-core host, skipping the wall-speedup assertion");
            }
            Some(sp) if sp > 1.0 => {
                eprintln!("trajectory: parallel wall_speedup {sp:.2}x > 1.0 — OK");
            }
            Some(sp) => {
                eprintln!(
                    "trajectory: FAIL — parallel wall_speedup {sp:.2}x on a {host}-core host \
                     (expected > 1.0)"
                );
                ok = false;
            }
            None => {
                eprintln!("trajectory: FAIL — no parallel run to assert a speedup on");
                ok = false;
            }
        }
    }
    // Host metadata header: a stored BENCH_*.json must say what machine
    // and build produced its numbers, or the series cannot be compared
    // across CI runners.
    let toolchain = std::env::var("RUSTUP_TOOLCHAIN")
        .ok()
        .filter(|t| !t.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    let host_json = format!(
        "{{\"cpus\": {host}, \"os\": \"{}\", \"arch\": \"{}\", \"toolchain\": \"{}\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        rbsyn_bench::harness::json_escape(&toolchain),
    );
    let out = format!(
        "{{\n  \"suite\": \"rbsyn 19-benchmark suite\",\n  \"benchmarks\": {},\n  \
         \"timeout_secs\": {},\n  \"host_parallelism\": {},\n  \"host\": {},\n  \
         \"programs_identical\": {},\n  \
         \"corpus\": {{\"dir\": \"{}\", \"files\": {}, \"parse_secs\": {:.6}, \
         \"lower_secs\": {:.6}, \"parse_lower_secs\": {:.6}}},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        cfg.benchmarks().len(),
        cfg.timeout.as_secs(),
        host,
        host_json,
        ok,
        rbsyn_bench::harness::json_escape(&spec_dir),
        corpus_cost.files,
        corpus_cost.parse_secs,
        corpus_cost.lower_secs,
        corpus_cost.parse_secs + corpus_cost.lower_secs,
        rows.join(",\n")
    );
    match &json {
        Some(path) => {
            write_output_or_exit("--json", path, out.as_bytes());
            eprintln!("trajectory written to {path}");
        }
        None => print!("{out}"),
    }
    std::process::exit(if ok { 0 } else { 1 });
}
