//! Runs benchmarks and prints synthesized programs.
//!
//! Single-benchmark mode (prints the program, handy for inspection) — a
//! registry id or a `.rbspec` file:
//!
//! ```text
//! cargo run --release -p rbsyn-bench --bin solve -- A7 [timeout_secs]
//! cargo run --release -p rbsyn-bench --bin solve -- --spec examples/blog.rbspec
//! ```
//!
//! Batch mode — the 19 Table 1 problems (or `--ids`), or every `.rbspec`
//! file of a directory, through the parallel batch driver. The stdout
//! section is deterministic (no timings), so two runs with different
//! `--parallel` values can be byte-compared; timing goes to stderr:
//!
//! ```text
//! cargo run --release -p rbsyn-bench --bin solve -- --all --parallel 4
//! cargo run --release -p rbsyn-bench --bin solve -- --all --spec-dir benchmarks --parallel 4
//! cargo run --release -p rbsyn-bench --bin solve -- --all --compare --parallel 4
//! ```
//!
//! Every synthesis run searches on its own job thread; `--parallel N`
//! runs N jobs at a time.
//!
//! `--compare` runs a sequential baseline first (one job thread), then
//! the requested `--parallel` configuration,
//! verifies the two deterministic sections are byte-identical, and
//! reports both wall-clocks. Exits nonzero on mismatch or on any unsolved
//! benchmark.
//!
//! `--ids` (and `RBSYN_BENCH_IDS`) must name known benchmarks: an unknown
//! id, or a non-empty list that names none (`--ids ,`), is a usage error.
//! So is an unknown flag, or a `--parallel`, `--timeout` or
//! `--trace-sample` value that is not an unsigned integer; the message
//! names the flag and the value.
//!
//! `--json PATH` writes the outcome (batch mode: the batch report) as
//! JSON. A `--json` or `--trace` path that cannot be written exits 1
//! with `cannot write --<flag> file <path>: <error>` on stderr.
//!
//! `--trace FILE` (single-benchmark and `--spec` modes only; the env
//! fallback `RBSYN_TRACE=FILE` is ignored in batch mode) records a
//! search-event trace and writes it as Chrome trace-event JSON — load it
//! in Perfetto or `chrome://tracing`. `--trace-sample N` thins the
//! per-candidate instants to every `N`-th occurrence (default 64; phase
//! spans and counters are never sampled away). A compact self/total-time
//! profile goes to stderr, so stdout stays byte-comparable: tracing never
//! changes the synthesized program or the effort counters, and the CI
//! `trace` job diffs the two.
//!
//! ## Exit codes
//!
//! `0` solved · `1` other failure (including panics contained by the
//! supervisor) · `2` usage · `3` `.rbspec` parse/lower error · `4` timeout
//! (cooperative or hard deadline) · `5` search exhausted with no
//! solution. Batch runs exit with the dominant failing class (timeout >
//! no-solution > other); the same codes appear as `"exit_code"` in
//! `--json` output.

use rbsyn_bench::harness::{
    batch_stats_json, exit_codes, format_batch_solutions, format_batch_stats, json_escape,
    parse_ids, run_suite_on, write_output_or_exit, Config,
};
use rbsyn_core::{Options, SynthError, SynthesisProblem, Synthesizer};
use rbsyn_interp::InterpEnv;
use rbsyn_suite::{benchmark, benchmarks_from_dir, Benchmark};
use rbsyn_trace::{schema, Session, TraceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

struct Cli {
    all: bool,
    compare: bool,
    parallel: usize,
    /// `--ids`, when given (overrides `RBSYN_BENCH_IDS`).
    ids: Option<Vec<String>>,
    /// `--timeout` / positional seconds, when given (overrides
    /// `RBSYN_TIMEOUT_SECS`).
    timeout: Option<Duration>,
    /// `--spec FILE`: synthesize one problem from a `.rbspec` file.
    spec: Option<String>,
    /// `--spec-dir DIR`: with `--all`, run every `.rbspec` file of `DIR`
    /// instead of the 19 Table 1 problems.
    spec_dir: Option<String>,
    /// `--trace FILE` (or `RBSYN_TRACE=FILE`): record a search-event trace
    /// and write Chrome trace-event JSON here. Single-benchmark modes only.
    trace: Option<String>,
    /// `--trace-sample N`: record every N-th per-candidate instant
    /// (default 64).
    trace_sample: Option<u64>,
    json: Option<String>,
    single: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: solve <ID> [timeout_secs] [--trace FILE [--trace-sample N]]\n       \
         solve --spec FILE.rbspec [--timeout SECS] \
         [--trace FILE [--trace-sample N]] [--json PATH]\n       \
         solve --all [--spec-dir DIR] [--parallel N] \
         [--ids S1,S2,..] [--timeout SECS] [--compare] [--json PATH]"
    );
    std::process::exit(exit_codes::USAGE);
}

/// `value` parsed as the number `flag` takes, or a usage error naming
/// both.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects an unsigned integer, got {value:?}");
        usage()
    })
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        all: false,
        compare: false,
        parallel: 0,
        ids: None,
        timeout: None,
        spec: None,
        spec_dir: None,
        trace: None,
        trace_sample: None,
        json: None,
        single: None,
    };
    let mut batch_only: Vec<&'static str> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--all" => cli.all = true,
            "--compare" => {
                cli.compare = true;
                batch_only.push("--compare");
            }
            "--parallel" => {
                cli.parallel = parse_flag("--parallel", &value("--parallel"));
                batch_only.push("--parallel");
            }
            "--ids" => {
                // Same parsing as RBSYN_BENCH_IDS in Config::from_env.
                cli.ids = Some(parse_ids("--ids", &value("--ids")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
                batch_only.push("--ids");
            }
            "--timeout" => {
                cli.timeout = Some(Duration::from_secs(parse_flag(
                    "--timeout",
                    &value("--timeout"),
                )))
            }
            "--spec" => cli.spec = Some(value("--spec")),
            "--trace" => cli.trace = Some(value("--trace")),
            "--trace-sample" => {
                let n: u64 = parse_flag("--trace-sample", &value("--trace-sample"));
                if n == 0 {
                    eprintln!("--trace-sample must be >= 1");
                    usage();
                }
                cli.trace_sample = Some(n);
            }
            "--spec-dir" => {
                cli.spec_dir = Some(value("--spec-dir"));
                batch_only.push("--spec-dir");
            }
            "--json" => cli.json = Some(value("--json")),
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => {
                eprintln!("unknown flag {a:?}");
                usage()
            }
            _ => positional.push(a),
        }
    }
    // Env fallback: RBSYN_TRACE names the output file. An explicit flag
    // wins; batch mode ignores the env (a trace records *one* run).
    if cli.trace.is_none() && !cli.all {
        match std::env::var("RBSYN_TRACE") {
            Ok(path) if !path.is_empty() => cli.trace = Some(path),
            _ => {}
        }
    }
    if cli.all && cli.trace.is_some() {
        eprintln!("--trace records one synthesis run; use it with <ID> or --spec, not --all");
        usage();
    }
    if cli.trace_sample.is_some() && cli.trace.is_none() {
        eprintln!("--trace-sample needs --trace (or RBSYN_TRACE)");
        usage();
    }
    if cli.spec.is_some() && (cli.all || !positional.is_empty() || !batch_only.is_empty()) {
        eprintln!("--spec runs exactly one file; it combines only with --timeout/--json");
        usage();
    }
    if cli.all {
        if !positional.is_empty() {
            eprintln!(
                "--all takes no positional benchmark ids (use --ids {})",
                positional.join(",")
            );
            usage();
        }
    } else if cli.spec.is_none() {
        // A batch flag without --all must not degrade to a single default
        // benchmark that exits 0 — this binary gates CI.
        if !batch_only.is_empty() {
            eprintln!("{} require(s) --all", batch_only.join(", "));
            usage();
        }
        if let Some(extra) = positional.get(2) {
            eprintln!("unexpected argument {extra:?}: solve takes <ID> [timeout_secs]");
            usage();
        }
        cli.single = Some(
            positional
                .first()
                .cloned()
                .unwrap_or_else(|| "S1".to_owned()),
        );
        if let Some(t) = positional.get(1) {
            match t.parse() {
                Ok(secs) => cli.timeout = Some(Duration::from_secs(secs)),
                Err(_) => {
                    eprintln!("timeout_secs must be an integer, got {t:?}");
                    usage();
                }
            }
        }
    }
    cli
}

/// Drains the tracing session and writes Chrome trace-event JSON to
/// `path`, self-validating through the in-crate schema checker first (a
/// malformed export is a bug, not a user error). The compact self/total
/// profile goes to stderr so the stdout section stays byte-comparable
/// with an untraced run.
fn export_trace(session: Session, path: &str, label: &str, status: &str) {
    let trace = session.finish();
    let json = trace.to_chrome_json(&[("benchmark", label), ("status", status)]);
    let summary = match schema::check_chrome_trace(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("internal error: emitted trace fails self-validation: {e}");
            std::process::exit(exit_codes::OTHER);
        }
    };
    write_output_or_exit("--trace", path, json.as_bytes());
    eprint!("{}", trace.profile().render());
    eprintln!(
        "trace: {} events on {} thread(s) ({} dropped) -> {path}",
        summary.events, summary.threads, trace.dropped
    );
}

/// Synthesizes one problem, prints the outcome (and `--json` if asked),
/// and exits with the class-specific code. CLI flags override `base` only
/// when actually given — a `.rbspec` file's `options do … end` (timeout,
/// size bounds) is honoured otherwise. `default_timeout` backs
/// the registry path's historical 60 s default; `None` leaves the base
/// deadline alone (including a file's explicit `timeout_secs: 0` =
/// unlimited).
fn run_one(
    label: &str,
    display: &str,
    env: InterpEnv,
    problem: SynthesisProblem,
    base: Options,
    cli: &Cli,
    default_timeout: Option<Duration>,
) -> ! {
    let mut opts = base;
    match (cli.timeout, default_timeout) {
        (Some(t), _) => opts.timeout = Some(t),
        (None, Some(d)) => opts.timeout = Some(d),
        (None, None) => {}
    }
    let trace_cfg = cli
        .trace
        .as_ref()
        .map(|_| TraceConfig::with_sample(cli.trace_sample.unwrap_or(64)));
    let tracer = trace_cfg.clone().map(Session::new);
    opts.trace = trace_cfg;
    let mut synth = Synthesizer::new(env, problem, opts);
    if let Some(t) = &tracer {
        synth = synth.with_tracer(t.clone());
    }
    // Supervision boundary: a panic anywhere inside the search must
    // surface as a reportable `Internal` failure (exit code 1) with the
    // trace still exported — not a process abort.
    let result = catch_unwind(AssertUnwindSafe(|| synth.run()))
        .unwrap_or_else(|panic| Err(SynthError::from_panic(&*panic)));
    if let (Some(t), Some(path)) = (tracer, cli.trace.as_deref()) {
        let status = match &result {
            Ok(_) => "solved",
            Err(e) => {
                if exit_codes::for_error(e) == exit_codes::TIMEOUT {
                    "timeout"
                } else {
                    "failed"
                }
            }
        };
        export_trace(t, path, label, status);
    }
    match result {
        Ok(r) => {
            println!(
                "{label} ({display}) solved in {:?} — {} candidates tested, size {}, paths {}",
                r.stats.elapsed,
                r.stats.search.tested,
                r.stats.solution_size,
                r.stats.solution_paths
            );
            println!(
                "phases: generate {:.2}s | guard {:.2}s | merge {:.2}s | eval {:.2}s",
                r.stats.generate_time.as_secs_f64(),
                r.stats.guard_time.as_secs_f64(),
                r.stats.merge_time.as_secs_f64(),
                r.stats.search.eval_nanos as f64 / 1e9,
            );
            println!("{}", r.program);
            if let Some(path) = &cli.json {
                let json = format!(
                    "{{\"id\": \"{}\", \"status\": \"solved\", \"exit_code\": 0, \
                     \"elapsed_secs\": {:.6}, \"generate_secs\": {:.6}, \
                     \"guard_secs\": {:.6}, \"merge_secs\": {:.6}, \"eval_secs\": {:.6}, \
                     \"teardown_secs\": {:.6}, \
                     \"size\": {}, \"paths\": {}, \"tested\": {}, \
                     \"vector_hits\": {}}}\n",
                    json_escape(label),
                    r.stats.elapsed.as_secs_f64(),
                    r.stats.generate_time.as_secs_f64(),
                    r.stats.guard_time.as_secs_f64(),
                    r.stats.merge_time.as_secs_f64(),
                    r.stats.search.eval_nanos as f64 / 1e9,
                    r.stats.teardown_time.as_secs_f64(),
                    r.stats.solution_size,
                    r.stats.solution_paths,
                    r.stats.search.tested,
                    r.stats.search.vector_hits,
                );
                write_output_or_exit("--json", path, json.as_bytes());
            }
            std::process::exit(exit_codes::OK);
        }
        Err(e) => {
            let code = exit_codes::for_error(&e);
            println!("{label} failed: {e}");
            if let Some(path) = &cli.json {
                let status = if code == exit_codes::TIMEOUT {
                    "timeout"
                } else if code == exit_codes::NO_SOLUTION {
                    "no_solution"
                } else {
                    "failed"
                };
                let json = format!(
                    "{{\"id\": \"{}\", \"status\": \"{status}\", \"exit_code\": {code}, \
                     \"error\": \"{}\"}}\n",
                    json_escape(label),
                    json_escape(&e.to_string()),
                );
                write_output_or_exit("--json", path, json.as_bytes());
            }
            std::process::exit(code);
        }
    }
}

fn run_single(id: &str, cli: &Cli) -> ! {
    let Some(b) = benchmark(id) else {
        eprintln!("unknown benchmark {id:?} (try S1..S7, A1..A12, or --spec FILE)");
        std::process::exit(exit_codes::USAGE);
    };
    let (env, problem) = (b.build)();
    run_one(
        &b.id,
        &b.name,
        env,
        problem,
        (b.options)(),
        cli,
        Some(Duration::from_secs(60)),
    );
}

fn run_spec_file(path: &str, cli: &Cli) -> ! {
    let spec = match rbsyn_front::load_file(Path::new(path)) {
        Ok(s) => s,
        Err(rendered) => {
            eprint!("{rendered}");
            std::process::exit(exit_codes::PARSE);
        }
    };
    let b = Benchmark::from_spec(spec);
    let (env, problem) = (b.build)();
    let name = b.name.clone();
    run_one(&b.id, &name, env, problem, (b.options)(), cli, None);
}

/// The batch benchmark set: the 19 Table 1 problems, or — with
/// `--spec-dir` — the directory's `.rbspec` files, narrowed to the id
/// list. Exits with `PARSE` when a file fails and with `USAGE` on an
/// unknown id.
fn batch_benchmarks(cli: &Cli, cfg: &Config) -> Vec<Benchmark> {
    let pool = match &cli.spec_dir {
        Some(dir) => match benchmarks_from_dir(Path::new(dir)) {
            Ok(v) => v,
            Err(rendered) => {
                eprint!("{rendered}");
                std::process::exit(exit_codes::PARSE);
            }
        },
        None => rbsyn_suite::all_benchmarks(),
    };
    cfg.select(pool).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(exit_codes::USAGE)
    })
}

fn main() {
    let cli = parse_cli();
    if let Some(path) = cli.spec.clone() {
        run_spec_file(&path, &cli);
    }
    if let Some(id) = cli.single.clone() {
        run_single(&id, &cli);
    }

    // Flags override the harness env knobs (RBSYN_BENCH_IDS /
    // RBSYN_TIMEOUT_SECS); unset flags inherit them.
    let mut cfg = Config::from_env_or_exit();
    if let Some(ids) = cli.ids.clone() {
        cfg.ids = ids;
    }
    if let Some(t) = cli.timeout {
        cfg.timeout = t;
    }

    let benchmarks = batch_benchmarks(&cli, &cfg);
    let run = |threads: usize| run_suite_on(benchmarks.clone(), cfg.timeout, threads);
    if cli.compare {
        // Baseline: one job thread; thread counts must never change the
        // deterministic section.
        eprintln!("compare: sequential baseline…");
        let seq = run(1);
        eprintln!("compare: parallel run ({} threads)…", cli.parallel);
        let par = run(cli.parallel);
        let (a, b) = (format_batch_solutions(&seq), format_batch_solutions(&par));
        eprint!("sequential {}", format_batch_stats(&seq));
        eprint!("parallel   {}", format_batch_stats(&par));
        if a != b {
            eprintln!("MISMATCH between sequential baseline and parallel results:");
            eprintln!("--- sequential ---\n{a}--- parallel ---\n{b}");
            std::process::exit(exit_codes::OTHER);
        }
        let wall_speedup =
            seq.stats.wall_clock.as_secs_f64() / par.stats.wall_clock.as_secs_f64().max(1e-9);
        eprintln!(
            "results byte-identical across thread counts; \
             wall-clock speedup {wall_speedup:.2}x, in-batch estimate {:.2}x",
            par.stats.speedup()
        );
        print!("{a}");
        if let Some(path) = &cli.json {
            write_output_or_exit("--json", path, batch_stats_json(&par).as_bytes());
        }
        std::process::exit(exit_codes::for_batch(&seq));
    }

    let report = run(cli.parallel);
    print!("{}", format_batch_solutions(&report));
    eprint!("{}", format_batch_stats(&report));
    if let Some(path) = &cli.json {
        write_output_or_exit("--json", path, batch_stats_json(&report).as_bytes());
    }
    std::process::exit(exit_codes::for_batch(&report));
}
