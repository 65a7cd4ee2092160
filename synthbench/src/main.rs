//! `synthbench`: end-to-end and per-layer benchmark of the synthesizer,
//! driven only through its public API. `README.md` beside this crate
//! documents the workloads, every metric, and how to run it.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Everything above
//! it is the human-readable report.

mod host;
mod stats;
mod trace;
mod validate;
mod workload;

use stats::{geomean, median, percentile, tail_percentile};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::quoted;
use workload::{Pass, Problem, Workload};

const USAGE: &str = "usage: synthbench --workload table1|generated|table1-par2 --seed N \
                     --seconds S --trace 0|1   (run from the repository root)";

/// Fresh processes timed for `setup_s`, half before and half after the
/// batch so the samples span the run; their median is reported.
const SETUP_PROBES: usize = 22;

/// Where traces, per-problem tables and count references are written,
/// relative to the repository root the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: load and build the jobs, report `ready`, exit.
    probe_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe_setup = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe-setup" {
            probe_setup = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if probe_setup {
        return Ok(Args {
            workload,
            seed: 0,
            seconds: 0.0,
            trace: false,
            probe_setup,
        });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        probe_setup,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("synthbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.probe_setup {
        probe_setup(&args).map(|()| true)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("synthbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The set-up a fresh process does before its first job reaches the
/// batch driver: read, parse and lower every spec, build the jobs.
fn probe_setup(args: &Args) -> Result<(), String> {
    let problems = workload::load(args.workload)?;
    let jobs = workload::jobs(&problems, None);
    std::hint::black_box(&jobs);
    println!("ready");
    Ok(())
}

/// Times `count` fresh processes from spawn until they report their jobs
/// ready.
fn measure_setup(args: &Args, count: usize) -> Result<Vec<f64>, String> {
    let exe = own_exe()?;
    (0..count)
        .map(|_| {
            let started = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--probe-setup", "--workload", args.workload.name()])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
            let mut line = String::new();
            if let Some(out) = child.stdout.take() {
                let _ = BufReader::new(out).read_line(&mut line);
            }
            let elapsed = started.elapsed().as_secs_f64();
            let status = child
                .wait()
                .map_err(|e| format!("set-up probe vanished: {e}"))?;
            if !status.success() || line.trim() != "ready" {
                return Err(format!("set-up probe failed ({status})"));
            }
            Ok(elapsed)
        })
        .collect()
}

/// The untraced makespans recorded by runs of this build on `workload`,
/// after making one untraced run in a fresh process if there are none:
/// the base the traced pass's makespan is compared with to state the
/// tracing overhead.
fn untraced_makespans(args: &Args) -> Result<Vec<f64>, String> {
    let recorded = |path: &Path| -> Result<Vec<f64>, String> {
        Ok(read_for_build(path)?
            .unwrap_or_default()
            .iter()
            .filter_map(|l| l.parse().ok())
            .collect())
    };
    let path = makespans_path(args.workload)?;
    let makespans = recorded(&path)?;
    if !makespans.is_empty() {
        return Ok(makespans);
    }
    let exe = own_exe()?;
    let seed = args.seed.to_string();
    let out = Command::new(&exe)
        .args(["--workload", args.workload.name(), "--seed", &seed])
        .args(["--seconds", "0", "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the untraced run: {e}"))?;
    if !out.status.success() {
        let stdout = String::from_utf8_lossy(&out.stdout);
        return Err(format!(
            "the untraced run failed ({}):\n{stdout}",
            out.status
        ));
    }
    recorded(&path)
}

fn makespans_path(workload: Workload) -> Result<PathBuf, String> {
    Ok(out_dir()?.join(format!("makespans-{}.txt", workload.name())))
}

/// Appends an untraced pass's makespan to this build's record.
fn record_makespan(workload: Workload, makespan: f64) -> Result<(), String> {
    let path = makespans_path(workload)?;
    let mut lines = read_for_build(&path)?.unwrap_or_default();
    lines.push(makespan.to_string());
    write_for_build(&path, &lines)
}

/// One named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or 0 for an empty base.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let ticks0 = host::HostTicks::now();
    let name = args.workload.name();
    let threads = args.workload.threads();
    let probes = host::probe_features();
    println!(
        "# synthbench workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host nproc={} cpu={}",
        host::nproc(),
        quoted(&host::cpu_model())
    );
    println!(
        "# build profile={} probes={}",
        host::profile(),
        if probes.is_empty() {
            "none".to_owned()
        } else {
            probes.join(",")
        }
    );
    if host::profile() != "release" || !probes.is_empty() {
        return Err(format!(
            "refusing a timed run from a {} build with probes [{}]; build with \
             `cargo build --release` and no `contention`/`failpoints` features",
            host::profile(),
            probes.join(",")
        ));
    }

    // Set-up is timed only by untraced runs. A traced run compares its
    // makespan with the untraced runs of the same build, making one first
    // (in a fresh process, before this one grows) if there are none.
    let mut setup = Vec::new();
    let mut untraced = Vec::new();
    if args.trace {
        untraced = untraced_makespans(args)?;
    } else {
        setup = measure_setup(args, SETUP_PROBES / 2)?;
    }
    let origin = Instant::now();
    let mut problems = workload::load(args.workload)?;
    let order = if args.workload.seeded_order() {
        problems = stats::shuffled(problems, args.seed);
        "seeded"
    } else {
        "file"
    };
    let n = problems.len();
    let bytes: usize = problems.iter().map(|p| p.bytes).sum();
    println!("# corpus problems={n} bytes={bytes} threads={threads} order={order}");

    // A traced run makes one traced pass; an untraced run makes whole
    // passes until `--seconds` of batch time are measured.
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    while passes.is_empty() || (!args.trace && measured < args.seconds) {
        let pass = workload::run_pass(&problems, threads, args.trace);
        measured += pass.makespan;
        passes.push(pass);
    }
    if !args.trace {
        setup.extend(measure_setup(args, SETUP_PROBES - SETUP_PROBES / 2)?);
        record_makespan(args.workload, passes[0].makespan)?;
    }
    let (steal_s, steal_share) = host::HostTicks::now().steal_since(&ticks0);
    println!(
        "# steal_s={steal_s:.2} steal_share={steal_share:.4} passes={}",
        passes.len()
    );

    let attempted = n * passes.len();
    let solved: usize = passes.iter().map(Pass::solved).sum();
    let failed = attempted - solved;
    for pass in &passes {
        for (p, c) in problems.iter().zip(&pass.checked) {
            if let Some(e) = &c.error {
                println!("FAILED {}: {e}", p.id);
            }
        }
    }
    let repeat = check_repeats(args, &problems, &passes)?;
    let mut correct = failed == 0 && repeat;

    println!(
        "failed_frac {:.6} ({failed} of {attempted} attempted)",
        ratio(failed as f64, attempted as f64)
    );
    let metrics = if args.trace {
        let stem = out_dir()?.join(format!("{name}-seed{}", args.seed));
        let (per_layer, sums_ok) = trace::report(
            args.workload,
            &stem,
            origin,
            &problems,
            &passes[0],
            &untraced,
        )?;
        correct &= sums_ok;
        per_layer
    } else {
        end_to_end(&setup, &problems, &passes)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// The end-to-end metrics of an untraced run, printed with the figures
/// that are reported but not listed in `BENCHMARK.json` (`solve_s.geomean`,
/// `solve_s.p50`, `solve_s.tail`).
fn end_to_end(setup: &[f64], problems: &[Problem], passes: &[Pass]) -> Vec<Metric> {
    // Per-problem latency is the median over the passes.
    let n = problems.len();
    let latencies: Vec<f64> = (0..n)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p.checked[i].solve_s)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let solved: usize = passes.iter().map(Pass::solved).sum();
    let makespan: f64 = passes.iter().map(|p| p.makespan).sum();
    let (slowest, max) = latencies
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, &v)| (problems[i].id.as_str(), v))
        .unwrap_or(("-", 0.0));
    let cpu_s = passes.iter().map(|p| p.cpu_s).sum::<f64>() / passes.len() as f64;
    let metrics = vec![
        metric("setup_s", median(setup), "s"),
        metric("solved_per_s", ratio(solved as f64, makespan), "1/s"),
        metric("solve_s.max", max, "s"),
        metric("peak_rss_mb", host::peak_rss_bytes() as f64 / 1e6, "MB"),
        metric("cpu_s", cpu_s, "s"),
    ];
    println!("## end-to-end");
    for m in &metrics {
        println!("{:<18} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("  slowest problem  {slowest}");
    println!("{:<18} {:>14.6} s", "solve_s.geomean", geomean(&latencies));
    let samples: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    println!("  setup samples    {} s", samples.join(" "));
    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    match tail_percentile(n) {
        Some(p) => {
            println!("{:<18} {:>14.6} s", "solve_s.p50", percentile(&sorted, 50));
            println!(
                "{:<18} {:>14.6} s  (p{p} of {n} problems)",
                "solve_s.tail",
                percentile(&sorted, p)
            );
        }
        None => println!("solve_s.p50/tail   not reported: {n} problems, fewer than 20"),
    }
    metrics
}

/// Per-problem `tested`, `expanded` and program hash, in id order: the
/// figures that must repeat exactly between runs of one build.
fn count_lines(problems: &[Problem], pass: &Pass) -> Vec<String> {
    let mut lines: Vec<String> = problems
        .iter()
        .zip(&pass.report.outcomes)
        .zip(&pass.checked)
        .map(|((p, o), c)| {
            let (tested, expanded) = o
                .result
                .as_ref()
                .map_or((0, 0), |r| (r.stats.search.tested, r.stats.search.expanded));
            format!("{} {tested} {expanded} {:016x}", p.id, c.program_hash)
        })
        .collect();
    lines.sort();
    lines
}

/// Checks that the counts repeat across this run's passes and against the
/// last run of the same executable, whose counts are kept under
/// [`OUT_DIR`]. A different executable starts a new reference.
fn check_repeats(args: &Args, problems: &[Problem], passes: &[Pass]) -> Result<bool, String> {
    let first = count_lines(problems, &passes[0]);
    let totals = &passes[0].report.stats;
    println!(
        "# counts tested={} expanded={} fingerprint={:016x}",
        totals.tested,
        totals.expanded,
        stats::fnv1a(first.join("\n").as_bytes())
    );
    let mut ok = true;
    for (k, pass) in passes.iter().enumerate().skip(1) {
        if let Some(line) = first_difference(&first, &count_lines(problems, pass)) {
            println!("NOT REPEATED: pass {} differs from pass 1 at {line}", k + 1);
            ok = false;
        }
    }
    let path = out_dir()?.join(format!("counts-{}.txt", args.workload.name()));
    match read_for_build(&path)? {
        Some(previous) => match first_difference(&previous, &first) {
            Some(line) => {
                println!("NOT REPEATED: counts differ from the last run of this build at {line}");
                ok = false;
            }
            None => println!("# counts repeat the last run of this build exactly"),
        },
        None => {
            write_for_build(&path, &first)?;
            println!("# counts recorded as this build's reference");
        }
    }
    Ok(ok)
}

fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))
}

/// The executable's identity: a rebuilt benchmark starts new references.
fn build_id() -> Result<String, String> {
    let exe = own_exe()?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok(format!("build {} {modified}", meta.len()))
}

/// The lines of a reference file written by this build, or `None` when it
/// is missing or was written by another build.
fn read_for_build(path: &Path) -> Result<Option<Vec<String>>, String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines = text.lines();
    Ok((lines.next() == Some(build_id()?.as_str())).then(|| lines.map(str::to_owned).collect()))
}

fn write_for_build(path: &Path, lines: &[String]) -> Result<(), String> {
    write_atomically(path, &format!("{}\n{}\n", build_id()?, lines.join("\n")))
}

fn first_difference(a: &[String], b: &[String]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("problem count {} vs {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{x:?} vs {y:?}"))
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_atomically(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("{}: {e}", path.display()))
}
