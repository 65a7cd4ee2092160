//! Benchmark execution and table/figure assembly.

use rbsyn_core::{run_batch, BatchJob, BatchReport, Guidance, Options, SynthError, Synthesizer};
use rbsyn_lang::persist::atomic_write;
use rbsyn_suite::{all_benchmarks, Benchmark};
use rbsyn_ty::EffectPrecision;
use std::path::Path;
use std::time::Duration;

/// Harness configuration (see crate docs for the environment variables).
#[derive(Clone, Debug)]
pub struct Config {
    /// Timed runs per configuration (paper: 11; `RBSYN_RUNS`, at least 1).
    pub runs: usize,
    /// Per-run timeout for full-guidance runs (paper: 300 s).
    pub timeout: Duration,
    /// Timeout for the guidance *ablations* (T-only / E-only / naive),
    /// which mostly just burn their whole budget (paper: same 300 s; the
    /// default here is small so a default run stays tractable — raise
    /// `RBSYN_ABLATION_TIMEOUT_SECS` for paper-faithful runs).
    pub ablation_timeout: Duration,
    /// Timeout for the coarse effect-precision runs of Fig. 8
    /// (`RBSYN_COARSE_TIMEOUT_SECS`).
    pub coarse_timeout: Duration,
    /// Benchmark ids to run (empty = all).
    pub ids: Vec<String>,
}

/// Parses a comma-separated benchmark-id list (`--ids`,
/// `RBSYN_BENCH_IDS`), trimming each id. Empty text selects every problem
/// (an empty list); `source` names the list in the error.
///
/// # Errors
///
/// A usage message when the text is not empty but names no id (`,`).
pub fn parse_ids(source: &str, text: &str) -> Result<Vec<String>, String> {
    let ids: Vec<String> = text
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    if ids.is_empty() && !text.is_empty() {
        return Err(format!("{source} {text:?} names no benchmark id"));
    }
    Ok(ids)
}

/// Reads an unsigned-integer environment variable: `None` when it is
/// unset or empty.
///
/// # Errors
///
/// A usage message naming the variable and its value when it holds
/// anything but an unsigned integer (`1.5`, `abc`, `-1`).
fn env_uint(name: &str) -> Result<Option<u64>, String> {
    match std::env::var_os(name) {
        None => Ok(None),
        Some(v) if v.is_empty() => Ok(None),
        Some(v) => v
            .to_str()
            .and_then(|s| s.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name}={v:?} is not an unsigned integer")),
    }
}

impl Config {
    /// Reads configuration from the environment.
    ///
    /// # Errors
    ///
    /// A usage message when a numeric variable (`RBSYN_RUNS`, the
    /// `*_TIMEOUT_SECS` ones) is set to anything but an unsigned integer,
    /// or when `RBSYN_BENCH_IDS` is set to a list that names no id or
    /// names an id the registry does not have.
    pub fn from_env() -> Result<Config, String> {
        let runs = env_uint("RBSYN_RUNS")?.unwrap_or(3).max(1) as usize;
        let env_secs = |name: &str| Ok::<_, String>(env_uint(name)?.map(Duration::from_secs));
        let timeout = env_secs("RBSYN_TIMEOUT_SECS")?.unwrap_or(Duration::from_secs(60));
        let ablation_timeout = env_secs("RBSYN_ABLATION_TIMEOUT_SECS")?
            .unwrap_or_else(|| timeout.min(Duration::from_secs(8)));
        let coarse_timeout = env_secs("RBSYN_COARSE_TIMEOUT_SECS")?
            .unwrap_or_else(|| timeout.min(Duration::from_secs(20)));
        let ids = match std::env::var("RBSYN_BENCH_IDS") {
            Ok(v) => parse_ids("RBSYN_BENCH_IDS", &v)?,
            Err(_) => Vec::new(),
        };
        let cfg = Config {
            runs,
            timeout,
            ablation_timeout,
            coarse_timeout,
            ids,
        };
        cfg.select(all_benchmarks())?;
        Ok(cfg)
    }

    /// [`Config::from_env`] for a binary's `main`: a usage error goes to
    /// stderr and exits with [`exit_codes::USAGE`].
    pub fn from_env_or_exit() -> Config {
        Config::from_env().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(exit_codes::USAGE)
        })
    }

    /// The problems of `pool` this configuration selects, in pool order:
    /// all of them without an id list, else the listed ones.
    ///
    /// # Errors
    ///
    /// A usage message naming every listed id `pool` does not have, so a
    /// typo'd list can never shrink to a silently passing run.
    pub fn select(&self, mut pool: Vec<Benchmark>) -> Result<Vec<Benchmark>, String> {
        let unknown: Vec<&str> = self
            .ids
            .iter()
            .map(String::as_str)
            .filter(|i| !pool.iter().any(|b| b.id == *i))
            .collect();
        if !unknown.is_empty() {
            let known: Vec<&str> = pool.iter().map(|b| b.id.as_str()).collect();
            return Err(format!(
                "unknown benchmark id(s) {unknown:?} (known: {})",
                known.join(",")
            ));
        }
        if !self.ids.is_empty() {
            pool.retain(|b| self.ids.contains(&b.id));
        }
        Ok(pool)
    }

    /// The registry benchmarks selected by this configuration.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        let all = all_benchmarks();
        if self.ids.is_empty() {
            all
        } else {
            all.into_iter()
                .filter(|b| self.ids.contains(&b.id))
                .collect()
        }
    }
}

/// One synthesis attempt.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Wall-clock time (capped near the timeout for failures).
    pub time: Duration,
    /// Solution body (compact) when synthesis succeeded.
    pub solution: Option<String>,
    /// Solution size / paths when available.
    pub size: usize,
    /// Paths through the synthesized method.
    pub paths: usize,
    /// Whether the run timed out (vs. failed outright).
    pub timed_out: bool,
}

impl RunOutcome {
    /// Did synthesis succeed?
    pub fn succeeded(&self) -> bool {
        self.solution.is_some()
    }
}

/// Runs one benchmark once under the given guidance/precision.
pub fn run_benchmark(
    b: &Benchmark,
    guidance: Guidance,
    precision: EffectPrecision,
    timeout: Duration,
) -> RunOutcome {
    let (env, problem) = (b.build)();
    let opts = Options {
        guidance,
        precision,
        timeout: Some(timeout),
        ..(b.options)()
    };
    let started = std::time::Instant::now();
    match Synthesizer::new(env, problem, opts).run() {
        Ok(res) => RunOutcome {
            time: started.elapsed(),
            solution: Some(res.program.body.compact()),
            size: res.stats.solution_size,
            paths: res.stats.solution_paths,
            timed_out: false,
        },
        Err(e) => RunOutcome {
            time: started.elapsed(),
            solution: None,
            size: 0,
            paths: 0,
            timed_out: matches!(e, SynthError::Timeout),
        },
    }
}

/// Median and semi-interquartile range of a sample (Table 1's
/// `median ± SIQR` over 11 runs).
pub fn median_siqr(samples: &mut [Duration]) -> (Duration, Duration) {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort();
    let pick = |q: f64| -> Duration {
        let pos = q * (samples.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let frac = pos - lo as f64;
        let a = samples[lo].as_secs_f64();
        let b = samples[hi].as_secs_f64();
        Duration::from_secs_f64(a + (b - a) * frac)
    };
    let median = pick(0.5);
    let q1 = pick(0.25);
    let q3 = pick(0.75);
    let siqr = Duration::from_secs_f64((q3.as_secs_f64() - q1.as_secs_f64()) / 2.0);
    (median, siqr)
}

/// One Table 1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Group label.
    pub group: &'static str,
    /// Benchmark id.
    pub id: String,
    /// Benchmark name.
    pub name: String,
    /// Spec count.
    pub specs: usize,
    /// Assert min/max.
    pub asserts: (usize, usize),
    /// Paths through the original method.
    pub orig_paths: usize,
    /// Search-visible library methods.
    pub lib_meths: usize,
    /// Median time, full guidance; `None` = timeout/failure.
    pub te_median: Option<Duration>,
    /// SIQR for the full-guidance runs.
    pub te_siqr: Duration,
    /// Median with type guidance only.
    pub t_only: Option<Duration>,
    /// Median with effect guidance only.
    pub e_only: Option<Duration>,
    /// Median with neither.
    pub neither: Option<Duration>,
    /// Synthesized method size (AST nodes).
    pub meth_size: usize,
    /// Paths through the synthesized method.
    pub syn_paths: usize,
}

fn median_of_mode(
    b: &Benchmark,
    guidance: Guidance,
    cfg: &Config,
) -> (Option<Duration>, Duration, usize, usize) {
    let mut times = Vec::with_capacity(cfg.runs);
    let mut size = 0;
    let mut paths = 0;
    for _ in 0..cfg.runs {
        let out = run_benchmark(b, guidance, EffectPrecision::Precise, cfg.timeout);
        if !out.succeeded() {
            return (None, Duration::ZERO, 0, 0);
        }
        size = out.size;
        paths = out.paths;
        times.push(out.time);
    }
    let (median, siqr) = median_siqr(&mut times);
    (Some(median), siqr, size, paths)
}

/// Computes every Table 1 row (this is the expensive call; honours
/// `Config`).
pub fn table1_rows(cfg: &Config) -> Vec<Table1Row> {
    cfg.benchmarks()
        .iter()
        .map(|b| {
            let (te_median, te_siqr, meth_size, syn_paths) =
                median_of_mode(b, Guidance::both(), cfg);
            // Ablations: a single run each (they either finish fast or time
            // out; the paper reports medians with tiny SIQRs).
            let one = |g: Guidance| {
                let out = run_benchmark(b, g, EffectPrecision::Precise, cfg.ablation_timeout);
                out.succeeded().then_some(out.time)
            };
            let asserts = (b.expected.asserts_min, b.expected.asserts_max);
            Table1Row {
                group: b.group.label(),
                id: b.id.clone(),
                name: b.name.clone(),
                specs: b.expected.specs,
                asserts,
                orig_paths: b.expected.orig_paths,
                lib_meths: b.lib_method_count(),
                te_median,
                te_siqr,
                t_only: one(Guidance::types_only()),
                e_only: one(Guidance::effects_only()),
                neither: one(Guidance::neither()),
                meth_size,
                syn_paths,
            }
        })
        .collect()
}

/// Formats a Table 1 row set as the paper's table.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let fmt_t = |t: &Option<Duration>| match t {
        Some(d) => format!("{:.2}", d.as_secs_f64()),
        None => "-".to_owned(),
    };
    let mut out = String::new();
    out.push_str(
        "Group      ID   Name                 Specs Asserts Orig  Lib   Time(s)        Types  Effects Neither  Size Paths\n",
    );
    out.push_str("                                            min-max Paths Meth  median±SIQR\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<4} {:<20} {:>5} {:>3}-{:<3} {:>5} {:>4}  {:>6}±{:<6} {:>6} {:>7} {:>7} {:>5} {:>5}\n",
            r.group,
            r.id,
            r.name,
            r.specs,
            r.asserts.0,
            r.asserts.1,
            r.orig_paths,
            r.lib_meths,
            fmt_t(&r.te_median),
            format!("{:.2}", r.te_siqr.as_secs_f64()),
            fmt_t(&r.t_only),
            fmt_t(&r.e_only),
            fmt_t(&r.neither),
            r.meth_size,
            r.syn_paths,
        ));
    }
    out
}

/// One Figure 7 series point: a benchmark solved at `time` under `mode`.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Guidance label.
    pub mode: &'static str,
    /// Sorted solve times (timeouts excluded) — the cactus plot series.
    pub solve_times: Vec<Duration>,
    /// Benchmarks attempted.
    pub total: usize,
}

/// Computes the Fig. 7 cactus-plot series (one timed run per benchmark per
/// mode).
pub fn fig7_rows(cfg: &Config) -> Vec<Fig7Row> {
    let benchmarks = cfg.benchmarks();
    Guidance::all()
        .into_iter()
        .map(|g| {
            let timeout = if g == Guidance::both() {
                cfg.timeout
            } else {
                cfg.ablation_timeout
            };
            let mut times: Vec<Duration> = benchmarks
                .iter()
                .filter_map(|b| {
                    let out = run_benchmark(b, g, EffectPrecision::Precise, timeout);
                    out.succeeded().then_some(out.time)
                })
                .collect();
            times.sort();
            Fig7Row {
                mode: g.label(),
                solve_times: times,
                total: benchmarks.len(),
            }
        })
        .collect()
}

/// Renders Fig. 7 as text: cumulative solved counts per mode.
pub fn format_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: benchmarks solved (cumulative) vs time\n");
    for r in rows {
        out.push_str(&format!(
            "{:<12} solved {:>2}/{}",
            r.mode,
            r.solve_times.len(),
            r.total
        ));
        let series: Vec<String> = r
            .solve_times
            .iter()
            .enumerate()
            .map(|(i, t)| format!("({:.2}s,{})", t.as_secs_f64(), i + 1))
            .collect();
        out.push_str(&format!("  [{}]\n", series.join(" ")));
    }
    out
}

/// One Figure 8 row: per-benchmark medians under the three precision
/// levels.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Benchmark id.
    pub id: String,
    /// Solve time of one run per precision (Precise, Class, Purity);
    /// `None` = timeout.
    pub times: [Option<Duration>; 3],
}

/// Computes Fig. 8 (one timed run per benchmark per precision level).
pub fn fig8_rows(cfg: &Config) -> Vec<Fig8Row> {
    cfg.benchmarks()
        .iter()
        .map(|b| {
            let times = EffectPrecision::all().map(|p| {
                let timeout = if p == EffectPrecision::Precise {
                    cfg.timeout
                } else {
                    cfg.coarse_timeout
                };
                let out = run_benchmark(b, Guidance::both(), p, timeout);
                out.succeeded().then_some(out.time)
            });
            Fig8Row {
                id: b.id.clone(),
                times,
            }
        })
        .collect()
}

/// Renders Fig. 8 as text.
pub fn format_fig8(rows: &[Fig8Row]) -> String {
    let fmt = |t: &Option<Duration>| match t {
        Some(d) => format!("{:>8.2}", d.as_secs_f64()),
        None => format!("{:>8}", "timeout"),
    };
    let mut out = String::new();
    out.push_str("Figure 8: synthesis time (s) vs effect-annotation precision\n");
    out.push_str(&format!(
        "{:<5} {:>8} {:>8} {:>8}\n",
        "ID", "Precise", "Class", "Purity"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<5} {} {} {}\n",
            r.id,
            fmt(&r.times[0]),
            fmt(&r.times[1]),
            fmt(&r.times[2])
        ));
    }
    out
}

// ───────────────────────── parallel batch driver ─────────────────────────

/// Runs `benchmarks` as one parallel batch through
/// [`rbsyn_core::run_batch`] (`threads` = 0 means all cores, 1 means
/// sequential job dispatch): one job per benchmark under full guidance
/// and precise effects, each with its own `timeout` deadline.
pub fn run_suite_on(benchmarks: Vec<Benchmark>, timeout: Duration, threads: usize) -> BatchReport {
    let jobs: Vec<BatchJob> = benchmarks
        .into_iter()
        .map(|b| {
            let opts = Options {
                guidance: Guidance::both(),
                precision: EffectPrecision::Precise,
                timeout: Some(timeout),
                ..(b.options)()
            };
            // `b.build` is a shared factory closure: cheap to move,
            // shares no mutable state.
            let id = b.id.clone();
            BatchJob::new(id, move || (b.build)(), opts)
        })
        .collect();
    run_batch(&jobs, threads)
}

/// Process exit codes for synthesis outcomes — re-exported from
/// [`rbsyn_core::exit`] so `solve`, `speccheck` and `specgen` share one
/// contract: `0` solved, `1` other failure (including contained panics),
/// `2` usage error, `3` spec parse/lower error, `4` timeout (cooperative
/// or hard deadline), `5` search exhausted without a program.
pub use rbsyn_core::exit as exit_codes;

/// Writes `bytes` to `path`, the file an output flag (`--json`,
/// `--trace`) names, atomically. A path that cannot be written is
/// reported as `cannot write <flag> file <path>: <error>` on stderr and
/// exits with [`exit_codes::OTHER`] rather than panicking.
pub fn write_output_or_exit(flag: &str, path: &str, bytes: &[u8]) {
    if let Err(e) = atomic_write(Path::new(path), bytes) {
        eprintln!("cannot write {flag} file {path}: {e}");
        std::process::exit(exit_codes::OTHER);
    }
}

/// For a binary configured only by environment variables (`fig7`,
/// `fig8`): any command-line argument is a usage error that names it and
/// exits with [`exit_codes::USAGE`], rather than being ignored.
pub fn no_args_or_exit(bin: &str) {
    if let Some(arg) = std::env::args_os().nth(1) {
        eprintln!(
            "{bin}: unexpected argument {arg:?}\n\
             usage: {bin} (no arguments; set the RBSYN_* environment variables instead)"
        );
        std::process::exit(exit_codes::USAGE);
    }
}

/// Renders a batch report's *deterministic* section: one line per job with
/// id, status, solution text and search counters — no wall-clock times.
///
/// Jobs are isolated and the per-job search is deterministic, so for runs
/// where every job finishes within its budget this output is byte-identical
/// across thread counts (a job right at its deadline boundary can flip to
/// `timeout` under heavy core contention, like any wall-clock budget).
pub fn format_batch_solutions(report: &BatchReport) -> String {
    let mut out = String::new();
    for o in &report.outcomes {
        match &o.result {
            Ok(r) => out.push_str(&format!(
                "{:<4} solved  size {:>2}  paths {:>2}  tested {:>8}  {}\n",
                o.id,
                r.stats.solution_size,
                r.stats.solution_paths,
                r.stats.search.tested,
                r.program.body.compact(),
            )),
            Err(e) => out.push_str(&format!("{:<4} failed  {e}\n", o.id)),
        }
    }
    out
}

/// Renders a batch report's timing summary (non-deterministic section; keep
/// it on stderr when byte-comparing runs).
pub fn format_batch_stats(report: &BatchReport) -> String {
    let s = &report.stats;
    format!(
        "batch: {} jobs on {} thread(s) — {} solved, {} timeout, {} failed \
         ({} panicked); \
         {} candidates tested, {} deduped, {} vector hits; \
         phases generate {:.2}s | guard {:.2}s | merge {:.2}s | eval {:.2}s; \
         wall {:.2}s, cpu {:.2}s, cpu-ratio {:.2}x\n",
        s.jobs,
        s.threads,
        s.solved,
        s.timeouts,
        s.failures,
        s.panics,
        s.tested,
        s.deduped,
        s.vector_hits,
        s.generate_time.as_secs_f64(),
        s.guard_time.as_secs_f64(),
        s.merge_time.as_secs_f64(),
        s.eval_time.as_secs_f64(),
        s.wall_clock.as_secs_f64(),
        s.cpu_time.as_secs_f64(),
        s.speedup(),
    )
}

/// Escapes a string for embedding in the hand-rolled JSON reports (the
/// workspace is dependency-free, so there is no serde).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a batch report as JSON (hand-rolled — the workspace is
/// dependency-free): the `solve --all --json` format, which CI's effort
/// gate reads.
pub fn batch_stats_json(report: &BatchReport) -> String {
    let s = &report.stats;
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"jobs\": {}, \"threads\": {}, \"solved\": {}, \"timeouts\": {}, \"failures\": {}, \
         \"panics\": {},\n",
        s.jobs, s.threads, s.solved, s.timeouts, s.failures, s.panics
    ));
    out.push_str(&format!(
        "  \"exit_code\": {},\n",
        exit_codes::for_batch(report)
    ));
    out.push_str(&format!(
        "  \"tested\": {}, \"expanded\": {}, \"popped\": {},\n",
        s.tested, s.expanded, s.popped
    ));
    out.push_str(&format!(
        "  \"deduped\": {}, \"vector_hits\": {},\n",
        s.deduped, s.vector_hits
    ));
    // `cpu_ratio` is the old `speedup` field renamed: cpu-time over wall
    // time, which a 1-core host can report > 1 while the wall clock is
    // *worse* than sequential. A real speedup (sequential wall / parallel
    // wall) needs a sequential baseline a single batch run does not have;
    // `solve --compare` prints it on stderr.
    out.push_str(&format!(
        "  \"wall_clock_secs\": {:.6}, \"cpu_time_secs\": {:.6}, \"cpu_ratio\": {:.4},\n",
        s.wall_clock.as_secs_f64(),
        s.cpu_time.as_secs_f64(),
        s.speedup()
    ));
    out.push_str(&format!(
        "  \"generate_time_secs\": {:.6}, \"guard_time_secs\": {:.6}, \
         \"merge_time_secs\": {:.6}, \"eval_time_secs\": {:.6},\n",
        s.generate_time.as_secs_f64(),
        s.guard_time.as_secs_f64(),
        s.merge_time.as_secs_f64(),
        s.eval_time.as_secs_f64(),
    ));
    out.push_str("  \"results\": [\n");
    for (i, o) in report.outcomes.iter().enumerate() {
        let sep = if i + 1 == report.outcomes.len() {
            ""
        } else {
            ","
        };
        match &o.result {
            // Per-task phase timing: `generate_secs` is the phase-1
            // per-spec search time, `guard_secs` the merge-time guard
            // covering, `merge_secs` the rest of the merge call (rewrite
            // rounds, odometer, validation), `eval_secs` the
            // oracle/interpreter time across all phases — no more single
            // lumped total. `teardown_secs` is the time spent freeing the
            // run's state after its clock stopped.
            Ok(r) => out.push_str(&format!(
                "    {{\"id\": \"{}\", \"status\": \"solved\", \"exit_code\": 0, \
                 \"elapsed_secs\": {:.6}, \
                 \"generate_secs\": {:.6}, \"guard_secs\": {:.6}, \
                 \"merge_secs\": {:.6}, \"eval_secs\": {:.6}, \"teardown_secs\": {:.6}, \
                 \"size\": {}, \"paths\": {}, \"tested\": {}, \
                 \"vector_hits\": {}, \"solution\": \"{}\"}}{sep}\n",
                json_escape(&o.id),
                o.elapsed.as_secs_f64(),
                r.stats.generate_time.as_secs_f64(),
                r.stats.guard_time.as_secs_f64(),
                r.stats.merge_time.as_secs_f64(),
                r.stats.search.eval_nanos as f64 / 1e9,
                r.stats.teardown_time.as_secs_f64(),
                r.stats.solution_size,
                r.stats.solution_paths,
                r.stats.search.tested,
                r.stats.search.vector_hits,
                json_escape(&r.program.body.compact()),
            )),
            Err(e) => out.push_str(&format!(
                "    {{\"id\": \"{}\", \"status\": \"{}\", \"exit_code\": {}, \
                 \"elapsed_secs\": {:.6}, \"error\": \"{}\"}}{sep}\n",
                json_escape(&o.id),
                if exit_codes::for_error(e) == exit_codes::TIMEOUT {
                    "timeout"
                } else {
                    "failed"
                },
                exit_codes::for_error(e),
                o.elapsed.as_secs_f64(),
                json_escape(&e.to_string()),
            )),
        }
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_siqr_basics() {
        let mut s = vec![
            Duration::from_millis(100),
            Duration::from_millis(200),
            Duration::from_millis(300),
        ];
        let (m, siqr) = median_siqr(&mut s);
        assert_eq!(m, Duration::from_millis(200));
        assert_eq!(siqr, Duration::from_millis(50));
        let mut one = vec![Duration::from_millis(42)];
        let (m1, s1) = median_siqr(&mut one);
        assert_eq!(m1, Duration::from_millis(42));
        assert_eq!(s1, Duration::ZERO);
    }

    #[test]
    fn config_selection() {
        let base = Config {
            runs: 1,
            timeout: Duration::from_secs(1),
            ablation_timeout: Duration::from_secs(1),
            coarse_timeout: Duration::from_secs(1),
            ids: vec!["S1".into()],
        };
        assert_eq!(base.benchmarks().len(), 1);
        let typo = Config {
            ids: vec!["S1".into(), "ZZ".into()],
            ..base.clone()
        };
        let Err(err) = typo.select(all_benchmarks()) else {
            panic!("an unknown id must be refused");
        };
        assert!(err.contains("[\"ZZ\"]"), "{err}");
        let all = Config {
            ids: vec![],
            ..base
        };
        assert_eq!(all.benchmarks().len(), 19);
    }

    #[test]
    fn id_lists_parse_or_name_the_problem() {
        assert_eq!(
            parse_ids("--ids", "S1, A2,"),
            Ok(vec!["S1".into(), "A2".into()])
        );
        assert_eq!(parse_ids("--ids", ""), Ok(vec![]));
        let err = parse_ids("RBSYN_BENCH_IDS", " , ").unwrap_err();
        assert!(err.contains("names no benchmark id"), "{err}");
    }

    #[test]
    fn s1_runs_fast_under_harness() {
        let b = rbsyn_suite::benchmark("S1").unwrap();
        let out = run_benchmark(
            &b,
            Guidance::both(),
            EffectPrecision::Precise,
            Duration::from_secs(30),
        );
        assert!(out.succeeded());
        assert_eq!(out.solution.as_deref(), Some("arg0"));
    }
}
