//! Regenerates Table 1 of the paper.
//!
//! Full (paper-faithful, sequential) mode:
//!
//! ```text
//! RBSYN_RUNS=11 RBSYN_TIMEOUT_SECS=300 cargo run --release -p rbsyn-bench --bin table1
//! ```
//!
//! CI smoke mode — a small fixed subset of the registry through the
//! parallel batch driver with a tight per-problem deadline, with machine-
//! readable stats for the pipeline artifact. Exits nonzero if any smoke
//! benchmark fails to synthesize (so synthesis regressions fail CI):
//!
//! ```text
//! cargo run --release -p rbsyn-bench --bin table1 -- --smoke [--parallel N] [--json PATH]
//! ```

use rbsyn_bench::harness::{
    batch_stats_json, format_batch_solutions, format_batch_stats, format_table1, run_suite,
    table1_rows, write_output_or_exit, Config,
};
use std::time::Duration;

/// The smoke subset: benchmarks that solve well under the smoke deadline in
/// release builds, spanning all three search features (constant/var
/// solutions, effect-guided writes, branch merging).
const SMOKE_IDS: &[&str] = &["S1", "S2", "S3", "S4", "A7"];
const SMOKE_TIMEOUT: Duration = Duration::from_secs(20);

fn main() {
    let mut smoke = false;
    let mut parallel: usize = 0;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--parallel" => {
                parallel = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--parallel needs a number"))
            }
            "--json" => json = Some(args.next().unwrap_or_else(|| die("--json needs a path"))),
            _ => die(&format!(
                "unknown argument {a:?} (try --smoke, --parallel N, --json PATH)"
            )),
        }
    }
    // Full Table 1 timing is deliberately sequential (parallel runs would
    // contend for cores and distort the medians); don't accept a flag we
    // would silently ignore.
    if parallel != 0 && !smoke {
        die("--parallel is only meaningful with --smoke (full Table 1 timing runs sequentially)");
    }

    if smoke {
        let cfg = Config {
            ids: SMOKE_IDS.iter().map(|s| (*s).to_owned()).collect(),
            timeout: SMOKE_TIMEOUT,
            ..Config::from_env_or_exit()
        };
        eprintln!(
            "table1 --smoke: {} benchmarks, {}s deadline each, {} thread(s)",
            cfg.benchmarks().len(),
            cfg.timeout.as_secs(),
            if parallel == 0 {
                "all".to_owned()
            } else {
                parallel.to_string()
            }
        );
        let report = run_suite(&cfg, parallel);
        print!("{}", format_batch_solutions(&report));
        eprint!("{}", format_batch_stats(&report));
        if let Some(path) = &json {
            write_output_or_exit("--json", path, batch_stats_json(&report).as_bytes());
            eprintln!("stats written to {path}");
        }
        std::process::exit(if report.stats.solved == report.stats.jobs {
            0
        } else {
            1
        });
    }

    let cfg = Config::from_env_or_exit();
    eprintln!(
        "table1: {} runs/benchmark, {}s timeout, {} benchmarks",
        cfg.runs,
        cfg.timeout.as_secs(),
        cfg.benchmarks().len()
    );
    let rows = table1_rows(&cfg);
    print!("{}", format_table1(&rows));
    if let Some(path) = &json {
        // Full mode reuses the batch JSON shape via a fresh solve pass? No —
        // Table 1 rows carry medians; serialize them directly.
        let mut out = String::from("{\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            let t = |d: &Option<Duration>| {
                d.map(|d| format!("{:.6}", d.as_secs_f64()))
                    .unwrap_or_else(|| "null".into())
            };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"te_median_secs\": {}, \"t_only_secs\": {}, \
                 \"e_only_secs\": {}, \"neither_secs\": {}, \"size\": {}, \"paths\": {}}}{sep}\n",
                r.id,
                t(&r.te_median),
                t(&r.t_only),
                t(&r.e_only),
                t(&r.neither),
                r.meth_size,
                r.syn_paths
            ));
        }
        out.push_str("  ]\n}\n");
        write_output_or_exit("--json", path, out.as_bytes());
        eprintln!("stats written to {path}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("table1: {msg}");
    std::process::exit(2);
}
