//! Regenerates Table 1 of the paper (paper-faithful, sequential):
//!
//! ```text
//! RBSYN_RUNS=11 RBSYN_TIMEOUT_SECS=300 cargo run --release -p rbsyn-bench --bin table1 [-- --json PATH]
//! ```
//!
//! The `RBSYN_*` environment variables in the crate docs configure the
//! run; `--json PATH` also writes the rows as JSON. Any other argument is
//! a usage error (exit 2).

use rbsyn_bench::harness::{format_table1, table1_rows, write_output_or_exit, Config};
use std::time::Duration;

fn main() {
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().unwrap_or_else(|| die("--json needs a path"))),
            _ => die(&format!("unknown argument {a:?} (try --json PATH)")),
        }
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
