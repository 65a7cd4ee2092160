//! Experiment harness regenerating the paper's evaluation (§5): Table 1,
//! Figure 7 and Figure 8.
//!
//! Configuration comes from environment variables so `cargo bench` stays
//! hands-free while full paper-scale runs remain possible:
//!
//! * `RBSYN_RUNS` — timed runs per benchmark (paper: 11; default: 3;
//!   at least 1);
//! * `RBSYN_TIMEOUT_SECS` — per-run timeout (paper: 300; default: 60);
//! * `RBSYN_BENCH_IDS` — comma-separated subset (default: all 19).

pub mod harness;

pub use harness::{
    batch_stats_json, exit_codes, fig7_rows, fig8_rows, format_batch_solutions, format_batch_stats,
    median_siqr, run_benchmark, run_suite, run_suite_on, suite_jobs, table1_rows, Config, Fig7Row,
    Fig8Row, RunOutcome, Table1Row,
};
