//! Experiment harness regenerating the paper's evaluation (§5): Table 1,
//! Figure 7 and Figure 8.
//!
//! Configuration comes from environment variables so a default run stays
//! hands-free while full paper-scale runs remain possible:
//!
//! * `RBSYN_RUNS` — timed runs per benchmark (paper: 11; default: 3;
//!   `0` counts as 1);
//! * `RBSYN_TIMEOUT_SECS` — per-run timeout in seconds (paper: 300;
//!   default: 60);
//! * `RBSYN_ABLATION_TIMEOUT_SECS` — timeout of the guidance ablations
//!   (default: the smaller of 8 s and `RBSYN_TIMEOUT_SECS`);
//! * `RBSYN_COARSE_TIMEOUT_SECS` — timeout of Fig. 8's coarse
//!   effect-precision runs (default: the smaller of 20 s and
//!   `RBSYN_TIMEOUT_SECS`);
//! * `RBSYN_BENCH_IDS` — comma-separated subset (default: all 19). An
//!   unknown id, or a non-empty list that names none, is a usage error
//!   (exit 2).
//!
//! An unset or empty variable takes its default. A numeric variable set
//! to anything but an unsigned integer (`1.5`, `abc`, `-1`) is a usage
//! error (exit 2) that names the variable and its value.

pub mod harness;

pub use harness::{
    batch_stats_json, exit_codes, fig7_rows, fig8_rows, format_batch_solutions, format_batch_stats,
    median_siqr, run_benchmark, run_suite_on, table1_rows, write_output_or_exit, Config, Fig7Row,
    Fig8Row, RunOutcome, Table1Row,
};
