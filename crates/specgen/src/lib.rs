//! **specgen** — a seeded generator of solvable-by-construction `.rbspec`
//! synthesis problems, a frontend fuzzer, and a differential solve gate.
//!
//! The paper's evaluation rests on 19 hand-ported benchmarks; this crate
//! stress-tests the whole pipeline with *generated* ones. Three modes,
//! all driven by the `specgen` binary:
//!
//! - **Corpus generation** ([`gen::write_corpus`]): derive `count`
//!   problems from a single seed, each with a hidden reference program
//!   that is expressible in the search space and verified to solve under
//!   a deterministic expansion budget. The checked-in corpus under
//!   `benchmarks/generated/` is byte-reproducible from its
//!   `MANIFEST.txt`.
//! - **Fuzzing** ([`fuzz::run_fuzz`]): mutate well-formed files at the
//!   byte and token level and assert the frontend never panics and every
//!   rejection carries an in-bounds source span.
//! - **Differential gate** ([`gen::solve_and_check`]): re-derive each
//!   file's hidden reference from its provenance header, solve the
//!   problem, and require the solution to be observationally equivalent
//!   to the reference (evaluation fingerprints over every spec world) —
//!   or to time out cleanly.
//!
//! Everything is a pure function of the seed: no time, no process ids,
//! no map-iteration order.

#![deny(missing_docs)]

pub mod fuzz;
pub mod gen;

pub use fuzz::{run_fuzz, FuzzReport};
pub use gen::{
    gen_candidate, gen_candidate_with, generate_problem, parse_header, read_manifest,
    solve_and_check, write_corpus, Candidate, GenKey, Verdict, DEFAULT_COUNT, DEFAULT_SEED,
};
