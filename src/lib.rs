//! # rbsyn
//!
//! A Rust reproduction of **RbSyn: Type- and Effect-Guided Program
//! Synthesis** (Guria, Foster, Van Horn — PLDI 2021).
//!
//! This facade crate re-exports the whole workspace so examples, tests and
//! downstream users need a single dependency:
//!
//! * [`lang`] — λ_syn syntax: values, expressions, holes, types, effects;
//! * [`ty`] — class lattice, subtyping, effect subsumption, method
//!   signatures with comp types, the class table;
//! * [`db`] — in-memory relational store;
//! * [`interp`] — effect-tracking interpreter and spec runner;
//! * [`stdlib`] — the annotated "Ruby core + ActiveRecord" library;
//! * [`core`] — the synthesizer itself (goals, search, merging);
//! * [`front`] — the textual `.rbspec` frontend (problems as data);
//! * [`suite`] — the 19 evaluation benchmarks of the paper, loaded from
//!   `benchmarks/*.rbspec`.
//!
//! See `README.md` for a quickstart and `ARCHITECTURE.md` for the
//! architecture.

pub use rbsyn_core as core;
pub use rbsyn_db as db;
pub use rbsyn_front as front;
pub use rbsyn_interp as interp;
pub use rbsyn_lang as lang;
pub use rbsyn_stdlib as stdlib;
pub use rbsyn_suite as suite;
pub use rbsyn_ty as ty;

/// Convenience prelude: the types needed to define and run a synthesis
/// problem.
pub mod prelude {
    pub use rbsyn_core::{Guidance, Options, SynthEnv, SynthResult, SynthesisProblem, Synthesizer};
    pub use rbsyn_lang::builder::*;
    pub use rbsyn_lang::{EffectSet, Expr, Program, Symbol, Ty, Value};
    pub use rbsyn_ty::EffectPrecision;
}
