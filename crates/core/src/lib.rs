//! **RbSyn** — the type- and effect-guided synthesis engine (the paper's
//! primary contribution, §3–§4).
//!
//! Given a [`SynthesisProblem`] — a method type signature, a constant set
//! `Σ`, and a list of specs — the [`Synthesizer`]:
//!
//! 1. solves each spec independently with the work-list search of
//!    Algorithm 2 ([`generate()`]): typed holes are filled by type-guided
//!    rules (S-Const / S-Var / S-App, Fig. 4), and failing candidates whose
//!    assertions read region `ε_r` are wrapped with effect holes (S-Eff)
//!    filled by methods that *write* `ε_r` (S-EffApp, Fig. 5);
//! 2. synthesizes branch conditions that distinguish the specs' setups
//!    ([`guards`]);
//! 3. merges per-spec solutions into one branching program with the rewrite
//!    rules of Fig. 6/Fig. 13, deciding implications with a SAT solver
//!    (Algorithm 1, [`merge`]).
//!
//! The search is deterministic; candidates are explored by (passed
//! assertions ↓, AST size ↑, insertion order) exactly as §4 describes. The
//! §5.3 guidance ablation ([`Guidance`]) and the §5.4 effect-precision
//! ablation ([`rbsyn_ty::EffectPrecision`]) are configuration switches on
//! [`Options`].
//!
//! Both searches — method bodies and branch conditions — enumerate in one
//! hash-consing node arena (`arena.rs`), private to each search, and build
//! each call-template list where the [`expand::Expander`] is asked for it:
//! nothing is memoized across searches or shared between batch jobs.
//!
//! The search's moving parts — frontier, scheduler and watchdog — live in
//! [`engine`]. A synthesis run searches on one thread; the only
//! parallelism is the [`batch`] driver's job threads (`--parallel`).

#![deny(missing_docs)]

mod arena;
pub mod batch;
pub mod engine;
pub mod error;
pub mod exit;
pub mod expand;
pub mod generate;
pub mod goal;
pub mod guards;
pub mod infer;
pub mod merge;
pub mod options;
pub mod synthesizer;

pub use batch::{
    run_batch, run_batch_with, BatchJob, BatchOutcome, BatchPolicy, BatchReport, BatchStats,
};
pub use engine::{Scheduler, SearchStats};
pub use error::SynthError;
pub use generate::{generate, GenerateOutcome, Oracle};
pub use goal::{ProblemBuilder, SynthesisProblem};
pub use options::{Guidance, Options};
pub use synthesizer::{SynthResult, SynthStats, Synthesizer};

/// The synthesis environment is the interpreter environment: class table
/// with annotations, native method bodies, and the pristine database.
pub type SynthEnv = rbsyn_interp::InterpEnv;
