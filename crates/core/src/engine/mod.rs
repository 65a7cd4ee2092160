//! The search engine: frontier and scheduler.
//!
//! PR 3 extracted the moving parts of the work-list search out of
//! [`crate::generate`](mod@crate::generate) into this module so each is a
//! replaceable component:
//!
//! * [`Frontier`] — the candidate work-list of Algorithm 2, in §4's
//!   `(c desc, size asc, first pushed first)`, one FIFO per rank;
//! * [`Scheduler`] — the per-run deadline, the tracing session and
//!   deterministic stats aggregation ([`SearchStats`]).
//!
//! **Determinism story.** A synthesis run searches on one thread: phases,
//! specs, guard requests and every work-list pop run one after another on
//! the run's own thread, in a fixed order. The only state shared beyond
//! the run is the global symbol interner, and symbols compare, order and
//! hash by their text, so interning order cannot change any result.
//! Consequently synthesized programs and effort counters are
//! byte-identical across batch thread counts; only wall-clock varies.

pub mod frontier;
pub mod scheduler;

pub use frontier::{Frontier, Priority};
pub use scheduler::{Scheduler, SearchStats};
