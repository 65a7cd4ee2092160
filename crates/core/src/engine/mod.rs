//! The search engine: frontier, scheduler and watchdog.
//!
//! PR 3 extracted the moving parts of the work-list search out of
//! [`crate::generate`](mod@crate::generate) into this module so each is a
//! replaceable component:
//!
//! * [`Frontier`] — the candidate priority queue of Algorithm 2, in §4's
//!   `(c desc, size asc, insertion order)`;
//! * [`Scheduler`] — per-run deadlines, the watchdog kill flag, the
//!   tracing session and deterministic stats aggregation
//!   ([`SearchStats`]);
//! * [`Watchdog`] — the hard-cancellation backstop behind the
//!   cooperative deadline.
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
pub mod watchdog;

pub use frontier::{Frontier, Priority};
pub use scheduler::{Scheduler, SearchStats};
pub use watchdog::Watchdog;
