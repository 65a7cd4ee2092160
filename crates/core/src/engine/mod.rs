//! The search engine: frontier, scheduler and in-search speculation.
//!
//! PR 3 extracted the moving parts of the work-list search out of
//! [`crate::generate`](mod@crate::generate) into this module so each is a
//! replaceable
//! component:
//!
//! * [`Frontier`] — the hash-consed candidate priority queue of
//!   Algorithm 2, in §4's `(c desc, size asc, insertion order)`;
//! * [`Scheduler`] — per-run deadlines, the watchdog kill flag, the
//!   memoization handle, the speculation width and deterministic stats
//!   aggregation ([`SearchStats`]);
//! * [`SpeculationPool`] — scoped worker threads that expand and judge
//!   the top of one search's frontier ahead of its in-order consumption
//!   (`--intra N` sets its width);
//! * [`Watchdog`] — the hard-cancellation backstop behind the
//!   cooperative deadline.
//!
//! **Determinism story.** The only intra-problem parallelism is
//! *speculative and consumed in pop order*: pool workers pre-compute
//! expansion lists (through the run's memo) and oracle outcomes for a
//! window of frontier items, and the search consumes them exactly where
//! the sequential loop would have computed them, rolling the window back
//! when a fresh child outranks it. Phases, specs and guard requests still
//! run one after another on the run's own thread. Every memoized value is
//! a pure function of its key, so cache warm-up order cannot change any
//! result. Consequently synthesized programs and effort counters are
//! byte-identical across `--intra` widths and thread counts; only
//! wall-clock and cache-hit diagnostics vary.

pub mod frontier;
pub mod scheduler;
pub mod speculate;
pub mod watchdog;

pub use frontier::{Frontier, FrontierItem, Priority};
pub use scheduler::{Scheduler, SearchStats};
pub use speculate::{SpecJob, SpeculationPool};
pub use watchdog::Watchdog;
