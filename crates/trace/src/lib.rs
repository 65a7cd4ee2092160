//! Search-event tracing for the synthesis engine.
//!
//! A [`Session`] collects timestamped events — RAII phase [`Span`]s,
//! instant [`Mark`]s, and counter samples — from one synthesis run, and
//! turns them into two exports: Chrome trace-event JSON
//! ([`Trace::to_chrome_json`], loadable in Perfetto or
//! `chrome://tracing`) and a compact aggregated self/total-time profile
//! per phase and goal type ([`Trace::profile`]).
//!
//! ## Recording model
//!
//! A run searches on the thread that runs it and starts no thread of its
//! own, so a session records on one thread: the one that opened it. The
//! session is an `Rc`, so the compiler keeps every clone on that thread.
//! Events go into one ring buffer ([`TraceConfig::capacity`] events;
//! wraparound drops the *oldest* and counts them) through plain
//! `RefCell` access — no atomics, no locks, no allocation beyond the ring
//! itself — and [`Session::finish`] drains the ring into the trace. The
//! engine holds the session as an `Option`: with tracing off every
//! instrumentation site is one `None` check, so tracing off is zero-cost
//! and — because recording only *reads* engine state — tracing on leaves
//! synthesized programs and effort counters byte-identical.
//!
//! ## Timestamps
//!
//! A session carries one monotonic epoch ([`std::time::Instant`] captured
//! at construction); every event stores nanoseconds since that epoch.

#![deny(missing_docs)]

mod chrome;
mod profile;
pub mod schema;

pub use profile::{Profile, ProfileRow};

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

/// Tracing knobs of a [`Session`]; a run traces when one is attached
/// (`Synthesizer::with_tracer` in `rbsyn-core`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Candidate-lifecycle sampling stride: hot per-candidate events
    /// (frontier pops, expansions, oracle runs) are recorded every
    /// `sample`-th occurrence, counting from the first.
    /// Phase spans and counter samples are never sampled away. Clamped to
    /// at least 1.
    pub sample: u64,
    /// Ring capacity in events; when a session records more than this,
    /// the oldest events are dropped (and counted in [`Trace::dropped`]).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample: 64,
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// A config with the given sampling stride and the default capacity.
    pub fn with_sample(sample: u64) -> TraceConfig {
        TraceConfig {
            sample,
            ..TraceConfig::default()
        }
    }
}

/// The engine phases a [`Span`] can cover. A closed set of static names:
/// recording a span never formats or allocates for its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One whole synthesis run.
    Solve,
    /// A per-spec work-list search (phase 1).
    Generate,
    /// Guard covering inside the merge (quick passers + pool queries).
    Guard,
    /// Interpreter-backed oracle evaluation (sampled per candidate).
    Eval,
    /// Merging per-spec solutions into one branching program (phase 2).
    Merge,
}

impl Phase {
    /// The stable span name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Solve => "solve",
            Phase::Generate => "generate",
            Phase::Guard => "guard",
            Phase::Eval => "eval",
            Phase::Merge => "merge",
        }
    }
}

/// Instant events — points on the timeline, no duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// A work-list pop (sampled).
    FrontierPop,
    /// A one-step candidate expansion (sampled).
    Expand,
    /// An interpreter-backed oracle judgement (sampled).
    OracleRun,
    /// §4 solution reuse: an earlier spec's solution already passes this
    /// spec, so the spec is not searched.
    CacheHit,
    /// A guard-pool covering query (lazy stream advance or count).
    CoveringQuery,
    /// The deadline poll fired and stopped a search.
    DeadlineHit,
}

impl Mark {
    /// The stable event name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Mark::FrontierPop => "frontier_pop",
            Mark::Expand => "expand",
            Mark::OracleRun => "oracle_run",
            Mark::CacheHit => "cache_hit",
            Mark::CoveringQuery => "covering_query",
            Mark::DeadlineHit => "deadline_hit",
        }
    }
}

/// What one recorded event is.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A span opened (closed by the matching [`EventKind::End`] on the
    /// same track). `detail` refines the phase — e.g. the goal type of a
    /// `generate` span — and feeds the per-goal-type profile rows.
    Begin {
        /// Phase name (static; see [`Phase::name`]).
        name: &'static str,
        /// Optional refinement (goal type, spec name).
        detail: Option<Box<str>>,
    },
    /// The innermost open span on this track closed.
    End,
    /// An instant event (see [`Mark::name`]).
    Instant(&'static str),
    /// A counter sample: one named track, a snapshot of named values.
    Counter {
        /// Counter-track name (`search-stats`).
        track: &'static str,
        /// `(series, value)` pairs, exported as the sample's args.
        values: Box<[(&'static str, u64)]>,
    },
}

/// One recorded event: nanoseconds since the session epoch plus payload.
#[derive(Clone, Debug)]
pub struct Event {
    /// Nanoseconds since [`Session`] construction.
    pub ts: u64,
    /// Payload.
    pub kind: EventKind,
}

/// A bounded FIFO of events: wraparound drops the oldest.
struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: VecDeque::with_capacity(cap.clamp(1, 1024)),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

struct Inner {
    epoch: Instant,
    cfg: TraceConfig,
    /// The name of the thread that opened the session: the live track's.
    thread: String,
    ring: RefCell<Ring>,
    /// [`Session::phase_totals`] tracks, in call order.
    synthetic: RefCell<Vec<ThreadTrack>>,
}

/// A live tracing session. Cheap to clone (an `Rc`); the engine records
/// through clones and the owner calls [`Session::finish`] once.
///
/// A session records on the thread that opened it and is not `Send`:
/// its ring is a `RefCell`, and the live track carries that thread's
/// name. Handing it to another thread does not compile:
///
/// ```compile_fail
/// use rbsyn_trace::{Mark, Session, TraceConfig};
///
/// let session = Session::new(TraceConfig::default());
/// // Must not compile: a second thread would push into the same
/// // unsynchronised ring, and its events would land on a track named
/// // after the thread that opened the session.
/// std::thread::spawn(move || session.mark(Mark::Expand));
/// ```
#[derive(Clone)]
pub struct Session {
    inner: Rc<Inner>,
}

impl Session {
    /// Opens a session on the calling thread; its epoch is *now*.
    pub fn new(cfg: TraceConfig) -> Session {
        Session {
            inner: Rc::new(Inner {
                epoch: Instant::now(),
                thread: std::thread::current()
                    .name()
                    .unwrap_or("thread-0")
                    .to_owned(),
                ring: RefCell::new(Ring::new(cfg.capacity)),
                cfg: TraceConfig {
                    sample: cfg.sample.max(1),
                    capacity: cfg.capacity.max(1),
                },
                synthetic: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The session's config (sampling stride clamped to ≥ 1).
    pub fn config(&self) -> &TraceConfig {
        &self.inner.cfg
    }

    /// Is the `n`-th occurrence (0-based) of a sampled event recorded?
    /// Always true for `n = 0`, so every sampled series shows at least
    /// its first instance.
    pub fn sampled(&self, n: u64) -> bool {
        n.is_multiple_of(self.inner.cfg.sample)
    }

    fn record(&self, kind: EventKind) {
        let ts = self.inner.epoch.elapsed().as_nanos() as u64;
        self.inner.ring.borrow_mut().push(Event { ts, kind });
    }

    /// Opens a phase span; it closes when the guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, phase: Phase) -> Span {
        self.span_with(phase, None)
    }

    /// Opens a phase span refined by a detail string (e.g. the goal type
    /// of a `generate` span). The allocation happens only with tracing on.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_with(&self, phase: Phase, detail: Option<String>) -> Span {
        self.record(EventKind::Begin {
            name: phase.name(),
            detail: detail.map(String::into_boxed_str),
        });
        Span {
            session: self.clone(),
        }
    }

    /// Records an instant event.
    pub fn mark(&self, m: Mark) {
        self.record(EventKind::Instant(m.name()));
    }

    /// Records a counter sample on the named track.
    pub fn counter(&self, track: &'static str, values: &[(&'static str, u64)]) {
        self.record(EventKind::Counter {
            track,
            values: values.to_vec().into_boxed_slice(),
        });
    }

    /// Emits a synthetic track of back-to-back spans from externally
    /// measured per-phase totals (the run's wall-clock decomposition).
    /// Guarantees every listed phase appears as a span in the export even
    /// when live sampling saw none of its work — e.g. a single-spec
    /// problem whose merge is instantaneous. The totals restate time the
    /// live spans already cover, so [`Trace::profile`] skips this track.
    pub fn phase_totals(&self, track: &str, totals: &[(Phase, u64)]) {
        let mut events = Vec::with_capacity(totals.len() * 2);
        let mut at = 0u64;
        for &(phase, ns) in totals {
            events.push(Event {
                ts: at,
                kind: EventKind::Begin {
                    name: phase.name(),
                    detail: None,
                },
            });
            at = at.saturating_add(ns);
            events.push(Event {
                ts: at,
                kind: EventKind::End,
            });
        }
        self.inner.synthetic.borrow_mut().push(ThreadTrack {
            tid: 0, // numbered by `finish`
            name: track.to_owned(),
            events,
            synthetic: true,
        });
    }

    /// Drains the session into a [`Trace`]: the live track first (when
    /// anything was recorded), then the [`Session::phase_totals`] tracks,
    /// numbered in that order.
    pub fn finish(&self) -> Trace {
        let mut ring = self.inner.ring.borrow_mut();
        let mut tracks = Vec::new();
        if !ring.buf.is_empty() {
            tracks.push(ThreadTrack {
                tid: 0,
                name: self.inner.thread.clone(),
                events: ring.buf.drain(..).collect(),
                synthetic: false,
            });
        }
        for mut t in self.inner.synthetic.borrow_mut().drain(..) {
            t.tid = tracks.len() as u64;
            tracks.push(t);
        }
        Trace {
            tracks,
            dropped: std::mem::take(&mut ring.dropped),
        }
    }
}

/// RAII guard for a phase span; records the close on drop.
pub struct Span {
    session: Session,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.session.record(EventKind::End);
    }
}

/// One chronological event track: the recording thread's, or a
/// synthetic one.
pub struct ThreadTrack {
    /// Track id: the track's position in [`Trace::tracks`].
    pub tid: u64,
    /// Thread (or synthetic track) name.
    pub name: String,
    /// Events in recording order.
    pub events: Vec<Event>,
    /// A [`Session::phase_totals`] track rather than a recording thread.
    pub synthetic: bool,
}

/// A finished session's collected events, ready for export.
pub struct Trace {
    /// Tracks, ordered by track id.
    pub tracks: Vec<ThreadTrack>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraparound_drops_oldest() {
        let mut r = Ring::new(3);
        for i in 0..10u64 {
            r.push(Event {
                ts: i,
                kind: EventKind::Instant("x"),
            });
        }
        assert_eq!(r.dropped, 7);
        let kept: Vec<u64> = r.buf.iter().map(|e| e.ts).collect();
        assert_eq!(kept, vec![7, 8, 9], "the oldest events are dropped");
    }

    #[test]
    fn session_collects_and_counts_drops() {
        let s = Session::new(TraceConfig {
            sample: 1,
            capacity: 4,
        });
        for _ in 0..9 {
            s.mark(Mark::FrontierPop);
        }
        let t = s.finish();
        assert_eq!(t.dropped, 5);
        assert_eq!(t.tracks.len(), 1);
        assert_eq!(t.tracks[0].events.len(), 4);
    }

    #[test]
    fn sampling_counts_from_the_first() {
        let s = Session::new(TraceConfig::with_sample(64));
        assert!(s.sampled(0), "first occurrence always recorded");
        assert!(!s.sampled(1));
        assert!(s.sampled(64));
        let every = Session::new(TraceConfig::with_sample(0));
        assert!(every.sampled(7), "stride clamps to 1");
    }

    #[test]
    fn phase_totals_make_a_synthetic_track() {
        let s = Session::new(TraceConfig::default());
        s.phase_totals(
            "phase-totals",
            &[(Phase::Generate, 5), (Phase::Merge, 0), (Phase::Eval, 2)],
        );
        let t = s.finish();
        assert_eq!(t.tracks.len(), 1);
        assert_eq!(t.tracks[0].name, "phase-totals");
        assert!(t.tracks[0].synthetic);
        assert_eq!(t.tracks[0].events.len(), 6, "a begin/end pair per phase");
    }
}
