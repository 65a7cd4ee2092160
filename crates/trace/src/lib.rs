//! Search-event tracing for the synthesis engine.
//!
//! A [`Session`] collects timestamped events — RAII phase [`Span`]s,
//! instant [`Mark`]s, and counter samples — from every thread that touches
//! a synthesis run, and turns them into two exports: Chrome trace-event
//! JSON ([`Trace::to_chrome_json`], loadable in Perfetto or
//! `chrome://tracing`, one track per thread) and a compact aggregated
//! self/total-time profile per phase and goal type ([`Trace::profile`]).
//!
//! ## Recording model
//!
//! Threads never contend while recording. Each thread owns a
//! **thread-local ring buffer** ([`TraceConfig::capacity`] events,
//! wraparound drops the *oldest* and counts them) and pushes events with
//! plain `RefCell` access — no atomics, no locks, no allocation beyond
//! the ring itself. Buffers drain into the session's collector (the only
//! lock, taken once per flush, never per event) at explicit boundaries:
//! batch job-thread exit and [`Session::finish`] on the coordinating
//! thread. The
//! engine holds the session as an `Option`: with tracing off every
//! instrumentation site is one `None` check, so tracing off is zero-cost
//! and — because recording only *reads* engine state — tracing on leaves
//! synthesized programs and effort counters byte-identical.
//!
//! ## Timestamps
//!
//! A session carries one monotonic epoch ([`std::time::Instant`] captured
//! at construction); every event stores nanoseconds since that epoch, so
//! tracks from different threads share a timeline without clock math.

#![deny(missing_docs)]

mod chrome;
mod profile;
pub mod schema;

pub use profile::{Profile, ProfileRow};

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Tracing knobs, carried by the engine's `Options::trace`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Candidate-lifecycle sampling stride: hot per-candidate events
    /// (frontier pops, expansions, oracle runs) are recorded every
    /// `sample`-th occurrence, counting from the first.
    /// Phase spans and counter samples are never sampled away. Clamped to
    /// at least 1.
    pub sample: u64,
    /// Per-thread ring capacity in events; when a thread records more
    /// than this between flushes, the oldest events are dropped (and
    /// counted in [`Trace::dropped`]).
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
    /// same thread). `detail` refines the phase — e.g. the goal type of a
    /// `generate` span — and feeds the per-goal-type profile rows.
    Begin {
        /// Phase name (static; see [`Phase::name`]).
        name: &'static str,
        /// Optional refinement (goal type, spec name).
        detail: Option<Box<str>>,
    },
    /// The innermost open span on this thread closed.
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

/// One thread's drained events.
struct Chunk {
    tid: u64,
    name: String,
    events: Vec<Event>,
    dropped: u64,
    synthetic: bool,
}

struct Inner {
    /// Distinguishes sessions so a pooled thread whose local buffer
    /// belongs to a finished session re-registers with the live one.
    id: u64,
    epoch: Instant,
    cfg: TraceConfig,
    next_tid: AtomicU64,
    done: Mutex<Vec<Chunk>>,
}

/// A live tracing session. Cheap to clone (an `Arc`); the engine threads
/// record through clones and the owner calls [`Session::finish`] once.
#[derive(Clone)]
pub struct Session {
    inner: Arc<Inner>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

struct LocalBuf {
    session: Weak<Inner>,
    session_id: u64,
    tid: u64,
    name: String,
    ring: Ring,
}

impl LocalBuf {
    /// Drains the ring into the owning session's collector (a no-op when
    /// the session is gone). The buffer stays registered so the thread
    /// keeps its track id across flushes.
    fn flush(&mut self) {
        if self.ring.buf.is_empty() && self.ring.dropped == 0 {
            return;
        }
        let Some(inner) = self.session.upgrade() else {
            self.ring.buf.clear();
            self.ring.dropped = 0;
            return;
        };
        let events: Vec<Event> = self.ring.buf.drain(..).collect();
        let dropped = std::mem::take(&mut self.ring.dropped);
        inner.done.lock().expect("trace collector").push(Chunk {
            tid: self.tid,
            name: self.name.clone(),
            events,
            dropped,
            synthetic: false,
        });
    }
}

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

impl Session {
    /// Opens a session; its epoch is *now*.
    pub fn new(cfg: TraceConfig) -> Session {
        Session {
            inner: Arc::new(Inner {
                id: NEXT_SESSION.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                cfg: TraceConfig {
                    sample: cfg.sample.max(1),
                    capacity: cfg.capacity.max(1),
                },
                next_tid: AtomicU64::new(0),
                done: Mutex::new(Vec::new()),
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

    fn now(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, kind: EventKind) {
        let ts = self.now();
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            let reinit = match slot.as_ref() {
                Some(buf) => buf.session_id != self.inner.id,
                None => true,
            };
            if reinit {
                if let Some(mut old) = slot.take() {
                    old.flush();
                }
                let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
                let name = std::thread::current()
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("thread-{tid}"));
                *slot = Some(LocalBuf {
                    session: Arc::downgrade(&self.inner),
                    session_id: self.inner.id,
                    tid,
                    name,
                    ring: Ring::new(self.inner.cfg.capacity),
                });
            }
            if let Some(buf) = slot.as_mut() {
                buf.ring.push(Event { ts, kind });
            }
        });
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
        let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
        self.inner
            .done
            .lock()
            .expect("trace collector")
            .push(Chunk {
                tid,
                name: track.to_owned(),
                events,
                dropped: 0,
                synthetic: true,
            });
    }

    /// Flushes the calling thread's buffer and collects every drained
    /// chunk into a [`Trace`]. Threads that recorded but have not flushed
    /// (none, once the batch driver's job-thread exits are honoured)
    /// contribute nothing.
    pub fn finish(&self) -> Trace {
        flush_current_thread();
        let mut chunks: Vec<Chunk> =
            std::mem::take(&mut *self.inner.done.lock().expect("trace collector"));
        chunks.sort_by_key(|c| c.tid);
        let mut tracks: Vec<ThreadTrack> = Vec::new();
        let mut dropped = 0u64;
        for c in chunks {
            dropped += c.dropped;
            match tracks.last_mut() {
                Some(t) if t.tid == c.tid => t.events.extend(c.events),
                _ => tracks.push(ThreadTrack {
                    tid: c.tid,
                    name: c.name,
                    events: c.events,
                    synthetic: c.synthetic,
                }),
            }
        }
        Trace { tracks, dropped }
    }
}

/// Flushes the calling thread's local buffer into its session, if it has
/// one. The batch driver calls this as each job thread exits; with
/// tracing off (no local buffer) it is one thread-local `None` check.
pub fn flush_current_thread() {
    LOCAL.with(|slot| {
        if let Some(buf) = slot.borrow_mut().as_mut() {
            buf.flush();
        }
    });
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

/// One thread's chronological event track.
pub struct ThreadTrack {
    /// Session-scoped track id (registration order).
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
    /// Per-thread tracks, ordered by track id.
    pub tracks: Vec<ThreadTrack>,
    /// Events lost to ring wraparound, across all threads.
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
    fn cross_thread_flush_lands_in_one_trace() {
        let s = Session::new(TraceConfig::default());
        s.mark(Mark::CacheHit);
        let s2 = s.clone();
        std::thread::spawn(move || {
            s2.mark(Mark::Expand);
            flush_current_thread();
        })
        .join()
        .unwrap();
        let t = s.finish();
        assert_eq!(t.tracks.len(), 2, "each thread is its own track");
        assert_eq!(t.dropped, 0);
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
