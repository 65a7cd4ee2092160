//! The aggregated self/total-time profile: spans folded per phase (and
//! per detail — the goal type of `generate` spans), plus instant-event
//! counts. The compact companion to the Chrome export: one table instead
//! of a timeline, for terminals and CI logs.

use crate::{Event, EventKind, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One profile row: a span name (with optional detail) aggregated across
/// every occurrence on every thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    /// `phase` or `phase [detail]`.
    pub name: String,
    /// Completed (or repair-closed) spans folded in.
    pub count: u64,
    /// Wall-clock nanoseconds between begin and end, summed.
    pub total_ns: u64,
    /// Total minus time spent in child spans on the same thread.
    pub self_ns: u64,
}

/// A rendered-ready aggregation of a [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Span rows, widest total first.
    pub rows: Vec<ProfileRow>,
    /// Instant-event counts by name (sampled series undercount by design).
    pub marks: Vec<(String, u64)>,
}

#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

struct Open {
    key: String,
    start: u64,
    child_ns: u64,
}

impl Trace {
    /// Aggregates span self/total times per `phase [detail]` key and
    /// counts instant events. Span nesting is resolved per thread: a
    /// parent's self time excludes its children's totals; spans left open
    /// close at their track's last timestamp (mirroring the Chrome
    /// export's repair). Synthetic tracks are skipped: their phase totals
    /// restate time the live spans already count.
    pub fn profile(&self) -> Profile {
        let mut spans: BTreeMap<String, Agg> = BTreeMap::new();
        let mut marks: BTreeMap<String, u64> = BTreeMap::new();
        for track in self.tracks.iter().filter(|t| !t.synthetic) {
            let mut stack: Vec<Open> = Vec::new();
            let last_ts = track.events.last().map_or(0, |e| e.ts);
            let close = |stack: &mut Vec<Open>, spans: &mut BTreeMap<String, Agg>, ts: u64| {
                let Some(open) = stack.pop() else { return };
                let total = ts.saturating_sub(open.start);
                let row = spans.entry(open.key).or_default();
                row.count += 1;
                row.total_ns += total;
                row.self_ns += total.saturating_sub(open.child_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += total;
                }
            };
            for Event { ts, kind } in &track.events {
                match kind {
                    EventKind::Begin { name, detail } => {
                        let key = match detail {
                            Some(d) => format!("{name} [{d}]"),
                            None => (*name).to_owned(),
                        };
                        stack.push(Open {
                            key,
                            start: *ts,
                            child_ns: 0,
                        });
                    }
                    EventKind::End => close(&mut stack, &mut spans, *ts),
                    EventKind::Instant(name) => {
                        *marks.entry((*name).to_owned()).or_default() += 1;
                    }
                    EventKind::Counter { .. } => {}
                }
            }
            while !stack.is_empty() {
                close(&mut stack, &mut spans, last_ts);
            }
        }
        let mut rows: Vec<ProfileRow> = spans
            .into_iter()
            .map(|(name, a)| ProfileRow {
                name,
                count: a.count,
                total_ns: a.total_ns,
                self_ns: a.self_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        Profile {
            rows,
            marks: marks.into_iter().collect(),
        }
    }
}

fn secs(ns: u64) -> String {
    format!("{:.3}s", ns as f64 / 1e9)
}

impl Profile {
    /// Renders the profile as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .chain(self.marks.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:<width$}  {:>7}  {:>10}  {:>10}",
            "phase", "count", "total", "self"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<width$}  {:>7}  {:>10}  {:>10}",
                r.name,
                r.count,
                secs(r.total_ns),
                secs(r.self_ns)
            );
        }
        for (name, count) in &self.marks {
            let _ = writeln!(out, "{name:<width$}  {count:>7}  {:>10}  {:>10}", "-", "-");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, ThreadTrack};

    fn begin(ts: u64, name: &'static str) -> Event {
        Event {
            ts,
            kind: EventKind::Begin { name, detail: None },
        }
    }

    fn end(ts: u64) -> Event {
        Event {
            ts,
            kind: EventKind::End,
        }
    }

    #[test]
    fn nesting_splits_self_from_total() {
        let trace = Trace {
            tracks: vec![ThreadTrack {
                tid: 0,
                name: "main".into(),
                synthetic: false,
                events: vec![begin(0, "merge"), begin(10, "guard"), end(40), end(100)],
            }],
            dropped: 0,
        };
        let p = trace.profile();
        let merge = p.rows.iter().find(|r| r.name == "merge").unwrap();
        let guard = p.rows.iter().find(|r| r.name == "guard").unwrap();
        assert_eq!(merge.total_ns, 100);
        assert_eq!(merge.self_ns, 70, "child guard time excluded");
        assert_eq!(guard.total_ns, 30);
        assert_eq!(guard.self_ns, 30);
    }

    #[test]
    fn detail_makes_a_distinct_row_and_render_aligns() {
        let trace = Trace {
            tracks: vec![ThreadTrack {
                tid: 0,
                name: "main".into(),
                synthetic: false,
                events: vec![
                    Event {
                        ts: 0,
                        kind: EventKind::Begin {
                            name: "generate",
                            detail: Some("Bool".into()),
                        },
                    },
                    end(5),
                    begin(6, "generate"),
                    // left open: closes at last ts (8)
                    Event {
                        ts: 8,
                        kind: EventKind::Instant("frontier_pop"),
                    },
                ],
            }],
            dropped: 0,
        };
        let p = trace.profile();
        assert!(p.rows.iter().any(|r| r.name == "generate [Bool]"));
        assert!(p
            .rows
            .iter()
            .any(|r| r.name == "generate" && r.total_ns == 2));
        assert_eq!(p.marks, vec![("frontier_pop".to_owned(), 1)]);
        let rendered = p.render();
        assert!(rendered.contains("generate [Bool]"));
        assert!(rendered.contains("frontier_pop"));
    }
}
