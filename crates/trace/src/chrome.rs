//! Chrome trace-event JSON export (the "JSON Array Format" with the
//! object envelope), loadable in Perfetto and `chrome://tracing`.
//!
//! One process (`pid` 1), one Chrome thread per [`ThreadTrack`]. Span
//! begin/end pairs become `B`/`E` events, instants become `i` (thread
//! scope), counter samples become `C`. Timestamps are microseconds with
//! nanosecond precision kept in the fractional part. Hand-rolled like
//! every other JSON writer in the workspace — no serializer dependency.

use crate::{Event, EventKind, Trace};
use std::fmt::Write as _;

/// Escapes `s` as JSON string *content* (no surrounding quotes).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → microsecond timestamp string (`123.456`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn meta_event(out: &mut String, name: &str, tid: u64, value: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"name\":\"{name}\",\"pid\":1,\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        esc(value)
    );
}

impl Trace {
    /// Renders the trace as Chrome trace-event JSON. `meta` lands in the
    /// envelope's `otherData` (benchmark id, host facts, …). Unbalanced
    /// spans are repaired: a stray close is skipped, a span still open at
    /// the end of its track is closed at the track's last timestamp — the
    /// export never produces an event stream a viewer rejects.
    pub fn to_chrome_json(&self, meta: &[(&str, &str)]) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let _ = write!(out, "\"dropped_events\":\"{}\"", self.dropped);
        for (k, v) in meta {
            let _ = write!(out, ",\"{}\":\"{}\"", esc(k), esc(v));
        }
        out.push_str("},\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(ev);
        };
        {
            let mut m = String::new();
            meta_event(&mut m, "process_name", 0, "rbsyn");
            push(&mut out, &m);
        }
        for track in &self.tracks {
            let mut m = String::new();
            meta_event(&mut m, "thread_name", track.tid, &track.name);
            push(&mut out, &m);
            // Name stack: E events echo the matching B's name, and spans
            // left open (a trace finished while a span guard was alive)
            // are closed at the track's final timestamp.
            let mut open: Vec<&str> = Vec::new();
            let last_ts = track.events.last().map_or(0, |e| e.ts);
            for Event { ts, kind } in &track.events {
                let tid = track.tid;
                let ts = us(*ts);
                match kind {
                    EventKind::Begin { name, detail } => {
                        open.push(name);
                        let args = match detail {
                            Some(d) => format!(",\"args\":{{\"detail\":\"{}\"}}", esc(d)),
                            None => String::new(),
                        };
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"B\",\"name\":\"{name}\",\"cat\":\"phase\",\
                                 \"pid\":1,\"tid\":{tid},\"ts\":{ts}{args}}}"
                            ),
                        );
                    }
                    EventKind::End => {
                        let Some(name) = open.pop() else { continue };
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"E\",\"name\":\"{name}\",\"cat\":\"phase\",\
                                 \"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
                            ),
                        );
                    }
                    EventKind::Instant(name) => push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"name\":\"{name}\",\"cat\":\"mark\",\"s\":\"t\",\
                             \"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
                        ),
                    ),
                    EventKind::Counter {
                        track: ctrack,
                        values,
                    } => {
                        let mut args = String::new();
                        for (i, (k, v)) in values.iter().enumerate() {
                            if i > 0 {
                                args.push(',');
                            }
                            let _ = write!(args, "\"{k}\":{v}");
                        }
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"C\",\"name\":\"{ctrack}\",\"pid\":1,\
                                 \"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}"
                            ),
                        );
                    }
                }
            }
            while let Some(name) = open.pop() {
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"E\",\"name\":\"{name}\",\"cat\":\"phase\",\
                         \"pid\":1,\"tid\":{},\"ts\":{}}}",
                        track.tid,
                        us(last_ts)
                    ),
                );
            }
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mark, Phase, Session, TraceConfig};

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(esc("a\"b"), "a\\\"b");
        assert_eq!(esc("a\\b"), "a\\\\b");
        assert_eq!(esc("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn detail_strings_are_escaped_into_valid_json() {
        let s = Session::new(TraceConfig::default());
        {
            let _sp = s.span_with(Phase::Generate, Some("Array<\"x\">\n".to_owned()));
            s.mark(Mark::OracleRun);
        }
        let json = s.finish().to_chrome_json(&[("quote\"key", "va\\lue")]);
        let summary = crate::schema::check_chrome_trace(&json).expect("valid JSON");
        assert!(summary.span_names.contains("generate"));
    }

    #[test]
    fn unbalanced_spans_are_repaired() {
        let s = Session::new(TraceConfig::default());
        let sp = s.span(Phase::Merge);
        std::mem::forget(sp); // simulate a span never closed
        let json = s.finish().to_chrome_json(&[]);
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "open spans are closed at track end");
        crate::schema::check_chrome_trace(&json).expect("valid after repair");
    }
}
