//! The traced run: the benchmark's own spans, recorded around the public
//! calls it makes and kept in memory, then written out when the run ends
//! as Chrome trace JSON, a per-problem table and a per-layer self-time
//! table, from which the per-layer metrics are taken.

use crate::stats::{median, percentile, Schedule, Slot};
use crate::workload::{Pass, Problem, Workload};
use crate::{metric, ratio, write_atomically, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One span. Times are seconds after the trace origin.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub dur: f64,
    /// 0 is the benchmark's main thread; 1.. are job threads.
    pub track: usize,
    pub parent: Option<usize>,
    pub problem: Option<String>,
    /// Placed by arithmetic rather than observed: the synthesizer reports
    /// its phases as durations, so the benchmark lays them end to end
    /// inside `core.run`.
    pub synthetic: bool,
}

/// Spans whose intervals on one track may overlap their siblings' (every
/// queued job waits from the same submission instant); written as async
/// events so trace viewers keep them apart.
const ASYNC: [&str; 1] = ["batch.wait"];

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Adds a span and returns its id.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Each span's duration minus the part its children cover (children
    /// never overlap one another).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur;
            }
        }
        own
    }

    /// Self time summed per span name.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *by.entry(s.name).or_insert(0.0) += own;
        }
        by
    }

    /// The trace in Chrome's JSON trace-event format.
    pub fn chrome_json(&self, track_names: &[String]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (tid, name) in track_names.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}},",
                quoted(name)
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"id\":{id}");
            if let Some(p) = s.parent {
                let _ = write!(args, ",\"parent\":{p}");
            }
            if let Some(problem) = &s.problem {
                let _ = write!(args, ",\"problem\":{}", quoted(problem));
            }
            if s.synthetic {
                args.push_str(",\"synthetic\":true");
            }
            let (ts, dur) = (s.start * 1e6, s.dur * 1e6);
            let common = format!("\"name\":\"{}\",\"pid\":1,\"tid\":{}", s.name, s.track);
            if ASYNC.contains(&s.name) {
                let _ = writeln!(
                    out,
                    "{{{common},\"ph\":\"b\",\"cat\":\"queue\",\"id\":{id},\"ts\":{ts:.3},\"args\":{{{args}}}}},"
                );
                let _ = writeln!(
                    out,
                    "{{{common},\"ph\":\"e\",\"cat\":\"queue\",\"id\":{id},\"ts\":{:.3}}},",
                    ts + dur
                );
            } else {
                let _ = writeln!(
                    out,
                    "{{{common},\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{{args}}}}},"
                );
            }
        }
        // Drop the last separator; an empty trace keeps its brackets.
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// One problem's row of the traced report.
struct Row {
    id: String,
    solve_s: f64,
    wait_s: f64,
    build_s: f64,
    phases: [f64; 3],
    unphased_s: f64,
    teardown_s: f64,
    eval_s: f64,
    validate_s: f64,
    counters: [u64; 9],
}

const COUNTERS: [&str; 9] = [
    "popped",
    "expanded",
    "tested",
    "deduped",
    "obs_pruned",
    "vector_hits",
    "expand_hits",
    "type_hits",
    "oracle_hits",
];

/// Builds the traced pass's spans, per-problem rows and per-layer
/// metrics, and writes the Chrome trace and the two tables next to
/// `stem`. Returns the metrics and whether every problem's self times
/// summed to its job time.
pub fn report(
    workload: Workload,
    stem: &Path,
    origin: Instant,
    problems: &[Problem],
    traced: &Pass,
    untraced: &[f64],
) -> Result<(Vec<Metric>, bool), String> {
    let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let mut trace = Trace::default();

    // Set-up: the in-process load, file by file.
    let first = problems.iter().map(|p| p.loaded[0]).min().unwrap_or(origin);
    let last = problems.iter().map(|p| p.loaded[2]).max().unwrap_or(origin);
    let setup = trace.push(span(
        "setup",
        at(first),
        at(last) - at(first),
        0,
        None,
        None,
    ));
    for p in problems {
        let [t0, t1, t2] = p.loaded.map(at);
        let id = Some(p.id.clone());
        trace.push(span("front.parse", t0, t1 - t0, 0, Some(setup), id.clone()));
        trace.push(span("front.lower", t1, t2 - t1, 0, Some(setup), id));
    }

    // Job threads get tracks 1.. in the order they first built a job.
    let marks = traced
        .builds
        .as_ref()
        .ok_or("traced pass kept no build marks")?;
    let mut seen: Vec<_> = marks.iter().flatten().collect();
    seen.sort_by_key(|m| m.start);
    let mut threads = Vec::new();
    for m in seen {
        if !threads.contains(&m.thread) {
            threads.push(m.thread);
        }
    }
    let submitted = at(traced.submitted);

    let mut rows = Vec::with_capacity(problems.len());
    let mut slots = Vec::with_capacity(problems.len());
    // Per problem: the ids of its job's spans, and its job time.
    let mut jobs = Vec::with_capacity(problems.len());
    let mut sums_ok = true;
    for ((p, o), (c, mark)) in problems
        .iter()
        .zip(&traced.report.outcomes)
        .zip(traced.checked.iter().zip(marks))
    {
        let id = Some(p.id.clone());
        let job = o.elapsed.as_secs_f64();
        let Some(mark) = mark else {
            println!("NO BUILD: {} never reached its build", p.id);
            sums_ok = false;
            continue;
        };
        let track = 1 + threads.iter().position(|t| *t == mark.thread).unwrap_or(0);
        let (start, built) = (at(mark.start), at(mark.end));
        let build_s = built - start;
        slots.push(Slot {
            start: start - submitted,
            job,
        });
        trace.push(span(
            "batch.wait",
            submitted,
            start - submitted,
            track,
            None,
            id.clone(),
        ));
        let build = trace.push(span("front.build", start, build_s, track, None, id.clone()));
        let run = trace.push(span(
            "core.run",
            built,
            job - build_s,
            track,
            None,
            id.clone(),
        ));
        let mut row = Row {
            id: p.id.clone(),
            solve_s: job,
            wait_s: start - submitted,
            build_s,
            phases: [0.0; 3],
            unphased_s: 0.0,
            teardown_s: 0.0,
            eval_s: 0.0,
            validate_s: (c.validated.1 - c.validated.0).as_secs_f64(),
            counters: [0; 9],
        };
        if let Ok(r) = &o.result {
            let st = &r.stats;
            row.phases = [st.generate_time, st.guard_time, st.merge_time].map(|d| d.as_secs_f64());
            row.unphased_s = st.elapsed.as_secs_f64() - row.phases.iter().sum::<f64>();
            row.teardown_s = job - build_s - st.elapsed.as_secs_f64();
            row.eval_s = st.search.eval_nanos as f64 / 1e9;
            let s = &st.search;
            row.counters = [
                s.popped,
                s.expanded,
                s.tested,
                s.deduped,
                s.obs_pruned,
                s.vector_hits,
                s.expand_hits,
                s.type_hits,
                s.oracle_hits,
            ];
            let parts = [
                ("core.generate", row.phases[0]),
                ("core.guard", row.phases[1]),
                ("core.merge", row.phases[2]),
                ("core.unphased", row.unphased_s),
                ("core.teardown", row.teardown_s),
            ];
            let mut t = built;
            for (name, d) in parts {
                let mut s = span(name, t, d, track, Some(run), id.clone());
                s.synthetic = true;
                trace.push(s);
                t += d;
            }
        }
        jobs.push((build..trace.spans.len(), job));
        let (v0, v1) = (at(c.validated.0), at(c.validated.1));
        trace.push(span("interp.validate", v0, v1 - v0, 0, None, id));
        rows.push(row);
    }
    // By construction a job's self times — its build plus the run subtree
    // — sum to its job time; check it.
    let own = trace.self_times();
    for (row, (spans, job)) in rows.iter().zip(&jobs) {
        let (covered, job) = (own[spans.clone()].iter().sum::<f64>(), *job);
        if (covered - job).abs() > 1e-9 * job.max(1.0) {
            println!(
                "SELF-TIME MISMATCH: {} sums to {covered} s of {job} s",
                row.id
            );
            sums_ok = false;
        }
    }

    let schedule = Schedule {
        threads: workload.threads(),
        makespan: traced.makespan,
        slots,
    };
    let mut waits = schedule.waits();
    waits.sort_by(f64::total_cmp);
    let stats = &traced.report.stats;
    let sum = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
    let parse_s: f64 = problems
        .iter()
        .map(|p| (p.loaded[1] - p.loaded[0]).as_secs_f64())
        .sum();
    let lower_s: f64 = problems
        .iter()
        .map(|p| (p.loaded[2] - p.loaded[1]).as_secs_f64())
        .sum();
    let bytes: usize = problems.iter().map(|p| p.bytes).sum();
    let gen_guard = stats.generate_time.as_secs_f64() + stats.guard_time.as_secs_f64();
    let eval_s = stats.eval_time.as_secs_f64();
    let base = median(untraced);
    let overhead = traced.makespan - base;
    let per_layer = vec![
        metric("front.parse_s", parse_s, "s"),
        metric("front.lower_s", lower_s, "s"),
        metric("front.bytes", bytes as f64, "B"),
        metric("front.build_s", sum(&|r| r.build_s), "s"),
        metric("core.generate_s", sum(&|r| r.phases[0]), "s"),
        metric("core.guard_s", sum(&|r| r.phases[1]), "s"),
        metric("core.merge_s", sum(&|r| r.phases[2]), "s"),
        metric("core.unphased_s", sum(&|r| r.unphased_s), "s"),
        metric("core.teardown_s", sum(&|r| r.teardown_s), "s"),
        metric("core.popped", stats.popped as f64, "count"),
        metric("core.expanded", stats.expanded as f64, "count"),
        metric("core.tested", stats.tested as f64, "count"),
        metric("core.deduped", stats.deduped as f64, "count"),
        metric("core.obs_pruned", stats.obs_pruned as f64, "count"),
        metric("core.vector_hits", stats.vector_hits as f64, "count"),
        metric("core.expand_hits", stats.expand_hits as f64, "count"),
        metric("core.type_hits", stats.type_hits as f64, "count"),
        metric("core.oracle_hits", stats.oracle_hits as f64, "count"),
        metric(
            "core.ns_per_expansion",
            ratio(gen_guard * 1e9, stats.expanded as f64),
            "ns",
        ),
        metric("interp.eval_s", eval_s, "s"),
        metric(
            "interp.ns_per_test",
            ratio(eval_s * 1e9, stats.tested as f64),
            "ns",
        ),
        metric("interp.validate_s", sum(&|r| r.validate_s), "s"),
        metric("batch.wait_s.p50", percentile(&waits, 50), "s"),
        metric(
            "batch.wait_s.max",
            waits.last().copied().unwrap_or(0.0),
            "s",
        ),
        metric("batch.idle_s", schedule.idle_s(), "s"),
        metric("batch.job_s", schedule.job_s(), "s"),
        metric("trace.overhead_s", overhead, "s"),
    ];

    // Reports: per-problem rows, per-layer self times, Chrome trace.
    let name = workload.name();
    let mut table = format!(
        "id\tworkload\tsolve_s\twait_s\tbuild_s\tgenerate_s\tguard_s\tmerge_s\tunphased_s\tteardown_s\teval_s\tvalidate_s\t{}\n",
        COUNTERS.join("\t")
    );
    for r in &rows {
        let counters: Vec<String> = r.counters.iter().map(u64::to_string).collect();
        table.push_str(&format!(
            "{}\t{name}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{}\n",
            r.id,
            r.solve_s,
            r.wait_s,
            r.build_s,
            r.phases[0],
            r.phases[1],
            r.phases[2],
            r.unphased_s,
            r.teardown_s,
            r.eval_s,
            r.validate_s,
            counters.join("\t")
        ));
    }
    // Layers inside job time get their share of it; the rest (set-up,
    // queueing, validation) lie outside it.
    let job_s = schedule.job_s();
    let mut layers = String::from("layer\tself_s\tshare_of_job_time\n");
    for (layer, own) in trace.self_by_layer() {
        // A run span's self time cancels to a rounding residue.
        let own = if own.abs() < 1e-9 { 0.0 } else { own };
        let share = if layer == "front.build" || layer.starts_with("core.") {
            format!("{:.4}", ratio(own, job_s))
        } else {
            "-".to_owned()
        };
        layers.push_str(&format!("{layer}\t{own:.6}\t{share}\n"));
    }
    let mut tracks = vec!["benchmark main".to_owned()];
    tracks.extend((1..=threads.len()).map(|k| format!("job thread {k}")));
    write_atomically(&stem.with_extension("problems.tsv"), &table)?;
    write_atomically(&stem.with_extension("layers.tsv"), &layers)?;
    write_atomically(
        &stem.with_extension("trace.json"),
        &trace.chrome_json(&tracks),
    )?;

    println!("## per problem (traced pass)");
    print!("{table}");
    println!("## self time by layer (traced pass; share of {job_s:.3} s job time)");
    print!("{layers}");
    println!(
        "## tracing overhead: traced makespan {:.3} s - untraced {base:.3} s (median of {} untraced runs of this build) = {overhead:+.3} s ({:+.2}%)",
        traced.makespan,
        untraced.len(),
        100.0 * ratio(overhead, base)
    );
    println!("## per layer");
    for m in &per_layer {
        println!("{:<22} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# wrote {}.{{trace.json,problems.tsv,layers.tsv}}",
        stem.display()
    );
    Ok((per_layer, sums_ok))
}

fn span(
    name: &'static str,
    start: f64,
    dur: f64,
    track: usize,
    parent: Option<usize>,
    problem: Option<String>,
) -> Span {
    Span {
        name,
        start,
        dur,
        track,
        parent,
        problem,
        synthetic: false,
    }
}

/// `s` as a JSON string literal.
pub fn quoted(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, dur: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            dur,
            track: 1,
            parent,
            problem: Some("S1".into()),
            synthetic: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Trace::default();
        let run = t.push(span("core.run", 0.0, 10.0, None));
        t.push(span("core.generate", 0.0, 6.0, Some(run)));
        t.push(span("core.guard", 6.0, 3.0, Some(run)));
        let own = t.self_times();
        assert_eq!(own, [1.0, 6.0, 3.0]);
        assert_eq!(own.iter().sum::<f64>(), 10.0);
        assert_eq!(t.self_by_layer()["core.run"], 1.0);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Trace::default();
        t.push(span("front.build", 0.0, 0.5, None));
        t.push(span("batch.wait", 0.0, 0.25, None));
        let json = t.chrome_json(&["main".into(), "job \"1\"".into()]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("}\n]}\n"), "no trailing comma: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""));
        assert!(json.contains("job \\\"1\\\""));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }
}
