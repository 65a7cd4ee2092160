//! Profile accounting: a run's phase totals never exceed its enclosing
//! `solve` span, even though the trace also carries the synthetic
//! `phase-totals` track the Chrome export needs.

use rbsyn_trace::{Phase, Session, TraceConfig};
use std::time::{Duration, Instant};

/// Runs `work` inside a live `phase` span and returns the span's
/// wall-clock nanoseconds, measured the way the synthesizer measures its
/// phase totals.
fn timed(s: &Session, phase: Phase, work: impl FnOnce()) -> u64 {
    let started = Instant::now();
    let _span = s.span(phase);
    work();
    started.elapsed().as_nanos() as u64
}

#[test]
fn no_phase_total_exceeds_the_solve_span() {
    let s = Session::new(TraceConfig::with_sample(1));
    let nap = |ms| std::thread::sleep(Duration::from_millis(ms));
    let (mut generate, mut merge, mut guard, mut eval) = (0, 0, 0, 0);
    timed(&s, Phase::Solve, || {
        generate = timed(&s, Phase::Generate, || nap(1));
        merge = timed(&s, Phase::Merge, || {
            // Guard covering dominates the run, as it does in A4 and S4.
            guard = timed(&s, Phase::Guard, || {
                nap(8);
                eval = timed(&s, Phase::Eval, || nap(2));
            });
        });
    });
    s.phase_totals(
        "phase-totals",
        &[
            (Phase::Generate, generate),
            (Phase::Guard, guard),
            (Phase::Merge, merge.saturating_sub(guard)),
            (Phase::Eval, eval),
        ],
    );
    let trace = s.finish();

    let profile = trace.profile();
    let total = |name: &str| -> u64 {
        profile
            .rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.total_ns)
            .sum()
    };
    let solve = total("solve");
    assert!(solve > 0, "the live solve span is profiled");
    for phase in ["generate", "guard", "merge", "eval"] {
        assert!(
            total(phase) <= solve,
            "{phase} total {} ns exceeds the enclosing solve span {solve} ns",
            total(phase)
        );
    }
    // Each live span is counted once, synthetic track or not.
    let guard_row = profile.rows.iter().find(|r| r.name == "guard").unwrap();
    assert_eq!(guard_row.count, 1);

    let json = trace.to_chrome_json(&[("benchmark", "profile")]);
    assert!(
        json.contains("\"phase-totals\""),
        "the Chrome export keeps the synthetic track"
    );
}
