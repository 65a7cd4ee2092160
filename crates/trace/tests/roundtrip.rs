//! End-to-end: record a session, export it, and re-validate
//! the export with the crate's own schema checker — the same round trip
//! `solve --trace` performs on every run.

use rbsyn_trace::{Mark, Phase, Session, TraceConfig};

#[test]
fn session_exports_valid_chrome_json_with_all_tracks() {
    let s = Session::new(TraceConfig::with_sample(1));
    {
        let _solve = s.span(Phase::Solve);
        {
            let _gen = s.span_with(Phase::Generate, Some("Bool".to_owned()));
            s.mark(Mark::FrontierPop);
            s.mark(Mark::OracleRun);
        }
        {
            let _merge = s.span(Phase::Merge);
            let _guard = s.span(Phase::Guard);
            s.mark(Mark::CoveringQuery);
        }
        s.counter("search-stats", &[("popped", 12), ("tested", 7)]);
    }
    {
        let _eval = s.span(Phase::Eval);
        s.mark(Mark::OracleRun);
    }
    s.phase_totals(
        "phase-totals",
        &[
            (Phase::Generate, 1_000),
            (Phase::Guard, 500),
            (Phase::Merge, 200),
            (Phase::Eval, 700),
        ],
    );

    let trace = s.finish();
    assert_eq!(trace.tracks.len(), 2, "the live and synthetic tracks");
    let (live, totals) = (&trace.tracks[0], &trace.tracks[1]);
    assert_eq!((live.tid, totals.tid), (0, 1));
    assert!(!live.synthetic && totals.synthetic);
    assert_eq!(
        Some(live.name.as_str()),
        std::thread::current().name(),
        "the live track is named after the thread that opened the session"
    );
    let json = trace.to_chrome_json(&[("benchmark", "roundtrip")]);
    let summary = rbsyn_trace::schema::check_chrome_trace(&json).expect("self-check passes");
    for phase in ["solve", "generate [Bool]", "guard", "merge", "eval"] {
        let bare = phase.split(' ').next().unwrap();
        assert!(
            summary.span_names.iter().any(|n| n == bare),
            "missing span {bare:?} in {:?}",
            summary.span_names
        );
    }
    assert!(summary.counter_tracks.contains("search-stats"));
    assert!(
        json.contains("\"phase-totals\""),
        "synthetic track is named"
    );

    let profile = trace.profile();
    let solve = profile.rows.iter().find(|r| r.name == "solve").unwrap();
    assert!(
        solve.self_ns <= solve.total_ns,
        "self time excludes children"
    );
    assert!(profile
        .marks
        .iter()
        .any(|(n, c)| n == "oracle_run" && *c == 2));
}
