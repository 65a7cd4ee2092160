//! Microbenchmarks for the oracle hot path introduced with evaluation
//! vectors (PR 5): single-test interpreter evaluation (untraced and
//! traced), copy-on-write world forking, bitvector guard covering, and
//! the guard pool's per-candidate enumeration cost.
//! These pin a perf baseline finer than the suite: a regression in any of
//! them shows up here long before it moves the 19-benchmark wall clock.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rbsyn_core::engine::{Scheduler, SearchStats};
use rbsyn_core::guards::{GuardPool, GuardQuery};
use rbsyn_core::Options;
use rbsyn_interp::{InterpEnv, PreparedSpec, SetupStep, Spec, WorldState};
use rbsyn_lang::builder::*;
use rbsyn_lang::{Program, Symbol, Ty, Value};
use rbsyn_stdlib::EnvBuilder;
use std::time::Instant;

fn blog_env() -> (InterpEnv, rbsyn_lang::ClassId) {
    let mut b = EnvBuilder::with_stdlib();
    let post = b.define_model(
        "Post",
        &[("author", Ty::Str), ("title", Ty::Str), ("slug", Ty::Str)],
    );
    b.add_const(Value::Class(post));
    (b.finish(), post)
}

/// A spec with a seeded database, prepared once — the exact shape the
/// search's oracle hot loop runs millions of times.
fn prepared_fixture() -> (InterpEnv, PreparedSpec, Program) {
    let (env, post) = blog_env();
    let spec = Spec::new(
        "roundtrip",
        vec![
            SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("slug", str_("s")), ("title", str_("T"))])],
            )),
            SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![str_("s")],
            },
        ],
        vec![call(call(var("xr"), "title", []), "==", [str_("T")])],
    );
    let prepared = PreparedSpec::prepare(&env, &spec).expect("fixture spec prepares");
    let program = Program::new(
        "m",
        ["arg0"],
        call(cls(post), "find_by", [hash([("slug", var("arg0"))])]),
    );
    (env, prepared, program)
}

/// Single-test oracle evaluation from a prepared snapshot (no re-prepare,
/// unlike `micro/run_spec`) — the inner loop of candidate judging.
fn bench_prepared_eval(c: &mut Criterion) {
    let (env, prepared, program) = prepared_fixture();
    c.bench_function("obs/prepared_run", |b| {
        b.iter(|| prepared.run(black_box(&env), black_box(&program)))
    });
    // The traced variant adds the evaluation-vector fingerprint (result
    // value + COW-aware state hash + effect trace) that specgen's
    // differential gate compares; the search itself runs the untraced one.
    c.bench_function("obs/prepared_run_traced", |b| {
        b.iter(|| prepared.run_traced(black_box(&env), black_box(&program)))
    });
}

/// Copy-on-write world forking: clone a frozen snapshot and write one
/// cell. Before PR 5 this deep-copied every table and heap object.
fn bench_world_fork(c: &mut Criterion) {
    let (env, post) = blog_env();
    let posts = env.model_table(post).expect("Post is a model");
    let mut snapshot = WorldState::fresh(&env);
    let title = Symbol::intern("title");
    let mut rows = Vec::new();
    for i in 0..64 {
        rows.push(
            snapshot
                .db
                .table_mut(posts)
                .insert(vec![(title, Value::str(&format!("t{i}")))]),
        );
    }
    snapshot.freeze();
    c.bench_function("obs/world_fork_readonly", |b| {
        b.iter(|| {
            let fork = snapshot.clone();
            black_box(fork.db.table(posts).len())
        })
    });
    c.bench_function("obs/world_fork_one_write", |b| {
        b.iter(|| {
            let mut fork = snapshot.clone();
            fork.db
                .table_mut(posts)
                .set(rows[0], title, Value::str("x"));
            black_box(fork.db.table(posts).len())
        })
    });
    c.bench_function("obs/world_fork_fingerprint", |b| {
        let fork = snapshot.clone();
        b.iter(|| black_box(fork.obs_fingerprint(&snapshot)))
    });
}

/// The two specs a guard over `Post` must separate: a seeded world and an
/// empty one.
fn seeded_and_empty(post: rbsyn_lang::ClassId) -> Vec<Spec> {
    let mk = |name: &str, seed: bool| {
        let mut steps = Vec::new();
        if seed {
            steps.push(SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_("alice"))])],
            )));
        }
        steps.push(SetupStep::CallTarget {
            bind: "xr".into(),
            args: vec![],
        });
        Spec::new(name, steps, vec![])
    };
    vec![mk("seeded", true), mk("empty", false)]
}

/// Bitvector guard covering: the first call pays the enumeration +
/// interpreter bits; re-requests (what merge backtracking does) are pure
/// word arithmetic over the pool's vectors.
fn bench_guard_covering(c: &mut Criterion) {
    let (env, post) = blog_env();
    let specs = seeded_and_empty(post);
    let opts = Options::default();
    let sched = Scheduler::sequential();
    let q = GuardQuery {
        env: &env,
        name: "m".into(),
        params: &[],
        specs: &specs,
        opts: &opts,
        sched: &sched,
    };
    let mut pool = GuardPool::new();
    let mut stats = SearchStats::default();
    // Warm the pool: both request directions judged once.
    let g = pool
        .nth_covering_guard(&q, &[0], &[1], 0, 1, &mut stats)
        .expect("no deadline")
        .expect("a separating guard exists");
    let _ = pool
        .nth_covering_guard(&q, &[1], &[0], 0, 1, &mut stats)
        .expect("no deadline");
    c.bench_function("obs/guard_bitvector_recheck", |b| {
        b.iter(|| {
            let mut stats = SearchStats::default();
            black_box(pool.check_expr(&q, black_box(&g), &[0], &[1], &mut stats))
        })
    });
    c.bench_function("obs/guard_bitvector_nth", |b| {
        b.iter(|| {
            let mut stats = SearchStats::default();
            pool.nth_covering_guard(&q, &[0], &[1], 0, 1, &mut stats)
                .expect("no deadline")
        })
    });
}

/// Guard-pool enumeration: each iteration, a fresh pool answers a request
/// no candidate can cover (`x_r` truthy and falsy under the same spec), so
/// it enumerates exactly `max_expansions` pops and runs every evaluable
/// candidate once. Reported per iteration and per expanded candidate.
fn bench_guard_pool_enumerate(c: &mut Criterion) {
    let (env, post) = blog_env();
    let specs = seeded_and_empty(post);
    let opts = Options {
        max_expansions: 2_000,
        ..Options::default()
    };
    let sched = Scheduler::sequential();
    let q = GuardQuery {
        env: &env,
        name: "m".into(),
        params: &[],
        specs: &specs,
        opts: &opts,
        sched: &sched,
    };
    let enumerate = || {
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let g = pool
            .nth_covering_guard(&q, &[0], &[0], 0, 1, &mut stats)
            .expect("no deadline");
        assert!(g.is_none(), "nothing covers a contradictory request");
        stats.expanded
    };
    let expanded = enumerate();
    c.bench_function("obs/guard_pool_enumerate", |b| b.iter(enumerate));
    let mut per_cand: Vec<f64> = (0..11)
        .map(|_| {
            let started = Instant::now();
            black_box(enumerate());
            started.elapsed().as_nanos() as f64 / expanded as f64
        })
        .collect();
    per_cand.sort_by(f64::total_cmp);
    println!(
        "bench {:<40} median {:>9.1}ns  ({expanded} expanded per iteration)",
        "obs/guard_pool_enumerate/candidate",
        per_cand[per_cand.len() / 2]
    );
}

criterion_group!(
    benches,
    bench_prepared_eval,
    bench_world_fork,
    bench_guard_covering,
    bench_guard_pool_enumerate
);
criterion_main!(benches);
