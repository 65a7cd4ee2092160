//! Micro-benchmarks of the synthesizer's inner-loop primitives: subtyping,
//! effect subsumption, candidate enumeration and spec execution. These are
//! not paper experiments; they exist to catch performance regressions in
//! the machinery Table 1 depends on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rbsyn_core::{Guidance, Options};
use rbsyn_interp::{run_spec, InterpEnv};
use rbsyn_lang::builder::*;
use rbsyn_lang::{Program, Ty, Value};
use rbsyn_stdlib::EnvBuilder;
use rbsyn_ty::{effect_subsumed, is_subtype, EffectPrecision};

fn blog_env() -> (InterpEnv, rbsyn_lang::ClassId) {
    let mut b = EnvBuilder::with_stdlib();
    let post = b.define_model(
        "Post",
        &[("author", Ty::Str), ("title", Ty::Str), ("slug", Ty::Str)],
    );
    b.add_const(Value::Class(post));
    (b.finish(), post)
}

fn bench_subtyping(c: &mut Criterion) {
    let (env, post) = blog_env();
    let h = &env.table.hierarchy;
    let sub = Ty::Instance(post);
    let sup = Ty::union(vec![Ty::Instance(post), Ty::Nil, Ty::Str]);
    c.bench_function("micro/is_subtype_union", |b| {
        b.iter(|| is_subtype(h, black_box(&sub), black_box(&sup)))
    });
}

fn bench_effects(c: &mut Criterion) {
    let (env, post) = blog_env();
    let h = &env.table.hierarchy;
    let title = rbsyn_stdlib::eff::region(post, "title");
    let star = rbsyn_stdlib::eff::class_star(post);
    c.bench_function("micro/effect_subsumed", |b| {
        b.iter(|| effect_subsumed(h, black_box(&title), black_box(&star)))
    });
    c.bench_function("micro/precision_coarsen", |b| {
        b.iter(|| EffectPrecision::Class.apply(black_box(&title)))
    });
}

fn bench_enumeration(c: &mut Criterion) {
    let (env, post) = blog_env();
    c.bench_function("micro/candidates_returning", |b| {
        b.iter(|| {
            env.table
                .candidates_returning(black_box(&Ty::Instance(post)), &[])
        })
    });
    let want = rbsyn_stdlib::eff::region(post, "title");
    c.bench_function("micro/candidates_writing", |b| {
        b.iter(|| env.table.candidates_writing(black_box(&want), &[]))
    });
}

fn bench_spec_execution(c: &mut Criterion) {
    let (env, post) = blog_env();
    let spec = rbsyn_interp::Spec::new(
        "roundtrip",
        vec![
            rbsyn_interp::SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("slug", str_("s")), ("title", str_("T"))])],
            )),
            rbsyn_interp::SetupStep::CallTarget {
                bind: "xr".into(),
                args: vec![str_("s")],
            },
        ],
        vec![call(call(var("xr"), "title", []), "==", [str_("T")])],
    );
    let program = Program::new(
        "m",
        ["arg0"],
        call(cls(post), "find_by", [hash([("slug", var("arg0"))])]),
    );
    c.bench_function("micro/run_spec", |b| {
        b.iter(|| run_spec(black_box(&env), black_box(&spec), black_box(&program)))
    });
}

fn bench_db_workload(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    // Deterministic synthetic workload: 200 rows with skewed values, then
    // the equality selects the ActiveRecord layer issues.
    c.bench_function("micro/db_insert_select_200", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(42);
            let mut db = rbsyn_db::Database::new();
            let t = db.create_table(rbsyn_db::TableSchema::new("rows", ["a", "b"]));
            let a = rbsyn_lang::Symbol::intern("a");
            for _ in 0..200 {
                let v: i64 = rng.gen_range(0..10);
                db.table_mut(t).insert(vec![(a, rbsyn_lang::Value::Int(v))]);
            }
            let mut hits = 0;
            for v in 0..10 {
                hits += db.table(t).count_where(&[(a, rbsyn_lang::Value::Int(v))]);
            }
            assert_eq!(hits, 200);
            black_box(hits)
        })
    });
}

fn bench_end_to_end_small(c: &mut Criterion) {
    let bench = rbsyn_suite::benchmark("S2").expect("S2 exists");
    c.bench_function("micro/synthesize_s2", |b| {
        b.iter(|| {
            let (env, problem) = (bench.build)();
            let opts = Options {
                guidance: Guidance::both(),
                ..(bench.options)()
            };
            rbsyn_core::Synthesizer::new(env, problem, opts)
                .run()
                .expect("S2 synthesizes")
        })
    });
}

criterion_group!(
    benches,
    bench_subtyping,
    bench_effects,
    bench_enumeration,
    bench_spec_execution,
    bench_db_workload,
    bench_end_to_end_small
);
criterion_main!(benches);
