//! The paper's running example (§2, Fig. 1/2): synthesize `update_post`
//! for a blog app from three specs, producing a branching method that
//! updates a post's title (or slug) only when the caller authored it.
//!
//! ```text
//! cargo run --release --example blog_update_post
//! ```
//!
//! This is benchmark S6 ("overview (ext)") of Table 1 and exercises the
//! full pipeline: type-guided search, effect-guided hole insertion from the
//! failing assertions' read effects, branch-condition synthesis, and
//! merging under the rewrite rules.

use rbsyn::core::Synthesizer;
use rbsyn::suite::benchmark;

fn main() {
    let b = benchmark("S6").expect("S6 is registered");
    let (env, problem) = (b.build)();
    println!(
        "synthesizing update_post from {} specs…",
        problem.specs.len()
    );

    let result = Synthesizer::new(env, problem, (b.options)())
        .run()
        .expect("the overview benchmark synthesizes");

    println!(
        "done in {:?} ({} candidates tested)",
        result.stats.elapsed, result.stats.search.tested
    );
    println!("{}", result.program);
    println!(
        "\nsolution: {} AST nodes, {} paths",
        result.stats.solution_size, result.stats.solution_paths
    );
}
