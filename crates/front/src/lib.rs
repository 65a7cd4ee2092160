//! Textual spec frontend: parse `.rbspec` files into synthesis problems.
//!
//! RbSyn's input language is a Ruby DSL of typed, effect-annotated specs
//! (`define :name do spec … setup … postcond … end`, paper §4). This crate
//! gives the reproduction the same property — synthesis problems as *data*
//! — via a small textual format:
//!
//! ```text
//! model Issue do
//!   title: Str
//!   state: Str
//! end
//!
//! define close_issue(arg0: Str) -> Issue do
//!   consts base, "closed", Issue
//!
//!   spec "closing flips the state" do
//!     Issue.create({title: "Slow search", state: "opened"})
//!     issue = Issue.find_by({title: "Slow search"})
//!     updated = target("Slow search")
//!     assert updated.id == issue.id
//!     assert updated.state == "closed"
//!   end
//! end
//! ```
//!
//! The pipeline is `parse` (hand-written lexer + recursive descent, every
//! node span-carrying) → [`lower()`] (resolve names against a fresh
//! stdlib [`EnvBuilder`](rbsyn_stdlib::EnvBuilder), build the
//! [`SynthesisProblem`](rbsyn_core::SynthesisProblem) and
//! [`Options`](rbsyn_core::Options)) → a [`Lowered`] bundle ready to hand
//! to the synthesizer, the batch driver, or the benchmark registry.
//! Errors at either stage come back as [`Diagnostic`]s that render as
//! `file:line:col` plus a source excerpt.
//!
//! See the README's “`.rbspec` format reference” for the full grammar and
//! `benchmarks/*.rbspec` for the 19-benchmark corpus.

#![deny(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod span;

pub use ast::SpecFile;
pub use lower::{lower, Lowered};
pub use parser::parse;
pub use pretty::to_rbspec;
pub use span::{Diagnostic, Span};

use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The conventional postcondition variable a bare `target(…)` binds
/// (`updated` in the paper's Fig. 1).
pub const RESULT_VAR: &str = "updated";

/// A parsed-and-lowered spec file, with enough context to re-lower (fresh
/// environments per run) and to render diagnostics.
pub struct LoadedSpec {
    /// Where the source came from (path or a caller-chosen label).
    pub origin: String,
    /// The raw source (kept for diagnostic rendering).
    pub source: String,
    /// The parsed file, shared so benchmark builders can re-lower it.
    pub file: Arc<SpecFile>,
    /// The first lowering's result (environment, problem, options, meta).
    pub lowered: Lowered,
}

impl LoadedSpec {
    /// A fresh environment + problem pair, re-lowered from the parsed AST
    /// exactly like benchmark registry builders rebuild their environments
    /// (environments must not leak state between runs).
    pub fn build(&self) -> (rbsyn_interp::InterpEnv, rbsyn_core::SynthesisProblem) {
        let lowered = lower::lower(&self.file).expect("re-lowering a validated file succeeds");
        (lowered.env, lowered.problem)
    }

    /// The benchmark id: metadata `id:` when present, else the origin's
    /// file stem.
    pub fn id(&self) -> String {
        if let Some(id) = &self.lowered.id {
            return id.clone();
        }
        Path::new(&self.origin)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| self.origin.clone())
    }
}

/// Parses and lowers a source string. The error is fully rendered
/// (`origin:line:col: error: …` + excerpt), ready to print.
pub fn load_str(source: &str, origin: &str) -> Result<LoadedSpec, String> {
    let render = |d: Diagnostic| d.render(origin, source);
    let file = parse(source).map_err(render)?;
    let lowered = lower::lower(&file).map_err(render)?;
    Ok(LoadedSpec {
        origin: origin.to_owned(),
        source: source.to_owned(),
        file: Arc::new(file),
        lowered,
    })
}

/// Reads, parses and lowers one `.rbspec` file.
pub fn load_file(path: &Path) -> Result<LoadedSpec, String> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    load_str(&source, &path.display().to_string())
}

/// Lists a directory's `.rbspec` files, sorted by file name for
/// determinism — the one corpus-walk rule every consumer
/// (`benchmarks_from_dir`, `specgen`, synthbench) shares.
///
/// # Errors
///
/// Unreadable directories and directories without any `.rbspec` file are
/// errors (a vanished corpus must never read as "nothing to check").
pub fn spec_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: cannot read directory: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rbspec"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .rbspec files found", dir.display()));
    }
    Ok(paths)
}

/// Like [`spec_paths`], but walks subdirectories too (depth-first,
/// children sorted by name), so nested corpora such as
/// `benchmarks/generated/` are found. Used by `speccheck`; the benchmark
/// registry stays non-recursive on purpose (the 19-benchmark corpus must
/// not silently absorb generated problems).
///
/// # Errors
///
/// Unreadable directories are errors; so is a walk that finds no
/// `.rbspec` file at all.
pub fn spec_paths_recursive(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: cannot read directory: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                walk(&p, out)?;
            } else if p.extension().is_some_and(|e| e == "rbspec") {
                out.push(p);
            }
        }
        Ok(())
    }
    let mut paths = Vec::new();
    walk(dir, &mut paths)?;
    if paths.is_empty() {
        return Err(format!(
            "{}: no .rbspec files found (recursive)",
            dir.display()
        ));
    }
    Ok(paths)
}

/// Loads every `.rbspec` file in a directory (via [`spec_paths`]).
/// Collects *all* failures instead of stopping at the first, so a corpus
/// lint reports every broken file in one pass.
///
/// # Errors
///
/// The error is the concatenation of every file's rendered diagnostics.
pub fn load_dir(dir: &Path) -> Result<Vec<LoadedSpec>, String> {
    let paths = spec_paths(dir)?;
    let mut specs = Vec::with_capacity(paths.len());
    let mut errors = String::new();
    for p in &paths {
        match load_file(p) {
            Ok(s) => specs.push(s),
            Err(e) => errors.push_str(&e),
        }
    }
    if errors.is_empty() {
        Ok(specs)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
model Issue do
  title: Str
  state: Str
end

define close_issue(arg0: Str) -> Issue do
  consts base, "closed", Issue

  spec "closing flips the state" do
    Issue.create({title: "Slow search", state: "opened"})
    issue = Issue.find_by({title: "Slow search"})
    updated = target("Slow search")
    assert updated.id == issue.id
    assert updated.state == "closed"
  end
end
"#;

    #[test]
    fn mini_file_loads() {
        let s = load_str(MINI, "mini.rbspec").expect("loads");
        assert_eq!(s.id(), "mini");
        assert_eq!(s.lowered.problem.name, "close_issue");
        assert_eq!(s.lowered.problem.specs.len(), 1);
        assert_eq!(
            s.lowered.problem.consts.len(),
            7,
            "base (5) + string + class"
        );
        s.lowered.problem.validate().expect("valid problem");
        // The environment knows the model.
        assert!(s.lowered.env.table.hierarchy.find("Issue").is_some());
    }

    #[test]
    fn rebuild_is_deterministic() {
        let s = load_str(MINI, "mini.rbspec").unwrap();
        let (env1, p1) = s.build();
        let (env2, p2) = s.build();
        assert_eq!(env1.table.fingerprint(), env2.table.fingerprint());
        assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
    }

    #[test]
    fn recursive_walk_finds_nested_specs() {
        let root = std::env::temp_dir().join("rbsyn-front-recursive-test");
        let nested = root.join("sub").join("deeper");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(root.join("b.rbspec"), "x").unwrap();
        std::fs::write(root.join("a.rbspec"), "x").unwrap();
        std::fs::write(nested.join("c.rbspec"), "x").unwrap();
        std::fs::write(root.join("ignored.txt"), "x").unwrap();
        let found = spec_paths_recursive(&root).unwrap();
        let names: Vec<String> = found
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        assert_eq!(names, ["a.rbspec", "b.rbspec", "sub/deeper/c.rbspec"]);
        // The non-recursive walk must not see the nested file.
        assert_eq!(spec_paths(&root).unwrap().len(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn errors_render_with_location() {
        let Err(err) = load_str("model Issue do\n  title: Strr\nend\ndefine m() -> Bool do\n  spec \"s\" do\n    updated = target()\n    assert updated\n  end\nend\n", "x.rbspec") else {
            panic!("expected a diagnostic")
        };
        assert!(err.contains("x.rbspec:2:10"), "{err}");
        assert!(err.contains("unknown type `Strr`"), "{err}");
    }
}
