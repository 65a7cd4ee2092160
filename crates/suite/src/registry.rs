//! Benchmark registry and metadata.
//!
//! The 19 Table 1 problems are the committed `benchmarks/*.rbspec` files,
//! embedded at build time and parsed and lowered by `rbsyn-front` when a
//! caller asks for them ([`all_benchmarks`], [`benchmark`]), so a lookup
//! neither fails nor depends on the working directory. Any other
//! directory of `.rbspec` files loads the same way at run time
//! ([`benchmarks_from_dir`], the path `solve --all --spec-dir` uses).

use rbsyn_core::{Options, SynthesisProblem};
use rbsyn_front::LoadedSpec;
use rbsyn_interp::InterpEnv;
use std::path::Path;
use std::sync::Arc;

/// Benchmark group (Table 1's first column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    /// Hand-written feature exercises.
    Synthetic,
    /// Discourse reconstructions.
    Discourse,
    /// Gitlab reconstructions.
    Gitlab,
    /// Diaspora reconstructions.
    Diaspora,
}

impl Group {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Group::Synthetic => "Synthetic",
            Group::Discourse => "Discourse",
            Group::Gitlab => "Gitlab",
            Group::Diaspora => "Diaspora",
        }
    }

    /// Parses a group name (the `group:` value of a `.rbspec` metadata
    /// block).
    pub fn parse(s: &str) -> Option<Group> {
        match s {
            "Synthetic" => Some(Group::Synthetic),
            "Discourse" => Some(Group::Discourse),
            "Gitlab" => Some(Group::Gitlab),
            "Diaspora" => Some(Group::Diaspora),
            _ => None,
        }
    }
}

/// The statistics Table 1 reports for a benchmark, used by the harness for
/// the static columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Number of specs (after merging same-setup unit tests).
    pub specs: usize,
    /// Minimum assertions over all specs.
    pub asserts_min: usize,
    /// Maximum assertions over all specs.
    pub asserts_max: usize,
    /// Paths through the original, human-written method.
    pub orig_paths: usize,
}

/// Builds a fresh environment + problem (environments are cheap to rebuild
/// and must not leak state between runs).
pub type BuildFn = Arc<dyn Fn() -> (InterpEnv, SynthesisProblem) + Send + Sync>;

/// Builds the benchmark's default options (size bounds and the like;
/// guidance, precision and timeout are overridden by the harness).
pub type OptionsFn = Arc<dyn Fn() -> Options + Send + Sync>;

/// One benchmark: metadata plus builders for a fresh run.
#[derive(Clone)]
pub struct Benchmark {
    /// Table 1 id (`S1`…`S7`, `A1`…`A12`) or, for corpus files without
    /// metadata, the file stem.
    pub id: String,
    /// Group.
    pub group: Group,
    /// Human-readable name.
    pub name: String,
    /// Environment + problem factory.
    pub build: BuildFn,
    /// Default-options factory.
    pub options: OptionsFn,
    /// Paper-reported statistics.
    pub expected: Expected,
}

impl Benchmark {
    /// Number of search-visible library methods in this benchmark's
    /// environment (Table 1 "# Lib Meth").
    pub fn lib_method_count(&self) -> usize {
        let (env, _) = (self.build)();
        env.table.search_visible_count()
    }

    /// Builds a benchmark from a loaded `.rbspec` file: id/group/name come
    /// from the metadata block (with file-stem/`Synthetic` fallbacks),
    /// `Expected` spec and assertion counts are derived from the lowered
    /// problem, and the build closure re-lowers the parsed AST so every
    /// run gets a fresh environment.
    pub fn from_spec(spec: LoadedSpec) -> Benchmark {
        let id = spec.id();
        let group = spec
            .lowered
            .group
            .as_deref()
            .and_then(Group::parse)
            .unwrap_or(Group::Synthetic);
        let name = spec
            .lowered
            .display_name
            .clone()
            .unwrap_or_else(|| spec.lowered.problem.name.clone());
        let assert_counts: Vec<usize> = spec
            .lowered
            .problem
            .specs
            .iter()
            .map(|s| s.asserts.len())
            .collect();
        let expected = Expected {
            specs: assert_counts.len(),
            asserts_min: assert_counts.iter().copied().min().unwrap_or(0),
            asserts_max: assert_counts.iter().copied().max().unwrap_or(0),
            orig_paths: spec.lowered.orig_paths,
        };
        let options = spec.lowered.options.clone();
        let file = Arc::clone(&spec.file);
        Benchmark {
            id,
            group,
            name,
            build: Arc::new(move || {
                let lowered =
                    rbsyn_front::lower(&file).expect("re-lowering a validated file succeeds");
                (lowered.env, lowered.problem)
            }),
            options: Arc::new(move || options.clone()),
            expected,
        }
    }
}

/// The Table 1 problems in Table 1 order, as (file stem, file text)
/// pairs. Each file's metadata id is its stem.
const TABLE1: [(&str, &str); 19] = [
    ("S1", include_str!("../../../benchmarks/S1.rbspec")),
    ("S2", include_str!("../../../benchmarks/S2.rbspec")),
    ("S3", include_str!("../../../benchmarks/S3.rbspec")),
    ("S4", include_str!("../../../benchmarks/S4.rbspec")),
    ("S5", include_str!("../../../benchmarks/S5.rbspec")),
    ("S6", include_str!("../../../benchmarks/S6.rbspec")),
    ("S7", include_str!("../../../benchmarks/S7.rbspec")),
    ("A1", include_str!("../../../benchmarks/A1.rbspec")),
    ("A2", include_str!("../../../benchmarks/A2.rbspec")),
    ("A3", include_str!("../../../benchmarks/A3.rbspec")),
    ("A4", include_str!("../../../benchmarks/A4.rbspec")),
    ("A5", include_str!("../../../benchmarks/A5.rbspec")),
    ("A6", include_str!("../../../benchmarks/A6.rbspec")),
    ("A7", include_str!("../../../benchmarks/A7.rbspec")),
    ("A8", include_str!("../../../benchmarks/A8.rbspec")),
    ("A9", include_str!("../../../benchmarks/A9.rbspec")),
    ("A10", include_str!("../../../benchmarks/A10.rbspec")),
    ("A11", include_str!("../../../benchmarks/A11.rbspec")),
    ("A12", include_str!("../../../benchmarks/A12.rbspec")),
];

/// Parses and lowers one embedded Table 1 file.
fn load_embedded(stem: &str, text: &str) -> LoadedSpec {
    let origin = format!("benchmarks/{stem}.rbspec");
    rbsyn_front::load_str(text, &origin)
        .unwrap_or_else(|e| panic!("the embedded {origin} must load:\n{e}"))
}

/// All 19 benchmarks in Table 1 order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    TABLE1
        .iter()
        .map(|(stem, text)| Benchmark::from_spec(load_embedded(stem, text)))
        .collect()
}

/// Looks a benchmark up by id (`"S3"`, `"A7"`, …), parsing only its own
/// file.
pub fn benchmark(id: &str) -> Option<Benchmark> {
    TABLE1
        .iter()
        .find(|(stem, _)| *stem == id)
        .map(|(stem, text)| Benchmark::from_spec(load_embedded(stem, text)))
}

/// Sort key reproducing Table 1 order for corpus files: `S*` rows first,
/// then `A*`, each numerically; anything else after, alphabetically.
fn table1_order(id: &str) -> (u8, u64, String) {
    let numbered =
        |prefix: char| -> Option<u64> { id.strip_prefix(prefix).and_then(|n| n.parse().ok()) };
    if let Some(n) = numbered('S') {
        (0, n, String::new())
    } else if let Some(n) = numbered('A') {
        (1, n, String::new())
    } else {
        (2, 0, id.to_owned())
    }
}

/// Loads every `.rbspec` file of a corpus directory as [`Benchmark`]s, in
/// Table 1 order.
///
/// # Errors
///
/// Returns the concatenated rendered diagnostics of every file that fails
/// to parse or lower, or an error for an unreadable/empty directory.
pub fn benchmarks_from_dir(dir: &Path) -> Result<Vec<Benchmark>, String> {
    let specs = rbsyn_front::load_dir(dir)?;
    let mut v: Vec<Benchmark> = specs.into_iter().map(Benchmark::from_spec).collect();
    let mut seen = std::collections::HashSet::new();
    for b in &v {
        if !seen.insert(b.id.clone()) {
            return Err(format!(
                "{}: duplicate benchmark id {:?} in the corpus",
                dir.display(),
                b.id
            ));
        }
    }
    v.sort_by_key(|b| table1_order(&b.id));
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_nineteen() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 19);
        let ids: Vec<&str> = all.iter().map(|b| b.id.as_str()).collect();
        for want in ["S1", "S7", "A1", "A4", "A5", "A8", "A9", "A12"] {
            assert!(ids.contains(&want), "missing {want}");
        }
        // Ids are unique.
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 19);
    }

    #[test]
    fn lookup_by_id() {
        assert!(benchmark("S1").is_some());
        assert!(benchmark("A12").is_some());
        assert!(benchmark("Z9").is_none());
    }

    /// Table 1's static columns: id, group, name, then specs, asserts
    /// min and max, and paths through the original method.
    const COLUMNS: [(&str, Group, &str, [usize; 4]); 19] = [
        ("S1", Group::Synthetic, "lvar", [1, 1, 1, 1]),
        ("S2", Group::Synthetic, "false", [1, 1, 1, 1]),
        ("S3", Group::Synthetic, "method chains", [2, 1, 1, 1]),
        ("S4", Group::Synthetic, "user exists", [2, 1, 1, 1]),
        ("S5", Group::Synthetic, "branching", [3, 1, 1, 2]),
        ("S6", Group::Synthetic, "overview (ext)", [3, 4, 4, 3]),
        ("S7", Group::Synthetic, "fold branches", [3, 1, 1, 1]),
        ("A1", Group::Discourse, "User#clear_glob…", [3, 2, 2, 3]),
        ("A2", Group::Discourse, "User#activate", [2, 1, 4, 2]),
        ("A3", Group::Discourse, "User#unstage", [3, 1, 5, 2]),
        ("A4", Group::Discourse, "User#check_site…", [5, 1, 1, 2]),
        ("A5", Group::Gitlab, "Discussion#build", [1, 4, 4, 1]),
        ("A6", Group::Gitlab, "User#disable_two…", [1, 10, 10, 1]),
        ("A7", Group::Gitlab, "Issue#close", [1, 3, 3, 1]),
        ("A8", Group::Gitlab, "Issue#reopen", [1, 5, 5, 1]),
        ("A9", Group::Diaspora, "Pod#schedule_…", [3, 1, 1, 2]),
        ("A10", Group::Diaspora, "User#process_inv…", [1, 2, 2, 2]),
        ("A11", Group::Diaspora, "InvitationCode#use!", [1, 1, 1, 1]),
        ("A12", Group::Diaspora, "User#confirm_email", [7, 4, 4, 2]),
    ];

    #[test]
    fn problems_validate_and_match_expected_spec_counts() {
        let all = all_benchmarks();
        assert_eq!(all.len(), COLUMNS.len());
        for (b, (id, group, name, [specs, min, max, orig_paths])) in all.iter().zip(COLUMNS) {
            let (_, problem) = (b.build)();
            problem
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.id));
            assert_eq!(b.id, id);
            assert_eq!(b.group, group, "{id} group");
            assert_eq!(b.name, name, "{id} name");
            let want = Expected {
                specs,
                asserts_min: min,
                asserts_max: max,
                orig_paths,
            };
            assert_eq!(b.expected, want, "{id} Table 1 columns");
        }
    }

    #[test]
    fn embedded_files_carry_their_stem_as_id() {
        for (stem, text) in TABLE1 {
            let spec = load_embedded(stem, text);
            assert_eq!(spec.lowered.id.as_deref(), Some(stem));
        }
    }

    #[test]
    fn environments_have_substantial_libraries() {
        for b in all_benchmarks() {
            let n = b.lib_method_count();
            assert!(n >= 100, "{}: only {n} search-visible methods", b.id);
        }
    }

    #[test]
    fn groups_round_trip_through_names() {
        for g in [
            Group::Synthetic,
            Group::Discourse,
            Group::Gitlab,
            Group::Diaspora,
        ] {
            assert_eq!(Group::parse(g.label()), Some(g));
        }
        assert_eq!(Group::parse("Unknown"), None);
    }

    #[test]
    fn table1_order_matches_the_paper() {
        let mut ids = vec!["A2", "S1", "A12", "A1", "S7", "custom"];
        ids.sort_by_key(|i| table1_order(i));
        assert_eq!(ids, ["S1", "S7", "A1", "A2", "A12", "custom"]);
    }
}
