//! Workloads, corpus loading, and one pass of a workload through the
//! batch driver — all through the synthesizer's public API.

use crate::host;
use crate::stats;
use crate::validate::validate;
use rbsyn_core::{run_batch_with, BatchJob, BatchPolicy, BatchReport, Options};
use rbsyn_front::ast::SpecFile;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// A named set of problems and the way they are submitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 19 paper problems, one job thread.
    Table1,
    /// The pinned 500-problem specgen corpus, one job thread.
    Generated,
    /// The 19 paper problems as one batch on two job threads.
    Table1Par2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::Generated, Workload::Table1Par2];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Generated => "generated",
            Workload::Table1Par2 => "table1-par2",
        }
    }

    /// The spec directory, relative to the repository root (the working
    /// directory).
    fn corpus(self) -> &'static str {
        match self {
            Workload::Table1 | Workload::Table1Par2 => "benchmarks",
            Workload::Generated => "benchmarks/generated",
        }
    }

    /// Whether the seed shuffles the submission order. The paper
    /// problems keep file order: the first problem of each app pays for
    /// the batch-shared template memo, so shuffling them moved
    /// `solve_s.geomean` between 0.41 s and 0.64 s across five seeds.
    pub fn seeded_order(self) -> bool {
        self == Workload::Generated
    }

    /// Job threads, one closed-loop client each.
    pub fn threads(self) -> usize {
        match self {
            Workload::Table1 | Workload::Generated => 1,
            Workload::Table1Par2 => 2,
        }
    }
}

/// One problem: its parsed spec file and the options lowering gave it
/// (defaults plus the file's own `options` block, deadline included).
pub struct Problem {
    pub id: String,
    pub file: Arc<SpecFile>,
    pub options: Options,
    /// Bytes of spec text.
    pub bytes: usize,
    /// When loading parsed it (start, end) and lowered it (end).
    pub loaded: [Instant; 3],
}

/// Reads, parses and lowers every spec file of `workload`, in file-name
/// order.
pub fn load(workload: Workload) -> Result<Vec<Problem>, String> {
    let paths = rbsyn_front::spec_paths(Path::new(workload.corpus()))?;
    let mut problems = Vec::with_capacity(paths.len());
    for path in paths {
        let origin = path.display().to_string();
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{origin}: cannot read: {e}"))?;
        let t0 = Instant::now();
        let file = rbsyn_front::parse(&source).map_err(|d| d.render(&origin, &source))?;
        let t1 = Instant::now();
        let lowered = rbsyn_front::lower(&file).map_err(|d| d.render(&origin, &source))?;
        let t2 = Instant::now();
        let id = lowered.id.clone().unwrap_or_else(|| {
            path.file_stem()
                .map_or_else(|| origin.clone(), |s| s.to_string_lossy().into_owned())
        });
        problems.push(Problem {
            id,
            file: Arc::new(file),
            options: lowered.options,
            bytes: source.len(),
            loaded: [t0, t1, t2],
        });
    }
    Ok(problems)
}

/// When a traced job's build ran, and on which thread.
#[derive(Clone, Copy)]
pub struct BuildMark {
    pub start: Instant,
    pub end: Instant,
    pub thread: ThreadId,
}

/// Build marks of one traced pass, one slot per job.
pub type BuildLog = Arc<Vec<OnceLock<BuildMark>>>;

/// One batch job per problem, in `problems` order. Each build closure
/// re-lowers the parsed file into a fresh environment and problem; with a
/// `log`, it also records when it ran.
pub fn jobs(problems: &[Problem], log: Option<&BuildLog>) -> Vec<BatchJob> {
    problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let file = Arc::clone(&p.file);
            let log = log.map(Arc::clone);
            BatchJob::new(
                p.id.clone(),
                move || {
                    let start = Instant::now();
                    let lowered =
                        rbsyn_front::lower(&file).expect("re-lowering a loaded file succeeds");
                    if let Some(log) = &log {
                        let mark = BuildMark {
                            start,
                            end: Instant::now(),
                            thread: std::thread::current().id(),
                        };
                        // A job is built once per batch.
                        let _ = log[i].set(mark);
                    }
                    (lowered.env, lowered.problem)
                },
                p.options.clone(),
            )
        })
        .collect()
}

/// What the benchmark concluded about one problem of a pass.
pub struct Checked {
    /// Job time: from the start of the build to the return of `run`.
    pub solve_s: f64,
    /// `None` when a validated program came back; else why not.
    pub error: Option<String>,
    /// Fingerprint of the program text (0 when none came back).
    pub program_hash: u64,
    /// When the benchmark's re-validation ran (outside the timed batch).
    pub validated: (Instant, Instant),
}

/// One pass: the batch report plus the benchmark's own measurements.
pub struct Pass {
    pub report: BatchReport,
    /// When the batch was submitted to `run_batch_with`.
    pub submitted: Instant,
    /// Batch makespan as the benchmark saw it, in seconds.
    pub makespan: f64,
    /// Process CPU seconds the batch took (all threads).
    pub cpu_s: f64,
    /// Build marks, for a traced pass.
    pub builds: Option<Vec<Option<BuildMark>>>,
    /// One entry per problem, in submission order.
    pub checked: Vec<Checked>,
}

impl Pass {
    pub fn solved(&self) -> usize {
        self.checked.iter().filter(|c| c.error.is_none()).count()
    }
}

/// Submits `problems` (already in submission order) as one batch on
/// `threads` job threads, then re-validates every returned program.
pub fn run_pass(problems: &[Problem], threads: usize, traced: bool) -> Pass {
    let log: Option<BuildLog> =
        traced.then(|| Arc::new(problems.iter().map(|_| OnceLock::new()).collect()));
    let jobs = jobs(problems, log.as_ref());
    let cpu0 = host::process_cpu_s();
    let submitted = Instant::now();
    let report = run_batch_with(&jobs, threads, &BatchPolicy::default());
    let makespan = submitted.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    drop(jobs);
    let checked = problems
        .iter()
        .zip(&report.outcomes)
        .map(|(p, o)| {
            let t0 = Instant::now();
            let (error, program_hash) = match &o.result {
                Ok(r) => (
                    validate(&p.file, &r.program).err(),
                    stats::fnv1a(r.program.to_string().as_bytes()),
                ),
                Err(e) => (Some(format!("synthesis failed: {e}")), 0),
            };
            Checked {
                solve_s: o.elapsed.as_secs_f64(),
                error,
                program_hash,
                validated: (t0, Instant::now()),
            }
        })
        .collect();
    let builds = log.map(|log| log.iter().map(|m| m.get().copied()).collect());
    Pass {
        report,
        submitted,
        makespan,
        cpu_s,
        builds,
        checked,
    }
}
