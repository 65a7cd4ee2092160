//! `specgen` — generate, fuzz, and differentially gate `.rbspec`
//! synthesis problems.
//!
//! ```text
//! specgen --out DIR [--count N] [--seed S]   generate a corpus into DIR
//! specgen --regen [--dir DIR]                regenerate DIR from its MANIFEST.txt
//! specgen --fuzz N [--seed S]                fuzz the frontend with N mutants
//! specgen --gate [--dir DIR] [--sample N]    solve generated problems and check
//!                                            obs-equivalence vs hidden references
//! ```
//!
//! Exit codes follow the shared contract in [`rbsyn_core::exit`]: `0`
//! success, `1` gate mismatch / fuzz failure / generation error, `2`
//! usage, `4` gate ran clean but some problems timed out.

use rbsyn_core::exit;
use rbsyn_specgen::{
    gen_candidate, parse_header, read_manifest, run_fuzz, solve_and_check, write_corpus, Verdict,
    DEFAULT_COUNT, DEFAULT_SEED,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: specgen --out DIR [--count N] [--seed S]
       specgen --regen [--dir DIR]
       specgen --fuzz N [--seed S]
       specgen --gate [--dir DIR] [--sample N]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(exit::USAGE as u8)
}

fn code(c: i32) -> ExitCode {
    ExitCode::from(c as u8)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<PathBuf> = None;
    let mut dir: Option<PathBuf> = None;
    let mut count: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut sample: Option<usize> = None;
    let mut fuzz: Option<usize> = None;
    let mut regen = false;
    let mut gate = false;

    macro_rules! take {
        ($it:expr, $flag:expr) => {
            match $it.next() {
                Some(v) => v,
                None => {
                    eprintln!("specgen: {} expects a value", $flag);
                    return usage();
                }
            }
        };
    }

    // A numeric flag whose value is not an unsigned integer is a usage
    // error, never a silent fall-back to the default.
    macro_rules! number {
        ($it:expr, $flag:expr) => {{
            let v = take!($it, $flag);
            match v.parse() {
                Ok(n) => Some(n),
                Err(_) => {
                    eprintln!("specgen: {} expects an unsigned integer, got `{v}`", $flag);
                    return usage();
                }
            }
        }};
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(take!(it, "--out"))),
            "--dir" => dir = Some(PathBuf::from(take!(it, "--dir"))),
            "--count" => count = number!(it, "--count"),
            "--seed" => seed = number!(it, "--seed"),
            "--sample" => sample = number!(it, "--sample"),
            "--fuzz" => fuzz = number!(it, "--fuzz"),
            "--regen" => regen = true,
            "--gate" => gate = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("specgen: unknown argument `{other}`");
                return usage();
            }
        }
    }

    let default_dir = || PathBuf::from("benchmarks/generated");

    if let Some(n) = fuzz {
        let report = run_fuzz(seed.unwrap_or(DEFAULT_SEED), n);
        println!(
            "specgen fuzz: {} iterations, {} accepted, {} rejected, {} failures",
            report.iterations,
            report.accepted,
            report.rejected,
            report.failures.len()
        );
        for f in &report.failures {
            eprintln!("FAIL {f}");
        }
        return if report.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            code(exit::OTHER)
        };
    }

    if gate {
        return run_gate(&dir.unwrap_or_else(default_dir), sample);
    }

    if regen {
        let d = dir.unwrap_or_else(default_dir);
        let (s, c) = match read_manifest(&d) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("specgen: {e}");
                return code(exit::OTHER);
            }
        };
        eprintln!(
            "specgen: regenerating {c} problems (seed {s}) into {}",
            d.display()
        );
        return match write_corpus(&d, s, c, true) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("specgen: {e}");
                code(exit::OTHER)
            }
        };
    }

    if let Some(d) = out {
        let s = seed.unwrap_or(DEFAULT_SEED);
        let c = count.unwrap_or(DEFAULT_COUNT);
        eprintln!(
            "specgen: generating {c} problems (seed {s}) into {}",
            d.display()
        );
        return match write_corpus(&d, s, c, true) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("specgen: {e}");
                code(exit::OTHER)
            }
        };
    }

    usage()
}

/// The differential gate: for each (sampled) generated file, re-derive
/// the hidden reference from the provenance header, byte-compare the
/// regenerated text, solve under the file's own options (timeout
/// honored), and require observational equivalence. Exit `0` when all
/// solved, `4` when the only failures are clean timeouts, `1` otherwise.
fn run_gate(dir: &Path, sample: Option<usize>) -> ExitCode {
    let paths = match rbsyn_front::spec_paths(dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("specgen: {e}");
            return code(exit::OTHER);
        }
    };
    let stride = sample.map(|n| (paths.len() / n.max(1)).max(1)).unwrap_or(1);
    let picked: Vec<&PathBuf> = paths.iter().step_by(stride).collect();
    let (mut solved, mut timeouts, mut failures) = (0usize, 0usize, 0usize);
    for path in picked {
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {name}: cannot read: {e}");
                failures += 1;
                continue;
            }
        };
        let Some(key) = parse_header(&text) else {
            eprintln!("FAIL {name}: missing specgen provenance header");
            failures += 1;
            continue;
        };
        let Some(c) = gen_candidate(key.seed, key.index, key.attempt) else {
            eprintln!("FAIL {name}: header does not regenerate a candidate");
            failures += 1;
            continue;
        };
        if c.text != text {
            eprintln!("FAIL {name}: regenerated text differs from file on disk");
            failures += 1;
            continue;
        }
        match solve_and_check(&c, true) {
            Verdict::Solved(_) => {
                println!("ok   {name}");
                solved += 1;
            }
            Verdict::Timeout => {
                println!("time {name}");
                timeouts += 1;
            }
            Verdict::NoSolution => {
                eprintln!("FAIL {name}: search exhausted without a program");
                failures += 1;
            }
            Verdict::Mismatch => {
                eprintln!("FAIL {name}: solution not obs-equivalent to hidden reference");
                failures += 1;
            }
            Verdict::Error(e) => {
                eprintln!("FAIL {name}: {e}");
                failures += 1;
            }
        }
    }
    println!("specgen gate: {solved} solved, {timeouts} timed out, {failures} failed");
    if failures > 0 {
        code(exit::OTHER)
    } else if timeouts > 0 {
        code(exit::TIMEOUT)
    } else {
        ExitCode::SUCCESS
    }
}
