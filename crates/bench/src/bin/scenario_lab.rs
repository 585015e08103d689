//! Runs declarative scenario spec files; `repro` runs the same specs,
//! embedded, by name.
//!
//! ```text
//! scenario_lab [--quick] [--jobs N] [--out DIR] [--validate-only] [SPEC.json]...
//! ```
//!
//! With no spec arguments, every `specs/*.json` in the repository runs.
//! Each spec prints its rendered table and writes `<name>.csv`, the
//! exports it names, and structured per-trial records as
//! `<name>.trials.json` into the output directory (`results/` by
//! default). `--validate-only` parses and validates the specs without
//! running anything — the CI smoke job's first gate. `--jobs 0` means
//! one worker thread per available core; every file is byte-identical
//! at any job count (apart from the trial records' `wall_ms`) because
//! every trial owns its simulation.

use std::path::PathBuf;
use std::process::ExitCode;

use agentrack_bench::{run_spec, Fidelity, ScenarioSpec};

fn main() -> ExitCode {
    let mut fidelity = Fidelity::Full;
    let mut jobs: usize = 1;
    let mut out_dir = PathBuf::from("results");
    let mut validate_only = false;
    let mut chosen: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(0) => {
                    jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
                }
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs requires a thread count (0 = all cores)");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--validate-only" => validate_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: scenario_lab [--quick] [--jobs N] [--out DIR] \
                     [--validate-only] [SPEC.json]..."
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
            path => chosen.push(PathBuf::from(path)),
        }
    }
    if chosen.is_empty() {
        chosen = default_specs();
        if chosen.is_empty() {
            eprintln!("no specs given and none found under specs/");
            return ExitCode::FAILURE;
        }
    }

    // Load (and thereby validate) everything up front: a typo in the
    // last spec should not cost the runtime of the first.
    let mut specs = Vec::new();
    for path in &chosen {
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match ScenarioSpec::load_str(&source) {
            Ok(spec) => {
                println!("{}: ok ({})", path.display(), spec.name);
                specs.push(spec);
            }
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if validate_only {
        return ExitCode::SUCCESS;
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut dirty = false;
    for spec in &specs {
        let started = std::time::Instant::now();
        let outcome = run_spec(spec, fidelity, jobs);
        print!("{}", outcome.table.render());
        println!("[{} took {:.1?}]", spec.name, started.elapsed());
        if let Err(e) = outcome.write(&out_dir, true) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let violations: usize = outcome
            .trials
            .iter()
            .filter_map(|t| t.invariants.as_ref())
            .map(|i| i.violations.len())
            .sum();
        if violations > 0 {
            eprintln!("{}: {violations} invariant violation(s)", spec.name);
            dirty = true;
        }
    }
    if dirty {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Every `specs/*.json`, sorted, walking up from the working directory
/// so the binary works from the workspace root or a crate directory.
fn default_specs() -> Vec<PathBuf> {
    let mut dir = PathBuf::from("specs");
    if !dir.is_dir() {
        dir = PathBuf::from("../../specs");
    }
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut specs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    specs.sort();
    specs
}
