//! Runs the declarative scenario specs: every experiment in
//! `EXPERIMENTS.md`.
//!
//! ```text
//! scenario_lab [--quick] [--jobs N] [--out DIR] [--validate-only] [SPEC]...
//! ```
//!
//! A `SPEC` is a name (`exp1` runs `specs/exp1.json`) or a path to a spec
//! file; `scenario_lab --help` lists the names. With no spec arguments,
//! every `specs/*.json` in the repository runs. Each spec prints its
//! rendered table and writes `<name>.csv`, the exports it names, and
//! structured per-trial records as `<name>.trials.json` into the output
//! directory (`results/` by default). `--quick` shrinks populations and
//! spans for a fast smoke pass; the recorded results come from
//! full-fidelity runs. `--validate-only` parses and validates the specs
//! without running anything — the CI smoke job's first gate. `--jobs 0`
//! means one worker thread per available core; every file is
//! byte-identical at any job count (apart from the trial records'
//! `wall_ms`) because every trial owns its simulation. The exit status
//! is 1 if any trial's invariant audit reports a violation.

use std::path::PathBuf;
use std::process::ExitCode;

use agentrack_bench::{run_spec, spec_names, spec_path, specs_dir, Fidelity, ScenarioSpec};

fn main() -> ExitCode {
    let mut fidelity = Fidelity::Full;
    let mut jobs: usize = 1;
    let mut out_dir = PathBuf::from("results");
    let mut validate_only = false;
    let specs_dir = specs_dir();
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
                     [--validate-only] [SPEC]...\n\
                     a SPEC is a path or one of: {}",
                    spec_names(&specs_dir).join(" | ")
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
            spec => match spec_path(spec, &specs_dir) {
                Ok(path) => chosen.push(path),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if chosen.is_empty() {
        chosen = spec_names(&specs_dir)
            .iter()
            .map(|name| specs_dir.join(format!("{name}.json")))
            .collect();
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
        if let Err(e) = outcome.write(&out_dir) {
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
