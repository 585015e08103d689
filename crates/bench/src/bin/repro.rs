//! Regenerates the paper's evaluation figures and the extension
//! experiments.
//!
//! ```text
//! repro [--quick] [--csv DIR] [--jobs N] [EXPERIMENT|all]...
//! ```
//!
//! `repro --help` lists the experiment names. Each runs its
//! `specs/<name>.json`, embedded at build time. With no experiment
//! arguments, everything runs. `--quick` shrinks populations and spans
//! for a fast smoke pass; the recorded results in `EXPERIMENTS.md` come
//! from full-fidelity runs. `--csv DIR` additionally writes each
//! experiment's `<name>.csv` and the exports its spec names into `DIR`.
//! `--jobs N` runs the independent grid cells of each experiment on `N`
//! worker threads (results are identical to sequential — each cell owns
//! its simulation and its seed); `--jobs 0` means one thread per
//! available core.

use std::path::PathBuf;
use std::process::ExitCode;

use agentrack_bench::{experiments, run_spec, Fidelity};

fn main() -> ExitCode {
    let mut fidelity = Fidelity::Full;
    let mut csv_dir: Option<PathBuf> = None;
    let mut jobs: usize = 1;
    let specs = experiments();
    let names: Vec<&str> = specs.iter().map(|spec| spec.name.as_str()).collect();
    let mut chosen: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv requires a directory");
                    return ExitCode::FAILURE;
                }
            },
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
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--csv DIR] [--jobs N] [EXPERIMENT]...\n\
                     experiments: {} | all",
                    names.join(" | ")
                );
                return ExitCode::SUCCESS;
            }
            "all" => chosen.extend(names.iter().map(|s| (*s).to_owned())),
            name if names.contains(&name) => chosen.push(name.to_owned()),
            other => {
                eprintln!(
                    "unknown argument {other:?}; experiments: {}",
                    names.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if chosen.is_empty() {
        chosen.extend(names.iter().map(|s| (*s).to_owned()));
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for name in chosen {
        let spec = specs.iter().find(|spec| spec.name == name);
        let spec = spec.expect("chosen names come from the specs");
        let started = std::time::Instant::now();
        let outcome = run_spec(spec, fidelity, jobs);
        print!("{}", outcome.table.render());
        println!("[{name} took {:.1?}]", started.elapsed());
        if let Some(dir) = &csv_dir {
            match outcome.write(dir, false) {
                Ok(paths) => {
                    for path in paths {
                        println!("[wrote {}]", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
