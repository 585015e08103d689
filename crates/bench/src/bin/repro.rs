//! Regenerates the paper's evaluation figures and the extension
//! experiments.
//!
//! ```text
//! repro [--quick] [--csv DIR] [--jobs N] [EXPERIMENT|all]...
//! ```
//!
//! `repro --help` lists the experiment names. Most run their
//! `specs/<name>.json`, embedded at build time; `baselines`, `delivery`,
//! `trackers` and `attribution` call their hand-coded function. With no
//! experiment arguments, everything runs. `--quick` shrinks
//! populations and spans for a fast smoke pass; the recorded results in
//! `EXPERIMENTS.md` come from full-fidelity runs. `--csv DIR` additionally
//! writes one CSV per experiment into `DIR`. `--jobs N` runs the
//! independent grid cells of each experiment on `N` worker threads
//! (results are identical to sequential — each cell owns its simulation
//! and its seed); `--jobs 0` means one thread per available core.

use std::path::PathBuf;
use std::process::ExitCode;

use agentrack_bench::{attribution, run_experiment, trackers_registry, Fidelity, EXPERIMENTS};

fn main() -> ExitCode {
    let mut fidelity = Fidelity::Full;
    let mut csv_dir: Option<PathBuf> = None;
    let mut jobs: usize = 1;
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
                    EXPERIMENTS.join(" | ")
                );
                return ExitCode::SUCCESS;
            }
            "all" => chosen.extend(EXPERIMENTS.iter().map(|s| (*s).to_owned())),
            name if EXPERIMENTS.contains(&name) => chosen.push(name.to_owned()),
            other => {
                eprintln!(
                    "unknown argument {other:?}; experiments: {}",
                    EXPERIMENTS.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS.iter().map(|s| (*s).to_owned()));
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for name in chosen {
        let started = std::time::Instant::now();
        // The trackers experiment additionally exports the full metrics
        // registry as JSON, and the attribution experiment exports a
        // Perfetto trace plus a folded flamegraph; run each once and keep
        // every rendering.
        let (table, mut extra_files) = if name == "trackers" {
            let (table, json) = trackers_registry(fidelity);
            (table, vec![("trackers.json".to_owned(), json)])
        } else if name == "attribution" {
            let (table, perfetto, folded) = attribution(fidelity, jobs);
            (
                table,
                vec![
                    ("attribution.perfetto.json".to_owned(), perfetto),
                    ("attribution.folded".to_owned(), folded),
                ],
            )
        } else {
            (run_experiment(&name, fidelity, jobs), Vec::new())
        };
        print!("{}", table.render());
        println!("[{name} took {:.1?}]", started.elapsed());
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("[wrote {}]", path.display());
            for (file, contents) in extra_files.drain(..) {
                let path = dir.join(file);
                if let Err(e) = std::fs::write(&path, contents) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("[wrote {}]", path.display());
            }
        }
    }
    ExitCode::SUCCESS
}
