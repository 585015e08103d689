//! Protocol-level benchmark of the location mechanism: four workloads
//! driven through `DirectoryClient` on both runtimes, end-to-end metrics
//! from untraced runs, per-layer metrics from traced ones. See README.md.
//!
//! Two ways in:
//!
//! * the driver's contract — `--workload W --seed N --seconds S --trace 0|1`
//!   runs one workload once and ends its output with one JSON line;
//! * for people (`run.sh`) — `all`, a workload name, `probes`, or
//!   `manifest`, with `--quick` and `--repeat N`. Each run is a child
//!   process started the driver's way, and the tables are its result line.

mod agents;
mod live;
mod oracle;
mod probes;
mod report;
mod simrun;
mod stats;
mod sys;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use report::{Better, RunResult, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const DEFAULT_SEED: u64 = 4606;
/// Window of a `--quick` smoke run, in seconds.
const QUICK_SECONDS: f64 = 0.5;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark all | <workload> | probes | manifest  [--seed <n>] [--seconds <s>] [--quick] [--repeat <n>]";

struct Args {
    /// `Some` in driver mode.
    workload: Option<String>,
    trace: Option<bool>,
    command: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    repeat: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        trace: None,
        command: None,
        seed: DEFAULT_SEED,
        seconds: None,
        quick: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?.to_owned()),
            "--seed" => {
                let v = value("a whole number")?;
                parsed.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let seconds: f64 = v.parse().map_err(|_| bad(v))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(v));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--repeat" => {
                let v = value("a count")?;
                parsed.repeat = v.parse().map_err(|_| bad(v))?;
                if !(1..=20).contains(&parsed.repeat) {
                    return Err(bad(v));
                }
            }
            "--quick" => parsed.quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            command if parsed.command.is_none() => parsed.command = Some(command.to_owned()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    Ok(parsed)
}

fn print_table(result: &RunResult) {
    println!(
        "== {} ({}) — attempted {}, failed {}, correct {}",
        result.workload,
        if result.traced {
            "traced, per layer"
        } else {
            "untraced, end to end"
        },
        result.attempted,
        result.failed,
        result.correct()
    );
    for name in result.names() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or(String::new(), |m| {
                format!(
                    "  ({} is better, bound {}%)",
                    m.better.word(),
                    m.bound * 100.0
                )
            });
        let unit = report::unit_of(name).unwrap_or("");
        println!("  {name:<36} {:>16.4} {unit}{bound}", result.value(name));
    }
    for violation in &result.violations {
        println!("  VIOLATION: {violation}");
    }
}

/// Compares two sets of runs of one commit. End-to-end metrics must agree
/// within their bounds; what the simulator counts must agree exactly.
fn disagreements(first: &[RunResult], second: &[RunResult]) -> Vec<String> {
    const EXACT: [&str; 4] = [
        "workload.sim_locate_ms",
        "workload.sim_splits",
        "workload.sim_trackers",
        "sim.msgs_sent",
    ];
    let mut found = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.traced {
            for name in EXACT {
                if a.value(name) != b.value(name) {
                    found.push(format!(
                        "{} {name}: {} then {} (must be identical)",
                        a.workload,
                        a.value(name),
                        b.value(name)
                    ));
                }
            }
            continue;
        }
        for m in &END_TO_END {
            let (x, y) = (a.value(m.name), b.value(m.name));
            let worse = match m.better {
                Better::Higher => (x - y) / x,
                Better::Lower => (y - x) / x,
            };
            println!(
                "  {:<20} {:<18} {x:>14.4} {y:>14.4}  {:+6.1}% (bound {}%)",
                a.workload,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
            if worse.abs() > m.bound {
                found.push(format!(
                    "{} {}: {x} then {y}, {:.1}% apart (bound {}%)",
                    a.workload,
                    m.name,
                    worse.abs() * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }
    found
}

fn print_probes() {
    println!("== layer probes");
    let metrics = probes::run_probes();
    for m in PER_LAYER.iter() {
        if let Some(value) = metrics.get(m.name) {
            println!("  {:<36} {value:>16.4} {}", m.name, m.unit);
        }
    }
}

/// Runs one workload the way the acceptance driver does: in a process of
/// its own, so that peak memory, allocator state and thread placement are
/// those of a fresh start and the numbers compare with the driver's.
fn run_in_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let canonical = report::workload_named(workload)
        .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", canonical])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        child.arg("--quick");
    }
    // Standard error is inherited: violations show as they happen.
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {canonical}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    RunResult::from_json_line(canonical, traced, line).ok_or_else(|| {
        format!(
            "{canonical} ended with {} and no result line",
            output.status
        )
    })
}

fn human(args: &Args, command: &str) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        f64::from(RUN_SECONDS)
    });
    let names: Vec<&str> = match command {
        "manifest" => {
            print!("{}", report::manifest(RUN_SECONDS));
            return Ok(true);
        }
        "probes" => {
            print_probes();
            return Ok(true);
        }
        "all" => WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![one],
    };
    let mut ok = true;
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for set in 0..args.repeat {
        if args.repeat > 1 {
            println!("#### set {} of {}", set + 1, args.repeat);
        }
        let mut results = Vec::new();
        for name in &names {
            for traced in [false, true] {
                let result = run_in_child(name, args.seed, seconds, traced, args.quick)?;
                print_table(&result);
                ok &= result.correct();
                results.push(result);
            }
        }
        sets.push(results);
    }
    if args.quick {
        // The smoke runs skip the layer probes; take them once here.
        print_probes();
    }
    for pair in sets.windows(2) {
        println!("#### agreement of consecutive sets (workload, metric, first, second, worse by)");
        for problem in disagreements(&pair[0], &pair[1]) {
            println!("  DISAGREE: {problem}");
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, &args.command) {
        (Some(workload), None) => {
            let seconds = args.seconds.unwrap_or(f64::from(RUN_SECONDS));
            let traced = args.trace.unwrap_or(false);
            workloads::run(workload, args.seed, seconds, traced, args.quick).map(|result| {
                for violation in &result.violations {
                    eprintln!("violation: {violation}");
                }
                println!("{}", result.json_line());
                result.correct()
            })
        }
        (None, Some(command)) => human(&args, command),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Measured, but an answer was wrong or an invariant broken.
        Ok(false) => ExitCode::from(1),
        Err(problem) => {
            eprintln!("{problem}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Metrics;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&argv(
            "--workload sim_scale --seed 9 --seconds 15 --trace 1",
        ))
        .expect("valid");
        assert_eq!(args.workload.as_deref(), Some("sim_scale"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (9, Some(15.0), Some(true))
        );
        assert!(args.command.is_none() && !args.quick && args.repeat == 1);
        let args = parse(&argv("all --quick --repeat 2")).expect("valid");
        assert_eq!(args.command.as_deref(), Some("all"));
        assert!(args.quick && args.repeat == 2 && args.seed == DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--repeat 0",
            "--frobnicate",
            "all probes",
        ] {
            assert!(parse(&argv(line)).is_err(), "{line:?} should not parse");
        }
    }

    fn untraced(values: [f64; 5]) -> RunResult {
        let mut metrics = Metrics::default();
        for (m, v) in END_TO_END.iter().zip(values) {
            metrics.set(m.name, v);
        }
        RunResult {
            workload: "live_move_mix",
            traced: false,
            attempted: 1,
            failed: 0,
            violations: Vec::new(),
            metrics,
        }
    }

    #[test]
    fn repeated_sets_disagree_only_beyond_the_bound() {
        let base = [50_000.0, 200.0, 30.0, 100.0, 1.0];
        let close = [48_000.0, 205.0, 31.0, 101.0, 1.1];
        assert!(disagreements(&[untraced(base)], &[untraced(close)]).is_empty());
        // Throughput a third lower is beyond any bound; and so is a third
        // higher: two runs of one commit should not differ that much
        // either way.
        let slow = [33_000.0, 205.0, 31.0, 101.0, 1.1];
        let found = disagreements(&[untraced(base)], &[untraced(slow)]);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("locate_per_s"), "{found:?}");
        assert_eq!(disagreements(&[untraced(slow)], &[untraced(base)]).len(), 1);
    }

    #[test]
    fn simulated_counts_must_repeat_exactly() {
        let traced = |ms: f64| {
            let mut metrics = Metrics::default();
            metrics.set("workload.sim_locate_ms", ms);
            RunResult {
                workload: "sim_scale",
                traced: true,
                attempted: 1,
                failed: 0,
                violations: Vec::new(),
                metrics,
            }
        };
        assert!(disagreements(&[traced(4.6289)], &[traced(4.6289)]).is_empty());
        assert_eq!(disagreements(&[traced(4.6289)], &[traced(4.6290)]).len(), 1);
    }
}
