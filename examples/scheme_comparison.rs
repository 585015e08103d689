//! Side-by-side comparison of all four location schemes on one workload.
//!
//! Runs the same population / mobility / query mix against the paper's
//! hash-based mechanism, the centralized baseline it was evaluated
//! against, and the two related-work schemes (Ajanta-style home
//! registries, Voyager-style forwarding pointers), then prints a summary
//! — and, for each scheme, the critical-path breakdown of its *slowest*
//! locate, reconstructed from the trace ring as a causal span tree.
//!
//! ```text
//! cargo run --release --example scheme_comparison [--export DIR]
//! ```
//!
//! With `--export DIR`, also writes a Chrome/Perfetto trace
//! (`<scheme>.perfetto.json`, open in <https://ui.perfetto.dev>) and a
//! folded-stack flamegraph (`<scheme>.folded`, feed to `flamegraph.pl`
//! or speedscope) per scheme.

use agentrack::core::{
    CentralizedScheme, ForwardingScheme, HashedScheme, HomeRegistryScheme, LocationConfig,
};
use agentrack::sim::TraceSink;
use agentrack::trace_analysis::{build_spans, to_folded, to_perfetto_json, Phase, SpanTree};
use agentrack::workload::{RunOptions, Scenario, ScenarioReport};

fn run(name: &str, scenario: &Scenario) -> (ScenarioReport, Vec<SpanTree>) {
    let config = LocationConfig::default();
    let sink = TraceSink::bounded(262_144);
    let out = match name {
        "hashed" => scenario.run_with(
            &mut HashedScheme::new(config),
            RunOptions::new().with_sink(sink.clone()),
        ),
        "centralized" => scenario.run_with(
            &mut CentralizedScheme::new(config),
            RunOptions::new().with_sink(sink.clone()),
        ),
        "home-registry" => scenario.run_with(
            &mut HomeRegistryScheme::new(config),
            RunOptions::new().with_sink(sink.clone()),
        ),
        "forwarding" => scenario.run_with(
            &mut ForwardingScheme::new(config),
            RunOptions::new().with_sink(sink.clone()),
        ),
        _ => unreachable!(),
    };
    let trees = build_spans(&sink.snapshot())
        .into_iter()
        .filter(|t| !t.duration().is_zero())
        .collect();
    (out.report, trees)
}

fn main() {
    let mut export_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--export" => export_dir = args.next().map(std::path::PathBuf::from),
            other => {
                eprintln!("unknown argument {other:?} (only --export DIR is supported)");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = &export_dir {
        std::fs::create_dir_all(dir).expect("create export dir");
    }

    // A hot workload: 250 agents hopping every 250 ms (≈ 1000 updates/s —
    // about one tracker's entire capacity), 400 queries.
    let scenario = Scenario::new("comparison")
        .with_agents(250)
        .with_residence_ms(250)
        .with_queries(400)
        .with_seconds(15.0, 8.0);

    println!(
        "{:>14}  {:>9}  {:>8}  {:>8}  {:>9}  {:>8}",
        "scheme", "mean(ms)", "p95(ms)", "answered", "trackers", "failures"
    );
    let mut slowest_per_scheme = Vec::new();
    for name in ["hashed", "centralized", "home-registry", "forwarding"] {
        let (r, trees) = run(name, &scenario);
        println!(
            "{:>14}  {:>9.2}  {:>8.2}  {:>8}  {:>9}  {:>8}",
            r.scheme,
            r.mean_locate_ms,
            r.p95_locate_ms,
            r.locates_completed,
            r.trackers,
            r.locate_failures,
        );
        if let Some(worst) = trees
            .iter()
            .max_by_key(|t| (t.duration(), std::cmp::Reverse(t.corr)))
        {
            slowest_per_scheme.push((name, worst.breakdown()));
        }
        if let Some(dir) = &export_dir {
            std::fs::write(
                dir.join(format!("{name}.perfetto.json")),
                to_perfetto_json(&trees),
            )
            .expect("write perfetto trace");
            std::fs::write(dir.join(format!("{name}.folded")), to_folded(&trees, name))
                .expect("write folded stacks");
        }
    }

    println!();
    println!("slowest locate per scheme, phase by phase:");
    for (name, breakdown) in &slowest_per_scheme {
        println!();
        println!(
            "-- {name}: locate {}, {:.3} ms end-to-end --",
            breakdown.corr,
            breakdown.total.as_millis_f64()
        );
        for phase in Phase::ALL {
            let spent = breakdown.of(phase);
            if !spent.is_zero() {
                println!("  {:>10.3} ms  {phase}", spent.as_millis_f64());
            }
        }
    }
    if let Some(dir) = &export_dir {
        println!();
        println!(
            "wrote per-scheme Perfetto traces and folded stacks to {}",
            dir.display()
        );
    }

    println!();
    println!("what to look for:");
    println!("  * hashed      — flat latency; tracker count adapted to the load");
    println!("  * centralized — one tracker at ~100% utilisation: queueing blows up");
    println!("  * home-reg.   — fast, but only works when names encode the home node");
    println!("  * forwarding  — pointer chains grow with mobility; latency drifts up");
    println!("  * the breakdowns name the culprit: queue_wait for the saturated");
    println!("    central tracker, chain_traversal for long forwarding chains,");
    println!("    retry_backoff wherever answers outlived the client's patience");
}
