//! Regression locks on the paper's headline results, at quick fidelity.
//!
//! These tests assert the *shapes* of the reproduced figures — who wins,
//! what grows, what stays flat — so a change that silently breaks the
//! reproduction fails CI. The full-fidelity numbers live in
//! `EXPERIMENTS.md` and regenerate with `cargo run -p agentrack-bench
//! --bin scenario_lab --release -- exp1 exp2`.

use agentrack::core::{CentralizedScheme, HashedScheme, LocationConfig};
use agentrack::workload::{RunOptions, Scenario};

fn scenario(agents: usize, residence_ms: u64) -> Scenario {
    Scenario::new(format!("shape-{agents}-{residence_ms}"))
        .with_agents(agents)
        .with_residence_ms(residence_ms)
        .with_queries(150)
        .with_seconds(12.0, 6.0)
}

fn run_hashed(s: &Scenario) -> agentrack::workload::ScenarioReport {
    s.run_with(
        &mut HashedScheme::new(LocationConfig::default()),
        RunOptions::new(),
    )
    .report
}

fn run_centralized(s: &Scenario) -> agentrack::workload::ScenarioReport {
    let config = LocationConfig {
        max_locate_attempts: 20,
        ..LocationConfig::default()
    };
    s.run_with(&mut CentralizedScheme::new(config), RunOptions::new())
        .report
}

/// Figure 7's shape: growing the population degrades the centralized
/// scheme but not the hash-based one.
#[test]
fn population_growth_hurts_centralized_not_hashed() {
    // 60 agents at 150 ms residence ≈ 400 upd/s; 300 agents ≈ 2000 upd/s —
    // past one tracker's capacity, far below the hashed scheme's aggregate.
    let light = scenario(60, 150);
    let heavy = scenario(300, 150);

    let cen_light = run_centralized(&light);
    let cen_heavy = run_centralized(&heavy);
    assert!(
        cen_heavy.mean_locate_ms > cen_light.mean_locate_ms * 5.0,
        "centralized must degrade: {:.2} -> {:.2} ms",
        cen_light.mean_locate_ms,
        cen_heavy.mean_locate_ms
    );

    let hash_light = run_hashed(&light);
    let hash_heavy = run_hashed(&heavy);
    assert!(
        hash_heavy.mean_locate_ms < hash_light.mean_locate_ms * 2.0,
        "hashed must stay near-constant: {:.2} -> {:.2} ms",
        hash_light.mean_locate_ms,
        hash_heavy.mean_locate_ms
    );
    assert!(
        hash_heavy.trackers > hash_light.trackers,
        "the flat latency must come from tree growth"
    );
    // And at the heavy point, the paper's comparison: ours wins big.
    assert!(hash_heavy.mean_locate_ms * 10.0 < cen_heavy.mean_locate_ms);
}

/// Figure 8's shape: increasing mobility (shorter residence) degrades the
/// centralized scheme; the hash-based one stays flat.
#[test]
fn mobility_growth_hurts_centralized_not_hashed() {
    let slow = scenario(150, 1000);
    let fast = scenario(150, 100); // 1500 upd/s

    let cen_slow = run_centralized(&slow);
    let cen_fast = run_centralized(&fast);
    assert!(
        cen_fast.mean_locate_ms > cen_slow.mean_locate_ms * 5.0,
        "centralized must degrade with mobility: {:.2} -> {:.2} ms",
        cen_slow.mean_locate_ms,
        cen_fast.mean_locate_ms
    );

    let hash_slow = run_hashed(&slow);
    let hash_fast = run_hashed(&fast);
    assert!(
        hash_fast.mean_locate_ms < hash_slow.mean_locate_ms * 2.0,
        "hashed must stay near-constant: {:.2} -> {:.2} ms",
        hash_slow.mean_locate_ms,
        hash_fast.mean_locate_ms
    );
    assert!(hash_fast.mean_locate_ms < cen_fast.mean_locate_ms);
}

/// The paper's §4.1 motivation for complex splits: using the unused label
/// bits yields more balanced trees — shorter prefixes — than simple-only
/// splitting.
#[test]
fn complex_splits_shorten_prefixes() {
    let s = scenario(250, 150);
    let complex = s
        .run_with(
            &mut HashedScheme::new(LocationConfig::default()),
            RunOptions::new(),
        )
        .report;
    let simple = s
        .run_with(
            &mut HashedScheme::new(LocationConfig::default().simple_splits_only()),
            RunOptions::new(),
        )
        .report;
    // Merges create multi-bit labels; complex splits reuse those bits,
    // simple-only splitting keeps extending the prefix instead.
    assert!(
        complex.mean_prefix_bits <= simple.mean_prefix_bits,
        "complex-first: {:.2} bits, simple-only: {:.2} bits",
        complex.mean_prefix_bits,
        simple.mean_prefix_bits
    );
}

/// Lazy propagation works: secondary copies go stale and recover on
/// demand, without the eager fan-out traffic.
#[test]
fn lazy_propagation_repairs_staleness_on_demand() {
    let s = scenario(200, 200);
    let lazy = s
        .run_with(
            &mut HashedScheme::new(LocationConfig::default()),
            RunOptions::new(),
        )
        .report;
    assert!(lazy.stale_hits > 0);
    assert!(lazy.hf_fetches > 0);
    assert_eq!(lazy.locate_failures, 0);

    let eager = s
        .run_with(
            &mut HashedScheme::new(LocationConfig::default().with_eager_propagation()),
            RunOptions::new(),
        )
        .report;
    assert!(
        eager.stale_hits < lazy.stale_hits,
        "eager push must reduce stale hits: {} vs {}",
        eager.stale_hits,
        lazy.stale_hits
    );
}
