//! Fault-tolerance tests: crashing the HAgent (the paper's acknowledged
//! "vulnerability point") with and without the standby extension.

use agentrack::core::{HashedScheme, LocationConfig, LocationScheme};
use agentrack::platform::NodeId;
use agentrack::platform::{PlatformConfig, SimPlatform};
use agentrack::sim::{DurationDist, SimDuration, Topology};
use agentrack::workload::{
    Metrics, NodeSelector, QuerierBehavior, RunOptions, Scenario, TAgentBehavior, TargetSelector,
    Targets,
};

/// Builds a running system with TAgents and returns everything needed to
/// continue driving it by hand.
fn build(
    scheme: &mut HashedScheme,
    agents: usize,
) -> (SimPlatform, Metrics, Vec<agentrack::platform::AgentId>) {
    let topology = Topology::lan(8, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(21));
    scheme.bootstrap(&mut platform);
    let metrics = Metrics::new();
    let mut tagents = Vec::new();
    for i in 0..agents {
        let behavior = TAgentBehavior::new(
            scheme.make_client(),
            DurationDist::Constant(SimDuration::from_millis(400)),
            NodeSelector::Uniform,
            8,
            metrics.clone(),
        );
        tagents.push(platform.spawn(Box::new(behavior), NodeId::new((i % 8) as u32)));
    }
    (platform, metrics, tagents)
}

fn add_querier(
    platform: &mut SimPlatform,
    scheme: &HashedScheme,
    targets: Vec<agentrack::platform::AgentId>,
    start_s: f64,
    count: u64,
    metrics: &Metrics,
) {
    let behavior = QuerierBehavior::new(
        scheme.make_client(),
        Targets::Fixed(targets),
        TargetSelector::Uniform,
        SimDuration::from_secs_f64(start_s),
        DurationDist::Constant(SimDuration::from_millis(100)),
        count,
        metrics.clone(),
    );
    platform.spawn(Box::new(behavior), NodeId::new(0));
}

/// With a standby deployed, killing the primary HAgent leaves the system
/// serving: stale copies still refresh (via the standby), locates keep
/// completing, and rehashing freezes rather than wedging anything.
#[test]
fn standby_keeps_the_system_serving_after_the_primary_dies() {
    let mut scheme = HashedScheme::new(LocationConfig::default()).with_standby();
    let (mut platform, metrics, tagents) = build(&mut scheme, 60);

    // Let the system settle and grow a few IAgents.
    platform.run_for(SimDuration::from_secs(10));
    let before = scheme.stats();
    assert!(before.splits > 0, "load should have split the tree");

    // Crash the primary.
    let (hagent, _) = scheme.hagent().expect("bootstrapped");
    assert!(platform.kill(hagent));

    // Keep the world moving and query it.
    add_querier(&mut platform, &scheme, tagents, 2.0, 60, &metrics);
    platform.run_for(SimDuration::from_secs(15));

    metrics.with(|m| {
        assert!(
            m.locate_times.len() >= 55,
            "locates must keep completing after the crash: {} answered, {} failed",
            m.locate_times.len(),
            m.locate_failures
        );
    });
    // Rehashing is frozen: the tracker count cannot have grown since the
    // crash (the standby denies splits).
    assert_eq!(scheme.stats().trackers, before.trackers);
}

/// Without a standby the system still *serves* from existing copies — the
/// paper's design keeps the HAgent off the fast path — but staleness can
/// no longer be repaired.
#[test]
fn without_standby_existing_copies_still_serve() {
    let mut scheme = HashedScheme::new(LocationConfig::default());
    let (mut platform, metrics, tagents) = build(&mut scheme, 40);
    platform.run_for(SimDuration::from_secs(10));

    // By now the tree is in steady state and every lazily-propagated
    // LHAgent copy has caught up, so killing the HAgent here would leave
    // nothing stale. Drive the system back into growth with a burst of
    // fast-moving agents (kept off node 0, where the querier will live)
    // and crash the HAgent the instant the next split lands: the new
    // version reaches the involved IAgents, but node 0's copy — lazy
    // propagation, no traffic at node 0 — is stale at crash time and can
    // never be repaired afterwards.
    for i in 0..24u32 {
        let behavior = TAgentBehavior::new(
            scheme.make_client(),
            DurationDist::Constant(SimDuration::from_millis(100)),
            NodeSelector::Uniform,
            8,
            metrics.clone(),
        );
        platform.spawn(Box::new(behavior), NodeId::new(1 + (i % 7)));
    }
    let splits_before = scheme.stats().splits;
    let mut waited = 0u32;
    while scheme.stats().splits == splits_before {
        platform.run_for(SimDuration::from_millis(10));
        waited += 1;
        assert!(waited < 2_000, "burst load never split the tree");
    }

    let (hagent, _) = scheme.hagent().expect("bootstrapped");
    assert!(platform.kill(hagent));

    add_querier(&mut platform, &scheme, tagents, 2.0, 40, &metrics);
    platform.run_for(SimDuration::from_secs(15));

    metrics.with(|m| {
        // Locates that resolve through still-fresh copies keep working —
        // the HAgent is off the fast path. But copies that were stale at
        // crash time can never be repaired, so a minority of locates fail:
        // exactly the vulnerability the paper names (and the standby
        // extension removes; compare the test above).
        assert!(
            m.locate_times.len() >= 25,
            "most locates still complete: {} answered",
            m.locate_times.len()
        );
        assert!(
            m.locate_failures > 0,
            "unrepairable staleness must surface as failures"
        );
    });
}

/// The standby deployment does not change scenario-level behaviour when
/// nothing fails.
#[test]
fn standby_is_transparent_when_healthy() {
    let scenario = Scenario::new("standby-healthy")
        .with_agents(60)
        .with_queries(100)
        .with_seconds(10.0, 5.0);
    let plain = scenario
        .run_with(
            &mut HashedScheme::new(LocationConfig::default()),
            RunOptions::new(),
        )
        .report;
    let with_standby = scenario
        .run_with(
            &mut HashedScheme::new(LocationConfig::default()).with_standby(),
            RunOptions::new(),
        )
        .report;
    assert_eq!(plain.locate_failures, 0);
    assert_eq!(with_standby.locate_failures, 0);
    assert!((plain.mean_locate_ms - with_standby.mean_locate_ms).abs() < 2.0);
}
