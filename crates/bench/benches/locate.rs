//! End-to-end benches: full locate operations through the simulated
//! platform, per scheme, plus raw event throughput.
//!
//! These measure *simulator* performance (events per wall-clock second),
//! complementing the `repro` binary which measures *virtual-time* location
//! latencies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use agentrack_core::{
    CentralizedScheme, ForwardingScheme, HashedScheme, HomeRegistryScheme, LocationConfig,
};
use agentrack_workload::{RunOptions, Scenario};

fn mini_scenario(seed: u64) -> Scenario {
    Scenario::new("bench")
        .with_agents(20)
        .with_queries(50)
        .with_seconds(4.0, 2.0)
        .with_seed(seed)
}

fn bench_scenario_per_scheme(c: &mut Criterion) {
    let mut group = c.benchmark_group("locate/mini_scenario");
    group.sample_size(10);
    for kind in ["hashed", "centralized", "home-registry", "forwarding"] {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, kind| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let scenario = mini_scenario(seed);
                let report = match *kind {
                    "hashed" => {
                        scenario
                            .run_with(
                                &mut HashedScheme::new(LocationConfig::default()),
                                RunOptions::new(),
                            )
                            .report
                    }
                    "centralized" => {
                        scenario
                            .run_with(
                                &mut CentralizedScheme::new(LocationConfig::default()),
                                RunOptions::new(),
                            )
                            .report
                    }
                    "home-registry" => {
                        scenario
                            .run_with(
                                &mut HomeRegistryScheme::new(LocationConfig::default()),
                                RunOptions::new(),
                            )
                            .report
                    }
                    "forwarding" => {
                        scenario
                            .run_with(
                                &mut ForwardingScheme::new(LocationConfig::default()),
                                RunOptions::new(),
                            )
                            .report
                    }
                    _ => unreachable!(),
                };
                assert!(report.locates_completed > 0);
                report
            });
        });
    }
    group.finish();
}

fn bench_event_throughput(c: &mut Criterion) {
    use agentrack_platform::{
        Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform,
    };
    use agentrack_sim::{DurationDist, SimDuration, Topology};

    /// Two agents bouncing one message back and forth forever.
    struct PingPonger {
        peer: Option<(AgentId, NodeId)>,
    }
    impl Agent for PingPonger {
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
            let peer = self.peer.map_or((from, NodeId::new(0)), |p| p);
            ctx.send(peer.0, peer.1, payload.clone());
        }
    }

    c.bench_function("locate/platform_event_throughput", |b| {
        b.iter_custom(|iters| {
            let topo = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(100)));
            let mut p = SimPlatform::new(topo, PlatformConfig::default());
            let a = p.spawn(Box::new(PingPonger { peer: None }), NodeId::new(0));
            let b_ = p.spawn(
                Box::new(PingPonger {
                    peer: Some((a, NodeId::new(0))),
                }),
                NodeId::new(1),
            );
            // Kick off: make `a` know its peer and start the rally.
            struct Kicker {
                to: (AgentId, NodeId),
            }
            impl Agent for Kicker {
                fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
                    ctx.send(self.to.0, self.to.1, Payload::encode(&"serve"));
                    ctx.dispose();
                }
            }
            p.spawn(
                Box::new(Kicker {
                    to: (b_, NodeId::new(1)),
                }),
                NodeId::new(0),
            );
            let start = std::time::Instant::now();
            for _ in 0..iters {
                if !p.step() {
                    break;
                }
            }
            start.elapsed()
        });
    });
}

criterion_group!(benches, bench_scenario_per_scheme, bench_event_throughput);
criterion_main!(benches);
