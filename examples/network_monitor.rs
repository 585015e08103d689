//! A patrol-and-report monitoring fleet on a lossy network.
//!
//! Probe agents patrol the LAN measuring "health" at each node; an
//! operator console periodically locates every probe and collects its
//! latest readings. The network drops 2% of messages, so every layer —
//! the location mechanism's retries and the console's re-polling — has to
//! tolerate loss. This is the paper's "intermittent connectivity" use case.
//!
//! ```text
//! cargo run --example network_monitor
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use agentrack::core::{ClientEvent, DirectoryClient, HashedScheme, LocationConfig, LocationScheme};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{DurationDist, SimDuration, Topology};
use serde::{Deserialize, Serialize};

const NODES: u32 = 10;
const PROBES: usize = 6;

#[derive(Serialize, Deserialize, Clone)]
enum Monitor {
    ReadingsRequest {
        reply_node: NodeId,
    },
    Readings {
        probe: AgentId,
        samples: Vec<(u32, u32)>,
    },
}

/// Patrols nodes in a fixed ring, sampling per-node "health".
struct Probe {
    client: Box<dyn DirectoryClient>,
    samples: Vec<(u32, u32)>,
}

impl Probe {
    fn sample(&mut self, ctx: &mut AgentCtx<'_>) {
        let health = 90 + ctx.rng().index(10) as u32;
        let node = ctx.node().raw();
        self.samples.push((node, health));
        if self.samples.len() > 32 {
            self.samples.remove(0);
        }
    }
}

impl Agent for Probe {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
        self.sample(ctx);
        ctx.set_timer(SimDuration::from_millis(600));
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.moved(ctx);
        self.sample(ctx);
        ctx.set_timer(SimDuration::from_millis(600));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.client.on_timer(ctx, timer) == ClientEvent::NotMine {
            let next = NodeId::new((ctx.node().raw() + 1) % NODES); // ring patrol
            ctx.dispatch(next);
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if self.client.on_message(ctx, from, payload) != ClientEvent::NotMine {
            return;
        }
        if let Ok(Monitor::ReadingsRequest { reply_node }) = payload.decode() {
            let me = ctx.self_id();
            ctx.send(
                from,
                reply_node,
                Payload::encode(&Monitor::Readings {
                    probe: me,
                    samples: self.samples.clone(),
                }),
            );
        }
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let _ = self.client.on_delivery_failed(ctx, to, node, payload);
    }
}

type Board = Arc<Mutex<BTreeMap<AgentId, usize>>>;

/// The operator console: locate every probe, pull its readings.
struct Console {
    client: Box<dyn DirectoryClient>,
    probes: Vec<AgentId>,
    board: Board,
    next_token: u64,
    poll_timer: Option<TimerId>,
}

impl Agent for Console {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.poll_timer = Some(ctx.set_timer(SimDuration::from_secs(2)));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.poll_timer == Some(timer) {
            for i in 0..self.probes.len() {
                let target = self.probes[i];
                let token = self.next_token;
                self.next_token += 1;
                self.client.locate(ctx, target, token);
            }
            self.poll_timer = Some(ctx.set_timer(SimDuration::from_secs(2)));
            return;
        }
        let _ = self.client.on_timer(ctx, timer);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        match self.client.on_message(ctx, from, payload) {
            ClientEvent::Located { target, node, .. } => {
                let here = ctx.node();
                ctx.send(
                    target,
                    node,
                    Payload::encode(&Monitor::ReadingsRequest { reply_node: here }),
                );
            }
            ClientEvent::NotMine => {
                if let Ok(Monitor::Readings { probe, samples }) = payload.decode() {
                    self.board.lock().unwrap().insert(probe, samples.len());
                }
            }
            _ => {}
        }
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        // Lost chase: the next poll re-locates. The location mechanism's
        // own retries are handled inside the client.
        let _ = self.client.on_delivery_failed(ctx, to, node, payload);
    }
}

fn main() {
    // 2% message loss: monitoring must survive it.
    let topology =
        Topology::lan(NODES, DurationDist::Constant(SimDuration::from_micros(300))).with_loss(0.02);
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(5));
    let mut scheme = HashedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    let probes: Vec<AgentId> = (0..PROBES)
        .map(|i| {
            platform.spawn(
                Box::new(Probe {
                    client: scheme.make_client(),
                    samples: Vec::new(),
                }),
                NodeId::new(i as u32 % NODES),
            )
        })
        .collect();

    let board: Board = Arc::default();
    platform.spawn(
        Box::new(Console {
            client: scheme.make_client(),
            probes: probes.clone(),
            board: board.clone(),
            next_token: 0,
            poll_timer: None,
        }),
        NodeId::new(0),
    );

    platform.run_for(SimDuration::from_secs(30));

    let stats = platform.stats();
    println!("network monitor after 30 simulated seconds (2% loss)");
    println!(
        "  messages: {} sent, {} lost in flight, {} bounced",
        stats.messages_sent, stats.messages_lost, stats.messages_failed
    );
    let board = board.lock().unwrap();
    for probe in &probes {
        match board.get(probe) {
            Some(n) => println!("  {probe}: reporting, {n} readings in the last window"),
            None => println!("  {probe}: NO REPORT"),
        }
    }
    assert!(stats.messages_lost > 0, "loss injection should have bitten");
    assert!(
        board.len() >= PROBES - 1,
        "monitoring must survive message loss"
    );
}
