//! A mobile-agent marketplace: the paper's motivating workload, built
//! directly on the platform API.
//!
//! A buyer launches *shopper* agents that roam vendor nodes collecting
//! price quotes (mobile agents as "an efficient, asynchronous method for
//! searching for information"). While they roam, the buyer uses the
//! hash-based location mechanism to find each shopper and ask it for its
//! best quote so far — locate, then talk.
//!
//! Demonstrates: writing custom [`Agent`] behaviours, embedding a
//! [`DirectoryClient`] for registration/updates/locates, and recovering
//! when a located agent has already moved on (the reply bounces and the
//! buyer simply re-locates).
//!
//! ```text
//! cargo run --example marketplace
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use agentrack::core::{ClientEvent, DirectoryClient, HashedScheme, LocationConfig, LocationScheme};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{DurationDist, SimDuration, Topology};
use serde::{Deserialize, Serialize};

const NODES: u32 = 12;
const SHOPPERS: usize = 8;

#[derive(Serialize, Deserialize, Clone, Debug)]
enum Market {
    /// Buyer → shopper: "what is your best quote so far?"
    QuoteRequest { reply_node: NodeId },
    /// Shopper → buyer.
    QuoteReply {
        shopper: AgentId,
        best: u64,
        visited: u32,
    },
}

/// A shopper roams vendor nodes; each node quotes a pseudo-random price.
struct Shopper {
    client: Box<dyn DirectoryClient>,
    best: u64,
    visited: u32,
}

impl Shopper {
    fn take_quote(&mut self, ctx: &mut AgentCtx<'_>) {
        // The "vendor" at this node quotes a price.
        let quote = 50 + ctx.rng().index(100) as u64;
        self.best = self.best.min(quote);
        self.visited += 1;
    }
}

impl Agent for Shopper {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
        self.take_quote(ctx);
        ctx.set_timer(SimDuration::from_millis(400));
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.moved(ctx);
        self.take_quote(ctx);
        ctx.set_timer(SimDuration::from_millis(400));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.client.on_timer(ctx, timer) == ClientEvent::NotMine {
            // Residence over: move to the next vendor.
            let next = NodeId::new(ctx.rng().index(NODES as usize) as u32);
            if next == ctx.node() {
                ctx.set_timer(SimDuration::from_millis(400));
            } else {
                ctx.dispatch(next);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if self.client.on_message(ctx, from, payload) != ClientEvent::NotMine {
            return;
        }
        if let Ok(Market::QuoteRequest { reply_node }) = payload.decode() {
            let me = ctx.self_id();
            ctx.send(
                from,
                reply_node,
                Payload::encode(&Market::QuoteReply {
                    shopper: me,
                    best: self.best,
                    visited: self.visited,
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

type Quotes = Arc<Mutex<HashMap<AgentId, (u64, u32)>>>;

/// The buyer: locates each shopper every second and asks for its quote.
struct Buyer {
    client: Box<dyn DirectoryClient>,
    shoppers: Vec<AgentId>,
    quotes: Quotes,
    next_token: u64,
    poll_timer: Option<TimerId>,
    locates_sent: Arc<Mutex<u64>>,
    bounced: Arc<Mutex<u64>>,
}

impl Buyer {
    fn poll(&mut self, ctx: &mut AgentCtx<'_>) {
        for i in 0..self.shoppers.len() {
            let target = self.shoppers[i];
            let token = self.next_token;
            self.next_token += 1;
            *self.locates_sent.lock().unwrap() += 1;
            self.client.locate(ctx, target, token);
        }
        self.poll_timer = Some(ctx.set_timer(SimDuration::from_secs(1)));
    }
}

impl Agent for Buyer {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        // Give shoppers a moment to register before the first poll.
        self.poll_timer = Some(ctx.set_timer(SimDuration::from_secs(1)));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.poll_timer == Some(timer) {
            self.poll(ctx);
            return;
        }
        let _ = self.client.on_timer(ctx, timer);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        match self.client.on_message(ctx, from, payload) {
            ClientEvent::Located { target, node, .. } => {
                // Phase 2 of "communicate with a mobile agent": we know
                // where it is, now talk to it.
                let here = ctx.node();
                ctx.send(
                    target,
                    node,
                    Payload::encode(&Market::QuoteRequest { reply_node: here }),
                );
            }
            ClientEvent::NotMine => {
                if let Ok(Market::QuoteReply {
                    shopper,
                    best,
                    visited,
                }) = payload.decode()
                {
                    self.quotes.lock().unwrap().insert(shopper, (best, visited));
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
        if self.client.on_delivery_failed(ctx, to, node, payload) == ClientEvent::NotMine {
            // Our QuoteRequest chased a shopper that moved between the
            // locate answer and the delivery. Count it; the next poll
            // re-locates.
            *self.bounced.lock().unwrap() += 1;
        }
    }
}

fn main() {
    let topology = Topology::lan(NODES, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(11));
    let mut scheme = HashedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    let shoppers: Vec<AgentId> = (0..SHOPPERS)
        .map(|i| {
            platform.spawn(
                Box::new(Shopper {
                    client: scheme.make_client(),
                    best: u64::MAX,
                    visited: 0,
                }),
                NodeId::new(i as u32 % NODES),
            )
        })
        .collect();

    let quotes: Quotes = Arc::default();
    let locates_sent = Arc::new(Mutex::new(0u64));
    let bounced = Arc::new(Mutex::new(0u64));
    platform.spawn(
        Box::new(Buyer {
            client: scheme.make_client(),
            shoppers: shoppers.clone(),
            quotes: quotes.clone(),
            next_token: 0,
            poll_timer: None,
            locates_sent: locates_sent.clone(),
            bounced: bounced.clone(),
        }),
        NodeId::new(0),
    );

    platform.run_for(SimDuration::from_secs(20));

    println!("marketplace after 20 simulated seconds");
    println!("  locate operations : {}", locates_sent.lock().unwrap());
    println!(
        "  chased-and-missed : {} (shopper moved; re-located next poll)",
        bounced.lock().unwrap()
    );
    let quotes = quotes.lock().unwrap();
    for shopper in &shoppers {
        match quotes.get(shopper) {
            Some((best, visited)) => {
                println!("  {shopper}: best quote {best} after {visited} vendors")
            }
            None => println!("  {shopper}: no quote reported yet"),
        }
    }
    assert!(
        quotes.len() >= SHOPPERS - 1,
        "nearly every shopper should have reported"
    );
    println!("  (tracked by {} IAgents)", scheme.stats().trackers);
}
