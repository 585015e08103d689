//! TAgents: the tracked mobile agents of the paper's experiments.
//!
//! A TAgent registers with the location scheme on creation, then roams:
//! it stays at each node for a sampled *residence time*, migrates to a
//! next node chosen by its mobility model, and reports each arrival to its
//! tracker ("each time A moves, it informs its IAgent about its new
//! location").

use agentrack_core::{ClientEvent, ClientFactory, DirectoryClient};
use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::{DurationDist, Zipf};

use crate::metrics::Metrics;
use crate::population::Population;

/// Churn parameters: how long a TAgent lives, and how its successor is
/// equipped. A dying agent deregisters, leaves the roster, and spawns a
/// replacement at a random node — keeping the population size steady while
/// its membership turns over, the "open system" dynamic of the paper's
/// introduction.
#[derive(Clone)]
pub struct Lifecycle {
    /// Lifespan distribution, sampled per agent.
    pub lifespan: DurationDist,
    /// Constructor for the successor's directory client.
    pub factory: ClientFactory,
    /// The shared roster of live agents.
    pub population: Population,
}

impl std::fmt::Debug for Lifecycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lifecycle")
            .field("lifespan", &self.lifespan)
            .field("population", &self.population.len())
            .finish_non_exhaustive()
    }
}

/// How a TAgent picks its next node.
#[derive(Debug, Clone)]
pub enum NodeSelector {
    /// Uniformly random among all nodes (the paper's implicit model).
    Uniform,
    /// Zipf-skewed node popularity (extension experiment E6).
    Zipf(Zipf),
}

impl NodeSelector {
    /// Builds a selector: uniform, or Zipf when a skew is given.
    #[must_use]
    pub fn new(node_count: u32, skew: Option<f64>) -> Self {
        match skew {
            Some(s) if s > 0.0 => NodeSelector::Zipf(Zipf::new(node_count as usize, s)),
            _ => NodeSelector::Uniform,
        }
    }

    fn pick(&self, ctx: &mut AgentCtx<'_>, node_count: u32) -> NodeId {
        match self {
            NodeSelector::Uniform => NodeId::new(ctx.rng().index(node_count as usize) as u32),
            NodeSelector::Zipf(zipf) => {
                let rng = ctx.rng();
                NodeId::new(zipf.sample(rng) as u32)
            }
        }
    }
}

/// Behaviour of a tracked mobile agent.
pub struct TAgentBehavior {
    client: Box<dyn DirectoryClient>,
    residence: DurationDist,
    selector: NodeSelector,
    node_count: u32,
    metrics: Metrics,
    residence_timer: Option<TimerId>,
    lifecycle: Option<Lifecycle>,
    death_timer: Option<TimerId>,
}

impl TAgentBehavior {
    /// Creates a TAgent with the given scheme client and mobility model.
    #[must_use]
    pub fn new(
        client: Box<dyn DirectoryClient>,
        residence: DurationDist,
        selector: NodeSelector,
        node_count: u32,
        metrics: Metrics,
    ) -> Self {
        TAgentBehavior {
            client,
            residence,
            selector,
            node_count,
            metrics,
            residence_timer: None,
            lifecycle: None,
            death_timer: None,
        }
    }

    /// Gives the TAgent a finite lifespan; it will deregister, die, and
    /// spawn a successor.
    #[must_use]
    pub fn with_lifecycle(mut self, lifecycle: Lifecycle) -> Self {
        self.lifecycle = Some(lifecycle);
        self
    }

    /// Dies: deregister, leave the roster, spawn the successor, dispose.
    /// The successor is on the population's snapshot from here on, so a
    /// run that ends before its `on_create` still audits it.
    fn die(&mut self, ctx: &mut AgentCtx<'_>) {
        let lifecycle = self.lifecycle.clone().expect("death without lifecycle");
        self.client.deregister(ctx);
        let me = ctx.self_id();
        let population = lifecycle.population.clone();
        population.remove(me);
        self.metrics.record_death();

        let successor = TAgentBehavior::new(
            (lifecycle.factory)(),
            self.residence,
            self.selector.clone(),
            self.node_count,
            self.metrics.clone(),
        )
        .with_lifecycle(lifecycle);
        let node = NodeId::new(ctx.rng().index(self.node_count as usize) as u32);
        population.add_creating(ctx.create_agent(Box::new(successor), node));
        ctx.dispose();
    }

    fn schedule_move(&mut self, ctx: &mut AgentCtx<'_>) {
        let stay = ctx.rng().sample(&self.residence);
        self.residence_timer = Some(ctx.set_timer(stay));
    }
}

impl Agent for TAgentBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
        self.schedule_move(ctx);
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.population.add(ctx.self_id());
            self.metrics.record_birth();
            let span = ctx.rng().sample(&lifecycle.lifespan);
            self.death_timer = Some(ctx.set_timer(span));
        }
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.metrics.record_move();
        self.client.moved(ctx);
        self.schedule_move(ctx);
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, _lost_soft_state: bool) {
        // The node came back: all pre-crash timers are void, so restart
        // the residence clock (and lifespan, re-sampled — the original
        // deadline died with its timer), and let the client re-announce
        // this agent to whatever tracker state survived.
        self.client.restarted(ctx);
        self.schedule_move(ctx);
        if let Some(lifecycle) = &self.lifecycle {
            let span = ctx.rng().sample(&lifecycle.lifespan);
            self.death_timer = Some(ctx.set_timer(span));
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.death_timer == Some(timer) {
            // A frozen population (the post-quiesce audit) suspends churn:
            // the deadline lapses and the agent lives on.
            let frozen = self
                .lifecycle
                .as_ref()
                .is_some_and(|l| l.population.is_frozen());
            if !frozen {
                self.die(ctx);
            }
            return;
        }
        if self.residence_timer == Some(timer) {
            self.residence_timer = None;
            let next = self.selector.pick(ctx, self.node_count);
            if next == ctx.node() {
                // Staying put still restarts the residence clock.
                self.client.moved(ctx);
                self.schedule_move(ctx);
            } else {
                ctx.dispatch(next);
            }
            return;
        }
        let _ = self.client.on_timer(ctx, timer);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if self.client.on_message(ctx, from, payload) == ClientEvent::Registered {
            self.metrics.record_registration();
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

    fn state_size(&self) -> usize {
        768 // a roaming worker with a small result buffer
    }
}

impl std::fmt::Debug for TAgentBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TAgentBehavior")
            .field("residence", &self.residence)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use agentrack_core::Freshness;
    use agentrack_platform::{PlatformConfig, SimPlatform};
    use agentrack_sim::{SimDuration, Topology};

    use super::*;

    /// A client that sends nothing: the roster needs no scheme.
    struct Silent;

    impl DirectoryClient for Silent {
        fn register(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn moved(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn deregister(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn locate_with(&mut self, _: &mut AgentCtx<'_>, _: AgentId, _: u64, _: Freshness) {}
        fn on_message(&mut self, _: &mut AgentCtx<'_>, _: AgentId, _: &Payload) -> ClientEvent {
            ClientEvent::NotMine
        }
        fn on_delivery_failed(
            &mut self,
            _: &mut AgentCtx<'_>,
            _: AgentId,
            _: NodeId,
            _: &Payload,
        ) -> ClientEvent {
            ClientEvent::NotMine
        }
        fn on_timer(&mut self, _: &mut AgentCtx<'_>, _: TimerId) -> ClientEvent {
            ClientEvent::NotMine
        }
    }

    /// Regression: a successor used to join the population only in its
    /// own `on_create`, so a run that ended while it was still being
    /// created handed the audit a roster without it. Queriers still do
    /// not target it until it is active.
    #[test]
    fn a_successor_is_on_the_roster_while_it_is_being_created() {
        let population = Population::new();
        let lifecycle = Lifecycle {
            lifespan: DurationDist::Constant(SimDuration::from_millis(100)),
            factory: Arc::new(|| Box::new(Silent)),
            population: population.clone(),
        };
        let stay = DurationDist::Constant(SimDuration::from_secs(60));
        let agent = TAgentBehavior::new(
            Box::new(Silent),
            stay,
            NodeSelector::Uniform,
            2,
            Metrics::new(),
        )
        .with_lifecycle(lifecycle);
        let topology = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(300)));
        let mut platform = SimPlatform::new(topology, PlatformConfig::default());
        let first = platform.spawn(Box::new(agent), NodeId::new(0));
        while platform.is_live(first) {
            assert!(platform.step(), "the agent never died");
        }
        let roster = population.snapshot();
        assert_eq!(roster.len(), 1, "{roster:?}");
        let successor = roster[0];
        assert!(successor != first);
        assert!(platform.is_live(successor) && !platform.is_active(successor));
        assert!(population.is_empty(), "no query target yet");
        while !platform.is_active(successor) {
            assert!(platform.step(), "the successor never started");
        }
        assert_eq!(population.snapshot(), vec![successor]);
        assert_eq!(population.len(), 1);
    }
}
