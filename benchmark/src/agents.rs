//! The load the live workloads run: `Roamer`s are the tracked population
//! (stationary or moving), `Prober`s locate them in a closed loop. Both
//! live on the platform's node threads and talk to the mechanism only
//! through `DirectoryClient`, as any mobile agent would.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use agentrack_core::{ClientEvent, DirectoryClient, Wire};
use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::{SimDuration, SimRng};

use crate::oracle::{Oracle, Verdict};

/// Locates each prober keeps in flight.
pub const DEPTH: usize = 8;

/// Run phases, set by the main thread and read by the probers.
pub const WARMING: u8 = 0;
pub const MEASURING: u8 = 1;
pub const DRAINING: u8 = 2;
/// After the window: every tracked agent is located once more, in order.
pub const SWEEPING: u8 = 3;

/// State shared by every agent of one live run. All counters are
/// statistics read after the fact, hence `Relaxed` throughout.
pub struct World {
    pub oracle: Oracle,
    pub started: Instant,
    pub phase: AtomicU8,
    pub registered: AtomicU64,
    pub moves: AtomicU64,
    /// The sweep's next target, and how many it has found and lost.
    pub sweep_cursor: AtomicU64,
    pub sweep_found: AtomicU64,
    pub sweep_lost: AtomicU64,
    pub nodes: u32,
    /// How long after an arrival the previous node is still an excusable
    /// answer (see [`Oracle::judge`]).
    pub excuse_ms: u64,
}

impl World {
    pub fn new(agents: usize, nodes: u32, excuse_ms: u64) -> Self {
        World {
            oracle: Oracle::new(agents),
            started: Instant::now(),
            phase: AtomicU8::new(WARMING),
            registered: AtomicU64::new(0),
            moves: AtomicU64::new(0),
            sweep_cursor: AtomicU64::new(0),
            sweep_found: AtomicU64::new(0),
            sweep_lost: AtomicU64::new(0),
            nodes,
            excuse_ms,
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// A tracked agent: registers at birth and, when given a residence time,
/// hops to another node each time it elapses, reporting every arrival to
/// the oracle first and the mechanism second.
pub struct Roamer {
    pub client: Box<dyn DirectoryClient>,
    pub idx: usize,
    pub world: Arc<World>,
    pub residence: Option<SimDuration>,
    pub rng: SimRng,
    pub move_timer: Option<TimerId>,
}

impl Agent for Roamer {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.world.oracle.place(self.idx, ctx.node());
        self.client.register(ctx);
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.world
            .oracle
            .arrive(self.idx, ctx.node(), self.world.now_ms());
        self.client.moved(ctx);
        self.world.moves.fetch_add(1, Ordering::Relaxed);
        self.move_timer = self.residence.map(|r| ctx.set_timer(r));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.move_timer == Some(timer) {
            // Any node but this one, uniformly.
            let hop = 1 + self.rng.index(self.world.nodes as usize - 1) as u32;
            ctx.dispatch(NodeId::new((ctx.node().raw() + hop) % self.world.nodes));
        } else {
            let _ = self.client.on_timer(ctx, timer);
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if self.client.on_message(ctx, from, payload) == ClientEvent::Registered {
            self.world.registered.fetch_add(1, Ordering::Relaxed);
            // First hop after a random share of the residence time, so the
            // population's moves spread evenly instead of arriving as one
            // wave per residence period.
            self.move_timer = self
                .residence
                .map(|r| ctx.set_timer(r.mul_f64(self.rng.unit())));
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

/// One span of a traced locate, in nanoseconds since the run began. Spans
/// of one locate share `trace`; `locate` is the root, the legs its
/// children, and the legs tile the root exactly.
#[derive(Debug, Clone, Copy)]
pub struct SpanRow {
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one prober measured inside the window.
#[derive(Default)]
pub struct Log {
    /// Issue → `Located`, every correct answer of the window (ns,
    /// saturating at 4.29 s).
    pub latency_ns: Vec<u32>,
    /// Traced runs only: issue → first `Resolved`.
    pub resolve_leg_ns: Vec<u32>,
    /// Traced runs only: last `Resolved` → `Located`.
    pub query_leg_ns: Vec<u32>,
    /// Traced runs only: attempts beyond the first.
    pub retries: u64,
    /// Traced runs only: the span rows of the first locates of the window,
    /// up to the capacity reserved up front.
    pub spans: Vec<SpanRow>,
}

/// Counters and samples of one prober, shared with the main thread.
#[derive(Default)]
pub struct Tally {
    /// Locates issued and answered (any outcome) since the run began; the
    /// difference after the drain is what never came back.
    pub issued: AtomicU64,
    pub answered: AtomicU64,
    /// Outcomes of locates answered inside the window.
    pub ok: AtomicU64,
    pub one_behind: AtomicU64,
    pub wrong: AtomicU64,
    pub gave_up: AtomicU64,
    pub log: Mutex<Log>,
}

struct InFlight {
    token: u64,
    target: usize,
    issued_ns: u64,
    /// Issued by the closing sweep rather than the closed loop.
    swept: bool,
    /// When each `Resolved` for this token was seen (traced runs only).
    resolved_ns: Vec<u64>,
}

/// A closed-loop locating client: keeps [`DEPTH`] locates in flight and
/// issues the next the moment one completes, until the run drains.
pub struct Prober {
    client: Box<dyn DirectoryClient>,
    id: u64,
    targets: Arc<[AgentId]>,
    world: Arc<World>,
    tally: Arc<Tally>,
    rng: SimRng,
    traced: bool,
    next_token: u64,
    slots: [Option<InFlight>; DEPTH],
}

fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl Prober {
    pub fn new(
        client: Box<dyn DirectoryClient>,
        id: u64,
        targets: Arc<[AgentId]>,
        world: Arc<World>,
        tally: Arc<Tally>,
        seed: u64,
        traced: bool,
    ) -> Self {
        Prober {
            client,
            id,
            targets,
            world,
            tally,
            rng: SimRng::seed_from(seed),
            traced,
            next_token: 0,
            slots: Default::default(),
        }
    }

    fn issue(&mut self, ctx: &mut AgentCtx<'_>, slot: usize) {
        let swept = self.world.phase.load(Ordering::Relaxed) == SWEEPING;
        let target = if swept {
            let next = self.world.sweep_cursor.fetch_add(1, Ordering::Relaxed) as usize;
            if next >= self.targets.len() {
                return; // the sweep has handed out every agent
            }
            next
        } else {
            self.rng.index(self.targets.len())
        };
        let token = self.next_token;
        self.next_token += 1;
        self.slots[slot] = Some(InFlight {
            token,
            target,
            issued_ns: self.world.now_ns(),
            swept,
            resolved_ns: Vec::new(),
        });
        self.tally.issued.fetch_add(1, Ordering::Relaxed);
        self.client.locate(ctx, self.targets[target], token);
    }

    fn slot_of(&self, token: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|f| f.token == token))
    }

    /// Books the outcome of one locate and keeps the loop closed.
    fn complete(&mut self, ctx: &mut AgentCtx<'_>, token: u64, answer: Option<NodeId>) {
        let Some(slot) = self.slot_of(token) else {
            return;
        };
        let flight = self.slots[slot].take().expect("slot_of found it");
        let now_ns = self.world.now_ns();
        self.tally.answered.fetch_add(1, Ordering::Relaxed);
        let phase = self.world.phase.load(Ordering::Relaxed);
        let verdict = answer.map(|node| {
            self.world.oracle.judge(
                flight.target,
                node,
                now_ns / 1_000_000,
                self.world.excuse_ms,
            )
        });
        if flight.swept {
            let tally = match verdict {
                None | Some(Verdict::Wrong) => &self.world.sweep_lost,
                Some(_) => &self.world.sweep_found,
            };
            tally.fetch_add(1, Ordering::Relaxed);
        } else if phase == MEASURING {
            match verdict {
                None => self.tally.gave_up.fetch_add(1, Ordering::Relaxed),
                Some(Verdict::Wrong) => self.tally.wrong.fetch_add(1, Ordering::Relaxed),
                Some(v) => {
                    if v == Verdict::OneBehind {
                        self.tally.one_behind.fetch_add(1, Ordering::Relaxed);
                    }
                    self.record(&flight, now_ns);
                    self.tally.ok.fetch_add(1, Ordering::Relaxed)
                }
            };
        }
        if phase != DRAINING {
            self.issue(ctx, slot);
        }
    }

    fn record(&self, flight: &InFlight, now_ns: u64) {
        let mut log = self.tally.log.lock().expect("prober log poisoned");
        log.latency_ns.push(ns32(now_ns - flight.issued_ns));
        let (Some(&first), Some(&last)) = (flight.resolved_ns.first(), flight.resolved_ns.last())
        else {
            return; // untraced run: no legs were observed
        };
        log.resolve_leg_ns.push(ns32(first - flight.issued_ns));
        log.query_leg_ns.push(ns32(now_ns - last));
        log.retries += flight.resolved_ns.len() as u64 - 1;
        let rows = 2 + flight.resolved_ns.len();
        if log.spans.len() + rows <= log.spans.capacity() {
            let trace = self.id << 48 | flight.token;
            let mut row = |name, start_ns, end_ns| {
                log.spans.push(SpanRow {
                    trace,
                    name,
                    start_ns,
                    end_ns,
                });
            };
            row("locate", flight.issued_ns, now_ns);
            row("resolve_leg", flight.issued_ns, first);
            for pair in flight.resolved_ns.windows(2) {
                row("retry_leg", pair[0], pair[1]);
            }
            row("query_leg", last, now_ns);
        }
    }

    fn on_event(&mut self, ctx: &mut AgentCtx<'_>, event: ClientEvent) {
        match event {
            ClientEvent::Located { token, node, .. } => self.complete(ctx, token, Some(node)),
            ClientEvent::Failed { token, .. } => self.complete(ctx, token, None),
            _ => {}
        }
    }
}

impl Agent for Prober {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if self.traced {
            // The benchmark's own view of the leg boundary: the phase-1
            // answer passing through on its way to the client.
            if let Some(Wire::Resolved {
                token: Some(token), ..
            }) = Wire::from_payload(payload)
            {
                let now_ns = self.world.now_ns();
                if let Some(slot) = self.slot_of(token) {
                    let flight = self.slots[slot].as_mut().expect("slot_of found it");
                    flight.resolved_ns.push(now_ns);
                }
            }
        }
        match self.client.on_message(ctx, from, payload) {
            // Not protocol traffic: the main thread's start signal.
            ClientEvent::NotMine => {
                for slot in 0..DEPTH {
                    if self.slots[slot].is_none() {
                        self.issue(ctx, slot);
                    }
                }
            }
            event => self.on_event(ctx, event),
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        let event = self.client.on_timer(ctx, timer);
        self.on_event(ctx, event);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let event = self.client.on_delivery_failed(ctx, to, node, payload);
        self.on_event(ctx, event);
    }
}
