//! What one tracked agent's directory client costs in memory, counted by a
//! global allocator. Every mobile agent embeds a client, and most of them
//! are only ever located, never locating: a client holds its owner's own
//! state, shares the scheme's half with every other client, and grows
//! in-flight tables only when its owner first locates something.
//!
//! One test only: the allocator counts every thread of the binary, and a
//! second test running alongside would show up in the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use agentrack_core::{
    CentralizedClient, CentralizedScheme, ClientEvent, DirectoryClient, ForwardingClient,
    ForwardingScheme, Freshness, HashedClient, HashedScheme, HomeRegistryClient,
    HomeRegistryScheme, LocationConfig, LocationScheme,
};
use agentrack_platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack_sim::{DurationDist, SimDuration, Topology};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most a fresh hashed client may leave allocated.
const HASHED_CLIENT_BUDGET_BYTES: usize = 96;
/// What the in-flight tables, boxed, took out of every client: the locate
/// core was 120 B inline and may now be at most 24.
const LOCATE_CORE_SHRINK_BYTES: usize = 120 - 24;
/// The baseline clients' sizes while each still held a whole locate core.
const CENTRALIZED_BEFORE: usize = 136;
const HOME_REGISTRY_BEFORE: usize = 144;
const FORWARDING_BEFORE: usize = 152;

const _: () = assert!(size_of::<HashedClient>() <= 80);
const _: () =
    assert!(size_of::<CentralizedClient>() <= CENTRALIZED_BEFORE - LOCATE_CORE_SHRINK_BYTES);
const _: () =
    assert!(size_of::<HomeRegistryClient>() <= HOME_REGISTRY_BEFORE - LOCATE_CORE_SHRINK_BYTES);
const _: () =
    assert!(size_of::<ForwardingClient>() <= FORWARDING_BEFORE - LOCATE_CORE_SHRINK_BYTES);

/// Runs `build` and returns its value with the bytes it left allocated.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    let value = build();
    (value, LIVE.load(Ordering::SeqCst) - before)
}

/// The bytes dropping `value` gives back: everything it owns alone.
fn owned_by<T>(value: T) -> usize {
    let before = LIVE.load(Ordering::SeqCst);
    drop(value);
    before - LIVE.load(Ordering::SeqCst)
}

fn platform() -> SimPlatform {
    let topology = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(300)));
    SimPlatform::new(topology, PlatformConfig::default().with_seed(17))
}

type Slot = Arc<Mutex<Option<Box<dyn DirectoryClient>>>>;
type Events = Arc<Mutex<Vec<ClientEvent>>>;

/// Registers, then moves between the two nodes three times, 20 ms apart,
/// and then locates `target` if it has one. Its client sits in a slot the
/// test can take it out of.
struct Owner {
    client: Slot,
    moves_left: u32,
    target: Option<AgentId>,
    step: Option<TimerId>,
    events: Events,
}

impl Owner {
    fn client(&self) -> std::sync::MutexGuard<'_, Option<Box<dyn DirectoryClient>>> {
        self.client.lock().unwrap()
    }

    fn note(&mut self, ctx: &mut AgentCtx<'_>, event: ClientEvent) {
        if event == ClientEvent::Registered {
            self.step = Some(ctx.set_timer(SimDuration::from_millis(20)));
        }
        if event != ClientEvent::Consumed && event != ClientEvent::NotMine {
            self.events.lock().unwrap().push(event);
        }
    }
}

impl Agent for Owner {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client().as_mut().unwrap().register(ctx);
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client().as_mut().unwrap().moved(ctx);
        self.step = Some(ctx.set_timer(SimDuration::from_millis(20)));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.step == Some(timer) {
            self.step = None;
            if self.moves_left > 0 {
                self.moves_left -= 1;
                ctx.dispatch(NodeId::new(1 - ctx.node().raw()));
            } else if let Some(target) = self.target {
                let mut client = self.client();
                client
                    .as_mut()
                    .unwrap()
                    .locate_with(ctx, target, 1, Freshness::Any);
            }
            return;
        }
        let event = self.client().as_mut().unwrap().on_timer(ctx, timer);
        self.note(ctx, event);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let event = self
            .client()
            .as_mut()
            .unwrap()
            .on_message(ctx, from, payload);
        self.note(ctx, event);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let event = self
            .client()
            .as_mut()
            .unwrap()
            .on_delivery_failed(ctx, to, node, payload);
        self.note(ctx, event);
    }
}

/// Spawns an [`Owner`] on node 0 with a fresh client of `scheme`.
fn spawn_owner(
    platform: &mut SimPlatform,
    scheme: &dyn LocationScheme,
    target: Option<AgentId>,
) -> (AgentId, Slot, Events) {
    let client: Slot = Arc::new(Mutex::new(Some(scheme.make_client())));
    let events = Events::default();
    let id = platform.spawn(
        Box::new(Owner {
            client: Arc::clone(&client),
            moves_left: 3,
            target,
            step: None,
            events: Arc::clone(&events),
        }),
        NodeId::new(0),
    );
    (id, client, events)
}

#[test]
fn a_client_holds_its_owners_state_and_tables_only_once_it_locates() {
    // A fresh client of each scheme is one box of the client itself.
    let schemes: [(Box<dyn LocationScheme>, usize, usize); 4] = [
        (
            Box::new(HashedScheme::new(LocationConfig::default())),
            size_of::<HashedClient>(),
            HASHED_CLIENT_BUDGET_BYTES,
        ),
        (
            Box::new(CentralizedScheme::new(LocationConfig::default())),
            size_of::<CentralizedClient>(),
            CENTRALIZED_BEFORE - LOCATE_CORE_SHRINK_BYTES,
        ),
        (
            Box::new(HomeRegistryScheme::new(LocationConfig::default())),
            size_of::<HomeRegistryClient>(),
            HOME_REGISTRY_BEFORE - LOCATE_CORE_SHRINK_BYTES,
        ),
        (
            Box::new(ForwardingScheme::new(LocationConfig::default())),
            size_of::<ForwardingClient>(),
            FORWARDING_BEFORE - LOCATE_CORE_SHRINK_BYTES,
        ),
    ];
    for (mut scheme, size, budget) in schemes {
        let mut platform = platform();
        scheme.bootstrap(&mut platform);
        let name = scheme.name();
        let (client, bytes) = held_by(|| scheme.make_client());
        println!("{name}: a fresh client holds {bytes} B (size {size} B, budget {budget} B)");
        assert_eq!(bytes, size, "{name}: a fresh client is its own box only");
        assert!(bytes <= budget, "{name}: {bytes} B, budget {budget} B");
        drop(client);
    }

    // Register, ack, three moves: still nothing in flight. The same, plus
    // one locate: the first locate made the tables.
    let mut platform = platform();
    let mut scheme = HashedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);
    let (still, still_client, still_events) = spawn_owner(&mut platform, &scheme, None);
    let (_, seeker_client, seeker_events) = spawn_owner(&mut platform, &scheme, Some(still));
    platform.run_for(SimDuration::from_millis(500));

    assert_eq!(
        *still_events.lock().unwrap(),
        [ClientEvent::Registered],
        "the still agent registers once"
    );
    let seeker_events = seeker_events.lock().unwrap().clone();
    assert!(
        matches!(
            seeker_events.as_slice(),
            [ClientEvent::Registered, ClientEvent::Located { target, .. }] if *target == still
        ),
        "the seeker registers, then locates the still agent: {seeker_events:?}"
    );
    assert_eq!(
        platform.agent_node(still),
        Some(NodeId::new(1)),
        "three moves end on the other node"
    );

    let still_bytes = owned_by(still_client.lock().unwrap().take());
    let seeker_bytes = owned_by(seeker_client.lock().unwrap().take());
    println!(
        "hashed: after register and three moves a client holds {still_bytes} B; \
         after a locate as well, {seeker_bytes} B"
    );
    assert_eq!(
        still_bytes,
        size_of::<HashedClient>(),
        "a client that never located holds no in-flight state"
    );
    assert!(
        seeker_bytes > still_bytes,
        "the first locate creates the in-flight tables"
    );
}
