//! The live workloads: a scheme bootstrapped on `LivePlatform`, a tracked
//! population registered through the protocol, closed-loop probers on the
//! node threads, and a main thread that only sleeps and reads counters.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use agentrack_core::{
    CentralizedScheme, HashedScheme, LocationConfig, LocationScheme, SchemeStats,
};
use agentrack_platform::{
    AgentId, LiveConfig, LivePlatform, LiveStats, NodeId, Payload, TelemetrySnapshot, TraceSink,
};
use agentrack_sim::{LogHistogram, SimDuration, SimRng};

use crate::agents::{
    Log, Prober, Roamer, SpanRow, Tally, World, DEPTH, DRAINING, MEASURING, SWEEPING,
};
use crate::stats::{
    median, percentile, spread, subwindow_mean, subwindow_percentile, subwindow_rates, SUBWINDOWS,
};
use crate::sys;

/// Set-ups per gated run: at least `MIN`, and up to `MAX` while they have
/// taken less than `BUDGET_SECS` in all — a 20 000-agent set-up lasts
/// 0.15 s, and consecutive ones of a single run read anything from 0.115 to
/// 0.205 s, so the median of three wanders by 15 %.
const SETUP_REPEATS_MIN: usize = 5;
const SETUP_REPEATS_MAX: usize = 15;
const SETUP_BUDGET_SECS: f64 = 3.0;
/// IAgents at which a growing tree is frozen.
const FREEZE_AT_TRACKERS: u64 = 32;
/// Agents spawned ahead of the last completed registration.
const SPAWN_WAVE: usize = 4096;
/// How long after the window in-flight locates may still come back.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
/// How long the closing sweep may take before the rest counts as lost.
const SWEEP_LIMIT: Duration = Duration::from_secs(10);
/// Span rows each prober may keep for the trace file.
const SPAN_ROWS_PER_PROBER: usize = 20_000;
/// Registry lookups the sampler makes per sub-window in a traced run.
const REGISTRY_SAMPLES: usize = 4096;

/// Which scheme a run bootstraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    Hashed,
    /// The one-tracker control: no hash tree, LHAgent or HAgent.
    Centralized,
}

/// Everything that distinguishes one live workload from another.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub scheme: SchemeKind,
    pub agents: usize,
    /// Residence time of the tracked agents; `None` keeps them still.
    pub residence_ms: Option<u64>,
    /// Split threshold, msg/s per IAgent. Merging is off on every live
    /// workload: under a closed loop a dip in throughput lowers every
    /// IAgent's rate at once, the whole tree asks to merge, and the
    /// cascade (seen once in ~25 runs with `t_min` 30) stalls the loop for
    /// good and loses records that stationary agents never re-announce.
    pub t_max: f64,
    /// Grow the tree during warm-up, then freeze adaptation for the window.
    pub freeze: bool,
}

/// Raw results of one live run; `workloads.rs` turns them into metrics.
pub struct LiveOutcome {
    pub setup_secs: Vec<f64>,
    /// Correct locates per second, one value per sub-window.
    pub locate_rates: Vec<f64>,
    pub move_rates: Vec<f64>,
    /// Latencies of every correct locate of the window (ns): one ascending
    /// list per sub-window, by time of answer.
    pub latency_ns: Vec<Vec<u32>>,
    pub resolve_leg_ns: Vec<u32>,
    pub query_leg_ns: Vec<u32>,
    pub retries: u64,
    pub spans: Vec<SpanRow>,
    pub ok: u64,
    pub one_behind: u64,
    pub wrong: u64,
    pub gave_up: u64,
    pub unanswered: u64,
    /// Agents the closing sweep looked for, and those it did not find.
    pub swept: u64,
    pub unlocatable: u64,
    pub cpu_secs: f64,
    pub rss_mib: f64,
    /// Scheme counters over the window (`trackers` is the end value).
    pub scheme: SchemeStats,
    /// Platform counters over the window.
    pub platform: LiveStats,
    /// Telemetry at window start and after shutdown (traced runs only).
    pub telemetry: Option<(TelemetrySnapshot, TelemetrySnapshot)>,
    pub queue_depth_max: u64,
    /// Route-cache hits and misses of the registry sampler (traced only).
    pub registry_hits: u64,
    pub registry_misses: u64,
    /// Broken invariants; any entry fails the run.
    pub violations: Vec<String>,
}

impl LiveOutcome {
    /// Every locate of the window, answered or not, plus the sweep's.
    pub fn attempted(&self) -> u64 {
        self.ok + self.wrong + self.gave_up + self.unanswered + self.swept
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.gave_up + self.unanswered + self.unlocatable
    }

    pub fn locate_per_s(&self) -> f64 {
        median(&self.locate_rates)
    }

    pub fn subwindow_spread(&self) -> f64 {
        spread(&self.locate_rates)
    }

    /// The mean latency of the median sub-window.
    pub fn mean_latency_us(&self) -> f64 {
        subwindow_mean(&self.latency_ns) / 1000.0
    }

    /// The `p`-th percentile of the median sub-window.
    pub fn latency_us(&self, p: f64) -> f64 {
        subwindow_percentile(&self.latency_ns, p) / 1000.0
    }

    /// The `p`-th percentile over every sample of the window: for the
    /// tail, which a fifth of the samples is too few to place.
    pub fn tail_latency_us(&self, p: f64) -> f64 {
        let mut all = self.latency_ns.concat();
        all.sort_unstable();
        percentile(&all, p) / 1000.0
    }
}

struct Rig {
    platform: LivePlatform,
    scheme: Box<dyn LocationScheme>,
    world: Arc<World>,
    tallies: Vec<Arc<Tally>>,
    probers: Vec<AgentId>,
    targets: Arc<[AgentId]>,
}

fn wait_until(what: &str, limit: Duration, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("timed out after {limit:?} waiting for {what}"));
        }
        sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Bootstraps the scheme and registers the whole population through the
/// protocol. Returns the rig and the seconds it took, from platform
/// creation to the last `Registered`.
fn set_up(spec: &LiveSpec, seed: u64, traced: bool) -> Result<(Rig, f64), String> {
    let began = Instant::now();
    let nodes = sys::live_nodes();
    let live = LiveConfig::default()
        .with_telemetry(traced)
        .with_flight_recorder(if traced { 64 } else { 0 });
    let mut platform = LivePlatform::with_config(nodes, live, TraceSink::disabled());
    let config = LocationConfig {
        merge_enabled: false,
        ..LocationConfig::default().with_thresholds(spec.t_max, 0.0)
    };
    let mut scheme: Box<dyn LocationScheme> = match spec.scheme {
        SchemeKind::Hashed => Box::new(HashedScheme::new(config)),
        SchemeKind::Centralized => Box::new(CentralizedScheme::new(config)),
    };
    scheme.bootstrap(&mut platform);

    // An answer one move behind is excused for a quarter of the residence
    // time: orders of magnitude above an `Update`'s transit, well below
    // the next move.
    let excuse_ms = spec.residence_ms.map_or(0, |r| r / 4);
    let world = Arc::new(World::new(spec.agents, nodes, excuse_ms));
    let mut seeds = SimRng::seed_from(seed);
    // Spawn in waves: an unregistered backlog deeper than the scheme's
    // 800 ms registration watchdog can drain makes agents re-register, and
    // set-up time then measures the storm instead of the protocol.
    let mut targets = Vec::with_capacity(spec.agents);
    while targets.len() < spec.agents {
        let registered = world.registered.load(Ordering::Relaxed) as usize;
        let room = (registered + SPAWN_WAVE).min(spec.agents) - targets.len();
        if room == 0 {
            sleep(Duration::from_micros(200));
        }
        for _ in 0..room {
            let roamer = Roamer {
                client: scheme.make_client(),
                idx: targets.len(),
                world: Arc::clone(&world),
                residence: spec.residence_ms.map(SimDuration::from_millis),
                rng: seeds.fork(),
                move_timer: None,
            };
            let node = NodeId::new(seeds.index(nodes as usize) as u32);
            targets.push(platform.spawn(Box::new(roamer), node));
        }
    }
    let targets: Arc<[AgentId]> = targets.into();

    let mut tallies = Vec::new();
    let mut probers = Vec::new();
    for node in 0..nodes.min(2) {
        let tally = Arc::new(Tally::default());
        if traced {
            let mut log = tally.log.lock().expect("fresh lock");
            log.spans.reserve_exact(SPAN_ROWS_PER_PROBER);
        }
        let prober = Prober::new(
            scheme.make_client(),
            u64::from(node),
            Arc::clone(&targets),
            Arc::clone(&world),
            Arc::clone(&tally),
            seeds.next_u64(),
            traced,
        );
        probers.push(platform.spawn(Box::new(prober), NodeId::new(node)));
        tallies.push(tally);
    }

    wait_until("registration", Duration::from_secs(120), || {
        world.registered.load(Ordering::Relaxed) == spec.agents as u64
    })?;
    let secs = began.elapsed().as_secs_f64();
    Ok((
        Rig {
            platform,
            scheme,
            world,
            tallies,
            probers,
            targets,
        },
        secs,
    ))
}

fn scheme_delta(before: &SchemeStats, after: &SchemeStats) -> SchemeStats {
    SchemeStats {
        splits: after.splits - before.splits,
        merges: after.merges - before.merges,
        rehash_denied: after.rehash_denied - before.rehash_denied,
        hf_fetches: after.hf_fetches - before.hf_fetches,
        records_handed_off: after.records_handed_off - before.records_handed_off,
        stale_hits: after.stale_hits - before.stale_hits,
        pending_served: after.pending_served - before.pending_served,
        ..*after
    }
}

fn platform_delta(before: &LiveStats, after: &LiveStats) -> LiveStats {
    LiveStats {
        messages_sent: after.messages_sent - before.messages_sent,
        messages_delivered: after.messages_delivered - before.messages_delivered,
        messages_failed: after.messages_failed - before.messages_failed,
        migrations: after.migrations - before.migrations,
        ..*after
    }
}

/// The `p`-th percentile, in µs, of the samples a cumulative telemetry
/// histogram gained between two snapshots (bucket upper bounds, so
/// power-of-two coarse).
pub fn histogram_delta_us(before: &LogHistogram, after: &LogHistogram, p: f64) -> f64 {
    let gained: Vec<u64> = after
        .counts()
        .iter()
        .zip(before.counts())
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = gained.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0 * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in gained.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return LogHistogram::bucket_upper(i).as_nanos() as f64 / 1000.0;
        }
    }
    unreachable!("rank lies within the total")
}

/// Runs one live workload: the set-up (repeated when `setup_s` is to be
/// reported; the last one is kept), a warm-up of a third of the window, the
/// window itself, a drain, a sweep, and the closing audit of the platform's
/// books.
pub fn run_live(
    spec: &LiveSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat_setup: bool,
) -> Result<LiveOutcome, String> {
    let mut setup_secs = Vec::new();
    let rig = loop {
        let (rig, secs) = set_up(spec, seed, traced)?;
        setup_secs.push(secs);
        let spent: f64 = setup_secs.iter().sum();
        let enough = setup_secs.len() >= SETUP_REPEATS_MAX
            || (setup_secs.len() >= SETUP_REPEATS_MIN && spent >= SETUP_BUDGET_SECS);
        if enough || !repeat_setup {
            break rig;
        }
        rig.platform.shutdown();
    };
    let mut violations = Vec::new();

    // Warm-up: the probers run, the tree adapts to their load.
    for &prober in &rig.probers {
        rig.platform.post(prober, Payload::encode(&"go"));
    }
    let warmup = Duration::from_secs_f64((seconds / 3.0).max(0.5));
    let warm_began = Instant::now();
    if spec.freeze {
        // Freeze at a fixed tree size (or, failing that, with a second of
        // warm-up left) so every run measures the same shape of tree; the
        // rest of the warm-up lets leases in flight commit and the
        // LHAgents' copies catch up.
        let settle = Duration::from_secs(1);
        while warm_began.elapsed() + settle < warmup
            && rig.scheme.stats().trackers < FREEZE_AT_TRACKERS
        {
            sleep(Duration::from_micros(500));
        }
        rig.scheme.set_adaptation_frozen(true);
    }
    sleep(warmup.saturating_sub(warm_began.elapsed()));

    // The window.
    let correct = |rig: &Rig| -> u64 {
        rig.tallies
            .iter()
            .map(|t| t.ok.load(Ordering::Relaxed))
            .sum()
    };
    let mut sampler = traced.then(|| (rig.platform.handle(), SimRng::seed_from(seed ^ 0x5a)));
    let telemetry_before = rig.platform.telemetry_snapshot();
    let scheme_before = rig.scheme.stats();
    let platform_before = rig.platform.stats();
    let moves_before = rig.world.moves.load(Ordering::Relaxed);
    let cpu_before = sys::process_cpu_secs();
    let began = Instant::now();
    rig.world.phase.store(MEASURING, Ordering::Relaxed);
    let sub = seconds / SUBWINDOWS as f64;
    let mut located = vec![0u64];
    let mut moved = vec![0u64];
    // Per boundary between two sub-windows, how many latencies each prober
    // had logged by then.
    let mut logged: Vec<Vec<usize>> = Vec::new();
    let mut queue_depth_max = 0;
    for i in 1..=SUBWINDOWS {
        sleep(Duration::from_secs_f64(sub * i as f64).saturating_sub(began.elapsed()));
        located.push(correct(&rig));
        if i < SUBWINDOWS {
            logged.push(
                rig.tallies
                    .iter()
                    .map(|t| t.log.lock().expect("prober log poisoned").latency_ns.len())
                    .collect(),
            );
        }
        moved.push(rig.world.moves.load(Ordering::Relaxed) - moves_before);
        if let Some((handle, rng)) = &mut sampler {
            // The registry as an outside driver sees it: every sampled
            // agent must be known. Repeats hit the route cache unless a
            // migration bumped the shard's generation in between.
            for _ in 0..REGISTRY_SAMPLES {
                let target = rig.targets[rng.index(REGISTRY_SAMPLES.min(rig.targets.len()))];
                if handle.locate(target).is_none() {
                    violations.push(format!("registry lost {target}"));
                }
            }
            let depth = rig.platform.telemetry_snapshot().map_or(0, |s| {
                s.nodes.iter().map(|n| n.queue_depth).max().unwrap_or(0)
            });
            queue_depth_max = queue_depth_max.max(depth);
        }
    }
    rig.world.phase.store(DRAINING, Ordering::Relaxed);
    let cpu_secs = sys::process_cpu_secs() - cpu_before;
    let scheme = scheme_delta(&scheme_before, &rig.scheme.stats());
    let platform = platform_delta(&platform_before, &rig.platform.stats());

    // Drain: whatever is still in flight gets a grace period to land.
    let in_flight = |rig: &Rig| -> u64 {
        rig.tallies
            .iter()
            .map(|t| t.issued.load(Ordering::Relaxed) - t.answered.load(Ordering::Relaxed))
            .sum()
    };
    let _ = wait_until("the drain", DRAIN_GRACE, || in_flight(&rig) == 0);
    let unanswered = in_flight(&rig);

    // Sweep: locate every tracked agent once. Random targets would take
    // minutes to stumble on a record a handoff lost; stationary agents
    // never send the update that would repair it.
    rig.world.phase.store(SWEEPING, Ordering::Relaxed);
    for &prober in &rig.probers {
        rig.platform.post(prober, Payload::encode(&"go"));
    }
    let swept = |rig: &Rig| {
        rig.world.sweep_found.load(Ordering::Relaxed) + rig.world.sweep_lost.load(Ordering::Relaxed)
    };
    let _ = wait_until("the sweep", SWEEP_LIMIT, || {
        swept(&rig) == spec.agents as u64
    });
    let unlocatable = spec.agents as u64 - rig.world.sweep_found.load(Ordering::Relaxed);
    if unlocatable != 0 {
        violations.push(format!(
            "{unlocatable} of {} agents could not be located after the window",
            spec.agents
        ));
    }

    let (registry_hits, registry_misses) = sampler
        .map(|(handle, _)| (handle.cache_hits(), handle.cache_misses()))
        .unwrap_or_default();
    let (closing, telemetry_after) = rig.platform.shutdown_telemetry();
    if closing.messages_sent != closing.messages_delivered + closing.messages_failed {
        violations.push(format!("platform books do not balance: {closing:?}"));
    }
    if closing.nodes_dead != 0 {
        violations.push(format!("{} node thread(s) died", closing.nodes_dead));
    }
    if spec.freeze && scheme.splits + scheme.merges != 0 {
        violations.push(format!(
            "{} split(s) and {} merge(s) inside a frozen window",
            scheme.splits, scheme.merges
        ));
    }

    let mut log = Log::default();
    let mut latency_ns = vec![Vec::new(); SUBWINDOWS];
    let (mut ok, mut one_behind, mut wrong, mut gave_up) = (0, 0, 0, 0);
    for (prober, tally) in rig.tallies.iter().enumerate() {
        ok += tally.ok.load(Ordering::Relaxed);
        one_behind += tally.one_behind.load(Ordering::Relaxed);
        wrong += tally.wrong.load(Ordering::Relaxed);
        gave_up += tally.gave_up.load(Ordering::Relaxed);
        let mut part = tally.log.lock().expect("prober log poisoned");
        // A prober logs in order of answer, so the readings taken at the
        // boundaries cut its log into the sub-windows; what it logged
        // between the last reading and the end of the window joins the last.
        let answered = std::mem::take(&mut part.latency_ns);
        let mut from = 0;
        for (i, sub) in latency_ns.iter_mut().enumerate() {
            let to = logged.get(i).map_or(answered.len(), |at| at[prober]);
            sub.extend_from_slice(&answered[from..to]);
            from = to;
        }
        log.resolve_leg_ns.append(&mut part.resolve_leg_ns);
        log.query_leg_ns.append(&mut part.query_leg_ns);
        log.retries += part.retries;
        log.spans.append(&mut part.spans);
    }
    for sub in &mut latency_ns {
        sub.sort_unstable();
    }
    log.resolve_leg_ns.sort_unstable();
    log.query_leg_ns.sort_unstable();
    if ok == 0 {
        violations.push("no locate was answered correctly inside the window".into());
    }

    Ok(LiveOutcome {
        setup_secs,
        locate_rates: subwindow_rates(&located, sub),
        move_rates: subwindow_rates(&moved, sub),
        latency_ns,
        resolve_leg_ns: log.resolve_leg_ns,
        query_leg_ns: log.query_leg_ns,
        retries: log.retries,
        spans: log.spans,
        ok,
        one_behind,
        wrong,
        gave_up,
        unanswered,
        swept: spec.agents as u64,
        unlocatable,
        cpu_secs,
        rss_mib: sys::peak_rss_mib(),
        scheme,
        platform,
        telemetry: telemetry_before.zip(telemetry_after),
        queue_depth_max,
        registry_hits,
        registry_misses,
        violations,
    })
}

/// Locates kept in flight across all probers.
pub fn in_flight_locates() -> usize {
    sys::live_nodes().min(2) as usize * DEPTH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_sees_only_the_window() {
        let mut before = LogHistogram::new();
        for _ in 0..1000 {
            before.record(SimDuration::from_millis(50)); // set-up traffic
        }
        let mut after = before.clone();
        for _ in 0..90 {
            after.record(SimDuration::from_micros(3));
        }
        for _ in 0..10 {
            after.record(SimDuration::from_micros(900));
        }
        // Bucket upper bounds: 3 us falls in [2048, 4096) ns, 900 us in
        // [524288, 1048576) ns.
        assert_eq!(histogram_delta_us(&before, &after, 50.0), 4.095);
        assert_eq!(histogram_delta_us(&before, &after, 99.0), 1048.575);
        assert_eq!(histogram_delta_us(&before, &before, 50.0), 0.0);
    }

    #[test]
    fn scheme_delta_subtracts_counters_and_keeps_gauges() {
        let delta = scheme_delta(
            &SchemeStats {
                splits: 3,
                trackers: 8,
                ..SchemeStats::default()
            },
            &SchemeStats {
                splits: 10,
                merges: 2,
                trackers: 15,
                ..SchemeStats::default()
            },
        );
        assert_eq!((delta.splits, delta.merges, delta.trackers), (7, 2, 15));
    }
}
