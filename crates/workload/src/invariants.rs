//! Post-quiesce invariant checking for fault-injection runs.
//!
//! After a chaos scenario drains, [`check`] probes the system the way an
//! operator would audit it:
//!
//! * **Locatability** — every live, reachable TAgent must still be
//!   locatable through its scheme (one locate per agent, shared out over
//!   a fresh probe client on every node that is up). Skipped for the
//!   forwarding baseline under any fault plan: a chain link lost to a
//!   crash or partition is unrecoverable by design, which is exactly the
//!   weakness the paper's mechanism avoids.
//! * **Version convergence** — the primary HAgent must hold the highest
//!   hash-function version among live copies; with `strict_versions`,
//!   every live copy (standby, LHAgents, IAgents) must match it.
//! * **Single ownership** — for the hashed scheme, the live IAgents'
//!   record counts must not exceed the live population: no agent is owned
//!   by two IAgents after the tree settles.
//! * **Mail accounting** — a fault-free, loss-free run must lose no
//!   guaranteed-delivery mail.
//! * **Recovery convergence** — every recovery a restarted tracker
//!   entered must have finished by quiesce (the recovery timeout bounds
//!   it); a tracker stuck recovering would answer stale forever. Together
//!   with locatability this is the durability guarantee: no agent stays
//!   permanently unlocatable after its tracker crashes and restarts.
//! * **Freshness bounds** — no answer delivered during the run may
//!   declare an age above the locate's freshness bound (the scheme's
//!   client-side audit counter must be zero), and once every recovery has
//!   converged the post-quiesce probes must be answered authoritatively —
//!   a stale probe answer means a replica set failed to reconverge after
//!   the faults healed.
//!
//! Checks that a fault plan makes undecidable (e.g. locatability of agents
//! stranded on a node that never restarts) are narrowed to the reachable
//! population rather than skipped wholesale.
//!
//! The audit first freezes directory adaptation
//! ([`LocationScheme::set_adaptation_frozen`]): a post-spike merge cascade
//! can still be committing versions while the probe runs, and sampling
//! versions mid-install would report a convergence failure that is really
//! an in-flight broadcast. In-flight leases still commit (bounded by the
//! lease timeout, inside the slack after the probes); only new grants stop.

use std::sync::Arc;

use agentrack_core::{ClientEvent, CopyRole, DirectoryClient, LocationScheme};
use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, SimPlatform, TimerId};
use agentrack_sim::SimDuration;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::scenario::{Scenario, ScenarioReport};

/// Longest wait for a probe's answer before the next probe goes out
/// anyway: a probe that answers sooner releases the next one at once, so
/// the audit costs what its locates take, and one that never answers
/// delays the rest by this much, not more.
const PROBE_PACE: SimDuration = SimDuration::from_millis(50);

/// Extra run time after the probe phase, covering a full retry budget
/// (8 attempts x 800 ms) with headroom, and the lease (5 s) and recovery
/// (3 s) timeouts before versions and gauges are sampled.
const PROBE_SLACK: SimDuration = SimDuration::from_secs(8);

/// Outcome of the post-quiesce audit of one chaos run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvariantReport {
    /// Live, reachable TAgents the probe attempted to locate.
    pub probed: usize,
    /// Probes answered with a location.
    pub located: usize,
    /// Raw ids of agents the probe could not locate (empty unless the
    /// locatability check applied and failed).
    pub unlocatable: Vec<u64>,
    /// Live hash-function copies inspected (0 for non-hashed schemes).
    pub version_copies: usize,
    /// Whether the version-convergence check passed (vacuously true when
    /// no copies report versions).
    pub versions_converged: bool,
    /// Records held across live trackers at quiesce.
    pub records_held: u64,
    /// Live TAgents at quiesce.
    pub live_agents: usize,
    /// Guaranteed-delivery messages lost to mailbox expiry.
    pub mail_lost: u64,
    /// Recoveries entered by restarted trackers over the whole run.
    pub recoveries_started: u64,
    /// Recoveries that converged or timed out.
    pub recoveries_completed: u64,
    /// Degraded-mode (stale) locate answers served during recoveries.
    pub stale_answers: u64,
    /// Answers whose declared age exceeded the locate's freshness bound
    /// over the whole run (must be zero).
    pub bound_violations: u64,
    /// Post-quiesce probes answered with a stale (replica/recovery)
    /// record instead of the authoritative one.
    pub probe_stale: usize,
    /// Human-readable invariant violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Shared result cell the probe agent writes into.
#[derive(Debug, Default)]
struct ProbeOutcome {
    /// Raw ids of the targets answered with a location.
    located: Vec<u64>,
    /// Of those, answers from a stale (replica/recovery) record.
    stale: usize,
    /// Probes that ended, located or failed.
    ended: usize,
}

impl ProbeOutcome {
    /// Raw ids of the `targets` no answer located, ascending.
    fn unlocatable(&mut self, targets: &[AgentId]) -> Vec<u64> {
        self.located.sort_unstable();
        let mut missing: Vec<u64> = targets
            .iter()
            .map(|id| id.raw())
            .filter(|raw| self.located.binary_search(raw).is_err())
            .collect();
        missing.sort_unstable();
        missing
    }
}

/// A one-shot audit agent: locates each target in turn through a fresh
/// scheme client and records which answers arrive. One probe is in
/// flight at a time: the next goes out when the newest one ends or when
/// [`PROBE_PACE`] has passed since it went out, whichever is first.
struct ProbeBehavior {
    client: Box<dyn DirectoryClient>,
    targets: Vec<AgentId>,
    next: usize,
    /// Pace timer of the newest probe.
    probe_timer: Option<TimerId>,
    /// Pace timers an answer made moot; dropped when they fire.
    superseded: Vec<TimerId>,
    results: Arc<Mutex<ProbeOutcome>>,
}

impl ProbeBehavior {
    fn issue_next(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.next < self.targets.len() {
            let token = self.next as u64;
            let target = self.targets[self.next];
            self.next += 1;
            self.client.locate(ctx, target, token);
            self.probe_timer = Some(ctx.set_timer(PROBE_PACE));
        }
    }

    fn handle(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        f: impl FnOnce(&mut dyn DirectoryClient, &mut AgentCtx<'_>) -> ClientEvent,
    ) {
        let token = match f(self.client.as_mut(), ctx) {
            ClientEvent::Located {
                token,
                target,
                stale,
                ..
            } => {
                let mut results = self.results.lock();
                results.located.push(target.raw());
                results.stale += usize::from(stale);
                results.ended += 1;
                token
            }
            ClientEvent::Failed { token, .. } => {
                self.results.lock().ended += 1;
                token
            }
            _ => return,
        };
        // The newest probe ended: the next need not wait out the pace. A
        // late answer to an older probe releases nothing; its successor
        // already went out.
        if token + 1 == self.next as u64 {
            self.superseded.extend(self.probe_timer.take());
            self.issue_next(ctx);
        }
    }
}

impl Agent for ProbeBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.issue_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.probe_timer == Some(timer) {
            self.probe_timer = None;
            self.issue_next(ctx);
            return;
        }
        if let Some(i) = self.superseded.iter().position(|&t| t == timer) {
            self.superseded.swap_remove(i);
            return;
        }
        self.handle(ctx, |client, ctx| client.on_timer(ctx, timer));
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        self.handle(ctx, |client, ctx| client.on_message(ctx, from, payload));
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        self.handle(ctx, |client, ctx| {
            client.on_delivery_failed(ctx, to, node, payload)
        });
    }
}

impl std::fmt::Debug for ProbeBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeBehavior")
            .field("targets", &self.targets.len())
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

/// Locates every target once, then lets the system settle. Every node
/// that is up runs one [`ProbeBehavior`] with a client from `new_client`
/// over a contiguous share of `targets` (shares differ by at most one),
/// so the shares run side by side. The probe phase ends when every probe
/// has ended, and never later than [`PROBE_PACE`] per target of the
/// largest share; [`PROBE_SLACK`] follows, and an answer that arrives
/// within it still counts.
fn probe(
    platform: &mut SimPlatform,
    mut new_client: impl FnMut() -> Box<dyn DirectoryClient>,
    targets: &[AgentId],
) -> ProbeOutcome {
    let results = Arc::new(Mutex::new(ProbeOutcome::default()));
    let probed = targets.len();
    let up: Vec<NodeId> = (0..platform.topology().node_count())
        .map(NodeId::new)
        .filter(|&node| !platform.node_is_down(node))
        .collect();
    assert!(!up.is_empty(), "reachable targets need a node that is up");
    let largest_share = probed.div_ceil(up.len());
    let deadline = platform.now() + PROBE_PACE * largest_share as u64;
    for (i, &node) in up.iter().enumerate() {
        let share = &targets[i * probed / up.len()..(i + 1) * probed / up.len()];
        if share.is_empty() {
            continue;
        }
        let probe = ProbeBehavior {
            client: new_client(),
            targets: share.to_vec(),
            next: 0,
            probe_timer: None,
            superseded: Vec::new(),
            results: Arc::clone(&results),
        };
        platform.spawn(Box::new(probe), node);
    }
    platform.run_until_or(deadline, || results.lock().ended == probed);
    platform.run_for(PROBE_SLACK);
    let outcome = std::mem::take(&mut *results.lock());
    outcome
}

/// Runs the full post-quiesce audit; see the module docs for the
/// invariants.
pub(crate) fn check(
    scenario: &Scenario,
    scheme: &mut dyn LocationScheme,
    platform: &mut SimPlatform,
    tagents: &[AgentId],
    report: &ScenarioReport,
    strict_versions: bool,
) -> InvariantReport {
    let mut violations = Vec::new();

    // Drain the control plane before auditing, the way an operator would:
    // no new rehash leases are granted from here on (in-flight ones still
    // commit, bounded by the lease timeout, inside the slack after the probes),
    // so the version sample at the end observes a settled directory
    // instead of racing a cascade that is still adapting to post-fault
    // load.
    scheme.set_adaptation_frozen(true);

    // The audited population: agents still alive (churn may have replaced
    // some) on nodes that are up. With a fully-healing plan that is every
    // survivor; under an unhealed plan, stranded agents are unreachable by
    // construction and excluded.
    let reachable: Vec<AgentId> = tagents
        .iter()
        .copied()
        .filter(|&id| {
            platform.is_live(id)
                && platform
                    .agent_node(id)
                    .is_some_and(|node| !platform.node_is_down(node))
        })
        .collect();

    // -- Locatability ----------------------------------------------------
    // Forwarding keeps per-node pointer chains with no repair path: any
    // crash or partition can sever a chain permanently (the gap this
    // scheme is the foil for), so the check only binds it on fault-free
    // plans.
    let check_locate = scenario.faults.is_empty() || scheme.name() != "forwarding";
    let probed = reachable.len();
    let mut outcome = ProbeOutcome::default();
    if probed > 0 {
        outcome = probe(platform, || scheme.make_client(), &reachable);
    }
    let located = outcome.located.len();
    let probe_stale = outcome.stale;
    let unlocatable = outcome.unlocatable(&reachable);
    if check_locate && !unlocatable.is_empty() {
        violations.push(format!(
            "{} of {} reachable agents unlocatable after quiesce: {:?}",
            unlocatable.len(),
            probed,
            &unlocatable[..unlocatable.len().min(8)]
        ));
    }

    // -- Version convergence ---------------------------------------------
    let versions: Vec<(u64, CopyRole, u64)> = scheme
        .hash_versions()
        .into_iter()
        .filter(|&(id, _, _)| platform.is_live(AgentId::new(id)))
        .collect();
    let mut versions_converged = true;
    if !versions.is_empty() {
        let max = versions.iter().map(|&(_, _, v)| v).max().unwrap_or(0);
        let primary = versions
            .iter()
            .find(|&&(_, role, _)| role == CopyRole::Primary);
        match primary {
            Some(&(_, _, v)) if v < max => {
                versions_converged = false;
                violations.push(format!(
                    "primary HAgent at hash-function version {v}, but a live copy holds {max}"
                ));
            }
            None => {
                versions_converged = false;
                violations.push("no live primary HAgent at quiesce".to_owned());
            }
            Some(_) => {}
        }
        if strict_versions {
            let stale: Vec<(u64, u64)> = versions
                .iter()
                .filter(|&&(_, _, v)| v != max)
                .map(|&(id, _, v)| (id, v))
                .collect();
            if !stale.is_empty() {
                versions_converged = false;
                violations.push(format!(
                    "{} live hash-function copies below version {max}: {:?}",
                    stale.len(),
                    &stale[..stale.len().min(8)]
                ));
            }
        }
    }

    // -- Single ownership ------------------------------------------------
    // Live trackers' record-count gauges (refreshed on their periodic
    // check timer) must not exceed the live population: an agent counted
    // twice means two IAgents both believe they own it.
    let live_agents = tagents.iter().filter(|&&id| platform.is_live(id)).count();
    let records_held: u64 = scheme
        .shared()
        .tracker_rows()
        .trackers
        .iter()
        .filter(|&&(id, _)| platform.is_live(AgentId::new(id)))
        .map(|(_, t)| t.records_held as u64)
        .sum();
    if scheme.name() == "hashed" && records_held > live_agents as u64 {
        violations.push(format!(
            "live IAgents hold {records_held} records for {live_agents} live agents \
             (duplicate ownership)"
        ));
    }

    // -- Mail accounting -------------------------------------------------
    if scenario.faults.is_empty() && scenario.loss == 0.0 && report.mail_lost > 0 {
        violations.push(format!(
            "{} guaranteed-delivery messages lost in a fault-free, loss-free run",
            report.mail_lost
        ));
    }

    // -- Recovery convergence --------------------------------------------
    // Recovery is bounded by its timeout, so by the time the audit runs
    // every recovery that started must have declared RecoveryEnd. One that
    // has not is wedged in degraded mode, answering stale indefinitely.
    let stats = scheme.stats();
    if stats.recoveries_started > stats.recoveries_completed {
        violations.push(format!(
            "{} of {} tracker recoveries still unfinished at quiesce",
            stats.recoveries_started - stats.recoveries_completed,
            stats.recoveries_started
        ));
    }

    // -- Freshness bounds ------------------------------------------------
    // The client audits every answer against the bound its locate
    // declared; a single violation means a tracker served a record older
    // than it promised.
    if stats.bound_violations > 0 {
        violations.push(format!(
            "{} answers declared an age above their locate's freshness bound",
            stats.bound_violations
        ));
    }
    if let Some(bound) = scenario.freshness.bound_ms() {
        if report.max_answer_age_ms > bound {
            violations.push(format!(
                "an answer declared age {} ms against a {} ms staleness budget",
                report.max_answer_age_ms, bound
            ));
        }
    }
    // With every recovery converged and the faults healed, replica sets
    // must have reconverged: the post-quiesce probes (issued without a
    // freshness bound) must come from authoritative records, never from a
    // stale replica or recovery copy.
    if stats.recoveries_started == stats.recoveries_completed && probe_stale > 0 {
        violations.push(format!(
            "{probe_stale} post-quiesce probes answered stale after every recovery converged \
             (replica set failed to reconverge)"
        ));
    }

    scheme.set_adaptation_frozen(false);

    InvariantReport {
        probed,
        located,
        unlocatable,
        version_copies: versions.len(),
        versions_converged,
        records_held,
        live_agents,
        mail_lost: report.mail_lost,
        recoveries_started: stats.recoveries_started,
        recoveries_completed: stats.recoveries_completed,
        stale_answers: stats.stale_answers,
        bound_violations: stats.bound_violations,
        probe_stale,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use agentrack_core::Freshness;
    use agentrack_platform::PlatformConfig;
    use agentrack_sim::{DurationDist, FaultEvent, FaultKind, FaultPlan, SimTime, Topology};

    use super::*;

    /// How long the stub takes to answer a target, by raw id; `None`
    /// never answers.
    type AnswerTime = fn(u64) -> Option<SimDuration>;

    /// A client that answers each locate from a timer of its own, after
    /// the target's answer time, and logs when and from which node each
    /// locate went out.
    struct StubClient {
        answer_time: AnswerTime,
        pending: Vec<(TimerId, u64, AgentId)>,
        issued: Arc<Mutex<Vec<(SimTime, u64, NodeId)>>>,
    }

    impl DirectoryClient for StubClient {
        fn register(&mut self, _: &mut AgentCtx<'_>) {}

        fn moved(&mut self, _: &mut AgentCtx<'_>) {}

        fn deregister(&mut self, _: &mut AgentCtx<'_>) {}

        fn locate_with(
            &mut self,
            ctx: &mut AgentCtx<'_>,
            target: AgentId,
            token: u64,
            _: Freshness,
        ) {
            self.issued
                .lock()
                .push((ctx.now(), target.raw(), ctx.node()));
            if let Some(after) = (self.answer_time)(target.raw()) {
                self.pending.push((ctx.set_timer(after), token, target));
            }
        }

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

        fn on_timer(&mut self, _: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent {
            let i = self
                .pending
                .iter()
                .position(|&(t, _, _)| t == timer)
                .expect("the probe passed the client a timer it never set");
            let (_, token, target) = self.pending.swap_remove(i);
            ClientEvent::Located {
                token,
                target,
                node: NodeId::new(0),
                stale: false,
                age_ms: 0,
            }
        }
    }

    /// What one probe run did: when each locate went out (ms since the
    /// probe started, and the raw target), the node each went out from,
    /// the unlocatable targets, how long the run lasted and how many
    /// probers it spawned.
    struct Run {
        issued: Vec<(f64, u64)>,
        from: Vec<NodeId>,
        unlocatable: Vec<u64>,
        length: SimDuration,
        probers: usize,
    }

    fn run(targets: u64, answer_time: AnswerTime) -> Run {
        run_on(1, None, targets, answer_time)
    }

    /// Probes targets `1..=targets` on a `nodes`-node LAN, with `down`
    /// crashed for good before the audit starts.
    fn run_on(nodes: u32, down: Option<u32>, targets: u64, answer_time: AnswerTime) -> Run {
        let topology = Topology::lan(nodes, DurationDist::Constant(SimDuration::from_micros(100)));
        let mut platform = SimPlatform::new(topology, PlatformConfig::default());
        if let Some(node) = down {
            let mut plan = FaultPlan::new();
            plan.push(FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::NodeCrash {
                    node: NodeId::new(node),
                    lose_soft_state: false,
                    restart_at: None,
                },
            });
            platform.set_fault_plan(&plan);
            platform.run_for(SimDuration::from_millis(1));
            assert!(platform.node_is_down(NodeId::new(node)));
        }
        let issued = Arc::new(Mutex::new(Vec::new()));
        let new_client = || -> Box<dyn DirectoryClient> {
            Box::new(StubClient {
                answer_time,
                pending: Vec::new(),
                issued: Arc::clone(&issued),
            })
        };
        let targets: Vec<AgentId> = (1..=targets).map(AgentId::new).collect();
        let start = platform.now();
        let agents = platform.agent_count();
        let mut outcome = probe(&mut platform, new_client, &targets);
        let issued = issued.lock();
        Run {
            issued: issued
                .iter()
                .map(|&(at, raw, _)| ((at - start).as_secs_f64() * 1e3, raw))
                .collect(),
            from: issued.iter().map(|&(_, _, node)| node).collect(),
            unlocatable: outcome.unlocatable(&targets),
            length: platform.now() - start,
            probers: platform.agent_count() - agents,
        }
    }

    fn ms(d: SimDuration) -> f64 {
        d.as_secs_f64() * 1e3
    }

    #[test]
    fn probes_answered_at_once_run_back_to_back() {
        let r = run(100, |_| Some(SimDuration::from_millis(1)));
        let first = r.issued[0].0;
        let expected: Vec<(f64, u64)> = (1..=100)
            .map(|raw| (first + raw as f64 - 1.0, raw))
            .collect();
        assert_eq!(
            r.issued, expected,
            "each probe goes out as its predecessor answers"
        );
        assert!(r.unlocatable.is_empty());
        // The probe phase is 100 answer-times, not 100 paces.
        assert_eq!(ms(r.length - PROBE_SLACK), first + 100.0);
    }

    #[test]
    fn a_silent_target_holds_the_next_probe_one_pace_and_is_unlocatable() {
        let r = run(10, |raw| (raw != 4).then_some(SimDuration::from_millis(1)));
        let at = |raw: u64| r.issued.iter().find(|&&(_, t)| t == raw).unwrap().0;
        assert_eq!(r.issued.len(), 10);
        assert_eq!(at(5) - at(4), ms(PROBE_PACE));
        assert_eq!(at(4) - at(3), 1.0);
        assert_eq!(at(6) - at(5), 1.0);
        assert_eq!(r.unlocatable, vec![4]);
        // A probe that never ends keeps the phase open to its cap.
        assert_eq!(r.length, PROBE_PACE * 10 + PROBE_SLACK);

        let silent = run(5, |_| None);
        assert_eq!(silent.unlocatable, vec![1, 2, 3, 4, 5]);
        assert_eq!(silent.length, PROBE_PACE * 5 + PROBE_SLACK);
    }

    #[test]
    fn a_late_answer_to_an_older_probe_issues_nothing() {
        // Target 1 answers after 120 ms, past its pace and inside the
        // back-to-back run of targets 3..=40; target 2 never answers.
        let r = run(40, |raw| match raw {
            1 => Some(SimDuration::from_millis(120)),
            2 => None,
            _ => Some(SimDuration::from_millis(1)),
        });
        let first = r.issued[0].0;
        let pace = ms(PROBE_PACE);
        let mut expected = vec![(first, 1), (first + pace, 2)];
        expected.extend((3..=40).map(|raw| (first + 2.0 * pace + raw as f64 - 3.0, raw)));
        assert_eq!(r.issued, expected, "one probe in flight at a time");
        assert_eq!(r.unlocatable, vec![2]);
    }

    #[test]
    fn shares_probe_side_by_side_and_a_silent_target_holds_only_its_own() {
        // Four nodes, ten targets each: node k probes 10k+1..=10k+10.
        let r = run_on(4, None, 40, |_| Some(SimDuration::from_millis(1)));
        let first = r.issued[0].0;
        let mut expected: Vec<(f64, u64, NodeId)> = (1..=40)
            .map(|raw| {
                let at = first + ((raw - 1) % 10) as f64;
                (at, raw, NodeId::new(((raw - 1) / 10) as u32))
            })
            .collect();
        let mut got: Vec<(f64, u64, NodeId)> = r
            .issued
            .iter()
            .zip(&r.from)
            .map(|(&(at, raw), &node)| (at, raw, node))
            .collect();
        expected.sort_by_key(|&(_, raw, _)| raw);
        got.sort_by_key(|&(_, raw, _)| raw);
        assert_eq!(got, expected, "each share runs back to back on its node");
        assert_eq!(r.probers, 4);
        assert!(r.unlocatable.is_empty());
        // The phase is one share's answer-times, not all forty.
        assert_eq!(ms(r.length - PROBE_SLACK), first + 10.0);

        let silent_4 = |raw| (raw != 4).then_some(SimDuration::from_millis(1));
        let r = run_on(4, None, 40, silent_4);
        let at = |raw: u64| r.issued.iter().find(|&&(_, t)| t == raw).unwrap().0;
        assert_eq!(r.issued.len(), 40);
        assert_eq!(
            at(5) - at(4),
            ms(PROBE_PACE),
            "target 4 holds its own share"
        );
        for raw in 11..=40 {
            assert_eq!(at(raw), first + ((raw - 1) % 10) as f64, "target {raw}");
        }
        assert_eq!(r.unlocatable, run(40, silent_4).unlocatable);
        assert_eq!(r.unlocatable, vec![4]);
        // A probe that never ends keeps the phase open to the cap: a pace
        // per target of the largest share.
        assert_eq!(r.length, PROBE_PACE * 10 + PROBE_SLACK);

        // Ten targets over four nodes: shares of 2, 3, 2 and 3.
        let silent = run_on(4, None, 10, |_| None);
        assert_eq!(silent.unlocatable, (1..=10).collect::<Vec<_>>());
        assert_eq!(silent.length, PROBE_PACE * 3 + PROBE_SLACK);
    }

    #[test]
    fn a_down_node_probes_nothing_and_its_share_goes_to_the_nodes_up() {
        let r = run_on(4, Some(1), 30, |_| Some(SimDuration::from_millis(1)));
        assert_eq!(r.probers, 3, "no prober on the down node");
        assert_eq!(r.issued.len(), 30);
        for (&(_, raw), &node) in r.issued.iter().zip(&r.from) {
            let want = [0, 2, 3][((raw - 1) / 10) as usize];
            assert_eq!(node, NodeId::new(want), "target {raw}");
        }
        assert!(r.unlocatable.is_empty());
        let first = r.issued[0].0;
        assert_eq!(ms(r.length - PROBE_SLACK), first + 10.0);
    }
}
