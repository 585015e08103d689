//! Scenario construction and execution: the experiment driver.
//!
//! A [`Scenario`] describes a complete experiment — topology, cost model,
//! TAgent population and mobility, query workload — and
//! [`Scenario::run_with`] executes it against any [`LocationScheme`],
//! producing a [`ScenarioReport`] with the paper's metric (average
//! location time) plus everything needed for the extended analyses.

use agentrack_core::{Freshness, LocationScheme};
use agentrack_platform::{NodeId, PlatformConfig, SimPlatform};
use agentrack_sim::{DurationDist, FaultPlan, SimDuration, Topology, TraceSink};
use serde::{Deserialize, Serialize};

use crate::invariants::{self, InvariantReport};
use crate::metrics::Metrics;
use crate::population::Population;
use crate::querier::{QuerierBehavior, TargetSelector, Targets};
use crate::tagent::{Lifecycle, NodeSelector, TAgentBehavior};

/// A complete experiment description.
///
/// Defaults reconstruct the paper's setup: a 16-node LAN, 300 µs one-way
/// latency, 1 ms per-message handler cost (a 2003-era Java agent platform:
/// one tracker saturates at about a thousand messages per second), constant
/// residence times, uniform node and target selection, 2000 queries.
///
/// # Examples
///
/// ```
/// use agentrack_core::{CentralizedScheme, LocationConfig};
/// use agentrack_workload::{RunOptions, Scenario};
///
/// let scenario = Scenario::new("smoke")
///     .with_agents(20)
///     .with_queries(50)
///     .with_seconds(6.0, 3.0);
/// let mut scheme = CentralizedScheme::new(LocationConfig::default());
/// let report = scenario.run_with(&mut scheme, RunOptions::new()).report;
/// assert!(report.locates_completed > 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name, echoed in reports.
    pub name: String,
    /// Number of LAN nodes.
    pub nodes: u32,
    /// Master seed: one seed fully determines the run.
    pub seed: u64,
    /// Number of tracked mobile agents (TAgents).
    pub agents: usize,
    /// Residence time at each node.
    pub residence: DurationDist,
    /// Number of querier agents (spread round-robin over nodes).
    pub queriers: usize,
    /// Total locate operations across all queriers.
    pub queries_total: u64,
    /// Warmup before the first query: lets registration and the initial
    /// rehash cascade settle.
    pub warmup: SimDuration,
    /// Measurement span after the warmup.
    pub measure: SimDuration,
    /// One-way remote latency distribution.
    pub latency: DurationDist,
    /// Per-message handler service time (the tracker capacity knob).
    pub service_time: DurationDist,
    /// Zipf exponent for query targets (`None`/0 = uniform).
    pub query_skew: Option<f64>,
    /// Zipf exponent for mobility destinations (`None`/0 = uniform).
    pub mobility_skew: Option<f64>,
    /// Message loss probability (failure injection).
    pub loss: f64,
    /// Message duplication probability (failure injection).
    pub duplication: f64,
    /// Extra run time past `warmup + measure` so late-issued queries (and,
    /// for a saturated tracker, queued answers) still complete.
    pub grace: SimDuration,
    /// Population churn: when set, each TAgent lives for a sampled span,
    /// then deregisters, dies, and spawns a successor — steady population
    /// size, turning membership.
    pub churn_lifespan: Option<DurationDist>,
    /// Scheduled fault injection: partitions, node crashes/restarts,
    /// latency spikes, loss bursts, blackholes (empty = fault-free).
    pub faults: FaultPlan,
    /// Flash crowds: extra bursts of queries concentrated in short
    /// windows, on top of the steady workload (E17, diurnal workloads).
    pub spikes: Vec<QuerySpike>,
    /// WAN regions the nodes are split into (contiguous ranges). `0` or
    /// `1` keeps the plain LAN topology; `> 1` builds a regional
    /// topology where cross-region messages pay `inter_region_latency`
    /// and region links can be severed by
    /// [`agentrack_sim::FaultKind::RegionSever`] faults.
    pub regions: u32,
    /// One-way latency between regions (only used when `regions > 1`).
    pub inter_region_latency: DurationDist,
    /// Freshness requirement every querier attaches to its locates
    /// (default [`Freshness::Any`], the pre-geo behaviour).
    pub freshness: Freshness,
}

/// A flash crowd riding on top of the steady query workload: `queries`
/// extra locates issued by `queriers` dedicated querier agents, paced over
/// `span` starting at `at` (measured from the start of the run).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuerySpike {
    /// When the spike begins, from the start of the run.
    pub at: SimDuration,
    /// How long the spike lasts.
    pub span: SimDuration,
    /// Extra locate operations issued during the spike.
    pub queries: u64,
    /// Dedicated spike queriers (spread round-robin over nodes).
    pub queriers: usize,
}

/// Options for [`Scenario::run_with`]: the instruments to install on the
/// run's platform and the post-run checks to perform. `RunOptions::new()`
/// (or `default()`) is a plain, uninstrumented, unaudited run.
#[derive(Default)]
pub struct RunOptions {
    /// Message tracer installed on the platform (diagnostics; identical
    /// seed ⇒ identical run, so a slow operation found in one run can be
    /// traced in a second).
    pub tracer: Option<agentrack_platform::MsgTracer>,
    /// Structured trace sink: protocol agents emit
    /// [`agentrack_sim::TraceEvent`]s into it, so a locate's multi-hop
    /// path can be reconstructed by correlation id after the run. Keep a
    /// clone to read the records afterwards. Disabled by default.
    pub sink: TraceSink,
    /// When set, audit the post-quiesce invariants after the run and
    /// return the result in [`RunOutput::invariants`].
    pub audit: Option<AuditOptions>,
}

impl RunOptions {
    /// A plain run: no tracer, no trace sink, no invariant audit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a message tracer on the run's platform.
    #[must_use]
    pub fn with_tracer(mut self, tracer: agentrack_platform::MsgTracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Installs a structured [`TraceSink`] on the run's platform.
    #[must_use]
    pub fn with_sink(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Requests a post-quiesce invariant audit after the run.
    #[must_use]
    pub fn with_audit(mut self, audit: AuditOptions) -> Self {
        self.audit = Some(audit);
        self
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("tracer", &self.tracer.as_ref().map(|_| "MsgTracer"))
            .field("sink", &self.sink)
            .field("audit", &self.audit)
            .finish()
    }
}

/// How to audit the post-quiesce invariants after a run: every reachable
/// TAgent is locatable through the scheme, hash-function versions converge
/// across live copies, no record is owned by two trackers, and mail loss
/// is accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditOptions {
    /// Demand *every* live hash-function copy match the primary's version
    /// — only sound when the scheme runs with a
    /// [`version audit`](agentrack_core::LocationConfig::with_version_audit),
    /// since the paper's propagation is deliberately lazy.
    pub strict_versions: bool,
}

/// Everything one [`Scenario::run_with`] call produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The scenario report: the paper's metric plus diagnostics.
    pub report: ScenarioReport,
    /// Per-locate samples `(issue time, target, elapsed)` for tail
    /// analyses, from the bounded reservoir.
    pub samples: Vec<(
        agentrack_sim::SimTime,
        agentrack_platform::AgentId,
        SimDuration,
    )>,
    /// The invariant audit result, when [`RunOptions::audit`] was set.
    pub invariants: Option<InvariantReport>,
}

impl Scenario {
    /// Creates a scenario with the reconstructed paper defaults.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            nodes: 16,
            seed: 42,
            agents: 100,
            residence: DurationDist::Constant(SimDuration::from_millis(500)),
            queriers: 32,
            queries_total: 2000,
            warmup: SimDuration::from_secs(15),
            measure: SimDuration::from_secs(15),
            latency: DurationDist::Constant(SimDuration::from_micros(300)),
            service_time: DurationDist::Constant(SimDuration::from_millis(1)),
            query_skew: None,
            mobility_skew: None,
            loss: 0.0,
            duplication: 0.0,
            grace: SimDuration::from_secs(10),
            churn_lifespan: None,
            faults: FaultPlan::new(),
            spikes: Vec::new(),
            regions: 0,
            inter_region_latency: DurationDist::Constant(SimDuration::from_millis(30)),
            freshness: Freshness::Any,
        }
    }

    /// Sets the TAgent population.
    #[must_use]
    pub fn with_agents(mut self, agents: usize) -> Self {
        self.agents = agents;
        self
    }

    /// Sets the residence time to a constant.
    #[must_use]
    pub fn with_residence_ms(mut self, ms: u64) -> Self {
        self.residence = DurationDist::Constant(SimDuration::from_millis(ms));
        self
    }

    /// Sets the total query count.
    #[must_use]
    pub fn with_queries(mut self, total: u64) -> Self {
        self.queries_total = total;
        self
    }

    /// Sets warmup and measurement spans in seconds.
    #[must_use]
    pub fn with_seconds(mut self, warmup: f64, measure: f64) -> Self {
        self.warmup = SimDuration::from_secs_f64(warmup);
        self.measure = SimDuration::from_secs_f64(measure);
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a scheduled fault plan on the run's platform.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Splits the nodes into `regions` contiguous WAN regions with the
    /// given one-way inter-region latency (milliseconds). `regions <= 1`
    /// keeps the plain LAN.
    #[must_use]
    pub fn with_regions(mut self, regions: u32, inter_region_ms: f64) -> Self {
        self.regions = regions;
        self.inter_region_latency =
            DurationDist::Constant(SimDuration::from_secs_f64(inter_region_ms / 1000.0));
        self
    }

    /// Sets the freshness requirement queriers attach to every locate.
    #[must_use]
    pub fn with_freshness(mut self, freshness: Freshness) -> Self {
        self.freshness = freshness;
        self
    }

    /// Adds a flash-crowd query spike on top of the steady workload.
    /// May be called repeatedly; spikes stack (a diurnal workload is a
    /// sequence of spikes riding one baseline).
    #[must_use]
    pub fn with_spike(mut self, spike: QuerySpike) -> Self {
        self.spikes.push(spike);
        self
    }

    /// Total virtual duration of the run.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.warmup + self.measure
    }

    /// Runs the scenario against a scheme with the given [`RunOptions`] —
    /// the single entry point, the one the spec-driven trial runner
    /// drives.
    ///
    /// The options choose the optional instruments (message tracer,
    /// structured [`TraceSink`]) and whether to audit the post-quiesce
    /// invariants afterwards; the returned [`RunOutput`] carries the
    /// report, the per-locate samples, and the audit result when one was
    /// requested.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is degenerate (no agents, no queriers with
    /// queries, zero nodes).
    pub fn run_with(&self, scheme: &mut dyn LocationScheme, options: RunOptions) -> RunOutput {
        let RunOptions {
            tracer,
            sink,
            audit,
        } = options;
        let (report, samples, mut platform, tagents, population) =
            self.run_full(scheme, tracer, sink);
        let invariants = audit.map(|audit| {
            // Pin the roster for the audit: its locate probes advance
            // simulated time, and a population still churning underneath
            // them would fail (or mask) checks for reasons that are not
            // violations.
            if let Some(population) = &population {
                population.freeze();
            }
            invariants::check(
                self,
                scheme,
                &mut platform,
                &tagents,
                &report,
                audit.strict_versions,
            )
        });
        RunOutput {
            report,
            samples,
            invariants,
        }
    }

    #[allow(clippy::type_complexity)]
    fn run_full(
        &self,
        scheme: &mut dyn LocationScheme,
        tracer: Option<agentrack_platform::MsgTracer>,
        sink: TraceSink,
    ) -> (
        ScenarioReport,
        Vec<(
            agentrack_sim::SimTime,
            agentrack_platform::AgentId,
            SimDuration,
        )>,
        SimPlatform,
        Vec<agentrack_platform::AgentId>,
        Option<Population>,
    ) {
        assert!(self.nodes > 0, "scenario needs nodes");
        assert!(self.agents > 0, "scenario needs agents");
        assert!(
            self.queriers > 0 || self.queries_total == 0,
            "queries need queriers"
        );
        assert!(
            self.queries_total == 0 || !self.measure.is_zero(),
            "queries need a non-zero measurement span to be paced over"
        );

        let topology = if self.regions > 1 {
            Topology::regional(
                self.nodes,
                self.latency,
                self.regions,
                self.inter_region_latency,
            )
        } else {
            Topology::lan(self.nodes, self.latency)
        }
        .with_loss(self.loss)
        .with_duplication(self.duplication);
        let platform_config = PlatformConfig::default()
            .with_seed(self.seed)
            .with_handler_service_time(self.service_time);
        let mut platform = SimPlatform::new(topology, platform_config);
        if let Some(tracer) = tracer {
            platform.set_tracer(tracer);
        }
        if sink.is_enabled() {
            platform.set_trace_sink(sink);
        }
        if !self.faults.is_empty() {
            platform.set_fault_plan(&self.faults);
        }
        // Queries ramp up during the tail of the warmup so the measured
        // window sees steady state; only locates issued after the warmup
        // count.
        let measure_start = agentrack_sim::SimTime::ZERO + self.warmup;
        let metrics = Metrics::starting_at(measure_start);

        scheme.bootstrap(&mut platform);

        // TAgents, spread round-robin over nodes and staggered over the
        // first part of the warmup: a population materialising in one
        // instant would bury the initial IAgent under a registration
        // backlog deep enough to starve its own hash-function installs —
        // a bootstrapping pathology, not the steady state the paper
        // measures.
        let spawn_span = (self.warmup / 2).min(SimDuration::from_secs(10));
        let population = Population::new();
        let lifecycle = self.churn_lifespan.map(|lifespan| Lifecycle {
            lifespan,
            factory: scheme.client_factory(),
            population: population.clone(),
        });
        let mut tagents = Vec::with_capacity(self.agents);
        for i in 0..self.agents {
            let node = NodeId::new((i as u32) % self.nodes);
            let delay = spawn_span.mul_f64(i as f64 / self.agents.max(1) as f64);
            let mut behavior = TAgentBehavior::new(
                scheme.make_client(),
                self.residence,
                NodeSelector::new(self.nodes, self.mobility_skew),
                self.nodes,
                metrics.clone(),
            );
            if let Some(lifecycle) = &lifecycle {
                behavior = behavior.with_lifecycle(lifecycle.clone());
            }
            tagents.push(platform.spawn_after(Box::new(behavior), node, delay));
        }
        let targets = if lifecycle.is_some() {
            Targets::Live(population.clone())
        } else {
            Targets::Fixed(tagents.clone())
        };

        // Queriers: `queriers` agents split a budget of `queries` evenly,
        // remainder to the first, and pace it over `span` from `start`;
        // `span_scale` stretches each count over a longer window at the
        // same pace. Intervals are jittered and each querier is
        // phase-shifted: synchronized queriers would hit trackers in
        // lock-step bursts, measuring an artefact instead of the
        // steady-state location time.
        let mut spawn_queriers = |queriers: usize,
                                  queries: u64,
                                  start: SimDuration,
                                  span: SimDuration,
                                  span_scale: f64| {
            if queries == 0 {
                return;
            }
            let per = queries / queriers as u64;
            let mut remainder = queries % queriers as u64;
            let interval = span.mul_f64(queriers as f64 / queries as f64);
            let interval_dist = DurationDist::Uniform {
                lo: interval.mul_f64(0.5),
                hi: interval.mul_f64(1.5),
            };
            for i in 0..queriers {
                let mut count = per;
                if remainder > 0 {
                    count += 1;
                    remainder -= 1;
                }
                if count == 0 {
                    continue;
                }
                let count = (count as f64 * span_scale).ceil() as u64;
                let node = NodeId::new((i as u32) % self.nodes);
                let phase = interval.mul_f64(i as f64 / queriers as f64);
                let behavior = QuerierBehavior::new(
                    scheme.make_client(),
                    targets.clone(),
                    TargetSelector::new(self.agents, self.query_skew),
                    start + phase,
                    interval_dist,
                    count,
                    metrics.clone(),
                )
                .with_freshness(self.freshness);
                platform.spawn(Box::new(behavior), node);
            }
        };

        // The steady queriers pace the configured total over the
        // measurement span. They begin during the warmup ramp (their
        // early locates are exercised but not recorded, and extra queries
        // cover the ramp at the same pace) so switching the query load on
        // does not perturb the measured window.
        let ramp = (self.warmup / 2).min(SimDuration::from_secs(10));
        spawn_queriers(
            self.queriers,
            self.queries_total,
            self.warmup - ramp,
            self.measure,
            (ramp + self.measure).as_secs_f64() / self.measure.as_secs_f64(),
        );

        // Flash crowds: dedicated queriers that sit silent until their
        // spike instant, then issue their budget paced over the spike span.
        // They share the metrics sink — a spike inside the measured window
        // shows up in the locate percentiles, which is the point.
        for spike in self.spikes.iter().copied() {
            assert!(spike.queriers > 0, "a spike needs queriers");
            assert!(!spike.span.is_zero(), "a spike needs a non-zero span");
            spawn_queriers(spike.queriers, spike.queries, spike.at, spike.span, 1.0);
        }

        platform.run_for(self.duration() + self.grace);

        let scheme_stats = scheme.stats();
        let platform_stats = platform.stats();
        let rows = scheme.shared().tracker_rows();
        let sum = |f: fn(&agentrack_core::TrackerMetrics) -> u64| -> u64 {
            rows.trackers.iter().map(|(_, t)| f(t)).sum()
        };
        let (mail_buffered, mail_flushed, mail_lost) = (
            sum(|t| t.mail_buffered),
            sum(|t| t.mail_flushed),
            sum(|t| t.mail_lost),
        );
        let trace_dropped = platform.trace_sink().dropped();
        if trace_dropped > 0 {
            eprintln!(
                "warning: scenario '{}' ({}): trace ring overflowed, {} record(s) dropped — \
                 span trees for early operations may be incomplete; use a larger TraceSink",
                self.name,
                scheme.name(),
                trace_dropped,
            );
        }
        let samples = metrics.with(|m| std::mem::take(&mut m.locate_samples));
        let report = metrics.with(|m| ScenarioReport {
            scenario: self.name.clone(),
            scheme: scheme.name().to_owned(),
            agents: self.agents,
            residence_ms: self.residence.mean().as_millis_f64(),
            locates_issued: m.locates_issued,
            locates_completed: m.locate_times.len() as u64,
            locate_failures: m.locate_failures,
            mean_locate_ms: m.locate_times.mean().as_millis_f64(),
            p50_locate_ms: m.locate_times.percentile(50.0).as_millis_f64(),
            p95_locate_ms: m.locate_times.percentile(95.0).as_millis_f64(),
            p99_locate_ms: m.locate_times.percentile(99.0).as_millis_f64(),
            max_locate_ms: m.locate_times.max().as_millis_f64(),
            registrations: m.registrations,
            moves: m.moves,
            births: m.births,
            deaths: m.deaths,
            trackers: scheme_stats.trackers,
            peak_trackers: scheme_stats.peak_trackers,
            splits: scheme_stats.splits,
            merges: scheme_stats.merges,
            stale_hits: scheme_stats.stale_hits,
            hf_fetches: scheme_stats.hf_fetches,
            records_handed_off: scheme_stats.records_handed_off,
            chain_hops: scheme_stats.chain_hops,
            iagent_moves: scheme_stats.iagent_moves,
            tree_height: scheme_stats.tree_height,
            mean_prefix_bits: if scheme_stats.trackers > 0 {
                scheme_stats.depth_bits_total as f64 / scheme_stats.trackers as f64
            } else {
                0.0
            },
            messages_sent: platform_stats.messages_sent,
            messages_remote: platform_stats.messages_remote,
            messages_failed: platform_stats.messages_failed,
            mail_buffered,
            mail_flushed,
            mail_lost,
            record_syncs: scheme_stats.record_syncs,
            recoveries_started: scheme_stats.recoveries_started,
            recoveries_completed: scheme_stats.recoveries_completed,
            stale_answers: scheme_stats.stale_answers,
            replica_answers: scheme_stats.replica_answers,
            freshness_refusals: scheme_stats.freshness_refusals,
            hedged_locates: scheme_stats.hedged_locates,
            bound_violations: scheme_stats.bound_violations,
            stale_located: m.stale_answers,
            max_answer_age_ms: m.max_answer_age_ms,
            trace_dropped,
            samples_retained: samples.len() as u64,
            samples_seen: m.samples_seen,
        });
        // The roster the invariant audit probes: under churn the original
        // spawn list is long dead — hand back the live successors instead,
        // plus the shared roster so the audit can freeze further churn.
        let (tagents, population) = if self.churn_lifespan.is_some() {
            (population.snapshot(), Some(population))
        } else {
            (tagents, None)
        };
        (report, samples, platform, tagents, population)
    }
}

/// Results of one scenario run: the paper's metric plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scheme name.
    pub scheme: String,
    /// TAgent population.
    pub agents: usize,
    /// Mean residence time in milliseconds.
    pub residence_ms: f64,
    /// Locates issued.
    pub locates_issued: u64,
    /// Locates answered.
    pub locates_completed: u64,
    /// Locates that gave up.
    pub locate_failures: u64,
    /// Average location time (the paper's metric), in milliseconds.
    pub mean_locate_ms: f64,
    /// Median location time in milliseconds.
    pub p50_locate_ms: f64,
    /// 95th-percentile location time in milliseconds.
    pub p95_locate_ms: f64,
    /// 99th-percentile location time in milliseconds (the flash-crowd
    /// experiments report the tail the spike creates).
    pub p99_locate_ms: f64,
    /// Worst location time in milliseconds.
    pub max_locate_ms: f64,
    /// Registrations completed.
    pub registrations: u64,
    /// TAgent moves performed.
    pub moves: u64,
    /// TAgents born (initial population plus churn successors).
    pub births: u64,
    /// TAgents that died (churn).
    pub deaths: u64,
    /// Trackers at the end of the run.
    pub trackers: u64,
    /// Peak tracker count.
    pub peak_trackers: u64,
    /// Splits committed.
    pub splits: u64,
    /// Merges committed.
    pub merges: u64,
    /// Stale-copy detections (`NotResponsible` answers).
    pub stale_hits: u64,
    /// Hash-function copies served by the HAgent.
    pub hf_fetches: u64,
    /// Records handed off between IAgents.
    pub records_handed_off: u64,
    /// Forwarding-chain hops (forwarding baseline).
    pub chain_hops: u64,
    /// IAgent locality migrations (extension E9).
    pub iagent_moves: u64,
    /// Hash-tree height after the latest rehash (hashed scheme).
    pub tree_height: u64,
    /// Mean consumed-prefix length over IAgent leaves (hashed scheme).
    pub mean_prefix_bits: f64,
    /// Total platform messages.
    pub messages_sent: u64,
    /// Messages that crossed nodes (vs. node-local delivery).
    pub messages_remote: u64,
    /// Messages that bounced.
    pub messages_failed: u64,
    /// Guaranteed-delivery messages buffered while their target migrated.
    pub mail_buffered: u64,
    /// Buffered messages flushed once the target re-registered.
    pub mail_flushed: u64,
    /// Buffered messages dropped after their TTL expired (silent loss
    /// made visible).
    pub mail_lost: u64,
    /// Replication batches shipped to buddy replicas (hashed scheme with
    /// replication enabled).
    pub record_syncs: u64,
    /// Recoveries entered by restarted trackers that lost soft state.
    pub recoveries_started: u64,
    /// Recoveries that converged (or timed out) and resumed normal
    /// answering.
    pub recoveries_completed: u64,
    /// Degraded-mode `Located{stale}` answers served during recovery.
    pub stale_answers: u64,
    /// Freshness-bounded locates answered from a buddy replica by a
    /// non-responsible tracker (the partition-tolerant local-read path).
    pub replica_answers: u64,
    /// Locates a tracker refused to answer from the record it had because
    /// the record was older than the declared freshness bound.
    pub freshness_refusals: u64,
    /// Duplicate locates hedged to the responsible tracker's buddy
    /// replica because the tracker's node looked unreachable.
    pub hedged_locates: u64,
    /// Answers whose declared age exceeded the locate's freshness bound
    /// (audited client-side; the invariant demands zero).
    pub bound_violations: u64,
    /// Completed measured locates whose answer was marked stale (served
    /// from a replica or a recovering tracker), as seen by queriers.
    pub stale_located: u64,
    /// Largest declared answer age (ms) across completed measured
    /// locates.
    pub max_answer_age_ms: u64,
    /// Trace records dropped because the [`TraceSink`] ring overflowed
    /// (zero when tracing is disabled or the ring was large enough).
    pub trace_dropped: u64,
    /// Per-locate samples retained in the bounded reservoir.
    pub samples_retained: u64,
    /// Per-locate samples offered to the reservoir (every completed
    /// measured locate); `samples_retained < samples_seen` means the
    /// retained set is a uniform subsample.
    pub samples_seen: u64,
}

impl ScenarioReport {
    /// Fraction of issued locates that completed.
    #[must_use]
    pub fn completion_ratio(&self) -> f64 {
        if self.locates_issued == 0 {
            return 1.0;
        }
        self.locates_completed as f64 / self.locates_issued as f64
    }
}
