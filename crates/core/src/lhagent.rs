//! The Local Hash Agent (LHAgent): one per node, holding a lazily updated
//! secondary copy of the hash function.
//!
//! "For reasons of efficiency, copies of this hash function are maintained
//! locally in every node of the system. These copies may be temporally
//! out-of-date (secondary copies)." Updates propagate on demand: a client
//! that hits a `NotResponsible` answer asks its LHAgent to `ResolveFresh`,
//! which makes the LHAgent fetch the primary copy from the HAgent before
//! answering (paper §4.3).
//!
//! A fetch names the version held, and the HAgent answers with the ops
//! that version lacks (`HashFnDelta`) while its log covers it, or with the
//! whole copy (`HashFnCopy`). Both replies take the same "advance to
//! version v" step; a delta that does not apply is discarded for a whole
//! copy.

use std::collections::HashMap;

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::{CorrId, SimDuration, SimTime, TraceEvent};

use crate::hashfn::HashFunction;
use crate::scheme::{CopyRole, SharedSchemeStats};
use crate::wire::{send_traced, Wire};

/// How long to wait for a fetch reply before assuming it lost and failing
/// over to the next source.
const FETCH_TIMEOUT: SimDuration = SimDuration::from_millis(800);
/// All-sources-dead backoff: first delay, doubling per failed round.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(100);
/// Ceiling of the exponential backoff.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(2);

/// Capped exponential backoff after `rounds` rounds in which every source
/// bounced (`base · 2^rounds`, capped) plus up to one base interval of
/// jitter drawn from `entropy`, so co-located LHAgents do not stampede the
/// control plane the moment a source returns.
fn backoff_delay(rounds: u32, entropy: u64) -> SimDuration {
    let base = BACKOFF_BASE.as_nanos();
    let exp = base
        .saturating_mul(1u64 << rounds.min(16))
        .min(BACKOFF_CAP.as_nanos());
    SimDuration::from_nanos(exp.saturating_add(entropy % base))
}

/// Behaviour of an LHAgent.
#[derive(Debug)]
pub struct LHAgentBehavior {
    hf: HashFunction,
    /// The buddy of each IAgent a resolve has named under version
    /// `buddies_version` of the copy. [`HashFunction::buddy_of`] walks a
    /// hyper-label, and its answer changes only with the version.
    buddies: HashMap<AgentId, Option<(AgentId, NodeId)>>,
    buddies_version: u64,
    /// Hash-function sources, primary first, then standbys (failover
    /// order).
    hagents: Vec<(AgentId, NodeId)>,
    /// Index of the source currently fetched from.
    current_hagent: usize,
    /// Resolves waiting for a fresh copy:
    /// `(requester, target, token, corr)`.
    waiting: Vec<(AgentId, AgentId, Option<u64>, Option<CorrId>)>,
    /// Deregisters whose forward bounced off a tracker that no longer
    /// exists, waiting for a fresh copy to re-route. The dying sender is
    /// gone, so this LHAgent is the only party left who can retry.
    pending_dereg: Vec<(AgentId, u32)>,
    fetch_in_flight: bool,
    /// When the in-flight fetch was sent; a reply overdue past the timeout
    /// (lost to the network, or the HAgent died without a bounce) clears
    /// the flag so waiting clients are not wedged forever.
    fetch_sent_at: SimTime,
    /// Periodic version-audit interval: when set, the LHAgent re-fetches
    /// the hash function on a timer so its copy converges (and failover
    /// fires) even without client traffic.
    audit: Option<SimDuration>,
    audit_timer: Option<TimerId>,
    shared: SharedSchemeStats,
    /// Set when a delta did not apply: fetches then ask for a whole copy
    /// (`have_version: 0`) until one has advanced the copy.
    copy_wanted: bool,
    /// Consecutive rounds in which every source bounced; indexes the
    /// exponential backoff, reset by any received copy.
    failed_rounds: u32,
}

impl LHAgentBehavior {
    /// Creates an LHAgent holding an initial secondary copy.
    #[must_use]
    pub fn new(
        hf: HashFunction,
        hagent: AgentId,
        hagent_node: NodeId,
        shared: SharedSchemeStats,
    ) -> Self {
        LHAgentBehavior {
            buddies_version: hf.version,
            hf,
            buddies: HashMap::new(),
            hagents: vec![(hagent, hagent_node)],
            current_hagent: 0,
            waiting: Vec::new(),
            pending_dereg: Vec::new(),
            fetch_in_flight: false,
            fetch_sent_at: SimTime::ZERO,
            audit: None,
            audit_timer: None,
            shared,
            copy_wanted: false,
            failed_rounds: 0,
        }
    }

    /// Adds a standby HAgent to fail over to when the primary is
    /// unreachable.
    #[must_use]
    pub fn with_standby(mut self, standby: AgentId, node: NodeId) -> Self {
        self.hagents.push((standby, node));
        self
    }

    /// Enables periodic version audits at `interval` (`None` keeps the
    /// paper's purely lazy refresh).
    #[must_use]
    pub fn with_audit(mut self, interval: Option<SimDuration>) -> Self {
        self.audit = interval;
        self
    }

    /// Answers a resolve from the local copy. Requesters are by definition
    /// on this node ("its own local LHAgent").
    fn answer(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        requester: AgentId,
        target: AgentId,
        token: Option<u64>,
        corr: Option<CorrId>,
    ) {
        let (iagent, node) = self.hf.resolve(target);
        // The responsible tracker's buddy replica rides along so clients
        // can hedge freshness-bounded locates cross-region when the
        // tracker itself looks unreachable.
        let buddy = self.buddy_of(iagent);
        let resolved = Wire::Resolved {
            target,
            iagent,
            node,
            buddy,
            version: self.hf.version,
            token,
            corr,
        };
        send_traced(ctx, requester, ctx.node(), &resolved);
    }

    /// [`HashFunction::buddy_of`] under the held copy, computed once per
    /// IAgent and version.
    fn buddy_of(&mut self, iagent: AgentId) -> Option<(AgentId, NodeId)> {
        if self.buddies_version != self.hf.version {
            self.buddies.clear();
            self.buddies_version = self.hf.version;
        }
        let hf = &self.hf;
        *self
            .buddies
            .entry(iagent)
            .or_insert_with(|| hf.buddy_of(iagent))
    }

    /// Re-routes deregisters that bounced off merged-away trackers, under
    /// whatever copy the LHAgent now holds.
    fn flush_pending_dereg(&mut self, ctx: &mut AgentCtx<'_>) {
        let pending = std::mem::take(&mut self.pending_dereg);
        for (agent, ttl) in pending {
            let (iagent, node) = self.hf.resolve(agent);
            ctx.send(iagent, node, ctx.encode(&Wire::Deregister { agent, ttl }));
        }
    }

    fn fetch(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.fetch_in_flight {
            return;
        }
        self.fetch_in_flight = true;
        self.fetch_sent_at = ctx.now();
        let here = ctx.node();
        let (hagent, node) = self.hagents[self.current_hagent];
        ctx.send(
            hagent,
            node,
            ctx.encode(&Wire::FetchHashFn {
                have_version: if self.copy_wanted { 0 } else { self.hf.version },
                reply_node: here,
            }),
        );
        // Reply-loss watchdog: if no reply arrives, the timer clears the
        // in-flight flag and retries.
        ctx.set_timer(FETCH_TIMEOUT);
    }

    /// The one step both fetch replies take: a copy at version `to` (a
    /// [`Wire::HashFnCopy`]'s, or where a [`Wire::HashFnDelta`] ends)
    /// arrived, and `update` brings the local copy there, returning
    /// `false` when it cannot.
    ///
    /// An older version is a stale eager push racing our fetch: ignored,
    /// and the real reply (or the watchdog) handles waiting clients. The
    /// same version is an authoritative confirmation that the local copy
    /// is current, the freshest answer that exists. Only then, or after an
    /// update, are waiting resolves answered: the clients waiting already
    /// *rejected* the version held before. An update that fails is
    /// discarded for a whole copy.
    fn advance(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: u64,
        update: impl FnOnce(&mut HashFunction) -> bool,
    ) {
        if to < self.hf.version {
            return;
        }
        if to > self.hf.version {
            let advanced = update(&mut self.hf);
            self.shared
                .record_version(ctx.self_id().raw(), CopyRole::Secondary, self.hf.version);
            if !advanced {
                self.copy_wanted = true;
                self.fetch_in_flight = false;
                self.fetch(ctx);
                return;
            }
        }
        self.copy_wanted = false;
        self.fetch_in_flight = false;
        self.failed_rounds = 0;
        let waiting = std::mem::take(&mut self.waiting);
        for (requester, target, token, corr) in waiting {
            self.answer(ctx, requester, target, token, corr);
        }
        self.flush_pending_dereg(ctx);
    }
}

impl Agent for LHAgentBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.shared
            .record_version(ctx.self_id().raw(), CopyRole::Secondary, self.hf.version);
        if let Some(interval) = self.audit {
            self.audit_timer = Some(ctx.set_timer(interval));
        }
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, _lost_soft_state: bool) {
        // Whatever fetch was in flight died with the node, and so did
        // every timer. The secondary copy itself is kept: it may be
        // stale, which lazy refresh (or the audit) repairs.
        self.fetch_in_flight = false;
        self.failed_rounds = 0;
        self.waiting.clear();
        if let Some(interval) = self.audit {
            self.audit_timer = Some(ctx.set_timer(interval));
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::recv_traced(ctx, payload) else {
            return;
        };
        match msg {
            Wire::Resolve {
                target,
                token,
                corr,
            } => self.answer(ctx, from, target, token, corr),
            Wire::DeliverVia {
                target,
                from: origin,
                data,
                ttl,
            } => {
                // Entry point of mediated delivery: route the mail toward
                // the responsible IAgent under the local copy (which may
                // be stale — the trackers chase the rest of the way).
                let (iagent, node) = self.hf.resolve(target);
                ctx.send(
                    iagent,
                    node,
                    ctx.encode_owned(Wire::DeliverVia {
                        target,
                        from: origin,
                        data,
                        ttl,
                    }),
                );
            }
            Wire::ResolveFresh {
                target,
                token,
                corr,
            } => {
                self.waiting.push((from, target, token, corr));
                self.fetch(ctx);
            }
            Wire::Deregister { agent, ttl } => {
                // A dying agent deregisters through its local LHAgent
                // rather than its cached tracker: the sender disposes
                // itself right after the send, so a bounce off a tracker
                // that has since merged away would be lost with it. The
                // LHAgent outlives the agent — route toward the owner
                // under the local copy (which may be stale — the trackers
                // chase the rest of the way), and retry bounces below.
                let (iagent, node) = self.hf.resolve(agent);
                ctx.send(iagent, node, ctx.encode(&Wire::Deregister { agent, ttl }));
            }
            // The answer to our fetch, or an eager push from the HAgent.
            Wire::HashFnCopy { hf } => self.advance(ctx, hf.version, |copy| {
                *copy = hf;
                true
            }),
            Wire::HashFnDelta { from_version, ops } => {
                let to = from_version.saturating_add(ops.len() as u64);
                self.advance(ctx, to, |copy| copy.advance(from_version, &ops).is_ok());
            }
            _ => {}
        }
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) {
        // Our fetch bounced: the current HAgent is down. Fail over to the
        // next source; if that wraps back to the start (every source
        // tried), back off before retrying so a fully dead control plane
        // does not produce a hot bounce loop.
        // A forwarded deregister bounced: the resolved tracker was merged
        // away mid-flight. Park it, refetch the hash function, and re-route
        // under the newer copy (the ttl bounds pathological re-bounces).
        if let Some(Wire::Deregister { agent, ttl }) = Wire::from_payload(payload) {
            if ttl > 0 {
                self.pending_dereg.push((agent, ttl - 1));
                self.fetch(ctx);
            }
            return;
        }
        if matches!(Wire::from_payload(payload), Some(Wire::FetchHashFn { .. })) {
            self.fetch_in_flight = false;
            let from_source = self.hagents[self.current_hagent].0;
            self.current_hagent = (self.current_hagent + 1) % self.hagents.len();
            let to_source = self.hagents[self.current_hagent].0;
            let me = ctx.self_id();
            ctx.trace().emit(ctx.now(), || TraceEvent::Failover {
                by: me.raw(),
                from_source: from_source.raw(),
                to_source: to_source.raw(),
            });
            if self.waiting.is_empty() && self.pending_dereg.is_empty() {
                return;
            }
            if self.current_hagent == 0 {
                // Every source bounced in a row: back off exponentially
                // (with jitter) instead of hot-looping against a dead
                // control plane; the timer retries the fetch.
                let delay = backoff_delay(self.failed_rounds, ctx.rng().next_u64());
                self.failed_rounds = self.failed_rounds.saturating_add(1);
                ctx.set_timer(delay);
            } else {
                self.fetch(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.audit_timer == Some(timer) {
            self.audit_timer = self.audit.map(|interval| ctx.set_timer(interval));
            if !self.fetch_in_flight {
                self.fetch(ctx);
            }
            return;
        }
        if self.fetch_in_flight && ctx.now().saturating_since(self.fetch_sent_at) >= FETCH_TIMEOUT {
            // The reply never came (lost, or the HAgent crashed mid-fetch):
            // try the next source.
            self.fetch_in_flight = false;
            let from_source = self.hagents[self.current_hagent].0;
            self.current_hagent = (self.current_hagent + 1) % self.hagents.len();
            let to_source = self.hagents[self.current_hagent].0;
            let me = ctx.self_id();
            ctx.trace().emit(ctx.now(), || TraceEvent::Failover {
                by: me.raw(),
                from_source: from_source.raw(),
                to_source: to_source.raw(),
            });
        }
        if !self.waiting.is_empty() || !self.pending_dereg.is_empty() {
            self.fetch(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The all-sources-dead backoff doubles from 100 ms per failed round,
    /// caps at 2 s, and adds `entropy mod 100 ms` of jitter.
    #[test]
    fn backoff_doubles_from_the_base_to_the_cap() {
        let ms = SimDuration::from_millis;
        let delays: Vec<SimDuration> = (0..7).map(|rounds| backoff_delay(rounds, 0)).collect();
        assert_eq!(
            delays,
            [
                ms(100),
                ms(200),
                ms(400),
                ms(800),
                ms(1600),
                ms(2000),
                ms(2000)
            ]
        );
        assert_eq!(backoff_delay(u32::MAX, 0), ms(2000));
        let jitter = 99_999_999;
        assert_eq!(
            backoff_delay(0, 3 * BACKOFF_BASE.as_nanos() + jitter),
            ms(100) + SimDuration::from_nanos(jitter)
        );
        assert_eq!(FETCH_TIMEOUT, ms(800));
    }
}
