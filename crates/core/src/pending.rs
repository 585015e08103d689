//! The locates an IAgent serves: answered at once from its book, or held
//! until the record arrives (a handoff in flight, a recovered record not
//! yet reconfirmed) or the deadline passes.

use agentrack_platform::{AgentCtx, AgentId, NodeId};
use agentrack_sim::{CorrId, SimTime, TraceEvent};

use crate::records::{Record, RecordStore};
use crate::scheme::SharedSchemeStats;
use crate::wire::{send_traced, Freshness, Wire};

/// A locate being served.
#[derive(Debug)]
pub(crate) struct PendingLocate {
    pub target: AgentId,
    pub requester: AgentId,
    pub reply_node: NodeId,
    pub token: u64,
    pub freshness: Freshness,
    pub corr: Option<CorrId>,
    pub deadline: SimTime,
}

impl PendingLocate {
    /// Answers positively; callers check the freshness bound first. A
    /// stale record (recovered but unconfirmed, or read from a buddy's
    /// `replica`) is degraded mode, and counted and traced as such.
    fn answer(
        &self,
        ctx: &mut AgentCtx<'_>,
        shared: &SharedSchemeStats,
        record: Record,
        replica: bool,
    ) {
        if record.stale {
            shared.update(|s| {
                if replica {
                    s.replica_answers += 1;
                } else {
                    s.stale_answers += 1;
                }
            });
            let (me, target) = (ctx.self_id().raw(), self.target.raw());
            ctx.trace().emit(ctx.now(), || TraceEvent::StaleAnswer {
                tracker: me,
                target,
            });
        }
        let located = Wire::Located {
            target: self.target,
            node: record.node,
            stale: record.stale,
            age_ms: record.age_ms,
            token: self.token,
            corr: self.corr,
        };
        send_traced(ctx, self.requester, self.reply_node, &located);
    }

    /// Tells the requester that the target does not hash here.
    pub(crate) fn bounce(&self, ctx: &mut AgentCtx<'_>) {
        let bounce = Wire::NotResponsible {
            about: self.target,
            token: Some(self.token),
            corr: self.corr,
        };
        send_traced(ctx, self.requester, self.reply_node, &bounce);
    }

    /// Answers a locate whose target does not hash here: from `replica`
    /// (a buddy replica held here: its node and age) when that meets the
    /// freshness bound, which keeps bounded locates local under a severed
    /// inter-region link; else with a bounce, which drives the querier's
    /// hash-function refresh.
    pub(crate) fn answer_elsewhere(
        &self,
        ctx: &mut AgentCtx<'_>,
        shared: &SharedSchemeStats,
        replica: Option<(NodeId, u64)>,
    ) {
        match replica {
            Some((node, age_ms)) if self.freshness.admits(age_ms) => {
                let record = Record {
                    node,
                    stale: true,
                    age_ms,
                };
                self.answer(ctx, shared, record, true);
            }
            refused => {
                if refused.is_some() {
                    shared.update(|s| s.freshness_refusals += 1);
                }
                shared.update(|s| s.stale_hits += 1);
                self.bounce(ctx);
            }
        }
    }
}

/// The locates an IAgent holds until their records arrive.
#[derive(Debug, Default)]
pub(crate) struct PendingLocates(pub(crate) Vec<PendingLocate>);

impl PendingLocates {
    /// Serves a locate whose target hashes here, against its `record`:
    /// answered if the record meets the freshness bound, held otherwise —
    /// missing, a handoff may be in flight; too old, a reconfirming update
    /// keeps the bound unbroken.
    pub(crate) fn serve(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        shared: &SharedSchemeStats,
        p: PendingLocate,
        record: Option<Record>,
    ) {
        match record {
            Some(record) if p.freshness.admits(record.age_ms) => {
                p.answer(ctx, shared, record, false);
            }
            too_old_or_missing => {
                if too_old_or_missing.is_some() {
                    shared.update(|s| s.freshness_refusals += 1);
                }
                self.0.push(p);
            }
        }
    }

    /// Serves held locates whose records arrived, and answers `NotFound`
    /// to those past their deadline. A held locate whose freshness bound
    /// the record still fails (a `Fresh` read against a yet-unconfirmed
    /// recovery record, say) keeps waiting for reconfirmation.
    pub(crate) fn flush(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        book: &RecordStore,
        shared: &SharedSchemeStats,
    ) {
        let mut still = Vec::new();
        for p in std::mem::take(&mut self.0) {
            let admitted = book
                .lookup(p.target, ctx.now())
                .filter(|record| p.freshness.admits(record.age_ms));
            if let Some(record) = admitted {
                shared.update(|s| s.pending_served += 1);
                p.answer(ctx, shared, record, false);
            } else if ctx.now() >= p.deadline {
                let not_found = Wire::NotFound {
                    target: p.target,
                    token: p.token,
                    corr: p.corr,
                };
                send_traced(ctx, p.requester, p.reply_node, &not_found);
            } else {
                still.push(p);
            }
        }
        self.0 = still;
    }

    /// Removes and returns the held locates whose target no longer hashes
    /// here.
    pub(crate) fn take_foreign(&mut self, mine: impl Fn(AgentId) -> bool) -> Vec<PendingLocate> {
        let (stay, foreign) = std::mem::take(&mut self.0)
            .into_iter()
            .partition(|p| mine(p.target));
        self.0 = stay;
        foreign
    }
}
