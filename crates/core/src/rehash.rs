//! An IAgent's requests to rehash its partition (paper §4): split it when
//! the rate exceeds `T_max`, merge it away when it falls below `T_min`;
//! one request at a time, with a back-off after each answer.

use agentrack_sim::{SimDuration, SimTime};

use crate::config::LocationConfig;
use crate::hashed::BOUNCE_RETRY_DELAY;
use crate::stats::LoadStats;
use crate::wire::{DenyReason, Wire};

/// The split or merge request of one IAgent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RehashAsk {
    /// None in flight; the next may not go before `until`.
    Quiet { until: SimTime },
    /// Sent `at`, its answer outstanding.
    Asked { at: SimTime },
}

impl RehashAsk {
    pub(crate) fn in_flight(self) -> bool {
        matches!(self, RehashAsk::Asked { .. })
    }

    /// The request to send now, if any: a split above `T_max`; else, when
    /// `merge` gives the tracker's age and the tree's leaf count, a merge
    /// below `T_min` once the tracker is past its warm-up and not alone.
    pub(crate) fn ask(
        &mut self,
        config: &LocationConfig,
        now: SimTime,
        stats: &mut LoadStats,
        merge: Option<(SimDuration, usize)>,
    ) -> Option<Wire> {
        if !matches!(*self, RehashAsk::Quiet { until } if now >= until) {
            return None;
        }
        let request = match merge {
            None => (stats.rate_per_sec(now) > config.t_max).then(|| Wire::SplitRequest {
                loads: stats.loads(),
            }),
            Some((age, leaves))
                if config.merge_enabled && age >= config.merge_warmup && leaves > 1 =>
            {
                (stats.rate_per_sec(now) < config.t_min).then_some(Wire::MergeRequest)
            }
            Some(_) => None,
        };
        if request.is_some() {
            *self = RehashAsk::Asked { at: now };
        }
        request
    }

    /// This tracker's partition changed (its label moved, or it got its
    /// first view): that answers a request in flight, and the next waits
    /// out the cooldown. Installs that left the partition alone must not
    /// come here: they would silence an overdue split.
    pub(crate) fn partition_changed(&mut self, config: &LocationConfig, now: SimTime) {
        *self = RehashAsk::Quiet {
            until: now + config.rehash_cooldown,
        };
    }

    /// The HAgent denied the request: back off per reason.
    pub(crate) fn denied(&mut self, config: &LocationConfig, now: SimTime, reason: DenyReason) {
        let backoff = match reason {
            // The pipeline (or this subtree's lease) is busy: the
            // conflicting rehash commits shortly, so retry fast — the
            // rate that justified this request is still there.
            DenyReason::Busy => BOUNCE_RETRY_DELAY,
            DenyReason::Cooldown | DenyReason::NoPlan => config.rehash_cooldown,
            // Read-only standby: the tree is frozen until the primary
            // returns; hammering the standby is futile.
            DenyReason::ReadOnly => config.rehash_lease_timeout(),
        };
        *self = RehashAsk::Quiet {
            until: now + backoff,
        };
    }

    /// Stops waiting for the answer to the request in flight: at once, or
    /// (`now` given) once the HAgent's own lease timeout plus its commit
    /// cooldown has certainly passed. A lost answer must not wedge the
    /// tracker, but re-asking earlier would race a lease still live on
    /// the HAgent and earn a pointless `Busy` denial.
    pub(crate) fn give_up(&mut self, config: &LocationConfig, now: Option<SimTime>) {
        if let RehashAsk::Asked { at } = *self {
            let overdue = config.rehash_lease_timeout() + config.rehash_cooldown;
            if now.is_none_or(|now| now.saturating_since(at) > overdue) {
                *self = RehashAsk::Quiet { until: at };
            }
        }
    }
}
