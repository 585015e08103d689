//! The live population: which TAgents currently exist.
//!
//! Mobile-agent systems are "highly-dynamic open systems in which the
//! number of agents varies considerably over time as new agents are
//! created and existing agents die" (paper §1). Under churn, queriers must
//! target agents that are actually alive; this shared roster is how they
//! know.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use agentrack_platform::AgentId;
use agentrack_sim::{SimRng, Zipf};

/// Shared roster of live agents. Cheap to clone; all clones see the same
/// roster.
#[derive(Debug, Clone, Default)]
pub struct Population {
    roster: Arc<Mutex<Vec<AgentId>>>,
    /// Successors that are still being created: live, and in the
    /// [`snapshot`](Population::snapshot) the audit probes, but no query
    /// target until their own `on_create` [`add`](Population::add)s them.
    creating: Arc<Mutex<Vec<AgentId>>>,
    frozen: Arc<AtomicBool>,
}

impl Population {
    /// Creates an empty roster.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an agent (idempotent).
    pub fn add(&self, agent: AgentId) {
        self.creating.lock().unwrap().retain(|a| *a != agent);
        let mut v = self.roster.lock().unwrap();
        if !v.contains(&agent) {
            v.push(agent);
        }
    }

    /// Adds a successor as it is created, before it is active.
    pub fn add_creating(&self, agent: AgentId) {
        self.creating.lock().unwrap().push(agent);
    }

    /// Removes an agent.
    pub fn remove(&self, agent: AgentId) {
        self.roster.lock().unwrap().retain(|a| *a != agent);
    }

    /// Number of agents on the roster (successors still being created
    /// are not, yet).
    #[must_use]
    pub fn len(&self) -> usize {
        self.roster.lock().unwrap().len()
    }

    /// `true` when the roster is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roster.lock().unwrap().is_empty()
    }

    /// Stops churn: lifecycle death timers become no-ops, pinning the
    /// roster. The post-quiesce invariant audit freezes the population
    /// (alongside the scheme's adaptation) so its locate probes race
    /// neither deaths nor births.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Relaxed);
    }

    /// Whether churn is frozen.
    #[must_use]
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }

    /// Picks a uniformly random live agent.
    #[must_use]
    pub fn sample(&self, rng: &mut SimRng) -> Option<AgentId> {
        let v = self.roster.lock().unwrap();
        if v.is_empty() {
            None
        } else {
            Some(v[rng.index(v.len())])
        }
    }

    /// Picks a Zipf-ranked live agent: rank 0 is the oldest survivor.
    ///
    /// Roster order is stable between membership events (`remove` keeps
    /// relative order, successors append), so low Zipf ranks keep landing
    /// on the same long-lived agents — hot keys that persist while the
    /// population around them churns. Ranks past the roster clamp to the
    /// youngest agent.
    #[must_use]
    pub fn sample_zipf(&self, rng: &mut SimRng, zipf: &Zipf) -> Option<AgentId> {
        let v = self.roster.lock().unwrap();
        if v.is_empty() {
            None
        } else {
            Some(v[zipf.sample(rng).min(v.len() - 1)])
        }
    }

    /// Every live agent: the roster in rank order (oldest survivor first),
    /// then the successors still being created.
    #[must_use]
    pub fn snapshot(&self) -> Vec<AgentId> {
        let mut all = self.roster.lock().unwrap().clone();
        all.extend(self.creating.lock().unwrap().iter());
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_sample() {
        let p = Population::new();
        assert!(p.is_empty());
        assert_eq!(p.sample(&mut SimRng::seed_from(1)), None);
        p.add(AgentId::new(1));
        p.add(AgentId::new(2));
        p.add(AgentId::new(1)); // idempotent
        assert_eq!(p.len(), 2);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10 {
            let s = p.sample(&mut rng).unwrap();
            assert!(s == AgentId::new(1) || s == AgentId::new(2));
        }
        p.remove(AgentId::new(1));
        assert_eq!(p.sample(&mut rng), Some(AgentId::new(2)));
        let clone = p.clone();
        clone.remove(AgentId::new(2));
        assert!(p.is_empty());
    }
}
