//! The locality extension (paper §7, "the IAgents could move closer to the
//! majority of the agents that they serve"): an IAgent counts which nodes
//! its traffic comes from and migrates to the one that dominates it.

use std::collections::HashMap;

use agentrack_platform::NodeId;

use crate::config::LocationConfig;

/// One IAgent's recent request origins, and whether a move is in flight.
#[derive(Debug, Default)]
pub(crate) struct Locality {
    pub(crate) origin_counts: HashMap<NodeId, u64>,
    pub(crate) relocating: bool,
}

impl Locality {
    /// Decides whether to move from `here`: once enough requests were
    /// counted, to the node that originated at least the threshold share
    /// of them. Every decision starts a new count.
    pub(crate) fn destination(&mut self, config: &LocationConfig, here: NodeId) -> Option<NodeId> {
        let total: u64 = self.origin_counts.values().sum();
        if self.relocating || total < config.locality_min_requests {
            return None;
        }
        let (&top, &count) = self
            .origin_counts
            .iter()
            .max_by_key(|&(node, count)| (*count, std::cmp::Reverse(node.raw())))?;
        self.origin_counts.clear();
        self.relocating = top != here && count as f64 / total as f64 >= config.locality_threshold;
        self.relocating.then_some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_traffic_means_no_move_even_without_a_minimum() {
        let config = LocationConfig {
            locality_min_requests: 0,
            ..LocationConfig::default()
        };
        let mut locality = Locality::default();
        assert_eq!(locality.destination(&config, NodeId::new(0)), None);
        locality.origin_counts.insert(NodeId::new(2), 1);
        assert_eq!(
            locality.destination(&config, NodeId::new(0)),
            Some(NodeId::new(2))
        );
        assert!(locality.relocating && locality.origin_counts.is_empty());
    }
}
