//! The network model: nodes, link latencies, and failure injection.
//!
//! The paper ran on "a LAN network using Sun Blade running Solaris 2.8".
//! We model that as a full mesh of nodes with a configurable latency
//! distribution per remote hop, a near-zero latency for node-local
//! delivery, and optional message loss/duplication knobs used by the
//! failure-injection tests.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::rng::{DurationDist, SimRng};
use crate::time::{SimDuration, SimTime};

/// Identifier of a network node (an agent server in the platform).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The numeric value.
    #[must_use]
    pub const fn raw(&self) -> u32 {
        self.0
    }

    /// Index form, for direct table addressing.
    #[must_use]
    pub const fn index(&self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// What happened to a message offered to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver once, arriving after the given latency.
    Deliver(SimDuration),
    /// Deliver twice (duplicated in flight).
    Duplicate(SimDuration, SimDuration),
    /// Lost in flight; never arrives.
    Lost,
}

/// A partition of the node range into WAN regions, with an inter-region
/// one-way latency matrix.
///
/// Nodes in the same region talk at the owning [`Topology`]'s remote
/// (LAN) latency; nodes in different regions pay the matrix entry for
/// their region pair instead. The matrix is row-major `regions ×
/// regions`; diagonal entries are never sampled.
///
/// # Examples
///
/// ```
/// use agentrack_sim::{DurationDist, RegionTopo, SimDuration};
///
/// let wan = DurationDist::Constant(SimDuration::from_millis(40));
/// let topo = RegionTopo::contiguous(16, 2, wan);
/// assert_eq!(topo.region_count(), 2);
/// assert_eq!(topo.region_of_index(0), 0);
/// assert_eq!(topo.region_of_index(15), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionTopo {
    /// `region_of[node.index()]` is the node's region id.
    region_of: Vec<u32>,
    /// Number of regions.
    regions: u32,
    /// Row-major `regions × regions` inter-region latency matrix.
    inter_latency: Vec<DurationDist>,
}

impl RegionTopo {
    /// Builds a region map from an explicit node→region assignment and a
    /// full inter-region latency matrix (row-major, `regions²` entries).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is empty, region ids are not dense in
    /// `0..regions`, or the matrix has the wrong shape.
    #[must_use]
    pub fn new(region_of: Vec<u32>, regions: u32, inter_latency: Vec<DurationDist>) -> Self {
        assert!(!region_of.is_empty(), "region map needs nodes");
        assert!(regions > 0, "region map needs regions");
        assert!(
            region_of.iter().all(|&r| r < regions),
            "region id out of range"
        );
        assert!(
            (0..regions).all(|r| region_of.contains(&r)),
            "region ids must be dense: every region needs at least one node"
        );
        assert_eq!(
            inter_latency.len(),
            (regions as usize) * (regions as usize),
            "inter-region latency matrix must be regions x regions"
        );
        RegionTopo {
            region_of,
            regions,
            inter_latency,
        }
    }

    /// Splits `node_count` nodes into `regions` contiguous near-equal
    /// slices with one uniform inter-region latency — the common
    /// symmetric-WAN shape (and the shape the old ad-hoc
    /// `regional_partition` fault plan assumed).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero or exceeds `node_count`.
    #[must_use]
    pub fn contiguous(node_count: u32, regions: u32, inter_latency: DurationDist) -> Self {
        assert!(regions > 0, "region map needs regions");
        assert!(regions <= node_count, "more regions than nodes");
        let region_of = (0..node_count)
            .map(|n| (u64::from(n) * u64::from(regions) / u64::from(node_count)) as u32)
            .collect();
        let matrix = vec![inter_latency; (regions as usize) * (regions as usize)];
        RegionTopo::new(region_of, regions, matrix)
    }

    /// Number of regions.
    #[must_use]
    pub fn region_count(&self) -> u32 {
        self.regions
    }

    /// Number of nodes the map covers.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.region_of.len() as u32
    }

    /// The region of a node, by raw index.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the map.
    #[must_use]
    pub fn region_of_index(&self, node: usize) -> u32 {
        self.region_of[node]
    }

    /// The nodes of one region, in id order.
    #[must_use]
    pub fn members(&self, region: u32) -> Vec<NodeId> {
        self.region_of
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == region)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }

    /// Samples the inter-region latency for a region pair.
    ///
    /// # Panics
    ///
    /// Panics if either region id is out of range or `a == b` (same-region
    /// traffic uses the topology's LAN latency, not the matrix).
    #[must_use]
    pub fn inter_latency(&self, a: u32, b: u32, rng: &mut SimRng) -> SimDuration {
        assert!(a < self.regions && b < self.regions, "unknown region");
        assert_ne!(a, b, "intra-region latency is the LAN latency");
        rng.sample(&self.inter_latency[(a as usize) * (self.regions as usize) + b as usize])
    }
}

/// A LAN topology: `n` nodes, full mesh, configurable latency and failure
/// injection. Attach a [`RegionTopo`] with [`Topology::with_regions`] (or
/// build one via [`Topology::regional`]) to generalise the mesh into a
/// multi-region WAN: same-region hops keep the LAN latency, cross-region
/// hops pay the region pair's matrix entry.
///
/// # Examples
///
/// ```
/// use agentrack_sim::{DurationDist, SimDuration, NodeId, SimRng, Topology};
///
/// let topo = Topology::lan(4, DurationDist::Constant(SimDuration::from_micros(500)));
/// let mut rng = SimRng::seed_from(1);
/// let latency = topo.latency(NodeId::new(0), NodeId::new(3), &mut rng);
/// assert_eq!(latency, SimDuration::from_micros(500));
/// assert!(topo.latency(NodeId::new(2), NodeId::new(2), &mut rng) < latency);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    node_count: u32,
    /// One-way latency between distinct nodes.
    remote_latency: DurationDist,
    /// Latency for messages that never leave the node (loopback / in-VM).
    local_latency: DurationDist,
    /// Probability a remote message is lost.
    loss_probability: f64,
    /// Probability a remote message is duplicated.
    duplicate_probability: f64,
    /// Optional WAN region structure; `None` models the paper's single
    /// healthy LAN.
    regions: Option<RegionTopo>,
}

impl Topology {
    /// A healthy LAN: given remote latency, 10 µs local latency, no loss.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    #[must_use]
    pub fn lan(node_count: u32, remote_latency: DurationDist) -> Self {
        assert!(node_count > 0, "topology needs at least one node");
        Topology {
            node_count,
            remote_latency,
            local_latency: DurationDist::Constant(SimDuration::from_micros(10)),
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            regions: None,
        }
    }

    /// A symmetric multi-region WAN: `regions` contiguous slices of the
    /// node range, LAN latency within a region, one uniform `wan_latency`
    /// between regions.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`, `regions == 0`, or
    /// `regions > node_count`.
    #[must_use]
    pub fn regional(
        node_count: u32,
        lan_latency: DurationDist,
        regions: u32,
        wan_latency: DurationDist,
    ) -> Self {
        Topology::lan(node_count, lan_latency).with_regions(RegionTopo::contiguous(
            node_count,
            regions,
            wan_latency,
        ))
    }

    /// Attaches a WAN region structure.
    ///
    /// # Panics
    ///
    /// Panics if the region map does not cover exactly this topology's
    /// nodes.
    #[must_use]
    pub fn with_regions(mut self, regions: RegionTopo) -> Self {
        assert_eq!(
            regions.node_count(),
            self.node_count,
            "region map must cover every node exactly once"
        );
        self.regions = Some(regions);
        self
    }

    /// Enables message loss with the given probability (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.loss_probability = p;
        self
    }

    /// Enables message duplication with the given probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_probability = p;
        self
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count).map(NodeId::new)
    }

    /// Returns `true` if the node id belongs to this topology.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 < self.node_count
    }

    /// The attached region structure, when this is a multi-region WAN.
    #[must_use]
    pub fn region_topo(&self) -> Option<&RegionTopo> {
        self.regions.as_ref()
    }

    /// Number of regions (1 for a plain LAN).
    #[must_use]
    pub fn region_count(&self) -> u32 {
        self.regions.as_ref().map_or(1, RegionTopo::region_count)
    }

    /// The region a node belongs to (0 for a plain LAN).
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the topology.
    #[must_use]
    pub fn region_of(&self, node: NodeId) -> u32 {
        assert!(self.contains(node), "unknown node");
        self.regions
            .as_ref()
            .map_or(0, |r| r.region_of_index(node.index()))
    }

    /// `true` when both nodes share a region (always, for a plain LAN).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    #[must_use]
    pub fn same_region(&self, a: NodeId, b: NodeId) -> bool {
        self.region_of(a) == self.region_of(b)
    }

    /// Samples the one-way latency from `src` to `dst`: local, LAN
    /// (same region), or WAN (the region pair's matrix entry).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    #[must_use]
    pub fn latency(&self, src: NodeId, dst: NodeId, rng: &mut SimRng) -> SimDuration {
        assert!(self.contains(src) && self.contains(dst), "unknown node");
        if src == dst {
            return rng.sample(&self.local_latency);
        }
        if let Some(regions) = &self.regions {
            let (a, b) = (
                regions.region_of_index(src.index()),
                regions.region_of_index(dst.index()),
            );
            if a != b {
                return regions.inter_latency(a, b, rng);
            }
        }
        rng.sample(&self.remote_latency)
    }

    /// Decides the fate of a message from `src` to `dst`: delivered (with
    /// latency), duplicated, or lost. Local messages are never lost or
    /// duplicated.
    #[must_use]
    pub fn transmit(&self, src: NodeId, dst: NodeId, rng: &mut SimRng) -> Delivery {
        if src != dst {
            if self.loss_probability > 0.0 && rng.chance(self.loss_probability) {
                return Delivery::Lost;
            }
            if self.duplicate_probability > 0.0 && rng.chance(self.duplicate_probability) {
                return Delivery::Duplicate(
                    self.latency(src, dst, rng),
                    self.latency(src, dst, rng),
                );
            }
        }
        Delivery::Deliver(self.latency(src, dst, rng))
    }
}

/// A transmission instant paired with the sampled latency; small helper for
/// callers that want the arrival time directly.
#[must_use]
pub fn arrival(now: SimTime, latency: SimDuration) -> SimTime {
    now + latency
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::lan(8, DurationDist::Constant(SimDuration::from_micros(300)))
    }

    #[test]
    fn node_id_basics() {
        let n = NodeId::new(3);
        assert_eq!(n.raw(), 3);
        assert_eq!(n.index(), 3);
        assert_eq!(n.to_string(), "node3");
        assert_eq!(NodeId::from(3u32), n);
    }

    #[test]
    fn local_is_faster_than_remote() {
        let topo = topo();
        let mut rng = SimRng::seed_from(1);
        let local = topo.latency(NodeId::new(0), NodeId::new(0), &mut rng);
        let remote = topo.latency(NodeId::new(0), NodeId::new(1), &mut rng);
        assert!(local < remote);
    }

    #[test]
    fn healthy_lan_always_delivers() {
        let topo = topo();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1000 {
            match topo.transmit(NodeId::new(0), NodeId::new(5), &mut rng) {
                Delivery::Deliver(lat) => {
                    assert_eq!(lat, SimDuration::from_micros(300));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn loss_injection_drops_roughly_the_configured_fraction() {
        let topo = topo().with_loss(0.2);
        let mut rng = SimRng::seed_from(3);
        let lost = (0..10_000)
            .filter(|_| {
                matches!(
                    topo.transmit(NodeId::new(0), NodeId::new(1), &mut rng),
                    Delivery::Lost
                )
            })
            .count();
        assert!((1700..2300).contains(&lost), "loss skew: {lost}");
    }

    #[test]
    fn duplication_injection_duplicates() {
        let topo = topo().with_duplication(0.5);
        let mut rng = SimRng::seed_from(4);
        let dups = (0..1000)
            .filter(|_| {
                matches!(
                    topo.transmit(NodeId::new(0), NodeId::new(1), &mut rng),
                    Delivery::Duplicate(..)
                )
            })
            .count();
        assert!((400..600).contains(&dups), "dup skew: {dups}");
    }

    #[test]
    fn local_messages_are_never_lost() {
        let topo = topo().with_loss(1.0);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..100 {
            assert!(matches!(
                topo.transmit(NodeId::new(2), NodeId::new(2), &mut rng),
                Delivery::Deliver(_)
            ));
        }
    }

    #[test]
    fn nodes_iterator_covers_all() {
        let topo = topo();
        let nodes: Vec<NodeId> = topo.nodes().collect();
        assert_eq!(nodes.len(), 8);
        assert!(topo.contains(NodeId::new(7)));
        assert!(!topo.contains(NodeId::new(8)));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn latency_checks_bounds() {
        let topo = topo();
        let mut rng = SimRng::seed_from(6);
        let _ = topo.latency(NodeId::new(0), NodeId::new(99), &mut rng);
    }

    #[test]
    fn arrival_helper() {
        assert_eq!(
            arrival(SimTime::from_nanos(10), SimDuration::from_nanos(5)),
            SimTime::from_nanos(15)
        );
    }

    fn regional() -> Topology {
        Topology::regional(
            8,
            DurationDist::Constant(SimDuration::from_micros(300)),
            2,
            DurationDist::Constant(SimDuration::from_millis(40)),
        )
    }

    #[test]
    fn contiguous_regions_partition_the_node_range() {
        let topo = regional();
        assert_eq!(topo.region_count(), 2);
        let r = topo.region_topo().expect("regions attached");
        assert_eq!(r.members(0), (0..4).map(NodeId::new).collect::<Vec<_>>());
        assert_eq!(r.members(1), (4..8).map(NodeId::new).collect::<Vec<_>>());
        assert!(topo.same_region(NodeId::new(0), NodeId::new(3)));
        assert!(!topo.same_region(NodeId::new(3), NodeId::new(4)));
    }

    #[test]
    fn contiguous_regions_handle_uneven_splits() {
        let r = RegionTopo::contiguous(5, 3, DurationDist::Constant(SimDuration::from_millis(10)));
        let sizes: Vec<usize> = (0..3).map(|g| r.members(g).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 5);
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn cross_region_hops_pay_wan_latency() {
        let topo = regional();
        let mut rng = SimRng::seed_from(7);
        let lan = topo.latency(NodeId::new(0), NodeId::new(1), &mut rng);
        let wan = topo.latency(NodeId::new(0), NodeId::new(7), &mut rng);
        assert_eq!(lan, SimDuration::from_micros(300));
        assert_eq!(wan, SimDuration::from_millis(40));
    }

    #[test]
    fn plain_lan_is_one_region() {
        let topo = topo();
        assert_eq!(topo.region_count(), 1);
        assert_eq!(topo.region_of(NodeId::new(5)), 0);
        assert!(topo.same_region(NodeId::new(0), NodeId::new(7)));
        assert!(topo.region_topo().is_none());
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn region_map_must_match_node_count() {
        let _ =
            Topology::lan(8, DurationDist::Constant(SimDuration::from_micros(300))).with_regions(
                RegionTopo::contiguous(4, 2, DurationDist::Constant(SimDuration::from_millis(1))),
            );
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn region_ids_must_be_dense() {
        let _ = RegionTopo::new(
            vec![0, 0, 2, 2],
            3,
            vec![DurationDist::Constant(SimDuration::from_millis(1)); 9],
        );
    }
}
