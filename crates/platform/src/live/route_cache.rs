//! A 2-way set-associative `(agent, node)` route cache with generation
//! revalidation.
//!
//! Agent ids are plain `u64`s, so "interning" a hot route costs nothing
//! more than writing it into a fixed slot: the cache is a power-of-two
//! array of packed 16-byte `(id, generation, node)` slots, grouped into
//! two-way sets indexed by the same Fibonacci mix that picks registry
//! shards. No allocation and no eviction bookkeeping beyond the set's
//! second way — which is what lets a popularity-skewed workload keep its
//! hot routes resident while uniform one-off lookups churn through the
//! other way instead of evicting them (a plain direct-mapped cache loses
//! several percent of hits to exactly that pollution).
//!
//! A hit is honoured only if the cached generation token still equals
//! the owning registry shard's current generation
//! ([`ShardedRegistry::shard_gen`]): one atomic load from a dense,
//! L2-resident array, zero locks. Agents that haven't moved (and whose
//! shard neighbours haven't either) therefore resolve without ever
//! touching a lock; any write to the shard conservatively sends the next
//! lookup back to the sharded map, which re-caches under the new
//! generation. This is the same stamp-revalidate idiom as `hashtree`'s
//! compiled directory, applied to the live runtime's routing table.
//!
//! The token is the low 32 bits of the shard generation. A false hit
//! needs the shard to take an exact multiple of 2^32 writes between two
//! visits to the same slot, and even then the result is indistinguishable
//! from the staleness every locate inherently has (an agent may migrate
//! the instant after a perfectly-validated read): the hint points at a
//! node the agent left, the message bounces, and the sender hears about
//! it via `on_delivery_failed`. Nothing is silently dropped.
//!
//! Each cache belongs to exactly one thread (a node loop or a
//! [`LiveHandle`](super::LiveHandle)), so it needs no interior mutability.

use agentrack_sim::NodeId;

use crate::id::AgentId;

use super::registry::{ShardedRegistry, Whereabouts};

/// Packed to 16 bytes so a cache line holds two full sets.
#[derive(Clone, Copy)]
struct Slot {
    /// `u64::MAX` marks an empty slot (real agent ids never reach it:
    /// it is the external-sender sentinel, which is never registered).
    id: u64,
    /// Truncated shard-generation token (see module docs).
    gen: u32,
    node: NodeId,
}

const EMPTY: Slot = Slot {
    id: u64::MAX,
    gen: 0,
    node: NodeId::new(0),
};

/// A fixed-size, single-threaded cache of believed agent locations.
pub struct RouteCache {
    slots: Box<[Slot]>,
    /// Selects the *set*; a set is the slot pair `[2i, 2i + 1]`.
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl RouteCache {
    /// Creates a cache with `2^bits` slots (`2^(bits-1)` two-way sets);
    /// `bits` is clamped to `1..=30`.
    #[must_use]
    pub fn new(bits: u8) -> Self {
        let n = 1usize << bits.clamp(1, 30);
        RouteCache {
            slots: vec![EMPTY; n].into_boxed_slice(),
            set_mask: (n / 2 - 1) as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// Resolves `id` to a node: cache hit if either way of the set
    /// matches and its generation token is still current, otherwise the
    /// sharded-map path, re-caching stable (`Active`) routes. Returns
    /// `None` for unknown (never-registered or disposed) agents.
    #[inline]
    pub(crate) fn resolve(&mut self, id: AgentId, registry: &ShardedRegistry) -> Option<NodeId> {
        let s = 2 * id.shard_of(self.set_mask);
        let gen = registry.shard_gen(id) as u32;
        let raw = id.raw();
        for slot in &self.slots[s..s + 2] {
            if slot.id == raw && slot.gen == gen {
                self.hits += 1;
                return Some(slot.node);
            }
        }
        self.misses += 1;
        let (w, gen) = registry.get_with_gen(id);
        let w = w?;
        if let Whereabouts::Active(node) = w {
            // Creating/InTransit beliefs are moments from changing; caching
            // them would only pin a guaranteed-stale generation.
            let fresh = Slot {
                id: raw,
                gen: gen as u32,
                node,
            };
            self.slots[self.victim(s, raw, registry)] = fresh;
        }
        Some(w.node())
    }

    /// Picks which way of set `[s, s + 1]` to overwrite: a way already
    /// holding `raw`, an empty way, a way whose token went stale — and
    /// only then the second way, so one-off lookups churn through way 1
    /// while a still-valid hot route keeps way 0.
    fn victim(&self, s: usize, raw: u64, registry: &ShardedRegistry) -> usize {
        for (i, slot) in self.slots[s..s + 2].iter().enumerate() {
            if slot.id == raw || slot.id == u64::MAX {
                return s + i;
            }
        }
        for (i, slot) in self.slots[s..s + 2].iter().enumerate() {
            if slot.gen != registry.shard_gen(AgentId::new(slot.id)) as u32 {
                return s + i;
            }
        }
        s + 1
    }

    /// Lookups answered from a slot without touching a lock.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that took the sharded-map path.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl std::fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteCache")
            .field("slots", &self.slots.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_stay_packed() {
        assert_eq!(std::mem::size_of::<Slot>(), 16, "two sets per cache line");
    }

    #[test]
    fn second_lookup_of_an_unmoved_agent_is_a_hit() {
        let registry = ShardedRegistry::new(64);
        let id = AgentId::new(7);
        registry.insert(id, Whereabouts::Active(NodeId::new(3)));
        let mut cache = RouteCache::new(10);
        assert_eq!(cache.resolve(id, &registry), Some(NodeId::new(3)));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(cache.resolve(id, &registry), Some(NodeId::new(3)));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 1),
            "steady state: no lock path"
        );
    }

    #[test]
    fn migration_invalidates_via_the_generation_token() {
        let registry = ShardedRegistry::new(64);
        let id = AgentId::new(9);
        registry.insert(id, Whereabouts::Active(NodeId::new(1)));
        let mut cache = RouteCache::new(10);
        cache.resolve(id, &registry);
        registry.insert(id, Whereabouts::Active(NodeId::new(2)));
        assert_eq!(
            cache.resolve(id, &registry),
            Some(NodeId::new(2)),
            "stale slot must lose to the bumped generation"
        );
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn transient_phases_are_answered_but_not_cached() {
        let registry = ShardedRegistry::new(64);
        let id = AgentId::new(11);
        registry.insert(id, Whereabouts::InTransit(NodeId::new(4)));
        let mut cache = RouteCache::new(10);
        assert_eq!(cache.resolve(id, &registry), Some(NodeId::new(4)));
        assert_eq!(cache.resolve(id, &registry), Some(NodeId::new(4)));
        assert_eq!(cache.hits(), 0, "in-transit beliefs never come from a slot");
    }

    #[test]
    fn zero_bits_clamp_to_one_set_that_still_caches() {
        let registry = ShardedRegistry::new(4);
        let id = AgentId::new(1);
        registry.insert(id, Whereabouts::Active(NodeId::new(0)));
        let mut cache = RouteCache::new(0);
        assert_eq!(cache.slots.len(), 2, "one two-way set, never zero slots");
        cache.resolve(id, &registry);
        assert_eq!(cache.resolve(id, &registry), Some(NodeId::new(0)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn one_set_holds_two_hot_routes() {
        let registry = ShardedRegistry::new(1);
        let (a, b) = (AgentId::new(1), AgentId::new(2));
        registry.insert(a, Whereabouts::Active(NodeId::new(1)));
        registry.insert(b, Whereabouts::Active(NodeId::new(2)));
        let mut cache = RouteCache::new(1);
        for _ in 0..3 {
            assert_eq!(cache.resolve(a, &registry), Some(NodeId::new(1)));
            assert_eq!(cache.resolve(b, &registry), Some(NodeId::new(2)));
        }
        assert_eq!((cache.hits(), cache.misses()), (4, 2), "both ways hit");
    }

    #[test]
    fn a_disposed_agent_is_not_answered_from_its_slot() {
        let registry = ShardedRegistry::new(64);
        let id = AgentId::new(5);
        registry.insert(id, Whereabouts::Active(NodeId::new(3)));
        let mut cache = RouteCache::new(10);
        cache.resolve(id, &registry);
        registry.remove(id); // bumps the generation, retiring the slot
        assert_eq!(cache.resolve(id, &registry), None);
    }

    #[test]
    fn unknown_agents_resolve_to_none() {
        let registry = ShardedRegistry::new(4);
        let mut cache = RouteCache::new(4);
        assert_eq!(cache.resolve(AgentId::new(404), &registry), None);
    }

    #[test]
    fn a_colliding_one_off_does_not_evict_a_live_hot_route() {
        let registry = ShardedRegistry::new(1);
        // With one set, every id collides into the same pair of ways.
        let hot = AgentId::new(1);
        registry.insert(hot, Whereabouts::Active(NodeId::new(1)));
        for raw in 2..10 {
            registry.insert(AgentId::new(raw), Whereabouts::Active(NodeId::new(2)));
        }
        let mut cache = RouteCache::new(1);
        cache.resolve(hot, &registry);
        for raw in 2..10 {
            cache.resolve(AgentId::new(raw), &registry);
        }
        // The cold stream churned through the second way; the hot route's
        // token is still current, so it kept the first way and still hits.
        assert_eq!(cache.resolve(hot, &registry), Some(NodeId::new(1)));
        assert_eq!(cache.hits(), 1, "hot route kept its way");
    }
}
