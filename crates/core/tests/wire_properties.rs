//! Property tests of the wire layer: every message round-trips through
//! payload encoding, and the hash-function artifact stays consistent under
//! random rehash histories.

use agentrack_core::{
    key_of, plan_split, DeltaError, DenyReason, Freshness, HashFunction, LocationConfig, RehashOp,
    TrackerView, ViewImage, Wire,
};
use agentrack_hashtree::{IAgentId, Side, SplitKind};
use agentrack_platform::{AgentId, CorrId, NodeId, Payload};
use proptest::prelude::*;

fn arb_agent() -> impl Strategy<Value = AgentId> {
    any::<u64>().prop_map(AgentId::new)
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u32..64).prop_map(NodeId::new)
}

fn arb_corr() -> impl Strategy<Value = Option<CorrId>> {
    proptest::option::of((any::<u64>(), any::<u64>()).prop_map(|(o, s)| CorrId::new(o, s)))
}

fn arb_freshness() -> impl Strategy<Value = Freshness> {
    prop_oneof![
        Just(Freshness::Fresh),
        any::<u64>().prop_map(Freshness::BoundedMs),
        Just(Freshness::Any),
    ]
}

fn arb_deny_reason() -> impl Strategy<Value = DenyReason> {
    prop_oneof![
        Just(DenyReason::Busy),
        Just(DenyReason::Cooldown),
        Just(DenyReason::ReadOnly),
        Just(DenyReason::NoPlan),
    ]
}

fn arb_records() -> impl Strategy<Value = Vec<(AgentId, NodeId)>> {
    prop::collection::vec((arb_agent(), arb_node()), 0..20)
}

fn arb_iagent() -> impl Strategy<Value = IAgentId> {
    any::<u64>().prop_map(IAgentId::new)
}

fn arb_rehash_op() -> impl Strategy<Value = RehashOp> {
    prop_oneof![
        (
            arb_iagent(),
            0usize..64,
            arb_iagent(),
            any::<bool>(),
            arb_node()
        )
            .prop_map(
                |(requester, key_bit, new_iagent, right, node)| RehashOp::Split {
                    requester,
                    key_bit,
                    new_iagent,
                    side: Side::from_bit(right),
                    node,
                }
            ),
        arb_iagent().prop_map(|iagent| RehashOp::Merge { iagent }),
        (arb_iagent(), arb_node()).prop_map(|(iagent, node)| RehashOp::Moved { iagent, node }),
    ]
}

/// A hash function grown by a short random history.
fn arb_hash_function() -> impl Strategy<Value = HashFunction> {
    prop::collection::vec(arb_rehash(), 0..8).prop_map(|history| {
        let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        let mut next = 1u64;
        for op in history {
            apply(&mut hf, op, &mut next);
        }
        hf
    })
}

/// The install image of a random version that has one, for one of its
/// leaves or for an id that is none (ids above the history's splits). The
/// history skips each op that would leave the tree past
/// `MAX_RUNS_PER_LEAF` runs a leaf: such a version installs whole.
fn arb_view_image() -> impl Strategy<Value = ViewImage> {
    let history = prop::collection::vec(arb_rehash(), 0..8);
    (history, 0u64..12).prop_map(|(history, me)| {
        let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        let mut next = 1u64;
        for op in history {
            let before = hf.clone();
            apply(&mut hf, op, &mut next);
            if hf.compiled().runs().is_none() {
                hf = before;
            }
        }
        TrackerView::new(&hf, None)
            .image_for(&hf, AgentId::new(me))
            .expect("a version within the bound has an image")
    })
}

/// Every variant of [`Wire`], each with arbitrary fields.
fn arb_wire() -> impl Strategy<Value = Wire> {
    prop_oneof![
        (arb_agent(), proptest::option::of(any::<u64>()), arb_corr()).prop_map(
            |(target, token, corr)| Wire::Resolve {
                target,
                token,
                corr
            }
        ),
        (arb_agent(), proptest::option::of(any::<u64>()), arb_corr()).prop_map(
            |(target, token, corr)| Wire::ResolveFresh {
                target,
                token,
                corr
            }
        ),
        (
            (arb_agent(), arb_agent(), arb_node()),
            proptest::option::of((arb_agent(), arb_node())),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
            arb_corr()
        )
            .prop_map(|((target, iagent, node), buddy, version, token, corr)| {
                Wire::Resolved {
                    target,
                    iagent,
                    node,
                    buddy,
                    version,
                    token,
                    corr,
                }
            }),
        arb_agent().prop_map(|agent| Wire::RegisterAck { agent }),
        (arb_agent(), any::<u64>(), arb_corr()).prop_map(|(target, token, corr)| Wire::NotFound {
            target,
            token,
            corr
        }),
        (0.0f64..1e9).prop_map(|rate| Wire::MergeRequest { rate }),
        arb_deny_reason().prop_map(|reason| Wire::RehashDenied { reason }),
        any::<u64>().prop_map(|lease| Wire::IAgentReady { lease }),
        arb_hash_function().prop_map(|hf| Wire::InstallHashFn { hf }),
        arb_view_image().prop_map(|image| Wire::InstallView { image }),
        Just(Wire::EpochRequest),
        (
            any::<u64>(),
            proptest::option::of((arb_agent(), arb_node()))
        )
            .prop_map(|(epoch, buddy)| Wire::EpochGrant { epoch, buddy }),
        (
            any::<u64>(),
            any::<u64>(),
            arb_records(),
            0.0f64..1e9,
            arb_node()
        )
            .prop_map(|(epoch, seq, records, rate, reply_node)| Wire::RecordSync {
                epoch,
                seq,
                records,
                rate,
                reply_node,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, seq)| Wire::RecordSyncAck { epoch, seq }),
        (any::<u64>(), arb_node())
            .prop_map(|(epoch, reply_node)| Wire::ReplicaPull { epoch, reply_node }),
        (
            any::<u64>(),
            any::<u64>(),
            arb_records(),
            0.0f64..1e9,
            any::<u64>()
        )
            .prop_map(|(epoch, seq, records, rate, age_ms)| Wire::ReplicaSet {
                epoch,
                seq,
                records,
                rate,
                age_ms,
            }),
        Just(Wire::SolicitReregister),
        arb_hash_function().prop_map(|hf| Wire::HashFnCopy { hf }),
        (any::<u64>(), prop::collection::vec(arb_rehash_op(), 0..8))
            .prop_map(|(from_version, ops)| Wire::HashFnDelta { from_version, ops }),
        (
            arb_agent(),
            arb_agent(),
            prop::collection::vec(any::<u8>(), 0..32),
            0u32..16
        )
            .prop_map(|(target, from, data, ttl)| Wire::DeliverVia {
                target,
                from,
                data,
                ttl,
            }),
        (arb_agent(), prop::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(from, data)| Wire::MailDrop { from, data }),
        (arb_agent(), arb_node()).prop_map(|(agent, to)| Wire::LeavePointer { agent, to }),
        (arb_agent(), arb_node()).prop_map(|(agent, node)| Wire::Register { agent, node }),
        (arb_agent(), arb_node()).prop_map(|(agent, node)| Wire::Update { agent, node }),
        (arb_agent(), 0u32..16).prop_map(|(agent, ttl)| Wire::Deregister { agent, ttl }),
        (
            arb_agent(),
            any::<u64>(),
            arb_node(),
            arb_freshness(),
            arb_corr()
        )
            .prop_map(|(target, token, reply_node, freshness, corr)| {
                Wire::Locate {
                    target,
                    token,
                    reply_node,
                    freshness,
                    corr,
                }
            }),
        (
            arb_agent(),
            arb_node(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            arb_corr()
        )
            .prop_map(|(target, node, stale, age_ms, token, corr)| Wire::Located {
                target,
                node,
                stale,
                age_ms,
                token,
                corr
            }),
        (arb_agent(), proptest::option::of(any::<u64>()), arb_corr())
            .prop_map(|(about, token, corr)| Wire::NotResponsible { about, token, corr }),
        // Rates are msgs/sec: non-negative, human-scale. (Extreme doubles
        // lose bits through JSON, which the protocol never carries.)
        (
            0.0f64..1e9,
            prop::collection::vec((arb_agent(), any::<u64>()), 0..20)
        )
            .prop_map(|(rate, loads)| Wire::SplitRequest { rate, loads }),
        arb_records().prop_map(|records| Wire::Handoff { records }),
        (any::<u64>(), arb_node()).prop_map(|(have_version, reply_node)| Wire::FetchHashFn {
            have_version,
            reply_node
        }),
        arb_node().prop_map(|node| Wire::IAgentMoved { node }),
        (
            arb_agent(),
            any::<u64>(),
            arb_agent(),
            arb_node(),
            0u32..64,
            arb_corr()
        )
            .prop_map(|(target, token, reply_to, reply_node, hops, corr)| {
                Wire::ChainLocate {
                    target,
                    token,
                    reply_to,
                    reply_node,
                    hops,
                    corr,
                }
            }),
    ]
}

/// A payload that is no [`Wire`]: prose, or a message whose rate is not a
/// finite number (JSON has none, so it is `null` in both forms).
fn arb_not_a_message() -> impl Strategy<Value = Payload> {
    let odd_rate = prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)];
    prop_oneof![
        "[a-zA-Z0-9 .,!?]{0,80}".prop_map(|text| Payload::encode(&text)),
        (odd_rate, any::<u8>(), arb_records()).prop_map(|(rate, pick, records)| {
            let msg = match pick % 4 {
                0 => Wire::SplitRequest {
                    rate,
                    loads: Vec::new(),
                },
                1 => Wire::MergeRequest { rate },
                2 => Wire::RecordSync {
                    epoch: 1,
                    seq: 2,
                    records,
                    rate,
                    reply_node: NodeId::new(0),
                },
                _ => Wire::ReplicaSet {
                    epoch: 1,
                    seq: 2,
                    records,
                    rate,
                    age_ms: 3,
                },
            };
            msg.payload()
        }),
    ]
}

/// The name of every [`Wire`] variant, which is its `kind()`. The names
/// also form a match with no wildcard arm, so a new variant does not
/// compile until it is listed here.
macro_rules! every_kind {
    ($($variant:ident),* $(,)?) => {{
        fn exhaustive(msg: &Wire) {
            match msg {
                $(Wire::$variant { .. } => {})*
            }
        }
        let _ = exhaustive;
        [$(stringify!($variant)),*]
    }};
}

/// `arb_wire` draws every variant: a new variant fails this until the
/// strategy covers it too.
#[test]
fn arb_wire_draws_every_variant() {
    let listed = every_kind![
        Resolve,
        ResolveFresh,
        Resolved,
        Register,
        RegisterAck,
        Update,
        Deregister,
        Locate,
        Located,
        NotFound,
        NotResponsible,
        SplitRequest,
        MergeRequest,
        RehashDenied,
        IAgentReady,
        IAgentMoved,
        InstallHashFn,
        InstallView,
        Handoff,
        EpochRequest,
        EpochGrant,
        RecordSync,
        RecordSyncAck,
        ReplicaPull,
        ReplicaSet,
        SolicitReregister,
        FetchHashFn,
        HashFnCopy,
        HashFnDelta,
        DeliverVia,
        MailDrop,
        ChainLocate,
        LeavePointer,
    ];
    let strategy = arb_wire();
    let mut rng = proptest::TestRng::from_test_name("arb_wire_draws_every_variant");
    let drawn: std::collections::BTreeSet<&str> = (0..2000)
        .map(|_| strategy.generate(&mut rng).kind())
        .collect();
    for kind in listed {
        assert!(drawn.contains(kind), "{kind} never drawn: {drawn:?}");
    }
}

/// One rehash of a random history: split or merge the leaf serving
/// `key_of(seed)`.
#[derive(Debug, Clone, Copy)]
enum Rehash {
    /// A simple split on the `m`-th free bit.
    Simple { seed: u64, m: usize },
    /// A complex split on the leaf's first unused label bit, if any.
    Complex { seed: u64 },
    /// Merge the leaf away; with two leaves left this is a root merge.
    Merge { seed: u64 },
}

fn arb_rehash() -> impl Strategy<Value = Rehash> {
    prop_oneof![
        (any::<u64>(), 1usize..4).prop_map(|(seed, m)| Rehash::Simple { seed, m }),
        any::<u64>().prop_map(|seed| Rehash::Complex { seed }),
        any::<u64>().prop_map(|seed| Rehash::Merge { seed }),
    ]
}

/// Applies `op` the way the HAgent does, through [`HashFunction::apply`].
/// Ops that do not apply (no complex candidate, merging the last leaf) are
/// skipped.
fn apply(hf: &mut HashFunction, op: Rehash, next: &mut u64) {
    let leaf_for = |hf: &HashFunction, seed| hf.tree.lookup(key_of(AgentId::new(seed)));
    let op = match op {
        Rehash::Simple { seed, .. } | Rehash::Complex { seed } => {
            let requester = leaf_for(hf, seed);
            let Some(cand) = hf
                .tree
                .split_candidates(requester)
                .unwrap()
                .into_iter()
                .find(|c| match (op, c.kind) {
                    (Rehash::Simple { m, .. }, SplitKind::Simple { m: cm }) => m == cm,
                    (Rehash::Complex { .. }, SplitKind::Complex { .. }) => true,
                    _ => false,
                })
            else {
                return;
            };
            RehashOp::Split {
                requester,
                key_bit: cand.key_bit,
                new_iagent: IAgentId::new(*next),
                side: Side::Right,
                node: NodeId::new((*next % 16) as u32),
            }
        }
        Rehash::Merge { seed } => RehashOp::Merge {
            iagent: leaf_for(hf, seed),
        },
    };
    if hf.apply(&op).is_ok() && matches!(op, RehashOp::Split { .. }) {
        *next += 1;
    }
}

/// Checks every answer a tracker view gives against the full copy, for
/// each leaf of `hf` and for one id that is not a leaf.
fn assert_view_agrees(hf: &HashFunction, probes: &[u64]) {
    let trackers: Vec<AgentId> = hf
        .tree
        .iagents()
        .map(|ia| AgentId::new(ia.raw()))
        .chain([AgentId::new(u64::MAX)])
        .collect();
    let decoded = match Wire::from_payload(&Wire::InstallHashFn { hf: hf.clone() }.payload()) {
        Some(Wire::InstallHashFn { hf }) => hf,
        other => panic!("install did not round-trip: {other:?}"),
    };
    // The view the HAgent cuts each tracker's install image from.
    let primary = TrackerView::new(hf, None);
    for &me in &trackers {
        // The tracker's install: an image through the wire, or the whole
        // copy for a tree too fragmented to have one.
        let installed = match primary.image_for(hf, me) {
            Some(image) => {
                assert_eq!(image.run_count() as u64, hf.tree.run_count());
                match Wire::from_payload(&Wire::InstallView { image }.payload()) {
                    Some(Wire::InstallView { image }) => TrackerView::from_image(image),
                    other => panic!("image did not round-trip: {other:?}"),
                }
            }
            None => {
                assert!(
                    hf.compiled().runs().is_none(),
                    "a compiled tree has an image"
                );
                TrackerView::new(&decoded, Some(me))
            }
        };
        // Built from the primary copy's (incrementally refreshed) runs,
        // from a decoded copy's freshly built ones, and from the install.
        let views = [
            TrackerView::new(hf, Some(me)),
            TrackerView::new(&decoded, Some(me)),
            installed,
        ];
        for view in &views {
            assert_eq!(view.version(), hf.version);
            assert_eq!(view.leaf_count(), hf.tree.iagent_count());
            let label = hf.tree.hyper_label(IAgentId::new(me.raw())).ok();
            assert_eq!(view.own_label(), label.as_ref(), "own label of {me:?}");
            assert_eq!(view.buddy(), hf.buddy_of(me), "buddy of {me:?}");
            for &raw in probes {
                let agent = AgentId::new(raw);
                assert_eq!(view.resolve(agent), hf.resolve(agent), "resolve {raw}");
                assert_eq!(view.is_responsible(me, agent), hf.is_responsible(me, agent));
            }
        }
    }
}

/// A tracker view answers exactly like the full copy on a tree with more
/// than `MAX_RUNS_PER_LEAF` runs a leaf, where both walk the tree.
#[test]
fn tracker_view_walks_a_tree_too_fragmented_to_compile() {
    let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let mut next = 1u64;
    // Each split of the leaf holding one fixed key branches three bits
    // deeper and leaves the two bits above its branch free, so the runs
    // multiply; then add some bushiness.
    for _ in 0..8 {
        apply(&mut hf, Rehash::Simple { seed: 7, m: 3 }, &mut next);
    }
    for seed in 0..16 {
        apply(&mut hf, Rehash::Simple { seed, m: 2 }, &mut next);
    }
    hf.validate().unwrap();
    assert!(
        hf.compiled().runs().is_none(),
        "the tree must be too fragmented"
    );
    let probes: Vec<u64> = (0..512).collect();
    assert_view_agrees(&hf, &probes);
}

/// A 512-IAgent copy survives `InstallHashFn` encode/decode exactly, and
/// the decoded copy's compiled runs are current.
#[test]
fn install_of_a_512_iagent_tree_round_trips() {
    let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let mut next = 1u64;
    let mut seed = 0u64;
    while hf.tree.iagent_count() < 512 {
        apply(
            &mut hf,
            Rehash::Simple {
                seed: seed * 77,
                m: 1,
            },
            &mut next,
        );
        seed += 1;
    }
    let msg = Wire::InstallHashFn { hf: hf.clone() };
    let decoded = Wire::from_payload(&msg.payload());
    assert_eq!(decoded.as_ref(), Some(&msg));
    let Some(Wire::InstallHashFn { hf: copy }) = decoded else {
        unreachable!()
    };
    assert!(copy.compiled().is_current(&copy.tree));
    copy.validate().unwrap();
    for raw in 0..2048 {
        assert_eq!(
            copy.resolve(AgentId::new(raw)),
            hf.resolve(AgentId::new(raw))
        );
    }
}

proptest! {
    /// A tracker view answers exactly like the full hash function —
    /// `resolve`, `is_responsible`, the buddy, the own hyper-label and
    /// membership — over trees grown by simple and complex splits and
    /// shrunk by merges, root merges included.
    #[test]
    fn tracker_view_answers_like_the_full_copy(
        ops in prop::collection::vec(arb_rehash(), 0..40),
        probes in prop::collection::vec(any::<u64>(), 64..65),
    ) {
        let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        let mut next = 1u64;
        for op in ops {
            apply(&mut hf, op, &mut next);
        }
        hf.validate().unwrap();
        assert_view_agrees(&hf, &probes);
    }

    /// Every protocol message survives encode/decode exactly, from the
    /// message itself, which the simulator hands over in process, and from
    /// the JSON text a live node sends, and `len` is the text's length. A payload that is no
    /// message decodes to nothing from either form.
    #[test]
    fn wire_round_trips(msg in arb_wire(), stranger in arb_not_a_message()) {
        for (payload, expected) in [(msg.payload(), Some(msg)), (stranger, None)] {
            let text = Payload::from_bytes(payload.bytes().clone());
            prop_assert_eq!(payload.len(), text.bytes().len());
            prop_assert_eq!(Wire::from_payload(&payload), expected.clone());
            prop_assert_eq!(Wire::from_payload(&text), expected);
        }
    }

    /// A whole copy decoded in-process is a clone of the one sent, not a
    /// rebuild, and still consistent, with current compiled runs. A
    /// sender whose runs are stale (its tree changed without a recompile)
    /// does not hand them on: such a copy is decoded afresh.
    #[test]
    fn a_whole_copy_decoded_in_process_has_a_current_table(
        hf in arb_hash_function(),
        stale_seed in proptest::option::of(any::<u64>()),
        install in any::<bool>(),
        probes in prop::collection::vec(any::<u64>(), 32..33),
    ) {
        let mut hf = hf;
        if let Some(seed) = stale_seed {
            let leaf = hf.tree.lookup(key_of(AgentId::new(seed)));
            let cand = hf
                .tree
                .split_candidates(leaf)
                .unwrap()
                .into_iter()
                .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }));
            if let Some(cand) = cand {
                let new = IAgentId::new(1_000);
                hf.tree.apply_split(&cand, new, Side::Right).unwrap();
                hf.locations.insert(new, NodeId::new(3));
                hf.version += 1;
                prop_assert!(!hf.compiled().is_current(&hf.tree));
            }
        }
        let msg = if install {
            Wire::InstallHashFn { hf: hf.clone() }
        } else {
            Wire::HashFnCopy { hf: hf.clone() }
        };
        let copy = match Wire::from_payload(&msg.payload()) {
            Some(Wire::InstallHashFn { hf } | Wire::HashFnCopy { hf }) => hf,
            other => panic!("the copy did not round-trip: {other:?}"),
        };
        prop_assert_eq!(&copy, &hf);
        prop_assert!(copy.compiled().is_current(&copy.tree));
        copy.validate().unwrap();
        for raw in probes {
            let agent = AgentId::new(raw);
            prop_assert_eq!(copy.resolve(agent), hf.resolve(agent));
        }
    }

    /// A message cut short decodes to nothing, never to a message.
    #[test]
    fn a_truncated_message_does_not_decode(msg in arb_wire(), cut in any::<usize>()) {
        let bytes = msg.payload().bytes().to_vec();
        let short = bytes[..cut % bytes.len()].to_vec();
        let payload = Payload::from_bytes(short.into());
        prop_assert_eq!(Wire::from_payload(&payload), None);
    }

    /// A message with one byte overwritten never panics the decoder, and
    /// an install image that still decodes builds a view that answers.
    #[test]
    fn a_garbled_message_decodes_without_a_panic(
        msg in arb_wire(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = msg.payload().bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        let payload = Payload::from_bytes(bytes.into());
        if let Some(Wire::InstallView { image }) = Wire::from_payload(&payload) {
            let view = TrackerView::from_image(image);
            for raw in 0..64 {
                let (iagent, _) = view.resolve(AgentId::new(raw));
                prop_assert!(view.is_responsible(iagent, AgentId::new(raw)));
            }
        }
    }

    /// A delta of arbitrary ops — mostly naming IAgents the copy does not
    /// hold, or key bits that are no split candidate — never panics. It
    /// either applies whole or stops at the first op that does not apply,
    /// and the copy stays consistent at the last version an op reached.
    #[test]
    fn an_arbitrary_delta_is_refused_without_a_panic(
        hf in arb_hash_function(),
        ops in prop::collection::vec(arb_rehash_op(), 1..6),
        known in prop::collection::vec((0u64..12, any::<bool>()), 1..6),
    ) {
        // Mix in ops naming small ids, which the grown tree may hold.
        let ops: Vec<RehashOp> = ops
            .into_iter()
            .zip(known)
            .map(|(op, (id, keep))| match op {
                _ if keep => op,
                RehashOp::Split { key_bit, side, node, .. } => RehashOp::Split {
                    requester: IAgentId::new(id),
                    key_bit,
                    new_iagent: IAgentId::new(id + 12),
                    side,
                    node,
                },
                RehashOp::Merge { .. } => RehashOp::Merge { iagent: IAgentId::new(id) },
                RehashOp::Moved { node, .. } => RehashOp::Moved { iagent: IAgentId::new(id), node },
            })
            .collect();
        let mut hf = hf;
        let from = hf.version;
        let result = hf.advance(from, &ops);
        hf.validate().unwrap();
        match result {
            Ok(()) => prop_assert_eq!(hf.version, from + ops.len() as u64),
            Err(DeltaError::Op(_)) => prop_assert!(hf.version < from + ops.len() as u64),
            Err(gap) => prop_assert!(false, "no gap from the copy's own version: {gap:?}"),
        }
    }

    /// Arbitrary non-protocol strings never decode as protocol messages
    /// with a confusable meaning (decode either fails or the input happened
    /// to be valid JSON for the enum, which plain prose never is).
    #[test]
    fn prose_is_not_protocol(text in "[a-zA-Z0-9 .,!?]{0,80}") {
        let payload = Payload::encode(&text);
        prop_assert_eq!(Wire::from_payload(&payload), None);
    }

    /// Freshness bounds are monotone: any record age admitted under
    /// `BoundedMs(a)` is admitted under every looser bound `b >= a`, and
    /// under `Any`. Loosening a query's freshness requirement can never
    /// lose an answer.
    #[test]
    fn freshness_bounds_are_monotone(a in any::<u64>(), extra in any::<u64>(), age in any::<u64>()) {
        let b = a.saturating_add(extra);
        if Freshness::BoundedMs(a).admits(age) {
            prop_assert!(Freshness::BoundedMs(b).admits(age));
            prop_assert!(Freshness::Any.admits(age));
        }
        // Fresh is the tightest mode: whatever it admits, every bound does.
        if Freshness::Fresh.admits(age) {
            prop_assert!(Freshness::BoundedMs(a).admits(age));
        }
    }

    /// `Fresh` answers report zero staleness: the only record age the
    /// `Fresh` mode ever admits is 0, so an answer produced under it
    /// cannot carry a non-zero `age_ms`.
    #[test]
    fn fresh_admits_only_zero_staleness(age in any::<u64>()) {
        prop_assert_eq!(Freshness::Fresh.admits(age), age == 0);
        prop_assert_eq!(Freshness::Fresh.bound_ms(), Some(0));
        // The bound accessor agrees with admits for every mode.
        for mode in [Freshness::Fresh, Freshness::BoundedMs(age), Freshness::Any] {
            match mode.bound_ms() {
                Some(bound) => prop_assert_eq!(mode.admits(age), age <= bound),
                None => prop_assert!(mode.admits(age)),
            }
        }
    }

    /// A hash function built by random splits stays internally consistent,
    /// resolves every agent, and its planner never panics.
    #[test]
    fn hash_function_consistency_under_random_growth(
        seeds in prop::collection::vec(any::<u64>(), 0..24),
        probe in any::<u64>(),
    ) {
        let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        let mut next = 1u64;
        for seed in seeds {
            let target = hf.tree.lookup(key_of(AgentId::new(seed)));
            let Ok(cands) = hf.tree.split_candidates(target) else { continue };
            let Some(cand) = cands
                .into_iter()
                .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
            else {
                continue;
            };
            let new = IAgentId::new(1000 + next);
            if hf.tree.apply_split(&cand, new, Side::Right).is_ok() {
                hf.locations.insert(new, NodeId::new((next % 16) as u32));
                hf.version += 1;
                next += 1;
            }
        }
        hf.validate().unwrap();
        // Total resolution: any agent id resolves to a directory entry.
        let (ia, _node) = hf.resolve(AgentId::new(probe));
        prop_assert!(hf.is_responsible(ia, AgentId::new(probe)));

        // The planner succeeds or fails gracefully on any leaf with any
        // weights.
        let leaf = hf.tree.lookup(key_of(AgentId::new(probe)));
        let loads: Vec<(AgentId, u64)> =
            (0..32).map(|i| (AgentId::new(probe ^ i), i % 5)).collect();
        let _ = plan_split(&hf.tree, leaf, &loads, &LocationConfig::default());
    }
}
