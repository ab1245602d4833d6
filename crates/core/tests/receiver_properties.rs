//! Adversarial property tests for the receiver state machine: arbitrary
//! event storms — including malformed, duplicated, stale and hostile
//! inputs, under every buffer policy — must never panic, never produce
//! self-addressed packets, never violate store accounting, and never
//! deliver a message twice.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use rrmp_core::buffer::Phase;
use rrmp_core::events::{Action, Event, TimerKind};
use rrmp_core::history::{DigestEntry, HistoryDigest};
use rrmp_core::ids::{MessageId, SeqNo};
use rrmp_core::packet::{DataPacket, Packet, RepairKind};
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_core::receiver::Receiver;
use rrmp_membership::view::{HierarchyView, RegionView};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{NodeId, RegionId};

const SELF: NodeId = NodeId(1);
const REGION_SIZE: u32 = 8;

const POLICIES: [PolicyKind; 7] = [
    PolicyKind::TwoPhase,
    PolicyKind::FixedTime { hold: SimDuration::from_millis(50) },
    PolicyKind::KeepAll,
    PolicyKind::HashBufferers,
    PolicyKind::SenderBased,
    PolicyKind::Stability,
    PolicyKind::TreeRmtp,
];

/// Member `SELF` of an 8-member region under a 4-member parent region;
/// the group is exactly own ∪ parent, so every policy sees all of it.
fn receiver(seed: u64, policy: PolicyKind) -> Receiver {
    let own = RegionView::new(RegionId(1), (0..REGION_SIZE).map(NodeId));
    let parent = RegionView::new(RegionId(0), (100..104).map(NodeId));
    let group: Arc<[NodeId]> = own.members().chain(parent.members()).collect();
    let cfg = ProtocolConfig { policy, ..ProtocolConfig::paper_defaults() };
    Receiver::with_members(SELF, HierarchyView::new(own, Some(parent)), Arc::new(cfg), seed, &group)
}

/// A compact generator language for protocol inputs.
#[derive(Debug, Clone)]
enum Input {
    Data { seq: u64, payload_len: usize },
    Session { high: u64 },
    LocalRequest { seq: u64, from: u32 },
    RemoteRequest { seq: u64, from: u32 },
    RepairLocal { seq: u64 },
    RepairRemote { seq: u64 },
    RegionalRepair { seq: u64 },
    SearchRequest { seq: u64, origins: Vec<u32> },
    SearchFound { seq: u64, holder: u32 },
    Handoff { seq: u64 },
    TimerLocal { seq: u64 },
    TimerRemote { seq: u64 },
    TimerIdle { seq: u64 },
    TimerSearch { seq: u64 },
    TimerBackoff { seq: u64 },
    TimerSweep,
    TimerHistory,
    History { high: u64, from: u32 },
    Leave,
}

fn arb_input() -> impl Strategy<Value = Input> {
    let seq = 0u64..12;
    let node = 0u32..110;
    prop_oneof![
        (seq.clone(), 0usize..32).prop_map(|(seq, payload_len)| Input::Data { seq, payload_len }),
        seq.clone().prop_map(|high| Input::Session { high }),
        (seq.clone(), node.clone()).prop_map(|(seq, from)| Input::LocalRequest { seq, from }),
        (seq.clone(), node.clone()).prop_map(|(seq, from)| Input::RemoteRequest { seq, from }),
        seq.clone().prop_map(|seq| Input::RepairLocal { seq }),
        seq.clone().prop_map(|seq| Input::RepairRemote { seq }),
        seq.clone().prop_map(|seq| Input::RegionalRepair { seq }),
        (seq.clone(), proptest::collection::vec(node.clone(), 0..4))
            .prop_map(|(seq, origins)| Input::SearchRequest { seq, origins }),
        (seq.clone(), node).prop_map(|(seq, holder)| Input::SearchFound { seq, holder }),
        seq.clone().prop_map(|seq| Input::Handoff { seq }),
        seq.clone().prop_map(|seq| Input::TimerLocal { seq }),
        seq.clone().prop_map(|seq| Input::TimerRemote { seq }),
        seq.clone().prop_map(|seq| Input::TimerIdle { seq }),
        seq.clone().prop_map(|seq| Input::TimerSearch { seq }),
        seq.prop_map(|seq| Input::TimerBackoff { seq }),
        Just(Input::TimerSweep),
        Just(Input::TimerHistory),
        (0u64..12, 0u32..110).prop_map(|(high, from)| Input::History { high, from }),
        Just(Input::Leave),
    ]
}

fn mid(seq: u64) -> MessageId {
    MessageId::new(NodeId(0), SeqNo(seq))
}

fn data(seq: u64, len: usize) -> DataPacket {
    DataPacket::new(mid(seq), Bytes::from(vec![0xAB; len]))
}

fn to_event(input: &Input) -> Event {
    let pkt = |from: u32, packet: Packet| Event::Packet { from: NodeId(from), packet };
    match input.clone() {
        Input::Data { seq, payload_len } => pkt(0, Packet::Data(data(seq, payload_len))),
        Input::Session { high } => pkt(0, Packet::Session { source: NodeId(0), high: SeqNo(high) }),
        Input::LocalRequest { seq, from } => pkt(from, Packet::LocalRequest { msg: mid(seq) }),
        Input::RemoteRequest { seq, from } => pkt(from, Packet::RemoteRequest { msg: mid(seq) }),
        Input::RepairLocal { seq } => {
            pkt(2, Packet::Repair { data: data(seq, 4), kind: RepairKind::Local })
        }
        Input::RepairRemote { seq } => {
            pkt(100, Packet::Repair { data: data(seq, 4), kind: RepairKind::Remote })
        }
        Input::RegionalRepair { seq } => pkt(3, Packet::RegionalRepair { data: data(seq, 4) }),
        Input::SearchRequest { seq, origins } => pkt(
            4,
            Packet::SearchRequest {
                msg: mid(seq),
                origins: origins.into_iter().map(NodeId).collect(),
            },
        ),
        Input::SearchFound { seq, holder } => {
            pkt(5, Packet::SearchFound { msg: mid(seq), holder: NodeId(holder) })
        }
        Input::Handoff { seq } => pkt(6, Packet::Handoff { data: data(seq, 4) }),
        Input::TimerLocal { seq } => Event::Timer(TimerKind::LocalRetry(mid(seq))),
        Input::TimerRemote { seq } => Event::Timer(TimerKind::RemoteRetry(mid(seq))),
        Input::TimerIdle { seq } => Event::Timer(TimerKind::IdleCheck(mid(seq))),
        Input::TimerSearch { seq } => Event::Timer(TimerKind::SearchRetry(mid(seq))),
        Input::TimerBackoff { seq } => Event::Timer(TimerKind::Backoff(mid(seq))),
        Input::TimerSweep => Event::Timer(TimerKind::LongTermSweep),
        Input::TimerHistory => Event::Timer(TimerKind::HistoryTick),
        Input::History { high, from } => {
            let intervals = if high == 0 { vec![] } else { vec![(SeqNo(1), SeqNo(high))] };
            let digest =
                HistoryDigest { entries: vec![DigestEntry { source: NodeId(0), intervals }] };
            pkt(from, Packet::History { digest: Arc::new(digest) })
        }
        Input::Leave => Event::Leave,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any event storm under any policy: no panics, no self-sends, no
    /// packets to unknown members, consistent store accounting,
    /// exactly-once delivery.
    #[test]
    fn event_storm_invariants(
        seed in 0u64..10_000,
        policy in 0..POLICIES.len(),
        inputs in proptest::collection::vec(arb_input(), 1..120),
    ) {
        let policy = POLICIES[policy];
        let mut r = receiver(seed, policy);
        let mut delivered = std::collections::HashSet::new();
        for (step, input) in inputs.iter().enumerate() {
            let now = SimTime::from_micros(step as u64 * 997);
            let actions = r.handle(to_event(input), now);
            for action in &actions {
                match action {
                    Action::Send { to, .. } => {
                        prop_assert_ne!(*to, SELF, "{} self-addressed packet from {:?}", policy.name(), input);
                    }
                    // The host skips this member in a fan-out's list; a
                    // fan-out still has to name someone else.
                    Action::SendMany { to, .. } => {
                        prop_assert!(to.iter().any(|&m| m != SELF), "{} empty fan-out from {:?}", policy.name(), input);
                    }
                    Action::Deliver { id } => {
                        prop_assert!(delivered.insert(*id), "duplicate delivery of {id}");
                    }
                    // Only the sender role multicasts to the whole group.
                    Action::MulticastGroup { .. } => {
                        prop_assert!(false, "group multicast from a non-sender on {:?}", input);
                    }
                    Action::MulticastRegion { .. } | Action::SetTimer { .. } => {}
                }
            }
            // Store accounting must match reality after every event.
            let store = r.store();
            let shorts = store.iter().filter(|(_, e)| e.phase == Phase::Short).count();
            let longs = store.iter().filter(|(_, e)| e.phase == Phase::Long).count();
            let bytes: usize = store.iter().map(|(_, e)| e.data.len()).sum();
            prop_assert_eq!(store.short_count(), shorts);
            prop_assert_eq!(store.long_count(), longs);
            prop_assert_eq!(store.bytes(), bytes);
            // A member that left must be inert.
            if r.has_left() {
                let more = r.handle(
                    to_event(&Input::Data { seq: 99, payload_len: 1 }),
                    now + rrmp_netsim::time::SimDuration::from_micros(1),
                );
                prop_assert!(more.is_empty(), "left member reacted: {more:?}");
                break;
            }
        }
    }

    /// Every buffered payload must be retrievable and byte-identical to
    /// what was received, regardless of input interleaving.
    #[test]
    fn buffered_payloads_are_intact(
        seed in 0u64..1000,
        seqs in proptest::collection::vec(1u64..20, 1..40),
    ) {
        let mut r = receiver(seed, PolicyKind::TwoPhase);
        for (step, &seq) in seqs.iter().enumerate() {
            let now = SimTime::from_micros(step as u64 * 1009);
            let payload = Bytes::from(vec![seq as u8; 8]);
            let packet = Packet::Data(DataPacket::new(mid(seq), payload));
            r.handle(Event::Packet { from: NodeId(0), packet }, now);
        }
        for &seq in &seqs {
            if let Some(got) = r.store().get(mid(seq)) {
                prop_assert_eq!(&got[..], &vec![seq as u8; 8][..], "payload corrupted");
            }
            prop_assert!(r.detector().received_before(mid(seq)));
        }
    }

    /// Timer storms for messages the receiver has never heard of are
    /// harmless no-ops.
    #[test]
    fn stale_timers_are_noops(seed in 0u64..1000, seqs in proptest::collection::vec(0u64..50, 1..60)) {
        let mut r = receiver(seed, PolicyKind::TwoPhase);
        for (step, &seq) in seqs.iter().enumerate() {
            let now = SimTime::from_micros(step as u64);
            for kind in [
                TimerKind::LocalRetry(mid(seq)),
                TimerKind::RemoteRetry(mid(seq)),
                TimerKind::IdleCheck(mid(seq)),
                TimerKind::SearchRetry(mid(seq)),
                TimerKind::Backoff(mid(seq)),
            ] {
                let actions = r.handle(Event::Timer(kind), now);
                prop_assert!(
                    actions.is_empty(),
                    "stale timer {kind:?} produced {actions:?}"
                );
            }
        }
        prop_assert_eq!(r.metrics().counters.delivered, 0);
    }
}

#[test]
fn hostile_origins_do_not_grow_state_unboundedly() {
    // An attacker floods search requests with fabricated origins for a
    // message we never received; waiters are registered (that is the
    // protocol's relay contract) but bounded by distinct origins, and
    // nothing is sent to ourselves.
    let mut r = receiver(7, PolicyKind::TwoPhase);
    for i in 0..1000u32 {
        let actions = r.handle(
            Event::Packet {
                from: NodeId(2),
                packet: Packet::SearchRequest {
                    msg: mid(1),
                    origins: vec![NodeId(200 + (i % 10))],
                },
            },
            SimTime::from_micros(u64::from(i)),
        );
        for a in actions {
            if let Action::Send { to, .. } = a {
                assert_ne!(to, SELF);
            }
        }
    }
    // Recovery state for one message only, despite 1000 probes.
    assert!(r.detector().is_missing(mid(1)));
}
