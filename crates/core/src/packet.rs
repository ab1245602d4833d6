//! RRMP wire messages and their binary codec.
//!
//! The protocol exchanges ten packet types: application data (the initial
//! multicast), sender session messages, local and remote retransmission
//! requests, unicast repairs, regional repair multicasts, the
//! search-for-bufferer request/announcement pair, long-term buffer
//! handoff on voluntary leave, and periodic history-digest
//! advertisements (stability-detection policies only).
//!
//! The codec is a hand-rolled length-checked binary format over
//! [`bytes`]: one tag byte followed by fixed-width big-endian fields and a
//! length-prefixed payload. Both the simulated transport (which passes
//! [`Packet`] values directly) and the UDP runtime (which serializes)
//! share this type.
//!
//! The decoder copies each payload into a [`Bytes`] of its own exact
//! size, so no decoded packet refers to the wire buffer it came from: a
//! host may reuse that buffer as soon as [`Packet::decode`] returns, and a
//! buffered 64 B message costs 64 B, not the datagram slab it arrived in.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rrmp_netsim::topology::NodeId;

use crate::history::{DigestEntry, HistoryDigest};
use crate::ids::{MessageId, SeqNo};

/// Application data identified by a [`MessageId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// The message identifier `[source, seq]`.
    pub id: MessageId,
    /// Opaque application payload.
    pub payload: Bytes,
}

impl DataPacket {
    /// Creates a data packet.
    #[must_use]
    pub fn new(id: MessageId, payload: Bytes) -> Self {
        DataPacket { id, payload }
    }
}

/// Distinguishes repairs answering local requests from repairs arriving
/// from a remote (upstream) region; the latter trigger a regional repair
/// multicast at the receiver (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// Answer to a local (intra-region) request.
    Local,
    /// Repair crossing regions: answer to a remote request, a relayed
    /// repair from a waiting-list, or a search result.
    Remote,
}

/// An RRMP protocol packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// The sender's initial multicast of a message to the whole group.
    Data(DataPacket),
    /// Sender session message advertising the highest sequence sent, so
    /// receivers can detect the loss of the last message in a burst.
    Session {
        /// The sender the advertisement is about.
        source: NodeId,
        /// Highest sequence number multicast so far ([`SeqNo::NONE`] if none).
        high: SeqNo,
    },
    /// Retransmission request to a random member of the requester's region.
    LocalRequest {
        /// The missing message.
        msg: MessageId,
    },
    /// Retransmission request to a random member of the parent region.
    RemoteRequest {
        /// The missing message.
        msg: MessageId,
    },
    /// Unicast retransmission of a message.
    Repair {
        /// The retransmitted data.
        data: DataPacket,
        /// Whether this repair crossed regions.
        kind: RepairKind,
    },
    /// Repair multicast within a region after a remote repair arrived.
    RegionalRepair {
        /// The retransmitted data.
        data: DataPacket,
    },
    /// Search-for-bufferer probe forwarded around a region (paper §3.3).
    SearchRequest {
        /// The message being searched for.
        msg: MessageId,
        /// Downstream members waiting for the repair.
        origins: Vec<NodeId>,
    },
    /// "I have the message" announcement that terminates a search.
    SearchFound {
        /// The message that was found.
        msg: MessageId,
        /// The member that holds it.
        holder: NodeId,
    },
    /// Long-term buffer transfer when a member voluntarily leaves (§3.2).
    Handoff {
        /// The transferred data.
        data: DataPacket,
    },
    /// Periodic history advertisement: the per-source interval sets of
    /// everything the sender has delivered. Stability-detection policies
    /// exchange these to learn when a message is safe to discard.
    History {
        /// The advertised delivery digest, shared: one tick's fan-out
        /// hands every destination the same digest, so a copy of the
        /// packet is a reference-count bump, not a deep copy.
        digest: Arc<HistoryDigest>,
    },
}

impl Packet {
    /// Serialized size in bytes (exact, matches [`Packet::encode`]).
    /// Computed arithmetically — no encoding or allocation happens.
    #[must_use]
    fn encoded_len(&self) -> usize {
        // Field widths: tag 1, MessageId 12 (u32 source + u64 seq),
        // payload length prefix 4.
        const MID: usize = 12;
        match self {
            Packet::Data(d) => 1 + MID + 4 + d.payload.len(),
            Packet::Session { .. } => 1 + 4 + 8,
            Packet::LocalRequest { .. } | Packet::RemoteRequest { .. } => 1 + MID,
            Packet::Repair { data, .. } => 1 + 1 + MID + 4 + data.payload.len(),
            Packet::RegionalRepair { data } | Packet::Handoff { data } => {
                1 + MID + 4 + data.payload.len()
            }
            Packet::SearchRequest { origins, .. } => 1 + MID + 2 + 4 * origins.len(),
            Packet::SearchFound { .. } => 1 + MID + 4,
            Packet::History { digest } => {
                1 + 2 + digest.entries.iter().map(|e| 4 + 2 + 16 * e.intervals.len()).sum::<usize>()
            }
        }
    }
}

/// Errors from [`Packet::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the packet was complete.
    Truncated,
    /// Unknown packet tag byte.
    UnknownTag(u8),
    /// Unknown repair-kind byte.
    UnknownRepairKind(u8),
    /// A declared length exceeds sane bounds.
    LengthOverflow,
    /// Trailing bytes after a complete packet.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "packet truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown packet tag {t:#x}"),
            DecodeError::UnknownRepairKind(k) => write!(f, "unknown repair kind {k:#x}"),
            DecodeError::LengthOverflow => write!(f, "declared length exceeds limit"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after packet"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_DATA: u8 = 0;
const TAG_SESSION: u8 = 1;
const TAG_LOCAL_REQUEST: u8 = 2;
const TAG_REMOTE_REQUEST: u8 = 3;
const TAG_REPAIR: u8 = 4;
const TAG_REGIONAL_REPAIR: u8 = 5;
const TAG_SEARCH_REQUEST: u8 = 6;
const TAG_SEARCH_FOUND: u8 = 7;
const TAG_HANDOFF: u8 = 8;
const TAG_HISTORY: u8 = 9;

/// Maximum accepted payload length (1 MiB) — guards against hostile or
/// corrupt length fields.
const MAX_PAYLOAD_LEN: usize = 1 << 20;
/// Maximum accepted origin-list length in a search request.
const MAX_ORIGINS: usize = 1 << 10;
/// Maximum accepted sources per history digest.
pub const MAX_DIGEST_SOURCES: usize = 1 << 10;
/// Maximum accepted intervals per history-digest source entry.
pub const MAX_DIGEST_INTERVALS: usize = 1 << 12;

fn put_message_id(buf: &mut BytesMut, id: MessageId) {
    buf.put_u32(id.source.0);
    buf.put_u64(id.seq.0);
}

fn get_message_id(buf: &mut Bytes) -> Result<MessageId, DecodeError> {
    if buf.remaining() < 12 {
        return Err(DecodeError::Truncated);
    }
    let source = NodeId(buf.get_u32());
    let seq = SeqNo(buf.get_u64());
    Ok(MessageId { source, seq })
}

fn put_data(buf: &mut BytesMut, data: &DataPacket) {
    put_message_id(buf, data.id);
    buf.put_u32(data.payload.len() as u32);
    buf.put_slice(&data.payload);
}

fn get_data(buf: &mut Bytes) -> Result<DataPacket, DecodeError> {
    let id = get_message_id(buf)?;
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u32() as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(DecodeError::LengthOverflow);
    }
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    // An exact-size copy: a buffered payload must not keep the whole
    // receive buffer it arrived in alive.
    let payload = Bytes::copy_from_slice(&buf[..len]);
    buf.advance(len);
    Ok(DataPacket { id, payload })
}

impl Packet {
    /// Serializes the packet to its binary wire form.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the packet's binary wire form to `buf`.
    ///
    /// The buffer-reuse form of [`Packet::encode`]: a host encoding many
    /// packets keeps one `BytesMut`, clears it between packets, and avoids
    /// an allocation per encode. The exact encoded size is reserved up
    /// front.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        match self {
            Packet::Data(d) => {
                buf.put_u8(TAG_DATA);
                put_data(buf, d);
            }
            Packet::Session { source, high } => {
                buf.put_u8(TAG_SESSION);
                buf.put_u32(source.0);
                buf.put_u64(high.0);
            }
            Packet::LocalRequest { msg } => {
                buf.put_u8(TAG_LOCAL_REQUEST);
                put_message_id(buf, *msg);
            }
            Packet::RemoteRequest { msg } => {
                buf.put_u8(TAG_REMOTE_REQUEST);
                put_message_id(buf, *msg);
            }
            Packet::Repair { data, kind } => {
                buf.put_u8(TAG_REPAIR);
                buf.put_u8(match kind {
                    RepairKind::Local => 0,
                    RepairKind::Remote => 1,
                });
                put_data(buf, data);
            }
            Packet::RegionalRepair { data } => {
                buf.put_u8(TAG_REGIONAL_REPAIR);
                put_data(buf, data);
            }
            Packet::SearchRequest { msg, origins } => {
                buf.put_u8(TAG_SEARCH_REQUEST);
                put_message_id(buf, *msg);
                buf.put_u16(origins.len() as u16);
                for o in origins {
                    buf.put_u32(o.0);
                }
            }
            Packet::SearchFound { msg, holder } => {
                buf.put_u8(TAG_SEARCH_FOUND);
                put_message_id(buf, *msg);
                buf.put_u32(holder.0);
            }
            Packet::Handoff { data } => {
                buf.put_u8(TAG_HANDOFF);
                put_data(buf, data);
            }
            Packet::History { digest } => {
                // `HistoryDigest::from_detector` caps itself to these
                // limits; a hand-built oversized digest would wrap the
                // u16 counts into a frame every peer rejects, silently
                // knocking the advertiser out of the stability quorum.
                debug_assert!(
                    digest.entries.len() <= MAX_DIGEST_SOURCES
                        && digest.entries.iter().all(|e| e.intervals.len() <= MAX_DIGEST_INTERVALS),
                    "history digest exceeds wire limits"
                );
                buf.put_u8(TAG_HISTORY);
                buf.put_u16(digest.entries.len() as u16);
                for entry in &digest.entries {
                    buf.put_u32(entry.source.0);
                    buf.put_u16(entry.intervals.len() as u16);
                    for &(lo, hi) in &entry.intervals {
                        buf.put_u64(lo.0);
                        buf.put_u64(hi.0);
                    }
                }
            }
        }
    }

    /// Parses a packet from its binary wire form.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the buffer is truncated, has an unknown
    /// tag, an oversized length field, or trailing bytes.
    pub fn decode(mut buf: Bytes) -> Result<Packet, DecodeError> {
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let tag = buf.get_u8();
        let packet = match tag {
            TAG_DATA => Packet::Data(get_data(&mut buf)?),
            TAG_SESSION => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                let source = NodeId(buf.get_u32());
                let high = SeqNo(buf.get_u64());
                Packet::Session { source, high }
            }
            TAG_LOCAL_REQUEST => Packet::LocalRequest { msg: get_message_id(&mut buf)? },
            TAG_REMOTE_REQUEST => Packet::RemoteRequest { msg: get_message_id(&mut buf)? },
            TAG_REPAIR => {
                if buf.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                let kind = match buf.get_u8() {
                    0 => RepairKind::Local,
                    1 => RepairKind::Remote,
                    k => return Err(DecodeError::UnknownRepairKind(k)),
                };
                Packet::Repair { data: get_data(&mut buf)?, kind }
            }
            TAG_REGIONAL_REPAIR => Packet::RegionalRepair { data: get_data(&mut buf)? },
            TAG_SEARCH_REQUEST => {
                let msg = get_message_id(&mut buf)?;
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let n = buf.get_u16() as usize;
                if n > MAX_ORIGINS {
                    return Err(DecodeError::LengthOverflow);
                }
                if buf.remaining() < n * 4 {
                    return Err(DecodeError::Truncated);
                }
                let origins = (0..n).map(|_| NodeId(buf.get_u32())).collect();
                Packet::SearchRequest { msg, origins }
            }
            TAG_SEARCH_FOUND => {
                let msg = get_message_id(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err(DecodeError::Truncated);
                }
                Packet::SearchFound { msg, holder: NodeId(buf.get_u32()) }
            }
            TAG_HANDOFF => Packet::Handoff { data: get_data(&mut buf)? },
            TAG_HISTORY => {
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let n_sources = buf.get_u16() as usize;
                if n_sources > MAX_DIGEST_SOURCES {
                    return Err(DecodeError::LengthOverflow);
                }
                let mut entries = Vec::with_capacity(n_sources);
                for _ in 0..n_sources {
                    if buf.remaining() < 6 {
                        return Err(DecodeError::Truncated);
                    }
                    let source = NodeId(buf.get_u32());
                    let n_intervals = buf.get_u16() as usize;
                    if n_intervals > MAX_DIGEST_INTERVALS {
                        return Err(DecodeError::LengthOverflow);
                    }
                    if buf.remaining() < n_intervals * 16 {
                        return Err(DecodeError::Truncated);
                    }
                    let intervals = (0..n_intervals)
                        .map(|_| (SeqNo(buf.get_u64()), SeqNo(buf.get_u64())))
                        .collect();
                    entries.push(DigestEntry { source, intervals });
                }
                Packet::History { digest: Arc::new(HistoryDigest { entries }) }
            }
            t => return Err(DecodeError::UnknownTag(t)),
        };
        if buf.has_remaining() {
            return Err(DecodeError::TrailingBytes(buf.remaining()));
        }
        Ok(packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(src: u32, seq: u64) -> MessageId {
        MessageId::new(NodeId(src), SeqNo(seq))
    }

    fn sample_packets() -> Vec<Packet> {
        vec![
            Packet::Data(DataPacket::new(mid(1, 1), Bytes::from_static(b"hello"))),
            Packet::Data(DataPacket::new(mid(0, 9), Bytes::new())),
            Packet::Session { source: NodeId(1), high: SeqNo(42) },
            Packet::Session { source: NodeId(0), high: SeqNo::NONE },
            Packet::LocalRequest { msg: mid(1, 7) },
            Packet::RemoteRequest { msg: mid(1, 8) },
            Packet::Repair {
                data: DataPacket::new(mid(1, 7), Bytes::from_static(b"x")),
                kind: RepairKind::Local,
            },
            Packet::Repair {
                data: DataPacket::new(mid(1, 8), Bytes::from_static(b"yy")),
                kind: RepairKind::Remote,
            },
            Packet::RegionalRepair { data: DataPacket::new(mid(1, 8), Bytes::from_static(b"z")) },
            Packet::SearchRequest { msg: mid(1, 3), origins: vec![NodeId(9), NodeId(11)] },
            Packet::SearchRequest { msg: mid(1, 3), origins: vec![] },
            Packet::SearchFound { msg: mid(1, 3), holder: NodeId(4) },
            Packet::Handoff { data: DataPacket::new(mid(1, 2), Bytes::from_static(b"h")) },
            Packet::History { digest: Arc::new(HistoryDigest::new()) },
            Packet::History {
                digest: Arc::new(HistoryDigest {
                    entries: vec![
                        DigestEntry {
                            source: NodeId(0),
                            intervals: vec![(SeqNo(1), SeqNo(5)), (SeqNo(9), SeqNo(9))],
                        },
                        DigestEntry { source: NodeId(7), intervals: vec![] },
                    ],
                }),
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for p in sample_packets() {
            let encoded = p.encode();
            let decoded = Packet::decode(encoded.clone()).unwrap_or_else(|e| {
                panic!("decode failed for {p:?}: {e}");
            });
            assert_eq!(decoded, p);
            assert_eq!(p.encoded_len(), encoded.len());
        }
    }

    #[test]
    fn decoded_payloads_do_not_share_the_wire_buffer() {
        let data = || DataPacket::new(mid(4, 9), Bytes::from_static(b"sixty-four bytes or so"));
        for p in [
            Packet::Data(data()),
            Packet::Repair { data: data(), kind: RepairKind::Remote },
            Packet::RegionalRepair { data: data() },
            Packet::Handoff { data: data() },
        ] {
            let wire = p.encode();
            let decoded = Packet::decode(wire.clone()).unwrap();
            assert!(
                wire.try_into_mut().is_ok(),
                "{p:?}'s payload still points into the wire buffer"
            );
            assert_eq!(decoded, p);
        }
    }

    #[test]
    fn truncated_buffers_error() {
        for p in sample_packets() {
            let encoded = p.encode();
            for cut in 0..encoded.len() {
                let err = Packet::decode(encoded.slice(0..cut));
                assert!(err.is_err(), "decoding {cut}-byte prefix of {p:?} should fail");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = BytesMut::from(&Packet::LocalRequest { msg: mid(1, 1) }.encode()[..]);
        bytes.put_u8(0xFF);
        assert_eq!(Packet::decode(bytes.freeze()), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = Bytes::from_static(&[0x77]);
        assert_eq!(Packet::decode(buf), Err(DecodeError::UnknownTag(0x77)));
    }

    #[test]
    fn unknown_repair_kind_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_REPAIR);
        buf.put_u8(9);
        assert_eq!(Packet::decode(buf.freeze()), Err(DecodeError::UnknownRepairKind(9)));
    }

    #[test]
    fn oversized_digest_rejected() {
        // Source count past the cap.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_HISTORY);
        buf.put_u16((MAX_DIGEST_SOURCES + 1) as u16);
        assert_eq!(Packet::decode(buf.freeze()), Err(DecodeError::LengthOverflow));
        // Interval count past the cap.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_HISTORY);
        buf.put_u16(1);
        buf.put_u32(3);
        buf.put_u16((MAX_DIGEST_INTERVALS + 1) as u16);
        assert_eq!(Packet::decode(buf.freeze()), Err(DecodeError::LengthOverflow));
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_DATA);
        buf.put_u32(1);
        buf.put_u64(1);
        buf.put_u32((MAX_PAYLOAD_LEN + 1) as u32);
        assert_eq!(Packet::decode(buf.freeze()), Err(DecodeError::LengthOverflow));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecodeError::Truncated,
            DecodeError::UnknownTag(1),
            DecodeError::UnknownRepairKind(2),
            DecodeError::LengthOverflow,
            DecodeError::TrailingBytes(3),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_message_id() -> impl Strategy<Value = MessageId> {
        (any::<u32>(), any::<u64>()).prop_map(|(s, q)| MessageId::new(NodeId(s), SeqNo(q)))
    }

    fn arb_data() -> impl Strategy<Value = DataPacket> {
        (arb_message_id(), proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(id, p)| DataPacket::new(id, Bytes::from(p)))
    }

    fn arb_digest() -> impl Strategy<Value = HistoryDigest> {
        let entry = (any::<u32>(), proptest::collection::vec((any::<u64>(), any::<u64>()), 0..6))
            .prop_map(|(src, iv)| DigestEntry {
                source: NodeId(src),
                intervals: iv.into_iter().map(|(lo, hi)| (SeqNo(lo), SeqNo(hi))).collect(),
            });
        proptest::collection::vec(entry, 0..5).prop_map(|entries| HistoryDigest { entries })
    }

    fn arb_packet() -> impl Strategy<Value = Packet> {
        prop_oneof![
            arb_data().prop_map(Packet::Data),
            (any::<u32>(), any::<u64>())
                .prop_map(|(s, h)| Packet::Session { source: NodeId(s), high: SeqNo(h) }),
            arb_message_id().prop_map(|msg| Packet::LocalRequest { msg }),
            arb_message_id().prop_map(|msg| Packet::RemoteRequest { msg }),
            (arb_data(), any::<bool>()).prop_map(|(data, local)| Packet::Repair {
                data,
                kind: if local { RepairKind::Local } else { RepairKind::Remote },
            }),
            arb_data().prop_map(|data| Packet::RegionalRepair { data }),
            (arb_message_id(), proptest::collection::vec(any::<u32>(), 0..8)).prop_map(
                |(msg, os)| Packet::SearchRequest {
                    msg,
                    origins: os.into_iter().map(NodeId).collect(),
                }
            ),
            (arb_message_id(), any::<u32>())
                .prop_map(|(msg, h)| Packet::SearchFound { msg, holder: NodeId(h) }),
            arb_data().prop_map(|data| Packet::Handoff { data }),
            arb_digest().prop_map(|digest| Packet::History { digest: Arc::new(digest) }),
        ]
    }

    proptest! {
        /// Every packet round-trips through the codec unchanged.
        #[test]
        fn codec_roundtrip(p in arb_packet()) {
            let encoded = p.encode();
            let decoded = Packet::decode(encoded).unwrap();
            prop_assert_eq!(decoded, p);
        }

        /// The decoder never panics on arbitrary bytes.
        #[test]
        fn decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Packet::decode(Bytes::from(bytes));
        }

        /// The decoder never panics on *mutated valid* packets — the
        /// adversarial shapes arbitrary bytes rarely reach, because a
        /// mutation keeps a plausible tag and structure: one byte
        /// flipped anywhere, truncation at any boundary, and arbitrary
        /// extension. Every mutation must decode or error, never panic,
        /// and a truncation must never decode successfully (no read
        /// past the cut).
        #[test]
        fn decoder_survives_mutated_packets(
            p in arb_packet(),
            flip_at in any::<usize>(),
            flip_mask in 1u8..=255u8,
            cut_at in any::<usize>(),
            extra in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let encoded = p.encode();
            // Flip: one byte XORed with a non-zero mask.
            let mut flipped = encoded.to_vec();
            let i = flip_at % flipped.len();
            flipped[i] ^= flip_mask;
            let _ = Packet::decode(Bytes::from(flipped));
            // Truncate: any strict prefix is an error, not a misparse.
            let cut = cut_at % encoded.len();
            prop_assert!(
                Packet::decode(encoded.slice(0..cut)).is_err(),
                "{}-byte prefix of a {}-byte packet must not decode",
                cut, encoded.len()
            );
            // Extend: trailing garbage is rejected (never silently
            // swallowed — a framing bug upstream must surface).
            let mut extended = encoded.to_vec();
            extended.extend_from_slice(&extra);
            prop_assert!(Packet::decode(Bytes::from(extended)).is_err());
        }

        /// History digests round-trip exactly; every strict prefix of the
        /// encoding is rejected as truncated, trailing garbage is
        /// rejected, and `encoded_len` predicts the wire size.
        #[test]
        fn history_digest_roundtrip_and_truncation(digest in arb_digest()) {
            let p = Packet::History { digest: Arc::new(digest) };
            let encoded = p.encode();
            prop_assert_eq!(p.encoded_len(), encoded.len());
            prop_assert_eq!(Packet::decode(encoded.clone()).unwrap(), p.clone());
            for cut in 0..encoded.len() {
                prop_assert!(
                    Packet::decode(encoded.slice(0..cut)).is_err(),
                    "{}-byte prefix must not decode", cut
                );
            }
            let mut trailing = BytesMut::from(&encoded[..]);
            trailing.put_u8(0xEE);
            prop_assert!(matches!(
                Packet::decode(trailing.freeze()),
                Err(DecodeError::TrailingBytes(1))
            ));
        }

        /// `encode_into` a reused buffer produces exactly the bytes of
        /// `encode`, and `encoded_len` predicts them without encoding.
        #[test]
        fn encode_into_matches_encode(
            packets in proptest::collection::vec(arb_packet(), 1..8),
        ) {
            let mut reused = BytesMut::new();
            for p in &packets {
                reused.clear();
                p.encode_into(&mut reused);
                let fresh = p.encode();
                prop_assert_eq!(&reused[..], &fresh[..]);
                prop_assert_eq!(p.encoded_len(), fresh.len());
                // And the reused-buffer bytes still decode to the packet.
                let decoded = Packet::decode(Bytes::copy_from_slice(&reused)).unwrap();
                prop_assert_eq!(&decoded, p);
            }
        }
    }
}
