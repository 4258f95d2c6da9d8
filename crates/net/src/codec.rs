//! The fatih wire format: binary frames for data and control messages.
//!
//! Every frame is laid out as
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xF7)
//! 1       1     version (0x01)
//! 2       1     message type (see `MsgType`)
//! 3       4     source router id, u32 LE
//! 7       4     destination router id, u32 LE
//! 11      8     frame sequence number, u64 LE
//! 19      4     body length in bytes, u32 LE
//! 23      n     tagged body (fatih_core::wire::WireEncoder layout)
//! [23+n]  32    HMAC-SHA256 trailer — control frames only
//! ```
//!
//! Control frames (everything except [`MsgType::Data`]) are sealed with an
//! HMAC-SHA256 trailer under the **pairwise key** of the frame's source
//! and destination (`fatih_crypto::frame`), computed over the entire
//! preceding frame, header included. A forged, truncated, or bit-flipped
//! control frame is therefore rejected before any field is interpreted.
//! Data frames are not MAC'd — exactly as in the simulator, transit
//! traffic is instead covered by the keyed per-segment fingerprints and
//! the packet's own integrity tag ([`Packet::intact`]), so a modification
//! in flight surfaces as a traffic-validation failure, not a codec error.
//!
//! Link-state updates additionally carry an **inner signature** by their
//! origin router ([`crate::linkstate::ls_sign_bytes`]), so an update
//! relayed by a third party is still attributable to its origin.

use crate::linkstate::LinkStateUpdate;
use fatih_core::monitor::Report;
use fatih_core::wire::{WireEncoder, WireError, WireReader};
use fatih_crypto::frame::{open_frame, seal_frame, MAC_LEN};
use fatih_crypto::{KeyStore, Signature};
#[cfg(test)]
use fatih_sim::SimTime;
use fatih_sim::{FlowId, Packet, PacketId, PacketKind};
use fatih_topology::{PathSegment, RouterId};
use fatih_validation::digest::ContentDigest;
use fatih_validation::reconcile::SetSketch;
use fatih_validation::summary::FlowCounter;

/// First byte of every fatih frame.
pub const MAGIC: u8 = 0xF7;
/// Wire-format version this codec speaks.
pub const VERSION: u8 = 0x01;
/// Fixed header length in bytes (before the tagged body).
pub const HEADER_LEN: usize = 23;
/// Largest frame this codec will emit or accept — fits one UDP datagram.
pub const MAX_FRAME: usize = 65_000;
/// Largest sketch capacity a decoded digest may claim, bounding the
/// allocation a single control frame can demand.
pub const MAX_SKETCH_CAPACITY: usize = 4_096;

/// Message type discriminant, third byte of the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// A transit data packet (hop-by-hop forwarded, not MAC'd).
    Data,
    /// A per-segment traffic summary `info(r, π, τ)` for one round.
    Summary,
    /// Acknowledgment of a reliable control frame.
    Ack,
    /// Fixed-size digests of a per-segment record (reconciliation first).
    SummaryDigest,
    /// Fallback request for the full summary after a digest failed to
    /// reconcile.
    SummaryPull,
    /// A flooded, origin-signed topology change (conviction, join/leave,
    /// link flap).
    LinkState,
}

impl MsgType {
    /// The header byte for this type.
    pub fn as_byte(self) -> u8 {
        match self {
            MsgType::Data => 1,
            MsgType::Summary => 2,
            MsgType::Ack => 3,
            MsgType::SummaryDigest => 6,
            MsgType::SummaryPull => 7,
            MsgType::LinkState => 8,
        }
    }

    /// Parses a header byte.
    pub fn from_byte(b: u8) -> Option<MsgType> {
        match b {
            1 => Some(MsgType::Data),
            2 => Some(MsgType::Summary),
            3 => Some(MsgType::Ack),
            6 => Some(MsgType::SummaryDigest),
            7 => Some(MsgType::SummaryPull),
            8 => Some(MsgType::LinkState),
            _ => None,
        }
    }

    /// Whether frames of this type carry a MAC trailer.
    pub fn is_control(self) -> bool {
        self != MsgType::Data
    }
}

/// The payload of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// A transit data packet, tagged with the routing epoch it was emitted
    /// under. After a reconvergence, frames from the old epoch keep
    /// draining hop-by-hop but are no longer fed to traffic validation —
    /// the epoch tag is how receivers tell the difference.
    Data {
        /// The packet itself.
        packet: Packet,
        /// Routing epoch of the emitting flow source.
        epoch: u64,
    },
    /// One end's traffic record for a segment and round.
    Summary {
        /// Round index the summary closes.
        round: u64,
        /// The monitored segment.
        segment: PathSegment,
        /// The sender's cumulative record for the segment.
        report: Report,
    },
    /// Acknowledges the reliable control frame with sequence `msg_id`.
    Ack {
        /// Sequence number of the acknowledged frame.
        msg_id: u64,
    },
    /// Fixed-size digests of one end's record for a segment and round:
    /// the Appendix A reconciliation path. Bytes are proportional to the
    /// sketch capacity, not to the traffic summarized.
    SummaryDigest {
        /// Round index the digests close.
        round: u64,
        /// The monitored segment.
        segment: PathSegment,
        /// Digest of the maturity-filtered record (entries at or before
        /// the round's maturity cutoff).
        mature: ContentDigest,
        /// Digest of the complete cumulative record.
        full: ContentDigest,
    },
    /// Fallback request: the sender could not reconcile the peer's digest
    /// against its own record and needs the full summary after all.
    SummaryPull {
        /// Round index of the digest that failed to reconcile.
        round: u64,
        /// The monitored segment.
        segment: PathSegment,
    },
    /// A flooded topology change, attributable to its origin via the inner
    /// signature over [`crate::linkstate::ls_sign_bytes`].
    LinkState {
        /// The update being flooded.
        update: LinkStateUpdate,
        /// The origin's signature over the update's semantic content.
        sig: Signature,
    },
}

impl WireMessage {
    /// This message's wire type.
    pub fn msg_type(&self) -> MsgType {
        match self {
            WireMessage::Data { .. } => MsgType::Data,
            WireMessage::Summary { .. } => MsgType::Summary,
            WireMessage::Ack { .. } => MsgType::Ack,
            WireMessage::SummaryDigest { .. } => MsgType::SummaryDigest,
            WireMessage::SummaryPull { .. } => MsgType::SummaryPull,
            WireMessage::LinkState { .. } => MsgType::LinkState,
        }
    }
}

/// One addressed frame: what a [`crate::transport::Transport`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending router (the MAC key is the (src, dst) pairwise key).
    pub src: RouterId,
    /// Receiving router.
    pub dst: RouterId,
    /// Per-sender frame sequence number (acked by reliable control).
    pub seq: u64,
    /// The payload.
    pub msg: WireMessage,
}

/// Why a byte string was rejected by [`decode_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Shorter than the fixed header.
    TooShort,
    /// First byte is not [`MAGIC`].
    BadMagic,
    /// Unsupported version byte.
    BadVersion(u8),
    /// Unknown message-type byte.
    UnknownType(u8),
    /// The header's body length disagrees with the frame length.
    BadLength,
    /// A control frame's MAC trailer failed to verify.
    BadMac,
    /// The frame names a router the key store has never registered.
    UnknownRouter(u32),
    /// A tagged body field failed to decode.
    Field(WireError),
    /// A summary's embedded report was malformed.
    BadReport,
    /// A decoded value violates its invariants (unknown packet kind,
    /// out-of-range digest, malformed signature, frame too large to emit).
    Invalid,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooShort => write!(f, "frame shorter than the header"),
            CodecError::BadMagic => write!(f, "bad magic byte"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::UnknownType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadLength => write!(f, "body length disagrees with frame length"),
            CodecError::BadMac => write!(f, "control frame MAC rejected"),
            CodecError::UnknownRouter(r) => write!(f, "unregistered router {r}"),
            CodecError::Field(e) => write!(f, "body field: {e}"),
            CodecError::BadReport => write!(f, "malformed embedded report"),
            CodecError::Invalid => write!(f, "decoded value violates invariants"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Field(e)
    }
}

fn kind_code(kind: PacketKind) -> u32 {
    match kind {
        PacketKind::Data => 0,
        PacketKind::TcpSyn => 1,
        PacketKind::TcpSynAck => 2,
        PacketKind::TcpAck => 3,
        PacketKind::TcpData => 4,
        PacketKind::Ping => 5,
        PacketKind::Pong => 6,
        PacketKind::Control => 7,
    }
}

fn kind_from_code(code: u32) -> Option<PacketKind> {
    Some(match code {
        0 => PacketKind::Data,
        1 => PacketKind::TcpSyn,
        2 => PacketKind::TcpSynAck,
        3 => PacketKind::TcpAck,
        4 => PacketKind::TcpData,
        5 => PacketKind::Ping,
        6 => PacketKind::Pong,
        7 => PacketKind::Control,
        _ => return None,
    })
}

fn encode_body(msg: &WireMessage) -> Vec<u8> {
    let mut e = WireEncoder::new();
    match msg {
        WireMessage::Data { packet: p, epoch } => {
            e.u64(p.id.0)
                .router(p.src)
                .router(p.dst)
                .u32(p.flow.0)
                .u32(kind_code(p.kind))
                .u32(p.size)
                .u64(p.seq)
                .u64(p.payload_tag)
                .u32(p.ttl as u32)
                .time(p.created_at)
                .u64(*epoch);
        }
        WireMessage::Summary {
            round,
            segment,
            report,
        } => {
            e.u64(*round).segment(segment).bytes(&report.encode());
        }
        WireMessage::Ack { msg_id } => {
            e.u64(*msg_id);
        }
        WireMessage::SummaryDigest {
            round,
            segment,
            mature,
            full,
        } => {
            e.u64(*round).segment(segment);
            encode_digest(&mut e, mature);
            encode_digest(&mut e, full);
        }
        WireMessage::SummaryPull { round, segment } => {
            e.u64(*round).segment(segment);
        }
        WireMessage::LinkState { update, sig } => {
            update.encode_into(&mut e);
            e.bytes(&sig.0 .0);
        }
    }
    e.into_bytes()
}

fn encode_digest(e: &mut WireEncoder, d: &ContentDigest) {
    e.u32(d.sketch().capacity() as u32).u64(d.sketch().len());
    let mut evals = Vec::with_capacity(d.sketch().evals().len() * 8);
    for fe in d.sketch().evals() {
        evals.extend_from_slice(&fe.value().to_le_bytes());
    }
    let flow = d.flow();
    e.bytes(&evals)
        .u64(flow.packets)
        .u64(flow.bytes)
        .u64(d.mix_sum());
}

fn read_digest(rd: &mut WireReader<'_>) -> Result<ContentDigest, CodecError> {
    let capacity = rd.u32()? as usize;
    if capacity == 0 || capacity > MAX_SKETCH_CAPACITY {
        return Err(CodecError::Invalid);
    }
    let size = rd.u64()?;
    let raw = rd.bytes()?;
    if raw.len() % 8 != 0 {
        return Err(CodecError::Invalid);
    }
    let evals: Vec<fatih_validation::field::Fe> = raw
        .chunks_exact(8)
        .map(|c| {
            fatih_validation::field::Fe::new(u64::from_le_bytes(c.try_into().expect("8 bytes")))
        })
        .collect();
    let sketch = SetSketch::from_parts(capacity, size, evals).ok_or(CodecError::Invalid)?;
    let packets = rd.u64()?;
    let bytes = rd.u64()?;
    let mix = rd.u64()?;
    Ok(ContentDigest::from_parts(
        sketch,
        FlowCounter { packets, bytes },
        mix,
    ))
}

/// Encodes (and for control frames, seals) one frame for the wire.
///
/// Fails with [`CodecError::Invalid`] if the frame would exceed
/// [`MAX_FRAME`], and with [`CodecError::UnknownRouter`] if a control
/// frame's endpoints are not both registered with the key store.
pub fn encode_frame(frame: &Frame, keys: &KeyStore) -> Result<Vec<u8>, CodecError> {
    let body = encode_body(&frame.msg);
    let ty = frame.msg.msg_type();
    let total = HEADER_LEN + body.len() + if ty.is_control() { MAC_LEN } else { 0 };
    if total > MAX_FRAME {
        return Err(CodecError::Invalid);
    }
    let mut out = Vec::with_capacity(total);
    out.push(MAGIC);
    out.push(VERSION);
    out.push(ty.as_byte());
    out.extend_from_slice(&u32::from(frame.src).to_le_bytes());
    out.extend_from_slice(&u32::from(frame.dst).to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    if ty.is_control() {
        let (src, dst) = (u32::from(frame.src), u32::from(frame.dst));
        if !keys.contains(src) {
            return Err(CodecError::UnknownRouter(src));
        }
        if !keys.contains(dst) {
            return Err(CodecError::UnknownRouter(dst));
        }
        seal_frame(&keys.pairwise_key(src, dst), &mut out);
    }
    Ok(out)
}

/// Peeks a frame's message type without decoding it (used by the chaos
/// shim to fault only control traffic). `None` if the bytes are not even
/// a plausible frame header.
pub fn peek_type(bytes: &[u8]) -> Option<MsgType> {
    if bytes.len() < HEADER_LEN || bytes[0] != MAGIC || bytes[1] != VERSION {
        return None;
    }
    MsgType::from_byte(bytes[2])
}

/// Decodes (and for control frames, authenticates) one frame.
///
/// Never panics: arbitrary, truncated or bit-flipped input yields a
/// [`CodecError`].
pub fn decode_frame(bytes: &[u8], keys: &KeyStore) -> Result<Frame, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::TooShort);
    }
    if bytes[0] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if bytes[1] != VERSION {
        return Err(CodecError::BadVersion(bytes[1]));
    }
    let ty = MsgType::from_byte(bytes[2]).ok_or(CodecError::UnknownType(bytes[2]))?;
    let src_raw = u32::from_le_bytes(bytes[3..7].try_into().expect("4 bytes"));
    let dst_raw = u32::from_le_bytes(bytes[7..11].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(bytes[11..19].try_into().expect("8 bytes"));
    let body_len = u32::from_le_bytes(bytes[19..23].try_into().expect("4 bytes")) as usize;

    let body = if ty.is_control() {
        // Authenticate before interpreting a single body field.
        if !keys.contains(src_raw) {
            return Err(CodecError::UnknownRouter(src_raw));
        }
        if !keys.contains(dst_raw) {
            return Err(CodecError::UnknownRouter(dst_raw));
        }
        let key = keys.pairwise_key(src_raw, dst_raw);
        let authed = open_frame(&key, bytes).ok_or(CodecError::BadMac)?;
        if authed.len() != HEADER_LEN + body_len {
            return Err(CodecError::BadLength);
        }
        &authed[HEADER_LEN..]
    } else {
        if bytes.len() != HEADER_LEN + body_len {
            return Err(CodecError::BadLength);
        }
        &bytes[HEADER_LEN..]
    };

    let mut rd = WireReader::new(body);
    let msg = match ty {
        MsgType::Data => {
            let id = PacketId(rd.u64()?);
            let src = rd.router()?;
            let dst = rd.router()?;
            let flow = FlowId(rd.u32()?);
            let kind = kind_from_code(rd.u32()?).ok_or(CodecError::Invalid)?;
            let size = rd.u32()?;
            let pseq = rd.u64()?;
            let payload_tag = rd.u64()?;
            let ttl = u8::try_from(rd.u32()?).map_err(|_| CodecError::Invalid)?;
            let created_at = rd.time()?;
            let epoch = rd.u64()?;
            WireMessage::Data {
                packet: Packet {
                    id,
                    src,
                    dst,
                    flow,
                    kind,
                    size,
                    seq: pseq,
                    payload_tag,
                    ttl,
                    created_at,
                },
                epoch,
            }
        }
        MsgType::Summary => {
            let round = rd.u64()?;
            let segment = rd.segment()?;
            let report = Report::decode(rd.bytes()?).ok_or(CodecError::BadReport)?;
            WireMessage::Summary {
                round,
                segment,
                report,
            }
        }
        MsgType::Ack => WireMessage::Ack { msg_id: rd.u64()? },
        MsgType::SummaryDigest => {
            let round = rd.u64()?;
            let segment = rd.segment()?;
            let mature = read_digest(&mut rd)?;
            let full = read_digest(&mut rd)?;
            WireMessage::SummaryDigest {
                round,
                segment,
                mature,
                full,
            }
        }
        MsgType::SummaryPull => {
            let round = rd.u64()?;
            let segment = rd.segment()?;
            WireMessage::SummaryPull { round, segment }
        }
        MsgType::LinkState => {
            let update = LinkStateUpdate::decode_from(&mut rd)?.ok_or(CodecError::Invalid)?;
            let sig_bytes = rd.bytes()?;
            let digest: [u8; 32] = sig_bytes.try_into().map_err(|_| CodecError::Invalid)?;
            WireMessage::LinkState {
                update,
                sig: Signature(fatih_crypto::Digest(digest)),
            }
        }
    };
    rd.done()?;
    Ok(Frame {
        src: RouterId::from(src_raw),
        dst: RouterId::from(dst_raw),
        seq,
        msg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_core::monitor::ReportEntry;
    use fatih_crypto::Fingerprint;

    fn keystore() -> KeyStore {
        let mut ks = KeyStore::with_seed(11);
        for r in 0..8 {
            ks.register(r);
        }
        ks
    }

    fn sample_packet() -> Packet {
        Packet {
            id: PacketId(99),
            src: RouterId::from(0),
            dst: RouterId::from(5),
            flow: FlowId(2),
            kind: PacketKind::Data,
            size: 1000,
            seq: 17,
            payload_tag: Packet::expected_tag(PacketId(99)),
            ttl: 61,
            created_at: SimTime::from_ms(42),
        }
    }

    #[test]
    fn data_frame_round_trips_without_mac() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(1),
            dst: RouterId::from(2),
            seq: 7,
            msg: WireMessage::Data {
                packet: sample_packet(),
                epoch: 3,
            },
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::Data));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);
    }

    #[test]
    fn link_state_frame_round_trips_and_authenticates() {
        use crate::linkstate::{sign_link_state, verify_link_state, TopoUpdate};
        let ks = keystore();
        let update = LinkStateUpdate {
            origin: RouterId::from(2),
            update_seq: 5,
            t_origin_ns: 900_000_000,
            update: TopoUpdate::ExcludeSegment(PathSegment::new(vec![
                RouterId::from(2),
                RouterId::from(6),
                RouterId::from(4),
            ])),
        };
        let sig = sign_link_state(&ks, &update);
        let f = Frame {
            src: RouterId::from(2),
            dst: RouterId::from(6),
            seq: 11,
            msg: WireMessage::LinkState {
                update: update.clone(),
                sig,
            },
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::LinkState));
        match decode_frame(&bytes, &ks).unwrap().msg {
            WireMessage::LinkState { update: u, sig: s } => {
                assert_eq!(u, update);
                assert!(verify_link_state(&ks, &u, &s));
            }
            other => panic!("wrong message: {other:?}"),
        }

        // Link-state frames are control frames: a bit flip is caught by the
        // hop MAC before the inner signature is even consulted.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 4] ^= 0x08;
        assert_eq!(decode_frame(&bad, &ks), Err(CodecError::BadMac));
    }

    #[test]
    fn summary_frame_round_trips_and_authenticates() {
        let ks = keystore();
        let report = Report {
            entries: vec![ReportEntry {
                fingerprint: Fingerprint::new(5),
                size: 900,
                time: SimTime::from_ms(3),
            }],
        };
        let f = Frame {
            src: RouterId::from(3),
            dst: RouterId::from(4),
            seq: 1,
            msg: WireMessage::Summary {
                round: 2,
                segment: PathSegment::new(vec![
                    RouterId::from(3),
                    RouterId::from(6),
                    RouterId::from(4),
                ]),
                report,
            },
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::Summary));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);

        // A bit flip anywhere in a control frame is caught by the MAC.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 2] ^= 0x40;
        assert_eq!(decode_frame(&bad, &ks), Err(CodecError::BadMac));
    }

    #[test]
    fn summary_digest_round_trips_and_authenticates() {
        use fatih_validation::summary::ContentSummary;
        let ks = keystore();
        let mut mature = ContentSummary::default();
        let mut full = ContentSummary::default();
        for i in 0u64..300 {
            full.observe(Fingerprint::new(i * 131 + 7), 900);
            if i < 250 {
                mature.observe(Fingerprint::new(i * 131 + 7), 900);
            }
        }
        let f = Frame {
            src: RouterId::from(2),
            dst: RouterId::from(5),
            seq: 4,
            msg: WireMessage::SummaryDigest {
                round: 3,
                segment: PathSegment::new(vec![
                    RouterId::from(2),
                    RouterId::from(7),
                    RouterId::from(5),
                ]),
                mature: ContentDigest::of(&mature, 16),
                full: ContentDigest::of(&full, 16),
            },
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::SummaryDigest));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);
        // The digest frame is fixed-size: far smaller than the ~300-entry
        // full summary it stands in for.
        assert!(
            bytes.len() < 300 * 20 / 2,
            "digest frame {} bytes",
            bytes.len()
        );

        // Digest frames are control frames: bit flips are caught.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 9] ^= 0x01;
        assert_eq!(decode_frame(&bad, &ks), Err(CodecError::BadMac));
    }

    #[test]
    fn summary_pull_round_trips() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(4),
            dst: RouterId::from(1),
            seq: 12,
            msg: WireMessage::SummaryPull {
                round: 9,
                segment: PathSegment::new(vec![RouterId::from(1), RouterId::from(4)]),
            },
        };
        let bytes = encode_frame(&f, &ks).unwrap();
        assert_eq!(peek_type(&bytes), Some(MsgType::SummaryPull));
        assert_eq!(decode_frame(&bytes, &ks).unwrap(), f);
    }

    #[test]
    fn wrong_pairwise_key_rejected() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(1),
            dst: RouterId::from(2),
            seq: 3,
            msg: WireMessage::Ack { msg_id: 8 },
        };
        let mut bytes = encode_frame(&f, &ks).unwrap();
        // Redirect the frame to a different destination: the MAC no longer
        // matches the claimed (src, dst) pair.
        bytes[7..11].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_frame(&bytes, &ks), Err(CodecError::BadMac));
    }

    #[test]
    fn unregistered_endpoints_rejected() {
        let ks = keystore();
        let f = Frame {
            src: RouterId::from(100),
            dst: RouterId::from(2),
            seq: 0,
            msg: WireMessage::Ack { msg_id: 1 },
        };
        assert_eq!(encode_frame(&f, &ks), Err(CodecError::UnknownRouter(100)));
    }

    #[test]
    fn garbage_and_header_errors() {
        let ks = keystore();
        assert_eq!(decode_frame(b"short", &ks), Err(CodecError::TooShort));
        let mut bytes = encode_frame(
            &Frame {
                src: RouterId::from(0),
                dst: RouterId::from(1),
                seq: 0,
                msg: WireMessage::Data {
                    packet: sample_packet(),
                    epoch: 0,
                },
            },
            &ks,
        )
        .unwrap();
        let good = bytes.clone();
        bytes[0] = 0x00;
        assert_eq!(decode_frame(&bytes, &ks), Err(CodecError::BadMagic));
        bytes = good.clone();
        bytes[1] = 0x09;
        assert_eq!(decode_frame(&bytes, &ks), Err(CodecError::BadVersion(0x09)));
        bytes = good.clone();
        bytes[2] = 0xEE;
        assert_eq!(
            decode_frame(&bytes, &ks),
            Err(CodecError::UnknownType(0xEE))
        );
        // Truncated data frame: length disagreement.
        assert_eq!(
            decode_frame(&good[..good.len() - 1], &ks),
            Err(CodecError::BadLength)
        );
    }
}
