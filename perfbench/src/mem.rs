//! The `validate_mem` workload: one thread, no sockets. Each round feeds a
//! seeded hop-by-hop tap tape through a fresh `SegmentMonitorSet` and
//! validates every Πk+2 segment the way both ends of a reconciling
//! deployment would: summarize → digest → reconcile, with `tv_pair` on the
//! raw reports as the full-transfer reference verdict.

use crate::gen::{instance_seed, tape, Inputs, Tape, INSTANCES};
use crate::span::Spans;
use fatih_core::monitor::{MonitorMetrics, MonitorMode, PathOracle, SegmentMonitorSet};
use fatih_core::policy::tv_pair;
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_net::codec::{encode_frame, Frame, WireMessage};
use fatih_net::runtime::LiveConfig;
use fatih_obs::MetricsRegistry;
use fatih_sim::SimTime;
use fatih_topology::PathSegment;
use fatih_validation::{apply_diff, diff_via_digest, ContentDigest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Flows on the tape and their inter-packet interval: the offered load of
/// a saturated one-shard deployment (32 flows × 1 ms), the load at which
/// validation capacity, not the generator, bounds delivery.
pub const FLOWS: usize = 32;
/// Inter-packet interval of every flow.
pub const INTERVAL: Duration = Duration::from_millis(1);

/// Packets injected per round: what [`FLOWS`] flows at [`INTERVAL`] offer
/// in one round of the `LiveConfig` default τ (32 × 300 ms / 1 ms = 9,600).
pub fn packets_per_round() -> usize {
    FLOWS * (LiveConfig::default().tau.as_nanos() / INTERVAL.as_nanos()) as usize
}

/// Packets the dropper discards per round, drawn per instance from this range:
/// every segment's difference fits the sketch.
const DROPS: std::ops::Range<usize> = 12..21;
/// Sketch capacity of every digest (the reconciling deployments' value).
pub const CAPACITY: usize = 32;
/// Tap events per `observe_batch` call.
const BATCH: usize = 128;

/// One topology of a run, with everything a round on it needs, built
/// during set-up.
pub struct Instance {
    /// Seeded inputs.
    pub inputs: Inputs,
    /// Monitored segments.
    pub segments: Vec<PathSegment>,
    oracle: PathOracle,
    /// The deployment's keys.
    pub keys: KeyStore,
    tape: Tape,
    /// Packets the dropper discards per round.
    pub drops: usize,
    /// Per segment: the sorted fingerprints the dropper's drops must show
    /// up as.
    expected: Vec<Vec<Fingerprint>>,
}

/// Generates the [`INSTANCES`] topologies of `seed`, with their key
/// stores, round tapes and ground truth. Rounds cycle through them.
pub fn setup(seed: u64) -> Vec<Instance> {
    (0..INSTANCES)
        .map(|j| instance(instance_seed(seed, j)))
        .collect()
}

fn instance(seed: u64) -> Instance {
    let inputs = Inputs::generate(seed, FLOWS, INTERVAL);
    let segments = inputs.segments();
    let oracle = PathOracle::from_paths(inputs.paths.clone());
    let keys = inputs.keystore(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A9E);
    let drops = rng.gen_range(DROPS);
    let tape = tape(&inputs, 0, packets_per_round(), drops, &mut rng);
    let expected = segments
        .iter()
        .map(|s| {
            let key = keys.segment_uhash_key(s.stable_id());
            let mut fps: Vec<Fingerprint> = tape
                .dropped
                .iter()
                .zip(&tape.dropped_paths)
                .filter(|(_, p)| {
                    p.contains_segment(s.routers()) && s.interior().contains(&inputs.dropper)
                })
                .map(|(pkt, _)| pkt.fingerprint(&key))
                .collect();
            fps.sort();
            fps
        })
        .collect();
    Instance {
        inputs,
        segments,
        oracle,
        keys,
        tape,
        drops,
        expected,
    }
}

/// What one round measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Packets on the tape.
    pub packets: usize,
    /// Packets that reached their destination, as the verdicts reconstruct
    /// it: every dropped packet is lost on exactly one monitored segment
    /// (the k+2 window centred on the dropper), so this is the tape's
    /// packets minus the lost sets' sizes.
    pub delivered: usize,
    /// Wall time from the full tape to the last verdict.
    pub pipeline: Duration,
    /// Per stage: ingest, summarize, digest, reconcile, verdict.
    pub stages: [Duration; 5],
    /// Bytes of the `SummaryDigest` frames the two ends of every segment
    /// exchange, as `encode_frame` writes them (header, digests and MAC).
    pub digest_bytes: usize,
    /// Segment verdicts reached.
    pub verdicts: u64,
    /// Verdicts whose lost or fabricated set differs from the seeded
    /// drops.
    pub wrong: u64,
    /// Digest exchanges that could not be decoded and needed a full pull.
    /// Every segment's difference fits the sketch, so each one is also a
    /// wrong verdict.
    pub fallbacks: u64,
    /// Digest exchanges attempted.
    pub exchanges: u64,
    /// Tap events ingested.
    pub events: usize,
    /// Report entries summarized (both ends, mature and full).
    pub entries: usize,
    /// Packets in the digest path's lost sets, over every segment.
    pub lost: usize,
}

/// Stage names, index-aligned with [`Round::stages`].
pub const STAGES: [&str; 5] = [
    "monitor.observe_batch",
    "validation.summarize",
    "validation.digest",
    "validation.reconcile",
    "policy.tv_pair",
];

fn sorted(mut v: Vec<Fingerprint>) -> Vec<Fingerprint> {
    v.sort();
    v
}

/// Runs round `r` on a fresh monitor set over instance `s`.
pub fn round(s: &Instance, r: usize, reg: &MetricsRegistry, spans: &mut Spans) -> Round {
    let tape = &s.tape;
    let expected = &s.expected;
    let mut mon = SegmentMonitorSet::new(
        s.segments.clone(),
        s.oracle.clone(),
        &s.keys,
        MonitorMode::EndsOnly,
        None,
    );
    mon.attach_metrics(MonitorMetrics::registered(reg));
    let mut rng = StdRng::seed_from_u64(r as u64);
    let mut out = Round {
        packets: tape.packets,
        events: tape.events.len(),
        ..Round::default()
    };
    let cutoff = tape.end;

    let start = Instant::now();
    let t = Instant::now();
    let open = spans.begin(STAGES[0]);
    for chunk in tape.events.chunks(BATCH) {
        mon.observe_batch(chunk);
    }
    spans.end(open);
    out.stages[0] += t.elapsed();

    for (i, seg) in s.segments.iter().enumerate() {
        let up = mon.report(seg.source(), i);
        let down = mon.report(seg.sink(), i);

        out.entries += 2 * (up.len() + down.len());
        let t = Instant::now();
        let open = spans.begin(STAGES[1]);
        let up_full = up.to_content();
        let up_mature = up.mature(cutoff).to_content();
        let down_full = down.to_content();
        let down_mature = down.mature(cutoff).to_content();
        spans.end(open);
        out.stages[1] += t.elapsed();

        let t = Instant::now();
        let open = spans.begin(STAGES[2]);
        let digests = [
            ContentDigest::of(&up_mature, CAPACITY),
            ContentDigest::of(&up_full, CAPACITY),
            ContentDigest::of(&down_mature, CAPACITY),
            ContentDigest::of(&down_full, CAPACITY),
        ];
        spans.end(open);
        out.stages[2] += t.elapsed();

        // The downstream end decodes the upstream end's digests against
        // its own summaries, exactly as a reconciling deployment does.
        let t = Instant::now();
        let open = spans.begin(STAGES[3]);
        out.exchanges += 1;
        let decoded = match (
            diff_via_digest(&digests[0], &down_mature, &mut rng),
            diff_via_digest(&digests[1], &down_full, &mut rng),
        ) {
            (Some((m_add, m_rem)), Some((f_add, f_rem))) => {
                let peer_mature = apply_diff(&down_mature, &m_add, &m_rem, digests[0].flow());
                let peer_full = apply_diff(&down_full, &f_add, &f_rem, digests[1].flow());
                Some((
                    peer_mature.difference_pair(&down_full).0,
                    down_mature.difference_pair(&peer_full).0,
                ))
            }
            _ => None,
        };
        spans.end(open);
        out.stages[3] += t.elapsed();

        let t = Instant::now();
        let open = spans.begin(STAGES[4]);
        let verdict = tv_pair(Some(&up), Some(&down), cutoff, SimTime::ZERO);
        spans.end(open);
        out.stages[4] += t.elapsed();

        out.verdicts += 1;
        let want = &expected[i];
        let digest_ok = match decoded {
            Some((lost, fabricated)) => {
                out.lost += lost.len();
                sorted(lost) == *want && fabricated.is_empty()
            }
            None => {
                out.fallbacks += 1;
                false
            }
        };
        if !digest_ok || sorted(verdict.lost) != *want || !verdict.fabricated.is_empty() {
            out.wrong += 1;
        }

        // Each end sends the other its two digests in one frame; their
        // encoded length is the exchange's control-plane cost. Outside the
        // timed pipeline.
        let (src, dst) = seg.ends();
        let [up_m, up_f, down_m, down_f] = digests;
        for (from, to, mature, full) in [(src, dst, up_m, up_f), (dst, src, down_m, down_f)] {
            let frame = Frame {
                src: from,
                dst: to,
                seq: r as u64,
                msg: WireMessage::SummaryDigest {
                    round: r as u64,
                    segment: seg.clone(),
                    mature,
                    full,
                },
            };
            out.digest_bytes += encode_frame(&frame, &s.keys)
                .expect("a digest frame fits the codec")
                .len();
        }
    }
    out.pipeline = start.elapsed();
    out.delivered = out.packets - out.lost;
    out
}
