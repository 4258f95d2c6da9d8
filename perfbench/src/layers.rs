//! Per-layer timings for the traced run: each layer's public call timed on
//! inputs of the shape the workload produced.

use crate::gen::{tape, Inputs, K};
use crate::span::Spans;
use fatih_core::monitor::{
    MonitorMetrics, MonitorMode, PathOracle, Report, ReportEntry, SegmentMonitorSet,
};
use fatih_core::policy::tv_pair;
use fatih_crypto::frame::{open_frame, seal_frame};
use fatih_crypto::{Fingerprint, KeyStore, Signature};
use fatih_net::codec::{decode_frame, encode_frame, Frame, WireMessage};
use fatih_net::linkstate::{sign_link_state, verify_link_state};
use fatih_net::reliable::{ReliableConfig, ReliableLayer};
use fatih_net::timer::TimerWheel;
use fatih_net::{LinkStateUpdate, TopoUpdate, Transport, UdpNet};
use fatih_obs::MetricsRegistry;
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime};
use fatih_topology::{pik2_segments_from_paths, DynamicTopology, Path, PathSegment, RouterId};
use fatih_validation::{diff_via_digest, ContentDigest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Wall time one repetition of a timed call should fill.
const REP_NS: f64 = 8e6;

/// Per-call time of `f` in ns: the median of five repetitions, each
/// calling `f` often enough to fill about [`REP_NS`].
pub fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let calls = (REP_NS / once).clamp(1.0, 1e6) as usize;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(reps)
}

/// A report of `n` entries with distinct fingerprints, in time order.
pub fn synthetic_report(n: usize, rng: &mut StdRng) -> Report {
    Report {
        entries: (0..n)
            .map(|i| ReportEntry {
                fingerprint: Fingerprint::new(rng.gen::<u64>() >> 3),
                size: 1000,
                time: SimTime::from_ns(i as u64 * 1_000),
            })
            .collect(),
    }
}

/// A data packet like the runtime's flow ticks inject.
fn data_packet(src: RouterId, dst: RouterId) -> Packet {
    let id = PacketId(1 << 40 | 7);
    Packet {
        id,
        src,
        dst,
        flow: FlowId(0),
        kind: PacketKind::Data,
        size: 1000,
        seq: 7,
        payload_tag: Packet::expected_tag(id),
        ttl: Packet::DEFAULT_TTL,
        created_at: SimTime::from_ns(1),
    }
}

/// Per-frame codec costs and sizes for one message type.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    /// `encode_frame` ns per frame (control frames include the HMAC seal).
    pub encode_ns: f64,
    /// `decode_frame` ns per frame (control frames include the HMAC open).
    pub decode_ns: f64,
    /// Encoded bytes.
    pub bytes: usize,
}

fn codec_cost(keys: &KeyStore, frame: &Frame) -> CodecCost {
    let bytes = encode_frame(frame, keys).expect("encodable frame");
    CodecCost {
        encode_ns: per_call_ns(|| {
            black_box(encode_frame(black_box(frame), keys).expect("encodable frame"));
        }),
        decode_ns: per_call_ns(|| {
            black_box(decode_frame(black_box(&bytes), keys).expect("decodable frame"));
        }),
        bytes: bytes.len(),
    }
}

/// The segment the single-segment timings use: one with the dropper as a
/// transit hop (the one an exclusion would name).
fn probe_segment(inputs: &Inputs) -> PathSegment {
    inputs
        .segments()
        .into_iter()
        .find(|s| s.interior().contains(&inputs.dropper))
        .expect("the dropper is a transit hop of flow 0")
}

/// Encoded frame sizes that let a run's control bytes be read back as
/// summary history: an ack frame, and a summary frame of `n` entries as
/// `summary_base_bytes + summary_bytes_per_entry · n`.
#[derive(Debug, Clone, Copy)]
pub struct FrameModel {
    pub ack_bytes: f64,
    pub summary_base_bytes: f64,
    pub summary_bytes_per_entry: f64,
}

impl FrameModel {
    /// Measures the sizes by encoding frames on `inputs`' probe segment.
    pub fn of(inputs: &Inputs, keys: &KeyStore) -> Self {
        let segment = probe_segment(inputs);
        let (src, dst) = segment.ends();
        let bytes = |msg: WireMessage| {
            let frame = Frame {
                src,
                dst,
                seq: 42,
                msg,
            };
            encode_frame(&frame, keys).expect("encodable frame").len() as f64
        };
        let summary = |n: usize| {
            bytes(WireMessage::Summary {
                round: 3,
                segment: segment.clone(),
                report: synthetic_report(n, &mut StdRng::seed_from_u64(1)),
            })
        };
        let base = summary(0);
        Self {
            ack_bytes: bytes(WireMessage::Ack { msg_id: 41 }),
            summary_base_bytes: base,
            summary_bytes_per_entry: (summary(1_000) - base) / 1_000.0,
        }
    }

    /// Bytes of a summary frame carrying `entries` report entries.
    pub fn summary_bytes(&self, entries: f64) -> f64 {
        self.summary_base_bytes + self.summary_bytes_per_entry * entries
    }

    /// Report entries a summary frame of `bytes` carries (at least 1).
    pub fn entries(&self, bytes: f64) -> f64 {
        ((bytes - self.summary_base_bytes) / self.summary_bytes_per_entry).max(1.0)
    }
}

/// Everything the traced run reports per layer, before the workload adds
/// its own counters.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    pub fingerprint_ns_per_pkt: f64,
    pub hmac_ns_per_frame: f64,
    pub segment_key_ns: f64,
    pub observe_ns_per_event: f64,
    pub memo_hit_share: f64,
    pub rebuild_ns: f64,
    pub tv_pair_ns: f64,
    pub summarize_ns_per_pkt: f64,
    pub digest_ns: f64,
    pub reconcile_ns: f64,
    pub data: CodecCost,
    pub digest: CodecCost,
    pub summary: CodecCost,
    pub link_state: CodecCost,
    pub ack: CodecCost,
    pub send_ns: f64,
    pub recv_ns: f64,
    pub empty_recv_ns: f64,
    pub track_ack_ns: f64,
    pub schedule_pop_ns: f64,
    pub ls_sign_ns: f64,
    pub ls_verify_ns: f64,
    pub paths_for_ns: f64,
    pub pik2_segments_ns: f64,
    pub routes_ns: f64,
}

/// Times every layer's public call on inputs shaped like the workload's:
/// its topology, flows and segments, and reports of `history` entries
/// (the mean record history a summary carried in the run).
pub fn measure(inputs: &Inputs, keys: &KeyStore, history: usize, spans: &mut Spans) -> LayerCosts {
    let mut c = LayerCosts::default();
    let mut rng = StdRng::seed_from_u64(history as u64 ^ 0x1A7E);
    let segments = inputs.segments();
    let oracle = PathOracle::from_paths(inputs.paths.clone());
    let seg0 = probe_segment(inputs);
    let (a, b) = seg0.ends();

    // crypto
    let t = tape(inputs, 0, 2_048, 0, &mut rng);
    let invs: Vec<[u8; 40]> = t
        .events
        .iter()
        .map(|e| e.packet().invariant_bytes())
        .collect();
    let msgs: Vec<&[u8]> = invs.iter().map(|v| &v[..]).collect();
    let key = keys.segment_uhash_key(seg0.stable_id());
    let mut out = Vec::new();
    c.fingerprint_ns_per_pkt = spans.time("crypto.fingerprint", || {
        per_call_ns(|| {
            key.fingerprint_batch_into(black_box(&msgs), &mut out);
            black_box(&out);
        }) / msgs.len() as f64
    });
    let pk = keys.pairwise_key(a.into(), b.into());
    c.hmac_ns_per_frame = spans.time("crypto.hmac", || {
        let body = vec![0x5Au8; 96];
        per_call_ns(|| {
            let mut f = body.clone();
            seal_frame(&pk, &mut f);
            black_box(open_frame(&pk, black_box(&f)));
        })
    });
    c.segment_key_ns = spans.time("crypto.segment_key", || {
        per_call_ns(|| {
            for s in &segments {
                black_box(keys.segment_uhash_key(s.stable_id()));
            }
        }) / segments.len() as f64
    });

    // monitor
    let reg = MetricsRegistry::new();
    c.observe_ns_per_event = spans.time("monitor.observe_batch", || {
        let ingest: Vec<f64> = (0..5)
            .map(|_| {
                let mut mon = SegmentMonitorSet::new(
                    segments.clone(),
                    oracle.clone(),
                    keys,
                    MonitorMode::EndsOnly,
                    None,
                );
                mon.attach_metrics(MonitorMetrics::registered(&reg));
                let start = Instant::now();
                for chunk in t.events.chunks(128) {
                    mon.observe_batch(chunk);
                }
                black_box(&mon);
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(ingest) / t.events.len() as f64
    });
    let snap = reg.snapshot();
    let hits = snap.counter("monitor.fp_cache_hits") as f64;
    let misses = snap.counter("monitor.fp_cache_misses") as f64;
    c.memo_hit_share = hits / (hits + misses).max(1.0);
    c.rebuild_ns = spans.time("monitor.rebuild", || {
        per_call_ns(|| {
            black_box(SegmentMonitorSet::new(
                segments.clone(),
                oracle.clone(),
                keys,
                MonitorMode::EndsOnly,
                None,
            ));
        })
    });

    // policy + validation, on reports of the run's history length
    let n = history.max(1);
    let up = synthetic_report(n, &mut rng);
    let mut down = up.clone();
    let keep = n.saturating_sub(16);
    down.entries.truncate(keep);
    let cutoff = SimTime::from_ns(u64::MAX / 2);
    c.tv_pair_ns = spans.time("policy.tv_pair", || {
        per_call_ns(|| {
            black_box(tv_pair(Some(&up), Some(&down), cutoff, SimTime::ZERO));
        })
    });
    c.summarize_ns_per_pkt = spans.time("validation.summarize", || {
        per_call_ns(|| {
            black_box(up.to_content());
        }) / n as f64
    });
    let up_c = up.to_content();
    let down_c = down.to_content();
    c.digest_ns = spans.time("validation.digest", || {
        per_call_ns(|| {
            black_box(ContentDigest::of(&up_c, 32));
        })
    });
    let d = ContentDigest::of(&up_c, 32);
    c.reconcile_ns = spans.time("validation.reconcile", || {
        per_call_ns(|| {
            black_box(diff_via_digest(&d, &down_c, &mut rng));
        })
    });

    // codec, per frame type
    let ls = LinkStateUpdate {
        origin: a,
        update_seq: 1,
        t_origin_ns: 700_000_000,
        update: TopoUpdate::ExcludeSegment(seg0.clone()),
    };
    let sig: Signature = sign_link_state(keys, &ls);
    let frame = |msg: WireMessage| Frame {
        src: a,
        dst: b,
        seq: 42,
        msg,
    };
    spans.time("codec", || {
        c.data = codec_cost(
            keys,
            &frame(WireMessage::Data {
                packet: data_packet(a, b),
                epoch: 0,
            }),
        );
        c.digest = codec_cost(
            keys,
            &frame(WireMessage::SummaryDigest {
                round: 3,
                segment: seg0.clone(),
                mature: d.clone(),
                full: d.clone(),
            }),
        );
        let summary_of = |report: Report| {
            frame(WireMessage::Summary {
                round: 3,
                segment: seg0.clone(),
                report,
            })
        };
        c.summary = codec_cost(keys, &summary_of(up.clone()));
        c.link_state = codec_cost(
            keys,
            &frame(WireMessage::LinkState {
                update: ls.clone(),
                sig,
            }),
        );
        c.ack = codec_cost(keys, &frame(WireMessage::Ack { msg_id: 41 }));
    });

    // transport: one loopback socket pair
    spans.time("transport", || {
        let mut pair = UdpNet::bind_group(&[a, b]).expect("bind loopback sockets");
        let mut rx = pair.pop().expect("receiver");
        let mut tx = pair.pop().expect("sender");
        let payload = vec![0x42u8; c.data.bytes];
        const BURST: usize = 64;
        let mut send_ns = Vec::new();
        let mut recv_ns = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            for _ in 0..BURST {
                tx.send(b, &payload).expect("loopback send");
            }
            send_ns.push(t.elapsed().as_nanos() as f64 / BURST as f64);
            let t = Instant::now();
            let mut got = 0;
            let mut polls = 0u32;
            while got < BURST && polls < 1_000_000 {
                polls += 1;
                if let Ok(Some(_)) = rx.try_recv() {
                    got += 1;
                }
            }
            recv_ns.push(t.elapsed().as_nanos() as f64 / got.max(1) as f64);
        }
        c.send_ns = median(send_ns);
        c.recv_ns = median(recv_ns);
        c.empty_recv_ns = per_call_ns(|| {
            black_box(rx.try_recv().expect("loopback recv"));
        });
    });

    // reliable + timer
    c.track_ack_ns = spans.time("reliable.track_ack", || {
        let mut rl = ReliableLayer::new(ReliableConfig::default());
        let frame = vec![0u8; c.ack.bytes];
        let mut seq = 0u64;
        per_call_ns(|| {
            seq += 1;
            rl.track(seq, b, frame.clone(), seq * 1_000);
            black_box(rl.on_ack(seq));
        })
    });
    c.schedule_pop_ns = spans.time("timer.schedule_pop", || {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut now = 0u64;
        per_call_ns(|| {
            for i in 0..64u64 {
                wheel.schedule(now + 1_000_000 + i * 37_000, i);
            }
            now += 4_000_000;
            black_box(wheel.pop_due(now));
        }) / 64.0
    });

    // linkstate
    c.ls_sign_ns = spans.time("linkstate.sign", || {
        per_call_ns(|| {
            black_box(sign_link_state(keys, black_box(&ls)));
        })
    });
    c.ls_verify_ns = spans.time("linkstate.verify", || {
        per_call_ns(|| {
            black_box(verify_link_state(keys, black_box(&ls), &sig));
        })
    });

    // topology: the reroute computation every router runs on applying an
    // exclusion, and the all-pairs routes set-up builds
    let pairs = inputs.pairs();
    let base = DynamicTopology::new(inputs.topo.clone());
    let mut rerouted: Vec<Path> = Vec::new();
    c.paths_for_ns = spans.time("topology.paths_for", || {
        per_call_ns(|| {
            let mut dt = base.clone();
            dt.exclude_segment(seg0.clone());
            let p = dt.paths_for(pairs.iter().copied());
            rerouted = pairs.iter().filter_map(|k| p.get(k).cloned()).collect();
        })
    });
    let routers = inputs.topo.router_count();
    c.pik2_segments_ns = spans.time("topology.pik2_segments", || {
        per_call_ns(|| {
            black_box(pik2_segments_from_paths(rerouted.clone(), routers, K).all_segments());
        })
    });
    c.routes_ns = spans.time("topology.routes", || {
        per_call_ns(|| {
            black_box(inputs.topo.link_state_routes());
        })
    });
    c
}

/// Median of a sample (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
