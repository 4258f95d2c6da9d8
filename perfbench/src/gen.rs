//! Seeded input generators. Everything a workload feeds the system —
//! topology, flows, the dropper and the in-memory tap tape — is a pure
//! function of the `--seed` argument.

use fatih_crypto::KeyStore;
use fatih_net::runtime::FlowSpec;
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{
    builtin, pik2_segments_from_paths, DynamicTopology, Path, PathSegment, RouterId, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

/// Routers in every workload's topology.
pub const ROUTERS: usize = 128;

/// Πk+2 fault parameter used throughout (suspected segments have ≤ 3
/// routers).
pub const K: usize = 1;

/// Fewest routers on a flow's routed path: scalebench's and churnbench's
/// floor, long enough that each flow crosses at least three overlapping
/// k+2 segments.
const MIN_FLOW_LEN: usize = 5;

/// Topologies (each with its own flows, dropper and tape) a run draws
/// from its seed and cycles through. Averaging over several keeps one
/// topology's path lengths and segment count from setting the run's
/// figures: on a single topology, `validate_pps` and the digest bytes per
/// packet moved with the seed's segment count (91–98 segments, ±4%).
pub const INSTANCES: usize = 4;

/// The seed of instance `j` of a run seeded with `seed`.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64) << 32)
}

/// A Rocketfuel AS1239-proportioned topology: ~3.1 duplex links per
/// router, degree capped at 45 (the scalebench/churnbench shape), wired
/// from `seed`.
pub fn topology(seed: u64) -> Topology {
    let links = ROUTERS * 972 / 315;
    builtin::isp_like("bench", ROUTERS, links, 45, seed)
}

/// The seeded inputs shared by every workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The router graph.
    pub topo: Topology,
    /// Constant-bit-rate flows with routed paths of at least
    /// [`MIN_FLOW_LEN`] routers.
    pub flows: Vec<FlowSpec>,
    /// The routed path of each flow, index-aligned with `flows`.
    pub paths: Vec<Path>,
    /// The compromised router: the middle hop of flow 0's path, so it is
    /// interior to at least one monitored segment.
    pub dropper: RouterId,
}

impl Inputs {
    /// Generates `want` distinct flows at `interval` on the topology of
    /// `seed`.
    pub fn generate(seed: u64, want: usize, interval: Duration) -> Self {
        let topo = topology(seed);
        let ids: Vec<RouterId> = topo.routers().collect();
        // The live runtime routes and monitors along `DynamicTopology`
        // paths, whose ties can break differently from
        // `link_state_routes`: use the same ones, so the segments here are
        // the ones a deployment monitors.
        let mut routes = DynamicTopology::new(topo.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F10E);
        let mut used: BTreeSet<(RouterId, RouterId)> = BTreeSet::new();
        let mut flows = Vec::with_capacity(want);
        let mut paths = Vec::with_capacity(want);
        let mut attempts = 0u32;
        while flows.len() < want {
            attempts += 1;
            assert!(attempts < 1_000_000, "topology has too few long paths");
            let s = ids[rng.gen_range(0..ids.len())];
            let d = ids[rng.gen_range(0..ids.len())];
            if s == d || !used.insert((s, d)) {
                continue;
            }
            match routes.path(s, d) {
                Ok(p) if p.len() >= MIN_FLOW_LEN => {
                    flows.push(FlowSpec::new(s, d, 1000, interval));
                    paths.push(p);
                }
                _ => {
                    used.remove(&(s, d));
                }
            }
        }
        let victim = paths[0].routers();
        let dropper = victim[victim.len() / 2];
        Self {
            topo,
            flows,
            paths,
            dropper,
        }
    }

    /// The (source, destination) pair of every flow.
    pub fn pairs(&self) -> Vec<(RouterId, RouterId)> {
        self.flows.iter().map(|f| (f.src, f.dst)).collect()
    }

    /// The Πk+2 segments of the flows' paths, in a stable order.
    pub fn segments(&self) -> Vec<PathSegment> {
        pik2_segments_from_paths(self.paths.clone(), self.topo.router_count(), K)
            .all_segments()
            .into_iter()
            .collect()
    }

    /// A key store with every router registered.
    pub fn keystore(&self, seed: u64) -> KeyStore {
        let mut ks = KeyStore::with_seed(seed);
        for r in self.topo.routers() {
            ks.register(r.into());
        }
        ks
    }
}

/// Spacing between consecutive packet injections on the tape.
const INJECT_NS: u64 = 1_000;
/// Forwarding delay at each hop.
const HOP_NS: u64 = 20_000;
/// Link propagation delay.
const LINK_NS: u64 = 5_000;

/// One round of hop-by-hop tap observations, in time order, plus the
/// ground truth the verdicts are checked against.
#[derive(Debug, Clone)]
pub struct Tape {
    /// Every `Enqueued`/`Arrived` observation of the round, time-ordered.
    pub events: Vec<TapEvent>,
    /// Packets injected.
    pub packets: usize,
    /// Packets the dropper discarded.
    pub dropped: Vec<Packet>,
    /// The flow path of each dropped packet, index-aligned with `dropped`.
    pub dropped_paths: Vec<Path>,
    /// Time after the last observation: every entry is mature by then.
    pub end: SimTime,
}

/// Generates round `round`'s tape: `packets` packets spread round-robin
/// over the flows, of which exactly `drops` (chosen by `rng` among the
/// packets that cross the dropper as a transit hop) vanish at the dropper.
pub fn tape(inputs: &Inputs, round: u64, packets: usize, drops: usize, rng: &mut StdRng) -> Tape {
    let transit = |p: &Path| {
        let r = p.routers();
        r[1..r.len() - 1].contains(&inputs.dropper)
    };
    let eligible: Vec<usize> = (0..packets)
        .filter(|&i| transit(&inputs.paths[i % inputs.paths.len()]))
        .collect();
    assert!(eligible.len() >= drops, "too few packets cross the dropper");
    let mut pick = eligible;
    let mut doomed = BTreeSet::new();
    while doomed.len() < drops {
        let j = rng.gen_range(0..pick.len());
        doomed.insert(pick.swap_remove(j));
    }

    let mut timed: Vec<TapEvent> = Vec::new();
    let mut dropped = Vec::with_capacity(drops);
    let mut dropped_paths = Vec::with_capacity(drops);
    let mut end = 0u64;
    for i in 0..packets {
        let f = i % inputs.flows.len();
        let path = &inputs.paths[f];
        let routers = path.routers();
        let t0 = i as u64 * INJECT_NS;
        let id = PacketId((round << 32) | i as u64);
        let packet = Packet {
            id,
            src: routers[0],
            dst: routers[routers.len() - 1],
            flow: FlowId(f as u32),
            kind: PacketKind::Data,
            size: inputs.flows[f].size,
            seq: i as u64,
            payload_tag: Packet::expected_tag(id),
            ttl: Packet::DEFAULT_TTL,
            created_at: SimTime::from_ns(t0),
        };
        let drop_here = doomed.contains(&i);
        for (h, w) in routers.windows(2).enumerate() {
            if drop_here && w[0] == inputs.dropper {
                dropped.push(packet);
                dropped_paths.push(path.clone());
                break;
            }
            let t = t0 + h as u64 * HOP_NS;
            timed.push(TapEvent::Enqueued {
                router: w[0],
                next_hop: w[1],
                packet,
                time: SimTime::from_ns(t),
                queue_len_after: 0,
            });
            timed.push(TapEvent::Arrived {
                router: w[1],
                from: Some(w[0]),
                packet,
                time: SimTime::from_ns(t + LINK_NS),
            });
            end = end.max(t + LINK_NS);
        }
    }
    timed.sort_by_key(|e| e.time());
    Tape {
        events: timed,
        packets,
        dropped,
        dropped_paths,
        end: SimTime::from_ns(end + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each router's neighbours, in router order.
    fn wiring(inputs: &Inputs) -> Vec<Vec<RouterId>> {
        inputs
            .topo
            .routers()
            .map(|r| inputs.topo.neighbors(r).iter().map(|&(n, _)| n).collect())
            .collect()
    }

    /// The round-0 tape of `seed`, drawn the way `validate_mem` draws it.
    fn tape_of(inputs: &Inputs, seed: u64) -> Tape {
        tape(inputs, 0, 2_000, 16, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(7, 8, Duration::from_millis(4));
        let b = Inputs::generate(7, 8, Duration::from_millis(4));
        assert_eq!(wiring(&a), wiring(&b));
        assert_eq!(a.pairs(), b.pairs());
        assert_eq!(a.dropper, b.dropper);
        let (ta, tb) = (tape_of(&a, 7), tape_of(&b, 7));
        assert_eq!(ta.events, tb.events);
        assert_eq!(ta.dropped, tb.dropped);
    }

    #[test]
    fn different_seed_different_inputs() {
        let a = Inputs::generate(7, 8, Duration::from_millis(4));
        let b = Inputs::generate(8, 8, Duration::from_millis(4));
        assert_ne!(wiring(&a), wiring(&b), "topology");
        assert_ne!(a.pairs(), b.pairs(), "flows");
        assert_ne!(a.paths[0], b.paths[0], "the dropper's flow");
        assert_ne!(tape_of(&a, 7).dropped, tape_of(&a, 8).dropped, "drops");
    }

    #[test]
    fn tape_drops_exactly_at_the_dropper() {
        let inputs = Inputs::generate(3, 16, Duration::from_millis(1));
        let t = tape(&inputs, 0, 4_000, 16, &mut StdRng::seed_from_u64(3));
        assert_eq!(t.dropped.len(), 16);
        for p in &t.dropped {
            assert!(!t.events.iter().any(|e| matches!(e,
                TapEvent::Enqueued { router, packet, .. }
                    if *router == inputs.dropper && packet.id == p.id)));
        }
        assert!(t.events.windows(2).all(|w| w[0].time() <= w[1].time()));
    }
}
