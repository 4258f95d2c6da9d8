//! The `live_steady` workload: `LiveDeployment::run` over `UdpNet`
//! loopback sockets with one shard, repeated deployments of a fixed number
//! of rounds until the run's time is used.

use crate::gen::{Inputs, K};
use crate::span::Spans;
use crate::sys;
use fatih_net::runtime::{LiveConfig, LiveDeployment, LiveEvent, LiveOutcome, LiveSpec};
use fatih_net::UdpNet;
use fatih_obs::MetricsSnapshot;
use fatih_topology::RouterId;
use std::time::{Duration, Instant};

/// Shard count, pinned: the main thread plus one shard fit a 2-core host.
pub const SHARDS: usize = 1;

/// Flows and their interval: the scalebench offered load, 2k pkts/s,
/// spread over 16 flows × 8 ms rather than scalebench's 8 × 4 ms. The
/// self-throttling generator loses a tick's scheduling delay on every
/// packet, which at 4 ms intervals made delivery depend on the seed's flow
/// phases (16% spread across seeds, against 2% here).
pub const FLOWS: usize = 16;
/// Inter-packet interval of every flow.
pub const INTERVAL: Duration = Duration::from_millis(8);
/// Rounds per deployment: long enough that the record-history growth shows
/// in every result, short enough that several deployments fit one run.
pub const ROUNDS: u64 = 10;

/// The deployment's configuration: the `LiveConfig` defaults (Full summary
/// mode, τ = 300 ms) with the response loop off and one shard.
pub fn config(seed: u64) -> LiveConfig {
    LiveConfig {
        k: K,
        rounds: ROUNDS,
        key_seed: seed,
        shards: SHARDS,
        response: false,
        ..LiveConfig::default()
    }
}

/// Wall time the rounds span (flows stop injecting at its end).
pub fn round_time() -> Duration {
    config(0).tau * ROUNDS as u32
}

/// Packets the flows are scheduled to inject over the round time.
pub fn scheduled() -> f64 {
    FLOWS as f64 * round_time().as_secs_f64() / INTERVAL.as_secs_f64()
}

/// One round's costs, from neighbouring `round_metrics` snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCost {
    /// Data packets delivered.
    pub delivered: u64,
    /// Control bytes sent, retransmissions included.
    pub control_bytes: u64,
    /// Frames sent.
    pub frames: u64,
    /// Control-frame retransmissions.
    pub retransmits: u64,
}

/// Per-round series of a deployment.
pub fn round_series(outcome: &LiveOutcome) -> Vec<RoundCost> {
    let at = |s: &MetricsSnapshot| RoundCost {
        delivered: s.counter("net.data_delivered"),
        control_bytes: s.counter("net.control_bytes_sent") + s.counter("net.retransmit_bytes"),
        frames: s.counter("net.frames_sent"),
        retransmits: s.counter("net.retransmits"),
    };
    let mut prev = RoundCost::default();
    outcome
        .round_metrics
        .iter()
        .map(|s| {
            let c = at(s);
            let d = RoundCost {
                delivered: c.delivered - prev.delivered,
                control_bytes: c.control_bytes - prev.control_bytes,
                frames: c.frames - prev.frames,
                retransmits: c.retransmits - prev.retransmits,
            };
            prev = c;
            d
        })
        .collect()
}

/// What one deployment measured.
#[derive(Debug)]
pub struct Deployment {
    /// Input generation + socket bind + the part of `run` before its
    /// round epoch, in seconds.
    pub setup_s: f64,
    /// CPU seconds of the worker threads: process CPU over `run` minus the
    /// calling thread's.
    pub worker_cpu_s: f64,
    /// The run's outcome.
    pub outcome: LiveOutcome,
    /// The inputs it ran on.
    pub inputs: Inputs,
    /// The seed the inputs and keys were drawn from.
    pub seed: u64,
    /// Segment-end verdicts a complete run evaluates: both ends of every
    /// monitored segment, every round.
    pub expected_verdicts: u64,
    /// Segment-end verdicts evaluated (`RoundEvaluated` events).
    pub evaluated: u64,
    /// Evaluated verdicts that failed validation or lacked the peer's
    /// summary (⊥).
    pub bad_verdicts: u64,
}

impl Deployment {
    /// Data packets delivered.
    pub fn delivered(&self) -> u64 {
        self.outcome.stats.data_delivered
    }

    /// Failed gates: verdicts missing, failed or ⊥, and suspicions. Every
    /// deployment on honest routers must evaluate every segment end every
    /// round and pass.
    pub fn failures(&self) -> u64 {
        self.expected_verdicts.abs_diff(self.evaluated)
            + self.bad_verdicts
            + self.outcome.suspicions.len() as u64
    }
}

/// Runs one deployment on the inputs of `seed`.
pub fn deploy(seed: u64, spans: &mut Spans) -> Deployment {
    let t_setup = Instant::now();
    let inputs = spans.time("gen.inputs", || Inputs::generate(seed, FLOWS, INTERVAL));
    let ids: Vec<RouterId> = inputs.topo.routers().collect();
    let transports = spans.time("transport.bind", || {
        UdpNet::bind_group(&ids).expect("bind loopback sockets")
    });
    let spec = LiveSpec {
        flows: inputs.flows.clone(),
        ..LiveSpec::default()
    };
    let cfg = config(seed);
    let pre_run_s = t_setup.elapsed().as_secs_f64();

    let cpu0 = sys::process_cpu_s();
    let main0 = sys::thread_cpu_s();
    let t_run = Instant::now();
    let outcome = spans.time("runtime.run", || {
        LiveDeployment::run(&inputs.topo, &spec, &cfg, transports)
    });
    let run_s = t_run.elapsed().as_secs_f64();
    let worker_cpu_s = (sys::process_cpu_s() - cpu0) - (sys::thread_cpu_s() - main0);
    // `run` returns `rounds·τ + budget + 300 ms` after its round epoch
    // (plus the shard join); what precedes the epoch is set-up.
    let after_epoch =
        (round_time() + cfg.exchange_budget + Duration::from_millis(300)).as_secs_f64();
    let (mut evaluated, mut bad_verdicts) = (0, 0);
    for e in &outcome.events {
        if let LiveEvent::RoundEvaluated { passed, bottom, .. } = e {
            evaluated += 1;
            if !passed || *bottom {
                bad_verdicts += 1;
            }
        }
    }
    Deployment {
        setup_s: pre_run_s + (run_s - after_epoch).max(0.0),
        worker_cpu_s,
        outcome,
        expected_verdicts: 2 * inputs.segments().len() as u64 * ROUNDS,
        inputs,
        seed,
        evaluated,
        bad_verdicts,
    }
}
