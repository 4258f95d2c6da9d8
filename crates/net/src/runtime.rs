//! The sharded live runtime and deployment harness.
//!
//! Routers no longer get one OS thread each: a small pool of **shard
//! workers** (default `available_parallelism − 1`) each owns a shard of
//! router event loops and multiplexes them over non-blocking transport
//! receives and one shared [`TimerWheel`] per shard. Round boundaries,
//! evaluation deadlines and the retransmission pump are *batched per
//! shard* — one timer fires and every router in the shard does its round
//! work — so a Rocketfuel-scale deployment (hundreds of routers) costs
//! hundreds of event loops but only a handful of threads and timer streams.
//!
//! The protocol machinery is the simulator's own — [`SegmentMonitorSet`]
//! builds `info(r, π, τ)` from the router's real forwarding decisions,
//! [`tv_pair`] judges maturity-windowed traffic validation, and a failed
//! exchange becomes a timeout accusation — but round boundaries are
//! wall-clock deadlines and every message crosses a real transport as
//! encoded bytes.
//!
//! Summary exchange has two modes ([`SummaryMode`]). In `Full` mode the
//! ends ship complete [`ContentSummary`](fatih_validation::summary::ContentSummary)-bearing
//! reports, costing control
//! bytes proportional to the traffic volume. In `Reconcile` mode they ship
//! fixed-size [`ContentDigest`]s (the Appendix A characteristic-polynomial
//! sketch plus certifying checksums) and each end *decodes* the peer's
//! summary from its own records plus the recovered difference; only when
//! the difference exceeds the sketch capacity does it pull the full
//! summary, and a counter records every fallback.
//!
//! Time axis: all shards share one epoch `Instant`; local observation
//! times are nanoseconds since that epoch, wrapped in [`SimTime`] so the
//! core validation code runs unchanged. The dissertation's synchronized
//! clocks assumption (§2.1.2) holds exactly — the routers literally share
//! a clock — and the maturity lag plays the role of the §5.3.1 skew/transit
//! tolerance.

use crate::codec::{decode_frame, encode_frame, Frame, WireMessage};
use crate::linkstate::{sign_link_state, verify_link_state, LinkStateUpdate, TopoUpdate};
use crate::timer::TimerWheel;
use crate::transport::Transport;
use fatih_core::monitor::{MonitorMode, PathOracle, SegmentMonitorSet};
use fatih_core::pik2;
use fatih_core::policy::{tv_pair, PairVerdict, Policy, Thresholds};
use fatih_core::probation::ProbationTracker;
use fatih_core::spec::{Interval, Suspicion};
use fatih_core::transport::{Pumped, RetryMachine, RetryPolicy};
use fatih_crypto::{Fingerprint, KeyStore, Signature};
use fatih_obs::trace::{NO_ROUND, NO_ROUTER};
use fatih_obs::{
    Counter, Histogram, MetricsRegistry, MetricsSnapshot, TraceBuffer, TraceJournal, TraceKind,
};
use fatih_sim::{FlowId, Packet, PacketId, PacketKind, SimTime, TapEvent};
use fatih_topology::{DynamicTopology, Path, PathSegment, RouterId, Routes, Topology};
use fatih_validation::digest::{apply_diff, diff_via_digest, ContentDigest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A constant-bit-rate traffic flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Source router.
    pub src: RouterId,
    /// Destination router.
    pub dst: RouterId,
    /// Packet size in bytes.
    pub size: u32,
    /// Inter-packet interval.
    pub interval: Duration,
}

impl FlowSpec {
    /// A CBR flow from `src` to `dst`.
    pub fn new(src: RouterId, dst: RouterId, size: u32, interval: Duration) -> Self {
        Self {
            src,
            dst,
            size,
            interval,
        }
    }
}

/// A maliciously dropping router.
#[derive(Debug, Clone, Copy)]
pub struct DropperSpec {
    /// The compromised router.
    pub router: RouterId,
    /// Probability it silently drops each transit packet it should
    /// forward.
    pub rate: f64,
    /// Seed for its drop decisions.
    pub seed: u64,
    /// First round in which it misbehaves; earlier rounds it forwards
    /// faithfully. `0` drops from the start.
    pub active_from: u64,
}

/// One scripted topology change a router performs mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// The actor's duplex link to this peer goes down (announced).
    LinkDown(RouterId),
    /// The actor's duplex link to this peer comes back (announced).
    LinkUp(RouterId),
    /// Graceful departure: announce [`TopoUpdate::RouterDown`] for
    /// oneself, then go silent.
    Leave,
    /// An initially-down router comes alive and announces itself with
    /// incarnation 0 (no probation).
    Join,
    /// Silent crash: the router stops processing without any
    /// announcement. Peers learn of it via [`ChurnAction::ReportDown`] or
    /// through reliable-delivery exhaustion.
    Crash,
    /// Crash-restart: the actor returns with a bumped incarnation, fresh
    /// HMAC state and an empty link-state database, and re-enters under
    /// probation.
    Restart,
    /// The actor reports another router dead (it observed the crash) by
    /// originating [`TopoUpdate::RouterDown`] on its behalf.
    ReportDown(RouterId),
}

/// A scheduled churn event: at `at` after the deployment epoch, `actor`
/// performs `action`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// When, relative to the deployment epoch.
    pub at: Duration,
    /// The router performing the action.
    pub actor: RouterId,
    /// What it does.
    pub action: ChurnAction,
}

/// What to run: traffic, adversaries, and which paths to monitor.
#[derive(Debug, Clone, Default)]
pub struct LiveSpec {
    /// Traffic flows.
    pub flows: Vec<FlowSpec>,
    /// Compromised routers.
    pub droppers: Vec<DropperSpec>,
    /// (source, destination) pairs whose routed paths get Πk+2 segment
    /// monitoring. Empty: monitor the flows' own paths.
    pub monitor_pairs: Vec<(RouterId, RouterId)>,
    /// Routers that start the run dead (they come alive via
    /// [`ChurnAction::Join`]). Initial routes avoid them.
    pub initially_down: Vec<RouterId>,
    /// Scripted topology churn: flaps, joins, leaves, crash-restarts.
    pub churn: Vec<ChurnEvent>,
}

/// How the segment ends exchange their round summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SummaryMode {
    /// Ship the complete report: control bytes grow with traffic volume.
    #[default]
    Full,
    /// Ship fixed-size [`ContentDigest`]s and decode the difference
    /// against local records; pull the full summary only when the
    /// difference exceeds the sketch `capacity` (Appendix A).
    Reconcile {
        /// Sketch capacity: the largest distinct-fingerprint difference
        /// the digest can resolve without falling back.
        capacity: usize,
    },
}

/// Deployment-wide protocol timing and policy.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Πk+2 fault parameter: suspected segments have ≤ k+2 routers.
    pub k: usize,
    /// Round length τ (wall clock).
    pub tau: Duration,
    /// How long after a round boundary the ends wait for each other's
    /// summaries before evaluating (timeout-as-accusation deadline).
    pub exchange_budget: Duration,
    /// Maturity lag: packets observed upstream within this window before
    /// a round boundary are deferred to the next round rather than
    /// judged while possibly still in flight.
    pub maturity_lag: Duration,
    /// Number of rounds to run.
    pub rounds: u64,
    /// Master seed for the deployment's key infrastructure.
    pub key_seed: u64,
    /// Worker shards multiplexing the router event loops. `0` = auto:
    /// `available_parallelism − 1`, at least 1, never more than routers.
    pub shards: usize,
    /// Summary-exchange mode (full transfer vs reconciliation).
    pub summary: SummaryMode,
    /// Whether convictions trigger the §2.4.3 response: flood a signed
    /// [`TopoUpdate::ExcludeSegment`], reroute around it and reconverge.
    /// Off, the runtime only detects (the pre-response behaviour).
    pub response: bool,
}

impl Default for LiveConfig {
    /// Timing tuned for loopback transports: 300ms rounds and an exchange
    /// budget long enough for ~6 retransmission attempts.
    fn default() -> Self {
        Self {
            k: 1,
            tau: Duration::from_millis(300),
            exchange_budget: Duration::from_millis(150),
            maturity_lag: Duration::from_millis(60),
            rounds: 3,
            key_seed: 0xFA714,
            shards: 0,
            summary: SummaryMode::Full,
            response: true,
        }
    }
}

/// Something observable that happened during a live run.
#[derive(Debug, Clone)]
pub enum LiveEvent {
    /// One end evaluated one segment for one round.
    RoundEvaluated {
        /// Evaluating router.
        router: RouterId,
        /// Round index.
        round: u64,
        /// Segment evaluated.
        segment: PathSegment,
        /// Whether traffic validation passed.
        passed: bool,
        /// Whether the peer's summary was missing (⊥).
        bottom: bool,
        /// Mature packets lost across the segment.
        lost: usize,
        /// Mature packets fabricated within the segment.
        fabricated: usize,
    },
    /// A router raised a suspicion.
    SuspicionRaised {
        /// The suspicion.
        suspicion: Suspicion,
        /// Round it was raised in.
        round: u64,
    },
    /// An expected summary never arrived by the evaluation deadline.
    SummaryTimeout {
        /// The end that timed out waiting.
        by: RouterId,
        /// The segment whose exchange failed.
        segment: PathSegment,
        /// The round.
        round: u64,
    },
    /// A restarted router finished probation and regained transit duty.
    /// Emitted once, by the cleared router itself.
    ProbationCleared {
        /// The router whose probation cleared.
        router: RouterId,
        /// The round boundary at which it cleared.
        round: u64,
    },
}

/// Aggregate counters across all routers of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Frames handed to transports.
    pub frames_sent: u64,
    /// Data packets delivered to their destination router.
    pub data_delivered: u64,
    /// Data packets silently dropped by compromised routers.
    pub data_dropped: u64,
    /// Encoded bytes of control frames (summaries, digests, pulls, acks,
    /// link-state updates), including retransmissions.
    pub control_bytes_sent: u64,
    /// Reconciliation-mode digest exchanges decoded without a full
    /// transfer.
    pub digests_resolved: u64,
    /// Reconciliation-mode digest exchanges that fell back to pulling the
    /// full summary.
    pub digest_fallbacks: u64,
}

/// Declares [`NetMetrics`]: one registered handle per listed field, named
/// `net.<field>` in the registry, so each metric name is spelled once.
macro_rules! net_metrics {
    (counters { $($c:ident),* $(,)? } histograms { $($h:ident),* $(,)? }) => {
        /// Registered handles for every metric the live runtime maintains.
        /// One set of cells per deployment: each node clones the handles,
        /// so increments from every shard aggregate with no collection
        /// step.
        #[derive(Debug, Clone)]
        struct NetMetrics {
            $($c: Counter,)*
            $($h: Histogram,)*
        }

        impl NetMetrics {
            fn registered(reg: &MetricsRegistry) -> Self {
                Self {
                    $($c: reg.counter(concat!("net.", stringify!($c))),)*
                    $($h: reg.histogram(concat!("net.", stringify!($h))),)*
                }
            }
        }
    };
}

net_metrics! {
    counters {
        frames_sent,
        frames_received,
        data_delivered,
        data_dropped,
        retransmits,
        retransmit_bytes,
        decode_failures,
        encode_failures,
        data_bytes_sent,
        control_bytes_sent,
        wire_bytes_sent,
        wire_bytes_recv,
        digests_resolved,
        digest_fallbacks,
        accusations_raised,
        summary_timeouts,
        epoch_transitions,
        ls_updates_sent,
        ls_updates_applied,
        untapped_drained,
        transition_forward_miss,
        purged_frames,
        probation_admitted,
        probation_cleared,
        routers_isolated,
        empty_polls,
    }
    histograms {
        frame_bytes,
        round_eval_ns,
        reroute_latency_ns,
    }
}

impl NetMetrics {
    /// The aggregate view of the counters. Retransmitted bytes count as
    /// control bytes.
    fn stats(&self) -> LiveStats {
        LiveStats {
            frames_sent: self.frames_sent.get(),
            data_delivered: self.data_delivered.get(),
            data_dropped: self.data_dropped.get(),
            control_bytes_sent: self.control_bytes_sent.get() + self.retransmit_bytes.get(),
            digests_resolved: self.digests_resolved.get(),
            digest_fallbacks: self.digest_fallbacks.get(),
        }
    }
}

/// The result of a live run.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Every suspicion raised by any router, in event order.
    pub suspicions: Vec<Suspicion>,
    /// Full event log.
    pub events: Vec<LiveEvent>,
    /// Aggregate counters (derived from [`LiveOutcome::metrics`]).
    pub stats: LiveStats,
    /// Final registry snapshot: every `net.*` counter and histogram.
    pub metrics: MetricsSnapshot,
    /// Cumulative snapshot taken shortly after each round's evaluation
    /// deadline; [`MetricsSnapshot::counter_delta`] between neighbours
    /// gives the per-round cost.
    pub round_metrics: Vec<MetricsSnapshot>,
    /// Merged trace journal from every shard's ring.
    pub trace: TraceJournal,
    /// The segments that were monitored.
    pub segments: Vec<PathSegment>,
}

/// Deploys the Πk+2 runtime over real transports.
///
/// # Examples
///
/// A clean one-round deployment over the in-memory loopback hub. The
/// outcome carries the protocol verdicts ([`LiveOutcome::suspicions`]),
/// the final metrics snapshot, per-round snapshots, and the merged trace
/// journal:
///
/// ```
/// use fatih_net::runtime::{FlowSpec, LiveConfig, LiveDeployment, LiveSpec};
/// use fatih_net::transport::LoopbackHub;
/// use fatih_topology::builtin;
/// use std::time::Duration;
///
/// let topo = builtin::line(3);
/// let ids: Vec<_> = topo.routers().collect();
/// let spec = LiveSpec {
///     flows: vec![FlowSpec::new(ids[0], ids[2], 500, Duration::from_millis(5))],
///     ..LiveSpec::default()
/// };
/// let cfg = LiveConfig {
///     tau: Duration::from_millis(120),
///     exchange_budget: Duration::from_millis(80),
///     maturity_lag: Duration::from_millis(30),
///     rounds: 1,
///     ..LiveConfig::default()
/// };
/// let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
/// assert!(outcome.suspicions.is_empty(), "clean run accuses nobody");
/// assert!(outcome.stats.data_delivered > 0);
/// assert_eq!(outcome.round_metrics.len(), 1);
/// assert_eq!(
///     outcome.metrics.counter("net.frames_sent"),
///     outcome.stats.frames_sent
/// );
/// assert!(!outcome.trace.is_empty());
/// ```
#[derive(Debug)]
pub struct LiveDeployment;

impl LiveDeployment {
    /// Runs `cfg.rounds` wall-clock rounds of Πk+2 end-to-end validation
    /// over the given transports (one per router, matched by
    /// [`Transport::local`]), injecting `spec`'s traffic and droppers.
    /// The routers are partitioned round-robin across `cfg.shards` worker
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if the transport set does not cover the topology's routers
    /// exactly, or if a flow endpoint has no route.
    pub fn run<T: Transport + 'static>(
        topo: &Topology,
        spec: &LiveSpec,
        cfg: &LiveConfig,
        transports: Vec<T>,
    ) -> LiveOutcome {
        let ids: Vec<RouterId> = topo.routers().collect();
        let mut by_router: HashMap<RouterId, T> =
            transports.into_iter().map(|t| (t.local(), t)).collect();
        assert_eq!(
            by_router.len(),
            ids.len(),
            "need exactly one transport per router"
        );

        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);

        let mut keys = KeyStore::with_seed(cfg.key_seed);
        for &id in &ids {
            keys.register(id.into());
        }
        let keys = Arc::new(keys);
        let routes = Arc::new(topo.link_state_routes());

        // The shared initial view: the base graph minus initially-down
        // routers. Every node starts from a clone of this overlay and the
        // path set it induces, so forwarding, the path oracle and the
        // monitored segments are consistent from the first packet — and
        // stay consistent through reconvergence, because every rebuild
        // recomputes them from the same (deterministic) machinery.
        let mut dyn0 = DynamicTopology::new(topo.clone());
        for &r in &spec.initially_down {
            dyn0.set_router_down(r);
        }
        let monitor_pairs: Vec<(RouterId, RouterId)> = if spec.monitor_pairs.is_empty() {
            spec.flows.iter().map(|f| (f.src, f.dst)).collect()
        } else {
            spec.monitor_pairs.clone()
        };
        let flow_pairs: Vec<(RouterId, RouterId)> =
            spec.flows.iter().map(|f| (f.src, f.dst)).collect();
        let paths0 = dyn0.paths_for(
            monitor_pairs
                .iter()
                .chain(flow_pairs.iter())
                .copied()
                .collect::<Vec<_>>(),
        );
        // Monitored segments: all ≤(k+2)-windows of the monitored paths.
        // The one shared path oracle also covers the flows' own paths:
        // every packet that can exist resolves identically to a full
        // all-pairs oracle, at a fraction of the per-router memory.
        let (segments, oracle) = pik2::deployment(
            monitor_pairs
                .iter()
                .filter_map(|p| paths0.get(p).cloned())
                .collect(),
            flow_pairs.iter().filter_map(|p| paths0.get(p).cloned()),
            topo.router_count(),
            cfg.k,
        );
        let segments = Arc::new(segments);

        let n_shards = if cfg.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1))
                .unwrap_or(1)
        } else {
            cfg.shards
        }
        .clamp(1, ids.len().max(1));

        // Build every node *before* fixing the epoch: monitor construction
        // for hundreds of routers must not eat into round 0.
        let mut shard_nodes: Vec<Vec<Node<T>>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let transport = by_router.remove(&id).expect("transport per router");
            let node = Node::build(
                id,
                transport,
                spec,
                cfg,
                &keys,
                &routes,
                &segments,
                oracle.clone(),
                dyn0.clone(),
                paths0.clone(),
                &monitor_pairs,
                metrics.clone(),
            );
            shard_nodes[i % n_shards].push(node);
        }

        let epoch = Instant::now() + Duration::from_millis(30);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (event_tx, event_rx) = mpsc::channel::<LiveEvent>();

        let mut handles = Vec::with_capacity(n_shards);
        for (s, nodes) in shard_nodes.into_iter().enumerate() {
            let shard = Shard::new(s as u32, nodes, *cfg, epoch, metrics.empty_polls.clone());
            let flag = Arc::clone(&shutdown);
            let tx = event_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("shard-{s}"))
                    .spawn(move || shard.run(&flag, &tx))
                    .expect("spawn shard thread"),
            );
        }
        drop(event_tx);

        // Snapshot the registry just after each round's evaluation
        // deadline so callers can diff neighbouring snapshots into
        // per-round costs, then let every round finish: final evaluation
        // fires at rounds·τ + budget after the epoch; leave slack for
        // the last link-state floods to cross the wire.
        let mut round_metrics = Vec::with_capacity(cfg.rounds as usize);
        for r in 0..cfg.rounds {
            let at =
                epoch + cfg.tau * (r as u32 + 1) + cfg.exchange_budget + Duration::from_millis(50);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            round_metrics.push(registry.snapshot());
        }
        let deadline = epoch
            + cfg.tau * (cfg.rounds as u32)
            + cfg.exchange_budget
            + Duration::from_millis(300);
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
        shutdown.store(true, Ordering::Relaxed);

        let mut buffers = Vec::with_capacity(n_shards);
        for h in handles {
            buffers.push(h.join().expect("shard thread panicked"));
        }
        let trace = TraceJournal::from_buffers(buffers);
        let events: Vec<LiveEvent> = event_rx.iter().collect();
        let suspicions = events
            .iter()
            .filter_map(|e| match e {
                LiveEvent::SuspicionRaised { suspicion, .. } => Some(suspicion.clone()),
                _ => None,
            })
            .collect();
        LiveOutcome {
            suspicions,
            events,
            stats: metrics.stats(),
            metrics: registry.snapshot(),
            round_metrics,
            trace,
            segments: segments.to_vec(),
        }
    }
}

/// Timer payloads of a shard's wheel. Round work and the retransmission
/// pump are scheduled once per shard and fan out over every resident
/// node; only flow ticks stay per-(node, flow).
#[derive(Debug, Clone, Copy)]
enum ShardTimer {
    /// Inject the next packet of `node`'s local flow `flow`.
    FlowTick {
        /// Index into the shard's node vector.
        node: usize,
        /// Index into that node's local flows.
        flow: usize,
    },
    /// A round boundary: every node snapshots and sends summaries.
    RoundEnd(u64),
    /// The exchange budget expired: every node validates the round.
    RoundEval(u64),
    /// Retransmission pump across the shard.
    Pump,
    /// `node` performs step `step` of its scripted churn.
    Churn {
        /// Index into the shard's node vector.
        node: usize,
        /// Index into that node's churn script.
        step: usize,
    },
}

/// Per-node receive sweep bound: how many frames one node may drain per
/// loop iteration before yielding to its shard-mates.
const RECV_SWEEP: usize = 64;

/// Capacity of each shard's trace ring ([`TraceBuffer`]): oldest events
/// are overwritten beyond this, but per-kind totals survive.
const TRACE_CAPACITY: usize = 32_768;

/// One worker thread's shard of router event loops.
struct Shard<T: Transport> {
    nodes: Vec<Node<T>>,
    wheel: TimerWheel<ShardTimer>,
    cfg: LiveConfig,
    epoch: Instant,
    /// This worker's trace ring: written only by this thread, handed
    /// back when it joins.
    trace: TraceBuffer,
    /// `net.empty_polls`, bumped once per sweep rather than per poll.
    empty_polls: Counter,
}

impl<T: Transport> Shard<T> {
    fn new(
        shard: u32,
        mut nodes: Vec<Node<T>>,
        cfg: LiveConfig,
        epoch: Instant,
        empty_polls: Counter,
    ) -> Self {
        for node in &mut nodes {
            node.epoch = epoch;
        }
        Self {
            nodes,
            wheel: TimerWheel::new(),
            cfg,
            epoch,
            trace: TraceBuffer::new(shard, TRACE_CAPACITY),
            empty_polls,
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    fn run(mut self, shutdown: &AtomicBool, events: &mpsc::Sender<LiveEvent>) -> TraceBuffer {
        let tau = self.cfg.tau.as_nanos() as u64;
        let budget = self.cfg.exchange_budget.as_nanos() as u64;
        for (ni, node) in self.nodes.iter().enumerate() {
            for fi in 0..node.flows.len() {
                // Stagger flow starts so sources don't burst in sync —
                // within a node and across the shard.
                self.wheel.schedule(
                    2_000_000 + (fi as u64) * 500_000 + (ni as u64) * 137_000,
                    ShardTimer::FlowTick { node: ni, flow: fi },
                );
            }
            for (si, ev) in node.churn.iter().enumerate() {
                self.wheel.schedule(
                    ev.at.as_nanos() as u64,
                    ShardTimer::Churn { node: ni, step: si },
                );
            }
        }
        for r in 0..self.cfg.rounds {
            self.wheel.schedule((r + 1) * tau, ShardTimer::RoundEnd(r));
            self.wheel
                .schedule((r + 1) * tau + budget, ShardTimer::RoundEval(r));
        }
        let pump_step = (RetryPolicy::default().rto.as_nanos() as u64 / 2).max(1_000_000);
        self.wheel.schedule(pump_step, ShardTimer::Pump);
        self.trace
            .record(self.now_ns(), TraceKind::RoundStart, NO_ROUTER, 0, 0);

        loop {
            let now = self.now_ns();
            for t in self.wheel.pop_due(now) {
                self.trace
                    .record(now, TraceKind::TimerFired, NO_ROUTER, NO_ROUND, 0);
                match t {
                    ShardTimer::FlowTick { node, flow } => {
                        if let Some(next) = self.nodes[node].flow_tick(flow, &mut self.trace) {
                            self.wheel
                                .schedule(next, ShardTimer::FlowTick { node, flow });
                        }
                    }
                    ShardTimer::RoundEnd(r) => {
                        for n in &mut self.nodes {
                            n.round_end(r, &mut self.trace);
                        }
                        // The summary sends above still belong to round
                        // r's slice; the next round opens after them.
                        self.trace
                            .record(self.now_ns(), TraceKind::RoundEnd, NO_ROUTER, r, 0);
                        if r + 1 < self.cfg.rounds {
                            self.trace.record(
                                self.now_ns(),
                                TraceKind::RoundStart,
                                NO_ROUTER,
                                r + 1,
                                0,
                            );
                        }
                    }
                    ShardTimer::RoundEval(r) => {
                        for n in &mut self.nodes {
                            n.round_eval(r, events, &mut self.trace);
                        }
                    }
                    ShardTimer::Pump => {
                        for n in &mut self.nodes {
                            n.pump(&mut self.trace);
                        }
                        self.wheel
                            .schedule(self.now_ns() + pump_step, ShardTimer::Pump);
                    }
                    ShardTimer::Churn { node, step } => {
                        self.nodes[node].churn_step(step, &mut self.trace);
                    }
                }
            }
            if shutdown.load(Ordering::Relaxed) {
                break;
            }

            let mut handled = 0usize;
            let mut empty_polls = 0u64;
            for ni in 0..self.nodes.len() {
                if !self.nodes[ni].open {
                    continue;
                }
                for _ in 0..RECV_SWEEP {
                    match self.nodes[ni].transport.try_recv() {
                        Ok(Some(bytes)) => {
                            self.nodes[ni].handle_frame(&bytes, &mut self.trace);
                            handled += 1;
                        }
                        Ok(None) => {
                            empty_polls += 1;
                            break;
                        }
                        Err(_) => {
                            self.nodes[ni].open = false;
                            break;
                        }
                    }
                }
            }
            self.empty_polls.add(empty_polls);

            if handled == 0 {
                let wait = self
                    .wheel
                    .next_deadline()
                    .map(|d| d.saturating_sub(self.now_ns()))
                    .unwrap_or(2_000_000)
                    .clamp(1, 2_000_000);
                std::thread::sleep(Duration::from_nanos(wait.min(500_000)));
            }
            if self.nodes.iter().all(|n| !n.open) {
                break; // every transport closed under us
            }
        }

        for node in &mut self.nodes {
            node.finish();
        }
        self.trace
    }
}

/// One segment this router is an end of.
#[derive(Debug, Clone, Copy)]
struct EndRole {
    seg: usize,
    peer: RouterId,
    /// Whether this router is the segment's source (upstream recorder).
    upstream: bool,
}

struct LocalFlow {
    spec: FlowSpec,
    global_idx: u32,
    sent: u64,
}

struct Node<T: Transport> {
    id: RouterId,
    cfg: LiveConfig,
    epoch: Instant,
    transport: T,
    /// False once the transport errored out; the shard skips dead nodes.
    open: bool,
    /// False while crashed, departed or not yet joined: the node neither
    /// processes frames nor does round work, but its churn script still
    /// fires (a restart needs it).
    alive: bool,
    /// This router's incarnation; bumped on every crash-restart.
    incarnation: u32,
    keys: Arc<KeyStore>,
    /// Static link-state routes of the base graph: the stale-packet
    /// forwarding fallback during epoch transitions.
    routes: Arc<Routes>,
    /// This node's view of the network: base graph plus the churn overlay
    /// accumulated from applied link-state updates.
    dyn_topo: DynamicTopology,
    /// Current forwarding paths per (source, destination) pair, rebuilt on
    /// every reconvergence. Forwarding follows these, not `routes`.
    paths: HashMap<(RouterId, RouterId), Path>,
    /// The (source, destination) pairs under Πk+2 monitoring.
    monitor_pairs: Vec<(RouterId, RouterId)>,
    /// The flows' own endpoint pairs (kept routable for forwarding).
    flow_pairs: Vec<(RouterId, RouterId)>,
    segments: Vec<PathSegment>,
    monitors: SegmentMonitorSet,
    ends: Vec<EndRole>,
    flows: Vec<LocalFlow>,
    drop_rate: f64,
    /// First round the dropper misbehaves in.
    drop_from: u64,
    rng: StdRng,
    digest_rng: StdRng,
    /// Reliable delivery of summaries and link-state updates: tracked
    /// frames are the sealed bytes, retransmitted verbatim.
    reliable: RetryMachine<Vec<u8>>,
    peer_summaries: HashMap<(u64, usize), fatih_core::monitor::Report>,
    /// Verdicts already decoded from digest exchanges: (round, segment) →
    /// (lost, fabricated), certified equal to the full-summary result.
    peer_verdicts: HashMap<(u64, usize), (Vec<Fingerprint>, Vec<Fingerprint>)>,
    metrics: NetMetrics,
    next_seq: u64,
    pkt_counter: u64,
    /// Tap events buffered for the monitors' batched ingest path: flushed
    /// when full and before any report is read, so a round boundary always
    /// sees every observation.
    obs_buf: Vec<TapEvent>,
    /// Route epoch: bumped on every rebuild; data frames carry the epoch
    /// they were injected under, and only current-epoch frames are tapped.
    route_epoch: u64,
    /// First round that is summarized/evaluated again after a
    /// reconvergence — rounds before it fall under deterministic amnesty.
    eval_resume: u64,
    /// Dedup of applied link-state updates by (origin, update_seq).
    applied_keys: HashSet<(RouterId, u64)>,
    /// The link-state database: applied updates (pruned of superseded
    /// entries), re-flooded to restarted neighbours so they resynchronize.
    ls_db: Vec<(LinkStateUpdate, Signature)>,
    /// This node's next link-state origination sequence number.
    ls_seq: u64,
    /// Every distinct convicted segment applied so far. When a router
    /// appears in two or more of them and is their *only* common member,
    /// the intersection pinpoints it as the faulty router (the paper's
    /// identification argument) and it loses transit duty entirely.
    convicted: Vec<PathSegment>,
    /// Probation standing of every restarted router this node knows of.
    probation: ProbationTracker,
    /// Routers this node has already originated a `RouterDown` for.
    reported_down: HashSet<RouterId>,
    /// This node's own churn script, in schedule order.
    churn: Vec<ChurnEvent>,
}

/// Buffered tap events before the node flushes them through
/// [`SegmentMonitorSet::observe_batch`]. Big enough to amortize the batch
/// setup, small enough that a flush never stalls the event loop.
const OBS_BUF_FLUSH: usize = 128;

/// Benign-anomaly allowances for traffic validation: a small loss
/// allowance so scheduling jitter never looks like an attack.
const THRESHOLDS: Thresholds = Thresholds {
    loss: 2,
    reorder: 0,
};

/// Clean rounds a crash-restarted router must survive on probation (no
/// transit duty) before it carries transit traffic again.
const PROBATION_ROUNDS: u64 = 2;

impl<T: Transport> Node<T> {
    #[allow(clippy::too_many_arguments)]
    fn build(
        id: RouterId,
        transport: T,
        spec: &LiveSpec,
        cfg: &LiveConfig,
        keys: &Arc<KeyStore>,
        routes: &Arc<Routes>,
        segments: &Arc<Vec<PathSegment>>,
        oracle: PathOracle,
        dyn_topo: DynamicTopology,
        paths: HashMap<(RouterId, RouterId), Path>,
        monitor_pairs: &[(RouterId, RouterId)],
        metrics: NetMetrics,
    ) -> Self {
        let monitors =
            SegmentMonitorSet::new(segments.to_vec(), oracle, keys, MonitorMode::EndsOnly, None);
        let ends = Self::end_roles(segments, id);
        let flows = spec
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.src == id)
            .map(|(i, f)| LocalFlow {
                spec: *f,
                global_idx: i as u32,
                sent: 0,
            })
            .collect();
        let dropper = spec.droppers.iter().find(|d| d.router == id);
        Self {
            id,
            cfg: *cfg,
            epoch: Instant::now(), // provisional; the shard sets the shared epoch
            transport,
            open: true,
            alive: !spec.initially_down.contains(&id),
            incarnation: 0,
            keys: Arc::clone(keys),
            routes: Arc::clone(routes),
            dyn_topo,
            paths,
            monitor_pairs: monitor_pairs.to_vec(),
            flow_pairs: spec.flows.iter().map(|f| (f.src, f.dst)).collect(),
            segments: segments.to_vec(),
            monitors,
            ends,
            flows,
            drop_rate: dropper.map(|d| d.rate).unwrap_or(0.0),
            drop_from: dropper.map(|d| d.active_from).unwrap_or(0),
            rng: StdRng::seed_from_u64(
                dropper.map(|d| d.seed).unwrap_or(0) ^ (u64::from(u32::from(id)) << 32),
            ),
            digest_rng: StdRng::seed_from_u64(
                cfg.key_seed ^ 0xD16E57 ^ (u64::from(u32::from(id)) << 16),
            ),
            reliable: RetryMachine::new(RetryPolicy::default()),
            peer_summaries: HashMap::new(),
            peer_verdicts: HashMap::new(),
            metrics,
            next_seq: 0,
            pkt_counter: 0,
            obs_buf: Vec::with_capacity(OBS_BUF_FLUSH),
            route_epoch: 0,
            eval_resume: 0,
            applied_keys: HashSet::new(),
            ls_db: Vec::new(),
            ls_seq: 0,
            convicted: Vec::new(),
            probation: ProbationTracker::new(PROBATION_ROUNDS),
            reported_down: HashSet::new(),
            churn: spec
                .churn
                .iter()
                .filter(|e| e.actor == id)
                .copied()
                .collect(),
        }
    }

    /// The end roles `id` plays in `segments`.
    fn end_roles(segments: &[PathSegment], id: RouterId) -> Vec<EndRole> {
        segments
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                if s.source() == id {
                    Some(EndRole {
                        seg: i,
                        peer: s.sink(),
                        upstream: true,
                    })
                } else if s.sink() == id {
                    Some(EndRole {
                        seg: i,
                        peer: s.source(),
                        upstream: false,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    fn now_st(&self) -> SimTime {
        SimTime::from_ns(self.now_ns())
    }

    /// The maturity cutoff of round `r`.
    fn cutoff(&self, r: u64) -> SimTime {
        let tau = self.cfg.tau.as_nanos() as u64;
        SimTime::from_ns((r + 1) * tau)
            .since(SimTime::from_ns(self.cfg.maturity_lag.as_nanos() as u64))
    }

    /// Folds end-of-run transport wire bytes into the registry counters
    /// and flushes any buffered observations. (Retransmit accounting
    /// flows through registry-backed handles as it happens.)
    fn finish(&mut self) {
        self.flush_observations();
        self.metrics
            .wire_bytes_sent
            .add(self.transport.bytes_sent());
        self.metrics
            .wire_bytes_recv
            .add(self.transport.bytes_recv());
    }

    fn pump(&mut self, trace: &mut TraceBuffer) {
        if !self.alive {
            return;
        }
        let now = self.now_ns();
        let Pumped { resend, exhausted } = self.reliable.pump(now);
        if !resend.is_empty() {
            for &(_, dst, frame) in &resend {
                let _ = self.transport.send(dst, frame); // best-effort resend
                self.metrics.retransmits.inc();
                self.metrics.retransmit_bytes.add(frame.len() as u64);
            }
            trace.record(
                now,
                TraceKind::Retransmit,
                u32::from(self.id),
                NO_ROUND,
                resend.len() as u64,
            );
        }
        for (_, ex) in exhausted {
            trace.record(
                now,
                TraceKind::DeliveryExhausted,
                u32::from(self.id),
                NO_ROUND,
                u64::from(u32::from(ex.dst)),
            );
            // Organic crash detection: a peer that exhausts reliable
            // delivery is reported down (once), so the fabric reroutes
            // around it without waiting for an operator.
            if self.cfg.response
                && !self.dyn_topo.is_router_down(ex.dst)
                && self.reported_down.insert(ex.dst)
            {
                self.originate_ls(TopoUpdate::RouterDown(ex.dst), trace);
            }
        }
    }

    /// Injects the next packet of local flow `i`; returns the next tick
    /// deadline, or `None` once the final round has closed.
    fn flow_tick(&mut self, i: usize, trace: &mut TraceBuffer) -> Option<u64> {
        let tau = self.cfg.tau.as_nanos() as u64;
        let now = self.now_ns();
        // Stop injecting once the final round has closed.
        if now >= self.cfg.rounds * tau {
            return None;
        }
        if !self.alive {
            // Keep ticking so the flow resumes after a restart.
            return Some(now + self.flows[i].spec.interval.as_nanos() as u64);
        }
        let (spec, interval_ns) = {
            let f = &mut self.flows[i];
            f.sent += 1;
            (f.spec, f.spec.interval.as_nanos() as u64)
        };
        self.pkt_counter += 1;
        let id = PacketId(((u64::from(u32::from(self.id)) + 1) << 40) | self.pkt_counter);
        let packet = Packet {
            id,
            src: spec.src,
            dst: spec.dst,
            flow: FlowId(self.flows[i].global_idx),
            kind: PacketKind::Data,
            size: spec.size,
            seq: self.flows[i].sent,
            payload_tag: Packet::expected_tag(id),
            ttl: Packet::DEFAULT_TTL,
            created_at: self.now_st(),
        };
        if let Some(next_hop) = self.forward_hop(spec.src, spec.dst) {
            let t = self.now_st();
            self.tap(
                TapEvent::Enqueued {
                    router: self.id,
                    next_hop,
                    packet,
                    time: t,
                    queue_len_after: 0,
                },
                trace,
            );
            let epoch = self.route_epoch;
            self.send_frame(next_hop, WireMessage::Data { packet, epoch }, false);
        }
        Some(now + interval_ns)
    }

    /// The forwarding decision for a packet of the (source, destination)
    /// pair: the hop after this router on the pair's current path. `None`
    /// when the pair is unroutable or this router is not on the path (a
    /// stale transit placement mid-transition).
    fn forward_hop(&self, src: RouterId, dst: RouterId) -> Option<RouterId> {
        self.paths
            .get(&(src, dst))
            .and_then(|p| p.next_after(self.id))
    }

    /// Queues a data-plane observation for the batched monitor ingest,
    /// flushing once the buffer amortizes the batch setup.
    fn tap(&mut self, ev: TapEvent, trace: &mut TraceBuffer) {
        trace.record(
            ev.time().as_ns(),
            TraceKind::PacketTap,
            u32::from(self.id),
            NO_ROUND,
            u64::from(ev.packet().size),
        );
        self.obs_buf.push(ev);
        if self.obs_buf.len() >= OBS_BUF_FLUSH {
            self.flush_observations();
        }
    }

    /// Pushes buffered observations through the batched fingerprint path.
    fn flush_observations(&mut self) {
        if self.obs_buf.is_empty() {
            return;
        }
        self.monitors.observe_batch(&self.obs_buf);
        self.obs_buf.clear();
    }

    fn round_end(&mut self, r: u64, trace: &mut TraceBuffer) {
        if !self.alive {
            return;
        }
        if r < self.eval_resume {
            // Reconvergence amnesty: this round straddles a topology
            // change, so neither end summarizes it — the transition can
            // never be mistaken for an attack.
            self.flush_observations();
            return;
        }
        self.flush_observations();
        let cutoff = self.cutoff(r);
        for end in self.ends.clone() {
            let report = self.monitors.report(self.id, end.seg);
            let segment = self.segments[end.seg].clone();
            let (msg, kind) = match self.cfg.summary {
                SummaryMode::Full => (
                    WireMessage::Summary {
                        round: r,
                        segment,
                        report,
                    },
                    TraceKind::SummarySent,
                ),
                SummaryMode::Reconcile { capacity } => {
                    let capacity = capacity.max(1);
                    (
                        WireMessage::SummaryDigest {
                            round: r,
                            segment,
                            mature: ContentDigest::of(
                                &report.mature(cutoff).to_content(),
                                capacity,
                            ),
                            full: ContentDigest::of(&report.to_content(), capacity),
                        },
                        TraceKind::DigestSent,
                    )
                }
            };
            self.send_frame(end.peer, msg, true);
            trace.record(
                self.now_ns(),
                kind,
                u32::from(self.id),
                r,
                u64::from(u32::from(end.peer)),
            );
        }
    }

    /// Attempts to decode the round verdict from a peer's digest pair.
    ///
    /// The exchange reconciles like-with-like — the peer's mature digest
    /// against this end's mature summary, full against full — so the
    /// sketch only has to span the *discrepancy* (losses, boundary
    /// crossers, in-flight packets), not the maturity window. Both remote
    /// summaries are then reconstructed exactly and the verdict computed
    /// with the same multiset differences `tv_pair` uses:
    /// `lost = mature(up) ∖ full(down)`, `fabricated = mature(down) ∖
    /// full(up)`. Returns `None` (forcing a full pull) whenever either
    /// digest fails certification.
    fn resolve_digest(
        &mut self,
        round: u64,
        seg_idx: usize,
        upstream: bool,
        mature_d: &ContentDigest,
        full_d: &ContentDigest,
    ) -> Option<(Vec<Fingerprint>, Vec<Fingerprint>)> {
        self.flush_observations();
        let cutoff = self.cutoff(round);
        let mine = self.monitors.report(self.id, seg_idx);
        let my_full = mine.to_content();
        let my_mature = mine.mature(cutoff).to_content();
        let (m_add, m_rem) = diff_via_digest(mature_d, &my_mature, &mut self.digest_rng)?;
        let (f_add, f_rem) = diff_via_digest(full_d, &my_full, &mut self.digest_rng)?;
        let peer_mature = apply_diff(&my_mature, &m_add, &m_rem, mature_d.flow());
        let peer_full = apply_diff(&my_full, &f_add, &f_rem, full_d.flow());
        let (lost, fabricated) = if upstream {
            (
                my_mature.difference_pair(&peer_full).0,
                peer_mature.difference_pair(&my_full).0,
            )
        } else {
            (
                peer_mature.difference_pair(&my_full).0,
                my_mature.difference_pair(&peer_full).0,
            )
        };
        Some((lost, fabricated))
    }

    fn round_eval(&mut self, r: u64, events: &mpsc::Sender<LiveEvent>, trace: &mut TraceBuffer) {
        if !self.alive {
            return;
        }
        if r < self.eval_resume {
            // Amnesty round: drop whatever arrived for it and raise
            // nothing. Both ends of every segment skip the same rounds
            // (the window is derived from the update's origin timestamp),
            // so nobody waits for a summary that will never come.
            self.peer_summaries.retain(|(round, _), _| *round != r);
            self.peer_verdicts.retain(|(round, _), _| *round != r);
            self.probation_tick(r, events, trace);
            return;
        }
        let eval_began = self.now_ns();
        self.flush_observations();
        let tau = self.cfg.tau.as_nanos() as u64;
        let round_start = SimTime::from_ns(r * tau);
        let round_end = SimTime::from_ns((r + 1) * tau);
        let cutoff = self.cutoff(r);
        // Convictions are originated after the loop: applying one rebuilds
        // the segment set, which would invalidate the indices still in use.
        let mut convictions: Vec<PathSegment> = Vec::new();
        for end in self.ends.clone() {
            let segment = self.segments[end.seg].clone();
            let verdict = if let Some((lost, fabricated)) = self.peer_verdicts.remove(&(r, end.seg))
            {
                PairVerdict {
                    lost,
                    fabricated,
                    reordered: 0,
                    bottom: false,
                }
            } else {
                let peer_report = self.peer_summaries.remove(&(r, end.seg));
                if peer_report.is_none() {
                    self.metrics.summary_timeouts.inc();
                    trace.record(
                        self.now_ns(),
                        TraceKind::SummaryTimeout,
                        u32::from(self.id),
                        r,
                        u64::from(u32::from(end.peer)),
                    );
                    let _ = events.send(LiveEvent::SummaryTimeout {
                        by: self.id,
                        segment: segment.clone(),
                        round: r,
                    });
                }
                let mine = self.monitors.report(self.id, end.seg);
                let (up, down) = if end.upstream {
                    (Some(&mine), peer_report.as_ref())
                } else {
                    (peer_report.as_ref(), Some(&mine))
                };
                tv_pair(up, down, cutoff, SimTime::ZERO)
            };
            let passed = verdict.passes(Policy::Content, &THRESHOLDS);
            let _ = events.send(LiveEvent::RoundEvaluated {
                router: self.id,
                round: r,
                segment: segment.clone(),
                passed,
                bottom: verdict.bottom,
                lost: verdict.lost.len(),
                fabricated: verdict.fabricated.len(),
            });
            if passed {
                continue;
            }
            let suspicion = Suspicion {
                segment: segment.clone(),
                interval: Interval::new(round_start, round_end),
                raised_by: self.id,
            };
            self.metrics.accusations_raised.inc();
            trace.record(
                self.now_ns(),
                TraceKind::AccusationRaised,
                u32::from(self.id),
                r,
                u64::from(u32::from(end.peer)),
            );
            let _ = events.send(LiveEvent::SuspicionRaised {
                suspicion,
                round: r,
            });
            if self.cfg.response {
                convictions.push(segment);
            }
        }
        // The §2.4.3 response: a convicting end excises the segment from
        // the routable fabric by flooding a signed exclusion — routes
        // reconverge around it and validation resumes on the next clean
        // round boundary.
        for segment in convictions {
            self.originate_ls(TopoUpdate::ExcludeSegment(segment), trace);
        }
        self.metrics
            .round_eval_ns
            .record(self.now_ns().saturating_sub(eval_began));
        self.probation_tick(r, events, trace);
    }

    /// Deterministic probation bookkeeping at the boundary of round
    /// `r + 1`: every node clears the same probationers at the same round,
    /// restores their transit duty and rebuilds — no agreement traffic.
    fn probation_tick(
        &mut self,
        r: u64,
        events: &mpsc::Sender<LiveEvent>,
        trace: &mut TraceBuffer,
    ) {
        let cleared = self.probation.clear_due(r + 1);
        if cleared.is_empty() {
            return;
        }
        for &router in &cleared {
            // A router the convicted-segment intersection has pinpointed
            // cannot launder its isolation through a crash-restart.
            if !self.is_pinpointed(router) {
                self.dyn_topo.clear_no_transit(router);
            }
            if router == self.id {
                self.metrics.probation_cleared.inc();
                trace.record(
                    self.now_ns(),
                    TraceKind::ProbationCleared,
                    u32::from(self.id),
                    r + 1,
                    0,
                );
                let _ = events.send(LiveEvent::ProbationCleared {
                    router,
                    round: r + 1,
                });
            }
        }
        // The clearing rebuild lands mid-round r+1, so that round gets
        // amnesty; r+2 starts entirely under the restored routes.
        self.eval_resume = self.eval_resume.max(r + 2);
        self.rebuild(self.now_ns(), trace);
    }

    fn send_frame(&mut self, dst: RouterId, msg: WireMessage, reliable: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let is_data = matches!(msg, WireMessage::Data { .. });
        let frame = Frame {
            src: self.id,
            dst,
            seq,
            msg,
        };
        match encode_frame(&frame, &self.keys) {
            Ok(bytes) => {
                self.metrics.frames_sent.inc();
                self.metrics.frame_bytes.record(bytes.len() as u64);
                if is_data {
                    self.metrics.data_bytes_sent.add(bytes.len() as u64);
                } else {
                    self.metrics.control_bytes_sent.add(bytes.len() as u64);
                }
                let _ = self.transport.send(dst, &bytes);
                if reliable {
                    self.reliable.track(seq, dst, bytes, self.now_ns());
                }
            }
            Err(_) => self.metrics.encode_failures.inc(),
        }
    }

    fn handle_frame(&mut self, bytes: &[u8], trace: &mut TraceBuffer) {
        if !self.alive {
            return; // crashed/departed: frames fall on the floor
        }
        self.metrics.frames_received.inc();
        let frame = match decode_frame(bytes, &self.keys) {
            Ok(f) => f,
            Err(_) => {
                self.metrics.decode_failures.inc();
                return;
            }
        };
        if frame.dst != self.id {
            self.metrics.decode_failures.inc(); // misaddressed frame
            return;
        }
        match frame.msg {
            WireMessage::Data { packet, epoch } => {
                self.handle_data(frame.src, packet, epoch, trace)
            }
            WireMessage::Ack { msg_id } => {
                // Only the frame's destination can cancel its retransmission.
                self.reliable.ack(msg_id, frame.src);
            }
            WireMessage::Summary {
                round,
                segment,
                report,
            } => {
                self.send_frame(frame.src, WireMessage::Ack { msg_id: frame.seq }, false);
                if self.reliable.accept(frame.src, frame.seq) {
                    if let Some(idx) = self.segments.iter().position(|s| *s == segment) {
                        self.peer_summaries.insert((round, idx), report);
                    }
                }
            }
            WireMessage::SummaryDigest {
                round,
                segment,
                mature,
                full,
            } => {
                self.send_frame(frame.src, WireMessage::Ack { msg_id: frame.seq }, false);
                if self.reliable.accept(frame.src, frame.seq) {
                    let idx = self.segments.iter().position(|s| *s == segment);
                    let role = idx.and_then(|i| self.ends.iter().find(|e| e.seg == i).copied());
                    if let (Some(idx), Some(role)) = (idx, role) {
                        match self.resolve_digest(round, idx, role.upstream, &mature, &full) {
                            Some(v) => {
                                self.metrics.digests_resolved.inc();
                                trace.record(
                                    self.now_ns(),
                                    TraceKind::DigestResolved,
                                    u32::from(self.id),
                                    round,
                                    u64::from(u32::from(frame.src)),
                                );
                                self.peer_verdicts.insert((round, idx), v);
                            }
                            None => {
                                self.metrics.digest_fallbacks.inc();
                                trace.record(
                                    self.now_ns(),
                                    TraceKind::DigestFallback,
                                    u32::from(self.id),
                                    round,
                                    u64::from(u32::from(frame.src)),
                                );
                                self.send_frame(
                                    frame.src,
                                    WireMessage::SummaryPull { round, segment },
                                    true,
                                );
                            }
                        }
                    }
                }
            }
            WireMessage::SummaryPull { round, segment } => {
                self.send_frame(frame.src, WireMessage::Ack { msg_id: frame.seq }, false);
                if self.reliable.accept(frame.src, frame.seq) {
                    if let Some(idx) = self.segments.iter().position(|s| *s == segment) {
                        self.flush_observations();
                        let report = self.monitors.report(self.id, idx);
                        self.send_frame(
                            frame.src,
                            WireMessage::Summary {
                                round,
                                segment,
                                report,
                            },
                            true,
                        );
                    }
                }
            }
            WireMessage::LinkState { update, sig } => {
                self.send_frame(frame.src, WireMessage::Ack { msg_id: frame.seq }, false);
                if self.reliable.accept(frame.src, frame.seq)
                    && verify_link_state(&self.keys, &update, &sig)
                    && self.apply_ls(&update, &sig, trace)
                {
                    // Freshly applied: re-flood to every up neighbour
                    // except the hop it came from and its origin.
                    self.flood_ls(&update, &sig, Some(frame.src));
                }
            }
        }
    }

    fn handle_data(&mut self, from: RouterId, packet: Packet, epoch: u64, trace: &mut TraceBuffer) {
        let t = self.now_st();
        // Packets injected under an older route epoch drain without being
        // tapped: their upstream observations were recorded by monitors
        // that no longer exist, so tapping them here would misattribute
        // in-flight traffic across the transition.
        let current = epoch == self.route_epoch;
        if current {
            self.tap(
                TapEvent::Arrived {
                    router: self.id,
                    from: Some(from),
                    packet,
                    time: t,
                },
                trace,
            );
        } else {
            self.metrics.untapped_drained.inc();
        }
        if packet.dst == self.id {
            self.metrics.data_delivered.inc();
            return;
        }
        let tau = self.cfg.tau.as_nanos() as u64;
        if self.drop_rate > 0.0
            && self.now_ns() / tau >= self.drop_from
            && self.rng.gen_bool(self.drop_rate)
        {
            self.metrics.data_dropped.inc();
            return;
        }
        let mut packet = packet;
        if packet.ttl == 0 {
            return; // a transition-induced loop ends here, not in livelock
        }
        packet.ttl -= 1;
        // Forward along the pair's current path; packets stranded by a
        // reroute (this router is no longer on the path) fall back to the
        // static link-state tables so they drain instead of vanishing.
        let next_hop = match self.forward_hop(packet.src, packet.dst) {
            Some(h) => h,
            None => {
                self.metrics.transition_forward_miss.inc();
                match self.routes.next_hop(self.id, packet.dst) {
                    Some(h) => h,
                    None => return,
                }
            }
        };
        if current {
            self.tap(
                TapEvent::Enqueued {
                    router: self.id,
                    next_hop,
                    packet,
                    time: t,
                    queue_len_after: 0,
                },
                trace,
            );
        }
        self.send_frame(next_hop, WireMessage::Data { packet, epoch }, false);
    }

    /// Originates a signed link-state update: applies it locally, then
    /// floods it reliably to every up neighbour.
    fn originate_ls(&mut self, update: TopoUpdate, trace: &mut TraceBuffer) {
        let ls = LinkStateUpdate {
            origin: self.id,
            update_seq: self.ls_seq,
            t_origin_ns: self.now_ns(),
            update,
        };
        self.ls_seq += 1;
        let sig = sign_link_state(&self.keys, &ls);
        self.apply_ls(&ls, &sig, trace);
        self.flood_ls(&ls, &sig, None);
    }

    /// Reliably sends `ls` to every up neighbour except `except` and the
    /// update's origin.
    fn flood_ls(&mut self, ls: &LinkStateUpdate, sig: &Signature, except: Option<RouterId>) {
        let targets: Vec<RouterId> = self
            .dyn_topo
            .base()
            .neighbors(self.id)
            .iter()
            .map(|&(n, _)| n)
            .filter(|&n| n != ls.origin && Some(n) != except && !self.dyn_topo.is_router_down(n))
            .collect();
        for n in targets {
            self.send_frame(
                n,
                WireMessage::LinkState {
                    update: ls.clone(),
                    sig: *sig,
                },
                true,
            );
            self.metrics.ls_updates_sent.inc();
        }
    }

    /// Applies a deduplicated, signature-verified link-state update:
    /// mutates the topology overlay, derives the deterministic amnesty
    /// window from the origin timestamp, and rebuilds routes, segments
    /// and monitors. Returns whether the update was fresh (and should be
    /// re-flooded).
    fn apply_ls(&mut self, ls: &LinkStateUpdate, sig: &Signature, trace: &mut TraceBuffer) -> bool {
        if !self.applied_keys.insert((ls.origin, ls.update_seq)) {
            return false;
        }
        let tau = self.cfg.tau.as_nanos() as u64;
        let origin_round = ls.t_origin_ns / tau;
        match &ls.update {
            TopoUpdate::ExcludeSegment(seg) => {
                // Only a monitoring end may convict its own segment — a
                // compromised router cannot excise arbitrary fabric.
                if seg.source() != ls.origin && seg.sink() != ls.origin {
                    return false;
                }
                self.dyn_topo.exclude_segment(seg.clone());
                // A conviction touching a probationer restarts its clock.
                for &r in seg.routers() {
                    self.probation.violation(r, origin_round + 1);
                }
                self.isolate_by_intersection(seg);
            }
            TopoUpdate::RouterDown(r) => {
                self.dyn_topo.set_router_down(*r);
                if *r != self.id {
                    let purged = self.reliable.purge_peer(*r);
                    self.metrics.purged_frames.add(purged as u64);
                }
            }
            TopoUpdate::RouterUp {
                router,
                incarnation,
            } => {
                self.dyn_topo.set_router_up(*router);
                self.reported_down.remove(router);
                if *router != self.id {
                    // Frames tracked toward its previous incarnation were
                    // sealed under retired keys; drop them, and reopen the
                    // dedup space for its fresh sequence numbers.
                    let purged = self.reliable.purge_peer(*router);
                    self.metrics.purged_frames.add(purged as u64);
                    self.reliable.forget_peer_history(*router);
                }
                if *incarnation > 0 {
                    // Crash-restart: re-admission under probation — it
                    // sources and sinks its own traffic but carries no
                    // transit until K clean rounds pass.
                    self.dyn_topo.set_no_transit(*router);
                    self.probation.admit(*router, origin_round + 1);
                    if *router == self.id {
                        self.metrics.probation_admitted.inc();
                    }
                }
                self.prune_ls_db(&ls.update);
                if *router != self.id && self.is_base_neighbor(*router) {
                    // Database resync: a restarted neighbour lost its
                    // link-state DB with the crash; re-flood ours so it
                    // reconverges onto the fabric's current shape.
                    for (db_ls, db_sig) in self.ls_db.clone() {
                        if db_ls.origin != *router {
                            self.send_frame(
                                *router,
                                WireMessage::LinkState {
                                    update: db_ls,
                                    sig: db_sig,
                                },
                                true,
                            );
                            self.metrics.ls_updates_sent.inc();
                        }
                    }
                }
            }
            TopoUpdate::LinkDown(a, b) => {
                self.dyn_topo.set_link_down(*a, *b);
                self.prune_ls_db(&ls.update);
            }
            TopoUpdate::LinkUp(a, b) => {
                self.dyn_topo.set_link_up(*a, *b);
                self.prune_ls_db(&ls.update);
            }
        }
        self.ls_db.push((ls.clone(), *sig));
        self.metrics.ls_updates_applied.inc();
        // Deterministic amnesty: every applier derives the same resume
        // round from the origin timestamp, so both ends of every segment
        // skip the same transition rounds.
        self.eval_resume = self.eval_resume.max(origin_round + 2);
        self.rebuild(ls.t_origin_ns, trace);
        trace.record(
            self.now_ns(),
            TraceKind::LinkStateApplied,
            u32::from(self.id),
            origin_round,
            u64::from(u32::from(ls.origin)),
        );
        true
    }

    /// Whether `r` is adjacent to this router in the base graph.
    fn is_base_neighbor(&self, r: RouterId) -> bool {
        self.dyn_topo
            .base()
            .neighbors(self.id)
            .iter()
            .any(|&(n, _)| n == r)
    }

    /// Drops database entries superseded by `update`, so a resync never
    /// replays a stale `RouterDown` over a fresher `RouterUp` (or a stale
    /// flap direction). Dedup keys are kept — stragglers of pruned
    /// updates still bounce off `applied_keys`.
    fn prune_ls_db(&mut self, update: &TopoUpdate) {
        let unordered_eq = |a1: RouterId, b1: RouterId, a2: RouterId, b2: RouterId| {
            (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2)
        };
        self.ls_db.retain(|(db, _)| match (update, &db.update) {
            (
                TopoUpdate::RouterUp {
                    router,
                    incarnation,
                },
                TopoUpdate::RouterDown(r),
            ) => {
                let _ = incarnation;
                r != router
            }
            (
                TopoUpdate::RouterUp {
                    router,
                    incarnation,
                },
                TopoUpdate::RouterUp {
                    router: r,
                    incarnation: inc,
                },
            ) => !(r == router && inc < incarnation),
            (TopoUpdate::RouterDown(router), TopoUpdate::RouterUp { router: r, .. }) => r != router,
            (TopoUpdate::LinkUp(a, b), TopoUpdate::LinkDown(x, y))
            | (TopoUpdate::LinkDown(a, b), TopoUpdate::LinkUp(x, y)) => {
                !unordered_eq(*a, *b, *x, *y)
            }
            _ => true,
        });
    }

    /// Records a freshly applied conviction and escalates when the
    /// convicted segments pinpoint a single router: if `r` appears in at
    /// least two distinct convicted segments and is their only common
    /// member, Πk+2's accuracy guarantee (every convicted segment
    /// contains a faulty router) identifies `r`, and every node
    /// deterministically strips its transit duty. Segment-by-segment
    /// exclusion alone converges one neighbour pair per conviction
    /// cycle; the intersection walls the router off as soon as two
    /// overlapping convictions disambiguate it from its neighbours.
    fn isolate_by_intersection(&mut self, seg: &PathSegment) {
        if self.convicted.iter().any(|s| s == seg) {
            return;
        }
        self.convicted.push(seg.clone());
        for &r in seg.routers() {
            if self.is_pinpointed(r) && self.dyn_topo.set_no_transit(r) {
                self.metrics.routers_isolated.inc();
            }
        }
    }

    /// Whether the convicted segments identify `r` as faulty: it appears
    /// in at least two of them and is their only common member.
    fn is_pinpointed(&self, r: RouterId) -> bool {
        let with_r: Vec<&PathSegment> = self.convicted.iter().filter(|s| s.contains(r)).collect();
        with_r.len() >= 2
            && with_r[0]
                .routers()
                .iter()
                .all(|&x| x == r || !with_r.iter().all(|s| s.contains(x)))
    }

    /// Reconverges this node onto the current topology overlay: recomputes
    /// the forwarding paths, re-derives the Πk+2 segment set from the
    /// rerouted monitor paths, retargets the monitors (keeping their
    /// registry-backed metric handles), and opens a new route epoch so
    /// in-flight traffic drains untapped.
    fn rebuild(&mut self, t_origin_ns: u64, trace: &mut TraceBuffer) {
        self.flush_observations();
        let pairs: Vec<(RouterId, RouterId)> = self
            .monitor_pairs
            .iter()
            .chain(self.flow_pairs.iter())
            .copied()
            .collect();
        self.paths = self.dyn_topo.paths_for(pairs);
        let routed = |pairs: &[(RouterId, RouterId)]| -> Vec<Path> {
            pairs
                .iter()
                .filter_map(|p| self.paths.get(p).cloned())
                .collect()
        };
        let (segments, oracle) = pik2::deployment(
            routed(&self.monitor_pairs),
            routed(&self.flow_pairs),
            self.dyn_topo.base().router_count(),
            self.cfg.k,
        );
        self.monitors = self.monitors.retarget(
            segments.clone(),
            oracle,
            &self.keys,
            MonitorMode::EndsOnly,
            None,
        );
        self.ends = Self::end_roles(&segments, self.id);
        self.segments = segments;
        // Cross-epoch summary state is void: the segments it described no
        // longer exist, and the amnesty window covers the gap.
        self.peer_summaries.clear();
        self.peer_verdicts.clear();
        self.obs_buf.clear();
        self.route_epoch += 1;
        self.metrics.epoch_transitions.inc();
        self.metrics
            .reroute_latency_ns
            .record(self.now_ns().saturating_sub(t_origin_ns));
        trace.record(
            self.now_ns(),
            TraceKind::EpochTransition,
            u32::from(self.id),
            NO_ROUND,
            self.route_epoch,
        );
    }

    /// Performs step `step` of this node's churn script. Runs even while
    /// the node is dead — a restart has to.
    fn churn_step(&mut self, step: usize, trace: &mut TraceBuffer) {
        let ev = self.churn[step];
        trace.record(
            self.now_ns(),
            TraceKind::ChurnEvent,
            u32::from(self.id),
            NO_ROUND,
            step as u64,
        );
        match ev.action {
            ChurnAction::LinkDown(peer) => {
                self.originate_ls(TopoUpdate::LinkDown(self.id, peer), trace);
            }
            ChurnAction::LinkUp(peer) => {
                self.originate_ls(TopoUpdate::LinkUp(self.id, peer), trace);
            }
            ChurnAction::Leave => {
                self.originate_ls(TopoUpdate::RouterDown(self.id), trace);
                self.alive = false;
            }
            ChurnAction::Join => {
                self.alive = true;
                self.originate_ls(
                    TopoUpdate::RouterUp {
                        router: self.id,
                        incarnation: self.incarnation,
                    },
                    trace,
                );
            }
            ChurnAction::Crash => {
                self.alive = false;
            }
            ChurnAction::Restart => {
                // The crash lost all volatile protocol state. The key
                // authority bumps the incarnation — the shared KeyStore
                // re-derives every pairwise key, fencing the previous
                // incarnation's traffic — and the node returns with an
                // empty link-state DB (neighbours resync it) and a fresh
                // sequence space disjoint from its old one.
                self.incarnation += 1;
                self.keys
                    .set_incarnation(u32::from(self.id), self.incarnation);
                self.next_seq = u64::from(self.incarnation) << 48;
                self.reliable = RetryMachine::new(RetryPolicy::default());
                self.dyn_topo = DynamicTopology::new(self.dyn_topo.base().clone());
                self.applied_keys.clear();
                self.ls_db.clear();
                self.convicted.clear();
                self.probation = ProbationTracker::new(PROBATION_ROUNDS);
                self.reported_down.clear();
                self.peer_summaries.clear();
                self.peer_verdicts.clear();
                self.obs_buf.clear();
                self.alive = true;
                self.originate_ls(
                    TopoUpdate::RouterUp {
                        router: self.id,
                        incarnation: self.incarnation,
                    },
                    trace,
                );
            }
            ChurnAction::ReportDown(r) => {
                if self.reported_down.insert(r) {
                    self.originate_ls(TopoUpdate::RouterDown(r), trace);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackHub;
    use fatih_core::spec::SpecCheck;
    use fatih_topology::builtin;
    use std::collections::BTreeSet;

    /// A fast end-to-end run over in-memory transports: a 5-router line
    /// with a 30% dropper at the middle hop must be caught, with zero
    /// suspicions of correct-only segments.
    #[test]
    fn loopback_line_catches_dropper() {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[4],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.3,
                seed: 9,
                active_from: 0,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 2,
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);

        assert!(outcome.stats.data_delivered > 0, "traffic flowed");
        assert!(outcome.stats.data_dropped > 0, "the dropper dropped");
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(
            check.is_complete(),
            "dropper escaped: {:?}",
            outcome.suspicions
        );
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives: {:?}",
            check.false_positives
        );
    }

    /// With no adversary every round of every segment must pass — the
    /// runtime's timing (maturity lag, exchange budget) absorbs its own
    /// scheduling jitter instead of accusing someone.
    #[test]
    fn loopback_clean_run_raises_nothing() {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            droppers: vec![],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 2,
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        assert!(
            outcome.suspicions.is_empty(),
            "clean run accused someone: {:?}",
            outcome.suspicions
        );
        assert!(outcome.stats.data_delivered > 0);
    }

    /// A shard's receive sweep polls every router each loop iteration, so
    /// a quiet stretch shows up as empty polls in the registry.
    #[test]
    fn multi_node_shard_counts_empty_polls() {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 100, Duration::from_millis(5))],
            droppers: vec![],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 1,
            shards: 1,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
        assert!(outcome.suspicions.is_empty(), "{:?}", outcome.suspicions);
        assert!(outcome.metrics.counter("net.empty_polls") > 0);
    }

    /// Multi-router shards (2 workers for 5 routers) must reach the same
    /// verdicts as thread-per-router did: the dropper caught, nobody else.
    #[test]
    fn two_shards_catch_the_dropper() {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[4],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.3,
                seed: 5,
                active_from: 0,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 2,
            shards: 2,
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(check.is_complete(), "dropper escaped under sharding");
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives under sharding: {:?}",
            check.false_positives
        );
    }

    /// Reconciliation-mode exchange: a clean run resolves every digest
    /// without a single full-summary fallback and accuses nobody, and its
    /// summary traffic is a fraction of full mode's.
    #[test]
    fn reconcile_mode_clean_run_resolves_digests() {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            droppers: vec![],
            ..LiveSpec::default()
        };
        let base = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 2,
            ..LiveConfig::default()
        };
        let reconcile_cfg = LiveConfig {
            summary: SummaryMode::Reconcile { capacity: 24 },
            ..base
        };
        let full = LiveDeployment::run(&topo, &spec, &base, LoopbackHub::group(&ids));
        let rec = LiveDeployment::run(&topo, &spec, &reconcile_cfg, LoopbackHub::group(&ids));

        assert!(full.suspicions.is_empty() && rec.suspicions.is_empty());
        assert!(rec.stats.digests_resolved > 0, "no digest ever resolved");
        assert_eq!(rec.stats.digest_fallbacks, 0, "clean run fell back");
        assert!(
            rec.stats.control_bytes_sent < full.stats.control_bytes_sent,
            "reconciled control plane not cheaper: {} vs {}",
            rec.stats.control_bytes_sent,
            full.stats.control_bytes_sent
        );
    }

    /// Reconciliation-mode exchange still catches the dropper: either the
    /// decoded diff convicts directly, or the cumulative loss overflows
    /// the sketch and the fallback full transfer convicts.
    #[test]
    fn reconcile_mode_catches_dropper() {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[4],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.3,
                seed: 9,
                active_from: 0,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 2,
            summary: SummaryMode::Reconcile { capacity: 128 },
            ..LiveConfig::default()
        };
        let transports = LoopbackHub::group(&ids);
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(check.is_complete(), "dropper escaped in reconcile mode");
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives in reconcile mode: {:?}",
            check.false_positives
        );
        assert!(
            outcome.stats.digests_resolved + outcome.stats.digest_fallbacks > 0,
            "digest path never exercised"
        );
    }

    /// The §2.4.3 response loop end to end: a ring carries one flow whose
    /// shortest path transits a dropper that activates in round 1. The
    /// segment ends convict it, flood the signed exclusion, every router
    /// reroutes the flow the long way around the ring, and traffic
    /// recovers — with zero false accusations through the transition.
    #[test]
    fn conviction_reroutes_around_the_dropper() {
        let topo = builtin::ring(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        // Lowest-id tie-break routes 0 -> 3 via 1, 2.
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(
                ids[0],
                ids[3],
                1000,
                Duration::from_millis(2),
            )],
            droppers: vec![DropperSpec {
                router: ids[2],
                rate: 0.4,
                seed: 3,
                active_from: 1,
            }],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 6,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));

        assert!(outcome.stats.data_dropped > 0, "the dropper never fired");
        let faulty: BTreeSet<RouterId> = [ids[2]].into_iter().collect();
        let check = SpecCheck::evaluate(&outcome.suspicions, &faulty);
        assert!(
            check.is_complete(),
            "dropper escaped: {:?}",
            outcome.suspicions
        );
        assert!(
            check.is_accurate(cfg.k + 2),
            "false positives through the transition: {:?}",
            check.false_positives
        );
        // The exclusion flooded to everyone and every router reconverged.
        assert!(
            outcome.metrics.counter("net.ls_updates_applied") >= ids.len() as u64,
            "exclusion did not reach every router"
        );
        assert!(
            outcome.metrics.counter("net.epoch_transitions") >= ids.len() as u64,
            "not every router opened a new route epoch"
        );
        // Traffic recovered on the avoidance route: the final round still
        // delivers, and the convicted router sees no transit any more.
        let last = outcome.round_metrics.last().expect("round snapshots");
        let prev = &outcome.round_metrics[outcome.round_metrics.len() - 2];
        assert!(
            last.counter("net.data_delivered") > prev.counter("net.data_delivered"),
            "no traffic delivered in the final round"
        );
        assert_eq!(
            last.counter("net.data_dropped"),
            prev.counter("net.data_dropped"),
            "the convicted router still saw transit traffic in the final round"
        );
    }

    /// Pure churn must never accuse anyone: an off-path link flaps down
    /// and back up, then an off-path router gracefully leaves, while a
    /// monitored flow keeps validating. Every applier lands inside the
    /// deterministic amnesty window, so the verdict log stays empty.
    #[test]
    fn pure_churn_raises_no_suspicions() {
        let topo = builtin::ring(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            churn: vec![
                ChurnEvent {
                    at: Duration::from_millis(150),
                    actor: ids[4],
                    action: ChurnAction::LinkDown(ids[5]),
                },
                ChurnEvent {
                    at: Duration::from_millis(450),
                    actor: ids[4],
                    action: ChurnAction::LinkUp(ids[5]),
                },
                ChurnEvent {
                    at: Duration::from_millis(700),
                    actor: ids[5],
                    action: ChurnAction::Leave,
                },
            ],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 6,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
        assert!(
            outcome.suspicions.is_empty(),
            "pure churn accused someone: {:?}",
            outcome.suspicions
        );
        assert!(outcome.stats.data_delivered > 0, "traffic stopped");
        assert!(
            outcome.metrics.counter("net.epoch_transitions") > 0,
            "churn never triggered a reconvergence"
        );
    }

    /// Crash-restart with probation: a router silently dies, a peer
    /// reports it, and it returns with a bumped incarnation and an empty
    /// link-state DB. Neighbours resync the DB, the returnee sits out
    /// transit duty on probation, and is cleared after the configured
    /// clean rounds — all without a single accusation.
    #[test]
    fn crash_restart_serves_probation_then_clears() {
        let topo = builtin::ring(6);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 800, Duration::from_millis(2))],
            churn: vec![
                ChurnEvent {
                    at: Duration::from_millis(120),
                    actor: ids[4],
                    action: ChurnAction::Crash,
                },
                ChurnEvent {
                    at: Duration::from_millis(320),
                    actor: ids[3],
                    action: ChurnAction::ReportDown(ids[4]),
                },
                ChurnEvent {
                    at: Duration::from_millis(520),
                    actor: ids[4],
                    action: ChurnAction::Restart,
                },
            ],
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            maturity_lag: Duration::from_millis(50),
            rounds: 8,
            ..LiveConfig::default()
        };
        let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
        assert!(
            outcome.suspicions.is_empty(),
            "crash-restart accused someone: {:?}",
            outcome.suspicions
        );
        assert_eq!(
            outcome.metrics.counter("net.probation_admitted"),
            1,
            "the returnee did not admit itself to probation"
        );
        assert_eq!(
            outcome.metrics.counter("net.probation_cleared"),
            1,
            "probation never cleared"
        );
        assert!(
            outcome.events.iter().any(|e| matches!(
                e,
                LiveEvent::ProbationCleared { router, .. } if *router == ids[4]
            )),
            "no ProbationCleared event for the returnee"
        );
        assert!(outcome.stats.data_delivered > 0, "traffic stopped");
    }

    /// Only a frame's destination can cancel its retransmission: a sealed
    /// ack from a third router that shares a pairwise key with the sender
    /// leaves the frame tracked, so the next pump still resends it.
    #[test]
    fn ack_from_a_third_router_does_not_cancel_retransmission() {
        let topo = builtin::line(3);
        let ids: Vec<RouterId> = topo.routers().collect();
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let cfg = LiveConfig::default();
        let mut keys = KeyStore::with_seed(cfg.key_seed);
        for &id in &ids {
            keys.register(id.into());
        }
        let keys = Arc::new(keys);
        let registry = MetricsRegistry::new();
        let transport = LoopbackHub::group(&ids)
            .into_iter()
            .find(|t| t.local() == a)
            .expect("transport for a");
        let mut node = Node::build(
            a,
            transport,
            &LiveSpec::default(),
            &cfg,
            &keys,
            &Arc::new(topo.link_state_routes()),
            &Arc::new(Vec::new()),
            PathOracle::from_paths(Vec::new()),
            DynamicTopology::new(topo.clone()),
            HashMap::new(),
            &[],
            NetMetrics::registered(&registry),
        );
        let mut trace = TraceBuffer::new(0, 64);
        let ack_from = |src: RouterId| {
            let msg = WireMessage::Ack { msg_id: 0 };
            let frame = Frame {
                src,
                dst: a,
                seq: 0,
                msg,
            };
            encode_frame(&frame, &keys).expect("sealable ack")
        };
        let retransmits = || registry.snapshot().counter("net.retransmits");

        let segment = PathSegment::new(ids.clone());
        node.send_frame(b, WireMessage::SummaryPull { round: 0, segment }, true);
        node.handle_frame(&ack_from(c), &mut trace);
        node.epoch -= Duration::from_secs(1); // the retry deadline has passed
        node.pump(&mut trace);
        assert_eq!(retransmits(), 1, "a third router's ack cancelled the frame");

        node.handle_frame(&ack_from(b), &mut trace);
        node.epoch -= Duration::from_secs(1);
        node.pump(&mut trace);
        assert_eq!(retransmits(), 1, "the destination's ack must cancel it");
    }
}
