//! The Fatih system (dissertation §5.3): Protocol Πk+2 integrated with
//! link-state routing and automatic response.
//!
//! The prototype's architecture (Figure 5.5) couples a coordinator that
//! schedules τ-second validation rounds, per-segment traffic validators,
//! and a routing daemon that — on an alert — recomputes routes excluding
//! the suspected path segments after the OSPF delay/hold timers. This
//! module reproduces that control loop over the simulator, producing the
//! Figure 5.7 timeline: detection ≈ τ after the attack, new routing table
//! ≈ OSPF-delay + hold later, traffic rerouted around the compromised
//! router.
//!
//! Unlike an idealised model, the control plane here is *in-band*
//! (§5.1.1): summaries and alerts ride [`PacketKind::Control`] packets
//! through the same network they police, via the ack/retransmit
//! [`ReliableTransport`]. Three degradation rules keep the detector's
//! accuracy and completeness guarantees under environmental faults:
//!
//! * **Timeout-as-accusation** — a summary still missing when the
//!   exchange budget expires (retries exhausted, MAC rejected, or the
//!   peer simply sent nothing) is treated as a refusal to cooperate and
//!   the waiting end suspects the segment, exactly as Πk+2 prescribes
//!   for a failed exchange (Figure 5.3).
//! * **Alert idempotence** — detections are disseminated as signed alert
//!   messages to every router and applied as set-union into the excluded
//!   set, so late, duplicated or reordered alerts cannot corrupt the
//!   response; a route recomputation uses whatever has accumulated.
//! * **Structural exoneration** — suspicions whose segment was hit by a
//!   scheduled link flap or crash–restart overlapping the round are
//!   suppressed: outages are locally observable benign faults (§2.2.1)
//!   that link-state routing already floods as LSAs, so accusing the
//!   segment would trade accuracy for nothing.
//!
//! [`PacketKind::Control`]: fatih_sim::PacketKind::Control

use crate::pik2::{Pik2Config, Pik2Detector, RoundExchange};
use crate::spec::Suspicion;
use crate::transport::{ReliableTransport, TransportConfig, TransportMsg};
use fatih_crypto::KeyStore;
use fatih_obs::{Counter, MetricsRegistry};
use fatih_sim::{FaultPlan, Network, SimTime};
use fatih_topology::{AvoidingRoutes, Path, PathSegment, RouterId};
use std::collections::BTreeSet;

/// Fatih deployment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatihConfig {
    /// Validation round length τ (the prototype used 5 s).
    pub tau: SimTime,
    /// OSPF SPF delay: time between a triggering alert and the routing
    /// table computation (Zebra default 5 s, §5.3.2).
    pub ospf_delay: SimTime,
    /// OSPF SPF hold time between consecutive computations (default 10 s).
    pub ospf_hold: SimTime,
    /// The Πk+2 detector configuration.
    pub detector: Pik2Config,
    /// Control-plane transport parameters (retransmission timer, retry
    /// budget, message sizes).
    pub transport: TransportConfig,
    /// How long after a round ends its summary exchange may run before
    /// missing summaries become accusations. Must exceed the transport's
    /// worst-case retry span (3.15 s at the default 50 ms timer and 6
    /// attempts) and stay below τ so exchanges never overlap.
    pub exchange_budget: SimTime,
}

impl Default for FatihConfig {
    fn default() -> Self {
        Self {
            tau: SimTime::from_secs(5),
            ospf_delay: SimTime::from_secs(5),
            ospf_hold: SimTime::from_secs(10),
            detector: Pik2Config::default(),
            transport: TransportConfig::default(),
            exchange_budget: SimTime::from_secs(4),
        }
    }
}

/// One entry of the observable system timeline (what Figure 5.7 plots).
#[derive(Debug, Clone, PartialEq)]
pub enum FatihEvent {
    /// A validator flagged a path segment.
    Detection {
        /// When the suspicion was raised.
        at: SimTime,
        /// The raised suspicion.
        suspicion: Suspicion,
    },
    /// The routing daemon installed a new table excluding the suspected
    /// segments.
    RouteUpdate {
        /// Installation time.
        at: SimTime,
        /// Number of excluded segments at this point.
        excluded: usize,
    },
}

/// First byte of a signed alert message on the wire.
const ALERT_TAG: u8 = 0xA1;

/// How often the control loop pumps the transport while the simulation
/// advances between milestones.
const PUMP_SLICE: SimTime = SimTime::from_ms(10);

/// The Fatih control loop over a simulated network.
#[derive(Debug)]
pub struct FatihSystem {
    cfg: FatihConfig,
    keystore: KeyStore,
    detector: Pik2Detector,
    transport: ReliableTransport,
    excluded: BTreeSet<PathSegment>,
    pending_update: Option<SimTime>,
    last_update: Option<SimTime>,
    timeline: Vec<FatihEvent>,
    next_round_begin: SimTime,
    exchange: Option<RoundExchange>,
    exchange_deadline: SimTime,
    round_counter: u64,
    alerts_delivered: u64,
    /// Observability mirrors of the two tallies above: private cells by
    /// default, registry-backed after [`FatihSystem::attach_metrics`].
    obs_rounds: Counter,
    obs_alerts: Counter,
}

impl FatihSystem {
    /// Deploys Fatih over the network's stable routes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.exchange_budget` is zero or not less than `cfg.tau`
    /// (exchanges must finish before the next round begins).
    pub fn new(net: &Network, keystore: KeyStore, cfg: FatihConfig) -> Self {
        assert!(
            SimTime::ZERO < cfg.exchange_budget && cfg.exchange_budget < cfg.tau,
            "exchange budget must lie in (0, tau)"
        );
        let detector = Pik2Detector::new(net.routes(), keystore.clone(), cfg.detector);
        Self {
            cfg,
            keystore,
            detector,
            transport: ReliableTransport::new(cfg.transport),
            excluded: BTreeSet::new(),
            pending_update: None,
            last_update: None,
            timeline: Vec::new(),
            next_round_begin: net.now() + cfg.tau,
            exchange: None,
            exchange_deadline: SimTime::ZERO,
            round_counter: 0,
            alerts_delivered: 0,
            obs_rounds: Counter::default(),
            obs_alerts: Counter::default(),
        }
    }

    /// Registers the system's tallies as `fatih.rounds` and
    /// `fatih.alerts_delivered` so a harness can read them from registry
    /// snapshots alongside the `net.*`/`monitor.*` families.
    pub fn attach_metrics(&mut self, reg: &MetricsRegistry) {
        self.obs_rounds = reg.counter("fatih.rounds");
        self.obs_alerts = reg.counter("fatih.alerts_delivered");
        self.obs_rounds.add(self.round_counter);
        self.obs_alerts.add(self.alerts_delivered);
    }

    /// The suspicions-driven exclusion set installed so far.
    pub fn excluded_segments(&self) -> &BTreeSet<PathSegment> {
        &self.excluded
    }

    /// The observable event timeline.
    pub fn timeline(&self) -> &[FatihEvent] {
        &self.timeline
    }

    /// Signed alert messages delivered (and verified) so far, duplicates
    /// included — the response applies them idempotently.
    pub fn alerts_delivered(&self) -> u64 {
        self.alerts_delivered
    }

    /// Runs the system (simulation + validation rounds + summary
    /// exchanges + response) until `until`.
    ///
    /// Due milestones are processed in causal order at each instant:
    /// first an exchange whose budget expired (or that settled) is
    /// concluded into detections and alerts, then a due routing update is
    /// installed (cancelling any exchange in flight — its leftover
    /// summaries are rejected by round id), then the next round begins.
    /// Between milestones the simulation advances in short slices with
    /// the transport pumped each time. A round due exactly at `until`
    /// begins on the next call, so `run` never leaves freshly-launched
    /// summaries in the air at its boundary.
    pub fn run(&mut self, net: &mut Network, until: SimTime) {
        loop {
            let now = net.now();
            if self
                .exchange
                .as_ref()
                .is_some_and(|e| now >= self.exchange_deadline || e.is_settled())
            {
                let exch = self.exchange.take().expect("checked above");
                self.conclude_exchange(net, exch, now);
                continue;
            }
            if let Some(due) = self.pending_update {
                if now >= due {
                    self.apply_route_update(net, due);
                    continue;
                }
            }
            if now >= until {
                break;
            }
            if self.exchange.is_none() && now >= self.next_round_begin {
                self.begin_exchange(net);
                continue;
            }
            let mut horizon = until.min(self.next_round_begin);
            if self.exchange.is_some() {
                horizon = horizon.min(self.exchange_deadline);
            }
            if let Some(due) = self.pending_update {
                horizon = horizon.min(due);
            }
            let step = (now + PUMP_SLICE).min(horizon);
            let det = &mut self.detector;
            net.run_until(step, |ev| det.observe(ev));
            self.transport.pump(net);
            self.dispatch();
        }
    }

    /// Ends the measurement round at the current time and launches its
    /// summary exchange over the network.
    fn begin_exchange(&mut self, net: &mut Network) {
        let now = net.now();
        self.round_counter += 1;
        self.obs_rounds.inc();
        let exch = self
            .detector
            .begin_round(now, self.round_counter, net, &mut self.transport);
        self.exchange_deadline = now + self.cfg.exchange_budget;
        self.exchange = Some(exch);
        self.next_round_begin = now + self.cfg.tau;
    }

    /// Closes an exchange: evaluates `TV` and the timeout-as-accusation
    /// rule, exonerates structurally-faulted segments, records new
    /// detections, disseminates signed alerts and schedules the routing
    /// response.
    fn conclude_exchange(&mut self, net: &mut Network, exch: RoundExchange, now: SimTime) {
        let suspicions = self.detector.finish_round(exch);
        let plan = net.fault_plan().cloned();
        let mut newly: Vec<Suspicion> = Vec::new();
        for s in suspicions {
            if let Some(plan) = &plan {
                if self.structurally_excused(plan, &s) {
                    continue;
                }
            }
            if self.excluded.insert(s.segment.clone()) {
                self.timeline.push(FatihEvent::Detection {
                    at: now,
                    suspicion: s.clone(),
                });
                newly.push(s);
            }
        }
        if newly.is_empty() {
            return;
        }
        // Alert dissemination: the raiser signs and unicasts the suspected
        // segment to every other router over the reliable transport
        // (§5.3.1's alert channel).
        let ids: Vec<RouterId> = net.topology().routers().collect();
        for s in &newly {
            let payload = encode_alert(&self.keystore, s.raised_by, &s.segment);
            for &r in &ids {
                if r != s.raised_by {
                    self.transport.send(net, s.raised_by, r, payload.clone());
                }
            }
        }
        if self.pending_update.is_none() {
            // SPF delay, respecting the hold timer.
            let mut due = now + self.cfg.ospf_delay;
            if let Some(last) = self.last_update {
                due = due.max(last + self.cfg.ospf_hold);
            }
            self.pending_update = Some(due);
        }
    }

    /// Whether a suspicion is explained by a scheduled structural fault:
    /// a crash–restart of a segment member, or a flap of a segment link,
    /// overlapping the window from the round's start to the end of its
    /// exchange budget. Such outages are locally observable benign events
    /// that OSPF floods anyway — suppressing the suspicion preserves
    /// a-Accuracy without hiding real attackers (who by definition drop
    /// traffic *outside* any such window too).
    ///
    /// The window extends one maturity lag *before* the round: a packet
    /// lost in an outage just before the round boundary is deferred by
    /// the maturity rule and judged in this round, and must still be
    /// excused. It extends one exchange budget *after*: the outage may
    /// have eaten the summary itself rather than the data.
    fn structurally_excused(&self, plan: &FaultPlan, s: &Suspicion) -> bool {
        let routers = s.segment.routers();
        let start = s.interval.start.since(self.cfg.detector.maturity_lag);
        let end = s.interval.end + self.cfg.exchange_budget;
        let overlaps = |down: SimTime, up: SimTime| down < end && up > start;
        plan.crashes()
            .iter()
            .any(|c| routers.contains(&c.router) && overlaps(c.down_at, c.up_at))
            || plan.flaps().iter().any(|f| {
                overlaps(f.down_at, f.up_at)
                    && routers.windows(2).any(|w| {
                        (w[0] == f.from && w[1] == f.to) || (w[0] == f.to && w[1] == f.from)
                    })
            })
    }

    /// Installs the avoidance routes and re-deploys monitoring over the
    /// new fabric.
    fn apply_route_update(&mut self, net: &mut Network, at: SimTime) {
        let segs: Vec<PathSegment> = self.excluded.iter().cloned().collect();
        net.apply_avoidance(&segs);
        // Re-deploy monitoring over the *new* routing fabric (the
        // coordinator "is kept abreast of routing changes so that it
        // always knows which path segments should be monitored", §5.3.1).
        let av = AvoidingRoutes::new(net.topology(), segs.clone());
        let ids: Vec<RouterId> = net.topology().routers().collect();
        let mut paths: Vec<Path> = Vec::new();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    if let Some(p) = av.path(a, b) {
                        paths.push(p);
                    }
                }
            }
        }
        self.detector = Pik2Detector::with_paths(
            &paths,
            net.topology().router_count(),
            self.keystore.clone(),
            self.cfg.detector,
        );
        // An exchange in flight references the old fabric's segment
        // indices: abandon it. Its still-travelling summaries carry a
        // round id no future exchange will accept.
        self.exchange = None;
        self.last_update = Some(at);
        self.pending_update = None;
        self.timeline.push(FatihEvent::RouteUpdate {
            at,
            excluded: segs.len(),
        });
    }

    /// Routes drained transport deliveries and events: exchange summaries
    /// to the active exchange, alerts into the (idempotent) excluded set,
    /// anything else — stale summaries from an abandoned round, exhausted
    /// alert sends — is dropped.
    fn dispatch(&mut self) {
        for msg in self.transport.take_inbox() {
            let consumed = match &mut self.exchange {
                Some(exch) => self.detector.exchange_message(exch, &msg),
                None => false,
            };
            if consumed {
                continue;
            }
            self.apply_alert(&msg);
        }
        for ev in self.transport.take_events() {
            if let Some(exch) = &mut self.exchange {
                self.detector.exchange_event(exch, &ev);
            }
        }
    }

    /// Verifies and applies one alert message. Application is a set
    /// insert, so duplicated, reordered or late alerts are harmless.
    fn apply_alert(&mut self, msg: &TransportMsg) {
        let Some(segment) = decode_alert(&self.keystore, &msg.payload) else {
            return;
        };
        self.alerts_delivered += 1;
        self.obs_alerts.inc();
        self.excluded.insert(segment);
    }
}

/// Wire form of an alert: tag, origin router, signature over
/// `origin ‖ body`, body = router count + router ids of the suspected
/// segment.
fn encode_alert(keystore: &KeyStore, origin: RouterId, segment: &PathSegment) -> Vec<u8> {
    let routers = segment.routers();
    let mut body = Vec::with_capacity(4 + 4 * routers.len());
    body.extend_from_slice(&(routers.len() as u32).to_le_bytes());
    for &r in routers {
        body.extend_from_slice(&u32::from(r).to_le_bytes());
    }
    let mut ctx = Vec::with_capacity(4 + body.len());
    ctx.extend_from_slice(&u32::from(origin).to_le_bytes());
    ctx.extend_from_slice(&body);
    let sig = keystore.sign(origin.into(), &ctx);
    let mut out = Vec::with_capacity(37 + body.len());
    out.push(ALERT_TAG);
    out.extend_from_slice(&u32::from(origin).to_le_bytes());
    out.extend_from_slice(&sig.0 .0);
    out.extend_from_slice(&body);
    out
}

/// Decodes and authenticates an alert; `None` for non-alerts, malformed
/// payloads and bad signatures.
fn decode_alert(keystore: &KeyStore, payload: &[u8]) -> Option<PathSegment> {
    if payload.len() < 41 || payload[0] != ALERT_TAG {
        return None;
    }
    let origin = u32::from_le_bytes(payload[1..5].try_into().unwrap());
    let mut sig_bytes = [0u8; 32];
    sig_bytes.copy_from_slice(&payload[5..37]);
    let body = &payload[37..];
    let count = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
    if count < 2 || body.len() != 4 + 4 * count {
        return None;
    }
    let mut ctx = Vec::with_capacity(4 + body.len());
    ctx.extend_from_slice(&origin.to_le_bytes());
    ctx.extend_from_slice(body);
    let sig = fatih_crypto::Signature(fatih_crypto::Digest(sig_bytes));
    if !keystore.contains(origin) || !keystore.verify(origin, &ctx, &sig) {
        return None;
    }
    let routers: Vec<RouterId> = (0..count)
        .map(|i| {
            let off = 4 + 4 * i;
            RouterId::from(u32::from_le_bytes(body[off..off + 4].try_into().unwrap()))
        })
        .collect();
    Some(PathSegment::new(routers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Interval;
    use fatih_sim::{Attack, TapEvent, VictimFilter};
    use fatih_topology::builtin;

    /// The Figure 5.7 scenario, compressed: traffic across Abilene, the
    /// Kansas City router compromised mid-run, Fatih detects and reroutes.
    #[test]
    fn abilene_attack_detected_and_rerouted() {
        let topo = builtin::abilene();
        let mut ks = KeyStore::with_seed(1);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let sun = topo.router_by_name("Sunnyvale").unwrap();
        let ny = topo.router_by_name("NewYork").unwrap();
        let kc = topo.router_by_name("KansasCity").unwrap();

        let mut net = Network::new(topo, 7);
        // Steady coast-to-coast traffic (through Kansas City).
        net.add_cbr_flow(sun, ny, 1000, SimTime::from_ms(5), SimTime::ZERO, None);
        net.add_cbr_flow(ny, sun, 1000, SimTime::from_ms(7), SimTime::ZERO, None);

        let mut system = FatihSystem::new(&net, ks, FatihConfig::default());

        // Clean period: no detections.
        system.run(&mut net, SimTime::from_secs(20));
        assert!(system.timeline().is_empty(), "{:?}", system.timeline());

        // Compromise Kansas City: drop 20% of transit traffic.
        net.set_attacks(
            kc,
            vec![Attack {
                victims: VictimFilter::all(),
                kind: fatih_sim::AttackKind::Drop { fraction: 0.2 },
            }],
        );
        system.run(&mut net, SimTime::from_secs(60));

        // Detections exist, and a route update followed.
        let detections: Vec<&FatihEvent> = system
            .timeline()
            .iter()
            .filter(|e| matches!(e, FatihEvent::Detection { .. }))
            .collect();
        assert!(!detections.is_empty(), "attack never detected");
        // Every excluded segment contains Kansas City (accuracy).
        for seg in system.excluded_segments() {
            assert!(
                seg.contains(kc),
                "excluded segment {seg} does not contain the faulty router"
            );
        }
        let update_at = system.timeline().iter().find_map(|e| match e {
            FatihEvent::RouteUpdate { at, .. } => Some(*at),
            _ => None,
        });
        let update_at = update_at.expect("route update installed");
        // Detection at the end of the round containing the attack; update
        // one SPF delay later.
        let first_detection = match detections[0] {
            FatihEvent::Detection { at, .. } => *at,
            _ => unreachable!(),
        };
        assert!(first_detection >= SimTime::from_secs(20));
        assert!(update_at.since(first_detection) >= SimTime::from_ms(4_999));

        // After the update, traffic no longer transits Kansas City.
        let mut via_kc_after = 0;
        net.run_until(net.now() + SimTime::from_secs(10), |ev| {
            if let TapEvent::Arrived { router, .. } = ev {
                if *router == kc {
                    via_kc_after += 1;
                }
            }
        });
        assert_eq!(
            via_kc_after, 0,
            "traffic still transits the compromised router"
        );
    }

    #[test]
    fn hold_timer_batches_updates() {
        let topo = builtin::line(5);
        let ids: Vec<_> = (0..5)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let mut ks = KeyStore::with_seed(2);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let mut net = Network::new(topo, 3);
        let flow = net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[2], vec![Attack::drop_flows([flow], 0.3)]);
        let mut system = FatihSystem::new(&net, ks, FatihConfig::default());
        system.run(&mut net, SimTime::from_secs(40));
        let updates: Vec<SimTime> = system
            .timeline()
            .iter()
            .filter_map(|e| match e {
                FatihEvent::RouteUpdate { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert!(!updates.is_empty());
        for w in updates.windows(2) {
            assert!(
                w[1].since(w[0]) >= SimTime::from_secs(10),
                "updates violate the hold timer: {updates:?}"
            );
        }
    }

    #[test]
    fn summaries_ride_control_plane_loss_without_false_accusations() {
        // 10% control loss everywhere: the transport's retries keep every
        // exchange alive, so a clean network yields a clean timeline and
        // an attacked one still pins only segments containing the
        // attacker.
        let topo = builtin::line(6);
        let ids: Vec<_> = (0..6)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let mut ks = KeyStore::with_seed(5);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let mut net = Network::new(topo, 11);
        net.set_fault_plan(Some(
            fatih_sim::FaultPlan::new(13).with_default_link_faults(fatih_sim::LinkFaults {
                loss: 0.10,
                ..fatih_sim::LinkFaults::NONE
            }),
        ));
        let flow = net.add_cbr_flow(
            ids[0],
            ids[5],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        let mut cfg = FatihConfig::default();
        cfg.transport.retry.max_attempts = 10;
        let mut system = FatihSystem::new(&net, ks, cfg);
        system.run(&mut net, SimTime::from_secs(15));
        assert!(
            system.timeline().is_empty(),
            "control loss alone caused accusations: {:?}",
            system.timeline()
        );

        net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.3)]);
        system.run(&mut net, SimTime::from_secs(35));
        let detections = system
            .timeline()
            .iter()
            .filter(|e| matches!(e, FatihEvent::Detection { .. }))
            .count();
        assert!(detections > 0, "attacker undetected under control loss");
        for seg in system.excluded_segments() {
            assert!(seg.contains(ids[3]), "false accusation: {seg}");
        }
    }

    #[test]
    fn link_flap_during_round_is_exonerated() {
        // A 1.5 s outage of one link covers the transport's whole retry
        // span: without exoneration the affected segments would be
        // accused. The flap is scheduled, locally observable, and must
        // not produce detections.
        let topo = builtin::line(5);
        let ids: Vec<_> = (0..5)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let mut ks = KeyStore::with_seed(4);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let mut net = Network::new(topo, 9);
        net.set_fault_plan(Some(fatih_sim::FaultPlan::new(21).with_link_flap(
            ids[1],
            ids[2],
            SimTime::from_secs(4),
            SimTime::from_ms(5_500),
        )));
        net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        let mut system = FatihSystem::new(&net, ks, FatihConfig::default());
        system.run(&mut net, SimTime::from_secs(15));
        assert!(
            system.timeline().is_empty(),
            "benign flap became an accusation: {:?}",
            system.timeline()
        );
    }

    #[test]
    fn alert_roundtrip_and_idempotence() {
        let mut ks = KeyStore::with_seed(6);
        for r in 0..4u32 {
            ks.register(r);
        }
        let seg = PathSegment::new(vec![
            RouterId::from(1),
            RouterId::from(2),
            RouterId::from(3),
        ]);
        let wire = encode_alert(&ks, RouterId::from(0), &seg);
        assert_eq!(decode_alert(&ks, &wire), Some(seg.clone()));

        // Tampered body fails authentication.
        let mut bad = wire.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(decode_alert(&ks, &bad), None);
        // Foreign origin fails too.
        let other = KeyStore::with_seed(7);
        assert_eq!(decode_alert(&other, &wire), None);

        // Applying the same alert twice leaves one exclusion.
        let topo = builtin::line(4);
        let mut ks2 = KeyStore::with_seed(6);
        for r in topo.routers() {
            ks2.register(r.into());
        }
        let net = Network::new(topo, 1);
        let mut system = FatihSystem::new(&net, ks2, FatihConfig::default());
        let msg = TransportMsg {
            msg: 1,
            from: RouterId::from(0),
            to: RouterId::from(3),
            payload: wire.clone(),
            at: SimTime::ZERO,
        };
        system.apply_alert(&msg);
        system.apply_alert(&msg);
        assert_eq!(system.excluded_segments().len(), 1);
        assert_eq!(system.alerts_delivered(), 2);
    }

    #[test]
    fn structural_exoneration_matches_windows() {
        let topo = builtin::line(5);
        let ids: Vec<_> = (0..5)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let mut ks = KeyStore::with_seed(3);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let net = Network::new(topo, 1);
        let system = FatihSystem::new(&net, ks, FatihConfig::default());
        let seg = PathSegment::new(vec![ids[1], ids[2], ids[3]]);
        let sus = |start_s: u64, end_s: u64| Suspicion {
            segment: seg.clone(),
            interval: Interval::new(SimTime::from_secs(start_s), SimTime::from_secs(end_s)),
            raised_by: ids[1],
        };
        let crash =
            FaultPlan::new(1).with_crash(ids[2], SimTime::from_secs(6), SimTime::from_secs(7));
        assert!(system.structurally_excused(&crash, &sus(5, 10)));
        // Past window (plus the exchange budget grace) does not excuse.
        assert!(!system.structurally_excused(&crash, &sus(12, 17)));
        // A crash of a router outside the segment does not excuse.
        let other =
            FaultPlan::new(1).with_crash(ids[0], SimTime::from_secs(6), SimTime::from_secs(7));
        assert!(!system.structurally_excused(&other, &sus(5, 10)));
        // A flap on a segment link (either direction) excuses.
        let flap = FaultPlan::new(1).with_link_flap(
            ids[3],
            ids[2],
            SimTime::from_secs(6),
            SimTime::from_secs(7),
        );
        assert!(system.structurally_excused(&flap, &sus(5, 10)));
        // A flap elsewhere does not.
        let far = FaultPlan::new(1).with_link_flap(
            ids[0],
            ids[1],
            SimTime::from_secs(6),
            SimTime::from_secs(7),
        );
        assert!(!system.structurally_excused(&far, &sus(5, 10)));
    }
}
