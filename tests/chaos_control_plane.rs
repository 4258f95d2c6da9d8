//! Chaos harness for the fault-injected control plane: sweeps of
//! seed-driven [`FaultPlan`]s against the transport-backed Πk+2 rounds
//! and the full Fatih control loop.
//!
//! The properties under test are the failure-detector guarantees of
//! §4.2.2 *in the presence of environmental faults* (§2.2.1's benign
//! class):
//!
//! * **Accuracy** — control-plane loss, duplication, reordering and
//!   corruption must never cause a correct router to be accused: the
//!   ack/retransmit transport absorbs them, and scheduled outages (link
//!   flaps, crash–restarts) are exonerated as locally-observable benign
//!   events.
//! * **Completeness** — a router that maliciously drops data traffic is
//!   still flagged once the faults quiesce, and a router that withholds
//!   its summaries past the retry budget is flagged *by that refusal*
//!   (timeout-as-accusation).

use fatih::crypto::KeyStore;
use fatih::protocols::fatih_system::{FatihConfig, FatihSystem};
use fatih::protocols::pik2::{Pik2Config, Pik2Detector, RoundExchange};
use fatih::protocols::spec::SpecCheck;
use fatih::protocols::transport::{ReliableTransport, TransportConfig};
use fatih::protocols::ReportFault;
use fatih::sim::{Attack, FaultPlan, LinkFaults, Network, SimTime};
use fatih::topology::{builtin, RouterId, Topology};
use std::collections::BTreeSet;

fn keystore_for(topo: &Topology) -> KeyStore {
    let mut ks = KeyStore::with_seed(17);
    for r in topo.routers() {
        ks.register(r.into());
    }
    ks
}

/// Advances the simulation in 10 ms slices, pumping the transport and
/// feeding the exchange, until it settles or `budget` elapses.
fn drive_exchange(
    net: &mut Network,
    det: &mut Pik2Detector,
    transport: &mut ReliableTransport,
    exch: &mut RoundExchange,
    budget: SimTime,
) {
    let deadline = net.now() + budget;
    while net.now() < deadline && !exch.is_settled() {
        let mut t = net.now() + SimTime::from_ms(10);
        if t > deadline {
            t = deadline;
        }
        net.run_until(t, |ev| det.observe(ev));
        transport.pump(net);
        for msg in transport.take_inbox() {
            det.exchange_message(exch, &msg);
        }
        for ev in transport.take_events() {
            det.exchange_event(exch, &ev);
        }
    }
}

/// The transport with a 10-attempt retry budget, which rides out the
/// chaos plans below.
fn ten_attempts() -> TransportConfig {
    let mut cfg = TransportConfig::default();
    cfg.retry.max_attempts = 10;
    cfg
}

/// Seed-derived probabilistic faults, bounded so a 10-attempt transport
/// practically never exhausts (worst per-attempt round-trip failure at
/// 14% symmetric loss over 2 hops ≈ 0.45; 0.45¹⁰ ≈ 3·10⁻⁴).
fn probabilistic_faults(seed: u64) -> LinkFaults {
    LinkFaults {
        loss: 0.02 + (seed % 7) as f64 * 0.02,
        duplicate: (seed % 5) as f64 * 0.02,
        corrupt: (seed % 3) as f64 * 0.015,
        reorder: (seed % 4) as f64 * 0.02,
        reorder_delay: SimTime::from_ms(1 + seed % 15),
    }
}

/// 20 fault seeds of pure message-level chaos (loss/dup/corrupt/reorder
/// on every link): the attacker is always caught and no correct router is
/// ever accused.
#[test]
fn twenty_seeds_of_message_chaos_keep_accuracy_and_completeness() {
    for seed in 0..20u64 {
        let topo = builtin::line(6);
        let ids: Vec<RouterId> = (0..6)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let ks = keystore_for(&topo);
        let mut net = Network::new(topo, seed);
        net.set_fault_plan(Some(
            FaultPlan::new(seed).with_default_link_faults(probabilistic_faults(seed)),
        ));
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let mut transport = ReliableTransport::new(ten_attempts());
        let flow = net.add_cbr_flow(
            ids[0],
            ids[5],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.3)]);

        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(4),
        );
        let sus = det.finish_round(exch);

        let faulty: BTreeSet<RouterId> = [ids[3]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(
            check.is_complete(),
            "seed {seed}: attacker escaped under message chaos: {sus:?}"
        );
        assert!(
            check.is_accurate(3),
            "seed {seed}: correct router accused: {:?}",
            check.false_positives
        );
    }
}

/// 20 seeds of transient chaos — randomized per-link fault rates plus
/// link flaps and a possible crash–restart, all quiescing by t = 10 s —
/// against the full Fatih loop. Scheduled outages are exonerated, so the
/// exclusion set only ever names segments containing the attacker, and
/// the attacker is flagged once the faults die down.
#[test]
fn transient_chaos_quiesces_and_attacker_is_still_flagged() {
    for seed in 100..120u64 {
        let topo = builtin::line(6);
        let ids: Vec<RouterId> = (0..6)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let ks = keystore_for(&topo);
        let mut net = Network::new(topo, seed);
        let plan = FaultPlan::random_transient(seed, net.topology(), SimTime::from_secs(10));
        assert!(plan.quiesced_after() <= SimTime::from_secs(10));
        net.set_fault_plan(Some(plan));
        let flow = net.add_cbr_flow(
            ids[0],
            ids[5],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.set_attacks(ids[3], vec![Attack::drop_flows([flow], 0.35)]);
        let mut system = FatihSystem::new(
            &net,
            ks,
            FatihConfig {
                transport: ten_attempts(),
                ..FatihConfig::default()
            },
        );
        system.run(&mut net, SimTime::from_secs(30));

        assert!(
            system
                .excluded_segments()
                .iter()
                .any(|seg| seg.contains(ids[3])),
            "seed {seed}: attacker never flagged after faults quiesced: {:?}",
            system.timeline()
        );
        for seg in system.excluded_segments() {
            assert!(
                seg.contains(ids[3]),
                "seed {seed}: correct routers accused: {seg}"
            );
        }
    }
}

/// A router that persistently withholds its summaries is itself flagged
/// (timeout-as-accusation), across seeds of background control loss —
/// and nobody else is.
#[test]
fn persistent_summary_withholder_is_flagged_across_seeds() {
    for seed in 200..220u64 {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = (0..4)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let ks = keystore_for(&topo);
        let mut net = Network::new(topo, seed);
        net.set_fault_plan(Some(FaultPlan::new(seed).with_default_link_faults(
            LinkFaults {
                loss: 0.10,
                ..LinkFaults::default()
            },
        )));
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        det.set_report_fault(ids[0], ReportFault::Silent);
        let mut transport = ReliableTransport::new(ten_attempts());
        net.add_cbr_flow(
            ids[0],
            ids[3],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );
        net.add_cbr_flow(
            ids[3],
            ids[0],
            800,
            SimTime::from_ms(3),
            SimTime::ZERO,
            None,
        );

        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(4),
        );
        let sus = det.finish_round(exch);

        let faulty: BTreeSet<RouterId> = [ids[0]].into_iter().collect();
        let check = SpecCheck::evaluate(&sus, &faulty);
        assert!(
            check.is_complete(),
            "seed {seed}: withholder escaped: {sus:?}"
        );
        assert!(
            check.is_accurate(3),
            "seed {seed}: withholding blamed on others: {:?}",
            check.false_positives
        );
    }
}

/// Duplicate and reordered control deliveries never double-apply: a
/// clean data plane with heavily duplicated/reordered control messages
/// yields a clean verdict across seeds.
#[test]
fn duplication_and_reordering_alone_accuse_nobody() {
    for seed in 300..310u64 {
        let topo = builtin::line(5);
        let ids: Vec<RouterId> = (0..5)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        let ks = keystore_for(&topo);
        let mut net = Network::new(topo, seed);
        net.set_fault_plan(Some(FaultPlan::new(seed).with_default_link_faults(
            LinkFaults {
                duplicate: 0.5,
                reorder: 0.4,
                reorder_delay: SimTime::from_ms(25),
                ..LinkFaults::default()
            },
        )));
        let mut det = Pik2Detector::new(net.routes(), ks, Pik2Config::default());
        let mut transport = ReliableTransport::new(TransportConfig::default());
        net.add_cbr_flow(
            ids[0],
            ids[4],
            1000,
            SimTime::from_ms(2),
            SimTime::ZERO,
            None,
        );

        let end = SimTime::from_secs(5);
        net.run_until(end, |ev| det.observe(ev));
        let mut exch = det.begin_round(end, 1, &mut net, &mut transport);
        drive_exchange(
            &mut net,
            &mut det,
            &mut transport,
            &mut exch,
            SimTime::from_secs(4),
        );
        let sus = det.finish_round(exch);
        assert!(
            sus.is_empty(),
            "seed {seed}: duplication/reordering caused accusations: {sus:?}"
        );
    }
}
