//! The Fatih system on a lossy, flapping control plane (§2.2.1's benign
//! fault class layered under a genuine attack): summaries ride the
//! ack/retransmit transport, scheduled outages are exonerated, and the
//! attacker is still caught once the faults quiesce.
//!
//! ```sh
//! cargo run --release --example faulty_control_plane
//! ```

use fatih::crypto::KeyStore;
use fatih::protocols::fatih_system::{FatihConfig, FatihEvent, FatihSystem};
use fatih::sim::{Attack, FaultPlan, Network, SimTime};
use fatih::topology::{builtin, RouterId};

fn main() {
    let topo = builtin::line(6);
    let ids: Vec<RouterId> = (0..6)
        .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
        .collect();
    let mut ks = KeyStore::with_seed(17);
    for r in topo.routers() {
        ks.register(r.into());
    }

    let mut net = Network::new(topo, 7);
    let plan = FaultPlan::random_transient(7, net.topology(), SimTime::from_secs(10));
    println!(
        "fault plan: {} flap(s), {} crash window(s), quiesced after {:.1}s",
        plan.flaps().len(),
        plan.crashes().len(),
        plan.quiesced_after().as_secs_f64()
    );
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
    println!("n3 compromised — drops 35% of the n0→n5 flow\n");

    let mut cfg = FatihConfig::default();
    cfg.transport.retry.max_attempts = 10;
    let mut system = FatihSystem::new(&net, ks, cfg);
    system.run(&mut net, SimTime::from_secs(30));

    for ev in system.timeline() {
        match ev {
            FatihEvent::Detection { at, suspicion } => {
                println!("t={:>5.1}s  detection   {suspicion}", at.as_secs_f64());
            }
            FatihEvent::RouteUpdate { at, excluded } => {
                println!(
                    "t={:>5.1}s  route update ({excluded} segments excluded)",
                    at.as_secs_f64()
                );
            }
        }
    }
    println!(
        "\nalerts delivered over the control plane: {}",
        system.alerts_delivered()
    );
    let caught = system
        .excluded_segments()
        .iter()
        .any(|seg| seg.contains(ids[3]));
    let clean = system
        .excluded_segments()
        .iter()
        .all(|seg| seg.contains(ids[3]));
    println!("attacker flagged: {caught} — no correct router accused: {clean}");
    assert!(caught && clean, "control-plane faults broke detection");
}
