//! Reliable control-plane delivery: per-message acknowledgment,
//! retransmission with exponential backoff, bounded retries and duplicate
//! suppression.
//!
//! The detection protocols exchange summaries and alerts over the very
//! network they monitor (§5.1.1), so control messages see the same loss,
//! duplication, reordering and corruption the fault plan injects
//! ([`fatih_sim::FaultPlan`]). This module recovers exactly-once delivery
//! semantics on top of that lossy substrate — or reports *exhaustion* when
//! the retry budget runs out, which the protocols above convert into a
//! timeout-as-accusation suspicion against the silent peer.
//!
//! The mechanism is one sans-I/O state machine, [`RetryMachine`]: it owns
//! no network, socket or clock. Its inputs are
//! [`track`](RetryMachine::track), [`ack`](RetryMachine::ack),
//! [`accept`](RetryMachine::accept), [`pump`](RetryMachine::pump),
//! [`purge_peer`](RetryMachine::purge_peer) and
//! [`forget_peer_history`](RetryMachine::forget_peer_history); its outputs
//! are the frames due for retransmission and the exhausted ones. Two
//! callers run it: [`ReliableTransport`] over the simulator's
//! [`Network`], and each node of the live runtime (`fatih_net::runtime`)
//! over a real transport.
//!
//! Simulator notes:
//!
//! * Message ids ride in the simulated packet's `seq` field; the high bit
//!   marks acknowledgments. Payload bytes travel out-of-band in the
//!   machine's outstanding table (simulated packets are content
//!   stand-ins; the in-flight `payload_tag` models a MAC over the real
//!   bytes, so a corrupted copy arrives with `intact == false` and is
//!   discarded — retransmission supplies a clean copy).
//! * One [`ReliableTransport`] instance serves every router in a
//!   simulation, mirroring how the detectors are driven as a global
//!   harness; state is still kept per (sender, message).

use fatih_sim::{Network, SimTime};
use fatih_topology::RouterId;
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

/// High bit of the packet `seq` field marks an acknowledgment; the low 63
/// bits carry the message id.
const ACK_BIT: u64 = 1 << 63;

/// When to retransmit an unacknowledged frame and when to give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial retransmission timeout; doubles per retry up to
    /// [`max_backoff`](Self::max_backoff).
    pub rto: Duration,
    /// Ceiling on the retransmission delay: the exponential backoff is
    /// computed with saturating arithmetic and clamped here, so a large
    /// retry count (or an absurd `rto`) can never overflow the delay.
    pub max_backoff: Duration,
    /// Maximum transmission attempts (first send included) before the
    /// frame is declared exhausted.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// The live runtime's policy, sized for loopback and LAN round trips:
    /// 25 ms initial timeout, 100 ms ceiling, 8 attempts. The simulator's
    /// [`TransportConfig`] carries its own.
    fn default() -> Self {
        Self {
            rto: Duration::from_millis(25),
            max_backoff: Duration::from_millis(100),
            max_attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// The retransmission delay after `attempts` transmissions:
    /// `min(rto · 2^(attempts−1), max_backoff)`, computed with saturating
    /// arithmetic so no retry count can overflow.
    pub fn backoff(&self, attempts: u32) -> Duration {
        // 2^31 · rto already dwarfs any sane ceiling, so the shift is
        // clamped to stay within the u32 multiplier.
        let doublings = attempts.saturating_sub(1).min(31);
        self.rto
            .saturating_mul(1 << doublings)
            .min(self.max_backoff)
    }
}

/// A frame awaiting acknowledgment.
#[derive(Debug)]
pub struct Outstanding<F> {
    /// The destination whose ack cancels it.
    pub dst: RouterId,
    /// What the caller retransmits.
    pub frame: F,
    /// Transmissions so far (1 = only the first send).
    pub attempts: u32,
    next_retry_ns: u64,
}

/// What one [`RetryMachine::pump`] asks of its caller.
#[derive(Debug)]
pub struct Pumped<'a, F> {
    /// Frames to transmit again now, as `(seq, dst, frame)` in sequence
    /// order.
    pub resend: Vec<(u64, RouterId, &'a F)>,
    /// Frames whose attempt budget ran out, removed from tracking, as
    /// `(seq, entry)` in sequence order.
    pub exhausted: Vec<(u64, Outstanding<F>)>,
}

/// Sender-side retransmission state plus receiver-side deduplication,
/// free of I/O: time arrives as `now_ns` on the caller's clock axis and
/// every transmission is the caller's job.
///
/// Outstanding frames live in a sequence-ordered map, so retransmission
/// order is deterministic.
#[derive(Debug)]
pub struct RetryMachine<F> {
    policy: RetryPolicy,
    outstanding: BTreeMap<u64, Outstanding<F>>,
    /// (sender, sequence) pairs already accepted — duplicates and
    /// retransmissions of delivered frames are suppressed against this set.
    seen: HashSet<(RouterId, u64)>,
}

impl<F> RetryMachine<F> {
    /// A machine retrying under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy allows no attempt or has a zero timeout.
    pub fn new(policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        assert!(!policy.rto.is_zero(), "rto must be positive");
        Self {
            policy,
            outstanding: BTreeMap::new(),
            seen: HashSet::new(),
        }
    }

    /// Registers a frame the caller has just sent to `dst` at `now_ns`.
    pub fn track(&mut self, seq: u64, dst: RouterId, frame: F, now_ns: u64) {
        let entry = Outstanding {
            dst,
            frame,
            attempts: 1,
            next_retry_ns: retry_at(&self.policy, now_ns, 1),
        };
        self.outstanding.insert(seq, entry);
    }

    /// Processes an ack for `seq` sent by `from`. Only the frame's own
    /// destination can cancel it: an ack from anyone else leaves the frame
    /// tracked. Returns the acknowledged entry.
    pub fn ack(&mut self, seq: u64, from: RouterId) -> Option<Outstanding<F>> {
        match self.outstanding.get(&seq) {
            Some(o) if o.dst == from => self.outstanding.remove(&seq),
            _ => None,
        }
    }

    /// Cancels `seq` whoever acknowledged it; returns whether it was
    /// tracked. Protocol code uses [`ack`](Self::ack), which checks the
    /// acknowledger; this form remains for the perfbench layer harness,
    /// which times the bare track/ack cycle.
    pub fn on_ack(&mut self, seq: u64) -> bool {
        self.outstanding.remove(&seq).is_some()
    }

    /// Whether a received frame `(src, seq)` is new. The first call for a
    /// pair returns true; duplicates (retransmissions, chaos duplication)
    /// return false.
    pub fn accept(&mut self, src: RouterId, seq: u64) -> bool {
        self.seen.insert((src, seq))
    }

    /// The tracked frame with sequence `seq`, if still outstanding.
    pub(crate) fn frame(&self, seq: u64) -> Option<&F> {
        self.outstanding.get(&seq).map(|o| &o.frame)
    }

    /// Drops every outstanding frame addressed to `dst`, cancelling its
    /// retransmission timers. Called when a peer is convicted, departs or
    /// crashes: nothing it will never ack should keep occupying timer
    /// slots (or generating wire traffic) for the rest of the run. Returns
    /// the number of frames cancelled.
    pub fn purge_peer(&mut self, dst: RouterId) -> usize {
        let before = self.outstanding.len();
        self.outstanding.retain(|_, o| o.dst != dst);
        before - self.outstanding.len()
    }

    /// Forgets the receive-side dedup history for `src`, so a restarted
    /// peer's fresh sequence space is not shadowed by its previous
    /// incarnation's entries.
    pub fn forget_peer_history(&mut self, src: RouterId) {
        self.seen.retain(|(s, _)| *s != src);
    }

    /// Advances every frame due at `now_ns`: a frame that has used its
    /// attempt budget is exhausted and dropped; any other is counted as
    /// retransmitted and rescheduled one backoff later.
    pub fn pump(&mut self, now_ns: u64) -> Pumped<'_, F> {
        let max_attempts = self.policy.max_attempts;
        let spent: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.next_retry_ns <= now_ns && o.attempts >= max_attempts)
            .map(|(&seq, _)| seq)
            .collect();
        let exhausted = spent
            .into_iter()
            .map(|seq| (seq, self.outstanding.remove(&seq).expect("just listed")))
            .collect();
        let policy = &self.policy;
        let resend = self
            .outstanding
            .iter_mut()
            .filter(|(_, o)| o.next_retry_ns <= now_ns)
            .map(|(&seq, o)| {
                o.attempts += 1;
                o.next_retry_ns = retry_at(policy, now_ns, o.attempts);
                (seq, o.dst, &o.frame)
            })
            .collect();
        Pumped { resend, exhausted }
    }
}

/// The retry deadline after `attempts` transmissions at `now_ns`.
fn retry_at(policy: &RetryPolicy, now_ns: u64, attempts: u32) -> u64 {
    let wait = policy.backoff(attempts).as_nanos();
    now_ns.saturating_add(u64::try_from(wait).unwrap_or(u64::MAX))
}

/// Tuning knobs for the simulator's reliable transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Retransmission policy: 50 ms initial timeout, 5 s ceiling and 6
    /// attempts by default.
    pub retry: RetryPolicy,
    /// Wire size of a data-bearing control message, bytes.
    pub msg_size: u32,
    /// Wire size of an acknowledgment, bytes.
    pub ack_size: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy {
                rto: Duration::from_millis(50),
                max_backoff: Duration::from_secs(5),
                max_attempts: 6,
            },
            msg_size: 256,
            ack_size: 64,
        }
    }
}

/// A message handed up to the receiving protocol exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportMsg {
    /// Transport-level message id.
    pub msg: u64,
    /// Originating router.
    pub from: RouterId,
    /// Receiving router.
    pub to: RouterId,
    /// The application payload.
    pub payload: Vec<u8>,
    /// Delivery time of the first intact copy.
    pub at: SimTime,
}

/// Sender-side lifecycle notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// The peer acknowledged the message.
    Delivered {
        /// Message id.
        msg: u64,
        /// Sender.
        src: RouterId,
        /// Receiver.
        dst: RouterId,
        /// Time the acknowledgment arrived back.
        at: SimTime,
        /// Transmission attempts used (1 = no retransmission needed).
        attempts: u32,
    },
    /// The retry budget ran out with no acknowledgment. The protocols
    /// above treat this as evidence against the path to the peer
    /// (timeout-as-accusation, §4.2.2's strong completeness under an
    /// eventually-quiescent fault environment).
    Exhausted {
        /// Message id.
        msg: u64,
        /// Sender.
        src: RouterId,
        /// Receiver that never acknowledged.
        dst: RouterId,
        /// Attempts made (equals `max_attempts`).
        attempts: u32,
        /// Time the budget was exhausted.
        at: SimTime,
    },
}

/// What the simulator tracks per message: one transport serves every
/// router, so the sender rides along with the payload.
#[derive(Debug)]
struct SimMsg {
    src: RouterId,
    payload: Vec<u8>,
}

/// Ack/retransmit reliable delivery over [`Network::send_control`]: a
/// [`RetryMachine`] driven under the simulator's virtual time.
#[derive(Debug)]
pub struct ReliableTransport {
    msg_size: u32,
    ack_size: u32,
    next_msg: u64,
    machine: RetryMachine<SimMsg>,
    inbox: Vec<TransportMsg>,
    events: Vec<TransportEvent>,
}

impl ReliableTransport {
    /// Creates a transport with the given configuration.
    pub fn new(config: TransportConfig) -> Self {
        Self {
            msg_size: config.msg_size,
            ack_size: config.ack_size,
            next_msg: 0,
            machine: RetryMachine::new(config.retry),
            inbox: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Sends `payload` from `from` to `to`, returning the message id. The
    /// first copy goes on the wire immediately; [`pump`](Self::pump)
    /// drives retransmission until acknowledgment or exhaustion.
    pub fn send(
        &mut self,
        net: &mut Network,
        from: RouterId,
        to: RouterId,
        payload: Vec<u8>,
    ) -> u64 {
        let msg = self.next_msg;
        assert!(msg & ACK_BIT == 0, "message id space exhausted");
        self.next_msg += 1;
        net.send_control(from, to, self.msg_size, msg);
        let entry = SimMsg { src: from, payload };
        self.machine.track(msg, to, entry, net.now().as_ns());
        msg
    }

    /// Processes every control delivery since the last call and fires any
    /// due retransmissions. Call after each `run_until` slice.
    pub fn pump(&mut self, net: &mut Network) {
        for d in net.take_control_deliveries() {
            if !d.intact {
                // Corrupted in flight: drop silently, the sender's timer
                // will supply a fresh copy.
                continue;
            }
            if d.seq & ACK_BIT != 0 {
                let msg = d.seq & !ACK_BIT;
                // `d.from` is the acknowledging peer; the outstanding
                // entry lives at the original sender (`d.to`).
                if let Some(out) = self.machine.ack(msg, d.from) {
                    self.events.push(TransportEvent::Delivered {
                        msg,
                        src: out.frame.src,
                        dst: out.dst,
                        at: d.at,
                        attempts: out.attempts,
                    });
                }
                continue;
            }
            let msg = d.seq;
            // Always (re-)acknowledge: the previous ack may have been
            // lost, and acks are idempotent.
            net.send_control(d.to, d.from, self.ack_size, ACK_BIT | msg);
            if !self.machine.accept(d.from, msg) {
                continue; // duplicate — already handed up
            }
            let payload = self
                .machine
                .frame(msg)
                .map(|m| m.payload.clone())
                .unwrap_or_default();
            self.inbox.push(TransportMsg {
                msg,
                from: d.from,
                to: d.to,
                payload,
                at: d.at,
            });
        }

        let now = net.now();
        let Pumped { resend, exhausted } = self.machine.pump(now.as_ns());
        for (msg, dst, m) in resend {
            net.send_control(m.src, dst, self.msg_size, msg);
        }
        for (msg, o) in exhausted {
            self.events.push(TransportEvent::Exhausted {
                msg,
                src: o.frame.src,
                dst: o.dst,
                attempts: o.attempts,
                at: now,
            });
        }
    }

    /// Messages delivered (exactly once each) since the last call.
    pub fn take_inbox(&mut self) -> Vec<TransportMsg> {
        std::mem::take(&mut self.inbox)
    }

    /// Sender-side events (delivered / exhausted) since the last call.
    pub fn take_events(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_sim::{FaultPlan, LinkFaults};
    use fatih_topology::builtin;

    fn rid(v: u32) -> RouterId {
        RouterId::from(v)
    }

    fn at_ms(n: u64) -> u64 {
        n * 1_000_000
    }

    #[test]
    fn backoff_doubles_caps_and_never_overflows() {
        let policy = |rto, max_backoff| RetryPolicy {
            rto,
            max_backoff,
            max_attempts: 100,
        };
        let ms = Duration::from_millis;
        let cases = [
            // (policy, attempts, expected delay)
            (policy(ms(10), ms(45)), 1, ms(10)),
            (policy(ms(10), ms(45)), 2, ms(20)),
            (policy(ms(10), ms(45)), 3, ms(40)),
            (policy(ms(10), ms(45)), 4, ms(45)),
            (policy(ms(100), ms(450)), 3, ms(400)),
            (policy(ms(100), ms(450)), 40, ms(450)),
            // The shift clamp and the saturating multiply: no attempt
            // count (and no absurd rto) overflows the delay.
            (policy(ms(10), ms(45)), 31, ms(45)),
            (policy(ms(10), ms(45)), 32, ms(45)),
            (policy(ms(10), ms(45)), 33, ms(45)),
            (policy(ms(10), ms(45)), 64, ms(45)),
            (policy(ms(10), ms(45)), u32::MAX, ms(45)),
            (
                policy(Duration::from_secs(400_000), ms(30_000)),
                1,
                ms(30_000),
            ),
            (
                policy(Duration::from_secs(400_000), ms(30_000)),
                17,
                ms(30_000),
            ),
            (
                policy(Duration::from_secs(400_000), ms(30_000)),
                u32::MAX,
                ms(30_000),
            ),
        ];
        for (p, attempts, want) in cases {
            assert_eq!(p.backoff(attempts), want, "{p:?} after {attempts}");
        }
    }

    #[test]
    fn ack_stops_retransmission() {
        let mut m = RetryMachine::new(RetryPolicy::default());
        m.track(7, rid(1), b"frame".to_vec(), 0);
        assert!(m.ack(7, rid(1)).is_some());
        assert!(m.ack(7, rid(1)).is_none(), "second ack is stale");
        let p = m.pump(u64::MAX);
        assert!(p.resend.is_empty() && p.exhausted.is_empty());
    }

    #[test]
    fn only_the_destination_can_ack() {
        // A frame tracked to B and acked by C stays outstanding and is
        // retransmitted at the next pump; acked by B, it is not.
        let (b, c) = (rid(1), rid(2));
        let mut m = RetryMachine::new(RetryPolicy::default());
        m.track(7, b, b"summary".to_vec(), 0);
        assert!(m.ack(7, c).is_none(), "a third party's ack cancels nothing");
        let p = m.pump(at_ms(25));
        assert_eq!(p.resend, vec![(7, b, &b"summary".to_vec())]);
        assert_eq!(m.ack(7, b).map(|o| o.attempts), Some(2));
        let p = m.pump(u64::MAX);
        assert!(p.resend.is_empty() && p.exhausted.is_empty());
    }

    #[test]
    fn dead_peer_exhausts_after_max_attempts() {
        let mut m = RetryMachine::new(RetryPolicy {
            rto: Duration::from_millis(10),
            max_backoff: Duration::from_millis(20),
            max_attempts: 4,
        });
        m.track(1, rid(2), b"m".to_vec(), 0);
        let mut resent = 0;
        let mut exhausted = Vec::new();
        for step in 1..=20 {
            let p = m.pump(at_ms(10 * step)); // 10 ms steps
            resent += p.resend.len();
            exhausted.extend(
                p.exhausted
                    .into_iter()
                    .map(|(seq, o)| (seq, o.dst, o.attempts)),
            );
        }
        // Attempts 2, 3, 4 are retransmissions; the 5th due pump exhausts.
        assert_eq!(resent, 3);
        assert_eq!(exhausted, vec![(1, rid(2), 4)]);
        assert!(m.frame(1).is_none(), "exhausted frames leave tracking");
    }

    #[test]
    fn each_frame_retries_on_its_own_deadline_in_sequence_order() {
        let mut m = RetryMachine::new(RetryPolicy {
            rto: Duration::from_millis(10),
            ..RetryPolicy::default()
        });
        m.track(3, rid(1), vec![3], at_ms(5));
        m.track(2, rid(1), vec![2], 0);
        m.track(1, rid(1), vec![1], 0);
        fn seqs(p: Pumped<'_, Vec<u8>>) -> Vec<u64> {
            p.resend.iter().map(|r| r.0).collect()
        }
        assert_eq!(seqs(m.pump(at_ms(9))), Vec::<u64>::new());
        assert_eq!(seqs(m.pump(at_ms(10))), vec![1, 2]);
        assert_eq!(seqs(m.pump(at_ms(15))), vec![3]);
    }

    #[test]
    fn duplicate_suppression_by_source_and_seq() {
        let mut m = RetryMachine::<Vec<u8>>::new(RetryPolicy::default());
        assert!(m.accept(rid(1), 5));
        assert!(!m.accept(rid(1), 5));
        assert!(m.accept(rid(2), 5), "same seq, different source");
        assert!(m.accept(rid(1), 6));
    }

    #[test]
    fn purge_peer_cancels_outstanding_frames_and_timers() {
        let mut m = RetryMachine::new(RetryPolicy::default());
        m.track(1, rid(2), b"a".to_vec(), 0);
        m.track(2, rid(2), b"b".to_vec(), 0);
        m.track(3, rid(3), b"c".to_vec(), 0);
        assert_eq!(m.purge_peer(rid(2)), 2);
        assert_eq!(m.purge_peer(rid(2)), 0, "idempotent");
        // Only the surviving peer's frame is ever retransmitted; the
        // purged frames can neither retransmit nor exhaust.
        let p = m.pump(u64::MAX / 2);
        assert!(p.exhausted.is_empty());
        assert_eq!(p.resend, vec![(3, rid(3), &b"c".to_vec())]);
    }

    #[test]
    fn forget_peer_history_reopens_dedup_space() {
        let mut m = RetryMachine::<Vec<u8>>::new(RetryPolicy::default());
        assert!(m.accept(rid(1), 5));
        assert!(m.accept(rid(2), 5));
        m.forget_peer_history(rid(1));
        assert!(m.accept(rid(1), 5), "restarted peer reuses its seq");
        assert!(!m.accept(rid(2), 5), "other peers' history kept");
    }

    fn net_line(n: usize) -> (Network, Vec<RouterId>) {
        let topo = builtin::line(n);
        let ids: Vec<RouterId> = (0..n)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        (Network::new(topo, 9), ids)
    }

    /// Runs the simulation for `secs`, pumping the transport every 10 ms
    /// so acks and retransmissions interleave with traffic.
    fn drive(t: &mut ReliableTransport, net: &mut Network, secs: u64) {
        let until = net.now() + SimTime::from_secs(secs);
        while net.now() < until {
            let slice = (net.now() + SimTime::from_ms(10)).min(until);
            net.run_until(slice, |_| {});
            t.pump(net);
        }
    }

    /// Asserts every message in `sent` resolved in exactly one
    /// `Delivered` or `Exhausted` event, and nothing else resolved.
    fn assert_each_resolved_once(events: &[TransportEvent], sent: &[u64]) {
        let mut resolved: Vec<u64> = events
            .iter()
            .map(|e| match *e {
                TransportEvent::Delivered { msg, .. } | TransportEvent::Exhausted { msg, .. } => {
                    msg
                }
            })
            .collect();
        resolved.sort_unstable();
        assert_eq!(resolved, sent, "{events:?}");
    }

    fn retrying(max_attempts: u32) -> TransportConfig {
        let mut cfg = TransportConfig::default();
        cfg.retry.max_attempts = max_attempts;
        cfg
    }

    #[test]
    fn clean_network_delivers_first_try() {
        let (mut net, ids) = net_line(4);
        let mut t = ReliableTransport::new(TransportConfig::default());
        let msg = t.send(&mut net, ids[0], ids[3], b"summary".to_vec());
        drive(&mut t, &mut net, 1);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].msg, msg);
        assert_eq!(inbox[0].from, ids[0]);
        assert_eq!(inbox[0].payload, b"summary");
        let events = t.take_events();
        assert!(
            matches!(events[..], [TransportEvent::Delivered { attempts: 1, .. }]),
            "{events:?}"
        );
        assert_each_resolved_once(&events, &[msg]);
    }

    #[test]
    fn heavy_loss_recovered_by_retransmission() {
        let (mut net, ids) = net_line(3);
        // Loss on the forward path only; the ack path stays clean so
        // every message can eventually confirm.
        let lossy = LinkFaults {
            loss: 0.4,
            ..LinkFaults::NONE
        };
        net.set_fault_plan(Some(
            FaultPlan::new(5)
                .with_link_faults(ids[0], ids[1], lossy)
                .with_link_faults(ids[1], ids[2], lossy),
        ));
        let mut t = ReliableTransport::new(retrying(10));
        let sent: Vec<u64> = (0..20u8)
            .map(|i| t.send(&mut net, ids[0], ids[2], vec![i]))
            .collect();
        drive(&mut t, &mut net, 60);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 20, "all messages delivered despite loss");
        let events = t.take_events();
        let delivered = events
            .iter()
            .filter(|e| matches!(e, TransportEvent::Delivered { .. }))
            .count();
        assert_eq!(delivered, 20);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::Delivered { attempts, .. } if *attempts > 1)),
            "40% loss per link should force at least one retransmission"
        );
        assert_each_resolved_once(&events, &sent);
    }

    #[test]
    fn lost_acks_cause_retries_but_not_duplicate_delivery() {
        let (mut net, ids) = net_line(3);
        // Loss on the *return* path only: data always arrives, acks
        // frequently die, so the sender retransmits already-delivered
        // messages — the receiver must hand each up exactly once.
        let lossy = LinkFaults {
            loss: 0.5,
            ..LinkFaults::NONE
        };
        net.set_fault_plan(Some(
            FaultPlan::new(8)
                .with_link_faults(ids[2], ids[1], lossy)
                .with_link_faults(ids[1], ids[0], lossy),
        ));
        let mut t = ReliableTransport::new(retrying(10));
        let sent: Vec<u64> = (0..15u8)
            .map(|i| t.send(&mut net, ids[0], ids[2], vec![i]))
            .collect();
        drive(&mut t, &mut net, 120);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 15, "exactly-once delivery despite retries");
        let events = t.take_events();
        assert_each_resolved_once(&events, &sent);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::Delivered { attempts, .. } if *attempts > 1)),
            "lost acks should force data retransmission"
        );
    }

    #[test]
    fn duplication_suppressed_to_exactly_once() {
        let (mut net, ids) = net_line(3);
        net.set_fault_plan(Some(FaultPlan::new(7).with_default_link_faults(
            LinkFaults {
                duplicate: 0.9,
                ..LinkFaults::NONE
            },
        )));
        let mut t = ReliableTransport::new(TransportConfig::default());
        let sent: Vec<u64> = (0..10u8)
            .map(|i| t.send(&mut net, ids[0], ids[2], vec![i]))
            .collect();
        drive(&mut t, &mut net, 10);
        assert!(
            net.ground_truth().fault_duplicated > 0,
            "the plan should actually duplicate"
        );
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 10, "duplicates must be suppressed");
        assert_each_resolved_once(&t.take_events(), &sent);
    }

    #[test]
    fn corruption_recovered_with_intact_copy() {
        let (mut net, ids) = net_line(3);
        let noisy = LinkFaults {
            corrupt: 0.3,
            ..LinkFaults::NONE
        };
        net.set_fault_plan(Some(
            FaultPlan::new(11)
                .with_link_faults(ids[0], ids[1], noisy)
                .with_link_faults(ids[1], ids[2], noisy),
        ));
        let mut t = ReliableTransport::new(retrying(10));
        let sent: Vec<u64> = (0..10u8)
            .map(|i| t.send(&mut net, ids[0], ids[2], vec![i]))
            .collect();
        drive(&mut t, &mut net, 60);
        assert!(net.ground_truth().fault_corrupted > 0);
        assert_eq!(t.take_inbox().len(), 10);
        assert_each_resolved_once(&t.take_events(), &sent);
    }

    #[test]
    fn dead_link_exhausts_retry_budget() {
        let (mut net, ids) = net_line(2);
        // Link down for the whole run.
        net.set_fault_plan(Some(FaultPlan::new(1).with_link_flap(
            ids[0],
            ids[1],
            SimTime::ZERO,
            SimTime::from_secs(3600),
        )));
        let cfg = TransportConfig::default();
        let mut t = ReliableTransport::new(cfg);
        let msg = t.send(&mut net, ids[0], ids[1], b"alert".to_vec());
        drive(&mut t, &mut net, 60);
        let events = t.take_events();
        assert!(
            matches!(
                events[..],
                [TransportEvent::Exhausted { msg: m, attempts, .. }]
                    if m == msg && attempts == cfg.retry.max_attempts
            ),
            "{events:?}"
        );
        assert!(t.take_inbox().is_empty());
        assert_each_resolved_once(&events, &[msg]);
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let (mut net, ids) = net_line(2);
        net.set_fault_plan(Some(FaultPlan::new(1).with_link_flap(
            ids[0],
            ids[1],
            SimTime::ZERO,
            SimTime::from_secs(3600),
        )));
        let mut cfg = TransportConfig::default();
        cfg.retry.rto = Duration::from_millis(100);
        cfg.retry.max_attempts = 4;
        let mut t = ReliableTransport::new(cfg);
        t.send(&mut net, ids[0], ids[1], vec![]);
        drive(&mut t, &mut net, 60);
        let events = t.take_events();
        // Attempts at t=0, 100 ms, 300 ms, 700 ms; exhausted at 1500 ms
        // (modulo the 10 ms pump granularity).
        match events[..] {
            [TransportEvent::Exhausted { at, attempts, .. }] => {
                assert_eq!(attempts, 4);
                assert!(
                    at >= SimTime::from_ms(1500) && at <= SimTime::from_ms(1600),
                    "exhaustion at {at}"
                );
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn capped_backoff_keeps_retrying_on_dead_link() {
        // With a low ceiling, a big retry budget completes in bounded time
        // instead of stretching exponentially (8 retries at ≤200 ms each).
        let (mut net, ids) = net_line(2);
        net.set_fault_plan(Some(FaultPlan::new(1).with_link_flap(
            ids[0],
            ids[1],
            SimTime::ZERO,
            SimTime::from_secs(3600),
        )));
        let cfg = TransportConfig {
            retry: RetryPolicy {
                rto: Duration::from_millis(100),
                max_backoff: Duration::from_millis(200),
                max_attempts: 9,
            },
            ..TransportConfig::default()
        };
        let mut t = ReliableTransport::new(cfg);
        t.send(&mut net, ids[0], ids[1], vec![]);
        drive(&mut t, &mut net, 10);
        let events = t.take_events();
        match events[..] {
            [TransportEvent::Exhausted { at, attempts, .. }] => {
                assert_eq!(attempts, 9);
                // Final attempt at 100 + 200·7 = 1500 ms, exhaustion one
                // capped backoff later (modulo pump slices); uncapped
                // doubling would have needed 25.5 s.
                assert!(
                    at <= SimTime::from_ms(1800),
                    "cap not applied: exhausted at {at}"
                );
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crash_window_delays_but_does_not_lose_messages() {
        let (mut net, ids) = net_line(3);
        // The middle router is down for the first 200 ms; retransmission
        // rides out the outage.
        net.set_fault_plan(Some(FaultPlan::new(2).with_crash(
            ids[1],
            SimTime::ZERO,
            SimTime::from_ms(200),
        )));
        let mut t = ReliableTransport::new(TransportConfig::default());
        t.send(&mut net, ids[0], ids[2], b"through".to_vec());
        drive(&mut t, &mut net, 10);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 1);
        assert!(inbox[0].at >= SimTime::from_ms(200), "{:?}", inbox[0].at);
        assert!(matches!(
            t.take_events()[..],
            [TransportEvent::Delivered { attempts, .. }] if attempts > 1
        ));
    }
}
