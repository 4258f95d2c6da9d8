//! A deadline-driven hashed timer wheel.
//!
//! Each shard's event loop multiplexes many timers — flow ticks, round
//! boundaries, evaluation deadlines, retransmit pumps — over one polling
//! sweep of its routers' transports. The wheel hashes each deadline into a
//! ring of slots of fixed granularity; deadlines beyond the ring's horizon
//! wait in an overflow map until the ring wraps around to them. Firing is
//! exact: an entry never fires before its deadline, however it is stored.
//!
//! Deadlines are `u64` nanoseconds on whatever monotonic axis the caller
//! uses (the runtime uses nanoseconds since its shared epoch).

use std::collections::BTreeMap;

/// Number of slots in the ring.
const SLOTS: usize = 64;
/// Slot width in nanoseconds (4ms; horizon = 64 × 4ms = 256ms).
const GRANULARITY_NS: u64 = 4_000_000;

/// A hashed timer wheel storing items of type `T` by deadline.
#[derive(Debug)]
pub struct TimerWheel<T> {
    slots: Vec<Vec<(u64, T)>>,
    /// Deadlines at or beyond the ring horizon, keyed by (deadline, tie).
    overflow: BTreeMap<(u64, u64), T>,
    tie: u64,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    pub fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            tie: 0,
            len: 0,
        }
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` to fire at `deadline_ns`. Entries in the same
    /// slot fire in deadline order; same-deadline entries in insertion
    /// order.
    pub fn schedule(&mut self, deadline_ns: u64, item: T) {
        self.len += 1;
        // Far deadlines would alias into a near slot after hashing; park
        // them in the overflow map. `migrate` moves them into the ring as
        // the horizon advances.
        let slot = (deadline_ns / GRANULARITY_NS) as usize % SLOTS;
        if deadline_ns >= self.horizon_floor() + (SLOTS as u64) * GRANULARITY_NS {
            self.overflow.insert((deadline_ns, self.tie), item);
            self.tie += 1;
        } else {
            self.slots[slot].push((deadline_ns, item));
        }
    }

    /// Lowest deadline currently storable in the ring without aliasing:
    /// approximated as the minimum scheduled ring deadline (or 0).
    fn horizon_floor(&self) -> u64 {
        self.slots
            .iter()
            .flat_map(|s| s.iter().map(|(d, _)| *d))
            .min()
            .unwrap_or(0)
    }

    /// Removes and returns every item whose deadline is ≤ `now_ns`, in
    /// deadline order.
    pub fn pop_due(&mut self, now_ns: u64) -> Vec<T> {
        let mut due: Vec<(u64, u64, T)> = Vec::new();
        for slot in &mut self.slots {
            let mut i = 0;
            while i < slot.len() {
                if slot[i].0 <= now_ns {
                    let (d, item) = slot.swap_remove(i);
                    due.push((d, 0, item));
                } else {
                    i += 1;
                }
            }
        }
        while let Some(entry) = self.overflow.first_key_value() {
            if entry.0 .0 > now_ns {
                break;
            }
            let ((d, tie), item) = self.overflow.pop_first().expect("non-empty");
            due.push((d, tie, item));
        }
        self.len -= due.len();
        due.sort_by_key(|(d, tie, _)| (*d, *tie));
        due.into_iter().map(|(_, _, item)| item).collect()
    }

    /// The earliest scheduled deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        let ring_min = self
            .slots
            .iter()
            .flat_map(|s| s.iter().map(|(d, _)| *d))
            .min();
        let overflow_min = self.overflow.keys().next().map(|(d, _)| *d);
        match (ring_min, overflow_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.schedule(30, "c");
        w.schedule(10, "a");
        w.schedule(20, "b");
        assert_eq!(w.next_deadline(), Some(10));
        assert_eq!(w.pop_due(25), vec!["a", "b"]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(25), Vec::<&str>::new());
        assert_eq!(w.pop_due(30), vec!["c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn never_fires_early() {
        let mut w = TimerWheel::new();
        w.schedule(1_000_000, "x");
        assert!(w.pop_due(999_999).is_empty());
        assert_eq!(w.pop_due(1_000_000), vec!["x"]);
    }

    #[test]
    fn far_deadlines_wait_in_overflow_and_fire_exactly() {
        let mut w = TimerWheel::new();
        // Far beyond the ring horizon (256ms): must not alias into an
        // earlier lap.
        let far = 10 * (SLOTS as u64) * GRANULARITY_NS + 123;
        w.schedule(far, "far");
        w.schedule(GRANULARITY_NS, "near");
        assert_eq!(w.next_deadline(), Some(GRANULARITY_NS));
        assert_eq!(w.pop_due(far - 1), vec!["near"]);
        assert_eq!(w.next_deadline(), Some(far));
        assert_eq!(w.pop_due(far), vec!["far"]);
    }

    #[test]
    fn interleaves_ring_and_overflow_in_order() {
        let mut w = TimerWheel::new();
        let far = 3 * (SLOTS as u64) * GRANULARITY_NS;
        w.schedule(far + 5, 2);
        w.schedule(1, 0);
        w.schedule(far + 1, 1);
        assert_eq!(w.pop_due(u64::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn many_entries_across_laps() {
        let mut w = TimerWheel::new();
        for i in 0..1000u64 {
            w.schedule(i * GRANULARITY_NS / 3, i);
        }
        assert_eq!(w.len(), 1000);
        let mut got = Vec::new();
        let mut now = 0;
        while !w.is_empty() {
            now += GRANULARITY_NS;
            got.extend(w.pop_due(now));
        }
        let expect: Vec<u64> = (0..1000).collect();
        assert_eq!(got, expect);
    }
}
