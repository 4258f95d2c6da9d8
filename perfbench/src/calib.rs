//! Host-speed calibration for the CPU-bound in-memory metrics.
//!
//! On a shared host the same single-threaded work runs up to ~25% slower
//! for minutes at a time (measured on a 2-core VM: `validate_mem` rounds
//! of one seed took 145–245 ms within ten minutes, and the raw
//! `validate_pps` of ten 30 s runs spread 26% between quartiles). A fixed
//! kernel of this package's own code, built only from the standard
//! library's ordered map, hash map and sort — the structures the
//! validation path spends its time in — slows by nearly the same share.
//! `validate_mem` runs it before every round and scales its CPU-bound
//! figures to the speed at which the kernel takes [`REF_MS`]. No program
//! code runs in the kernel, so a change to the program moves the scaled
//! figures as much as the raw ones; the raw figure is printed alongside.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in ms, that the scaled figures are expressed at: about
/// the kernel's median time on the 2-core host this benchmark was sized
/// on, so scaled and raw figures are of the same size there.
pub const REF_MS: f64 = 9.0;

/// Items the kernel inserts, sorts and looks up.
const ITEMS: u64 = 20_000;

/// Runs the kernel once and returns its wall time in ms.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut ordered: BTreeMap<u64, u32> = BTreeMap::new();
    let mut hashed: HashMap<(u64, u32), u64> = HashMap::new();
    let mut sorted: Vec<u64> = Vec::with_capacity(ITEMS as usize);
    for j in 0..ITEMS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *ordered.entry(x >> 40).or_insert(0) += 1;
        hashed.insert((x, j as u32), j);
        sorted.push(x);
    }
    sorted.sort_unstable();
    let mut acc = 0u64;
    for (j, &v) in sorted.iter().enumerate() {
        acc = acc.wrapping_add(*hashed.get(&(v, j as u32)).unwrap_or(&1));
        acc ^= u64::from(*ordered.get(&(v >> 40)).unwrap_or(&0));
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a duration measured now to the reference
/// speed: below 1 when the host is running slow.
pub fn speed() -> f64 {
    REF_MS / kernel_ms()
}
