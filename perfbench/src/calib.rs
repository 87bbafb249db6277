//! Host-speed calibration: a fixed reference computation, timed between
//! batches, that the end-to-end timings are scaled by.
//!
//! On a shared host the speed available to one process drifts by up to
//! about 2x over minutes (co-tenants on the same cores, caches and memory),
//! so wall-clock rates of the same code spread far beyond any useful
//! regression bound. The reference computation here is frozen: it calls
//! nothing from the crates under test, so no change to them can move it.
//! Timed right before and after each batch, it measures how fast the host
//! ran during the run, and `rate × slot / REF_SLOT_S` (medians over the
//! run) expresses the run's rate at the reference speed, the speed at
//! which one slot takes [`REF_SLOT_S`]. A change to the program moves the
//! scaled value exactly as it moves the raw one; host drift from run to
//! run moves both slot and rate and largely cancels. Medians, not
//! per-batch products: one slot is short enough to carry sub-second host
//! noise that a whole batch averages out.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration slot takes at the reference host speed. A
/// fixed nominal value: it sets the scale of the reported numbers, not
/// their spread.
pub const REF_SLOT_S: f64 = 0.25;

/// The scratch table: 16 MiB, larger than a core's private caches.
const TABLE_WORDS: usize = 2 << 20;
/// Prefixes of the table that fit a core's L1 and L2 data caches.
const L1_WORDS: usize = 1 << 11;
const L2_WORDS: usize = 1 << 16;

/// The reference computation and its scratch table.
pub struct Calib {
    table: Vec<u64>,
}

/// splitmix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Calib {
    /// Allocates and fills the table (untimed).
    pub fn new() -> Calib {
        Calib {
            table: (0..TABLE_WORDS as u64).map(mix).collect(),
        }
    }

    /// Dependent random loads and stores over the first `words` (a power
    /// of two) of the table.
    fn walk(&mut self, words: usize, steps: usize) {
        let mask = words - 1;
        let mut z = 7u64;
        for _ in 0..steps {
            z = mix(z);
            let i = (z as usize) & mask;
            let v = self.table[i];
            self.table[i] = v.wrapping_add(z);
            z ^= self.table[(v as usize) & mask];
        }
        black_box(z);
    }

    /// Runs one slot and returns its seconds. A slot mixes, in about
    /// equal time, the kinds of work the simulator and the explorer do and
    /// that a co-tenant on the same core slows: branchy integer
    /// arithmetic, dependent loads and stores that hit in L1, in L2 and in
    /// memory, and small allocations in an ordered map.
    pub fn slot(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut z = 1u64;
        let mut acc = 0u64;
        for i in 0..5_500_000u64 {
            z = mix(z ^ i);
            if z & 3 == 0 {
                acc = acc.wrapping_add(z >> 7);
            } else {
                acc ^= z.rotate_left((z & 31) as u32);
            }
        }
        black_box(acc);
        self.walk(L1_WORDS, 3_000_000);
        self.walk(L2_WORDS, 2_000_000);
        self.walk(TABLE_WORDS, 160_000);
        let mut z = 11u64;
        let mut map = BTreeMap::new();
        for i in 0..240_000u64 {
            z = mix(z);
            map.insert(z & 0xfff, (0..(z & 63)).collect::<Vec<u64>>());
            if i % 3 == 0 {
                map.remove(&(mix(z) & 0xfff));
            }
        }
        black_box(map.len());
        t0.elapsed().as_secs_f64()
    }
}

/// The factor that scales a time measured while slots took `slot_s` to
/// the reference speed (rates are multiplied by its inverse).
pub fn to_ref(slot_s: f64) -> f64 {
    REF_SLOT_S / slot_s
}
