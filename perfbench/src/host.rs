//! Host speed calibration.
//!
//! The benchmark runs on a few cores of a shared host, where co-tenants
//! slow every program by up to 1.8×, in phases lasting from a second to
//! minutes. A timing read raw then mostly measures the phase the run
//! happened to fall in.
//!
//! [`Calibration::factor`] times two fixed reference kernels and
//! returns how much slower than on the reference host they ran (the
//! geometric mean of the two ratios):
//!
//! * lookups in a small ordered map and a sort, cache-resident, like
//!   the simulator's rounds;
//! * lookups in a 1M-entry hash map (about 34 MB), memory-resident,
//!   like the auditor's search memo.
//!
//! The kernels are part of the benchmark, not of the program, so a
//! change to the program never moves them; dividing a timing taken
//! next to them by the factor cancels most of the host's phase and
//! leaves the program's own cost. They allocate nothing while timed:
//! the allocator's state is the program's (a freed audit memo is
//! consolidated at the next large allocation), and a kernel that
//! allocated would be charged for it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Each kernel's time, in seconds, on the reference host: its median
/// between scenarios on the 2-vCPU x86-64 VM of the README's
/// measurements. They only anchor the unit: a normalized timing reads
/// as seconds on a host where the kernels take this long.
pub const REFERENCE_S: [f64; 2] = [0.0030, 0.0055];

/// Entries of the ordered map.
const ENTRIES: u64 = 12_000;
/// Ordered-map lookups per run, and the length of the sorted buffer.
const LOOKUPS: usize = 24_000;
/// Entries of the hash map.
const HASHED: u64 = 1 << 20;
/// Hash-map lookups per run.
const HASHED_LOOKUPS: u64 = 40_000;

/// A hash map with fixed keys, so every process lays it out alike.
type FixedHashMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The kernels' inputs, built once.
pub struct Calibration {
    map: BTreeMap<u64, u64>,
    keys: Vec<u64>,
    buf: Vec<u64>,
    hashed: FixedHashMap,
    /// Where the hash-map lookups resume: each run reads other entries.
    next: u64,
}

/// Step of a xorshift64 stream.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The `i`-th key of the hash map.
fn hashed_key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Builds the kernels' inputs (about 36 MB).
    pub fn new() -> Self {
        let mut x = 99;
        let map = (0..ENTRIES)
            .map(|i| (xorshift(&mut x) % (4 * ENTRIES), i))
            .collect();
        let keys = (0..LOOKUPS)
            .map(|_| xorshift(&mut x) % (4 * ENTRIES))
            .collect();
        Calibration {
            map,
            keys,
            buf: vec![0; LOOKUPS],
            hashed: (0..HASHED).map(|i| (hashed_key(i), i)).collect(),
            next: 0,
        }
    }

    /// One run of each kernel, in seconds, in the order of
    /// [`REFERENCE_S`].
    pub fn kernel_secs(&mut self) -> [f64; 2] {
        let t = Instant::now();
        let mut sum = 0u64;
        for k in &self.keys {
            if let Some(v) = black_box(&self.map).get(k) {
                sum = sum.wrapping_add(*v);
            }
        }
        for (b, k) in self.buf.iter_mut().zip(&self.keys) {
            *b = k.wrapping_mul(2_654_435_761) ^ sum;
        }
        self.buf.sort_unstable();
        black_box((sum, &self.buf));
        let ordered = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..HASHED_LOOKUPS {
            self.next = self.next.wrapping_add(1);
            let i = self.next.wrapping_mul(0xD6E8_FEB8_6659_FD93) % HASHED;
            if let Some(v) = black_box(&self.hashed).get(&hashed_key(i)) {
                sum = sum.wrapping_add(*v);
            }
        }
        black_box(sum);
        [ordered, t.elapsed().as_secs_f64()]
    }

    /// How much slower than the reference host this host runs now.
    pub fn factor(&mut self) -> f64 {
        let [ordered, hashed] = self.kernel_secs();
        (ordered / REFERENCE_S[0] * hashed / REFERENCE_S[1]).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_run_and_hash_keys_resolve() {
        let mut cal = Calibration::new();
        assert_eq!(cal.hashed.len() as u64, HASHED);
        for _ in 0..3 {
            let f = cal.factor();
            assert!(f.is_finite() && f > 0.0, "{f}");
        }
        let i = 12_345;
        assert_eq!(cal.hashed.get(&hashed_key(i)), Some(&i));
    }
}
