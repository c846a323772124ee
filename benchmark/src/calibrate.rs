//! Host-speed calibration. On a shared host the same memory-bound user code
//! runs tens of percent faster or slower from one second to the next (see
//! README, "Steadiness"), so a bare wall-clock reading says as much about the
//! neighbours as about the code. The harness therefore times a fixed loop of
//! its own immediately before and after every measured section and reports
//! the section's wall scaled to the speed at which that loop takes its
//! nominal time. The loop lives here, in the benchmark, so no change to the
//! measured crates can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds one [`Calibrator::reading`] takes at nominal speed: what
/// it took on the 2-vCPU guest this was written on when the host was quiet,
/// so scaled and raw walls read alike there.
pub const NOMINAL_READING_NS: f64 = 10e6;

/// Passes of the three kernels per reading. A reading is the median pass
/// times this count, so one pass the host interrupts does not spoil it; more
/// passes bought no steadier results.
const PASSES: usize = 3;
/// 16 MiB: past every cache level, like the simulated address spaces.
const WORDS: usize = 1 << 21;
const RANDOM_STORES: u64 = 60_000;
const MAP_INSERTS: u64 = 6_000;
const COPY_WORDS: usize = 1 << 19;

/// The reference loop: random read-modify-writes across 16 MiB (cache and
/// TLB misses), a `BTreeMap` of small heap blocks built and walked (the
/// simulator's own data-structure mix), and a 4 MiB copy (bandwidth).
pub struct Calibrator {
    words: Vec<u64>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator { words: vec![1; WORDS], state: 0x9e37_79b9_7f4a_7c15 }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn pass(&mut self) {
        let mut acc = 0u64;
        for i in 0..RANDOM_STORES {
            let at = self.next() as usize & (WORDS - 1);
            self.words[at] = self.words[at].wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            acc ^= self.words[at];
        }
        let mut map = BTreeMap::new();
        for i in 0..MAP_INSERTS {
            map.insert(self.next() % 100_000, vec![i as u8; 64]);
        }
        acc += map.iter().map(|(key, block)| key + block.len() as u64).sum::<u64>();
        let (from, to) = self.words.split_at_mut(COPY_WORDS);
        to[..COPY_WORDS].copy_from_slice(from);
        black_box(acc ^ to[7]);
    }

    /// Host nanoseconds the reference loop takes right now.
    pub fn reading(&mut self) -> f64 {
        let mut passes = [0.0; PASSES];
        for nanos in &mut passes {
            let start = Instant::now();
            self.pass();
            *nanos = start.elapsed().as_nanos() as f64;
        }
        passes.sort_by(f64::total_cmp);
        passes[PASSES / 2] * PASSES as f64
    }
}

/// The factor that scales a host wall measured between two readings to
/// nominal speed: below 1 while the host is slow.
pub fn to_nominal(before: f64, after: f64) -> f64 {
    NOMINAL_READING_NS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_walls_down() {
        assert_eq!(to_nominal(NOMINAL_READING_NS, NOMINAL_READING_NS), 1.0);
        assert_eq!(to_nominal(2.0 * NOMINAL_READING_NS, 2.0 * NOMINAL_READING_NS), 0.5);
        assert_eq!(to_nominal(0.5 * NOMINAL_READING_NS, 1.5 * NOMINAL_READING_NS), 1.0);
    }

    #[test]
    fn a_reading_takes_time() {
        assert!(Calibrator::new().reading() > 0.0);
    }
}
