//! The benchmark's one random source: a seeded xorshift64*. `--seed` feeds
//! it; the servers only ever see the requests generated from it.

/// Seeded xorshift64* generator.
pub struct XorShift(u64);

impl XorShift {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (session order, request mix, write stamps).
    pub fn new(seed: u64, stream: u64) -> Self {
        // splitmix64 finalizer: spreads small seeds and never yields the
        // all-zero state xorshift cannot leave.
        let mut z =
            seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-enough value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| 0).scan(XorShift::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).map(|_| 0).scan(XorShift::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).map(|_| 0).scan(XorShift::new(7, 2), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(XorShift::new(0, 0).next_u64(), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        XorShift::new(3, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
