//! Sample statistics: nearest-rank percentiles, quartiles, and the rule for
//! the highest percentile a sample count can support.

/// Nearest-rank percentile of `samples` (`p` in 0–100); panics on an empty
/// slice. The harness crate's own, pinned by the tests below.
pub use mcr_bench::percentile_of as percentile;

/// Median and quartiles (nearest rank) of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        Summary {
            n: samples.len(),
            q1: percentile(samples, 25.0),
            median: percentile(samples, 50.0),
            q3: percentile(samples, 75.0),
        }
    }

    /// A value measured once (a count, or a figure with no spread).
    pub fn single(value: f64) -> Self {
        Summary { n: 1, q1: value, median: value, q3: value }
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The percentiles a tail may be reported at, ascending.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten samples beyond
/// it; the median when even p90 does not.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER.iter().copied().filter(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9).fold(LADDER[0], f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.9), 999.0);
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.q1, s.median, s.q3), (8, 2.0, 4.0, 6.0));
        assert_eq!(s.iqr(), 4.0);
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(30), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(400), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(2000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }
}
