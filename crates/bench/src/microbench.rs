//! Nearest-rank percentiles over host-time samples, shared by
//! `benches/fleet_latency.rs` and `benchmark/src/stats.rs`.

/// Nearest-rank percentile over an unsorted slice (`p` in 0–100): the
/// smallest sample such that at least `p`% of all samples are ≤ it. Exact
/// for tail percentiles over large sample sets (a latency harness records
/// one sample per request), and `p = 50` matches a conventional median for
/// odd counts.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    // The epsilon absorbs binary-float noise in p/100 * n (e.g. 0.999 * 1000
    // = 999.0000000000001, which would otherwise ceil to the wrong rank).
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(percentile_of(&samples, 50.0), 500.0);
        assert_eq!(percentile_of(&samples, 99.0), 990.0);
        assert_eq!(percentile_of(&samples, 99.9), 999.0);
        assert_eq!(percentile_of(&samples, 100.0), 1000.0);
        assert_eq!(percentile_of(&samples, 0.0), 1.0);
        assert_eq!(percentile_of(&[7.0], 50.0), 7.0);
        assert_eq!(percentile_of(&[7.0], 99.9), 7.0);
    }
}
