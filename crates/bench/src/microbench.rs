//! A tiny wall-clock micro-benchmark harness.
//!
//! The repository builds without network access, so the Criterion crate the
//! benches were originally written against is unavailable; this harness
//! covers what they need — warmup, a fixed sample count, and a median/min
//! summary — and prints one row per benchmark plus a JSON document, so the
//! `cargo bench` targets stay scriptable.

use std::time::Instant;

use crate::json::Json;

/// Timing summary of one benchmarked closure.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id (`group/name`).
    pub(crate) name: String,
    /// Every measured sample, in seconds.
    pub(crate) samples: Vec<f64>,
}

impl BenchResult {
    /// Median sample, in seconds.
    pub(crate) fn median(&self) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        sorted[sorted.len() / 2]
    }

    /// Fastest sample, in seconds.
    pub(crate) fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The `p`-th percentile (0–100) over the recorded samples, by the
    /// nearest-rank method: the smallest sample such that at least `p`% of
    /// all samples are ≤ it. Exact for tail percentiles over large sample
    /// sets (a latency harness records one sample per request), and
    /// `percentile(50)` matches a conventional median for odd counts.
    pub(crate) fn percentile(&self, p: f64) -> f64 {
        percentile_of(&self.samples, p)
    }

    /// Median (p50) by nearest rank.
    pub(crate) fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 99th percentile by nearest rank.
    pub(crate) fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile by nearest rank.
    pub(crate) fn p999(&self) -> f64 {
        self.percentile(99.9)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("median_s", Json::Num(self.median())),
            ("min_s", Json::Num(self.min())),
            ("p50_s", Json::Num(self.p50())),
            ("p99_s", Json::Num(self.p99())),
            ("p999_s", Json::Num(self.p999())),
            ("samples", Json::Num(self.samples.len() as f64)),
        ])
    }
}

/// Nearest-rank percentile over an unsorted slice (`p` in 0–100).
///
/// Shared by [`BenchResult`] and benches that compute percentiles over
/// sample sets they never wrap in a result (e.g. per-phase request
/// latencies in `benches/fleet_latency.rs`).
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    // The epsilon absorbs binary-float noise in p/100 * n (e.g. 0.999 * 1000
    // = 999.0000000000001, which would otherwise ceil to the wrong rank).
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs a named group of micro-benchmarks and reports the results.
pub struct BenchGroup {
    group: String,
    warmup: usize,
    samples: usize,
    results: Vec<BenchResult>,
}

impl BenchGroup {
    /// Creates a group with the default 2 warmup and 10 measured iterations.
    pub fn new(group: impl Into<String>) -> Self {
        BenchGroup { group: group.into(), warmup: 2, samples: 10, results: Vec::new() }
    }

    /// Records externally measured samples under `name` — for experiments
    /// whose metric is not the closure's wall time (simulated makespans,
    /// per-phase host nanoseconds measured inside a pipeline run, ...). The
    /// samples flow into the same median/min reporting and JSON document as
    /// [`BenchGroup::bench`] results, which is what lets CI smoke thresholds
    /// compare medians of repeated iterations instead of single noisy runs.
    pub fn record(&mut self, name: impl Into<String>, samples: Vec<f64>) -> BenchResult {
        let name = format!("{}/{}", self.group, name.into());
        assert!(!samples.is_empty(), "record needs at least one sample");
        let result = BenchResult { name, samples };
        eprintln!(
            "{:<48} median {:>10.3} ms   min {:>10.3} ms   ({} samples)",
            result.name,
            result.median() * 1e3,
            result.min() * 1e3,
            result.samples.len()
        );
        self.results.push(result.clone());
        result
    }

    /// Times `f`, keeping its result alive so the work is not optimized out.
    pub fn bench<T>(&mut self, name: impl Into<String>, mut f: impl FnMut() -> T) {
        let name = format!("{}/{}", self.group, name.into());
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut samples = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(f());
            samples.push(start.elapsed().as_secs_f64());
        }
        let result = BenchResult { name, samples };
        eprintln!(
            "{:<48} median {:>10.3} ms   min {:>10.3} ms   ({} samples)",
            result.name,
            result.median() * 1e3,
            result.min() * 1e3,
            result.samples.len()
        );
        self.results.push(result);
    }

    /// Prints the group's JSON document to stdout and returns the results.
    pub fn finish(self) -> Vec<BenchResult> {
        println!("{}", self.to_json().render());
        self.results
    }

    /// The group's JSON document (same shape [`BenchGroup::finish`] prints).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("group", Json::str(&self.group)),
            ("results", Json::Arr(self.results.iter().map(BenchResult::to_json).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_measures_and_summarizes() {
        let mut g = BenchGroup { samples: 3, ..BenchGroup::new("unit") };
        g.bench("noop", || 1 + 1);
        let results = g.finish();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "unit/noop");
        assert_eq!(results[0].samples.len(), 3);
        assert!(results[0].min() <= results[0].median());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let r = BenchResult { name: "unit/p".into(), samples };
        assert_eq!(r.p50(), 500.0);
        assert_eq!(r.p99(), 990.0);
        assert_eq!(r.p999(), 999.0);
        assert_eq!(r.percentile(100.0), 1000.0);
        assert_eq!(r.percentile(0.0), 1.0);
        let single = BenchResult { name: "unit/one".into(), samples: vec![7.0] };
        assert_eq!(single.p50(), 7.0);
        assert_eq!(single.p999(), 7.0);
    }

    #[test]
    fn recorded_samples_report_median_and_min() {
        let mut g = BenchGroup::new("unit");
        let r = g.record("external", vec![3.0, 1.0, 2.0]);
        assert_eq!(r.median(), 2.0);
        assert_eq!(r.min(), 1.0);
        let results = g.finish();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "unit/external");
    }
}
