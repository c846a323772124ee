//! Allocator-stress microbenchmarks (the SPEC CPU2006-style experiment).
//!
//! The paper measures the cost of MCR's allocator instrumentation by
//! instrumenting all SPEC CPU2006 benchmarks and reports a 5% worst case
//! except for the allocation-intensive `perlbench` (36%). These synthetic
//! workloads reproduce that experiment's shape: a set of benchmarks with
//! different allocation intensities run against the simulated ptmalloc with
//! and without in-band MCR tags.

use std::time::{Duration, Instant};

use mcr_procsim::{Addr, AddressSpace, AllocSite, PtMalloc, RegionKind, TypeTag, PAGE_SIZE};

/// One synthetic allocator benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocBenchSpec {
    /// Benchmark name (mirrors a SPEC constituent).
    pub name: String,
    /// Number of allocate/compute/free iterations.
    pub(crate) operations: u64,
    /// Object size in bytes.
    pub(crate) object_size: u64,
    /// Number of objects kept live simultaneously.
    pub(crate) live_set: usize,
    /// Amount of non-allocator "compute" work (word writes) per operation —
    /// the higher this is, the smaller the relative allocator overhead.
    pub(crate) compute_per_op: u64,
}

impl AllocBenchSpec {
    /// The SPEC-like suite: mostly compute-bound benchmarks plus the
    /// allocation-intensive `perlbench`-like stress case.
    pub fn spec_suite(scale: u64) -> Vec<AllocBenchSpec> {
        vec![
            AllocBenchSpec {
                name: "bzip2-like".into(),
                operations: 200 * scale,
                object_size: 4096,
                live_set: 8,
                compute_per_op: 512,
            },
            AllocBenchSpec {
                name: "gcc-like".into(),
                operations: 400 * scale,
                object_size: 256,
                live_set: 64,
                compute_per_op: 128,
            },
            AllocBenchSpec {
                name: "mcf-like".into(),
                operations: 300 * scale,
                object_size: 64,
                live_set: 128,
                compute_per_op: 96,
            },
            AllocBenchSpec {
                name: "gobmk-like".into(),
                operations: 300 * scale,
                object_size: 128,
                live_set: 32,
                compute_per_op: 160,
            },
            AllocBenchSpec {
                name: "perlbench-like".into(),
                operations: 2_000 * scale,
                object_size: 48,
                live_set: 256,
                compute_per_op: 4,
            },
        ]
    }
}

/// Result of one allocator benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocBenchResult {
    /// Benchmark name.
    pub(crate) name: String,
    /// Whether the allocator maintained MCR tags.
    pub(crate) instrumented: bool,
    /// Wall-clock time of the run.
    pub(crate) wall_time: Duration,
    /// Allocations performed.
    pub allocations: u64,
}

/// Runs one allocator benchmark against a fresh simulated heap.
pub fn run_alloc_bench(spec: &AllocBenchSpec, instrumented: bool) -> AllocBenchResult {
    const HEAP_BASE: u64 = 0x2000_0000;
    let heap_size = 4096 * PAGE_SIZE;
    let mut space = AddressSpace::new();
    space
        .map_region(Addr(HEAP_BASE), heap_size, RegionKind::Heap, "bench-heap")
        .expect("fresh address space");
    let mut heap = PtMalloc::new(Addr(HEAP_BASE), heap_size, instrumented);
    heap.end_startup();

    let mut live: Vec<Addr> = Vec::with_capacity(spec.live_set);
    let mut allocations = 0u64;
    let start = Instant::now();
    for op in 0..spec.operations {
        if live.len() >= spec.live_set {
            let victim = live.remove((op % spec.live_set as u64) as usize);
            heap.free(&mut space, victim).expect("live chunk");
        }
        let addr = heap
            .malloc(&mut space, spec.object_size, AllocSite(op % 16 + 1), TypeTag(op % 8 + 1))
            .expect("heap large enough");
        allocations += 1;
        // "Compute": touch the object and spin on word writes.
        let words = (spec.compute_per_op / 8).max(1).min(spec.object_size / 8);
        for w in 0..words {
            space.write_u64(addr.offset(w * 8), op ^ w).expect("in bounds");
        }
        live.push(addr);
    }
    AllocBenchResult { name: spec.name.clone(), instrumented, wall_time: start.elapsed(), allocations }
}

/// Overhead ratio of the instrumented run over the baseline run of the same
/// benchmark (1.0 means no overhead).
pub fn overhead_ratio(baseline: &AllocBenchResult, instrumented: &AllocBenchResult) -> f64 {
    let base = baseline.wall_time.as_secs_f64();
    if base <= 0.0 {
        1.0
    } else {
        instrumented.wall_time.as_secs_f64() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_perlbench_stress_case() {
        let suite = AllocBenchSpec::spec_suite(1);
        assert_eq!(suite.len(), 5);
        let perl = suite.iter().find(|s| s.name.starts_with("perlbench")).unwrap();
        let others_max_ops =
            suite.iter().filter(|s| !s.name.starts_with("perlbench")).map(|s| s.operations).max().unwrap();
        assert!(perl.operations > others_max_ops, "perlbench is allocation-intensive");
        assert!(perl.compute_per_op < 16);
    }

    #[test]
    fn benchmarks_run_and_allocate() {
        let spec = AllocBenchSpec {
            name: "smoke".into(),
            operations: 500,
            object_size: 64,
            live_set: 16,
            compute_per_op: 32,
        };
        let base = run_alloc_bench(&spec, false);
        let instr = run_alloc_bench(&spec, true);
        assert_eq!(base.allocations, 500);
        assert_eq!(instr.allocations, 500);
        assert!(!base.instrumented && instr.instrumented);
        let ratio = overhead_ratio(&base, &instr);
        assert!(ratio > 0.0);
    }
}
