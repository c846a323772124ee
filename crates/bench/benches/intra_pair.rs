//! Intra-pair sharding sweep: heap size × shard count over the
//! single-process big-heap cache server.
//!
//! Pair-level workers cannot shorten a single matched pair, so this is the
//! scenario where `UpdateOptions::intra_pair_shards` — modelled workers
//! inside the pair — must carry the whole simulated speedup. For every heap size the bench runs the gen-1 → gen-2 cache
//! update at each shard count, `ITERS` iterations per point, and emits one
//! JSON row per point with **median-of-iterations** figures (the simulated
//! makespan is deterministic — re-measured only to prove it — while the host
//! wall time is noisy, which is why the CI smoke step thresholds medians).
//!
//! Asserted here (and re-checked by CI from the JSON):
//!
//! * **Speedup**: the charged trace+transfer makespan
//!   (`timings.state_transfer`, the deterministic list-schedule over the
//!   per-shard costs) improves strictly over the 1-shard baseline for every
//!   shard count >= 2, on every heap size.
//! * **Determinism**: kernel fingerprint, tracing statistics, per-process
//!   transfer reports and (empty) conflict sets are byte-identical across
//!   all shard counts — and, on the smallest heap, across pre-copy on/off.

use mcr_bench::{cache_update, BenchGroup, Json};
use mcr_core::runtime::UpdateOutcome;

/// (entries, value bytes) per sweep point.
const HEAPS: [(u64, u64); 2] = [(512, 128), (2048, 256)];
const SHARDS: [usize; 3] = [1, 2, 4];
const ITERS: usize = 3;

struct Run {
    fingerprint: u64,
    outcome: UpdateOutcome,
}

fn run(entries: u64, vsize: u64, shards: usize, precopy: usize) -> Run {
    let (fingerprint, outcome) = cache_update(entries, vsize, shards, precopy);
    assert!(outcome.is_committed(), "cache {entries}x{vsize} shards {shards}: {:?}", outcome.conflicts());
    Run { fingerprint, outcome }
}

fn median_u64(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let mut group = BenchGroup::new("intra_pair");
    let mut rows = Vec::new();
    for (entries, vsize) in HEAPS {
        let mut baseline_makespan = 0u64;
        let mut baseline: Option<Run> = None;
        for shards in SHARDS {
            let mut makespans = Vec::with_capacity(ITERS);
            let mut host_wall = Vec::with_capacity(ITERS);
            let mut last = None;
            for _ in 0..ITERS {
                let run = run(entries, vsize, shards, 0);
                let report = run.outcome.report();
                makespans.push(report.timings.state_transfer.0);
                host_wall.push(report.transfer.host_wall_ns);
                last = Some(run);
            }
            let run = last.expect("at least one iteration");
            assert!(
                makespans.iter().all(|&m| m == makespans[0]),
                "cache {entries}x{vsize} shards {shards}: simulated makespan is not deterministic"
            );
            group.record(
                format!("host_wall/{entries}x{vsize}/shards{shards}"),
                host_wall.iter().map(|&ns| ns as f64 / 1e9).collect(),
            );
            let makespan = median_u64(&mut makespans);
            let host_median = median_u64(&mut host_wall);

            // Determinism across shard counts: everything but the charged
            // makespan is byte-identical to the 1-shard baseline.
            let report = run.outcome.report();
            let speedup = match &baseline {
                None => {
                    baseline_makespan = makespan;
                    1.0
                }
                Some(base) => {
                    let base_report = base.outcome.report();
                    assert_eq!(
                        base.fingerprint, run.fingerprint,
                        "cache {entries}x{vsize} shards {shards}: kernel state diverged"
                    );
                    assert_eq!(
                        base_report.tracing, report.tracing,
                        "cache {entries}x{vsize} shards {shards}: tracing stats diverged"
                    );
                    assert_eq!(
                        base_report.transfer.per_process, report.transfer.per_process,
                        "cache {entries}x{vsize} shards {shards}: per-process reports diverged"
                    );
                    assert!(report.transfer.conflicts().next().is_none(), "unexpected conflicts");
                    let speedup = baseline_makespan as f64 / makespan.max(1) as f64;
                    assert!(
                        speedup > 1.0,
                        "cache {entries}x{vsize}: {shards} shards did not beat the serial \
                         makespan ({makespan} ns vs {baseline_makespan} ns)"
                    );
                    speedup
                }
            };
            eprintln!(
                "cache {entries:>5} x {vsize:>4}B  shards {shards}: makespan {makespan:>10} ns \
                 (speedup {speedup:>5.2}x), host wall {host_median:>10} ns median of {ITERS}"
            );
            rows.push(Json::obj([
                ("entries", entries.into()),
                ("value_bytes", vsize.into()),
                ("shards", shards.into()),
                ("iterations", ITERS.into()),
                ("makespan_ns", makespan.into()),
                ("host_wall_ns_median", host_median.into()),
                ("speedup", Json::Num(speedup)),
                ("objects_transferred", report.transfer.objects_transferred().into()),
                ("fingerprint", Json::str(format!("{:016x}", run.fingerprint))),
            ]));
            if shards == SHARDS[0] {
                baseline = Some(run);
            }
        }
    }

    // Pre-copy equivalence on the smallest point: the sharded update
    // converges to the same kernel state whether or not the bulk copy ran
    // concurrently.
    let (entries, vsize) = HEAPS[0];
    let stw = run(entries, vsize, 2, 0);
    let pre = run(entries, vsize, 2, 2);
    assert_eq!(stw.fingerprint, pre.fingerprint, "pre-copy diverged from stop-the-world");
    assert!(pre.outcome.report().precopy.enabled);
    assert_eq!(
        stw.outcome.report().transfer.per_process,
        pre.outcome.report().transfer.per_process,
        "per-process reports diverged under pre-copy"
    );

    // One JSON document on stdout: the sweep rows plus the BenchGroup's
    // median/min host-time summary.
    let doc = Json::obj([
        ("experiment", Json::str("intra_pair")),
        ("rows", Json::Arr(rows)),
        ("host_time", group.to_json()),
    ]);
    println!("{}", doc.render());
}
