//! Chaos-engine integration tests on the smoke campaign's scenario: the
//! fault-site catalog and the shrinker, end to end against a real server.
//!
//! The smoke campaign (>= 50 schedules per transfer mode, all three modes)
//! and its safety (byte-identical rollback) and liveness (supervisor
//! convergence) checks are `tests/tracked_reports.rs`, which rebuilds
//! `BENCH_chaos.json`.

use mcr_bench::{enumerate_sites, verify_rollback, ChaosMode, ChaosSpec};
use mcr_core::runtime::{shrink_schedule, ChaosPlan, FaultSite};

#[test]
fn fault_site_enumeration_covers_all_three_dimensions() {
    let spec = ChaosSpec::smoke();
    let catalog = enumerate_sites(&spec, ChaosMode::StopTheWorld);
    let labels: Vec<&str> = catalog.boundaries.iter().map(|b| b.label()).collect();
    assert_eq!(
        labels,
        ["quiesce", "reinit-replay", "match-processes", "trace-and-transfer", "commit"],
        "stop-the-world run enumerates the standard boundaries"
    );
    assert!(catalog.transfer_objects > 0, "object writes enumerated");
    assert!(catalog.syscalls > 0, "pipeline syscalls enumerated");
    assert_eq!(catalog.precopy_copies, 0, "no precopy copies without precopy");
    assert_eq!(
        catalog.total_sites(),
        catalog.boundaries.len() as u64 + catalog.transfer_objects + catalog.syscalls
    );

    let precopy_catalog = enumerate_sites(&spec, ChaosMode::Precopy);
    assert!(precopy_catalog.precopy_copies > 0, "precopy run enumerates round copies");
    assert!(
        precopy_catalog.precopy_copies <= precopy_catalog.transfer_objects,
        "precopy copies are a sub-range of the object-write space"
    );
}

#[test]
fn shrinker_reduces_a_noisy_schedule_against_the_real_pipeline() {
    let spec = ChaosSpec::smoke();
    // The observed "failure": the run rolls back blaming the injected
    // syscall fault. The boundary and object arms are noise the shrinker
    // must discard, and the syscall index must come down to 1.
    let syscall_blamed = |plan: &ChaosPlan| {
        let r = verify_rollback(&spec, ChaosMode::StopTheWorld, plan);
        r.fired && r.conflicts.iter().any(|c| c.contains("syscall#"))
    };
    let noisy = FaultSite::Syscall(7).plan().with(FaultSite::TransferObject(50));
    assert!(syscall_blamed(&noisy), "the noisy schedule reproduces the failure");
    let minimal = shrink_schedule(&noisy, syscall_blamed);
    assert_eq!(minimal, FaultSite::Syscall(1).plan(), "1-minimal reproducer");
}
