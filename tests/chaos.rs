//! Chaos-engine integration tests: a bounded seeded campaign over the
//! enumerated fault-site space, run at debug-build scale.
//!
//! The release-profile campaign (>= 200 schedules, `benches/chaos.rs`)
//! sweeps the full configuration grid; these tests assert the same safety
//! (byte-identical rollback) and liveness (supervisor convergence)
//! properties on a smaller schedule budget, plus the catalog/shrinker
//! plumbing end to end against a real server scenario.

use mcr_bench::{enumerate_sites, run_config, verify_rollback, ChaosConfig, ChaosMode, ChaosSpec, CONFIGS};
use mcr_core::runtime::{shrink_schedule, ChaosPlan, FaultSite, SchedulerMode};

#[test]
fn bounded_campaign_rolls_back_byte_identical_and_supervisor_converges() {
    let spec = ChaosSpec::quick();
    // One configuration per axis value: event-driven stop-the-world and
    // full-scan pre-copy together cover both scheduler cores and two of the
    // three transfer modes (the post-copy cells run in the release grid).
    for (i, config) in [CONFIGS[0], CONFIGS[4]].into_iter().enumerate() {
        let outcome = run_config(&spec, config, i as u64);
        let label = config.label();
        assert!(outcome.schedules > 0 && outcome.fired == outcome.schedules, "{label}: all fire");
        assert_eq!(outcome.divergences, 0, "{label}: {:?}", outcome.repros);
        assert_eq!(outcome.rerun_mismatches, 0, "{label}: {:?}", outcome.repros);
        assert_eq!(outcome.supervisor_committed, outcome.supervisor_runs, "{label}: {:?}", outcome.repros);
        assert!(outcome.tier_commits[1] > 0, "{label}: no-precopy tier never committed");
        assert!(outcome.give_up_clean, "{label}: give-up drill failed");
        assert!(outcome.watchdog_clean, "{label}: watchdog drill failed");
        assert!(outcome.sites_injected > 0 && outcome.coverage_ratio() > 0.0, "{label}: coverage");
    }
}

#[test]
fn fault_site_enumeration_covers_all_three_dimensions() {
    let spec = ChaosSpec::quick();
    let stw = ChaosConfig { scheduler: SchedulerMode::EventDriven, mode: ChaosMode::StopTheWorld };
    let catalog = enumerate_sites(&spec, stw);
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

    let pre = ChaosConfig { scheduler: SchedulerMode::EventDriven, mode: ChaosMode::Precopy };
    let precopy_catalog = enumerate_sites(&spec, pre);
    assert!(precopy_catalog.precopy_copies > 0, "precopy run enumerates round copies");
    assert!(
        precopy_catalog.precopy_copies <= precopy_catalog.transfer_objects,
        "precopy copies are a sub-range of the object-write space"
    );
}

#[test]
fn shrinker_reduces_a_noisy_schedule_against_the_real_pipeline() {
    let spec = ChaosSpec::quick();
    let config = ChaosConfig { scheduler: SchedulerMode::EventDriven, mode: ChaosMode::StopTheWorld };
    // The observed "failure": the run rolls back blaming the injected
    // syscall fault. The boundary and object arms are noise the shrinker
    // must discard, and the syscall index must come down to 1.
    let syscall_blamed = |plan: &ChaosPlan| {
        let r = verify_rollback(&spec, config, plan);
        r.fired && r.conflicts.iter().any(|c| c.contains("syscall#"))
    };
    let noisy = FaultSite::Syscall(7).plan().with(FaultSite::TransferObject(50));
    assert!(syscall_blamed(&noisy), "the noisy schedule reproduces the failure");
    let minimal = shrink_schedule(&noisy, syscall_blamed);
    assert_eq!(minimal, FaultSite::Syscall(1).plan(), "1-minimal reproducer");
}
