//! Chaos campaign: seeded fault schedules over the enumerated site space.
//!
//! Runs [`ChaosSpec::smoke`] — >= 50 schedules per transfer mode
//! (stop-the-world, pre-copy, post-copy) spanning phase-boundary,
//! n-th-transfer-object, n-th-syscall, n-th-fault-in and n-th-drain-step
//! sites — and asserts, per mode:
//!
//! * every fired schedule rolled back to a byte-identical kernel
//!   fingerprint (zero divergences, zero re-run mismatches);
//! * the supervisor converged to a committed update on every recoverable
//!   schedule, with commits recorded per degradation tier;
//! * the give-up and watchdog drills ended cleanly.
//!
//! Emits the `BENCH_chaos.json` document (rows + totals) on stdout; the CI
//! smoke step re-asserts the same properties from the JSON.

use mcr_bench::{chaos_json, chaos_render, run_campaign, ChaosMode, ChaosSpec};

fn main() {
    let spec = ChaosSpec::smoke();
    let rows = run_campaign(&spec);
    eprint!("{}", chaos_render(&rows));

    assert_eq!(rows.len(), 3, "one campaign row per transfer mode");
    for r in &rows {
        let label = r.mode.label();
        assert!(r.schedules >= 50, "{label}: campaign too small: {} schedules", r.schedules);
        assert!(r.catalog.total_sites() > 0, "{label}: empty site catalog");
        assert!(r.catalog.syscalls > 0, "{label}: no syscall sites enumerated");
        assert!(r.catalog.transfer_objects > 0, "{label}: no object sites enumerated");
        assert_eq!(r.divergences, 0, "{label}: rollback divergence — repros: {:?}", r.repros);
        assert_eq!(r.unexpected_commits, 0, "{label}: schedules never fired: {:?}", r.repros);
        assert_eq!(r.rerun_mismatches, 0, "{label}: nondeterministic rollback: {:?}", r.repros);
        assert_eq!(
            r.supervisor_committed, r.supervisor_runs,
            "{label}: supervisor failed to converge — repros: {:?}",
            r.repros
        );
        assert!(
            r.tier_commits[1] > 0 && r.tier_commits[2] > 0,
            "{label}: degradation ladder not exercised: {:?}",
            r.tier_commits
        );
        assert!(r.give_up_clean, "{label}: give-up drill left the old version unserving");
        assert!(r.watchdog_clean, "{label}: watchdog drill did not roll back cleanly");
        assert!(r.sites_injected > 0 && r.coverage_ratio() > 0.0, "{label}: nothing injected");
    }
    // Pre-copy must enumerate pre-copy round copies as a sub-range of the
    // object-write space.
    for r in rows.iter().filter(|r| r.mode == ChaosMode::Precopy) {
        assert!(r.catalog.precopy_copies > 0, "{}: no precopy copy sites", r.mode.label());
    }
    // Post-copy must enumerate the commit-far-side site classes:
    // parked-object fault-ins and background drain batches.
    for r in rows.iter().filter(|r| r.mode == ChaosMode::Postcopy) {
        assert!(r.catalog.fault_ins > 0, "{}: no fault-in sites", r.mode.label());
        assert!(r.catalog.drain_steps > 0, "{}: no drain-step sites", r.mode.label());
    }

    println!("{}", chaos_json(&spec, &rows).render());
}
