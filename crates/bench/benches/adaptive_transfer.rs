//! Adaptive state-transfer sweep: write rates × heap sizes × transfer
//! modes.
//!
//! For every [`PrecopyScenario`] (read-mostly vs. write-heavy) and every
//! heap-size factor, this bench runs the same update under all four
//! [`TransferMode`]s — stop-the-world, pre-copy, post-copy and adaptive —
//! with an identical deterministic write schedule (three pre-quiesce
//! batches, three post-resume scratch stamps; see
//! [`mcr_bench::adaptive_update`]) and emits one JSON row per run.
//!
//! Asserted here (and re-checked by the CI smoke step from the JSON):
//!
//! * **Equivalence**: within a sweep point, all four modes converge to
//!   byte-identical kernel fingerprints and per-process transfer reports,
//!   with empty conflict sets.
//! * **Adaptive dominance**: the adaptive mode's downtime is at most every
//!   static mode's downtime on every sweep point.
//! * **Post-copy headline**: on the write-heavy scenario, post-copy
//!   downtime is at most 50% of the stop-the-world window.
//! * **Post-copy mechanics**: the forced post-copy run defers work on every
//!   point and services at least one access trap (the machinery is
//!   exercised, not bypassed).

use mcr_bench::{adaptive_update, Json};
use mcr_core::runtime::{TransferMode, UpdateOutcome};
use mcr_servers::precopy_scenarios;

const SIZE_FACTORS: [u64; 3] = [1, 2, 4];
const MODES: [(TransferMode, &str); 4] = [
    (TransferMode::StopTheWorld, "stop-the-world"),
    (TransferMode::Precopy, "precopy"),
    (TransferMode::Postcopy, "postcopy"),
    (TransferMode::Adaptive, "adaptive"),
];

struct Run {
    fingerprint: u64,
    outcome: UpdateOutcome,
}

fn run(scenario: &mcr_servers::PrecopyScenario, size: u64, mode: TransferMode) -> Run {
    let (fingerprint, outcome) = adaptive_update(scenario, size, mode);
    assert!(outcome.is_committed(), "{} size {size} {mode:?}: {:?}", scenario.name, outcome.conflicts());
    Run { fingerprint, outcome }
}

fn row(scenario: &str, size: u64, mode: &str, r: &Run) -> Json {
    let report = r.outcome.report();
    let pairs = report.processes_matched + report.processes_recreated;
    Json::obj([
        ("scenario", Json::str(scenario)),
        ("size_factor", size.into()),
        ("mode", Json::str(mode)),
        ("pairs", (pairs as u64).into()),
        ("downtime_ns", report.timings.downtime.0.into()),
        ("trap_service_ns", report.timings.trap_service.0.into()),
        ("postcopy_drain_ns", report.timings.postcopy_drain.0.into()),
        ("total_ns", report.timings.total.0.into()),
        ("state_transfer_ns", report.timings.state_transfer.0.into()),
        ("synced_pairs", (report.postcopy.synced_pairs as u64).into()),
        ("deferred_pairs", (report.postcopy.deferred_pairs as u64).into()),
        ("deferred_objects", report.postcopy.deferred_objects.into()),
        ("deferred_bytes", report.postcopy.deferred_bytes.into()),
        ("traps", report.postcopy.traps.into()),
        ("trap_objects", report.postcopy.trap_objects.into()),
        ("drained_objects", report.postcopy.drained_objects.into()),
        ("drain_rounds", report.postcopy.drain_rounds.into()),
        ("objects_transferred", report.transfer.objects_transferred().into()),
        ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
    ])
}

fn main() {
    let mut rows = Vec::new();
    for scenario in precopy_scenarios() {
        for size in SIZE_FACTORS {
            let runs: Vec<Run> = MODES.iter().map(|&(mode, _)| run(&scenario, size, mode)).collect();
            let [stw, precopy, postcopy, adaptive] = &runs[..] else { unreachable!() };

            let stw_report = stw.outcome.report();
            let pairs = stw_report.processes_matched + stw_report.processes_recreated;
            assert!(pairs >= 4, "{}: expected >= 4 matched pairs, got {pairs}", scenario.name);

            // Equivalence: every mode converges to the same final kernel
            // state and the same logical transfer.
            for (r, &(_, label)) in runs.iter().zip(MODES.iter()) {
                assert_eq!(
                    r.fingerprint, stw.fingerprint,
                    "{} size {size}: {label} diverged from stop-the-world",
                    scenario.name
                );
                assert_eq!(
                    r.outcome.report().transfer.per_process,
                    stw_report.transfer.per_process,
                    "{} size {size}: {label} per-process reports diverged",
                    scenario.name
                );
            }

            // Post-copy exercises the trap machinery on every point.
            let post_report = postcopy.outcome.report();
            assert!(post_report.postcopy.deferred_pairs >= 1, "{} size {size}", scenario.name);
            assert!(post_report.postcopy.traps >= 1, "{} size {size}: no access trap fired", scenario.name);
            assert!(post_report.timings.trap_service.0 > 0);

            // The headline inequalities.
            let down = |r: &Run| r.outcome.report().timings.downtime.0;
            for (r, &(_, label)) in runs.iter().zip(MODES.iter()).take(3) {
                assert!(
                    down(adaptive) <= down(r),
                    "{} size {size}: adaptive downtime {} ns exceeds {label}'s {} ns",
                    scenario.name,
                    down(adaptive),
                    down(r)
                );
            }
            if scenario.name == "write-heavy" {
                assert!(
                    down(postcopy) * 2 <= down(stw),
                    "{} size {size}: post-copy downtime {} ns not <= 50% of {} ns",
                    scenario.name,
                    down(postcopy),
                    down(stw)
                );
            }

            eprintln!(
                "{:<12} size {size}: stw {:>9} pre {:>9} post {:>9} (traps {:>3}) adaptive {:>9} ns \
                 [{} synced / {} deferred]",
                scenario.name,
                down(stw),
                down(precopy),
                down(postcopy),
                post_report.postcopy.traps,
                down(adaptive),
                adaptive.outcome.report().postcopy.synced_pairs,
                adaptive.outcome.report().postcopy.deferred_pairs,
            );
            for (r, &(_, label)) in runs.iter().zip(MODES.iter()) {
                rows.push(row(scenario.name, size, label, r));
            }
        }
    }

    let doc = Json::obj([("experiment", Json::str("adaptive_transfer")), ("rows", Json::Arr(rows))]);
    println!("{}", doc.render());
}
