//! Pre-copy downtime sweep: write rates × heap sizes.
//!
//! For every [`PrecopyScenario`] (the read-mostly vs. write-heavy pair) and
//! every heap-size factor, this bench performs one stop-the-world baseline
//! update (`precopy_rounds = 0`, write batches applied up front) and one
//! pre-copy update (3 concurrent rounds, the same write batches applied
//! between rounds), then emits one JSON row per run.
//!
//! Asserted here (and re-checked by the CI smoke step from the JSON):
//!
//! * **Downtime**: on the read-mostly scenario the measured stop-the-world
//!   `downtime` with pre-copy is at most 50% of the baseline's.
//! * **Equivalence**: within a sweep point, baseline and pre-copy converge
//!   to byte-identical kernel fingerprints, per-process transfer reports
//!   and (empty) conflict sets.
//! * **Scale**: the scenario yields >= 4 matched pairs (the multiprocess
//!   regime the pre-copy acceptance criterion targets).

use mcr_bench::{precopy_update, Json};
use mcr_core::runtime::UpdateOutcome;
use mcr_servers::precopy_scenarios;

const PRECOPY_ROUNDS: usize = 3;
const SIZE_FACTORS: [u64; 3] = [1, 2, 4];

struct Run {
    fingerprint: u64,
    outcome: UpdateOutcome,
}

fn run(scenario: &mcr_servers::PrecopyScenario, size: u64, rounds: usize) -> Run {
    let (fingerprint, outcome) = precopy_update(scenario, size, rounds, PRECOPY_ROUNDS);
    assert!(
        outcome.is_committed(),
        "{} size {size} rounds {rounds}: {:?}",
        scenario.name,
        outcome.conflicts()
    );
    Run { fingerprint, outcome }
}

fn row(scenario: &str, size: u64, mode: &str, run: &Run) -> Json {
    let report = run.outcome.report();
    let pairs = report.processes_matched + report.processes_recreated;
    Json::obj([
        ("scenario", Json::str(scenario)),
        ("size_factor", size.into()),
        ("mode", Json::str(mode)),
        ("pairs", (pairs as u64).into()),
        ("precopy_enabled", Json::Bool(report.precopy.enabled)),
        ("precopy_rounds", (report.precopy.rounds.len() as u64).into()),
        ("precopied_objects", report.precopy.precopied_objects().into()),
        ("residual_objects", report.precopy.residual.objects.into()),
        ("residual_bytes", report.precopy.residual.bytes.into()),
        ("downtime_ns", report.timings.downtime.0.into()),
        ("precopy_ns", report.timings.precopy.0.into()),
        ("total_ns", report.timings.total.0.into()),
        ("state_transfer_ns", report.timings.state_transfer.0.into()),
        ("objects_transferred", report.transfer.objects_transferred().into()),
        ("fingerprint", Json::str(format!("{:016x}", run.fingerprint))),
    ])
}

fn main() {
    let mut rows = Vec::new();
    for scenario in precopy_scenarios() {
        for size in SIZE_FACTORS {
            let baseline = run(&scenario, size, 0);
            let precopied = run(&scenario, size, PRECOPY_ROUNDS);

            let base_report = baseline.outcome.report();
            let pre_report = precopied.outcome.report();
            let pairs = base_report.processes_matched + base_report.processes_recreated;
            assert!(pairs >= 4, "{}: expected >= 4 matched pairs, got {pairs}", scenario.name);

            // Equivalence: same final kernel state, same logical transfer.
            assert_eq!(
                baseline.fingerprint, precopied.fingerprint,
                "{} size {size}: pre-copy diverged from the stop-the-world baseline",
                scenario.name
            );
            assert_eq!(
                base_report.transfer.per_process, pre_report.transfer.per_process,
                "{} size {size}: per-process transfer reports diverged",
                scenario.name
            );
            assert_eq!(base_report.tracing, pre_report.tracing, "{} size {size}", scenario.name);

            // The headline: pre-copy moves the bulk out of the window.
            let base_down = base_report.timings.downtime.0;
            let pre_down = pre_report.timings.downtime.0;
            assert!(pre_down <= base_down, "{} size {size}: pre-copy increased downtime", scenario.name);
            if scenario.name == "read-mostly" {
                assert!(
                    pre_down * 2 <= base_down,
                    "{} size {size}: downtime {pre_down} ns not <= 50% of baseline {base_down} ns",
                    scenario.name
                );
            }
            assert!(pre_report.precopy.enabled && !pre_report.precopy.rounds.is_empty());
            assert!(
                pre_report.precopy.residual.objects <= base_report.precopy.residual.objects,
                "pre-copy cannot leave more residual work than the baseline window does"
            );

            eprintln!(
                "{:<12} size {size}: downtime {:>9} -> {:>9} ns ({:>5.1}%), precopy {:>9} ns, \
                 residual {:>4}/{:<4} objs, pairs {pairs}",
                scenario.name,
                base_down,
                pre_down,
                pre_down as f64 / base_down.max(1) as f64 * 100.0,
                pre_report.timings.precopy.0,
                pre_report.precopy.residual.objects,
                pre_report.transfer.objects_transferred(),
            );
            rows.push(row(scenario.name, size, "baseline", &baseline));
            rows.push(row(scenario.name, size, "precopy", &precopied));
        }
    }

    let doc = Json::obj([("experiment", Json::str("precopy_downtime")), ("rows", Json::Arr(rows))]);
    println!("{}", doc.render());
}
