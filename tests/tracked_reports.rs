//! The five tracked reports (`BENCH_precopy.json`, `BENCH_adaptive.json`,
//! `BENCH_chaos.json`, `BENCH_checkpoint.json`, `BENCH_paper.json`), rebuilt
//! in-process on the simulated clock.
//!
//! Each test builds its document, asserts the properties the report
//! records (the paper tables' properties are `mcr-bench` unit tests at
//! smaller sizes), and compares `render() + "\n"` byte for byte with the committed
//! file. On a mismatch it writes the fresh document to
//! `target/tmp/BENCH_*.json` and panics naming that path: review the diff
//! and copy the file over the committed one to accept a change.
//!
//! The five tests share one binary so the harness runs them in parallel.
//! It starts them in name order; the checkpoint campaign takes longest, so
//! its name sorts among the first two and it starts at once.

use std::path::Path;

use mcr_bench::{
    adaptive_update, chaos_json, checkpoint_json, paper_json, precopy_update, run_campaign,
    run_checkpoint_campaign, ChaosSpec, CheckpointSpec, Json, CONFIGS,
};
use mcr_core::runtime::{PhaseName, TransferMode, UpdateOutcome, UpdateReport};
use mcr_servers::precopy_scenarios;

const SIZE_FACTORS: [u64; 3] = [1, 2, 4];

/// Asserts that `doc` renders to exactly the committed `name`; otherwise
/// writes the fresh rendering under `target/tmp` and fails.
fn assert_matches_committed(name: &str, doc: &Json) {
    let fresh = doc.render() + "\n";
    let committed = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(name));
    if committed.ok().as_deref() != Some(fresh.as_str()) {
        let regenerated = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&regenerated, &fresh).expect("write the regenerated report");
        panic!("{name} differs from the committed file; the regenerated report is {}", regenerated.display());
    }
}

fn pairs(report: &UpdateReport) -> usize {
    report.processes_matched + report.processes_recreated
}

fn committed(label: &str, outcome: &UpdateOutcome) {
    assert!(outcome.is_committed(), "{label}: {:?}", outcome.conflicts());
}

fn precopy_row(scenario: &str, size: u64, mode: &str, (fingerprint, outcome): &(u64, UpdateOutcome)) -> Json {
    let report = outcome.report();
    Json::obj([
        ("scenario", Json::str(scenario)),
        ("size_factor", size.into()),
        ("mode", Json::str(mode)),
        ("pairs", (pairs(report) as u64).into()),
        ("precopy_enabled", Json::Bool(report.precopy.enabled)),
        ("precopy_rounds", (report.precopy.rounds.len() as u64).into()),
        ("precopied_objects", report.precopy.precopied_objects().into()),
        ("residual_objects", report.precopy.residual.objects.into()),
        ("residual_bytes", report.precopy.residual.bytes.into()),
        ("downtime_ns", report.timings.downtime.0.into()),
        ("precopy_ns", report.phases.duration_of(PhaseName::Precopy).unwrap_or_default().0.into()),
        ("total_ns", report.timings.total.0.into()),
        ("state_transfer_ns", report.timings.state_transfer.0.into()),
        ("objects_transferred", report.transfer.objects_transferred().into()),
        ("fingerprint", Json::str(format!("{fingerprint:016x}"))),
    ])
}

/// Pre-copy downtime sweep: for both scenarios (read-mostly, write-heavy)
/// and every heap-size factor, one stop-the-world baseline and one update
/// with three concurrent pre-copy rounds, the same write batches applied
/// up front or between rounds.
#[test]
fn precopy_report_halves_read_mostly_downtime_and_matches_bench_precopy_json() {
    const PRECOPY_ROUNDS: usize = 3;
    let mut rows = Vec::new();
    for scenario in precopy_scenarios() {
        for size in SIZE_FACTORS {
            let label = format!("{} size {size}", scenario.name);
            let baseline = precopy_update(&scenario, size, 0, PRECOPY_ROUNDS);
            let precopied = precopy_update(&scenario, size, PRECOPY_ROUNDS, PRECOPY_ROUNDS);
            committed(&label, &baseline.1);
            committed(&label, &precopied.1);
            let base = baseline.1.report();
            let pre = precopied.1.report();
            assert!(pairs(base) >= 4, "{label}: expected >= 4 matched pairs, got {}", pairs(base));

            // Equivalence: same final kernel state, same logical transfer.
            assert_eq!(baseline.0, precopied.0, "{label}: pre-copy diverged from the baseline");
            assert_eq!(base.transfer.per_process, pre.transfer.per_process, "{label}: per-process reports");
            assert_eq!(base.tracing, pre.tracing, "{label}");

            // Pre-copy moves the bulk out of the window, and on the
            // read-mostly scenario halves it.
            let (base_down, pre_down) = (base.timings.downtime.0, pre.timings.downtime.0);
            assert!(pre_down <= base_down, "{label}: pre-copy increased downtime");
            if scenario.name == "read-mostly" {
                assert!(
                    pre_down * 2 <= base_down,
                    "{label}: downtime {pre_down} ns not <= 50% of {base_down} ns"
                );
            }
            let pre_precopy = pre.phases.duration_of(PhaseName::Precopy).unwrap_or_default();
            assert!(pre_precopy.0 > 0 && pre_down <= pre.timings.total.0, "{label}: time split");
            assert!(pre.precopy.enabled && !pre.precopy.rounds.is_empty(), "{label}");
            let phases = |r: &UpdateReport| r.phases.records().iter().map(|p| p.name).collect::<Vec<_>>();
            assert_eq!(phases(pre), PhaseName::PRECOPY_ALL, "{label}: six-phase pre-copy order");
            assert_eq!(phases(base), PhaseName::ALL, "{label}: standard five-phase order");

            // The window only pays for the residual working set.
            assert!(pre.precopy.precopied_objects() > 0, "{label}");
            assert!(pre.precopy.residual.objects < base.precopy.residual.objects, "{label}: residual");
            assert!(pre.timings.state_transfer < base.timings.state_transfer, "{label}: state transfer");

            rows.push(precopy_row(scenario.name, size, "baseline", &baseline));
            rows.push(precopy_row(scenario.name, size, "precopy", &precopied));
        }
    }
    let doc = Json::obj([("experiment", Json::str("precopy_downtime")), ("rows", Json::Arr(rows))]);
    assert_matches_committed("BENCH_precopy.json", &doc);
}

fn adaptive_row(
    scenario: &str,
    size: u64,
    mode: &str,
    (fingerprint, outcome): &(u64, UpdateOutcome),
) -> Json {
    let report = outcome.report();
    Json::obj([
        ("scenario", Json::str(scenario)),
        ("size_factor", size.into()),
        ("mode", Json::str(mode)),
        ("pairs", (pairs(report) as u64).into()),
        ("downtime_ns", report.timings.downtime.0.into()),
        ("trap_service_ns", report.timings.trap_service.0.into()),
        (
            "postcopy_drain_ns",
            report.phases.duration_of(PhaseName::PostcopyDrain).unwrap_or_default().0.into(),
        ),
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
        ("fingerprint", Json::str(format!("{fingerprint:016x}"))),
    ])
}

/// Transfer-mode sweep: both scenarios × every heap-size factor under all
/// three transfer modes, with one deterministic write schedule (see
/// `mcr_bench::adaptive_update`).
#[test]
fn transfer_modes_converge_and_match_bench_adaptive_json() {
    const MODES: [TransferMode; 3] =
        [TransferMode::StopTheWorld, TransferMode::Precopy, TransferMode::Postcopy];
    let labels = MODES.map(|mode| mode.label());
    let mut rows = Vec::new();
    for scenario in precopy_scenarios() {
        for size in SIZE_FACTORS {
            let label = format!("{} size {size}", scenario.name);
            let runs: Vec<(u64, UpdateOutcome)> =
                MODES.iter().map(|&mode| adaptive_update(&scenario, size, mode)).collect();
            for (run, mode) in runs.iter().zip(labels) {
                committed(&format!("{label} {mode}"), &run.1);
            }
            let [stw, _, postcopy] = &runs[..] else { unreachable!() };
            let stw_report = stw.1.report();
            assert!(
                pairs(stw_report) >= 4,
                "{label}: expected >= 4 matched pairs, got {}",
                pairs(stw_report)
            );

            // Equivalence: every mode converges to the same final kernel
            // state and the same logical transfer.
            for (run, mode) in runs.iter().zip(labels) {
                assert_eq!(run.0, stw.0, "{label}: {mode} diverged from stop-the-world");
                assert_eq!(
                    run.1.report().transfer.per_process,
                    stw_report.transfer.per_process,
                    "{label}: {mode} per-process reports diverged"
                );
            }

            // Post-copy exercises the trap machinery on every point.
            let post = postcopy.1.report();
            assert!(post.postcopy.deferred_pairs >= 1, "{label}: nothing deferred");
            assert!(post.postcopy.traps >= 1, "{label}: no access trap fired");
            assert!(post.timings.trap_service.0 > 0, "{label}: no trap service time");

            // Post-copy halves the write-heavy window.
            let down = |run: &(u64, UpdateOutcome)| run.1.report().timings.downtime.0;
            if scenario.name == "write-heavy" {
                assert!(
                    down(postcopy) * 2 <= down(stw),
                    "{label}: post-copy downtime {} ns not <= 50% of {} ns",
                    down(postcopy),
                    down(stw)
                );
            }
            for (run, mode) in runs.iter().zip(labels) {
                rows.push(adaptive_row(scenario.name, size, mode, run));
            }
        }
    }
    let doc = Json::obj([("experiment", Json::str("adaptive_transfer")), ("rows", Json::Arr(rows))]);
    assert_matches_committed("BENCH_adaptive.json", &doc);
}

/// Chaos campaign at smoke scale: >= 50 seeded fault schedules per transfer
/// mode over the boundary, transfer-object, syscall, fault-in and
/// drain-step sites. Every fired schedule rolls back byte-identical and
/// deterministically; the supervisor converges on every schedule down the
/// degradation ladder; the give-up and watchdog drills end cleanly.
#[test]
fn chaos_report_rolls_back_byte_identical_and_matches_bench_chaos_json() {
    let spec = ChaosSpec::smoke();
    let rows = run_campaign(&spec);
    let modes: Vec<TransferMode> = rows.iter().map(|r| r.mode).collect();
    assert_eq!(modes, CONFIGS, "one row per transfer mode, stop-the-world, precopy, postcopy");
    for r in &rows {
        let label = r.mode.label();
        let c = &r.catalog;
        assert!(r.schedules >= 50, "{label}: campaign too small: {} schedules", r.schedules);
        assert_eq!(r.fired, r.schedules, "{label}: schedules never fired: {:?}", r.repros);
        assert_eq!(r.unexpected_commits, 0, "{label}: schedules never fired: {:?}", r.repros);
        assert_eq!(r.divergences, 0, "{label}: rollback divergence: {:?}", r.repros);
        assert_eq!(r.rerun_mismatches, 0, "{label}: nondeterministic rollback: {:?}", r.repros);
        assert!(r.supervisor_runs > 0, "{label}: no supervised runs");
        assert_eq!(r.supervisor_committed, r.supervisor_runs, "{label}: supervisor failed to converge");
        assert!(r.repros.is_empty(), "{label}: {:?}", r.repros);
        assert_eq!(r.tier_commits, [0, r.supervisor_runs], "{label}: every retry commits stop-the-world");
        assert!(r.give_up_clean, "{label}: give-up drill left the old version unserving");
        assert!(r.watchdog_clean, "{label}: watchdog drill did not roll back cleanly");

        // The catalog: object and syscall sites always, pre-copy round
        // copies as a sub-range of the object writes, and the
        // commit-far-side classes under post-copy only.
        assert!(c.transfer_objects > 0 && c.syscalls > 0, "{label}: object/syscall sites missing");
        assert_eq!(
            c.total_sites(),
            c.boundaries.len() as u64 + c.transfer_objects + c.syscalls + c.fault_ins + c.drain_steps,
            "{label}: catalog sums"
        );
        assert!(c.precopy_copies <= c.transfer_objects, "{label}: precopy copies exceed object writes");
        assert_eq!(c.precopy_copies > 0, r.mode == TransferMode::Precopy, "{label}: precopy copy sites");
        if r.mode == TransferMode::Postcopy {
            assert!(c.fault_ins > 0 && c.drain_steps > 0, "{label}: post-copy fault windows missing");
        }
        assert!(r.sites_injected > 0, "{label}: nothing injected");
        assert!(0.0 < r.coverage_ratio() && r.coverage_ratio() <= 1.0, "{label}: coverage ratio");
    }
    assert_matches_committed("BENCH_chaos.json", &chaos_json(&spec, &rows));
}

/// Checkpoint crash-consistency campaign at smoke scale: every store block
/// of a checkpoint write is a crash point and a torn point, every restore
/// step fails once, and the durable supervisor revives a crashed old
/// instance.
#[test]
fn checkpoint_report_recovers_every_crash_point_and_matches_bench_checkpoint_json() {
    let spec = CheckpointSpec::smoke();
    let out = run_checkpoint_campaign(&spec);
    assert!(out.clean(), "campaign diverged: {:?}", out.repros);
    assert!(out.fingerprint_identical, "restore is not byte-identical");
    assert!(out.restored_serves, "restored instance does not serve");
    assert!(out.blocks > 0, "no store blocks enumerated");
    let drills = out.crash_drills + out.torn_drills;
    assert_eq!(drills, 2 * out.blocks as usize, "a crash or torn point was skipped");
    assert_eq!(out.recovered_durable + out.recovered_fallback, drills, "a crash point did not recover");
    assert!(out.restore_step_drills > 0, "no restore steps drilled");
    assert_eq!(out.restore_step_typed, out.restore_step_drills, "untyped restore-step failure");
    assert_eq!(out.corruption_fallbacks, 3, "corruption drills must fall back to the intact version");
    assert_eq!(out.corruption_typed, 2, "skew/all-corrupt drills must fail typed");
    assert!(out.supervisor_drills > 0, "no supervisor drills");
    assert_eq!(out.supervisor_recovered, out.supervisor_drills, "supervisor failed to recover");
    assert_eq!(out.supervisor_committed, out.supervisor_drills, "recovered ladder failed to commit");
    assert!(out.retention_ok, "retention kept the wrong versions");
    assert!(out.writer_speedup > 1.0, "parallel shard writeback gained nothing: {}", out.writer_speedup);
    assert_matches_committed("BENCH_checkpoint.json", &checkpoint_json(&spec, &out));
}

/// The paper's §8 tables: Tables 1–3, the SPEC-style allocator experiment,
/// the update-time breakdown, Figure 3 and memory usage. Table 3 is a ratio
/// of simulated workload times and the allocator experiment a ratio of heap
/// store counts, so the whole report is deterministic.
#[test]
fn paper_tables_match_bench_paper_json() {
    assert_matches_committed("BENCH_paper.json", &paper_json());
}
