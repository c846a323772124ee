//! # mcr-bench — harnesses regenerating every table and figure of the paper
//!
//! Each experiment of the evaluation section (§8) is split into three layers
//! so the binaries under `src/bin/` and the tests share one implementation:
//!
//! * a `*_rows` function that runs the experiment against the simulated
//!   servers and returns structured rows;
//! * a `*_report` function that renders those rows as the human-readable
//!   table (what the smoke tests assert on);
//! * a `*_json` function that renders the same rows as a machine-readable
//!   [`Json`] document (what the binaries emit to stdout).
//!
//! | Experiment | Rows | Binary |
//! |---|---|---|
//! | Table 1 (programs, updates, engineering effort) | [`table1_rows`] | `table1_effort` |
//! | Table 2 (mutable tracing statistics) | [`table2_rows`] | `table2_tracing` |
//! | Table 3 (run-time overhead) | [`table3_rows`] | `table3_overhead` |
//! | SPEC-style allocator microbenchmark | [`spec_alloc_rows`] | `spec_alloc` |
//! | Update time (per pipeline phase) | [`update_time_rows`] | `update_time` |
//! | Figure 3 (state-transfer time vs. open connections) | [`figure3_series`] | `fig3_state_transfer` |
//! | Memory usage | [`memory_rows`] | `memory_usage` |

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use mcr_core::runtime::{
    boot, live_update, BootOptions, McrInstance, MemoryReport, PrecopyOptions, TransferMode, UpdateOptions,
    UpdateOutcome, UpdatePipeline,
};
use mcr_core::{QuiescenceProfiler, TraceOptions, TracingStats};
use mcr_procsim::Kernel;
use mcr_servers::{
    apply_scenario_writes, install_standard_files, paper_catalog, program_by_name, stamp_request_scratch,
    PrecopyScenario,
};
use mcr_typemeta::{InstrumentationConfig, InstrumentationLevel};
use mcr_workload::{open_idle_connections, run_alloc_bench, run_workload, workload_for, AllocBenchSpec};

pub(crate) mod chaos;
pub(crate) mod checkpoint;
pub(crate) mod fleet;
pub(crate) mod json;
pub(crate) mod microbench;

pub use chaos::{
    chaos_json, enumerate_sites, run_campaign, verify_rollback, ChaosMode, ChaosSpec, ConfigOutcome,
    VerifyResult, CONFIGS,
};
pub use checkpoint::{checkpoint_json, run_checkpoint_campaign, CheckpointOutcome, CheckpointSpec};
pub use fleet::{FleetServer, FLEET_PORT};
pub use json::Json;
pub use microbench::percentile_of;

/// The four evaluated program names, in the paper's order.
pub const PROGRAMS: [&str; 4] = ["httpd", "nginx", "vsftpd", "sshd"];

/// Boots generation `generation` of `program` on a fresh kernel with the
/// given instrumentation configuration.
///
/// # Panics
///
/// Panics if the simulated server fails to boot (a bug in the harness).
pub fn boot_program(program: &str, generation: u32, config: InstrumentationConfig) -> (Kernel, McrInstance) {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let opts = BootOptions { config, layout_slide: 0, start_quiesced: false };
    let instance = boot(&mut kernel, Box::new(program_by_name(program, generation)), &opts)
        .unwrap_or_else(|e| panic!("{program} failed to boot: {e}"));
    (kernel, instance)
}

/// Runs the program's standard workload and returns the wall-clock seconds it
/// took (the quantity normalized in Table 3).
///
/// # Panics
///
/// Panics if the workload cannot run.
pub fn run_standard_workload(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    program: &str,
    requests: u64,
) -> f64 {
    let spec = workload_for(program, requests);
    let result = run_workload(kernel, instance, &spec).expect("workload runs");
    result.wall_time.as_secs_f64().max(1e-9)
}

/// Performs a live update from `generation` to `generation + 1` with `open`
/// extra idle connections established first, returning the outcome.
///
/// # Panics
///
/// Panics if the server fails to boot or the workload cannot run.
pub fn update_with_connections(
    program: &str,
    generation: u32,
    requests: u64,
    open: usize,
    config: InstrumentationConfig,
) -> UpdateOutcome {
    let (mut kernel, mut v1) = boot_program(program, generation, config);
    run_standard_workload(&mut kernel, &mut v1, program, requests);
    let port = workload_for(program, 1).port;
    open_idle_connections(&mut kernel, &mut v1, port, open).expect("idle connections");
    let (_v2, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(program_by_name(program, generation + 1)),
        config,
        &UpdateOptions::default(),
    );
    outcome
}

/// Deterministic digest of everything live-update-visible in the kernel
/// (see [`Kernel::fingerprint`]). The property tests and the tracked
/// reports' sweeps use it to prove that two update configurations
/// converged to byte-identical kernel state.
pub fn kernel_fingerprint(kernel: &Kernel) -> u64 {
    kernel.fingerprint()
}

/// The shared set-up of one point of the pre-copy and adaptive-transfer
/// sweeps. It boots generation 1 of the scenario's program, runs its
/// workload and opens its idle connections (both scaled by `size_factor`),
/// and builds the options for `mode` with `precopy_rounds` concurrent rounds
/// (0 disables pre-copy). `batch` is the pre-quiesce write batch of a round:
/// with pre-copy it runs between the concurrent rounds through the pipeline
/// hook; without, rounds `1..=mutate_rounds` all land up front.
fn sweep_point(
    scenario: &PrecopyScenario,
    size_factor: u64,
    mode: TransferMode,
    precopy_rounds: usize,
    mutate_rounds: usize,
    batch: fn(&mut Kernel, &McrInstance, &PrecopyScenario, usize),
) -> (Kernel, McrInstance, UpdateOptions, UpdatePipeline) {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let mut v1 = boot(&mut kernel, Box::new(program_by_name(scenario.program, 1)), &BootOptions::default())
        .expect("scenario server boots");
    run_workload(&mut kernel, &mut v1, &workload_for(scenario.program, scenario.requests * size_factor))
        .expect("workload runs");
    let port = workload_for(scenario.program, 1).port;
    open_idle_connections(&mut kernel, &mut v1, port, scenario.open_connections * size_factor as usize)
        .expect("idle connections");
    let opts = UpdateOptions {
        mode,
        precopy: if precopy_rounds > 0 {
            PrecopyOptions { rounds: precopy_rounds, convergence_bytes: 0, serve_rounds: 1 }
        } else {
            PrecopyOptions::disabled()
        },
        ..Default::default()
    };
    let mut pipeline = UpdatePipeline::for_options(&opts);
    if precopy_rounds > 0 {
        let scenario = *scenario;
        pipeline = pipeline.with_precopy_hook(Box::new(
            move |kernel: &mut Kernel, old: &mut McrInstance, round: usize| {
                batch(kernel, old, &scenario, round)
            },
        ));
    } else {
        for round in 1..=mutate_rounds {
            batch(&mut kernel, &v1, scenario, round);
        }
    }
    (kernel, v1, opts, pipeline)
}

/// Runs one configuration of a [`PrecopyScenario`] and returns the
/// post-update kernel fingerprint plus the outcome.
///
/// Both configurations apply the *same* deterministic write batches (one
/// per round, stamped `0xC0DE_0000 + round`): the pre-copy run applies them
/// between its concurrent rounds via the pipeline hook, the stop-the-world
/// baseline (`precopy_rounds == 0`) applies all of them before the update —
/// so both runs update the exact same final memory image and must converge
/// to byte-identical kernel state, reports and conflicts, while only the
/// downtime split may differ. `size_factor` scales the pre-update workload
/// (the live-heap axis of the sweep).
///
/// # Panics
///
/// Panics if the server fails to boot or the workload cannot run.
pub fn precopy_update(
    scenario: &PrecopyScenario,
    size_factor: u64,
    precopy_rounds: usize,
    mutate_rounds: usize,
) -> (u64, UpdateOutcome) {
    let (mut kernel, v1, opts, pipeline) = sweep_point(
        scenario,
        size_factor,
        TransferMode::StopTheWorld,
        precopy_rounds,
        mutate_rounds,
        |kernel, instance, scenario, round| {
            apply_scenario_writes(kernel, instance, scenario, 0xC0DE_0000u32 + round as u32);
        },
    );
    let (_survivor, outcome) = pipeline.run(
        &mut kernel,
        v1,
        Box::new(program_by_name(scenario.program, 2)),
        InstrumentationConfig::full(),
        &opts,
    );
    (kernel_fingerprint(&kernel), outcome)
}

/// `request_buf` u32 slots stamped per process by the adaptive-transfer
/// sweep's write workloads (pre-quiesce rounds make the scratch page part
/// of the stale residual; post-resume rounds then trap on it under
/// post-copy).
const SCRATCH_WORDS: usize = 8;

/// One pre-quiesce write batch of the adaptive-transfer sweep: the
/// scenario's connection/cache writes plus a scratch-page stamp, so every
/// mode enters the commit with the same stale residual, scratch page
/// included.
fn adaptive_mutate_batch(
    kernel: &mut Kernel,
    instance: &McrInstance,
    scenario: &PrecopyScenario,
    round: usize,
) {
    let stamp = 0xC0DE_0000u32 + round as u32;
    apply_scenario_writes(kernel, instance, scenario, stamp);
    stamp_request_scratch(kernel, instance, SCRATCH_WORDS, stamp);
}

/// Runs one point of the adaptive-transfer sweep under the given
/// [`TransferMode`] and returns the post-update kernel fingerprint plus the
/// outcome.
///
/// Every mode applies the *same* deterministic write schedule, so all four
/// must converge to byte-identical kernel state and only the downtime split
/// may differ:
///
/// * three pre-quiesce batches (`adaptive_mutate_batch`) — between the
///   concurrent rounds for the pre-copy-enabled modes (`Precopy`,
///   `Adaptive`), all up front for the windowed ones (`StopTheWorld`,
///   `Postcopy`), exactly like [`precopy_update`];
/// * three post-resume scratch stamps ([`stamp_request_scratch`]) — during
///   the drain (via the post-copy hook, where they trap on parked pages and
///   are replayed by the fault handler) for the post-copy pipelines, after
///   the pipeline returns for the synchronous ones. Each batch overwrites
///   the same slots, so the final bytes depend only on the last stamp, not
///   on when a batch landed.
///
/// # Panics
///
/// Panics if the server fails to boot or the workload cannot run.
pub fn adaptive_update(
    scenario: &PrecopyScenario,
    size_factor: u64,
    mode: TransferMode,
) -> (u64, UpdateOutcome) {
    const MUTATE_ROUNDS: usize = 3;
    const POST_ROUNDS: usize = 3;
    let precopy_rounds = match mode {
        TransferMode::Precopy | TransferMode::Adaptive => 3,
        TransferMode::StopTheWorld | TransferMode::Postcopy => 0,
    };
    let (mut kernel, v1, opts, mut pipeline) =
        sweep_point(scenario, size_factor, mode, precopy_rounds, MUTATE_ROUNDS, adaptive_mutate_batch);
    let post_stamp = |round: usize| 0xD0D0_0000u32 + round as u32;
    let delivered = std::rc::Rc::new(std::cell::Cell::new(0usize));
    if matches!(mode, TransferMode::Postcopy | TransferMode::Adaptive) {
        let delivered = std::rc::Rc::clone(&delivered);
        pipeline = pipeline.with_postcopy_hook(Box::new(
            move |kernel: &mut Kernel, new_instance: &mut McrInstance, _round: usize| {
                let done = delivered.get();
                if done < POST_ROUNDS {
                    stamp_request_scratch(kernel, new_instance, SCRATCH_WORDS, post_stamp(done + 1));
                    delivered.set(done + 1);
                }
            },
        ));
    }
    let (survivor, outcome) = pipeline.run(
        &mut kernel,
        v1,
        Box::new(program_by_name(scenario.program, 2)),
        InstrumentationConfig::full(),
        &opts,
    );
    // Post-resume batches the drain did not consume (all of them, for the
    // synchronous modes) land on the committed new instance now.
    if outcome.is_committed() {
        for round in delivered.get() + 1..=POST_ROUNDS {
            stamp_request_scratch(&mut kernel, &survivor, SCRATCH_WORDS, post_stamp(round));
        }
    }
    (kernel_fingerprint(&kernel), outcome)
}

/// Traces every process of an instance and merges the per-process statistics.
pub(crate) fn trace_instance(kernel: &Kernel, instance: &McrInstance) -> TracingStats {
    let mut stats = TracingStats::default();
    for &pid in &instance.state.processes {
        if let Ok(result) =
            mcr_core::tracing::trace_process(kernel, &instance.state, pid, TraceOptions::default())
        {
            stats.merge(&result.stats);
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// Table 1 — programs, updates and engineering effort
// ---------------------------------------------------------------------------

/// One row of Table 1: measured quiescence profile next to the catalogued
/// update and engineering-effort figures.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Program (or `"Total"` for the footer row).
    pub(crate) program: String,
    /// Short-lived process classes.
    pub(crate) short_lived: usize,
    /// Long-lived process/thread classes.
    pub(crate) long_lived: usize,
    /// Quiescent points found by the profiler.
    pub(crate) quiescent_points: usize,
    /// Persistent quiescent points.
    pub(crate) persistent_points: usize,
    /// Volatile quiescent points.
    pub(crate) volatile_points: usize,
    /// Number of catalogued updates.
    pub(crate) updates: u64,
    /// Changed LOC across the updates.
    pub(crate) changed_loc: u64,
    /// Changed functions.
    pub(crate) changed_functions: u64,
    /// Changed variables.
    pub(crate) changed_variables: u64,
    /// Changed types.
    pub(crate) changed_types: u64,
    /// Annotation LOC needed to MCR-enable the program.
    pub(crate) annotation_loc: u64,
    /// State-transfer callback LOC.
    pub(crate) state_transfer_loc: u64,
}

/// Runs the Table 1 experiment: quiescence-profiles every program under the
/// standard workload and joins the result with the paper's update catalogue.
/// The last row is the `Total` footer.
pub fn table1_rows(profile_requests: u64) -> Vec<Table1Row> {
    let catalog = paper_catalog();
    let mut rows = Vec::new();
    for program in PROGRAMS {
        let (mut kernel, mut instance) = boot_program(program, 1, InstrumentationConfig::full());
        run_standard_workload(&mut kernel, &mut instance, program, profile_requests);
        let report = QuiescenceProfiler::analyze(&kernel, &instance.state);
        let entry = catalog.iter().find(|e| e.program == program).expect("catalogued program");
        rows.push(Table1Row {
            program: program.to_string(),
            short_lived: report.short_lived_classes(),
            long_lived: report.long_lived_classes(),
            quiescent_points: report.quiescent_points(),
            persistent_points: report.persistent_points(),
            volatile_points: report.volatile_points(),
            updates: u64::from(entry.updates),
            changed_loc: u64::from(entry.changed_loc),
            changed_functions: u64::from(entry.changed_functions),
            changed_variables: u64::from(entry.changed_variables),
            changed_types: u64::from(entry.changed_types),
            annotation_loc: instance.state.annotations.annotation_loc().max(u64::from(entry.annotation_loc)),
            state_transfer_loc: u64::from(entry.state_transfer_loc),
        });
    }
    let total = Table1Row {
        program: "Total".to_string(),
        short_lived: rows.iter().map(|r| r.short_lived).sum(),
        long_lived: rows.iter().map(|r| r.long_lived).sum(),
        quiescent_points: rows.iter().map(|r| r.quiescent_points).sum(),
        persistent_points: rows.iter().map(|r| r.persistent_points).sum(),
        volatile_points: rows.iter().map(|r| r.volatile_points).sum(),
        updates: rows.iter().map(|r| r.updates).sum(),
        changed_loc: rows.iter().map(|r| r.changed_loc).sum(),
        changed_functions: rows.iter().map(|r| r.changed_functions).sum(),
        changed_variables: rows.iter().map(|r| r.changed_variables).sum(),
        changed_types: rows.iter().map(|r| r.changed_types).sum(),
        annotation_loc: {
            let t = mcr_servers::totals(&catalog);
            u64::from(t.annotation_loc)
        },
        state_transfer_loc: rows.iter().map(|r| r.state_transfer_loc).sum(),
    };
    rows.push(total);
    rows
}

/// Renders Table 1 rows as the human-readable table.
pub fn table1_render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>3} {:>3} {:>3} {:>4} {:>4} | {:>4} {:>7} | {:>5} {:>4} {:>5} | {:>8} {:>7}",
        "program", "SL", "LL", "QP", "Per", "Vol", "Num", "LOC", "Fun", "Var", "Type", "Ann LOC", "ST LOC"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} | {:>3} {:>3} {:>3} {:>4} {:>4} | {:>4} {:>7} | {:>5} {:>4} {:>5} | {:>8} {:>7}",
            r.program,
            r.short_lived,
            r.long_lived,
            r.quiescent_points,
            r.persistent_points,
            r.volatile_points,
            r.updates,
            r.changed_loc,
            r.changed_functions,
            r.changed_variables,
            r.changed_types,
            r.annotation_loc,
            r.state_transfer_loc,
        );
    }
    let _ = writeln!(
        out,
        "(paper totals: SL 6, LL 18, QP 18, Per 9, Vol 9, 40 updates, 40725 LOC, Ann 334, ST 793)"
    );
    out
}

/// Regenerates Table 1 as a human-readable table.
pub fn table1_report(profile_requests: u64) -> String {
    table1_render(&table1_rows(profile_requests))
}

/// Renders Table 1 rows as JSON.
pub fn table1_json(rows: &[Table1Row]) -> Json {
    Json::obj([
        ("experiment", Json::str("table1_effort")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("program", Json::str(&r.program)),
                            ("short_lived", r.short_lived.into()),
                            ("long_lived", r.long_lived.into()),
                            ("quiescent_points", r.quiescent_points.into()),
                            ("persistent_points", r.persistent_points.into()),
                            ("volatile_points", r.volatile_points.into()),
                            ("updates", r.updates.into()),
                            ("changed_loc", r.changed_loc.into()),
                            ("changed_functions", r.changed_functions.into()),
                            ("changed_variables", r.changed_variables.into()),
                            ("changed_types", r.changed_types.into()),
                            ("annotation_loc", r.annotation_loc.into()),
                            ("state_transfer_loc", r.state_transfer_loc.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Table 2 — mutable tracing statistics
// ---------------------------------------------------------------------------

/// One row of Table 2: tracing statistics for one program configuration.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Row label (`nginxreg` is nginx with its region allocator instrumented).
    pub(crate) label: String,
    /// Aggregated tracing statistics after the standard workload.
    pub(crate) stats: TracingStats,
}

/// Runs the Table 2 experiment for every program (plus `nginxreg`).
pub fn table2_rows(requests: u64) -> Vec<Table2Row> {
    let mut configs: Vec<(String, &str, InstrumentationConfig)> =
        PROGRAMS.iter().map(|&p| (p.to_string(), p, InstrumentationConfig::full())).collect();
    configs.insert(
        2,
        ("nginxreg".to_string(), "nginx", InstrumentationConfig::full_with_region_instrumentation()),
    );
    configs
        .into_iter()
        .map(|(label, program, config)| {
            let (mut kernel, mut instance) = boot_program(program, 1, config);
            run_standard_workload(&mut kernel, &mut instance, program, requests);
            let stats = trace_instance(&kernel, &instance);
            Table2Row { label, stats }
        })
        .collect()
}

/// Renders Table 2 rows as the human-readable table.
pub fn table2_render(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>6} {:>7}",
        "program",
        "prec",
        "p.srcSt",
        "p.srcDy",
        "p.tgLib",
        "likely",
        "l.srcSt",
        "l.srcDy",
        "l.tgLib",
        "immut",
        "immut%"
    );
    for r in rows {
        let s = &r.stats;
        let _ = writeln!(
            out,
            "{:<10} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>6} {:>6.1}%",
            r.label,
            s.precise.total,
            s.precise.src_static,
            s.precise.src_dynamic,
            s.precise.targ_lib,
            s.likely.total,
            s.likely.src_static,
            s.likely.src_dynamic,
            s.likely.targ_lib,
            s.immutable_objects,
            s.immutable_fraction() * 100.0,
        );
    }
    let _ = writeln!(out, "(paper: httpd 2373 precise / 16252 likely; nginx 1242/4049; nginxreg 2049/3522; vsftpd 149/6; sshd 237/56)");
    out
}

/// Regenerates Table 2 as a human-readable table.
pub fn table2_report(requests: u64) -> String {
    table2_render(&table2_rows(requests))
}

/// Renders Table 2 rows as JSON.
pub fn table2_json(rows: &[Table2Row]) -> Json {
    Json::obj([
        ("experiment", Json::str("table2_tracing")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        let s = &r.stats;
                        Json::obj([
                            ("program", Json::str(&r.label)),
                            (
                                "precise",
                                Json::obj([
                                    ("total", s.precise.total.into()),
                                    ("src_static", s.precise.src_static.into()),
                                    ("src_dynamic", s.precise.src_dynamic.into()),
                                    ("targ_lib", s.precise.targ_lib.into()),
                                ]),
                            ),
                            (
                                "likely",
                                Json::obj([
                                    ("total", s.likely.total.into()),
                                    ("src_static", s.likely.src_static.into()),
                                    ("src_dynamic", s.likely.src_dynamic.into()),
                                    ("targ_lib", s.likely.targ_lib.into()),
                                ]),
                            ),
                            ("immutable_objects", s.immutable_objects.into()),
                            ("immutable_fraction", Json::Num(s.immutable_fraction())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Table 3 — run-time overhead
// ---------------------------------------------------------------------------

/// One row of Table 3: normalized run time per cumulative instrumentation
/// level.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Row label (`nginxreg` is nginx with region-allocator instrumentation).
    pub(crate) label: String,
    /// Run time at each level beyond baseline, normalized against baseline:
    /// `[Unblock, +SInstr, +DInstr, +QDet]`.
    pub(crate) normalized: [f64; 4],
}

/// Runs the Table 3 experiment: the standard workload at every cumulative
/// instrumentation level, `repeats` times each, keeping the median.
pub fn table3_rows(requests: u64, repeats: u32) -> Vec<Table3Row> {
    let mut rows: Vec<(String, &str, bool)> = PROGRAMS.iter().map(|&p| (p.to_string(), p, false)).collect();
    rows.insert(2, ("nginxreg".to_string(), "nginx", true));
    rows.into_iter()
        .map(|(label, program, region_instr)| {
            let mut medians = Vec::new();
            for level in InstrumentationLevel::ALL {
                let mut samples = Vec::new();
                for _ in 0..repeats.max(1) {
                    let config = InstrumentationConfig {
                        level,
                        instrument_region_allocator: region_instr
                            && level >= InstrumentationLevel::StaticInstr,
                    };
                    let (mut kernel, mut instance) = boot_program(program, 1, config);
                    samples.push(run_standard_workload(&mut kernel, &mut instance, program, requests));
                }
                samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                medians.push(samples[samples.len() / 2]);
            }
            let baseline = medians[0];
            Table3Row {
                label,
                normalized: [
                    medians[1] / baseline,
                    medians[2] / baseline,
                    medians[3] / baseline,
                    medians[4] / baseline,
                ],
            }
        })
        .collect()
}

/// Renders Table 3 rows as the human-readable table.
pub fn table3_render(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>8} {:>8} {:>8} {:>8}",
        "program", "Unblock", "+SInstr", "+DInstr", "+QDet"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            r.label, r.normalized[0], r.normalized[1], r.normalized[2], r.normalized[3],
        );
    }
    let _ = writeln!(out, "(paper: httpd 0.977/1.040/1.043/1.047, nginx 1.000 across, nginxreg 1.000/1.175/1.192/1.186, vsftpd ~1.03, sshd ~1.00)");
    out
}

/// Renders Table 3 rows as JSON.
pub fn table3_json(rows: &[Table3Row]) -> Json {
    Json::obj([
        ("experiment", Json::str("table3_overhead")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("program", Json::str(&r.label)),
                            ("unblockified", Json::Num(r.normalized[0])),
                            ("static_instr", Json::Num(r.normalized[1])),
                            ("dynamic_instr", Json::Num(r.normalized[2])),
                            ("quiescence_detection", Json::Num(r.normalized[3])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// SPEC-style allocator microbenchmark (§8, in-text)
// ---------------------------------------------------------------------------

/// One row of the SPEC-style allocator experiment.
#[derive(Debug, Clone)]
pub struct SpecAllocRow {
    /// Benchmark name.
    pub(crate) name: String,
    /// Median instrumented-over-baseline overhead ratio.
    pub(crate) overhead: f64,
    /// Allocations performed by the instrumented run.
    pub(crate) allocations: u64,
}

/// Runs the SPEC CPU2006-style allocator-instrumentation experiment.
pub fn spec_alloc_rows(scale: u64, repeats: u32) -> Vec<SpecAllocRow> {
    AllocBenchSpec::spec_suite(scale)
        .into_iter()
        .map(|spec| {
            let mut ratios = Vec::new();
            let mut allocs = 0;
            for _ in 0..repeats.max(1) {
                let base = run_alloc_bench(&spec, false);
                let instr = run_alloc_bench(&spec, true);
                allocs = instr.allocations;
                ratios.push(mcr_workload::overhead_ratio(&base, &instr));
            }
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            SpecAllocRow { name: spec.name.clone(), overhead: ratios[ratios.len() / 2], allocations: allocs }
        })
        .collect()
}

/// Renders the allocator-experiment rows as the human-readable table.
pub fn spec_alloc_render(rows: &[SpecAllocRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} | {:>10} | {:>10}", "benchmark", "overhead", "allocs");
    for r in rows {
        let _ = writeln!(out, "{:<16} | {:>9.2}x | {:>10}", r.name, r.overhead, r.allocations);
    }
    let _ = writeln!(out, "(paper: 5% worst case across SPEC, except perlbench at 36%)");
    out
}

/// Regenerates the allocator experiment as a human-readable table.
pub fn spec_alloc_report(scale: u64, repeats: u32) -> String {
    spec_alloc_render(&spec_alloc_rows(scale, repeats))
}

/// Renders the allocator-experiment rows as JSON.
pub fn spec_alloc_json(rows: &[SpecAllocRow]) -> Json {
    Json::obj([
        ("experiment", Json::str("spec_alloc")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("benchmark", Json::str(&r.name)),
                            ("overhead", Json::Num(r.overhead)),
                            ("allocations", r.allocations.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Update time (§8) and Figure 3
// ---------------------------------------------------------------------------

/// One row of the update-time breakdown, including the per-phase trace the
/// staged pipeline records.
#[derive(Debug, Clone)]
pub struct UpdateTimeRow {
    /// Program name.
    pub(crate) program: String,
    /// Quiescence time, ms.
    pub(crate) quiescence_ms: f64,
    /// Control-migration (reinit/replay) time, ms.
    pub(crate) control_migration_ms: f64,
    /// Replay overhead relative to the original startup (fraction).
    pub(crate) replay_overhead: f64,
    /// State-transfer time (parallel per-process strategy), ms.
    pub(crate) state_transfer_ms: f64,
    /// Total unavailability, ms.
    pub(crate) total_ms: f64,
    /// Fraction of traced state skipped thanks to dirty-object tracking.
    pub(crate) dirty_reduction: f64,
    /// `(phase label, duration ms)` for every executed pipeline phase.
    pub(crate) phases: Vec<(String, f64)>,
}

/// Runs the update-time experiment for every program.
///
/// # Panics
///
/// Panics if an update unexpectedly rolls back (a harness bug).
pub fn update_time_rows(requests: u64) -> Vec<UpdateTimeRow> {
    PROGRAMS
        .iter()
        .map(|&program| {
            let outcome = update_with_connections(program, 1, requests, 10, InstrumentationConfig::full());
            assert!(outcome.is_committed(), "{program}: {:?}", outcome.conflicts());
            let report = outcome.report();
            UpdateTimeRow {
                program: program.to_string(),
                quiescence_ms: report.timings.quiescence.as_millis_f64(),
                control_migration_ms: report.timings.control_migration.as_millis_f64(),
                replay_overhead: report.replay_overhead_fraction(),
                state_transfer_ms: report.timings.state_transfer.as_millis_f64(),
                total_ms: report.timings.total.as_millis_f64(),
                dirty_reduction: report.dirty_reduction(),
                phases: report
                    .phases
                    .records()
                    .iter()
                    .map(|r| (r.name.label().to_string(), r.duration.as_millis_f64()))
                    .collect(),
            }
        })
        .collect()
}

/// Renders the update-time rows as the human-readable table.
pub fn update_time_render(rows: &[UpdateTimeRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>12} {:>16} {:>12} {:>12} | {:>10} {:>9}",
        "program", "quiesce(ms)", "ctl-migrate(ms)", "replay-ovh", "st(ms)", "total(ms)", "dirty-red"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} | {:>12.3} {:>16.3} {:>11.1}% {:>12.3} | {:>10.3} {:>8.1}%",
            r.program,
            r.quiescence_ms,
            r.control_migration_ms,
            r.replay_overhead * 100.0,
            r.state_transfer_ms,
            r.total_ms,
            r.dirty_reduction * 100.0,
        );
    }
    let _ = writeln!(out, "(paper: quiescence < 100 ms, control migration < 50 ms with 1-45% replay overhead, state transfer 28-187 ms at 0 connections)");
    out
}

/// Renders the update-time rows as JSON (per-phase durations included).
pub fn update_time_json(rows: &[UpdateTimeRow]) -> Json {
    Json::obj([
        ("experiment", Json::str("update_time")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("program", Json::str(&r.program)),
                            ("quiescence_ms", Json::Num(r.quiescence_ms)),
                            ("control_migration_ms", Json::Num(r.control_migration_ms)),
                            ("replay_overhead", Json::Num(r.replay_overhead)),
                            ("state_transfer_ms", Json::Num(r.state_transfer_ms)),
                            ("total_ms", Json::Num(r.total_ms)),
                            ("dirty_reduction", Json::Num(r.dirty_reduction)),
                            (
                                "phases",
                                Json::Arr(
                                    r.phases
                                        .iter()
                                        .map(|(name, ms)| {
                                            Json::obj([
                                                ("phase", Json::str(name)),
                                                ("duration_ms", Json::Num(*ms)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One point of the Figure 3 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Open connections at update time.
    pub(crate) connections: usize,
    /// State-transfer time in milliseconds (parallel per-process strategy).
    pub state_transfer_ms: f64,
    /// Fraction of state skipped thanks to dirty-object tracking.
    pub dirty_reduction: f64,
}

/// Computes the Figure 3 series for one program.
pub fn figure3_series(program: &str, connections: &[usize], requests: u64) -> Vec<Fig3Point> {
    connections
        .iter()
        .map(|&n| {
            let outcome = update_with_connections(program, 1, requests, n, InstrumentationConfig::full());
            let report = outcome.report();
            Fig3Point {
                connections: n,
                state_transfer_ms: report.timings.state_transfer.as_millis_f64(),
                dirty_reduction: report.dirty_reduction(),
            }
        })
        .collect()
}

/// Computes the Figure 3 series for all four programs.
pub fn figure3_rows(connections: &[usize], requests: u64) -> Vec<(String, Vec<Fig3Point>)> {
    PROGRAMS
        .iter()
        .map(|&program| (program.to_string(), figure3_series(program, connections, requests)))
        .collect()
}

/// Renders the Figure 3 series as the human-readable table.
pub fn figure3_render(rows: &[(String, Vec<Fig3Point>)], connections: &[usize]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<12}", "conns");
    for &c in connections {
        let _ = write!(out, " | {c:>10}");
    }
    let _ = writeln!(out);
    for (program, series) in rows {
        let _ = write!(out, "{program:<12}");
        for point in series {
            let _ = write!(out, " | {:>7.3} ms", point.state_transfer_ms);
        }
        let _ = writeln!(out);
        let _ = write!(out, "{:<12}", "  dirty-red");
        for point in series {
            let _ = write!(out, " | {:>9.0}%", point.dirty_reduction * 100.0);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "(paper: 28-187 ms at 0 connections, ~+371 ms on average at 100 connections; 68-86% dirty-tracking reduction)");
    out
}

/// Renders the Figure 3 series as JSON.
pub fn figure3_json(rows: &[(String, Vec<Fig3Point>)]) -> Json {
    Json::obj([
        ("experiment", Json::str("fig3_state_transfer")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|(program, series)| {
                        Json::obj([
                            ("program", Json::str(program)),
                            (
                                "points",
                                Json::Arr(
                                    series
                                        .iter()
                                        .map(|p| {
                                            Json::obj([
                                                ("connections", p.connections.into()),
                                                ("state_transfer_ms", Json::Num(p.state_transfer_ms)),
                                                ("dirty_reduction", Json::Num(p.dirty_reduction)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Memory usage (§8)
// ---------------------------------------------------------------------------

/// One row of the memory-usage evaluation.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Program name.
    pub(crate) program: String,
    /// Resident bytes of the uninstrumented baseline build.
    pub(crate) baseline: MemoryReport,
    /// Resident bytes of the fully instrumented build.
    pub(crate) instrumented: MemoryReport,
}

impl MemoryRow {
    /// Instrumented-over-baseline resident-set ratio.
    pub(crate) fn overhead(&self) -> f64 {
        self.instrumented.overhead_over(&self.baseline)
    }
}

/// Runs the memory-usage experiment for every program.
pub fn memory_rows(requests: u64) -> Vec<MemoryRow> {
    PROGRAMS
        .iter()
        .map(|&program| {
            let (mut bk, mut bi) = boot_program(program, 1, InstrumentationConfig::baseline());
            run_standard_workload(&mut bk, &mut bi, program, requests);
            let baseline = MemoryReport::measure(&bk, &bi);
            let (mut mk, mut mi) = boot_program(program, 1, InstrumentationConfig::full());
            run_standard_workload(&mut mk, &mut mi, program, requests);
            let instrumented = MemoryReport::measure(&mk, &mi);
            MemoryRow { program: program.to_string(), baseline, instrumented }
        })
        .collect()
}

/// Renders the memory rows as the human-readable table.
pub fn memory_render(rows: &[MemoryRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>14} {:>14} {:>9} | {:>14}",
        "program", "baseline(B)", "mcr(B)", "overhead", "metadata(B)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} | {:>14} {:>14} {:>8.2}x | {:>14}",
            r.program,
            r.baseline.resident_bytes,
            r.instrumented.resident_bytes,
            r.overhead(),
            r.instrumented.metadata_bytes
        );
    }
    let avg = rows.iter().map(MemoryRow::overhead).sum::<f64>() / rows.len().max(1) as f64;
    let _ = writeln!(out, "average overhead: {avg:.2}x (paper: 1.10x-4.84x RSS, 2.89x-3.9x average)");
    out
}

/// Regenerates the memory-usage evaluation as a human-readable table.
pub fn memory_report(requests: u64) -> String {
    memory_render(&memory_rows(requests))
}

/// Renders the memory rows as JSON.
pub fn memory_json(rows: &[MemoryRow]) -> Json {
    let avg = rows.iter().map(MemoryRow::overhead).sum::<f64>() / rows.len().max(1) as f64;
    Json::obj([
        ("experiment", Json::str("memory_usage")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("program", Json::str(&r.program)),
                            ("baseline_bytes", r.baseline.resident_bytes.into()),
                            ("instrumented_bytes", r.instrumented.resident_bytes.into()),
                            ("metadata_bytes", r.instrumented.metadata_bytes.into()),
                            ("overhead", Json::Num(r.overhead())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("average_overhead", Json::Num(avg)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reports_are_nonempty_and_cover_all_programs() {
        let t1 = table1_report(3);
        for p in PROGRAMS {
            assert!(t1.contains(p), "table1 misses {p}");
        }
        let t2 = table2_report(3);
        assert!(t2.contains("nginxreg"));
        let mem = memory_report(3);
        assert!(mem.contains("average overhead"));
    }

    #[test]
    fn figure3_series_scales_with_connections() {
        let series = figure3_series("vsftpd", &[0, 10], 2);
        assert_eq!(series.len(), 2);
        assert!(series[1].state_transfer_ms >= series[0].state_transfer_ms);
    }

    #[test]
    fn update_time_report_commits_every_program() {
        let report = update_time_render(&update_time_rows(2));
        assert!(report.contains("httpd") && report.contains("sshd"));
    }

    #[test]
    fn update_time_rows_carry_the_phase_trace() {
        let rows = update_time_rows(2);
        for row in &rows {
            let labels: Vec<&str> = row.phases.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                labels,
                ["quiesce", "reinit-replay", "match-processes", "trace-and-transfer", "commit"],
                "{} executed the standard pipeline",
                row.program
            );
        }
        let doc = update_time_json(&rows).render();
        assert!(doc.contains("\"phases\""));
        assert!(doc.contains("trace-and-transfer"));
    }

    #[test]
    fn sparse_region_fold_equals_the_dense_word_fold() {
        use mcr_procsim::{Addr, RegionKind, PAGE_SIZE};
        fn fold(hash: &mut u64, value: u64) {
            *hash = (*hash ^ value).wrapping_mul(0x100_0000_01b3);
        }
        // Neither size is a page multiple; the second is not a word multiple
        // either, so its trailing 4 bytes are folded zero-padded.
        let (a, b) = (Addr(0x10000), Addr(0x40000));
        let mut kernel = Kernel::new();
        let pid = kernel.create_process("sparse").unwrap();
        let space = kernel.process_mut(pid).unwrap().space_mut();
        space.map_region(a, 5 * PAGE_SIZE + 96, RegionKind::Heap, "a").unwrap();
        space.map_region(b, 2 * PAGE_SIZE + 100, RegionKind::Mmap, "b").unwrap();
        // Region a: page 0 absent, 1 non-zero, 2 zero but resident, 3 and 4
        // absent, partial page 5 non-zero up to its last byte.
        space.write_bytes(a.offset(PAGE_SIZE + 8), &[0xAB; 24]).unwrap();
        space.fill(a.offset(2 * PAGE_SIZE), 64, 0).unwrap();
        space.write_bytes(a.offset(5 * PAGE_SIZE + 80), &[7; 16]).unwrap();
        // Region b: page 0 non-zero, page 1 and the partial page 2 absent.
        space.write_u64(b.offset(PAGE_SIZE - 8), u64::MAX).unwrap();
        let proc = kernel.process(pid).unwrap();
        let resident: Vec<Vec<bool>> =
            proc.space().regions().map(|r| r.pages().map(|p| p.is_some()).collect()).collect();
        assert_eq!(resident[0], [false, true, true, false, false, true]);
        assert_eq!(resident[1], [true, false, false]);

        // The dense reference folds every fact the fingerprint folds, each
        // region's bytes read densely and zero-padded to a whole word.
        let mut dense = 0xcbf2_9ce4_8422_2325u64;
        for fact in [u64::from(pid.0), proc.fds().len() as u64, proc.thread_count() as u64] {
            fold(&mut dense, fact);
        }
        for region in proc.space().regions() {
            fold(&mut dense, region.base().0);
            fold(&mut dense, region.size());
            let mut bytes = proc.space().read_bytes(region.base(), region.size() as usize).unwrap();
            bytes.resize(bytes.len().next_multiple_of(8), 0);
            for word in bytes.chunks_exact(8) {
                fold(&mut dense, u64::from_le_bytes(word.try_into().unwrap()));
            }
        }
        assert_eq!(kernel_fingerprint(&kernel), dense);
    }

    #[test]
    fn json_documents_parse_shaped_rows() {
        let rows = spec_alloc_rows(5, 1);
        let doc = spec_alloc_json(&rows).render();
        assert!(doc.starts_with("{\"experiment\":\"spec_alloc\""));
        assert!(doc.contains("\"rows\":["));
    }
}
