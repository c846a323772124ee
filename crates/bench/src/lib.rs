//! # mcr-bench — the paper's tables and the tracked reports' harnesses
//!
//! Each experiment of the evaluation section (§8) is a `*_rows` function
//! that runs it against the simulated servers and returns structured rows,
//! and a `*_json` function that renders those rows. [`paper_json`] joins the
//! seven into `BENCH_paper.json`, which `tests/tracked_reports.rs` rebuilds
//! and compares byte for byte with the committed file, next to the chaos,
//! checkpoint, pre-copy and adaptive-transfer reports whose harnesses also
//! live here.
//!
//! | Experiment | Rows | Measure |
//! |---|---|---|
//! | Table 1 (programs, updates, engineering effort) | `table1_rows` | profiled; catalogue figures quoted |
//! | Table 2 (mutable tracing statistics) | `table2_rows` | counted |
//! | Table 3 (run-time overhead) | `table3_rows` | simulated time |
//! | SPEC-style allocator microbenchmark | `spec_alloc_rows` | counted heap stores |
//! | Update time (per pipeline phase) | `update_time_rows` | simulated time |
//! | Figure 3 (state-transfer time vs. open connections) | `figure3_rows` | simulated time |
//! | Memory usage | `memory_rows` | counted bytes |

#![forbid(unsafe_code)]

use mcr_core::runtime::{
    boot, live_update, BootOptions, McrInstance, MemoryReport, PhaseName, PrecopyOptions, TransferMode,
    UpdateOptions, UpdateOutcome, UpdatePipeline, UpdateReport,
};
use mcr_core::{QuiescenceProfiler, TraceOptions, TracingStats};
use mcr_procsim::{Kernel, SimDuration};
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
    chaos_json, enumerate_sites, run_campaign, verify_rollback, ChaosSpec, ConfigOutcome, VerifyResult,
    CONFIGS,
};
pub use checkpoint::{checkpoint_json, run_checkpoint_campaign, CheckpointOutcome, CheckpointSpec};
pub use fleet::{FleetServer, FLEET_PORT};
pub use json::Json;
pub use microbench::percentile_of;

/// The four evaluated program names, in the paper's order.
const PROGRAMS: [&str; 4] = ["httpd", "nginx", "vsftpd", "sshd"];

/// Boots generation `generation` of `program` on a fresh kernel with the
/// given instrumentation configuration.
///
/// # Panics
///
/// Panics if the simulated server fails to boot (a bug in the harness).
pub(crate) fn boot_program(
    program: &str,
    generation: u32,
    config: InstrumentationConfig,
) -> (Kernel, McrInstance) {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let opts = BootOptions { config, layout_slide: 0, start_quiesced: false };
    let instance = boot(&mut kernel, Box::new(program_by_name(program, generation)), &opts)
        .unwrap_or_else(|e| panic!("{program} failed to boot: {e}"));
    (kernel, instance)
}

/// Runs the program's standard workload and returns the simulated time it
/// took (the quantity normalized in Table 3).
///
/// # Panics
///
/// Panics if the workload cannot run.
pub(crate) fn run_standard_workload(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    program: &str,
    requests: u64,
) -> SimDuration {
    run_workload(kernel, instance, &workload_for(program, requests)).expect("workload runs").sim_time
}

/// Performs a live update from `generation` to `generation + 1` with `open`
/// extra idle connections established first, returning the outcome.
///
/// # Panics
///
/// Panics if the server fails to boot or the workload cannot run.
fn update_with_connections(
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
/// Every mode applies the *same* deterministic write schedule, so all three
/// must converge to byte-identical kernel state and only the downtime split
/// may differ:
///
/// * three pre-quiesce batches (`adaptive_mutate_batch`) — between the
///   concurrent rounds under `Precopy`, all up front under `StopTheWorld`
///   and `Postcopy`, exactly like [`precopy_update`];
/// * three post-resume scratch stamps ([`stamp_request_scratch`]) — during
///   the drain under `Postcopy` (via the post-copy hook, where they trap on
///   parked pages and are replayed by the fault handler), after the pipeline
///   returns for the synchronous modes. Each batch overwrites the same
///   slots, so the final bytes depend only on the last stamp, not on when a
///   batch landed.
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
    let precopy_rounds = if mode == TransferMode::Precopy { 3 } else { 0 };
    let (mut kernel, v1, opts, mut pipeline) =
        sweep_point(scenario, size_factor, mode, precopy_rounds, MUTATE_ROUNDS, adaptive_mutate_batch);
    let post_stamp = |round: usize| 0xD0D0_0000u32 + round as u32;
    let delivered = std::rc::Rc::new(std::cell::Cell::new(0usize));
    if mode == TransferMode::Postcopy {
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
fn trace_instance(kernel: &Kernel, instance: &McrInstance) -> TracingStats {
    let mut stats = TracingStats::default();
    for &pid in &instance.state.processes {
        if let Ok(result) = mcr_core::tracing::trace_process(kernel, &instance.state, pid, TraceOptions) {
            stats.merge(&result.stats);
        }
    }
    stats
}

/// The paper's §8 evaluation as one document, `BENCH_paper.json`: the seven
/// experiments at the sizes the tracked report records, one
/// `{"experiment", "rows", ..}` section each.
pub fn paper_json() -> Json {
    let sections = vec![
        table1_json(&table1_rows(20)),
        table2_json(&table2_rows(30)),
        table3_json(&table3_rows(200)),
        spec_alloc_json(&spec_alloc_rows(20)),
        update_time_json(&update_time_rows(20)),
        figure3_json(&figure3_rows(&[0, 10, 25, 50, 75, 100], 10)),
        memory_json(&memory_rows(50)),
    ];
    Json::obj([("experiment", Json::str("paper_tables")), ("sections", Json::Arr(sections))])
}

/// One section of [`paper_json`]: the experiment's name, its rows, then any
/// trailing fields.
fn section<const N: usize>(
    experiment: &str,
    rows: impl Iterator<Item = Json>,
    trailer: [(&str, Json); N],
) -> Json {
    let mut fields = vec![
        ("experiment".to_string(), Json::str(experiment)),
        ("rows".to_string(), Json::Arr(rows.collect())),
    ];
    fields.extend(trailer.map(|(key, value)| (key.to_string(), value)));
    Json::Obj(fields)
}

// ---------------------------------------------------------------------------
// Table 1 — programs, updates and engineering effort
// ---------------------------------------------------------------------------

/// Table 1's columns, in the order of [`Table1Row::counts`]: the measured
/// quiescence profile, then the catalogued update and effort figures.
const TABLE1_COLUMNS: [&str; 12] = [
    "short_lived",
    "long_lived",
    "quiescent_points",
    "persistent_points",
    "volatile_points",
    "updates",
    "changed_loc",
    "changed_functions",
    "changed_variables",
    "changed_types",
    "annotation_loc",
    "state_transfer_loc",
];

/// One row of Table 1.
struct Table1Row {
    /// Program (or `"Total"` for the footer row).
    program: &'static str,
    /// One count per [`TABLE1_COLUMNS`] entry.
    counts: [u64; 12],
}

/// Runs the Table 1 experiment: quiescence-profiles every program under the
/// standard workload and joins the result with the paper's update catalogue.
/// The last row is the `Total` footer, the column sums.
fn table1_rows(profile_requests: u64) -> Vec<Table1Row> {
    let catalog = paper_catalog();
    let mut rows: Vec<Table1Row> = PROGRAMS
        .iter()
        .map(|&program| {
            let (mut kernel, mut instance) = boot_program(program, 1, InstrumentationConfig::full());
            run_standard_workload(&mut kernel, &mut instance, program, profile_requests);
            let p = QuiescenceProfiler::analyze(&kernel, &instance.state);
            let e = catalog.iter().find(|e| e.program == program).expect("catalogued program");
            let n = |count: usize| count as u64;
            let counts = [
                n(p.short_lived_classes()),
                n(p.long_lived_classes()),
                n(p.quiescent_points()),
                n(p.persistent_points()),
                n(p.volatile_points()),
                e.updates.into(),
                e.changed_loc.into(),
                e.changed_functions.into(),
                e.changed_variables.into(),
                e.changed_types.into(),
                e.annotation_loc.into(),
                e.state_transfer_loc.into(),
            ];
            Table1Row { program, counts }
        })
        .collect();
    let counts = std::array::from_fn(|column| rows.iter().map(|r| r.counts[column]).sum());
    rows.push(Table1Row { program: "Total", counts });
    rows
}

fn table1_json(rows: &[Table1Row]) -> Json {
    let row = |r: &Table1Row| {
        let counts = TABLE1_COLUMNS.iter().zip(r.counts).map(|(&column, n)| (column.to_string(), n.into()));
        Json::Obj(std::iter::once(("program".to_string(), Json::str(r.program))).chain(counts).collect())
    };
    section("table1_effort", rows.iter().map(row), [])
}

// ---------------------------------------------------------------------------
// Tables 2 and 3 — mutable tracing statistics and run-time overhead
// ---------------------------------------------------------------------------

/// The configurations Tables 2 and 3 measure: `(label, program, region
/// allocator instrumented)`. `nginxreg` is nginx with its region allocator
/// instrumented.
const TABLE_CONFIGS: [(&str, &str, bool); 5] = [
    ("httpd", "httpd", false),
    ("nginx", "nginx", false),
    ("nginxreg", "nginx", true),
    ("vsftpd", "vsftpd", false),
    ("sshd", "sshd", false),
];

/// The build of a [`TABLE_CONFIGS`] entry at `level`: the region allocator
/// is instrumented from static instrumentation on.
fn config_at(level: InstrumentationLevel, region_instr: bool) -> InstrumentationConfig {
    InstrumentationConfig {
        level,
        instrument_region_allocator: region_instr && level >= InstrumentationLevel::StaticInstr,
    }
}

/// Runs the Table 2 experiment: traces every configuration of
/// [`TABLE_CONFIGS`] after its standard workload.
fn table2_rows(requests: u64) -> Vec<(&'static str, TracingStats)> {
    TABLE_CONFIGS
        .iter()
        .map(|&(label, program, region_instr)| {
            let config = config_at(InstrumentationLevel::QuiescenceDetection, region_instr);
            let (mut kernel, mut instance) = boot_program(program, 1, config);
            run_standard_workload(&mut kernel, &mut instance, program, requests);
            (label, trace_instance(&kernel, &instance))
        })
        .collect()
}

fn table2_json(rows: &[(&str, TracingStats)]) -> Json {
    let counts = |c: &mcr_core::tracing::PointerStats| {
        Json::obj([
            ("total", c.total.into()),
            ("src_static", c.src_static.into()),
            ("src_dynamic", c.src_dynamic.into()),
            ("targ_lib", c.targ_lib.into()),
        ])
    };
    let row = |(label, s): &(&str, TracingStats)| {
        Json::obj([
            ("program", Json::str(*label)),
            ("precise", counts(&s.precise)),
            ("likely", counts(&s.likely)),
            ("immutable_objects", s.immutable_objects.into()),
            ("immutable_fraction", s.immutable_fraction().into()),
        ])
    };
    section("table2_tracing", rows.iter().map(row), [])
}

/// Runs the Table 3 experiment: the standard workload at every cumulative
/// instrumentation level, its simulated time normalized against the
/// baseline's as `[Unblock, +SInstr, +DInstr, +QDet]`.
fn table3_rows(requests: u64) -> Vec<(&'static str, [f64; 4])> {
    TABLE_CONFIGS
        .iter()
        .map(|&(label, program, region_instr)| {
            let times = InstrumentationLevel::ALL.map(|level| {
                let (mut kernel, mut instance) = boot_program(program, 1, config_at(level, region_instr));
                run_standard_workload(&mut kernel, &mut instance, program, requests).0 as f64
            });
            (label, std::array::from_fn(|i| times[i + 1] / times[0]))
        })
        .collect()
}

fn table3_json(rows: &[(&str, [f64; 4])]) -> Json {
    let row = |&(label, [unblock, sinstr, dinstr, qdet]): &(&str, [f64; 4])| {
        Json::obj([
            ("program", Json::str(label)),
            ("unblockified", unblock.into()),
            ("static_instr", sinstr.into()),
            ("dynamic_instr", dinstr.into()),
            ("quiescence_detection", qdet.into()),
        ])
    };
    section("table3_overhead", rows.iter().map(row), [("measure", Json::str("simulated_time_ratio"))])
}

// ---------------------------------------------------------------------------
// SPEC-style allocator microbenchmark (§8, in-text)
// ---------------------------------------------------------------------------

/// One row of the SPEC-style allocator experiment.
struct SpecAllocRow {
    /// Benchmark name.
    name: String,
    /// Instrumented-over-baseline ratio of the heap's store counts.
    overhead: f64,
    /// Allocations performed by the instrumented run.
    allocations: u64,
}

/// Runs the SPEC CPU2006-style allocator-instrumentation experiment.
fn spec_alloc_rows(scale: u64) -> Vec<SpecAllocRow> {
    AllocBenchSpec::spec_suite(scale)
        .into_iter()
        .map(|spec| {
            let base = run_alloc_bench(&spec, false);
            let instr = run_alloc_bench(&spec, true);
            SpecAllocRow {
                overhead: mcr_workload::overhead_ratio(&base, &instr),
                allocations: instr.allocations,
                name: spec.name,
            }
        })
        .collect()
}

fn spec_alloc_json(rows: &[SpecAllocRow]) -> Json {
    let row = |r: &SpecAllocRow| {
        Json::obj([
            ("benchmark", Json::str(&r.name)),
            ("overhead", r.overhead.into()),
            ("allocations", r.allocations.into()),
        ])
    };
    section("spec_alloc", rows.iter().map(row), [("measure", Json::str("heap_store_ratio"))])
}

// ---------------------------------------------------------------------------
// Update time (§8) and Figure 3
// ---------------------------------------------------------------------------

/// Runs the update-time experiment: one update of every program with 10
/// idle connections open.
///
/// # Panics
///
/// Panics if an update rolls back (a harness bug).
fn update_time_rows(requests: u64) -> Vec<(&'static str, UpdateReport)> {
    PROGRAMS
        .iter()
        .map(|&program| {
            match update_with_connections(program, 1, requests, 10, InstrumentationConfig::full()) {
                UpdateOutcome::Committed(report) => (program, report),
                rolled_back => panic!("{program}: {:?}", rolled_back.conflicts()),
            }
        })
        .collect()
}

fn update_time_json(rows: &[(&str, UpdateReport)]) -> Json {
    let row = |(program, r): &(&str, UpdateReport)| {
        let phase_ms = |name| r.phases.duration_of(name).unwrap_or_default().as_millis_f64().into();
        let phases = r.phases.records().iter().map(|p| {
            Json::obj([
                ("phase", Json::str(p.name.label())),
                ("duration_ms", p.duration.as_millis_f64().into()),
            ])
        });
        Json::obj([
            ("program", Json::str(*program)),
            ("quiescence_ms", phase_ms(PhaseName::Quiesce)),
            ("control_migration_ms", phase_ms(PhaseName::ReinitReplay)),
            ("replay_overhead", r.replay_overhead_fraction().into()),
            ("state_transfer_ms", r.timings.state_transfer.as_millis_f64().into()),
            ("total_ms", r.timings.total.as_millis_f64().into()),
            ("dirty_reduction", r.dirty_reduction().into()),
            ("phases", Json::Arr(phases.collect())),
        ])
    };
    section("update_time", rows.iter().map(row), [])
}

/// The Figure 3 series of one program: one update per connection count,
/// paired with that count.
fn figure3_series(program: &str, connections: &[usize], requests: u64) -> Vec<(usize, UpdateReport)> {
    connections
        .iter()
        .map(|&n| {
            let outcome = update_with_connections(program, 1, requests, n, InstrumentationConfig::full());
            (n, outcome.report().clone())
        })
        .collect()
}

/// Computes the Figure 3 series for all four programs.
fn figure3_rows(connections: &[usize], requests: u64) -> Vec<(&'static str, Vec<(usize, UpdateReport)>)> {
    PROGRAMS.iter().map(|&program| (program, figure3_series(program, connections, requests))).collect()
}

fn figure3_json(rows: &[(&str, Vec<(usize, UpdateReport)>)]) -> Json {
    let point = |(connections, r): &(usize, UpdateReport)| {
        Json::obj([
            ("connections", (*connections).into()),
            ("state_transfer_ms", r.timings.state_transfer.as_millis_f64().into()),
            ("dirty_reduction", r.dirty_reduction().into()),
        ])
    };
    let row = |(program, series): &(&str, Vec<(usize, UpdateReport)>)| {
        Json::obj([
            ("program", Json::str(*program)),
            ("points", Json::Arr(series.iter().map(point).collect())),
        ])
    };
    section("fig3_state_transfer", rows.iter().map(row), [])
}

// ---------------------------------------------------------------------------
// Memory usage (§8)
// ---------------------------------------------------------------------------

/// One row of the memory-usage evaluation.
struct MemoryRow {
    /// Program name.
    program: &'static str,
    /// Resident bytes of the uninstrumented baseline build.
    baseline: MemoryReport,
    /// Resident bytes of the fully instrumented build.
    instrumented: MemoryReport,
}

impl MemoryRow {
    /// Instrumented-over-baseline resident-set ratio.
    fn overhead(&self) -> f64 {
        self.instrumented.overhead_over(&self.baseline)
    }
}

/// Runs the memory-usage experiment for every program.
fn memory_rows(requests: u64) -> Vec<MemoryRow> {
    let measure = |program: &str, config| {
        let (mut kernel, mut instance) = boot_program(program, 1, config);
        run_standard_workload(&mut kernel, &mut instance, program, requests);
        MemoryReport::measure(&kernel, &instance)
    };
    PROGRAMS
        .iter()
        .map(|&program| MemoryRow {
            program,
            baseline: measure(program, InstrumentationConfig::baseline()),
            instrumented: measure(program, InstrumentationConfig::full()),
        })
        .collect()
}

fn memory_json(rows: &[MemoryRow]) -> Json {
    let avg = rows.iter().map(MemoryRow::overhead).sum::<f64>() / rows.len().max(1) as f64;
    let row = |r: &MemoryRow| {
        Json::obj([
            ("program", Json::str(r.program)),
            ("baseline_bytes", r.baseline.resident_bytes.into()),
            ("instrumented_bytes", r.instrumented.resident_bytes.into()),
            ("metadata_bytes", r.instrumented.metadata_bytes.into()),
            ("overhead", r.overhead().into()),
        ])
    };
    section("memory_usage", rows.iter().map(row), [("average_overhead", avg.into())])
}

#[cfg(test)]
mod tests {
    use mcr_core::runtime::PhaseName;

    use super::*;

    #[test]
    fn table_reports_are_nonempty_and_cover_all_programs() {
        let t1 = table1_rows(5);
        let programs: Vec<&str> = t1.iter().map(|r| r.program).collect();
        assert_eq!(programs, ["httpd", "nginx", "vsftpd", "sshd", "Total"]);
        let ann = TABLE1_COLUMNS.iter().position(|&c| c == "annotation_loc").unwrap();
        assert_eq!(t1[4].counts[ann], 334, "the paper's annotation total");

        let mem = memory_rows(10);
        assert_eq!(mem.iter().map(|r| r.program).collect::<Vec<_>>(), PROGRAMS);
        for r in &mem {
            assert!(
                r.overhead() >= 1.0,
                "{}: instrumentation never shrinks memory: {}",
                r.program,
                r.overhead()
            );
        }
    }

    #[test]
    fn table2_likely_pointer_shape_follows_allocator_instrumentation() {
        let rows = table2_rows(10);
        assert_eq!(rows.iter().map(|r| r.0).collect::<Vec<_>>(), TABLE_CONFIGS.map(|c| c.0));
        let stats = |label: &str| &rows.iter().find(|r| r.0 == label).unwrap().1;
        // Uninstrumented custom allocators (httpd pools) make likely pointers a
        // far larger share of all pointers than in a fully instrumented
        // malloc-based program (vsftpd), and instrumenting nginx's region
        // allocator (nginxreg) reduces its likely-pointer population.
        let share = |label: &str| {
            let s = stats(label);
            s.likely.total as f64 / (s.likely.total + s.precise.total).max(1) as f64
        };
        assert!(share("httpd") > share("vsftpd"), "httpd {} vs vsftpd {}", share("httpd"), share("vsftpd"));
        assert!(stats("nginxreg").likely.total <= stats("nginx").likely.total);
    }

    #[test]
    fn figure3_series_scales_with_connections() {
        let series = figure3_series("sshd", &[0, 20], 3);
        let (idle, busy) = (&series[0].1, &series[1].1);
        assert!(busy.timings.state_transfer > idle.timings.state_transfer);
        assert!(busy.dirty_reduction() > 0.0, "dirty tracking skips clean startup state");
    }

    #[test]
    fn update_time_report_commits_every_program() {
        for program in PROGRAMS {
            let outcome = update_with_connections(program, 1, 3, 5, InstrumentationConfig::full());
            assert!(outcome.is_committed(), "{program}: {:?}", outcome.conflicts());
        }
    }

    #[test]
    fn update_time_rows_carry_the_phase_trace() {
        let rows = update_time_rows(2);
        assert_eq!(rows.iter().map(|r| r.0).collect::<Vec<_>>(), PROGRAMS);
        for (program, report) in &rows {
            let phases: Vec<PhaseName> = report.phases.records().iter().map(|p| p.name).collect();
            assert_eq!(phases, PhaseName::ALL, "{program} executed the standard pipeline");
        }
    }

    #[test]
    fn spec_alloc_rows_flag_perlbench_as_worst_case() {
        let rows = spec_alloc_rows(3);
        let worst = rows.iter().max_by(|a, b| a.overhead.total_cmp(&b.overhead)).unwrap();
        assert_eq!(worst.name, "perlbench-like");
        assert!(rows.iter().all(|r| r.overhead > 1.0), "instrumentation adds heap stores to every benchmark");
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
        let pid = kernel.create_process("sparse");
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
        let doc = spec_alloc_json(&spec_alloc_rows(5)).render();
        assert!(doc.starts_with("{\"experiment\":\"spec_alloc\""));
        assert!(doc.contains("\"rows\":["));
    }
}
