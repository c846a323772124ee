//! The per-layer metrics of a traced run: what the timed loop already
//! sampled, the "drill" iterations that call layers directly on a workload's
//! pre-update state, the parallel and transfer-mode ablations, and the
//! `procsim` micro-loops.

use std::collections::BTreeMap;
use std::time::Instant;

use mcr_core::runtime::{
    all_quiesced, boot, resume, time_to_recovery, wait_quiescence, BootOptions, McrInstance, PrecopyOptions,
    TransferMode, UpdateOptions, UpdateReport,
};
use mcr_core::tracing::{trace_process, TraceOptions, Tracer, TracingStats};
use mcr_core::transfer::{checkpoint_now, restore_latest, CheckpointSummary};
use mcr_core::PhaseName;
use mcr_procsim::{Kernel, MemStore};
use mcr_servers::{install_standard_files, program_by_name};
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::{run_workload, workload_for};

use crate::micro;
use crate::run::{check, Config, Reference, Samples, Tally};
use crate::spec::{Metric, PER_LAYER};
use crate::stats::{percentile, tail_percentile, Summary};
use crate::trace::Trace;
use crate::workload::{serial_options, Built, Run, Workload};
use crate::workloads::{checkpoint_options, NGINX_LOAD_REQUESTS};

/// Repetitions of each drill and ablation; their medians are reported.
const DRILL_REPEATS: usize = 3;
/// Barrier passes `wait_quiescence` may take (the pipeline's own default).
const QUIESCE_ROUNDS: usize = 1_000;

/// Per-layer values by name. Only names from [`PER_LAYER`] can be set, and
/// every name is emitted: one never set reads 0, "layer not entered".
struct Layers(BTreeMap<&'static str, Summary>);

impl Layers {
    fn set(&mut self, name: &'static str, value: Summary) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    fn set_value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// Sets the median of `samples`, if there are any.
    fn set_samples(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.set(name, Summary::of(samples));
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.median)
    }

    fn finish(self) -> Vec<(&'static Metric, Summary)> {
        PER_LAYER.iter().map(|m| (m, self.0.get(m.name).copied().unwrap_or(Summary::single(0.0)))).collect()
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e6
}

/// `numerator / denominator`, or 0 when the layer did no such work.
fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// A fixed percentile of simulated samples, lowered to the highest one the
/// sample count supports (at least ten samples beyond it) if need be.
fn sim_percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let supported = tail_percentile(samples.len());
    if p > supported {
        eprintln!("note: p{p} of {} samples reported at p{supported}", samples.len());
    }
    percentile(samples, p.min(supported))
}

/// Host nanoseconds one recorded span costs: two clock reads and a push.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let scratch = Trace::new();
    scratch.set_recording(true);
    let start = Instant::now();
    for _ in 0..SPANS {
        drop(scratch.span("probe"));
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// What the timed loop sampled and the last update reported.
fn from_samples(out: &mut Layers, samples: &Samples, trace: &Trace) {
    let report = &samples.report;
    let serve = &samples.serve;
    out.set_value("kernel.syscalls_per_request", per(serve.syscalls as f64, serve.requests as f64));
    out.set_value("scheduler.steps_per_request", per(serve.steps as f64, serve.requests as f64));
    out.set_samples("scheduler.step_ns", &samples.step_ns);
    out.set_samples("scheduler.boot_ms", &samples.boot_ms);
    out.set_samples("costmodel.sim_over_host.serve", &samples.serve_sim_over_host);
    if samples.fill_ms.iter().any(|&ms| ms > 0.0) {
        out.set_samples("servers.cache_fill_ms", &samples.fill_ms);
    }

    out.set_value("interpose.replayed", report.replay.replayed as f64);
    out.set_value("interpose.executed_live", report.replay.executed_live as f64);

    out.set_value("tracing.objects_traced", report.tracing.objects_traced as f64);
    out.set_value("tracing.traced_bytes", report.tracing.traced_bytes as f64);
    out.set_value("tracing.dirty_objects", report.tracing.dirty_objects as f64);
    out.set_value("tracing.precise_pointers", report.tracing.precise.total as f64);
    out.set_value("tracing.likely_pointers", report.tracing.likely.total as f64);

    let sum = |field: fn(&mcr_core::transfer::ProcessTransferReport) -> u64| {
        report.transfer.per_process.iter().map(field).sum::<u64>() as f64
    };
    let phase = Summary::of(&samples.transfer_phase_ms);
    out.set("transfer.phase_host_ms", phase);
    out.set_value("transfer.ns_per_object", per(phase.median * 1e6, sum(|r| r.objects_transferred)));
    out.set_value("transfer.ns_per_kib", per(phase.median * 1e6, sum(|r| r.bytes_transferred) / 1024.0));
    out.set_samples("transfer.precopy_round_wall_ms", &samples.round_wall_ms);
    if report.postcopy.enabled {
        out.set_samples("transfer.drain_wall_ms", &samples.drain_wall_ms);
    }
    let trap_us: Vec<f64> = report.postcopy.trap_service_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.set_value("transfer.trap_service_p50_sim_us", sim_percentile(&trap_us, 50.0));
    out.set_value("transfer.trap_service_p95_sim_us", sim_percentile(&trap_us, 95.0));
    out.set_value("transfer.objects_transferred", sum(|r| r.objects_transferred));
    out.set_value("transfer.bytes_transferred", sum(|r| r.bytes_transferred));
    out.set_value("transfer.objects_skipped_clean", sum(|r| r.objects_skipped_clean));
    out.set_value("transfer.objects_pinned", sum(|r| r.objects_pinned));
    out.set_value("transfer.objects_allocated", sum(|r| r.objects_allocated));
    out.set_value("transfer.precopied_objects", report.precopy.precopied_objects() as f64);
    out.set_value("transfer.residual_objects", report.precopy.residual.objects as f64);
    out.set_value("transfer.residual_bytes", report.precopy.residual.bytes as f64);
    out.set_value("transfer.deferred_objects", report.postcopy.deferred_objects as f64);
    out.set_value("transfer.traps", report.postcopy.traps as f64);
    out.set_value("transfer.trap_objects", report.postcopy.trap_objects as f64);
    out.set_value("transfer.drained_objects", report.postcopy.drained_objects as f64);
    out.set_value("transfer.drain_rounds", report.postcopy.drain_rounds as f64);

    let phases: [(&'static str, PhaseName); 9] = [
        ("pipeline.sim_ms.quiesce", PhaseName::Quiesce),
        ("pipeline.sim_ms.checkpoint", PhaseName::Checkpoint),
        ("pipeline.sim_ms.reinit_replay", PhaseName::ReinitReplay),
        ("pipeline.sim_ms.match_processes", PhaseName::MatchProcesses),
        ("pipeline.sim_ms.precopy", PhaseName::Precopy),
        ("pipeline.sim_ms.trace_and_transfer", PhaseName::TraceAndTransfer),
        ("pipeline.sim_ms.postcopy_commit", PhaseName::PostcopyCommit),
        ("pipeline.sim_ms.postcopy_drain", PhaseName::PostcopyDrain),
        ("pipeline.sim_ms.commit", PhaseName::Commit),
    ];
    for (name, phase) in phases {
        out.set_value(name, report.phases.duration_of(phase).unwrap_or_default().as_millis_f64());
    }
    out.set_value("pipeline.downtime_sim_ms", report.timings.downtime.as_millis_f64());
    out.set_value("pipeline.update_sim_ms", report.timings.total.as_millis_f64());
    out.set_value("pipeline.update_syscalls", report.update_syscalls as f64);
    out.set_value("pipeline.object_writes", report.object_writes as f64);
    out.set_value("pipeline.blackout_p50_sim_ms", sim_percentile(&samples.blackout_sim_ms, 50.0));
    out.set_value("pipeline.blackout_p95_sim_ms", sim_percentile(&samples.blackout_sim_ms, 95.0));
    out.set_value("pipeline.during_update_p99_sim_ms", sim_percentile(&samples.during_update_sim_ms, 99.0));

    out.set_value("supervisor.attempts", report.attempts.len() as f64);
    out.set_value("supervisor.recovered", report.attempts.iter().filter(|a| a.recovered).count() as f64);
    let whole_call_sim_ns = time_to_recovery(report).unwrap_or(report.timings.total).0 as f64;
    if !report.attempts.is_empty() {
        out.set_value("supervisor.time_to_recovery_sim_ms", whole_call_sim_ns / 1e6);
    }

    let update = Summary::of(&samples.update_wall_ms);
    out.set_value(
        "costmodel.sim_over_host.transfer",
        per(report.timings.state_transfer.0 as f64, phase.median * 1e6),
    );
    out.set_value("costmodel.sim_over_host.update", per(whole_call_sim_ns, update.median * 1e6));

    out.set_value("bench.setup_total_s", samples.setup_total_s);
    out.set("bench.update_wall_raw_ms", update);
    out.set_samples("bench.calibration_ms", &samples.reading_ms);
    out.set_samples("bench.rebuild_ms", &samples.rebuild_ms);
    out.set_samples("bench.fingerprint_ms", &samples.fingerprint_ms);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.set_value("bench.update_user_ms", mean(&samples.user_ms));
    out.set_value("bench.update_sys_ms", mean(&samples.sys_ms));
    out.set_samples("bench.minor_faults_per_update", &samples.minor_faults);
    out.set_value("bench.update_wall_iqr_ms", update.iqr());
    out.set_value("bench.iterations", samples.update_wall_ms.len() as f64);
    // Each recording iteration against the silent one right after it, so
    // that a slow minute of the host weighs on both sides of a ratio.
    let ratios: Vec<f64> = samples.update_nominal_ms.chunks_exact(2).map(|pair| pair[0] / pair[1]).collect();
    out.set_value("bench.trace_overhead_pct", (Summary::of(&ratios).median - 1.0) * 100.0);
    // The first timed iteration of a traced run records.
    let spans = trace.spans_in_update(1) as f64;
    out.set_value("bench.span_cost_pct", per(spans * span_cost_ns(), update.median * 1e6) * 100.0);
}

/// Drives the barrier one pass at a time so the passes can be counted;
/// returns them with the host wall of the whole barrier.
fn quiesce(kernel: &mut Kernel, instance: &mut McrInstance, trace: &Trace) -> (u64, f64) {
    let _span = trace.span("wait_quiescence");
    let start = Instant::now();
    let mut passes = 0;
    while !all_quiesced(kernel, instance) && passes < QUIESCE_ROUNDS as u64 {
        passes += 1;
        if wait_quiescence(kernel, instance, 1).is_ok() {
            break;
        }
    }
    (passes, ms_since(start))
}

/// Direct calls into the scheduler, tracer, interposer and (on nginx) the
/// checkpoint layer over freshly built pre-update states.
fn drill(out: &mut Layers, workload: &dyn Workload, cfg: &Config, trace: &Trace) {
    let mut quiesce_ms = Vec::new();
    let mut trace_ms = Vec::new();
    let mut retrace_ms = Vec::new();
    let mut boot_new_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut passes = 0;
    let mut recorded = 0;
    let mut traced = TracingStats::default();
    let mut stale_objects = 0usize;
    let mut checkpoint: Option<CheckpointSummary> = None;
    for _ in 0..DRILL_REPEATS {
        let _span = trace.span("drill");
        let Built { mut kernel, mut instance, ops, .. } = workload.build(cfg.seed, trace);
        recorded = instance.state.interpose.stats().recorded;

        let (rounds, wall) = quiesce(&mut kernel, &mut instance, trace);
        passes = rounds;
        quiesce_ms.push(wall);

        let pids = instance.state.processes.clone();
        let options = TraceOptions::default();
        let span = trace.span("trace_process");
        let start = Instant::now();
        let mut graphs: Vec<_> = pids
            .iter()
            .map(|&pid| trace_process(&kernel, &instance.state, pid, options).expect("live process traces"))
            .collect();
        trace_ms.push(ms_since(start));
        traced = TracingStats::default();
        for result in &graphs {
            traced.merge(&result.stats);
        }
        span.count("objects_traced", traced.objects_traced);
        span.count("traced_bytes", traced.traced_bytes);
        drop(span);

        // One more batch of traffic after a fresh write epoch, then re-scan
        // only what it touched.
        resume(&mut kernel, &mut instance);
        let epochs: Vec<u64> =
            pids.iter().map(|&pid| kernel.advance_write_epoch(pid).expect("live process")).collect();
        workload.extra_traffic(&mut kernel, &mut instance, &ops);
        wait_quiescence(&mut kernel, &mut instance, QUIESCE_ROUNDS).expect("instance quiesces again");
        stale_objects = 0;
        for ((&pid, &since), result) in pids.iter().zip(&epochs).zip(&graphs) {
            let space = kernel.process(pid).expect("live process").space();
            stale_objects +=
                result.graph.iter().filter(|o| space.range_dirty_epoch(o.addr, o.size) > since).count();
        }
        let span = trace.span("retrace_dirty");
        let start = Instant::now();
        for ((&pid, &since), result) in pids.iter().zip(&epochs).zip(&mut graphs) {
            let tracer = Tracer::new(&kernel, &instance.state, pid, options).expect("live process");
            tracer.retrace_dirty(&mut result.graph, since);
        }
        retrace_ms.push(ms_since(start));
        span.count("stale_objects", stale_objects as u64);
        drop(span);

        if workload.drills().checkpoint {
            resume(&mut kernel, &mut instance);
            let mut store = MemStore::new();
            let span = trace.span("checkpoint_now");
            let start = Instant::now();
            let summary = checkpoint_now(&mut kernel, &mut instance, &mut store, &checkpoint_options())
                .expect("checkpoint writes");
            checkpoint_ms.push(ms_since(start));
            span.count("blocks", summary.blocks);
            drop(span);
            checkpoint = Some(summary);
            let _span = trace.span("restore_latest");
            let start = Instant::now();
            restore_latest(&store, &mut || workload.old_program(), None).expect("checkpoint restores");
            restore_ms.push(ms_since(start));
        }
        drop((kernel, instance));

        let mut fresh = workload.fresh_kernel();
        let _span = trace.span("boot_new");
        let start = Instant::now();
        boot(&mut fresh, workload.new_program(), &BootOptions::default()).expect("new version boots");
        boot_new_ms.push(ms_since(start));
    }

    out.set_samples("scheduler.quiesce_wall_ms", &quiesce_ms);
    out.set_value("scheduler.quiesce_rounds", passes as f64);
    out.set_value("interpose.recorded", recorded as f64);
    out.set_samples("interpose.boot_new_wall_ms", &boot_new_ms);
    let trace_wall = Summary::of(&trace_ms);
    out.set("tracing.trace_wall_ms", trace_wall);
    out.set_value("tracing.ns_per_object", per(trace_wall.median * 1e6, traced.objects_traced as f64));
    out.set_value("tracing.ns_per_kib", per(trace_wall.median * 1e6, traced.traced_bytes as f64 / 1024.0));
    let retrace_wall = Summary::of(&retrace_ms);
    out.set("tracing.retrace_dirty_wall_ms", retrace_wall);
    out.set_value(
        "tracing.retrace_ns_per_dirty_object",
        per(retrace_wall.median * 1e6, stale_objects as f64),
    );
    if let Some(summary) = checkpoint {
        let write = Summary::of(&checkpoint_ms);
        let restore = Summary::of(&restore_ms);
        out.set("checkpoint.write_wall_ms", write);
        out.set_value("checkpoint.write_ns_per_block", per(write.median * 1e6, summary.blocks as f64));
        out.set("checkpoint.restore_wall_ms", restore);
        out.set_value(
            "checkpoint.restore_ns_per_delta_kib",
            per(restore.median * 1e6, summary.delta_bytes as f64 / 1024.0),
        );
        out.set_value("checkpoint.blocks", summary.blocks as f64);
        out.set_value("checkpoint.delta_bytes", summary.delta_bytes as f64);
        out.set_value("checkpoint.page_deltas", summary.page_deltas as f64);
        out.set_value("checkpoint.manifest_bytes", summary.manifest_bytes as f64);
    }
}

/// Runs the workload's state and traffic under other options
/// [`DRILL_REPEATS`] times; returns the update walls, the transfer-phase
/// host walls (both ms) and the last report.
fn ablation(
    workload: &dyn Workload,
    cfg: &Config,
    opts: UpdateOptions,
    label: &str,
    reference: &Reference,
    trace: &Trace,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>, UpdateReport) {
    let _span = trace.span("ablation");
    let mut walls = Vec::new();
    let mut phases = Vec::new();
    let mut report = UpdateReport::default();
    for repeat in 0..DRILL_REPEATS {
        let built = workload.build(cfg.seed, trace);
        let mut updated = workload.update(built, &Run::With(opts), trace);
        walls.push(updated.wall_ns as f64 / 1e6);
        phases.push(updated.outcome.report().transfer.host_wall_ns as f64 / 1e6);
        check(workload, &mut updated, Some(reference), None, &format!("{label} {repeat}"), tally);
        report = updated.outcome.report().clone();
    }
    (walls, phases, report)
}

/// The parallel ablation and the transfer-mode sweep, on the workloads that
/// declare them.
fn ablations(
    out: &mut Layers,
    workload: &dyn Workload,
    cfg: &Config,
    samples: &Samples,
    reference: &Reference,
    trace: &Trace,
    tally: &mut Tally,
) {
    let drills = workload.drills();
    if let Some(parallel) = drills.parallel {
        let (_, phases, report) =
            ablation(workload, cfg, parallel.opts, parallel.wall_ratio, reference, trace, tally);
        let serial = &samples.report.timings.state_transfer;
        out.set_value(
            parallel.wall_ratio,
            per(Summary::of(&phases).median, Summary::of(&samples.transfer_phase_ms).median),
        );
        out.set_value(parallel.sim_ratio, per(report.timings.state_transfer.0 as f64, serial.0 as f64));
    }
    if drills.mode_sweep {
        let rounds = PrecopyOptions { rounds: 3, convergence_bytes: 0, serve_rounds: 1 };
        let modes = [
            ("pipeline.mode_wall_ms.stw", TransferMode::StopTheWorld, PrecopyOptions::disabled()),
            ("pipeline.mode_wall_ms.precopy", TransferMode::Precopy, rounds),
            ("pipeline.mode_wall_ms.postcopy", TransferMode::Postcopy, PrecopyOptions::disabled()),
            ("pipeline.mode_wall_ms.adaptive", TransferMode::Adaptive, rounds),
        ];
        for (name, mode, precopy) in modes {
            let opts = UpdateOptions { mode, precopy, ..serial_options() };
            let (walls, _, _) = ablation(workload, cfg, opts, name, reference, trace, tally);
            out.set_samples(name, &walls);
        }
    }
}

/// nginx only: the load phase without instrumentation, and the client
/// driver's own cost.
fn nginx_load(out: &mut Layers, samples: &Samples) {
    const REQUESTS: u64 = NGINX_LOAD_REQUESTS;
    let mut baseline = Vec::new();
    for _ in 0..DRILL_REPEATS {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        let opts = BootOptions { config: InstrumentationConfig::baseline(), ..Default::default() };
        let mut instance =
            boot(&mut kernel, Box::new(program_by_name("nginx", 1)), &opts).expect("nginx boots");
        let result =
            run_workload(&mut kernel, &mut instance, &workload_for("nginx", REQUESTS)).expect("load runs");
        baseline.push(result.requests_per_second());
    }
    let baseline = Summary::of(&baseline);
    out.set("servers.baseline_req_per_s", baseline);
    let instrumented = Summary::of(&samples.serve_req_per_s).median;
    out.set_value("servers.instr_overhead_pct", (per(baseline.median, instrumented) - 1.0) * 100.0);

    // The driver's calls against a listening kernel whose server never
    // steps: connect, send, (empty) receive, close.
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let _instance = boot(&mut kernel, Box::new(program_by_name("nginx", 1)), &BootOptions::default())
        .expect("nginx boots");
    let spec = workload_for("nginx", 1);
    let mut driver = Vec::new();
    for _ in 0..DRILL_REPEATS {
        let start = Instant::now();
        for _ in 0..REQUESTS {
            let conn = kernel.client_connect(spec.port).expect("nginx listening");
            kernel.client_send(conn, spec.request.clone()).expect("send");
            std::hint::black_box(kernel.client_recv(conn));
            kernel.client_close(conn).expect("close");
        }
        driver.push(start.elapsed().as_nanos() as f64 / REQUESTS as f64);
    }
    out.set_samples("workload.driver_ns_per_request", &driver);
}

/// Update wall minus what the drills attribute to layers, scaled by how
/// often the call enters each: once per attempt for the barrier, the
/// new-version boot and the trace/transfer phase (whose host wall already
/// holds the trace); once per attempt plus one up front for a checkpoint;
/// once per recovery for a restore. Concurrent pre-copy rounds and the
/// post-copy drain are not attributed.
fn unattributed(out: &mut Layers, samples: &Samples) {
    let report = &samples.report;
    let attempts = report.attempts.len().max(1) as f64;
    let checkpoints = if report.checkpoint.is_some() { attempts + 1.0 } else { 0.0 };
    let restores = report.attempts.iter().filter(|a| a.recovered).count() as f64;
    let attributed = attempts
        * (out.median("scheduler.quiesce_wall_ms")
            + out.median("interpose.boot_new_wall_ms")
            + out.median("transfer.phase_host_ms"))
        + checkpoints * out.median("checkpoint.write_wall_ms")
        + restores * out.median("checkpoint.restore_wall_ms");
    let update = Summary::of(&samples.update_wall_ms).median;
    out.set_value("pipeline.unattributed_wall_ms", update - attributed);
    out.set_value("pipeline.unattributed_share", per(update - attributed, update));
}

/// Every per-layer metric of one traced run, in table order.
pub fn measure(
    workload: &dyn Workload,
    cfg: &Config,
    samples: &Samples,
    reference: &Reference,
    trace: &Trace,
    tally: &mut Tally,
) -> Vec<(&'static Metric, Summary)> {
    let mut out = Layers(BTreeMap::new());
    {
        let _span = trace.span("micro_loops");
        for (name, value) in micro::run() {
            out.set(name, value);
        }
    }
    from_samples(&mut out, samples, trace);
    drill(&mut out, workload, cfg, trace);
    ablations(&mut out, workload, cfg, samples, reference, trace, tally);
    if workload.drills().nginx_load {
        nginx_load(&mut out, samples);
    }
    unattributed(&mut out, samples);
    out.finish()
}
