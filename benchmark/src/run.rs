//! One run of one workload: set-up passes with the reference-execution
//! check, the timed loop, and (traced) the per-layer measurements.

use std::time::Instant;

use mcr_bench::kernel_fingerprint;
use mcr_core::runtime::UpdateReport;
use mcr_core::transfer::ProcessTransferReport;
use mcr_core::Conflict;

use crate::calibrate::{to_nominal, Calibrator};
use crate::host::peak_rss_mb;
use crate::layers;
use crate::spec::{Metric, END_TO_END};
use crate::stats::Summary;
use crate::trace::Trace;
use crate::workload::{Run, Serve, Updated, Workload};
use crate::workloads;

/// Set-up passes before the first timed iteration: the warm-ups. The first
/// is cold (the heap grows, pages fault in), so the median of four is the
/// middle one of the three warm ones.
const SETUP_PASSES: usize = 4;
/// Timed iterations a run makes even when `--seconds` is already spent; the
/// workloads are sized so that it rarely is.
const MIN_ITERATIONS: usize = 30;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What every later update must match: the reference execution's
/// per-process reports and conflicts, and the kernel fingerprint (the
/// reference execution's too, except where the workload says its own
/// configuration cannot reproduce it byte for byte).
pub struct Reference {
    fingerprint: u64,
    per_process: Vec<ProcessTransferReport>,
    conflicts: Vec<Conflict>,
}

impl Reference {
    fn of(updated: &Updated, fingerprint: u64) -> Self {
        Reference {
            fingerprint,
            per_process: updated.outcome.report().transfer.per_process.clone(),
            conflicts: updated.outcome.conflicts().to_vec(),
        }
    }
}

/// Operations attempted and failed over the whole run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reader.
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.fail_many(1, what);
    }

    fn fail_many(&mut self, operations: u64, what: String) {
        self.failed += operations;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}

/// Host-time samples of the timed loop, one entry per iteration unless
/// noted. `nominal` samples are scaled by the calibration readings taken
/// around them (see `calibrate`); the rest are as the clock read.
#[derive(Default)]
pub struct Samples {
    /// One entry per set-up pass, scaled by the median of the readings taken
    /// during set-up: four passes are too few to absorb one bad reading each.
    pub setup_nominal_s: Vec<f64>,
    /// Process start to the first timed iteration.
    pub setup_total_s: f64,
    /// In iteration order: a traced run records spans on the even entries.
    pub update_nominal_ms: Vec<f64>,
    pub downtime_nominal_ms: Vec<f64>,
    pub serve_nominal_req_per_s: Vec<f64>,
    pub update_wall_ms: Vec<f64>,
    pub serve_req_per_s: Vec<f64>,
    /// One entry per calibration reading.
    pub reading_ms: Vec<f64>,
    /// Serve-phase host wall per thread step, and simulated over host time.
    pub step_ns: Vec<f64>,
    pub serve_sim_over_host: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
    pub boot_ms: Vec<f64>,
    pub fill_ms: Vec<f64>,
    /// One entry per fingerprint taken (set-up passes and last iteration).
    pub fingerprint_ms: Vec<f64>,
    pub transfer_phase_ms: Vec<f64>,
    /// One entry per pre-copy round after the first.
    pub round_wall_ms: Vec<f64>,
    pub drain_wall_ms: Vec<f64>,
    pub minor_faults: Vec<f64>,
    pub user_ms: Vec<f64>,
    pub sys_ms: Vec<f64>,
    /// The serve phase of the last build (its counts repeat exactly).
    pub serve: Serve,
    /// Report and window observations of the last timed update.
    pub report: UpdateReport,
    pub during_update_sim_ms: Vec<f64>,
    pub blackout_sim_ms: Vec<f64>,
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tally: Tally,
    pub end_to_end: Vec<(&'static Metric, Summary)>,
    /// Empty unless traced.
    pub per_layer: Vec<(&'static Metric, Summary)>,
    /// Where the spans went, if traced.
    pub trace_file: Option<String>,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Fingerprints the post-update kernel, outside every timed section.
fn fingerprint(updated: &Updated, samples: &mut Samples, trace: &Trace) -> u64 {
    let _span = trace.span("kernel_fingerprint");
    let start = Instant::now();
    let hash = kernel_fingerprint(&updated.kernel);
    samples.fingerprint_ms.push(ms(start.elapsed().as_nanos() as u64));
    hash
}

/// Checks one finished update and folds its operations into the tally: the
/// update itself (committed, no conflicts, all traffic delivered, agreeing
/// with the reference when there is one), the probe, and every client
/// request the workload sent.
pub fn check(
    workload: &dyn Workload,
    updated: &mut Updated,
    reference: Option<&Reference>,
    hash: Option<u64>,
    label: &str,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    let report = updated.outcome.report();
    if !updated.outcome.is_committed() {
        tally.fail(format!("{label}: update rolled back: {:?}", updated.outcome.conflicts()));
    } else if updated.undelivered > 0 {
        tally.fail(format!("{label}: {} pre-update batches never delivered", updated.undelivered));
    } else if let Some(reference) = reference {
        if report.transfer.per_process != reference.per_process {
            tally.fail(format!("{label}: per-process transfer reports differ from the reference execution"));
        } else if updated.outcome.conflicts() != reference.conflicts {
            tally.fail(format!("{label}: conflicts differ from the reference execution"));
        } else if hash.is_some_and(|h| h != reference.fingerprint) {
            tally.fail(format!(
                "{label}: kernel fingerprint {:#x} differs from the reference execution's {:#x}",
                hash.unwrap_or_default(),
                reference.fingerprint
            ));
        }
    }
    if !workload.probe(updated) {
        tally.fail(format!("{label}: probe not answered by the new version"));
    }
    tally.attempted += updated.ops.total.get();
    let unanswered = updated.ops.failed.get();
    if unanswered > 0 {
        tally.fail_many(unanswered, format!("{label}: {unanswered} requests unanswered"));
    }
}

/// One set-up pass: the reference execution, then the workload's own
/// configuration checked against it, fingerprints included. `between` runs
/// between the two.
fn setup_pass(
    workload: &dyn Workload,
    cfg: &Config,
    pass: usize,
    samples: &mut Samples,
    trace: &Trace,
    tally: &mut Tally,
    between: impl FnOnce(&mut Samples),
) -> Reference {
    let _span = trace.span("setup_pass");
    let built = workload.build(cfg.seed, trace);
    let mut updated = workload.update(built, &Run::Reference, trace);
    let reference_hash = fingerprint(&updated, samples, trace);
    let mut reference = Reference::of(&updated, reference_hash);
    check(workload, &mut updated, None, None, &format!("set-up {pass} reference"), tally);
    drop(updated);
    between(samples);

    let built = workload.build(cfg.seed, trace);
    let mut updated = workload.update(built, &Run::Own, trace);
    let hash = fingerprint(&updated, samples, trace);
    if !workload.reproduces_reference_fingerprint() {
        reference.fingerprint = hash;
    }
    check(workload, &mut updated, Some(&reference), Some(hash), &format!("set-up {pass}"), tally);
    reference
}

/// Folds one timed update's measurements into the samples; `scale` takes its
/// walls to nominal speed.
fn record(samples: &mut Samples, updated: &Updated, scale: f64) {
    let wall = ms(updated.wall_ns);
    samples.update_wall_ms.push(wall);
    samples.update_nominal_ms.push(wall * scale);
    samples.downtime_nominal_ms.push(ms(updated.downtime_ns) * scale);
    samples.transfer_phase_ms.push(ms(updated.outcome.report().transfer.host_wall_ns));
    samples.round_wall_ms.extend(updated.round_walls_ns.iter().map(|&ns| ms(ns)));
    samples.drain_wall_ms.push(ms(updated.drain_wall_ns));
    let (before, after) = (updated.stat_before, updated.stat_after);
    samples.minor_faults.push((after.minor_faults - before.minor_faults) as f64);
    samples.user_ms.push(after.user_ms - before.user_ms);
    samples.sys_ms.push(after.sys_ms - before.sys_ms);
}

/// Settles glibc's dynamic mmap threshold at its ceiling before anything is
/// measured. The threshold rises to the size of the largest mapped block
/// freed so far (up to 32 MiB), and it decides whether the simulator's 20 MB
/// regions are recycled from the heap or mapped afresh, at ~5 000 page
/// faults each: left to chance (whether some buffer happened to outgrow
/// 20 MB), a `multiproc` update takes 70 faults and 160 ms, or 149 475
/// faults and 330 ms of which 290 ms are kernel time. Freeing one block just
/// under the ceiling pins every run to the recycling regime.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity((32 << 20) - (64 << 10))));
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let process_start = Instant::now();
    settle_allocator();
    let workload =
        workloads::by_name(&cfg.workload).ok_or_else(|| format!("unknown workload {}", cfg.workload))?;
    let workload = workload.as_ref();
    let trace = Trace::new();
    trace.set_recording(cfg.trace);
    let mut samples = Samples::default();
    let mut tally = Tally::default();

    let mut calibrator = Calibrator::new();
    let mut reading = |samples: &mut Samples| {
        let nanos = calibrator.reading();
        samples.reading_ms.push(nanos / 1e6);
        nanos
    };

    let mut reference = None;
    // The first reading warms the loop's own pages and is discarded.
    reading(&mut samples);
    samples.reading_ms.clear();
    let mut pass_walls = Vec::new();
    for pass in 0..SETUP_PASSES {
        reading(&mut samples);
        let start = Instant::now();
        let mut reading_wall = 0.0;
        let next = setup_pass(workload, cfg, pass, &mut samples, &trace, &mut tally, |samples| {
            reading_wall = reading(samples) / 1e9;
        });
        pass_walls.push(start.elapsed().as_secs_f64() - reading_wall);
        if reference.as_ref().is_some_and(|r: &Reference| r.fingerprint != next.fingerprint) {
            tally.fail(format!("set-up {pass}: the update does not repeat"));
        }
        reference = Some(next);
    }
    let mut before = reading(&mut samples);
    let typical_reading = Summary::of(&samples.reading_ms).median * 1e6;
    let scale = to_nominal(typical_reading, typical_reading);
    samples.setup_nominal_s = pass_walls.iter().map(|wall| wall * scale).collect();
    let reference = reference.expect("at least one set-up pass");
    samples.setup_total_s = process_start.elapsed().as_secs_f64();

    let loop_start = Instant::now();
    let mut iteration = 0usize;
    loop {
        // Traced runs record spans on every other iteration, so one run
        // yields the update wall with and without them.
        trace.set_recording(cfg.trace && iteration.is_multiple_of(2));
        trace.set_iteration(iteration as u32 + 1);
        let build_start = Instant::now();
        let built = workload.build(cfg.seed, &trace);
        samples.rebuild_ms.push(ms(build_start.elapsed().as_nanos() as u64));
        let built_reading = reading(&mut samples);
        samples.boot_ms.push(ms(built.boot_ns));
        samples.fill_ms.push(ms(built.fill_ns));
        let serve = built.serve;
        let rate = serve.requests as f64 / (serve.wall_ns as f64 / 1e9);
        samples.serve_req_per_s.push(rate);
        samples.serve_nominal_req_per_s.push(rate / to_nominal(before, built_reading));
        samples.step_ns.push(serve.wall_ns as f64 / serve.steps.max(1) as f64);
        samples.serve_sim_over_host.push(serve.sim_ns as f64 / serve.wall_ns as f64);
        samples.serve = serve;

        let mut updated = workload.update(built, &Run::Own, &trace);
        // The checks below are short: this reading also opens the next
        // iteration's state build.
        before = reading(&mut samples);
        record(&mut samples, &updated, to_nominal(built_reading, before));
        iteration += 1;
        let last = iteration >= MIN_ITERATIONS && loop_start.elapsed().as_secs_f64() >= cfg.seconds;
        let hash = last.then(|| fingerprint(&updated, &mut samples, &trace));
        {
            let _span = trace.span("verify");
            check(
                workload,
                &mut updated,
                Some(&reference),
                hash,
                &format!("iteration {iteration}"),
                &mut tally,
            );
        }
        if last {
            samples.report = updated.outcome.report().clone();
            let window = updated.window.borrow();
            samples.during_update_sim_ms = window.during_update_sim_ms.clone();
            samples.blackout_sim_ms = window.probes.iter().map(|&(_, ns)| ms(ns)).collect();
            break;
        }
    }

    let (per_layer, trace_file) = if cfg.trace {
        trace.set_recording(true);
        trace.set_iteration(0);
        let per_layer = layers::measure(workload, cfg, &samples, &reference, &trace, &mut tally);
        (per_layer, Some(write_trace(cfg, &trace)?))
    } else {
        (Vec::new(), None)
    };

    let end_to_end = END_TO_END
        .iter()
        .map(|metric| {
            let summary = match metric.name {
                "setup_s" => Summary::of(&samples.setup_nominal_s),
                "update_wall_ms" => Summary::of(&samples.update_nominal_ms),
                "downtime_wall_ms" => Summary::of(&samples.downtime_nominal_ms),
                "serve_req_per_s" => Summary::of(&samples.serve_nominal_req_per_s),
                "peak_rss_mb" => Summary::single(peak_rss_mb()),
                other => unreachable!("end-to-end metric {other} is not measured"),
            };
            (metric, summary)
        })
        .collect();
    Ok(Report {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        tally,
        end_to_end,
        per_layer,
        trace_file,
    })
}

/// Writes the spans as Chrome trace-event JSON under `benchmark/out/`.
fn write_trace(cfg: &Config, trace: &Trace) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
    std::fs::write(&path, trace.to_chrome_json().render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance check "a deliberately wrong reference makes the run
    /// fail": a reference execution that saw one extra traffic batch must
    /// fail the comparison, and the right one must pass it.
    #[test]
    fn a_wrong_reference_fails_the_check() {
        let workload = workloads::small_cache(false);
        let trace = Trace::new();
        for (extra_batch, failed) in [(false, 0), (true, 1)] {
            let mut built = workload.build(1, &trace);
            if extra_batch {
                workload.extra_traffic(&mut built.kernel, &mut built.instance, &built.ops);
            }
            let updated = workload.update(built, &Run::Reference, &trace);
            let reference = Reference::of(&updated, kernel_fingerprint(&updated.kernel));

            let mut updated = workload.update(workload.build(1, &trace), &Run::Own, &trace);
            let hash = kernel_fingerprint(&updated.kernel);
            let mut tally = Tally::default();
            check(workload.as_ref(), &mut updated, Some(&reference), Some(hash), "test", &mut tally);
            assert_eq!(tally.failed, failed, "extra batch {extra_batch}: {:?}", tally.failures);
            assert!(tally.attempted > 0);
        }
    }
}
