//! The benchmark's contract in one place: the workloads, every metric with
//! its unit, direction, bound and definition. `BENCHMARK.json` at the repo
//! root lists the same names (a unit test holds the two together), the runner
//! can only emit names from these tables, and `--compare` reads its rules
//! (bound, exactness) from them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How two runs of one commit may differ on a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: a median that varies run to run.
    Host,
    /// Counted by the program or charged on the simulated clock: must repeat
    /// exactly for one commit and seed.
    Exact,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
    pub definition: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cache_stw",
        why: "One pair, one 4.6 MB heap, stop-the-world: tracer scan, transfer prepare/apply and AddressSpace copies are ~95% of the wall; scheduler, matching and fan-out do almost nothing.",
    },
    Workload {
        name: "cache_precopy",
        why: "Same heap under 3 pre-copy rounds with seeded get/set/evict traffic between rounds: retrace_dirty, drain_dirty_since, DeltaPlan and the residual; a bulk-copy gain that costs the delta path shows here.",
    },
    Workload {
        name: "multiproc_stw",
        why: "vsftpd write-heavy, 29 small pairs, stop-the-world: reinit/replay of 29 processes, matching, per-pair set-up and merge dominate; per-byte copy cost barely matters.",
    },
    Workload {
        name: "multiproc_postcopy",
        why: "Same 29 pairs under post-copy with three post-resume write batches: park/protect/fault_in_at/drain_step and store traps; with multiproc_stw it shows the downtime-for-drain trade in host time.",
    },
    Workload {
        name: "fleet_10k",
        why: "10 000 mostly idle sessions, paced requests, pre-copy update: scheduler, wait/wake, timer wheel and fd/object tables do the serving; the update is quiesce and reinit at 10 k threads, transfer ~2%.",
    },
    Workload {
        name: "nginx_durable_recover",
        why: "nginx load, then a durable supervised update whose old instance crashes before commit: checkpoint serialize, store, 15-step restore and retry in one call; the load is the instrumented request path.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    definition: &'static str,
) -> Metric {
    Metric { name, unit, better, kind: Kind::Host, bound: Some(bound), definition }
}

const fn host(name: &'static str, unit: &'static str, definition: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, kind: Kind::Host, bound: None, definition }
}

const fn host_up(name: &'static str, unit: &'static str, definition: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, kind: Kind::Host, bound: None, definition }
}

const fn exact(name: &'static str, unit: &'static str, definition: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, kind: Kind::Exact, bound: None, definition }
}

const fn exact_up(name: &'static str, unit: &'static str, definition: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, kind: Kind::Exact, bound: None, definition }
}

/// What an operator feels. Host time and memory only; every one applies to
/// every workload and is never 0. "At nominal speed" means scaled by the
/// harness's own calibration loop, timed around each measured section (see
/// `calibrate`): the clock's readings are per-layer metrics.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "median host wall of one set-up pass (state build, reference update and fingerprint, state build, update under the workload's options and fingerprint), scaled to nominal speed by the median calibration reading of the set-up; four passes run before the first timed iteration",
    ),
    e2e(
        "update_wall_ms",
        "ms",
        Better::Lower,
        0.25,
        "median host wall of the single update call (UpdatePipeline::run or supervised_update_durable), scaled to nominal host speed by the calibration readings taken right before and after it",
    ),
    e2e(
        "downtime_wall_ms",
        "ms",
        Better::Lower,
        0.25,
        "median host wall, at nominal speed, of the service gap inside that call: last pre-copy hook return (else call entry) to first post-copy hook entry (else call return)",
    ),
    e2e(
        "serve_req_per_s",
        "req/s",
        Better::Higher,
        0.25,
        "median over iterations of client requests answered / host wall, at nominal speed, of the pre-update serve phase of the state build (the cache's fill and idle connections are outside it)",
    ),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, "VmHWM of the benchmark process at exit"),
];

/// One layer each; the layer is the part of the name before the first dot
/// and is a module name. A value of 0 means the workload does not enter that
/// layer (or the drill is not run on it).
pub const PER_LAYER: &[Metric] = &[
    // procsim::memory — direct calls on a 16 MiB region, 512-byte operations.
    host("memory.read_into_ns_per_kib", "ns/KiB", "AddressSpace::read_into, 512 B reads across 16 MiB"),
    host("memory.write_bytes_ns_per_kib", "ns/KiB", "AddressSpace::write_bytes, 512 B writes across 16 MiB"),
    host("memory.copy_range_ns_per_kib", "ns/KiB", "AddressSpace::copy_range between two spaces, 512 B copies across 16 MiB"),
    host("memory.write_u32_ns", "ns", "AddressSpace::write_u32, one store per 64 B across 16 MiB"),
    host("memory.drain_dirty_since_ns_per_page", "ns/page", "AddressSpace::drain_dirty_since(0) over 4096 pages, every other page dirty"),
    host("memory.protect_unprotect_ns_per_page", "ns/page", "protect_range + unprotect_range of one page, across 4096 pages"),
    // procsim::alloc — instrumented PtMalloc, 64 B chunks, 100 k operations.
    host("alloc.malloc_ns", "ns", "PtMalloc::malloc of 64 B"),
    host("alloc.free_ns", "ns", "PtMalloc::free"),
    host("alloc.chunk_containing_ns", "ns", "PtMalloc::chunk_containing of an interior address"),
    // procsim::{fd, objects, kernel}
    host("fd.alloc_remove_ns", "ns", "FdTable::alloc + remove"),
    host("objects.insert_decref_ns", "ns", "ObjectTable::insert + decref of a pipe object"),
    host("objects.connection_for_ns", "ns", "ObjectTable::connection_for over 10 000 live connections"),
    host("kernel.client_send_ns", "ns", "Kernel::client_send of 4 bytes on an accepted connection"),
    host("kernel.advance_clock_ns", "ns", "Kernel::advance_clock by 10 us with no timer due"),
    exact("kernel.syscalls_per_request", "calls/req", "kernel syscalls issued per request in the serve phase"),
    // procsim::store
    host("store.mem_write_ns_per_kib", "ns/KiB", "MemStore::write_blob of 1 MiB blobs"),
    host("store.mem_read_ns_per_kib", "ns/KiB", "MemStore::read_blob of 1 MiB blobs"),
    // runtime::scheduler
    host("scheduler.step_ns", "ns", "serve-phase host wall per thread step (the whole request path, not the scheduler alone)"),
    exact("scheduler.steps_per_request", "steps/req", "thread steps per request in the serve phase"),
    host("scheduler.boot_ms", "ms", "host wall of boot() of the old version in the state build"),
    host("scheduler.quiesce_wall_ms", "ms", "host wall of wait_quiescence on the pre-update state"),
    exact("scheduler.quiesce_rounds", "count", "barrier passes wait_quiescence needed"),
    // interpose
    exact("interpose.recorded", "count", "startup calls the old version recorded at boot"),
    exact("interpose.replayed", "count", "startup calls the new version replayed from the log (UpdateReport::replay)"),
    exact("interpose.executed_live", "count", "startup calls executed live during replay"),
    host("interpose.boot_new_wall_ms", "ms", "host wall of boot() of the new version on a fresh kernel"),
    // tracing
    host("tracing.trace_wall_ms", "ms", "host wall of trace_process over every process of the quiesced pre-update state"),
    host("tracing.ns_per_object", "ns/obj", "trace wall / objects traced"),
    host("tracing.ns_per_kib", "ns/KiB", "trace wall / traced KiB"),
    host("tracing.retrace_dirty_wall_ms", "ms", "host wall of Tracer::retrace_dirty after one extra traffic batch"),
    host("tracing.retrace_ns_per_dirty_object", "ns/obj", "retrace wall / objects on pages written since the epoch"),
    exact("tracing.objects_traced", "count", "UpdateReport::tracing.objects_traced"),
    exact("tracing.traced_bytes", "count", "UpdateReport::tracing.traced_bytes"),
    exact("tracing.dirty_objects", "count", "UpdateReport::tracing.dirty_objects"),
    exact("tracing.precise_pointers", "count", "UpdateReport::tracing.precise.total"),
    exact("tracing.likely_pointers", "count", "UpdateReport::tracing.likely.total"),
    // transfer::engine
    host("transfer.phase_host_ms", "ms", "median UpdateReport::transfer.host_wall_ns: the stop-the-world trace/transfer phase"),
    host("transfer.ns_per_object", "ns/obj", "phase host wall / objects transferred"),
    host("transfer.ns_per_kib", "ns/KiB", "phase host wall / KiB transferred"),
    host("transfer.precopy_round_wall_ms", "ms", "median host wall from one pre-copy hook return to the next hook entry (rounds 2..n)"),
    host("transfer.drain_wall_ms", "ms", "median host wall from the first post-copy hook entry to the call's return"),
    exact("transfer.trap_service_p50_sim_us", "us", "median simulated access-trap service latency"),
    exact("transfer.trap_service_p95_sim_us", "us", "p95 simulated access-trap service latency"),
    exact("transfer.objects_transferred", "count", "sum over pairs"),
    exact("transfer.bytes_transferred", "count", "sum over pairs"),
    exact_up("transfer.objects_skipped_clean", "count", "sum over pairs"),
    exact("transfer.objects_pinned", "count", "sum over pairs"),
    exact("transfer.objects_allocated", "count", "sum over pairs"),
    exact_up("transfer.precopied_objects", "count", "objects copied by the concurrent rounds"),
    exact("transfer.residual_objects", "count", "objects left for the stop-the-world window"),
    exact("transfer.residual_bytes", "count", "bytes left for the stop-the-world window"),
    exact("transfer.deferred_objects", "count", "objects parked at post-copy commit"),
    exact("transfer.traps", "count", "access traps taken by the resumed new version"),
    exact("transfer.trap_objects", "count", "parked objects applied by trap service"),
    exact("transfer.drained_objects", "count", "parked objects applied by the background drainer"),
    exact("transfer.drain_rounds", "count", "drain-loop rounds"),
    host("transfer.parallel_wall_ratio.workers2", "ratio", "phase host wall with transfer_workers = 2 / with 1 (multiproc_stw)"),
    host("transfer.parallel_wall_ratio.shards2", "ratio", "phase host wall with intra_pair_shards = 2 / with 1 (cache_stw)"),
    exact("transfer.parallel_sim_ratio.workers2", "ratio", "simulated state_transfer with transfer_workers = 2 / with 1"),
    exact("transfer.parallel_sim_ratio.shards2", "ratio", "simulated state_transfer with intra_pair_shards = 2 / with 1"),
    // transfer::checkpoint — timed checkpoint_now / restore_latest (nginx).
    host("checkpoint.write_wall_ms", "ms", "host wall of checkpoint_now into a MemStore"),
    host("checkpoint.write_ns_per_block", "ns/block", "checkpoint wall / store blocks written"),
    host("checkpoint.restore_wall_ms", "ms", "host wall of restore_latest"),
    host("checkpoint.restore_ns_per_delta_kib", "ns/KiB", "restore wall / KiB of page deltas"),
    exact("checkpoint.blocks", "count", "store blocks one checkpoint writes"),
    exact("checkpoint.delta_bytes", "count", "page-delta payload bytes"),
    exact("checkpoint.page_deltas", "count", "page-delta records"),
    exact("checkpoint.manifest_bytes", "count", "manifest blob size"),
    // runtime::pipeline
    exact("pipeline.sim_ms.quiesce", "ms", "simulated duration of the phase (last attempt)"),
    exact("pipeline.sim_ms.checkpoint", "ms", "simulated duration of the phase"),
    exact("pipeline.sim_ms.reinit_replay", "ms", "simulated duration of the phase"),
    exact("pipeline.sim_ms.match_processes", "ms", "simulated duration of the phase"),
    exact("pipeline.sim_ms.precopy", "ms", "simulated duration of the phase"),
    exact("pipeline.sim_ms.trace_and_transfer", "ms", "simulated duration of the phase"),
    exact("pipeline.sim_ms.postcopy_commit", "ms", "simulated duration of the phase"),
    exact("pipeline.sim_ms.postcopy_drain", "ms", "simulated duration of the phase"),
    exact("pipeline.sim_ms.commit", "ms", "simulated duration of the phase"),
    exact("pipeline.downtime_sim_ms", "ms", "UpdateTimings::downtime"),
    exact("pipeline.update_sim_ms", "ms", "UpdateTimings::total"),
    exact("pipeline.update_syscalls", "count", "kernel syscalls issued inside the update call"),
    exact("pipeline.object_writes", "count", "object writes the transfer engine performed"),
    exact("pipeline.blackout_p50_sim_ms", "ms", "median simulated latency of the 400 probes sent before and answered after the window (fleet_10k)"),
    exact("pipeline.blackout_p95_sim_ms", "ms", "p95 of the same"),
    exact("pipeline.during_update_p99_sim_ms", "ms", "p99 simulated latency of the 2 000 requests served inside the update (fleet_10k)"),
    host("pipeline.unattributed_wall_ms", "ms", "update wall minus attempts x (quiesce + new-version boot + trace/transfer phase) minus checkpoints and restores, each as drilled"),
    host("pipeline.unattributed_share", "ratio", "unattributed wall / update wall"),
    host("pipeline.mode_wall_ms.stw", "ms", "update wall of the multiproc state under StopTheWorld"),
    host("pipeline.mode_wall_ms.precopy", "ms", "the same under Precopy, 3 rounds"),
    host("pipeline.mode_wall_ms.postcopy", "ms", "the same under Postcopy"),
    host("pipeline.mode_wall_ms.adaptive", "ms", "the same under Adaptive, 3 rounds"),
    // runtime::supervisor
    exact("supervisor.attempts", "count", "pipeline attempts of the supervised update"),
    exact_up("supervisor.recovered", "count", "attempts after which the old instance was revived from a checkpoint"),
    exact("supervisor.time_to_recovery_sim_ms", "ms", "simulated time from first attempt start to commit"),
    // cost model: simulated time over host time, per section.
    host("costmodel.sim_over_host.transfer", "ratio", "simulated state_transfer / transfer phase host wall"),
    host("costmodel.sim_over_host.update", "ratio", "simulated update total / update host wall"),
    host("costmodel.sim_over_host.serve", "ratio", "simulated serve-phase time / its host wall"),
    // servers / workload
    host("workload.driver_ns_per_request", "ns", "client-side connect/send/recv/close per request with no server step (nginx)"),
    host_up("servers.baseline_req_per_s", "req/s", "nginx load phase under InstrumentationConfig::baseline()"),
    host("servers.instr_overhead_pct", "%", "baseline req/s over instrumented req/s, minus one"),
    host("servers.cache_fill_ms", "ms", "host wall of the cache fill request"),
    // the harness itself
    host("bench.setup_total_s", "s", "host wall from process start to the first timed iteration, as the clock read"),
    host("bench.update_wall_raw_ms", "ms", "median host wall of the update call as the clock read, before scaling to nominal speed"),
    host("bench.calibration_ms", "ms", "median host wall of one calibration reading; 10 ms is nominal speed"),
    host("bench.rebuild_ms", "ms", "median host wall of one state build"),
    host("bench.fingerprint_ms", "ms", "median host wall of kernel_fingerprint (never inside a timed section)"),
    host("bench.update_user_ms", "ms", "mean user CPU per update call (/proc/self/stat)"),
    host("bench.update_sys_ms", "ms", "mean system CPU per update call"),
    host("bench.minor_faults_per_update", "count", "median minor faults per update call"),
    host("bench.update_wall_iqr_ms", "ms", "interquartile range of the update wall as the clock read"),
    host_up("bench.iterations", "count", "timed iterations in this run"),
    host("bench.trace_overhead_pct", "%", "median over pairs of consecutive iterations of the update wall (at nominal speed) with spans recorded over the one without, minus one"),
    host("bench.span_cost_pct", "%", "spans recorded inside one update x the measured cost of one span, over the update wall: the overhead recording can account for"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, as_f64, as_str, get, Json};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
    }

    fn rows<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match get(doc, key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no array {key}"),
        }
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        get(row, key).and_then(as_str).unwrap_or_else(|| panic!("row without {key}"))
    }

    #[test]
    fn names_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names =
            WORKLOADS.iter().map(|w| w.name).chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && (2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why has {} chars", w.name, w.why.len());
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let doc = benchmark_json();
        let listed: Vec<(&str, &str)> =
            rows(&doc, "workloads").iter().map(|r| (field(r, "name"), field(r, "why"))).collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);

        let e2e = rows(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(row, "name"), field(row, "unit"), field(row, "better")),
                (m.name, m.unit, m.better.label())
            );
            assert_eq!(get(row, "bound").and_then(as_f64), m.bound, "{}", m.name);
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));

        let layers = rows(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(row, "name"), field(row, "unit"), field(row, "better")),
                (m.name, m.unit, m.better.label())
            );
            assert!(m.bound.is_none(), "{}", m.name);
        }
        assert_eq!(get(&doc, "paths"), Some(&Json::Arr(vec![Json::str("benchmark")])));
    }
}
