//! End-to-end integration tests spanning the whole workspace: simulated
//! kernel, type metadata, MCR runtime, server models and workloads.

use mcr_bench::{served, Observed};
use mcr_core::runtime::{
    boot, live_update, run_rounds, BootOptions, FaultSite, PhaseName, PrecopyOptions, UpdateOptions,
    UpdatePipeline, UpdateReport,
};
use mcr_core::{Conflict, McrInstance, QuiescenceProfiler};
use mcr_procsim::Kernel;
use mcr_servers::{install_standard_files, program_by_name, programs, ServerSpec};
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::{open_idle_connections, precopy_serving_hook, run_workload, workload_for};

fn booted(program: &str) -> (Kernel, mcr_core::McrInstance) {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let instance = boot(&mut kernel, Box::new(program_by_name(program, 1)), &BootOptions::default()).unwrap();
    (kernel, instance)
}

#[test]
fn every_program_boots_serves_and_updates() {
    for spec in ServerSpec::all() {
        let (mut kernel, mut v1) = booted(&spec.name);
        let workload = workload_for(&spec.name, 10);
        let result = run_workload(&mut kernel, &mut v1, &workload).unwrap();
        assert_eq!(result.completed, 10, "{} answered every request", spec.name);

        let (v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(program_by_name(&spec.name, 2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "{}: {:?}", spec.name, outcome.conflicts());
        assert_eq!(v2.state.version, spec.version_string(2));
        let report = outcome.report();
        assert!(report.timings.total.0 > 0);
        assert!(report.transfer.objects_transferred() > 0);
    }
}

#[test]
fn update_preserves_open_connections_and_identity_of_listener() {
    let (mut kernel, mut v1) = booted("nginx");
    run_workload(&mut kernel, &mut v1, &workload_for("nginx", 5)).unwrap();
    let idle = open_idle_connections(&mut kernel, &mut v1, 8080, 20).unwrap();
    assert_eq!(kernel.open_connection_count(), idle.len() + workload_for("nginx", 1).idle_connections);

    let before = kernel.open_connection_count();
    let (mut v2, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(programs::nginx(2)),
        InstrumentationConfig::full(),
        &UpdateOptions::default(),
    );
    assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
    // No connection was dropped by the update itself.
    assert_eq!(kernel.open_connection_count(), before);
    // The listener still accepts new clients without rebinding the port.
    let c = kernel.client_connect(8080).unwrap();
    kernel.client_send(c, b"GET /".to_vec()).unwrap();
    run_rounds(&mut kernel, &mut v2, 3).unwrap();
    assert!(kernel.client_recv(c).is_some());
}

#[test]
fn quiescence_profile_matches_process_models() {
    // Event-driven nginx: no volatile quiescent points (its rigorous event
    // model is the paper's example of an update-friendly design).
    let (mut kernel, mut nginx) = booted("nginx");
    run_workload(&mut kernel, &mut nginx, &workload_for("nginx", 10)).unwrap();
    let report = QuiescenceProfiler::analyze(&kernel, &nginx.state);
    assert_eq!(report.volatile_points(), 0, "nginx has only persistent quiescent points");
    assert!(report.short_lived_classes() >= 1, "daemonization helper");

    // Process-per-connection vsftpd: session processes yield volatile points.
    let (mut kernel, mut vsftpd) = booted("vsftpd");
    run_workload(&mut kernel, &mut vsftpd, &workload_for("vsftpd", 5)).unwrap();
    let report = QuiescenceProfiler::analyze(&kernel, &vsftpd.state);
    assert!(report.volatile_points() >= 1, "per-connection sessions are volatile quiescent points");
}

#[test]
fn quiescence_profile_recorded_by_the_scheduler_is_pinned() {
    // The histograms here are recorded by `step_thread` on every blocking
    // step of a real workload (not seeded by hand), so this pins both the
    // scheduler's recording and the profiler's aggregation: one line per
    // class, `class instances long_lived point blocking_profile loop_profile`.
    let profile = |program: &str, requests: u64| -> Vec<String> {
        let (mut kernel, mut instance) = booted(program);
        run_workload(&mut kernel, &mut instance, &workload_for(program, requests)).unwrap();
        let report = QuiescenceProfiler::analyze(&kernel, &instance.state);
        report
            .classes
            .iter()
            .map(|c| {
                let point = c.quiescent_point.as_ref().map(|p| (&p.call, &p.loop_name, p.persistent));
                format!(
                    "{} {} {} {:?} {:?} {:?}",
                    c.class, c.instances, c.long_lived, point, c.blocking_profile, c.loop_profile
                )
            })
            .collect()
    };
    assert_eq!(
        profile("nginx", 10),
        [
            r#"daemonize-helper 1 false None {} {}"#,
            r#"main 1 true Some(("sigsuspend", "master_loop", true)) {"sigsuspend": 1000} {"master_loop": 1}"#,
            r#"worker-main 2 true Some(("epoll_wait", "worker_loop", true)) {"epoll_wait": 22000} {"worker_loop": 22}"#,
        ]
    );
    assert_eq!(
        profile("vsftpd", 5),
        [
            r#"main 1 true Some(("accept", "accept_loop", true)) {"accept": 6000} {"accept_loop": 6}"#,
            r#"session-main 9 true Some(("read", "session_loop", false)) {"read": 9000} {"session_loop": 9}"#,
        ]
    );
}

/// The type tags of the objects that `instance`'s processes hold in pools
/// whose storage is an `inherited:` region: the objects an update pinned.
fn pinned_tags(kernel: &Kernel, instance: &McrInstance) -> Vec<u64> {
    let mut tags = Vec::new();
    for &pid in &instance.state.processes {
        let process = kernel.process(pid).unwrap();
        for (_, storage, _, _, _, objects) in process.regions().pools().1 {
            let region = process.space().region_containing(storage).unwrap();
            if region.name().starts_with("inherited:") {
                tags.extend(objects.iter().map(|&(_, _, _, tag)| tag.0));
            }
        }
    }
    tags
}

/// Every served cell (four servers × both instrumentation configurations ×
/// requests {0, 1, 3} × open {0, 2}) goes 1 → 2 → 2 → 3. Both updates to
/// generation 2 commit and keep every fact of the audit: a pinned record
/// keeps its address, has its pointers rewritten and stays in a pool of the
/// new process's region allocator, so the next trace types and follows it.
/// An inherited region keeps one `inherited:` prefix however many updates
/// carry it. Generation 3 adds `conn_s.started_at`: the update commits with
/// the audit, or rolls back naming the pinned record by its site while
/// generation 2 still audits. Caveat: httpd and nginx under `full()` pin
/// their untyped pool chunk, which holds the records; `conn_s*` points to
/// the opaque `conn_fwd`, so no type reaches them, and generation 3 commits
/// with the audit `None`.
#[test]
fn a_served_server_keeps_its_audit_through_two_updates_and_names_its_pins_at_the_third() {
    let configs = [InstrumentationConfig::full(), InstrumentationConfig::full_with_region_instrumentation()];
    for program in ["vsftpd", "sshd", "httpd", "nginx"] {
        for config in configs {
            for (requests, open) in [0, 1, 3].into_iter().flat_map(|r| [(r, 0), (r, 2)]) {
                let cell = format!("{program} {requests} requests {open} open {config:?}");
                let (mut kernel, mut instance) = served(program, requests, open, config);
                let update = |kernel: &mut Kernel, from, generation| {
                    let new = Box::new(program_by_name(program, generation));
                    live_update(kernel, from, new, config, &UpdateOptions::default())
                };
                let mut audit =
                    instance.audit(&kernel).unwrap_or_else(|| panic!("{cell}: generation 1 audits"));
                for generation in [2, 2] {
                    let (next, outcome) = update(&mut kernel, instance, generation);
                    assert!(outcome.is_committed(), "{cell} -> {generation}: {:?}", outcome.conflicts());
                    let new = next.audit(&kernel).unwrap_or_else(|| panic!("{cell}: generation 2 audits"));
                    let lost: Vec<_> = audit.iter().filter(|fact| new.binary_search(fact).is_err()).collect();
                    assert!(lost.is_empty(), "{cell} -> {generation}: the update lost {lost:?}");
                    (instance, audit) = (next, new);
                }
                let regions = instance
                    .state
                    .processes
                    .iter()
                    .flat_map(|&pid| kernel.process(pid).unwrap().space().regions());
                let nested = regions.filter(|r| r.name().starts_with("inherited:inherited:")).count();
                assert_eq!(nested, 0, "{cell}: an inherited region keeps one prefix");
                let (v3, outcome) = update(&mut kernel, instance, 3);
                if matches!(program, "httpd" | "nginx") && !config.instrument_region_allocator {
                    assert!(outcome.is_committed(), "{cell} -> 3: {:?}", outcome.conflicts());
                    assert_eq!(v3.audit(&kernel), None, "{cell}: the caveat reads no audit");
                    assert!(pinned_tags(&kernel, &v3).contains(&0), "{cell}: an untyped object is pinned");
                } else if outcome.is_committed() {
                    let new = v3.audit(&kernel).unwrap_or_else(|| panic!("{cell}: generation 3 audits"));
                    let lost: Vec<_> = audit.iter().filter(|fact| new.binary_search(fact).is_err()).collect();
                    assert!(lost.is_empty(), "{cell} -> 3: the update lost {lost:?}");
                } else {
                    let site = if program == "httpd" { "pool_alloc:conn" } else { "handle_conn:conn" };
                    let record = Conflict::NonUpdatableObjectChanged {
                        object: format!("pool object from `{site}`"),
                        old_type: "conn_s".into(),
                        new_type: "conn_s".into(),
                    };
                    let conflicts = outcome.conflicts();
                    assert!(
                        !conflicts.is_empty() && conflicts.iter().all(|c| *c == record),
                        "{cell}: {conflicts:?}"
                    );
                    assert_eq!(v3.audit(&kernel), Some(audit), "{cell}: generation 2 still audits");
                }
            }
        }
    }
}

#[test]
fn chained_updates_across_three_generations_keep_state() {
    let static_base = |k: &Kernel, pid| k.process(pid).unwrap().layout().static_base;
    let (mut kernel, mut instance) = booted("nginx");
    let mut served = 0u64;
    for generation in 2..=4u32 {
        // Serve a couple of requests under the current generation.
        run_workload(&mut kernel, &mut instance, &workload_for("nginx", 2)).unwrap();
        // Each workload run opens `idle_connections` long-lived connections
        // plus the measured requests; the server records all of them.
        served += 2 + workload_for("nginx", 1).idle_connections as u64;
        let base = static_base(&kernel, instance.state.processes[0]);
        let (next, outcome) = live_update(
            &mut kernel,
            instance,
            Box::new(programs::nginx(generation)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "generation {generation}: {:?}", outcome.conflicts());
        assert_eq!(
            static_base(&kernel, next.state.processes[0]),
            base.offset(0x1_0000_0000),
            "slides 2^32 on"
        );
        instance = next;
    }
    // The `stats` global accumulated requests across all generations; the
    // requests were handled by worker processes, each with its own copy of
    // the global, and every copy was transferred at every update.
    let stats = instance.state.statics.lookup("stats").unwrap().addr;
    let requests: u64 = instance
        .state
        .processes
        .iter()
        .map(|&pid| kernel.process(pid).unwrap().space().read_u64(stats).unwrap())
        .sum();
    assert_eq!(requests, served, "request counter survived every update");
}

/// [`served`] `program`, then live-updated gen-1 → gen-2 with
/// `transfer_workers = workers`.
fn update_with_workers(program: &str, requests: u64, open: usize, workers: usize) -> UpdateReport {
    let (mut kernel, v1) = served(program, requests, open, InstrumentationConfig::full());
    let opts = UpdateOptions { transfer_workers: workers, ..Default::default() };
    let (_v2, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(program_by_name(program, 2)),
        InstrumentationConfig::full(),
        &opts,
    );
    assert!(outcome.is_committed(), "{program} workers={workers}: {:?}", outcome.conflicts());
    outcome.report().clone()
}

/// The tentpole acceptance check for the pair-parallel restore phase: with
/// at least four matched pairs, the measured parallel `state_transfer`
/// (makespan of the scoped-thread schedule) beats the sequential ablation,
/// and the default worker count (one per pair) is bounded by the slowest
/// pair. Over `transfer_workers ∈ {1, 2, 4, 0}`, one worker is charged
/// exactly the pair-cost sum (`transfer.serial_duration`), and more workers
/// over four or more pairs strictly less; nginx (three pairs) is only never
/// slower.
#[test]
fn parallel_state_transfer_beats_serial_with_four_or_more_pairs() {
    let (mut kernel, v1) = served("vsftpd", 6, 4, InstrumentationConfig::full());
    let (_v2, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(programs::vsftpd(2)),
        InstrumentationConfig::full(),
        &UpdateOptions::default(),
    );
    assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
    let report = outcome.report();
    let pairs = report.processes_matched + report.processes_recreated;
    assert!(pairs >= 4, "per-connection sessions give at least four pairs (got {pairs})");
    assert_eq!(report.transfer.workers, pairs, "default is one worker per pair");
    assert_eq!(
        report.timings.state_transfer,
        report.transfer.parallel_duration(),
        "one worker per pair: the slowest pair bounds the phase"
    );
    assert!(
        report.timings.state_transfer < report.transfer.serial_duration(),
        "parallel {} ns must beat serial {} ns",
        report.timings.state_transfer.0,
        report.transfer.serial_duration().0
    );

    for (program, requests, open) in [("vsftpd", 2, 3), ("vsftpd", 4, 8), ("sshd", 4, 6), ("nginx", 4, 6)] {
        for workers in [1usize, 2, 4, 0] {
            let report = update_with_workers(program, requests, open, workers);
            let ctx = format!("{program} {requests}/{open} workers={workers}");
            let pairs = report.processes_matched + report.processes_recreated;
            let (makespan, pair_sum) = (report.timings.state_transfer, report.transfer.serial_duration());
            if program != "nginx" {
                assert!(pairs >= 4, "{ctx}: expected a multiprocess spec, got {pairs} pairs");
            }
            if workers == 1 {
                assert_eq!(makespan, pair_sum, "{ctx}: one worker is charged the pair-cost sum");
            } else if pairs >= 4 {
                assert!(makespan < pair_sum, "{ctx}: {pairs} pairs re-serialized");
            } else {
                assert!(makespan <= pair_sum, "{ctx}: parallel slower than serial");
            }
        }
    }
}

/// The old instance keeps *serving* during the pre-copy rounds: a workload
/// hook issues fresh requests after every concurrent round and the old
/// version answers them before the world ever stops.
#[test]
fn old_version_serves_traffic_during_precopy_rounds() {
    let (mut kernel, mut v1) = booted("nginx");
    run_workload(&mut kernel, &mut v1, &workload_for("nginx", 3)).unwrap();
    let served_before = v1.state.counters.events_handled;

    let opts = UpdateOptions {
        precopy: PrecopyOptions { rounds: 3, convergence_bytes: 0, serve_rounds: 1 },
        ..Default::default()
    };
    let pipeline = UpdatePipeline::for_options(&opts)
        .with_precopy_hook(precopy_serving_hook(&workload_for("nginx", 1), 2));
    let (v2, outcome) =
        pipeline.run(&mut kernel, v1, Box::new(programs::nginx(2)), InstrumentationConfig::full(), &opts);
    assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
    let report = outcome.report();
    assert!(report.precopy.enabled);

    // The connections accepted mid-update survived into the new version:
    // nginx's per-process `stats` counters carry over, so the grand total
    // includes the requests served during the pre-copy rounds.
    let stats = v2.state.statics.lookup("stats").unwrap().addr;
    let requests: u64 = v2
        .state
        .processes
        .iter()
        .map(|&pid| kernel.process(pid).unwrap().space().read_u64(stats).unwrap())
        .sum();
    assert!(
        requests >= served_before + 3 * 2,
        "requests served during pre-copy rounds were transferred ({requests})"
    );
}

/// A mid-phase fault at the n-th transferred object fired *during a
/// pre-copy round* rolls back cleanly — and because the world has not
/// stopped yet, the old instance is still live and keeps serving without
/// even having been quiesced.
#[test]
fn fault_at_nth_object_during_precopy_round_rolls_back_with_old_instance_live() {
    let (mut kernel, mut v1) = booted("nginx");
    run_workload(&mut kernel, &mut v1, &workload_for("nginx", 5)).unwrap();
    let old_pids = v1.state.processes.clone();
    let before = Observed::of(&kernel, &v1, None);

    let opts = UpdateOptions {
        transfer_workers: 1, // deterministic object ordering for the trigger
        precopy: PrecopyOptions { rounds: 2, convergence_bytes: 0, serve_rounds: 1 },
        ..Default::default()
    };
    let pipeline = UpdatePipeline::for_options(&opts).with_fault_plan(FaultSite::TransferObject(3).plan());
    let (mut survivor, outcome) =
        pipeline.run(&mut kernel, v1, Box::new(programs::nginx(2)), InstrumentationConfig::full(), &opts);

    assert!(!outcome.is_committed(), "the mid-round fault must abort the update");
    assert!(
        outcome
            .conflicts()
            .iter()
            .any(|c| matches!(c, Conflict::FaultInjected { phase } if phase == "transfer-object")),
        "conflicts: {:?}",
        outcome.conflicts()
    );
    // The failing phase is the concurrent pre-copy round — the quiescence
    // barrier never even ran.
    let last = outcome.report().phases.last().unwrap();
    assert_eq!(last.name, PhaseName::Precopy);
    assert!(!last.completed);
    assert!(outcome.report().phases.duration_of(PhaseName::Quiesce).is_none(), "world never stopped");
    assert_eq!(outcome.report().timings.downtime.0, 0, "no downtime was incurred");

    // Rollback left the old version intact: same processes, no leaked
    // new-version processes, byte-identical old-version memory and audit.
    assert_eq!(survivor.state.processes, old_pids);
    assert_eq!(kernel.pids().len(), old_pids.len(), "new-version processes were torn down");
    let diverged = Observed::of(&kernel, &survivor, None).divergences(&before);
    assert!(diverged.is_empty(), "old version untouched by the abort: {diverged:?}");

    // ... and it keeps serving.
    let result = run_workload(&mut kernel, &mut survivor, &workload_for("nginx", 4)).unwrap();
    assert_eq!(result.completed, 4);
}

/// The same mid-phase trigger fired inside the stop-the-world window (no
/// pre-copy) also rolls back cleanly.
#[test]
fn fault_at_nth_object_in_stop_the_world_window_rolls_back() {
    let (mut kernel, mut v1) = booted("nginx");
    run_workload(&mut kernel, &mut v1, &workload_for("nginx", 4)).unwrap();
    let opts = UpdateOptions { transfer_workers: 1, ..Default::default() };
    let pipeline = UpdatePipeline::for_options(&opts).with_fault_plan(FaultSite::TransferObject(1).plan());
    let (mut survivor, outcome) =
        pipeline.run(&mut kernel, v1, Box::new(programs::nginx(2)), InstrumentationConfig::full(), &opts);
    assert!(!outcome.is_committed());
    assert!(outcome.conflicts().iter().any(|c| matches!(c, Conflict::FaultInjected { .. })));
    let last = outcome.report().phases.last().unwrap();
    assert_eq!(last.name, PhaseName::TraceAndTransfer);
    assert!(!last.completed);
    let result = run_workload(&mut kernel, &mut survivor, &workload_for("nginx", 3)).unwrap();
    assert_eq!(result.completed, 3);
}

#[test]
fn rollback_keeps_old_version_fully_functional() {
    let (mut kernel, mut v1) = booted("vsftpd");
    run_workload(&mut kernel, &mut v1, &workload_for("vsftpd", 8)).unwrap();
    // Jumping two generations changes conn_s, whose records are pinned.
    let (mut survivor, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(programs::vsftpd(3)),
        InstrumentationConfig::full(),
        &UpdateOptions::default(),
    );
    assert!(!outcome.is_committed());
    assert!(outcome.conflicts().iter().any(|c| matches!(c, Conflict::NonUpdatableObjectChanged { .. })));
    assert_eq!(survivor.state.version, "1.1.0");
    // It still serves new sessions after rolling back.
    let result = run_workload(&mut kernel, &mut survivor, &workload_for("vsftpd", 4)).unwrap();
    assert_eq!(result.completed, 4);
}

#[test]
fn annotation_free_deployment_rolls_back_for_per_connection_servers() {
    // Without the control-migration extension for volatile quiescent points,
    // per-connection session processes have no counterpart and the update
    // must abort (and roll back cleanly).
    let (mut kernel, mut v1) = booted("sshd");
    run_workload(&mut kernel, &mut v1, &workload_for("sshd", 3)).unwrap();
    let opts = UpdateOptions { recreate_unmatched_processes: false, ..Default::default() };
    let (survivor, outcome) =
        live_update(&mut kernel, v1, Box::new(programs::sshd(2)), InstrumentationConfig::full(), &opts);
    assert!(!outcome.is_committed());
    assert!(outcome.conflicts().iter().any(|c| matches!(c, Conflict::MissingCounterpart { .. })));
    assert_eq!(survivor.state.version, "3.5p1");
}

/// Forces a fault at *every* pipeline phase boundary in turn and proves the
/// paper's atomicity claim phase by phase: wherever the update dies, the old
/// instance rolls back cleanly and resumes serving traffic.
#[test]
fn injected_fault_at_every_phase_boundary_rolls_back_cleanly() {
    for boundary in PhaseName::ALL {
        let (mut kernel, mut v1) = booted("nginx");
        run_workload(&mut kernel, &mut v1, &workload_for("nginx", 5)).unwrap();
        let old_pids = v1.state.processes.clone();
        let connections_before = kernel.open_connection_count();

        let pipeline = UpdatePipeline::for_options(&UpdateOptions::default())
            .with_fault_plan(FaultSite::Boundary(boundary).plan());
        let (mut survivor, outcome) = pipeline.run(
            &mut kernel,
            v1,
            Box::new(programs::nginx(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );

        // The attempt aborted with the injected fault as its conflict.
        assert!(!outcome.is_committed(), "fault before {boundary} must abort the update");
        assert!(
            outcome
                .conflicts()
                .iter()
                .any(|c| matches!(c, Conflict::FaultInjected { phase } if phase == boundary.label())),
            "fault before {boundary}: conflicts {:?}",
            outcome.conflicts()
        );

        // Phases before the boundary completed; the boundary phase and
        // everything after it never ran.
        let report = outcome.report();
        let mut reached = false;
        for phase in PhaseName::ALL {
            if phase == boundary {
                reached = true;
            }
            if reached {
                assert!(
                    report.phases.duration_of(phase).is_none(),
                    "fault before {boundary}: {phase} must not run"
                );
            } else {
                assert!(
                    report.phases.completed(phase),
                    "fault before {boundary}: {phase} should have completed"
                );
            }
        }

        // The old version survived intact: same version, same processes, no
        // leaked new-version processes, no dropped connections.
        assert_eq!(survivor.state.version, ServerSpec::nginx().version_string(1));
        assert_eq!(survivor.state.processes, old_pids, "old process set unchanged");
        assert_eq!(
            kernel.pids().len(),
            old_pids.len(),
            "fault before {boundary}: new-version processes were torn down"
        );
        assert_eq!(kernel.open_connection_count(), connections_before);

        // ... and it keeps serving traffic after the rollback.
        let result = run_workload(&mut kernel, &mut survivor, &workload_for("nginx", 4)).unwrap();
        assert_eq!(result.completed, 4, "fault before {boundary}: old version serves after rollback");
    }
}

/// A faulted attempt still reports how far it got: the per-phase trace of a
/// rollback is a prefix of the standard phase order.
#[test]
fn rolled_back_report_traces_executed_prefix() {
    let (mut kernel, v1) = booted("vsftpd");
    let pipeline = UpdatePipeline::for_options(&UpdateOptions::default())
        .with_fault_plan(FaultSite::Boundary(PhaseName::TraceAndTransfer).plan());
    let (_survivor, outcome) = pipeline.run(
        &mut kernel,
        v1,
        Box::new(programs::vsftpd(2)),
        InstrumentationConfig::full(),
        &UpdateOptions::default(),
    );
    let executed: Vec<PhaseName> = outcome.report().phases.records().iter().map(|r| r.name).collect();
    assert_eq!(executed, vec![PhaseName::Quiesce, PhaseName::ReinitReplay, PhaseName::MatchProcesses]);
    assert!(outcome.report().phases.duration_of(PhaseName::Quiesce).unwrap().0 > 0);
    assert!(outcome.report().phases.duration_of(PhaseName::ReinitReplay).unwrap().0 > 0);
}

#[test]
fn baseline_build_cannot_quiesce_but_serves_normally() {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let opts = BootOptions { config: InstrumentationConfig::baseline(), ..Default::default() };
    let mut instance = boot(&mut kernel, Box::new(programs::nginx(1)), &opts).unwrap();
    let result = run_workload(&mut kernel, &mut instance, &workload_for("nginx", 5)).unwrap();
    assert_eq!(result.completed, 5);
    assert_eq!(instance.state.counters.quiescence_checks, 0);
}
