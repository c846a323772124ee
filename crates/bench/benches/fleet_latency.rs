//! Fleet-scale request-latency percentiles measured *through* a live update.
//!
//! For each fleet size this bench boots a [`FleetServer`] (one reader thread
//! per connection, event-driven scheduling), establishes the whole fleet,
//! then drives paced open-loop requests (fixed interarrival, the
//! `WorkloadSpec::interarrival_ns` pacing model) against strided sessions
//! while recording per-request latency in *simulated* time. Mid-run it fires
//! a full pre-copy live update to version 2 and keeps measuring:
//!
//! * `steady`   — requests served by v1 before the update;
//! * `update`   — requests served by v1 *while* pre-copy rounds run (the
//!   paper's service-during-update claim), injected via the pipeline's
//!   pre-copy hook;
//! * `blackout` — probe requests sent after the last pre-copy round and
//!   answered only by v2 after commit: their latency is the full quiesce +
//!   trace-and-transfer + commit window, the tail operators actually fear;
//! * `post`     — requests served by v2 after the update (session descriptors
//!   recovered from the transferred `conn_fds` global).
//!
//! A second update (v2 → v3) is then forced through the *post-copy*
//! pipeline: the commit parks the session table's residual, and the drain
//! hook stores precomputed slot values into the parked table — every store
//! traps and blocks until the touched objects fault in. The per-trap
//! service latencies (`PostcopySummary::trap_service_ns`) feed a
//! `trap_service` percentile row: the tail post-copy trades the blackout
//! window for.
//!
//! Every phase reports p50/p99/p99.9 (nearest rank, exact over the recorded
//! samples), plus host wall nanoseconds per steady request — the per-event
//! cost the CI smoke step asserts stays flat (within 2x) across fleet sizes.
//! Simulated-time latencies are host-independent, so the percentile rows are
//! reproducible; only `wall_per_event_ns` varies with the machine.
//!
//! `FLEET_LATENCY_SIZES` (comma-separated) overrides the default sweep —
//! the CI smoke step runs a reduced one and uploads
//! `BENCH_fleet_latency.json`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mcr_bench::{percentile_of, FleetServer, Json, FLEET_PORT};
use mcr_core::runtime::{
    boot, run_round, run_rounds, BootOptions, McrInstance, PrecopyOptions, TransferMode, UpdateOptions,
    UpdatePipeline,
};
use mcr_procsim::{ConnId, Kernel, SimDuration};
use mcr_typemeta::InstrumentationConfig;

/// Fleet sizes swept by default. Overridable via `FLEET_LATENCY_SIZES`.
const FLEET_SIZES: [usize; 2] = [10_000, 100_000];
/// Open-loop pacing: simulated nanoseconds between request arrivals.
const INTERARRIVAL_NS: u64 = 10_000;
/// Requests measured before the update.
const STEADY_REQUESTS: usize = 1_500;
/// Requests served by the old version per pre-copy round.
const UPDATE_REQUESTS: usize = 200;
/// Probe requests parked through the quiescence window.
const BLACKOUT_REQUESTS: usize = 50;
/// Requests measured after the update.
const POST_REQUESTS: usize = 500;
/// Stride walking the fleet so consecutive requests hit distant sessions.
const SLOT_STRIDE: usize = 9973;
/// Strided session-table slots the post-copy drain hook rewrites: each
/// store targets the parked table, trapping on a not-yet-transferred page
/// (the trap-service latency source).
const TRAP_REWRITES: usize = 64;

fn fleet_sizes() -> Vec<usize> {
    match std::env::var("FLEET_LATENCY_SIZES") {
        Ok(list) => {
            let sizes: Vec<usize> = list.split(',').filter_map(|t| t.trim().parse().ok()).collect();
            assert!(!sizes.is_empty(), "FLEET_LATENCY_SIZES must name at least one fleet size");
            sizes
        }
        Err(_) => FLEET_SIZES.to_vec(),
    }
}

/// One paced request: advance the open-loop clock, send on `conn`, run the
/// instance until the reply arrives, and return the simulated latency in
/// milliseconds.
fn timed_request(kernel: &mut Kernel, instance: &mut McrInstance, conn: ConnId) -> f64 {
    kernel.advance_clock(SimDuration(INTERARRIVAL_NS));
    let t0 = kernel.now();
    kernel.client_send(conn, b"ping".to_vec()).expect("send");
    for _ in 0..8 {
        run_round(kernel, instance).expect("round");
        if kernel.client_recv(conn).is_some() {
            return kernel.now().duration_since(t0).0 as f64 / 1e6;
        }
    }
    panic!("request on {conn:?} went unanswered");
}

fn phase_json(name: &str, samples: &[f64]) -> (&'static str, Json) {
    let json = Json::obj([
        ("requests", samples.len().into()),
        ("p50_ms", Json::Num(percentile_of(samples, 50.0))),
        ("p99_ms", Json::Num(percentile_of(samples, 99.0))),
        ("p999_ms", Json::Num(percentile_of(samples, 99.9))),
        ("max_ms", Json::Num(samples.iter().copied().fold(0.0, f64::max))),
    ]);
    // Leak-free static-str mapping keeps Json::obj's simple key type.
    match name {
        "steady" => ("steady", json),
        "update" => ("update", json),
        "blackout" => ("blackout", json),
        "trap_service" => ("trap_service", json),
        _ => ("post", json),
    }
}

fn run_size(threads: usize) -> Json {
    let mut kernel = Kernel::new();
    let mut v1 =
        boot(&mut kernel, Box::new(FleetServer::new(threads)), &BootOptions::default()).expect("fleet boots");
    let conns: Vec<ConnId> = (0..threads).map(|_| kernel.client_connect(FLEET_PORT).unwrap()).collect();
    run_rounds(&mut kernel, &mut v1, 2).expect("fleet setup");
    assert!(conns.iter().all(|&c| kernel.client_is_accepted(c)), "all sessions accepted");

    // Steady phase: paced requests against strided sessions, timed on the
    // host to get the per-event wall cost.
    let mut steady = Vec::with_capacity(STEADY_REQUESTS);
    let wall = Instant::now();
    for i in 0..STEADY_REQUESTS {
        let conn = conns[(i * SLOT_STRIDE) % threads];
        steady.push(timed_request(&mut kernel, &mut v1, conn));
    }
    let wall_per_event_ns = wall.elapsed().as_nanos() as f64 / STEADY_REQUESTS as f64;

    // The update: pre-copy rounds keep v1 serving (the hook's requests are
    // the `update` phase); after its batch the hook launches the blackout
    // probes, which stall through quiesce/transfer/commit and are answered
    // by v2 only.
    let update_samples: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    let probes: Rc<RefCell<Vec<(ConnId, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let hook_update = Rc::clone(&update_samples);
    let hook_probes = Rc::clone(&probes);
    let hook_conns = conns.clone();
    let hook = Box::new(move |kernel: &mut Kernel, old: &mut McrInstance, _round: usize| {
        // Served-during-update batch (only the first pre-copy round issues
        // it; convergence usually ends the iteration right after).
        if hook_update.borrow().is_empty() {
            for i in 0..UPDATE_REQUESTS {
                let conn = hook_conns[(1 + i * SLOT_STRIDE) % hook_conns.len()];
                hook_update.borrow_mut().push(timed_request(kernel, old, conn));
            }
            for i in 0..BLACKOUT_REQUESTS {
                kernel.advance_clock(SimDuration(INTERARRIVAL_NS));
                let conn = hook_conns[(2 + i * SLOT_STRIDE) % hook_conns.len()];
                kernel.client_send(conn, b"ping".to_vec()).expect("probe send");
                hook_probes.borrow_mut().push((conn, kernel.now().0));
            }
        }
    });
    let update_opts = UpdateOptions {
        precopy: PrecopyOptions { rounds: 2, convergence_bytes: 0, serve_rounds: 1 },
        ..Default::default()
    };
    let pipeline = UpdatePipeline::for_options(&update_opts).with_precopy_hook(hook);
    let (mut v2, outcome) = pipeline.run(
        &mut kernel,
        v1,
        Box::new(FleetServer::with_version(threads, 2)),
        InstrumentationConfig::full(),
        &update_opts,
    );
    assert!(outcome.is_committed(), "{threads}: update commits: {:?}", outcome.conflicts());
    let report = outcome.report();
    let update_total_ms = report.timings.total.as_millis_f64();

    // Collect the blackout probes: v2 answers them from its transferred
    // session table; their latency spans the whole update window.
    let mut blackout = Vec::new();
    run_rounds(&mut kernel, &mut v2, 3).expect("post-update rounds");
    for &(conn, t0) in probes.borrow().iter() {
        let reply = kernel.client_recv(conn).expect("blackout probe answered after commit");
        assert!(!reply.is_empty());
        blackout.push((kernel.now().0 - t0) as f64 / 1e6);
    }
    assert_eq!(blackout.len(), BLACKOUT_REQUESTS, "{threads}: all probes crossed the update");

    // Post phase: v2 serves the same fleet.
    let mut post = Vec::with_capacity(POST_REQUESTS);
    for i in 0..POST_REQUESTS {
        let conn = conns[(3 + i * SLOT_STRIDE) % threads];
        post.push(timed_request(&mut kernel, &mut v2, conn));
    }

    // Trap-service phase: a second update (v2 → v3) forced through the
    // post-copy pipeline. The commit parks the session table's residual
    // behind access traps; during the drain, the hook stores into the
    // parked table — each store blocks until the parked objects on the
    // touched pages are faulted in, and the per-trap service latency (fixed
    // trap entry cost + fault-in apply cost) is the tail post-copy trades
    // the blackout window for. The stored values are precomputed from the
    // still-serving v2 table (reads of parked pages return unapplied bytes,
    // so the hook must not read-modify-write): rewriting the exact slot
    // values the transfer applies anyway leaves every session intact while
    // the stores still trap.
    let conn_fds_addr = v2.state.statics.lookup("conn_fds").expect("fleet server defines conn_fds").addr;
    let trap_writes: Vec<(u64, u32)> = {
        let pid = v2.state.processes[0];
        let space = kernel.process(pid).expect("v2 process").space();
        let base = space.read_ptr(conn_fds_addr).expect("conn_fds points at the table");
        (0..TRAP_REWRITES.min(threads))
            .map(|i| {
                let slot = (i * SLOT_STRIDE) % threads;
                let off = 4 * slot as u64;
                (off, space.read_u32(base.offset(off)).expect("slot read"))
            })
            .collect()
    };
    let fired = Rc::new(RefCell::new(false));
    let hook_fired = Rc::clone(&fired);
    let drain_hook = Box::new(move |kernel: &mut Kernel, new: &mut McrInstance, _round: usize| {
        if std::mem::replace(&mut *hook_fired.borrow_mut(), true) {
            return;
        }
        for &pid in &new.state.processes {
            let Ok(proc) = kernel.process_mut(pid) else { continue };
            let Ok(base) = proc.space().read_ptr(conn_fds_addr) else { continue };
            for &(off, val) in &trap_writes {
                proc.space_mut().write_u32(base.offset(off), val).expect("trap rewrite");
            }
        }
    });
    let postcopy_opts = UpdateOptions {
        mode: TransferMode::Postcopy,
        precopy: PrecopyOptions::disabled(),
        ..Default::default()
    };
    let pipeline = UpdatePipeline::for_options(&postcopy_opts).with_postcopy_hook(drain_hook);
    let (mut v3, outcome2) = pipeline.run(
        &mut kernel,
        v2,
        Box::new(FleetServer::with_version(threads, 3)),
        InstrumentationConfig::full(),
        &postcopy_opts,
    );
    assert!(outcome2.is_committed(), "{threads}: post-copy update commits: {:?}", outcome2.conflicts());
    let pc = &outcome2.report().postcopy;
    assert!(pc.enabled && pc.deferred_objects > 0, "{threads}: nothing was parked at commit");
    assert!(
        !pc.trap_service_ns.is_empty(),
        "{threads}: drain rewrites never trapped on the parked session table"
    );
    let trap_service: Vec<f64> = pc.trap_service_ns.iter().map(|&ns| ns as f64 / 1e6).collect();

    // The original fleet still answers on v3 after the drain.
    let mut post2 = Vec::with_capacity(50);
    for i in 0..50 {
        let conn = conns[(4 + i * SLOT_STRIDE) % threads];
        post2.push(timed_request(&mut kernel, &mut v3, conn));
    }
    assert!(post2.iter().all(|&ms| ms > 0.0));

    let update = update_samples.borrow();
    assert_eq!(update.len(), UPDATE_REQUESTS, "{threads}: pre-copy rounds served the update batch");
    eprintln!(
        "threads {threads:>7}: steady p50 {:.4} ms p99 {:.4} ms | update p99 {:.4} ms | \
         blackout p99 {:.3} ms | post p99 {:.4} ms | trap p50 {:.4} ms p99 {:.4} ms ({} traps) | \
         update total {update_total_ms:.3} ms | {wall_per_event_ns:.0} ns/event",
        percentile_of(&steady, 50.0),
        percentile_of(&steady, 99.0),
        percentile_of(&update, 99.0),
        percentile_of(&blackout, 99.0),
        percentile_of(&post, 99.0),
        percentile_of(&trap_service, 50.0),
        percentile_of(&trap_service, 99.0),
        trap_service.len(),
    );

    Json::obj([
        ("threads", threads.into()),
        ("interarrival_ns", INTERARRIVAL_NS.into()),
        phase_json("steady", &steady),
        phase_json("update", &update),
        phase_json("blackout", &blackout),
        phase_json("post", &post),
        phase_json("trap_service", &trap_service),
        ("traps", pc.traps.into()),
        ("trap_objects", pc.trap_objects.into()),
        ("drained_objects", pc.drained_objects.into()),
        ("update_total_ms", Json::Num(update_total_ms)),
        ("update_committed", true.into()),
        ("wall_per_event_ns", Json::Num(wall_per_event_ns)),
    ])
}

fn main() {
    let rows: Vec<Json> = fleet_sizes().into_iter().map(run_size).collect();
    let doc = Json::obj([("experiment", Json::str("fleet_latency")), ("rows", Json::Arr(rows))]);
    println!("{}", doc.render());
}
