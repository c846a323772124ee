//! `fleet_10k`: ten thousand mostly idle sessions, served and updated.

use std::cell::RefCell;
use std::rc::Rc;

use mcr_bench::{FleetServer, FLEET_PORT};
use mcr_core::runtime::{run_round, run_rounds, McrInstance, PrecopyOptions, TransferMode, UpdateOptions};
use mcr_core::Program;
use mcr_procsim::{ConnId, Kernel, SimDuration};

use crate::rng::XorShift;
use crate::trace::Trace;
use crate::workload::{
    serial_options, timed_boot, Batch, Built, Ops, ServeMeter, Traffic, Updated, Window, Workload,
};

const SESSIONS: usize = 10_000;
/// Paced requests of the pre-update serve phase.
const SERVE_REQUESTS: usize = 20_000;
/// Requests the old version serves inside the update, between pre-copy
/// rounds: enough for a p99 with ten samples beyond it.
const WINDOW_REQUESTS: usize = 2_000;
/// Probes sent after those and answered only by the new version: enough for
/// a p95.
const PROBES: usize = 400;
/// Simulated nanoseconds between request arrivals.
const INTERARRIVAL_NS: u64 = 10_000;

pub struct Fleet;

/// One paced request on an established session; returns its simulated
/// latency in milliseconds if it was answered.
fn paced_request(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    conn: ConnId,
    meter: Option<&mut ServeMeter>,
) -> Option<f64> {
    kernel.advance_clock(SimDuration(INTERARRIVAL_NS));
    let sent = kernel.now();
    kernel.client_send(conn, b"ping".to_vec()).ok()?;
    let stats = run_round(kernel, instance).ok()?;
    if let Some(meter) = meter {
        meter.absorb(&stats);
    }
    kernel.client_recv(conn).map(|_| kernel.now().duration_since(sent).as_millis_f64())
}

impl Workload for Fleet {
    fn build(&self, seed: u64, trace: &Trace) -> Built {
        let _span = trace.span("state_build");
        let mut kernel = Kernel::new();
        let (mut instance, boot_ns) = timed_boot(&mut kernel, self.old_program(), trace);
        let conns: Vec<ConnId> =
            (0..SESSIONS).map(|_| kernel.client_connect(FLEET_PORT).expect("fleet listening")).collect();
        let _ = run_rounds(&mut kernel, &mut instance, 2).expect("fleet accepts its sessions");
        assert!(conns.iter().all(|&c| kernel.client_is_accepted(c)), "every session accepted");

        let ops = Rc::new(Ops::default());
        let mut rng = XorShift::new(seed, 3);
        let serve_span = trace.span("serve");
        let mut meter = ServeMeter::start(&kernel);
        for _ in 0..SERVE_REQUESTS {
            let conn = conns[rng.below(SESSIONS)];
            ops.record(paced_request(&mut kernel, &mut instance, conn, Some(&mut meter)).is_some());
        }
        let serve = meter.finish(&kernel, SERVE_REQUESTS as u64);
        drop(serve_span);

        // The window traffic: seeded sessions for the requests served during
        // the update, then probes on distinct sessions.
        let during: Vec<ConnId> = (0..WINDOW_REQUESTS).map(|_| conns[rng.below(SESSIONS)]).collect();
        let mut shuffled = conns;
        rng.shuffle(&mut shuffled);
        shuffled.truncate(PROBES);
        let window: Rc<RefCell<Window>> = Rc::default();
        let batch: Batch = {
            let (ops, window) = (Rc::clone(&ops), Rc::clone(&window));
            Rc::new(move |kernel, instance| {
                let mut window = window.borrow_mut();
                for &conn in &during {
                    let latency = paced_request(kernel, instance, conn, None);
                    ops.record(latency.is_some());
                    window.during_update_sim_ms.extend(latency);
                }
                for &conn in &shuffled {
                    kernel.advance_clock(SimDuration(INTERARRIVAL_NS));
                    if kernel.client_send(conn, b"ping".to_vec()).is_ok() {
                        window.probes.push((conn, kernel.now().0));
                    } else {
                        ops.record(false);
                    }
                }
            })
        };
        let traffic = Traffic { pre: vec![batch], post: Vec::new() };
        Built { kernel, instance, traffic, ops, window, serve, boot_ns, fill_ns: 0 }
    }

    fn own_options(&self) -> UpdateOptions {
        UpdateOptions {
            mode: TransferMode::Precopy,
            precopy: PrecopyOptions { rounds: 2, convergence_bytes: 0, serve_rounds: 1 },
            ..serial_options()
        }
    }

    fn old_program(&self) -> Box<dyn Program> {
        Box::new(FleetServer::new(SESSIONS))
    }

    fn new_program(&self) -> Box<dyn Program> {
        Box::new(FleetServer::with_version(SESSIONS, 2))
    }

    /// Every probe that crossed the window is answered by the new version;
    /// their simulated latencies replace the probe list's send times.
    fn probe(&self, updated: &mut Updated) -> bool {
        if run_rounds(&mut updated.kernel, &mut updated.survivor, 3).is_err() {
            return false;
        }
        let mut window = updated.window.borrow_mut();
        let now = updated.kernel.now().0;
        let mut all = window.probes.len() == PROBES && updated.survivor.state.version == "2.0";
        for (conn, sent) in &mut window.probes {
            let answered = updated.kernel.client_recv(*conn).is_some();
            updated.ops.record(answered);
            all &= answered;
            *sent = now - *sent;
        }
        all
    }

    fn extra_traffic(&self, kernel: &mut Kernel, instance: &mut McrInstance, ops: &Ops) {
        for session in 0..200u64 {
            ops.record(paced_request(kernel, instance, ConnId(1 + session * 37), None).is_some());
        }
    }
}
