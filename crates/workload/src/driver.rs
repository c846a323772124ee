//! Client-side workload drivers.
//!
//! These model the benchmarks the paper uses: the Apache benchmark (AB)
//! issuing HTTP requests for a small file, the pyftpdlib FTP benchmark
//! retrieving a large file over many user connections, and the OpenSSH
//! regression suite opening authenticated sessions.
//!
//! The drivers are *event-driven*: each client action (`client_connect`,
//! `client_send`, `client_close`) pushes wakeups onto the kernel's wake
//! queue, and the driver then lets the server's scheduler run until it is
//! idle again (`settle`). Only the threads those events made ready
//! actually execute, so a driver round costs O(active connections) even
//! against a fleet of mostly-idle sessions. Arrivals are *open-loop*: with
//! [`WorkloadSpec::interarrival_ns`] set, the driver advances the virtual
//! clock between requests (firing any timer-wheel entries the advance
//! passes over) instead of waiting for the previous response — the
//! constant-rate regime the paper's AB runs model. Both wall-clock time
//! (for overhead ratios) and simulated time are measured.

use std::time::{Duration, Instant};

use mcr_core::runtime::{run_round, McrInstance, RoundStats};
use mcr_core::McrResult;
use mcr_procsim::{ConnId, Kernel, SimDuration};

/// Description of one client workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Workload name (for reports).
    pub(crate) name: String,
    /// Server port to connect to.
    pub port: u16,
    /// Number of requests to issue.
    pub(crate) requests: u64,
    /// Request payload sent per connection.
    pub request: Vec<u8>,
    /// Whether the client closes the connection after the response
    /// (AB-style) or keeps it open (long-lived FTP/SSH sessions).
    pub(crate) close_after_response: bool,
    /// Number of long-lived idle connections opened before the measured
    /// requests (the execution-stalling part of the profiling workload).
    pub idle_connections: usize,
    /// Simulated nanoseconds between request arrivals. `0` issues requests
    /// back-to-back; a positive value drives an open-loop arrival process
    /// through the kernel clock (and timer wheel).
    pub(crate) interarrival_ns: u64,
}

impl WorkloadSpec {
    /// The Apache-benchmark-style HTTP workload (100k requests of a 1 KB
    /// file in the paper; the count is a parameter here).
    pub fn apache_bench(port: u16, requests: u64) -> Self {
        WorkloadSpec {
            name: "ab".into(),
            port,
            requests,
            request: b"GET /index.html HTTP/1.0\r\nHost: localhost\r\n\r\n".to_vec(),
            close_after_response: true,
            idle_connections: 4,
            interarrival_ns: 0,
        }
    }

    /// The pyftpdlib-style FTP workload (100 users retrieving a 1 MB file).
    pub(crate) fn ftp_bench(port: u16, requests: u64) -> Self {
        WorkloadSpec {
            name: "pyftpdlib".into(),
            port,
            requests,
            request: b"USER anonymous\r\nPASS guest\r\nRETR /var/ftp/large.bin\r\n".to_vec(),
            close_after_response: false,
            idle_connections: 4,
            interarrival_ns: 0,
        }
    }

    /// The OpenSSH-test-suite-style workload (authenticated sessions
    /// exchanging channel data).
    pub(crate) fn ssh_suite(port: u16, requests: u64) -> Self {
        WorkloadSpec {
            name: "ssh-suite".into(),
            port,
            requests,
            request: b"SSH-2.0-OpenSSH_3.5 key-exchange channel-open".to_vec(),
            close_after_response: false,
            idle_connections: 2,
            interarrival_ns: 0,
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadResult {
    /// Requests that received a response.
    pub completed: u64,
    /// Requests that received no response within the round budget.
    pub unanswered: u64,
    /// Wall-clock time spent driving the workload (includes all simulator and
    /// MCR instrumentation work).
    pub(crate) wall_time: Duration,
    /// Simulated time elapsed.
    pub sim_time: SimDuration,
    /// Connections left open at the end of the run.
    pub(crate) open_connections: Vec<ConnId>,
    /// Accumulated scheduler statistics of the run (steps executed, threads
    /// woken by events).
    pub sched: RoundStats,
}

impl WorkloadResult {
    /// Requests per wall-clock second (throughput proxy).
    pub fn requests_per_second(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }
}

/// Scheduling rounds the driver grants the server to answer one request
/// before counting it unanswered. A single round runs the instance to idle,
/// so the first round normally answers. The count stays at four because an
/// extra idle round can fire timers and move the simulated clock, which the
/// tracked simulated figures depend on.
const RESPONSE_ROUNDS: usize = 4;

/// Lets the server's scheduler drain whatever the latest client events made
/// ready, accumulating statistics into `total`.
///
/// # Errors
///
/// Propagates server-side errors.
fn settle(kernel: &mut Kernel, instance: &mut McrInstance, total: &mut RoundStats) -> McrResult<()> {
    total.absorb(&run_round(kernel, instance)?);
    Ok(())
}

/// Opens `n` idle connections to `port` without sending any request (the
/// long-lived connections of the profiling workload and of the Figure 3
/// experiment). The server accepts them as the connect events wake its
/// acceptors.
///
/// # Errors
///
/// Fails if the port has no listener.
pub fn open_idle_connections(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    port: u16,
    n: usize,
) -> McrResult<Vec<ConnId>> {
    let mut conns = Vec::with_capacity(n);
    for _ in 0..n {
        let c = kernel.client_connect(port).map_err(mcr_core::McrError::Sim)?;
        kernel.client_send(c, b"KEEPALIVE".to_vec()).map_err(mcr_core::McrError::Sim)?;
        conns.push(c);
    }
    // Let the server accept them all. One round runs the instance to idle;
    // the `n + 2` rounds stay because extra idle rounds can fire timers and
    // move the simulated clock the tracked figures depend on.
    let mut stats = RoundStats::default();
    for _ in 0..(n + 2) {
        settle(kernel, instance, &mut stats)?;
    }
    Ok(conns)
}

/// Builds a pre-copy round hook
/// ([`PrecopyHook`](mcr_core::runtime::PrecopyHook)) that keeps the old
/// instance serving while a live update's pre-copy rounds are in flight:
/// after every concurrent copy round it issues `per_round` fresh requests
/// from `spec` and lets the (still live) old version answer them. This is
/// the client-visible half of the pre-copy story — traffic served during
/// rounds would have been queued behind the stop-the-world window without
/// pre-copy.
pub fn precopy_serving_hook(spec: &WorkloadSpec, per_round: u64) -> mcr_core::runtime::PrecopyHook {
    let spec = spec.clone();
    Box::new(move |kernel: &mut Kernel, old: &mut McrInstance, _round: usize| {
        for _ in 0..per_round {
            let Ok(conn) = kernel.client_connect(spec.port) else { continue };
            let _ = kernel.client_send(conn, spec.request.clone());
            let _ = run_round(kernel, old);
            let _ = kernel.client_recv(conn);
            if spec.close_after_response {
                let _ = kernel.client_close(conn);
            }
        }
    })
}

/// Runs a workload against a booted server instance.
///
/// # Errors
///
/// Propagates server-side errors; client-side connect failures count as
/// unanswered requests.
pub fn run_workload(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    spec: &WorkloadSpec,
) -> McrResult<WorkloadResult> {
    let mut result = WorkloadResult::default();
    let wall_start = Instant::now();
    let sim_start = kernel.now();

    result.open_connections = open_idle_connections(kernel, instance, spec.port, spec.idle_connections)?;

    for _ in 0..spec.requests {
        if spec.interarrival_ns > 0 {
            // Open-loop arrivals: the clock advance itself can fire
            // timer-wheel wakeups, which the next settle pass drains.
            kernel.advance_clock(SimDuration(spec.interarrival_ns));
        }
        let Ok(conn) = kernel.client_connect(spec.port) else {
            result.unanswered += 1;
            continue;
        };
        kernel.client_send(conn, spec.request.clone()).map_err(mcr_core::McrError::Sim)?;
        let mut answered = false;
        for _ in 0..RESPONSE_ROUNDS {
            settle(kernel, instance, &mut result.sched)?;
            if let Some(_reply) = kernel.client_recv(conn) {
                answered = true;
                break;
            }
        }
        if answered {
            result.completed += 1;
        } else {
            result.unanswered += 1;
        }
        if spec.close_after_response {
            kernel.client_close(conn).map_err(mcr_core::McrError::Sim)?;
        } else {
            result.open_connections.push(conn);
        }
    }

    result.wall_time = wall_start.elapsed();
    result.sim_time = kernel.now().duration_since(sim_start);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_core::runtime::{boot, BootOptions};
    use mcr_servers::{install_standard_files, programs};

    #[test]
    fn apache_bench_completes_against_nginx() {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        let mut instance = boot(&mut kernel, Box::new(programs::nginx(1)), &BootOptions::default()).unwrap();
        let spec = WorkloadSpec::apache_bench(8080, 20);
        let result = run_workload(&mut kernel, &mut instance, &spec).unwrap();
        assert_eq!(result.completed, 20);
        assert_eq!(result.unanswered, 0);
        assert!(result.sim_time.0 > 0);
        assert!(result.requests_per_second() > 0.0);
        assert!(result.sched.woken > 0, "requests were served via event wakeups");
        // AB closes its measured connections; the idle ones stay open.
        assert_eq!(result.open_connections.len(), spec.idle_connections);
    }

    #[test]
    fn ftp_bench_keeps_sessions_open() {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        let mut instance = boot(&mut kernel, Box::new(programs::vsftpd(1)), &BootOptions::default()).unwrap();
        let spec = WorkloadSpec::ftp_bench(21, 5);
        let result = run_workload(&mut kernel, &mut instance, &spec).unwrap();
        assert_eq!(result.completed, 5);
        assert_eq!(result.open_connections.len(), spec.idle_connections + 5);
        // One session process per accepted connection.
        assert!(instance.state.processes.len() > 1);
    }

    #[test]
    fn idle_connections_are_accepted() {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        let mut instance = boot(&mut kernel, Box::new(programs::sshd(1)), &BootOptions::default()).unwrap();
        let conns = open_idle_connections(&mut kernel, &mut instance, 22, 6).unwrap();
        assert_eq!(conns.len(), 6);
        assert!(conns.iter().all(|&c| kernel.client_is_accepted(c)));
        assert_eq!(kernel.open_connection_count(), 6);
    }

    #[test]
    fn open_loop_arrivals_advance_the_virtual_clock() {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        let mut instance = boot(&mut kernel, Box::new(programs::nginx(1)), &BootOptions::default()).unwrap();
        let gap = 1_000_000u64; // 1 ms between arrivals
        let spec = WorkloadSpec { interarrival_ns: gap, ..WorkloadSpec::apache_bench(8080, 10) };
        let result = run_workload(&mut kernel, &mut instance, &spec).unwrap();
        assert_eq!(result.completed, 10);
        assert!(
            result.sim_time.0 >= 10 * gap,
            "open-loop pacing advanced simulated time by at least the arrival gaps"
        );
    }
}
