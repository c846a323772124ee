//! Live update of the multiprocess, multithreaded Apache httpd model with
//! open client connections, printing the full update report.
//!
//! Run with: `cargo run --example live_update_httpd`

use mcr_core::runtime::{boot, live_update, BootOptions, PhaseName, UpdateOptions};
use mcr_procsim::Kernel;
use mcr_servers::{install_standard_files, programs};
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::{open_idle_connections, run_workload, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let mut v1 = boot(&mut kernel, Box::new(programs::httpd(1)), &BootOptions::default())?;
    println!(
        "httpd {}: {} processes, {} threads",
        v1.state.version,
        v1.state.processes.len(),
        v1.state.threads.len()
    );

    // Drive an Apache-bench style workload, then leave 50 connections open.
    let result = run_workload(&mut kernel, &mut v1, &WorkloadSpec::apache_bench(80, 200))?;
    println!("workload: {} requests completed, {:.1} req/s", result.completed, result.requests_per_second());
    open_idle_connections(&mut kernel, &mut v1, 80, 50)?;

    let (v2, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(programs::httpd(2)),
        InstrumentationConfig::full(),
        &UpdateOptions::default(),
    );
    let report = outcome.report();
    println!("committed: {}", outcome.is_committed());
    println!("  open connections at update time : {}", report.open_connections);
    println!(
        "  processes matched / recreated   : {} / {}",
        report.processes_matched, report.processes_recreated
    );
    let phase_ms = |name| report.phases.duration_of(name).unwrap_or_default().as_millis_f64();
    println!("  quiescence                      : {:.3} ms", phase_ms(PhaseName::Quiesce));
    println!("  control migration               : {:.3} ms", phase_ms(PhaseName::ReinitReplay));
    println!("  state transfer (modelled)       : {:.3} ms", report.timings.state_transfer.as_millis_f64());
    println!(
        "  state transfer (serial)         : {:.3} ms",
        report.transfer.serial_duration().as_millis_f64()
    );
    println!("  objects transferred             : {}", report.transfer.objects_transferred());
    println!("  bytes transferred               : {}", report.transfer.bytes_transferred());
    println!("  precise pointers                : {}", report.tracing.precise.total);
    println!("  likely pointers                 : {}", report.tracing.likely.total);
    println!("  dirty-tracking reduction        : {:.1}%", report.dirty_reduction() * 100.0);
    println!("new version: httpd {}", v2.state.version);
    Ok(())
}
