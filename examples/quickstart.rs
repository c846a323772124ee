//! Quickstart: boot a simulated MCR-enabled server, serve a request, and
//! live-update it to a new version without dropping the listening socket.
//!
//! Run with: `cargo run --example quickstart`

use mcr_core::runtime::{boot, live_update, run_rounds, BootOptions, PhaseName, UpdateOptions};
use mcr_procsim::Kernel;
use mcr_servers::{install_standard_files, programs};
use mcr_typemeta::InstrumentationConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot the simulated kernel and the old version of the server.
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let mut v1 = boot(&mut kernel, Box::new(programs::nginx(1)), &BootOptions::default())?;
    println!("booted nginx {} with {} processes", v1.state.version, v1.state.processes.len());

    // 2. Serve a request with the old version.
    let conn = kernel.client_connect(8080)?;
    kernel.client_send(conn, b"GET /index.html HTTP/1.0".to_vec())?;
    run_rounds(&mut kernel, &mut v1, 2)?;
    println!("v1 answered: {}", String::from_utf8_lossy(&kernel.client_recv(conn).unwrap()));

    // 3. Live update to the next release: checkpoint, restart, restore.
    let (mut v2, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(programs::nginx(2)),
        InstrumentationConfig::full(),
        &UpdateOptions::default(),
    );
    let report = outcome.report();
    println!(
        "update committed={} quiescence={:.3}ms control-migration={:.3}ms state-transfer={:.3}ms",
        outcome.is_committed(),
        report.phases.duration_of(PhaseName::Quiesce).unwrap_or_default().as_millis_f64(),
        report.phases.duration_of(PhaseName::ReinitReplay).unwrap_or_default().as_millis_f64(),
        report.timings.state_transfer.as_millis_f64(),
    );

    // 4. The same listening socket keeps serving, now with the new version.
    let conn = kernel.client_connect(8080)?;
    kernel.client_send(conn, b"GET /index.html HTTP/1.0".to_vec())?;
    run_rounds(&mut kernel, &mut v2, 2)?;
    println!("v2 answered: {}", String::from_utf8_lossy(&kernel.client_recv(conn).unwrap()));
    Ok(())
}
