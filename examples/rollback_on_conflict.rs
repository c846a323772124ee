//! Demonstrates MCR's atomic, reversible updates: a new version whose type
//! change touches a pinned (conservatively referenced) object causes a
//! conflict, the update rolls back, and the old version keeps serving.
//!
//! Run with: `cargo run --example rollback_on_conflict`

use mcr_core::runtime::{boot, live_update, run_rounds, BootOptions, UpdateOptions};
use mcr_core::Conflict;
use mcr_procsim::Kernel;
use mcr_servers::{install_standard_files, programs, GenericServer, ServerSpec};
use mcr_typemeta::InstrumentationConfig;

/// vsftpd generation 3 changes the layout of `conn_s` (adds `started_at`);
/// the connection records referenced from the untyped `request_buf` buffer
/// are pinned, so jumping straight from generation 1 to 3 conflicts.
fn incompatible_new_version() -> GenericServer {
    GenericServer::new(ServerSpec::vsftpd(), 3)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let mut v1 = boot(&mut kernel, Box::new(programs::vsftpd(1)), &BootOptions::default())?;

    // Serve a few sessions so connection records exist (and one of them is
    // referenced from the untyped scratch buffer).
    for _ in 0..6 {
        let c = kernel.client_connect(21)?;
        kernel.client_send(c, b"USER anonymous".to_vec())?;
        run_rounds(&mut kernel, &mut v1, 2)?;
    }

    let (mut survivor, outcome) = live_update(
        &mut kernel,
        v1,
        Box::new(incompatible_new_version()),
        InstrumentationConfig::full(),
        &UpdateOptions::default(),
    );
    println!("committed: {}", outcome.is_committed());
    for conflict in outcome.conflicts() {
        println!("conflict: {conflict}");
    }
    assert!(!outcome.is_committed(), "the incompatible update must roll back");
    assert!(outcome.conflicts().iter().any(|c| matches!(c, Conflict::NonUpdatableObjectChanged { .. })));

    // The old version resumed from its checkpoint and still answers.
    let c = kernel.client_connect(21)?;
    kernel.client_send(c, b"USER anonymous".to_vec())?;
    run_rounds(&mut kernel, &mut survivor, 2)?;
    println!("old version still serving: {}", String::from_utf8_lossy(&kernel.client_recv(c).unwrap()));
    println!("running version after rollback: vsftpd {}", survivor.state.version);
    Ok(())
}
