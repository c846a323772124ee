//! Applies a long chain of consecutive live updates to the event-driven
//! nginx model (the paper evaluates 25 nginx releases), checking after each
//! update that pending client connections are still served, no request is
//! ever refused, and each generation's layout lies 2^32 past the previous
//! one's (the runtime derives it; the caller sets nothing).
//!
//! Run with: `cargo run --example nginx_zero_downtime`

use mcr_core::runtime::{boot, live_update, run_rounds, BootOptions, UpdateOptions};
use mcr_procsim::Kernel;
use mcr_servers::{install_standard_files, programs};
use mcr_typemeta::InstrumentationConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut kernel = Kernel::new();
    install_standard_files(&mut kernel);
    let mut instance = boot(&mut kernel, Box::new(programs::nginx(1)), &BootOptions::default())?;
    let updates = 10u32;
    let mut total_transfer_ms = 0.0;

    for generation in 2..=(1 + updates) {
        // A client connects *before* the update; it must be served after.
        let pending = kernel.client_connect(8080)?;
        kernel.client_send(pending, b"GET / HTTP/1.0".to_vec())?;

        let static_base = kernel.process(instance.state.processes[0])?.layout().static_base;
        let (next, outcome) = live_update(
            &mut kernel,
            instance,
            Box::new(programs::nginx(generation)),
            InstrumentationConfig::full_with_region_instrumentation(),
            &UpdateOptions::default(),
        );
        assert!(
            outcome.is_committed(),
            "update to generation {generation} failed: {:?}",
            outcome.conflicts()
        );
        total_transfer_ms += outcome.report().timings.state_transfer.as_millis_f64();
        instance = next;
        let new_base = kernel.process(instance.state.processes[0])?.layout().static_base;
        assert_eq!(new_base, static_base.offset(0x1_0000_0000), "generation {generation}'s layout");

        run_rounds(&mut kernel, &mut instance, 3)?;
        let reply = kernel.client_recv(pending).expect("pending request served after the update");
        assert!(String::from_utf8_lossy(&reply).contains(&format!("gen{generation}")));
        println!("update {} -> {}: ok ({})", generation - 1, generation, String::from_utf8_lossy(&reply));
    }
    println!(
        "{updates} consecutive live updates committed; average state-transfer time {:.3} ms",
        total_transfer_ms / f64::from(updates)
    );
    Ok(())
}
