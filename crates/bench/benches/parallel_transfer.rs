//! Modelled-worker sweep of the trace/transfer phase.
//!
//! For each multiprocess server spec this bench performs one live update per
//! `transfer_workers` value (1 = the serial sum, 2, 4, and 0 = one worker per
//! pair) and emits a JSON row per run. The pairs always run one after the
//! other; `state_transfer_ns` is the simulated list-schedule makespan of
//! their costs on that many workers and `state_transfer_serial_ns` the
//! phase-level sequential figure (which also includes process matching, so
//! it exceeds the pair-cost sum even with one worker).
//!
//! The guard on the model's wiring is `speedup`: the sum of per-pair transfer
//! costs (`pair_sum_ns`, exactly what one worker is charged) divided by the
//! reported makespan. One worker must report exactly 1.0; any multi-worker
//! run over >= 4 pairs must report strictly more — if the phase stops
//! charging the schedule, this (and the CI smoke step's mirror) fires.

use mcr_bench::{update_with_options, Json};
use mcr_core::runtime::UpdateOptions;
use mcr_typemeta::InstrumentationConfig;

/// `(label, program, requests, open connections)` scenarios. The
/// per-connection servers fork one session process per served request and
/// open connection, so every scenario yields at least four matched pairs
/// (asserted below); `vsftpd/small` is the smallest sweep point, the other
/// rows scale further up.
const SCENARIOS: [(&str, &str, u64, usize); 4] = [
    ("vsftpd/small", "vsftpd", 2, 3),
    ("vsftpd", "vsftpd", 4, 8),
    ("sshd", "sshd", 4, 6),
    ("nginx", "nginx", 4, 6),
];

fn main() {
    let mut rows = Vec::new();
    for (label, program, requests, open) in SCENARIOS {
        for requested in [1usize, 2, 4, 0] {
            let opts = UpdateOptions { transfer_workers: requested, ..Default::default() };
            let outcome =
                update_with_options(program, 1, requests, open, InstrumentationConfig::full(), &opts);
            assert!(outcome.is_committed(), "{label}: {:?}", outcome.conflicts());
            let report = outcome.report();
            let pairs = report.processes_matched + report.processes_recreated;
            let workers = report.transfer.workers;
            let parallel_ns = report.timings.state_transfer.0;
            let serial_ns = report.timings.state_transfer_serial.0;
            let pair_sum_ns = report.transfer.serial_duration.0;
            let speedup = pair_sum_ns as f64 / (parallel_ns.max(1)) as f64;
            if program != "nginx" {
                assert!(pairs >= 4, "{label}: expected a multiprocess spec, got {pairs} pairs");
            }
            if workers == 1 {
                assert!(
                    (speedup - 1.0).abs() < 1e-9,
                    "{label}: the serial ablation must report exactly the pair-cost sum"
                );
            } else {
                assert!(speedup >= 1.0, "{label} workers={workers}: parallel slower than serial");
                if pairs >= 4 {
                    assert!(speedup > 1.0, "{label} workers={workers} pairs={pairs}: phase re-serialized");
                }
            }
            eprintln!(
                "{label:<13} workers {workers:>2} (req {requested}) pairs {pairs:>2}: \
                 st {parallel_ns:>9} ns  pair-sum {pair_sum_ns:>9} ns  serial {serial_ns:>9} ns  \
                 speedup {speedup:.2}x  host {:>9} ns",
                report.transfer.host_wall_ns
            );
            rows.push(Json::obj([
                ("program", Json::str(label)),
                ("requested_workers", requested.into()),
                ("workers", workers.into()),
                ("pairs", pairs.into()),
                ("state_transfer_ns", parallel_ns.into()),
                ("state_transfer_serial_ns", serial_ns.into()),
                ("pair_sum_ns", pair_sum_ns.into()),
                ("speedup", Json::Num(speedup)),
                ("host_wall_ns", report.transfer.host_wall_ns.into()),
            ]));
        }
    }
    let doc = Json::obj([("experiment", Json::str("parallel_transfer")), ("rows", Json::Arr(rows))]);
    println!("{}", doc.render());
}
