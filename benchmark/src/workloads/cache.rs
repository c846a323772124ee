//! `cache_stw` and `cache_precopy`: one process, one big heap.

use std::rc::Rc;
use std::time::Instant;

use mcr_core::runtime::{McrInstance, PrecopyOptions, TransferMode, UpdateOptions};
use mcr_core::Program;
use mcr_procsim::Kernel;
use mcr_servers::{CacheServer, CACHE_PORT};

use crate::rng::XorShift;
use crate::trace::Trace;
use crate::workload::{
    request_reply, serial_options, timed_boot, Batch, Built, Drills, Ops, ParallelAblation, ServeMeter,
    Traffic, Updated, Workload,
};

/// 8 192 entries with 512-byte values: 16 385 objects, ~4.6 MB of heap.
pub const ENTRIES: u64 = 8_192;
const VALUE_BYTES: u64 = 512;
/// `get` requests of the serve phase, after the fill: the cache's request
/// path with the heap at full size.
const SERVE_GETS: u64 = 4_000;
const PRECOPY_ROUNDS: usize = 3;
/// Requests the pre-copy hook sends after each round. The counts are fixed
/// and the seed only orders them, so every seed does the same work.
const GETS_PER_ROUND: usize = 16;
const SETS_PER_ROUND: usize = 8;
const EVICTS_PER_ROUND: usize = 4;

pub struct Cache {
    pub precopy: bool,
    /// Entries the fill inserts: [`ENTRIES`], fewer in unit tests.
    pub entries: u64,
}

/// One cache request; counts it and whether it was answered.
fn send(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    request: &str,
    ops: &Ops,
    meter: Option<&mut ServeMeter>,
) -> Option<String> {
    let reply = request_reply(kernel, instance, CACHE_PORT, request.as_bytes(), 2, meter);
    ops.record(reply.is_some());
    reply.map(|r| String::from_utf8_lossy(&r).into_owned())
}

impl Workload for Cache {
    fn build(&self, seed: u64, trace: &Trace) -> Built {
        let _span = trace.span("state_build");
        let mut kernel = Kernel::new();
        let (mut instance, boot_ns) = timed_boot(&mut kernel, self.old_program(), trace);
        let ops = Rc::new(Ops::default());
        let serve_span = trace.span("serve");
        let fill_start = Instant::now();
        send(&mut kernel, &mut instance, &format!("fill {} {VALUE_BYTES}", self.entries), &ops, None);
        let fill_ns = fill_start.elapsed().as_nanos() as u64;
        let mut meter = ServeMeter::start(&kernel);
        for _ in 0..SERVE_GETS {
            send(&mut kernel, &mut instance, "get", &ops, Some(&mut meter));
        }
        let serve = meter.finish(&kernel, SERVE_GETS);
        send(&mut kernel, &mut instance, "evict", &ops, None);
        drop(serve_span);

        let mut traffic = Traffic::default();
        if self.precopy {
            let mut rng = XorShift::new(seed, 1);
            let set = format!("set {VALUE_BYTES}");
            for _ in 0..PRECOPY_ROUNDS {
                let mut requests = vec!["get".to_string(); GETS_PER_ROUND];
                requests.resize(GETS_PER_ROUND + SETS_PER_ROUND, set.clone());
                requests.resize(GETS_PER_ROUND + SETS_PER_ROUND + EVICTS_PER_ROUND, "evict".to_string());
                rng.shuffle(&mut requests);
                let ops = Rc::clone(&ops);
                let batch: Batch = Rc::new(move |kernel, instance| {
                    for request in &requests {
                        send(kernel, instance, request, &ops, None);
                    }
                });
                traffic.pre.push(batch);
            }
        }
        Built { kernel, instance, traffic, ops, window: Rc::default(), serve, boot_ns, fill_ns }
    }

    fn own_options(&self) -> UpdateOptions {
        if self.precopy {
            UpdateOptions {
                mode: TransferMode::Precopy,
                precopy: PrecopyOptions { rounds: PRECOPY_ROUNDS, convergence_bytes: 0, serve_rounds: 1 },
                ..serial_options()
            }
        } else {
            serial_options()
        }
    }

    /// An entry evicted after a pre-copy round copied it stays in the new
    /// heap as an unreachable chunk, which a stop-the-world update of the
    /// same final state never allocates (README, "Known divergence"; the
    /// ignored test below states what should hold).
    fn reproduces_reference_fingerprint(&self) -> bool {
        !self.precopy
    }

    /// `cache_stw` carries the intra-pair ablation: a budget of two
    /// threads, both spent inside its single pair.
    fn drills(&self) -> Drills {
        let parallel = (!self.precopy).then(|| ParallelAblation {
            wall_ratio: "transfer.parallel_wall_ratio.shards2",
            sim_ratio: "transfer.parallel_sim_ratio.shards2",
            opts: UpdateOptions { transfer_workers: 2, intra_pair_shards: 2, ..serial_options() },
        });
        Drills { parallel, ..Drills::default() }
    }

    fn old_program(&self) -> Box<dyn Program> {
        Box::new(CacheServer::new(1))
    }

    fn new_program(&self) -> Box<dyn Program> {
        Box::new(CacheServer::new(2))
    }

    fn probe(&self, updated: &mut Updated) -> bool {
        send(&mut updated.kernel, &mut updated.survivor, "get", &updated.ops, None)
            .is_some_and(|reply| reply.contains("gen2"))
    }

    fn extra_traffic(&self, kernel: &mut Kernel, instance: &mut McrInstance, ops: &Ops) {
        let set = format!("set {VALUE_BYTES}");
        for i in 0..GETS_PER_ROUND + SETS_PER_ROUND {
            send(kernel, instance, if i % 3 == 2 { &set } else { "get" }, ops, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use mcr_bench::kernel_fingerprint;

    use crate::trace::Trace;
    use crate::workload::Run;
    use crate::workloads::small_cache;

    /// What the reference-execution check wants of every workload, and
    /// `cache_precopy` cannot give while its hook evicts: the reports agree,
    /// the bytes do not. Remove `reproduces_reference_fingerprint` when this
    /// passes.
    #[test]
    #[ignore = "known divergence: an entry evicted after a pre-copy round copied it leaks in the new heap"]
    fn precopy_with_evictions_ends_byte_identical_to_stop_the_world() {
        let workload = small_cache(true);
        let trace = Trace::new();
        let reference = workload.update(workload.build(1, &trace), &Run::Reference, &trace);
        let own = workload.update(workload.build(1, &trace), &Run::Own, &trace);
        assert!(own.outcome.is_committed() && reference.outcome.is_committed());
        assert_eq!(
            own.outcome.report().transfer.per_process,
            reference.outcome.report().transfer.per_process
        );
        assert_eq!(kernel_fingerprint(&own.kernel), kernel_fingerprint(&reference.kernel));
    }
}
