//! `multiproc_stw` and `multiproc_postcopy`: vsftpd's write-heavy scenario,
//! many small process pairs.

use std::rc::Rc;

use mcr_core::runtime::{McrInstance, TransferMode, UpdateOptions};
use mcr_core::Program;
use mcr_procsim::Kernel;
use mcr_servers::{
    apply_scenario_writes, install_standard_files, precopy_scenarios, program_by_name, stamp_request_scratch,
    PrecopyScenario,
};
use mcr_workload::{open_idle_connections, run_workload, workload_for};

use crate::rng::XorShift;
use crate::trace::Trace;
use crate::workload::{
    request_reply, serial_options, timed_boot, Batch, Built, Drills, Ops, ParallelAblation, ServeMeter,
    Traffic, Updated, Workload,
};

/// Scales the scenario's requests and idle connections: 12 FTP sessions and
/// 12 idle connections, 29 matched pairs.
const SIZE_FACTOR: u64 = 3;
const WRITE_BATCHES: usize = 3;
/// `request_buf` slots stamped per process by each post-resume batch.
const SCRATCH_WORDS: usize = 8;

pub struct Multiproc {
    pub postcopy: bool,
}

fn scenario() -> PrecopyScenario {
    precopy_scenarios().into_iter().find(|s| s.name == "write-heavy").expect("write-heavy scenario")
}

/// A seeded 32-bit stamp; the tag keeps pre- and post-update stamps apart.
fn stamp(rng: &mut XorShift, tag: u32) -> u32 {
    tag | (rng.next_u64() as u32 & 0xffff)
}

impl Workload for Multiproc {
    fn build(&self, seed: u64, trace: &Trace) -> Built {
        let _span = trace.span("state_build");
        let scenario = scenario();
        let mut kernel = self.fresh_kernel();
        let (mut instance, boot_ns) = timed_boot(&mut kernel, self.old_program(), trace);
        let ops = Rc::new(Ops::default());
        let serve_span = trace.span("serve");
        let meter = ServeMeter::start(&kernel);
        let spec = workload_for(scenario.program, scenario.requests * SIZE_FACTOR);
        let result = run_workload(&mut kernel, &mut instance, &spec).expect("scenario workload runs");
        let mut serve = meter.finish(&kernel, result.completed);
        serve.steps = result.sched.steps() as u64;
        drop(serve_span);
        // Idle connections are state, not requests: each is held by one more
        // session process, opened outside the serve phase.
        let idle = scenario.open_connections * SIZE_FACTOR as usize;
        let opened =
            open_idle_connections(&mut kernel, &mut instance, spec.port, idle).expect("idle connections");
        let accepted = opened.iter().filter(|&&c| kernel.client_is_accepted(c)).count() as u64;
        for _ in 0..result.completed + accepted {
            ops.record(true);
        }
        for _ in 0..result.unanswered + (idle as u64 - accepted) {
            ops.record(false);
        }

        // The application's writes before the update: connection records,
        // cache entries and the scratch page, stamped from the seed.
        let mut rng = XorShift::new(seed, 2);
        for _ in 0..WRITE_BATCHES {
            let value = stamp(&mut rng, 0xC0DE_0000);
            apply_scenario_writes(&mut kernel, &instance, &scenario, value);
            stamp_request_scratch(&mut kernel, &instance, SCRATCH_WORDS, value);
        }
        let mut traffic = Traffic::default();
        if self.postcopy {
            for _ in 0..WRITE_BATCHES {
                let value = stamp(&mut rng, 0xD0D0_0000);
                let batch: Batch = Rc::new(move |kernel, instance| {
                    stamp_request_scratch(kernel, instance, SCRATCH_WORDS, value);
                });
                traffic.post.push(batch);
            }
        }
        Built { kernel, instance, traffic, ops, window: Rc::default(), serve, boot_ns, fill_ns: 0 }
    }

    fn own_options(&self) -> UpdateOptions {
        if self.postcopy {
            UpdateOptions { mode: TransferMode::Postcopy, ..serial_options() }
        } else {
            serial_options()
        }
    }

    /// Both run the transfer-mode sweep; `multiproc_stw` also carries the
    /// pair-level ablation.
    fn drills(&self) -> Drills {
        let parallel = (!self.postcopy).then(|| ParallelAblation {
            wall_ratio: "transfer.parallel_wall_ratio.workers2",
            sim_ratio: "transfer.parallel_sim_ratio.workers2",
            opts: UpdateOptions { transfer_workers: 2, ..serial_options() },
        });
        Drills { parallel, mode_sweep: true, ..Drills::default() }
    }

    fn old_program(&self) -> Box<dyn Program> {
        Box::new(program_by_name(scenario().program, 1))
    }

    fn new_program(&self) -> Box<dyn Program> {
        Box::new(program_by_name(scenario().program, 2))
    }

    fn fresh_kernel(&self) -> Kernel {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        kernel
    }

    fn probe(&self, updated: &mut Updated) -> bool {
        let spec = workload_for(scenario().program, 1);
        let reply =
            request_reply(&mut updated.kernel, &mut updated.survivor, spec.port, &spec.request, 4, None);
        updated.ops.record(reply.is_some());
        reply.is_some_and(|r| String::from_utf8_lossy(&r).contains("gen2"))
    }

    fn extra_traffic(&self, kernel: &mut Kernel, instance: &mut McrInstance, _ops: &Ops) {
        apply_scenario_writes(kernel, instance, &scenario(), 0xE07A_0001);
    }
}
