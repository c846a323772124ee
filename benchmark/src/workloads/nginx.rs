//! `nginx_durable_recover`: an instrumented load phase, then a durable
//! supervised update whose old instance crashes before the first commit.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mcr_core::runtime::{supervised_update_durable, ChaosPlan, McrInstance, SupervisorPolicy, UpdateOptions};
use mcr_core::transfer::CheckpointOptions;
use mcr_core::{PhaseName, Program};
use mcr_procsim::{Kernel, MemStore, Store};
use mcr_servers::{install_standard_files, program_by_name};
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::{open_idle_connections, run_workload, workload_for};

use crate::host::ProcStat;
use crate::trace::Trace;
use crate::workload::{
    pipeline_update, request_reply, serial_options, timed_boot, Built, Drills, Ops, Run, ServeMeter, Traffic,
    Updated, Workload,
};

const PROGRAM: &str = "nginx";
/// Requests of the load phase (and of the uninstrumented drill compared
/// with it).
pub const LOAD_REQUESTS: u64 = 10_000;
const IDLE_CONNECTIONS: usize = 64;

pub struct Nginx;

/// One shard writer, like every other fan-out knob of the benchmark.
pub fn checkpoint_options() -> CheckpointOptions {
    CheckpointOptions { shard_writers: 1, ..CheckpointOptions::default() }
}

impl Workload for Nginx {
    fn build(&self, _seed: u64, trace: &Trace) -> Built {
        let _span = trace.span("state_build");
        let mut kernel = self.fresh_kernel();
        let (mut instance, boot_ns) = timed_boot(&mut kernel, self.old_program(), trace);
        let ops = Rc::new(Ops::default());
        let serve_span = trace.span("serve");
        let meter = ServeMeter::start(&kernel);
        let spec = workload_for(PROGRAM, LOAD_REQUESTS);
        let result = run_workload(&mut kernel, &mut instance, &spec).expect("load phase runs");
        for _ in 0..result.completed {
            ops.record(true);
        }
        for _ in 0..result.unanswered {
            ops.record(false);
        }
        let mut serve = meter.finish(&kernel, result.completed);
        serve.steps = result.sched.steps() as u64;
        drop(serve_span);
        open_idle_connections(&mut kernel, &mut instance, spec.port, IDLE_CONNECTIONS)
            .expect("idle connections");
        Built {
            kernel,
            instance,
            traffic: Traffic::default(),
            ops,
            window: Rc::default(),
            serve,
            boot_ns,
            fill_ns: 0,
        }
    }

    fn own_options(&self) -> UpdateOptions {
        serial_options()
    }

    fn drills(&self) -> Drills {
        Drills { checkpoint: true, nginx_load: true, ..Drills::default() }
    }

    fn old_program(&self) -> Box<dyn Program> {
        Box::new(program_by_name(PROGRAM, 1))
    }

    fn new_program(&self) -> Box<dyn Program> {
        Box::new(program_by_name(PROGRAM, 2))
    }

    fn fresh_kernel(&self) -> Kernel {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        kernel
    }

    fn update(&self, built: Built, run: &Run, trace: &Trace) -> Updated {
        let opts = match run {
            Run::Own => self.own_options(),
            Run::Reference => return pipeline_update(built, self.new_program(), &serial_options(), trace),
            Run::With(opts) => return pipeline_update(built, self.new_program(), opts, trace),
        };
        let Built { mut kernel, instance, ops, window, .. } = built;
        let store: Rc<RefCell<dyn Store>> = Rc::new(RefCell::new(MemStore::new()));
        let span = trace.span("update");
        let stat_before = ProcStat::now();
        let start = Instant::now();
        let (survivor, outcome) = supervised_update_durable(
            &mut kernel,
            instance,
            || self.old_program(),
            || self.new_program(),
            InstrumentationConfig::full(),
            &opts,
            &SupervisorPolicy::default(),
            store,
            checkpoint_options(),
            |attempt| match attempt {
                1 => ChaosPlan::crashing_old_before(PhaseName::Commit),
                _ => ChaosPlan::none(),
            },
        );
        let wall_ns = start.elapsed().as_nanos() as u64;
        let stat_after = ProcStat::now();
        span.count("attempts", outcome.report().attempts.len() as u64);
        drop(span);
        Updated {
            kernel,
            survivor,
            outcome,
            ops,
            window,
            wall_ns,
            // No hook runs inside the call: the service gap is the call.
            downtime_ns: wall_ns,
            round_walls_ns: Vec::new(),
            drain_wall_ns: 0,
            undelivered: 0,
            stat_before,
            stat_after,
        }
    }

    fn probe(&self, updated: &mut Updated) -> bool {
        let spec = workload_for(PROGRAM, 1);
        let reply =
            request_reply(&mut updated.kernel, &mut updated.survivor, spec.port, &spec.request, 4, None);
        updated.ops.record(reply.is_some());
        reply.is_some_and(|r| String::from_utf8_lossy(&r).contains("gen2"))
    }

    fn extra_traffic(&self, kernel: &mut Kernel, instance: &mut McrInstance, ops: &Ops) {
        let result = run_workload(kernel, instance, &workload_for(PROGRAM, 200)).expect("extra load runs");
        for _ in 0..result.completed {
            ops.record(true);
        }
    }
}
