//! What every workload shares: the pre-update state a build produces, the
//! traffic schedule that rides along with an update, the one timed update
//! call, and the rule that turns hook timestamps into downtime.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use mcr_core::runtime::{
    boot, run_round, BootOptions, McrInstance, PrecopyHook, RoundStats, TransferMode, UpdateOptions,
    UpdateOutcome, UpdatePipeline,
};
use mcr_core::Program;
use mcr_procsim::{ConnId, Kernel};
use mcr_typemeta::InstrumentationConfig;

use crate::host::ProcStat;
use crate::trace::{SpanGuard, Trace};

/// Operations attempted and failed by the client side of a workload
/// (requests sent and unanswered). Shared with the pipeline hooks.
#[derive(Default)]
pub struct Ops {
    pub total: Cell<u64>,
    pub failed: Cell<u64>,
}

impl Ops {
    pub fn record(&self, ok: bool) {
        self.total.set(self.total.get() + 1);
        if !ok {
            self.failed.set(self.failed.get() + 1);
        }
    }
}

/// The pre-update serve phase of one state build.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serve {
    pub requests: u64,
    pub wall_ns: u64,
    pub sim_ns: u64,
    pub steps: u64,
    pub syscalls: u64,
}

/// Measures a serve phase: create before the first request, `finish` after
/// the last.
pub struct ServeMeter {
    start: Instant,
    sim_start: u64,
    syscalls_start: u64,
    pub steps: u64,
}

impl ServeMeter {
    pub fn start(kernel: &Kernel) -> Self {
        ServeMeter {
            start: Instant::now(),
            sim_start: kernel.now().0,
            syscalls_start: kernel.syscall_count(),
            steps: 0,
        }
    }

    pub fn absorb(&mut self, stats: &RoundStats) {
        self.steps += stats.steps() as u64;
    }

    pub fn finish(self, kernel: &Kernel, requests: u64) -> Serve {
        Serve {
            requests,
            wall_ns: self.start.elapsed().as_nanos() as u64,
            sim_ns: kernel.now().0 - self.sim_start,
            steps: self.steps,
            syscalls: kernel.syscall_count() - self.syscalls_start,
        }
    }
}

/// One batch of client traffic or application writes against a live
/// instance.
pub type Batch = Rc<dyn Fn(&mut Kernel, &mut McrInstance)>;

/// The traffic that accompanies an update. Every configuration applies the
/// same batches in the same order, so all of them reach the same final
/// state: `pre` batches run between pre-copy rounds when the pipeline has
/// them and before the call otherwise; `post` batches run from the post-copy
/// drain when the pipeline has one and after the call otherwise.
#[derive(Clone, Default)]
pub struct Traffic {
    pub pre: Vec<Batch>,
    pub post: Vec<Batch>,
}

/// What the fleet workload observes on the simulated clock across the
/// update window; empty elsewhere.
#[derive(Default)]
pub struct Window {
    /// Simulated latency of each request served inside the update call.
    pub during_update_sim_ms: Vec<f64>,
    /// Probes sent before the window closes and answered only after it:
    /// connection and simulated send time.
    pub probes: Vec<(ConnId, u64)>,
}

/// The pre-update state of one iteration.
pub struct Built {
    pub kernel: Kernel,
    pub instance: McrInstance,
    pub traffic: Traffic,
    pub ops: Rc<Ops>,
    pub window: Rc<RefCell<Window>>,
    pub serve: Serve,
    pub boot_ns: u64,
    /// Host wall of the cache fill request; 0 on other workloads.
    pub fill_ns: u64,
}

/// Boots `program` on `kernel`, timing the call.
pub fn timed_boot(kernel: &mut Kernel, program: Box<dyn Program>, trace: &Trace) -> (McrInstance, u64) {
    let _span = trace.span("boot");
    let start = Instant::now();
    let instance = boot(kernel, program, &BootOptions::default()).expect("old version boots");
    (instance, start.elapsed().as_nanos() as u64)
}

/// Sends `request` on a fresh connection to `port`, lets the instance run
/// `rounds` rounds and returns the reply, closing the connection.
pub fn request_reply(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    port: u16,
    request: &[u8],
    rounds: usize,
    meter: Option<&mut ServeMeter>,
) -> Option<Vec<u8>> {
    let conn = kernel.client_connect(port).ok()?;
    kernel.client_send(conn, request.to_vec()).ok()?;
    let mut total = RoundStats::default();
    for _ in 0..rounds {
        total.absorb(&run_round(kernel, instance).ok()?);
    }
    if let Some(meter) = meter {
        meter.absorb(&total);
    }
    let reply = kernel.client_recv(conn);
    let _ = kernel.client_close(conn);
    reply
}

/// How one update is run.
pub enum Run {
    /// Stop-the-world, one worker, one shard: the reference execution every
    /// other configuration must agree with.
    Reference,
    /// The workload's own options (the timed configuration).
    Own,
    /// Other options over the same state and traffic (per-layer ablations).
    With(UpdateOptions),
}

/// The serial stop-the-world options of the reference execution, and the
/// base every workload's own options start from: nothing fans out, so host
/// time is not at the mercy of a two-core box.
pub fn serial_options() -> UpdateOptions {
    UpdateOptions { transfer_workers: 1, intra_pair_shards: 1, ..Default::default() }
}

/// The state after one update call, with what was measured around it.
pub struct Updated {
    pub kernel: Kernel,
    pub survivor: McrInstance,
    pub outcome: UpdateOutcome,
    pub ops: Rc<Ops>,
    pub window: Rc<RefCell<Window>>,
    pub wall_ns: u64,
    pub downtime_ns: u64,
    /// Host wall from each pre-copy hook return to the next hook entry.
    pub round_walls_ns: Vec<u64>,
    /// Host wall from the first post-copy hook entry to the call's return.
    pub drain_wall_ns: u64,
    /// Pre-update batches the pipeline never asked for (pre-copy converged
    /// before its last round): the final state then misses them.
    pub undelivered: usize,
    pub stat_before: ProcStat,
    pub stat_after: ProcStat,
}

/// The service gap inside one update call, from timestamps on one clock: it
/// opens when the last pre-copy hook returns (the old version served until
/// then), or at call entry without one, and closes when the first post-copy
/// hook is entered (the new version is serving by then), or at call return
/// without one.
pub fn downtime_ns(entry: u64, ret: u64, last_pre_return: Option<u64>, first_post_entry: Option<u64>) -> u64 {
    first_post_entry.unwrap_or(ret).saturating_sub(last_pre_return.unwrap_or(entry))
}

/// Which of the pipeline's two hooks a call came through.
#[derive(Clone, Copy)]
enum Side {
    Precopy = 0,
    Postcopy = 1,
}

/// Hook timestamps of one update call, nanoseconds since `origin`.
struct HookClock {
    origin: Instant,
    /// `(entry, return)` of every hook call, per [`Side`].
    calls: [RefCell<Vec<(u64, u64)>>; 2],
    /// The open hook-to-hook span, ended when the next hook is entered.
    segment: RefCell<Option<SpanGuard>>,
}

impl HookClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A pipeline hook (both kinds have one signature) that timestamps its
    /// calls and delivers `batches` one per call, in order.
    fn hook(
        self: &Rc<Self>,
        side: Side,
        name: &'static str,
        trace: &Trace,
        batches: &[Batch],
    ) -> PrecopyHook {
        let (clock, trace, batches) = (Rc::clone(self), trace.clone(), batches.to_vec());
        Box::new(move |kernel, instance, _round| {
            let entry = clock.now();
            clock.segment.borrow_mut().take();
            let call = clock.calls[side as usize].borrow().len();
            {
                let _span = trace.span(name);
                if let Some(batch) = batches.get(call) {
                    batch(kernel, instance);
                }
            }
            *clock.segment.borrow_mut() = Some(trace.span("pipeline_segment"));
            clock.calls[side as usize].borrow_mut().push((entry, clock.now()));
        })
    }
}

/// Runs exactly one `UpdatePipeline::run` over `built` under `opts`,
/// delivering the traffic schedule through the hooks the pipeline offers and
/// outside the call otherwise.
pub fn pipeline_update(
    built: Built,
    new_program: Box<dyn Program>,
    opts: &UpdateOptions,
    trace: &Trace,
) -> Updated {
    let Built { mut kernel, mut instance, traffic, ops, window, .. } = built;
    let pre_in_hook = opts.precopy.is_enabled();
    let post_in_hook = matches!(opts.mode, TransferMode::Postcopy | TransferMode::Adaptive);
    if !pre_in_hook {
        for batch in &traffic.pre {
            batch(&mut kernel, &mut instance);
        }
    }
    let clock =
        Rc::new(HookClock { origin: Instant::now(), calls: Default::default(), segment: RefCell::new(None) });
    let mut pipeline = UpdatePipeline::for_options(opts);
    if pre_in_hook {
        pipeline = pipeline.with_precopy_hook(clock.hook(Side::Precopy, "precopy_hook", trace, &traffic.pre));
    }
    if post_in_hook {
        pipeline =
            pipeline.with_postcopy_hook(clock.hook(Side::Postcopy, "postcopy_hook", trace, &traffic.post));
    }

    let span = trace.span("update");
    *clock.segment.borrow_mut() = Some(trace.span("pipeline_segment"));
    let stat_before = ProcStat::now();
    let entry = clock.now();
    let (mut survivor, outcome) =
        pipeline.run(&mut kernel, instance, new_program, InstrumentationConfig::full(), opts);
    let ret = clock.now();
    let stat_after = ProcStat::now();
    clock.segment.borrow_mut().take();
    let report = outcome.report();
    span.count("objects_transferred", report.transfer.objects_transferred());
    span.count("bytes_transferred", report.transfer.bytes_transferred());
    span.count("update_syscalls", report.update_syscalls);
    span.count("object_writes", report.object_writes);
    drop(span);

    let pre_calls = clock.calls[Side::Precopy as usize].borrow();
    let post_calls = clock.calls[Side::Postcopy as usize].borrow();
    let first_post_entry = post_calls.first().map(|call| call.0);
    // Post-resume batches the drain did not take land on the survivor now.
    let delivered_post = post_calls.len().min(traffic.post.len());
    if outcome.is_committed() {
        for batch in &traffic.post[delivered_post..] {
            batch(&mut kernel, &mut survivor);
        }
    }
    Updated {
        wall_ns: ret - entry,
        downtime_ns: downtime_ns(entry, ret, pre_calls.last().map(|call| call.1), first_post_entry),
        round_walls_ns: pre_calls.windows(2).map(|w| w[1].0 - w[0].1).collect(),
        drain_wall_ns: first_post_entry.map_or(0, |first| ret - first),
        undelivered: if pre_in_hook { traffic.pre.len().saturating_sub(pre_calls.len()) } else { 0 },
        kernel,
        survivor,
        outcome,
        ops,
        window,
        stat_before,
        stat_after,
    }
}

/// A parallel configuration measured against the serial one, and the two
/// per-layer ratios it feeds.
pub struct ParallelAblation {
    pub wall_ratio: &'static str,
    pub sim_ratio: &'static str,
    pub opts: UpdateOptions,
}

/// The drills of the traced mode that only some workloads run (the issue
/// assigns each to the workload whose layers it is about).
#[derive(Default)]
pub struct Drills {
    pub parallel: Option<ParallelAblation>,
    /// Update the same state under all four transfer modes.
    pub mode_sweep: bool,
    /// Time `checkpoint_now` / `restore_latest` on the pre-update state.
    pub checkpoint: bool,
    /// Run nginx's load phase uninstrumented and time the client driver.
    pub nginx_load: bool,
}

/// One of the six workloads.
pub trait Workload {
    /// Builds the pre-update state from `seed`; the serve phase inside is
    /// measured, the rest is not.
    fn build(&self, seed: u64, trace: &Trace) -> Built;

    /// The options of the timed configuration.
    fn own_options(&self) -> UpdateOptions;

    fn old_program(&self) -> Box<dyn Program>;

    fn new_program(&self) -> Box<dyn Program>;

    /// A kernel the old or new version can boot on.
    fn fresh_kernel(&self) -> Kernel {
        Kernel::new()
    }

    /// The workload-specific drills of the traced mode; none by default.
    fn drills(&self) -> Drills {
        Drills::default()
    }

    /// Whether an update under [`Workload::own_options`] leaves the kernel
    /// byte for byte as the reference execution does. Where it cannot, the
    /// fingerprint check only requires that the workload's own update
    /// repeats; per-process reports and conflicts are still compared with
    /// the reference execution.
    fn reproduces_reference_fingerprint(&self) -> bool {
        true
    }

    /// Exactly one update call over `built`.
    fn update(&self, built: Built, run: &Run, trace: &Trace) -> Updated {
        let opts = match run {
            Run::Reference => serial_options(),
            Run::Own => self.own_options(),
            Run::With(opts) => *opts,
        };
        pipeline_update(built, self.new_program(), &opts, trace)
    }

    /// Whether the new version answers after the update (and, on the fleet,
    /// answered every probe that crossed the window).
    fn probe(&self, updated: &mut Updated) -> bool;

    /// One more batch of the workload's traffic against a live instance:
    /// what the retrace drill re-scans.
    fn extra_traffic(&self, kernel: &mut Kernel, instance: &mut McrInstance, ops: &Ops);
}

#[cfg(test)]
mod tests {
    use super::downtime_ns;

    /// The four hook combinations, on a call that runs from 100 to 900 with
    /// the last pre-copy hook returning at 400 and the first post-copy hook
    /// entered at 700.
    #[test]
    fn downtime_interval_for_each_hook_combination() {
        assert_eq!(downtime_ns(100, 900, None, None), 800, "no hooks: the whole call");
        assert_eq!(downtime_ns(100, 900, Some(400), None), 500, "pre-copy only: last hook return to return");
        assert_eq!(downtime_ns(100, 900, None, Some(700)), 600, "post-copy only: entry to first drain hook");
        assert_eq!(downtime_ns(100, 900, Some(400), Some(700)), 300, "both: between the two hooks");
    }
}
