//! Instance lifecycle and event-driven cooperative scheduling.
//!
//! The scheduler drives MCR-enabled programs one loop iteration at a time:
//! it boots an instance (running its startup code under recording or replay),
//! runs its threads, charges the cost of the MCR instrumentation
//! (unblockification wrappers, quiescence hooks), feeds the quiescence
//! profiler, and implements the barrier protocol that parks every thread at
//! its quiescent point when an update is requested.
//!
//! # Event-driven core (wake queue + timer wheel)
//!
//! Scheduling is *readiness-driven*, not scan-driven: each instance owns a
//! `Scheduler` whose ready deque is seeded from the kernel's wake queue.
//! A thread that returns [`StepOutcome::WouldBlock`] parks on the wait queue
//! its [`WaitInterest`] names — the kernel object behind a descriptor, a
//! timer-wheel deadline, or nothing at all (`sigsuspend`-style external
//! blocks) — and is not looked at again until a state change (client
//! connect/send/close, queued datagram, pipe write, expired timer) produces
//! a wakeup. [`run_round`]/[`run_rounds`] are thin wrappers over
//! `Scheduler::run_until_idle`, so the cost of a round scales with the
//! number of *active* threads, not with the total thread count — the regime
//! fleet-scale experiments need (see `benches/fleet_scale.rs`).
//!
//! The quiescence barrier is event-driven too: [`wait_quiescence`] wakes
//! every parked thread exactly once per barrier pass so each can park at its
//! quiescence hook — the paper's "threads quiesce the next time they block",
//! without polling.
//!
//! # Determinism contract
//!
//! Wake order is FIFO over the kernel's deterministic wake queue, roster
//! admission follows roster (creation) order, and all time comes from the
//! virtual clock, so a run's schedule is a pure function of its event
//! history. The legacy O(threads)-per-round scan survives only as the
//! reference [`run_round_full_scan`], which no option selects:
//! `tests/properties.rs` proves that a barrier driven by it parks the same
//! state as [`wait_quiescence`] (the update that follows, commit *and*
//! rollback, is byte-identical) and that serving through it alone answers
//! the same requests as [`run_round`], and the fleet-scale bench uses it as
//! the baseline its scaling assertion compares against.

use std::collections::VecDeque;
use std::rc::Rc;

use mcr_procsim::{Kernel, Pid, SimDuration, SimInstant, ThreadState, Tid};
use mcr_typemeta::InstrumentationConfig;

use crate::error::{Conflict, McrError, McrResult};
use crate::interpose::Interposer;
use crate::program::{InstanceState, Program, ProgramEnv, StepOutcome, ThreadRosterEntry, WaitInterest};

/// A grow-on-demand bitset over small dense integer keys (raw pids/tids).
/// One cache-friendly word probe replaces an ordered-set lookup on the
/// scheduler's hottest paths.
#[derive(Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Sets `idx`; returns `true` if it was not set before.
    fn insert(&mut self, idx: u32) -> bool {
        let w = (idx / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << (idx % 64);
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    fn remove(&mut self, idx: u32) {
        if let Some(word) = self.words.get_mut((idx / 64) as usize) {
            *word &= !(1u64 << (idx % 64));
        }
    }

    fn contains(&self, idx: u32) -> bool {
        self.words.get((idx / 64) as usize).is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }
}

/// Per-instance scheduler state: the ready deque plus admission bookkeeping.
///
/// The scheduler holds no borrows — it is plain queue state owned by the
/// instance — so the driving functions can split-borrow it away from the
/// program while stepping threads.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    /// Runnable threads, in wake/admission order.
    ready: VecDeque<(Pid, Tid)>,
    /// Dedup bitset mirroring `ready`, keyed by raw tid (tids are globally
    /// unique, so the tid alone identifies the thread).
    ready_set: BitSet,
    /// Roster watermark: entries below this index have been admitted.
    admitted: usize,
    /// Pids owned by this instance (drains only its own kernel wakeups).
    pids: BitSet,
    /// Reusable batch buffer for kernel wake delivery: one allocation serves
    /// every `drain_wakeups` call instead of a fresh vector per drain.
    wake_buf: Vec<(Pid, Tid)>,
}

impl Scheduler {
    /// Queues a thread as runnable (idempotent while it is already queued).
    fn push_ready(&mut self, pid: Pid, tid: Tid) {
        if self.ready_set.insert(tid.0) {
            self.ready.push_back((pid, tid));
        }
    }

    fn pop_ready(&mut self) -> Option<(Pid, Tid)> {
        let (pid, tid) = self.ready.pop_front()?;
        self.ready_set.remove(tid.0);
        Some((pid, tid))
    }

    /// Admits roster entries added since the last call (new threads and
    /// forked processes), in roster order. O(new), not O(threads).
    fn admit_new(&mut self, state: &InstanceState) {
        while self.admitted < state.threads.len() {
            let entry = &state.threads[self.admitted];
            self.pids.insert(entry.pid.0);
            if !entry.exited {
                self.push_ready(entry.pid, entry.tid);
            }
            self.admitted += 1;
        }
    }

    /// Moves this instance's queued kernel wakeups onto the ready deque in
    /// one batched pass, returning how many threads were woken.
    fn drain_wakeups(&mut self, kernel: &mut Kernel) -> usize {
        let mut buf = std::mem::take(&mut self.wake_buf);
        let pids = &self.pids;
        kernel.drain_wakeups_into(|pid| pids.contains(pid.0), &mut buf);
        let n = buf.len();
        for &(pid, tid) in &buf {
            self.push_ready(pid, tid);
        }
        self.wake_buf = buf;
        n
    }

    /// Runs the instance until no thread is ready and no wakeup is pending
    /// (or `budget` steps have executed — a livelock guard for programs that
    /// always report progress).
    ///
    /// This is the scheduler core: `run_round`, `run_rounds`,
    /// `wait_quiescence` and the workload drivers are wrappers around it.
    ///
    /// # Errors
    ///
    /// Propagates program-level errors (during a live update these trigger
    /// rollback).
    pub(crate) fn run_until_idle(
        kernel: &mut Kernel,
        instance: &mut McrInstance,
        budget: usize,
    ) -> McrResult<RoundStats> {
        let mut sched = std::mem::take(&mut instance.sched);
        let result = Self::drive(kernel, instance, &mut sched, budget);
        instance.sched = sched;
        result
    }

    fn drive(
        kernel: &mut Kernel,
        instance: &mut McrInstance,
        sched: &mut Scheduler,
        budget: usize,
    ) -> McrResult<RoundStats> {
        let mut stats = RoundStats::default();
        let mut steps = 0usize;
        loop {
            sched.admit_new(&instance.state);
            stats.woken += sched.drain_wakeups(kernel);
            let next = match sched.pop_ready() {
                Some(next) => next,
                None => {
                    // Nothing is runnable. If this instance's only pending
                    // work is a timer-wheel entry, sleep straight to its
                    // deadline — simulated time only moves when threads
                    // run, so without this jump a timed retry would never
                    // fire and its wakeup (and any client data it would
                    // have served) would be lost.
                    let pids = &sched.pids;
                    let Some(deadline) = kernel.next_timer_deadline_where(|pid| pids.contains(pid.0)) else {
                        break;
                    };
                    kernel.advance_clock(deadline.duration_since(kernel.now()));
                    continue;
                }
            };
            let (pid, tid) = next;
            if !thread_is_runnable(kernel, pid, tid) {
                continue;
            }
            match step_thread(kernel, instance, pid, tid)? {
                StepOutcome::Progress => {
                    stats.progressed += 1;
                    sched.push_ready(pid, tid);
                }
                StepOutcome::WouldBlock { wait, .. } => {
                    stats.blocked += 1;
                    if instance.state.quiesce_requested {
                        stats.parked += 1;
                    }
                    let quiesced = kernel
                        .process(pid)
                        .ok()
                        .and_then(|p| p.thread(tid).ok())
                        .is_some_and(|t| t.is_quiesced());
                    if !quiesced {
                        match wait {
                            WaitInterest::Fd(fd) => {
                                // The failing syscall usually registered the
                                // waiter already; this keeps threads that
                                // declare interest without a syscall parked
                                // on the right queue too.
                                let _ = kernel.wait_on_fd(pid, tid, fd);
                            }
                            WaitInterest::Timer(delay) => {
                                let deadline = SimInstant(kernel.now().0 + delay.0);
                                kernel.wait_until(pid, tid, deadline);
                            }
                            WaitInterest::External => {
                                // Only a wake-everyone event (quiescence
                                // request, resume) reschedules this thread.
                                kernel.cancel_wait(tid);
                            }
                        }
                    }
                }
                StepOutcome::Exit => stats.exited += 1,
            }
            steps += 1;
            if steps >= budget {
                break;
            }
        }
        Ok(stats)
    }
}

/// Step budget for one event-driven round: generous enough for every
/// admitted thread to run several times, bounded so a program that always
/// reports progress cannot hang the driver.
fn round_budget(instance: &McrInstance) -> usize {
    4_096 + 16 * instance.state.threads.len()
}

/// Whether a thread can be stepped at all (its process is alive and it is
/// neither exited nor parked at a quiescent point).
fn thread_is_runnable(kernel: &Kernel, pid: Pid, tid: Tid) -> bool {
    match kernel.process(pid) {
        Ok(p) if !p.has_exited() => p
            .thread(tid)
            .map(|t| !matches!(t.state(), ThreadState::Quiesced | ThreadState::Exited))
            .unwrap_or(false),
        _ => false,
    }
}

/// A running MCR-enabled program instance: the program object plus all the
/// runtime state MCR keeps about it.
pub struct McrInstance {
    /// The program implementation.
    pub(crate) program: Box<dyn Program>,
    /// MCR's per-instance state (registries, startup log, roster, counters).
    pub state: InstanceState,
    /// The instance's scheduler (ready deque + admission bookkeeping).
    pub(crate) sched: Scheduler,
}

impl std::fmt::Debug for McrInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McrInstance")
            .field("program", &self.state.program_name)
            .field("version", &self.state.version)
            .field("processes", &self.state.processes)
            .finish()
    }
}

impl McrInstance {
    /// The actual pid of the instance's initial process.
    ///
    /// # Errors
    ///
    /// Fails if the instance has no processes (not yet created).
    pub(crate) fn init_pid(&self) -> McrResult<Pid> {
        self.state
            .processes
            .first()
            .copied()
            .ok_or_else(|| McrError::InvalidState("instance has no processes".into()))
    }

    /// Resident memory of the instance: mapped bytes plus allocator and MCR
    /// metadata across all its processes.
    pub(crate) fn resident_bytes(&self, kernel: &Kernel) -> u64 {
        let proc_bytes: u64 = self
            .state
            .processes
            .iter()
            .filter_map(|&pid| kernel.process(pid).ok())
            .map(|p| p.resident_bytes())
            .sum();
        proc_bytes + self.state.metadata_bytes()
    }
}

/// Options controlling instance creation.
#[derive(Debug)]
pub struct BootOptions {
    /// Instrumentation configuration for this build of the program.
    pub config: InstrumentationConfig,
    /// ASLR-style slide applied to the program's private memory regions.
    pub layout_slide: u64,
    /// Whether the instance starts with quiescence already requested (the new
    /// version during a live update: its threads park at their quiescent
    /// points instead of accepting new work).
    pub start_quiesced: bool,
}

impl Default for BootOptions {
    fn default() -> Self {
        BootOptions { config: InstrumentationConfig::full(), layout_slide: 0, start_quiesced: false }
    }
}

/// Creates the initial process of an instance without running its startup
/// code (the controller inherits descriptors and seeds pid mappings between
/// creation and startup).
///
/// # Errors
///
/// Fails if the process cannot be created or its memory cannot be mapped.
pub(crate) fn create_instance(
    kernel: &mut Kernel,
    mut program: Box<dyn Program>,
    interposer: Interposer,
    opts: &BootOptions,
) -> McrResult<McrInstance> {
    let name = program.name().to_string();
    let version = program.version().to_string();
    let pid = kernel.create_process(&name).map_err(McrError::Sim)?;
    let layout = mcr_procsim::MemoryLayout::with_slide(opts.layout_slide);
    {
        let proc = kernel.process_mut(pid).map_err(McrError::Sim)?;
        proc.setup_memory(layout, opts.config.level.heap_instrumented()).map_err(McrError::Sim)?;
        proc.set_region_allocator(mcr_procsim::RegionAllocator::new(opts.config.instrument_region_allocator));
        if let Ok(heap) = proc.heap_mut() {
            heap.set_defer_free(true);
        }
    }
    let main_tid = kernel.process(pid).map_err(McrError::Sim)?.main_tid();
    let mut state = InstanceState::new(name, version, opts.config, interposer);
    state.quiesce_requested = opts.start_quiesced;
    state.processes.push(pid);
    state.add_roster_entry(ThreadRosterEntry {
        pid,
        tid: main_tid,
        name: "main".into(),
        created_during_startup: true,
        exited: false,
    });
    program.register_types(&mut state.types);
    Ok(McrInstance { program, state, sched: Scheduler::default() })
}

/// Runs the instance's startup code (and any forked children's
/// initialization), then finalizes the startup phase: deferred frees are
/// flushed, allocators leave their startup phase and soft-dirty bits are
/// cleared so that post-startup modifications can be detected.
///
/// # Errors
///
/// Propagates startup failures and replay conflicts.
pub(crate) fn run_startup(kernel: &mut Kernel, instance: &mut McrInstance) -> McrResult<()> {
    let start = kernel.now();
    let init_pid = instance.init_pid()?;
    let init_tid = kernel.process(init_pid).map_err(McrError::Sim)?.main_tid();
    {
        let McrInstance { program, state, .. } = instance;
        let mut env = ProgramEnv::new(kernel, state, init_pid, init_tid, "main");
        env.scoped("main", |env| program.startup(env))?;
    }
    // Children forked during startup perform their own initialization next,
    // in creation order; a child that forks further children (or spawns
    // threads) appends them behind the ones already queued.
    let mut next = 0;
    while let Some(pending) = instance.state.pending_children.get(next) {
        let (child_pid, kind) = (pending.actual_pid, pending.kind.clone());
        next += 1;
        let child_tid = kernel.process(child_pid).map_err(McrError::Sim)?.main_tid();
        let McrInstance { program, state, .. } = instance;
        let mut env = ProgramEnv::new(kernel, state, child_pid, child_tid, format!("{kind}-main"));
        env.scoped("main", |env| {
            env.scoped(&format!("{kind}_init"), |env| program.process_init(env, &kind))
        })?;
    }
    instance.state.pending_children.clear();
    finish_startup(kernel, instance, start)
}

fn finish_startup(kernel: &mut Kernel, instance: &mut McrInstance, start: SimInstant) -> McrResult<()> {
    instance.state.startup_phase = false;
    for &pid in &instance.state.processes {
        if let Ok(proc) = kernel.process_mut(pid) {
            if let Ok(heap) = proc.heap_mut() {
                heap.end_startup();
            }
            let (space, heap) = proc.space_and_heap_mut().map_err(McrError::Sim)?;
            heap.flush_deferred(space).map_err(McrError::Sim)?;
            proc.space_mut().clear_soft_dirty();
        }
    }
    instance.state.startup_duration = kernel.now().duration_since(start);
    Ok(())
}

/// Convenience: creates an instance with a fresh recording interposer and
/// runs its startup (the normal way to launch the *old* version).
///
/// # Errors
///
/// Propagates creation and startup failures.
pub fn boot(kernel: &mut Kernel, program: Box<dyn Program>, opts: &BootOptions) -> McrResult<McrInstance> {
    let mut instance = create_instance(kernel, program, Interposer::recorder(), opts)?;
    run_startup(kernel, &mut instance)?;
    Ok(instance)
}

/// Statistics of one scheduling round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Threads that made progress.
    pub progressed: usize,
    /// Threads that found nothing to do (at their quiescent point).
    pub(crate) blocked: usize,
    /// Threads that exited this round.
    pub(crate) exited: usize,
    /// Threads parked by the quiescence barrier this round.
    pub(crate) parked: usize,
    /// Threads moved from a wait queue / the timer wheel onto the ready
    /// deque by kernel wakeups (always 0 on the full-scan path).
    pub woken: usize,
}

impl RoundStats {
    /// Accumulates another round's statistics into this one.
    pub fn absorb(&mut self, other: &RoundStats) {
        self.progressed += other.progressed;
        self.blocked += other.blocked;
        self.exited += other.exited;
        self.parked += other.parked;
        self.woken += other.woken;
    }

    /// Total thread steps this round executed (the per-round cost the
    /// fleet-scale bench compares against the full scan).
    pub fn steps(&self) -> usize {
        self.progressed + self.blocked + self.exited
    }
}

/// Executes one scheduling step of a single thread.
///
/// # Errors
///
/// Propagates program-level errors (during a live update these trigger
/// rollback).
pub fn step_thread(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    pid: Pid,
    tid: Tid,
) -> McrResult<StepOutcome> {
    let config = instance.state.config;

    // The quiescence hook runs before re-entering the blocking call: when an
    // update has been requested, the thread parks right here, at the top of
    // its long-running loop.
    if instance.state.quiesce_requested && config.level.quiescence_hooks() {
        instance.state.counters.quiescence_checks += 1;
        kernel.advance_clock(SimDuration(50));
        if let Ok(p) = kernel.process_mut(pid) {
            if let Ok(t) = p.thread_mut(tid) {
                t.set_state(ThreadState::Quiesced);
            }
        }
        return Ok(StepOutcome::WouldBlock {
            call: "quiesce",
            loop_name: "main_loop",
            wait: WaitInterest::External,
        });
    }

    let outcome = {
        let McrInstance { program, state, .. } = instance;
        let thread_name =
            state.roster_entry(pid, tid).map_or_else(|| "thread".into(), |t| Rc::clone(&t.name));
        let mut env = ProgramEnv::new(kernel, state, pid, tid, thread_name);
        program.thread_step(&mut env)?
    };

    match &outcome {
        &StepOutcome::WouldBlock { call, loop_name, .. } => {
            if config.level.unblockified() {
                instance.state.counters.unblock_wraps += 1;
                kernel.advance_clock(SimDuration(200));
            }
            if config.level.quiescence_hooks() {
                instance.state.counters.quiescence_checks += 1;
                kernel.advance_clock(SimDuration(50));
            }
            if let Ok(p) = kernel.process_mut(pid) {
                if let Ok(t) = p.thread_mut(tid) {
                    t.record_blocking(call, 1_000);
                    t.record_loop_iteration(loop_name);
                    t.set_state(ThreadState::Blocked { call });
                }
            }
            // Idle blocking also advances time (the thread sits in the
            // timeout-based unblockified call).
            kernel.advance_clock(SimDuration(1_000));
        }
        StepOutcome::Progress => {
            if let Ok(p) = kernel.process_mut(pid) {
                if let Ok(t) = p.thread_mut(tid) {
                    t.set_state(ThreadState::Running);
                }
            }
        }
        StepOutcome::Exit => {
            instance.state.mark_thread_exited(pid, tid);
            if let Ok(p) = kernel.process_mut(pid) {
                if let Ok(t) = p.thread_mut(tid) {
                    t.set_state(ThreadState::Exited);
                }
            }
        }
    }
    Ok(outcome)
}

/// Runs one scheduling round.
///
/// A thin wrapper over `Scheduler::run_until_idle`: newly created threads
/// are admitted, queued wakeups are drained, and the instance runs until no
/// thread is ready — the cost scales with *active* threads.
/// [`run_round_full_scan`] is the O(threads) reference it is checked
/// against.
///
/// # Errors
///
/// Propagates program-level errors.
#[must_use = "the round may report scheduling errors and statistics"]
pub fn run_round(kernel: &mut Kernel, instance: &mut McrInstance) -> McrResult<RoundStats> {
    let budget = round_budget(instance);
    Scheduler::run_until_idle(kernel, instance, budget)
}

/// The legacy O(threads) scheduling round: one round-robin pass over every
/// live, unparked thread, regardless of readiness. Kept as the ablation
/// baseline (`benches/fleet_scale.rs`) and as the determinism oracle the
/// event-driven path is verified against (`tests/properties.rs`).
///
/// # Errors
///
/// Propagates program-level errors.
#[must_use = "the round may report scheduling errors and statistics"]
pub fn run_round_full_scan(kernel: &mut Kernel, instance: &mut McrInstance) -> McrResult<RoundStats> {
    let mut stats = RoundStats::default();
    let threads: Vec<(Pid, Tid)> = instance.state.live_threads().map(|t| (t.pid, t.tid)).collect();
    for (pid, tid) in threads {
        // Skip threads that are already parked or whose process is gone.
        if !thread_is_runnable(kernel, pid, tid) {
            continue;
        }
        match step_thread(kernel, instance, pid, tid)? {
            StepOutcome::Progress => stats.progressed += 1,
            StepOutcome::WouldBlock { .. } => {
                stats.blocked += 1;
                if instance.state.quiesce_requested {
                    stats.parked += 1;
                }
            }
            StepOutcome::Exit => stats.exited += 1,
        }
    }
    Ok(stats)
}

/// Runs up to `rounds` scheduling rounds (the basic way to "run the server
/// for a while" in tests and benchmarks), returning the accumulated
/// statistics.
///
/// # Errors
///
/// Propagates program-level errors.
#[must_use = "the rounds may report scheduling errors and statistics"]
pub fn run_rounds(kernel: &mut Kernel, instance: &mut McrInstance, rounds: usize) -> McrResult<RoundStats> {
    let mut total = RoundStats::default();
    for _ in 0..rounds {
        total.absorb(&run_round(kernel, instance)?);
    }
    Ok(total)
}

/// Requests quiescence: threads will park at their quiescent points on their
/// next pass through the quiescence hook.
pub fn request_quiescence(instance: &mut McrInstance) {
    instance.state.quiesce_requested = true;
}

/// Wakes every live thread of the instance: cancels wait-queue and timer
/// registrations and queues the threads as ready, in roster order. This is
/// the wake-everyone half of the quiescence barrier (and of
/// [`resume`]) — parked threads run once more so they can park at their
/// hooks (or re-declare their readiness interest).
pub(crate) fn wake_all_threads(kernel: &mut Kernel, instance: &mut McrInstance) {
    let McrInstance { state, sched, .. } = instance;
    sched.admit_new(state);
    for entry in state.threads.iter().filter(|t| !t.exited) {
        kernel.cancel_wait(entry.tid);
        sched.push_ready(entry.pid, entry.tid);
    }
}

/// Number of live threads that are *not* parked at a quiescent point.
pub(crate) fn running_thread_count(kernel: &Kernel, instance: &McrInstance) -> usize {
    instance.state.live_threads().filter(|t| is_running(kernel, t)).count()
}

/// Whether a roster thread exists in the kernel and is not parked at a
/// quiescent point.
fn is_running(kernel: &Kernel, t: &ThreadRosterEntry) -> bool {
    kernel.process(t.pid).and_then(|p| p.thread(t.tid).map(|th| !th.is_quiesced())).unwrap_or(false)
}

/// Whether every live thread of the instance is parked at a quiescent point.
pub fn all_quiesced(kernel: &Kernel, instance: &McrInstance) -> bool {
    !instance.state.live_threads().any(|t| is_running(kernel, t))
}

/// Drives the barrier protocol until every live thread of the instance is
/// parked at its quiescent point, returning the time it took.
///
/// Each barrier pass wakes every parked thread once, and the threads park
/// at their hooks on that step. Driving the barrier with
/// [`request_quiescence`] and [`run_round_full_scan`] instead is the
/// reference: it converges to the same state on the same clock.
///
/// # Errors
///
/// Returns a [`Conflict::QuiescenceTimeout`] if the threads do not converge
/// within `max_rounds` barrier passes.
pub fn wait_quiescence(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    max_rounds: usize,
) -> McrResult<SimDuration> {
    let start = kernel.now();
    request_quiescence(instance);
    // One convergence check per pass plus a final one after the last pass;
    // each stops at the first thread still running.
    for round in 0..=max_rounds {
        if all_quiesced(kernel, instance) {
            return Ok(kernel.now().duration_since(start));
        }
        if round == max_rounds {
            break;
        }
        wake_all_threads(kernel, instance);
        let budget = round_budget(instance);
        Scheduler::run_until_idle(kernel, instance, budget)?;
    }
    Err(Conflict::QuiescenceTimeout { running_threads: running_thread_count(kernel, instance) }.into())
}

/// Resumes execution after a checkpoint: clears the quiescence request,
/// unparks every quiesced thread and queues the instance's threads as ready
/// so they can re-declare their readiness interests.
pub fn resume(kernel: &mut Kernel, instance: &mut McrInstance) {
    instance.state.quiesce_requested = false;
    for entry in &instance.state.threads {
        if entry.exited {
            continue;
        }
        if let Ok(p) = kernel.process_mut(entry.pid) {
            if let Ok(t) = p.thread_mut(entry.tid) {
                if t.is_quiesced() {
                    t.set_state(ThreadState::Running);
                }
            }
        }
    }
    wake_all_threads(kernel, instance);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::test_support::EnvExt;
    use crate::runtime::testprog::TinyServer;

    #[test]
    fn boot_runs_startup_and_clears_dirty_bits() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        let pid = instance.init_pid().unwrap();
        assert!(!instance.state.startup_phase);
        assert!(instance.state.startup_duration.0 > 0);
        assert!(instance.state.interpose.recorded_log().len() >= 4, "startup calls recorded");
        let proc = kernel.process(pid).unwrap();
        assert_eq!(proc.space().dirty_page_count(), 0, "soft-dirty cleared after startup");
        assert!(proc.heap().unwrap().live_count() >= 1);
    }

    #[test]
    fn server_accepts_connections_between_rounds() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let mut instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        // No clients yet: the main thread blocks at its quiescent point.
        let stats = run_round(&mut kernel, &mut instance).unwrap();
        assert_eq!(stats.blocked, 1);
        assert_eq!(kernel.waiting_thread_count(), 1, "the acceptor parked on the listener");
        // A client connects and is served.
        let conn = kernel.client_connect(8080).unwrap();
        kernel.client_send(conn, b"GET /".to_vec()).unwrap();
        let stats = run_round(&mut kernel, &mut instance).unwrap();
        assert_eq!(stats.progressed, 1);
        assert_eq!(stats.woken, 1, "the connect woke the parked acceptor");
        let reply = kernel.client_recv(conn).unwrap();
        assert!(String::from_utf8_lossy(&reply).contains("v1"));
        assert_eq!(instance.state.counters.events_handled, 1);
    }

    #[test]
    fn idle_rounds_cost_nothing_once_parked() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let mut instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        let first = run_round(&mut kernel, &mut instance).unwrap();
        assert_eq!(first.steps(), 1, "the first round admits and parks the main thread");
        // With no events, subsequent rounds execute zero steps.
        let idle = run_rounds(&mut kernel, &mut instance, 5).unwrap();
        assert_eq!(idle.steps(), 0, "idle rounds are free on the event-driven path");
        assert_eq!(idle.woken, 0);
    }

    #[test]
    fn quiescence_barrier_parks_and_resume_unparks() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let mut instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        run_rounds(&mut kernel, &mut instance, 3).unwrap();
        let d = wait_quiescence(&mut kernel, &mut instance, 100).unwrap();
        assert!(all_quiesced(&kernel, &instance));
        assert!(d.as_millis_f64() < 100.0, "quiescence converges quickly ({} ms)", d.as_millis_f64());
        // While quiesced, rounds do not run program code.
        let stats = run_round(&mut kernel, &mut instance).unwrap();
        assert_eq!(stats.progressed + stats.blocked, 0);
        resume(&mut kernel, &mut instance);
        assert!(!all_quiesced(&kernel, &instance));
        // Pending clients are served after resume.
        let conn = kernel.client_connect(8080).unwrap();
        kernel.client_send(conn, b"GET /".to_vec()).unwrap();
        run_round(&mut kernel, &mut instance).unwrap();
        assert!(kernel.client_recv(conn).is_some());
    }

    /// A drain takes this instance's wakeups in wake order and leaves another
    /// instance's queued for that instance's own scheduler.
    #[test]
    fn drain_takes_own_wakeups_in_wake_order() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        let pid = instance.init_pid().unwrap();
        let tids: Vec<Tid> =
            (0..3).map(|i| kernel.spawn_thread(pid, &format!("w{i}"), Vec::new()).unwrap()).collect();
        let stranger = kernel.create_process("stranger").unwrap();
        let stranger_tid = kernel.process(stranger).unwrap().main_tid();
        let now = kernel.now();
        // A deadline that already passed wakes at once, in call order.
        for (p, t) in [(pid, tids[2]), (stranger, stranger_tid), (pid, tids[0]), (pid, tids[1])] {
            kernel.wait_until(p, t, now);
        }
        let mut sched = Scheduler::default();
        sched.pids.insert(pid.0);
        assert_eq!(sched.drain_wakeups(&mut kernel), 3);
        assert_eq!(sched.ready, [(pid, tids[2]), (pid, tids[0]), (pid, tids[1])]);
        let mut rest = Vec::new();
        kernel.drain_wakeups_into(|_| true, &mut rest);
        assert_eq!(rest, [(stranger, stranger_tid)], "the other instance's wakeup stays queued");
    }

    #[test]
    fn full_scan_mode_still_serves_and_quiesces() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let mut instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        let conn = kernel.client_connect(8080).unwrap();
        kernel.client_send(conn, b"GET /".to_vec()).unwrap();
        let stats = run_round_full_scan(&mut kernel, &mut instance).unwrap();
        assert_eq!(stats.progressed, 1);
        assert_eq!(stats.woken, 0, "the scan path never consumes wakeups");
        assert!(kernel.client_recv(conn).is_some());
        request_quiescence(&mut instance);
        run_round_full_scan(&mut kernel, &mut instance).unwrap();
        assert!(all_quiesced(&kernel, &instance));
        resume(&mut kernel, &mut instance);
        assert!(!all_quiesced(&kernel, &instance));
    }

    #[test]
    fn instrumentation_counters_reflect_level() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let mut full = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        run_rounds(&mut kernel, &mut full, 5).unwrap();
        assert!(full.state.counters.unblock_wraps > 0);
        assert!(full.state.counters.quiescence_checks > 0);

        let mut kernel2 = Kernel::new();
        kernel2.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let opts = BootOptions { config: InstrumentationConfig::baseline(), ..Default::default() };
        let mut base = boot(&mut kernel2, Box::new(TinyServer::new(1)), &opts).unwrap();
        run_rounds(&mut kernel2, &mut base, 5).unwrap();
        assert_eq!(base.state.counters.unblock_wraps, 0);
        assert_eq!(base.state.counters.quiescence_checks, 0);
        assert_eq!(base.state.counters.dyn_tracked_allocs, 0);
    }

    /// Forks a worker at startup; the worker forks a helper from inside its
    /// own `process_init`. Records the order in which children initialise.
    struct NestedForker {
        initialised: std::rc::Rc<std::cell::RefCell<Vec<(String, Pid)>>>,
    }

    impl Program for NestedForker {
        fn name(&self) -> &str {
            "nested"
        }
        fn version(&self) -> &str {
            "1"
        }
        fn register_types(&mut self, _types: &mut mcr_typemeta::TypeRegistry) {}
        fn startup(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<()> {
            env.fork("worker")?;
            env.fork("logger")?;
            Ok(())
        }
        fn process_init(&mut self, env: &mut ProgramEnv<'_>, kind: &str) -> McrResult<()> {
            self.initialised.borrow_mut().push((kind.to_string(), env.pid()));
            if kind == "worker" {
                env.fork("helper")?;
            }
            Ok(())
        }
        fn thread_step(&mut self, _env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
            Ok(StepOutcome::Exit)
        }
    }

    #[test]
    fn grandchildren_forked_during_process_init_initialise_in_creation_order() {
        let mut kernel = Kernel::new();
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let program = NestedForker { initialised: order.clone() };
        let old = boot(&mut kernel, Box::new(program), &BootOptions::default()).unwrap();
        let kinds = |order: &[(String, Pid)]| order.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        let recorded = order.take();
        assert_eq!(kinds(&recorded), ["worker", "logger", "helper"]);
        assert!(old.state.pending_children.is_empty());
        assert_eq!(old.state.processes.len(), 4);

        // Replay: the new version observes the old pids, in the same order.
        let program = NestedForker { initialised: order.clone() };
        let interposer = Interposer::replayer(old.state.interpose.recorded_log());
        let opts = BootOptions { layout_slide: 0x100000, ..Default::default() };
        let mut new = create_instance(&mut kernel, Box::new(program), interposer, &opts).unwrap();
        new.state.interpose.map_pid(old.init_pid().unwrap(), new.init_pid().unwrap());
        run_startup(&mut kernel, &mut new).unwrap();
        assert_eq!(order.take(), recorded, "same kinds, same virtual pids, same order");
        assert!(new.state.pending_children.is_empty());
        assert_eq!(new.state.interpose.stats().replayed, 3);
        assert_eq!(new.state.interpose.stats().executed_live, 0);
        assert!(new.state.interpose.finish_replay(&new.state.annotations).is_empty());
    }

    #[test]
    fn resident_bytes_include_metadata() {
        let mut kernel = Kernel::new();
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        let instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
        let resident = instance.resident_bytes(&kernel);
        let pid = instance.init_pid().unwrap();
        assert!(resident > kernel.process(pid).unwrap().space().mapped_bytes());
    }
}
