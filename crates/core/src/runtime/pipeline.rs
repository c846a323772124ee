//! The staged live-update pipeline.
//!
//! The paper's atomic, reversible update (checkpoint → restart → restore →
//! commit-or-rollback, Figure 1) is expressed here as an ordered list of
//! [`PhaseName`]s that [`UpdatePipeline::run`] dispatches, one `match` arm
//! per phase, over a shared [`UpdateCtx`]:
//!
//! 1. [`PhaseName::Quiesce`] — park every old-version thread at its
//!    quiescent point (the barrier).
//! 2. [`PhaseName::ReinitReplay`] — boot the new version under mutable
//!    reinitialization, its private regions slid 2^32 past the old
//!    instance's: replay the recorded startup log, inherit descriptors and
//!    virtualized pids, and park the new version's threads.
//! 3. [`PhaseName::MatchProcesses`] — pair old processes with new-version
//!    counterparts by creation-time call-stack ID, optionally recreating
//!    counterparts for volatile quiescent points.
//! 4. [`PhaseName::TraceAndTransfer`] — mutable tracing and state transfer
//!    for every matched pair, plus per-process descriptor inheritance.
//! 5. [`PhaseName::Commit`] — resume the new version and terminate the old
//!    one (the single non-reversible step).
//!
//! Every phase returns `Result`; the driver records each phase's duration
//! into [`UpdateReport::phases`](crate::runtime::report::UpdateReport) and
//! funnels *every* failure — wherever it happens — through the single
//! [`roll_back`](UpdatePipeline::run) code path, which tears down whatever
//! exists of the new version and resumes the old one where it was parked.
//! A [`ChaosPlan`] can force a failure at any phase boundary, which is how
//! the integration tests prove the rollback invariant phase by phase.
//!
//! # Pair-level trace and transfer on modelled workers
//!
//! `TraceAndTransfer` reproduces the paper's parallel multi-process state
//! transfer as a *modelled schedule*. The matched pairs are traced and
//! transferred one after the other, in pair order, on the calling thread:
//! each pair is borrowed out of the process table on its own
//! ([`Kernel::split_pairs`] — the old process shared, the new one
//! exclusive), run, and merged into the report before the next one starts,
//! and the first error stops the loop. Cross-version metadata — interned
//! symbol/site/type names and the old→new type bridge — is resolved once
//! per update into a
//! [`TransferContext`] every pair uses.
//!
//! [`UpdateOptions::transfer_workers`] is an input of the cost model and of
//! nothing else:
//! [`UpdateTimings::state_transfer`](crate::runtime::report::UpdateTimings)
//! is the [`list_schedule_makespan`] of the pairs' simulated costs on that
//! many workers (each pair, in pair order, to the least-loaded worker — one
//! worker yields the serial sum, one worker per pair the slowest pair),
//! while the transfer summary's
//! [`serial_duration`](crate::transfer::engine::TransferSummary::serial_duration)
//! always reports the serial sum of the same work. Tracing statistics,
//! per-process transfer reports, conflict sets, descriptor inheritance, the n-th-object fault site and the post-commit
//! kernel state do not depend on it (`tests/properties.rs` sweeps the
//! counts and holds all of them equal).
//!
//! ## Intra-pair shards and the shared worker budget
//!
//! Pair-level workers cannot shorten the one pair of a *single-process*
//! server with a huge heap. [`UpdateOptions::intra_pair_shards`] models
//! workers *inside* a pair: the transfer engine charges every object write
//! to one of `S` contiguous, cost-balanced address-range shards of the
//! pair's object list, and the pair costs the list-schedule makespan over
//! its shards (see [`TransferContext::with_intra_pair_shards`]). Tracing
//! charges no simulated time, so the count never reaches the tracer.
//!
//! The two counts compose over **one worker budget**: with an explicit
//! `transfer_workers = W` and `intra_pair_shards = S`, a pair is charged
//! `min(S, W)` shards and the pairs are scheduled on `floor(W / S)` workers
//! (at least one) — `W = 3, S = 2` is one worker of two shards — so workers
//! × shards never exceed the requested budget; the `transfer_workers = 0`
//! default sizes the budget at `pairs × S`. Only the charged makespan — the
//! list-schedule over per-shard costs, nested inside the list-schedule over
//! pairs — shrinks as workers or shards are added
//! (`parallel_state_transfer_beats_serial_with_four_or_more_pairs` and
//! `intra_pair_sharded_commits_are_byte_identical` assert it).
//!
//! # Pre-copy: moving trace & transfer out of the quiescence window
//!
//! When [`UpdateOptions::precopy`](crate::runtime::controller::UpdateOptions)
//! is enabled the pipeline borrows the *pre-copy* idea from live migration
//! and runs **six** phases, in this order:
//!
//! 1. [`PhaseName::ReinitReplay`] — the new version boots (parked) while the
//!    old version is still serving.
//! 2. [`PhaseName::MatchProcesses`] — pairs are established up front.
//! 3. [`PhaseName::Precopy`] — iterative concurrent rounds: each round bumps
//!    the old processes' write epoch, delta-retraces only the objects
//!    dirtied since the previous round
//!    ([`ObjectGraph::retrace_dirty`](crate::tracing::graph::ObjectGraph)),
//!    copies the stale delta into the already-placed new-version objects
//!    ([`precopy_transfer_round`]), and then lets the old instance serve
//!    pending traffic (plus an optional mutator/workload hook). Iteration
//!    stops after `precopy.rounds` rounds or as soon as a round ends with at
//!    most `precopy.convergence_bytes` freshly dirtied bytes.
//! 4. [`PhaseName::Quiesce`] — only now does the world stop.
//! 5. [`PhaseName::TraceAndTransfer`] — a final delta retrace plus
//!    [`transfer_residual`]: every transferable object is planned and
//!    counted (reports and conflicts are those of a pass that re-emits
//!    everything, and so is the memory), but only objects whose new-heap
//!    bytes would change are written, and the clock is charged only for the
//!    residual set still stale at quiesce time.
//! 6. [`PhaseName::Commit`] — as before.
//!
//! Downtime therefore shrinks from O(total live heap) to O(working set
//! written during the last round), which
//! [`UpdateTimings::downtime`](crate::runtime::report::UpdateTimings)
//! vs. the phase trace's [`PhaseName::Precopy`] record
//! makes directly measurable (`BENCH_precopy.json` sweeps it; the root
//! `tests/tracked_reports.rs` rebuilds that report).
//! With pre-copy disabled (`precopy.rounds == 0`, the default) the classic
//! five-phase stop-the-world order is used unchanged.
//!
//! # Post-copy: moving the *apply* pass out of the window too
//!
//! Pre-copy is beaten by its own assumption on write-heavy heaps: when every
//! round re-dirties everything, the residual never shrinks and the window
//! still pays for a full copy. [`TransferMode::Postcopy`] inverts the idea —
//! commit *first*, transfer *later*:
//!
//! 1. [`PhaseName::ReinitReplay`] / 2. [`PhaseName::MatchProcesses`] /
//!    3. [`PhaseName::Precopy`] — exactly as above (pre-copy rounds are
//!    optional and compose with post-copy).
//! 4. [`PhaseName::Quiesce`] — the world stops.
//! 5. [`PhaseName::PostcopyCommit`] — the final delta retrace runs and the
//!    transfer *plan* is computed, but for deferred pairs the prepared
//!    writes are **parked** instead of applied: their target pages are
//!    write-protected in the new process
//!    ([`AddressSpace::protect_range`](mcr_procsim::AddressSpace)) and the
//!    new version resumes immediately. The window pays for trace + planning
//!    only, not for the copy.
//! 6. [`PhaseName::PostcopyDrain`] — concurrent with the resumed new
//!    version, which holds a [`PostcopyLoan`] of the transfer context and
//!    the parked residuals for the whole drain. A program thread's load or
//!    store that touches a still-parked page is serviced *before* the
//!    access, as a `userfaultfd` handler blocks the faulting thread: every
//!    parked object on the touched pages is faulted in via [`fault_in_at`]
//!    (a `fork` first completes its process's residual, and a store an
//!    allocator parks inside a thread's call is serviced before the call
//!    returns). A store issued outside a thread step — the post-copy hook, a
//!    test mutator — parks as a [`PendingTrap`](mcr_procsim::PendingTrap)
//!    and is serviced after the serving rounds, then replayed. Each round
//!    then pushes one [`DRAIN_BATCH`]-sized background [`drain_step`] per
//!    pair — skipping anything a trap already serviced, so every deferred
//!    object is applied exactly once. When the last pair drains, the old
//!    processes are removed and the update is committed (the point of no
//!    return moves from phase 5 to the end of phase 6: a fault mid-drain
//!    still rolls back to the old version).
//!
//! Every pair with a residual defers it; a pair with nothing to park counts
//! as synced. `BENCH_adaptive.json` (rebuilt by the root
//! `tests/tracked_reports.rs`) measures the three modes side by side, and
//! all of them converge to byte-identical kernel fingerprints
//! (`tests/properties.rs` proves the equivalence, including rollback from
//! mid-drain faults).
//!
//! # Durable checkpoints: surviving crashes, not just aborts
//!
//! Rollback only helps while the old instance is alive. For crashes of the
//! serving version itself,
//! [`with_checkpoint`](UpdatePipeline::with_checkpoint) inserts a
//! [`PhaseName::Checkpoint`] phase right after the quiescence barrier: with
//! every old-version thread parked, the instance's full recoverable state
//! is serialized, shard by shard, to a
//! [`Store`] as a versioned, checksummed manifest
//! (shards synced strictly before the `MANIFEST` blob that names them, so
//! an interrupted write is never visible as a durable version). The
//! crash-recovery flow is owned by
//! [`supervised_update_durable`](crate::runtime::supervisor::supervised_update_durable):
//! checkpoint before each attempt; if the old instance dies mid-update
//! (the [`ChaosPlan::crashing_old_before`] site), restore the newest intact
//! checkpoint with
//! [`restore_latest`](crate::transfer::checkpoint::restore_latest) — a
//! fresh kernel, a re-boot of the checkpointed generation, and a typed
//! 15-step reconcile ending in a digest self-check — then retry the update
//! on the revived instance. Corrupt or torn versions are rejected by
//! checksum and fall back to the next older one; `BENCH_checkpoint.json`
//! (rebuilt by the root `tests/tracked_reports.rs`) sweeps every
//! block-level crash point and asserts fingerprint-identical
//! recovery or clean rejection for each.
//!
//! # Fault injection and chaos testing
//!
//! A [`ChaosPlan`] arms [`FaultSite`]s on one run — built with
//! [`FaultSite::plan`] and [`ChaosPlan::with`] — and the first site reached
//! fires. Every counted n is 1-based:
//!
//! * [`FaultSite::Boundary`] — the run fails right before the phase
//!   executes (a plan may arm several; the earliest in pipeline order
//!   fires);
//! * [`FaultSite::TransferObject`] — the n-th object write the transfer
//!   engine performs fails, counted across pairs and pre-copy rounds in
//!   pair order, so it is the same object at every worker and shard count;
//! * [`FaultSite::Syscall`] — armed as [`Kernel::arm_syscall_fault`]: the
//!   n-th kernel syscall issued after the pipeline starts is suppressed and
//!   fails with `SimError::FaultInjected`, wherever it lands (replay,
//!   serving rounds, pre-copy traffic);
//! * [`FaultSite::FaultIn`] — the n-th object faulted in after the
//!   post-copy resume fails, whether a thread's load or store, a parked
//!   store's trap service or a background drain batch pulled it (counted
//!   across pairs and drain rounds);
//! * [`FaultSite::DrainStep`] — the n-th background drain batch of the
//!   [`PhaseName::PostcopyDrain`] phase fails, after the new version has
//!   resumed but *before* the point of no return;
//! * [`FaultSite::ManifestWrite`] — the checkpoint store crashes instead of
//!   writing the n-th block of the [`PhaseName::Checkpoint`] phase;
//! * [`FaultSite::TornWrite`] — the same crash, with that block left torn
//!   (half old bytes, half garbage), so only checksum validation can
//!   reject it;
//! * [`FaultSite::RestoreStep`] — the n-th step of a checkpoint restore
//!   fails (consumed by the restore-aware supervisor, not the pipeline
//!   itself).
//!
//! Apart from the sites, [`ChaosPlan::crashing_old_before`] kills the
//! serving version's processes right before the given phase: rollback
//! cannot resume it, recovery needs a durable checkpoint.
//!
//! Independent of fault plans,
//! [`with_uniform_phase_deadline`](UpdatePipeline::with_uniform_phase_deadline)
//! attaches one sim-clock watchdog budget: a phase that overruns it aborts
//! the update with [`Conflict::WatchdogExpired`] and rolls back. `Commit`
//! and `PostcopyDrain` are exempt — both end past the point of no return,
//! where there is no rollback left to promise. The budget is the pipeline
//! caller's to set; the supervisor's retry ladder runs without one.
//!
//! Every failure, injected or organic, funnels through the same rollback
//! guard, which is what the chaos engine verifies at scale:
//!
//! 1. **Enumerate** — run the pipeline once fault-free; the committed
//!    report's [`object_writes`](crate::runtime::report::UpdateReport) and
//!    `update_syscalls` counters plus its phase records become a
//!    [`FaultCatalog`](crate::runtime::chaos::FaultCatalog) of every
//!    injectable site.
//! 2. **Campaign** — draw seeded schedules over the catalog with
//!    [`random_plan`](crate::runtime::chaos::random_plan) and
//!    [`ChaosRng`](crate::runtime::chaos::ChaosRng) (deterministic
//!    xorshift64*: a seed fully reproduces a campaign), asserting that
//!    every fired schedule rolls back to a byte-identical old instance and
//!    that [`supervised_update`](crate::runtime::supervisor::supervised_update)
//!    then converges to a commit once the fault clears
//!    (the root `tests/tracked_reports.rs` runs the smoke grid behind
//!    `BENCH_chaos.json`; `mcr-bench`'s unit tests sweep every site of
//!    every mode in the same scenario).
//! 3. **Reproduce** — a failing schedule is reduced with
//!    [`shrink_schedule`](crate::runtime::chaos::shrink_schedule) to a
//!    1-minimal reproducer; that plan plus the campaign seed replays the
//!    failure exactly (same virtual kernel, same schedule, same outcome).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mcr_procsim::{
    Addr, Fd, FdPlacement, Kernel, Pid, Process, SimDuration, SimError, Store, Syscall, SyscallPort,
    ThreadState, WriteFault, PAGE_SIZE,
};
use mcr_typemeta::InstrumentationConfig;

use crate::callstack::CallStackId;
use crate::error::{Conflict, McrError, McrResult};
use crate::interpose::Interposer;
use crate::program::{InstanceState, Program, ThreadRosterEntry};
use crate::runtime::chaos::{ChaosPlan, FaultSite};
use crate::runtime::controller::{TransferMode, UpdateOptions, UpdateOutcome};
use crate::runtime::report::{PostcopySummary, UpdateReport};
use crate::runtime::scheduler::{
    create_instance, resume, run_round, run_startup, wait_quiescence, BootOptions, McrInstance,
};
use crate::tracing::stats::TracingStats;
use crate::tracing::tracer::{TraceResult, Tracer};
use crate::transfer::checkpoint::{write_checkpoint, CheckpointOptions};
use crate::transfer::engine::{
    self, drain_step, fault_in_at, list_schedule_makespan, precopy_transfer_round, transfer_residual,
    DeltaPlan, PostcopyResidual, ProcessTransferReport, ResidualStats, TransferContext,
};

/// Identifies one stage of the live-update pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseName {
    /// Park the old version at its quiescent points (the barrier).
    Quiesce,
    /// Write a durable checkpoint of the quiesced old instance to a
    /// [`Store`] (optional; inserted after `Quiesce` by
    /// `UpdatePipeline::with_checkpoint`). A crash of the old instance
    /// later in the update recovers from this durable version via
    /// [`restore_latest`](crate::transfer::checkpoint::restore_latest).
    Checkpoint,
    /// Boot the new version under mutable reinitialization (record/replay).
    ReinitReplay,
    /// Pair old processes with new-version counterparts.
    MatchProcesses,
    /// Iterative concurrent pre-copy rounds while the old version serves.
    Precopy,
    /// Mutable tracing and state transfer of every matched pair.
    TraceAndTransfer,
    /// Post-copy commit: final delta retrace, control-state commit, parked
    /// residual armed behind access traps, new version resumed immediately.
    PostcopyCommit,
    /// Post-copy drain: the resumed new version serves while traps are
    /// serviced and the background drainer retires the parked residual;
    /// ends by terminating the old version (point of no return).
    PostcopyDrain,
    /// Resume the new version, terminate the old (point of no return).
    Commit,
}

impl PhaseName {
    /// Every phase of the standard (stop-the-world) pipeline, in execution
    /// order.
    pub const ALL: [PhaseName; 5] = [
        PhaseName::Quiesce,
        PhaseName::ReinitReplay,
        PhaseName::MatchProcesses,
        PhaseName::TraceAndTransfer,
        PhaseName::Commit,
    ];

    /// Every phase of the pre-copy pipeline, in execution order: the new
    /// version boots and is matched while the old one still serves, the
    /// bulk of the state is copied concurrently, and the world stops only
    /// for the residual delta.
    pub const PRECOPY_ALL: [PhaseName; 6] = [
        PhaseName::ReinitReplay,
        PhaseName::MatchProcesses,
        PhaseName::Precopy,
        PhaseName::Quiesce,
        PhaseName::TraceAndTransfer,
        PhaseName::Commit,
    ];

    /// Stable human-readable label (used in reports and conflict messages).
    pub fn label(self) -> &'static str {
        match self {
            PhaseName::Quiesce => "quiesce",
            PhaseName::Checkpoint => "checkpoint",
            PhaseName::ReinitReplay => "reinit-replay",
            PhaseName::MatchProcesses => "match-processes",
            PhaseName::Precopy => "precopy",
            PhaseName::TraceAndTransfer => "trace-and-transfer",
            PhaseName::PostcopyCommit => "postcopy-commit",
            PhaseName::PostcopyDrain => "postcopy-drain",
            PhaseName::Commit => "commit",
        }
    }
}

impl std::fmt::Display for PhaseName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A callback the pre-copy phase invokes after every concurrent copy round,
/// while the old version is still live. Benchmarks and property tests use
/// it to model a write workload dirtying state between rounds (and to issue
/// traffic the serving rounds then answer); the argument is the 1-based
/// round number that just finished.
pub type PrecopyHook = Box<dyn FnMut(&mut Kernel, &mut McrInstance, usize)>;

/// A callback the post-copy drain phase invokes after the serving rounds of
/// every drain iteration, with the *new* version already resumed and
/// serving. Benchmarks and property tests use it to model post-commit
/// traffic writing into not-yet-transferred pages (the access-trap path);
/// the argument is the 1-based drain round that just served.
pub(crate) type PostcopyHook = Box<dyn FnMut(&mut Kernel, &mut McrInstance, usize)>;

/// How far each update slides the new version's private regions past the
/// old instance's: 4 GiB keeps old and new heaps disjoint.
const SLIDE_STEP: u64 = 0x1_0000_0000;

/// Scheduling rounds the barrier protocol may take, for the old version in
/// `Quiesce` and for the new one at the end of `ReinitReplay`.
const MAX_QUIESCE_ROUNDS: usize = 1_000;

/// Simulated cost of one access-trap round trip (the userfaultfd-style
/// kernel bounce), charged to
/// [`UpdateTimings::trap_service`](crate::runtime::report::UpdateTimings)
/// *on top of* the faulted-in objects' apply cost: the faulting thread is
/// blocked for the whole service, so this is downtime even though the
/// instance as a whole keeps running.
pub(crate) const TRAP_SERVICE_LATENCY: SimDuration = SimDuration(10_000);

/// Per-pair resumable pre-copy state: the traced object graph maintained
/// incrementally across rounds plus the engine's [`DeltaPlan`].
pub(crate) struct PairPrecopyState {
    /// The pair's delta plan (placements, copied-at epochs, round log).
    pub(crate) delta: DeltaPlan,
    /// The incrementally maintained trace (None until the first round).
    pub(crate) trace: Option<TraceResult>,
}

/// Shared state threaded through every phase of one update attempt.
pub(crate) struct UpdateCtx<'k> {
    /// The simulated kernel both versions run on.
    pub(crate) kernel: &'k mut Kernel,
    /// The running old version (parked by `Quiesce`, terminated by
    /// `Commit`, resumed by the rollback guard).
    pub(crate) old: McrInstance,
    /// The new version, once `ReinitReplay` has created it.
    pub(crate) new_instance: Option<McrInstance>,
    /// Options of this attempt.
    pub(crate) opts: UpdateOptions,
    /// Instrumentation configuration for the new version's build.
    pub(crate) config: InstrumentationConfig,
    /// Old-process → new-process pairs produced by `MatchProcesses`.
    pub(crate) pairs: Vec<(Pid, Pid)>,
    /// Everything measured so far (each phase appends its own record).
    pub(crate) report: UpdateReport,
    /// Cross-version transfer metadata, built once by the first phase that
    /// needs it (`Precopy`, or `TraceAndTransfer` without pre-copy).
    pub(crate) plan: Option<TransferContext>,
    /// Per-pair pre-copy state, aligned with `pairs`; empty when no
    /// pre-copy rounds ran.
    pub(crate) pair_precopy: Vec<PairPrecopyState>,
    /// Per-pair parked residuals, aligned with `pairs`: filled by
    /// `PostcopyCommit` (already drained for a pair with nothing to park),
    /// lent to the new instance by `PostcopyDrain`.
    pub(crate) pair_postcopy: Vec<PostcopyResidual>,
    /// The fault plan of the pipeline (the n-th-object-write site is armed
    /// on the transfer context when it is built).
    pub(crate) fault: ChaosPlan,
    /// Where and how the `Checkpoint` phase writes.
    checkpoint: Option<(Rc<RefCell<dyn Store>>, CheckpointOptions)>,
    /// Between-rounds callback of the pre-copy phase.
    pub(crate) precopy_hook: Option<PrecopyHook>,
    /// Between-rounds callback of the post-copy drain phase.
    pub(crate) postcopy_hook: Option<PostcopyHook>,
    /// The program to boot, consumed by `ReinitReplay`.
    new_program: Option<Box<dyn Program>>,
    /// Set by `Commit`; decides between committed and rolled-back outcomes.
    committed: bool,
}

impl UpdateCtx<'_> {
    /// Builds the shared [`TransferContext`] if it does not exist yet,
    /// arming any mid-phase object fault of the pipeline's fault plan.
    fn ensure_plan(&mut self) -> McrResult<()> {
        if self.plan.is_none() {
            let new_state = &self
                .new_instance
                .as_ref()
                .ok_or_else(|| McrError::InvalidState("new instance not created yet".into()))?
                .state;
            self.plan = Some(
                TransferContext::new(&self.old.state, new_state)
                    .with_object_fault(self.fault.nth(FaultSite::TransferObject))
                    .with_intra_pair_shards(self.opts.effective_intra_pair_shards()),
            );
        }
        Ok(())
    }
}

/// The post-copy order: pre-copy's first four phases, then
/// [`PhaseName::PostcopyCommit`] and [`PhaseName::PostcopyDrain`].
const POSTCOPY_ALL: [PhaseName; 6] = [
    PhaseName::ReinitReplay,
    PhaseName::MatchProcesses,
    PhaseName::Precopy,
    PhaseName::Quiesce,
    PhaseName::PostcopyCommit,
    PhaseName::PostcopyDrain,
];

/// An ordered list of phases plus what one run of them takes besides the
/// instances: a [`ChaosPlan`], a watchdog budget, the durable checkpoint's
/// store and the between-rounds hooks. [`UpdatePipeline::run`] consumes it.
///
/// The new version boots 2^32 past the old instance's layout slide, so a
/// chain of updates (restored instances included) never revisits a layout:
/// an object pinned at an earlier generation's address lives on in an
/// `inherited:` region no later generation may overlap.
pub struct UpdatePipeline {
    phases: Vec<PhaseName>,
    fault_plan: ChaosPlan,
    /// Watchdog budget: a phase (other than `Commit` and `PostcopyDrain`)
    /// whose sim-time duration exceeds it aborts the update with
    /// [`Conflict::WatchdogExpired`] and rolls back. The budget is evaluated
    /// on the virtual clock when the phase returns — simulated phases
    /// always terminate, so "at phase end" is the honest simulated
    /// equivalent of a wall-clock watchdog interrupt.
    deadline: Option<SimDuration>,
    /// Where and how the [`PhaseName::Checkpoint`] phase writes.
    checkpoint: Option<(Rc<RefCell<dyn Store>>, CheckpointOptions)>,
    /// Between-rounds callback handed to the pre-copy phase.
    precopy_hook: Option<PrecopyHook>,
    /// Between-rounds callback handed to the post-copy drain phase.
    postcopy_hook: Option<PostcopyHook>,
}

impl std::fmt::Debug for UpdatePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdatePipeline")
            .field("phases", &self.phases)
            .field("fault_plan", &self.fault_plan)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl UpdatePipeline {
    fn new(phases: &[PhaseName]) -> Self {
        UpdatePipeline {
            phases: phases.to_vec(),
            fault_plan: ChaosPlan::none(),
            deadline: None,
            checkpoint: None,
            precopy_hook: None,
            postcopy_hook: None,
        }
    }

    /// The pipeline the options call for. In `Postcopy` mode: pre-copy's
    /// first four phases, then [`PhaseName::PostcopyCommit`] and
    /// [`PhaseName::PostcopyDrain`] — quiesce only long enough to commit
    /// control state and park the stale residual behind access traps,
    /// resume the new version immediately, and retire the residual
    /// afterwards (traps + background drain) while it serves. Otherwise
    /// [`PhaseName::PRECOPY_ALL`] when pre-copy rounds are enabled (boot and
    /// match the new version while the old one serves, copy the bulk of the
    /// state concurrently, quiesce only for the residual dirty delta), and
    /// [`PhaseName::ALL`] as the classic default.
    pub fn for_options(opts: &UpdateOptions) -> Self {
        match opts.mode {
            TransferMode::Postcopy => Self::new(&POSTCOPY_ALL),
            TransferMode::StopTheWorld if !opts.precopy.is_enabled() => Self::new(&PhaseName::ALL),
            TransferMode::StopTheWorld | TransferMode::Precopy => Self::new(&PhaseName::PRECOPY_ALL),
        }
    }

    /// Replaces the pipeline's fault plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: ChaosPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Inserts a durable-checkpoint phase right after the quiescence
    /// barrier: with every old-version thread parked, the old instance's
    /// full recoverable state is serialized to `store` as a versioned,
    /// checksummed manifest, so a crash later in the update — or of the
    /// process itself — can be recovered from a consistent image. Checkpoint
    /// time lands inside the stop-the-world window and therefore counts as
    /// downtime.
    #[must_use]
    pub(crate) fn with_checkpoint(mut self, store: Rc<RefCell<dyn Store>>, opts: CheckpointOptions) -> Self {
        let quiesce =
            self.phases.iter().position(|&p| p == PhaseName::Quiesce).expect("every pipeline quiesces");
        self.phases.insert(quiesce + 1, PhaseName::Checkpoint);
        self.checkpoint = Some((store, opts));
        self
    }

    /// Sets the watchdog budget of every phase except `Commit` and
    /// `PostcopyDrain` — both end past the point of no return, so a
    /// watchdog "abort" there would promise a rollback that cannot happen.
    #[must_use]
    pub fn with_uniform_phase_deadline(mut self, budget: SimDuration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Installs a between-rounds callback for the pre-copy phase: it runs
    /// after every concurrent copy round, with the old instance still live.
    /// Benchmarks and property tests use it to model write workloads
    /// dirtying state while the copy is in flight.
    #[must_use]
    pub fn with_precopy_hook(mut self, hook: PrecopyHook) -> Self {
        self.precopy_hook = Some(hook);
        self
    }

    /// Installs a between-rounds callback for the post-copy drain phase: it
    /// runs after the serving rounds of every drain iteration, with the new
    /// version already resumed. Benchmarks and property tests use it to
    /// model post-commit traffic hitting not-yet-transferred pages.
    #[must_use]
    pub fn with_postcopy_hook(mut self, hook: PostcopyHook) -> Self {
        self.postcopy_hook = Some(hook);
        self
    }

    /// Runs the pipeline: executes every phase in order over a fresh
    /// `UpdateCtx`, recording per-phase durations, and returns the instance
    /// that is running afterwards together with the outcome.
    ///
    /// This driver is the *only* place that decides between commit and
    /// rollback: any phase failure — including injected faults — funnels into
    /// the single `roll_back` guard below, so there is exactly one code path
    /// that restores the old version.
    pub fn run(
        self,
        kernel: &mut Kernel,
        old: McrInstance,
        new_program: Box<dyn Program>,
        config: InstrumentationConfig,
        opts: &UpdateOptions,
    ) -> (McrInstance, UpdateOutcome) {
        let UpdatePipeline { phases, fault_plan, deadline, checkpoint: store, precopy_hook, postcopy_hook } =
            self;
        let report = UpdateReport { old_startup: old.state.startup_duration, ..Default::default() };
        let mut ctx = UpdateCtx {
            kernel,
            old,
            new_instance: None,
            opts: *opts,
            config,
            pairs: Vec::new(),
            report,
            plan: None,
            pair_precopy: Vec::new(),
            pair_postcopy: Vec::new(),
            fault: fault_plan,
            checkpoint: store,
            precopy_hook,
            postcopy_hook,
            new_program: Some(new_program),
            committed: false,
        };
        let t_total = ctx.kernel.now();
        let syscalls_before = ctx.kernel.syscall_count();
        // Arm the n-th-syscall chaos trigger inside the simulated kernel for
        // the duration of this attempt; both exit paths disarm it below, so
        // a fault armed for one attempt can never leak into steady-state
        // serving or a later supervisor retry.
        if let Some(nth) = ctx.fault.nth(FaultSite::Syscall) {
            ctx.kernel.arm_syscall_fault(nth);
        }
        // Everything from the start of the quiescence barrier onwards is
        // stop-the-world; phases executed before it (reinit/replay, match,
        // pre-copy) ran while the old version could still serve. The
        // post-copy drain runs after the *new* version resumed, so its
        // duration is background time too — except the trap-service share,
        // which the phase records separately and the downtime formula adds
        // back (a faulting thread is blocked for the whole service).
        let mut pre_quiesce = SimDuration(0);
        let mut post_resume = SimDuration(0);
        let mut quiesce_seen = false;
        let mut failure: Option<McrError> = None;
        let mut failing_phase: Option<PhaseName> = None;
        for name in phases {
            if ctx.fault.crashes_old_before(name) {
                // Crash injection: the old instance's processes die outright
                // before this phase. The rollback guard still runs (it tears
                // down whatever exists of the new version), but it cannot
                // revive what no longer exists — a restore-aware supervisor
                // recovers from the last durable checkpoint instead.
                let UpdateCtx { kernel, old, .. } = &mut ctx;
                for &pid in &old.state.processes {
                    let _ = kernel.remove_process(pid);
                }
                failure = Some(Conflict::OldInstanceCrashed { phase: name.label().into() }.into());
                break;
            }
            if ctx.fault.fires_before(name) {
                failure = Some(Conflict::FaultInjected { phase: name.label().into() }.into());
                break;
            }
            // A phase reads and mutates the shared context; an error sends
            // the attempt to the rollback guard, so every phase before the
            // point of no return keeps the old version restorable.
            let start = ctx.kernel.now();
            let result = match name {
                PhaseName::Quiesce => quiesce(&mut ctx),
                PhaseName::Checkpoint => checkpoint(&mut ctx),
                PhaseName::ReinitReplay => reinit_replay(&mut ctx),
                PhaseName::MatchProcesses => match_processes(&mut ctx),
                PhaseName::Precopy => precopy(&mut ctx),
                PhaseName::TraceAndTransfer => trace_and_transfer(&mut ctx),
                PhaseName::PostcopyCommit => postcopy_commit(&mut ctx),
                PhaseName::PostcopyDrain => postcopy_drain(&mut ctx),
                PhaseName::Commit => commit(&mut ctx),
            };
            let duration = ctx.kernel.now().duration_since(start);
            ctx.report.phases.record(name, duration, result.is_ok());
            if name == PhaseName::Quiesce {
                quiesce_seen = true;
            } else if !quiesce_seen {
                pre_quiesce = pre_quiesce.saturating_add(duration);
            } else if name == PhaseName::PostcopyDrain {
                post_resume = post_resume.saturating_add(duration);
            }
            if let Err(e) = result {
                failure = Some(e);
                failing_phase = Some(name);
                break;
            }
            // Watchdog: a completed phase that overran its sim-time budget
            // aborts the attempt. A phase that committed (`Commit`, or the
            // drain, whose last act commits) is past the point of no return:
            // the committed outcome below takes precedence over this failure.
            if let Some(budget) = deadline.filter(|&budget| duration > budget) {
                failure = Some(
                    Conflict::WatchdogExpired {
                        phase: name.label().into(),
                        budget_ns: budget.0,
                        spent_ns: duration.0,
                    }
                    .into(),
                );
                failing_phase = Some(name);
                break;
            }
        }
        ctx.kernel.disarm_syscall_fault();
        ctx.report.update_syscalls = ctx.kernel.syscall_count() - syscalls_before;
        if let Some(plan) = &ctx.plan {
            ctx.report.object_writes = plan.writes_performed();
        }
        ctx.report.timings.total = ctx.kernel.now().duration_since(t_total);
        ctx.report.timings.downtime = if quiesce_seen {
            SimDuration(
                ctx.report
                    .timings
                    .total
                    .0
                    .saturating_sub(pre_quiesce.0)
                    .saturating_sub(post_resume.0)
                    .saturating_add(ctx.report.timings.trap_service.0),
            )
        } else {
            SimDuration(0)
        };
        if ctx.committed {
            // Commit is the point of no return: the old version's processes
            // are gone, so the new version is the one running — even when the
            // watchdog found the committing phase over its budget.
            let new_instance =
                ctx.new_instance.take().expect("a committed pipeline leaves the new instance in the context");
            return (new_instance, UpdateOutcome::Committed(ctx.report));
        }
        match failure {
            // Every pipeline ends in a committing phase, so finishing the
            // list without committing cannot happen; roll back if it does.
            None => Self::roll_back(ctx, Vec::new()),
            Some(error) => {
                let conflicts = match error {
                    McrError::Conflicts(cs) => cs,
                    // A fired n-th-syscall trigger surfaces as an injected
                    // fault attributed to the phase it landed in.
                    McrError::Sim(SimError::FaultInjected { nth }) => {
                        let phase = match failing_phase {
                            Some(p) => format!("syscall#{nth}@{}", p.label()),
                            None => format!("syscall#{nth}"),
                        };
                        vec![Conflict::FaultInjected { phase }]
                    }
                    other => vec![Conflict::StartupFailure {
                        syscall: "<runtime>".into(),
                        error: other.to_string(),
                    }],
                };
                Self::roll_back(ctx, conflicts)
            }
        }
    }

    /// The pipeline's single rollback guard: tears down whatever exists of
    /// the new version and resumes the old version where it was parked.
    /// Every aborted attempt — phase error, conflict set, injected fault —
    /// goes through here and nowhere else.
    fn roll_back(ctx: UpdateCtx<'_>, conflicts: Vec<Conflict>) -> (McrInstance, UpdateOutcome) {
        let UpdateCtx { kernel, mut old, new_instance, report, .. } = ctx;
        if let Some(new_instance) = new_instance {
            for &pid in &new_instance.state.processes {
                let _ = kernel.remove_process(pid);
            }
        }
        resume(kernel, &mut old);
        (old, UpdateOutcome::RolledBack { conflicts, report })
    }
}

// ---------------------------------------------------------------------------
// The standard phases
// ---------------------------------------------------------------------------

/// Phase 1 — the barrier: drive the barrier protocol until every
/// old-version thread is parked at its quiescent point.
fn quiesce(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    wait_quiescence(ctx.kernel, &mut ctx.old, MAX_QUIESCE_ROUNDS)?;
    ctx.report.open_connections = ctx.kernel.open_connection_count();
    Ok(())
}

/// Optional phase — durable checkpoint: with the old version quiesced,
/// serialize its full recoverable state (boot recipe, object graph,
/// placements, page deltas) to a [`Store`] as a versioned, checksummed
/// manifest. A failure here aborts the attempt with
/// [`Conflict::CheckpointFailed`] — once a checkpoint was requested, the
/// update never proceeds without a recovery point.
///
/// The pipeline's [`ChaosPlan`] can arm torn-write/crash faults against the
/// store ([`FaultSite::ManifestWrite`] / [`FaultSite::TornWrite`]), counted
/// relative to the blocks already written. The phase "remounts" the store on entry
/// ([`Store::recover`]) so a crash injected in one attempt never wedges the
/// store for a supervisor retry.
fn checkpoint(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    let (store, opts) =
        ctx.checkpoint.as_ref().ok_or_else(|| McrError::InvalidState("no checkpoint store".into()))?;
    let mut store = store.borrow_mut();
    store.recover();
    if let Some(n) = ctx.fault.nth(FaultSite::ManifestWrite) {
        let at = store.blocks_written() + n;
        store.arm_write_fault(WriteFault::CrashAt(at));
    } else if let Some(n) = ctx.fault.nth(FaultSite::TornWrite) {
        let at = store.blocks_written() + n;
        store.arm_write_fault(WriteFault::TornAt(at));
    }
    let result = write_checkpoint(ctx.kernel, &ctx.old, &mut *store, opts);
    store.disarm_write_fault();
    match result {
        Ok(summary) => {
            ctx.report.checkpoint = Some(summary);
            Ok(())
        }
        Err(e) => Err(Conflict::CheckpointFailed { error: e.to_string() }.into()),
    }
}

/// Phase 2 — restart: boot the new version under mutable reinitialization
/// (global descriptor inheritance, pid virtualization, startup replay), then
/// park it at its quiescent points so it cannot observe external events
/// before commit.
fn reinit_replay(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    let new_program = ctx
        .new_program
        .take()
        .ok_or_else(|| McrError::InvalidState("pipeline has no program to boot".into()))?;
    let old_init = ctx.old.init_pid()?;
    let layout_slide = ctx.kernel.process(old_init).map_err(McrError::Sim)?.layout().slide() + SLIDE_STEP;
    let boot_opts = BootOptions { config: ctx.config, layout_slide, start_quiesced: true };
    let interposer = Interposer::replayer(ctx.old.state.interpose.recorded_log());
    let new_instance = create_instance(ctx.kernel, new_program, interposer, &boot_opts)?;
    let new_init = new_instance.init_pid()?;
    ctx.new_instance = Some(new_instance);

    // Global inheritance: the new version's first process inherits every
    // descriptor of every old-version process at the same number.
    let old_pids = ctx.old.state.processes.clone();
    for &old_pid in &old_pids {
        let fds: Vec<Fd> = match ctx.kernel.process(old_pid) {
            Ok(p) => p.fds().iter().map(|(fd, _)| fd).collect(),
            Err(_) => continue,
        };
        for fd in fds {
            let already = ctx.kernel.process(new_init).map(|p| p.fds().contains(fd)).unwrap_or(false);
            if !already {
                let _ = ctx.kernel.transfer_fd(old_pid, fd, new_init, FdPlacement::Exact(fd));
            }
        }
    }
    // Pid virtualization: the new initial process observes the old
    // initial process's pid.
    let old_virt = ctx.old.state.interpose.virtual_pid(old_init);
    let UpdateCtx { kernel, new_instance, report, .. } = ctx;
    let new_instance = new_instance.as_mut().expect("created above");
    new_instance.state.interpose.map_pid(old_virt, new_init);

    run_startup(kernel, new_instance)?;
    report.new_startup = new_instance.state.startup_duration;
    // Conservative matching: recorded operations the new version omitted.
    let omission_conflicts = {
        let state = &mut new_instance.state;
        let crate::program::InstanceState { interpose, annotations, .. } = state;
        interpose.finish_replay(annotations)
    };
    if !omission_conflicts.is_empty() {
        return Err(McrError::Conflicts(omission_conflicts));
    }
    // Park every new-version thread at its quiescent point.
    wait_quiescence(kernel, new_instance, MAX_QUIESCE_ROUNDS)?;
    report.replay = new_instance.state.interpose.stats();
    Ok(())
}

/// Phase 4 — restore: mutable tracing and state transfer for every matched
/// process pair, then per-process descriptor inheritance for connection
/// descriptors created after startup.
///
/// The pairs run one after the other, in pair order (`transfer_pairs`);
/// [`UpdateOptions::transfer_workers`] only decides how many modelled
/// workers the pairs' costs are list-scheduled on. After a pre-copy phase
/// each pair resumes its [`DeltaPlan`]: it delta-retraces the quiesced old
/// process and transfers the residual, charging only the still-stale work to
/// the window.
fn trace_and_transfer(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    if ctx.pairs.is_empty() {
        ctx.report.timings.state_transfer = SimDuration(0);
        return Ok(());
    }
    transfer_pairs(ctx, transfer_residual)
}

/// Runs `transfer` — an engine entry point, or a closure around one — on the
/// matched pair at `index`, with the pair's trace brought up to date first:
/// a fresh trace the first time the pair is traced, a delta retrace from
/// [`DeltaPlan::traced_upto`] after. The pair is borrowed out of the process
/// table on its own ([`Kernel::split_pairs`]: the old process shared, the
/// new one exclusive); its plan and trace are its pre-copy state's, or live
/// for this call when no pre-copy round ran.
fn trace_and_transfer_pair<R>(
    ctx: &mut UpdateCtx<'_>,
    index: usize,
    transfer: impl FnOnce(
        &TransferContext,
        &mut DeltaPlan,
        &Process,
        &InstanceState,
        &mut Process,
        &InstanceState,
        &TraceResult,
    ) -> McrResult<R>,
) -> McrResult<(TracingStats, R)> {
    let UpdateCtx { kernel, old, new_instance, pairs, plan, pair_precopy, .. } = ctx;
    let new_state = &new_instance.as_ref().expect("matched pairs imply an instance").state;
    let plan = plan.as_ref().expect("the calling phase ensured the plan");
    let mut split = kernel.split_pairs(&pairs[index..=index]).map_err(McrError::Sim)?;
    let (old_proc, new_proc) = split.pop().expect("one pair requested");
    let mut standalone = PairPrecopyState { delta: DeltaPlan::new(), trace: None };
    let PairPrecopyState { delta, trace } = pair_precopy.get_mut(index).unwrap_or(&mut standalone);
    let tracer = Tracer::for_process(old_proc, &old.state);
    let trace = match trace {
        None => trace.insert(tracer.trace()),
        Some(trace) => {
            trace.stats = trace.graph.retrace_dirty(&tracer, delta.traced_upto);
            trace
        }
    };
    let out = transfer(plan, delta, old_proc, &old.state, new_proc, new_state, trace)?;
    Ok((trace.stats, out))
}

/// The stop-the-world pair loop of [`trace_and_transfer`] and
/// [`postcopy_commit`]: for each pair, in pair order, trace it, run
/// `transfer` on it and merge what it produced — tracing statistics, the
/// clock charge, the per-process report (which keeps its conflicts, so
/// per-process attribution survives into a rolled-back report) and
/// descriptor inheritance — stopping at the first error. The clock is
/// charged the *residual* cost: without pre-copy that is the pair's full transfer, with
/// pre-copy the stop-the-world share left after the concurrent rounds, for a
/// deferred post-copy pair nothing. The phase's
/// [`state_transfer`](crate::runtime::report::UpdateTimings) time is the
/// list-schedule makespan of those costs on the modelled workers.
fn transfer_pairs(
    ctx: &mut UpdateCtx<'_>,
    mut transfer: impl FnMut(
        &TransferContext,
        &mut DeltaPlan,
        &Process,
        &InstanceState,
        &mut Process,
        &InstanceState,
        &TraceResult,
    ) -> McrResult<(ProcessTransferReport, ResidualStats)>,
) -> McrResult<()> {
    let workers = ctx.opts.effective_transfer_workers(ctx.pairs.len());
    ctx.ensure_plan()?;
    let mut host_wall = Duration::ZERO;
    let mut failure: Option<McrError> = None;
    let mut pair_costs: Vec<SimDuration> = Vec::with_capacity(ctx.pairs.len());
    for index in 0..ctx.pairs.len() {
        let wall = Instant::now();
        let outcome = trace_and_transfer_pair(ctx, index, &mut transfer);
        host_wall += wall.elapsed();
        match outcome {
            Err(e) => {
                failure = Some(e);
                break;
            }
            Ok((stats, (report, residual))) => {
                let (old_pid, new_pid) = ctx.pairs[index];
                ctx.report.tracing.merge(&stats);
                ctx.kernel.advance_clock(residual.cost);
                pair_costs.push(residual.cost);
                ctx.report.precopy.absorb_residual(&residual);
                ctx.report.transfer.per_process.push(report);
                inherit_connection_fds(ctx.kernel, old_pid, new_pid);
            }
        }
    }
    ctx.report.transfer.workers = workers;
    ctx.report.transfer.host_wall_ns = u64::try_from(host_wall.as_nanos()).unwrap_or(u64::MAX);
    if let Some(e) = failure {
        return Err(e);
    }
    if ctx.report.transfer.conflicts().next().is_some() {
        return Err(McrError::Conflicts(ctx.report.transfer.conflicts().cloned().collect()));
    }
    ctx.report.timings.state_transfer = list_schedule_makespan(&pair_costs, workers);
    Ok(())
}

/// Per-process descriptor inheritance: connection descriptors created after
/// startup exist only in the matched old process. Descriptor numbers may
/// clash across processes (two old workers can both own a "fd 7" referring
/// to different connections); the matched process's own object wins,
/// mirroring the per-process mapping the paper calls for in multiprocess
/// deployments.
fn inherit_connection_fds(kernel: &mut Kernel, old_pid: Pid, new_pid: Pid) {
    let fds: Vec<(Fd, mcr_procsim::ObjId)> = match kernel.process(old_pid) {
        Ok(p) => p.fds().iter().map(|(fd, e)| (fd, e.object)).collect(),
        Err(_) => Vec::new(),
    };
    for (fd, old_obj) in fds {
        let existing = kernel.process(new_pid).ok().and_then(|p| p.fds().get(fd).ok());
        match existing {
            Some(entry) if entry.object == old_obj => {}
            Some(_) => {
                // Same number, different object: replace it with the object
                // this process actually owned in the old version.
                let new_tid = kernel.process(new_pid).map(|p| p.main_tid());
                if let Ok(tid) = new_tid {
                    let _ = kernel.syscall(new_pid, tid, Syscall::Close { fd });
                    let _ = kernel.transfer_fd(old_pid, fd, new_pid, FdPlacement::Exact(fd));
                }
            }
            None => {
                let _ = kernel.transfer_fd(old_pid, fd, new_pid, FdPlacement::Exact(fd));
            }
        }
    }
}

/// The concurrent pre-copy phase: iterative trace-and-copy rounds executed
/// *before* the quiescence barrier, with the old version still serving
/// between rounds.
///
/// Each round (1) bumps every old process's write epoch, (2) delta-retraces
/// and copies each pair's stale objects, pair by pair, (3) charges the
/// round's makespan on the modelled workers to the clock (concurrent time,
/// recorded in the phase's own trace record, not downtime), and (4) lets the old instance run
/// [`PrecopyOptions::serve_rounds`](crate::runtime::controller::PrecopyOptions)
/// scheduler rounds plus the optional [`PrecopyHook`]. Iteration stops when
/// the freshly dirtied bytes of a round drop to the convergence threshold
/// or the round budget is exhausted; whatever is still dirty afterwards is
/// the residual the stop-the-world window pays for.
fn precopy(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    let precopy_opts = ctx.opts.precopy;
    if !precopy_opts.is_enabled() || ctx.pairs.is_empty() {
        return Ok(());
    }
    ctx.ensure_plan()?;
    ctx.report.precopy.enabled = true;
    ctx.pair_precopy =
        ctx.pairs.iter().map(|_| PairPrecopyState { delta: DeltaPlan::new(), trace: None }).collect();
    let workers = ctx.opts.effective_transfer_workers(ctx.pairs.len());

    for round in 1..=precopy_opts.rounds {
        // Start a new write epoch in every old process: everything the
        // old version writes from here on is the next round's (or the
        // stop-the-world window's) delta.
        let mut uptos = Vec::with_capacity(ctx.pairs.len());
        for &(old_pid, _) in &ctx.pairs {
            uptos.push(ctx.kernel.advance_write_epoch(old_pid).map_err(McrError::Sim)?);
        }

        // Copy this round's stale delta; a failing round aborts the
        // update while the old version is still live (rollback costs
        // nothing).
        let mut round_costs = Vec::with_capacity(ctx.pairs.len());
        for (index, &upto) in uptos.iter().enumerate() {
            let (_, round_report) = trace_and_transfer_pair(ctx, index, precopy_transfer_round)?;
            ctx.pair_precopy[index].delta.traced_upto = upto;
            ctx.report.precopy.absorb_round(round, &round_report);
            round_costs.push(round_report.cost);
        }
        // The round ran concurrently with the old version; charge its
        // makespan to the shared clock (this is pre-copy time, not
        // downtime).
        ctx.kernel.advance_clock(list_schedule_makespan(&round_costs, workers));

        // The old version keeps serving: pending traffic, timers, plus
        // whatever the between-rounds hook injects.
        {
            let UpdateCtx { kernel, old, precopy_hook, .. } = ctx;
            for _ in 0..precopy_opts.serve_rounds {
                let _ = run_round(kernel, old)?;
            }
            if let Some(hook) = precopy_hook.as_mut() {
                hook(kernel, old, round);
            }
        }

        // Convergence: stop iterating once the old version dirtied at
        // most `convergence_bytes` since this round's epoch (page
        // granular, like the tracking itself).
        let mut newly_dirty_bytes = 0u64;
        for (&(old_pid, _), &upto) in ctx.pairs.iter().zip(uptos.iter()) {
            let proc = ctx.kernel.process(old_pid).map_err(McrError::Sim)?;
            newly_dirty_bytes += proc.space().dirty_page_count_since(upto) as u64 * PAGE_SIZE;
        }
        if round < precopy_opts.rounds && newly_dirty_bytes <= precopy_opts.convergence_bytes {
            break;
        }
    }
    Ok(())
}

/// Phase 5 — commit: the new version resumes; the old version is terminated.
/// This is the pipeline's single non-reversible step.
fn commit(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    {
        let UpdateCtx { kernel, new_instance, .. } = ctx;
        let new_instance =
            new_instance.as_mut().ok_or_else(|| McrError::InvalidState("nothing to commit".into()))?;
        resume(kernel, new_instance);
    }
    for &pid in &ctx.old.state.processes {
        let _ = ctx.kernel.remove_process(pid);
    }
    ctx.committed = true;
    Ok(())
}

/// Post-copy phase 5 — commit: final delta retrace and transfer for every
/// pair (`transfer_pairs`) with the stale residual *parked* instead of
/// copied, descriptor inheritance, access traps armed over every parked
/// range, and the new version resumed.
///
/// The old version's processes are deliberately **not** removed here: the
/// parked residual still reads the frozen old address spaces, and a drain
/// failure must roll back to an intact old instance. The phase is therefore
/// still reversible — [`postcopy_drain`] holds the point of no return.
fn postcopy_commit(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    ctx.report.postcopy.enabled = true;
    if ctx.pairs.is_empty() {
        ctx.report.timings.state_transfer = SimDuration(0);
        let UpdateCtx { kernel, new_instance, .. } = ctx;
        let new_instance =
            new_instance.as_mut().ok_or_else(|| McrError::InvalidState("nothing to commit".into()))?;
        resume(kernel, new_instance);
        return Ok(());
    }
    // A deferred pair contributes nothing to the window: its applies are
    // charged when they happen, after resume.
    let mut states: Vec<PostcopyResidual> = Vec::with_capacity(ctx.pairs.len());
    let transferred = transfer_pairs(ctx, |plan, delta, old_proc, old_state, new_proc, new_state, trace| {
        let (report, residual, parked) =
            engine::postcopy_commit(plan, delta, old_proc, old_state, new_proc, new_state, trace)?;
        states.push(parked);
        Ok((report, residual))
    });
    // Counted before the result is looked at: a rolled-back report still
    // says what the pairs ahead of the failing one did.
    for residual in &states {
        if residual.is_drained() {
            ctx.report.postcopy.synced_pairs += 1;
        } else {
            ctx.report.postcopy.deferred_pairs += 1;
            ctx.report.postcopy.deferred_objects += residual.remaining();
            ctx.report.postcopy.deferred_bytes += residual.remaining_bytes();
        }
    }
    ctx.pair_postcopy = states;
    transferred?;

    // Arm the access traps over every parked range, then resume the new
    // version immediately — from here on the residual retires in the
    // background while the new instance serves.
    for (residual, &(_, new_pid)) in ctx.pair_postcopy.iter().zip(&ctx.pairs) {
        if !residual.is_drained() {
            let proc = ctx.kernel.process_mut(new_pid).map_err(McrError::Sim)?;
            residual.arm(proc)?;
        }
    }
    let UpdateCtx { kernel, new_instance, .. } = ctx;
    let new_instance = new_instance.as_mut().expect("matched pairs imply an instance");
    resume(kernel, new_instance);
    Ok(())
}

/// Translates the chaos plan's *global* 1-based n-th-fault-in trigger into
/// the per-pair counter the engine checks: with `global_done` applies
/// already performed across the attempt and `pair_done` in this pair, the
/// pair's next apply is global number `global_done + 1`.
fn shifted_fault_in(global: Option<u64>, global_done: u64, pair_done: u64) -> Option<u64> {
    match global {
        Some(n) if n > global_done => Some(pair_done + (n - global_done)),
        _ => None,
    }
}

/// What [`postcopy_drain`] lends the resumed new instance for the whole
/// drain — serve rounds, post-copy hook, trap service and drain batches —
/// and takes back on commit and rollback alike: the transfer context, every
/// pair's parked residual, the n-th-fault-in trigger and the post-copy
/// counters. While it is lent, [`ProgramEnv`](crate::program::ProgramEnv)
/// services a thread's access to a parked page before the access.
#[derive(Debug)]
pub(crate) struct PostcopyLoan {
    plan: TransferContext,
    /// Old-process → new-process pairs, aligned with `residuals`.
    pairs: Vec<(Pid, Pid)>,
    residuals: Vec<PostcopyResidual>,
    /// The chaos plan's global n-th-fault-in trigger.
    fault_in: Option<u64>,
    /// Objects faulted in or drained so far, across pairs.
    fault_in_done: u64,
    summary: PostcopySummary,
}

impl PostcopyLoan {
    fn pair_of(&self, new_pid: Pid) -> Option<usize> {
        self.pairs.iter().position(|&(_, new)| new == new_pid)
    }

    fn is_drained(&self) -> bool {
        self.residuals.iter().all(PostcopyResidual::is_drained)
    }

    /// Runs `apply` on pair `index`'s residual with the pair borrowed out of
    /// the process table and the fault-in trigger shifted to the pair's
    /// counter, then books the objects it applied against the trigger.
    fn apply_on_pair(
        &mut self,
        kernel: &mut Kernel,
        index: usize,
        apply: impl FnOnce(
            &TransferContext,
            &mut PostcopyResidual,
            &Process,
            &mut Process,
            Option<u64>,
        ) -> McrResult<ResidualStats>,
    ) -> McrResult<ResidualStats> {
        let mut split = kernel.split_pairs(&self.pairs[index..=index]).map_err(McrError::Sim)?;
        let (old_proc, new_proc) = split.pop().expect("one pair requested");
        let residual = &mut self.residuals[index];
        let before = residual.faulted_in();
        let trigger = shifted_fault_in(self.fault_in, self.fault_in_done, before);
        let stats = apply(&self.plan, residual, old_proc, new_proc, trigger)?;
        self.fault_in_done += residual.faulted_in() - before;
        Ok(stats)
    }

    /// Books one trap whose service applied `stats`: the blocked thread
    /// waits [`TRAP_SERVICE_LATENCY`] plus the apply cost.
    fn charge_trap(&mut self, kernel: &mut Kernel, stats: &ResidualStats) {
        let service = TRAP_SERVICE_LATENCY.saturating_add(stats.cost);
        self.summary.traps += 1;
        self.summary.trap_objects += stats.objects;
        self.summary.trap_service_ns.push(service.0);
        kernel.advance_clock(service);
    }

    /// One trap on pair `index`: every parked object on the pages of
    /// `[addr, addr + len)` is applied.
    fn trap(&mut self, kernel: &mut Kernel, index: usize, addr: Addr, len: usize) -> McrResult<()> {
        let stats = self.apply_on_pair(kernel, index, |plan, residual, old_proc, new_proc, trigger| {
            fault_in_at(plan, residual, old_proc, new_proc, addr, len, trigger)
        })?;
        self.charge_trap(kernel, &stats);
        Ok(())
    }

    /// A thread of `pid` is about to access `[addr, addr + len)`: if that
    /// touches a protected page, fault its parked objects in first.
    #[cold]
    pub(crate) fn service_access(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        addr: Addr,
        len: usize,
    ) -> McrResult<()> {
        let protected = kernel.process(pid).is_ok_and(|p| p.space().touches_protected(addr, len));
        match self.pair_of(pid) {
            Some(index) if protected => self.trap(kernel, index, addr, len),
            _ => Ok(()),
        }
    }

    /// Services the stores `pid` parked on protected pages, in program
    /// order: each one traps (its page's objects are applied), then lands.
    #[cold]
    pub(crate) fn service_parked(&mut self, kernel: &mut Kernel, pid: Pid) -> McrResult<()> {
        let Some(index) = self.pair_of(pid) else { return Ok(()) };
        for trap in kernel.take_pending_traps(pid).map_err(McrError::Sim)? {
            self.trap(kernel, index, trap.addr, trap.bytes.len().max(1))?;
            let proc = kernel.process_mut(pid).map_err(McrError::Sim)?;
            proc.space_mut().write_bytes_through(trap.addr, &trap.bytes).map_err(McrError::Sim)?;
        }
        Ok(())
    }

    /// Applies all of `pid`'s parked residual as one trap (a `fork` is
    /// about to copy its pages).
    #[cold]
    pub(crate) fn complete_residual(&mut self, kernel: &mut Kernel, pid: Pid) -> McrResult<()> {
        let Some(index) = self.pair_of(pid) else { return Ok(()) };
        if self.residuals[index].is_drained() {
            return Ok(());
        }
        let stats = self.apply_on_pair(kernel, index, |plan, residual, old_proc, new_proc, trigger| {
            drain_step(plan, residual, old_proc, new_proc, usize::MAX, trigger)
        })?;
        self.charge_trap(kernel, &stats);
        Ok(())
    }

    /// One background drain batch of up to [`DRAIN_BATCH`] objects for pair
    /// `index`, returning its (concurrent) cost.
    fn drain_batch(
        &mut self,
        kernel: &mut Kernel,
        index: usize,
        drain_fault: Option<u64>,
    ) -> McrResult<SimDuration> {
        if self.residuals[index].is_drained() {
            return Ok(SimDuration(0));
        }
        self.summary.drain_steps += 1;
        if drain_fault == Some(self.summary.drain_steps) {
            return Err(Conflict::FaultInjected { phase: "drain-step".into() }.into());
        }
        let stats = self.apply_on_pair(kernel, index, |plan, residual, old_proc, new_proc, trigger| {
            drain_step(plan, residual, old_proc, new_proc, DRAIN_BATCH, trigger)
        })?;
        self.summary.drained_objects += stats.objects;
        Ok(stats.cost)
    }
}

/// Parked objects the background drainer applies per pair per drain round.
const DRAIN_BATCH: usize = 32;

/// Scheduler rounds the resumed new instance serves between drain batches.
const DRAIN_SERVE_ROUNDS: usize = 1;

/// The drain loop of [`postcopy_drain`] over the lent state, returning the
/// rounds it ran.
fn drain_rounds(ctx: &mut UpdateCtx<'_>) -> McrResult<usize> {
    let workers = ctx.opts.effective_transfer_workers(ctx.pairs.len());
    let drain_fault = ctx.fault.nth(FaultSite::DrainStep);
    let UpdateCtx { kernel, new_instance, postcopy_hook, .. } = ctx;
    let new_instance = new_instance.as_mut().expect("post-copy commit resumed the new version");
    let mut round = 0;
    while !new_instance.state.postcopy.as_ref().expect("the drain lent its state").is_drained() {
        round += 1;
        // The new version serves while the drainer works (pending
        // traffic, timers, plus whatever the hook injects).
        for _ in 0..DRAIN_SERVE_ROUNDS {
            let _ = run_round(kernel, new_instance)?;
        }
        if let Some(hook) = postcopy_hook.as_mut() {
            hook(kernel, new_instance, round);
        }
        // Per pair: service the stores the hook parked, then one
        // background drain batch.
        let loan = new_instance.state.postcopy.as_deref_mut().expect("the drain lent its state");
        let mut drain_costs = vec![SimDuration(0); loan.pairs.len()];
        for (index, cost) in drain_costs.iter_mut().enumerate() {
            loan.service_parked(kernel, loan.pairs[index].1)?;
            *cost = loan.drain_batch(kernel, index, drain_fault)?;
        }
        // The drain batches ran concurrently with serving.
        kernel.advance_clock(list_schedule_makespan(&drain_costs, workers));
    }
    Ok(round)
}

/// Post-copy phase 6 — drain: the resumed new version serves while the
/// parked residual retires three ways, all through the [`PostcopyLoan`] the
/// phase lends the new instance. *Thread faults*: a program thread's load or
/// store that touches a parked page first faults in every parked object on
/// it, synchronously; a `fork` first completes its process's residual.
/// *Parked stores*: a store issued outside a thread's accessors (the
/// post-copy hook, a test mutator) parks in the kernel; the handler faults
/// in the touched objects and replays the store on the transferred content.
/// Both charge [`TRAP_SERVICE_LATENCY`] plus the apply cost as downtime —
/// the faulting thread was blocked — so final bytes match a stop-the-world
/// run exactly. *Background drainer*: up to [`DRAIN_BATCH`] objects per
/// pair per round, in deterministic address order, charged as concurrent
/// time. Once every pair is drained the old version is terminated — the
/// phase's last act is the point of no return, so a failure anywhere in the
/// loop still rolls back to the intact old instance.
fn postcopy_drain(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    let loan = PostcopyLoan {
        plan: ctx.plan.take().expect("post-copy commit built the plan"),
        pairs: ctx.pairs.clone(),
        residuals: std::mem::take(&mut ctx.pair_postcopy),
        fault_in: ctx.fault.nth(FaultSite::FaultIn),
        fault_in_done: 0,
        summary: std::mem::take(&mut ctx.report.postcopy),
    };
    let new_state = &mut ctx.new_instance.as_mut().expect("post-copy commit resumed the new version").state;
    new_state.postcopy = Some(Box::new(loan));
    let drained = drain_rounds(ctx);
    // Take the loan back whether the drain finished or failed.
    let new_state = &mut ctx.new_instance.as_mut().expect("the drain keeps the new version").state;
    let loan = new_state.postcopy.take().expect("the drain lent its state");
    ctx.plan = Some(loan.plan);
    ctx.report.postcopy = loan.summary;
    // Trap service is downtime: every faulting thread was blocked.
    ctx.report.timings.trap_service = SimDuration(ctx.report.postcopy.trap_service_ns.iter().sum());
    ctx.report.postcopy.drain_rounds = drained? as u64;
    // Every parked object is applied — nothing can fault on the old
    // space any more. Terminate the old version: the point of no return.
    for &pid in &ctx.old.state.processes {
        let _ = ctx.kernel.remove_process(pid);
    }
    ctx.committed = true;
    Ok(())
}

/// Phase 3 — pair old-version processes with new-version processes by
/// creation-time call-stack ID (and creation order), optionally recreating
/// counterparts for unmatched old processes (volatile quiescent points).
fn match_processes(ctx: &mut UpdateCtx<'_>) -> McrResult<()> {
    let UpdateCtx { kernel, old, new_instance, opts, report, .. } = ctx;
    let new_instance =
        new_instance.as_mut().ok_or_else(|| McrError::InvalidState("new instance not created yet".into()))?;
    let new_init = new_instance.init_pid()?;
    let mut pairs = Vec::new();
    let mut used: BTreeSet<u32> = BTreeSet::new();
    for &old_pid in &old.state.processes {
        let old_proc = kernel.process(old_pid).map_err(McrError::Sim)?;
        let old_cs = CallStackId::from_frames(old_proc.creation_stack());
        let old_stack = old_proc.creation_stack().to_vec();
        let candidate =
            new_instance.state.processes.iter().copied().filter(|p| !used.contains(&p.0)).find(|&p| {
                kernel
                    .process(p)
                    .map(|proc| CallStackId::from_frames(proc.creation_stack()) == old_cs)
                    .unwrap_or(false)
            });
        match candidate {
            Some(new_pid) => {
                used.insert(new_pid.0);
                pairs.push((old_pid, new_pid));
                report.processes_matched += 1;
            }
            None if opts.recreate_unmatched_processes => {
                // Fork a counterpart from the new version's initial process
                // (modelling the annotated control-migration extension the
                // paper describes for volatile quiescent points).
                let init_tid = kernel.process(new_init).map_err(McrError::Sim)?.main_tid();
                let child = kernel
                    .syscall(new_init, init_tid, Syscall::Fork)
                    .map_err(McrError::Sim)?
                    .as_pid()
                    .ok_or_else(|| McrError::InvalidState("fork did not return a pid".into()))?;
                {
                    let proc = kernel.process_mut(child).map_err(McrError::Sim)?;
                    proc.set_creation_stack(old_stack);
                    let main = proc.main_tid();
                    proc.thread_mut(main).map_err(McrError::Sim)?.set_state(ThreadState::Quiesced);
                }
                let child_tid = kernel.process(child).map_err(McrError::Sim)?.main_tid();
                let name = old
                    .state
                    .threads
                    .iter()
                    .find(|t| t.pid == old_pid)
                    .map(|t| t.name.clone())
                    .unwrap_or_else(|| "recreated".into());
                new_instance.state.processes.push(child);
                new_instance.state.add_roster_entry(ThreadRosterEntry {
                    pid: child,
                    tid: child_tid,
                    name,
                    created_during_startup: false,
                    exited: false,
                });
                // The pid the old process observed stays meaningful in
                // transferred data structures.
                let old_virt = old.state.interpose.virtual_pid(old_pid);
                new_instance.state.interpose.map_pid(old_virt, child);
                used.insert(child.0);
                pairs.push((old_pid, child));
                report.processes_recreated += 1;
            }
            None => {
                return Err(Conflict::MissingCounterpart { object: format!("process {old_pid}") }.into());
            }
        }
    }
    ctx.pairs = pairs;
    Ok(())
}
