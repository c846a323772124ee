//! The state-transfer engine: remaps the traced object graph of one old
//! process into its counterpart process of the new version.
//!
//! For every traced object the engine determines a *placement* in the new
//! version (an existing startup-time object matched by symbol or allocation
//! site, a freshly allocated chunk, or the very same address for pinned
//! immutable objects), then copies and type-transforms the contents of dirty
//! objects, rewriting precise pointers through the old→new address map.
//! Conservatively-traced objects are copied verbatim at their original
//! address, which keeps their (unrewritable) likely pointers valid.
//!
//! Cross-version name resolution (type pairing, layout compatibility,
//! allocation-site matching, transform-handler keys) is hoisted out of the
//! per-object loops into a [`TransferContext`] built once per update: names
//! are interned into a [`SymbolTable`] and every old type id is bridged to
//! its new-version counterpart ahead of time, so the hot paths below work on
//! `u32` ids and `Arc<str>` refcount bumps instead of `String` clones. The
//! context is shared read-only across the worker threads of the
//! pair-parallel transfer phase; [`transfer_between`] itself only touches
//! the two processes of one matched pair, which is what makes the phase
//! safely parallel.
//!
//! # Hot paths: what is computed once
//!
//! Within one transfer pass (`run_transfer`) nothing that depends only on types is derived
//! per object. The structural [`FieldMap`] of a typed object depends on its
//! (old type, new type) pair alone, so one map is computed for each distinct
//! pair of the write set before the shard workers start and the table is
//! shared read-only; each element is transformed directly into its slice of
//! the object's output buffer. The old→new address map is a `Vec` appended
//! by pass 3 in the graph's (strictly increasing) address order and
//! binary-searched by pass 4 — it lives for one call, so there is nothing to
//! invalidate. New-version object sizes come from the type registry's
//! per-type memo. The bytes written, their order, the fault counter, the
//! conflicts and every charged duration are those of the per-object
//! derivation.
//!
//! # Pre-copy delta transfer
//!
//! The engine is *resumable*: a [`DeltaPlan`] records, per matched pair, the
//! placement of every old object in the new version (which startup chunk it
//! matched, which fresh allocation it received, whether it is pinned) plus
//! the dirty-epoch stamp of the contents last copied. The iterative pre-copy
//! phase calls [`precopy_transfer_round`] once per round while the old
//! version keeps serving: only objects whose dirty epoch exceeds their
//! copied-at stamp are (re-)copied, and placements are made at most once.
//! After quiescence [`transfer_residual`] runs the same passes a plain
//! stop-the-world [`transfer_between`] would run — it re-emits every write
//! and the full logical report, so reports, conflicts and resulting memory
//! are byte-identical to the no-pre-copy baseline — but it *charges* only
//! the residual set that was still stale when the world stopped, which is
//! what shrinks downtime from O(heap) to O(working set).
//!
//! # Post-copy fault-in transfer
//!
//! When the write rate outruns the copy rate the residual never converges
//! and pre-copy degenerates to stop-the-world. The complementary mode
//! commits *first* and moves the residual afterwards:
//! [`postcopy_commit`] runs the same passes as [`transfer_residual`] —
//! identical placements, conflicts and logical report — but instead of
//! applying the stale writes inside the stop-the-world window it snapshots
//! and transforms them (the sharded prepare pass runs as usual, against the
//! now-frozen old space) and parks them in a [`PostcopyResidual`]. The new
//! version resumes immediately with access traps armed over the parked
//! ranges ([`PostcopyResidual::arm`]); a store into a not-yet-transferred
//! page parks in the kernel's trap queue, [`fault_in_at`] services it by
//! applying every parked object on the touched pages (and only then do the
//! parked program stores replay), and [`drain_step`] retires the remainder
//! in deterministic address order between scheduler rounds. Because the
//! prepared bytes were computed at quiesce time and program stores replay
//! after fault-in, the final memory is byte-identical to a stop-the-world
//! transfer of the same graph.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcr_procsim::{Addr, AllocSite, Kernel, Pid, Process, SimDuration, TypeTag};
use mcr_typemeta::TypeId;

use crate::annotations::{pointer_mask, ObjTreatment};
use crate::error::{Conflict, McrError, McrResult};
use crate::intern::{Sym, SymbolTable};
use crate::program::InstanceState;
use crate::tracing::graph::ObjectOrigin;
use crate::tracing::tracer::TraceResult;
use crate::transfer::transform::{apply_field_map, compute_field_map, FieldMap};

/// How one old-version type relates to the new version, resolved once per
/// update instead of once per traced object.
#[derive(Debug, Clone)]
pub struct TypeBridge {
    /// The (shared) old type name.
    pub old_name: Arc<str>,
    /// The same-named type in the new version, if it exists.
    pub new_ty: Option<TypeId>,
    /// Whether old and new layouts are compatible (false when the type
    /// vanished from the new version).
    pub layout_compatible: bool,
    /// Whether the new version registered a semantic transform handler under
    /// the type name.
    pub has_type_transform: bool,
}

/// Read-only cross-version metadata shared by every process pair of one live
/// update: interned names plus the old→new type bridge.
#[derive(Debug, Default)]
pub struct TransferContext {
    syms: SymbolTable,
    /// New-version allocation-site id → interned site name.
    new_sites: BTreeMap<u64, Sym>,
    /// Old-version type id → bridge to the new version.
    types: BTreeMap<u64, TypeBridge>,
    /// Mid-phase fault injection: abort instead of performing the n-th
    /// object write (1-based, counted across every pair and every pre-copy
    /// round of the update).
    object_fault: Option<u64>,
    /// Object writes performed so far (shared across transfer workers).
    writes: AtomicU64,
    /// Worker threads used *inside* one pair's transfer: the snapshot +
    /// transform pass runs over contiguous address-range shards of the
    /// object list, and the charged cost becomes the deterministic
    /// list-schedule makespan over the per-shard costs. `0`/`1` = serial.
    intra_pair_shards: usize,
}

impl TransferContext {
    /// Builds the context for one update: interns every allocation-site and
    /// type name of both versions and pairs old types with new ones.
    pub fn new(old_state: &InstanceState, new_state: &InstanceState) -> Self {
        let mut syms = SymbolTable::new();
        let mut new_sites = BTreeMap::new();
        for (_, info) in old_state.sites.iter() {
            syms.intern(Arc::clone(&info.name));
        }
        for (site, info) in new_state.sites.iter() {
            new_sites.insert(site.0, syms.intern(Arc::clone(&info.name)));
        }
        let mut types = BTreeMap::new();
        for desc in old_state.types.iter() {
            syms.intern(Arc::clone(&desc.name));
            let new_ty = new_state.types.lookup(&desc.name);
            let layout_compatible = new_ty
                .map(|n| old_state.types.is_layout_compatible(desc.id, &new_state.types, n))
                .unwrap_or(false);
            let has_type_transform = new_state.annotations.transform(&desc.name).is_some();
            types.insert(
                desc.id.0,
                TypeBridge {
                    old_name: Arc::clone(&desc.name),
                    new_ty,
                    layout_compatible,
                    has_type_transform,
                },
            );
        }
        TransferContext {
            syms,
            new_sites,
            types,
            object_fault: None,
            writes: AtomicU64::new(0),
            intra_pair_shards: 1,
        }
    }

    /// Arms the mid-phase fault trigger: the update aborts right before the
    /// `nth` (1-based) object write it would otherwise perform — whether
    /// that write happens during a pre-copy round or in the stop-the-world
    /// window. `None` disarms the trigger.
    #[must_use]
    pub fn with_object_fault(mut self, nth: Option<u64>) -> Self {
        self.object_fault = nth;
        self
    }

    /// Sets the intra-pair shard count: the snapshot/transform pass of every
    /// transfer through this context runs on up to `shards` worker threads
    /// over contiguous address-range shards of the object list, and the
    /// charged (simulated) cost becomes the deterministic list-schedule
    /// makespan over the per-shard costs. Writes, conflicts, reports and the
    /// object-fault counter stay byte-identical to the serial run for every
    /// shard count. `0`/`1` selects the serial path.
    #[must_use]
    pub fn with_intra_pair_shards(mut self, shards: usize) -> Self {
        self.intra_pair_shards = shards.max(1);
        self
    }

    /// The configured intra-pair shard count (always >= 1).
    pub fn intra_pair_shards(&self) -> usize {
        self.intra_pair_shards.max(1)
    }

    /// Counts one object write; true when the armed fault must fire now.
    /// The counter runs whether or not a fault is armed, so a clean run's
    /// total doubles as the chaos engine's n-th-object-write site count
    /// (see [`writes_performed`](Self::writes_performed)).
    fn object_write_fires_fault(&self) -> bool {
        let nth = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        self.object_fault == Some(nth)
    }

    /// Total object writes counted through this context so far — across
    /// every pair, shard and pre-copy round. After a clean (fault-free)
    /// update this is the number of injectable n-th-object-write fault
    /// sites; the pipeline copies it into
    /// [`UpdateReport::object_writes`](crate::runtime::report::UpdateReport).
    pub fn writes_performed(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// The bridge for an old-version type id, if the type is registered.
    pub fn bridge(&self, old_ty: TypeId) -> Option<&TypeBridge> {
        self.types.get(&old_ty.0)
    }

    /// The interned id of an allocation-site name (old or new version).
    pub fn site_sym(&self, name: &str) -> Option<Sym> {
        self.syms.lookup(name)
    }

    /// The interned id behind a *new-version* allocation-site id.
    pub fn new_site_sym(&self, site: AllocSite) -> Option<Sym> {
        self.new_sites.get(&site.0).copied()
    }

    /// The interner itself (shared, read-only).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }
}

/// Where an old object lands in the new version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// An object the new version already created (matched static or
    /// startup-time heap object); contents are transferred only if dirty.
    Existing(Addr),
    /// A fresh allocation performed by the engine.
    Fresh(Addr),
    /// Pinned at the old address (immutable object).
    Pinned(Addr),
}

/// One pre-copy round's work, per process pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecopyRoundReport {
    /// Objects copied (or re-copied) this round.
    pub objects_copied: u64,
    /// Bytes written into the new version this round.
    pub bytes_copied: u64,
    /// Simulated cost of this round's copies (charged concurrently, while
    /// the old version keeps serving).
    pub cost: SimDuration,
}

/// Residual work left for the stop-the-world window after pre-copy: the
/// objects that were still stale (dirtied after their last copy, or never
/// copied) when the world stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidualStats {
    /// Stale objects the window had to copy.
    pub objects: u64,
    /// Stale bytes the window had to copy.
    pub bytes: u64,
    /// Simulated cost of the residual copies — the part of state transfer
    /// that counts toward downtime. Without pre-copy this equals the full
    /// per-pair transfer duration.
    pub cost: SimDuration,
}

/// The resumable per-pair state of an iterative pre-copy transfer.
///
/// The plan makes the engine idempotent across rounds: placements (matched
/// startup chunks, fresh allocations, pinned addresses) are decided at most
/// once per object and reused verbatim afterwards, and `copied_at` remembers
/// the dirty-epoch stamp of the contents last written, so a round copies
/// exactly the objects dirtied since their previous copy. A fresh plan run
/// straight through [`transfer_residual`] reproduces the classic
/// stop-the-world transfer bit for bit.
#[derive(Debug, Default)]
pub struct DeltaPlan {
    /// Epoch through which the pair's object graph has been retraced (the
    /// `since` argument of the next delta retrace).
    pub traced_upto: u64,
    /// Old base address → recorded placement.
    placed: BTreeMap<u64, Placement>,
    /// Old base address → dirty stamp of the contents last copied.
    copied_at: BTreeMap<u64, u64>,
    /// Unconsumed startup-time chunks of the new version, by interned
    /// allocation site (consumed exactly once across all rounds).
    site_index: Option<BTreeMap<Sym, VecDeque<Addr>>>,
}

impl DeltaPlan {
    /// A fresh plan (nothing placed, nothing copied).
    pub fn new() -> Self {
        DeltaPlan::default()
    }
}

/// One stale object whose contents were prepared at post-copy commit time
/// (snapshot + transform + pointer rewrite against the frozen old space) but
/// not yet applied to the new version.
#[derive(Debug)]
struct PendingObject {
    old_base: Addr,
    new_base: Addr,
    /// Clamped apply length (what the stop-the-world pass would have
    /// written).
    len: usize,
    /// Transformed contents, or `None` for the verbatim space-to-space copy
    /// fast path.
    bytes: Option<Vec<u8>>,
    applied: bool,
}

/// The parked residual of one pair's post-copy transfer: every stale object,
/// in deterministic address order, plus the page bookkeeping that decides
/// when a page's access trap can be disarmed.
#[derive(Debug, Default)]
pub struct PostcopyResidual {
    pending: Vec<PendingObject>,
    /// Drain cursor into `pending`.
    next: usize,
    /// Unapplied objects still alive.
    live: usize,
    /// New-space page base → number of unapplied objects touching the page;
    /// the trap is disarmed when the count reaches zero.
    page_refs: BTreeMap<u64, u32>,
    /// New-space page base → indices of the pending objects touching it.
    page_index: BTreeMap<u64, Vec<usize>>,
    /// Objects faulted in / drained so far (the chaos engine's
    /// n-th-fault-in site counter).
    faulted_in: u64,
}

fn pages_of(base: Addr, len: usize) -> impl Iterator<Item = u64> {
    let first = base.page_base().0;
    let last = Addr(base.0 + len.max(1) as u64 - 1).page_base().0;
    (first..=last).step_by(mcr_procsim::PAGE_SIZE as usize)
}

impl PostcopyResidual {
    fn build(pending: Vec<PendingObject>) -> Self {
        let mut page_refs: BTreeMap<u64, u32> = BTreeMap::new();
        let mut page_index: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (idx, p) in pending.iter().enumerate() {
            for page in pages_of(p.new_base, p.len) {
                *page_refs.entry(page).or_insert(0) += 1;
                page_index.entry(page).or_default().push(idx);
            }
        }
        let live = pending.len();
        PostcopyResidual { pending, next: 0, live, page_refs, page_index, faulted_in: 0 }
    }

    /// Arms access traps in the new process over every parked range. Called
    /// once, right before the new version resumes.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (a parked range must be mapped — it was
    /// placed by the commit pass).
    pub fn arm(&self, new_proc: &mut Process) -> McrResult<()> {
        for p in self.pending.iter().filter(|p| !p.applied) {
            new_proc.space_mut().protect_range(p.new_base, p.len.max(1) as u64).map_err(McrError::Sim)?;
        }
        Ok(())
    }

    /// Unapplied objects still parked.
    pub fn remaining(&self) -> u64 {
        self.live as u64
    }

    /// Bytes still parked.
    pub fn remaining_bytes(&self) -> u64 {
        self.pending.iter().filter(|p| !p.applied).map(|p| p.len as u64).sum()
    }

    /// True once every parked object has been applied.
    pub fn is_drained(&self) -> bool {
        self.live == 0
    }

    /// Objects faulted in / drained so far.
    pub fn faulted_in(&self) -> u64 {
        self.faulted_in
    }
}

/// Applies one parked object (if still unapplied), releasing the access
/// traps of every page whose parked set drained. Never double-applies.
fn apply_pending(
    plan: &TransferContext,
    residual: &mut PostcopyResidual,
    idx: usize,
    old_proc: &Process,
    new_proc: &mut Process,
    fault_at: Option<u64>,
    stats: &mut ResidualStats,
) -> McrResult<()> {
    if residual.pending[idx].applied {
        return Ok(());
    }
    if plan.object_write_fires_fault() {
        return Err(Conflict::FaultInjected { phase: "fault-in-object".into() }.into());
    }
    if fault_at == Some(residual.faulted_in + 1) {
        return Err(Conflict::FaultInjected { phase: "fault-in".into() }.into());
    }
    let bytes = residual.pending[idx].bytes.take();
    let (old_base, new_base, len) = {
        let p = &residual.pending[idx];
        (p.old_base, p.new_base, p.len)
    };
    match bytes {
        None => new_proc
            .space_mut()
            .copy_range(new_base, old_proc.space(), old_base, len)
            .map_err(McrError::Sim)?,
        Some(b) => new_proc.space_mut().write_bytes_through(new_base, &b[..len]).map_err(McrError::Sim)?,
    }
    residual.pending[idx].applied = true;
    residual.live -= 1;
    residual.faulted_in += 1;
    stats.objects += 1;
    stats.bytes += len as u64;
    stats.cost = stats.cost.saturating_add(SimDuration(2_000 + 2 * len as u64));
    for page in pages_of(new_base, len) {
        if let Some(refs) = residual.page_refs.get_mut(&page) {
            *refs -= 1;
            if *refs == 0 {
                new_proc
                    .space_mut()
                    .unprotect_range(Addr(page), mcr_procsim::PAGE_SIZE)
                    .map_err(McrError::Sim)?;
            }
        }
    }
    Ok(())
}

/// Services an access trap: applies every parked object on the pages covered
/// by `[addr, addr+len)` so the trapped store can replay on transferred
/// content. A page with no parked objects left is a no-op — a second trap on
/// the same range never double-applies. The returned stats are the
/// trap-service latency the caller charges as downtime.
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures and the armed
/// fault triggers ([`TransferContext::with_object_fault`] or `fault_at`, the
/// 1-based n-th fault-in counter shared with [`drain_step`]).
pub fn fault_in_at(
    plan: &TransferContext,
    residual: &mut PostcopyResidual,
    old_proc: &Process,
    new_proc: &mut Process,
    addr: Addr,
    len: usize,
    fault_at: Option<u64>,
) -> McrResult<ResidualStats> {
    let mut stats = ResidualStats::default();
    for page in pages_of(addr, len) {
        let Some(idxs) = residual.page_index.get(&page).cloned() else { continue };
        for idx in idxs {
            apply_pending(plan, residual, idx, old_proc, new_proc, fault_at, &mut stats)?;
        }
    }
    Ok(stats)
}

/// One background drainer step: applies up to `batch` parked objects in
/// deterministic address order (skipping anything a trap already serviced).
/// The returned cost is charged concurrently — the new version is serving.
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures and the armed
/// fault triggers (see [`fault_in_at`]).
pub fn drain_step(
    plan: &TransferContext,
    residual: &mut PostcopyResidual,
    old_proc: &Process,
    new_proc: &mut Process,
    batch: usize,
    fault_at: Option<u64>,
) -> McrResult<ResidualStats> {
    let mut stats = ResidualStats::default();
    let mut applied = 0usize;
    while applied < batch.max(1) && residual.next < residual.pending.len() {
        let idx = residual.next;
        if residual.pending[idx].applied {
            residual.next += 1;
            continue;
        }
        apply_pending(plan, residual, idx, old_proc, new_proc, fault_at, &mut stats)?;
        residual.next += 1;
        applied += 1;
    }
    Ok(stats)
}

/// Whether a core run copies only the stale delta (a concurrent pre-copy
/// round) or re-emits everything for the stop-the-world window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyMode {
    /// Concurrent round: copy stale objects only; conflicts are *not*
    /// recorded (the final pass re-detects and reports them), failed
    /// placements are simply left for the window.
    Round,
    /// Stop-the-world: write every transferable object (byte-identical
    /// memory and reports to a no-pre-copy run) but charge only the residual.
    Final,
    /// Post-copy commit: identical placements, conflicts and logical report
    /// to `Final`, but the stale writes are prepared and *parked* in a
    /// [`PostcopyResidual`] instead of applied — the new version resumes and
    /// the drainer/fault handler lands them afterwards.
    Deferred,
}

/// Per-process state-transfer report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessTransferReport {
    /// Objects whose contents were written into the new version.
    pub objects_transferred: u64,
    /// Bytes written into the new version.
    pub bytes_transferred: u64,
    /// Objects skipped because they were clean (reinitialized by the new
    /// version's own startup code).
    pub objects_skipped_clean: u64,
    /// Objects pinned at their old address.
    pub objects_pinned: u64,
    /// Fresh allocations performed in the new version.
    pub objects_allocated: u64,
    /// Conflicts encountered (non-empty means the update must roll back).
    pub conflicts: Vec<Conflict>,
    /// Simulated time spent transferring this process.
    pub duration: SimDuration,
}

/// Aggregate over all processes of one live update.
///
/// Equality compares only the deterministic transfer work (`per_process`,
/// `serial_duration`, `parallel_duration`) — the `workers` and
/// `host_wall_ns` observability fields vary run to run by design, so a
/// serial and a parallel execution of the same update compare equal.
#[derive(Debug, Clone, Default)]
pub struct TransferSummary {
    /// Per-process reports in pair order (deterministic regardless of how
    /// many transfer workers ran).
    pub per_process: Vec<ProcessTransferReport>,
    /// Sum of per-process durations (sequential execution).
    pub serial_duration: SimDuration,
    /// Maximum per-process duration (the lower bound with one worker per
    /// pair — MCR's parallel multi-process transfer).
    pub parallel_duration: SimDuration,
    /// Worker threads the trace/transfer phase actually used (0 before the
    /// phase runs).
    pub workers: usize,
    /// Host wall-clock nanoseconds of the scoped-thread trace/transfer run.
    /// Observability only — nondeterministic, excluded from determinism
    /// comparisons.
    pub host_wall_ns: u64,
}

impl PartialEq for TransferSummary {
    fn eq(&self, other: &Self) -> bool {
        self.per_process == other.per_process
            && self.serial_duration == other.serial_duration
            && self.parallel_duration == other.parallel_duration
    }
}

impl Eq for TransferSummary {}

impl TransferSummary {
    /// Adds a process report to the aggregate.
    pub fn push(&mut self, report: ProcessTransferReport) {
        self.serial_duration = self.serial_duration.saturating_add(report.duration);
        if report.duration > self.parallel_duration {
            self.parallel_duration = report.duration;
        }
        self.per_process.push(report);
    }

    /// Total objects transferred across processes.
    pub fn objects_transferred(&self) -> u64 {
        self.per_process.iter().map(|r| r.objects_transferred).sum()
    }

    /// Total bytes transferred across processes.
    pub fn bytes_transferred(&self) -> u64 {
        self.per_process.iter().map(|r| r.bytes_transferred).sum()
    }

    /// All conflicts across processes, without copying them.
    pub fn conflicts(&self) -> impl Iterator<Item = &Conflict> {
        self.per_process.iter().flat_map(|r| r.conflicts.iter())
    }
}

/// What one core run produced (the relevant part depends on the mode).
struct TransferOutcome {
    report: ProcessTransferReport,
    residual: ResidualStats,
    round: PrecopyRoundReport,
    pending: PostcopyResidual,
}

/// The deterministic makespan of the shared-work-queue execution model: each
/// job cost, in submission order, goes to the least-loaded worker (lowest
/// index on ties). One worker yields the serial sum; one worker per job
/// yields the per-job maximum. Both the cross-pair trace/transfer phase and
/// the intra-pair shard accounting charge this schedule, so the simulated
/// clock is independent of host scheduling.
pub fn list_schedule_makespan(costs: &[SimDuration], workers: usize) -> SimDuration {
    let mut load = vec![0u64; workers.max(1)];
    for cost in costs {
        let min = load.iter().enumerate().min_by_key(|(_, l)| **l).map(|(i, _)| i).unwrap_or(0);
        load[min] += cost.0;
    }
    SimDuration(load.into_iter().max().unwrap_or(0))
}

/// Splits `costs` (one estimated cost per object, in address order) into up
/// to `shards` contiguous ranges of roughly equal cumulative cost. Returns
/// the shard id per object; deterministic, so the shard assignment — and
/// with it the charged makespan — never depends on host scheduling.
pub(crate) fn partition_contiguous(costs: &[u64], shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let total: u64 = costs.iter().sum();
    let mut out = Vec::with_capacity(costs.len());
    let mut cum = 0u64;
    for &cost in costs {
        // The shard whose cumulative-cost window the item's midpoint lands
        // in; monotone in `cum`, so the ranges are contiguous.
        let mid = cum + cost / 2;
        let shard =
            if total == 0 { 0 } else { (((mid as u128) * shards as u128) / total.max(1) as u128) as usize };
        out.push(shard.min(shards - 1));
        cum += cost;
    }
    out
}

/// How one object's contents reach the new version, decided by the parallel
/// prepare pass and consumed by the serial apply pass.
enum Prepared {
    /// The old bytes could not be read — the object is skipped, exactly like
    /// the historical snapshot pass skipped it.
    Skip,
    /// Verbatim copy (untyped or non-updatable object, no transform): the
    /// apply pass uses the [`AddressSpace::copy_range`] fast path straight
    /// from the old space, with no intermediate buffer at all.
    Direct,
    /// Transformed contents (semantic handler or structural field map with
    /// pointer rewriting), computed on the shard worker.
    Bytes(Vec<u8>),
}

impl Prepared {
    /// Whether the verbatim fast path applies: nothing rewrites the bytes,
    /// so they can be copied space-to-space without materializing.
    fn is_verbatim(
        transform_key: &Option<Arc<str>>,
        raw_copy: bool,
        old_ty: Option<TypeId>,
        new_ty: Option<TypeId>,
    ) -> bool {
        transform_key.is_none() && (raw_copy || old_ty.is_none() || new_ty.is_none())
    }
}

/// Transfers the traced state of `old_pid` into `new_pid`.
///
/// Convenience wrapper over [`transfer_between`] for callers that hold the
/// whole kernel: it builds a one-off [`TransferContext`], split-borrows the
/// pair out of the kernel, and charges the simulated transfer cost to the
/// kernel clock.
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures; *conflicts* are
/// reported in the returned [`ProcessTransferReport`] rather than as errors,
/// so the controller can roll back cleanly.
pub fn transfer_process(
    kernel: &mut Kernel,
    old_state: &InstanceState,
    old_pid: Pid,
    new_state: &InstanceState,
    new_pid: Pid,
    trace: &TraceResult,
) -> McrResult<ProcessTransferReport> {
    let plan = TransferContext::new(old_state, new_state);
    let report = {
        let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).map_err(McrError::Sim)?;
        let (old_proc, new_proc) = split.pop().expect("one pair requested");
        transfer_between(&plan, old_proc, old_state, new_proc, new_state, trace)?
    };
    kernel.advance_clock(report.duration);
    Ok(report)
}

/// Transfers the traced state of one matched pair, given direct borrows of
/// the two processes.
///
/// This is the per-pair work unit of the parallel trace/transfer phase: it
/// reads the old process, writes the new one, and consults only shared
/// read-only state (`plan`, the two instance states), so disjoint pairs can
/// run concurrently. It does **not** advance the kernel clock; the caller
/// charges the returned [`ProcessTransferReport::duration`] deterministically
/// after every pair has finished.
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures; conflicts land
/// in the report.
pub fn transfer_between(
    plan: &TransferContext,
    old_proc: &Process,
    old_state: &InstanceState,
    new_proc: &mut Process,
    new_state: &InstanceState,
    trace: &TraceResult,
) -> McrResult<ProcessTransferReport> {
    let mut delta = DeltaPlan::new();
    let (report, _residual) =
        transfer_residual(plan, &mut delta, old_proc, old_state, new_proc, new_state, trace)?;
    Ok(report)
}

/// One concurrent pre-copy round over a matched pair: places and copies only
/// the objects that are stale with respect to `delta` (never copied, or
/// dirtied since their last copy). Conflicts are not reported here — the
/// stop-the-world pass re-detects them so a pre-copied update aborts with
/// exactly the conflicts a stop-the-world update would report.
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures and the armed
/// [`TransferContext::with_object_fault`] fault.
pub fn precopy_transfer_round(
    plan: &TransferContext,
    delta: &mut DeltaPlan,
    old_proc: &Process,
    old_state: &InstanceState,
    new_proc: &mut Process,
    new_state: &InstanceState,
    trace: &TraceResult,
) -> McrResult<PrecopyRoundReport> {
    let outcome =
        run_transfer(plan, delta, CopyMode::Round, old_proc, old_state, new_proc, new_state, trace)?;
    Ok(outcome.round)
}

/// The stop-the-world pass of a pre-copied transfer: runs the full transfer
/// over the final (quiescent) object graph, reusing every placement `delta`
/// recorded, and re-emits every write — so the resulting memory, the
/// [`ProcessTransferReport`] and its conflicts are byte-identical to a plain
/// [`transfer_between`] of the same graph. The returned [`ResidualStats`]
/// cover only the objects that were still stale when the world stopped;
/// their cost is what the caller charges as downtime.
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures; conflicts land
/// in the report.
pub fn transfer_residual(
    plan: &TransferContext,
    delta: &mut DeltaPlan,
    old_proc: &Process,
    old_state: &InstanceState,
    new_proc: &mut Process,
    new_state: &InstanceState,
    trace: &TraceResult,
) -> McrResult<(ProcessTransferReport, ResidualStats)> {
    let outcome =
        run_transfer(plan, delta, CopyMode::Final, old_proc, old_state, new_proc, new_state, trace)?;
    Ok((outcome.report, outcome.residual))
}

/// The commit pass of a post-copy transfer: runs the same passes over the
/// final (quiescent) object graph as [`transfer_residual`] — identical
/// placements, conflicts and logical [`ProcessTransferReport`] — but parks
/// the stale writes in the returned [`PostcopyResidual`] instead of applying
/// them, so the new version can resume immediately. The [`ResidualStats`]
/// describe the parked set; its cost is retired later by [`drain_step`] /
/// [`fault_in_at`] while the new version serves.
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures; conflicts land
/// in the report (and, non-empty, mean the caller must roll back *before*
/// resuming the new version).
pub fn postcopy_commit(
    plan: &TransferContext,
    delta: &mut DeltaPlan,
    old_proc: &Process,
    old_state: &InstanceState,
    new_proc: &mut Process,
    new_state: &InstanceState,
    trace: &TraceResult,
) -> McrResult<(ProcessTransferReport, ResidualStats, PostcopyResidual)> {
    let outcome =
        run_transfer(plan, delta, CopyMode::Deferred, old_proc, old_state, new_proc, new_state, trace)?;
    Ok((outcome.report, outcome.residual, outcome.pending))
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_transfer(
    plan: &TransferContext,
    delta: &mut DeltaPlan,
    mode: CopyMode,
    old_proc: &Process,
    old_state: &InstanceState,
    new_proc: &mut Process,
    new_state: &InstanceState,
    trace: &TraceResult,
) -> McrResult<TransferOutcome> {
    let mut report = ProcessTransferReport::default();
    let mut residual = ResidualStats::default();
    let mut round = PrecopyRoundReport::default();
    let mut pending: Vec<PendingObject> = Vec::new();
    // The deferred (post-copy commit) pass behaves like the stop-the-world
    // pass everywhere except pass 5, where stale writes park instead of
    // landing.
    let final_mode = mode != CopyMode::Round;
    let deferred = mode == CopyMode::Deferred;
    let graph = &trace.graph;

    // ------------------------------------------------------------------
    // Pass 1 (read-only, once per plan): index the new version's
    // startup-time heap chunks by interned allocation-site id so old startup
    // objects can be matched. The index lives in the delta plan so the
    // queues are consumed exactly once across all pre-copy rounds.
    // ------------------------------------------------------------------
    if delta.site_index.is_none() {
        let mut site_index: BTreeMap<Sym, VecDeque<Addr>> = BTreeMap::new();
        if let Some(heap) = new_proc.heap() {
            for chunk in heap.live_chunks(new_proc.space()) {
                if !chunk.startup {
                    continue;
                }
                if let Some(sym) = plan.new_site_sym(chunk.site) {
                    site_index.entry(sym).or_default().push_back(chunk.payload);
                }
            }
        }
        delta.site_index = Some(site_index);
    }

    // ------------------------------------------------------------------
    // Pass 2: placement decisions and conflict detection. Placements are
    // looked up in the delta plan first — an object placed by an earlier
    // round keeps its slot, so pre-copied contents stay valid and pointer
    // rewriting is stable across rounds.
    // ------------------------------------------------------------------
    struct Planned {
        old_base: Addr,
        placement: Placement,
        write_contents: bool,
        stale: bool,
        old_ty: Option<TypeId>,
        new_ty: Option<TypeId>,
        transform_key: Option<Arc<str>>,
        mask_bits: u32,
        raw_copy: bool,
        size: u64,
        dirty_epoch: u64,
    }
    let mut planned: Vec<Planned> = Vec::new();
    // Regions that must exist in the new process to host pinned objects.
    let mut needed_regions: Vec<(Addr, u64, String)> = Vec::new();
    {
        let DeltaPlan { placed, copied_at, site_index, .. } = &mut *delta;
        let site_index = site_index.as_mut().expect("built above");
        for obj in graph.iter() {
            // Library state is not transferred by default.
            if matches!(obj.origin, ObjectOrigin::Lib { .. }) {
                continue;
            }
            // Symbol-level annotations can exclude objects entirely.
            let symbol = match &obj.origin {
                ObjectOrigin::Static { symbol } => Some(Arc::clone(symbol)),
                _ => None,
            };
            if let Some(sym) = &symbol {
                if matches!(old_state.annotations.obj_treatment(sym), Some(ObjTreatment::SkipTransfer)) {
                    continue;
                }
                if sym.starts_with("static@") {
                    // Anonymous static data (string constants): never
                    // transferred, only pinned by virtue of being static.
                    continue;
                }
            }

            // Resolve old/new types through the precomputed bridge.
            let old_ty = obj.type_id;
            let bridge = old_ty.and_then(|t| plan.bridge(t));
            let new_ty = bridge.and_then(|b| b.new_ty);
            let type_changed = old_ty.is_some() && !bridge.map(|b| b.layout_compatible).unwrap_or(false);
            if type_changed && obj.non_updatable && obj.is_dirty() {
                if final_mode {
                    report.conflicts.push(Conflict::NonUpdatableObjectChanged {
                        object: obj.origin.describe(),
                        old_type: bridge
                            .map(|b| b.old_name.to_string())
                            .unwrap_or_else(|| "<untyped>".into()),
                        new_type: new_ty
                            .and_then(|t| new_state.types.get(t))
                            .map(|d| d.name.to_string())
                            .unwrap_or_else(|| "<missing>".into()),
                    });
                }
                continue;
            }

            let site_name = match &obj.origin {
                ObjectOrigin::Heap { site } | ObjectOrigin::Pool { site } => site.clone(),
                _ => None,
            };
            let mask_bits = symbol
                .as_ref()
                .and_then(|s| old_state.annotations.obj_treatment(s))
                .and_then(|t| match t {
                    ObjTreatment::EncodedPointers { mask_bits } => Some(*mask_bits),
                    _ => None,
                })
                .unwrap_or(0);
            let transform_key = symbol
                .as_ref()
                .filter(|s| new_state.annotations.transform(s).is_some())
                .map(Arc::clone)
                .or_else(|| bridge.filter(|b| b.has_type_transform).map(|b| Arc::clone(&b.old_name)));

            let placement = match placed.get(&obj.addr.0) {
                Some(recorded) => *recorded,
                None => {
                    let decided = match &obj.origin {
                        ObjectOrigin::Static { symbol } => match new_state.statics.lookup(symbol) {
                            Some(new_obj) => Placement::Existing(new_obj.addr),
                            None => {
                                if final_mode && obj.is_dirty() {
                                    report
                                        .conflicts
                                        .push(Conflict::MissingCounterpart { object: obj.origin.describe() });
                                }
                                continue;
                            }
                        },
                        ObjectOrigin::Mmap => Placement::Pinned(obj.addr),
                        ObjectOrigin::Heap { .. } | ObjectOrigin::Pool { .. } => {
                            if obj.immutable {
                                Placement::Pinned(obj.addr)
                            } else if obj.startup {
                                match site_name
                                    .as_ref()
                                    .and_then(|n| plan.site_sym(n))
                                    .and_then(|sym| site_index.get_mut(&sym))
                                    .and_then(|q| q.pop_front())
                                {
                                    Some(addr) => Placement::Existing(addr),
                                    None => Placement::Fresh(Addr::NULL),
                                }
                            } else {
                                Placement::Fresh(Addr::NULL)
                            }
                        }
                        ObjectOrigin::Lib { .. } => continue,
                    };
                    // Fresh placements are recorded after allocation below;
                    // resolved slots are recorded right away.
                    if !matches!(decided, Placement::Fresh(_)) {
                        placed.insert(obj.addr.0, decided);
                    }
                    decided
                }
            };

            if let Placement::Pinned(addr) = placement {
                if !new_proc.space().is_valid_range(addr, obj.size.max(1) as usize) {
                    if let Some(region) = old_proc.space().region_containing(addr) {
                        needed_regions.push((
                            region.base(),
                            region.size(),
                            format!("inherited:{}", region.name()),
                        ));
                    }
                }
            }

            let write_contents = obj.is_dirty() || obj.immutable || matches!(placement, Placement::Fresh(_));
            if final_mode && !write_contents {
                report.objects_skipped_clean += 1;
            }
            let raw_copy = obj.non_updatable || old_ty.is_none();
            let stale = match copied_at.get(&obj.addr.0) {
                None => true,
                // Dirty tracking disabled: everything is always stale.
                Some(_) if obj.dirty_epoch == u64::MAX => true,
                Some(&copied) => obj.dirty_epoch > copied,
            };
            planned.push(Planned {
                old_base: obj.addr,
                placement,
                write_contents,
                stale,
                old_ty,
                new_ty,
                transform_key,
                mask_bits,
                raw_copy,
                size: obj.size,
                dirty_epoch: obj.dirty_epoch,
            });
        }
    }

    // ------------------------------------------------------------------
    // Pass 3 (mutating the new process): map inherited regions for pinned
    // objects and perform fresh allocations; build the address map.
    // ------------------------------------------------------------------
    let mut addr_map: Vec<(u64, u64)> = Vec::with_capacity(planned.len());
    {
        let mut mapped: BTreeSet<u64> = BTreeSet::new();
        for (base, size, name) in needed_regions {
            if mapped.contains(&base.0) || new_proc.space().is_mapped(base) {
                continue;
            }
            let kind = mcr_procsim::RegionKind::Heap;
            if let Err(e) = new_proc.space_mut().map_region(base, size, kind, name) {
                if final_mode {
                    report.conflicts.push(Conflict::ImmutablePlacementFailed {
                        object: format!("region {base}"),
                        detail: e.to_string(),
                    });
                }
            }
            mapped.insert(base.0);
        }
    }
    for p in &mut planned {
        let new_base = match p.placement {
            Placement::Existing(addr) => addr,
            Placement::Pinned(addr) => {
                if final_mode {
                    report.objects_pinned += 1;
                }
                addr
            }
            Placement::Fresh(addr) if !addr.is_null() => {
                // Allocated by an earlier pre-copy round.
                if final_mode {
                    report.objects_allocated += 1;
                }
                addr
            }
            Placement::Fresh(_) => {
                // Allocate in the new version's heap with the new type tag.
                let size = p.new_ty.map(|t| new_state.types.size_of(t)).filter(|s| *s > 0).unwrap_or(p.size);
                let tag = p.new_ty.map(|t| TypeTag(t.0)).unwrap_or(TypeTag(0));
                let site = AllocSite(0);
                let (space, heap) = new_proc.space_and_heap_mut().map_err(McrError::Sim)?;
                match heap.malloc(space, size.max(1), site, tag) {
                    Ok(addr) => {
                        if final_mode {
                            report.objects_allocated += 1;
                        }
                        p.placement = Placement::Fresh(addr);
                        delta.placed.insert(p.old_base.0, Placement::Fresh(addr));
                        addr
                    }
                    Err(e) => {
                        if final_mode {
                            report.conflicts.push(Conflict::ImmutablePlacementFailed {
                                object: format!("heap object at {}", p.old_base),
                                detail: e.to_string(),
                            });
                        }
                        continue;
                    }
                }
            }
        };
        debug_assert!(
            addr_map.last().is_none_or(|&(last, _)| last < p.old_base.0),
            "the graph iterates in address order, so the map is appended sorted"
        );
        addr_map.push((p.old_base.0, new_base.0));
    }

    // ------------------------------------------------------------------
    // Pass 4 (read-only, shard-parallel): snapshot and transform the bytes
    // of every object whose contents must be written in this mode —
    // everything transferable for the stop-the-world pass, only the stale
    // delta for a concurrent pre-copy round. The object list (already in
    // address order) is split into contiguous address-range shards of
    // roughly equal cost; each shard worker reuses one scratch buffer
    // (`AddressSpace::read_into`) instead of allocating a `Vec` per object,
    // and verbatim objects skip the snapshot entirely (the apply pass
    // copies them space-to-space).
    // ------------------------------------------------------------------
    let writes: Vec<(usize, Addr)> = planned
        .iter()
        .enumerate()
        .filter(|(_, p)| p.write_contents && (final_mode || p.stale))
        .filter_map(|(i, p)| new_base_of(&addr_map, p.old_base.0).map(|nb| (i, Addr(nb))))
        .collect();
    // The type pair of an object that takes the structural field-map path.
    let typed_pair = |p: &Planned| match (&p.transform_key, p.raw_copy, p.old_ty, p.new_ty) {
        (None, false, Some(old_ty), Some(new_ty)) => Some((old_ty, new_ty)),
        _ => None,
    };
    // A field map depends only on its type pair: derive one per distinct
    // pair of the write set, before the shard workers start, and share the
    // table read-only.
    let mut field_maps: BTreeMap<(TypeId, TypeId), FieldMap> = BTreeMap::new();
    for (old_ty, new_ty) in writes.iter().filter_map(|&(i, _)| typed_pair(&planned[i])) {
        field_maps
            .entry((old_ty, new_ty))
            .or_insert_with(|| compute_field_map(&old_state.types, old_ty, &new_state.types, new_ty));
    }
    let shards = plan.intra_pair_shards();
    let est_costs: Vec<u64> = writes.iter().map(|&(i, _)| 2_000 + 2 * planned[i].size.max(1)).collect();
    let shard_of = partition_contiguous(&est_costs, shards);
    let prepare = |p: &Planned, scratch: &mut Vec<u8>| -> Prepared {
        if Prepared::is_verbatim(&p.transform_key, p.raw_copy, p.old_ty, p.new_ty) {
            // Reproduce the historical skip: unreadable old bytes drop the
            // object from the write set without touching any counter.
            if old_proc.space().is_valid_range(p.old_base, p.size.max(1) as usize) {
                return Prepared::Direct;
            }
            return Prepared::Skip;
        }
        let len = p.size.max(1) as usize;
        if scratch.len() < len {
            scratch.resize(len, 0);
        }
        if old_proc.space().read_into(p.old_base, &mut scratch[..len]).is_err() {
            return Prepared::Skip;
        }
        let old_bytes = &scratch[..len];
        if let Some(key) = &p.transform_key {
            let handler = new_state.annotations.transform(key).expect("transform key resolved earlier");
            return Prepared::Bytes(handler(old_bytes));
        }
        let map = &field_maps[&typed_pair(p).expect("neither verbatim nor handled by a transform")];
        // Objects larger than one element (arrays of the element type) are
        // transformed element-wise, each into its slice of the output.
        let old_stride = map.old_size.max(1) as usize;
        let new_stride = map.new_size.max(1) as usize;
        let count = (old_bytes.len() / old_stride).max(1);
        let mut out = vec![0u8; new_stride * count];
        for (k, elem) in out.chunks_exact_mut(new_stride).enumerate() {
            let old_elem = &old_bytes[k * old_stride..((k + 1) * old_stride).min(old_bytes.len())];
            apply_field_map(map, old_elem, elem);
            rewrite_pointers(elem, &map.pointers, old_elem, trace, &addr_map, p.mask_bits);
        }
        Prepared::Bytes(out)
    };
    let mut prepared: Vec<Prepared> = Vec::with_capacity(writes.len());
    if shards <= 1 || writes.len() < 2 * shards {
        let mut scratch = Vec::new();
        prepared.extend(writes.iter().map(|&(i, _)| prepare(&planned[i], &mut scratch)));
    } else {
        prepared.resize_with(writes.len(), || Prepared::Skip);
        // Hand each shard its contiguous slice of the result vector; the
        // shard ranges are contiguous by construction.
        let mut slices: Vec<(&mut [Prepared], usize)> = Vec::new();
        let mut rest: &mut [Prepared] = &mut prepared;
        let mut start = 0usize;
        for shard in 0..shards {
            let len = shard_of.iter().filter(|&&s| s == shard).count();
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            slices.push((head, start));
            rest = tail;
            start += len;
        }
        std::thread::scope(|scope| {
            let prepare = &prepare;
            let writes = &writes;
            let planned = &planned;
            for (slice, offset) in slices {
                scope.spawn(move || {
                    let mut scratch = Vec::new();
                    for (k, slot) in slice.iter_mut().enumerate() {
                        let (pidx, _) = writes[offset + k];
                        *slot = prepare(&planned[pidx], &mut scratch);
                    }
                });
            }
        });
    }

    // ------------------------------------------------------------------
    // Pass 5 (serial, deterministic): apply the prepared contents in
    // address order — fault counting, conflict detection, `copied_at`
    // stamping and the report are byte-identical to the serial engine for
    // every shard count. The per-shard charge of each applied write feeds
    // the list-schedule makespan below.
    // ------------------------------------------------------------------
    let mut shard_residual = vec![SimDuration(0); shards];
    let mut shard_round = vec![SimDuration(0); shards];
    for (k, (&(pidx, new_base), outcome)) in writes.iter().zip(prepared.iter()).enumerate() {
        let p = &planned[pidx];
        if matches!(outcome, Prepared::Skip) {
            continue;
        }
        if deferred && p.stale {
            // Post-copy commit: park the stale write — count it exactly as
            // the stop-the-world pass would (the logical report stays
            // byte-identical), but do not land the bytes and do not tick the
            // fault counter: both happen when the drainer/fault handler
            // applies the object.
            let writable = new_proc
                .space()
                .region_containing(new_base)
                .map(|r| (r.end().0 - new_base.0) as usize)
                .unwrap_or(0);
            if writable == 0 {
                report.conflicts.push(Conflict::ImmutablePlacementFailed {
                    object: format!("object at {}", p.old_base),
                    detail: format!("target address {new_base} not mapped in the new version"),
                });
                continue;
            }
            let (len, bytes) = match outcome {
                Prepared::Skip => unreachable!("skipped above"),
                Prepared::Direct => ((p.size.max(1) as usize).min(writable), None),
                Prepared::Bytes(out) => {
                    let len = out.len().min(writable);
                    (len, Some(out[..len].to_vec()))
                }
            };
            report.objects_transferred += 1;
            report.bytes_transferred += len as u64;
            residual.objects += 1;
            residual.bytes += len as u64;
            // No cost lands in `shard_residual`: the apply cost is charged
            // when the object is faulted in or drained, after the new
            // version has resumed — moving that work off the downtime
            // window is the point of post-copy.
            pending.push(PendingObject { old_base: p.old_base, new_base, len, bytes, applied: false });
            continue;
        }
        if plan.object_write_fires_fault() {
            return Err(Conflict::FaultInjected { phase: "transfer-object".into() }.into());
        }
        let writable = new_proc
            .space()
            .region_containing(new_base)
            .map(|r| (r.end().0 - new_base.0) as usize)
            .unwrap_or(0);
        if writable == 0 {
            if final_mode {
                report.conflicts.push(Conflict::ImmutablePlacementFailed {
                    object: format!("object at {}", p.old_base),
                    detail: format!("target address {new_base} not mapped in the new version"),
                });
            }
            continue;
        }
        let len = match outcome {
            Prepared::Skip => unreachable!("skipped above"),
            Prepared::Direct => {
                let len = (p.size.max(1) as usize).min(writable);
                new_proc
                    .space_mut()
                    .copy_range(new_base, old_proc.space(), p.old_base, len)
                    .map_err(McrError::Sim)?;
                len
            }
            Prepared::Bytes(out_bytes) => {
                let len = out_bytes.len().min(writable);
                new_proc.space_mut().write_bytes(new_base, &out_bytes[..len]).map_err(McrError::Sim)?;
                len
            }
        };
        delta.copied_at.insert(p.old_base.0, p.dirty_epoch);
        let cost = SimDuration(2_000 + 2 * len as u64);
        if final_mode {
            report.objects_transferred += 1;
            report.bytes_transferred += len as u64;
            if p.stale {
                residual.objects += 1;
                residual.bytes += len as u64;
                shard_residual[shard_of[k]] = shard_residual[shard_of[k]].saturating_add(cost);
            }
        } else {
            round.objects_copied += 1;
            round.bytes_copied += len as u64;
            shard_round[shard_of[k]] = shard_round[shard_of[k]].saturating_add(cost);
        }
    }

    // Account the simulated cost of the transfer: per-object bookkeeping
    // plus a per-byte copy cost. The caller charges the residual cost to the
    // kernel clock inside the stop-the-world window and the round cost while
    // the old version is still serving; `report.duration` stays the logical
    // full-transfer cost so reports are identical with and without pre-copy
    // and across shard counts. The *charged* cost is the deterministic
    // list-schedule makespan over the per-shard costs — with one shard the
    // serial sum (exactly the historical formula), with `n` shards the
    // parallel schedule the shard workers executed.
    report.duration = SimDuration(report.objects_transferred * 2_000 + report.bytes_transferred * 2);
    residual.cost = list_schedule_makespan(&shard_residual, shards);
    round.cost = list_schedule_makespan(&shard_round, shards);
    Ok(TransferOutcome { report, residual, round, pending: PostcopyResidual::build(pending) })
}

/// The new base an old base address was placed at. `addr_map` is pass 3's
/// old→new table, appended in strictly increasing old-base order.
fn new_base_of(addr_map: &[(u64, u64)], old_base: u64) -> Option<u64> {
    addr_map.binary_search_by_key(&old_base, |&(old, _)| old).ok().map(|i| addr_map[i].1)
}

/// Rewrites the pointer slots of a transformed element: each old pointer
/// value is translated through the address map (preserving interior offsets
/// and encoded low bits).
fn rewrite_pointers(
    out: &mut [u8],
    pointer_pairs: &[(u64, u64)],
    old_elem: &[u8],
    trace: &TraceResult,
    addr_map: &[(u64, u64)],
    mask_bits: u32,
) {
    let mask = pointer_mask(mask_bits);
    for &(old_off, new_off) in pointer_pairs {
        let old_off = old_off as usize;
        let new_off = new_off as usize;
        if old_off + 8 > old_elem.len() || new_off + 8 > out.len() {
            continue;
        }
        let raw = u64::from_le_bytes(old_elem[old_off..old_off + 8].try_into().expect("8 bytes"));
        if raw == 0 {
            continue;
        }
        let bits = raw & mask;
        let target = raw & !mask;
        let new_raw = match trace.graph.object_containing(Addr(target)) {
            Some(obj) => match new_base_of(addr_map, obj.addr.0) {
                Some(new_base) => {
                    let delta = target - obj.addr.0;
                    (new_base + delta) | bits
                }
                // Target not transferred (e.g. library state pinned at the
                // same address): keep the old value.
                None => raw,
            },
            None => raw,
        };
        out[new_off..new_off + 8].copy_from_slice(&new_raw.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpose::Interposer;
    use crate::program::{InstanceState, ProgramEnv, ThreadRosterEntry};
    use crate::tracing::tracer::{trace_process, TraceOptions, Tracer};
    use mcr_procsim::MemoryLayout;
    use mcr_typemeta::{Field, InstrumentationConfig};

    fn make_instance(kernel: &mut Kernel, name: &str, slide: u64) -> (InstanceState, Pid) {
        make_instance_in(kernel, name, MemoryLayout::with_slide(slide))
    }

    fn make_instance_in(kernel: &mut Kernel, name: &str, layout: MemoryLayout) -> (InstanceState, Pid) {
        let pid = kernel.create_process(name).unwrap();
        kernel.process_mut(pid).unwrap().setup_memory(layout, true).unwrap();
        let mut state =
            InstanceState::new(name, "1.0", InstrumentationConfig::full(), Interposer::recorder());
        let tid = kernel.process(pid).unwrap().main_tid();
        state.processes.push(pid);
        state.threads.push(ThreadRosterEntry {
            pid,
            tid,
            name: "main".into(),
            created_during_startup: true,
            exited: false,
        });
        (state, pid)
    }

    fn register_v1_types(state: &mut InstanceState) {
        let int = state.types.int("int", 4);
        let conf =
            state.types.struct_type("conf_s", vec![Field::new("workers", int), Field::new("port", int)]);
        let _ = state.types.pointer("conf_s*", conf);
        let fwd = state.types.opaque("l_t_fwd", 16);
        let node_ptr = state.types.pointer("l_t*", fwd);
        let _ = state.types.struct_type("l_t", vec![Field::new("value", int), Field::new("next", node_ptr)]);
    }

    fn register_v2_types(state: &mut InstanceState) {
        let int = state.types.int("int", 4);
        let conf =
            state.types.struct_type("conf_s", vec![Field::new("workers", int), Field::new("port", int)]);
        let _ = state.types.pointer("conf_s*", conf);
        let fwd = state.types.opaque("l_t_fwd", 24);
        let node_ptr = state.types.pointer("l_t*", fwd);
        // Figure 2: the update adds a `new` field to l_t.
        let _ = state.types.struct_type(
            "l_t",
            vec![Field::new("value", int), Field::new("new", int), Field::new("next", node_ptr)],
        );
    }

    /// Builds an old version with a 2-node dirty linked list plus a clean
    /// config, and a new version whose startup re-created the config and the
    /// list head; then transfers and checks the Figure 2 outcome.
    #[test]
    fn figure2_list_is_relocated_and_type_transformed() {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        let (list_global, node_a, node_b, conf_global, conf_obj);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            conf_global = env.define_global("conf", "conf_s*").unwrap();
            conf_obj = env.alloc("conf_s", "server_init:conf").unwrap();
            env.write_u32(conf_obj, 4).unwrap();
            env.write_u32(conf_obj.offset(4), 80).unwrap();
            env.write_ptr(conf_global, conf_obj).unwrap();
            list_global = env.define_global("list", "l_t").unwrap();
            // Startup list value.
            env.write_u32(list_global, 10).unwrap();
            // Page-sized padding so post-startup heap allocations do not
            // share a page with the startup-time config (dirtiness is
            // tracked at page granularity).
            let _pad = env.alloc_bytes(2 * mcr_procsim::PAGE_SIZE, "pad").unwrap();
        }
        // Startup complete.
        {
            let p = kernel.process_mut(old_pid).unwrap();
            p.heap_mut().unwrap().end_startup();
            p.space_mut().clear_soft_dirty();
        }
        // Post-startup: two heap nodes appended to the list.
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            node_a = env.alloc("l_t", "handle_event:node").unwrap();
            node_b = env.alloc("l_t", "handle_event:node").unwrap();
            env.write_u32(node_a, 20).unwrap();
            env.write_ptr(node_a.offset(8), node_b).unwrap();
            env.write_u32(node_b, 30).unwrap();
            env.write_ptr(list_global.offset(8), node_a).unwrap();
        }

        // New version: different layout slide, re-created config and list
        // head via its own startup (simulated directly here).
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types(&mut new_state);
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        let (new_conf_global, new_list_global);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
            new_conf_global = env.define_global("conf", "conf_s*").unwrap();
            let new_conf = env.alloc("conf_s", "server_init:conf").unwrap();
            env.write_u32(new_conf, 8).unwrap();
            env.write_ptr(new_conf_global, new_conf).unwrap();
            new_list_global = env.define_global("list", "l_t").unwrap();
        }
        {
            let p = kernel.process_mut(new_pid).unwrap();
            p.heap_mut().unwrap().end_startup();
            p.space_mut().clear_soft_dirty();
        }

        // Trace the old version and transfer.
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
        let report = transfer_process(&mut kernel, &old_state, old_pid, &new_state, new_pid, &trace).unwrap();
        assert!(report.conflicts.is_empty(), "unexpected conflicts: {:?}", report.conflicts);
        assert!(report.objects_transferred >= 3, "list head and both nodes move");
        assert!(report.objects_allocated >= 2, "post-startup nodes get fresh chunks");
        assert!(report.objects_skipped_clean >= 1, "clean config is not transferred");

        // Follow the transferred list in the new version and check the
        // Figure 2 shape: value preserved, `new` field zeroed, next pointers
        // relocated, layout is the v2 layout (value at 0, new at 4, next 8).
        let new_space = kernel.process(new_pid).unwrap().space();
        assert_eq!(new_space.read_u32(new_list_global).unwrap(), 10);
        let new_node_a = Addr(new_space.read_u64(new_list_global.offset(8)).unwrap());
        assert_ne!(new_node_a, node_a, "node relocated into the new heap");
        assert_eq!(new_space.read_u32(new_node_a).unwrap(), 20);
        assert_eq!(new_space.read_u32(new_node_a.offset(4)).unwrap(), 0, "new field zero");
        let new_node_b = Addr(new_space.read_u64(new_node_a.offset(8)).unwrap());
        assert_ne!(new_node_b, node_b);
        assert_eq!(new_space.read_u32(new_node_b).unwrap(), 30);
        assert_eq!(new_space.read_u64(new_node_b.offset(8)).unwrap(), 0);

        // The clean config kept whatever the new version initialized.
        let new_conf_ptr = Addr(new_space.read_u64(new_conf_global).unwrap());
        assert_eq!(new_space.read_u32(new_conf_ptr).unwrap(), 8, "conf reinitialized, not overwritten");
    }

    /// A dirty buffer containing a hidden pointer forces its target to be
    /// pinned at the same address in the new version.
    #[test]
    fn conservative_targets_are_pinned_at_the_same_address() {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        let (b_global, hidden);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            b_global = env.define_global_opaque("b", 16).unwrap();
            hidden = env.alloc_bytes(64, "mystery").unwrap();
            env.write_u64(hidden, 0x1122_3344).unwrap();
            env.write_ptr(b_global, hidden).unwrap();
        }
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types(&mut new_state);
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
            env.define_global_opaque("b", 16).unwrap();
        }

        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
        let report = transfer_process(&mut kernel, &old_state, old_pid, &new_state, new_pid, &trace).unwrap();
        assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);
        assert!(report.objects_pinned >= 1);
        // The hidden object is available at its *old* address in the new
        // process, so the verbatim-copied pointer in `b` stays valid.
        let new_space = kernel.process(new_pid).unwrap().space();
        let new_b = new_state.statics.lookup("b").unwrap().addr;
        assert_eq!(Addr(new_space.read_u64(new_b).unwrap()), hidden);
        assert_eq!(new_space.read_u64(hidden).unwrap(), 0x1122_3344);
    }

    /// Changing the type of an object that mutable tracing marked
    /// non-updatable must produce a conflict.
    #[test]
    fn type_change_on_non_updatable_object_conflicts() {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        // The old buffer type is a char array that hides a pointer.
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            let c8 = env.types().lookup("int").unwrap();
            let _ = c8;
            let b = env.define_global_opaque("hidden_buf", 8).unwrap();
            let target = env.alloc("conf_s", "init:target").unwrap();
            env.write_ptr(b, target).unwrap();
        }
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types(&mut new_state);
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
            // The new version declares the buffer with a *different* size —
            // a type change on an opaque object.
            env.define_global_opaque("hidden_buf", 32).unwrap();
        }
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
        let report = transfer_process(&mut kernel, &old_state, old_pid, &new_state, new_pid, &trace).unwrap();
        assert!(report.conflicts.iter().any(|c| matches!(c, Conflict::NonUpdatableObjectChanged { .. })));
    }

    /// A user transform handler overrides the structural transformation.
    #[test]
    fn semantic_transform_handler_is_applied() {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        let conf_global;
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            conf_global = env.define_global("conf_inline", "conf_s").unwrap();
            env.write_u32(conf_global, 4).unwrap();
            env.write_u32(conf_global.offset(4), 80).unwrap();
        }
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types(&mut new_state);
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
            env.define_global("conf_inline", "conf_s").unwrap();
            // Semantic change: the new version stores workers doubled.
            env.add_transform(
                "conf_s",
                Box::new(|old| {
                    let mut out = old.to_vec();
                    let workers = u32::from_le_bytes(old[0..4].try_into().unwrap());
                    out[0..4].copy_from_slice(&(workers * 2).to_le_bytes());
                    out
                }),
                21,
            );
        }
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
        let report = transfer_process(&mut kernel, &old_state, old_pid, &new_state, new_pid, &trace).unwrap();
        assert!(report.conflicts.is_empty());
        let new_addr = new_state.statics.lookup("conf_inline").unwrap().addr;
        let space = kernel.process(new_pid).unwrap().space();
        assert_eq!(space.read_u32(new_addr).unwrap(), 8, "transform doubled the worker count");
        assert_eq!(space.read_u32(new_addr.offset(4)).unwrap(), 80);
        assert_eq!(new_state.annotations.state_transfer_loc(), 21);
    }

    /// The resumable delta plan: a pre-copy round copies everything once,
    /// the stop-the-world pass then only pays for what was dirtied in
    /// between, and the logical report stays the full-transfer report.
    #[test]
    fn precopy_round_shrinks_the_residual_to_the_working_set() {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        let (list_global, node_a, node_b);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            list_global = env.define_global("list", "l_t").unwrap();
            let _pad = env.alloc_bytes(2 * mcr_procsim::PAGE_SIZE, "pad").unwrap();
            node_a = env.alloc("l_t", "handle_event:node").unwrap();
            node_b = env.alloc("l_t", "handle_event:node").unwrap();
            env.write_u32(node_a, 20).unwrap();
            env.write_ptr(node_a.offset(8), node_b).unwrap();
            env.write_u32(node_b, 30).unwrap();
            env.write_ptr(list_global.offset(8), node_a).unwrap();
        }
        {
            let p = kernel.process_mut(old_pid).unwrap();
            p.heap_mut().unwrap().end_startup();
        }
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types(&mut new_state);
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
            env.define_global("list", "l_t").unwrap();
        }
        {
            let p = kernel.process_mut(new_pid).unwrap();
            p.heap_mut().unwrap().end_startup();
            p.space_mut().clear_soft_dirty();
        }

        let plan = TransferContext::new(&old_state, &new_state);
        let mut delta = DeltaPlan::new();

        // Round 1: everything is stale, everything gets copied.
        let mut trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
        let since = kernel.advance_write_epoch(old_pid).unwrap();
        let round = {
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            precopy_transfer_round(&plan, &mut delta, old_proc, &old_state, new_proc, &new_state, &trace)
                .unwrap()
        };
        assert!(round.objects_copied >= 3, "round 1 copies the whole graph");
        delta.traced_upto = since;

        // The old version keeps running: it touches one node.
        kernel.process_mut(old_pid).unwrap().space_mut().write_u32(node_a, 21).unwrap();

        // Stop the world: retrace the delta, transfer the residual.
        let (report, residual) = {
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            let tracer = Tracer::for_process(old_proc, &old_state, TraceOptions::default());
            trace.stats = trace.graph.retrace_dirty(&tracer, delta.traced_upto);
            transfer_residual(&plan, &mut delta, old_proc, &old_state, new_proc, &new_state, &trace).unwrap()
        };
        assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);
        assert_eq!(report.objects_transferred, round.objects_copied, "logical report covers everything");
        // Dirtiness is page-granular: the touched node plus its page
        // neighbour are stale, the page-padded list head is not.
        assert!(residual.objects >= 1 && residual.objects < report.objects_transferred);
        assert!(residual.cost < report.duration, "downtime cost shrank to the working set");

        // The transferred list in the new version reflects the final value.
        let new_space = kernel.process(new_pid).unwrap().space();
        let new_list = new_state.statics.lookup("list").unwrap().addr;
        let new_node_a = Addr(new_space.read_u64(new_list.offset(8)).unwrap());
        assert_eq!(new_space.read_u32(new_node_a).unwrap(), 21, "residual re-copy carried the last write");
    }

    /// The armed object fault fires instead of the n-th write, during a
    /// pre-copy round as well as during a stop-the-world transfer.
    #[test]
    fn object_fault_fires_at_the_nth_write() {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            let list = env.define_global("list", "l_t").unwrap();
            let node = env.alloc("l_t", "handle_event:node").unwrap();
            env.write_u32(node, 1).unwrap();
            env.write_ptr(list.offset(8), node).unwrap();
        }
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types(&mut new_state);
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
            env.define_global("list", "l_t").unwrap();
        }
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
        let plan = TransferContext::new(&old_state, &new_state).with_object_fault(Some(1));
        let mut delta = DeltaPlan::new();
        let err = {
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            precopy_transfer_round(&plan, &mut delta, old_proc, &old_state, new_proc, &new_state, &trace)
                .unwrap_err()
        };
        let conflicts = match err {
            McrError::Conflicts(cs) => cs,
            other => panic!("unexpected error {other}"),
        };
        assert!(conflicts.iter().any(|c| matches!(c, Conflict::FaultInjected { .. })));
    }

    fn placed_at(placement: Placement) -> Addr {
        match placement {
            Placement::Existing(addr) | Placement::Fresh(addr) | Placement::Pinned(addr) => addr,
        }
    }

    /// v2 of the Listing 1 types with *two* changed structs: `conf_s` is
    /// reordered and grows, `l_t` gains a field in the middle and one at the
    /// end.
    fn register_v2_types_two_changed(state: &mut InstanceState) {
        let int = state.types.int("int", 4);
        let long = state.types.int("long", 8);
        let conf = state.types.struct_type(
            "conf_s",
            vec![Field::new("port", int), Field::new("workers", int), Field::new("limit", long)],
        );
        let _ = state.types.pointer("conf_s*", conf);
        let fwd = state.types.opaque("l_t_fwd", 24);
        let node_ptr = state.types.pointer("l_t*", fwd);
        let _ = state.types.struct_type(
            "l_t",
            vec![
                Field::new("value", int),
                Field::new("new", int),
                Field::new("next", node_ptr),
                Field::new("gen", long),
            ],
        );
    }

    /// Allocates `count` contiguous `l_t` elements in one startup chunk
    /// tagged with the element type — the shape pass 4 transforms
    /// element-wise.
    fn alloc_node_array(kernel: &mut Kernel, state: &mut InstanceState, pid: Pid, count: u64) -> Addr {
        let ty = state.types.lookup("l_t").unwrap();
        let site = state.sites.register("init:nodes", Some(ty));
        let size = count * state.types.size_of(ty);
        let (space, heap) = kernel.process_mut(pid).unwrap().space_and_heap_mut().unwrap();
        heap.malloc(space, size, site, TypeTag(ty.0)).unwrap()
    }

    /// The transfer of one object the way pass 4 computed it before field
    /// maps were hoisted: a `map` computed for this object alone, one buffer
    /// per element, pointers translated through the plan's placement map.
    fn reference_bytes(
        map: &FieldMap,
        old_bytes: &[u8],
        trace: &TraceResult,
        delta: &DeltaPlan,
        mask: u64,
    ) -> Vec<u8> {
        let stride = map.old_size.max(1) as usize;
        let mut out = Vec::new();
        for k in 0..(old_bytes.len() / stride).max(1) {
            let old_elem = &old_bytes[k * stride..((k + 1) * stride).min(old_bytes.len())];
            let mut elem = vec![0u8; map.new_size.max(1) as usize];
            apply_field_map(map, old_elem, &mut elem);
            for &(old_off, new_off) in &map.pointers {
                let (old_off, new_off) = (old_off as usize, new_off as usize);
                let raw = u64::from_le_bytes(old_elem[old_off..old_off + 8].try_into().unwrap());
                let target = raw & !mask;
                let moved =
                    trace.graph.object_containing(Addr(target)).filter(|_| raw != 0).and_then(|t| {
                        delta.placed.get(&t.addr.0).map(|p| placed_at(*p).0 + (target - t.addr.0))
                    });
                if let Some(new_target) = moved {
                    elem[new_off..new_off + 8].copy_from_slice(&(new_target | (raw & mask)).to_le_bytes());
                }
            }
            out.extend_from_slice(&elem);
        }
        out
    }

    /// Two changed type pairs (`conf_s`, `l_t`), a chunk holding an array of
    /// `l_t` (the element-wise path), interior pointers and an
    /// `EncodedPointers` root: every typed object lands byte-identical to the
    /// per-object `compute_field_map` reference, and serial and four-shard
    /// prepare passes write the same bytes and report.
    #[test]
    fn hoisted_field_maps_write_what_per_object_maps_wrote() {
        let run = |shards: usize| {
            let mut kernel = Kernel::new();
            let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
            register_v1_types(&mut old_state);
            let old_tid = kernel.process(old_pid).unwrap().main_tid();
            let arr = alloc_node_array(&mut kernel, &mut old_state, old_pid, 3);
            let mut nodes = Vec::new();
            let conf = {
                let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
                let conf_global = env.define_global("conf", "conf_s*").unwrap();
                let conf_obj = env.alloc("conf_s", "init:conf").unwrap();
                env.write_u32(conf_obj, 4).unwrap();
                env.write_u32(conf_obj.offset(4), 8080).unwrap();
                env.write_ptr(conf_global, conf_obj).unwrap();
                conf_obj
            };
            kernel.process_mut(old_pid).unwrap().heap_mut().unwrap().end_startup();
            {
                let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
                let list = env.define_global("list", "l_t").unwrap();
                let tagged = env.define_global("tagged", "l_t*").unwrap();
                let table = env.define_global("table", "l_t*").unwrap();
                env.add_obj_handler("tagged", ObjTreatment::EncodedPointers { mask_bits: 2 }, 1);
                let mut prev_slot = list.offset(8);
                for i in 0..8u32 {
                    let node = env.alloc("l_t", "handle_event:node").unwrap();
                    env.write_u32(node, 100 + i).unwrap();
                    env.write_ptr(prev_slot, node).unwrap();
                    prev_slot = node.offset(8);
                    nodes.push(node);
                }
                // The last node points into the middle of the array; the
                // array's elements point back at nodes and at themselves.
                env.write_ptr(prev_slot, arr.offset(16)).unwrap();
                for (k, next) in [nodes[3], arr.offset(32), Addr::NULL].into_iter().enumerate() {
                    env.write_u32(arr.offset(16 * k as u64), 900 + k as u32).unwrap();
                    env.write_ptr(arr.offset(16 * k as u64 + 8), next).unwrap();
                }
                env.write_ptr(table, arr).unwrap();
                env.write_u64(tagged, nodes[5].0 | 0b10).unwrap();
            }

            let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
            register_v2_types_two_changed(&mut new_state);
            let new_tid = kernel.process(new_pid).unwrap().main_tid();
            alloc_node_array(&mut kernel, &mut new_state, new_pid, 3);
            {
                let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
                let conf_global = env.define_global("conf", "conf_s*").unwrap();
                let conf_obj = env.alloc("conf_s", "init:conf").unwrap();
                env.write_ptr(conf_global, conf_obj).unwrap();
                for (symbol, ty) in [("list", "l_t"), ("tagged", "l_t*"), ("table", "l_t*")] {
                    env.define_global(symbol, ty).unwrap();
                }
            }
            kernel.process_mut(new_pid).unwrap().heap_mut().unwrap().end_startup();

            let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
            let plan = TransferContext::new(&old_state, &new_state).with_intra_pair_shards(shards);
            let mut delta = DeltaPlan::new();
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            let (report, _) =
                transfer_residual(&plan, &mut delta, old_proc, &old_state, new_proc, &new_state, &trace)
                    .unwrap();
            assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);

            let mut landed = Vec::new();
            let mut pairs = BTreeSet::new();
            for obj in trace.graph.iter() {
                let Some(new_ty) = obj.type_id.and_then(|t| plan.bridge(t)).and_then(|b| b.new_ty) else {
                    continue;
                };
                assert!(!obj.non_updatable, "every typed object of the scenario takes the field-map path");
                let new_base = placed_at(delta.placed[&obj.addr.0]);
                let old_bytes = old_proc.space().read_bytes(obj.addr, obj.size as usize).unwrap();
                let tagged = matches!(&obj.origin, ObjectOrigin::Static { symbol } if &**symbol == "tagged");
                let mask = if tagged { 0b11 } else { 0 };
                let map = compute_field_map(&old_state.types, obj.type_id.unwrap(), &new_state.types, new_ty);
                let expected = reference_bytes(&map, &old_bytes, &trace, &delta, mask);
                let got = new_proc.space().read_bytes(new_base, expected.len()).unwrap();
                assert_eq!(got, expected, "{} at {} ({shards} shards)", obj.origin.describe(), obj.addr);
                pairs.insert((obj.type_id, new_ty));
                landed.push((obj.addr, new_base, got));
            }
            assert!(pairs.len() >= 4, "conf_s, l_t and both pointer types transfer: {pairs:?}");
            assert!(landed.len() >= 2 * shards, "enough writes for the sharded prepare pass to engage");

            // Spot checks through the new version's memory, so the reference
            // itself is anchored: the chain survived, the array was
            // transformed element by element (24-byte stride, interior
            // pointer kept at its old-layout delta), the tag bits survived.
            let space = new_proc.space();
            let global = |symbol: &str| new_state.statics.lookup(symbol).unwrap().addr;
            let mut node = Addr(space.read_u64(global("list").offset(8)).unwrap());
            for i in 0..8u32 {
                assert_eq!(space.read_u32(node).unwrap(), 100 + i);
                assert_eq!(space.read_u64(node.offset(16)).unwrap(), 0, "`gen` is new and zero");
                node = Addr(space.read_u64(node.offset(8)).unwrap());
            }
            let new_arr = Addr(space.read_u64(global("table")).unwrap());
            assert_eq!(node, new_arr.offset(16), "interior pointer: new base plus the old delta");
            for k in 0..3u64 {
                assert_eq!(space.read_u32(new_arr.offset(24 * k)).unwrap(), 900 + k as u32);
            }
            assert_eq!(space.read_u64(new_arr.offset(8)).unwrap(), placed_at(delta.placed[&nodes[3].0]).0);
            assert_eq!(space.read_u64(new_arr.offset(24 + 8)).unwrap(), new_arr.0 + 32);
            assert_eq!(
                space.read_u64(global("tagged")).unwrap(),
                placed_at(delta.placed[&nodes[5].0]).0 | 0b10
            );
            let new_conf = Addr(space.read_u64(global("conf")).unwrap());
            assert_eq!(new_conf, placed_at(delta.placed[&conf.0]), "startup conf matched by site");
            assert_eq!(
                (space.read_u32(new_conf).unwrap(), space.read_u32(new_conf.offset(4)).unwrap()),
                (8080, 4)
            );
            (report, landed)
        };
        assert_eq!(run(1), run(4), "shard count changed the written bytes or the report");
    }

    /// The binary-searched address map is valid only if pass 3 sees the
    /// plan in strictly increasing old-base order — which the `debug_assert`
    /// there checks on every push. This drives it in all three copy modes
    /// over a heap too small for one object in the middle of the address
    /// order: its failed `malloc` is skipped, the objects behind it are still
    /// appended in order, pointers to them are translated, and the pointer
    /// to the skipped object keeps its old value.
    #[test]
    fn address_map_stays_sorted_in_every_mode_and_past_a_failed_malloc() {
        for mode in [CopyMode::Round, CopyMode::Final, CopyMode::Deferred] {
            let mut kernel = Kernel::new();
            let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
            register_v1_types(&mut old_state);
            let legacy = old_state.types.opaque("legacy_s", 3960);
            let _ = old_state.types.pointer("legacy_s*", legacy);
            let old_tid = kernel.process(old_pid).unwrap().main_tid();
            kernel.process_mut(old_pid).unwrap().heap_mut().unwrap().end_startup();
            let mut nodes = Vec::new();
            let big = {
                let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
                let list = env.define_global("list", "l_t").unwrap();
                let legacy_ref = env.define_global("legacy_ref", "legacy_s*").unwrap();
                let mut prev_slot = list.offset(8);
                let mut blob = Addr::NULL;
                for i in 0..6u32 {
                    if i == 3 {
                        // Between the third and fourth node in address order.
                        blob = env.alloc("legacy_s", "handle_event:legacy").unwrap();
                        env.write_ptr(legacy_ref, blob).unwrap();
                    }
                    let node = env.alloc("l_t", "handle_event:node").unwrap();
                    env.write_u32(node, 10 + i).unwrap();
                    env.write_ptr(prev_slot, node).unwrap();
                    prev_slot = node.offset(8);
                    nodes.push(node);
                }
                blob
            };
            assert!(nodes[2] < big && big < nodes[3]);

            // The new heap is one page: six 48-byte node chunks fit, the
            // 3960-byte blob (whose type the new version dropped) does not.
            let small =
                MemoryLayout { heap_size: mcr_procsim::PAGE_SIZE, ..MemoryLayout::with_slide(0x1_0000_0000) };
            let (mut new_state, new_pid) = make_instance_in(&mut kernel, "v2", small);
            register_v2_types(&mut new_state);
            let fwd = new_state.types.opaque("legacy_fwd", 8);
            let _ = new_state.types.pointer("legacy_s*", fwd);
            let new_tid = kernel.process(new_pid).unwrap().main_tid();
            {
                let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
                env.define_global("list", "l_t").unwrap();
                env.define_global("legacy_ref", "legacy_s*").unwrap();
            }
            kernel.process_mut(new_pid).unwrap().heap_mut().unwrap().end_startup();

            let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions::default()).unwrap();
            let plan = TransferContext::new(&old_state, &new_state);
            let mut delta = DeltaPlan::new();
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            let mut outcome =
                run_transfer(&plan, &mut delta, mode, old_proc, &old_state, new_proc, &new_state, &trace)
                    .unwrap();
            let refused = outcome
                .report
                .conflicts
                .iter()
                .filter(|c| matches!(c, Conflict::ImmutablePlacementFailed { .. }))
                .count();
            assert_eq!(
                refused,
                usize::from(mode != CopyMode::Round),
                "{mode:?}: {:?}",
                outcome.report.conflicts
            );
            assert!(!delta.placed.contains_key(&big.0), "{mode:?}: the blob was never placed");
            if mode == CopyMode::Deferred {
                // Land the parked writes the way the drainer would.
                while !outcome.pending.is_drained() {
                    drain_step(&plan, &mut outcome.pending, old_proc, new_proc, 4, None).unwrap();
                }
            }

            let space = new_proc.space();
            let global = |symbol: &str| new_state.statics.lookup(symbol).unwrap().addr;
            let mut node = Addr(space.read_u64(global("list").offset(8)).unwrap());
            for (i, old_node) in nodes.iter().enumerate() {
                assert_eq!(node, placed_at(delta.placed[&old_node.0]), "{mode:?}: node {i} translated");
                assert_eq!(space.read_u32(node).unwrap(), 10 + i as u32, "{mode:?}");
                node = Addr(space.read_u64(node.offset(8)).unwrap());
            }
            assert!(node.is_null());
            assert_eq!(space.read_u64(global("legacy_ref")).unwrap(), big.0, "{mode:?}: untranslated");
        }
    }

    #[test]
    fn summary_aggregates_serial_and_parallel_durations() {
        let mut summary = TransferSummary::default();
        summary.push(ProcessTransferReport {
            duration: SimDuration(300),
            objects_transferred: 2,
            ..Default::default()
        });
        summary.push(ProcessTransferReport {
            duration: SimDuration(500),
            bytes_transferred: 64,
            ..Default::default()
        });
        assert_eq!(summary.serial_duration, SimDuration(800));
        assert_eq!(summary.parallel_duration, SimDuration(500));
        assert_eq!(summary.objects_transferred(), 2);
        assert_eq!(summary.bytes_transferred(), 64);
        assert_eq!(summary.conflicts().count(), 0);
    }
}
