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
//! per-object loops into a `TransferContext` built once per update: names
//! are interned into a `SymbolTable` and every old type id is bridged to
//! its new-version counterpart ahead of time, so the hot paths below work on
//! `u32` ids and `Arc<str>` refcount bumps instead of `String` clones. The
//! context is shared by every pair of the update; a pair's transfer
//! itself only touches the two processes of that pair, so a pair's
//! cost is independent of the others — which is what lets the pipeline
//! charge the pairs as a schedule over
//! [modelled workers](list_schedule_makespan).
//!
//! # Hot paths: what is computed once
//!
//! Within one transfer pass (`run_transfer`) nothing that depends only on types is derived
//! per object. The structural [`FieldMap`] of a typed object depends on its
//! (old type, new type) pair alone, so one map is computed for each distinct
//! pair of the write set before the first object is written; each element is
//! transformed directly into its slice of the object's output buffer. The
//! old→new address map is the plan's table of placements, one record per
//! placed object in the graph's (strictly increasing) address order,
//! binary-searched by pass 4 — a pointer to an object's base is translated
//! by that one search, only an interior pointer asks the graph which object
//! holds it. New-version object sizes come from the type registry's per-type memo. The bytes written,
//! their order, the fault counter, the conflicts and every charged duration
//! are those of the per-object derivation.
//!
//! Every mode writes an object one way: pass 4 builds one `Write` per
//! object (its target, its length cut at the target region, and its
//! transformed bytes, or none for a verbatim space-to-space copy) and
//! `Write::land` puts it into the new version — inside the window, during a
//! pre-copy round, or on a post-copy trap or drain step. Every mode counts
//! the stale objects it writes one way too, in one [`ResidualStats`].
//!
//! # Pre-copy delta transfer
//!
//! The engine is *resumable*: a `DeltaPlan` records, per matched pair, the
//! placement of every old object in the new version (which startup chunk it
//! matched, which fresh allocation it received, whether it is pinned) plus
//! the dirty-epoch stamp and length of the contents last copied — one record
//! per object, in one address-ordered table walked in step with the graph.
//! The iterative pre-copy phase runs a `CopyMode::Round` pass once per
//! round while the old version keeps serving: only objects whose dirty epoch
//! exceeds their copied-at stamp are (re-)copied; an object keeps its
//! placement while it stays, and a pass frees the fresh chunk of one that
//! left or outgrew it. After quiescence a `CopyMode::Final` pass runs the
//! same passes a plain stop-the-world transfer would run and produces the
//! full logical report — but it *writes* an object only if its new-heap bytes
//! would change (it is stale, or its pointer translation can differ from its
//! last copy's; `CopyMode` states the rule and why it is exact), and it
//! *charges* only the residual set that was still stale when the world
//! stopped. Reports, conflicts and resulting memory are those of re-emitting
//! every write; the window, in simulated and in host time, costs the working
//! set instead of the heap.
//!
//! # Post-copy fault-in transfer
//!
//! When the write rate outruns the copy rate the residual never converges
//! and pre-copy degenerates to stop-the-world. The complementary mode
//! commits *first* and moves the residual afterwards: a `CopyMode::Deferred`
//! pass runs the same passes as the stop-the-world one — identical
//! placements, conflicts, logical report and residual count — but parks its
//! stale `Write`s, prepared against the now-frozen old space, in a
//! `PostcopyResidual` instead of landing them. The new version resumes
//! immediately with access traps armed over the parked ranges
//! (`PostcopyResidual::arm`); a load or store that touches a
//! not-yet-transferred page is serviced by `fault_in_at`, which lands every
//! parked write on the touched pages before the access lands (a store from
//! outside a program thread parks in the kernel's trap queue and replays
//! after the fault-in), and `drain_step` lands the remainder in
//! deterministic address order between scheduler rounds — both with the
//! same `Write::land` the window uses. Because the prepared bytes were
//! computed at quiesce time and program accesses happen after fault-in, the
//! final memory is byte-identical to a stop-the-world transfer of the same
//! graph.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use mcr_procsim::{Addr, AllocSite, Process, SimDuration, TypeTag};
use mcr_typemeta::TypeId;

use crate::annotations::{pointer_mask, ObjTreatment};
use crate::error::{Conflict, McrError, McrResult};
use crate::intern::{Sym, SymbolTable};
use crate::program::InstanceState;
use crate::tracing::graph::{ObjectOrigin, TracedObject};
use crate::tracing::tracer::TraceResult;
use crate::transfer::transform::{apply_field_map, compute_field_map, FieldMap};

/// Simulated bookkeeping cost of one object write, in nanoseconds.
const OBJECT_WRITE_NS: u64 = 2_000;
/// Simulated copy cost of one written byte, in nanoseconds.
const BYTE_WRITE_NS: u64 = 2;

/// The simulated cost of writing `objects` objects of `bytes` bytes in all:
/// every transfer charge — an applied write, a parked one when it is applied,
/// the estimate that places a write in its shard, a report's logical total —
/// is this.
fn write_cost(objects: u64, bytes: u64) -> SimDuration {
    SimDuration(objects * OBJECT_WRITE_NS + bytes * BYTE_WRITE_NS)
}

/// How one old-version type relates to the new version, resolved once per
/// update instead of once per traced object.
#[derive(Debug, Clone)]
pub(crate) struct TypeBridge {
    /// The (shared) old type name.
    pub(crate) old_name: Arc<str>,
    /// The same-named type in the new version, if it exists.
    pub(crate) new_ty: Option<TypeId>,
    /// Whether old and new layouts are compatible (false when the type
    /// vanished from the new version).
    pub(crate) layout_compatible: bool,
    /// Whether the new version registered a semantic transform handler under
    /// the type name.
    pub(crate) has_type_transform: bool,
    /// Size of the type in the old version (`TypeRegistry::size_of`).
    pub(crate) old_size: u64,
    /// Size of `new_ty` in the new version; 0 when the type vanished.
    pub(crate) new_size: u64,
}

/// Read-only cross-version metadata shared by every process pair of one live
/// update: interned names plus the old→new type bridge.
#[derive(Debug, Default)]
pub(crate) struct TransferContext {
    syms: SymbolTable,
    /// New-version allocation-site id → interned site name.
    new_sites: BTreeMap<u64, Sym>,
    /// Bridge to the new version, indexed by old-version type id (`None`
    /// for an id the old version never registered).
    types: Vec<Option<TypeBridge>>,
    /// Mid-phase fault injection: abort instead of performing the n-th
    /// object write (1-based, counted across every pair and every pre-copy
    /// round of the update).
    object_fault: Option<u64>,
    /// Object writes performed so far.
    writes: Cell<u64>,
    /// Modelled workers *inside* one pair's transfer: each write is charged
    /// to one of this many contiguous address-range shards of the object
    /// list, and the charged cost is the deterministic list-schedule
    /// makespan over the per-shard costs. `0`/`1` = the serial sum.
    intra_pair_shards: usize,
}

impl TransferContext {
    /// Builds the context for one update: interns every allocation-site and
    /// type name of both versions and pairs old types with new ones.
    pub(crate) fn new(old_state: &InstanceState, new_state: &InstanceState) -> Self {
        let mut syms = SymbolTable::new();
        let mut new_sites = BTreeMap::new();
        for (_, info) in old_state.sites.iter() {
            syms.intern(Arc::clone(&info.name));
        }
        for (site, info) in new_state.sites.iter() {
            new_sites.insert(site.0, syms.intern(Arc::clone(&info.name)));
        }
        let mut types: Vec<Option<TypeBridge>> = Vec::new();
        for desc in old_state.types.iter() {
            syms.intern(Arc::clone(&desc.name));
            let new_ty = new_state.types.lookup(&desc.name);
            let layout_compatible = new_ty
                .map(|n| old_state.types.is_layout_compatible(desc.id, &new_state.types, n))
                .unwrap_or(false);
            let has_type_transform = new_state.annotations.transform(&desc.name).is_some();
            let at = desc.id.0 as usize;
            if at >= types.len() {
                types.resize(at + 1, None);
            }
            types[at] = Some(TypeBridge {
                old_name: Arc::clone(&desc.name),
                new_ty,
                layout_compatible,
                has_type_transform,
                old_size: old_state.types.size_of(desc.id),
                new_size: new_ty.map_or(0, |t| new_state.types.size_of(t)),
            });
        }
        TransferContext {
            syms,
            new_sites,
            types,
            object_fault: None,
            writes: Cell::new(0),
            intra_pair_shards: 1,
        }
    }

    /// Arms the mid-phase fault trigger: the update aborts right before the
    /// `nth` (1-based) object write it would otherwise perform — whether
    /// that write happens during a pre-copy round or in the stop-the-world
    /// window. `None` disarms the trigger.
    #[must_use]
    pub(crate) fn with_object_fault(mut self, nth: Option<u64>) -> Self {
        self.object_fault = nth;
        self
    }

    /// Sets the intra-pair shard count, an input of the cost model only:
    /// every transfer through this context charges each write to one of
    /// `shards` contiguous, cost-balanced address-range shards of the object
    /// list, and the charged (simulated) cost is the deterministic
    /// list-schedule makespan over the per-shard costs. Writes, conflicts,
    /// reports and the object-fault counter do not depend on it. `0`/`1`
    /// charges the serial sum.
    #[must_use]
    pub(crate) fn with_intra_pair_shards(mut self, shards: usize) -> Self {
        self.intra_pair_shards = shards.max(1);
        self
    }

    /// The configured intra-pair shard count (always >= 1).
    pub(crate) fn intra_pair_shards(&self) -> usize {
        self.intra_pair_shards.max(1)
    }

    /// Counts one object write; true when the armed fault must fire now.
    /// The counter runs whether or not a fault is armed, so a clean run's
    /// total doubles as the chaos engine's n-th-object-write site count
    /// (see [`writes_performed`](Self::writes_performed)).
    fn object_write_fires_fault(&self) -> bool {
        self.writes.set(self.writes.get() + 1);
        self.object_fault == Some(self.writes.get())
    }

    /// Total object writes counted through this context so far — across
    /// every pair and pre-copy round. After a clean (fault-free)
    /// update this is the number of injectable n-th-object-write fault
    /// sites; the pipeline copies it into
    /// [`UpdateReport::object_writes`](crate::runtime::report::UpdateReport).
    pub(crate) fn writes_performed(&self) -> u64 {
        self.writes.get()
    }

    /// The bridge for an old-version type id, if the type is registered.
    pub(crate) fn bridge(&self, old_ty: TypeId) -> Option<&TypeBridge> {
        self.types.get(usize::try_from(old_ty.0).ok()?)?.as_ref()
    }

    /// The interned id of an allocation-site name (old or new version).
    pub(crate) fn site_sym(&self, name: &str) -> Option<Sym> {
        self.syms.lookup(name)
    }

    /// The interned id behind a *new-version* allocation-site id.
    pub(crate) fn new_site_sym(&self, site: AllocSite) -> Option<Sym> {
        self.new_sites.get(&site.0).copied()
    }
}

/// Where an old object lands in the new version.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// An object the new version already created (matched static or
    /// startup-time heap object); contents are transferred only if dirty.
    Existing(Addr),
    /// A fresh allocation performed by the engine.
    Fresh(Addr),
    /// Pinned at the old address (immutable object).
    Pinned(Addr),
}

/// The stale objects one transfer step wrote: objects never copied or
/// dirtied since their last copy, their bytes and the simulated cost charged
/// for landing them. One count serves every step — a pre-copy round's copies,
/// the residual the stop-the-world window still had to write, the set a
/// post-copy commit parked (charged nothing: it lands after resume) and what
/// a trap or drain batch landed of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidualStats {
    /// Stale objects written (or parked).
    pub objects: u64,
    /// Their bytes.
    pub bytes: u64,
    /// Simulated cost of the writes. For the window it is the part of state
    /// transfer that counts toward downtime; without pre-copy it equals the
    /// full per-pair transfer duration.
    pub(crate) cost: SimDuration,
}

impl ResidualStats {
    /// Adds `other`'s objects, bytes and cost to these.
    pub(crate) fn absorb(&mut self, other: &ResidualStats) {
        self.objects += other.objects;
        self.bytes += other.bytes;
        self.cost = self.cost.saturating_add(other.cost);
    }
}

/// What a [`DeltaPlan`] remembers about one old object.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    /// The object's base address in the old version (the table's key).
    old_base: u64,
    /// Where the object lands; `Fresh(NULL)` while its allocation has not
    /// succeeded, which the next pass treats as "not placed yet".
    placement: Placement,
    /// Bytes requested for a `Fresh` placement's chunk (`0` otherwise).
    alloc: u64,
    /// Dirty stamp of the contents last copied; `None` until the first copy.
    copied_at: Option<u64>,
    /// Bytes the last copy wrote — what the logical report counts for the
    /// object when the final pass finds nothing to write.
    len: u64,
}

impl PlanEntry {
    /// Where the object lands; `None` while its fresh chunk is unallocated.
    fn new_base(&self) -> Option<Addr> {
        let (Placement::Existing(addr) | Placement::Fresh(addr) | Placement::Pinned(addr)) = self.placement;
        Some(addr).filter(|addr| !addr.is_null())
    }

    /// The fresh chunk allocated for the object, freed once it is released.
    fn chunk(&self) -> Option<Addr> {
        self.new_base().filter(|_| matches!(self.placement, Placement::Fresh(_)))
    }
}

/// The resumable per-pair state of an iterative pre-copy transfer.
///
/// The plan makes the engine idempotent across rounds: one address-ordered
/// table holds, per old object, its placement (matched startup chunk, fresh
/// allocation, pinned address) — decided once and reused verbatim while the
/// object stays — plus the dirty-epoch stamp and length of the contents last
/// written, so a round copies exactly the objects dirtied since their
/// previous copy and the final pass knows what every earlier copy wrote. The
/// table is walked in step with the (address-ordered) object graph, so
/// finding an object's record costs no lookup. A fresh plan run straight
/// through a [`CopyMode::Final`] pass reproduces the classic stop-the-world
/// transfer bit for bit.
///
/// A plan must be driven with *one* graph: the first trace of the pair, kept
/// current by [`ObjectGraph::retrace_dirty`](crate::tracing::graph::ObjectGraph::retrace_dirty)
/// — the final pass relies on the ranges that graph recorded as changed.
#[derive(Debug, Default)]
pub(crate) struct DeltaPlan {
    /// Epoch through which the pair's object graph has been retraced (the
    /// `since` argument of the next delta retrace).
    pub(crate) traced_upto: u64,
    /// One record per placed object of the last pass's graph, sorted by old
    /// base address: the old→new address map. The next pass releases the
    /// records whose object left (an address that comes back is placed anew).
    table: Vec<PlanEntry>,
    /// Unconsumed startup-time chunks of the new version, by interned
    /// allocation site (consumed exactly once across all rounds).
    site_index: Option<BTreeMap<Sym, VecDeque<Addr>>>,
}

impl DeltaPlan {
    /// A fresh plan (nothing placed, nothing copied).
    pub(crate) fn new() -> Self {
        DeltaPlan::default()
    }
}

/// One object write as pass 4 prepares it: the contents are fixed when it is
/// built (snapshot, transform and pointer rewrite against the old space), and
/// [`land`](Write::land) puts them into the new version — inside the window,
/// during a pre-copy round, or after resume when a post-copy trap or the
/// drainer reaches it (the old space is frozen until then).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Write {
    old_base: Addr,
    new_base: Addr,
    /// Bytes written, cut at the end of the target's region.
    len: usize,
    /// The transformed contents, `len` bytes; `None` for a verbatim object,
    /// copied space to space with
    /// [`AddressSpace::copy_range`](mcr_procsim::AddressSpace::copy_range) and no
    /// intermediate buffer.
    bytes: Option<Vec<u8>>,
}

impl Write {
    /// The write cut at the end of the new-version region it lands in;
    /// `None` when its target is not mapped.
    fn clamped(mut self, new_proc: &Process) -> Option<Write> {
        let region = new_proc.space().region_containing(self.new_base)?;
        self.len = self.len.min((region.end().0 - self.new_base.0) as usize);
        if let Some(bytes) = &mut self.bytes {
            bytes.truncate(self.len);
        }
        Some(self)
    }

    /// Lands the write; callers count the n-th-object-write fault first. The
    /// byte store bypasses post-copy protection: before resume no page is
    /// protected, and after it the trap handler must land quiesce-time
    /// content on pages that still are.
    fn land(&self, old_proc: &Process, new_proc: &mut Process) -> McrResult<()> {
        let space = new_proc.space_mut();
        match &self.bytes {
            None => space.copy_range(self.new_base, old_proc.space(), self.old_base, self.len),
            Some(bytes) => space.write_bytes_through(self.new_base, bytes),
        }
        .map_err(McrError::Sim)
    }
}

/// The parked residual of one pair's post-copy transfer: every stale object,
/// in deterministic address order, plus the page bookkeeping that decides
/// when a page's access trap can be disarmed.
#[derive(Debug, Default)]
pub(crate) struct PostcopyResidual {
    /// The parked writes; `None` once applied.
    pending: Vec<Option<Write>>,
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
    fn build(pending: Vec<Write>) -> Self {
        let mut page_refs: BTreeMap<u64, u32> = BTreeMap::new();
        let mut page_index: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (idx, w) in pending.iter().enumerate() {
            for page in pages_of(w.new_base, w.len) {
                *page_refs.entry(page).or_insert(0) += 1;
                page_index.entry(page).or_default().push(idx);
            }
        }
        let live = pending.len();
        let pending = pending.into_iter().map(Some).collect();
        PostcopyResidual { pending, next: 0, live, page_refs, page_index, faulted_in: 0 }
    }

    /// Arms access traps in the new process over every parked range. Called
    /// once, right before the new version resumes.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (a parked range must be mapped — it was
    /// placed by the commit pass).
    pub(crate) fn arm(&self, new_proc: &mut Process) -> McrResult<()> {
        for w in self.pending.iter().flatten() {
            new_proc.space_mut().protect_range(w.new_base, w.len.max(1) as u64).map_err(McrError::Sim)?;
        }
        Ok(())
    }

    /// True once every parked object has been applied.
    pub(crate) fn is_drained(&self) -> bool {
        self.live == 0
    }

    /// Objects faulted in / drained so far.
    pub(crate) fn faulted_in(&self) -> u64 {
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
    if residual.pending[idx].is_none() {
        return Ok(());
    }
    if plan.object_write_fires_fault() {
        return Err(Conflict::FaultInjected { phase: "fault-in-object".into() }.into());
    }
    if fault_at == Some(residual.faulted_in + 1) {
        return Err(Conflict::FaultInjected { phase: "fault-in".into() }.into());
    }
    let write = residual.pending[idx].take().expect("checked above");
    write.land(old_proc, new_proc)?;
    residual.live -= 1;
    residual.faulted_in += 1;
    let len = write.len as u64;
    stats.absorb(&ResidualStats { objects: 1, bytes: len, cost: write_cost(1, len) });
    for page in pages_of(write.new_base, write.len) {
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
pub(crate) fn fault_in_at(
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
pub(crate) fn drain_step(
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
        if residual.pending[idx].is_none() {
            residual.next += 1;
            continue;
        }
        apply_pending(plan, residual, idx, old_proc, new_proc, fault_at, &mut stats)?;
        residual.next += 1;
        applied += 1;
    }
    Ok(stats)
}

/// Which step of an update a [`run_transfer`] pass is: a concurrent pre-copy
/// round, or one of the two passes that complete the transfer over the
/// quiescent graph.
///
/// The three run the same passes — placement, allocation, prepare — build
/// the same [`Write`] per object, land it with the same [`Write::land`],
/// report the same way and count the stale objects they write in one
/// [`ResidualStats`]. They differ in two places only: a round's logical
/// write set is the stale delta, a completing pass's is every transferable
/// object; and a `Deferred` pass parks its stale writes instead of landing
/// them. A round's report and conflicts are discarded: the completing pass
/// re-detects them, so a pre-copied update aborts with exactly the
/// conflicts of a stop-the-world one.
///
/// # What the completing passes write
///
/// `Final` and `Deferred` leave the new version's memory, the logical report
/// and the conflicts exactly as writing every transferable object again
/// would — by writing an object **iff its new-heap bytes would change**. What a write
/// emits is a function of the object's old bytes, its types and handler
/// (fixed for the update), whether it is copied verbatim, and — on the
/// field-map path — the translation of its pointer slots. An object is
/// therefore written when it is *stale* (never copied, or dirtied since its
/// last copy), and a clean one only when its translation or its verbatim-ness
/// can differ from its last copy's: when its own range or the target of one
/// of its precise edges lies in a range the graph recorded as changed
/// ([`ObjectGraph::range_changed`](crate::tracing::graph::ObjectGraph::range_changed)
/// — an object entered, left, changed size or changed pin status there). A
/// pointer outside every such range resolves to the same object, placed where
/// it was, as when the holder was last copied; the holder's bytes are
/// unchanged because it is clean; and no other write overlaps its chunk,
/// which is sized for everything written into it — so the bytes already in
/// the new heap are the bytes a re-emission would write. Statics, whose
/// annotations can make the traced edges differ from the typed pointer
/// slots, are re-emitted whenever any range changed; there are few. Every
/// transferable object is still *counted* (at the length its last copy
/// recorded), so the report does not depend on how much was pre-copied; only
/// the write counter ([`TransferContext::writes_performed`]) sees the
/// difference. The pass that re-emits everything, which the tests hold this
/// one to, is the same pass over a graph recorded as changed over the whole
/// address space: every object then may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyMode {
    /// Concurrent round, while the old version keeps serving: place and
    /// copy the stale objects; a failed placement is left for the window.
    Round,
    /// Stop-the-world: leave memory and reports byte-identical to a
    /// no-pre-copy run, reusing every placement the plan recorded; write
    /// what can have changed and charge only the stale residual (with a
    /// fresh plan everything is stale: a plain stop-the-world transfer).
    Final,
    /// Post-copy commit: identical placements, conflicts and logical report
    /// to `Final`, but the stale writes are *parked* in the returned
    /// [`PostcopyResidual`] instead of landed, and charged nothing — the new
    /// version resumes and [`fault_in_at`] / [`drain_step`] land them.
    /// Conflicts mean the caller rolls back before resuming.
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
/// Equality compares only the transfer work (`per_process`): `workers` is
/// an input of the cost model and `host_wall_ns` a host-time reading, so the
/// same update charged at different worker counts compares equal.
#[derive(Debug, Clone, Default)]
pub struct TransferSummary {
    /// Per-process reports in pair order.
    pub per_process: Vec<ProcessTransferReport>,
    /// Modelled workers the trace/transfer phase scheduled the pairs on (0
    /// before the phase runs).
    pub workers: usize,
    /// Host wall-clock nanoseconds of the trace/transfer pair loop.
    /// Observability only — nondeterministic, excluded from determinism
    /// comparisons.
    pub host_wall_ns: u64,
}

impl PartialEq for TransferSummary {
    fn eq(&self, other: &Self) -> bool {
        self.per_process == other.per_process
    }
}

impl Eq for TransferSummary {}

impl TransferSummary {
    /// Sum of per-process durations (sequential execution).
    pub fn serial_duration(&self) -> SimDuration {
        self.per_process.iter().fold(SimDuration(0), |sum, r| sum.saturating_add(r.duration))
    }

    /// Maximum per-process duration (the lower bound with one worker per
    /// pair — MCR's parallel multi-process transfer).
    pub fn parallel_duration(&self) -> SimDuration {
        self.per_process.iter().map(|r| r.duration).max().unwrap_or_default()
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

/// The makespan of `costs` list-scheduled on `workers` modelled workers: each
/// job cost, in submission order, goes to the least-loaded worker (lowest
/// index on ties). One worker yields the serial sum; one worker per job
/// yields the per-job maximum. The jobs themselves run one after the other
/// on the calling thread; this schedule is what the cross-pair
/// trace/transfer phase and the intra-pair shard accounting charge to the
/// simulated clock.
pub fn list_schedule_makespan(costs: &[SimDuration], workers: usize) -> SimDuration {
    let mut load = vec![0u64; workers.max(1)];
    for cost in costs {
        let min = load.iter().enumerate().min_by_key(|(_, l)| **l).map(|(i, _)| i).unwrap_or(0);
        load[min] += cost.0;
    }
    SimDuration(load.into_iter().max().unwrap_or(0))
}

/// The shard, of `shards` contiguous ranges of roughly equal cumulative cost,
/// that an item belongs to when the midpoint of its cost lies `mid` into a
/// list costing `total`. Monotone in `mid`, so the ranges are contiguous; a
/// pure function of the costs, and so is the charged makespan.
fn shard_at(mid: u64, total: u64, shards: usize) -> usize {
    let shards = shards.max(1);
    if total == 0 {
        return 0;
    }
    ((((mid as u128) * shards as u128) / total as u128) as usize).min(shards - 1)
}

/// Splits `costs` (one estimated cost per object, in address order) into up
/// to `shards` contiguous ranges of roughly equal cumulative cost
/// ([`shard_at`]). Returns the shard id per object.
pub(crate) fn partition_contiguous(costs: &[u64], shards: usize) -> Vec<usize> {
    let total: u64 = costs.iter().sum();
    let mut cum = 0u64;
    costs
        .iter()
        .map(|&cost| {
            let shard = shard_at(cum + cost / 2, total, shards);
            cum += cost;
            shard
        })
        .collect()
}

/// Transfers one matched pair in `mode` (see [`CopyMode`]): plans every
/// object of the traced graph, reusing the placements `delta` recorded, and
/// writes the ones the mode's write set holds. Returns the logical
/// [`ProcessTransferReport`] (which counts every transferable object, and
/// whose conflicts mean the update must roll back), the stale objects
/// written or parked with their charged cost, and the parked set of a
/// `Deferred` pass (empty otherwise).
///
/// # Errors
///
/// Returns simulator errors for unexpected memory failures and the armed
/// [`TransferContext::with_object_fault`] fault; conflicts land in the report.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub(crate) fn run_transfer(
    plan: &TransferContext,
    delta: &mut DeltaPlan,
    mode: CopyMode,
    old_proc: &Process,
    old_state: &InstanceState,
    new_proc: &mut Process,
    new_state: &InstanceState,
    trace: &TraceResult,
) -> McrResult<(ProcessTransferReport, ResidualStats, PostcopyResidual)> {
    let mut report = ProcessTransferReport::default();
    let mut residual = ResidualStats::default();
    let mut pending: Vec<Write> = Vec::new();
    // A completing pass's logical write set is every transferable object, a
    // round's the stale delta; a deferred pass parks its stale writes.
    let final_mode = mode != CopyMode::Round;
    let deferred = mode == CopyMode::Deferred;
    let graph = &trace.graph;
    // Whether a clean, already copied object has to be written again by a
    // completing pass (see [`CopyMode`]).
    let statics_may_differ = graph.any_changed();
    let may_differ = |obj: &TracedObject| {
        obj.origin.is_static() && statics_may_differ
            || graph.range_changed(obj.addr)
            || obj.precise_pointers.iter().any(|e| graph.range_changed(e.target))
    };

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
    // Pass 2: placement decisions, conflict detection and the logical
    // report, one step per object of the graph with the plan's table walked
    // alongside (both are in address order). An object placed by an earlier
    // round keeps its slot, so pre-copied contents stay valid and pointer
    // rewriting is stable across rounds; a record not carried over is
    // released. Only the objects this run writes reach the later passes; a
    // clean object a completing pass leaves alone is counted here.
    // ------------------------------------------------------------------
    struct Planned {
        old_base: Addr,
        /// Where the object lands; null until pass 3 allocated its chunk.
        new_base: Addr,
        /// The object's record in the plan's table.
        entry: usize,
        stale: bool,
        old_ty: Option<TypeId>,
        new_ty: Option<TypeId>,
        transform_key: Option<Arc<str>>,
        mask_bits: u32,
        raw_copy: bool,
        size: u64,
        dirty_epoch: u64,
        /// Estimated cost of the logical writes before this one: its
        /// position in the cost-balanced shard partition.
        cost_before: u64,
    }
    let est_cost = |size: u64| write_cost(1, size.max(1)).0;
    let mut planned: Vec<Planned> = Vec::new();
    // The fresh chunks of released records, freed by pass 3.
    let mut released: Vec<Addr> = Vec::new();
    // Estimated cost of the run's whole logical write set.
    let mut logical_cost = 0u64;
    // Regions that must exist in the new process to host pinned objects.
    let mut needed_regions: Vec<(Addr, u64, String)> = Vec::new();
    {
        let site_index = delta.site_index.as_mut().expect("built above");
        let mut table: Vec<PlanEntry> = Vec::with_capacity(graph.len());
        let mut records = std::mem::take(&mut delta.table).into_iter().peekable();
        for obj in graph.iter() {
            // Objects no longer in the graph, or no longer transferred.
            while let Some(gone) = records.next_if(|r| r.old_base < obj.addr.0) {
                released.extend(gone.chunk());
            }
            // Library state is not transferred by default.
            if matches!(obj.origin, ObjectOrigin::Lib { .. }) {
                continue;
            }
            // Symbol-level annotations can exclude objects entirely.
            let symbol = match &obj.origin {
                ObjectOrigin::Static { symbol } => Some(symbol),
                _ => None,
            };
            if let Some(sym) = symbol {
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
                report.conflicts.push(Conflict::NonUpdatableObjectChanged {
                    object: obj.origin.describe(),
                    old_type: bridge.map(|b| b.old_name.to_string()).unwrap_or_else(|| "<untyped>".into()),
                    new_type: new_ty
                        .and_then(|t| new_state.types.get(t))
                        .map(|d| d.name.to_string())
                        .unwrap_or_else(|| "<missing>".into()),
                });
                continue;
            }

            // A fresh chunk holds exactly what pass 4's element-wise
            // transform emits: one new-version element per old one.
            let fresh_size = bridge
                .filter(|b| b.new_size > 0)
                .map(|b| b.new_size * (obj.size / b.old_size.max(1)).max(1))
                .unwrap_or(obj.size);
            // A placement is reused unless unallocated or outgrown (its address
            // reused by a larger object, which is placed and copied anew).
            let recorded = records.next_if(|r| r.old_base == obj.addr.0);
            let outgrown = recorded.filter(|r| r.alloc < fresh_size).and_then(|r| r.chunk());
            released.extend(outgrown);
            let mut entry = match recorded.filter(|r| r.new_base().is_some() && outgrown.is_none()) {
                Some(entry) => entry,
                None => {
                    let placement = match &obj.origin {
                        ObjectOrigin::Static { symbol } => match new_state.statics.lookup(symbol) {
                            Some(new_obj) => Placement::Existing(new_obj.addr),
                            None => {
                                if obj.is_dirty() {
                                    report
                                        .conflicts
                                        .push(Conflict::MissingCounterpart { object: obj.origin.describe() });
                                }
                                continue;
                            }
                        },
                        ObjectOrigin::Mmap => Placement::Pinned(obj.addr),
                        ObjectOrigin::Heap { site } | ObjectOrigin::Pool { site } => {
                            if obj.immutable {
                                Placement::Pinned(obj.addr)
                            } else if obj.startup {
                                match site
                                    .as_deref()
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
                    PlanEntry { old_base: obj.addr.0, placement, alloc: 0, copied_at: None, len: 0 }
                }
            };

            let new_base = match entry.placement {
                Placement::Existing(addr) => addr,
                Placement::Pinned(addr) => {
                    if !new_proc.space().is_valid_range(addr, obj.size.max(1) as usize) {
                        if let Some(region) = old_proc.space().region_containing(addr) {
                            needed_regions.push((
                                region.base(),
                                region.size(),
                                format!("inherited:{}", region.name()),
                            ));
                        }
                    }
                    report.objects_pinned += 1;
                    addr
                }
                Placement::Fresh(addr) => {
                    if addr.is_null() {
                        // Allocated by pass 3, which also counts it.
                        entry.alloc = fresh_size.max(1);
                    } else {
                        // Allocated by an earlier pre-copy round.
                        report.objects_allocated += 1;
                    }
                    addr
                }
            };

            let write_contents =
                obj.is_dirty() || obj.immutable || matches!(entry.placement, Placement::Fresh(_));
            if !write_contents {
                report.objects_skipped_clean += 1;
            }
            let stale = match entry.copied_at {
                None => true,
                Some(copied) => obj.dirty_epoch > copied,
            };
            // The run's logical write set — everything transferable for a
            // completing pass, the stale delta for a round — and the part of
            // it whose bytes this run has to produce.
            let logical = write_contents && (final_mode || stale);
            let written = logical && (stale || may_differ(obj));
            debug_assert!(written || !new_base.is_null(), "an unallocated object was never copied");
            if written {
                let mask_bits = symbol
                    .and_then(|s| old_state.annotations.obj_treatment(s))
                    .and_then(|t| match t {
                        ObjTreatment::EncodedPointers { mask_bits } => Some(*mask_bits),
                        _ => None,
                    })
                    .unwrap_or(0);
                let transform_key = symbol
                    .filter(|s| new_state.annotations.transform(s).is_some())
                    .map(Arc::clone)
                    .or_else(|| bridge.filter(|b| b.has_type_transform).map(|b| Arc::clone(&b.old_name)));
                planned.push(Planned {
                    old_base: obj.addr,
                    new_base,
                    entry: table.len(),
                    stale,
                    old_ty,
                    new_ty,
                    transform_key,
                    mask_bits,
                    raw_copy: obj.non_updatable || old_ty.is_none(),
                    size: obj.size,
                    dirty_epoch: obj.dirty_epoch,
                    cost_before: logical_cost,
                });
            } else if logical {
                report.objects_transferred += 1;
                report.bytes_transferred += entry.len;
            }
            if logical {
                logical_cost += est_cost(obj.size);
            }
            table.push(entry);
        }
        released.extend(records.filter_map(|gone| gone.chunk()));
        delta.table = table;
    }

    // ------------------------------------------------------------------
    // Pass 3 (mutating the new process): map inherited regions for pinned
    // objects, free the chunks of released records and perform fresh
    // allocations, in address order, recording each in the plan's table.
    // ------------------------------------------------------------------
    {
        let mut mapped: BTreeSet<u64> = BTreeSet::new();
        for (base, size, name) in needed_regions {
            if mapped.contains(&base.0) || new_proc.space().is_mapped(base) {
                continue;
            }
            let kind = mcr_procsim::RegionKind::Heap;
            if let Err(e) = new_proc.space_mut().map_region(base, size, kind, name) {
                report.conflicts.push(Conflict::ImmutablePlacementFailed {
                    object: format!("region {base}"),
                    detail: e.to_string(),
                });
            }
            mapped.insert(base.0);
        }
    }
    for chunk in released {
        let (space, heap) = new_proc.space_and_heap_mut().map_err(McrError::Sim)?;
        heap.free(space, chunk).map_err(McrError::Sim)?;
    }
    let mut unplaced: Vec<usize> = Vec::new();
    for (k, p) in planned.iter_mut().enumerate().filter(|(_, p)| p.new_base.is_null()) {
        // Allocate in the new version's heap with the new type tag.
        let tag = p.new_ty.map(|t| TypeTag(t.0)).unwrap_or(TypeTag(0));
        let site = AllocSite(0);
        let (space, heap) = new_proc.space_and_heap_mut().map_err(McrError::Sim)?;
        match heap.malloc(space, delta.table[p.entry].alloc, site, tag) {
            Ok(addr) => {
                report.objects_allocated += 1;
                p.new_base = addr;
                delta.table[p.entry].placement = Placement::Fresh(addr);
            }
            Err(e) => {
                report.conflicts.push(Conflict::ImmutablePlacementFailed {
                    object: format!("heap object at {}", p.old_base),
                    detail: e.to_string(),
                });
                unplaced.push(k);
            }
        }
    }
    // An object whose allocation failed is not written, its record stays
    // unallocated, and it leaves the logical write set.
    for &k in unplaced.iter().rev() {
        let gone = planned.remove(k);
        let cost = est_cost(gone.size);
        logical_cost -= cost;
        for later in &mut planned[k..] {
            later.cost_before -= cost;
        }
    }

    // ------------------------------------------------------------------
    // Pass 4: for every object this run writes, in address order, prepare
    // its [`Write`] — snapshot and transform its bytes — then count the
    // n-th-object-write fault, cut the write at its target region and land
    // it (a deferred pass parks a stale write instead: it counts the fault
    // when it lands), stamping the plan's record and counting it. Each
    // stale write is charged to the shard its position in the cost-balanced
    // partition of the run's *logical* write set falls in, so it is charged
    // to the same shard however much of that set was pre-copied; the
    // per-shard charges feed the list-schedule makespan below. One scratch
    // buffer (`AddressSpace::read_into`) serves every snapshot, and verbatim
    // objects skip the snapshot entirely (they are copied space-to-space).
    // ------------------------------------------------------------------
    // The type pair of an object that takes the structural field-map path.
    let typed_pair = |p: &Planned| match (&p.transform_key, p.raw_copy, p.old_ty, p.new_ty) {
        (None, false, Some(old_ty), Some(new_ty)) => Some((old_ty, new_ty)),
        _ => None,
    };
    // A field map depends only on its type pair: derive one per distinct
    // pair of the write set.
    let mut field_maps: BTreeMap<(TypeId, TypeId), FieldMap> = BTreeMap::new();
    for (old_ty, new_ty) in planned.iter().filter_map(typed_pair) {
        field_maps
            .entry((old_ty, new_ty))
            .or_insert_with(|| compute_field_map(&old_state.types, old_ty, &new_state.types, new_ty));
    }
    let shards = plan.intra_pair_shards();
    let shard_of = |p: &Planned| shard_at(p.cost_before + est_cost(p.size) / 2, logical_cost, shards);
    let mut scratch: Vec<u8> = Vec::new();
    // `None`: the old bytes cannot be read, and the object drops out of the
    // write set without touching any counter.
    let mut prepare = |p: &Planned, table: &[PlanEntry]| -> Option<Write> {
        let len = p.size.max(1) as usize;
        let write = |bytes: Option<Vec<u8>>| {
            let len = bytes.as_ref().map_or(len, Vec::len);
            Write { old_base: p.old_base, new_base: p.new_base, len, bytes }
        };
        // Nothing rewrites a verbatim object's bytes.
        if p.transform_key.is_none() && (p.raw_copy || p.old_ty.is_none() || p.new_ty.is_none()) {
            return old_proc.space().is_valid_range(p.old_base, len).then(|| write(None));
        }
        if scratch.len() < len {
            scratch.resize(len, 0);
        }
        old_proc.space().read_into(p.old_base, &mut scratch[..len]).ok()?;
        let old_bytes = &scratch[..len];
        if let Some(key) = &p.transform_key {
            let handler = new_state.annotations.transform(key).expect("transform key resolved earlier");
            return Some(write(Some(handler(old_bytes))));
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
            rewrite_pointers(elem, &map.pointers, old_elem, trace, table, p.mask_bits);
        }
        Some(write(Some(out)))
    };
    let mut shard_residual = vec![SimDuration(0); shards];
    for p in &planned {
        let Some(write) = prepare(p, &delta.table) else { continue };
        let parks = deferred && p.stale;
        if !parks && plan.object_write_fires_fault() {
            return Err(Conflict::FaultInjected { phase: "transfer-object".into() }.into());
        }
        let Some(write) = write.clamped(new_proc) else {
            report.conflicts.push(Conflict::ImmutablePlacementFailed {
                object: format!("object at {}", p.old_base),
                detail: format!("target address {} not mapped in the new version", p.new_base),
            });
            continue;
        };
        let len = write.len as u64;
        report.objects_transferred += 1;
        report.bytes_transferred += len;
        if p.stale {
            residual.objects += 1;
            residual.bytes += len;
        }
        if parks {
            // Charged when it lands, after the new version has resumed:
            // moving that work off the downtime window is the point of
            // post-copy.
            pending.push(write);
            continue;
        }
        write.land(old_proc, new_proc)?;
        let record = &mut delta.table[p.entry];
        record.copied_at = Some(p.dirty_epoch);
        record.len = len;
        if p.stale {
            let shard = shard_of(p);
            shard_residual[shard] = shard_residual[shard].saturating_add(write_cost(1, len));
        }
    }

    // Account the simulated cost of the transfer: per-object bookkeeping
    // plus a per-byte copy cost. The caller charges the residual cost to the
    // kernel clock — inside the stop-the-world window, or concurrently for a
    // pre-copy round; `report.duration` stays the logical full-transfer cost
    // so reports are identical with and without pre-copy and across shard
    // counts. The *charged* cost is the list-schedule makespan over the
    // per-shard costs — with one shard the serial sum, with `n` shards what
    // `n` modelled workers, one per shard, would take.
    report.duration = write_cost(report.objects_transferred, report.bytes_transferred);
    residual.cost = list_schedule_makespan(&shard_residual, shards);
    Ok((report, residual, PostcopyResidual::build(pending)))
}

/// The new base an old base address was placed at, searched in the plan's
/// table (strictly increasing old bases).
fn new_base_of(table: &[PlanEntry], old_base: u64) -> Option<u64> {
    let at = table.binary_search_by_key(&old_base, |r| r.old_base).ok()?;
    table[at].new_base().map(|addr| addr.0)
}

/// Rewrites the pointer slots of a transformed element: each old pointer
/// value is translated through the plan's table (preserving interior
/// offsets and encoded low bits). A pointer to an object's base — the
/// common case — is one table search: the table's keys are graph bases, so
/// the graph would name that very object at offset 0. Only the rest ask the
/// graph which object contains them.
fn rewrite_pointers(
    out: &mut [u8],
    pointer_pairs: &[(u64, u64)],
    old_elem: &[u8],
    trace: &TraceResult,
    table: &[PlanEntry],
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
        let new_raw = match new_base_of(table, target) {
            Some(new_base) => new_base | bits,
            // An interior pointer moves with its object. A target outside the
            // graph, or not transferred (e.g. library state pinned at the
            // same address), keeps the old value.
            None => trace
                .graph
                .object_containing(Addr(target))
                .and_then(|obj| Some(new_base_of(table, obj.addr.0)? + (target - obj.addr.0)))
                .map_or(raw, |moved| moved | bits),
        };
        out[new_off..new_off + 8].copy_from_slice(&new_raw.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpose::Interposer;
    use crate::program::test_support::EnvExt;
    use crate::program::{InstanceState, ProgramEnv, ThreadRosterEntry};
    use crate::tracing::tracer::{trace_process, TraceOptions, Tracer};
    use mcr_procsim::{Kernel, MemoryLayout, Pid};
    use mcr_typemeta::{Field, InstrumentationConfig};

    /// Transfers the traced state of `old_pid` into `new_pid` stop-the-world
    /// (a fresh [`DeltaPlan`], so everything is stale) and charges the
    /// simulated cost to the kernel clock. Conflicts land in the report.
    fn transfer_process(
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
            let mut delta = DeltaPlan::new();
            run_transfer(&plan, &mut delta, CopyMode::Final, old_proc, old_state, new_proc, new_state, trace)?
                .0
        };
        kernel.advance_clock(report.duration);
        Ok(report)
    }

    fn make_instance(kernel: &mut Kernel, name: &str, slide: u64) -> (InstanceState, Pid) {
        make_instance_in(kernel, name, MemoryLayout::with_slide(slide))
    }

    fn make_instance_in(kernel: &mut Kernel, name: &str, layout: MemoryLayout) -> (InstanceState, Pid) {
        let pid = kernel.create_process(name);
        kernel.process_mut(pid).unwrap().setup_memory(layout, true).unwrap();
        let mut state =
            InstanceState::new(name, "1.0", InstrumentationConfig::full(), Interposer::recorder());
        let tid = kernel.process(pid).unwrap().main_tid();
        state.processes.push(pid);
        state.add_roster_entry(ThreadRosterEntry {
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

    #[test]
    fn bridges_carry_both_versions_sizes() {
        let mut kernel = Kernel::new();
        let (mut old_state, _) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let legacy = old_state.types.opaque("legacy_s", 40);
        let (mut new_state, _) = make_instance(&mut kernel, "v2", 0x1000_0000);
        register_v2_types_two_changed(&mut new_state);
        let plan = TransferContext::new(&old_state, &new_state);
        let mut resized = 0;
        for desc in old_state.types.iter() {
            let bridge = plan.bridge(desc.id).expect("every old type is bridged");
            assert_eq!(&*bridge.old_name, &*desc.name);
            assert_eq!(bridge.new_ty, new_state.types.lookup(&desc.name), "{}", desc.name);
            assert_eq!(bridge.old_size, old_state.types.size_of(desc.id), "{}", desc.name);
            let new_size = bridge.new_ty.map_or(0, |t| new_state.types.size_of(t));
            assert_eq!(bridge.new_size, new_size, "{}", desc.name);
            resized += usize::from(bridge.new_ty.is_some() && bridge.old_size != bridge.new_size);
        }
        assert!(resized >= 2, "conf_s and l_t change size");
        let gone = plan.bridge(legacy).expect("bridged though it vanished");
        assert_eq!((gone.new_ty, gone.old_size, gone.new_size), (None, 40, 0));
        let next = TypeId(legacy.0 + 1);
        for missing in [TypeId(0), next, TypeId(u64::MAX)] {
            assert!(plan.bridge(missing).is_none(), "{missing:?}");
        }
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
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
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

        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
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
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
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
            );
        }
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
        let report = transfer_process(&mut kernel, &old_state, old_pid, &new_state, new_pid, &trace).unwrap();
        assert!(report.conflicts.is_empty());
        let new_addr = new_state.statics.lookup("conf_inline").unwrap().addr;
        let space = kernel.process(new_pid).unwrap().space();
        assert_eq!(space.read_u32(new_addr).unwrap(), 8, "transform doubled the worker count");
        assert_eq!(space.read_u32(new_addr.offset(4)).unwrap(), 80);
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
        let mut trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
        let since = kernel.advance_write_epoch(old_pid).unwrap();
        let (_, round, _) = {
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            run_transfer(
                &plan,
                &mut delta,
                CopyMode::Round,
                old_proc,
                &old_state,
                new_proc,
                &new_state,
                &trace,
            )
            .unwrap()
        };
        assert!(round.objects >= 3, "round 1 copies the whole graph");
        delta.traced_upto = since;

        // The old version keeps running: it touches one node.
        kernel.process_mut(old_pid).unwrap().space_mut().write_u32(node_a, 21).unwrap();

        // Stop the world: retrace the delta, transfer the residual.
        let (report, residual, _) = {
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            let tracer = Tracer::for_process(old_proc, &old_state);
            trace.stats = trace.graph.retrace_dirty(&tracer, delta.traced_upto);
            run_transfer(
                &plan,
                &mut delta,
                CopyMode::Final,
                old_proc,
                &old_state,
                new_proc,
                &new_state,
                &trace,
            )
            .unwrap()
        };
        assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);
        assert_eq!(report.objects_transferred, round.objects, "logical report covers everything");
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
        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
        let plan = TransferContext::new(&old_state, &new_state).with_object_fault(Some(1));
        let mut delta = DeltaPlan::new();
        let err = {
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            run_transfer(
                &plan,
                &mut delta,
                CopyMode::Round,
                old_proc,
                &old_state,
                new_proc,
                &new_state,
                &trace,
            )
            .unwrap_err()
        };
        let conflicts = match err {
            McrError::Conflicts(cs) => cs,
            other => panic!("unexpected error {other}"),
        };
        assert!(conflicts.iter().any(|c| matches!(c, Conflict::FaultInjected { .. })));
    }

    /// Where the plan placed the old object at `old_base`.
    fn placed(delta: &DeltaPlan, old_base: Addr) -> Option<Addr> {
        new_base_of(&delta.table, old_base.0).map(Addr)
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
                let moved = trace
                    .graph
                    .object_containing(Addr(target))
                    .filter(|_| raw != 0)
                    .and_then(|t| placed(delta, t.addr).map(|at| at.0 + (target - t.addr.0)));
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
                env.add_obj_handler("tagged", ObjTreatment::EncodedPointers { mask_bits: 2 });
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

            let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
            let plan = TransferContext::new(&old_state, &new_state).with_intra_pair_shards(shards);
            let mut delta = DeltaPlan::new();
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            let (report, _, _) = run_transfer(
                &plan,
                &mut delta,
                CopyMode::Final,
                old_proc,
                &old_state,
                new_proc,
                &new_state,
                &trace,
            )
            .unwrap();
            assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);

            let mut landed = Vec::new();
            let mut pairs = BTreeSet::new();
            for obj in trace.graph.iter() {
                let Some(new_ty) = obj.type_id.and_then(|t| plan.bridge(t)).and_then(|b| b.new_ty) else {
                    continue;
                };
                assert!(!obj.non_updatable, "every typed object of the scenario takes the field-map path");
                let new_base = placed(&delta, obj.addr).unwrap();
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
            assert_eq!(space.read_u64(new_arr.offset(8)).unwrap(), placed(&delta, nodes[3]).unwrap().0);
            assert_eq!(space.read_u64(new_arr.offset(24 + 8)).unwrap(), new_arr.0 + 32);
            assert_eq!(space.read_u64(global("tagged")).unwrap(), placed(&delta, nodes[5]).unwrap().0 | 0b10);
            let new_conf = Addr(space.read_u64(global("conf")).unwrap());
            assert_eq!(new_conf, placed(&delta, conf).unwrap(), "startup conf matched by site");
            assert_eq!(
                (space.read_u32(new_conf).unwrap(), space.read_u32(new_conf.offset(4)).unwrap()),
                (8080, 4)
            );
            (report, landed)
        };
        assert_eq!(run(1), run(4), "shard count changed the written bytes or the report");
    }

    /// A fresh chunk is sized for everything pass 4 emits into it: an array
    /// of three 16-byte `l_t` becomes three 24-byte elements in a chunk that
    /// holds 72 bytes, and the chunk allocated right behind it keeps its
    /// header and its payload.
    #[test]
    fn fresh_chunks_hold_every_element_of_an_array() {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        kernel.process_mut(old_pid).unwrap().heap_mut().unwrap().end_startup();
        let arr = alloc_node_array(&mut kernel, &mut old_state, old_pid, 3);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            let list = env.define_global("list", "l_t").unwrap();
            let behind = env.alloc("l_t", "handle_event:node").unwrap();
            env.write_u32(behind, 77).unwrap();
            env.write_ptr(list.offset(8), arr).unwrap();
            for (k, next) in [arr.offset(16), arr.offset(32), behind].into_iter().enumerate() {
                env.write_u32(arr.offset(16 * k as u64), 900 + k as u32).unwrap();
                env.write_ptr(arr.offset(16 * k as u64 + 8), next).unwrap();
            }
        }
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types_two_changed(&mut new_state);
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main")
            .define_global("list", "l_t")
            .unwrap();
        kernel.process_mut(new_pid).unwrap().heap_mut().unwrap().end_startup();

        let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
        let report = transfer_process(&mut kernel, &old_state, old_pid, &new_state, new_pid, &trace).unwrap();
        assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);
        assert_eq!(report.objects_allocated, 2, "the array and the node behind it");

        let new_proc = kernel.process(new_pid).unwrap();
        let (space, heap) = (new_proc.space(), new_proc.heap().unwrap());
        let new_list = new_state.statics.lookup("list").unwrap().addr;
        let new_arr = Addr(space.read_u64(new_list.offset(8)).unwrap());
        let chunk = heap.chunk_containing(space, new_arr).expect("the array's chunk");
        assert_eq!(chunk.payload, new_arr);
        assert!(chunk.size >= 3 * 24, "new stride x count: {chunk:?}");
        for k in 0..3u64 {
            assert_eq!(space.read_u32(new_arr.offset(24 * k)).unwrap(), 900 + k as u32);
        }
        assert_eq!(space.read_u64(new_arr.offset(8)).unwrap(), new_arr.0 + 16, "old-layout interior delta");
        let new_behind = Addr(space.read_u64(new_arr.offset(48 + 8)).unwrap());
        let neighbour = heap.chunk_containing(space, new_behind).expect("the neighbour's header is intact");
        assert_eq!((neighbour.payload, neighbour.type_tag), (new_behind, chunk.type_tag));
        assert!(neighbour.size >= 24 && new_behind.0 >= new_arr.0 + chunk.size);
        assert_eq!(space.read_u32(new_behind).unwrap(), 77, "the neighbour's payload is intact");
        assert_eq!(space.read_u64(new_behind.offset(8)).unwrap(), 0);
    }

    /// Pointers are translated by a binary search of the plan's table, which
    /// pass 2 builds in the graph's address order. This drives it in all
    /// three copy modes over a heap too small for one object in the middle
    /// of the address order: its failed `malloc` is skipped (and reported, a
    /// round's report included) and its record stays unallocated, pointers
    /// to the objects behind it are translated, and the pointer to the
    /// skipped object keeps its old value.
    #[test]
    fn plan_table_translates_in_every_mode_and_past_a_failed_malloc() {
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
            let mut small = MemoryLayout::with_slide(0x1_0000_0000);
            small.heap_size = mcr_procsim::PAGE_SIZE;
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

            let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
            let plan = TransferContext::new(&old_state, &new_state);
            let mut delta = DeltaPlan::new();
            let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
            let (old_proc, new_proc) = split.pop().unwrap();
            let (report, _, mut parked) =
                run_transfer(&plan, &mut delta, mode, old_proc, &old_state, new_proc, &new_state, &trace)
                    .unwrap();
            let refused = report
                .conflicts
                .iter()
                .filter(|c| matches!(c, Conflict::ImmutablePlacementFailed { .. }))
                .count();
            assert_eq!(refused, 1, "{mode:?}: {:?}", report.conflicts);
            assert!(placed(&delta, big).is_none(), "{mode:?}: the blob was never placed");
            // Land the parked writes the way the drainer would.
            while !parked.is_drained() {
                drain_step(&plan, &mut parked, old_proc, new_proc, 4, None).unwrap();
            }

            let space = new_proc.space();
            let global = |symbol: &str| new_state.statics.lookup(symbol).unwrap().addr;
            let mut node = Addr(space.read_u64(global("list").offset(8)).unwrap());
            for (i, old_node) in nodes.iter().enumerate() {
                assert_eq!(node, placed(&delta, *old_node).unwrap(), "{mode:?}: node {i} translated");
                assert_eq!(space.read_u32(node).unwrap(), 10 + i as u32, "{mode:?}");
                node = Addr(space.read_u64(node.offset(8)).unwrap());
            }
            assert!(node.is_null());
            assert_eq!(space.read_u64(global("legacy_ref")).unwrap(), big.0, "{mode:?}: untranslated");
        }
    }

    /// How the old heap changes between a pre-copy round and the window.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Departure {
        /// A node is unlinked and freed.
        Freed,
        /// A node's address is reused by a three-element array, which
        /// outgrows the node's fresh chunk.
        Outgrown,
        /// A node is unlinked and freed before a second round, then
        /// allocated and linked again at its address before the window.
        ComesBack,
    }

    /// A record whose object left the graph, or outgrew its chunk, releases
    /// the chunk: after pre-copy rounds and a change to the old heap, the
    /// `Final` pass frees no chunk twice and leaves the new heap with the
    /// live chunks and the list of a fresh plan's stop-the-world pass over
    /// the same old state.
    #[test]
    fn released_records_free_their_chunks() {
        for change in [Departure::Freed, Departure::Outgrown, Departure::ComesBack] {
            let mut kernel = Kernel::new();
            let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
            register_v1_types(&mut old_state);
            let old_tid = kernel.process(old_pid).unwrap().main_tid();
            kernel.process_mut(old_pid).unwrap().heap_mut().unwrap().end_startup();
            let new_version = |kernel: &mut Kernel| {
                let (mut state, pid) = make_instance(kernel, "v2", 0x1_0000_0000);
                register_v2_types(&mut state);
                let tid = kernel.process(pid).unwrap().main_tid();
                ProgramEnv::new(kernel, &mut state, pid, tid, "main").define_global("list", "l_t").unwrap();
                kernel.process_mut(pid).unwrap().heap_mut().unwrap().end_startup();
                (state, pid)
            };
            let (new_state, new_pid) = new_version(&mut kernel);
            // Four linked nodes, each followed by an unreachable spacer chunk
            // it can grow into.
            let nodes: Vec<Addr> = {
                let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
                let list = env.define_global("list", "l_t").unwrap();
                let mut prev_slot = list.offset(8);
                (0..4u32)
                    .map(|i| {
                        let node = env.alloc("l_t", "handle_event:node").unwrap();
                        assert_eq!(env.alloc_bytes(96, "spacer").unwrap(), node.offset(16 + 32));
                        env.write_u32(node, 10 + i).unwrap();
                        env.write_ptr(prev_slot, node).unwrap();
                        prev_slot = node.offset(8);
                        node
                    })
                    .collect()
            };
            let l_t = old_state.types.lookup("l_t").unwrap();
            let site = old_state.sites.register("handle_event:node", Some(l_t));

            let plan = TransferContext::new(&old_state, &new_state);
            let mut delta = DeltaPlan::new();
            let mut trace: Option<TraceResult> = None;
            let rounds = if change == Departure::ComesBack { 2 } else { 1 };
            for round in 0..rounds {
                let since = kernel.advance_write_epoch(old_pid).unwrap();
                {
                    let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
                    let (old_proc, new_proc) = split.pop().unwrap();
                    let tracer = Tracer::for_process(old_proc, &old_state);
                    match trace.as_mut() {
                        None => trace = Some(tracer.trace()),
                        Some(trace) => trace.stats = trace.graph.retrace_dirty(&tracer, delta.traced_upto),
                    }
                    let trace = trace.as_ref().unwrap();
                    run_transfer(
                        &plan,
                        &mut delta,
                        CopyMode::Round,
                        old_proc,
                        &old_state,
                        new_proc,
                        &new_state,
                        trace,
                    )
                    .unwrap();
                }
                delta.traced_upto = since;
                let (space, heap) = kernel.process_mut(old_pid).unwrap().space_and_heap_mut().unwrap();
                let (before, gone, after) = (nodes[0].offset(8), nodes[1], nodes[2]);
                match (change, round) {
                    (Departure::Freed | Departure::ComesBack, 0) => {
                        space.write_u64(before, after.0).unwrap();
                        heap.free(space, gone).unwrap();
                    }
                    (Departure::Outgrown, _) => {
                        heap.free(space, gone.offset(16 + 32)).unwrap();
                        heap.free(space, gone).unwrap();
                        heap.malloc_at(space, gone, 48, site, TypeTag(l_t.0)).unwrap();
                        space.fill(gone, 48, 0).unwrap();
                        space.write_u32(gone, 20).unwrap();
                        space.write_u64(gone.offset(8), after.0).unwrap();
                    }
                    _ => {
                        assert_eq!(heap.malloc(space, 16, site, TypeTag(l_t.0)).unwrap(), gone);
                        space.write_u32(gone, 20).unwrap();
                        space.write_u64(gone.offset(8), after.0).unwrap();
                        space.write_u64(before, gone.0).unwrap();
                    }
                }
            }
            let report = {
                let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
                let (old_proc, new_proc) = split.pop().unwrap();
                let mut trace = trace.unwrap();
                trace.stats =
                    trace.graph.retrace_dirty(&Tracer::for_process(old_proc, &old_state), delta.traced_upto);
                run_transfer(
                    &plan,
                    &mut delta,
                    CopyMode::Final,
                    old_proc,
                    &old_state,
                    new_proc,
                    &new_state,
                    &trace,
                )
                .expect("no chunk is freed twice")
                .0
            };
            assert!(report.conflicts.is_empty(), "{change:?}: {:?}", report.conflicts);

            let (ref_state, ref_pid) = new_version(&mut kernel);
            let trace = trace_process(&kernel, &old_state, old_pid, TraceOptions).unwrap();
            let reference =
                transfer_process(&mut kernel, &old_state, old_pid, &ref_state, ref_pid, &trace).unwrap();
            assert!(reference.conflicts.is_empty(), "{change:?}: {:?}", reference.conflicts);
            let outcome = |state: &InstanceState, pid: Pid| {
                let process = kernel.process(pid).unwrap();
                let space = process.space();
                let mut node =
                    Addr(space.read_u64(state.statics.lookup("list").unwrap().addr.offset(8)).unwrap());
                let mut values = Vec::new();
                while !node.is_null() {
                    values.push(space.read_u32(node).unwrap());
                    node = Addr(space.read_u64(node.offset(8)).unwrap());
                }
                (process.heap().unwrap().live_count(), values)
            };
            assert_eq!(outcome(&new_state, new_pid), outcome(&ref_state, ref_pid), "{change:?}");
        }
    }

    /// Everything a pre-copied transfer leaves behind that a later observer
    /// could tell apart.
    #[derive(Debug, PartialEq)]
    struct Transferred {
        rounds: Vec<ResidualStats>,
        report: ProcessTransferReport,
        residual: ResidualStats,
        /// The parked set of a deferred commit, in drain order.
        parked: Vec<Write>,
        /// Checksum of every non-zero page of the new process.
        memory: Vec<(Addr, u64)>,
        /// Writes the completing pass performed, and the objects it found
        /// stale, re-translatable, and transferable at all.
        final_writes: u64,
        retranslatable: u64,
    }

    fn memory_of(process: &Process) -> Vec<(Addr, u64)> {
        let mut pages = Vec::new();
        for region in process.space().regions() {
            for (i, page) in region.pages().enumerate() {
                if let Some(bytes) = page.filter(|bytes| bytes.iter().any(|&b| b != 0)) {
                    let addr = region.base().offset(i as u64 * mcr_procsim::PAGE_SIZE);
                    pages.push((addr, mcr_procsim::checksum64(bytes, 0)));
                }
            }
        }
        pages
    }

    /// Three rounds of pre-copy over a list of page-separated nodes, the old
    /// version running in between: stores that change no edge; a free that
    /// leaves a dangling pointer in a clean heap object; a node's address
    /// reused by a larger object (it outgrows its chunk) and by a smaller
    /// one (an interior pointer into it, held by a clean object, now lands
    /// nowhere); a new node; a hidden pointer that pins a clean, already
    /// copied object, turning its copy verbatim. Then the completing pass in
    /// `mode`; with `everywhere`, over the graph recorded as changed over the
    /// whole address space, which re-emits every transferable object: the
    /// reference "write iff changed" is held to.
    fn precopied_transfer(mode: CopyMode, shards: usize, everywhere: bool) -> Transferred {
        let mut kernel = Kernel::new();
        let (mut old_state, old_pid) = make_instance(&mut kernel, "v1", 0);
        register_v1_types(&mut old_state);
        let (mut new_state, new_pid) = make_instance(&mut kernel, "v2", 0x1_0000_0000);
        register_v2_types_two_changed(&mut new_state);
        for state in [&mut old_state, &mut new_state] {
            // `pair_s` is the same in both versions: pinning it is no conflict.
            let long = state.types.int("long", 8);
            let node_ptr = state.types.lookup("l_t*").unwrap();
            let pair =
                state.types.struct_type("pair_s", vec![Field::new("a", long), Field::new("p", node_ptr)]);
            state.types.pointer("pair_s*", pair);
        }
        // `blob_s` changes, and its buffer can hide a pointer: while it does,
        // the blob cannot be transferred at all.
        let buf = old_state.types.char_array("char[8]", 8);
        let long = old_state.types.lookup("long").unwrap();
        old_state.types.struct_type("blob_s", vec![Field::new("tag", long), Field::new("buf", buf)]);
        let buf = new_state.types.char_array("char[8]", 8);
        let long = new_state.types.lookup("long").unwrap();
        new_state.types.struct_type(
            "blob_s",
            vec![Field::new("tag", long), Field::new("gen", long), Field::new("buf", buf)],
        );
        // `unfollowed` sits on a static page nothing else dirties.
        let globals = [
            ("unfollowed", "l_t*"),
            ("list", "l_t"),
            ("side", "l_t*"),
            ("interior", "l_t*"),
            ("ahead", "l_t*"),
            ("blob", "l_t*"),
            ("pair", "pair_s*"),
            ("pair2", "pair_s*"),
        ];
        let l_t = old_state.types.lookup("l_t").unwrap();
        let site = old_state.sites.register("handle_event:reused", Some(l_t));
        let old_tid = kernel.process(old_pid).unwrap().main_tid();
        kernel.process_mut(old_pid).unwrap().heap_mut().unwrap().end_startup();
        // Every object sits alone on its page, so dirtying one leaves the
        // others clean, with room behind it (an unreachable chunk, freed
        // when the room is needed) to grow into.
        let pair_s = old_state.types.lookup("pair_s").unwrap();
        let pair_site = old_state.sites.register("handle_event:pair", Some(pair_s));
        let mut alone = |size: u64, site: AllocSite, ty: TypeId| {
            let (space, heap) = kernel.process_mut(old_pid).unwrap().space_and_heap_mut().unwrap();
            let object = heap.malloc(space, size, site, TypeTag(ty.0)).unwrap();
            heap.malloc(space, 96, AllocSite(0), TypeTag(0)).unwrap();
            heap.malloc(space, mcr_procsim::PAGE_SIZE, AllocSite(0), TypeTag(0)).unwrap();
            object
        };
        // Twelve list nodes (node 8 is an array of two); side → holder →
        // freed ← unfollowed (a static whose annotation hides its pointer
        // from the tracer, not from the transfer); interior → a node pointing
        // into the second element of node 8; ahead → a node pointing at a
        // free chunk, where an object will appear; pair → a `pair_s` naming
        // node 10; blob → a node pointing at a `blob_s` whose buffer hides a
        // pointer to a second `pair_s`.
        let nodes: Vec<Addr> = (0..12).map(|i| alone(if i == 8 { 32 } else { 16 }, site, l_t)).collect();
        let [holder, freed, into, ahead] = [0; 4].map(|_| alone(16, site, l_t));
        let appears = alone(48, site, l_t);
        let [pinned, pinned_by_blob] = [0; 2].map(|_| alone(16, pair_site, pair_s));
        let blob_s = old_state.types.lookup("blob_s").unwrap();
        let blob_site = old_state.sites.register("handle_event:blob", Some(blob_s));
        let (blob, blob_holder) = (alone(16, blob_site, blob_s), alone(16, site, l_t));
        let (list, hidden);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut old_state, old_pid, old_tid, "main");
            let unfollowed = env.define_global("unfollowed", "l_t*").unwrap();
            env.add_obj_handler("unfollowed", ObjTreatment::PointerSlots(Vec::new()));
            env.write_ptr(unfollowed, freed).unwrap();
            env.define_global_opaque("static_pad", 2 * mcr_procsim::PAGE_SIZE).unwrap();
            list = env.define_global("list", "l_t").unwrap();
            let mut prev_slot = list.offset(8);
            for (i, &node) in nodes.iter().enumerate() {
                env.write_u32(node, 100 + i as u32).unwrap();
                env.write_ptr(prev_slot, node).unwrap();
                prev_slot = node.offset(8);
            }
            env.write_ptr(holder.offset(8), freed).unwrap();
            env.write_ptr(into.offset(8), nodes[8].offset(16)).unwrap();
            env.write_ptr(ahead.offset(8), appears).unwrap();
            env.free(appears).unwrap();
            env.write_ptr(pinned.offset(8), nodes[10]).unwrap();
            env.write_ptr(pinned_by_blob.offset(8), nodes[11]).unwrap();
            env.write_ptr(blob.offset(8), pinned_by_blob).unwrap();
            env.write_ptr(blob_holder.offset(8), blob).unwrap();
            let targets = [
                ("side", holder),
                ("interior", into),
                ("ahead", ahead),
                ("blob", blob_holder),
                ("pair", pinned),
                ("pair2", pinned_by_blob),
            ];
            for (symbol, target) in targets {
                let ty = globals.iter().find(|g| g.0 == symbol).unwrap().1;
                let global = env.define_global(symbol, ty).unwrap();
                env.write_ptr(global, target).unwrap();
            }
            hidden = env.define_global_opaque("hidden", 16).unwrap();
        }
        let new_tid = kernel.process(new_pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut new_state, new_pid, new_tid, "main");
            for (symbol, ty) in globals {
                env.define_global(symbol, ty).unwrap();
            }
            env.define_global_opaque("static_pad", 2 * mcr_procsim::PAGE_SIZE).unwrap();
            env.define_global_opaque("hidden", 16).unwrap();
        }
        kernel.process_mut(new_pid).unwrap().heap_mut().unwrap().end_startup();

        let plan = TransferContext::new(&old_state, &new_state).with_intra_pair_shards(shards);
        let mut delta = DeltaPlan::new();
        let mut trace: Option<TraceResult> = None;
        let mut rounds = Vec::new();
        for round in 0..3 {
            let since = kernel.advance_write_epoch(old_pid).unwrap();
            {
                let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
                let (old_proc, new_proc) = split.pop().unwrap();
                let tracer = Tracer::for_process(old_proc, &old_state);
                match trace.as_mut() {
                    None => trace = Some(tracer.trace()),
                    Some(trace) => trace.stats = trace.graph.retrace_dirty(&tracer, delta.traced_upto),
                }
                let trace = trace.as_ref().unwrap();
                rounds.push(
                    run_transfer(
                        &plan,
                        &mut delta,
                        CopyMode::Round,
                        old_proc,
                        &old_state,
                        new_proc,
                        &new_state,
                        trace,
                    )
                    .unwrap()
                    .1,
                );
            }
            delta.traced_upto = since;
            // The old version keeps running.
            let (space, heap) = kernel.process_mut(old_pid).unwrap().space_and_heap_mut().unwrap();
            match round {
                0 => {
                    space.write_u32(nodes[0], 500).unwrap();
                    // `holder`, on its own clean page, keeps naming it.
                    heap.free(space, freed).unwrap();
                    // The blob stops hiding a pointer: it can be transferred
                    // now, and `pinned_by_blob` is no longer pinned.
                    space.write_u64(blob.offset(8), 0x2a).unwrap();
                }
                1 => {
                    // Node 2 grows from one element to three, node 8 shrinks
                    // from two to one; both stay linked where they were.
                    // A new head of the list, where `ahead` already points.
                    let fresh = heap.malloc(space, 48, site, TypeTag(l_t.0)).unwrap();
                    assert_eq!(fresh, appears, "first fit reuses the one free chunk that is large enough");
                    space.write_u32(fresh, 900).unwrap();
                    space.write_u64(fresh.offset(8), nodes[0].0).unwrap();
                    space.write_u64(list.offset(8), fresh.0).unwrap();
                    heap.free(space, nodes[2].offset(16 + 32)).unwrap();
                    for (k, count) in [(2usize, 3u64), (8, 1)] {
                        let next = space.read_u64(nodes[k].offset(8)).unwrap();
                        heap.free(space, nodes[k]).unwrap();
                        heap.malloc_at(space, nodes[k], 16 * count, site, TypeTag(l_t.0)).unwrap();
                        space.fill(nodes[k], (16 * count) as usize, 0).unwrap();
                        space.write_u32(nodes[k], 800 + k as u32).unwrap();
                        space.write_u64(nodes[k].offset(8), next).unwrap();
                    }
                }
                _ => {
                    space.write_u64(hidden.offset(8), pinned.0).unwrap();
                    space.write_u32(nodes[1], 501).unwrap();
                }
            }
        }

        let mut split = kernel.split_pairs(&[(old_pid, new_pid)]).unwrap();
        let (old_proc, new_proc) = split.pop().unwrap();
        let mut trace = trace.unwrap();
        let tracer = Tracer::for_process(old_proc, &old_state);
        trace.stats = trace.graph.retrace_dirty(&tracer, delta.traced_upto);
        let graph = &trace.graph;
        assert!(graph.get(pinned).unwrap().immutable && graph.get(freed).is_none());
        assert!(!graph.get(pinned_by_blob).unwrap().immutable && !graph.get(blob).unwrap().non_updatable);
        assert_eq!((graph.get(nodes[2]).unwrap().size, graph.get(nodes[8]).unwrap().size), (48, 16));
        let retranslatable = graph
            .iter()
            .filter(|o| {
                o.origin.is_static()
                    || graph.range_changed(o.addr)
                    || o.precise_pointers.iter().any(|e| graph.range_changed(e.target))
            })
            .count() as u64;
        if everywhere {
            trace.graph.note_changed(Addr(0), u64::MAX);
            trace.graph.seal_changed();
        }
        let writes_before = plan.writes_performed();
        let (report, residual, mut pending) =
            run_transfer(&plan, &mut delta, mode, old_proc, &old_state, new_proc, &new_state, &trace)
                .unwrap();
        let final_writes = plan.writes_performed() - writes_before;
        let parked = pending.pending.iter().flatten().cloned().collect();
        while !pending.is_drained() {
            drain_step(&plan, &mut pending, old_proc, new_proc, 3, None).unwrap();
        }
        Transferred {
            rounds,
            report,
            residual,
            parked,
            memory: memory_of(new_proc),
            final_writes,
            retranslatable,
        }
    }

    /// The completing pass after pre-copy rounds writes an object iff its
    /// new-heap bytes would change, and nobody can tell: memory, report,
    /// residual, conflicts and the parked set equal those of the pass that
    /// re-emits everything, in both completing modes, serial and sharded.
    #[test]
    fn completing_pass_writes_only_what_changed_and_leaves_the_same_state() {
        for mode in [CopyMode::Final, CopyMode::Deferred] {
            let reference = precopied_transfer(mode, 1, true);
            assert!(reference.report.conflicts.is_empty(), "{:?}", reference.report.conflicts);
            assert!(reference.residual.objects >= 3, "{mode:?}: {:?}", reference.residual);
            assert_eq!(reference.parked.is_empty(), mode == CopyMode::Final);
            for shards in [1usize, 4] {
                let ours = precopied_transfer(mode, shards, false);
                let parked_writes = if mode == CopyMode::Deferred { ours.residual.objects } else { 0 };
                // Work bound, as counts: the stale objects plus the clean
                // ones whose translation can differ.
                assert!(
                    ours.final_writes + parked_writes <= ours.residual.objects + ours.retranslatable,
                    "{mode:?}/{shards}: {} writes, {:?}, {} retranslatable",
                    ours.final_writes,
                    ours.residual,
                    ours.retranslatable
                );
                assert!(
                    ours.final_writes < reference.final_writes,
                    "{mode:?}/{shards}: {} writes against {} re-emitting everything",
                    ours.final_writes,
                    reference.final_writes
                );
                let same_but_writes = Transferred { final_writes: reference.final_writes, ..ours };
                if shards == 1 {
                    assert_eq!(same_but_writes, reference, "{mode:?}");
                } else {
                    // Sharding changes no byte and no count, only the
                    // charged makespans.
                    let sharded_reference = precopied_transfer(mode, shards, true);
                    assert_eq!(same_but_writes, sharded_reference, "{mode:?}/{shards} shards");
                    assert_eq!(sharded_reference.memory, reference.memory);
                    assert_eq!(sharded_reference.report, reference.report);
                }
            }
        }
    }

    #[test]
    fn summary_aggregates_serial_and_parallel_durations() {
        let mut summary = TransferSummary::default();
        summary.per_process.push(ProcessTransferReport {
            duration: SimDuration(300),
            objects_transferred: 2,
            ..Default::default()
        });
        summary.per_process.push(ProcessTransferReport {
            duration: SimDuration(500),
            bytes_transferred: 64,
            ..Default::default()
        });
        assert_eq!(summary.serial_duration(), SimDuration(800));
        assert_eq!(summary.parallel_duration(), SimDuration(500));
        assert_eq!(summary.objects_transferred(), 2);
        assert_eq!(summary.bytes_transferred(), 64);
        assert_eq!(summary.conflicts().count(), 0);
    }

    /// The translation the base-pointer search in `rewrite_pointers`
    /// shortcuts, kept as its reference: every pointer asks the graph which
    /// object contains it.
    fn rewrite_by_lookup(
        out: &mut [u8],
        pointer_pairs: &[(u64, u64)],
        old_elem: &[u8],
        trace: &TraceResult,
        table: &[PlanEntry],
        mask_bits: u32,
    ) {
        let mask = pointer_mask(mask_bits);
        for &(old_off, new_off) in pointer_pairs {
            let (old_off, new_off) = (old_off as usize, new_off as usize);
            let raw = u64::from_le_bytes(old_elem[old_off..old_off + 8].try_into().unwrap());
            if raw == 0 {
                continue;
            }
            let (bits, target) = (raw & mask, raw & !mask);
            let new_raw = match trace.graph.object_containing(Addr(target)) {
                Some(obj) => new_base_of(table, obj.addr.0)
                    .map_or(raw, |new_base| (new_base + (target - obj.addr.0)) | bits),
                None => raw,
            };
            out[new_off..new_off + 8].copy_from_slice(&new_raw.to_le_bytes());
        }
    }

    /// Pass 4's pointer translation against the graph lookup, one pointer
    /// per shape: base, interior, one past the end (onto an adjacent object
    /// and onto nothing), an object the plan did not place (its fresh chunk
    /// unallocated), an address outside the graph, `EncodedPointers` values
    /// and null.
    #[test]
    fn base_pointer_translation_matches_the_graph_lookup() {
        use crate::tracing::graph::ObjectGraph;
        use crate::tracing::stats::{RegionClass, TracingStats};
        // `a` and `b` are adjacent; `unplaced` has no new base.
        let (a, b, unplaced, lone) = (0x1000, 0x1040, 0x2000, 0x3000);
        let mut graph = ObjectGraph::new();
        for (addr, size) in [(a, 64), (b, 32), (unplaced, 16), (lone, 8)] {
            graph.insert(TracedObject {
                addr: Addr(addr),
                size,
                origin: ObjectOrigin::Heap { site: None },
                class: RegionClass::Dynamic,
                type_id: None,
                dirty_epoch: 1,
                startup: false,
                immutable: false,
                non_updatable: false,
                precise_pointers: Vec::new(),
                likely_pointers: Vec::new(),
            });
        }
        let trace = TraceResult { graph, stats: TracingStats::default() };
        let record =
            |old_base, placement| PlanEntry { old_base, placement, alloc: 0, copied_at: None, len: 0 };
        let table = [
            record(a, Placement::Fresh(Addr(0x9000))),
            record(b, Placement::Existing(Addr(0x9100))),
            record(unplaced, Placement::Fresh(Addr::NULL)),
            record(lone, Placement::Existing(Addr(0xa000))),
        ];
        let untouched = u64::from_le_bytes([0xee; 8]);
        // (old value, mask bits, translated value)
        let cases = [
            (a, 0, 0x9000),
            (a + 0x18, 0, 0x9018),
            (a + 64, 0, 0x9100),
            (lone + 8, 0, lone + 8),
            (unplaced, 0, unplaced),
            (unplaced + 4, 0, unplaced + 4),
            (0x5000, 0, 0x5000),
            (a | 0b11, 2, 0x9003),
            ((b + 8) | 0b01, 2, 0x9109),
            (unplaced | 0b10, 2, unplaced | 0b10),
            (0, 0, untouched),
        ];
        for (raw, mask_bits, translated) in cases {
            let (mut out, mut reference) = ([0xee; 16], [0xee; 16]);
            rewrite_pointers(&mut out, &[(0, 8)], &raw.to_le_bytes(), &trace, &table, mask_bits);
            rewrite_by_lookup(&mut reference, &[(0, 8)], &raw.to_le_bytes(), &trace, &table, mask_bits);
            assert_eq!(out, reference, "{raw:#x} with {mask_bits} mask bits");
            assert_eq!(u64::from_le_bytes(out[8..].try_into().unwrap()), translated, "{raw:#x}");
        }
    }
}
