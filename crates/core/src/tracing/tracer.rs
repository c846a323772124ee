//! The hybrid (precise + conservative) heap traversal of mutable tracing.
//!
//! Starting from the root set (global variables registered by the old
//! version, plus any annotated objects), the tracer walks pointer chains
//! through the old version's simulated memory. Where data-type tags are
//! available it locates pointers *precisely*; where the layout is opaque
//! (char buffers, unions, pointer-sized integers, objects from
//! uninstrumented allocators, library state) it falls back to *conservative*
//! scanning for likely pointers, whose targets are pinned (`immutable`):
//! the invariant that constrains state transfer (paper §6).
//!
//! # Delta tracing (pre-copy)
//!
//! The derived state — pin flags and [`TracingStats`] — is computed by a
//! *finalize* pass over the finished graph rather than accumulated during
//! the traversal. That makes tracing incremental: [`Tracer::retrace_dirty`]
//! re-scans only the objects whose pages carry a write-epoch stamp newer
//! than a given round, follows any new edges, sweeps unreachable objects and
//! re-runs the same finalize pass, so an iterative pre-copy converges to a
//! graph (and statistics) byte-identical to a fresh full trace of the same
//! memory — while each round's cost is proportional to the working set
//! written since the previous round, not to the whole heap: the stale set is
//! read off the dirty pages, the sweep walks down from the targets the
//! re-scans disconnected instead of up from the roots, and what is left of
//! the whole graph is one pass that looks nothing up (the finalize pass, and
//! one over the other objects' edges when something is in doubt).
//!
//! # Traversal order
//!
//! The traversal is one FIFO worklist loop on the calling thread: pop an
//! object, scan it, enqueue every target seen for the first time. Every
//! worklist entry is a resolved base — a target arrives with the resolution
//! the scan that found it already made, and only a root is resolved when it
//! is popped — and dedup is by base, so each object is scanned once. Dedup
//! and type-assignment decisions are made in pop order, which is what the
//! graph, the conservative pins and the Table 2 statistics are defined by.
//! The loop returns the objects it scanned instead of filing them: a fresh
//! trace builds its graph from them in one address-sorted bulk build, and a
//! delta retrace — which re-scans its stale set in address order and resumes
//! the same loop from what the re-scans discovered — inserts its few new
//! objects one by one. What these shortcuts replaced — resolving at pop, one
//! read per opaque element, a dirty-stamp query per object, a whole-graph
//! mark — is the test-only `reference` module (`tracer/reference.rs`): in
//! tests, one hook in `trace` and three in a retrace check against it.
//! [`UpdateOptions::intra_pair_shards`](crate::runtime::controller::UpdateOptions)
//! is an input of the transfer engine's cost model only: tracing charges no
//! simulated time, so no worker count reaches this module.
//!
//! # Hot paths: what is computed once
//!
//! Per object the tracer consults, and never re-derives, what does not
//! depend on the object: its type's flattened layout and stride are borrowed
//! from the registry's per-type memo, and its annotation is borrowed from the
//! annotation registry. Per conservatively scanned range the bytes are read
//! once — one region lookup, one copy into a scratch buffer owned by the
//! traversal — and the words are walked from that buffer; a range that
//! runs past its region's end is split there, so exactly the words a
//! word-by-word read could reach are scanned. Opaque elements of a typed
//! object that touch at an 8-aligned offset, across element copies too, are
//! one such range (an array of opaque values is one read, not one per
//! element); a precise pointer between them flushes the pending range first,
//! so edges keep their order. Per pointer there is one region lookup, from
//! which the target's class and its resolution both follow, and that
//! resolution is the one the traversal scans the target with — an object is
//! resolved once and filed once. Nothing is cached across objects or across
//! traces, so there is nothing to invalidate, and the edges, their order and
//! every statistic are the ones the word-by-word walk produced.

use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

use mcr_procsim::{Addr, Kernel, MemoryRegion, Pid, Process, RegionKind};
use mcr_typemeta::{LayoutElement, TypeId};

use crate::annotations::{pointer_mask, ObjTreatment};
use crate::error::{McrError, McrResult};
use crate::program::InstanceState;
use crate::tracing::graph::{ObjectGraph, ObjectOrigin, PointerEdge, TracedObject};
use crate::tracing::stats::{RegionClass, TracingStats};

#[cfg(test)]
mod reference;

/// Options of a tracing run. It has no fields: as in the paper, a trace
/// counts pointers into shared-library state but never follows them (the
/// transfer engine skips library objects anyway), and nothing else is left
/// to choose. It survives, like the `Adaptive` alias of
/// [`TransferMode`](crate::runtime::TransferMode), because the `benchmark/`
/// package still passes it to [`Tracer::new`] and [`trace_process`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceOptions;

/// The result of tracing one process.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// The traced object graph.
    pub graph: ObjectGraph,
    /// Aggregated statistics (Table 2 input).
    pub stats: TracingStats,
}

struct ResolvedObject {
    base: Addr,
    size: u64,
    origin: ObjectOrigin,
    /// Class of the region holding the object.
    class: RegionClass,
    type_id: Option<TypeId>,
    startup: bool,
}

/// Dedup state of one worklist traversal. Every enqueued address is a
/// resolved base, and an object counts as visited when it is in the graph
/// the traversal resumes over (empty for a fresh trace) or its base was
/// enqueued before. A delta retrace's set holds only the few bases
/// discovered since — it costs the delta, not one insert per object of the
/// heap.
#[derive(Default)]
struct Worklist {
    enqueued: BTreeSet<u64>,
}

impl Worklist {
    /// Whether the object at `base` has to be enqueued: true the first time
    /// it is seen.
    fn first_visit(&mut self, graph: &ObjectGraph, base: Addr) -> bool {
        !graph.contains(base) && self.enqueued.insert(base.0)
    }
}

/// One worklist entry: an object's base, its resolution — made by the scan
/// that discovered it; `None` for a root, which the traversal resolves when
/// it pops it — and the pointee type the pointer to it declares.
type Visit = (Addr, Option<ResolvedObject>, Option<TypeId>);

/// What one delta retrace's sweep had to look at (work bounds are asserted
/// on these counts, not on timings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SweepWork {
    /// Objects whose reachability the lost edges put in doubt.
    doubt: usize,
    /// Objects whose edges the sweep read.
    visited: usize,
}

/// What one traversal did: the resolutions its loop made itself (not a scan)
/// and the reads the conservative scanner copied out of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraversalWork {
    resolved_at_pop: usize,
    conservative_reads: usize,
}

/// The outgoing targets of the object scanned last, in scan order, each
/// resolved by the scan that found it and with the pointee type its slot
/// declares. One list serves a whole traversal; deduplication against the
/// graph is the caller's.
type Discovered = Vec<(ResolvedObject, Option<TypeId>)>;

/// Most bytes one conservative-scan read copies out of the process; bounds
/// the scratch buffer a traversal keeps.
const SCAN_CHUNK: u64 = 64 * 1024;

/// The read buffer of one traversal, reused across the objects it scans so a
/// trace allocates once, not per object, and the number of reads made into it.
#[derive(Default)]
struct ScanScratch {
    buf: Vec<u8>,
    reads: usize,
}

/// The mutable-tracing engine for one process of the old version.
pub struct Tracer<'a> {
    process: &'a Process,
    state: &'a InstanceState,
}

impl<'a> Tracer<'a> {
    /// Creates a tracer over process `pid` of the (quiescent) old version.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist.
    pub fn new(
        kernel: &'a Kernel,
        state: &'a InstanceState,
        pid: Pid,
        _options: TraceOptions,
    ) -> McrResult<Self> {
        let process = kernel.process(pid).map_err(McrError::Sim)?;
        Ok(Tracer::for_process(process, state))
    }

    /// Creates a tracer over an already-borrowed process: the trace/transfer
    /// phases hold their pair's processes through
    /// [`Kernel::split_pairs`](mcr_procsim::Kernel::split_pairs), and going
    /// through `&Kernel` would alias the exclusive borrow of the new one.
    pub(crate) fn for_process(process: &'a Process, state: &'a InstanceState) -> Self {
        Tracer { process, state }
    }

    /// Runs the traversal from the root set.
    pub(crate) fn trace(&self) -> TraceResult {
        let mut work = Worklist::default();
        let mut queue: VecDeque<Visit> = VecDeque::new();
        for root in self.state.statics.roots() {
            if work.enqueued.insert(root.addr.0) {
                queue.push_back((root.addr, None, Some(root.ty)));
            }
        }
        let mut graph = ObjectGraph::from_objects(self.traverse(&ObjectGraph::new(), queue, &mut work).0);
        let stats = self.finalize(&mut graph, false);
        #[cfg(test)]
        reference::check_trace(self, &graph, &stats);
        TraceResult { graph, stats }
    }

    /// Delta retrace over an existing graph: re-scans only the objects whose
    /// covering pages were written after epoch `since`, follows new edges
    /// into yet-untraced objects, drops objects that were freed or became
    /// unreachable, and recomputes pins and statistics with the same
    /// finalize pass a fresh trace uses.
    ///
    /// Every step but the (lookup-free) finalize pass costs what was written,
    /// not what is live: the stale set is the dirty pages' objects, dedup is
    /// graph membership, and the sweep starts from what the re-scans
    /// disconnected (see `sweep_lost`). The address range
    /// of every object that entered or left the graph, or changed size or
    /// pin status, is recorded in the graph
    /// (`ObjectGraph::range_changed`).
    ///
    /// Staleness is detected through page write-epochs, so a free is only
    /// noticed if it (or the unlinking store) touched the object's pages:
    /// `PtMalloc::free` writes free-list metadata into the payload (as real
    /// ptmalloc does), which covers heap objects; *pool/slab* objects freed
    /// without any store and still referenced by a dangling pointer can
    /// survive a retrace that a fresh trace would re-resolve differently.
    pub fn retrace_dirty(&self, graph: &mut ObjectGraph, since: u64) -> TracingStats {
        self.retrace(graph, since).0
    }

    fn retrace(&self, graph: &mut ObjectGraph, since: u64) -> (TracingStats, SweepWork) {
        let stale = self.stale_objects(graph, since);
        #[cfg(test)]
        reference::check_stale_set(self, graph, since, &stale);
        let mut work = Worklist::default();
        let mut frontier: VecDeque<Visit> = VecDeque::new();
        let (mut discovered, mut scratch) = (Discovered::new(), ScanScratch::default());
        // Targets an object of the graph pointed at before the retrace and no
        // longer does, and the objects whose edges are new (re-scanned here,
        // traversed below): the sweep's whole input.
        let mut lost: Vec<Addr> = Vec::new();
        let mut delta: Vec<Addr> = Vec::new();
        let mut kept: Vec<Addr> = Vec::new();
        for &(addr, prev_ty) in &stale {
            match self.rescan_stale(addr, prev_ty, &mut discovered, &mut scratch) {
                // An object whose backing chunk was freed (or replaced by an
                // allocation with a different base) no longer resolves to the
                // same base; drop it — clean objects may keep dangling edges
                // to it, which every consumer ignores.
                None => {
                    let gone = graph.remove(addr).expect("the stale set comes from the graph");
                    graph.note_changed(gone.addr, gone.size);
                    lost.extend(self.followed(&gone));
                }
                Some(traced) => {
                    for (target, ty) in discovered.drain(..) {
                        if work.first_visit(graph, target.base) {
                            frontier.push_back((target.base, Some(target), ty));
                        }
                    }
                    kept.clear();
                    kept.extend(self.followed(&traced));
                    kept.sort_unstable();
                    let (size, opaque) = (traced.size, traced.likely_pointers.is_empty());
                    let prev = graph.insert(traced).expect("the stale set comes from the graph");
                    lost.extend(self.followed(&prev).filter(|t| kept.binary_search(t).is_err()));
                    // Its own likely pointers make an object a verbatim
                    // copy: gaining or losing them changes how it is written.
                    if prev.size != size || prev.likely_pointers.is_empty() != opaque {
                        graph.note_changed(addr, prev.size.max(size));
                    }
                    delta.push(addr);
                }
            }
        }
        for added in self.traverse(graph, frontier, &mut work).0 {
            graph.note_changed(added.addr, added.size);
            delta.push(added.addr);
            let replaced = graph.insert(added);
            debug_assert!(replaced.is_none(), "a traversal scans only objects outside the graph");
        }
        #[cfg(test)]
        let reached = reference::full_mark(self, graph);
        let swept = self.sweep_lost(graph, lost, delta);
        #[cfg(test)]
        reference::check_sweep(graph, &reached);
        let stats = self.finalize(graph, true);
        graph.seal_changed();
        (stats, swept)
    }

    /// The objects a delta retrace has to re-scan: those with a byte on a
    /// page written after epoch `since`, in address order — found from the
    /// dirty pages, so the cost follows what was written.
    fn stale_objects(&self, graph: &ObjectGraph, since: u64) -> Vec<(Addr, Option<TypeId>)> {
        let mut stale: Vec<(Addr, Option<TypeId>)> = Vec::new();
        for run in self.process.space().drain_dirty_since(since) {
            stale.extend(graph.overlapping(run.base, run.len).map(|o| (o.addr, o.type_id)));
        }
        // An object spanning two dirty runs is reported by both.
        stale.sort_unstable_by_key(|&(addr, _)| addr);
        stale.dedup_by_key(|&mut (addr, _)| addr);
        stale
    }

    /// The targets of `obj` the traversal follows: every pointer, precise or
    /// likely, except those into library state, which it does not trace.
    fn followed<'o>(&self, obj: &'o TracedObject) -> impl Iterator<Item = Addr> + 'o {
        obj.precise_pointers
            .iter()
            .chain(&obj.likely_pointers)
            .filter(|e| e.target_class != RegionClass::Lib)
            .map(|e| e.target_base)
    }

    /// The worklist traversal, in FIFO order: pop an object, scan it,
    /// enqueue every target seen for the first time (an interior pointer is
    /// enqueued as its object's base, so the first pointer popped wins).
    /// Only a root is resolved here; every other entry carries the
    /// resolution its discoverer made. `graph` is what the traversal resumes
    /// over; the scanned objects are returned in pop order, for the caller
    /// to file, with the work it took.
    fn traverse(
        &self,
        graph: &ObjectGraph,
        mut queue: VecDeque<Visit>,
        work: &mut Worklist,
    ) -> (Vec<TracedObject>, TraversalWork) {
        let (mut discovered, mut scratch) = (Discovered::new(), ScanScratch::default());
        let (mut scanned, mut resolved_at_pop) = (Vec::new(), 0);
        while let Some((base, resolved, declared)) = queue.pop_front() {
            let Some(resolved) = resolved.or_else(|| {
                resolved_at_pop += 1;
                self.resolve_object(base)
            }) else {
                continue;
            };
            debug_assert_eq!(resolved.base, base, "the worklist holds object bases");
            let type_id = resolved.type_id.or(declared);
            scanned.push(self.scan_resolved(resolved, type_id, &mut discovered, &mut scratch));
            for (target, ty) in discovered.drain(..) {
                if work.first_visit(graph, target.base) {
                    queue.push_back((target.base, Some(target), ty));
                }
            }
        }
        (scanned, TraversalWork { resolved_at_pop, conservative_reads: scratch.reads })
    }

    /// Re-scans one stale object of a delta retrace. Returns `None` when the
    /// object no longer resolves to the same base (freed or replaced).
    /// Declared root/pointee types are sticky: a fresh trace would re-derive
    /// them from the (unchanged) pointer declarations.
    fn rescan_stale(
        &self,
        addr: Addr,
        prev_ty: Option<TypeId>,
        discovered: &mut Discovered,
        scratch: &mut ScanScratch,
    ) -> Option<TracedObject> {
        let resolved = match self.resolve_object(addr) {
            Some(r) if r.base == addr => r,
            _ => return None,
        };
        let type_id = resolved.type_id.or(prev_ty);
        Some(self.scan_resolved(resolved, type_id, discovered, scratch))
    }

    /// Scans a resolved object: a pure read of process memory that returns
    /// the traced object and leaves its outgoing targets in `discovered`.
    fn scan_resolved(
        &self,
        resolved: ResolvedObject,
        type_id: Option<TypeId>,
        discovered: &mut Discovered,
        scratch: &mut ScanScratch,
    ) -> TracedObject {
        let mut traced = TracedObject {
            addr: resolved.base,
            size: resolved.size,
            origin: resolved.origin,
            class: resolved.class,
            type_id,
            dirty_epoch: self.object_dirty_epoch(resolved.base, resolved.size),
            startup: resolved.startup,
            immutable: false,
            precise_pointers: Vec::new(),
            likely_pointers: Vec::new(),
        };
        discovered.clear();
        self.scan_object(&mut traced, discovered, scratch);
        traced
    }

    /// The reachability sweep of a delta retrace, starting from what the
    /// retrace disconnected instead of from the roots.
    ///
    /// Before the retrace every object of the graph was reachable from a
    /// root. An object that no longer is had every path to it cut, and the
    /// edge cut last on such a path ends in a *lost* target — one a re-scanned
    /// object stopped naming, or any target of a removed object — from which
    /// the rest of the path, all of it still in the graph and all of it
    /// unreachable too, leads to the object. (An object the traversal just
    /// added hangs, through added objects, off a re-scanned one, so it is
    /// unreachable only below an unreachable old object.) So only descendants
    /// of lost targets can be garbage; with nothing lost the sweep does
    /// nothing.
    ///
    /// The walk down from the lost targets is pruned at objects that are
    /// certainly live: the roots, and whatever a root reaches through `delta`
    /// objects only (the re-scanned and the added ones). That is what keeps
    /// the common rewrites local — a head insert loses `table → old head`,
    /// but `table → new → old head` marks the old head live before the walk
    /// starts; an evict loses `table → head` and finds `head.next` live the
    /// same way, leaving the head and its value as the whole doubt set.
    ///
    /// The doubt set is then decided exactly: an object of it is live iff an
    /// object outside it (all of which are live) points at it, or a live
    /// object inside it does — one pass over the other objects' edges, then a
    /// closure inside the set, so cyclic garbage goes too.
    fn sweep_lost(&self, graph: &mut ObjectGraph, mut lost: Vec<Addr>, mut delta: Vec<Addr>) -> SweepWork {
        let mut work = SweepWork::default();
        lost.retain(|&t| graph.contains(t));
        if lost.is_empty() {
            return work;
        }
        delta.sort_unstable();

        let mut live: BTreeSet<u64> = BTreeSet::new();
        let mut stack: Vec<Addr> = Vec::new();
        for root in self.state.statics.roots() {
            let Some(base) = self.resolve_object(root.addr).map(|r| r.base) else { continue };
            if graph.contains(base) && live.insert(base.0) && delta.binary_search(&base).is_ok() {
                stack.push(base);
            }
        }
        while let Some(base) = stack.pop() {
            work.visited += 1;
            for target in self.followed(graph.get(base).expect("only graph objects are pushed")) {
                if graph.contains(target) && live.insert(target.0) && delta.binary_search(&target).is_ok() {
                    stack.push(target);
                }
            }
        }

        let mut doubt: BTreeSet<u64> = BTreeSet::new();
        for target in lost {
            if !live.contains(&target.0) && doubt.insert(target.0) {
                stack.push(target);
            }
        }
        while let Some(base) = stack.pop() {
            work.visited += 1;
            for target in self.followed(graph.get(base).expect("only graph objects are pushed")) {
                if graph.contains(target) && !live.contains(&target.0) && doubt.insert(target.0) {
                    stack.push(target);
                }
            }
        }
        work.doubt = doubt.len();
        let Some((&lowest, &highest)) = doubt.first().zip(doubt.last()) else { return work };

        // Referrers outside the doubt set, then the closure inside it.
        let doubt: Vec<u64> = doubt.into_iter().collect();
        let mut reached = vec![false; doubt.len()];
        let mut marked: Vec<usize> = Vec::new();
        fn mark(doubt: &[u64], reached: &mut [bool], marked: &mut Vec<usize>, target: Addr) {
            if let Ok(slot) = doubt.binary_search(&target.0) {
                if !std::mem::replace(&mut reached[slot], true) {
                    marked.push(slot);
                }
            }
        }
        let mut cursor = 0;
        for obj in graph.iter() {
            while cursor < doubt.len() && doubt[cursor] < obj.addr.0 {
                cursor += 1;
            }
            if doubt.get(cursor) == Some(&obj.addr.0) {
                continue;
            }
            work.visited += 1;
            for target in self.followed(obj).filter(|t| (lowest..=highest).contains(&t.0)) {
                mark(&doubt, &mut reached, &mut marked, target);
            }
        }
        while let Some(slot) = marked.pop() {
            let obj = graph.get(Addr(doubt[slot])).expect("the doubt set is part of the graph");
            for target in self.followed(obj) {
                mark(&doubt, &mut reached, &mut marked, target);
            }
        }
        for (&base, _) in doubt.iter().zip(&reached).filter(|(_, &live)| !live) {
            let gone = graph.remove(Addr(base)).expect("the doubt set is part of the graph");
            graph.note_changed(gone.addr, gone.size);
        }
        work
    }

    /// Recomputes everything derived from the graph's edges — conservative
    /// pins and the Table 2 statistics — in one pass over the objects; region
    /// classes were recorded by the scans, so nothing is looked up. Both the
    /// full trace and delta retraces end here, which is what guarantees that
    /// an incrementally maintained graph reports exactly like a fresh one. A
    /// retrace (`resumed`) also records which objects' pin status this
    /// changed.
    fn finalize(&self, graph: &mut ObjectGraph, resumed: bool) -> TracingStats {
        let mut stats = TracingStats::default();
        let mut pins: Vec<Addr> = Vec::new();
        let mut was_pinned: Vec<Addr> = Vec::new();
        for obj in graph.iter_mut() {
            if obj.immutable {
                was_pinned.push(obj.addr);
            }
            obj.immutable = false;
            for edge in obj.precise_pointers.iter() {
                stats.precise.record(obj.class, edge.target_class);
            }
            for edge in obj.likely_pointers.iter() {
                stats.likely.record(obj.class, edge.target_class);
                if edge.target_class != RegionClass::Lib {
                    // The conservatively-referenced target can no longer be
                    // relocated.
                    pins.push(edge.target_base);
                }
            }
            stats.objects_traced += 1;
            stats.traced_bytes += obj.size;
            if obj.is_dirty() {
                stats.dirty_objects += 1;
                stats.dirty_bytes += obj.size;
            }
        }
        pins.sort_unstable();
        pins.dedup();
        pins.retain(|&addr| {
            let Some(obj) = graph.get_mut(addr) else { return false };
            obj.immutable = true;
            true
        });
        stats.immutable_objects = pins.len() as u64;
        if resumed {
            let flipped = |a: &[Addr], b: &[Addr]| -> Vec<Addr> {
                a.iter().filter(|addr| b.binary_search(addr).is_err()).copied().collect()
            };
            for addr in flipped(&was_pinned, &pins).into_iter().chain(flipped(&pins, &was_pinned)) {
                let size = graph.get(addr).expect("pinned objects are in the graph").size;
                graph.note_changed(addr, size);
            }
        }
        stats
    }

    /// Scans one object for outgoing edges. Candidate traversal targets are
    /// appended to `discovered` in scan order; deduplication against the
    /// enqueued set is the traversal's, so this stays a pure read of process
    /// memory.
    fn scan_object(&self, traced: &mut TracedObject, discovered: &mut Discovered, scratch: &mut ScanScratch) {
        let treatment = match &traced.origin {
            ObjectOrigin::Static { symbol } => self.state.annotations.obj_treatment(symbol),
            _ => None,
        };

        // Decide the layout to scan.
        enum Plan<'p> {
            Typed(&'p [LayoutElement], u64),
            PointerSlots(&'p [u64]),
            Conservative,
        }
        let mask = match treatment {
            Some(ObjTreatment::EncodedPointers { mask_bits }) => pointer_mask(*mask_bits),
            _ => 0,
        };
        let plan = match (treatment, traced.type_id) {
            (Some(ObjTreatment::SkipTransfer), _) => return,
            (Some(ObjTreatment::ForceConservative), _) => Plan::Conservative,
            (Some(ObjTreatment::PointerSlots(offsets)), _) => Plan::PointerSlots(offsets),
            (_, Some(ty)) => match self.state.types.layout_elements(ty) {
                [] => Plan::Conservative,
                elems => Plan::Typed(elems, self.state.types.size_of(ty).max(1)),
            },
            (_, None) => Plan::Conservative,
        };

        match plan {
            Plan::Typed(elems, stride) => {
                // The pending opaque run: the next opaque element extends it
                // when it starts where the run ends, at an 8-aligned offset
                // (across an unaligned seam one run would also scan the word
                // straddling it, which neither element holds whole).
                let mut run = 0..0;
                for k in 0..(traced.size / stride).max(1) {
                    for elem in elems {
                        match *elem {
                            LayoutElement::Pointer { offset, to } => {
                                self.scan_conservative(traced, std::mem::take(&mut run), discovered, scratch);
                                self.follow_precise(traced, k * stride + offset, Some(to), mask, discovered);
                            }
                            LayoutElement::Opaque { offset, len } => {
                                let start = k * stride + offset;
                                if run.end == start && start.is_multiple_of(8) {
                                    run.end = start + len;
                                } else {
                                    let done = std::mem::replace(&mut run, start..start + len);
                                    self.scan_conservative(traced, done, discovered, scratch);
                                }
                            }
                            LayoutElement::Scalar { .. } => {}
                        }
                    }
                }
                self.scan_conservative(traced, run, discovered, scratch);
            }
            Plan::PointerSlots(offsets) => {
                for &off in offsets {
                    self.follow_precise(traced, off, None, mask, discovered);
                }
            }
            Plan::Conservative => {
                self.scan_conservative(traced, 0..traced.size, discovered, scratch);
            }
        }
    }

    /// Follows the pointer slot at `offset`; `mask` covers the low bits an
    /// encoded pointer keeps metadata in.
    fn follow_precise(
        &self,
        traced: &mut TracedObject,
        offset: u64,
        pointee: Option<TypeId>,
        mask: u64,
        discovered: &mut Discovered,
    ) {
        if offset + 8 > traced.size {
            return;
        }
        let slot = traced.addr.offset(offset);
        let Ok(raw) = self.process.space().read_u64(slot) else { return };
        let masked_bits = raw & mask;
        let value = raw & !mask;
        if value == 0 {
            return;
        }
        let target = Addr(value);
        // One region lookup answers "mapped?", the target's class and, below
        // the static registry, its resolution.
        let Some(region) = self.process.space().region_containing(target) else { return };
        let resolved = self.resolve_in(region, target);
        let target_base = resolved.as_ref().map_or(target, |r| r.base);
        let target_class = RegionClass::from_kind(region.kind());
        traced.precise_pointers.push(PointerEdge { offset, target, target_base, target_class, masked_bits });
        if let Some(resolved) = resolved {
            if target_class != RegionClass::Lib {
                // An interior pointer says nothing about the type at the base.
                // Nor does a pointee that does not tile the object: a typed
                // object is scanned and transferred in whole elements, so its
                // tail would be neither (a 96-byte value behind a pointer to
                // a 64-byte type would lose its last 32 bytes).
                let tiles = |ty| resolved.size % self.state.types.size_of(ty).max(1) == 0;
                let pointee = pointee.filter(|&ty| target == resolved.base && tiles(ty));
                discovered.push((resolved, pointee));
            }
        }
    }

    /// Scans the aligned words of the offset range `range` (clamped to the
    /// object) for likely pointers. The bytes are read in runs — one region
    /// lookup and one copy into `scratch` per run — that end where the
    /// region holding them ends, so a range that leaves its region (an object
    /// whose recorded size overruns it, a word straddling the end) yields
    /// exactly the words a word-by-word read reaches and skips the rest.
    fn scan_conservative(
        &self,
        traced: &mut TracedObject,
        range: Range<u64>,
        discovered: &mut Discovered,
        scratch: &mut ScanScratch,
    ) {
        let space = self.process.space();
        let end = range.end.min(traced.size);
        let mut word = range.start.div_ceil(8) * 8;
        while word + 8 <= end {
            let slot = traced.addr.offset(word);
            let readable = space.region_containing(slot).and_then(|region| {
                let run = (end - word).min(region.end().0 - slot.0).min(SCAN_CHUNK) / 8 * 8;
                (run > 0).then_some((region, run))
            });
            let Some((region, run)) = readable else {
                // Unmapped, or the word straddles the end of its region.
                word += 8;
                continue;
            };
            scratch.buf.resize(run as usize, 0);
            region.read_into(slot, &mut scratch.buf).expect("the run ends inside the region");
            scratch.reads += 1;
            for bytes in scratch.buf.chunks_exact(8) {
                let raw = Addr(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
                if let Some((resolved, targ_class)) = self.validate_likely_pointer(raw) {
                    traced.likely_pointers.push(PointerEdge {
                        offset: word,
                        target: raw,
                        target_base: resolved.base,
                        target_class: targ_class,
                        masked_bits: 0,
                    });
                    // Pinning is derived from these edges by the finalize
                    // pass; the traversal only needs to keep following
                    // reachable targets.
                    if targ_class != RegionClass::Lib {
                        discovered.push((resolved, None));
                    }
                }
                word += 8;
            }
        }
    }

    /// A word is a likely pointer when it is aligned and points inside a
    /// live, known object of the process; returns that object and the class
    /// of the region the word points into.
    fn validate_likely_pointer(&self, candidate: Addr) -> Option<(ResolvedObject, RegionClass)> {
        if candidate.is_null() || !candidate.is_aligned(8) {
            return None;
        }
        let region = self.process.space().region_containing(candidate)?;
        let resolved = self.resolve_in(region, candidate)?;
        Some((resolved, RegionClass::from_kind(region.kind())))
    }

    fn region_class_of(&self, addr: Addr) -> RegionClass {
        self.process
            .space()
            .region_containing(addr)
            .map(|r| RegionClass::from_kind(r.kind()))
            .unwrap_or(RegionClass::Dynamic)
    }

    /// The dirty stamp mutable tracing records on an object: the highest
    /// write epoch of its covering pages.
    fn object_dirty_epoch(&self, base: Addr, size: u64) -> u64 {
        self.process.space().range_dirty_epoch(base, size)
    }

    fn resolve_object(&self, addr: Addr) -> Option<ResolvedObject> {
        self.resolve_static(addr)
            .or_else(|| self.resolve_dynamic(self.process.space().region_containing(addr)?, addr))
    }

    /// [`resolve_object`](Self::resolve_object) for a caller that already
    /// looked up the region containing `addr`.
    fn resolve_in(&self, region: &MemoryRegion, addr: Addr) -> Option<ResolvedObject> {
        self.resolve_static(addr).or_else(|| self.resolve_dynamic(region, addr))
    }

    /// Registered static objects come first, whatever region holds them.
    fn resolve_static(&self, addr: Addr) -> Option<ResolvedObject> {
        let o = self.state.statics.object_containing(addr)?;
        Some(ResolvedObject {
            base: o.addr,
            size: o.size,
            origin: ObjectOrigin::Static { symbol: o.symbol.clone() },
            class: self.region_class_of(o.addr),
            type_id: Some(o.ty),
            startup: true,
        })
    }

    fn resolve_dynamic(&self, region: &MemoryRegion, addr: Addr) -> Option<ResolvedObject> {
        // Every object resolved below lies in `region`, or in one of its kind.
        let class = RegionClass::from_kind(region.kind());
        match region.kind() {
            RegionKind::Static => {
                // Unregistered static data (string constants and the like):
                // a synthetic word-sized object so likely pointers into it can
                // be counted and pinned.
                let base = Addr(addr.0 & !7);
                Some(ResolvedObject {
                    base,
                    size: 8,
                    origin: ObjectOrigin::Static { symbol: format!("static@{:#x}", base.0).into() },
                    class,
                    type_id: None,
                    startup: true,
                })
            }
            RegionKind::Heap => {
                // Instrumented region-allocator objects take precedence over
                // the backing heap chunk.
                if let Some((base, size, site, tag)) = self.process.regions().object_containing(addr) {
                    let site_name = self.state.sites.get(site).map(|s| s.name.clone());
                    let type_id = if tag.0 != 0 { Some(TypeId(tag.0)) } else { None };
                    return Some(ResolvedObject {
                        base,
                        size,
                        origin: ObjectOrigin::Pool { site: site_name },
                        class,
                        type_id,
                        startup: false,
                    });
                }
                let heap = self.process.heap()?;
                let chunk = heap.chunk_containing(self.process.space(), addr)?;
                let site_info = self.state.sites.get(chunk.site);
                let type_id = if chunk.type_tag.0 != 0 {
                    Some(TypeId(chunk.type_tag.0))
                } else {
                    site_info.and_then(|s| s.ty)
                };
                Some(ResolvedObject {
                    base: chunk.payload,
                    size: chunk.size,
                    origin: ObjectOrigin::Heap { site: site_info.map(|s| s.name.clone()) },
                    class,
                    type_id,
                    startup: chunk.startup,
                })
            }
            RegionKind::Lib => {
                let found = self
                    .state
                    .lib_objects
                    .iter()
                    .find(|(base, size, _)| addr.0 >= base.0 && addr.0 < base.0 + *size);
                match found {
                    Some((base, size, name)) => Some(ResolvedObject {
                        base: *base,
                        size: *size,
                        origin: ObjectOrigin::Lib { name: Some(name.clone()) },
                        class,
                        type_id: None,
                        startup: true,
                    }),
                    None => Some(ResolvedObject {
                        base: Addr(addr.0 & !7),
                        size: 8,
                        origin: ObjectOrigin::Lib { name: None },
                        class,
                        type_id: None,
                        startup: true,
                    }),
                }
            }
            RegionKind::Mmap => Some(ResolvedObject {
                base: region.base(),
                size: region.size(),
                origin: ObjectOrigin::Mmap,
                class,
                type_id: None,
                startup: true,
            }),
            RegionKind::Stack => None,
        }
    }
}

/// Convenience wrapper: traces one process.
///
/// # Errors
///
/// Fails if the process does not exist.
pub fn trace_process(
    kernel: &Kernel,
    state: &InstanceState,
    pid: Pid,
    options: TraceOptions,
) -> McrResult<TraceResult> {
    Ok(Tracer::new(kernel, state, pid, options)?.trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpose::Interposer;
    use crate::program::test_support::EnvExt;
    use crate::program::{InstanceState, ProgramEnv, ThreadRosterEntry};
    use mcr_procsim::MemoryLayout;
    use mcr_typemeta::{Field, InstrumentationConfig, TypeKind};

    /// Builds the Listing 1 scenario: `conf` (clean pointer to a heap
    /// config), `list` (linked list head with a dirty heap node), and
    /// `b` (char buffer hiding a pointer to a heap array).
    fn listing1() -> (Kernel, InstanceState, Pid) {
        let mut kernel = Kernel::new();
        let pid = kernel.create_process("listing1");
        let tid = kernel.process(pid).unwrap().main_tid();
        kernel.process_mut(pid).unwrap().setup_memory(MemoryLayout::default(), true).unwrap();
        let mut state =
            InstanceState::new("listing1", "1.0", InstrumentationConfig::full(), Interposer::recorder());
        state.processes.push(pid);
        state.add_roster_entry(ThreadRosterEntry {
            pid,
            tid,
            name: "main".into(),
            created_during_startup: true,
            exited: false,
        });

        (kernel, state, pid)
    }

    /// Registers the Listing 1 types (`conf_s`, `l_t`, pointers) into the
    /// instance's type registry.
    fn build_types(state: &mut InstanceState) {
        let mut types = mcr_typemeta::TypeRegistry::new();
        let int = types.int("int", 4);
        let conf = types.struct_type("conf_s", vec![Field::new("workers", int), Field::new("port", int)]);
        let _conf_ptr = types.pointer("conf_s*", conf);
        // Create the node struct with a pointer to a same-named placeholder:
        // first create a placeholder pointer target.
        let placeholder = types.opaque("l_t_fwd", 16);
        let node_ptr = types.pointer("l_t*", placeholder);
        let _node = types.register(
            "l_t",
            TypeKind::Struct { fields: vec![Field::new("value", int), Field::new("next", node_ptr)] },
        );
        state.types = types;
    }

    #[test]
    fn precise_and_conservative_tracing_of_listing1() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();

        // Build the program state through the environment.
        let (conf_global, list_global, b_global, heap_conf, node1, hidden_arr);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            conf_global = env.define_global("conf", "conf_s*").unwrap();
            list_global = env.define_global("list", "l_t").unwrap();
            b_global = env.define_global_opaque("b", 8).unwrap();

            heap_conf = env.alloc("conf_s", "server_init:conf").unwrap();
            env.write_u32(heap_conf, 4).unwrap();
            env.write_ptr(conf_global, heap_conf).unwrap();

            // Page-sized padding keeps the config and the node on different
            // pages, so dirtying the node does not dirty the config.
            let _pad = env.alloc_bytes(2 * mcr_procsim::PAGE_SIZE, "pad").unwrap();
            node1 = env.alloc("l_t", "handle_event:node").unwrap();
            env.write_u32(node1, 5).unwrap();
            env.write_u32(list_global, 1).unwrap();
            env.write_ptr(list_global.offset(8), node1).unwrap();

            hidden_arr = env.alloc_bytes(24, "handle_event:buf").unwrap();
            env.write_ptr(b_global, hidden_arr).unwrap();
        }

        // Startup is over: clear dirty bits, then dirty only the node.
        kernel.process_mut(pid).unwrap().space_mut().clear_soft_dirty();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            env.write_u32(node1, 6).unwrap();
        }

        let result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        let graph = &result.graph;

        // conf -> heap conf_s followed precisely.
        let conf_obj = graph.get(conf_global).expect("conf global traced");
        assert_eq!(conf_obj.precise_pointers.len(), 1);
        assert_eq!(conf_obj.precise_pointers[0].target_base, heap_conf);
        assert!(graph.get(heap_conf).is_some());
        assert!(!graph.get(heap_conf).unwrap().is_dirty(), "config untouched after startup");

        // list.next -> node followed precisely; node is dirty.
        let list_obj = graph.get(list_global).expect("list traced");
        assert_eq!(list_obj.precise_pointers.len(), 1);
        assert_eq!(list_obj.precise_pointers[0].offset, 8);
        let node_obj = graph.get(node1).expect("node traced");
        assert!(node_obj.is_dirty());

        // b scanned conservatively: hidden array pinned immutable.
        let b_obj = graph.get(b_global).expect("b traced");
        assert_eq!(b_obj.likely_pointers.len(), 1);
        let hidden = graph.get(hidden_arr).expect("hidden array traced");
        assert!(hidden.immutable);

        // Statistics.
        assert_eq!(result.stats.precise.total, 2);
        assert_eq!(result.stats.likely.total, 1);
        assert!(result.stats.precise.src_static >= 2);
        assert_eq!(result.stats.likely.targ_dynamic, 1);
        assert!(result.stats.objects_traced >= 6);
        assert!(result.stats.dirty_objects >= 1);
        assert!(result.stats.dirty_reduction() > 0.0);
    }

    /// Delta retrace converges to the same graph and statistics as a fresh
    /// full trace of the same memory, while only revisiting dirtied objects.
    #[test]
    fn retrace_dirty_matches_fresh_trace() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        let (list_global, node1, node2);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            list_global = env.define_global("list", "l_t").unwrap();
            node1 = env.alloc("l_t", "handle_event:node").unwrap();
            node2 = env.alloc("l_t", "handle_event:node").unwrap();
            env.write_u32(node1, 1).unwrap();
            env.write_ptr(list_global.offset(8), node1).unwrap();
        }
        kernel.process_mut(pid).unwrap().space_mut().clear_soft_dirty();

        let mut result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        assert!(result.graph.get(node2).is_none(), "unlinked node is unreachable");
        let since = kernel.process_mut(pid).unwrap().space_mut().advance_write_epoch();

        // Mutate after the epoch: bump a value and link the second node.
        {
            let space = kernel.process_mut(pid).unwrap().space_mut();
            space.write_u32(node1, 2).unwrap();
            space.write_u64(node1.offset(8), node2.0).unwrap();
        }

        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions).unwrap();
        result.stats = result.graph.retrace_dirty(&tracer, since);
        let fresh = trace_process(&kernel, &state, pid, TraceOptions).unwrap();

        assert_eq!(result.stats, fresh.stats, "retraced statistics diverged from a fresh trace");
        let incremental: Vec<_> = result.graph.iter().collect();
        let scratch: Vec<_> = fresh.graph.iter().collect();
        assert_eq!(incremental, scratch, "retraced graph diverged from a fresh trace");
        assert!(result.graph.get(node2).is_some(), "newly linked node was discovered");
        assert!(result.graph.get(node1).unwrap().dirty_epoch > since);

        // Unlink node2 again: the next retrace sweeps it.
        let since2 = kernel.process_mut(pid).unwrap().space_mut().advance_write_epoch();
        kernel.process_mut(pid).unwrap().space_mut().write_u64(node1.offset(8), 0).unwrap();
        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions).unwrap();
        result.stats = result.graph.retrace_dirty(&tracer, since2);
        assert!(result.graph.get(node2).is_none(), "unreachable node was swept");
        let fresh = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        assert_eq!(result.stats, fresh.stats);
    }

    #[test]
    fn pointer_slot_annotation_upgrades_hidden_pointer_to_precise() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        let (b_global, hidden);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            b_global = env.define_global_opaque("b", 8).unwrap();
            hidden = env.alloc("conf_s", "init:hidden").unwrap();
            env.write_ptr(b_global, hidden).unwrap();
            env.add_obj_handler("b", ObjTreatment::PointerSlots(vec![0]));
        }
        let result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        let b_obj = result.graph.get(b_global).unwrap();
        assert_eq!(b_obj.precise_pointers.len(), 1);
        assert!(b_obj.likely_pointers.is_empty());
        // The target is reached precisely, so it is not pinned.
        assert!(!result.graph.get(hidden).unwrap().immutable);
    }

    #[test]
    fn encoded_pointers_are_masked_before_following() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        let (tagged_global, target);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            tagged_global = env.define_global("tagged", "conf_s*").unwrap();
            target = env.alloc("conf_s", "init:enc").unwrap();
            // Store the pointer with metadata in the low 2 bits, nginx-style.
            env.write_u64(tagged_global, target.0 | 0b11).unwrap();
            env.add_obj_handler("tagged", ObjTreatment::EncodedPointers { mask_bits: 2 });
        }
        let result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        let obj = result.graph.get(tagged_global).unwrap();
        assert_eq!(obj.precise_pointers.len(), 1);
        assert_eq!(obj.precise_pointers[0].target_base, target);
        assert_eq!(obj.precise_pointers[0].masked_bits, 0b11);
        assert!(result.graph.get(target).is_some());
    }

    #[test]
    fn library_targets_counted_but_not_traversed() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        let lib_obj;
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            let g = env.define_global("ssl_ctx", "conf_s*").unwrap();
            lib_obj = env.lib_alloc(64, "libssl:ctx").unwrap();
            env.write_ptr(g, lib_obj).unwrap();
        }
        let result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        assert_eq!(result.stats.precise.targ_lib, 1);
        assert!(result.graph.get(lib_obj).is_none(), "library state is not traced");
    }

    /// Pins the documented `retrace_dirty` caveat as an asserted known
    /// limit: an instrumented pool object freed *without any store touching
    /// its pages* (here: `destroy_pool`, whose only store is the heap
    /// free-list metadata on the pool storage's first page) and still
    /// referenced by a dangling pointer survives a delta retrace, while a
    /// fresh trace of the same memory resolves the address differently and
    /// drops it. If this test starts failing because the graphs agree, the
    /// caveat has been fixed — update the `retrace_dirty` docs.
    #[test]
    fn retrace_dirty_caveat_pool_free_without_store_diverges_from_fresh_trace() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        // Instrumented region allocator: pool objects resolve individually.
        kernel.process_mut(pid).unwrap().set_region_allocator(mcr_procsim::RegionAllocator::new(true));
        let (pool, victim);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            let root = env.define_global_opaque("pool_root", 8).unwrap();
            pool = env.create_pool(4 * mcr_procsim::PAGE_SIZE, None).unwrap();
            // Page-sized padding puts the victim on a later page of the pool
            // storage, away from the free-list metadata written by `free`.
            let _pad = env.palloc_bytes(pool, 2 * mcr_procsim::PAGE_SIZE, "pool:pad").unwrap();
            victim = env.palloc_bytes(pool, 64, "pool:victim").unwrap();
            env.write_u64(victim, 0x5a5a).unwrap();
            env.write_ptr(root, victim).unwrap();
        }
        kernel.process_mut(pid).unwrap().space_mut().clear_soft_dirty();

        let mut result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        let traced = result.graph.get(victim).expect("victim traced through the pool record");
        assert!(matches!(traced.origin, crate::tracing::graph::ObjectOrigin::Pool { .. }));
        let since = kernel.process_mut(pid).unwrap().space_mut().advance_write_epoch();

        // Free the pool. The only store goes to the storage chunk's first
        // page (ptmalloc free-list metadata); the victim's page is untouched,
        // so page-granular staleness detection cannot see the free.
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            env.destroy_pool(pool).unwrap();
        }

        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions).unwrap();
        result.stats = result.graph.retrace_dirty(&tracer, since);
        let fresh = trace_process(&kernel, &state, pid, TraceOptions).unwrap();

        // The caveat: the stale pool object survives the retrace...
        assert!(
            result.graph.get(victim).is_some(),
            "known limit: the freed pool object survives a delta retrace"
        );
        // ...while the fresh trace no longer resolves it as a pool object.
        let fresh_victim = fresh.graph.get(victim);
        let fresh_is_pool = fresh_victim
            .map(|o| matches!(o.origin, crate::tracing::graph::ObjectOrigin::Pool { .. }))
            .unwrap_or(false);
        assert!(!fresh_is_pool, "fresh trace resolves the freed pool address differently");
        assert_ne!(
            result.stats, fresh.stats,
            "the divergence is the documented caveat — if this starts failing, the limit was fixed"
        );
    }

    /// A bucketed table of doubly linked `d_t` chains the mutation tests
    /// rewrite through raw stores, the way a running server would.
    struct Chains {
        kernel: Kernel,
        state: InstanceState,
        pid: Pid,
        table: Addr,
        buckets: u64,
        /// Every live `d_t`-shaped node ever linked (mutations pick from it).
        nodes: Vec<Addr>,
        allocated: u64,
    }

    /// `d_t` field offsets: `value` is at 0.
    const NEXT: u64 = 8;
    const PREV: u64 = 16;
    const AUX: u64 = 24;

    impl Chains {
        /// `buckets x depth` nodes; every node's `aux` owns an untyped blob
        /// when `blobs` is set (the cache's entry → value shape).
        fn new(buckets: u64, depth: u64, blobs: bool) -> Self {
            let (kernel, mut state, pid) = listing1();
            build_types(&mut state);
            let int = state.types.lookup("int").unwrap();
            let fwd = state.types.opaque("d_t_fwd", 32);
            let ptr = state.types.pointer("d_t*", fwd);
            state.types.register(
                "d_t",
                TypeKind::Struct {
                    fields: vec![
                        Field::new("value", int),
                        Field::new("next", ptr),
                        Field::new("prev", ptr),
                        Field::new("aux", ptr),
                    ],
                },
            );
            state.types.array("d_t*[]", ptr, buckets);
            let mut chains =
                Chains { kernel, state, pid, table: Addr::NULL, buckets, nodes: Vec::new(), allocated: 0 };
            chains.table = chains.env().define_global("table", "d_t*[]").unwrap();
            for i in 0..buckets * depth {
                let node = chains.insert_head(i % buckets);
                if blobs {
                    let blob = chains.env().alloc_bytes(64, "set:value").unwrap();
                    chains.store(blob.offset(8), 0x6c6f_6221);
                    chains.store(node.offset(AUX), blob.0);
                }
            }
            chains.kernel.process_mut(pid).unwrap().space_mut().clear_soft_dirty();
            chains
        }

        fn env(&mut self) -> ProgramEnv<'_> {
            let tid = self.kernel.process(self.pid).unwrap().main_tid();
            ProgramEnv::new(&mut self.kernel, &mut self.state, self.pid, tid, "main")
        }

        fn store(&mut self, slot: Addr, value: u64) {
            self.kernel.process_mut(self.pid).unwrap().space_mut().write_u64(slot, value).unwrap();
        }

        fn load(&self, slot: Addr) -> Addr {
            Addr(self.kernel.process(self.pid).unwrap().space().read_u64(slot).unwrap())
        }

        fn slot(&self, bucket: u64) -> Addr {
            self.table.offset(bucket * 8)
        }

        fn chain(&self, bucket: u64) -> Vec<Addr> {
            let mut out = Vec::new();
            let mut node = self.load(self.slot(bucket));
            while !node.is_null() && out.len() < 10_000 {
                out.push(node);
                node = self.load(node.offset(NEXT));
            }
            out
        }

        /// A new node, followed by a freed filler (first fit hands it to a
        /// later allocation, or to a node growing in place) and, for every
        /// third one, a page of padding — so some nodes share a page and some
        /// do not.
        fn alloc_node(&mut self) -> Addr {
            let mut env = self.env();
            let node = env.alloc("d_t", "set:node").unwrap();
            let filler = env.alloc_bytes(48, "set:filler").unwrap();
            env.free(filler).unwrap();
            self.allocated += 1;
            if self.allocated.is_multiple_of(3) {
                self.env().alloc_bytes(mcr_procsim::PAGE_SIZE, "pad").unwrap();
            }
            self.store(node, 1000 + self.allocated);
            self.nodes.push(node);
            node
        }

        fn insert_head(&mut self, bucket: u64) -> Addr {
            let node = self.alloc_node();
            self.link_head(bucket, node);
            node
        }

        fn link_head(&mut self, bucket: u64, node: Addr) {
            let head = self.load(self.slot(bucket));
            self.store(node.offset(NEXT), head.0);
            if self.nodes.contains(&head) {
                self.store(head.offset(PREV), node.0);
            }
            self.store(self.slot(bucket), node.0);
        }

        /// Unlinks `count` adjacent nodes starting at position `at`, leaving
        /// the unlinked nodes' own pointers alone: one node is acyclic
        /// garbage, two are a cycle (`a.next = b`, `b.prev = a`).
        fn unlink(&mut self, bucket: u64, at: usize, count: usize) {
            let chain = self.chain(bucket);
            if at + count > chain.len() {
                return;
            }
            let before = if at == 0 { self.slot(bucket) } else { chain[at - 1].offset(NEXT) };
            let after = chain.get(at + count).copied().unwrap_or(Addr::NULL);
            self.store(before, after.0);
            if self.nodes.contains(&after) {
                self.store(after.offset(PREV), if at == 0 { 0 } else { chain[at - 1].0 });
            }
        }

        /// Frees the head of `bucket` outright, after clearing every pointer
        /// to it (the freed chunk is reused by later allocations, and a
        /// dangling pointer coming back to life in a clean object is beyond
        /// what a retrace can see). Whatever only the freed node kept alive
        /// is garbage.
        fn free_head(&mut self, bucket: u64, slots: &[Addr]) -> Option<Addr> {
            let victim = *self.chain(bucket).first()?;
            if !self.nodes.contains(&victim) {
                return None;
            }
            self.unlink(bucket, 0, 1);
            self.nodes.retain(|&n| n != victim);
            let fields = self.nodes.iter().flat_map(|n| [NEXT, PREV, AUX].map(|off| n.offset(off)));
            let holders: Vec<Addr> = (0..self.buckets).map(|b| self.slot(b)).chain(fields).collect();
            for slot in holders.into_iter().chain(slots.iter().copied()) {
                if self.load(slot) == victim {
                    self.store(slot, 0);
                }
            }
            self.env().free(victim).unwrap();
            Some(victim)
        }

        /// Frees `node` and allocates a `type_name` array of `count`
        /// elements at the very same address, linked as the head of
        /// `bucket`. False when the room behind the node is taken.
        fn reallocate_at(&mut self, node: Addr, type_name: &str, count: u64, bucket: u64) -> bool {
            let ty = self.state.types.lookup(type_name).unwrap();
            let size = count * self.state.types.size_of(ty);
            let site = self.state.sites.register("set:reused", Some(ty));
            let (space, heap) = self.kernel.process_mut(self.pid).unwrap().space_and_heap_mut().unwrap();
            heap.free(space, node).unwrap();
            let tag = mcr_procsim::TypeTag(ty.0);
            if heap.malloc_at(space, node, size, site, tag).is_err() {
                heap.malloc_at(
                    space,
                    node,
                    32,
                    site,
                    mcr_procsim::TypeTag(self.state.types.lookup("d_t").unwrap().0),
                )
                .expect("the node's own chunk is free again");
                return false;
            }
            space.fill(node, size as usize, 0).unwrap();
            if size < 32 {
                // An `l_t` has no `prev`/`aux`: nothing may store there.
                self.nodes.retain(|&n| n != node);
            }
            self.store(node, 7000 + size);
            self.link_head(bucket, node);
            true
        }

        fn tracer(&self) -> Tracer<'_> {
            Tracer::new(&self.kernel, &self.state, self.pid, TraceOptions).unwrap()
        }

        /// Retraces `result` and holds it to a fresh trace of the same
        /// memory: graph (pins included) and statistics; inside, the retrace
        /// checks itself against `reference.rs`. And every object that
        /// entered or left the graph, or changed size or pin status, must lie
        /// in a range the graph recorded as changed: the completing transfer
        /// pass rewrites a clean object only when such a range covers it or
        /// one of its targets.
        fn retrace_and_check(&self, result: &mut TraceResult, since: u64, step: &str) -> SweepWork {
            let before = result.graph.clone();
            let (stats, work) = self.tracer().retrace(&mut result.graph, since);
            result.stats = stats;
            let fresh = self.tracer().trace();
            let retraced: Vec<_> = result.graph.iter().collect();
            let scratch: Vec<_> = fresh.graph.iter().collect();
            assert_eq!(retraced, scratch, "{step}: retraced graph diverged from a fresh trace");
            assert_eq!(result.stats, fresh.stats, "{step}: retraced statistics diverged from a fresh trace");
            let shape = |o: &TracedObject| (o.size, o.immutable, o.likely_pointers.is_empty());
            for addr in before.iter().chain(result.graph.iter()).map(|o| o.addr) {
                let (was, now) = (before.get(addr).map(shape), result.graph.get(addr).map(shape));
                assert!(
                    was == now || result.graph.range_changed(addr),
                    "{step}: {addr} went from {was:?} to {now:?} outside every recorded range"
                );
            }
            work
        }

        fn advance_epoch(&mut self) -> u64 {
            self.kernel.process_mut(self.pid).unwrap().space_mut().advance_write_epoch()
        }
    }

    /// Seeded mutation sequences over the chains — head inserts; unlinking a
    /// head, a middle node, a tail and an adjacent pair (cyclic garbage);
    /// re-linking a previously lost node from some node's `aux`; overwriting
    /// a root slot; freeing a node and reallocating its address with a
    /// smaller and a larger object; freeing a node outright; a hidden pointer
    /// that pins a node and
    /// keeps it alive; a library object holding a pointer, never traced —
    /// and after every retrace the graph, the pins and the statistics equal
    /// both the whole-graph mark and a fresh trace.
    #[test]
    fn retrace_matches_full_mark_and_fresh_trace_under_seeded_mutations() {
        use crate::runtime::chaos::ChaosRng;
        for seed in 1..=5u64 {
            let mut chains = Chains::new(8, 4, false);
            let (hidden, lib_root, lib_obj, big);
            {
                let mut env = chains.env();
                hidden = env.define_global_opaque("hidden", 16).unwrap();
                lib_root = env.define_global("lib_root", "d_t*").unwrap();
                lib_obj = env.lib_alloc(64, "libx:ctx").unwrap();
                env.write_ptr(lib_root, lib_obj).unwrap();
                // A blob spanning three pages: a store to its last page must
                // still find the object, which starts two pages earlier.
                let big_ref = env.define_global("big_ref", "d_t*").unwrap();
                big = env.alloc_bytes(3 * mcr_procsim::PAGE_SIZE, "set:big").unwrap();
                env.write_ptr(big_ref, big).unwrap();
            }
            let page = mcr_procsim::PAGE_SIZE;
            let hidden_slots = [hidden.offset(8), lib_obj, big.offset(2 * page + 64), big.offset(page - 64)];
            chains.kernel.process_mut(chains.pid).unwrap().space_mut().clear_soft_dirty();
            let mut rng = ChaosRng::new(seed);
            let mut result = chains.tracer().trace();
            // Nodes some retrace saw leave the graph, still allocated.
            let mut lost: Vec<Addr> = Vec::new();
            let mut swept_something = false;
            for step in 0..60 {
                let since = chains.advance_epoch();
                let mut applied = Vec::new();
                for _ in 0..rng.range(1, 4) {
                    let bucket = rng.range(0, chains.buckets);
                    let chain = chains.chain(bucket);
                    let op = rng.range(0, 11);
                    applied.push(op);
                    match op {
                        0 | 1 => {
                            chains.insert_head(bucket);
                        }
                        2 => chains.unlink(bucket, 0, 1),
                        3 => chains.unlink(bucket, chain.len() / 2, 1),
                        4 => chains.unlink(bucket, chain.len().saturating_sub(1), 1),
                        5 => chains.unlink(bucket, rng.range(0, 2) as usize, 2),
                        6 => {
                            // `aux` of a random node names a random node,
                            // preferably one an earlier retrace dropped.
                            let pool = if lost.is_empty() || rng.chance(30) { &chains.nodes } else { &lost };
                            let target = pool[rng.range(0, pool.len() as u64) as usize];
                            let holder = chains.nodes[rng.range(0, chains.nodes.len() as u64) as usize];
                            chains.store(holder.offset(AUX), if rng.chance(20) { 0 } else { target.0 });
                        }
                        7 => {
                            // Overwrite a root slot: with nothing, or with
                            // the inside of another bucket's chain.
                            let other = chains.chain(rng.range(0, chains.buckets));
                            let value = other.get(1).filter(|_| rng.chance(50)).map_or(0, |n| n.0);
                            chains.store(chains.slot(bucket), value);
                        }
                        8 => {
                            if let Some(&victim) = chain.first() {
                                chains.unlink(bucket, 0, 1);
                                let (ty, count) = if rng.chance(50) { ("l_t", 1) } else { ("d_t", 2) };
                                chains.reallocate_at(victim, ty, count, rng.range(0, chains.buckets));
                                lost.retain(|&n| n != victim);
                            }
                        }
                        9 => {
                            if let Some(victim) = chains.free_head(bucket, &hidden_slots) {
                                lost.retain(|&n| n != victim);
                            }
                        }
                        _ => {
                            let node = chains.nodes[rng.range(0, chains.nodes.len() as u64) as usize];
                            let value = if rng.chance(30) { 0 } else { node.0 };
                            match rng.range(0, 6) {
                                // A hidden pointer: in a static buffer, in
                                // the library object, deep inside the blob.
                                slot @ 0..=3 => chains.store(hidden_slots[slot as usize], value),
                                // The library object: dropped by its root,
                                // named by a heap node.
                                4 => chains.store(lib_root, if rng.chance(50) { 0 } else { lib_obj.0 }),
                                _ => chains.store(node.offset(AUX), lib_obj.0),
                            }
                        }
                    }
                }
                let before: Vec<Addr> = result.graph.iter().map(|o| o.addr).collect();
                let label = format!("seed {seed}, step {step}, ops {applied:?}");
                chains.retrace_and_check(&mut result, since, &label);
                for addr in before.into_iter().filter(|&a| !result.graph.contains(a)) {
                    swept_something = true;
                    if chains.nodes.contains(&addr) && !lost.contains(&addr) {
                        lost.push(addr);
                    }
                }
                lost.retain(|&n| !result.graph.contains(n));
            }
            assert!(swept_something, "seed {seed}: the sequence never made garbage");
            assert!(result.graph.any_changed());
        }
    }

    /// The sweep's work follows what was disconnected, as counts: nothing
    /// lost, nothing visited; an evicted head costs the head and its value;
    /// a head insert is decided by the certainly-live walk alone.
    #[test]
    fn sweep_work_is_bounded_by_what_the_retrace_disconnected() {
        // The cache's shape: 64 buckets x 32 entries, one value blob each.
        let mut chains = Chains::new(64, 32, true);
        let mut result = chains.tracer().trace();
        let objects = result.graph.len();
        assert!(objects >= 2 * 64 * 32, "{objects} objects traced");

        // Stores that change no edge (an LRU touch on every 50th node).
        let since = chains.advance_epoch();
        for node in chains.nodes.clone().into_iter().step_by(50) {
            chains.store(node, 0xd1d1);
        }
        let work = chains.retrace_and_check(&mut result, since, "touch");
        assert_eq!(work, SweepWork::default(), "no edge lost, nothing to sweep");

        // A head insert: `table → new → old head` keeps the old head live.
        let since = chains.advance_epoch();
        let inserted = chains.insert_head(63);
        let work = chains.retrace_and_check(&mut result, since, "insert");
        assert_eq!(work.doubt, 0, "{work:?}");
        assert!(work.visited < 16, "the table and the new node: {work:?}");
        assert!(result.graph.contains(inserted));

        // k evictions from distinct buckets: each leaves its head and the
        // head's value in doubt, and both go.
        for k in [1usize, 5] {
            let since = chains.advance_epoch();
            for bucket in 0..k as u64 {
                chains.unlink(bucket, 0, 1);
            }
            let before = result.graph.len();
            let work = chains.retrace_and_check(&mut result, since, "evict");
            assert!(work.doubt <= 2 * k, "{k} evictions: {work:?}");
            assert_eq!(before - result.graph.len(), 2 * k, "{k} heads and their values swept");
            // One pass over the other objects' edges decides the doubt set.
            assert!(work.visited <= result.graph.len() + 4 * k + 16, "{work:?}");
        }
    }

    /// What `scan_conservative` found: the likely-pointer edges and the
    /// targets queued for traversal.
    type Scan = (Vec<PointerEdge>, Vec<(Addr, Option<TypeId>)>);

    /// A bare object over `[addr, addr + size)` to scan.
    fn untyped_object(addr: Addr, size: u64) -> TracedObject {
        TracedObject {
            addr,
            size,
            origin: ObjectOrigin::Mmap,
            class: RegionClass::Dynamic,
            type_id: None,
            dirty_epoch: 0,
            startup: true,
            immutable: false,
            precise_pointers: Vec::new(),
            likely_pointers: Vec::new(),
        }
    }

    /// The reference the run-based scan is held to: one `read_u64` per
    /// aligned word of the range, a failed read skipping that word only.
    fn scan_word_by_word(tracer: &Tracer<'_>, obj: &TracedObject, offset: u64, len: u64) -> Scan {
        let (mut edges, mut discovered) = (Vec::new(), Vec::new());
        let end = (offset + len).min(obj.size);
        let mut word = offset.div_ceil(8) * 8;
        while word + 8 <= end {
            if let Ok(raw) = tracer.process.space().read_u64(obj.addr.offset(word)) {
                if let Some((target, class)) = tracer.validate_likely_pointer(Addr(raw)) {
                    edges.push(PointerEdge {
                        offset: word,
                        target: Addr(raw),
                        target_base: target.base,
                        target_class: class,
                        masked_bits: 0,
                    });
                    if class != RegionClass::Lib {
                        discovered.push((target.base, None));
                    }
                }
            }
            word += 8;
        }
        (edges, discovered)
    }

    /// Scans `[offset, offset + len)` of `obj` both ways, holds the run-based
    /// scan to the reference edge for edge, and returns the edge offsets.
    fn scanned_offsets(tracer: &Tracer<'_>, obj: &TracedObject, offset: u64, len: u64) -> Vec<u64> {
        let mut traced = obj.clone();
        let mut discovered = Vec::new();
        // A dirty, oversized scratch buffer: nothing of it may leak into a scan.
        let mut scratch = ScanScratch { buf: vec![0xa5; 3 * SCAN_CHUNK as usize], reads: 0 };
        tracer.scan_conservative(&mut traced, offset..offset + len, &mut discovered, &mut scratch);
        let discovered: Vec<_> = discovered.iter().map(|(target, ty)| (target.base, *ty)).collect();
        let reference = scan_word_by_word(tracer, obj, offset, len);
        assert_eq!((traced.likely_pointers.clone(), discovered), reference, "object at {}", obj.addr);
        traced.likely_pointers.iter().map(|e| e.offset).collect()
    }

    /// The conservative scan reads runs of bytes, not words; every way a run
    /// can end early must leave the edges exactly those of the word-by-word
    /// walk: the object's region ending (with nothing, or another region,
    /// mapped behind it), a word straddling that end, an absent page in the
    /// middle, a range longer than one scratch chunk, an unaligned opaque run.
    #[test]
    fn conservative_scan_matches_the_word_by_word_reference() {
        use mcr_procsim::PAGE_SIZE;
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        let target = {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            env.alloc_bytes(64, "scan:target").unwrap()
        };
        let pages = 2 * SCAN_CHUNK / PAGE_SIZE + 3;
        let (lone, front, back, sparse) =
            (Addr(0x6000_0000), Addr(0x6100_0000), Addr(0x6100_0000 + PAGE_SIZE), Addr(0x6200_0000));
        let space = kernel.process_mut(pid).unwrap().space_mut();
        for (base, size) in
            [(lone, PAGE_SIZE), (front, PAGE_SIZE), (back, PAGE_SIZE), (sparse, pages * PAGE_SIZE)]
        {
            space.map_region(base, size, RegionKind::Mmap, format!("scan@{base}")).unwrap();
        }
        let interior = target.offset(16);
        // Pointers in the last two words of `lone` and `front`, in a word the
        // two regions share, and in the first full word of `back`.
        for region in [lone, front] {
            space.write_u64(region.offset(PAGE_SIZE - 16), target.0).unwrap();
            space.write_u64(region.offset(PAGE_SIZE - 8), interior.0).unwrap();
        }
        space.write_u64(back.offset(4), target.0).unwrap();
        space.write_u64(back.offset(12), target.0).unwrap();
        // `sparse`: pointers on its first and last page and on both sides of
        // each scratch-chunk boundary; every page in between stays absent.
        let sparse_slots =
            [0, SCAN_CHUNK - 8, SCAN_CHUNK, 2 * SCAN_CHUNK - 8, 2 * SCAN_CHUNK, pages * PAGE_SIZE - 8];
        for off in sparse_slots {
            space.write_u64(sparse.offset(off), interior.0).unwrap();
        }
        assert!(space.resident_pages() < 40, "the middle of `sparse` is demand-zero");

        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions).unwrap();

        // Recorded size runs past the end of the region, nothing mapped behind.
        let overrun = untyped_object(lone.offset(PAGE_SIZE - 32), 96);
        assert_eq!(scanned_offsets(&tracer, &overrun, 0, 96), [16, 24]);
        // Unaligned base: the words are at -20, -12, -4 (straddling the end,
        // unreadable) and, in the adjacent region, +4, +12.
        let straddling = untyped_object(front.offset(PAGE_SIZE - 20), 40);
        assert_eq!(scanned_offsets(&tracer, &straddling, 0, 40), [24, 32]);
        // Aligned base across two adjacent regions: both sides are scanned.
        let across = untyped_object(front.offset(PAGE_SIZE - 16), 16 + PAGE_SIZE);
        assert_eq!(scanned_offsets(&tracer, &across, 0, across.size), [0, 8]);
        // Absent pages and more than one chunk.
        let whole = untyped_object(sparse, pages * PAGE_SIZE);
        assert_eq!(scanned_offsets(&tracer, &whole, 0, whole.size), sparse_slots);
        // An opaque run at an unaligned offset covers only its whole words:
        // [5, 5 + 2·CHUNK) holds the words 8 .. 2·CHUNK - 8.
        assert_eq!(scanned_offsets(&tracer, &whole, 5, 2 * SCAN_CHUNK), sparse_slots[1..4]);
        assert_eq!(scanned_offsets(&tracer, &whole, 1, 14), [0u64; 0], "no whole word inside");
        // A start past the object's recorded size scans nothing.
        assert_eq!(scanned_offsets(&tracer, &overrun, 96, 8), [0u64; 0]);
    }

    #[test]
    fn uninstrumented_pool_objects_scanned_conservatively() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        let (pool_obj, victim);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            // The root is an opaque word (no precise type information), as is
            // typical for globals managed by a custom allocator.
            let g = env.define_global_opaque("pool_root", 8).unwrap();
            let pool = env.create_pool(1024, None).unwrap();
            pool_obj = env.palloc_bytes(pool, 64, "nginx:request").unwrap();
            victim = env.alloc("conf_s", "init:victim").unwrap();
            // The pool object stores a pointer the heap allocator knows
            // nothing about.
            env.write_ptr(pool_obj, victim).unwrap();
            env.write_ptr(g, pool_obj).unwrap();
        }
        let result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        // The pool storage chunk is untyped, so the pointer inside it is a
        // likely pointer and its target is pinned.
        assert!(result.stats.likely.total >= 1);
        assert!(result.graph.get(victim).unwrap().immutable);
    }

    /// Every shape a discovery can take. Each trace asserts itself equal to
    /// resolving at pop, skipping bases already in the graph, filing per
    /// object and reading per opaque element (graph, pins, statistics, edge
    /// order); the asserts below pin what each shape comes out as.
    #[test]
    fn traversal_matches_resolving_at_pop_on_every_discovery_shape() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        kernel.process_mut(pid).unwrap().set_region_allocator(mcr_procsim::RegionAllocator::new(true));
        let tid = kernel.process(pid).unwrap().main_tid();
        {
            let types = &mut state.types;
            let conf_ptr = types.lookup("conf_s*").unwrap();
            let [c8, c11, c13, c16] =
                [8, 11, 13, 16].map(|len| types.char_array(&format!("char[{len}]"), len));
            types.struct_type("both_t", vec![Field::new("p", conf_ptr), Field::new("h", c8)]);
            types.struct_type(
                "split_t",
                vec![Field::new("a", c16), Field::new("p", conf_ptr), Field::new("b", c16)],
            );
            types.struct_type("seam_t", vec![Field::new("a", c13), Field::new("b", c11)]);
            let blob = types.opaque("blob_fwd", 64);
            types.pointer("blob*", blob);
        }
        let layout = kernel.process(pid).unwrap().layout();
        let unregistered_static = Addr(layout.static_base.0 + layout.static_size - 64);
        let (inner, base, x, both, y, lib_obj, w, pooled, blob, ragged, z, v);
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            // An interior pointer popped before the pointer to its base
            // (roots go in symbol order): one object, scanned once.
            inner = env.define_global("a_inner", "conf_s*").unwrap();
            base = env.define_global("b_base", "l_t*").unwrap();
            x = env.alloc_bytes(32, "shape:x").unwrap();
            env.write_ptr(inner, x.offset(8)).unwrap();
            env.write_ptr(base, x).unwrap();
            // One object named by a precise and a likely pointer of one scan.
            both = env.define_global("both", "both_t").unwrap();
            y = env.alloc("conf_s", "shape:y").unwrap();
            env.write_ptr(both, y).unwrap();
            env.write_ptr(both.offset(8), y).unwrap();
            // A likely pointer into unregistered static data.
            let anon = env.define_global_opaque("hidden_static", 8).unwrap();
            env.write_ptr(anon, unregistered_static).unwrap();
            // Library state holding the only pointer to a heap object.
            let lib_ref = env.define_global("lib_ref", "l_t*").unwrap();
            lib_obj = env.lib_alloc(16, "libz:ctx").unwrap();
            w = env.alloc_bytes(16, "shape:w").unwrap();
            env.write_ptr(lib_ref, lib_obj).unwrap();
            env.write_ptr(lib_obj, w).unwrap();
            // An instrumented pool object.
            let pool = env.create_pool(1024, None).unwrap();
            pooled = env.palloc(pool, "conf_s", "shape:pooled").unwrap();
            let pool_ref = env.define_global("pool_ref", "conf_s*").unwrap();
            env.write_ptr(pool_ref, pooled).unwrap();
            // An untyped chunk typed by its pointer's declared pointee: four
            // 64-byte opaque elements.
            let blob_ref = env.define_global("blob_ref", "blob*").unwrap();
            blob = env.alloc_bytes(256, "shape:blob").unwrap();
            env.write_ptr(blob_ref, blob).unwrap();
            // A 96-byte chunk its pointer declares as 64-byte elements: the
            // pointee does not tile it, so it stays untyped.
            let ragged_ref = env.define_global("ragged_ref", "blob*").unwrap();
            ragged = env.alloc_bytes(96, "shape:ragged").unwrap();
            env.write_ptr(ragged_ref, ragged).unwrap();
            // Opaque runs split by a pointer: `a` hides a pointer to the very
            // chunk `p` names, so whichever is scanned first types it.
            let split = env.define_global("split", "split_t").unwrap();
            z = env.alloc_bytes(16, "shape:z").unwrap();
            env.write_ptr(split.offset(8), z).unwrap();
            env.write_ptr(split.offset(16), z).unwrap();
            // Opaque runs meeting at an unaligned offset: the word at 8
            // straddles the seam at 13 and belongs to neither.
            let seam = env.define_global("seam", "seam_t").unwrap();
            v = env.alloc_bytes(16, "shape:v").unwrap();
            env.write_ptr(seam.offset(8), v).unwrap();
        }
        let result = trace_process(&kernel, &state, pid, TraceOptions).unwrap();
        let graph = &result.graph;
        let edge_to = |from: Addr| graph.get(from).unwrap().precise_pointers[0].target_base;
        assert_eq!((edge_to(inner), edge_to(base)), (x, x));
        assert!(graph.get(x).is_some() && graph.get(x.offset(8)).is_none());
        // The pointee an interior pointer declares does not type the
        // untyped chunk it points into.
        assert_eq!(graph.get(x).unwrap().type_id, None);
        let y_obj = graph.get(y).unwrap();
        assert_eq!(graph.get(both).unwrap().likely_pointers[0].target_base, y);
        assert!(y_obj.immutable && y_obj.type_id == state.types.lookup("conf_s"));
        let anonymous = graph.get(unregistered_static).unwrap();
        assert!(
            matches!(&anonymous.origin, ObjectOrigin::Static { symbol } if symbol.starts_with("static@"))
        );
        assert!(graph.get(lib_obj).is_none() && graph.get(w).is_none(), "library state is not followed");
        assert!(matches!(graph.get(pooled).unwrap().origin, ObjectOrigin::Pool { .. }));
        assert_eq!(graph.get(blob).unwrap().type_id, state.types.lookup("blob_fwd"));
        assert_eq!(graph.get(ragged).unwrap().type_id, None, "a pointee that does not tile the chunk");
        assert_eq!(graph.get(z).unwrap().type_id, None, "the likely pointer before `p` discovered it");
        assert!(graph.get(v).is_none(), "the word across the unaligned seam is not scanned");
    }

    /// The traversal's work as counts, not timings: on a cache-shaped table
    /// of `n` entries, each owning a 512-byte untyped value its pointer
    /// declares as 64-byte opaque values, the loop itself resolves the roots
    /// and nothing else, and each value is one conservative read, not eight.
    #[test]
    fn traversal_resolves_only_roots_and_reads_each_value_once() {
        for n in [16u64, 300] {
            let (mut kernel, mut state, pid) = listing1();
            let tid = kernel.process(pid).unwrap().main_tid();
            {
                let types = &mut state.types;
                let long = types.int("long", 8);
                let value = types.opaque("value_fwd", 64);
                let value_ptr = types.pointer("value*", value);
                let entry = types.opaque("entry_fwd", 24);
                let entry_ptr = types.pointer("entry_s*", entry);
                types.struct_type(
                    "entry_s",
                    vec![
                        Field::new("key", long),
                        Field::new("value", value_ptr),
                        Field::new("next", entry_ptr),
                    ],
                );
                types.array("entry_s*[64]", entry_ptr, 64);
                types.struct_type("stats_s", vec![Field::new("sets", long), Field::new("bytes", long)]);
            }
            {
                let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
                let table = env.define_global("table", "entry_s*[64]").unwrap();
                env.define_global("stats", "stats_s").unwrap();
                for key in 0..n {
                    let entry = env.alloc("entry_s", "set:entry").unwrap();
                    let value = env.alloc_bytes(512, "set:value").unwrap();
                    env.write_bytes(value, &[b'a' + (key % 23) as u8; 512]).unwrap();
                    let bucket = table.offset((key % 64) * 8);
                    let head = env.read_ptr(bucket).unwrap();
                    env.write_u64(entry, key).unwrap();
                    env.write_ptr(entry.offset(8), value).unwrap();
                    env.write_ptr(entry.offset(16), head).unwrap();
                    env.write_ptr(bucket, entry).unwrap();
                }
            }
            let tracer = Tracer::new(&kernel, &state, pid, TraceOptions).unwrap();
            assert_eq!(tracer.trace().graph.len() as u64, 2 + 2 * n, "two roots, n entries, n values");
            // The fresh trace's traversal, driven directly for its counts.
            let mut work = Worklist::default();
            let roots: VecDeque<Visit> = state.statics.roots().map(|r| (r.addr, None, Some(r.ty))).collect();
            work.enqueued.extend(roots.iter().map(|&(addr, ..)| addr.0));
            let (scanned, counts) = tracer.traverse(&ObjectGraph::new(), roots, &mut work);
            assert_eq!(scanned.len() as u64, 2 + 2 * n);
            assert_eq!(counts.resolved_at_pop, 2, "{n} entries: only the roots");
            assert_eq!(counts.conservative_reads as u64, n, "{n} entries: one read per value");
        }
    }
}
