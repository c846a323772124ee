//! The hybrid (precise + conservative) heap traversal of mutable tracing.
//!
//! Starting from the root set (global variables registered by the old
//! version, plus any annotated objects), the tracer walks pointer chains
//! through the old version's simulated memory. Where data-type tags are
//! available it locates pointers *precisely*; where the layout is opaque
//! (char buffers, unions, pointer-sized integers, objects from
//! uninstrumented allocators, library state) it falls back to *conservative*
//! scanning for likely pointers, deriving the `immutable` / `non-updatable`
//! invariants that constrain state transfer (paper §6).
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
//! written since the previous round, not to the whole heap.
//!
//! # Sharded (parallel) marking
//!
//! A single-process server with a huge heap used to trace on one thread, so
//! its traversal cost was bound by single-core memory-walk speed. With
//! [`Tracer::with_shards`] the traversal becomes *level-synchronous*: the
//! FIFO worklist is processed wave by wave (a wave is exactly the set of
//! addresses the serial walk would pop before reaching the first address
//! discovered by the wave), each wave's entries are scanned concurrently by
//! shard workers pulling chunks from a shared cursor into per-worker result
//! fragments, and the fragments are merged *serially, in wave order* — the
//! same order the serial FIFO walk uses. Because object scanning is a pure
//! function of the (frozen) process memory, and dedup/type-assignment
//! decisions are replayed at merge time in the serial order, the finished
//! graph, the conservative pins and the Table 2 statistics are byte-identical
//! to the serial walk for every shard count ([`finalize`](Tracer::trace)
//! stays a single pass over the merged graph). Delta retraces shard the
//! stale-object re-scan the same way.
//!
//! # Hot paths: what is computed once
//!
//! Per object the tracer consults, and never re-derives, what does not
//! depend on the object: its type's flattened layout and stride are borrowed
//! from the registry's per-type memo, and its annotation is borrowed from the
//! annotation registry. Per conservatively scanned range the bytes are read
//! once — one region lookup, one copy into a scratch buffer owned by the
//! scanning worker — and the words are walked from that buffer; a range that
//! runs past its region's end is split there, so exactly the words a
//! word-by-word read could reach are scanned. Per pointer there is one region
//! lookup, from which the target's class and its resolution both follow.
//! Nothing is cached across objects or across traces, so there is nothing to
//! invalidate, and the edges, their order and every statistic are the ones
//! the word-by-word walk produced.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use mcr_procsim::{Addr, Kernel, MemoryRegion, Pid, Process, RegionKind};
use mcr_typemeta::{LayoutElement, TypeId};

use crate::annotations::{pointer_mask, ObjTreatment};
use crate::error::{McrError, McrResult};
use crate::program::InstanceState;
use crate::tracing::graph::{ObjectGraph, ObjectOrigin, PointerEdge, TracedObject};
use crate::tracing::stats::{RegionClass, TracingStats};

/// Options controlling a tracing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Follow (and transfer) shared-library state instead of only counting
    /// pointers into it. Off by default, as in the paper.
    pub trace_libraries: bool,
    /// Honour soft-dirty bits: objects on clean pages are marked clean and
    /// skipped by state transfer. Disabling this is the ablation baseline.
    pub use_dirty_tracking: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { trace_libraries: false, use_dirty_tracking: true }
    }
}

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
    type_id: Option<TypeId>,
    startup: bool,
}

/// What scanning one worklist entry produced: the traced object plus the
/// outgoing targets the scan would have enqueued, in scan order. Workers
/// produce these independently; the merge pass replays the enqueue/dedup
/// decisions serially so the traversal is byte-identical to the serial walk.
struct ScannedObject {
    traced: TracedObject,
    discovered: Vec<(Addr, Option<TypeId>)>,
}

/// Most bytes one conservative-scan read copies out of the process; bounds
/// the scratch buffer a scanning worker keeps.
const SCAN_CHUNK: u64 = 64 * 1024;

/// The read buffer of one scanning worker, reused across the objects it
/// scans so a trace allocates per worker, not per object.
type ScanScratch = Vec<u8>;

/// Runs `f` over `items`, returning results in item order. With `workers <=
/// 1` (or a trivially small batch) the items are mapped inline; otherwise
/// `workers` scoped threads pull index chunks from a shared cursor. Results
/// are slotted by index, so the output is independent of which worker scanned
/// what. Every worker hands `f` its own scratch buffer.
fn run_sharded<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T, &mut ScanScratch) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() < workers.saturating_mul(2) {
        let mut scratch = ScanScratch::new();
        return items.iter().map(|item| f(item, &mut scratch)).collect();
    }
    let chunk = (items.len() / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut scratch = ScanScratch::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break done;
                        }
                        for (i, item) in
                            items.iter().enumerate().take((start + chunk).min(items.len())).skip(start)
                        {
                            done.push((i, f(item, &mut scratch)));
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("trace shard worker panicked") {
                slots[index] = Some(result);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every item scanned")).collect()
}

/// A persistent shard-worker pool for one level-synchronous traversal:
/// workers are spawned once per traversal (not once per wave) and fed waves
/// through a mutex/condvar handshake, so deep graphs — whose BFS has many
/// waves — do not pay a thread spawn/join per wave. Wave entries are `Copy`,
/// so a worker copies its chunk out under the lock and scans without holding
/// it; results are slotted by wave index, which keeps the merge order (and
/// with it the determinism contract) identical to the serial walk.
struct WavePool {
    state: Mutex<WaveState>,
    ready: Condvar,
}

struct WaveState {
    wave: Vec<(Addr, Option<TypeId>)>,
    cursor: usize,
    chunk: usize,
    /// Entries of the current wave not yet scanned into `results`.
    pending: usize,
    results: Vec<Option<Option<ScannedObject>>>,
    shutdown: bool,
    /// A worker panicked while scanning: the coordinator re-raises instead
    /// of waiting forever on `pending` (the panic happened with the mutex
    /// released, so lock poisoning alone would not unblock it).
    failed: bool,
}

impl WavePool {
    fn new() -> Self {
        WavePool {
            state: Mutex::new(WaveState {
                wave: Vec::new(),
                cursor: 0,
                chunk: 1,
                pending: 0,
                results: Vec::new(),
                shutdown: false,
                failed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// The shard-worker loop: pull a chunk, scan it unlocked, slot the
    /// results, park on the condvar when the wave is drained.
    fn worker(&self, scan: impl Fn(Addr, Option<TypeId>, &mut ScanScratch) -> Option<ScannedObject>) {
        let mut scratch = ScanScratch::new();
        let mut state = self.state.lock().expect("wave pool poisoned");
        loop {
            if state.shutdown {
                return;
            }
            if state.cursor < state.wave.len() {
                let start = state.cursor;
                let end = (start + state.chunk).min(state.wave.len());
                state.cursor = end;
                let items: Vec<(Addr, Option<TypeId>)> = state.wave[start..end].to_vec();
                drop(state);
                // The scan runs with the mutex released, so a panic here
                // would neither poison the lock nor decrement `pending` —
                // catch it, flag the pool failed (waking the coordinator and
                // every parked worker) and re-raise so `thread::scope`
                // propagates it.
                let scanned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    items
                        .into_iter()
                        .map(|(addr, declared)| scan(addr, declared, &mut scratch))
                        .collect::<Vec<_>>()
                }));
                state = self.state.lock().expect("wave pool poisoned");
                match scanned {
                    Ok(scanned) => {
                        for (i, outcome) in scanned.into_iter().enumerate() {
                            state.results[start + i] = Some(outcome);
                        }
                        state.pending = state.pending.saturating_sub(end - start);
                        if state.pending == 0 {
                            self.ready.notify_all();
                        }
                    }
                    Err(payload) => {
                        state.failed = true;
                        state.shutdown = true;
                        self.ready.notify_all();
                        drop(state);
                        std::panic::resume_unwind(payload);
                    }
                }
            } else {
                state = self.ready.wait(state).expect("wave pool poisoned");
            }
        }
    }

    /// Publishes one wave to the workers and blocks until every entry is
    /// scanned, returning the results in wave order.
    fn run_wave(&self, wave: Vec<(Addr, Option<TypeId>)>, workers: usize) -> Vec<Option<ScannedObject>> {
        let len = wave.len();
        let mut state = self.state.lock().expect("wave pool poisoned");
        state.chunk = (len / (workers.max(1) * 4)).max(1);
        state.wave = wave;
        state.cursor = 0;
        state.pending = len;
        state.results = (0..len).map(|_| None).collect();
        self.ready.notify_all();
        while state.pending > 0 && !state.failed {
            state = self.ready.wait(state).expect("wave pool poisoned");
        }
        if state.failed {
            // The failing worker already re-raised on its own thread;
            // unwinding out of the scope closure lets `thread::scope` join
            // the workers (shutdown is set) and propagate the panic.
            drop(state);
            panic!("trace shard worker panicked");
        }
        state.wave.clear();
        state.results.drain(..).map(|slot| slot.expect("every wave entry scanned")).collect()
    }

    fn shutdown(&self) {
        let mut state = self.state.lock().expect("wave pool poisoned");
        state.shutdown = true;
        self.ready.notify_all();
    }
}

/// The mutable-tracing engine for one process of the old version.
pub struct Tracer<'a> {
    process: &'a Process,
    state: &'a InstanceState,
    options: TraceOptions,
    /// Worker threads used by the sharded traversal (`<= 1` = serial).
    shards: usize,
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
        options: TraceOptions,
    ) -> McrResult<Self> {
        let process = kernel.process(pid).map_err(McrError::Sim)?;
        Ok(Tracer::for_process(process, state, options))
    }

    /// Creates a tracer over an already-borrowed process.
    ///
    /// This is the entry point used by the pair-parallel trace/transfer
    /// phase: workers hold per-process borrows obtained from
    /// [`Kernel::split_pairs`](mcr_procsim::Kernel::split_pairs) instead of
    /// going through `&Kernel`, which would alias the exclusive borrows of
    /// the new version's processes.
    pub fn for_process(process: &'a Process, state: &'a InstanceState, options: TraceOptions) -> Self {
        Tracer { process, state, options, shards: 1 }
    }

    /// Shards the traversal across `shards` worker threads (`0`/`1` keeps it
    /// serial). The traversal is level-synchronous and merge order replays
    /// the serial walk, so the resulting graph, pins and statistics are
    /// byte-identical for every shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Runs the traversal from the root set.
    pub fn trace(&self) -> TraceResult {
        let mut graph = ObjectGraph::new();
        let mut enqueued: BTreeSet<u64> = BTreeSet::new();
        let mut wave: Vec<(Addr, Option<TypeId>)> = Vec::new();
        for root in self.state.statics.roots() {
            wave.push((root.addr, Some(root.ty)));
            enqueued.insert(root.addr.0);
        }
        self.traverse(&mut graph, wave, &mut enqueued);
        let stats = self.finalize(&mut graph);
        TraceResult { graph, stats }
    }

    /// Delta retrace over an existing graph: re-scans only the objects whose
    /// covering pages were written after epoch `since`, follows new edges
    /// into yet-untraced objects, drops objects that were freed or became
    /// unreachable, and recomputes pins and statistics with the same
    /// finalize pass a fresh trace uses.
    ///
    /// Staleness is detected through page write-epochs, so a free is only
    /// noticed if it (or the unlinking store) touched the object's pages:
    /// `PtMalloc::free` writes free-list metadata into the payload (as real
    /// ptmalloc does), which covers heap objects; *pool/slab* objects freed
    /// without any store and still referenced by a dangling pointer can
    /// survive a retrace that a fresh trace would re-resolve differently.
    pub fn retrace_dirty(&self, graph: &mut ObjectGraph, since: u64) -> TracingStats {
        let stale: Vec<(Addr, Option<TypeId>)> = graph
            .iter()
            .filter(|o| {
                let epoch = self.object_dirty_epoch(o.addr, o.size);
                epoch == u64::MAX || epoch > since
            })
            .map(|o| (o.addr, o.type_id))
            .collect();
        let mut enqueued: BTreeSet<u64> = graph.iter().map(|o| o.addr.0).collect();
        // Re-scan the stale set on the shard workers (each re-scan is a pure
        // read of the frozen process memory), then merge in address order —
        // the same order the serial loop used.
        let rescanned = run_sharded(&stale, self.shards, |&(addr, prev_ty), scratch| {
            self.rescan_stale(addr, prev_ty, scratch)
        });
        let mut frontier: Vec<(Addr, Option<TypeId>)> = Vec::new();
        for (&(addr, _), outcome) in stale.iter().zip(rescanned) {
            match outcome {
                // An object whose backing chunk was freed (or replaced by an
                // allocation with a different base) no longer resolves to the
                // same base; drop it — the sweep below catches dangling
                // edges.
                None => {
                    graph.remove(addr);
                    enqueued.remove(&addr.0);
                }
                Some(ScannedObject { traced, discovered }) => {
                    for &(target, ty) in &discovered {
                        if enqueued.insert(target.0) {
                            frontier.push((target, ty));
                        }
                    }
                    graph.insert(traced);
                }
            }
        }
        self.traverse(graph, frontier, &mut enqueued);
        self.sweep(graph);
        self.finalize(graph)
    }

    /// Level-synchronous worklist traversal: each wave (the addresses the
    /// serial FIFO walk would pop before reaching this wave's discoveries) is
    /// scanned on the shard workers, then merged serially *in wave order* —
    /// replaying exactly the dedup and insertion decisions of the serial
    /// walk, so the result is independent of the shard count.
    ///
    /// With shards enabled, the workers are spawned once and fed every wave
    /// through a [`WavePool`] (a per-wave `thread::scope` would pay a
    /// spawn/join per BFS level, which dominates on deep graphs); waves too
    /// small to amortize even the pool handshake are scanned inline. Either
    /// path slots results by wave index, so the merge is order-identical.
    fn traverse(
        &self,
        graph: &mut ObjectGraph,
        mut wave: Vec<(Addr, Option<TypeId>)>,
        enqueued: &mut BTreeSet<u64>,
    ) {
        let mut scratch = ScanScratch::new();
        let mut scan_inline = |wave: &[(Addr, Option<TypeId>)]| {
            wave.iter()
                .map(|&(addr, declared)| self.scan_entry(addr, declared, &mut scratch))
                .collect::<Vec<_>>()
        };
        if self.shards <= 1 {
            while !wave.is_empty() {
                let scanned = scan_inline(&wave);
                wave = self.merge_wave(graph, scanned, enqueued);
            }
            return;
        }
        let pool = WavePool::new();
        std::thread::scope(|scope| {
            let pool = &pool;
            for _ in 0..self.shards {
                scope.spawn(move || {
                    pool.worker(|addr, declared, scratch| self.scan_entry(addr, declared, scratch));
                });
            }
            while !wave.is_empty() {
                let scanned = if wave.len() < self.shards * 2 {
                    scan_inline(&wave)
                } else {
                    pool.run_wave(std::mem::take(&mut wave), self.shards)
                };
                wave = self.merge_wave(graph, scanned, enqueued);
            }
            pool.shutdown();
        });
    }

    /// Merges one scanned wave into the graph in wave order, returning the
    /// next wave. Two wave entries can resolve to the same base (interior
    /// pointers); the first in wave order wins, exactly like the serial
    /// pop-time check — the duplicate's scan (and its discoveries) are
    /// discarded.
    fn merge_wave(
        &self,
        graph: &mut ObjectGraph,
        scanned: Vec<Option<ScannedObject>>,
        enqueued: &mut BTreeSet<u64>,
    ) -> Vec<(Addr, Option<TypeId>)> {
        let mut next: Vec<(Addr, Option<TypeId>)> = Vec::new();
        for outcome in scanned {
            let Some(ScannedObject { traced, discovered }) = outcome else { continue };
            if graph.contains(traced.addr) {
                continue;
            }
            for &(target, ty) in &discovered {
                if enqueued.insert(target.0) {
                    next.push((target, ty));
                }
            }
            graph.insert(traced);
        }
        next
    }

    /// Scans one frontier entry: resolves the address, builds the traced
    /// object (the declared pointee type applies only when the address is the
    /// object base, as in the serial walk) and collects its outgoing targets.
    /// Pure with respect to shared state, so entries scan concurrently.
    fn scan_entry(
        &self,
        addr: Addr,
        declared: Option<TypeId>,
        scratch: &mut ScanScratch,
    ) -> Option<ScannedObject> {
        let resolved = self.resolve_object(addr)?;
        let type_id = resolved.type_id.or(if addr == resolved.base { declared } else { None });
        Some(self.scan_resolved(resolved, type_id, scratch))
    }

    /// Re-scans one stale object of a delta retrace. Returns `None` when the
    /// object no longer resolves to the same base (freed or replaced).
    /// Declared root/pointee types are sticky: a fresh trace would re-derive
    /// them from the (unchanged) pointer declarations.
    fn rescan_stale(
        &self,
        addr: Addr,
        prev_ty: Option<TypeId>,
        scratch: &mut ScanScratch,
    ) -> Option<ScannedObject> {
        let resolved = match self.resolve_object(addr) {
            Some(r) if r.base == addr => r,
            _ => return None,
        };
        let type_id = resolved.type_id.or(prev_ty);
        Some(self.scan_resolved(resolved, type_id, scratch))
    }

    fn scan_resolved(
        &self,
        resolved: ResolvedObject,
        type_id: Option<TypeId>,
        scratch: &mut ScanScratch,
    ) -> ScannedObject {
        let mut traced = TracedObject {
            addr: resolved.base,
            size: resolved.size,
            origin: resolved.origin,
            type_id,
            dirty_epoch: self.object_dirty_epoch(resolved.base, resolved.size),
            startup: resolved.startup,
            immutable: false,
            non_updatable: false,
            precise_pointers: Vec::new(),
            likely_pointers: Vec::new(),
        };
        let mut discovered = Vec::new();
        self.scan_object(&mut traced, &mut discovered, scratch);
        ScannedObject { traced, discovered }
    }

    /// Reachability sweep for delta retraces: keeps only the objects a fresh
    /// traversal from the roots would reach over the current edges.
    fn sweep(&self, graph: &mut ObjectGraph) {
        let mut reached: BTreeSet<u64> = BTreeSet::new();
        let mut stack: Vec<u64> = Vec::new();
        for root in self.state.statics.roots() {
            if let Some(r) = self.resolve_object(root.addr) {
                if graph.contains(r.base) && reached.insert(r.base.0) {
                    stack.push(r.base.0);
                }
            }
        }
        while let Some(base) = stack.pop() {
            let Some(obj) = graph.get(Addr(base)) else { continue };
            for edge in obj.precise_pointers.iter() {
                let follow =
                    self.region_class_of(edge.target) != RegionClass::Lib || self.options.trace_libraries;
                if follow && graph.contains(edge.target_base) && reached.insert(edge.target_base.0) {
                    stack.push(edge.target_base.0);
                }
            }
            for edge in obj.likely_pointers.iter() {
                if self.region_class_of(edge.target) != RegionClass::Lib
                    && graph.contains(edge.target_base)
                    && reached.insert(edge.target_base.0)
                {
                    stack.push(edge.target_base.0);
                }
            }
        }
        graph.retain(|o| reached.contains(&o.addr.0));
    }

    /// Recomputes everything derived from the graph's edges — conservative
    /// pins, non-updatability, and the Table 2 statistics. Both the full
    /// trace and delta retraces end here, which is what guarantees that an
    /// incrementally maintained graph reports exactly like a fresh one.
    fn finalize(&self, graph: &mut ObjectGraph) -> TracingStats {
        for obj in graph.iter_mut() {
            obj.immutable = false;
            // An object containing likely pointers cannot be safely
            // type-transformed (its layout interpretation is ambiguous).
            obj.non_updatable = !obj.likely_pointers.is_empty();
        }
        let mut pins: Vec<Addr> = Vec::new();
        let mut stats = TracingStats::default();
        for obj in graph.iter() {
            let src_class = self.region_class_of(obj.addr);
            for edge in obj.precise_pointers.iter() {
                stats.precise.record(src_class, self.region_class_of(edge.target));
            }
            for edge in obj.likely_pointers.iter() {
                let targ_class = self.region_class_of(edge.target);
                stats.likely.record(src_class, targ_class);
                if targ_class != RegionClass::Lib {
                    // The conservatively-referenced target can no longer be
                    // relocated or type-transformed.
                    pins.push(edge.target_base);
                }
            }
        }
        for addr in pins {
            graph.mark_immutable(addr);
        }
        stats.objects_traced = graph.len() as u64;
        stats.immutable_objects = graph.immutable_objects().count() as u64;
        stats.non_updatable_objects = graph.iter().filter(|o| o.non_updatable).count() as u64;
        stats.dirty_objects = graph.dirty_objects().count() as u64;
        stats.traced_bytes = graph.total_bytes();
        stats.dirty_bytes = graph.dirty_bytes();
        stats
    }

    /// Scans one object for outgoing edges. Candidate traversal targets are
    /// appended to `discovered` in scan order (deduplication against the
    /// global enqueued set happens at merge time, so this stays a pure read
    /// of process memory and can run on any shard worker).
    fn scan_object(
        &self,
        traced: &mut TracedObject,
        discovered: &mut Vec<(Addr, Option<TypeId>)>,
        scratch: &mut ScanScratch,
    ) {
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
                let copies = (traced.size / stride).max(1);
                for k in 0..copies {
                    let base_off = k * stride;
                    for elem in elems {
                        match elem {
                            LayoutElement::Pointer { offset, to } => {
                                self.follow_precise(traced, base_off + offset, Some(*to), mask, discovered);
                            }
                            LayoutElement::Opaque { offset, len } => {
                                self.scan_conservative(traced, base_off + offset, *len, discovered, scratch);
                            }
                            LayoutElement::Scalar { .. } => {}
                        }
                    }
                }
            }
            Plan::PointerSlots(offsets) => {
                for &off in offsets {
                    self.follow_precise(traced, off, None, mask, discovered);
                }
            }
            Plan::Conservative => {
                self.scan_conservative(traced, 0, traced.size, discovered, scratch);
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
        discovered: &mut Vec<(Addr, Option<TypeId>)>,
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
        let target_base = self.resolve_in(region, target).map(|r| r.base).unwrap_or(target);
        traced.precise_pointers.push(PointerEdge { offset, target, target_base, masked_bits });
        if RegionClass::from_kind(region.kind()) != RegionClass::Lib || self.options.trace_libraries {
            discovered.push((target_base, pointee));
        }
    }

    /// Scans the aligned words of `[offset, offset + len)` (clamped to the
    /// object) for likely pointers. The bytes are read in runs — one region
    /// lookup and one copy into `scratch` per run — that end where the
    /// region holding them ends, so a range that leaves its region (an object
    /// whose recorded size overruns it, a word straddling the end) yields
    /// exactly the words a word-by-word read reaches and skips the rest.
    fn scan_conservative(
        &self,
        traced: &mut TracedObject,
        offset: u64,
        len: u64,
        discovered: &mut Vec<(Addr, Option<TypeId>)>,
        scratch: &mut ScanScratch,
    ) {
        let space = self.process.space();
        let end = (offset + len).min(traced.size);
        let mut word = offset.div_ceil(8) * 8;
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
            scratch.resize(run as usize, 0);
            region.read_into(slot, scratch).expect("the run ends inside the region");
            for bytes in scratch.chunks_exact(8) {
                let raw = Addr(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
                if let Some((target_base, targ_class)) = self.validate_likely_pointer(raw) {
                    traced.likely_pointers.push(PointerEdge {
                        offset: word,
                        target: raw,
                        target_base,
                        masked_bits: 0,
                    });
                    // Pinning (and the non-updatable flag) is derived from
                    // these edges by the finalize pass; the traversal only
                    // needs to keep following reachable targets.
                    if targ_class != RegionClass::Lib {
                        discovered.push((target_base, None));
                    }
                }
                word += 8;
            }
        }
    }

    /// A word is a likely pointer when it is aligned and points inside a
    /// live, known object of the process; returns that object's base and the
    /// class of the region the word points into.
    fn validate_likely_pointer(&self, candidate: Addr) -> Option<(Addr, RegionClass)> {
        if candidate.is_null() || !candidate.is_aligned(8) {
            return None;
        }
        let region = self.process.space().region_containing(candidate)?;
        let resolved = self.resolve_in(region, candidate)?;
        Some((resolved.base, RegionClass::from_kind(region.kind())))
    }

    fn region_class_of(&self, addr: Addr) -> RegionClass {
        self.process
            .space()
            .region_containing(addr)
            .map(|r| RegionClass::from_kind(r.kind()))
            .unwrap_or(RegionClass::Dynamic)
    }

    /// The dirty stamp mutable tracing records on an object: the highest
    /// write epoch of its covering pages, or `u64::MAX` when dirty tracking
    /// is disabled (every object is then treated as dirty and as stale in
    /// every pre-copy round).
    fn object_dirty_epoch(&self, base: Addr, size: u64) -> u64 {
        if !self.options.use_dirty_tracking {
            return u64::MAX;
        }
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
            type_id: Some(o.ty),
            startup: true,
        })
    }

    fn resolve_dynamic(&self, region: &MemoryRegion, addr: Addr) -> Option<ResolvedObject> {
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
                        type_id: None,
                        startup: true,
                    }),
                    None => Some(ResolvedObject {
                        base: Addr(addr.0 & !7),
                        size: 8,
                        origin: ObjectOrigin::Lib { name: None },
                        type_id: None,
                        startup: true,
                    }),
                }
            }
            RegionKind::Mmap => Some(ResolvedObject {
                base: region.base(),
                size: region.size(),
                origin: ObjectOrigin::Mmap,
                type_id: None,
                startup: true,
            }),
            RegionKind::Stack => None,
        }
    }
}

/// Convenience wrapper: traces one process with the given options.
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
    use crate::program::{InstanceState, ProgramEnv, ThreadRosterEntry};
    use mcr_procsim::MemoryLayout;
    use mcr_typemeta::{Field, InstrumentationConfig, TypeKind};

    /// Builds the Listing 1 scenario: `conf` (clean pointer to a heap
    /// config), `list` (linked list head with a dirty heap node), and
    /// `b` (char buffer hiding a pointer to a heap array).
    fn listing1() -> (Kernel, InstanceState, Pid) {
        let mut kernel = Kernel::new();
        let pid = kernel.create_process("listing1").unwrap();
        let tid = kernel.process(pid).unwrap().main_tid();
        kernel.process_mut(pid).unwrap().setup_memory(MemoryLayout::default(), true).unwrap();
        let mut state =
            InstanceState::new("listing1", "1.0", InstrumentationConfig::full(), Interposer::recorder());
        state.processes.push(pid);
        state.threads.push(ThreadRosterEntry {
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

        let result = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
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
        assert!(b_obj.non_updatable);
        let hidden = graph.get(hidden_arr).expect("hidden array traced");
        assert!(hidden.immutable && hidden.non_updatable);

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

        let mut result = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
        assert!(result.graph.get(node2).is_none(), "unlinked node is unreachable");
        let since = kernel.process_mut(pid).unwrap().space_mut().advance_write_epoch();

        // Mutate after the epoch: bump a value and link the second node.
        {
            let space = kernel.process_mut(pid).unwrap().space_mut();
            space.write_u32(node1, 2).unwrap();
            space.write_u64(node1.offset(8), node2.0).unwrap();
        }

        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions::default()).unwrap();
        result.stats = result.graph.retrace_dirty(&tracer, since);
        let fresh = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();

        assert_eq!(result.stats, fresh.stats, "retraced statistics diverged from a fresh trace");
        let incremental: Vec<_> = result.graph.iter().collect();
        let scratch: Vec<_> = fresh.graph.iter().collect();
        assert_eq!(incremental, scratch, "retraced graph diverged from a fresh trace");
        assert!(result.graph.get(node2).is_some(), "newly linked node was discovered");
        assert!(result.graph.get(node1).unwrap().dirty_epoch > since);

        // Unlink node2 again: the next retrace sweeps it.
        let since2 = kernel.process_mut(pid).unwrap().space_mut().advance_write_epoch();
        kernel.process_mut(pid).unwrap().space_mut().write_u64(node1.offset(8), 0).unwrap();
        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions::default()).unwrap();
        result.stats = result.graph.retrace_dirty(&tracer, since2);
        assert!(result.graph.get(node2).is_none(), "unreachable node was swept");
        let fresh = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
        assert_eq!(result.stats, fresh.stats);
    }

    #[test]
    fn disabling_dirty_tracking_marks_everything_dirty() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            let g = env.define_global("conf", "conf_s*").unwrap();
            let c = env.alloc("conf_s", "init:conf").unwrap();
            env.write_ptr(g, c).unwrap();
        }
        kernel.process_mut(pid).unwrap().space_mut().clear_soft_dirty();
        let with = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
        let without = trace_process(
            &kernel,
            &state,
            pid,
            TraceOptions { use_dirty_tracking: false, ..Default::default() },
        )
        .unwrap();
        assert_eq!(with.stats.dirty_objects, 0);
        assert_eq!(without.stats.dirty_objects, without.stats.objects_traced);
        assert!(without.stats.dirty_bytes >= with.stats.dirty_bytes);
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
            env.add_obj_handler("b", ObjTreatment::PointerSlots(vec![0]), 2);
        }
        let result = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
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
            env.add_obj_handler("tagged", ObjTreatment::EncodedPointers { mask_bits: 2 }, 22);
        }
        let result = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
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
        let result = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
        assert_eq!(result.stats.precise.targ_lib, 1);
        assert!(result.graph.get(lib_obj).is_none(), "library state is not traced by default");
        let traced_libs =
            trace_process(&kernel, &state, pid, TraceOptions { trace_libraries: true, ..Default::default() })
                .unwrap();
        assert!(traced_libs.graph.get(lib_obj).is_some());
    }

    /// Builds a wide, multi-level object graph (a bucketed hash table of
    /// linked chains with conservative value blobs) and checks that the
    /// sharded traversal produces a graph and statistics byte-identical to
    /// the serial walk, for several shard counts, for fresh traces and for
    /// delta retraces.
    #[test]
    fn sharded_trace_is_byte_identical_to_serial() {
        let (mut kernel, mut state, pid) = listing1();
        build_types(&mut state);
        let tid = kernel.process(pid).unwrap().main_tid();
        let mut nodes = Vec::new();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            // 8 bucket heads, each an interleaved chain of 12 typed nodes
            // and 12 untyped blobs (node.next → blob, blob word 0 → next
            // node), so the traversal alternates precise and conservative
            // scanning across many waves.
            for b in 0..8u64 {
                let head = env.define_global(&format!("bucket{b}"), "l_t").unwrap();
                let mut prev_slot = head.offset(8);
                for i in 0..12u64 {
                    let node = env.alloc("l_t", "handle_event:node").unwrap();
                    env.write_u32(node, (b * 100 + i) as u32).unwrap();
                    let blob = env.alloc_bytes(48, "handle_event:blob").unwrap();
                    env.write_u64(blob.offset(8), 0x6c6f_6221).unwrap();
                    env.write_ptr(prev_slot, node).unwrap();
                    env.write_ptr(node.offset(8), blob).unwrap();
                    prev_slot = blob;
                    nodes.push(node);
                }
                // A hidden pointer from an opaque buffer pins one chain node.
                let buf = env.define_global_opaque(&format!("buf{b}"), 8).unwrap();
                env.write_ptr(buf, nodes[(b * 12) as usize]).unwrap();
            }
        }
        kernel.process_mut(pid).unwrap().space_mut().clear_soft_dirty();

        let serial = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
        assert!(serial.stats.objects_traced >= 8 * 24, "the synthetic heap is traced");
        for shards in [2usize, 3, 7] {
            let tracer =
                Tracer::new(&kernel, &state, pid, TraceOptions::default()).unwrap().with_shards(shards);
            let sharded = tracer.trace();
            assert_eq!(sharded.stats, serial.stats, "{shards} shards: stats diverged");
            let a: Vec<_> = serial.graph.iter().collect();
            let b: Vec<_> = sharded.graph.iter().collect();
            assert_eq!(a, b, "{shards} shards: graph diverged");
        }

        // Delta retrace: dirty a few chain nodes, compare the sharded
        // retrace against the serial retrace and a fresh trace.
        let since = kernel.process_mut(pid).unwrap().space_mut().advance_write_epoch();
        {
            let space = kernel.process_mut(pid).unwrap().space_mut();
            for node in nodes.iter().step_by(9) {
                space.write_u32(*node, 0xd1d1).unwrap();
            }
        }
        let mut serial_graph = serial.graph.clone();
        let serial_tracer = Tracer::new(&kernel, &state, pid, TraceOptions::default()).unwrap();
        let serial_stats = serial_graph.retrace_dirty(&serial_tracer, since);
        for shards in [2usize, 5] {
            let mut graph = serial.graph.clone();
            let tracer =
                Tracer::new(&kernel, &state, pid, TraceOptions::default()).unwrap().with_shards(shards);
            let stats = graph.retrace_dirty(&tracer, since);
            assert_eq!(stats, serial_stats, "{shards} shards: retrace stats diverged");
            let a: Vec<_> = serial_graph.iter().collect();
            let b: Vec<_> = graph.iter().collect();
            assert_eq!(a, b, "{shards} shards: retraced graph diverged");
        }
        let fresh = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
        assert_eq!(serial_stats, fresh.stats, "retrace converged to the fresh trace");
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

        let mut result = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
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

        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions::default()).unwrap();
        result.stats = result.graph.retrace_dirty(&tracer, since);
        let fresh = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();

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

    /// What `scan_conservative` found: the likely-pointer edges and the
    /// targets queued for traversal.
    type Scan = (Vec<PointerEdge>, Vec<(Addr, Option<TypeId>)>);

    /// A bare object over `[addr, addr + size)` to scan.
    fn untyped_object(addr: Addr, size: u64) -> TracedObject {
        TracedObject {
            addr,
            size,
            origin: ObjectOrigin::Mmap,
            type_id: None,
            dirty_epoch: 0,
            startup: true,
            immutable: false,
            non_updatable: false,
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
                if let Some((target_base, class)) = tracer.validate_likely_pointer(Addr(raw)) {
                    edges.push(PointerEdge { offset: word, target: Addr(raw), target_base, masked_bits: 0 });
                    if class != RegionClass::Lib {
                        discovered.push((target_base, None));
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
        let mut scratch = vec![0xa5; 3 * SCAN_CHUNK as usize];
        tracer.scan_conservative(&mut traced, offset, len, &mut discovered, &mut scratch);
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

        let tracer = Tracer::new(&kernel, &state, pid, TraceOptions::default()).unwrap();

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
        let result = trace_process(&kernel, &state, pid, TraceOptions::default()).unwrap();
        // The pool storage chunk is untyped, so the pointer inside it is a
        // likely pointer and its target is pinned.
        assert!(result.stats.likely.total >= 1);
        assert!(result.graph.get(victim).unwrap().immutable);
    }
}
