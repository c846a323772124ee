//! The traced object graph of the old program version.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcr_procsim::Addr;
use mcr_typemeta::TypeId;

use crate::tracing::stats::RegionClass;

/// Where a traced object lives and how it can be identified across versions.
///
/// Names are shared `Arc<str>`s handed out by the per-version registries, so
/// tracing a process never copies name bytes per object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectOrigin {
    /// A global/static variable, matched across versions by symbol name.
    Static {
        /// Symbol name.
        symbol: Arc<str>,
    },
    /// A heap chunk, matched across versions by allocation-site name.
    Heap {
        /// Allocation-site name, when the allocator was instrumented.
        site: Option<Arc<str>>,
    },
    /// An object carved from a region/pool allocator.
    Pool {
        /// Allocation-site name, when the region allocator was instrumented.
        site: Option<Arc<str>>,
    },
    /// State owned by a shared library (not transferred by default).
    Lib {
        /// Library object name, if known.
        name: Option<Arc<str>>,
    },
    /// A memory-mapped region.
    Mmap,
}

impl ObjectOrigin {
    /// A short description used in conflict messages.
    pub fn describe(&self) -> String {
        match self {
            ObjectOrigin::Static { symbol } => format!("static `{symbol}`"),
            ObjectOrigin::Heap { site: Some(s) } => format!("heap object from `{s}`"),
            ObjectOrigin::Heap { site: None } => "untyped heap object".to_string(),
            ObjectOrigin::Pool { site: Some(s) } => format!("pool object from `{s}`"),
            ObjectOrigin::Pool { site: None } => "untyped pool object".to_string(),
            ObjectOrigin::Lib { name: Some(n) } => format!("library object `{n}`"),
            ObjectOrigin::Lib { name: None } => "library object".to_string(),
            ObjectOrigin::Mmap => "memory-mapped object".to_string(),
        }
    }

    /// Whether the object is a static (symbol-matched) object.
    pub fn is_static(&self) -> bool {
        matches!(self, ObjectOrigin::Static { .. })
    }
}

/// A pointer discovered by mutable tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerEdge {
    /// Offset of the pointer slot within the source object.
    pub offset: u64,
    /// The raw pointer value (may be an interior pointer).
    pub target: Addr,
    /// Base address of the object the pointer lands in.
    pub target_base: Addr,
    /// Class of the region `target` points into, recorded by the scan (which
    /// already holds the region) so that nothing derived from the edges has
    /// to look the region up again.
    pub target_class: RegionClass,
    /// Bits masked off the raw value before following (encoded pointers).
    pub masked_bits: u64,
}

/// One object reached by mutable tracing in the old version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedObject {
    /// Base address in the old version.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Origin (static / heap / pool / lib / mmap).
    pub origin: ObjectOrigin,
    /// Class of the region holding the object (the *source* class of its
    /// outgoing pointers in the Table 2 breakdown), recorded by the scan.
    pub class: RegionClass,
    /// Type, when precise information is available.
    pub type_id: Option<TypeId>,
    /// The highest write-epoch stamp of the pages covering the object: `0`
    /// when the object is clean since startup (nothing to transfer),
    /// `u64::MAX` when dirty tracking is disabled (everything is treated as
    /// dirty). This is the single source of truth for dirtiness — the
    /// pre-copy engine compares it against the epoch at which the object's
    /// contents were last copied to decide whether a re-copy is needed.
    pub dirty_epoch: u64,
    /// Whether the object was created during startup.
    pub startup: bool,
    /// Whether the object must keep its address in the new version
    /// (conservatively referenced).
    pub immutable: bool,
    /// Whether the object may not be type-transformed (it is referenced by,
    /// or contains, likely pointers).
    pub non_updatable: bool,
    /// Pointers located with precise type information.
    pub precise_pointers: Vec<PointerEdge>,
    /// Likely pointers located by conservative scanning.
    pub likely_pointers: Vec<PointerEdge>,
}

impl TracedObject {
    /// Whether the object was modified after startup (must be transferred).
    pub fn is_dirty(&self) -> bool {
        self.dirty_epoch != 0
    }

    /// End address (exclusive).
    pub fn end(&self) -> Addr {
        Addr(self.addr.0 + self.size)
    }

    /// Whether `addr` falls inside the object.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.addr.0 && addr.0 < self.addr.0 + self.size.max(1)
    }

    /// All outgoing pointer edges (precise then likely).
    pub fn edges(&self) -> impl Iterator<Item = &PointerEdge> {
        self.precise_pointers.iter().chain(self.likely_pointers.iter())
    }
}

/// The object graph produced by tracing one process of the old version.
///
/// Besides the objects the graph remembers *where it changed shape*: every
/// delta retrace records the address range of each object that entered the
/// graph, left it, changed size or changed pin status since the graph was
/// first traced ([`ObjectGraph::range_changed`]). A pointer whose value lies
/// outside every such range resolves to the same object, at the same
/// interior offset, as it did in any earlier state of this graph — which is
/// what lets the final pass of a pre-copied transfer skip objects whose
/// bytes and pointer translation both cannot have changed.
#[derive(Debug, Clone, Default)]
pub struct ObjectGraph {
    objects: BTreeMap<u64, TracedObject>,
    /// Upper bound on the size of any object ever inserted: how far below an
    /// address an object covering it can start.
    max_size: u64,
    /// `[start, end)` ranges whose containment changed since the first trace;
    /// sorted and disjoint once [`ObjectGraph::seal_changed`] ran.
    changed: Vec<(u64, u64)>,
}

impl ObjectGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files the objects of a fresh trace in one address-sorted bulk build:
    /// the `(base, index)` keys are sorted, not the objects. Their bases are
    /// distinct (a traversal scans each object once).
    pub(crate) fn from_objects(objects: Vec<TracedObject>) -> Self {
        let mut keys: Vec<(u64, usize)> = objects.iter().enumerate().map(|(at, o)| (o.addr.0, at)).collect();
        keys.sort_unstable();
        debug_assert!(keys.windows(2).all(|w| w[0].0 < w[1].0), "two traced objects share a base");
        let max_size = objects.iter().map(|o| o.size).max().unwrap_or(0);
        let mut slots: Vec<Option<TracedObject>> = objects.into_iter().map(Some).collect();
        let sorted: Vec<(u64, TracedObject)> =
            keys.into_iter().map(|(addr, at)| (addr, slots[at].take().expect("keys are distinct"))).collect();
        // At most two copies of the objects are alive at once: the slots go
        // before the tree is built from (and in the buffer of) `sorted`.
        drop(slots);
        ObjectGraph { objects: BTreeMap::from_iter(sorted), max_size, changed: Vec::new() }
    }

    /// Inserts an object (keyed by base address), returning the entry it
    /// replaced.
    pub fn insert(&mut self, obj: TracedObject) -> Option<TracedObject> {
        self.max_size = self.max_size.max(obj.size);
        self.objects.insert(obj.addr.0, obj)
    }

    /// Whether an object with this base address is present.
    pub fn contains(&self, addr: Addr) -> bool {
        self.objects.contains_key(&addr.0)
    }

    /// Shared access by base address.
    pub fn get(&self, addr: Addr) -> Option<&TracedObject> {
        self.objects.get(&addr.0)
    }

    /// Exclusive access by base address.
    pub fn get_mut(&mut self, addr: Addr) -> Option<&mut TracedObject> {
        self.objects.get_mut(&addr.0)
    }

    /// Removes the object with this base address (delta retraces drop
    /// objects that were freed or became unreachable).
    pub fn remove(&mut self, addr: Addr) -> Option<TracedObject> {
        self.objects.remove(&addr.0)
    }

    /// Keeps only the objects satisfying `pred` (the reachability sweep of a
    /// delta retrace).
    pub fn retain(&mut self, mut pred: impl FnMut(&TracedObject) -> bool) {
        self.objects.retain(|_, o| pred(o));
    }

    /// The object whose extent contains `addr`, if any.
    pub fn object_containing(&self, addr: Addr) -> Option<&TracedObject> {
        self.objects.range(..=addr.0).next_back().map(|(_, o)| o).filter(|o| o.contains(addr))
    }

    /// The objects with at least one byte in `[base, base + len)`, in
    /// address order. Costs the objects starting within the largest object
    /// size below `base`, not the graph.
    pub fn overlapping(&self, base: Addr, len: u64) -> impl Iterator<Item = &TracedObject> {
        let first = base.0.saturating_sub(self.max_size.saturating_sub(1));
        self.objects
            .range(first..base.0 + len)
            .map(|(_, o)| o)
            .filter(move |o| o.addr.0 + o.size.max(1) > base.0)
    }

    /// Records that the object over `[addr, addr + size)` entered or left the
    /// graph, or changed size or pin status.
    pub(crate) fn note_changed(&mut self, addr: Addr, size: u64) {
        self.changed.push((addr.0, addr.0 + size.max(1)));
    }

    /// Sorts and merges the recorded ranges; a retrace ends with this so
    /// [`ObjectGraph::range_changed`] can binary-search them.
    pub(crate) fn seal_changed(&mut self) {
        self.changed.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.changed.len());
        for &(start, end) in &self.changed {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        self.changed = merged;
    }

    /// Whether any object entered, left or changed size or pin status since
    /// the graph was first traced.
    pub fn any_changed(&self) -> bool {
        !self.changed.is_empty()
    }

    /// Whether `addr` lies in the range of an object that entered or left
    /// the graph, or changed size or pin status, since the graph was first
    /// traced. `false` means a pointer to `addr` resolves exactly as it did
    /// in every earlier state of this graph.
    pub fn range_changed(&self, addr: Addr) -> bool {
        let after = self.changed.partition_point(|&(start, _)| start <= addr.0);
        after > 0 && addr.0 < self.changed[after - 1].1
    }

    /// Iterates over all objects in address order.
    pub fn iter(&self) -> impl Iterator<Item = &TracedObject> {
        self.objects.values()
    }

    /// Iterates mutably over all objects in address order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut TracedObject> {
        self.objects.values_mut()
    }

    /// Number of traced objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects were traced.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Marks the object at `addr` immutable (and non-updatable).
    pub fn mark_immutable(&mut self, addr: Addr) {
        if let Some(o) = self.objects.get_mut(&addr.0) {
            o.immutable = true;
            o.non_updatable = true;
        }
    }

    /// Marks the object at `addr` non-updatable.
    pub fn mark_non_updatable(&mut self, addr: Addr) {
        if let Some(o) = self.objects.get_mut(&addr.0) {
            o.non_updatable = true;
        }
    }

    /// Objects that must be transferred (dirty) in address order. Dirtiness
    /// is derived from each object's epoch stamp
    /// ([`TracedObject::dirty_epoch`]), the same source of truth the
    /// pre-copy delta engine uses.
    pub fn dirty_objects(&self) -> impl Iterator<Item = &TracedObject> {
        self.objects.values().filter(|o| o.is_dirty())
    }

    /// Objects pinned at their old address.
    pub fn immutable_objects(&self) -> impl Iterator<Item = &TracedObject> {
        self.objects.values().filter(|o| o.immutable)
    }

    /// Total bytes of all traced objects.
    pub fn total_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.size).sum()
    }

    /// Total bytes of dirty objects only (the state-transfer payload).
    pub fn dirty_bytes(&self) -> u64 {
        self.objects.values().filter(|o| o.is_dirty()).map(|o| o.size).sum()
    }

    /// Delta retrace: re-scans only the objects whose pages were written
    /// after epoch `since`, follows any new edges into yet-untraced objects,
    /// sweeps objects that became unreachable, and recomputes the derived
    /// pin flags and statistics — converging to the same graph a fresh
    /// [`Tracer::trace`](crate::tracing::tracer::Tracer::trace) of the same
    /// memory would produce, while visiting only the dirtied part.
    pub fn retrace_dirty(
        &mut self,
        tracer: &crate::tracing::tracer::Tracer<'_>,
        since: u64,
    ) -> crate::tracing::stats::TracingStats {
        tracer.retrace_dirty(self, since)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(addr: u64, size: u64, dirty: bool) -> TracedObject {
        TracedObject {
            addr: Addr(addr),
            size,
            origin: ObjectOrigin::Heap { site: Some("s".into()) },
            class: RegionClass::Dynamic,
            type_id: Some(TypeId(1)),
            dirty_epoch: u64::from(dirty),
            startup: true,
            immutable: false,
            non_updatable: false,
            precise_pointers: Vec::new(),
            likely_pointers: Vec::new(),
        }
    }

    #[test]
    fn insert_lookup_and_containment() {
        let mut g = ObjectGraph::new();
        g.insert(obj(0x1000, 64, true));
        g.insert(obj(0x2000, 32, false));
        assert_eq!(g.len(), 2);
        assert!(g.contains(Addr(0x1000)));
        assert!(g.get(Addr(0x2000)).is_some());
        assert_eq!(g.object_containing(Addr(0x1010)).unwrap().addr, Addr(0x1000));
        assert!(g.object_containing(Addr(0x1040)).is_none());
        assert!(g.object_containing(Addr(0x500)).is_none());
    }

    #[test]
    fn dirty_and_immutable_queries() {
        let mut g = ObjectGraph::new();
        g.insert(obj(0x1000, 64, true));
        g.insert(obj(0x2000, 32, false));
        assert_eq!(g.dirty_objects().count(), 1);
        assert_eq!(g.dirty_bytes(), 64);
        assert_eq!(g.total_bytes(), 96);
        g.mark_immutable(Addr(0x2000));
        g.mark_non_updatable(Addr(0x1000));
        assert_eq!(g.immutable_objects().count(), 1);
        assert!(g.get(Addr(0x2000)).unwrap().non_updatable);
        assert!(g.get(Addr(0x1000)).unwrap().non_updatable);
        assert!(!g.get(Addr(0x1000)).unwrap().immutable);
    }

    #[test]
    fn dirty_epoch_is_the_single_source_of_truth() {
        let mut o = obj(0x1000, 64, false);
        assert!(!o.is_dirty());
        o.dirty_epoch = 7;
        assert!(o.is_dirty());
        let mut g = ObjectGraph::new();
        g.insert(o);
        g.insert(obj(0x2000, 32, false));
        assert_eq!(g.dirty_objects().count(), 1);
        assert_eq!(g.dirty_bytes(), 64);
        g.remove(Addr(0x1000));
        assert_eq!(g.dirty_objects().count(), 0);
        g.retain(|o| o.addr != Addr(0x2000));
        assert!(g.is_empty());
    }

    #[test]
    fn origin_descriptions() {
        assert!(ObjectOrigin::Static { symbol: "conf".into() }.describe().contains("conf"));
        assert!(ObjectOrigin::Heap { site: None }.describe().contains("untyped"));
        assert!(ObjectOrigin::Lib { name: None }.describe().contains("library"));
        assert!(ObjectOrigin::Static { symbol: "x".into() }.is_static());
        assert!(!ObjectOrigin::Mmap.is_static());
    }

    #[test]
    fn edges_iterate_precise_then_likely() {
        let mut o = obj(0x1000, 64, true);
        o.precise_pointers.push(PointerEdge {
            offset: 0,
            target: Addr(0x2000),
            target_base: Addr(0x2000),
            target_class: RegionClass::Dynamic,
            masked_bits: 0,
        });
        o.likely_pointers.push(PointerEdge {
            offset: 8,
            target: Addr(0x3000),
            target_base: Addr(0x3000),
            target_class: RegionClass::Dynamic,
            masked_bits: 0,
        });
        assert_eq!(o.edges().count(), 2);
        assert!(o.contains(Addr(0x1000)) && o.contains(Addr(0x103f)) && !o.contains(Addr(0x1040)));
        assert_eq!(o.end(), Addr(0x1040));
    }
}
