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
pub(crate) enum ObjectOrigin {
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
    pub(crate) fn describe(&self) -> String {
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
    pub(crate) fn is_static(&self) -> bool {
        matches!(self, ObjectOrigin::Static { .. })
    }
}

/// A pointer discovered by mutable tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PointerEdge {
    /// Offset of the pointer slot within the source object.
    pub(crate) offset: u64,
    /// The raw pointer value (may be an interior pointer).
    pub(crate) target: Addr,
    /// Base address of the object the pointer lands in.
    pub(crate) target_base: Addr,
    /// Class of the region `target` points into, recorded by the scan (which
    /// already holds the region) so that nothing derived from the edges has
    /// to look the region up again.
    pub(crate) target_class: RegionClass,
    /// Bits masked off the raw value before following (encoded pointers).
    pub(crate) masked_bits: u64,
}

/// One object reached by mutable tracing in the old version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedObject {
    /// Base address in the old version.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Origin (static / heap / pool / lib / mmap).
    pub(crate) origin: ObjectOrigin,
    /// Class of the region holding the object (the *source* class of its
    /// outgoing pointers in the Table 2 breakdown), recorded by the scan.
    pub(crate) class: RegionClass,
    /// Type, when precise information is available.
    pub(crate) type_id: Option<TypeId>,
    /// The highest write-epoch stamp of the pages covering the object: `0`
    /// when the object is clean since startup (nothing to transfer),
    /// `u64::MAX` when dirty tracking is disabled (everything is treated as
    /// dirty). This is the single source of truth for dirtiness — the
    /// pre-copy engine compares it against the epoch at which the object's
    /// contents were last copied to decide whether a re-copy is needed.
    pub(crate) dirty_epoch: u64,
    /// Whether the object was created during startup.
    pub(crate) startup: bool,
    /// Whether the object must keep its address in the new version
    /// (conservatively referenced).
    pub(crate) immutable: bool,
    /// Whether the object may not be type-transformed (it is referenced by,
    /// or contains, likely pointers).
    pub(crate) non_updatable: bool,
    /// Pointers located with precise type information.
    pub(crate) precise_pointers: Vec<PointerEdge>,
    /// Likely pointers located by conservative scanning.
    pub(crate) likely_pointers: Vec<PointerEdge>,
}

impl TracedObject {
    /// Whether the object was modified after startup (must be transferred).
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty_epoch != 0
    }

    /// Whether `addr` falls inside the object.
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.addr.0 && addr.0 < self.addr.0 + self.size.max(1)
    }
}

/// The object graph produced by tracing one process of the old version.
///
/// Besides the objects the graph remembers *where it changed shape*: every
/// delta retrace records the address range of each object that entered the
/// graph, left it, changed size or changed pin status since the graph was
/// first traced (`ObjectGraph::range_changed`). A pointer whose value lies
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
    pub(crate) fn new() -> Self {
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
    pub(crate) fn insert(&mut self, obj: TracedObject) -> Option<TracedObject> {
        self.max_size = self.max_size.max(obj.size);
        self.objects.insert(obj.addr.0, obj)
    }

    /// Whether an object with this base address is present.
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        self.objects.contains_key(&addr.0)
    }

    /// Shared access by base address.
    pub(crate) fn get(&self, addr: Addr) -> Option<&TracedObject> {
        self.objects.get(&addr.0)
    }

    /// Exclusive access by base address.
    pub(crate) fn get_mut(&mut self, addr: Addr) -> Option<&mut TracedObject> {
        self.objects.get_mut(&addr.0)
    }

    /// Removes the object with this base address (delta retraces drop
    /// objects that were freed or became unreachable).
    pub(crate) fn remove(&mut self, addr: Addr) -> Option<TracedObject> {
        self.objects.remove(&addr.0)
    }

    /// The object whose extent contains `addr`, if any.
    pub(crate) fn object_containing(&self, addr: Addr) -> Option<&TracedObject> {
        self.objects.range(..=addr.0).next_back().map(|(_, o)| o).filter(|o| o.contains(addr))
    }

    /// The objects with at least one byte in `[base, base + len)`, in
    /// address order. Costs the objects starting within the largest object
    /// size below `base`, not the graph.
    pub(crate) fn overlapping(&self, base: Addr, len: u64) -> impl Iterator<Item = &TracedObject> {
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
    pub(crate) fn any_changed(&self) -> bool {
        !self.changed.is_empty()
    }

    /// Whether `addr` lies in the range of an object that entered or left
    /// the graph, or changed size or pin status, since the graph was first
    /// traced. `false` means a pointer to `addr` resolves exactly as it did
    /// in every earlier state of this graph.
    pub(crate) fn range_changed(&self, addr: Addr) -> bool {
        let after = self.changed.partition_point(|&(start, _)| start <= addr.0);
        after > 0 && addr.0 < self.changed[after - 1].1
    }

    /// Iterates over all objects in address order.
    pub fn iter(&self) -> impl Iterator<Item = &TracedObject> {
        self.objects.values()
    }

    /// Iterates mutably over all objects in address order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut TracedObject> {
        self.objects.values_mut()
    }

    /// Number of traced objects.
    pub(crate) fn len(&self) -> usize {
        self.objects.len()
    }

    /// Delta retrace: re-scans only the objects whose pages were written
    /// after epoch `since`, follows any new edges into yet-untraced objects,
    /// sweeps objects that became unreachable, and recomputes the derived
    /// pin flags and statistics — converging to the same graph a fresh
    /// [`Tracer::trace`](crate::tracing::tracer::Tracer::trace) of the same
    /// memory would produce, while visiting only the dirtied part.
    pub(crate) fn retrace_dirty(
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

    /// The dirty objects (the state-transfer payload), in address order.
    fn dirty_objects(g: &ObjectGraph) -> impl Iterator<Item = &TracedObject> {
        g.objects.values().filter(|o| o.is_dirty())
    }

    fn bytes<'a>(objects: impl Iterator<Item = &'a TracedObject>) -> u64 {
        objects.map(|o| o.size).sum()
    }

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
        assert_eq!(dirty_objects(&g).count(), 1);
        assert_eq!(bytes(dirty_objects(&g)), 64);
        assert_eq!(bytes(g.objects.values()), 96);
        let pinned = g.objects.get_mut(&0x2000).unwrap();
        (pinned.immutable, pinned.non_updatable) = (true, true);
        g.objects.get_mut(&0x1000).unwrap().non_updatable = true;
        assert_eq!(g.objects.values().filter(|o| o.immutable).count(), 1);
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
        assert_eq!(dirty_objects(&g).count(), 1);
        assert_eq!(bytes(dirty_objects(&g)), 64);
        g.remove(Addr(0x1000));
        assert_eq!(dirty_objects(&g).count(), 0);
        g.remove(Addr(0x2000));
        assert_eq!(g.len(), 0);
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
        assert_eq!((o.precise_pointers.len(), o.likely_pointers.len()), (1, 1));
        assert!(o.contains(Addr(0x1000)) && o.contains(Addr(0x103f)) && !o.contains(Addr(0x1040)));
        assert_eq!(o.addr.offset(o.size), Addr(0x1040));
    }
}
