//! The forms the tracer's shortcuts replaced, kept as the references the
//! crate's tests hold them to: resolving at pop with one read per opaque
//! element (checked at the end of every trace), a dirty-stamp query per
//! object and a whole-graph mark (checked inside every retrace).

use std::collections::{BTreeSet, VecDeque};

use mcr_procsim::Addr;
use mcr_typemeta::{LayoutElement, TypeId};

use super::{Discovered, ScanScratch, Tracer};
use crate::annotations::{pointer_mask, ObjTreatment};
use crate::tracing::graph::{ObjectGraph, ObjectOrigin, PointerEdge, TracedObject};
use crate::tracing::stats::{RegionClass, TracingStats};

/// Asserts a fresh trace (graph, pins, edge order, statistics) equal to: pop
/// an address, resolve it, skip it if its base is already in the graph, scan
/// it one opaque element at a time, enqueue, insert.
pub(super) fn check_trace(tracer: &Tracer<'_>, graph: &ObjectGraph, stats: &TracingStats) {
    let roots = || tracer.state.statics.roots();
    let mut enqueued: BTreeSet<u64> = roots().map(|root| root.addr.0).collect();
    let mut queue: VecDeque<(Addr, Option<TypeId>)> =
        roots().map(|root| (root.addr, Some(root.ty))).collect();
    let mut reference = ObjectGraph::new();
    let (mut discovered, mut scratch) = (Discovered::new(), ScanScratch::default());
    while let Some((addr, declared)) = queue.pop_front() {
        let Some(resolved) = tracer.resolve_object(addr) else { continue };
        if reference.contains(resolved.base) {
            continue;
        }
        let mut traced = TracedObject {
            addr: resolved.base,
            size: resolved.size,
            origin: resolved.origin,
            class: resolved.class,
            type_id: resolved.type_id.or(if addr == resolved.base { declared } else { None }),
            dirty_epoch: tracer.object_dirty_epoch(resolved.base, resolved.size),
            startup: resolved.startup,
            immutable: false,
            non_updatable: false,
            precise_pointers: Vec::new(),
            likely_pointers: Vec::new(),
        };
        discovered.clear();
        scan_per_element(tracer, &mut traced, &mut discovered, &mut scratch);
        for (target, ty) in discovered.drain(..) {
            if enqueued.insert(target.base.0) {
                queue.push_back((target.base, ty));
            }
        }
        reference.insert(traced);
    }
    let reference_stats = tracer.finalize(&mut reference, false);
    assert!(
        graph.iter().eq(reference.iter()) && *stats == reference_stats,
        "the traversal diverged from resolving at pop and filing per object"
    );
}

/// Scans a typed layout one opaque element at a time, one read each, and
/// every other layout plan as the traversal does.
fn scan_per_element(
    tracer: &Tracer<'_>,
    traced: &mut TracedObject,
    discovered: &mut Discovered,
    scratch: &mut ScanScratch,
) {
    let treatment = match &traced.origin {
        ObjectOrigin::Static { symbol } => tracer.state.annotations.obj_treatment(symbol),
        _ => None,
    };
    let mask = match treatment {
        None => 0,
        Some(ObjTreatment::EncodedPointers { mask_bits }) => pointer_mask(*mask_bits),
        Some(_) => return tracer.scan_object(traced, discovered, scratch),
    };
    let types = &tracer.state.types;
    let Some(ty) = traced.type_id.filter(|&ty| !types.layout_elements(ty).is_empty()) else {
        return tracer.scan_object(traced, discovered, scratch);
    };
    let stride = types.size_of(ty).max(1);
    for k in 0..(traced.size / stride).max(1) {
        for elem in types.layout_elements(ty) {
            match *elem {
                LayoutElement::Pointer { offset, to } => {
                    tracer.follow_precise(traced, k * stride + offset, Some(to), mask, discovered);
                }
                LayoutElement::Opaque { offset, len } => {
                    let start = k * stride + offset;
                    tracer.scan_conservative(traced, start..start + len, discovered, scratch);
                }
                LayoutElement::Scalar { .. } => {}
            }
        }
    }
}

/// Asserts the page-driven stale set equal to asking every object of the
/// graph for its pages' stamp.
pub(super) fn check_stale_set(
    tracer: &Tracer<'_>,
    graph: &ObjectGraph,
    since: u64,
    stale: &[(Addr, Option<TypeId>)],
) {
    let stamped_after = |o: &&TracedObject| {
        let epoch = tracer.object_dirty_epoch(o.addr, o.size);
        epoch == u64::MAX || epoch > since
    };
    let reference: Vec<_> = graph.iter().filter(stamped_after).map(|o| (o.addr, o.type_id)).collect();
    assert_eq!(stale, reference, "the page-driven stale set diverged");
}

/// The bases of the objects of `graph` a traversal from the roots reaches
/// over the current edges, looking each target's region up again: what a
/// sweep of `graph` has to keep.
pub(super) fn full_mark(tracer: &Tracer<'_>, graph: &ObjectGraph) -> BTreeSet<u64> {
    let outside_libraries = |edge: &&PointerEdge| tracer.region_class_of(edge.target) != RegionClass::Lib;
    let mut reached = BTreeSet::new();
    let roots = tracer.state.statics.roots().filter_map(|root| tracer.resolve_object(root.addr));
    let mut stack: Vec<Addr> = roots.map(|resolved| resolved.base).collect();
    while let Some(base) = stack.pop() {
        let Some(obj) = graph.get(base) else { continue };
        if !reached.insert(base.0) {
            continue;
        }
        let edges = obj.precise_pointers.iter().chain(&obj.likely_pointers).filter(outside_libraries);
        stack.extend(edges.map(|e| e.target_base));
    }
    reached
}

/// Asserts that the delta sweep kept exactly the objects [`full_mark`]
/// reached before it ran (a sweep only removes objects).
pub(super) fn check_sweep(graph: &ObjectGraph, reached: &BTreeSet<u64>) {
    assert!(
        graph.iter().map(|o| o.addr.0).eq(reached.iter().copied()),
        "the delta sweep kept or dropped an object the whole-graph mark decides differently"
    );
}
