//! Mutable-tracing statistics (the data behind Table 2).

use mcr_procsim::RegionKind;

/// Memory-region class used by the Table 2 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegionClass {
    /// Global variables, strings and other static program data.
    Static,
    /// Heap, pools, stacks and anonymous mappings.
    Dynamic,
    /// Static or dynamic shared-library state.
    Lib,
}

impl RegionClass {
    /// Classifies a simulator region kind.
    pub(crate) fn from_kind(kind: RegionKind) -> Self {
        match kind {
            RegionKind::Static => RegionClass::Static,
            RegionKind::Lib => RegionClass::Lib,
            RegionKind::Heap | RegionKind::Stack | RegionKind::Mmap => RegionClass::Dynamic,
        }
    }
}

/// Pointer counts broken down by source and target region class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointerStats {
    /// Total pointers of this kind.
    pub total: u64,
    /// Pointers whose *source* slot lives in static memory.
    pub src_static: u64,
    /// Pointers whose source slot lives in dynamic memory.
    pub src_dynamic: u64,
    /// Pointers whose source slot lives in library memory.
    pub(crate) src_lib: u64,
    /// Pointers whose *target* lives in static memory.
    pub(crate) targ_static: u64,
    /// Pointers whose target lives in dynamic memory.
    pub(crate) targ_dynamic: u64,
    /// Pointers whose target lives in library memory.
    pub targ_lib: u64,
}

impl PointerStats {
    /// Records one pointer with the given source and target classes.
    pub(crate) fn record(&mut self, src: RegionClass, targ: RegionClass) {
        self.total += 1;
        match src {
            RegionClass::Static => self.src_static += 1,
            RegionClass::Dynamic => self.src_dynamic += 1,
            RegionClass::Lib => self.src_lib += 1,
        }
        match targ {
            RegionClass::Static => self.targ_static += 1,
            RegionClass::Dynamic => self.targ_dynamic += 1,
            RegionClass::Lib => self.targ_lib += 1,
        }
    }

    /// Merges another set of counts into this one.
    pub(crate) fn merge(&mut self, other: &PointerStats) {
        self.total += other.total;
        self.src_static += other.src_static;
        self.src_dynamic += other.src_dynamic;
        self.src_lib += other.src_lib;
        self.targ_static += other.targ_static;
        self.targ_dynamic += other.targ_dynamic;
        self.targ_lib += other.targ_lib;
    }
}

/// Aggregate statistics produced by mutable tracing (Table 2 plus the object
/// counts quoted in the text of §8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracingStats {
    /// Precisely identified pointers.
    pub precise: PointerStats,
    /// Likely pointers found by conservative scanning.
    pub likely: PointerStats,
    /// Objects reached by the traversal.
    pub objects_traced: u64,
    /// Objects marked immutable (pinned at their old address).
    pub immutable_objects: u64,
    /// Objects marked non-updatable.
    pub(crate) non_updatable_objects: u64,
    /// Objects found dirty (modified after startup).
    pub dirty_objects: u64,
    /// Total traced bytes.
    pub traced_bytes: u64,
    /// Dirty traced bytes (the state-transfer payload).
    pub(crate) dirty_bytes: u64,
}

impl TracingStats {
    /// Fraction of traced objects marked immutable (the "0.7%–31.9%"
    /// discussion in §8).
    pub fn immutable_fraction(&self) -> f64 {
        if self.objects_traced == 0 {
            0.0
        } else {
            self.immutable_objects as f64 / self.objects_traced as f64
        }
    }

    /// Reduction in transferred state achieved by dirty-object tracking
    /// (1.0 means everything was skipped, 0.0 means everything was dirty).
    pub(crate) fn dirty_reduction(&self) -> f64 {
        if self.traced_bytes == 0 {
            0.0
        } else {
            1.0 - (self.dirty_bytes as f64 / self.traced_bytes as f64)
        }
    }

    /// Merges per-process statistics into a program-wide aggregate.
    pub fn merge(&mut self, other: &TracingStats) {
        self.precise.merge(&other.precise);
        self.likely.merge(&other.likely);
        self.objects_traced += other.objects_traced;
        self.immutable_objects += other.immutable_objects;
        self.non_updatable_objects += other.non_updatable_objects;
        self.dirty_objects += other.dirty_objects;
        self.traced_bytes += other.traced_bytes;
        self.dirty_bytes += other.dirty_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_classification() {
        assert_eq!(RegionClass::from_kind(RegionKind::Static), RegionClass::Static);
        assert_eq!(RegionClass::from_kind(RegionKind::Heap), RegionClass::Dynamic);
        assert_eq!(RegionClass::from_kind(RegionKind::Stack), RegionClass::Dynamic);
        assert_eq!(RegionClass::from_kind(RegionKind::Mmap), RegionClass::Dynamic);
        assert_eq!(RegionClass::from_kind(RegionKind::Lib), RegionClass::Lib);
    }

    #[test]
    fn pointer_stats_record_and_merge() {
        let mut a = PointerStats::default();
        a.record(RegionClass::Static, RegionClass::Dynamic);
        a.record(RegionClass::Dynamic, RegionClass::Dynamic);
        let mut b = PointerStats::default();
        b.record(RegionClass::Lib, RegionClass::Static);
        a.merge(&b);
        assert_eq!(a.total, 3);
        assert_eq!(a.src_static, 1);
        assert_eq!(a.src_dynamic, 1);
        assert_eq!(a.src_lib, 1);
        assert_eq!(a.targ_dynamic, 2);
        assert_eq!(a.targ_static, 1);
    }

    #[test]
    fn derived_fractions() {
        let mut s = TracingStats { objects_traced: 10, immutable_objects: 3, ..Default::default() };
        s.traced_bytes = 1000;
        s.dirty_bytes = 200;
        assert!((s.immutable_fraction() - 0.3).abs() < 1e-9);
        assert!((s.dirty_reduction() - 0.8).abs() < 1e-9);
        let empty = TracingStats::default();
        assert_eq!(empty.immutable_fraction(), 0.0);
        assert_eq!(empty.dirty_reduction(), 0.0);
    }

    #[test]
    fn stats_merge() {
        let mut a = TracingStats { objects_traced: 5, dirty_objects: 2, ..Default::default() };
        let b = TracingStats { objects_traced: 7, immutable_objects: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.objects_traced, 12);
        assert_eq!(a.immutable_objects, 1);
        assert_eq!(a.dirty_objects, 2);
    }
}
