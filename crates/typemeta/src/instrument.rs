//! Instrumentation configurations.
//!
//! The paper evaluates run-time overhead cumulatively (Table 3): the
//! *unblockification* wrappers alone, plus the static LLVM instrumentation
//! (allocator tags), plus the dynamic instrumentation (shared-library
//! allocation tracking and process/thread metadata), plus the quiescence
//! detection hooks. [`InstrumentationLevel`] reproduces those configurations;
//! [`InstrumentationConfig`] adds the orthogonal choice of instrumenting a
//! program's custom region allocator (the `nginxreg` configuration).

/// Cumulative instrumentation levels, in the order of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrumentationLevel {
    /// No MCR support at all (the overhead baseline).
    Baseline,
    /// Blocking library calls are wrapped (unblockification) but nothing else.
    Unblock,
    /// `Unblock` + static instrumentation: heap allocator tags and static
    /// object registration.
    StaticInstr,
    /// `StaticInstr` + dynamic instrumentation: shared-library allocation
    /// tracking and process/thread metadata maintenance.
    DynamicInstr,
    /// `DynamicInstr` + quiescence-detection hooks (the full MCR solution).
    QuiescenceDetection,
}

impl InstrumentationLevel {
    /// All levels, in evaluation order.
    pub const ALL: [InstrumentationLevel; 5] = [
        InstrumentationLevel::Baseline,
        InstrumentationLevel::Unblock,
        InstrumentationLevel::StaticInstr,
        InstrumentationLevel::DynamicInstr,
        InstrumentationLevel::QuiescenceDetection,
    ];

    /// Column label used in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            InstrumentationLevel::Baseline => "baseline",
            InstrumentationLevel::Unblock => "Unblock",
            InstrumentationLevel::StaticInstr => "+SInstr",
            InstrumentationLevel::DynamicInstr => "+DInstr",
            InstrumentationLevel::QuiescenceDetection => "+QDet",
        }
    }

    /// Whether blocking calls are routed through unblockification wrappers.
    pub fn unblockified(self) -> bool {
        self >= InstrumentationLevel::Unblock
    }

    /// Whether the heap allocator maintains in-band MCR tags.
    pub fn heap_instrumented(self) -> bool {
        self >= InstrumentationLevel::StaticInstr
    }

    /// Whether shared-library allocations and process/thread metadata are
    /// tracked at run time.
    pub fn dynamic_tracking(self) -> bool {
        self >= InstrumentationLevel::DynamicInstr
    }

    /// Whether quiescence-detection hooks are active.
    pub fn quiescence_hooks(self) -> bool {
        self >= InstrumentationLevel::QuiescenceDetection
    }
}

/// The full instrumentation configuration of one MCR-enabled program build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentationConfig {
    /// Cumulative level.
    pub level: InstrumentationLevel,
    /// Whether the program's *custom* region/slab allocator is instrumented
    /// as well (increases updatability at extra run-time cost; the paper's
    /// `nginxreg` configuration).
    pub instrument_region_allocator: bool,
}

impl InstrumentationConfig {
    /// The full MCR configuration without custom-allocator instrumentation
    /// (the paper's default deployment).
    pub fn full() -> Self {
        InstrumentationConfig {
            level: InstrumentationLevel::QuiescenceDetection,
            instrument_region_allocator: false,
        }
    }

    /// The full MCR configuration with custom-allocator instrumentation
    /// (the paper's `nginxreg` configuration).
    pub fn full_with_region_instrumentation() -> Self {
        InstrumentationConfig {
            level: InstrumentationLevel::QuiescenceDetection,
            instrument_region_allocator: true,
        }
    }

    /// An uninstrumented baseline build.
    pub fn baseline() -> Self {
        InstrumentationConfig { level: InstrumentationLevel::Baseline, instrument_region_allocator: false }
    }
}

impl Default for InstrumentationConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        use InstrumentationLevel::*;
        assert!(!Baseline.unblockified());
        assert!(Unblock.unblockified());
        assert!(!Unblock.heap_instrumented());
        assert!(StaticInstr.heap_instrumented());
        assert!(!StaticInstr.dynamic_tracking());
        assert!(DynamicInstr.dynamic_tracking());
        assert!(!DynamicInstr.quiescence_hooks());
        assert!(QuiescenceDetection.quiescence_hooks());
        assert!(QuiescenceDetection.unblockified() && QuiescenceDetection.heap_instrumented());
    }

    #[test]
    fn labels_match_table3_columns() {
        let labels: Vec<&str> = InstrumentationLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels, vec!["baseline", "Unblock", "+SInstr", "+DInstr", "+QDet"]);
    }

    #[test]
    fn config_constructors() {
        assert_eq!(InstrumentationConfig::default(), InstrumentationConfig::full());
        assert!(InstrumentationConfig::full_with_region_instrumentation().instrument_region_allocator);
        assert_eq!(InstrumentationConfig::baseline().level, InstrumentationLevel::Baseline);
    }
}
