//! Mutable tracing: hybrid precise/conservative traversal of the old
//! version's program state (paper §6).
//!
//! The traversal starts from the root set (registered globals plus annotated
//! objects), follows pointers precisely where data-type tags are available,
//! scans opaque memory conservatively for likely pointers otherwise, and
//! produces an [`ObjectGraph`] plus the [`TracingStats`] reported in Table 2.
//! Soft-dirty page information restricts the transferable set to objects
//! modified after startup.

pub(crate) mod graph;
pub(crate) mod stats;
pub(crate) mod tracer;

pub use graph::{ObjectGraph, TracedObject};
pub use stats::{PointerStats, TracingStats};
pub use tracer::{trace_process, TraceOptions, TraceResult, Tracer};
