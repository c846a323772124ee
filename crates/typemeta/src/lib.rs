//! # mcr-typemeta — type and instrumentation metadata for MCR
//!
//! The original MCR obtains program metadata from an LLVM link-time pass
//! (data-type tags, relocation tags, allocation-site analysis) and from a
//! dynamic preload library (shared-library tracking). This crate provides the
//! same metadata for the simulated programs of this reproduction:
//!
//! * [`TypeRegistry`] / [`TypeDesc`] — structural type descriptors with layout
//!   computation, flattening into pointer / scalar / opaque runs, and
//!   cross-version compatibility checks;
//! * [`StaticRegistry`] — the static-object (symbol) registry of one program
//!   version;
//! * [`CallSiteRegistry`] — allocation-site information used to type heap
//!   chunks and match dynamic objects across versions;
//! * [`InstrumentationLevel`] / [`InstrumentationConfig`] — the cumulative
//!   instrumentation configurations evaluated in Table 3 of the paper.
//!
//! ```rust
//! use mcr_typemeta::{Field, TypeRegistry};
//!
//! let mut reg = TypeRegistry::new();
//! let int = reg.int("int", 4);
//! let node = reg.struct_type("node", vec![
//!     Field::new("value", int),
//!     Field::new("count", int),
//! ]);
//! assert_eq!(reg.size_of(node), 8);
//! assert_eq!(reg.field_offset(node, "count"), Some(4));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod instrument;
pub(crate) mod statics;
pub(crate) mod types;

pub use instrument::{InstrumentationConfig, InstrumentationLevel};
pub use statics::{CallSiteInfo, CallSiteRegistry, StaticObject, StaticRegistry};
pub use types::{Field, FieldLayout, LayoutElement, TypeDesc, TypeId, TypeKind, TypeRegistry};
