//! State transfer: remapping the traced object graph into the new version
//! (paper §6), including on-the-fly type transformations, pointer rewriting
//! and pinning of conservatively-traced immutable objects.

pub mod checkpoint;
pub mod engine;
pub(crate) mod transform;

pub use checkpoint::{checkpoint_now, restore_latest, CheckpointOptions, CheckpointSummary};
pub use engine::ProcessTransferReport;
pub use transform::{apply_field_map, compute_field_map, FieldMap};
