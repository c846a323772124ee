//! # mcr-core — Mutable Checkpoint-Restart
//!
//! A Rust reproduction of the live-update system described in
//! *"Mutable Checkpoint-Restart: Automating Live Update for Generic Server
//! Programs"* (Giuffrida, Iorgulescu, Tanenbaum — Middleware 2014), built on
//! the simulated OS substrate of [`mcr_procsim`] and the type metadata of
//! [`mcr_typemeta`].
//!
//! The crate implements the paper's three techniques:
//!
//! * **Quiescence detection** (`quiescence`, [`runtime`]) — a
//!   profiler that suggests per-thread quiescent points and a barrier
//!   protocol that parks every thread at its quiescent point when an update
//!   is requested.
//! * **Mutable reinitialization** (`log`, `interpose`) — startup-time
//!   system calls are recorded in the old version and replayed in the new
//!   version, matched by call-stack ID with deep argument comparison, so the
//!   new version restores its threads, processes and startup-time state by
//!   re-running its own initialization code while inheriting immutable state
//!   objects (descriptors, pids, pinned memory).
//! * **Mutable tracing** ([`tracing`], [`transfer`]) — a hybrid
//!   precise/conservative GC-style traversal of the old version's memory
//!   that transfers the remaining (dirty) objects, relocating and
//!   type-transforming them where type information permits and pinning them
//!   as immutable where it does not.
//!
//! The [`runtime`] module ties everything together: [`runtime::boot`] starts
//! an MCR-enabled program, and [`runtime::live_update`] performs an atomic,
//! reversible live update.
//!
//! ## The phase model
//!
//! A live update is executed by an `UpdatePipeline`: an ordered sequence of
//! named `Phase` values sharing one `UpdateCtx`. The standard pipeline is
//!
//! | # | Phase ([`PhaseName`]) | Paper stage |
//! |---|---|---|
//! | 1 | `Quiesce` | checkpoint: park old-version threads at quiescent points |
//! | 2 | `ReinitReplay` | restart: mutable reinitialization (record/replay, descriptor and pid inheritance) |
//! | 3 | `MatchProcesses` | restore: pair old and new processes by creation call stack |
//! | 4 | `TraceAndTransfer` | restore: mutable tracing + state transfer per pair |
//! | 5 | `Commit` | commit: resume the new version, terminate the old |
//!
//! The pipeline driver records each phase's duration into
//! [`UpdateReport::phases`](runtime::report::UpdateReport) and routes *every*
//! failure through a single rollback guard, so a failure at any phase
//! boundary leaves the old version running exactly where it was parked. A
//! `ChaosPlan` injects failures at chosen boundaries to prove exactly that
//! (see `tests/live_update_integration.rs`).
//!
//! ## Example
//!
//! Programs implement the [`Program`] trait (see the `mcr-servers` crate for
//! full models of Apache httpd, nginx, vsftpd and OpenSSH); updating one is a
//! single call:
//!
//! ```text
//! let mut kernel = Kernel::new();
//! let v1 = runtime::boot(&mut kernel, Box::new(MyServer::new(1)), &BootOptions::default())?;
//! // ... serve traffic ...
//! let (v2, outcome) = runtime::live_update(
//!     &mut kernel, v1, Box::new(MyServer::new(2)),
//!     InstrumentationConfig::full(), &UpdateOptions::default());
//! assert!(outcome.is_committed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod annotations;
pub mod callstack;
pub mod error;
pub(crate) mod intern;
pub(crate) mod interpose;
pub(crate) mod log;
pub mod program;
pub(crate) mod quiescence;
pub mod runtime;
pub mod tracing;
pub mod transfer;

pub use annotations::{AnnotationRegistry, ObjTreatment, ReinitDecision, ReinitHandler, TransformHandler};
pub use error::{Conflict, McrError, McrResult};
pub use interpose::{InterposeStats, Interposer};
pub use log::{LogEntry, StartupLog};
pub use program::Program;
pub use quiescence::{QuiescenceProfiler, QuiescenceReport, QuiescentPoint, ThreadClassReport};
pub use runtime::{AttemptSummary, McrInstance, PhaseName, PhaseRecord, PhaseTrace};
pub use tracing::{ObjectGraph, TraceOptions, TracingStats};
