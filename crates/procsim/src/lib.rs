//! # mcr-procsim — simulated OS substrate for the MCR reproduction
//!
//! This crate provides the deterministic, user-space substitute for the Linux
//! facilities the original Mutable Checkpoint-Restart (MCR) prototype relies
//! on: processes and threads, fork/exec semantics, file-descriptor tables with
//! SCM_RIGHTS-style descriptor passing, pid-namespace-style pid forcing,
//! listening sockets whose backlogs survive a process handover, virtual
//! address spaces with per-page *soft-dirty* tracking, and the allocator
//! families (ptmalloc-like heap, region/pool, slab) used by the evaluated
//! server programs.
//!
//! The higher layers (`mcr-typemeta`, `mcr-core`, `mcr-servers`) implement the
//! paper's actual contribution on top of this substrate; see `DESIGN.md` at
//! the repository root for the full substitution rationale.
//!
//! ## Slab substrate and ordering guarantees
//!
//! Every hot kernel table is a dense slab, not an ordered map, so the
//! per-event cost of a lookup is O(1) at any fleet size:
//!
//! * **Objects** ([`ObjectTable`]) — slot `Vec` + LIFO free-list; an
//!   [`ObjId`] resolves through a dense id→slot vector. Ids are monotonic
//!   and never reused, and each slot carries a *generation tag* (the id it
//!   currently holds), so a stale id tombstones instead of aliasing a
//!   recycled slot. Live objects stay threaded on an intrusive
//!   insertion-order list.
//! * **Descriptors** ([`FdTable`]) — the low range is indexed directly by
//!   descriptor number with a min-heap free-list (lowest-free-first
//!   allocation); the reserved range is monotonic and never recycled.
//! * **Processes / threads** — pid→slot slab in the kernel; each process
//!   keeps its threads in a tid-sorted dense `Vec`.
//! * **Readiness** — per-object waiter lists are intrusive FIFO lists
//!   through dense per-thread wait slots; timers sit on a bucketed wheel
//!   with lazy cancellation; wakeups are delivered in batches into a
//!   reusable buffer ([`Kernel::drain_wakeups_into`]).
//!
//! The *guaranteed orders* are unchanged from the ordered-map substrate the
//! slabs replaced (the property suite proves byte-identical kernel
//! fingerprints): object/descriptor/process iteration is ascending-id,
//! object waiters wake in park (FIFO) order, timers fire in (deadline,
//! registration) order, and the wake queue is FIFO with O(1) dedup.
//!
//! ## Quick example
//!
//! ```rust
//! use mcr_procsim::{Kernel, Syscall, SyscallPort, MemoryLayout};
//!
//! # fn main() -> Result<(), mcr_procsim::SimError> {
//! let mut kernel = Kernel::new();
//! let pid = kernel.create_process("demo");
//! let tid = kernel.process(pid)?.main_tid();
//! kernel.process_mut(pid)?.setup_memory(MemoryLayout::default(), true)?;
//!
//! let fd = kernel.syscall(pid, tid, Syscall::Socket)?.as_fd().unwrap();
//! kernel.syscall(pid, tid, Syscall::Bind { fd, port: 8080 })?;
//! kernel.syscall(pid, tid, Syscall::Listen { fd })?;
//!
//! let conn = kernel.client_connect(8080)?;
//! kernel.client_send(conn, b"ping".to_vec())?;
//! let accepted = kernel.syscall(pid, tid, Syscall::Accept { fd })?.as_fd().unwrap();
//! assert!(kernel.client_is_accepted(conn));
//! # let _ = accepted;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod alloc;
pub(crate) mod clock;
pub(crate) mod error;
pub(crate) mod fd;
pub(crate) mod ids;
pub(crate) mod kernel;
pub(crate) mod memory;
pub(crate) mod objects;
pub(crate) mod process;
pub(crate) mod store;
pub(crate) mod syscall;

pub use alloc::{AllocSite, ChunkInfo, PoolId, PtMalloc, RegionAllocator, TypeTag};
pub use clock::{SimDuration, SimInstant};
pub use error::SimError;
pub use fd::{FdEntry, FdTable};
pub use ids::{ConnId, Fd, ObjId, Pid, Tid, RESERVED_FD_BASE};
pub use kernel::{fnv_hash, ClientSnapshot, ClientView, FdPlacement, Kernel};
pub use memory::{Addr, AddressSpace, DirtyRange, MemoryRegion, PendingTrap, RegionKind, PAGE_SIZE};
pub use objects::{KernelObject, ObjectTable, UnixMessage};
pub use process::{MemoryLayout, Process, Thread, ThreadState};
pub use store::{checksum64, FsStore, MemStore, Store, StoreError, WriteFault};
pub use syscall::{Syscall, SyscallPort, SyscallRet};
