//! Error types for the simulated operating-system substrate.

use std::fmt;

use crate::ids::{Fd, Pid, Tid};
use crate::memory::Addr;

/// Errors produced by the simulated kernel and memory subsystem.
///
/// The variants intentionally mirror the classes of failures a real
/// POSIX-style kernel would report (bad addresses, bad descriptors, unknown
/// processes) so that the MCR layers built on top exercise realistic error
/// handling paths.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing (addr, len, base, size)
pub enum SimError {
    /// An access touched an address that is not mapped in the address space.
    UnmappedAddress(Addr),
    /// An access ran past the end of a mapped region.
    OutOfBounds { addr: Addr, len: usize },
    /// A region could not be mapped because it overlaps an existing mapping.
    MappingOverlap { base: Addr, size: u64 },
    /// A write was attempted on a read-only region.
    ReadOnlyRegion(Addr),
    /// The simulated heap has no room left for the requested allocation.
    OutOfMemory { requested: u64 },
    /// An operation referenced a chunk address that is not a live allocation.
    InvalidFree(Addr),
    /// The process does not exist (or has already exited).
    NoSuchProcess(Pid),
    /// The thread does not exist within the target process.
    NoSuchThread(Pid, Tid),
    /// The file descriptor is not open in the calling process.
    BadFd(Fd),
    /// The requested file descriptor number is already in use.
    FdInUse(Fd),
    /// A socket operation was attempted on an object of the wrong kind.
    NotASocket(Fd),
    /// The referenced kernel object no longer exists.
    StaleObject(u64),
    /// The requested TCP/UDP port is already bound by another socket.
    PortInUse(u16),
    /// accept()/read() found nothing and the call would block.
    WouldBlock,
    /// The path does not exist in the simulated file system.
    NoSuchFile(String),
    /// Catch-all for invalid arguments to a syscall.
    InvalidArgument(String),
    /// The simulated program aborted (used by servers that detect a
    /// conflicting running instance, mirroring Apache httpd's behaviour).
    Aborted(String),
    /// A chaos-engine fault armed with [`crate::Kernel::arm_syscall_fault`]
    /// fired: the n-th syscall after arming was suppressed and failed with
    /// this error instead of executing.
    FaultInjected { nth: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnmappedAddress(a) => write!(f, "unmapped address {a}"),
            SimError::OutOfBounds { addr, len } => {
                write!(f, "access of {len} bytes at {addr} runs out of bounds")
            }
            SimError::MappingOverlap { base, size } => {
                write!(f, "mapping of {size} bytes at {base} overlaps an existing region")
            }
            SimError::ReadOnlyRegion(a) => write!(f, "write to read-only region at {a}"),
            SimError::OutOfMemory { requested } => {
                write!(f, "simulated heap exhausted while requesting {requested} bytes")
            }
            SimError::InvalidFree(a) => write!(f, "free of non-allocated chunk at {a}"),
            SimError::NoSuchProcess(p) => write!(f, "no such process {p}"),
            SimError::NoSuchThread(p, t) => write!(f, "no such thread {t} in process {p}"),
            SimError::BadFd(fd) => write!(f, "bad file descriptor {fd}"),
            SimError::FdInUse(fd) => write!(f, "file descriptor {fd} already in use"),
            SimError::NotASocket(fd) => write!(f, "descriptor {fd} is not a socket"),
            SimError::StaleObject(id) => write!(f, "kernel object {id} no longer exists"),
            SimError::PortInUse(p) => write!(f, "port {p} already in use"),
            SimError::WouldBlock => write!(f, "operation would block"),
            SimError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            SimError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            SimError::Aborted(m) => write!(f, "program aborted: {m}"),
            SimError::FaultInjected { nth } => {
                write!(f, "injected fault at syscall {nth} after arming")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenient result alias used throughout the simulator.
pub(crate) type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_style() {
        let samples: Vec<SimError> = vec![
            SimError::UnmappedAddress(Addr(0x1000)),
            SimError::OutOfBounds { addr: Addr(0x2000), len: 16 },
            SimError::OutOfMemory { requested: 64 },
            SimError::BadFd(Fd(7)),
            SimError::WouldBlock,
            SimError::PortInUse(80),
            SimError::Aborted("another instance running".into()),
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_object_usable() {
        fn take(_e: &dyn std::error::Error) {}
        take(&SimError::WouldBlock);
    }
}
