//! The simulated system-call interface.
//!
//! Programs running on the simulator issue [`Syscall`] values through a
//! [`SyscallPort`]; the kernel executes them and returns a [`SyscallRet`].
//! MCR's record/replay machinery interposes on this interface exactly like
//! the paper's `libmcr.so` interposes on libc: during startup in the old
//! version every call is appended to the startup log, and during mutable
//! reinitialization in the new version calls are matched against that log and
//! replayed (returning the recorded result) or executed live.

use crate::error::SimResult;
use crate::ids::{Fd, Pid, Tid};
use crate::memory::Addr;

/// A system call with its (deeply comparable) arguments.
///
/// Arguments are plain values, so the "deep comparison of syscall arguments"
/// performed by mutable reinitialization when matching log entries reduces to
/// structural equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// Create a TCP listening socket (unbound).
    Socket,
    /// Bind a socket to a port.
    Bind {
        /// Socket descriptor.
        fd: Fd,
        /// Port to bind.
        port: u16,
    },
    /// Start listening on a bound socket.
    Listen {
        /// Socket descriptor.
        fd: Fd,
    },
    /// Accept a pending connection (non-blocking in the simulator; blocking
    /// semantics are layered on top by unblockification).
    Accept {
        /// Listening socket descriptor.
        fd: Fd,
    },
    /// Open a file in the simulated file system.
    Open {
        /// File path.
        path: String,
        /// Create the file if it does not exist.
        create: bool,
    },
    /// Read up to `len` bytes from a file descriptor.
    Read {
        /// Descriptor.
        fd: Fd,
        /// Maximum bytes to read.
        len: usize,
    },
    /// Write bytes to a file or connection descriptor.
    Write {
        /// Descriptor.
        fd: Fd,
        /// Payload.
        data: Vec<u8>,
    },
    /// Close a descriptor.
    Close {
        /// Descriptor.
        fd: Fd,
    },
    /// Duplicate `old` onto `new` (closing `new` first if open).
    Dup2 {
        /// Source descriptor.
        old: Fd,
        /// Target descriptor number.
        new: Fd,
    },
    /// Set or clear the close-on-exec flag.
    SetCloexec {
        /// Descriptor.
        fd: Fd,
        /// New flag value.
        on: bool,
    },
    /// Fork the calling process.
    Fork,
    /// Create a new thread in the calling process.
    SpawnThread {
        /// Thread name.
        name: String,
    },
    /// Return the caller's pid.
    Getpid,
    /// Terminate the calling process.
    Exit {
        /// Exit code.
        code: i32,
    },
    /// Map an anonymous memory region.
    Mmap {
        /// Length in bytes.
        size: u64,
        /// Region name (diagnostics).
        name: String,
        /// `MAP_FIXED`-style placement request.
        fixed: Option<Addr>,
    },
    /// Unmap a region previously mapped at `base`.
    Munmap {
        /// Region base.
        base: Addr,
    },
    /// Bind a named Unix-domain channel.
    UnixBind {
        /// Abstract channel name.
        name: String,
    },
    /// Connect to a named Unix-domain channel.
    UnixConnect {
        /// Abstract channel name.
        name: String,
    },
    /// Send a datagram (optionally passing descriptors) on a Unix channel.
    UnixSend {
        /// Channel descriptor (from [`Syscall::UnixConnect`] or [`Syscall::UnixBind`]).
        fd: Fd,
        /// Payload.
        data: Vec<u8>,
        /// Descriptors to pass (SCM_RIGHTS).
        pass_fds: Vec<Fd>,
    },
    /// Receive one queued datagram from a Unix channel.
    UnixRecv {
        /// Channel descriptor.
        fd: Fd,
    },
    /// Become a session leader (daemonization step).
    SetSid,
    /// Sleep for a number of simulated nanoseconds.
    Nanosleep {
        /// Duration in nanoseconds.
        ns: u64,
    },
}

impl Syscall {
    /// The syscall's name, used in startup-log diagnostics and conflict
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Socket => "socket",
            Syscall::Bind { .. } => "bind",
            Syscall::Listen { .. } => "listen",
            Syscall::Accept { .. } => "accept",
            Syscall::Open { .. } => "open",
            Syscall::Read { .. } => "read",
            Syscall::Write { .. } => "write",
            Syscall::Close { .. } => "close",
            Syscall::Dup2 { .. } => "dup2",
            Syscall::SetCloexec { .. } => "fcntl",
            Syscall::Fork => "fork",
            Syscall::SpawnThread { .. } => "pthread_create",
            Syscall::Getpid => "getpid",
            Syscall::Exit { .. } => "exit",
            Syscall::Mmap { .. } => "mmap",
            Syscall::Munmap { .. } => "munmap",
            Syscall::UnixBind { .. } => "unix_bind",
            Syscall::UnixConnect { .. } => "unix_connect",
            Syscall::UnixSend { .. } => "unix_send",
            Syscall::UnixRecv { .. } => "unix_recv",
            Syscall::SetSid => "setsid",
            Syscall::Nanosleep { .. } => "nanosleep",
        }
    }

    /// The descriptor a blocking variant of this call waits on, if any.
    ///
    /// When such a call fails with [`crate::SimError::WouldBlock`], the
    /// kernel parks the calling thread on the descriptor's kernel object so
    /// that the next state change on that object (client connect, client
    /// send, peer close, queued datagram) produces a wakeup instead of
    /// requiring the scheduler to re-poll the thread.
    pub(crate) fn blocking_fd(&self) -> Option<Fd> {
        match self {
            Syscall::Accept { fd } | Syscall::Read { fd, .. } | Syscall::UnixRecv { fd } => Some(*fd),
            _ => None,
        }
    }

    /// Whether the call creates or manipulates an *immutable state object*
    /// (descriptors, pids, pinned memory): only such calls participate in
    /// mutable reinitialization's replay (paper §5).
    pub fn touches_immutable_state(&self) -> bool {
        matches!(
            self,
            Syscall::Socket
                | Syscall::Bind { .. }
                | Syscall::Listen { .. }
                | Syscall::Open { .. }
                | Syscall::Dup2 { .. }
                | Syscall::SetCloexec { .. }
                | Syscall::Fork
                | Syscall::SpawnThread { .. }
                | Syscall::Getpid
                | Syscall::Mmap { .. }
                | Syscall::UnixBind { .. }
                | Syscall::SetSid
                | Syscall::Close { .. }
        )
    }
}

/// The result of a successfully executed system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallRet {
    /// No interesting return value.
    Unit,
    /// A file descriptor.
    Fd(Fd),
    /// A process id (`fork` in the parent, `getpid`).
    Pid(Pid),
    /// A thread id.
    Tid(Tid),
    /// Bytes read / received.
    Data(Vec<u8>),
    /// Bytes plus passed descriptors (Unix datagram with SCM_RIGHTS).
    DataWithFds(Vec<u8>, Vec<Fd>),
    /// A mapped address.
    Addr(Addr),
    /// Number of bytes written.
    Written(usize),
}

impl SyscallRet {
    /// Extracts a descriptor, if the result carries one.
    pub fn as_fd(&self) -> Option<Fd> {
        match self {
            SyscallRet::Fd(fd) => Some(*fd),
            _ => None,
        }
    }

    /// Extracts a pid, if the result carries one.
    pub fn as_pid(&self) -> Option<Pid> {
        match self {
            SyscallRet::Pid(p) => Some(*p),
            _ => None,
        }
    }

    /// Extracts an address, if the result carries one.
    pub fn as_addr(&self) -> Option<Addr> {
        match self {
            SyscallRet::Addr(a) => Some(*a),
            _ => None,
        }
    }
}

/// The interface through which simulated programs issue system calls.
///
/// The kernel implements it directly; MCR's runtime wraps a kernel port with
/// recording (old version) or replaying (new version) behaviour.
pub trait SyscallPort {
    /// Executes `call` on behalf of thread `tid` of process `pid`.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's error for the failing call (bad descriptor,
    /// would-block, port in use, ...).
    fn syscall(&mut self, pid: Pid, tid: Tid, call: Syscall) -> SimResult<SyscallRet>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Syscall::Socket.name(), "socket");
        assert_eq!(Syscall::Bind { fd: Fd(3), port: 80 }.name(), "bind");
        assert_eq!(Syscall::Fork.name(), "fork");
        assert_eq!(Syscall::UnixRecv { fd: Fd(1) }.name(), "unix_recv");
    }

    #[test]
    fn immutable_state_classification() {
        assert!(Syscall::Socket.touches_immutable_state());
        assert!(Syscall::Fork.touches_immutable_state());
        assert!(Syscall::Open { path: "/etc/conf".into(), create: false }.touches_immutable_state());
        assert!(!Syscall::Read { fd: Fd(0), len: 10 }.touches_immutable_state());
        assert!(!Syscall::Nanosleep { ns: 5 }.touches_immutable_state());
        assert!(!Syscall::Accept { fd: Fd(3) }.touches_immutable_state());
    }

    #[test]
    fn ret_extractors() {
        assert_eq!(SyscallRet::Fd(Fd(4)).as_fd(), Some(Fd(4)));
        assert_eq!(SyscallRet::Unit.as_fd(), None);
        assert_eq!(SyscallRet::Pid(Pid(2)).as_pid(), Some(Pid(2)));
        assert_eq!(SyscallRet::Addr(Addr(8)).as_addr(), Some(Addr(8)));
    }

    #[test]
    fn deep_argument_equality() {
        let a = Syscall::Bind { fd: Fd(3), port: 80 };
        let b = Syscall::Bind { fd: Fd(3), port: 80 };
        let c = Syscall::Bind { fd: Fd(3), port: 8080 };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
