//! The startup log recorded by mutable reinitialization.
//!
//! During program startup in the old version, MCR records every system call
//! (with its arguments, result, issuing thread and call-stack ID) in an
//! in-memory startup log. The log is later consulted in the new version to
//! replay the operations that refer to immutable state objects, giving the
//! new startup code the illusion of a fresh start while actually inheriting
//! in-kernel state (paper §5).
//!
//! The entries sit behind an [`Arc`]: cloning a log, and handing it to
//! [`Interposer::replayer`](crate::interpose::Interposer::replayer), shares
//! the one entry vector instead of copying every recorded `String`. Only
//! [`StartupLog::record`] writes, through [`Arc::make_mut`], which copies
//! nothing while the recording interposer is the log's sole owner (the
//! normal case: a log is shared only once its startup has finished).

use std::sync::Arc;

use mcr_procsim::{Pid, Syscall, SyscallRet};

use crate::callstack::CallStackId;

/// One recorded startup-time operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Sequence number (recording order across all processes/threads).
    pub(crate) seq: u64,
    /// Call-stack identifier of the issuing thread at call time.
    pub(crate) callstack: CallStackId,
    /// Pid of the issuing process (the *virtual* pid the program observes).
    pub(crate) pid: Pid,
    /// Name of the issuing thread.
    pub(crate) thread: String,
    /// The recorded call, including deeply-comparable arguments.
    pub call: Syscall,
    /// The recorded result.
    pub ret: SyscallRet,
}

/// The startup log of one program version.
#[derive(Debug, Clone, Default)]
pub struct StartupLog {
    entries: Arc<Vec<LogEntry>>,
}

impl StartupLog {
    /// Creates an empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends an entry, assigning the next sequence number.
    pub(crate) fn record(
        &mut self,
        callstack: CallStackId,
        pid: Pid,
        thread: impl Into<String>,
        call: Syscall,
        ret: SyscallRet,
    ) -> u64 {
        let seq = self.entries.len() as u64;
        Arc::make_mut(&mut self.entries).push(LogEntry {
            seq,
            callstack,
            pid,
            thread: thread.into(),
            call,
            ret,
        });
        seq
    }

    /// All entries in recording order.
    pub(crate) fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate in-memory footprint of the log in bytes (contributes to
    /// the memory-usage evaluation, §8).
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| {
                let args = match &e.call {
                    Syscall::Open { path, .. } => path.len(),
                    Syscall::Write { data, .. } => data.len(),
                    Syscall::UnixSend { data, .. } => data.len(),
                    _ => 0,
                };
                let ret = match &e.ret {
                    SyscallRet::Data(d) => d.len(),
                    SyscallRet::DataWithFds(d, fds) => d.len() + fds.len() * 4,
                    _ => 0,
                };
                96 + e.thread.len() + args + ret
            })
            .sum::<usize>() as u64
    }
}

/// Whether a system call participates in replay.
///
/// These are the calls that create or observe *immutable state objects*
/// (descriptors, pids, pinned mappings) plus startup-time reads whose results
/// must be reproduced so the new startup code sees the same configuration the
/// old version saw.
pub(crate) fn is_replay_eligible(call: &Syscall) -> bool {
    call.touches_immutable_state() || matches!(call, Syscall::Read { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_procsim::Fd;

    fn sample_log() -> StartupLog {
        let mut log = StartupLog::new();
        let cs = CallStackId::from_frames(&["main", "server_init"]);
        log.record(cs, Pid(100), "main", Syscall::Socket, SyscallRet::Fd(Fd(3)));
        log.record(cs, Pid(100), "main", Syscall::Bind { fd: Fd(3), port: 80 }, SyscallRet::Unit);
        log.record(
            CallStackId::from_frames(&["main", "server_init", "read_config"]),
            Pid(100),
            "main",
            Syscall::Read { fd: Fd(4), len: 64 },
            SyscallRet::Data(b"workers=2".to_vec()),
        );
        log.record(cs, Pid(100), "main", Syscall::Nanosleep { ns: 10 }, SyscallRet::Unit);
        log
    }

    #[test]
    fn record_assigns_sequence_numbers() {
        let log = sample_log();
        assert_eq!(log.len(), 4);
        let seqs: Vec<u64> = log.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clones_share_entries_until_one_records() {
        let mut log = sample_log();
        let shared = log.clone();
        assert!(std::ptr::eq(log.entries(), shared.entries()), "a clone copies no entry");
        log.record(CallStackId::empty(), Pid(100), "main", Syscall::Getpid, SyscallRet::Pid(Pid(100)));
        assert_eq!((log.len(), shared.len()), (5, 4), "recording never shows through a shared handle");
        assert_eq!(log.entries()[..4], *shared.entries());
    }

    #[test]
    fn filtering_by_callstack() {
        let log = sample_log();
        let cs = CallStackId::from_frames(&["main", "server_init"]);
        assert_eq!(log.entries().iter().filter(|e| e.callstack == cs).count(), 3);
    }

    #[test]
    fn replayable_excludes_pure_live_calls() {
        let log = sample_log();
        let names: Vec<&str> =
            log.entries().iter().filter(|e| is_replay_eligible(&e.call)).map(|e| e.call.name()).collect();
        assert_eq!(names, vec!["socket", "bind", "read"]);
    }

    #[test]
    fn memory_footprint_grows_with_entries() {
        let log = sample_log();
        let m = log.memory_bytes();
        assert!(m > 4 * 96);
        let empty = StartupLog::new();
        assert_eq!(empty.memory_bytes(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn read_is_replay_eligible_but_accept_is_not() {
        assert!(is_replay_eligible(&Syscall::Read { fd: Fd(1), len: 1 }));
        assert!(!is_replay_eligible(&Syscall::Accept { fd: Fd(1) }));
        assert!(!is_replay_eligible(&Syscall::Write { fd: Fd(1), data: vec![] }));
        assert!(is_replay_eligible(&Syscall::Socket));
    }
}
