//! Library-call interposition: recording and mutable replay of startup
//! operations.
//!
//! The [`Interposer`] sits between a simulated program and the kernel, in the
//! position the paper's `libmcr.so` occupies between a C server and libc.
//! In the *old* version it records every successful startup-time call into
//! the startup log. In the *new* version it matches calls against that log by
//! call-stack ID and deep argument comparison, replaying the operations that
//! refer to immutable state objects and executing everything else live —
//! flagging a conflict whenever the conservative matching rules are violated
//! (paper §5).
//!
//! Process-id virtualization stands in for the Linux pid-namespace trick: the
//! new version observes the *old* pids (so pid values stored in transferred
//! data structures remain meaningful) while the kernel keeps assigning fresh
//! real pids.
//!
//! # The matching rule
//!
//! A replayed startup call is matched to *the first unconsumed entry, in log
//! order, with the same virtual pid, the same call stack and a deeply equal
//! call*; failing that, to the first unconsumed entry, in log order, with the
//! same virtual pid, the same call stack and the same syscall name (a
//! conflict unless a reinitialization handler resolves it). An entry is
//! consumed when it is replayed, or when a handler answers its name match
//! with `ExecuteLive` or `Skip`; entries still unconsumed when startup ends
//! are omission conflicts ([`Interposer::finish_replay`]).
//!
//! The replayer does not copy the old version's log: it keeps a shared
//! handle to it ([`StartupLog`] clones share their entries) and builds, once,
//! for every `(virtual pid, call stack)` the list of that site's log
//! positions, in log order, with a cursor past the site's consumed prefix. A
//! lookup searches only its own site's list from the cursor, which preserves
//! log order and therefore picks exactly the entry a scan of the whole log
//! would. Replay in recording order — the same startup code, the common
//! case — costs O(1) amortised per call; calls that arrive out of order
//! within one site scan that site's unconsumed entries.

use std::collections::BTreeMap;

use mcr_procsim::{FdPlacement, Kernel, Pid, SimError, Syscall, SyscallPort, SyscallRet, Tid};

use crate::annotations::{AnnotationRegistry, ReinitDecision};
use crate::callstack::CallStackId;
use crate::error::{Conflict, McrError, McrResult};
use crate::log::{is_replay_eligible, StartupLog};

/// Operating mode of the interposer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InterposeMode {
    /// Record startup operations (old version).
    Record,
    /// Replay against an inherited startup log (new version).
    Replay,
}

/// Counters describing the interposer's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterposeStats {
    /// Calls recorded into the startup log.
    pub recorded: u64,
    /// Calls satisfied from the log without touching the kernel.
    pub replayed: u64,
    /// Calls executed live while in replay mode.
    pub executed_live: u64,
    /// Calls resolved by a user reinitialization handler.
    pub(crate) handler_resolved: u64,
}

/// The inherited log's positions recorded at one `(virtual pid, call stack)`.
#[derive(Debug, Default)]
struct Site {
    /// Log positions, in log order.
    positions: Vec<usize>,
    /// Every position before `positions[cursor]` is consumed.
    cursor: usize,
}

/// The record/replay engine.
#[derive(Debug)]
pub struct Interposer {
    mode: InterposeMode,
    /// Log being recorded (Record mode; Replay mode re-records into it).
    log: StartupLog,
    /// Log inherited from the old version (Replay mode), shared with it.
    replay_log: StartupLog,
    consumed: Vec<bool>,
    /// Index of `replay_log` by call site (see the module docs).
    sites: BTreeMap<(Pid, CallStackId), Site>,
    pid_virt_to_actual: BTreeMap<u32, u32>,
    pid_actual_to_virt: BTreeMap<u32, u32>,
    stats: InterposeStats,
}

impl Interposer {
    /// Creates an interposer that records a fresh startup log.
    pub(crate) fn recorder() -> Self {
        Self::new(InterposeMode::Record, StartupLog::new())
    }

    /// Creates an interposer that replays against `old_log`, sharing its
    /// entries rather than copying them.
    pub(crate) fn replayer(old_log: &StartupLog) -> Self {
        Self::new(InterposeMode::Replay, old_log.clone())
    }

    fn new(mode: InterposeMode, replay_log: StartupLog) -> Self {
        let mut sites: BTreeMap<_, Site> = BTreeMap::new();
        for (idx, entry) in replay_log.entries().iter().enumerate() {
            sites.entry((entry.pid, entry.callstack)).or_default().positions.push(idx);
        }
        Interposer {
            mode,
            log: StartupLog::new(),
            consumed: vec![false; replay_log.len()],
            replay_log,
            sites,
            pid_virt_to_actual: BTreeMap::new(),
            pid_actual_to_virt: BTreeMap::new(),
            stats: InterposeStats::default(),
        }
    }

    /// The startup log recorded so far (Record mode).
    pub fn recorded_log(&self) -> &StartupLog {
        &self.log
    }

    /// Activity counters.
    pub fn stats(&self) -> InterposeStats {
        self.stats
    }

    /// Registers an explicit virtual→actual pid mapping (used by the
    /// controller to seed the mapping for the new version's first process).
    pub(crate) fn map_pid(&mut self, virtual_pid: Pid, actual_pid: Pid) {
        self.pid_virt_to_actual.insert(virtual_pid.0, actual_pid.0);
        self.pid_actual_to_virt.insert(actual_pid.0, virtual_pid.0);
    }

    /// The virtual pid the program observes for an actual kernel pid.
    pub(crate) fn virtual_pid(&self, actual: Pid) -> Pid {
        Pid(self.pid_actual_to_virt.get(&actual.0).copied().unwrap_or(actual.0))
    }

    /// The actual kernel pid behind a virtual pid.
    pub(crate) fn actual_pid(&self, virt: Pid) -> Pid {
        Pid(self.pid_virt_to_actual.get(&virt.0).copied().unwrap_or(virt.0))
    }

    /// The first unconsumed entry, in log order, recorded by `virt_pid` at
    /// `callstack` whose call satisfies `matches`.
    fn first_unconsumed(
        &self,
        virt_pid: Pid,
        callstack: CallStackId,
        matches: impl Fn(&Syscall) -> bool,
    ) -> Option<usize> {
        let entries = self.replay_log.entries();
        let site = self.sites.get(&(virt_pid, callstack))?;
        let candidates = &site.positions[site.cursor..];
        let found = candidates.iter().position(|&idx| !self.consumed[idx] && matches(&entries[idx].call));
        found.map(|at| candidates[at])
    }

    /// Exact match: same process, same call stack, same call with
    /// deeply-equal arguments.
    fn find_entry(&self, virt_pid: Pid, callstack: CallStackId, call: &Syscall) -> Option<usize> {
        self.first_unconsumed(virt_pid, callstack, |logged| logged == call)
    }

    fn find_name_match(&self, virt_pid: Pid, callstack: CallStackId, call: &Syscall) -> Option<usize> {
        self.first_unconsumed(virt_pid, callstack, |logged| logged.name() == call.name())
    }

    /// Marks a log entry consumed and moves its site's cursor past the
    /// consumed prefix.
    fn consume(&mut self, idx: usize) {
        self.consumed[idx] = true;
        let entry = &self.replay_log.entries()[idx];
        let site = self
            .sites
            .get_mut(&(entry.pid, entry.callstack))
            .expect("every position of the inherited log is indexed under its site");
        while site.positions.get(site.cursor).is_some_and(|&i| self.consumed[i]) {
            site.cursor += 1;
        }
    }

    fn creates_fd(call: &Syscall) -> bool {
        matches!(
            call,
            Syscall::Socket | Syscall::Open { .. } | Syscall::UnixBind { .. } | Syscall::UnixConnect { .. }
        )
    }

    fn execute_live(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        tid: Tid,
        call: Syscall,
    ) -> Result<SyscallRet, SimError> {
        let is_fork = matches!(call, Syscall::Fork);
        let is_getpid = matches!(call, Syscall::Getpid);
        let ret = kernel.syscall(pid, tid, call)?;
        if is_fork {
            if let SyscallRet::Pid(child) = ret {
                // Identity mapping unless overridden by replay.
                self.pid_virt_to_actual.entry(child.0).or_insert(child.0);
                self.pid_actual_to_virt.entry(child.0).or_insert(child.0);
            }
        }
        if is_getpid {
            if let SyscallRet::Pid(p) = ret {
                return Ok(SyscallRet::Pid(self.virtual_pid(p)));
            }
        }
        Ok(ret)
    }

    /// Executes a replayed entry's side effects when the operation cannot be
    /// satisfied purely from the log (fork must really create a process,
    /// mmap must really map memory).
    fn replay_entry(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        tid: Tid,
        idx: usize,
        call: Syscall,
    ) -> McrResult<SyscallRet> {
        self.consume(idx);
        self.stats.replayed += 1;
        let logged_ret = self.replay_log.entries()[idx].ret.clone();
        match call {
            Syscall::Fork => {
                let ret = self
                    .execute_live(kernel, pid, tid, Syscall::Fork)
                    .map_err(|e| startup_failure("fork", e))?;
                let actual_child = ret.as_pid().expect("fork returns a pid");
                let virtual_child = logged_ret.as_pid().unwrap_or(actual_child);
                self.pid_virt_to_actual.insert(virtual_child.0, actual_child.0);
                self.pid_actual_to_virt.insert(actual_child.0, virtual_child.0);
                Ok(SyscallRet::Pid(virtual_child))
            }
            Syscall::SpawnThread { name } => {
                let ret = self
                    .execute_live(kernel, pid, tid, Syscall::SpawnThread { name })
                    .map_err(|e| startup_failure("pthread_create", e))?;
                Ok(ret)
            }
            Syscall::Mmap { size, name, .. } => {
                // Pin the mapping at the address recorded in the old version
                // (MAP_FIXED-style global reallocation of memory objects).
                let fixed = logged_ret.as_addr();
                let ret = self
                    .execute_live(kernel, pid, tid, Syscall::Mmap { size, name, fixed })
                    .map_err(|e| startup_failure("mmap", e))?;
                Ok(ret)
            }
            _ => Ok(logged_ret),
        }
    }

    /// Handles one system call issued by the program.
    ///
    /// # Errors
    ///
    /// Returns the kernel's error for live-executed calls, and
    /// [`McrError::Conflicts`] when the conservative matching rules detect a
    /// replay conflict that no reinitialization handler resolves.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        tid: Tid,
        thread_name: &str,
        callstack: CallStackId,
        call: Syscall,
        in_startup: bool,
        annotations: &AnnotationRegistry,
    ) -> McrResult<SyscallRet> {
        let virt_pid = self.virtual_pid(pid);
        match self.mode {
            InterposeMode::Record => {
                let ret = self.execute_live(kernel, pid, tid, call.clone()).map_err(McrError::Sim)?;
                if in_startup {
                    self.log.record(callstack, virt_pid, thread_name, call, ret.clone());
                    self.stats.recorded += 1;
                }
                Ok(ret)
            }
            InterposeMode::Replay => {
                if !in_startup {
                    self.stats.executed_live += 1;
                    return self.execute_live(kernel, pid, tid, call).map_err(McrError::Sim);
                }
                if !is_replay_eligible(&call) {
                    self.stats.executed_live += 1;
                    let ret = self.execute_live(kernel, pid, tid, call.clone()).map_err(McrError::Sim)?;
                    // Even in replay mode a startup log is produced, so that a
                    // later update of this (now current) version can itself
                    // replay against it.
                    self.log.record(callstack, virt_pid, thread_name, call, ret.clone());
                    return Ok(ret);
                }
                // 1. Perfect match: replay from the log.
                if let Some(idx) = self.find_entry(virt_pid, callstack, &call) {
                    let ret = self.replay_entry(kernel, pid, tid, idx, call.clone())?;
                    self.log.record(callstack, virt_pid, thread_name, call, ret.clone());
                    return Ok(ret);
                }
                // 2. Same call site, same syscall, different arguments:
                //    a conflict unless a handler resolves it.
                if let Some(idx) = self.find_name_match(virt_pid, callstack, &call) {
                    let entry = self.replay_log.entries()[idx].clone();
                    match annotations.resolve_reinit(&call, Some(&entry)) {
                        ReinitDecision::ReplayRecorded => {
                            self.stats.handler_resolved += 1;
                            let ret = self.replay_entry(kernel, pid, tid, idx, call.clone())?;
                            self.log.record(callstack, virt_pid, thread_name, call, ret.clone());
                            return Ok(ret);
                        }
                        ReinitDecision::ExecuteLive => {
                            self.stats.handler_resolved += 1;
                            self.consume(idx);
                            let ret = self.execute_and_separate(kernel, pid, tid, call.clone())?;
                            self.log.record(callstack, virt_pid, thread_name, call, ret.clone());
                            return Ok(ret);
                        }
                        ReinitDecision::Skip => {
                            self.stats.handler_resolved += 1;
                            self.consume(idx);
                            return Ok(SyscallRet::Unit);
                        }
                        ReinitDecision::Abort(message) => {
                            return Err(Conflict::HandlerRequested { message }.into());
                        }
                        ReinitDecision::NotHandled => {
                            return Err(Conflict::ReplayArgumentMismatch {
                                callstack: callstack.0,
                                syscall: call.name().to_string(),
                                detail: format!("recorded {:?}, new version issued {:?}", entry.call, call),
                            }
                            .into());
                        }
                    }
                }
                // 3. A syscall the old version never issued from this call
                //    site: new startup behaviour, executed live (with global
                //    separability for fresh descriptors).
                match annotations.resolve_reinit(&call, None) {
                    ReinitDecision::Skip => {
                        self.stats.handler_resolved += 1;
                        Ok(SyscallRet::Unit)
                    }
                    ReinitDecision::Abort(message) => Err(Conflict::HandlerRequested { message }.into()),
                    _ => {
                        let ret = self.execute_and_separate(kernel, pid, tid, call.clone())?;
                        self.log.record(callstack, virt_pid, thread_name, call, ret.clone());
                        Ok(ret)
                    }
                }
            }
        }
    }

    /// Executes a call live during replayed startup, moving any fresh
    /// descriptor into the reserved range so it can never clash with (or be
    /// confused for) a descriptor inherited from the old version.
    fn execute_and_separate(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        tid: Tid,
        call: Syscall,
    ) -> McrResult<SyscallRet> {
        self.stats.executed_live += 1;
        let creates_fd = Self::creates_fd(&call);
        let name = call.name();
        let ret = self.execute_live(kernel, pid, tid, call).map_err(|e| startup_failure(name, e))?;
        if creates_fd {
            if let Some(fd) = ret.as_fd() {
                let reserved =
                    kernel.transfer_fd(pid, fd, pid, FdPlacement::Reserved).map_err(McrError::Sim)?;
                kernel.syscall(pid, tid, Syscall::Close { fd }).map_err(McrError::Sim)?;
                return Ok(SyscallRet::Fd(reserved));
            }
        }
        Ok(ret)
    }

    /// Finishes the replay phase: any recorded operation on immutable state
    /// that the new version never re-issued is reported as an omission
    /// conflict, unless a reinitialization handler accepts the omission.
    pub(crate) fn finish_replay(&mut self, annotations: &AnnotationRegistry) -> Vec<Conflict> {
        if self.mode != InterposeMode::Replay {
            return Vec::new();
        }
        let mut conflicts = Vec::new();
        for (i, entry) in self.replay_log.entries().iter().enumerate() {
            if self.consumed[i] || !is_replay_eligible(&entry.call) {
                continue;
            }
            match annotations.resolve_reinit(&entry.call, Some(entry)) {
                ReinitDecision::Skip | ReinitDecision::ExecuteLive | ReinitDecision::ReplayRecorded => {
                    self.stats.handler_resolved += 1;
                }
                ReinitDecision::Abort(message) => {
                    conflicts.push(Conflict::HandlerRequested { message });
                }
                ReinitDecision::NotHandled => {
                    conflicts.push(Conflict::OmittedReplayEntry {
                        callstack: entry.callstack.0,
                        syscall: entry.call.name().to_string(),
                    });
                }
            }
        }
        conflicts
    }
}

fn startup_failure(syscall: &str, error: SimError) -> McrError {
    McrError::Conflicts(vec![Conflict::StartupFailure {
        syscall: syscall.to_string(),
        error: error.to_string(),
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::chaos::ChaosRng;
    use mcr_procsim::{Fd, MemoryLayout};

    /// Fraction of replay-eligible entries consumed so far (diagnostics).
    fn replay_progress(rep: &Interposer) -> f64 {
        let (mut eligible, mut consumed) = (0u64, 0u64);
        for (entry, &done) in rep.replay_log.entries().iter().zip(&rep.consumed) {
            if is_replay_eligible(&entry.call) {
                eligible += 1;
                consumed += u64::from(done);
            }
        }
        if eligible == 0 {
            return 1.0;
        }
        consumed as f64 / eligible as f64
    }

    fn booted_kernel(name: &str) -> (Kernel, Pid, Tid) {
        let mut k = Kernel::new();
        let pid = k.create_process(name);
        let tid = k.process(pid).unwrap().main_tid();
        k.process_mut(pid).unwrap().setup_memory(MemoryLayout::default(), false).unwrap();
        (k, pid, tid)
    }

    fn cs(frames: &[&str]) -> CallStackId {
        CallStackId::from_frames(frames)
    }

    /// Records a tiny v1 startup: socket, bind 80, listen, getpid.
    fn record_v1() -> (Kernel, Pid, Tid, StartupLog) {
        let (mut k, pid, tid) = booted_kernel("v1");
        let ann = AnnotationRegistry::new();
        let mut rec = Interposer::recorder();
        let stack = cs(&["main", "server_init"]);
        let fd = rec
            .handle(&mut k, pid, tid, "main", stack, Syscall::Socket, true, &ann)
            .unwrap()
            .as_fd()
            .unwrap();
        rec.handle(&mut k, pid, tid, "main", stack, Syscall::Bind { fd, port: 80 }, true, &ann).unwrap();
        rec.handle(&mut k, pid, tid, "main", stack, Syscall::Listen { fd }, true, &ann).unwrap();
        rec.handle(&mut k, pid, tid, "main", stack, Syscall::Getpid, true, &ann).unwrap();
        let log = rec.recorded_log().clone();
        (k, pid, tid, log)
    }

    #[test]
    fn record_mode_logs_startup_calls() {
        let (_, _, _, log) = record_v1();
        assert_eq!(log.len(), 4);
        assert_eq!(log.entries()[0].call.name(), "socket");
        assert_eq!(log.entries()[3].call.name(), "getpid");
    }

    #[test]
    fn replay_returns_logged_results_without_kernel_effects() {
        let (mut k, old_pid, _, log) = record_v1();
        // New version process in the same kernel (old listener still bound).
        let new_pid = k.create_process("v2");
        let new_tid = k.process(new_pid).unwrap().main_tid();
        k.process_mut(new_pid).unwrap().setup_memory(MemoryLayout::with_slide(0x100000), false).unwrap();
        // Inherit fd 0 (the listener) at the same number.
        k.transfer_fd(old_pid, Fd(0), new_pid, FdPlacement::Exact(Fd(0))).unwrap();

        let ann = AnnotationRegistry::new();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(old_pid, new_pid);
        let stack = cs(&["main", "server_init"]);

        let fd = rep
            .handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Socket, true, &ann)
            .unwrap()
            .as_fd()
            .unwrap();
        assert_eq!(fd, Fd(0), "replay returns the recorded descriptor number");
        // Bind to port 80 would fail live (port in use by the old version);
        // replay must succeed without touching the kernel.
        rep.handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Bind { fd, port: 80 }, true, &ann)
            .unwrap();
        rep.handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Listen { fd }, true, &ann).unwrap();
        // getpid returns the old version's pid (pid virtualization).
        let pid_ret = rep
            .handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Getpid, true, &ann)
            .unwrap()
            .as_pid()
            .unwrap();
        assert_eq!(pid_ret, old_pid);
        assert!(rep.finish_replay(&ann).is_empty());
        assert_eq!(rep.stats().replayed, 4);
        assert!((replay_progress(&rep) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn argument_mismatch_is_a_conflict_unless_handled() {
        let (mut k, old_pid, _, log) = record_v1();
        let new_pid = k.create_process("v2");
        let new_tid = k.process(new_pid).unwrap().main_tid();
        k.process_mut(new_pid).unwrap().setup_memory(MemoryLayout::with_slide(0x100000), false).unwrap();
        let ann = AnnotationRegistry::new();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(old_pid, new_pid);
        let stack = cs(&["main", "server_init"]);
        let fd = rep
            .handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Socket, true, &ann)
            .unwrap()
            .as_fd()
            .unwrap();
        // The new version binds to a different port: same call site, same
        // syscall, different arguments.
        let err = rep
            .handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Bind { fd, port: 8080 }, true, &ann)
            .unwrap_err();
        match err {
            McrError::Conflicts(cs) => {
                assert!(matches!(cs[0], Conflict::ReplayArgumentMismatch { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }

        // With a reinitialization handler that accepts the change, the call
        // is resolved.
        let mut ann2 = AnnotationRegistry::new();
        ann2.add_reinit_handler(
            "accept-port-change",
            Box::new(|call, _| match call {
                Syscall::Bind { .. } => ReinitDecision::ReplayRecorded,
                _ => ReinitDecision::NotHandled,
            }),
        );
        let mut rep2 = Interposer::replayer(&log);
        rep2.map_pid(old_pid, new_pid);
        let fd = rep2
            .handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Socket, true, &ann2)
            .unwrap()
            .as_fd()
            .unwrap();
        rep2.handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Bind { fd, port: 8080 }, true, &ann2)
            .unwrap();
        assert_eq!(rep2.stats().handler_resolved, 1);
    }

    #[test]
    fn omitted_entries_flagged_at_finish() {
        let (mut k, old_pid, _, log) = record_v1();
        let new_pid = k.create_process("v2");
        let new_tid = k.process(new_pid).unwrap().main_tid();
        k.process_mut(new_pid).unwrap().setup_memory(MemoryLayout::with_slide(0x100000), false).unwrap();
        let ann = AnnotationRegistry::new();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(old_pid, new_pid);
        let stack = cs(&["main", "server_init"]);
        // Replay only the socket call; omit bind/listen/getpid.
        rep.handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Socket, true, &ann).unwrap();
        let conflicts = rep.finish_replay(&ann);
        assert_eq!(conflicts.len(), 3);
        assert!(conflicts.iter().all(|c| matches!(c, Conflict::OmittedReplayEntry { .. })));
        assert!(replay_progress(&rep) < 1.0);
    }

    #[test]
    fn new_calls_execute_live_in_reserved_range() {
        let (mut k, old_pid, _, log) = record_v1();
        let new_pid = k.create_process("v2");
        let new_tid = k.process(new_pid).unwrap().main_tid();
        k.process_mut(new_pid).unwrap().setup_memory(MemoryLayout::with_slide(0x100000), false).unwrap();
        k.add_file("/etc/new-feature.conf", b"on".to_vec());
        let ann = AnnotationRegistry::new();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(old_pid, new_pid);
        // The new version opens a config file the old one never opened.
        let stack = cs(&["main", "server_init", "load_new_feature"]);
        let fd = rep
            .handle(
                &mut k,
                new_pid,
                new_tid,
                "main",
                stack,
                Syscall::Open { path: "/etc/new-feature.conf".into(), create: false },
                true,
                &ann,
            )
            .unwrap()
            .as_fd()
            .unwrap();
        assert!(fd.is_reserved(), "fresh descriptors are allocated in the reserved range");
        assert_eq!(rep.stats().executed_live, 1);
    }

    #[test]
    fn fork_replay_virtualizes_child_pid() {
        // Record a v1 startup that forks a worker.
        let (mut k, pid, tid) = booted_kernel("v1");
        let ann = AnnotationRegistry::new();
        let mut rec = Interposer::recorder();
        let stack = cs(&["main", "spawn_workers"]);
        let child_v1 =
            rec.handle(&mut k, pid, tid, "main", stack, Syscall::Fork, true, &ann).unwrap().as_pid().unwrap();
        let log = rec.recorded_log().clone();

        // Replay in a new version.
        let new_pid = k.create_process("v2");
        let new_tid = k.process(new_pid).unwrap().main_tid();
        k.process_mut(new_pid).unwrap().setup_memory(MemoryLayout::with_slide(0x200000), false).unwrap();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(pid, new_pid);
        let virt_child = rep
            .handle(&mut k, new_pid, new_tid, "main", stack, Syscall::Fork, true, &ann)
            .unwrap()
            .as_pid()
            .unwrap();
        assert_eq!(virt_child, child_v1, "program observes the old child pid");
        let actual_child = rep.actual_pid(virt_child);
        assert_ne!(actual_child, child_v1, "the kernel assigned a fresh pid");
        assert!(k.process(actual_child).is_ok());
        assert_eq!(rep.virtual_pid(actual_child), child_v1);
    }

    #[test]
    fn post_startup_calls_pass_through() {
        let (mut k, old_pid, _, log) = record_v1();
        let new_pid = k.create_process("v2");
        let new_tid = k.process(new_pid).unwrap().main_tid();
        k.process_mut(new_pid).unwrap().setup_memory(MemoryLayout::with_slide(0x100000), false).unwrap();
        let ann = AnnotationRegistry::new();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(old_pid, new_pid);
        // After startup (in_startup = false), even replay-eligible calls are
        // executed live.
        let fd = rep
            .handle(&mut k, new_pid, new_tid, "main", cs(&["main"]), Syscall::Socket, false, &ann)
            .unwrap()
            .as_fd()
            .unwrap();
        assert!(!fd.is_reserved());
        assert_eq!(rep.stats().replayed, 0);
    }

    // ---- equivalence of the indexed matcher with the whole-log scan ----

    const VIRT_PIDS: [Pid; 3] = [Pid(100), Pid(101), Pid(102)];

    fn sites() -> [CallStackId; 3] {
        [cs(&["main", "server_init"]), cs(&["main", "load_config"]), cs(&["main", "spawn_workers"])]
    }

    /// A replay-eligible call from a pool small enough that one site sees
    /// repeated identical calls and calls differing only in their arguments.
    fn pool_call(rng: &mut ChaosRng) -> Syscall {
        match rng.range(0, 8) {
            0 => Syscall::Socket,
            1 => Syscall::Bind { fd: Fd(rng.range(0, 2) as i32), port: 80 + rng.range(0, 2) as u16 },
            2 => Syscall::Listen { fd: Fd(rng.range(0, 2) as i32) },
            3 => Syscall::Getpid,
            4 => Syscall::Open {
                path: format!("/etc/{}", ["a", "b"][rng.range(0, 2) as usize]),
                create: false,
            },
            5 => Syscall::SetSid,
            6 => Syscall::SpawnThread { name: format!("w{}", rng.range(0, 2)) },
            _ => Syscall::Read { fd: Fd(3), len: 8 * rng.range(1, 3) as usize },
        }
    }

    /// A result of the shape the kernel would have returned for `call`.
    fn pool_ret(call: &Syscall, pid: Pid, seq: u64) -> SyscallRet {
        match call {
            Syscall::Socket | Syscall::Open { .. } => SyscallRet::Fd(Fd((seq % 7) as i32)),
            Syscall::Getpid => SyscallRet::Pid(pid),
            Syscall::SpawnThread { .. } => SyscallRet::Tid(Tid(seq as u32)),
            Syscall::Read { .. } => SyscallRet::Data(vec![seq as u8; 4]),
            _ => SyscallRet::Unit,
        }
    }

    struct Issued {
        pid: Pid,
        callstack: CallStackId,
        call: Syscall,
    }

    /// A log over `pids` virtual pids and three call sites, with a few
    /// entries that are not replay-eligible mixed in.
    fn random_log(rng: &mut ChaosRng, pids: usize, len: usize) -> StartupLog {
        let mut log = StartupLog::new();
        for seq in 0..len as u64 {
            let pid = VIRT_PIDS[rng.range(0, pids as u64) as usize];
            let callstack = sites()[rng.range(0, 3) as usize];
            let call = if rng.chance(10) { Syscall::Nanosleep { ns: seq } } else { pool_call(rng) };
            let ret = pool_ret(&call, pid, seq);
            log.record(callstack, pid, "main", call, ret);
        }
        log
    }

    fn shuffle<T>(rng: &mut ChaosRng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
    }

    /// The calls a new version might issue against `log`: the logged calls
    /// in `order`, some omitted, plus calls the log never saw (changed
    /// arguments at a known site, and calls from a site the log lacks).
    fn replay_script(rng: &mut ChaosRng, log: &StartupLog, order: u64) -> Vec<Issued> {
        let mut script: Vec<Issued> = log
            .entries()
            .iter()
            .filter(|_| !rng.chance(20))
            .map(|e| Issued { pid: e.pid, callstack: e.callstack, call: e.call.clone() })
            .collect();
        match order {
            0 => {}
            1 => script.reverse(),
            _ => shuffle(rng, &mut script),
        }
        let unseen = cs(&["main", "new_feature"]);
        for _ in 0..log.len() / 4 {
            let pid = VIRT_PIDS[rng.range(0, 3) as usize];
            let (callstack, call) = match rng.range(0, 4) {
                0 => (sites()[rng.range(0, 3) as usize], Syscall::Bind { fd: Fd(0), port: 9999 }),
                1 => (
                    sites()[rng.range(0, 3) as usize],
                    Syscall::Open { path: "/etc/new".into(), create: false },
                ),
                2 => (sites()[rng.range(0, 3) as usize], Syscall::Listen { fd: Fd(9) }),
                _ => (unseen, pool_call(rng)),
            };
            let at = rng.range(0, script.len() as u64 + 1) as usize;
            script.insert(at, Issued { pid, callstack, call });
        }
        script
    }

    /// Handlers that answer the name-match path with every decision:
    /// `ReplayRecorded` for bind, `ExecuteLive` for open, `Skip` for listen,
    /// `NotHandled` (a conflict) for everything else.
    fn deciding_annotations() -> AnnotationRegistry {
        let mut ann = AnnotationRegistry::new();
        ann.add_reinit_handler(
            "by-syscall",
            Box::new(|call, _| match call {
                Syscall::Bind { .. } => ReinitDecision::ReplayRecorded,
                Syscall::Open { .. } => ReinitDecision::ExecuteLive,
                Syscall::Listen { .. } => ReinitDecision::Skip,
                _ => ReinitDecision::NotHandled,
            }),
        );
        ann
    }

    /// A kernel with one process per virtual pid, and a replayer of `log`
    /// mapped onto them.
    fn replay_world(log: &StartupLog) -> (Kernel, Interposer, Vec<(Pid, Tid)>) {
        let mut k = Kernel::new();
        for path in ["/etc/a", "/etc/b", "/etc/new"] {
            k.add_file(path, b"x".to_vec());
        }
        let mut rep = Interposer::replayer(log);
        let mut procs = Vec::new();
        for (i, virt) in VIRT_PIDS.iter().enumerate() {
            let pid = k.create_process(format!("p{i}"));
            let slide = 0x100000 * (i as u64 + 1);
            k.process_mut(pid).unwrap().setup_memory(MemoryLayout::with_slide(slide), false).unwrap();
            rep.map_pid(*virt, pid);
            procs.push((pid, k.process(pid).unwrap().main_tid()));
        }
        (k, rep, procs)
    }

    /// The matcher the site index replaced, kept as its reference: the first
    /// unconsumed entry of the whole log, in log order, recorded by `pid` at
    /// `site` whose call satisfies `matches`.
    fn whole_log_scan(
        rep: &Interposer,
        pid: Pid,
        site: CallStackId,
        matches: impl Fn(&Syscall) -> bool,
    ) -> Option<usize> {
        let mut entries = rep.replay_log.entries().iter().zip(&rep.consumed);
        entries
            .position(|(e, &consumed)| !consumed && e.pid == pid && e.callstack == site && matches(&e.call))
    }

    /// The exact and the name match of one call on the interposer's current
    /// consumed state, checked to be what the whole-log scan picks.
    fn picks(rep: &Interposer, pid: Pid, site: CallStackId, call: &Syscall) -> [Option<usize>; 2] {
        let indexed = [rep.find_entry(pid, site, call), rep.find_name_match(pid, site, call)];
        let scanned = [
            whole_log_scan(rep, pid, site, |logged| logged == call),
            whole_log_scan(rep, pid, site, |logged| logged.name() == call.name()),
        ];
        assert_eq!(indexed, scanned, "(exact, name) match of {call:?} by {pid:?}");
        indexed
    }

    /// Replays random logs in order, reversed and shuffled, with omissions,
    /// unseen calls and every handler decision. Before every call the
    /// index's picks are checked against the whole-log scan's on the same
    /// consumed state, and the call consumes what was picked, so by
    /// induction the run is the one the whole-log scan would make.
    #[test]
    fn indexed_matcher_is_equivalent_to_the_whole_log_scan() {
        let mut totals = InterposeStats::default();
        let (mut conflicts_seen, mut omissions_seen) = (0, 0);
        for seed in 0..60u64 {
            let mut rng = ChaosRng::new(seed);
            let len = 20 + rng.range(0, 40) as usize;
            let log = random_log(&mut rng, 2 + (seed % 2) as usize, len);
            let script = replay_script(&mut rng, &log, seed % 3);
            let ann = if seed % 4 == 3 { AnnotationRegistry::new() } else { deciding_annotations() };
            let (mut k, mut rep, procs) = replay_world(&log);
            for Issued { pid: virt, callstack, call } in &script {
                picks(&rep, *virt, *callstack, call);
                let (pid, tid) = procs[VIRT_PIDS.iter().position(|p| p == virt).unwrap()];
                let result = rep.handle(&mut k, pid, tid, "main", *callstack, call.clone(), true, &ann);
                conflicts_seen += usize::from(matches!(result, Err(McrError::Conflicts(_))));
            }
            omissions_seen += rep.finish_replay(&ann).len();
            totals.replayed += rep.stats().replayed;
            totals.executed_live += rep.stats().executed_live;
            totals.handler_resolved += rep.stats().handler_resolved;
        }
        // The scripts reached every branch the matcher feeds.
        assert!(totals.replayed > 500 && totals.executed_live > 100 && totals.handler_resolved > 100);
        assert!(conflicts_seen > 20 && omissions_seen > 20, "{conflicts_seen} {omissions_seen}");
    }

    #[test]
    fn entries_of_a_forked_child_match_only_that_child() {
        // v1: the parent forks a worker, and the worker opens its socket at a
        // call site the parent also passes through.
        let (mut k, pid, tid) = booted_kernel("v1");
        let ann = AnnotationRegistry::new();
        let mut rec = Interposer::recorder();
        let (fork_site, shared_site) = (cs(&["main", "spawn_workers"]), cs(&["main", "open_listener"]));
        let child_v1 = rec
            .handle(&mut k, pid, tid, "main", fork_site, Syscall::Fork, true, &ann)
            .unwrap()
            .as_pid()
            .unwrap();
        let child_tid = k.process(child_v1).unwrap().main_tid();
        rec.handle(&mut k, child_v1, child_tid, "worker-main", shared_site, Syscall::Socket, true, &ann)
            .unwrap();
        let log = rec.recorded_log().clone();
        assert_eq!(log.entries()[1].pid, child_v1);

        let new_pid = k.create_process("v2");
        let new_tid = k.process(new_pid).unwrap().main_tid();
        k.process_mut(new_pid).unwrap().setup_memory(MemoryLayout::with_slide(0x200000), false).unwrap();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(pid, new_pid);

        // The parent, at the same call site, is not offered the child's entry.
        assert_eq!(picks(&rep, pid, shared_site, &Syscall::Socket), [None, None]);
        rep.handle(&mut k, new_pid, new_tid, "main", shared_site, Syscall::Socket, true, &ann).unwrap();
        assert_eq!((rep.stats().replayed, rep.stats().executed_live), (0, 1));
        assert_eq!(rep.consumed, [false, false]);

        // Replaying the fork maps the old child's pid onto the new child,
        // which then consumes the entry.
        rep.handle(&mut k, new_pid, new_tid, "main", fork_site, Syscall::Fork, true, &ann).unwrap();
        let new_child = rep.actual_pid(child_v1);
        assert_ne!(new_child, child_v1);
        assert_eq!(rep.virtual_pid(new_child), child_v1);
        assert_eq!(picks(&rep, child_v1, shared_site, &Syscall::Socket), [Some(1), Some(1)]);
        let new_child_tid = k.process(new_child).unwrap().main_tid();
        let fd = rep
            .handle(&mut k, new_child, new_child_tid, "worker-main", shared_site, Syscall::Socket, true, &ann)
            .unwrap();
        assert_eq!(fd, log.entries()[1].ret);
        assert_eq!(rep.stats().replayed, 2);
        assert!(rep.finish_replay(&ann).is_empty());
    }

    #[test]
    fn in_order_replay_inspects_a_bounded_number_of_entries_per_call() {
        // One call site, 5 000 thread spawns: the shape of a fleet's startup.
        // Scanning the whole log from its start would inspect ~2 500 entries
        // per call. A lookup starts at its site's cursor, and after every call
        // the cursor sits on the next unconsumed entry, which the next call in
        // recording order matches: one entry inspected per call.
        const THREADS: u64 = 5_000;
        let site = cs(&["main", "spawn_sessions"]);
        let mut log = StartupLog::new();
        for i in 0..THREADS {
            let call = Syscall::SpawnThread { name: format!("session-{i}") };
            log.record(site, Pid(100), "main", call, SyscallRet::Tid(Tid(i as u32)));
        }
        let (mut k, pid, tid) = booted_kernel("v2");
        let ann = AnnotationRegistry::new();
        let mut rep = Interposer::replayer(&log);
        rep.map_pid(Pid(100), pid);
        for (i, entry) in log.entries().iter().enumerate() {
            rep.handle(&mut k, pid, tid, "main", site, entry.call.clone(), true, &ann).unwrap();
            let at_site = &rep.sites[&(Pid(100), site)];
            let next_unconsumed = rep.consumed.iter().position(|&consumed| !consumed);
            assert_eq!(at_site.positions.get(at_site.cursor).copied(), next_unconsumed, "after call {i}");
        }
        assert_eq!(rep.stats().replayed, THREADS);
        assert!(rep.finish_replay(&ann).is_empty());
    }
}
