//! The simulated kernel: process table, object table, network edge, clock.
//!
//! The kernel is deliberately small but faithful in the aspects MCR depends
//! on: descriptor numbering and inheritance across `fork`, pid assignment
//! (including namespace-style forcing of the next pid), listening-socket
//! backlogs that survive a process switch, Unix-domain channels with
//! descriptor passing, and soft-dirty page bookkeeping delegated to each
//! process's address space.
//!
//! # Readiness substrate (wait queues, timer wheel, wake queue)
//!
//! The kernel also provides the event-driven scheduling substrate the MCR
//! runtime's `Scheduler` is built on:
//!
//! * **Per-object wait queues** — a blocking syscall (`Accept`, `Read`,
//!   `UnixRecv`) that fails with [`SimError::WouldBlock`] parks the calling
//!   `(Pid, Tid)` on the descriptor's kernel object
//!   ([`Kernel::wait_on_fd`]).
//! * **A timer wheel** keyed on [`SimInstant`] — timed blocks registered via
//!   [`Kernel::wait_until`] fire when [`Kernel::advance_clock`] moves the
//!   virtual clock past their deadline, instead of being re-polled.
//! * **A FIFO wake queue** — state changes (`client_connect`,
//!   `client_send`, peer close, queued Unix datagrams, pipe writes, expired
//!   timers) move the affected waiters onto a deduplicated FIFO queue that
//!   schedulers drain, batched into a reusable buffer, with
//!   [`Kernel::drain_wakeups_into`].
//!
//! **Ordering contract.** Wake order is a pure function of the event
//! history, so simulated runs stay deterministic and reproducible regardless
//! of host scheduling. The guaranteed orders are: wakeups are delivered in
//! enqueue order (FIFO, deduplicated — a thread woken twice before being
//! scheduled runs once, at its first queue position); each object's waiter
//! list wakes in park order; timers fire in (deadline, registration) order;
//! and process, descriptor and object iteration is ascending-id. Since PR 6
//! the containers *behind* that contract are dense generation-checked slabs,
//! intrusive waiter lists and a bucketed timer wheel rather than ordered
//! maps — the orders above are the invariant, not the data structures, and
//! the property suite proves fingerprints are byte-identical to the old
//! ordered-map substrate.

use std::cell::OnceCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::clock::{SimDuration, SimInstant, VirtualClock};
use crate::error::{SimError, SimResult};
use crate::ids::{ConnId, Fd, ObjId, Pid, Tid};
use crate::memory::{Addr, MemoryRegion, RegionKind, PAGE_SIZE};
use crate::objects::{KernelObject, ObjectTable, UnixMessage};
use crate::process::{Process, Thread};
use crate::store::checksum64;
use crate::syscall::{Syscall, SyscallPort, SyscallRet};

/// Where to place a descriptor transferred into another process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdPlacement {
    /// Lowest free descriptor.
    Lowest,
    /// Exactly this descriptor number (fails if occupied).
    Exact(Fd),
    /// A fresh descriptor in the reserved (never reused) range.
    Reserved,
}

/// Client-side view of a workload connection the client can still use. A
/// closed endpoint stays only while it waits in a listener's backlog.
#[derive(Debug, Clone, Default)]
struct ClientConn {
    port: u16,
    /// The replies the server left unread when it released the connection
    /// (closed its last descriptor). While the connection object lives its
    /// `outbox` holds them and this stays empty.
    from_server: VecDeque<Vec<u8>>,
    accepted: bool,
    closed: bool,
}

/// Borrowed view of one live client-side connection endpoint, as the
/// checkpoint writer serializes it (see [`Kernel::clients`]); the decoded,
/// owning counterpart is [`ClientSnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct ClientView<'a> {
    /// Workload connection id.
    pub conn: u64,
    /// Server port the connection was opened against.
    pub port: u16,
    /// Whether a server process has accepted the connection.
    pub accepted: bool,
    /// Whether the client closed its side (only before an accept: closing
    /// an accepted endpoint removes it).
    pub closed: bool,
    /// Replies the server left unread when it released the connection.
    pub from_server: &'a VecDeque<Vec<u8>>,
    /// Request bytes sent before the connection was accepted.
    pub pending_to_server: &'a VecDeque<Vec<u8>>,
}

/// Owning snapshot of one client-side connection endpoint, decoded from a
/// checkpoint manifest and re-installed by [`Kernel::restore_clients`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSnapshot {
    /// Workload connection id.
    pub conn: u64,
    /// Server port the connection was opened against.
    pub port: u16,
    /// Whether a server process has accepted the connection.
    pub accepted: bool,
    /// Whether the client closed its side (only before an accept).
    pub closed: bool,
    /// Replies the server left unread when it released the connection.
    pub from_server: Vec<Vec<u8>>,
    /// Request bytes sent before the connection was accepted.
    pub pending_to_server: Vec<Vec<u8>>,
}

/// Slot-index sentinel ("none" / list end) shared by the kernel's intrusive
/// structures.
const NIL: u32 = u32::MAX;

/// First tid the kernel hands out; the dense wait table is indexed by
/// `tid - TID_BASE`.
const TID_BASE: u32 = 1000;

/// Timer-wheel bucket granularity: deadlines are grouped into
/// `2^TIMER_BUCKET_SHIFT`-nanosecond buckets (~65 µs). Entries within a
/// bucket are sorted by (deadline, registration) at fire time, so the wheel
/// delivers exactly the order a fully-sorted wheel would.
const TIMER_BUCKET_SHIFT: u32 = 16;

/// Where a blocked thread is parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitTarget {
    /// Waiting for a state change on a kernel object (listener backlog,
    /// connection inbox, Unix channel, pipe).
    Object(ObjId),
    /// Waiting for the virtual clock to reach a deadline.
    Timer(SimInstant),
}

/// Per-thread wait bookkeeping, stored densely by `tid - TID_BASE`.
#[derive(Debug, Clone, Copy)]
struct WaitSlot {
    /// Owning pid (valid while registered or queued).
    pid: u32,
    /// Current registration, if any.
    target: Option<WaitTarget>,
    /// Registration sequence of the current timer target; a wheel entry
    /// whose (deadline, seq) no longer matches is stale (lazy cancellation).
    timer_seq: u64,
    /// Intrusive FIFO links within an object's waiter list (tid-indices).
    prev: u32,
    next: u32,
    /// Whether the thread sits on the wake queue (the dedup flag the old
    /// `wake_set` provided, now an O(1) bit).
    queued: bool,
}

impl Default for WaitSlot {
    fn default() -> Self {
        WaitSlot { pid: 0, target: None, timer_seq: 0, prev: NIL, next: NIL, queued: false }
    }
}

/// FIFO endpoints of one object's intrusive waiter list (tid-indices).
#[derive(Debug, Clone, Copy)]
struct WaiterList {
    head: u32,
    tail: u32,
}

impl Default for WaiterList {
    fn default() -> Self {
        WaiterList { head: NIL, tail: NIL }
    }
}

/// One parked timer registration. Entries are never removed on cancel; they
/// are validated against the thread's slot at fire/lookup time instead.
#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    deadline: u64,
    seq: u64,
    pid: u32,
    tid: u32,
}

/// The kernel's readiness bookkeeping: who waits on what, and who has been
/// woken but not yet rescheduled.
///
/// A thread is registered on at most one target at a time; re-registering
/// moves it. Registrations live in a dense per-thread slot table; object
/// waiters form intrusive FIFO lists through those slots; timers sit on a
/// bucketed wheel with lazy cancellation. Wake order is deterministic — see
/// the module docs for the exact contract.
#[derive(Debug, Clone, Default)]
struct WaitState {
    /// Dense per-thread slots, indexed by `tid - TID_BASE`.
    slots: Vec<WaitSlot>,
    /// Per-object waiter-list endpoints, indexed by raw [`ObjId`].
    object_waiters: Vec<WaiterList>,
    /// Timer wheel: bucket (`deadline >> TIMER_BUCKET_SHIFT`) → entries.
    timer: BTreeMap<u64, Vec<TimerEntry>>,
    /// Monotonic registration counter tagging timer parks.
    timer_seq: u64,
    /// Number of threads currently registered on a target.
    registered: usize,
    /// Threads woken but not yet picked up by a scheduler, in wake order.
    wake_queue: VecDeque<(Pid, Tid)>,
}

impl WaitState {
    fn idx(tid: Tid) -> usize {
        debug_assert!(tid.0 >= TID_BASE, "wait registrations require kernel-allocated tids");
        (tid.0 - TID_BASE) as usize
    }

    fn slot_mut(&mut self, tid: Tid) -> &mut WaitSlot {
        let i = Self::idx(tid);
        if i >= self.slots.len() {
            self.slots.resize(i + 1, WaitSlot::default());
        }
        &mut self.slots[i]
    }

    /// Whether a wheel entry still describes its thread's live registration.
    fn timer_entry_valid(&self, e: &TimerEntry) -> bool {
        self.slots.get(Self::idx(Tid(e.tid))).is_some_and(|s| {
            s.timer_seq == e.seq && s.target == Some(WaitTarget::Timer(SimInstant(e.deadline)))
        })
    }

    fn cancel(&mut self, tid: Tid) {
        let i = Self::idx(tid);
        let Some(slot) = self.slots.get(i) else { return };
        match slot.target {
            None => return,
            Some(WaitTarget::Object(obj)) => {
                let (prev, next) = (slot.prev, slot.next);
                if prev != NIL {
                    self.slots[prev as usize].next = next;
                } else {
                    self.object_waiters[obj.0 as usize].head = next;
                }
                if next != NIL {
                    self.slots[next as usize].prev = prev;
                } else {
                    self.object_waiters[obj.0 as usize].tail = prev;
                }
            }
            // Timer entries are cancelled lazily: the wheel entry's
            // (deadline, seq) tag no longer matches the slot.
            Some(WaitTarget::Timer(_)) => {}
        }
        let slot = &mut self.slots[i];
        slot.target = None;
        slot.prev = NIL;
        slot.next = NIL;
        self.registered -= 1;
    }

    fn park(&mut self, pid: Pid, tid: Tid, target: WaitTarget) {
        self.cancel(tid);
        let i = Self::idx(tid);
        if i >= self.slots.len() {
            self.slots.resize(i + 1, WaitSlot::default());
        }
        match target {
            WaitTarget::Object(obj) => {
                let oi = obj.0 as usize;
                if oi >= self.object_waiters.len() {
                    self.object_waiters.resize(oi + 1, WaiterList::default());
                }
                let tail = self.object_waiters[oi].tail;
                {
                    let slot = &mut self.slots[i];
                    slot.pid = pid.0;
                    slot.target = Some(target);
                    slot.prev = tail;
                    slot.next = NIL;
                }
                if tail != NIL {
                    self.slots[tail as usize].next = i as u32;
                } else {
                    self.object_waiters[oi].head = i as u32;
                }
                self.object_waiters[oi].tail = i as u32;
            }
            WaitTarget::Timer(at) => {
                self.timer_seq += 1;
                let slot = &mut self.slots[i];
                slot.pid = pid.0;
                slot.target = Some(target);
                slot.timer_seq = self.timer_seq;
                self.timer.entry(at.0 >> TIMER_BUCKET_SHIFT).or_default().push(TimerEntry {
                    deadline: at.0,
                    seq: self.timer_seq,
                    pid: pid.0,
                    tid: tid.0,
                });
            }
        }
        self.registered += 1;
    }

    /// Appends a thread to the wake queue (deduplicated). The caller must
    /// have dropped the thread's registration already.
    fn push_wake(&mut self, pid: Pid, tid: Tid) {
        let slot = self.slot_mut(tid);
        if !slot.queued {
            slot.queued = true;
            slot.pid = pid.0;
            self.wake_queue.push_back((pid, tid));
        }
    }

    /// Moves a thread onto the wake queue (dropping any registration).
    fn enqueue_wakeup(&mut self, pid: Pid, tid: Tid) {
        self.cancel(tid);
        self.push_wake(pid, tid);
    }

    /// Wakes every thread parked on `obj`, in FIFO (park) order. One walk of
    /// the intrusive list delivers the whole batch: no per-waiter map
    /// lookups, just slot-index chasing and the O(1) dedup bit.
    fn wake_object(&mut self, obj: ObjId) {
        let Some(list) = self.object_waiters.get_mut(obj.0 as usize) else { return };
        let mut cur = list.head;
        list.head = NIL;
        list.tail = NIL;
        while cur != NIL {
            let slot = &mut self.slots[cur as usize];
            let next = slot.next;
            let pid = Pid(slot.pid);
            slot.target = None;
            slot.prev = NIL;
            slot.next = NIL;
            self.registered -= 1;
            self.push_wake(pid, Tid(cur + TID_BASE));
            cur = next;
        }
    }

    /// Fires every timer with a deadline at or before `now`, in
    /// (deadline, registration) order.
    fn fire_due_timers(&mut self, now: u64) {
        let now_bucket = now >> TIMER_BUCKET_SHIFT;
        while let Some((&bucket, _)) = self.timer.iter().next() {
            if bucket > now_bucket {
                break;
            }
            let mut entries = self.timer.remove(&bucket).unwrap_or_default();
            if bucket == now_bucket {
                // Boundary bucket: keep the not-yet-due tail for later.
                let not_due: Vec<TimerEntry> = entries.iter().copied().filter(|e| e.deadline > now).collect();
                entries.retain(|e| e.deadline <= now);
                if !not_due.is_empty() {
                    self.timer.insert(bucket, not_due);
                }
            }
            entries.retain(|e| self.timer_entry_valid(e));
            entries.sort_unstable_by_key(|e| (e.deadline, e.seq));
            for e in entries {
                let i = Self::idx(Tid(e.tid));
                let slot = &mut self.slots[i];
                slot.target = None;
                self.registered -= 1;
                self.push_wake(Pid(e.pid), Tid(e.tid));
            }
            if bucket == now_bucket {
                break;
            }
        }
    }

    /// The earliest live deadline whose pid satisfies `pred`. Buckets
    /// partition the deadline space, so the first bucket holding a matching
    /// live entry contains the minimum.
    fn next_deadline_where(&self, mut pred: impl FnMut(Pid) -> bool) -> Option<SimInstant> {
        for entries in self.timer.values() {
            let min = entries
                .iter()
                .filter(|e| self.timer_entry_valid(e) && pred(Pid(e.pid)))
                .map(|e| e.deadline)
                .min();
            if let Some(ns) = min {
                return Some(SimInstant(ns));
            }
        }
        None
    }

    /// Drops every trace of a process's threads (process exit / teardown).
    /// The caller supplies the process's tids; queued wakeups of the pid are
    /// dropped wholesale.
    fn purge_threads(&mut self, pid: Pid, tids: impl IntoIterator<Item = Tid>) {
        for tid in tids {
            self.cancel(tid);
        }
        if self.wake_queue.iter().any(|&(p, _)| p == pid) {
            for (p, t) in std::mem::take(&mut self.wake_queue) {
                if p == pid {
                    self.slot_mut(t).queued = false;
                } else {
                    self.wake_queue.push_back((p, t));
                }
            }
        }
    }
}

/// A file of the simulated file system: its bytes and their [`checksum64`]
/// (seed 0), computed on first demand and reset by every mutation.
#[derive(Debug, Clone, Default)]
struct SimFile {
    bytes: Vec<u8>,
    checksum: OnceCell<u64>,
}

impl SimFile {
    fn new(bytes: Vec<u8>) -> Self {
        SimFile { bytes, checksum: OnceCell::new() }
    }

    fn checksum(&self) -> u64 {
        *self.checksum.get_or_init(|| checksum64(&self.bytes, 0))
    }
}

/// The simulated kernel.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    /// Process slab: slot storage plus a free-list; `pid_to_slot` resolves a
    /// pid in O(1) and doubles as the ascending-pid iteration order.
    procs: Vec<Option<Process>>,
    proc_free: Vec<u32>,
    pid_to_slot: Vec<u32>,
    objects: ObjectTable,
    clock: VirtualClock,
    files: BTreeMap<String, SimFile>,
    next_pid: u32,
    next_tid: u32,
    next_conn: u64,
    clients: BTreeMap<u64, ClientConn>,
    /// Client request bytes sent before the connection was accepted.
    pending_client_data: BTreeMap<u64, VecDeque<Vec<u8>>>,
    /// Total syscalls executed (statistics).
    syscall_count: u64,
    /// Armed chaos fault: `(remaining, nth)` — the countdown until the next
    /// syscall fails with [`SimError::FaultInjected`], and the original
    /// n-th value for the error report. `None` when disarmed.
    syscall_fault: Option<(u64, u64)>,
    /// Readiness substrate: wait queues, timer wheel, wake queue.
    wait: WaitState,
}

impl Kernel {
    /// Boots an empty kernel.
    pub fn new() -> Self {
        Kernel {
            procs: Vec::new(),
            proc_free: Vec::new(),
            pid_to_slot: Vec::new(),
            objects: ObjectTable::new(),
            clock: VirtualClock::new(),
            files: BTreeMap::new(),
            next_pid: 100,
            next_tid: TID_BASE,
            next_conn: 1,
            clients: BTreeMap::new(),
            pending_client_data: BTreeMap::new(),
            syscall_count: 0,
            syscall_fault: None,
            wait: WaitState::default(),
        }
    }

    /// Resolves a pid to its process slot.
    fn proc_slot(&self, pid: Pid) -> Option<usize> {
        let s = *self.pid_to_slot.get(pid.0 as usize)?;
        (s != NIL).then_some(s as usize)
    }

    /// Installs a process into the slab under `pid`.
    fn insert_proc(&mut self, pid: Pid, proc: Process) {
        let slot = match self.proc_free.pop() {
            Some(s) => {
                self.procs[s as usize] = Some(proc);
                s
            }
            None => {
                self.procs.push(Some(proc));
                (self.procs.len() - 1) as u32
            }
        };
        let idx = pid.0 as usize;
        if idx >= self.pid_to_slot.len() {
            self.pid_to_slot.resize(idx + 1, NIL);
        }
        self.pid_to_slot[idx] = slot;
    }

    // ------------------------------------------------------------------
    // Clock and files
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Advances the simulated clock (used by the scheduler and by MCR to
    /// account for work it performs on behalf of a program), firing any
    /// timer-wheel entries the advance passes over.
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.clock.advance(d);
        self.wait.fire_due_timers(self.clock.now().0);
    }

    // ------------------------------------------------------------------
    // Readiness substrate: wait queues, timer wheel, wake queue
    // ------------------------------------------------------------------

    /// Parks thread `tid` of `pid` on the kernel object behind `fd` until a
    /// state change on that object wakes it. Blocking syscalls that fail
    /// with [`SimError::WouldBlock`] call this automatically; schedulers may
    /// also call it explicitly (idempotent: a thread waits on at most one
    /// target, re-registration moves it).
    ///
    /// # Errors
    ///
    /// Fails if the process or descriptor does not exist.
    pub fn wait_on_fd(&mut self, pid: Pid, tid: Tid, fd: Fd) -> SimResult<()> {
        let obj = self.process(pid)?.fds().get(fd)?.object;
        self.wait.park(pid, tid, WaitTarget::Object(obj));
        Ok(())
    }

    /// Parks thread `tid` of `pid` on the timer wheel until the virtual
    /// clock reaches `deadline`. A deadline that already passed enqueues an
    /// immediate wakeup.
    pub fn wait_until(&mut self, pid: Pid, tid: Tid, deadline: SimInstant) {
        if deadline <= self.clock.now() {
            self.wait.enqueue_wakeup(pid, tid);
        } else {
            self.wait.park(pid, tid, WaitTarget::Timer(deadline));
        }
    }

    /// Removes any wait-queue or timer registration of the thread (used when
    /// a scheduler decides to run it for another reason, e.g. the quiescence
    /// barrier's wake-everyone pass).
    pub fn cancel_wait(&mut self, tid: Tid) {
        self.wait.cancel(tid);
    }

    /// Batched wake delivery: drains the matching wakeups into a
    /// caller-provided buffer (cleared first), so a scheduler's hot loop
    /// reuses one allocation per round instead of building a fresh vector.
    pub fn drain_wakeups_into(&mut self, mut pred: impl FnMut(Pid) -> bool, out: &mut Vec<(Pid, Tid)>) {
        out.clear();
        let n = self.wait.wake_queue.len();
        for _ in 0..n {
            let (pid, tid) = self.wait.wake_queue.pop_front().expect("queue holds n entries");
            if pred(pid) {
                self.wait.slot_mut(tid).queued = false;
                out.push((pid, tid));
            } else {
                self.wait.wake_queue.push_back((pid, tid));
            }
        }
    }

    /// The earliest timer-wheel deadline registered by a thread whose pid
    /// satisfies `pred`, if any. An idle scheduler uses this to advance the
    /// virtual clock straight to its instance's next timed wakeup — without
    /// it, a fleet whose only pending work is a timer would sleep forever,
    /// since simulated time only moves when threads run.
    pub fn next_timer_deadline_where(&self, pred: impl FnMut(Pid) -> bool) -> Option<SimInstant> {
        self.wait.next_deadline_where(pred)
    }

    /// Number of threads currently parked on an object or timer.
    pub fn waiting_thread_count(&self) -> usize {
        self.wait.registered
    }

    /// Installs a file in the simulated file system (configuration files,
    /// documents served by the web servers, ...).
    pub fn add_file(&mut self, path: impl Into<String>, contents: Vec<u8>) {
        self.files.insert(path.into(), SimFile::new(contents));
    }

    /// Number of syscalls executed so far.
    pub fn syscall_count(&self) -> u64 {
        self.syscall_count
    }

    // ------------------------------------------------------------------
    // Chaos fault injection
    // ------------------------------------------------------------------

    /// Arms a one-shot syscall fault: the `nth` syscall issued after this
    /// call (1-based) fails with [`SimError::FaultInjected`] *instead of*
    /// executing, leaving kernel and process state untouched. The fault
    /// disarms itself after firing; `nth == 0` is treated as disarm.
    pub fn arm_syscall_fault(&mut self, nth: u64) {
        self.syscall_fault = (nth > 0).then_some((nth, nth));
    }

    /// Disarms any pending syscall fault (idempotent). Called by update
    /// drivers on both the commit and rollback paths so a fault armed for
    /// one update attempt can never leak into steady-state serving.
    pub fn disarm_syscall_fault(&mut self) {
        self.syscall_fault = None;
    }

    // ------------------------------------------------------------------
    // Process management
    // ------------------------------------------------------------------

    fn alloc_pid(&mut self) -> Pid {
        let p = self.next_pid;
        self.next_pid += 1;
        Pid(p)
    }

    fn alloc_tid(&mut self) -> Tid {
        let t = self.next_tid;
        self.next_tid += 1;
        Tid(t)
    }

    /// Creates a fresh process running program `name`, returning its pid.
    pub fn create_process(&mut self, name: impl Into<String>) -> Pid {
        let pid = self.alloc_pid();
        let tid = self.alloc_tid();
        let proc = Process::new(pid, name, tid);
        self.insert_proc(pid, proc);
        pid
    }

    /// Starts pid and tid numbering at `pid` and `tid`, never lowering
    /// either counter (restore path: the scratch kernel numbers a re-booted
    /// program's processes and threads as the checkpointed kernel did).
    pub fn number_from(&mut self, pid: Pid, tid: Tid) {
        self.next_pid = self.next_pid.max(pid.0);
        self.next_tid = self.next_tid.max(tid.0);
    }

    /// Shared access to a process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] if the pid is unknown.
    pub fn process(&self, pid: Pid) -> SimResult<&Process> {
        self.proc_slot(pid).and_then(|s| self.procs[s].as_ref()).ok_or(SimError::NoSuchProcess(pid))
    }

    /// Exclusive access to a process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] if the pid is unknown.
    pub fn process_mut(&mut self, pid: Pid) -> SimResult<&mut Process> {
        match self.proc_slot(pid) {
            Some(s) => self.procs[s].as_mut().ok_or(SimError::NoSuchProcess(pid)),
            None => Err(SimError::NoSuchProcess(pid)),
        }
    }

    /// All pids, ascending.
    pub fn pids(&self) -> Vec<Pid> {
        self.pid_to_slot.iter().enumerate().filter(|&(_, &s)| s != NIL).map(|(p, _)| Pid(p as u32)).collect()
    }

    /// Deterministic FNV-1a digest of everything live-update-visible in the
    /// kernel: every process's identity, descriptor table, thread roster and
    /// the full contents of every mapped region, one little-endian word at
    /// a time (a trailing partial word folded zero-padded). Two update
    /// configurations that converged to byte-identical kernel state have
    /// equal fingerprints. Contents only — dirty-page epochs and write
    /// counters are instrumentation, not program state.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for pid in self.pids() {
            let proc = self.process(pid).expect("a listed pid is live");
            fnv_fold(&mut hash, pid.0.into());
            fnv_fold(&mut hash, proc.fds().len() as u64);
            for (fd, entry) in proc.fds().iter() {
                fnv_fold(&mut hash, fd.0 as u64);
                fnv_fold(&mut hash, entry.object.0);
            }
            fnv_fold(&mut hash, proc.thread_count() as u64);
            for region in proc.space().regions() {
                fnv_fold(&mut hash, region.base().0);
                fnv_fold(&mut hash, region.size());
                fnv_fold_region(&mut hash, region);
            }
        }
        hash
    }

    /// Removes a process entirely (used when the old version is terminated
    /// after a successful live update, or when a failed new version is torn
    /// down on rollback). Its descriptors are released.
    pub fn remove_process(&mut self, pid: Pid) -> SimResult<()> {
        let slot = self.proc_slot(pid).ok_or(SimError::NoSuchProcess(pid))?;
        let proc = self.procs[slot].take().ok_or(SimError::NoSuchProcess(pid))?;
        self.pid_to_slot[pid.0 as usize] = NIL;
        self.proc_free.push(slot as u32);
        for (_, entry) in proc.fds().iter() {
            self.release_object(entry.object);
        }
        let tids: Vec<Tid> = proc.threads().map(|t| t.tid()).collect();
        self.wait.purge_threads(pid, tids);
        Ok(())
    }

    /// Drops one descriptor's reference to `obj`. When that destroys a
    /// connection, the replies its client has not read move to the client's
    /// endpoint, where [`Kernel::client_recv`] finds them once the object is
    /// gone.
    fn release_object(&mut self, obj: ObjId) {
        if let Some(KernelObject::Connection { conn, outbox, .. }) = self.objects.release(obj) {
            if !outbox.is_empty() {
                if let Some(c) = self.clients.get_mut(&conn.0) {
                    c.from_server.append(outbox);
                }
            }
        }
    }

    /// Direct access to the kernel object table (used by state inspection and
    /// tests; programs go through descriptors).
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// Spawns an additional thread in `pid` (outside the syscall interface;
    /// prefer [`Syscall::SpawnThread`] from program code).
    pub fn spawn_thread(&mut self, pid: Pid, name: &str, creation_stack: Vec<String>) -> SimResult<Tid> {
        let tid = self.alloc_tid();
        let proc = self.process_mut(pid)?;
        proc.add_thread(tid, name, creation_stack.into());
        Ok(tid)
    }

    // ------------------------------------------------------------------
    // Pre-copy write barrier (per-process write epochs)
    // ------------------------------------------------------------------

    /// Starts a new write epoch in `pid`'s address space and returns the
    /// previous one (see [`crate::AddressSpace::advance_write_epoch`]). The
    /// pre-copy phase of a live update calls this once per copy round per
    /// old-version process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] if the pid is unknown.
    pub fn advance_write_epoch(&mut self, pid: Pid) -> SimResult<u64> {
        Ok(self.process_mut(pid)?.space_mut().advance_write_epoch())
    }

    // ------------------------------------------------------------------
    // Post-copy fault barrier (per-process page protection + trap queue)
    // ------------------------------------------------------------------

    /// Takes the stores parked by `pid`'s trap barrier, in program order
    /// (see [`crate::AddressSpace::take_pending_traps`]). The drainer
    /// services these with priority: fault in the touched objects, then
    /// replay the stores.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] if the pid is unknown.
    pub fn take_pending_traps(&mut self, pid: Pid) -> SimResult<Vec<crate::memory::PendingTrap>> {
        Ok(self.process_mut(pid)?.space_mut().take_pending_traps())
    }

    // ------------------------------------------------------------------
    // Borrow splitting (per-process state transfer)
    // ------------------------------------------------------------------

    /// Hands out disjoint exclusive references to the given processes, in the
    /// order requested.
    ///
    /// This is how safe Rust gets more than one process out of the one
    /// process table at a time: state transfer reads a matched pair's old
    /// process while it writes the new one, and global kernel state (clock,
    /// object table, files) stays with the caller.
    ///
    /// # Errors
    ///
    /// Fails if any pid is unknown or listed twice (aliased exclusive access).
    pub(crate) fn split_processes(&mut self, pids: &[Pid]) -> SimResult<Vec<&mut Process>> {
        for (i, pid) in pids.iter().enumerate() {
            if self.proc_slot(*pid).is_none() {
                return Err(SimError::NoSuchProcess(*pid));
            }
            if pids[..i].contains(pid) {
                return Err(SimError::InvalidArgument(format!("pid {pid} requested twice")));
            }
        }
        let mut slots: Vec<Option<&mut Process>> = Vec::new();
        slots.resize_with(pids.len(), || None);
        for proc in self.procs.iter_mut().filter_map(Option::as_mut) {
            if let Some(i) = pids.iter().position(|p| *p == proc.pid()) {
                slots[i] = Some(proc);
            }
        }
        Ok(slots.into_iter().map(|s| s.expect("validated above")).collect())
    }

    /// Splits matched `(old, new)` process pairs into per-pair borrows:
    /// shared access to the old process (tracing only reads it) and exclusive
    /// access to the new one (state transfer writes into it).
    ///
    /// # Errors
    ///
    /// Fails if any pid is unknown or appears in more than one role.
    pub fn split_pairs(&mut self, pairs: &[(Pid, Pid)]) -> SimResult<Vec<(&Process, &mut Process)>> {
        let flat: Vec<Pid> = pairs.iter().flat_map(|&(old, new)| [old, new]).collect();
        let mut procs = self.split_processes(&flat)?.into_iter();
        let mut out = Vec::with_capacity(pairs.len());
        while let (Some(old), Some(new)) = (procs.next(), procs.next()) {
            out.push((old as &Process, new));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Descriptor transfer between processes (Unix-socket fd passing)
    // ------------------------------------------------------------------

    /// Transfers (duplicates) a descriptor from one process to another.
    ///
    /// This models SCM_RIGHTS descriptor passing over a Unix-domain socket,
    /// the mechanism MCR uses to let the first process of the new version
    /// inherit every immutable descriptor of every old-version process.
    ///
    /// # Errors
    ///
    /// Fails if either process or the source descriptor does not exist, or if
    /// an exact placement collides with an open descriptor.
    pub fn transfer_fd(&mut self, from: Pid, from_fd: Fd, to: Pid, placement: FdPlacement) -> SimResult<Fd> {
        let entry = self.process(from)?.fds().get(from_fd)?;
        self.objects.incref(entry.object);
        let to_proc = match self.process_mut(to) {
            Ok(p) => p,
            Err(e) => {
                self.objects.decref(entry.object);
                return Err(e);
            }
        };
        let fd = match placement {
            FdPlacement::Lowest => to_proc.fds_mut().alloc(entry.object),
            FdPlacement::Reserved => to_proc.fds_mut().alloc_reserved(entry.object),
            FdPlacement::Exact(fd) => match to_proc.fds_mut().install_at(fd, entry.object, true) {
                Ok(()) => fd,
                Err(e) => {
                    self.objects.decref(entry.object);
                    return Err(e);
                }
            },
        };
        Ok(fd)
    }

    // ------------------------------------------------------------------
    // Client-side (workload) networking API
    // ------------------------------------------------------------------

    /// Opens a client connection to `port`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PortInUse`]'s counterpart — here, a missing
    /// listener is reported as [`SimError::InvalidArgument`].
    pub fn client_connect(&mut self, port: u16) -> SimResult<ConnId> {
        let listener = self
            .objects
            .listener_for_port(port)
            .ok_or_else(|| SimError::InvalidArgument(format!("no listener on port {port}")))?;
        let conn = ConnId(self.next_conn);
        self.next_conn += 1;
        if let Some(KernelObject::Listener { backlog, .. }) = self.objects.get_mut(listener) {
            backlog.push_back(conn);
        }
        self.clients.insert(conn.0, ClientConn { port, ..Default::default() });
        // Accept readiness: wake every thread parked on the listener.
        self.wait.wake_object(listener);
        Ok(conn)
    }

    /// Sends request bytes from the client side of `conn`.
    ///
    /// # Errors
    ///
    /// Fails for unknown or closed connections.
    pub fn client_send(&mut self, conn: ConnId, data: Vec<u8>) -> SimResult<()> {
        let state = self
            .clients
            .get(&conn.0)
            .ok_or(SimError::InvalidArgument(format!("unknown connection {conn}")))?;
        if state.closed {
            return Err(SimError::InvalidArgument(format!("connection {conn} closed")));
        }
        let port = state.port;
        if let Some(obj) = self.objects.connection_for(conn) {
            if let Some(KernelObject::Connection { inbox, .. }) = self.objects.get_mut(obj) {
                inbox.push_back(data);
                // Read readiness: wake every thread parked on the connection.
                self.wait.wake_object(obj);
                return Ok(());
            }
        }
        // Not yet accepted: queue the bytes until the server accepts; the
        // kernel hands them to the connection object at accept time. The
        // listener's waiters are (re-)woken so an acceptor picks it up.
        self.pending_client_data.entry(conn.0).or_default().push_back(data);
        if let Some(listener) = self.objects.listener_for_port(port) {
            self.wait.wake_object(listener);
        }
        Ok(())
    }

    /// Receives one server response chunk from the client side of `conn`:
    /// from the connection's `outbox` while the server holds it open, then
    /// from the replies it left unread when it released the connection.
    pub fn client_recv(&mut self, conn: ConnId) -> Option<Vec<u8>> {
        if let Some(obj) = self.objects.connection_for(conn) {
            if let Some(KernelObject::Connection { outbox, .. }) = self.objects.get_mut(obj) {
                return outbox.pop_front();
            }
        }
        self.clients.get_mut(&conn.0).and_then(|c| c.from_server.pop_front())
    }

    /// Closes the client side of `conn`. The server reads EOF after what
    /// the client sent. An accepted endpoint is removed with every reply it
    /// has not read; one still waiting in a listener's backlog stays, marked
    /// closed, until the accept removes it.
    pub fn client_close(&mut self, conn: ConnId) -> SimResult<()> {
        if let Some(obj) = self.objects.connection_for(conn) {
            self.objects.close_peer(obj);
            // EOF readiness: a parked reader wakes and observes the close.
            self.wait.wake_object(obj);
        }
        match self.clients.entry(conn.0) {
            Entry::Occupied(client) if client.get().accepted => {
                client.remove();
            }
            Entry::Occupied(mut client) => client.get_mut().closed = true,
            Entry::Vacant(_) => {}
        }
        Ok(())
    }

    /// Whether the connection has been accepted by a server process.
    pub fn client_is_accepted(&self, conn: ConnId) -> bool {
        self.objects.connection_for(conn).is_some()
    }

    /// Number of currently open (accepted and not closed) connections.
    pub fn open_connection_count(&self) -> usize {
        debug_assert_eq!(
            self.objects.open_connections(),
            self.objects
                .iter()
                .filter(|(_, o)| matches!(o, KernelObject::Connection { peer_closed: false, .. }))
                .count(),
            "the open-connection count drifted from the table"
        );
        self.objects.open_connections()
    }

    // ------------------------------------------------------------------
    // Checkpoint-restore support
    // ------------------------------------------------------------------

    /// The client-side connection endpoints a client can still use — every
    /// open one, plus closed ones still waiting in a listener's backlog — in
    /// ascending connection-id order, by reference (checkpoint
    /// serialization).
    pub fn clients(&self) -> impl ExactSizeIterator<Item = ClientView<'_>> {
        static NO_PENDING: VecDeque<Vec<u8>> = VecDeque::new();
        self.clients.iter().map(|(&conn, c)| ClientView {
            conn,
            port: c.port,
            accepted: c.accepted,
            closed: c.closed,
            from_server: &c.from_server,
            pending_to_server: self.pending_client_data.get(&conn).unwrap_or(&NO_PENDING),
        })
    }

    /// Replaces the client-side connection tables wholesale from a
    /// checkpoint manifest (restore path). The manifest lists endpoints in
    /// ascending connection-id order, so both maps are bulk-built from
    /// sorted runs instead of inserted into one entry at a time.
    pub fn restore_clients(&mut self, snapshots: Vec<ClientSnapshot>) {
        let mut pending = Vec::new();
        self.clients = snapshots
            .into_iter()
            .map(|snap| {
                if !snap.pending_to_server.is_empty() {
                    pending.push((snap.conn, VecDeque::from(snap.pending_to_server)));
                }
                let conn = ClientConn {
                    port: snap.port,
                    from_server: VecDeque::from(snap.from_server),
                    accepted: snap.accepted,
                    closed: snap.closed,
                };
                (snap.conn, conn)
            })
            .collect();
        self.pending_client_data = pending.into_iter().collect();
    }

    /// The next workload connection id the kernel will hand out.
    pub fn next_conn_id(&self) -> u64 {
        self.next_conn
    }

    /// Forces the next workload connection id (restore path; never lowered
    /// below the current value, so ids stay unique).
    pub fn set_next_conn_id(&mut self, next: u64) {
        self.next_conn = self.next_conn.max(next);
    }

    /// Every file of the simulated file system as `(path, contents,
    /// checksum)`, sorted by path. The checksum is [`checksum64`] of the
    /// contents with seed 0; the kernel caches it per file until the file
    /// next changes, so a file nothing writes is hashed once however often
    /// it is listed.
    pub fn files(&self) -> impl ExactSizeIterator<Item = (&str, &[u8], u64)> {
        self.files.iter().map(|(path, file)| (path.as_str(), file.bytes.as_slice(), file.checksum()))
    }

    /// Removes a simulated file; returns whether it existed (restore path:
    /// files created by the deterministic re-boot but absent from the
    /// manifest are dropped).
    pub fn remove_file(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Exclusive access to the kernel object table (checkpoint restore —
    /// programs go through descriptors, and the restore path is the only
    /// caller that replaces the table).
    pub fn objects_mut(&mut self) -> &mut ObjectTable {
        &mut self.objects
    }

    // ------------------------------------------------------------------
    // Syscall implementation
    // ------------------------------------------------------------------

    fn syscall_cost(call: &Syscall) -> SimDuration {
        let ns = match call {
            Syscall::Fork => 60_000,
            Syscall::SpawnThread { .. } => 20_000,
            Syscall::Open { .. } => 2_000,
            Syscall::Mmap { .. } | Syscall::Munmap { .. } => 3_000,
            Syscall::Nanosleep { ns } => *ns,
            Syscall::Read { .. } | Syscall::Write { .. } => 800,
            _ => 400,
        };
        SimDuration(ns)
    }

    fn exec_syscall(&mut self, pid: Pid, tid: Tid, call: Syscall) -> SimResult<SyscallRet> {
        match call {
            Syscall::Socket => {
                let obj = self.objects.insert(KernelObject::Listener {
                    port: 0,
                    listening: false,
                    backlog: VecDeque::new(),
                });
                let fd = self.process_mut(pid)?.fds_mut().alloc(obj);
                Ok(SyscallRet::Fd(fd))
            }
            Syscall::Bind { fd, port } => {
                if self.objects.listener_for_port(port).is_some() {
                    return Err(SimError::PortInUse(port));
                }
                let obj = self.process(pid)?.fds().get(fd)?.object;
                if self.objects.bind_listener(obj, port) {
                    Ok(SyscallRet::Unit)
                } else {
                    Err(SimError::NotASocket(fd))
                }
            }
            Syscall::Listen { fd } => {
                let obj = self.process(pid)?.fds().get(fd)?.object;
                if self.objects.set_listening(obj) {
                    Ok(SyscallRet::Unit)
                } else {
                    Err(SimError::NotASocket(fd))
                }
            }
            Syscall::Accept { fd } => {
                let obj = self.process(pid)?.fds().get(fd)?.object;
                let conn = match self.objects.get_mut(obj) {
                    Some(KernelObject::Listener { backlog, listening, .. }) => {
                        if !*listening {
                            return Err(SimError::NotASocket(fd));
                        }
                        backlog.pop_front().ok_or(SimError::WouldBlock)?
                    }
                    _ => return Err(SimError::NotASocket(fd)),
                };
                let pending = self.pending_client_data.remove(&conn.0).unwrap_or_default();
                let conn_obj = self.objects.insert(KernelObject::Connection {
                    conn,
                    inbox: pending,
                    outbox: VecDeque::new(),
                    peer_closed: false,
                });
                // A client that closed while queued in the backlog is gone:
                // the server reads its request, then EOF.
                if let Entry::Occupied(mut client) = self.clients.entry(conn.0) {
                    if client.get().closed {
                        client.remove();
                        self.objects.close_peer(conn_obj);
                    } else {
                        client.get_mut().accepted = true;
                    }
                }
                let new_fd = self.process_mut(pid)?.fds_mut().alloc(conn_obj);
                Ok(SyscallRet::Fd(new_fd))
            }
            Syscall::Open { path, create } => {
                if !self.files.contains_key(&path) {
                    if create {
                        self.files.insert(path.clone(), SimFile::default());
                    } else {
                        return Err(SimError::NoSuchFile(path));
                    }
                }
                let obj = self.objects.insert(KernelObject::File { path, offset: 0 });
                let fd = self.process_mut(pid)?.fds_mut().alloc(obj);
                Ok(SyscallRet::Fd(fd))
            }
            Syscall::Read { fd, len } => {
                let obj = self.process(pid)?.fds().get(fd)?.object;
                match self.objects.get_mut(obj) {
                    Some(KernelObject::File { path, offset }) => {
                        let contents = self.files.get(path.as_str()).map_or(&[][..], |f| f.bytes.as_slice());
                        let start = (*offset as usize).min(contents.len());
                        let end = (start + len).min(contents.len());
                        *offset = end as u64;
                        Ok(SyscallRet::Data(contents[start..end].to_vec()))
                    }
                    Some(KernelObject::Connection { inbox, peer_closed, .. }) => match inbox.pop_front() {
                        Some(data) => Ok(SyscallRet::Data(data)),
                        None if *peer_closed => Ok(SyscallRet::Data(Vec::new())),
                        None => Err(SimError::WouldBlock),
                    },
                    Some(KernelObject::Pipe { buffer }) => {
                        let n = len.min(buffer.len());
                        let data: Vec<u8> = buffer.drain(..n).collect();
                        if data.is_empty() {
                            Err(SimError::WouldBlock)
                        } else {
                            Ok(SyscallRet::Data(data))
                        }
                    }
                    _ => Err(SimError::BadFd(fd)),
                }
            }
            Syscall::Write { fd, data } => {
                let obj = self.process(pid)?.fds().get(fd)?.object;
                let len = data.len();
                match self.objects.get_mut(obj) {
                    Some(KernelObject::File { path, offset }) => {
                        let file = self.files.entry(path.clone()).or_default();
                        file.checksum.take();
                        let off = *offset as usize;
                        if file.bytes.len() < off + len {
                            file.bytes.resize(off + len, 0);
                        }
                        file.bytes[off..off + len].copy_from_slice(&data);
                        *offset += len as u64;
                        Ok(SyscallRet::Written(len))
                    }
                    Some(KernelObject::Connection { outbox, .. }) => {
                        outbox.push_back(data);
                        Ok(SyscallRet::Written(len))
                    }
                    Some(KernelObject::Pipe { buffer }) => {
                        buffer.extend(data);
                        self.wait.wake_object(obj);
                        Ok(SyscallRet::Written(len))
                    }
                    _ => Err(SimError::BadFd(fd)),
                }
            }
            Syscall::Close { fd } => {
                let entry = self.process_mut(pid)?.fds_mut().remove(fd)?;
                self.release_object(entry.object);
                Ok(SyscallRet::Unit)
            }
            Syscall::Dup2 { old, new } => {
                let entry = self.process(pid)?.fds().get(old)?;
                self.objects.incref(entry.object);
                let prev = self.process_mut(pid)?.fds_mut().replace(new, entry.object, entry.inherited);
                if let Some(prev) = prev {
                    self.release_object(prev.object);
                }
                Ok(SyscallRet::Fd(new))
            }
            Syscall::SetCloexec { fd, on } => {
                self.process_mut(pid)?.fds_mut().set_cloexec(fd, on)?;
                Ok(SyscallRet::Unit)
            }
            Syscall::Fork => {
                let child_pid = self.alloc_pid();
                let child_tid = self.alloc_tid();
                let parent = self.process(pid)?;
                let child = parent.fork_into(child_pid, child_tid, tid);
                // Every inherited descriptor references its object once more.
                for (_, entry) in child.fds().iter() {
                    self.objects.incref(entry.object);
                }
                self.insert_proc(child_pid, child);
                Ok(SyscallRet::Pid(child_pid))
            }
            Syscall::SpawnThread { name } => {
                let creation_stack = self
                    .process_mut(pid)?
                    .thread_mut(tid)
                    .map_or_else(|_| Rc::from([]), Thread::shared_call_stack);
                let new_tid = self.alloc_tid();
                self.process_mut(pid)?.add_thread(new_tid, name, creation_stack);
                Ok(SyscallRet::Tid(new_tid))
            }
            Syscall::Getpid => Ok(SyscallRet::Pid(pid)),
            Syscall::Exit { code } => {
                self.process_mut(pid)?.set_exit(code);
                let tids: Vec<Tid> = self.process(pid)?.threads().map(|t| t.tid()).collect();
                self.wait.purge_threads(pid, tids);
                Ok(SyscallRet::Unit)
            }
            Syscall::Mmap { size, name, fixed } => {
                let proc = self.process_mut(pid)?;
                let base = match fixed {
                    Some(addr) => addr,
                    None => {
                        // Pick the first gap above the highest mapping.
                        let top = proc.space().regions().map(|r| r.end().0).max().unwrap_or(0x1000_0000);
                        Addr((top + 0xFFF) & !0xFFF)
                    }
                };
                proc.space_mut().map_region(base, size, RegionKind::Mmap, name)?;
                Ok(SyscallRet::Addr(base))
            }
            Syscall::Munmap { base } => {
                self.process_mut(pid)?.space_mut().unmap_region(base)?;
                Ok(SyscallRet::Unit)
            }
            Syscall::UnixBind { name } => {
                let obj = self.objects.insert(KernelObject::UnixChannel { name, inbox: VecDeque::new() });
                let fd = self.process_mut(pid)?.fds_mut().alloc(obj);
                Ok(SyscallRet::Fd(fd))
            }
            Syscall::UnixConnect { name } => {
                let obj =
                    self.objects.unix_channel(&name).ok_or(SimError::NoSuchFile(format!("unix:{name}")))?;
                self.objects.incref(obj);
                let fd = self.process_mut(pid)?.fds_mut().alloc(obj);
                Ok(SyscallRet::Fd(fd))
            }
            Syscall::UnixSend { fd, data, pass_fds } => {
                let entry = self.process(pid)?.fds().get(fd)?;
                let mut objects = Vec::new();
                for pfd in &pass_fds {
                    let e = self.process(pid)?.fds().get(*pfd)?;
                    self.objects.incref(e.object);
                    objects.push(e.object);
                }
                match self.objects.get_mut(entry.object) {
                    Some(KernelObject::UnixChannel { inbox, .. }) => {
                        inbox.push_back(UnixMessage { data, objects });
                        self.wait.wake_object(entry.object);
                        Ok(SyscallRet::Unit)
                    }
                    _ => Err(SimError::NotASocket(fd)),
                }
            }
            Syscall::UnixRecv { fd } => {
                let entry = self.process(pid)?.fds().get(fd)?;
                let msg = match self.objects.get_mut(entry.object) {
                    Some(KernelObject::UnixChannel { inbox, .. }) => {
                        inbox.pop_front().ok_or(SimError::WouldBlock)?
                    }
                    _ => return Err(SimError::NotASocket(fd)),
                };
                let proc = self.process_mut(pid)?;
                let mut fds = Vec::new();
                for obj in msg.objects {
                    fds.push(proc.fds_mut().alloc(obj));
                }
                Ok(SyscallRet::DataWithFds(msg.data, fds))
            }
            Syscall::SetSid => Ok(SyscallRet::Pid(pid)),
            Syscall::Nanosleep { .. } => Ok(SyscallRet::Unit),
        }
    }
}

impl SyscallPort for Kernel {
    fn syscall(&mut self, pid: Pid, tid: Tid, call: Syscall) -> SimResult<SyscallRet> {
        // Validate the caller exists before dispatch.
        let proc = self.process(pid)?;
        proc.thread(tid)?;
        if proc.has_exited() {
            return Err(SimError::NoSuchProcess(pid));
        }
        self.syscall_count += 1;
        // Chaos hook: an armed fault counts down and, at zero, suppresses
        // the syscall entirely — no memory write, no clock charge, no wait
        // registration — so the caller observes a clean mid-operation
        // failure with all kernel state exactly as it was before the call.
        if let Some((remaining, nth)) = self.syscall_fault.as_mut() {
            *remaining -= 1;
            if *remaining == 0 {
                let nth = *nth;
                self.syscall_fault = None;
                return Err(SimError::FaultInjected { nth });
            }
        }
        self.advance_clock(Self::syscall_cost(&call));
        let wait_fd = call.blocking_fd();
        let result = self.exec_syscall(pid, tid, call);
        // A failed blocking call registers the caller on the descriptor's
        // wait queue: the next state change on that object wakes the thread
        // instead of requiring the scheduler to re-poll it.
        if let (Err(SimError::WouldBlock), Some(fd)) = (&result, wait_fd) {
            let _ = self.wait_on_fd(pid, tid, fd);
        }
        result
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The FNV-1a hash of `values`: each one folded in turn, from the offset
/// basis, as [`Kernel::fingerprint`] folds its facts. Call-stack identifiers
/// hash their frame names' bytes with it.
pub fn fnv_hash(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for value in values {
        fnv_fold(&mut hash, value);
    }
    hash
}

/// FNV-1a fold of one value (one kernel-visible fact of
/// [`Kernel::fingerprint`]).
#[inline]
fn fnv_fold(hash: &mut u64, value: u64) {
    *hash = (*hash ^ value).wrapping_mul(FNV_PRIME);
}

/// Folds a region's contents one little-endian word at a time, a trailing
/// partial word zero-padded (what a resident last page holds beyond the
/// region's size). Folding a zero word is one multiply by the prime, so a
/// never-written page is a single multiply by `FNV_PRIME^words`: the digest
/// equals the word-by-word fold over the dense bytes, at the cost of the
/// resident pages only.
fn fnv_fold_region(hash: &mut u64, region: &MemoryRegion) {
    const PAGE_WORDS: u64 = PAGE_SIZE / 8;
    const ZERO_PAGE: u64 = FNV_PRIME.wrapping_pow(PAGE_WORDS as u32);
    let mut words = region.size().div_ceil(8);
    for page in region.pages() {
        let n = words.min(PAGE_WORDS);
        words -= n;
        match page {
            None if n == PAGE_WORDS => *hash = hash.wrapping_mul(ZERO_PAGE),
            None => *hash = hash.wrapping_mul(FNV_PRIME.wrapping_pow(n as u32)),
            Some(bytes) => {
                for word in bytes[..n as usize * 8].chunks_exact(8) {
                    fnv_fold(hash, u64::from_le_bytes(word.try_into().unwrap()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::MemoryLayout;

    /// Drains the queued wakeups matching `pred`, in wake order.
    fn drain(k: &mut Kernel, pred: impl FnMut(Pid) -> bool) -> Vec<(Pid, Tid)> {
        let mut out = Vec::new();
        k.drain_wakeups_into(pred, &mut out);
        out
    }

    fn booted() -> (Kernel, Pid, Tid) {
        let mut k = Kernel::new();
        let pid = k.create_process("testd");
        let tid = k.process(pid).unwrap().main_tid();
        k.process_mut(pid).unwrap().setup_memory(MemoryLayout::default(), false).unwrap();
        (k, pid, tid)
    }

    #[test]
    fn socket_bind_listen_accept_cycle() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        // Nothing pending yet.
        assert!(matches!(k.syscall(pid, tid, Syscall::Accept { fd }), Err(SimError::WouldBlock)));
        let conn = k.client_connect(80).unwrap();
        assert_eq!(k.clients.get(&conn.0).map(|c| c.port), Some(80));
        assert_eq!(k.clients.get(&9999).map(|c| c.port), None);
        k.client_send(conn, b"GET /index.html".to_vec()).unwrap();
        let cfd = k.syscall(pid, tid, Syscall::Accept { fd }).unwrap().as_fd().unwrap();
        let data = match k.syscall(pid, tid, Syscall::Read { fd: cfd, len: 1024 }).unwrap() {
            SyscallRet::Data(d) => d,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(data, b"GET /index.html".to_vec());
        k.syscall(pid, tid, Syscall::Write { fd: cfd, data: b"200 OK".to_vec() }).unwrap();
        assert_eq!(k.client_recv(conn).unwrap(), b"200 OK".to_vec());
        assert!(k.client_is_accepted(conn));
        assert_eq!(k.open_connection_count(), 1);
        k.client_close(conn).unwrap();
        assert_eq!(k.open_connection_count(), 0);
        assert_eq!(k.clients().len(), 0, "closing an accepted endpoint forgets it");
        assert!(k.client_send(conn, b"again".to_vec()).is_err());
    }

    /// A listening socket on port 80 in `pid`, returned as its descriptor.
    fn listen_80(k: &mut Kernel, pid: Pid, tid: Tid) -> Fd {
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        fd
    }

    #[test]
    fn a_client_reads_only_unread_replies_after_the_server_closes() {
        let (mut k, pid, tid) = booted();
        let fd = listen_80(&mut k, pid, tid);
        let conn = k.client_connect(80).unwrap();
        let cfd = k.syscall(pid, tid, Syscall::Accept { fd }).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Write { fd: cfd, data: b"first".to_vec() }).unwrap();
        assert_eq!(k.client_recv(conn).unwrap(), b"first".to_vec());
        k.syscall(pid, tid, Syscall::Write { fd: cfd, data: b"second".to_vec() }).unwrap();
        k.syscall(pid, tid, Syscall::Close { fd: cfd }).unwrap();
        assert!(!k.client_is_accepted(conn), "the connection object is gone");
        assert_eq!(k.client_recv(conn).unwrap(), b"second".to_vec());
        assert_eq!(k.client_recv(conn), None);
    }

    #[test]
    fn a_close_before_accept_reaches_the_server() {
        let (mut k, pid, tid) = booted();
        let fd = listen_80(&mut k, pid, tid);
        let conn = k.client_connect(80).unwrap();
        k.client_send(conn, b"GET".to_vec()).unwrap();
        k.client_close(conn).unwrap();
        assert_eq!(k.clients().len(), 1, "a closed endpoint waits in the backlog");
        let cfd = k.syscall(pid, tid, Syscall::Accept { fd }).unwrap().as_fd().unwrap();
        let read = |k: &mut Kernel| k.syscall(pid, tid, Syscall::Read { fd: cfd, len: 64 });
        assert!(matches!(read(&mut k), Ok(SyscallRet::Data(d)) if d == b"GET"));
        assert!(matches!(read(&mut k), Ok(SyscallRet::Data(d)) if d.is_empty()), "EOF after the request");
        assert_eq!(k.open_connection_count(), 0);
        assert_eq!(k.clients().len(), 0);
    }

    #[test]
    fn double_bind_same_port_fails() {
        let (mut k, pid, tid) = booted();
        let fd1 = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd: fd1, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd: fd1 }).unwrap();
        let fd2 = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        assert!(matches!(
            k.syscall(pid, tid, Syscall::Bind { fd: fd2, port: 80 }),
            Err(SimError::PortInUse(80))
        ));
    }

    #[test]
    fn file_read_write_roundtrip() {
        let (mut k, pid, tid) = booted();
        k.add_file("/etc/server.conf", b"workers=4\n".to_vec());
        let fd = k
            .syscall(pid, tid, Syscall::Open { path: "/etc/server.conf".into(), create: false })
            .unwrap()
            .as_fd()
            .unwrap();
        let data = match k.syscall(pid, tid, Syscall::Read { fd, len: 64 }).unwrap() {
            SyscallRet::Data(d) => d,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(data, b"workers=4\n".to_vec());
        assert!(k.syscall(pid, tid, Syscall::Open { path: "/missing".into(), create: false }).is_err());
    }

    #[test]
    fn reading_a_large_file_in_pages_returns_its_bytes_then_eof() {
        let (mut k, pid, tid) = booted();
        let contents: Vec<u8> = (0..1024 * 1024u32).map(|i| (i * 7 % 251) as u8).collect();
        k.add_file("/var/big.bin", contents.clone());
        let fd = k
            .syscall(pid, tid, Syscall::Open { path: "/var/big.bin".into(), create: false })
            .unwrap()
            .as_fd()
            .unwrap();
        let offset = |k: &Kernel| {
            let obj = k.process(pid).unwrap().fds().get(fd).unwrap().object;
            match k.objects().get(obj) {
                Some(KernelObject::File { offset, .. }) => *offset,
                other => panic!("unexpected {other:?}"),
            }
        };
        let mut read = Vec::new();
        loop {
            let data = match k.syscall(pid, tid, Syscall::Read { fd, len: 4096 }).unwrap() {
                SyscallRet::Data(d) => d,
                other => panic!("unexpected {other:?}"),
            };
            if data.is_empty() {
                break;
            }
            assert_eq!(data.len(), 4096);
            read.extend_from_slice(&data);
            assert_eq!(offset(&k), read.len() as u64);
        }
        assert!(read == contents, "the pages read back are the file");
        assert_eq!(offset(&k), contents.len() as u64);
    }

    /// Asserts every file's reported checksum is that of its current bytes.
    fn assert_checksums_current(k: &Kernel) {
        for (path, bytes, sum) in k.files() {
            assert_eq!(sum, checksum64(bytes, 0), "{path}");
        }
    }

    #[test]
    fn every_file_mutation_resets_the_cached_checksum() {
        let (mut k, pid, tid) = booted();
        k.add_file("/etc/a.conf", b"workers=4\n".to_vec());
        assert_checksums_current(&k);
        // Replacing an installed (and already hashed) file.
        k.add_file("/etc/a.conf", b"workers=8\n".to_vec());
        assert_checksums_current(&k);
        let open = |k: &mut Kernel, path: &str, create| {
            k.syscall(pid, tid, Syscall::Open { path: path.into(), create }).unwrap().as_fd().unwrap()
        };
        // An in-place write at an offset, then one that extends the file.
        let fd = open(&mut k, "/etc/a.conf", false);
        k.syscall(pid, tid, Syscall::Read { fd, len: 8 }).unwrap();
        k.syscall(pid, tid, Syscall::Write { fd, data: b"9".to_vec() }).unwrap();
        assert_checksums_current(&k);
        assert!(k.files().any(|(_, bytes, _)| bytes == b"workers=9\n"));
        k.syscall(pid, tid, Syscall::Write { fd, data: b"\nlog=on\n".to_vec() }).unwrap();
        assert_checksums_current(&k);
        assert!(k.files().any(|(_, bytes, _)| bytes == b"workers=9\nlog=on\n"));
        // A created file, then creating an existing one (which keeps it).
        let fd = open(&mut k, "/var/log/new", true);
        assert_checksums_current(&k);
        k.syscall(pid, tid, Syscall::Write { fd, data: b"started\n".to_vec() }).unwrap();
        assert_checksums_current(&k);
        open(&mut k, "/var/log/new", true);
        assert_checksums_current(&k);
        assert_eq!(k.files().len(), 2);
    }

    #[test]
    fn fork_inherits_fds_and_memory() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 8080 }).unwrap();
        let child = k.syscall(pid, tid, Syscall::Fork).unwrap().as_pid().unwrap();
        assert_ne!(child, pid);
        let centry = k.process(child).unwrap().fds().get(fd).unwrap();
        let pentry = k.process(pid).unwrap().fds().get(fd).unwrap();
        assert_eq!(centry.object, pentry.object, "fork shares the kernel object");
        assert_eq!(k.objects().refcount(centry.object), 2);
    }

    #[test]
    fn numbering_starts_where_asked_and_never_goes_back() {
        let mut k = Kernel::new();
        k.number_from(Pid(4242), Tid(5000));
        let pid = k.create_process("testd");
        assert_eq!((pid, k.process(pid).unwrap().main_tid()), (Pid(4242), Tid(5000)));
        // Asking for numbers below the ones already issued changes nothing.
        k.number_from(Pid(100), Tid(TID_BASE));
        let next = k.create_process("peer");
        assert_eq!((next, k.process(next).unwrap().main_tid()), (Pid(4243), Tid(5001)));
    }

    #[test]
    fn unix_channel_with_fd_passing() {
        let (mut k, pid, tid) = booted();
        let listener_fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        let chan = k.syscall(pid, tid, Syscall::UnixBind { name: "mcr".into() }).unwrap().as_fd().unwrap();
        // A second process connects and receives the passed descriptor.
        let other = k.create_process("peer");
        let other_tid = k.process(other).unwrap().main_tid();
        let conn = k
            .syscall(other, other_tid, Syscall::UnixConnect { name: "mcr".into() })
            .unwrap()
            .as_fd()
            .unwrap();
        k.syscall(
            pid,
            tid,
            Syscall::UnixSend { fd: chan, data: b"fds".to_vec(), pass_fds: vec![listener_fd] },
        )
        .unwrap();
        match k.syscall(other, other_tid, Syscall::UnixRecv { fd: conn }).unwrap() {
            SyscallRet::DataWithFds(data, fds) => {
                assert_eq!(data, b"fds".to_vec());
                assert_eq!(fds.len(), 1);
                let received = k.process(other).unwrap().fds().get(fds[0]).unwrap();
                let original = k.process(pid).unwrap().fds().get(listener_fd).unwrap();
                assert_eq!(received.object, original.object);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transfer_fd_placements() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        let other = k.create_process("new-version");
        let reserved = k.transfer_fd(pid, fd, other, FdPlacement::Reserved).unwrap();
        assert!(reserved.is_reserved());
        let exact = k.transfer_fd(pid, fd, other, FdPlacement::Exact(Fd(7))).unwrap();
        assert_eq!(exact, Fd(7));
        assert!(k.transfer_fd(pid, fd, other, FdPlacement::Exact(Fd(7))).is_err());
        let lowest = k.transfer_fd(pid, fd, other, FdPlacement::Lowest).unwrap();
        assert_eq!(lowest, Fd(0));
        let obj = k.process(pid).unwrap().fds().get(fd).unwrap().object;
        assert_eq!(k.objects().refcount(obj), 4);
    }

    #[test]
    fn mmap_and_munmap() {
        let (mut k, pid, tid) = booted();
        let addr = k
            .syscall(pid, tid, Syscall::Mmap { size: 8192, name: "anon".into(), fixed: None })
            .unwrap()
            .as_addr()
            .unwrap();
        assert!(k.process(pid).unwrap().space().is_mapped(addr));
        let fixed = Addr(0x5555_0000_0000);
        let got = k
            .syscall(pid, tid, Syscall::Mmap { size: 4096, name: "fixed".into(), fixed: Some(fixed) })
            .unwrap()
            .as_addr()
            .unwrap();
        assert_eq!(got, fixed);
        k.syscall(pid, tid, Syscall::Munmap { base: fixed }).unwrap();
        assert!(!k.process(pid).unwrap().space().is_mapped(fixed));
    }

    #[test]
    fn exited_process_rejects_syscalls() {
        let (mut k, pid, tid) = booted();
        k.syscall(pid, tid, Syscall::Exit { code: 0 }).unwrap();
        assert!(k.syscall(pid, tid, Syscall::Getpid).is_err());
    }

    #[test]
    fn remove_process_releases_objects() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        let obj = k.process(pid).unwrap().fds().get(fd).unwrap().object;
        assert_eq!(k.objects().refcount(obj), 1);
        k.remove_process(pid).unwrap();
        assert_eq!(k.objects().refcount(obj), 0);
        assert!(k.process(pid).is_err());
    }

    #[test]
    fn split_processes_hands_out_disjoint_exclusive_borrows() {
        let (mut k, pid, tid) = booted();
        let a = k.syscall(pid, tid, Syscall::Fork).unwrap().as_pid().unwrap();
        let b = k.syscall(pid, tid, Syscall::Fork).unwrap().as_pid().unwrap();
        {
            let mut procs = k.split_processes(&[b, a]).unwrap();
            assert_eq!(procs.len(), 2);
            assert_eq!(procs[0].pid(), b, "results follow request order");
            assert_eq!(procs[1].pid(), a);
            // Both exclusive borrows are usable at the same time.
            let (first, rest) = procs.split_at_mut(1);
            first[0].space_mut().clear_soft_dirty();
            rest[0].space_mut().clear_soft_dirty();
        }
        assert!(matches!(k.split_processes(&[a, Pid(9999)]), Err(SimError::NoSuchProcess(_))));
        assert!(matches!(k.split_processes(&[a, a]), Err(SimError::InvalidArgument(_))));
    }

    #[test]
    fn split_pairs_gives_shared_old_and_exclusive_new() {
        let (mut k, pid, tid) = booted();
        let old_b = k.syscall(pid, tid, Syscall::Fork).unwrap().as_pid().unwrap();
        let new_a = k.create_process("new");
        let new_b = k.create_process("new");
        k.process_mut(new_a).unwrap().setup_memory(MemoryLayout::with_slide(0x1000_0000), false).unwrap();
        k.process_mut(new_b).unwrap().setup_memory(MemoryLayout::with_slide(0x2000_0000), false).unwrap();
        let pairs = [(pid, new_a), (old_b, new_b)];
        let split = k.split_pairs(&pairs).unwrap();
        assert_eq!(split.len(), 2);
        for (i, (old, new)) in split.into_iter().enumerate() {
            assert_eq!(old.pid(), pairs[i].0);
            assert_eq!(new.pid(), pairs[i].1);
            let _ = old.space();
            new.space_mut().clear_soft_dirty();
        }
        // A pid may not appear in two pairs.
        assert!(k.split_pairs(&[(pid, new_a), (pid, new_b)]).is_err());
    }

    #[test]
    fn syscalls_advance_clock_and_counter() {
        let (mut k, pid, tid) = booted();
        let before = k.now();
        k.syscall(pid, tid, Syscall::Getpid).unwrap();
        k.syscall(pid, tid, Syscall::Nanosleep { ns: 1_000_000 }).unwrap();
        assert!(k.now() > before);
        assert_eq!(k.syscall_count(), 2);
    }

    #[test]
    fn blocked_accept_registers_waiter_and_connect_wakes_it() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        assert!(matches!(k.syscall(pid, tid, Syscall::Accept { fd }), Err(SimError::WouldBlock)));
        assert_eq!(k.waiting_thread_count(), 1, "failed accept parked the caller");
        assert_eq!(k.wait.wake_queue.len(), 0);
        let _conn = k.client_connect(80).unwrap();
        assert_eq!(k.waiting_thread_count(), 0);
        assert_eq!(k.wait.wake_queue.len(), 1, "connect produced a wakeup");
        let woken = drain(&mut k, |p| p == pid);
        assert_eq!(woken, vec![(pid, tid)]);
        assert_eq!(k.wait.wake_queue.len(), 0);
    }

    #[test]
    fn blocked_read_wakes_on_client_send_and_close() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        let conn = k.client_connect(80).unwrap();
        let cfd = k.syscall(pid, tid, Syscall::Accept { fd }).unwrap().as_fd().unwrap();
        assert!(matches!(k.syscall(pid, tid, Syscall::Read { fd: cfd, len: 64 }), Err(SimError::WouldBlock)));
        assert_eq!(k.waiting_thread_count(), 1);
        k.client_send(conn, b"ping".to_vec()).unwrap();
        assert_eq!(drain(&mut k, |_| true), vec![(pid, tid)]);
        // Read the data, block again, then the peer close wakes the reader.
        let _ = k.syscall(pid, tid, Syscall::Read { fd: cfd, len: 64 }).unwrap();
        assert!(matches!(k.syscall(pid, tid, Syscall::Read { fd: cfd, len: 64 }), Err(SimError::WouldBlock)));
        k.client_close(conn).unwrap();
        assert_eq!(drain(&mut k, |_| true), vec![(pid, tid)]);
    }

    #[test]
    fn timer_wheel_fires_on_clock_advance() {
        let (mut k, pid, tid) = booted();
        let deadline = SimInstant(k.now().0 + 10_000);
        k.wait_until(pid, tid, deadline);
        assert_eq!(k.waiting_thread_count(), 1);
        assert_eq!(k.next_timer_deadline_where(|_| true), Some(deadline));
        k.advance_clock(SimDuration(5_000));
        assert_eq!(k.wait.wake_queue.len(), 0, "deadline not reached yet");
        k.advance_clock(SimDuration(5_000));
        assert_eq!(k.wait.wake_queue.len(), 1);
        assert_eq!(drain(&mut k, |_| true), vec![(pid, tid)]);
        assert_eq!(k.next_timer_deadline_where(|_| true), None);
        // An already-expired deadline wakes immediately.
        k.wait_until(pid, tid, SimInstant(0));
        assert_eq!(k.wait.wake_queue.len(), 1);
    }

    #[test]
    fn reregistration_moves_a_thread_between_targets() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        k.wait_on_fd(pid, tid, fd).unwrap();
        k.wait_until(pid, tid, SimInstant(k.now().0 + 1_000));
        assert_eq!(k.waiting_thread_count(), 1, "one registration per thread");
        // The fd registration was superseded: a connect wakes nobody.
        let _ = k.client_connect(80).unwrap();
        assert_eq!(k.wait.wake_queue.len(), 0);
        k.cancel_wait(tid);
        assert_eq!(k.waiting_thread_count(), 0);
    }

    #[test]
    fn filtered_timer_deadline_lookup_sees_only_matching_pids() {
        let (mut k, pid, tid) = booted();
        let other = k.create_process("peer");
        let other_tid = k.process(other).unwrap().main_tid();
        let near = SimInstant(k.now().0 + 1_000);
        let far = SimInstant(k.now().0 + 9_000);
        k.wait_until(other, other_tid, near);
        k.wait_until(pid, tid, far);
        assert_eq!(k.next_timer_deadline_where(|_| true), Some(near));
        assert_eq!(k.next_timer_deadline_where(|p| p == pid), Some(far));
        assert_eq!(k.next_timer_deadline_where(|p| p == Pid(9999)), None);
    }

    #[test]
    fn per_process_write_epochs_report_only_the_delta() {
        let (mut k, pid, tid) = booted();
        let base = k
            .syscall(
                pid,
                tid,
                Syscall::Mmap { size: 4 * crate::memory::PAGE_SIZE, name: "d".into(), fixed: None },
            )
            .unwrap()
            .as_addr()
            .unwrap();
        k.process_mut(pid).unwrap().space_mut().clear_soft_dirty();
        k.process_mut(pid).unwrap().space_mut().write_u64(base, 1).unwrap();
        let upto = k.advance_write_epoch(pid).unwrap();
        assert!(
            k.process(pid).unwrap().space().drain_dirty_since(upto).is_empty(),
            "nothing written after the bump"
        );
        k.process_mut(pid).unwrap().space_mut().write_u64(base.offset(crate::memory::PAGE_SIZE), 2).unwrap();
        let delta = k.process(pid).unwrap().space().drain_dirty_since(upto);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].base, base.offset(crate::memory::PAGE_SIZE));
        // Read-only: asking again reports the same delta.
        assert_eq!(k.process(pid).unwrap().space().drain_dirty_since(upto), delta);
        assert!(matches!(k.advance_write_epoch(Pid(9999)), Err(SimError::NoSuchProcess(_))));
    }

    #[test]
    fn exit_and_removal_purge_wait_state() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        k.wait_on_fd(pid, tid, fd).unwrap();
        k.syscall(pid, tid, Syscall::Exit { code: 0 }).unwrap();
        assert_eq!(k.waiting_thread_count(), 0, "exit purged the registration");
        let other = k.create_process("peer");
        let other_tid = k.process(other).unwrap().main_tid();
        k.wait_until(other, other_tid, SimInstant(k.now().0 + 1_000));
        k.remove_process(other).unwrap();
        assert_eq!(k.waiting_thread_count(), 0, "removal purged the registration");
    }

    #[test]
    fn batched_wake_delivery_preserves_fifo_order_and_dedup() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 80 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        // Three waiters parked on the listener, in spawn order.
        let waiters: Vec<Tid> =
            (0..3).map(|i| k.spawn_thread(pid, &format!("w{i}"), Vec::new()).unwrap()).collect();
        for &w in &waiters {
            k.wait_on_fd(pid, w, fd).unwrap();
        }
        // A second process whose wakeups must survive a foreign drain.
        let other = k.create_process("peer");
        let other_tid = k.process(other).unwrap().main_tid();
        let o2 = k.spawn_thread(other, "o2", Vec::new()).unwrap();
        k.wait_until(other, other_tid, SimInstant(0));
        // One connect delivers the whole listener batch in park (FIFO) order.
        let _conn = k.client_connect(80).unwrap();
        // Direct wakeups after the batch keep global enqueue order...
        k.wait_until(other, o2, SimInstant(0));
        k.wait_until(pid, tid, SimInstant(0));
        // ...and re-waking an already queued thread is deduplicated.
        k.wait_until(pid, waiters[1], SimInstant(0));
        k.wait_until(pid, tid, SimInstant(0));
        assert_eq!(k.wait.wake_queue.len(), 6, "dedup kept one entry per thread");

        let mut batch = Vec::new();
        k.drain_wakeups_into(|p| p == pid, &mut batch);
        let tids: Vec<Tid> = batch.iter().map(|&(_, t)| t).collect();
        assert_eq!(tids, vec![waiters[0], waiters[1], waiters[2], tid], "FIFO wake order");
        assert!(batch.iter().all(|&(p, _)| p == pid));
        // The other scheduler's wakeups are still queued, in their own order.
        assert_eq!(drain(&mut k, |p| p == other), vec![(other, other_tid), (other, o2)]);
        assert_eq!(k.wait.wake_queue.len(), 0);
        // Delivery cleared the dedup bit: a delivered thread can be re-woken.
        k.wait_until(pid, waiters[1], SimInstant(0));
        assert_eq!(drain(&mut k, |_| true), vec![(pid, waiters[1])]);
    }

    #[test]
    fn waiters_exiting_between_enqueue_and_delivery_are_skipped() {
        let (mut k, pid, tid) = booted();
        let fd = k.syscall(pid, tid, Syscall::Socket).unwrap().as_fd().unwrap();
        k.syscall(pid, tid, Syscall::Bind { fd, port: 81 }).unwrap();
        k.syscall(pid, tid, Syscall::Listen { fd }).unwrap();
        let survivors: Vec<Tid> =
            (0..2).map(|i| k.spawn_thread(pid, &format!("s{i}"), Vec::new()).unwrap()).collect();
        let doomed = k.create_process("doomed");
        let doomed_tid = k.process(doomed).unwrap().main_tid();
        let doomed_queued = k.spawn_thread(doomed, "dq", Vec::new()).unwrap();
        let dfd = k.transfer_fd(pid, fd, doomed, FdPlacement::Lowest).unwrap();
        // The doomed waiter parks *between* the survivors on the listener's
        // FIFO list; its sibling already sits on the wake queue.
        k.wait_on_fd(pid, survivors[0], fd).unwrap();
        k.wait_on_fd(doomed, doomed_tid, dfd).unwrap();
        k.wait_on_fd(pid, survivors[1], fd).unwrap();
        k.wait_until(doomed, doomed_queued, SimInstant(0));
        k.wait_until(pid, tid, SimInstant(0));
        assert_eq!(k.wait.wake_queue.len(), 2);

        // The process exits between enqueue and delivery.
        k.remove_process(doomed).unwrap();
        assert_eq!(k.wait.wake_queue.len(), 1, "the exiting process's queued wakeup was dropped");
        // The listener object survives (the survivors' descriptors hold it)
        // and its next batch wakes only live waiters, still in FIFO order.
        let _conn = k.client_connect(81).unwrap();
        let batch = drain(&mut k, |_| true);
        assert_eq!(batch, vec![(pid, tid), (pid, survivors[0]), (pid, survivors[1])]);
        assert_eq!(k.waiting_thread_count(), 0);
        assert_eq!(k.wait.wake_queue.len(), 0);
    }

    #[test]
    fn armed_syscall_fault_fires_once_and_leaves_state_untouched() {
        let (mut k, pid, tid) = booted();
        k.arm_syscall_fault(3);
        assert_eq!(k.syscall_fault.map(|(rem, _)| rem), Some(3));
        k.syscall(pid, tid, Syscall::Getpid).unwrap();
        k.syscall(pid, tid, Syscall::Getpid).unwrap();
        assert_eq!(k.syscall_fault.map(|(rem, _)| rem), Some(1));
        let before_clock = k.now();
        // The doomed syscall would otherwise create a socket: it must not.
        let fd_count_before = k.process(pid).unwrap().fds().len();
        assert!(matches!(k.syscall(pid, tid, Syscall::Socket), Err(SimError::FaultInjected { nth: 3 })));
        assert_eq!(k.now(), before_clock, "suppressed syscall charges no time");
        assert_eq!(k.process(pid).unwrap().fds().len(), fd_count_before);
        assert_eq!(k.waiting_thread_count(), 0, "no wait registration from the fault");
        // Fault disarmed itself: the next syscall executes normally.
        assert_eq!(k.syscall_fault.map(|(rem, _)| rem), None);
        k.syscall(pid, tid, Syscall::Socket).unwrap();
        // Counting includes the suppressed call.
        assert_eq!(k.syscall_count(), 4);
    }

    #[test]
    fn syscall_fault_arm_zero_and_disarm_are_inert() {
        let (mut k, pid, tid) = booted();
        k.arm_syscall_fault(0);
        assert_eq!(k.syscall_fault.map(|(rem, _)| rem), None);
        k.arm_syscall_fault(2);
        k.disarm_syscall_fault();
        k.disarm_syscall_fault(); // idempotent
        k.syscall(pid, tid, Syscall::Getpid).unwrap();
        k.syscall(pid, tid, Syscall::Getpid).unwrap();
        k.syscall(pid, tid, Syscall::Getpid).unwrap();
    }

    #[test]
    fn timer_cancel_then_reregister_same_deadline_wakes_exactly_once() {
        let (mut k, pid, tid) = booted();
        let deadline = SimInstant(k.now().0 + 4_000);
        // Park, lazily cancel (the wheel entry stays), re-park at the *same*
        // deadline: the stale entry's seq no longer matches the slot, so
        // only the live registration may fire.
        k.wait_until(pid, tid, deadline);
        k.cancel_wait(tid);
        k.wait_until(pid, tid, deadline);
        assert_eq!(k.waiting_thread_count(), 1);
        assert_eq!(k.next_timer_deadline_where(|_| true), Some(deadline), "stale entry invisible to lookup");
        k.advance_clock(SimDuration(4_000));
        assert_eq!(k.wait.wake_queue.len(), 1, "exactly one wake despite two wheel entries");
        assert_eq!(drain(&mut k, |_| true), vec![(pid, tid)]);
        // No second wake materializes later from the stale entry.
        k.advance_clock(SimDuration(1_000_000));
        assert_eq!(k.wait.wake_queue.len(), 0);
    }

    #[test]
    fn timer_cancelled_in_the_tick_it_would_fire_stays_cancelled() {
        let (mut k, pid, tid) = booted();
        let deadline = SimInstant(k.now().0 + 2_000);
        k.wait_until(pid, tid, deadline);
        k.cancel_wait(tid);
        assert_eq!(k.waiting_thread_count(), 0);
        assert_eq!(k.next_timer_deadline_where(|_| true), None);
        // The advance that passes the cancelled deadline must not wake the
        // thread: `timer_entry_valid` filters the stale (seq, target) entry
        // in the same `fire_due_timers` pass.
        k.advance_clock(SimDuration(10_000));
        assert_eq!(k.wait.wake_queue.len(), 0, "cancelled timer never fires");
        // A fresh registration by the same thread still works afterwards.
        let later = SimInstant(k.now().0 + 500);
        k.wait_until(pid, tid, later);
        k.advance_clock(SimDuration(500));
        assert_eq!(drain(&mut k, |_| true), vec![(pid, tid)]);
    }
}
