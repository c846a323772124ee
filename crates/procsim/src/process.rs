//! Simulated processes and threads.
//!
//! A [`Process`] owns an address space, the allocators managing its heap, a
//! descriptor table and a set of threads. Threads carry an explicit call
//! stack of function names: MCR's call-stack IDs (used to match replayed
//! syscalls and to pair processes/threads across versions) are computed from
//! exactly this information.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::alloc::{PtMalloc, RegionAllocator};
use crate::error::{SimError, SimResult};
use crate::fd::FdTable;
use crate::ids::{Pid, Tid};
use crate::memory::{Addr, AddressSpace, RegionKind};

/// `thread_index` sentinel: no thread of this process has that tid.
const NIL: u32 = u32::MAX;

/// Scheduling/blocking state of a simulated thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable / currently executing.
    Running,
    /// Blocked inside a (possibly unblockified) library call.
    Blocked {
        /// Name of the blocking library call (e.g. `"accept"`, `"epoll_wait"`).
        call: &'static str,
    },
    /// Parked at a quiescent point by MCR's barrier protocol.
    Quiesced,
    /// The thread has exited.
    Exited,
}

/// A simulated thread.
#[derive(Debug, Clone)]
pub struct Thread {
    tid: Tid,
    name: String,
    state: ThreadState,
    call_stack: Vec<String>,
    /// `call_stack` as one shared slice, built by the first spawn after the
    /// stack last changed and reused by every spawn until it changes again.
    shared_call_stack: Option<Rc<[String]>>,
    /// Call stack captured at thread creation time (used to match threads
    /// across program versions), shared with the spawning thread.
    creation_stack: Rc<[String]>,
    /// Simulated nanoseconds spent per blocking call (quiescence profiling).
    blocking_ns: BTreeMap<&'static str, u64>,
    /// Iterations executed per named loop (long-lived loop detection).
    loop_iterations: BTreeMap<&'static str, u64>,
}

impl Thread {
    fn new(tid: Tid, name: impl Into<String>, creation_stack: Rc<[String]>) -> Self {
        Thread {
            tid,
            name: name.into(),
            state: ThreadState::Running,
            call_stack: Vec::new(),
            shared_call_stack: None,
            creation_stack,
            blocking_ns: BTreeMap::new(),
            loop_iterations: BTreeMap::new(),
        }
    }

    /// Thread identifier.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Human-readable thread name (e.g. `"worker"`, `"master"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current state.
    pub fn state(&self) -> &ThreadState {
        &self.state
    }

    /// Sets the state.
    pub fn set_state(&mut self, state: ThreadState) {
        self.state = state;
    }

    /// Pushes a function frame onto the simulated call stack.
    pub fn push_frame(&mut self, function: impl Into<String>) {
        self.call_stack.push(function.into());
        self.shared_call_stack = None;
    }

    /// Pops the innermost frame.
    pub fn pop_frame(&mut self) {
        self.call_stack.pop();
        self.shared_call_stack = None;
    }

    /// The active function names, outermost first.
    pub fn call_stack(&self) -> &[String] {
        &self.call_stack
    }

    /// Replaces the whole call stack (used when restoring a checkpoint).
    pub(crate) fn set_call_stack(&mut self, frames: Vec<String>) {
        self.call_stack = frames;
        self.shared_call_stack = None;
    }

    /// The current call stack as a shared slice: the creation stack of a
    /// thread spawned here, copied once per distinct stack, not per spawn.
    pub(crate) fn shared_call_stack(&mut self) -> Rc<[String]> {
        let frames = &self.call_stack;
        Rc::clone(self.shared_call_stack.get_or_insert_with(|| frames.as_slice().into()))
    }

    /// Call stack at thread creation time.
    pub fn creation_stack(&self) -> &[String] {
        &self.creation_stack
    }

    /// Records `ns` nanoseconds spent blocked in `call` (profiler input).
    pub fn record_blocking(&mut self, call: &'static str, ns: u64) {
        *self.blocking_ns.entry(call).or_insert(0) += ns;
    }

    /// Records one iteration of the named loop (profiler input).
    pub fn record_loop_iteration(&mut self, loop_name: &'static str) {
        *self.loop_iterations.entry(loop_name).or_insert(0) += 1;
    }

    /// Blocking-time histogram collected so far.
    pub fn blocking_profile(&self) -> &BTreeMap<&'static str, u64> {
        &self.blocking_ns
    }

    /// Loop-iteration histogram collected so far.
    pub fn loop_profile(&self) -> &BTreeMap<&'static str, u64> {
        &self.loop_iterations
    }

    /// True if the thread is parked at a quiescent point.
    pub fn is_quiesced(&self) -> bool {
        matches!(self.state, ThreadState::Quiesced)
    }
}

/// Standard virtual-memory layout constants for simulated programs.
///
/// Address-space layout differs between program versions by an ASLR-like
/// offset, which is what forces MCR to *relocate* mutable objects and pin
/// immutable ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Base of the static data region.
    pub static_base: Addr,
    /// Size of the static data region.
    pub static_size: u64,
    /// Base of the heap region.
    pub heap_base: Addr,
    /// Size of the heap region.
    pub heap_size: u64,
    /// Base of the (single, shared) library data region.
    pub lib_base: Addr,
    /// Size of the library data region.
    pub lib_size: u64,
    /// Base of the stack region.
    pub stack_base: Addr,
    /// Size of the stack region.
    pub stack_size: u64,
}

impl MemoryLayout {
    /// The default layout, shifted by an ASLR-like `slide` in bytes.
    ///
    /// The library region is *not* slid: MCR prelinks copied libraries so the
    /// new version maps them at the same address as the old one (paper §5,
    /// global reallocation).
    pub fn with_slide(slide: u64) -> Self {
        MemoryLayout {
            static_base: Addr(0x0040_0000 + slide),
            static_size: 1024 * 1024,
            heap_base: Addr(0x0800_0000 + slide),
            heap_size: 16 * 1024 * 1024,
            lib_base: Addr(0x7f00_0000_0000),
            lib_size: 2 * 1024 * 1024,
            stack_base: Addr(0x7ffc_0000_0000 + slide),
            stack_size: 1024 * 1024,
        }
    }
}

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout::with_slide(0)
    }
}

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    pid: Pid,
    name: String,
    space: AddressSpace,
    heap: Option<PtMalloc>,
    regions: RegionAllocator,
    fds: FdTable,
    /// Threads in ascending tid order. Tids are handed out by the kernel in
    /// globally increasing order, so a new thread is always appended.
    threads: Vec<Thread>,
    /// `tid - main_tid` → position in `threads` ([`NIL`] for the tids the
    /// kernel handed to other processes in between): a tid resolves in one
    /// bounds-checked probe. The main thread is the first one.
    thread_index: Vec<u32>,
    main_tid: Tid,
    layout: MemoryLayout,
    exit_code: Option<i32>,
    /// Call stack of the `fork` that created this process (empty for the
    /// initial process); used to pair processes across versions.
    creation_stack: Vec<String>,
}

impl Process {
    pub(crate) fn new(pid: Pid, name: impl Into<String>, main_tid: Tid) -> Self {
        let threads = vec![Thread::new(main_tid, "main", Rc::from([]))];
        Process {
            pid,
            name: name.into(),
            space: AddressSpace::new(),
            heap: None,
            regions: RegionAllocator::new(false),
            fds: FdTable::new(),
            threads,
            thread_index: vec![0],
            main_tid,
            layout: MemoryLayout::default(),
            exit_code: None,
            creation_stack: Vec::new(),
        }
    }

    /// Process identifier.
    pub(crate) fn pid(&self) -> Pid {
        self.pid
    }

    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The memory layout used by [`Process::setup_memory`].
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Maps the standard regions (static, heap, lib, stack) according to
    /// `layout` and installs a heap allocator.
    ///
    /// # Errors
    ///
    /// Fails if the regions cannot be mapped (e.g. called twice).
    pub fn setup_memory(&mut self, layout: MemoryLayout, instrumented_heap: bool) -> SimResult<()> {
        self.layout = layout;
        self.space.map_region(layout.static_base, layout.static_size, RegionKind::Static, "static")?;
        self.space.map_region(layout.heap_base, layout.heap_size, RegionKind::Heap, "heap")?;
        self.space.map_region(layout.lib_base, layout.lib_size, RegionKind::Lib, "lib")?;
        self.space.map_region(layout.stack_base, layout.stack_size, RegionKind::Stack, "stack")?;
        self.heap = Some(PtMalloc::new(layout.heap_base, layout.heap_size, instrumented_heap));
        Ok(())
    }

    /// Shared access to the address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Exclusive access to the address space.
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The heap allocator, if memory has been set up.
    pub fn heap(&self) -> Option<&PtMalloc> {
        self.heap.as_ref()
    }

    /// Exclusive access to the heap allocator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidArgument`] if memory was never set up.
    pub fn heap_mut(&mut self) -> SimResult<&mut PtMalloc> {
        self.heap.as_mut().ok_or(SimError::InvalidArgument("process memory not set up".into()))
    }

    /// Simultaneous access to the address space and heap allocator (the
    /// common pattern for allocation).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidArgument`] if memory was never set up.
    pub fn space_and_heap_mut(&mut self) -> SimResult<(&mut AddressSpace, &mut PtMalloc)> {
        let heap = self.heap.as_mut().ok_or(SimError::InvalidArgument("process memory not set up".into()))?;
        Ok((&mut self.space, heap))
    }

    /// Simultaneous access to address space, heap and region allocator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidArgument`] if memory was never set up.
    pub fn space_heap_regions_mut(
        &mut self,
    ) -> SimResult<(&mut AddressSpace, &mut PtMalloc, &mut RegionAllocator)> {
        let heap = self.heap.as_mut().ok_or(SimError::InvalidArgument("process memory not set up".into()))?;
        Ok((&mut self.space, heap, &mut self.regions))
    }

    /// The process's region/pool allocator.
    pub fn regions(&self) -> &RegionAllocator {
        &self.regions
    }

    /// Replaces the region allocator (used to enable instrumentation).
    pub fn set_region_allocator(&mut self, regions: RegionAllocator) {
        self.regions = regions;
    }

    /// The descriptor table.
    pub fn fds(&self) -> &FdTable {
        &self.fds
    }

    /// Exclusive access to the descriptor table.
    pub fn fds_mut(&mut self) -> &mut FdTable {
        &mut self.fds
    }

    /// The main thread's id.
    pub fn main_tid(&self) -> Tid {
        self.main_tid
    }

    /// Shared access to a thread.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchThread`] for an unknown thread id.
    pub fn thread(&self, tid: Tid) -> SimResult<&Thread> {
        self.thread_pos(tid).map(|i| &self.threads[i]).ok_or(SimError::NoSuchThread(self.pid, tid))
    }

    /// Position of `tid` in the thread vector, if it is one of this process's.
    fn thread_pos(&self, tid: Tid) -> Option<usize> {
        let i = *self.thread_index.get(tid.0.checked_sub(self.main_tid.0)? as usize)?;
        (i != NIL).then_some(i as usize)
    }

    /// Exclusive access to a thread.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchThread`] for an unknown thread id.
    pub fn thread_mut(&mut self, tid: Tid) -> SimResult<&mut Thread> {
        match self.thread_pos(tid) {
            Some(i) => Ok(&mut self.threads[i]),
            None => Err(SimError::NoSuchThread(self.pid, tid)),
        }
    }

    /// Iterates over the process's threads in ascending tid order.
    pub fn threads(&self) -> impl Iterator<Item = &Thread> {
        self.threads.iter()
    }

    /// Number of threads (including exited ones still in the table).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    pub(crate) fn add_thread(&mut self, tid: Tid, name: impl Into<String>, creation_stack: Rc<[String]>) {
        debug_assert!(
            self.threads.last().is_some_and(|t| t.tid < tid),
            "tids are allocated in increasing order"
        );
        self.thread_index.resize((tid.0 - self.main_tid.0) as usize, NIL);
        self.thread_index.push(self.threads.len() as u32);
        self.threads.push(Thread::new(tid, name, creation_stack));
    }

    /// Whether the process has exited.
    pub fn has_exited(&self) -> bool {
        self.exit_code.is_some()
    }

    pub(crate) fn set_exit(&mut self, code: i32) {
        self.exit_code = Some(code);
        for t in &mut self.threads {
            t.set_state(ThreadState::Exited);
        }
    }

    /// Call stack of the fork that created this process.
    pub fn creation_stack(&self) -> &[String] {
        &self.creation_stack
    }

    /// Overrides the creation-time call stack (used by higher layers when the
    /// initial process of a program is created outside a `fork`).
    pub fn set_creation_stack(&mut self, stack: Vec<String>) {
        self.creation_stack = stack;
    }

    /// *Mapped* size, not host-resident memory: total mapped bytes plus
    /// allocator metadata. This is the paper's Table 3 proxy for the resident
    /// set and deliberately ignores which pages were ever touched, so the
    /// `table3_overhead`/`memory_usage` reports do not depend on the page
    /// representation; [`AddressSpace::resident_pages`] is the number of
    /// pages actually materialised.
    pub fn resident_bytes(&self) -> u64 {
        let meta = self.heap.as_ref().map(|h| h.stats().metadata_bytes).unwrap_or(0)
            + self.regions.stats().metadata_bytes;
        self.space.mapped_bytes() + meta
    }

    pub(crate) fn fork_into(&self, child_pid: Pid, child_main_tid: Tid, forking_tid: Tid) -> Process {
        let forking_stack =
            self.thread_pos(forking_tid).map(|i| self.threads[i].call_stack().to_vec()).unwrap_or_default();
        let mut main = Thread::new(child_main_tid, "main", forking_stack.as_slice().into());
        main.set_call_stack(forking_stack.clone());
        let threads = vec![main];
        Process {
            pid: child_pid,
            name: self.name.clone(),
            space: self.space.clone(),
            heap: self.heap.clone(),
            regions: self.regions.clone(),
            fds: self.fds.clone(),
            threads,
            thread_index: vec![0],
            main_tid: child_main_tid,
            layout: self.layout,
            exit_code: None,
            creation_stack: forking_stack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{AllocSite, TypeTag};

    /// True if every live (non-exited) thread is parked at a quiescent point.
    fn is_quiescent(p: &Process) -> bool {
        p.threads.iter().filter(|t| !matches!(t.state(), ThreadState::Exited)).all(|t| t.is_quiesced())
    }

    fn proc_with_memory() -> Process {
        let mut p = Process::new(Pid(1), "testd", Tid(1));
        p.setup_memory(MemoryLayout::default(), true).unwrap();
        p
    }

    #[test]
    fn setup_memory_maps_standard_regions() {
        let p = proc_with_memory();
        assert_eq!(p.space().regions().count(), 4);
        assert!(p.heap().is_some());
        assert!(p.resident_bytes() > 0);
    }

    #[test]
    fn setup_memory_twice_fails() {
        let mut p = proc_with_memory();
        assert!(p.setup_memory(MemoryLayout::default(), false).is_err());
    }

    #[test]
    fn thread_call_stack_and_profiles() {
        let mut p = proc_with_memory();
        let tid = p.main_tid();
        {
            let t = p.thread_mut(tid).unwrap();
            t.push_frame("main");
            t.push_frame("server_init");
            assert_eq!(t.call_stack(), &["main".to_string(), "server_init".to_string()]);
            t.pop_frame();
            t.record_blocking("accept", 1_000);
            t.record_blocking("accept", 500);
            t.record_loop_iteration("main_loop");
        }
        let t = p.thread(tid).unwrap();
        assert_eq!(t.blocking_profile()["accept"], 1_500);
        assert_eq!(t.loop_profile()["main_loop"], 1);
        assert!(p.thread(Tid(999)).is_err());
    }

    #[test]
    fn quiescence_requires_all_threads() {
        let mut p = proc_with_memory();
        p.add_thread(Tid(2), "worker", Rc::from(["main".to_string(), "spawn_workers".to_string()]));
        assert!(!is_quiescent(&p));
        for t in &mut p.threads {
            t.set_state(ThreadState::Quiesced);
        }
        assert!(is_quiescent(&p));
    }

    #[test]
    fn spawns_share_the_call_stack_until_it_changes() {
        let mut p = proc_with_memory();
        let t = p.thread_mut(Tid(1)).unwrap();
        t.push_frame("main");
        let first = t.shared_call_stack();
        assert!(Rc::ptr_eq(&first, &t.shared_call_stack()), "an unchanged stack is copied once");
        t.push_frame("spawn_workers");
        let second = t.shared_call_stack();
        assert_eq!(&*first, ["main".to_string()]);
        assert_eq!(&*second, ["main".to_string(), "spawn_workers".to_string()]);
        t.pop_frame();
        assert_eq!(&*t.shared_call_stack(), ["main".to_string()]);
        p.add_thread(Tid(2), "worker", second);
        assert_eq!(p.thread(Tid(2)).unwrap().creation_stack(), ["main", "spawn_workers"]);
    }

    #[test]
    fn tid_holes_left_by_other_processes_resolve_to_no_thread() {
        // Two processes spawning alternately: each one's tids skip the other's.
        let mut a = proc_with_memory();
        let mut b = Process::new(Pid(2), "other", Tid(2));
        for t in 3..=12 {
            let p = if t % 2 == 1 { &mut a } else { &mut b };
            p.add_thread(Tid(t), format!("w{t}"), Rc::from([]));
        }
        a.thread_mut(Tid(5)).unwrap().push_frame("fork_here");
        let mut child = a.fork_into(Pid(3), Tid(13), Tid(5));
        assert_eq!(child.creation_stack(), ["fork_here"]);
        for (p, own, past) in [(&mut a, 1..=11, 13), (&mut b, 2..=12, 14), (&mut child, 13..=13, 14)] {
            let pid = p.pid();
            for t in 0..=past {
                let tid = Tid(t);
                if own.contains(&t) && (t % 2 == own.start() % 2) {
                    assert_eq!(p.thread(tid).unwrap().tid(), tid);
                    assert_eq!(p.thread_mut(tid).unwrap().tid(), tid);
                } else {
                    assert_eq!(p.thread(tid).unwrap_err(), SimError::NoSuchThread(pid, tid), "{pid} {tid}");
                    assert_eq!(p.thread_mut(tid).unwrap_err(), SimError::NoSuchThread(pid, tid));
                }
            }
            let tids: Vec<u32> = p.threads().map(|t| t.tid().0).collect();
            assert!(tids.windows(2).all(|w| w[0] < w[1]), "{pid}: {tids:?} not ascending");
            assert_eq!(tids.len(), p.thread_count());
        }
    }

    #[test]
    fn fork_copies_memory_and_fds() {
        let mut p = proc_with_memory();
        let addr = {
            let (space, heap) = p.space_and_heap_mut().unwrap();
            let a = heap.malloc(space, 64, AllocSite(1), TypeTag(1)).unwrap();
            space.write_u64(a, 0x1234).unwrap();
            a
        };
        p.fds_mut().alloc(crate::ids::ObjId(9));
        {
            let t = p.thread_mut(Tid(1)).unwrap();
            t.push_frame("main");
            t.push_frame("spawn_worker");
        }
        let child = p.fork_into(Pid(2), Tid(10), Tid(1));
        assert_eq!(child.pid(), Pid(2));
        assert_eq!(child.space().read_u64(addr).unwrap(), 0x1234);
        assert_eq!(child.fds().len(), 1);
        assert_eq!(child.thread_count(), 1);
        assert_eq!(child.creation_stack(), &["main".to_string(), "spawn_worker".to_string()]);
        // Writes in the child do not affect the parent (copy semantics).
        let mut child = child;
        child.space_mut().write_u64(addr, 0x9999).unwrap();
        assert_eq!(p.space().read_u64(addr).unwrap(), 0x1234);
    }

    #[test]
    fn exit_marks_threads() {
        let mut p = proc_with_memory();
        p.set_exit(3);
        assert!(p.has_exited());
        assert_eq!(p.exit_code, Some(3));
        assert!(matches!(p.thread(Tid(1)).unwrap().state(), ThreadState::Exited));
    }

    #[test]
    fn layout_slide_moves_private_regions_only() {
        let a = MemoryLayout::with_slide(0);
        let b = MemoryLayout::with_slide(0x10_0000);
        assert_ne!(a.static_base, b.static_base);
        assert_ne!(a.heap_base, b.heap_base);
        assert_eq!(a.lib_base, b.lib_base, "libraries are prelinked at a fixed address");
    }
}
