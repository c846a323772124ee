//! The MCR-enabled program abstraction and its execution environment.
//!
//! A simulated server implements the [`Program`] trait: it declares its data
//! types, runs a `startup` phase (issuing syscalls and initializing global
//! data structures in simulated memory), and then executes an event loop one
//! [`Program::thread_step`] at a time. All interaction with the outside world
//! goes through the [`ProgramEnv`], which is where MCR interposes: syscalls
//! are recorded or replayed, allocations are tagged, globals are registered
//! as tracing roots, and the quiescence machinery observes where threads
//! block.

use std::rc::Rc;

use mcr_procsim::{
    Addr, AllocSite, Fd, Kernel, Pid, PoolId, SimDuration, SimError, Syscall, SyscallRet, Tid, TypeTag,
};
use mcr_typemeta::{CallSiteRegistry, InstrumentationConfig, StaticRegistry, TypeId, TypeKind, TypeRegistry};

use crate::annotations::{AnnotationRegistry, ObjTreatment, ReinitHandler, TransformHandler};
use crate::callstack::CallStackId;
use crate::error::{McrError, McrResult};
use crate::interpose::Interposer;

/// What a blocking thread is waiting for — the readiness interest it
/// declares so the event-driven scheduler can park it on the right kernel
/// wait queue instead of re-polling it every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitInterest {
    /// Readiness of a descriptor: a listener with a non-empty backlog, a
    /// connection with queued bytes (or a peer close), a Unix channel with a
    /// pending datagram.
    Fd(Fd),
    /// A timed block: wake when the virtual clock has advanced by this much
    /// (timer-wheel entry; e.g. a poll timeout or a retry backoff).
    Timer(SimDuration),
    /// No kernel-visible wakeup source (`sigsuspend`-style): the thread only
    /// runs again when the runtime wakes everything — a quiescence request
    /// or a post-checkpoint resume.
    External,
}

/// Outcome of one scheduling step of a program thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The thread made progress (handled at least one event).
    Progress,
    /// The thread found nothing to do and would block in the named library
    /// call at the top of the named long-running loop — i.e. it sits at a
    /// quiescent point.
    WouldBlock {
        /// The blocking library call (e.g. `"accept"`, `"epoll_wait"`).
        call: &'static str,
        /// The enclosing long-lived loop (e.g. `"main_loop"`).
        loop_name: &'static str,
        /// The readiness interest the blocked thread declares.
        wait: WaitInterest,
    },
    /// The thread (or its process) finished and will not run again.
    Exit,
}

/// A simulated MCR-enabled server program.
///
/// Implementations live in the `mcr-servers` crate; the trait is object-safe
/// so the runtime can manage old and new versions uniformly.
pub trait Program {
    /// Program name (e.g. `"httpd"`).
    fn name(&self) -> &str;

    /// Version string (e.g. `"2.2.23"`).
    fn version(&self) -> &str;

    /// Registers the program's data types into the per-version registry.
    fn register_types(&mut self, types: &mut TypeRegistry);

    /// Runs the program's startup code on the initial process's main thread.
    ///
    /// # Errors
    ///
    /// Startup errors abort program boot (old version) or trigger rollback
    /// (new version).
    fn startup(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<()>;

    /// Initializes a child process created by [`ProgramEnv::fork`] during
    /// startup; `kind` is the string passed to `fork`.
    ///
    /// # Errors
    ///
    /// Same as [`Program::startup`].
    fn process_init(&mut self, env: &mut ProgramEnv<'_>, kind: &str) -> McrResult<()> {
        let _ = (env, kind);
        Ok(())
    }

    /// Executes one step of the calling thread's event loop.
    ///
    /// # Errors
    ///
    /// Run-time errors are reported to the caller (the scheduler) and, during
    /// a live update, trigger rollback.
    fn thread_step(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome>;
}

/// One entry in the instance's thread roster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadRosterEntry {
    /// Actual kernel pid of the owning process.
    pub pid: Pid,
    /// Thread id.
    pub tid: Tid,
    /// Thread name (e.g. `"main"`, `"worker-3"`), shared with every
    /// [`ProgramEnv`] that steps the thread.
    pub name: Rc<str>,
    /// Whether the thread existed before startup completed (such threads
    /// yield *persistent* quiescent points in Table 1).
    pub(crate) created_during_startup: bool,
    /// Whether the thread has exited.
    pub(crate) exited: bool,
}

/// A forked child process whose program-level initialization is still
/// pending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PendingChild {
    /// Actual kernel pid of the child.
    pub(crate) actual_pid: Pid,
    /// Virtual pid observed by the program.
    pub(crate) virtual_pid: Pid,
    /// The `kind` passed to [`ProgramEnv::fork`].
    pub(crate) kind: String,
}

/// Counters tracking the work done by MCR instrumentation at run time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Unblockification wrapper invocations.
    pub(crate) unblock_wraps: u64,
    /// Quiescence-hook flag checks.
    pub quiescence_checks: u64,
    /// Allocations tracked by the dynamic instrumentation layer.
    pub(crate) dyn_tracked_allocs: u64,
    /// Library-region allocations performed by the program.
    pub(crate) lib_allocs: u64,
    /// Simulated nanoseconds of application work charged via
    /// [`ProgramEnv::charge_work`].
    pub(crate) charged_work_ns: u64,
    /// Events handled by the program (used by workload harnesses).
    pub events_handled: u64,
}

/// Mutable, non-`Program` state of one MCR-enabled program instance.
#[derive(Debug)]
pub struct InstanceState {
    /// Program name.
    pub(crate) program_name: String,
    /// Program version string.
    pub version: String,
    /// Instrumentation configuration the instance was built with.
    pub(crate) config: InstrumentationConfig,
    /// Per-version type registry.
    pub types: TypeRegistry,
    /// Per-version static object registry.
    pub statics: StaticRegistry,
    /// Per-version allocation-site registry.
    pub(crate) sites: CallSiteRegistry,
    /// User annotations.
    pub annotations: AnnotationRegistry,
    /// Record/replay engine.
    pub interpose: Interposer,
    /// Whether the program is still executing startup code.
    pub(crate) startup_phase: bool,
    /// Whether a live update (and therefore quiescence) has been requested.
    pub(crate) quiesce_requested: bool,
    /// Actual pids of every process of this instance, in creation order
    /// (index 0 is the initial process).
    pub processes: Vec<Pid>,
    /// Thread roster.
    pub threads: Vec<ThreadRosterEntry>,
    /// Forked children awaiting program-level initialization.
    pub(crate) pending_children: Vec<PendingChild>,
    /// Instrumentation activity counters.
    pub counters: RuntimeCounters,
    /// Shadow log of allocations kept by the dynamic instrumentation layer
    /// (contributes to the memory overhead measured in §8).
    pub(crate) dyn_alloc_log: Vec<(u64, u64)>,
    /// Library-region objects allocated by the program (addr, size, name).
    pub(crate) lib_objects: Vec<(Addr, u64, std::sync::Arc<str>)>,
    /// Simulated time spent in the startup phase (record or replay).
    pub(crate) startup_duration: mcr_procsim::SimDuration,
    /// Raw tid → index into `threads` (tids are globally unique), so
    /// per-step roster lookups are one bounds-checked vector probe at fleet
    /// scale. `u32::MAX` marks an unindexed slot. Maintained by
    /// [`InstanceState::add_roster_entry`]; lookups verify the entry and fall
    /// back to a linear scan for entries pushed directly.
    roster_index: Vec<u32>,
    static_bump: u64,
    lib_bump: u64,
}

impl InstanceState {
    /// Creates the state for a new instance.
    pub(crate) fn new(
        program_name: impl Into<String>,
        version: impl Into<String>,
        config: InstrumentationConfig,
        interpose: Interposer,
    ) -> Self {
        InstanceState {
            program_name: program_name.into(),
            version: version.into(),
            config,
            types: TypeRegistry::new(),
            statics: StaticRegistry::new(),
            sites: CallSiteRegistry::new(),
            annotations: AnnotationRegistry::new(),
            interpose,
            startup_phase: true,
            quiesce_requested: false,
            processes: Vec::new(),
            threads: Vec::new(),
            pending_children: Vec::new(),
            counters: RuntimeCounters::default(),
            dyn_alloc_log: Vec::new(),
            lib_objects: Vec::new(),
            startup_duration: mcr_procsim::SimDuration(0),
            roster_index: Vec::new(),
            static_bump: 0,
            lib_bump: 0,
        }
    }

    /// Appends a thread to the roster, keeping the index in sync.
    pub(crate) fn add_roster_entry(&mut self, entry: ThreadRosterEntry) {
        let slot = entry.tid.0 as usize;
        if slot >= self.roster_index.len() {
            self.roster_index.resize(slot + 1, u32::MAX);
        }
        self.roster_index[slot] = self.threads.len() as u32;
        self.threads.push(entry);
    }

    fn roster_position(&self, pid: Pid, tid: Tid) -> Option<usize> {
        if let Some(&i) = self.roster_index.get(tid.0 as usize) {
            if self.threads.get(i as usize).is_some_and(|t| t.pid == pid && t.tid == tid) {
                return Some(i as usize);
            }
        }
        self.threads.iter().position(|t| t.pid == pid && t.tid == tid)
    }

    /// The roster entry for a thread, if known.
    pub(crate) fn roster_entry(&self, pid: Pid, tid: Tid) -> Option<&ThreadRosterEntry> {
        self.roster_position(pid, tid).map(|i| &self.threads[i])
    }

    /// Marks a roster thread as exited.
    pub(crate) fn mark_thread_exited(&mut self, pid: Pid, tid: Tid) {
        if let Some(i) = self.roster_position(pid, tid) {
            self.threads[i].exited = true;
        }
    }

    /// Live (non-exited) roster entries.
    pub fn live_threads(&self) -> impl Iterator<Item = &ThreadRosterEntry> {
        self.threads.iter().filter(|t| !t.exited)
    }

    /// Approximate bytes of MCR metadata resident for this instance
    /// (startup log, tag registries, dynamic instrumentation shadow log).
    pub(crate) fn metadata_bytes(&self) -> u64 {
        let log = self.interpose.recorded_log().memory_bytes();
        let types = self.types.len() as u64 * 64;
        let statics = self.statics.len() as u64 * 48;
        let sites = self.sites.len() as u64 * 48;
        let dyn_log = self.dyn_alloc_log.len() as u64 * 16;
        let libs = self.lib_objects.len() as u64 * 40;
        log + types + statics + sites + dyn_log + libs
    }
}

/// The execution environment handed to [`Program`] callbacks.
///
/// It binds together the kernel, the instance state, and the identity of the
/// currently-executing thread.
pub struct ProgramEnv<'a> {
    kernel: &'a mut Kernel,
    state: &'a mut InstanceState,
    pid: Pid,
    tid: Tid,
    thread_name: Rc<str>,
}

impl<'a> ProgramEnv<'a> {
    /// Creates an environment bound to thread `tid` of process `pid`.
    pub(crate) fn new(
        kernel: &'a mut Kernel,
        state: &'a mut InstanceState,
        pid: Pid,
        tid: Tid,
        thread_name: impl Into<Rc<str>>,
    ) -> Self {
        ProgramEnv { kernel, state, pid, tid, thread_name: thread_name.into() }
    }

    // ------------------------------------------------------------------
    // Identity and phase
    // ------------------------------------------------------------------

    /// The current thread's name.
    pub fn thread_name(&self) -> &str {
        &self.thread_name
    }

    /// Current simulated time in nanoseconds since boot.
    pub fn now_ns(&self) -> u64 {
        self.kernel.now().0
    }

    /// Charges `ns` nanoseconds of application work to the simulated clock.
    pub fn charge_work(&mut self, ns: u64) {
        self.kernel.advance_clock(mcr_procsim::SimDuration(ns));
        self.state.counters.charged_work_ns += ns;
    }

    /// Records that the program handled one external event.
    pub fn note_event_handled(&mut self) {
        self.state.counters.events_handled += 1;
    }

    // ------------------------------------------------------------------
    // Call-stack bookkeeping
    // ------------------------------------------------------------------

    /// Pushes a function frame on the current thread's call stack.
    pub(crate) fn enter_function(&mut self, name: &str) {
        if let Ok(p) = self.kernel.process_mut(self.pid) {
            if let Ok(t) = p.thread_mut(self.tid) {
                t.push_frame(name);
            }
        }
    }

    /// Pops the innermost function frame.
    pub(crate) fn exit_function(&mut self) {
        if let Ok(p) = self.kernel.process_mut(self.pid) {
            if let Ok(t) = p.thread_mut(self.tid) {
                t.pop_frame();
            }
        }
    }

    /// Runs `f` with `name` pushed on the call stack, popping it afterwards
    /// even on error.
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> McrResult<R>) -> McrResult<R> {
        self.enter_function(name);
        let out = f(self);
        self.exit_function();
        out
    }

    /// The current call-stack identifier of the executing thread.
    pub(crate) fn callstack_id(&self) -> CallStackId {
        self.kernel
            .process(self.pid)
            .and_then(|p| p.thread(self.tid))
            .map(|t| CallStackId::from_frames(t.call_stack()))
            .unwrap_or_else(|_| CallStackId::empty())
    }

    // ------------------------------------------------------------------
    // System calls (interposed)
    // ------------------------------------------------------------------

    /// Issues a system call through the MCR interposition layer.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors and replay conflicts.
    pub fn syscall(&mut self, call: Syscall) -> McrResult<SyscallRet> {
        let callstack = self.callstack_id();
        let InstanceState { interpose, annotations, startup_phase, .. } = &mut *self.state;
        interpose.handle(
            self.kernel,
            self.pid,
            self.tid,
            &self.thread_name,
            callstack,
            call,
            *startup_phase,
            annotations,
        )
    }

    /// Forks a child process of the given `kind` (e.g. `"worker"`).
    ///
    /// The child's program-level initialization runs later, when the runtime
    /// drains pending children and invokes [`Program::process_init`].
    ///
    /// # Errors
    ///
    /// Propagates fork failures and replay conflicts.
    pub fn fork(&mut self, kind: &str) -> McrResult<Pid> {
        let ret = self.syscall(Syscall::Fork)?;
        let virtual_child =
            ret.as_pid().ok_or_else(|| McrError::InvalidState("fork did not return a pid".into()))?;
        let actual_child = self.state.interpose.actual_pid(virtual_child);
        let child_main = self.kernel.process(actual_child).map_err(McrError::Sim)?.main_tid();
        self.state.processes.push(actual_child);
        let created_during_startup = self.state.startup_phase;
        self.state.add_roster_entry(ThreadRosterEntry {
            pid: actual_child,
            tid: child_main,
            name: format!("{kind}-main").into(),
            created_during_startup,
            exited: false,
        });
        self.state.pending_children.push(PendingChild {
            actual_pid: actual_child,
            virtual_pid: virtual_child,
            kind: kind.to_string(),
        });
        Ok(virtual_child)
    }

    /// Spawns an additional thread named `name` in the current process.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn spawn_thread(&mut self, name: &str) -> McrResult<Tid> {
        let ret = self.syscall(Syscall::SpawnThread { name: name.to_string() })?;
        let tid = match ret {
            SyscallRet::Tid(t) => t,
            other => return Err(McrError::InvalidState(format!("spawn_thread returned {other:?}"))),
        };
        let created_during_startup = self.state.startup_phase;
        self.state.add_roster_entry(ThreadRosterEntry {
            pid: self.pid,
            tid,
            name: name.into(),
            created_during_startup,
            exited: false,
        });
        Ok(tid)
    }

    // ------------------------------------------------------------------
    // Types and globals
    // ------------------------------------------------------------------

    /// Resolves a type name to its id.
    ///
    /// # Errors
    ///
    /// Returns [`McrError::UnknownMetadata`] for unregistered names.
    pub fn type_id(&self, name: &str) -> McrResult<TypeId> {
        self.state.types.lookup(name).ok_or_else(|| McrError::UnknownMetadata(format!("type {name}")))
    }

    /// Shared access to the per-version type registry.
    pub fn types(&self) -> &TypeRegistry {
        &self.state.types
    }

    /// Defines (and registers as a tracing root) a global variable of the
    /// given type, placing it in the static data region.
    ///
    /// # Errors
    ///
    /// Fails for unknown types or if the static region is exhausted.
    pub fn define_global(&mut self, symbol: &str, type_name: &str) -> McrResult<Addr> {
        let ty = self.type_id(type_name)?;
        let size = self.state.types.size_of(ty).max(1);
        self.place_global(symbol, ty, size)
    }

    /// Defines a global of explicit size with an opaque layout (e.g. a buffer
    /// owned by an uninstrumented library).
    ///
    /// # Errors
    ///
    /// Fails if the static region is exhausted.
    pub fn define_global_opaque(&mut self, symbol: &str, size: u64) -> McrResult<Addr> {
        let ty = self.state.types.register(format!("opaque[{size}]"), TypeKind::Opaque { size });
        self.place_global(symbol, ty, size)
    }

    fn place_global(&mut self, symbol: &str, ty: TypeId, size: u64) -> McrResult<Addr> {
        let layout = self.kernel.process(self.pid).map_err(McrError::Sim)?.layout();
        let aligned = self.state.static_bump.div_ceil(16) * 16;
        if aligned + size > layout.static_size {
            return Err(McrError::Sim(SimError::OutOfMemory { requested: size }));
        }
        let addr = layout.static_base.offset(aligned);
        self.state.static_bump = aligned + size;
        self.state.statics.register_root(symbol, addr, ty, size);
        Ok(addr)
    }

    /// Address of a previously defined global.
    ///
    /// # Errors
    ///
    /// Returns [`McrError::UnknownMetadata`] for unknown symbols.
    pub fn global_addr(&self, symbol: &str) -> McrResult<Addr> {
        self.state
            .statics
            .lookup(symbol)
            .map(|o| o.addr)
            .ok_or_else(|| McrError::UnknownMetadata(format!("global {symbol}")))
    }

    // ------------------------------------------------------------------
    // Heap, pool and library allocation
    // ------------------------------------------------------------------

    fn register_site(&mut self, site_name: &str, ty: Option<TypeId>) -> AllocSite {
        self.state.sites.register(site_name, ty)
    }

    fn note_dyn_alloc(&mut self, addr: Addr, size: u64) {
        if self.state.config.level.dynamic_tracking() {
            self.state.counters.dyn_tracked_allocs += 1;
            self.state.dyn_alloc_log.push((addr.0, size));
        }
    }

    /// Allocates a heap object of the given registered type.
    ///
    /// # Errors
    ///
    /// Fails for unknown types or an exhausted heap.
    pub fn alloc(&mut self, type_name: &str, site_name: &str) -> McrResult<Addr> {
        let ty = self.type_id(type_name)?;
        let size = self.state.types.size_of(ty).max(1);
        let site = self.register_site(site_name, Some(ty));
        let type_tag = if self.state.config.level.heap_instrumented() { TypeTag(ty.0) } else { TypeTag(0) };
        let proc = self.kernel.process_mut(self.pid).map_err(McrError::Sim)?;
        let (space, heap) = proc.space_and_heap_mut().map_err(McrError::Sim)?;
        let addr = heap.malloc(space, size, site, type_tag).map_err(McrError::Sim)?;
        self.note_dyn_alloc(addr, size);
        Ok(addr)
    }

    /// Allocates `size` raw heap bytes (no type information; tracing treats
    /// the chunk conservatively).
    ///
    /// # Errors
    ///
    /// Fails when the heap is exhausted.
    pub fn alloc_bytes(&mut self, size: u64, site_name: &str) -> McrResult<Addr> {
        let site = self.register_site(site_name, None);
        let proc = self.kernel.process_mut(self.pid).map_err(McrError::Sim)?;
        let (space, heap) = proc.space_and_heap_mut().map_err(McrError::Sim)?;
        let addr = heap.malloc(space, size, site, TypeTag(0)).map_err(McrError::Sim)?;
        self.note_dyn_alloc(addr, size);
        Ok(addr)
    }

    /// Creates a region/pool of `size` bytes (nginx pools, APR pools).
    ///
    /// # Errors
    ///
    /// Fails when the heap cannot back the pool.
    pub fn create_pool(&mut self, size: u64, parent: Option<PoolId>) -> McrResult<PoolId> {
        let proc = self.kernel.process_mut(self.pid).map_err(McrError::Sim)?;
        let (space, heap, regions) = proc.space_heap_regions_mut().map_err(McrError::Sim)?;
        regions.create_pool(space, heap, size, parent).map_err(McrError::Sim)
    }

    /// Allocates a typed object from a pool.
    ///
    /// # Errors
    ///
    /// Fails for unknown types, unknown pools or exhausted pools.
    pub fn palloc(&mut self, pool: PoolId, type_name: &str, site_name: &str) -> McrResult<Addr> {
        let ty = self.type_id(type_name)?;
        let size = self.state.types.size_of(ty).max(1);
        let site = self.register_site(site_name, Some(ty));
        let tag = TypeTag(ty.0);
        let proc = self.kernel.process_mut(self.pid).map_err(McrError::Sim)?;
        let (space, _, regions) = proc.space_heap_regions_mut().map_err(McrError::Sim)?;
        let addr = regions.palloc(space, pool, size, site, tag).map_err(McrError::Sim)?;
        self.note_dyn_alloc(addr, size);
        Ok(addr)
    }

    /// Allocates `size` bytes in the shared-library data region, modelling
    /// state owned by an (uninstrumented) library.
    ///
    /// # Errors
    ///
    /// Fails when the library region is exhausted.
    pub fn lib_alloc(&mut self, size: u64, name: &str) -> McrResult<Addr> {
        let layout = self.kernel.process(self.pid).map_err(McrError::Sim)?.layout();
        let aligned = self.state.lib_bump.div_ceil(16) * 16;
        if aligned + size > layout.lib_size {
            return Err(McrError::Sim(SimError::OutOfMemory { requested: size }));
        }
        let addr = layout.lib_base.offset(aligned);
        self.state.lib_bump = aligned + size;
        self.state.lib_objects.push((addr, size, name.into()));
        self.state.counters.lib_allocs += 1;
        self.note_dyn_alloc(addr, size);
        Ok(addr)
    }

    // ------------------------------------------------------------------
    // Typed memory access
    // ------------------------------------------------------------------

    /// Reads a 64-bit word from the current process's memory.
    ///
    /// # Errors
    ///
    /// Fails for unmapped addresses.
    pub fn read_u64(&self, addr: Addr) -> McrResult<u64> {
        self.kernel.process(self.pid).map_err(McrError::Sim)?.space().read_u64(addr).map_err(McrError::Sim)
    }

    /// Writes a 64-bit word into the current process's memory.
    ///
    /// # Errors
    ///
    /// Fails for unmapped or read-only addresses.
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> McrResult<()> {
        self.kernel
            .process_mut(self.pid)
            .map_err(McrError::Sim)?
            .space_mut()
            .write_u64(addr, value)
            .map_err(McrError::Sim)
    }

    /// Reads a 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails for unmapped addresses.
    pub fn read_u32(&self, addr: Addr) -> McrResult<u32> {
        self.kernel.process(self.pid).map_err(McrError::Sim)?.space().read_u32(addr).map_err(McrError::Sim)
    }

    /// Writes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails for unmapped or read-only addresses.
    pub fn write_u32(&mut self, addr: Addr, value: u32) -> McrResult<()> {
        self.kernel
            .process_mut(self.pid)
            .map_err(McrError::Sim)?
            .space_mut()
            .write_u32(addr, value)
            .map_err(McrError::Sim)
    }

    /// Reads a pointer-sized value as an address.
    ///
    /// # Errors
    ///
    /// Fails for unmapped addresses.
    pub fn read_ptr(&self, addr: Addr) -> McrResult<Addr> {
        Ok(Addr(self.read_u64(addr)?))
    }

    /// Writes an address as a pointer-sized value.
    ///
    /// # Errors
    ///
    /// Fails for unmapped or read-only addresses.
    pub fn write_ptr(&mut self, addr: Addr, value: Addr) -> McrResult<()> {
        self.write_u64(addr, value.0)
    }

    /// Writes raw bytes.
    ///
    /// # Errors
    ///
    /// Fails for unmapped or read-only ranges.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> McrResult<()> {
        self.kernel
            .process_mut(self.pid)
            .map_err(McrError::Sim)?
            .space_mut()
            .write_bytes(addr, bytes)
            .map_err(McrError::Sim)
    }

    // ------------------------------------------------------------------
    // Annotations (MCR_ADD_*)
    // ------------------------------------------------------------------

    /// Registers a state annotation (`MCR_ADD_OBJ_HANDLER`).
    pub fn add_obj_handler(&mut self, symbol: &str, treatment: ObjTreatment, loc: u64) {
        self.state.annotations.add_obj_handler(symbol, treatment, loc);
    }

    /// Registers a reinitialization handler (`MCR_ADD_REINIT_HANDLER`).
    pub fn add_reinit_handler(&mut self, name: &str, handler: ReinitHandler, loc: u64) {
        self.state.annotations.add_reinit_handler(name, handler, loc);
    }

    /// Registers a semantic state-transfer transform.
    pub fn add_transform(&mut self, name: &str, handler: TransformHandler) {
        self.state.annotations.add_transform(name, handler);
    }

    /// Accounts annotation lines that are plain source tweaks.
    pub fn note_annotation_loc(&mut self, loc: u64) {
        self.state.annotations.add_annotation_loc(loc);
    }
}

/// [`ProgramEnv`] conveniences that only the unit tests use.
#[cfg(test)]
pub(crate) mod test_support {
    use mcr_procsim::{Addr, Pid, PoolId, TypeTag};

    use super::ProgramEnv;
    use crate::error::{McrError, McrResult};

    /// Test-side extensions of [`ProgramEnv`].
    pub(crate) trait EnvExt {
        fn pid(&self) -> Pid;
        fn size_of(&self, type_name: &str) -> McrResult<u64>;
        fn free(&mut self, addr: Addr) -> McrResult<()>;
        fn palloc_bytes(&mut self, pool: PoolId, size: u64, site_name: &str) -> McrResult<Addr>;
        fn destroy_pool(&mut self, pool: PoolId) -> McrResult<()>;
    }

    impl EnvExt for ProgramEnv<'_> {
        /// The pid the *program* observes (old-version pid when replaying).
        fn pid(&self) -> Pid {
            self.state.interpose.virtual_pid(self.pid)
        }

        /// Size in bytes of a registered type.
        ///
        /// # Errors
        ///
        /// Returns [`McrError::UnknownMetadata`] for unregistered names.
        fn size_of(&self, type_name: &str) -> McrResult<u64> {
            let id = self.type_id(type_name)?;
            Ok(self.state.types.size_of(id))
        }

        /// Frees a heap object.
        ///
        /// # Errors
        ///
        /// Fails for addresses that are not live chunks.
        fn free(&mut self, addr: Addr) -> McrResult<()> {
            let proc = self.kernel.process_mut(self.pid).map_err(McrError::Sim)?;
            let (space, heap) = proc.space_and_heap_mut().map_err(McrError::Sim)?;
            heap.free(space, addr).map_err(McrError::Sim)
        }

        /// Allocates raw bytes from a pool.
        ///
        /// # Errors
        ///
        /// Fails for unknown or exhausted pools.
        fn palloc_bytes(&mut self, pool: PoolId, size: u64, site_name: &str) -> McrResult<Addr> {
            let site = self.register_site(site_name, None);
            let proc = self.kernel.process_mut(self.pid).map_err(McrError::Sim)?;
            let (space, _, regions) = proc.space_heap_regions_mut().map_err(McrError::Sim)?;
            let addr = regions.palloc(space, pool, size, site, TypeTag(0)).map_err(McrError::Sim)?;
            self.note_dyn_alloc(addr, size);
            Ok(addr)
        }

        /// Destroys a pool (and its children), releasing its storage.
        ///
        /// # Errors
        ///
        /// Fails for unknown pools.
        fn destroy_pool(&mut self, pool: PoolId) -> McrResult<()> {
            let proc = self.kernel.process_mut(self.pid).map_err(McrError::Sim)?;
            let (space, heap, regions) = proc.space_heap_regions_mut().map_err(McrError::Sim)?;
            regions.destroy_pool(space, heap, pool).map_err(McrError::Sim)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::test_support::EnvExt;
    use mcr_procsim::MemoryLayout;
    use mcr_typemeta::Field;

    fn setup() -> (Kernel, InstanceState, Pid, Tid) {
        let mut kernel = Kernel::new();
        let pid = kernel.create_process("tiny").unwrap();
        let tid = kernel.process(pid).unwrap().main_tid();
        kernel.process_mut(pid).unwrap().setup_memory(MemoryLayout::default(), true).unwrap();
        let mut state =
            InstanceState::new("tiny", "1.0", InstrumentationConfig::full(), Interposer::recorder());
        state.processes.push(pid);
        state.threads.push(ThreadRosterEntry {
            pid,
            tid,
            name: "main".into(),
            created_during_startup: true,
            exited: false,
        });
        let int = state.types.int("int", 4);
        let node = state.types.struct_type("node", vec![Field::new("value", int), Field::new("pad", int)]);
        let _ = node;
        (kernel, state, pid, tid)
    }

    #[test]
    fn globals_are_placed_and_registered() {
        let (mut kernel, mut state, pid, tid) = setup();
        let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
        let a = env.define_global("counter", "int").unwrap();
        let b = env.define_global("node0", "node").unwrap();
        assert_ne!(a, b);
        env.write_u32(a, 7).unwrap();
        assert_eq!(env.read_u32(a).unwrap(), 7);
        assert_eq!(env.global_addr("counter").unwrap(), a);
        assert!(env.global_addr("missing").is_err());
        assert_eq!(state.statics.len(), 2);
    }

    #[test]
    fn typed_and_raw_allocation_with_tags() {
        let (mut kernel, mut state, pid, tid) = setup();
        let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
        let typed = env.alloc("node", "test:node").unwrap();
        let raw = env.alloc_bytes(32, "test:raw").unwrap();
        assert_ne!(typed, raw);
        env.write_u64(typed, 42).unwrap();
        assert_eq!(env.read_u64(typed).unwrap(), 42);
        // Instrumented heap: the typed chunk carries the node type tag.
        let node_ty = state.types.lookup("node").unwrap();
        let proc = kernel.process(pid).unwrap();
        let info = proc.heap().unwrap().chunk_info(proc.space(), typed).unwrap();
        assert_eq!(info.type_tag.0, node_ty.0);
        let raw_info = proc.heap().unwrap().chunk_info(proc.space(), raw).unwrap();
        assert_eq!(raw_info.type_tag.0, 0);
        // Dynamic tracking recorded both allocations.
        assert_eq!(state.counters.dyn_tracked_allocs, 2);
        assert_eq!(state.dyn_alloc_log.len(), 2);
    }

    #[test]
    fn scoped_callstack_and_syscall_recording() {
        let (mut kernel, mut state, pid, tid) = setup();
        let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
        let fd = env
            .scoped("main", |env| {
                env.scoped("server_init", |env| Ok(env.syscall(Syscall::Socket)?.as_fd().unwrap()))
            })
            .unwrap();
        assert_eq!(fd.0, 0);
        // The call stack was popped back to empty.
        assert_eq!(env.callstack_id(), CallStackId::empty());
        let log = state.interpose.recorded_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].callstack, CallStackId::from_frames(&["main", "server_init"]));
    }

    #[test]
    fn fork_registers_roster_and_pending_child() {
        let (mut kernel, mut state, pid, tid) = setup();
        let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
        let child = env.scoped("main", |env| env.fork("worker")).unwrap();
        assert_eq!(state.processes.len(), 2);
        assert_eq!(state.pending_children.len(), 1);
        assert_eq!(state.pending_children[0].kind, "worker");
        assert_eq!(state.pending_children[0].virtual_pid, child);
        assert_eq!(state.threads.len(), 2);
        assert!(state.threads[1].name.starts_with("worker"));
    }

    #[test]
    fn spawn_thread_updates_roster() {
        let (mut kernel, mut state, pid, tid) = setup();
        let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
        let new_tid = env.spawn_thread("worker-1").unwrap();
        assert_ne!(new_tid, tid);
        assert!(state.roster_entry(pid, new_tid).is_some());
        assert_eq!(state.live_threads().count(), 2);
        state.mark_thread_exited(pid, new_tid);
        assert_eq!(state.live_threads().count(), 1);
    }

    #[test]
    fn pools_and_lib_allocations() {
        let (mut kernel, mut state, pid, tid) = setup();
        let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
        let pool = env.create_pool(4096, None).unwrap();
        let obj = env.palloc_bytes(pool, 64, "pool:obj").unwrap();
        env.write_u64(obj, 5).unwrap();
        let lib = env.lib_alloc(128, "libssl:ctx").unwrap();
        env.write_u64(lib, 9).unwrap();
        env.destroy_pool(pool).unwrap();
        assert!(env.size_of("int").unwrap() == 4);
        assert!(env.type_id("nope").is_err());
        assert_eq!(state.counters.lib_allocs, 1);
        assert_eq!(state.lib_objects.len(), 1);
    }

    #[test]
    fn metadata_bytes_reflect_activity() {
        let (mut kernel, mut state, pid, tid) = setup();
        let before = state.metadata_bytes();
        {
            let mut env = ProgramEnv::new(&mut kernel, &mut state, pid, tid, "main");
            env.scoped("main", |env| {
                env.syscall(Syscall::Socket)?;
                env.alloc_bytes(64, "m")?;
                Ok(())
            })
            .unwrap();
        }
        assert!(state.metadata_bytes() > before);
    }
}
