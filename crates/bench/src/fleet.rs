//! A fleet-scale server model: one thread per connection, almost all idle.
//!
//! [`FleetServer`] is the workload behind `benches/fleet_latency.rs` and the
//! scheduler's scaling test in `tests/properties.rs`: a single process whose
//! main thread accepts every pending connection and hands connection *i* to
//! dedicated reader thread `conn-i`. Each reader parks on its own connection
//! object, so with an event-driven scheduler a round in which only k
//! connections receive data costs O(k) thread steps — while the full scan
//! pays one step per thread per round regardless. This is the
//! mostly-idle-sessions regime the DBMS live-patching and CheckSync studies
//! evaluate quiesce/checkpoint cost under.
//!
//! # Sessions survive live updates
//!
//! The slot → descriptor map is mirrored in simulated memory (`fd + 1` per
//! 4-byte slot, 0 = empty): a `conn_fds` pointer global names a
//! heap-allocated session table sized for the fleet. Descriptor numbers are
//! transferred verbatim by the update pipeline, the table is migrated (and
//! its pointer relocated) by state transfer, so the *new* program version
//! looks its sessions up from transferred memory and keeps serving them —
//! which is what lets the latency bench measure request tails *through* an
//! update. The table lives on the heap (16MB, ~4M slots) rather than in the
//! 1MB static region, so large-fleet chaos campaigns don't silently cap at
//! ~262k surviving sessions; accessors re-read the table pointer through
//! the global on every access, because state transfer rewrites it.

use mcr_core::error::{McrError, McrResult};
use mcr_core::program::{InstanceState, Program, ProgramEnv, StepOutcome, WaitInterest};
use mcr_procsim::{Addr, Fd, Kernel, SimDuration, SimError, Syscall};
use mcr_typemeta::TypeRegistry;

/// TCP port the fleet server listens on.
pub const FLEET_PORT: u16 = 9000;

/// A single-process server with one reader thread per connection.
pub struct FleetServer {
    sessions: usize,
    version: String,
    listen_fd: Option<Fd>,
    /// Connection slot → descriptor, filled by the acceptor in arrival order.
    conns: Vec<Option<Fd>>,
    /// Address of the `conn_fds` pointer global naming the heap-allocated
    /// session table (`None` when the fleet exceeds even the heap's capacity
    /// — such fleets still serve, their sessions just do not survive an
    /// update). The table base is deliberately *not* cached here: state
    /// transfer rewrites the pointer, so accessors dereference the global on
    /// every access.
    conn_fds: Option<Addr>,
    accepted: usize,
}

impl FleetServer {
    /// Creates a server that will host `sessions` reader threads.
    pub fn new(sessions: usize) -> Self {
        Self::with_version(sessions, 1)
    }

    /// Creates a specific version of the server (the update target passes a
    /// higher version; the session logic is identical).
    pub fn with_version(sessions: usize, version: u32) -> Self {
        FleetServer {
            sessions,
            version: format!("{version}.0"),
            listen_fd: None,
            conns: vec![None; sessions],
            conn_fds: None,
            accepted: 0,
        }
    }

    /// Resolves the session-table base by dereferencing the `conn_fds`
    /// pointer global. Re-read on every access: after a live update the
    /// global holds the *relocated* address of the transferred table, and a
    /// Rust-side cache of the startup-time allocation would be stale.
    fn table_base(&self, env: &mut ProgramEnv<'_>) -> Option<Addr> {
        let global = self.conn_fds?;
        let base = env.read_ptr(global).ok()?;
        (base.0 != 0).then_some(base)
    }

    /// Resolves a slot's descriptor: the in-struct cache first, then the
    /// heap table behind the `conn_fds` global (the path a freshly updated
    /// version takes — its cache is empty but the transferred memory still
    /// names every fd).
    fn slot_fd(&mut self, env: &mut ProgramEnv<'_>, slot: usize) -> Option<Fd> {
        if let Some(fd) = self.conns.get(slot).copied().flatten() {
            return Some(fd);
        }
        let base = self.table_base(env)?;
        let raw = env.read_u32(base.offset(4 * slot as u64)).ok()?;
        if raw == 0 {
            return None;
        }
        let fd = Fd(raw as i32 - 1);
        if slot >= self.conns.len() {
            self.conns.resize(slot + 1, None);
        }
        self.conns[slot] = Some(fd);
        Some(fd)
    }

    /// Records `fd` for `slot` in the cache and the `conn_fds` global.
    fn set_slot_fd(&mut self, env: &mut ProgramEnv<'_>, slot: usize, fd: Fd) -> McrResult<()> {
        if slot >= self.conns.len() {
            self.conns.resize(slot + 1, None);
        }
        self.conns[slot] = Some(fd);
        if let Some(base) = self.table_base(env) {
            env.write_u32(base.offset(4 * slot as u64), fd.0 as u32 + 1)?;
        }
        Ok(())
    }

    /// Drains the whole backlog, assigning descriptors to slots in arrival
    /// order, then parks on the listener.
    fn accept_all(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
        let fd = self.listen_fd.ok_or_else(|| McrError::InvalidState("server not started".into()))?;
        let mut new_conns = 0usize;
        loop {
            match env.syscall(Syscall::Accept { fd }) {
                Err(McrError::Sim(SimError::WouldBlock)) => break,
                Err(e) => return Err(e),
                Ok(ret) => {
                    let conn_fd =
                        ret.as_fd().ok_or_else(|| McrError::InvalidState("accept returned no fd".into()))?;
                    let slot = self.accepted;
                    self.set_slot_fd(env, slot, conn_fd)?;
                    self.accepted += 1;
                    new_conns += 1;
                }
            }
        }
        if new_conns > 0 {
            Ok(StepOutcome::Progress)
        } else {
            Ok(StepOutcome::WouldBlock {
                call: "accept",
                loop_name: "accept_loop",
                wait: WaitInterest::Fd(fd),
            })
        }
    }

    fn session_step(&mut self, env: &mut ProgramEnv<'_>, slot: usize) -> McrResult<StepOutcome> {
        let Some(fd) = self.slot_fd(env, slot) else {
            // Connection not accepted yet: retry on a short timer instead of
            // being re-polled every round.
            return Ok(StepOutcome::WouldBlock {
                call: "read",
                loop_name: "session_loop",
                wait: WaitInterest::Timer(SimDuration(50_000)),
            });
        };
        match env.syscall(Syscall::Read { fd, len: 4096 }) {
            Err(McrError::Sim(SimError::WouldBlock)) => Ok(StepOutcome::WouldBlock {
                call: "read",
                loop_name: "session_loop",
                wait: WaitInterest::Fd(fd),
            }),
            Err(e) => Err(e),
            Ok(mcr_procsim::SyscallRet::Data(data)) if data.is_empty() => {
                let _ = env.syscall(Syscall::Close { fd });
                Ok(StepOutcome::Exit)
            }
            Ok(mcr_procsim::SyscallRet::Data(data)) => {
                let reply = format!("fleet ack {} bytes", data.len());
                env.syscall(Syscall::Write { fd, data: reply.into_bytes() })?;
                env.charge_work(1_000);
                env.note_event_handled();
                Ok(StepOutcome::Progress)
            }
            Ok(_) => Ok(StepOutcome::Progress),
        }
    }
}

impl Program for FleetServer {
    fn name(&self) -> &str {
        "fleetd"
    }

    fn version(&self) -> &str {
        &self.version
    }

    fn register_types(&mut self, types: &mut TypeRegistry) {
        let _ = types.int("int", 4);
        // The session table: one u32 per slot, sized for the whole fleet.
        let table = types.opaque("conn_fd_table", 4 * self.sessions.max(1) as u64);
        let _ = types.pointer("conn_fd_table*", table);
    }

    fn startup(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<()> {
        let sessions = self.sessions;
        env.scoped("server_init", |env| {
            let fd = env
                .syscall(Syscall::Socket)?
                .as_fd()
                .ok_or_else(|| McrError::InvalidState("socket returned no fd".into()))?;
            env.syscall(Syscall::Bind { fd, port: FLEET_PORT })?;
            env.syscall(Syscall::Listen { fd })?;
            self.listen_fd = Some(fd);
            // The update-surviving session map: a heap-allocated table of 4
            // bytes per slot, reached through a pointer global so state
            // transfer can relocate it. Fleets beyond the heap's capacity
            // simply skip the mirror (they still serve; only update survival
            // is lost).
            self.conn_fds = (|| {
                let global = env.define_global("conn_fds", "conn_fd_table*")?;
                let table = env.alloc("conn_fd_table", "server_init:conn_fd_table")?;
                env.write_ptr(global, table)?;
                McrResult::Ok(global)
            })()
            .ok();
            env.scoped("spawn_sessions", |env| {
                for i in 0..sessions {
                    env.spawn_thread(&format!("conn-{i}"))?;
                }
                Ok(())
            })
        })
    }

    fn thread_step(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
        match env.thread_name() {
            "main" => self.accept_all(env),
            name => match name.strip_prefix("conn-").and_then(|s| s.parse::<usize>().ok()) {
                Some(slot) => self.session_step(env, slot),
                None => Ok(StepOutcome::WouldBlock {
                    call: "poll",
                    loop_name: "idle_loop",
                    wait: WaitInterest::External,
                }),
            },
        }
    }

    /// The connection table: `slot<i>` = its `fd + 1` for every occupied
    /// slot, read through the `conn_fds` global.
    fn audit(&self, kernel: &Kernel, state: &InstanceState) -> Option<Vec<(String, u64)>> {
        let space = kernel.process(*state.processes.first()?).ok()?.space();
        let global = state.statics.lookup("conn_fds")?;
        let table = Addr(space.read_u64(global.addr).ok()?);
        let len = state.types.size_of(state.types.lookup("conn_fd_table")?);
        let bytes = space.read_bytes(table, len as usize).ok()?;
        let slots = bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
        Some(
            slots
                .enumerate()
                .filter(|&(_, raw)| raw != 0)
                .map(|(i, raw)| (format!("slot{i:08}"), u64::from(raw)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_core::runtime::{all_quiesced, boot, run_round, run_rounds, wait_quiescence, BootOptions};
    use mcr_procsim::Kernel;

    fn fleet(sessions: usize) -> (Kernel, mcr_core::McrInstance) {
        let mut kernel = Kernel::new();
        let mut instance =
            boot(&mut kernel, Box::new(FleetServer::new(sessions)), &BootOptions::default()).unwrap();
        let conns: Vec<_> = (0..sessions).map(|_| kernel.client_connect(FLEET_PORT).unwrap()).collect();
        run_rounds(&mut kernel, &mut instance, 2).unwrap();
        assert!(conns.iter().all(|&c| kernel.client_is_accepted(c)));
        (kernel, instance)
    }

    #[test]
    fn fleet_setup_parks_one_reader_per_connection() {
        let (kernel, _instance) = fleet(32);
        // 32 readers on their connections plus the acceptor on the listener.
        assert_eq!(kernel.waiting_thread_count(), 33);
    }

    #[test]
    fn active_rounds_cost_scales_with_active_sessions() {
        let (mut kernel, mut instance) = fleet(64);
        let active = [3usize, 17, 40];
        for &slot in &active {
            let conn = mcr_procsim::ConnId(slot as u64 + 1);
            kernel.client_send(conn, b"ping".to_vec()).unwrap();
        }
        let stats = run_round(&mut kernel, &mut instance).unwrap();
        assert_eq!(stats.woken, active.len());
        assert_eq!(stats.progressed, active.len());
        assert!(stats.steps() <= 2 * active.len(), "cost is O(active), got {}", stats.steps());
    }

    #[test]
    fn timer_parked_reader_recovers_after_late_accept() {
        // Regression: a reader whose slot is not yet assigned parks on a
        // retry timer. Once the acceptor assigns the slot, the idle
        // scheduler must advance the virtual clock to the timer's deadline
        // (firing the retry) instead of sleeping forever and losing the
        // client's data.
        let mut kernel = Kernel::new();
        let mut instance = boot(&mut kernel, Box::new(FleetServer::new(2)), &BootOptions::default()).unwrap();
        // Only one client connects: reader conn-1 parks on its slot-retry
        // timer.
        let first = kernel.client_connect(FLEET_PORT).unwrap();
        run_rounds(&mut kernel, &mut instance, 2).unwrap();
        assert!(kernel.client_is_accepted(first));
        // A second client connects (the acceptor assigns slot 1), then
        // sends data on it.
        let second = kernel.client_connect(FLEET_PORT).unwrap();
        run_round(&mut kernel, &mut instance).unwrap();
        assert!(kernel.client_is_accepted(second));
        kernel.client_send(second, b"late ping".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut instance, 2).unwrap();
        assert_eq!(instance.state.counters.events_handled, 1, "timer retry discovered the slot");
        assert!(kernel.client_recv(second).is_some(), "the late session was served");
    }

    #[test]
    fn fleet_quiesces_at_the_barrier() {
        let (mut kernel, mut instance) = fleet(16);
        wait_quiescence(&mut kernel, &mut instance, 10).unwrap();
        assert!(all_quiesced(&kernel, &instance));
    }

    #[test]
    fn conn_fds_table_is_heap_allocated_and_outgrows_the_static_region() {
        // 300k sessions need a ~1.2MB table — more than the whole 1MB
        // static region the map used to live in. Boot only (the table is
        // allocated during startup); no clients, no rounds.
        let sessions = 300_000;
        let mut kernel = Kernel::new();
        let _instance =
            boot(&mut kernel, Box::new(FleetServer::new(sessions)), &BootOptions::default()).unwrap();
        let pid = kernel.pids()[0];
        let proc = kernel.process(pid).unwrap();
        let layout = proc.layout();
        // `conn_fds` is the first global the server defines, so the pointer
        // global sits at the base of the static region; the table it names
        // must be a heap address.
        let table = proc.space().read_u64(layout.static_base).unwrap();
        assert!(
            table >= layout.heap_base.0,
            "session table at {table:#x} should be on the heap (>= {:#x})",
            layout.heap_base.0
        );
        let end = proc.space().read_u32(mcr_procsim::Addr(table).offset(4 * (sessions as u64 - 1)));
        assert!(end.is_ok(), "the full {sessions}-slot table is mapped");
    }

    #[test]
    fn sessions_survive_a_live_update_via_the_conn_fds_global() {
        use mcr_core::runtime::{live_update, UpdateOptions};
        use mcr_typemeta::InstrumentationConfig;

        let (mut kernel, mut v1) = fleet(8);
        let conn = mcr_procsim::ConnId(4);
        kernel.client_send(conn, b"before".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut v1, 2).unwrap();
        assert!(kernel.client_recv(conn).is_some(), "served before the update");
        let before = v1.audit(&kernel).expect("the fleet audits its connection table");
        assert_eq!(before.len(), 8, "one fact per accepted session");

        let (mut v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(FleetServer::with_version(8, 2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "update commits: {:?}", outcome.conflicts());
        assert_eq!(v2.audit(&kernel), Some(before), "the connection table survived");

        // The new version's reader recovers the descriptor from transferred
        // memory and keeps serving the same connection.
        kernel.client_send(conn, b"after".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut v2, 3).unwrap();
        let reply = kernel.client_recv(conn).expect("served across the update");
        assert!(String::from_utf8_lossy(&reply).contains("fleet ack"));
        assert_eq!(v2.state.counters.events_handled, 1);
    }

    #[test]
    fn chained_fleet_updates_replay_every_startup_call() {
        use mcr_core::runtime::{live_update, UpdateOptions};
        use mcr_typemeta::InstrumentationConfig;

        // Startup is socket + bind + listen + one spawn per session, all
        // replayed from the log. The second update replays against the log
        // the first update's replay re-recorded.
        let sessions = 2_000;
        let (mut kernel, mut instance) = fleet(sessions);
        for version in 2..=3 {
            let next = Box::new(FleetServer::with_version(sessions, version));
            let (survivor, outcome) = live_update(
                &mut kernel,
                instance,
                next,
                InstrumentationConfig::full(),
                &UpdateOptions::default(),
            );
            assert!(outcome.is_committed(), "update to v{version} commits: {:?}", outcome.conflicts());
            let replay = outcome.report().replay;
            assert_eq!(replay.replayed, sessions as u64 + 3, "v{version}");
            assert_eq!(replay.executed_live, 0, "v{version}");
            instance = survivor;
        }
        assert_eq!(instance.state.interpose.recorded_log().len(), sessions + 3);
    }
}
