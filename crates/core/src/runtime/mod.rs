//! The MCR runtime: instance lifecycle, cooperative scheduling, the
//! quiescence barrier, and the staged live-update pipeline.
//!
//! The update path is organized as a pipeline of named phases (see
//! `pipeline`): [`live_update`] runs the phase sequence its options call
//! for, while [`UpdatePipeline`] lets callers inject faults at phase
//! boundaries, set a watchdog budget or install between-rounds hooks.

pub(crate) mod chaos;
pub(crate) mod controller;
pub(crate) mod pipeline;
pub(crate) mod report;
pub(crate) mod scheduler;
pub(crate) mod supervisor;

pub use chaos::{random_plan, shrink_schedule, ChaosPlan, ChaosRng, FaultCatalog, FaultSite};
pub use controller::{live_update, PrecopyOptions, TransferMode, UpdateOptions, UpdateOutcome};
pub use pipeline::{PhaseName, PrecopyHook, UpdatePipeline};
pub use report::{
    MemoryReport, PhaseRecord, PhaseTrace, PostcopySummary, PrecopySummary, UpdateReport, UpdateTimings,
};
pub use scheduler::{
    all_quiesced, boot, request_quiescence, resume, run_round, run_round_full_scan, run_rounds, step_thread,
    wait_quiescence, BootOptions, McrInstance, RoundStats,
};
pub use supervisor::{
    supervised_update, supervised_update_durable, time_to_recovery, AttemptSummary, DegradationTier,
    SupervisorPolicy,
};

/// Minimal MCR-enabled server programs used by the crate's own tests.
///
/// The full evaluation programs (Apache httpd, nginx, vsftpd, OpenSSH
/// models) live in the `mcr-servers` crate; these exist so the runtime can be
/// tested without a dependency cycle.
#[cfg(test)]
pub(crate) mod testprog {
    use crate::program::test_support::EnvExt;
    use mcr_procsim::{Addr, Fd, SimError, Syscall};
    use mcr_typemeta::{Field, TypeRegistry};

    use crate::error::{McrError, McrResult};
    use crate::program::{Program, ProgramEnv, StepOutcome, WaitInterest};

    /// A single-threaded, event-driven server in the shape of Listing 1:
    /// it listens on port 8080, reads a configuration file at startup, and
    /// appends one `l_t` node per handled connection to a global list.
    pub(crate) struct TinyServer {
        generation: u32,
        version: String,
        listen_fd: Option<Fd>,
        list_global: Option<Addr>,
    }

    impl TinyServer {
        /// Creates generation `generation` of the server (generation 2 and
        /// later add a `new` field to `l_t`, as in Figure 2).
        pub(crate) fn new(generation: u32) -> Self {
            TinyServer { generation, version: format!("{generation}.0"), listen_fd: None, list_global: None }
        }
    }

    impl Program for TinyServer {
        fn name(&self) -> &str {
            "tinyd"
        }

        fn version(&self) -> &str {
            &self.version
        }

        fn register_types(&mut self, types: &mut TypeRegistry) {
            let int = types.int("int", 4);
            let conf = types.struct_type("conf_s", vec![Field::new("workers", int), Field::new("port", int)]);
            let _ = types.pointer("conf_s*", conf);
            let fwd = types.opaque("l_t_fwd", 16);
            let node_ptr = types.pointer("l_t*", fwd);
            let mut fields = vec![Field::new("value", int)];
            if self.generation >= 2 {
                fields.push(Field::new("new", int));
            }
            fields.push(Field::new("next", node_ptr));
            let _ = types.struct_type("l_t", fields);
        }

        fn startup(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<()> {
            env.scoped("server_init", |env| {
                let fd = env
                    .syscall(Syscall::Socket)?
                    .as_fd()
                    .ok_or_else(|| McrError::InvalidState("socket returned no fd".into()))?;
                env.syscall(Syscall::Bind { fd, port: 8080 })?;
                env.syscall(Syscall::Listen { fd })?;
                let conf_fd = env
                    .syscall(Syscall::Open { path: "/etc/tiny.conf".into(), create: false })?
                    .as_fd()
                    .ok_or_else(|| McrError::InvalidState("open returned no fd".into()))?;
                let _config = env.syscall(Syscall::Read { fd: conf_fd, len: 64 })?;
                env.syscall(Syscall::Close { fd: conf_fd })?;

                let conf_global = env.define_global("conf", "conf_s*")?;
                let conf = env.alloc("conf_s", "server_init:conf")?;
                env.write_u32(conf, 2)?;
                env.write_u32(conf.offset(4), 8080)?;
                env.write_ptr(conf_global, conf)?;
                let list_global = env.define_global("list", "l_t")?;
                env.write_u32(list_global, 0)?;

                self.listen_fd = Some(fd);
                self.list_global = Some(list_global);
                Ok(())
            })
        }

        fn thread_step(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
            let fd = self.listen_fd.ok_or_else(|| McrError::InvalidState("server not started".into()))?;
            let list_global =
                self.list_global.ok_or_else(|| McrError::InvalidState("server not started".into()))?;
            match env.syscall(Syscall::Accept { fd }) {
                Err(McrError::Sim(SimError::WouldBlock)) => Ok(StepOutcome::WouldBlock {
                    call: "accept",
                    loop_name: "main_loop",
                    wait: WaitInterest::Fd(fd),
                }),
                Err(e) => Err(e),
                Ok(ret) => {
                    let conn_fd =
                        ret.as_fd().ok_or_else(|| McrError::InvalidState("accept returned no fd".into()))?;
                    // Read the request (it may not have arrived yet).
                    let _ = env.syscall(Syscall::Read { fd: conn_fd, len: 1024 });
                    let reply = format!("hello from v{}", self.generation).into_bytes();
                    env.syscall(Syscall::Write { fd: conn_fd, data: reply })?;
                    // Record the connection in the global list.
                    let node = env.alloc("l_t", "handle_event:node")?;
                    let next_off = env.size_of("l_t")? - 8;
                    env.write_u32(node, conn_fd.0 as u32)?;
                    let old_head = env.read_ptr(list_global.offset(8))?;
                    env.write_ptr(node.offset(next_off), old_head)?;
                    env.write_ptr(list_global.offset(8), node)?;
                    env.note_event_handled();
                    env.charge_work(5_000);
                    Ok(StepOutcome::Progress)
                }
            }
        }
    }

    /// A broken new version used to exercise rollback paths.
    pub(crate) struct FaultyServer {
        omit_listen: bool,
        abort_startup: bool,
    }

    impl FaultyServer {
        /// A version whose startup forgets to call `listen()` (an omitted
        /// replay entry).
        pub(crate) fn omitting_listen() -> Self {
            FaultyServer { omit_listen: true, abort_startup: false }
        }

        /// A version whose startup aborts outright.
        pub(crate) fn aborting() -> Self {
            FaultyServer { omit_listen: false, abort_startup: true }
        }
    }

    impl Program for FaultyServer {
        fn name(&self) -> &str {
            "tinyd"
        }

        fn version(&self) -> &str {
            "9.9-broken"
        }

        fn register_types(&mut self, types: &mut TypeRegistry) {
            let int = types.int("int", 4);
            let conf = types.struct_type("conf_s", vec![Field::new("workers", int), Field::new("port", int)]);
            let _ = types.pointer("conf_s*", conf);
        }

        fn startup(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<()> {
            env.scoped("server_init", |env| {
                if self.abort_startup {
                    return Err(McrError::Sim(SimError::Aborted("detected another running instance".into())));
                }
                let fd = env
                    .syscall(Syscall::Socket)?
                    .as_fd()
                    .ok_or_else(|| McrError::InvalidState("socket returned no fd".into()))?;
                env.syscall(Syscall::Bind { fd, port: 8080 })?;
                if !self.omit_listen {
                    env.syscall(Syscall::Listen { fd })?;
                }
                let conf_fd = env
                    .syscall(Syscall::Open { path: "/etc/tiny.conf".into(), create: false })?
                    .as_fd()
                    .ok_or_else(|| McrError::InvalidState("open returned no fd".into()))?;
                let _ = env.syscall(Syscall::Read { fd: conf_fd, len: 64 })?;
                env.syscall(Syscall::Close { fd: conf_fd })?;
                let conf_global = env.define_global("conf", "conf_s*")?;
                let conf = env.alloc("conf_s", "server_init:conf")?;
                env.write_ptr(conf_global, conf)?;
                Ok(())
            })
        }

        fn thread_step(&mut self, _env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
            Ok(StepOutcome::WouldBlock {
                call: "accept",
                loop_name: "main_loop",
                wait: WaitInterest::External,
            })
        }
    }
}
