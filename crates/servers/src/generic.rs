//! The configurable server program used to model all four evaluation
//! programs.
//!
//! `GenericServer` implements [`Program`] once; a [`ServerSpec`] selects the
//! process model, allocator family and idioms that distinguish Apache httpd,
//! nginx, vsftpd and the OpenSSH daemon. The *generation* number selects the
//! release: later generations change data-structure layouts (new fields in
//! the connection and configuration records), the response banner and the
//! startup behaviour, which is exactly the class of change MCR must handle.

use mcr_core::error::{McrError, McrResult};
use mcr_core::program::{InstanceState, Program, ProgramEnv, StepOutcome, WaitInterest};
use mcr_core::ObjTreatment;
use mcr_procsim::{Addr, Fd, Kernel, PoolId, SimDuration, SimError, Syscall};
use mcr_typemeta::{Field, TypeRegistry};

use crate::audit_fields;
use crate::spec::{AllocatorModel, ProcessModel, ServerSpec};

/// A simulated MCR-enabled server program built from a [`ServerSpec`].
pub struct GenericServer {
    spec: ServerSpec,
    generation: u32,
    version: String,
    listen_fd: Option<Fd>,
    main_pool: Option<PoolId>,
    request_pool: Option<PoolId>,
}

impl GenericServer {
    /// Creates generation `generation` (1-based) of the program described by
    /// `spec`.
    pub fn new(spec: ServerSpec, generation: u32) -> Self {
        let version = spec.version_string(generation);
        GenericServer { spec, generation, version, listen_fd: None, main_pool: None, request_pool: None }
    }

    fn blocking_call(&self) -> &'static str {
        match self.spec.allocator {
            AllocatorModel::Pools => "epoll_wait",
            AllocatorModel::NestedPools => "accept",
            AllocatorModel::Malloc => "accept",
        }
    }

    // ------------------------------------------------------------------
    // Request handling
    // ------------------------------------------------------------------

    /// Counts one answered request of `bytes` in the `stats` global and
    /// returns how many it counted before.
    fn count_request(env: &mut ProgramEnv<'_>, bytes: u64) -> McrResult<u64> {
        let stats = env.global_addr("stats")?;
        let requests = env.read_u64(stats)?;
        env.write_u64(stats, requests + 1)?;
        let total = env.read_u64(stats.offset(8))?;
        env.write_u64(stats.offset(8), total + bytes)?;
        env.note_event_handled();
        Ok(requests)
    }

    fn record_connection(&mut self, env: &mut ProgramEnv<'_>, conn_fd: Fd, bytes: u64) -> McrResult<()> {
        let conn_ty = env.type_id("conn_s")?;
        let next_off = env
            .types()
            .field_offset(conn_ty, "next")
            .ok_or_else(|| McrError::UnknownMetadata("conn_s.next".into()))?;
        let node = match self.spec.allocator {
            AllocatorModel::Malloc => env.alloc("conn_s", "handle_conn:conn")?,
            AllocatorModel::Pools | AllocatorModel::NestedPools => {
                let pool = self
                    .request_pool
                    .or(self.main_pool)
                    .ok_or_else(|| McrError::InvalidState("no pool created".into()))?;
                env.palloc(pool, "conn_s", "pool_alloc:conn")?
            }
        };
        env.write_u32(node, conn_fd.0 as u32)?;
        env.write_u32(node.offset(4), 1)?;
        if let Some(off) = env.types().field_offset(conn_ty, "bytes") {
            env.write_u64(node.offset(off), bytes)?;
        }
        if let Some(off) = env.types().field_offset(conn_ty, "started_at") {
            env.write_u64(node.offset(off), env.now_ns())?;
        }
        // Push onto the global connection list.
        let list = env.global_addr("conn_list")?;
        let head = env.read_ptr(list.offset(8))?;
        env.write_ptr(node.offset(next_off), head)?;
        env.write_ptr(list.offset(8), node)?;
        let count = env.read_u32(list)?;
        env.write_u32(list, count + 1)?;
        let requests = Self::count_request(env, bytes)?;
        // Type-unsafe idiom: occasionally stash the node pointer in an
        // untyped scratch buffer (a likely pointer even with full allocator
        // instrumentation, as the paper observes for vsftpd and OpenSSH).
        if self.spec.type_unsafe_idioms && requests.is_multiple_of(4) {
            let buf = env.global_addr("request_buf")?;
            env.write_u64(buf, node.0)?;
        }
        Ok(())
    }

    /// Answers whatever request bytes arrived on `conn_fd` (they may not
    /// have yet). Returns the reply's length and whether the request is a
    /// one-shot HTTP/1.0 request, one that names `HTTP/1.0` and asks for no
    /// `keep-alive`: httpd and nginx close such a connection after the reply.
    /// vsftpd and sshd speak no HTTP, so no request of theirs is one-shot.
    fn respond(&self, env: &mut ProgramEnv<'_>, conn_fd: Fd) -> McrResult<(u64, bool)> {
        let request = match env.syscall(Syscall::Read { fd: conn_fd, len: 4096 }) {
            Ok(mcr_procsim::SyscallRet::Data(d)) => d,
            _ => Vec::new(),
        };
        let names = |word: &[u8]| request.windows(word.len()).any(|w| w.eq_ignore_ascii_case(word));
        let one_shot = matches!(self.spec.process_model, ProcessModel::MasterWorker { .. })
            && names(b"HTTP/1.0")
            && !names(b"keep-alive");
        let request_len = request.len();
        let body = format!(
            "{} {} gen{} OK ({request_len} byte request)",
            self.spec.name, self.version, self.generation
        );
        let len = body.len() as u64;
        env.syscall(Syscall::Write { fd: conn_fd, data: body.into_bytes() })?;
        env.charge_work(2_000 + request_len as u64 * 4);
        Ok((len, one_shot))
    }

    /// Accepts one connection and answers it. A one-shot request is counted
    /// and its descriptor closed; any other connection is recorded in
    /// `conn_list` and, under process-per-connection, handed to a forked
    /// session process.
    fn accept(&mut self, env: &mut ProgramEnv<'_>, loop_name: &'static str) -> McrResult<StepOutcome> {
        let fd = self.listen_fd.ok_or_else(|| McrError::InvalidState("server not started".into()))?;
        let conn_fd = match env.syscall(Syscall::Accept { fd }) {
            Err(McrError::Sim(SimError::WouldBlock)) => {
                let call = self.blocking_call();
                return Ok(StepOutcome::WouldBlock { call, loop_name, wait: WaitInterest::Fd(fd) });
            }
            ret => ret?.as_fd().ok_or_else(|| McrError::InvalidState("accept returned no fd".into()))?,
        };
        let (bytes, one_shot) = self.respond(env, conn_fd)?;
        if one_shot {
            Self::count_request(env, bytes)?;
            env.syscall(Syscall::Close { fd: conn_fd })?;
            return Ok(StepOutcome::Progress);
        }
        self.record_connection(env, conn_fd, bytes)?;
        if self.spec.process_model == ProcessModel::ProcessPerConnection {
            // Hand the connection to a dedicated session process; the forked
            // child inherits the descriptor and finds its number in the
            // `session_fd` global (its private copy).
            let session_fd_g = env.global_addr("session_fd")?;
            env.write_u32(session_fd_g, conn_fd.0 as u32)?;
            env.scoped("spawn_session", |env| env.fork("session"))?;
        }
        Ok(StepOutcome::Progress)
    }

    fn session_step(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
        let session_fd_g = env.global_addr("session_fd")?;
        let fd = Fd(env.read_u32(session_fd_g)? as i32);
        if fd.0 < 0 {
            // The session descriptor has not been published yet: there is no
            // kernel object to wait on, so retry on a short timer instead of
            // polling every round.
            return Ok(StepOutcome::WouldBlock {
                call: "read",
                loop_name: "session_loop",
                wait: WaitInterest::Timer(SimDuration(10_000)),
            });
        }
        match env.syscall(Syscall::Read { fd, len: 4096 }) {
            Err(McrError::Sim(SimError::WouldBlock)) => Ok(StepOutcome::WouldBlock {
                call: "read",
                loop_name: "session_loop",
                wait: WaitInterest::Fd(fd),
            }),
            Err(McrError::Sim(SimError::BadFd(_))) => Ok(StepOutcome::Exit),
            Err(e) => Err(e),
            Ok(mcr_procsim::SyscallRet::Data(data)) if data.is_empty() => {
                // Peer closed: the session ends.
                let _ = env.syscall(Syscall::Close { fd });
                Ok(StepOutcome::Exit)
            }
            Ok(mcr_procsim::SyscallRet::Data(data)) => {
                let reply =
                    format!("{} session gen{}: {} bytes", self.spec.name, self.generation, data.len());
                env.syscall(Syscall::Write { fd, data: reply.into_bytes() })?;
                env.charge_work(1_500);
                env.note_event_handled();
                Ok(StepOutcome::Progress)
            }
            Ok(_) => Ok(StepOutcome::Progress),
        }
    }
}

impl Program for GenericServer {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn version(&self) -> &str {
        &self.version
    }

    fn register_types(&mut self, types: &mut TypeRegistry) {
        let int = types.int("int", 4);
        let long = types.int("long", 8);

        let mut conf_fields = vec![Field::new("workers", int), Field::new("port", int)];
        if self.generation >= 2 {
            conf_fields.push(Field::new("timeout", int));
        }
        if self.generation >= 4 {
            conf_fields.push(Field::new("max_clients", int));
        }
        let conf = types.struct_type("conf_s", conf_fields);
        let _ = types.pointer("conf_s*", conf);

        let conn_fwd = types.opaque("conn_fwd", 32);
        let conn_ptr = types.pointer("conn_s*", conn_fwd);
        let mut conn_fields =
            vec![Field::new("fd", int), Field::new("state", int), Field::new("bytes", long)];
        if self.generation >= 3 {
            conn_fields.push(Field::new("started_at", long));
        }
        conn_fields.push(Field::new("next", conn_ptr));
        let _ = types.struct_type("conn_s", conn_fields);

        let _ = types.struct_type(
            "conn_list_s",
            vec![Field::new("count", int), Field::new("pad", int), Field::new("head", conn_ptr)],
        );

        let mut stats_fields = vec![Field::new("requests", long), Field::new("bytes", long)];
        if self.generation >= 2 {
            stats_fields.push(Field::new("errors", long));
        }
        let _ = types.struct_type("stats_s", stats_fields);

        let ssl = types.opaque("ssl_ctx_s", 256);
        let _ = types.pointer("ssl_ctx_s*", ssl);
        let _ = types.ptr_sized_int("uintptr_t");

        // Startup-time document/configuration cache: a sizable block of state
        // that is initialized once and never modified afterwards, so that
        // dirty-object tracking has something to skip (the bulk of real
        // server state behaves this way, which is what makes the paper's
        // 68%-86% transfer reduction possible).
        let cache_entry = types.opaque("cache_entry_s", 4096);
        let cache_ptr = types.pointer("cache_entry_s*", cache_entry);
        let _ = types.array("cache_entry_s*[16]", cache_ptr, 16);
    }

    fn startup(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<()> {
        let spec = self.spec.clone();
        env.scoped("server_init", |env| {
            if spec.daemonize {
                env.scoped("daemonize", |env| env.spawn_thread("daemonize-helper"))?;
            }

            // Configuration.
            let conf_fd = env
                .scoped("read_config", |env| {
                    env.syscall(Syscall::Open { path: spec.config_path.clone(), create: false })
                })?
                .as_fd()
                .ok_or_else(|| McrError::InvalidState("open returned no fd".into()))?;
            let _config = env.syscall(Syscall::Read { fd: conf_fd, len: 256 })?;
            env.syscall(Syscall::Close { fd: conf_fd })?;

            // Listening socket.
            let fd = env.scoped("socket_setup", |env| {
                let fd = env
                    .syscall(Syscall::Socket)?
                    .as_fd()
                    .ok_or_else(|| McrError::InvalidState("socket returned no fd".into()))?;
                env.syscall(Syscall::Bind { fd, port: spec.port })?;
                env.syscall(Syscall::Listen { fd })?;
                Ok(fd)
            })?;
            self.listen_fd = Some(fd);

            // Global data structures.
            let conf_global = env.define_global("conf", "conf_s*")?;
            let conf = env.alloc("conf_s", "server_init:conf")?;
            env.write_u32(conf, 4)?;
            env.write_u32(conf.offset(4), u32::from(spec.port))?;
            env.write_ptr(conf_global, conf)?;
            let conn_list = env.define_global("conn_list", "conn_list_s")?;
            env.write_u32(conn_list, 0)?;
            let _stats = env.define_global("stats", "stats_s")?;
            let listen_fd_g = env.define_global("listen_fd_g", "int")?;
            env.write_u32(listen_fd_g, fd.0 as u32)?;
            let session_fd_g = env.define_global("session_fd", "int")?;
            env.write_u32(session_fd_g, u32::MAX)?;
            let _buf = env.define_global_opaque("request_buf", 64)?;

            // Startup-time document cache: initialized here, read-only
            // afterwards, so it is reinitialized by the new version's own
            // startup and skipped by dirty-object tracking.
            let cache_global = env.define_global("doc_cache", "cache_entry_s*[16]")?;
            for i in 0..16u64 {
                let entry = env.alloc("cache_entry_s", "server_init:doc_cache")?;
                env.write_bytes(entry, &[b'x'; 128])?;
                env.write_ptr(cache_global.offset(i * 8), entry)?;
            }

            // Shared-library state (uninstrumented).
            if spec.uses_lib_state {
                let ssl_global = env.define_global("ssl_ctx", "ssl_ctx_s*")?;
                let ssl = env.lib_alloc(256, "libssl:ssl_ctx")?;
                env.write_u64(ssl, 0x55AA_55AA)?;
                env.write_ptr(ssl_global, ssl)?;
            }

            // nginx-style encoded pointers: metadata lives in the low bits.
            if spec.pointer_encoding {
                let cycle_global = env.define_global("cycle", "uintptr_t")?;
                let cycle = env.alloc("conf_s", "ngx_init:cycle")?;
                env.write_u64(cycle_global, cycle.0 | 0b01)?;
                env.add_obj_handler("cycle", ObjTreatment::EncodedPointers { mask_bits: 2 });
            }

            // Custom allocators.
            match spec.allocator {
                AllocatorModel::Malloc => {}
                AllocatorModel::Pools => {
                    self.main_pool = Some(env.create_pool(256 * 1024, None)?);
                }
                AllocatorModel::NestedPools => {
                    let main = env.create_pool(256 * 1024, None)?;
                    self.main_pool = Some(main);
                    self.request_pool = Some(env.create_pool(128 * 1024, Some(main))?);
                }
            }

            // Worker processes.
            if let ProcessModel::MasterWorker { workers, .. } = spec.process_model {
                env.scoped("spawn_workers", |env| {
                    for _ in 0..workers {
                        env.fork("worker")?;
                    }
                    Ok(())
                })?;
            }
            Ok(())
        })
    }

    fn process_init(&mut self, env: &mut ProgramEnv<'_>, kind: &str) -> McrResult<()> {
        if kind != "worker" {
            return Ok(());
        }
        if let ProcessModel::MasterWorker { threads_per_worker, .. } = self.spec.process_model {
            env.scoped("worker_init", |env| {
                for i in 1..=threads_per_worker {
                    env.spawn_thread(&format!("worker-{i}"))?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    fn thread_step(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
        match env.thread_name() {
            name if name.starts_with("daemonize") => Ok(StepOutcome::Exit),
            name if name.starts_with("session") => self.session_step(env),
            "main" => match self.spec.process_model {
                ProcessModel::MasterWorker { .. } => Ok(StepOutcome::WouldBlock {
                    call: "sigsuspend",
                    loop_name: "master_loop",
                    wait: WaitInterest::External,
                }),
                ProcessModel::ProcessPerConnection => self.accept(env, "accept_loop"),
            },
            "worker-main" => match self.spec.process_model {
                ProcessModel::MasterWorker { threads_per_worker: 0, .. } => self.accept(env, "worker_loop"),
                _ => Ok(StepOutcome::WouldBlock {
                    call: "poll",
                    loop_name: "listener_loop",
                    wait: WaitInterest::External,
                }),
            },
            name if name.starts_with("worker-") => self.accept(env, "worker_loop"),
            _ => Ok(StepOutcome::WouldBlock {
                call: "poll",
                loop_name: "idle_loop",
                wait: WaitInterest::External,
            }),
        }
    }

    /// Per process `p<i>` (its index in the instance): the configuration
    /// record behind `conf`, the connection list's header and every live
    /// connection record in list order (`conn<j>`), and the request
    /// statistics. nginx's encoded `cycle` is left out: a worker's copy
    /// keeps the old version's address across an update
    /// (`nginx_worker_cycle_keeps_the_old_address_across_an_update`).
    fn audit(&self, kernel: &Kernel, state: &InstanceState) -> Option<Vec<(String, u64)>> {
        let types = &state.types;
        let global = |symbol: &str| state.statics.lookup(symbol);
        let conf_ty = types.lookup("conf_s")?;
        let conn_ty = types.lookup("conn_s")?;
        let next_off = types.field_offset(conn_ty, "next")?;
        let (conf, list, stats) = (global("conf")?, global("conn_list")?, global("stats")?);
        let head_off = types.field_offset(list.ty, "head")?;
        let count_off = types.field_offset(list.ty, "count")?;
        let mut facts = Vec::new();
        for (i, &pid) in state.processes.iter().enumerate() {
            let space = kernel.process(pid).ok()?.space();
            let conf_at = Addr(space.read_u64(conf.addr).ok()?);
            audit_fields(space, types, conf_ty, conf_at, &format!("p{i}.conf"), &mut facts)?;
            audit_fields(space, types, list.ty, list.addr, &format!("p{i}.conn_list"), &mut facts)?;
            // The list holds exactly `count` records; one that runs past
            // them (a cycle, say) is not auditable.
            let mut node = Addr(space.read_u64(list.addr.offset(head_off)).ok()?);
            for j in 0..space.read_u32(list.addr.offset(count_off)).ok()? {
                if node.is_null() {
                    return None;
                }
                audit_fields(space, types, conn_ty, node, &format!("p{i}.conn{j:04}"), &mut facts)?;
                node = Addr(space.read_u64(node.offset(next_off)).ok()?);
            }
            if !node.is_null() {
                return None;
            }
            audit_fields(space, types, stats.ty, stats.addr, &format!("p{i}.stats"), &mut facts)?;
        }
        facts.sort();
        Some(facts)
    }
}

/// Convenience constructors for the four evaluation programs.
pub mod programs {
    use super::GenericServer;
    use crate::spec::ServerSpec;

    /// Apache httpd, generation `generation`.
    pub fn httpd(generation: u32) -> GenericServer {
        GenericServer::new(ServerSpec::httpd(), generation)
    }

    /// nginx, generation `generation`.
    pub fn nginx(generation: u32) -> GenericServer {
        GenericServer::new(ServerSpec::nginx(), generation)
    }

    /// vsftpd, generation `generation`.
    pub fn vsftpd(generation: u32) -> GenericServer {
        GenericServer::new(ServerSpec::vsftpd(), generation)
    }

    /// The OpenSSH daemon, generation `generation`.
    pub fn sshd(generation: u32) -> GenericServer {
        GenericServer::new(ServerSpec::sshd(), generation)
    }
}

#[cfg(test)]
mod tests {
    use super::programs::*;
    use mcr_core::runtime::{boot, live_update, run_round, run_rounds, BootOptions, UpdateOptions};
    use mcr_core::{McrInstance, QuiescenceProfiler};
    use mcr_procsim::{Addr, ConnId, Kernel};
    use mcr_typemeta::InstrumentationConfig;

    fn kernel_with_files() -> Kernel {
        let mut kernel = Kernel::new();
        for path in ["/etc/httpd.conf", "/etc/nginx.conf", "/etc/vsftpd.conf", "/etc/sshd_config"] {
            kernel.add_file(path, b"workers=2\nloglevel=info\n".to_vec());
        }
        kernel
    }

    /// Serves `n` keep-alive requests on `port` from clients that stay open.
    fn drive_requests(kernel: &mut Kernel, instance: &mut McrInstance, port: u16, n: usize) {
        for _ in 0..n {
            let c = kernel.client_connect(port).unwrap();
            kernel
                .client_send(c, b"GET /index.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec())
                .unwrap();
            run_rounds(kernel, instance, 2).unwrap();
            assert!(kernel.client_recv(c).is_some(), "server answered");
        }
    }

    #[test]
    fn httpd_boots_with_master_and_worker_processes() {
        let mut kernel = kernel_with_files();
        let mut instance = boot(&mut kernel, Box::new(httpd(1)), &BootOptions::default()).unwrap();
        assert_eq!(instance.state.processes.len(), 3, "master + 2 worker processes");
        assert!(instance.state.threads.len() >= 3 + 16, "worker threads spawned");
        drive_requests(&mut kernel, &mut instance, 80, 3);
        assert_eq!(instance.state.counters.events_handled, 3);
        let report = QuiescenceProfiler::analyze(&kernel, &instance.state);
        assert!(report.short_lived_classes() >= 1, "daemonize helper is short-lived");
        assert!(report.long_lived_classes() >= 2);
        assert!(report.quiescent_points() >= 2);
    }

    #[test]
    fn nginx_is_event_driven_with_pools() {
        let mut kernel = kernel_with_files();
        let mut instance = boot(&mut kernel, Box::new(nginx(1)), &BootOptions::default()).unwrap();
        assert_eq!(instance.state.processes.len(), 3);
        drive_requests(&mut kernel, &mut instance, 8080, 4);
        // Pool allocations are invisible to the heap allocator (opaque).
        let report = QuiescenceProfiler::analyze(&kernel, &instance.state);
        let worker_point = report.point_for("worker-main").or_else(|| report.point_for("worker"));
        assert!(worker_point.is_some());
    }

    /// A connection list whose records link into a cycle reads `None`: the
    /// audit walks at most the list's `count` records.
    #[test]
    fn audit_of_a_cyclic_connection_list_is_none() {
        let mut kernel = kernel_with_files();
        let mut instance = boot(&mut kernel, Box::new(httpd(1)), &BootOptions::default()).unwrap();
        drive_requests(&mut kernel, &mut instance, 80, 4);
        assert!(instance.audit(&kernel).is_some());
        let types = &instance.state.types;
        let list = instance.state.statics.lookup("conn_list").unwrap();
        let head_off = types.field_offset(list.ty, "head").unwrap();
        let next_off = types.field_offset(types.lookup("conn_s").unwrap(), "next").unwrap();
        // A process that recorded two connections: its second record's
        // `next` goes back to the first.
        let &pid = instance
            .state
            .processes
            .iter()
            .find(|&&pid| kernel.process(pid).unwrap().space().read_u32(list.addr).unwrap() >= 2)
            .expect("a worker recorded two connections");
        let space = kernel.process_mut(pid).unwrap().space_mut();
        let first = space.read_u64(list.addr.offset(head_off)).unwrap();
        let second = Addr(space.read_u64(Addr(first).offset(next_off)).unwrap());
        space.write_u64(second.offset(next_off), first).unwrap();
        assert_eq!(instance.audit(&kernel), None);
    }

    /// `WorkloadSpec::apache_bench`'s request: HTTP/1.0 without keep-alive.
    const AB_REQUEST: &[u8] = b"GET /index.html HTTP/1.0\r\nHost: localhost\r\n\r\n";

    /// Serves `n` requests of `request` on `port`, each from a client that
    /// closes once answered.
    fn serve_and_close(kernel: &mut Kernel, instance: &mut McrInstance, port: u16, request: &[u8], n: usize) {
        for _ in 0..n {
            let c = kernel.client_connect(port).unwrap();
            kernel.client_send(c, request.to_vec()).unwrap();
            run_rounds(kernel, instance, 2).unwrap();
            assert!(kernel.client_recv(c).is_some(), "server answered");
            kernel.client_close(c).unwrap();
            run_rounds(kernel, instance, 2).unwrap();
        }
    }

    /// Opens `n` connections that stay open, each sending a request that is
    /// not one-shot, and returns them.
    fn open_idle(kernel: &mut Kernel, instance: &mut McrInstance, port: u16, n: usize) -> Vec<ConnId> {
        let conns: Vec<_> = (0..n).map(|_| kernel.client_connect(port).unwrap()).collect();
        for &c in &conns {
            kernel.client_send(c, b"KEEPALIVE".to_vec()).unwrap();
        }
        run_rounds(kernel, instance, 2).unwrap();
        conns
    }

    /// Each process's descriptor count and `conn_list` length, and the
    /// kernel's object count.
    fn footprint(kernel: &Kernel, instance: &McrInstance) -> (Vec<(usize, u32)>, usize) {
        let list = instance.state.statics.lookup("conn_list").unwrap().addr;
        let per_process = instance
            .state
            .processes
            .iter()
            .map(|&pid| {
                let proc = kernel.process(pid).unwrap();
                (proc.fds().len(), proc.space().read_u32(list).unwrap())
            })
            .collect();
        (per_process, kernel.objects().len())
    }

    /// httpd and nginx close a one-shot HTTP/1.0 connection after the reply:
    /// 20 `ab` requests from clients that close leave every process's
    /// descriptors and connection records, and the kernel's objects, where
    /// boot plus the idle connections left them, and the update carries the
    /// audit.
    #[test]
    fn one_shot_requests_leave_no_descriptor_object_or_record() {
        for (program, next, port) in [(httpd(1), httpd(2), 80), (nginx(1), nginx(2), 8080)] {
            let mut kernel = kernel_with_files();
            let mut v1 = boot(&mut kernel, Box::new(program), &BootOptions::default()).unwrap();
            let (booted, booted_objects) = footprint(&kernel, &v1);
            let _idle = open_idle(&mut kernel, &mut v1, port, 4);
            let baseline = footprint(&kernel, &v1);
            let sum = |fp: &[(usize, u32)]| fp.iter().fold((0, 0), |(f, c), &(fd, n)| (f + fd, c + n));
            let ((fds, records), (booted_fds, booted_records)) = (sum(&baseline.0), sum(&booted));
            assert_eq!((fds, records, baseline.1), (booted_fds + 4, booted_records + 4, booted_objects + 4));
            serve_and_close(&mut kernel, &mut v1, port, AB_REQUEST, 20);
            assert_eq!(footprint(&kernel, &v1), baseline);
            let before = v1.audit(&kernel).expect("audit");
            let (v2, outcome) = live_update(
                &mut kernel,
                v1,
                Box::new(next),
                InstrumentationConfig::full(),
                &UpdateOptions::default(),
            );
            assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
            assert_audit_carried(&before, &v2.audit(&kernel).expect("audit"));
        }
    }

    /// Known leak, pinned until it is fixed: a keep-alive connection whose
    /// client later closes keeps its descriptor, its peer-closed kernel
    /// object and its record. Nothing wakes the worker that holds it: it
    /// waits on its listener only.
    #[test]
    fn a_closed_keep_alive_connection_keeps_its_descriptor_and_record() {
        let mut kernel = kernel_with_files();
        let mut instance = boot(&mut kernel, Box::new(nginx(1)), &BootOptions::default()).unwrap();
        let conns = open_idle(&mut kernel, &mut instance, 8080, 2);
        let held = footprint(&kernel, &instance);
        for c in conns {
            kernel.client_close(c).unwrap();
        }
        run_rounds(&mut kernel, &mut instance, 4).unwrap();
        assert_eq!(kernel.open_connection_count(), 0, "both clients closed");
        assert_eq!(footprint(&kernel, &instance), held);
    }

    /// Known leak, pinned until it is fixed: a process-per-connection master
    /// never closes its copy of a session's descriptor, so it holds one per
    /// finished session and session k inherits the k - 1 before it.
    #[test]
    fn a_per_connection_master_keeps_every_session_descriptor() {
        let mut kernel = kernel_with_files();
        let mut instance = boot(&mut kernel, Box::new(vsftpd(1)), &BootOptions::default()).unwrap();
        serve_and_close(&mut kernel, &mut instance, 21, b"USER anonymous\r\n", 5);
        let fds: Vec<usize> =
            instance.state.processes.iter().map(|&pid| kernel.process(pid).unwrap().fds().len()).collect();
        // The master: its listener and all five connections. Session k: the
        // listener and the k - 1 connections accepted before its own.
        assert_eq!(fds, [6, 1, 2, 3, 4, 5]);
        assert_eq!(kernel.objects().len(), 6, "the listener and five peer-closed connections");
    }

    /// A session whose client closed has exited; the update does not bring
    /// it back: only the master has a counterpart.
    #[test]
    fn finished_sessions_stay_finished_across_an_update() {
        for (program, next, port) in [(vsftpd(1), vsftpd(2), 21), (sshd(1), sshd(2), 22)] {
            let mut kernel = kernel_with_files();
            let mut v1 = boot(&mut kernel, Box::new(program), &BootOptions::default()).unwrap();
            serve_and_close(&mut kernel, &mut v1, port, b"USER anonymous\r\n", 5);
            assert_eq!(v1.state.processes.len(), 6);
            let (v2, outcome) = live_update(
                &mut kernel,
                v1,
                Box::new(next),
                InstrumentationConfig::full(),
                &UpdateOptions::default(),
            );
            assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
            assert_eq!(outcome.report().processes_recreated, 0);
            assert_eq!(v2.state.processes.len(), 1);
        }
    }

    #[test]
    fn vsftpd_forks_session_processes_per_connection() {
        let mut kernel = kernel_with_files();
        let mut instance = boot(&mut kernel, Box::new(vsftpd(1)), &BootOptions::default()).unwrap();
        assert_eq!(instance.state.processes.len(), 1);
        drive_requests(&mut kernel, &mut instance, 21, 3);
        assert_eq!(instance.state.processes.len(), 4, "one session process per connection");
    }

    /// The old audit, carried over by the update's transform: every old fact
    /// unchanged, and each fact only the new version has is a field the
    /// transform added, zero-filled.
    fn assert_audit_carried(old: &[(String, u64)], new: &[(String, u64)]) {
        let new: std::collections::BTreeMap<_, _> = new.iter().cloned().collect();
        for (name, value) in old {
            assert_eq!(new.get(name), Some(value), "{name}");
        }
        let added: Vec<_> = new.iter().filter(|(name, _)| !old.iter().any(|(n, _)| n == *name)).collect();
        assert!(added.iter().all(|(_, &v)| v == 0), "added facts are zero-filled: {added:?}");
    }

    #[test]
    fn httpd_live_update_succeeds_with_open_connections() {
        let mut kernel = kernel_with_files();
        let mut v1 = boot(&mut kernel, Box::new(httpd(1)), &BootOptions::default()).unwrap();
        drive_requests(&mut kernel, &mut v1, 80, 4);
        let before = v1.audit(&kernel).expect("httpd audits its state");
        let (v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(httpd(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
        let after = v2.audit(&kernel).expect("httpd audits its state");
        assert_audit_carried(&before, &after);
        // Generation 2 adds `conf_s.timeout` and `stats_s.errors` in each of
        // the three processes.
        assert_eq!(after.len(), before.len() + 2 * 3);
        assert!(before.iter().filter(|(n, _)| n.contains(".conn0")).count() >= 4 * 3, "{before:?}");
        let report = outcome.report();
        assert_eq!(report.open_connections, 4);
        assert!(report.transfer.objects_transferred() > 0);
        assert_eq!(v2.state.version, "2.2.23+u1");
        // The per-process connection lists survived: summed over the new
        // version's processes, all four handled connections are still
        // recorded (requests were handled by worker processes, each of which
        // keeps its own copy of the `conn_list` global).
        let list = v2.state.statics.lookup("conn_list").unwrap().addr;
        let total: u32 = v2
            .state
            .processes
            .iter()
            .map(|&pid| kernel.process(pid).unwrap().space().read_u32(list).unwrap())
            .sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn sshd_live_update_recreates_session_processes() {
        let mut kernel = kernel_with_files();
        let mut v1 = boot(&mut kernel, Box::new(sshd(1)), &BootOptions::default()).unwrap();
        drive_requests(&mut kernel, &mut v1, 22, 2);
        assert_eq!(v1.state.processes.len(), 3);
        let (mut v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(sshd(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
        assert_eq!(outcome.report().processes_recreated, 2, "both session processes recreated");
        // A client still talking to its session gets an answer from the new
        // version.
        let c = kernel.client_connect(22).unwrap();
        kernel.client_send(c, b"SSH-2.0-client".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut v2, 3).unwrap();
        assert!(kernel.client_recv(c).is_some());
    }

    /// Known wrong answer, pinned until it is fixed: after an update with a
    /// layout slide, the `cycle` global (an encoded pointer to a
    /// startup-time `conf_s`) of a worker that served a request still names
    /// the old version's heap. The request dirtied the worker's static page,
    /// so its statics are transferred; `cycle`'s target is reinitialized,
    /// not transferred, and the transfer keeps an encoded value it cannot
    /// translate. Idle processes keep their freshly started `cycle`.
    #[test]
    fn nginx_worker_cycle_keeps_the_old_address_across_an_update() {
        let mut kernel = kernel_with_files();
        let mut v1 = boot(&mut kernel, Box::new(nginx(1)), &BootOptions::default()).unwrap();
        drive_requests(&mut kernel, &mut v1, 8080, 1);
        let (v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(nginx(2)),
            InstrumentationConfig::full_with_region_instrumentation(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
        let cycle = v2.state.statics.lookup("cycle").unwrap().addr;
        let readable: Vec<bool> = v2
            .state
            .processes
            .iter()
            .map(|&pid| {
                let space = kernel.process(pid).unwrap().space();
                let target = space.read_u64(cycle).unwrap() & !0b11;
                space.read_u64(mcr_procsim::Addr(target)).is_ok()
            })
            .collect();
        assert_eq!(readable, [true, false, true], "only the serving worker's `cycle` dangles");
    }

    /// Each update of the chain lands 2^32 past the layout it replaced.
    #[test]
    fn nginx_chain_of_updates() {
        let mut kernel = kernel_with_files();
        let mut instance = boot(&mut kernel, Box::new(nginx(1)), &BootOptions::default()).unwrap();
        let static_base = |k: &Kernel, pid| k.process(pid).unwrap().layout().static_base;
        for generation in 2..=5u32 {
            let c = kernel.client_connect(8080).unwrap();
            kernel.client_send(c, b"GET /".to_vec()).unwrap();
            run_round(&mut kernel, &mut instance).unwrap();
            let before = instance.audit(&kernel).expect("nginx audit");
            let base = static_base(&kernel, instance.state.processes[0]);
            let (next, outcome) = live_update(
                &mut kernel,
                instance,
                Box::new(nginx(generation)),
                InstrumentationConfig::full_with_region_instrumentation(),
                &UpdateOptions::default(),
            );
            assert!(outcome.is_committed(), "gen {generation}: {:?}", outcome.conflicts());
            assert_eq!(static_base(&kernel, next.state.processes[0]), base.offset(0x1_0000_0000));
            assert_audit_carried(&before, &next.audit(&kernel).expect("nginx audit"));
            instance = next;
        }
        assert_eq!(instance.state.version, "0.8.54+u4");
    }
}
