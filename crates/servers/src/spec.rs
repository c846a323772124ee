//! Server model specifications.
//!
//! Each of the paper's four evaluation programs is described by a
//! [`ServerSpec`]: its process/threading model, the allocator family its
//! request handling uses, whether it keeps state in (uninstrumented) shared
//! libraries, and whether it stores metadata bits inside pointer values.
//! These are exactly the characteristics that drive MCR's behaviour —
//! quiescent-point counts (Table 1), precise vs. likely pointer populations
//! (Table 2), instrumentation overhead (Table 3) and state-transfer scaling
//! (Figure 3).

/// How a server structures its processes and threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcessModel {
    /// A master process plus `workers` forked worker processes, each running
    /// `threads_per_worker` worker threads (Apache httpd's `worker` MPM,
    /// nginx's master/worker model with `threads_per_worker == 0`).
    MasterWorker {
        /// Number of worker processes forked at startup.
        workers: u32,
        /// Worker threads spawned inside each worker process.
        threads_per_worker: u32,
    },
    /// A master process that accepts connections and forks one session
    /// process per connection (vsftpd, OpenSSH daemon).
    ProcessPerConnection,
}

/// Which allocator family request handling uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AllocatorModel {
    /// Standard `malloc` (instrumented when static instrumentation is on).
    Malloc,
    /// Region/pool allocation (nginx pools); opaque to precise tracing unless
    /// the region allocator is instrumented.
    Pools,
    /// Nested pools (Apache httpd APR pools): a parent pool with per-request
    /// child pools; never instrumented by the current prototype.
    NestedPools,
}

/// Full description of one simulated server program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerSpec {
    /// Program name (e.g. `"httpd"`).
    pub name: String,
    /// Base version string of the v1 release (e.g. `"2.2.23"`).
    pub(crate) base_version: String,
    /// TCP port the server listens on.
    pub(crate) port: u16,
    /// Path of the configuration file read at startup.
    pub(crate) config_path: String,
    /// Process/threading model.
    pub(crate) process_model: ProcessModel,
    /// Allocator family used by request handling.
    pub(crate) allocator: AllocatorModel,
    /// Whether the server keeps state inside (uninstrumented) shared
    /// libraries (OpenSSL contexts and the like).
    pub(crate) uses_lib_state: bool,
    /// Whether the server stores metadata in the low bits of pointers
    /// (nginx's encoded pointers, paper §7/§8).
    pub(crate) pointer_encoding: bool,
    /// Whether the server daemonizes at startup (creates a short-lived
    /// helper, visible as a short-lived thread class in Table 1).
    pub(crate) daemonize: bool,
    /// Whether request handling copies pointers into untyped buffers
    /// (type-unsafe idioms that produce likely pointers even with a fully
    /// instrumented allocator).
    pub(crate) type_unsafe_idioms: bool,
}

impl ServerSpec {
    /// Apache httpd with the `worker` MPM: 2 server processes, each with a
    /// (scaled-down) set of worker threads, nested APR pools, OpenSSL state.
    pub(crate) fn httpd() -> Self {
        ServerSpec {
            name: "httpd".into(),
            base_version: "2.2.23".into(),
            port: 80,
            config_path: "/etc/httpd.conf".into(),
            process_model: ProcessModel::MasterWorker { workers: 2, threads_per_worker: 8 },
            allocator: AllocatorModel::NestedPools,
            uses_lib_state: true,
            pointer_encoding: false,
            daemonize: true,
            type_unsafe_idioms: true,
        }
    }

    /// nginx: event-driven master/worker processes, pools and slabs, encoded
    /// pointers.
    pub fn nginx() -> Self {
        ServerSpec {
            name: "nginx".into(),
            base_version: "0.8.54".into(),
            port: 8080,
            config_path: "/etc/nginx.conf".into(),
            process_model: ProcessModel::MasterWorker { workers: 2, threads_per_worker: 0 },
            allocator: AllocatorModel::Pools,
            uses_lib_state: true,
            pointer_encoding: true,
            daemonize: true,
            type_unsafe_idioms: false,
        }
    }

    /// vsftpd: a master process forking one session process per connection.
    pub fn vsftpd() -> Self {
        ServerSpec {
            name: "vsftpd".into(),
            base_version: "1.1.0".into(),
            port: 21,
            config_path: "/etc/vsftpd.conf".into(),
            process_model: ProcessModel::ProcessPerConnection,
            allocator: AllocatorModel::Malloc,
            uses_lib_state: false,
            pointer_encoding: false,
            daemonize: false,
            type_unsafe_idioms: true,
        }
    }

    /// The OpenSSH daemon: per-connection session processes, OpenSSL state,
    /// daemonization and helper exec()s.
    pub(crate) fn sshd() -> Self {
        ServerSpec {
            name: "sshd".into(),
            base_version: "3.5p1".into(),
            port: 22,
            config_path: "/etc/sshd_config".into(),
            process_model: ProcessModel::ProcessPerConnection,
            allocator: AllocatorModel::Malloc,
            uses_lib_state: true,
            pointer_encoding: false,
            daemonize: true,
            type_unsafe_idioms: true,
        }
    }

    /// All four evaluation programs, in the paper's order.
    pub fn all() -> Vec<ServerSpec> {
        vec![Self::httpd(), Self::nginx(), Self::vsftpd(), Self::sshd()]
    }

    /// The version string of generation `generation` of this program
    /// (generation 1 is the base version).
    pub fn version_string(&self, generation: u32) -> String {
        if generation <= 1 {
            self.base_version.clone()
        } else {
            format!("{}+u{}", self.base_version, generation - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_programs_with_expected_models() {
        let all = ServerSpec::all();
        assert_eq!(all.len(), 4);
        assert!(matches!(ServerSpec::httpd().process_model, ProcessModel::MasterWorker { workers: 2, .. }));
        assert!(matches!(
            ServerSpec::nginx().process_model,
            ProcessModel::MasterWorker { threads_per_worker: 0, .. }
        ));
        assert_eq!(ServerSpec::vsftpd().process_model, ProcessModel::ProcessPerConnection);
        assert_eq!(ServerSpec::sshd().process_model, ProcessModel::ProcessPerConnection);
        assert!(ServerSpec::nginx().pointer_encoding);
        assert!(!ServerSpec::vsftpd().uses_lib_state);
        assert_eq!(ServerSpec::httpd().allocator, AllocatorModel::NestedPools);
    }

    #[test]
    fn version_strings_follow_generations() {
        let spec = ServerSpec::nginx();
        assert_eq!(spec.version_string(1), "0.8.54");
        assert_eq!(spec.version_string(2), "0.8.54+u1");
        assert_eq!(spec.version_string(26), "0.8.54+u25");
    }
}
