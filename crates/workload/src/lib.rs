//! # mcr-workload — benchmark workloads for the MCR evaluation
//!
//! Client-side drivers reproducing the paper's benchmarks: an Apache-bench
//! style HTTP load, a pyftpdlib-style FTP load, an OpenSSH-test-suite style
//! session load, and the SPEC-like allocator microbenchmarks used to isolate
//! the cost of allocator instrumentation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod allocbench;
pub(crate) mod driver;

pub use allocbench::{overhead_ratio, run_alloc_bench, AllocBenchResult, AllocBenchSpec};
pub use driver::{open_idle_connections, precopy_serving_hook, run_workload, WorkloadResult, WorkloadSpec};

/// The standard workload for a program name, sized by `requests`.
///
/// # Panics
///
/// Panics on an unknown program name.
pub fn workload_for(program: &str, requests: u64) -> WorkloadSpec {
    match program {
        "httpd" => WorkloadSpec::apache_bench(80, requests),
        "nginx" => WorkloadSpec::apache_bench(8080, requests),
        "vsftpd" => WorkloadSpec::ftp_bench(21, requests),
        "sshd" => WorkloadSpec::ssh_suite(22, requests),
        // The memcached-style slab cache: every request inserts one entry.
        "cache" => WorkloadSpec {
            name: "memslap".into(),
            port: 11211,
            requests,
            request: b"set 96".to_vec(),
            close_after_response: true,
            idle_connections: 2,
            interarrival_ns: 0,
        },
        other => panic!("unknown program {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_programs() {
        assert_eq!(workload_for("httpd", 10).port, 80);
        assert_eq!(workload_for("nginx", 10).port, 8080);
        assert!(!workload_for("vsftpd", 10).close_after_response);
        assert_eq!(workload_for("sshd", 10).requests, 10);
    }
}
