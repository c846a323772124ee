//! The six workloads. All are closed-loop with one client thread, and all
//! run their updates with one transfer worker, one shard and one shard
//! writer.

mod cache;
mod fleet;
mod multiproc;
mod nginx;

use crate::workload::Workload;

pub use nginx::{checkpoint_options, LOAD_REQUESTS as NGINX_LOAD_REQUESTS};

/// The workload called `name` in [`crate::spec::WORKLOADS`].
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cache_stw" => Box::new(cache::Cache { precopy: false, entries: cache::ENTRIES }),
        "cache_precopy" => Box::new(cache::Cache { precopy: true, entries: cache::ENTRIES }),
        "multiproc_stw" => Box::new(multiproc::Multiproc { postcopy: false }),
        "multiproc_postcopy" => Box::new(multiproc::Multiproc { postcopy: true }),
        "fleet_10k" => Box::new(fleet::Fleet),
        "nginx_durable_recover" => Box::new(nginx::Nginx),
        _ => return None,
    })
}

/// A cache workload small enough for a debug-build unit test.
#[cfg(test)]
pub fn small_cache(precopy: bool) -> Box<dyn Workload> {
    Box::new(cache::Cache { precopy, entries: 256 })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_listed_workload_exists() {
        for w in crate::spec::WORKLOADS {
            assert!(super::by_name(w.name).is_some(), "{}", w.name);
        }
        assert!(super::by_name("httpd").is_none());
    }
}
