//! Pre-copy evaluation scenarios: a read-mostly vs. write-heavy pair.
//!
//! The pre-copy phase wins exactly when the *working set written while the
//! copy is in flight* is small compared to the total live heap. These
//! scenarios make that axis explicit: both boot the same multiprocess
//! server and serve the same traffic, but differ in how many connection
//! records the (simulated) application keeps rewriting between pre-copy
//! rounds. The write workload itself is modelled by
//! [`dirty_connection_nodes`], which walks each process's global
//! `conn_list` and bumps the `state` field of the first *k* nodes — raw
//! stores through the simulated address space, so they stamp the write
//! epoch exactly like real application stores would.
//!
//! Determinism contract: the same sequence of [`dirty_connection_nodes`]
//! calls produces the same final memory whether the calls are interleaved
//! with pre-copy rounds or all applied before a stop-the-world update,
//! which is what lets the downtime bench assert byte-identical kernel
//! fingerprints across both configurations.

use mcr_core::runtime::McrInstance;
use mcr_procsim::{Addr, Kernel, Pid};

/// One point of the pre-copy evaluation: a server, its pre-update traffic,
/// and the write rate applied between pre-copy rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecopyScenario {
    /// Scenario label (bench rows, CI assertions).
    pub name: &'static str,
    /// Program to boot (one of the four evaluated servers).
    pub program: &'static str,
    /// Requests served before the update (sizes the live heap).
    pub requests: u64,
    /// Idle connections opened before the update.
    pub open_connections: usize,
    /// Connection records dirtied per process after each pre-copy round —
    /// the write rate. `usize::MAX` rewrites every record (write-heavy).
    pub(crate) writes_per_round: usize,
    /// Page-sized `doc_cache` entries re-dirtied per process after each
    /// round. Connection records are small and share pages, so this is the
    /// knob that actually spreads the per-round working set across pages:
    /// `0` models the read-mostly deployment whose startup-initialized bulk
    /// stays clean, `16` (every entry) the write-heavy one that re-dirties
    /// it continuously.
    pub(crate) cache_writes_per_round: usize,
}

/// The scenario pair: a read-mostly deployment (the common case the paper's
/// 68%–86% dirty reduction measures, where pre-copy converges and downtime
/// collapses to the tail working set) and a write-heavy one (the adversarial
/// case where every round re-dirties everything and pre-copy can only help
/// by moving the first full copy out of the window).
///
/// `vsftpd` is used for both: its process-per-connection model yields four
/// or more matched pairs, which is what the acceptance criterion requires.
pub fn precopy_scenarios() -> [PrecopyScenario; 2] {
    [
        PrecopyScenario {
            name: "read-mostly",
            program: "vsftpd",
            requests: 4,
            open_connections: 4,
            writes_per_round: 1,
            cache_writes_per_round: 0,
        },
        PrecopyScenario {
            name: "write-heavy",
            program: "vsftpd",
            requests: 4,
            open_connections: 4,
            writes_per_round: usize::MAX,
            cache_writes_per_round: 16,
        },
    ]
}

/// The write-heavy half of the workload: re-dirties the first `per_process`
/// page-sized `doc_cache` entries of every process to `stamp`. These
/// startup-initialized entries are exactly the state the paper's dirty
/// tracking normally skips (the 68%–86% reduction); a deployment that keeps
/// rewriting them forces pre-copy to re-copy a page-spread working set each
/// round.
pub(crate) fn dirty_cache_entries(
    kernel: &mut Kernel,
    instance: &McrInstance,
    per_process: usize,
    stamp: u32,
) -> usize {
    let Some(cache) = instance.state.statics.lookup("doc_cache") else {
        return 0;
    };
    let cache_addr = cache.addr;
    let slots = (cache.size / 8).min(per_process as u64);
    let mut written = 0;
    for &pid in &instance.state.processes {
        let Ok(proc) = kernel.process_mut(pid) else { continue };
        for i in 0..slots {
            let Ok(entry) = proc.space().read_u64(cache_addr.offset(i * 8)) else { continue };
            if entry == 0 {
                continue;
            }
            if proc.space_mut().write_u32(Addr(entry), stamp).is_ok() {
                written += 1;
            }
        }
    }
    written
}

/// Applies one round of a scenario's write workload (connection records
/// plus, for write-heavy scenarios, cache entries), returning the number of
/// stores issued.
pub fn apply_scenario_writes(
    kernel: &mut Kernel,
    instance: &McrInstance,
    scenario: &PrecopyScenario,
    stamp: u32,
) -> usize {
    dirty_connection_nodes(kernel, instance, scenario.writes_per_round, stamp)
        + dirty_cache_entries(kernel, instance, scenario.cache_writes_per_round, stamp)
}

/// The post-resume write workload of the adaptive-transfer sweep: stamps
/// `words` u32 slots of every process's `request_buf` scratch global with
/// `stamp`, returning the number of stores issued. Its stores land directly
/// (synchronous modes) or trap on a parked page and are replayed by the
/// fault handler (post-copy modes), with the same final bytes either way.
///
/// Stamping starts at offset 8: the first word of `request_buf` is where
/// the server's type-unsafe idiom stashes a raw connection pointer, and
/// overwriting it would flip the conservative tracer's pinning decision for
/// the pointed-to node depending on *when* the stamp lands relative to a
/// trace round — exactly the cross-mode divergence this workload must not
/// introduce.
pub fn stamp_request_scratch(kernel: &mut Kernel, instance: &McrInstance, words: usize, stamp: u32) -> usize {
    let Some(buf) = instance.state.statics.lookup("request_buf") else {
        return 0;
    };
    const STASH_WORDS: u64 = 2;
    let slots = (buf.size / 4 - STASH_WORDS).min(words as u64);
    let mut written = 0;
    for &pid in &instance.state.processes {
        let Ok(proc) = kernel.process_mut(pid) else { continue };
        for i in 0..slots {
            if proc.space_mut().write_u32(buf.addr.offset((STASH_WORDS + i) * 4), stamp).is_ok() {
                written += 1;
            }
        }
    }
    written
}

/// Collects, per process of the instance, the addresses of the `conn_s`
/// nodes on the process's own copy of the global `conn_list` (every
/// generation lays the list head pointer out at offset 8 of the
/// `conn_list_s` global).
pub(crate) fn connection_nodes(kernel: &Kernel, instance: &McrInstance) -> Vec<(Pid, Vec<Addr>)> {
    let Some(list) = instance.state.statics.lookup("conn_list") else {
        return Vec::new();
    };
    let list_addr = list.addr;
    let Some(conn_ty) = instance.state.types.lookup("conn_s") else {
        return Vec::new();
    };
    let Some(next_off) = instance.state.types.field_offset(conn_ty, "next") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for &pid in &instance.state.processes {
        let Ok(proc) = kernel.process(pid) else { continue };
        let mut nodes = Vec::new();
        let Ok(head) = proc.space().read_u64(list_addr.offset(8)) else { continue };
        let mut node = Addr(head);
        while !node.is_null() && nodes.len() < 10_000 {
            nodes.push(node);
            match proc.space().read_u64(node.offset(next_off)) {
                Ok(next) => node = Addr(next),
                Err(_) => break,
            }
        }
        if !nodes.is_empty() {
            out.push((pid, nodes));
        }
    }
    out
}

/// The write workload of the pre-copy scenarios: bumps the `state` field
/// (offset 4, stable across generations) of the first `per_process`
/// connection records of every process to `stamp`, returning how many
/// stores were issued. Stores go through the simulated address space, so
/// they dirty pages and stamp the current write epoch exactly like
/// application stores.
pub fn dirty_connection_nodes(
    kernel: &mut Kernel,
    instance: &McrInstance,
    per_process: usize,
    stamp: u32,
) -> usize {
    let nodes = connection_nodes(kernel, instance);
    let mut written = 0;
    for (pid, addrs) in nodes {
        let Ok(proc) = kernel.process_mut(pid) else { continue };
        for addr in addrs.into_iter().take(per_process) {
            if proc.space_mut().write_u32(addr.offset(4), stamp).is_ok() {
                written += 1;
            }
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install_standard_files, program_by_name};
    use mcr_core::runtime::{boot, BootOptions};
    use mcr_workloadless_helpers::*;

    // Minimal local driver (the servers crate must not depend on
    // mcr-workload, which depends on it).
    mod mcr_workloadless_helpers {
        use mcr_core::runtime::{run_rounds, McrInstance};
        use mcr_procsim::Kernel;

        pub(crate) fn serve(kernel: &mut Kernel, instance: &mut McrInstance, port: u16, n: usize) {
            for _ in 0..n {
                let c = kernel.client_connect(port).unwrap();
                kernel.client_send(c, b"GET /".to_vec()).unwrap();
                let _ = run_rounds(kernel, instance, 2).unwrap();
            }
        }
    }

    #[test]
    fn connection_nodes_are_found_and_dirtied() {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        let mut v1 =
            boot(&mut kernel, Box::new(program_by_name("nginx", 1)), &BootOptions::default()).unwrap();
        serve(&mut kernel, &mut v1, 8080, 3);
        let nodes = connection_nodes(&kernel, &v1);
        let total: usize = nodes.iter().map(|(_, n)| n.len()).sum();
        assert!(total >= 3, "served connections are recorded on the lists");
        for &pid in &v1.state.processes {
            kernel.process_mut(pid).unwrap().space_mut().clear_soft_dirty();
        }
        let written = dirty_connection_nodes(&mut kernel, &v1, 1, 0xBEEF);
        assert!(written >= 1 && written <= v1.state.processes.len());
        let dirty: usize = v1
            .state
            .processes
            .iter()
            .map(|&pid| kernel.process(pid).unwrap().space().dirty_page_count())
            .sum();
        assert!(dirty >= 1, "the write workload stamps pages dirty");
    }

    #[test]
    fn scenario_pair_covers_both_write_rates() {
        let [read_mostly, write_heavy] = precopy_scenarios();
        assert_eq!(read_mostly.program, write_heavy.program, "same server, different write rate");
        assert!(read_mostly.writes_per_round < write_heavy.writes_per_round);
    }
}
