//! Update and memory reports produced by the update pipeline.

use mcr_procsim::{Kernel, SimDuration};

use crate::interpose::InterposeStats;
use crate::runtime::pipeline::PhaseName;
use crate::runtime::scheduler::McrInstance;
use crate::tracing::stats::TracingStats;
use crate::transfer::engine::{PrecopyRoundReport, ResidualStats, TransferSummary};

/// Duration and outcome of one executed pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Which phase ran.
    pub name: PhaseName,
    /// How long it took (simulated time).
    pub duration: SimDuration,
    /// Whether the phase finished without error. At most one record per
    /// attempt can be `false` — the pipeline rolls back on the first failure.
    pub completed: bool,
}

/// Per-phase timing trace of one update attempt, in execution order.
///
/// The pipeline driver appends one record per executed phase, so a
/// rolled-back attempt shows exactly how far it got and where the time went.
#[derive(Debug, Clone, Default)]
pub struct PhaseTrace {
    records: Vec<PhaseRecord>,
}

impl PhaseTrace {
    /// Appends a record (called by the pipeline driver after each phase).
    pub(crate) fn record(&mut self, name: PhaseName, duration: SimDuration, completed: bool) {
        self.records.push(PhaseRecord { name, duration, completed });
    }

    /// The executed phases, in order.
    pub fn records(&self) -> &[PhaseRecord] {
        &self.records
    }

    /// The duration of `name`, if that phase ran. A custom pipeline may run
    /// the same phase more than once; the most recent run wins.
    pub fn duration_of(&self, name: PhaseName) -> Option<SimDuration> {
        self.records.iter().rev().find(|r| r.name == name).map(|r| r.duration)
    }

    /// Whether `name` ran and its most recent run finished without error.
    pub fn completed(&self, name: PhaseName) -> bool {
        self.records.iter().rev().find(|r| r.name == name).is_some_and(|r| r.completed)
    }

    /// The last phase that started (the failing one, for a rollback).
    pub fn last(&self) -> Option<&PhaseRecord> {
        self.records.last()
    }
}

/// Breakdown of the client-perceived update time (§8 "Update time").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateTimings {
    /// Time spent in the concurrent pre-copy phase — tracing and copying
    /// rounds executed *while the old version kept serving traffic*. This is
    /// not downtime; it trades total update latency for a smaller
    /// stop-the-world window. Zero when pre-copy is disabled.
    pub precopy: SimDuration,
    /// The stop-the-world span: everything from the start of the quiescence
    /// barrier to the end of the pipeline. Without pre-copy this equals
    /// `total`; with pre-copy it shrinks to quiescence + residual transfer +
    /// commit, the O(working set) cost the pre-copy design targets.
    pub downtime: SimDuration,
    /// Time for the barrier protocol to park every old-version thread.
    pub quiescence: SimDuration,
    /// Time to restart the new version and complete control migration
    /// (record/replay of startup operations).
    pub control_migration: SimDuration,
    /// State-transfer time with MCR's parallel per-process transfer (the
    /// time reported in Figure 3), as a modelled schedule: the list-schedule
    /// makespan of the pairs' simulated costs on
    /// [`UpdateOptions::transfer_workers`](crate::runtime::controller::UpdateOptions)
    /// workers. One worker reproduces the sequential sum; one worker per
    /// pair (the default) is bounded by the slowest pair.
    pub state_transfer: SimDuration,
    /// State-transfer time if processes were transferred sequentially
    /// (ablation of the parallel strategy).
    pub state_transfer_serial: SimDuration,
    /// Time the post-copy drain loop spent after the new version resumed
    /// (background serving + fault-in + drain batches). This is *not*
    /// downtime — only the `trap_service` share of it is.
    pub postcopy_drain: SimDuration,
    /// Access-trap service latency charged back to downtime: every trap the
    /// resumed new version took on a not-yet-transferred page blocked the
    /// faulting thread for the fault-in (plus a fixed trap round-trip), so
    /// post-copy downtime is the commit window plus this.
    pub trap_service: SimDuration,
    /// Time the optional [`PhaseName::Checkpoint`] phase spent writing the
    /// durable checkpoint (modelled shard-writer makespan plus manifest
    /// commit). Runs inside the quiescence window, so it is downtime; zero
    /// when no checkpoint phase is configured.
    pub(crate) checkpoint_write: SimDuration,
    /// Total time the program was unavailable.
    pub total: SimDuration,
}

impl UpdateTimings {
    /// Folds a just-recorded phase duration into the legacy timing fields
    /// (called by the pipeline driver after every phase, so the breakdown is
    /// populated automatically and stays meaningful on rollback).
    pub(crate) fn absorb_phase(&mut self, name: PhaseName, phases: &PhaseTrace) {
        let d = phases.duration_of(name).unwrap_or_default();
        match name {
            PhaseName::Precopy => self.precopy = d,
            PhaseName::Quiesce => self.quiescence = d,
            PhaseName::ReinitReplay => self.control_migration = d,
            PhaseName::TraceAndTransfer | PhaseName::PostcopyCommit => {
                // The serial wall time spans process matching plus the
                // sequential per-process trace/transfer loop.
                let matching = phases.duration_of(PhaseName::MatchProcesses).unwrap_or_default();
                self.state_transfer_serial = matching.saturating_add(d);
            }
            PhaseName::PostcopyDrain => self.postcopy_drain = d,
            PhaseName::Checkpoint => self.checkpoint_write = d,
            PhaseName::MatchProcesses | PhaseName::Commit => {}
        }
    }
}

/// Observability record of the iterative pre-copy phase of one update.
///
/// The summary is deliberately *excluded* from the determinism comparisons
/// the property tests run across configurations: the whole point of
/// pre-copy is that this concurrent work differs from a stop-the-world run
/// while the logical transfer reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrecopySummary {
    /// Whether a pre-copy phase ran at all.
    pub enabled: bool,
    /// Per-round copy work, merged across the process pairs in pair order.
    pub rounds: Vec<PrecopyRoundReport>,
    /// The residual work the stop-the-world window still had to do, summed
    /// across pairs (equals the full transfer when pre-copy is disabled).
    pub residual: ResidualStats,
}

impl PrecopySummary {
    /// Total objects copied by the concurrent rounds.
    pub fn precopied_objects(&self) -> u64 {
        self.rounds.iter().map(|r| r.objects_copied).sum()
    }

    /// Merges one pair's round report into the summary (round is 1-based).
    pub(crate) fn absorb_round(&mut self, round: usize, report: &PrecopyRoundReport) {
        if self.rounds.len() < round {
            self.rounds.resize(round, PrecopyRoundReport::default());
        }
        let slot = &mut self.rounds[round - 1];
        slot.objects_copied += report.objects_copied;
        slot.bytes_copied += report.bytes_copied;
        slot.cost = slot.cost.saturating_add(report.cost);
    }

    /// Merges one pair's residual statistics into the summary.
    pub(crate) fn absorb_residual(&mut self, residual: &ResidualStats) {
        self.residual.objects += residual.objects;
        self.residual.bytes += residual.bytes;
        self.residual.cost = self.residual.cost.saturating_add(residual.cost);
    }
}

/// Observability record of the post-copy phases of one update
/// ([`TransferMode::Postcopy`](crate::runtime::controller::TransferMode)).
///
/// Like [`PrecopySummary`], the counters here are *excluded* from the
/// determinism comparisons across configurations: post-copy moves work
/// around in time (traps vs. background drain) while the logical transfer
/// reports and post-drain memory stay byte-identical to a stop-the-world
/// run. The counters also size the chaos engine's post-copy fault windows:
/// after a clean run, `deferred_objects` is the n-th-fault-in site count and
/// `drain_steps` the n-th-drain-step site count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostcopySummary {
    /// Whether a post-copy commit ran at all.
    pub enabled: bool,
    /// Pairs with nothing to park: their residual was empty at commit.
    pub synced_pairs: usize,
    /// Pairs whose residual was parked behind access traps.
    pub deferred_pairs: usize,
    /// Objects parked at commit (the post-copy fault-in site count).
    pub deferred_objects: u64,
    /// Bytes parked at commit.
    pub deferred_bytes: u64,
    /// Access traps the resumed new version took on parked pages.
    pub traps: u64,
    /// Parked objects applied by trap service (fault-in).
    pub trap_objects: u64,
    /// Parked objects applied by the background drainer.
    pub drained_objects: u64,
    /// Background drain batches executed (the n-th-drain-step site count).
    pub(crate) drain_steps: u64,
    /// Drain-loop rounds (serve + trap service + drain batch) executed.
    pub drain_rounds: u64,
    /// Per-trap service latency samples, nanoseconds: the fixed trap entry
    /// cost plus the fault-in apply cost the blocked thread waited for.
    /// One entry per trap, in service order — percentile material for the
    /// fleet tail-latency bench.
    pub trap_service_ns: Vec<u64>,
}

/// Everything MCR measured while performing (or attempting) one live update.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Timing breakdown.
    pub timings: UpdateTimings,
    /// Pre-copy observability (rounds executed, residual left for the
    /// stop-the-world window).
    pub precopy: PrecopySummary,
    /// Post-copy observability (pairs deferred, traps taken, drain
    /// progress).
    pub postcopy: PostcopySummary,
    /// What the optional durable-checkpoint phase wrote (`None` when the
    /// pipeline ran without [`PhaseName::Checkpoint`] or the phase never
    /// executed).
    pub checkpoint: Option<crate::transfer::checkpoint::CheckpointSummary>,
    /// Per-phase execution trace (which phases ran, for how long, and
    /// whether they completed).
    pub phases: PhaseTrace,
    /// Aggregated mutable-tracing statistics across processes (Table 2).
    pub tracing: TracingStats,
    /// Aggregated state-transfer results across processes.
    pub transfer: TransferSummary,
    /// Record/replay statistics of mutable reinitialization.
    pub replay: InterposeStats,
    /// Old-version processes matched to a new-version counterpart.
    pub processes_matched: usize,
    /// Old-version processes for which a counterpart had to be recreated
    /// (volatile quiescent points, e.g. per-connection worker processes).
    pub processes_recreated: usize,
    /// Connections open at update time.
    pub open_connections: usize,
    /// Startup time of the old version (recorded at its original boot).
    pub(crate) old_startup: SimDuration,
    /// Startup time of the new version under mutable reinitialization.
    pub(crate) new_startup: SimDuration,
    /// Kernel syscalls issued while the pipeline was in flight (serving
    /// rounds, startup replay, pre-copy traffic). After a clean run this is
    /// the chaos engine's n-th-syscall fault-site count.
    pub update_syscalls: u64,
    /// Object writes the transfer engine performed (across every pair,
    /// shard and pre-copy round). After a clean run this is the chaos
    /// engine's n-th-object-write fault-site count.
    pub object_writes: u64,
    /// Attempt history recorded by the update supervisor: one entry per
    /// pipeline attempt, in order. Empty for a bare (unsupervised)
    /// pipeline run; on a supervised update the *final* outcome's report
    /// carries the whole ladder (see
    /// [`supervised_update`](crate::runtime::supervisor::supervised_update)).
    pub attempts: Vec<crate::runtime::supervisor::AttemptSummary>,
}

impl UpdateReport {
    /// The replay-phase overhead relative to the original startup
    /// (the paper reports 1–45%).
    pub fn replay_overhead_fraction(&self) -> f64 {
        if self.old_startup.0 == 0 {
            0.0
        } else {
            self.new_startup.0 as f64 / self.old_startup.0 as f64 - 1.0
        }
    }

    /// Fraction of traced state that did not need to be transferred thanks to
    /// dirty-object tracking (the 68%–86% reduction quoted in §8).
    pub fn dirty_reduction(&self) -> f64 {
        self.tracing.dirty_reduction()
    }
}

/// Memory usage of one instance, used for the §8 memory-overhead evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Mapped memory plus allocator metadata of all processes.
    pub resident_bytes: u64,
    /// MCR metadata (startup log, registries, shadow allocation log).
    pub metadata_bytes: u64,
}

impl MemoryReport {
    /// Measures an instance.
    pub fn measure(kernel: &Kernel, instance: &McrInstance) -> Self {
        MemoryReport {
            resident_bytes: instance.resident_bytes(kernel),
            metadata_bytes: instance.state.metadata_bytes(),
        }
    }

    /// Overhead ratio of this (instrumented) measurement over a baseline
    /// measurement, e.g. `2.8` means a 180% resident-set increase.
    pub fn overhead_over(&self, baseline: &MemoryReport) -> f64 {
        if baseline.resident_bytes == 0 {
            0.0
        } else {
            self.resident_bytes as f64 / baseline.resident_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_overhead_fraction() {
        let report = UpdateReport {
            old_startup: SimDuration(1_000),
            new_startup: SimDuration(1_300),
            ..Default::default()
        };
        assert!((report.replay_overhead_fraction() - 0.3).abs() < 1e-9);
        let zero = UpdateReport::default();
        assert_eq!(zero.replay_overhead_fraction(), 0.0);
    }

    #[test]
    fn memory_overhead_ratio() {
        let baseline = MemoryReport { resident_bytes: 100, metadata_bytes: 0 };
        let instrumented = MemoryReport { resident_bytes: 390, metadata_bytes: 90 };
        assert!((instrumented.overhead_over(&baseline) - 3.9).abs() < 1e-9);
        assert_eq!(instrumented.overhead_over(&MemoryReport::default()), 0.0);
    }
}
