//! The live-update controller (the `mcr-ctl` counterpart).
//!
//! [`live_update`] orchestrates the full MCR pipeline of Figure 1:
//! checkpoint (quiesce) the old version, restart the new version under
//! mutable reinitialization, remap the remaining state with mutable tracing
//! and state transfer, and either commit (terminate the old version) or roll
//! back (terminate the new version and resume the old one from its
//! checkpoint). The whole sequence is atomic and reversible: a failure at
//! any stage leaves the old version running exactly where it was parked.
//!
//! The actual staging lives in [`crate::runtime::pipeline`]: `live_update`
//! is a thin wrapper that runs [`UpdatePipeline::for_options`] — an ordered
//! list of phase names over a shared `UpdateCtx`, with rollback
//! centralized in the pipeline's single guard. Callers that need fault
//! injection, a watchdog budget or between-rounds hooks use
//! [`UpdatePipeline`] directly.

use mcr_procsim::Kernel;
use mcr_typemeta::InstrumentationConfig;

use crate::error::Conflict;
use crate::program::Program;
use crate::runtime::pipeline::UpdatePipeline;
use crate::runtime::report::UpdateReport;
use crate::runtime::scheduler::McrInstance;
use crate::tracing::tracer::TraceOptions;

/// Knobs of the iterative pre-copy phase (live-migration style): how many
/// concurrent trace-and-copy rounds run before the world stops, and when
/// the iteration is considered converged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecopyOptions {
    /// Maximum concurrent copy rounds before quiescing. `0` disables
    /// pre-copy entirely — the classic stop-the-world pipeline (and the
    /// baseline the downtime bench compares against).
    pub rounds: usize,
    /// Convergence threshold: stop iterating early once the bytes dirtied
    /// during a round (measured page-granular) drop to this value or below.
    /// `0` keeps iterating until a round ends with nothing newly dirty (or
    /// `rounds` is exhausted).
    pub convergence_bytes: u64,
    /// Scheduler rounds granted to the old instance between copy rounds so
    /// it keeps serving pending traffic while the copy runs "concurrently".
    pub serve_rounds: usize,
}

impl PrecopyOptions {
    /// Pre-copy disabled (the stop-the-world baseline).
    pub fn disabled() -> Self {
        PrecopyOptions { rounds: 0, convergence_bytes: 0, serve_rounds: 1 }
    }

    /// Whether a pre-copy phase should run at all.
    pub fn is_enabled(&self) -> bool {
        self.rounds > 0
    }
}

impl Default for PrecopyOptions {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Which transfer strategy drives the update pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransferMode {
    /// The historical selection: the pre-copy pipeline when
    /// [`UpdateOptions::precopy`] enables rounds, the classic stop-the-world
    /// pipeline otherwise.
    #[default]
    StopTheWorld,
    /// Force the pre-copy pipeline (a named sweep point; behaves like
    /// `StopTheWorld` with `precopy` enabled).
    Precopy,
    /// Post-copy: quiesce only long enough to commit control state and park
    /// the stale residual behind access traps, resume the new version
    /// immediately, and fault in / background-drain the residual afterwards.
    Postcopy,
}

impl TransferMode {
    /// Former name of a per-pair mode that equalled [`TransferMode::Postcopy`]
    /// on every measured point; it survives only as that alias because the
    /// `benchmark/` package still names it.
    #[allow(non_upper_case_globals)]
    pub const Adaptive: TransferMode = TransferMode::Postcopy;
}

/// Options for one live-update attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOptions {
    /// ASLR-style slide applied to the new version's private regions (must
    /// keep old and new heaps disjoint).
    pub layout_slide: u64,
    /// Maximum scheduling rounds the barrier protocol may take.
    pub max_quiesce_rounds: usize,
    /// Mutable-tracing options.
    pub trace: TraceOptions,
    /// Recreate counterparts for old processes that the new version's
    /// startup did not spawn (per-connection worker processes, i.e. volatile
    /// quiescent points). Requires the corresponding annotations in real
    /// deployments; disable to model an annotation-free deployment.
    pub recreate_unmatched_processes: bool,
    /// Modelled workers of the trace/transfer phase — an input of the cost
    /// model only. The pairs always run one after the other on the calling
    /// thread; the phase's simulated time is the list-schedule makespan of
    /// their costs on this many workers. `0` (the default) means one worker
    /// per matched pair — the paper's parallel multi-process transfer,
    /// charged at the slowest pair; `1` charges the serial sum. Reports,
    /// conflicts, fault sites and post-commit state are the same for every
    /// value.
    ///
    /// When [`UpdateOptions::intra_pair_shards`] is above one, an explicit
    /// `transfer_workers` value is a *global* budget shared by pairs ×
    /// shards: the pairs are scheduled on `transfer_workers / shards`
    /// workers (floor, at least one) so that workers × shards stays within
    /// the requested budget.
    pub transfer_workers: usize,
    /// Modelled workers *inside* each matched pair — an input of the cost
    /// model only. The transfer engine charges every object write to one of
    /// this many contiguous, cost-balanced address-range shards of the
    /// pair's object list, and the pair costs the list-schedule makespan
    /// over its shards. This is what shortens the modelled window of a
    /// *single-process* server with a huge heap, which pair-level workers
    /// cannot touch. `0`/`1` (the default) charges the serial sum. The
    /// traced graph, pins, Table 2 statistics, transfer reports, conflicts
    /// and post-commit memory are the same for every shard count.
    pub intra_pair_shards: usize,
    /// Iterative pre-copy configuration. When enabled, the pipeline boots
    /// and matches the new version first, copies the bulk of the object
    /// graph while the old version keeps serving, and quiesces only for the
    /// residual dirty delta — shrinking downtime from O(heap) to O(working
    /// set). Disabled by default (the paper's stop-the-world pipeline).
    pub precopy: PrecopyOptions,
    /// Which transfer strategy to run: stop-the-world, pre-copy or
    /// post-copy, which parks every pair's residual. The default honors
    /// `precopy` the way older callers expect.
    pub mode: TransferMode,
}

impl UpdateOptions {
    /// The pair-level modelled worker count the trace/transfer phase
    /// schedules `pairs` matched pairs on. Resolves the `0 = one per pair`
    /// default, never exceeds the number of pairs, and divides an explicit
    /// budget by the intra-pair shard count (floor division, so a
    /// non-divisible combination rounds *down*) — pairs × shards share one
    /// global budget that is never exceeded.
    pub(crate) fn effective_transfer_workers(&self, pairs: usize) -> usize {
        let shards = self.effective_intra_pair_shards();
        let requested =
            if self.transfer_workers == 0 { pairs } else { (self.transfer_workers / shards).max(1) };
        requested.clamp(1, pairs.max(1))
    }

    /// The intra-pair shard count actually charged: `0` resolves to one,
    /// and an explicit `transfer_workers` budget caps the shard count too —
    /// `min(S, W)` shards per pair, so a requested budget below the shard
    /// count (including `transfer_workers = 1`, the serial sum) is never
    /// exceeded.
    pub(crate) fn effective_intra_pair_shards(&self) -> usize {
        let shards = self.intra_pair_shards.max(1);
        if self.transfer_workers == 0 {
            shards
        } else {
            shards.min(self.transfer_workers.max(1))
        }
    }
}

impl Default for UpdateOptions {
    fn default() -> Self {
        UpdateOptions {
            layout_slide: 0x1_0000_0000,
            max_quiesce_rounds: 1_000,
            trace: TraceOptions::default(),
            recreate_unmatched_processes: true,
            transfer_workers: 0,
            intra_pair_shards: 1,
            precopy: PrecopyOptions::default(),
            mode: TransferMode::default(),
        }
    }
}

/// The result of a live-update attempt.
#[derive(Debug)]
pub enum UpdateOutcome {
    /// The new version took over; the old version was terminated.
    Committed(UpdateReport),
    /// The update was aborted; the old version resumed where it was parked.
    RolledBack {
        /// The conflicts (or failures) that caused the rollback.
        conflicts: Vec<Conflict>,
        /// Whatever was measured before the abort.
        report: UpdateReport,
    },
}

impl UpdateOutcome {
    /// True if the new version is now running.
    pub fn is_committed(&self) -> bool {
        matches!(self, UpdateOutcome::Committed(_))
    }

    /// The report gathered during the attempt.
    pub fn report(&self) -> &UpdateReport {
        match self {
            UpdateOutcome::Committed(r) => r,
            UpdateOutcome::RolledBack { report, .. } => report,
        }
    }

    /// The conflicts of a rolled-back attempt (empty when committed).
    pub fn conflicts(&self) -> &[Conflict] {
        match self {
            UpdateOutcome::Committed(_) => &[],
            UpdateOutcome::RolledBack { conflicts, .. } => conflicts,
        }
    }
}

/// Performs a live update of `old` to `new_program` with the pipeline the
/// options select: the standard stop-the-world sequence (quiesce →
/// reinit/replay → match → trace/transfer → commit), or — when
/// [`UpdateOptions::precopy`] is enabled — the pre-copy sequence that boots
/// and matches the new version first, copies concurrently, and quiesces
/// only for the residual delta.
///
/// Returns the instance that is running afterwards (the new version on
/// success, the old version after a rollback) together with the outcome.
pub fn live_update(
    kernel: &mut Kernel,
    old: McrInstance,
    new_program: Box<dyn Program>,
    config: InstrumentationConfig,
    opts: &UpdateOptions,
) -> (McrInstance, UpdateOutcome) {
    UpdatePipeline::for_options(opts).run(kernel, old, new_program, config, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::chaos::FaultSite;
    use crate::runtime::pipeline::{PhaseName, UpdatePipeline};
    use crate::runtime::scheduler::{boot, run_round, run_rounds, BootOptions};
    use crate::runtime::testprog::{FaultyServer, TinyServer};
    use mcr_procsim::Addr;

    fn booted_v1(kernel: &mut Kernel) -> McrInstance {
        kernel.add_file("/etc/tiny.conf", b"workers=1\n".to_vec());
        boot(kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap()
    }

    fn serve_clients(kernel: &mut Kernel, instance: &mut McrInstance, n: usize) -> Vec<mcr_procsim::ConnId> {
        let mut conns = Vec::new();
        for _ in 0..n {
            let c = kernel.client_connect(8080).unwrap();
            kernel.client_send(c, b"GET /".to_vec()).unwrap();
            run_round(kernel, instance).unwrap();
            let _ = kernel.client_recv(c);
            conns.push(c);
        }
        conns
    }

    /// Pairs × shards share one global worker budget: an explicit
    /// `transfer_workers` value is never exceeded, whichever way the two
    /// counts are combined.
    #[test]
    fn worker_budget_is_shared_by_pairs_and_shards() {
        // Budget below the shard count: the shards are clamped to the
        // budget and the pair pool collapses to one worker.
        let opts = UpdateOptions { transfer_workers: 2, intra_pair_shards: 4, ..Default::default() };
        assert_eq!(opts.effective_intra_pair_shards(), 2);
        assert_eq!(opts.effective_transfer_workers(8), 1);
        assert!(opts.effective_transfer_workers(8) * opts.effective_intra_pair_shards() <= 2);
        // Auto budget (`0`): one worker per pair × shard.
        let auto = UpdateOptions { intra_pair_shards: 4, ..Default::default() };
        assert_eq!(auto.effective_intra_pair_shards(), 4);
        assert_eq!(auto.effective_transfer_workers(3), 3);
        // The serial ablation stays fully serial regardless of shards.
        let serial = UpdateOptions { transfer_workers: 1, intra_pair_shards: 8, ..Default::default() };
        assert_eq!(serial.effective_intra_pair_shards(), 1);
        assert_eq!(serial.effective_transfer_workers(5), 1);
        // A budget above the shard count splits across pairs.
        let wide = UpdateOptions { transfer_workers: 8, intra_pair_shards: 2, ..Default::default() };
        assert_eq!(wide.effective_intra_pair_shards(), 2);
        assert_eq!(wide.effective_transfer_workers(6), 4);
        assert!(wide.effective_transfer_workers(6) * wide.effective_intra_pair_shards() <= 8);
        // Non-divisible combinations round down, never exceeding the budget.
        for (workers, shards, pairs) in [(3usize, 2usize, 4usize), (5, 4, 4), (7, 3, 9), (2, 5, 3)] {
            let opts =
                UpdateOptions { transfer_workers: workers, intra_pair_shards: shards, ..Default::default() };
            let total = opts.effective_transfer_workers(pairs) * opts.effective_intra_pair_shards();
            assert!(total <= workers, "{workers}w x {shards}s over {pairs} pairs: {total} > budget");
        }
    }

    #[test]
    fn successful_live_update_preserves_state_and_serves_clients() {
        let mut kernel = Kernel::new();
        let mut v1 = booted_v1(&mut kernel);
        let conns = serve_clients(&mut kernel, &mut v1, 3);
        let old_pids = v1.state.processes.clone();

        let (mut v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "conflicts: {:?}", outcome.conflicts());
        let report = outcome.report();
        assert_eq!(report.open_connections, 3);
        assert!(report.phases.duration_of(PhaseName::Quiesce).unwrap().0 > 0);
        assert!(report.phases.duration_of(PhaseName::ReinitReplay).unwrap().0 > 0);
        assert!(report.timings.total.0 > 0);
        assert!(report.transfer.objects_transferred() >= 3, "the three list nodes moved");
        assert_eq!(v2.state.version, "2.0");

        // The old version's processes are gone.
        for pid in old_pids {
            assert!(kernel.process(pid).is_err());
        }

        // The connection list survived the update: the new version's `list`
        // global reaches 3 nodes whose values are the old connection fds.
        let list_addr = v2.state.statics.lookup("list").unwrap().addr;
        let new_init = v2.init_pid().unwrap();
        let space = kernel.process(new_init).unwrap().space();
        let mut count = 0;
        let mut node = Addr(space.read_u64(list_addr.offset(8)).unwrap());
        while !node.is_null() && count < 10 {
            count += 1;
            node = Addr(space.read_u64(node.offset(8)).unwrap());
        }
        assert_eq!(count, 3);

        // And the new version serves new clients with its own banner.
        let c = kernel.client_connect(8080).unwrap();
        kernel.client_send(c, b"GET /".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut v2, 2).unwrap();
        let reply = kernel.client_recv(c).unwrap();
        assert!(String::from_utf8_lossy(&reply).contains("v2"));
        let _ = conns;
    }

    #[test]
    fn committed_update_records_every_phase() {
        let mut kernel = Kernel::new();
        let v1 = booted_v1(&mut kernel);
        let (_v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed());
        let report = outcome.report();
        let executed: Vec<PhaseName> = report.phases.records().iter().map(|r| r.name).collect();
        assert_eq!(executed, PhaseName::ALL, "phases ran in pipeline order");
        for phase in PhaseName::ALL {
            assert!(report.phases.completed(phase), "{phase} completed");
        }
        assert!(report.phases.records().iter().map(|r| r.duration.0).sum::<u64>() <= report.timings.total.0);
    }

    #[test]
    fn omitted_startup_call_rolls_back_and_old_version_survives() {
        let mut kernel = Kernel::new();
        let mut v1 = booted_v1(&mut kernel);
        serve_clients(&mut kernel, &mut v1, 2);

        // FaultyServer omits the listen() call the old version recorded.
        let (mut still_v1, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(FaultyServer::omitting_listen()),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(!outcome.is_committed());
        assert!(outcome.conflicts().iter().any(|c| matches!(c, Conflict::OmittedReplayEntry { .. })));
        assert_eq!(still_v1.state.version, "1.0");
        // The failing phase is visible in the trace.
        let last = outcome.report().phases.last().unwrap();
        assert_eq!(last.name, PhaseName::ReinitReplay);
        assert!(!last.completed);

        // The old version keeps serving clients after the rollback.
        let c = kernel.client_connect(8080).unwrap();
        kernel.client_send(c, b"GET /".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut still_v1, 2).unwrap();
        let reply = kernel.client_recv(c).unwrap();
        assert!(String::from_utf8_lossy(&reply).contains("v1"));
    }

    #[test]
    fn startup_failure_in_new_version_rolls_back() {
        let mut kernel = Kernel::new();
        let v1 = booted_v1(&mut kernel);
        let (still_v1, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(FaultyServer::aborting()),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(!outcome.is_committed());
        assert_eq!(still_v1.state.version, "1.0");
        // Only the old version's process remains.
        assert_eq!(kernel.pids().len(), 1);
    }

    #[test]
    fn repeated_updates_chain_through_replayed_logs() {
        let mut kernel = Kernel::new();
        let mut instance = booted_v1(&mut kernel);
        for generation in 2..=4u32 {
            serve_clients(&mut kernel, &mut instance, 1);
            let opts =
                UpdateOptions { layout_slide: 0x1_0000_0000 * u64::from(generation), ..Default::default() };
            let (next, outcome) = live_update(
                &mut kernel,
                instance,
                Box::new(TinyServer::new(generation)),
                InstrumentationConfig::full(),
                &opts,
            );
            assert!(outcome.is_committed(), "gen {generation}: {:?}", outcome.conflicts());
            instance = next;
        }
        assert_eq!(instance.state.version, "4.0");
        // Still serving.
        let c = kernel.client_connect(8080).unwrap();
        kernel.client_send(c, b"GET /".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut instance, 2).unwrap();
        assert!(String::from_utf8_lossy(&kernel.client_recv(c).unwrap()).contains("v4"));
    }

    #[test]
    fn injected_fault_before_commit_rolls_back_with_full_trace() {
        let mut kernel = Kernel::new();
        let mut v1 = booted_v1(&mut kernel);
        serve_clients(&mut kernel, &mut v1, 2);

        let pipeline =
            UpdatePipeline::standard().with_fault_plan(FaultSite::Boundary(PhaseName::Commit).plan());
        let (mut still_v1, outcome) = pipeline.run(
            &mut kernel,
            v1,
            Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        assert!(!outcome.is_committed());
        assert!(outcome.conflicts().iter().any(|c| matches!(c, Conflict::FaultInjected { .. })));
        // Every phase before the fault ran to completion; commit never ran.
        let report = outcome.report();
        for phase in [
            PhaseName::Quiesce,
            PhaseName::ReinitReplay,
            PhaseName::MatchProcesses,
            PhaseName::TraceAndTransfer,
        ] {
            assert!(report.phases.completed(phase), "{phase} completed before the fault");
        }
        assert!(report.phases.duration_of(PhaseName::Commit).is_none());
        // The old version is intact and serving.
        assert_eq!(still_v1.state.version, "1.0");
        let c = kernel.client_connect(8080).unwrap();
        kernel.client_send(c, b"GET /".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut still_v1, 2).unwrap();
        assert!(String::from_utf8_lossy(&kernel.client_recv(c).unwrap()).contains("v1"));
    }

    fn list_values(kernel: &Kernel, instance: &McrInstance) -> Vec<u32> {
        let list_addr = instance.state.statics.lookup("list").unwrap().addr;
        let space = kernel.process(instance.init_pid().unwrap()).unwrap().space();
        let mut values = Vec::new();
        let mut node = Addr(space.read_u64(list_addr.offset(8)).unwrap());
        while !node.is_null() && values.len() < 64 {
            values.push(space.read_u32(node).unwrap());
            node = Addr(space.read_u64(node.offset(8)).unwrap());
        }
        values
    }

    #[test]
    fn postcopy_update_commits_with_identical_state() {
        // Run the same update stop-the-world and post-copy; the transferred
        // heap must come out identical and the post-copy run must record
        // deferred work that drained to completion.
        let mut reference: Option<Vec<u32>> = None;
        for mode in [TransferMode::StopTheWorld, TransferMode::Postcopy] {
            let mut kernel = Kernel::new();
            let mut v1 = booted_v1(&mut kernel);
            serve_clients(&mut kernel, &mut v1, 4);
            let opts = UpdateOptions { mode, ..Default::default() };
            let (mut v2, outcome) = live_update(
                &mut kernel,
                v1,
                Box::new(TinyServer::new(2)),
                InstrumentationConfig::full(),
                &opts,
            );
            assert!(outcome.is_committed(), "{mode:?}: {:?}", outcome.conflicts());
            let report = outcome.report();
            let values = list_values(&kernel, &v2);
            assert_eq!(values.len(), 4, "{mode:?} preserved the list");
            match &reference {
                None => reference = Some(values),
                Some(expected) => assert_eq!(&values, expected, "modes agree byte-for-byte"),
            }
            if mode == TransferMode::Postcopy {
                assert!(report.postcopy.enabled);
                assert_eq!(report.postcopy.deferred_pairs, 1);
                assert!(report.postcopy.deferred_objects > 0);
                assert!(report.postcopy.drained_objects + report.postcopy.trap_objects > 0);
                let executed: Vec<PhaseName> = report.phases.records().iter().map(|r| r.name).collect();
                assert_eq!(
                    executed,
                    [
                        PhaseName::ReinitReplay,
                        PhaseName::MatchProcesses,
                        PhaseName::Precopy,
                        PhaseName::Quiesce,
                        PhaseName::PostcopyCommit,
                        PhaseName::PostcopyDrain,
                    ]
                );
            }
            // Either way the new version serves clients afterwards.
            let c = kernel.client_connect(8080).unwrap();
            kernel.client_send(c, b"GET /".to_vec()).unwrap();
            run_rounds(&mut kernel, &mut v2, 2).unwrap();
            assert!(String::from_utf8_lossy(&kernel.client_recv(c).unwrap()).contains("v2"));
        }
    }

    #[test]
    fn mid_drain_fault_rolls_back_to_old_version() {
        let mut kernel = Kernel::new();
        let mut v1 = booted_v1(&mut kernel);
        serve_clients(&mut kernel, &mut v1, 3);
        let reference = {
            // Snapshot the old heap before the attempt.
            let mut probe = Vec::new();
            let list_addr = v1.state.statics.lookup("list").unwrap().addr;
            let space = kernel.process(v1.init_pid().unwrap()).unwrap().space();
            let mut node = Addr(space.read_u64(list_addr.offset(8)).unwrap());
            while !node.is_null() && probe.len() < 64 {
                probe.push(space.read_u32(node).unwrap());
                node = Addr(space.read_u64(node.offset(8)).unwrap());
            }
            probe
        };

        let opts = UpdateOptions { mode: TransferMode::Postcopy, ..Default::default() };
        let pipeline = UpdatePipeline::for_options(&opts).with_fault_plan(FaultSite::DrainStep(1).plan());
        let (mut still_v1, outcome) =
            pipeline.run(&mut kernel, v1, Box::new(TinyServer::new(2)), InstrumentationConfig::full(), &opts);
        assert!(!outcome.is_committed(), "drain fault must abort the update");
        assert!(outcome
            .conflicts()
            .iter()
            .any(|c| matches!(c, Conflict::FaultInjected { phase } if phase == "drain-step")));
        // The old version survived with its heap intact and keeps serving.
        assert_eq!(still_v1.state.version, "1.0");
        assert_eq!(list_values(&kernel, &still_v1), reference);
        let c = kernel.client_connect(8080).unwrap();
        kernel.client_send(c, b"GET /".to_vec()).unwrap();
        run_rounds(&mut kernel, &mut still_v1, 2).unwrap();
        assert!(String::from_utf8_lossy(&kernel.client_recv(c).unwrap()).contains("v1"));
    }

    #[test]
    fn fault_in_chaos_site_aborts_postcopy() {
        let mut kernel = Kernel::new();
        let mut v1 = booted_v1(&mut kernel);
        serve_clients(&mut kernel, &mut v1, 3);
        let opts = UpdateOptions { mode: TransferMode::Postcopy, ..Default::default() };
        let pipeline = UpdatePipeline::for_options(&opts).with_fault_plan(FaultSite::FaultIn(1).plan());
        let (still_v1, outcome) =
            pipeline.run(&mut kernel, v1, Box::new(TinyServer::new(2)), InstrumentationConfig::full(), &opts);
        assert!(!outcome.is_committed());
        assert!(outcome
            .conflicts()
            .iter()
            .any(|c| matches!(c, Conflict::FaultInjected { phase } if phase == "fault-in")));
        assert_eq!(still_v1.state.version, "1.0");
    }
}
