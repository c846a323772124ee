//! The self-healing update supervisor: retry, deterministic backoff,
//! configuration degradation, and watchdog deadlines around
//! [`UpdatePipeline`].
//!
//! MCR's safety claim is that a failed update is never fatal — it rolls
//! back. The supervisor turns that into a *liveness* property: a rolled-back
//! update is retried with exponential backoff on the virtual clock (the old
//! instance keeps serving `SERVE_ROUNDS_BETWEEN_ATTEMPTS` scheduler rounds
//! between attempts), the configuration degrades on failure (pre-copy or
//! post-copy → stop-the-world), and after [`SupervisorPolicy::max_attempts`]
//! the supervisor gives up cleanly with the full attempt history embedded in
//! the final [`UpdateReport::attempts`]. The ladder sets no watchdog budget:
//! a caller that wants one runs the pipeline itself with
//! [`UpdatePipeline::with_uniform_phase_deadline`].
//!
//! Everything is driven by the simulated clock, so a supervised update is
//! exactly as deterministic as a bare pipeline run: same kernel, same
//! per-attempt fault plans, same outcome, byte for byte.

use std::cell::RefCell;
use std::rc::Rc;

use mcr_procsim::{Kernel, SimDuration, SimInstant, Store};
use mcr_typemeta::InstrumentationConfig;

use crate::error::Conflict;
use crate::program::Program;
use crate::runtime::chaos::{ChaosPlan, FaultSite};
use crate::runtime::controller::{PrecopyOptions, TransferMode, UpdateOptions, UpdateOutcome};
use crate::runtime::pipeline::UpdatePipeline;
use crate::runtime::report::UpdateReport;
use crate::runtime::scheduler::{resume, run_rounds, McrInstance};
use crate::transfer::checkpoint::{checkpoint_now, restore_latest, CheckpointOptions, RestoreError};

/// How far the supervisor has degraded the update configuration.
///
/// The second rung drops what runs beside a serving instance (pre-copy,
/// post-copy drain): a fault that bit a complex schedule may spare a simpler
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationTier {
    /// The configuration as requested (attempt 1).
    Full,
    /// Pre-copy disabled — classic stop-the-world pipeline (attempt 2 and
    /// later).
    NoPrecopy,
}

impl DegradationTier {
    /// The tier used for 1-based attempt number `attempt`.
    pub(crate) fn for_attempt(attempt: usize) -> Self {
        match attempt {
            0 | 1 => DegradationTier::Full,
            _ => DegradationTier::NoPrecopy,
        }
    }

    /// Stable label for reports and bench output.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            DegradationTier::Full => "full",
            DegradationTier::NoPrecopy => "no-precopy",
        }
    }

    /// The options this tier actually runs with, derived from the
    /// requested configuration.
    pub(crate) fn apply(&self, requested: &UpdateOptions) -> UpdateOptions {
        let mut opts = *requested;
        match self {
            DegradationTier::Full => {}
            DegradationTier::NoPrecopy => {
                opts.precopy = PrecopyOptions::disabled();
                // Post-copy is the other concurrent transfer mechanism: a
                // fault that bit a drain schedule is retried with the
                // residual applied synchronously inside the window, where
                // rollback needs no trap machinery.
                opts.mode = TransferMode::StopTheWorld;
            }
        }
        opts
    }
}

impl std::fmt::Display for DegradationTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one supervised pipeline attempt did, recorded in
/// [`UpdateReport::attempts`].
#[derive(Debug, Clone)]
pub struct AttemptSummary {
    /// The degradation tier the attempt ran at.
    pub tier: DegradationTier,
    /// Whether the attempt committed (true only for the last entry).
    pub committed: bool,
    /// The conflicts that rolled the attempt back (empty on commit).
    pub conflicts: Vec<Conflict>,
    /// Virtual-clock instants bracketing the pipeline run.
    pub(crate) started_at: SimInstant,
    /// See `started_at`.
    pub(crate) finished_at: SimInstant,
    /// The deterministic backoff slept *after* this attempt (zero for the
    /// committed or final attempt).
    pub backoff: SimDuration,
    /// Whether the old instance crashed during this attempt and had to be
    /// revived from the latest durable checkpoint before the ladder could
    /// continue (only ever true under [`supervised_update_durable`]).
    pub recovered: bool,
}

/// The backoff slept after the first failed attempt: one simulated
/// millisecond. Each later one doubles it.
const BASE_BACKOFF: SimDuration = SimDuration(1_000_000);

/// Ceiling on a single inter-attempt backoff: one simulated minute. Deep
/// retry ladders plateau here instead of overflowing the `<<` doubling (a
/// shift past 63 panics in debug, and value bits wrap long before that) or
/// stalling the virtual clock for geological spans.
pub(crate) const MAX_BACKOFF: SimDuration = SimDuration(60_000_000_000);

/// Scheduler rounds the old instance serves between attempts, so clients
/// keep getting answers while the supervisor waits.
const SERVE_ROUNDS_BETWEEN_ATTEMPTS: usize = 2;

/// Exponential backoff slept after the 1-based `attempt`:
/// `BASE_BACKOFF << (attempt - 1)` on the virtual clock — deterministic, no
/// host time involved — saturating and clamped to [`MAX_BACKOFF`] so the
/// ladder stays monotone for arbitrarily large attempt counts.
fn backoff_for_attempt(attempt: usize) -> SimDuration {
    let exp = attempt.saturating_sub(1).min(63) as u32;
    SimDuration(BASE_BACKOFF.0.saturating_mul(1u64 << exp).min(MAX_BACKOFF.0))
}

/// Retry policy of [`supervised_update`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// Give up (returning the last rollback) after this many attempts.
    pub max_attempts: usize,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy { max_attempts: 3 }
    }
}

/// Runs a live update under supervision: retries rolled-back attempts with
/// deterministic backoff, degrades the configuration along the
/// [`DegradationTier`] ladder, and gives up after
/// [`SupervisorPolicy::max_attempts`].
///
/// `new_program` is a factory because every attempt consumes a fresh boxed
/// program (the pipeline boots it under replay). `fault_for_attempt` maps
/// the 1-based attempt number to that attempt's [`ChaosPlan`] — chaos
/// campaigns inject into early attempts and leave later ones clean to model
/// transient faults; pass `|_| ChaosPlan::none()` outside of drills.
///
/// The returned outcome is the last attempt's, with
/// [`UpdateReport::attempts`] rewritten to the full ladder history. Between
/// attempts the old instance serves two scheduler rounds, so traffic keeps
/// flowing across failures.
pub fn supervised_update(
    kernel: &mut Kernel,
    old: McrInstance,
    new_program: impl FnMut() -> Box<dyn Program>,
    config: InstrumentationConfig,
    opts: &UpdateOptions,
    policy: &SupervisorPolicy,
    fault_for_attempt: impl FnMut(usize) -> ChaosPlan,
) -> (McrInstance, UpdateOutcome) {
    run_ladder(kernel, old, new_program, config, opts, policy, None, fault_for_attempt)
}

/// A [`supervised_update`] whose retry ladder survives a crash of the *old
/// instance itself*.
///
/// Every attempt inserts a durable-checkpoint phase right after the
/// quiescence barrier (`UpdatePipeline::with_checkpoint`), and one extra
/// checkpoint is taken up front so even a crash inside the very first
/// attempt has a recovery point. When an attempt fails with
/// [`Conflict::OldInstanceCrashed`] — rollback cannot resume processes that
/// no longer exist — the supervisor remounts the store and revives the old
/// version from the latest durable checkpoint ([`restore_latest`]), then
/// continues the ladder with the revived instance serving between attempts.
/// The attempt that crashed is recorded with
/// [`AttemptSummary::recovered`] set.
///
/// `old_program` is the factory for the *old* version's program — restore
/// re-boots it deterministically from the manifest's boot recipe —
/// while `new_program` is the per-attempt factory for the update target, as
/// in [`supervised_update`]. A restore killed by an injected
/// [`FaultSite::RestoreStep`] fault is retried once without the fault
/// (the transient-fault model of the chaos campaigns); any other restore
/// failure ends the ladder, and the returned instance then has no live
/// processes — the caller is facing a real outage, not a rolled-back update.
///
/// The virtual clock never runs backwards across a recovery: the restored
/// kernel boots with the checkpoint's clock and is fast-forwarded to the
/// crashed kernel's `now` before the ladder continues.
#[allow(clippy::too_many_arguments)]
pub fn supervised_update_durable(
    kernel: &mut Kernel,
    old: McrInstance,
    mut old_program: impl FnMut() -> Box<dyn Program>,
    new_program: impl FnMut() -> Box<dyn Program>,
    config: InstrumentationConfig,
    opts: &UpdateOptions,
    policy: &SupervisorPolicy,
    store: Rc<RefCell<dyn Store>>,
    ckpt_opts: CheckpointOptions,
    fault_for_attempt: impl FnMut(usize) -> ChaosPlan,
) -> (McrInstance, UpdateOutcome) {
    let durable = Durable { store, ckpt_opts, old_program: &mut old_program };
    run_ladder(kernel, old, new_program, config, opts, policy, Some(durable), fault_for_attempt)
}

/// What a durable ladder adds to a plain one: the store checkpoints go to,
/// how they are written, and the factory that re-boots the old version from
/// one.
struct Durable<'a> {
    store: Rc<RefCell<dyn Store>>,
    ckpt_opts: CheckpointOptions,
    old_program: &'a mut dyn FnMut() -> Box<dyn Program>,
}

/// The retry ladder of [`supervised_update`] and, with `durable` set, of
/// [`supervised_update_durable`]: checkpoint #0, a checkpoint phase in every
/// attempt and a revival after a crash of the old instance run only then.
#[allow(clippy::too_many_arguments)]
fn run_ladder(
    kernel: &mut Kernel,
    old: McrInstance,
    mut new_program: impl FnMut() -> Box<dyn Program>,
    config: InstrumentationConfig,
    opts: &UpdateOptions,
    policy: &SupervisorPolicy,
    mut durable: Option<Durable<'_>>,
    mut fault_for_attempt: impl FnMut(usize) -> ChaosPlan,
) -> (McrInstance, UpdateOutcome) {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts: Vec<AttemptSummary> = Vec::new();
    let mut instance = old;
    // Checkpoint #0: a recovery point that predates the first attempt. A
    // store failure here is not retried — the per-attempt checkpoint phase
    // remounts the store and tries again — but the store is recovered so a
    // half-written version directory cannot wedge that phase.
    if let Some(Durable { store, ckpt_opts, .. }) = &durable {
        let mut store = store.borrow_mut();
        if checkpoint_now(kernel, &mut instance, &mut *store, ckpt_opts).is_err() {
            store.recover();
        }
    }
    for attempt in 1..=max_attempts {
        let tier = DegradationTier::for_attempt(attempt);
        let tier_opts = tier.apply(opts);
        let plan = fault_for_attempt(attempt);
        let restore_fault = plan.nth(FaultSite::RestoreStep);
        let mut pipeline = UpdatePipeline::for_options(&tier_opts).with_fault_plan(plan);
        if let Some(Durable { store, ckpt_opts, .. }) = &durable {
            pipeline = pipeline.with_checkpoint(Rc::clone(store), *ckpt_opts);
        }
        let started_at = kernel.now();
        let (next_instance, outcome) = pipeline.run(kernel, instance, new_program(), config, &tier_opts);
        instance = next_instance;
        let finished_at = kernel.now();
        let (conflicts, mut report) = match outcome {
            UpdateOutcome::Committed(mut report) => {
                attempts.push(AttemptSummary {
                    tier,
                    committed: true,
                    conflicts: Vec::new(),
                    started_at,
                    finished_at,
                    backoff: SimDuration(0),
                    recovered: false,
                });
                report.attempts = attempts;
                return (instance, UpdateOutcome::Committed(report));
            }
            UpdateOutcome::RolledBack { conflicts, report } => (conflicts, report),
        };
        // Rollback cannot resume processes that no longer exist: a durable
        // ladder revives the old version from the latest checkpoint. With
        // nothing left to serve and nothing restorable, it gives up with the
        // crash conflicts on record.
        let crashed = conflicts.iter().any(|c| matches!(c, Conflict::OldInstanceCrashed { .. }));
        let mut recovered = false;
        let mut unrecoverable = false;
        if let Some(Durable { store, old_program, .. }) = durable.as_mut().filter(|_| crashed) {
            match revive_from_checkpoint(kernel, store, *old_program, restore_fault) {
                Ok(revived) => {
                    instance = revived;
                    recovered = true;
                }
                Err(_) => unrecoverable = true,
            }
        }
        let giving_up = attempt == max_attempts || unrecoverable;
        let backoff = if giving_up { SimDuration(0) } else { backoff_for_attempt(attempt) };
        attempts.push(AttemptSummary {
            tier,
            committed: false,
            conflicts: conflicts.clone(),
            started_at,
            finished_at,
            backoff,
            recovered,
        });
        if giving_up {
            report.attempts = attempts;
            return (instance, UpdateOutcome::RolledBack { conflicts, report });
        }
        // Deterministic backoff on the virtual clock, with the old instance
        // serving: rollback (or the revival) restored it, so clients see
        // answers (from the old version) across the whole ladder.
        kernel.advance_clock(backoff);
        let _ = run_rounds(kernel, &mut instance, SERVE_ROUNDS_BETWEEN_ATTEMPTS);
    }
    unreachable!("loop returns on the final attempt");
}

/// Revives the old version from the latest durable checkpoint: remounts the
/// store, restores into a scratch kernel, fast-forwards its clock so virtual
/// time stays monotone, swaps it in, and resumes the revived instance. A
/// restore killed by an injected `RestoreStep` fault is retried once
/// without the fault.
fn revive_from_checkpoint(
    kernel: &mut Kernel,
    store: &Rc<RefCell<dyn Store>>,
    old_program: &mut dyn FnMut() -> Box<dyn Program>,
    restore_fault: Option<u64>,
) -> Result<McrInstance, RestoreError> {
    store.borrow_mut().recover();
    let store_ref = store.borrow();
    let restored = match restore_latest(&*store_ref, old_program, restore_fault) {
        Ok(r) => r,
        Err(RestoreError::FaultInjected { .. }) => restore_latest(&*store_ref, old_program, None)?,
        Err(e) => return Err(e),
    };
    drop(store_ref);
    let now_before = kernel.now();
    *kernel = restored.kernel;
    let now_restored = kernel.now();
    if now_restored.0 < now_before.0 {
        kernel.advance_clock(SimDuration(now_before.0 - now_restored.0));
    }
    let mut instance = restored.instance;
    resume(kernel, &mut instance);
    Ok(instance)
}

/// Mean time to recovery of a supervised update: virtual time from the
/// first attempt's start to the committing attempt's end (`None` when the
/// history is empty or never committed).
pub fn time_to_recovery(report: &UpdateReport) -> Option<SimDuration> {
    let first = report.attempts.first()?;
    let committed = report.attempts.iter().find(|a| a.committed)?;
    Some(committed.finished_at.duration_since(first.started_at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::pipeline::PhaseName;
    use crate::runtime::scheduler::{boot, BootOptions};
    use crate::runtime::testprog::TinyServer;

    fn booted(kernel: &mut Kernel) -> McrInstance {
        kernel.add_file("/etc/tiny.conf", b"workers=2\n".to_vec());
        boot(kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).expect("boot v1")
    }

    fn drive_traffic(kernel: &mut Kernel, instance: &mut McrInstance, n: usize) {
        for _ in 0..n {
            let conn = kernel.client_connect(8080).expect("connect");
            kernel.client_send(conn, b"ping".to_vec()).expect("send");
            let _ = run_rounds(kernel, instance, 2);
        }
    }

    #[test]
    fn backoff_doubles_then_saturates_at_the_cap_without_overflow() {
        assert_eq!(backoff_for_attempt(1), BASE_BACKOFF);
        assert_eq!(backoff_for_attempt(2), SimDuration(2_000_000));
        assert_eq!(backoff_for_attempt(5), SimDuration(16_000_000));
        // Deep ladders plateau at the cap instead of wrapping (~attempt 45
        // with the 1 ms base) or panicking on a >= 64-bit shift (attempt 65+).
        assert_eq!(backoff_for_attempt(45), MAX_BACKOFF);
        assert_eq!(backoff_for_attempt(65), MAX_BACKOFF);
        assert_eq!(backoff_for_attempt(usize::MAX), MAX_BACKOFF);
    }

    #[test]
    fn supervisor_commits_first_try_without_faults() {
        let mut kernel = Kernel::new();
        let mut instance = booted(&mut kernel);
        drive_traffic(&mut kernel, &mut instance, 3);
        let (instance, outcome) = supervised_update(
            &mut kernel,
            instance,
            || Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
            &SupervisorPolicy::default(),
            |_| ChaosPlan::none(),
        );
        assert!(outcome.is_committed());
        let report = outcome.report();
        assert_eq!(report.attempts.len(), 1);
        assert!(report.attempts[0].committed);
        assert_eq!(report.attempts[0].tier, DegradationTier::Full);
        assert!(time_to_recovery(report).is_some());
        assert_eq!(instance.state.version, "2.0");
    }

    #[test]
    fn supervisor_retries_through_transient_faults_and_records_the_ladder() {
        let mut kernel = Kernel::new();
        let mut instance = booted(&mut kernel);
        drive_traffic(&mut kernel, &mut instance, 2);
        // Attempts 1 and 2 are sabotaged at different sites; attempt 3 is
        // clean — a transient fault the ladder must climb over.
        let (instance, outcome) = supervised_update(
            &mut kernel,
            instance,
            || Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
            &SupervisorPolicy::default(),
            |attempt| match attempt {
                1 => FaultSite::Boundary(PhaseName::Commit).plan(),
                2 => FaultSite::TransferObject(1).plan(),
                _ => ChaosPlan::none(),
            },
        );
        assert!(outcome.is_committed(), "third attempt commits: {:?}", outcome.conflicts());
        let report = outcome.report();
        assert_eq!(report.attempts.len(), 3);
        assert_eq!(
            report.attempts.iter().map(|a| a.tier).collect::<Vec<_>>(),
            vec![DegradationTier::Full, DegradationTier::NoPrecopy, DegradationTier::NoPrecopy]
        );
        assert_eq!(report.attempts.iter().map(|a| a.committed).collect::<Vec<_>>(), vec![false, false, true]);
        // Exponential, deterministic backoff on the virtual clock.
        assert_eq!(report.attempts[0].backoff.0 * 2, report.attempts[1].backoff.0);
        assert_eq!(report.attempts[2].backoff.0, 0);
        assert!(!report.attempts[0].conflicts.is_empty());
        let mttr = time_to_recovery(report).expect("committed ladder has an MTTR");
        assert!(mttr.0 > 0);
        assert_eq!(instance.state.version, "2.0");
    }

    #[test]
    fn supervisor_gives_up_cleanly_and_old_version_still_serves() {
        let mut kernel = Kernel::new();
        let mut instance = booted(&mut kernel);
        drive_traffic(&mut kernel, &mut instance, 2);
        let policy = SupervisorPolicy { max_attempts: 2 };
        let (mut instance, outcome) = supervised_update(
            &mut kernel,
            instance,
            || Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
            &policy,
            // Every attempt dies at the commit boundary: unrecoverable.
            |_| FaultSite::Boundary(PhaseName::Commit).plan(),
        );
        assert!(!outcome.is_committed());
        let report = outcome.report();
        assert_eq!(report.attempts.len(), 2);
        assert!(report.attempts.iter().all(|a| !a.committed));
        assert!(time_to_recovery(report).is_none());
        assert_eq!(instance.state.version, "1.0", "old version resumed");
        // The resumed old instance still answers traffic.
        let conn = kernel.client_connect(8080).expect("connect after give-up");
        kernel.client_send(conn, b"ping".to_vec()).expect("send");
        let _ = run_rounds(&mut kernel, &mut instance, 3);
        assert_eq!(kernel.client_recv(conn).expect("reply"), b"hello from v1".to_vec());
    }

    #[test]
    fn postcopy_drain_fault_degrades_to_synchronous_retry() {
        // Attempt 1 runs post-copy and dies applying a parked object
        // after the new version already resumed; the supervisor must roll
        // back to the intact old instance and retry stop-the-world, which
        // commits. This is the fallback ladder for the trap machinery.
        let mut kernel = Kernel::new();
        let mut instance = booted(&mut kernel);
        drive_traffic(&mut kernel, &mut instance, 3);
        let opts = UpdateOptions { mode: TransferMode::Postcopy, ..UpdateOptions::default() };
        let (instance, outcome) = supervised_update(
            &mut kernel,
            instance,
            || Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &opts,
            &SupervisorPolicy::default(),
            |attempt| match attempt {
                1 => FaultSite::FaultIn(1).plan(),
                _ => ChaosPlan::none(),
            },
        );
        assert!(outcome.is_committed(), "degraded retry commits: {:?}", outcome.conflicts());
        let report = outcome.report();
        assert_eq!(report.attempts.len(), 2);
        assert!(!report.attempts[0].committed);
        assert!(report.attempts[0]
            .conflicts
            .iter()
            .any(|c| matches!(c, Conflict::FaultInjected { phase } if phase == "fault-in")));
        // The retry ran without the trap machinery: stop-the-world tier.
        assert_eq!(report.attempts[1].tier, DegradationTier::NoPrecopy);
        assert!(report.attempts[1].committed);
        assert_eq!(report.postcopy.deferred_pairs, 0, "committing attempt deferred nothing");
        assert_eq!(instance.state.version, "2.0");
    }

    #[test]
    fn degradation_ladder_strips_postcopy_modes() {
        let requested = UpdateOptions { mode: TransferMode::Postcopy, ..UpdateOptions::default() };
        assert_eq!(DegradationTier::Full.apply(&requested).mode, TransferMode::Postcopy);
        let no_precopy = DegradationTier::NoPrecopy.apply(&requested);
        assert_eq!(no_precopy.mode, TransferMode::StopTheWorld);
        assert_eq!(DegradationTier::for_attempt(3).apply(&requested), no_precopy);
    }

    #[test]
    fn durable_supervisor_recovers_from_old_instance_crash_and_commits() {
        use mcr_procsim::MemStore;

        let mut kernel = Kernel::new();
        let mut instance = booted(&mut kernel);
        drive_traffic(&mut kernel, &mut instance, 3);
        let store: Rc<RefCell<MemStore>> = Rc::new(RefCell::new(MemStore::new()));
        // Attempt 1: the old instance's processes die right before commit —
        // after this attempt's own checkpoint phase ran, so the latest
        // durable image is fresh. Attempt 2 is clean.
        let (mut instance, outcome) = supervised_update_durable(
            &mut kernel,
            instance,
            || Box::new(TinyServer::new(1)),
            || Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
            &SupervisorPolicy::default(),
            store.clone() as Rc<RefCell<dyn Store>>,
            CheckpointOptions::default(),
            |attempt| match attempt {
                1 => ChaosPlan::crashing_old_before(PhaseName::Commit),
                _ => ChaosPlan::none(),
            },
        );
        assert!(outcome.is_committed(), "recovered ladder commits: {:?}", outcome.conflicts());
        let report = outcome.report();
        assert_eq!(report.attempts.len(), 2);
        assert!(!report.attempts[0].committed);
        assert!(report.attempts[0].recovered, "crash attempt was revived from the checkpoint");
        assert!(report.attempts[0]
            .conflicts
            .iter()
            .any(|c| matches!(c, Conflict::OldInstanceCrashed { phase } if phase == "commit")));
        assert!(report.attempts[1].committed);
        assert!(!report.attempts[1].recovered);
        // The committing attempt re-checkpointed inside its own window.
        assert!(report.checkpoint.is_some());
        assert_eq!(instance.state.version, "2.0");
        // The updated instance serves on the restored kernel.
        let conn = kernel.client_connect(8080).expect("connect after recovery");
        kernel.client_send(conn, b"ping".to_vec()).expect("send");
        let _ = run_rounds(&mut kernel, &mut instance, 3);
        assert_eq!(kernel.client_recv(conn).expect("reply"), b"hello from v2".to_vec());
    }

    #[test]
    fn durable_supervisor_retries_a_fault_injected_restore_once() {
        use mcr_procsim::MemStore;

        let mut kernel = Kernel::new();
        let mut instance = booted(&mut kernel);
        drive_traffic(&mut kernel, &mut instance, 2);
        let store: Rc<RefCell<MemStore>> = Rc::new(RefCell::new(MemStore::new()));
        // Attempt 1 crashes the old instance *and* sabotages the recovery
        // restore at step 5; the supervisor retries the restore without the
        // fault (transient model) and the ladder still commits.
        let (instance, outcome) = supervised_update_durable(
            &mut kernel,
            instance,
            || Box::new(TinyServer::new(1)),
            || Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
            &SupervisorPolicy::default(),
            store as Rc<RefCell<dyn Store>>,
            CheckpointOptions::default(),
            |attempt| match attempt {
                1 => ChaosPlan::crashing_old_before(PhaseName::TraceAndTransfer)
                    .with(FaultSite::RestoreStep(5)),
                _ => ChaosPlan::none(),
            },
        );
        assert!(outcome.is_committed(), "retried restore commits: {:?}", outcome.conflicts());
        let report = outcome.report();
        assert!(report.attempts[0].recovered);
        assert_eq!(instance.state.version, "2.0");
    }

    #[test]
    fn durable_supervisor_survives_torn_checkpoint_write_and_retries() {
        use mcr_procsim::MemStore;

        let mut kernel = Kernel::new();
        let mut instance = booted(&mut kernel);
        drive_traffic(&mut kernel, &mut instance, 2);
        let store: Rc<RefCell<MemStore>> = Rc::new(RefCell::new(MemStore::new()));
        // Attempt 1's checkpoint write dies mid-block (torn write): the
        // attempt aborts with CheckpointFailed and rolls back — the old
        // instance never stopped existing — and attempt 2 remounts the
        // store, checkpoints cleanly, and commits.
        let (instance, outcome) = supervised_update_durable(
            &mut kernel,
            instance,
            || Box::new(TinyServer::new(1)),
            || Box::new(TinyServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
            &SupervisorPolicy::default(),
            store.clone() as Rc<RefCell<dyn Store>>,
            CheckpointOptions::default(),
            |attempt| match attempt {
                1 => FaultSite::TornWrite(2).plan(),
                _ => ChaosPlan::none(),
            },
        );
        assert!(outcome.is_committed(), "retry after torn write commits: {:?}", outcome.conflicts());
        let report = outcome.report();
        assert_eq!(report.attempts.len(), 2);
        assert!(report.attempts[0].conflicts.iter().any(|c| matches!(c, Conflict::CheckpointFailed { .. })));
        assert!(!report.attempts[0].recovered, "rollback sufficed; no restore needed");
        assert!(report.attempts[1].committed);
        assert_eq!(instance.state.version, "2.0");
    }

    #[test]
    fn durable_checkpoint_follows_quiesce_in_every_mode_and_fits_a_tight_watchdog() {
        use mcr_procsim::MemStore;
        use PhaseName::*;

        let rounds = PrecopyOptions { rounds: 2, convergence_bytes: 0, serve_rounds: 1 };
        let modes = [
            (TransferMode::StopTheWorld, PrecopyOptions::disabled()),
            (TransferMode::Precopy, rounds),
            (TransferMode::Postcopy, PrecopyOptions::disabled()),
        ];
        let expected_orders = [
            vec![Quiesce, Checkpoint, ReinitReplay, MatchProcesses, TraceAndTransfer, Commit],
            vec![ReinitReplay, MatchProcesses, Precopy, Quiesce, Checkpoint, TraceAndTransfer, Commit],
            vec![ReinitReplay, MatchProcesses, Precopy, Quiesce, Checkpoint, PostcopyCommit, PostcopyDrain],
        ];
        let setup = || {
            let mut kernel = Kernel::new();
            let mut instance = booted(&mut kernel);
            drive_traffic(&mut kernel, &mut instance, 3);
            let store: Rc<RefCell<dyn Store>> = Rc::new(RefCell::new(MemStore::new()));
            (kernel, instance, store)
        };
        for ((mode, precopy), expected) in modes.into_iter().zip(expected_orders) {
            let opts = UpdateOptions { mode, precopy, ..UpdateOptions::default() };
            let (mut kernel, instance, store) = setup();
            let (_instance, clean) = supervised_update_durable(
                &mut kernel,
                instance,
                || Box::new(TinyServer::new(1)),
                || Box::new(TinyServer::new(2)),
                InstrumentationConfig::full(),
                &opts,
                &SupervisorPolicy::default(),
                store,
                CheckpointOptions::default(),
                |_| ChaosPlan::none(),
            );
            assert!(clean.is_committed(), "{mode:?}: {:?}", clean.conflicts());
            let report = clean.report();
            assert_eq!(report.attempts.len(), 1, "{mode:?}: the clean run commits first try");
            let executed: Vec<PhaseName> = report.phases.records().iter().map(|r| r.name).collect();
            assert_eq!(executed, expected, "{mode:?}: the checkpoint lands right after the barrier");

            // The same checkpointing pipeline under a budget equal to the
            // longest watched phase: every phase meets it, and the commit and
            // the drain are never watched — not even a drain that a post-copy
            // hook stalls past the budget on its first round.
            let longest = report
                .phases
                .records()
                .iter()
                .filter(|r| !matches!(r.name, Commit | PostcopyDrain))
                .map(|r| r.duration)
                .max()
                .expect("watched phases ran");
            let stall = SimDuration(2 * longest.0);
            let (mut kernel, instance, store) = setup();
            let (_instance, watched) = UpdatePipeline::for_options(&opts)
                .with_checkpoint(store, CheckpointOptions::default())
                .with_uniform_phase_deadline(longest)
                .with_postcopy_hook(Box::new(move |kernel: &mut Kernel, _: &mut McrInstance, round| {
                    if round == 1 {
                        kernel.advance_clock(stall);
                    }
                }))
                .run(
                    &mut kernel,
                    instance,
                    Box::new(TinyServer::new(2)),
                    InstrumentationConfig::full(),
                    &opts,
                );
            assert!(watched.is_committed(), "{mode:?} under a {longest:?} budget: {:?}", watched.conflicts());
            if mode == TransferMode::Postcopy {
                let drain = watched.report().phases.duration_of(PostcopyDrain).expect("the drain ran");
                assert!(drain > longest, "the stalled drain ({drain:?}) outlasts the budget");
            }
        }
    }
}
