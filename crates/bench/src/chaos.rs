//! Chaos-campaign harness: enumerate fault sites, inject seeded schedules,
//! verify byte-identical rollback, and drive the self-healing supervisor.
//!
//! The campaign runs one update scenario under every transfer mode
//! (stop-the-world, pre-copy, post-copy). Per mode it:
//!
//! 1. performs a clean dry run and derives the [`FaultCatalog`] (every phase
//!    boundary, transfer-object write and pipeline syscall is a site);
//! 2. builds a schedule list — every boundary, the n-th-object,
//!    n-th-syscall, n-th-fault-in and n-th-drain-step sweeps, plus seeded
//!    random schedules from [`random_plan`]. Only the tracked smoke campaign
//!    caps its sweeps (evenly spread picks, each cap logged); a unit test
//!    sweeps the same scenario uncapped;
//! 3. for each schedule asserts the *safety* property: the injected fault
//!    rolls the update back to a kernel the [`Observed`] oracle finds
//!    identical to the pre-update one, byte for byte and with the old
//!    version's audit unchanged (a subsample is re-run to check the rollback
//!    is also deterministic: same conflicts, same divergences);
//! 4. for each schedule asserts the *liveness* property: a supervised update
//!    with the fault injected into the early attempt(s) converges to a
//!    committed update on the [`DegradationTier`] ladder;
//! 5. runs a give-up drill (persistent fault, bounded attempts — the old
//!    version must keep accepting) and a watchdog drill (1 ns phase budgets
//!    — every phase overruns, the pipeline must roll back cleanly).
//!
//! Any divergence is shrunk to a minimal reproducer with
//! [`shrink_schedule`]; the reproducer plus the campaign seed is everything
//! needed to replay the failure.

use std::collections::BTreeSet;

use mcr_core::runtime::{
    random_plan, shrink_schedule, supervised_update, time_to_recovery, ChaosPlan, ChaosRng, DegradationTier,
    FaultCatalog, FaultSite, PrecopyOptions, SupervisorPolicy, TransferMode, UpdateOptions, UpdatePipeline,
};
use mcr_core::{Conflict, McrInstance, PhaseName};
use mcr_procsim::{Kernel, SimDuration};
use mcr_servers::program_by_name;
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::workload_for;

use crate::{served, Json, Observed};

/// Every transfer mode the campaign sweeps, in row order (a mode's index
/// seeds its random schedules). Post-copy exercises the fault-in and
/// drain-step sites.
pub const CONFIGS: [TransferMode; 3] =
    [TransferMode::StopTheWorld, TransferMode::Precopy, TransferMode::Postcopy];

/// Campaign sizing: scenario, schedule counts and determinism-check cadence.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Program under chaos (one of the evaluated server models).
    pub(crate) program: &'static str,
    /// Standard-workload requests run before the update.
    pub(crate) requests: u64,
    /// Idle connections open at update time.
    pub(crate) open_connections: usize,
    /// Seeded random schedules per mode, on top of the directed
    /// boundary/object/syscall sweeps.
    pub(crate) random_schedules: usize,
    /// Cap on the directed n-th-object sweep (evenly spread when capped).
    pub(crate) max_object_sites: usize,
    /// Cap on the directed n-th-syscall sweep (evenly spread when capped).
    pub(crate) max_syscall_sites: usize,
    /// Cap on the directed n-th-fault-in sweep (post-copy only).
    pub(crate) max_fault_in_sites: usize,
    /// Cap on the directed n-th-drain-step sweep (post-copy only).
    pub(crate) max_drain_step_sites: usize,
    /// Campaign seed; the whole campaign is a pure function of it.
    pub(crate) seed: u64,
    /// Every n-th schedule is run twice to check rollback determinism.
    pub(crate) rerun_every: usize,
    /// Every n-th fired schedule also gets a supervised (self-healing) run;
    /// 1 supervises every schedule (the smoke setting).
    pub(crate) supervise_every: usize,
}

impl ChaosSpec {
    /// The campaign behind the tracked `BENCH_chaos.json`, which the root
    /// `tests/tracked_reports.rs` rebuilds (>= 50 schedules for each of the
    /// three modes).
    pub fn smoke() -> Self {
        ChaosSpec {
            program: "vsftpd",
            requests: 3,
            open_connections: 6,
            random_schedules: 32,
            max_object_sites: 8,
            max_syscall_sites: 8,
            max_fault_in_sites: 4,
            max_drain_step_sites: 4,
            seed: 0xC4A0_5EED,
            rerun_every: 8,
            supervise_every: 1,
        }
    }
}

/// Everything one mode's sweep measured.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// The transfer mode swept.
    pub mode: TransferMode,
    /// The enumerated site space of the clean dry run.
    pub catalog: FaultCatalog,
    /// Schedules injected.
    pub schedules: usize,
    /// Schedules whose fault actually fired (rolled the update back).
    pub fired: usize,
    /// Schedules that unexpectedly committed (armed site never reached).
    pub unexpected_commits: usize,
    /// Rollbacks the oracle found different from the pre-update state. The
    /// campaign's safety assertion is that this is 0.
    pub divergences: usize,
    /// Re-run subsample disagreements (conflicts or divergences) — rollback
    /// nondeterminism.
    pub rerun_mismatches: usize,
    /// Minimal reproducers (shrunk schedules) for any divergence.
    pub repros: Vec<String>,
    /// Distinct sites armed by schedules that fired.
    pub sites_injected: usize,
    /// Directed sweeps that could not cover their whole dimension.
    pub(crate) capped: Vec<String>,
    /// Supervised runs performed / converged to a committed update.
    pub supervisor_runs: usize,
    /// See `supervisor_runs`; the liveness assertion is equality.
    pub supervisor_committed: usize,
    /// Commits per degradation tier: `[full, no-precopy]`.
    pub tier_commits: [usize; 2],
    /// Mean time-to-recovery (virtual ns) over committed supervised runs.
    pub(crate) mttr_mean_ns: f64,
    /// The persistent-fault give-up drill ended with the old version still
    /// accepting connections.
    pub give_up_clean: bool,
    /// The 1 ns phase-budget drill rolled back with a watchdog conflict to
    /// the pre-update state.
    pub watchdog_clean: bool,
}

impl ConfigOutcome {
    /// Fraction of the enumerated site space some fired schedule armed.
    pub fn coverage_ratio(&self) -> f64 {
        let total = self.catalog.total_sites();
        if total == 0 {
            return 0.0;
        }
        self.sites_injected as f64 / total as f64
    }

    /// True when every safety and liveness assertion of this mode held.
    pub(crate) fn clean(&self) -> bool {
        self.divergences == 0
            && self.unexpected_commits == 0
            && self.rerun_mismatches == 0
            && self.supervisor_committed == self.supervisor_runs
            && self.give_up_clean
            && self.watchdog_clean
    }
}

fn options_for(mode: TransferMode) -> UpdateOptions {
    // The campaign's simulated timings (`BENCH_chaos.json`) are charged at
    // the serial sum; only the pre-copy cell runs (two) rounds.
    let rounds = if mode == TransferMode::Precopy { 2 } else { 0 };
    let precopy = PrecopyOptions { rounds, convergence_bytes: 0, serve_rounds: 1 };
    UpdateOptions { transfer_workers: 1, precopy, mode, ..Default::default() }
}

/// [`served`] at the scenario's sizes: the exact pre-update state every
/// campaign run starts from (the virtual kernel is deterministic).
fn setup(spec: &ChaosSpec) -> (Kernel, McrInstance) {
    served(spec.program, spec.requests, spec.open_connections, InstrumentationConfig::full())
}

/// Clean dry run: commits and yields the mode's [`FaultCatalog`].
pub fn enumerate_sites(spec: &ChaosSpec, mode: TransferMode) -> FaultCatalog {
    let opts = options_for(mode);
    let (mut kernel, v1) = setup(spec);
    let (_v2, outcome) = UpdatePipeline::for_options(&opts).run(
        &mut kernel,
        v1,
        Box::new(program_by_name(spec.program, 2)),
        InstrumentationConfig::full(),
        &opts,
    );
    assert!(outcome.is_committed(), "{}: clean dry run must commit: {:?}", mode.label(), outcome.conflicts());
    FaultCatalog::from_report(outcome.report())
}

/// What one injected schedule did.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyResult {
    /// The armed fault fired and the update rolled back.
    pub(crate) fired: bool,
    /// What the oracle found different between the rolled-back kernel and
    /// the pre-update one (empty when the rollback was byte-identical).
    pub(crate) diverged: Vec<String>,
    /// Rollback conflicts (debug-rendered, stable across identical runs).
    pub conflicts: Vec<String>,
}

/// Runs one schedule and checks the byte-identical-rollback property.
pub fn verify_rollback(spec: &ChaosSpec, mode: TransferMode, plan: &ChaosPlan) -> VerifyResult {
    let opts = options_for(mode);
    let (mut kernel, v1) = setup(spec);
    let before = Observed::of(&kernel, &v1, None);
    assert!(before.audit.is_some(), "{}: the chaos scenario's program audits its state", spec.program);
    let (survivor, outcome) = UpdatePipeline::for_options(&opts).with_fault_plan(plan.clone()).run(
        &mut kernel,
        v1,
        Box::new(program_by_name(spec.program, 2)),
        InstrumentationConfig::full(),
        &opts,
    );
    VerifyResult {
        fired: !outcome.is_committed(),
        diverged: if outcome.is_committed() {
            Vec::new()
        } else {
            Observed::of(&kernel, &survivor, None).divergences(&before)
        },
        conflicts: outcome.conflicts().iter().map(|c| format!("{c:?}")).collect(),
    }
}

/// One supervised (self-healing) run against a schedule.
#[derive(Debug, Clone)]
pub(crate) struct SupervisedResult {
    /// The ladder converged to a committed update.
    pub(crate) committed: bool,
    /// Tier the committing attempt ran at (`None` if it gave up).
    pub(crate) tier: Option<DegradationTier>,
    /// Virtual time from first attempt to commit.
    pub(crate) mttr_ns: Option<u64>,
}

/// Supervised update with `plan` injected into the first `faulty_attempts`
/// attempts and later attempts clean.
pub(crate) fn supervised_run(
    spec: &ChaosSpec,
    mode: TransferMode,
    plan: &ChaosPlan,
    faulty_attempts: usize,
    policy: &SupervisorPolicy,
) -> SupervisedResult {
    let opts = options_for(mode);
    let (mut kernel, v1) = setup(spec);
    let program = spec.program;
    let plan = plan.clone();
    let (_survivor, outcome) = supervised_update(
        &mut kernel,
        v1,
        || Box::new(program_by_name(program, 2)),
        InstrumentationConfig::full(),
        &opts,
        policy,
        move |attempt| if attempt <= faulty_attempts { plan.clone() } else { ChaosPlan::none() },
    );
    let report = outcome.report();
    SupervisedResult {
        committed: outcome.is_committed(),
        tier: report.attempts.iter().find(|a| a.committed).map(|a| a.tier),
        mttr_ns: time_to_recovery(report).map(|d| d.0),
    }
}

/// Persistent-fault drill: every attempt dies at the commit boundary with a
/// bounded ladder; the supervisor must give up and leave the old version,
/// byte-identical and with its audit unchanged, accepting connections. Post-copy pipelines commit
/// at `PostcopyCommit` (there is no `Commit` phase to fault), so the drill
/// targets both.
fn give_up_drill(spec: &ChaosSpec, mode: TransferMode) -> bool {
    let opts = options_for(mode);
    let (mut kernel, v1) = setup(spec);
    let before = Observed::of(&kernel, &v1, None);
    let program = spec.program;
    let policy = SupervisorPolicy { max_attempts: 2 };
    let (mut survivor, outcome) = supervised_update(
        &mut kernel,
        v1,
        || Box::new(program_by_name(program, 2)),
        InstrumentationConfig::full(),
        &opts,
        &policy,
        |_| {
            FaultSite::Boundary(PhaseName::Commit).plan().with(FaultSite::Boundary(PhaseName::PostcopyCommit))
        },
    );
    let rolled_back = Observed::of(&kernel, &survivor, None);
    if outcome.is_committed() || outcome.report().attempts.len() != 2 || rolled_back != before {
        return false;
    }
    let port = workload_for(spec.program, 1).port;
    let Ok(conn) = kernel.client_connect(port) else { return false };
    let _ = mcr_core::runtime::run_rounds(&mut kernel, &mut survivor, 3);
    kernel.client_is_accepted(conn)
}

/// Watchdog drill: 1 ns phase budgets make the very first phase overrun;
/// the pipeline must roll back with a watchdog conflict to a byte-identical
/// kernel with an unchanged audit.
fn watchdog_drill(spec: &ChaosSpec, mode: TransferMode) -> bool {
    let opts = options_for(mode);
    let (mut kernel, v1) = setup(spec);
    let before = Observed::of(&kernel, &v1, None);
    let (survivor, outcome) =
        UpdatePipeline::for_options(&opts).with_uniform_phase_deadline(SimDuration(1)).run(
            &mut kernel,
            v1,
            Box::new(program_by_name(spec.program, 2)),
            InstrumentationConfig::full(),
            &opts,
        );
    !outcome.is_committed()
        && outcome.conflicts().iter().any(|c| matches!(c, Conflict::WatchdogExpired { .. }))
        && Observed::of(&kernel, &survivor, None) == before
}

/// Evenly spread 1-based indices over `[1, total]`, at most `max` of them.
/// The bool is true when the dimension had to be capped.
fn spread(total: u64, max: usize) -> (Vec<u64>, bool) {
    if total == 0 || max == 0 {
        return (Vec::new(), total > 0);
    }
    if total <= max as u64 {
        return ((1..=total).collect(), false);
    }
    if max == 1 {
        // A single pick: take the midpoint — the endpoints are the least
        // representative samples of a long sweep.
        return (vec![1 + (total - 1) / 2], true);
    }
    let max = max as u64;
    let mut picks: Vec<u64> = (0..max).map(|i| 1 + i * (total - 1) / (max - 1)).collect();
    picks.dedup();
    (picks, true)
}

/// Runs the full sweep for one mode; `config_index` (its index in
/// [`CONFIGS`]) seeds the random schedules.
pub(crate) fn run_config(spec: &ChaosSpec, mode: TransferMode, config_index: u64) -> ConfigOutcome {
    let catalog = enumerate_sites(spec, mode);
    let mut capped = Vec::new();

    // Directed schedules: every boundary, then the spread n-th-site sweeps.
    // Post-copy also sweeps the commit-far-side sites: parked-object
    // fault-ins and background drain batches (both zero for synchronous
    // modes, so these sweeps are empty there).
    let mut schedules: Vec<ChaosPlan> =
        catalog.boundaries.iter().map(|&b| FaultSite::Boundary(b).plan()).collect();
    let directed = [
        (
            "transfer-object",
            catalog.transfer_objects,
            spec.max_object_sites,
            FaultSite::TransferObject as fn(u64) -> FaultSite,
        ),
        ("syscall", catalog.syscalls, spec.max_syscall_sites, FaultSite::Syscall),
        ("fault-in", catalog.fault_ins, spec.max_fault_in_sites, FaultSite::FaultIn),
        ("drain-step", catalog.drain_steps, spec.max_drain_step_sites, FaultSite::DrainStep),
    ];
    for (dimension, total, max, site) in directed {
        let (picks, was_capped) = spread(total, max);
        if was_capped {
            capped.push(format!("{dimension} sweep capped: {} of {total} sites", picks.len()));
        }
        schedules.extend(picks.into_iter().map(|n| site(n).plan()));
    }

    // Seeded random schedules (possibly multi-trigger).
    let mut rng = ChaosRng::new(spec.seed ^ (config_index.wrapping_mul(0x9E37_79B9)));
    for _ in 0..spec.random_schedules {
        let plan = random_plan(&mut rng, &catalog);
        if !plan.is_empty() {
            schedules.push(plan);
        }
    }

    let mut fired = 0;
    let mut supervisor_runs = 0;
    let mut unexpected_commits = 0;
    let mut divergences = 0;
    let mut rerun_mismatches = 0;
    let mut repros = Vec::new();
    let mut injected: BTreeSet<String> = BTreeSet::new();
    let mut supervisor_committed = 0;
    let mut tier_commits = [0usize; 2];
    let mut mttr_sum = 0u64;
    let policy = SupervisorPolicy::default();

    for (i, plan) in schedules.iter().enumerate() {
        let result = verify_rollback(spec, mode, plan);
        if !result.fired {
            unexpected_commits += 1;
            repros.push(format!("never fired: {plan:?}"));
            continue;
        }
        fired += 1;
        for site in plan.sites() {
            injected.insert(site.to_string());
        }
        if !result.diverged.is_empty() {
            divergences += 1;
            let diverges =
                |candidate: &ChaosPlan| !verify_rollback(spec, mode, candidate).diverged.is_empty();
            let minimal = shrink_schedule(plan, diverges);
            let fields = verify_rollback(spec, mode, &minimal).diverged;
            repros.push(format!("divergence: {minimal:?} (seed {:#x}): {fields:?}", spec.seed));
        }
        if spec.rerun_every > 0 && i % spec.rerun_every == 0 {
            let again = verify_rollback(spec, mode, plan);
            if again != result {
                rerun_mismatches += 1;
                repros.push(format!("nondeterministic rollback: {plan:?}"));
            }
        }

        // Liveness: the supervisor must converge once the fault clears.
        // Every third schedule keeps faulting through attempt 2, so attempt
        // 3 commits on the stop-the-world tier again.
        if spec.supervise_every > 0 && i % spec.supervise_every == 0 {
            supervisor_runs += 1;
            let faulty_attempts = if i % 3 == 2 { 2 } else { 1 };
            let supervised = supervised_run(spec, mode, plan, faulty_attempts, &policy);
            if supervised.committed {
                supervisor_committed += 1;
                if let Some(tier) = supervised.tier {
                    tier_commits[match tier {
                        DegradationTier::Full => 0,
                        DegradationTier::NoPrecopy => 1,
                    }] += 1;
                }
                mttr_sum += supervised.mttr_ns.unwrap_or(0);
            } else {
                repros.push(format!("supervisor failed to converge: {plan:?}"));
            }
        }
    }

    ConfigOutcome {
        mode,
        catalog,
        schedules: schedules.len(),
        fired,
        unexpected_commits,
        divergences,
        rerun_mismatches,
        repros,
        sites_injected: injected.len(),
        capped,
        supervisor_runs,
        supervisor_committed,
        tier_commits,
        mttr_mean_ns: if supervisor_committed > 0 {
            mttr_sum as f64 / supervisor_committed as f64
        } else {
            0.0
        },
        give_up_clean: give_up_drill(spec, mode),
        watchdog_clean: watchdog_drill(spec, mode),
    }
}

/// Runs the campaign over every mode in [`CONFIGS`].
pub fn run_campaign(spec: &ChaosSpec) -> Vec<ConfigOutcome> {
    CONFIGS.iter().enumerate().map(|(i, &mode)| run_config(spec, mode, i as u64)).collect()
}

/// Renders the campaign as the `BENCH_chaos.json` document.
pub fn chaos_json(spec: &ChaosSpec, rows: &[ConfigOutcome]) -> Json {
    let totals = Json::obj([
        ("schedules", rows.iter().map(|r| r.schedules).sum::<usize>().into()),
        ("fired", rows.iter().map(|r| r.fired).sum::<usize>().into()),
        ("divergences", rows.iter().map(|r| r.divergences).sum::<usize>().into()),
        ("rerun_mismatches", rows.iter().map(|r| r.rerun_mismatches).sum::<usize>().into()),
        ("unexpected_commits", rows.iter().map(|r| r.unexpected_commits).sum::<usize>().into()),
        ("supervisor_runs", rows.iter().map(|r| r.supervisor_runs).sum::<usize>().into()),
        ("supervisor_committed", rows.iter().map(|r| r.supervisor_committed).sum::<usize>().into()),
        ("all_clean", Json::Bool(rows.iter().all(ConfigOutcome::clean))),
    ]);
    Json::obj([
        ("experiment", Json::str("chaos_campaign")),
        ("program", Json::str(spec.program)),
        ("seed", Json::str(format!("{:#x}", spec.seed))),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("mode", Json::str(r.mode.label())),
                            ("precopy", Json::Bool(r.mode == TransferMode::Precopy)),
                            ("sites_enumerated", r.catalog.total_sites().into()),
                            ("boundary_sites", (r.catalog.boundaries.len() as u64).into()),
                            ("transfer_object_sites", r.catalog.transfer_objects.into()),
                            ("precopy_copy_sites", r.catalog.precopy_copies.into()),
                            ("syscall_sites", r.catalog.syscalls.into()),
                            ("fault_in_sites", r.catalog.fault_ins.into()),
                            ("drain_step_sites", r.catalog.drain_steps.into()),
                            ("schedules", r.schedules.into()),
                            ("fired", r.fired.into()),
                            ("unexpected_commits", r.unexpected_commits.into()),
                            ("divergences", r.divergences.into()),
                            ("rerun_mismatches", r.rerun_mismatches.into()),
                            ("sites_injected", r.sites_injected.into()),
                            ("site_coverage_ratio", Json::Num(r.coverage_ratio())),
                            ("capped", Json::Arr(r.capped.iter().map(|s| Json::str(s.clone())).collect())),
                            ("supervisor_runs", r.supervisor_runs.into()),
                            ("supervisor_committed", r.supervisor_committed.into()),
                            (
                                "tier_commits",
                                Json::obj([
                                    ("full", r.tier_commits[0].into()),
                                    ("no_precopy", r.tier_commits[1].into()),
                                ]),
                            ),
                            ("mttr_mean_ns", Json::Num(r.mttr_mean_ns)),
                            ("give_up_clean", Json::Bool(r.give_up_clean)),
                            ("watchdog_clean", Json::Bool(r.watchdog_clean)),
                            ("repros", Json::Arr(r.repros.iter().map(|s| Json::str(s.clone())).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("totals", totals),
    ])
}

#[cfg(test)]
mod tests {
    use super::{run_config, spread, ChaosSpec, CONFIGS};

    /// The tracked smoke scenario, swept whole: in every mode each boundary,
    /// transfer-object, syscall, fault-in and drain-step site is armed once,
    /// and each one rolls back byte-identical.
    #[test]
    fn exhaustive_sweep_covers_every_site_in_every_mode() {
        let spec = ChaosSpec {
            max_object_sites: usize::MAX,
            max_syscall_sites: usize::MAX,
            max_fault_in_sites: usize::MAX,
            max_drain_step_sites: usize::MAX,
            random_schedules: 0,
            supervise_every: 0,
            ..ChaosSpec::smoke()
        };
        for (i, &mode) in CONFIGS.iter().enumerate() {
            let outcome = run_config(&spec, mode, i as u64);
            let label = mode.label();
            assert!(outcome.capped.is_empty(), "{label}: {:?}", outcome.capped);
            assert!(outcome.clean(), "{label}: {:?}", outcome.repros);
            let total = outcome.catalog.total_sites();
            assert_eq!(
                outcome.coverage_ratio(),
                1.0,
                "{label}: {} of {total} sites armed",
                outcome.sites_injected
            );
        }
    }

    #[test]
    fn spread_honors_a_cap_of_one_and_spans_larger_sweeps() {
        // Regression: a cap of 1 used to be bumped to 2 picks.
        assert_eq!(spread(10, 1), (vec![5], true));
        assert_eq!(spread(2, 1), (vec![1], true));
        assert_eq!(spread(1, 1), (vec![1], false));
        assert_eq!(spread(0, 3), (vec![], false));
        assert_eq!(spread(5, 0), (vec![], true));
        assert_eq!(spread(3, 5), (vec![1, 2, 3], false));
        let (picks, capped) = spread(100, 4);
        assert_eq!((picks, capped), (vec![1, 34, 67, 100], true));
    }
}
