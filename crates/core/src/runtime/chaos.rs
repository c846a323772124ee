//! Fault-site enumeration, randomized chaos schedules, and schedule
//! shrinking.
//!
//! The chaos engine turns the pipeline's rollback guarantee into a
//! continuously verified property over an *enumerated* site space:
//!
//! 1. **Enumerate** — run the update once with no faults and derive a
//!    [`FaultCatalog`] from the clean run's [`UpdateReport`]: every phase
//!    boundary, every object write the transfer engine performed (including
//!    pre-copy round copies), and every kernel syscall issued while the
//!    pipeline was in flight is an injectable site.
//! 2. **Schedule** — build [`ChaosPlan`]s over the catalog, either directly
//!    ([`FaultSite::plan`]) or as a seeded randomized campaign
//!    ([`random_plan`] with [`ChaosRng`], the same deterministic xorshift64*
//!    generator the property-test suite uses — a seed fully reproduces a
//!    campaign).
//! 3. **Verify** — every injected schedule must roll back to a byte-identical
//!    old instance; when one does not, [`shrink_schedule`] reduces the
//!    failing schedule to a minimal reproducer (re-running the predicate on
//!    structurally smaller plans), which is what a bug report should carry.

use crate::runtime::pipeline::{ChaosPlan, PhaseName};
use crate::runtime::report::UpdateReport;

/// One injectable fault site of a specific update scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The boundary right before a pipeline phase.
    Boundary(PhaseName),
    /// The n-th (1-based) object write the transfer engine performs,
    /// counted across every pair and pre-copy round, in pair order.
    TransferObject(u64),
    /// The n-th (1-based) kernel syscall issued while the pipeline is in
    /// flight (serving rounds, startup replay, pre-copy traffic).
    Syscall(u64),
    /// The n-th (1-based) parked object a post-copy update applies after
    /// resume, counted across trap service and background drain batches.
    /// Fires while the *new* version is already serving — the commit-side
    /// rollback guarantee is exercised from the far side of the resume.
    FaultIn(u64),
    /// The n-th (1-based) background drain batch the post-copy drain loop
    /// starts (a commit-boundary class site: the batch fails before it
    /// applies anything).
    DrainStep(u64),
    /// A crash of the checkpoint store after the n-th (1-based) block this
    /// attempt writes: the block lands, everything after is lost, and every
    /// later store call fails until the store is remounted. Exercises the
    /// shards-before-manifest commit protocol.
    ManifestWrite(u64),
    /// A torn write at the n-th (1-based) block this attempt writes: the
    /// block is half-persisted (first half only), then the store crashes.
    /// The nastier sibling of `ManifestWrite` — a checksum must catch the
    /// mangled block on restore.
    TornWrite(u64),
    /// A crash at the n-th (1-based) step of a checkpoint restore (see
    /// [`RESTORE_STEPS`](crate::transfer::checkpoint::RESTORE_STEPS)). In a
    /// campaign this is a *drill* against a live system: the restore must
    /// fail with a typed error and leave the serving instance untouched.
    RestoreStep(u64),
}

impl FaultSite {
    /// The single-site chaos plan that injects exactly this fault.
    pub fn plan(&self) -> ChaosPlan {
        match *self {
            FaultSite::Boundary(phase) => ChaosPlan::at_boundaries([phase]),
            FaultSite::TransferObject(nth) => ChaosPlan::failing_at_transfer_object(nth),
            FaultSite::Syscall(nth) => ChaosPlan::failing_at_syscall(nth),
            FaultSite::FaultIn(nth) => ChaosPlan::failing_at_fault_in(nth),
            FaultSite::DrainStep(nth) => ChaosPlan::failing_at_drain_step(nth),
            FaultSite::ManifestWrite(nth) => ChaosPlan::failing_at_manifest_write(nth),
            FaultSite::TornWrite(nth) => ChaosPlan::failing_at_torn_write(nth),
            FaultSite::RestoreStep(nth) => ChaosPlan::failing_at_restore_step(nth),
        }
    }

    /// Short label for logs and bench output.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSite::Boundary(_) => "boundary",
            FaultSite::TransferObject(_) => "transfer-object",
            FaultSite::Syscall(_) => "syscall",
            FaultSite::FaultIn(_) => "fault-in",
            FaultSite::DrainStep(_) => "drain-step",
            FaultSite::ManifestWrite(_) => "manifest-write",
            FaultSite::TornWrite(_) => "torn-write",
            FaultSite::RestoreStep(_) => "restore-step",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Boundary(p) => write!(f, "boundary:{p}"),
            FaultSite::TransferObject(n) => write!(f, "transfer-object:{n}"),
            FaultSite::Syscall(n) => write!(f, "syscall:{n}"),
            FaultSite::FaultIn(n) => write!(f, "fault-in:{n}"),
            FaultSite::DrainStep(n) => write!(f, "drain-step:{n}"),
            FaultSite::ManifestWrite(n) => write!(f, "manifest-write:{n}"),
            FaultSite::TornWrite(n) => write!(f, "torn-write:{n}"),
            FaultSite::RestoreStep(n) => write!(f, "restore-step:{n}"),
        }
    }
}

/// The enumerated fault-site space of one update scenario, derived from a
/// clean (fault-free) dry run.
///
/// Sites are indexed densely — boundaries first, then object writes, then
/// syscalls — so a campaign can sample uniformly over the whole space with
/// one [`ChaosRng::range`] draw and report exact coverage ratios.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCatalog {
    /// Injectable phase boundaries, in execution order.
    pub boundaries: Vec<PhaseName>,
    /// Number of n-th-object-write sites (object writes the clean run
    /// performed, pre-copy rounds included).
    pub transfer_objects: u64,
    /// How many of `transfer_objects` were performed by concurrent pre-copy
    /// rounds (a sub-range, not additional sites: object-fault triggers
    /// with `nth <= precopy_copies` land while the old instance still
    /// serves).
    pub precopy_copies: u64,
    /// Number of n-th-syscall sites (syscalls the clean run issued while
    /// the pipeline was in flight).
    pub syscalls: u64,
    /// Number of n-th-fault-in sites: parked objects a post-copy run
    /// applied after resume (zero for synchronous modes).
    pub fault_ins: u64,
    /// Number of n-th-drain-step sites: background drain batches the
    /// post-copy drain loop started (zero for synchronous modes).
    pub drain_steps: u64,
    /// Number of store blocks the clean run's checkpoint phase wrote (zero
    /// when the pipeline ran without a checkpoint). Each block is both a
    /// crash site (`ManifestWrite`) and a torn-write site (`TornWrite`).
    pub checkpoint_blocks: u64,
    /// Number of restore steps drillable against this scenario
    /// ([`RESTORE_STEPS`](crate::transfer::checkpoint::RESTORE_STEPS) when a
    /// checkpoint exists, zero otherwise).
    pub restore_steps: u64,
}

impl FaultCatalog {
    /// Derives the catalog from a clean run's report. `report` must come
    /// from a *committed* fault-free attempt, otherwise the counts describe
    /// a truncated site space.
    pub fn from_report(report: &UpdateReport) -> Self {
        FaultCatalog {
            boundaries: report.phases.records().iter().map(|r| r.name).collect(),
            transfer_objects: report.object_writes,
            precopy_copies: report.precopy.precopied_objects(),
            syscalls: report.update_syscalls,
            fault_ins: report.postcopy.deferred_objects,
            drain_steps: report.postcopy.drain_steps,
            checkpoint_blocks: report.checkpoint.map_or(0, |c| c.blocks),
            restore_steps: report
                .checkpoint
                .map_or(0, |_| crate::transfer::checkpoint::RESTORE_STEPS.len() as u64),
        }
    }

    /// Total number of injectable sites.
    pub fn total_sites(&self) -> u64 {
        self.boundaries.len() as u64
            + self.transfer_objects
            + self.syscalls
            + self.fault_ins
            + self.drain_steps
            + self.checkpoint_blocks * 2
            + self.restore_steps
    }

    /// The site behind dense index `index` (see the type docs for the
    /// ordering), or `None` past the end of the space.
    pub fn site(&self, index: u64) -> Option<FaultSite> {
        let nb = self.boundaries.len() as u64;
        if index < nb {
            return Some(FaultSite::Boundary(self.boundaries[index as usize]));
        }
        let index = index - nb;
        if index < self.transfer_objects {
            return Some(FaultSite::TransferObject(index + 1));
        }
        let index = index - self.transfer_objects;
        if index < self.syscalls {
            return Some(FaultSite::Syscall(index + 1));
        }
        let index = index - self.syscalls;
        if index < self.fault_ins {
            return Some(FaultSite::FaultIn(index + 1));
        }
        let index = index - self.fault_ins;
        if index < self.drain_steps {
            return Some(FaultSite::DrainStep(index + 1));
        }
        let index = index - self.drain_steps;
        if index < self.checkpoint_blocks {
            return Some(FaultSite::ManifestWrite(index + 1));
        }
        let index = index - self.checkpoint_blocks;
        if index < self.checkpoint_blocks {
            return Some(FaultSite::TornWrite(index + 1));
        }
        let index = index - self.checkpoint_blocks;
        (index < self.restore_steps).then_some(FaultSite::RestoreStep(index + 1))
    }

    /// Draws one site uniformly over the whole space (`None` if the space
    /// is empty).
    pub fn sample(&self, rng: &mut ChaosRng) -> Option<FaultSite> {
        let total = self.total_sites();
        (total > 0).then(|| self.site(rng.range(0, total)).expect("index in range"))
    }
}

/// The deterministic xorshift64* generator chaos campaigns run on — the
/// same recurrence as the property-test suite's `Rng`, so a campaign is
/// fully reproduced by its seed.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Seeds the generator (any seed, including 0, is valid).
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next raw 64-bit draw.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[lo, hi)`; `hi` must be greater than `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.range(0, 100) < percent
    }
}

/// Draws a randomized schedule over the catalog: one site always, a second
/// independent site 25% of the time (multi-trigger plans exercise the
/// "first site reached fires" composition). Returns an empty plan only for
/// an empty catalog.
pub fn random_plan(rng: &mut ChaosRng, catalog: &FaultCatalog) -> ChaosPlan {
    let mut plan = ChaosPlan::none();
    let picks = if rng.chance(25) { 2 } else { 1 };
    for _ in 0..picks {
        let Some(site) = catalog.sample(rng) else { break };
        plan = match site {
            FaultSite::Boundary(p) if !plan.fires_before(p) => plan.and_before(p),
            FaultSite::Boundary(_) => plan,
            FaultSite::TransferObject(n) => plan.and_at_transfer_object(n),
            FaultSite::Syscall(n) => plan.and_at_syscall(n),
            FaultSite::FaultIn(n) => plan.and_at_fault_in(n),
            FaultSite::DrainStep(n) => plan.and_at_drain_step(n),
            FaultSite::ManifestWrite(n) => plan.and_at_manifest_write(n),
            FaultSite::TornWrite(n) => plan.and_at_torn_write(n),
            FaultSite::RestoreStep(n) => plan.and_at_restore_step(n),
        };
    }
    plan
}

/// Reduces a failing chaos schedule to a minimal reproducer.
///
/// `fails` must return `true` when the given plan still reproduces the
/// observed failure (it is re-invoked on candidate plans, so it should
/// re-run the scenario deterministically). The result is 1-minimal in the
/// tried moves: no single trigger can be dropped, and no n-value lowered to
/// `1`, `n/2` or `n-1`, without losing the failure. The input plan is
/// returned unchanged if it does not fail at all.
pub fn shrink_schedule(plan: &ChaosPlan, mut fails: impl FnMut(&ChaosPlan) -> bool) -> ChaosPlan {
    if !fails(plan) {
        return plan.clone();
    }
    let mut current = plan.clone();
    loop {
        let mut shrunk = false;
        // Drop whole triggers first — fewer arms beats smaller numbers.
        let mut b = 0;
        while b < current.boundaries().len() {
            let candidate = current.without_boundary(b);
            if fails(&candidate) {
                current = candidate;
                shrunk = true;
            } else {
                b += 1;
            }
        }
        // Each candidate must be derived from the *current* plan at the time
        // it is tried: a snapshot taken before the loop would re-add a
        // trigger the previous iteration just dropped, and the shrinker
        // would oscillate forever.
        let drops: [fn(&ChaosPlan) -> ChaosPlan; 8] = [
            ChaosPlan::without_transfer_object,
            ChaosPlan::without_syscall,
            ChaosPlan::without_fault_in,
            ChaosPlan::without_drain_step,
            ChaosPlan::without_manifest_write,
            ChaosPlan::without_torn_write,
            ChaosPlan::without_restore_step,
            ChaosPlan::without_crash_old,
        ];
        for drop_trigger in drops {
            let candidate = drop_trigger(&current);
            if candidate != current && fails(&candidate) {
                current = candidate;
                shrunk = true;
            }
        }
        // Then pull the surviving n-values down.
        if let Some(n) = current.at_transfer_object() {
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let candidate = current.clone().and_at_transfer_object(smaller);
                    if fails(&candidate) {
                        current = candidate;
                        shrunk = true;
                        break;
                    }
                }
            }
        }
        if let Some(n) = current.at_syscall() {
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let candidate = current.clone().and_at_syscall(smaller);
                    if fails(&candidate) {
                        current = candidate;
                        shrunk = true;
                        break;
                    }
                }
            }
        }
        if let Some(n) = current.at_fault_in() {
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let candidate = current.clone().and_at_fault_in(smaller);
                    if fails(&candidate) {
                        current = candidate;
                        shrunk = true;
                        break;
                    }
                }
            }
        }
        if let Some(n) = current.at_drain_step() {
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let candidate = current.clone().and_at_drain_step(smaller);
                    if fails(&candidate) {
                        current = candidate;
                        shrunk = true;
                        break;
                    }
                }
            }
        }
        if let Some(n) = current.at_manifest_write() {
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let candidate = current.clone().and_at_manifest_write(smaller);
                    if fails(&candidate) {
                        current = candidate;
                        shrunk = true;
                        break;
                    }
                }
            }
        }
        if let Some(n) = current.at_torn_write() {
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let candidate = current.clone().and_at_torn_write(smaller);
                    if fails(&candidate) {
                        current = candidate;
                        shrunk = true;
                        break;
                    }
                }
            }
        }
        if let Some(n) = current.at_restore_step() {
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let candidate = current.clone().and_at_restore_step(smaller);
                    if fails(&candidate) {
                        current = candidate;
                        shrunk = true;
                        break;
                    }
                }
            }
        }
        if !shrunk {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> FaultCatalog {
        FaultCatalog {
            boundaries: vec![PhaseName::Quiesce, PhaseName::ReinitReplay, PhaseName::Commit],
            transfer_objects: 10,
            precopy_copies: 4,
            syscalls: 20,
            fault_ins: 5,
            drain_steps: 3,
            checkpoint_blocks: 4,
            restore_steps: 15,
        }
    }

    #[test]
    fn dense_site_indexing_covers_the_space_exactly() {
        let c = catalog();
        assert_eq!(c.total_sites(), 64);
        assert_eq!(c.site(0), Some(FaultSite::Boundary(PhaseName::Quiesce)));
        assert_eq!(c.site(2), Some(FaultSite::Boundary(PhaseName::Commit)));
        assert_eq!(c.site(3), Some(FaultSite::TransferObject(1)));
        assert_eq!(c.site(12), Some(FaultSite::TransferObject(10)));
        assert_eq!(c.site(13), Some(FaultSite::Syscall(1)));
        assert_eq!(c.site(32), Some(FaultSite::Syscall(20)));
        assert_eq!(c.site(33), Some(FaultSite::FaultIn(1)));
        assert_eq!(c.site(37), Some(FaultSite::FaultIn(5)));
        assert_eq!(c.site(38), Some(FaultSite::DrainStep(1)));
        assert_eq!(c.site(40), Some(FaultSite::DrainStep(3)));
        assert_eq!(c.site(41), Some(FaultSite::ManifestWrite(1)));
        assert_eq!(c.site(44), Some(FaultSite::ManifestWrite(4)));
        assert_eq!(c.site(45), Some(FaultSite::TornWrite(1)));
        assert_eq!(c.site(48), Some(FaultSite::TornWrite(4)));
        assert_eq!(c.site(49), Some(FaultSite::RestoreStep(1)));
        assert_eq!(c.site(63), Some(FaultSite::RestoreStep(15)));
        assert_eq!(c.site(64), None);
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_in_range() {
        let c = catalog();
        let draw = |seed: u64| {
            let mut rng = ChaosRng::new(seed);
            (0..50).map(|_| c.sample(&mut rng).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42), "same seed, same campaign");
        assert_ne!(draw(42), draw(43), "different seeds diverge");
        let sites = draw(7);
        assert!(sites.iter().any(|s| matches!(s, FaultSite::Boundary(_))));
        assert!(sites.iter().any(|s| matches!(s, FaultSite::Syscall(_))));
        let empty = FaultCatalog::default();
        assert_eq!(empty.sample(&mut ChaosRng::new(1)), None);
    }

    #[test]
    fn site_plans_arm_the_matching_trigger() {
        assert!(FaultSite::Boundary(PhaseName::Commit).plan().fires_before(PhaseName::Commit));
        assert_eq!(FaultSite::TransferObject(7).plan().at_transfer_object(), Some(7));
        assert_eq!(FaultSite::Syscall(9).plan().at_syscall(), Some(9));
        assert_eq!(FaultSite::Syscall(9).kind(), "syscall");
        assert_eq!(FaultSite::Syscall(9).to_string(), "syscall:9");
        assert_eq!(FaultSite::FaultIn(4).plan().at_fault_in(), Some(4));
        assert_eq!(FaultSite::FaultIn(4).kind(), "fault-in");
        assert_eq!(FaultSite::FaultIn(4).to_string(), "fault-in:4");
        assert_eq!(FaultSite::DrainStep(2).plan().at_drain_step(), Some(2));
        assert_eq!(FaultSite::DrainStep(2).kind(), "drain-step");
        assert_eq!(FaultSite::DrainStep(2).to_string(), "drain-step:2");
        assert_eq!(FaultSite::ManifestWrite(3).plan().at_manifest_write(), Some(3));
        assert_eq!(FaultSite::ManifestWrite(3).kind(), "manifest-write");
        assert_eq!(FaultSite::ManifestWrite(3).to_string(), "manifest-write:3");
        assert_eq!(FaultSite::TornWrite(1).plan().at_torn_write(), Some(1));
        assert_eq!(FaultSite::TornWrite(1).kind(), "torn-write");
        assert_eq!(FaultSite::TornWrite(1).to_string(), "torn-write:1");
        assert_eq!(FaultSite::RestoreStep(8).plan().at_restore_step(), Some(8));
        assert_eq!(FaultSite::RestoreStep(8).kind(), "restore-step");
        assert_eq!(FaultSite::RestoreStep(8).to_string(), "restore-step:8");
    }

    #[test]
    fn shrinker_reduces_postcopy_triggers() {
        // Synthetic failure: reproduces iff a fault-in trigger >= 3 is armed.
        let fails = |p: &ChaosPlan| p.at_fault_in().is_some_and(|n| n >= 3);
        let noisy =
            ChaosPlan::at_boundaries([PhaseName::PostcopyCommit]).and_at_fault_in(40).and_at_drain_step(7);
        let minimal = shrink_schedule(&noisy, fails);
        assert_eq!(minimal, ChaosPlan::failing_at_fault_in(3), "1-minimal reproducer");

        // And a drain-step-only failure sheds the fault-in arm.
        let fails = |p: &ChaosPlan| p.at_drain_step().is_some();
        let noisy = ChaosPlan::failing_at_fault_in(2).and_at_drain_step(9);
        assert_eq!(shrink_schedule(&noisy, fails), ChaosPlan::failing_at_drain_step(1));
    }

    #[test]
    fn shrinker_reduces_checkpoint_and_restore_triggers() {
        // Synthetic failure: reproduces iff a torn-write trigger >= 2 is armed.
        let fails = |p: &ChaosPlan| p.at_torn_write().is_some_and(|n| n >= 2);
        let noisy = ChaosPlan::failing_at_manifest_write(9).and_at_torn_write(30).and_at_restore_step(6);
        assert_eq!(shrink_schedule(&noisy, fails), ChaosPlan::failing_at_torn_write(2));

        // A restore-step-only failure sheds both write triggers.
        let fails = |p: &ChaosPlan| p.at_restore_step().is_some();
        let noisy = ChaosPlan::failing_at_manifest_write(2).and_at_restore_step(11);
        assert_eq!(shrink_schedule(&noisy, fails), ChaosPlan::failing_at_restore_step(1));

        // A crash-old arm that does not matter is dropped.
        let fails = |p: &ChaosPlan| p.at_manifest_write().is_some();
        let noisy = ChaosPlan::crashing_old_before(PhaseName::Commit).and_at_manifest_write(5);
        assert_eq!(shrink_schedule(&noisy, fails), ChaosPlan::failing_at_manifest_write(1));
    }

    #[test]
    fn shrinker_drops_irrelevant_triggers_and_lowers_counts() {
        // Synthetic failure: reproduces iff a syscall trigger >= 5 is armed.
        let fails = |p: &ChaosPlan| p.at_syscall().is_some_and(|n| n >= 5);
        let noisy = ChaosPlan::at_boundaries([PhaseName::Quiesce, PhaseName::Commit])
            .and_at_transfer_object(123)
            .and_at_syscall(64);
        let minimal = shrink_schedule(&noisy, fails);
        assert_eq!(minimal, ChaosPlan::failing_at_syscall(5), "1-minimal reproducer");
    }

    #[test]
    fn shrinker_keeps_a_required_boundary_and_nonfailing_plans_unchanged() {
        let fails = |p: &ChaosPlan| p.fires_before(PhaseName::Commit) && p.at_transfer_object().is_some();
        let noisy = ChaosPlan::at_boundaries([PhaseName::Quiesce, PhaseName::Commit])
            .and_at_transfer_object(8)
            .and_at_syscall(3);
        let minimal = shrink_schedule(&noisy, fails);
        assert_eq!(minimal, ChaosPlan::at_boundaries([PhaseName::Commit]).and_at_transfer_object(1));

        let passing = ChaosPlan::failing_at_syscall(2);
        assert_eq!(shrink_schedule(&passing, |_| false), passing, "non-failing plan untouched");
    }

    #[test]
    fn shrinker_terminates_when_a_dropped_trigger_is_redundant() {
        // Regression: the failure only needs the boundary, so both the
        // object and the syscall trigger are redundant. A shrinker that
        // derives drop candidates from a stale snapshot re-adds one of them
        // every pass and never terminates.
        let fails = |p: &ChaosPlan| p.fires_before(PhaseName::Quiesce);
        let noisy = ChaosPlan::at_boundaries([PhaseName::Quiesce]).and_at_transfer_object(9);
        assert_eq!(shrink_schedule(&noisy, fails), ChaosPlan::at_boundaries([PhaseName::Quiesce]));

        let noisier =
            ChaosPlan::at_boundaries([PhaseName::Quiesce]).and_at_transfer_object(9).and_at_syscall(4);
        assert_eq!(shrink_schedule(&noisier, fails), ChaosPlan::at_boundaries([PhaseName::Quiesce]));
    }

    #[test]
    fn random_plans_are_nonempty_over_a_nonempty_catalog() {
        let c = catalog();
        let mut rng = ChaosRng::new(2024);
        let mut saw_multi = false;
        for _ in 0..100 {
            let plan = random_plan(&mut rng, &c);
            assert!(!plan.is_empty());
            saw_multi |= plan.arm_count() >= 2;
        }
        assert!(saw_multi, "multi-trigger schedules appear in a campaign");
        assert!(random_plan(&mut ChaosRng::new(1), &FaultCatalog::default()).is_empty());
    }
}
