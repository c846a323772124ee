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
//!    ([`FaultSite::plan`], [`ChaosPlan::with`]) or as a seeded randomized
//!    campaign ([`random_plan`] with [`ChaosRng`], the same deterministic
//!    xorshift64* generator the property-test suite uses — a seed fully
//!    reproduces a campaign).
//! 3. **Verify** — every injected schedule must roll back to a byte-identical
//!    old instance; when one does not, [`shrink_schedule`] reduces the
//!    failing schedule to a minimal reproducer (re-running the predicate on
//!    structurally smaller plans), which is what a bug report should carry.

use std::mem::discriminant;

use crate::runtime::pipeline::PhaseName;
use crate::runtime::report::UpdateReport;

/// One injectable fault site of a specific update scenario.
///
/// Sites order by kind, in declaration order, then by phase or n; a
/// [`ChaosPlan`] keeps its counted sites in that kind order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    /// A crash of the checkpoint store instead of the n-th (1-based) block
    /// this attempt writes: the blocks before it persist, it and everything
    /// after are lost, and every later store call fails until the store is
    /// remounted. Exercises the shards-before-manifest commit protocol.
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
        ChaosPlan::none().with(*self)
    }

    /// The site's n-value; `None` for a boundary.
    fn n(mut self) -> Option<u64> {
        self.n_mut().copied()
    }

    fn n_mut(&mut self) -> Option<&mut u64> {
        match self {
            FaultSite::Boundary(_) => None,
            FaultSite::TransferObject(n)
            | FaultSite::Syscall(n)
            | FaultSite::FaultIn(n)
            | FaultSite::DrainStep(n)
            | FaultSite::ManifestWrite(n)
            | FaultSite::TornWrite(n)
            | FaultSite::RestoreStep(n) => Some(n),
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

/// A chaos schedule: the [`FaultSite`]s one update attempt arms, plus an
/// optional crash of the serving version. A fault "after phase P" is a
/// fault before the next phase; there is deliberately no way to inject one
/// after `Commit`, because commit is the pipeline's atomic point — nothing
/// is reversible beyond it.
///
/// Plans compose: one schedule may arm several boundaries and one site of
/// each counted kind; the *first* site reached fires (each trigger is
/// one-shot, so a supervisor retry that re-runs the pipeline with the same
/// plan re-arms it). The sites are kept in one canonical order — boundaries
/// in insertion order, then the counted sites in [`FaultSite`] declaration
/// order — so plans arming the same faults compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    sites: Vec<FaultSite>,
    /// The old instance's processes are killed right before this phase —
    /// a crash of the *serving* version mid-update. Rollback cannot resume
    /// it; recovery needs a durable checkpoint.
    crash_old_before: Option<PhaseName>,
}

impl ChaosPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// A plan that kills the old instance's processes right before `phase`
    /// executes — the crash a restore-aware supervisor must recover from.
    pub fn crashing_old_before(phase: PhaseName) -> Self {
        ChaosPlan { crash_old_before: Some(phase), ..ChaosPlan::default() }
    }

    /// The plan with `site` armed too: a boundary is added once, a counted
    /// site replaces the plan's site of the same kind.
    #[must_use]
    pub fn with(mut self, site: FaultSite) -> Self {
        let at = if let FaultSite::Boundary(_) = site {
            if self.sites.contains(&site) {
                return self;
            }
            self.sites.partition_point(|s| matches!(s, FaultSite::Boundary(_)))
        } else {
            self.sites.retain(|s| discriminant(s) != discriminant(&site));
            self.sites.partition_point(|s| *s < site)
        };
        self.sites.insert(at, site);
        self
    }

    /// The armed sites, in canonical order.
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Whether a fault fires at the boundary before `phase`.
    pub fn fires_before(&self, phase: PhaseName) -> bool {
        self.sites.contains(&FaultSite::Boundary(phase))
    }

    /// Whether the old instance crashes right before `phase`.
    pub fn crashes_old_before(&self, phase: PhaseName) -> bool {
        self.crash_old_before == Some(phase)
    }

    /// The n of the armed site of one counted kind, named by its
    /// constructor: `plan.nth(FaultSite::Syscall)`.
    pub fn nth(&self, kind: fn(u64) -> FaultSite) -> Option<u64> {
        let kind = discriminant(&kind(0));
        self.sites.iter().find(|s| discriminant(*s) == kind)?.n()
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty() && self.crash_old_before.is_none()
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

/// The deterministic xorshift64* generator chaos campaigns (and the
/// property-test suite) run on, so a campaign is fully reproduced by its
/// seed.
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
        plan = plan.with(site);
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
        // Drop whole sites first — fewer arms beats smaller numbers. Each
        // candidate is derived from the *current* plan at the time it is
        // tried: a snapshot taken before the loop would re-add a site the
        // previous iteration just dropped, and the shrinker would oscillate
        // forever.
        let mut i = 0;
        while i < current.sites.len() {
            let mut candidate = current.clone();
            candidate.sites.remove(i);
            if fails(&candidate) {
                current = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if current.crash_old_before.is_some() {
            let candidate = ChaosPlan { crash_old_before: None, ..current.clone() };
            if fails(&candidate) {
                current = candidate;
                shrunk = true;
            }
        }
        // Then pull the surviving n-values down.
        for i in 0..current.sites.len() {
            let Some(n) = current.sites[i].n() else { continue };
            for smaller in [1, n / 2, n - 1] {
                if smaller > 0 && smaller < n {
                    let mut candidate = current.clone();
                    *candidate.sites[i].n_mut().expect("a counted site") = smaller;
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
        let commit = FaultSite::Boundary(PhaseName::Commit);
        for site in [
            commit,
            FaultSite::TransferObject(7),
            FaultSite::Syscall(9),
            FaultSite::FaultIn(4),
            FaultSite::DrainStep(2),
            FaultSite::ManifestWrite(3),
            FaultSite::TornWrite(1),
            FaultSite::RestoreStep(8),
        ] {
            assert_eq!(site.plan().sites(), [site], "{site}");
        }
        assert!(commit.plan().fires_before(PhaseName::Commit));
        assert_eq!(FaultSite::TransferObject(7).plan().nth(FaultSite::TransferObject), Some(7));
        assert_eq!(FaultSite::Syscall(9).plan().nth(FaultSite::Syscall), Some(9));
        assert_eq!(FaultSite::Syscall(9).plan().nth(FaultSite::TransferObject), None);
        assert_eq!(FaultSite::Syscall(9).kind(), "syscall");
        assert_eq!(FaultSite::Syscall(9).to_string(), "syscall:9");
        assert_eq!(FaultSite::FaultIn(4).plan().nth(FaultSite::FaultIn), Some(4));
        assert_eq!(FaultSite::FaultIn(4).kind(), "fault-in");
        assert_eq!(FaultSite::FaultIn(4).to_string(), "fault-in:4");
        assert_eq!(FaultSite::DrainStep(2).plan().nth(FaultSite::DrainStep), Some(2));
        assert_eq!(FaultSite::DrainStep(2).kind(), "drain-step");
        assert_eq!(FaultSite::DrainStep(2).to_string(), "drain-step:2");
        assert_eq!(FaultSite::ManifestWrite(3).plan().nth(FaultSite::ManifestWrite), Some(3));
        assert_eq!(FaultSite::ManifestWrite(3).kind(), "manifest-write");
        assert_eq!(FaultSite::ManifestWrite(3).to_string(), "manifest-write:3");
        assert_eq!(FaultSite::TornWrite(1).plan().nth(FaultSite::TornWrite), Some(1));
        assert_eq!(FaultSite::TornWrite(1).kind(), "torn-write");
        assert_eq!(FaultSite::TornWrite(1).to_string(), "torn-write:1");
        assert_eq!(FaultSite::RestoreStep(8).plan().nth(FaultSite::RestoreStep), Some(8));
        assert_eq!(FaultSite::RestoreStep(8).kind(), "restore-step");
        assert_eq!(FaultSite::RestoreStep(8).to_string(), "restore-step:8");

        // `with` keeps one canonical order, whatever the order of the calls.
        assert_eq!(
            commit.plan().with(FaultSite::TransferObject(1)),
            FaultSite::TransferObject(1).plan().with(commit)
        );
        assert_eq!(
            FaultSite::Syscall(2).plan().with(FaultSite::TransferObject(1)).sites(),
            [FaultSite::TransferObject(1), FaultSite::Syscall(2)]
        );
        // A second counted site of a kind replaces the first ...
        assert_eq!(FaultSite::Syscall(9).plan().with(FaultSite::Syscall(2)), FaultSite::Syscall(2).plan());
        // ... and a boundary already armed is not added again.
        assert_eq!(commit.plan().with(commit).sites(), [commit]);
    }

    #[test]
    fn shrinker_reduces_postcopy_triggers() {
        // Synthetic failure: reproduces iff a fault-in trigger >= 3 is armed.
        let fails = |p: &ChaosPlan| p.nth(FaultSite::FaultIn).is_some_and(|n| n >= 3);
        let noisy = FaultSite::Boundary(PhaseName::PostcopyCommit)
            .plan()
            .with(FaultSite::FaultIn(40))
            .with(FaultSite::DrainStep(7));
        let minimal = shrink_schedule(&noisy, fails);
        assert_eq!(minimal, FaultSite::FaultIn(3).plan(), "1-minimal reproducer");

        // And a drain-step-only failure sheds the fault-in arm.
        let fails = |p: &ChaosPlan| p.nth(FaultSite::DrainStep).is_some();
        let noisy = FaultSite::FaultIn(2).plan().with(FaultSite::DrainStep(9));
        assert_eq!(shrink_schedule(&noisy, fails), FaultSite::DrainStep(1).plan());
    }

    #[test]
    fn shrinker_reduces_checkpoint_and_restore_triggers() {
        // Synthetic failure: reproduces iff a torn-write trigger >= 2 is armed.
        let fails = |p: &ChaosPlan| p.nth(FaultSite::TornWrite).is_some_and(|n| n >= 2);
        let noisy =
            FaultSite::ManifestWrite(9).plan().with(FaultSite::TornWrite(30)).with(FaultSite::RestoreStep(6));
        assert_eq!(shrink_schedule(&noisy, fails), FaultSite::TornWrite(2).plan());

        // A restore-step-only failure sheds both write triggers.
        let fails = |p: &ChaosPlan| p.nth(FaultSite::RestoreStep).is_some();
        let noisy = FaultSite::ManifestWrite(2).plan().with(FaultSite::RestoreStep(11));
        assert_eq!(shrink_schedule(&noisy, fails), FaultSite::RestoreStep(1).plan());

        // A crash-old arm that does not matter is dropped.
        let fails = |p: &ChaosPlan| p.nth(FaultSite::ManifestWrite).is_some();
        let noisy = ChaosPlan::crashing_old_before(PhaseName::Commit).with(FaultSite::ManifestWrite(5));
        assert_eq!(shrink_schedule(&noisy, fails), FaultSite::ManifestWrite(1).plan());
    }

    #[test]
    fn shrinker_drops_irrelevant_triggers_and_lowers_counts() {
        // Synthetic failure: reproduces iff a syscall trigger >= 5 is armed.
        let fails = |p: &ChaosPlan| p.nth(FaultSite::Syscall).is_some_and(|n| n >= 5);
        let noisy = FaultSite::Boundary(PhaseName::Quiesce)
            .plan()
            .with(FaultSite::Boundary(PhaseName::Commit))
            .with(FaultSite::TransferObject(123))
            .with(FaultSite::Syscall(64));
        let minimal = shrink_schedule(&noisy, fails);
        assert_eq!(minimal, FaultSite::Syscall(5).plan(), "1-minimal reproducer");
    }

    #[test]
    fn shrinker_keeps_a_required_boundary_and_nonfailing_plans_unchanged() {
        let commit = FaultSite::Boundary(PhaseName::Commit);
        let fails =
            |p: &ChaosPlan| p.fires_before(PhaseName::Commit) && p.nth(FaultSite::TransferObject).is_some();
        let noisy = FaultSite::Boundary(PhaseName::Quiesce)
            .plan()
            .with(commit)
            .with(FaultSite::TransferObject(8))
            .with(FaultSite::Syscall(3));
        let minimal = shrink_schedule(&noisy, fails);
        assert_eq!(minimal, commit.plan().with(FaultSite::TransferObject(1)));

        let passing = FaultSite::Syscall(2).plan();
        assert_eq!(shrink_schedule(&passing, |_| false), passing, "non-failing plan untouched");
    }

    #[test]
    fn shrinker_terminates_when_a_dropped_trigger_is_redundant() {
        // Regression: the failure only needs the boundary, so both the
        // object and the syscall trigger are redundant. A shrinker that
        // derives drop candidates from a stale snapshot re-adds one of them
        // every pass and never terminates.
        let quiesce = FaultSite::Boundary(PhaseName::Quiesce);
        let fails = |p: &ChaosPlan| p.fires_before(PhaseName::Quiesce);
        let noisy = quiesce.plan().with(FaultSite::TransferObject(9));
        assert_eq!(shrink_schedule(&noisy, fails), quiesce.plan());

        let noisier = quiesce.plan().with(FaultSite::TransferObject(9)).with(FaultSite::Syscall(4));
        assert_eq!(shrink_schedule(&noisier, fails), quiesce.plan());
    }

    #[test]
    fn random_plans_are_nonempty_over_a_nonempty_catalog() {
        let c = catalog();
        let mut rng = ChaosRng::new(2024);
        let mut saw_multi = false;
        for _ in 0..100 {
            let plan = random_plan(&mut rng, &c);
            assert!(!plan.is_empty());
            saw_multi |= plan.sites().len() >= 2;
        }
        assert!(saw_multi, "multi-trigger schedules appear in a campaign");
        assert!(random_plan(&mut ChaosRng::new(1), &FaultCatalog::default()).is_empty());
    }
}
