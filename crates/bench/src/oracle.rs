//! The update-equivalence oracle: the one way the tests and the campaigns
//! decide that two runs had the same outcome.
//!
//! The paper's safety argument is that a committed update equals a
//! stop-the-world one and a rollback equals an untouched old version.
//! [`Observed`] captures what such runs must agree on, and
//! [`Observed::divergences`] names every field that differs — for example
//! `per_process[2].objects_transferred 14 vs 15` or `audit lost [..] gained
//! [..]` — instead of reporting only that two hashes differ.
//!
//! What an update is allowed to change with its transfer mode or worker
//! count is not captured: the phase trace, the timings, `object_writes`,
//! the pre-copy and post-copy summaries and `transfer.workers`. The tests
//! that pin those assert them next to the oracle.

use mcr_core::runtime::{McrInstance, UpdateOutcome};
use mcr_core::transfer::ProcessTransferReport;
use mcr_core::{Conflict, InterposeStats, TracingStats};
use mcr_procsim::Kernel;
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::{open_idle_connections, workload_for};

use crate::boot_and_serve;

/// Boots generation 1 of `program` under `config`, serves `requests` of its
/// standard workload and opens `open` idle connections: the state the
/// compared runs start from.
///
/// # Panics
///
/// Panics if the server fails to boot or the workload cannot run.
pub fn served(
    program: &str,
    requests: u64,
    open: usize,
    config: InstrumentationConfig,
) -> (Kernel, McrInstance) {
    let (mut kernel, mut instance, _) = boot_and_serve(program, requests, config);
    let port = workload_for(program, 1).port;
    open_idle_connections(&mut kernel, &mut instance, port, open).expect("idle connections");
    (kernel, instance)
}

/// What one run ended with: the kernel state, the running program's audit
/// and, when the run attempted an update, what the update reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// [`Kernel::fingerprint`].
    pub(crate) fingerprint: u64,
    /// The running instance's [`McrInstance::audit`].
    pub(crate) audit: Option<Vec<(String, u64)>>,
    /// `None` for a run that attempted no update, such as the untouched
    /// baseline a rollback is held to.
    update: Option<UpdateFacts>,
}

/// The mode-independent part of an [`UpdateOutcome`].
#[derive(Debug, Clone, PartialEq)]
struct UpdateFacts {
    committed: bool,
    conflicts: Vec<Conflict>,
    per_process: Vec<ProcessTransferReport>,
    tracing: TracingStats,
    replay: InterposeStats,
    open_connections: usize,
    /// Processes matched plus processes recreated.
    pairs: usize,
}

/// Pushes `"{prefix}{field} {a:?} vs {b:?}"` for each named field of `a`
/// and `b` that differs.
macro_rules! differ {
    ($out:ident, $prefix:expr, $a:expr, $b:expr, [$($field:ident),+]) => {
        $(if $a.$field != $b.$field {
            $out.push(format!("{}{} {:?} vs {:?}", $prefix, stringify!($field), $a.$field, $b.$field));
        })+
    };
}

impl Observed {
    /// Observes `kernel` with `instance` running, after `outcome` if the run
    /// attempted an update.
    pub fn of(kernel: &Kernel, instance: &McrInstance, outcome: Option<&UpdateOutcome>) -> Self {
        let update = outcome.map(|outcome| {
            let report = outcome.report();
            UpdateFacts {
                committed: outcome.is_committed(),
                conflicts: outcome.conflicts().to_vec(),
                per_process: report.transfer.per_process.clone(),
                tracing: report.tracing,
                replay: report.replay,
                open_connections: report.open_connections,
                pairs: report.processes_matched + report.processes_recreated,
            }
        });
        Observed { fingerprint: kernel.fingerprint(), audit: instance.audit(kernel), update }
    }

    /// One line per field that differs from `other`, naming the field and
    /// both values; empty when the runs agree. The update's fields are
    /// compared only when both runs attempted one, so a rollback compared
    /// with an untouched baseline is held to its kernel state and audit.
    pub fn divergences(&self, other: &Observed) -> Vec<String> {
        let mut out = Vec::new();
        let updates = self.update.as_ref().zip(other.update.as_ref());
        if let Some((a, b)) = updates {
            differ!(out, "", a, b, [committed, conflicts]);
        }
        if self.fingerprint != other.fingerprint {
            out.push(format!("fingerprint {:#018x} vs {:#018x}", self.fingerprint, other.fingerprint));
        }
        match (&self.audit, &other.audit) {
            (Some(a), Some(b)) if a != b => {
                let lost: Vec<_> = a.iter().filter(|entry| !b.contains(entry)).collect();
                let gained: Vec<_> = b.iter().filter(|entry| !a.contains(entry)).collect();
                out.push(format!("audit lost {lost:?} gained {gained:?}"));
            }
            (a, b) if a.is_some() != b.is_some() => {
                let entries = |audit: &Option<Vec<_>>| audit.as_ref().map(Vec::len);
                out.push(format!("audit entries {:?} vs {:?}", entries(a), entries(b)));
            }
            _ => {}
        }
        let Some((a, b)) = updates else { return out };
        if a.per_process.len() != b.per_process.len() {
            out.push(format!("per_process.len() {} vs {}", a.per_process.len(), b.per_process.len()));
        }
        for (i, (x, y)) in a.per_process.iter().zip(&b.per_process).enumerate() {
            let (prefix, named) = (format!("per_process[{i}]."), out.len());
            differ!(out, prefix, x, y, [objects_transferred, bytes_transferred, objects_skipped_clean]);
            differ!(out, prefix, x, y, [objects_pinned, objects_allocated, conflicts, duration]);
            // A field this list does not name yet still shows.
            if x != y && out.len() == named {
                out.push(format!("per_process[{i}] {x:?} vs {y:?}"));
            }
        }
        differ!(out, "", a, b, [tracing, replay, open_connections, pairs]);
        out
    }
}

#[cfg(test)]
mod tests {
    use mcr_procsim::SimDuration;

    use super::*;

    /// An observation of a committed two-pair update with a three-entry audit.
    fn committed() -> Observed {
        let pair = |objects| ProcessTransferReport {
            objects_transferred: objects,
            duration: SimDuration(1_000),
            ..Default::default()
        };
        let update = UpdateFacts {
            committed: true,
            conflicts: Vec::new(),
            per_process: vec![pair(14), pair(3)],
            tracing: TracingStats::default(),
            replay: InterposeStats::default(),
            open_connections: 4,
            pairs: 2,
        };
        let audit = Some(vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 3)]);
        Observed { fingerprint: 0xF00D, audit, update: Some(update) }
    }

    fn facts(observed: &mut Observed) -> &mut UpdateFacts {
        observed.update.as_mut().expect("an update was observed")
    }

    fn fault() -> Vec<Conflict> {
        vec![Conflict::FaultInjected { phase: "commit".into() }]
    }

    /// `committed()` against a copy changed by `change`.
    fn divergences_after(change: fn(&mut Observed)) -> Vec<String> {
        let mut other = committed();
        change(&mut other);
        committed().divergences(&other)
    }

    #[test]
    fn divergences_name_exactly_the_field_that_differs() {
        assert_eq!(divergences_after(|_| {}), [""; 0], "identical runs agree");
        let fingerprint = divergences_after(|o| o.fingerprint = 0xBEEF);
        assert_eq!(fingerprint, ["fingerprint 0x000000000000f00d vs 0x000000000000beef"]);
        let audit =
            divergences_after(|o| o.audit = Some(vec![("a".into(), 1), ("c".into(), 4), ("d".into(), 5)]));
        assert_eq!(audit, [r#"audit lost [("b", 2), ("c", 3)] gained [("c", 4), ("d", 5)]"#]);
        assert_eq!(divergences_after(|o| o.audit = None), ["audit entries Some(3) vs None"]);
        let conflicts = divergences_after(|o| facts(o).conflicts = fault());
        assert_eq!(conflicts, [r#"conflicts [] vs [FaultInjected { phase: "commit" }]"#]);
        let pair = divergences_after(|o| facts(o).per_process[0].objects_transferred = 15);
        assert_eq!(pair, ["per_process[0].objects_transferred 14 vs 15"]);
        assert_eq!(divergences_after(|o| facts(o).committed = false), ["committed true vs false"]);
    }

    /// A run without an update is compared on its kernel state and audit
    /// only, so a rollback is held to the untouched baseline.
    #[test]
    fn a_baseline_is_compared_on_state_and_audit_only() {
        let mut rolled_back = committed();
        (facts(&mut rolled_back).committed, facts(&mut rolled_back).conflicts) = (false, fault());
        let baseline = Observed { update: None, ..committed() };
        assert_eq!(rolled_back.divergences(&baseline), [""; 0]);
        let moved = Observed { fingerprint: 1, ..baseline.clone() };
        assert_eq!(baseline.divergences(&moved), ["fingerprint 0x000000000000f00d vs 0x0000000000000001"]);
    }
}
