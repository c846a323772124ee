//! Error and conflict types for the MCR runtime.

use std::fmt;

use mcr_procsim::SimError;

/// A conflict detected by mutable reinitialization or mutable tracing.
///
/// Conflicts are the paper's mechanism for falling back to user control: an
/// unresolved conflict aborts the update and rolls back to the old version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conflict {
    /// A replayed system call was issued with arguments that do not match the
    /// recorded ones (same call stack, same call, different arguments).
    ReplayArgumentMismatch {
        /// Call-stack identifier of the mismatching call.
        callstack: u64,
        /// Name of the system call.
        syscall: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Startup in the new version completed without re-issuing a recorded
    /// operation on immutable state (an omitted syscall).
    OmittedReplayEntry {
        /// Call-stack identifier of the recorded call.
        callstack: u64,
        /// Name of the recorded system call.
        syscall: String,
    },
    /// The new version issued an operation on immutable state that failed
    /// when executed live.
    StartupFailure {
        /// Name of the failing system call.
        syscall: String,
        /// The underlying simulator error.
        error: String,
    },
    /// The update changed the type of a pinned object, or of a dirty object
    /// that holds likely pointers: neither can be type-transformed.
    NonUpdatableObjectChanged {
        /// Description of the object (symbol or allocation site).
        object: String,
        /// Old type name.
        old_type: String,
        /// New type name.
        new_type: String,
    },
    /// An object pinned as immutable could not be reallocated at its original
    /// address in the new version.
    ImmutablePlacementFailed {
        /// Description of the object.
        object: String,
        /// Why placement failed.
        detail: String,
    },
    /// A traced object has no counterpart in the new version and no handler
    /// was registered to resolve the situation.
    MissingCounterpart {
        /// Description of the object (symbol or allocation site).
        object: String,
    },
    /// The quiescence protocol did not converge within its deadline.
    QuiescenceTimeout {
        /// Number of threads that were still running.
        running_threads: usize,
    },
    /// A user annotation explicitly requested manual intervention.
    HandlerRequested {
        /// Message supplied by the handler.
        message: String,
    },
    /// A fault injected at a pipeline phase boundary (testing/chaos tooling:
    /// proves the update rolls back cleanly no matter where it dies).
    FaultInjected {
        /// Label of the phase at whose boundary the fault fired.
        phase: String,
    },
    /// Writing the durable checkpoint failed (store error, injected torn
    /// write, or a quiescence problem); the update aborts and rolls back
    /// rather than proceed without a recovery point.
    CheckpointFailed {
        /// The underlying checkpoint error.
        error: String,
    },
    /// The old instance's processes died mid-update (crash injection or a
    /// real fault). Rollback cannot resume it; a restore-aware supervisor
    /// recovers from the last durable checkpoint instead.
    OldInstanceCrashed {
        /// Label of the phase the crash landed before.
        phase: String,
    },
    /// The update supervisor's watchdog fired: a pipeline phase overran its
    /// sim-time deadline budget and the attempt was aborted and rolled back.
    WatchdogExpired {
        /// Label of the overrunning phase.
        phase: String,
        /// The configured budget, in simulated nanoseconds.
        budget_ns: u64,
        /// The sim time the phase actually spent, in nanoseconds.
        spent_ns: u64,
    },
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conflict::ReplayArgumentMismatch { callstack, syscall, detail } => {
                write!(f, "replay mismatch for {syscall} at callstack {callstack:#x}: {detail}")
            }
            Conflict::OmittedReplayEntry { callstack, syscall } => {
                write!(f, "new version omitted recorded {syscall} at callstack {callstack:#x}")
            }
            Conflict::StartupFailure { syscall, error } => {
                write!(f, "startup operation {syscall} failed in the new version: {error}")
            }
            Conflict::NonUpdatableObjectChanged { object, old_type, new_type } => {
                write!(f, "non-updatable object {object} changed type ({old_type} -> {new_type})")
            }
            Conflict::ImmutablePlacementFailed { object, detail } => {
                write!(f, "immutable object {object} could not be pinned: {detail}")
            }
            Conflict::MissingCounterpart { object } => {
                write!(f, "no counterpart in the new version for {object}")
            }
            Conflict::QuiescenceTimeout { running_threads } => {
                write!(f, "quiescence not reached: {running_threads} threads still running")
            }
            Conflict::HandlerRequested { message } => write!(f, "handler requested rollback: {message}"),
            Conflict::FaultInjected { phase } => {
                write!(f, "fault injected at the {phase} phase boundary")
            }
            Conflict::CheckpointFailed { error } => {
                write!(f, "durable checkpoint failed: {error}")
            }
            Conflict::OldInstanceCrashed { phase } => {
                write!(f, "old instance crashed before the {phase} phase")
            }
            Conflict::WatchdogExpired { phase, budget_ns, spent_ns } => {
                write!(f, "watchdog expired: {phase} spent {spent_ns}ns against a {budget_ns}ns budget")
            }
        }
    }
}

/// Errors surfaced by the MCR runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McrError {
    /// An error bubbled up from the simulated kernel or memory subsystem.
    Sim(SimError),
    /// A live-update conflict (carries every conflict found).
    Conflicts(Vec<Conflict>),
    /// The runtime was asked to operate on a program state it does not have
    /// (e.g. update before boot).
    InvalidState(String),
    /// A type or symbol referenced by a program or annotation is unknown.
    UnknownMetadata(String),
}

impl fmt::Display for McrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McrError::Sim(e) => write!(f, "simulator error: {e}"),
            McrError::Conflicts(cs) => {
                write!(f, "{} live-update conflict(s): ", cs.len())?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            McrError::InvalidState(m) => write!(f, "invalid runtime state: {m}"),
            McrError::UnknownMetadata(m) => write!(f, "unknown metadata: {m}"),
        }
    }
}

impl std::error::Error for McrError {}

impl From<SimError> for McrError {
    fn from(e: SimError) -> Self {
        McrError::Sim(e)
    }
}

impl From<Conflict> for McrError {
    fn from(c: Conflict) -> Self {
        McrError::Conflicts(vec![c])
    }
}

/// Result alias used across the crate.
pub type McrResult<T> = Result<T, McrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_display() {
        let c = Conflict::OmittedReplayEntry { callstack: 0xabc, syscall: "bind".into() };
        assert!(c.to_string().contains("bind"));
        let c = Conflict::NonUpdatableObjectChanged {
            object: "b".into(),
            old_type: "char[8]".into(),
            new_type: "char[16]".into(),
        };
        assert!(c.to_string().contains("char[16]"));
    }

    #[test]
    fn error_conversions() {
        let e: McrError = SimError::WouldBlock.into();
        assert!(matches!(e, McrError::Sim(_)));
        let e: McrError = Conflict::HandlerRequested { message: "x".into() }.into();
        match e {
            McrError::Conflicts(cs) => assert_eq!(cs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_conflict_display_lists_all() {
        let e = McrError::Conflicts(vec![
            Conflict::MissingCounterpart { object: "list".into() },
            Conflict::QuiescenceTimeout { running_threads: 2 },
        ]);
        let s = e.to_string();
        assert!(s.contains("2 live-update conflict(s)"));
        assert!(s.contains("list") && s.contains("2 threads"));
    }
}
