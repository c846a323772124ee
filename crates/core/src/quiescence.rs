//! Quiescence profiling and quiescent-point reporting.
//!
//! MCR requires every long-lived thread to have a *quiescent point*: a
//! blocking library call at the top of its long-running loop where the thread
//! can safely park with a short call stack. Instead of asking the user to
//! annotate these points, MCR profiles the program under a test workload and
//! *suggests* them (paper §4). The profiler here consumes the blocking-time
//! and loop-iteration histograms that the scheduler records on each simulated
//! thread and produces the per-program report whose aggregate counts appear
//! in the first columns of Table 1.

use std::collections::BTreeMap;

use mcr_procsim::Kernel;

use crate::program::InstanceState;

/// A suggested quiescent point for one thread class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiescentPoint {
    /// Thread class the point belongs to (e.g. `"worker"`).
    pub(crate) thread_class: String,
    /// The blocking library call where the class spends most of its time.
    pub call: String,
    /// The long-running loop enclosing the call.
    pub loop_name: String,
    /// Whether the point is *persistent* — already visible right after
    /// startup — as opposed to *volatile* (only appears later, e.g. in
    /// dynamically spawned per-connection processes).
    pub persistent: bool,
}

/// Profiling summary for one thread class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadClassReport {
    /// Class name (thread names with trailing indices stripped).
    pub class: String,
    /// Number of thread instances observed.
    pub instances: usize,
    /// Whether the class is long-lived (still running at the end of the
    /// profiling workload).
    pub long_lived: bool,
    /// Suggested quiescent point (long-lived classes only).
    pub quiescent_point: Option<QuiescentPoint>,
    /// Total nanoseconds the class spent blocked, per call.
    pub blocking_profile: BTreeMap<String, u64>,
    /// Iterations observed per loop.
    pub loop_profile: BTreeMap<String, u64>,
}

/// The full quiescence-profiling report for one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuiescenceReport {
    /// Per-class reports, ordered by class name.
    pub classes: Vec<ThreadClassReport>,
}

impl QuiescenceReport {
    /// Number of short-lived thread classes (Table 1, "SL").
    pub fn short_lived_classes(&self) -> usize {
        self.classes.iter().filter(|c| !c.long_lived).count()
    }

    /// Number of long-lived thread classes (Table 1, "LL").
    pub fn long_lived_classes(&self) -> usize {
        self.classes.iter().filter(|c| c.long_lived).count()
    }

    /// Number of quiescent points identified (Table 1, "QP").
    pub fn quiescent_points(&self) -> usize {
        self.classes.iter().filter(|c| c.quiescent_point.is_some()).count()
    }

    /// Number of persistent quiescent points (Table 1, "Per").
    pub fn persistent_points(&self) -> usize {
        self.classes.iter().filter_map(|c| c.quiescent_point.as_ref()).filter(|p| p.persistent).count()
    }

    /// Number of volatile quiescent points (Table 1, "Vol").
    pub fn volatile_points(&self) -> usize {
        self.quiescent_points() - self.persistent_points()
    }

    /// The quiescent point suggested for a given thread class, if any.
    pub fn point_for(&self, class: &str) -> Option<&QuiescentPoint> {
        self.classes.iter().find(|c| c.class == class).and_then(|c| c.quiescent_point.as_ref())
    }
}

/// Normalizes a thread name into its class (strips trailing `-<digits>`).
pub(crate) fn thread_class(name: &str) -> String {
    let trimmed = name.trim_end_matches(|c: char| c.is_ascii_digit());
    trimmed.trim_end_matches('-').trim_end_matches('_').to_string()
}

/// The quiescence profiler.
///
/// It aggregates the per-thread blocking and loop histograms collected by the
/// scheduler during a profiling run and derives thread classes, long-lived
/// loops and suggested quiescent points.
#[derive(Debug, Default, Clone, Copy)]
pub struct QuiescenceProfiler;

impl QuiescenceProfiler {
    /// Analyzes the threads of `state` after a profiling workload has run.
    pub fn analyze(kernel: &Kernel, state: &InstanceState) -> QuiescenceReport {
        #[derive(Default)]
        struct Acc {
            instances: usize,
            long_lived: bool,
            persistent: bool,
            blocking: BTreeMap<String, u64>,
            loops: BTreeMap<String, u64>,
        }
        let mut classes: BTreeMap<String, Acc> = BTreeMap::new();

        for entry in &state.threads {
            let class = thread_class(&entry.name);
            let acc = classes.entry(class).or_default();
            acc.instances += 1;
            if !entry.exited {
                acc.long_lived = true;
            }
            if entry.created_during_startup {
                acc.persistent = true;
            }
            if let Ok(proc) = kernel.process(entry.pid) {
                if let Ok(thread) = proc.thread(entry.tid) {
                    for (call, ns) in thread.blocking_profile() {
                        *acc.blocking.entry(call.to_string()).or_insert(0) += ns;
                    }
                    for (l, n) in thread.loop_profile() {
                        *acc.loops.entry(l.to_string()).or_insert(0) += n;
                    }
                }
            }
        }

        let classes = classes
            .into_iter()
            .map(|(class, acc)| {
                let quiescent_point = if acc.long_lived {
                    let call = acc.blocking.iter().max_by_key(|(_, ns)| **ns).map(|(c, _)| c.clone());
                    let loop_name = acc
                        .loops
                        .iter()
                        .max_by_key(|(_, n)| **n)
                        .map(|(l, _)| l.clone())
                        .unwrap_or_else(|| "main_loop".to_string());
                    call.map(|call| QuiescentPoint {
                        thread_class: class.clone(),
                        call,
                        loop_name,
                        persistent: acc.persistent,
                    })
                } else {
                    None
                };
                ThreadClassReport {
                    class,
                    instances: acc.instances,
                    long_lived: acc.long_lived,
                    quiescent_point,
                    blocking_profile: acc.blocking,
                    loop_profile: acc.loops,
                }
            })
            .collect();
        QuiescenceReport { classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpose::Interposer;
    use crate::program::ThreadRosterEntry;
    use mcr_procsim::MemoryLayout;
    use mcr_typemeta::InstrumentationConfig;

    fn build_state_with_threads() -> (Kernel, InstanceState) {
        let mut kernel = Kernel::new();
        let pid = kernel.create_process("httpd").unwrap();
        let main_tid = kernel.process(pid).unwrap().main_tid();
        kernel.process_mut(pid).unwrap().setup_memory(MemoryLayout::default(), false).unwrap();
        let mut state =
            InstanceState::new("httpd", "2.2.23", InstrumentationConfig::full(), Interposer::recorder());
        state.processes.push(pid);
        state.threads.push(ThreadRosterEntry {
            pid,
            tid: main_tid,
            name: "master".into(),
            created_during_startup: true,
            exited: false,
        });
        // Two worker threads created during startup, one helper that exited.
        for i in 1..=2 {
            let tid = kernel.spawn_thread(pid, &format!("worker-{i}"), vec!["main".into()]).unwrap();
            state.threads.push(ThreadRosterEntry {
                pid,
                tid,
                name: format!("worker-{i}").into(),
                created_during_startup: true,
                exited: false,
            });
            let proc = kernel.process_mut(pid).unwrap();
            let t = proc.thread_mut(tid).unwrap();
            t.record_blocking("cond_wait", 500 * i as u64);
            t.record_blocking("accept", 10_000 * i as u64);
            t.record_loop_iteration("worker_loop");
        }
        let helper_tid = kernel.spawn_thread(pid, "daemonize-helper", vec!["main".into()]).unwrap();
        state.threads.push(ThreadRosterEntry {
            pid,
            tid: helper_tid,
            name: "daemonize-helper".into(),
            created_during_startup: true,
            exited: true,
        });
        // The master blocks in poll.
        {
            let proc = kernel.process_mut(pid).unwrap();
            let t = proc.thread_mut(main_tid).unwrap();
            t.record_blocking("poll", 50_000);
            t.record_loop_iteration("master_loop");
        }
        (kernel, state)
    }

    #[test]
    fn thread_class_normalization() {
        assert_eq!(thread_class("worker-17"), "worker");
        assert_eq!(thread_class("worker"), "worker");
        assert_eq!(thread_class("conn_handler_3"), "conn_handler");
        assert_eq!(thread_class("master"), "master");
    }

    #[test]
    fn profiler_identifies_classes_and_points() {
        let (kernel, state) = build_state_with_threads();
        let report = QuiescenceProfiler::analyze(&kernel, &state);
        assert_eq!(report.classes.len(), 3);
        assert_eq!(report.short_lived_classes(), 1);
        assert_eq!(report.long_lived_classes(), 2);
        assert_eq!(report.quiescent_points(), 2);
        assert_eq!(report.persistent_points(), 2);
        assert_eq!(report.volatile_points(), 0);

        let worker = report.point_for("worker").unwrap();
        assert_eq!(worker.call, "accept", "dominant blocking call wins");
        assert_eq!(worker.loop_name, "worker_loop");
        let master = report.point_for("master").unwrap();
        assert_eq!(master.call, "poll");
        assert!(report.point_for("daemonize-helper").is_none());
    }

    #[test]
    fn volatile_points_counted_for_post_startup_threads() {
        let (mut kernel, mut state) = build_state_with_threads();
        let pid = state.processes[0];
        let tid = kernel.spawn_thread(pid, "session-1", vec!["main".into(), "accept_loop".into()]).unwrap();
        state.threads.push(ThreadRosterEntry {
            pid,
            tid,
            name: "session-1".into(),
            created_during_startup: false,
            exited: false,
        });
        kernel.process_mut(pid).unwrap().thread_mut(tid).unwrap().record_blocking("read", 5_000);
        let report = QuiescenceProfiler::analyze(&kernel, &state);
        assert_eq!(report.quiescent_points(), 3);
        assert_eq!(report.volatile_points(), 1);
        assert!(!report.point_for("session").unwrap().persistent);
    }
}
