//! Allocation regression guard for the thread-step hot path.
//!
//! Quiescence detection steps every thread again and again: an idle reader
//! re-enters its blocking call (`StepOutcome::WouldBlock`), and once an
//! update is requested every thread parks at its quiescence hook. At fleet
//! scale these steps dominate the barrier, so neither may touch the heap.
//! A counting global allocator (this binary only) counts the allocations
//! the test thread makes across 1 000 steps of each kind, and the
//! allocations one live update makes per session thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcr_bench::{FleetServer, FLEET_PORT};
use mcr_core::program::StepOutcome;
use mcr_core::runtime::{
    boot, live_update, request_quiescence, run_rounds, step_thread, BootOptions, UpdateOptions,
};
use mcr_procsim::{Kernel, Pid, Tid};
use mcr_typemeta::InstrumentationConfig;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations and reallocations
/// made by the calling thread (other test-harness threads do not count).
struct Counting;

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const STEPS: usize = 1_000;

#[test]
fn idle_and_quiesce_park_steps_allocate_nothing() {
    let sessions = 16;
    let mut kernel = Kernel::new();
    let mut instance =
        boot(&mut kernel, Box::new(FleetServer::new(sessions)), &BootOptions::default()).unwrap();
    for _ in 0..sessions {
        kernel.client_connect(FLEET_PORT).unwrap();
    }
    run_rounds(&mut kernel, &mut instance, 2).unwrap();
    let readers: Vec<(Pid, Tid)> =
        instance.state.live_threads().filter(|t| &*t.name != "main").map(|t| (t.pid, t.tid)).collect();
    assert_eq!(readers.len(), sessions);

    // One warm-up step per reader: every profile key and wait-queue slot a
    // step touches exists from here on.
    for &(pid, tid) in &readers {
        step_thread(&mut kernel, &mut instance, pid, tid).unwrap();
    }
    let idle = allocations_during(|| {
        for i in 0..STEPS {
            let (pid, tid) = readers[i % readers.len()];
            let outcome = step_thread(&mut kernel, &mut instance, pid, tid).unwrap();
            assert!(matches!(&outcome, StepOutcome::WouldBlock { call, .. } if *call == "read"));
        }
    });

    request_quiescence(&mut instance);
    let park = allocations_during(|| {
        for i in 0..STEPS {
            let (pid, tid) = readers[i % readers.len()];
            let outcome = step_thread(&mut kernel, &mut instance, pid, tid).unwrap();
            assert!(matches!(&outcome, StepOutcome::WouldBlock { call, .. } if *call == "quiesce"));
        }
    });
    let parked = |&(pid, tid): &(Pid, Tid)| {
        kernel.process(pid).and_then(|p| p.thread(tid)).is_ok_and(|t| t.is_quiesced())
    };
    assert!(readers.iter().all(parked));

    assert_eq!(idle, 0, "{idle} allocations across {STEPS} idle WouldBlock steps");
    assert_eq!(park, 0, "{park} allocations across {STEPS} quiesce-park steps");
}

/// Allocations one `live_update` of a fleet with `sessions` connected
/// readers makes.
fn live_update_allocations(sessions: usize) -> u64 {
    let mut kernel = Kernel::new();
    let mut v1 = boot(&mut kernel, Box::new(FleetServer::new(sessions)), &BootOptions::default()).unwrap();
    for _ in 0..sessions {
        kernel.client_connect(FLEET_PORT).unwrap();
    }
    run_rounds(&mut kernel, &mut v1, 2).unwrap();
    let mut committed = false;
    let n = allocations_during(|| {
        let (_v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(FleetServer::with_version(sessions, 2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
        );
        committed = outcome.is_committed();
    });
    assert!(committed, "the {sessions}-session update commits");
    n
}

/// Allocations per spawned thread across one live update: every session is
/// a thread the new version re-spawns in replay, parks at the barrier and
/// resumes at commit, and the old version's copy is torn down. Measured at
/// 5.035 (1 469 allocations at 256 sessions, 2 758 at 512): five per thread
/// plus the amortised growth of the per-thread tables.
const ALLOCATIONS_PER_SESSION: f64 = 5.04;

#[test]
fn live_update_allocations_per_spawned_thread() {
    let n = 256;
    let (small, large) = (live_update_allocations(n), live_update_allocations(2 * n));
    let per_session = (large - small) as f64 / n as f64;
    assert!(
        per_session <= ALLOCATIONS_PER_SESSION,
        "{per_session:.2} allocations per spawned thread ({small} at {n} sessions, {large} at {})",
        2 * n
    );
}
