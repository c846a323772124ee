//! Allocation regression guard for the thread-step hot path.
//!
//! Quiescence detection steps every thread again and again: an idle reader
//! re-enters its blocking call (`StepOutcome::WouldBlock`), and once an
//! update is requested every thread parks at its quiescence hook. At fleet
//! scale these steps dominate the barrier, so neither may touch the heap.
//! A counting global allocator (this binary only) counts the allocations
//! the test thread makes across 1 000 steps of each kind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcr_bench::{FleetServer, FLEET_PORT};
use mcr_core::program::StepOutcome;
use mcr_core::runtime::{boot, request_quiescence, run_rounds, step_thread, BootOptions};
use mcr_procsim::{Kernel, Pid, Tid};

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
