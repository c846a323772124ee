//! Fleet-scale scheduler sweep: per-round cost vs. thread count at 1% active.
//!
//! For each fleet size this bench boots a [`FleetServer`] (one reader thread
//! per connection) twice — once driven by [`run_round`] and once, setup
//! included, by the reference [`run_round_full_scan`] (the legacy full-scan
//! ablation) — runs the same deterministic workload (every round sends data
//! on the same 1% of connections), and emits one JSON row per size. The cost metric is thread *steps per round* (exact
//! and host-independent); wall-clock time is reported alongside.
//!
//! The scaling guards:
//!
//! * `step_ratio` — full-scan steps over event-driven steps: the
//!   event-driven core must be at least 10x cheaper per round at 10k
//!   threads / 1% active (the acceptance bar, mirrored by the CI smoke
//!   step), because its cost tracks *active* threads while the scan pays
//!   for every thread every round.
//! * `steps_per_event` — event-driven thread steps per handled event must
//!   stay flat (within 2x) from 10k connections to the largest fleet: the
//!   slab-indexed kernel substrate resolves objects, descriptors, waiters
//!   and timers by index, so per-event cost must not grow with fleet size.
//!
//! Both runs must also handle exactly the same number of events, and the
//! event-driven fleet must still reach quiescence. `FLEET_SCALE_SIZES`
//! (comma-separated) overrides the sweep — CI smoke uses a reduced one.

use std::time::Instant;

use mcr_bench::{FleetServer, Json, FLEET_PORT};
use mcr_core::runtime::{
    all_quiesced, boot, run_round, run_round_full_scan, wait_quiescence, BootOptions, McrInstance, RoundStats,
};
use mcr_core::McrResult;
use mcr_procsim::{ConnId, Kernel};

/// Fleet sizes swept by default (threads = connections); 1% of each fleet
/// is active. Overridable via `FLEET_SCALE_SIZES`.
const FLEET_SIZES: [usize; 5] = [10, 100, 1_000, 10_000, 100_000];
/// Measured rounds per run.
const ROUNDS: usize = 10;
/// The full-scan ablation is skipped above this fleet size: its cost is
/// O(threads x rounds) by construction, which the 10k point already proves,
/// and paying a million-step scan per round adds minutes without adding
/// information.
const SCAN_CEILING: usize = 10_000;

fn fleet_sizes() -> Vec<usize> {
    match std::env::var("FLEET_SCALE_SIZES") {
        Ok(list) => {
            let sizes: Vec<usize> = list.split(',').filter_map(|t| t.trim().parse().ok()).collect();
            assert!(!sizes.is_empty(), "FLEET_SCALE_SIZES must name at least one fleet size");
            sizes
        }
        Err(_) => FLEET_SIZES.to_vec(),
    }
}

/// One scheduling round: [`run_round`] or [`run_round_full_scan`].
type Round = fn(&mut Kernel, &mut McrInstance) -> McrResult<RoundStats>;

struct RunOutcome {
    stats: RoundStats,
    wall_ns: u64,
    events_handled: u64,
}

fn active_slots(threads: usize) -> Vec<usize> {
    let active = (threads / 100).max(1);
    let stride = threads / active;
    (0..active).map(|i| i * stride).collect()
}

/// Boots a fleet of `threads` sessions and serves the 1% workload, every
/// round (setup included) through `round`.
fn run_fleet(threads: usize, round: Round) -> (RunOutcome, Kernel, McrInstance) {
    let mut kernel = Kernel::new();
    let mut instance =
        boot(&mut kernel, Box::new(FleetServer::new(threads)), &BootOptions::default()).expect("fleet boots");
    let conns: Vec<ConnId> = (0..threads).map(|_| kernel.client_connect(FLEET_PORT).unwrap()).collect();
    // Setup rounds: the acceptor drains the backlog, every reader parks.
    for _ in 0..2 {
        round(&mut kernel, &mut instance).expect("fleet setup");
    }
    assert!(conns.iter().all(|&c| kernel.client_is_accepted(c)), "all sessions accepted");

    let slots = active_slots(threads);
    let mut stats = RoundStats::default();
    let wall = Instant::now();
    for _ in 0..ROUNDS {
        for &slot in &slots {
            kernel.client_send(conns[slot], b"ping".to_vec()).expect("send");
        }
        stats.absorb(&round(&mut kernel, &mut instance).expect("round"));
    }
    let wall_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let events_handled = instance.state.counters.events_handled;
    (RunOutcome { stats, wall_ns, events_handled }, kernel, instance)
}

fn main() {
    let mut rows = Vec::new();
    let mut per_event: Vec<(usize, f64)> = Vec::new();
    for threads in fleet_sizes() {
        let active = active_slots(threads).len();
        let (event, quiesce_ns) = {
            let (event, mut kernel, mut instance) = run_fleet(threads, run_round);
            // The barrier must still converge over a mostly-parked fleet.
            let q_start = kernel.now();
            wait_quiescence(&mut kernel, &mut instance, 10).expect("quiescence converges");
            assert!(all_quiesced(&kernel, &instance));
            (event, kernel.now().duration_since(q_start).0)
        };
        let scan = (threads <= SCAN_CEILING).then(|| run_fleet(threads, run_round_full_scan).0);

        assert_eq!(
            event.events_handled,
            (ROUNDS * active) as u64,
            "{threads}: every active send was handled"
        );

        let event_steps_per_round = event.stats.steps() as f64 / ROUNDS as f64;
        let steps_per_event = event.stats.steps() as f64 / event.events_handled.max(1) as f64;
        let wall_per_event_ns = event.wall_ns as f64 / event.events_handled.max(1) as f64;
        per_event.push((threads, steps_per_event));

        // Event-driven cost tracks active threads, not fleet size.
        assert!(
            event_steps_per_round <= (4 * active + 4) as f64,
            "{threads}: event-driven round cost {event_steps_per_round} not O(active={active})"
        );

        let mut row = vec![
            ("threads", threads.into()),
            ("active", active.into()),
            ("rounds", ROUNDS.into()),
            ("event_steps_per_round", Json::Num(event_steps_per_round)),
            ("steps_per_event", Json::Num(steps_per_event)),
            ("wall_per_event_ns", Json::Num(wall_per_event_ns)),
            ("event_woken", event.stats.woken.into()),
            ("event_wall_ns", event.wall_ns.into()),
            ("event_quiesce_ns", quiesce_ns.into()),
            ("events_handled", event.events_handled.into()),
        ];
        if let Some(scan) = scan {
            assert_eq!(
                event.events_handled, scan.events_handled,
                "{threads}: both schedulers must serve the same events"
            );
            let scan_steps_per_round = scan.stats.steps() as f64 / ROUNDS as f64;
            let step_ratio = scan_steps_per_round / event_steps_per_round.max(1e-9);
            let wall_ratio = scan.wall_ns as f64 / event.wall_ns.max(1) as f64;
            // The acceptance bar: >= 10x cheaper per round at 10k / 1%.
            if threads >= 10_000 {
                assert!(
                    step_ratio >= 10.0,
                    "{threads}: event-driven scheduler only {step_ratio:.1}x cheaper than full scan"
                );
            }
            eprintln!(
                "threads {threads:>7} active {active:>5}: event {event_steps_per_round:>9.1} steps/round \
                 (woken {}) vs scan {scan_steps_per_round:>9.1} -> {step_ratio:>7.1}x steps, \
                 {wall_ratio:>6.1}x wall; quiesce {} us",
                event.stats.woken,
                quiesce_ns / 1_000,
            );
            row.extend([
                ("scan_steps_per_round", Json::Num(scan_steps_per_round)),
                ("step_ratio", Json::Num(step_ratio)),
                ("scan_wall_ns", scan.wall_ns.into()),
                ("wall_ratio", Json::Num(wall_ratio)),
            ]);
        } else {
            eprintln!(
                "threads {threads:>7} active {active:>5}: event {event_steps_per_round:>9.1} steps/round \
                 (woken {}), {steps_per_event:.2} steps/event, {wall_per_event_ns:>8.0} ns/event; \
                 quiesce {} us (scan skipped)",
                event.stats.woken,
                quiesce_ns / 1_000,
            );
        }
        rows.push(Json::obj_vec(row));
    }

    // Flatness guard: per-event cost must not grow with fleet size. Thread
    // steps per handled event are exact and host-independent, so this is the
    // substrate's O(1)-per-event claim stated as an assertion.
    let at_scale: Vec<&(usize, f64)> = per_event.iter().filter(|(t, _)| *t >= 10_000).collect();
    if at_scale.len() >= 2 {
        let (min_t, min_c) =
            at_scale.iter().fold(
                (0usize, f64::INFINITY),
                |acc, (t, c)| {
                    if *c < acc.1 {
                        (*t, *c)
                    } else {
                        acc
                    }
                },
            );
        for (threads, cost) in &at_scale {
            assert!(
                *cost <= 2.0 * min_c,
                "{threads}: {cost:.2} steps/event, more than 2x the {min_c:.2} at {min_t} threads"
            );
        }
    }

    let doc = Json::obj([("experiment", Json::str("fleet_scale")), ("rows", Json::Arr(rows))]);
    println!("{}", doc.render());
}
