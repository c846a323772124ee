//! Property-style tests over the core data structures and the invariants the
//! MCR design depends on.
//!
//! The container has no network access, so instead of `proptest` these tests
//! drive the same invariants with the chaos engine's deterministic xorshift64*
//! generator ([`ChaosRng`]): every case is reproducible from its printed seed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mcr_bench::{served, FleetServer, Observed, FLEET_PORT};
use mcr_core::callstack::CallStackId;
use mcr_core::runtime::{
    all_quiesced, boot, live_update, request_quiescence, run_round, run_round_full_scan, wait_quiescence,
    BootOptions, ChaosPlan, ChaosRng, FaultSite, McrInstance, PhaseName, PrecopyOptions, RoundStats,
    TransferMode, UpdateOptions, UpdateOutcome, UpdatePipeline, UpdateReport,
};
use mcr_core::transfer::engine::list_schedule_makespan;
use mcr_core::transfer::{apply_field_map, compute_field_map};
use mcr_core::McrResult;
use mcr_procsim::{
    Addr, AddressSpace, AllocSite, ConnId, DirtyRange, Fd, FdEntry, FdTable, Kernel, KernelObject, ObjId,
    ObjectTable, PendingTrap, PtMalloc, RegionKind, SimError, TypeTag, PAGE_SIZE, RESERVED_FD_BASE,
};
use mcr_servers::{
    dirty_cache_records, dirty_connection_nodes, program_by_name, stamp_request_scratch, CacheServer,
    CACHE_PORT,
};
use mcr_typemeta::{Field, InstrumentationConfig, TypeRegistry};
use mcr_workload::workload_for;

const HEAP_BASE: u64 = 0x0800_0000;
const HEAP_SIZE: u64 = 512 * PAGE_SIZE;
const CASES: u64 = 64;

/// A fair coin flip on the low bit of the next draw.
fn chance(rng: &mut ChaosRng) -> bool {
    rng.next() & 1 == 1
}

/// A lowercase identifier of 1..=`max_len` letters.
fn ident(rng: &mut ChaosRng, max_len: u64) -> String {
    let len = rng.range(1, max_len + 1) as usize;
    (0..len).map(|_| (b'a' + (rng.next() % 26) as u8) as char).collect()
}

fn fresh_heap(instrumented: bool) -> (AddressSpace, PtMalloc) {
    let mut space = AddressSpace::new();
    space.map_region(Addr(HEAP_BASE), HEAP_SIZE, RegionKind::Heap, "heap").unwrap();
    (space, PtMalloc::new(Addr(HEAP_BASE), HEAP_SIZE, instrumented))
}

/// Drives `PtMalloc` through `seeds` seeded operation streams and checks it
/// after every step against an ordered map of its live chunks (payload →
/// payload size, site, tag, startup): `malloc` (never overlapping a live
/// chunk), `free` (including frees of addresses that are no live payload:
/// below the heap, unaligned, inside a chunk, freed twice), deferred frees
/// and `flush_deferred`, `malloc_at` at fitting, overlapping and unaligned
/// placements, and `clone`. Checked: `live_count`, `is_live`, `live_chunks`
/// (order and every field), and `chunk_containing` at every payload, one
/// byte below it, its last byte, one past its end and its header bytes, below
/// the heap base, past the frontier and at random addresses.
fn check_ptmalloc_against_the_model(seeds: std::ops::Range<u64>) {
    use std::collections::BTreeMap;
    type Model = BTreeMap<u64, (u64, AllocSite, TypeTag, bool)>;

    fn expect_containing(model: &Model, addr: u64) -> Option<u64> {
        let (&payload, &(size, ..)) = model.range(..=addr).next_back()?;
        (addr < payload + size).then_some(payload)
    }

    fn check(
        ctx: &str,
        heap: &PtMalloc,
        space: &AddressSpace,
        model: &Model,
        header: u64,
        rng: &mut ChaosRng,
    ) {
        assert_eq!(heap.live_count(), model.len(), "{ctx}: live_count");
        let chunks = heap.live_chunks(space).map(|c| (c.payload.0, (c.size, c.site, c.type_tag, c.startup)));
        assert!(chunks.eq(model.iter().map(|(&p, &fields)| (p, fields))), "{ctx}: live_chunks");
        let mut probes = vec![0, HEAP_BASE - 1, HEAP_BASE, HEAP_BASE + HEAP_SIZE, u64::MAX];
        let top = model.iter().next_back().map_or(HEAP_BASE, |(&p, &(size, ..))| p + size);
        probes.extend([top, top + 16, top + 4096]);
        for (&payload, &(size, ..)) in model {
            assert!(heap.is_live(Addr(payload)), "{ctx}: {payload:#x} live");
            assert!(!heap.is_live(Addr(payload + 8)) && !heap.is_live(Addr(payload + size)), "{ctx}");
            probes.extend([payload, payload - 1, payload + size - 1, payload + size, payload - header]);
            probes.extend([payload - header + 8, payload - 8]);
        }
        probes.extend((0..32).map(|_| rng.range(HEAP_BASE - 64, top + 256)));
        for addr in probes {
            let got = heap.chunk_containing(space, Addr(addr));
            let want = expect_containing(model, addr);
            assert_eq!(got.map(|c| c.payload.0), want, "{ctx}: chunk_containing({addr:#x})");
            if let (Some(chunk), Some(p)) = (got, want) {
                let (size, site, tag, startup) = model[&p];
                assert_eq!(
                    (chunk.size, chunk.site, chunk.type_tag, chunk.startup),
                    (size, site, tag, startup)
                );
            }
        }
    }

    for seed in seeds {
        let mut rng = ChaosRng::new(seed);
        let instrumented = chance(&mut rng);
        // Instrumented headers add the site and tag words.
        let header = if instrumented { 32 } else { 16 };
        let (mut space, mut heap) = fresh_heap(instrumented);
        let deferring = chance(&mut rng);
        heap.set_defer_free(deferring);
        let mut startup = true;
        let mut model = Model::new();
        let (mut deferred, mut freed): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        for step in 0..rng.range(40, 160) as usize {
            let ctx = format!("seed {seed} step {step}");
            let live: Vec<u64> = model.keys().copied().filter(|p| !deferred.contains(p)).collect();
            let pick = |rng: &mut ChaosRng| live[rng.range(0, live.len() as u64) as usize];
            match rng.range(0, 100) {
                0..=39 => {
                    let size = if rng.range(0, 8) == 0 { rng.range(2048, 9000) } else { rng.range(1, 600) };
                    let (site, tag) = (AllocSite(rng.range(0, 9)), TypeTag(rng.range(0, 9)));
                    let p = heap.malloc(&mut space, size, site, tag).unwrap().0;
                    let payload_size = size.max(1).div_ceil(16) * 16;
                    assert_eq!(p % 16, 0, "{ctx}: unaligned payload {p:#x}");
                    let overlapping = model.range(..p + payload_size + header).next_back();
                    assert!(
                        overlapping.is_none_or(|(&q, &(qs, ..))| q + qs + header <= p),
                        "{ctx}: {p:#x} overlaps {overlapping:?}"
                    );
                    let (site, tag) = if instrumented { (site, tag) } else { (AllocSite(0), TypeTag(0)) };
                    model.insert(p, (payload_size, site, tag, startup));
                }
                40..=64 if !live.is_empty() => {
                    let p = pick(&mut rng);
                    heap.free(&mut space, Addr(p)).unwrap();
                    if deferring && startup {
                        deferred.push(p);
                    } else {
                        model.remove(&p);
                        freed.push(p);
                    }
                }
                65..=69 => {
                    // Not a live payload: freeing it is an error, never a
                    // panic. A payload's `+ 16` is inside its chunk or header.
                    let p = if live.is_empty() { HEAP_BASE + HEAP_SIZE - 4096 } else { pick(&mut rng) };
                    let mut bad = vec![0, HEAP_BASE - 16, p + 8, p + 16, HEAP_BASE + HEAP_SIZE, u64::MAX];
                    bad.extend(freed.iter().copied().filter(|q| !model.contains_key(q)));
                    for addr in bad {
                        assert!(
                            matches!(heap.free(&mut space, Addr(addr)), Err(SimError::InvalidFree(_))),
                            "{ctx}: free({addr:#x})"
                        );
                    }
                }
                70..=74 if !deferred.is_empty() || startup => {
                    assert_eq!(heap.flush_deferred(&mut space).unwrap(), deferred.len());
                    for p in deferred.drain(..) {
                        model.remove(&p);
                        freed.push(p);
                    }
                    if chance(&mut rng) {
                        heap.end_startup();
                        startup = false;
                    }
                }
                75..=89 => {
                    // A placement anywhere up to a little past the frontier:
                    // it fits iff it overlaps no live chunk.
                    let top = model.iter().next_back().map_or(HEAP_BASE, |(&p, &(s, ..))| p + s);
                    let p = rng.range(HEAP_BASE + header, top + 2048) / 16 * 16;
                    let size = rng.range(1, 700);
                    let payload_size = size.div_ceil(16) * 16;
                    let fits = model
                        .iter()
                        .all(|(&q, &(qs, ..))| q + qs <= p - header || p + payload_size <= q - header);
                    let (site, tag) = (AllocSite(7), TypeTag(5));
                    let got = heap.malloc_at(&mut space, Addr(p), size, site, tag);
                    if fits {
                        assert_eq!(got.unwrap(), Addr(p), "{ctx}: malloc_at({p:#x})");
                        let (site, tag) = if instrumented { (site, tag) } else { (AllocSite(0), TypeTag(0)) };
                        model.insert(p, (payload_size, site, tag, startup));
                    } else {
                        assert!(
                            matches!(got, Err(SimError::MappingOverlap { .. })),
                            "{ctx}: malloc_at({p:#x}) over a live chunk: {got:?}"
                        );
                    }
                    let unaligned = heap.malloc_at(&mut space, Addr(top + 4096 + 8), 16, site, tag);
                    assert!(matches!(unaligned, Err(SimError::InvalidArgument(_))), "{unaligned:?}");
                }
                90..=94 => {
                    // A fork: the copy holds the same chunks and goes on alone.
                    let copy = heap.clone();
                    check(&ctx, &heap, &space, &model, header, &mut rng);
                    heap = copy;
                }
                _ => continue,
            }
            check(&ctx, &heap, &space, &model, header, &mut rng);
        }
    }
}

/// `PtMalloc`'s granule index answers exactly like an ordered map of its
/// live chunks; see [`check_ptmalloc_against_the_model`].
#[test]
fn ptmalloc_matches_the_ordered_map_model() {
    check_ptmalloc_against_the_model(0..CASES);
}

/// The same model check over 10 000 seeds (CI runs it in release).
#[test]
#[ignore = "10 000 seeds; run with --release -- --ignored ptmalloc"]
fn ptmalloc_matches_the_ordered_map_model_10k_seeds() {
    check_ptmalloc_against_the_model(0..10_000);
}

/// Soft-dirty tracking is a sound over-approximation: every written page is
/// reported dirty after the write.
#[test]
fn soft_dirty_never_misses_a_write() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let n = rng.range(1, 40) as usize;
        let offsets: Vec<u64> = (0..n).map(|_| rng.range(0, 64 * PAGE_SIZE - 8)).collect();

        let mut space = AddressSpace::new();
        space.map_region(Addr(0x1000_0000), 64 * PAGE_SIZE, RegionKind::Heap, "h").unwrap();
        space.clear_soft_dirty();
        for &off in &offsets {
            space.write_u64(Addr(0x1000_0000 + off), off).unwrap();
        }
        for &off in &offsets {
            assert!(space.is_dirty(Addr(0x1000_0000 + off)), "seed {seed}: page of offset {off} not dirty");
        }
        assert!(space.dirty_page_count() <= 2 * offsets.len());
    }
}

/// Descriptor allocation never reuses a number that is still open and the
/// reserved range never collides with ordinary allocation.
#[test]
fn fd_table_numbers_are_unique() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let n = rng.range(1, 80) as usize;
        let ops: Vec<u8> = (0..n).map(|_| rng.range(0, 3) as u8).collect();

        let mut table = FdTable::new();
        let mut open = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => open.push(table.alloc(ObjId(i as u64))),
                1 => open.push(table.alloc_reserved(ObjId(i as u64))),
                _ => {
                    if let Some(fd) = open.pop() {
                        table.remove(fd).unwrap();
                    }
                }
            }
            let mut seen = std::collections::BTreeSet::new();
            for &fd in &open {
                assert!(seen.insert(fd), "seed {seed}: duplicate descriptor {fd}");
                assert!(table.contains(fd));
            }
        }
    }
}

/// Call-stack IDs are deterministic and injective enough: permuting or
/// renaming frames changes the identifier.
#[test]
fn callstack_ids_distinguish_different_stacks() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let n = rng.range(1, 8) as usize;
        let frames: Vec<String> = (0..n).map(|_| ident(&mut rng, 12)).collect();

        let id = CallStackId::from_frames(&frames);
        assert_eq!(id, CallStackId::from_frames(&frames), "seed {seed}: not deterministic");
        let mut renamed = frames.clone();
        renamed[0] = format!("{}_v2", renamed[0]);
        assert_ne!(id, CallStackId::from_frames(&renamed), "seed {seed}: rename unnoticed");
        if frames.len() > 1 && frames[0] != frames[frames.len() - 1] {
            let mut reversed = frames.clone();
            reversed.reverse();
            assert_ne!(id, CallStackId::from_frames(&reversed), "seed {seed}: reversal unnoticed");
        }
    }
}

/// Structural type transformation preserves the values of every field that
/// exists in both versions, regardless of added fields.
#[test]
fn field_map_preserves_common_fields() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let values: Vec<u32> = (0..4).map(|_| rng.next() as u32).collect();
        let add_front = chance(&mut rng);
        let add_back = chance(&mut rng);

        let names = ["a", "b", "c", "d"];
        let mut old_reg = TypeRegistry::new();
        let int_old = old_reg.int("int", 4);
        let old_ty = old_reg.struct_type("s", names.iter().map(|n| Field::new(*n, int_old)).collect());
        let mut new_reg = TypeRegistry::new();
        let int_new = new_reg.int("int", 4);
        let mut new_fields = Vec::new();
        if add_front {
            new_fields.push(Field::new("front", int_new));
        }
        for n in names {
            new_fields.push(Field::new(n, int_new));
        }
        if add_back {
            new_fields.push(Field::new("back", int_new));
        }
        let new_ty = new_reg.struct_type("s", new_fields);

        let mut old_bytes = Vec::new();
        for v in &values {
            old_bytes.extend_from_slice(&v.to_le_bytes());
        }
        let map = compute_field_map(&old_reg, old_ty, &new_reg, new_ty);
        let mut new_bytes = vec![0u8; map.new_size as usize];
        apply_field_map(&map, &old_bytes, &mut new_bytes);
        let new_layout = new_reg.struct_layout(new_ty);
        for (i, name) in names.iter().enumerate() {
            let field = new_layout.iter().find(|f| &f.name == name).unwrap();
            let off = field.offset as usize;
            let got = u32::from_le_bytes(new_bytes[off..off + 4].try_into().unwrap());
            assert_eq!(got, values[i], "seed {seed}: field {name} lost its value");
        }
    }
}

/// No divergence.
const NONE: [&str; 0] = [];

/// [`served`] `program`, then updated to generation 2 under `opts`: what the
/// run observed, and the outcome.
fn update_served(
    program: &str,
    requests: u64,
    open: usize,
    opts: &UpdateOptions,
) -> (Observed, UpdateOutcome) {
    let (mut kernel, v1) = served(program, requests, open, InstrumentationConfig::full());
    let new = Box::new(program_by_name(program, 2));
    let (v2, outcome) = live_update(&mut kernel, v1, new, InstrumentationConfig::full(), opts);
    (Observed::of(&kernel, &v2, Some(&outcome)), outcome)
}

/// `transfer_workers` moves simulated time and nothing else: for fault-free
/// updates, one modelled worker and a random worker count produce updates
/// the oracle finds identical, with identical phase traces, and the charged
/// state-transfer time is exactly the list-schedule makespan of the pairs'
/// durations on that many workers.
#[test]
fn parallel_and_serial_transfer_produce_identical_updates() {
    let programs = ["httpd", "nginx", "vsftpd", "sshd"];
    for seed in 0..4u64 {
        let mut rng = ChaosRng::new(seed + 0xbeef);
        let program = programs[seed as usize % programs.len()];
        let requests = rng.range(1, 4);
        let open = rng.range(0, 5) as usize;
        let workers = rng.range(2, 9) as usize;
        let ctx = format!("seed {seed} ({program})");

        let with_workers = |transfer_workers| UpdateOptions { transfer_workers, ..Default::default() };
        let (serial_seen, serial) = update_served(program, requests, open, &with_workers(1));
        let (parallel_seen, parallel) = update_served(program, requests, open, &with_workers(workers));
        assert!(serial.is_committed(), "{ctx}: {:?}", serial.conflicts());
        assert_eq!(parallel_seen.divergences(&serial_seen), NONE, "{ctx}");
        let (serial, parallel) = (serial.report(), parallel.report());
        assert_eq!(serial.phases.records(), parallel.phases.records(), "{ctx}: phase traces diverged");
        // Shared-work timings agree (the per-phase ones with the phase
        // traces above); the makespan on more workers can only improve on
        // the serial sum.
        assert_eq!(serial.timings.total, parallel.timings.total);
        assert_eq!(
            serial.timings.state_transfer,
            serial.transfer.serial_duration(),
            "one worker reproduces the sequential sum"
        );
        assert!(parallel.timings.state_transfer <= serial.timings.state_transfer);
        let durations: Vec<_> = parallel.transfer.per_process.iter().map(|r| r.duration).collect();
        assert_eq!(
            parallel.timings.state_transfer,
            list_schedule_makespan(&durations, parallel.transfer.workers),
            "{ctx}: the charged time is the modelled schedule of the pairs"
        );
        assert_eq!(serial.transfer.workers, 1);
        assert_eq!(parallel.transfer.workers, workers.min(serial.transfer.per_process.len()));
    }
}

/// Aborted updates roll back identically too: the oracle finds the aborted
/// runs identical, conflicts, per-process attribution and post-rollback
/// kernel state included, and the object-write count does not depend on the
/// modelled worker or shard count either — whether the abort is a conflict
/// set found during state transfer or a fault injected at a mid-phase object
/// write.
#[test]
fn parallel_and_serial_rollbacks_report_identical_conflicts() {
    let attempt = |generation: u32, open: usize, fault: ChaosPlan, workers: usize, shards: usize| {
        let (mut kernel, v1) = served("vsftpd", 6, open, InstrumentationConfig::full());
        let opts =
            UpdateOptions { transfer_workers: workers, intra_pair_shards: shards, ..Default::default() };
        let (survivor, outcome) = UpdatePipeline::for_options(&opts).with_fault_plan(fault).run(
            &mut kernel,
            v1,
            Box::new(program_by_name("vsftpd", generation)),
            InstrumentationConfig::full(),
            &opts,
        );
        (Observed::of(&kernel, &survivor, Some(&outcome)), outcome)
    };

    // A clean generation 1 -> 2 update of five sessions sizes the second
    // scenario: its fault lands halfway through the phase's object writes.
    let (_, clean) = attempt(2, 5, ChaosPlan::none(), 1, 1);
    assert!(clean.is_committed(), "the fault-free update commits");
    let pairs = clean.report().transfer.per_process.len();
    assert!(pairs >= 4, "{pairs} pairs");
    let mid_phase = FaultSite::TransferObject(clean.report().object_writes / 2).plan();

    // vsftpd generation 1 -> 3 changes `conn_s` under non-updatable
    // references, which aborts the update during state transfer.
    let conflicting = (3, 0, ChaosPlan::none(), &[1usize, 2, 5][..], &[1usize][..]);
    let faulted = (2, 5, mid_phase, &[1usize, 2, 5, 0][..], &[1usize, 4][..]);
    for (generation, open, fault, worker_counts, shard_counts) in [conflicting, faulted] {
        let (serial_seen, serial) = attempt(generation, open, fault.clone(), 1, 1);
        assert!(!serial.conflicts().is_empty(), "the scenario must abort");
        let serial = serial.report();
        if fault.is_empty() {
            assert!(
                serial.transfer.per_process.iter().any(|r| !r.conflicts.is_empty()),
                "per-process conflict attribution survives into the rolled-back report"
            );
        } else {
            let reached = serial.transfer.per_process.len();
            assert!(
                0 < reached && reached < pairs,
                "the fault fires mid-phase: after {reached} of {pairs} pairs"
            );
        }
        for &workers in worker_counts {
            for &shards in shard_counts {
                let ctx = format!("generation {generation}, workers={workers}, shards={shards}");
                let (seen, outcome) = attempt(generation, open, fault.clone(), workers, shards);
                assert_eq!(seen.divergences(&serial_seen), NONE, "{ctx}");
                assert_eq!(
                    serial.object_writes,
                    outcome.report().object_writes,
                    "{ctx}: write counts diverged"
                );
            }
        }
    }
}

/// One scheduling round: [`run_round`] or the reference [`run_round_full_scan`].
type Round = fn(&mut Kernel, &mut McrInstance) -> McrResult<RoundStats>;

/// Serves a 64-session [`FleetServer`] with seeded pings, every round (the
/// setup's included) through `round`. An idle [`CacheServer`] shares the
/// kernel and gets its round first, so a round that took the fleet's
/// wakeups would leave pings unanswered. Four clients connect only after
/// the setup: until the acceptor assigns their slots, those readers retry
/// on a timer, which the event-driven round fires by moving the idle clock
/// to its deadline. Returns the replies in send order, the events handled
/// and what the run observed.
fn serve_fleet(round: Round) -> (Vec<Option<Vec<u8>>>, u64, Observed) {
    let mut kernel = Kernel::new();
    let mut cache = boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).unwrap();
    let mut fleet = boot(&mut kernel, Box::new(FleetServer::new(64)), &BootOptions::default()).unwrap();
    let mut both = |kernel: &mut Kernel| {
        round(kernel, &mut cache).unwrap();
        round(kernel, &mut fleet).unwrap();
    };
    let mut conns: Vec<ConnId> = (0..60).map(|_| kernel.client_connect(FLEET_PORT).unwrap()).collect();
    for _ in 0..2 {
        both(&mut kernel);
    }
    let late: Vec<ConnId> = (0..4).map(|_| kernel.client_connect(FLEET_PORT).unwrap()).collect();
    conns.extend(&late);
    let mut rng = ChaosRng::new(0xf1ee7);
    let mut replies = Vec::new();
    for round_index in 0..8 {
        // Four distinct sessions, the late ones first: the scan steps each
        // reader once per round, so a second ping on one session would wait
        // for the next round.
        let mut pinged: Vec<ConnId> = if round_index == 0 { late.clone() } else { Vec::new() };
        while pinged.len() < 4 {
            let conn = conns[rng.range(0, 64) as usize];
            if !pinged.contains(&conn) {
                pinged.push(conn);
            }
        }
        for &conn in &pinged {
            kernel.client_send(conn, b"ping".to_vec()).unwrap();
        }
        both(&mut kernel);
        replies.extend(pinged.iter().map(|&conn| kernel.client_recv(conn)));
    }
    (replies, fleet.state.counters.events_handled, Observed::of(&kernel, &fleet, None))
}

/// The equivalence check behind the scheduler tests: a [`served`] instance
/// quiesced by [`wait_quiescence`] and its copy quiesced by
/// [`request_quiescence`] plus rounds of the reference scan,
/// [`run_round_full_scan`], reach the same state on the same clock, and the
/// default gen-1 → `generation` updates that follow are identical to the
/// oracle, with the same phase trace and timings. Generation 2 must commit;
/// any other must roll back.
fn assert_barrier_and_update_match(ctx: &str, program: &str, requests: u64, open: usize, generation: u32) {
    let (mut event_kernel, mut event) = served(program, requests, open, InstrumentationConfig::full());
    let (mut scan_kernel, mut scan) = served(program, requests, open, InstrumentationConfig::full());
    wait_quiescence(&mut event_kernel, &mut event, 1_000).unwrap();
    request_quiescence(&mut scan);
    for _ in 0..1_000 {
        if all_quiesced(&scan_kernel, &scan) {
            break;
        }
        run_round_full_scan(&mut scan_kernel, &mut scan).unwrap();
    }
    assert!(all_quiesced(&scan_kernel, &scan), "{ctx}: the scan barrier did not converge");
    assert_eq!(event_kernel.now(), scan_kernel.now(), "{ctx}: barrier clocks diverged");
    let quiesced =
        Observed::of(&event_kernel, &event, None).divergences(&Observed::of(&scan_kernel, &scan, None));
    assert_eq!(quiesced, NONE, "{ctx}: quiesced state diverged");

    let update = |kernel: &mut Kernel, old: McrInstance| {
        let new = Box::new(program_by_name(program, generation));
        let (survivor, outcome) =
            live_update(kernel, old, new, InstrumentationConfig::full(), &UpdateOptions::default());
        (Observed::of(kernel, &survivor, Some(&outcome)), outcome)
    };
    let (event_seen, event) = update(&mut event_kernel, event);
    let (scan_seen, scan) = update(&mut scan_kernel, scan);
    assert_eq!(event.conflicts().is_empty(), generation == 2, "{ctx}: {:?}", event.conflicts());
    assert_eq!(event_seen.divergences(&scan_seen), NONE, "{ctx}: post-update");
    let (event, scan) = (event.report(), scan.report());
    assert_eq!(event.phases.records(), scan.phases.records(), "{ctx}: phase traces diverged");
    assert_eq!(event.timings, scan.timings, "{ctx}: timings diverged");
}

/// The event-driven scheduler agrees with the reference scan on four seeded
/// committed updates (see [`assert_barrier_and_update_match`]).
#[test]
fn event_driven_and_full_scan_updates_are_identical() {
    let programs = ["httpd", "nginx", "vsftpd", "sshd"];
    for seed in 0..4u64 {
        let mut rng = ChaosRng::new(seed + 0xfeed);
        let program = programs[seed as usize % programs.len()];
        let requests = rng.range(1, 4);
        let open = rng.range(0, 5) as usize;
        assert_barrier_and_update_match(&format!("seed {seed} ({program})"), program, requests, open, 2);
    }
}

/// Rollbacks are identical too: the same conflicting update aborts with the
/// same conflict list, per-process attribution and post-rollback kernel state.
#[test]
fn event_driven_and_full_scan_rollbacks_are_identical() {
    // vsftpd generation 1 -> 3 changes `conn_s` under non-updatable
    // references, which aborts the update during state transfer.
    assert_barrier_and_update_match("vsftpd 1 -> 3", "vsftpd", 6, 0, 3);
}

/// A fleet driven only by [`run_round`] and its copy driven only by the
/// reference scan, setup included, answer the same pings with the same bytes,
/// handle the same events and end in the same kernel state.
#[test]
fn event_driven_and_full_scan_serve_identically() {
    let (event_replies, event_events, event_seen) = serve_fleet(run_round);
    let (scan_replies, scan_events, scan_seen) = serve_fleet(run_round_full_scan);
    assert!(event_replies.iter().all(Option::is_some), "every ping was answered");
    assert_eq!(event_replies, scan_replies, "the cores answered differently");
    assert_eq!(event_events, 32, "one event per ping");
    assert_eq!(event_events, scan_events, "the cores handled different events");
    assert_eq!(event_seen.divergences(&scan_seen), NONE, "served fleet state diverged");
}

/// Boots a [`FleetServer`] of `threads` sessions and sends `rounds` rounds of
/// pings to the same 1% of them (at least one), every round (setup
/// included) through `round`. Returns the measured rounds' stats, the events
/// handled, the active session count and the served kernel and fleet.
fn serve_one_percent(
    threads: usize,
    rounds: usize,
    round: Round,
) -> (RoundStats, u64, usize, Kernel, McrInstance) {
    let mut kernel = Kernel::new();
    let mut fleet = boot(&mut kernel, Box::new(FleetServer::new(threads)), &BootOptions::default()).unwrap();
    let conns: Vec<ConnId> = (0..threads).map(|_| kernel.client_connect(FLEET_PORT).unwrap()).collect();
    // Setup: the acceptor drains the backlog, every reader parks.
    for _ in 0..2 {
        round(&mut kernel, &mut fleet).unwrap();
    }
    assert!(conns.iter().all(|&c| kernel.client_is_accepted(c)), "{threads}: all sessions accepted");
    let active = (threads / 100).max(1);
    let stride = threads / active;
    let mut stats = RoundStats::default();
    for _ in 0..rounds {
        for i in 0..active {
            kernel.client_send(conns[i * stride], b"ping".to_vec()).unwrap();
        }
        stats.absorb(&round(&mut kernel, &mut fleet).unwrap());
    }
    let events = fleet.state.counters.events_handled;
    (stats, events, active, kernel, fleet)
}

/// The event-driven scheduler's scaling contract, in thread steps (exact and
/// host-independent) at 1% active from 10 to 100 000 sessions: a round costs
/// O(active) steps at every size, the full scan pays at least 10x more at
/// 10 000 for the same events, steps per event stay flat within 2x from
/// 10 000 to 100 000, and the barrier still converges over the parked fleet.
#[test]
fn event_driven_rounds_scale_with_active_sessions() {
    const ROUNDS: usize = 10;
    let mut per_event = Vec::new();
    for threads in [10usize, 100, 1_000, 10_000, 100_000] {
        let (stats, events, active, mut kernel, mut fleet) = serve_one_percent(threads, ROUNDS, run_round);
        assert_eq!(events, (ROUNDS * active) as u64, "{threads}: every ping was handled");
        assert!(
            stats.steps() <= ROUNDS * (4 * active + 4),
            "{threads}: {} steps over {ROUNDS} rounds is not O(active = {active})",
            stats.steps()
        );
        wait_quiescence(&mut kernel, &mut fleet, 10).expect("quiescence converges");
        assert!(all_quiesced(&kernel, &fleet), "{threads}: the fleet quiesced");
        if threads == 10_000 {
            let (scan, scan_events, ..) = serve_one_percent(threads, ROUNDS, run_round_full_scan);
            assert_eq!(events, scan_events, "both cores handled the same events");
            assert!(
                scan.steps() >= 10 * stats.steps(),
                "the full scan's {} steps are not 10x the event-driven {}",
                scan.steps(),
                stats.steps()
            );
        }
        if threads >= 10_000 {
            per_event.push((threads, stats.steps() as f64 / events as f64));
        }
    }
    let floor = per_event.iter().map(|&(_, cost)| cost).fold(f64::INFINITY, f64::min);
    for (threads, cost) in per_event {
        assert!(cost <= 2.0 * floor, "{threads}: {cost:.2} steps per event, over 2x the floor {floor:.2}");
    }
}

/// Boots `program`, serves traffic, then updates either stop-the-world
/// (`precopy == false`: the seeded write batches are applied *before* the
/// update) or with pre-copy (`precopy == true`: the same batches are applied
/// *between the concurrent rounds* through the pipeline hook). Both paths
/// mutate the exact same addresses with the exact same values in the same
/// order, so both updates operate on the same final memory image — the
/// pre-copy design promises their outcomes are byte-identical.
#[allow(clippy::too_many_arguments)]
fn precopied_or_stw_update(
    program: &str,
    requests: u64,
    open: usize,
    rounds: usize,
    writes_per_round: usize,
    precopy: bool,
    fault: Option<ChaosPlan>,
    seed: u64,
) -> (Observed, UpdateOutcome) {
    let (mut kernel, v1) = served(program, requests, open, InstrumentationConfig::full());
    let mut rng = ChaosRng::new(seed ^ 0x9d0f_11e5);
    let stamps: Vec<u32> = (0..rounds).map(|_| rng.next() as u32).collect();
    let rounds = if precopy { rounds } else { 0 };
    let opts = UpdateOptions {
        precopy: PrecopyOptions { rounds, ..PrecopyOptions::disabled() },
        ..Default::default()
    };
    let mut pipeline = if precopy {
        let stamps = stamps.clone();
        UpdatePipeline::for_options(&opts).with_precopy_hook(Box::new(move |kernel, old, round| {
            dirty_connection_nodes(kernel, old, writes_per_round, stamps[round - 1]);
        }))
    } else {
        for &stamp in &stamps {
            dirty_connection_nodes(&mut kernel, &v1, writes_per_round, stamp);
        }
        UpdatePipeline::for_options(&opts)
    };
    if let Some(fault) = fault {
        pipeline = pipeline.with_fault_plan(fault);
    }
    let new = Box::new(program_by_name(program, 2));
    let (survivor, outcome) = pipeline.run(&mut kernel, v1, new, InstrumentationConfig::full(), &opts);
    (Observed::of(&kernel, &survivor, Some(&outcome)), outcome)
}

/// Pre-copy + delta commit is byte-identical to a pure stop-the-world
/// update: with a seeded mutator dirtying connection records between the
/// concurrent rounds, the oracle finds the committed update identical to the
/// baseline that applied the same writes up front. Only the downtime split
/// may (and must) differ. The second group of cases is the matrix the
/// slab-indexed kernel substrate was checked against: identical fingerprints
/// there prove the slab rework changed no observable order.
#[test]
fn precopy_and_stop_the_world_updates_are_identical() {
    let programs = ["httpd", "nginx", "vsftpd", "sshd"];
    let cases = (0..4u64)
        .map(|seed| {
            let mut rng = ChaosRng::new(seed + 0xacce55);
            (seed, rng.range(2, 5), rng.range(0, 4), rng.range(2, 5), rng.range(1, 3))
        })
        .chain((0..6u64).map(|seed| {
            let mut rng = ChaosRng::new(seed + 0x51ab);
            (seed, rng.range(1, 4), rng.range(0, 4), rng.range(2, 4), rng.range(1, 3))
        }));
    for (case, (seed, requests, open, rounds, writes)) in cases.enumerate() {
        let program = programs[seed as usize % programs.len()];
        let ctx = format!("case {case}, seed {seed} ({program})");
        let (open, rounds, writes) = (open as usize, rounds as usize, writes as usize);
        let (stw_seen, stw) =
            precopied_or_stw_update(program, requests, open, rounds, writes, false, None, seed);
        let (pre_seen, pre) =
            precopied_or_stw_update(program, requests, open, rounds, writes, true, None, seed);
        assert!(stw.is_committed(), "{ctx}: {:?}", stw.conflicts());
        assert_eq!(pre_seen.divergences(&stw_seen), NONE, "{ctx}");
        // The pre-copy run really ran concurrent rounds and the window only
        // paid for the residual.
        let (stw, pre) = (stw.report(), pre.report());
        assert!(pre.precopy.enabled && !pre.precopy.rounds.is_empty(), "{ctx}: no rounds ran");
        assert!(!stw.precopy.enabled);
        assert!(
            pre.precopy.residual.objects <= stw.precopy.residual.objects,
            "{ctx}: pre-copy did not shrink the residual"
        );
        assert!(pre.timings.downtime <= stw.timings.downtime, "{ctx}: pre-copy increased downtime");
        let precopy_time = |r: &UpdateReport| r.phases.duration_of(PhaseName::Precopy).unwrap_or_default();
        assert!(precopy_time(pre).0 > 0 && precopy_time(stw).0 == 0, "{ctx}");
    }
}

/// Rollbacks too: a fault injected right before commit aborts a pre-copied
/// update exactly like it aborts a stop-the-world one, to the oracle.
#[test]
fn precopy_and_stop_the_world_rollbacks_are_identical() {
    let fault = || Some(FaultSite::Boundary(PhaseName::Commit).plan());
    let (stw_seen, stw) = precopied_or_stw_update("nginx", 3, 2, 3, 2, false, fault(), 0x0ff);
    let (pre_seen, pre) = precopied_or_stw_update("nginx", 3, 2, 3, 2, true, fault(), 0x0ff);
    assert!(
        stw.conflicts().iter().any(|c| matches!(c, mcr_core::Conflict::FaultInjected { .. })),
        "baseline did not abort"
    );
    assert_eq!(pre_seen.divergences(&stw_seen), NONE);
    // The pre-copied attempt aborted after its concurrent rounds ran.
    assert!(pre.report().precopy.enabled && !pre.report().precopy.rounds.is_empty());
}

/// Boots the single-process cache archetype, bulk-fills its heap with
/// 192-byte values (three elements of the 64-byte type their pointer
/// declares; `cache_update_under_traffic` covers 96-byte values, which that
/// type does not tile), then live-updates gen-1 → gen-2 with the given
/// intra-pair shard count in `mode`. The seeded xorshift mutator dirties
/// every 3rd cache entry once per "round": under `Precopy` through the
/// pipeline's between-rounds hook, otherwise all batches up front — both
/// paths mutate the same addresses with the same values in the same order,
/// so every configuration updates the same final memory image.
fn sharded_cache_update(
    entries: u64,
    shards: usize,
    rounds: usize,
    mode: TransferMode,
    fault: Option<ChaosPlan>,
    seed: u64,
) -> (Observed, UpdateOutcome) {
    let precopy = mode == TransferMode::Precopy;
    let mut kernel = Kernel::new();
    let mut v1 = boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).unwrap();
    cache_request(&mut kernel, &mut v1, &format!("fill {entries} 192"));
    let mut rng = ChaosRng::new(seed ^ 0x517a_11e5);
    let stamps: Vec<u32> = (0..rounds).map(|_| rng.next() as u32).collect();
    let precopy_options =
        PrecopyOptions { rounds: if precopy { rounds } else { 0 }, ..PrecopyOptions::disabled() };
    let opts =
        UpdateOptions { mode, intra_pair_shards: shards, precopy: precopy_options, ..Default::default() };
    let quiesced = Rc::new(RefCell::new(Observed::of(&kernel, &v1, None)));
    let mut pipeline = if precopy {
        let stamps = stamps.clone();
        let quiesced = Rc::clone(&quiesced);
        UpdatePipeline::for_options(&opts).with_precopy_hook(Box::new(move |kernel, old, round| {
            dirty_cache_records(kernel, old, 3, stamps[round - 1]);
            *quiesced.borrow_mut() = Observed::of(kernel, old, None);
        }))
    } else {
        for &stamp in &stamps {
            dirty_cache_records(&mut kernel, &v1, 3, stamp);
        }
        *quiesced.borrow_mut() = Observed::of(&kernel, &v1, None);
        UpdatePipeline::for_options(&opts)
    };
    if let Some(fault) = fault {
        pipeline = pipeline.with_fault_plan(fault);
    }
    let (survivor, outcome) =
        pipeline.run(&mut kernel, v1, Box::new(CacheServer::new(2)), InstrumentationConfig::full(), &opts);
    assert_audit_carried(&quiesced.borrow(), &kernel, &survivor, &format!("{mode:?}/{shards} shards"));
    (Observed::of(&kernel, &survivor, Some(&outcome)), outcome)
}

/// The cache's abstract state is the old version's at quiescence,
/// `quiesced`, whether `survivor` is the new version after commit or the old
/// one after a rollback: every key with its value's checksum and size, and
/// the counters. Only the kernel image may differ; the gen-1 → gen-2
/// transform adds only `entry_s.hits`, which the audit does not read.
fn assert_audit_carried(quiesced: &Observed, kernel: &Kernel, survivor: &McrInstance, ctx: &str) {
    let carried = quiesced.divergences(&Observed::of(kernel, survivor, None));
    assert!(carried.iter().all(|d| d.starts_with("fingerprint ")), "{ctx}: {carried:?}");
    assert!(
        survivor.audit(kernel).is_some_and(|entries| entries.len() > 4),
        "{ctx}: the cache holds entries"
    );
}

/// The intra-pair sharded engine is deterministic end to end: on the
/// single-process big-heap archetype, the oracle finds committed updates
/// identical across `intra_pair_shards ∈ {1, 2, 7}`, stop-the-world,
/// pre-copied (the seeded xorshift mutator dirtying entries between rounds)
/// and post-copied. Only the charged makespan may shrink.
#[test]
fn intra_pair_sharded_commits_are_byte_identical() {
    let mut runs = Vec::new();
    for mode in [TransferMode::StopTheWorld, TransferMode::Precopy, TransferMode::Postcopy] {
        let (base_seen, base) = sharded_cache_update(300, 1, 3, mode, None, 0xCAC4E);
        assert!(base.is_committed(), "{mode:?}: {:?}", base.conflicts());
        let base = base.report();
        assert!(base.transfer.objects_transferred() >= 600, "entries and values moved");
        assert_eq!(base.precopy.enabled, mode == TransferMode::Precopy);
        for shards in [2usize, 7] {
            let (seen, outcome) = sharded_cache_update(300, shards, 3, mode, None, 0xCAC4E);
            assert_eq!(seen.divergences(&base_seen), NONE, "{mode:?}/{shards} shards");
            // The whole point: the charged trace+transfer makespan strictly
            // improves on the single pair. (Post-copy charges its copying
            // to the commit and drain phases instead.)
            let report = outcome.report();
            assert!(
                mode == TransferMode::Postcopy || report.timings.state_transfer < base.timings.state_transfer,
                "{mode:?}/{shards} shards: no makespan speedup ({:?} vs {:?})",
                report.timings.state_transfer,
                base.timings.state_transfer
            );
        }
        runs.push(base_seen);
    }
    // ... and the updates are also identical across the modes (same seed →
    // same final memory image).
    assert_eq!(runs[1].divergences(&runs[0]), NONE, "pre-copy diverged");
    assert_eq!(runs[2].divergences(&runs[0]), NONE, "post-copy diverged");
}

/// Rollbacks too: a mid-phase fault at the n-th transferred object aborts
/// the sharded update exactly like the serial one, to the oracle, whether
/// the fault lands in the stop-the-world window or inside a concurrent
/// pre-copy round.
#[test]
fn intra_pair_sharded_rollbacks_are_byte_identical() {
    for mode in [TransferMode::StopTheWorld, TransferMode::Precopy] {
        let precopy = mode == TransferMode::Precopy;
        // A single matched pair with its serial apply pass makes the shared
        // n-th-object counter deterministic, so the fault lands on the same
        // object for every shard count.
        let fault = || Some(FaultSite::TransferObject(25).plan());
        let (base_seen, base) = sharded_cache_update(200, 1, 2, mode, fault(), 0xB0B0);
        assert!(
            base.conflicts().iter().any(|c| matches!(c, mcr_core::Conflict::FaultInjected { .. })),
            "precopy={precopy}: the armed fault did not fire: {:?}",
            base.conflicts()
        );
        let base = base.report();
        for shards in [2usize, 7] {
            let (seen, outcome) = sharded_cache_update(200, shards, 2, mode, fault(), 0xB0B0);
            assert_eq!(seen.divergences(&base_seen), NONE, "precopy={precopy}/{shards}");
            assert_eq!(base.phases.records().len(), outcome.report().phases.records().len());
        }
        // With pre-copy the abort happened inside a concurrent round: the
        // old instance was still live, so no downtime was charged.
        if precopy {
            assert_eq!(base.timings.downtime.0, 0, "fault inside a round costs no downtime");
        }
    }
}

/// One cache request through a client connection, answered by the old
/// version while it still serves.
fn cache_request(kernel: &mut Kernel, instance: &mut mcr_core::runtime::McrInstance, request: &str) {
    let conn = kernel.client_connect(CACHE_PORT).unwrap();
    kernel.client_send(conn, request.as_bytes().to_vec()).unwrap();
    mcr_core::runtime::run_rounds(kernel, instance, 2).unwrap();
    assert!(kernel.client_recv(conn).is_some(), "the cache answered `{request}`");
    kernel.client_close(conn).unwrap();
}

/// A gen-1 → gen-2 cache update under three pre-copy rounds with seeded
/// get/set/evict requests served between the rounds: gets stamp entries, sets
/// put new entries and values at bucket heads, evicts unlink heads — so every
/// retrace re-scans, discovers and sweeps, and the completing pass meets
/// clean holders of pointers into ranges that changed.
fn cache_update_under_traffic(
    mode: TransferMode,
    shards: usize,
    workers: usize,
    seed: u64,
) -> (Observed, UpdateOutcome) {
    let mut kernel = Kernel::new();
    let mut v1 = boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).unwrap();
    cache_request(&mut kernel, &mut v1, "fill 1600 96");
    let mut rng = ChaosRng::new(seed ^ 0x7eaf_f1c0);
    let batches: Vec<Vec<&str>> = (0..3)
        .map(|_| {
            // The same work for every seed; the seed orders it.
            let mut requests = [["get"; 6].as_slice(), &["set 96"; 4], &["evict"; 2]].concat();
            for i in (1..requests.len()).rev() {
                requests.swap(i, rng.range(0, i as u64 + 1) as usize);
            }
            requests
        })
        .collect();
    let opts = UpdateOptions {
        mode,
        intra_pair_shards: shards,
        transfer_workers: workers,
        precopy: PrecopyOptions { rounds: 3, convergence_bytes: 0, serve_rounds: 1 },
        ..Default::default()
    };
    let quiesced = Rc::new(RefCell::new(Observed::of(&kernel, &v1, None)));
    let slot = Rc::clone(&quiesced);
    let pipeline =
        UpdatePipeline::for_options(&opts).with_precopy_hook(Box::new(move |kernel, old, round| {
            for request in &batches[round - 1] {
                cache_request(kernel, old, request);
            }
            *slot.borrow_mut() = Observed::of(kernel, old, None);
        }));
    let (survivor, outcome) =
        pipeline.run(&mut kernel, v1, Box::new(CacheServer::new(2)), InstrumentationConfig::full(), &opts);
    let ctx = format!("{mode:?}/{shards} shards/{workers} workers");
    assert_audit_carried(&quiesced.borrow(), &kernel, &survivor, &ctx);
    (Observed::of(&kernel, &survivor, Some(&outcome)), outcome)
}

/// A pre-copied update whose completing pass writes only what changed is
/// still one deterministic update: with get/set/evict traffic between the
/// rounds, `Precopy` and `Postcopy` each commit with the same kernel
/// outcome to the oracle, and the same residual and object writes, with 1
/// and 4 intra-pair shards and 1 and 2 transfer workers — and perform one
/// write per object plus a few per object the traffic touched, not two per
/// object.
#[test]
fn precopied_cache_updates_under_traffic_are_identical_and_write_each_object_once() {
    for mode in [TransferMode::Precopy, TransferMode::Postcopy] {
        for seed in [11u64, 12] {
            let (base_seen, base) = cache_update_under_traffic(mode, 1, 1, seed);
            assert!(base.is_committed(), "{mode:?}/{seed}: {:?}", base.conflicts());
            let base = base.report();
            for (shards, workers) in [(1usize, 2usize), (4, 1), (4, 2)] {
                let (seen, outcome) = cache_update_under_traffic(mode, shards, workers, seed);
                let label = format!("{mode:?}/seed {seed}/{shards}/{workers}");
                assert_eq!(seen.divergences(&base_seen), NONE, "{label}");
                let report = outcome.report();
                assert_eq!(base.precopy.residual.objects, report.precopy.residual.objects, "{label}");
                assert_eq!(base.precopy.residual.bytes, report.precopy.residual.bytes, "{label}");
                assert_eq!(base.object_writes, report.object_writes, "{label}: writes diverged");
            }
            // Work bound, as counts: N objects copied once, then the d the
            // traffic dirtied (re-copied by a later round or the window) and
            // the s statics, a few times each.
            let rounds = &base.precopy.rounds;
            let n = rounds[0].objects;
            let d: u64 = rounds[1..].iter().map(|r| r.objects).sum::<u64>() + base.precopy.residual.objects;
            let s = 3;
            assert!(n >= 3200 && d >= 3 && d < n / 4, "{mode:?}/{seed}: n {n}, d {d}");
            assert!(
                base.object_writes <= n + 4 * (d + s),
                "{mode:?}/{seed}: {} writes for n {n}, d {d}",
                base.object_writes
            );
        }
    }
}

/// A gen-1 → gen-2 cache update of a 64-entry cache after one more
/// `request`: stop-the-world with the request served before the update, or
/// under one pre-copy round with the request served after the round copied
/// the cache. Returns what the run observed, and the live heap chunks and
/// live bytes of the new cache process.
fn cache_update_after_round_one(precopy: bool, request: &'static str) -> (Observed, (usize, u64)) {
    let mut kernel = Kernel::new();
    let mut v1 = boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).unwrap();
    cache_request(&mut kernel, &mut v1, "fill 64 96");
    let precopy_options = PrecopyOptions { rounds: usize::from(precopy), ..PrecopyOptions::disabled() };
    let opts = UpdateOptions { precopy: precopy_options, ..Default::default() };
    let pipeline = if precopy {
        UpdatePipeline::for_options(&opts)
            .with_precopy_hook(Box::new(move |kernel, old, _| cache_request(kernel, old, request)))
    } else {
        cache_request(&mut kernel, &mut v1, request);
        UpdatePipeline::for_options(&opts)
    };
    let (survivor, outcome) =
        pipeline.run(&mut kernel, v1, Box::new(CacheServer::new(2)), InstrumentationConfig::full(), &opts);
    assert!(outcome.is_committed(), "precopy {precopy}, {request}: {:?}", outcome.conflicts());
    assert!(survivor.audit(&kernel).is_some(), "the cache audits its entries");
    let process = kernel.process(survivor.state.processes[0]).unwrap();
    let (space, heap) = (process.space(), process.heap().unwrap());
    let live = (heap.live_count(), heap.live_chunks(space).map(|c| c.size).sum());
    (Observed::of(&kernel, &survivor, Some(&outcome)), live)
}

/// An entry a pre-copy round copied and the old version then evicted
/// leaves the new heap with it: the completing pass frees the chunk of
/// every object that left the graph, so the pre-copied update ends with the
/// live chunks and live bytes of a stop-the-world update of the same final
/// state. With a `get` in its place the oracle finds the two identical.
/// With the `evict` it names one field, the kernel fingerprint, which
/// differs by placement alone: the freed chunk is a hole the later
/// allocations do not fill the way a stop-the-world transfer packs them.
#[test]
fn precopy_frees_an_entry_evicted_after_a_round_copied_it() {
    let diverging_fields = |request| {
        let (stw, stw_live) = cache_update_after_round_one(false, request);
        let (pre, pre_live) = cache_update_after_round_one(true, request);
        assert_eq!(pre_live, stw_live, "{request}: live chunks and bytes, pre-copied against stop-the-world");
        let fields = pre.divergences(&stw).into_iter().map(|d| d.split(' ').next().unwrap().to_string());
        fields.collect::<Vec<_>>()
    };
    assert_eq!(diverging_fields("get"), NONE, "no eviction, no divergence");
    assert_eq!(
        diverging_fields("evict"),
        ["fingerprint"],
        "the evicted entry's freed chunk is a hole: placement differs, nothing leaks"
    );
}

/// The slab-backed object table behaves exactly like the ordered map it
/// replaced: a shadow `BTreeMap` model driven by the same seeded operation
/// stream agrees on lookups, refcounts, insertion-order iteration (ascending
/// id — ids are monotonic and never reused) and the lowest-live-id port
/// resolution, and stale ids (the generation tags) never resolve.
#[test]
fn object_table_slab_matches_the_ordered_map_model() {
    use std::collections::{BTreeMap, VecDeque};
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed ^ 0x0b1ec7);
        let mut table = ObjectTable::new();
        let mut model: BTreeMap<u64, (KernelObject, u32)> = BTreeMap::new();
        let mut dead: Vec<ObjId> = Vec::new();
        let mut next_conn = 1u64;
        let steps = rng.range(20, 120);
        for _ in 0..steps {
            let live: Vec<u64> = model.keys().copied().collect();
            match rng.range(0, 10) {
                // Insert a fresh object (weighted so tables actually grow).
                0..=3 => {
                    let obj = match rng.range(0, 4) {
                        0 => KernelObject::Listener {
                            port: (rng.range(1, 6) * 1000) as u16,
                            listening: chance(&mut rng),
                            backlog: VecDeque::new(),
                        },
                        1 => {
                            let conn = ConnId(next_conn);
                            next_conn += 1;
                            KernelObject::Connection {
                                conn,
                                inbox: VecDeque::new(),
                                outbox: VecDeque::new(),
                                peer_closed: false,
                            }
                        }
                        2 => KernelObject::Pipe { buffer: VecDeque::new() },
                        _ => KernelObject::File { path: ident(&mut rng, 8), offset: rng.range(0, 64) },
                    };
                    let id = table.insert(obj.clone());
                    assert!(model.insert(id.0, (obj, 1)).is_none(), "seed {seed}: id {id:?} reused");
                }
                // Duplicate a random live object (fork / fd passing).
                4 if !live.is_empty() => {
                    let id = live[rng.range(0, live.len() as u64) as usize];
                    table.incref(ObjId(id));
                    model.get_mut(&id).expect("live").1 += 1;
                }
                // Drop one reference; the object dies at zero.
                5 | 6 if !live.is_empty() => {
                    let id = live[rng.range(0, live.len() as u64) as usize];
                    let destroyed = table.decref(ObjId(id));
                    let rc = &mut model.get_mut(&id).expect("live").1;
                    *rc -= 1;
                    assert_eq!(destroyed, *rc == 0, "seed {seed}: destroy disagreement on {id}");
                    if *rc == 0 {
                        model.remove(&id);
                        dead.push(ObjId(id));
                    }
                }
                // Mutate a live connection's inbox through `get_mut`.
                7 if !live.is_empty() => {
                    let id = live[rng.range(0, live.len() as u64) as usize];
                    let payload = ident(&mut rng, 6).into_bytes();
                    if let Some(KernelObject::Connection { inbox, .. }) = table.get_mut(ObjId(id)) {
                        inbox.push_back(payload.clone());
                        match &mut model.get_mut(&id).expect("live").0 {
                            KernelObject::Connection { inbox, .. } => inbox.push_back(payload),
                            other => panic!("seed {seed}: model holds {other:?} under {id}"),
                        }
                    }
                }
                // Stale ids must act dead: no lookup, refcount 0, decref no-op.
                _ => {
                    if let Some(&id) = dead.last() {
                        assert!(table.get(id).is_none(), "seed {seed}: stale {id:?} resolved");
                        assert_eq!(table.refcount(id), 0, "seed {seed}: stale {id:?} has refs");
                        assert!(!table.decref(id), "seed {seed}: stale {id:?} destroyed twice");
                    }
                }
            }
            // Step invariants: size, per-id state, and iteration order.
            assert_eq!(table.len(), model.len(), "seed {seed}: live count diverged");
            let order: Vec<u64> = table.iter().map(|(id, _)| id.0).collect();
            let expected: Vec<u64> = model.keys().copied().collect();
            assert_eq!(order, expected, "seed {seed}: insertion order is not ascending-id order");
            for (id, (obj, rc)) in &model {
                assert_eq!(table.get(ObjId(*id)), Some(obj), "seed {seed}: object {id} diverged");
                assert_eq!(table.refcount(ObjId(*id)), *rc, "seed {seed}: refcount {id} diverged");
            }
        }
        // Indexed lookups match a full scan of the model.
        for port in [1000u16, 2000, 3000, 4000, 5000] {
            let scan = model
                .iter()
                .filter(|(_, (o, _))| {
                    matches!(o, KernelObject::Listener { port: p, listening: true, .. } if *p == port)
                })
                .map(|(&id, _)| ObjId(id))
                .min();
            assert_eq!(table.listener_for_port(port), scan, "seed {seed}: port {port} diverged");
        }
        for conn in 1..next_conn {
            let scan = model
                .iter()
                .filter(
                    |(_, (o, _))| matches!(o, KernelObject::Connection { conn: c, .. } if *c == ConnId(conn)),
                )
                .map(|(&id, _)| ObjId(id))
                .min();
            assert_eq!(table.connection_for(ConnId(conn)), scan, "seed {seed}: conn {conn} diverged");
        }
    }
}

/// The slab-backed descriptor table behaves exactly like the ordered map it
/// replaced: a shadow `BTreeMap` model agrees on lowest-free-first
/// allocation, never-recycled reserved numbers, explicit installs, removal,
/// and ascending-descriptor iteration across the low and reserved ranges.
#[test]
fn fd_table_slab_matches_the_ordered_map_model() {
    use std::collections::BTreeMap;
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed ^ 0xfd7ab1e);
        let mut table = FdTable::new();
        let mut model: BTreeMap<i32, FdEntry> = BTreeMap::new();
        let mut reserved_high = RESERVED_FD_BASE - 1;
        let steps = rng.range(20, 120);
        for step in 0..steps {
            let obj = ObjId(step + 1);
            match rng.range(0, 8) {
                0..=2 => {
                    let fd = table.alloc(obj);
                    let lowest = (0..).find(|n| !model.contains_key(n)).expect("some free fd");
                    assert_eq!(fd.0, lowest, "seed {seed}: allocation is not lowest-free-first");
                    model.insert(fd.0, FdEntry { object: obj, cloexec: false, inherited: false });
                }
                3 => {
                    let fd = table.alloc_reserved(obj);
                    assert!(fd.is_reserved(), "seed {seed}: reserved alloc left the high range");
                    assert!(fd.0 > reserved_high, "seed {seed}: reserved number {fd} reissued");
                    reserved_high = fd.0;
                    model.insert(fd.0, FdEntry { object: obj, cloexec: false, inherited: true });
                }
                4 => {
                    let fd = Fd(rng.range(0, 40) as i32);
                    let res = table.install_at(fd, obj, true);
                    match model.entry(fd.0) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            assert!(res.is_err(), "seed {seed}: install_at clobbered open {fd}");
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            res.unwrap_or_else(|err| panic!("seed {seed}: install_at({fd}) failed: {err}"));
                            slot.insert(FdEntry { object: obj, cloexec: false, inherited: true });
                        }
                    }
                }
                5 | 6 if !model.is_empty() => {
                    let open: Vec<i32> = model.keys().copied().collect();
                    let fd = Fd(open[rng.range(0, open.len() as u64) as usize]);
                    let removed = table.remove(fd).unwrap_or_else(|e| {
                        panic!("seed {seed}: remove({fd}) failed: {e}");
                    });
                    assert_eq!(Some(removed), model.remove(&fd.0), "seed {seed}: entry diverged");
                }
                _ if !model.is_empty() => {
                    let open: Vec<i32> = model.keys().copied().collect();
                    let fd = Fd(open[rng.range(0, open.len() as u64) as usize]);
                    let flag = chance(&mut rng);
                    table.set_cloexec(fd, flag).expect("open descriptor");
                    model.get_mut(&fd.0).expect("open").cloexec = flag;
                }
                _ => {}
            }
            // Step invariants: size, lookups, and ascending iteration (low
            // range first, then reserved — i.e. plain ascending fd order).
            assert_eq!(table.len(), model.len(), "seed {seed}: open count diverged");
            let got: Vec<(i32, FdEntry)> = table.iter().map(|(fd, e)| (fd.0, e)).collect();
            let expected: Vec<(i32, FdEntry)> = model.iter().map(|(&fd, &e)| (fd, e)).collect();
            assert_eq!(got, expected, "seed {seed}: iteration diverged from the ordered model");
        }
    }
}

const DENSE_BASE: u64 = 0x2000_0000;
/// Twelve pages, the last one partial.
const DENSE_SIZE: usize = 11 * PAGE_SIZE as usize + 1234;
const PAGE: usize = PAGE_SIZE as usize;

/// The representation the paged `AddressSpace` replaced, kept as its
/// reference: one region as a dense byte vector plus per-page stamps.
#[derive(Clone)]
struct DenseSpace {
    data: Vec<u8>,
    stamps: Vec<u64>,
    protected: Vec<bool>,
    epoch: u64,
    write_count: u64,
    parked: Vec<PendingTrap>,
}

/// The two ways an access can fail, as the model names them.
#[derive(Debug, PartialEq)]
enum Fault {
    Unmapped,
    OutOfBounds,
}

fn fault_of<T>(result: Result<T, SimError>) -> Result<T, Fault> {
    result.map_err(|err| match err {
        SimError::UnmappedAddress(_) => Fault::Unmapped,
        SimError::OutOfBounds { .. } => Fault::OutOfBounds,
        other => panic!("unexpected error {other}"),
    })
}

impl DenseSpace {
    fn new() -> Self {
        let pages = DENSE_SIZE.div_ceil(PAGE);
        DenseSpace {
            data: vec![0; DENSE_SIZE],
            stamps: vec![1; pages],
            protected: vec![false; pages],
            epoch: 1,
            write_count: 0,
            parked: Vec::new(),
        }
    }

    fn offset(&self, addr: u64, len: usize) -> Result<usize, Fault> {
        if addr < DENSE_BASE || addr >= DENSE_BASE + DENSE_SIZE as u64 {
            return Err(Fault::Unmapped);
        }
        let off = (addr - DENSE_BASE) as usize;
        if off + len > DENSE_SIZE {
            return Err(Fault::OutOfBounds);
        }
        Ok(off)
    }

    /// Pages touched by `len` bytes at `off` (a zero-length access touches one).
    fn span(&self, off: usize, len: usize) -> std::ops::RangeInclusive<usize> {
        off / PAGE..=((off + len.max(1) - 1) / PAGE).min(self.stamps.len() - 1)
    }

    fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        let off = self.offset(addr, len)?;
        Ok(self.data[off..off + len].to_vec())
    }

    fn write_through(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Fault> {
        let off = self.offset(addr, bytes.len())?;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        for page in self.span(off, bytes.len()) {
            self.stamps[page] = self.epoch;
        }
        self.write_count += 1;
        Ok(())
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Fault> {
        let off = self.offset(addr, bytes.len())?;
        if self.span(off, bytes.len()).any(|page| self.protected[page]) {
            self.parked.push(PendingTrap { addr: Addr(addr), bytes: bytes.to_vec() });
            return Ok(());
        }
        self.write_through(addr, bytes)
    }

    fn set_protection(&mut self, addr: u64, len: u64, value: bool) -> Result<(), Fault> {
        let off = self.offset(addr, len as usize)?;
        for page in self.span(off, len as usize) {
            self.protected[page] = value;
        }
        Ok(())
    }

    fn cstring(&self, addr: u64, max: usize) -> Result<String, Fault> {
        let mut out = Vec::new();
        for i in 0..max as u64 {
            match self.read(addr + i, 1)?[0] {
                0 => break,
                b => out.push(b),
            }
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    fn dirty_since(&self, since: u64) -> Vec<DirtyRange> {
        let mut out: Vec<DirtyRange> = Vec::new();
        for (page, _) in self.stamps.iter().enumerate().filter(|(_, &stamp)| stamp > since) {
            let base = Addr(DENSE_BASE + (page * PAGE) as u64);
            match out.last_mut() {
                Some(run) if run.base.0 + run.len == base.0 => run.len += PAGE_SIZE,
                _ => out.push(DirtyRange { base, len: PAGE_SIZE, kind: RegionKind::Heap }),
            }
        }
        out
    }
}

/// An access for the model test: somewhere in (or just past) the region,
/// biased towards page boundaries and the region end, zero to ~2.5 pages long.
fn dense_access(rng: &mut ChaosRng) -> (u64, usize) {
    let len = match rng.range(0, 6) {
        0 => 0,
        1..=3 => rng.range(1, 17),
        4 => rng.range(17, PAGE_SIZE),
        _ => rng.range(PAGE_SIZE, 5 * PAGE_SIZE / 2),
    } as usize;
    let off = match rng.range(0, 8) {
        0..=2 => rng.range(1, 12) * PAGE_SIZE - rng.range(0, 12),
        3 => (DENSE_SIZE as u64 + 8).saturating_sub(len as u64 + rng.range(0, 16)),
        _ => rng.range(0, DENSE_SIZE as u64 + 64),
    };
    (DENSE_BASE + off, len)
}

/// The demand-zero, copy-on-write `AddressSpace` is observably the dense
/// region it replaced: the same seeded operation stream drives both, every
/// result and fault is compared, and after every step the full contents,
/// per-page stamps, protection, `write_count` and parked stores of every copy
/// agree with its model. `clone()` mid-sequence forks both sides, after which
/// writes land on either copy, so a leak through a shared page in either
/// direction shows up as a content mismatch on the other copy.
#[test]
fn paged_address_space_matches_the_dense_model() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed ^ 0x9a6ed);
        let mut space = AddressSpace::new();
        space.map_region(Addr(DENSE_BASE), DENSE_SIZE as u64, RegionKind::Heap, "heap").unwrap();
        let mut copies = vec![(space, DenseSpace::new())];
        let steps = rng.range(60, 240);
        let fork_at = rng.range(10, 60);
        for step in 0..steps {
            if step == fork_at {
                copies.push(copies[0].clone());
            }
            let target = rng.range(0, copies.len() as u64) as usize;
            // `copy_range` reads from the other copy, or a snapshot of this one.
            let source = copies[(target + 1) % copies.len()].clone();
            let (paged, dense) = &mut copies[target];
            let (addr, len) = dense_access(&mut rng);
            let at = Addr(addr);
            let ctx = format!("seed {seed} step {step}: {addr:#x}+{len}");
            match rng.range(0, 16) {
                0..=2 => {
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                    assert_eq!(fault_of(paged.write_bytes(at, &bytes)), dense.write(addr, &bytes), "{ctx}");
                }
                3 => {
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                    let got = fault_of(paged.write_bytes_through(at, &bytes));
                    assert_eq!(got, dense.write_through(addr, &bytes), "{ctx}");
                }
                4 | 5 => {
                    let (from, _) = dense_access(&mut rng);
                    let got = fault_of(paged.copy_range(at, &source.0, Addr(from), len));
                    // Source faults are reported before destination faults.
                    let want = source.1.read(from, len).and_then(|bytes| dense.write_through(addr, &bytes));
                    assert_eq!(got, want, "{ctx} from {from:#x}");
                }
                6 => {
                    let value = if chance(&mut rng) { 0 } else { rng.next() as u8 };
                    assert_eq!(
                        fault_of(paged.fill(at, len, value)),
                        dense.write(addr, &vec![value; len]),
                        "{ctx}"
                    );
                }
                7 => {
                    let mut buf = vec![0xAA; len];
                    let got = fault_of(paged.read_into(at, &mut buf)).map(|()| buf);
                    assert_eq!(got, dense.read(addr, len), "{ctx}");
                    assert_eq!(fault_of(paged.read_bytes(at, len)), dense.read(addr, len), "{ctx}");
                }
                8 => {
                    let value = rng.next();
                    assert_eq!(
                        fault_of(paged.write_u64(at, value)),
                        dense.write(addr, &value.to_le_bytes()),
                        "{ctx}"
                    );
                    let got = fault_of(paged.write_u32(at.offset(3), value as u32));
                    assert_eq!(got, dense.write(addr + 3, &(value as u32).to_le_bytes()), "{ctx}");
                    assert_eq!(fault_of(paged.write_u8(at, 1)), dense.write(addr, &[1]), "{ctx}");
                }
                9 => {
                    let word = |n: usize| {
                        dense.read(addr, n).map(|b| b.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b)))
                    };
                    assert_eq!(fault_of(paged.read_u64(at)), word(8), "{ctx}");
                    assert_eq!(fault_of(paged.read_u32(at)).map(u64::from), word(4), "{ctx}");
                    assert_eq!(fault_of(paged.read_u8(at)).map(u64::from), word(1), "{ctx}");
                    assert_eq!(fault_of(paged.read_cstring(at, len)), dense.cstring(addr, len), "{ctx}");
                }
                10 => {
                    let got = fault_of(paged.protect_range(at, len as u64));
                    assert_eq!(got, dense.set_protection(addr, len as u64, true), "{ctx}");
                }
                11 => {
                    let got = fault_of(paged.unprotect_range(at, len as u64));
                    assert_eq!(got, dense.set_protection(addr, len as u64, false), "{ctx}");
                }
                12 => {
                    // The fault handler: lift each parked store's protection,
                    // then replay it.
                    let traps = paged.take_pending_traps();
                    assert_eq!(traps, std::mem::take(&mut dense.parked), "{ctx}");
                    for trap in traps {
                        let len = trap.bytes.len().max(1) as u64;
                        let got = fault_of(paged.unprotect_range(trap.addr, len));
                        assert_eq!(got, dense.set_protection(trap.addr.0, len, false), "{ctx}");
                        paged.write_bytes(trap.addr, &trap.bytes).unwrap();
                        dense.write(trap.addr.0, &trap.bytes).unwrap();
                    }
                }
                13 => {
                    assert_eq!(paged.advance_write_epoch(), dense.epoch, "{ctx}");
                    dense.epoch += 1;
                }
                14 if rng.range(0, 4) == 0 => {
                    paged.clear_soft_dirty();
                    dense.stamps.fill(0);
                }
                _ => {
                    let since = rng.range(0, dense.epoch + 1);
                    assert_eq!(paged.drain_dirty_since(since), dense.dirty_since(since), "{ctx}");
                }
            }
            for (which, (paged, dense)) in copies.iter().enumerate() {
                let ctx = format!("{ctx}, copy {which}");
                let contents = paged.read_bytes(Addr(DENSE_BASE), DENSE_SIZE).unwrap();
                if contents != dense.data {
                    let at = contents.iter().zip(&dense.data).position(|(a, b)| a != b);
                    panic!("{ctx}: contents differ at offset {at:?}");
                }
                let region = paged.region_containing(Addr(DENSE_BASE)).unwrap();
                let page_addrs = (0..region.page_count() as u64).map(|p| Addr(DENSE_BASE + p * PAGE_SIZE));
                let stamps: Vec<u64> = page_addrs.clone().map(|a| region.page_dirty_epoch(a)).collect();
                let protected: Vec<bool> = page_addrs.map(|a| region.page_is_protected(a)).collect();
                assert_eq!(stamps, dense.stamps, "{ctx}: dirty stamps");
                assert_eq!(protected, dense.protected, "{ctx}: protection");
                assert_eq!(
                    paged.protected_page_count(),
                    dense.protected.iter().filter(|&&p| p).count(),
                    "{ctx}"
                );
                assert_eq!(region.write_count(), dense.write_count, "{ctx}: write_count");
                assert_eq!(paged.pending_trap_count(), dense.parked.len(), "{ctx}: parked stores");
            }
        }
    }
}

/// Scratch stamps applied after resume, per test case of the post-copy
/// property suite.
const POST_STAMP_ROUNDS: usize = 3;

/// Boots `program`, serves traffic, applies three seeded write batches to
/// the connection records *before* the update (so every transfer mode sees
/// the same final old-version memory image), then updates gen-1 → gen-2
/// under the given transfer `mode` and intra-pair shard count. A post-resume write workload — [`POST_STAMP_ROUNDS`] seeded
/// write-only scratch stamps — is injected through the post-copy drain hook
/// when the mode defers work, and applied to the survivor after the
/// pipeline otherwise: the targets are precomputed from the statics table
/// and the final value wins, so stores that land directly and stores that
/// trap on a parked page and get replayed by the fault handler converge to
/// the same bytes by design. Returns what the run observed, the outcome
/// and how many stamps the drain hook delivered.
#[allow(clippy::too_many_arguments)]
fn postcopy_or_stw_update(
    program: &str,
    requests: u64,
    open: usize,
    writes: usize,
    mode: TransferMode,
    shards: usize,
    fault: Option<ChaosPlan>,
    seed: u64,
) -> (Observed, UpdateOutcome, usize) {
    let (mut kernel, v1) = served(program, requests, open, InstrumentationConfig::full());
    let mut rng = ChaosRng::new(seed ^ 0x9057_c09e);
    for _ in 0..3 {
        dirty_connection_nodes(&mut kernel, &v1, writes, rng.next() as u32);
    }
    let post_stamps: Vec<u32> = (0..POST_STAMP_ROUNDS).map(|_| rng.next() as u32).collect();
    let opts = UpdateOptions { mode, intra_pair_shards: shards, ..Default::default() };
    let mut pipeline = UpdatePipeline::for_options(&opts);
    let delivered = Rc::new(Cell::new(0usize));
    if mode != TransferMode::StopTheWorld {
        let stamps = post_stamps.clone();
        let delivered = Rc::clone(&delivered);
        pipeline = pipeline.with_postcopy_hook(Box::new(move |kernel, new_instance, _round| {
            let done = delivered.get();
            if done < stamps.len() {
                stamp_request_scratch(kernel, new_instance, 8, stamps[done]);
                delivered.set(done + 1);
            }
        }));
    }
    if let Some(fault) = fault {
        pipeline = pipeline.with_fault_plan(fault);
    }
    let new = Box::new(program_by_name(program, 2));
    let (survivor, outcome) = pipeline.run(&mut kernel, v1, new, InstrumentationConfig::full(), &opts);
    if outcome.is_committed() {
        for stamp in post_stamps.into_iter().skip(delivered.get()) {
            stamp_request_scratch(&mut kernel, &survivor, 8, stamp);
        }
    }
    (Observed::of(&kernel, &survivor, Some(&outcome)), outcome, delivered.get())
}

/// Post-copy commit is byte-identical to stop-the-world: with the same
/// seeded pre-update writes and the same post-resume scratch stamps, the
/// oracle finds post-copy identical to stop-the-world across intra-pair
/// shard counts ∈ {1, 2}. The post-copy run must actually defer work and
/// retire every deferred object before declaring the update done.
#[test]
fn postcopy_commits_are_byte_identical_to_stop_the_world() {
    let programs = ["vsftpd", "nginx", "httpd"];
    for seed in 0..3u64 {
        let mut rng = ChaosRng::new(seed + 0xdefe7);
        let program = programs[seed as usize % programs.len()];
        let requests = rng.range(2, 5);
        let open = rng.range(1, 4) as usize;
        let writes = rng.range(1, 3) as usize;
        let mut stw_runs = Vec::new();
        for shards in [1usize, 2] {
            let ctx = format!("seed {seed} ({program}, {shards} shards)");
            let run =
                |mode| postcopy_or_stw_update(program, requests, open, writes, mode, shards, None, seed);
            let (stw_seen, stw, _) = run(TransferMode::StopTheWorld);
            assert!(stw.is_committed(), "{ctx}, stop-the-world: {:?}", stw.conflicts());
            let (seen, outcome, _) = run(TransferMode::Postcopy);
            assert_eq!(seen.divergences(&stw_seen), NONE, "{ctx}, post-copy");
            // The run really took the deferred path and fully drained it.
            let post = &outcome.report().postcopy;
            assert!(post.deferred_pairs >= 1, "{ctx}: nothing deferred");
            assert_eq!(
                post.trap_objects + post.drained_objects,
                post.deferred_objects,
                "{ctx}: deferred-object accounting does not add up"
            );
            stw_runs.push(stw_seen);
        }
        assert_eq!(stw_runs[1].divergences(&stw_runs[0]), NONE, "seed {seed} ({program}): shard counts");
    }
}

/// A fault injected mid-drain rolls the update back to the old version
/// byte-identically: the oracle finds the rolled-back kernel identical to
/// the no-update baseline that applied the same pre-update writes and never
/// entered the pipeline, and the rolled-back runs identical across shard
/// counts. The faults: the first background drain batch; the first
/// fault-in, which a resumed session's load of its parked `session_fd`
/// global takes inside drain round 1's serving, before the drain hook
/// delivers a stamp; and the last fault-in of a clean run.
#[test]
fn mid_drain_faults_roll_back_byte_identically() {
    let (program, requests, open, writes, seed) = ("vsftpd", 3u64, 2usize, 2usize, 0x0d1eu64);

    // The no-update baseline: identical boot, traffic and seeded pre-update
    // writes, no pipeline. (The post-resume stamps only ever touch the new
    // version, which the rollback tears down.)
    let baseline = {
        let (mut kernel, v1) = served(program, requests, open, InstrumentationConfig::full());
        let mut rng = ChaosRng::new(seed ^ 0x9057_c09e);
        for _ in 0..3 {
            dirty_connection_nodes(&mut kernel, &v1, writes, rng.next() as u32);
        }
        Observed::of(&kernel, &v1, None)
    };
    let run = |shards, fault| {
        postcopy_or_stw_update(program, requests, open, writes, TransferMode::Postcopy, shards, fault, seed)
    };
    let (_, clean, _) = run(1, None);
    assert!(clean.is_committed(), "{:?}", clean.conflicts());
    let clean = &clean.report().postcopy;
    let last_fault_in = clean.deferred_objects;
    assert_eq!(clean.trap_objects + clean.drained_objects, last_fault_in);

    // (fault, conflict phase, whether it fires before the hook's first stamp)
    let cases = [
        (FaultSite::DrainStep(1).plan(), "drain-step", false),
        (FaultSite::FaultIn(1).plan(), "fault-in", true),
        (FaultSite::FaultIn(last_fault_in).plan(), "fault-in", false),
    ];
    for (fault, kind, from_thread_load) in cases {
        let mut runs = Vec::new();
        for shards in [1usize, 2] {
            let (seen, outcome, delivered) = run(shards, Some(fault.clone()));
            let ctx = format!("{fault:?} ({shards} shards)");
            assert!(
                outcome
                    .conflicts()
                    .iter()
                    .any(|c| matches!(c, mcr_core::Conflict::FaultInjected { phase, .. } if phase == kind)),
                "{ctx}: the armed fault did not fire: {:?}",
                outcome.conflicts()
            );
            assert_eq!(
                seen.divergences(&baseline),
                NONE,
                "{ctx}: rollback did not restore the pre-update state"
            );
            assert_eq!(
                delivered == 0,
                from_thread_load,
                "{ctx}: fired after {delivered} hook stamps; a thread's load must fault before the hook runs"
            );
            runs.push(seen);
        }
        assert_eq!(runs[1].divergences(&runs[0]), NONE, "{kind}: the configurations diverged");
    }
}

/// Regression: a store that traps on a parked page mid-drain services
/// exactly the touched objects through the fault handler and never
/// double-applies — every deferred object is retired exactly once, either
/// by a trap or by a drain batch, and the oracle finds the update identical
/// to the stop-the-world run (which applied the same stamps directly).
#[test]
fn drain_traps_service_each_deferred_object_exactly_once() {
    let (program, requests, open, writes, seed) = ("vsftpd", 4u64, 3usize, 2usize, 0x7a9u64);
    let run = |mode| postcopy_or_stw_update(program, requests, open, writes, mode, 1, None, seed);
    let (stw_seen, stw, _) = run(TransferMode::StopTheWorld);
    assert!(stw.is_committed(), "{:?}", stw.conflicts());
    let (seen, outcome, _) = run(TransferMode::Postcopy);
    let report = outcome.report();
    assert!(report.postcopy.traps >= 1, "the post-resume stamps never trapped");
    assert!(report.postcopy.trap_objects >= 1);
    assert_eq!(
        report.postcopy.trap_objects + report.postcopy.drained_objects,
        report.postcopy.deferred_objects,
        "every deferred object must be applied exactly once (trap xor drain)"
    );
    assert!(report.timings.trap_service.0 > 0, "trap service time must be charged");
    assert_eq!(seen.divergences(&stw_seen), NONE, "trap replay double-applied or dropped a store");
}

/// Updates `old` to `new_program` under `mode` while one client sends
/// `request` to `port`: from the post-copy hook of drain round 1 under
/// `Postcopy`, right after commit otherwise. Two more rounds are served
/// either way. Returns what the run observed, the reply and the outcome.
fn update_with_one_request(
    mut kernel: Kernel,
    old: McrInstance,
    new_program: Box<dyn mcr_core::Program>,
    mode: TransferMode,
    port: u16,
    request: &'static [u8],
) -> (Observed, String, UpdateOutcome) {
    let opts = UpdateOptions { mode, ..Default::default() };
    let sent: Rc<Cell<Option<ConnId>>> = Rc::default();
    let mut pipeline = UpdatePipeline::for_options(&opts);
    if mode == TransferMode::Postcopy {
        let sent = Rc::clone(&sent);
        pipeline = pipeline.with_postcopy_hook(Box::new(move |kernel, _, round| {
            if round == 1 {
                let conn = kernel.client_connect(port).unwrap();
                kernel.client_send(conn, request.to_vec()).unwrap();
                sent.set(Some(conn));
            }
        }));
    }
    let (mut survivor, outcome) =
        pipeline.run(&mut kernel, old, new_program, InstrumentationConfig::full(), &opts);
    assert!(outcome.is_committed(), "{mode:?}: {:?}", outcome.conflicts());
    let conn = sent.get().unwrap_or_else(|| {
        let conn = kernel.client_connect(port).unwrap();
        kernel.client_send(conn, request.to_vec()).unwrap();
        conn
    });
    mcr_core::runtime::run_rounds(&mut kernel, &mut survivor, 2).unwrap();
    let reply = kernel.client_recv(conn).expect("the request was answered");
    let seen = Observed::of(&kernel, &survivor, Some(&outcome));
    (seen, String::from_utf8_lossy(&reply).into_owned(), outcome)
}

/// A cache update whose `get` is sent from the post-copy hook of drain
/// round 1 and answered by the resumed new version in round 2, with objects
/// still parked: the reply equals the one stop-the-world's post-commit `get`
/// gets, and the oracle finds the update identical to stop-the-world's — the
/// `cache_stats` read-modify-write and the bucket walk read transferred
/// bytes, never unapplied ones.
#[test]
fn postcopy_get_served_mid_drain_matches_stop_the_world() {
    let run = |mode| {
        let mut kernel = Kernel::new();
        let mut v1 = boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).unwrap();
        cache_request(&mut kernel, &mut v1, "fill 300 64");
        for _ in 0..5 {
            cache_request(&mut kernel, &mut v1, "get");
        }
        update_with_one_request(kernel, v1, Box::new(CacheServer::new(2)), mode, CACHE_PORT, b"get")
    };
    let (stw_seen, stw_reply, _) = run(TransferMode::StopTheWorld);
    assert_eq!(stw_reply, "VALUE 5 gen2");
    let (seen, reply, outcome) = run(TransferMode::Postcopy);
    let post = &outcome.report().postcopy;
    assert!(post.drain_rounds >= 2, "the drain ended before round 2 served the get: {post:?}");
    assert_eq!(reply, stw_reply, "the mid-drain get read unapplied bytes");
    assert_eq!(seen.divergences(&stw_seen), NONE, "post-copy with a mid-drain get");
    assert!(post.traps >= 1, "the get never faulted on a parked page");
    assert_eq!(post.trap_objects + post.drained_objects, post.deferred_objects);
}

/// A vsftpd client that connects from the post-copy hook of drain round 1:
/// the resumed master accepts it, allocates its `conn_s` record and forks a
/// session process mid-drain, with its own residual still parked. The update
/// ends byte-identical to stop-the-world with the same connection made after
/// commit — so an allocator store that parked on a protected page never
/// outlives the call that made it, and the fork completes the master's
/// residual before the child copies its pages.
#[test]
fn postcopy_session_forked_mid_drain_matches_stop_the_world() {
    let port = workload_for("vsftpd", 1).port;
    let run = |mode| {
        let (kernel, v1) = served("vsftpd", 40, 2, InstrumentationConfig::full());
        update_with_one_request(
            kernel,
            v1,
            Box::new(program_by_name("vsftpd", 2)),
            mode,
            port,
            b"USER anonymous",
        )
    };
    let (stw_seen, stw_reply, _) = run(TransferMode::StopTheWorld);
    let (seen, reply, outcome) = run(TransferMode::Postcopy);
    let post = &outcome.report().postcopy;
    assert!(post.drain_rounds >= 2, "the drain ended before round 2 forked the session: {post:?}");
    assert_eq!(post.trap_objects + post.drained_objects, post.deferred_objects);
    assert_eq!(reply, stw_reply);
    assert_eq!(seen.divergences(&stw_seen), NONE, "a session forked mid-drain");
}

/// Identity transformations round-trip arbitrary byte patterns.
#[test]
fn identity_field_map_roundtrips() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let n = rng.range(8, 256) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();

        let size = (bytes.len() as u64 / 8) * 8;
        let map = mcr_core::transfer::FieldMap::identity(size, &[]);
        let mut out = vec![0u8; size as usize];
        apply_field_map(&map, &bytes[..size as usize], &mut out);
        assert_eq!(&out[..], &bytes[..size as usize]);
    }
}
