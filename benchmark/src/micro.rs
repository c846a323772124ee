//! Micro-loops over `procsim`'s public functions, run in the traced mode
//! only. Each loop is repeated [`REPEATS`] times; the per-operation cost of
//! each repeat is one sample.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use mcr_bench::{FleetServer, FLEET_PORT};
use mcr_core::runtime::{boot, run_rounds, BootOptions};
use mcr_procsim::{
    Addr, AddressSpace, AllocSite, ConnId, FdTable, Kernel, KernelObject, MemStore, ObjId, ObjectTable,
    PtMalloc, RegionKind, SimDuration, Store, TypeTag, PAGE_SIZE,
};

use crate::stats::Summary;

const REPEATS: usize = 5;
const REGION_BYTES: u64 = 16 * 1024 * 1024;
/// Operation size of the bulk memory loops: the cache workload's value size.
const OP_BYTES: usize = 512;
const BASE: Addr = Addr(0x1000_0000);
const PAGES: u64 = 4096;
const ALLOC_OPS: u64 = 100_000;
const TABLE_OPS: u64 = 100_000;
const SESSIONS: usize = 10_000;
const BLOB_BYTES: usize = 1024 * 1024;
const BLOBS: usize = 16;

/// Runs `body` [`REPEATS`] times; each run returns how many units of work it
/// did and is charged its wall time per unit.
fn per_unit(mut body: impl FnMut() -> u64) -> Summary {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let units = body();
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    Summary::of(&samples)
}

fn space_with_region() -> AddressSpace {
    let mut space = AddressSpace::new();
    space.map_region(BASE, REGION_BYTES, RegionKind::Heap, "bench").expect("region maps");
    space
}

fn memory(out: &mut Vec<(&'static str, Summary)>) {
    let mut space = space_with_region();
    let source = {
        let mut s = space_with_region();
        s.write_bytes(BASE, &vec![0x5a; REGION_BYTES as usize]).expect("source fills");
        s
    };
    let ops = REGION_BYTES / OP_BYTES as u64;
    let kib = REGION_BYTES / 1024;
    let mut buf = vec![0u8; OP_BYTES];
    out.push((
        "memory.read_into_ns_per_kib",
        per_unit(|| {
            for i in 0..ops {
                source.read_into(BASE.offset(i * OP_BYTES as u64), &mut buf).expect("read");
            }
            black_box(&buf);
            kib
        }),
    ));
    let payload = vec![0xa5u8; OP_BYTES];
    out.push((
        "memory.write_bytes_ns_per_kib",
        per_unit(|| {
            for i in 0..ops {
                space.write_bytes(BASE.offset(i * OP_BYTES as u64), black_box(&payload)).expect("write");
            }
            kib
        }),
    ));
    out.push((
        "memory.copy_range_ns_per_kib",
        per_unit(|| {
            for i in 0..ops {
                let at = BASE.offset(i * OP_BYTES as u64);
                space.copy_range(at, &source, at, OP_BYTES).expect("copy");
            }
            kib
        }),
    ));
    let stores = REGION_BYTES / 64;
    out.push((
        "memory.write_u32_ns",
        per_unit(|| {
            for i in 0..stores {
                space.write_u32(BASE.offset(i * 64), black_box(i as u32)).expect("store");
            }
            stores
        }),
    ));
    // Every other page dirty: the worst case for run coalescing.
    space.clear_soft_dirty();
    let epoch = space.advance_write_epoch();
    for page in (0..PAGES).step_by(2) {
        space.write_u32(BASE.offset(page * PAGE_SIZE), 1).expect("dirty");
    }
    out.push((
        "memory.drain_dirty_since_ns_per_page",
        per_unit(|| {
            black_box(space.drain_dirty_since(epoch));
            PAGES
        }),
    ));
    out.push((
        "memory.protect_unprotect_ns_per_page",
        per_unit(|| {
            for page in 0..PAGES {
                let at = BASE.offset(page * PAGE_SIZE);
                space.protect_range(at, PAGE_SIZE).expect("protect");
                space.unprotect_range(at, PAGE_SIZE).expect("unprotect");
            }
            PAGES
        }),
    ));
}

fn alloc(out: &mut Vec<(&'static str, Summary)>) {
    let mut malloc = Vec::new();
    let mut lookup = Vec::new();
    let mut free = Vec::new();
    for _ in 0..REPEATS {
        let mut space = space_with_region();
        let mut heap = PtMalloc::new(BASE, REGION_BYTES, true);
        let start = Instant::now();
        let chunks: Vec<Addr> = (0..ALLOC_OPS)
            .map(|i| heap.malloc(&mut space, 64, AllocSite(i % 7), TypeTag(1)).expect("heap has room"))
            .collect();
        malloc.push(start.elapsed().as_nanos() as f64 / ALLOC_OPS as f64);
        let start = Instant::now();
        for &chunk in &chunks {
            black_box(heap.chunk_containing(&space, chunk.offset(17)));
        }
        lookup.push(start.elapsed().as_nanos() as f64 / ALLOC_OPS as f64);
        let start = Instant::now();
        for &chunk in &chunks {
            heap.free(&mut space, chunk).expect("live chunk frees");
        }
        free.push(start.elapsed().as_nanos() as f64 / ALLOC_OPS as f64);
    }
    out.push(("alloc.malloc_ns", Summary::of(&malloc)));
    out.push(("alloc.chunk_containing_ns", Summary::of(&lookup)));
    out.push(("alloc.free_ns", Summary::of(&free)));
}

fn tables(out: &mut Vec<(&'static str, Summary)>) {
    let mut fds = FdTable::new();
    out.push((
        "fd.alloc_remove_ns",
        per_unit(|| {
            for i in 0..TABLE_OPS {
                let fd = fds.alloc(ObjId(i + 1));
                black_box(fds.remove(fd).expect("just allocated"));
            }
            TABLE_OPS
        }),
    ));
    let mut objects = ObjectTable::new();
    out.push((
        "objects.insert_decref_ns",
        per_unit(|| {
            for _ in 0..TABLE_OPS {
                let id = objects.insert(KernelObject::Pipe { buffer: VecDeque::new() });
                black_box(objects.decref(id));
            }
            TABLE_OPS
        }),
    ));

    // A kernel with ten thousand accepted connections and no timer pending.
    let mut kernel = Kernel::new();
    let mut fleet = boot(&mut kernel, Box::new(FleetServer::new(SESSIONS)), &BootOptions::default())
        .expect("fleet boots");
    let conns: Vec<ConnId> =
        (0..SESSIONS).map(|_| kernel.client_connect(FLEET_PORT).expect("fleet listening")).collect();
    let _ = run_rounds(&mut kernel, &mut fleet, 2).expect("fleet accepts");
    out.push((
        "objects.connection_for_ns",
        per_unit(|| {
            for &conn in &conns {
                black_box(kernel.objects().connection_for(conn));
            }
            SESSIONS as u64
        }),
    ));
    out.push((
        "kernel.client_send_ns",
        per_unit(|| {
            for &conn in &conns {
                kernel.client_send(conn, b"ping".to_vec()).expect("accepted connection");
            }
            SESSIONS as u64
        }),
    ));
    out.push((
        "kernel.advance_clock_ns",
        per_unit(|| {
            for _ in 0..TABLE_OPS {
                kernel.advance_clock(SimDuration(10_000));
            }
            TABLE_OPS
        }),
    ));
}

fn store(out: &mut Vec<(&'static str, Summary)>) {
    let blob = vec![0x3cu8; BLOB_BYTES];
    let names: Vec<String> = (0..BLOBS).map(|i| format!("bench/blob-{i}")).collect();
    let kib = (BLOBS * BLOB_BYTES / 1024) as u64;
    let mut store = MemStore::new();
    out.push((
        "store.mem_write_ns_per_kib",
        per_unit(|| {
            for name in &names {
                store.write_blob(name, &blob).expect("blob writes");
            }
            store.sync().expect("sync");
            kib
        }),
    ));
    out.push((
        "store.mem_read_ns_per_kib",
        per_unit(|| {
            for name in &names {
                black_box(store.read_blob(name).expect("blob reads"));
            }
            kib
        }),
    ));
}

/// Every `procsim` micro-metric, by name.
pub fn run() -> Vec<(&'static str, Summary)> {
    let mut out = Vec::new();
    memory(&mut out);
    alloc(&mut out);
    tables(&mut out);
    store(&mut out);
    out
}
