//! Durable checkpoints: versioned, checksummed manifests plus crash-consistent
//! restore.
//!
//! A checkpoint captures a quiesced instance as two kinds of blobs in a
//! [`Store`]:
//!
//! * **shards** — the page *deltas* (every page whose soft-dirty stamp is
//!   nonzero, i.e. written after startup), partitioned into contiguous,
//!   cost-balanced ranges by the same partitioner the intra-pair transfer
//!   engine uses, one blob per modelled writer, assembled one after the
//!   other and charged at the slowest writer's cost;
//! * **a manifest** — program identity, instrumentation config, memory
//!   layout, file system, client endpoints, per-process topology (threads,
//!   regions, live heap chunks, descriptor tables), the kernel object table,
//!   the shard table (per-shard length + checksum), a whole-state digest and
//!   a trailing self-checksum. It records live endpoints only: the kernel
//!   forgets an accepted endpoint when its client closes it, and an
//!   endpoint carries replies only once its server has released the
//!   connection with them unread.
//!
//! Format v3: every checksum — manifest trailer, shard sums, state digest —
//! is [`checksum64`], which hashes whole 32-byte blocks as four independent
//! lanes of 8-byte words, always detects a change confined to one aligned
//! word and folds the length in. v2 used the same step as one serial chain
//! and v1 hashed byte-wise FNV-1a; a v1 or v2 blob fails the trailer check
//! first and is skipped like any corrupt version. The digest chains
//! `checksum64` over the state section and then over each delta record's
//! header and payload, so it does not depend on the shard split.
//!
//! The commit protocol is shards → fsync → manifest → fsync: a manifest is
//! only durable once everything it names is, so any crash mid-checkpoint
//! leaves either a fully valid new version or a truncated/torn one that
//! validation rejects, falling back to the previous retained version.
//!
//! The writer never materialises the state: `encode_live_state` streams
//! the wire form straight from the quiesced kernel into the manifest buffer
//! and page deltas are borrowed views of the kernel's page table.
//! `StateImage` and `DeltaRecord` are the *decoded* form only.
//!
//! Restore does **not** deserialize a kernel wholesale. It re-boots the same
//! program deterministically in a *scratch* kernel (reproducing pids, tids,
//! object ids and all startup-time memory exactly), then overlays the
//! recorded post-startup state: page deltas, heap-chunk reconcile, descriptor
//! and kernel-object reconcile, client endpoints and the virtual clock —
//! moving files, kernel objects and client endpoints out of the decoded image
//! rather than copying them — and finally proves fidelity by re-encoding the
//! scratch kernel's state and comparing digests.
//! The serving kernel is never touched: a restore either returns a complete
//! new kernel or a typed [`RestoreError`], so no partial restore can ever be
//! observed (the "no partial restore" guarantee is structural).
//!
//! Known residue (documented, checked where possible): instances that have
//! already been live-updated (generation ≥ 2) do not re-boot into their
//! checkpointed memory image and are rejected by the digest check; Rust-side
//! program-struct fields and instance counters reset to their post-startup
//! values; post-checkpoint client connections are lost (honest crash
//! semantics).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mcr_procsim::{
    checksum64, Addr, AllocSite, ChunkInfo, ClientSnapshot, Fd, Kernel, KernelObject, ObjId, Pid, Process,
    RegionKind, SimDuration, Store, StoreError, ThreadState, TypeTag, UnixMessage, PAGE_SIZE,
};
use mcr_typemeta::{InstrumentationConfig, InstrumentationLevel};

use crate::program::Program;
use crate::runtime::scheduler::{
    all_quiesced, boot, resume, run_rounds, wait_quiescence, BootOptions, McrInstance,
};
use crate::transfer::engine::partition_contiguous;

/// Magic bytes opening every manifest blob.
const MAGIC: &[u8; 8] = b"MCRCKPT1";

/// On-disk format version; bumping it makes old manifests version-skewed.
/// Version 2 replaced the byte-wise FNV-1a sums with [`checksum64`];
/// version 3 runs its whole 32-byte blocks as four lanes.
pub(crate) const FORMAT_VERSION: u32 = 3;

/// Simulated cost charged per page-delta record written to a shard, plus one
/// nanosecond per payload byte (models serialization + device bandwidth).
const RECORD_COST_NS: u64 = 2_000;

/// Quiescence budget (barrier passes) for `checkpoint_now` / restore.
const QUIESCE_ROUNDS: usize = 64;

/// Labels of the enumerable restore steps, in execution order. The
/// crash-consistency campaign injects a failure at each index (1-based) via
/// the `fault_at_step` argument of [`restore_latest`].
pub const RESTORE_STEPS: [&str; 15] = [
    "read-manifest",
    "read-shards",
    "preinstall-files",
    "boot",
    "quiesce",
    "validate-topology",
    "files-reconcile",
    "heap-reconcile",
    "memory-overlay",
    "fd-prune",
    "objects-restore",
    "fd-install",
    "clients-restore",
    "clock-advance",
    "digest-check",
];

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failure while writing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The backing store failed (possibly an injected crash).
    Store(StoreError),
    /// The instance could not be quiesced for an app-consistent snapshot.
    Quiescence(String),
    /// The instance cannot be checkpointed (e.g. it has no processes).
    Unsupported(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Store(e) => write!(f, "checkpoint store failure: {e}"),
            CheckpointError::Quiescence(e) => write!(f, "checkpoint quiescence failure: {e}"),
            CheckpointError::Unsupported(e) => write!(f, "checkpoint unsupported: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

/// Typed rejection reasons of the restore path. Every reason leaves the
/// serving side untouched — restore builds into a scratch kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The store holds no (valid or invalid) checkpoint at all.
    NoCheckpoint,
    /// The backing store failed while reading.
    Store(StoreError),
    /// A blob is shorter than its framing requires (torn or truncated).
    Truncated {
        /// Offending blob name.
        blob: String,
    },
    /// A blob's checksum does not match its contents (torn write, bit rot).
    ChecksumMismatch {
        /// Offending blob name.
        blob: String,
    },
    /// The manifest's format version or the program's identity/version does
    /// not match what the restorer can revive.
    VersionSkew {
        /// What the restorer expected.
        expected: String,
        /// What the manifest / booted program actually carries.
        found: String,
    },
    /// The deterministic re-boot produced a different process/thread
    /// topology than the manifest records.
    TopologyMismatch(String),
    /// The scratch kernel's clock passed the manifest's checkpoint time.
    ClockSkew {
        /// Checkpoint-time clock (ns).
        manifest_ns: u64,
        /// Scratch clock after boot (ns).
        boot_ns: u64,
    },
    /// A reconcile step could not converge the scratch kernel.
    Reconcile(String),
    /// The re-collected state digest differs from the manifest digest — the
    /// restored kernel is *not* byte-identical, so it is discarded.
    DigestMismatch {
        /// Digest recorded in the manifest.
        expected: u64,
        /// Digest of the restored scratch kernel.
        found: u64,
    },
    /// The program re-boot failed in the scratch kernel.
    Boot(String),
    /// An injected [`crate::runtime::chaos::FaultSite::RestoreStep`] fault.
    FaultInjected {
        /// 1-based step index (see [`RESTORE_STEPS`]).
        step: u64,
        /// Step label.
        label: &'static str,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::NoCheckpoint => write!(f, "no checkpoint in store"),
            RestoreError::Store(e) => write!(f, "restore store failure: {e}"),
            RestoreError::Truncated { blob } => write!(f, "blob {blob:?} truncated"),
            RestoreError::ChecksumMismatch { blob } => write!(f, "blob {blob:?} checksum mismatch"),
            RestoreError::VersionSkew { expected, found } => {
                write!(f, "version skew: expected {expected}, found {found}")
            }
            RestoreError::TopologyMismatch(e) => write!(f, "topology mismatch: {e}"),
            RestoreError::ClockSkew { manifest_ns, boot_ns } => {
                write!(f, "clock skew: manifest at {manifest_ns}ns, boot already at {boot_ns}ns")
            }
            RestoreError::Reconcile(e) => write!(f, "reconcile failure: {e}"),
            RestoreError::DigestMismatch { expected, found } => {
                write!(f, "state digest mismatch: manifest {expected:#x}, restored {found:#x}")
            }
            RestoreError::Boot(e) => write!(f, "scratch re-boot failure: {e}"),
            RestoreError::FaultInjected { step, label } => {
                write!(f, "injected restore fault at step {step} ({label})")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl RestoreError {
    /// Whether the error condemns *one manifest version* (corrupt or
    /// unreadable blobs) rather than the restore attempt as a whole —
    /// [`restore_latest`] falls back to the next older version for these.
    fn is_version_local(&self) -> bool {
        matches!(
            self,
            RestoreError::Store(_) | RestoreError::Truncated { .. } | RestoreError::ChecksumMismatch { .. }
        )
    }
}

// ---------------------------------------------------------------------------
// Options / summaries
// ---------------------------------------------------------------------------

/// How many checkpoint versions a store keeps: a successful write deletes
/// the ones older than the newest two, so a torn newest version still has
/// an intact predecessor to fall back to.
const RETAINED_VERSIONS: usize = 2;

/// Tuning knobs for checkpoint writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Shard count of the page-delta blobs, and the modelled writers the
    /// writeback is charged on (one per shard; the blobs themselves are
    /// assembled one after the other).
    pub shard_writers: usize,
}

impl Default for CheckpointOptions {
    fn default() -> Self {
        CheckpointOptions { shard_writers: 4 }
    }
}

/// What one checkpoint write produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointSummary {
    /// Version number of the new checkpoint.
    pub(crate) version: u64,
    /// Page-delta records written across all shards.
    pub page_deltas: usize,
    /// Total delta payload bytes.
    pub delta_bytes: u64,
    /// Shard blobs written.
    pub shards: usize,
    /// Manifest blob size in bytes.
    pub manifest_bytes: u64,
    /// Store blocks this checkpoint wrote (shards + manifest) — the size of
    /// the torn-write/crash fault-site space a chaos campaign can inject
    /// into.
    pub blocks: u64,
    /// Simulated cost of writing the shards serially.
    pub(crate) serial_cost: SimDuration,
    /// Simulated cost actually charged: the slowest modelled shard writer.
    pub(crate) parallel_cost: SimDuration,
}

impl CheckpointSummary {
    /// Serial-over-parallel ratio of the modelled shard writeback.
    pub fn speedup(&self) -> f64 {
        if self.parallel_cost.0 == 0 {
            1.0
        } else {
            self.serial_cost.0 as f64 / self.parallel_cost.0 as f64
        }
    }
}

/// What one restore produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Manifest version that was revived.
    pub version: u64,
    /// Restore steps completed (== [`RESTORE_STEPS`] length on success).
    pub steps_completed: u64,
    /// Page-delta records applied.
    pub deltas_applied: usize,
    /// Scratch heap chunks freed (allocated at startup, freed before the
    /// checkpoint).
    pub freed_chunks: usize,
    /// Heap chunks re-placed from the manifest (allocated after startup).
    pub reallocated_chunks: usize,
    /// Scratch descriptors pruned.
    pub fds_pruned: usize,
    /// Manifest descriptors installed.
    pub fds_installed: usize,
    /// Kernel objects re-created at forced ids.
    pub objects_inserted: usize,
    /// Manifest versions that failed validation before this one succeeded.
    pub versions_rejected: usize,
}

/// A fully revived kernel + instance pair, still quiesced; the caller swaps
/// it in and [`resume`]s.
pub struct RestoredInstance {
    /// The scratch kernel, now byte-identical to the checkpointed one.
    pub kernel: Kernel,
    /// The revived instance (freshly re-booted program, reconciled state).
    pub instance: McrInstance,
    /// Restore statistics.
    pub report: RestoreReport,
}

impl fmt::Debug for RestoredInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RestoredInstance").field("report", &self.report).finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Binary encoding primitives
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Writes a `u32` count followed by each item's encoding. The count slot
    /// is patched once the iterator is exhausted, so unsized iterators
    /// stream without being collected first.
    fn seq<T>(&mut self, items: impl IntoIterator<Item = T>, mut each: impl FnMut(&mut Enc, T)) {
        let slot = self.buf.len();
        self.u32(0);
        let mut n = 0u32;
        for item in items {
            each(self, item);
            n += 1;
        }
        self.buf[slot..slot + 4].copy_from_slice(&n.to_le_bytes());
    }
    /// Overwrites the `u64` slot at byte offset `at`.
    fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], ()> {
        let end = self.pos.checked_add(n).ok_or(())?;
        if end > self.buf.len() {
            return Err(());
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, ()> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ()> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ()> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ()> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, ()> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn str(&mut self) -> Result<String, ()> {
        String::from_utf8(self.bytes()?).map_err(|_| ())
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn level_to_u8(level: InstrumentationLevel) -> u8 {
    match level {
        InstrumentationLevel::Baseline => 0,
        InstrumentationLevel::Unblock => 1,
        InstrumentationLevel::StaticInstr => 2,
        InstrumentationLevel::DynamicInstr => 3,
        InstrumentationLevel::QuiescenceDetection => 4,
    }
}

fn level_from_u8(v: u8) -> Result<InstrumentationLevel, ()> {
    Ok(match v {
        0 => InstrumentationLevel::Baseline,
        1 => InstrumentationLevel::Unblock,
        2 => InstrumentationLevel::StaticInstr,
        3 => InstrumentationLevel::DynamicInstr,
        4 => InstrumentationLevel::QuiescenceDetection,
        _ => return Err(()),
    })
}

fn kind_to_u8(kind: RegionKind) -> u8 {
    match kind {
        RegionKind::Static => 0,
        RegionKind::Heap => 1,
        RegionKind::Stack => 2,
        RegionKind::Mmap => 3,
        RegionKind::Lib => 4,
    }
}

fn kind_from_u8(v: u8) -> Result<RegionKind, ()> {
    Ok(match v {
        0 => RegionKind::Static,
        1 => RegionKind::Heap,
        2 => RegionKind::Stack,
        3 => RegionKind::Mmap,
        4 => RegionKind::Lib,
        _ => return Err(()),
    })
}

fn encode_object(e: &mut Enc, obj: &KernelObject) {
    match obj {
        KernelObject::Listener { port, listening, backlog } => {
            e.u8(0);
            e.u16(*port);
            e.u8(u8::from(*listening));
            e.u32(backlog.len() as u32);
            for conn in backlog {
                e.u64(conn.0);
            }
        }
        KernelObject::Connection { conn, inbox, outbox, peer_closed } => {
            e.u8(1);
            e.u64(conn.0);
            e.u8(u8::from(*peer_closed));
            e.u32(inbox.len() as u32);
            for m in inbox {
                e.bytes(m);
            }
            e.u32(outbox.len() as u32);
            for m in outbox {
                e.bytes(m);
            }
        }
        KernelObject::File { path, offset } => {
            e.u8(2);
            e.str(path);
            e.u64(*offset);
        }
        KernelObject::UnixChannel { name, inbox } => {
            e.u8(3);
            e.str(name);
            e.u32(inbox.len() as u32);
            for m in inbox {
                e.bytes(&m.data);
                e.u32(m.objects.len() as u32);
                for o in &m.objects {
                    e.u64(o.0);
                }
            }
        }
        KernelObject::Pipe { buffer } => {
            e.u8(4);
            e.u32(buffer.len() as u32);
            let (front, back) = buffer.as_slices();
            e.buf.extend_from_slice(front);
            e.buf.extend_from_slice(back);
        }
    }
}

fn decode_object(d: &mut Dec<'_>) -> Result<KernelObject, ()> {
    Ok(match d.u8()? {
        0 => {
            let port = d.u16()?;
            let listening = d.u8()? != 0;
            let n = d.u32()? as usize;
            let mut backlog = std::collections::VecDeque::with_capacity(n.min(4096));
            for _ in 0..n {
                backlog.push_back(mcr_procsim::ConnId(d.u64()?));
            }
            KernelObject::Listener { port, listening, backlog }
        }
        1 => {
            let conn = mcr_procsim::ConnId(d.u64()?);
            let peer_closed = d.u8()? != 0;
            let n = d.u32()? as usize;
            let mut inbox = std::collections::VecDeque::with_capacity(n.min(4096));
            for _ in 0..n {
                inbox.push_back(d.bytes()?);
            }
            let n = d.u32()? as usize;
            let mut outbox = std::collections::VecDeque::with_capacity(n.min(4096));
            for _ in 0..n {
                outbox.push_back(d.bytes()?);
            }
            KernelObject::Connection { conn, inbox, outbox, peer_closed }
        }
        2 => KernelObject::File { path: d.str()?, offset: d.u64()? },
        3 => {
            let name = d.str()?;
            let n = d.u32()? as usize;
            let mut inbox = std::collections::VecDeque::with_capacity(n.min(4096));
            for _ in 0..n {
                let data = d.bytes()?;
                let k = d.u32()? as usize;
                let mut objects = Vec::with_capacity(k.min(4096));
                for _ in 0..k {
                    objects.push(ObjId(d.u64()?));
                }
                inbox.push_back(UnixMessage { data, objects });
            }
            KernelObject::UnixChannel { name, inbox }
        }
        4 => {
            let n = d.u32()? as usize;
            KernelObject::Pipe { buffer: d.take(n)?.iter().copied().collect() }
        }
        _ => return Err(()),
    })
}

// ---------------------------------------------------------------------------
// State image
// ---------------------------------------------------------------------------

/// One page whose contents live in a shard, as the writer sees it: `(pid,
/// page address, dirty epoch, payload)` with the payload borrowed from the
/// live kernel's page table.
struct PageDelta<'k> {
    pid: u32,
    addr: u64,
    epoch: u64,
    bytes: &'k [u8],
}

/// Bytes of a delta record's fixed-size wire header.
const DELTA_HEADER_LEN: usize = 24;

impl PageDelta<'_> {
    /// The fixed-size part of the record's wire form: pid, address, epoch
    /// and payload length; the payload bytes follow it.
    fn header(&self) -> [u8; DELTA_HEADER_LEN] {
        let mut h = [0u8; DELTA_HEADER_LEN];
        h[..4].copy_from_slice(&self.pid.to_le_bytes());
        h[4..12].copy_from_slice(&self.addr.to_le_bytes());
        h[12..20].copy_from_slice(&self.epoch.to_le_bytes());
        h[20..].copy_from_slice(&(self.bytes.len() as u32).to_le_bytes());
        h
    }

    fn encode(&self, e: &mut Enc) {
        e.buf.extend_from_slice(&self.header());
        e.buf.extend_from_slice(self.bytes);
    }

    fn cost(&self) -> u64 {
        RECORD_COST_NS + self.bytes.len() as u64
    }
}

/// A page delta decoded from a shard blob.
struct DeltaRecord {
    pid: u32,
    addr: u64,
    epoch: u64,
    bytes: Vec<u8>,
}

impl DeltaRecord {
    fn decode(d: &mut Dec<'_>) -> Result<DeltaRecord, ()> {
        Ok(DeltaRecord { pid: d.u32()?, addr: d.u64()?, epoch: d.u64()?, bytes: d.bytes()? })
    }
}

struct RegionImage {
    base: u64,
    size: u64,
    kind: RegionKind,
    name: String,
    writable: bool,
}

struct ChunkImage {
    payload: u64,
    size: u64,
    site: u64,
    tag: u64,
    startup: bool,
}

struct FdImage {
    fd: i32,
    obj: u64,
    cloexec: bool,
    inherited: bool,
}

struct ProcImage {
    pid: u32,
    name: String,
    /// `(tid, name, exited)` per thread, in tid order.
    threads: Vec<(u32, String, bool)>,
    write_epoch: u64,
    regions: Vec<RegionImage>,
    chunks: Vec<ChunkImage>,
    fds: Vec<FdImage>,
}

struct ObjImage {
    id: u64,
    rc: u32,
    obj: KernelObject,
}

/// Everything the manifest's state section captures, decoded. Restore owns
/// it and moves the bulky parts (files, clients, objects) into the scratch
/// kernel; the writer never builds one (see [`encode_live_state`]).
struct StateImage {
    program_name: String,
    program_version: String,
    config: InstrumentationConfig,
    layout_slide: u64,
    clock_ns: u64,
    next_conn: u64,
    files: Vec<(String, Vec<u8>)>,
    clients: Vec<ClientSnapshot>,
    processes: Vec<ProcImage>,
    objects: Vec<ObjImage>,
}

impl StateImage {
    fn decode(buf: &[u8]) -> Result<StateImage, ()> {
        let mut d = Dec::new(buf);
        let program_name = d.str()?;
        let program_version = d.str()?;
        let level = level_from_u8(d.u8()?)?;
        let instrument_region_allocator = d.u8()? != 0;
        let layout_slide = d.u64()?;
        // Reserved: the scheduling-core byte of format v3, always `0`.
        if d.u8()? != 0 {
            return Err(());
        }
        let clock_ns = d.u64()?;
        let next_conn = d.u64()?;
        let n = d.u32()? as usize;
        let mut files = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            files.push((d.str()?, d.bytes()?));
        }
        let n = d.u32()? as usize;
        let mut clients = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let conn = d.u64()?;
            let port = d.u16()?;
            let accepted = d.u8()? != 0;
            let closed = d.u8()? != 0;
            let k = d.u32()? as usize;
            let mut from_server = Vec::with_capacity(k.min(4096));
            for _ in 0..k {
                from_server.push(d.bytes()?);
            }
            let k = d.u32()? as usize;
            let mut pending_to_server = Vec::with_capacity(k.min(4096));
            for _ in 0..k {
                pending_to_server.push(d.bytes()?);
            }
            clients.push(ClientSnapshot { conn, port, accepted, closed, from_server, pending_to_server });
        }
        let n = d.u32()? as usize;
        let mut processes = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let pid = d.u32()?;
            let name = d.str()?;
            let k = d.u32()? as usize;
            let mut threads = Vec::with_capacity(k.min(4096));
            for _ in 0..k {
                threads.push((d.u32()?, d.str()?, d.u8()? != 0));
            }
            let write_epoch = d.u64()?;
            let k = d.u32()? as usize;
            let mut regions = Vec::with_capacity(k.min(4096));
            for _ in 0..k {
                regions.push(RegionImage {
                    base: d.u64()?,
                    size: d.u64()?,
                    kind: kind_from_u8(d.u8()?)?,
                    name: d.str()?,
                    writable: d.u8()? != 0,
                });
            }
            let k = d.u32()? as usize;
            let mut chunks = Vec::with_capacity(k.min(1 << 20));
            for _ in 0..k {
                chunks.push(ChunkImage {
                    payload: d.u64()?,
                    size: d.u64()?,
                    site: d.u64()?,
                    tag: d.u64()?,
                    startup: d.u8()? != 0,
                });
            }
            let k = d.u32()? as usize;
            let mut fds = Vec::with_capacity(k.min(65536));
            for _ in 0..k {
                fds.push(FdImage {
                    fd: d.u32()? as i32,
                    obj: d.u64()?,
                    cloexec: d.u8()? != 0,
                    inherited: d.u8()? != 0,
                });
            }
            processes.push(ProcImage { pid, name, threads, write_epoch, regions, chunks, fds });
        }
        let n = d.u32()? as usize;
        let mut objects = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            objects.push(ObjImage { id: d.u64()?, rc: d.u32()?, obj: decode_object(&mut d)? });
        }
        if !d.done() {
            return Err(());
        }
        Ok(StateImage {
            program_name,
            program_version,
            config: InstrumentationConfig { level, instrument_region_allocator },
            layout_slide,
            clock_ns,
            next_conn,
            files,
            clients,
            processes,
            objects,
        })
    }
}

/// What a stamped-but-never-stored page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// The instance's processes in ascending pid order.
fn live_processes<'k>(
    kernel: &'k Kernel,
    instance: &McrInstance,
) -> Result<Vec<(Pid, &'k Process)>, CheckpointError> {
    let mut pids: Vec<Pid> = instance.state.processes.clone();
    pids.sort();
    pids.dedup();
    if pids.is_empty() {
        return Err(CheckpointError::Unsupported("instance has no processes".into()));
    }
    pids.into_iter()
        .map(|pid| match kernel.process(pid) {
            Ok(proc) => Ok((pid, proc)),
            Err(e) => Err(CheckpointError::Unsupported(format!("missing process {pid}: {e}"))),
        })
        .collect()
}

/// The page deltas of a live (quiesced) instance in `(pid, address)` order,
/// borrowed from the page table. Every post-startup-written page (nonzero
/// soft-dirty stamp) is a delta; startup-written pages reproduce via
/// deterministic re-boot and carry stamp 0 after `clear_soft_dirty`.
fn live_deltas<'k>(procs: &[(Pid, &'k Process)]) -> Vec<PageDelta<'k>> {
    let mut deltas = Vec::new();
    for &(pid, proc) in procs {
        for region in proc.space().regions() {
            let mut addr = region.base();
            for page in region.pages() {
                let epoch = region.page_dirty_epoch(addr);
                if epoch != 0 {
                    let len = (region.end().0 - addr.0).min(PAGE_SIZE) as usize;
                    // A page stamped by its mapping but never stored to is
                    // absent and reads as zeros.
                    let bytes = page.map_or(&ZERO_PAGE[..len], |bytes| &bytes[..len]);
                    deltas.push(PageDelta { pid: pid.0, addr: addr.0, epoch, bytes });
                }
                addr = addr.offset(PAGE_SIZE);
            }
        }
    }
    deltas
}

/// Streams the manifest's state section — the wire form
/// [`StateImage::decode`] reads — from a live (quiesced) kernel/instance
/// pair into `e`, reading everything by reference. Fully deterministic:
/// every collection is written in sorted order.
fn encode_live_state(kernel: &Kernel, instance: &McrInstance, procs: &[(Pid, &Process)], e: &mut Enc) {
    e.str(&instance.state.program_name);
    e.str(&instance.state.version);
    e.u8(level_to_u8(instance.state.config.level));
    e.u8(u8::from(instance.state.config.instrument_region_allocator));
    e.u64(procs[0].1.layout().slide());
    e.u8(0); // reserved (see `StateImage::decode`)
    e.u64(kernel.now().0);
    e.u64(kernel.next_conn_id());
    e.seq(kernel.files(), |e, (path, contents)| {
        e.str(path);
        e.bytes(contents);
    });
    e.seq(kernel.clients(), |e, c| {
        e.u64(c.conn);
        e.u16(c.port);
        e.u8(u8::from(c.accepted));
        e.u8(u8::from(c.closed));
        e.seq(c.from_server, |e, m| e.bytes(m));
        e.seq(c.pending_to_server, |e, m| e.bytes(m));
    });
    e.seq(procs, |e, &(pid, proc)| {
        e.u32(pid.0);
        e.str(proc.name());
        let mut threads: Vec<(u32, &str, bool)> =
            proc.threads().map(|t| (t.tid().0, t.name(), matches!(t.state(), ThreadState::Exited))).collect();
        threads.sort();
        e.seq(threads, |e, (tid, name, exited)| {
            e.u32(tid);
            e.str(name);
            e.u8(u8::from(exited));
        });
        let space = proc.space();
        e.u64(space.write_epoch());
        e.seq(space.regions(), |e, r| {
            e.u64(r.base().0);
            e.u64(r.size());
            e.u8(kind_to_u8(r.kind()));
            e.str(r.name());
            e.u8(u8::from(r.is_writable()));
        });
        let mut chunks: Vec<ChunkInfo> =
            proc.heap().map_or_else(Vec::new, |heap| heap.live_chunks(space).collect());
        chunks.sort_by_key(|c| c.payload.0);
        e.seq(chunks, |e, c| {
            e.u64(c.payload.0);
            e.u64(c.size);
            e.u64(c.site.0);
            e.u64(c.type_tag.0);
            e.u8(u8::from(c.startup));
        });
        let mut fds: Vec<_> = proc.fds().iter().collect();
        fds.sort_by_key(|(fd, _)| fd.0);
        e.seq(fds, |e, (fd, entry)| {
            e.u32(fd.0 as u32);
            e.u64(entry.object.0);
            e.u8(u8::from(entry.cloexec));
            e.u8(u8::from(entry.inherited));
        });
    });
    let mut objects: Vec<(ObjId, &KernelObject)> = kernel.objects().iter().collect();
    objects.sort_by_key(|(id, _)| id.0);
    e.seq(objects, |e, (id, obj)| {
        e.u64(id.0);
        e.u32(kernel.objects().refcount(id));
        encode_object(e, obj);
    });
}

/// Digest over the state section plus the delta stream, chained record by
/// record so it is independent of the shard split.
fn state_digest(state_bytes: &[u8], deltas: &[PageDelta<'_>]) -> u64 {
    deltas
        .iter()
        .fold(checksum64(state_bytes, 0), |h, rec| checksum64(rec.bytes, checksum64(&rec.header(), h)))
}

/// The digest [`write_checkpoint`] would record for a live (quiesced)
/// instance right now.
fn live_digest(kernel: &Kernel, instance: &McrInstance) -> Result<u64, CheckpointError> {
    let procs = live_processes(kernel, instance)?;
    let mut e = Enc::default();
    encode_live_state(kernel, instance, &procs, &mut e);
    Ok(state_digest(&e.buf, &live_deltas(&procs)))
}

// ---------------------------------------------------------------------------
// Blob naming / versions
// ---------------------------------------------------------------------------

fn version_dir(version: u64) -> String {
    format!("ckpt/v{version:08}")
}

fn manifest_blob(version: u64) -> String {
    format!("{}/MANIFEST", version_dir(version))
}

fn shard_blob(version: u64, shard: usize) -> String {
    format!("{}/shard-{shard:04}", version_dir(version))
}

/// All version numbers present in the store (any blob under the version's
/// directory counts — a torn checkpoint with shards but no manifest still
/// claims its number), ascending.
pub fn list_versions<S: Store + ?Sized>(store: &S) -> Vec<u64> {
    let mut versions = BTreeSet::new();
    for name in store.list() {
        if let Some(rest) = name.strip_prefix("ckpt/v") {
            if let Some((num, _)) = rest.split_once('/') {
                if let Ok(v) = num.parse::<u64>() {
                    versions.insert(v);
                }
            }
        }
    }
    versions.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Checkpoint write
// ---------------------------------------------------------------------------

/// Writes a durable checkpoint of the (quiesced) instance. Shards first,
/// fsync, then the manifest, fsync — so the manifest never names data that
/// could be lost. Returns the new version's summary; on success, all but
/// the newest two versions are deleted.
///
/// # Errors
///
/// [`CheckpointError::Quiescence`] if the instance is not fully quiesced
/// (use [`checkpoint_now`] to drive the barrier first) and
/// [`CheckpointError::Store`] if the backing store fails — including an
/// injected crash, after which the store keeps whatever blocks made it down.
pub fn write_checkpoint<S: Store + ?Sized>(
    kernel: &mut Kernel,
    instance: &McrInstance,
    store: &mut S,
    opts: &CheckpointOptions,
) -> Result<CheckpointSummary, CheckpointError> {
    if !all_quiesced(kernel, instance) {
        return Err(CheckpointError::Quiescence("instance not quiesced".into()));
    }
    let procs = live_processes(kernel, instance)?;
    let deltas = live_deltas(&procs);

    // Contiguous, cost-balanced shard split — the same partitioner the
    // intra-pair transfer path uses, so the writeback cost model matches the
    // rest of the pipeline.
    let shard_count = opts.shard_writers.clamp(1, deltas.len().max(1));
    let costs: Vec<u64> = deltas.iter().map(PageDelta::cost).collect();
    let assignment = partition_contiguous(&costs, shard_count);
    let mut shard_ranges: Vec<(usize, usize)> = vec![(usize::MAX, 0); shard_count];
    for (i, &shard) in assignment.iter().enumerate() {
        let range = &mut shard_ranges[shard];
        range.0 = range.0.min(i);
        range.1 = i + 1;
    }

    // Shard assembly: each shard's contiguous record range is serialized
    // and checksummed on its own — `(blob, checksum, simulated cost)`.
    let assemble = |&(start, end): &(usize, usize)| {
        let records = if start == usize::MAX { &[] } else { &deltas[start..end] };
        let mut e = Enc::default();
        e.buf.reserve(records.iter().map(|rec| DELTA_HEADER_LEN + rec.bytes.len()).sum());
        for rec in records {
            rec.encode(&mut e);
        }
        let checksum = checksum64(&e.buf, 0);
        (e.buf, checksum, records.iter().map(PageDelta::cost).sum::<u64>())
    };
    let shard_bufs: Vec<(Vec<u8>, u64, u64)> = shard_ranges.iter().map(assemble).collect();

    let serial_cost = SimDuration(shard_bufs.iter().map(|(_, _, c)| c).sum());
    let parallel_cost = SimDuration(shard_bufs.iter().map(|(_, _, c)| *c).max().unwrap_or(0));

    let version = list_versions(store).last().copied().unwrap_or(0) + 1;
    let blocks_before = store.blocks_written();
    for (i, (buf, _, _)) in shard_bufs.iter().enumerate() {
        store.write_blob(&shard_blob(version, i), buf)?;
    }
    // Barrier: every shard is durable before the manifest names it.
    store.sync()?;

    // Header first, with the digest and state-length slots patched once the
    // state section has been streamed in behind it.
    let mut m = Enc::default();
    m.buf.extend_from_slice(MAGIC);
    m.u32(FORMAT_VERSION);
    m.u64(version);
    let digest_slot = m.buf.len();
    m.u64(0);
    m.u32(shard_bufs.len() as u32);
    for (buf, checksum, _) in &shard_bufs {
        m.u64(buf.len() as u64);
        m.u64(*checksum);
    }
    let state_len_slot = m.buf.len();
    m.u64(0);
    let state_start = m.buf.len();
    encode_live_state(kernel, instance, &procs, &mut m);
    let digest = state_digest(&m.buf[state_start..], &deltas);
    m.patch_u64(digest_slot, digest);
    m.patch_u64(state_len_slot, (m.buf.len() - state_start) as u64);
    let trailer = checksum64(&m.buf, 0);
    m.u64(trailer);

    let manifest_bytes = m.buf.len() as u64;
    store.write_blob(&manifest_blob(version), &m.buf)?;
    store.sync()?;
    let blocks = store.blocks_written() - blocks_before;

    // Retention: drop everything older than the last `RETAINED_VERSIONS`.
    let versions = list_versions(store);
    if versions.len() > RETAINED_VERSIONS {
        for &old in &versions[..versions.len() - RETAINED_VERSIONS] {
            let prefix = format!("{}/", version_dir(old));
            for blob in store.list() {
                if blob.starts_with(&prefix) {
                    let _ = store.delete_blob(&blob);
                }
            }
        }
    }

    let page_deltas = deltas.len();
    let delta_bytes = deltas.iter().map(|d| d.bytes.len() as u64).sum();

    // The writeback is charged at the makespan of one modelled writer per
    // shard, matching the paper's argument for parallel checkpoint writers.
    kernel.advance_clock(parallel_cost);

    Ok(CheckpointSummary {
        version,
        page_deltas,
        delta_bytes,
        shards: shard_bufs.len(),
        manifest_bytes,
        blocks,
        serial_cost,
        parallel_cost,
    })
}

/// Quiesce → checkpoint → resume: the standalone entry point (the pipeline's
/// `Checkpoint` phase checkpoints at the update's own quiescence point
/// instead).
pub fn checkpoint_now<S: Store + ?Sized>(
    kernel: &mut Kernel,
    instance: &mut McrInstance,
    store: &mut S,
    opts: &CheckpointOptions,
) -> Result<CheckpointSummary, CheckpointError> {
    wait_quiescence(kernel, instance, QUIESCE_ROUNDS)
        .map_err(|e| CheckpointError::Quiescence(e.to_string()))?;
    let result = write_checkpoint(kernel, instance, store, opts);
    resume(kernel, instance);
    result
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

struct StepCtx {
    counter: u64,
    fault: Option<u64>,
}

impl StepCtx {
    /// Enters the next restore step; fails it if the armed fault site
    /// matches. Step indices are 1-based and follow [`RESTORE_STEPS`].
    fn step(&mut self, label: &'static str) -> Result<(), RestoreError> {
        self.counter += 1;
        debug_assert_eq!(RESTORE_STEPS[(self.counter - 1) as usize % RESTORE_STEPS.len()], label);
        if self.fault == Some(self.counter) {
            return Err(RestoreError::FaultInjected { step: self.counter, label });
        }
        Ok(())
    }
}

/// Decoded manifest payload: the state image, its digest, and the
/// per-shard (length, checksum) pairs the shard reads are validated with.
type ManifestContents = (StateImage, u64, Vec<(u64, u64)>);

fn read_manifest<S: Store + ?Sized>(store: &S, version: u64) -> Result<ManifestContents, RestoreError> {
    let name = manifest_blob(version);
    let blob = match store.read_blob(&name) {
        Ok(b) => b,
        Err(StoreError::NotFound(_)) => return Err(RestoreError::Truncated { blob: name }),
        Err(e) => return Err(RestoreError::Store(e)),
    };
    if blob.len() < MAGIC.len() + 8 {
        return Err(RestoreError::Truncated { blob: name });
    }
    let (body, trailer) = blob.split_at(blob.len() - 8);
    let recorded = u64::from_le_bytes(trailer.try_into().unwrap());
    if checksum64(body, 0) != recorded {
        return Err(RestoreError::ChecksumMismatch { blob: name });
    }
    let mut d = Dec::new(body);
    let mut parse = || -> Result<ManifestContents, ()> {
        if d.take(MAGIC.len())? != MAGIC {
            return Err(());
        }
        let format = d.u32()?;
        if format != FORMAT_VERSION {
            // Surfaced as VersionSkew below via the sentinel.
            return Err(());
        }
        let v = d.u64()?;
        if v != version {
            return Err(());
        }
        let digest = d.u64()?;
        let n = d.u32()? as usize;
        let mut shards = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            shards.push((d.u64()?, d.u64()?));
        }
        let state_len = d.u64()? as usize;
        let state_bytes = d.take(state_len)?;
        if !d.done() {
            return Err(());
        }
        let image = StateImage::decode(state_bytes)?;
        Ok((image, digest, shards))
    };
    // Distinguish format skew (checksum valid, format field different) from
    // plain corruption: the checksum already passed, so a bad format field
    // is a genuine version skew, everything else is framing damage.
    let format_probe = {
        let start = MAGIC.len();
        blob.get(start..start + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    };
    match parse() {
        Ok(out) => Ok(out),
        Err(()) => match format_probe {
            Some(fv) if fv != FORMAT_VERSION => Err(RestoreError::VersionSkew {
                expected: format!("format {FORMAT_VERSION}"),
                found: format!("format {fv}"),
            }),
            _ => Err(RestoreError::Truncated { blob: name }),
        },
    }
}

/// Reads, validates (length, then checksum) and decodes the shard blobs the
/// manifest names, concatenating their records in shard order.
fn read_shards<S: Store + ?Sized>(
    store: &S,
    version: u64,
    shard_meta: &[(u64, u64)],
) -> Result<Vec<DeltaRecord>, RestoreError> {
    let mut deltas = Vec::new();
    for (i, &(len, checksum)) in shard_meta.iter().enumerate() {
        let name = shard_blob(version, i);
        let blob = match store.read_blob(&name) {
            Ok(b) => b,
            Err(StoreError::NotFound(_)) => return Err(RestoreError::Truncated { blob: name }),
            Err(e) => return Err(RestoreError::Store(e)),
        };
        if blob.len() as u64 != len {
            return Err(RestoreError::Truncated { blob: name });
        }
        if checksum64(&blob, 0) != checksum {
            return Err(RestoreError::ChecksumMismatch { blob: name });
        }
        let mut d = Dec::new(&blob);
        while !d.done() {
            deltas.push(
                DeltaRecord::decode(&mut d).map_err(|()| RestoreError::Truncated { blob: name.clone() })?,
            );
        }
    }
    Ok(deltas)
}

/// Restores the newest fully valid checkpoint from `store` into a fresh
/// scratch kernel. Corrupt versions (truncated or checksum-mismatched blobs)
/// are rejected and the next older version is tried; deeper failures
/// (topology, digest, clock) abort, because an older version of the *same*
/// program would fail the same way.
///
/// `make_program` must construct the same program generation that was
/// checkpointed; `fault_at_step` arms a
/// [`crate::runtime::chaos::FaultSite::RestoreStep`]-style injected failure
/// at the given 1-based step (see [`RESTORE_STEPS`]).
pub fn restore_latest<S: Store + ?Sized>(
    store: &S,
    make_program: &mut dyn FnMut() -> Box<dyn Program>,
    fault_at_step: Option<u64>,
) -> Result<RestoredInstance, RestoreError> {
    let versions = list_versions(store);
    if versions.is_empty() {
        return Err(RestoreError::NoCheckpoint);
    }
    let mut ctx = StepCtx { counter: 0, fault: fault_at_step };
    let mut rejected = 0usize;
    let mut last_err = RestoreError::NoCheckpoint;
    for &version in versions.iter().rev() {
        // The step counter restarts per candidate version: a fault site
        // names "the n-th step of a restore attempt", which replays
        // identically however many corrupt versions were skipped first.
        ctx.counter = 0;
        match restore_version(store, version, make_program(), &mut ctx) {
            Ok(mut restored) => {
                restored.report.versions_rejected = rejected;
                return Ok(restored);
            }
            Err(e) if e.is_version_local() => {
                rejected += 1;
                last_err = e;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err)
}

fn restore_version<S: Store + ?Sized>(
    store: &S,
    version: u64,
    program: Box<dyn Program>,
    ctx: &mut StepCtx,
) -> Result<RestoredInstance, RestoreError> {
    let mut report = RestoreReport { version, ..Default::default() };

    ctx.step("read-manifest")?;
    let (mut image, digest, shard_meta) = read_manifest(store, version)?;

    ctx.step("read-shards")?;
    let deltas = read_shards(store, version, &shard_meta)?;

    // ---- From here on everything happens in a scratch kernel; the serving
    // kernel is not involved at all.
    ctx.step("preinstall-files")?;
    let mut kernel = Kernel::new();
    for (path, contents) in &image.files {
        kernel.add_file(path.clone(), contents.clone());
    }

    ctx.step("boot")?;
    if program.name() != image.program_name || program.version() != image.program_version {
        return Err(RestoreError::VersionSkew {
            expected: format!("{} {}", image.program_name, image.program_version),
            found: format!("{} {}", program.name(), program.version()),
        });
    }
    let boot_opts =
        BootOptions { config: image.config, layout_slide: image.layout_slide, start_quiesced: false };
    let mut instance =
        boot(&mut kernel, program, &boot_opts).map_err(|e| RestoreError::Boot(e.to_string()))?;

    // Run-then-quiesce *before* validating topology: short-lived startup
    // threads (e.g. a daemonize helper) reach their recorded `Exited` state
    // only by being stepped in normal running — quiescence alone parks them
    // at their hooks instead. Normal rounds are run until the roster matches
    // the manifest (zero rounds when the checkpoint predates those exits),
    // then the scratch instance is parked for the reconcile steps.
    ctx.step("quiesce")?;
    for _ in 0..QUIESCE_ROUNDS {
        if validate_topology(&kernel, &instance, &image).is_ok() {
            break;
        }
        run_rounds(&mut kernel, &mut instance, 1)
            .map_err(|e| RestoreError::Reconcile(format!("scratch settle round: {e}")))?;
    }
    wait_quiescence(&mut kernel, &mut instance, QUIESCE_ROUNDS)
        .map_err(|e| RestoreError::Reconcile(format!("scratch quiescence: {e}")))?;

    ctx.step("validate-topology")?;
    validate_topology(&kernel, &instance, &image)?;

    ctx.step("files-reconcile")?;
    let wanted: BTreeSet<&str> = image.files.iter().map(|(p, _)| p.as_str()).collect();
    let stale: Vec<String> =
        kernel.files().map(|(p, _)| p).filter(|p| !wanted.contains(p)).map(str::to_string).collect();
    for path in stale {
        kernel.remove_file(&path);
    }
    for (path, contents) in std::mem::take(&mut image.files) {
        kernel.add_file(path, contents);
    }

    ctx.step("heap-reconcile")?;
    reconcile_heaps(&mut kernel, &image, &mut report)?;

    ctx.step("memory-overlay")?;
    overlay_memory(&mut kernel, &image, &deltas)?;

    ctx.step("fd-prune")?;
    prune_fds(&mut kernel, &image, &mut report)?;

    ctx.step("objects-restore")?;
    restore_objects(&mut kernel, std::mem::take(&mut image.objects), &mut report)?;

    ctx.step("fd-install")?;
    install_fds(&mut kernel, &image, &mut report)?;

    ctx.step("clients-restore")?;
    kernel.restore_clients(std::mem::take(&mut image.clients));
    kernel.set_next_conn_id(image.next_conn);

    ctx.step("clock-advance")?;
    let boot_ns = kernel.now().0;
    if boot_ns > image.clock_ns {
        return Err(RestoreError::ClockSkew { manifest_ns: image.clock_ns, boot_ns });
    }
    kernel.advance_clock(SimDuration(image.clock_ns - boot_ns));

    ctx.step("digest-check")?;
    let found = live_digest(&kernel, &instance)
        .map_err(|e| RestoreError::Reconcile(format!("state re-collection: {e}")))?;
    if found != digest {
        return Err(RestoreError::DigestMismatch { expected: digest, found });
    }

    report.steps_completed = ctx.counter;
    report.deltas_applied = deltas.len();
    Ok(RestoredInstance { kernel, instance, report })
}

fn validate_topology(
    kernel: &Kernel,
    instance: &McrInstance,
    image: &StateImage,
) -> Result<(), RestoreError> {
    let mut booted: Vec<u32> = instance.state.processes.iter().map(|p| p.0).collect();
    booted.sort();
    booted.dedup();
    let wanted: Vec<u32> = image.processes.iter().map(|p| p.pid).collect();
    if booted != wanted {
        return Err(RestoreError::TopologyMismatch(format!(
            "pids: re-boot produced {booted:?}, manifest records {wanted:?}"
        )));
    }
    for img in &image.processes {
        let proc = kernel
            .process(Pid(img.pid))
            .map_err(|e| RestoreError::TopologyMismatch(format!("pid {}: {e}", img.pid)))?;
        if proc.name() != img.name {
            return Err(RestoreError::TopologyMismatch(format!(
                "pid {} name: {:?} vs manifest {:?}",
                img.pid,
                proc.name(),
                img.name
            )));
        }
        let mut threads: Vec<(u32, String, bool)> = proc
            .threads()
            .map(|t| (t.tid().0, t.name().to_string(), matches!(t.state(), mcr_procsim::ThreadState::Exited)))
            .collect();
        threads.sort();
        if threads != img.threads {
            return Err(RestoreError::TopologyMismatch(format!(
                "pid {} threads: re-boot {threads:?}, manifest {:?}",
                img.pid, img.threads
            )));
        }
    }
    Ok(())
}

fn reconcile_heaps(
    kernel: &mut Kernel,
    image: &StateImage,
    report: &mut RestoreReport,
) -> Result<(), RestoreError> {
    for img in &image.processes {
        let pid = Pid(img.pid);
        let have: BTreeMap<u64, (u64, u64, u64, bool)> = {
            let proc = kernel.process(pid).map_err(|e| RestoreError::Reconcile(e.to_string()))?;
            match proc.heap() {
                Some(heap) => heap
                    .live_chunks(proc.space())
                    .map(|c| (c.payload.0, (c.size, c.site.0, c.type_tag.0, c.startup)))
                    .collect(),
                None => BTreeMap::new(),
            }
        };
        let want: BTreeMap<u64, &ChunkImage> = img.chunks.iter().map(|c| (c.payload, c)).collect();
        let mut to_free = Vec::new();
        let mut to_alloc = Vec::new();
        for (&payload, &(size, site, tag, _)) in &have {
            match want.get(&payload) {
                Some(c) if c.size == size && c.site == site && c.tag == tag => {}
                _ => to_free.push(payload),
            }
        }
        for (&payload, c) in &want {
            let matches = have
                .get(&payload)
                .is_some_and(|&(size, site, tag, _)| c.size == size && c.site == site && c.tag == tag);
            if !matches {
                if c.startup {
                    // A startup-time chunk the deterministic re-boot failed
                    // to reproduce: the determinism premise is broken.
                    return Err(RestoreError::Reconcile(format!(
                        "pid {} startup chunk at {:#x} missing after re-boot",
                        img.pid, payload
                    )));
                }
                to_alloc.push(*c);
            }
        }
        if to_free.is_empty() && to_alloc.is_empty() {
            continue;
        }
        let proc = kernel.process_mut(pid).map_err(|e| RestoreError::Reconcile(e.to_string()))?;
        let (space, heap) = proc.space_and_heap_mut().map_err(|e| RestoreError::Reconcile(e.to_string()))?;
        for payload in to_free {
            heap.free(space, Addr(payload))
                .map_err(|e| RestoreError::Reconcile(format!("pid {} free {payload:#x}: {e}", img.pid)))?;
            report.freed_chunks += 1;
        }
        for c in to_alloc {
            heap.malloc_at(space, Addr(c.payload), c.size, AllocSite(c.site), TypeTag(c.tag)).map_err(
                |e| RestoreError::Reconcile(format!("pid {} malloc_at {:#x}: {e}", img.pid, c.payload)),
            )?;
            report.reallocated_chunks += 1;
        }
    }
    Ok(())
}

fn overlay_memory(
    kernel: &mut Kernel,
    image: &StateImage,
    deltas: &[DeltaRecord],
) -> Result<(), RestoreError> {
    // The writer emits deltas in the manifest's (ascending) pid order and
    // shards are contiguous ranges of that stream, so each process owns one
    // run of it.
    let mut rest = deltas;
    for img in &image.processes {
        let mine;
        (mine, rest) = rest.split_at(rest.iter().take_while(|rec| rec.pid == img.pid).count());
        let pid = Pid(img.pid);
        let want: BTreeMap<u64, &RegionImage> = img.regions.iter().map(|r| (r.base, r)).collect();
        let have: Vec<(u64, u64, RegionKind, String, bool)> = kernel
            .process(pid)
            .map_err(|e| RestoreError::Reconcile(e.to_string()))?
            .space()
            .regions()
            .map(|r| (r.base().0, r.size(), r.kind(), r.name().to_string(), r.is_writable()))
            .collect();
        let proc = kernel.process_mut(pid).map_err(|e| RestoreError::Reconcile(e.to_string()))?;
        let space = proc.space_mut();
        let mut present = BTreeSet::new();
        for (base, size, kind, name, writable) in have {
            match want.get(&base) {
                Some(r) if r.size == size && r.kind == kind && r.name == name && r.writable == writable => {
                    present.insert(base);
                }
                _ => {
                    // Region unmapped (or remapped differently) before the
                    // checkpoint: drop the re-booted one.
                    space.unmap_region(Addr(base)).map_err(|e| {
                        RestoreError::Reconcile(format!("pid {} unmap {base:#x}: {e}", img.pid))
                    })?;
                }
            }
        }
        for (base, r) in &want {
            if !present.contains(base) {
                space
                    .map_region_with_perms(Addr(r.base), r.size, r.kind, r.name.clone(), r.writable)
                    .map_err(|e| RestoreError::Reconcile(format!("pid {} map {base:#x}: {e}", img.pid)))?;
            }
        }
        // Page-delta overlay, then exact soft-dirty stamps: the reconcile
        // writes above (heap headers, fresh mappings) transiently dirtied
        // pages the checkpointed instance never did, so stamps are rebuilt
        // from the recorded (page, epoch) pairs alone.
        let mut stamps: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
        for rec in mine {
            space.write_bytes_through(Addr(rec.addr), &rec.bytes).map_err(|e| {
                RestoreError::Reconcile(format!("pid {} delta {:#x}: {e}", img.pid, rec.addr))
            })?;
            let Some((&base, region)) = want.range(..=rec.addr).next_back() else {
                return Err(RestoreError::Reconcile(format!(
                    "pid {} delta {:#x} outside any manifest region",
                    img.pid, rec.addr
                )));
            };
            if rec.addr >= base + region.size {
                return Err(RestoreError::Reconcile(format!(
                    "pid {} delta {:#x} outside any manifest region",
                    img.pid, rec.addr
                )));
            }
            stamps.entry(base).or_default().push((((rec.addr - base) / PAGE_SIZE) as u32, rec.epoch));
        }
        for base in want.keys() {
            let empty = Vec::new();
            let pairs = stamps.get(base).unwrap_or(&empty);
            space
                .restore_page_epochs(Addr(*base), pairs)
                .map_err(|e| RestoreError::Reconcile(format!("pid {} epochs {base:#x}: {e}", img.pid)))?;
        }
        space.set_write_epoch(img.write_epoch);
    }
    if let Some(rec) = rest.first() {
        return Err(RestoreError::Reconcile(format!(
            "delta {:#x} of pid {} is out of the manifest's pid order",
            rec.addr, rec.pid
        )));
    }
    Ok(())
}

fn prune_fds(
    kernel: &mut Kernel,
    image: &StateImage,
    report: &mut RestoreReport,
) -> Result<(), RestoreError> {
    for img in &image.processes {
        let pid = Pid(img.pid);
        let want: BTreeMap<i32, &FdImage> = img.fds.iter().map(|f| (f.fd, f)).collect();
        let to_remove: Vec<(Fd, ObjId)> = {
            let proc = kernel.process(pid).map_err(|e| RestoreError::Reconcile(e.to_string()))?;
            proc.fds()
                .iter()
                .filter(|(fd, entry)| {
                    !want.get(&fd.0).is_some_and(|f| {
                        f.obj == entry.object.0
                            && f.cloexec == entry.cloexec
                            && f.inherited == entry.inherited
                    })
                })
                .map(|(fd, entry)| (fd, entry.object))
                .collect()
        };
        for (fd, obj) in to_remove {
            kernel
                .process_mut(pid)
                .map_err(|e| RestoreError::Reconcile(e.to_string()))?
                .fds_mut()
                .remove(fd)
                .map_err(|e| RestoreError::Reconcile(format!("pid {} remove fd {fd}: {e}", img.pid)))?;
            kernel.objects_mut().decref(obj);
            report.fds_pruned += 1;
        }
    }
    Ok(())
}

fn restore_objects(
    kernel: &mut Kernel,
    images: Vec<ObjImage>,
    report: &mut RestoreReport,
) -> Result<(), RestoreError> {
    let objects = kernel.objects_mut();
    let mut ids = Vec::with_capacity(images.len());
    for img in images {
        // The writer emits ids in strictly ascending order; holding the
        // reader to it lets the count alone prove the id sets equal below.
        if let Some(&last) = ids.last().filter(|&&last| img.id <= last) {
            return Err(RestoreError::Reconcile(format!(
                "kernel object {} follows {last}: ids out of ascending order",
                img.id
            )));
        }
        ids.push(img.id);
        let id = ObjId(img.id);
        if objects.get(id).is_some() {
            objects.restore_payload(id, img.obj).map_err(RestoreError::Reconcile)?;
            objects.set_refcount(id, img.rc).map_err(RestoreError::Reconcile)?;
        } else {
            objects.restore_insert(id, img.obj, img.rc).map_err(RestoreError::Reconcile)?;
            report.objects_inserted += 1;
        }
    }
    // After pruning every descriptor the manifest disowns, any survivor
    // outside the manifest means the reconcile did not converge. Every
    // manifest id is live now, so a larger table holds a survivor.
    if objects.len() != ids.len() {
        let extra: Vec<u64> =
            objects.iter().map(|(id, _)| id.0).filter(|id| ids.binary_search(id).is_err()).collect();
        return Err(RestoreError::Reconcile(format!("unreconciled kernel objects {extra:?}")));
    }
    Ok(())
}

fn install_fds(
    kernel: &mut Kernel,
    image: &StateImage,
    report: &mut RestoreReport,
) -> Result<(), RestoreError> {
    for img in &image.processes {
        let pid = Pid(img.pid);
        let existing: BTreeSet<i32> = {
            let proc = kernel.process(pid).map_err(|e| RestoreError::Reconcile(e.to_string()))?;
            proc.fds().iter().map(|(fd, _)| fd.0).collect()
        };
        for f in &img.fds {
            if existing.contains(&f.fd) {
                continue;
            }
            let proc = kernel.process_mut(pid).map_err(|e| RestoreError::Reconcile(e.to_string()))?;
            let fds = proc.fds_mut();
            // No incref: every manifest refcount was forced during
            // objects-restore, and it already accounts for this descriptor.
            fds.install_at(Fd(f.fd), ObjId(f.obj), f.inherited)
                .map_err(|e| RestoreError::Reconcile(format!("pid {} install fd {}: {e}", img.pid, f.fd)))?;
            if f.cloexec {
                fds.set_cloexec(Fd(f.fd), true).map_err(|e| {
                    RestoreError::Reconcile(format!("pid {} cloexec fd {}: {e}", img.pid, f.fd))
                })?;
            }
            report.fds_installed += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
