//! Durable checkpoints: versioned, checksummed manifests plus crash-consistent
//! restore.
//!
//! A checkpoint captures a quiesced instance as three kinds of blobs in a
//! [`Store`]:
//!
//! * **shards** — the page *deltas* (every page whose soft-dirty stamp is
//!   nonzero, i.e. written after startup), partitioned into contiguous,
//!   cost-balanced ranges by the same partitioner the intra-pair transfer
//!   engine uses, one blob per modelled writer, assembled one after the
//!   other and charged at the slowest writer's cost;
//! * **files** — the bytes of each simulated file, one blob per file in
//!   path order, written as they are and not charged in simulated time;
//! * **a manifest** (`ckpt/vNNNNNNNN/MANIFEST`) — program identity,
//!   instrumentation config, memory layout, the file table (per-file path,
//!   length and checksum), client endpoints, per-process topology (threads,
//!   regions, live heap chunks, allocator tables, descriptor tables), the
//!   kernel object table, the shard table (per-shard length + checksum), a
//!   whole-state digest and a trailing self-checksum. It records live
//!   endpoints only: the kernel forgets an accepted endpoint when its
//!   client closes it, and an endpoint carries replies only once its server
//!   has released the connection with them unread.
//!
//! Shards and files are named by content, not by version:
//! `ckpt/blob/<checksum64 as 16 hex digits>-<length in hex>`, the
//! `(length, checksum)` pair the manifest's shard and file rows already
//! record. Only the manifest is per version. The writer lists the store
//! once and skips every blob that is present *and* named by a manifest
//! whose trailer validates, so an unchanged file or shard is written once
//! and referenced by every later version; a blob that is merely present —
//! the leftover of a checkpoint that crashed before its manifest, possibly
//! torn — is written again. Retention is mark and sweep: the newest two
//! manifests stay, and every `ckpt/blob/` name neither of them lists goes.
//!
//! A blob two versions share has no intact predecessor: damage to it
//! condemns every version that names it, and restore reports the typed
//! [`RestoreError::ChecksumMismatch`] (or [`RestoreError::Truncated`]) of
//! the oldest one, never a wrong image. The writer does not read a blob
//! back before reusing it, so such damage also reaches every later version
//! that names the same bytes. Damage to a blob only the newest version
//! names still falls back to the version before. A content name
//! trusts [`checksum64`] exactly as far as the integrity check always has:
//! it is not cryptographic, so two different blobs of one length with one
//! sum would be taken for each other, as a forged blob would pass the check.
//!
//! Format v6: the wire form of v5, whose blobs were named by version and
//! position (`ckpt/vN/shard-NNNN`, `ckpt/vN/file-NNNN`); a v5 manifest is
//! refused as [`RestoreError::VersionSkew`]. Every checksum — manifest
//! trailer, shard sums, file sums, state digest — is [`checksum64`], which
//! hashes whole 32-byte blocks as four independent lanes of 8-byte words,
//! always detects a change confined to one aligned word and folds the
//! length in. v4 lacked the allocator tables and v3 carried each file's
//! bytes inside the manifest; both are refused as version skew too;
//! v2 used the same step as one serial chain and v1 hashed byte-wise
//! FNV-1a, so a v1 or v2 blob fails the trailer check first and is skipped
//! like any corrupt version. The digest chains `checksum64` over the state
//! section, whose file table holds each file's checksum, and then over each
//! delta record's header and payload, so it does not depend on the shard
//! split. The kernel keeps each file's checksum until the file next
//! changes, so a file nothing writes is hashed once per kernel, not once
//! per checkpoint or digest.
//!
//! The commit protocol is blobs → fsync → manifest → fsync: a manifest is
//! only durable once everything it names is, so any crash mid-checkpoint
//! leaves either a fully valid new version or a truncated/torn one that
//! validation rejects, falling back to the previous retained version.
//!
//! The writer never materialises the state: `encode_live_state` streams
//! the wire form straight from the quiesced kernel into the manifest buffer,
//! and page deltas and file contents are borrowed views of the kernel's
//! page table and file system. `StateImage` and `DeltaRecord` are the
//! *decoded* form only.
//!
//! Restore does **not** deserialize a kernel wholesale. It re-boots the same
//! program deterministically in a *scratch* kernel that numbers processes
//! and threads from the manifest's lowest pid and tid, which reproduces the
//! topology and all startup-time memory of an instance however many live
//! updates it went through. The re-boot supplies only that memory and the
//! program's own state: every host-side table comes from the manifest. So
//! restore installs each process's allocator tables (the heap's frontier,
//! free list and live chunks; the pool table), overlays the page deltas,
//! puts the manifest's descriptor and kernel-object tables in place of the
//! re-boot's and restores client endpoints and the virtual clock — moving
//! file contents out of their blobs and kernel objects and client endpoints
//! out of the decoded image rather than copying them — and finally proves
//! fidelity by re-encoding the scratch kernel's state and comparing
//! digests. File contents are read and hashed once, before the re-boot that
//! reads them; every later file check compares the kernel's cached
//! checksums.
//! The serving kernel is never touched: a restore either returns a complete
//! new kernel or a typed [`RestoreError`], so no partial restore can ever be
//! observed (the "no partial restore" guarantee is structural).
//!
//! Known residue (documented, checked where possible): a process forked
//! after startup (vsftpd's and sshd's session processes) is not reproduced
//! by the re-boot and is rejected with [`RestoreError::TopologyMismatch`];
//! Rust-side program-struct fields and instance counters reset to their
//! post-startup values; post-checkpoint client connections are lost (honest
//! crash semantics).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mcr_procsim::{
    checksum64, Addr, AllocSite, ChunkInfo, ClientSnapshot, Fd, FdTable, Kernel, KernelObject, ObjId, Pid,
    PoolId, Process, PtMalloc, RegionKind, SimDuration, SimError, Store, StoreError, ThreadState, Tid,
    TypeTag, UnixMessage, PAGE_SIZE,
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
/// version 3 runs its whole 32-byte blocks as four lanes; version 4 moves
/// each file's bytes out of the manifest into a `file-NNNN` blob written
/// with the shards, before the barrier that precedes the manifest, and
/// keeps only each file's path, length and checksum in the manifest;
/// version 5 adds each process's allocator tables (heap frontier and free
/// list, pool table), so a v4 manifest is version-skewed; version 6 keeps
/// v5's bytes but names every shard and file blob by its checksum and
/// length ([`blob_name`]) instead of by version and position, so the blobs
/// a v5 manifest names are not where a v6 reader looks.
pub(crate) const FORMAT_VERSION: u32 = 6;

/// Simulated cost charged per page-delta record written to a shard, plus one
/// nanosecond per payload byte (models serialization + device bandwidth).
const RECORD_COST_NS: u64 = 2_000;

/// Quiescence budget (barrier passes) for `checkpoint_now` / restore.
const QUIESCE_ROUNDS: usize = 64;

/// Labels of the enumerable restore steps, in execution order. The
/// crash-consistency campaign injects a failure at each index (1-based) via
/// the `fault_at_step` argument of [`restore_latest`].
pub const RESTORE_STEPS: [&str; 13] = [
    "read-manifest",
    "read-shards",
    "preinstall-files",
    "boot",
    "quiesce",
    "validate-topology",
    "files-reconcile",
    "allocators-restore",
    "memory-overlay",
    "tables-restore",
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
    /// The re-boot, numbered from the manifest's lowest pid and tid,
    /// produced a different process/thread topology than the manifest
    /// records: a process forked after startup, such as a session process,
    /// is not re-booted.
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
/// the manifests older than the newest two and every blob neither of them
/// names, so damage to a blob only the newest version names still has an
/// intact predecessor to fall back to.
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
    /// Store blocks this checkpoint wrote (the shard and file blobs the
    /// store did not already hold, then the manifest) — the size of the
    /// torn-write/crash fault-site space a chaos campaign can inject into.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Manifest version that was revived.
    pub version: u64,
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

/// One pool of a process's [`mcr_procsim::RegionAllocator`].
struct PoolImage {
    id: PoolId,
    storage: Addr,
    size: u64,
    used: u64,
    parent: Option<PoolId>,
    /// `(payload, size, site, tag)` per instrumented object, ascending.
    objects: Vec<(Addr, u64, AllocSite, TypeTag)>,
}

struct ProcImage {
    pid: u32,
    name: String,
    /// `(tid, name, exited)` per thread, in tid order.
    threads: Vec<(u32, String, bool)>,
    write_epoch: u64,
    regions: Vec<RegionImage>,
    chunks: Vec<ChunkImage>,
    /// The heap's bump frontier.
    frontier: u64,
    /// The heap's free list: chunk offset → chunk size.
    free_chunks: BTreeMap<u64, u64>,
    /// The id the region allocator gives its next pool.
    next_pool: u64,
    pools: Vec<PoolImage>,
    fds: Vec<FdImage>,
}

struct ObjImage {
    id: u64,
    rc: u32,
    obj: KernelObject,
}

/// One row of the manifest's file table; the contents are the blob the
/// row's length and checksum name ([`blob_name`]).
struct FileImage {
    path: String,
    len: u64,
    checksum: u64,
}

/// Everything the manifest's state section captures, decoded. Restore owns
/// it and moves the bulky parts (clients, objects) into the scratch kernel;
/// the writer never builds one (see [`encode_live_state`]).
struct StateImage {
    program_name: String,
    program_version: String,
    config: InstrumentationConfig,
    layout_slide: u64,
    clock_ns: u64,
    next_conn: u64,
    files: Vec<FileImage>,
    clients: Vec<ClientSnapshot>,
    processes: Vec<ProcImage>,
    objects: Vec<ObjImage>,
}

impl StateImage {
    /// Decodes the state section up to and including the file table; the
    /// clients, processes and objects stay empty.
    fn decode_head(d: &mut Dec<'_>) -> Result<StateImage, ()> {
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
        let mut files: Vec<FileImage> = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let file = FileImage { path: d.str()?, len: d.u64()?, checksum: d.u64()? };
            // Strictly ascending paths: the rows name distinct files, in the
            // order the kernel lists them.
            if files.last().is_some_and(|prev| prev.path >= file.path) {
                return Err(());
            }
            files.push(file);
        }
        Ok(StateImage {
            program_name,
            program_version,
            config: InstrumentationConfig { level, instrument_region_allocator },
            layout_slide,
            clock_ns,
            next_conn,
            files,
            clients: Vec::new(),
            processes: Vec::new(),
            objects: Vec::new(),
        })
    }

    fn decode(buf: &[u8]) -> Result<StateImage, ()> {
        let mut d = Dec::new(buf);
        let mut image = StateImage::decode_head(&mut d)?;
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
            let frontier = d.u64()?;
            let k = d.u32()? as usize;
            let mut free_chunks = BTreeMap::new();
            for _ in 0..k {
                free_chunks.insert(d.u64()?, d.u64()?);
            }
            let next_pool = d.u64()?;
            let k = d.u32()? as usize;
            let mut pools = Vec::with_capacity(k.min(4096));
            for _ in 0..k {
                let (id, storage, size, used) = (PoolId(d.u64()?), Addr(d.u64()?), d.u64()?, d.u64()?);
                // Pool ids start at 1: `0` is "no parent".
                let parent = Some(d.u64()?).filter(|&p| p != 0).map(PoolId);
                let n = d.u32()? as usize;
                let mut objects = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    objects.push((Addr(d.u64()?), d.u64()?, AllocSite(d.u64()?), TypeTag(d.u64()?)));
                }
                pools.push(PoolImage { id, storage, size, used, parent, objects });
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
            processes.push(ProcImage {
                pid,
                name,
                threads,
                write_epoch,
                regions,
                chunks,
                frontier,
                free_chunks,
                next_pool,
                pools,
                fds,
            });
        }
        let n = d.u32()? as usize;
        let mut objects = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            objects.push(ObjImage { id: d.u64()?, rc: d.u32()?, obj: decode_object(&mut d)? });
        }
        if !d.done() {
            return Err(());
        }
        (image.clients, image.processes, image.objects) = (clients, processes, objects);
        Ok(image)
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
    e.seq(kernel.files(), |e, (path, contents, checksum)| {
        e.str(path);
        e.u64(contents.len() as u64);
        e.u64(checksum);
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
        let no_heap = BTreeMap::new();
        let (frontier, free_chunks) = proc.heap().map_or((0, &no_heap), PtMalloc::free_space);
        e.u64(frontier);
        e.seq(free_chunks, |e, (&offset, &size)| {
            e.u64(offset);
            e.u64(size);
        });
        let (next_pool, pools) = proc.regions().pools();
        e.u64(next_pool);
        e.seq(pools, |e, (id, storage, size, used, parent, objects)| {
            e.u64(id.0);
            e.u64(storage.0);
            e.u64(size);
            e.u64(used);
            e.u64(parent.map_or(0, |p| p.0));
            e.seq(objects, |e, &(obj, size, site, tag)| {
                e.u64(obj.0);
                e.u64(size);
                e.u64(site.0);
                e.u64(tag.0);
            });
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

/// Directory of the content-addressed shard and file blobs.
const BLOB_DIR: &str = "ckpt/blob/";

fn manifest_blob(version: u64) -> String {
    format!("ckpt/v{version:08}/MANIFEST")
}

/// Name of the blob holding `len` bytes whose [`checksum64`] is `checksum`:
/// the `(length, checksum)` pair a manifest's shard or file row records.
fn blob_name(len: u64, checksum: u64) -> String {
    format!("{BLOB_DIR}{checksum:016x}-{len:x}")
}

/// The version whose directory holds blob `name`, if any.
fn version_of(name: &str) -> Option<u64> {
    let (num, _) = name.strip_prefix("ckpt/v")?.split_once('/')?;
    num.parse().ok()
}

/// All version numbers present in the store, ascending. A version is
/// present while its manifest is, valid or not: shards and files sit under
/// `ckpt/blob/`, not under the version's directory, so a checkpoint that
/// crashed before its manifest claims no number and the next one reuses it.
pub fn list_versions<S: Store + ?Sized>(store: &S) -> Vec<u64> {
    let versions: BTreeSet<u64> = store.list().iter().filter_map(|name| version_of(name)).collect();
    versions.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Checkpoint write
// ---------------------------------------------------------------------------

/// Writes a durable checkpoint of the (quiesced) instance. The shard and
/// file blobs the store does not already hold first, fsync, then the
/// manifest, fsync — so the manifest never names data that could be lost.
/// Returns the new version's summary; on success, all but the newest two
/// manifests are deleted, and so is every blob neither of them names.
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

    // One listing gives the version number, the blobs a sealed manifest
    // already names, and what retention may sweep. A store holds a few
    // dozen names, so plain vectors serve as the sets below.
    let listed = store.list();
    let versions: BTreeSet<u64> = listed.iter().filter_map(|name| version_of(name)).collect();
    let version = versions.last().map_or(1, |v| v + 1);
    let named: Vec<(u64, Vec<String>)> =
        versions.iter().filter_map(|&v| Some((v, manifest_blobs(store, v)?))).collect();
    // A blob is reused only if it is present and a sealed manifest names it:
    // one that is merely present may be the torn leftover of a crash.
    let held: Vec<&String> =
        named.iter().flat_map(|(_, names)| names).filter(|name| listed.binary_search(name).is_ok()).collect();
    let blocks_before = store.blocks_written();
    let shards = shard_bufs.iter().map(|(buf, checksum, _)| (&buf[..], *checksum));
    let mut names: Vec<String> = Vec::with_capacity(shard_bufs.len() + kernel.files().len());
    for (bytes, checksum) in shards.chain(kernel.files().map(|(_, bytes, checksum)| (bytes, checksum))) {
        let name = blob_name(bytes.len() as u64, checksum);
        if !held.contains(&&name) && !names.contains(&name) {
            store.write_blob(&name, bytes)?;
        }
        names.push(name);
    }
    // Barrier: every shard and file is durable before the manifest names it.
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

    // Retention, mark and sweep: the newest `RETAINED_VERSIONS` manifests
    // stay, and so does every blob one of them names. Manifests go first, so
    // an interrupted sweep never leaves a sealed manifest without its blobs.
    let kept: Vec<u64> = versions.iter().rev().take(RETAINED_VERSIONS - 1).copied().collect();
    let kept_names = named.iter().filter(|(v, _)| kept.contains(v)).flat_map(|(_, names)| names);
    let live: Vec<&str> = names.iter().chain(kept_names).map(String::as_str).collect();
    let stale_manifests = listed.iter().filter(|name| version_of(name).is_some_and(|v| !kept.contains(&v)));
    let stale_blobs =
        listed.iter().filter(|name| name.starts_with(BLOB_DIR) && !live.contains(&name.as_str()));
    for name in stale_manifests.chain(stale_blobs) {
        let _ = store.delete_blob(name);
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

/// Reads one blob in full; a missing blob is a truncated version.
fn read_named<S: Store + ?Sized>(store: &S, name: &str) -> Result<Vec<u8>, RestoreError> {
    match store.read_blob(name) {
        Ok(b) => Ok(b),
        Err(StoreError::NotFound(_)) => Err(RestoreError::Truncated { blob: name.to_string() }),
        Err(e) => Err(RestoreError::Store(e)),
    }
}

/// Reads `version`'s manifest and checks its trailing self-checksum;
/// returns the body the trailer covers.
fn read_sealed<S: Store + ?Sized>(store: &S, version: u64) -> Result<Vec<u8>, RestoreError> {
    let name = manifest_blob(version);
    let mut blob = read_named(store, &name)?;
    if blob.len() < MAGIC.len() + 8 {
        return Err(RestoreError::Truncated { blob: name });
    }
    let body_len = blob.len() - 8;
    let recorded = u64::from_le_bytes(blob[body_len..].try_into().unwrap());
    if checksum64(&blob[..body_len], 0) != recorded {
        return Err(RestoreError::ChecksumMismatch { blob: name });
    }
    blob.truncate(body_len);
    Ok(blob)
}

/// A sealed manifest body, split at its state section.
struct Header<'b> {
    digest: u64,
    /// `(length, checksum)` per shard blob.
    shards: Vec<(u64, u64)>,
    state: &'b [u8],
}

/// Splits a sealed manifest body of this format and `version` into its
/// digest, its shard table and the state section.
fn parse_header(body: &[u8], version: u64) -> Result<Header<'_>, ()> {
    let mut d = Dec::new(body);
    if d.take(MAGIC.len())? != MAGIC || d.u32()? != FORMAT_VERSION || d.u64()? != version {
        return Err(());
    }
    let digest = d.u64()?;
    let n = d.u32()? as usize;
    let mut shards = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        shards.push((d.u64()?, d.u64()?));
    }
    let state_len = d.u64()? as usize;
    let state = d.take(state_len)?;
    if !d.done() {
        return Err(());
    }
    Ok(Header { digest, shards, state })
}

/// The shard and file blobs `version`'s manifest names, or `None` if it is
/// not a sealed manifest of this format.
fn manifest_blobs<S: Store + ?Sized>(store: &S, version: u64) -> Option<Vec<String>> {
    let body = read_sealed(store, version).ok()?;
    let Header { shards, state, .. } = parse_header(&body, version).ok()?;
    let files = StateImage::decode_head(&mut Dec::new(state)).ok()?.files;
    let rows = shards.into_iter().chain(files.iter().map(|f| (f.len, f.checksum)));
    Some(rows.map(|(len, checksum)| blob_name(len, checksum)).collect())
}

fn read_manifest<S: Store + ?Sized>(store: &S, version: u64) -> Result<ManifestContents, RestoreError> {
    let body = read_sealed(store, version)?;
    let parsed = parse_header(&body, version)
        .and_then(|Header { digest, shards, state }| Ok((StateImage::decode(state)?, digest, shards)));
    // Distinguish format skew (checksum valid, format field different) from
    // plain corruption: the checksum already passed, so a bad format field
    // is a genuine version skew, everything else is framing damage.
    let format_probe =
        body.get(MAGIC.len()..MAGIC.len() + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
    match parsed {
        Ok(out) => Ok(out),
        Err(()) => match format_probe {
            Some(fv) if fv != FORMAT_VERSION => Err(RestoreError::VersionSkew {
                expected: format!("format {FORMAT_VERSION}"),
                found: format!("format {fv}"),
            }),
            _ => Err(RestoreError::Truncated { blob: manifest_blob(version) }),
        },
    }
}

/// Reads, validates (length, then checksum) and decodes the shard blobs the
/// manifest names, concatenating their records in shard order.
fn read_shards<S: Store + ?Sized>(
    store: &S,
    shard_meta: &[(u64, u64)],
) -> Result<Vec<DeltaRecord>, RestoreError> {
    let mut deltas = Vec::new();
    for &(len, checksum) in shard_meta {
        let name = blob_name(len, checksum);
        let blob = read_named(store, &name)?;
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

/// Reads the file blobs the manifest's file table names and checks their
/// lengths. Their checksums are checked once the scratch kernel holds them,
/// where the kernel computes and keeps each one.
fn read_files<S: Store + ?Sized>(store: &S, files: &[FileImage]) -> Result<Vec<Vec<u8>>, RestoreError> {
    files
        .iter()
        .map(|file| {
            let name = blob_name(file.len, file.checksum);
            let blob = read_named(store, &name)?;
            if blob.len() as u64 != file.len {
                return Err(RestoreError::Truncated { blob: name });
            }
            Ok(blob)
        })
        .collect()
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
    ctx.step("read-manifest")?;
    let (mut image, digest, shard_meta) = read_manifest(store, version)?;

    ctx.step("read-shards")?;
    let deltas = read_shards(store, &shard_meta)?;
    let contents = read_files(store, &image.files)?;

    // ---- From here on everything happens in a scratch kernel; the serving
    // kernel is not involved at all.
    ctx.step("preinstall-files")?;
    let mut kernel = Kernel::new();
    for (file, bytes) in image.files.iter().zip(contents) {
        kernel.add_file(file.path.clone(), bytes);
    }
    // The kernel lists exactly the manifest's files, in the same (path)
    // order, and hashes each one here for the first and only time.
    if let Some(file) = kernel
        .files()
        .zip(&image.files)
        .find_map(|((_, _, sum), file)| (sum != file.checksum).then_some(file))
    {
        return Err(RestoreError::ChecksumMismatch { blob: blob_name(file.len, file.checksum) });
    }

    ctx.step("boot")?;
    if program.name() != image.program_name || program.version() != image.program_version {
        return Err(RestoreError::VersionSkew {
            expected: format!("{} {}", image.program_name, image.program_version),
            found: format!("{} {}", program.name(), program.version()),
        });
    }
    // A live-updated instance's processes and threads are numbered above
    // the boot defaults; the re-boot starts where they do.
    if let (Some(pid), Some(tid)) = (
        image.processes.iter().map(|p| p.pid).min(),
        image.processes.iter().flat_map(|p| &p.threads).map(|&(tid, _, _)| tid).min(),
    ) {
        kernel.number_from(Pid(pid), Tid(tid));
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

    // The re-boot may create files the manifest does not record; those go.
    // It cannot delete one, and a file it wrote fails the cached-checksum
    // comparison: like a missing startup chunk, that breaks the premise
    // that the re-boot is deterministic.
    ctx.step("files-reconcile")?;
    let wanted: BTreeSet<&str> = image.files.iter().map(|f| f.path.as_str()).collect();
    let stale: Vec<String> =
        kernel.files().map(|(p, _, _)| p).filter(|p| !wanted.contains(p)).map(str::to_string).collect();
    for path in stale {
        kernel.remove_file(&path);
    }
    for ((path, _, sum), file) in kernel.files().zip(&image.files) {
        if sum != file.checksum {
            return Err(RestoreError::Reconcile(format!("file {path} changed by the re-boot")));
        }
    }

    ctx.step("allocators-restore")?;
    restore_allocators(&mut kernel, &mut image)?;

    ctx.step("memory-overlay")?;
    overlay_memory(&mut kernel, &image, &deltas)?;

    ctx.step("tables-restore")?;
    restore_tables(&mut kernel, &mut image)?;

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

    let report = RestoreReport { version, versions_rejected: 0 };
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

/// Installs every process's allocator tables from the manifest. The
/// re-boot must have reproduced each startup chunk the manifest lists with
/// its size, site and tag, or the determinism premise is broken. No chunk
/// header is written: the startup ones are the re-boot's, and the later ones
/// arrive with the page deltas.
fn restore_allocators(kernel: &mut Kernel, image: &mut StateImage) -> Result<(), RestoreError> {
    for img in &mut image.processes {
        let pid = img.pid;
        let reconcile = |e: SimError| RestoreError::Reconcile(format!("pid {pid}: {e}"));
        let proc = kernel.process_mut(Pid(pid)).map_err(reconcile)?;
        let (space, heap, regions) = proc.space_heap_regions_mut().map_err(reconcile)?;
        for c in img.chunks.iter().filter(|c| c.startup) {
            let booted = heap.chunk_containing(space, Addr(c.payload));
            if booted.map(|b| (b.payload.0, b.size, b.site.0, b.type_tag.0))
                != Some((c.payload, c.size, c.site, c.tag))
            {
                return Err(RestoreError::Reconcile(format!(
                    "pid {pid} startup chunk at {:#x} missing after re-boot",
                    c.payload
                )));
            }
        }
        let live = img.chunks.iter().map(|c| (Addr(c.payload), c.size));
        heap.install_tables(img.frontier, std::mem::take(&mut img.free_chunks), live).map_err(reconcile)?;
        let pools = img.pools.iter().map(|p| (p.id, p.storage, p.size, p.used, p.parent, &p.objects[..]));
        regions.install_pools(img.next_pool, pools);
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
        // Page-delta overlay, then exact soft-dirty stamps: the fresh
        // mappings above dirtied pages the checkpointed instance never did,
        // so stamps are rebuilt from the recorded (page, epoch) pairs alone.
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

/// Replaces the scratch kernel's object table and every process's
/// descriptor table with the manifest's. The object table keeps its id
/// counter, so an id issued after the restore is the one the re-boot would
/// have issued.
fn restore_tables(kernel: &mut Kernel, image: &mut StateImage) -> Result<(), RestoreError> {
    let objects = kernel.objects_mut();
    objects.clear();
    for img in std::mem::take(&mut image.objects) {
        objects.restore_insert(ObjId(img.id), img.obj, img.rc).map_err(RestoreError::Reconcile)?;
    }
    for img in &image.processes {
        let proc = kernel.process_mut(Pid(img.pid)).map_err(|e| RestoreError::Reconcile(e.to_string()))?;
        let fds = proc.fds_mut();
        *fds = FdTable::new();
        for f in &img.fds {
            // No incref: the manifest's refcounts count every descriptor.
            fds.install_at(Fd(f.fd), ObjId(f.obj), f.inherited)
                .and_then(|()| fds.set_cloexec(Fd(f.fd), f.cloexec))
                .map_err(|e| RestoreError::Reconcile(format!("pid {} install fd {}: {e}", img.pid, f.fd)))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
