//! Durable blob storage for checkpoints.
//!
//! The checkpoint serializer in `mcr-core` persists manifests and page-delta
//! shards through the [`Store`] trait. Two backends implement it:
//!
//! * [`MemStore`] — an in-memory simulated disk whose writes go down in
//!   fixed-size blocks and whose failure behaviour is *injectable*: a write
//!   fault can crash the store before the n-th block ([`WriteFault::CrashAt`])
//!   or persist a torn, half-garbage n-th block and then crash
//!   ([`WriteFault::TornAt`]). [`Store::sync`] is the fsync barrier the
//!   checkpoint commit protocol orders its writes around.
//! * [`FsStore`] — a thin real-filesystem backend behind the same trait, for
//!   checkpoints that must survive the host process.
//!
//! The crash model is deliberately adversarial: blocks written before a crash
//! *persist* (truncated or torn blobs remain visible after [`Store::recover`]),
//! so a reader can never rely on "crash means the blob vanished" — it must
//! validate lengths and checksums. This is exactly the failure surface the
//! crash-consistency chaos campaign enumerates.
//!
//! [`checksum64`] is the one checksum every stored checkpoint byte is covered
//! by (manifest trailer, shard and file sums, state digest) and the one that
//! names the shard and file blobs; it lives here so the writer, the reader
//! and the campaign that forges blobs cannot drift apart.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Size of one simulated disk block. Writes are charged, torn and crashed at
/// this granularity.
pub(crate) const BLOCK_SIZE: usize = 4096;

/// Errors surfaced by a [`Store`] backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store crashed (an injected write fault fired, or an operation was
    /// attempted after a crash and before [`Store::recover`]).
    Crashed {
        /// Blob being written when the crash fired (empty if the store was
        /// already down).
        blob: String,
        /// Global block counter value at the crash point (0 if already down).
        block: u64,
    },
    /// The named blob does not exist.
    NotFound(String),
    /// Backend I/O failure (real-filesystem backend only).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Crashed { blob, block } => {
                write!(f, "store crashed at block {block} while writing {blob:?}")
            }
            StoreError::NotFound(name) => write!(f, "blob {name:?} not found"),
            StoreError::Io(msg) => write!(f, "store i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An injectable write fault, armed via [`Store::arm_write_fault`].
///
/// Both variants count blocks on the store's *global* block counter (see
/// [`Store::blocks_written`]), so a fault site enumerated from one clean run
/// replays deterministically on the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Crash the store instead of writing the n-th block (1-based). Blocks
    /// written before it persist; the blob being written stays truncated.
    CrashAt(u64),
    /// Persist a *torn* n-th block — the first half of the block's bytes,
    /// then garbage — and crash. Models a partial sector write at power loss.
    TornAt(u64),
}

/// Filler byte for the garbage half of a torn block.
const TORN_FILL: u8 = 0xA5;

/// Odd multiplier of [`checksum64`] (2^64 / golden ratio).
const CHECKSUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// 64-bit checksum of `bytes`, eight bytes per step. Pass seed 0 for a
/// standalone sum, or a previous sum to chain over a sequence of records.
///
/// Each step xors one little-endian word into a state, multiplies by an odd
/// constant and folds the high half down — a bijection of the state for a
/// fixed word and of the word for a fixed state. Whole 32-byte blocks run as
/// four independent lanes (word *i* of every block steps lane *i*), so the
/// multiplies overlap instead of forming one serial chain; the lanes are
/// then stepped into the running state in order, followed by the remaining
/// words, a zero-padded tail shorter than a word, and the length. A change
/// confined to one aligned word changes one step of one lane or of the
/// running state, and every step after it — later steps of that lane, the
/// fold, the rest of the running state — is a bijection of what it receives,
/// so the sum changes too: two inputs of equal length that differ only
/// inside one aligned word *always* sum differently (in particular any
/// single flipped byte is detected, never just probably). The length is
/// folded in last, so appending or dropping zero bytes changes the sum too.
/// Not cryptographic: it detects torn writes and bit rot, not forgery.
pub fn checksum64(bytes: &[u8], seed: u64) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        let h = (h ^ word).wrapping_mul(CHECKSUM_MUL);
        h ^ (h >> 32)
    }
    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
    }
    let mut lanes = [seed; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(&block[i * 8..i * 8 + 8]));
        }
    }
    let mut h = lanes.into_iter().fold(seed, step);
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(padded));
    }
    step(h, bytes.len() as u64)
}

/// A durable blob store: named byte blobs, whole-blob writes, an explicit
/// fsync barrier, and (for fault-injectable backends) a write-fault hook.
pub trait Store {
    /// Writes (or overwrites) the named blob. On a crash fault the blob may
    /// be left truncated or torn — the error reports the crash point.
    fn write_blob(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError>;

    /// Durability barrier: everything written before this call survives any
    /// later crash. The checkpoint commit protocol syncs shards *before*
    /// writing the manifest that names them.
    fn sync(&mut self) -> Result<(), StoreError>;

    /// Reads the named blob in full.
    fn read_blob(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// All blob names, sorted.
    fn list(&self) -> Vec<String>;

    /// Deletes the named blob (checkpoint retention).
    fn delete_blob(&mut self, name: &str) -> Result<(), StoreError>;

    /// Total blocks written over the store's lifetime. Fault sites index
    /// into this counter.
    fn blocks_written(&self) -> u64 {
        0
    }

    /// Number of [`Store::sync`] barriers issued.
    fn sync_count(&self) -> u64 {
        0
    }

    /// Arms a one-shot write fault. Backends without fault injection ignore
    /// this (the default).
    fn arm_write_fault(&mut self, _fault: WriteFault) {}

    /// Disarms any armed write fault.
    fn disarm_write_fault(&mut self) {}

    /// Clears the crashed state after an injected crash, modelling a restart
    /// against the surviving (possibly torn or truncated) contents.
    fn recover(&mut self) {}
}

/// In-memory simulated disk with block-granular, fault-injectable writes.
#[derive(Debug, Default)]
pub struct MemStore {
    blobs: BTreeMap<String, Vec<u8>>,
    unsynced: BTreeSet<String>,
    armed: Option<WriteFault>,
    blocks_written: u64,
    syncs: u64,
    crashed: bool,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Directly corrupts one byte of a stored blob (test hook for checksum
    /// coverage: flips every bit of the byte at `offset`).
    pub fn corrupt_byte(&mut self, name: &str, offset: usize) -> Result<(), StoreError> {
        let blob = self.blobs.get_mut(name).ok_or_else(|| StoreError::NotFound(name.into()))?;
        if offset >= blob.len() {
            return Err(StoreError::Io(format!("corrupt offset {offset} past blob end {}", blob.len())));
        }
        blob[offset] ^= 0xFF;
        Ok(())
    }

    /// Directly truncates a stored blob to `len` bytes (test hook).
    pub fn truncate_blob(&mut self, name: &str, len: usize) -> Result<(), StoreError> {
        let blob = self.blobs.get_mut(name).ok_or_else(|| StoreError::NotFound(name.into()))?;
        blob.truncate(len);
        Ok(())
    }
}

impl Store for MemStore {
    fn write_blob(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed { blob: String::new(), block: self.blocks_written });
        }
        // Overwrite semantics: the blob is rebuilt block by block, so a crash
        // mid-write leaves a short (truncated) blob behind.
        self.unsynced.insert(name.to_string());
        let blob = self.blobs.entry(name.to_string()).or_default();
        blob.clear();
        blob.reserve(data.len());
        // An empty blob still costs (and can crash at) exactly one block.
        let empty_block = data.is_empty().then_some(&[][..]);
        for chunk in empty_block.into_iter().chain(data.chunks(BLOCK_SIZE)) {
            let next = self.blocks_written + 1;
            match self.armed {
                Some(WriteFault::CrashAt(n)) if next == n => {
                    self.crashed = true;
                    self.armed = None;
                    return Err(StoreError::Crashed { blob: name.into(), block: n });
                }
                Some(WriteFault::TornAt(n)) if next == n => {
                    let half = chunk.len() / 2;
                    blob.extend_from_slice(&chunk[..half]);
                    blob.extend(std::iter::repeat_n(TORN_FILL, chunk.len() - half));
                    self.blocks_written = next;
                    self.crashed = true;
                    self.armed = None;
                    return Err(StoreError::Crashed { blob: name.into(), block: n });
                }
                _ => {
                    blob.extend_from_slice(chunk);
                    self.blocks_written = next;
                }
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed { blob: String::new(), block: self.blocks_written });
        }
        self.unsynced.clear();
        self.syncs += 1;
        Ok(())
    }

    fn read_blob(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.blobs.get(name).cloned().ok_or_else(|| StoreError::NotFound(name.into()))
    }

    fn list(&self) -> Vec<String> {
        self.blobs.keys().cloned().collect()
    }

    fn delete_blob(&mut self, name: &str) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed { blob: String::new(), block: self.blocks_written });
        }
        self.unsynced.remove(name);
        self.blobs.remove(name).map(|_| ()).ok_or_else(|| StoreError::NotFound(name.into()))
    }

    fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn arm_write_fault(&mut self, fault: WriteFault) {
        self.armed = Some(fault);
    }

    fn disarm_write_fault(&mut self) {
        self.armed = None;
    }

    fn recover(&mut self) {
        self.crashed = false;
        self.armed = None;
        self.unsynced.clear();
    }
}

/// Real-filesystem backend: blobs are files under a root directory. No fault
/// injection — crashes here are the host's business — but the same commit
/// protocol and validation apply.
#[derive(Debug)]
pub struct FsStore {
    root: std::path::PathBuf,
    /// Files written since the last [`Store::sync`].
    unsynced: BTreeSet<std::path::PathBuf>,
    blocks_written: u64,
    syncs: u64,
}

impl FsStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(FsStore { root, unsynced: BTreeSet::new(), blocks_written: 0, syncs: 0 })
    }

    fn path_for(&self, name: &str) -> Result<std::path::PathBuf, StoreError> {
        if name.is_empty()
            || name.starts_with('/')
            || name.split('/').any(|c| c.is_empty() || c == "." || c == "..")
        {
            return Err(StoreError::Io(format!("invalid blob name {name:?}")));
        }
        Ok(self.root.join(name))
    }

    fn collect(&self, dir: &std::path::Path, prefix: &str, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = if prefix.is_empty() { name.clone() } else { format!("{prefix}/{name}") };
            let path = entry.path();
            if path.is_dir() {
                self.collect(&path, &rel, out);
            } else {
                out.push(rel);
            }
        }
    }
}

impl Store for FsStore {
    fn write_blob(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let path = self.path_for(name)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| StoreError::Io(e.to_string()))?;
        }
        std::fs::write(&path, data).map_err(|e| StoreError::Io(e.to_string()))?;
        self.unsynced.insert(path);
        self.blocks_written += (data.len().max(1) as u64).div_ceil(BLOCK_SIZE as u64);
        Ok(())
    }

    /// Fsyncs every file written since the last barrier, then every
    /// directory from each one's parent up to the root, so both the bytes
    /// and the entries that name them (a freshly created subdirectory's
    /// included) persist.
    fn sync(&mut self) -> Result<(), StoreError> {
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        let mut dirs = BTreeSet::from([self.root.clone()]);
        for path in &self.unsynced {
            std::fs::File::open(path).and_then(|f| f.sync_all()).map_err(io)?;
            let mut dir = path.parent();
            while let Some(d) = dir.filter(|d| d.starts_with(&self.root)) {
                dirs.insert(d.to_path_buf());
                dir = d.parent();
            }
        }
        for dir in &dirs {
            std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
        }
        self.unsynced.clear();
        self.syncs += 1;
        Ok(())
    }

    fn read_blob(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let path = self.path_for(name)?;
        match std::fs::read(&path) {
            Ok(data) => Ok(data),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::NotFound(name.into())),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn list(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect(&self.root.clone(), "", &mut out);
        out.sort();
        out
    }

    fn delete_blob(&mut self, name: &str) -> Result<(), StoreError> {
        let path = self.path_for(name)?;
        self.unsynced.remove(&path);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::NotFound(name.into())),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_and_block_accounting() {
        let mut s = MemStore::new();
        let data = vec![7u8; BLOCK_SIZE * 2 + 10];
        s.write_blob("a/b", &data).unwrap();
        assert_eq!(s.read_blob("a/b").unwrap(), data);
        assert_eq!(s.blocks_written(), 3);
        s.sync().unwrap();
        assert_eq!(s.sync_count(), 1);
        assert_eq!(s.list(), vec!["a/b".to_string()]);
    }

    #[test]
    fn crash_at_block_truncates_and_blocks_further_writes() {
        let mut s = MemStore::new();
        s.arm_write_fault(WriteFault::CrashAt(2));
        let data = vec![3u8; BLOCK_SIZE * 3];
        let err = s.write_blob("x", &data).unwrap_err();
        assert_eq!(err, StoreError::Crashed { blob: "x".into(), block: 2 });
        // One block persisted; the blob survives truncated.
        assert_eq!(s.read_blob("x").unwrap().len(), BLOCK_SIZE);
        assert!(matches!(s.write_blob("y", b"z"), Err(StoreError::Crashed { .. })));
        assert!(matches!(s.sync(), Err(StoreError::Crashed { .. })));
        s.recover();
        s.write_blob("y", b"z").unwrap();
        assert_eq!(s.read_blob("y").unwrap(), b"z");
    }

    #[test]
    fn torn_write_persists_half_garbage_block() {
        let mut s = MemStore::new();
        s.arm_write_fault(WriteFault::TornAt(1));
        let data = vec![0x11u8; BLOCK_SIZE];
        assert!(s.write_blob("t", &data).is_err());
        let stored = s.read_blob("t").unwrap();
        assert_eq!(stored.len(), BLOCK_SIZE);
        assert_eq!(&stored[..BLOCK_SIZE / 2], &data[..BLOCK_SIZE / 2]);
        assert!(stored[BLOCK_SIZE / 2..].iter().all(|&b| b == TORN_FILL));
    }

    #[test]
    fn crash_and_torn_points_of_a_five_block_blob() {
        let data: Vec<u8> = (0..BLOCK_SIZE * 4 + 100).map(|i| (i % 251) as u8).collect();
        for k in 1..=5u64 {
            let mut s = MemStore::new();
            s.arm_write_fault(WriteFault::CrashAt(k));
            let err = s.write_blob("b", &data).unwrap_err();
            assert_eq!(err, StoreError::Crashed { blob: "b".into(), block: k });
            // The k-th block never went down: k-1 whole blocks survive.
            let kept = (k as usize - 1) * BLOCK_SIZE;
            assert_eq!(s.read_blob("b").unwrap(), &data[..kept]);
            assert_eq!(s.blocks_written(), k - 1);

            let mut s = MemStore::new();
            s.arm_write_fault(WriteFault::TornAt(k));
            let err = s.write_blob("b", &data).unwrap_err();
            assert_eq!(err, StoreError::Crashed { blob: "b".into(), block: k });
            // k blocks went down, the last one half data, half filler.
            let stored = s.read_blob("b").unwrap();
            let block_len = (data.len() - kept).min(BLOCK_SIZE);
            assert_eq!(stored.len(), kept + block_len);
            assert_eq!(&stored[..kept + block_len / 2], &data[..kept + block_len / 2]);
            assert!(stored[kept + block_len / 2..].iter().all(|&b| b == TORN_FILL));
            assert_eq!(s.blocks_written(), k);
        }
        // A fault past the blob's last block does not fire; an empty blob is
        // one block, and overwriting replaces the old contents.
        let mut s = MemStore::new();
        s.arm_write_fault(WriteFault::CrashAt(7));
        s.write_blob("b", &data).unwrap();
        assert_eq!((s.read_blob("b").unwrap(), s.blocks_written()), (data, 5));
        s.write_blob("b", &[]).unwrap();
        assert_eq!((s.read_blob("b").unwrap(), s.blocks_written()), (Vec::new(), 6));
        assert!(matches!(s.write_blob("b", &[1]), Err(StoreError::Crashed { block: 7, .. })));
    }

    /// Deterministic filler for the checksum properties.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn checksum_detects_every_change_confined_to_one_word() {
        // Below, at and past one 32-byte block of lanes; whole blocks plus
        // remaining words, plus a tail, or both.
        for len in [1, 7, 8, 9, 31, 32, 33, 40, 56, 63, 64, 96, 100, 127] {
            let data = noise(len, 0x9E37 + len as u64);
            let sum = checksum64(&data, 0);
            for offset in 0..len {
                // Every other value of the byte, not just one flipped bit.
                for delta in 1..=255u8 {
                    let mut changed = data.clone();
                    changed[offset] = changed[offset].wrapping_add(delta);
                    assert_ne!(checksum64(&changed, 0), sum, "len {len} offset {offset} delta {delta}");
                }
            }
            // A whole aligned word replaced at once.
            for word in 0..len / 8 {
                let mut changed = data.clone();
                changed[word * 8..word * 8 + 8].copy_from_slice(&noise(8, word as u64 + 1));
                assert_ne!(checksum64(&changed, 0), sum, "len {len} word {word}");
            }
        }
        // Words 1 and 6 step lanes 1 and 2 of different blocks; exchanging
        // them must not cancel out.
        let data = noise(64, 5);
        let mut swapped = data.clone();
        swapped[8..16].copy_from_slice(&data[48..56]);
        swapped[48..56].copy_from_slice(&data[8..16]);
        assert_ne!(checksum64(&swapped, 0), checksum64(&data, 0));
    }

    #[test]
    fn checksum_folds_the_length_in() {
        // Zero padding of the tail must not hide appended or dropped zeros.
        for len in 0..100 {
            let mut data = noise(len, 77);
            data.push(0);
            let sum = checksum64(&data, 0);
            assert_ne!(checksum64(&data[..len], 0), sum, "dropping the trailing zero of {} bytes", len + 1);
            data.push(0);
            assert_ne!(checksum64(&data, 0), sum, "appending a zero to {} bytes", len + 1);
        }
        let sums: BTreeSet<u64> = (0..64).map(|len| checksum64(&vec![0u8; len], 0)).collect();
        assert_eq!(sums.len(), 64, "all-zero inputs of different lengths sum differently");
    }

    #[test]
    fn checksum_chains_through_its_seed() {
        let (a, b) = (noise(100, 1), noise(50, 2));
        let chained = checksum64(&b, checksum64(&a, 0));
        // Chaining is its own function of the record sequence (it need not
        // equal the sum of `a ‖ b`): order- and seed-sensitive.
        assert_ne!(chained, checksum64(&a, checksum64(&b, 0)));
        assert_ne!(checksum64(&a, 0), checksum64(&a, 1));
        // A change in an earlier record reaches the end of the chain.
        let mut a2 = a.clone();
        a2[3] ^= 1;
        assert_ne!(chained, checksum64(&b, checksum64(&a2, 0)));
    }

    #[test]
    fn corruption_hooks() {
        let mut s = MemStore::new();
        s.write_blob("c", &[1, 2, 3, 4]).unwrap();
        s.corrupt_byte("c", 2).unwrap();
        assert_eq!(s.read_blob("c").unwrap(), vec![1, 2, !3, 4]);
        s.truncate_blob("c", 1).unwrap();
        assert_eq!(s.read_blob("c").unwrap(), vec![1]);
        assert!(s.corrupt_byte("missing", 0).is_err());
    }

    /// The barrier's fsyncs run against a real directory tree; whether they
    /// make the bytes survive a power cut cannot be observed from a test.
    #[test]
    fn fs_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mcr-fsstore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FsStore::open(&dir).unwrap();
        let blobs: [(&str, &[u8]); 3] = [
            ("ckpt/blob/0123456789abcdef-5", b"hello"),
            ("ckpt/blob/fedcba9876543210-3", b"abc"),
            ("ckpt/v00000001/MANIFEST", b"manifest"),
        ];
        for (name, data) in blobs {
            s.write_blob(name, data).unwrap();
        }
        assert_eq!(s.unsynced.len(), 3);
        s.sync().unwrap();
        assert!(s.unsynced.is_empty());
        assert_eq!(s.sync_count(), 1);
        assert_eq!(s.list(), blobs.map(|(name, _)| name.to_string()));
        for (name, data) in blobs {
            assert_eq!(s.read_blob(name).unwrap(), data);
        }
        assert!(matches!(s.read_blob("ckpt/v00000001/none"), Err(StoreError::NotFound(_))));
        assert!(s.path_for("../escape").is_err());
        // A blob deleted before the barrier is not synced.
        s.write_blob("ckpt/blob/0000000000000000-0", b"").unwrap();
        s.delete_blob("ckpt/blob/0000000000000000-0").unwrap();
        s.sync().unwrap();
        for (name, _) in blobs {
            s.delete_blob(name).unwrap();
        }
        assert!(s.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
