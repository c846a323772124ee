//! Simulated memory allocators with in-band MCR metadata.
//!
//! Three allocator families are modelled, matching the programs evaluated in
//! the paper:
//!
//! * [`PtMalloc`] — a ptmalloc-style general-purpose heap allocator (glibc
//!   `malloc`). When *instrumented*, every chunk header carries an allocation
//!   site identifier and a data-type tag in in-band metadata, exactly the
//!   information MCR's precise tracing consumes. Instrumentation performs real
//!   extra work per allocation, so its cost is observable in the overhead
//!   benchmarks (Table 3).
//! * [`RegionAllocator`] — a region/pool allocator (nginx pools, Apache httpd
//!   nested pools). Objects carved out of a region are *not* individually
//!   visible to the heap allocator; without dedicated instrumentation they are
//!   opaque to precise tracing and must be scanned conservatively.
//! * [`SlabAllocator`] — a slab of fixed-size slots (nginx slabs).
//!
//! All allocators operate on a heap region of a simulated [`AddressSpace`];
//! every header they maintain is stored *inside* simulated memory so that
//! conservative scanning and state transfer observe the same bytes a real
//! process would contain.

use std::collections::BTreeMap;

use crate::error::{SimError, SimResult};
use crate::memory::{Addr, AddressSpace};

/// Identifier of a static allocation call site (assigned by the
/// instrumentation layer; `0` means "unknown / uninstrumented").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AllocSite(pub u64);

/// Opaque data-type tag identifier (resolved by the `mcr-typemeta` crate;
/// `0` means "untyped").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TypeTag(pub u64);

/// Header flag bits stored in-band in front of every chunk payload.
mod flags {
    pub(crate) const IN_USE: u64 = 1 << 0;
    pub(crate) const STARTUP: u64 = 1 << 1;
    pub(crate) const INSTRUMENTED: u64 = 1 << 2;
}

/// Alignment guaranteed for every payload.
pub(crate) const CHUNK_ALIGN: u64 = 16;
/// Header size without instrumentation (size + flags).
pub(crate) const HEADER_BASE: u64 = 16;
/// Header size with MCR instrumentation (adds site + type tag words).
pub(crate) const HEADER_INSTR: u64 = 32;

/// Description of a live or freed chunk as read back from in-band metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Address of the first payload byte.
    pub payload: Addr,
    /// Payload size in bytes.
    pub size: u64,
    /// Allocation site recorded by instrumentation (0 if uninstrumented).
    pub site: AllocSite,
    /// Data-type tag recorded by instrumentation (0 if uninstrumented).
    pub type_tag: TypeTag,
    /// Whether the chunk was allocated during program startup.
    pub startup: bool,
    /// Whether the chunk is currently allocated.
    pub(crate) in_use: bool,
}

/// Running statistics maintained by an allocator instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AllocStats {
    /// Number of successful allocations.
    pub(crate) allocs: u64,
    /// Number of frees (including deferred ones once flushed).
    pub(crate) frees: u64,
    /// Bytes currently allocated (payload only).
    pub(crate) live_bytes: u64,
    /// Peak of `live_bytes`.
    pub(crate) peak_bytes: u64,
    /// Bytes of in-band metadata currently resident.
    pub(crate) metadata_bytes: u64,
    /// Extra word writes performed purely for instrumentation.
    pub(crate) instr_writes: u64,
}

/// A ptmalloc-style heap allocator bound to one heap region.
#[derive(Debug, Clone)]
pub struct PtMalloc {
    heap_base: Addr,
    heap_size: u64,
    /// Next never-used offset (bump frontier).
    frontier: u64,
    /// Free chunks by payload offset -> total chunk size (header + payload).
    free_chunks: BTreeMap<u64, u64>,
    /// Live chunks by payload address.
    live: BTreeMap<u64, u64>,
    instrumented: bool,
    startup_phase: bool,
    defer_free: bool,
    deferred: Vec<Addr>,
    stats: AllocStats,
}

impl PtMalloc {
    /// Creates an allocator managing `[heap_base, heap_base + heap_size)`.
    ///
    /// The heap region must already be mapped in the address space used with
    /// the allocator's methods.
    pub fn new(heap_base: Addr, heap_size: u64, instrumented: bool) -> Self {
        PtMalloc {
            heap_base,
            heap_size,
            frontier: 0,
            free_chunks: BTreeMap::new(),
            live: BTreeMap::new(),
            instrumented,
            startup_phase: true,
            defer_free: false,
            deferred: Vec::new(),
            stats: AllocStats::default(),
        }
    }

    /// Current allocation statistics.
    pub(crate) fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Ends the startup phase: subsequent allocations are no longer flagged
    /// as startup-time objects and deferred frees are no longer collected.
    pub fn end_startup(&mut self) {
        self.startup_phase = false;
    }

    /// Enables or disables deferral of `free` operations.
    ///
    /// Mutable reinitialization defers all frees until the end of startup so
    /// that no startup-time address is ever reused (*global separability*).
    pub fn set_defer_free(&mut self, defer: bool) {
        self.defer_free = defer;
    }

    /// Flushes deferred frees, actually releasing the chunks.
    pub fn flush_deferred(&mut self, space: &mut AddressSpace) -> SimResult<usize> {
        let pending = std::mem::take(&mut self.deferred);
        let n = pending.len();
        for addr in pending {
            self.release(space, addr)?;
        }
        Ok(n)
    }

    fn header_size(&self) -> u64 {
        if self.instrumented {
            HEADER_INSTR
        } else {
            HEADER_BASE
        }
    }

    fn round_up(v: u64, align: u64) -> u64 {
        v.div_ceil(align) * align
    }

    /// Allocates `size` bytes, recording `site`/`type_tag` when instrumented.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when neither the free list nor the
    /// bump frontier can satisfy the request.
    pub fn malloc(
        &mut self,
        space: &mut AddressSpace,
        size: u64,
        site: AllocSite,
        type_tag: TypeTag,
    ) -> SimResult<Addr> {
        let payload_size = Self::round_up(size.max(1), CHUNK_ALIGN);
        let total = self.header_size() + payload_size;

        // First-fit search in the free list.
        let reuse = self.free_chunks.iter().find(|(_, &sz)| sz >= total).map(|(&off, &sz)| (off, sz));

        let chunk_off = if let Some((off, sz)) = reuse {
            self.free_chunks.remove(&off);
            // Return the tail to the free list when the leftover is large
            // enough to hold another minimal chunk.
            let leftover = sz - total;
            if leftover >= self.header_size() + CHUNK_ALIGN {
                self.free_chunks.insert(off + total, leftover);
            }
            off
        } else {
            let off = Self::round_up(self.frontier, CHUNK_ALIGN);
            if off + total > self.heap_size {
                return Err(SimError::OutOfMemory { requested: size });
            }
            self.frontier = off + total;
            off
        };

        let header = self.heap_base.offset(chunk_off);
        let payload = header.offset(self.header_size());
        let mut fl = flags::IN_USE;
        if self.startup_phase {
            fl |= flags::STARTUP;
        }
        if self.instrumented {
            fl |= flags::INSTRUMENTED;
        }
        space.write_u64(header, payload_size)?;
        space.write_u64(header.offset(8), fl)?;
        if self.instrumented {
            // The two extra metadata stores are the per-allocation cost of
            // MCR's static/dynamic allocator instrumentation.
            space.write_u64(header.offset(16), site.0)?;
            space.write_u64(header.offset(24), type_tag.0)?;
            self.stats.instr_writes += 2;
        }
        // Zero the payload (calloc-like semantics keep tracing deterministic).
        space.fill(payload, payload_size as usize, 0)?;

        self.live.insert(payload.0, total);
        self.stats.allocs += 1;
        self.stats.live_bytes += payload_size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        self.stats.metadata_bytes += self.header_size();
        Ok(payload)
    }

    /// Frees the chunk whose payload starts at `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFree`] if `payload` is not a live chunk.
    pub fn free(&mut self, space: &mut AddressSpace, payload: Addr) -> SimResult<()> {
        if !self.live.contains_key(&payload.0) {
            return Err(SimError::InvalidFree(payload));
        }
        if self.defer_free && self.startup_phase {
            self.deferred.push(payload);
            return Ok(());
        }
        self.release(space, payload)
    }

    fn release(&mut self, space: &mut AddressSpace, payload: Addr) -> SimResult<()> {
        let total = self.live.remove(&payload.0).ok_or(SimError::InvalidFree(payload))?;
        let header = payload.0 - self.header_size();
        let fl = space.read_u64(Addr(header + 8))?;
        space.write_u64(Addr(header + 8), fl & !flags::IN_USE)?;
        let payload_size = space.read_u64(Addr(header))?;
        // Like real ptmalloc, freeing writes free-list metadata into the
        // first payload word (the bin's next pointer). Besides fidelity,
        // this stamps the freed object's page with the current write epoch,
        // so an incremental pre-copy retrace re-resolves the object and
        // drops it exactly like a fresh trace of the same memory would.
        space.write_u64(payload, 0)?;
        self.free_chunks.insert(header - self.heap_base.0, total);
        self.stats.frees += 1;
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(payload_size);
        self.stats.metadata_bytes = self.stats.metadata_bytes.saturating_sub(self.header_size());
        Ok(())
    }

    /// Allocates a chunk so that its payload lands exactly at `payload`.
    ///
    /// This is the *global reallocation* primitive of mutable
    /// reinitialization: immutable dynamic memory objects inherited from the
    /// old version must reappear at the same virtual address in the new
    /// version's fresh heap.
    ///
    /// # Errors
    ///
    /// Fails if the requested placement is outside the heap, overlaps a live
    /// chunk, or lies behind the bump frontier in already-recycled space that
    /// cannot be carved.
    pub fn malloc_at(
        &mut self,
        space: &mut AddressSpace,
        payload: Addr,
        size: u64,
        site: AllocSite,
        type_tag: TypeTag,
    ) -> SimResult<Addr> {
        let payload_size = Self::round_up(size.max(1), CHUNK_ALIGN);
        let header_off = payload
            .0
            .checked_sub(self.header_size())
            .and_then(|h| h.checked_sub(self.heap_base.0))
            .ok_or(SimError::InvalidArgument("placement below heap base".into()))?;
        let total = self.header_size() + payload_size;
        if header_off + total > self.heap_size {
            return Err(SimError::OutOfMemory { requested: size });
        }
        // The placement must not overlap any live chunk.
        for (&live_payload, &live_total) in &self.live {
            let live_start = live_payload - self.header_size();
            let live_end = live_start + live_total;
            let start = self.heap_base.0 + header_off;
            let end = start + total;
            if start < live_end && live_start < end {
                return Err(SimError::MappingOverlap { base: Addr(start), size: total });
            }
        }
        // Remove any free-list entries that the placement swallows.
        let overlapping: Vec<u64> = self
            .free_chunks
            .iter()
            .filter(|(&off, &sz)| off < header_off + total && header_off < off + sz)
            .map(|(&off, _)| off)
            .collect();
        for off in overlapping {
            self.free_chunks.remove(&off);
        }
        if header_off + total > self.frontier {
            self.frontier = header_off + total;
        }

        let header = self.heap_base.offset(header_off);
        let mut fl = flags::IN_USE;
        if self.startup_phase {
            fl |= flags::STARTUP;
        }
        if self.instrumented {
            fl |= flags::INSTRUMENTED;
        }
        space.write_u64(header, payload_size)?;
        space.write_u64(header.offset(8), fl)?;
        if self.instrumented {
            space.write_u64(header.offset(16), site.0)?;
            space.write_u64(header.offset(24), type_tag.0)?;
            self.stats.instr_writes += 2;
        }
        self.live.insert(payload.0, total);
        self.stats.allocs += 1;
        self.stats.live_bytes += payload_size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        self.stats.metadata_bytes += self.header_size();
        Ok(payload)
    }

    /// Looks up the live chunk containing `addr` (interior pointers allowed).
    pub fn chunk_containing(&self, space: &AddressSpace, addr: Addr) -> Option<ChunkInfo> {
        let (&payload, &total) = self.live.range(..=addr.0).next_back()?;
        // Most misses (the gap behind the nearest chunk below) are decided by
        // the recorded chunk size, without reading the header.
        if addr.0 >= payload + (total - self.header_size()) {
            return None;
        }
        let info = self.chunk_info(space, Addr(payload)).ok()?;
        (addr.0 < payload + info.size).then_some(info)
    }

    /// Reads back the in-band metadata of the chunk whose payload is `payload`.
    pub fn chunk_info(&self, space: &AddressSpace, payload: Addr) -> SimResult<ChunkInfo> {
        // One read of the whole header; an uninstrumented allocator's header
        // has no site and tag words.
        let mut header = [0u8; HEADER_INSTR as usize];
        let header = &mut header[..self.header_size() as usize];
        space.read_into(Addr(payload.0 - self.header_size()), header)?;
        let word = |i: usize| u64::from_le_bytes(header[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let (size, fl) = (word(0), word(1));
        let (site, type_tag) = if self.instrumented && fl & flags::INSTRUMENTED != 0 {
            (AllocSite(word(2)), TypeTag(word(3)))
        } else {
            (AllocSite(0), TypeTag(0))
        };
        Ok(ChunkInfo {
            payload,
            size,
            site,
            type_tag,
            startup: fl & flags::STARTUP != 0,
            in_use: fl & flags::IN_USE != 0,
        })
    }

    /// Iterates over all live chunks in address order.
    pub fn live_chunks<'a>(&'a self, space: &'a AddressSpace) -> impl Iterator<Item = ChunkInfo> + 'a {
        self.live.keys().filter_map(move |&p| self.chunk_info(space, Addr(p)).ok())
    }

    /// Number of live chunks.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// True if `payload` is the start of a live chunk.
    pub fn is_live(&self, payload: Addr) -> bool {
        self.live.contains_key(&payload.0)
    }
}

// ---------------------------------------------------------------------------
// Region (pool) allocator
// ---------------------------------------------------------------------------

/// Handle to a region/pool created by a [`RegionAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u64);

#[derive(Debug, Clone)]
struct Pool {
    storage: Addr,
    size: u64,
    used: u64,
    parent: Option<PoolId>,
    /// Objects carved from this pool (payload address, size, site, tag), in
    /// address order because `palloc` bumps upward; populated only when the
    /// region allocator is instrumented.
    objects: Vec<(Addr, u64, AllocSite, TypeTag)>,
}

/// A region ("pool") allocator in the style of nginx pools / APR pools.
///
/// Pools obtain their backing storage from the process heap via [`PtMalloc`]
/// and then bump-allocate objects inside it. Without instrumentation the heap
/// allocator only sees one big opaque chunk per pool, which is exactly the
/// situation that forces MCR's conservative tracing. With instrumentation
/// (the `nginxreg` configuration of the paper) every carved object is
/// registered with its allocation site and type tag, at a measurable cost.
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    pools: BTreeMap<u64, Pool>,
    /// Storage base → pool id. Pools own disjoint heap chunks, so the pool
    /// holding an address is the one with the nearest storage base below it.
    by_storage: BTreeMap<u64, u64>,
    next_pool: u64,
    instrumented: bool,
    stats: AllocStats,
}

impl RegionAllocator {
    /// Creates an empty region allocator.
    pub fn new(instrumented: bool) -> Self {
        RegionAllocator {
            pools: BTreeMap::new(),
            by_storage: BTreeMap::new(),
            next_pool: 1,
            instrumented,
            stats: AllocStats::default(),
        }
    }

    /// Current allocation statistics.
    pub(crate) fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Creates a pool of `size` bytes, optionally as a child of `parent`
    /// (child pools model Apache httpd's nested APR pools).
    pub fn create_pool(
        &mut self,
        space: &mut AddressSpace,
        heap: &mut PtMalloc,
        size: u64,
        parent: Option<PoolId>,
    ) -> SimResult<PoolId> {
        let storage = heap.malloc(space, size, AllocSite(0), TypeTag(0))?;
        let id = PoolId(self.next_pool);
        self.next_pool += 1;
        self.pools.insert(id.0, Pool { storage, size, used: 0, parent, objects: Vec::new() });
        self.by_storage.insert(storage.0, id.0);
        Ok(id)
    }

    /// Bump-allocates `size` bytes from `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the pool is exhausted and
    /// [`SimError::InvalidArgument`] for an unknown pool.
    pub fn palloc(
        &mut self,
        space: &mut AddressSpace,
        pool: PoolId,
        size: u64,
        site: AllocSite,
        type_tag: TypeTag,
    ) -> SimResult<Addr> {
        let instrumented = self.instrumented;
        let p =
            self.pools.get_mut(&pool.0).ok_or(SimError::InvalidArgument(format!("unknown pool {pool:?}")))?;
        let aligned = size.max(1).div_ceil(8) * 8;
        let extra = if instrumented { 16 } else { 0 };
        if p.used + aligned + extra > p.size {
            return Err(SimError::OutOfMemory { requested: size });
        }
        let mut obj = p.storage.offset(p.used);
        if instrumented {
            // In-band per-object record maintained by the instrumented
            // allocator wrappers: [site, type_tag] immediately before the
            // object.
            space.write_u64(obj, site.0)?;
            space.write_u64(obj.offset(8), type_tag.0)?;
            obj = obj.offset(16);
            self.stats.instr_writes += 2;
            self.stats.metadata_bytes += 16;
        }
        p.used += aligned + extra;
        if instrumented {
            p.objects.push((obj, aligned, site, type_tag));
        }
        self.stats.allocs += 1;
        self.stats.live_bytes += aligned;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        Ok(obj)
    }

    /// Destroys a pool and (recursively) its child pools, releasing the
    /// backing storage to the heap allocator.
    pub fn destroy_pool(
        &mut self,
        space: &mut AddressSpace,
        heap: &mut PtMalloc,
        pool: PoolId,
    ) -> SimResult<()> {
        let children: Vec<PoolId> =
            self.pools.iter().filter(|(_, p)| p.parent == Some(pool)).map(|(&id, _)| PoolId(id)).collect();
        for child in children {
            self.destroy_pool(space, heap, child)?;
        }
        let p =
            self.pools.remove(&pool.0).ok_or(SimError::InvalidArgument(format!("unknown pool {pool:?}")))?;
        self.by_storage.remove(&p.storage.0);
        let carved: u64 = p.objects.iter().map(|(_, sz, _, _)| *sz).sum();
        self.stats.live_bytes =
            self.stats.live_bytes.saturating_sub(if self.instrumented { carved } else { p.used });
        self.stats.frees += 1;
        heap.free(space, p.storage)?;
        Ok(())
    }

    fn pool_holding(&self, addr: Addr) -> Option<(PoolId, &Pool)> {
        let (_, &id) = self.by_storage.range(..=addr.0).next_back()?;
        let pool = &self.pools[&id];
        (addr.0 < pool.storage.0 + pool.size).then_some((PoolId(id), pool))
    }

    /// Looks up the instrumented object record containing `addr`.
    pub fn object_containing(&self, addr: Addr) -> Option<(Addr, u64, AllocSite, TypeTag)> {
        let (_, pool) = self.pool_holding(addr)?;
        let below = pool.objects.partition_point(|&(obj, ..)| obj.0 <= addr.0);
        let &(obj, size, site, tag) = pool.objects.get(below.checked_sub(1)?)?;
        (addr.0 < obj.0 + size).then_some((obj, size, site, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{RegionKind, PAGE_SIZE};

    const HEAP_BASE: u64 = 0x0900_0000;
    const HEAP_SIZE: u64 = 256 * PAGE_SIZE;

    fn setup(instrumented: bool) -> (AddressSpace, PtMalloc) {
        let mut space = AddressSpace::new();
        space.map_region(Addr(HEAP_BASE), HEAP_SIZE, RegionKind::Heap, "heap").unwrap();
        (space, PtMalloc::new(Addr(HEAP_BASE), HEAP_SIZE, instrumented))
    }

    /// A slab allocator handing out fixed-size slots from one backing chunk.
    #[derive(Debug, Clone)]
    struct SlabAllocator {
        storage: Addr,
        slot_size: u64,
        slots: usize,
        used: Vec<bool>,
    }

    impl SlabAllocator {
        /// Creates a slab of `slots` slots of `slot_size` bytes each, backed by a
        /// fresh heap chunk.
        fn new(
            space: &mut AddressSpace,
            heap: &mut PtMalloc,
            slot_size: u64,
            slots: usize,
        ) -> SimResult<Self> {
            let slot_size = slot_size.max(8).div_ceil(8) * 8;
            let storage = heap.malloc(space, slot_size * slots as u64, AllocSite(0), TypeTag(0))?;
            Ok(SlabAllocator { storage, slot_size, slots, used: vec![false; slots] })
        }

        /// Allocates one slot.
        ///
        /// # Errors
        ///
        /// Returns [`SimError::OutOfMemory`] when every slot is in use.
        fn alloc(&mut self) -> SimResult<Addr> {
            for (i, used) in self.used.iter_mut().enumerate() {
                if !*used {
                    *used = true;
                    return Ok(self.storage.offset(i as u64 * self.slot_size));
                }
            }
            Err(SimError::OutOfMemory { requested: self.slot_size })
        }

        /// Frees a slot previously returned by [`SlabAllocator::alloc`].
        ///
        /// # Errors
        ///
        /// Returns [`SimError::InvalidFree`] for an address that is not a slot
        /// base or whose slot is already free.
        fn free(&mut self, addr: Addr) -> SimResult<()> {
            let off = addr.0.checked_sub(self.storage.0).ok_or(SimError::InvalidFree(addr))?;
            if off % self.slot_size != 0 {
                return Err(SimError::InvalidFree(addr));
            }
            let idx = (off / self.slot_size) as usize;
            if idx >= self.slots || !self.used[idx] {
                return Err(SimError::InvalidFree(addr));
            }
            self.used[idx] = false;
            Ok(())
        }

        /// Number of slots currently in use.
        fn used_count(&self) -> usize {
            self.used.iter().filter(|u| **u).count()
        }
    }

    #[test]
    fn malloc_returns_aligned_nonoverlapping_chunks() {
        let (mut space, mut heap) = setup(false);
        let a = heap.malloc(&mut space, 24, AllocSite(1), TypeTag(1)).unwrap();
        let b = heap.malloc(&mut space, 100, AllocSite(2), TypeTag(2)).unwrap();
        assert!(a.is_aligned(CHUNK_ALIGN));
        assert!(b.is_aligned(CHUNK_ALIGN));
        assert!(b.0 >= a.0 + 24);
        assert_eq!(heap.live_count(), 2);
    }

    #[test]
    fn instrumented_header_carries_tags() {
        let (mut space, mut heap) = setup(true);
        let a = heap.malloc(&mut space, 64, AllocSite(7), TypeTag(42)).unwrap();
        let info = heap.chunk_info(&space, a).unwrap();
        assert_eq!(info.site, AllocSite(7));
        assert_eq!(info.type_tag, TypeTag(42));
        assert!(info.startup);
        assert!(info.in_use);
        assert!(heap.stats().instr_writes >= 2);
    }

    #[test]
    fn uninstrumented_header_has_no_tags() {
        let (mut space, mut heap) = setup(false);
        let a = heap.malloc(&mut space, 64, AllocSite(7), TypeTag(42)).unwrap();
        let info = heap.chunk_info(&space, a).unwrap();
        assert_eq!(info.site, AllocSite(0));
        assert_eq!(info.type_tag, TypeTag(0));
    }

    #[test]
    fn free_and_reuse() {
        let (mut space, mut heap) = setup(false);
        heap.end_startup();
        let a = heap.malloc(&mut space, 64, AllocSite(1), TypeTag(0)).unwrap();
        heap.free(&mut space, a).unwrap();
        assert!(!heap.is_live(a));
        let b = heap.malloc(&mut space, 64, AllocSite(2), TypeTag(0)).unwrap();
        assert_eq!(a, b, "freed chunk should be reused first-fit");
        assert!(matches!(heap.free(&mut space, Addr(0x1)), Err(SimError::InvalidFree(_))));
    }

    #[test]
    fn deferred_free_prevents_startup_reuse() {
        let (mut space, mut heap) = setup(false);
        heap.set_defer_free(true);
        let a = heap.malloc(&mut space, 64, AllocSite(1), TypeTag(0)).unwrap();
        heap.free(&mut space, a).unwrap();
        // Still live: the free was deferred.
        assert!(heap.is_live(a));
        let b = heap.malloc(&mut space, 64, AllocSite(2), TypeTag(0)).unwrap();
        assert_ne!(a, b, "deferred free must prevent startup-time address reuse");
        heap.end_startup();
        let n = heap.flush_deferred(&mut space).unwrap();
        assert_eq!(n, 1);
        assert!(!heap.is_live(a));
    }

    #[test]
    fn startup_flag_follows_phase() {
        let (mut space, mut heap) = setup(true);
        let a = heap.malloc(&mut space, 8, AllocSite(1), TypeTag(1)).unwrap();
        heap.end_startup();
        let b = heap.malloc(&mut space, 8, AllocSite(1), TypeTag(1)).unwrap();
        assert!(heap.chunk_info(&space, a).unwrap().startup);
        assert!(!heap.chunk_info(&space, b).unwrap().startup);
    }

    #[test]
    fn malloc_at_places_chunk_exactly() {
        let (mut space, mut heap) = setup(true);
        let target = Addr(HEAP_BASE + 0x4000 + HEADER_INSTR);
        let got = heap.malloc_at(&mut space, target, 128, AllocSite(3), TypeTag(9)).unwrap();
        assert_eq!(got, target);
        let info = heap.chunk_info(&space, got).unwrap();
        assert_eq!(info.type_tag, TypeTag(9));
        // Subsequent bump allocations skip past the placed chunk.
        let next = heap.malloc(&mut space, 64, AllocSite(4), TypeTag(0)).unwrap();
        assert!(next.0 > target.0);
        // Overlapping placement is rejected.
        assert!(heap.malloc_at(&mut space, target.offset(16), 64, AllocSite(5), TypeTag(0)).is_err());
    }

    #[test]
    fn chunk_containing_handles_interior_pointers() {
        let (mut space, mut heap) = setup(true);
        let a = heap.malloc(&mut space, 256, AllocSite(1), TypeTag(5)).unwrap();
        let inner = heap.chunk_containing(&space, a.offset(100)).unwrap();
        assert_eq!(inner.payload, a);
        assert!(heap.chunk_containing(&space, a.offset(4096)).is_none());
    }

    #[test]
    fn out_of_memory_reported() {
        let mut space = AddressSpace::new();
        space.map_region(Addr(HEAP_BASE), PAGE_SIZE, RegionKind::Heap, "heap").unwrap();
        let mut heap = PtMalloc::new(Addr(HEAP_BASE), PAGE_SIZE, false);
        assert!(heap.malloc(&mut space, 2 * PAGE_SIZE, AllocSite(0), TypeTag(0)).is_err());
    }

    #[test]
    fn region_allocator_basic() {
        let (mut space, mut heap) = setup(false);
        let mut regions = RegionAllocator::new(false);
        let pool = regions.create_pool(&mut space, &mut heap, 4096, None).unwrap();
        let a = regions.palloc(&mut space, pool, 100, AllocSite(1), TypeTag(1)).unwrap();
        let b = regions.palloc(&mut space, pool, 100, AllocSite(1), TypeTag(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(regions.pool_holding(a).map(|(id, _)| id), Some(pool));
        assert!(regions.object_containing(a).is_none(), "uninstrumented pools are opaque");
        regions.destroy_pool(&mut space, &mut heap, pool).unwrap();
        assert_eq!(regions.pools.len(), 0);
    }

    #[test]
    fn instrumented_region_allocator_tracks_objects() {
        let (mut space, mut heap) = setup(true);
        let mut regions = RegionAllocator::new(true);
        let pool = regions.create_pool(&mut space, &mut heap, 4096, None).unwrap();
        let a = regions.palloc(&mut space, pool, 48, AllocSite(11), TypeTag(4)).unwrap();
        let (obj, size, site, tag) = regions.object_containing(a.offset(8)).unwrap();
        assert_eq!(obj, a);
        assert_eq!(size, 48);
        assert_eq!(site, AllocSite(11));
        assert_eq!(tag, TypeTag(4));
        assert!(regions.stats().instr_writes >= 2);
    }

    /// The lookups the index replaced, kept as the reference: every pool,
    /// every object, first hit.
    fn pool_containing_linear(regions: &RegionAllocator, addr: Addr) -> Option<PoolId> {
        regions
            .pools
            .iter()
            .find(|(_, p)| addr.0 >= p.storage.0 && addr.0 < p.storage.0 + p.size)
            .map(|(&id, _)| PoolId(id))
    }

    fn object_containing_linear(
        regions: &RegionAllocator,
        addr: Addr,
    ) -> Option<(Addr, u64, AllocSite, TypeTag)> {
        regions
            .pools
            .values()
            .flat_map(|p| p.objects.iter().copied())
            .find(|&(obj, size, ..)| addr.0 >= obj.0 && addr.0 < obj.0 + size)
    }

    /// Seeded create / palloc / destroy traffic over nested pools (destroyed
    /// storage is reused by later pools): after every step the indexed
    /// lookups agree with the linear reference on object bases, interiors,
    /// ends, in-band records, pool slack and addresses outside every pool.
    #[test]
    fn indexed_pool_lookups_match_the_linear_scan() {
        for instrumented in [true, false] {
            let (mut space, mut heap) = setup(instrumented);
            heap.end_startup();
            let mut regions = RegionAllocator::new(instrumented);
            let mut seed = 0x5eed_u64 + u64::from(instrumented);
            let mut next = |bound: u64| {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (seed >> 33) % bound
            };
            let mut live: Vec<PoolId> = Vec::new();
            let mut hits = 0;
            for step in 0..400u64 {
                match next(10) {
                    0 | 1 if live.len() < 12 => {
                        let parent = (!live.is_empty() && next(2) == 0)
                            .then(|| live[next(live.len() as u64) as usize]);
                        let size = 256 + 64 * next(24);
                        live.push(regions.create_pool(&mut space, &mut heap, size, parent).unwrap());
                    }
                    2 if !live.is_empty() => {
                        let victim = live[next(live.len() as u64) as usize];
                        regions.destroy_pool(&mut space, &mut heap, victim).unwrap();
                        live.retain(|p| regions.pools.contains_key(&p.0));
                    }
                    _ if !live.is_empty() => {
                        let pool = live[next(live.len() as u64) as usize];
                        let _ =
                            regions.palloc(&mut space, pool, 1 + next(90), AllocSite(step), TypeTag(step));
                    }
                    _ => {}
                }
                let mut probes = vec![Addr(HEAP_BASE - 8), Addr(HEAP_BASE), Addr(HEAP_BASE + HEAP_SIZE)];
                for &pool in &live {
                    let Pool { storage, size, .. } = regions.pools[&pool.0];
                    probes.extend([
                        storage,
                        Addr(storage.0 - 1),
                        storage.offset(size - 1),
                        storage.offset(size),
                    ]);
                    probes.push(storage.offset(next(size + 64)));
                }
                for (obj, size, ..) in
                    regions.pools.values().flat_map(|p| p.objects.clone()).collect::<Vec<_>>()
                {
                    probes.extend([obj, Addr(obj.0 - 1), obj.offset(size - 1), obj.offset(size)]);
                }
                for addr in probes {
                    assert_eq!(
                        regions.pool_holding(addr).map(|(id, _)| id),
                        pool_containing_linear(&regions, addr),
                        "{addr}"
                    );
                    let found = regions.object_containing(addr);
                    assert_eq!(found, object_containing_linear(&regions, addr), "{addr}");
                    hits += usize::from(found.is_some());
                }
            }
            assert_eq!(regions.by_storage.len(), regions.pools.len());
            assert_eq!(hits > 0, instrumented, "only instrumented pools record objects");
        }
    }

    #[test]
    fn nested_pools_destroyed_recursively() {
        let (mut space, mut heap) = setup(false);
        let mut regions = RegionAllocator::new(false);
        let parent = regions.create_pool(&mut space, &mut heap, 2048, None).unwrap();
        let _child = regions.create_pool(&mut space, &mut heap, 1024, Some(parent)).unwrap();
        assert_eq!(regions.pools.len(), 2);
        regions.destroy_pool(&mut space, &mut heap, parent).unwrap();
        assert_eq!(regions.pools.len(), 0);
    }

    #[test]
    fn pool_exhaustion() {
        let (mut space, mut heap) = setup(false);
        let mut regions = RegionAllocator::new(false);
        let pool = regions.create_pool(&mut space, &mut heap, 64, None).unwrap();
        assert!(regions.palloc(&mut space, pool, 128, AllocSite(0), TypeTag(0)).is_err());
    }

    #[test]
    fn slab_allocator_roundtrip() {
        let (mut space, mut heap) = setup(false);
        let mut slab = SlabAllocator::new(&mut space, &mut heap, 32, 4).unwrap();
        let a = slab.alloc().unwrap();
        let b = slab.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(slab.used_count(), 2);
        slab.free(a).unwrap();
        assert_eq!(slab.used_count(), 1);
        let c = slab.alloc().unwrap();
        assert_eq!(a, c, "freed slot is reused");
        assert!(slab.free(Addr(1)).is_err());
        assert!(slab.free(b.offset(1)).is_err());
    }

    #[test]
    fn slab_exhaustion() {
        let (mut space, mut heap) = setup(false);
        let mut slab = SlabAllocator::new(&mut space, &mut heap, 16, 2).unwrap();
        slab.alloc().unwrap();
        slab.alloc().unwrap();
        assert!(slab.alloc().is_err());
    }
}
