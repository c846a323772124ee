//! Simulated 64-bit virtual address spaces with soft-dirty page tracking.
//!
//! Each simulated process owns an [`AddressSpace`]: a set of non-overlapping
//! [`MemoryRegion`]s (static data, heap, stacks, memory mappings, shared
//! libraries). Every region tracks per-page *soft-dirty* state exactly like
//! the Linux `/proc/pid/pagemap` facility used by the paper: the state is
//! cleared once (after program startup) and the first write into a page
//! afterwards marks it dirty. Mutable tracing later uses the dirty state to
//! restrict state transfer to objects modified after startup.
//!
//! # Access traps (the post-copy fault barrier)
//!
//! Post-copy state transfer commits the new program version *before* its
//! state has arrived and pulls stale objects in on demand. The mechanism
//! here mirrors `userfaultfd`-style page protection: the update runtime arms
//! per-page protection stamps over the not-yet-transferred ranges
//! ([`AddressSpace::protect_range`]), and a store that hits a protected page
//! does not land — it is parked in a pending-trap buffer
//! ([`AddressSpace::take_pending_traps`]) exactly as a faulting thread would
//! block on the missing page. The fault handler (the drainer in
//! `mcr-core`) transfers the object, removes the protection
//! ([`AddressSpace::unprotect_range`]) and replays the parked store, so the
//! final bytes are written in the same order as a stop-the-world transfer:
//! quiesce-time content first, post-commit stores second. Loads are not
//! intercepted (the simulator's workloads are store-driven).
//!
//! # Write epochs (the pre-copy write barrier)
//!
//! Instead of a boolean per page, each page stores the address space's
//! *write epoch* at the time of its last store (`0` = clean since the last
//! [`AddressSpace::clear_soft_dirty`]). The iterative pre-copy phase of a
//! live update bumps the epoch once per copy round
//! ([`AddressSpace::advance_write_epoch`]) and then asks only for the pages
//! written since a previous round ([`AddressSpace::drain_dirty_since`],
//! [`AddressSpace::range_dirty_epoch`]), which is what lets it re-copy only
//! the working set dirtied while the old version kept serving. The classic
//! "dirty since startup" queries are the `since == 0` special case, so the
//! stop-the-world paths are unchanged.
//!
//! # Demand-zero pages and copy-on-write fork
//!
//! A region does not own a dense byte array. It owns a page table with one
//! slot per page, and a slot is either *absent* or holds a reference-counted
//! 4 KiB page. This is the simulator's version of the two Linux properties
//! the paper's multiprocess servers rely on:
//!
//! * **Demand-zero mapping.** [`AddressSpace::map_region`] allocates the
//!   page table and the per-page stamps only. An absent page reads as zeros;
//!   the first store into it materialises it (zero-filled, then written).
//!   A [`AddressSpace::copy_range`] whose source page is absent writes zeros
//!   onto a resident destination page and leaves an absent one absent.
//! * **Copy-on-write fork.** Cloning an [`AddressSpace`] (which is all
//!   `fork` does to memory) clones the page tables, so parent and child
//!   share every resident page. A store goes through [`Arc::make_mut`]: the
//!   writer gets a private copy of exactly the page it touches, the other
//!   side keeps the original, and an unshared page is written in place.
//!   Pages are `Arc`, not `Rc`, because the sharded tracer and the transfer
//!   prepare workers read address spaces from scoped threads.
//!
//! Only the host-side cost changes. Bytes read, bounds checks (against the
//! region's `size`, not its page-rounded size), the per-page dirty and
//! protection stamps, `write_count`, parked traps and simulated time are
//! kept per region and per page table slot exactly as before, independent of
//! whether the slot's page is resident — a freshly mapped region is still
//! all-dirty, and [`AddressSpace::mapped_bytes`] still counts mapped, not
//! materialised, bytes ([`AddressSpace::resident_pages`] is the host-side
//! number). The bytes of a partial last page that lie beyond `size` are
//! never addressable and stay zero.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{SimError, SimResult};

/// Size of a simulated memory page in bytes (matches Linux x86).
pub const PAGE_SIZE: u64 = 4096;

const PAGE_BYTES: usize = PAGE_SIZE as usize;

type Page = [u8; PAGE_BYTES];

/// A simulated virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The null address.
    pub const NULL: Addr = Addr(0);

    /// Returns the address advanced by `off` bytes.
    #[must_use]
    pub fn offset(self, off: u64) -> Addr {
        Addr(self.0 + off)
    }

    /// Returns the address of the page containing this address.
    #[must_use]
    pub fn page_base(self) -> Addr {
        Addr(self.0 & !(PAGE_SIZE - 1))
    }

    /// True if this address is aligned to `align` bytes.
    pub fn is_aligned(self, align: u64) -> bool {
        align != 0 && self.0.is_multiple_of(align)
    }

    /// True if this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// The kind of a memory region; mutable tracing treats the kinds differently
/// (static objects are matched by symbol, heap objects by allocation site,
/// library regions are not traced by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Global/static program data (`.data`/`.bss`); one region per program.
    Static,
    /// The program heap managed by a simulated allocator.
    Heap,
    /// A thread stack.
    Stack,
    /// An anonymous or file-backed memory mapping (`mmap`).
    Mmap,
    /// A (possibly uninstrumented) shared library's data segment.
    Lib,
}

impl RegionKind {
    /// Short label used in reports and tracing statistics.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RegionKind::Static => "static",
            RegionKind::Heap => "heap",
            RegionKind::Stack => "stack",
            RegionKind::Mmap => "mmap",
            RegionKind::Lib => "lib",
        }
    }
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A contiguous mapped range of the simulated address space.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    base: Addr,
    size: u64,
    kind: RegionKind,
    name: String,
    writable: bool,
    /// One slot per page: `None` is a never-written page that reads as
    /// zeros; a resident page is shared with every clone of the region until
    /// one side stores into it.
    pages: Vec<Option<Arc<Page>>>,
    /// Per-page dirty stamp: the address space's write epoch at the page's
    /// last store, `0` when the page is clean since the last
    /// `clear_soft_dirty`.
    dirty_epoch: Vec<u64>,
    /// Per-page post-copy protection stamp: `true` while the page's content
    /// has not been transferred yet and any store must trap.
    protected: Vec<bool>,
    /// Total number of write syscalls/stores into the region (instrumentation
    /// statistics, not part of the paper's kernel interface).
    write_count: u64,
}

impl MemoryRegion {
    fn new(
        base: Addr,
        size: u64,
        kind: RegionKind,
        name: impl Into<String>,
        writable: bool,
        epoch: u64,
    ) -> Self {
        let pages = size.div_ceil(PAGE_SIZE) as usize;
        MemoryRegion {
            base,
            size,
            kind,
            name: name.into(),
            writable,
            pages: vec![None; pages],
            // Freshly mapped pages are dirty: they were just created.
            dirty_epoch: vec![epoch; pages],
            protected: vec![false; pages],
            write_count: 0,
        }
    }

    /// Base address of the region.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size of the region in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// End address (exclusive).
    pub fn end(&self) -> Addr {
        Addr(self.base.0 + self.size)
    }

    /// Kind of the region.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// Human-readable name (e.g. `"heap"`, `"lib:libssl"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether writes are permitted.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// Whether the address lies inside the region.
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.size
    }

    /// Number of pages spanned by the region.
    pub fn page_count(&self) -> usize {
        self.dirty_epoch.len()
    }

    /// Whether the page containing `addr` is soft-dirty (written since the
    /// last `clear_soft_dirty`).
    pub(crate) fn page_is_dirty(&self, addr: Addr) -> bool {
        self.page_dirty_epoch(addr) != 0
    }

    /// The dirty stamp of the page containing `addr` (`0` when clean).
    pub fn page_dirty_epoch(&self, addr: Addr) -> u64 {
        let idx = ((addr.0 - self.base.0) / PAGE_SIZE) as usize;
        self.dirty_epoch.get(idx).copied().unwrap_or(0)
    }

    /// Number of dirty pages in the region.
    pub(crate) fn dirty_page_count(&self) -> usize {
        self.dirty_page_count_since(0)
    }

    /// Number of pages whose dirty stamp exceeds `since`.
    pub(crate) fn dirty_page_count_since(&self, since: u64) -> usize {
        self.dirty_epoch.iter().filter(|&&e| e > since).count()
    }

    /// Total stores observed in this region.
    pub fn write_count(&self) -> u64 {
        self.write_count
    }

    /// Whether the page containing `addr` is post-copy protected.
    pub fn page_is_protected(&self, addr: Addr) -> bool {
        let idx = ((addr.0 - self.base.0) / PAGE_SIZE) as usize;
        self.protected.get(idx).copied().unwrap_or(false)
    }

    fn page_span(&self, addr: Addr, len: u64) -> std::ops::RangeInclusive<usize> {
        let start = ((addr.0 - self.base.0) / PAGE_SIZE) as usize;
        let end = ((addr.0 - self.base.0 + len.max(1) - 1) / PAGE_SIZE) as usize;
        start..=end.min(self.protected.len().saturating_sub(1))
    }

    fn set_protected(&mut self, addr: Addr, len: u64, value: bool) -> isize {
        let mut delta = 0isize;
        for page in self.page_span(addr, len) {
            if self.protected[page] != value {
                delta += if value { 1 } else { -1 };
                self.protected[page] = value;
            }
        }
        delta
    }

    fn span_is_protected(&self, addr: Addr, len: u64) -> bool {
        self.page_span(addr, len).any(|page| self.protected[page])
    }

    /// Books one store of `len` bytes at `off`: stamps every touched page
    /// (a zero-length store still stamps its page) and counts the store.
    fn stamp_store(&mut self, off: usize, len: usize, epoch: u64) {
        let end = (off + len.max(1) - 1) / PAGE_BYTES;
        for page in off / PAGE_BYTES..=end.min(self.dirty_epoch.len().saturating_sub(1)) {
            self.dirty_epoch[page] = epoch;
        }
        self.write_count += 1;
    }

    fn clear_soft_dirty(&mut self) {
        for stamp in &mut self.dirty_epoch {
            *stamp = 0;
        }
    }

    /// Visits the region's pages in address order: `None` for a page that
    /// was never written (it reads as zeros), the page's bytes otherwise.
    /// Whole-region consumers (fingerprints, checkpoint capture) use this to
    /// cost what is resident instead of what is mapped. The bytes of a
    /// partial last page beyond [`MemoryRegion::size`] are zero.
    pub fn pages(&self) -> impl Iterator<Item = Option<&[u8; PAGE_SIZE as usize]>> + '_ {
        self.pages.iter().map(|page| page.as_deref())
    }

    /// Number of pages that have been materialised by a store — the
    /// host-side memory the region actually occupies (shared pages count
    /// once per region that references them).
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Byte offset of `addr` inside the region, once `[addr, addr + len)` is
    /// known to end within `size` (not the page-rounded size).
    fn offset_of(&self, addr: Addr, len: usize) -> SimResult<usize> {
        let off = (addr.0 - self.base.0) as usize;
        if off + len > self.size as usize {
            return Err(SimError::OutOfBounds { addr, len });
        }
        Ok(off)
    }

    /// The page at `idx`, private to this region and writable: materialised
    /// if absent, copied if a clone of the region still shares it.
    fn page_mut(&mut self, idx: usize) -> &mut Page {
        Arc::make_mut(self.pages[idx].get_or_insert_with(|| Arc::new([0; PAGE_BYTES])))
    }

    /// Reads `buf.len()` bytes starting at `addr`, which must lie in this
    /// region — [`AddressSpace::read_into`] for a caller that already holds
    /// the region.
    ///
    /// # Errors
    ///
    /// Fails if the range crosses the end of the region.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) -> SimResult<()> {
        let off = self.offset_of(addr, buf.len())?;
        self.load(off, buf);
        Ok(())
    }

    fn load(&self, off: usize, buf: &mut [u8]) {
        for chunk in page_chunks(off, buf.len()) {
            let out = &mut buf[chunk.done..chunk.done + chunk.len];
            match &self.pages[chunk.page] {
                Some(page) => out.copy_from_slice(&page[chunk.at..chunk.at + chunk.len]),
                None => out.fill(0),
            }
        }
    }

    /// Lands `bytes` at `off`, stamps the touched pages and counts the store
    /// (a zero-length store stamps its page without materialising it).
    fn store(&mut self, off: usize, bytes: &[u8], epoch: u64) {
        for chunk in page_chunks(off, bytes.len()) {
            self.page_mut(chunk.page)[chunk.at..chunk.at + chunk.len]
                .copy_from_slice(&bytes[chunk.done..chunk.done + chunk.len]);
        }
        self.stamp_store(off, bytes.len(), epoch);
    }

    fn fill(&mut self, off: usize, len: usize, value: u8, epoch: u64) {
        for chunk in page_chunks(off, len) {
            self.page_mut(chunk.page)[chunk.at..chunk.at + chunk.len].fill(value);
        }
        self.stamp_store(off, len, epoch);
    }

    /// Copies `len` bytes from `src` at `src_off` to `off`. A chunk ends at
    /// the next page boundary of either side. An absent source page is
    /// zeros: it clears a resident destination page and leaves an absent one
    /// absent.
    fn copy_from(&mut self, off: usize, src: &MemoryRegion, src_off: usize, len: usize, epoch: u64) {
        let mut done = 0;
        while done < len {
            let (from, to) = ((src_off + done) % PAGE_BYTES, (off + done) % PAGE_BYTES);
            let n = (len - done).min(PAGE_BYTES - from).min(PAGE_BYTES - to);
            let dst_page = (off + done) / PAGE_BYTES;
            match &src.pages[(src_off + done) / PAGE_BYTES] {
                Some(page) => self.page_mut(dst_page)[to..to + n].copy_from_slice(&page[from..from + n]),
                None if self.pages[dst_page].is_some() => self.page_mut(dst_page)[to..to + n].fill(0),
                None => {}
            }
            done += n;
        }
        self.stamp_store(off, len, epoch);
    }
}

/// One page's share of a byte range that was split at page boundaries.
struct PageChunk {
    /// Index of the page in the region's page table.
    page: usize,
    /// Offset of the chunk inside that page.
    at: usize,
    /// Bytes of the range that precede this chunk.
    done: usize,
    len: usize,
}

/// Splits the region-relative byte range `[off, off + len)` at page
/// boundaries. A range inside one page — every word access and most objects
/// — is a single chunk, so the first iteration is the accessors' fast path;
/// `len == 0` yields nothing.
fn page_chunks(off: usize, len: usize) -> impl Iterator<Item = PageChunk> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = (off + done) % PAGE_BYTES;
        let chunk =
            PageChunk { page: (off + done) / PAGE_BYTES, at, done, len: (len - done).min(PAGE_BYTES - at) };
        done += chunk.len;
        Some(chunk)
    })
}

/// A report of the dirty pages of one region, as collected at update time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRange {
    /// Base address of the dirty page run.
    pub base: Addr,
    /// Length of the run in bytes.
    pub len: u64,
    /// Kind of the containing region.
    pub kind: RegionKind,
}

/// A store that hit a post-copy protected page and is parked until the
/// fault handler transfers the page's content and replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTrap {
    /// Destination address of the parked store.
    pub addr: Addr,
    /// The bytes the store would have written.
    pub bytes: Vec<u8>,
}

/// A full simulated virtual address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    regions: BTreeMap<u64, MemoryRegion>,
    /// The stamp given to pages written from now on; bumped once per
    /// pre-copy round by [`AddressSpace::advance_write_epoch`].
    write_epoch: u64,
    /// Total protected pages across all regions (fast-path guard so the
    /// store barrier costs nothing while post-copy is not in progress).
    protected_pages: usize,
    /// Stores parked by the access-trap barrier, in program order.
    pending_traps: Vec<PendingTrap>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace {
            regions: BTreeMap::new(),
            write_epoch: 1,
            protected_pages: 0,
            pending_traps: Vec::new(),
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a new region at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MappingOverlap`] if the range overlaps an existing
    /// region and [`SimError::InvalidArgument`] for a zero-sized mapping.
    pub fn map_region(
        &mut self,
        base: Addr,
        size: u64,
        kind: RegionKind,
        name: impl Into<String>,
    ) -> SimResult<()> {
        self.map_region_with_perms(base, size, kind, name, true)
    }

    /// Maps a new region with explicit writability.
    pub fn map_region_with_perms(
        &mut self,
        base: Addr,
        size: u64,
        kind: RegionKind,
        name: impl Into<String>,
        writable: bool,
    ) -> SimResult<()> {
        if size == 0 {
            return Err(SimError::InvalidArgument("zero-sized mapping".into()));
        }
        if self.overlaps(base, size) {
            return Err(SimError::MappingOverlap { base, size });
        }
        self.regions.insert(base.0, MemoryRegion::new(base, size, kind, name, writable, self.write_epoch));
        Ok(())
    }

    /// Unmaps the region starting exactly at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] if no region starts at `base`.
    pub fn unmap_region(&mut self, base: Addr) -> SimResult<MemoryRegion> {
        self.regions.remove(&base.0).ok_or(SimError::UnmappedAddress(base))
    }

    fn overlaps(&self, base: Addr, size: u64) -> bool {
        let end = base.0 + size;
        self.regions.values().any(|r| base.0 < r.end().0 && r.base().0 < end)
    }

    /// Finds the region containing `addr`.
    pub fn region_containing(&self, addr: Addr) -> Option<&MemoryRegion> {
        self.regions.range(..=addr.0).next_back().map(|(_, r)| r).filter(|r| r.contains(addr))
    }

    fn region_containing_mut(&mut self, addr: Addr) -> Option<&mut MemoryRegion> {
        self.regions.range_mut(..=addr.0).next_back().map(|(_, r)| r).filter(|r| r.contains(addr))
    }

    /// Iterates over all mapped regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &MemoryRegion> {
        self.regions.values()
    }

    /// Total mapped bytes (a proxy for the resident set size of the process).
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.values().map(|r| r.size()).sum()
    }

    /// Pages materialised by a store, across all regions — what the space
    /// costs the host, as opposed to the simulated
    /// [`AddressSpace::mapped_bytes`]. A page shared with a forked copy is
    /// counted in both spaces.
    pub fn resident_pages(&self) -> usize {
        self.regions.values().map(|r| r.resident_pages()).sum()
    }

    /// True if an address is mapped.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.region_containing(addr).is_some()
    }

    /// True if `addr` is mapped and points at least `len` bytes inside a
    /// single region (the validity test used by conservative pointer
    /// scanning).
    pub fn is_valid_range(&self, addr: Addr, len: usize) -> bool {
        match self.region_containing(addr) {
            Some(r) => addr.0 + len as u64 <= r.end().0,
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Raw byte accessors
    // ------------------------------------------------------------------

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> SimResult<Vec<u8>> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }

    /// Reads `buf.len()` bytes starting at `addr` into a caller-provided
    /// buffer — the allocation-free sibling of [`AddressSpace::read_bytes`].
    /// The transfer engine's snapshot pass uses this with a reusable
    /// per-worker scratch buffer so tracing a big heap does not allocate one
    /// `Vec` per object.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) -> SimResult<()> {
        self.region_containing(addr).ok_or(SimError::UnmappedAddress(addr))?.read_into(addr, buf)
    }

    /// The writable region containing `[addr, addr + len)` and the range's
    /// offset in it — the checks every store path makes, in this order.
    fn store_target(&mut self, addr: Addr, len: usize) -> SimResult<(&mut MemoryRegion, usize)> {
        let region = self.region_containing_mut(addr).ok_or(SimError::UnmappedAddress(addr))?;
        if !region.is_writable() {
            return Err(SimError::ReadOnlyRegion(addr));
        }
        let off = region.offset_of(addr, len)?;
        Ok((region, off))
    }

    /// Copies `len` bytes from `src` (at `src_addr`) directly into this
    /// address space at `dst`: one region-to-region copy that stamps
    /// write-epochs once per touched page instead of routing every object
    /// through an intermediate `Vec`. This is the range-copy fast path the
    /// transfer engine uses for verbatim (untyped / non-updatable) objects.
    ///
    /// Like [`AddressSpace::write_bytes_through`], this is a transfer-engine
    /// store path and bypasses post-copy access traps.
    ///
    /// # Errors
    ///
    /// Fails if the source range is unmapped or out of bounds, or if the
    /// destination range is unmapped, read-only, or out of bounds.
    pub fn copy_range(&mut self, dst: Addr, src: &AddressSpace, src_addr: Addr, len: usize) -> SimResult<()> {
        let src_region = src.region_containing(src_addr).ok_or(SimError::UnmappedAddress(src_addr))?;
        let src_off = src_region.offset_of(src_addr, len)?;
        let epoch = self.write_epoch;
        let (region, off) = self.store_target(dst, len)?;
        region.copy_from(off, src_region, src_off, len, epoch);
        Ok(())
    }

    /// Whether a program store of `len` bytes at `addr` hits a post-copy
    /// protected page and must be parked instead of landing.
    fn store_traps(&self, addr: Addr, len: usize) -> SimResult<bool> {
        if self.protected_pages == 0 {
            return Ok(false);
        }
        let region = self.region_containing(addr).ok_or(SimError::UnmappedAddress(addr))?;
        if !region.is_writable() {
            return Err(SimError::ReadOnlyRegion(addr));
        }
        region.offset_of(addr, len)?;
        Ok(region.span_is_protected(addr, len.max(1) as u64))
    }

    fn park_store(&mut self, addr: Addr, bytes: Vec<u8>) {
        self.pending_traps.push(PendingTrap { addr, bytes });
    }

    /// Writes `bytes` starting at `addr`, marking touched pages soft-dirty.
    ///
    /// If any touched page is post-copy protected, the store does not land:
    /// it is parked as a [`PendingTrap`] (the simulated thread "faults" on
    /// the missing page) and `Ok` is returned. The fault handler retrieves
    /// parked stores with [`AddressSpace::take_pending_traps`], transfers
    /// the page content, unprotects, and replays them.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped, read-only, or out of bounds.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        if self.store_traps(addr, bytes.len())? {
            self.park_store(addr, bytes.to_vec());
            return Ok(());
        }
        self.write_bytes_through(addr, bytes)
    }

    /// Writes `bytes` starting at `addr`, bypassing the post-copy access
    /// traps — the store path of the fault handler itself, which must land
    /// quiesce-time content on still-protected pages before replaying the
    /// parked program stores.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped, read-only, or out of bounds.
    pub fn write_bytes_through(&mut self, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        let epoch = self.write_epoch;
        let (region, off) = self.store_target(addr, bytes.len())?;
        region.store(off, bytes, epoch);
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `value` (a program store: it parks
    /// on a protected page like [`AddressSpace::write_bytes`]).
    pub fn fill(&mut self, addr: Addr, len: usize, value: u8) -> SimResult<()> {
        if self.store_traps(addr, len)? {
            self.park_store(addr, vec![value; len]);
            return Ok(());
        }
        let epoch = self.write_epoch;
        let (region, off) = self.store_target(addr, len)?;
        region.fill(off, len, value, epoch);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Word accessors (little-endian, as on x86)
    // ------------------------------------------------------------------

    fn read_array<const N: usize>(&self, addr: Addr) -> SimResult<[u8; N]> {
        let mut word = [0; N];
        self.read_into(addr, &mut word)?;
        Ok(word)
    }

    /// Reads a 64-bit little-endian word (also used for pointers).
    pub fn read_u64(&self, addr: Addr) -> SimResult<u64> {
        self.read_array(addr).map(u64::from_le_bytes)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> SimResult<()> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads a pointer-sized value as an address.
    pub fn read_ptr(&self, addr: Addr) -> SimResult<Addr> {
        Ok(Addr(self.read_u64(addr)?))
    }

    /// Reads a 32-bit little-endian word.
    pub fn read_u32(&self, addr: Addr) -> SimResult<u32> {
        self.read_array(addr).map(u32::from_le_bytes)
    }

    /// Writes a 32-bit little-endian word.
    pub fn write_u32(&mut self, addr: Addr, value: u32) -> SimResult<()> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads a single byte.
    pub fn read_u8(&self, addr: Addr) -> SimResult<u8> {
        self.read_array(addr).map(u8::from_le_bytes)
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> SimResult<()> {
        self.write_bytes(addr, &[value])
    }

    /// Reads a NUL-terminated C string of at most `max` bytes.
    pub fn read_cstring(&self, addr: Addr, max: usize) -> SimResult<String> {
        let mut out = Vec::new();
        let mut cur = addr;
        // One pass per region the string runs through (a string may continue
        // into an adjacent mapping), one step per page inside it.
        'scan: while out.len() < max {
            let region = self.region_containing(cur).ok_or(SimError::UnmappedAddress(cur))?;
            let off = (cur.0 - region.base().0) as usize;
            let len = (max - out.len()).min(region.size() as usize - off);
            for chunk in page_chunks(off, len) {
                let Some(page) = &region.pages[chunk.page] else { break 'scan };
                let bytes = &page[chunk.at..chunk.at + chunk.len];
                let text = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
                out.extend_from_slice(&bytes[..text]);
                if text < bytes.len() {
                    break 'scan;
                }
            }
            cur = cur.offset(len as u64);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    // ------------------------------------------------------------------
    // Soft-dirty tracking (the /proc/pid/pagemap analogue) and the
    // epoch-based pre-copy write barrier built on top of it
    // ------------------------------------------------------------------

    /// Clears every soft-dirty stamp in the address space.
    ///
    /// MCR invokes this once at the end of program startup, so that only
    /// pages written afterwards are reported dirty at update time.
    pub fn clear_soft_dirty(&mut self) {
        for region in self.regions.values_mut() {
            region.clear_soft_dirty();
        }
    }

    /// The current write epoch (the stamp pages written from now on get).
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// Forces the space's write epoch (checkpoint restore: the restored
    /// space must resume counting where the checkpointed one left off).
    pub fn set_write_epoch(&mut self, epoch: u64) {
        self.write_epoch = epoch.max(1);
    }

    /// Rewrites the per-page dirty stamps of the region starting at `base`:
    /// every stamp is cleared, then the given `(page_index, epoch)` pairs
    /// are applied. Checkpoint restore uses this to reproduce the exact
    /// soft-dirty state after its reconcile writes transiently stamped
    /// pages the checkpointed instance never dirtied.
    pub fn restore_page_epochs(&mut self, base: Addr, stamps: &[(u32, u64)]) -> SimResult<()> {
        let region = self.regions.get_mut(&base.0).ok_or(SimError::UnmappedAddress(base))?;
        for e in region.dirty_epoch.iter_mut() {
            *e = 0;
        }
        for &(idx, epoch) in stamps {
            let slot = region.dirty_epoch.get_mut(idx as usize).ok_or_else(|| {
                SimError::InvalidArgument(format!("page index {idx} outside region at {base:?}"))
            })?;
            *slot = epoch;
        }
        Ok(())
    }

    /// Starts a new write epoch and returns the previous one — the highest
    /// stamp any already-written page can carry. A pre-copy round calls this
    /// before copying, so the *next* round can ask for exactly the pages
    /// written in between via [`AddressSpace::drain_dirty_since`].
    pub fn advance_write_epoch(&mut self) -> u64 {
        let prev = self.write_epoch;
        self.write_epoch += 1;
        prev
    }

    /// Collects the page runs whose dirty stamp exceeds `since`, coalescing
    /// adjacent matching pages. `since == 0` reports everything written
    /// since the last [`AddressSpace::clear_soft_dirty`]; a pre-copy round
    /// passes the epoch returned by its previous
    /// [`AddressSpace::advance_write_epoch`] to see only the delta.
    pub fn drain_dirty_since(&self, since: u64) -> Vec<DirtyRange> {
        let mut out = Vec::new();
        for region in self.regions.values() {
            let mut run_start: Option<u64> = None;
            for page in 0..region.page_count() as u64 {
                let dirty = region.dirty_epoch[page as usize] > since;
                match (dirty, run_start) {
                    (true, None) => run_start = Some(page),
                    (false, Some(start)) => {
                        out.push(DirtyRange {
                            base: region.base().offset(start * PAGE_SIZE),
                            len: (page - start) * PAGE_SIZE,
                            kind: region.kind(),
                        });
                        run_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = run_start {
                out.push(DirtyRange {
                    base: region.base().offset(start * PAGE_SIZE),
                    len: (region.page_count() as u64 - start) * PAGE_SIZE,
                    kind: region.kind(),
                });
            }
        }
        out
    }

    /// Whether the page containing `addr` is soft-dirty.
    pub fn is_dirty(&self, addr: Addr) -> bool {
        self.region_containing(addr).map(|r| r.page_is_dirty(addr)).unwrap_or(false)
    }

    /// The highest dirty stamp of the pages covering `[base, base + len)`
    /// (`0` when every covering page is clean). This is the per-object dirty
    /// epoch mutable tracing records on each traced object.
    pub fn range_dirty_epoch(&self, base: Addr, len: u64) -> u64 {
        let mut epoch = 0u64;
        let mut page = base.page_base();
        let end = base.0 + len.max(1);
        while page.0 < end {
            if let Some(r) = self.region_containing(page) {
                epoch = epoch.max(r.page_dirty_epoch(page));
            }
            page = page.offset(PAGE_SIZE);
        }
        epoch
    }

    /// Total number of dirty pages across all regions.
    pub fn dirty_page_count(&self) -> usize {
        self.regions.values().map(|r| r.dirty_page_count()).sum()
    }

    /// Number of pages (across all regions) whose dirty stamp exceeds
    /// `since` — the pre-copy convergence measure.
    pub fn dirty_page_count_since(&self, since: u64) -> usize {
        self.regions.values().map(|r| r.dirty_page_count_since(since)).sum()
    }

    // ------------------------------------------------------------------
    // Post-copy access traps (the userfaultfd analogue)
    // ------------------------------------------------------------------

    /// Arms post-copy protection over the pages covering `[base, base+len)`:
    /// until [`AddressSpace::unprotect_range`] removes it, any
    /// [`AddressSpace::write_bytes`] store touching these pages is parked as
    /// a [`PendingTrap`] instead of landing.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn protect_range(&mut self, base: Addr, len: u64) -> SimResult<()> {
        self.set_protection(base, len, true)
    }

    /// Removes post-copy protection from the pages covering
    /// `[base, base+len)` — called by the fault handler once the pages'
    /// content has been transferred.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn unprotect_range(&mut self, base: Addr, len: u64) -> SimResult<()> {
        self.set_protection(base, len, false)
    }

    fn set_protection(&mut self, base: Addr, len: u64, value: bool) -> SimResult<()> {
        let region = self
            .regions
            .range_mut(..=base.0)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(base))
            .ok_or(SimError::UnmappedAddress(base))?;
        if base.0 + len > region.end().0 {
            return Err(SimError::OutOfBounds { addr: base, len: len as usize });
        }
        let delta = region.set_protected(base, len, value);
        self.protected_pages = (self.protected_pages as isize + delta) as usize;
        Ok(())
    }

    /// Drops every protection stamp in the address space (post-copy drain
    /// finished, or the update rolled back).
    pub fn clear_protection(&mut self) {
        for region in self.regions.values_mut() {
            for page in &mut region.protected {
                *page = false;
            }
        }
        self.protected_pages = 0;
    }

    /// Total number of protected pages across all regions.
    pub fn protected_page_count(&self) -> usize {
        self.protected_pages
    }

    /// Number of parked stores awaiting fault-in service.
    pub fn pending_trap_count(&self) -> usize {
        self.pending_traps.len()
    }

    /// Takes the parked stores, in program order, leaving the buffer empty.
    /// The fault handler transfers the touched objects, unprotects their
    /// pages, and replays these stores in order.
    pub fn take_pending_traps(&mut self) -> Vec<PendingTrap> {
        std::mem::take(&mut self.pending_traps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the page containing `addr` is post-copy protected.
    fn is_protected(space: &AddressSpace, addr: Addr) -> bool {
        space.region_containing(addr).is_some_and(|r| r.page_is_protected(addr))
    }

    /// The base address of the first protected page covering
    /// `[addr, addr+len)`, if any — a read-barrier query.
    fn access_trap(space: &AddressSpace, addr: Addr, len: u64) -> Option<Addr> {
        let end = addr.0 + len.max(1);
        let mut page = addr.page_base();
        while page.0 < end {
            if is_protected(space, page) {
                return Some(page);
            }
            page = page.offset(PAGE_SIZE);
        }
        None
    }

    fn space_with_region() -> AddressSpace {
        let mut space = AddressSpace::new();
        space.map_region(Addr(0x10000), 8 * PAGE_SIZE, RegionKind::Heap, "heap").unwrap();
        space
    }

    #[test]
    fn map_and_query_region() {
        let space = space_with_region();
        let r = space.region_containing(Addr(0x10000 + 100)).unwrap();
        assert_eq!(r.base(), Addr(0x10000));
        assert_eq!(r.kind(), RegionKind::Heap);
        assert!(space.is_mapped(Addr(0x10000)));
        assert!(!space.is_mapped(Addr(0x10000 + 8 * PAGE_SIZE)));
        assert_eq!(space.mapped_bytes(), 8 * PAGE_SIZE);
    }

    #[test]
    fn overlapping_map_rejected() {
        let mut space = space_with_region();
        let err = space.map_region(Addr(0x10000 + PAGE_SIZE), PAGE_SIZE, RegionKind::Mmap, "x").unwrap_err();
        assert!(matches!(err, SimError::MappingOverlap { .. }));
        // Adjacent (non-overlapping) map is fine.
        space.map_region(Addr(0x10000 + 8 * PAGE_SIZE), PAGE_SIZE, RegionKind::Mmap, "y").unwrap();
    }

    #[test]
    fn zero_sized_map_rejected() {
        let mut space = AddressSpace::new();
        assert!(space.map_region(Addr(0x1000), 0, RegionKind::Mmap, "z").is_err());
    }

    #[test]
    fn read_write_words() {
        let mut space = space_with_region();
        space.write_u64(Addr(0x10008), 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(space.read_u64(Addr(0x10008)).unwrap(), 0xdead_beef_cafe_f00d);
        space.write_u32(Addr(0x10020), 77).unwrap();
        assert_eq!(space.read_u32(Addr(0x10020)).unwrap(), 77);
        space.write_u8(Addr(0x10030), 9).unwrap();
        assert_eq!(space.read_u8(Addr(0x10030)).unwrap(), 9);
    }

    #[test]
    fn cstring_roundtrip() {
        let mut space = space_with_region();
        space.write_bytes(Addr(0x10100), b"hello mcr\0").unwrap();
        assert_eq!(space.read_cstring(Addr(0x10100), 64).unwrap(), "hello mcr");
    }

    #[test]
    fn unmapped_and_out_of_bounds_access() {
        let mut space = space_with_region();
        assert!(matches!(space.read_u64(Addr(0x1)).unwrap_err(), SimError::UnmappedAddress(_)));
        let end = Addr(0x10000 + 8 * PAGE_SIZE - 4);
        assert!(matches!(space.write_u64(end, 1).unwrap_err(), SimError::OutOfBounds { .. }));
    }

    #[test]
    fn read_only_region_rejects_writes() {
        let mut space = AddressSpace::new();
        space.map_region_with_perms(Addr(0x5000), PAGE_SIZE, RegionKind::Lib, "ro", false).unwrap();
        assert!(matches!(space.write_u8(Addr(0x5000), 1).unwrap_err(), SimError::ReadOnlyRegion(_)));
        assert_eq!(space.read_u8(Addr(0x5000)).unwrap(), 0);
    }

    #[test]
    fn soft_dirty_lifecycle() {
        let mut space = space_with_region();
        // Freshly mapped pages are dirty (they were just created).
        assert_eq!(space.dirty_page_count(), 8);
        space.clear_soft_dirty();
        assert_eq!(space.dirty_page_count(), 0);
        // A single write dirties exactly the touched page(s).
        space.write_u64(Addr(0x10000 + PAGE_SIZE + 8), 1).unwrap();
        assert_eq!(space.dirty_page_count(), 1);
        assert!(space.is_dirty(Addr(0x10000 + PAGE_SIZE)));
        assert!(!space.is_dirty(Addr(0x10000)));
        // A write spanning a page boundary dirties both pages.
        space.write_bytes(Addr(0x10000 + 3 * PAGE_SIZE - 4), &[1u8; 8]).unwrap();
        assert!(space.is_dirty(Addr(0x10000 + 2 * PAGE_SIZE)));
        assert!(space.is_dirty(Addr(0x10000 + 3 * PAGE_SIZE)));
    }

    #[test]
    fn dirty_ranges_coalesce() {
        let mut space = space_with_region();
        space.clear_soft_dirty();
        space.write_u8(Addr(0x10000), 1).unwrap();
        space.write_u8(Addr(0x10000 + PAGE_SIZE), 1).unwrap();
        space.write_u8(Addr(0x10000 + 4 * PAGE_SIZE), 1).unwrap();
        let ranges = space.drain_dirty_since(0);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].base, Addr(0x10000));
        assert_eq!(ranges[0].len, 2 * PAGE_SIZE);
        assert_eq!(ranges[1].base, Addr(0x10000 + 4 * PAGE_SIZE));
        assert_eq!(ranges[1].len, PAGE_SIZE);
    }

    #[test]
    fn write_epochs_expose_per_round_deltas() {
        let mut space = space_with_region();
        space.clear_soft_dirty();
        // Round 0 writes carry the initial epoch.
        space.write_u64(Addr(0x10000), 1).unwrap();
        let e0 = space.advance_write_epoch();
        assert_eq!(space.write_epoch(), e0 + 1);
        // Nothing written after the bump yet.
        assert!(space.drain_dirty_since(e0).is_empty());
        assert_eq!(space.dirty_page_count_since(e0), 0);
        // A new write lands in the new epoch and only it shows up in the
        // delta; the full dirty set still contains both pages.
        space.write_u64(Addr(0x10000 + 2 * PAGE_SIZE), 2).unwrap();
        let delta = space.drain_dirty_since(e0);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].base, Addr(0x10000 + 2 * PAGE_SIZE));
        assert_eq!(space.dirty_page_count(), 2);
        assert_eq!(space.range_dirty_epoch(Addr(0x10000), 8), e0);
        assert_eq!(space.range_dirty_epoch(Addr(0x10000 + 2 * PAGE_SIZE), 8), e0 + 1);
        assert_eq!(space.range_dirty_epoch(Addr(0x10000 + PAGE_SIZE), 8), 0);
        // Re-writing an old page moves it into the current epoch.
        let e1 = space.advance_write_epoch();
        space.write_u64(Addr(0x10000), 3).unwrap();
        assert_eq!(space.dirty_page_count_since(e1), 1);
        // clear_soft_dirty resets stamps but not the epoch counter.
        space.clear_soft_dirty();
        assert_eq!(space.dirty_page_count(), 0);
        assert_eq!(space.write_epoch(), e1 + 1);
    }

    #[test]
    fn access_traps_park_and_replay_stores() {
        let mut space = space_with_region();
        space.clear_soft_dirty();
        space.write_u64(Addr(0x10000), 0x1111).unwrap();
        // Arm protection over the second page.
        space.protect_range(Addr(0x10000 + PAGE_SIZE), PAGE_SIZE).unwrap();
        assert_eq!(space.protected_page_count(), 1);
        assert!(is_protected(&space, Addr(0x10000 + PAGE_SIZE + 8)));
        assert!(!is_protected(&space, Addr(0x10000)));
        assert_eq!(access_trap(&space, Addr(0x10000), 2 * PAGE_SIZE), Some(Addr(0x10000 + PAGE_SIZE)));
        assert_eq!(access_trap(&space, Addr(0x10000), 8), None);
        // A store to an unprotected page lands as usual.
        space.write_u64(Addr(0x10008), 0x2222).unwrap();
        assert_eq!(space.read_u64(Addr(0x10008)).unwrap(), 0x2222);
        // A store to the protected page parks instead of landing.
        space.write_u64(Addr(0x10000 + PAGE_SIZE), 0x3333).unwrap();
        assert_eq!(space.read_u64(Addr(0x10000 + PAGE_SIZE)).unwrap(), 0);
        assert_eq!(space.pending_trap_count(), 1);
        // The fault handler lands content through the barrier, unprotects,
        // and replays the parked store — final bytes as if transfer had
        // happened before the program store.
        space.write_bytes_through(Addr(0x10000 + PAGE_SIZE), &[9u8; 16]).unwrap();
        space.unprotect_range(Addr(0x10000 + PAGE_SIZE), PAGE_SIZE).unwrap();
        assert_eq!(space.protected_page_count(), 0);
        for trap in space.take_pending_traps() {
            space.write_bytes(trap.addr, &trap.bytes).unwrap();
        }
        assert_eq!(space.pending_trap_count(), 0);
        assert_eq!(space.read_u64(Addr(0x10000 + PAGE_SIZE)).unwrap(), 0x3333);
        assert_eq!(space.read_u64(Addr(0x10000 + PAGE_SIZE + 8)).unwrap(), 0x0909_0909_0909_0909);
        // Error paths and idempotent re-protection.
        assert!(space.protect_range(Addr(0x1), 8).is_err());
        space.protect_range(Addr(0x10000), PAGE_SIZE).unwrap();
        space.protect_range(Addr(0x10000), PAGE_SIZE).unwrap();
        assert_eq!(space.protected_page_count(), 1);
        space.clear_protection();
        assert_eq!(space.protected_page_count(), 0);
    }

    #[test]
    fn read_into_matches_read_bytes() {
        let mut space = space_with_region();
        space.write_bytes(Addr(0x10010), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut buf = [0u8; 8];
        space.read_into(Addr(0x10010), &mut buf).unwrap();
        assert_eq!(buf.to_vec(), space.read_bytes(Addr(0x10010), 8).unwrap());
        // Errors mirror read_bytes.
        assert!(space.read_into(Addr(0x1), &mut buf).is_err());
        let end = Addr(0x10000 + 8 * PAGE_SIZE - 4);
        assert!(space.read_into(end, &mut buf).is_err());
    }

    #[test]
    fn copy_range_copies_and_stamps_pages() {
        let mut src = space_with_region();
        src.write_bytes(Addr(0x10000), &[9u8; 64]).unwrap();
        let mut dst = AddressSpace::new();
        dst.map_region(Addr(0x40000), 4 * PAGE_SIZE, RegionKind::Heap, "dst").unwrap();
        dst.clear_soft_dirty();
        dst.copy_range(Addr(0x40008), &src, Addr(0x10000), 64).unwrap();
        assert_eq!(dst.read_bytes(Addr(0x40008), 64).unwrap(), vec![9u8; 64]);
        assert!(dst.is_dirty(Addr(0x40008)), "copy stamps the touched page");
        assert_eq!(dst.dirty_page_count(), 1);
        // A copy spanning a page boundary stamps both pages.
        dst.copy_range(Addr(0x40000 + PAGE_SIZE - 4), &src, Addr(0x10000), 8).unwrap();
        assert!(dst.is_dirty(Addr(0x40000)) && dst.is_dirty(Addr(0x40000 + PAGE_SIZE)));
        // Error paths: unmapped source, unmapped destination, read-only
        // destination.
        assert!(dst.copy_range(Addr(0x40000), &src, Addr(0x1), 8).is_err());
        assert!(dst.copy_range(Addr(0x1), &src, Addr(0x10000), 8).is_err());
        let mut ro = AddressSpace::new();
        ro.map_region_with_perms(Addr(0x5000), PAGE_SIZE, RegionKind::Lib, "ro", false).unwrap();
        assert!(ro.copy_range(Addr(0x5000), &src, Addr(0x10000), 8).is_err());
    }

    /// The three source/destination residency cases the dense `Vec` hid:
    /// each books the store (stamps, `write_count`) and yields dense bytes.
    #[test]
    fn copy_range_from_an_absent_page_clears_resident_and_keeps_absent_destinations() {
        let src = space_with_region();
        let mut dst = AddressSpace::new();
        dst.map_region(Addr(0x40000), 4 * PAGE_SIZE, RegionKind::Heap, "dst").unwrap();
        dst.write_bytes(Addr(0x40000), &[0xEE; 64]).unwrap();
        dst.clear_soft_dirty();
        let writes = dst.region_containing(Addr(0x40000)).unwrap().write_count();

        // Absent source onto a resident destination page: zeros land.
        dst.copy_range(Addr(0x40008), &src, Addr(0x10000), 16).unwrap();
        let mut expect = vec![0xEE; 64];
        expect[8..24].fill(0);
        assert_eq!(dst.read_bytes(Addr(0x40000), 64).unwrap(), expect);
        assert_eq!(dst.resident_pages(), 1);
        assert!(dst.is_dirty(Addr(0x40008)));

        // Absent source onto an absent destination page: still absent, but
        // stamped and counted like any other store.
        let page2 = Addr(0x40000 + 2 * PAGE_SIZE);
        dst.copy_range(page2, &src, Addr(0x10000), 2 * PAGE_SIZE as usize).unwrap();
        assert_eq!(dst.resident_pages(), 1, "copying zeros onto untouched pages materialises nothing");
        assert!(dst.is_dirty(page2) && dst.is_dirty(page2.offset(PAGE_SIZE)));
        assert_eq!(dst.dirty_page_count(), 3);
        assert_eq!(dst.read_bytes(page2, 2 * PAGE_SIZE as usize).unwrap(), vec![0; 2 * PAGE_SIZE as usize]);
        assert_eq!(dst.region_containing(Addr(0x40000)).unwrap().write_count(), writes + 2);
        assert_eq!(src.resident_pages(), 0, "reading never materialises the source");
    }

    #[test]
    fn copy_range_splits_at_the_page_boundaries_of_both_sides() {
        let mut src = space_with_region();
        let pattern: Vec<u8> = (0..3 * PAGE_SIZE as usize).map(|i| (i % 251) as u8 + 1).collect();
        src.write_bytes(Addr(0x10000 + 100), &pattern).unwrap();
        let mut dst = AddressSpace::new();
        dst.map_region(Addr(0x40000), 8 * PAGE_SIZE, RegionKind::Heap, "dst").unwrap();
        dst.clear_soft_dirty();
        // Source and destination are misaligned against each other, so
        // every chunk ends at a boundary of one side or the other.
        dst.copy_range(Addr(0x40000 + PAGE_SIZE - 7), &src, Addr(0x10000 + 100), pattern.len()).unwrap();
        assert_eq!(dst.read_bytes(Addr(0x40000 + PAGE_SIZE - 7), pattern.len()).unwrap(), pattern);
        assert_eq!(
            dst.read_bytes(Addr(0x40000), PAGE_SIZE as usize - 7).unwrap(),
            vec![0; PAGE_SIZE as usize - 7]
        );
        assert_eq!(dst.dirty_page_count(), 4);
        assert_eq!(dst.resident_pages(), 4);
    }

    #[test]
    fn zero_length_store_stamps_one_page_and_materialises_nothing() {
        let mut space = space_with_region();
        space.clear_soft_dirty();
        let at = Addr(0x10000 + 3 * PAGE_SIZE);
        space.write_bytes(at, &[]).unwrap();
        space.fill(at.offset(PAGE_SIZE), 0, 9).unwrap();
        let other = space_with_region();
        space.copy_range(at.offset(2 * PAGE_SIZE), &other, Addr(0x10000), 0).unwrap();
        assert_eq!(space.dirty_page_count(), 3);
        assert_eq!(space.region_containing(at).unwrap().write_count(), 3);
        assert_eq!(space.resident_pages(), 0);
    }

    #[test]
    fn bounds_are_checked_against_size_not_the_page_rounded_size() {
        let mut space = AddressSpace::new();
        space.map_region(Addr(0x10000), PAGE_SIZE + 100, RegionKind::Mmap, "odd").unwrap();
        let region = space.region_containing(Addr(0x10000)).unwrap();
        assert_eq!((region.page_count(), region.pages().count()), (2, 2));
        let last = Addr(0x10000 + PAGE_SIZE + 99);
        space.write_u8(last, 7).unwrap();
        assert_eq!(space.read_u8(last).unwrap(), 7);
        assert!(matches!(space.read_u8(last.offset(1)).unwrap_err(), SimError::UnmappedAddress(_)));
        assert!(matches!(space.write_bytes(last, &[1, 2]).unwrap_err(), SimError::OutOfBounds { .. }));
        assert!(matches!(space.read_bytes(last, 2).unwrap_err(), SimError::OutOfBounds { .. }));
        assert!(matches!(space.fill(last, 2, 0).unwrap_err(), SimError::OutOfBounds { .. }));
        // The visitor's last page is whole; its tail beyond `size` is zero.
        let pages: Vec<_> = space.region_containing(last).unwrap().pages().collect();
        assert!(pages[0].is_none());
        let tail = &pages[1].unwrap()[99..];
        assert!(tail[0] == 7 && tail[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn cstring_reads_run_across_pages_regions_and_absent_pages() {
        let mut space = space_with_region();
        space.map_region(Addr(0x10000 + 8 * PAGE_SIZE), PAGE_SIZE, RegionKind::Mmap, "next").unwrap();
        // Unterminated text up to the region end continues into the
        // adjacent mapping, whose untouched page terminates it.
        let tail = Addr(0x10000 + 8 * PAGE_SIZE - 3);
        space.write_bytes(tail, b"abc").unwrap();
        assert_eq!(space.read_cstring(tail, 64).unwrap(), "abc");
        assert_eq!(space.read_cstring(tail, 2).unwrap(), "ab");
        // A string spanning a page boundary inside one region.
        let mid = Addr(0x10000 + PAGE_SIZE - 2);
        space.write_bytes(mid, b"wxyz\0").unwrap();
        assert_eq!(space.read_cstring(mid, 64).unwrap(), "wxyz");
        // Running off the last mapping is the per-byte read's error.
        let end = Addr(0x10000 + 9 * PAGE_SIZE - 2);
        space.write_bytes(end, b"zz").unwrap();
        assert!(
            matches!(space.read_cstring(end, 8).unwrap_err(), SimError::UnmappedAddress(a) if a == end.offset(2))
        );
        assert_eq!(space.read_cstring(Addr(0x1), 0).unwrap(), "");
    }

    #[test]
    fn mapping_and_cloning_materialise_nothing() {
        let mut space = AddressSpace::new();
        space.map_region(Addr(0x100_0000), 16 << 20, RegionKind::Heap, "heap").unwrap();
        let copy = space.clone();
        assert_eq!((space.resident_pages(), copy.resident_pages()), (0, 0));
        assert_eq!(copy.regions.values().map(|r| r.page_count()).sum::<usize>(), 4096);
        assert_eq!(copy.dirty_page_count(), 4096, "a fresh mapping is all-dirty, resident or not");
        assert_eq!(copy.read_u64(Addr(0x100_0000 + (16 << 20) - 8)).unwrap(), 0);
    }

    fn page_refs(space: &AddressSpace) -> Vec<usize> {
        space.regions().flat_map(|r| r.pages.iter().flatten().map(Arc::strong_count)).collect()
    }

    #[test]
    fn kernel_fork_shares_every_page_until_one_side_stores() {
        use crate::kernel::Kernel;
        use crate::process::MemoryLayout;
        use crate::syscall::{Syscall, SyscallPort};

        let mut kernel = Kernel::new();
        let parent = kernel.create_process("srv").unwrap();
        kernel.process_mut(parent).unwrap().setup_memory(MemoryLayout::default(), true).unwrap();
        let heap = kernel.process(parent).unwrap().layout().heap_base;
        let space = kernel.process_mut(parent).unwrap().space_mut();
        space.clear_soft_dirty();
        space.advance_write_epoch();
        for page in 0..3 {
            space.write_u64(heap.offset(page * PAGE_SIZE), 0x1000 + page).unwrap();
        }
        space.protect_range(heap.offset(PAGE_SIZE), PAGE_SIZE).unwrap();
        space.write_u64(heap.offset(PAGE_SIZE + 8), 0xBAD).unwrap();
        let resident = space.resident_pages();
        assert!(resident >= 3);

        let tid = kernel.process(parent).unwrap().main_tid();
        let child = kernel.syscall(parent, tid, Syscall::Fork).unwrap().as_pid().unwrap();
        let (p, c) = (kernel.process(parent).unwrap().space(), kernel.process(child).unwrap().space());
        // The child reads the parent's bytes from the parent's own pages.
        assert_eq!(c.read_u64(heap.offset(2 * PAGE_SIZE)).unwrap(), 0x1002);
        assert_eq!(c.resident_pages(), resident);
        assert!(page_refs(p).iter().all(|&n| n == 2) && page_refs(c).iter().all(|&n| n == 2));
        // Stamps, protection and the parked store are inherited as they were.
        assert_eq!(c.drain_dirty_since(0), p.drain_dirty_since(0));
        assert_eq!(c.range_dirty_epoch(heap, 8), 2);
        assert_eq!(c.write_epoch(), p.write_epoch());
        assert_eq!((c.protected_page_count(), c.pending_trap_count()), (1, 1));
        assert!(is_protected(c, heap.offset(PAGE_SIZE)));

        // One store on the child un-shares exactly that page …
        kernel.process_mut(child).unwrap().space_mut().write_u64(heap, 0xC0C0).unwrap();
        let (p, c) = (kernel.process(parent).unwrap().space(), kernel.process(child).unwrap().space());
        assert_eq!((p.read_u64(heap).unwrap(), c.read_u64(heap).unwrap()), (0x1000, 0xC0C0));
        assert_eq!(page_refs(c).iter().filter(|&&n| n == 1).count(), 1);
        assert_eq!(page_refs(p).iter().filter(|&&n| n == 1).count(), 1);
        // … and one on the parent exactly one more.
        let third = heap.offset(2 * PAGE_SIZE);
        kernel.process_mut(parent).unwrap().space_mut().write_u64(third, 7).unwrap();
        let (p, c) = (kernel.process(parent).unwrap().space(), kernel.process(child).unwrap().space());
        assert_eq!((p.read_u64(third).unwrap(), c.read_u64(third).unwrap()), (7, 0x1002));
        assert_eq!(page_refs(p).iter().filter(|&&n| n == 1).count(), 2);
        assert_eq!(page_refs(c).iter().filter(|&&n| n == 2).count(), resident - 2);
    }

    #[test]
    fn unmap_region_works() {
        let mut space = space_with_region();
        space.unmap_region(Addr(0x10000)).unwrap();
        assert!(!space.is_mapped(Addr(0x10000)));
        assert!(space.unmap_region(Addr(0x10000)).is_err());
    }

    #[test]
    fn valid_range_checks() {
        let space = space_with_region();
        assert!(space.is_valid_range(Addr(0x10000), 8));
        assert!(space.is_valid_range(Addr(0x10000 + 8 * PAGE_SIZE - 8), 8));
        assert!(!space.is_valid_range(Addr(0x10000 + 8 * PAGE_SIZE - 4), 8));
        assert!(!space.is_valid_range(Addr(0x1), 1));
    }

    #[test]
    fn addr_helpers() {
        assert_eq!(Addr(0x1234).page_base(), Addr(0x1000));
        assert!(Addr(0x1000).is_aligned(8));
        assert!(!Addr(0x1001).is_aligned(8));
        assert!(Addr::NULL.is_null());
        assert_eq!(Addr(4).offset(4), Addr(8));
    }
}
