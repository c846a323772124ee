//! Per-process file-descriptor tables.
//!
//! The table reproduces the POSIX semantics MCR's *global inheritance* and
//! *global separability* rules depend on: descriptors are normally assigned
//! lowest-free-first, are copied wholesale across `fork`, and can be installed
//! at explicit numbers (`dup2`-style) or in a reserved high range that is
//! never recycled by ordinary allocation.
//!
//! Storage is dense: the low range is a vector indexed directly by descriptor
//! number (O(1) lookup at any fleet size) with a min-heap free-list that
//! keeps allocation lowest-free-first, and the reserved range is a second
//! vector indexed by `fd - RESERVED_FD_BASE` whose slots are handed out
//! monotonically and never reused. Iteration walks the low range ascending,
//! then the reserved range ascending — the same total order the historical
//! ordered-map layout produced.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::{SimError, SimResult};
use crate::ids::{Fd, ObjId, RESERVED_FD_BASE};

/// One open-descriptor slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdEntry {
    /// Kernel object the descriptor refers to.
    pub object: ObjId,
    /// Close-on-exec flag (descriptors with the flag are dropped on `exec`).
    pub cloexec: bool,
    /// Whether the descriptor was inherited from the previous program version
    /// by MCR (and therefore refers to an *immutable state object*).
    pub inherited: bool,
}

/// A process's descriptor table.
#[derive(Debug, Clone)]
pub struct FdTable {
    /// Low (ordinary) range, indexed by descriptor number.
    low: Vec<Option<FdEntry>>,
    /// Candidate free slots below `low.len()`; entries may be stale (slot
    /// since refilled) or duplicated — allocation pops and re-checks.
    low_free: BinaryHeap<Reverse<i32>>,
    /// Open descriptors in the low range.
    low_len: usize,
    /// Reserved range, indexed by `fd - RESERVED_FD_BASE`.
    reserved: Vec<Option<FdEntry>>,
    /// Open descriptors in the reserved range.
    reserved_len: usize,
    /// Next candidate in the reserved range (monotonic; freed reserved
    /// numbers are never reissued).
    next_reserved: i32,
}

impl Default for FdTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FdTable {
            low: Vec::new(),
            low_free: BinaryHeap::new(),
            low_len: 0,
            reserved: Vec::new(),
            reserved_len: 0,
            next_reserved: RESERVED_FD_BASE,
        }
    }

    fn slot(&self, fd: Fd) -> Option<&FdEntry> {
        if fd.0 < 0 {
            None
        } else if fd.0 < RESERVED_FD_BASE {
            self.low.get(fd.0 as usize)?.as_ref()
        } else {
            self.reserved.get((fd.0 - RESERVED_FD_BASE) as usize)?.as_ref()
        }
    }

    fn slot_mut(&mut self, fd: Fd) -> Option<&mut Option<FdEntry>> {
        if fd.0 < 0 {
            None
        } else if fd.0 < RESERVED_FD_BASE {
            self.low.get_mut(fd.0 as usize)
        } else {
            self.reserved.get_mut((fd.0 - RESERVED_FD_BASE) as usize)
        }
    }

    /// Grows the relevant range so `fd` has a slot, recording any freshly
    /// created gaps below it as allocation candidates.
    fn ensure_slot(&mut self, fd: Fd) {
        if fd.0 < RESERVED_FD_BASE {
            let idx = fd.0 as usize;
            if idx >= self.low.len() {
                for gap in self.low.len()..idx {
                    self.low_free.push(Reverse(gap as i32));
                }
                self.low.resize(idx + 1, None);
            }
        } else {
            let idx = (fd.0 - RESERVED_FD_BASE) as usize;
            if idx >= self.reserved.len() {
                self.reserved.resize(idx + 1, None);
            }
        }
    }

    /// Allocates the lowest free non-reserved descriptor for `object`.
    pub fn alloc(&mut self, object: ObjId) -> Fd {
        let entry = FdEntry { object, cloexec: false, inherited: false };
        while let Some(Reverse(candidate)) = self.low_free.pop() {
            let idx = candidate as usize;
            if idx < self.low.len() && self.low[idx].is_none() {
                self.low[idx] = Some(entry);
                self.low_len += 1;
                return Fd(candidate);
            }
            // Stale or duplicate candidate: the slot was refilled since it
            // was pushed; drop it and keep looking.
        }
        let fd = Fd(self.low.len() as i32);
        self.low.push(Some(entry));
        self.low_len += 1;
        fd
    }

    /// Allocates a descriptor in the reserved (never-reused) range.
    ///
    /// Mutable reinitialization stores descriptors inherited from the old
    /// version here so that ordinary descriptor allocation in the new version
    /// can never clash with or recycle them.
    pub fn alloc_reserved(&mut self, object: ObjId) -> Fd {
        let fd = Fd(self.next_reserved);
        self.next_reserved += 1;
        self.ensure_slot(fd);
        *self.slot_mut(fd).expect("ensured") = Some(FdEntry { object, cloexec: false, inherited: true });
        self.reserved_len += 1;
        fd
    }

    /// Installs `object` at an explicit descriptor number (like `dup2`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FdInUse`] if the slot is occupied.
    pub fn install_at(&mut self, fd: Fd, object: ObjId, inherited: bool) -> SimResult<()> {
        if self.slot(fd).is_some() {
            return Err(SimError::FdInUse(fd));
        }
        if fd.is_reserved() {
            self.next_reserved = self.next_reserved.max(fd.0 + 1);
        }
        self.ensure_slot(fd);
        *self.slot_mut(fd).expect("ensured") = Some(FdEntry { object, cloexec: false, inherited });
        if fd.is_reserved() {
            self.reserved_len += 1;
        } else {
            self.low_len += 1;
        }
        Ok(())
    }

    /// Replaces whatever is at `fd` with `object` (dup2 onto an open slot).
    pub(crate) fn replace(&mut self, fd: Fd, object: ObjId, inherited: bool) -> Option<FdEntry> {
        self.ensure_slot(fd);
        let slot = self.slot_mut(fd).expect("ensured");
        let old = slot.replace(FdEntry { object, cloexec: false, inherited });
        if old.is_none() {
            if fd.is_reserved() {
                self.reserved_len += 1;
            } else {
                self.low_len += 1;
            }
        }
        old
    }

    /// Looks up a descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFd`] for an unknown descriptor.
    pub fn get(&self, fd: Fd) -> SimResult<FdEntry> {
        self.slot(fd).copied().ok_or(SimError::BadFd(fd))
    }

    /// Removes a descriptor, returning its entry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFd`] for an unknown descriptor.
    pub fn remove(&mut self, fd: Fd) -> SimResult<FdEntry> {
        let entry = self.slot_mut(fd).and_then(Option::take).ok_or(SimError::BadFd(fd))?;
        if fd.is_reserved() {
            self.reserved_len -= 1;
        } else {
            self.low_len -= 1;
            self.low_free.push(Reverse(fd.0));
        }
        Ok(entry)
    }

    /// Sets the close-on-exec flag.
    pub fn set_cloexec(&mut self, fd: Fd, cloexec: bool) -> SimResult<()> {
        match self.slot_mut(fd) {
            Some(Some(e)) => {
                e.cloexec = cloexec;
                Ok(())
            }
            _ => Err(SimError::BadFd(fd)),
        }
    }

    /// Whether the descriptor is open.
    pub fn contains(&self, fd: Fd) -> bool {
        self.slot(fd).is_some()
    }

    /// Iterates over `(fd, entry)` pairs in ascending descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, FdEntry)> + '_ {
        let low = self.low.iter().enumerate().filter_map(|(i, e)| e.map(|e| (Fd(i as i32), e)));
        let reserved = self
            .reserved
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (Fd(RESERVED_FD_BASE + i as i32), e)));
        low.chain(reserved)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.low_len + self.reserved_len
    }

    /// True if no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Removes all descriptors marked close-on-exec (what `exec` would do).
    fn drop_cloexec(t: &mut FdTable) -> Vec<FdEntry> {
        let doomed: Vec<Fd> = t.iter().filter(|(_, e)| e.cloexec).map(|(fd, _)| fd).collect();
        doomed.into_iter().filter_map(|fd| t.remove(fd).ok()).collect()
    }

    /// Removes every inherited descriptor `keep` rejects (MCR's end-of-control-
    /// migration garbage collection, paper §5).
    fn drop_inherited(t: &mut FdTable, mut keep: impl FnMut(Fd, &FdEntry) -> bool) -> Vec<FdEntry> {
        let doomed: Vec<Fd> =
            t.iter().filter(|&(fd, ref e)| e.inherited && !keep(fd, e)).map(|(fd, _)| fd).collect();
        doomed.into_iter().filter_map(|fd| t.remove(fd).ok()).collect()
    }

    #[test]
    fn lowest_free_allocation() {
        let mut t = FdTable::new();
        assert_eq!(t.alloc(ObjId(1)), Fd(0));
        assert_eq!(t.alloc(ObjId(2)), Fd(1));
        assert_eq!(t.alloc(ObjId(3)), Fd(2));
        t.remove(Fd(1)).unwrap();
        assert_eq!(t.alloc(ObjId(4)), Fd(1), "freed descriptor is reused lowest-first");
    }

    #[test]
    fn reserved_range_never_recycled_by_ordinary_alloc() {
        let mut t = FdTable::new();
        let r1 = t.alloc_reserved(ObjId(10));
        let r2 = t.alloc_reserved(ObjId(11));
        assert!(r1.is_reserved() && r2.is_reserved());
        assert_ne!(r1, r2);
        // Ordinary allocation stays in the low range even after removing a
        // reserved entry.
        t.remove(r1).unwrap();
        let n = t.alloc(ObjId(12));
        assert!(!n.is_reserved());
        // And new reserved fds never reuse the removed number.
        let r3 = t.alloc_reserved(ObjId(13));
        assert!(r3.0 > r2.0);
    }

    #[test]
    fn install_at_and_conflicts() {
        let mut t = FdTable::new();
        t.install_at(Fd(5), ObjId(1), true).unwrap();
        assert!(matches!(t.install_at(Fd(5), ObjId(2), false), Err(SimError::FdInUse(_))));
        assert_eq!(t.get(Fd(5)).unwrap().object, ObjId(1));
        assert!(t.get(Fd(5)).unwrap().inherited);
        assert!(matches!(t.get(Fd(9)), Err(SimError::BadFd(_))));
    }

    #[test]
    fn install_at_gap_keeps_lowest_free_allocation() {
        let mut t = FdTable::new();
        // Installing beyond the current end leaves 0..5 free; allocation
        // must still fill those lowest-first.
        t.install_at(Fd(5), ObjId(1), false).unwrap();
        assert_eq!(t.alloc(ObjId(2)), Fd(0));
        assert_eq!(t.alloc(ObjId(3)), Fd(1));
        assert_eq!(t.alloc(ObjId(4)), Fd(2));
        assert_eq!(t.alloc(ObjId(5)), Fd(3));
        assert_eq!(t.alloc(ObjId(6)), Fd(4));
        assert_eq!(t.alloc(ObjId(7)), Fd(6), "5 is occupied, next free is 6");
        let fds: Vec<i32> = t.iter().map(|(fd, _)| fd.0).collect();
        assert_eq!(fds, vec![0, 1, 2, 3, 4, 5, 6], "iteration stays ascending");
    }

    #[test]
    fn double_remove_and_refill_keep_free_list_coherent() {
        let mut t = FdTable::new();
        let a = t.alloc(ObjId(1));
        let _b = t.alloc(ObjId(2));
        t.remove(a).unwrap();
        // Refill fd 0 explicitly, then free it again: the free-list now holds
        // a duplicate candidate, which allocation must tolerate.
        t.install_at(a, ObjId(3), false).unwrap();
        t.remove(a).unwrap();
        assert_eq!(t.alloc(ObjId(4)), a);
        assert_eq!(t.alloc(ObjId(5)), Fd(2), "duplicate candidate was discarded");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn cloexec_dropped_on_exec() {
        let mut t = FdTable::new();
        let a = t.alloc(ObjId(1));
        let b = t.alloc(ObjId(2));
        t.set_cloexec(b, true).unwrap();
        let dropped = drop_cloexec(&mut t);
        assert_eq!(dropped.len(), 1);
        assert!(t.contains(a));
        assert!(!t.contains(b));
    }

    #[test]
    fn drop_inherited_keeps_selected() {
        let mut t = FdTable::new();
        let keep_fd = t.alloc_reserved(ObjId(1));
        let _drop_fd = t.alloc_reserved(ObjId(2));
        let normal = t.alloc(ObjId(3));
        let dropped = drop_inherited(&mut t, |fd, _| fd == keep_fd);
        assert_eq!(dropped.len(), 1);
        assert!(t.contains(keep_fd));
        assert!(t.contains(normal));
        assert_eq!(t.len(), 2);
    }
}
