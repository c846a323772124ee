//! Kernel objects: sockets, connections, files, Unix-domain channels.
//!
//! A kernel object is shared state referenced by one or more file
//! descriptors, possibly from multiple processes — this is exactly why MCR
//! must treat descriptor numbers as *immutable state objects*: recreating the
//! descriptor in the new version would lose the in-kernel state held here.
//!
//! # Slab layout and ordering guarantees
//!
//! The table is a slab: objects live in a dense `Vec` of slots with a
//! free-list, and an [`ObjId`] resolves to its slot through a dense
//! id-indexed vector in O(1). Ids are handed out sequentially and **never
//! reused**; when an object dies its id maps to a tombstone, so a stale id
//! can never alias a newer object (the generation check — every slot also
//! records the id it currently holds, and lookups verify the tag). Live
//! objects are threaded on an intrusive insertion-order list, which — since
//! ids are monotonic — is identical to ascending-id order: [`ObjectTable::iter`]
//! observes exactly the order the old ordered-map implementation did, so
//! kernel fingerprints and wake order are unchanged.
//!
//! Port and Unix-channel lookups go through small per-key buckets instead of
//! scanning the table; when a bucket holds several candidates the *lowest
//! live id* wins, matching the historical full-scan semantics.

use std::collections::{BTreeMap, VecDeque};

use crate::ids::{ConnId, ObjId};

/// Slot-index sentinel for "no slot" / tombstoned ids.
const NIL: u32 = u32::MAX;

/// A message queued on a Unix-domain channel; may carry descriptors
/// (SCM_RIGHTS-style), represented by the kernel objects they refer to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnixMessage {
    /// Opaque payload bytes.
    pub data: Vec<u8>,
    /// Kernel objects attached to the message (fd passing).
    pub objects: Vec<ObjId>,
}

/// The in-kernel state behind a file descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelObject {
    /// A listening TCP socket bound to a port.
    Listener {
        /// Bound port (0 while unbound).
        port: u16,
        /// Whether `listen()` has been called.
        listening: bool,
        /// Pending client connections waiting to be accepted.
        backlog: VecDeque<ConnId>,
    },
    /// An accepted TCP connection.
    Connection {
        /// Workload-level connection identifier.
        conn: ConnId,
        /// Bytes sent by the client, not yet read by the server.
        inbox: VecDeque<Vec<u8>>,
        /// Bytes sent by the server, not yet read by the client.
        outbox: VecDeque<Vec<u8>>,
        /// Whether the client closed its side.
        peer_closed: bool,
    },
    /// An open regular file.
    File {
        /// Path in the simulated file system.
        path: String,
        /// Current read/write offset.
        offset: u64,
    },
    /// A named Unix-domain datagram channel (used by `mcr-ctl` signalling and
    /// old/new-version coordination).
    UnixChannel {
        /// Abstract socket name.
        name: String,
        /// Queued messages.
        inbox: VecDeque<UnixMessage>,
    },
    /// An anonymous pipe.
    Pipe {
        /// Buffered bytes.
        buffer: VecDeque<u8>,
    },
}

/// One occupied or free slab slot.
#[derive(Debug, Clone)]
struct Slot {
    /// Generation tag: the id currently stored in this slot. A resolved slot
    /// whose tag does not match the id being looked up means the caller held
    /// a stale id that outlived its object — lookups treat it as dead and
    /// debug builds assert.
    id: u64,
    obj: KernelObject,
    rc: u32,
    /// Intrusive insertion-order links (slot indices; [`NIL`] at the ends).
    prev: u32,
    next: u32,
}

/// Reference-counted object table shared by every process's descriptors,
/// backed by a slab (see the module docs for layout and ordering).
#[derive(Debug, Clone)]
pub struct ObjectTable {
    slots: Vec<Slot>,
    /// Free slot indices, reused LIFO.
    free: Vec<u32>,
    /// Raw id → slot index; [`NIL`] tombstones dead (or never-issued) ids.
    id_to_slot: Vec<u32>,
    /// Insertion-order list endpoints (slot indices).
    order_head: u32,
    order_tail: u32,
    /// Workload connection id → raw object id (0 = none), so the per-send
    /// client path resolves a connection in O(1) at fleet scale.
    conn_to_id: Vec<u64>,
    /// Bound port → candidate listener ids (tiny buckets; lowest live
    /// listening id wins).
    ports: BTreeMap<u16, Vec<u64>>,
    /// Channel name → candidate channel ids (lowest live id wins).
    unix_names: BTreeMap<String, Vec<u64>>,
    next_id: u64,
    live: usize,
}

impl Default for ObjectTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable {
            slots: Vec::new(),
            free: Vec::new(),
            id_to_slot: Vec::new(),
            order_head: NIL,
            order_tail: NIL,
            conn_to_id: Vec::new(),
            ports: BTreeMap::new(),
            unix_names: BTreeMap::new(),
            next_id: 1,
            live: 0,
        }
    }

    /// Resolves an id to its slot index, enforcing the generation tag.
    fn slot_of(&self, id: ObjId) -> Option<u32> {
        let s = *self.id_to_slot.get(id.0 as usize)?;
        if s == NIL {
            return None;
        }
        debug_assert_eq!(self.slots[s as usize].id, id.0, "stale ObjId aliased a reused slot");
        (self.slots[s as usize].id == id.0).then_some(s)
    }

    /// Inserts a new object with refcount 1.
    pub fn insert(&mut self, obj: KernelObject) -> ObjId {
        let id = ObjId(self.next_id);
        self.next_id += 1;
        self.index_payload(id, &obj);
        let slot = match self.free.pop() {
            Some(s) => {
                let old_tail = self.order_tail;
                self.slots[s as usize] = Slot { id: id.0, obj, rc: 1, prev: old_tail, next: NIL };
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot { id: id.0, obj, rc: 1, prev: self.order_tail, next: NIL });
                s
            }
        };
        if self.order_tail != NIL {
            self.slots[self.order_tail as usize].next = slot;
        } else {
            self.order_head = slot;
        }
        self.order_tail = slot;
        let idx = id.0 as usize;
        if idx >= self.id_to_slot.len() {
            self.id_to_slot.resize(idx + 1, NIL);
        }
        self.id_to_slot[idx] = slot;
        self.live += 1;
        id
    }

    /// Increments the reference count (descriptor duplication, fork, fd
    /// passing).
    pub fn incref(&mut self, id: ObjId) {
        if let Some(s) = self.slot_of(id) {
            self.slots[s as usize].rc += 1;
        }
    }

    /// Decrements the reference count, dropping the object at zero.
    /// Returns true if the object was destroyed.
    pub fn decref(&mut self, id: ObjId) -> bool {
        let Some(s) = self.slot_of(id) else { return false };
        let slot = &mut self.slots[s as usize];
        slot.rc -= 1;
        if slot.rc > 0 {
            return false;
        }
        // Unindex before tearing the slot down.
        match &slot.obj {
            KernelObject::Connection { conn, .. } => {
                let idx = conn.0 as usize;
                if idx < self.conn_to_id.len() && self.conn_to_id[idx] == id.0 {
                    self.conn_to_id[idx] = 0;
                }
            }
            KernelObject::Listener { port, .. } => {
                let port = *port;
                if port != 0 {
                    if let Some(bucket) = self.ports.get_mut(&port) {
                        bucket.retain(|&i| i != id.0);
                        if bucket.is_empty() {
                            self.ports.remove(&port);
                        }
                    }
                }
            }
            KernelObject::UnixChannel { name, .. } => {
                let name = name.clone();
                if let Some(bucket) = self.unix_names.get_mut(&name) {
                    bucket.retain(|&i| i != id.0);
                    if bucket.is_empty() {
                        self.unix_names.remove(&name);
                    }
                }
            }
            _ => {}
        }
        let (prev, next) = {
            let slot = &self.slots[s as usize];
            (slot.prev, slot.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.order_head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.order_tail = prev;
        }
        self.id_to_slot[id.0 as usize] = NIL;
        self.free.push(s);
        self.live -= 1;
        true
    }

    /// Shared access to an object.
    pub fn get(&self, id: ObjId) -> Option<&KernelObject> {
        self.slot_of(id).map(|s| &self.slots[s as usize].obj)
    }

    /// Exclusive access to an object.
    ///
    /// A [`KernelObject::Listener`]'s `port`/`listening` fields must not be
    /// changed through this handle — use `ObjectTable::bind_listener` and
    /// `ObjectTable::set_listening`, which keep the port index coherent.
    pub fn get_mut(&mut self, id: ObjId) -> Option<&mut KernelObject> {
        self.slot_of(id).map(|s| &mut self.slots[s as usize].obj)
    }

    /// Binds a listener to `port`, maintaining the port index. Returns false
    /// if `id` is not a live listener.
    pub(crate) fn bind_listener(&mut self, id: ObjId, port: u16) -> bool {
        let Some(s) = self.slot_of(id) else { return false };
        let KernelObject::Listener { port: p, .. } = &mut self.slots[s as usize].obj else {
            return false;
        };
        let old = *p;
        *p = port;
        if old != 0 {
            if let Some(bucket) = self.ports.get_mut(&old) {
                bucket.retain(|&i| i != id.0);
                if bucket.is_empty() {
                    self.ports.remove(&old);
                }
            }
        }
        if port != 0 {
            self.ports.entry(port).or_default().push(id.0);
        }
        true
    }

    /// Marks a listener as listening. Returns false if `id` is not a live
    /// listener.
    pub(crate) fn set_listening(&mut self, id: ObjId) -> bool {
        let Some(s) = self.slot_of(id) else { return false };
        match &mut self.slots[s as usize].obj {
            KernelObject::Listener { listening, .. } => {
                *listening = true;
                true
            }
            _ => false,
        }
    }

    /// Current reference count of an object (0 if it does not exist).
    pub fn refcount(&self, id: ObjId) -> u32 {
        self.slot_of(id).map(|s| self.slots[s as usize].rc).unwrap_or(0)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table holds no objects.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(id, object)` pairs in insertion order — which, since
    /// ids are monotonic and never reused, is exactly ascending-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &KernelObject)> {
        OrderIter { table: self, cursor: self.order_head }
    }

    /// Adds `id` to the payload-kind lookup indexes (connection, port,
    /// channel-name). Shared by [`ObjectTable::insert`] and the restore path.
    fn index_payload(&mut self, id: ObjId, obj: &KernelObject) {
        match obj {
            KernelObject::Connection { conn, .. } => {
                let idx = conn.0 as usize;
                if idx >= self.conn_to_id.len() {
                    self.conn_to_id.resize(idx + 1, 0);
                }
                self.conn_to_id[idx] = id.0;
            }
            KernelObject::UnixChannel { name, .. } => {
                self.unix_names.entry(name.clone()).or_default().push(id.0);
            }
            KernelObject::Listener { port, .. } if *port != 0 => {
                self.ports.entry(*port).or_default().push(id.0);
            }
            _ => {}
        }
    }

    /// Removes `id` from the payload-kind lookup indexes for the payload
    /// slot `s` still holds (borrowed in place, next to the index fields).
    fn unindex_slot(&mut self, id: ObjId, s: u32) {
        let ObjectTable { slots, conn_to_id, ports, unix_names, .. } = self;
        match &slots[s as usize].obj {
            KernelObject::Connection { conn, .. } => {
                let idx = conn.0 as usize;
                if idx < conn_to_id.len() && conn_to_id[idx] == id.0 {
                    conn_to_id[idx] = 0;
                }
            }
            KernelObject::Listener { port, .. } if *port != 0 => {
                if let Some(bucket) = ports.get_mut(port) {
                    bucket.retain(|&i| i != id.0);
                    if bucket.is_empty() {
                        ports.remove(port);
                    }
                }
            }
            KernelObject::UnixChannel { name, .. } => {
                if let Some(bucket) = unix_names.get_mut(name) {
                    bucket.retain(|&i| i != id.0);
                    if bucket.is_empty() {
                        unix_names.remove(name);
                    }
                }
            }
            _ => {}
        }
    }

    /// Re-creates an object at a *specific* id with a *specific* reference
    /// count — the checkpoint-restore path, which must reproduce the
    /// checkpointed table exactly (ids are embedded in descriptor tables and
    /// in the kernel fingerprint). Fails if the id is already live or zero.
    ///
    /// The slot position in the slab may differ from the original table;
    /// only ids, payloads and refcounts are part of the restored contract
    /// (no public API exposes slot indices or insertion order besides
    /// ascending-id iteration of [`ObjectTable::iter`], which stays correct
    /// because restore inserts in ascending-id order).
    pub fn restore_insert(&mut self, id: ObjId, obj: KernelObject, rc: u32) -> Result<(), String> {
        if id.0 == 0 {
            return Err("object id 0 is reserved".into());
        }
        if self.slot_of(id).is_some() {
            return Err(format!("object id {} already live", id.0));
        }
        self.index_payload(id, &obj);
        let old_tail = self.order_tail;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Slot { id: id.0, obj, rc, prev: old_tail, next: NIL };
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot { id: id.0, obj, rc, prev: old_tail, next: NIL });
                s
            }
        };
        if self.order_tail != NIL {
            self.slots[self.order_tail as usize].next = slot;
        } else {
            self.order_head = slot;
        }
        self.order_tail = slot;
        let idx = id.0 as usize;
        if idx >= self.id_to_slot.len() {
            self.id_to_slot.resize(idx + 1, NIL);
        }
        self.id_to_slot[idx] = slot;
        self.live += 1;
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(())
    }

    /// Replaces a live object's payload wholesale, keeping id and refcount
    /// and re-synchronizing the kind indexes (restore path).
    pub fn restore_payload(&mut self, id: ObjId, obj: KernelObject) -> Result<(), String> {
        let Some(s) = self.slot_of(id) else {
            return Err(format!("object id {} not live", id.0));
        };
        self.unindex_slot(id, s);
        self.index_payload(id, &obj);
        self.slots[s as usize].obj = obj;
        Ok(())
    }

    /// Forces a live object's reference count (restore path: descriptor
    /// tables are rebuilt without increfs, then counts are set from the
    /// manifest).
    pub fn set_refcount(&mut self, id: ObjId, rc: u32) -> Result<(), String> {
        if rc == 0 {
            return Err("refcount 0 would leak a live slot; use decref".into());
        }
        let Some(s) = self.slot_of(id) else {
            return Err(format!("object id {} not live", id.0));
        };
        self.slots[s as usize].rc = rc;
        Ok(())
    }

    /// Finds the listener bound to `port`, if any. With several candidates
    /// (possible while only some have called `listen()`), the lowest live
    /// listening id wins — the historical full-scan semantics.
    pub fn listener_for_port(&self, port: u16) -> Option<ObjId> {
        self.ports
            .get(&port)?
            .iter()
            .filter(|&&id| {
                matches!(self.get(ObjId(id)), Some(KernelObject::Listener { listening: true, .. }))
            })
            .min()
            .map(|&id| ObjId(id))
    }

    /// Finds the Unix channel with the given name, if any (lowest live id).
    pub(crate) fn unix_channel(&self, name: &str) -> Option<ObjId> {
        self.unix_names
            .get(name)?
            .iter()
            .filter(|&&id| self.slot_of(ObjId(id)).is_some())
            .min()
            .map(|&id| ObjId(id))
    }

    /// Finds the connection object for a workload connection id, if any.
    pub fn connection_for(&self, conn: ConnId) -> Option<ObjId> {
        let id = *self.conn_to_id.get(conn.0 as usize)?;
        if id == 0 {
            return None;
        }
        self.slot_of(ObjId(id)).map(|_| ObjId(id))
    }
}

/// Insertion-order iterator over the slab's intrusive list.
struct OrderIter<'a> {
    table: &'a ObjectTable,
    cursor: u32,
}

impl<'a> Iterator for OrderIter<'a> {
    type Item = (ObjId, &'a KernelObject);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let slot = &self.table.slots[self.cursor as usize];
        self.cursor = slot.next;
        Some((ObjId(slot.id), &slot.obj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short label describing the object kind.
    fn kind_label(o: &KernelObject) -> &'static str {
        match o {
            KernelObject::Listener { .. } => "listener",
            KernelObject::Connection { .. } => "connection",
            KernelObject::File { .. } => "file",
            KernelObject::UnixChannel { .. } => "unix",
            KernelObject::Pipe { .. } => "pipe",
        }
    }

    #[test]
    fn refcounting_lifecycle() {
        let mut t = ObjectTable::new();
        let id = t.insert(KernelObject::Pipe { buffer: VecDeque::new() });
        assert_eq!(t.refcount(id), 1);
        t.incref(id);
        assert_eq!(t.refcount(id), 2);
        assert!(!t.decref(id));
        assert!(t.decref(id));
        assert!(t.get(id).is_none());
        assert_eq!(t.refcount(id), 0);
    }

    #[test]
    fn lookup_helpers() {
        let mut t = ObjectTable::new();
        let l = t.insert(KernelObject::Listener { port: 80, listening: true, backlog: VecDeque::new() });
        let _unbound =
            t.insert(KernelObject::Listener { port: 8080, listening: false, backlog: VecDeque::new() });
        let u = t.insert(KernelObject::UnixChannel { name: "mcr-ctl".into(), inbox: VecDeque::new() });
        let c = t.insert(KernelObject::Connection {
            conn: ConnId(5),
            inbox: VecDeque::new(),
            outbox: VecDeque::new(),
            peer_closed: false,
        });
        assert_eq!(t.listener_for_port(80), Some(l));
        assert_eq!(t.listener_for_port(8080), None, "not listening yet");
        assert_eq!(t.unix_channel("mcr-ctl"), Some(u));
        assert_eq!(t.unix_channel("other"), None);
        assert_eq!(t.connection_for(ConnId(5)), Some(c));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn kind_labels() {
        let objs = [
            KernelObject::Listener { port: 1, listening: false, backlog: VecDeque::new() },
            KernelObject::Connection {
                conn: ConnId(1),
                inbox: VecDeque::new(),
                outbox: VecDeque::new(),
                peer_closed: false,
            },
            KernelObject::File { path: "/etc/conf".into(), offset: 0 },
            KernelObject::UnixChannel { name: "x".into(), inbox: VecDeque::new() },
            KernelObject::Pipe { buffer: VecDeque::new() },
        ];
        let labels: Vec<&str> = objs.iter().map(kind_label).collect();
        assert_eq!(labels, vec!["listener", "connection", "file", "unix", "pipe"]);
    }

    #[test]
    fn ids_are_never_reused_and_stale_ids_stay_dead() {
        let mut t = ObjectTable::new();
        let a = t.insert(KernelObject::Pipe { buffer: VecDeque::new() });
        assert!(t.decref(a));
        // The freed slot is recycled, but the stale id must not resolve to
        // the new occupant.
        let b = t.insert(KernelObject::File { path: "/x".into(), offset: 0 });
        assert_ne!(a, b);
        assert!(t.get(a).is_none(), "tombstoned id resolves to nothing");
        assert_eq!(t.refcount(a), 0);
        t.incref(a); // no-op on a dead id
        assert_eq!(t.refcount(a), 0);
        assert_eq!(t.get(b).map(kind_label), Some("file"));
    }

    #[test]
    fn iteration_is_insertion_order_across_slot_reuse() {
        let mut t = ObjectTable::new();
        let a = t.insert(KernelObject::Pipe { buffer: VecDeque::new() });
        let b = t.insert(KernelObject::Pipe { buffer: VecDeque::new() });
        let c = t.insert(KernelObject::Pipe { buffer: VecDeque::new() });
        assert!(t.decref(b));
        // d recycles b's slot but must iterate after c (insertion order ==
        // ascending id).
        let d = t.insert(KernelObject::Pipe { buffer: VecDeque::new() });
        let ids: Vec<ObjId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c, d]);
        assert!(ids.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn bind_listener_maintains_port_index() {
        let mut t = ObjectTable::new();
        let l = t.insert(KernelObject::Listener { port: 0, listening: false, backlog: VecDeque::new() });
        assert_eq!(t.listener_for_port(9000), None);
        assert!(t.bind_listener(l, 9000));
        assert_eq!(t.listener_for_port(9000), None, "bound but not yet listening");
        assert!(t.set_listening(l));
        assert_eq!(t.listener_for_port(9000), Some(l));
        // Rebinding moves the index entry.
        assert!(t.bind_listener(l, 9001));
        assert_eq!(t.listener_for_port(9000), None);
        assert_eq!(t.listener_for_port(9001), Some(l));
        // Death unindexes.
        assert!(t.decref(l));
        assert_eq!(t.listener_for_port(9001), None);
    }
}
