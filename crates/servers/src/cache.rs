//! A memcached-style slab cache: the single-process big-heap archetype.
//!
//! The four paper programs are multiprocess (or at least multi-threaded), so
//! the pair-parallel trace/transfer phase already scales them. This server
//! models the workload shape that phase *cannot* touch — one process owning
//! one huge heap of small typed records plus bulk value blobs, the shape of
//! a memcached-style cache or an in-memory DBMS — which is exactly what
//! [`UpdateOptions::intra_pair_shards`](mcr_core::runtime::UpdateOptions)
//! parallelizes. `benches/intra_pair.rs` sweeps heap size × shard count over
//! this server.
//!
//! The cache is a 64-bucket hash table of `entry_s` records. Each entry owns
//! an *untyped* value blob (allocated through `alloc_bytes`, so transfer
//! copies it verbatim via the range-copy fast path), while the entries
//! themselves are fully typed (generation 2 adds a `hits` field, forcing the
//! structural field-map transform with pointer rewriting on every entry).
//! The text protocol exposes the get/set/evict workload hooks:
//!
//! * `set <vsize>` — insert one entry with a `vsize`-byte value;
//! * `fill <n> <vsize>` — bulk-insert `n` entries (how the bench sizes the
//!   heap without driving one simulated request per entry);
//! * `get` — look up a deterministically chosen key and stamp the entry's
//!   LRU field (a real store, so gets dirty pages like memcached's LRU);
//! * `evict` — unlink the head entry of the next bucket (the freed records
//!   become garbage that the next trace sweeps).

use mcr_core::error::{McrError, McrResult};
use mcr_core::program::{Program, ProgramEnv, StepOutcome, WaitInterest};
use mcr_core::runtime::McrInstance;
use mcr_procsim::{Addr, Fd, Kernel, SimError, Syscall};
use mcr_typemeta::{Field, TypeRegistry};

/// TCP port the cache listens on (memcached's default).
pub const CACHE_PORT: u16 = 11211;

/// Hash buckets of the cache table (the `cache_table` global).
pub(crate) const CACHE_BUCKETS: u64 = 64;

/// The memcached-style single-process slab cache.
pub struct CacheServer {
    generation: u32,
    version: String,
    listen_fd: Option<Fd>,
}

impl CacheServer {
    /// Creates generation `generation` (1-based) of the cache server.
    pub fn new(generation: u32) -> Self {
        let version =
            if generation <= 1 { "1.4.0".to_string() } else { format!("1.4.0+u{}", generation - 1) };
        CacheServer { generation, version, listen_fd: None }
    }

    fn insert_entries(&self, env: &mut ProgramEnv<'_>, count: u64, vsize: u64) -> McrResult<()> {
        let entry_ty = env.type_id("entry_s")?;
        let value_off = env
            .types()
            .field_offset(entry_ty, "value")
            .ok_or_else(|| McrError::UnknownMetadata("entry_s.value".into()))?;
        let next_off = env
            .types()
            .field_offset(entry_ty, "next")
            .ok_or_else(|| McrError::UnknownMetadata("entry_s.next".into()))?;
        let table = env.global_addr("cache_table")?;
        let stats = env.global_addr("cache_stats")?;
        let vsize = vsize.clamp(8, 16 * 4096);
        for _ in 0..count {
            let sets = env.read_u64(stats)?;
            let key = sets;
            let entry = env.alloc("entry_s", "cache_set:entry")?;
            let value = env.alloc_bytes(vsize, "cache_set:value")?;
            // Deterministic printable payload — conservative scanning of the
            // blob must find no likely pointers in it.
            env.write_bytes(value, &vec![b'a' + (key % 23) as u8; vsize as usize])?;
            env.write_u64(entry, key)?;
            env.write_u32(entry.offset(8), 1)?;
            env.write_u32(entry.offset(12), vsize as u32)?;
            env.write_ptr(entry.offset(value_off), value)?;
            let bucket = table.offset((key % CACHE_BUCKETS) * 8);
            let head = env.read_ptr(bucket)?;
            env.write_ptr(entry.offset(next_off), head)?;
            env.write_ptr(bucket, entry)?;
            env.write_u64(stats, sets + 1)?;
            let bytes = env.read_u64(stats.offset(24))?;
            env.write_u64(stats.offset(24), bytes + vsize)?;
            env.charge_work(1_000 + vsize / 8);
        }
        Ok(())
    }

    /// Looks up a deterministically chosen key and stamps the entry's LRU
    /// field — a real store, so cache reads dirty pages the way memcached's
    /// LRU touch does.
    fn get_entry(&self, env: &mut ProgramEnv<'_>) -> McrResult<u64> {
        let entry_ty = env.type_id("entry_s")?;
        let next_off = env
            .types()
            .field_offset(entry_ty, "next")
            .ok_or_else(|| McrError::UnknownMetadata("entry_s.next".into()))?;
        let table = env.global_addr("cache_table")?;
        let stats = env.global_addr("cache_stats")?;
        let sets = env.read_u64(stats)?;
        let gets = env.read_u64(stats.offset(8))?;
        env.write_u64(stats.offset(8), gets + 1)?;
        if sets == 0 {
            return Ok(0);
        }
        let key = gets % sets;
        let mut node = env.read_ptr(table.offset((key % CACHE_BUCKETS) * 8))?;
        let mut hops = 0u64;
        while !node.is_null() && hops < 100_000 {
            if env.read_u64(node)? == key {
                // LRU touch: stamp the state field with the get counter.
                env.write_u32(node.offset(8), (gets + 2) as u32)?;
                env.charge_work(500 + hops * 20);
                return Ok(key);
            }
            node = env.read_ptr(node.offset(next_off))?;
            hops += 1;
        }
        env.charge_work(500 + hops * 20);
        Ok(0)
    }

    /// Unlinks the head entry of the next bucket in round-robin order. The
    /// unlinked entry (and its value blob) become unreachable garbage the
    /// next trace — or delta retrace sweep — drops.
    fn evict_entry(&self, env: &mut ProgramEnv<'_>) -> McrResult<bool> {
        let entry_ty = env.type_id("entry_s")?;
        let next_off = env
            .types()
            .field_offset(entry_ty, "next")
            .ok_or_else(|| McrError::UnknownMetadata("entry_s.next".into()))?;
        let table = env.global_addr("cache_table")?;
        let stats = env.global_addr("cache_stats")?;
        let evictions = env.read_u64(stats.offset(16))?;
        env.write_u64(stats.offset(16), evictions + 1)?;
        for probe in 0..CACHE_BUCKETS {
            let bucket = table.offset(((evictions + probe) % CACHE_BUCKETS) * 8);
            let head = env.read_ptr(bucket)?;
            if !head.is_null() {
                let next = env.read_ptr(head.offset(next_off))?;
                env.write_ptr(bucket, next)?;
                env.charge_work(800);
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn handle_request(&self, env: &mut ProgramEnv<'_>, conn_fd: Fd) -> McrResult<()> {
        let request = match env.syscall(Syscall::Read { fd: conn_fd, len: 4096 }).ok() {
            Some(mcr_procsim::SyscallRet::Data(d)) => String::from_utf8_lossy(&d).into_owned(),
            _ => String::new(),
        };
        let mut words = request.split_whitespace();
        let reply = match words.next() {
            Some("set") => {
                let vsize = words.next().and_then(|w| w.parse().ok()).unwrap_or(64u64);
                self.insert_entries(env, 1, vsize)?;
                format!("STORED gen{}", self.generation)
            }
            Some("fill") => {
                let count = words.next().and_then(|w| w.parse().ok()).unwrap_or(1u64);
                let vsize = words.next().and_then(|w| w.parse().ok()).unwrap_or(64u64);
                self.insert_entries(env, count, vsize)?;
                format!("STORED {count} gen{}", self.generation)
            }
            Some("get") => {
                let key = self.get_entry(env)?;
                format!("VALUE {key} gen{}", self.generation)
            }
            Some("evict") => {
                let evicted = self.evict_entry(env)?;
                format!("EVICTED {evicted} gen{}", self.generation)
            }
            _ => format!("cache {} gen{} ERROR", self.version, self.generation),
        };
        env.syscall(Syscall::Write { fd: conn_fd, data: reply.into_bytes() })?;
        env.note_event_handled();
        Ok(())
    }
}

impl Program for CacheServer {
    fn name(&self) -> &str {
        "cache"
    }

    fn version(&self) -> &str {
        &self.version
    }

    fn register_types(&mut self, types: &mut TypeRegistry) {
        let int = types.int("int", 4);
        let long = types.int("long", 8);

        let value_fwd = types.opaque("value_fwd", 64);
        let value_ptr = types.pointer("value*", value_fwd);
        let entry_fwd = types.opaque("entry_fwd", 48);
        let entry_ptr = types.pointer("entry_s*", entry_fwd);

        let mut entry_fields =
            vec![Field::new("key", long), Field::new("state", int), Field::new("len", int)];
        if self.generation >= 2 {
            // The update under study: the new release tracks per-entry hit
            // counts, growing every cache entry — the structural transform
            // (zero-fill + pointer rewrite) runs once per entry.
            entry_fields.push(Field::new("hits", long));
        }
        entry_fields.push(Field::new("value", value_ptr));
        entry_fields.push(Field::new("next", entry_ptr));
        let _ = types.struct_type("entry_s", entry_fields);

        let _ = types.struct_type(
            "cache_stats_s",
            vec![
                Field::new("sets", long),
                Field::new("gets", long),
                Field::new("evictions", long),
                Field::new("bytes", long),
            ],
        );
        let _ = types.array("entry_s*[64]", entry_ptr, CACHE_BUCKETS);
    }

    fn startup(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<()> {
        env.scoped("cache_init", |env| {
            let fd = env.scoped("socket_setup", |env| {
                let fd = env
                    .syscall(Syscall::Socket)?
                    .as_fd()
                    .ok_or_else(|| McrError::InvalidState("socket returned no fd".into()))?;
                env.syscall(Syscall::Bind { fd, port: CACHE_PORT })?;
                env.syscall(Syscall::Listen { fd })?;
                Ok(fd)
            })?;
            self.listen_fd = Some(fd);

            let table = env.define_global("cache_table", "entry_s*[64]")?;
            for i in 0..CACHE_BUCKETS {
                env.write_u64(table.offset(i * 8), 0)?;
            }
            let _stats = env.define_global("cache_stats", "cache_stats_s")?;
            let listen_fd_g = env.define_global("listen_fd_g", "int")?;
            env.write_u32(listen_fd_g, fd.0 as u32)?;
            // Annotation effort: the slab-cache wrappers and the eviction
            // quiescence tweak.
            env.note_annotation_loc(14);
            Ok(())
        })
    }

    fn thread_step(&mut self, env: &mut ProgramEnv<'_>) -> McrResult<StepOutcome> {
        let fd = self.listen_fd.ok_or_else(|| McrError::InvalidState("cache not started".into()))?;
        match env.syscall(Syscall::Accept { fd }) {
            Err(McrError::Sim(SimError::WouldBlock)) => Ok(StepOutcome::WouldBlock {
                call: "epoll_wait",
                loop_name: "cache_loop",
                wait: WaitInterest::Fd(fd),
            }),
            Err(e) => Err(e),
            Ok(ret) => {
                let conn_fd =
                    ret.as_fd().ok_or_else(|| McrError::InvalidState("accept returned no fd".into()))?;
                self.handle_request(env, conn_fd)?;
                Ok(StepOutcome::Progress)
            }
        }
    }
}

/// Collects the addresses of every live cache entry, in bucket-then-chain
/// order, for the cache's (single) process. Used by the property tests'
/// seeded mutator and the intra-pair bench.
pub(crate) fn cache_entry_nodes(kernel: &Kernel, instance: &McrInstance) -> Vec<Addr> {
    let Some(table) = instance.state.statics.lookup("cache_table") else {
        return Vec::new();
    };
    let Some(entry_ty) = instance.state.types.lookup("entry_s") else {
        return Vec::new();
    };
    let Some(next_off) = instance.state.types.field_offset(entry_ty, "next") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for &pid in &instance.state.processes {
        let Ok(proc) = kernel.process(pid) else { continue };
        for bucket in 0..CACHE_BUCKETS {
            let Ok(head) = proc.space().read_u64(table.addr.offset(bucket * 8)) else { continue };
            let mut node = Addr(head);
            while !node.is_null() && out.len() < 1_000_000 {
                out.push(node);
                match proc.space().read_u64(node.offset(next_off)) {
                    Ok(next) => node = Addr(next),
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// The seeded write workload over the cache: stamps the `state` field of
/// every `stride`-th cache entry with `stamp`, returning the number of
/// stores issued. Stores go through the simulated address space, so they
/// dirty pages and stamp the current write epoch exactly like application
/// stores — the single-process analogue of
/// [`dirty_connection_nodes`](crate::scenarios::dirty_connection_nodes).
pub fn dirty_cache_records(kernel: &mut Kernel, instance: &McrInstance, stride: usize, stamp: u32) -> usize {
    let nodes = cache_entry_nodes(kernel, instance);
    let Some(&pid) = instance.state.processes.first() else {
        return 0;
    };
    let Ok(proc) = kernel.process_mut(pid) else {
        return 0;
    };
    let mut written = 0;
    for addr in nodes.into_iter().step_by(stride.max(1)) {
        if proc.space_mut().write_u32(addr.offset(8), stamp).is_ok() {
            written += 1;
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_core::runtime::{boot, live_update, run_rounds, BootOptions, UpdateOptions};
    use mcr_typemeta::InstrumentationConfig;

    fn send(kernel: &mut Kernel, instance: &mut McrInstance, req: &str) -> String {
        let c = kernel.client_connect(CACHE_PORT).unwrap();
        kernel.client_send(c, req.as_bytes().to_vec()).unwrap();
        run_rounds(kernel, instance, 2).unwrap();
        let reply = kernel.client_recv(c).map(|d| String::from_utf8_lossy(&d).into_owned());
        kernel.client_close(c).unwrap();
        reply.unwrap_or_default()
    }

    #[test]
    fn cache_fills_gets_and_evicts() {
        let mut kernel = Kernel::new();
        let mut v1 = boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).unwrap();
        assert_eq!(v1.state.processes.len(), 1, "single-process archetype");
        assert!(send(&mut kernel, &mut v1, "fill 100 64").starts_with("STORED 100"));
        assert!(send(&mut kernel, &mut v1, "set 32").starts_with("STORED"));
        assert_eq!(cache_entry_nodes(&kernel, &v1).len(), 101);
        assert!(send(&mut kernel, &mut v1, "get").starts_with("VALUE"));
        assert!(send(&mut kernel, &mut v1, "evict").starts_with("EVICTED true"));
        assert_eq!(cache_entry_nodes(&kernel, &v1).len(), 100);
        let written = dirty_cache_records(&mut kernel, &v1, 7, 0xBEEF);
        assert!(written >= 14, "the seeded mutator reaches the slab");
    }

    #[test]
    fn cache_live_update_transfers_entries_and_values() {
        let mut kernel = Kernel::new();
        let mut v1 = boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).unwrap();
        assert!(send(&mut kernel, &mut v1, "fill 60 128").starts_with("STORED"));
        assert!(send(&mut kernel, &mut v1, "get").starts_with("VALUE 0"));
        let (mut v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(CacheServer::new(2)),
            InstrumentationConfig::full(),
            &UpdateOptions { intra_pair_shards: 4, ..Default::default() },
        );
        assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
        // Entries and their value blobs moved into the new heap.
        assert!(outcome.report().transfer.objects_transferred() >= 120);
        let nodes = cache_entry_nodes(&kernel, &v2);
        assert_eq!(nodes.len(), 60, "every entry survived the update");
        // The new layout has the zero-initialized hits field and the value
        // payload survived verbatim behind the rewritten pointer.
        let entry_ty = v2.state.types.lookup("entry_s").unwrap();
        let hits_off = v2.state.types.field_offset(entry_ty, "hits").unwrap();
        let value_off = v2.state.types.field_offset(entry_ty, "value").unwrap();
        let pid = v2.state.processes[0];
        let process = kernel.process(pid).unwrap();
        let space = process.space();
        for &entry in &nodes {
            let key = space.read_u64(entry).unwrap();
            assert_eq!(space.read_u64(entry.offset(hits_off)).unwrap(), 0);
            let len = u64::from(space.read_u32(entry.offset(12)).unwrap());
            assert_eq!(len, 128);
            // Every byte of every value: a chunk sized for less than the
            // value would have been overrun by its neighbour's copy.
            let value = Addr(space.read_u64(entry.offset(value_off)).unwrap());
            let chunk = process.heap().unwrap().chunk_containing(space, value).expect("value chunk");
            assert!(chunk.payload == value && chunk.size >= len, "key {key}: {chunk:?}");
            let bytes = space.read_bytes(value, len as usize).unwrap();
            assert!(bytes.iter().all(|&b| b == b'a' + (key % 23) as u8), "key {key}: value corrupted");
        }
        // Still serving under the new generation.
        assert!(send(&mut kernel, &mut v2, "get").contains("gen2"));
        assert!(send(&mut kernel, &mut v2, "set 16").contains("gen2"));
        assert_eq!(cache_entry_nodes(&kernel, &v2).len(), 61);
    }
}
