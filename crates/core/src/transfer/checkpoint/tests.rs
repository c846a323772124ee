use std::collections::VecDeque;

use super::*;
use crate::runtime::scheduler::run_rounds;
use crate::runtime::testprog::TinyServer;
use mcr_procsim::{ConnId, MemStore, Syscall, SyscallPort, WriteFault};

fn booted() -> (Kernel, McrInstance) {
    let mut kernel = Kernel::new();
    kernel.add_file("/etc/tiny.conf", b"workers=2\n".to_vec());
    let instance = boot(&mut kernel, Box::new(TinyServer::new(1)), &BootOptions::default()).unwrap();
    (kernel, instance)
}

fn drive_traffic(kernel: &mut Kernel, instance: &mut McrInstance, requests: usize) {
    for _ in 0..requests {
        let conn = kernel.client_connect(8080).unwrap();
        kernel.client_send(conn, b"GET /\n".to_vec()).unwrap();
        run_rounds(kernel, instance, 6).unwrap();
        let _ = kernel.client_recv(conn);
    }
}

fn factory() -> impl FnMut() -> Box<dyn Program> {
    || Box::new(TinyServer::new(1)) as Box<dyn Program>
}

/// Recomputes a (patched) manifest's trailing self-checksum.
fn reseal(manifest: &mut [u8]) {
    let body_len = manifest.len() - 8;
    let trailer = checksum64(&manifest[..body_len], 0);
    manifest[body_len..].copy_from_slice(&trailer.to_le_bytes());
}

/// The name of `version`'s `i`-th shard blob.
fn shard_name(store: &MemStore, version: u64, i: usize) -> String {
    let (len, checksum) = read_manifest(store, version).unwrap().2[i];
    blob_name(len, checksum)
}

/// Base of the region [`scribble`] maps.
const SCRATCH_BASE: Addr = Addr(0x5000_0000);

/// Maps a post-startup region of six pages plus a 100-byte tail into the
/// instance's first process and stores to pages 0..4 and the tail, leaving
/// page 5 stamped by its mapping but never stored to (absent).
fn scribble(kernel: &mut Kernel, instance: &McrInstance) {
    let space = kernel.process_mut(instance.state.processes[0]).unwrap().space_mut();
    space.map_region(SCRATCH_BASE, 6 * PAGE_SIZE + 100, RegionKind::Mmap, "scratch").unwrap();
    for page in (0..5).chain([6]) {
        space.write_bytes(SCRATCH_BASE.offset(page * PAGE_SIZE + 8), &[page as u8 + 1; 64]).unwrap();
    }
}

/// Quiesced TinyServer after `requests` served requests.
fn quiesced(requests: usize) -> (Kernel, McrInstance) {
    let (mut kernel, mut instance) = booted();
    drive_traffic(&mut kernel, &mut instance, requests);
    wait_quiescence(&mut kernel, &mut instance, QUIESCE_ROUNDS).unwrap();
    (kernel, instance)
}

#[test]
fn roundtrip_restores_fingerprint_identical_kernel() {
    let (mut kernel, mut instance) = booted();
    drive_traffic(&mut kernel, &mut instance, 5);
    let mut store = MemStore::new();
    wait_quiescence(&mut kernel, &mut instance, QUIESCE_ROUNDS).unwrap();
    let fp = kernel.fingerprint();
    let summary =
        write_checkpoint(&mut kernel, &instance, &mut store, &CheckpointOptions::default()).unwrap();
    assert_eq!(summary.version, 1);
    assert!(summary.page_deltas > 0);
    resume(&mut kernel, &mut instance);

    let mut make = factory();
    let restored = restore_latest(&store, &mut make, None).unwrap();
    assert_eq!(restored.report.version, 1);
    assert_eq!(restored.kernel.fingerprint(), fp, "restore must be byte-identical");
    assert_eq!(restored.kernel.now().0 + summary.parallel_cost.0, kernel.now().0);

    // The revived instance still serves.
    let mut k = restored.kernel;
    let mut inst = restored.instance;
    resume(&mut k, &mut inst);
    let conn = k.client_connect(8080).unwrap();
    k.client_send(conn, b"GET /\n".to_vec()).unwrap();
    run_rounds(&mut k, &mut inst, 6).unwrap();
    assert_eq!(k.client_recv(conn).unwrap(), b"hello from v1".to_vec());
}

#[test]
fn checkpoint_requires_quiescence() {
    let (mut kernel, instance) = booted();
    let mut store = MemStore::new();
    // Freshly booted threads are running, not quiesced.
    let err =
        write_checkpoint(&mut kernel, &instance, &mut store, &CheckpointOptions::default()).unwrap_err();
    assert!(matches!(err, CheckpointError::Quiescence(_)));
}

/// Retention is mark and sweep: after four checkpoints that each see new
/// file contents, the store holds the newest two manifests and exactly the
/// blobs they name.
#[test]
fn retention_keeps_last_n_versions() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    let opts = CheckpointOptions::default();
    for i in 1..=4 {
        drive_traffic(&mut kernel, &mut instance, 1);
        rewrite_conf(&mut kernel, &instance, format!("workers={i}").as_bytes());
        let s = checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
        assert_eq!(s.version, i);
    }
    assert_eq!(list_versions(&store), vec![3, 4]);
    let mut expected: BTreeSet<String> = [manifest_blob(3), manifest_blob(4)].into();
    for version in [3, 4] {
        expected.extend(manifest_blobs(&store, version).unwrap());
    }
    assert_eq!(store.list().into_iter().collect::<BTreeSet<_>>(), expected);
    for swept in [b"workers=1\n", b"workers=2\n"] {
        assert!(expected.iter().all(|name| *name != content_name(swept)), "v1's and v2's file blobs go");
    }
}

#[test]
fn truncated_manifest_falls_back_to_older_version() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    let opts = CheckpointOptions::default();
    drive_traffic(&mut kernel, &mut instance, 2);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
    drive_traffic(&mut kernel, &mut instance, 2);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
    store.truncate_blob(&manifest_blob(2), 40).unwrap();
    let restored = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!(restored.report.version, 1);
    assert_eq!(restored.report.versions_rejected, 1);
}

#[test]
fn flipped_manifest_byte_is_rejected_with_checksum_mismatch() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    drive_traffic(&mut kernel, &mut instance, 2);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &CheckpointOptions::default()).unwrap();
    let blob = store.read_blob(&manifest_blob(1)).unwrap();
    store.corrupt_byte(&manifest_blob(1), blob.len() / 2).unwrap();
    let err = restore_latest(&store, &mut factory(), None).unwrap_err();
    assert!(matches!(err, RestoreError::ChecksumMismatch { .. }), "got {err:?}");
}

#[test]
fn flipped_shard_byte_is_rejected_with_checksum_mismatch() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    drive_traffic(&mut kernel, &mut instance, 2);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &CheckpointOptions::default()).unwrap();
    store.corrupt_byte(&shard_name(&store, 1, 0), 12).unwrap();
    let err = restore_latest(&store, &mut factory(), None).unwrap_err();
    assert!(matches!(err, RestoreError::ChecksumMismatch { .. }), "got {err:?}");
}

#[test]
fn format_version_skew_is_typed() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    drive_traffic(&mut kernel, &mut instance, 1);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &CheckpointOptions::default()).unwrap();
    let pristine = store.read_blob(&manifest_blob(1)).unwrap();
    // Patch the format field and re-seal the trailing checksum, so only
    // the version number is wrong: an older format (v5 named its blobs by
    // version and position) is refused like a newer one.
    for format in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
        let mut blob = pristine.clone();
        blob[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&format.to_le_bytes());
        reseal(&mut blob);
        store.write_blob(&manifest_blob(1), &blob).unwrap();
        store.sync().unwrap();
        let err = restore_latest(&store, &mut factory(), None).unwrap_err();
        assert!(matches!(err, RestoreError::VersionSkew { .. }), "format {format}: got {err:?}");
    }
}

#[test]
fn reserved_state_byte_is_rejected_as_corrupt_and_restore_falls_back() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    let opts = CheckpointOptions::default();
    drive_traffic(&mut kernel, &mut instance, 2);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
    drive_traffic(&mut kernel, &mut instance, 2);
    let summary = checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
    // The state section follows the header and the shard table; the reserved
    // byte (once the scheduling core) follows the program identity, the
    // instrumentation config and the layout slide.
    let mut prefix = Enc::default();
    prefix.str(&instance.state.program_name);
    prefix.str(&instance.state.version);
    prefix.u8(0);
    prefix.u8(0);
    prefix.u64(0);
    let at = MAGIC.len() + 4 + 8 + 8 + 4 + 16 * summary.shards + 8 + prefix.buf.len();
    let mut blob = store.read_blob(&manifest_blob(2)).unwrap();
    assert_eq!(blob[at], 0, "the writer stores the reserved byte as 0");
    blob[at] = 1;
    reseal(&mut blob);
    store.write_blob(&manifest_blob(2), &blob).unwrap();
    store.sync().unwrap();
    assert_eq!(read_manifest(&store, 2).err(), Some(RestoreError::Truncated { blob: manifest_blob(2) }));
    let restored = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!(restored.report.version, 1);
    assert_eq!(restored.report.versions_rejected, 1);
}

#[test]
fn program_version_skew_is_typed() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    drive_traffic(&mut kernel, &mut instance, 1);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &CheckpointOptions::default()).unwrap();
    let mut make = || Box::new(TinyServer::new(2)) as Box<dyn Program>;
    let err = restore_latest(&store, &mut make, None).unwrap_err();
    assert!(matches!(err, RestoreError::VersionSkew { .. }), "got {err:?}");
}

#[test]
fn every_restore_step_fault_is_typed_and_total() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    drive_traffic(&mut kernel, &mut instance, 3);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &CheckpointOptions::default()).unwrap();
    for step in 1..=RESTORE_STEPS.len() as u64 {
        let err = restore_latest(&store, &mut factory(), Some(step)).unwrap_err();
        match err {
            RestoreError::FaultInjected { step: s, label } => {
                assert_eq!(s, step);
                assert_eq!(label, RESTORE_STEPS[(step - 1) as usize]);
            }
            other => panic!("step {step}: expected FaultInjected, got {other:?}"),
        }
    }
    // One past the last step: no fault fires, restore succeeds.
    let restored = restore_latest(&store, &mut factory(), Some(RESTORE_STEPS.len() as u64 + 1)).unwrap();
    assert_eq!(restored.report.version, 1);
}

#[test]
fn crash_during_checkpoint_falls_back_cleanly() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    let opts = CheckpointOptions::default();
    drive_traffic(&mut kernel, &mut instance, 2);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
    let baseline_blocks = store.blocks_written();
    drive_traffic(&mut kernel, &mut instance, 2);
    store.arm_write_fault(WriteFault::TornAt(baseline_blocks + 2));
    let err = checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap_err();
    assert!(matches!(err, CheckpointError::Store(StoreError::Crashed { .. })), "got {err:?}");
    store.recover();
    // The torn v2 is rejected; v1 still restores.
    let restored = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!(restored.report.version, 1);
    // And the serving instance kept running the whole time.
    drive_traffic(&mut kernel, &mut instance, 1);
}

/// A live-updated instance restores at its updated slide, and its next
/// update lands 2^32 past it.
#[test]
fn update_after_restore_slides_past_the_restored_layout() {
    use crate::runtime::controller::{live_update, UpdateOptions};
    let slide = |k: &Kernel, i: &McrInstance| k.process(i.init_pid().unwrap()).unwrap().layout().slide();
    let update = |kernel: &mut Kernel, instance, version| {
        let new = Box::new(TinyServer::new(version));
        let (updated, outcome) =
            live_update(kernel, instance, new, InstrumentationConfig::full(), &UpdateOptions::default());
        assert!(outcome.is_committed(), "{:?}", outcome.conflicts());
        updated
    };
    let (mut kernel, mut instance) = booted();
    drive_traffic(&mut kernel, &mut instance, 2);
    let mut instance = update(&mut kernel, instance, 2);
    let updated_slide = slide(&kernel, &instance);
    drive_traffic(&mut kernel, &mut instance, 1);
    let mut store = MemStore::new();
    checkpoint_now(&mut kernel, &mut instance, &mut store, &CheckpointOptions::default()).unwrap();

    let mut make = || Box::new(TinyServer::new(2)) as Box<dyn Program>;
    let restored = restore_latest(&store, &mut make, None).unwrap();
    let (mut kernel, mut instance) = (restored.kernel, restored.instance);
    assert_eq!(slide(&kernel, &instance), updated_slide, "restored at the updated slide");
    resume(&mut kernel, &mut instance);
    drive_traffic(&mut kernel, &mut instance, 1);
    let updated = update(&mut kernel, instance, 3);
    assert_eq!(slide(&kernel, &updated), updated_slide + 0x1_0000_0000);
}

/// A chunk freed before the checkpoint leaves a hole below the heap's
/// frontier; the restored heap hands it out next, like the original.
#[test]
fn restored_heap_reuses_the_hole_a_free_left() {
    let (mut kernel, instance) = quiesced(2);
    let pid = instance.state.processes[0];
    let malloc = |kernel: &mut Kernel| {
        let (space, heap) = kernel.process_mut(pid).unwrap().space_and_heap_mut().unwrap();
        heap.malloc(space, 64, AllocSite(0), TypeTag(0)).unwrap()
    };
    let hole = malloc(&mut kernel);
    malloc(&mut kernel);
    let (space, heap) = kernel.process_mut(pid).unwrap().space_and_heap_mut().unwrap();
    heap.free(space, hole).unwrap();
    let mut store = MemStore::new();
    write_checkpoint(&mut kernel, &instance, &mut store, &CheckpointOptions::default()).unwrap();
    let mut restored = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!(malloc(&mut kernel), hole);
    assert_eq!(malloc(&mut restored.kernel), hole);
}

// ---------------------------------------------------------------------------
// Checksum coverage at blob level
// ---------------------------------------------------------------------------

#[test]
fn every_single_byte_flip_of_manifest_and_shards_is_rejected() {
    let (mut kernel, instance) = quiesced(2);
    let mut store = MemStore::new();
    let opts = CheckpointOptions { shard_writers: 2 };
    let summary = write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
    let (_, _, shard_meta) = read_manifest(&store, 1).unwrap();
    assert_eq!(shard_meta.len(), summary.shards);

    let name = manifest_blob(1);
    for offset in 0..summary.manifest_bytes as usize {
        store.corrupt_byte(&name, offset).unwrap();
        let err = read_manifest(&store, 1).err();
        assert_eq!(
            err,
            Some(RestoreError::ChecksumMismatch { blob: name.clone() }),
            "manifest offset {offset}"
        );
        store.corrupt_byte(&name, offset).unwrap();
    }
    for (i, &(len, checksum)) in shard_meta.iter().enumerate() {
        let name = blob_name(len, checksum);
        assert!(len > 0, "shard {i} holds records");
        for offset in 0..len as usize {
            store.corrupt_byte(&name, offset).unwrap();
            let err = read_shards(&store, &shard_meta).err();
            assert_eq!(
                err,
                Some(RestoreError::ChecksumMismatch { blob: name.clone() }),
                "shard {i} offset {offset}"
            );
            store.corrupt_byte(&name, offset).unwrap();
        }
    }
    // Every flip was undone: the checkpoint is intact.
    assert_eq!(restore_latest(&store, &mut factory(), None).unwrap().report.version, 1);
}

// ---------------------------------------------------------------------------
// File blobs
// ---------------------------------------------------------------------------

/// The one file [`booted`] installs.
const CONF: &str = "/etc/tiny.conf";

/// The name of the blob that holds `contents`.
fn content_name(contents: &[u8]) -> String {
    blob_name(contents.len() as u64, checksum64(contents, 0))
}

/// Replaces [`CONF`]'s contents through the kernel, as the first process.
fn rewrite_conf(kernel: &mut Kernel, instance: &McrInstance, contents: &[u8]) {
    let pid = instance.state.processes[0];
    let tid = kernel.process(pid).unwrap().main_tid();
    let open = Syscall::Open { path: CONF.into(), create: false };
    let fd = kernel.syscall(pid, tid, open).unwrap().as_fd().unwrap();
    kernel.syscall(pid, tid, Syscall::Write { fd, data: contents.to_vec() }).unwrap();
    kernel.syscall(pid, tid, Syscall::Close { fd }).unwrap();
}

/// Ways to damage a stored file blob.
#[derive(Debug, Clone, Copy)]
enum Damage {
    Flip,
    Delete,
    Truncate,
}

impl Damage {
    const ALL: [Damage; 3] = [Damage::Flip, Damage::Delete, Damage::Truncate];

    fn apply(self, store: &mut MemStore, blob: &str) {
        match self {
            Damage::Flip => store.corrupt_byte(blob, 4).unwrap(),
            Damage::Delete => store.delete_blob(blob).unwrap(),
            Damage::Truncate => store.truncate_blob(blob, 3).unwrap(),
        }
    }

    /// The typed error the damaged version is rejected with.
    fn error(self, blob: &str) -> RestoreError {
        match self {
            Damage::Flip => RestoreError::ChecksumMismatch { blob: blob.into() },
            Damage::Delete | Damage::Truncate => RestoreError::Truncated { blob: blob.into() },
        }
    }
}

#[test]
fn file_contents_travel_as_blobs_the_manifest_only_names() {
    let (mut kernel, instance) = quiesced(1);
    let mut store = MemStore::new();
    write_checkpoint(&mut kernel, &instance, &mut store, &CheckpointOptions::default()).unwrap();
    assert_eq!(store.read_blob(&content_name(b"workers=2\n")).unwrap(), b"workers=2\n");
    let (image, _, _) = read_manifest(&store, 1).unwrap();
    let [file] = &image.files[..] else { panic!("one file") };
    assert_eq!((file.path.as_str(), file.len, file.checksum), (CONF, 10, checksum64(b"workers=2\n", 0)));
}

/// v2 rewrites the file, so its blob is v2's alone.
#[test]
fn damaged_file_blob_falls_back_to_the_previous_version() {
    for damage in Damage::ALL {
        let (mut kernel, mut instance) = booted();
        let mut store = MemStore::new();
        let opts = CheckpointOptions::default();
        drive_traffic(&mut kernel, &mut instance, 2);
        wait_quiescence(&mut kernel, &mut instance, QUIESCE_ROUNDS).unwrap();
        let v1 = kernel.fingerprint();
        write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
        resume(&mut kernel, &mut instance);
        drive_traffic(&mut kernel, &mut instance, 2);
        rewrite_conf(&mut kernel, &instance, b"workers=3");
        checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
        assert_ne!(kernel.fingerprint(), v1, "v2 differs from v1");

        let blob = content_name(b"workers=3\n");
        assert!(!manifest_blobs(&store, 1).unwrap().contains(&blob), "v1 does not name v2's file blob");
        damage.apply(&mut store, &blob);
        let err =
            restore_version(&store, 2, factory()(), &mut StepCtx { counter: 0, fault: None }).unwrap_err();
        assert_eq!(err, damage.error(&blob), "{damage:?}");
        let restored = restore_latest(&store, &mut factory(), None).unwrap();
        assert_eq!((restored.report.version, restored.report.versions_rejected), (1, 1), "{damage:?}");
        assert_eq!(restored.kernel.fingerprint(), v1, "{damage:?}");
        let recorded = read_manifest(&store, 1).unwrap().1;
        assert_eq!(live_digest(&restored.kernel, &restored.instance), Ok(recorded), "{damage:?}");
    }
}

#[test]
fn damaged_file_blob_of_the_only_version_is_a_typed_error() {
    for damage in Damage::ALL {
        let (mut kernel, instance) = quiesced(1);
        let mut store = MemStore::new();
        write_checkpoint(&mut kernel, &instance, &mut store, &CheckpointOptions::default()).unwrap();
        let blob = content_name(b"workers=2\n");
        damage.apply(&mut store, &blob);
        assert_eq!(restore_latest(&store, &mut factory(), None).err(), Some(damage.error(&blob)));
    }
    // Every single flipped byte of a file blob is caught.
    let (mut kernel, instance) = quiesced(1);
    let mut store = MemStore::new();
    write_checkpoint(&mut kernel, &instance, &mut store, &CheckpointOptions::default()).unwrap();
    let blob = content_name(b"workers=2\n");
    for offset in 0..store.read_blob(&blob).unwrap().len() {
        store.corrupt_byte(&blob, offset).unwrap();
        let err = restore_latest(&store, &mut factory(), None).err();
        assert_eq!(err, Some(RestoreError::ChecksumMismatch { blob: blob.clone() }), "offset {offset}");
        store.corrupt_byte(&blob, offset).unwrap();
    }
    assert_eq!(restore_latest(&store, &mut factory(), None).unwrap().report.version, 1);
}

/// A blob two versions share has no intact predecessor: damaging it fails
/// both versions with the typed error, and restore returns that error rather
/// than any image.
#[test]
fn damaged_shared_blob_is_a_typed_error_for_every_version_naming_it() {
    for damage in Damage::ALL {
        let (mut kernel, mut instance) = booted();
        let mut store = MemStore::new();
        let opts = CheckpointOptions::default();
        drive_traffic(&mut kernel, &mut instance, 2);
        checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
        drive_traffic(&mut kernel, &mut instance, 2);
        checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
        let blob = content_name(b"workers=2\n");
        for version in [1, 2] {
            assert!(manifest_blobs(&store, version).unwrap().contains(&blob), "v{version} names the file");
        }

        damage.apply(&mut store, &blob);
        for version in [1, 2] {
            let mut ctx = StepCtx { counter: 0, fault: None };
            let err = restore_version(&store, version, factory()(), &mut ctx).unwrap_err();
            assert_eq!(err, damage.error(&blob), "{damage:?}, v{version}");
        }
        assert_eq!(
            restore_latest(&store, &mut factory(), None).err(),
            Some(damage.error(&blob)),
            "{damage:?}"
        );
    }
}

/// A second checkpoint of an unchanged instance finds every shard and file
/// blob held by the first: it writes its manifest alone.
#[test]
fn a_checkpoint_of_an_unchanged_instance_writes_only_its_manifest() {
    let (mut kernel, instance) = quiesced(3);
    scribble(&mut kernel, &instance);
    let mut store = MemStore::new();
    let opts = CheckpointOptions { shard_writers: 2 };
    let first = write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
    let fp = kernel.fingerprint();
    let second = write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
    assert!(first.blocks > second.blocks);
    assert_eq!(second.blocks, second.manifest_bytes.div_ceil(4096), "only the manifest's blocks");
    assert_eq!(manifest_blobs(&store, 1), manifest_blobs(&store, 2));
    let restored = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!((restored.report.version, restored.kernel.fingerprint()), (2, fp));
}

/// A blob torn by a crash is present but named by no sealed manifest, so the
/// next checkpoint writes it again rather than reusing it.
#[test]
fn a_torn_file_blob_is_rewritten_by_the_next_checkpoint() {
    let (mut kernel, instance) = quiesced(2);
    let conf = content_name(b"workers=2\n");
    let fp = kernel.fingerprint();
    let mut store = MemStore::new();
    let opts = CheckpointOptions::default();
    // Tear each block in turn until the torn one is the file blob's.
    let mut block = 1;
    loop {
        store.arm_write_fault(WriteFault::TornAt(store.blocks_written() + block));
        let err = write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap_err();
        store.recover();
        match err {
            CheckpointError::Store(StoreError::Crashed { blob, .. }) if blob == conf => break,
            CheckpointError::Store(StoreError::Crashed { .. }) => block += 1,
            other => panic!("block {block}: {other:?}"),
        }
    }
    assert_ne!(store.read_blob(&conf).unwrap(), b"workers=2\n", "the file blob is torn");
    assert!(list_versions(&store).is_empty(), "no manifest went down");

    let summary = write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
    assert_eq!(summary.version, 1);
    assert_eq!(store.read_blob(&conf).unwrap(), b"workers=2\n", "the file blob is written again");
    let restored = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!((restored.report.version, restored.kernel.fingerprint()), (1, fp));
}

/// A file written after one checkpoint restores from the next with its new
/// bytes: the write dropped the checksum the first checkpoint had the
/// kernel compute, so the second one records the new contents' checksum.
#[test]
fn file_written_between_checkpoints_restores_with_its_new_bytes() {
    let (mut kernel, mut instance) = booted();
    let mut store = MemStore::new();
    let opts = CheckpointOptions::default();
    drive_traffic(&mut kernel, &mut instance, 1);
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
    rewrite_conf(&mut kernel, &instance, b"workers=3");
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();

    let restored = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!((restored.report.version, restored.report.versions_rejected), (2, 0));
    let files: Vec<_> = restored.kernel.files().collect();
    assert_eq!(files, [(CONF, &b"workers=3\n"[..], checksum64(b"workers=3\n", 0))]);
    let recorded = read_manifest(&store, 2).unwrap().1;
    assert_eq!(live_digest(&restored.kernel, &restored.instance), Ok(recorded));
}

#[test]
fn torn_write_at_every_block_of_a_checkpoint_is_rejected() {
    let opts = CheckpointOptions { shard_writers: 2 };
    let mut block = 1;
    loop {
        let (mut kernel, mut instance) = booted();
        let mut store = MemStore::new();
        drive_traffic(&mut kernel, &mut instance, 2);
        checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).unwrap();
        let v1_blocks = store.blocks_written();
        drive_traffic(&mut kernel, &mut instance, 2);
        store.arm_write_fault(WriteFault::TornAt(v1_blocks + block));
        let torn = match checkpoint_now(&mut kernel, &mut instance, &mut store, &opts) {
            // The fault site lies past v2's last block: every block was swept.
            Ok(summary) => {
                assert_eq!(summary.blocks, block - 1);
                assert!(block > 3, "v2 spans shards and a manifest");
                break;
            }
            Err(CheckpointError::Store(StoreError::Crashed { blob, .. })) => blob,
            Err(e) => panic!("got {e:?}"),
        };
        store.recover();
        let restored = restore_latest(&store, &mut factory(), None).unwrap();
        assert_eq!(restored.report.version, 1, "torn block {block} of v2 must not restore");
        // A torn blob claims no version; a torn manifest claims v2, which
        // restore rejects.
        let claimed = torn == manifest_blob(2);
        assert_eq!(list_versions(&store).contains(&2), claimed, "torn block {block} of {torn}");
        assert_eq!(restored.report.versions_rejected, usize::from(claimed), "torn block {block}");
        block += 1;
    }
}

#[test]
fn digest_is_independent_of_the_shard_split() {
    // The simulation is deterministic, so each split sees the same state
    // (one kernel would not do: a write charges the clock, which is state).
    let digests: Vec<u64> = [1, 2, 4]
        .into_iter()
        .map(|shard_writers| {
            let (mut kernel, instance) = quiesced(4);
            scribble(&mut kernel, &instance);
            let mut store = MemStore::new();
            let opts = CheckpointOptions { shard_writers };
            let summary = write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
            assert_eq!(summary.shards, shard_writers);
            read_manifest(&store, 1).unwrap().1
        })
        .collect();
    let (mut kernel, instance) = quiesced(4);
    scribble(&mut kernel, &instance);
    assert_eq!(digests, [live_digest(&kernel, &instance).unwrap(); 3]);
}

// ---------------------------------------------------------------------------
// Streaming encoder vs the collecting reference
// ---------------------------------------------------------------------------

/// The pre-streaming writer, kept as the equality reference: it clones the
/// live state into a [`StateImage`] and encodes that.
mod reference {
    use super::*;

    /// Collects the manifest state + page-delta records from a live (quiesced)
    /// kernel/instance pair. Fully deterministic: every collection is sorted.
    pub(super) fn collect_state(
        kernel: &Kernel,
        instance: &McrInstance,
    ) -> Result<(StateImage, Vec<DeltaRecord>), CheckpointError> {
        let mut pids: Vec<Pid> = instance.state.processes.clone();
        pids.sort();
        pids.dedup();
        if pids.is_empty() {
            return Err(CheckpointError::Unsupported("instance has no processes".into()));
        }
        let first = kernel
            .process(pids[0])
            .map_err(|e| CheckpointError::Unsupported(format!("missing process: {e}")))?;
        let layout_slide = first.layout().slide();

        let mut processes = Vec::with_capacity(pids.len());
        let mut deltas = Vec::new();
        for &pid in &pids {
            let proc = kernel
                .process(pid)
                .map_err(|e| CheckpointError::Unsupported(format!("missing process {pid}: {e}")))?;
            let mut threads: Vec<(u32, String, bool)> = proc
                .threads()
                .map(|t| (t.tid().0, t.name().to_string(), matches!(t.state(), ThreadState::Exited)))
                .collect();
            threads.sort();
            let space = proc.space();
            let mut regions = Vec::new();
            for region in space.regions() {
                regions.push(RegionImage {
                    base: region.base().0,
                    size: region.size(),
                    kind: region.kind(),
                    name: region.name().to_string(),
                    writable: region.is_writable(),
                });
                // Every post-startup-written page (nonzero soft-dirty stamp) is a
                // delta; startup-written pages reproduce via deterministic
                // re-boot and carry stamp 0 after `clear_soft_dirty`.
                let mut addr = region.base();
                for page in region.pages() {
                    let epoch = region.page_dirty_epoch(addr);
                    if epoch != 0 {
                        let len = (region.end().0 - addr.0).min(PAGE_SIZE) as usize;
                        // A page stamped by its mapping but never stored to is
                        // absent and reads as zeros.
                        let bytes = page.map_or_else(|| vec![0; len], |bytes| bytes[..len].to_vec());
                        deltas.push(DeltaRecord { pid: pid.0, addr: addr.0, epoch, bytes });
                    }
                    addr = addr.offset(PAGE_SIZE);
                }
            }
            let chunks: Vec<ChunkImage> = match proc.heap() {
                Some(heap) => {
                    let mut v: Vec<ChunkInfo> = heap.live_chunks(space).collect();
                    v.sort_by_key(|c| c.payload.0);
                    v.into_iter()
                        .map(|c| ChunkImage {
                            payload: c.payload.0,
                            size: c.size,
                            site: c.site.0,
                            tag: c.type_tag.0,
                            startup: c.startup,
                        })
                        .collect()
                }
                None => Vec::new(),
            };
            let mut fds: Vec<FdImage> = proc
                .fds()
                .iter()
                .map(|(fd, entry)| FdImage {
                    fd: fd.0,
                    obj: entry.object.0,
                    cloexec: entry.cloexec,
                    inherited: entry.inherited,
                })
                .collect();
            fds.sort_by_key(|f| f.fd);
            let heap = proc.heap().expect("every instance process has a heap");
            let (next_pool, pools) = proc.regions().pools();
            let pools = pools
                .map(|(id, storage, size, used, parent, objects)| PoolImage {
                    id,
                    storage,
                    size,
                    used,
                    parent,
                    objects: objects.to_vec(),
                })
                .collect();
            processes.push(ProcImage {
                pid: pid.0,
                name: proc.name().to_string(),
                threads,
                write_epoch: space.write_epoch(),
                regions,
                chunks,
                frontier: heap.free_space().0,
                free_chunks: heap.free_space().1.clone(),
                next_pool,
                pools,
                fds,
            });
        }

        let mut objects: Vec<ObjImage> = kernel
            .objects()
            .iter()
            .map(|(id, obj)| ObjImage { id: id.0, rc: kernel.objects().refcount(id), obj: obj.clone() })
            .collect();
        objects.sort_by_key(|o| o.id);

        let image = StateImage {
            program_name: instance.state.program_name.clone(),
            program_version: instance.state.version.clone(),
            config: instance.state.config,
            layout_slide,
            clock_ns: kernel.now().0,
            next_conn: kernel.next_conn_id(),
            // Hashed here, not taken from the kernel's cache.
            files: kernel
                .files()
                .map(|(path, contents, _)| FileImage {
                    path: path.to_string(),
                    len: contents.len() as u64,
                    checksum: checksum64(contents, 0),
                })
                .collect(),
            clients: kernel
                .clients()
                .map(|c| ClientSnapshot {
                    conn: c.conn,
                    port: c.port,
                    accepted: c.accepted,
                    closed: c.closed,
                    from_server: c.from_server.iter().cloned().collect(),
                    pending_to_server: c.pending_to_server.iter().cloned().collect(),
                })
                .collect(),
            processes,
            objects,
        };
        Ok((image, deltas))
    }

    pub(super) fn encode(image: &StateImage) -> Vec<u8> {
        let mut e = Enc::default();
        e.str(&image.program_name);
        e.str(&image.program_version);
        e.u8(level_to_u8(image.config.level));
        e.u8(u8::from(image.config.instrument_region_allocator));
        e.u64(image.layout_slide);
        e.u8(0);
        e.u64(image.clock_ns);
        e.u64(image.next_conn);
        e.u32(image.files.len() as u32);
        for f in &image.files {
            e.str(&f.path);
            e.u64(f.len);
            e.u64(f.checksum);
        }
        e.u32(image.clients.len() as u32);
        for c in &image.clients {
            e.u64(c.conn);
            e.u16(c.port);
            e.u8(u8::from(c.accepted));
            e.u8(u8::from(c.closed));
            e.u32(c.from_server.len() as u32);
            for m in &c.from_server {
                e.bytes(m);
            }
            e.u32(c.pending_to_server.len() as u32);
            for m in &c.pending_to_server {
                e.bytes(m);
            }
        }
        e.u32(image.processes.len() as u32);
        for p in &image.processes {
            e.u32(p.pid);
            e.str(&p.name);
            e.u32(p.threads.len() as u32);
            for (tid, name, exited) in &p.threads {
                e.u32(*tid);
                e.str(name);
                e.u8(u8::from(*exited));
            }
            e.u64(p.write_epoch);
            e.u32(p.regions.len() as u32);
            for r in &p.regions {
                e.u64(r.base);
                e.u64(r.size);
                e.u8(kind_to_u8(r.kind));
                e.str(&r.name);
                e.u8(u8::from(r.writable));
            }
            e.u32(p.chunks.len() as u32);
            for c in &p.chunks {
                e.u64(c.payload);
                e.u64(c.size);
                e.u64(c.site);
                e.u64(c.tag);
                e.u8(u8::from(c.startup));
            }
            e.u64(p.frontier);
            e.u32(p.free_chunks.len() as u32);
            for (&offset, &size) in &p.free_chunks {
                e.u64(offset);
                e.u64(size);
            }
            e.u64(p.next_pool);
            e.u32(p.pools.len() as u32);
            for pool in &p.pools {
                e.u64(pool.id.0);
                e.u64(pool.storage.0);
                e.u64(pool.size);
                e.u64(pool.used);
                e.u64(pool.parent.map_or(0, |parent| parent.0));
                e.u32(pool.objects.len() as u32);
                for &(obj, size, site, tag) in &pool.objects {
                    e.u64(obj.0);
                    e.u64(size);
                    e.u64(site.0);
                    e.u64(tag.0);
                }
            }
            e.u32(p.fds.len() as u32);
            for f in &p.fds {
                e.u32(f.fd as u32);
                e.u64(f.obj);
                e.u8(u8::from(f.cloexec));
                e.u8(u8::from(f.inherited));
            }
        }
        e.u32(image.objects.len() as u32);
        for o in &image.objects {
            e.u64(o.id);
            e.u32(o.rc);
            encode_object(&mut e, &o.obj);
        }
        e.buf
    }
    /// The digest over records serialized field by field (the wire form
    /// [`DeltaRecord::decode`] reads), not through [`PageDelta::header`].
    pub(super) fn digest(state_bytes: &[u8], deltas: &[DeltaRecord]) -> u64 {
        deltas.iter().fold(checksum64(state_bytes, 0), |h, d| {
            let mut e = Enc::default();
            e.u32(d.pid);
            e.u64(d.addr);
            e.u64(d.epoch);
            e.bytes(&d.bytes);
            let (header, payload) = e.buf.split_at(DELTA_HEADER_LEN);
            checksum64(payload, checksum64(header, h))
        })
    }
}

/// Asserts the streamed state section, delta stream and digest equal what the
/// collecting reference produces for the same live state.
fn assert_streaming_matches_reference(kernel: &Kernel, instance: &McrInstance) {
    let (image, deltas) = reference::collect_state(kernel, instance).unwrap();
    let expected = reference::encode(&image);

    let procs = live_processes(kernel, instance).unwrap();
    let mut e = Enc::default();
    encode_live_state(kernel, instance, &procs, &mut e);
    assert!(e.buf == expected, "state section differs from the reference encoding");

    let live = live_deltas(&procs);
    assert_eq!(live.len(), deltas.len());
    for (l, d) in live.iter().zip(&deltas) {
        assert_eq!((l.pid, l.addr, l.epoch, l.bytes), (d.pid, d.addr, d.epoch, d.bytes.as_slice()));
    }
    assert_eq!(live_digest(kernel, instance).unwrap(), reference::digest(&expected, &deltas));
}

/// A full pipe of at least `len` bytes whose ring buffer has wrapped: the
/// contents are split across both halves of the deque's storage.
fn wrapped_pipe(len: usize) -> VecDeque<u8> {
    let mut buffer: VecDeque<u8> = VecDeque::with_capacity(len);
    buffer.extend((0..buffer.capacity()).map(|i| (i * 31 % 251) as u8));
    for _ in 0..buffer.len() / 2 {
        let byte = buffer.pop_front().unwrap();
        buffer.push_back(byte ^ 0x5a);
    }
    assert!(!buffer.as_slices().1.is_empty(), "pipe contents must wrap around");
    buffer
}

/// Adds what the plain TinyServer run lacks: an accepted connection whose
/// client has closed (its endpoint gone), an endpoint whose server closed
/// with one reply unread, a connected-but-unaccepted client with queued
/// request bytes, a non-empty pipe, a Unix channel with an in-flight
/// descriptor, a freed heap chunk, an instrumented pool with a child and a
/// carved object, and the [`scribble`] region. Returns the closed client's
/// connection id.
fn enrich(kernel: &mut Kernel, instance: &McrInstance) -> ConnId {
    let pid = instance.state.processes[0];
    let tid = kernel.process(pid).unwrap().main_tid();
    let listener = kernel
        .process(pid)
        .unwrap()
        .fds()
        .iter()
        .find(|(_, e)| matches!(kernel.objects().get(e.object), Some(KernelObject::Listener { .. })))
        .map(|(fd, _)| fd)
        .unwrap();
    let accept = |kernel: &mut Kernel| {
        let conn = kernel.client_connect(8080).unwrap();
        (conn, kernel.syscall(pid, tid, Syscall::Accept { fd: listener }).unwrap().as_fd().unwrap())
    };
    let (closed, _) = accept(kernel);
    kernel.client_close(closed).unwrap();
    assert!(kernel.clients().all(|c| c.conn != closed.0));
    let (_, fd) = accept(kernel);
    kernel.syscall(pid, tid, Syscall::Write { fd, data: b"200 unread\n".to_vec() }).unwrap();
    kernel.syscall(pid, tid, Syscall::Close { fd }).unwrap();
    assert!(kernel.clients().any(|c| c.accepted && c.from_server.len() == 1));

    let conn = kernel.client_connect(8080).unwrap();
    kernel.client_send(conn, b"GET /early\n".to_vec()).unwrap();
    kernel.client_send(conn, b"GET /second\n".to_vec()).unwrap();
    let objects = kernel.objects_mut();
    let file = objects.insert(KernelObject::File { path: "/etc/tiny.conf".into(), offset: 3 });
    objects.insert(KernelObject::Pipe { buffer: wrapped_pipe(300) });
    objects.insert(KernelObject::UnixChannel {
        name: "ctl".into(),
        inbox: VecDeque::from([UnixMessage { data: b"take this".to_vec(), objects: vec![file] }]),
    });
    let proc = kernel.process_mut(pid).unwrap();
    proc.set_region_allocator(mcr_procsim::RegionAllocator::new(true));
    let (space, heap, regions) = proc.space_heap_regions_mut().unwrap();
    let freed = heap.malloc(space, 40, AllocSite(0), TypeTag(0)).unwrap();
    let pool = regions.create_pool(space, heap, 512, None).unwrap();
    regions.create_pool(space, heap, 256, Some(pool)).unwrap();
    regions.palloc(space, pool, 24, AllocSite(7), TypeTag(3)).unwrap();
    heap.free(space, freed).unwrap();
    scribble(kernel, instance);
    closed
}

#[test]
fn streaming_encoder_matches_the_collecting_reference() {
    let (mut kernel, instance) = quiesced(5);
    assert_streaming_matches_reference(&kernel, &instance);
    // Plus a reply left unread at a server close, a client the server has
    // not accepted yet, a pipe and a channel with an in-flight descriptor,
    // an absent stamped page and a region that ends mid-page.
    enrich(&mut kernel, &instance);
    assert!(kernel.clients().any(|c| !c.accepted && c.pending_to_server.len() == 2));
    let procs = live_processes(&kernel, &instance).unwrap();
    let deltas = live_deltas(&procs);
    let at = |page: u64| deltas.iter().find(|d| d.addr == SCRATCH_BASE.0 + page * PAGE_SIZE).unwrap();
    assert!(at(5).bytes.iter().all(|&b| b == 0) && at(5).bytes.len() == PAGE_SIZE as usize);
    assert_eq!(at(6).bytes.len(), 100);
    assert_streaming_matches_reference(&kernel, &instance);
}

#[test]
fn decoding_the_streamed_state_reproduces_what_the_kernel_reports() {
    let (mut kernel, instance) = quiesced(3);
    let closed = enrich(&mut kernel, &instance);
    let procs = live_processes(&kernel, &instance).unwrap();
    let mut e = Enc::default();
    encode_live_state(&kernel, &instance, &procs, &mut e);
    let image = StateImage::decode(&e.buf).unwrap();

    assert_eq!(image.program_name, instance.state.program_name);
    assert_eq!(image.program_version, instance.state.version);
    assert_eq!(image.config, instance.state.config);
    assert_eq!(image.clock_ns, kernel.now().0);
    assert_eq!(image.next_conn, kernel.next_conn_id());
    assert_eq!(image.layout_slide, procs[0].1.layout().slide());
    assert_eq!(image.files.len(), kernel.files().len());
    for (f, (path, contents, checksum)) in image.files.iter().zip(kernel.files()) {
        assert_eq!((f.path.as_str(), f.len, f.checksum), (path, contents.len() as u64, checksum));
    }
    assert_eq!(image.clients.len(), kernel.clients().len());
    assert!(image.clients.iter().all(|c| c.conn != closed.0), "a closed endpoint is not recorded");
    assert!(image.clients.iter().any(|c| c.from_server == [b"200 unread\n".to_vec()]));
    for (snap, live) in image.clients.iter().zip(kernel.clients()) {
        assert_eq!(
            (snap.conn, snap.port, snap.accepted, snap.closed),
            (live.conn, live.port, live.accepted, live.closed)
        );
        assert!(snap.from_server.iter().eq(live.from_server));
        assert!(snap.pending_to_server.iter().eq(live.pending_to_server));
    }
    assert_eq!(image.processes.len(), procs.len());
    for (img, &(pid, proc)) in image.processes.iter().zip(&procs) {
        assert_eq!((img.pid, img.name.as_str()), (pid.0, proc.name()));
        let threads: Vec<(u32, String, bool)> = proc
            .threads()
            .map(|t| (t.tid().0, t.name().to_string(), matches!(t.state(), ThreadState::Exited)))
            .collect();
        assert_eq!(img.threads, threads);
        assert_eq!(img.write_epoch, proc.space().write_epoch());
        assert_eq!(img.regions.len(), proc.space().regions().count());
        for (r, live) in img.regions.iter().zip(proc.space().regions()) {
            assert_eq!(
                (r.base, r.size, r.kind, r.name.as_str(), r.writable),
                (live.base().0, live.size(), live.kind(), live.name(), live.is_writable())
            );
        }
        let chunks: Vec<ChunkInfo> = proc.heap().unwrap().live_chunks(proc.space()).collect();
        assert_eq!(img.chunks.len(), chunks.len());
        for (c, live) in img.chunks.iter().zip(&chunks) {
            assert_eq!(
                (c.payload, c.size, c.site, c.tag, c.startup),
                (live.payload.0, live.size, live.site.0, live.type_tag.0, live.startup)
            );
        }
        let (frontier, free_chunks) = proc.heap().unwrap().free_space();
        assert_eq!((img.frontier, &img.free_chunks), (frontier, free_chunks));
        let (next_pool, pools) = proc.regions().pools();
        assert_eq!(img.next_pool, next_pool);
        assert!(img
            .pools
            .iter()
            .map(|p| (p.id, p.storage, p.size, p.used, p.parent, &p.objects[..]))
            .eq(pools));
        assert_eq!(img.fds.len(), proc.fds().len());
        for (f, (fd, entry)) in img.fds.iter().zip(proc.fds().iter()) {
            assert_eq!(
                (f.fd, f.obj, f.cloexec, f.inherited),
                (fd.0, entry.object.0, entry.cloexec, entry.inherited)
            );
        }
    }
    assert_eq!(image.objects.len(), kernel.objects().len());
    for o in &image.objects {
        assert_eq!(Some(&o.obj), kernel.objects().get(ObjId(o.id)));
        assert_eq!(o.rc, kernel.objects().refcount(ObjId(o.id)));
    }
}

#[test]
fn wrapped_around_pipe_roundtrips_byte_identically() {
    let buffer = wrapped_pipe(64 * 1024);
    assert!(buffer.len() >= 64 * 1024);
    let mut e = Enc::default();
    encode_object(&mut e, &KernelObject::Pipe { buffer: buffer.clone() });
    // Wire form: tag, u32 length, raw bytes in queue order.
    assert_eq!(e.buf.len(), 1 + 4 + buffer.len());
    assert!(e.buf[5..].iter().eq(buffer.iter()));
    let mut d = Dec::new(&e.buf);
    assert_eq!(decode_object(&mut d), Ok(KernelObject::Pipe { buffer }));
    assert!(d.done());
}

// ---------------------------------------------------------------------------
// Restore consumes its image; delta stream order
// ---------------------------------------------------------------------------

#[test]
fn restoring_twice_from_one_store_gives_identical_kernels() {
    let (mut kernel, instance) = quiesced(4);
    scribble(&mut kernel, &instance);
    let fp = kernel.fingerprint();
    let mut store = MemStore::new();
    write_checkpoint(&mut kernel, &instance, &mut store, &CheckpointOptions::default()).unwrap();
    // Restore moves files, objects and clients out of its decoded image; the
    // store is untouched, so a second restore sees all of them again.
    let first = restore_latest(&store, &mut factory(), None).unwrap();
    let second = restore_latest(&store, &mut factory(), None).unwrap();
    assert_eq!(first.report, second.report);
    assert_eq!(first.kernel.fingerprint(), fp);
    assert_eq!(second.kernel.fingerprint(), fp);
    let recorded = read_manifest(&store, 1).unwrap().1;
    for restored in [&first, &second] {
        assert_eq!(live_digest(&restored.kernel, &restored.instance), Ok(recorded));
        assert!(restored.kernel.files().eq(kernel.files()));
        assert_eq!(restored.kernel.clients().len(), kernel.clients().len());
        assert_eq!(restored.kernel.objects().len(), kernel.objects().len());
    }
}

#[test]
fn delta_stream_out_of_pid_order_is_a_typed_reconcile_error() {
    let (mut kernel, instance) = quiesced(2);
    let mut store = MemStore::new();
    let opts = CheckpointOptions { shard_writers: 1 };
    write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
    // Forge a last record owned by a pid below the manifest's only process,
    // then re-seal the shard sum in the manifest's shard table and the
    // manifest trailer: every checksum passes, only the order is wrong.
    let mut shard = store.read_blob(&shard_name(&store, 1, 0)).unwrap();
    let (_, _, shard_meta) = read_manifest(&store, 1).unwrap();
    let deltas = read_shards(&store, &shard_meta).unwrap();
    let last = shard.len() - (DELTA_HEADER_LEN + deltas.last().unwrap().bytes.len());
    shard[last..last + 4].copy_from_slice(&1u32.to_le_bytes());
    replace_sole_shard(&mut store, &shard);

    let err = restore_latest(&store, &mut factory(), None).unwrap_err();
    assert!(matches!(&err, RestoreError::Reconcile(why) if why.contains("pid order")), "got {err:?}");
}

/// Stores `shard` as version 1's only shard, then re-seals its sum in the
/// manifest's shard table and the manifest trailer, so every checksum
/// passes.
fn replace_sole_shard(store: &mut MemStore, shard: &[u8]) {
    store.write_blob(&content_name(shard), shard).unwrap();
    let mut manifest = store.read_blob(&manifest_blob(1)).unwrap();
    let sum_slot = MAGIC.len() + 4 + 8 + 8 + 4 + 8;
    manifest[sum_slot..sum_slot + 8].copy_from_slice(&checksum64(shard, 0).to_le_bytes());
    reseal(&mut manifest);
    store.write_blob(&manifest_blob(1), &manifest).unwrap();
}

#[test]
fn resealed_payload_change_is_caught_by_the_digest_check() {
    let (mut kernel, instance) = quiesced(2);
    scribble(&mut kernel, &instance);
    let mut store = MemStore::new();
    let opts = CheckpointOptions { shard_writers: 1 };
    write_checkpoint(&mut kernel, &instance, &mut store, &opts).unwrap();
    // Change one byte [`scribble`] stored, in a delta payload, and re-seal:
    // only the state digest, recomputed from the revived kernel, can tell.
    let (_, recorded, shard_meta) = read_manifest(&store, 1).unwrap();
    let deltas = read_shards(&store, &shard_meta).unwrap();
    let at = deltas.iter().position(|d| d.addr == SCRATCH_BASE.0).unwrap();
    let record: usize = deltas[..at].iter().map(|d| DELTA_HEADER_LEN + d.bytes.len()).sum();
    let mut shard = store.read_blob(&shard_name(&store, 1, 0)).unwrap();
    shard[record + DELTA_HEADER_LEN + 8] ^= 0x80;
    replace_sole_shard(&mut store, &shard);

    let err = restore_latest(&store, &mut factory(), None).unwrap_err();
    assert!(
        matches!(err, RestoreError::DigestMismatch { expected, found } if expected == recorded && found != recorded),
        "got {err:?}"
    );
}
