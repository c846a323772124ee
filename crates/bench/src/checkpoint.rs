//! Crash-consistency campaign for the durable checkpoint subsystem.
//!
//! Where `chaos.rs` attacks the *update pipeline*, this campaign attacks
//! the *durability layer* underneath it: the versioned, checksummed
//! checkpoint manifests of `mcr_core::transfer::checkpoint` and the restore
//! path that revives a kernel from them. Against one real server model it
//! proves, end to end:
//!
//! 1. **Roundtrip fidelity** — a checkpoint of the live server restores
//!    into a scratch kernel the [`Observed`] oracle finds identical to the
//!    checkpointed one, byte for byte and with the same program audit, and
//!    the restored instance serves a request like the original does. Every
//!    restore below is held to the same oracle.
//! 2. **Crash consistency** — for *every* store block a checkpoint writes,
//!    crashing at that block ([`WriteFault::CrashAt`]) or tearing it
//!    ([`WriteFault::TornAt`]) leaves the store in a state from which
//!    restore lands on a byte-identical image of *some* durable version
//!    (the interrupted one if its manifest made it down, else the previous
//!    one) — never a partial or merged state — while the serving instance
//!    keeps answering.
//! 3. **Restore-path robustness** — an injected failure at each of the
//!    [`RESTORE_STEPS`] surfaces as the typed
//!    [`RestoreError::FaultInjected`] and perturbs neither the store nor
//!    the serving side.
//! 4. **Corruption rejection** — torn shards, flipped manifest bytes,
//!    truncation, format skew and total-store corruption are rejected with
//!    typed errors; valid older versions are used when one exists.
//! 5. **Supervised recovery** — [`supervised_update_durable`] revives a
//!    crashed old instance from the latest durable checkpoint and still
//!    commits the update.
//!
//! Every deviation is recorded as a repro string; the campaign is fully
//! deterministic (simulated kernel, seeded by construction), so a repro
//! replays by rerunning the same drill.

use std::cell::RefCell;
use std::rc::Rc;

use mcr_core::runtime::{
    resume, supervised_update_durable, wait_quiescence, ChaosPlan, McrInstance, SupervisorPolicy,
    UpdateOptions,
};
use mcr_core::transfer::checkpoint::{
    checkpoint_now, list_versions, restore_latest, write_checkpoint, CheckpointOptions, CheckpointSummary,
    RestoreError, RestoredInstance, RESTORE_STEPS,
};
use mcr_core::{PhaseName, Program};
use mcr_procsim::{checksum64, Kernel, MemStore, Store, WriteFault};
use mcr_servers::program_by_name;
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::{run_workload, workload_for};

use crate::{served, Json, Observed};

/// Quiescence budget (barrier passes) for the campaign's own barriers.
const QUIESCE_ROUNDS: usize = 64;

/// Campaign sizing.
///
/// The program must have a *startup-determined* process topology (httpd,
/// nginx: master/worker, workers forked inside startup) — restore re-boots
/// the program deterministically, so session-per-connection programs
/// (vsftpd, sshd) with live sessions are rejected at `validate-topology`
/// by design.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSpec {
    /// Server model under test.
    pub(crate) program: &'static str,
    /// Standard-workload requests before the first checkpoint.
    pub(crate) requests: u64,
    /// Extra requests between checkpoint versions (makes v1 and v2 differ).
    pub(crate) extra_requests: u64,
    /// Idle connections open at checkpoint time.
    pub(crate) open_connections: usize,
    /// Shards (and modelled shard writers) per checkpoint.
    pub(crate) shard_writers: usize,
}

impl CheckpointSpec {
    /// The campaign behind the tracked `BENCH_checkpoint.json`, which the
    /// root `tests/tracked_reports.rs` rebuilds: every store block is a
    /// crash point and a torn point.
    pub fn smoke() -> Self {
        CheckpointSpec {
            program: "nginx",
            requests: 4,
            extra_requests: 3,
            open_connections: 4,
            shard_writers: 4,
        }
    }

    fn options(&self) -> CheckpointOptions {
        CheckpointOptions { shard_writers: self.shard_writers }
    }
}

/// Everything the campaign measured.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOutcome {
    /// Program under test.
    pub(crate) program: String,
    /// Store blocks one checkpoint writes — the crash-point space.
    pub blocks: u64,
    /// Reference checkpoint summary (second version, post-traffic).
    pub(crate) checkpoint: CheckpointSummary,
    /// The baseline roundtrip restored a byte-identical kernel with the
    /// same program audit.
    pub fingerprint_identical: bool,
    /// The restored instance served one more request like a fresh run of the
    /// checkpointed one: equal fingerprints and audits after it.
    pub restored_serves: bool,
    /// Crash-at-block drills run.
    pub crash_drills: usize,
    /// Torn-block drills run.
    pub torn_drills: usize,
    /// Drills whose recovery landed on the interrupted (newest) version.
    pub recovered_durable: usize,
    /// Drills whose recovery fell back to the previous version.
    pub recovered_fallback: usize,
    /// Any drill that broke the safety property (wrong fingerprint, old
    /// instance stopped serving, fault failed to fire, restore failed).
    pub(crate) divergences: usize,
    /// Restore-step fault drills run (== [`RESTORE_STEPS`] length).
    pub restore_step_drills: usize,
    /// Restore-step drills that surfaced the typed `FaultInjected` error.
    pub restore_step_typed: usize,
    /// Direct-corruption drills run (torn shard, flipped byte, truncation,
    /// format skew, every-version-corrupt).
    pub(crate) corruption_drills: usize,
    /// Corruption drills that fell back to a valid older version.
    pub corruption_fallbacks: usize,
    /// Corruption drills with no valid version left that were rejected with
    /// the expected typed error (no partial restore).
    pub corruption_typed: usize,
    /// Supervised-recovery drills run (one per crashed pipeline phase).
    pub supervisor_drills: usize,
    /// Drills where the supervisor revived the crashed old instance from
    /// the durable checkpoint.
    pub supervisor_recovered: usize,
    /// Drills where the recovered ladder still committed the update and the
    /// new version serves.
    pub supervisor_committed: usize,
    /// Retention kept exactly the configured number of newest versions.
    pub retention_ok: bool,
    /// Serial-over-parallel ratio of the reference checkpoint's modelled
    /// shard writeback.
    pub writer_speedup: f64,
    /// Human-readable reproducers for every deviation.
    pub repros: Vec<String>,
}

impl CheckpointOutcome {
    /// True when every drill upheld its property.
    pub fn clean(&self) -> bool {
        self.divergences == 0 && self.repros.is_empty()
    }
}

/// [`served`] at the campaign's sizes: the deterministic pre-checkpoint
/// state every drill starts from.
fn setup(spec: &CheckpointSpec) -> (Kernel, McrInstance) {
    served(spec.program, spec.requests, spec.open_connections, InstrumentationConfig::full())
}

/// Whether the instance still answers the standard workload.
fn serves(kernel: &mut Kernel, instance: &mut McrInstance, program: &str) -> bool {
    run_workload(kernel, instance, &workload_for(program, 1)).is_ok()
}

/// Whether a restored instance of [`setup`]'s first checkpoint serves like
/// the instance it was taken from. The original's main line goes on to
/// more traffic, so a fresh [`setup`], checkpointed the same way, stands in
/// for it: both serve one more request, and the oracle must then find them
/// identical.
fn serves_like_the_original(spec: &CheckpointSpec, restored: RestoredInstance) -> bool {
    let (mut kernel, mut instance) = setup(spec);
    checkpoint_now(&mut kernel, &mut instance, &mut MemStore::new(), &spec.options()).expect("checkpoint");
    let (mut rk, mut ri) = (restored.kernel, restored.instance);
    resume(&mut rk, &mut ri);
    serves(&mut kernel, &mut instance, spec.program)
        && serves(&mut rk, &mut ri, spec.program)
        && Observed::of(&rk, &ri, None) == Observed::of(&kernel, &instance, None)
}

/// Program factory for restore (same generation that was checkpointed).
fn gen1(spec: &CheckpointSpec) -> impl FnMut() -> Box<dyn Program> + '_ {
    move || Box::new(program_by_name(spec.program, 1))
}

/// One crash-point drill: checkpoint v1, mutate, then attempt v2 with a
/// write fault armed at the `n`-th block of the new checkpoint. Asserts the
/// old instance keeps serving and recovery lands on a byte-identical image
/// of v1 or (if its manifest became durable before the crash) v2.
fn crash_drill(spec: &CheckpointSpec, n: u64, torn: bool, out: &mut CheckpointOutcome) {
    let what = if torn { "torn" } else { "crash" };
    let opts = spec.options();
    let (mut kernel, mut instance) = setup(spec);
    let mut store = MemStore::new();
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).expect("v1 checkpoint");
    let v1 = Observed::of(&kernel, &instance, None);
    run_workload(&mut kernel, &mut instance, &workload_for(spec.program, spec.extra_requests))
        .expect("extra traffic");
    // Quiesce by hand so the fingerprint of the interrupted version is
    // captured at its exact snapshot point.
    wait_quiescence(&mut kernel, &mut instance, QUIESCE_ROUNDS).expect("quiesce for v2");
    let v2 = Observed::of(&kernel, &instance, None);
    let at = store.blocks_written() + n;
    store.arm_write_fault(if torn { WriteFault::TornAt(at) } else { WriteFault::CrashAt(at) });
    let result = write_checkpoint(&mut kernel, &instance, &mut store, &opts);
    store.disarm_write_fault();
    resume(&mut kernel, &mut instance);
    if torn {
        out.torn_drills += 1;
    } else {
        out.crash_drills += 1;
    }
    if result.is_ok() {
        out.divergences += 1;
        out.repros.push(format!("{what}:{n}: fault never fired (checkpoint succeeded)"));
        return;
    }
    if !serves(&mut kernel, &mut instance, spec.program) {
        out.divergences += 1;
        out.repros.push(format!("{what}:{n}: old instance stopped serving after failed checkpoint"));
        return;
    }
    // Remount the (possibly torn) store and recover.
    store.recover();
    match restore_latest(&store, &mut gen1(spec), None) {
        Ok(restored) => {
            let image = Observed::of(&restored.kernel, &restored.instance, None);
            if image == v2 {
                out.recovered_durable += 1;
            } else if image == v1 {
                out.recovered_fallback += 1;
            } else {
                out.divergences += 1;
                out.repros.push(format!(
                    "{what}:{n}: restored v{} matches neither snapshot; against v2: {:?}",
                    restored.report.version,
                    image.divergences(&v2)
                ));
            }
        }
        Err(e) => {
            out.divergences += 1;
            out.repros.push(format!("{what}:{n}: recovery failed: {e}"));
        }
    }
}

/// Restore-step fault drills: each enumerated step must fail typed without
/// touching the store or the serving instance.
fn restore_step_drills(spec: &CheckpointSpec, out: &mut CheckpointOutcome) {
    let opts = spec.options();
    let (mut kernel, mut instance) = setup(spec);
    let mut store = MemStore::new();
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).expect("v1 checkpoint");
    let v1 = Observed::of(&kernel, &instance, None);
    for step in 1..=RESTORE_STEPS.len() as u64 {
        out.restore_step_drills += 1;
        match restore_latest(&store, &mut gen1(spec), Some(step)) {
            Err(RestoreError::FaultInjected { step: s, .. }) if s == step => {
                out.restore_step_typed += 1;
            }
            Err(e) => out.repros.push(format!("restore-step:{step}: wrong error: {e}")),
            Ok(_) => out.repros.push(format!("restore-step:{step}: fault never fired")),
        }
    }
    // The drills were read-only: a clean restore still revives v1 exactly,
    // and the serving side never noticed.
    match restore_latest(&store, &mut gen1(spec), None) {
        Ok(restored) if Observed::of(&restored.kernel, &restored.instance, None) == v1 => {}
        Ok(_) => {
            out.divergences += 1;
            out.repros.push("restore-step: post-drill restore diverged from v1".into());
        }
        Err(e) => {
            out.divergences += 1;
            out.repros.push(format!("restore-step: post-drill restore failed: {e}"));
        }
    }
    if !serves(&mut kernel, &mut instance, spec.program) {
        out.divergences += 1;
        out.repros.push("restore-step: serving instance perturbed by restore drills".into());
    }
}

/// Direct-corruption drills against a store holding two valid versions.
fn corruption_drills(spec: &CheckpointSpec, out: &mut CheckpointOutcome) {
    let opts = spec.options();
    let (mut kernel, mut instance) = setup(spec);
    let mut store = MemStore::new();
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).expect("v1 checkpoint");
    let v1 = Observed::of(&kernel, &instance, None);
    let v1_blobs = store.list();
    run_workload(&mut kernel, &mut instance, &workload_for(spec.program, spec.extra_requests))
        .expect("extra traffic");
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).expect("v2 checkpoint");

    let manifests: Vec<String> = store.list().into_iter().filter(|n| n.ends_with("/MANIFEST")).collect();
    assert_eq!(manifests.len(), 2, "two versions retained");
    let (m1, m2) = (manifests[0].clone(), manifests[1].clone());
    // Blobs are named by content and shared between versions: a shard blob
    // v2 alone names is one v2 wrote (absent after v1) that holds no file.
    let s2 = store
        .list()
        .into_iter()
        .filter(|n| !n.ends_with("/MANIFEST") && !v1_blobs.contains(n))
        .find(|n| {
            let bytes = store.read_blob(n).expect("blob readable");
            kernel.files().all(|(_, contents, _)| contents != bytes)
        })
        .expect("v2 shard blob");
    let pristine_m2 = store.read_blob(&m2).expect("v2 manifest readable");

    // Falls back to v1 with a byte-identical image, or the drill diverged.
    let expect_fallback = |store: &MemStore, label: &str, out: &mut CheckpointOutcome| {
        out.corruption_drills += 1;
        match restore_latest(store, &mut gen1(spec), None) {
            Ok(restored)
                if restored.report.version == 1
                    && restored.report.versions_rejected >= 1
                    && Observed::of(&restored.kernel, &restored.instance, None) == v1 =>
            {
                out.corruption_fallbacks += 1;
            }
            Ok(restored) => {
                out.divergences += 1;
                out.repros.push(format!(
                    "corruption:{label}: restored v{} instead of falling back to an intact v1",
                    restored.report.version
                ));
            }
            Err(e) => {
                out.divergences += 1;
                out.repros.push(format!("corruption:{label}: no fallback, restore failed: {e}"));
            }
        }
    };

    // 1. Torn shard payload: manifest valid, shard checksum mismatch.
    store.corrupt_byte(&s2, 0).expect("corrupt shard");
    expect_fallback(&store, "shard-byte", out);
    // 2. Flipped manifest body byte.
    store.corrupt_byte(&m2, pristine_m2.len() / 2).expect("corrupt manifest");
    expect_fallback(&store, "manifest-byte", out);
    // 3. Truncated manifest (below the framing minimum).
    store.truncate_blob(&m2, 4).expect("truncate manifest");
    expect_fallback(&store, "manifest-truncated", out);

    // 4. Every version corrupt: v2 stays truncated, v1's checksum trailer
    // is flipped — restore must reject everything with a typed error, not
    // revive a partial image.
    let m1_len = store.read_blob(&m1).expect("v1 manifest readable").len();
    store.corrupt_byte(&m1, m1_len - 1).expect("corrupt v1 trailer");
    out.corruption_drills += 1;
    match restore_latest(&store, &mut gen1(spec), None) {
        Err(RestoreError::ChecksumMismatch { .. } | RestoreError::Truncated { .. }) => {
            out.corruption_typed += 1;
        }
        Err(e) => {
            out.divergences += 1;
            out.repros.push(format!("corruption:all-corrupt: wrong error class: {e}"));
        }
        Ok(restored) => {
            out.divergences += 1;
            out.repros.push(format!(
                "corruption:all-corrupt: restored v{} from a fully corrupt store",
                restored.report.version
            ));
        }
    }

    // 5. Format skew: re-seal v2's manifest with a flipped format field and
    // a *valid* checksum — the restorer must refuse with `VersionSkew`
    // (checksum passes, so this is not mere corruption).
    let mut skewed = pristine_m2;
    skewed[8] ^= 0xFF;
    let body_len = skewed.len() - 8;
    let sum = checksum64(&skewed[..body_len], 0);
    skewed[body_len..].copy_from_slice(&sum.to_le_bytes());
    store.write_blob(&m2, &skewed).expect("write skewed manifest");
    out.corruption_drills += 1;
    match restore_latest(&store, &mut gen1(spec), None) {
        Err(RestoreError::VersionSkew { .. }) => out.corruption_typed += 1,
        Err(e) => {
            out.divergences += 1;
            out.repros.push(format!("corruption:format-skew: wrong error class: {e}"));
        }
        Ok(_) => {
            out.divergences += 1;
            out.repros.push("corruption:format-skew: skewed manifest restored".into());
        }
    }

    // None of the above touched the serving side.
    if !serves(&mut kernel, &mut instance, spec.program) {
        out.divergences += 1;
        out.repros.push("corruption: serving instance perturbed by corruption drills".into());
    }
}

/// Supervised-recovery drills: the old instance crashes before a pipeline
/// phase; the durable supervisor must revive it from the latest checkpoint
/// and still commit the update.
fn supervisor_drills(spec: &CheckpointSpec, out: &mut CheckpointOutcome) {
    for phase in [PhaseName::TraceAndTransfer, PhaseName::Commit] {
        let (mut kernel, instance) = setup(spec);
        let store: Rc<RefCell<MemStore>> = Rc::new(RefCell::new(MemStore::new()));
        let (mut survivor, outcome) = supervised_update_durable(
            &mut kernel,
            instance,
            gen1(spec),
            || Box::new(program_by_name(spec.program, 2)),
            InstrumentationConfig::full(),
            &UpdateOptions::default(),
            &SupervisorPolicy::default(),
            store.clone() as Rc<RefCell<dyn Store>>,
            spec.options(),
            move |attempt| {
                if attempt == 1 {
                    ChaosPlan::crashing_old_before(phase)
                } else {
                    ChaosPlan::none()
                }
            },
        );
        out.supervisor_drills += 1;
        let label = phase.label();
        if outcome.report().attempts.iter().any(|a| a.recovered) {
            out.supervisor_recovered += 1;
        } else {
            out.divergences += 1;
            out.repros.push(format!("supervisor:{label}: crash was never recovered from"));
        }
        if outcome.is_committed() && serves(&mut kernel, &mut survivor, spec.program) {
            out.supervisor_committed += 1;
        } else {
            out.divergences += 1;
            out.repros.push(format!(
                "supervisor:{label}: recovered ladder did not commit a serving update: {:?}",
                outcome.conflicts()
            ));
        }
    }
}

/// Runs the whole campaign.
pub fn run_checkpoint_campaign(spec: &CheckpointSpec) -> CheckpointOutcome {
    let opts = spec.options();
    let mut out = CheckpointOutcome { program: spec.program.to_string(), ..CheckpointOutcome::default() };

    // Reference run: baseline roundtrip (v1), then a second checkpoint that
    // sizes the crash-point space and reads the modelled writeback ratio.
    let (mut kernel, mut instance) = setup(spec);
    let mut store = MemStore::new();
    checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).expect("v1 checkpoint");
    let v1 = Observed::of(&kernel, &instance, None);
    assert!(v1.audit.is_some(), "{}: the checkpointed program audits its state", spec.program);
    match restore_latest(&store, &mut gen1(spec), None) {
        Ok(restored) => {
            out.fingerprint_identical = Observed::of(&restored.kernel, &restored.instance, None) == v1;
            out.restored_serves = serves_like_the_original(spec, restored);
        }
        Err(e) => out.repros.push(format!("baseline: restore failed: {e}")),
    }
    run_workload(&mut kernel, &mut instance, &workload_for(spec.program, spec.extra_requests))
        .expect("extra traffic");
    let reference = checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).expect("v2 checkpoint");
    out.blocks = reference.blocks;
    out.checkpoint = reference;
    out.writer_speedup = reference.speedup();

    // Crash-consistency sweep: every block of a checkpoint write is a crash
    // point and a torn point.
    for n in 1..=out.blocks {
        crash_drill(spec, n, false, &mut out);
        crash_drill(spec, n, true, &mut out);
    }

    restore_step_drills(spec, &mut out);
    corruption_drills(spec, &mut out);
    supervisor_drills(spec, &mut out);

    // Retention: four checkpoints with `retain = 2` keep exactly the newest
    // two versions.
    let (mut kernel, mut instance) = setup(spec);
    let mut store = MemStore::new();
    for _ in 0..4 {
        run_workload(&mut kernel, &mut instance, &workload_for(spec.program, 1)).expect("retention traffic");
        checkpoint_now(&mut kernel, &mut instance, &mut store, &opts).expect("retention checkpoint");
    }
    out.retention_ok = list_versions(&store) == vec![3, 4];
    if !out.retention_ok {
        out.repros.push(format!("retention: kept versions {:?}", list_versions(&store)));
    }

    out
}

/// Renders the campaign outcome as the `BENCH_checkpoint.json` document.
pub fn checkpoint_json(spec: &CheckpointSpec, out: &CheckpointOutcome) -> Json {
    Json::obj([
        ("experiment", Json::str("checkpoint_crash")),
        ("program", Json::str(&out.program)),
        ("requests", spec.requests.into()),
        ("open_connections", spec.open_connections.into()),
        ("shard_writers", spec.shard_writers.into()),
        ("blocks", out.blocks.into()),
        ("page_deltas", out.checkpoint.page_deltas.into()),
        ("delta_bytes", out.checkpoint.delta_bytes.into()),
        ("fingerprint_identical", Json::Bool(out.fingerprint_identical)),
        ("restored_serves", Json::Bool(out.restored_serves)),
        ("crash_drills", out.crash_drills.into()),
        ("torn_drills", out.torn_drills.into()),
        ("recovered_durable", out.recovered_durable.into()),
        ("recovered_fallback", out.recovered_fallback.into()),
        ("divergences", out.divergences.into()),
        ("restore_step_drills", out.restore_step_drills.into()),
        ("restore_step_typed", out.restore_step_typed.into()),
        ("corruption_drills", out.corruption_drills.into()),
        ("corruption_fallbacks", out.corruption_fallbacks.into()),
        ("corruption_typed", out.corruption_typed.into()),
        ("supervisor_drills", out.supervisor_drills.into()),
        ("supervisor_recovered", out.supervisor_recovered.into()),
        ("supervisor_committed", out.supervisor_committed.into()),
        ("retention_ok", Json::Bool(out.retention_ok)),
        ("writer_speedup", Json::Num(out.writer_speedup)),
        // Every block is swept, so nothing is capped; the field keeps the report's schema.
        ("capped", Json::Arr(Vec::new())),
        ("repros", Json::Arr(out.repros.iter().map(Json::str).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_core::runtime::live_update;
    use mcr_core::tracing::trace_process;
    use mcr_core::transfer::checkpoint::RestoreReport;
    use mcr_core::{Conflict, TraceOptions, TracingStats};
    use mcr_procsim::{SimDuration, Syscall, SyscallPort};

    /// No divergence.
    const NONE: [&str; 0] = [];

    /// A bounded campaign sized for debug-build test runs.
    fn quick() -> CheckpointSpec {
        CheckpointSpec {
            program: "nginx",
            requests: 2,
            extra_requests: 1,
            open_connections: 2,
            shard_writers: 2,
        }
    }

    /// `program` under `config` after the [`quick`] workload and `updates`
    /// live updates (generation `updates + 1`), checkpointed into the
    /// returned store and running again.
    fn checkpointed(
        program: &'static str,
        updates: u32,
        config: InstrumentationConfig,
    ) -> (Kernel, McrInstance, MemStore) {
        let spec = CheckpointSpec { program, ..quick() };
        let (mut kernel, mut instance) = served(program, spec.requests, spec.open_connections, config);
        for g in 2..=updates + 1 {
            let (updated, outcome) = live_update(
                &mut kernel,
                instance,
                Box::new(program_by_name(program, g)),
                config,
                &UpdateOptions::default(),
            );
            assert!(outcome.is_committed(), "{program} {g}: {:?}", outcome.conflicts());
            instance = updated;
        }
        let mut store = MemStore::new();
        checkpoint_now(&mut kernel, &mut instance, &mut store, &spec.options()).expect("checkpoint");
        (kernel, instance, store)
    }

    /// Restores the newest checkpoint in `store` as generation `updates + 1`
    /// of `program`.
    fn restore(
        store: &MemStore,
        program: &'static str,
        updates: u32,
    ) -> Result<RestoredInstance, RestoreError> {
        restore_latest(store, &mut || Box::new(program_by_name(program, updates + 1)), None)
    }

    /// Checkpoints `program` after its standard workload and `updates` live
    /// updates and restores it; returns what the checkpointed run observed
    /// too.
    fn roundtrip(program: &'static str, updates: u32) -> (Observed, Result<RestoredInstance, RestoreError>) {
        let (kernel, instance, store) = checkpointed(program, updates, InstrumentationConfig::full());
        (Observed::of(&kernel, &instance, None), restore(&store, program, updates))
    }

    #[test]
    fn multi_process_restore_report_is_pinned() {
        // nginx is master + two workers with dirty pages in several of them:
        // the per-process delta runs must add up to the checkpointed image.
        let (checkpointed, restored) = roundtrip("nginx", 0);
        let restored = restored.expect("nginx restores");
        assert_eq!(restored.instance.state.processes.len(), 3);
        assert_eq!(restored.report, RestoreReport { version: 1, versions_rejected: 0 });
        assert_eq!(Observed::of(&restored.kernel, &restored.instance, None).divergences(&checkpointed), NONE);
    }

    /// A flipped byte in the newest version's own blob of
    /// `/var/ftp/large.bin` — written through the kernel between the two
    /// checkpoints, so v1 names other bytes — rejects that version; the
    /// older one restores with its fingerprint and audit.
    #[test]
    fn flipped_file_blob_restores_the_previous_version() {
        const LARGE: &str = "/var/ftp/large.bin";
        let spec = quick();
        let (mut kernel, mut instance) = setup(&spec);
        let mut store = MemStore::new();
        checkpoint_now(&mut kernel, &mut instance, &mut store, &spec.options()).expect("v1 checkpoint");
        let v1 = Observed::of(&kernel, &instance, None);
        let v1_blobs = store.list();
        run_workload(&mut kernel, &mut instance, &workload_for(spec.program, spec.extra_requests))
            .expect("extra traffic");
        let pid = instance.state.processes[0];
        let tid = kernel.process(pid).expect("master").main_tid();
        let mut call = |syscall| kernel.syscall(pid, tid, syscall).expect("file syscall");
        let fd = call(Syscall::Open { path: LARGE.into(), create: false }).as_fd().expect("a descriptor");
        call(Syscall::Write { fd, data: b"rewritten".to_vec() });
        call(Syscall::Close { fd });
        checkpoint_now(&mut kernel, &mut instance, &mut store, &spec.options()).expect("v2 checkpoint");
        assert_ne!(Observed::of(&kernel, &instance, None).divergences(&v1), NONE, "v2 differs from v1");

        let (_, large, _) = kernel.files().find(|&(path, _, _)| path == LARGE).expect("large.bin");
        let blob = store
            .list()
            .into_iter()
            .filter(|n| !v1_blobs.contains(n))
            .find(|n| store.read_blob(n).expect("blob readable") == large)
            .expect("v2's own large.bin blob");
        store.corrupt_byte(&blob, 512 * 1024).expect("corrupt file blob");
        let restored = restore_latest(&store, &mut gen1(&spec), None).expect("v1 restores");
        assert_eq!((restored.report.version, restored.report.versions_rejected), (1, 1));
        assert_eq!(Observed::of(&restored.kernel, &restored.instance, None).divergences(&v1), NONE);
    }

    #[test]
    fn every_server_program_checkpoints_and_restores_or_is_rejected_typed() {
        for updates in 0..=2 {
            for program in ["httpd", "nginx"] {
                let what = format!("{program} after {updates} updates");
                let (checkpointed, restored) = roundtrip(program, updates);
                // Caveat: after two updates the audit reads `None` before and
                // after the restore. Without region instrumentation the first
                // update pins a worker's untyped pool chunk, which holds the
                // records, and the new process records it as one untyped pool
                // object. `conn_s*` points to the opaque `conn_fwd`, so no type
                // reaches the records in it: the second update copies the
                // chunk verbatim, and generation 3, whose `conn_s` gained
                // `started_at`, reads generation 2's layout.
                assert_eq!(checkpointed.audit.is_some(), updates < 2, "{what}: audit");
                let mut restored = restored.unwrap_or_else(|e| panic!("{what}: {e}"));
                let image = Observed::of(&restored.kernel, &restored.instance, None);
                assert_eq!(image.divergences(&checkpointed), NONE, "{what}");
                resume(&mut restored.kernel, &mut restored.instance);
                assert!(serves(&mut restored.kernel, &mut restored.instance, program), "{what}");
            }
            // Session-per-process servers with live sessions cannot be
            // re-booted into their topology; the writer still serializes
            // them. Their second update rolls back: generation 3 adds
            // `conn_s.started_at` to the records the first update pinned.
            for program in ["vsftpd", "sshd"] {
                if updates < 2 {
                    let (_, restored) = roundtrip(program, updates);
                    assert!(
                        matches!(restored, Err(RestoreError::TopologyMismatch(_))),
                        "{program} after {updates} updates: {restored:?}"
                    );
                    continue;
                }
                let (mut kernel, instance, _) = checkpointed(program, 1, InstrumentationConfig::full());
                let (_, outcome) = live_update(
                    &mut kernel,
                    instance,
                    Box::new(program_by_name(program, 3)),
                    InstrumentationConfig::full(),
                    &UpdateOptions::default(),
                );
                let record = Conflict::NonUpdatableObjectChanged {
                    object: "pool object from `handle_conn:conn`".into(),
                    old_type: "conn_s".into(),
                    new_type: "conn_s".into(),
                };
                let conflicts = outcome.conflicts();
                assert!(
                    !conflicts.is_empty() && conflicts.iter().all(|c| *c == record),
                    "{program}: {conflicts:?}"
                );
            }
        }
    }

    /// A restored instance behaves like the original once it serves: after
    /// 0, 1 and 2 live updates, the checkpointed httpd or nginx and its
    /// restored copy serve the same three extra requests, then update to
    /// their own generation again, and the oracle finds them identical
    /// after each step. A restored generation 2 keeps its audit through
    /// that update: the pool table that holds its pinned records came back
    /// with the checkpoint (after two updates both audits read `None`; see
    /// `every_server_program_checkpoints_and_restores_or_is_rejected_typed`).
    #[test]
    fn restored_instance_serves_like_the_original() {
        for updates in 0..=2 {
            for program in ["httpd", "nginx"] {
                let what = format!("{program} after {updates} updates");
                let (mut kernel, mut instance, store) =
                    checkpointed(program, updates, InstrumentationConfig::full());
                let restored = restore(&store, program, updates).unwrap_or_else(|e| panic!("{what}: {e}"));
                let (mut rk, mut ri) = (restored.kernel, restored.instance);
                resume(&mut rk, &mut ri);
                // The manifest's clock predates the checkpoint's simulated
                // writeback, which the original's clock carries. The copy
                // resumes at the original's time, as the durable supervisor
                // revives it: generation 3 stamps each connection record
                // with the time.
                rk.advance_clock(SimDuration(kernel.now().0 - rk.now().0));
                for request in 1..=3 {
                    assert!(
                        serves(&mut kernel, &mut instance, program),
                        "{what}: original, request {request}"
                    );
                    assert!(serves(&mut rk, &mut ri, program), "{what}: restored, request {request}");
                    let original = Observed::of(&kernel, &instance, None);
                    assert_eq!(
                        Observed::of(&rk, &ri, None).divergences(&original),
                        NONE,
                        "{what}, request {request}"
                    );
                }
                let again = |kernel: &mut Kernel, instance| {
                    let new = Box::new(program_by_name(program, updates + 1));
                    let config = InstrumentationConfig::full();
                    let (updated, outcome) =
                        live_update(kernel, instance, new, config, &UpdateOptions::default());
                    assert!(outcome.is_committed(), "{what}: {:?}", outcome.conflicts());
                    Observed::of(kernel, &updated, Some(&outcome))
                };
                let original = again(&mut kernel, instance);
                assert_eq!(again(&mut rk, ri).divergences(&original), NONE, "{what}, updated again");
                assert_eq!(original.audit.is_some(), updates < 2, "{what}: audit after updating again");
            }
        }
    }

    /// With the region allocator instrumented, every restored process
    /// traces like its original and reads the same resident bytes, before
    /// and after an update: the pools' object registries came back with the
    /// checkpoint, the pool of records the update pinned included.
    #[test]
    fn restored_processes_trace_like_the_originals_under_region_instrumentation() {
        let trace = |kernel: &Kernel, instance: &McrInstance| -> Vec<(TracingStats, u64)> {
            let trace_one = |&pid| {
                let resident = kernel.process(pid).unwrap().resident_bytes();
                (trace_process(kernel, &instance.state, pid, TraceOptions).unwrap().stats, resident)
            };
            instance.state.processes.iter().map(trace_one).collect()
        };
        for (program, updates) in [("httpd", 0), ("nginx", 0), ("httpd", 1)] {
            let config = InstrumentationConfig::full_with_region_instrumentation();
            let (kernel, instance, store) = checkpointed(program, updates, config);
            let restored = restore(&store, program, updates).unwrap_or_else(|e| panic!("{program}: {e}"));
            let what = format!("{program} after {updates} updates");
            assert_eq!(trace(&restored.kernel, &restored.instance), trace(&kernel, &instance), "{what}");
        }
    }

    /// A crash in an update of an instance that was itself live-updated is
    /// recovered from: the checkpoint of generation 2 restores, and the
    /// retry commits generation 3.
    #[test]
    fn durable_update_of_a_live_updated_instance_recovers_a_crash() {
        for program in ["nginx", "httpd"] {
            let spec = CheckpointSpec { program, ..quick() };
            let (mut kernel, instance) = setup(&spec);
            let (mut instance, outcome) = live_update(
                &mut kernel,
                instance,
                Box::new(program_by_name(program, 2)),
                InstrumentationConfig::full(),
                &UpdateOptions::default(),
            );
            assert!(outcome.is_committed(), "{program}: {:?}", outcome.conflicts());
            assert!(serves(&mut kernel, &mut instance, program), "{program}");
            let store: Rc<RefCell<MemStore>> = Rc::new(RefCell::new(MemStore::new()));
            let (mut survivor, outcome) = supervised_update_durable(
                &mut kernel,
                instance,
                || Box::new(program_by_name(program, 2)),
                || Box::new(program_by_name(program, 3)),
                InstrumentationConfig::full(),
                &UpdateOptions::default(),
                &SupervisorPolicy::default(),
                store as Rc<RefCell<dyn Store>>,
                spec.options(),
                |attempt| match attempt {
                    1 => ChaosPlan::crashing_old_before(PhaseName::Commit),
                    _ => ChaosPlan::none(),
                },
            );
            assert!(outcome.is_committed(), "{program}: {:?}", outcome.conflicts());
            assert!(outcome.report().attempts[0].recovered, "{program}: the crash was recovered from");
            assert_eq!(survivor.state.version, program_by_name(program, 3).version(), "{program}");
            assert!(serves(&mut kernel, &mut survivor, program), "{program}");
        }
    }
}
