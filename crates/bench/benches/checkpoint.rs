//! Checkpoint crash-consistency campaign: durable manifests under injected
//! torn writes, block-granular crashes, restore-step faults, direct
//! corruption and supervised recovery.
//!
//! Runs [`CheckpointSpec::smoke`] — every store block a checkpoint writes
//! is attacked twice (crash-at-block and torn-block), every enumerated
//! restore step is failed once, and the durable supervisor is driven
//! through old-instance crashes — then asserts:
//!
//! * the baseline checkpoint/restore roundtrip is byte-identical (kernel
//!   fingerprint) and the restored instance serves;
//! * every crash point recovered to a byte-identical durable version or
//!   was rejected with a typed checksum error while the old version kept
//!   serving (zero divergences);
//! * the modelled shard-writer makespan beats the serial sum;
//! * retention keeps exactly the newest versions.
//!
//! Emits the `BENCH_checkpoint.json` document on stdout; the CI smoke step
//! re-asserts the same properties from the JSON.

use mcr_bench::{checkpoint_json, checkpoint_render, run_checkpoint_campaign, CheckpointSpec};

fn main() {
    let spec = CheckpointSpec::smoke();
    let out = run_checkpoint_campaign(&spec);
    eprint!("{}", checkpoint_render(&out));

    assert!(out.clean(), "campaign diverged — repros: {:?}", out.repros);
    assert!(out.fingerprint_identical, "restore is not byte-identical");
    assert!(out.restored_serves, "restored instance does not serve");
    assert!(out.blocks > 0, "no store blocks enumerated");
    assert!(out.capped.is_empty(), "smoke campaign must sweep every crash point: {:?}", out.capped);
    assert_eq!(out.crash_drills + out.torn_drills, 2 * out.blocks as usize);
    assert_eq!(
        out.recovered_durable + out.recovered_fallback,
        out.crash_drills + out.torn_drills,
        "every crash point must recover to a durable version"
    );
    assert_eq!(out.restore_step_typed, out.restore_step_drills, "untyped restore-step failure");
    assert_eq!(out.corruption_fallbacks, 3, "corruption drills must fall back to the intact version");
    assert_eq!(out.corruption_typed, 2, "skew/all-corrupt drills must fail typed");
    assert_eq!(out.supervisor_recovered, out.supervisor_drills, "supervisor failed to recover");
    assert_eq!(out.supervisor_committed, out.supervisor_drills, "recovered ladder failed to commit");
    assert!(out.retention_ok, "retention kept the wrong versions");
    assert!(out.writer_speedup > 1.0, "parallel shard writeback gained nothing: {}", out.writer_speedup);

    println!("{}", checkpoint_json(&spec, &out).render());
}
