//! Crash-resume determinism for the sharded exploration fleet
//! (DESIGN.md §13).
//!
//! The fleet's whole robustness claim is that process failure is
//! *invisible in the results*: a worker SIGKILLed mid-shard, retried by
//! the coordinator and resumed from its atomic checkpoint, must produce a
//! merged manifest **byte-identical** — deviations, coverage populations,
//! clusters, everything — to an uninterrupted run. This test proves it at
//! 1, 2, and 4 workers, plus the poisoned-shard demotion path and the
//! fleet run-ledger record.
//!
//! `harness = false`: this binary is also the fleet worker. The
//! coordinator's default `worker_cmd` is `current_exe() worker ...`, so
//! when the coordinator under test spawns workers it re-invokes this very
//! test binary; `main` dispatches `worker` argv straight into
//! [`pokemu::harness::fleet::worker_main`] before any test runs.

use std::path::PathBuf;
use std::time::Duration;

use pokemu::harness::fleet::{self, FleetConfig, ShardStatus};
use pokemu_rt::history;

/// The workload every scenario runs: one first byte (0xf7 — MUL/DIV/NOT/
/// NEG/TEST group, 16 classes, known deviations) with a small path cap,
/// big enough to spread across 4 shards and to deviate, small enough to
/// stay fast even when every worker is killed once.
fn config(run_id: &str, root: &str, shards: usize) -> FleetConfig {
    FleetConfig {
        run_id: run_id.to_owned(),
        shards,
        first_byte: Some(0xf7),
        second_byte: None,
        max_paths_per_insn: 16,
        max_attempts: 3,
        backoff_base: Duration::from_millis(10),
        backoff_seed: 7,
        heartbeat_interval: Duration::from_millis(20),
        heartbeat_stale: Duration::from_secs(30),
        worker_cmd: Vec::new(),
        worker_env: Vec::new(),
        root: Some(PathBuf::from(root)),
        incremental: false,
        ledger: false,
    }
}

fn scratch(name: &str) -> String {
    // Cargo runs test binaries with the *package* dir as CWD, so a relative
    // "target" would land in crates/core/; resolve the workspace target dir.
    pokemu_rt::target_dir()
        .join("fleet-test")
        .join(name)
        .display()
        .to_string()
}

fn read_merged(root: &str) -> String {
    let path = format!("{root}/merged.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Kill-one-worker drill at every shard width: every non-empty shard's
/// worker is SIGKILLed right after its first checkpoint
/// (`fleet.checkpoint:kill:1` in the *worker* environment only — the
/// coordinator must not die), and the resumed run's merged manifest must
/// equal the clean run's byte for byte.
fn crash_resume_is_byte_identical() {
    for shards in [1usize, 2, 4] {
        let clean_root = scratch(&format!("clean-{shards}"));
        let killed_root = scratch(&format!("killed-{shards}"));
        for root in [&clean_root, &killed_root] {
            let _ = std::fs::remove_dir_all(root);
        }

        let clean =
            fleet::run_fleet(&config("recovery", &clean_root, shards)).expect("clean fleet run");
        assert!(clean.poisoned.is_empty(), "clean run poisoned: {clean:?}");
        assert!(clean.deviations > 0, "workload must deviate to be evidence");

        let mut killed_cfg = config("recovery", &killed_root, shards);
        killed_cfg.worker_env = vec![(
            "POKEMU_FAULT".to_owned(),
            "fleet.checkpoint:kill:1".to_owned(),
        )];
        let killed = fleet::run_fleet(&killed_cfg).expect("killed fleet run completes");

        assert!(
            killed.poisoned.is_empty(),
            "{shards} shard(s): kill-once must be survivable, got {killed:?}"
        );
        assert!(
            killed.shards.iter().any(|s| s.attempts >= 2),
            "{shards} shard(s): at least one worker must actually have been \
             killed and retried, got {killed:?}"
        );
        assert_eq!(
            read_merged(&clean_root),
            read_merged(&killed_root),
            "{shards} shard(s): merged manifest after SIGKILL + resume must \
             be byte-identical to the uninterrupted run"
        );
    }
}

/// Poisoned-shard semantics: a shard whose every spawn fails (the
/// `fleet.spawn` fault point, keyed by shard index, armed in the
/// *coordinator*) exhausts its attempts and is demoted to `poisoned`,
/// while the other shard completes and the run still returns `Ok`.
fn poisoned_shard_is_quarantined_by_name() {
    let root = scratch("poison");
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = config("poison", &root, 2);
    cfg.max_attempts = 2;

    pokemu_rt::fault::arm("fleet.spawn:unknown:0").expect("valid fault spec");
    let outcome = fleet::run_fleet(&cfg);
    pokemu_rt::fault::disarm();
    let outcome = outcome.expect("a poisoned shard must not abort the run");

    assert_eq!(outcome.poisoned, vec!["shard-0".to_owned()]);
    let shard0 = &outcome.shards[0];
    assert!(
        matches!(shard0.status, ShardStatus::Poisoned(_)) && shard0.attempts == 2,
        "shard-0 must be poisoned after exactly max_attempts, got {shard0:?}"
    );
    assert_eq!(
        outcome.shards[1].status,
        ShardStatus::Completed,
        "the healthy shard must be unaffected"
    );
    assert!(
        read_merged(&root).contains("\"poisoned\":[\"shard-0\"]"),
        "the merged manifest must name the poisoned shard"
    );
}

/// The merge appends one `kind: "fleet"` record to the run ledger.
fn fleet_run_lands_in_ledger() {
    let hdir = scratch("ledger");
    let _ = std::fs::remove_dir_all(&hdir);
    std::env::set_var("POKEMU_HISTORY_DIR", &hdir);
    std::env::set_var("POKEMU_HISTORY", "1");

    let root = scratch("ledger-run");
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = config("ledger", &root, 2);
    cfg.ledger = true;
    let outcome = fleet::run_fleet(&cfg).expect("ledger fleet run");

    let records = history::load(&history::ledger_path()).expect("ledger parses");
    let rec = records.last().expect("one record appended");
    assert_eq!(rec.kind, "fleet");
    assert_eq!(rec.run_id, "ledger");
    assert_eq!(
        rec.det.get("count.deviations").copied(),
        Some(outcome.deviations as u64)
    );
    assert_eq!(rec.det.get("count.poisoned").copied(), Some(0));
    std::env::remove_var("POKEMU_HISTORY_DIR");
    std::env::remove_var("POKEMU_HISTORY");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        std::process::exit(fleet::worker_main(&args[1..]));
    }
    // Keep worker processes hermetic: nothing below must leak a ledger
    // append or inherit a fault spec from the ambient environment.
    std::env::remove_var("POKEMU_FAULT");
    std::env::set_var("POKEMU_HISTORY", "0");

    eprintln!("[fleet_recovery] crash_resume_is_byte_identical");
    crash_resume_is_byte_identical();
    eprintln!("[fleet_recovery] poisoned_shard_is_quarantined_by_name");
    poisoned_shard_is_quarantined_by_name();
    eprintln!("[fleet_recovery] fleet_run_lands_in_ledger");
    fleet_run_lands_in_ledger();
    println!("fleet_recovery: 3 scenarios passed");
}
