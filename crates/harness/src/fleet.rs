//! Crash-safe sharded exploration fleet (DESIGN.md §12).
//!
//! The paper's cost story (§6: 545 h of test generation) only amortizes if
//! long campaigns survive crashes and re-validation is incremental. This
//! module is the ROADMAP's "fleet mode": a *coordinator* process partitions
//! the instruction space into shards by a stable hash of the opcode-class
//! name, spawns one *worker process* per shard (`pokemu-fleet worker
//! --shard N`), and merges the per-shard artifacts under
//! `target/fleet/<run>/` — run documents ([`crate::record`]) are the only
//! interchange format, no sockets, no extra dependencies. The merge folds
//! the shards' per-instruction results exactly as `run_cross_validation`
//! folds its own, so its deterministic sections equal a single-process
//! run's.
//!
//! Robustness core, mirroring the in-process layers one level up:
//!
//! - **Checkpoint-resume**: a worker's checkpoint is its shard manifest.
//!   After *every* completed instruction it rewrites `shard-N/manifest.json`
//!   atomically (write-temp + rename) with `"completed": false`, carrying
//!   the per-instruction results and the cumulative coverage snapshot; the
//!   finished shard rewrites it once more with `"completed": true`. A
//!   worker killed mid-shard — SIGKILL included — resumes from the last
//!   unfinished manifest and reproduces the uninterrupted run's merged
//!   manifest byte for byte (`tests/fleet_recovery.rs`).
//! - **Watchdog + retry**: the coordinator polls worker exit status and the
//!   per-shard heartbeat file; a non-zero exit, a missing or unfinished
//!   manifest, or a stale heartbeat fails the attempt, and the shard is
//!   retried with bounded exponential backoff whose jitter is a pure
//!   function of `(seed, shard, attempt)` — the retry schedule replays
//!   exactly.
//! - **Process-level quarantine**: a shard that exhausts its attempts is
//!   demoted to a `poisoned` record in the merged manifest (the process
//!   analogue of PR-4's item quarantine); the run still completes, and
//!   `pokemu-report diff` gates on poisoned-shard growth by name.
//! - **Incremental re-validation**: a re-run skips shards whose finished
//!   manifest carries the same config fingerprint.
//!
//! Failure drills are first-class: the `fleet.spawn`, `fleet.heartbeat`,
//! and `fleet.checkpoint` fault points accept the same `POKEMU_FAULT` spec
//! grammar as `pool.item`/`solver.check`, so CI can SIGKILL a worker after
//! its first checkpoint (`fleet.checkpoint:kill:1`) or starve every spawn
//! (`fleet.spawn:unknown:*`) deterministically.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use pokemu_explore::{explore_instruction_space, InsnSpaceConfig};
use pokemu_lofi::Fidelity;
use pokemu_rt::coverage::CoverageSnapshot;
use pokemu_rt::json::escape;
use pokemu_rt::{fault, metrics, rng, write_atomic};
use pokemu_testgen::fnv1a;

use crate::pipeline::{run_item, CrossValidation, INSN_DEADLINE_ENV, RUN_DEADLINE_ENV};
use crate::record::{self, note_write_failure, InsnRecord, RunDoc};
use crate::targets::baseline_snapshot;

/// Environment variable a worker sets to its shard name (`shard-N`) so
/// write-failure degradation ([`crate::record::note_write_failure`]) can
/// attribute artifact-write errors to the shard that hit them.
pub const SHARD_ENV: &str = "POKEMU_FLEET_SHARD";

/// Coordinator poll period for worker exits and heartbeat staleness.
const POLL: Duration = Duration::from_millis(10);

/// Fleet configuration: the workload slice (same knobs as
/// [`crate::pipeline::PipelineConfig`]) plus the process-fleet policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Run id: names `target/fleet/<run-id>/` and the merged manifest.
    pub run_id: String,
    /// Number of shards = number of worker processes.
    pub shards: usize,
    /// Restrict exploration to one first byte (None = whole space).
    pub first_byte: Option<u8>,
    /// Restrict the second byte as well.
    pub second_byte: Option<u8>,
    /// Per-instruction path cap (8192 in the paper).
    pub max_paths_per_insn: usize,
    /// Total attempts per shard before it is poisoned (≥ 1).
    pub max_attempts: u32,
    /// Backoff base: attempt k retries after `base·2^(k-1)` plus a seeded
    /// jitter in `[0, base)`.
    pub backoff_base: Duration,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Worker heartbeat write period.
    pub heartbeat_interval: Duration,
    /// Heartbeat age past which the watchdog kills the worker.
    pub heartbeat_stale: Duration,
    /// Worker argv prefix; empty means `[current_exe, "worker"]`, which is
    /// what both `pokemu-fleet` and the recovery test binary dispatch on.
    pub worker_cmd: Vec<String>,
    /// Extra environment for spawned workers (e.g. a `POKEMU_FAULT` spec
    /// that must arm the workers but not the coordinator).
    pub worker_env: Vec<(String, String)>,
    /// Artifact root; None = `target/fleet/<run-id>/`.
    pub root: Option<PathBuf>,
    /// Skip shards whose finished manifest carries this run's config
    /// fingerprint.
    pub incremental: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            run_id: "fleet".to_owned(),
            shards: 2,
            first_byte: None,
            second_byte: None,
            max_paths_per_insn: 8192,
            max_attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_seed: 0x9e37_79b9_7f4a_7c15,
            heartbeat_interval: Duration::from_millis(250),
            heartbeat_stale: Duration::from_secs(30),
            worker_cmd: Vec::new(),
            worker_env: Vec::new(),
            root: None,
            incremental: true,
        }
    }
}

/// How one shard ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// The shard's worker finished and its manifest was merged.
    Completed,
    /// The shard was skipped: its previous artifacts were still valid.
    Reused,
    /// Every attempt failed; the shard is quarantined at process level.
    Poisoned(String),
}

/// One shard's final report.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard name (`shard-N`).
    pub name: String,
    /// Worker attempts consumed (0 for a reused shard).
    pub attempts: u32,
    /// Terminal state.
    pub status: ShardStatus,
}

/// A finished fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The run id.
    pub run_id: String,
    /// Artifact root (`target/fleet/<run-id>/` unless overridden).
    pub root: PathBuf,
    /// Path of the merged manifest.
    pub merged_path: PathBuf,
    /// Per-shard terminal reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Poisoned shard names, sorted (empty on a healthy run).
    pub poisoned: Vec<String>,
    /// Shards skipped by incremental re-validation.
    pub reused: usize,
    /// Instructions across all merged shards.
    pub unique_instructions: usize,
    /// Explored paths across all merged shards.
    pub total_paths: usize,
    /// Deviations in the merged manifest (all shards' records, in global
    /// instruction order — shard partitioning guarantees no duplicates).
    pub deviations: usize,
}

/// Stable shard assignment: FNV-1a of the opcode-class name, mod the shard
/// count. A pure function of the class, so every worker computes the same
/// partition from its own instruction-space exploration — the coordinator
/// never ships work lists.
pub fn shard_of(class_name: &str, shards: usize) -> usize {
    (fnv1a(class_name.as_bytes()) % shards.max(1) as u64) as usize
}

/// Environment variables that shape a shard's results: fault injection and
/// the solver, run and per-instruction budgets. Observer toggles
/// (coverage, profiling, tracing) change no result and are left out.
const TRACKED_ENV: [&str; 5] = [
    fault::FAULT_ENV,
    pokemu_solver::SOLVER_DEADLINE_ENV,
    pokemu_solver::SOLVER_FUEL_ENV,
    RUN_DEADLINE_ENV,
    INSN_DEADLINE_ENV,
];

/// Config fingerprint for a fleet run: 16 hex digits of FNV-1a over the
/// workload-shaping fields, the shard count (a different partition
/// invalidates per-shard reuse) and the [`TRACKED_ENV`] variables that
/// `env` reports set.
fn config_fingerprint(config: &FleetConfig, env: impl Fn(&str) -> Option<String>) -> String {
    let mut parts = vec![
        format!("first_byte={:?}", config.first_byte),
        format!("second_byte={:?}", config.second_byte),
        format!("max_paths_per_insn={}", config.max_paths_per_insn),
        format!("shards={}", config.shards),
    ];
    parts.extend(
        TRACKED_ENV
            .iter()
            .filter_map(|key| Some(format!("{key}={}", env(key)?))),
    );
    format!("{:016x}", fnv1a(parts.join("\x1f").as_bytes()))
}

fn shard_name(shard: usize) -> String {
    format!("shard-{shard}")
}

/// The manifest of `dir`'s shard, if it is finished and belongs to the run
/// with config fingerprint `config_fp`.
fn finished_shard(dir: &Path, config_fp: &str) -> Option<RunDoc> {
    let doc = record::read(&dir.join("manifest.json")).ok()?;
    (doc.results.completed && shard_fp(&doc) == Some(config_fp)).then_some(doc)
}

fn shard_fp(doc: &RunDoc) -> Option<&str> {
    doc.root.get("config")?.get("config_fp")?.as_str()
}

/// Bitwise union of two coverage snapshots (bitmaps are monotone, so union
/// is exactly "everything either process set"). A same-named map whose bit
/// width differs between the two sides — possible when shards ran under
/// different builds — is widened to the larger width and OR-ed, so neither
/// side's set bits are ever silently discarded.
fn union_coverage(a: &CoverageSnapshot, b: &CoverageSnapshot) -> CoverageSnapshot {
    let mut maps = a.maps.clone();
    for (name, m) in &b.maps {
        match maps.get_mut(name) {
            Some(existing) => {
                if existing.bits != m.bits {
                    eprintln!(
                        "[fleet] coverage map {name} width mismatch ({} vs {} bits); \
                         widening and merging",
                        existing.bits, m.bits
                    );
                    metrics::counter("fleet.coverage_width_mismatches").inc();
                }
                if m.bits > existing.bits {
                    existing.bits = m.bits;
                    existing.words.resize(m.words.len(), 0);
                }
                for (w, v) in existing.words.iter_mut().zip(&m.words) {
                    *w |= v;
                }
            }
            None => {
                maps.insert(name.clone(), m.clone());
            }
        }
    }
    CoverageSnapshot { maps }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

struct WorkerArgs {
    shard: usize,
    shards: usize,
    root: PathBuf,
    first_byte: Option<u8>,
    second_byte: Option<u8>,
    max_paths: usize,
    config_fp: String,
    heartbeat_ms: u64,
}

fn parse_worker_args(args: &[String]) -> Result<WorkerArgs, String> {
    let mut out = WorkerArgs {
        shard: 0,
        shards: 1,
        root: PathBuf::from("target/fleet/adhoc"),
        first_byte: None,
        second_byte: None,
        max_paths: 8192,
        config_fp: String::new(),
        heartbeat_ms: 250,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--shard" => out.shard = val("--shard")?.parse().map_err(|e| format!("{e}"))?,
            "--shards" => out.shards = val("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--root" => out.root = PathBuf::from(val("--root")?),
            "--first-byte" => {
                out.first_byte = Some(val("--first-byte")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--second-byte" => {
                out.second_byte = Some(val("--second-byte")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--max-paths" => {
                out.max_paths = val("--max-paths")?.parse().map_err(|e| format!("{e}"))?
            }
            "--config-fp" => out.config_fp = val("--config-fp")?,
            "--heartbeat-ms" => {
                out.heartbeat_ms = val("--heartbeat-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            other => return Err(format!("unknown worker argument: {other}")),
        }
    }
    if out.shard >= out.shards {
        return Err(format!(
            "--shard {} out of range for --shards {}",
            out.shard, out.shards
        ));
    }
    Ok(out)
}

/// Worker entry point: `pokemu-fleet worker <flags>` (and the recovery
/// test binary) dispatch here. Returns the process exit code; any error is
/// printed to stderr, which the coordinator captures in
/// `shard-N/worker.log` for attribution.
pub fn worker_main(args: &[String]) -> i32 {
    let parsed = match parse_worker_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[fleet-worker] bad arguments: {e}");
            return 2;
        }
    };
    match worker_run(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("[fleet-worker] shard {} failed: {e}", parsed.shard);
            1
        }
    }
}

fn heartbeat_loop(dir: PathBuf, interval: Duration) {
    let mut seq: u64 = 0;
    loop {
        seq += 1;
        // A latency fault here stalls the heartbeat past the watchdog's
        // staleness window; a panic kills only this thread, which has the
        // same observable effect — both drills exercise the stale-kill
        // path without touching the worker's actual work.
        fault::inject("fleet.heartbeat", seq);
        if write_atomic(&dir.join("heartbeat"), &seq.to_string()).is_err() {
            // A heartbeat that cannot land is indistinguishable from a
            // wedged worker; let the watchdog make the call.
        }
        std::thread::sleep(interval);
    }
}

fn worker_run(a: &WorkerArgs) -> io::Result<()> {
    // Attribution first: any artifact-write failure below names this shard.
    std::env::set_var(SHARD_ENV, shard_name(a.shard));
    let dir = a.root.join(shard_name(a.shard));
    std::fs::create_dir_all(&dir)?;

    let hb_dir = dir.clone();
    let hb_interval = Duration::from_millis(a.heartbeat_ms.max(1));
    std::thread::spawn(move || heartbeat_loop(hb_dir, hb_interval));

    let baseline = baseline_snapshot();
    let space = explore_instruction_space(InsnSpaceConfig {
        first_byte: a.first_byte,
        second_byte: a.second_byte,
        ..InsnSpaceConfig::default()
    });
    // Every worker derives the same global order and takes its slice by
    // stable hash; the (global) candidate count rides along so the merged
    // manifest can report it like a single-process run would.
    let slice: Vec<(usize, String, Vec<u8>)> = space
        .classes
        .iter()
        .enumerate()
        .map(|(i, rep)| (i, rep.class.to_string(), rep.bytes.clone()))
        .filter(|(_, name, _)| shard_of(name, a.shards) == a.shard)
        .collect();

    // Resume from an unfinished manifest of this config whose instructions
    // are a prefix of this slice. Anything else — missing, torn, finished,
    // another config — starts the shard from scratch: the checkpoint is an
    // optimization, never trusted further than it can be validated.
    let path = dir.join("manifest.json");
    let (mut insns, mut coverage) = match record::read(&path) {
        Ok(doc)
            if !doc.results.completed
                && shard_fp(&doc) == Some(a.config_fp.as_str())
                && doc.insns.len() <= slice.len()
                && doc.insns.iter().zip(&slice).all(|(r, s)| r.index == s.0) =>
        {
            (doc.insns, doc.coverage)
        }
        _ => (Vec::new(), CoverageSnapshot::default()),
    };
    if !insns.is_empty() {
        eprintln!(
            "[fleet-worker] shard {} resuming at instruction {}/{}",
            a.shard,
            insns.len(),
            slice.len()
        );
        metrics::counter("fleet.resumes").inc();
    }

    let config_json = format!(
        "{{\"shard\":{},\"shards\":{},\"config_fp\":\"{}\"}}",
        a.shard,
        a.shards,
        escape(&a.config_fp)
    );
    let write_shard = |insns: &[InsnRecord], coverage: &CoverageSnapshot, completed: bool| {
        let out = CrossValidation {
            candidates: space.candidates,
            completed,
            ..record::fold(insns)
        };
        let doc = record::render(
            &shard_name(a.shard),
            &config_json,
            &out,
            coverage,
            &[("insns", record::insns_json(insns))],
        );
        write_atomic(&path, &doc).inspect_err(|e| note_write_failure("shard manifest write", e))
    };
    for (index, name, bytes) in &slice[insns.len()..] {
        let item = run_item(
            *index,
            name.clone(),
            bytes,
            &baseline,
            a.max_paths,
            None,
            Fidelity::QEMU_LIKE,
        );
        insns.push(record::analyze(item));
        // Cumulative coverage = bits from resumed instructions ∪ bits this
        // process set; a killed instruction's partial bits are
        // deliberately dropped — its full re-run regenerates them.
        coverage = union_coverage(&coverage, &pokemu_rt::coverage::snapshot());
        write_shard(&insns, &coverage, false)?;
        // Fired *after* the rename with the cumulative completed count as
        // key: a `kill` fault here crashes exactly once — the resumed
        // attempt starts past this key — which is what makes the CI
        // kill-one-worker drill deterministic.
        fault::inject("fleet.checkpoint", insns.len() as u64);
    }
    write_shard(&insns, &coverage, true)?;
    eprintln!(
        "[fleet-worker] shard {} done: {} instruction(s), {} deviation(s)",
        a.shard,
        insns.len(),
        insns.iter().map(|r| r.deviations.len()).sum::<usize>()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// Append-only diagnostics stream (`fleet-events.jsonl`): spawns, exits,
/// retries, stale-kills, poisonings — everything nondeterministic lives
/// here, *never* in the merged manifest, so an interrupted-then-resumed run
/// and an uninterrupted one produce byte-identical merges.
struct EventLog {
    file: std::fs::File,
    started: Instant,
}

impl EventLog {
    fn open(path: &Path, started: Instant) -> io::Result<EventLog> {
        Ok(EventLog {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
            started,
        })
    }

    fn log(&mut self, shard: usize, event: &str, detail: &str) {
        self.log_named(&shard_name(shard), event, detail);
    }

    fn log_named(&mut self, who: &str, event: &str, detail: &str) {
        let line = format!(
            "{{\"ms\":{},\"shard\":\"{}\",\"event\":\"{}\",\"detail\":\"{}\"}}\n",
            self.started.elapsed().as_millis(),
            escape(who),
            escape(event),
            escape(detail),
        );
        let _ = self.file.write_all(line.as_bytes());
        eprintln!("[fleet] {who} {event}: {detail}");
    }
}

enum ShardState {
    Pending {
        attempt: u32,
        not_before: Instant,
    },
    Running {
        child: Child,
        attempt: u32,
        spawned: Instant,
    },
    Done {
        attempts: u32,
        reused: bool,
    },
    Poisoned {
        attempts: u32,
        reason: String,
    },
}

/// Deterministic backoff: `base·2^(attempt-1)` plus a jitter in
/// `[0, base)` that is a pure function of `(seed, shard, attempt)`.
fn backoff_delay(config: &FleetConfig, shard: usize, attempt: u32) -> Duration {
    let base = config.backoff_base.as_millis() as u64;
    let exp = base.saturating_mul(1u64 << (attempt.min(16).saturating_sub(1)));
    let jitter = if base == 0 {
        0
    } else {
        rng::mix64(config.backoff_seed ^ ((shard as u64) << 32) ^ u64::from(attempt)) % base
    };
    Duration::from_millis(exp + jitter)
}

fn spawn_worker(
    config: &FleetConfig,
    root: &Path,
    shard: usize,
    attempt: u32,
    config_fp: &str,
) -> io::Result<Child> {
    let dir = root.join(shard_name(shard));
    std::fs::create_dir_all(&dir)?;
    // A fresh attempt must not inherit the previous attempt's heartbeat
    // mtime, or a wedged respawn could look alive for a full stale window.
    let _ = std::fs::remove_file(dir.join("heartbeat"));
    // Append, never truncate: a retry must not destroy the failed
    // attempt's stderr — that is the output failure attribution runs on.
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("worker.log"))?;
    writeln!(log, "----- attempt {attempt} -----")?;

    let (exe, prefix): (PathBuf, &[String]) = if config.worker_cmd.is_empty() {
        (std::env::current_exe()?, &[])
    } else {
        (
            PathBuf::from(&config.worker_cmd[0]),
            &config.worker_cmd[1..],
        )
    };
    let mut cmd = Command::new(exe);
    cmd.args(prefix);
    if config.worker_cmd.is_empty() {
        cmd.arg("worker");
    }
    cmd.arg("--shard")
        .arg(shard.to_string())
        .arg("--shards")
        .arg(config.shards.to_string())
        .arg("--root")
        .arg(root)
        .arg("--max-paths")
        .arg(config.max_paths_per_insn.to_string())
        .arg("--config-fp")
        .arg(config_fp)
        .arg("--heartbeat-ms")
        .arg(config.heartbeat_interval.as_millis().to_string());
    if let Some(b) = config.first_byte {
        cmd.arg("--first-byte").arg(b.to_string());
    }
    if let Some(b) = config.second_byte {
        cmd.arg("--second-byte").arg(b.to_string());
    }
    for (k, v) in &config.worker_env {
        cmd.env(k, v);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::from(log));
    cmd.spawn()
}

/// Fails one attempt: schedules a retry with deterministic backoff, or
/// poisons the shard once the attempt budget is spent.
fn fail_attempt(
    config: &FleetConfig,
    events: &mut EventLog,
    shard: usize,
    attempt: u32,
    reason: String,
) -> ShardState {
    metrics::counter("fleet.attempt_failures").inc();
    if attempt >= config.max_attempts {
        events.log(
            shard,
            "poisoned",
            &format!("all {attempt} attempt(s) failed; last: {reason}"),
        );
        ShardState::Poisoned {
            attempts: attempt,
            reason,
        }
    } else {
        let delay = backoff_delay(config, shard, attempt);
        events.log(
            shard,
            "retry",
            &format!(
                "attempt {attempt} failed ({reason}); attempt {} in {}ms",
                attempt + 1,
                delay.as_millis()
            ),
        );
        ShardState::Pending {
            attempt,
            not_before: Instant::now() + delay,
        }
    }
}

/// Heartbeat age for a running worker: time since the heartbeat file's
/// mtime, or time since spawn while no heartbeat has landed yet (the file
/// is removed before each spawn).
fn heartbeat_age(dir: &Path, spawned: Instant) -> Duration {
    match std::fs::metadata(dir.join("heartbeat")).and_then(|m| m.modified()) {
        Ok(t) => SystemTime::now()
            .duration_since(t)
            .unwrap_or(Duration::ZERO),
        Err(_) => spawned.elapsed(),
    }
}

/// Runs the whole fleet: partition, spawn, watch, retry, merge. Returns
/// `Ok` even when shards were poisoned — a completed run with failures
/// attributed is a completed run; the diff gate is what fails on poisoned
/// growth.
///
/// # Errors
///
/// Propagates filesystem errors on the coordinator's own artifacts (root
/// directory, event log, merged manifest) and shard-manifest parse failures
/// for shards that claimed success.
pub fn run_fleet(config: &FleetConfig) -> io::Result<FleetOutcome> {
    let started = Instant::now();
    let root = config
        .root
        .clone()
        .unwrap_or_else(|| pokemu_rt::target_dir().join("fleet").join(&config.run_id));
    std::fs::create_dir_all(&root)?;
    let config_fp = config_fingerprint(config, |key| std::env::var(key).ok());
    let mut events = EventLog::open(&root.join("fleet-events.jsonl"), started)?;

    let mut states: Vec<ShardState> = (0..config.shards.max(1))
        .map(|shard| {
            let dir = root.join(shard_name(shard));
            if config.incremental && finished_shard(&dir, &config_fp).is_some() {
                events.log(shard, "reused", "finished manifest, same fingerprint");
                metrics::counter("fleet.shards_reused").inc();
                ShardState::Done {
                    attempts: 0,
                    reused: true,
                }
            } else {
                ShardState::Pending {
                    attempt: 0,
                    not_before: started,
                }
            }
        })
        .collect();

    loop {
        let mut busy = false;
        for (shard, state) in states.iter_mut().enumerate() {
            // `Some(Ok(state))` moves the shard on; `Some(Err((attempt,
            // reason)))` fails that attempt.
            let next = match state {
                ShardState::Pending {
                    attempt,
                    not_before,
                } => {
                    busy = true;
                    let attempt_no = *attempt + 1;
                    if Instant::now() < *not_before {
                        None
                    } else if fault::inject("fleet.spawn", shard as u64) {
                        // The spawn fault point, keyed by shard: an
                        // `unknown` spec turns into a spawn failure on
                        // every attempt — the deterministic way to drive a
                        // shard into poisoning.
                        Some(Err((attempt_no, "spawn fault injected".to_owned())))
                    } else {
                        match spawn_worker(config, &root, shard, attempt_no, &config_fp) {
                            Ok(child) => {
                                events.log(shard, "spawn", &format!("attempt {attempt_no}"));
                                Some(Ok(ShardState::Running {
                                    child,
                                    attempt: attempt_no,
                                    spawned: Instant::now(),
                                }))
                            }
                            Err(e) => Some(Err((attempt_no, format!("spawn error: {e}")))),
                        }
                    }
                }
                ShardState::Running {
                    child,
                    attempt,
                    spawned,
                } => {
                    busy = true;
                    let attempt_no = *attempt;
                    let dir = root.join(shard_name(shard));
                    match child.try_wait() {
                        // A poll error must stay scoped to this shard:
                        // propagating it out of run_fleet would abandon
                        // every other still-running worker un-killed, left
                        // writing into the run root. Kill this child and
                        // charge the attempt instead.
                        Err(e) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            Some(Err((attempt_no, format!("wait error: {e}"))))
                        }
                        Ok(Some(status)) if !status.success() => {
                            Some(Err((attempt_no, format!("worker {status}"))))
                        }
                        Ok(Some(_)) if finished_shard(&dir, &config_fp).is_none() => {
                            let reason = "exited 0 without a finished shard manifest";
                            Some(Err((attempt_no, reason.to_owned())))
                        }
                        Ok(Some(_)) => {
                            events.log(shard, "done", &format!("attempt {attempt_no}"));
                            Some(Ok(ShardState::Done {
                                attempts: attempt_no,
                                reused: false,
                            }))
                        }
                        Ok(None) => {
                            let age = heartbeat_age(&dir, *spawned);
                            if age > config.heartbeat_stale {
                                let _ = child.kill();
                                let _ = child.wait();
                                let ms = age.as_millis();
                                events.log(shard, "stale", &format!("heartbeat silent for {ms}ms"));
                                Some(Err((attempt_no, format!("heartbeat stale ({ms}ms)"))))
                            } else {
                                None
                            }
                        }
                    }
                }
                ShardState::Done { .. } | ShardState::Poisoned { .. } => None,
            };
            *state = match next {
                None => continue,
                Some(Ok(state)) => state,
                Some(Err((attempt, reason))) => {
                    fail_attempt(config, &mut events, shard, attempt, reason)
                }
            };
        }
        if !busy {
            break;
        }
        std::thread::sleep(POLL);
    }

    // Merge: interleave every merged shard's instruction records back into
    // global order, union coverage, and fold them exactly as a
    // single-process run folds its own — deterministic content only;
    // retries, timings, and reuse live in fleet-events.jsonl.
    let mut shards_out = Vec::new();
    let mut poisoned = Vec::new();
    let mut reused = 0usize;
    let mut docs = Vec::new();
    for (shard, st) in states.iter().enumerate() {
        let (attempts, status) = match st {
            ShardState::Done {
                attempts,
                reused: r,
            } => {
                let doc =
                    finished_shard(&root.join(shard_name(shard)), &config_fp).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "{}: shard manifest missing or unfinished",
                                shard_name(shard)
                            ),
                        )
                    })?;
                docs.push(doc);
                if *r {
                    reused += 1;
                    (*attempts, ShardStatus::Reused)
                } else {
                    (*attempts, ShardStatus::Completed)
                }
            }
            ShardState::Poisoned { attempts, reason } => {
                poisoned.push(shard_name(shard));
                (*attempts, ShardStatus::Poisoned(reason.clone()))
            }
            ShardState::Pending { .. } | ShardState::Running { .. } => {
                unreachable!("coordinator loop exited with live shards")
            }
        };
        shards_out.push(ShardReport {
            name: shard_name(shard),
            attempts,
            status,
        });
    }
    poisoned.sort();

    let merged_shards = docs.len();
    let candidates = docs.iter().map(|d| d.results.candidates).max().unwrap_or(0);
    let mut coverage = CoverageSnapshot::default();
    for d in &docs {
        coverage = union_coverage(&coverage, &d.coverage);
    }
    let mut insns: Vec<InsnRecord> = docs.into_iter().flat_map(|d| d.insns).collect();
    insns.sort_by_key(|r| r.index);
    // No cross-shard dedup: shard assignment is a pure function of the
    // opcode class, so an instruction's deviations live in exactly one
    // shard — and path ids hash only the branch path (not the
    // instruction), so keying on them would collapse *distinct*
    // instructions' straight-line deviations. Every recorded deviation is
    // kept, exactly like a single-process run.
    let merged = CrossValidation {
        candidates,
        ..record::fold(&insns)
    };
    let poisoned_json: Vec<String> = poisoned
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    let config_json = format!(
        "{{\"first_byte\":{},\"second_byte\":{},\"max_paths_per_insn\":{},\"shards\":{}}}",
        record::opt_json(config.first_byte),
        record::opt_json(config.second_byte),
        config.max_paths_per_insn,
        config.shards,
    );
    let fleet_json = format!(
        "{{\"shards\":{},\"merged\":{merged_shards},\"poisoned\":[{}]}}",
        config.shards,
        poisoned_json.join(","),
    );
    let merged_path = root.join("merged.json");
    write_atomic(
        &merged_path,
        &record::render(
            &config.run_id,
            &config_json,
            &merged,
            &coverage,
            &[("fleet", fleet_json)],
        ),
    )?;
    events.log_named(
        "coordinator",
        "merged",
        &format!(
            "{merged_shards}/{} shard(s), {} deviation(s), {} poisoned",
            config.shards,
            merged.deviations.len(),
            poisoned.len()
        ),
    );

    Ok(FleetOutcome {
        run_id: config.run_id.clone(),
        root,
        merged_path,
        shards: shards_out,
        poisoned,
        reused,
        unique_instructions: merged.unique_instructions,
        total_paths: merged.total_paths,
        deviations: merged.deviations.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The coordinator counts a shard as done only on a finished manifest
    /// of this config: a worker that exits 0 leaving an unfinished one (or
    /// another run's) fails its attempt, like one that leaves none.
    #[test]
    fn only_a_finished_manifest_of_this_config_is_done() {
        let dir = std::env::temp_dir().join(format!("pokemu-fleet-{}", std::process::id()));
        let write = |completed: bool, fp: &str| {
            let out = CrossValidation {
                completed,
                ..CrossValidation::default()
            };
            let config = format!("{{\"config_fp\":\"{fp}\"}}");
            let doc = record::render("shard-0", &config, &out, &CoverageSnapshot::default(), &[]);
            write_atomic(&dir.join("manifest.json"), &doc).unwrap();
        };
        assert!(finished_shard(&dir, "fp").is_none(), "no manifest");
        write(false, "fp");
        assert!(finished_shard(&dir, "fp").is_none(), "unfinished");
        write(true, "other");
        assert!(finished_shard(&dir, "fp").is_none(), "another config");
        write(true, "fp");
        assert!(finished_shard(&dir, "fp").is_some(), "finished");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fingerprint is stable and changes with each config field and
    /// each tracked environment variable it covers; the retry policy and
    /// the run id change no result, so they leave it alone.
    #[test]
    fn fingerprint_covers_every_workload_field_and_tracked_variable() {
        let base = FleetConfig::default();
        let unset = |_: &str| None;
        let fp = config_fingerprint(&base, unset);
        assert_eq!(fp.len(), 16);
        assert_eq!(fp, config_fingerprint(&base, unset));
        let policy = FleetConfig {
            run_id: "other".to_owned(),
            max_attempts: 9,
            backoff_seed: 1,
            incremental: false,
            ..base.clone()
        };
        assert_eq!(config_fingerprint(&policy, unset), fp);

        let fields = [
            FleetConfig {
                first_byte: Some(0xf7),
                ..base.clone()
            },
            FleetConfig {
                second_byte: Some(0),
                ..base.clone()
            },
            FleetConfig {
                max_paths_per_insn: 64,
                ..base.clone()
            },
            FleetConfig {
                shards: 3,
                ..base.clone()
            },
        ];
        let mut seen = std::collections::BTreeSet::from([fp]);
        for config in &fields {
            assert!(seen.insert(config_fingerprint(config, unset)), "{config:?}");
        }
        for key in TRACKED_ENV {
            let set = |k: &str| (k == key).then(|| "1".to_owned());
            assert!(seen.insert(config_fingerprint(&base, set)), "{key}");
        }
    }
}
