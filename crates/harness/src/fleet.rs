//! Crash-safe sharded exploration fleet (DESIGN.md §13).
//!
//! The paper's cost story (§6: 545 h of test generation) only amortizes if
//! long campaigns survive crashes and re-validation is incremental. This
//! module is the ROADMAP's "fleet mode": a *coordinator* process partitions
//! the instruction space into shards by a stable hash of the opcode-class
//! name, spawns one *worker process* per shard (`pokemu-fleet worker
//! --shard N`), and merges the per-shard artifacts under
//! `target/fleet/<run>/` — run-manifest JSON files are the only interchange
//! format, no sockets, no extra dependencies.
//!
//! Robustness core, mirroring the in-process layers one level up:
//!
//! - **Checkpoint-resume**: a worker writes `shard-N/checkpoint.json`
//!   atomically (write-temp + rename) after *every* completed instruction,
//!   carrying the per-instruction results and the cumulative coverage
//!   snapshot. A worker killed mid-shard — SIGKILL included — resumes from
//!   the last checkpoint and reproduces the uninterrupted run's merged
//!   manifest byte for byte (`tests/fleet_recovery.rs`).
//! - **Watchdog + retry**: the coordinator polls worker exit status and the
//!   per-shard heartbeat file; a non-zero exit, a missing manifest, or a
//!   stale heartbeat fails the attempt, and the shard is retried with
//!   bounded exponential backoff whose jitter is a pure function of
//!   `(seed, shard, attempt)` — the retry schedule replays exactly.
//! - **Process-level quarantine**: a shard that exhausts its attempts is
//!   demoted to a `poisoned` record in the merged manifest (the process
//!   analogue of PR-4's item quarantine); the run still completes, and
//!   `pokemu-report diff` gates on poisoned-shard growth by name.
//! - **Incremental re-validation**: a re-run skips shards whose `done.json`
//!   marker carries the same config fingerprint
//!   ([`pokemu_rt::history::fingerprint`]) and whose recorded coverage
//!   populations still match the shard manifest on disk.
//!
//! Failure drills are first-class: the `fleet.spawn`, `fleet.heartbeat`,
//! and `fleet.checkpoint` fault points accept the same `POKEMU_FAULT` spec
//! grammar as `pool.item`/`solver.check`, so CI can SIGKILL a worker after
//! its first checkpoint (`fleet.checkpoint:kill:1`) or starve every spawn
//! (`fleet.spawn:unknown:*`) deterministically.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use pokemu_explore::{explore_instruction_space, InsnSpaceConfig};
use pokemu_isa::snapshot::Snapshot;
use pokemu_lofi::Fidelity;
use pokemu_rt::coverage::{CoverageSnapshot, MapSnapshot};
use pokemu_rt::history::{self, RunRecord};
use pokemu_rt::json::{self, escape, Value};
use pokemu_rt::{fault, metrics, rng};

use crate::compare::analyze_case;
use crate::manifest::{deviation_json, note_write_failure};
use crate::pipeline::{generate_for_instruction, hex, run_on_all_targets, DeviationRecord};
use crate::targets::baseline_snapshot;

/// Environment variable a worker sets to its shard name (`shard-N`) so
/// write-failure degradation ([`crate::manifest::note_write_failure`]) can
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
    /// Skip shards whose `done.json` fingerprint and recorded coverage
    /// populations are unchanged.
    pub incremental: bool,
    /// Append one `kind: "fleet"` record to the run ledger after merging.
    pub ledger: bool,
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
            ledger: true,
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
    (history::fnv1a64(class_name.as_bytes()) % shards.max(1) as u64) as usize
}

/// Config fingerprint for a fleet run: the workload-shaping fields plus the
/// shard count (a different partition invalidates per-shard reuse), through
/// [`history::fingerprint`] so the process context and tracked environment
/// participate exactly like pipeline fingerprints.
pub fn config_fingerprint(config: &FleetConfig) -> String {
    history::fingerprint(&[
        "fleet".to_owned(),
        format!("first_byte={:?}", config.first_byte),
        format!("second_byte={:?}", config.second_byte),
        format!("max_paths_per_insn={}", config.max_paths_per_insn),
        format!("shards={}", config.shards),
    ])
}

fn shard_name(shard: usize) -> String {
    format!("shard-{shard}")
}

/// Write-temp + rename: a crash between the two calls leaves the previous
/// file intact, never a torn one. Same-directory rename is atomic on every
/// platform the repo targets.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Per-instruction records (the checkpoint / shard-manifest payload)
// ---------------------------------------------------------------------------

/// Everything one instruction contributes to the merged manifest. The
/// `index` is the instruction's position in the *global* sorted class list,
/// so the merge can interleave shards back into the exact analysis order
/// `run_cross_validation` would have used.
#[derive(Debug, Clone)]
struct InsnRecord {
    index: usize,
    name: String,
    hex: String,
    complete: bool,
    paths: usize,
    solver_queries: u64,
    unknown_queries: u64,
    infeasible_paths: usize,
    lofi_differences: usize,
    hifi_differences: usize,
    lofi_filtered: usize,
    hifi_filtered: usize,
    deviations: Vec<DeviationRecord>,
}

fn insn_json(r: &InsnRecord) -> String {
    let deviations: Vec<String> = r.deviations.iter().map(deviation_json).collect();
    format!(
        "{{\"index\":{},\"name\":\"{}\",\"hex\":\"{}\",\"complete\":{},\"paths\":{},\
         \"solver_queries\":{},\"unknown_queries\":{},\"infeasible_paths\":{},\
         \"lofi_differences\":{},\"hifi_differences\":{},\"lofi_filtered\":{},\
         \"hifi_filtered\":{},\"deviations\":[{}]}}",
        r.index,
        escape(&r.name),
        escape(&r.hex),
        r.complete,
        r.paths,
        r.solver_queries,
        r.unknown_queries,
        r.infeasible_paths,
        r.lofi_differences,
        r.hifi_differences,
        r.lofi_filtered,
        r.hifi_filtered,
        deviations.join(","),
    )
}

fn parse_deviation(v: &Value) -> Option<DeviationRecord> {
    Some(DeviationRecord {
        target: v.get("target")?.as_str()?.to_owned(),
        test: v.get("test")?.as_str()?.to_owned(),
        insn_hex: v.get("insn")?.as_str()?.to_owned(),
        path_id: v.get("path_id")?.as_u64()?,
        cause: v.get("cause")?.as_str()?.to_owned(),
        components: v
            .get("components")?
            .as_array()?
            .iter()
            .filter_map(|c| c.as_str().map(str::to_owned))
            .collect(),
    })
}

fn parse_insn(v: &Value) -> Option<InsnRecord> {
    Some(InsnRecord {
        index: v.get("index")?.as_u64()? as usize,
        name: v.get("name")?.as_str()?.to_owned(),
        hex: v.get("hex")?.as_str()?.to_owned(),
        complete: v.get("complete")?.as_bool()?,
        paths: v.get("paths")?.as_u64()? as usize,
        solver_queries: v.get("solver_queries")?.as_u64()?,
        unknown_queries: v.get("unknown_queries")?.as_u64()?,
        infeasible_paths: v.get("infeasible_paths")?.as_u64()? as usize,
        lofi_differences: v.get("lofi_differences")?.as_u64()? as usize,
        hifi_differences: v.get("hifi_differences")?.as_u64()? as usize,
        lofi_filtered: v.get("lofi_filtered")?.as_u64()? as usize,
        hifi_filtered: v.get("hifi_filtered")?.as_u64()? as usize,
        deviations: v
            .get("deviations")?
            .as_array()?
            .iter()
            .map(parse_deviation)
            .collect::<Option<Vec<_>>>()?,
    })
}

fn parse_coverage(v: Option<&Value>) -> CoverageSnapshot {
    let mut maps = BTreeMap::new();
    if let Some(Value::Obj(entries)) = v {
        for (name, m) in entries {
            if let Some(snap) = MapSnapshot::from_value(m) {
                maps.insert(name.clone(), snap);
            }
        }
    }
    CoverageSnapshot { maps }
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
        let write = std::fs::write(dir.join("heartbeat.tmp"), seq.to_string())
            .and_then(|()| std::fs::rename(dir.join("heartbeat.tmp"), dir.join("heartbeat")));
        if write.is_err() {
            // A heartbeat that cannot land is indistinguishable from a
            // wedged worker; let the watchdog make the call.
        }
        std::thread::sleep(interval);
    }
}

struct Checkpoint {
    config_fp: String,
    insns: Vec<InsnRecord>,
    coverage: CoverageSnapshot,
}

fn render_checkpoint(c: &Checkpoint) -> String {
    let insns: Vec<String> = c.insns.iter().map(insn_json).collect();
    format!(
        "{{\n\"config_fp\":\"{}\",\n\"insns\":[\n{}\n],\n\"coverage\":{}\n}}\n",
        escape(&c.config_fp),
        insns.join(",\n"),
        c.coverage.to_json_object(),
    )
}

/// Loads the shard checkpoint if it exists and matches this run's config
/// fingerprint; a missing, torn, or stale-config checkpoint starts the
/// shard from scratch (never an error — the checkpoint is an optimization,
/// not a correctness input).
fn load_checkpoint(path: &Path, config_fp: &str) -> Checkpoint {
    let fresh = || Checkpoint {
        config_fp: config_fp.to_owned(),
        insns: Vec::new(),
        coverage: CoverageSnapshot::default(),
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return fresh();
    };
    let Ok(root) = json::parse(&text) else {
        return fresh();
    };
    if root.get("config_fp").and_then(Value::as_str) != Some(config_fp) {
        return fresh();
    }
    let Some(insns) = root
        .get("insns")
        .and_then(Value::as_array)
        .and_then(|a| a.iter().map(parse_insn).collect::<Option<Vec<_>>>())
    else {
        return fresh();
    };
    Checkpoint {
        config_fp: config_fp.to_owned(),
        insns,
        coverage: parse_coverage(root.get("coverage")),
    }
}

/// Runs one instruction exactly like the pipeline's worker + analysis
/// stages: generate test programs, execute on all three targets, compare
/// with the undefined-behavior filter, and record every deviation with
/// provenance — in program order, lofi before hifi per case, so the merged
/// deviation list is byte-identical to a single-process run's.
fn process_instruction(
    index: usize,
    name: &str,
    bytes: &[u8],
    baseline: &Snapshot,
    max_paths: usize,
) -> InsnRecord {
    let gen = generate_for_instruction(name, bytes, baseline, max_paths, None);
    let mut rec = InsnRecord {
        index,
        name: name.to_owned(),
        hex: hex(bytes),
        complete: gen.complete,
        paths: gen.programs.len(),
        solver_queries: gen.solver_queries,
        unknown_queries: gen.unknown_queries,
        infeasible_paths: gen.infeasible_paths,
        lofi_differences: 0,
        hifi_differences: 0,
        lofi_filtered: 0,
        hifi_filtered: 0,
        deviations: Vec::new(),
    };
    for p in &gen.programs {
        let case = run_on_all_targets(p, Fidelity::QEMU_LIKE);
        let analysis = analyze_case(&case, &p.test_insn, p.path_id);
        rec.lofi_differences += usize::from(analysis.lofi_differs);
        rec.hifi_differences += usize::from(analysis.hifi_differs);
        for (target, d) in &analysis.deviations {
            match *target {
                "lofi" => rec.lofi_filtered += 1,
                _ => rec.hifi_filtered += 1,
            }
            rec.deviations
                .push(DeviationRecord::new(target, &case.name, d));
        }
    }
    rec
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

    let ckpt_path = dir.join("checkpoint.json");
    let mut ckpt = load_checkpoint(&ckpt_path, &a.config_fp);
    if ckpt.insns.len() > slice.len() {
        // A checkpoint larger than the slice cannot belong to this config;
        // the fingerprint should have caught it, but never trust a resume
        // input further than it can be validated.
        ckpt = Checkpoint {
            config_fp: a.config_fp.clone(),
            insns: Vec::new(),
            coverage: CoverageSnapshot::default(),
        };
    }
    if !ckpt.insns.is_empty() {
        eprintln!(
            "[fleet-worker] shard {} resuming at instruction {}/{}",
            a.shard,
            ckpt.insns.len(),
            slice.len()
        );
        metrics::counter("fleet.resumes").inc();
    }

    for i in ckpt.insns.len()..slice.len() {
        let (index, name, bytes) = &slice[i];
        let rec = process_instruction(*index, name, bytes, &baseline, a.max_paths);
        // Cumulative coverage = bits from resumed instructions (checkpoint)
        // ∪ bits this process set; a killed instruction's partial bits are
        // deliberately dropped — its full re-run regenerates them.
        ckpt.coverage = union_coverage(&ckpt.coverage, &pokemu_rt::coverage::snapshot());
        ckpt.insns.push(rec);
        write_atomic(&ckpt_path, &render_checkpoint(&ckpt))?;
        // Fired *after* the rename with the cumulative completed count as
        // key: a `kill` fault here crashes exactly once — the resumed
        // attempt starts past this key — which is what makes the CI
        // kill-one-worker drill deterministic.
        fault::inject("fleet.checkpoint", ckpt.insns.len() as u64);
    }

    let doc = render_shard_manifest(a, space.candidates, &ckpt);
    if let Err(e) = write_atomic(&dir.join("manifest.json"), &doc) {
        note_write_failure("shard manifest write", &e);
        return Err(e);
    }
    // The reuse marker is written only after the manifest landed, and
    // records the coverage populations so a later incremental run can
    // detect a manifest that rotted underneath the marker.
    let cov: Vec<String> = ckpt
        .coverage
        .maps
        .iter()
        .map(|(name, m)| format!("\"{}\":{}", escape(name), m.set_count()))
        .collect();
    write_atomic(
        &dir.join("done.json"),
        &format!(
            "{{\"config_fp\":\"{}\",\"instructions\":{},\"cov\":{{{}}}}}\n",
            escape(&a.config_fp),
            ckpt.insns.len(),
            cov.join(",")
        ),
    )?;
    eprintln!(
        "[fleet-worker] shard {} done: {} instruction(s), {} deviation(s)",
        a.shard,
        ckpt.insns.len(),
        ckpt.insns.iter().map(|r| r.deviations.len()).sum::<usize>()
    );
    Ok(())
}

/// Renders a shard manifest: the standard run-manifest sections (so
/// `pokemu-report coverage/diff` can open a shard directly) plus the
/// per-instruction `insns` detail the merge interleaves.
fn render_shard_manifest(a: &WorkerArgs, candidates: usize, ckpt: &Checkpoint) -> String {
    let counts = sum_counts(&ckpt.insns);
    let deviations: Vec<String> = ckpt
        .insns
        .iter()
        .flat_map(|r| r.deviations.iter())
        .map(deviation_json)
        .collect();
    let insns: Vec<String> = ckpt.insns.iter().map(insn_json).collect();
    format!(
        "{{\n\"run_id\":\"{}\",\n\"completed\":true,\n\"shard\":{{\"index\":{},\"of\":{},\
         \"config_fp\":\"{}\",\"candidates\":{}}},\n\"counts\":{},\n\"coverage\":{},\n\
         \"clusters\":{},\n\"robustness\":{},\n\"deviations\":[{}],\n\"insns\":[\n{}\n]\n}}\n",
        shard_name(a.shard),
        a.shard,
        a.shards,
        escape(&a.config_fp),
        candidates,
        counts_json(candidates, &counts),
        ckpt.coverage.to_json_object(),
        clusters_json_of(&all_deviations(&ckpt.insns)),
        robustness_json(&counts, &[]),
        deviations.join(","),
        insns.join(",\n"),
    )
}

// ---------------------------------------------------------------------------
// Shared count/cluster rendering (worker manifest + merged manifest)
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct Counts {
    unique_instructions: usize,
    fully_explored: usize,
    total_paths: usize,
    lofi_differences: usize,
    hifi_differences: usize,
    lofi_filtered: usize,
    hifi_filtered: usize,
    unknown_queries: u64,
    infeasible_paths: usize,
    solver_queries: u64,
}

fn sum_counts(insns: &[InsnRecord]) -> Counts {
    let mut c = Counts {
        unique_instructions: insns.len(),
        ..Counts::default()
    };
    for r in insns {
        if r.complete {
            c.fully_explored += 1;
        }
        c.total_paths += r.paths;
        c.lofi_differences += r.lofi_differences;
        c.hifi_differences += r.hifi_differences;
        c.lofi_filtered += r.lofi_filtered;
        c.hifi_filtered += r.hifi_filtered;
        c.unknown_queries += r.unknown_queries;
        c.infeasible_paths += r.infeasible_paths;
        c.solver_queries += r.solver_queries;
    }
    c
}

fn counts_json(candidates: usize, c: &Counts) -> String {
    format!(
        "{{\"candidates\":{},\"unique_instructions\":{},\"fully_explored\":{},\
         \"total_paths\":{},\"lofi_differences\":{},\"hifi_differences\":{},\
         \"lofi_filtered\":{},\"hifi_filtered\":{}}}",
        candidates,
        c.unique_instructions,
        c.fully_explored,
        c.total_paths,
        c.lofi_differences,
        c.hifi_differences,
        c.lofi_filtered,
        c.hifi_filtered,
    )
}

fn robustness_json(c: &Counts, poisoned: &[String]) -> String {
    let names: Vec<String> = poisoned
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    format!(
        "{{\"quarantined\":0,\"skipped_instructions\":0,\"unknown_queries\":{},\
         \"infeasible_paths\":{},\"quarantine\":[],\"poisoned_shards\":[{}]}}",
        c.unknown_queries,
        c.infeasible_paths,
        names.join(","),
    )
}

fn all_deviations(insns: &[InsnRecord]) -> Vec<DeviationRecord> {
    insns
        .iter()
        .flat_map(|r| r.deviations.iter().cloned())
        .collect()
}

/// Rebuilds the `clusters` section from a deviation list: per target, one
/// entry per root cause with the total count and the first ≤ 5 example test
/// names in deviation order — the same shape and caps as
/// [`crate::compare::Clusters`], sorted by cause string.
fn clusters_json_of(deviations: &[DeviationRecord]) -> String {
    let render = |target: &str| -> String {
        let mut by_cause: BTreeMap<&str, (usize, Vec<&str>)> = BTreeMap::new();
        for d in deviations.iter().filter(|d| d.target == target) {
            let entry = by_cause.entry(d.cause.as_str()).or_default();
            entry.0 += 1;
            if entry.1.len() < 5 {
                entry.1.push(&d.test);
            }
        }
        let entries: Vec<String> = by_cause
            .iter()
            .map(|(cause, (count, examples))| {
                let ex: Vec<String> = examples
                    .iter()
                    .map(|e| format!("\"{}\"", escape(e)))
                    .collect();
                format!(
                    "{{\"cause\":\"{}\",\"count\":{count},\"examples\":[{}]}}",
                    escape(cause),
                    ex.join(",")
                )
            })
            .collect();
        format!("[{}]", entries.join(","))
    };
    format!(
        "{{\"lofi\":{},\"hifi\":{}}}",
        render("lofi"),
        render("hifi")
    )
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

/// Whether a shard's previous artifacts can be reused: the `done.json`
/// marker must carry this run's config fingerprint, the shard manifest must
/// still parse, and the manifest's coverage populations must match what the
/// marker recorded when the shard finished.
fn reuse_ok(dir: &Path, config_fp: &str) -> bool {
    let Ok(marker_text) = std::fs::read_to_string(dir.join("done.json")) else {
        return false;
    };
    let Ok(marker) = json::parse(&marker_text) else {
        return false;
    };
    if marker.get("config_fp").and_then(Value::as_str) != Some(config_fp) {
        return false;
    }
    let Ok(doc) = parse_shard_doc(&dir.join("manifest.json")) else {
        return false;
    };
    let Some(Value::Obj(recorded)) = marker.get("cov") else {
        return false;
    };
    for (name, set) in recorded {
        let want = set.as_u64().unwrap_or(u64::MAX) as usize;
        if doc.coverage.map(name).map(MapSnapshot::set_count) != Some(want) {
            return false;
        }
    }
    true
}

struct ShardDoc {
    completed: bool,
    candidates: usize,
    insns: Vec<InsnRecord>,
    coverage: CoverageSnapshot,
}

fn parse_shard_doc(path: &Path) -> Result<ShardDoc, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let insns = root
        .get("insns")
        .and_then(Value::as_array)
        .and_then(|a| a.iter().map(parse_insn).collect::<Option<Vec<_>>>())
        .ok_or_else(|| format!("{}: bad insns section", path.display()))?;
    Ok(ShardDoc {
        completed: root
            .get("completed")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        candidates: root
            .get("shard")
            .and_then(|s| s.get("candidates"))
            .and_then(Value::as_u64)
            .unwrap_or(0) as usize,
        insns,
        coverage: parse_coverage(root.get("coverage")),
    })
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
    let root = config.root.clone().unwrap_or_else(|| {
        pokemu_rt::bench::target_dir()
            .join("fleet")
            .join(&config.run_id)
    });
    std::fs::create_dir_all(&root)?;
    let config_fp = config_fingerprint(config);
    let mut events = EventLog::open(&root.join("fleet-events.jsonl"), started)?;

    let mut states: Vec<ShardState> = (0..config.shards.max(1))
        .map(|shard| {
            let dir = root.join(shard_name(shard));
            if config.incremental && reuse_ok(&dir, &config_fp) {
                events.log(shard, "reused", "fingerprint and coverage unchanged");
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
        for shard in 0..states.len() {
            let next = match &mut states[shard] {
                ShardState::Pending {
                    attempt,
                    not_before,
                } => {
                    busy = true;
                    if Instant::now() < *not_before {
                        None
                    } else {
                        let attempt_no = *attempt + 1;
                        // The spawn fault point, keyed by shard: an
                        // `unknown` spec turns into a spawn failure on
                        // every attempt — the deterministic way to drive a
                        // shard into poisoning.
                        if fault::inject("fleet.spawn", shard as u64) {
                            Some(fail_attempt(
                                config,
                                &mut events,
                                shard,
                                attempt_no,
                                "spawn fault injected".to_owned(),
                            ))
                        } else {
                            match spawn_worker(config, &root, shard, attempt_no, &config_fp) {
                                Ok(child) => {
                                    events.log(shard, "spawn", &format!("attempt {attempt_no}"));
                                    Some(ShardState::Running {
                                        child,
                                        attempt: attempt_no,
                                        spawned: Instant::now(),
                                    })
                                }
                                Err(e) => Some(fail_attempt(
                                    config,
                                    &mut events,
                                    shard,
                                    attempt_no,
                                    format!("spawn error: {e}"),
                                )),
                            }
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
                    match child.try_wait() {
                        // A poll error must stay scoped to this shard:
                        // propagating it out of run_fleet would abandon
                        // every other still-running worker un-killed, left
                        // writing into the run root. Kill this child and
                        // charge the attempt instead.
                        Err(e) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            Some(fail_attempt(
                                config,
                                &mut events,
                                shard,
                                attempt_no,
                                format!("wait error: {e}"),
                            ))
                        }
                        Ok(Some(status)) => {
                            let manifest_ok =
                                root.join(shard_name(shard)).join("manifest.json").is_file();
                            if status.success() && manifest_ok {
                                events.log(shard, "done", &format!("attempt {attempt_no}"));
                                Some(ShardState::Done {
                                    attempts: attempt_no,
                                    reused: false,
                                })
                            } else if status.success() {
                                Some(fail_attempt(
                                    config,
                                    &mut events,
                                    shard,
                                    attempt_no,
                                    "exited 0 without a shard manifest".to_owned(),
                                ))
                            } else {
                                Some(fail_attempt(
                                    config,
                                    &mut events,
                                    shard,
                                    attempt_no,
                                    format!("worker {status}"),
                                ))
                            }
                        }
                        Ok(None) => {
                            let age = heartbeat_age(&root.join(shard_name(shard)), *spawned);
                            if age > config.heartbeat_stale {
                                let _ = child.kill();
                                let _ = child.wait();
                                events.log(
                                    shard,
                                    "stale",
                                    &format!("heartbeat silent for {}ms", age.as_millis()),
                                );
                                Some(fail_attempt(
                                    config,
                                    &mut events,
                                    shard,
                                    attempt_no,
                                    format!("heartbeat stale ({}ms)", age.as_millis()),
                                ))
                            } else {
                                None
                            }
                        }
                    }
                }
                ShardState::Done { .. } | ShardState::Poisoned { .. } => None,
            };
            if let Some(s) = next {
                states[shard] = s;
            }
        }
        if !busy {
            break;
        }
        std::thread::sleep(POLL);
    }

    // Merge: interleave every merged shard's instruction records back into
    // global order, union coverage, and rebuild the clusters —
    // deterministic content only; retries, timings, and reuse live in
    // fleet-events.jsonl.
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
                let doc = parse_shard_doc(&root.join(shard_name(shard)).join("manifest.json"))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
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

    let completed = docs.iter().all(|d| d.completed);
    let candidates = docs.iter().map(|d| d.candidates).max().unwrap_or(0);
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
    // kept, exactly like a single-process `record_deviation` run.
    let counts = sum_counts(&insns);
    let deviations = all_deviations(&insns);
    let merged_shards = shards_out
        .iter()
        .filter(|s| !matches!(s.status, ShardStatus::Poisoned(_)))
        .count();

    let dev_json: Vec<String> = deviations.iter().map(deviation_json).collect();
    let poisoned_json: Vec<String> = poisoned
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    let merged = format!(
        "{{\n\"run_id\":\"{}\",\n\"completed\":{},\n\"config\":{{\"first_byte\":{},\
         \"second_byte\":{},\"max_paths_per_insn\":{},\"shards\":{}}},\n\"counts\":{},\n\
         \"fleet\":{{\"shards\":{},\"merged\":{},\"poisoned\":[{}]}},\n\"coverage\":{},\n\
         \"clusters\":{},\n\"robustness\":{},\n\"deviations\":[{}]\n}}\n",
        escape(&config.run_id),
        completed,
        opt_u8_json(config.first_byte),
        opt_u8_json(config.second_byte),
        config.max_paths_per_insn,
        config.shards,
        counts_json(candidates, &counts),
        config.shards,
        merged_shards,
        poisoned_json.join(","),
        coverage.to_json_object(),
        clusters_json_of(&deviations),
        robustness_json(&counts, &poisoned),
        dev_json.join(","),
    );
    let merged_path = root.join("merged.json");
    write_atomic(&merged_path, &merged)?;
    events.log_named(
        "coordinator",
        "merged",
        &format!(
            "{merged_shards}/{} shard(s), {} deviation(s), {} poisoned",
            config.shards,
            deviations.len(),
            poisoned.len()
        ),
    );

    if config.ledger && history::enabled() {
        let mut rec = RunRecord::new("fleet", &config.run_id, config_fp.clone());
        rec.det("count.shards", config.shards as u64);
        rec.det("count.merged", merged_shards as u64);
        rec.det("count.poisoned", poisoned.len() as u64);
        rec.det(
            "count.unique_instructions",
            counts.unique_instructions as u64,
        );
        rec.det("count.fully_explored", counts.fully_explored as u64);
        rec.det("count.total_paths", counts.total_paths as u64);
        rec.det("count.deviations", deviations.len() as u64);
        rec.det("robust.unknown_queries", counts.unknown_queries);
        rec.det("robust.infeasible_paths", counts.infeasible_paths as u64);
        for (name, m) in &coverage.maps {
            let short = name.strip_prefix("coverage.").unwrap_or(name);
            rec.det(&format!("cov.{short}.set"), m.set_count() as u64);
        }
        rec.timing("wall.total", started.elapsed().as_secs_f64());
        crate::ledger::append_record(rec);
    }

    Ok(FleetOutcome {
        run_id: config.run_id.clone(),
        root,
        merged_path,
        shards: shards_out,
        poisoned,
        reused,
        unique_instructions: counts.unique_instructions,
        total_paths: counts.total_paths,
        deviations: deviations.len(),
    })
}

fn opt_u8_json(v: Option<u8>) -> String {
    match v {
        Some(b) => b.to_string(),
        None => "null".to_owned(),
    }
}
