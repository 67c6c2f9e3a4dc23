//! Run manifests: one JSON file that fully describes a pipeline run.
//!
//! `run_cross_validation` writes `target/run/<run-id>/manifest.json` when
//! armed ([`PipelineConfig::manifest`] or `POKEMU_RUN_MANIFEST=1`),
//! aggregating everything the run's observability layers produced:
//!
//! ```json
//! {
//!   "run_id": "smoke",
//!   "completed": true,
//!   "config": { "first_byte": 128, "threads": 2, ... },
//!   "counts": { "candidates": 27, "total_paths": 54, ... },
//!   "timings_ns": { "total_wall": ..., "explore_insns": ..., ... },
//!   "metrics": { "counters": {...}, "timers_ns": {...} },
//!   "coverage": { "coverage.opcode": {"bits":512,"set":1,"indices":[128]}, ... },
//!   "clusters": { "lofi": [ {"cause":"...","count":3,"examples":[...]} ], "hifi": [] },
//!   "robustness": { "quarantined": 0, "skipped_instructions": 0,
//!                   "unknown_queries": 0, "infeasible_paths": 0, "quarantine": [] },
//!   "deviations": [ {"target":"lofi","test":"...","insn":"f7f1",
//!                    "path_id":123456789,"cause":"...","components":[...]} ]
//! }
//! ```
//!
//! `"completed": false` marks a run cut short by the whole-run deadline
//! (`POKEMU_RUN_DEADLINE_MS`): every section still reflects the work that
//! finished, so a partial manifest is useful evidence, not garbage.
//!
//! `counts`, `coverage`, `clusters`, and `deviations` are deterministic for
//! a fixed config and seed (thread-count-invariant; proven by
//! `tests/deterministic_replay.rs`), which is what lets CI commit a
//! baseline manifest and gate on `pokemu-report diff`. `timings_ns` and
//! `metrics.timers_ns` are wall-clock measurements — informational only,
//! never compared.

use std::io;
use std::path::PathBuf;

use pokemu_rt::coverage::CoverageSnapshot;
use pokemu_rt::json::escape;
use pokemu_rt::MetricsSnapshot;

use crate::pipeline::{CrossValidation, DeviationRecord, PipelineConfig};

/// Environment variable that arms manifest writing (any value but `0`).
pub const MANIFEST_ENV: &str = "POKEMU_RUN_MANIFEST";

/// Environment variable naming the run (the `<run-id>` directory).
pub const RUN_ID_ENV: &str = "POKEMU_RUN_ID";

/// Whether the environment arms manifest writing.
pub fn env_enabled() -> bool {
    std::env::var(MANIFEST_ENV)
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// The run id: `POKEMU_RUN_ID`, or `pid-<pid>` so concurrent unnamed runs
/// cannot clobber each other's directories.
pub fn resolve_run_id() -> String {
    match std::env::var(RUN_ID_ENV) {
        Ok(id) if !id.is_empty() => sanitize(&id),
        _ => format!("pid-{}", std::process::id()),
    }
}

/// Keeps run ids path-safe: alphanumerics, `-`, `_`, `.`; everything else
/// becomes `-`.
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The artifact directory for a run: `target/run/<run-id>/`.
pub fn run_dir(run_id: &str) -> PathBuf {
    pokemu_rt::target_dir().join("run").join(run_id)
}

/// Degrades a failed run-artifact write without panicking, and — unlike a
/// bare counter bump — keeps the *attribution*: which fleet shard (from
/// `POKEMU_FLEET_SHARD`, `none` outside a fleet worker) hit which OS error
/// writing which artifact. The detail lands in the flight recorder (so a
/// later quarantine/panic dump carries it) and on stderr (so a fleet
/// coordinator's per-shard `worker.log` names the failure); the
/// `manifest.write_failures` counter still bumps for the metrics trail.
pub fn note_write_failure(what: &str, err: &io::Error) {
    pokemu_rt::metrics::counter("manifest.write_failures").inc();
    let shard = std::env::var(crate::fleet::SHARD_ENV).unwrap_or_else(|_| "none".to_owned());
    let os = err
        .raw_os_error()
        .map_or_else(|| "none".to_owned(), |c| c.to_string());
    pokemu_rt::flight::note("manifest.write_failure", || {
        format!("{what} failed: shard={shard} os_error={os}: {err}")
    });
    eprintln!("[manifest] {what} failed (shard {shard}, os error {os}): {err}");
}

/// A fully rendered run manifest, ready to write.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// The run id (directory name under `target/run/`).
    pub run_id: String,
    json: String,
}

impl RunManifest {
    /// Renders a manifest from a finished run: its config, counters and
    /// clusters, the run's metrics delta, and the process's cumulative
    /// coverage (idempotent bitmaps, so deterministic for a fixed binary
    /// and config).
    pub fn build(
        run_id: &str,
        config: &PipelineConfig,
        out: &CrossValidation,
        metrics_delta: &MetricsSnapshot,
        coverage: &CoverageSnapshot,
    ) -> RunManifest {
        let s = &out.stages;
        let config_json = format!(
            "{{\"first_byte\":{},\"second_byte\":{},\"max_instructions\":{},\
             \"max_paths_per_insn\":{},\"lofi_fidelity\":\"{:?}\",\"threads\":{}}}",
            opt_u8(config.first_byte),
            opt_u8(config.second_byte),
            config.max_instructions,
            config.max_paths_per_insn,
            config.lofi_fidelity,
            config.threads,
        );
        let counts_json = format!(
            "{{\"candidates\":{},\"unique_instructions\":{},\"fully_explored\":{},\
             \"total_paths\":{},\"lofi_differences\":{},\"hifi_differences\":{},\
             \"lofi_filtered\":{},\"hifi_filtered\":{}}}",
            out.candidates,
            out.unique_instructions,
            out.fully_explored,
            out.total_paths,
            out.lofi_differences,
            out.hifi_differences,
            out.lofi_filtered,
            out.hifi_filtered,
        );
        let timings_json = format!(
            "{{\"total_wall\":{},\"explore_insns\":{},\"generate\":{},\"execute\":{},\
             \"analyze\":{},\"parallel_wall\":{},\"solver_queries\":{}}}",
            s.total_wall.as_nanos(),
            s.explore_insns.as_nanos(),
            s.generate.as_nanos(),
            s.execute.as_nanos(),
            s.analyze.as_nanos(),
            s.parallel_wall.as_nanos(),
            s.solver_queries,
        );
        let counters: Vec<String> = metrics_delta
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect();
        let timers: Vec<String> = metrics_delta
            .timers
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect();
        let metrics_json = format!(
            "{{\"counters\":{{{}}},\"timers_ns\":{{{}}}}}",
            counters.join(","),
            timers.join(",")
        );
        let clusters_json = format!(
            "{{\"lofi\":{},\"hifi\":{}}}",
            clusters_json(&out.lofi_clusters),
            clusters_json(&out.hifi_clusters)
        );
        let deviations: Vec<String> = out.deviations.iter().map(deviation_json).collect();
        let quarantine: Vec<String> = out.quarantined.iter().map(quarantine_json).collect();
        let robustness_json = format!(
            "{{\"quarantined\":{},\"skipped_instructions\":{},\"unknown_queries\":{},\
             \"infeasible_paths\":{},\"quarantine\":[{}]}}",
            out.quarantined.len(),
            out.skipped_instructions,
            out.unknown_queries,
            out.infeasible_paths,
            quarantine.join(","),
        );
        let json = format!(
            "{{\n\"run_id\":\"{}\",\n\"completed\":{},\n\"config\":{},\n\"counts\":{},\n\
             \"timings_ns\":{},\n\"metrics\":{},\n\"coverage\":{},\n\"clusters\":{},\n\
             \"robustness\":{},\n\"deviations\":[{}]\n}}\n",
            escape(run_id),
            out.completed,
            config_json,
            counts_json,
            timings_json,
            metrics_json,
            coverage.to_json_object(),
            clusters_json,
            robustness_json,
            deviations.join(","),
        );
        RunManifest {
            run_id: run_id.to_owned(),
            json,
        }
    }

    /// The rendered JSON document.
    pub fn to_json(&self) -> &str {
        &self.json
    }

    /// Writes `manifest.json` into this run's `target/run/<run-id>/`
    /// directory, creating it as needed, and returns the file path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = run_dir(&self.run_id);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("manifest.json");
        std::fs::write(&path, &self.json)?;
        Ok(path)
    }
}

fn opt_u8(v: Option<u8>) -> String {
    match v {
        Some(b) => b.to_string(),
        None => "null".to_owned(),
    }
}

fn clusters_json(c: &crate::compare::Clusters) -> String {
    let entries: Vec<String> = c
        .iter()
        .map(|(cause, count, examples)| {
            let ex: Vec<String> = examples
                .iter()
                .map(|e| format!("\"{}\"", escape(e)))
                .collect();
            format!(
                "{{\"cause\":\"{}\",\"count\":{count},\"examples\":[{}]}}",
                escape(&cause.to_string()),
                ex.join(",")
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

/// Renders one quarantine entry. The worker id is *not* serialized: it
/// depends on thread scheduling, and the manifest's robustness section must
/// stay deterministic for the baseline diff gate. The captured flight
/// events are summarized by count (the full dump lives next to the
/// manifest in `flightrec-quarantine.jsonl`).
fn quarantine_json(q: &pokemu_rt::QuarantineRecord) -> String {
    let item = match q.item {
        Some(i) => i.to_string(),
        None => "null".to_owned(),
    };
    format!(
        "{{\"item\":{item},\"message\":\"{}\",\"flight_events\":{}}}",
        escape(&q.message),
        q.flight.len()
    )
}

pub(crate) fn deviation_json(d: &DeviationRecord) -> String {
    let components: Vec<String> = d
        .components
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect();
    format!(
        "\n {{\"target\":\"{}\",\"test\":\"{}\",\"insn\":\"{}\",\"path_id\":{},\
         \"cause\":\"{}\",\"components\":[{}]}}",
        escape(&d.target),
        escape(&d.test),
        escape(&d.insn_hex),
        d.path_id,
        escape(&d.cause),
        components.join(",")
    )
}
