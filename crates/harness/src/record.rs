//! Run records: one module for everything a run writes about its
//! deterministic results (DESIGN.md §7, §12).
//!
//! [`InsnRecord`] is one instruction's result; `analyze` completes it from
//! the executed tests and `fold` turns a run's records, in analysis order,
//! into a [`CrossValidation`]. The pipeline and the fleet both go through
//! these two functions. `render` is the one writer of a run document,
//! written with [`pokemu_rt::write_atomic`], and [`read`] is the one
//! reader. A run manifest, a fleet shard manifest (also the shard's
//! checkpoint) and a fleet merged manifest are all this document, with
//! different caller sections:
//!
//! ```json
//! {
//!   "run_id": "smoke",
//!   "completed": true,
//!   "config": { "first_byte": 128, "threads": 2, ... },
//!   "counts": { "candidates": 27, "total_paths": 54, ... },
//!   <caller sections: "timings_ns" + "metrics" | "fleet" | "insns">,
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
//! (`POKEMU_RUN_DEADLINE_MS`) or a fleet shard still in progress; every
//! section reflects the work that finished. `counts`, `coverage`,
//! `clusters`, `robustness` and `deviations` are deterministic for a fixed
//! config and seed, whatever the thread or shard count, so CI commits
//! baseline documents and gates on `pokemu-report diff`. `timings_ns` and
//! `metrics.timers_ns` are wall-clock measurements, never compared.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use pokemu_rt::coverage::{CoverageSnapshot, MapSnapshot};
use pokemu_rt::json::{self, escape, Value};
use pokemu_rt::{flight, metrics, MetricsSnapshot, QuarantineRecord};

use crate::compare::{analyze_case, Clusters, RootCause};
use crate::pipeline::{hex, CrossValidation, DeviationRecord, ItemOutcome, PipelineConfig};

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

/// Degrades a failed run-artifact write without panicking, keeping the
/// attribution: which fleet shard (`POKEMU_FLEET_SHARD`, `none` outside a
/// worker) hit which OS error writing what. The detail goes to the flight
/// recorder and to stderr (a fleet worker's `worker.log`), and
/// `manifest.write_failures` counts it.
pub fn note_write_failure(what: &str, err: &io::Error) {
    metrics::counter("manifest.write_failures").inc();
    let shard = std::env::var(crate::fleet::SHARD_ENV).unwrap_or_else(|_| "none".to_owned());
    let os = err
        .raw_os_error()
        .map_or_else(|| "none".to_owned(), |c| c.to_string());
    flight::note("manifest.write_failure", || {
        format!("{what} failed: shard={shard} os_error={os}: {err}")
    });
    eprintln!("[manifest] {what} failed (shard {shard}, os error {os}): {err}");
}

// ---------------------------------------------------------------------------
// Per-instruction results and the fold
// ---------------------------------------------------------------------------

/// One instruction's deterministic result: what its exploration found and
/// what analysis of its executed tests produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsnRecord {
    /// Position in the run's sorted instruction-class list, so a fleet merge
    /// can interleave shards back into the pipeline's analysis order.
    pub index: usize,
    /// The instruction class name.
    pub name: String,
    /// Whether state-space exploration was exhaustive.
    pub complete: bool,
    /// Explored paths (= generated test programs).
    pub paths: usize,
    /// Solver queries issued.
    pub solver_queries: u64,
    /// Solver queries abandoned as Unknown.
    pub unknown_queries: u64,
    /// Replayed paths found unsatisfiable at path end.
    pub infeasible_paths: usize,
    /// Tests whose raw Lo-Fi state differs from the oracle's.
    pub lofi_differences: usize,
    /// Tests whose raw Hi-Fi state differs from the oracle's.
    pub hifi_differences: usize,
    /// Filtered deviations, in program order, Lo-Fi before Hi-Fi per test.
    pub deviations: Vec<DeviationRecord>,
}

/// Completes one instruction's record: analyzes its executed tests against
/// the hardware oracle (Fig. 1 step 5), leaving a flight-recorder
/// breadcrumb per deviation (the recorder's merged dump is written
/// alongside the manifest whenever a run with deviations finishes).
pub(crate) fn analyze(item: ItemOutcome) -> InsnRecord {
    let mut rec = item.record;
    for (insn, path_id, case) in &item.cases {
        let analysis = analyze_case(case, insn, *path_id);
        rec.lofi_differences += usize::from(analysis.lofi_differs);
        rec.hifi_differences += usize::from(analysis.hifi_differs);
        for (target, d) in &analysis.deviations {
            flight::note("pipeline.deviation", || {
                format!(
                    "{target} {} insn={} cause={}",
                    case.name,
                    hex(&d.insn),
                    d.cause
                )
            });
            rec.deviations
                .push(DeviationRecord::new(target, &case.name, d));
        }
    }
    rec
}

/// Adds one deviation to a run's filtered count, its target's clusters and
/// the deviation list.
fn add_deviation(out: &mut CrossValidation, d: DeviationRecord) {
    let cause: RootCause = d
        .cause
        .parse()
        .expect("deviation causes are RootCause display forms");
    let (filtered, clusters) = match d.target.as_str() {
        "lofi" => (&mut out.lofi_filtered, &mut out.lofi_clusters),
        _ => (&mut out.hifi_filtered, &mut out.hifi_clusters),
    };
    *filtered += 1;
    clusters.add(&d.test, &cause);
    out.deviations.push(d);
}

/// Folds per-instruction results, in analysis order, into a run's counts,
/// clusters and deviation list. `candidates` is left at 0 and `completed`
/// set, for the caller to override; `stages` carries only the solver-query
/// total.
pub(crate) fn fold(insns: &[InsnRecord]) -> CrossValidation {
    let mut out = CrossValidation {
        unique_instructions: insns.len(),
        completed: true,
        ..CrossValidation::default()
    };
    for r in insns {
        out.fully_explored += usize::from(r.complete);
        out.total_paths += r.paths;
        out.stages.solver_queries += r.solver_queries;
        out.unknown_queries += r.unknown_queries;
        out.infeasible_paths += r.infeasible_paths;
        out.lofi_differences += r.lofi_differences;
        out.hifi_differences += r.hifi_differences;
        for d in &r.deviations {
            add_deviation(&mut out, d.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Renders one run document (layout in the module docs). `config` is the
/// caller's rendered config section; `extra` are further caller sections,
/// placed after `counts`.
pub(crate) fn render(
    run_id: &str,
    config: &str,
    out: &CrossValidation,
    coverage: &CoverageSnapshot,
    extra: &[(&str, String)],
) -> String {
    let counts = format!(
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
    let quarantine: Vec<String> = out.quarantined.iter().map(quarantine_json).collect();
    let robustness = format!(
        "{{\"quarantined\":{},\"skipped_instructions\":{},\"unknown_queries\":{},\
         \"infeasible_paths\":{},\"quarantine\":[{}]}}",
        out.quarantined.len(),
        out.skipped_instructions,
        out.unknown_queries,
        out.infeasible_paths,
        quarantine.join(","),
    );
    let deviations: Vec<String> = out.deviations.iter().map(deviation_json).collect();
    let mut doc = format!(
        "{{\n\"run_id\":\"{}\",\n\"completed\":{},\n\"config\":{config},\n\"counts\":{counts},\n",
        escape(run_id),
        out.completed,
    );
    for (name, section) in extra {
        doc.push_str(&format!("\"{name}\":{section},\n"));
    }
    doc.push_str(&format!(
        "\"coverage\":{},\n\"clusters\":{{\"lofi\":{},\"hifi\":{}}},\n\"robustness\":{robustness},\n\
         \"deviations\":[{}]\n}}\n",
        coverage.to_json_object(),
        clusters_json(&out.lofi_clusters),
        clusters_json(&out.hifi_clusters),
        deviations.join(","),
    ));
    doc
}

/// Renders a pipeline run's manifest: its config, counts, stage timings,
/// the run's metrics delta, and the process's cumulative coverage
/// (idempotent bitmaps, so deterministic for a fixed binary and config).
pub(crate) fn manifest(
    run_id: &str,
    config: &PipelineConfig,
    out: &CrossValidation,
    metrics_delta: &MetricsSnapshot,
    coverage: &CoverageSnapshot,
) -> String {
    let s = &out.stages;
    let config_json = format!(
        "{{\"first_byte\":{},\"second_byte\":{},\"max_instructions\":{},\
         \"max_paths_per_insn\":{},\"lofi_fidelity\":\"{:?}\",\"threads\":{}}}",
        opt_json(config.first_byte),
        opt_json(config.second_byte),
        config.max_instructions,
        config.max_paths_per_insn,
        config.lofi_fidelity,
        config.threads,
    );
    let timings = format!(
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
    let entries = |m: &BTreeMap<String, u64>| -> String {
        let e: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect();
        e.join(",")
    };
    let metrics_json = format!(
        "{{\"counters\":{{{}}},\"timers_ns\":{{{}}}}}",
        entries(&metrics_delta.counters),
        entries(&metrics_delta.timers)
    );
    render(
        run_id,
        &config_json,
        out,
        coverage,
        &[("timings_ns", timings), ("metrics", metrics_json)],
    )
}

/// A config byte, or `null`.
pub(crate) fn opt_json(v: Option<u8>) -> String {
    v.map_or_else(|| "null".to_owned(), |b| b.to_string())
}

fn clusters_json(c: &Clusters) -> String {
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
/// depends on thread scheduling, and the robustness section must stay
/// deterministic for the baseline diff gate. The captured flight events
/// are summarized by count (the full dump lives next to the manifest in
/// `flightrec-quarantine.jsonl`).
fn quarantine_json(q: &QuarantineRecord) -> String {
    let item = q.item.map_or_else(|| "null".to_owned(), |i| i.to_string());
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

/// Renders a fleet shard's `insns` section. Each entry carries its
/// deviation *count*; the deviations themselves are the document's
/// `deviations` section, in the same order.
pub(crate) fn insns_json(insns: &[InsnRecord]) -> String {
    let rows: Vec<String> = insns
        .iter()
        .map(|r| {
            format!(
                "{{\"index\":{},\"name\":\"{}\",\"complete\":{},\"paths\":{},\
                 \"solver_queries\":{},\"unknown_queries\":{},\"infeasible_paths\":{},\
                 \"lofi_differences\":{},\"hifi_differences\":{},\"deviations\":{}}}",
                r.index,
                escape(&r.name),
                r.complete,
                r.paths,
                r.solver_queries,
                r.unknown_queries,
                r.infeasible_paths,
                r.lofi_differences,
                r.hifi_differences,
                r.deviations.len(),
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// A run document read back from disk.
#[derive(Debug, Clone)]
pub struct RunDoc {
    /// The document's `run_id`.
    pub run_id: String,
    /// Its counts, robustness, deviations and `completed` flag, with the
    /// filtered counts and clusters rebuilt from the deviations. `stages`
    /// is not read back, and quarantine records carry no flight events
    /// (those live in `flightrec-quarantine.jsonl`).
    pub results: CrossValidation,
    /// Its coverage bitmaps.
    pub coverage: CoverageSnapshot,
    /// Its per-instruction results (fleet shard manifests only).
    pub insns: Vec<InsnRecord>,
    /// The whole parsed document, for the caller sections.
    pub root: Value,
}

/// Reads a run document: a run manifest, a fleet shard manifest or a fleet
/// merged manifest. An absent section reads as empty (`completed` as
/// `true`: manifests older than the robustness layer could only exist by
/// finishing); a section that is present must be well-formed.
///
/// # Errors
///
/// Returns a message naming the file and the first bad section.
pub fn read(path: &Path) -> Result<RunDoc, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: bad {what}", path.display());
    let num = |v: Option<&Value>, what: &str| -> Result<u64, String> {
        v.map_or(Ok(0), |v| v.as_u64().ok_or_else(|| bad(what)))
    };
    // An absent array reads as empty.
    fn list(v: Option<&Value>) -> Option<&[Value]> {
        v.map_or(Some(&[]), Value::as_array)
    }

    let mut results = CrossValidation {
        completed: match root.get("completed") {
            None => true,
            Some(v) => v.as_bool().ok_or_else(|| bad("completed"))?,
        },
        ..CrossValidation::default()
    };
    let mut deviations = Vec::new();
    for v in list(root.get("deviations")).ok_or_else(|| bad("deviations"))? {
        let d = parse_deviation(v)
            .filter(|d| d.cause.parse::<RootCause>().is_ok())
            .ok_or_else(|| bad("deviation"))?;
        deviations.push(d);
    }
    let counts = root.get("counts");
    let count = |key: &str| num(counts.and_then(|c| c.get(key)), "counts");
    results.candidates = count("candidates")? as usize;
    results.unique_instructions = count("unique_instructions")? as usize;
    results.fully_explored = count("fully_explored")? as usize;
    results.total_paths = count("total_paths")? as usize;
    results.lofi_differences = count("lofi_differences")? as usize;
    results.hifi_differences = count("hifi_differences")? as usize;
    let robustness = root.get("robustness");
    let robust = |key: &str| robustness.and_then(|r| r.get(key));
    results.skipped_instructions = num(robust("skipped_instructions"), "robustness")? as usize;
    results.unknown_queries = num(robust("unknown_queries"), "robustness")?;
    results.infeasible_paths = num(robust("infeasible_paths"), "robustness")? as usize;
    for v in list(robust("quarantine")).ok_or_else(|| bad("quarantine"))? {
        let message = v.get("message").and_then(Value::as_str);
        results.quarantined.push(QuarantineRecord {
            item: v.get("item").and_then(Value::as_u64).map(|i| i as usize),
            worker: 0,
            message: message.ok_or_else(|| bad("quarantine"))?.to_owned(),
            flight: Vec::new(),
        });
    }

    // A shard's instructions own consecutive runs of its deviations.
    let mut insns = Vec::new();
    let mut rest = deviations.as_slice();
    for v in list(root.get("insns")).ok_or_else(|| bad("insns"))? {
        let mut r = parse_insn(v).ok_or_else(|| bad("insn"))?;
        let n = num(v.get("deviations"), "insn")? as usize;
        let (own, tail) = rest.split_at_checked(n).ok_or_else(|| bad("insns"))?;
        r.deviations = own.to_vec();
        rest = tail;
        insns.push(r);
    }
    if !insns.is_empty() && !rest.is_empty() {
        return Err(bad("insns"));
    }
    for d in deviations {
        add_deviation(&mut results, d);
    }

    let mut coverage = CoverageSnapshot::default();
    if let Some(maps) = root.get("coverage") {
        let Value::Obj(maps) = maps else {
            return Err(bad("coverage"));
        };
        for (name, v) in maps {
            let m =
                MapSnapshot::from_value(v).ok_or_else(|| bad(&format!("coverage map {name}")))?;
            coverage.maps.insert(name.clone(), m);
        }
    }
    Ok(RunDoc {
        run_id: root
            .get("run_id")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned(),
        results,
        coverage,
        insns,
        root,
    })
}

/// One `deviations` entry, as [`deviation_json`] renders it.
pub(crate) fn parse_deviation(v: &Value) -> Option<DeviationRecord> {
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
            .map(|c| c.as_str().map(str::to_owned))
            .collect::<Option<_>>()?,
    })
}

/// An `insns` entry without its deviations (see [`insns_json`]).
fn parse_insn(v: &Value) -> Option<InsnRecord> {
    let n = |key: &str| v.get(key)?.as_u64();
    Some(InsnRecord {
        index: n("index")? as usize,
        name: v.get("name")?.as_str()?.to_owned(),
        complete: v.get("complete")?.as_bool()?,
        paths: n("paths")? as usize,
        solver_queries: n("solver_queries")?,
        unknown_queries: n("unknown_queries")?,
        infeasible_paths: n("infeasible_paths")? as usize,
        lofi_differences: n("lofi_differences")? as usize,
        hifi_differences: n("hifi_differences")? as usize,
        deviations: Vec::new(),
    })
}

/// Counter namespaces that `pokemu-report diff`'s counter rule skips:
/// trace bookkeeping is scheduling-dependent, and the manifest writer must
/// not observe its own side effects.
pub const EXCLUDED_COUNTER_PREFIXES: [&str; 2] = ["trace.", "manifest."];

#[cfg(test)]
mod tests {
    use super::*;

    fn insn(index: usize, deviations: &[(&str, u64, &str)]) -> InsnRecord {
        let deviations: Vec<DeviationRecord> = deviations
            .iter()
            .map(|&(target, path_id, cause)| DeviationRecord {
                target: target.into(),
                test: format!("insn{index}/path{path_id}"),
                insn_hex: "f7f1".into(),
                path_id,
                cause: cause.into(),
                components: vec!["eax: 0x0 vs 0x1".into()],
            })
            .collect();
        InsnRecord {
            index,
            name: format!("insn{index}"),
            complete: index.is_multiple_of(2),
            paths: 3,
            solver_queries: 7,
            unknown_queries: 1,
            infeasible_paths: 0,
            lofi_differences: deviations.len(),
            hifi_differences: 0,
            deviations,
        }
    }

    /// A shard document comes back from the one reader as the one writer
    /// wrote it: per-instruction results, exact 64-bit path ids, and the
    /// clusters the fold built.
    #[test]
    fn shard_document_round_trips() {
        let segs = "missing segment limit/rights checks";
        let insns = vec![
            insn(1, &[("lofi", u64::MAX, "other: cr2"), ("hifi", 1, segs)]),
            insn(4, &[]),
            insn(6, &[("lofi", 6_788_597_773_786_650_520, segs)]),
        ];
        let out = CrossValidation {
            candidates: 9,
            completed: false,
            ..fold(&insns)
        };
        let dir = std::env::temp_dir().join(format!("pokemu-record-{}", std::process::id()));
        let path = dir.join("manifest.json");
        let extra = [("insns", insns_json(&insns))];
        let doc = render("shard-0", "{}", &out, &CoverageSnapshot::default(), &extra);
        pokemu_rt::write_atomic(&path, &doc).unwrap();
        let back = read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.insns, insns);
        assert_eq!(back.results.deviations, out.deviations);
        assert_eq!(back.results.lofi_clusters, out.lofi_clusters);
        assert_eq!(back.results.hifi_clusters, out.hifi_clusters);
        assert_eq!(
            (back.results.candidates, back.results.completed),
            (9, false)
        );
    }
}
