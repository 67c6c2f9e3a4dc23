//! Run ledger: append-only, content-hashed cross-run history.
//!
//! Every pipeline / bench run appends one compact JSONL record to
//! `target/history/ledger.jsonl` (override the directory with
//! `POKEMU_HISTORY_DIR`, opt out entirely with `POKEMU_HISTORY=0`). A record
//! separates **deterministic** fields (work counts, coverage populations,
//! deviation clusters, hot-TB exec counts — byte-identical across thread
//! counts and repeat runs of the same config) from **timing** fields (stage
//! wall-times, per-origin solver nanoseconds, histogram percentiles — never
//! compared exactly). This is the interchange format the fleet coordinator
//! merges shard records through (ROADMAP item 3) and the substrate for
//! `pokemu-report compare/trend/history`.
//!
//! ## Line format
//!
//! ```text
//! {"hash":"<16 hex>","body":{"schema":1,"seq":N,"kind":"...","run_id":"...",
//!   "config_fp":"<16 hex>","det":{...},"timing":{...}}}
//! ```
//!
//! The hash is FNV-1a 64 over the rendered body bytes, so `verify` can check
//! integrity without re-parsing floats: it textually extracts the body
//! substring and re-hashes it. Records are self-contained — no cross-record
//! pointers — so `gc` can drop a prefix without invalidating anything.
//!
//! ## Grouping
//!
//! Records are comparable only within a `(kind, config_fp)` group. The config
//! fingerprint folds in the pipeline config (minus thread count — determinism
//! is thread-invariant by contract), a process-wide *context* label (which
//! binary / flow produced the record, see [`set_context`]), and the
//! workload-shaping environment ([`TRACKED_ENV`]: fault injection,
//! solver/run deadlines). Pure observer toggles (`POKEMU_COVERAGE`,
//! `POKEMU_PROF`, `POKEMU_TRACE`) are deliberately *not* fingerprinted: a
//! run that silently lost its coverage is a regression the trend gate must
//! catch, not a new group.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::RwLock;

use crate::json::{self, escape, Value};

/// Current record schema version.
pub const SCHEMA: u64 = 1;
/// Set to `0` to disable automatic ledger appends.
pub const HISTORY_ENV: &str = "POKEMU_HISTORY";
/// Overrides the ledger directory (default `target/history`).
pub const HISTORY_DIR_ENV: &str = "POKEMU_HISTORY_DIR";
/// Appends auto-gc down to [`AUTO_GC_KEEP`] once the ledger exceeds this.
pub const AUTO_GC_CAP: usize = 4096;
/// Records kept by an automatic gc.
pub const AUTO_GC_KEEP: usize = 2048;
/// Default cap for an explicit `pokemu-report history gc`.
pub const DEFAULT_GC_CAP: usize = 512;
/// Trend window default (`pokemu-report trend --last N`).
pub const DEFAULT_TREND_WINDOW: usize = 20;

/// Environment variables that shape the workload and therefore partition
/// trend groups. Observer toggles (coverage/prof/trace) are intentionally
/// absent — see the module docs.
pub const TRACKED_ENV: [&str; 5] = [
    "POKEMU_FAULT",
    "POKEMU_SOLVER_DEADLINE_MS",
    "POKEMU_SOLVER_FUEL",
    "POKEMU_RUN_DEADLINE_MS",
    "POKEMU_INSN_DEADLINE_MS",
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string (same function as the path-id hash).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// True unless `POKEMU_HISTORY=0`.
pub fn enabled() -> bool {
    std::env::var(HISTORY_ENV).map_or(true, |v| v != "0")
}

/// Ledger directory: `POKEMU_HISTORY_DIR` or `<target>/history`.
pub fn dir() -> PathBuf {
    match std::env::var(HISTORY_DIR_ENV) {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => crate::target_dir().join("history"),
    }
}

/// Default ledger file.
pub fn ledger_path() -> PathBuf {
    dir().join("ledger.jsonl")
}

static CONTEXT: RwLock<Option<String>> = RwLock::new(None);

/// Labels every subsequent record with the producing flow (e.g.
/// `"smoke-bench"`, `"pokemu-bench:pipeline_smoke"`). Folded into every
/// config fingerprint so different flows — even with identical pipeline
/// configs — form separate trend groups. Overwrites any earlier label.
pub fn set_context(label: &str) {
    *CONTEXT.write().expect("history context poisoned") = Some(label.to_string());
}

/// The current context label: the last [`set_context`] value, else the
/// current executable's file stem (with any trailing `-<16 hex>` cargo test
/// hash stripped so the label survives rebuilds), else `"unknown"`.
pub fn context() -> String {
    if let Some(c) = CONTEXT.read().expect("history context poisoned").clone() {
        return c;
    }
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().and_then(|s| s.to_str()).map(strip_bin_hash))
        .unwrap_or_else(|| "unknown".to_string())
}

fn strip_bin_hash(stem: &str) -> String {
    if let Some(idx) = stem.rfind('-') {
        let tail = &stem[idx + 1..];
        if tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit()) {
            return stem[..idx].to_string();
        }
    }
    stem.to_string()
}

/// `K=V;K=V` string of the set [`TRACKED_ENV`] variables (empty when none
/// are set). Part of every config fingerprint.
pub fn env_fingerprint() -> String {
    let mut parts = Vec::new();
    for key in TRACKED_ENV {
        if let Ok(v) = std::env::var(key) {
            parts.push(format!("{key}={v}"));
        }
    }
    parts.join(";")
}

/// 16-hex config fingerprint over `context | tracked env | parts`.
pub fn fingerprint(parts: &[String]) -> String {
    let mut buf = Vec::new();
    buf.extend_from_slice(context().as_bytes());
    buf.push(0x1f);
    buf.extend_from_slice(env_fingerprint().as_bytes());
    for p in parts {
        buf.push(0x1f);
        buf.extend_from_slice(p.as_bytes());
    }
    format!("{:016x}", fnv1a64(&buf))
}

/// One run's ledger record. `det` holds deterministic u64 fields (compared
/// exactly by the trend gate); `timing` holds nondeterministic measurements
/// (banded, never compared exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Record schema version ([`SCHEMA`]).
    pub schema: u64,
    /// 1-based position in the ledger, assigned at append time.
    pub seq: u64,
    /// Producer kind: `"pipeline"`, `"fleet"` or `"bench"`.
    pub kind: String,
    /// Run identifier (manifest run id or bench workload name).
    pub run_id: String,
    /// 16-hex group fingerprint (see [`fingerprint`]).
    pub config_fp: String,
    /// Deterministic fields: thread-invariant, replay-identical.
    pub det: BTreeMap<String, u64>,
    /// Timing fields (nanoseconds unless the name says otherwise).
    pub timing: BTreeMap<String, f64>,
}

impl RunRecord {
    /// A fresh record with no fields; `seq` is assigned by [`append_to`].
    pub fn new(kind: &str, run_id: &str, config_fp: String) -> RunRecord {
        RunRecord {
            schema: SCHEMA,
            seq: 0,
            kind: kind.to_string(),
            run_id: run_id.to_string(),
            config_fp,
            det: BTreeMap::new(),
            timing: BTreeMap::new(),
        }
    }

    /// Sets a deterministic field.
    pub fn det(&mut self, name: impl Into<String>, value: u64) {
        self.det.insert(name.into(), value);
    }

    /// Sets a timing field.
    pub fn timing(&mut self, name: impl Into<String>, value: f64) {
        self.timing.insert(name.into(), value);
    }

    /// The rendered body (hash input). Field order is fixed; maps render in
    /// BTreeMap (byte-sorted) key order, so rendering is deterministic.
    pub fn body_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"schema\":{},\"seq\":{},\"kind\":\"{}\",\"run_id\":\"{}\",\"config_fp\":\"{}\",\"det\":{{",
            self.schema,
            self.seq,
            escape(&self.kind),
            escape(&self.run_id),
            escape(&self.config_fp),
        ));
        for (i, (k, v)) in self.det.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", escape(k), v));
        }
        s.push_str("},\"timing\":{");
        for (i, (k, v)) in self.timing.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", escape(k), render_num(*v)));
        }
        s.push_str("}}");
        s
    }

    /// The full ledger line: `{"hash":"<16 hex>","body":<body>}`.
    pub fn to_line(&self) -> String {
        let body = self.body_json();
        format!(
            "{{\"hash\":\"{:016x}\",\"body\":{}}}",
            fnv1a64(body.as_bytes()),
            body
        )
    }

    /// Parses one ledger line. Returns the record and whether the stored
    /// content hash matches the body bytes (`verify` reports mismatches; all
    /// other callers may ignore the flag).
    pub fn parse_line(line: &str) -> Result<(RunRecord, bool), String> {
        const PREFIX: &str = "{\"hash\":\"";
        const SEP: &str = "\",\"body\":";
        let rest = line
            .strip_prefix(PREFIX)
            .ok_or_else(|| "missing hash prefix".to_string())?;
        if rest.len() < 16 + SEP.len() + 1 {
            return Err("record truncated".to_string());
        }
        let stored = u64::from_str_radix(&rest[..16], 16).map_err(|e| format!("bad hash: {e}"))?;
        let rest = rest[16..]
            .strip_prefix(SEP)
            .ok_or_else(|| "missing body separator".to_string())?;
        let body = rest
            .strip_suffix('}')
            .ok_or_else(|| "missing closing brace".to_string())?;
        let hash_ok = fnv1a64(body.as_bytes()) == stored;
        let v = json::parse(body).map_err(|e| format!("body parse: {e}"))?;
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field {name}"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing field {name}"))
        };
        let mut det = BTreeMap::new();
        if let Some(Value::Obj(fields)) = v.get("det") {
            for (k, fv) in fields {
                det.insert(
                    k.clone(),
                    fv.as_u64().ok_or_else(|| format!("det.{k} not a u64"))?,
                );
            }
        }
        let mut timing = BTreeMap::new();
        if let Some(Value::Obj(fields)) = v.get("timing") {
            for (k, fv) in fields {
                timing.insert(
                    k.clone(),
                    fv.as_f64()
                        .ok_or_else(|| format!("timing.{k} not a number"))?,
                );
            }
        }
        Ok((
            RunRecord {
                schema: u64_field("schema")?,
                seq: u64_field("seq")?,
                kind: str_field("kind")?,
                run_id: str_field("run_id")?,
                config_fp: str_field("config_fp")?,
                det,
                timing,
            },
            hash_ok,
        ))
    }
}

/// Renders a timing value: integers print without a fraction (stable
/// round-trip through the f64 JSON parser), everything else with six
/// decimals. Non-finite values degrade to 0.
fn render_num(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Appends to the default ledger ([`ledger_path`]); returns the assigned
/// seq and the path written.
pub fn append(record: RunRecord) -> io::Result<(u64, PathBuf)> {
    let path = ledger_path();
    let seq = append_to(&path, record)?;
    Ok((seq, path))
}

/// Appends one record to `path`, assigning `seq` = last record's seq + 1
/// (line count + 1 when the tail is unparseable). Once the ledger exceeds
/// [`AUTO_GC_CAP`] records it is rewritten keeping the newest
/// [`AUTO_GC_KEEP`], so unattended appends never grow without bound. The
/// rewrite goes through [`crate::write_atomic`]: a kill mid-rewrite leaves
/// the old ledger. Seq assignment is best-effort under concurrent writers
/// (last-writer-wins on the read-count race); appends stay line-atomic via
/// `O_APPEND`.
pub fn append_to(path: &Path, mut record: RunRecord) -> io::Result<u64> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let existing = fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = existing.lines().filter(|l| !l.trim().is_empty()).collect();
    let last_seq = lines
        .last()
        .and_then(|l| RunRecord::parse_line(l).ok())
        .map(|(r, _)| r.seq)
        .unwrap_or(lines.len() as u64);
    record.seq = last_seq + 1;
    let line = record.to_line();
    if lines.len() >= AUTO_GC_CAP {
        let kept = lines[lines.len() - AUTO_GC_KEEP..].join("\n");
        crate::write_atomic(path, &format!("{kept}\n{line}\n"))?;
    } else {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
    }
    Ok(record.seq)
}

/// Loads every record in ledger order. Strict: an unparseable line is an
/// error naming `path:line` (use [`verify`] to enumerate all problems).
pub fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (r, _) = RunRecord::parse_line(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        records.push(r);
    }
    Ok(records)
}

/// Integrity check: re-hashes every record body against its stored content
/// hash. Returns one violation string per bad record, each naming the file,
/// line, and run id — empty means the ledger is intact.
pub fn verify(path: &Path) -> Result<Vec<String>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut violations = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match RunRecord::parse_line(line) {
            Ok((_, true)) => {}
            Ok((r, false)) => violations.push(format!(
                "{}:{}: run {} (seq {}): content hash mismatch — record tampered or truncated",
                path.display(),
                i + 1,
                r.run_id,
                r.seq
            )),
            Err(e) => violations.push(format!(
                "{}:{}: unparseable record: {e}",
                path.display(),
                i + 1
            )),
        }
    }
    Ok(violations)
}

/// Rewrites the ledger keeping only the newest `cap` records, atomically
/// ([`crate::write_atomic`]). Returns `(kept, dropped)`.
pub fn gc(path: &Path, cap: usize) -> Result<(usize, usize), String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() <= cap {
        return Ok((lines.len(), 0));
    }
    let keep_from = lines.len() - cap;
    crate::write_atomic(path, &(lines[keep_from..].join("\n") + "\n"))
        .map_err(|e| format!("cannot rewrite {}: {e}", path.display()))?;
    Ok((cap, keep_from))
}

/// Group key for trend analysis: records are comparable only within the
/// same `(kind, config fingerprint)` pair.
pub fn group_key(r: &RunRecord) -> String {
    format!("{}/{}", r.kind, r.config_fp)
}

// ---------------------------------------------------------------------------
// Causal attribution (pokemu-report compare)
// ---------------------------------------------------------------------------

/// Stage wall-time fields decomposed at attribution level 1, in pipeline
/// order. `wall.parallel` covers the worker phase and subdivides further
/// into worker-stage sums and per-origin solver time.
pub const STAGE_WALL_KEYS: [&str; 3] = ["wall.explore_insns", "wall.parallel", "wall.analyze"];

/// One stage's contribution to a wall-time delta.
#[derive(Debug, Clone)]
pub struct AttributionEntry {
    /// Timing field name (`wall.*`).
    pub name: String,
    /// Delta in nanoseconds (b − a).
    pub delta_ns: f64,
    /// Signed share of the total wall delta.
    pub share: f64,
    /// Sub-contributions: worker-stage sums and `solver.ns.<origin>` deltas
    /// for `wall.parallel`, empty elsewhere. Sorted by |delta| descending.
    pub children: Vec<(String, f64)>,
}

/// `compare` decomposition of a wall-time delta: stages covering ≥90% of
/// the delta, each subdivided down to solver origins, plus the hot-TB
/// execution-count deltas (level 3, deterministic).
#[derive(Debug, Clone)]
pub struct Attribution {
    /// `wall.total` delta in nanoseconds (b − a).
    pub total_delta_ns: f64,
    /// Signed share of the total covered by `entries`.
    pub covered_share: f64,
    /// Included stages, by |delta| descending.
    pub entries: Vec<AttributionEntry>,
    /// Hot-TB exec-count deltas (`hot_tb.<eip>`, b − a), |delta| descending.
    pub hot_tbs: Vec<(String, i64)>,
}

fn timing_of(r: &RunRecord, key: &str) -> f64 {
    r.timing.get(key).copied().unwrap_or(0.0)
}

fn prefixed_deltas(a: &RunRecord, b: &RunRecord, prefix: &str) -> Vec<(String, f64)> {
    let mut keys: BTreeSet<&String> = a.timing.keys().collect();
    keys.extend(b.timing.keys());
    let mut out: Vec<(String, f64)> = keys
        .into_iter()
        .filter(|k| k.starts_with(prefix))
        .map(|k| (k.clone(), timing_of(b, k) - timing_of(a, k)))
        .filter(|(_, d)| *d != 0.0)
        .collect();
    out.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()).then(x.0.cmp(&y.0)));
    out
}

/// Decomposes the `wall.total` delta between two records: stages are ranked
/// by |delta| and included until they cover ≥90% of |Δ wall.total| (noise
/// stages under 0.5% are dropped once coverage is reached); the parallel
/// stage subdivides into worker-summed generate/execute and per-origin
/// solver time; hot-TB deltas name the code whose execution count moved.
pub fn attribute(a: &RunRecord, b: &RunRecord) -> Attribution {
    let total = timing_of(b, "wall.total") - timing_of(a, "wall.total");
    let denom = total.abs().max(1.0);
    let mut stages: Vec<(String, f64)> = STAGE_WALL_KEYS
        .iter()
        .map(|k| (k.to_string(), timing_of(b, k) - timing_of(a, k)))
        .collect();
    stages.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()));
    let mut entries = Vec::new();
    let mut covered_abs = 0.0;
    for (name, d) in stages {
        let reached = covered_abs >= 0.90 * total.abs();
        if reached && d.abs() < 0.005 * denom {
            continue;
        }
        let children = if name == "wall.parallel" {
            let mut c = Vec::new();
            for k in ["wall.generate", "wall.execute"] {
                let d = timing_of(b, k) - timing_of(a, k);
                if d != 0.0 {
                    c.push((k.to_string(), d));
                }
            }
            c.extend(prefixed_deltas(a, b, "solver.ns.").into_iter().take(8));
            c.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()).then(x.0.cmp(&y.0)));
            c
        } else {
            Vec::new()
        };
        covered_abs += d.abs();
        entries.push(AttributionEntry {
            share: d / denom,
            name,
            delta_ns: d,
            children,
        });
    }
    let covered_share = entries.iter().map(|e| e.share).sum();
    let mut keys: BTreeSet<&String> = a.det.keys().collect();
    keys.extend(b.det.keys());
    let mut hot_tbs: Vec<(String, i64)> = keys
        .into_iter()
        .filter(|k| k.starts_with("hot_tb."))
        .map(|k| {
            let da = a.det.get(k).copied().unwrap_or(0) as i64;
            let db = b.det.get(k).copied().unwrap_or(0) as i64;
            (k.clone(), db - da)
        })
        .filter(|(_, d)| *d != 0)
        .collect();
    hot_tbs.sort_by(|x, y| y.1.abs().cmp(&x.1.abs()).then(x.0.cmp(&y.0)));
    hot_tbs.truncate(8);
    Attribution {
        total_delta_ns: total,
        covered_share,
        entries,
        hot_tbs,
    }
}

// ---------------------------------------------------------------------------
// Trend analysis (pokemu-report trend)
// ---------------------------------------------------------------------------

/// One metric's trajectory over a trend window plus the latest record.
/// All gate decisions are integer-only: deterministic fields are raw u64;
/// timing fields are banded in integer milli-units (see [`trend_stats`]).
#[derive(Debug, Clone)]
pub struct TrendStat {
    /// Metric name (det name, or timing name for banded metrics).
    pub name: String,
    /// True for det fields (exact-match gate), false for timing (band gate).
    pub deterministic: bool,
    /// Window size (records before the latest).
    pub n: usize,
    /// Window minimum.
    pub min: u64,
    /// Window median (element at index `(n-1)/2` of the sorted window).
    pub median: u64,
    /// Window maximum.
    pub max: u64,
    /// Median absolute deviation of the window (det metrics only; 0 for
    /// timing).
    pub mad: u64,
    /// The latest record's value.
    pub latest: u64,
    /// Gate violation, naming the metric, when the latest value regressed.
    pub violation: Option<String>,
}

fn median_u64(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

/// Timing values are banded in integer milli-units so sub-1.0 ratios stay
/// representable without floats in the gate math.
fn timing_milli(v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        0
    } else {
        (v * 1000.0).min(1.8e19) as u64
    }
}

/// Per-metric trajectory over a seq-ordered group of same-fingerprint
/// records: the last record is "latest", the up-to-`window` records before
/// it are the comparison window. Empty when the group has fewer than two
/// records.
///
/// Gate rules (integer-only):
/// - det metric, window MAD = 0 (all window values equal): any change is a
///   **deterministic drift** violation.
/// - det metric, MAD > 0: |latest − median| > 8·MAD is an **anomaly**.
/// - timing metric (milli-units): latest outside [median/8, median·8] is a
///   **timing anomaly** (skipped when the window median is 0).
pub fn trend_stats(group: &[RunRecord], window: usize) -> Vec<TrendStat> {
    if group.len() < 2 {
        return Vec::new();
    }
    let latest = &group[group.len() - 1];
    let start = (group.len() - 1).saturating_sub(window.max(1));
    let win = &group[start..group.len() - 1];
    let mut out = Vec::new();

    let mut det_names: BTreeSet<&String> = latest.det.keys().collect();
    for r in win {
        det_names.extend(r.det.keys());
    }
    for name in det_names {
        let vals: Vec<u64> = win
            .iter()
            .map(|r| r.det.get(name).copied().unwrap_or(0))
            .collect();
        let med = median_u64(vals.clone());
        let mad = median_u64(vals.iter().map(|v| v.abs_diff(med)).collect());
        let latest_v = latest.det.get(name).copied().unwrap_or(0);
        let violation = if mad == 0 && latest_v != med {
            Some(format!(
                "deterministic metric {name} drifted: window median {med} -> latest {latest_v}"
            ))
        } else if mad > 0 && latest_v.abs_diff(med) > mad.saturating_mul(8) {
            Some(format!(
                "anomaly in {name}: latest {latest_v} vs window median {med} exceeds 8 x MAD ({mad})"
            ))
        } else {
            None
        };
        out.push(TrendStat {
            name: name.clone(),
            deterministic: true,
            n: win.len(),
            min: vals.iter().copied().min().unwrap_or(0),
            median: med,
            max: vals.iter().copied().max().unwrap_or(0),
            mad,
            latest: latest_v,
            violation,
        });
    }

    let mut timing_names: BTreeSet<&String> = latest.timing.keys().collect();
    for r in win {
        timing_names.extend(r.timing.keys());
    }
    for name in timing_names {
        let vals: Vec<u64> = win
            .iter()
            .map(|r| timing_milli(r.timing.get(name).copied().unwrap_or(0.0)))
            .collect();
        let med = median_u64(vals.clone());
        let latest_v = timing_milli(latest.timing.get(name).copied().unwrap_or(0.0));
        let violation =
            if med > 0 && (latest_v > med.saturating_mul(8) || latest_v.saturating_mul(8) < med) {
                Some(format!(
                    "timing anomaly in {name}: latest {latest_v} outside [{}, {}] milli-unit band \
                 (window median {med})",
                    med / 8,
                    med.saturating_mul(8)
                ))
            } else {
                None
            };
        out.push(TrendStat {
            name: name.clone(),
            deterministic: false,
            n: win.len(),
            min: vals.iter().copied().min().unwrap_or(0),
            median: med,
            max: vals.iter().copied().max().unwrap_or(0),
            mad: 0,
            latest: latest_v,
            violation,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_ledger(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pokemu-history-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("ledger.jsonl")
    }

    fn rec(kind: &str, run_id: &str, fp: &str) -> RunRecord {
        let mut r = RunRecord::new(kind, run_id, fp.to_string());
        r.det("count.paths", 54);
        r.det("cov.opcode.set", 37);
        r.timing("wall.total", 1_234_567.0);
        r.timing("ratio.x", 0.431_25);
        r
    }

    #[test]
    fn line_round_trips_and_hash_holds() {
        let r = rec("pipeline", "smoke", "00c0ffee00c0ffee");
        let line = r.to_line();
        let (back, hash_ok) = RunRecord::parse_line(&line).unwrap();
        assert!(hash_ok);
        assert_eq!(back, r);
        // Rendering the parsed record reproduces the exact line (hash
        // stability across parse/render cycles).
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn tampered_line_fails_hash() {
        let line = rec("pipeline", "smoke", "feed").to_line();
        let tampered = line.replace("\"count.paths\":54", "\"count.paths\":55");
        assert_ne!(tampered, line);
        let (_, hash_ok) = RunRecord::parse_line(&tampered).unwrap();
        assert!(!hash_ok, "hash must not survive a tampered body");
    }

    #[test]
    fn append_assigns_monotonic_seq_and_verify_passes() {
        let path = tmp_ledger("seq");
        assert_eq!(append_to(&path, rec("pipeline", "a", "fp")).unwrap(), 1);
        assert_eq!(append_to(&path, rec("pipeline", "b", "fp")).unwrap(), 2);
        assert_eq!(append_to(&path, rec("bench", "c", "fp2")).unwrap(), 3);
        let records = load(&path).unwrap();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(verify(&path).unwrap().is_empty());
    }

    #[test]
    fn verify_names_the_tampered_line() {
        let path = tmp_ledger("tamper");
        append_to(&path, rec("pipeline", "a", "fp")).unwrap();
        append_to(&path, rec("pipeline", "victim", "fp")).unwrap();
        append_to(&path, rec("pipeline", "c", "fp")).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let tampered: Vec<String> = text
            .lines()
            .map(|l| {
                if l.contains("\"run_id\":\"victim\"") {
                    l.replace("\"cov.opcode.set\":37", "\"cov.opcode.set\":0")
                } else {
                    l.to_string()
                }
            })
            .collect();
        fs::write(&path, tampered.join("\n") + "\n").unwrap();
        let violations = verify(&path).unwrap();
        assert_eq!(
            violations.len(),
            1,
            "exactly the tampered record: {violations:?}"
        );
        assert!(
            violations[0].contains("ledger.jsonl:2"),
            "{}",
            violations[0]
        );
        assert!(violations[0].contains("victim"), "{}", violations[0]);
    }

    #[test]
    fn gc_keeps_newest() {
        let path = tmp_ledger("gc");
        for i in 0..10 {
            append_to(&path, rec("pipeline", &format!("r{i}"), "fp")).unwrap();
        }
        let (kept, dropped) = gc(&path, 4).unwrap();
        assert_eq!((kept, dropped), (4, 6));
        let records = load(&path).unwrap();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        // Appends continue the seq chain past a gc.
        assert_eq!(append_to(&path, rec("pipeline", "next", "fp")).unwrap(), 11);
    }

    #[test]
    fn auto_gc_keeps_the_newest_records_and_leaves_no_temp_file() {
        let path = tmp_ledger("auto-gc");
        let mut full = String::new();
        for seq in 1..=AUTO_GC_CAP as u64 {
            let mut r = rec("pipeline", &format!("r{seq}"), "fp");
            r.seq = seq;
            full.push_str(&r.to_line());
            full.push('\n');
        }
        fs::write(&path, full).unwrap();
        let seq = append_to(&path, rec("pipeline", "next", "fp")).unwrap();
        assert_eq!(seq, AUTO_GC_CAP as u64 + 1, "seq continues past the gc");
        let records = load(&path).unwrap();
        assert_eq!(records.len(), AUTO_GC_KEEP + 1);
        assert_eq!(records[0].seq, (AUTO_GC_CAP - AUTO_GC_KEEP) as u64 + 1);
        assert_eq!(records.last().unwrap().seq, seq);
        assert!(verify(&path).unwrap().is_empty());
        assert!(
            !path.with_extension("tmp").exists(),
            "the rewrite left its temp file behind"
        );
    }

    #[test]
    fn attribution_names_the_dominant_stage_and_origin() {
        let mut a = RunRecord::new("pipeline", "a", "fp".into());
        a.timing("wall.total", 100e6);
        a.timing("wall.explore_insns", 10e6);
        a.timing("wall.parallel", 80e6);
        a.timing("wall.analyze", 10e6);
        a.timing("wall.generate", 60e6);
        a.timing("wall.execute", 20e6);
        a.timing("solver.ns.feasibility", 50e6);
        a.timing("solver.ns.model", 10e6);
        a.det("hot_tb.0x00001000", 100);
        let mut b = a.clone();
        b.timing("wall.total", 500e6);
        b.timing("wall.parallel", 478e6);
        b.timing("wall.generate", 455e6);
        b.timing("solver.ns.feasibility", 440e6);
        b.timing("wall.analyze", 12e6);
        b.det("hot_tb.0x00001000", 150);
        let attr = attribute(&a, &b);
        assert!((attr.total_delta_ns - 400e6).abs() < 1.0);
        assert!(attr.covered_share >= 0.90, "covered {}", attr.covered_share);
        assert_eq!(attr.entries[0].name, "wall.parallel");
        let top_child = &attr.entries[0].children[0];
        assert_eq!(top_child.0, "wall.generate");
        assert!(
            attr.entries[0]
                .children
                .iter()
                .any(|(n, d)| n == "solver.ns.feasibility" && (*d - 390e6).abs() < 1.0),
            "solver origin must be named: {:?}",
            attr.entries[0].children
        );
        assert_eq!(attr.hot_tbs[0], ("hot_tb.0x00001000".to_string(), 50));
    }

    #[test]
    fn trend_flags_deterministic_drift_and_anomaly() {
        let mk = |seq: u64, cov: u64, noisy: u64, wall: f64| {
            let mut r = RunRecord::new("pipeline", &format!("r{seq}"), "fp".into());
            r.seq = seq;
            r.det("cov.opcode.set", cov);
            r.det("ctr.noisy", noisy);
            r.timing("wall.total", wall);
            r
        };
        // Stable window, stable latest: no violations.
        let group: Vec<RunRecord> = (1..=4).map(|i| mk(i, 37, 100 + i, 50e6)).collect();
        let stats = trend_stats(&group, DEFAULT_TREND_WINDOW);
        assert!(stats.iter().all(|s| s.violation.is_none()), "{stats:?}");

        // Deterministic drift: cov drops to 0 with MAD 0.
        let mut drift = group.clone();
        drift.push(mk(5, 0, 104, 50e6));
        let stats = trend_stats(&drift, DEFAULT_TREND_WINDOW);
        let bad = stats.iter().find(|s| s.violation.is_some()).unwrap();
        assert_eq!(bad.name, "cov.opcode.set");
        assert!(bad.violation.as_ref().unwrap().contains("cov.opcode.set"));
        assert!(bad.violation.as_ref().unwrap().contains("drifted"));

        // MAD>0 anomaly: noisy counter jumps far beyond 8x MAD.
        let mut anom = group.clone();
        anom.push(mk(5, 37, 10_000, 50e6));
        let stats = trend_stats(&anom, DEFAULT_TREND_WINDOW);
        let bad = stats.iter().find(|s| s.violation.is_some()).unwrap();
        assert_eq!(bad.name, "ctr.noisy");
        assert!(bad.violation.as_ref().unwrap().contains("anomaly"));

        // Timing band: a 10x wall time is flagged, in milli-units.
        let mut slow = group.clone();
        slow.push(mk(5, 37, 104, 500e6));
        let stats = trend_stats(&slow, DEFAULT_TREND_WINDOW);
        let bad = stats.iter().find(|s| s.violation.is_some()).unwrap();
        assert_eq!(bad.name, "wall.total");
        assert!(!bad.deterministic);

        // An 8x-within-band timing wobble passes.
        let mut ok = group.clone();
        ok.push(mk(5, 37, 104, 200e6));
        let stats = trend_stats(&ok, DEFAULT_TREND_WINDOW);
        assert!(stats.iter().all(|s| s.violation.is_none()), "{stats:?}");
    }

    #[test]
    fn trend_window_caps_history() {
        let mk = |seq: u64, v: u64| {
            let mut r = RunRecord::new("pipeline", &format!("r{seq}"), "fp".into());
            r.seq = seq;
            r.det("x", v);
            r
        };
        // Old records (value 1) fall outside a window of 3; recent window is
        // all 5s, latest 5: clean.
        let mut group: Vec<RunRecord> = (1..=4).map(|i| mk(i, 1)).collect();
        group.extend((5..=8).map(|i| mk(i, 5)));
        let stats = trend_stats(&group, 3);
        assert_eq!(stats[0].median, 5);
        assert!(stats[0].violation.is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_context_sensitive() {
        set_context("history-test-a");
        let a1 = fingerprint(&["x=1".into()]);
        let a2 = fingerprint(&["x=1".into()]);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), 16);
        set_context("history-test-b");
        assert_ne!(
            fingerprint(&["x=1".into()]),
            a1,
            "context must partition groups"
        );
        set_context("history-test-a");
        assert_ne!(
            fingerprint(&["x=2".into()]),
            a1,
            "config must partition groups"
        );
    }

    #[test]
    fn render_num_round_trips_through_parser() {
        for v in [0.0, 1.0, 0.431_25, 1_234_567.0, 2.5e12, 1e-6] {
            let s = render_num(v);
            let parsed = json::parse(&s).unwrap().as_f64().unwrap();
            assert!(
                (parsed - v).abs() <= v.abs() * 1e-9 + 1e-9,
                "{v} -> {s} -> {parsed}"
            );
        }
        assert_eq!(render_num(f64::NAN), "0");
    }

    #[test]
    fn strip_bin_hash_strips_only_cargo_hashes() {
        assert_eq!(strip_bin_hash("run_ledger-0123456789abcdef"), "run_ledger");
        assert_eq!(strip_bin_hash("smoke-bench"), "smoke-bench");
        assert_eq!(strip_bin_hash("pokemu-report"), "pokemu-report");
    }
}
