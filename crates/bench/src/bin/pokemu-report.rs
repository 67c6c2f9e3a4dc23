//! Offline reporting over the pipeline's run artifacts.
//!
//! ```text
//! pokemu-report [--run NAME] [--dir PATH] [--top N] [--check]
//! pokemu-report coverage [--manifest PATH]
//! pokemu-report diff --baseline PATH [--manifest PATH] [--check]
//! pokemu-report conformance [--roms DIR] [--threads N] [--write]
//! pokemu-report perf [--run NAME] [--dir PATH] [--top N] [--check]
//! pokemu-report compare <run-a> <run-b> [--ledger PATH]
//! pokemu-report trend [--last N] [--ledger PATH] [--check]
//! pokemu-report history <gc|verify> [--cap N] [--ledger PATH]
//! ```
//!
//! Every mode also accepts `--json` for a single-line machine-readable
//! report on stdout (gate diagnostics stay on stderr, exit codes are
//! unchanged), so fleet tooling and CI consume reports without scraping
//! text.
//!
//! The default (no subcommand) mode reads the Chrome `trace_event` JSON and
//! the run's metrics JSONL that `run_cross_validation` writes under
//! `POKEMU_TRACE=1` and prints where the time went; `--check` gates on the
//! trace parsing, all five Fig. 1 stage spans being present, and zero
//! dropped events.
//!
//! `coverage` prints the coverage section of a run manifest (written under
//! `POKEMU_RUN_MANIFEST=1`). `diff` compares a run manifest against a
//! committed baseline manifest and, with `--check`, fails when coverage
//! bits present in the baseline are missing from the run, the `counts`
//! differ, a deterministic counter of the baseline's `metrics.counters`
//! has another value, or the deviation list differs — the CI regression
//! gate. Both subcommands also accept a fleet merged manifest
//! (`target/fleet/<run>/merged.json`, DESIGN.md §13); `diff` additionally
//! fails when shards are poisoned that the baseline did not have, naming
//! each one.
//!
//! `perf` is the performance-observatory view: the stage attribution the
//! default mode prints too, from one function over the `pipeline.run` span
//! and its stage spans (`--check` requires ≥95% of the run span attributed
//! to its four top-level stages), the lofi/hifi throughput ratio over the
//! run's `target.*` spans (`--check` fails on an e3 inversion: a median
//! Lo-Fi run slower than a median Hi-Fi run), the hottest lo-fi translation
//! blocks, and solver time by query origin.
//!
//! `compare`, `trend`, and `history` operate over the run ledger
//! (`target/history/ledger.jsonl`, DESIGN.md §12): `compare` diffs two
//! records and decomposes the wall-time delta into stage → solver-origin →
//! hot-TB contributions covering ≥90% of it; `trend` applies the
//! integer-only median/MAD gate per `(kind, config-fingerprint)` group
//! (`--check` fails by metric name); `history gc`/`history verify` manage
//! retention and content-hash integrity.
//!
//! Exit codes (all modes): 0 OK, 1 gate violation (the violating metric /
//! map / cluster names are printed), 2 missing or unreadable input.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pokemu::harness::record::{self, RunDoc};
use pokemu::harness::{Clusters, DeviationRecord};
use pokemu_rt::coverage::MapSnapshot;
use pokemu_rt::history::{self, RunRecord};
use pokemu_rt::json::{self, escape, Value};
use pokemu_rt::metrics::MetricsSnapshot;
use pokemu_rt::trace;

/// Exit code for a failed `--check` gate.
const EXIT_VIOLATION: u8 = 1;
/// Exit code for missing or unparseable input files.
const EXIT_MISSING_INPUT: u8 = 2;

/// The five pipeline stages of the paper's Fig. 1; `--check` requires a
/// span for each.
const STAGES: [&str; 5] = [
    "stage.explore_insns",
    "stage.explore_states",
    "stage.testgen",
    "stage.execute",
    "stage.analyze",
];

/// The top-level stages that tile a `pipeline.run` span.
const RUN_STAGES: [&str; 4] = [
    "pipeline.setup",
    "stage.explore_insns",
    "stage.parallel",
    "stage.analyze",
];

/// The per-instruction stages the workers run inside `stage.parallel`.
const WORKER_STAGES: [&str; 3] = ["stage.explore_states", "stage.testgen", "stage.execute"];

/// One complete (`"ph":"X"`) event pulled back out of the trace file.
struct Span {
    name: String,
    id: u64,
    parent: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    insn: Option<String>,
}

struct Report {
    spans: Vec<Span>,
    thread_names: BTreeMap<u64, String>,
    /// The run's metrics delta, as `run_cross_validation` exported it.
    metrics: MetricsSnapshot,
}

fn load(dir: &std::path::Path, run: &str) -> Result<Report, String> {
    let trace_path = dir.join(format!("{run}.trace.json"));
    let metrics_path = dir.join(format!("{run}.metrics.jsonl"));

    let text = std::fs::read_to_string(&trace_path).map_err(|e| {
        format!(
            "cannot read {}: {e} (run with POKEMU_TRACE=1 first)",
            trace_path.display()
        )
    })?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no traceEvents array", trace_path.display()))?;

    let mut spans = Vec::new();
    let mut thread_names = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let arg = |key: &str| ev.get("args").and_then(|a| a.get(key));
        match ph {
            "M" if ev.get("name").and_then(Value::as_str) == Some("thread_name") => {
                if let Some(n) = arg("name").and_then(Value::as_str) {
                    thread_names.insert(tid, n.to_owned());
                }
            }
            "X" => spans.push(Span {
                name: ev
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                id: arg("span").and_then(Value::as_u64).unwrap_or(0),
                parent: arg("parent").and_then(Value::as_u64).unwrap_or(0),
                tid,
                ts_us: ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0),
                dur_us: ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0),
                insn: arg("insn").and_then(Value::as_str).map(str::to_owned),
            }),
            _ => {}
        }
    }

    let mtext = std::fs::read_to_string(&metrics_path)
        .map_err(|e| format!("cannot read {}: {e}", metrics_path.display()))?;
    let metrics = MetricsSnapshot::from_jsonl(&mtext)
        .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
    Ok(Report {
        spans,
        thread_names,
        metrics,
    })
}

fn ms(us: f64) -> String {
    format!("{:.3} ms", us / 1000.0)
}

/// The mean of `xs`, 0 when empty.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The middle value of ascending `xs` (the upper one of an even count), 0
/// when empty.
fn median(xs: &[f64]) -> f64 {
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Where the pipeline's wall time went: the `pipeline.run` spans and the
/// time of their direct children among [`RUN_STAGES`].
struct Attribution {
    run_us: f64,
    stages: [(&'static str, f64); 4],
}

impl Attribution {
    fn attributed_us(&self) -> f64 {
        self.stages.iter().map(|&(_, us)| us).sum()
    }

    /// The attribution table the default view and `perf` both print.
    fn print(&self) {
        for (name, us) in self.stages {
            println!(
                "  {name:<22} {:>12}  {:5.1}% of run",
                ms(us),
                pct(us, self.run_us)
            );
        }
        let attributed = self.attributed_us();
        println!(
            "  {:<22} {:>12}  ({:.1}% of pipeline.run = {})",
            "attributed",
            ms(attributed),
            pct(attributed, self.run_us),
            ms(self.run_us)
        );
    }
}

impl Report {
    fn stage_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum()
    }

    fn runs(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.name == "pipeline.run")
    }

    /// Stage attribution from the `pipeline.run` spans and their stage
    /// children — the one computation behind both reports.
    fn attribution(&self) -> Attribution {
        let runs: Vec<u64> = self.runs().map(|r| r.id).collect();
        Attribution {
            run_us: self.stage_total("pipeline.run"),
            stages: RUN_STAGES.map(|name| {
                let us = self
                    .spans
                    .iter()
                    .filter(|s| s.name == name && runs.contains(&s.parent))
                    .map(|s| s.dur_us)
                    .sum();
                (name, us)
            }),
        }
    }

    /// Durations (µs, ascending) of the `target.<target>` spans that started
    /// inside a `pipeline.run` span, on any thread: the run's emulator
    /// executions, not the whole process's.
    fn target_spans(&self, target: &str) -> Vec<f64> {
        let name = format!("target.{target}");
        let mut in_run: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| {
                s.name == name
                    && self
                        .runs()
                        .any(|r| s.ts_us >= r.ts_us && s.ts_us <= r.ts_us + r.dur_us)
            })
            .map(|s| s.dur_us)
            .collect();
        in_run.sort_by(f64::total_cmp);
        in_run
    }

    fn print(&self, top: usize) {
        println!("== stage breakdown");
        self.attribution().print();
        println!("== worker time inside stage.parallel");
        for name in WORKER_STAGES {
            let d = self.stage_total(name);
            println!("  {name:<22} {:>12}", ms(d));
        }

        // Top-N slowest instructions.
        let mut insns: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.name == "pipeline.instruction")
            .collect();
        insns.sort_by(|a, b| b.dur_us.total_cmp(&a.dur_us));
        println!(
            "== top {} slowest instructions (of {})",
            top.min(insns.len()),
            insns.len()
        );
        for s in insns.iter().take(top) {
            println!(
                "  {:<20} {:>12}  on {}",
                s.insn.as_deref().unwrap_or("?"),
                ms(s.dur_us),
                self.thread_names
                    .get(&s.tid)
                    .map(String::as_str)
                    .unwrap_or("main"),
            );
        }

        // Solver work split.
        let queries = self.metrics.counter("solver.queries");
        let sat = self.metrics.counter("solver.sat");
        let unsat = self.metrics.counter("solver.unsat");
        let unknown = self.metrics.counter("solver.unknown");
        let summary_hits = self.metrics.counter("symx.summary_hits");
        let cache_hits = self.metrics.counter("symx.pick_cache_hits");
        println!("== solver");
        println!(
            "  queries {queries}  sat {sat} ({:.1}%)  unsat {unsat} ({:.1}%)  unknown {unknown}",
            pct(sat as f64, queries as f64),
            pct(unsat as f64, queries as f64)
        );
        println!("  summary hits {summary_hits}  pick-cache hits {cache_hits}");
        let quarantined = self.metrics.counter("pool.quarantined");
        let injected = self.metrics.counter("fault.injected");
        if quarantined > 0 || injected > 0 {
            println!("== robustness");
            println!("  pool.quarantined {quarantined}  fault.injected {injected}");
        }

        // Worker utilization: per-tid busy time inside the parallel stage.
        let parallel = self.stage_total("stage.parallel");
        let mut busy: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == "pipeline.instruction")
        {
            let e = busy.entry(s.tid).or_insert((0.0, 0));
            e.0 += s.dur_us;
            e.1 += 1;
        }
        println!("== worker utilization ({} workers)", busy.len());
        for (tid, (us, items)) in &busy {
            println!(
                "  {:<12} {:>12} busy  {:5.1}%  {items} insns",
                self.thread_names
                    .get(tid)
                    .map(String::as_str)
                    .unwrap_or("main"),
                ms(*us),
                pct(*us, parallel),
            );
        }

        // Histogram summaries.
        println!("== histograms");
        for (name, h) in &self.metrics.histograms {
            println!(
                "  {name:<22} n={:<7} mean={:<12.1} p50>={:<10} p95>={}",
                h.count,
                h.mean(),
                h.p50(),
                h.p95()
            );
        }
        println!("== trace health");
        let dropped = self.metrics.counter("trace.dropped_events");
        println!("  trace.dropped_events {dropped}");
        if dropped > 0 {
            println!(
                "  WARNING: the trace ring dropped {dropped} event(s) — spans are missing \
                 from this report; the stage breakdown above undercounts"
            );
        }
    }

    /// CI gate: all five Fig. 1 stages present, nothing dropped.
    fn check(&self) -> Result<(), String> {
        let mut missing: Vec<&str> = STAGES
            .iter()
            .filter(|&&st| !self.spans.iter().any(|s| s.name == st))
            .copied()
            .collect();
        missing.sort_unstable();
        if !missing.is_empty() {
            return Err(format!("missing stage spans: {}", missing.join(", ")));
        }
        let dropped = self.metrics.counter("trace.dropped_events");
        if dropped > 0 {
            return Err(format!("trace.dropped_events = {dropped} (want 0)"));
        }
        Ok(())
    }

    /// The performance-observatory view over one exported run.
    fn print_perf(&self, hot: &[(u64, u64)], top: usize) {
        println!("== wall-time attribution (pipeline.run stage spans)");
        self.attribution().print();

        println!("== emulator throughput (per run_program)");
        let [hifi, lofi, hw] = ["hifi", "lofi", "hardware"].map(|t| self.target_spans(t));
        println!(
            "  mean    hifi {:>12}  lofi {:>12}  hardware {:>12}",
            ms(mean(&hifi)),
            ms(mean(&lofi)),
            ms(mean(&hw)),
        );
        println!(
            "  median  hifi {:>12}  lofi {:>12}  hardware {:>12}",
            ms(median(&hifi)),
            ms(median(&lofi)),
            ms(median(&hw)),
        );
        println!("  ({} runs each side)", lofi.len());
        if !lofi.is_empty() {
            let r = median(&hifi) / median(&lofi);
            if r < 1.0 {
                println!(
                    "  hifi/lofi median ratio {r:.3}  (WARNING — e3 inversion: the lo-fi DBT \
                     is SLOWER than the hi-fi interpreter here)"
                );
            } else {
                println!("  hifi/lofi median ratio {r:.3}  (lofi {r:.1}x hifi, no e3 inversion)");
            }
        }

        // TB-cache health: how many block dispatches had to translate.
        let misses = self.metrics.counter("lofi.tb_lookup.misses");
        let dispatches = self.metrics.counter("lofi.tb_lookup.hits") + misses;
        if dispatches > 0 {
            println!(
                "  translations per dispatch {:.4}  ({misses} of {dispatches} lo-fi block \
                 dispatches translated)",
                misses as f64 / dispatches as f64
            );
        }

        println!(
            "== top {} hot lo-fi translation blocks (of {})",
            top.min(hot.len()),
            hot.len()
        );
        for (eip, execs) in hot.iter().take(top) {
            println!("  eip {eip:#010x}  {execs} execs");
        }

        println!("== solver time by query origin");
        for o in pokemu::solver::origin::ORIGINS {
            let q = self.metrics.counter(&format!("solver.queries.{o}"));
            let ns = self.metrics.timer_ns(&format!("solver.ns.{o}"));
            if q == 0 && ns == 0 {
                continue;
            }
            let mean_us = if q == 0 {
                0.0
            } else {
                ns as f64 / q as f64 / 1000.0
            };
            println!(
                "  {o:<12} {q:>7} queries  {:>12}  mean {mean_us:.1} µs",
                ms(ns as f64 / 1000.0)
            );
        }
        let dropped = self.metrics.counter("trace.dropped_events");
        if dropped > 0 {
            println!("  WARNING: trace ring dropped {dropped} event(s); timings undercount");
        }
    }

    /// `perf --check` gate: the run's stage spans must cover ≥95% of its
    /// `pipeline.run` span — anything less means a stage is running outside
    /// the attribution (a new unattributed phase crept in) — and the median
    /// Lo-Fi run must take no longer than the median Hi-Fi run (no e3
    /// inversion). Medians, because each target's first run in a process
    /// builds its post-baseline template, and on the 17-test smoke run one
    /// such run stalled by a few milliseconds moves a mean by more than a
    /// whole Lo-Fi run costs.
    fn check_perf(&self) -> Result<(), String> {
        let a = self.attribution();
        if a.run_us <= 0.0 {
            return Err(
                "no pipeline.run span in the trace (re-run the pipeline under POKEMU_TRACE=1)"
                    .to_owned(),
            );
        }
        let frac = a.attributed_us() / a.run_us;
        if frac < 0.95 {
            return Err(format!(
                "only {:.1}% of pipeline wall time attributed to stages (want ≥95%): \
                 attributed {} of {}",
                100.0 * frac,
                ms(a.attributed_us()),
                ms(a.run_us)
            ));
        }
        let (hifi, lofi) = (self.target_spans("hifi"), self.target_spans("lofi"));
        if hifi.is_empty() || lofi.is_empty() {
            return Err(format!(
                "no e3 inversion check without target runs: {} target.hifi and {} \
                 target.lofi spans in the run",
                hifi.len(),
                lofi.len()
            ));
        }
        if median(&lofi) > median(&hifi) {
            return Err(format!(
                "e3 inversion: the median target.lofi span ({}) exceeds the median \
                 target.hifi span ({})",
                ms(median(&lofi)),
                ms(median(&hifi))
            ));
        }
        Ok(())
    }

    /// The default mode's `--json` fields.
    fn json(&self) -> String {
        let stages: Vec<String> = ["pipeline.run"]
            .into_iter()
            .chain(RUN_STAGES)
            .chain(WORKER_STAGES)
            .map(|name| format!("\"{}\":{}", escape(name), jnum(self.stage_total(name))))
            .collect();
        let counters: Vec<String> = self
            .metrics
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect();
        let hists: Vec<String> = self
            .metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{}\":{{\"n\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                    escape(k),
                    h.count,
                    jnum(h.mean()),
                    h.p50(),
                    h.p95(),
                    h.p99()
                )
            })
            .collect();
        format!(
            "\"stage_us\":{{{}}},\"counters\":{{{}}},\"histograms\":{{{}}}",
            stages.join(","),
            counters.join(","),
            hists.join(",")
        )
    }

    /// `perf`'s `--json` fields.
    fn perf_json(&self, hot: &[(u64, u64)], top: usize) -> String {
        let attribution = self.attribution();
        let stages: Vec<String> = attribution
            .stages
            .iter()
            .map(|(name, us)| format!("\"{}\":{}", escape(name), jnum(us * 1000.0)))
            .collect();
        let target_mean_ns = |target: &str| jnum(mean(&self.target_spans(target)) * 1000.0);
        let hot_rows: Vec<String> = hot
            .iter()
            .take(top)
            .map(|(eip, execs)| format!("[{eip},{execs}]"))
            .collect();
        let origins: Vec<String> = pokemu::solver::origin::ORIGINS
            .iter()
            .map(|o| {
                format!(
                    "\"{o}\":{{\"queries\":{},\"ns\":{}}}",
                    self.metrics.counter(&format!("solver.queries.{o}")),
                    self.metrics.timer_ns(&format!("solver.ns.{o}"))
                )
            })
            .collect();
        format!(
            "\"total_ns\":{},\"attribution\":{{{}}},\
             \"target_mean_ns\":{{\"hifi\":{},\"lofi\":{},\"hardware\":{}}},\
             \"hot_tbs\":[{}],\"solver\":{{{}}}",
            jnum(attribution.run_us * 1000.0),
            stages.join(","),
            target_mean_ns("hifi"),
            target_mean_ns("lofi"),
            target_mean_ns("hardware"),
            hot_rows.join(","),
            origins.join(",")
        )
    }
}

/// Parses `<run>.hot.jsonl` (the pipeline's hot-TB dump) into
/// `(eip, execs)` rows; an absent file is an empty table, not an error —
/// hot TBs are additive detail.
fn load_hot_tbs(dir: &Path, run: &str) -> Vec<(u64, u64)> {
    let Ok(text) = std::fs::read_to_string(dir.join(format!("{run}.hot.jsonl"))) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| {
            let v = json::parse(l).ok()?;
            if v.get("kind").and_then(Value::as_str) != Some("hot_tb") {
                return None;
            }
            Some((
                v.get("eip").and_then(Value::as_u64)?,
                v.get("execs").and_then(Value::as_u64)?,
            ))
        })
        .collect()
}

/// The default mode and `perf`: two views over one exported run that share
/// flags, loading, the `--json` envelope and the `--check` exit codes.
struct View {
    mode: &'static str,
    usage: &'static str,
    /// The `--check` gate's name, its check, and what passing it means.
    gate: &'static str,
    check: fn(&Report) -> Result<(), String>,
    passed: &'static str,
    /// The mode's own `--json` fields, given the hot TBs and `--top`.
    json: fn(&Report, &[(u64, u64)], usize) -> String,
    /// The text view, given the hot TBs and `--top`.
    text: fn(&Report, &[(u64, u64)], usize),
}

const REPORT_VIEW: View = View {
    mode: "report",
    usage: "usage: pokemu-report [--run NAME] [--dir PATH] [--top N] [--check]\n\
            \x20      pokemu-report coverage [--manifest PATH]\n\
            \x20      pokemu-report diff --baseline PATH [--manifest PATH] [--check]\n\
            \x20      pokemu-report conformance [--roms DIR] [--threads N] [--write]\n\
            \x20      pokemu-report perf [--run NAME] [--dir PATH] [--top N] [--check]\n\
            \x20      pokemu-report compare <run-a> <run-b> [--ledger PATH]\n\
            \x20      pokemu-report trend [--last N] [--ledger PATH] [--check]\n\
            \x20      pokemu-report history <gc|verify> [--cap N] [--ledger PATH]\n\
            (every mode also accepts --json for machine-readable output)",
    gate: "check",
    check: Report::check,
    passed: "all Fig.1 stage spans present, 0 dropped events",
    json: |r, _, _| r.json(),
    text: |r, _, top| r.print(top),
};

const PERF_VIEW: View = View {
    mode: "perf",
    usage: "usage: pokemu-report perf [--run NAME] [--dir PATH] [--top N] [--check] [--json]",
    gate: "perf check",
    check: Report::check_perf,
    passed: "≥95% of pipeline wall time attributed, no e3 inversion",
    json: Report::perf_json,
    text: Report::print_perf,
};

/// Runs `view` over the exported run its flags name (`first`, if any, is
/// the first flag).
fn cmd_view(view: &View, first: Option<String>, args: &mut std::env::Args) -> ExitCode {
    let mut run = "cross_validation".to_owned();
    let mut dir = trace::trace_dir();
    let mut top = 10usize;
    let mut check = false;
    let mut json_out = false;
    let mut pending = first;
    while let Some(a) = pending.take().or_else(|| args.next()) {
        match a.as_str() {
            "--run" => run = args.next().unwrap_or_default(),
            "--dir" => dir = args.next().unwrap_or_default().into(),
            "--top" => top = args.next().and_then(|v| v.parse().ok()).unwrap_or(top),
            "--check" => check = true,
            "--json" => json_out = true,
            "--help" | "-h" => {
                println!("{}", view.usage);
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(EXIT_MISSING_INPUT);
            }
        }
    }
    let report = match load(&dir, &run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[pokemu-report] {e}");
            return ExitCode::from(EXIT_MISSING_INPUT);
        }
    };
    let hot = load_hot_tbs(&dir, &run);
    let verdict = check.then(|| (view.check)(&report));
    if json_out {
        let check = match &verdict {
            None => "null".to_string(),
            Some(Ok(())) => "\"ok\"".to_string(),
            Some(Err(e)) => format!("\"{}\"", escape(e)),
        };
        println!(
            "{{\"mode\":\"{}\",\"run\":\"{}\",{},\"check\":{check}}}",
            view.mode,
            escape(&run),
            (view.json)(&report, &hot, top)
        );
    } else {
        (view.text)(&report, &hot, top);
    }
    match verdict {
        Some(Err(e)) => {
            eprintln!("[pokemu-report] {} FAILED: {e}", view.gate);
            ExitCode::from(EXIT_VIOLATION)
        }
        Some(Ok(())) if !json_out => {
            println!("[pokemu-report] {} OK: {}", view.gate, view.passed);
            ExitCode::SUCCESS
        }
        _ => ExitCode::SUCCESS,
    }
}

/// Reads a run, shard or merged manifest with the one run-document reader.
fn load_manifest(path: &Path) -> Result<RunDoc, String> {
    record::read(path).map_err(|e| {
        if path.exists() {
            e
        } else {
            format!("{e} (run with POKEMU_RUN_MANIFEST=1 first)")
        }
    })
}

/// Root-cause names per target, in cause order.
fn cluster_causes(m: &RunDoc) -> [(&'static str, Vec<String>); 2] {
    let names = |c: &Clusters| c.iter().map(|(cause, _, _)| cause.to_string()).collect();
    [
        ("lofi", names(&m.results.lofi_clusters)),
        ("hifi", names(&m.results.hifi_clusters)),
    ]
}

/// `fleet.poisoned` shard names (empty for non-fleet manifests): shards
/// whose worker exhausted its retry budget.
fn poisoned_shards(m: &RunDoc) -> Vec<String> {
    m.root
        .get("fleet")
        .and_then(|f| f.get("poisoned"))
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

/// The default manifest to inspect: `target/run/<id>/manifest.json`, with
/// the id from `POKEMU_RUN_ID` (falling back to the CI run id, `smoke`).
fn default_manifest_path() -> PathBuf {
    let id = std::env::var(record::RUN_ID_ENV).unwrap_or_default();
    let id = if id.is_empty() {
        "smoke".to_owned()
    } else {
        id
    };
    record::run_dir(&id).join("manifest.json")
}

/// `pokemu-report coverage`: print the coverage ledger of one manifest.
fn cmd_coverage(args: &mut std::env::Args) -> ExitCode {
    let mut path = default_manifest_path();
    let mut json_out = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--manifest" => path = args.next().unwrap_or_default().into(),
            "--json" => json_out = true,
            "--help" | "-h" => {
                println!("usage: pokemu-report coverage [--manifest PATH] [--json]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(EXIT_MISSING_INPUT);
            }
        }
    }
    let m = match load_manifest(&path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("[pokemu-report] {e}");
            return ExitCode::from(EXIT_MISSING_INPUT);
        }
    };
    let r = &m.results;
    let clusters = cluster_causes(&m);
    if json_out {
        let maps: Vec<String> = m
            .coverage
            .maps
            .iter()
            .map(|(name, map)| {
                format!(
                    "\"{}\":{{\"set\":{},\"bits\":{}}}",
                    escape(name),
                    map.set_count(),
                    map.bits
                )
            })
            .collect();
        let clusters: Vec<String> = clusters
            .iter()
            .map(|(target, causes)| format!("\"{target}\":{}", jlist(causes)))
            .collect();
        println!(
            "{{\"mode\":\"coverage\",\"run_id\":\"{}\",\"maps\":{{{}}},\"clusters\":{{{}}},\
             \"deviations\":{},\"completed\":{},\"quarantined\":{},\"unknown_queries\":{}}}",
            escape(&m.run_id),
            maps.join(","),
            clusters.join(","),
            r.deviations.len(),
            r.completed,
            r.quarantined.len(),
            r.unknown_queries
        );
        return ExitCode::SUCCESS;
    }
    println!("== coverage ({} / run {})", path.display(), m.run_id);
    for (name, map) in &m.coverage.maps {
        println!(
            "  {name:<22} {:>6} / {:<6} bits  ({:.2}%)",
            map.set_count(),
            map.bits,
            100.0 * map.fraction()
        );
    }
    for (target, causes) in &clusters {
        println!(
            "  clusters.{target:<14} {:>6} root cause(s){}",
            causes.len(),
            if causes.is_empty() {
                String::new()
            } else {
                format!(": {}", causes.join("; "))
            }
        );
    }
    println!("  deviations            {:>6}", r.deviations.len());
    println!(
        "  robustness            completed={} quarantined={} unknown_queries={}",
        r.completed,
        r.quarantined.len(),
        r.unknown_queries
    );
    let poisoned = poisoned_shards(&m);
    if !poisoned.is_empty() {
        println!("  fleet.poisoned        {}", poisoned.join(", "));
    }
    ExitCode::SUCCESS
}

/// The integer entries of a section (`counts`, `metrics.counters`), none
/// when it is absent.
fn numbers(v: Option<&Value>) -> BTreeMap<&str, u64> {
    match v {
        Some(Value::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.as_str(), v.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// A count or counter as the diff prints it.
fn shown(v: Option<u64>) -> String {
    v.map_or("<missing>".to_owned(), |n| n.to_string())
}

/// `pokemu-report diff`: baseline-vs-run regression report. Violations are
/// coverage bits present in the baseline but missing from the run; any
/// change to `counts`; a baseline counter of `metrics.counters` with
/// another value in the run (bookkeeping counters excluded, as from ledger
/// `det` sections; counters only the run has are not gated, as coverage
/// may grow); the first entry where the deviation lists differ (the
/// clusters are rebuilt from them, so this covers every cluster too); and
/// robustness regressions: a run that did not complete, quarantine/unknown
/// counts growing past the baseline's, or (for fleet merges) shards newly
/// poisoned vs the baseline, named individually.
fn diff_violations(base: &RunDoc, cur: &RunDoc) -> Vec<String> {
    let mut violations = Vec::new();
    let (b, c) = (&base.results, &cur.results);
    if !c.completed {
        violations.push("run manifest says \"completed\": false (deadline cut the run)".to_owned());
    }
    let base_poisoned = poisoned_shards(base);
    let newly_poisoned: Vec<String> = poisoned_shards(cur)
        .into_iter()
        .filter(|s| !base_poisoned.contains(s))
        .collect();
    if !newly_poisoned.is_empty() {
        violations.push(format!(
            "fleet.poisoned grew: {} shard(s) poisoned vs baseline ({})",
            newly_poisoned.len(),
            newly_poisoned.join(", ")
        ));
    }
    if c.quarantined.len() > b.quarantined.len() {
        violations.push(format!(
            "robustness.quarantined grew: baseline {} -> run {}",
            b.quarantined.len(),
            c.quarantined.len()
        ));
    }
    if c.unknown_queries > b.unknown_queries {
        violations.push(format!(
            "robustness.unknown_queries grew: baseline {} -> run {}",
            b.unknown_queries, c.unknown_queries
        ));
    }
    for (name, bmap) in &base.coverage.maps {
        match cur.coverage.map(name) {
            None => violations.push(format!("{name}: map missing from run manifest")),
            Some(cmap) => {
                let lost = bmap.missing_from(cmap);
                if !lost.is_empty() {
                    violations.push(format!(
                        "{name}: coverage dropped {} bit(s) vs baseline (e.g. index {})",
                        lost.len(),
                        lost[0]
                    ));
                }
            }
        }
    }
    let [bcounts, ccounts] = [base, cur].map(|m| numbers(m.root.get("counts")));
    let names: std::collections::BTreeSet<&str> =
        bcounts.keys().chain(ccounts.keys()).copied().collect();
    for k in names {
        let (bv, cv) = (bcounts.get(k).copied(), ccounts.get(k).copied());
        if bv != cv {
            violations.push(format!(
                "counts.{k}: baseline {} -> run {}",
                shown(bv),
                shown(cv)
            ));
        }
    }
    let [bcounters, ccounters] =
        [base, cur].map(|m| numbers(m.root.get("metrics").and_then(|m| m.get("counters"))));
    for (k, &v) in &bcounters {
        let cv = ccounters.get(k).copied();
        if cv != Some(v)
            && !record::EXCLUDED_COUNTER_PREFIXES
                .iter()
                .any(|p| k.starts_with(p))
        {
            violations.push(format!(
                "metrics.counters.{k}: baseline {v} -> run {}",
                shown(cv)
            ));
        }
    }
    let (bd, cd) = (&b.deviations, &c.deviations);
    if let Some(i) = (0..bd.len().max(cd.len())).find(|&i| bd.get(i) != cd.get(i)) {
        let entry = |d: Option<&DeviationRecord>| {
            d.map_or("<none>".to_owned(), |d| {
                format!("{} {} path_id {}", d.target, d.test, d.path_id)
            })
        };
        violations.push(format!(
            "deviations differ from entry {i} (baseline {}, run {}): baseline {} vs run {}",
            bd.len(),
            cd.len(),
            entry(bd.get(i)),
            entry(cd.get(i))
        ));
    }
    violations
}

fn cmd_diff(args: &mut std::env::Args) -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut manifest = default_manifest_path();
    let mut check = false;
    let mut json_out = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = args.next().map(PathBuf::from),
            "--manifest" => manifest = args.next().unwrap_or_default().into(),
            "--check" => check = true,
            "--json" => json_out = true,
            "--help" | "-h" => {
                println!(
                    "usage: pokemu-report diff --baseline PATH [--manifest PATH] [--check] [--json]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(EXIT_MISSING_INPUT);
            }
        }
    }
    let Some(baseline) = baseline else {
        eprintln!("[pokemu-report] diff requires --baseline PATH");
        return ExitCode::from(EXIT_MISSING_INPUT);
    };
    let (base, cur) = match (load_manifest(&baseline), load_manifest(&manifest)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[pokemu-report] {e}");
            return ExitCode::from(EXIT_MISSING_INPUT);
        }
    };
    if json_out {
        let violations = diff_violations(&base, &cur);
        let maps: Vec<String> = base
            .coverage
            .maps
            .iter()
            .map(|(name, bmap)| {
                format!(
                    "\"{}\":{{\"baseline_set\":{},\"run_set\":{}}}",
                    escape(name),
                    bmap.set_count(),
                    cur.coverage
                        .map(name)
                        .map_or("null".to_string(), |m| m.set_count().to_string())
                )
            })
            .collect();
        println!(
            "{{\"mode\":\"diff\",\"baseline\":\"{}\",\"manifest\":\"{}\",\"maps\":{{{}}},\
             \"violations\":{},\"ok\":{}}}",
            escape(&baseline.display().to_string()),
            escape(&manifest.display().to_string()),
            maps.join(","),
            jlist(&violations),
            violations.is_empty()
        );
        if !violations.is_empty() && check {
            return ExitCode::from(EXIT_VIOLATION);
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "== diff baseline {} (run {}) vs {} (run {})",
        baseline.display(),
        base.run_id,
        manifest.display(),
        cur.run_id
    );
    for (name, bmap) in &base.coverage.maps {
        let cur_set = cur.coverage.map(name).map(MapSnapshot::set_count);
        println!(
            "  {name:<22} baseline {:>5} bits, run {}",
            bmap.set_count(),
            cur_set.map_or("<missing>".to_owned(), |n| format!("{n:>5} bits")),
        );
    }
    let violations = diff_violations(&base, &cur);
    if violations.is_empty() {
        println!(
            "[pokemu-report] diff OK: no coverage regressions; counts, counters and deviations \
             unchanged"
        );
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("[pokemu-report] diff violation: {v}");
    }
    if check {
        eprintln!(
            "[pokemu-report] diff FAILED: {} violation(s) vs baseline",
            violations.len()
        );
        return ExitCode::from(EXIT_VIOLATION);
    }
    ExitCode::SUCCESS
}

/// `pokemu-report conformance`: run the chained-corpus conformance gate.
///
/// Builds the committed corpus, runs every program on all three targets,
/// and compares the results against the baselines in `tests/roms/`
/// (byte-identical documents). With `--write`, regenerates the baselines
/// instead of gating. Exit codes follow the other modes: 0 conformant,
/// 1 drift (the violating program names are printed), 2 missing input.
fn cmd_conformance(args: &mut std::env::Args) -> ExitCode {
    use pokemu::harness::conformance;

    let mut roms: Option<PathBuf> = None;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut write = false;
    let mut json_out = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--roms" => roms = args.next().map(PathBuf::from),
            "--threads" => threads = args.next().and_then(|v| v.parse().ok()).unwrap_or(threads),
            "--write" => write = true,
            "--json" => json_out = true,
            "--help" | "-h" => {
                println!(
                    "usage: pokemu-report conformance [--roms DIR] [--threads N] [--write] [--json]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(EXIT_MISSING_INPUT);
            }
        }
    }
    let roms = match roms.or_else(conformance::find_roms_dir) {
        Some(d) => d,
        None if write => PathBuf::from("tests/roms"),
        None => {
            eprintln!(
                "[pokemu-report] no tests/roms/ directory found (pass --roms DIR, \
                 or --write to create one)"
            );
            return ExitCode::from(EXIT_MISSING_INPUT);
        }
    };

    let corpus = conformance::build_corpus();
    let run = conformance::run_conformance(&corpus, threads);
    let deviating = run
        .results
        .iter()
        .filter(|r| !r.deviations.is_empty())
        .count();
    let conformance_json = |quarantined: &[String], violations: &[String], ok: bool| {
        let vio: Vec<String> = violations.to_vec();
        format!(
            "{{\"mode\":\"conformance\",\"roms\":\"{}\",\"programs\":{},\"deviating\":{},\
             \"quarantined\":{},\"violations\":{},\"ok\":{ok}}}",
            escape(&roms.display().to_string()),
            run.results.len(),
            deviating,
            jlist(quarantined),
            jlist(&vio)
        )
    };
    if !json_out {
        println!(
            "== conformance: {} program(s), {} with deviations, {} quarantined",
            run.results.len(),
            deviating,
            run.quarantined.len(),
        );
    }
    if !run.quarantined.is_empty() {
        // A quarantined program has no result to compare; its absence must
        // not silently pass (or rewrite) the gate.
        let mut names = Vec::new();
        for q in &run.quarantined {
            let name = q
                .item
                .and_then(|i| corpus.get(i))
                .map_or("<unknown>", |p| p.name.as_str());
            names.push(name.to_string());
            eprintln!(
                "[pokemu-report] conformance quarantined: {name} ({})",
                q.message
            );
        }
        if json_out {
            println!("{}", conformance_json(&names, &[], false));
        }
        eprintln!("[pokemu-report] conformance FAILED: quarantined program(s)");
        return ExitCode::from(EXIT_VIOLATION);
    }

    if write {
        return match conformance::write_baselines(&roms, &run.results) {
            Ok(paths) => {
                if json_out {
                    println!(
                        "{{\"mode\":\"conformance\",\"roms\":\"{}\",\"wrote\":{}}}",
                        escape(&roms.display().to_string()),
                        paths.len()
                    );
                } else {
                    println!(
                        "[pokemu-report] wrote {} baseline(s) under {}",
                        paths.len(),
                        roms.display()
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("[pokemu-report] cannot write {}: {e}", roms.display());
                ExitCode::from(EXIT_MISSING_INPUT)
            }
        };
    }

    let violations = match conformance::check_conformance(&roms, &run.results) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[pokemu-report] {e}");
            return ExitCode::from(EXIT_MISSING_INPUT);
        }
    };
    if violations.is_empty() {
        if json_out {
            println!("{}", conformance_json(&[], &[], true));
        } else {
            println!(
                "[pokemu-report] conformance OK: {} program(s) match {}",
                run.results.len(),
                roms.display()
            );
        }
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!(
            "[pokemu-report] conformance violation: {}: {}",
            v.program, v.reason
        );
    }
    if json_out {
        let rendered: Vec<String> = violations
            .iter()
            .map(|v| format!("{}: {}", v.program, v.reason))
            .collect();
        println!("{}", conformance_json(&[], &rendered, false));
    }
    eprintln!(
        "[pokemu-report] conformance FAILED: {} violating program(s)",
        violations.len()
    );
    ExitCode::from(EXIT_VIOLATION)
}

/// A finite f64 rendered as a JSON number (non-finite degrades to 0, like
/// the ledger writer).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON array of escaped strings.
fn jlist(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// Resolves one `compare` operand against the ledger: an all-digit operand
/// is a record seq, anything else is a run id (latest record wins).
fn resolve_record<'a>(records: &'a [RunRecord], arg: &str) -> Option<&'a RunRecord> {
    if !arg.is_empty() && arg.bytes().all(|b| b.is_ascii_digit()) {
        let seq: u64 = arg.parse().ok()?;
        records.iter().rev().find(|r| r.seq == seq)
    } else {
        records.iter().rev().find(|r| r.run_id == arg)
    }
}

fn load_ledger_or_exit(path: &Path) -> Result<Vec<RunRecord>, ExitCode> {
    match history::load(path) {
        Ok(records) if records.is_empty() => {
            eprintln!(
                "[pokemu-report] empty ledger {} (run the pipeline with history on first)",
                path.display()
            );
            Err(ExitCode::from(EXIT_MISSING_INPUT))
        }
        Ok(records) => Ok(records),
        Err(e) => {
            eprintln!("[pokemu-report] {e}");
            Err(ExitCode::from(EXIT_MISSING_INPUT))
        }
    }
}

/// Rows shown per text table before eliding (the `--json` mode never
/// elides).
const TEXT_ROW_CAP: usize = 40;

/// `pokemu-report compare <run-a> <run-b>`: full telemetry diff between two
/// ledger records with causal attribution of the wall-time delta (stage →
/// solver origin → hot TB, covering ≥90% of the delta, printed by name).
fn cmd_compare(args: &mut std::env::Args) -> ExitCode {
    let mut ledger = history::ledger_path();
    let mut json_out = false;
    let mut operands: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ledger" => ledger = args.next().unwrap_or_default().into(),
            "--json" => json_out = true,
            "--help" | "-h" => {
                println!("usage: pokemu-report compare <run-a> <run-b> [--ledger PATH] [--json]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => operands.push(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(EXIT_MISSING_INPUT);
            }
        }
    }
    if operands.len() != 2 {
        eprintln!("[pokemu-report] compare needs exactly two run refs (seq or run id)");
        return ExitCode::from(EXIT_MISSING_INPUT);
    }
    let records = match load_ledger_or_exit(&ledger) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let (a, b) = match (
        resolve_record(&records, &operands[0]),
        resolve_record(&records, &operands[1]),
    ) {
        (Some(a), Some(b)) => (a, b),
        (a, b) => {
            for (found, name) in [(a, &operands[0]), (b, &operands[1])] {
                if found.is_none() {
                    eprintln!(
                        "[pokemu-report] no record for {name:?} in {}",
                        ledger.display()
                    );
                }
            }
            return ExitCode::from(EXIT_MISSING_INPUT);
        }
    };

    // Deterministic + timing deltas over the union of field names.
    let mut det_changed: Vec<(String, u64, u64)> = {
        let mut names: std::collections::BTreeSet<&String> = a.det.keys().collect();
        names.extend(b.det.keys());
        names
            .into_iter()
            .map(|k| {
                (
                    k.clone(),
                    a.det.get(k).copied().unwrap_or(0),
                    b.det.get(k).copied().unwrap_or(0),
                )
            })
            .filter(|(_, va, vb)| va != vb)
            .collect()
    };
    det_changed.sort_by(|x, y| {
        (y.2.abs_diff(y.1))
            .cmp(&x.2.abs_diff(x.1))
            .then(x.0.cmp(&y.0))
    });
    let mut timing_changed: Vec<(String, f64, f64)> = {
        let mut names: std::collections::BTreeSet<&String> = a.timing.keys().collect();
        names.extend(b.timing.keys());
        names
            .into_iter()
            .map(|k| {
                (
                    k.clone(),
                    a.timing.get(k).copied().unwrap_or(0.0),
                    b.timing.get(k).copied().unwrap_or(0.0),
                )
            })
            .filter(|(_, va, vb)| va != vb)
            .collect()
    };
    timing_changed.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .total_cmp(&(x.2 - x.1).abs())
            .then(x.0.cmp(&y.0))
    });
    let attr = history::attribute(a, b);

    if json_out {
        let rec_json = |r: &RunRecord| {
            format!(
                "{{\"seq\":{},\"run_id\":\"{}\",\"kind\":\"{}\",\"config_fp\":\"{}\"}}",
                r.seq,
                escape(&r.run_id),
                escape(&r.kind),
                escape(&r.config_fp)
            )
        };
        let det: Vec<String> = det_changed
            .iter()
            .map(|(k, va, vb)| format!("\"{}\":{{\"a\":{va},\"b\":{vb}}}", escape(k)))
            .collect();
        let timing: Vec<String> = timing_changed
            .iter()
            .map(|(k, va, vb)| {
                format!(
                    "\"{}\":{{\"a\":{},\"b\":{}}}",
                    escape(k),
                    jnum(*va),
                    jnum(*vb)
                )
            })
            .collect();
        let entries: Vec<String> = attr
            .entries
            .iter()
            .map(|e| {
                let children: Vec<String> = e
                    .children
                    .iter()
                    .map(|(n, d)| format!("[\"{}\",{}]", escape(n), jnum(*d)))
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"delta_ns\":{},\"share\":{},\"children\":[{}]}}",
                    escape(&e.name),
                    jnum(e.delta_ns),
                    jnum(e.share),
                    children.join(",")
                )
            })
            .collect();
        let hot: Vec<String> = attr
            .hot_tbs
            .iter()
            .map(|(n, d)| format!("[\"{}\",{d}]", escape(n)))
            .collect();
        println!(
            "{{\"mode\":\"compare\",\"ledger\":\"{}\",\"a\":{},\"b\":{},\
             \"fingerprint_match\":{},\"det\":{{{}}},\"timing\":{{{}}},\
             \"attribution\":{{\"total_delta_ns\":{},\"covered_share\":{},\
             \"entries\":[{}],\"hot_tbs\":[{}]}}}}",
            escape(&ledger.display().to_string()),
            rec_json(a),
            rec_json(b),
            a.config_fp == b.config_fp,
            det.join(","),
            timing.join(","),
            jnum(attr.total_delta_ns),
            jnum(attr.covered_share),
            entries.join(","),
            hot.join(",")
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "== compare a: run {} (seq {}, {}, fp {}) vs b: run {} (seq {}, {}, fp {})",
        a.run_id, a.seq, a.kind, a.config_fp, b.run_id, b.seq, b.kind, b.config_fp
    );
    if a.config_fp != b.config_fp {
        println!(
            "  NOTE: config fingerprints differ — deterministic deltas below may reflect \
             the config change, not a regression"
        );
    }
    println!(
        "== deterministic deltas ({} field(s) changed)",
        det_changed.len()
    );
    if det_changed.is_empty() {
        println!("  none — deterministic sections are identical");
    }
    for (k, va, vb) in det_changed.iter().take(TEXT_ROW_CAP) {
        println!("  {k:<36} {va:>12} -> {vb:<12}");
    }
    if det_changed.len() > TEXT_ROW_CAP {
        println!(
            "  … and {} more (use --json for all)",
            det_changed.len() - TEXT_ROW_CAP
        );
    }
    println!(
        "== timing deltas ({} field(s) changed)",
        timing_changed.len()
    );
    for (k, va, vb) in timing_changed.iter().take(TEXT_ROW_CAP) {
        println!(
            "  {k:<36} {:>12} -> {:<12} ({:+.3} ms)",
            ms(va / 1000.0),
            ms(vb / 1000.0),
            (vb - va) / 1e6
        );
    }
    if timing_changed.len() > TEXT_ROW_CAP {
        println!(
            "  … and {} more (use --json for all)",
            timing_changed.len() - TEXT_ROW_CAP
        );
    }
    println!(
        "== attribution of wall.total delta ({:+.3} ms, threshold 90%)",
        attr.total_delta_ns / 1e6
    );
    for e in &attr.entries {
        println!(
            "  {:<30} {:+12.3} ms  {:5.1}%",
            e.name,
            e.delta_ns / 1e6,
            100.0 * e.share
        );
        for (n, d) in &e.children {
            println!("      {n:<28} {:+12.3} ms", d / 1e6);
        }
    }
    println!(
        "  attributed {:.1}% of the wall.total delta",
        100.0 * attr.covered_share
    );
    if !attr.hot_tbs.is_empty() {
        println!("== hot-TB exec deltas (deterministic)");
        for (n, d) in &attr.hot_tbs {
            println!("  {n:<30} {d:+12} execs");
        }
    }
    ExitCode::SUCCESS
}

/// `pokemu-report trend`: per-metric trajectory over the trend window of
/// every `(kind, config_fp)` group, with the integer median/MAD gate.
fn cmd_trend(args: &mut std::env::Args) -> ExitCode {
    let mut ledger = history::ledger_path();
    let mut window = history::DEFAULT_TREND_WINDOW;
    let mut check = false;
    let mut json_out = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ledger" => ledger = args.next().unwrap_or_default().into(),
            "--last" => window = args.next().and_then(|v| v.parse().ok()).unwrap_or(window),
            "--check" => check = true,
            "--json" => json_out = true,
            "--help" | "-h" => {
                println!(
                    "usage: pokemu-report trend [--last N] [--ledger PATH] [--check] [--json]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(EXIT_MISSING_INPUT);
            }
        }
    }
    let records = match load_ledger_or_exit(&ledger) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut groups: BTreeMap<String, Vec<&RunRecord>> = BTreeMap::new();
    for r in &records {
        groups.entry(history::group_key(r)).or_default().push(r);
    }

    let mut violations: Vec<String> = Vec::new();
    let mut group_jsons: Vec<String> = Vec::new();
    let mut gated_groups = 0usize;
    if !json_out {
        println!(
            "== trend over {} ({} record(s), {} group(s); window {})",
            ledger.display(),
            records.len(),
            groups.len(),
            window
        );
    }
    for (key, group) in &groups {
        let owned: Vec<RunRecord> = group.iter().map(|&r| r.clone()).collect();
        let stats = history::trend_stats(&owned, window);
        if stats.is_empty() {
            continue;
        }
        gated_groups += 1;
        let latest = owned.last().expect("non-empty group");
        for s in &stats {
            if let Some(v) = &s.violation {
                violations.push(format!("{key}: {v}"));
            }
        }
        if json_out {
            let metrics: Vec<String> = stats
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\":\"{}\",\"deterministic\":{},\"n\":{},\"min\":{},\
                         \"median\":{},\"max\":{},\"mad\":{},\"latest\":{},\"violation\":{}}}",
                        escape(&s.name),
                        s.deterministic,
                        s.n,
                        s.min,
                        s.median,
                        s.max,
                        s.mad,
                        s.latest,
                        s.violation
                            .as_ref()
                            .map_or("null".to_string(), |v| format!("\"{}\"", escape(v)))
                    )
                })
                .collect();
            group_jsons.push(format!(
                "{{\"key\":\"{}\",\"records\":{},\"latest_seq\":{},\"latest_run_id\":\"{}\",\
                 \"metrics\":[{}]}}",
                escape(key),
                owned.len(),
                latest.seq,
                escape(&latest.run_id),
                metrics.join(",")
            ));
            continue;
        }
        println!(
            "-- group {key} ({} record(s); latest seq {} run {})",
            owned.len(),
            latest.seq,
            latest.run_id
        );
        // Show only metrics that move or violate; stable flat metrics are
        // noise in a terminal (the JSON mode carries everything).
        let interesting: Vec<&history::TrendStat> = stats
            .iter()
            .filter(|s| s.min != s.max || s.latest != s.median || s.violation.is_some())
            .collect();
        println!(
            "  {:<36} {:>3} {:>10} {:>10} {:>10} {:>10} {:>6}  flag",
            "metric", "n", "min", "median", "max", "latest", "MAD"
        );
        for s in interesting.iter().take(TEXT_ROW_CAP) {
            println!(
                "  {:<36} {:>3} {:>10} {:>10} {:>10} {:>10} {:>6}  {}",
                s.name,
                s.n,
                s.min,
                s.median,
                s.max,
                s.latest,
                s.mad,
                match &s.violation {
                    Some(_) if s.deterministic => "DRIFT",
                    Some(_) => "ANOMALY",
                    None => "",
                }
            );
        }
        if interesting.len() > TEXT_ROW_CAP {
            println!(
                "  … and {} more (use --json for all)",
                interesting.len() - TEXT_ROW_CAP
            );
        }
        if interesting.is_empty() {
            println!("  all {} metric(s) flat and clean", stats.len());
        }
    }

    if json_out {
        println!(
            "{{\"mode\":\"trend\",\"ledger\":\"{}\",\"window\":{window},\"groups\":[{}],\
             \"violations\":{},\"ok\":{}}}",
            escape(&ledger.display().to_string()),
            group_jsons.join(","),
            jlist(&violations),
            violations.is_empty()
        );
    } else if gated_groups == 0 {
        println!("  no group has ≥2 records yet — nothing to gate");
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("[pokemu-report] trend violation: {v}");
        }
        if check {
            eprintln!(
                "[pokemu-report] trend check FAILED: {} violation(s)",
                violations.len()
            );
            return ExitCode::from(EXIT_VIOLATION);
        }
    } else if check && !json_out {
        println!(
            "[pokemu-report] trend check OK: {gated_groups} group(s) within band, \
             no deterministic drift"
        );
    }
    ExitCode::SUCCESS
}

/// `pokemu-report history gc|verify`: retention and integrity over the run
/// ledger.
fn cmd_history(args: &mut std::env::Args) -> ExitCode {
    let mut ledger = history::ledger_path();
    let mut cap = history::DEFAULT_GC_CAP;
    let mut json_out = false;
    let mut action: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "gc" | "verify" if action.is_none() => action = Some(a),
            "--ledger" => ledger = args.next().unwrap_or_default().into(),
            "--cap" => cap = args.next().and_then(|v| v.parse().ok()).unwrap_or(cap),
            "--json" => json_out = true,
            "--help" | "-h" => {
                println!(
                    "usage: pokemu-report history <gc|verify> [--cap N] [--ledger PATH] [--json]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(EXIT_MISSING_INPUT);
            }
        }
    }
    match action.as_deref() {
        Some("gc") => match history::gc(&ledger, cap) {
            Ok((kept, dropped)) => {
                if json_out {
                    println!(
                        "{{\"mode\":\"history.gc\",\"ledger\":\"{}\",\"cap\":{cap},\
                         \"kept\":{kept},\"dropped\":{dropped}}}",
                        escape(&ledger.display().to_string())
                    );
                } else {
                    println!(
                        "[pokemu-report] history gc: kept {kept}, dropped {dropped} ({})",
                        ledger.display()
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("[pokemu-report] {e}");
                ExitCode::from(EXIT_MISSING_INPUT)
            }
        },
        Some("verify") => {
            let record_count = history::load(&ledger).map(|r| r.len()).unwrap_or(0);
            match history::verify(&ledger) {
                Ok(violations) => {
                    if json_out {
                        println!(
                            "{{\"mode\":\"history.verify\",\"ledger\":\"{}\",\"records\":{},\
                             \"violations\":{},\"ok\":{}}}",
                            escape(&ledger.display().to_string()),
                            record_count,
                            jlist(&violations),
                            violations.is_empty()
                        );
                    }
                    if violations.is_empty() {
                        if !json_out {
                            println!(
                                "[pokemu-report] history verify OK: {record_count} record(s), \
                                 all content hashes intact ({})",
                                ledger.display()
                            );
                        }
                        ExitCode::SUCCESS
                    } else {
                        for v in &violations {
                            eprintln!("[pokemu-report] history violation: {v}");
                        }
                        eprintln!(
                            "[pokemu-report] history verify FAILED: {} violation(s)",
                            violations.len()
                        );
                        ExitCode::from(EXIT_VIOLATION)
                    }
                }
                Err(e) => {
                    eprintln!("[pokemu-report] {e}");
                    ExitCode::from(EXIT_MISSING_INPUT)
                }
            }
        }
        _ => {
            eprintln!("[pokemu-report] history needs an action: gc or verify");
            ExitCode::from(EXIT_MISSING_INPUT)
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let first = args.next();
    match first.as_deref() {
        Some("coverage") => return cmd_coverage(&mut args),
        Some("diff") => return cmd_diff(&mut args),
        Some("conformance") => return cmd_conformance(&mut args),
        Some("perf") => return cmd_view(&PERF_VIEW, None, &mut args),
        Some("compare") => return cmd_compare(&mut args),
        Some("trend") => return cmd_trend(&mut args),
        Some("history") => return cmd_history(&mut args),
        _ => {}
    }
    cmd_view(&REPORT_VIEW, first, &mut args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, ts_us: f64, dur_us: f64) -> Span {
        Span {
            name: name.to_owned(),
            id,
            parent,
            tid: 0,
            ts_us,
            dur_us,
            insn: None,
        }
    }

    /// A fully attributed run with these Hi-Fi and Lo-Fi target spans, plus
    /// a slow Lo-Fi span outside the run that must not count.
    fn run(hifi_us: &[f64], lofi_us: &[f64]) -> Report {
        let mut spans = vec![span("pipeline.run", 1, 0, 0.0, 1000.0)];
        for (i, name) in RUN_STAGES.iter().enumerate() {
            spans.push(span(name, 2 + i as u64, 1, 250.0 * i as f64, 250.0));
        }
        for (i, (name, us)) in hifi_us
            .iter()
            .map(|&us| ("target.hifi", us))
            .chain(lofi_us.iter().map(|&us| ("target.lofi", us)))
            .enumerate()
        {
            spans.push(span(name, 10 + i as u64, 4, 500.0 + i as f64, us));
        }
        spans.push(span("target.lofi", 99, 0, 2000.0, 500.0));
        Report {
            spans,
            thread_names: BTreeMap::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn perf_check_fails_on_the_e3_inversion() {
        let hifi = [20.0, 22.0, 24.0];
        // One slow Lo-Fi run (a template build) leaves the median alone.
        assert_eq!(run(&hifi, &[10.0, 12.0, 400.0]).check_perf(), Ok(()));
        let err = run(&hifi, &[25.0, 26.0, 5.0]).check_perf().unwrap_err();
        assert!(err.starts_with("e3 inversion"), "{err}");
        assert!(
            err.contains("(0.025 ms)") && err.contains("(0.022 ms)"),
            "{err}"
        );
        let err = run(&hifi, &[]).check_perf().unwrap_err();
        assert!(err.contains("0 target.lofi spans"), "{err}");
    }

    #[test]
    fn perf_check_fails_on_unattributed_time() {
        let mut r = run(&[20.0], &[10.0]);
        r.spans.retain(|s| s.name != "stage.analyze");
        let err = r.check_perf().unwrap_err();
        assert!(err.contains("75.0% of pipeline wall time"), "{err}");
    }

    /// A completed run document whose only section is these
    /// `metrics.counters` entries.
    fn counters_doc(counters: &str) -> RunDoc {
        RunDoc {
            run_id: "t".to_owned(),
            results: pokemu::harness::CrossValidation {
                completed: true,
                ..Default::default()
            },
            coverage: Default::default(),
            insns: Vec::new(),
            root: json::parse(&format!("{{\"metrics\":{{\"counters\":{{{counters}}}}}}}")).unwrap(),
        }
    }

    #[test]
    fn diff_gates_every_baseline_counter_by_name() {
        let base = counters_doc(r#""lofi.insns":125,"trace.dropped_events":0"#);
        // Counters only the run has, and bookkeeping counters, pass.
        let run = r#""lofi.insns":125,"lofi.tb_lookup.hits":9,"trace.dropped_events":3"#;
        assert!(diff_violations(&base, &counters_doc(run)).is_empty());
        assert_eq!(
            diff_violations(&base, &counters_doc(r#""lofi.insns":126"#)),
            ["metrics.counters.lofi.insns: baseline 125 -> run 126"]
        );
        assert_eq!(
            diff_violations(&base, &counters_doc("")),
            ["metrics.counters.lofi.insns: baseline 125 -> run <missing>"]
        );
    }
}
