//! The gated bench trajectory: fixed-seed performance workloads whose
//! results feed `pokemu-report bench --check`.
//!
//! ```text
//! pokemu-bench [--only NAME] [--write-baselines DIR]
//! ```
//!
//! Each workload runs a deterministic slice of the pipeline and writes
//! `target/bench/<name>.perf.json` with two strictly separated sections:
//!
//! * `checked.counts` — machine-independent work counts (paths, queries,
//!   executed guest instructions). These must match the committed baseline
//!   **exactly**: any drift means the workload itself changed, which is a
//!   bench-trajectory break, not noise.
//! * `checked.ratios` — machine-dependent but *self-normalizing* timing
//!   ratios (hifi/lofi throughput, with/without summaries, solver query
//!   latency vs. an in-process calibration spin). The baseline stores a
//!   `[min, max]` band wide enough for machine variance (×8 each way) and
//!   narrow enough to catch order-of-magnitude regressions such as an
//!   injected `solver.check` latency fault.
//! * `info` — absolute nanoseconds, recorded for humans and trend plots,
//!   never gated.
//!
//! `exec_throughput` times the hi-fi interpreter against the lo-fi DBT on
//! hot loops (the e3 ratio per lifted test is measured end to end by
//! `liftbench`); `summary_crossover` pins the e7 summarization inversion
//! (summaries cost more than they save on `mov ds,ax`); `pipeline_smoke`
//! ties end-to-end wall time and per-query solver latency to a CPU-speed
//! calibration loop.
//!
//! `--write-baselines DIR` refreshes the committed baselines from this
//! machine's measurements (exact counts, ratio bands at measured/8 ..
//! measured*8); `scripts/refresh-baseline.sh` drives it.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use pokemu::explore::{explore_state_space, StateSpaceConfig};
use pokemu::harness::{
    baseline_snapshot, run_cross_validation, HiFiTarget, LofiTarget, PipelineConfig, Target,
};
use pokemu::lofi::Fidelity;
use pokemu::testgen::{TestProgram, TestState};
use pokemu_rt::{history, metrics, rng, trace};

/// Schema version stamped into every perf JSON and baseline.
const SCHEMA: u64 = 1;

/// Ratio baseline band half-width, as a multiplicative factor: a freshly
/// written baseline accepts measured/8 .. measured*8.
const RATIO_BAND: f64 = 8.0;

/// One finished workload: its gated counts and ratios plus informational
/// absolute timings.
struct WorkloadResult {
    name: &'static str,
    counts: Vec<(&'static str, u64)>,
    ratios: Vec<(&'static str, f64)>,
    info: Vec<(&'static str, f64)>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_owned()
    }
}

impl WorkloadResult {
    fn perf_json(&self) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let ratios: Vec<String> = self
            .ratios
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"schema\":{SCHEMA},\"checked\":{{\"counts\":{{{}}},\
             \"ratios\":{{{}}}}},\"info\":{{{}}}}}\n",
            self.name,
            counts.join(","),
            ratios.join(","),
            info.join(",")
        )
    }

    fn baseline_json(&self) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let ratios: Vec<String> = self
            .ratios
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\":{{\"min\":{},\"max\":{}}}",
                    num(v / RATIO_BAND),
                    num(v * RATIO_BAND)
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"schema\":{SCHEMA},\"counts\":{{{}}},\"ratios\":{{{}}}}}\n",
            self.name,
            counts.join(","),
            ratios.join(",")
        )
    }
}

/// Calibration spin: `iters` SplitMix64 mixes, returning mean ns per mix.
/// Solver-query latency is gated *relative to this*, so the band tracks
/// the machine's single-thread speed instead of absolute nanoseconds.
fn calibrate(iters: u64) -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = rng::mix64(x ^ i);
    }
    black_box(x);
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Hot-loop slice: the same fixed programs through the hi-fi interpreter
/// and the lo-fi DBT, interleaved. `hifi_over_lofi` is their throughput
/// ratio on code that runs many times; it is not the e3 ratio per lifted
/// test, where each instruction runs about once (DESIGN.md §10).
fn exec_throughput() -> WorkloadResult {
    // Hot-loop programs where TB reuse dominates — the workload a DBT
    // exists for. These are raw `TestProgram`s (no baseline-init
    // prologue): the harness target boots the machine itself, so the
    // programs are pure steady-state execution; translation-dominated
    // shapes are covered by the other workloads. Every loop stays under
    // the harness step budget (50k instructions) so both targets run to
    // the terminating `hlt`.
    //
    // dec_loop: mov ecx, 22000; L: dec ecx; jnz L
    //   — one two-instruction TB re-entered 22k times.
    // unrolled64: mov ecx, 660; L: 64 × inc eax; dec ecx; jnz L
    //   — a straight-line run spanning eight TBs (jnz rel8 = -67).
    // alu_mix: mov ecx, 1300; L: 8 × (inc/xor/add/neg); dec ecx; jnz L
    //   — mixed ALU/flags traffic.
    // imm_mix: mov ecx, 1700; L: 6 × (add/xor/or/sub eax, imm32); ...
    //   — five-byte immediate forms: decode-heavy for the interpreter,
    //     translated once for the DBT.
    // nested: two loop levels, 40 inner iterations per outer.
    let raw = |name: &str, body: Vec<u8>| {
        let mut code = body;
        code.push(0xf4); // hlt
        TestProgram {
            name: name.to_owned(),
            test_insn: code.clone(),
            test_insn_offset: 0,
            state: TestState::default(),
            path_id: 0,
            segments: Vec::new(),
            code,
        }
    };
    let unrolled = |opcode: u8| {
        let mut v = vec![0xb9, 0x94, 0x02, 0x00, 0x00]; // mov ecx, 660
        v.extend(std::iter::repeat(opcode).take(64));
        v.extend_from_slice(&[0x49, 0x75, 0xbd]);
        v
    };
    let mut alu_mix = vec![0xb9, 0x14, 0x05, 0x00, 0x00]; // mov ecx, 1300
    for _ in 0..8 {
        // inc eax; xor eax, edx; add eax, ebx; neg eax
        alu_mix.extend_from_slice(&[0x40, 0x31, 0xd0, 0x01, 0xd8, 0xf7, 0xd8]);
    }
    alu_mix.extend_from_slice(&[0x49, 0x75, 0xc5]);
    let mut imm_mix = vec![0xb9, 0xa4, 0x06, 0x00, 0x00]; // mov ecx, 1700
    for _ in 0..6 {
        imm_mix.extend_from_slice(&[
            0x05, 0x01, 0x00, 0x00, 0x00, // add eax, 1
            0x35, 0xff, 0x00, 0xff, 0x00, // xor eax, 0x00ff00ff
            0x0d, 0x0f, 0x00, 0x00, 0xf0, // or eax, 0xf000000f
            0x2d, 0x02, 0x00, 0x00, 0x00, // sub eax, 2
        ]);
    }
    imm_mix.extend_from_slice(&[0x49, 0x75, 0x85]);
    let nested = vec![
        0xb9, 0x04, 0x01, 0x00, 0x00, // mov ecx, 260
        0xba, 0x28, 0x00, 0x00, 0x00, // outer: mov edx, 40
        0x40, // inner: inc eax
        0x4a, // dec edx
        0x75, 0xfc, // jnz inner
        0x49, // dec ecx
        0x75, 0xf4, // jnz outer
    ];
    let progs: Vec<TestProgram> = vec![
        raw(
            "throughput_dec_loop",
            vec![0xb9, 0xf0, 0x55, 0x00, 0x00, 0x49, 0x75, 0xfd],
        ),
        raw("throughput_unrolled64", unrolled(0x40)), // inc eax
        raw("throughput_alu_mix", alu_mix),
        raw("throughput_imm_mix", imm_mix),
        raw("throughput_nested", nested),
    ];
    const REPS: usize = 5;

    let m0 = metrics::snapshot();
    let mut hifi = HiFiTarget;
    let mut lofi = LofiTarget {
        fidelity: Fidelity::QEMU_LIKE,
    };
    // Per-rep sums, reduced by median: one preempted rep (this runs on
    // shared CI machines) must not be able to sink or inflate the ratio.
    let mut hifi_reps = Vec::with_capacity(REPS);
    let mut lofi_reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut hifi_ns = 0u64;
        let mut lofi_ns = 0u64;
        for p in &progs {
            let t = Instant::now();
            black_box(hifi.run_program(p));
            hifi_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            black_box(lofi.run_program(p));
            lofi_ns += t.elapsed().as_nanos() as u64;
        }
        hifi_reps.push(hifi_ns);
        lofi_reps.push(lofi_ns);
    }
    let median = |mut v: Vec<u64>| -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (hifi_ns, lofi_ns) = (median(hifi_reps), median(lofi_reps));
    let delta = metrics::snapshot().since(&m0);

    WorkloadResult {
        name: "exec_throughput",
        counts: vec![
            ("programs", (progs.len() * REPS * 2) as u64),
            ("lofi_insns", delta.counter("lofi.insns")),
            ("lofi_tb_hits", delta.counter("lofi.tb_lookup.hits")),
            ("lofi_tb_misses", delta.counter("lofi.tb_lookup.misses")),
        ],
        ratios: vec![("hifi_over_lofi", hifi_ns as f64 / lofi_ns as f64)],
        info: vec![("hifi_ns", hifi_ns as f64), ("lofi_ns", lofi_ns as f64)],
    }
}

/// e7 slice: state-space exploration of `mov ds, ax` (`8e d8`) with and
/// without summarization. `with_over_without` > 1 *is* the inversion the
/// paper's summaries were supposed to prevent; the baseline band pins it
/// so an accidental 10× further regression (or a fix!) is flagged.
fn summary_crossover() -> WorkloadResult {
    let baseline = baseline_snapshot();
    let insn: &[u8] = &[0x8e, 0xd8];
    let explore = |use_summaries: bool| {
        let m0 = metrics::snapshot();
        let t = Instant::now();
        let space = explore_state_space(
            insn,
            &baseline,
            StateSpaceConfig {
                max_paths: 64,
                use_summaries,
                ..StateSpaceConfig::default()
            },
        );
        let ns = t.elapsed().as_nanos() as u64;
        let queries = metrics::snapshot().since(&m0).counter("solver.queries");
        (space, ns, queries)
    };
    // Warm both paths once so solver/pool one-time setup is off the clock.
    let _ = explore(true);
    let (with, with_ns, with_queries) = explore(true);
    let (without, without_ns, without_queries) = explore(false);

    WorkloadResult {
        name: "summary_crossover",
        counts: vec![
            ("paths_with", with.paths.len() as u64),
            ("paths_without", without.paths.len() as u64),
            ("queries_with", with_queries),
            ("queries_without", without_queries),
        ],
        ratios: vec![("with_over_without", with_ns as f64 / without_ns as f64)],
        info: vec![
            ("with_ns", with_ns as f64),
            ("without_ns", without_ns as f64),
        ],
    }
}

/// End-to-end smoke pipeline (the CI cross-validation config) with solver
/// latency normalized by the calibration spin. An injected
/// `solver.check:latency=…` fault inflates `solver_query_over_calib` by
/// orders of magnitude — the bench gate's fault self-test keys on this.
fn pipeline_smoke() -> WorkloadResult {
    let calib_ns = calibrate(1 << 17);
    let m0 = metrics::snapshot();
    let cv = run_cross_validation(PipelineConfig {
        first_byte: Some(0x80),
        max_instructions: 2,
        max_paths_per_insn: 16,
        threads: 2,
        ..PipelineConfig::default()
    });
    let total_ns = cv.stages.total_wall.as_nanos() as u64;
    let delta = metrics::snapshot().since(&m0);

    let queries = delta.counter("solver.queries").max(1);
    let solver_ns: u64 = pokemu::solver::origin::ORIGINS
        .iter()
        .map(|o| delta.timer_ns(&format!("solver.ns.{o}")))
        .sum();
    let query_ns = solver_ns as f64 / queries as f64;

    WorkloadResult {
        name: "pipeline_smoke",
        counts: vec![
            ("unique_instructions", cv.unique_instructions as u64),
            ("total_paths", cv.total_paths as u64),
            ("fully_explored", cv.fully_explored as u64),
            ("solver_queries", delta.counter("solver.queries")),
            // Lo-Fi work per run is the test's own: every run forks from
            // the post-baseline template, so a run that re-executes the
            // baseline shows here.
            ("lofi_insns", delta.counter("lofi.insns")),
            ("lofi_tb_misses", delta.counter("lofi.tb_lookup.misses")),
        ],
        ratios: vec![("solver_query_over_calib", query_ns / calib_ns)],
        info: vec![
            ("total_ns", total_ns as f64),
            ("solver_ns", solver_ns as f64),
            ("calib_ns_per_op", calib_ns),
        ],
    }
}

fn main() {
    let mut only: Option<String> = None;
    let mut write_baselines: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--only" => only = args.next(),
            "--write-baselines" => write_baselines = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: pokemu-bench [--only NAME] [--write-baselines DIR]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    // Timing attribution on (the profile sink: no events held in memory):
    // the per-origin solver timers feed the pipeline_smoke ratio. Counters
    // stay deterministic regardless.
    trace::set_profiling(true);

    let bench_dir = pokemu_rt::target_dir().join("bench");
    std::fs::create_dir_all(&bench_dir).expect("create target/bench");

    type Runner = fn() -> WorkloadResult;
    let workloads: [(&str, Runner); 3] = [
        ("exec_throughput", exec_throughput),
        ("summary_crossover", summary_crossover),
        ("pipeline_smoke", pipeline_smoke),
    ];

    // Run-ledger context: a full bench sweep and an `--only` rerun must
    // form separate trend groups (their process-cumulative warm-up state
    // differs), so the selected workload set is part of the fingerprint.
    let selected: Vec<&str> = workloads
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| only.as_deref().is_none_or(|o| o == *n))
        .collect();
    history::set_context(&format!("pokemu-bench:{}", selected.join("+")));

    let mut ran = 0usize;
    for (name, run) in workloads {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let w = run();
        if history::enabled() {
            let mut rec =
                history::RunRecord::new("bench", name, history::fingerprint(&[name.to_string()]));
            for (k, v) in &w.counts {
                rec.det(format!("count.{k}"), *v);
            }
            for (k, v) in &w.ratios {
                rec.timing(format!("ratio.{k}"), *v);
            }
            for (k, v) in &w.info {
                rec.timing(format!("info.{k}"), *v);
            }
            if let Err(e) = history::append(rec) {
                eprintln!("[history] append failed: {e}");
            }
        }
        let path = bench_dir.join(format!("{name}.perf.json"));
        std::fs::write(&path, w.perf_json()).expect("write perf json");
        let ratios: Vec<String> = w
            .ratios
            .iter()
            .map(|(k, v)| format!("{k}={v:.3}"))
            .collect();
        println!(
            "[pokemu-bench] {name}: {} -> {}",
            ratios.join(" "),
            path.display()
        );
        if let Some(dir) = &write_baselines {
            std::fs::create_dir_all(dir).expect("create baselines dir");
            let bpath = dir.join(format!("{name}.json"));
            std::fs::write(&bpath, w.baseline_json()).expect("write baseline");
            println!("[pokemu-bench] baseline {}", bpath.display());
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!(
            "[pokemu-bench] no workload matched {:?}",
            only.as_deref().unwrap_or("<none>")
        );
        std::process::exit(2);
    }
}
