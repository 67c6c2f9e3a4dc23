//! The end-to-end PokeEMU pipeline (paper Fig. 1): instruction-set
//! exploration → per-instruction state-space exploration → test-program
//! generation → execution on every target → difference analysis.
//!
//! Generation and execution are both embarrassingly parallel (the paper ran
//! on 3×8-core EC2 instances, §6); [`run_cross_validation`] fans out over
//! worker threads with [`pokemu_rt::for_each`] and reports a per-stage cost
//! breakdown (the E6 experiment) in [`StageStats`].
//!
//! Every stage is instrumented through `pokemu_rt::trace`: the run is a
//! `pipeline.run` span containing one span per Fig. 1 stage
//! (`stage.explore_insns`, `stage.explore_states`, `stage.testgen`,
//! `stage.execute`, `stage.analyze`), with one `pipeline.instruction` span
//! per explored instruction on the worker that processed it. Each span is
//! the one measurement of its region: [`StageStats`] is built from the
//! durations the spans return, and the same spans feed the Chrome trace
//! (events: [`PipelineConfig::trace`] or `POKEMU_TRACE=1`) and the folded
//! profile (`POKEMU_PROF=1`) when those sinks are on. Under
//! `POKEMU_TRACE=1` a finished run also exports
//! `target/trace/cross_validation.trace.json` (Chrome `trace_event` format)
//! and the run's metrics delta as `cross_validation.metrics.jsonl`; under
//! `POKEMU_PROF=1` it exports `target/prof/cross_validation.folded`. Both
//! are read by `pokemu-report` and `scripts/ci.sh`.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pokemu_rt::{coverage, flight, metrics, pool, prof, trace, QuarantineRecord, WorkerStats};

use pokemu_explore::{
    explore_instruction_space, explore_state_space, InsnSpaceConfig, StateSpaceConfig,
};
use pokemu_isa::snapshot::Snapshot;
use pokemu_lofi::Fidelity;
use pokemu_testgen::TestProgram;

use crate::compare::{analyze_case, Clusters, Difference};
use crate::targets::{baseline_snapshot, HardwareTarget, HiFiTarget, LofiTarget, Target};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Restrict instruction-space exploration to one first byte
    /// (None = the whole space).
    pub first_byte: Option<u8>,
    /// Restrict the second byte as well (e.g. one two-byte opcode).
    pub second_byte: Option<u8>,
    /// Cap on unique instructions taken from instruction exploration.
    pub max_instructions: usize,
    /// Per-instruction path cap (8192 in the paper).
    pub max_paths_per_insn: usize,
    /// Lo-Fi fidelity profile under test.
    pub lofi_fidelity: Fidelity,
    /// Worker threads for generation and execution (clamped to the number
    /// of instructions by the pool, so no idle workers are ever reported).
    pub threads: usize,
    /// Turn span recording on for this run (equivalent to `POKEMU_TRACE=1`,
    /// but scoped to in-process recording: the export files are only
    /// written under the environment variable).
    pub trace: bool,
    /// Write a run manifest to `target/run/<run-id>/manifest.json` when the
    /// run finishes (equivalent to `POKEMU_RUN_MANIFEST=1`; the run id
    /// comes from `POKEMU_RUN_ID`, see [`crate::manifest`]).
    pub manifest: bool,
    /// Whole-run wall deadline: past it the pool stops dispatching new
    /// instructions, in-flight ones finish, everything gathered so far is
    /// analyzed and flushed, and the manifest says `"completed": false`.
    /// Defaults from `POKEMU_RUN_DEADLINE_MS`.
    pub run_deadline: Option<Duration>,
    /// Per-instruction wall deadline for state-space exploration; an
    /// instruction past it keeps its paths so far and is counted as not
    /// fully explored. Defaults from `POKEMU_INSN_DEADLINE_MS`.
    pub insn_deadline: Option<Duration>,
}

/// Env var: whole-run deadline in milliseconds (see
/// [`PipelineConfig::run_deadline`]).
pub const RUN_DEADLINE_ENV: &str = "POKEMU_RUN_DEADLINE_MS";

/// Env var: per-instruction exploration deadline in milliseconds (see
/// [`PipelineConfig::insn_deadline`]).
pub const INSN_DEADLINE_ENV: &str = "POKEMU_INSN_DEADLINE_MS";

fn env_ms(var: &str) -> Option<Duration> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            first_byte: None,
            second_byte: None,
            max_instructions: usize::MAX,
            max_paths_per_insn: 8192,
            lofi_fidelity: Fidelity::QEMU_LIKE,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            trace: false,
            manifest: false,
            run_deadline: env_ms(RUN_DEADLINE_ENV),
            insn_deadline: env_ms(INSN_DEADLINE_ENV),
        }
    }
}

/// One cross-validation deviation with full provenance: which target
/// diverged, on which test, the instruction bytes, the explored path, and
/// the root-cause cluster it landed in. The manifest's `deviations` array
/// is exactly this list; it is deterministic for a fixed config and seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviationRecord {
    /// Which emulator diverged from the hardware oracle: `"lofi"`/`"hifi"`.
    pub target: String,
    /// The test program's name.
    pub test: String,
    /// Hex of the test-instruction bytes.
    pub insn_hex: String,
    /// The symbolic-exploration path the test exercises.
    pub path_id: u64,
    /// Root cause (the [`crate::compare::RootCause`] display form).
    pub cause: String,
    /// The differing snapshot components.
    pub components: Vec<String>,
}

impl DeviationRecord {
    /// The record of `target`'s deviation `d` on test `test`.
    pub(crate) fn new(target: &str, test: &str, d: &Difference) -> DeviationRecord {
        DeviationRecord {
            target: target.to_owned(),
            test: test.to_owned(),
            insn_hex: hex(&d.insn),
            path_id: d.path_id,
            cause: d.cause.to_string(),
            components: d.components.clone(),
        }
    }
}

/// Per-stage cost breakdown for one pipeline run (the E6 experiment):
/// where the wall time went, how hard the solver worked, and what each
/// worker thread did.
///
/// This is a *view* over the stage spans: stage wall times are the ones the
/// run's stage spans measured, and the worker-summed durations add up what
/// each item's own `stage.*` spans measured, as `solver_queries` adds up
/// its exploration results. Nothing is read back from process-global state,
/// so runs executing concurrently in one process do not see each other.
#[derive(Debug, Default, Clone)]
pub struct StageStats {
    /// Wall time of instruction-set exploration (Fig. 1 step 1).
    pub explore_insns: Duration,
    /// Worker time summed over state-space exploration + test generation
    /// (Fig. 1 steps 2–3).
    pub generate: Duration,
    /// Worker time summed over executing tests on all three targets
    /// (Fig. 1 step 4).
    pub execute: Duration,
    /// Wall time of the sequential difference analysis (Fig. 1 step 5).
    pub analyze: Duration,
    /// Wall time of the parallel generate+execute section; less than
    /// `generate + execute` when the run actually parallelized.
    pub parallel_wall: Duration,
    /// Total wall time of the pipeline run.
    pub total_wall: Duration,
    /// Solver queries issued during state-space exploration.
    pub solver_queries: u64,
    /// Per-worker item counts and busy time, indexed by worker id. Only
    /// live workers appear: the pool clamps its size to the item count.
    pub workers: Vec<WorkerStats>,
}

/// Counters for the whole run (the §6 headline numbers).
#[derive(Debug, Default, Clone)]
pub struct CrossValidation {
    /// Candidate byte sequences found by decoder exploration.
    pub candidates: usize,
    /// Unique instructions selected.
    pub unique_instructions: usize,
    /// Instructions whose state space was exhaustively explored.
    pub fully_explored: usize,
    /// Total explored paths (= generated test programs).
    pub total_paths: usize,
    /// Tests whose Lo-Fi behavior differs from the hardware oracle
    /// (raw, before the undefined-behavior filter — the paper's headline
    /// counting).
    pub lofi_differences: usize,
    /// Tests whose Hi-Fi behavior differs from the hardware oracle (raw).
    pub hifi_differences: usize,
    /// Lo-Fi differences surviving the undefined-behavior filter.
    pub lofi_filtered: usize,
    /// Hi-Fi differences surviving the undefined-behavior filter.
    pub hifi_filtered: usize,
    /// Root-cause clusters for Lo-Fi differences.
    pub lofi_clusters: Clusters,
    /// Root-cause clusters for Hi-Fi differences.
    pub hifi_clusters: Clusters,
    /// Every filtered deviation with provenance, in analysis order.
    pub deviations: Vec<DeviationRecord>,
    /// Per-stage cost breakdown (E6).
    pub stages: StageStats,
    /// `false` when the whole-run deadline tripped and dispatch stopped
    /// early; everything above still reflects the work that did finish.
    /// Quarantined instructions do *not* clear this flag — a finished run
    /// with failures attributed is a completed run.
    pub completed: bool,
    /// Instructions whose worker panicked; the failure is attributed here
    /// instead of aborting the campaign.
    pub quarantined: Vec<QuarantineRecord>,
    /// Instructions never dispatched because the run deadline passed.
    pub skipped_instructions: usize,
    /// Solver queries across all instructions abandoned as Unknown.
    pub unknown_queries: u64,
    /// Replayed paths found unsatisfiable at path end (demoted panic).
    pub infeasible_paths: usize,
}

/// The result of running one test on all three targets.
#[derive(Debug)]
pub struct CaseOutcome {
    /// Test identity.
    pub name: String,
    /// Hardware-oracle snapshot.
    pub hardware: Snapshot,
    /// Hi-Fi snapshot.
    pub hifi: Snapshot,
    /// Lo-Fi snapshot.
    pub lofi: Snapshot,
}

/// Runs one test program on all three targets (paper Fig. 1 step 4).
pub fn run_on_all_targets(prog: &TestProgram, lofi_fidelity: Fidelity) -> CaseOutcome {
    let hardware = HardwareTarget.run_program(prog);
    let hifi = HiFiTarget.run_program(prog);
    let lofi = LofiTarget {
        fidelity: lofi_fidelity,
    }
    .run_program(prog);
    CaseOutcome {
        name: prog.name.clone(),
        hardware,
        hifi,
        lofi,
    }
}

/// What [`generate_for_instruction`] produced for one instruction.
#[derive(Debug)]
pub struct InsnGeneration {
    /// One runnable test program per explored path.
    pub programs: Vec<TestProgram>,
    /// Whether state-space exploration was exhaustive (no path cap, no
    /// deadline trip, no Unknown-pruned branch).
    pub complete: bool,
    /// Solver queries issued.
    pub solver_queries: u64,
    /// Solver queries abandoned as Unknown (budget/fault).
    pub unknown_queries: u64,
    /// Replayed paths whose condition was unsatisfiable at the end.
    pub infeasible_paths: usize,
    /// Wall time of state-space exploration plus test generation.
    pub wall: Duration,
}

/// Generates the test programs for one instruction representative.
///
/// `deadline` bounds this instruction's state-space exploration: past it,
/// paths gathered so far are kept and `complete` comes back `false`.
pub fn generate_for_instruction(
    name: &str,
    insn: &[u8],
    baseline: &Snapshot,
    max_paths: usize,
    deadline: Option<Instant>,
) -> InsnGeneration {
    let (space, explore_d) = trace::timed_with(
        "stage.explore_states",
        || vec![("insn", name.to_owned())],
        || {
            explore_state_space(
                insn,
                baseline,
                StateSpaceConfig {
                    max_paths,
                    deadline,
                    ..StateSpaceConfig::default()
                },
            )
        },
    );
    let (programs, testgen_d) = trace::timed_with(
        "stage.testgen",
        || vec![("insn", name.to_owned())],
        || pokemu_explore::to_test_programs(&space, name),
    );
    InsnGeneration {
        programs,
        complete: space.complete,
        solver_queries: space.solver_queries,
        unknown_queries: space.unknown_queries,
        infeasible_paths: space.infeasible_paths,
        wall: explore_d + testgen_d,
    }
}

/// What one worker produced for one instruction representative.
struct ItemOutcome {
    complete: bool,
    n_paths: usize,
    solver_queries: u64,
    unknown_queries: u64,
    infeasible_paths: usize,
    /// What its `stage.explore_states` + `stage.testgen` spans measured.
    generate: Duration,
    /// What its `stage.execute` span measured.
    execute: Duration,
    /// `(instruction bytes, path id, outcome)` per test program.
    cases: Vec<(Vec<u8>, u64, CaseOutcome)>,
}

/// Lower-case hex of `bytes`, as instruction bytes appear in records.
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Writes the Lo-Fi hot-TB table (top 64 translation blocks by execution
/// count, merged across all `Lofi` instances dropped so far) to
/// `target/trace/<run>.hot.jsonl`, one `{"kind":"hot_tb",...}` object per
/// line in descending-execution order.
fn dump_hot_tbs(run: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = trace::trace_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{run}.hot.jsonl"));
    let mut body = String::new();
    for (eip, execs) in pokemu_lofi::hot_tbs().into_iter().take(64) {
        body.push_str(&format!(
            "{{\"kind\":\"hot_tb\",\"eip\":{eip},\"execs\":{execs}}}\n"
        ));
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Runs the complete cross-validation pipeline.
pub fn run_cross_validation(config: PipelineConfig) -> CrossValidation {
    if config.trace {
        trace::set_enabled(true);
    }
    // Arm the run-artifact layer: a manifest directory to aggregate into,
    // and the flight recorder's panic hook pointed at it, so a crash
    // anywhere below leaves `flightrec-panic.jsonl` next to the manifest.
    let manifest_armed = config.manifest || crate::manifest::env_enabled();
    let run_id = crate::manifest::resolve_run_id();
    if manifest_armed {
        flight::set_dump_dir(crate::manifest::run_dir(&run_id));
    }
    flight::install_panic_hook();
    let run_start = Instant::now();
    let metrics_start = metrics::snapshot();
    // The hot-TB table is process-cumulative; snapshot it so the ledger
    // record carries this run's execution delta only (thread-invariant).
    let history_armed = pokemu_rt::history::enabled();
    let hot_before: std::collections::BTreeMap<u32, u64> = if history_armed {
        pokemu_lofi::hot_tbs().into_iter().collect()
    } else {
        Default::default()
    };
    let run_span = pokemu_rt::span!("pipeline.run");
    let (baseline, _) = trace::timed("pipeline.setup", baseline_snapshot);

    // Step 1: instruction-set exploration (Fig. 1 (1)).
    let (insn_space, explore_insns) = trace::timed("stage.explore_insns", || {
        explore_instruction_space(InsnSpaceConfig {
            first_byte: config.first_byte,
            second_byte: config.second_byte,
            ..InsnSpaceConfig::default()
        })
    });
    let mut reps = insn_space.classes;
    reps.truncate(config.max_instructions);

    let mut out = CrossValidation {
        candidates: insn_space.candidates,
        unique_instructions: reps.len(),
        ..CrossValidation::default()
    };

    // Steps 2-4, parallel over instructions. Each worker writes its result
    // into the slot for its item index — no result lock, no post-hoc sort:
    // slot order *is* the deterministic analysis order, and each slot
    // carries what its item's stage spans measured.
    // A slot can legitimately stay empty: its item panicked (quarantined
    // by the pool) or was never dispatched (run deadline).
    let run_deadline = config.run_deadline.map(|d| run_start + d);
    let results: Vec<OnceLock<ItemOutcome>> = (0..reps.len()).map(|_| OnceLock::new()).collect();
    // This thread's span covers dispatch + wait; each spawned worker's
    // per-item spans start their own stacks and are merged when the pool
    // flushes them. A single worker is this thread, so its spans nest under
    // this one.
    let (pool_run, parallel_wall) = trace::timed("stage.parallel", || {
        pool::for_each_budgeted(config.threads, reps.len(), run_deadline, |i| {
            let rep = &reps[i];
            let name = rep.class.to_string();
            let _insn_span = pokemu_rt::span!("pipeline.instruction", insn = name);
            flight::note("pipeline.instruction", || {
                format!("{name} ({})", hex(&rep.bytes))
            });
            // The per-instruction budget starts when the worker picks the
            // item up; the run deadline caps it so a whole-run timeout is
            // never stuck behind one slow exploration.
            let insn_deadline = match (
                config.insn_deadline.map(|d| Instant::now() + d),
                run_deadline,
            ) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let gen = generate_for_instruction(
                &name,
                &rep.bytes,
                &baseline,
                config.max_paths_per_insn,
                insn_deadline,
            );
            let (cases, execute) = trace::timed_with(
                "stage.execute",
                || vec![("insn", name.clone())],
                || {
                    gen.programs
                        .iter()
                        .map(|p| {
                            let case = run_on_all_targets(p, config.lofi_fidelity);
                            (p.test_insn.clone(), p.path_id, case)
                        })
                        .collect::<Vec<_>>()
                },
            );
            let slot_was_empty = results[i]
                .set(ItemOutcome {
                    complete: gen.complete,
                    n_paths: gen.programs.len(),
                    solver_queries: gen.solver_queries,
                    unknown_queries: gen.unknown_queries,
                    infeasible_paths: gen.infeasible_paths,
                    generate: gen.wall,
                    execute,
                    cases,
                })
                .is_ok();
            assert!(slot_was_empty, "pool delivered item {i} twice");
        })
    });
    out.completed = !pool_run.deadline_hit;
    out.skipped_instructions = pool_run.skipped;
    out.quarantined = pool_run.quarantined.clone();
    if !out.completed {
        flight::note("pipeline.deadline", || {
            format!("skipped {} instructions", pool_run.skipped)
        });
    }

    // Step 5: sequential difference analysis, in item order (instruction
    // classes are sorted by exploration), so counters and clusters are
    // deterministic regardless of worker scheduling.
    let ((), analyze) = trace::timed("stage.analyze", || {
        for slot in results {
            // Quarantined or skipped items have no outcome; their absence
            // is already accounted in `quarantined`/`skipped_instructions`.
            let Some(item) = slot.into_inner() else {
                continue;
            };
            let ItemOutcome {
                complete,
                n_paths,
                solver_queries: queries,
                unknown_queries,
                infeasible_paths,
                generate,
                execute,
                cases,
            } = item;
            out.stages.solver_queries += queries;
            out.stages.generate += generate;
            out.stages.execute += execute;
            out.unknown_queries += unknown_queries;
            out.infeasible_paths += infeasible_paths;
            if complete {
                out.fully_explored += 1;
            }
            out.total_paths += n_paths;
            for (insn, path_id, case) in cases {
                let analysis = analyze_case(&case, &insn, path_id);
                out.lofi_differences += usize::from(analysis.lofi_differs);
                out.hifi_differences += usize::from(analysis.hifi_differs);
                for (target, d) in &analysis.deviations {
                    let (filtered, clusters) = match *target {
                        "lofi" => (&mut out.lofi_filtered, &mut out.lofi_clusters),
                        _ => (&mut out.hifi_filtered, &mut out.hifi_clusters),
                    };
                    *filtered += 1;
                    clusters.add(&case.name, d);
                    record_deviation(&mut out.deviations, target, &case.name, d);
                }
            }
        }
    });
    drop(run_span);

    let delta = metrics::snapshot().since(&metrics_start);
    out.stages = StageStats {
        explore_insns,
        analyze,
        parallel_wall,
        total_wall: run_start.elapsed(),
        workers: pool_run.workers,
        ..out.stages
    };

    // Under POKEMU_TRACE=1, every finished run leaves an openable trace
    // and its own metrics delta behind (overwritten per run, like the bench
    // JSON files), plus the hot-TB table `pokemu-report perf` prints.
    if trace::env_enabled() {
        match trace::export("cross_validation", &delta) {
            Ok(paths) => eprintln!("[trace] exported {}", paths.trace_json.display()),
            Err(e) => eprintln!("[trace] export failed: {e}"),
        }
        match dump_hot_tbs("cross_validation") {
            Ok(path) => eprintln!("[trace] hot TBs {}", path.display()),
            Err(e) => eprintln!("[trace] hot-TB dump failed: {e}"),
        }
    }
    // Under POKEMU_PROF=1, the collapsed-stack profile lands beside it.
    if trace::profile_env_enabled() {
        match prof::export("cross_validation") {
            Ok(path) => eprintln!("[prof] exported {}", path.display()),
            Err(e) => eprintln!("[prof] export failed: {e}"),
        }
    }

    // Run artifacts: the manifest aggregates the whole run, and any
    // comparison deviation also dumps the flight recorder next to it so
    // the last events before each divergence are inspectable post-hoc.
    if manifest_armed {
        // Coverage is reported *cumulatively* (all bits the process has set),
        // not as a since-run-start delta: bitmaps are idempotent, so the
        // cumulative set is deterministic for a fixed binary and config and
        // cannot lose bits when an earlier stage (e.g. a bench warm-up)
        // happens to pre-cover something the pipeline also covers.
        let manifest = crate::manifest::RunManifest::build(
            &run_id,
            &config,
            &out,
            &delta,
            &coverage::snapshot(),
        );
        // Run-artifact writes must never panic a finished run: a full disk
        // at the end of a campaign still leaves the in-memory result and an
        // attributed trail (shard id + OS error) explaining what is missing
        // on disk.
        match manifest.write() {
            Ok(path) => eprintln!("[manifest] wrote {}", path.display()),
            Err(e) => crate::manifest::note_write_failure("manifest write", &e),
        }
        if !out.deviations.is_empty() {
            let path = crate::manifest::run_dir(&run_id).join("flightrec-deviations.jsonl");
            if let Err(e) = flight::dump_to(&path) {
                crate::manifest::note_write_failure("flight dump", &e);
            }
        }
        // Each quarantined item carries the flight snapshot captured at
        // panic time; dump them merged for post-hoc attribution.
        if !out.quarantined.is_empty() {
            let mut events: Vec<flight::FlightEvent> = Vec::new();
            for q in &out.quarantined {
                events.extend(q.flight.iter().cloned());
            }
            events.sort_by_key(|e| e.seq);
            events.dedup();
            let path = crate::manifest::run_dir(&run_id).join("flightrec-quarantine.jsonl");
            if let Err(e) = flight::dump_events_to(&path, &events) {
                crate::manifest::note_write_failure("quarantine dump", &e);
            } else {
                eprintln!("[manifest] quarantine dump {}", path.display());
            }
        }
    }
    // Every finished run leaves one compact record in the run ledger
    // (POKEMU_HISTORY=0 opts out) — the cross-run substrate for
    // `pokemu-report compare/trend` and the CI trend gate.
    if history_armed {
        let hot_delta = crate::ledger::hot_tb_delta(&hot_before, &pokemu_lofi::hot_tbs());
        crate::ledger::append_record(crate::ledger::build_record(
            &run_id,
            &config,
            &out,
            &delta,
            &coverage::snapshot(),
            &hot_delta,
        ));
    }
    out
}

/// Appends one deviation record and leaves a breadcrumb in the flight
/// recorder (the recorder's merged dump is written alongside the manifest
/// whenever a run with deviations finishes).
fn record_deviation(
    deviations: &mut Vec<DeviationRecord>,
    target: &str,
    test: &str,
    d: &Difference,
) {
    flight::note("pipeline.deviation", || {
        format!("{target} {test} insn={} cause={}", hex(&d.insn), d.cause)
    });
    deviations.push(DeviationRecord::new(target, test, d));
}
