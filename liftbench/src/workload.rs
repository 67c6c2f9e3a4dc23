//! The three workloads. Each is a closed loop in one process on one worker
//! thread: [`set_up`] builds its inputs, [`repetition`] runs them once
//! through the public entry point users call, and [`lift`] runs the same
//! work layer by layer for the trace and the reach oracle.

use std::time::{Duration, Instant};

use pokemu::explore::{
    explore_instruction_space, explore_state_space, to_test_programs, InsnSpaceConfig,
    StateSpaceConfig,
};
use pokemu::harness::conformance::CONFORMANCE_FIDELITY;
use pokemu::harness::{
    baseline_snapshot, build_corpus, compare, run_conformance, run_cross_validation,
    DeviationRecord, HardwareTarget, HiFiTarget, LofiTarget, PipelineConfig, ProgramResult, Target,
};
use pokemu::isa::snapshot::{Outcome, Snapshot};
use pokemu::lofi::Fidelity;
use pokemu::testgen::{fnv1a, TestProgram};
use pokemu_rt::span;

use crate::draw::twobyte_draw;
use crate::hex;

/// The Lo-Fi profile the sweeps test: the pipeline's default, the paper's
/// QEMU configuration.
const SWEEP_FIDELITY: Fidelity = Fidelity::QEMU_LIKE;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E3 four-opcode sweep (`pokemu_bench::SWEEP_BYTES`), at most 64
    /// paths per instruction: deep, solver-bound.
    E3Sweep,
    /// A seeded draw of about half the second bytes of `0x0f`, at most 8
    /// paths per instruction: broad and shallow, harness-bound.
    TwobyteSweep,
    /// The committed conformance corpus of chained programs: long chained
    /// code, no solver calls in the timed part.
    ChainCorpus,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::E3Sweep,
        Workload::TwobyteSweep,
        Workload::ChainCorpus,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E3Sweep => "e3_sweep",
            Workload::TwobyteSweep => "twobyte_sweep",
            Workload::ChainCorpus => "chain_corpus",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One sweep: a `run_cross_validation` call per `(first byte, second
/// byte)`, each capped at `max_paths` paths per instruction.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The opcode bytes of each pipeline call.
    pub calls: Vec<(u8, Option<u8>)>,
    /// Per-instruction path cap.
    pub max_paths: usize,
}

/// A workload's inputs, fixed by [`set_up`].
#[derive(Debug)]
pub enum Plan {
    /// Pipeline calls.
    Sweep(Sweep),
    /// The conformance corpus.
    Chain(Vec<TestProgram>),
}

fn pipeline_config(first: u8, second: Option<u8>, max_paths: usize) -> PipelineConfig {
    PipelineConfig {
        first_byte: Some(first),
        second_byte: second,
        max_instructions: usize::MAX,
        max_paths_per_insn: max_paths,
        lofi_fidelity: SWEEP_FIDELITY,
        threads: 1,
        trace: false,
        manifest: false,
        run_deadline: None,
        insn_deadline: None,
    }
}

/// The opcode bytes of a pipeline call in hex (`0f00`, or `50`).
pub fn call_hex(first: u8, second: Option<u8>) -> String {
    hex(&[Some(first), second]
        .into_iter()
        .flatten()
        .collect::<Vec<u8>>())
}

fn insn_space(first: u8, second: Option<u8>) -> pokemu::explore::InsnSpace {
    explore_instruction_space(InsnSpaceConfig {
        first_byte: Some(first),
        second_byte: second,
        ..InsnSpaceConfig::default()
    })
}

/// Builds a workload's inputs from `seed` and warms the program up with
/// the first pipeline call (or corpus program) it will time. Everything
/// here counts as set-up time.
pub fn set_up(workload: Workload, seed: u64) -> Plan {
    let plan = match workload {
        Workload::E3Sweep => Plan::Sweep(Sweep {
            calls: pokemu_bench::SWEEP_BYTES
                .iter()
                .map(|&b| (b, None))
                .collect(),
            max_paths: 64,
        }),
        // Only drawn bytes that decode get a pipeline call.
        Workload::TwobyteSweep => Plan::Sweep(Sweep {
            calls: twobyte_draw(seed)
                .into_iter()
                .filter(|&b| !insn_space(0x0f, Some(b)).classes.is_empty())
                .map(|b| (0x0f, Some(b)))
                .collect(),
            max_paths: 8,
        }),
        Workload::ChainCorpus => Plan::Chain(build_corpus()),
    };
    match &plan {
        Plan::Sweep(s) => {
            let (first, second) = s.calls[0];
            run_cross_validation(pipeline_config(first, second, s.max_paths));
        }
        Plan::Chain(corpus) => {
            run_conformance(&corpus[..1], 1);
        }
    }
    plan
}

/// A run's deterministic outputs: identical in every repetition and in the
/// layer-by-layer run, or the run fails its check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outputs {
    /// Lifted tests (sweeps) or chained programs (corpus) run.
    pub tests: usize,
    /// Tests whose raw Lo-Fi and Hi-Fi snapshots differ from the hardware
    /// oracle, before the undefined-behaviour filter (sweeps only).
    pub raw_differences: [usize; 2],
    /// Every filtered deviation, in analysis order, as
    /// `target test path-id cause [components]`.
    pub deviations: Vec<String>,
}

impl Outputs {
    fn push(&mut self, d: &DeviationRecord) {
        self.deviations.push(format!(
            "{} {} {:016x} {} [{}]",
            d.target,
            d.test,
            d.path_id,
            d.cause,
            d.components.join(",")
        ));
    }

    /// Filtered deviations of one target (`"lofi"` or `"hifi"`).
    pub fn deviation_count(&self, target: &str) -> usize {
        self.deviations
            .iter()
            .filter(|d| d.split(' ').next() == Some(target))
            .count()
    }
}

/// One untraced repetition through the public entry point.
#[derive(Debug)]
pub struct Rep {
    /// Wall time of the entry-point calls.
    pub wall: Duration,
    /// What they produced.
    pub outputs: Outputs,
    /// Items the entry point quarantined or never dispatched.
    pub lost_items: usize,
    /// Per-program results, for `check_conformance` (corpus only).
    pub results: Vec<ProgramResult>,
}

/// Runs the workload once: `run_cross_validation` per sweep call, or
/// `run_conformance` over the corpus, on one worker thread.
pub fn repetition(plan: &Plan) -> Rep {
    let mut outputs = Outputs::default();
    match plan {
        Plan::Sweep(s) => {
            let t = Instant::now();
            let runs: Vec<_> = s
                .calls
                .iter()
                .map(|&(first, second)| {
                    run_cross_validation(pipeline_config(first, second, s.max_paths))
                })
                .collect();
            let wall = t.elapsed();
            let mut lost_items = 0;
            for cv in &runs {
                outputs.tests += cv.total_paths;
                outputs.raw_differences[0] += cv.lofi_differences;
                outputs.raw_differences[1] += cv.hifi_differences;
                cv.deviations.iter().for_each(|d| outputs.push(d));
                lost_items += cv.quarantined.len() + cv.skipped_instructions;
            }
            Rep {
                wall,
                outputs,
                lost_items,
                results: Vec::new(),
            }
        }
        Plan::Chain(corpus) => {
            let t = Instant::now();
            let run = run_conformance(corpus, 1);
            let wall = t.elapsed();
            outputs.tests = run.results.len();
            for r in &run.results {
                r.deviations.iter().for_each(|d| outputs.push(d));
            }
            Rep {
                wall,
                outputs,
                lost_items: run.quarantined.len(),
                results: run.results,
            }
        }
    }
}

/// What the layer-by-layer run produced.
#[derive(Debug, Default)]
pub struct Lift {
    /// The outputs a repetition must also produce (only `tests` when the
    /// programs were not executed).
    pub outputs: Outputs,
    /// Every lifted test, for the reach oracle (sweeps only).
    pub programs: Vec<TestProgram>,
    /// Paths state-space exploration returned (sweeps only).
    pub explored: usize,
    /// Explored paths that produced no program (sweeps only).
    pub dropped: usize,
    /// Target runs that used up the step budget.
    pub timeouts: usize,
    /// Per-program results, for `check_conformance` (corpus only).
    pub results: Vec<ProgramResult>,
    /// Wall time of the work a repetition also does: everything for a
    /// sweep, the corpus pass without its rebuild for the corpus.
    pub pass_wall: Duration,
}

/// Runs the workload layer by layer through each layer's public functions,
/// in the order the pipeline calls them, with a `bench.<layer>...` span
/// tagged with the instruction hex (and path id) around each call. Spans
/// record only while tracing is on.
///
/// With `execute` false a sweep stops after test generation: that is all
/// the reach oracle needs. The corpus is always rebuilt (under an explore
/// span, showing what its set-up costs) and executed.
pub fn lift(plan: &Plan, execute: bool) -> Lift {
    match plan {
        Plan::Sweep(s) => lift_sweep(s, execute),
        Plan::Chain(_) => lift_chain(),
    }
}

fn lift_sweep(s: &Sweep, execute: bool) -> Lift {
    let start = Instant::now();
    let mut lift = Lift::default();
    for &(first, second) in &s.calls {
        let call = call_hex(first, second);
        let baseline = {
            let _s = span!("bench.target.baseline", insn = call);
            baseline_snapshot()
        };
        let space = {
            let _s = span!("bench.explore.insn_space", insn = call);
            insn_space(first, second)
        };
        let mut cases = Vec::new();
        for rep in &space.classes {
            let name = rep.class.to_string();
            let insn = hex(&rep.bytes);
            let states = {
                let _s = span!("bench.explore.state_space", insn = insn);
                explore_state_space(
                    &rep.bytes,
                    &baseline,
                    StateSpaceConfig {
                        max_paths: s.max_paths,
                        ..StateSpaceConfig::default()
                    },
                )
            };
            let programs = {
                let _s = span!("bench.testgen", insn = insn);
                to_test_programs(&states, &name)
            };
            lift.explored += states.paths.len();
            lift.dropped += states.paths.len() - programs.len();
            let first_new = lift.programs.len();
            lift.programs.extend(programs);
            if execute {
                for i in first_new..lift.programs.len() {
                    let snaps = run_targets(&lift.programs[i], SWEEP_FIDELITY, &mut lift.timeouts);
                    cases.push((i, snaps));
                }
            }
        }
        // Analysis follows execution of the whole call, in item order, as
        // in the pipeline.
        for (i, [hardware, hifi, lofi]) in cases {
            let p = &lift.programs[i];
            let _s = span!("bench.analyze", insn = hex(&p.test_insn), path = p.path_id);
            let out = &mut lift.outputs;
            out.raw_differences[0] += usize::from(!hardware.same_behavior(&lofi));
            out.raw_differences[1] += usize::from(!hardware.same_behavior(&hifi));
            for d in deviations(p, &hardware, &lofi, &hifi) {
                out.push(&d);
            }
            drop((hardware, hifi, lofi));
        }
    }
    lift.outputs.tests = lift.programs.len();
    lift.pass_wall = start.elapsed();
    lift
}

fn lift_chain() -> Lift {
    let mut lift = Lift::default();
    let corpus = {
        let _s = span!("bench.explore.build_corpus");
        build_corpus()
    };
    let start = Instant::now();
    for prog in &corpus {
        let [hardware, hifi, lofi] = run_targets(prog, CONFORMANCE_FIDELITY, &mut lift.timeouts);
        let _s = span!(
            "bench.analyze",
            insn = hex(&prog.test_insn),
            path = prog.path_id
        );
        let deviations = deviations(prog, &hardware, &lofi, &hifi);
        deviations.iter().for_each(|d| lift.outputs.push(d));
        lift.results.push(ProgramResult {
            name: prog.name.clone(),
            path_id: prog.path_id,
            code_len: prog.code.len(),
            code_fnv: fnv1a(&prog.code),
            segments: prog.segments.clone(),
            deviations,
        });
        drop((hardware, hifi, lofi));
    }
    lift.pass_wall = start.elapsed();
    lift.outputs.tests = corpus.len();
    lift
}

/// Runs one program on the three targets, hardware first, as the pipeline
/// does, counting runs that used up the step budget.
fn run_targets(p: &TestProgram, fidelity: Fidelity, timeouts: &mut usize) -> [Snapshot; 3] {
    let insn = hex(&p.test_insn);
    let hardware = {
        let _s = span!("bench.target.hardware", insn = insn, path = p.path_id);
        HardwareTarget.run_program(p)
    };
    let hifi = {
        let _s = span!("bench.target.hifi", insn = insn, path = p.path_id);
        HiFiTarget.run_program(p)
    };
    let lofi = {
        let _s = span!("bench.target.lofi", insn = insn, path = p.path_id);
        LofiTarget { fidelity }.run_program(p)
    };
    let snaps = [hardware, hifi, lofi];
    *timeouts += snaps
        .iter()
        .filter(|s| s.outcome == Outcome::Timeout)
        .count();
    snaps
}

/// The filtered Lo-Fi then Hi-Fi deviations of one program, in the
/// manifest's record form.
fn deviations(
    p: &TestProgram,
    hardware: &Snapshot,
    lofi: &Snapshot,
    hifi: &Snapshot,
) -> Vec<DeviationRecord> {
    [("lofi", lofi), ("hifi", hifi)]
        .into_iter()
        .filter_map(|(target, snap)| {
            compare(hardware, snap, &p.test_insn).map(|d| DeviationRecord {
                target: target.to_owned(),
                test: p.name.clone(),
                insn_hex: hex(&d.insn),
                path_id: p.path_id,
                cause: d.cause.to_string(),
                components: d.components,
            })
        })
        .collect()
}
