//! Regenerates every experiment row in EXPERIMENTS.md (E1-E8, A1): the
//! paper's quantitative claims, measured on this reproduction.
//!
//! ```text
//! POKEMU_SCALE=quick cargo run --release --example regen_experiments
//! POKEMU_SCALE=full  cargo run --release --example regen_experiments
//! ```
//!
//! `quick` (the default) runs each experiment at the configuration
//! EXPERIMENTS.md quotes. `full` widens E1 to the whole first-byte space
//! and E3 (with the E4 clusters it feeds) to every first byte.

use std::collections::BTreeSet;
use std::time::Instant;

use pokemu::explore::{
    explore_instruction_space, explore_state_space, to_test_programs, InsnSpaceConfig,
    StateSpaceConfig,
};
use pokemu::harness::{
    baseline_snapshot, run_cross_validation, run_on_all_targets, run_random_baseline, Clusters,
    PipelineConfig, RandomConfig,
};
use pokemu::isa::translate::descriptor_checks;
use pokemu::isa::Snapshot;
use pokemu::lofi::Fidelity;
use pokemu::symx::Executor;
use pokemu::testgen::TestProgram;
use pokemu_bench::SWEEP_BYTES;

fn main() {
    let scale = std::env::var("POKEMU_SCALE").unwrap_or_else(|_| "quick".into());
    let full = match scale.as_str() {
        "quick" => false,
        "full" => true,
        other => {
            eprintln!("POKEMU_SCALE must be quick or full, not {other:?}");
            std::process::exit(2);
        }
    };
    println!("# PokeEMU-rs experiment regeneration ({scale})");
    println!();
    let baseline = baseline_snapshot();
    e1_insn_exploration(full);
    e2_state_exploration(&baseline);
    e3_cross_validation(full);
    e5_random_vs_lifting();
    e6_cost_breakdown(&baseline);
    e7_summarization(&baseline);
    e8_minimization(&baseline);
    a1_fidelity_ablation();
}

fn state_space_config(max_paths: usize) -> StateSpaceConfig {
    StateSpaceConfig {
        max_paths,
        ..Default::default()
    }
}

fn pipeline_config(first_byte: u8, max_paths_per_insn: usize) -> PipelineConfig {
    PipelineConfig {
        first_byte: Some(first_byte),
        max_paths_per_insn,
        ..PipelineConfig::default()
    }
}

/// The named paper classes among a run's clusters.
fn named_causes(clusters: &Clusters) -> BTreeSet<String> {
    clusters
        .iter()
        .filter(|(c, _, _)| c.is_identified())
        .map(|(c, _, _)| c.to_string())
        .collect()
}

fn e1_insn_exploration(full: bool) {
    println!("## E1: instruction-set exploration (paper: 68,977 candidates -> 880 unique)");
    let t = Instant::now();
    let (label, runs) = if full {
        (
            "full first-byte space",
            vec![explore_instruction_space(InsnSpaceConfig::default())],
        )
    } else {
        // A sample of first bytes across the decode forms.
        let sample = [0x00u8, 0x0f, 0x50, 0x80, 0x8e, 0xc1, 0xc9, 0xd4, 0xf7, 0xff];
        let runs = sample
            .iter()
            .map(|&b| {
                explore_instruction_space(InsnSpaceConfig {
                    first_byte: Some(b),
                    second_byte: None,
                    max_paths: 100_000,
                })
            })
            .collect();
        ("10-first-byte sample", runs)
    };
    let candidates: usize = runs.iter().map(|r| r.candidates).sum();
    let unique: usize = runs.iter().map(|r| r.classes.len()).sum();
    let invalid: usize = runs.iter().map(|r| r.invalid).sum();
    let complete = runs.iter().all(|r| r.complete);
    println!(
        "measured ({label}): {candidates} candidates -> {unique} unique \
         ({invalid} invalid paths, complete={complete}) in {:.1?}",
        t.elapsed()
    );
    println!();
}

fn e2_state_exploration(baseline: &Snapshot) {
    println!("## E2: state-space exploration (paper: 610,516 paths; ~95% of instructions");
    println!("   fully explored under an 8,192-path cap)");
    let insns: &[(&str, &[u8])] = &[
        ("clc", &[0xf8]),
        ("push eax", &[0x50]),
        ("jz rel8", &[0x74, 0x02]),
        ("add eax, imm32", &[0x05, 0, 0, 0, 0]),
        ("div ecx", &[0xf7, 0xf1]),
        ("leave", &[0xc9]),
        ("mov ds, ax", &[0x8e, 0xd8]),
    ];
    println!("instruction    | paths | complete coverage (cap 256)");
    let mut complete = 0;
    for (name, bytes) in insns {
        let s = explore_state_space(bytes, baseline, state_space_config(256));
        println!("{name:14} | {:5} | {}", s.paths.len(), s.complete);
        complete += s.complete as usize;
    }
    println!(
        "complete coverage: {complete}/{} = {:.0}% (paper: ~95%)",
        insns.len(),
        100.0 * complete as f64 / insns.len() as f64
    );
    println!();
}

fn e3_cross_validation(full: bool) {
    println!("## E3: cross-validation vs the hardware oracle (paper: of 610,516 tests,");
    println!("   60,770 differ on QEMU and 15,219 on Bochs, raw)");
    let (sweep, cap) = if full {
        ((0u8..=0xff).collect(), 1024)
    } else {
        (SWEEP_BYTES.to_vec(), 64)
    };
    let t = Instant::now();
    let (mut tests, mut lofi, mut hifi, mut lofi_filt, mut hifi_filt) = (0, 0, 0, 0, 0);
    let mut causes = std::collections::BTreeMap::<String, usize>::new();
    for &byte in &sweep {
        let r = run_cross_validation(pipeline_config(byte, cap));
        tests += r.total_paths;
        lofi += r.lofi_differences;
        hifi += r.hifi_differences;
        lofi_filt += r.lofi_filtered;
        hifi_filt += r.hifi_filtered;
        for (cause, n, _) in r.lofi_clusters.iter() {
            *causes.entry(cause.to_string()).or_default() += n;
        }
    }
    let pct = |n: usize| 100.0 * n as f64 / tests.max(1) as f64;
    if full {
        println!("sweep: every first byte, at most {cap} paths per instruction");
    } else {
        println!("sweep: opcodes {sweep:02x?}, at most {cap} paths per instruction");
    }
    println!(
        "measured: {tests} tests -> lofi {lofi} ({:.1}%) vs hifi {hifi} ({:.1}%) raw \
         differences in {:.1?}",
        pct(lofi),
        pct(hifi),
        t.elapsed()
    );
    println!("after the undefined-behavior filter: lofi {lofi_filt}, hifi {hifi_filt}");
    println!();
    println!("## E4: Lo-Fi root causes of the E3 run (paper section 6.2 classes)");
    for (cause, n) in &causes {
        println!("{n:6}  {cause}");
    }
    println!();
}

fn e5_random_vs_lifting() {
    println!("## E5: random testing vs path-exploration lifting at an equal budget");
    println!("   (paper: random testing misses corner cases, e.g. iret straddling a fault)");
    let mut budget = 0;
    let mut lifted = BTreeSet::new();
    for byte in [0xc9u8, 0xa2, 0xd6] {
        let r = run_cross_validation(pipeline_config(byte, 64));
        budget += r.total_paths;
        lifted.extend(named_causes(&r.lofi_clusters));
    }
    let t = Instant::now();
    let r = run_random_baseline(RandomConfig {
        tests: budget,
        ..Default::default()
    });
    let random = named_causes(&r.lofi_clusters);
    let missed: Vec<&String> = lifted.difference(&random).collect();
    println!("budget: {budget} tests each (lifting: opcodes c9 a2 d6, at most 64 paths)");
    println!("lifting named {} root causes: {lifted:?}", lifted.len());
    println!(
        "random named {} root causes ({} lofi differences, {:.1?}): {random:?}",
        random.len(),
        r.lofi_differences,
        t.elapsed()
    );
    println!("named classes random testing missed: {missed:?}");
    println!();
}

fn e6_cost_breakdown(baseline: &Snapshot) {
    println!("## E6: cost breakdown (paper: generation 545.4 CPU-h dominated by the solver;");
    println!("   execution 48.5-391.9 CPU-h per target; both highly parallel)");
    let t = Instant::now();
    let space = explore_state_space(&[0xf7, 0xf1], baseline, state_space_config(64));
    let gen = t.elapsed();
    let progs = to_test_programs(&space, "e6");
    let t = Instant::now();
    for p in &progs {
        run_on_all_targets(p, Fidelity::QEMU_LIKE);
    }
    let exec = t.elapsed();
    println!(
        "div ecx: {} paths, {} solver queries; generation {gen:.1?}, execution on 3 targets {exec:.1?}",
        space.paths.len(),
        space.solver_queries
    );
    println!(
        "per test: generation {:.2?}, execution {:.2?} (ratio {:.1}; paper: generation dominates)",
        gen / space.paths.len().max(1) as u32,
        exec / progs.len().max(1) as u32,
        gen.as_secs_f64() / exec.as_secs_f64().max(1e-9)
    );
    for threads in [1usize, 2] {
        let cv = run_cross_validation(PipelineConfig {
            threads,
            ..pipeline_config(0x80, 32)
        });
        let s = &cv.stages;
        println!(
            "pipeline (opcode 0x80) with {threads} thread(s): total {:.1?} (explore {:.1?}, \
             generate {:.1?}, execute {:.1?}, analyze {:.1?}; parallel wall {:.1?}; \
             {} solver queries)",
            s.total_wall,
            s.explore_insns,
            s.generate,
            s.execute,
            s.analyze,
            s.parallel_wall,
            s.solver_queries
        );
        for w in &s.workers {
            println!(
                "  worker {}: {} insns, busy {:.1?}",
                w.worker, w.items, w.busy
            );
        }
    }
    println!();
}

fn e7_summarization(baseline: &Snapshot) {
    println!("## E7: descriptor-cache summarization (paper: 23 paths; 23^6 blowup avoided)");
    let mut exec = Executor::new();
    let summary = exec.summarize(
        &[(32, "lo"), (32, "hi"), (16, "sel"), (2, "cpl"), (2, "kind")],
        |e, f| descriptor_checks(e, f[0], f[1], f[2], f[3], f[4]).to_vec(),
    );
    println!(
        "descriptor-load computation: {} paths (paper: 23)",
        summary.cases()
    );
    for (label, use_summaries) in [("with summary", true), ("without summary", false)] {
        let t = Instant::now();
        let s = explore_state_space(
            &[0x8e, 0xd8],
            baseline,
            StateSpaceConfig {
                use_summaries,
                ..state_space_config(384)
            },
        );
        println!(
            "mov ds, ax {label:15}: {} paths, complete={}, {} solver queries, {:.1?}",
            s.paths.len(),
            s.complete,
            s.solver_queries,
            t.elapsed()
        );
    }
    println!();
}

fn e8_minimization(baseline: &Snapshot) {
    println!("## E8: state-difference minimization (paper: no initializer-generation failures)");
    let (mut before, mut after, mut ok, mut failed) = (0, 0, 0, 0);
    for insn in [
        vec![0xc9u8],
        vec![0x74, 0x02],
        vec![0xf7, 0xf1],
        vec![0x8e, 0xd8],
    ] {
        let s = explore_state_space(&insn, baseline, state_space_config(128));
        for p in &s.paths {
            before += p.minimize.bits_before;
            after += p.minimize.bits_after;
            match TestProgram::build("e8".into(), p.state.clone(), &insn) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
    }
    println!(
        "bits differing from baseline: {before} before -> {after} after minimization \
         ({:.1}% kept)",
        100.0 * after as f64 / before.max(1) as f64
    );
    println!("initializer generation: {ok} ok, {failed} failures (paper: none fail)");
    println!();
}

fn a1_fidelity_ablation() {
    println!("## A1: fidelity ablation: each Lo-Fi fix eliminates its cluster");
    let rows: &[(&str, u8, Fidelity)] = &[
        (
            "atomic leave",
            0xc9,
            Fidelity {
                atomic_leave: true,
                ..Fidelity::QEMU_LIKE
            },
        ),
        (
            "segment checks",
            0xa2,
            Fidelity {
                enforce_segment_checks: true,
                ..Fidelity::QEMU_LIKE
            },
        ),
        (
            "encodings",
            0xd6,
            Fidelity {
                accept_undocumented: true,
                ..Fidelity::QEMU_LIKE
            },
        ),
    ];
    for &(label, byte, fixed) in rows {
        for (when, fid) in [("before", Fidelity::QEMU_LIKE), ("after", fixed)] {
            let r = run_cross_validation(PipelineConfig {
                lofi_fidelity: fid,
                ..pipeline_config(byte, 48)
            });
            let causes: Vec<String> = r
                .lofi_clusters
                .iter()
                .map(|(c, n, _)| format!("{c} x{n}"))
                .collect();
            println!(
                "{label:14} opcode {byte:#04x} {when:6}: {} filtered diffs [{}]",
                r.lofi_filtered,
                causes.join("; ")
            );
        }
    }
    println!();
}
