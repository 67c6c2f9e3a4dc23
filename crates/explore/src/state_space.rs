//! Machine-state-space exploration (paper §3.3) and test-state extraction.
//!
//! For one test instruction, symbolically executes the Hi-Fi emulator's
//! implementation from the symbolic machine state of Figure 3, one path per
//! distinct behavior. Each path's solver model is minimized against the
//! baseline (§3.4) and converted into a [`pokemu_testgen::TestState`] — the
//! exact list of initializer gadgets needed to retrigger that path at run
//! time.

use pokemu_isa::interp::{self, Quirks, StepOutcome};
use pokemu_isa::snapshot::Snapshot;
use pokemu_isa::state::{Gpr, Machine, Seg};
use pokemu_isa::translate::{descriptor_checks, DESC_SUMMARY_KEY};
use pokemu_isa::Memory;
use pokemu_rt::metrics;
use pokemu_solver::TermId;
use pokemu_symx::{minimize, Dom, Executor, ExploreConfig, MinimizeStats};
use pokemu_testgen::{layout, ChainSegment, TestProgram, TestState};

/// Hex rendering of instruction bytes for span attributes and reports.
pub(crate) fn insn_hex(insn: &[u8]) -> String {
    insn.iter().map(|b| format!("{b:02x}")).collect()
}

use crate::symstate;

/// How a path through the instruction implementation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathEnd {
    /// The instruction retired normally.
    Retired,
    /// The CPU halted.
    Halted,
    /// An exception with this vector was raised.
    Exception(u8),
    /// The instruction bytes failed to decode (should not happen for
    /// representatives from instruction-space exploration).
    DecodeFault(u8),
}

/// One explored path, with its extracted test state.
#[derive(Debug, Clone)]
pub struct PathTest {
    /// How the Hi-Fi emulator's path ended.
    pub end: PathEnd,
    /// The minimized machine-state difference that triggers the path.
    pub state: TestState,
    /// Number of branch conditions on the path.
    pub pc_len: usize,
    /// The engine's deterministic path-decision hash (see
    /// [`pokemu_symx::PathOutcome::path_id`]); carried through to test
    /// programs so deviations can name the exact explored path.
    pub path_id: u64,
    /// Names of the symbolic state components this path's instruction
    /// wrote (`"eax"`, `"eflags"`, `"sel_ds"`, `"mem"`, ...), detected by
    /// comparing the machine's term ids before and after symbolic
    /// execution. The program chainer uses this final-state export to know
    /// which constraints of the *next* path must be re-established.
    pub clobbers: Vec<String>,
    /// Minimization statistics (E8).
    pub minimize: MinimizeStats,
}

/// Exploration result for one instruction.
#[derive(Debug)]
pub struct StateSpace {
    /// The instruction bytes explored.
    pub insn: Vec<u8>,
    /// One entry per explored path.
    pub paths: Vec<PathTest>,
    /// Complete path coverage achieved (the 95% criterion of §6.1).
    pub complete: bool,
    /// Engine statistics.
    pub solver_queries: u64,
    /// Solver queries abandoned as Unknown (budget exhausted or fault
    /// injected); nonzero implies `complete == false`.
    pub unknown_queries: u64,
    /// Replayed paths whose condition was unsatisfiable at the end (demoted
    /// from a panic; see `ExploreStats::infeasible_paths`).
    pub infeasible_paths: usize,
}

/// Configuration for state-space exploration.
#[derive(Debug, Clone, Copy)]
pub struct StateSpaceConfig {
    /// Per-instruction path cap (8192 in the paper, §6.1).
    pub max_paths: usize,
    /// Use the descriptor-load summary (§3.3.2). Disabled by the E7
    /// ablation to measure the blowup it prevents.
    pub use_summaries: bool,
    /// Skip state-difference minimization (E8 ablation).
    pub minimize: bool,
    /// Wall-clock deadline for this instruction's exploration; past it the
    /// engine stops starting paths and reports `complete = false`.
    pub deadline: Option<std::time::Instant>,
}

impl Default for StateSpaceConfig {
    fn default() -> Self {
        StateSpaceConfig {
            max_paths: 8192,
            use_summaries: true,
            minimize: true,
            deadline: None,
        }
    }
}

/// Term-id snapshot of the symbolic machine taken between decode and
/// execution. Because the executor interns terms structurally, a component
/// whose term id changed was written by the instruction (possibly with an
/// equal concrete value — the export is deliberately conservative: a false
/// "clobbered" only costs the chainer a redundant re-establishing gadget).
struct MachineProbe {
    gpr: [TermId; 8],
    eflags: TermId,
    segs: [(TermId, TermId, TermId, TermId); 6],
    cr0: TermId,
    cr3_flags: TermId,
    cr4: TermId,
    gdtr_limit: TermId,
    idtr_limit: TermId,
    msrs: [TermId; 3],
    mem: Memory<TermId>,
}

impl MachineProbe {
    fn of(m: &Machine<TermId>) -> MachineProbe {
        MachineProbe {
            gpr: m.gpr,
            eflags: m.eflags,
            segs: std::array::from_fn(|i| {
                let s = &m.segs[i];
                (s.selector, s.cache.base, s.cache.limit, s.cache.attrs)
            }),
            cr0: m.cr0,
            cr3_flags: m.cr3_flags,
            cr4: m.cr4,
            gdtr_limit: m.gdtr.limit,
            idtr_limit: m.idtr.limit,
            msrs: [m.msrs.sysenter_cs, m.msrs.sysenter_esp, m.msrs.sysenter_eip],
            mem: m.mem.clone(),
        }
    }

    /// The components whose term ids the execution changed, under the same
    /// names `symstate` gives the symbolic inputs. Memory is reported as
    /// one collective `"mem"` entry (the chainer accumulates memory rather
    /// than restoring individual bytes). The order is fixed, so the export
    /// is deterministic.
    fn clobbers_of(&self, m: &Machine<TermId>) -> Vec<String> {
        let mut out = Vec::new();
        for r in Gpr::ALL {
            if m.gpr[r as usize] != self.gpr[r as usize] {
                out.push(r.name().to_owned());
            }
        }
        if m.eflags != self.eflags {
            out.push("eflags".to_owned());
        }
        for seg in Seg::ALL {
            let s = &m.segs[seg as usize];
            if (s.selector, s.cache.base, s.cache.limit, s.cache.attrs) != self.segs[seg as usize] {
                out.push(format!("sel_{}", seg.name()));
            }
        }
        for (id, before, name) in [
            (m.cr0, self.cr0, "cr0"),
            (m.cr3_flags, self.cr3_flags, "cr3_flags"),
            (m.cr4, self.cr4, "cr4"),
            (m.gdtr.limit, self.gdtr_limit, "gdtr_limit"),
            (m.idtr.limit, self.idtr_limit, "idtr_limit"),
            (m.msrs.sysenter_cs, self.msrs[0], "msr_sysenter_cs"),
            (m.msrs.sysenter_esp, self.msrs[1], "msr_sysenter_esp"),
            (m.msrs.sysenter_eip, self.msrs[2], "msr_sysenter_eip"),
        ] {
            if id != before {
                out.push(name.to_owned());
            }
        }
        // A byte whose term changed was written; a byte *appearing* was
        // merely materialized by an on-demand read, which also lands here —
        // acceptable, since "mem" only documents that memory effects may
        // have accumulated.
        if m.mem != self.mem {
            out.push("mem".to_owned());
        }
        out
    }
}

/// Explores the machine-state space of one instruction on the Hi-Fi
/// emulator's semantics.
pub fn explore_state_space(
    insn: &[u8],
    baseline: &Snapshot,
    config: StateSpaceConfig,
) -> StateSpace {
    let _span = pokemu_rt::span!("explore.state_space", insn = insn_hex(insn));
    // Solver queries issued anywhere below carry this instruction's hex in
    // their provenance (flight notes, slow-query attribution).
    let _insn_ctx = pokemu_solver::origin::insn_scoped(insn_hex(insn));
    // Path-end models that violate their own path condition: a blaster or
    // SAT-core bug surfacing in production. Resolved up front so the run
    // manifest lists the counter even at 0.
    let model_invalid = metrics::counter("solver.model_invalid");
    let mut exec = Executor::with_config(ExploreConfig {
        max_paths: config.max_paths,
        deadline: config.deadline,
        ..ExploreConfig::default()
    });

    if config.use_summaries {
        // A summary that cannot be folded exhaustively (starved solver,
        // expired deadline) is skipped, not fatal: exploration falls back
        // to executing the real descriptor-check code on every path.
        match exec.try_summarize(
            &[(32, "lo"), (32, "hi"), (16, "sel"), (2, "cpl"), (2, "kind")],
            |e, f| descriptor_checks(e, f[0], f[1], f[2], f[3], f[4]).to_vec(),
        ) {
            Some(summary) => exec.register_summary(DESC_SUMMARY_KEY, summary),
            None => metrics::counter("explore.summary_skipped").inc(),
        }
    }

    let mem_template = {
        // Build inside a throwaway exploration so on-demand variables exist
        // consistently; the template itself is deterministic.
        let _span = pokemu_rt::span!("explore.mem_template");
        symstate::symbolic_memory_template(&mut exec, baseline)
    };

    let insn_owned: Vec<u8> = insn.to_vec();
    let quirks = Quirks::HIFI;
    let result = exec.explore(|e| {
        let mut m = {
            let _span = pokemu_rt::span!("explore.symbolic_machine");
            symstate::symbolic_machine(e, baseline, &mem_template)
        };
        // Decode from the concrete test bytes — exploration starts after
        // fetch/decode (§3.4).
        let decoded = pokemu_isa::decode(e, |d, i| {
            Ok(d.constant(8, *insn_owned.get(i as usize).unwrap_or(&0) as u64))
        });
        let inst = match decoded {
            Ok(i) => i,
            Err(fault) => return (PathEnd::DecodeFault(fault.vector()), Vec::new()),
        };
        let before = {
            let _span = pokemu_rt::span!("explore.clobbers");
            MachineProbe::of(&m)
        };
        let end = match interp::execute_decoded(e, &mut m, &quirks, &inst, layout::CODE_BASE) {
            StepOutcome::Normal => PathEnd::Retired,
            StepOutcome::Halt => PathEnd::Halted,
            StepOutcome::Exception(ex) => PathEnd::Exception(ex.vector()),
        };
        let _span = pokemu_rt::span!("explore.clobbers");
        (end, before.clobbers_of(&m))
    });

    let env = symstate::baseline_env(&exec, baseline);
    let named_vars = exec.named_vars();
    let mut paths = Vec::with_capacity(result.paths.len());
    for p in &result.paths {
        let (model, mstats) = if config.minimize {
            let _span = pokemu_rt::span!("explore.minimize");
            let _o = pokemu_solver::origin::scoped("minimize");
            pokemu_solver::origin::set_path_id(p.path_id);
            minimize(exec.pool(), &p.path_condition, &p.model, &env)
        } else {
            (p.model.clone(), MinimizeStats::default())
        };
        if mstats.invalid_model {
            model_invalid.inc();
            pokemu_rt::flight::note("explore.invalid_model", || {
                format!("insn={} path={:016x}", insn_hex(insn), p.path_id)
            });
        }
        // Extract the state difference as gadget items.
        let mut items = Vec::new();
        for (name, var) in &named_vars {
            let Some(val) = model.value(*var) else {
                continue;
            };
            let base = symstate::baseline_value_of(name, baseline);
            if val != base {
                if let Some(item) = symstate::state_item_of(name, val) {
                    items.push(item);
                }
            }
        }
        paths.push(PathTest {
            end: p.value.0,
            state: TestState { items },
            pc_len: p.path_condition.len(),
            path_id: p.path_id,
            clobbers: p.value.1.clone(),
            minimize: mstats,
        });
    }
    // Per-instruction exploration accounting (`explore.` namespace): how
    // many instructions were explored, how many paths each one produced,
    // and whether coverage was exhaustive (the §6.1 completeness criterion).
    metrics::counter("explore.insns").inc();
    metrics::counter("explore.paths").add(paths.len() as u64);
    metrics::histogram("paths.per_insn").record(paths.len() as u64);
    if result.complete {
        metrics::counter("explore.complete").inc();
    } else {
        metrics::counter("explore.incomplete").inc();
    }
    let estats = exec.stats();
    StateSpace {
        insn: insn.to_vec(),
        paths,
        complete: result.complete,
        solver_queries: estats.solver_queries,
        unknown_queries: estats.unknown,
        infeasible_paths: estats.infeasible_paths,
    }
}

/// Converts a state-space exploration into runnable test programs
/// (paper §4: one test program per explored path).
pub fn to_test_programs(space: &StateSpace, name_prefix: &str) -> Vec<TestProgram> {
    space
        .paths
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            TestProgram::build(
                format!("{name_prefix}/path{i}"),
                p.state.clone(),
                &space.insn,
            )
            .ok()
            .map(|mut prog| {
                prog.path_id = p.path_id;
                prog
            })
        })
        .collect()
}

/// Converts explored paths into chainable segments for
/// [`pokemu_testgen::TestProgram::chain`], named `{prefix}/path{i}` to
/// mirror [`to_test_programs`]. Indices align with [`StateSpace::paths`],
/// so callers can pick segments by [`PathEnd`].
pub fn to_chain_segments(space: &StateSpace, name_prefix: &str) -> Vec<ChainSegment> {
    space
        .paths
        .iter()
        .enumerate()
        .map(|(i, p)| ChainSegment {
            name: format!("{name_prefix}/path{i}"),
            insn: space.insn.clone(),
            state: p.state.clone(),
            path_id: p.path_id,
            clobbers: p.clobbers.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_snapshot;

    fn small_config() -> StateSpaceConfig {
        StateSpaceConfig {
            max_paths: 512,
            use_summaries: true,
            minimize: true,
            deadline: None,
        }
    }

    #[test]
    fn clc_is_a_single_path() {
        // clc (F8) touches only CF: no symbolic branches at all.
        let baseline = baseline_snapshot();
        let space = explore_state_space(&[0xf8], &baseline, small_config());
        assert!(space.complete);
        assert_eq!(space.paths.len(), 1);
        assert_eq!(space.paths[0].end, PathEnd::Retired);
        // The minimized test state should be (near) empty: nothing is
        // constrained.
        assert!(
            space.paths[0].state.items.is_empty(),
            "{:?}",
            space.paths[0].state
        );
    }

    #[test]
    fn conditional_jump_has_two_flag_paths() {
        // jz +2 (74 02): branches on ZF only.
        let baseline = baseline_snapshot();
        let space = explore_state_space(&[0x74, 0x02], &baseline, small_config());
        assert!(space.complete);
        assert_eq!(space.paths.len(), 2);
        // One path must constrain EFLAGS away from the baseline (ZF set).
        let constrained: Vec<_> = space
            .paths
            .iter()
            .filter(|p| !p.state.items.is_empty())
            .collect();
        assert_eq!(constrained.len(), 1, "{:?}", space.paths);
    }

    #[test]
    fn clobber_export_names_written_components() {
        let baseline = baseline_snapshot();

        // clc (F8) rewrites EFLAGS and nothing else.
        let space = explore_state_space(&[0xf8], &baseline, small_config());
        assert_eq!(space.paths[0].clobbers, vec!["eflags".to_owned()]);

        // pop eax (58) writes EAX and ESP; the stack read materializes
        // memory terms, so "mem" may also appear — but no other register.
        // Fault paths legitimately report nothing written, so look at the
        // retired path.
        let space = explore_state_space(&[0x58], &baseline, small_config());
        let p = space
            .paths
            .iter()
            .find(|p| p.end == PathEnd::Retired)
            .expect("pop eax retires on some path");
        let c = &p.clobbers;
        assert!(c.contains(&"eax".to_owned()), "{c:?}");
        assert!(c.contains(&"esp".to_owned()), "{c:?}");
        assert!(!c.contains(&"ebx".to_owned()), "{c:?}");
        assert!(!c.contains(&"eflags".to_owned()), "{c:?}");
    }

    #[test]
    fn chain_segments_mirror_paths() {
        let baseline = baseline_snapshot();
        let space = explore_state_space(&[0x74, 0x02], &baseline, small_config());
        let segs = to_chain_segments(&space, "jz");
        assert_eq!(segs.len(), space.paths.len());
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.name, format!("jz/path{i}"));
            assert_eq!(s.insn, space.insn);
            assert_eq!(s.path_id, space.paths[i].path_id);
        }
    }

    #[test]
    fn div_explores_fault_and_success() {
        // div ecx (F7 F1): divide-by-zero, overflow, and success paths.
        let baseline = baseline_snapshot();
        let space = explore_state_space(&[0xf7, 0xf1], &baseline, small_config());
        assert!(space.complete);
        let ends: std::collections::HashSet<_> = space.paths.iter().map(|p| p.end).collect();
        assert!(
            ends.contains(&PathEnd::Exception(0)),
            "divide error explored: {ends:?}"
        );
        assert!(
            ends.contains(&PathEnd::Retired),
            "success explored: {ends:?}"
        );
        // A divide-by-zero path exists; ECX is zero at baseline already, so
        // its minimized test state needs few items.
        let de = space
            .paths
            .iter()
            .filter(|p| p.end == PathEnd::Exception(0))
            .min_by_key(|p| p.state.items.len())
            .expect("divide-by-zero path");
        assert!(de.state.items.len() <= 1, "{:?}", de.state);
    }
}
