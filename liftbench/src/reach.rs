//! The reach oracle, measured from outside the pipeline: does a lifted
//! test actually execute the instruction it was lifted for?
//!
//! A test whose state initializer faults on Hi-Fi never reaches its test
//! instruction, yet all three targets fault alike and report "no
//! deviation": the explored path is silently never tested. The oracle boots
//! a Hi-Fi exactly as the harness targets do and single-steps it until EIP
//! equals the test instruction's address.

use pokemu::harness::targets::{apply_boot, STEP_BUDGET};
use pokemu::hifi::HiFi;
use pokemu::isa::interp::StepOutcome;
use pokemu::testgen::{layout, TestProgram};

/// Steps `prog` on a booted Hi-Fi and reports, for each code offset,
/// whether EIP reached `CODE_BASE + offset` before the run halted, raised
/// an exception or used up [`STEP_BUDGET`].
pub fn reached(prog: &TestProgram, offsets: &[u32]) -> Vec<bool> {
    let mut emu = HiFi::new();
    {
        let (d, m) = emu.parts_mut();
        apply_boot(d, m);
    }
    emu.load_image(layout::CODE_BASE, &prog.code);
    let targets: Vec<u32> = offsets.iter().map(|o| layout::CODE_BASE + o).collect();
    let mut hit = vec![false; targets.len()];
    for _ in 0..STEP_BUDGET {
        let eip = emu.machine().eip;
        for (h, &t) in hit.iter_mut().zip(&targets) {
            *h |= eip == t;
        }
        if hit.iter().all(|&h| h) || emu.step() != StepOutcome::Normal {
            break;
        }
    }
    hit
}

/// Single-instruction tests that never execute their test instruction.
pub fn unreached_tests(progs: &[TestProgram]) -> usize {
    progs
        .iter()
        .filter(|p| !reached(p, &[p.test_insn_offset])[0])
        .count()
}

/// Chain segments, over all `progs`, whose instruction never executes.
pub fn unreached_segments(progs: &[TestProgram]) -> usize {
    progs
        .iter()
        .map(|p| {
            let offsets: Vec<u32> = p.segments.iter().map(|s| s.insn_offset).collect();
            reached(p, &offsets).iter().filter(|&&h| !h).count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pokemu::explore::{explore_state_space, to_test_programs, StateSpaceConfig};
    use pokemu::harness::baseline_snapshot;

    fn programs(insn: &[u8], max_paths: usize) -> Vec<TestProgram> {
        let space = explore_state_space(
            insn,
            &baseline_snapshot(),
            StateSpaceConfig {
                max_paths,
                ..StateSpaceConfig::default()
            },
        );
        to_test_programs(&space, &crate::hex(insn))
    }

    #[test]
    fn flags_an_initializer_faulting_les_and_passes_a_clean_push() {
        // `les eax, [eax]`: some explored paths need descriptor state whose
        // initializer faults on Hi-Fi before the test instruction runs.
        let les = programs(&[0xc4, 0x00], 64);
        assert!(unreached_tests(&les) > 0, "no les test flagged");
        let push = programs(&[0x50], 64);
        assert!(!push.is_empty());
        assert_eq!(unreached_tests(&push), 0, "a push test was flagged");
    }
}
