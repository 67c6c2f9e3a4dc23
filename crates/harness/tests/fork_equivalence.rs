//! Forking from a post-baseline template is invisible: for every target,
//! `run_program` returns exactly the snapshot a full boot-and-run of the
//! same program reaches. The reference below is the boot-and-run the
//! targets used before they forked: boot-loader state, the whole program
//! image at `CODE_BASE`, and `STEP_BUDGET` steps from boot.

use pokemu_explore::{explore_instruction_space, InsnSpaceConfig};
use pokemu_harness::conformance::{build_corpus, CONFORMANCE_FIDELITY};
use pokemu_harness::targets::{apply_boot, STEP_BUDGET};
use pokemu_harness::{
    baseline_snapshot, generate_for_instruction, HardwareTarget, HiFiTarget, LofiTarget, Target,
};
use pokemu_hifi::HiFi;
use pokemu_hwref::Vmm;
use pokemu_isa::snapshot::{Outcome, Snapshot};
use pokemu_isa::state::attrs;
use pokemu_lofi::{Fidelity, Lofi};
use pokemu_testgen::{boot_state, layout, TestProgram, TestState};

/// Boots `prog` from scratch on the hardware oracle, Hi-Fi and Lo-Fi and
/// runs it with the whole step budget.
fn boot_and_run(prog: &TestProgram, fidelity: Fidelity) -> [Snapshot; 3] {
    let mut vmm = Vmm::new();
    {
        let (d, m) = vmm.parts_mut();
        apply_boot(d, m);
    }
    vmm.load_image(layout::CODE_BASE, &prog.code);
    let reason = vmm.run(STEP_BUDGET);
    let hardware = vmm.snapshot(reason);

    let mut emu = HiFi::new();
    {
        let (d, m) = emu.parts_mut();
        apply_boot(d, m);
    }
    emu.load_image(layout::CODE_BASE, &prog.code);
    let exit = emu.run(STEP_BUDGET);
    let hifi = emu.snapshot(exit);

    let mut emu = Lofi::new(fidelity);
    let boot = boot_state();
    {
        let m = emu.machine_mut();
        m.cr0 = boot.cr0;
        m.eip = boot.eip;
        m.gpr[4] = boot.esp;
        for i in 0..6 {
            let typ: u16 = if i == 1 { 0xb } else { 0x3 };
            m.segs[i] = pokemu_lofi::state::LofiSeg {
                selector: 0x8,
                base: 0,
                limit: 0xffff_ffff,
                attrs: typ
                    | (1 << attrs::S as u16)
                    | (1 << attrs::P as u16)
                    | (1 << attrs::DB as u16)
                    | (1 << attrs::G as u16),
            };
        }
    }
    emu.load_image(layout::CODE_BASE, &prog.code);
    let exit = emu.run(STEP_BUDGET);
    let lofi = emu.snapshot(exit);
    [hardware, hifi, lofi]
}

/// Asserts that every target's `run_program` snapshot equals the
/// reference, by `==` and by `Debug` text, and returns the reference.
fn assert_forks_match(prog: &TestProgram, fidelity: Fidelity) -> [Snapshot; 3] {
    let reference = boot_and_run(prog, fidelity);
    let runs = [
        HardwareTarget.run_program(prog),
        HiFiTarget.run_program(prog),
        LofiTarget { fidelity }.run_program(prog),
    ];
    for ((target, run), want) in ["hardware", "hifi", "lofi"]
        .iter()
        .zip(&runs)
        .zip(&reference)
    {
        assert!(
            run == want,
            "{target} on {}: {:?}",
            prog.name,
            want.diff(run)
        );
        assert_eq!(
            format!("{run:?}"),
            format!("{want:?}"),
            "{target} on {}",
            prog.name
        );
    }
    reference
}

/// Asserts that each target's template still yields its post-baseline
/// image: a fork of the baseline-only program ends in the state a
/// boot-and-run of it reaches. Forks share the templates' memory pages, so
/// this fails if a fork's write reached a template.
fn assert_templates_intact(fidelity: Fidelity) {
    let prog = TestProgram::baseline_only("nop".into(), &[0x90]).unwrap();
    let [hardware, ..] = assert_forks_match(&prog, fidelity);
    assert_eq!(hardware.outcome, Outcome::Halted);
}

#[test]
fn sweep_programs_fork_to_the_boot_and_run_snapshot() {
    let baseline = baseline_snapshot();
    let mut tested = 0;
    for (first, second) in [
        (0x50, None),
        (0xc9, None),
        (0x0f, Some(0x00)),
        (0x0f, Some(0x01)),
    ] {
        let space = explore_instruction_space(InsnSpaceConfig {
            first_byte: Some(first),
            second_byte: second,
            ..InsnSpaceConfig::default()
        });
        for rep in &space.classes {
            let gen =
                generate_for_instruction(&rep.class.to_string(), &rep.bytes, &baseline, 8, None);
            for prog in &gen.programs {
                assert_forks_match(prog, Fidelity::QEMU_LIKE);
                tested += 1;
            }
        }
    }
    assert!(tested >= 20, "only {tested} sweep programs");
    assert_templates_intact(Fidelity::QEMU_LIKE);
}

#[test]
fn corpus_programs_fork_to_the_boot_and_run_snapshot() {
    let corpus = build_corpus();
    assert_eq!(corpus.len(), 24);
    let mut timeouts = Vec::new();
    for prog in &corpus {
        let [hardware, ..] = assert_forks_match(prog, CONFORMANCE_FIDELITY);
        if hardware.outcome == Outcome::Timeout {
            timeouts.push(prog.name.as_str());
        }
    }
    // These two run off the end of their code into zero-filled memory
    // until the step budget runs out, so their final EIP pins the budget
    // a fork carries over from the baseline.
    assert_eq!(
        timeouts,
        ["chain/flags-popf-branch", "chain/shift-then-branch"]
    );
    assert_templates_intact(CONFORMANCE_FIDELITY);
}

#[test]
fn a_program_without_the_baseline_boots() {
    // mov eax, 5; mov ebx, eax; hlt — from the boot-loader state.
    let code = vec![0xb8, 5, 0, 0, 0, 0x89, 0xc3, 0xf4];
    let prog = TestProgram {
        name: "raw".into(),
        test_insn: code.clone(),
        test_insn_offset: 0,
        state: TestState::default(),
        path_id: 0,
        segments: Vec::new(),
        code,
    };
    // Warm the templates first, so the raw program could be forked.
    assert_forks_match(
        &TestProgram::baseline_only("nop".into(), &[0x90]).unwrap(),
        Fidelity::QEMU_LIKE,
    );
    let [hardware, ..] = assert_forks_match(&prog, Fidelity::QEMU_LIKE);
    assert_eq!(hardware.outcome, Outcome::Halted);
    assert_eq!(hardware.gpr[3], 5);
}
