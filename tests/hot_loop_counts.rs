//! Hot loops on all three targets: five raw programs whose blocks run
//! thousands of times, the shape a block cache exists for. Every run must
//! halt with identical snapshots on the hardware oracle, Hi-Fi and Lo-Fi,
//! and Lo-Fi's work counts are pinned exactly: a change to block
//! formation, cache lookup or instruction accounting shows here.
//!
//! The counts are read from the process-wide metrics registry, so this
//! binary holds a single test: no other test's Lo-Fi runs can move them.

use pokemu::harness::{HardwareTarget, HiFiTarget, LofiTarget, Target};
use pokemu::isa::snapshot::Outcome;
use pokemu::testgen::{TestProgram, TestState};
use pokemu_rt::metrics;

/// A raw program (no baseline-init prologue: the target boots the machine
/// itself) that ends in `hlt`.
fn raw(name: &str, body: Vec<u8>) -> TestProgram {
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
}

/// The five loops, each under the harness step budget (50k instructions).
fn hot_loops() -> Vec<TestProgram> {
    // mov ecx, 22000; L: dec ecx; jnz L — one two-instruction block.
    let dec_loop = vec![0xb9, 0xf0, 0x55, 0x00, 0x00, 0x49, 0x75, 0xfd];
    // mov ecx, 660; L: 64 × inc eax; dec ecx; jnz L — a straight-line run
    // spanning eight blocks.
    let mut unrolled64 = vec![0xb9, 0x94, 0x02, 0x00, 0x00];
    unrolled64.extend(std::iter::repeat_n(0x40, 64));
    unrolled64.extend_from_slice(&[0x49, 0x75, 0xbd]);
    // mov ecx, 1300; L: 8 × (inc eax; xor eax, edx; add eax, ebx; neg eax);
    // dec ecx; jnz L — mixed ALU and flags traffic.
    let mut alu_mix = vec![0xb9, 0x14, 0x05, 0x00, 0x00];
    for _ in 0..8 {
        alu_mix.extend_from_slice(&[0x40, 0x31, 0xd0, 0x01, 0xd8, 0xf7, 0xd8]);
    }
    alu_mix.extend_from_slice(&[0x49, 0x75, 0xc5]);
    // mov ecx, 1700; L: 6 × (add/xor/or/sub eax, imm32); dec ecx; jnz L —
    // five-byte immediate forms.
    let mut imm_mix = vec![0xb9, 0xa4, 0x06, 0x00, 0x00];
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
    vec![
        raw("dec_loop", dec_loop),
        raw("unrolled64", unrolled64),
        raw("alu_mix", alu_mix),
        raw("imm_mix", imm_mix),
        raw("nested", nested),
    ]
}

#[test]
fn hot_loops_agree_on_every_target_with_pinned_lofi_work() {
    // (program, Lo-Fi instructions, block-cache hits, translations).
    let expected: [(&str, u64, u64, u64); 5] = [
        ("dec_loop", 44_002, 21_998, 3),
        ("unrolled64", 43_562, 5_922, 19),
        ("alu_mix", 44_202, 6_490, 11),
        ("imm_mix", 44_202, 6_792, 9),
        ("nested", 31_982, 10_656, 5),
    ];
    let mut totals = (0, 0, 0);
    for (prog, &(name, insns, hits, misses)) in hot_loops().iter().zip(&expected) {
        assert_eq!(prog.name, name);
        let hw = HardwareTarget.run_program(prog);
        let hifi = HiFiTarget.run_program(prog);
        let before = metrics::snapshot();
        let lofi = LofiTarget::default().run_program(prog);
        let delta = metrics::snapshot().since(&before);
        assert_eq!(hw.outcome, Outcome::Halted, "{name} on the oracle");
        assert!(
            hifi == hw,
            "{name}: Hi-Fi snapshot differs from the oracle's"
        );
        assert!(
            lofi == hw,
            "{name}: Lo-Fi snapshot differs from the oracle's"
        );
        let got = (
            delta.counter("lofi.insns"),
            delta.counter("lofi.tb_lookup.hits"),
            delta.counter("lofi.tb_lookup.misses"),
        );
        assert_eq!(got, (insns, hits, misses), "{name}: Lo-Fi work counts");
        totals = (totals.0 + got.0, totals.1 + got.1, totals.2 + got.2);
    }
    assert_eq!(totals, (207_950, 51_858, 47));
}
