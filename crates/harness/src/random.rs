//! The random-testing baseline (paper §8 / Martignoni et al. ISSTA'09).
//!
//! Prior work tested emulators with randomly generated instructions and
//! states. The E5 experiment reproduces the paper's comparison: at an equal
//! test budget, random testing finds far fewer difference classes than
//! path-exploration lifting, because corner cases like "the `iret` frame
//! straddles a fault boundary" have vanishing probability under uniform
//! sampling (§6.2).

use pokemu_rt::Rng;

use pokemu_lofi::Fidelity;
use pokemu_testgen::{layout, StateItem, TestProgram, TestState};

use crate::compare::{compare, Clusters};
use crate::pipeline::run_on_all_targets;

/// Configuration for the random baseline.
#[derive(Debug, Clone, Copy)]
pub struct RandomConfig {
    /// Number of random tests to generate and run.
    pub tests: usize,
    /// RNG seed (deterministic experiments).
    pub seed: u64,
    /// Lo-Fi fidelity profile.
    pub lofi_fidelity: Fidelity,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            tests: 1000,
            seed: 0xDEC0DE,
            lofi_fidelity: Fidelity::QEMU_LIKE,
        }
    }
}

/// Result of a random-testing run.
#[derive(Debug, Default)]
pub struct RandomRun {
    /// Tests executed.
    pub tests: usize,
    /// Tests that produced a Lo-Fi difference.
    pub lofi_differences: usize,
    /// Root-cause clusters found.
    pub lofi_clusters: Clusters,
}

/// Generates one random test: random instruction bytes plus random
/// perturbations of registers, flags, and a few memory bytes — the
/// state-of-the-art the paper compares against.
pub fn random_test(rng: &mut Rng, idx: usize) -> TestProgram {
    // Random instruction: up to 15 random bytes.
    let len = rng.gen_range(1..=15usize);
    let insn: Vec<u8> = (0..len).map(|_| rng.gen()).collect();

    let mut items = Vec::new();
    // Random GPR values.
    for r in pokemu_isa::Gpr::ALL {
        if rng.gen_bool(0.5) {
            items.push(StateItem::Gpr(r, rng.gen()));
        }
    }
    if rng.gen_bool(0.5) {
        items.push(StateItem::Eflags(rng.gen::<u32>() & 0x0000_0ed5 | 0x2));
    }
    // A few random bytes in interesting regions (GDT, page table, data).
    for _ in 0..rng.gen_range(0..4u32) {
        let region = rng.gen_range(0..3u32);
        let addr = match region {
            0 => layout::GDT_BASE + rng.gen_range(8..128u32),
            1 => layout::PT_BASE + rng.gen_range(0u32..4096) / 4 * 4,
            _ => 0x0030_0000 + rng.gen_range(0u32..0x1000),
        };
        let value = rng.gen();
        // A second value for a byte already drawn would contradict the
        // first: keep the first. The draw still happens, so the tests
        // after this one stay the same.
        let taken = items
            .iter()
            .any(|item| matches!(*item, StateItem::MemByte(a, v) if a == addr && v != value));
        if !taken {
            items.push(StateItem::MemByte(addr, value));
        }
    }
    TestProgram::build(format!("random/{idx}"), TestState { items }, &insn)
        .expect("random states are always sequencable")
}

/// Runs the random-testing baseline.
pub fn run_random_baseline(config: RandomConfig) -> RandomRun {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut out = RandomRun::default();
    for i in 0..config.tests {
        let prog = random_test(&mut rng, i);
        let case = run_on_all_targets(&prog, config.lofi_fidelity);
        out.tests += 1;
        if let Some(d) = compare(&case.hardware, &case.lofi, &prog.test_insn) {
            out.lofi_differences += 1;
            out.lofi_clusters.add(&prog.name, &d.cause);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tests_build_and_run() {
        let mut rng = Rng::seed_from_u64(7);
        for i in 0..5 {
            let prog = random_test(&mut rng, i);
            let case = run_on_all_targets(&prog, Fidelity::QEMU_LIKE);
            // All targets produce *some* terminal state.
            let _ = compare(&case.hardware, &case.lofi, &prog.test_insn);
        }
    }

    /// Test 312 at the default seed draws two bytes at one address with
    /// different values, which the program builder rejects.
    #[test]
    fn default_seed_states_build_past_an_address_collision() {
        let mut rng = Rng::seed_from_u64(RandomConfig::default().seed);
        for i in 0..=312 {
            random_test(&mut rng, i);
        }
    }
}
