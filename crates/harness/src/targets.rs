//! Execution targets (paper §5): the two emulators and the hardware oracle,
//! behind one interface that boots a test program, runs it to halt or
//! exception, and snapshots the final state.

use std::time::Instant;

use pokemu_hifi::HiFi;
use pokemu_hwref::Vmm;
use pokemu_isa::snapshot::Snapshot;
use pokemu_isa::state::{attrs, Seg};
use pokemu_lofi::{Fidelity, Lofi};
use pokemu_rt::metrics;
use pokemu_symx::Dom;
use pokemu_testgen::{boot_state, layout, TestProgram};

/// Step budget for one test program (baseline is ~3,400 instructions).
pub const STEP_BUDGET: u64 = 50_000;

/// Anything that can execute a test program and report the final state.
pub trait Target {
    /// The target's display name.
    fn name(&self) -> &'static str;
    /// Boots the program, runs it, and snapshots the result.
    fn run_program(&mut self, prog: &TestProgram) -> Snapshot;
}

/// Bills one target execution: a deterministic run counter
/// (`target.<name>.runs`) plus, when timing is on, wall time in
/// `target.<name>.ns`. The per-run mean `ns / runs` is what
/// `pokemu-report perf` turns into the lofi/hifi throughput ratio — the
/// direct observable for the e3 inversion (DBT slower than the
/// interpreter on short programs).
fn billed<F: FnOnce() -> Snapshot>(name: &'static str, run: F) -> Snapshot {
    let (runs, ns, frame) = match name {
        "hifi" => (
            metrics::counter("target.hifi.runs"),
            metrics::timer("target.hifi.ns"),
            "target.hifi",
        ),
        "lofi" => (
            metrics::counter("target.lofi.runs"),
            metrics::timer("target.lofi.ns"),
            "target.lofi",
        ),
        _ => (
            metrics::counter("target.hardware.runs"),
            metrics::timer("target.hardware.ns"),
            "target.hardware",
        ),
    };
    runs.inc();
    let _f = pokemu_rt::prof::frame(frame);
    let t = pokemu_rt::prof::timing_enabled().then(Instant::now);
    let snap = run();
    if let Some(t) = t {
        ns.add(t.elapsed());
    }
    snap
}

/// The Hi-Fi emulator as a target.
#[derive(Debug, Default)]
pub struct HiFiTarget;

/// The Lo-Fi emulator as a target, with a fidelity profile.
#[derive(Debug)]
pub struct LofiTarget {
    /// The fidelity profile to run with.
    pub fidelity: Fidelity,
}

impl Default for LofiTarget {
    fn default() -> Self {
        LofiTarget {
            fidelity: Fidelity::QEMU_LIKE,
        }
    }
}

/// The hardware oracle (VMM-supervised reference execution).
#[derive(Debug, Default)]
pub struct HardwareTarget;

impl Target for HiFiTarget {
    fn name(&self) -> &'static str {
        "hifi"
    }

    fn run_program(&mut self, prog: &TestProgram) -> Snapshot {
        billed("hifi", || {
            let mut emu = HiFi::new();
            {
                let (d, m) = emu.parts_mut();
                apply_boot(d, m);
            }
            emu.load_image(layout::CODE_BASE, &prog.code);
            let exit = emu.run(STEP_BUDGET);
            emu.snapshot(exit)
        })
    }
}

impl Target for LofiTarget {
    fn name(&self) -> &'static str {
        "lofi"
    }

    fn run_program(&mut self, prog: &TestProgram) -> Snapshot {
        let fidelity = self.fidelity;
        billed("lofi", move || {
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
            // Block budget: blocks hold up to 8 instructions; use the same
            // step-scale budget.
            let exit = emu.run(STEP_BUDGET);
            emu.snapshot(exit)
        })
    }
}

impl Target for HardwareTarget {
    fn name(&self) -> &'static str {
        "hardware"
    }

    fn run_program(&mut self, prog: &TestProgram) -> Snapshot {
        billed("hardware", || {
            let mut vmm = Vmm::new();
            {
                let (d, m) = vmm.parts_mut();
                apply_boot(d, m);
            }
            vmm.load_image(layout::CODE_BASE, &prog.code);
            let reason = vmm.run(STEP_BUDGET);
            vmm.snapshot(reason)
        })
    }
}

/// Applies the boot-loader state to a reference-interpreter machine.
pub fn apply_boot(d: &mut pokemu_symx::Concrete, m: &mut pokemu_isa::Machine<pokemu_symx::CVal>) {
    let boot = boot_state();
    m.cr0 = d.constant(32, boot.cr0 as u64);
    m.eip = boot.eip;
    m.gpr[4] = d.constant(32, boot.esp as u64);
    for seg in Seg::ALL {
        let typ: u64 = if seg == Seg::Cs { 0xb } else { 0x3 };
        let a = typ
            | (1 << attrs::S as u64)
            | (1 << attrs::P as u64)
            | (1 << attrs::DB as u64)
            | (1 << attrs::G as u64);
        let s = &mut m.segs[seg as usize];
        s.selector = d.constant(16, 0x8);
        s.cache.base = d.constant(32, 0);
        s.cache.limit = d.constant(32, 0xffff_ffff);
        s.cache.attrs = d.constant(attrs::WIDTH, a);
    }
}

/// Runs the baseline-only program on the hardware oracle and returns its
/// final state: the concrete environment the exploration starts from
/// (paper §6.1: "as concrete inputs we used a snapshot of the baseline
/// machine state").
pub fn baseline_snapshot() -> Snapshot {
    let prog = TestProgram::baseline_only("baseline".into(), &[0x90]).expect("baseline builds");
    let mut hw = HardwareTarget;
    let snap = hw.run_program(&prog);
    assert_eq!(
        snap.outcome,
        pokemu_isa::snapshot::Outcome::Halted,
        "the baseline initializer must complete"
    );
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_complete_the_baseline() {
        let prog = TestProgram::baseline_only("nop".into(), &[0x90]).unwrap();
        let hs = HiFiTarget.run_program(&prog);
        let ls = LofiTarget::default().run_program(&prog);
        let ws = HardwareTarget.run_program(&prog);
        assert_eq!(hs.outcome, pokemu_isa::snapshot::Outcome::Halted);
        assert!(hs.same_behavior(&ls), "{:?}", hs.diff(&ls));
        assert!(hs.same_behavior(&ws), "{:?}", hs.diff(&ws));
    }
}
