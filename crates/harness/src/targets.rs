//! Execution targets (paper §5): the two emulators and the hardware oracle,
//! behind one interface that boots a test program, runs it to halt or
//! exception, and snapshots the final state.
//!
//! Every lifted test starts with the same baseline initializer (§4.1), so a
//! target runs it once per process: the first program whose code starts
//! with the baseline image builds a post-baseline template of the target
//! (Lo-Fi: one per [`Fidelity`]), and every such program forks from it,
//! loads its own code and runs with what the baseline left of
//! [`STEP_BUDGET`]. A fork shares the template's memory pages and copies a
//! page only when it first writes it. It ends in exactly the state a full
//! boot-and-run reaches (DESIGN.md §3). Other programs boot from scratch.

use std::sync::{Mutex, OnceLock};

use pokemu_hifi::HiFi;
use pokemu_hwref::{TrapReason, Vmm};
use pokemu_isa::asm::Asm;
use pokemu_isa::snapshot::Snapshot;
use pokemu_isa::state::{attrs, Seg};
use pokemu_lofi::{Fidelity, Lofi};
use pokemu_rt::metrics;
use pokemu_symx::Dom;
use pokemu_testgen::{boot_state, layout, TestProgram};

/// Step budget for one test program, counted from boot: instructions on
/// the interpreters, blocks of up to 8 instructions on Lo-Fi. The baseline
/// initializer takes 4,409 instructions (1,099 Lo-Fi blocks), most of them
/// its 1,024-iteration page-table loop; a forked run spends what is left
/// on the gadgets, the test instruction and `hlt`.
pub const STEP_BUDGET: u64 = 50_000;

/// Anything that can execute a test program and report the final state.
pub trait Target {
    /// The target's display name.
    fn name(&self) -> &'static str;
    /// Runs the program from boot, or from a fork of the post-baseline
    /// template when it starts with the baseline image, and snapshots the
    /// result.
    fn run_program(&mut self, prog: &TestProgram) -> Snapshot;
}

/// Bills one target execution: a deterministic run counter
/// (`target.<name>.runs`) plus a `target.<name>` span. `pokemu-report perf`
/// turns the run's spans into the lofi/hifi throughput ratio — the direct
/// observable for the e3 inversion (DBT slower than the interpreter on
/// short programs).
fn billed<F: FnOnce() -> Snapshot>(name: &'static str, run: F) -> Snapshot {
    let (runs, span) = match name {
        "hifi" => ("target.hifi.runs", "target.hifi"),
        "lofi" => ("target.lofi.runs", "target.lofi"),
        _ => ("target.hardware.runs", "target.hardware"),
    };
    metrics::counter(runs).inc();
    let _span = pokemu_rt::span!(span);
    run()
}

/// What booting and forking need of an emulator.
trait Emulator: Sized {
    /// Loads bytes at a physical address.
    fn load(&mut self, addr: u32, bytes: &[u8]);
    /// The instruction pointer.
    fn eip(&self) -> u32;
    /// Runs one step (Lo-Fi: one block); `false` when it halted or raised.
    fn advance(&mut self) -> bool;
    /// Runs at most `budget` steps and snapshots the result.
    fn run_out(&mut self, budget: u64) -> Snapshot;
    /// Makes every memory page (and Lo-Fi block) shared, so that forks
    /// copy no page until they write it.
    fn share(&mut self);
    /// A copy of the machine that shares its shared memory pages.
    fn fork(&self) -> Self;
}

impl Emulator for HiFi {
    fn load(&mut self, addr: u32, bytes: &[u8]) {
        self.load_image(addr, bytes);
    }
    fn eip(&self) -> u32 {
        self.machine().eip
    }
    fn advance(&mut self) -> bool {
        self.run(1) == pokemu_hifi::RunExit::StepLimit
    }
    fn run_out(&mut self, budget: u64) -> Snapshot {
        let exit = self.run(budget);
        self.snapshot(exit)
    }
    fn share(&mut self) {
        self.machine_mut().mem.share();
    }
    fn fork(&self) -> Self {
        self.clone()
    }
}

impl Emulator for Vmm {
    fn load(&mut self, addr: u32, bytes: &[u8]) {
        self.load_image(addr, bytes);
    }
    fn eip(&self) -> u32 {
        self.guest().eip
    }
    fn advance(&mut self) -> bool {
        self.run(1) == TrapReason::StepLimit
    }
    fn run_out(&mut self, budget: u64) -> Snapshot {
        let reason = self.run(budget);
        self.snapshot(reason)
    }
    fn share(&mut self) {
        self.guest_mut().mem.share();
    }
    fn fork(&self) -> Self {
        self.clone()
    }
}

impl Emulator for Lofi {
    fn load(&mut self, addr: u32, bytes: &[u8]) {
        self.load_image(addr, bytes);
    }
    fn eip(&self) -> u32 {
        self.machine().eip
    }
    fn advance(&mut self) -> bool {
        self.run(1) == pokemu_lofi::RunExit::StepLimit
    }
    fn run_out(&mut self, budget: u64) -> Snapshot {
        let exit = self.run(budget);
        self.snapshot(exit)
    }
    fn share(&mut self) {
        Lofi::share(self);
    }
    fn fork(&self) -> Self {
        Lofi::fork(self)
    }
}

/// The code every lifted test starts with: the baseline initializer,
/// ending in `popf`, which also ends a Lo-Fi block.
fn baseline_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut a = Asm::new();
        layout::emit_baseline(&mut a, layout::CODE_BASE);
        a.into_bytes()
    })
}

/// A target right after the baseline initializer, its memory shared.
struct Template<E> {
    emu: E,
    /// Steps (Lo-Fi: blocks) the baseline took.
    steps: u64,
}

impl<E: Emulator> Template<E> {
    /// Steps a machine booted with the baseline image to the image's end.
    fn build(mut emu: E) -> Self {
        let end = layout::CODE_BASE + baseline_image().len() as u32;
        let mut steps = 0;
        while emu.eip() != end {
            assert!(
                steps < STEP_BUDGET && emu.advance(),
                "the baseline initializer must complete"
            );
            steps += 1;
        }
        emu.share();
        Template { emu, steps }
    }

    /// A fork of the post-baseline machine with `code` loaded, and the
    /// budget a full run would have left at this point.
    fn fork(&self, code: &[u8]) -> (E, u64) {
        let mut emu = self.emu.fork();
        emu.load(layout::CODE_BASE, code);
        (emu, STEP_BUDGET - self.steps)
    }
}

/// One target's templates, one per key, built on first use and never
/// dropped, so a Lo-Fi template bills no counter and no hot-TB count.
struct Templates<K, E: 'static>(Mutex<Vec<(K, &'static Template<E>)>>);

impl<K: PartialEq, E: Emulator + 'static> Templates<K, E> {
    const fn new() -> Self {
        Templates(Mutex::new(Vec::new()))
    }

    /// Runs `prog` on a fork of the `key` template when its code starts
    /// with the baseline image, else on a machine `boot` builds for it.
    fn run(&self, key: K, boot: impl Fn(&[u8]) -> E, prog: &TestProgram) -> Snapshot {
        let (mut emu, budget) = if prog.code.starts_with(baseline_image()) {
            let template = {
                let mut all = self.0.lock().unwrap_or_else(|e| e.into_inner());
                match all.iter().find(|(k, _)| *k == key) {
                    Some(&(_, t)) => t,
                    None => {
                        let t: &'static Template<E> =
                            Box::leak(Box::new(Template::build(boot(baseline_image()))));
                        all.push((key, t));
                        t
                    }
                }
            };
            template.fork(&prog.code)
        } else {
            (boot(&prog.code), STEP_BUDGET)
        };
        emu.run_out(budget)
    }
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
        static TEMPLATES: Templates<(), HiFi> = Templates::new();
        billed("hifi", || TEMPLATES.run((), boot_hifi, prog))
    }
}

impl Target for LofiTarget {
    fn name(&self) -> &'static str {
        "lofi"
    }

    fn run_program(&mut self, prog: &TestProgram) -> Snapshot {
        static TEMPLATES: Templates<Fidelity, Lofi> = Templates::new();
        let fidelity = self.fidelity;
        billed("lofi", || {
            TEMPLATES.run(fidelity, |code| boot_lofi(fidelity, code), prog)
        })
    }
}

impl Target for HardwareTarget {
    fn name(&self) -> &'static str {
        "hardware"
    }

    fn run_program(&mut self, prog: &TestProgram) -> Snapshot {
        static TEMPLATES: Templates<(), Vmm> = Templates::new();
        billed("hardware", || TEMPLATES.run((), boot_vmm, prog))
    }
}

/// A Hi-Fi machine in the boot-loader state with `code` loaded at
/// [`layout::CODE_BASE`].
fn boot_hifi(code: &[u8]) -> HiFi {
    let mut emu = HiFi::new();
    let (d, m) = emu.parts_mut();
    apply_boot(d, m);
    emu.load_image(layout::CODE_BASE, code);
    emu
}

/// The hardware oracle in the boot-loader state with `code` loaded at
/// [`layout::CODE_BASE`].
fn boot_vmm(code: &[u8]) -> Vmm {
    let mut vmm = Vmm::new();
    let (d, m) = vmm.parts_mut();
    apply_boot(d, m);
    vmm.load_image(layout::CODE_BASE, code);
    vmm
}

/// A Lo-Fi machine in the boot-loader state with `code` loaded at
/// [`layout::CODE_BASE`].
fn boot_lofi(fidelity: Fidelity, code: &[u8]) -> Lofi {
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
    emu.load_image(layout::CODE_BASE, code);
    emu
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
    use pokemu_isa::page::Page;

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

    #[test]
    fn templates_stop_where_the_baseline_ends() {
        let end = layout::CODE_BASE + baseline_image().len() as u32;
        let hardware = Template::build(boot_vmm(baseline_image()));
        let hifi = Template::build(boot_hifi(baseline_image()));
        let lofi = Template::build(boot_lofi(Fidelity::QEMU_LIKE, baseline_image()));
        assert_eq!(
            (hardware.emu.eip(), hifi.emu.eip(), lofi.emu.eip()),
            (end, end, end)
        );
        // Instructions on the interpreters, blocks on Lo-Fi; most of them
        // are the 1,024-iteration page-table loop.
        assert_eq!(
            (hardware.steps, hifi.steps, lofi.steps),
            (4_409, 4_409, 1_099)
        );
        // GDT, IDT, halt handler, scratch, page directory, page table,
        // code and stack.
        let lofi_mem = lofi.emu.machine().ram.to_mem();
        assert_eq!(lofi_mem.pages().count(), 8);
        assert_eq!(hifi.emu.machine().mem.to_mem(), lofi_mem);
        assert_eq!(hardware.emu.guest().mem.to_mem(), lofi_mem);
        // The templates keep their memory, all of it shared, so a fork
        // copies no page until it writes one.
        assert!(lofi
            .emu
            .machine()
            .ram
            .pages()
            .all(|(_, p)| matches!(p, Page::Shared(_))));
        let mut fork = hifi.fork(baseline_image()).0;
        assert_eq!(fork.machine().mem, hifi.emu.machine().mem);
        fork.load(layout::SCRATCH_BASE, &[0x5a]);
        assert_eq!(hifi.emu.machine().mem.to_mem(), lofi_mem);
    }
}
