//! # pokemu-hifi
//!
//! The **Hi-Fi emulator** — the Bochs analogue of the PokeEMU-rs
//! reproduction: a straightforward, complete interpreter for the VX86 guest
//! ISA. Its instruction semantics are the reference interpreter from
//! `pokemu-isa` instantiated at the concrete domain with
//! [`pokemu_isa::Quirks::HIFI`]: complete like Bochs, with Bochs's two
//! documented benign deviations (cleared undefined flags, and far-pointer
//! operands fetched selector-first — the `lfs` fetch-order difference of
//! paper §6.2).
//!
//! Because the same interpreter code also runs under symbolic execution,
//! this emulator *is* the artifact that path-exploration lifting explores
//! (paper §3): exploration in `pokemu-explore` symbolically executes exactly
//! the semantics this crate executes concretely.
//!
//! Mirroring the paper's instrumentation needs (§5.1), the run loop
//! intercepts halts and exceptions (the baseline IDT routes everything to
//! halting handlers), suppresses hardware interrupts after baseline
//! initialization, and snapshots CPU + memory state through the emulator's
//! own state access API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pokemu_isa::interp::{self, Quirks, StepOutcome};
use pokemu_isa::snapshot::{Outcome, Snapshot};
use pokemu_isa::state::Machine;
use pokemu_isa::Exception;
use pokemu_symx::{CVal, Concrete};

/// Why a [`HiFi::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// `hlt` retired.
    Halted,
    /// An exception was intercepted (would dispatch to a halting handler).
    Exception(Exception),
    /// The step budget was exhausted.
    StepLimit,
}

impl RunExit {
    /// Converts to the snapshot outcome encoding.
    pub fn outcome(self) -> Outcome {
        match self {
            RunExit::Halted => Outcome::Halted,
            RunExit::Exception(e) => Outcome::Exception {
                vector: e.vector(),
                error: e.error_code(),
            },
            RunExit::StepLimit => Outcome::Timeout,
        }
    }
}

/// The Hi-Fi interpreter-based emulator.
///
/// # Examples
///
/// ```
/// use pokemu_hifi::HiFi;
///
/// let mut emu = HiFi::new();
/// // mov eax, 5; hlt — on a machine that is not yet configured this fetch
/// // faults; real use goes through the pokemu-testgen baseline image.
/// let exit = emu.run(16);
/// let snap = emu.snapshot(exit);
/// assert_eq!(snap.eip, 0);
/// ```
#[derive(Debug, Clone)]
pub struct HiFi {
    dom: Concrete,
    machine: Machine<CVal>,
    quirks: Quirks,
    steps_executed: u64,
}

impl Default for HiFi {
    fn default() -> Self {
        Self::new()
    }
}

impl HiFi {
    /// Creates an emulator with a zeroed machine.
    pub fn new() -> Self {
        let mut dom = Concrete::new();
        let machine = Machine::zeroed(&mut dom);
        HiFi {
            dom,
            machine,
            quirks: Quirks::HIFI,
            steps_executed: 0,
        }
    }

    /// Overrides the quirk profile (tests use this to make the Hi-Fi
    /// emulator behave exactly like hardware).
    pub fn with_quirks(mut self, quirks: Quirks) -> Self {
        self.quirks = quirks;
        self
    }

    /// The guest machine (the emulator's state-access API, used by the
    /// baseline initializer and instrumentation).
    pub fn machine(&self) -> &Machine<CVal> {
        &self.machine
    }

    /// Mutable access to the guest machine.
    pub fn machine_mut(&mut self) -> &mut Machine<CVal> {
        &mut self.machine
    }

    /// The concrete domain paired with the machine.
    pub fn dom_mut(&mut self) -> &mut Concrete {
        &mut self.dom
    }

    /// Splits mutable access to domain and machine (for state setup code
    /// that needs both).
    pub fn parts_mut(&mut self) -> (&mut Concrete, &mut Machine<CVal>) {
        (&mut self.dom, &mut self.machine)
    }

    /// Loads raw bytes into physical memory.
    pub fn load_image(&mut self, addr: u32, bytes: &[u8]) {
        self.machine.mem.load_bytes(&mut self.dom, addr, bytes);
    }

    /// Sets the instruction pointer.
    pub fn set_eip(&mut self, eip: u32) {
        self.machine.eip = eip;
    }

    /// Instructions retired so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Executes one instruction.
    pub fn step(&mut self) -> StepOutcome {
        self.steps_executed += 1;
        interp::step(&mut self.dom, &mut self.machine, &self.quirks)
    }

    /// Runs until halt, exception, or the step budget expires.
    ///
    /// Hardware interrupts are never delivered — the harness disables them
    /// after baseline initialization (paper §5.1), and this machine model
    /// has no interrupt sources.
    pub fn run(&mut self, max_steps: u64) -> RunExit {
        for _ in 0..max_steps {
            match self.step() {
                StepOutcome::Normal => {}
                StepOutcome::Halt => return RunExit::Halted,
                StepOutcome::Exception(e) => return RunExit::Exception(e),
            }
        }
        RunExit::StepLimit
    }

    /// Snapshots the CPU and physical memory (paper §5.1).
    pub fn snapshot(&mut self, exit: RunExit) -> Snapshot {
        Snapshot::capture(&mut self.dom, &self.machine, exit.outcome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_machine_faults_on_fetch() {
        // Zeroed machine: CS descriptor cache is not present -> #GP on fetch.
        let mut emu = HiFi::new();
        let exit = emu.run(4);
        assert!(matches!(exit, RunExit::Exception(Exception::Gp(0))));
    }

    #[test]
    fn snapshot_reflects_memory_writes() {
        let mut emu = HiFi::new();
        emu.load_image(0x100, &[0xaa, 0x00, 0xbb]);
        let snap = emu.snapshot(RunExit::Halted);
        assert_eq!(snap.mem.get(0x100), 0xaa);
        assert_eq!(snap.mem.get(0x101), 0);
        assert_eq!(snap.mem.get(0x102), 0xbb);
        let bytes: Vec<(u32, u8)> = snap.mem.iter().collect();
        assert_eq!(
            bytes,
            [(0x100, 0xaa), (0x102, 0xbb)],
            "zero bytes are omitted"
        );
        assert_eq!(snap.outcome, Outcome::Halted);
    }
}
