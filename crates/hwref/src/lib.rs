//! # pokemu-hwref
//!
//! The **hardware oracle** — the stand-in for the paper's Intel Core i5
//! workstation virtualized by a customized KVM (§5.2).
//!
//! The paper runs tests on real hardware under a hardware-assisted VMM:
//! most instructions execute directly on silicon (and are therefore correct
//! by definition), while a small set of privileged operations trap into the
//! VMM, whose mediation code the authors audit by hand. Exceptions, halts,
//! and injected events all trap, at which point the VMM snapshots the guest.
//!
//! PokeEMU-rs has no silicon, so the role of "the specification executed
//! directly" is played by the reference interpreter at
//! [`pokemu_isa::Quirks::HARDWARE`] — by construction the ground truth of the
//! VX86 architecture, including the hardware's own undefined-flag behavior
//! (which differs from both emulators, as real silicon does). This module
//! reproduces the *workflow* of §5.2: a [`Vmm`] wraps the guest, counts which
//! instructions would require mediation (the same set KVM mediates: control
//! register writes, descriptor-table loads, MSR access, `hlt`, `invlpg`),
//! intercepts exceptions and halts as traps, and snapshots on exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pokemu_isa::interp::{self, Quirks, StepOutcome};
use pokemu_isa::snapshot::{Outcome, Snapshot};
use pokemu_isa::state::Machine;
use pokemu_isa::{decode, Exception};
use pokemu_symx::{CVal, Concrete, Dom};

/// Why the VMM regained control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapReason {
    /// The guest executed `hlt`.
    Halt,
    /// An exception is about to be injected into the guest.
    Exception(Exception),
    /// The step budget was exhausted (the VMM can always regain control).
    StepLimit,
}

impl TrapReason {
    /// Converts to the snapshot outcome encoding.
    pub fn outcome(self) -> Outcome {
        match self {
            TrapReason::Halt => Outcome::Halted,
            TrapReason::Exception(e) => Outcome::Exception {
                vector: e.vector(),
                error: e.error_code(),
            },
            TrapReason::StepLimit => Outcome::Timeout,
        }
    }
}

/// Counters describing how much mediation the run needed — the paper's
/// claim that "the number of such instructions is very small" (§5.2) is
/// checked against these in the harness tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct MediationStats {
    /// Instructions executed "directly on hardware".
    pub direct: u64,
    /// Instructions that required VMM mediation.
    pub mediated: u64,
    /// Traps taken (exceptions + halt).
    pub traps: u64,
}

/// The hardware-assisted virtual machine: guest state plus the monitoring
/// layer.
#[derive(Debug, Clone)]
pub struct Vmm {
    dom: Concrete,
    guest: Machine<CVal>,
    stats: MediationStats,
}

impl Default for Vmm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vmm {
    /// Creates a VMM with a zeroed guest.
    pub fn new() -> Self {
        let mut dom = Concrete::new();
        let guest = Machine::zeroed(&mut dom);
        Vmm {
            dom,
            guest,
            stats: MediationStats::default(),
        }
    }

    /// The guest machine state (the VMM has complete visibility, §5.2).
    pub fn guest(&self) -> &Machine<CVal> {
        &self.guest
    }

    /// Mutable guest access, for baseline initialization.
    pub fn guest_mut(&mut self) -> &mut Machine<CVal> {
        &mut self.guest
    }

    /// Splits mutable access to domain and guest.
    pub fn parts_mut(&mut self) -> (&mut Concrete, &mut Machine<CVal>) {
        (&mut self.dom, &mut self.guest)
    }

    /// Loads raw bytes into guest physical memory.
    pub fn load_image(&mut self, addr: u32, bytes: &[u8]) {
        self.guest.mem.load_bytes(&mut self.dom, addr, bytes);
    }

    /// Sets the guest instruction pointer.
    pub fn set_eip(&mut self, eip: u32) {
        self.guest.eip = eip;
    }

    /// Mediation statistics accumulated so far.
    pub fn stats(&self) -> MediationStats {
        self.stats
    }

    /// Peeks at the next instruction to classify it as direct-executable or
    /// VMM-mediated (the trap set of §5.2). Decode failures count as direct:
    /// the resulting #UD is a trap, not mediation.
    fn next_is_mediated(&mut self) -> bool {
        let eip = self.guest.eip;
        // A non-architectural peek: decode from linear memory bytes without
        // architectural side effects. Reading through the CS base without a
        // page walk leaves A/D bits untouched (concrete reads of missing
        // bytes materialize zeros, which is value-neutral).
        let d = &mut self.dom;
        let guest = &mut self.guest;
        let decoded = decode::decode(d, |d, idx| {
            let off = d.constant(32, eip.wrapping_add(idx as u32) as u64);
            let base = guest.segs[pokemu_isa::Seg::Cs as usize].cache.base;
            let lin = d.add(base, off);
            let lin = d.pick(lin, "probe fetch") as u32;
            Ok(guest.mem.read_u8(d, lin))
        });
        match decoded {
            Err(_) => false,
            Ok(inst) => {
                matches!(
                    inst.class.opcode,
                    0x0f22          // mov crN, r32
                | 0x0f30 | 0x0f32 // wrmsr / rdmsr
                | 0xf4 // hlt
                ) || (inst.class.opcode == 0x0f01
                    && matches!(inst.class.group_reg, Some(2) | Some(3) | Some(6) | Some(7)))
            }
        }
    }

    /// Runs the guest until a trap the VMM must handle terminally: a halt or
    /// an exception about to be injected (§5.2). Hardware interrupts are
    /// ignored and resumed, exactly as the paper's customized KVM does.
    pub fn run(&mut self, max_steps: u64) -> TrapReason {
        for _ in 0..max_steps {
            if self.next_is_mediated() {
                self.stats.mediated += 1;
            } else {
                self.stats.direct += 1;
            }
            match interp::step(&mut self.dom, &mut self.guest, &Quirks::HARDWARE) {
                StepOutcome::Normal => {}
                StepOutcome::Halt => {
                    self.stats.traps += 1;
                    return TrapReason::Halt;
                }
                StepOutcome::Exception(e) => {
                    self.stats.traps += 1;
                    return TrapReason::Exception(e);
                }
            }
        }
        TrapReason::StepLimit
    }

    /// Snapshots the guest CPU and physical memory from the VMM (§5.2).
    pub fn snapshot(&mut self, reason: TrapReason) -> Snapshot {
        Snapshot::capture(&mut self.dom, &self.guest, reason.outcome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mediation_set_is_small() {
        let mut vmm = Vmm::new();
        // Flat CS so the probe can read code; direct instructions dominate.
        use pokemu_isa::state::{attrs, cr0};
        let d = &mut vmm.dom;
        vmm.guest.cr0 = d.constant(32, 1 << cr0::PE);
        let a: u64 = 0xb | (1 << attrs::S as u64) | (1 << attrs::P as u64);
        vmm.guest.segs[pokemu_isa::Seg::Cs as usize].cache.attrs = d.constant(attrs::WIDTH, a);
        vmm.guest.segs[pokemu_isa::Seg::Cs as usize].cache.limit = d.constant(32, 0xffff_ffff);
        vmm.guest.segs[pokemu_isa::Seg::Cs as usize].cache.base = d.constant(32, 0);
        // mov eax, 1; mov ebx, 2; hlt
        vmm.load_image(0, &[0xb8, 1, 0, 0, 0, 0xbb, 2, 0, 0, 0, 0xf4]);
        let r = vmm.run(16);
        assert_eq!(r, TrapReason::Halt);
        let s = vmm.stats();
        assert_eq!(s.mediated, 1, "only hlt is mediated");
        assert_eq!(s.direct, 2);
        assert_eq!(s.traps, 1);
    }
}
