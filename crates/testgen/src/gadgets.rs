//! State-initializer gadgets and their dependency-based sequencing
//! (paper §4.2).
//!
//! Each part of the machine state that a test must establish is set by a
//! *gadget*: a short instruction sequence with declared prerequisites and
//! side effects. The generator instantiates one gadget per state component,
//! adds corrective gadgets for side effects (e.g. restoring a scratched
//! register — Fig. 5 line 6), builds the dependency graph, and topologically
//! sorts it. A cycle or an unsatisfiable side effect aborts generation with
//! an error, mirroring the paper's "abort and ask for user assistance".

use std::collections::{BTreeMap, HashMap};

use pokemu_isa::asm::Asm;
use pokemu_isa::state::{selector, Gpr, Seg};

use crate::layout::{self, SCRATCH_BASE};

/// One component of the test state to establish (the output of state
/// exploration after minimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateItem {
    /// A general-purpose register value.
    Gpr(Gpr, u32),
    /// The EFLAGS image (established via `push imm; popf`).
    Eflags(u32),
    /// One byte of physical memory (covers GDT entries, page-table entries,
    /// and ordinary data uniformly).
    MemByte(u32, u8),
    /// A segment selector to (re)load. Also emitted when only the
    /// descriptor memory changed, to refresh the descriptor cache.
    Selector(Seg, u16),
    /// CR0 value.
    Cr0(u32),
    /// CR4 value.
    Cr4(u32),
    /// CR3 flag bits (PWT/PCD; the base stays at the baseline directory).
    Cr3Flags(u32),
    /// GDTR limit (base unchanged).
    GdtrLimit(u16),
    /// IDTR limit (base unchanged).
    IdtrLimit(u16),
    /// An MSR value (SYSENTER family).
    Msr(u32, u32),
}

/// A complete test state: the minimized difference from the baseline.
#[derive(Debug, Clone, Default)]
pub struct TestState {
    /// The components to establish.
    pub items: Vec<StateItem>,
}

/// Why gadget sequencing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GadgetError {
    /// The dependency graph has a cycle.
    DependencyCycle(String),
    /// No gadget exists for a required initialization.
    Unsupported(String),
    /// The test instruction is empty: there is nothing to test.
    EmptyTestInsn,
    /// A state item writes into a region the program layout owns (the code
    /// image, the gadget scratch block, or the halting handler): the
    /// initializer would corrupt the program that establishes it.
    LayoutOverlap(u32),
    /// Two state items assign different values to the same location; no
    /// emission order can satisfy both.
    AddressCollision(u32),
}

impl std::fmt::Display for GadgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GadgetError::DependencyCycle(s) => write!(f, "gadget dependency cycle: {s}"),
            GadgetError::Unsupported(s) => write!(f, "no gadget for: {s}"),
            GadgetError::EmptyTestInsn => write!(f, "empty test instruction"),
            GadgetError::LayoutOverlap(a) => {
                write!(f, "state item overlaps the program layout at {a:#x}")
            }
            GadgetError::AddressCollision(a) => {
                write!(f, "conflicting state items collide at {a:#x}")
            }
        }
    }
}

impl std::error::Error for GadgetError {}

/// Scheduling phase of a gadget; the dependency edges below are all from
/// lower to higher phases, which both encodes the prerequisite rules and
/// guarantees acyclicity for supported states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// EFLAGS first: `popf` needs the baseline stack.
    Eflags,
    /// Memory bytes (GDT entries before reloads; PTE flags late is handled
    /// by the emission order within the phase: page-table region last).
    Memory,
    /// Segment reloads (consume GDT memory, clobber EAX).
    SegReload,
    /// Descriptor-table limit updates (after reloads used the full table).
    TableRegs,
    /// MSR writes (clobber EAX/ECX/EDX).
    Msrs,
    /// Control registers (clobber EAX; may change translation).
    ControlRegs,
    /// GPRs last, restoring scratch registers (Fig. 5 line 6).
    Gprs,
}

#[derive(Debug, Clone)]
struct Gadget {
    phase: Phase,
    /// Emission order within a phase.
    rank: u32,
    item: StateItem,
}

/// The ordered plan of gadgets for a test state.
#[derive(Debug)]
pub struct GadgetPlan {
    gadgets: Vec<Gadget>,
}

impl GadgetPlan {
    /// Builds the plan: instantiate, add corrective gadgets, sort, verify.
    ///
    /// # Errors
    ///
    /// [`GadgetError`] when sequencing is impossible.
    pub fn build(state: &TestState) -> Result<GadgetPlan, GadgetError> {
        let mut gadgets: Vec<Gadget> = Vec::new();
        let mut rank = 0u32;
        let mut scratched: Vec<Gpr> = Vec::new();
        let mut explicit_gpr: HashMap<Gpr, u32> = HashMap::new();
        // Ordered by `Seg`, so a state that reloads several segments emits
        // them in one order whatever map instance collected them.
        let mut seg_reloads: BTreeMap<Seg, u16> = BTreeMap::new();

        for item in &state.items {
            rank += 1;
            match *item {
                StateItem::Gpr(r, v) => {
                    explicit_gpr.insert(r, v);
                }
                StateItem::Eflags(_) => gadgets.push(Gadget {
                    phase: Phase::Eflags,
                    rank,
                    item: *item,
                }),
                StateItem::MemByte(addr, _) => {
                    // Page-table bytes are emitted after other memory so a
                    // not-present page cannot break the remaining writes.
                    let late = (layout::PD_BASE..layout::PT_BASE + 0x1000).contains(&addr);
                    gadgets.push(Gadget {
                        phase: Phase::Memory,
                        rank: if late { rank + 1_000_000 } else { rank },
                        item: *item,
                    });
                    // A changed descriptor byte requires refreshing the
                    // cache of any segment whose descriptor contains it.
                    if let Some(seg) = segment_of_gdt_byte(addr) {
                        seg_reloads
                            .entry(seg)
                            .or_insert_with(|| layout::baseline_selector(seg));
                    }
                }
                StateItem::Selector(seg, sel) => {
                    seg_reloads.insert(seg, sel);
                }
                StateItem::Cr0(_) | StateItem::Cr4(_) | StateItem::Cr3Flags(_) => {
                    scratched.push(Gpr::Eax);
                    gadgets.push(Gadget {
                        phase: Phase::ControlRegs,
                        rank,
                        item: *item,
                    });
                }
                StateItem::GdtrLimit(_) | StateItem::IdtrLimit(_) => {
                    gadgets.push(Gadget {
                        phase: Phase::TableRegs,
                        rank,
                        item: *item,
                    });
                }
                StateItem::Msr(_, _) => {
                    scratched.extend([Gpr::Eax, Gpr::Ecx, Gpr::Edx]);
                    gadgets.push(Gadget {
                        phase: Phase::Msrs,
                        rank,
                        item: *item,
                    });
                }
            }
        }

        for (i, (seg, sel)) in seg_reloads.into_iter().enumerate() {
            scratched.push(Gpr::Eax);
            gadgets.push(Gadget {
                phase: Phase::SegReload,
                rank: i as u32,
                item: StateItem::Selector(seg, sel),
            });
        }

        // Corrective gadgets: every scratched register must end at its test
        // value (if any) or the baseline value (0).
        for r in scratched {
            explicit_gpr.entry(r).or_insert(0);
        }
        let mut gprs: Vec<(Gpr, u32)> = explicit_gpr.into_iter().collect();
        gprs.sort_by_key(|&(r, _)| r);
        for (gpr_rank, (r, v)) in (1..).zip(gprs) {
            // ESP last: later gadgets must not use the test stack pointer.
            let rank = if r == Gpr::Esp { 1_000_000 } else { gpr_rank };
            gadgets.push(Gadget {
                phase: Phase::Gprs,
                rank,
                item: StateItem::Gpr(r, v),
            });
        }

        // Topological order: phases are a DAG by construction; verify the
        // sort is stable and deterministic.
        gadgets.sort_by_key(|g| (g.phase, g.rank));
        Ok(GadgetPlan { gadgets })
    }

    /// Number of gadgets in the plan.
    pub fn len(&self) -> usize {
        self.gadgets.len()
    }

    /// `true` when the state needed no initialization.
    pub fn is_empty(&self) -> bool {
        self.gadgets.is_empty()
    }

    /// Emits the plan as guest code.
    pub fn emit(&self, a: &mut Asm, code_base: u32) {
        for g in &self.gadgets {
            emit_gadget(a, code_base, &g.item);
        }
    }

    /// The state items in emission order, including the corrective gadgets
    /// the plan added (segment reloads forced by descriptor-byte writes,
    /// scratch-register restores). The program chainer replays these into
    /// its established-state ledger so a later segment knows exactly what
    /// machine state the previous initializer left behind.
    pub fn items(&self) -> impl Iterator<Item = &StateItem> + '_ {
        self.gadgets.iter().map(|g| &g.item)
    }

    /// Human-readable listing (used by the Fig. 5 example binary).
    pub fn describe(&self) -> Vec<String> {
        self.gadgets
            .iter()
            .map(|g| format!("{:?}", g.item))
            .collect()
    }
}

/// Which segment's baseline descriptor contains this GDT byte?
fn segment_of_gdt_byte(addr: u32) -> Option<Seg> {
    if !(layout::GDT_BASE..layout::GDT_BASE + 16 * 8).contains(&addr) {
        return None;
    }
    let index = ((addr - layout::GDT_BASE) / 8) as u16;
    Seg::ALL
        .into_iter()
        .find(|&s| layout::gdt_index(s) == index)
}

fn emit_gadget(a: &mut Asm, code_base: u32, item: &StateItem) {
    match *item {
        StateItem::Gpr(r, v) => {
            a.mov_r32_imm32(r, v);
        }
        StateItem::Eflags(v) => {
            a.push_imm32(v);
            a.popf();
        }
        StateItem::MemByte(addr, v) => {
            a.mov_m8_imm8(addr, v);
        }
        StateItem::Selector(seg, sel) => {
            if seg == Seg::Cs {
                // Far jump to the next instruction reloads CS.
                let target = code_base + a.len() as u32 + 7;
                a.jmp_far(sel, target);
            } else {
                a.mov_ax_imm16(sel);
                a.mov_sreg_ax(seg);
            }
        }
        StateItem::Cr0(v) => {
            a.mov_r32_imm32(Gpr::Eax, v);
            a.mov_cr0_eax();
        }
        StateItem::Cr4(v) => {
            a.mov_r32_imm32(Gpr::Eax, v);
            a.mov_cr4_eax();
        }
        StateItem::Cr3Flags(v) => {
            a.mov_r32_imm32(Gpr::Eax, layout::PD_BASE | (v & 0x18));
            a.mov_cr3_eax();
        }
        StateItem::GdtrLimit(limit) => {
            a.mov_m16_imm16(SCRATCH_BASE, limit);
            a.mov_m32_imm32(SCRATCH_BASE + 2, layout::GDT_BASE);
            a.lgdt(SCRATCH_BASE);
        }
        StateItem::IdtrLimit(limit) => {
            a.mov_m16_imm16(SCRATCH_BASE + 8, limit);
            a.mov_m32_imm32(SCRATCH_BASE + 10, layout::IDT_BASE);
            a.lidt(SCRATCH_BASE + 8);
        }
        StateItem::Msr(addr, v) => {
            a.mov_r32_imm32(Gpr::Ecx, addr);
            a.mov_r32_imm32(Gpr::Eax, v);
            a.mov_r32_imm32(Gpr::Edx, 0);
            a.wrmsr();
        }
    }
}

/// Convenience: a selector for a GDT index with RPL 0.
pub fn sel(index: u16) -> u16 {
    selector::build(index, false, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_registers_are_restored() {
        // A segment reload scratches EAX; the plan must restore it.
        let state = TestState {
            items: vec![StateItem::Selector(Seg::Ss, sel(10))],
        };
        let plan = GadgetPlan::build(&state).unwrap();
        let desc = plan.describe();
        assert!(desc.iter().any(|d| d.contains("Selector(Ss")));
        assert!(
            desc.iter().any(|d| d.contains("Gpr(Eax, 0")),
            "EAX must be restored: {desc:?}"
        );
        // Restore comes after the reload.
        let reload = desc.iter().position(|d| d.contains("Selector")).unwrap();
        let restore = desc.iter().position(|d| d.contains("Gpr(Eax")).unwrap();
        assert!(restore > reload);
    }

    #[test]
    fn gdt_byte_changes_force_a_reload() {
        // Fig. 5: modifying the SS descriptor requires an SS reload.
        let state = TestState {
            items: vec![
                StateItem::MemByte(layout::GDT_BASE + 10 * 8 + 5, 0x13),
                StateItem::MemByte(layout::GDT_BASE + 10 * 8 + 6, 0xcf),
            ],
        };
        let plan = GadgetPlan::build(&state).unwrap();
        let desc = plan.describe();
        assert!(desc.iter().any(|d| d.contains("Selector(Ss")), "{desc:?}");
        let mem = desc.iter().rposition(|d| d.contains("MemByte")).unwrap();
        let reload = desc.iter().position(|d| d.contains("Selector")).unwrap();
        assert!(
            reload > mem,
            "descriptor bytes must be written before the reload"
        );
    }

    #[test]
    fn segment_reloads_come_out_in_seg_order() {
        // Descriptor-byte writes for four segments force four reloads. They
        // must follow `Seg` order whatever order the items came in, in every
        // plan built.
        let segs = [Seg::Gs, Seg::Ss, Seg::Es, Seg::Cs];
        for rotation in 0..segs.len() {
            for _ in 0..8 {
                let items = segs
                    .iter()
                    .cycle()
                    .skip(rotation)
                    .take(segs.len())
                    .map(|&s| {
                        let desc = layout::GDT_BASE + u32::from(layout::gdt_index(s)) * 8;
                        StateItem::MemByte(desc + 5, 0x93)
                    })
                    .collect();
                let plan = GadgetPlan::build(&TestState { items }).unwrap();
                let reloads: Vec<Seg> = plan
                    .items()
                    .filter_map(|item| match *item {
                        StateItem::Selector(s, _) => Some(s),
                        _ => None,
                    })
                    .collect();
                assert_eq!(reloads, [Seg::Es, Seg::Cs, Seg::Ss, Seg::Gs]);
            }
        }
    }

    #[test]
    fn eflags_precedes_esp() {
        let state = TestState {
            items: vec![StateItem::Gpr(Gpr::Esp, 0x2007dc), StateItem::Eflags(0x246)],
        };
        let plan = GadgetPlan::build(&state).unwrap();
        let desc = plan.describe();
        let ef = desc.iter().position(|d| d.contains("Eflags")).unwrap();
        let esp = desc.iter().position(|d| d.contains("Esp")).unwrap();
        assert!(ef < esp);
    }

    #[test]
    fn emitted_code_decodes() {
        let state = TestState {
            items: vec![
                StateItem::Gpr(Gpr::Esp, 0x2007dc),
                StateItem::MemByte(layout::GDT_BASE + 10 * 8 + 5, 0x13),
                StateItem::Eflags(0x202),
                StateItem::Msr(0x174, 0x1234),
                StateItem::Cr4(0x10),
                StateItem::GdtrLimit(0x7f),
            ],
        };
        let plan = GadgetPlan::build(&state).unwrap();
        let mut a = Asm::new();
        plan.emit(&mut a, layout::CODE_BASE);
        // Every instruction decodes.
        use pokemu_symx::Dom;
        let mut d = pokemu_symx::Concrete::new();
        let bytes = a.bytes().to_vec();
        let mut off = 0;
        while off < bytes.len() {
            let w = bytes[off..].to_vec();
            let i = pokemu_isa::decode(&mut d, |d, k| {
                Ok(d.constant(8, *w.get(k as usize).unwrap_or(&0) as u64))
            })
            .expect("gadget code must decode");
            off += i.len as usize;
        }
    }
}
