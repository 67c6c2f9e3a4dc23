//! Construction of the symbolic machine state (paper §3.3.1, Figure 3).
//!
//! The choice of which state is symbolic is the main control over the
//! explored space. Following Figure 3:
//!
//! * all general-purpose registers are symbolic;
//! * EFLAGS is symbolic except the fixed/reserved bits and VM/RF;
//! * segment *selectors* are symbolic; descriptor *caches* are recomputed
//!   from symbolic GDT descriptor bytes through the (summarized)
//!   descriptor-load computation, with the base address bytes left concrete;
//! * CR0/CR4 are symbolic except PE/PG (pinned to protected mode with
//!   paging, the tested configuration) and PAE (unsupported); CR3's PWT/PCD
//!   flags are symbolic while the directory base stays concrete;
//! * GDTR/IDTR limits are symbolic, their bases concrete;
//! * SYSENTER MSRs are symbolic;
//! * page-directory/page-table entries have symbolic flag bytes and concrete
//!   frame addresses;
//! * all other memory is symbolic on demand (`mem_XXXXXXXX` variables).
//!
//! Every symbolic location has a stable *name*; `pokemu-testgen` turns
//! `(name, value)` differences from the baseline into initializer gadgets.

use std::collections::HashMap;

use pokemu_isa::snapshot::Snapshot;
use pokemu_isa::state::{attrs, flags as fl, DescCache, Gpr, Machine, Msrs, Seg, SegReg, TableReg};
use pokemu_isa::translate::{desc_kind, descriptor_checks_hooked};
use pokemu_isa::{Memory, MissingPolicy};
use pokemu_solver::{TermId, VarId};
use pokemu_symx::{Dom, Executor};
use pokemu_testgen::layout;

/// Fixed EFLAGS bits during exploration: bit 1 reads 1; bits 3/5/15,
/// VM, RF, and everything above VIP read 0.
const EFLAGS_PIN_MASK: u32 = !fl::WRITABLE | fl::FIXED_ONE;

/// Builds the symbolic machine for one exploration path.
///
/// `baseline` supplies every concrete value (the paper uses "a snapshot of
/// the baseline machine state" as concrete inputs, §6.1). The memory
/// template should be built once with [`symbolic_memory_template`]; each
/// path's machine shares its pages and copies a page only when the path
/// first writes it or materializes a byte in it.
pub fn symbolic_machine(
    exec: &mut Executor,
    baseline: &Snapshot,
    mem_template: &Memory<TermId>,
) -> Machine<TermId> {
    let mut gpr = [exec.constant(32, 0); 8];
    for r in Gpr::ALL {
        gpr[r as usize] = exec.fresh_input(32, r.name());
    }

    // EFLAGS: symbolic with the fixed bits pinned by a side constraint.
    let eflags = exec.fresh_input(32, "eflags");
    let pin_mask = exec.constant(32, EFLAGS_PIN_MASK as u64);
    let pinned = exec.and(eflags, pin_mask);
    let pin_val = exec.constant(32, (baseline.eflags & EFLAGS_PIN_MASK) as u64);
    let ok = exec.eq(pinned, pin_val);
    exec.assume(ok);

    // CR0: PE and PG pinned to 1 (the tested mode, §6).
    let cr0 = exec.fresh_input(32, "cr0");
    let cr0_pin = exec.constant(32, 0x8000_0001);
    let cr0_masked = exec.and(cr0, cr0_pin);
    let ok = exec.eq(cr0_masked, cr0_pin);
    exec.assume(ok);

    // CR4: PAE must stay 0 (unsupported); PSE and friends symbolic.
    let cr4 = exec.fresh_input(32, "cr4");
    let pae = exec.extract(
        cr4,
        pokemu_isa::state::cr4::PAE,
        pokemu_isa::state::cr4::PAE,
    );
    let z1 = exec.ff();
    let ok = exec.eq(pae, z1);
    exec.assume(ok);

    // CR3: flags symbolic (PWT/PCD only), base concrete.
    let cr3_flags = exec.fresh_input(32, "cr3_flags");
    let allowed = exec.constant(32, !0x18u64 & 0xffff_ffff);
    let zero32 = exec.constant(32, 0);
    let outside = exec.and(cr3_flags, allowed);
    let ok = exec.eq(outside, zero32);
    exec.assume(ok);

    // Table registers: symbolic limits, concrete bases.
    let gdtr_limit = exec.fresh_input(16, "gdtr_limit");
    let idtr_limit = exec.fresh_input(16, "idtr_limit");

    let msrs = Msrs {
        sysenter_cs: exec.fresh_input(32, "msr_sysenter_cs"),
        sysenter_esp: exec.fresh_input(32, "msr_sysenter_esp"),
        sysenter_eip: exec.fresh_input(32, "msr_sysenter_eip"),
        tsc: 0,
    };

    let mut mem = mem_template.clone();

    // Segment registers: symbolic selectors; caches recomputed from the
    // (partially symbolic) descriptor bytes via the summarized check.
    let mut segs: [SegReg<TermId>; 6] = [SegReg {
        selector: exec.constant(16, 0),
        cache: DescCache {
            base: zero32,
            limit: zero32,
            attrs: exec.constant(attrs::WIDTH, 0),
        },
    }; 6];
    // CS first: its DPL is the CPL input for the remaining loads. CPL is
    // pinned to ring 0: the baseline environment runs at ring 0 and the
    // initializer gadgets cannot perform privilege transitions, so other
    // rings would only produce tests that fault identically during
    // initialization (the paper's setup has the same property).
    let sel_cs = exec.fresh_input(16, &format!("sel_{}", Seg::Cs.name()));
    let rpl_cs = exec.extract(sel_cs, 1, 0);
    let z2 = exec.constant(2, 0);
    let ok = exec.eq(rpl_cs, z2);
    exec.assume(ok);
    let cs_cache = load_cache(exec, &mut mem, Seg::Cs, sel_cs, None);
    segs[Seg::Cs as usize] = SegReg {
        selector: sel_cs,
        cache: cs_cache,
    };
    let cpl = exec.extract(cs_cache.attrs, attrs::DPL_LO + 1, attrs::DPL_LO);
    let ok = exec.eq(cpl, z2);
    exec.assume(ok);
    for seg in [Seg::Es, Seg::Ss, Seg::Ds, Seg::Fs, Seg::Gs] {
        let sel = exec.fresh_input(16, &format!("sel_{}", seg.name()));
        let cache = load_cache(exec, &mut mem, seg, sel, Some(cpl));
        segs[seg as usize] = SegReg {
            selector: sel,
            cache,
        };
    }

    Machine {
        gpr,
        eip: layout::CODE_BASE, // representative; the test instruction address
        eflags,
        segs,
        cr0,
        cr2: baseline.cr2,
        cr3_base: baseline.cr3 & 0xffff_f000,
        cr3_flags,
        cr4,
        gdtr: TableReg {
            base: baseline.gdtr.0,
            limit: gdtr_limit,
        },
        idtr: TableReg {
            base: baseline.idtr.0,
            limit: idtr_limit,
        },
        msrs,
        mem,
    }
}

/// Recomputes one descriptor cache from GDT memory (through the summary
/// hook when registered — the §3.3.2 optimization), assuming the load
/// succeeded: the baseline environment *did* load these segments.
fn load_cache(
    exec: &mut Executor,
    mem: &mut Memory<TermId>,
    seg: Seg,
    sel: TermId,
    cpl: Option<TermId>,
) -> DescCache<TermId> {
    let entry = layout::gdt_index(seg) as u32;
    let lin = layout::GDT_BASE + entry * 8;
    let lo = mem.read(exec, lin, 4);
    let hi = mem.read(exec, lin + 4, 4);
    let cpl = cpl.unwrap_or_else(|| exec.extract(sel, 1, 0));
    let kind = exec.constant(
        2,
        match seg {
            Seg::Cs => desc_kind::CODE,
            Seg::Ss => desc_kind::STACK,
            _ => desc_kind::DATA,
        },
    );
    let [fault, base, limit, attrs_v] = descriptor_checks_hooked(exec, lo, hi, sel, cpl, kind);
    // The baseline segments are loaded: constrain to the no-fault case.
    let z8 = exec.constant(8, 0);
    let ok = exec.eq(fault, z8);
    exec.assume(ok);
    // The selector must reference this segment's baseline GDT entry (its
    // index is where the cache was loaded from); TI = 0.
    let idx = exec.extract(sel, 15, 3);
    let want = exec.constant(13, entry as u64);
    let ok = exec.eq(idx, want);
    exec.assume(ok);
    let ti = exec.extract(sel, 2, 2);
    let z1 = exec.ff();
    let ok = exec.eq(ti, z1);
    exec.assume(ok);
    DescCache {
        base,
        limit,
        attrs: attrs_v,
    }
}

/// Builds the memory template: the baseline image with the Figure-3
/// symbolic holes (descriptor attribute bytes, PDE/PTE flag bytes), plus
/// on-demand symbolic everywhere uninitialized. Its pages are shared, so
/// cloning it copies none.
pub fn symbolic_memory_template(exec: &mut Executor, baseline: &Snapshot) -> Memory<TermId> {
    let mut mem: Memory<TermId> = Memory::new();
    mem.set_policy(MissingPolicy::Symbolic);
    // One constant term per non-zero byte, interned in ascending address
    // order: the order fixes term ids and hence solver models.
    for (addr, byte) in baseline.mem.iter() {
        if symbolic_hole(addr) {
            continue; // leave uninitialized: becomes mem_XXXXXXXX on demand
        }
        let v = exec.constant(8, byte as u64);
        mem.write_u8(addr, v);
    }
    // The snapshot omits zero bytes, but the *structured* regions (GDT,
    // page directory, page table) must be concretely zero-filled outside
    // the designated holes — otherwise a zero base-address byte would read
    // as an on-demand symbolic variable.
    let zero = exec.constant(8, 0);
    let fill = |lo: u32, hi: u32, mem: &mut Memory<TermId>| {
        for addr in lo..hi {
            if !symbolic_hole(addr) && baseline.mem.get(addr) == 0 {
                mem.write_u8(addr, zero);
            }
        }
    };
    fill(layout::GDT_BASE, layout::GDT_BASE + 16 * 8, &mut mem);
    fill(layout::PD_BASE, layout::PD_BASE + 0x1000, &mut mem);
    fill(layout::PT_BASE, layout::PT_BASE + 0x1000, &mut mem);
    mem.share();
    mem
}

/// Is this baseline byte a deliberate symbolic hole (Fig. 3)?
fn symbolic_hole(addr: u32) -> bool {
    // GDT descriptor bytes 0, 1 (limit), 5 (type/S/DPL/P), 6 (limit/flags)
    // of the six baseline entries; bytes 2, 3, 4, 7 (base) stay concrete.
    for seg in Seg::ALL {
        let e = layout::GDT_BASE + layout::gdt_index(seg) as u32 * 8;
        if addr >= e && addr < e + 8 {
            return matches!(addr - e, 0 | 1 | 5 | 6);
        }
    }
    // PDE/PTE low flag byte (P/RW/US/PWT/PCD/A/D/PS-PAT); address bytes
    // stay concrete.
    if (layout::PD_BASE..layout::PD_BASE + 0x1000).contains(&addr)
        || (layout::PT_BASE..layout::PT_BASE + 0x1000).contains(&addr)
    {
        return addr & 3 == 0;
    }
    false
}

/// The baseline value of a named symbolic location, for state-difference
/// minimization (§3.4) and test-state extraction.
pub fn baseline_value_of(name: &str, baseline: &Snapshot) -> u64 {
    if let Some(hex) = name.strip_prefix("mem_") {
        let addr = u32::from_str_radix(hex, 16).expect("mem var name");
        return baseline.mem.get(addr) as u64;
    }
    if let Some(seg) = name.strip_prefix("sel_") {
        let s = Seg::ALL
            .into_iter()
            .find(|s| s.name() == seg)
            .expect("segment name");
        return baseline.segs[s as usize].selector as u64;
    }
    match name {
        "eax" | "ecx" | "edx" | "ebx" | "esp" | "ebp" | "esi" | "edi" => {
            let r = Gpr::ALL
                .into_iter()
                .find(|r| r.name() == name)
                .expect("gpr");
            baseline.gpr[r as usize] as u64
        }
        "eflags" => baseline.eflags as u64,
        "cr0" => baseline.cr0 as u64,
        "cr4" => baseline.cr4 as u64,
        "cr3_flags" => (baseline.cr3 & 0x18) as u64,
        "gdtr_limit" => baseline.gdtr.1 as u64,
        "idtr_limit" => baseline.idtr.1 as u64,
        "msr_sysenter_cs" | "msr_sysenter_esp" | "msr_sysenter_eip" => 0,
        _ => 0, // summary formals and scratch variables
    }
}

/// Builds the complete baseline environment (variable -> value) for
/// minimization, from the variables the exploration actually created.
pub fn baseline_env(exec: &Executor, baseline: &Snapshot) -> HashMap<VarId, u64> {
    exec.named_vars()
        .into_iter()
        .map(|(name, var)| (var, baseline_value_of(&name, baseline)))
        .collect()
}

/// Converts a named variable difference into a test-state item (the glue
/// between exploration output and gadget input).
pub fn state_item_of(name: &str, value: u64) -> Option<pokemu_testgen::StateItem> {
    use pokemu_testgen::StateItem;
    if let Some(hex) = name.strip_prefix("mem_") {
        let addr = u32::from_str_radix(hex, 16).ok()?;
        return Some(StateItem::MemByte(addr, value as u8));
    }
    if let Some(seg) = name.strip_prefix("sel_") {
        let s = Seg::ALL.into_iter().find(|s| s.name() == seg)?;
        return Some(StateItem::Selector(s, value as u16));
    }
    match name {
        "eax" | "ecx" | "edx" | "ebx" | "esp" | "ebp" | "esi" | "edi" => {
            let r = Gpr::ALL.into_iter().find(|r| r.name() == name)?;
            Some(pokemu_testgen::StateItem::Gpr(r, value as u32))
        }
        "eflags" => Some(pokemu_testgen::StateItem::Eflags(value as u32)),
        "cr0" => Some(pokemu_testgen::StateItem::Cr0(value as u32)),
        "cr4" => Some(pokemu_testgen::StateItem::Cr4(value as u32)),
        "cr3_flags" => Some(pokemu_testgen::StateItem::Cr3Flags(value as u32)),
        "gdtr_limit" => Some(pokemu_testgen::StateItem::GdtrLimit(value as u16)),
        "idtr_limit" => Some(pokemu_testgen::StateItem::IdtrLimit(value as u16)),
        "msr_sysenter_cs" => Some(pokemu_testgen::StateItem::Msr(0x174, value as u32)),
        "msr_sysenter_esp" => Some(pokemu_testgen::StateItem::Msr(0x175, value as u32)),
        "msr_sysenter_eip" => Some(pokemu_testgen::StateItem::Msr(0x176, value as u32)),
        _ => None, // summary formals etc. are not machine state
    }
}
