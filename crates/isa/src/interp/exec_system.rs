//! System instructions: control registers, descriptor tables, MSRs, CPUID.

use pokemu_symx::Dom;

use crate::flags;
use crate::inst::Inst;
use crate::state::flags::ZF;
use crate::state::{cr0, Exception, Gpr, VALID_MSRS};
use crate::translate;

use super::{Exec, ExecResult, Flow};

fn require_cpl0<D: Dom>(x: &mut Exec<'_, D>) -> Result<(), Exception> {
    if x.at_cpl0() {
        Ok(())
    } else {
        Err(Exception::Gp(0))
    }
}

/// `hlt` — privileged.
pub(super) fn hlt<D: Dom>(x: &mut Exec<'_, D>) -> ExecResult {
    require_cpl0(x)?;
    Ok(Flow::Halt)
}

/// `mov r32, crN` / `mov crN, r32`.
pub(super) fn mov_cr<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    require_cpl0(x)?;
    let mr = inst.modrm.as_ref().expect("modrm");
    let crn = mr.reg;
    if inst.class.opcode == 0x0f20 {
        // read CR
        let v = match crn {
            0 => {
                // ET reads as 1.
                let et = x.d.constant(32, 1 << cr0::ET);
                x.d.or(x.m.cr0, et)
            }
            2 => x.d.constant(32, x.m.cr2 as u64),
            3 => {
                let base = x.d.constant(32, x.m.cr3_base as u64);
                x.d.or(base, x.m.cr3_flags)
            }
            4 => x.m.cr4,
            _ => return Err(Exception::Ud),
        };
        x.write_reg(mr.rm, 4, v);
    } else {
        let v = x.read_reg(mr.rm, 4);
        match crn {
            0 => {
                // PG=1 requires PE=1.
                let pg = x.d.extract(v, cr0::PG, cr0::PG);
                let pe = x.d.extract(v, cr0::PE, cr0::PE);
                let npe = x.d.not(pe);
                let bad = x.d.and(pg, npe);
                if x.d.branch(bad, "CR0.PG without PE") {
                    return Err(Exception::Gp(0));
                }
                x.m.cr0 = v;
            }
            2 => x.m.cr2 = x.d.pick(v, "CR2 value") as u32,
            3 => {
                let all = x.d.pick(v, "CR3 value") as u32;
                x.m.cr3_base = all & 0xffff_f000;
                x.m.cr3_flags = x.d.constant(32, (all & 0x18) as u64);
            }
            4 => {
                // PAE is unsupported in the subset.
                let pae =
                    x.d.extract(v, crate::state::cr4::PAE, crate::state::cr4::PAE);
                if x.d.branch(pae, "CR4.PAE unsupported") {
                    return Err(Exception::Gp(0));
                }
                x.m.cr4 = v;
            }
            _ => return Err(Exception::Ud),
        }
    }
    Ok(Flow::Next)
}

/// Group `0F 00`: `sldt`/`str`/`lldt`/`ltr`/`verr`/`verw`.
pub(super) fn group_0f00<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let g = inst.class.group_reg.expect("group");
    match g {
        0 | 1 => {
            // sldt/str: no LDT/TR in the baseline environment — store 0.
            let z = x.d.constant(16, 0);
            x.write_rm(inst, 2, z)?;
        }
        2 | 3 => {
            // lldt/ltr — privileged; only the null selector is accepted
            // (the subset has no LDT or TSS descriptors).
            require_cpl0(x)?;
            let sel = x.read_rm(inst, 2)?;
            let upper = x.d.extract(sel, 15, 2);
            let z = x.d.constant(14, 0);
            let is_null = x.d.eq(upper, z);
            if !x.d.branch(is_null, "lldt/ltr non-null") {
                let pinned = x.d.pick(sel, "lldt selector") as u16;
                return Err(Exception::Gp(translate::selector_error(pinned)));
            }
        }
        4 | 5 => {
            // verr/verw: sets ZF if the selector is readable/writable.
            let sel = x.read_rm(inst, 2)?;
            let ok = verify_selector(x, sel, g == 5)?;
            x.m.eflags = flags::insert_bit(x.d, x.m.eflags, ZF, ok);
        }
        _ => return Err(Exception::Ud),
    }
    Ok(Flow::Next)
}

/// A GDT descriptor's raw low and high dwords.
type RawDescriptor<V> = (V, V);

/// Reads a descriptor for `verr`/`verw`/`lar`/`lsl`: its raw halves, or
/// `None` for a null, LDT or out-of-table selector.
fn read_descriptor_for_query<D: Dom>(
    x: &mut Exec<'_, D>,
    sel: D::V,
) -> Result<Option<RawDescriptor<D::V>>, Exception> {
    let upper = x.d.extract(sel, 15, 2);
    let z = x.d.constant(14, 0);
    let is_null = x.d.eq(upper, z);
    if x.d.branch(is_null, "query null selector") {
        return Ok(None);
    }
    let idx_ti = x.d.pick(upper, "query selector index") as u16;
    if idx_ti & 1 != 0 {
        return Ok(None); // LDT: nothing there
    }
    let in_table = translate::selector_in_table(x.d, sel, x.m.gdtr.limit);
    if !x.d.branch(in_table, "query selector in GDT") {
        return Ok(None);
    }
    let lin = x.m.gdtr.base.wrapping_add(((idx_ti >> 1) as u32) << 3);
    let lo = translate::lin_read(x.d, x.m, lin, 4)?;
    let hi = translate::lin_read(x.d, x.m, lin.wrapping_add(4), 4)?;
    Ok(Some((lo, hi)))
}

fn verify_selector<D: Dom>(
    x: &mut Exec<'_, D>,
    sel: D::V,
    want_write: bool,
) -> Result<D::V, Exception> {
    let Some((_lo, hi)) = read_descriptor_for_query(x, sel)? else {
        return Ok(x.d.ff());
    };
    let s = x.d.extract(hi, 12, 12);
    let p = x.d.extract(hi, 15, 15);
    let is_code = x.d.extract(hi, 11, 11);
    let bit1 = x.d.extract(hi, 9, 9);
    let dpl = x.d.extract(hi, 14, 13);
    let cpl = x.m.cpl(x.d);
    let rpl = x.d.extract(sel, 1, 0);
    let conforming = x.d.extract(hi, 10, 10);
    // Privilege: DPL >= max(RPL, CPL) unless conforming code.
    let r_gt = x.d.ult(cpl, rpl);
    let eff = x.d.ite(r_gt, rpl, cpl);
    let priv_ok = x.d.ule(eff, dpl);
    let conf_code = x.d.and(is_code, conforming);
    let priv_ok = x.d.or(priv_ok, conf_code);
    let ok = if want_write {
        // Writable data segment.
        let ncode = x.d.not(is_code);
        let w = x.d.and(ncode, bit1);
        x.d.and(w, priv_ok)
    } else {
        // Data, or readable code.
        let ncode = x.d.not(is_code);
        let readable_code = x.d.and(is_code, bit1);
        let r = x.d.or(ncode, readable_code);
        x.d.and(r, priv_ok)
    };
    let ok = x.d.and(ok, s);
    Ok(x.d.and(ok, p))
}

/// Group `0F 01`: `sgdt`/`sidt`/`lgdt`/`lidt`/`smsw`/`lmsw`/`invlpg`.
pub(super) fn group_0f01<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let g = inst.class.group_reg.expect("group");
    let mr = inst.modrm.as_ref().expect("modrm");
    // Memory-only sub-opcodes.
    if matches!(g, 0 | 1 | 2 | 3 | 7) && mr.mem.is_none() {
        return Err(Exception::Ud);
    }
    match g {
        0 | 1 => {
            // sgdt/sidt: store limit (2) then base (4).
            let mem = *mr.mem.as_ref().expect("memory");
            let off = x.effective_address(&mem);
            let (base, limit) = if g == 0 {
                (x.m.gdtr.base, x.m.gdtr.limit)
            } else {
                (x.m.idtr.base, x.m.idtr.limit)
            };
            translate::mem_write(x.d, x.m, mem.seg, off, limit, 2)?;
            let two = x.d.constant(32, 2);
            let off2 = x.d.add(off, two);
            let base_v = x.d.constant(32, base as u64);
            translate::mem_write(x.d, x.m, mem.seg, off2, base_v, 4)?;
        }
        2 | 3 => {
            // lgdt/lidt — privileged.
            require_cpl0(x)?;
            let mem = *mr.mem.as_ref().expect("memory");
            let off = x.effective_address(&mem);
            let limit = translate::mem_read(x.d, x.m, mem.seg, off, 2)?;
            let two = x.d.constant(32, 2);
            let off2 = x.d.add(off, two);
            let base = translate::mem_read(x.d, x.m, mem.seg, off2, 4)?;
            let base = x.d.pick(base, "descriptor table base") as u32;
            if g == 2 {
                x.m.gdtr.base = base;
                x.m.gdtr.limit = limit;
            } else {
                x.m.idtr.base = base;
                x.m.idtr.limit = limit;
            }
        }
        4 => {
            // smsw: CR0 low 16 bits; not privileged (legacy).
            let low = x.d.extract(x.m.cr0, 15, 0);
            let et = x.d.constant(16, 1 << cr0::ET);
            let low = x.d.or(low, et);
            if mr.mem.is_none() {
                let size = inst.opsize();
                let v = if size == 4 { x.d.zext(low, 32) } else { low };
                x.write_reg(mr.rm, size, v);
            } else {
                x.write_rm(inst, 2, low)?;
            }
        }
        6 => {
            // lmsw — privileged; sets PE/MP/EM/TS, cannot clear PE.
            require_cpl0(x)?;
            let v = x.read_rm(inst, 2)?;
            let low4 = x.d.extract(v, 3, 0);
            let pe_old = x.d.extract(x.m.cr0, cr0::PE, cr0::PE);
            let pe_new = x.d.extract(low4, 0, 0);
            let pe = x.d.or(pe_old, pe_new); // PE is sticky via lmsw
            let rest = x.d.extract(low4, 3, 1);
            let low4 = x.d.concat(rest, pe);
            let hi = x.d.extract(x.m.cr0, 31, 4);
            x.m.cr0 = x.d.concat(hi, low4);
        }
        7 => {
            // invlpg — privileged; no TLB model, so a checked no-op.
            require_cpl0(x)?;
        }
        _ => return Err(Exception::Ud),
    }
    Ok(Flow::Next)
}

/// `lar` / `lsl`.
pub(super) fn lar_lsl<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = inst.opsize();
    let mr = inst.modrm.as_ref().expect("modrm");
    let sel = x.read_rm(inst, 2)?;
    let desc = read_descriptor_for_query(x, sel)?;
    let Some((lo, hi)) = desc else {
        let z = x.d.ff();
        x.m.eflags = flags::insert_bit(x.d, x.m.eflags, ZF, z);
        return Ok(Flow::Next);
    };
    // Accessibility mirrors verr without the readable/writable refinement.
    let s = x.d.extract(hi, 12, 12);
    let p = x.d.extract(hi, 15, 15);
    let dpl = x.d.extract(hi, 14, 13);
    let cpl = x.m.cpl(x.d);
    let rpl = x.d.extract(sel, 1, 0);
    let is_code = x.d.extract(hi, 11, 11);
    let conforming = x.d.extract(hi, 10, 10);
    let r_gt = x.d.ult(cpl, rpl);
    let eff = x.d.ite(r_gt, rpl, cpl);
    let priv_ok = x.d.ule(eff, dpl);
    let conf = x.d.and(is_code, conforming);
    let priv_ok = x.d.or(priv_ok, conf);
    let ok0 = x.d.and(s, p);
    let ok = x.d.and(ok0, priv_ok);
    if x.d.branch(ok, "lar/lsl accessible") {
        let v = if inst.class.opcode == 0x0f02 {
            // lar: attribute bytes, masked.
            let m = x.d.constant(32, 0x00f0_ff00);
            x.d.and(hi, m)
        } else {
            // lsl: scaled limit.
            let limit_low = x.d.extract(lo, 15, 0);
            let limit_hi = x.d.extract(hi, 19, 16);
            let raw20 = x.d.concat(limit_hi, limit_low);
            let raw = x.d.zext(raw20, 32);
            let g = x.d.extract(hi, 23, 23);
            let twelve = x.d.constant(32, 12);
            let sh = x.d.shl(raw, twelve);
            let fff = x.d.constant(32, 0xfff);
            let sc = x.d.or(sh, fff);
            x.d.ite(g, sc, raw)
        };
        let v = if size == 2 { x.d.extract(v, 15, 0) } else { v };
        x.write_reg(mr.reg, size, v);
        let o = x.d.tt();
        x.m.eflags = flags::insert_bit(x.d, x.m.eflags, ZF, o);
    } else {
        let z = x.d.ff();
        x.m.eflags = flags::insert_bit(x.d, x.m.eflags, ZF, z);
    }
    Ok(Flow::Next)
}

/// `clts` — privileged.
pub(super) fn clts<D: Dom>(x: &mut Exec<'_, D>) -> ExecResult {
    require_cpl0(x)?;
    let m = x.d.constant(32, !(1u64 << cr0::TS) & 0xffff_ffff);
    x.m.cr0 = x.d.and(x.m.cr0, m);
    Ok(Flow::Next)
}

/// `invd` / `wbinvd` — privileged cache no-ops.
pub(super) fn cache_ops<D: Dom>(x: &mut Exec<'_, D>) -> ExecResult {
    require_cpl0(x)?;
    Ok(Flow::Next)
}

/// `wrmsr` (0F30), `rdtsc` (0F31), `rdmsr` (0F32).
///
/// `rdmsr` of an invalid MSR must raise #GP — the check QEMU misses (§6.2).
pub(super) fn msr_ops<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    match inst.class.opcode {
        0x0f31 => {
            // rdtsc: allowed at CPL > 0 unless CR4.TSD.
            let tsd =
                x.d.extract(x.m.cr4, crate::state::cr4::TSD, crate::state::cr4::TSD);
            if x.d.branch(tsd, "CR4.TSD set") && !x.at_cpl0() {
                return Err(Exception::Gp(0));
            }
            let tsc = x.m.msrs.tsc;
            x.m.msrs.tsc = tsc.wrapping_add(1);
            let lo = x.d.constant(32, tsc & 0xffff_ffff);
            let hi = x.d.constant(32, tsc >> 32);
            x.write_reg(Gpr::Eax as u8, 4, lo);
            x.write_reg(Gpr::Edx as u8, 4, hi);
        }
        _ => {
            require_cpl0(x)?;
            let ecx = x.read_reg(Gpr::Ecx as u8, 4);
            let addr = x.d.pick(ecx, "MSR address") as u32;
            if !VALID_MSRS.contains(&addr) {
                return Err(Exception::Gp(0));
            }
            if inst.class.opcode == 0x0f32 {
                let v = match addr {
                    0x10 => {
                        let t = x.m.msrs.tsc;
                        let lo = x.d.constant(32, t & 0xffff_ffff);
                        let hi = x.d.constant(32, t >> 32);
                        (lo, hi)
                    }
                    0x174 => (x.m.msrs.sysenter_cs, x.d.constant(32, 0)),
                    0x175 => (x.m.msrs.sysenter_esp, x.d.constant(32, 0)),
                    _ => (x.m.msrs.sysenter_eip, x.d.constant(32, 0)),
                };
                x.write_reg(Gpr::Eax as u8, 4, v.0);
                x.write_reg(Gpr::Edx as u8, 4, v.1);
            } else {
                let eax = x.read_reg(Gpr::Eax as u8, 4);
                let edx = x.read_reg(Gpr::Edx as u8, 4);
                match addr {
                    0x10 => {
                        let lo = x.d.pick(eax, "wrmsr tsc lo");
                        let hi = x.d.pick(edx, "wrmsr tsc hi");
                        x.m.msrs.tsc = (hi << 32) | lo;
                    }
                    0x174 => x.m.msrs.sysenter_cs = eax,
                    0x175 => x.m.msrs.sysenter_esp = eax,
                    _ => x.m.msrs.sysenter_eip = eax,
                }
            }
        }
    }
    Ok(Flow::Next)
}

/// `cpuid`: deterministic fixed values per leaf.
pub(super) fn cpuid<D: Dom>(x: &mut Exec<'_, D>) -> ExecResult {
    let eax = x.read_reg(Gpr::Eax as u8, 4);
    let zero = x.d.constant(32, 0);
    let leaf_is_zero = x.d.eq(eax, zero);
    if x.d.branch(leaf_is_zero, "cpuid leaf 0") {
        // Max leaf = 1; vendor string "VX86PokeEMUrs" style.
        let max = x.d.constant(32, 1);
        let b = x.d.constant(32, u32::from_le_bytes(*b"VX86") as u64);
        let dd = x.d.constant(32, u32::from_le_bytes(*b"Poke") as u64);
        let c = x.d.constant(32, u32::from_le_bytes(*b"EMUr") as u64);
        x.write_reg(Gpr::Eax as u8, 4, max);
        x.write_reg(Gpr::Ebx as u8, 4, b);
        x.write_reg(Gpr::Edx as u8, 4, dd);
        x.write_reg(Gpr::Ecx as u8, 4, c);
    } else {
        // Leaf 1 (and everything else): family/model + feature bits (PSE,
        // MSR, TSC, CMOV).
        let sig = x.d.constant(32, 0x0000_0611);
        let feat = x.d.constant(32, (1 << 3) | (1 << 4) | (1 << 5) | (1 << 15));
        x.write_reg(Gpr::Eax as u8, 4, sig);
        x.write_reg(Gpr::Ebx as u8, 4, zero);
        x.write_reg(Gpr::Ecx as u8, 4, zero);
        x.write_reg(Gpr::Edx as u8, 4, feat);
    }
    Ok(Flow::Next)
}
