//! The instruction decoder, generic over the value domain.
//!
//! Decoding *dispatches* on prefix, opcode and ModRM bytes, so those are
//! concretized through the domain: under symbolic execution each examined
//! byte forks over its feasible values, which is precisely how PokeEMU
//! enumerates candidate instructions from an emulator's parser (paper §3.2).
//! The SIB byte does not select per-instruction code, so it is resolved with
//! a single representative value ([`pokemu_symx::Dom::pick`]) — the paper's
//! observation that "every implementation has a unique representative based
//! on the first three bytes". Displacements and immediates are never
//! concretized; they flow through decoded instructions as data.

use pokemu_symx::Dom;

use crate::inst::{Inst, InstClass, MemOperand, ModRm, Rep};
use crate::state::{Exception, Gpr, Seg};

/// How an opcode's operand bytes are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// No ModRM, no immediate.
    Bare,
    /// ModRM only.
    M,
    /// ModRM + 8-bit immediate.
    Mi8,
    /// ModRM + z-sized (16/32) immediate.
    Miz,
    /// 8-bit immediate.
    I8,
    /// z-sized immediate.
    Iz,
    /// 16-bit immediate.
    I16,
    /// 8-bit relative branch displacement.
    Rel8,
    /// z-sized relative branch displacement.
    RelZ,
    /// Direct far pointer: z-sized offset + 16-bit selector.
    FarImm,
    /// 32-bit absolute memory offset (`mov al, [moffs]` family).
    Offs,
    /// `enter`: 16-bit immediate + 8-bit immediate.
    Enter,
    /// `f6`/`f7` group: immediate present only for sub-opcodes 0 and 1.
    GroupF6,
    /// `0f 20`/`0f 22`: ModRM where `mod` is ignored (always registers).
    MovCr,
}

/// Static decode properties of one opcode.
#[derive(Debug, Clone, Copy)]
pub struct OpInfo {
    /// Operand layout.
    pub form: Form,
    /// 8-bit operand size (separate opcodes in x86).
    pub byteop: bool,
    /// The ModRM `reg` field selects a sub-opcode.
    pub group: bool,
    /// Bitmask of valid `reg` values for groups (bit n = reg n valid).
    pub group_valid: u8,
    /// Memory-only ModRM (`mod == 3` is #UD), e.g. `lea`, `les`, `lgdt`.
    pub mem_only: bool,
}

impl OpInfo {
    const fn new(form: Form) -> OpInfo {
        OpInfo {
            form,
            byteop: false,
            group: false,
            group_valid: 0xff,
            mem_only: false,
        }
    }
    const fn byte(mut self) -> OpInfo {
        self.byteop = true;
        self
    }
    const fn grp(mut self, valid: u8) -> OpInfo {
        self.group = true;
        self.group_valid = valid;
        self
    }
    const fn memonly(mut self) -> OpInfo {
        self.mem_only = true;
        self
    }
}

/// Looks up decode metadata for `opcode` (`0x0F00 | b` for two-byte).
///
/// Returns `None` for encodings that are invalid (#UD) in the VX86 subset,
/// including floating point (`D8..DF`), I/O (`6C..6F`, `E4..E7`, `EC..EF`),
/// and the address-size prefix `67`.
pub fn op_info(opcode: u16) -> Option<OpInfo> {
    use Form::*;
    let i = OpInfo::new;
    Some(match opcode {
        // ALU families: op r/m,r | r,r/m | AL,imm8 | eAX,immz
        0x00 | 0x08 | 0x10 | 0x18 | 0x20 | 0x28 | 0x30 | 0x38 => i(M).byte(),
        0x01 | 0x09 | 0x11 | 0x19 | 0x21 | 0x29 | 0x31 | 0x39 => i(M),
        0x02 | 0x0a | 0x12 | 0x1a | 0x22 | 0x2a | 0x32 | 0x3a => i(M).byte(),
        0x03 | 0x0b | 0x13 | 0x1b | 0x23 | 0x2b | 0x33 | 0x3b => i(M),
        0x04 | 0x0c | 0x14 | 0x1c | 0x24 | 0x2c | 0x34 | 0x3c => i(I8).byte(),
        0x05 | 0x0d | 0x15 | 0x1d | 0x25 | 0x2d | 0x35 | 0x3d => i(Iz),
        // push/pop segment registers
        0x06 | 0x07 | 0x0e | 0x16 | 0x17 | 0x1e | 0x1f => i(Bare),
        // BCD adjust
        0x27 | 0x2f | 0x37 | 0x3f => i(Bare),
        // inc/dec/push/pop r32
        0x40..=0x5f => i(Bare),
        0x60 | 0x61 => i(Bare), // pusha/popa
        0x62 => i(M).memonly(), // bound
        0x63 => i(M),           // arpl (operates on r/m16)
        0x68 => i(Iz),          // push imm
        0x69 => i(Miz),         // imul r, r/m, immz
        0x6a => i(I8),          // push imm8
        0x6b => i(Mi8),         // imul r, r/m, imm8
        0x70..=0x7f => i(Rel8), // jcc
        0x80 => i(Mi8).byte().grp(0xff),
        0x81 => i(Miz).grp(0xff),
        0x82 => i(Mi8).byte().grp(0xff), // alias of 0x80 (valid on real CPUs)
        0x83 => i(Mi8).grp(0xff),        // sign-extended imm8
        0x84 => i(M).byte(),             // test
        0x85 => i(M),
        0x86 => i(M).byte(), // xchg
        0x87 => i(M),
        0x88 => i(M).byte(), // mov
        0x89 => i(M),
        0x8a => i(M).byte(),
        0x8b => i(M),
        0x8c => i(M),           // mov r/m16, sreg
        0x8d => i(M).memonly(), // lea
        0x8e => i(M),           // mov sreg, r/m16
        0x8f => i(M).grp(0x01), // pop r/m
        0x90..=0x97 => i(Bare), // xchg eax, r
        0x98 | 0x99 => i(Bare), // cbw/cwd
        0x9a => i(FarImm),      // call far
        0x9c..=0x9f => i(Bare), // pushf/popf/sahf/lahf
        0xa0..=0xa3 => i(Offs), // mov moffs forms
        0xa4..=0xa7 => i(Bare), // movs/cmps
        0xa8 => i(I8).byte(),   // test al, imm8
        0xa9 => i(Iz),
        0xaa..=0xaf => i(Bare),          // stos/lods/scas
        0xb0..=0xb7 => i(I8).byte(),     // mov r8, imm8
        0xb8..=0xbf => i(Iz),            // mov r, immz
        0xc0 => i(Mi8).byte().grp(0xff), // shift group
        0xc1 => i(Mi8).grp(0xff),
        0xc2 => i(I16), // ret imm16
        0xc3 => i(Bare),
        0xc4 | 0xc5 => i(M).memonly(),   // les/lds
        0xc6 => i(Mi8).byte().grp(0x01), // mov r/m8, imm8
        0xc7 => i(Miz).grp(0x01),
        0xc8 => i(Enter),
        0xc9 => i(Bare), // leave
        0xca => i(I16),  // retf imm16
        0xcb => i(Bare), // retf
        0xcc => i(Bare), // int3
        0xcd => i(I8),   // int imm8
        0xce => i(Bare), // into
        0xcf => i(Bare), // iret
        0xd0 => i(M).byte().grp(0xff),
        0xd1 => i(M).grp(0xff),
        0xd2 => i(M).byte().grp(0xff),
        0xd3 => i(M).grp(0xff),
        0xd4 | 0xd5 => i(I8),   // aam/aad
        0xd6 => i(Bare),        // salc (undocumented but implemented by CPUs)
        0xd7 => i(Bare),        // xlat
        0xe0..=0xe3 => i(Rel8), // loopne/loope/loop/jecxz
        0xe8 => i(RelZ),        // call rel
        0xe9 => i(RelZ),        // jmp rel
        0xea => i(FarImm),      // jmp far
        0xeb => i(Rel8),
        0xf1 => i(Bare), // int1/icebp (undocumented)
        0xf4 => i(Bare), // hlt
        0xf5 => i(Bare), // cmc
        0xf6 => i(GroupF6).byte().grp(0xff),
        0xf7 => i(GroupF6).grp(0xff),
        0xf8..=0xfd => i(Bare),        // clc/stc/cli/sti/cld/std
        0xfe => i(M).byte().grp(0x03), // inc/dec r/m8
        0xff => i(M).grp(0x7f),        // inc/dec/call/callf/jmp/jmpf/push
        // ---- two-byte opcodes ----
        0x0f00 => i(M).grp(0x3f),    // sldt/str/lldt/ltr/verr/verw
        0x0f01 => i(M).grp(0xdf),    // sgdt/sidt/lgdt/lidt/smsw/lmsw/invlpg
        0x0f02 | 0x0f03 => i(M),     // lar/lsl
        0x0f06 => i(Bare),           // clts
        0x0f08 | 0x0f09 => i(Bare),  // invd/wbinvd
        0x0f20 | 0x0f22 => i(MovCr), // mov r32<->cr
        0x0f30..=0x0f32 => i(Bare),  // wrmsr/rdtsc/rdmsr
        0x0f40..=0x0f4f => i(M),     // cmovcc
        0x0f80..=0x0f8f => i(RelZ),  // jcc rel32
        0x0f90..=0x0f9f => i(M).byte().grp(0x01), // setcc (reg must be 0)
        0x0fa0 | 0x0fa1 => i(Bare),  // push/pop fs
        0x0fa2 => i(Bare),           // cpuid
        0x0fa3 => i(M),              // bt
        0x0fa4 => i(Mi8),            // shld imm8
        0x0fa5 => i(M),              // shld cl
        0x0fa8 | 0x0fa9 => i(Bare),  // push/pop gs
        0x0fab => i(M),              // bts
        0x0fac => i(Mi8),            // shrd imm8
        0x0fad => i(M),              // shrd cl
        0x0faf => i(M),              // imul r, r/m
        0x0fb0 => i(M).byte(),       // cmpxchg r/m8
        0x0fb1 => i(M),              // cmpxchg
        0x0fb2 => i(M).memonly(),    // lss
        0x0fb3 => i(M),              // btr
        0x0fb4 | 0x0fb5 => i(M).memonly(), // lfs/lgs
        0x0fb6 | 0x0fb7 => i(M),     // movzx
        0x0fba => i(Mi8).grp(0xf0),  // bt group (reg 4..7)
        0x0fbb => i(M),              // btc
        0x0fbc | 0x0fbd => i(M),     // bsf/bsr
        0x0fbe | 0x0fbf => i(M),     // movsx
        0x0fc0 => i(M).byte(),       // xadd r/m8
        0x0fc1 => i(M),              // xadd
        0x0fc8..=0x0fcf => i(Bare),  // bswap
        _ => return None,
    })
}

/// Whether a LOCK prefix is architecturally allowed for this instruction
/// (requires a memory destination and a read-modify-write opcode).
pub fn lock_allowed(opcode: u16, group_reg: Option<u8>, is_mem: bool) -> bool {
    if !is_mem {
        return false;
    }
    match opcode {
        0x00 | 0x01 | 0x08 | 0x09 | 0x10 | 0x11 | 0x18 | 0x19 | 0x20 | 0x21 | 0x28 | 0x29
        | 0x30 | 0x31 => true, // alu m, r forms
        0x80..=0x83 => group_reg != Some(7), // not cmp
        0x86 | 0x87 => true,                 // xchg
        0xf6 | 0xf7 => matches!(group_reg, Some(2) | Some(3)), // not/neg
        0xfe | 0xff => matches!(group_reg, Some(0) | Some(1)), // inc/dec
        0x0fab | 0x0fb3 | 0x0fbb => true,    // bts/btr/btc
        0x0fba => matches!(group_reg, Some(5) | Some(6) | Some(7)),
        0x0fb0 | 0x0fb1 => true, // cmpxchg
        0x0fc0 | 0x0fc1 => true, // xadd
        _ => false,
    }
}

const MAX_PREFIXES: usize = 4;

/// Decodes one instruction.
///
/// `fetch(d, idx)` supplies the byte at offset `idx` from the instruction
/// start; it may fault (e.g. a page fault on the fetch path).
///
/// # Errors
///
/// Returns the exception the *decode stage* raises: [`Exception::Ud`] for
/// invalid encodings, or any fault propagated from `fetch`.
pub fn decode<D, F>(d: &mut D, mut fetch: F) -> Result<Inst<D::V>, Exception>
where
    D: Dom,
    F: FnMut(&mut D, u8) -> Result<D::V, Exception>,
{
    let mut idx: u8 = 0;
    let mut next = |d: &mut D, idx: &mut u8| -> Result<D::V, Exception> {
        if *idx >= 15 {
            return Err(Exception::Gp(0)); // >15 bytes: general protection
        }
        let b = fetch(d, *idx)?;
        *idx += 1;
        Ok(b)
    };

    // ---- prefixes ----
    let mut seg_override: Option<Seg> = None;
    let mut lock = false;
    let mut rep: Option<Rep> = None;
    let mut opsize16 = false;
    let mut first: u64;
    let mut prefix_count = 0;
    loop {
        let raw = next(d, &mut idx)?;
        first = d.concretize(raw, "prefix/opcode byte");
        let seg = match first {
            0x26 => Some(Seg::Es),
            0x2e => Some(Seg::Cs),
            0x36 => Some(Seg::Ss),
            0x3e => Some(Seg::Ds),
            0x64 => Some(Seg::Fs),
            0x65 => Some(Seg::Gs),
            _ => None,
        };
        let is_prefix = seg.is_some() || matches!(first, 0x66 | 0xf0 | 0xf2 | 0xf3);
        if !is_prefix {
            break;
        }
        prefix_count += 1;
        if prefix_count > MAX_PREFIXES {
            return Err(Exception::Ud);
        }
        match first {
            0x66 => opsize16 = true,
            0xf0 => lock = true,
            0xf2 => rep = Some(Rep::RepNe),
            0xf3 => rep = Some(Rep::RepE),
            _ => seg_override = seg,
        }
    }

    // ---- opcode ----
    let opcode: u16 = if first == 0x0f {
        let b2 = next(d, &mut idx)?;
        0x0f00 | d.concretize(b2, "second opcode byte") as u16
    } else {
        first as u16
    };
    let info = op_info(opcode).ok_or(Exception::Ud)?;

    // ---- ModRM ----
    let has_modrm = matches!(
        info.form,
        Form::M | Form::Mi8 | Form::Miz | Form::GroupF6 | Form::MovCr
    );
    let mut modrm: Option<ModRm<D::V>> = None;
    if has_modrm {
        let raw = next(d, &mut idx)?;
        let mode_bits = d.extract(raw, 7, 6);
        let mode = d.concretize(mode_bits, "modrm.mod") as u8;
        let reg_bits = d.extract(raw, 5, 3);
        let reg = d.concretize(reg_bits, "modrm.reg") as u8;
        let rm_bits = d.extract(raw, 2, 0);
        let rm = d.concretize(rm_bits, "modrm.rm") as u8;
        if info.group && info.group_valid & (1 << reg) == 0 {
            return Err(Exception::Ud);
        }
        let mode = if info.form == Form::MovCr { 3 } else { mode };
        if info.mem_only && mode == 3 {
            return Err(Exception::Ud);
        }
        let mem = if mode == 3 {
            None
        } else {
            Some(decode_mem(d, &mut next, &mut idx, mode, rm, seg_override)?)
        };
        modrm = Some(ModRm { mode, reg, rm, mem });
    }

    // ---- immediates ----
    let opsize: u8 = if opsize16 { 2 } else { 4 };
    let mut imm: Option<D::V> = None;
    let mut imm2: Option<D::V> = None;
    match info.form {
        Form::I8 | Form::Mi8 | Form::Rel8 => imm = Some(read_imm(d, &mut next, &mut idx, 1)?),
        Form::Iz | Form::Miz | Form::RelZ => imm = Some(read_imm(d, &mut next, &mut idx, opsize)?),
        Form::I16 => imm = Some(read_imm(d, &mut next, &mut idx, 2)?),
        Form::Offs => imm = Some(read_imm(d, &mut next, &mut idx, 4)?),
        Form::FarImm => {
            imm = Some(read_imm(d, &mut next, &mut idx, opsize)?);
            imm2 = Some(read_imm(d, &mut next, &mut idx, 2)?);
        }
        Form::Enter => {
            imm = Some(read_imm(d, &mut next, &mut idx, 2)?);
            imm2 = Some(read_imm(d, &mut next, &mut idx, 1)?);
        }
        Form::GroupF6 => {
            let g = modrm.as_ref().expect("groupf6 has modrm").reg;
            if g <= 1 {
                // test r/m, imm (reg 1 is the undocumented alias)
                let n = if info.byteop { 1 } else { opsize };
                imm = Some(read_imm(d, &mut next, &mut idx, n)?);
            }
        }
        Form::Bare | Form::M | Form::MovCr => {}
    }

    let (group_reg, mem_operand) = match &modrm {
        Some(m) => (
            if info.group { Some(m.reg) } else { None },
            Some(m.mem.is_some()),
        ),
        None => (None, None),
    };

    // LOCK prefix legality.
    if lock && !lock_allowed(opcode, group_reg, mem_operand == Some(true)) {
        return Err(Exception::Ud);
    }

    Ok(Inst {
        class: InstClass {
            opcode,
            group_reg,
            mem_operand,
            opsize16: opsize16 && opcode_sized(opcode, info),
        },
        len: idx,
        seg_override,
        lock,
        rep,
        opsize16,
        modrm,
        imm,
        imm2,
    })
}

/// Whether operand size affects this opcode's per-instruction code (byte ops
/// and control ops ignore 0x66 for class purposes).
fn opcode_sized(opcode: u16, info: OpInfo) -> bool {
    !info.byteop && !matches!(opcode, 0x70..=0x7f | 0xe0..=0xe3 | 0xeb | 0x0f80..=0x0f8f)
}

fn read_imm<D, F>(d: &mut D, next: &mut F, idx: &mut u8, nbytes: u8) -> Result<D::V, Exception>
where
    D: Dom,
    F: FnMut(&mut D, &mut u8) -> Result<D::V, Exception>,
{
    let mut v = next(d, idx)?;
    for _ in 1..nbytes {
        let b = next(d, idx)?;
        v = d.concat(b, v);
    }
    Ok(v)
}

fn decode_mem<D, F>(
    d: &mut D,
    next: &mut F,
    idx: &mut u8,
    mode: u8,
    rm: u8,
    seg_override: Option<Seg>,
) -> Result<MemOperand<D::V>, Exception>
where
    D: Dom,
    F: FnMut(&mut D, &mut u8) -> Result<D::V, Exception>,
{
    let mut base: Option<Gpr> = None;
    let mut index: Option<(Gpr, u8)> = None;
    let mut disp: Option<D::V> = None;
    let mut force_disp32 = false;

    if rm == 4 {
        // SIB byte: does not select per-instruction code, so a single
        // representative value suffices (paper §3.2).
        let raw = next(d, idx)?;
        let sib = d.pick(raw, "sib byte") as u8;
        let scale = sib >> 6;
        let idx_bits = (sib >> 3) & 7;
        let base_bits = sib & 7;
        if idx_bits != 4 {
            index = Some((Gpr::from_bits(idx_bits), scale));
        }
        if base_bits == 5 && mode == 0 {
            force_disp32 = true;
        } else {
            base = Some(Gpr::from_bits(base_bits));
        }
    } else if rm == 5 && mode == 0 {
        force_disp32 = true;
    } else {
        base = Some(Gpr::from_bits(rm));
    }

    match mode {
        0 if force_disp32 => disp = Some(read_imm(d, next, idx, 4)?),
        0 => {}
        1 => {
            let d8 = read_imm(d, next, idx, 1)?;
            disp = Some(d.sext(d8, 32));
        }
        2 => disp = Some(read_imm(d, next, idx, 4)?),
        _ => unreachable!("mode 3 handled by caller"),
    }
    let disp = disp.unwrap_or_else(|| d.constant(32, 0));

    // Default segment: SS for EBP/ESP-based addressing, DS otherwise.
    let default_seg = match base {
        Some(Gpr::Ebp) | Some(Gpr::Esp) => Seg::Ss,
        _ => Seg::Ds,
    };
    Ok(MemOperand {
        seg: seg_override.unwrap_or(default_seg),
        base,
        index,
        disp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pokemu_symx::{Concrete, Dom};

    fn decode_bytes(bytes: &[u8]) -> Result<Inst<pokemu_symx::CVal>, Exception> {
        let mut d = Concrete::new();
        let owned: Vec<u8> = bytes.to_vec();
        decode(&mut d, move |d, i| {
            Ok(d.constant(8, *owned.get(i as usize).unwrap_or(&0) as u64))
        })
    }

    #[test]
    fn decodes_push_eax() {
        let i = decode_bytes(&[0x50]).unwrap();
        assert_eq!(i.class.opcode, 0x50);
        assert_eq!(i.len, 1);
        assert!(i.modrm.is_none());
    }

    #[test]
    fn decodes_add_rm32_r32_with_disp8() {
        // add [ebx+0x10], ecx
        let i = decode_bytes(&[0x01, 0x4b, 0x10]).unwrap();
        assert_eq!(i.class.opcode, 0x01);
        assert_eq!(i.class.mem_operand, Some(true));
        let m = i.modrm.unwrap();
        assert_eq!(m.reg, 1); // ecx
        let mem = m.mem.unwrap();
        assert_eq!(mem.base, Some(Gpr::Ebx));
        assert_eq!(mem.seg, Seg::Ds);
        let d = Concrete::new();
        assert_eq!(d.as_const(mem.disp), Some(0x10));
        assert_eq!(i.len, 3);
    }

    #[test]
    fn disp8_sign_extends() {
        // add [ebx-1], ecx
        let i = decode_bytes(&[0x01, 0x4b, 0xff]).unwrap();
        let mem = i.modrm.unwrap().mem.unwrap();
        let d = Concrete::new();
        assert_eq!(d.as_const(mem.disp), Some(0xffff_ffff));
    }

    #[test]
    fn ebp_based_defaults_to_ss() {
        // mov eax, [ebp+0]
        let i = decode_bytes(&[0x8b, 0x45, 0x00]).unwrap();
        assert_eq!(i.modrm.unwrap().mem.unwrap().seg, Seg::Ss);
        // with DS override
        let i = decode_bytes(&[0x3e, 0x8b, 0x45, 0x00]).unwrap();
        assert_eq!(i.modrm.unwrap().mem.unwrap().seg, Seg::Ds);
    }

    #[test]
    fn mod0_rm5_is_disp32() {
        // mov eax, [0x12345678]
        let i = decode_bytes(&[0x8b, 0x05, 0x78, 0x56, 0x34, 0x12]).unwrap();
        let mem = i.modrm.unwrap().mem.unwrap();
        assert_eq!(mem.base, None);
        let d = Concrete::new();
        assert_eq!(d.as_const(mem.disp), Some(0x1234_5678));
        assert_eq!(i.len, 6);
    }

    #[test]
    fn two_byte_opcode_and_group() {
        // bts [eax], 3  =>  0f ba /5 imm8
        let i = decode_bytes(&[0x0f, 0xba, 0x28, 0x03]).unwrap();
        assert_eq!(i.class.opcode, 0x0fba);
        assert_eq!(i.class.group_reg, Some(5));
        let d = Concrete::new();
        assert_eq!(d.as_const(i.imm.unwrap()), Some(3));
    }

    #[test]
    fn invalid_opcodes_are_ud() {
        assert_eq!(decode_bytes(&[0xd8]).err(), Some(Exception::Ud)); // FPU
        assert_eq!(decode_bytes(&[0x67, 0x90]).err(), Some(Exception::Ud)); // addr-size
        assert_eq!(decode_bytes(&[0x0f, 0x0b]).err(), Some(Exception::Ud)); // ud2
        assert_eq!(decode_bytes(&[0xfe, 0xf8]).err(), Some(Exception::Ud)); // fe /7
        assert_eq!(decode_bytes(&[0xff, 0xf8]).err(), Some(Exception::Ud)); // ff /7
    }

    #[test]
    fn undocumented_aliases_are_valid_in_spec() {
        // 0x82 is an alias of 0x80 on real hardware.
        let i = decode_bytes(&[0x82, 0xc0, 0x01]).unwrap();
        assert_eq!(i.class.opcode, 0x82);
        // salc
        assert!(decode_bytes(&[0xd6]).is_ok());
        // f6 /1 test alias
        let i = decode_bytes(&[0xf6, 0xc8, 0x55]).unwrap();
        assert_eq!(i.class.group_reg, Some(1));
        assert!(i.imm.is_some());
    }

    #[test]
    fn lock_prefix_legality() {
        // lock add [eax], ecx — allowed
        assert!(decode_bytes(&[0xf0, 0x01, 0x08]).is_ok());
        // lock add ecx, eax (register dest) — #UD
        assert_eq!(decode_bytes(&[0xf0, 0x01, 0xc1]).err(), Some(Exception::Ud));
        // lock mov — #UD
        assert_eq!(decode_bytes(&[0xf0, 0x89, 0x08]).err(), Some(Exception::Ud));
    }

    #[test]
    fn far_pointer_immediates() {
        // jmp 0x0008:0x00001000
        let i = decode_bytes(&[0xea, 0x00, 0x10, 0x00, 0x00, 0x08, 0x00]).unwrap();
        let d = Concrete::new();
        assert_eq!(d.as_const(i.imm.unwrap()), Some(0x1000));
        assert_eq!(d.as_const(i.imm2.unwrap()), Some(8));
        assert_eq!(i.len, 7);
    }

    #[test]
    fn opsize_prefix_switches_to_16bit() {
        let i = decode_bytes(&[0x66, 0xb8, 0x34, 0x12]).unwrap();
        assert_eq!(i.opsize(), 2);
        let d = Concrete::new();
        assert_eq!(d.as_const(i.imm.unwrap()), Some(0x1234));
        assert_eq!(i.len, 4);
    }

    #[test]
    fn sib_with_scaled_index() {
        // mov eax, [ebx + esi*4]
        let i = decode_bytes(&[0x8b, 0x04, 0xb3]).unwrap();
        let mem = i.modrm.unwrap().mem.unwrap();
        assert_eq!(mem.base, Some(Gpr::Ebx));
        assert_eq!(mem.index, Some((Gpr::Esi, 2)));
    }

    #[test]
    fn too_many_prefixes_fault() {
        assert_eq!(
            decode_bytes(&[0x26, 0x26, 0x26, 0x26, 0x26, 0x90]).err(),
            Some(Exception::Ud)
        );
    }

    #[test]
    fn class_display_is_readable() {
        let i = decode_bytes(&[0x0f, 0xba, 0x28, 0x03]).unwrap();
        assert_eq!(i.class.to_string(), "0FBA/5 m");
        let i = decode_bytes(&[0x50]).unwrap();
        assert_eq!(i.class.to_string(), "50");
    }
}
