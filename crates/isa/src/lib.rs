//! # pokemu-isa
//!
//! **VX86**: the guest instruction-set architecture of the PokeEMU-rs
//! reproduction — a 32-bit protected-mode x86 subset with variable-length
//! encodings (prefixes, one/two-byte opcodes, ModRM + SIB), full
//! segmentation (GDT, descriptor caches, limit/type/privilege checks),
//! two-level paging with accessed/dirty maintenance, EFLAGS semantics
//! including architecturally-undefined results, and the x86 exception model.
//!
//! Everything is generic over a value domain ([`pokemu_symx::Dom`]), so a
//! single reference implementation serves as:
//!
//! * the semantics executed concretely by the emulators under test, and
//! * the program explored symbolically by PokeEMU's machine-state
//!   exploration (paper §3.3).
//!
//! The crate deliberately mirrors the structure of a real emulator:
//! [`decode`] is the instruction parser that instruction-space exploration
//! walks (§3.2), [`interp`] is the per-instruction code, [`translate`]
//! contains the protection machinery whose emulation fidelity the paper's
//! findings concern, and [`asm`] builds the test programs of §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod decode;
pub mod flags;
pub mod inst;
pub mod interp;
pub mod mem;
pub mod page;
pub mod snapshot;
pub mod state;
pub mod translate;

pub use decode::{decode, op_info, OpInfo};
pub use inst::{Inst, InstClass};
pub use interp::{execute_decoded, step, Quirks, StepOutcome};
pub use mem::{Memory, MissingPolicy};
pub use snapshot::{Outcome, PagedMem, SegSnapshot, Snapshot};
pub use state::{Exception, Gpr, Machine, Seg};
