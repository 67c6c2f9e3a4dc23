//! Shared constants for the PokeEMU-rs tool binaries.
//!
//! The package holds the report and gate CLI (`pokemu-report`), the fleet
//! coordinator (`pokemu-fleet`), the CI smoke run (`smoke-bench`) and the
//! example that prints every experiment row of EXPERIMENTS.md
//! (`regen_experiments`). Wall time per lifted test is measured by
//! `liftbench`, which imports [`SWEEP_BYTES`] from here.

/// The E3 sweep: a tiny deterministic opcode set exercising all decode
/// forms, shared by `regen_experiments` and the lifted-test benchmark.
pub const SWEEP_BYTES: &[u8] = &[0x50, 0x74, 0xc9, 0xf7];
