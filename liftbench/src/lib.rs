//! Lifted-test benchmark for PokeEMU-rs.
//!
//! The unit of work is one *lifted test*: an explored Hi-Fi path turned
//! into a program, run on the hardware oracle, Hi-Fi and Lo-Fi, then
//! diffed. The benchmark prices it in wall milliseconds on three workloads
//! ([`workload::Workload`]) and splits that price by layer:
//!
//! * **end to end** — untraced repetitions of the public entry points users
//!   call, `harness::run_cross_validation` and `harness::run_conformance`,
//!   each on one worker thread;
//! * **per layer** — a separate traced run that calls the layers' public
//!   functions itself, in the order the pipeline does, with one
//!   `pokemu_rt::trace` span around each call ([`layers`]). The program
//!   gains no instrumentation.
//!
//! Every run checks its own outputs ([`workload::Outputs`]) and measures
//! lifting losses from outside with a reach oracle ([`reach`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod draw;
pub mod layers;
pub mod reach;
pub mod report;
pub mod workload;

/// Lower-case hex of a byte string (span tags and deviation keys).
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
