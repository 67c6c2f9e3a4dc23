//! # pokemu-harness
//!
//! The cross-validation harness (paper §5-§6): executes generated test
//! programs on the Hi-Fi emulator, the Lo-Fi emulator, and the hardware
//! oracle ([`targets`]); compares final states with an undefined-behavior
//! filter and clusters differences by root cause ([`compare`]); drives the
//! whole pipeline in parallel ([`pipeline`]); and provides the
//! random-testing baseline the paper compares against ([`random`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod conformance;
pub mod fleet;
pub mod pipeline;
pub mod random;
pub mod record;
pub mod targets;

pub use compare::{class_of, compare, undefined_flags_of, Clusters, Difference, RootCause};
pub use conformance::{
    build_corpus, check_conformance, find_roms_dir, program_json, run_conformance, write_baselines,
    ConformanceRun, ProgramResult, Violation,
};
pub use fleet::{run_fleet, FleetConfig, FleetOutcome, ShardReport, ShardStatus};
pub use pipeline::{
    generate_for_instruction, run_cross_validation, run_on_all_targets, CaseOutcome,
    CrossValidation, DeviationRecord, InsnGeneration, PipelineConfig, StageStats,
    INSN_DEADLINE_ENV, RUN_DEADLINE_ENV,
};
pub use random::{run_random_baseline, RandomConfig, RandomRun};
pub use targets::{baseline_snapshot, HardwareTarget, HiFiTarget, LofiTarget, Target};
