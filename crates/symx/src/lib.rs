//! # pokemu-symx
//!
//! An online symbolic execution engine in the mold of **FuzzBALL** (paper
//! §3.1), the engine behind PokeEMU in *"Path-Exploration Lifting: Hi-Fi
//! Tests for Lo-Fi Emulators"* (ASPLOS 2012).
//!
//! The engine executes a program — any Rust code written against the
//! [`Dom`] value-domain trait — with symbolic inputs, one path per run:
//!
//! * symbolic branches consult the decision procedure and a
//!   [`tree::DecisionTree`] so each run takes a fresh feasible path
//!   (§3.1.2, "Online Decision Making" / "Decision Tree");
//! * word-sized values can be [`Dom::concretize`]d bit-by-bit, enumerating
//!   all feasible values, or [`Dom::pick`]ed once for large-table indexes
//!   (§3.1.2 / §3.3.2);
//! * common multi-path computations are folded into [`Summary`] terms
//!   (§3.3.2) and substituted at use sites;
//! * solver models are reduced toward a baseline state by greedy
//!   [`minimize::minimize`] (§3.4).
//!
//! The same program instantiated at [`Concrete`] runs as a plain interpreter,
//! which is how the Hi-Fi emulator doubles as both an exploration subject and
//! an execution target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dom;
pub mod engine;
pub mod minimize;
pub mod summary;
pub mod tree;

pub use dom::{CVal, Concrete, Dom, Stored};
pub use engine::{
    Executor, Exploration, ExploreConfig, ExploreStats, PathOutcome, PATH_COVERAGE_BITS,
};
pub use minimize::{diff_from_baseline, minimize, MinimizeStats};
pub use summary::{conjoin, Summary};
