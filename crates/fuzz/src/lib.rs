//! # hoiho-fuzz — structured fuzzing + differential-oracle tier
//!
//! The system exposes strict surfaces that read input from outside:
//! the regex dialect, the model artifact, the scenario format, the
//! public suffix list (rule files and hostnames), the server's byte
//! framing, and the learner's training rows. This crate fuzzes each one
//! with a *structured* generator (an entropy-budget decoder in the
//! style of the devkit property harness — see [`input`]) paired with a
//! *differential oracle*: redundant implementations and documented
//! fixpoints that must agree, so the fuzzer hunts semantic divergence
//! and panics rather than mere crashes-on-garbage.
//!
//! * [`targets`] — the registry; one [`targets::Target`] per surface
//!   with its oracle (see the module's oracle table).
//! * [`runner`] — the deterministic fuzz loop, panic capture,
//!   case-level minimization, and corpus replay.
//! * [`corpus`] — the checked-in `fuzz/corpus/` exact-input regression
//!   store, replayed by plain `cargo test`.
//!
//! The `hoiho-fuzz` binary drives it: `run` (generate + minimize +
//! record), `replay` (the committed corpus must stay green), and
//! `minimize` (shrink one case file by hand).

pub mod corpus;
pub mod input;
pub mod runner;
pub mod targets;

pub use input::FuzzInput;
pub use runner::{exec, minimize, replay, run_target, Failure, FuzzReport, ReplayOutcome};
pub use targets::{all_targets, target_by_name, Target};
