//! The fuzz target registry: one target per strict surface, each
//! pairing a structured case generator with a differential oracle.
//!
//! | target   | surface                       | oracle                                            |
//! |----------|-------------------------------|---------------------------------------------------|
//! | regex    | `Regex::parse` + compile      | compiled vs interpreted `find`/`find_trace`, display→parse fixpoint |
//! | multimatch | `MultiMatcher` pool dispatch | automaton dispatch vs per-regex compiled scans (superset-exact, no repeated or invented index) |
//! | artifact | `Model::parse`                | render fixpoint + sharded(N) vs single engine answers |
//! | psl      | `PublicSuffixList` lookups + `SuffixTable::resolve` | label-table answers vs the linear-scan reference algorithm |
//! | scenario | `Scenario::parse`             | canonical render fixpoint                         |
//! | framing  | server line/`BATCH` framing   | live server vs a framing reference simulation over RNG-fragmented streams |
//! | learn    | `learn_suffix` over `asn hostname` rows | the learner's handed-over hits vs the public phases with a full evaluation of the pool |
//!
//! A target's `run` takes the *case bytes themselves* (not entropy), so
//! corpus files are exact-input regressions. Rejection of a malformed
//! case is a pass — the oracles hunt panics, divergence between
//! redundant implementations, and broken fixpoints, not strictness.

mod artifact;
mod framing;
mod learn;
mod multimatch;
mod psl;
mod regex;
mod scenario;

use crate::input::FuzzInput;

/// One fuzzable surface: a case decoder plus its oracle.
pub trait Target {
    /// Registry (and corpus directory) name.
    fn name(&self) -> &'static str;

    /// Decodes one case from the entropy budget. The returned bytes are
    /// the canonical case — what `run` consumes, what the minimizer
    /// shrinks, and what the corpus stores.
    fn generate(&self, input: &mut FuzzInput) -> Vec<u8>;

    /// Runs the oracle on exact case bytes. `Err` is a finding; panics
    /// are caught by the runner and treated the same.
    fn run(&self, case: &[u8]) -> Result<(), String>;
}

/// All registered targets, in a stable order.
pub fn all_targets() -> Vec<Box<dyn Target>> {
    vec![
        Box::new(regex::RegexTarget),
        Box::new(multimatch::MultiMatchTarget),
        Box::new(artifact::ArtifactTarget),
        Box::new(psl::PslTarget),
        Box::new(scenario::ScenarioTarget),
        Box::new(framing::FramingTarget::new()),
        Box::new(learn::LearnTarget),
    ]
}

/// Looks a target up by name.
pub fn target_by_name(name: &str) -> Option<Box<dyn Target>> {
    all_targets().into_iter().find(|t| t.name() == name)
}

/// The hostname-ish alphabet case text is built from. Lowercase only:
/// fuzz traffic reaching a live loopback server must never be able to
/// spell an admin verb (`SHUTDOWN`, `RELOAD`).
pub(crate) const HOSTCHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789.-";
