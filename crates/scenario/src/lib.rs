//! # hoiho-scenario — declarative worlds for the learning pipeline
//!
//! A *scenario* is a small text file describing an experimental world:
//! the shape of the AS topology, how operators name router interfaces
//! (per-tier style mixes, vendor fingerprints), how dirty the names are
//! (stale-name / typo / sibling rates), and what traffic the serving
//! path should see (hostname skew, batch shape). The paper evaluates
//! its learner against measured snapshots it cannot ship; scenarios are
//! the synthetic stand-in — each one a named, reviewable, reproducible
//! experiment checked into `scenarios/`.
//!
//! The crate has three halves:
//!
//! * [`format`] — the parser and canonical renderer for the sectioned
//!   `key = value` format (versioned header, `#` comments, strict
//!   1-based-line errors, `E` trailer so truncation never parses —
//!   the same strictness family as the model artifact and shard map).
//!   `render` → `parse` → `render` is a fixpoint, property-tested.
//! * [`compile`] — lowers a [`Scenario`] onto `hoiho-netsim`: a
//!   validated [`SimConfig`], the generated `Internet`, ground-truth
//!   rows (hostname → the ASN an extractor *should* yield), and the
//!   set of suffixes that truthfully carry a learnable convention.
//!   Determinism contract: equal (scenario text, seed) pairs compile
//!   byte-identical internets (`Internet::digest` equality).
//! * [`traffic`] — the serving-path workload: the hostname universe of
//!   a world plus a deterministic Zipf/uniform request stream, consumed
//!   by `hoiho-serve loadgen --scenario`.
//!
//! The quality matrix in [`matrix`] scores a learned model against a
//! scenario's ground truth (precision / recall / conventions found)
//! and renders `SCENARIOS.json` in the devkit bench schema, so
//! `scripts/bench_diff.sh` flags quality regressions exactly like
//! performance ones.

pub mod compile;
pub mod format;
pub mod matrix;
pub mod traffic;

use hoiho_netsim::{StyleMix, TierStyles, VendorMix};
use std::fmt;
use std::path::Path;

pub use matrix::ScenarioQuality;
pub use traffic::{Skew, Traffic};

/// Scenario format version written by [`Scenario::render`] and the only
/// version [`Scenario::parse`] accepts.
pub const SCENARIO_VERSION: u32 = 1;

/// A parse or compile failure, pointing at the offending line (1-based;
/// 0 when not tied to a line, e.g. an unreadable file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number, 0 when unlocated.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl ScenarioError {
    pub(crate) fn at(line: usize, msg: impl Into<String>) -> ScenarioError {
        ScenarioError { line, msg: msg.into() }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// `[topology]` — the AS-level shape of the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Tier-1 (clique) AS count, at least 1.
    pub tier1: usize,
    /// Tier-2 (regional transit) AS count.
    pub tier2: usize,
    /// Edge AS count.
    pub edge: usize,
    /// IXP count.
    pub ixps: usize,
    /// Traceroute vantage points, at least 1.
    pub vantage_points: usize,
    /// Fraction of organizations operating sibling ASNs.
    pub sibling_org_rate: f64,
    /// Average extra peer links per tier-2 AS.
    pub tier2_peering: f64,
    /// Fraction of edge ASes joining at least one IXP.
    pub ixp_member_rate: f64,
}

impl Default for Topology {
    fn default() -> Self {
        // Smaller than `SimConfig::default()` on purpose: a scenario
        // corpus is run end-to-end (sim → learn → serve) in CI, so the
        // default world learns in well under a second.
        Topology {
            tier1: 4,
            tier2: 16,
            edge: 96,
            ixps: 6,
            vantage_points: 12,
            sibling_org_rate: 0.05,
            tier2_peering: 2.0,
            ixp_member_rate: 0.25,
        }
    }
}

/// `[rates]` — how noisy the hostname data is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Probability an ASN-bearing hostname names a previous neighbor.
    pub stale: f64,
    /// Probability of a single-digit typo in an embedded ASN.
    pub typo: f64,
    /// Probability a sibling ASN is annotated instead of the
    /// neighbor's own.
    pub sibling_embed: f64,
    /// Probability a named interface keeps its hostname at all.
    pub name_coverage: f64,
    /// Probability a traceroute hop does not respond.
    pub unresponsive: f64,
    /// Probability a hop answers from a third-party address.
    pub third_party: f64,
}

impl Default for Rates {
    fn default() -> Self {
        Rates {
            stale: 0.05,
            typo: 0.004,
            sibling_embed: 0.18,
            name_coverage: 0.92,
            unresponsive: 0.03,
            third_party: 0.18,
        }
    }
}

/// A parsed scenario. Field groups mirror the file's sections; see
/// [`format`] for the grammar and [`compile`] for the lowering onto
/// `hoiho-netsim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// `[meta] name` — the scenario's identity; becomes the metric-id
    /// segment in `SCENARIOS.json` (`scenario/<name>/precision_pct`).
    pub name: String,
    /// `[meta] seed` — the world seed; everything downstream is
    /// deterministic in (scenario, seed).
    pub seed: u64,
    /// `[topology]`.
    pub topology: Topology,
    /// `[rates]`.
    pub rates: Rates,
    /// `[styles]` — the base naming-style mix.
    pub styles: StyleMix,
    /// `[styles.tier1]` / `[styles.tier2]` / `[styles.edge]` overrides.
    pub tier_styles: TierStyles,
    /// `[vendors]` — router-vendor mix (hostname fingerprints).
    pub vendors: VendorMix,
    /// `[traffic]` — the serving-path workload shape.
    pub traffic: Traffic,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "default".into(),
            seed: 20200127,
            topology: Topology::default(),
            rates: Rates::default(),
            styles: StyleMix::default(),
            tier_styles: TierStyles::default(),
            vendors: VendorMix::default(),
            traffic: Traffic::default(),
        }
    }
}

impl Scenario {
    /// Reads and parses a scenario file.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(&path).map_err(|e| {
            ScenarioError::at(0, format!("cannot read {}: {e}", path.as_ref().display()))
        })?;
        Scenario::parse(&text)
    }

    /// Writes the canonical rendering to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}
