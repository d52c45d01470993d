//! The shard planner: partitions a model artifact into N balanced
//! shards by registrable-domain suffix, and the shard-map manifest
//! that records the partition.
//!
//! Planning is greedy bin-packing on per-suffix serving weight (the
//! textual size of a convention's regexes, a proxy for match cost):
//! suffixes are taken heaviest-first and each goes to the currently
//! lightest shard. The order is fully tie-broken (weight descending,
//! then suffix ascending; lightest shard ties go to the lowest index),
//! so a given model and shard count always produce the same plan.
//!
//! The manifest is written for operators and for scripts (tier-1's
//! smoke reads each shard's suffixes from it with `awk`); no program
//! reads it back, so it is rendered and never parsed. It is a
//! line-based text file in the same family as the model artifact: a
//! versioned header, one `A` record per suffix (suffix, shard, weight)
//! in suffix order, and an `E` trailer carrying the totals:
//!
//! ```text
//! # hoiho-cluster shard map; format spec in DESIGN.md
//! hoiho-shardmap	1	4
//! A	equinix.com	2	137
//! A	nts.ch	0	52
//! E	2	189
//! ```

use hoiho_serve::model::{Model, ModelEntry};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Manifest format version written by [`ShardMap::render`].
pub const SHARDMAP_VERSION: u32 = 1;

/// The planner's serving-cost weight for one convention: the total
/// textual length of its regexes (a proxy for match cost — the
/// dialect's matchers walk the pattern structure), never zero so every
/// suffix contributes to balance.
pub fn suffix_weight(entry: &ModelEntry) -> u64 {
    entry
        .regexes
        .iter()
        .map(|r| r.to_string().len() as u64)
        .sum::<u64>()
        .max(1)
}

/// One suffix's placement in the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The registrable-domain suffix (the engine's dispatch key).
    pub suffix: String,
    /// The owning shard, `0..shards`.
    pub shard: u32,
    /// The planner's weight for the suffix (recorded for audit; the
    /// router never recomputes it).
    pub weight: u64,
}

/// A full shard plan: which shard owns each suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Number of shards planned for (some may own no suffixes).
    pub shards: u32,
    /// The assignments, sorted by suffix (the render order).
    pub assignments: Vec<Assignment>,
}

/// A planning failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Plans a partition of `model` into `shards` shards. Deterministic
/// for a given model and shard count.
pub fn plan(model: &Model, shards: u32) -> Result<ShardMap, PlanError> {
    if shards == 0 {
        return Err(PlanError("shard count must be at least 1".into()));
    }
    // Heaviest first, suffix as the total tie-break.
    let mut order: Vec<(u64, &str)> =
        model.entries.iter().map(|e| (suffix_weight(e), e.suffix.as_str())).collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));

    let mut loads = vec![0u64; shards as usize];
    let mut assignments: Vec<Assignment> = Vec::with_capacity(order.len());
    for (weight, suffix) in order {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &w)| (w, i))
            .map(|(i, _)| i)
            .expect("at least one shard");
        loads[lightest] += weight;
        assignments.push(Assignment { suffix: suffix.to_string(), shard: lightest as u32, weight });
    }
    assignments.sort_by(|a, b| a.suffix.cmp(&b.suffix));
    Ok(ShardMap { shards, assignments })
}

/// Plans and materializes the partition: one valid v1 model artifact
/// per shard (entries in suffix order, possibly empty) plus the
/// manifest. The union of the shard models is exactly `model`.
pub fn split(model: &Model, shards: u32) -> Result<(Vec<Model>, ShardMap), PlanError> {
    let map = plan(model, shards)?;
    let mut out: Vec<Model> = (0..shards).map(|_| Model::default()).collect();
    for entry in &model.entries {
        let shard = map
            .shard_of(&entry.suffix)
            .expect("planner assigned every suffix");
        out[shard as usize].entries.push(entry.clone());
    }
    Ok((out, map))
}

/// Conventional file name for shard `k`'s model artifact inside a
/// shard directory.
pub fn shard_file_name(shard: u32) -> String {
    format!("shard.{shard}.model")
}

/// Conventional file name for the manifest inside a shard directory.
pub const SHARDMAP_FILE_NAME: &str = "shardmap.hoiho";

impl ShardMap {
    /// The shard owning `suffix`, if the plan covers it.
    pub fn shard_of(&self, suffix: &str) -> Option<u32> {
        self.assignments
            .binary_search_by(|a| a.suffix.as_str().cmp(suffix))
            .ok()
            .map(|i| self.assignments[i].shard)
    }

    /// Number of suffixes assigned.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no suffixes are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Sum of all assignment weights.
    pub fn total_weight(&self) -> u64 {
        self.assignments.iter().map(|a| a.weight).sum()
    }

    /// Per-shard total weights, index-addressable by shard.
    pub fn shard_weights(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.shards as usize];
        for a in &self.assignments {
            loads[a.shard as usize] += a.weight;
        }
        loads
    }

    /// Renders the manifest text (module docs).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("# hoiho-cluster shard map; format spec in DESIGN.md\n");
        let _ = writeln!(s, "hoiho-shardmap\t{SHARDMAP_VERSION}\t{}", self.shards);
        for a in &self.assignments {
            let _ = writeln!(s, "A\t{}\t{}\t{}", a.suffix, a.shard, a.weight);
        }
        let _ = writeln!(s, "E\t{}\t{}", self.len(), self.total_weight());
        s
    }

    /// Writes the rendered manifest to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho::classify::NcClass;
    use hoiho::regex::Regex;
    use hoiho::taxonomy::Taxonomy;
    use hoiho_serve::model::EvalCounts;

    fn entry(suffix: &str, rx: &[&str]) -> ModelEntry {
        ModelEntry {
            suffix: suffix.to_string(),
            class: NcClass::Good,
            single: false,
            taxonomy: Taxonomy::Start,
            hostnames: 7,
            counts: EvalCounts::default(),
            regexes: rx.iter().map(|s| Regex::parse(s).unwrap()).collect(),
        }
    }

    fn model() -> Model {
        Model {
            entries: vec![
                entry("a.com", &[r"^as(\d+)\.a\.com$", r"^(\d+)-.+\.a\.com$"]),
                entry("b.net", &[r"^as(\d+)\.b\.net$"]),
                entry("c.org", &[r"^r(\d+)\.c\.org$"]),
                entry("d.ch", &[r"^gw-as(\d+)-[a-z]+\.d\.ch$", r"as(\d+)\.d\.ch$"]),
                entry("e.nz", &[r"^(\d+)\.e\.nz$"]),
            ],
        }
    }

    #[test]
    fn plan_is_deterministic_and_total() {
        let m = model();
        for shards in [1u32, 2, 3, 4, 8] {
            let p1 = plan(&m, shards).unwrap();
            let p2 = plan(&m, shards).unwrap();
            assert_eq!(p1, p2, "shards={shards}");
            assert_eq!(p1.len(), m.len());
            assert!(p1.assignments.iter().all(|a| a.shard < shards));
            // Every model suffix is assigned exactly once.
            for e in &m.entries {
                assert!(p1.shard_of(&e.suffix).is_some(), "{} unassigned", e.suffix);
            }
        }
        assert!(plan(&m, 0).is_err());
    }

    #[test]
    fn greedy_balance_bound_holds() {
        // Greedy heaviest-first guarantees max load − min load ≤ the
        // heaviest single item (standard LPT argument).
        let m = model();
        let max_item = m.entries.iter().map(suffix_weight).max().unwrap();
        for shards in [2u32, 3, 5] {
            let p = plan(&m, shards).unwrap();
            let loads = p.shard_weights();
            let (max, min) = (loads.iter().max().unwrap(), loads.iter().min().unwrap());
            assert!(
                max - min <= max_item,
                "shards={shards}: loads {loads:?} spread beyond max item {max_item}"
            );
        }
    }

    #[test]
    fn split_partitions_the_model_exactly() {
        let m = model();
        let (shards, map) = split(&m, 3).unwrap();
        assert_eq!(shards.len(), 3);
        // Each shard artifact is itself a valid v1 model.
        for s in &shards {
            assert_eq!(Model::parse(&s.render()).unwrap(), *s);
        }
        // The union, re-sorted, is the original model.
        let mut union: Vec<ModelEntry> =
            shards.iter().flat_map(|s| s.entries.iter().cloned()).collect();
        union.sort_by(|a, b| a.suffix.cmp(&b.suffix));
        assert_eq!(Model { entries: union }, m);
        // The manifest agrees with where entries landed.
        for (k, s) in shards.iter().enumerate() {
            for e in &s.entries {
                assert_eq!(map.shard_of(&e.suffix), Some(k as u32));
            }
        }
    }

    /// The manifest bytes, pinned: the comment and header, one `A`
    /// record per suffix in suffix order (not plan order), and the `E`
    /// trailer with the assignment count and total weight. The weights
    /// are the regexes' text lengths, taken heaviest first onto the
    /// lighter shard: `d.ch` 41 → 0, `a.com` 35 → 1, `b.net` 17 → 1
    /// (35 < 41), `c.org` 16 → 0 (41 < 52), `e.nz` 14 → 1 (52 < 57).
    #[test]
    fn manifest_renders_the_documented_bytes() {
        let (_, map) = split(&model(), 2).unwrap();
        assert_eq!(
            map.render(),
            "# hoiho-cluster shard map; format spec in DESIGN.md\n\
             hoiho-shardmap\t1\t2\n\
             A\ta.com\t1\t35\n\
             A\tb.net\t1\t17\n\
             A\tc.org\t0\t16\n\
             A\td.ch\t0\t41\n\
             A\te.nz\t1\t14\n\
             E\t5\t123\n"
        );
        let empty = ShardMap { shards: 3, assignments: Vec::new() };
        assert_eq!(
            empty.render(),
            "# hoiho-cluster shard map; format spec in DESIGN.md\nhoiho-shardmap\t1\t3\nE\t0\t0\n"
        );
    }

    #[test]
    fn more_shards_than_suffixes_leaves_empty_shards() {
        let (shards, map) = split(&model(), 8).unwrap();
        assert_eq!(shards.len(), 8);
        assert_eq!(map.shards, 8);
        assert!(shards.iter().filter(|s| s.is_empty()).count() >= 3);
        // Empty shard artifacts still render/parse as valid models.
        for s in &shards {
            assert_eq!(Model::parse(&s.render()).unwrap(), *s);
        }
    }
}
