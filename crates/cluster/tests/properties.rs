//! Property-based tests for the cluster tier, on the devkit harness:
//! splitting is a deterministic balanced partition, and — the
//! serving-correctness property — cached answers are byte-equal to
//! uncached answers over arbitrary request streams, including across a
//! mid-stream per-shard reload.

use hoiho::classify::NcClass;
use hoiho::regex::Regex;
use hoiho::taxonomy::Taxonomy;
use hoiho_cluster::{split, suffix_weight, ShardRouter};
use hoiho_devkit::prop::{any, string_of, vec_of, Gen};
use hoiho_devkit::{prop_assert, prop_assert_eq, props};
use hoiho_serve::model::{EvalCounts, Model, ModelEntry};
use std::collections::BTreeSet;

/// A registrable-domain-shaped suffix: `name.tld`.
fn suffix() -> impl Gen<Value = String> {
    (string_of("abcdefghijklmnopqrstuvwxyz", 1..=8usize), 0usize..5).prop_map(|(name, tld)| {
        format!("{name}.{}", ["com", "net", "org", "ch", "nz"][tld])
    })
}

/// One regex over `suffix`, same templates as the serve property tests.
fn template_regex(template: usize, suffix: &str) -> Regex {
    let esc = suffix.replace('.', "\\.");
    let src = match template % 4 {
        0 => format!("^as(\\d+)\\.{esc}$"),
        1 => format!("^as(\\d+)\\.[a-z]+\\.{esc}$"),
        2 => format!("(\\d+)-.+\\.{esc}$"),
        _ => format!("^[^\\.]+\\.as(\\d+)\\.{esc}$"),
    };
    Regex::parse(&src).expect("template regex parses")
}

fn entry() -> impl Gen<Value = ModelEntry> {
    (suffix(), vec_of(0usize..4, 1..=3usize), any::<bool>()).prop_map(
        |(suffix, templates, single)| ModelEntry {
            regexes: templates.iter().map(|&t| template_regex(t, &suffix)).collect(),
            suffix,
            class: NcClass::Good,
            single,
            taxonomy: Taxonomy::Start,
            hostnames: 3,
            counts: EvalCounts::default(),
        },
    )
}

/// An arbitrary model with deduplicated suffixes.
fn model() -> impl Gen<Value = Model> {
    vec_of(entry(), 1usize..8).prop_map(|mut entries| {
        let mut seen = BTreeSet::new();
        entries.retain(|e| seen.insert(e.suffix.clone()));
        entries.sort_by(|a, b| a.suffix.cmp(&b.suffix));
        Model { entries }
    })
}

/// The hostname universe a model induces: per suffix, names each regex
/// template shape can match, plus shapes that dispatch but miss, plus
/// hosts under no learned suffix at all.
fn universe(m: &Model) -> Vec<String> {
    let mut hosts = vec!["off-model.example.org".to_string(), "com".to_string()];
    for (i, e) in m.entries.iter().enumerate() {
        let s = &e.suffix;
        hosts.push(format!("as{}.{s}", 64500 + i));
        hosts.push(format!("as{}.pop.{s}", 100 + i));
        hosts.push(format!("{}-core.stuff.{s}", 7 + i));
        hosts.push(format!("r1.as{}.{s}", 4200 + i));
        hosts.push(format!("misses-everything.{s}"));
        hosts.push(format!("deep.label.chain.{s}"));
    }
    hosts
}

props! {
    cases = 64;

    /// Splitting is a deterministic exact partition and the greedy
    /// balance bound (spread ≤ heaviest item) holds.
    fn split_is_deterministic_balanced_partition(m in model(), shards in 1u32..7) {
        let (parts, map) = split(&m, shards).expect("split");
        let (parts2, map2) = split(&m, shards).expect("split again");
        prop_assert_eq!(&parts, &parts2);
        prop_assert_eq!(&map, &map2);
        // Exact partition: every entry lands in exactly one shard, on
        // the shard the manifest says, in suffix order.
        let mut union: Vec<ModelEntry> =
            parts.iter().flat_map(|p| p.entries.iter().cloned()).collect();
        union.sort_by(|a, b| a.suffix.cmp(&b.suffix));
        prop_assert_eq!(&Model { entries: union }, &m);
        for (k, p) in parts.iter().enumerate() {
            for e in &p.entries {
                prop_assert_eq!(map.shard_of(&e.suffix), Some(k as u32));
            }
        }
        // Balance bound.
        let loads = map.shard_weights();
        let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
        let heaviest = m.entries.iter().map(suffix_weight).max().unwrap_or(1);
        prop_assert!(
            spread <= heaviest,
            "load spread {spread} exceeds heaviest item {heaviest}: {loads:?}"
        );
    }

    /// Serving correctness: for any request stream, a cache-enabled
    /// router answers byte-identically to an uncached one — including
    /// when one shard is hot-reloaded mid-stream on both, and at
    /// capacities small enough to evict — and never holds more entries
    /// than its capacity.
    fn cached_equals_uncached_across_reload(
        m in model(),
        shards in 1u32..5,
        capacity in 1usize..=40,
        picks in vec_of(0usize..10_000, 8..=48usize),
        reload_at in 0usize..48,
        shard_pick in 0usize..8,
    ) {
        let hosts = universe(&m);
        let (parts, _) = split(&m, shards).expect("split");
        let cached = ShardRouter::new(&parts, capacity).expect("cached router");
        let uncached = ShardRouter::new(&parts, 0).expect("uncached router");

        // The mid-stream reload: shard j, with its last convention
        // dropped (or a no-op reload when the shard is empty).
        let j = (shard_pick % shards as usize) as u32;
        let mut reloaded = parts[j as usize].clone();
        reloaded.entries.pop();

        for (step, pick) in picks.iter().enumerate() {
            if step == reload_at % picks.len() {
                cached.reload_shard(j, &reloaded).expect("reload cached");
                uncached.reload_shard(j, &reloaded).expect("reload uncached");
            }
            // Revisit earlier picks often so the cache actually hits.
            let h = &hosts[(pick % 7 * step.max(1)) % hosts.len()];
            let (a, b) = (cached.lookup(h), uncached.lookup(h));
            prop_assert!(a == b, "step {step}: host {h} diverged: {a:?} != {b:?}");
            let len = cached.cache().len();
            prop_assert!(len <= capacity, "step {step}: {len} entries over capacity {capacity}");
        }
        // The exercise must have produced real cache traffic.
        let s = cached.cache_stats();
        prop_assert_eq!(s.hits + s.misses, picks.len() as u64);
    }
}
