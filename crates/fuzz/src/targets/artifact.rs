//! Model-artifact surface: `Model::parse` and the serving tiers built
//! on top of a parsed model.
//!
//! Case layout: a whole artifact text. Oracle, for parse-accepted
//! artifacts:
//!
//! 1. render→parse→render fixpoint — `render(m)` reparses and renders
//!    to the same bytes;
//! 2. sharded-vs-single differential: a [`ShardRouter`] over 1–3
//!    shards of the model, its cache at a capacity in {0, 1, 2, 3, 64},
//!    must answer byte-identically to a single [`EngineBackend`] for
//!    hostnames derived from the model's own suffixes (plus misses) and
//!    five hostile spellings of each, every name asked twice so small
//!    caches evict, both singly and batched — the cluster-tier
//!    invariant the whole deployment story rests on;
//! 3. learner-direct: each answer that names a suffix carries that
//!    model entry's `NamingConvention::extract`;
//! 4. the cache bound: the router's cache ends holding
//!    `min(capacity, distinct names)` entries.

use super::{Target, HOSTCHARS};
use crate::corpus::case_hash;
use crate::input::FuzzInput;
use hoiho::convention::NamingConvention;
use hoiho_cluster::{ClusterBackend, ShardRouter};
use hoiho_serve::server::Backend;
use hoiho_serve::{Engine, EngineBackend, Model};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Suffix pool: PSL-real and PSL-weird shapes both.
const SUFFIXES: &[&str] = &["example.com", "other.net", "isp.example", "a.b", "x", "net"];

/// Regexes that parse in the dialect (R records must hold valid
/// patterns for the artifact to be accepted).
const REGEXES: &[&str] = &[
    "^as(\\d+)\\.example\\.com$",
    "(\\d+)",
    "^[^\\.]+-(\\d+)\\.",
    "(?:eth|gig)(\\d+)$",
    "\\d+-(\\d+)",
];

const CLASSES: &[&str] = &["good", "promising", "poor", "junk", ""];
const TAXONOMIES: &[&str] = &["start", "end", "bare", "none", "x"];

/// Cache capacities: disabled, three that evict on every host list,
/// and one larger than any host list.
const CAPACITIES: &[usize] = &[0, 1, 2, 3, 64];

pub struct ArtifactTarget;

impl Target for ArtifactTarget {
    fn name(&self) -> &'static str {
        "artifact"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        let mut lines: Vec<String> = Vec::new();
        lines.push("hoiho-model\t1".to_string());
        let entries = input.range(0, 3);
        let mut n_regexes = 0u64;
        for i in 0..entries {
            // Mostly distinct pool suffixes (parse requires sorted
            // unique); sometimes random ones to probe the order checks.
            let suffix = if input.chance(75) && (i as usize) < SUFFIXES.len() {
                SUFFIXES[i as usize].to_string()
            } else {
                input.token(HOSTCHARS, 0, 12)
            };
            lines.push(format!(
                "S\t{}\t{}\t{}\t{}\t{}",
                suffix,
                input.pick(CLASSES),
                input.range(0, 2),
                input.pick(TAXONOMIES),
                input.below(1000),
            ));
            lines.push(format!(
                "C\t{}\t{}\t{}\t{}\t{}\t{}",
                input.below(100),
                input.below(100),
                input.below(100),
                input.below(100),
                input.below(100),
                input.below(100),
            ));
            for _ in 0..input.range(1, 3) {
                lines.push(format!("R\t{}", input.pick(REGEXES)));
                n_regexes += 1;
            }
        }
        lines.push(format!("E\t{entries}\t{n_regexes}"));
        // Structural mutations: drop/duplicate/swap lines, corrupt one
        // line's bytes, append trailing junk.
        for _ in 0..input.range(0, 3) {
            if lines.is_empty() {
                break;
            }
            let at = input.below(lines.len() as u64) as usize;
            match input.below(5) {
                0 => {
                    lines.remove(at);
                }
                1 => {
                    let dup = lines[at].clone();
                    lines.insert(at, dup);
                }
                2 => {
                    let bt = input.below(lines.len() as u64) as usize;
                    lines.swap(at, bt);
                }
                3 => {
                    let junk = input.token("\tS CRE09x", 1, 4);
                    let pos = input.below(lines[at].len() as u64 + 1) as usize;
                    lines[at].insert_str(pos, &junk);
                }
                _ => lines.push(input.token("ESCR\t 0123xyz", 0, 10)),
            }
        }
        let mut case = lines.join("\n");
        if input.chance(80) {
            case.push('\n');
        }
        case.into_bytes()
    }

    fn run(&self, case: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(case) else {
            return Ok(());
        };
        let Ok(model) = Model::parse(text) else {
            return Ok(());
        };
        let rendered = model.render();
        let reparsed = Model::parse(&rendered)
            .map_err(|e| format!("render of accepted artifact fails to reparse: {e}"))?;
        if reparsed.render() != rendered {
            return Err("render→parse→render is not a fixpoint".to_string());
        }

        // Sharded vs single. Shard count and cache capacity derive from
        // the case bytes so replays are exact.
        let single = EngineBackend::new(Arc::new(Engine::new(&model)));
        let hash = case_hash(case);
        let shards = 1 + (hash % 3) as u32;
        let capacity = CAPACITIES[(hash / 3 % CAPACITIES.len() as u64) as usize];
        let router = Arc::new(
            ShardRouter::from_model(&model, shards, capacity)
                .map_err(|e| format!("split({shards}) failed on a valid model: {e}"))?,
        );
        let cluster = ClusterBackend::new(Arc::clone(&router));
        let learner: BTreeMap<&str, NamingConvention> =
            model.entries.iter().map(|e| (e.suffix.as_str(), e.convention())).collect();
        let mut hosts: Vec<String> = vec!["unrelated.example.org".into(), String::new()];
        for e in &model.entries {
            hosts.push(format!("as64500.{}", e.suffix));
            hosts.push(format!("xe-0-1.{}", e.suffix));
            hosts.push(e.suffix.clone());
        }
        let hosts: Vec<String> = hosts.iter().flat_map(|h| spellings(h)).collect();
        let off = hoiho_obs::TraceCtx::off();
        for h in hosts.iter().chain(&hosts) {
            let a = single.query(h, &off);
            let b = cluster.query(h, &off);
            if a != b {
                return Err(format!(
                    "sharded({shards}, cache {capacity}) diverges from single engine on {h:?}: \
                     {a:?} vs {b:?}"
                ));
            }
            if let Some(suffix) = &b.suffix {
                let want = learner[&**suffix].extract(h);
                if b.asn != want {
                    return Err(format!(
                        "{h:?} answered {:?} under {suffix}; the learner says {want:?}",
                        b.asn
                    ));
                }
            }
        }
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let a = single.query_batch(&refs, &off);
        let b = cluster.query_batch(&refs, &off);
        if a != b {
            return Err(format!(
                "sharded({shards}, cache {capacity}) batch diverges from single engine"
            ));
        }
        let keys = hosts.iter().map(|h| h.to_ascii_lowercase()).collect::<BTreeSet<_>>().len();
        let len = router.cache().len();
        if len != capacity.min(keys) {
            return Err(format!("cache of capacity {capacity} holds {len} of {keys} names"));
        }
        Ok(())
    }
}

/// `host` and five hostile spellings of it: uppercase, a trailing dot,
/// a leading dot, an empty label, and each digit run past `u32`.
fn spellings(host: &str) -> [String; 6] {
    let mut overflow = String::with_capacity(host.len() + 16);
    let mut in_digits = false;
    for c in host.chars() {
        let digit = c.is_ascii_digit();
        if digit && !in_digits {
            overflow.push_str("99999999999");
        } else if !digit {
            overflow.push(c);
        }
        in_digits = digit;
    }
    [
        host.to_string(),
        host.to_ascii_uppercase(),
        format!("{host}."),
        format!(".{host}"),
        host.replacen('.', "..", 1),
        overflow,
    ]
}
