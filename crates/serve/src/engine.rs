//! The extraction engine: a read-optimized in-memory index over a
//! loaded [`Model`](crate::model::Model).
//!
//! Dispatch is keyed by suffix. At load the engine builds one
//! [`SuffixTable`] holding the built-in PSL's rules and every
//! convention's suffix (valued by the convention's index), and a query
//! hostname resolves through it in one right-to-left walk of its labels
//! ([`SuffixTable::resolve`]): the convention keyed by its PSL
//! registrable domain (the grouping the learner used), or when that is
//! not in the index (a model keyed under a deeper suffix, or a PSL
//! snapshot drift between trainer and server), the convention of its
//! longest indexed label suffix. That convention runs its compiled
//! regexes in rank order, first match wins, with no pool-level
//! prefilter ([`CompiledNc`] says why) — identical semantics to
//! [`NamingConvention::extract`](hoiho::NamingConvention::extract),
//! minus the per-call allocation churn.
//!
//! The server (a `BATCH` request is a sequential loop over
//! [`Engine::extract`]) and the §5 integration in the experiments
//! answer through this engine, one hostname at a time. The cluster
//! router resolves once through one table over the union of its
//! shards' suffixes and runs the dispatched shard engine's compiled
//! convention ([`CompiledNc::extract_lower`]) directly. `hoiho apply`
//! runs the learner's conventions directly, resolved the same way.

use crate::model::{Model, ModelEntry};
use hoiho::classify::NcClass;
use hoiho::regex::CompiledRegex;
use hoiho_obs::{Counter, Registry};
use hoiho_psl::{lowercase, Dispatch, PublicSuffixList, SuffixTable};
use std::sync::Arc;

/// One compiled convention, ready to serve lookups: the suffix it is
/// keyed under, its §4 class, and its regexes' matcher programs,
/// compiled once at engine construction (model load) straight from the
/// model's regexes. Nothing else of the model entry is kept.
///
/// A lookup runs the programs in rank order with no pool-level
/// prefilter ahead of them. A learned set holds at most six regexes,
/// and each program already rejects most names through its own
/// literal, `lit$` and start-set checks, so an Aho–Corasick scan of the
/// convention's required literals costs more than the runs it skips:
/// on perfbench `annotate_batch` (2-vCPU host) dropping that scan took
/// `regex.extract_ns` from 319 to 108 ns per name (seed 7) and
/// `cpu_ns_per_op` from 478 to 374 (medians of 10 pairs, seeds
/// 101–110).
#[derive(Debug, Clone)]
pub struct CompiledNc {
    /// The suffix the convention is keyed under, shared with every
    /// answer that names it.
    pub suffix: Arc<str>,
    /// §4 quality class.
    pub class: NcClass,
    /// The compiled regexes, in rank order.
    programs: Vec<CompiledRegex>,
}

impl CompiledNc {
    fn new(entry: &ModelEntry) -> CompiledNc {
        CompiledNc {
            suffix: entry.suffix.as_str().into(),
            class: entry.class,
            programs: entry.regexes.iter().map(CompiledRegex::compile).collect(),
        }
    }

    /// Runs the convention on an already-lowercased hostname —
    /// first-match-wins, mirroring [`hoiho::NamingConvention::extract`]:
    /// the first matching regex provides the digits, and digits that
    /// overflow the 32-bit ASN space yield `None` without trying later
    /// regexes.
    pub fn extract_lower(&self, lower: &str) -> Option<u32> {
        for p in &self.programs {
            if let Some(digits) = p.extract(lower) {
                return digits.parse::<u32>().ok();
            }
        }
        None
    }
}

/// The outcome of one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extraction {
    /// Index into [`Engine::conventions`] of the dispatched NC, when
    /// some suffix in the index covered the hostname.
    pub nc: Option<usize>,
    /// The extracted ASN, when a regex matched.
    pub asn: Option<u32>,
}

impl Extraction {
    /// A lookup that found no convention to run.
    pub const MISS: Extraction = Extraction { nc: None, asn: None };
}

/// Pre-registered dispatch-outcome counters for an engine
/// (`hoiho_engine_extractions_total{dispatch=...}`), one per
/// [`Dispatch`] outcome: `exact` when the PSL registrable domain hit
/// the index directly, `fallback` when the longest indexed label suffix
/// answered instead, `miss` when no suffix covered the hostname. Cloning shares the underlying counters.
#[derive(Debug, Clone)]
pub struct EngineObs {
    exact: Counter,
    fallback: Counter,
    miss: Counter,
}

impl EngineObs {
    /// Registers the three outcome series in `registry`. Engines
    /// attached to the same registry (e.g. across hot reloads)
    /// accumulate into the same counters.
    pub fn register(registry: &Registry) -> EngineObs {
        let c = |d| registry.counter("hoiho_engine_extractions_total", &[("dispatch", d)]);
        EngineObs { exact: c("exact"), fallback: c("fallback"), miss: c("miss") }
    }
}

/// A suffix-indexed, read-only extraction engine.
///
/// Construction compiles the model once; lookups never mutate, so one
/// engine can be shared across server workers behind an `Arc` and
/// hot-swapped atomically (see [`crate::server`]).
///
/// Counting is opt-in via [`Engine::attach_obs`], which the serving
/// backend ([`crate::server::EngineBackend`]) does for every engine it
/// serves: an unattached engine pays only a dead `Option` check per
/// lookup; an attached one adds a single relaxed atomic increment.
#[derive(Debug, Clone)]
pub struct Engine {
    ncs: Vec<CompiledNc>,
    /// The built-in PSL's rules plus each convention's suffix, valued by
    /// its index in `ncs`.
    table: SuffixTable<usize>,
    obs: Option<EngineObs>,
}

impl Engine {
    /// Compiles a model into an engine using the built-in PSL snapshot.
    pub fn new(model: &Model) -> Engine {
        let ncs: Vec<CompiledNc> = model.entries.iter().map(CompiledNc::new).collect();
        let mut table = SuffixTable::new(PublicSuffixList::builtin());
        for (i, nc) in ncs.iter().enumerate() {
            table.insert(&nc.suffix, i);
        }
        Engine { ncs, table, obs: None }
    }

    /// Attaches dispatch-outcome counters; every subsequent lookup
    /// increments exactly one of them.
    pub fn attach_obs(&mut self, obs: EngineObs) {
        self.obs = Some(obs);
    }

    /// The compiled conventions, index-addressable (the indices appear
    /// in [`Extraction::nc`] and the server's per-suffix stats).
    pub fn conventions(&self) -> &[CompiledNc] {
        &self.ncs
    }

    /// Number of conventions in the index.
    pub fn len(&self) -> usize {
        self.ncs.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ncs.is_empty()
    }

    /// Finds the convention index responsible for `lower` (an
    /// already-lowercased hostname), if any, by the one dispatch rule
    /// ([`SuffixTable::resolve`], which the cluster router resolves by
    /// too, so both layers pick the same suffix), counting the outcome
    /// when counters are attached.
    fn dispatch(&self, lower: &str) -> Option<usize> {
        let d = self.table.resolve(lower);
        if let Some(obs) = &self.obs {
            match d {
                Dispatch::Exact(_) => &obs.exact,
                Dispatch::Fallback(_) => &obs.fallback,
                Dispatch::Miss => &obs.miss,
            }
            .inc();
        }
        match d {
            Dispatch::Exact(&i) | Dispatch::Fallback(&i) => Some(i),
            Dispatch::Miss => None,
        }
    }

    /// Looks up one hostname: dispatch to its suffix's NC, then run the
    /// regexes. Matching is case-insensitive; a name holding uppercase
    /// is lowercased into a copy, any other is used as is, so a
    /// lowercase lookup allocates nothing.
    pub fn extract(&self, hostname: &str) -> Extraction {
        let lower = lowercase(hostname);
        match self.dispatch(&lower) {
            Some(i) => Extraction { nc: Some(i), asn: self.ncs[i].extract_lower(&lower) },
            None => Extraction::MISS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EvalCounts;
    use hoiho::regex::Regex;
    use hoiho::taxonomy::Taxonomy;

    fn entry(suffix: &str, rx: &[&str]) -> ModelEntry {
        ModelEntry {
            suffix: suffix.to_string(),
            class: NcClass::Good,
            single: false,
            taxonomy: Taxonomy::Complex,
            hostnames: 10,
            counts: EvalCounts::default(),
            regexes: rx.iter().map(|s| Regex::parse(s).unwrap()).collect(),
        }
    }

    fn engine() -> Engine {
        Engine::new(&Model {
            entries: vec![
                entry(
                    "equinix.com",
                    &[r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$", r"^(\d+)-.+\.equinix\.com$"],
                ),
                entry("nts.ch", &[r"as(\d+)\.nts\.ch$"]),
            ],
        })
    }

    #[test]
    fn dispatch_and_extract() {
        let e = engine();
        let x = e.extract("p714.sgw.equinix.com");
        assert_eq!(x.asn, Some(714));
        assert_eq!(x.nc.map(|i| &*e.conventions()[i].suffix), Some("equinix.com"));
        // Second regex in rank order.
        assert_eq!(e.extract("24482-fr5-ix.equinix.com").asn, Some(24482));
        // Covered suffix, no match: dispatched but no ASN.
        let x = e.extract("netflix.zh2.corp.eu.equinix.com");
        assert_eq!((x.nc.is_some(), x.asn), (true, None));
        // Unknown suffix: full miss.
        assert_eq!(e.extract("core1.example.org"), Extraction::MISS);
        assert_eq!(e.extract(""), Extraction::MISS);
    }

    #[test]
    fn case_insensitive() {
        let e = engine();
        assert_eq!(e.extract("GE0-2.01.P.AS15576.NTS.CH").asn, Some(15576));
    }

    #[test]
    fn deeper_than_registrable_suffix_reachable_via_fallback() {
        // A model keyed under a third-level suffix the PSL reduces past.
        let e = Engine::new(&Model {
            entries: vec![entry("net.example.com", &[r"^as(\d+)\.net\.example\.com$"])],
        });
        assert_eq!(e.extract("as100.net.example.com").asn, Some(100));
    }

    #[test]
    fn extraction_matches_convention_semantics() {
        // First matching regex wins even when its digits overflow u32 —
        // mirroring NamingConvention::extract exactly, which never falls
        // through to a later regex once one has matched.
        let e = Engine::new(&Model {
            entries: vec![entry(
                "x.com",
                &[r"-(\d+)\.x\.com$", r"^(\d+)-"],
            )],
        });
        assert_eq!(e.extract("123-99999999999.x.com").asn, None);
    }

    #[test]
    fn dispatch_outcome_counters_account_exactly() {
        let registry = Registry::new();
        let mut e = engine();
        e.attach_obs(EngineObs::register(&registry));
        e.extract("p714.sgw.equinix.com"); // registrable domain hit
        e.extract("as100.nts.ch"); // registrable domain hit
        e.extract("core1.example.org"); // no covering suffix
        let mut deep = Engine::new(&Model {
            entries: vec![entry("net.example.com", &[r"^as(\d+)\.net\.example\.com$"])],
        });
        deep.attach_obs(EngineObs::register(&registry));
        deep.extract("as100.net.example.com"); // deeper than the PSL rd: fallback
        let text = registry.render();
        assert!(
            text.contains("hoiho_engine_extractions_total{dispatch=\"exact\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("hoiho_engine_extractions_total{dispatch=\"fallback\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hoiho_engine_extractions_total{dispatch=\"miss\"} 1"),
            "{text}"
        );
    }

    /// Rank order over a long pool: 70 decoys ranked ahead of the real
    /// regexes match none of the real names, so each is tried and fails
    /// before a real one answers; a decoy still answers its own shape,
    /// and a covered name no regex matches dispatches with no ASN.
    #[test]
    fn decoys_ranked_ahead_run_before_the_real_regexes() {
        let mut pool: Vec<String> =
            (0..70).map(|i| format!(r"^decoy{i}x(\d+)\.equinix\.com$")).collect();
        pool.push(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$".to_string());
        pool.push(r"^(\d+)-.+\.equinix\.com$".to_string());
        let refs: Vec<&str> = pool.iter().map(String::as_str).collect();
        let e = Engine::new(&Model { entries: vec![entry("equinix.com", &refs)] });
        assert_eq!(e.conventions()[0].programs.len(), 72);
        assert_eq!(e.extract("p714.sgw.equinix.com").asn, Some(714));
        assert_eq!(e.extract("24482-fr5-ix.equinix.com").asn, Some(24482));
        assert_eq!(e.extract("decoy3x15.equinix.com").asn, Some(15));
        let x = e.extract("www.equinix.com");
        assert_eq!((x.nc, x.asn), (Some(0), None));
    }
}
