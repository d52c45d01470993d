//! §7 future directions, made concrete:
//!
//! * [`ptr_sweep`] — the paper's OpenINTEL experiment: applying the
//!   regexes learned from traceroute-observed hostnames to the PTR
//!   records of *all* delegated address space multiplied matching
//!   hostnames 5.4K → 22.5K, revealing interconnections measurement
//!   never saw. The simulator's full interface table plays the role of
//!   the OpenINTEL PTR corpus, and the serving engine answers it.
//! * [`asname_census`] — the paper's preliminary observation that more
//!   suffixes embed AS *names* than AS numbers. With the organization
//!   dictionary (the as2org names), count the suffixes of each kind and
//!   measure how well a dictionary matcher attributes name-embedding
//!   hostnames.
//! * [`ablation`] — which learning phase earns its keep: re-learn the
//!   latest snapshot with merge (§3.3), character classes (§3.4), or
//!   sets (§3.5) disabled and compare usable-NC counts and aggregate
//!   ATP.

use crate::pipeline::SnapshotStats;
use hoiho::learner::{learn_all, LearnConfig};
use hoiho_asdb::Asn;
use hoiho_netsim::internet::IfaceKind;
use hoiho_serve::{Engine, Model};
use std::collections::BTreeSet;

/// Result of the OpenINTEL-style sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepResult {
    /// Hostnames matched within the traceroute-observed training data.
    pub matched_observed: usize,
    /// Hostnames matched across the full PTR corpus (every named
    /// interface in the simulation).
    pub matched_full: usize,
    /// Of the newly matched hostnames, how many extract the true
    /// operator (or a sibling) — new, correct interconnection evidence.
    pub new_correct: usize,
    /// Newly matched hostnames total.
    pub new_total: usize,
}

/// Answers every named interface once, through one serving [`Engine`]
/// over the snapshot's usable conventions, as §5 does: a name counts
/// when the convention its suffix dispatches to extracts an ASN.
pub fn ptr_sweep(stats: &SnapshotStats) -> SweepResult {
    let snap = &stats.snapshot;
    let mut model = Model::from_learned(&stats.learned);
    model.entries.retain(|e| e.class.usable());
    let engine = Engine::new(&model);
    let mut out = SweepResult::default();
    for (iface, owner) in snap.internet.named_interfaces() {
        let hostname = iface.hostname.as_deref().expect("named");
        let Some(extracted) = engine.extract(hostname).asn else { continue };
        out.matched_full += 1;
        if snap.graph.by_addr.contains_key(&iface.addr) {
            out.matched_observed += 1;
        } else {
            out.new_total += 1;
            if extracted == owner || snap.input.org.siblings(extracted, owner) {
                out.new_correct += 1;
            }
        }
    }
    out
}

/// Result of the AS-name census.
#[derive(Debug, Clone, Default)]
pub struct AsNameCensus {
    /// Suffixes whose hostnames embed AS *numbers* (ground truth).
    pub number_suffixes: usize,
    /// Suffixes whose hostnames embed AS *names* (ground truth).
    pub name_suffixes: usize,
    /// Name-embedding hostnames where the dictionary matcher recovered
    /// the right organization.
    pub dict_correct: usize,
    /// Name-embedding hostnames examined.
    pub dict_total: usize,
}

/// Counts ASN- vs AS-name-embedding suffixes and scores a dictionary
/// matcher (organization brand slugs from as2org) on the latter.
pub fn asname_census(stats: &SnapshotStats) -> AsNameCensus {
    let snap = &stats.snapshot;
    let net = &snap.internet;
    let mut number_suffixes: BTreeSet<String> = BTreeSet::new();
    let mut name_suffixes: BTreeSet<String> = BTreeSet::new();
    let mut out = AsNameCensus::default();

    // Dictionary: brand slug → ASNs of the organization.
    let mut dict: Vec<(String, Vec<Asn>)> = Vec::new();
    for a in &net.aslevel.ases {
        if let Some(org) = net.aslevel.org.org_of(a.asn) {
            if let Some(name) = net.aslevel.org.org_name(org) {
                if !dict.iter().any(|(n, _)| n == name) {
                    dict.push((name.to_string(), net.aslevel.org.members(org).to_vec()));
                }
            }
        }
    }
    // Longer names first, so `fib-west` is not shadowed by `fib`.
    dict.sort_by_key(|(n, _)| std::cmp::Reverse(n.len()));

    let psl = hoiho_psl::PublicSuffixList::builtin();
    for iface in &net.interfaces {
        let Some(hostname) = iface.hostname.as_deref() else { continue };
        // Group by the registrable domain, and search only the local
        // part — the suffix itself contains the *operator's* brand.
        let Some(suffix) = psl.registrable_domain(hostname) else { continue };
        let Some(local) = hoiho::label::local_part(hostname, &suffix) else { continue };
        let owner = net.routers[iface.router as usize].owner;
        match &iface.embedded {
            hoiho_netsim::internet::EmbeddedInfo::NeighborAsn { .. }
            | hoiho_netsim::internet::EmbeddedInfo::OwnAsn { .. } => {
                number_suffixes.insert(suffix);
            }
            hoiho_netsim::internet::EmbeddedInfo::NoAsn => {
                // Only AsName-style interconnect hostnames embed the
                // neighbor's brand; detect via the dictionary.
                if iface.kind != IfaceKind::InterconnectFar
                    && iface.kind != IfaceKind::IxpLan
                {
                    continue;
                }
                if let Some((_, asns)) = dict
                    .iter()
                    .find(|(name, _)| name.len() >= 4 && local.contains(name.as_str()))
                {
                    name_suffixes.insert(suffix);
                    out.dict_total += 1;
                    if asns.contains(&owner) {
                        out.dict_correct += 1;
                    }
                }
            }
        }
    }
    out.number_suffixes = number_suffixes.len();
    out.name_suffixes = name_suffixes.len();
    out
}

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which configuration.
    pub name: &'static str,
    /// Usable NCs learned.
    pub usable: usize,
    /// Aggregate ATP across learned conventions.
    pub total_atp: i64,
}

/// Re-learns the snapshot with each phase disabled in turn.
pub fn ablation(stats: &SnapshotStats) -> Vec<AblationRow> {
    let configs: [(&'static str, LearnConfig); 4] = [
        ("full pipeline", LearnConfig::default()),
        ("no merge (§3.3)", LearnConfig { enable_merge: false, ..LearnConfig::default() }),
        ("no classes (§3.4)", LearnConfig { enable_classes: false, ..LearnConfig::default() }),
        ("no sets (§3.5)", LearnConfig { enable_sets: false, ..LearnConfig::default() }),
    ];
    configs
        .into_iter()
        .map(|(name, cfg)| {
            let learned = learn_all(&stats.groups, &cfg);
            AblationRow {
                name,
                usable: learned.iter().filter(|l| l.class.usable()).count(),
                total_atp: learned.iter().map(|l| l.counts.atp()).sum(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::snapshot_stats;
    use hoiho_itdk::{Method, SnapshotSpec};
    use hoiho_netsim::SimConfig;

    fn stats() -> SnapshotStats {
        snapshot_stats(
            &SnapshotSpec {
                label: "fw".into(),
                method: Method::BdrmapIt,
                cfg: SimConfig::tiny(1234),
                alias_split: 0.3,
            },
            &LearnConfig::default(),
        )
    }

    #[test]
    fn sweep_expands_coverage() {
        let s = stats();
        let r = ptr_sweep(&s);
        assert!(r.matched_full >= r.matched_observed);
        assert!(r.new_total > 0, "sweep found no unobserved hostnames");
        assert_eq!(r.matched_full, r.matched_observed + r.new_total);
        // Most newly matched hostnames carry correct evidence.
        assert!(r.new_correct * 2 > r.new_total, "{r:?}");
    }

    #[test]
    fn asname_census_finds_both_kinds() {
        let s = stats();
        let c = asname_census(&s);
        assert!(c.number_suffixes > 0);
        assert!(c.name_suffixes > 0);
        if c.dict_total > 0 {
            assert!(c.dict_correct * 2 > c.dict_total, "{c:?}");
        }
    }

    #[test]
    fn ablation_full_pipeline_wins_on_atp() {
        let s = stats();
        let rows = ablation(&s);
        assert_eq!(rows.len(), 4);
        let full = rows[0].total_atp;
        for r in &rows[1..] {
            assert!(r.total_atp <= full, "{} beat the full pipeline", r.name);
        }
    }
}
