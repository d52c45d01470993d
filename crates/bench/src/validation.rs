//! §5 and Table 2: integrating extracted ASNs into bdrmapIT and
//! validating the decisions.
//!
//! [`run_sec5`] supplies every learned NC (good, promising, and poor,
//! as the paper does) to the modified bdrmapIT and measures the
//! agreement gain and ground-truth error-rate reduction over annotated
//! interfaces, plus the adoption rate per NC class. Hostnames are
//! answered by the serving [`Engine`] over those conventions — the
//! same PSL dispatch and compiled regexes a served query runs — so the
//! §5 numbers describe what the server would hand bdrmapIT.
//!
//! [`run_table2`] replays the paper's validation protocol: ground truth
//! from five operators (a transit provider, two ISPs, two IXPs —
//! selected from the simulation by role) plus PeeringDB
//! cross-validation, classifying each incongruent-hostname decision as
//! TP (correct ASN, used), FN (correct, not used), FP (incorrect,
//! used), or TN (incorrect, not used). Interfaces where the training
//! ASN, extracted ASN, and PeeringDB ASN are all different are excluded
//! exactly as in the paper. The PeeringDB row's hostnames are grouped
//! by their PSL registrable domain, the suffix the learner groups by.

use crate::pipeline::SnapshotStats;
use hoiho::classify::NcClass;
use hoiho_asdb::Asn;
use hoiho_bdrmap::integrate::{integrate, Decision, IntegrationResult};
use hoiho_netsim::asgen::Tier;
use hoiho_pdb::{synthesize, PdbConfig, PeeringDbSnapshot};
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{Engine, Model};
use std::collections::{BTreeMap, BTreeSet};

/// §5 headline numbers.
pub struct Sec5Report {
    /// Interfaces whose hostnames yielded an extracted ASN.
    pub annotated: usize,
    /// Agreement rate before integration.
    pub agree_before: f64,
    /// Agreement rate after integration.
    pub agree_after: f64,
    /// (wrong, total) vs ground truth before integration.
    pub err_before: (usize, usize),
    /// (wrong, total) vs ground truth after integration.
    pub err_after: (usize, usize),
    /// Adoption per class: (class, used, total decisions).
    pub by_class: Vec<(NcClass, usize, usize)>,
    /// The integration outcome (decisions included).
    pub result: IntegrationResult,
}

/// Runs the §5 experiment on a built snapshot's statistics.
pub fn run_sec5(stats: &SnapshotStats) -> Sec5Report {
    let snap = &stats.snapshot;
    // Good, promising and poor NCs are all supplied (as in the paper),
    // but single-ASN NCs are not: a convention that extracts the same
    // ASN for every hostname in the suffix annotates the *supplier*
    // (Figure 2), so its extraction carries no signal about who
    // operates a router and the provider branch of the reasonableness
    // test would wrongly adopt it.
    let mut model = Model::from_learned(&stats.learned);
    model.entries.retain(|e| !e.single);
    let engine = Engine::new(&model);
    let answer = |hostname: &str| {
        let x = engine.extract(hostname);
        Some((x.asn?, engine.conventions()[x.nc?].class))
    };
    let hostnames = snap.hostnames();
    let result = integrate(&snap.graph, &snap.input, &snap.owners, &hostnames, answer);

    // Ground-truth error rate over annotated interfaces.
    let score = |owners: &[Option<Asn>]| -> (usize, usize) {
        let mut wrong = 0;
        let mut total = 0;
        for (&addr, hostname) in &hostnames {
            if answer(hostname).is_none() {
                continue;
            }
            let Some(&ridx) = snap.graph.by_addr.get(&addr) else { continue };
            let Some(truth) = snap.internet.owner_of_addr(addr) else { continue };
            let Some(inf) = owners[ridx] else { continue };
            total += 1;
            if inf != truth && !snap.input.org.siblings(inf, truth) {
                wrong += 1;
            }
        }
        (wrong, total)
    };
    let err_before = score(&snap.owners);
    let err_after = score(&result.owners);

    let mut by_class = Vec::new();
    for class in [NcClass::Good, NcClass::Promising, NcClass::Poor] {
        let total = result.decisions.iter().filter(|d| d.class == class).count();
        let used = result.decisions.iter().filter(|d| d.class == class && d.used).count();
        by_class.push((class, used, total));
    }

    Sec5Report {
        annotated: result.annotated,
        agree_before: result.initial_rate(),
        agree_after: result.final_rate(),
        err_before,
        err_after,
        by_class,
        result,
    }
}

/// One validation row of Table 2.
#[derive(Debug, Clone, Default)]
pub struct ValidationRow {
    /// Display name mirroring the paper's rows.
    pub name: String,
    /// Correct ASN, used.
    pub tp: usize,
    /// Correct ASN, not used.
    pub fnn: usize,
    /// Incorrect ASN, used.
    pub fp: usize,
    /// Incorrect ASN, not used.
    pub tn: usize,
}

impl ValidationRow {
    /// Total validated decisions in the row.
    pub fn total(&self) -> usize {
        self.tp + self.fnn + self.fp + self.tn
    }

    /// Correct decisions (used-correct + rejected-incorrect).
    pub fn correct_decisions(&self) -> usize {
        self.tp + self.tn
    }

    fn add(&mut self, correct: bool, used: bool) {
        match (correct, used) {
            (true, true) => self.tp += 1,
            (true, false) => self.fnn += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }
}

/// The Table 2 result.
pub struct Table2 {
    /// Rows in the paper's order (5 operators + PeeringDB).
    pub rows: Vec<ValidationRow>,
    /// Interfaces excluded (training, extracted, PeeringDB all differ).
    pub excluded: usize,
    /// Distinct suffixes covered by the PeeringDB row.
    pub pdb_suffixes: usize,
    /// Decisions covered by any validation source.
    pub covered: usize,
    /// All decisions (incongruent hostnames).
    pub total_decisions: usize,
}

impl Table2 {
    /// Totals across rows.
    pub fn totals(&self) -> ValidationRow {
        let mut t = ValidationRow { name: "Total".into(), ..Default::default() };
        for r in &self.rows {
            t.tp += r.tp;
            t.fnn += r.fnn;
            t.fp += r.fp;
            t.tn += r.tn;
        }
        t
    }
}

/// Replays the paper's validation protocol on the §5 decisions.
pub fn run_table2(stats: &SnapshotStats, sec5: &Sec5Report) -> Table2 {
    let snap = &stats.snapshot;
    let net = &snap.internet;
    let pdb = synthesize(net, &PdbConfig { seed: snap.spec.cfg.seed, ..Default::default() });

    // Pick the five ground-truth operators by role, preferring those
    // whose hostnames appear most among the decisions.
    let mut namer_decisions: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut ixp_decisions: BTreeMap<u32, usize> = BTreeMap::new();
    for d in &sec5.result.decisions {
        if let Some(ix) = net.aslevel.ixps.ixp_for_addr(d.addr) {
            *ixp_decisions.entry(ix.id).or_insert(0) += 1;
        } else if let Some(iface) = net.iface_at(d.addr) {
            if let Some(namer) = iface.namer {
                *namer_decisions.entry(namer).or_insert(0) += 1;
            }
        }
    }
    let pick = |tier: Tier, skip: &[Asn]| -> Option<Asn> {
        namer_decisions
            .iter()
            .filter(|(asn, _)| {
                !skip.contains(asn)
                    && net.aslevel.by_asn(**asn).is_some_and(|a| a.tier == tier)
            })
            .max_by_key(|(_, &c)| c)
            .map(|(&a, _)| a)
    };
    let transit = pick(Tier::Tier1, &[]);
    let euro = pick(Tier::Tier2, &transit.into_iter().collect::<Vec<_>>());
    let skip: Vec<Asn> = transit.iter().chain(euro.iter()).copied().collect();
    let large = pick(Tier::Tier2, &skip);
    let mut ixps_ranked: Vec<u32> = ixp_decisions.keys().copied().collect();
    ixps_ranked.sort_by_key(|id| std::cmp::Reverse(ixp_decisions[id]));
    let ixp_a = ixps_ranked.first().copied();
    let ixp_b = ixps_ranked.get(1).copied();

    let mut rows = vec![
        ValidationRow { name: "Transit Provider".into(), ..Default::default() },
        ValidationRow { name: "European ISP".into(), ..Default::default() },
        ValidationRow { name: "Large ISP".into(), ..Default::default() },
        ValidationRow { name: "Regional IXP".into(), ..Default::default() },
        ValidationRow { name: "Asia-Pacific IXP".into(), ..Default::default() },
        ValidationRow { name: "PeeringDB".into(), ..Default::default() },
    ];
    let psl = PublicSuffixList::builtin();
    let mut excluded = 0usize;
    let mut covered = 0usize;
    let mut pdb_suffixes: BTreeSet<String> = BTreeSet::new();

    for d in &sec5.result.decisions {
        let Some(truth) = net.owner_of_addr(d.addr) else { continue };
        let correct =
            d.extracted == truth || snap.input.org.siblings(d.extracted, truth);
        let row_idx = classify_source(
            net,
            &pdb,
            d,
            (transit, euro, large, ixp_a, ixp_b),
        );
        match row_idx {
            Some(5) => {
                // PeeringDB cross-validation: truth is the recorded ASN;
                // exclude three-way disagreements like the paper.
                let rec = pdb.by_addr(d.addr).expect("pdb record");
                let pdb_asn = rec.recorded_asn;
                let all_differ = d.initial.is_some_and(|i| i != d.extracted && i != pdb_asn)
                    && d.extracted != pdb_asn
                    && !snap.input.org.siblings(d.extracted, pdb_asn);
                if all_differ {
                    excluded += 1;
                    continue;
                }
                let pdb_correct = d.extracted == pdb_asn
                    || snap.input.org.siblings(d.extracted, pdb_asn);
                covered += 1;
                if let Some(suffix) = psl.registrable_domain(&d.hostname) {
                    pdb_suffixes.insert(suffix);
                }
                rows[5].add(pdb_correct, d.used);
            }
            Some(i) => {
                covered += 1;
                rows[i].add(correct, d.used);
            }
            None => {}
        }
    }

    Table2 {
        rows,
        excluded,
        pdb_suffixes: pdb_suffixes.len(),
        covered,
        total_decisions: sec5.result.decisions.len(),
    }
}

/// The five selected ground-truth operators: three ASes and two IXPs.
type Validators = (Option<Asn>, Option<Asn>, Option<Asn>, Option<u32>, Option<u32>);

/// Maps a decision to its validation source row, if any.
fn classify_source(
    net: &hoiho_netsim::Internet,
    pdb: &PeeringDbSnapshot,
    d: &Decision,
    (transit, euro, large, ixp_a, ixp_b): Validators,
) -> Option<usize> {
    if let Some(ix) = net.aslevel.ixps.ixp_for_addr(d.addr) {
        if Some(ix.id) == ixp_a {
            return Some(3);
        }
        if Some(ix.id) == ixp_b {
            return Some(4);
        }
        if pdb.by_addr(d.addr).is_some() {
            return Some(5);
        }
        return None;
    }
    let namer = net.iface_at(d.addr).and_then(|i| i.namer);
    match namer {
        n if n == transit && n.is_some() => Some(0),
        n if n == euro && n.is_some() => Some(1),
        n if n == large && n.is_some() => Some(2),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::snapshot_stats;
    use hoiho::learner::LearnConfig;
    use hoiho_itdk::{Method, SnapshotSpec};
    use hoiho_netsim::SimConfig;

    fn stats() -> SnapshotStats {
        let spec = SnapshotSpec {
            label: "test".into(),
            method: Method::BdrmapIt,
            cfg: SimConfig::tiny(91),
            alias_split: 0.3,
        };
        snapshot_stats(&spec, &LearnConfig::default())
    }

    #[test]
    fn sec5_improves_agreement_and_error() {
        let st = stats();
        let rep = run_sec5(&st);
        assert!(rep.annotated > 0);
        assert!(rep.agree_after >= rep.agree_before);
        let err = |w: usize, t: usize| if t == 0 { 0.0 } else { w as f64 / t as f64 };
        assert!(
            err(rep.err_after.0, rep.err_after.1) <= err(rep.err_before.0, rep.err_before.1),
            "integration made ground-truth accuracy worse"
        );
    }

    #[test]
    fn adoption_ordered_by_class() {
        // Good NCs should be adopted at least as often as poor ones
        // (paper: 82.5% vs 18.2%). With tiny data allow equality.
        let st = stats();
        let rep = run_sec5(&st);
        let rate = |c: NcClass| {
            rep.by_class
                .iter()
                .find(|(cl, _, _)| *cl == c)
                .map(|&(_, used, total)| {
                    if total == 0 {
                        None
                    } else {
                        Some(used as f64 / total as f64)
                    }
                })
                .unwrap()
        };
        if let (Some(g), Some(p)) = (rate(NcClass::Good), rate(NcClass::Poor)) {
            assert!(g + 1e-9 >= p);
        }
    }

    #[test]
    fn table2_rows_consistent() {
        let st = stats();
        let rep = run_sec5(&st);
        let t2 = run_table2(&st, &rep);
        assert_eq!(t2.rows.len(), 6);
        let totals = t2.totals();
        assert_eq!(totals.total(), t2.covered);
        assert!(t2.covered <= t2.total_decisions);
    }
}
