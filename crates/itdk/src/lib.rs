//! # hoiho-itdk — ITDK-style snapshots and the 2010–2020 timeline
//!
//! CAIDA's Internet Topology Data Kits bundle traceroute-derived router
//! graphs with per-router AS annotations. The paper trains Hoiho on 17
//! ITDKs (July 2010 – January 2020; RouterToAsAssignment annotations
//! through February 2017, bdrmapIT afterwards) plus two PeeringDB
//! snapshots — 19 training sets in all.
//!
//! This crate reproduces that pipeline on the synthetic Internet:
//!
//! * [`alias`] — the MIDAR-style alias resolution model: only addresses
//!   observed in traceroutes are known, and resolution is incomplete
//!   (a per-snapshot fraction of interfaces stay singletons).
//! * [`timeline`](timeline()) — 19 [`SnapshotSpec`]s whose parameters
//!   evolve the way §4 describes: more operators embed ASNs over time,
//!   more vantage points observe them, and the annotation method
//!   improves.
//! * [`BuiltSnapshot`] — a fully built snapshot: the Internet, the
//!   traceroute corpus, the router graph, per-router training ASNs, the
//!   Hoiho training set derived from them, and the PTR names of the
//!   observed interfaces.

pub mod alias;

use hoiho::training::{Observation, TrainingSet};
use hoiho_asdb::{Addr, Asn};
use hoiho_bdrmap::graph::RouterGraph;
use hoiho_bdrmap::refine::RefineConfig;
use hoiho_bdrmap::{refine, rtaa, InferenceInput, Trace};
use hoiho_netsim::config::StyleMix;
use hoiho_netsim::traceroute::run_traceroutes;
use hoiho_netsim::{Internet, SimConfig};
use hoiho_pdb::{synthesize, PdbConfig, PeeringDbSnapshot};
use std::collections::BTreeMap;

/// How training ASNs are produced for a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// RouterToAsAssignment (election + degree), 2010–2017 ITDKs.
    Rtaa,
    /// bdrmapIT graph refinement, 2017–2020 ITDKs.
    BdrmapIt,
    /// Operator-recorded ASNs from PeeringDB.
    PeeringDb,
}

impl Method {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Method::Rtaa => "RTAA",
            Method::BdrmapIt => "bdrmapIT",
            Method::PeeringDb => "PeeringDB",
        }
    }
}

/// Parameters of one training-set snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotSpec {
    /// Label, e.g. `2020-01`.
    pub label: String,
    /// Annotation method.
    pub method: Method,
    /// Simulation config (already year-scaled).
    pub cfg: SimConfig,
    /// Fraction of observed interfaces alias resolution fails to place.
    pub alias_split: f64,
}

/// The canonical 19-set timeline mirroring the paper's training data:
/// 12 RTAA ITDKs, 5 bdrmapIT ITDKs, 2 PeeringDB snapshots.
pub fn timeline() -> Vec<SnapshotSpec> {
    let itdk_labels = [
        "2010-07", "2011-01", "2011-10", "2012-07", "2013-04", "2013-07", "2014-04", "2014-12",
        "2015-08", "2016-03", "2016-09", "2017-02", // RTAA era
        "2017-08", "2018-03", "2018-10", "2019-04", "2020-01", // bdrmapIT era
    ];
    let mut specs: Vec<SnapshotSpec> = itdk_labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let method = if i < 12 { Method::Rtaa } else { Method::BdrmapIt };
            SnapshotSpec {
                label: label.to_string(),
                method,
                cfg: year_config(i, 17),
                alias_split: 0.5 - 0.015 * i as f64,
            }
        })
        .collect();
    // Two PeeringDB snapshots share the late-era Internet parameters.
    for (j, label) in ["2019-08-peeringdb", "2020-02-peeringdb"].iter().enumerate() {
        specs.push(SnapshotSpec {
            label: label.to_string(),
            method: Method::PeeringDb,
            cfg: year_config(15 + j, 17),
            alias_split: 0.3,
        });
    }
    specs
}

/// Scales the default config for snapshot `i` of `n`: ASN-embedding
/// conventions, vantage points, and topology size all grow over the
/// decade (§4 names the first two as the growth factors behind Figure
/// 5; ITDK topology growth supplies the third).
fn year_config(i: usize, n: usize) -> SimConfig {
    let t = i as f64 / (n - 1) as f64; // 0.0 (2010) → 1.0 (2020)
    let base = SimConfig::default();
    let grow = 0.45 + 0.8 * t; // scale on ASN-embedding style weights
    SimConfig {
        seed: 0x17D0 + 37 * i as u64,
        vantage_points: (12.0 + 36.0 * t) as usize,
        tier2: (48.0 + 44.0 * t) as usize,
        edge: (320.0 + 380.0 * t) as usize,
        styles: StyleMix {
            simple: base.styles.simple * grow,
            start: base.styles.start * grow,
            end: base.styles.end * grow,
            bare: base.styles.bare * grow,
            complex: base.styles.complex * grow,
            own_asn: base.styles.own_asn * (0.7 + 0.5 * t),
            ..base.styles
        },
        ..base
    }
}

/// A fully built snapshot.
pub struct BuiltSnapshot {
    /// The spec it was built from.
    pub spec: SnapshotSpec,
    /// The synthetic Internet (ground truth included).
    pub internet: Internet,
    /// Inference input (BGP, relationships, aliases, traces).
    pub input: InferenceInput,
    /// The traceroute-derived router graph.
    pub graph: RouterGraph,
    /// Per-router training ASNs (indexed like `graph.routers`). Empty
    /// for PeeringDB snapshots.
    pub owners: Vec<Option<Asn>>,
    /// The PeeringDB snapshot (only for [`Method::PeeringDb`]).
    pub peeringdb: Option<PeeringDbSnapshot>,
}

impl BuiltSnapshot {
    /// Builds a snapshot from its spec.
    pub fn build(spec: &SnapshotSpec) -> BuiltSnapshot {
        let internet = Internet::generate(&spec.cfg);
        let ts = run_traceroutes(&internet);
        let traces: Vec<Trace> = ts
            .paths
            .iter()
            .map(|p| Trace { vp_asn: p.vp_asn, dst: p.dst, hops: p.hops.clone() })
            .collect();
        let aliases = alias::resolve(&internet, &traces, spec.alias_split, spec.cfg.seed);
        let input = InferenceInput {
            bgp: internet.aslevel.bgp.clone(),
            rel: internet.aslevel.rel.clone(),
            org: internet.aslevel.org.clone(),
            ixps: internet.aslevel.ixps.clone(),
            aliases,
            traces,
        };
        let graph = RouterGraph::build(&input);
        let (owners, peeringdb) = match spec.method {
            Method::Rtaa => (rtaa::infer(&graph, &input), None),
            Method::BdrmapIt => {
                (refine::infer(&graph, &input, &RefineConfig::default()), None)
            }
            Method::PeeringDb => {
                let snap = synthesize(&internet, &PdbConfig { seed: spec.cfg.seed, ..Default::default() });
                (Vec::new(), Some(snap))
            }
        };
        BuiltSnapshot { spec: spec.clone(), internet, input, graph, owners, peeringdb }
    }

    /// The Hoiho training set: one observation per *observed* interface
    /// with a hostname, annotated with the training ASN of its inferred
    /// router (or the PeeringDB-recorded ASN).
    pub fn training_set(&self) -> TrainingSet {
        let mut ts = TrainingSet::new();
        if let Some(pdb) = &self.peeringdb {
            for o in hoiho_pdb::training_observations(&self.internet, pdb) {
                ts.push(o);
            }
            return ts;
        }
        for (&addr, &ridx) in &self.graph.by_addr {
            let Some(iface) = self.internet.iface_at(addr) else { continue };
            let Some(hostname) = iface.hostname.as_deref() else { continue };
            let Some(asn) = self.owners[ridx] else { continue };
            ts.push(Observation::new(hostname, hoiho_asdb::addr_octets(addr), asn));
        }
        ts
    }

    /// The PTR names (DNS reverse names) of the observed interfaces:
    /// every address in the router graph that has a hostname.
    pub fn hostnames(&self) -> BTreeMap<Addr, String> {
        self.graph
            .by_addr
            .keys()
            .filter_map(|&addr| {
                let h = self.internet.iface_at(addr)?.hostname.as_deref()?;
                Some((addr, h.to_string()))
            })
            .collect()
    }

    /// Ground-truth accuracy of the training ASNs over observed routers
    /// (routers whose true operator is known and inference produced an
    /// ASN). PeeringDB snapshots score their records instead.
    pub fn training_accuracy(&self) -> f64 {
        if let Some(pdb) = &self.peeringdb {
            if pdb.is_empty() {
                return 0.0;
            }
            let ok = pdb.records.iter().filter(|r| r.correct()).count();
            return ok as f64 / pdb.len() as f64;
        }
        let mut ok = 0usize;
        let mut all = 0usize;
        for (&addr, &ridx) in &self.graph.by_addr {
            let Some(truth) = self.internet.owner_of_addr(addr) else { continue };
            let Some(inferred) = self.owners[ridx] else { continue };
            all += 1;
            if truth == inferred || self.input.org.siblings(truth, inferred) {
                ok += 1;
            }
        }
        if all == 0 {
            0.0
        } else {
            ok as f64 / all as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(method: Method) -> SnapshotSpec {
        SnapshotSpec {
            label: "test".into(),
            method,
            cfg: SimConfig::tiny(51),
            alias_split: 0.3,
        }
    }

    #[test]
    fn timeline_matches_paper_structure() {
        let tl = timeline();
        assert_eq!(tl.len(), 19);
        assert_eq!(tl.iter().filter(|s| s.method == Method::Rtaa).count(), 12);
        assert_eq!(tl.iter().filter(|s| s.method == Method::BdrmapIt).count(), 5);
        assert_eq!(tl.iter().filter(|s| s.method == Method::PeeringDb).count(), 2);
        // Growth: later snapshots see more VPs and bigger style weights.
        assert!(tl[16].cfg.vantage_points > tl[0].cfg.vantage_points);
        assert!(tl[16].cfg.styles.start > tl[0].cfg.styles.start);
        assert!(tl[0].alias_split > tl[11].alias_split);
    }

    #[test]
    fn build_rtaa_snapshot() {
        let snap = BuiltSnapshot::build(&tiny_spec(Method::Rtaa));
        assert!(!snap.graph.is_empty());
        assert_eq!(snap.owners.len(), snap.graph.len());
        let ts = snap.training_set();
        assert!(!ts.is_empty(), "no training observations");
        let acc = snap.training_accuracy();
        assert!(acc > 0.5 && acc <= 1.0, "implausible RTAA accuracy {acc}");
    }

    #[test]
    fn bdrmapit_more_accurate_than_rtaa() {
        let r = BuiltSnapshot::build(&tiny_spec(Method::Rtaa));
        let b = BuiltSnapshot::build(&tiny_spec(Method::BdrmapIt));
        assert!(
            b.training_accuracy() >= r.training_accuracy(),
            "bdrmapIT {} < RTAA {}",
            b.training_accuracy(),
            r.training_accuracy()
        );
    }

    #[test]
    fn peeringdb_snapshot() {
        let snap = BuiltSnapshot::build(&tiny_spec(Method::PeeringDb));
        assert!(snap.peeringdb.is_some());
        let ts = snap.training_set();
        assert!(!ts.is_empty());
        assert!(snap.training_accuracy() > 0.9);
    }

    #[test]
    fn training_observations_use_observed_interfaces_only() {
        let snap = BuiltSnapshot::build(&tiny_spec(Method::Rtaa));
        for o in snap.training_set().observations() {
            let addr = hoiho_asdb::addr_from_octets(o.addr);
            assert!(snap.graph.by_addr.contains_key(&addr));
        }
    }
}
