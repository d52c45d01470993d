//! §5: using extracted hostname ASNs inside bdrmapIT.
//!
//! Hostnames can be stale or typoed, and the heuristic inference can be
//! wrong — the paper's modification arbitrates between the two signals
//! topologically. An extracted ASN is *reasonable* for a router when it
//! matches, or is a sibling of, an ASN in the router's subsequent or
//! destination sets, or is a provider of one of those ASes. Reasonable
//! extractions replace the inferred owner; unreasonable ones are deemed
//! stale and the topological inference stands.
//!
//! This module consumes answers; it picks no convention itself. The
//! caller hands [`integrate`] each hostname's answer — the extracted
//! ASN and the §4 class of the convention that extracted it — as a
//! function. The experiments and the examples pass the serving
//! engine's answer, so §5 sees exactly what a served query returns.

use crate::graph::{RouterGraph, RouterIdx};
use crate::InferenceInput;
use hoiho::classify::NcClass;
use hoiho_asdb::{Addr, Asn};
use std::collections::BTreeMap;

/// One arbitration between a hostname and the heuristic inference.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Interface address.
    pub addr: Addr,
    /// Its hostname.
    pub hostname: String,
    /// The router holding the interface.
    pub router: RouterIdx,
    /// ASN extracted from the hostname.
    pub extracted: Asn,
    /// The inference before integration.
    pub initial: Option<Asn>,
    /// Quality class of the convention that extracted the ASN.
    pub class: NcClass,
    /// True when the extracted ASN passed the reasonableness test and
    /// was adopted.
    pub used: bool,
}

/// Outcome of integrating hostname evidence.
#[derive(Debug, Clone)]
pub struct IntegrationResult {
    /// Updated per-router owners.
    pub owners: Vec<Option<Asn>>,
    /// One row per interface whose extracted ASN differed from the
    /// initial inference.
    pub decisions: Vec<Decision>,
    /// Interfaces with hostnames that yielded an extracted ASN.
    pub annotated: usize,
    /// Of those, how many agreed with the initial inference (sibling
    /// matches count as agreement).
    pub agree_initial: usize,
    /// Agreement after integration.
    pub agree_final: usize,
}

impl IntegrationResult {
    /// Initial agreement rate over annotated interfaces.
    pub fn initial_rate(&self) -> f64 {
        rate(self.agree_initial, self.annotated)
    }

    /// Final agreement rate over annotated interfaces.
    pub fn final_rate(&self) -> f64 {
        rate(self.agree_final, self.annotated)
    }
}

fn rate(num: usize, denom: usize) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

/// The §5 reasonableness test.
pub fn reasonable(
    graph: &RouterGraph,
    input: &InferenceInput,
    router: RouterIdx,
    extracted: Asn,
) -> bool {
    for v in graph.evidence(router) {
        if v == extracted
            || input.org.siblings(extracted, v)
            || input.rel.is_provider_of(extracted, v)
        {
            return true;
        }
    }
    false
}

/// Integrates extracted ASNs into the inference. `hostnames` maps
/// interface addresses to PTR names; `owners` is the pre-integration
/// inference (e.g. from [`crate::refine::infer`]); `extract` answers a
/// hostname with its extracted ASN and the §4 class of the convention
/// that extracted it, or `None` when no convention extracts one. It is
/// called once per hostname on an observed interface.
pub fn integrate(
    graph: &RouterGraph,
    input: &InferenceInput,
    owners: &[Option<Asn>],
    hostnames: &BTreeMap<Addr, String>,
    extract: impl Fn(&str) -> Option<(Asn, NcClass)>,
) -> IntegrationResult {
    let mut out = IntegrationResult {
        owners: owners.to_vec(),
        decisions: Vec::new(),
        annotated: 0,
        agree_initial: 0,
        agree_final: 0,
    };
    let agrees = |a: Asn, b: Option<Asn>| -> bool {
        b.is_some_and(|b| a == b || input.org.siblings(a, b))
    };
    // Every annotated interface's (router, extracted ASN), for the
    // final recount.
    let mut annotated: Vec<(RouterIdx, Asn)> = Vec::new();
    // Deterministic order: iterate the hostname table.
    for (&addr, hostname) in hostnames {
        let Some(&router) = graph.by_addr.get(&addr) else { continue };
        let Some((extracted, class)) = extract(hostname) else { continue };
        annotated.push((router, extracted));
        let initial = owners[router];
        if agrees(extracted, initial) {
            out.agree_initial += 1;
            continue;
        }
        let used = reasonable(graph, input, router, extracted);
        if used {
            out.owners[router] = Some(extracted);
        }
        out.decisions.push(Decision {
            addr,
            hostname: hostname.clone(),
            router,
            extracted,
            initial,
            class,
            used,
        });
    }
    // Final agreement: recount against the updated owners.
    out.annotated = annotated.len();
    out.agree_final = annotated.iter().filter(|&&(r, a)| agrees(a, out.owners[r])).count();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RouterGraph;
    use crate::Trace;
    use hoiho::{NamingConvention, Regex};
    use hoiho_asdb::{As2Org, AsRelationships, IxpDirectory, Prefix, RouteTable};

    fn a(s: &str) -> Addr {
        hoiho_asdb::addr_parse(s).unwrap()
    }

    /// The provider's one convention, answered directly.
    fn extract(hostname: &str) -> Option<(Asn, NcClass)> {
        let nc = NamingConvention::new(
            "prov.net",
            vec![Regex::parse(r"^as(\d+)\.[a-z\d-]+\.prov\.net$").unwrap()],
        );
        nc.extract(hostname).map(|asn| (asn, NcClass::Good))
    }

    /// AS100 (10/8) provides to AS200 (20/8) and AS300 (30/8, sibling of
    /// 200). Customer border answers with supplied 10.0.9.1.
    fn setup() -> (RouterGraph, InferenceInput) {
        let mut bgp = RouteTable::new();
        bgp.insert("10.0.0.0/8".parse::<Prefix>().unwrap(), 100);
        bgp.insert("20.0.0.0/8".parse::<Prefix>().unwrap(), 200);
        bgp.insert("30.0.0.0/8".parse::<Prefix>().unwrap(), 300);
        let mut rel = AsRelationships::new();
        rel.add_provider_customer(100, 200);
        rel.add_provider_customer(100, 300);
        let mut org = As2Org::new();
        org.assign(200, 1, "acme");
        org.assign(300, 1, "acme");
        let input = InferenceInput {
            bgp,
            rel,
            org,
            ixps: IxpDirectory::new(),
            aliases: vec![],
            traces: vec![Trace {
                vp_asn: 64500,
                dst: a("20.0.0.99"),
                hops: vec![
                    Some(a("10.0.0.1")),
                    Some(a("10.0.9.1")),
                    Some(a("20.0.0.1")),
                    Some(a("20.0.0.99")),
                ],
            }],
        };
        let graph = RouterGraph::build(&input);
        (graph, input)
    }

    #[test]
    fn correct_hostname_fixes_wrong_inference() {
        let (graph, input) = setup();
        let ridx = graph.by_addr[&a("10.0.9.1")];
        // Pretend the heuristic got it wrong (elected the supplier).
        let mut owners = vec![None; graph.len()];
        owners[ridx] = Some(100);
        let hostnames =
            BTreeMap::from([(a("10.0.9.1"), "as200.lhr-3.prov.net".to_string())]);
        let res = integrate(&graph, &input, &owners, &hostnames, extract);
        assert_eq!(res.annotated, 1);
        assert_eq!(res.agree_initial, 0);
        assert_eq!(res.agree_final, 1);
        assert_eq!(res.owners[ridx], Some(200));
        assert_eq!(res.decisions.len(), 1);
        assert!(res.decisions[0].used);
    }

    #[test]
    fn stale_hostname_rejected() {
        let (graph, input) = setup();
        let ridx = graph.by_addr[&a("10.0.9.1")];
        let mut owners = vec![None; graph.len()];
        owners[ridx] = Some(200);
        // Hostname names AS 999 — no topological support.
        let hostnames =
            BTreeMap::from([(a("10.0.9.1"), "as999.lhr-3.prov.net".to_string())]);
        let res = integrate(&graph, &input, &owners, &hostnames, extract);
        assert_eq!(res.owners[ridx], Some(200), "stale hostname must not be adopted");
        assert_eq!(res.decisions.len(), 1);
        assert!(!res.decisions[0].used);
        assert_eq!(res.agree_final, 0);
    }

    #[test]
    fn sibling_counts_as_agreement() {
        let (graph, input) = setup();
        let ridx = graph.by_addr[&a("10.0.9.1")];
        let mut owners = vec![None; graph.len()];
        owners[ridx] = Some(300); // sibling of 200
        let hostnames =
            BTreeMap::from([(a("10.0.9.1"), "as200.lhr-3.prov.net".to_string())]);
        let res = integrate(&graph, &input, &owners, &hostnames, extract);
        assert_eq!(res.agree_initial, 1);
        assert!(res.decisions.is_empty());
        assert_eq!(res.owners[ridx], Some(300), "sibling agreement leaves owner alone");
    }

    #[test]
    fn provider_of_evidence_is_reasonable() {
        let (graph, input) = setup();
        // Router 10.0.0.1's evidence includes 100 (subsequent) and 200
        // (destination). AS 100 is in evidence directly; a provider of
        // 200 is also reasonable.
        let ridx = graph.by_addr[&a("10.0.0.1")];
        assert!(reasonable(&graph, &input, ridx, 100));
        // 100 is a provider of 200 → also reasonable by the provider
        // rule even if not directly present.
        assert!(reasonable(&graph, &input, ridx, 200));
        assert!(!reasonable(&graph, &input, ridx, 999));
    }

    #[test]
    fn unknown_addresses_ignored() {
        let (graph, input) = setup();
        let owners = vec![None; graph.len()];
        let hostnames = BTreeMap::from([(a("99.9.9.9"), "as200.x-1.prov.net".to_string())]);
        let res = integrate(&graph, &input, &owners, &hostnames, extract);
        assert_eq!(res.annotated, 0);
        assert!(res.decisions.is_empty());
    }
}
