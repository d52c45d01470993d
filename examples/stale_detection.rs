//! Stale-hostname arbitration (paper §5, Figures 2 and 3).
//!
//! Demonstrates the three hard cases the modified bdrmapIT must
//! arbitrate:
//!   1. the hostname is right and the heuristic inference is wrong
//!      (adopt the extracted ASN);
//!   2. the hostname is stale — it names a previous neighbor with no
//!      topological support (keep the inference);
//!   3. the hostname has a typo the §3.1 congruence rule tolerates.
//!
//! Run with: `cargo run --example stale_detection`

use hoiho::classify::NcClass;
use hoiho::{NamingConvention, Regex};
use hoiho_asdb::{addr_parse, As2Org, AsRelationships, IxpDirectory, Prefix, RouteTable};
use hoiho_bdrmap::graph::RouterGraph;
use hoiho_bdrmap::integrate::integrate;
use hoiho_bdrmap::{InferenceInput, Trace};
use std::collections::BTreeMap;

fn a(s: &str) -> u32 {
    addr_parse(s).expect("addr")
}

fn main() {
    // Topology: provider AS 3356 (10/8) supplies /31s to customers
    // AS 64500 (20/8) and AS 64510 (30/8).
    let mut bgp = RouteTable::new();
    bgp.insert("10.0.0.0/8".parse::<Prefix>().unwrap(), 3356);
    bgp.insert("20.0.0.0/8".parse::<Prefix>().unwrap(), 64500);
    bgp.insert("30.0.0.0/8".parse::<Prefix>().unwrap(), 64510);
    let mut rel = AsRelationships::new();
    rel.add_provider_customer(3356, 64500);
    rel.add_provider_customer(3356, 64510);

    // Two traceroutes crossing the two customer borders.
    let input = InferenceInput {
        bgp,
        rel,
        org: As2Org::new(),
        ixps: IxpDirectory::new(),
        aliases: vec![],
        traces: vec![
            Trace {
                vp_asn: 65000,
                dst: a("20.0.0.99"),
                hops: vec![
                    Some(a("10.0.0.1")),
                    Some(a("10.0.9.1")), // 64500's border, supplied by 3356
                    Some(a("20.0.0.1")),
                    Some(a("20.0.0.99")),
                ],
            },
            Trace {
                vp_asn: 65000,
                dst: a("30.0.0.99"),
                hops: vec![
                    Some(a("10.0.0.1")),
                    Some(a("10.0.9.3")), // 64510's border, supplied by 3356
                    Some(a("30.0.0.1")),
                    Some(a("30.0.0.99")),
                ],
            },
        ],
    };
    let graph = RouterGraph::build(&input);

    // Provider's learned convention: `as<neighbor>.<pop>.prov.net`.
    let nc = NamingConvention::new(
        "prov.net",
        vec![Regex::parse(r"^as(\d+)\.[a-z\d-]+\.prov\.net$").unwrap()],
    );

    // Hostnames the provider assigned to the far-side addresses.
    //   10.0.9.1 — correct annotation (AS64500)
    //   10.0.9.3 — STALE: names AS65333, a neighbor long gone.
    let hostnames = BTreeMap::from([
        (a("10.0.9.1"), "as64500.fra.prov.net".to_string()),
        (a("10.0.9.3"), "as65333.lhr.prov.net".to_string()),
    ]);

    // Pretend the heuristic elected the supplier for both borders (the
    // Figure 1 failure mode).
    let mut owners = vec![None; graph.len()];
    owners[graph.by_addr[&a("10.0.9.1")]] = Some(3356);
    owners[graph.by_addr[&a("10.0.9.3")]] = Some(64510); // topology got this one right

    println!("before integration:");
    for (addr, h) in &hostnames {
        let r = graph.by_addr[addr];
        println!(
            "  {} {:28} inferred={:?}",
            hoiho_asdb::addr_to_string(*addr),
            h,
            owners[r]
        );
    }

    let res = integrate(&graph, &input, &owners, &hostnames, |h| {
        nc.extract(h).map(|asn| (asn, NcClass::Good))
    });

    println!("\ndecisions on incongruent hostnames:");
    for d in &res.decisions {
        println!(
            "  {} {:28} extracted=AS{} initial={:?} -> {}",
            hoiho_asdb::addr_to_string(d.addr),
            d.hostname,
            d.extracted,
            d.initial,
            if d.used { "USED (reasonable)" } else { "REJECTED (stale)" }
        );
    }

    println!("\nafter integration:");
    for addr in hostnames.keys() {
        let r = graph.by_addr[addr];
        println!("  {} inferred={:?}", hoiho_asdb::addr_to_string(*addr), res.owners[r]);
    }
    println!(
        "\nagreement: {}/{} before, {}/{} after",
        res.agree_initial, res.annotated, res.agree_final, res.annotated
    );

    // Typo tolerance (Figure 3a): the §3.1 congruence rule.
    println!("\ntypo congruence (§3.1):");
    for (extracted, training) in [("24940", 20940u32), ("20732", 207032), ("605", 6057)] {
        let c = hoiho::apparent::congruence(extracted, training);
        println!("  extracted {extracted} vs training AS{training}: {c:?}");
    }
}
