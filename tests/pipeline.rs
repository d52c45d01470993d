//! Whole-system integration: synthetic Internet → traceroute → alias
//! resolution → ownership inference → Hoiho learning → §5 integration,
//! asserting the paper's qualitative claims hold end to end.

use hoiho_repro::asdb::{addr_parse, As2Org, AsRelationships, Asn, IxpDirectory, RouteTable};
use hoiho_repro::bdrmap::graph::RouterGraph;
use hoiho_repro::bdrmap::integrate::integrate;
use hoiho_repro::bdrmap::{InferenceInput, Trace};
use hoiho_repro::cluster::ShardRouter;
use hoiho_repro::hoiho::classify::NcClass;
use hoiho_repro::hoiho::learner::{learn_all, LearnConfig};
use hoiho_repro::hoiho::regex::Regex;
use hoiho_repro::hoiho::taxonomy::Taxonomy;
use hoiho_repro::itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_repro::netsim::SimConfig;
use hoiho_repro::psl::PublicSuffixList;
use hoiho_repro::serve::model::{EvalCounts, ModelEntry};
use hoiho_repro::serve::{Engine, Model};
use std::collections::BTreeMap;

fn spec(method: Method, seed: u64) -> SnapshotSpec {
    SnapshotSpec { label: format!("it-{seed}"), method, cfg: SimConfig::tiny(seed), alias_split: 0.3 }
}

/// The §5 answer of a hostname: the engine's extracted ASN and the §4
/// class of the convention it dispatched to.
fn answer_of(engine: &Engine, hostname: &str) -> Option<(Asn, NcClass)> {
    let x = engine.extract(hostname);
    Some((x.asn?, engine.conventions()[x.nc?].class))
}

#[test]
fn method_ordering_rtaa_below_bdrmapit_below_peeringdb() {
    // Figure 6's headline ordering must hold on the same Internet.
    let seed = 777;
    let r = BuiltSnapshot::build(&spec(Method::Rtaa, seed));
    let b = BuiltSnapshot::build(&spec(Method::BdrmapIt, seed));
    let p = BuiltSnapshot::build(&spec(Method::PeeringDb, seed));
    let (ra, ba, pa) = (r.training_accuracy(), b.training_accuracy(), p.training_accuracy());
    assert!(ra < ba, "RTAA {ra} should be below bdrmapIT {ba}");
    assert!(ba < pa + 0.05, "bdrmapIT {ba} should not beat PeeringDB {pa} materially");
    assert!(ra > 0.5 && pa > 0.9);
}

#[test]
fn learner_finds_usable_conventions_on_snapshot() {
    let snap = BuiltSnapshot::build(&spec(Method::BdrmapIt, 4242));
    let psl = PublicSuffixList::builtin();
    let training = snap.training_set();
    assert!(training.len() > 100, "thin training set: {}", training.len());
    let groups = training.by_suffix(&psl);
    let learned = learn_all(&groups, &LearnConfig::default());
    assert!(!learned.is_empty());
    let usable = learned.iter().filter(|l| l.class.usable()).count();
    assert!(usable >= 3, "only {usable} usable conventions");
    // Every learned convention extracts from its own suffix.
    for lc in &learned {
        assert!(!lc.convention.is_empty());
        assert!(lc.counts.tp > 0);
    }
}

#[test]
fn integration_improves_against_ground_truth() {
    // The §5 loop: agreement and ground-truth accuracy must not get
    // worse, and stale hostnames must mostly be rejected. A full-size
    // Internet keeps the decision sample large enough to be stable.
    let snap = BuiltSnapshot::build(&SnapshotSpec {
        label: "it-991".into(),
        method: Method::BdrmapIt,
        cfg: SimConfig { seed: 991, ..SimConfig::default() },
        alias_split: 0.3,
    });
    let psl = PublicSuffixList::builtin();
    let groups = snap.training_set().by_suffix(&psl);
    let mut model = Model::from_learned(&learn_all(&groups, &LearnConfig::default()));
    model.entries.retain(|e| !e.single);
    let engine = Engine::new(&model);
    let answer = |h: &str| answer_of(&engine, h);
    let hostnames = snap.hostnames();
    let res = integrate(&snap.graph, &snap.input, &snap.owners, &hostnames, answer);
    assert!(res.annotated > 20, "annotated: {}", res.annotated);
    assert!(res.final_rate() >= res.initial_rate());

    // Ground truth scoring over annotated interfaces.
    let score = |owners: &[Option<u32>]| -> (usize, usize) {
        let (mut ok, mut all) = (0, 0);
        for (&addr, h) in &hostnames {
            if answer(h).is_none() {
                continue;
            }
            let ridx = snap.graph.by_addr[&addr];
            let Some(truth) = snap.internet.owner_of_addr(addr) else { continue };
            let Some(inf) = owners[ridx] else { continue };
            all += 1;
            if inf == truth || snap.input.org.siblings(inf, truth) {
                ok += 1;
            }
        }
        (ok, all)
    };
    let (ok0, all0) = score(&snap.owners);
    let (ok1, all1) = score(&res.owners);
    assert_eq!(all0, all1);
    assert!(ok1 >= ok0, "integration reduced accuracy: {ok0}/{all0} -> {ok1}/{all1}");

    // Decision accuracy against simulator ground truth (the Table 2
    // protocol over every decision): ≥ 70% correct.
    let mut correct = 0usize;
    for d in &res.decisions {
        let truth = snap.internet.owner_of_addr(d.addr).unwrap();
        let hostname_right = d.extracted == truth || snap.input.org.siblings(d.extracted, truth);
        if hostname_right == d.used {
            correct += 1;
        }
    }
    if !res.decisions.is_empty() {
        let rate = correct as f64 / res.decisions.len() as f64;
        assert!(rate >= 0.7, "stale-vs-correct arbitration only {rate:.2}");
    }
}

#[test]
fn itdk_and_peeringdb_are_complementary() {
    // §4: the two sources overlap on IXPs but each contributes unique
    // usable suffixes (on a big-enough Internet).
    let cfg = SimConfig { seed: 606, ..SimConfig::default() };
    let itdk = BuiltSnapshot::build(&SnapshotSpec {
        label: "itdk".into(),
        method: Method::BdrmapIt,
        cfg: cfg.clone(),
        alias_split: 0.3,
    });
    let pdb = BuiltSnapshot::build(&SnapshotSpec {
        label: "pdb".into(),
        method: Method::PeeringDb,
        cfg,
        alias_split: 0.3,
    });
    let psl = PublicSuffixList::builtin();
    let usable = |snap: &BuiltSnapshot| -> std::collections::BTreeSet<String> {
        learn_all(&snap.training_set().by_suffix(&psl), &LearnConfig::default())
            .into_iter()
            .filter(|l| l.class.usable())
            .map(|l| l.convention.suffix)
            .collect()
    };
    let a = usable(&itdk);
    let b = usable(&pdb);
    assert!(!a.is_empty() && !b.is_empty());
    assert!(a.difference(&b).count() > 0, "ITDK contributed nothing unique");
}

#[test]
fn good_conventions_have_high_ppv_on_holdout() {
    // Learn on one snapshot, apply to the same Internet's full
    // ground-truth interface table (a superset of the training data):
    // good NCs must stay mostly correct.
    let snap = BuiltSnapshot::build(&spec(Method::BdrmapIt, 31415));
    let psl = PublicSuffixList::builtin();
    let learned = learn_all(&snap.training_set().by_suffix(&psl), &LearnConfig::default());
    let mut ok = 0usize;
    let mut bad = 0usize;
    for lc in learned.iter().filter(|l| l.class == NcClass::Good && !l.single) {
        for (iface, owner) in snap.internet.named_interfaces() {
            let h = iface.hostname.as_deref().unwrap();
            if let Some(extracted) = lc.convention.extract(h) {
                if extracted == owner || snap.input.org.siblings(extracted, owner) {
                    ok += 1;
                } else {
                    bad += 1;
                }
            }
        }
    }
    assert!(ok > 0);
    let ppv = ok as f64 / (ok + bad) as f64;
    assert!(ppv > 0.75, "holdout PPV {ppv:.2}");
}

#[test]
fn sec5_answers_hostnames_as_the_engine_and_the_router_do() {
    // The cluster router's test model: a registrable domain with a
    // deeper suffix under it, so the PSL rule's precedence shows.
    let entry = |suffix: &str, class: NcClass, rx: &str| ModelEntry {
        suffix: suffix.to_string(),
        class,
        single: false,
        taxonomy: Taxonomy::Start,
        hostnames: 5,
        counts: EvalCounts::default(),
        regexes: vec![Regex::parse(rx).unwrap()],
    };
    let model = Model {
        entries: vec![
            entry("equinix.com", NcClass::Good, r"^[^\.]+\.[^\.]+\.as(\d+)\.equinix\.com$"),
            entry("nts.ch", NcClass::Good, r"^[^\.]+\.\d+\.[a-z]+\.as(\d+)\.nts\.ch$"),
            entry("sgw.equinix.com", NcClass::Poor, r"^p(\d+)\.sgw\.equinix\.com$"),
            entry("example.net", NcClass::Promising, r"^as(\d+)\.example\.net$"),
        ],
    };
    let engine = Engine::new(&model);
    let router = ShardRouter::from_model(&model, 2, 64).unwrap();

    // One trace whose hops carry the hostnames. `p714.sgw.equinix.com`
    // dispatches to `equinix.com` (the registrable domain), whose regex
    // does not match it; `AS3356.EXAMPLE.NET` is answered case-blind.
    let names = [
        "a.b.as64500.equinix.com",
        "p714.sgw.equinix.com",
        "as3356.example.net",
        "AS3356.EXAMPLE.NET",
        "ge0-2.01.p.as15576.nts.ch",
        "nothing.example.org",
    ];
    let addr = |i: usize| addr_parse(&format!("10.0.0.{}", i + 1)).unwrap();
    let input = InferenceInput {
        bgp: RouteTable::new(),
        rel: AsRelationships::new(),
        org: As2Org::new(),
        ixps: IxpDirectory::new(),
        aliases: vec![],
        traces: vec![Trace {
            vp_asn: 65000,
            dst: addr(names.len()),
            hops: (0..=names.len()).map(|i| Some(addr(i))).collect(),
        }],
    };
    let graph = RouterGraph::build(&input);
    let hostnames: BTreeMap<_, _> =
        names.iter().enumerate().map(|(i, h)| (addr(i), h.to_string())).collect();

    // With no initial owners, every annotated interface is a decision.
    let owners = vec![None; graph.len()];
    let res = integrate(&graph, &input, &owners, &hostnames, |h| answer_of(&engine, h));
    let decided: Vec<(&str, Option<(Asn, NcClass)>)> =
        res.decisions.iter().map(|d| (d.hostname.as_str(), Some((d.extracted, d.class)))).collect();
    let expected: Vec<(&str, Option<(Asn, NcClass)>)> = hostnames
        .values()
        .map(|h| (h.as_str(), answer_of(&engine, h)))
        .filter(|(_, a)| a.is_some())
        .collect();
    assert_eq!(decided, expected);
    assert_eq!(res.annotated, expected.len());
    for (h, answer) in &decided {
        let routed = router.lookup(h);
        assert_eq!(*answer, routed.asn.zip(routed.class), "router disagrees on {h}");
    }
    // The two names where a longest-label-suffix, case-sensitive lookup
    // would answer otherwise.
    assert!(!decided.iter().any(|(h, _)| *h == "p714.sgw.equinix.com"));
    assert!(decided.contains(&("AS3356.EXAMPLE.NET", Some((3356, NcClass::Promising)))));
}
