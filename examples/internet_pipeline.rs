//! End-to-end pipeline on the synthetic Internet (the paper's full
//! system): generate a topology, run traceroutes, infer router
//! ownership with bdrmapIT, learn naming conventions with Hoiho, then
//! feed the extracted ASNs back into bdrmapIT (§5) and score everything
//! against ground truth.
//!
//! Run with: `cargo run --release --example internet_pipeline`

use hoiho::learner::{learn_all, LearnConfig};
use hoiho_bdrmap::integrate::integrate;
use hoiho_bdrmap::refine::{self, RefineConfig};
use hoiho_itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_netsim::SimConfig;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{Engine, Model};

fn main() {
    // 1. Synthetic Internet + traceroute campaign + router graph.
    let spec = SnapshotSpec {
        label: "2020-01".into(),
        method: Method::BdrmapIt,
        cfg: SimConfig::default(),
        alias_split: 0.3,
    };
    println!("building snapshot ({} ASes)...", spec.cfg.total_ases());
    let snap = BuiltSnapshot::build(&spec);
    println!(
        "  routers={} observed-interfaces={} traces={}",
        snap.graph.len(),
        snap.graph.by_addr.len(),
        snap.input.traces.len()
    );

    // 2. Hoiho learns conventions from the bdrmapIT-annotated hostnames.
    let psl = PublicSuffixList::builtin();
    let training = snap.training_set();
    let groups = training.by_suffix(&psl);
    let learned = learn_all(&groups, &LearnConfig::default());
    println!(
        "\nlearned {} conventions from {} suffixes ({} hostnames):",
        learned.len(),
        groups.len(),
        training.len()
    );
    for lc in learned.iter().take(8) {
        println!(
            "  {:<28} {:9} PPV={:5.1}%  {}",
            lc.convention.suffix,
            lc.class.label(),
            lc.counts.ppv() * 100.0,
            lc.convention.regexes[0]
        );
    }
    if learned.len() > 8 {
        println!("  ... and {} more", learned.len() - 8);
    }

    // 3. Integrate extracted ASNs into bdrmapIT (§5).
    let owners = refine::infer(&snap.graph, &snap.input, &RefineConfig::default());
    // Single-ASN conventions (Figure 2 style) annotate the supplier, not
    // the operator — exclude them from integration. The serving engine
    // answers each hostname, exactly as a served query would.
    let mut model = Model::from_learned(&learned);
    model.entries.retain(|e| !e.single);
    let engine = Engine::new(&model);
    let hostnames = snap.hostnames();
    let res = integrate(&snap.graph, &snap.input, &owners, &hostnames, |h| {
        let x = engine.extract(h);
        Some((x.asn?, engine.conventions()[x.nc?].class))
    });
    println!(
        "\nintegration: {} annotated interfaces; agreement {:.1}% -> {:.1}%",
        res.annotated,
        res.initial_rate() * 100.0,
        res.final_rate() * 100.0
    );
    let used = res.decisions.iter().filter(|d| d.used).count();
    println!(
        "  of {} incongruent hostnames, {} adopted, {} rejected as stale",
        res.decisions.len(),
        used,
        res.decisions.len() - used
    );

    // 4. Score against ground truth.
    let score = |owners: &[Option<u32>]| -> (usize, usize) {
        let mut ok = 0;
        let mut all = 0;
        for (&addr, &ridx) in &snap.graph.by_addr {
            if !hostnames.contains_key(&addr) {
                continue;
            }
            let Some(truth) = snap.internet.owner_of_addr(addr) else { continue };
            let Some(inf) = owners[ridx] else { continue };
            all += 1;
            if inf == truth || snap.input.org.siblings(inf, truth) {
                ok += 1;
            }
        }
        (ok, all)
    };
    let (ok0, all0) = score(&owners);
    let (ok1, all1) = score(&res.owners);
    let err = |ok: usize, all: usize| {
        let wrong = all - ok;
        if wrong == 0 {
            "0".to_string()
        } else {
            format!("1/{:.1}", all as f64 / wrong as f64)
        }
    };
    println!("\nground truth over named interfaces:");
    println!(
        "  before: {}/{} correct ({:.1}%), error rate {}",
        ok0,
        all0,
        100.0 * ok0 as f64 / all0 as f64,
        err(ok0, all0)
    );
    println!(
        "  after:  {}/{} correct ({:.1}%), error rate {}",
        ok1,
        all1,
        100.0 * ok1 as f64 / all1 as f64,
        err(ok1, all1)
    );
}
