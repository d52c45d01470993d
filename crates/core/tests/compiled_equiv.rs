//! Equivalence oracles for the two-layer candidate-evaluation engine:
//!
//! * compiled classification (`classify_host_compiled`,
//!   `evaluate_compiled`, `regex_hit`) against the interpreter on
//!   corpora that exercise every §3.1 rule — typo congruence,
//!   embedded-IP overlap, oversized digit runs;
//! * `learn_all` with the sparse-hit path on vs off: identical
//!   `LearnedConvention`s on a fixed-seed synthetic Internet, and a
//!   fixed-seed determinism check on the default path;
//! * the text round trip of every regex the learner pools, which makes
//!   keying by elements agree with keying by rendered text.

use hoiho::eval::{
    classify_host, classify_host_compiled, classify_host_interpreted, evaluate, evaluate_compiled,
    evaluate_interpreted, regex_hit,
};
use hoiho::learner::{learn_all, LearnConfig, LearnedConvention};
use hoiho::phases::base;
use hoiho::phases::classes::embed_classes;
use hoiho::phases::merge::merge;
use hoiho::regex::{CompiledRegex, Regex};
use hoiho::training::{HostObs, Observation, TrainingSet};
use hoiho_psl::PublicSuffixList;

fn rx(s: &str) -> Regex {
    Regex::parse(s).unwrap()
}

/// Hostnames that exercise every classification rule: exact congruence,
/// the typo rule, embedded-IP overlap (congruent digits that are part
/// of the interface's own address), incongruence, oversized digit
/// runs, unmatched-with-apparent (FN), and unmatched-plain (TN).
fn tricky_hosts() -> Vec<HostObs> {
    let rows: &[(&str, [u8; 4], u32, &str)] = &[
        ("as15576.nts.ch", [1, 1, 1, 1], 15576, "nts.ch"),
        ("as24940.akl-ix.nz", [1, 1, 1, 2], 20940, "akl-ix.nz"),
        (
            "50-236-216-122-static.hfc.comcastbusiness.net",
            [50, 236, 216, 122],
            122,
            "comcastbusiness.net",
        ),
        ("as44879.nts.ch", [1, 1, 1, 3], 15576, "nts.ch"),
        ("as99999999999.pop1.example.com", [1, 1, 1, 4], 100, "example.com"),
        ("p714.sgw.equinix.com", [1, 1, 1, 5], 714, "equinix.com"),
        ("24482-fr5-ix.equinix.com", [1, 1, 1, 6], 24482, "equinix.com"),
        ("netflix.zh2.corp.eu.equinix.com", [1, 1, 1, 7], 2906, "equinix.com"),
        ("core1.nts.ch", [1, 1, 1, 8], 15576, "nts.ch"),
        ("", [1, 1, 1, 9], 1, ""),
    ];
    rows.iter()
        .map(|&(h, addr, asn, sfx)| HostObs::build(&Observation::new(h, addr, asn), sfx))
        .collect()
}

fn tricky_sets() -> Vec<Vec<Regex>> {
    vec![
        vec![rx(r"as(\d+)\.nts\.ch$")],
        vec![rx(r"^as(\d+)\.akl-ix\.nz$")],
        vec![rx(r"(\d+)-static\.hfc\.comcastbusiness\.net$")],
        vec![rx(r"^as(\d+)\.[a-z\d]+\.example\.com$")],
        vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
        ],
        // A captureless regex first: the set must fall through past it.
        vec![rx(r"^\d+\.[a-z]+\."), rx(r"(\d+)")],
        vec![],
    ]
}

#[test]
fn compiled_classification_equals_interpreter_on_tricky_corpora() {
    let hosts = tricky_hosts();
    for set in tricky_sets() {
        let programs: Vec<CompiledRegex> = set.iter().map(CompiledRegex::compile).collect();
        for h in &hosts {
            // `classify_host` itself runs cached compiled programs now, so
            // the tree-walking interpreter (`classify_host_interpreted`)
            // is the real oracle; the default path must agree with both.
            let oracle = classify_host_interpreted(&set, h);
            assert_eq!(
                oracle,
                classify_host_compiled(&programs, h),
                "set {set:?} on {:?}",
                h.hostname
            );
            assert_eq!(oracle, classify_host(&set, h), "set {set:?} on {:?}", h.hostname);
        }
        let oracle_counts = evaluate_interpreted(&set, &hosts);
        assert_eq!(oracle_counts, evaluate_compiled(&programs, &hosts), "{set:?}");
        assert_eq!(oracle_counts, evaluate(&set, &hosts), "{set:?}");
    }
}

/// `regex_hit` is the single-regex column cell: `Some(outcome)` exactly
/// when a one-regex set would resolve the host, with the same outcome.
#[test]
fn regex_hit_agrees_with_single_regex_classification() {
    let hosts = tricky_hosts();
    for set in tricky_sets() {
        for r in &set {
            let p = CompiledRegex::compile(r);
            let single = std::slice::from_ref(r);
            for h in &hosts {
                let full = classify_host(single, h);
                match regex_hit(&p, h) {
                    Some(o) => assert_eq!(o, full, "{r} on {:?}", h.hostname),
                    None => assert_eq!(
                        full,
                        hoiho::eval::negative_outcome(h),
                        "{r} on {:?}",
                        h.hostname
                    ),
                }
            }
        }
    }
}

/// Ground-truth training set from the tiny synthetic Internet at a
/// fixed seed (the same generator `hoiho learn --sim` uses).
fn sim_groups(seed: u64) -> Vec<hoiho::training::SuffixTraining> {
    let internet = hoiho_netsim::Internet::generate(&hoiho_netsim::SimConfig::tiny(seed));
    let mut ts = TrainingSet::new();
    for (iface, owner) in internet.named_interfaces() {
        let hostname = iface.hostname.as_deref().expect("named interface has a hostname");
        ts.push(Observation::new(hostname, iface.addr.to_be_bytes(), owner));
    }
    ts.by_suffix(&PublicSuffixList::builtin())
}

fn assert_identical(a: &[LearnedConvention], b: &[LearnedConvention]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.convention, y.convention, "regex lists differ for {}", x.convention.suffix);
        assert_eq!(x.convention.to_string(), y.convention.to_string());
        assert_eq!(x.counts, y.counts, "counts differ for {}", x.convention.suffix);
        assert_eq!(x.class, y.class);
        assert_eq!(x.single, y.single);
        assert_eq!(x.taxonomy, y.taxonomy);
        assert_eq!(x.hostnames, y.hostnames);
    }
}

/// The outcome-matrix fast path changes nothing: whole-pipeline output
/// on a fixed-seed synthetic Internet is identical with the matrix on
/// (default) and off (the direct re-evaluation oracle).
#[test]
fn learn_all_identical_with_outcome_matrix_on_and_off() {
    let groups = sim_groups(42);
    assert!(!groups.is_empty(), "tiny sim must yield suffix groups");
    let on_cfg = LearnConfig { threads: 1, ..LearnConfig::default() };
    assert!(on_cfg.sets.outcome_matrix, "matrix is the default");
    let mut off_cfg = on_cfg;
    off_cfg.sets.outcome_matrix = false;
    let on = learn_all(&groups, &on_cfg);
    let off = learn_all(&groups, &off_cfg);
    assert!(!on.is_empty(), "sim training must learn something");
    assert_identical(&on, &off);
}

/// Aho–Corasick literal dispatch changes nothing either: `learn_all`
/// output on the fixed-seed synthetic Internet is identical with the
/// multi-matcher on (default) and off (PR 5's per-regex column build).
/// `scripts/tier1.sh` runs this test by name as the equivalence gate.
#[test]
fn learn_all_identical_with_multi_matcher_on_and_off() {
    let groups = sim_groups(42);
    assert!(!groups.is_empty(), "tiny sim must yield suffix groups");
    let mut on_cfg = LearnConfig { threads: 1, ..LearnConfig::default() };
    assert!(on_cfg.sets.multi_matcher, "literal dispatch is the default");
    // Pin the dispatch path: the sim's small suffixes sit below the
    // default `multi_matcher_min_cells`, which would silently route
    // both sides through the per-regex build and test nothing.
    on_cfg.sets.multi_matcher_min_cells = 0;
    let mut off_cfg = on_cfg;
    off_cfg.sets.multi_matcher = false;
    let on = learn_all(&groups, &on_cfg);
    let off = learn_all(&groups, &off_cfg);
    assert!(!on.is_empty(), "sim training must learn something");
    assert_identical(&on, &off);
}

/// Fixed seed, fixed config ⇒ byte-identical output run to run.
#[test]
fn learn_all_matrix_path_is_deterministic() {
    let groups = sim_groups(7);
    let cfg = LearnConfig::default();
    let a = learn_all(&groups, &cfg);
    let b = learn_all(&groups, &cfg);
    assert_identical(&a, &b);
}

/// The learner keys merge skeletons and dedups its pools by element
/// sequence, and orders by rendered text; the two agree only while
/// rendering is injective on everything it pools. It is, because
/// adjacent literals are coalesced and no digit-only class is produced
/// (`\d+` always parses back as digits): every base, merged and
/// classed regex of the fixed-seed sim parses back to itself.
#[test]
fn learner_pools_round_trip_through_text() {
    let cfg = LearnConfig::default();
    let mut checked = 0usize;
    for st in sim_groups(42) {
        let base = base::generate(&st, &cfg.base);
        let merged = merge(&base);
        let mut pool = base.clone();
        pool.extend(merged.iter().cloned());
        let classed = embed_classes(&pool, &st.hosts);
        for r in base.iter().chain(&merged).chain(&classed) {
            let text = r.to_string();
            assert_eq!(Regex::parse(&text).ok().as_ref(), Some(r), "{text} does not round-trip");
            checked += 1;
        }
    }
    assert!(checked > 100, "the sim must pool a real workload, got {checked} regexes");
}
