//! Equivalence oracles for the learner's candidate evaluation:
//!
//! * compiled classification (`classify_host`, `evaluate`,
//!   `regex_hit_cached`) against the tree-walking interpreter on
//!   corpora that exercise every §3.1 rule — typo congruence,
//!   embedded-IP overlap, oversized digit runs;
//! * the set builder against the paper's direct §3.5 algorithm, kept
//!   here as the reference: identical candidates on pools either side
//!   of the candidate screen's threshold, and a fixed-seed determinism
//!   check of `learn_all`;
//! * the text round trip of every regex the learner pools, which makes
//!   keying by elements agree with keying by rendered text.

use hoiho::eval::{
    classify_host, classify_host_interpreted, evaluate, evaluate_interpreted, regex_hit_cached,
    Counts,
};
use hoiho::learner::{learn_all, learn_suffix, LearnConfig, LearnedConvention};
use hoiho::phases::base;
use hoiho::phases::classes::embed_classes;
use hoiho::phases::merge::merge;
use hoiho::phases::sets::{build_sets_stats, CandidateNc, SetsConfig, SetsStats};
use hoiho::regex::{Elem, Regex, DISPATCH_MIN_CELLS};
use hoiho::select::select_best;
use hoiho::training::{HostObs, Observation, SuffixTraining, TrainingSet};
use hoiho_psl::PublicSuffixList;
use std::cmp::Reverse;
use std::collections::HashSet;

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
        for h in &hosts {
            // `classify_host` runs each regex's cached compiled program;
            // the tree-walking interpreter is the oracle.
            let oracle = classify_host_interpreted(&set, h);
            assert_eq!(oracle, classify_host(&set, h), "set {set:?} on {:?}", h.hostname);
        }
        assert_eq!(evaluate_interpreted(&set, &hosts), evaluate(&set, &hosts), "{set:?}");
    }
}

/// `regex_hit_cached` is the single-regex hit: `Some(outcome)` exactly
/// when a one-regex set would resolve the host, with the same outcome —
/// also when one host's span cache is shared by every regex tried on it.
#[test]
fn regex_hit_agrees_with_single_regex_classification() {
    let hosts = tricky_hosts();
    let regexes: Vec<Regex> = tricky_sets().into_iter().flatten().collect();
    for h in &hosts {
        let mut cache = None;
        for r in &regexes {
            let full = classify_host(std::slice::from_ref(r), h);
            match regex_hit_cached(r.program(), h, &mut cache) {
                Some(o) => assert_eq!(o, full, "{r} on {:?}", h.hostname),
                None => {
                    assert_eq!(full, hoiho::eval::negative_outcome(h), "{r} on {:?}", h.hostname)
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

/// The paper's direct §3.5 algorithm, kept as the reference the set
/// builder must match exactly: rank each regex by its own evaluation,
/// extend each top seed greedily by re-evaluating the whole trial set,
/// and order candidates with a rendered-text tie-break.
fn reference_build_sets(pool: &[Regex], hosts: &[HostObs], cfg: &SetsConfig) -> Vec<CandidateNc> {
    let mut ranked: Vec<(Regex, Counts)> = pool
        .iter()
        .map(|r| (r.clone(), evaluate(std::slice::from_ref(r), hosts)))
        .filter(|(_, c)| c.tp > 0)
        .collect();
    // ATP, then the anti-over-fitting tie-breaks: more TPs, fewer FPs,
    // less memorised text, stronger components, then the textual form.
    ranked.sort_by_cached_key(|(r, c)| {
        (
            Reverse(c.atp()),
            Reverse(c.tp),
            c.fp,
            r.memorised_chars(),
            Reverse(r.component_strength()),
            r.to_string(),
        )
    });
    ranked.truncate(cfg.max_pool);
    ranked.dedup_by(|a, b| a.0 == b.0);

    let mut out: Vec<CandidateNc> = ranked
        .iter()
        .map(|(r, c)| CandidateNc { regexes: vec![r.clone()], counts: c.clone() })
        .collect();

    // Greedy combination from each of the top `max_starts` seeds.
    for i in 0..ranked.len().min(cfg.max_starts) {
        let mut cur: Vec<Regex> = vec![ranked[i].0.clone()];
        let mut cur_counts = ranked[i].1.clone();
        for (r, _) in ranked.iter().skip(i + 1) {
            if cur.len() >= cfg.max_set_size {
                break;
            }
            let mut trial = cur.clone();
            trial.push(r.clone());
            let c = evaluate(&trial, hosts);
            if c.atp() > cur_counts.atp() {
                cur = trial;
                cur_counts = c;
            }
        }
        if cur.len() > 1 {
            out.push(CandidateNc { regexes: cur, counts: cur_counts });
        }
    }

    // Dedup identical conventions (two seeds can converge).
    out.sort_by_cached_key(|c| {
        (
            Reverse(c.counts.atp()),
            Reverse(c.counts.tp),
            c.counts.fp,
            c.regexes.len(),
            c.regexes.iter().map(|r| r.memorised_chars()).sum::<usize>(),
            Reverse(c.regexes.iter().map(|r| r.component_strength()).sum::<usize>()),
            c.regexes.iter().map(|r| format!("{r}\n")).collect::<String>(),
        )
    });
    out.dedup_by(|a, b| a.regexes == b.regexes);
    out
}

/// Appends `more` to `pool`, dropping every regex whose element
/// sequence is already pooled — the learner's dedup after each phase.
fn extend_dedup(pool: &mut Vec<Regex>, more: Vec<Regex>) {
    let mut seen: HashSet<Vec<Elem>> = pool.iter().map(|r| r.elems().to_vec()).collect();
    pool.extend(more.into_iter().filter(|r| seen.insert(r.elems().to_vec())));
}

/// The regex pool `learn_suffix` hands its sets phase, or `None` for a
/// suffix it skips before generating any regex.
fn learner_pool(st: &SuffixTraining, cfg: &LearnConfig) -> Option<Vec<Regex>> {
    if st.apparent_count() < cfg.min_apparent {
        return None;
    }
    let mut pool = base::generate(st, &cfg.base);
    if pool.is_empty() {
        return None;
    }
    let merged = merge(&pool);
    extend_dedup(&mut pool, merged);
    let classed = embed_classes(&pool, &st.hosts);
    extend_dedup(&mut pool, classed);
    Some(pool)
}

/// Figure 4's Equinix training data, hostnames a–p.
fn figure4() -> SuffixTraining {
    let rows: &[(u32, &str)] = &[
        (109, "109.sgw.equinix.com"),
        (714, "714.os.equinix.com"),
        (714, "714.me1.equinix.com"),
        (714, "p714.sgw.equinix.com"),
        (714, "s714.sgw.equinix.com"),
        (24115, "p24115.mel.equinix.com"),
        (24115, "s24115.tyo.equinix.com"),
        (22282, "22822-2.tyo.equinix.com"),
        (24482, "24482-fr5-ix.equinix.com"),
        (54827, "54827-dc5-ix2.equinix.com"),
        (55247, "55247-ch3-ix.equinix.com"),
        (2906, "netflix.zh2.corp.eu.equinix.com"),
        (19324, "ipv4.dosarrest.eqix.equinix.com"),
        (8075, "8069.tyo.equinix.com"),
        (8075, "8074.hkg.equinix.com"),
        (55923, "45437-sy1-ix.equinix.com"),
    ];
    let obs: Vec<Observation> =
        rows.iter().map(|&(a, h)| Observation::new(h, [198, 51, 100, 9], a)).collect();
    SuffixTraining::build("equinix.com", &obs)
}

/// A synthetic `as<asn>-<iface>.<pop>.bigco.net` suffix, the shape of
/// the learner's allocation gate in `tests/alloc_free.rs`.
fn big_suffix(hostnames: usize) -> SuffixTraining {
    let pops = ["fra", "lhr", "ams", "nyc", "sin"];
    let ifaces = ["ae1", "xe-0-0-1", "te0-7", "ge2-0"];
    let obs: Vec<Observation> = (0..hostnames)
        .map(|i| {
            let asn = 60000 + (i as u32 % 700);
            let h = format!(
                "as{asn}-{}.{}{}.bigco.net",
                ifaces[i % ifaces.len()],
                pops[i % pops.len()],
                i % 3
            );
            Observation::new(&h, [192, 0, 2, (i % 250) as u8], asn)
        })
        .collect();
    SuffixTraining::build("bigco.net", &obs)
}

/// Builds sets for `pool` over `hosts`, asserts the candidates equal the
/// reference builder's — regex lists and full `Counts`, in order — and
/// that the stats partition the `pool × hosts` cells.
fn assert_matches_reference(
    label: &str,
    pool: &[Regex],
    hosts: &[HostObs],
) -> (Vec<CandidateNc>, SetsStats) {
    let cfg = SetsConfig::default();
    let (got, stats) = build_sets_stats(pool, hosts, &cfg);
    let want = reference_build_sets(pool, hosts, &cfg);
    assert!(!want.is_empty(), "{label}: the reference built no candidate");
    assert_eq!(got.len(), want.len(), "{label}: candidate count");
    for (k, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(a.regexes, b.regexes, "{label}: regexes of candidate {k}");
        assert_eq!(a.counts, b.counts, "{label}: counts of candidate {k}");
    }
    assert_eq!(stats.dispatched + stats.skipped, (pool.len() * hosts.len()) as u64, "{label}");
    (got, stats)
}

/// The one set builder returns exactly the reference builder's
/// candidates on pools either side of `DISPATCH_MIN_CELLS`:
///
/// * below it, where every pair is evaluated: every pool `learn_suffix`
///   builds for the seed-42 sim (at most 420 cells each);
/// * the Figure 4 pool, on whichever side it falls (624 cells today);
/// * above it, where the screen skips pairs: a 120-host `big_suffix`
///   pool, and the union of the sim's pools against all of their
///   hosts, which keeps dispatch covered over the sim's own regexes.
///
/// `scripts/tier1.sh` runs this test by name.
#[test]
fn build_sets_matches_reference_builder_across_the_screen() {
    let cfg = LearnConfig::default();
    let groups = sim_groups(42);
    let (mut union, mut union_hosts) = (Vec::new(), Vec::new());
    let mut sim_pools = 0;
    for st in &groups {
        let Some(pool) = learner_pool(st, &cfg) else { continue };
        let label = format!("sim 42 {}", st.suffix);
        let cells = (pool.len() * st.hosts.len()) as u64;
        assert!(cells < DISPATCH_MIN_CELLS as u64, "{label}: {cells} cells");
        let (cands, stats) = assert_matches_reference(&label, &pool, &st.hosts);
        assert_eq!((stats.dispatched, stats.skipped), (cells, 0), "{label}");
        // The replica pool is the learner's: selection over these
        // candidates picks what `learn_suffix` learned.
        let learned = learn_suffix(st, &cfg);
        let picked = select_best(&cands);
        assert_eq!(picked.map(|c| &c.regexes), learned.as_ref().map(|l| &l.convention.regexes));
        assert_eq!(picked.map(|c| &c.counts), learned.as_ref().map(|l| &l.counts));
        extend_dedup(&mut union, pool);
        union_hosts.extend(st.hosts.iter().cloned());
        sim_pools += 1;
    }
    assert!(sim_pools >= 5, "the sim must build real pools, got {sim_pools}");

    let fig4 = figure4();
    let pool = learner_pool(&fig4, &cfg).expect("Figure 4 builds a pool");
    assert_matches_reference("Figure 4", &pool, &fig4.hosts);

    let big = big_suffix(120);
    let pool = learner_pool(&big, &cfg).expect("big_suffix builds a pool");
    assert!(pool.len() * big.hosts.len() >= DISPATCH_MIN_CELLS);
    let (_, stats) = assert_matches_reference("big_suffix(120)", &pool, &big.hosts);
    assert!(stats.skipped > 0, "big_suffix(120): dispatch skipped nothing");

    assert!(union.len() * union_hosts.len() >= DISPATCH_MIN_CELLS);
    let (_, stats) = assert_matches_reference("sim 42 union", &union, &union_hosts);
    assert!(stats.skipped > 0, "sim 42 union: dispatch skipped nothing");
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
