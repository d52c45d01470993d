//! Phase 4 (§3.5): build regex sets.
//!
//! Operators often use several hostname formats at once (Figure 4's
//! Equinix data mixes `p714.sgw…` with `24482-fr5-ix…`). A single regex
//! cannot cover both, so Hoiho combines regexes into a *set* forming one
//! naming convention: regexes are ranked by ATP and greedily extended
//! with lower-ranked regexes whenever the combination's ATP strictly
//! improves. Unlike the 2019 router-name work, a combination is kept even
//! if it lowers PPV — discrepancies between training and embedded ASNs
//! are the signal §5 consumes, so coverage wins (§3.5).
//!
//! ## Sparse hits and bitsets
//!
//! Set semantics are first-match-wins per hostname, so a trial set's
//! `Counts` is fully determined by each member regex's *individual*
//! per-host outcome. The builder therefore needs each pooled regex's
//! *hits* only: the `(host, outcome)` pairs where it matched with a
//! capture, which is when it would claim the host in a set. A host no
//! regex claims is FN or TN by `has_apparent` alone, so a regex's
//! `Counts` fold from its hits and the suffix's count of apparent
//! hosts.
//!
//! In the learner the classes phase hands the hits over: it read them
//! off the traces it ran anyway (see `phases::classes`), so this phase
//! runs no matcher at all. [`build_sets_stats`] — the public entry, and
//! the learner's when the classes phase is ablated — collects them
//! itself, evaluating every pooled regex at most once per host through
//! its compiled program ([`crate::regex::CompiledRegex`]).
//!
//! Ranking sorts by the numeric key (ATP, TP, FP, memorised text,
//! component strength) and renders a regex's text only to break a tie
//! on all of it, within the kept `max_pool`; the final candidate order
//! reuses those texts for its own tie-break. Greedy extension runs on
//! per-regex TP and FP bitsets over the hosts: a trial's ATP is the
//! current set's tally plus popcounts of the candidate's bits on the
//! hosts the set leaves open. No matcher runs during greedy extension.
//!
//! Either way, a pooled regex is evaluated only on the hosts the
//! candidate screen (`regex::multi::screen`) hands it: every host for a
//! pool below [`DISPATCH_MIN_CELLS`](crate::regex::DISPATCH_MIN_CELLS)
//! cells, and otherwise the hosts a pool-wide Aho–Corasick automaton
//! over every program's required literals dispatches it to. A skipped
//! pair is provably no hit (a missing required literal rules the match
//! out), so the hits are identical to evaluating every pair; the skip
//! volume is exported as `hoiho_learn_prefilter_skips_total`. (The
//! learner runs a specialised regex only on its parent's matched hosts,
//! a narrower set still.)
//!
//! This is the only set builder. `tests/compiled_equiv.rs` keeps the
//! paper's direct algorithm — re-evaluate every trial set in full, rank
//! by rendered text — as the reference it must match exactly, on pools
//! either side of the screen's threshold.

use crate::eval::{regex_hit_cached, Counts, Outcome};
use crate::regex::{screen, CompiledRegex, Regex};
use crate::training::HostObs;
use hoiho_obs::Counter;
use std::cmp::Reverse;
use std::sync::OnceLock;

/// A candidate naming convention: an ordered regex list with its
/// evaluation over the suffix's hostnames.
#[derive(Debug, Clone)]
pub struct CandidateNc {
    /// Regexes in rank order (first match wins).
    pub regexes: Vec<Regex>,
    /// Evaluation of the ordered set over the training hostnames.
    pub counts: Counts,
}

/// Tunables for set construction.
#[derive(Debug, Clone, Copy)]
pub struct SetsConfig {
    /// How many top-ranked regexes seed greedy set construction.
    pub max_starts: usize,
    /// Maximum number of regexes in one convention.
    pub max_set_size: usize,
    /// Cap on ranked regexes considered for extension.
    pub max_pool: usize,
}

impl Default for SetsConfig {
    fn default() -> Self {
        SetsConfig { max_starts: 12, max_set_size: 6, max_pool: 200 }
    }
}

/// What one [`build_sets`] call actually evaluated: the observability
/// payload for the learner's `sets` trace span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetsStats {
    /// (regex, host) evaluations that ran.
    pub dispatched: u64,
    /// Evaluations skipped by literal dispatch (a required literal was
    /// absent, so the pair is no hit without running the program).
    pub skipped: u64,
}

/// Process-global `hoiho_learn_evaluations_total{phase}` counters:
/// `rank` counts one evaluation per pooled regex (one hit list each),
/// `greedy` one per trial-set scoring. Visible over the
/// serving `METRICS` verb and summarised by `hoiho learn --trace`.
fn eval_counters() -> &'static (Counter, Counter) {
    static COUNTERS: OnceLock<(Counter, Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = hoiho_obs::global().registry();
        (
            reg.counter("hoiho_learn_evaluations_total", &[("phase", "rank")]),
            reg.counter("hoiho_learn_evaluations_total", &[("phase", "greedy")]),
        )
    })
}

/// Process-global `hoiho_learn_prefilter_skips_total`: (regex, host)
/// evaluations the pool-wide literal dispatch proved unnecessary. Read
/// next to `hoiho_learn_evaluations_total{phase="rank"}` to see the
/// fraction of the pairs the automaton skipped.
pub(crate) fn prefilter_skips() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        hoiho_obs::global().registry().counter("hoiho_learn_prefilter_skips_total", &[])
    })
}

/// Ranks `pool` by ATP and returns candidate conventions: every ranked
/// single regex plus the greedy combinations seeded from the top ranks.
///
/// Regexes that never achieve a true positive are dropped before
/// ranking — they cannot contribute to any convention.
pub fn build_sets(pool: &[Regex], hosts: &[HostObs], cfg: &SetsConfig) -> Vec<CandidateNc> {
    build_sets_stats(pool, hosts, cfg).0
}

/// Every pooled regex's hits in one buffer: regex `ri` claims
/// `cells[starts[ri]..starts[ri + 1]]`, in host order. Every outcome
/// is a TP or an FP (a hit is a match with a capture).
///
/// The learner's classes phase fills one while it traces the pool
/// ([`Hits::push`], then [`Hits::close`] per regex) and hands it here;
/// [`Hits::collect`] evaluates a pool afresh where no classes phase ran.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Hits {
    starts: Vec<usize>,
    cells: Vec<(u32, Outcome)>,
}

impl Hits {
    /// No regex yet.
    pub(crate) fn new() -> Hits {
        Hits { starts: vec![0], cells: Vec::new() }
    }

    /// Adds a hit to the regex being filled: host `hi`, in host order.
    pub(crate) fn push(&mut self, hi: u32, outcome: Outcome) {
        self.cells.push((hi, outcome));
    }

    /// Ends the regex being filled; the next push starts the next one.
    pub(crate) fn close(&mut self) {
        self.starts.push(self.cells.len());
    }

    /// Number of regexes closed.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn of(&self, ri: usize) -> &[(u32, Outcome)] {
        &self.cells[self.starts[ri]..self.starts[ri + 1]]
    }

    /// Evaluates each program on the hosts the [`screen`] hands it —
    /// at most once per host; a host left out is provably no hit.
    pub(crate) fn collect(programs: &[&CompiledRegex], hosts: &[HostObs]) -> (Hits, SetsStats) {
        let screen = screen(programs, hosts.iter().map(|h| h.hostname.as_bytes()));
        let stats = SetsStats { dispatched: screen.dispatched(), skipped: screen.skipped() };
        prefilter_skips().add(stats.skipped);
        // Sibling regexes overwhelmingly extract the same span from a
        // host; one cache entry per host skips re-classifying it.
        let mut span_cache = vec![None; hosts.len()];
        let mut hits = Hits::new();
        for (ri, p) in programs.iter().enumerate() {
            for &hi in screen.hosts(ri) {
                let (h, cache) = (&hosts[hi as usize], &mut span_cache[hi as usize]);
                if let Some(o) = regex_hit_cached(p, h, cache) {
                    hits.push(hi, o);
                }
            }
            hits.close();
        }
        (hits, stats)
    }
}

/// The numeric `Counts` (no unique-value sets) of a set that claims
/// exactly `hits`: every other host is FN when it has an apparent ASN
/// (`apparent` counts those over all hosts) and TN when not.
fn tally(hits: &[(u32, Outcome)], hosts: &[HostObs], apparent: u32) -> Counts {
    let mut c = Counts::default();
    let mut claimed_apparent = 0;
    for &(hi, o) in hits {
        match o {
            Outcome::TruePositive(_) => c.tp += 1,
            _ => c.fp += 1,
        }
        claimed_apparent += u32::from(hosts[hi as usize].has_apparent());
    }
    c.fnn = apparent - claimed_apparent;
    c.tn = hosts.len() as u32 - c.tp - c.fp - c.fnn;
    c
}

/// The full `Counts` of a set that claims exactly `hits`: [`tally`]
/// plus the unique-value sets, bulk-built (collect, sort, dedup).
fn fold(hits: &[(u32, Outcome)], hosts: &[HostObs], apparent: u32) -> Counts {
    let mut c = tally(hits, hosts, apparent);
    let mut tp_asns: Vec<u32> = Vec::with_capacity(c.tp as usize);
    let mut extracted: Vec<u32> = Vec::with_capacity(hits.len());
    for &(hi, o) in hits {
        match o {
            Outcome::TruePositive(v) => {
                tp_asns.push(hosts[hi as usize].training_asn);
                extracted.push(v);
            }
            Outcome::FalsePositive(v) => extracted.push(v),
            Outcome::FalseNegative | Outcome::TrueNegative => {}
        }
    }
    tp_asns.sort_unstable();
    tp_asns.dedup();
    extracted.sort_unstable();
    extracted.dedup();
    c.unique_tp_asns = tp_asns;
    c.unique_extracted = extracted;
    c
}

/// Sorts `items` by `key`, then hands each run of equal keys that
/// reaches into the first `limit` items to `tie`, which orders it by
/// text. Runs wholly past `limit` are about to be dropped, so their
/// text is never rendered.
fn sort_with_ties<T, K: Ord>(
    items: &mut [T],
    limit: usize,
    key: impl Fn(&T) -> K,
    mut tie: impl FnMut(&mut [T]),
) {
    items.sort_unstable_by_key(&key);
    let mut start = 0;
    while start < items.len().min(limit) {
        let k = key(&items[start]);
        let len = items[start..].iter().take_while(|x| key(x) == k).count();
        if len > 1 {
            tie(&mut items[start..start + len]);
        }
        start += len;
    }
}

/// A pooled regex with at least one TP, and the numeric part of its
/// rank key.
struct Ranked {
    /// Index into the pool and the hits.
    ri: usize,
    /// Numeric counts; the unique-value sets stay empty.
    counts: Counts,
    memorised: usize,
    strength: usize,
    /// The textual form, rendered only when a numeric tie needs it.
    text: Option<String>,
}

impl Ranked {
    /// ATP, then the anti-over-fitting tie-breaks: more TPs, fewer FPs,
    /// less memorised text, stronger components.
    fn key(&self) -> (Reverse<i64>, Reverse<u32>, u32, usize, Reverse<usize>) {
        let c = &self.counts;
        (Reverse(c.atp()), Reverse(c.tp), c.fp, self.memorised, Reverse(self.strength))
    }
}

/// A candidate convention as indices into the ranked list.
struct Cand {
    members: Vec<usize>,
    counts: Counts,
    memorised: usize,
    strength: usize,
    /// The members' texts, each followed by a newline; rendered only
    /// when a numeric tie needs it.
    text: Option<String>,
}

impl Cand {
    /// [`Ranked::key`] for sets: the member count sits between FPs and
    /// memorised text, so the smaller set wins an otherwise equal tie.
    fn key(&self) -> (Reverse<i64>, Reverse<u32>, u32, usize, usize, Reverse<usize>) {
        let c = &self.counts;
        let n = self.members.len();
        (Reverse(c.atp()), Reverse(c.tp), c.fp, n, self.memorised, Reverse(self.strength))
    }
}

/// [`build_sets`] that also reports what the hit collection dispatched
/// and skipped.
///
/// At most one compiled evaluation per (regex, host) into sparse hits
/// ([`Hits::collect`]), then [`build_sets_from_hits`]. The learner
/// calls this only when its classes phase is ablated; otherwise that
/// phase hands over the hits it already traced.
pub fn build_sets_stats(
    pool: &[Regex],
    hosts: &[HostObs],
    cfg: &SetsConfig,
) -> (Vec<CandidateNc>, SetsStats) {
    let programs: Vec<&CompiledRegex> = pool.iter().map(|r| r.program()).collect();
    let (hits, stats) = Hits::collect(&programs, hosts);
    (build_sets_from_hits(pool, &hits, hosts, cfg), stats)
}

/// The one set builder: numeric ranking of each pooled regex's `hits`,
/// then greedy extension on bitsets. Runs no matcher.
pub(crate) fn build_sets_from_hits(
    pool: &[Regex],
    hits: &Hits,
    hosts: &[HostObs],
    cfg: &SetsConfig,
) -> Vec<CandidateNc> {
    debug_assert_eq!(hits.len(), pool.len(), "one hit list per pooled regex");
    let (rank_evals, greedy_evals) = eval_counters();
    rank_evals.add(pool.len() as u64);
    let apparent = hosts.iter().filter(|h| h.has_apparent()).count() as u32;

    let mut ranked: Vec<Ranked> = pool
        .iter()
        .enumerate()
        .filter_map(|(ri, r)| {
            let counts = tally(hits.of(ri), hosts, apparent);
            (counts.tp > 0).then(|| Ranked {
                ri,
                counts,
                memorised: r.memorised_chars(),
                strength: r.component_strength(),
                text: None,
            })
        })
        .collect();
    sort_with_ties(&mut ranked, cfg.max_pool, Ranked::key, |run| {
        for r in run.iter_mut() {
            r.text.get_or_insert_with(|| pool[r.ri].to_string());
        }
        run.sort_by(|a, b| a.text.cmp(&b.text));
    });
    ranked.truncate(cfg.max_pool);
    ranked.dedup_by(|a, b| pool[a.ri] == pool[b.ri]);

    let mut cands: Vec<Cand> = ranked
        .iter()
        .enumerate()
        .map(|(k, r)| Cand {
            members: vec![k],
            counts: fold(hits.of(r.ri), hosts, apparent),
            memorised: r.memorised,
            strength: r.strength,
            text: None,
        })
        .collect();

    // Greedy combination from each of the top `max_starts` seeds. Each
    // ranked regex's TP and FP hosts as bitsets, `words` u64s each.
    let words = hosts.len().div_ceil(64);
    let mut tp_bits = vec![0u64; ranked.len() * words];
    let mut fp_bits = tp_bits.clone();
    for (k, r) in ranked.iter().enumerate() {
        for &(hi, o) in hits.of(r.ri) {
            let bits = match o {
                Outcome::TruePositive(_) => &mut tp_bits,
                _ => &mut fp_bits,
            };
            bits[k * words + hi as usize / 64] |= 1 << (hi % 64);
        }
    }
    let mut apparent_bits = vec![0u64; words];
    for (hi, h) in hosts.iter().enumerate() {
        if h.has_apparent() {
            apparent_bits[hi / 64] |= 1 << (hi % 64);
        }
    }
    let bits_of = |k: usize| (&tp_bits[k * words..][..words], &fp_bits[k * words..][..words]);
    // First-match-wins state: `open` holds the hosts no member claims.
    let mut open = vec![0u64; words];
    let mut claims: Vec<(u32, Outcome)> = Vec::new();
    for i in 0..ranked.len().min(cfg.max_starts) {
        let (seed_tp, seed_fp) = bits_of(i);
        for (w, o) in open.iter_mut().enumerate() {
            *o = !(seed_tp[w] | seed_fp[w]);
        }
        let mut members = vec![i];
        for j in i + 1..ranked.len() {
            if members.len() >= cfg.max_set_size {
                break;
            }
            greedy_evals.inc();
            let (tpb, fpb) = bits_of(j);
            // What the candidate claims among the open hosts; each
            // apparent host it claims is one FN fewer. The trial's ATP
            // beats the set's exactly when those gains outweigh the FPs.
            let (mut dtp, mut dfp, mut dfn) = (0, 0, 0);
            for w in 0..words {
                let (t, f) = (tpb[w] & open[w], fpb[w] & open[w]);
                dtp += t.count_ones();
                dfp += f.count_ones();
                dfn += ((t | f) & apparent_bits[w]).count_ones();
            }
            if dtp + dfn > dfp {
                members.push(j);
                for w in 0..words {
                    open[w] &= !(tpb[w] | fpb[w]);
                }
            }
        }
        if members.len() > 1 {
            // Each host's outcome is its first claimer's.
            claims.clear();
            let mut claimed = vec![0u64; words];
            for &m in &members {
                for &(hi, o) in hits.of(ranked[m].ri) {
                    let (w, bit) = (hi as usize / 64, 1u64 << (hi % 64));
                    if claimed[w] & bit == 0 {
                        claimed[w] |= bit;
                        claims.push((hi, o));
                    }
                }
            }
            cands.push(Cand {
                counts: fold(&claims, hosts, apparent),
                memorised: members.iter().map(|&m| ranked[m].memorised).sum(),
                strength: members.iter().map(|&m| ranked[m].strength).sum(),
                members,
                text: None,
            });
        }
    }

    // The candidate order, text last: ties on every number compare the
    // members' texts, newline-joined, reusing the ranking's renders.
    sort_with_ties(&mut cands, usize::MAX, Cand::key, |run| {
        for c in run.iter_mut() {
            if c.text.is_none() {
                let mut s = String::new();
                for &m in &c.members {
                    let r = &mut ranked[m];
                    s.push_str(r.text.get_or_insert_with(|| pool[r.ri].to_string()));
                    s.push('\n');
                }
                c.text = Some(s);
            }
        }
        run.sort_by(|a, b| a.text.cmp(&b.text));
    });
    cands.dedup_by(|a, b| a.members == b.members);
    cands
        .into_iter()
        .map(|c| CandidateNc {
            regexes: c.members.iter().map(|&m| pool[ranked[m].ri].clone()).collect(),
            counts: c.counts,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::DISPATCH_MIN_CELLS;
    use crate::training::Observation;

    fn hosts(rows: &[(&str, u32)], suffix: &str) -> Vec<HostObs> {
        rows.iter()
            .map(|&(h, a)| HostObs::build(&Observation::new(h, [192, 0, 2, 7], a), suffix))
            .collect()
    }

    fn rx(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    /// The Figure 4 training data (hostnames a–p with their ASNs).
    fn figure4_hosts() -> Vec<HostObs> {
        hosts(
            &[
                ("109.sgw.equinix.com", 109),
                ("714.os.equinix.com", 714),
                ("714.me1.equinix.com", 714),
                ("p714.sgw.equinix.com", 714),
                ("s714.sgw.equinix.com", 714),
                ("p24115.mel.equinix.com", 24115),
                ("s24115.tyo.equinix.com", 24115),
                ("22822-2.tyo.equinix.com", 22282),
                ("24482-fr5-ix.equinix.com", 24482),
                ("54827-dc5-ix2.equinix.com", 54827),
                ("55247-ch3-ix.equinix.com", 55247),
                ("netflix.zh2.corp.eu.equinix.com", 2906),
                ("ipv4.dosarrest.eqix.equinix.com", 19324),
                ("8069.tyo.equinix.com", 8075),
                ("8074.hkg.equinix.com", 8075),
                ("45437-sy1-ix.equinix.com", 55923),
            ],
            "equinix.com",
        )
    }

    #[test]
    fn figure4_combination_reaches_atp_8() {
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"), // #6, ATP 1
            rx(r"^(\d+)-.+\.equinix\.com$"),                // #4, ATP -4
        ];
        let hs = figure4_hosts();
        let cands = build_sets(&pool, &hs, &SetsConfig::default());
        let best = &cands[0];
        assert_eq!(best.regexes.len(), 2, "expected the combined set first");
        assert_eq!(best.counts.atp(), 8);
        assert_eq!(best.counts.tp, 11);
        assert_eq!(best.counts.fp, 3);
        assert_eq!(best.counts.fnn, 0);
    }

    #[test]
    fn single_regexes_also_candidates() {
        let pool = vec![rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$")];
        let hs = figure4_hosts();
        let cands = build_sets(&pool, &hs, &SetsConfig::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].counts.atp(), 1);
        assert_eq!((cands[0].counts.tp, cands[0].counts.fp, cands[0].counts.fnn), (7, 2, 4));
    }

    #[test]
    fn zero_tp_regexes_dropped() {
        let pool = vec![rx(r"^zz(\d+)\.equinix\.com$")];
        let hs = figure4_hosts();
        assert!(build_sets(&pool, &hs, &SetsConfig::default()).is_empty());
    }

    #[test]
    fn combination_requires_strict_improvement() {
        // A redundant regex (subset of the first) must not be added.
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^p(\d+)\.[a-z\d]+\.equinix\.com$"),
        ];
        let hs = figure4_hosts();
        let cands = build_sets(&pool, &hs, &SetsConfig::default());
        assert!(cands.iter().all(|c| c.regexes.len() == 1));
    }

    #[test]
    fn set_size_capped() {
        let pool = vec![
            rx(r"^(\d+)\.sgw\.equinix\.com$"),
            rx(r"^(\d+)\.os\.equinix\.com$"),
            rx(r"^(\d+)\.me1\.equinix\.com$"),
            rx(r"^p(\d+)\.sgw\.equinix\.com$"),
            rx(r"^s(\d+)\.sgw\.equinix\.com$"),
            rx(r"^p(\d+)\.mel\.equinix\.com$"),
            rx(r"^s(\d+)\.tyo\.equinix\.com$"),
        ];
        let hs = figure4_hosts();
        let cfg = SetsConfig { max_set_size: 3, ..SetsConfig::default() };
        let cands = build_sets(&pool, &hs, &cfg);
        assert!(cands.iter().all(|c| c.regexes.len() <= 3));
        assert!(cands.iter().any(|c| c.regexes.len() == 3));
    }

    /// The dispatch stats partition the matrix on both sides of the
    /// screen's threshold. Below it every cell is dispatched; above it
    /// some skip, and the skip counter moves (>= because the registry
    /// is process-global).
    #[test]
    fn dispatch_stats_partition_the_matrix() {
        let pool = vec![
            rx(r"^(\d+)\.sgw\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
        ];
        let small = figure4_hosts();
        let cells = (pool.len() * small.len()) as u64;
        assert!(cells < DISPATCH_MIN_CELLS as u64, "small fixture crossed the threshold");
        let (_, stats) = build_sets_stats(&pool, &small, &SetsConfig::default());
        assert_eq!((stats.dispatched, stats.skipped), (cells, 0));

        // Figure 4's hostnames 130 times over cross the threshold.
        let big: Vec<HostObs> = (0..130).flat_map(|_| small.iter().cloned()).collect();
        let cells = (pool.len() * big.len()) as u64;
        assert!(cells >= DISPATCH_MIN_CELLS as u64, "big fixture fell below the threshold");
        let skips0 = prefilter_skips().get();
        let (_, stats) = build_sets_stats(&pool, &big, &SetsConfig::default());
        assert_eq!(stats.dispatched + stats.skipped, cells);
        assert!(stats.skipped > 0, "`.sgw.` hosts are a minority: some cells must skip");
        assert!(prefilter_skips().get() >= skips0 + stats.skipped);
    }

    /// The `hoiho_learn_evaluations_total` counters move when sets are
    /// built (>= because other tests share the process-global registry).
    #[test]
    fn evaluation_counters_are_incremented() {
        let (rank, greedy) = eval_counters();
        let (rank0, greedy0) = (rank.get(), greedy.get());
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
        ];
        build_sets(&pool, &figure4_hosts(), &SetsConfig::default());
        assert!(rank.get() >= rank0 + 2, "rank evals should count each pooled regex");
        assert!(greedy.get() > greedy0, "greedy evals should count trial sets");
    }
}
