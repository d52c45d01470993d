//! Multi-pattern literal dispatch: one Aho–Corasick scan per hostname
//! decides which pool regexes are worth running at all.
//!
//! The learner's set building (phase 4) and class embedding (phase 3)
//! evaluate a shared pool of P candidate regexes against a shared set of
//! H hostnames. Even with compiled programs that is O(P·H) independent
//! scans, and the per-program literal prefilter cannot amortise anything
//! across the pool. A [`MultiMatcher`] inverts the loop: it is built
//! once over the **required literals** of every program in the pool — a
//! from-scratch, std-only Aho–Corasick automaton with BFS-built failure
//! links flattened into a dense goto-complete transition table — and
//! then a single left-to-right scan of one hostname reports which
//! programs still have a chance of matching it.
//!
//! ## The candidate screen
//!
//! Both learner phases ask one question — per program, which hosts can
//! match it? — and get the answer from [`screen`]. Below
//! [`DISPATCH_MIN_CELLS`] `programs × hosts` cells the automaton costs
//! more to build than the evaluations it would skip, so every host is a
//! candidate; at or above it, the candidates are the hosts
//! [`MultiMatcher::dispatch`] hands the program. Either way a host left
//! out cannot match, so a caller that evaluates only the candidates gets
//! exactly the answers of evaluating every pair.
//!
//! The screen is the automaton's only production user. The serving
//! engine answers one name at a time against one learned convention of
//! at most six regexes, where a scan costs more than running those
//! programs in rank order, each behind its own literal and start-set
//! rejects.
//!
//! ## Dispatch rule
//!
//! Every [`Lit`](super::Elem::Lit) element of the dialect is consumed in
//! sequence on any match, so a regex can only match a hostname that
//! contains **all** of its required literals as substrings — **with
//! multiplicity**: a program whose ops require the same literal k times
//! consumes k pairwise-disjoint occurrences, so the host must contain at
//! least k non-overlapping occurrences of it. The scan counts disjoint
//! occurrences greedily by end position (the classic interval-scheduling
//! argument makes that count maximal, so requiring `count ≥ k` rejects
//! nothing a match could need). This matters for dash-heavy pools:
//! `as(\d+)-[^-]+-[^-]+-[^-]+` requires three `-`s and is not dispatched
//! for a host with one.
//! (This deliberately widens the per-program `prefilter`, which only
//! keeps the longest literal and skips `^`-anchored programs entirely:
//! here even anchored programs dispatch on their literals, because the
//! point is skipping *pool members*, not start offsets.) Alternations
//! contribute no constraint — an `(?:a|b)` branch is not required text —
//! which is a sound widening. Programs with no required literal at all
//! form the fallback bucket: their requirement bitset is empty, so they
//! are dispatched for every hostname.
//!
//! Dispatch is therefore a **superset-exact filter**: a program that
//! matches a hostname is always dispatched for it (no false negatives),
//! while a dispatched program may still fail to match. Callers that run
//! only dispatched programs and treat the rest as non-matches get
//! bit-identical results to running everything — the property suite in
//! `tests/properties.rs` and the `multimatch` fuzz target pin this down.
//!
//! ## Layout
//!
//! Hostname text is dense over `[a-z0-9.-]`, so bytes are first mapped
//! through a 256-entry class table: bytes appearing in no literal share
//! class 0, whose transition from every state is the root (they can
//! extend no literal). The transition table is `states × alphabet`
//! `u32`s, goto-complete (failure links are resolved away during the
//! BFS), so the hot loop is one class lookup and one table load per
//! byte. Each state carries the merged output list of every literal
//! ending there (its own plus all dict-suffix outputs, merged during the
//! same BFS); each reported occurrence then sets one bit in a flat
//! requirement-slot bitset, and a program is dispatched exactly when its
//! requirement bits are all covered — so the scan does no per-program
//! work at all.

use super::compiled::CompiledRegex;
use std::collections::HashMap;

/// Smallest `programs × hosts` product the learner's candidate screen
/// builds a [`MultiMatcher`] for: below it the build costs more than
/// the evaluations it skips, so every host stays a candidate.
pub const DISPATCH_MIN_CELLS: usize = 4096;

/// What [`screen`] returns: per program, the hosts that can match it,
/// as indices in host order.
#[derive(Debug)]
pub(crate) struct Screen {
    /// Program `p`'s candidates are `ids[starts[p]..starts[p + 1]]`.
    /// `None` below [`DISPATCH_MIN_CELLS`], where `ids` is every host
    /// and each program's candidates are all of it.
    starts: Option<Vec<u32>>,
    ids: Vec<u32>,
    /// `programs × hosts`.
    cells: u64,
}

impl Screen {
    /// The hosts program `program` can match, ascending.
    pub fn hosts(&self, program: usize) -> &[u32] {
        match &self.starts {
            Some(starts) => &self.ids[starts[program] as usize..starts[program + 1] as usize],
            None => &self.ids,
        }
    }

    /// (program, host) pairs handed out: the evaluations a caller of
    /// [`Screen::hosts`] runs.
    pub fn dispatched(&self) -> u64 {
        match self.starts {
            Some(_) => self.ids.len() as u64,
            None => self.cells,
        }
    }

    /// (program, host) pairs left out: each is provably no match.
    pub fn skipped(&self) -> u64 {
        self.cells - self.dispatched()
    }
}

/// Screens every (program, host) pair of a pool: for each program, the
/// hosts that can match it, in host order. Below [`DISPATCH_MIN_CELLS`]
/// cells that is every host; at or above it, the hosts a
/// [`MultiMatcher`] over `programs` dispatches the program to.
pub(crate) fn screen<'h>(
    programs: &[&CompiledRegex],
    hosts: impl ExactSizeIterator<Item = &'h [u8]>,
) -> Screen {
    let cells = programs.len() * hosts.len();
    if cells < DISPATCH_MIN_CELLS {
        let ids = (0..hosts.len() as u32).collect();
        return Screen { starts: None, ids, cells: cells as u64 };
    }
    let matcher = MultiMatcher::build(programs.iter().copied());
    let mut scratch = matcher.scratch();
    // Dispatch arrives host by host as (program, host) pairs; a counting
    // sort by program keeps each program's hosts in host order.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (hi, host) in hosts.enumerate() {
        for &p in matcher.dispatch(host, &mut scratch) {
            pairs.push((p, hi as u32));
        }
    }
    // `starts[p]` counts up to the end of program `p`'s run, then the
    // reverse placement walks it back down to the run's start.
    let mut starts = vec![0u32; programs.len() + 1];
    for &(p, _) in &pairs {
        starts[p as usize] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut ids = vec![0u32; pairs.len()];
    for &(p, hi) in pairs.iter().rev() {
        let at = &mut starts[p as usize];
        *at -= 1;
        ids[*at as usize] = hi;
    }
    Screen { starts: Some(starts), ids, cells: cells as u64 }
}

/// An Aho–Corasick automaton over the required literals of a regex
/// pool, answering "which pool members could match this hostname?" in
/// one scan. Build once per pool (see [`MultiMatcher::build`]), then
/// dispatch with a reusable [`DispatchScratch`].
///
/// Requirements are tracked as a flat bitset of **slots**: literal
/// `lid` owns slots `slot_base[lid] .. slot_base[lid] + max_mult[lid]`,
/// one per multiplicity level some pool member requires. The scan sets
/// slot `base + n - 1` when the n-th disjoint occurrence of a literal
/// arrives; a program is dispatched exactly when the host's slot bitset
/// covers the program's requirement bitset. A program with no required
/// literal has an empty requirement bitset and is therefore dispatched
/// for every host — the fallback bucket needs no special case.
#[derive(Debug, Clone)]
pub struct MultiMatcher {
    /// Byte value → dense alphabet class; 0 = "appears in no literal".
    byte_class: [u16; 256],
    /// Number of classes, including class 0.
    alphabet: u32,
    /// Goto-complete transition table, `states × alphabet`.
    trans: Vec<u32>,
    /// Per-state ranges into `out_lits` (length `states + 1`).
    out_start: Vec<u32>,
    /// Merged output lists: literal ids ending at each state.
    out_lits: Vec<u32>,
    /// Per-literal byte length (for the disjointness check).
    lit_len: Vec<u32>,
    /// Per-literal highest multiplicity any regex requires; disjoint
    /// occurrences beyond it carry no information.
    max_mult: Vec<u32>,
    /// First requirement slot of each literal (length `lits`).
    slot_base: Vec<u32>,
    /// Words per requirement bitset: `ceil(slots / 64)`.
    mask_words: usize,
    /// Per-regex requirement bitsets, `mask_words` words each.
    regex_masks: Vec<u64>,
    /// Number of programs the automaton dispatches over.
    regexes: usize,
}

/// Reusable per-thread dispatch state: epoch-stamped "seen this host"
/// marks, so consecutive dispatches never pay for clearing the
/// per-literal arrays; the slot bitset is a handful of words and is
/// zeroed directly.
#[derive(Debug, Clone)]
pub struct DispatchScratch {
    epoch: u64,
    /// Per-literal epoch stamp guarding `lit_count` / `lit_end`.
    lit_seen: Vec<u64>,
    /// Disjoint occurrences of each literal in the current host.
    lit_count: Vec<u32>,
    /// End offset of the last accepted occurrence of each literal.
    lit_end: Vec<u32>,
    /// Requirement slots satisfied by the current host (`mask_words`).
    seen: Vec<u64>,
    dispatched: Vec<u32>,
}

impl MultiMatcher {
    /// Builds the automaton over a pool of compiled programs. Program
    /// order defines the regex indices reported by dispatch.
    pub fn build<'a>(programs: impl IntoIterator<Item = &'a CompiledRegex>) -> MultiMatcher {
        // Intern distinct literals across the pool; per regex, its
        // `(literal id, multiplicity)` requirements — a literal the
        // program consumes k times needs k disjoint occurrences.
        let mut lits: Vec<&'a [u8]> = Vec::new();
        let mut ids: HashMap<&'a [u8], u32> = HashMap::new();
        let mut per_regex: Vec<Vec<(u32, u32)>> = Vec::new();
        for p in programs {
            let mut mine: Vec<u32> = p
                .required_literals()
                .map(|l| {
                    *ids.entry(l).or_insert_with(|| {
                        lits.push(l);
                        lits.len() as u32 - 1
                    })
                })
                .collect();
            mine.sort_unstable();
            let mut reqs: Vec<(u32, u32)> = Vec::new();
            for lid in mine.drain(..) {
                match reqs.last_mut() {
                    Some((last, k)) if *last == lid => *k += 1,
                    _ => reqs.push((lid, 1)),
                }
            }
            per_regex.push(reqs);
        }

        // Dense byte classes: only bytes that occur in some literal get
        // a class of their own; everything else shares class 0, which
        // can never advance past the root.
        let mut byte_class = [0u16; 256];
        let mut alphabet = 1u32;
        for lit in &lits {
            for &b in *lit {
                if byte_class[b as usize] == 0 {
                    byte_class[b as usize] = alphabet as u16;
                    alphabet += 1;
                }
            }
        }
        let alpha = alphabet as usize;

        // Trie over class-mapped literals. `NO_EDGE` marks absent goto
        // edges until the BFS completes the table.
        const NO_EDGE: u32 = u32::MAX;
        let mut trans: Vec<u32> = vec![NO_EDGE; alpha];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        for (lit_id, lit) in lits.iter().enumerate() {
            let mut s = 0usize;
            for &b in *lit {
                let cell = s * alpha + byte_class[b as usize] as usize;
                if trans[cell] == NO_EDGE {
                    trans[cell] = out.len() as u32;
                    trans.extend(std::iter::repeat(NO_EDGE).take(alpha));
                    out.push(Vec::new());
                }
                s = trans[cell] as usize;
            }
            out[s].push(lit_id as u32);
        }

        // BFS: compute failure links, resolve them into the table
        // (goto-complete), and merge dict-suffix output lists. A state
        // is popped only after its failure state (strictly shallower)
        // has been completed, so `trans[fail..]` and `out[fail]` are
        // always final when read.
        let nstates = out.len();
        let mut fail = vec![0u32; nstates];
        let mut queue = std::collections::VecDeque::new();
        for c in 0..alpha {
            if trans[c] == NO_EDGE {
                trans[c] = 0;
            } else if trans[c] != 0 {
                queue.push_back(trans[c]);
            }
        }
        while let Some(u) = queue.pop_front() {
            let u = u as usize;
            let f = fail[u] as usize;
            if !out[f].is_empty() {
                let suffix_outs = out[f].clone();
                out[u].extend(suffix_outs);
            }
            for c in 0..alpha {
                let cell = u * alpha + c;
                let via_fail = trans[f * alpha + c];
                if trans[cell] == NO_EDGE {
                    trans[cell] = via_fail;
                } else {
                    fail[trans[cell] as usize] = via_fail;
                    queue.push_back(trans[cell]);
                }
            }
        }

        // Flatten outputs and per-literal regex references.
        let mut out_start = Vec::with_capacity(nstates + 1);
        let mut out_lits = Vec::new();
        out_start.push(0u32);
        for state_out in &out {
            out_lits.extend_from_slice(state_out);
            out_start.push(out_lits.len() as u32);
        }
        let lit_len: Vec<u32> = lits.iter().map(|l| l.len() as u32).collect();
        let mut max_mult = vec![0u32; lits.len()];
        for reqs in &per_regex {
            for &(lid, k) in reqs {
                max_mult[lid as usize] = max_mult[lid as usize].max(k);
            }
        }

        // Requirement slots: literal `lid` owns slots
        // `slot_base[lid] .. slot_base[lid] + max_mult[lid]`, one per
        // multiplicity level some regex requires.
        let mut slot_base = Vec::with_capacity(lits.len());
        let mut slots = 0u32;
        for &m in &max_mult {
            slot_base.push(slots);
            slots += m;
        }
        let mask_words = (slots as usize).div_ceil(64);
        let mut regex_masks = vec![0u64; per_regex.len() * mask_words];
        for (r, reqs) in per_regex.iter().enumerate() {
            let words = &mut regex_masks[r * mask_words..(r + 1) * mask_words];
            for &(lid, k) in reqs {
                // Slots base..base+k: "at least j disjoint occurrences"
                // for each level j <= k.
                for level in 0..k {
                    let slot = (slot_base[lid as usize] + level) as usize;
                    words[slot / 64] |= 1u64 << (slot % 64);
                }
            }
        }

        MultiMatcher {
            byte_class,
            alphabet,
            trans,
            out_start,
            out_lits,
            lit_len,
            max_mult,
            slot_base,
            mask_words,
            regex_masks,
            regexes: per_regex.len(),
        }
    }

    /// Number of programs the automaton dispatches over.
    pub fn len(&self) -> usize {
        self.regexes
    }

    /// True for an empty pool (dispatch always returns nothing).
    pub fn is_empty(&self) -> bool {
        self.regexes == 0
    }

    /// A scratch buffer sized for this automaton.
    pub fn scratch(&self) -> DispatchScratch {
        let nlits = self.lit_len.len();
        DispatchScratch {
            epoch: 0,
            lit_seen: vec![0; nlits],
            lit_count: vec![0; nlits],
            lit_end: vec![0; nlits],
            seen: vec![0; self.mask_words],
            dispatched: Vec::with_capacity(self.regexes),
        }
    }

    /// One scan of `host`: returns the indices of every program whose
    /// required literals all occur in it (with multiplicity), plus the
    /// fallback bucket. Each index appears exactly once, in ascending
    /// pool order.
    ///
    /// The scan itself only sets requirement-slot bits — no per-program
    /// work per occurrence — and the per-program covering check at the
    /// end is a handful of word compares, so dispatch stays cheap even
    /// for pools whose literals occur many times per host.
    pub fn dispatch<'s>(&self, host: &[u8], scratch: &'s mut DispatchScratch) -> &'s [u32] {
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        scratch.dispatched.clear();
        scratch.seen.iter_mut().for_each(|w| *w = 0);
        let alpha = self.alphabet as usize;
        let mut state = 0usize;
        for (i, &b) in host.iter().enumerate() {
            state = self.trans[state * alpha + self.byte_class[b as usize] as usize] as usize;
            let (s, e) = (self.out_start[state] as usize, self.out_start[state + 1] as usize);
            for &lit in &self.out_lits[s..e] {
                let lit = lit as usize;
                if scratch.lit_seen[lit] != epoch {
                    scratch.lit_seen[lit] = epoch;
                    scratch.lit_count[lit] = 0;
                    scratch.lit_end[lit] = 0;
                }
                // Greedy disjoint-occurrence counting: this occurrence
                // ends at `i + 1`; accept it only when it starts at or
                // after the end of the last accepted one. Accepting by
                // end order maximises the count, so `count >= k` holds
                // for every host a k-fold literal could match.
                let end = (i + 1) as u32;
                if end - self.lit_len[lit] < scratch.lit_end[lit] {
                    continue;
                }
                scratch.lit_end[lit] = end;
                let n = scratch.lit_count[lit] + 1;
                scratch.lit_count[lit] = n;
                if n <= self.max_mult[lit] {
                    let slot = (self.slot_base[lit] + n - 1) as usize;
                    scratch.seen[slot / 64] |= 1u64 << (slot % 64);
                }
            }
        }
        // A program is dispatched when its requirement bitset is
        // covered; an empty bitset (fallback) is trivially covered.
        let w = self.mask_words;
        for r in 0..self.regexes {
            let m = &self.regex_masks[r * w..(r + 1) * w];
            if m.iter().zip(scratch.seen.iter()).all(|(&mw, &sw)| sw & mw == mw) {
                scratch.dispatched.push(r as u32);
            }
        }
        &scratch.dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::super::Regex;
    use super::*;

    fn programs(patterns: &[&str]) -> Vec<CompiledRegex> {
        patterns.iter().map(|p| CompiledRegex::compile(&Regex::parse(p).unwrap())).collect()
    }

    /// Screens `patterns` over `hosts`, asserting the screen hands out
    /// every matching (program, host) pair, each program's hosts
    /// ascending, and that its counts add up.
    fn assert_screen_keeps_matches(patterns: &[&str], hosts: &[String]) -> Screen {
        let progs = programs(patterns);
        let refs: Vec<&CompiledRegex> = progs.iter().collect();
        let s = screen(&refs, hosts.iter().map(|h| h.as_bytes()));
        let mut handed_out = 0;
        for (p, prog) in progs.iter().enumerate() {
            let cands = s.hosts(p);
            assert!(cands.windows(2).all(|w| w[0] < w[1]), "{:?}: not in host order", patterns[p]);
            for (hi, h) in hosts.iter().enumerate() {
                if prog.is_match(h) {
                    assert!(
                        cands.binary_search(&(hi as u32)).is_ok(),
                        "{:?} matches {h:?} but the screen left it out",
                        patterns[p]
                    );
                }
            }
            handed_out += cands.len() as u64;
        }
        assert_eq!(s.dispatched(), handed_out);
        assert_eq!(s.dispatched() + s.skipped(), (progs.len() * hosts.len()) as u64);
        s
    }

    const SCREEN_PATTERNS: [&str; 6] = [
        r"^as(\d+)-[a-z]+\d+\.[a-z]+\.bigco\.net$",
        r"^as(\d+)-xe-\d+-\d+-\d+\.[a-z]+\d+\.bigco\.net$",
        r"(\d+)\.sgw\.equinix\.com$",
        r"^(\d+)-.+\.equinix\.com$",
        r"as(\d+)\.nts\.ch$",
        r"(\d+)", // literal-free: the fallback bucket
    ];

    /// `n` hostnames cycling through five shapes: four carry the
    /// literals of some [`SCREEN_PATTERNS`] entry, one carries none.
    fn screen_hosts(n: usize) -> Vec<String> {
        let ifaces = ["ae1", "xe-0-0-1", "te0-7"];
        (0..n)
            .map(|i| match i % 5 {
                0 => format!("as{}-{}.fra{}.bigco.net", 60000 + i, ifaces[i % 3], i % 3),
                1 => format!("{}.sgw.equinix.com", 700 + i),
                2 => format!("{}-fr5-ix.equinix.com", 24000 + i),
                3 => format!("as{}.nts.ch", 15000 + i),
                _ => format!("core{i}.example.org"),
            })
            .collect()
    }

    #[test]
    fn screen_below_threshold_hands_out_every_pair() {
        let hosts = screen_hosts(40);
        let cells = SCREEN_PATTERNS.len() * hosts.len();
        assert!(cells < DISPATCH_MIN_CELLS, "fixture crossed the threshold: {cells} cells");
        let s = assert_screen_keeps_matches(&SCREEN_PATTERNS, &hosts);
        assert_eq!(s.dispatched(), cells as u64);
    }

    #[test]
    fn screen_above_threshold_dispatches_a_strict_subset() {
        let hosts = screen_hosts(700);
        let cells = SCREEN_PATTERNS.len() * hosts.len();
        assert!(cells >= DISPATCH_MIN_CELLS, "fixture fell below the threshold: {cells} cells");
        let s = assert_screen_keeps_matches(&SCREEN_PATTERNS, &hosts);
        assert!(s.dispatched() < cells as u64, "dispatch skipped nothing");
        // The literal-free program rides the fallback bucket: every host.
        assert_eq!(s.hosts(SCREEN_PATTERNS.len() - 1).len(), hosts.len());
    }

    /// Brute-force oracle: dispatch must include every program that
    /// matches, each at most once.
    fn assert_superset_exact(patterns: &[&str], hosts: &[&str]) {
        let progs = programs(patterns);
        let mm = MultiMatcher::build(progs.iter());
        let mut scratch = mm.scratch();
        for host in hosts {
            let dispatched = mm.dispatch(host.as_bytes(), &mut scratch).to_vec();
            let mut flags = vec![false; progs.len()];
            for &r in &dispatched {
                assert!(!flags[r as usize], "duplicate dispatch of {r} on {host:?}");
                flags[r as usize] = true;
            }
            for (i, p) in progs.iter().enumerate() {
                if p.is_match(host) {
                    assert!(
                        flags[i],
                        "false negative: {:?} matches {host:?} but was not dispatched",
                        patterns[i]
                    );
                }
            }
        }
    }

    #[test]
    fn pool_dispatch_is_superset_exact() {
        let patterns = [
            r"^as(\d+)\.pop\d+\.example\.com$", // anchored: literals still dispatch
            r"as(\d+)\.nts\.ch$",
            r"^(\d+)-.+\.equinix\.com$",
            r"(\d+)",     // literal-free: fallback, always dispatched
            r"^(\d+)$",   // anchored and literal-free: fallback too
        ];
        let hosts = [
            "as100.pop1.example.com",
            "as15576.nts.ch",
            "24482-fr5-ix.equinix.com",
            "plainhost.example.org",
            "714",
            "",
            "nts.ch.as1.pop2.example.com", // literals present, order scrambled
        ];
        assert_superset_exact(&patterns, &hosts);
    }

    #[test]
    fn empty_pool_dispatches_nothing() {
        let mm = MultiMatcher::build(std::iter::empty::<&CompiledRegex>());
        assert!(mm.is_empty());
        let mut scratch = mm.scratch();
        assert!(mm.dispatch(b"any.host.example.com", &mut scratch).is_empty());
    }

    #[test]
    fn all_fallback_pool_always_dispatches_everything() {
        let progs = programs(&[r"(\d+)", r"^(\d+)$", r"[a-z]+(\d+)"]);
        let mm = MultiMatcher::build(progs.iter());
        let mut scratch = mm.scratch();
        for host in ["", "abc", "as100.example.com"] {
            let mut d = mm.dispatch(host.as_bytes(), &mut scratch).to_vec();
            d.sort_unstable();
            assert_eq!(d, vec![0, 1, 2], "on {host:?}");
        }
    }

    #[test]
    fn literal_suffix_and_prefix_of_another_literal() {
        // "ix.example.com" is a suffix of "-ix.example.com"; "as" is a
        // prefix of "as1". Dict-suffix output merging must credit both.
        assert_superset_exact(
            &[
                r"(\d+)-ix\.example\.com$",
                r"(\d+)ix\.example\.com$",
                r"^as(\d+)\.x$",
                r"^as1(\d+)\.x$",
            ],
            &[
                "5-ix.example.com",
                "5ix.example.com",
                "as9.x",
                "as19.x",
                "ix.example.com",
                "as.x",
            ],
        );
    }

    #[test]
    fn overlapping_occurrences_counted_once() {
        // "aa" occurs at overlapping offsets in "aaaa"; the per-host
        // epoch stamp must credit the literal exactly once.
        let progs = programs(&[r"aa(\d+)"]);
        let mm = MultiMatcher::build(progs.iter());
        let mut scratch = mm.scratch();
        assert_eq!(mm.dispatch(b"aaaa1", &mut scratch), &[0]);
        assert_eq!(mm.dispatch(b"bbbb1", &mut scratch), &[0u32; 0]);
    }

    #[test]
    fn all_literals_required_not_any() {
        // Two literals; a host containing only one must not dispatch.
        let progs = programs(&[r"^as(\d+)-ix\.example\.net$"]);
        let mm = MultiMatcher::build(progs.iter());
        let mut scratch = mm.scratch();
        assert!(mm.dispatch(b"as1.example.org", &mut scratch).is_empty());
        assert!(mm.dispatch(b"1-ix.example.net", &mut scratch).is_empty());
        assert_eq!(mm.dispatch(b"as1-ix.example.net", &mut scratch), &[0]);
    }

    #[test]
    fn repeated_literals_require_multiplicity() {
        // Three `-` literals: hosts with fewer disjoint dashes must not
        // dispatch; the singly-dashed pool member still must.
        let progs = programs(&[r"^as(\d+)-[^-]+-[^-]+-[^-]+\.example\.net$", r"as(\d+)-"]);
        let mm = MultiMatcher::build(progs.iter());
        let mut scratch = mm.scratch();
        let mut one = mm.dispatch(b"as1-ae1.example.net", &mut scratch).to_vec();
        one.sort_unstable();
        assert_eq!(one, vec![1]);
        let mut three = mm.dispatch(b"as1-xe-0-0.example.net", &mut scratch).to_vec();
        three.sort_unstable();
        assert_eq!(three, vec![0, 1]);
    }

    #[test]
    fn multiplicity_counts_disjoint_occurrences_only() {
        // `aa` twice: "aaa" holds two *overlapping* occurrences but only
        // one disjoint, so it must not dispatch; "aaaa" holds two.
        let progs = programs(&[r"aa(\d+)aa"]);
        let mm = MultiMatcher::build(progs.iter());
        let mut scratch = mm.scratch();
        assert!(mm.dispatch(b"aaa", &mut scratch).is_empty());
        assert_eq!(mm.dispatch(b"aaaa", &mut scratch), &[0]);
        assert_eq!(mm.dispatch(b"aa1aa", &mut scratch), &[0]);
        // Superset-exactness on digit-separated repeats.
        assert_superset_exact(&[r"aa(\d+)aa"], &["aaa", "aaaa", "aa1aa", "aa12aa34aa", ""]);
    }

    #[test]
    fn scratch_reuse_across_hosts_is_clean() {
        // The epoch discipline must not leak literal credits from a
        // previous host into the next.
        let progs = programs(&[r"abc(\d+)def"]);
        let mm = MultiMatcher::build(progs.iter());
        let mut scratch = mm.scratch();
        assert_eq!(mm.dispatch(b"abc1def", &mut scratch), &[0]);
        assert!(mm.dispatch(b"abc1", &mut scratch).is_empty());
        assert!(mm.dispatch(b"def1", &mut scratch).is_empty());
        assert_eq!(mm.dispatch(b"def-abc", &mut scratch), &[0]);
    }
}
