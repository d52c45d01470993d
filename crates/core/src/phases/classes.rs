//! Phase 3 (§3.4): embed character classes.
//!
//! For every regex that matches training hostnames, inspect what each
//! punctuation-exclusion component (`[^\.]+`, `[^-]+`) or wildcard (`.+`)
//! actually matched, and specialise it:
//!
//! * when every matched substring decomposes into the *same sequence* of
//!   character-type runs (letters, digits, hyphens), the component becomes
//!   that sequence — `[^\.]+` matching `pop7`, `lns3` becomes
//!   `[a-z]+\d+` (the paper's "bare" example shows this shape);
//! * otherwise the component becomes the smallest single class covering
//!   every character seen — `[^\.]+` matching `sgw`, `me1`, `tyo`
//!   becomes `[a-z\d]+` (Figure 4, regex #5 → #6);
//! * if the matches contain characters outside the class alphabet (a `.`
//!   under `.+`), the component is left alone.
//!
//! The specialised regex is added to the pool; the original stays.
//!
//! Each regex traces only the hosts the candidate screen
//! (`regex::multi::screen`) hands it. A host left out cannot match the
//! regex, so it would contribute no substring, and the specialised
//! output is identical to tracing every pair.
//!
//! In the learner this phase also does the sets phase's evaluation
//! (`embed_classes_handoff`): a match's trace span at the capture
//! element is its capture, so each traced regex's `(host, outcome)`
//! hits cost no second run, and each new specialised regex runs only on
//! the hosts its parent matched — a specialisation narrows components
//! to bytes they matched, so it matches no host its parent missed.
//! [`embed_classes`] and the learner share one specialise loop.

use crate::eval::{hit_outcome, regex_hit_cached, Outcome};
use crate::phases::sets::{prefilter_skips, Hits};
use crate::regex::{screen, CharClass, CompiledRegex, Elem, Regex};
use crate::training::HostObs;
use std::collections::HashSet;

/// Maximum run-sequence length worth emitting; longer sequences are
/// almost certainly over-fitted to a handful of hostnames.
const MAX_SEQUENCE: usize = 4;

/// Specialises each regex in `pool` against the matched hostnames.
/// Returns only the newly created regexes, in text order.
pub fn embed_classes(pool: &[Regex], hosts: &[HostObs]) -> Vec<Regex> {
    specialise_pool(pool, hosts, None).into_iter().map(|(r, _)| r).collect()
}

/// The learner's classes phase: [`embed_classes`] that appends the new
/// regexes not already pooled to `pool`, and returns every pooled
/// regex's hits (the old pool's, then the new regexes') for
/// [`crate::phases::sets::build_sets_from_hits`], with the number of
/// program runs it took.
///
/// The old pool's hits come from the traces the specialisation runs
/// anyway. Each new regex runs only on the hosts its parent matched: a
/// specialisation narrows components to bytes they already matched, so
/// it can match no host its parent missed.
pub(crate) fn embed_classes_handoff(pool: &mut Vec<Regex>, hosts: &[HostObs]) -> (Hits, u64) {
    let mut lineage = Lineage {
        hits: Hits::new(),
        matched_starts: vec![0],
        matched: Vec::new(),
        span_cache: vec![None; hosts.len()],
        runs: 0,
    };
    let children = specialise_pool(pool, hosts, Some(&mut lineage));
    let pooled: HashSet<&[Elem]> = pool.iter().map(|r| r.elems()).collect();
    let fresh: Vec<(Regex, usize)> =
        children.into_iter().filter(|(c, _)| !pooled.contains(c.elems())).collect();
    let l = &mut lineage;
    for (child, parent) in &fresh {
        let program = child.program();
        let parent_matched = &l.matched[l.matched_starts[*parent]..l.matched_starts[parent + 1]];
        l.runs += parent_matched.len() as u64;
        for &hi in parent_matched {
            let (h, cache) = (&hosts[hi as usize], &mut l.span_cache[hi as usize]);
            if let Some(o) = regex_hit_cached(program, h, cache) {
                l.hits.push(hi, o);
            }
        }
        l.hits.close();
    }
    pool.extend(fresh.into_iter().map(|(c, _)| c));
    (lineage.hits, lineage.runs)
}

/// What the learner keeps from tracing the pool: each regex's hits and
/// the hosts it matched (regex `ri`'s are
/// `matched[matched_starts[ri]..matched_starts[ri + 1]]`, in host
/// order), one span cache entry per host, and the program runs so far.
struct Lineage {
    hits: Hits,
    matched_starts: Vec<usize>,
    matched: Vec<u32>,
    span_cache: Vec<Option<((usize, usize), Outcome)>>,
    runs: u64,
}

/// The one specialise loop: traces each pooled regex over the hosts
/// the candidate screen hands it, and returns each distinct
/// specialisation with the index of the first regex that produced it,
/// in text order. With a [`Lineage`], also records what the traces
/// show: a match's span at the capture element is its capture, so the
/// hit costs no second run.
fn specialise_pool(
    pool: &[Regex],
    hosts: &[HostObs],
    mut lineage: Option<&mut Lineage>,
) -> Vec<(Regex, usize)> {
    let programs: Vec<&CompiledRegex> = pool.iter().map(|r| r.program()).collect();
    let screen = screen(&programs, hosts.iter().map(|h| h.hostname.as_bytes()));
    if let Some(l) = lineage.as_deref_mut() {
        l.runs += screen.dispatched();
        prefilter_skips().add(screen.skipped());
    }
    let mut trace: Vec<(usize, usize)> = Vec::new();
    let mut out: Vec<(Regex, usize)> = Vec::new();
    for (ri, r) in pool.iter().enumerate() {
        let capture = r.capture_index();
        let candidates = screen.hosts(ri).iter().map(|&hi| (hi, &hosts[hi as usize]));
        let child = specialise_hosts(r, candidates, &mut trace, |hi, h, spans| {
            if let Some(l) = lineage.as_deref_mut() {
                l.matched.push(hi);
                if let Some(c) = capture {
                    let o = hit_outcome(h, spans[c], &mut l.span_cache[hi as usize]);
                    l.hits.push(hi, o);
                }
            }
        });
        if let Some(l) = lineage.as_deref_mut() {
            l.hits.close();
            l.matched_starts.push(l.matched.len());
        }
        if let Some(c) = child.filter(|c| c != r) {
            out.push((c, ri));
        }
    }
    out.sort_by_cached_key(|(r, _)| r.to_string());
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

/// Builds the specialised variant of one regex, or `None` when the regex
/// matched nothing or nothing could be specialised.
pub fn specialise(regex: &Regex, hosts: &[HostObs]) -> Option<Regex> {
    let hosts = hosts.iter().enumerate().map(|(hi, h)| (hi as u32, h));
    specialise_hosts(regex, hosts, &mut Vec::new(), |_, _, _| {})
}

/// Traces `regex` over `hosts` (host index, host) into the reused
/// `trace` buffer, hands every match's spans to `on_match`, and
/// specialises from the matched substrings.
fn specialise_hosts<'a>(
    regex: &Regex,
    hosts: impl Iterator<Item = (u32, &'a HostObs)>,
    trace: &mut Vec<(usize, usize)>,
    mut on_match: impl FnMut(u32, &'a HostObs, &[(usize, usize)]),
) -> Option<Regex> {
    let elems = regex.elems();
    let specialisable = |e: &Elem| matches!(e, Elem::NotIn(_) | Elem::Any);
    // Collected matched substrings per element index, borrowed from the
    // hostnames — specialisation only inspects them, so no copies.
    let mut matched: Vec<Vec<&'a str>> = vec![Vec::new(); elems.len()];
    let mut any = false;
    // The cached program amortises the compile over the whole hostname
    // set (and across phases); compiled traces are bit-identical to the
    // interpreter's.
    let program = regex.program();
    for (hi, h) in hosts {
        if !program.find_trace_into(&h.hostname, trace) {
            continue;
        }
        any = true;
        on_match(hi, h, trace);
        for (i, e) in elems.iter().enumerate() {
            if specialisable(e) {
                let (s, eo) = trace[i];
                matched[i].push(&h.hostname[s..eo]);
            }
        }
    }
    if !any {
        return None;
    }
    // The elements are copied only once some component specialises.
    let mut new_elems: Option<Vec<Elem>> = None;
    for (i, e) in elems.iter().enumerate() {
        let repl = if specialisable(e) { replacement(&matched[i]) } else { None };
        match (repl, &mut new_elems) {
            (Some(repl), None) => new_elems = Some([&elems[..i], &repl[..]].concat()),
            (Some(repl), Some(out)) => out.extend(repl),
            (None, Some(out)) => out.push(e.clone()),
            (None, None) => {}
        }
    }
    new_elems.map(Regex::new)
}

/// Run type codes packed into [`RunSig::types`], two bits per run.
const RUN_LOWER: u32 = 0;
const RUN_DIGIT: u32 = 1;
const RUN_HYPHEN: u32 = 2;

/// Packed run decomposition of one sample: the run count, the run
/// types (two bits each, low-to-high), and a bitmask of the runs with
/// length exactly 1. `MAX_SEQUENCE` bounds the run count long before
/// either pack saturates.
#[derive(Clone, Copy)]
struct RunSig {
    n: u32,
    types: u32,
    len1: u32,
}

/// Decomposes `s` into its run signature in one allocation-free pass.
/// `None` when `s` leaves the run alphabet or needs more than `cap`
/// runs — callers compare against a first sample with at most `cap`
/// runs, so a longer decomposition can never match anyway.
fn run_sig(s: &str, cap: u32) -> Option<RunSig> {
    let mut sig = RunSig { n: 0, types: 0, len1: 0 };
    let mut prev = u32::MAX;
    let mut run_len = 0u32;
    for &b in s.as_bytes() {
        let t = match b {
            b'a'..=b'z' => RUN_LOWER,
            b'0'..=b'9' => RUN_DIGIT,
            b'-' => RUN_HYPHEN,
            _ => return None,
        };
        if t == prev {
            run_len += 1;
            continue;
        }
        if sig.n > 0 && run_len == 1 {
            sig.len1 |= 1 << (sig.n - 1);
        }
        if sig.n == cap {
            return None;
        }
        sig.types |= t << (2 * sig.n);
        sig.n += 1;
        prev = t;
        run_len = 1;
    }
    if sig.n > 0 && run_len == 1 {
        sig.len1 |= 1 << (sig.n - 1);
    }
    Some(sig)
}

/// Decides the replacement elements for a component that matched
/// `samples`. `None` when no specialisation is possible.
fn replacement(samples: &[&str]) -> Option<Vec<Elem>> {
    // Try the common run-type sequence first.
    if let Some(repl) = sequence_replacement(samples) {
        return Some(repl);
    }
    // Fall back to a single covering class.
    let mut class = CharClass::EMPTY;
    for &s in samples {
        class = class.union(CharClass::covering(s)?);
    }
    if class.is_empty() {
        return None;
    }
    if class.digit && !class.lower && !class.hyphen {
        Some(vec![Elem::Digits])
    } else {
        Some(vec![Elem::Class(class)])
    }
}

/// Replacement via the shared run-type sequence: when every sample
/// decomposes into the identical sequence of 2..=MAX_SEQUENCE runs,
/// render that sequence as elements. Hyphen runs become a literal `-`
/// when every sample has a single hyphen there, else a hyphen class.
/// One packed [`run_sig`] pass per sample covers both the sequence
/// check and the run-length-1 test.
fn sequence_replacement(samples: &[&str]) -> Option<Vec<Elem>> {
    let mut iter = samples.iter();
    let first = run_sig(iter.next()?, MAX_SEQUENCE as u32)?;
    if first.n <= 1 {
        return None;
    }
    // Per position, whether every sample's run has length 1.
    let mut len1 = first.len1;
    for &s in iter {
        let sig = run_sig(s, first.n)?;
        if sig.n != first.n || sig.types != first.types {
            return None;
        }
        len1 &= sig.len1;
    }
    Some(
        (0..first.n)
            .map(|i| match (first.types >> (2 * i)) & 3 {
                RUN_LOWER => Elem::Class(CharClass { lower: true, digit: false, hyphen: false }),
                RUN_DIGIT => Elem::Digits,
                RUN_HYPHEN if len1 >> i & 1 == 1 => Elem::Lit("-".to_string()),
                _ => Elem::Class(CharClass { lower: false, digit: false, hyphen: true }),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::DISPATCH_MIN_CELLS;
    use crate::training::Observation;

    fn hosts(rows: &[(&str, u32)], suffix: &str) -> Vec<HostObs> {
        rows.iter()
            .map(|&(h, a)| HostObs::build(&Observation::new(h, [192, 0, 2, 9], a), suffix))
            .collect()
    }

    fn rx(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    #[test]
    fn figure4_regex5_becomes_regex6() {
        let hs = hosts(
            &[
                ("109.sgw.equinix.com", 109),
                ("714.os.equinix.com", 714),
                ("714.me1.equinix.com", 714),
                ("p714.sgw.equinix.com", 714),
                ("s714.sgw.equinix.com", 714),
                ("p24115.mel.equinix.com", 24115),
                ("s24115.tyo.equinix.com", 24115),
            ],
            "equinix.com",
        );
        let pool = vec![rx(r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn sequence_inference_letters_then_digits() {
        let hs = hosts(
            &[("605.pop7.example.com", 605), ("923.lns3.example.com", 923)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)\.[^\.]+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(\d+)\.[a-z]+\d+\.example\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn dot_under_any_blocks_specialisation() {
        let hs = hosts(&[("100-a.b.example.com", 100)], "example.com");
        let pool = vec![rx(r"^(\d+)-.+\.example\.com$")];
        // `.+` matched "a.b": contains a dot, cannot become a class.
        assert!(embed_classes(&pool, &hs).is_empty());
    }

    #[test]
    fn any_specialises_when_dot_free() {
        let hs = hosts(
            &[("100-ae1.example.com", 100), ("200-xe2.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)-.+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(strings.iter().any(|s| s == r"^(\d+)-[a-z]+\d+\.example\.com$"), "{strings:?}");
    }

    #[test]
    fn unmatched_regex_yields_nothing() {
        let hs = hosts(&[("as100.x.example.com", 100)], "example.com");
        let pool = vec![rx(r"^zz(\d+)\.example\.com$")];
        assert!(embed_classes(&pool, &hs).is_empty());
    }

    #[test]
    fn digit_only_component_becomes_digits() {
        let hs = hosts(
            &[("a.7.as100.example.com", 100), ("b.31.as200.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^[^\.]+\.[^\.]+\.as(\d+)\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^[a-z]+\.\d+\.as(\d+)\.example\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn hyphen_sequence_with_constant_hyphen() {
        // [^\.]+ matching "fr5-ix" and "dc2-ix": sequence letters, digits,
        // literal hyphen, letters.
        let hs = hosts(
            &[("100.fr5-ix.example.com", 100), ("200.dc2-ix.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)\.[^\.]+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(\d+)\.[a-z]+\d+-[a-z]+\.example\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn mixed_structures_fall_back_to_covering_class() {
        let hs = hosts(
            &[("100.fr5-ix.example.com", 100), ("200.tyo.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)\.[^\.]+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(\d+)\.[a-z\d-]+\.example\.com$"),
            "{strings:?}"
        );
    }

    /// Above the screen's threshold, where each regex traces only the
    /// hosts dispatch hands it, `embed_classes` produces the same output
    /// as specialising every regex against every host.
    #[test]
    fn dispatch_filtered_embed_equals_naive_specialise() {
        let rows: Vec<(String, u32)> = (0..120u32)
            .flat_map(|i| {
                [
                    (format!("{}.sgw.equinix.com", 100 + i), 100 + i),
                    (format!("p{}.sgw.equinix.com", 700 + i), 700 + i),
                    (format!("{}-ae{}.example.com", 200 + i, i % 7), 200 + i),
                    (format!("{}-xe{}.example.com", 300 + i, i % 5), 300 + i),
                    (format!("{}.pop{}.example.com", 600 + i, i % 9), 600 + i),
                    (format!("{}.lns{}.example.com", 900 + i, i % 4), 900 + i),
                ]
            })
            .collect();
        let rows: Vec<(&str, u32)> = rows.iter().map(|(h, a)| (h.as_str(), *a)).collect();
        let hs = hosts(&rows, "example.com");
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.example\.com$"),
            rx(r"^(\d+)\.[^\.]+\.example\.com$"),
            rx(r"^(\d+)\.[^\.]+\.[^\.]+\.com$"),
            rx(r"(\d+)-[^\.]+"), // literal-free: rides the fallback bucket
            rx(r"^[^\.]+\.[^\.]+\.(\d+)\.com$"), // matches nothing
        ];
        let cells = pool.len() * hs.len();
        assert!(cells >= DISPATCH_MIN_CELLS, "fixture fell below the threshold: {cells} cells");
        let mut naive: Vec<Regex> = pool
            .iter()
            .filter_map(|r| specialise(r, &hs).filter(|s| s != r))
            .collect();
        naive.sort_by_key(|r| r.to_string());
        naive.dedup();
        assert!(naive.len() >= 3, "the fixture must specialise something: {naive:?}");
        assert_eq!(embed_classes(&pool, &hs), naive);
    }

    #[test]
    fn already_specialised_unchanged() {
        let hs = hosts(&[("100.abc.example.com", 100)], "example.com");
        let pool = vec![rx(r"^(\d+)\.[a-z]+\.example\.com$")];
        assert!(embed_classes(&pool, &hs).is_empty());
    }
}
