//! Property-based tests for the core learning machinery, on the devkit
//! harness: the regex dialect round-trips through its textual form, the
//! matcher finds instances sampled from a regex, a match's trace span
//! at the capture is its capture, a §3.4 specialisation matches only
//! hosts its parent matches, edit distance behaves like a metric (up to
//! the OSA caveat), and evaluation counts stay consistent.

use hoiho::apparent::{congruence, Congruence};
use hoiho::editdist::damerau_levenshtein;
use hoiho::eval::{evaluate, Counts};
use hoiho::learner::{learn_all, LearnConfig};
use hoiho::phases::classes::specialise;
use hoiho::regex::{AltGroup, CharClass, CompiledRegex, Elem, MultiMatcher, Regex};
use hoiho::training::{HostObs, Observation, TrainingSet};
use hoiho_devkit::prop::{any, just, one_of, string_of, vec_of, Gen};
use hoiho_devkit::{prop_assert, prop_assert_eq, props};
use hoiho_psl::PublicSuffixList;

const LOWER_DIGIT: &str = "abcdefghijklmnopqrstuvwxyz0123456789";

/// A literal chunk over the hostname alphabet (possibly with dots and
/// hyphens, never empty): `[a-z0-9][a-z0-9.-]{0,5}`.
fn lit() -> impl Gen<Value = String> {
    (string_of(LOWER_DIGIT, 1..=1usize), string_of("abcdefghijklmnopqrstuvwxyz0123456789.-", 0..=5usize))
        .prop_map(|(head, tail)| format!("{head}{tail}"))
}

/// A non-empty alternation option (no punctuation — phase 2 merges
/// simple strings): `[a-z0-9]{1,4}`.
fn alt_opt() -> impl Gen<Value = String> {
    string_of(LOWER_DIGIT, 1..=4usize)
}

/// One dialect element (excluding anchors and `.+`, handled at the
/// regex level).
fn elem() -> impl Gen<Value = Elem> {
    one_of(vec![
        lit().prop_map(Elem::Lit).boxed(),
        just(Elem::Digits).boxed(),
        just(Elem::NotIn(".".to_string())).boxed(),
        just(Elem::NotIn("-".to_string())).boxed(),
        just(Elem::NotIn(".-".to_string())).boxed(),
        just(Elem::Class(CharClass { lower: true, digit: false, hyphen: false })).boxed(),
        just(Elem::Class(CharClass { lower: true, digit: true, hyphen: false })).boxed(),
        just(Elem::Class(CharClass { lower: true, digit: true, hyphen: true })).boxed(),
        (vec_of(alt_opt(), 1..3usize), any::<bool>())
            .prop_map(|(opts, optional)| {
                let mut a = AltGroup::from_variants(opts).expect("options are non-empty");
                a.optional = a.optional || optional;
                Elem::Alt(a)
            })
            .boxed(),
    ])
}

/// A whole dialect regex with optional anchors, a capture somewhere,
/// and at most one `.+`.
fn regex() -> impl Gen<Value = Regex> {
    (
        any::<bool>(),
        any::<bool>(),
        vec_of(elem(), 0..4usize),
        vec_of(elem(), 0..4usize),
        any::<bool>(),
    )
        .prop_map(|(anchor_start, anchor_end, before, after, with_any)| {
            let mut elems = Vec::new();
            if anchor_start {
                elems.push(Elem::StartAnchor);
            }
            elems.extend(before);
            elems.push(Elem::CaptureDigits);
            if with_any {
                elems.push(Elem::Lit("-".to_string()));
                elems.push(Elem::Any);
            }
            elems.extend(after);
            if anchor_end {
                elems.push(Elem::EndAnchor);
            }
            Regex::new(elems)
        })
}

/// Samples a hostname fragment matching one element.
fn instance_of(e: &Elem, rng_bits: u64) -> String {
    let pick = |set: &[u8], n: usize| -> String {
        (0..n)
            .map(|i| set[(rng_bits as usize + i * 7) % set.len()] as char)
            .collect()
    };
    match e {
        Elem::StartAnchor | Elem::EndAnchor => String::new(),
        Elem::Lit(l) => l.clone(),
        Elem::CaptureDigits | Elem::Digits => pick(b"0123456789", 1 + (rng_bits % 4) as usize),
        Elem::NotIn(set) => {
            let alphabet: Vec<u8> = b"abcxyz0189.-"
                .iter()
                .copied()
                .filter(|&c| !set.as_bytes().contains(&c))
                .collect();
            pick(&alphabet, 1 + (rng_bits % 3) as usize)
        }
        Elem::Class(c) => {
            let mut alphabet = Vec::new();
            if c.lower {
                alphabet.extend_from_slice(b"abkz");
            }
            if c.digit {
                alphabet.extend_from_slice(b"079");
            }
            if c.hyphen {
                alphabet.push(b'-');
            }
            pick(&alphabet, 1 + (rng_bits % 3) as usize)
        }
        Elem::Any => pick(b"ab1.-", 1 + (rng_bits % 4) as usize),
        Elem::Alt(a) => {
            if a.optional && rng_bits.is_multiple_of(3) {
                String::new()
            } else {
                a.opts[(rng_bits as usize) % a.opts.len()].clone()
            }
        }
    }
}

/// A hostname assembled from per-element instances of `r`.
fn sample(r: &Regex, seed: u64) -> String {
    r.elems()
        .iter()
        .enumerate()
        .map(|(i, e)| instance_of(e, seed.wrapping_add(i as u64 * 131)))
        .collect()
}

props! {
    cases = 256;

    /// Render → parse → render is a fixpoint.
    fn regex_roundtrip(r in regex()) {
        let text = r.to_string();
        let parsed = Regex::parse(&text)
            .unwrap_or_else(|e| panic!("reparse of {text:?} failed: {e}"));
        prop_assert_eq!(parsed.to_string(), text);
    }

    /// A hostname assembled from per-element instances matches.
    fn sampled_instance_matches(r in regex(), seed in any::<u64>()) {
        let host: String = r
            .elems()
            .iter()
            .enumerate()
            .map(|(i, e)| instance_of(e, seed.wrapping_add(i as u64 * 131)))
            .collect();
        prop_assert!(
            r.find(&host).is_some(),
            "{} failed to match its own instance {host:?}",
            r
        );
    }

    /// The compiled program is bit-identical to the interpreter — same
    /// leftmost match, same captures, same trace spans — on the regex's
    /// own sampled instances, on random noise, on noise-flanked
    /// instances, and on the tricky fixed corpus (typo-congruent and
    /// embedded-IP hostnames, oversized digit runs).
    fn compiled_engine_equals_interpreter(
        r in regex(),
        seed in any::<u64>(),
        noise in string_of("abcxyz0189.-", 0..=12usize),
    ) {
        let c = CompiledRegex::compile(&r);
        let instance: String = r
            .elems()
            .iter()
            .enumerate()
            .map(|(i, e)| instance_of(e, seed.wrapping_add(i as u64 * 131)))
            .collect();
        let flanked_front = format!("{noise}{instance}");
        let flanked_back = format!("{instance}{noise}");
        let hosts = [
            instance.as_str(),
            noise.as_str(),
            flanked_front.as_str(),
            flanked_back.as_str(),
            // Typo-congruence corpus host (as24940 vs training 20940).
            "as24940.akl-ix.nz",
            // Embedded-IP overlap corpus host (Figure 3b).
            "50-236-216-122-static.hfc.comcastbusiness.net",
            // Digit run longer than any ASN.
            "as99999999999.pop1.example.com",
            "",
        ];
        for host in hosts {
            // `find_interpreted` is the oracle: `Regex::find` itself now
            // runs the cached compiled program.
            let oracle = r.find_interpreted(host);
            let oracle_extract =
                oracle.as_ref().and_then(|m| m.captures.first().map(|&(s, e)| &host[s..e]));
            prop_assert_eq!(c.find(host), oracle.clone());
            prop_assert_eq!(c.find_trace(host), r.find_trace_interpreted(host));
            prop_assert_eq!(c.extract(host), oracle_extract);
            prop_assert_eq!(c.is_match(host), oracle.is_some());
        }
    }

    /// `MultiMatcher` dispatch is a superset-exact filter over a
    /// generated pool: every regex that matches a host is dispatched
    /// for that host (no false negatives), on the regexes' own sampled
    /// instances, on noise, and on flanked instances. When the pool
    /// fits the bitmask fast path, it agrees with the scratch path.
    fn multi_matcher_dispatch_has_no_false_negatives(
        pool in vec_of(regex(), 1..6usize),
        seed in any::<u64>(),
        noise in string_of("abcxyz0189.-", 0..=12usize),
    ) {
        let programs: Vec<CompiledRegex> = pool.iter().map(CompiledRegex::compile).collect();
        let matcher = MultiMatcher::build(&programs);
        let mut scratch = matcher.scratch();
        let mut hosts: Vec<String> = vec![noise.clone(), String::new()];
        for r in &pool {
            let instance: String = r
                .elems()
                .iter()
                .enumerate()
                .map(|(i, e)| instance_of(e, seed.wrapping_add(i as u64 * 131)))
                .collect();
            hosts.push(format!("{noise}{instance}"));
            hosts.push(format!("{instance}{noise}"));
            hosts.push(instance);
        }
        for host in &hosts {
            let dispatched = matcher.dispatch(host.as_bytes(), &mut scratch).to_vec();
            for (ri, p) in programs.iter().enumerate() {
                if p.is_match(host) {
                    prop_assert!(
                        dispatched.contains(&(ri as u32)),
                        "{} matches {host:?} but was not dispatched",
                        pool[ri]
                    );
                }
            }
            if matcher.supports_mask() {
                let mask = matcher.dispatch_mask(host.as_bytes());
                let from_mask: Vec<u32> =
                    (0..64).filter(|&b| mask >> b & 1 == 1).collect();
                let mut sorted = dispatched.clone();
                sorted.sort_unstable();
                prop_assert_eq!(from_mask, sorted);
            }
        }
    }

    /// Captures are digit runs inside the match span.
    fn captures_are_digits(r in regex(), seed in any::<u64>()) {
        let host: String = r
            .elems()
            .iter()
            .enumerate()
            .map(|(i, e)| instance_of(e, seed.wrapping_add(i as u64 * 131)))
            .collect();
        if let Some(m) = r.find(&host) {
            for &(s, e) in &m.captures {
                prop_assert!(s >= m.span.0 && e <= m.span.1);
                prop_assert!(s < e);
                prop_assert!(host[s..e].bytes().all(|b| b.is_ascii_digit()));
            }
        }
    }

    /// A match's trace span at the capture element is its capture:
    /// `find_trace`, and the allocation-free `find_trace_into`, report
    /// at `capture_index()` exactly `match_capture`'s span. The learner's
    /// classes phase classifies its hits from that span.
    fn trace_span_at_the_capture_is_the_capture(
        r in regex(),
        seed in any::<u64>(),
        noise in string_of("abcxyz0189.-", 0..=12usize),
    ) {
        let c = CompiledRegex::compile(&r);
        let at = r.capture_index().expect("generated regexes capture");
        let instance = sample(&r, seed);
        let hosts = [
            format!("{noise}{instance}"),
            format!("{instance}{noise}"),
            instance,
            noise,
            "as24940.akl-ix.nz".to_string(),
            "50-236-216-122-static.hfc.comcastbusiness.net".to_string(),
        ];
        let mut spans = Vec::new();
        for host in &hosts {
            match c.find_trace(host) {
                Some((_, trace)) => {
                    prop_assert_eq!(c.match_capture(host), Some(Some(trace[at])));
                    prop_assert!(c.find_trace_into(host, &mut spans), "{} on {host:?}", r);
                    prop_assert_eq!(spans[at], trace[at]);
                }
                None => prop_assert_eq!(c.match_capture(host), None),
            }
        }
    }

    /// §3.4 containment, which the learner's lineage-pruned evaluation
    /// rests on: a specialisation narrows components to bytes they
    /// matched, so every host the specialised regex matches — among the
    /// hosts it was built from, and among instances sampled from it —
    /// its parent matches too.
    fn specialisation_matches_only_hosts_its_parent_matches(
        pool in vec_of(regex(), 1..4usize),
        seed in any::<u64>(),
        noise in string_of("abcxyz0189.-", 0..=8usize),
    ) {
        let mut names = vec![noise.clone()];
        for (k, r) in pool.iter().enumerate() {
            for j in 0..3u64 {
                let instance = sample(r, seed.wrapping_add(k as u64 * 7919 + j * 104_729));
                names.push(format!("{noise}{instance}"));
                names.push(instance);
            }
        }
        let hosts: Vec<HostObs> = names
            .iter()
            .map(|h| HostObs::build(&Observation::new(h, [192, 0, 2, 1], 1), ""))
            .collect();
        for r in &pool {
            let Some(child) = specialise(r, &hosts) else { continue };
            let mut probes = names.clone();
            probes.extend((0..8u64).map(|j| sample(&child, seed ^ j.wrapping_mul(0x9e37_79b9))));
            for h in &probes {
                if child.is_match(h) {
                    prop_assert!(r.is_match(h), "{} (from {}) matches {h:?}; its parent does not", child, r);
                }
            }
        }
    }

    /// Damerau-Levenshtein: symmetry, identity, and length bounds.
    fn editdist_metric_properties(
        a in string_of("0123456789", 0..=8usize),
        b in string_of("0123456789", 0..=8usize),
    ) {
        let d = damerau_levenshtein(&a, &b);
        prop_assert_eq!(d, damerau_levenshtein(&b, &a));
        prop_assert_eq!(d == 0, a == b);
        prop_assert!(d >= a.len().abs_diff(b.len()));
        prop_assert!(d <= a.len().max(b.len()));
    }

    /// Single-edit strings are at distance one.
    fn editdist_single_edits(
        s in string_of("0123456789", 2..=8usize),
        pos in any::<usize>(),
        digit in 0u8..10,
    ) {
        let bytes = s.as_bytes();
        let p = pos % bytes.len();
        // Substitution with a different digit.
        let nd = b'0' + digit;
        if nd != bytes[p] {
            let mut sub = bytes.to_vec();
            sub[p] = nd;
            prop_assert_eq!(damerau_levenshtein(&s, std::str::from_utf8(&sub).unwrap()), 1);
        }
        // Deletion.
        let mut del = bytes.to_vec();
        del.remove(p);
        prop_assert_eq!(damerau_levenshtein(&s, std::str::from_utf8(&del).unwrap()), 1);
        // Transposition of distinct adjacent digits.
        if p + 1 < bytes.len() && bytes[p] != bytes[p + 1] {
            let mut tr = bytes.to_vec();
            tr.swap(p, p + 1);
            prop_assert_eq!(damerau_levenshtein(&s, std::str::from_utf8(&tr).unwrap()), 1);
        }
    }

    /// Exact numeric matches are always congruent; distance ≥ 2 never is.
    fn congruence_consistency(asn in 1u32..400_000) {
        prop_assert_eq!(congruence(&asn.to_string(), asn), Congruence::Exact);
        // Appending two digits makes it incongruent.
        let far = format!("{asn}00");
        if far.parse::<u32>().map(|v| v != asn).unwrap_or(true) {
            prop_assert_eq!(congruence(&far, asn), Congruence::No);
        }
    }

    /// Evaluation counts partition the hostname set.
    fn evaluation_counts_partition(asns in vec_of(1u32..90_000, 1..20usize)) {
        let hosts: Vec<HostObs> = asns
            .iter()
            .enumerate()
            .map(|(i, &asn)| {
                // Half annotated, half plain infra names.
                let h = if i % 2 == 0 {
                    format!("as{asn}.pop{i}.example.com")
                } else {
                    format!("core-{i}.example.com")
                };
                HostObs::build(&Observation::new(&h, [192, 0, 2, 1], asn), "example.com")
            })
            .collect();
        let r = Regex::parse(r"^as(\d+)\.[a-z\d]+\.example\.com$").unwrap();
        let c: Counts = evaluate(std::slice::from_ref(&r), &hosts);
        prop_assert_eq!(c.total() as usize, hosts.len());
        prop_assert!(c.atp() <= i64::from(c.tp));
        prop_assert_eq!(c.matched(), c.tp + c.fp);
        prop_assert!(c.unique_tp_asns.len() <= c.tp as usize);
    }
}

/// Regression: threaded whole-snapshot learning must be byte-for-byte
/// identical to the single-threaded path, on a synthetic set large
/// enough (50 suffixes) to exercise real work stealing across threads.
#[test]
fn learn_all_threaded_equals_single_threaded_50_suffixes() {
    let psl = PublicSuffixList::builtin();
    let mut ts = TrainingSet::new();
    for d in 0..50u32 {
        for i in 0..12u32 {
            let asn = 30_000 + d * 40 + i;
            ts.push(Observation::new(
                &format!("as{asn}-ae{}.pop{}.operator{d}-net.net", i % 4, i % 5),
                [203, 0, 113, (i % 250) as u8],
                asn,
            ));
        }
    }
    let groups = ts.by_suffix(&psl);
    assert_eq!(groups.len(), 50, "one group per synthetic suffix");
    let single = learn_all(&groups, &LearnConfig { threads: 1, ..LearnConfig::default() });
    let multi = learn_all(&groups, &LearnConfig { threads: 8, ..LearnConfig::default() });
    assert_eq!(single.len(), multi.len());
    for (s, m) in single.iter().zip(&multi) {
        assert_eq!(s.convention.suffix, m.convention.suffix);
        assert_eq!(s.convention.to_string(), m.convention.to_string());
        assert_eq!(s.class, m.class);
        assert_eq!(s.single, m.single);
    }
}
