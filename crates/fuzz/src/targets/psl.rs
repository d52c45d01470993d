//! Public suffix list: the rule-table lookup and `dispatch` vs the
//! linear-scan algorithm the table replaced.
//!
//! Case layout: rule lines in Mozilla list syntax, a blank separator
//! line, then host lines. Oracle, for every host:
//!
//! 1. `lookup`, `public_suffix` and `registrable_domain` equal the
//!    [`Reference`] lookup (and both lists count the same rules);
//! 2. `dispatch` of the lowercased host over an index of keys returns
//!    the same outcome and hit as probing the reference registrable
//!    domain, then the host's label suffixes longest first. The indexes
//!    are hash-chosen halves of every label suffix of the case's hosts,
//!    so one case reaches exact, fallback and miss outcomes.

use super::Target;
use crate::corpus::case_hash;
use crate::input::FuzzInput;
use hoiho_psl::{lowercase, Dispatch, PublicSuffixList, SuffixMatch};
use std::collections::HashSet;

/// The label alphabet rules and hosts are drawn from — small, so hosts
/// and rules collide often.
const LABELS: &[&str] = &["a", "x", "y", "ck", "www", "com", "jp", "*"];

pub struct PslTarget;

impl Target for PslTarget {
    fn name(&self) -> &'static str {
        "psl"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        // Rule keys often extend an earlier key by one label, so cases
        // hold nested families (`ck`, `*.ck`, `*.x.ck`, `!y.x.ck`) whose
        // rules compete for the same names.
        let mut keys: Vec<String> = Vec::new();
        let mut rules: Vec<String> = Vec::new();
        for _ in 0..input.range(0, 8) {
            let key = if !keys.is_empty() && input.chance(50) {
                let under = input.pick(&keys).clone();
                format!("{}.{under}", input.pick(LABELS))
            } else {
                dotted(input, 1, 3)
            };
            let mut rule = match input.below(6) {
                0 | 1 => format!("*.{key}"),
                2 => format!("!{key}"),
                3 => format!("*.*.{key}"),
                4 => format!("!{}", input.pick(&["com", "ck", "jp"])),
                _ => key.clone(),
            };
            keys.push(key);
            if input.chance(15) {
                rule = rule.to_ascii_uppercase();
            }
            if input.chance(15) {
                rule.push('.');
            }
            rules.push(rule);
        }
        let mut case = String::new();
        for rule in &rules {
            match input.below(10) {
                0 => case.push_str("// "),
                1 => case.push_str("  "),
                _ => {}
            }
            case.push_str(rule);
            if input.chance(10) {
                case.push_str(" junk");
            }
            case.push('\n');
        }
        case.push('\n'); // blank separator: rules above, hosts below
        for _ in 0..input.range(1, 8) {
            let mut host = match input.below(5) {
                // A name equal to a rule's text (a wildcard's star stays
                // a literal `*` label).
                0 if !rules.is_empty() => input.pick(&rules).trim_start_matches('!').to_string(),
                // Zero to two labels over a rule's key.
                1 | 2 if !keys.is_empty() => {
                    let key = input.pick(&keys).clone();
                    match input.below(3) {
                        0 => key,
                        n => format!("{}.{key}", dotted(input, n, n)),
                    }
                }
                _ => dotted(input, 1, 5),
            };
            if input.chance(15) {
                host = host.to_ascii_uppercase();
            }
            if input.chance(10) {
                // May open an empty label.
                host.insert(input.below(host.len() as u64 + 1) as usize, '.');
            }
            for _ in 0..input.range(0, 2) {
                if input.chance(30) {
                    host.push('.');
                }
            }
            case.push_str(&host);
            case.push('\n');
        }
        case.into_bytes()
    }

    fn run(&self, case: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(case) else {
            return Ok(()); // foreign bytes: nothing to feed a &str parser
        };
        let mut lines = text.lines();
        let rules: Vec<&str> = lines.by_ref().take_while(|l| !l.is_empty()).collect();
        let rules = rules.join("\n");
        let psl = PublicSuffixList::parse(&rules);
        let reference = Reference::parse(&rules);
        if psl.len() != reference.len() {
            return Err(format!("rule count {} vs reference {}", psl.len(), reference.len()));
        }
        let hosts: Vec<&str> = lines.collect();
        let keys: Vec<String> =
            hosts.iter().flat_map(|h| label_suffixes_of(&lowercase(h))).collect();
        let indexes = [0u8, 1, 2].map(|salt| hashed_half(&keys, salt));
        for host in hosts {
            check_host(&psl, &reference, host, &indexes)?;
        }
        Ok(())
    }
}

/// `min` to `max` labels from [`LABELS`], dot-joined.
fn dotted(input: &mut FuzzInput, min: u64, max: u64) -> String {
    let n = input.range(min, max);
    (0..n).map(|_| *input.pick(LABELS)).collect::<Vec<_>>().join(".")
}

/// The keys of `keys` whose salted hash is odd: a deterministic half.
fn hashed_half(keys: &[String], salt: u8) -> HashSet<String> {
    keys.iter()
        .filter(|k| {
            let mut salted = vec![salt];
            salted.extend_from_slice(k.as_bytes());
            case_hash(&salted) & 1 == 1
        })
        .cloned()
        .collect()
}

/// Runs both oracle checks on one host.
fn check_host(
    psl: &PublicSuffixList,
    reference: &Reference,
    host: &str,
    indexes: &[HashSet<String>],
) -> Result<(), String> {
    let want = reference.lookup(host);
    let got = psl.lookup(host);
    if got != want {
        return Err(format!("lookup({host:?}) = {got:?}, reference {want:?}"));
    }
    let want_suffix = want.as_ref().map(|m| m.public_suffix.clone());
    if psl.public_suffix(host) != want_suffix {
        return Err(format!("public_suffix({host:?}) diverges from {want_suffix:?}"));
    }
    let want_rd = want.and_then(|m| m.registrable);
    if psl.registrable_domain(host) != want_rd {
        return Err(format!("registrable_domain({host:?}) diverges from {want_rd:?}"));
    }
    let lower = lowercase(host);
    for index in indexes {
        let got = psl.dispatch(&lower, |k| index.get(k).cloned());
        let want = reference_dispatch(reference, &lower, index);
        if got != want {
            return Err(format!("dispatch({lower:?}) = {got:?}, reference {want:?}"));
        }
    }
    Ok(())
}

/// Dispatch as specified: the reference registrable domain if the index
/// holds it, else the first indexed label suffix, longest first.
fn reference_dispatch(
    reference: &Reference,
    lower: &str,
    index: &HashSet<String>,
) -> Dispatch<String> {
    if let Some(rd) = reference.lookup(lower).and_then(|m| m.registrable) {
        if index.contains(&rd) {
            return Dispatch::Exact(rd);
        }
    }
    label_suffixes_of(lower)
        .into_iter()
        .find(|k| index.contains(k))
        .map_or(Dispatch::Miss, Dispatch::Fallback)
}

/// Every non-empty suffix of `name` (trailing dots dropped) that starts
/// at a label boundary, longest first.
fn label_suffixes_of(name: &str) -> Vec<String> {
    let mut rest = name.trim_end_matches('.');
    let mut out = Vec::new();
    loop {
        if !rest.is_empty() {
            out.push(rest.to_string());
        }
        match rest.find('.') {
            Some(i) => rest = &rest[i + 1..],
            None => return out,
        }
    }
}

/// The public suffix list algorithm as a linear scan over reversed-label
/// rule lists — the implementation `hoiho_psl` used before its rule
/// table, kept as the oracle.
#[derive(Default)]
struct Reference {
    /// Normal rules, lowercase labels, most-significant (TLD) first:
    /// `["nz", "org"]` is `org.nz`.
    rules: Vec<Vec<String>>,
    /// Wildcard rules: `*.ck` stored as `["ck"]` (labels under the star).
    wildcards: Vec<Vec<String>>,
    /// Exception rules: `!www.ck` stored as `["ck", "www"]`.
    exceptions: Vec<Vec<String>>,
}

impl Reference {
    /// Parses Mozilla list syntax exactly as `PublicSuffixList::parse`.
    fn parse(text: &str) -> Reference {
        let mut r = Reference::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let rule = line.split_whitespace().next().unwrap_or("");
            if let Some(exc) = rule.strip_prefix('!') {
                r.exceptions.push(reverse_labels(exc));
            } else if let Some(rest) = rule.strip_prefix("*.") {
                r.wildcards.push(reverse_labels(rest));
            } else if !rule.is_empty() && rule != "*" {
                r.rules.push(reverse_labels(rule));
            }
        }
        for list in [&mut r.rules, &mut r.wildcards, &mut r.exceptions] {
            list.sort();
            list.dedup();
        }
        r
    }

    fn len(&self) -> usize {
        self.rules.len() + self.wildcards.len() + self.exceptions.len()
    }

    fn lookup(&self, hostname: &str) -> Option<SuffixMatch> {
        let name = hostname.trim_end_matches('.').to_ascii_lowercase();
        if name.is_empty() {
            return None;
        }
        let labels: Vec<&str> = name.split('.').collect();
        if labels.iter().any(|l| l.is_empty()) {
            return None;
        }
        let rev: Vec<&str> = labels.iter().rev().copied().collect();

        // The prevailing rule is the matching rule with the most labels;
        // exception rules beat all others, and an exception rule's
        // effective suffix drops the exception's leftmost label.
        let mut suffix_labels = 1; // implicit `*` rule
        if let Some(n) = longest_match(&self.exceptions, &rev) {
            suffix_labels = n - 1;
        } else {
            if let Some(n) = longest_match(&self.rules, &rev) {
                suffix_labels = suffix_labels.max(n);
            }
            // A wildcard rule `*.ck` (stored as ["ck"]) matches any name
            // with >= 2 labels whose tail matches; the suffix is one label
            // longer than the stored part.
            if let Some(n) = longest_wildcard_match(&self.wildcards, &rev) {
                suffix_labels = suffix_labels.max(n + 1);
            }
        }

        // Exception rules can reduce the count to zero in a pathological
        // list (`!com`); clamp so every name keeps at least one suffix
        // label and never more labels than it has.
        suffix_labels = suffix_labels.clamp(1, labels.len());

        let public_suffix = labels[labels.len() - suffix_labels..].join(".");
        let registrable = if labels.len() > suffix_labels {
            Some(labels[labels.len() - suffix_labels - 1..].join("."))
        } else {
            None
        };
        Some(SuffixMatch { suffix_labels, public_suffix, registrable })
    }
}

/// Splits a rule into lowercase labels, most-significant first.
fn reverse_labels(rule: &str) -> Vec<String> {
    rule.trim_end_matches('.').split('.').rev().map(|l| l.to_ascii_lowercase()).collect()
}

/// Length in labels of the longest rule fully matching the reversed name,
/// or `None`.
fn longest_match(rules: &[Vec<String>], rev_name: &[&str]) -> Option<usize> {
    let mut best = None;
    for rule in rules {
        if rule.len() <= rev_name.len() && rule.iter().zip(rev_name).all(|(a, b)| a == b) {
            best = best.max(Some(rule.len()));
        }
    }
    best
}

/// Length in labels of the longest wildcard *tail* matching the reversed
/// name with at least one extra label available for the star.
fn longest_wildcard_match(rules: &[Vec<String>], rev_name: &[&str]) -> Option<usize> {
    let mut best = None;
    for rule in rules {
        if rule.len() < rev_name.len() && rule.iter().zip(rev_name).all(|(a, b)| a == b) {
            best = best.max(Some(rule.len()));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The alphabet the exhaustive hosts are spelled from: every label
    /// the rule sets below name, plus two that none does.
    const ALPHABET: &[&str] = &["a", "x", "y", "www", "ck", "foo", "jp", "kobe", "city", "com"];

    /// Every host of 1–4 labels over [`ALPHABET`].
    fn all_hosts() -> Vec<String> {
        let mut hosts: Vec<String> = ALPHABET.iter().map(|l| l.to_string()).collect();
        let mut frontier = hosts.clone();
        for _ in 1..4 {
            frontier = frontier
                .iter()
                .flat_map(|h| ALPHABET.iter().map(move |l| format!("{l}.{h}")))
                .collect();
            hosts.extend(frontier.iter().cloned());
        }
        hosts
    }

    /// The builtin list's rule text, cut from its source file, for the
    /// reference to parse.
    fn builtin_rules() -> &'static str {
        let src = include_str!("../../../psl/src/builtin.rs");
        let start = src.find("r#\"").expect("raw string opens") + 3;
        let end = src.rfind("\"#").expect("raw string closes");
        &src[start..end]
    }

    const WILDCARDS: &str = "*.ck\n*.x.ck\nfoo.x.ck\n!www.ck\n!y.x.ck\n";
    const KOBE: &str = "jp\nkobe.jp\ncity.kobe.jp\n*.kobe.jp\n!com\n";

    #[test]
    fn exhaustive_small_domain_matches_reference() {
        let hosts = all_hosts();
        assert_eq!(hosts.len(), 10 + 100 + 1000 + 10_000);
        let indexes = [0u8, 1].map(|salt| hashed_half(&hosts, salt));
        let builtin = PublicSuffixList::builtin();
        assert_eq!(PublicSuffixList::parse(builtin_rules()).len(), builtin.len());
        for (set, psl, reference) in [
            ("builtin", builtin, Reference::parse(builtin_rules())),
            ("wildcards", PublicSuffixList::parse(WILDCARDS), Reference::parse(WILDCARDS)),
            ("kobe", PublicSuffixList::parse(KOBE), Reference::parse(KOBE)),
        ] {
            assert_eq!(psl.len(), reference.len(), "{set}");
            for h in &hosts {
                let (first, rest) = h.split_once('.').unwrap_or((h, ""));
                let variants = [
                    h.clone(),
                    format!("{h}."),
                    format!("{h}.."),
                    h.to_ascii_uppercase(),
                    format!("{}.{rest}", first.to_ascii_uppercase()),
                    format!(".{h}"),
                    format!("{first}..{rest}"),
                ];
                for v in &variants {
                    check_host(&psl, &reference, v, &indexes)
                        .unwrap_or_else(|e| panic!("rule set {set}: {e}"));
                }
            }
        }
    }

    #[test]
    fn wildcard_counts_only_with_a_label_left_for_its_star() {
        // With `*.ck` and `*.x.ck`, `x.ck` leaves no label for the deeper
        // wildcard's star, so `*.ck` prevails with `x` as its star.
        // Taking the longest wildcard first and then discarding it for
        // want of a label would answer `ck` instead.
        let psl = PublicSuffixList::parse(WILDCARDS);
        let reference = Reference::parse(WILDCARDS);
        for m in [psl.lookup("x.ck"), reference.lookup("x.ck")] {
            let m = m.expect("x.ck has labels");
            assert_eq!((m.public_suffix.as_str(), m.registrable), ("x.ck", None));
        }
        assert_eq!(psl.registrable_domain("a.x.ck"), None);
        assert_eq!(psl.registrable_domain("r.a.x.ck").as_deref(), Some("r.a.x.ck"));
        assert_eq!(psl.registrable_domain("y.x.ck").as_deref(), Some("y.x.ck"));
        assert_eq!(psl.registrable_domain("www.ck").as_deref(), Some("www.ck"));
    }

    #[test]
    fn every_trailing_dot_is_dropped() {
        let psl = PublicSuffixList::builtin();
        let reference = Reference::parse(builtin_rules());
        for m in [psl.lookup("a.example.com.."), reference.lookup("a.example.com..")] {
            assert_eq!(m.expect("has labels").registrable.as_deref(), Some("example.com"));
        }
    }
}
