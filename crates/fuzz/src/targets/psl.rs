//! Public suffix list: the label-table lookups and `resolve` vs the
//! linear-scan algorithm the table replaced.
//!
//! Case layout: rule lines in Mozilla list syntax, a blank separator
//! line, then host lines. Oracle, for every host:
//!
//! 1. `lookup`, `public_suffix` and `registrable_domain` equal the
//!    [`Reference`] lookup (and both lists count the same rules);
//! 2. [`SuffixTable::resolve`] of the lowercased host, over a table of
//!    the case's rules plus an index of keys, returns the same outcome
//!    and hit as probing the reference registrable domain, then the
//!    host's label suffixes longest first. The indexes are hash-chosen
//!    halves of every label suffix of the case's hosts plus spellings
//!    no lowercase name reaches (uppercase, a trailing dot, the empty
//!    key), so one case reaches exact, fallback and miss outcomes.
//!
//! Each index's table is built once per case, and [`SuffixTable::get`]
//! must find exactly the keys inserted into it among every candidate.

use super::Target;
use crate::corpus::case_hash;
use crate::input::FuzzInput;
use hoiho_psl::{lowercase, Dispatch, PublicSuffixList, SuffixMatch, SuffixTable};
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
        let mut keys: Vec<String> = vec![String::new()];
        for h in &hosts {
            for k in label_suffixes_of(&lowercase(h)) {
                keys.extend([k.to_string(), k.to_ascii_uppercase(), format!("{k}.")]);
            }
        }
        let indexes = [0u8, 1, 2].map(|salt| Index::new(&psl, hashed_half(&keys, salt)));
        for index in &indexes {
            index.check_get(&keys)?;
        }
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

/// One suffix index, as the oracle sees it (its keys) and as serving
/// holds it (a table over a case's rules, each key valued by itself).
struct Index {
    keys: HashSet<String>,
    /// Byte length of the longest key.
    longest: usize,
    table: SuffixTable<String>,
}

impl Index {
    fn new(psl: &PublicSuffixList, keys: HashSet<String>) -> Index {
        let mut table = SuffixTable::new(psl.clone());
        for k in &keys {
            table.insert(k, k.clone());
        }
        let longest = keys.iter().map(String::len).max().unwrap_or(0);
        Index { keys, longest, table }
    }

    /// `get` finds each candidate's own text exactly when it was
    /// inserted.
    fn check_get(&self, candidates: &[String]) -> Result<(), String> {
        for k in candidates {
            let (got, want) = (self.table.get(k), self.keys.get(k));
            if got != want {
                return Err(format!("get({k:?}) = {got:?}, inserted {want:?}"));
            }
        }
        Ok(())
    }
}

/// Runs both oracle checks on one host.
fn check_host(
    psl: &PublicSuffixList,
    reference: &Reference,
    host: &str,
    indexes: &[Index],
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
        let got = index.table.resolve(&lower);
        let want = reference_dispatch(reference, &lower, index);
        if got != want {
            return Err(format!("resolve({lower:?}) = {got:?}, reference {want:?}"));
        }
    }
    Ok(())
}

/// Dispatch as specified: the reference registrable domain if the index
/// holds it, else the first indexed label suffix, longest first.
fn reference_dispatch<'i>(
    reference: &Reference,
    lower: &str,
    index: &'i Index,
) -> Dispatch<&'i String> {
    if let Some(rd) = reference.lookup(lower).and_then(|m| m.registrable) {
        if let Some(k) = index.keys.get(&rd) {
            return Dispatch::Exact(k);
        }
    }
    label_suffixes_of(lower)
        // A suffix longer than every key equals none: skip hashing it.
        .filter(|k| k.len() <= index.longest)
        .find_map(|k| index.keys.get(k))
        .map_or(Dispatch::Miss, Dispatch::Fallback)
}

/// Every non-empty suffix of `name` (trailing dots dropped) that starts
/// at a label boundary, longest first.
fn label_suffixes_of(name: &str) -> impl Iterator<Item = &str> {
    let name = name.trim_end_matches('.');
    let starts = std::iter::once(0).chain(name.match_indices('.').map(|(dot, _)| dot + 1));
    starts.map(move |start| &name[start..]).filter(|s| !s.is_empty())
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
        let halves = [0u8, 1].map(|salt| hashed_half(&hosts, salt));
        let builtin = PublicSuffixList::builtin();
        assert_eq!(PublicSuffixList::parse(builtin_rules()).len(), builtin.len());
        for (set, psl, reference) in [
            ("builtin", builtin, Reference::parse(builtin_rules())),
            ("wildcards", PublicSuffixList::parse(WILDCARDS), Reference::parse(WILDCARDS)),
            ("kobe", PublicSuffixList::parse(KOBE), Reference::parse(KOBE)),
        ] {
            assert_eq!(psl.len(), reference.len(), "{set}");
            let indexes = halves.clone().map(|keys| Index::new(&psl, keys));
            for index in &indexes {
                index.check_get(&hosts).unwrap_or_else(|e| panic!("rule set {set}: {e}"));
            }
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

    /// Rules stacked on `a` labels, down to one 20 labels deep, so the
    /// walk meets every rule kind along the hostile names below, and
    /// two exceptions on one path, of which the deeper prevails.
    const DEEP: &str = "a\n*.a.a\n!a.a.a.a\n!a.a.a.a.a.a\na.a.a.a.a.a.a.a.a.a.a.a.a.a.a.a.a.a.a.a\n";

    /// Worst-case shapes for the walk, every one through [`check_host`]:
    /// a request line of `MAX_LINE` bytes in one-byte labels, the DNS
    /// maximum name, 63-byte labels, an index key 20 labels deep, and
    /// empty labels and trailing dots on each.
    #[test]
    fn hostile_shapes_match_reference() {
        let huge = vec!["a"; 32_767].join(".");
        assert_eq!(huge.len(), 65_533);
        assert!(huge.len() <= hoiho_serve::server::MAX_LINE);
        let dns_max = vec!["a"; 127].join(".");
        assert_eq!(dns_max.len(), 253);
        let wide = ["x", "y", "z"].map(|c| c.repeat(63)).join(".") + ".com";
        let deep = vec!["a"; 20].join(".");
        let mut hosts = vec![huge, dns_max, wide.clone(), format!("r.{deep}"), deep.clone()];
        for h in hosts.clone() {
            hosts.extend([
                format!("{h}."),
                format!("{h}..."),
                format!(".{h}"),
                format!("a..{h}"),
                h.replacen('.', "..", 1),
                h.to_ascii_uppercase(),
            ]);
        }
        // Keys from one label to 21 deep, the wide name's suffixes, and
        // keys spelled with empty labels.
        let mut keys: Vec<String> = (1..=21).map(|n| vec!["a"; n].join(".")).collect();
        keys.extend(label_suffixes_of(&wide).map(String::from));
        keys.extend(["..a", ".a", "a..a", "a.a..a.a", ""].map(String::from));
        let halves = [0u8, 1].map(|salt| hashed_half(&keys, salt));
        let all: HashSet<String> = keys.iter().cloned().collect();
        for (set, rules) in
            [("builtin", builtin_rules()), ("wildcards", WILDCARDS), ("kobe", KOBE), ("deep", DEEP)]
        {
            let (psl, reference) = (PublicSuffixList::parse(rules), Reference::parse(rules));
            let indexes = [all.clone(), halves[0].clone(), halves[1].clone()]
                .map(|keys| Index::new(&psl, keys));
            for index in &indexes {
                index.check_get(&keys).unwrap_or_else(|e| panic!("rule set {set}: {e}"));
            }
            for h in &hosts {
                check_host(&psl, &reference, h, &indexes)
                    .unwrap_or_else(|e| panic!("rule set {set}, {}-byte host: {e}", h.len()));
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
