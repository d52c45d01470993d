//! Public suffix list parsing and effective-TLD+1 lookup.
//!
//! Hoiho groups router hostnames by *suffix*: the registrable domain under
//! which an operator names its routers (the paper, §3, determines suffixes
//! "using the Mozilla public suffix list"). This crate implements the
//! [Public Suffix List algorithm](https://publicsuffix.org/list/) — rules,
//! wildcard rules (`*.ck`), and exception rules (`!www.ck`) — and exposes
//! the lookups Hoiho needs:
//!
//! * [`PublicSuffixList::public_suffix`] — the effective TLD of a hostname
//!   (e.g. `org.nz` for `luckie.org.nz`).
//! * [`PublicSuffixList::registrable_domain`] — the suffix Hoiho groups by:
//!   the public suffix plus one label (e.g. `equinix.com` for
//!   `p714.sgw.equinix.com`).
//! * [`PublicSuffixList::dispatch`] — the serving-side rule that finds a
//!   hostname's entry in a suffix-keyed index of learned conventions.
//!
//! The list snapshot embedded in [`PublicSuffixList::builtin`] covers the
//! effective TLDs exercised by this reproduction (generic TLDs plus the
//! country-code second-level registries that appear in the paper's figures
//! and in our synthetic Internet). The parser accepts the full Mozilla file
//! format, so a complete list can be loaded with
//! [`PublicSuffixList::parse`].
//!
//! Scope notes: hostnames here are DNS PTR strings, which in practice are
//! ASCII; internationalized labels (punycode) pass through untouched as
//! opaque labels.

mod builtin;

use std::borrow::Cow;
use std::collections::HashMap;

/// Rule-kind bits of a [`PublicSuffixList`] table entry. One key may
/// carry several: `ck` and `*.ck` are both stored under `ck`.
const NORMAL: u8 = 1;
const WILDCARD: u8 = 2;
const EXCEPTION: u8 = 4;

/// A parsed public suffix list.
///
/// Every suffix decision runs through here: the learner groups its
/// training hostnames by registrable domain, and the serving engine and
/// the cluster router dispatch every uncached query with it. So a lookup
/// costs O(labels) whatever the rule count. [`Self::dispatch`] on a
/// lowercase name allocates nothing, and [`Self::registrable_domain`]
/// only the string it returns (plus a lowercase copy of a name that
/// holds uppercase). The rules live in one hash table keyed by their
/// dotted lowercase text — `org.nz` under `org.nz`, the wildcard `*.ck`
/// under `ck`, the exception `!www.ck` under `www.ck` — and a lookup
/// probes the name's label suffixes right to left as borrowed slices,
/// never deeper than the deepest key. The table keeps the std hasher,
/// randomly keyed, because the probes are hostnames from outside.
#[derive(Debug, Clone, Default)]
pub struct PublicSuffixList {
    /// Rule text → the kinds of rule stored under it.
    rules: HashMap<Box<str>, u8>,
    /// Label count of the deepest key in `rules`.
    depth: usize,
}

/// Outcome of a suffix lookup on one hostname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixMatch {
    /// Number of labels (from the right) forming the public suffix.
    pub suffix_labels: usize,
    /// The public suffix itself, e.g. `org.nz`.
    pub public_suffix: String,
    /// The registrable domain (suffix + 1 label), if the hostname has one.
    pub registrable: Option<String>,
}

/// Where the public suffix and the registrable domain of a name start,
/// as byte offsets into it.
struct Split {
    suffix_labels: usize,
    suffix: usize,
    registrable: Option<usize>,
}

impl PublicSuffixList {
    /// Builds an empty list (only the implicit `*` rule applies: the last
    /// label is the public suffix).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the built-in snapshot used throughout this reproduction.
    pub fn builtin() -> Self {
        let mut psl = Self::new();
        psl.extend_from_str(builtin::BUILTIN_PSL);
        psl
    }

    /// Parses a list in the Mozilla file format.
    ///
    /// Lines are trimmed; blank lines and lines starting with `//` are
    /// ignored. A leading `!` marks an exception rule; a leading `*.` marks
    /// a wildcard rule. Everything after the first whitespace on a line is
    /// ignored, as the specification requires.
    pub fn parse(text: &str) -> Self {
        let mut psl = Self::new();
        psl.extend_from_str(text);
        psl
    }

    /// Adds all rules from `text` (same format as [`Self::parse`]).
    pub fn extend_from_str(&mut self, text: &str) {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let rule = line.split_whitespace().next().unwrap_or("");
            if rule.is_empty() {
                continue;
            }
            self.add_rule(rule);
        }
    }

    /// Adds one rule in list syntax (`org.nz`, `*.ck`, `!www.ck`). Case
    /// and trailing dots are dropped; adding a rule twice is a no-op.
    pub fn add_rule(&mut self, rule: &str) {
        let (kind, text) = if let Some(exc) = rule.strip_prefix('!') {
            (EXCEPTION, exc)
        } else if let Some(rest) = rule.strip_prefix("*.") {
            (WILDCARD, rest)
        } else if rule == "*" {
            // The implicit rule; nothing to store.
            return;
        } else {
            (NORMAL, rule)
        };
        let key = text.trim_end_matches('.').to_ascii_lowercase();
        self.depth = self.depth.max(key.split('.').count());
        *self.rules.entry(key.into_boxed_str()).or_default() |= kind;
    }

    /// Number of distinct explicit rules loaded (normal + wildcard +
    /// exception).
    pub fn len(&self) -> usize {
        self.rules.values().map(|kinds| kinds.count_ones() as usize).sum()
    }

    /// True if no explicit rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Computes the public suffix and registrable domain of `hostname`.
    ///
    /// Returns `None` for hostnames with no labels (empty string, `"."`)
    /// or with empty labels (`a..b`). The hostname is lowercased and every
    /// trailing dot is dropped, so `a.example.com..` resolves like
    /// `a.example.com`.
    pub fn lookup(&self, hostname: &str) -> Option<SuffixMatch> {
        let (name, s) = self.normalise_split(hostname)?;
        Some(SuffixMatch {
            suffix_labels: s.suffix_labels,
            public_suffix: name[s.suffix..].to_string(),
            registrable: s.registrable.map(|i| name[i..].to_string()),
        })
    }

    /// The public suffix (effective TLD) of `hostname`, if it has labels.
    pub fn public_suffix(&self, hostname: &str) -> Option<String> {
        self.lookup(hostname).map(|m| m.public_suffix)
    }

    /// The registrable domain — public suffix plus one label. This is the
    /// "suffix" Hoiho groups hostnames by. `None` when the hostname is
    /// itself a public suffix (e.g. `com`) or unparsable.
    pub fn registrable_domain(&self, hostname: &str) -> Option<String> {
        let (name, s) = self.normalise_split(hostname)?;
        s.registrable.map(|i| name[i..].to_string())
    }

    /// Resolves a hostname against a suffix-keyed index: the PSL
    /// registrable domain first (the key the learner groups by), then
    /// every label-boundary suffix longest-first (so a model keyed
    /// deeper than — or, under PSL drift, differently from — the
    /// registrable domain is still reachable, deepest suffix winning).
    ///
    /// `probe` looks one key up in the index; the first hit wins and is
    /// reported as [`Dispatch::Exact`] when it was the registrable
    /// domain, [`Dispatch::Fallback`] otherwise. `lower` must already
    /// be lowercased (see [`lowercase`]), so every probed key is
    /// lowercase too; each is a borrowed slice of `lower`. The serving
    /// engine and the cluster router both dispatch through this, which
    /// is what keeps their suffix choice identical for any hostname.
    pub fn dispatch<T>(
        &self,
        lower: &str,
        mut probe: impl FnMut(&str) -> Option<T>,
    ) -> Dispatch<T> {
        let name = lower.trim_end_matches('.');
        let registrable = self.split(name).and_then(|s| s.registrable);
        if let Some(hit) = registrable.and_then(|i| probe(&name[i..])) {
            return Dispatch::Exact(hit);
        }
        label_suffixes(lower).find_map(probe).map_or(Dispatch::Miss, Dispatch::Fallback)
    }

    /// `hostname` with its trailing dots dropped and lowercased, and its
    /// split: the one core behind `lookup` and `registrable_domain`.
    fn normalise_split<'h>(&self, hostname: &'h str) -> Option<(Cow<'h, str>, Split)> {
        let name = lowercase(hostname.trim_end_matches('.'));
        let split = self.split(&name)?;
        Some((name, split))
    }

    /// Splits `name` — lowercase, no trailing dot — into public suffix
    /// and registrable domain, or `None` when it is empty or has an
    /// empty label.
    ///
    /// The prevailing rule is the matching rule with the most labels,
    /// except that a matching exception rule beats all others and its
    /// suffix drops the exception's leftmost label. A wildcard rule
    /// `*.ck` matches only when the name has a label left over for its
    /// star, and then claims one label more than its key.
    fn split(&self, name: &str) -> Option<Split> {
        if name.is_empty() || name.starts_with('.') || name.contains("..") {
            return None;
        }
        let mut longest = 1; // the implicit `*` rule
        let mut exception = None;
        for (labels, start) in (1..=self.depth).zip(suffix_starts(name)) {
            let Some(&kinds) = self.rules.get(&name[start..]) else { continue };
            if kinds & EXCEPTION != 0 {
                exception = Some(labels);
            }
            if kinds & NORMAL != 0 {
                longest = longest.max(labels);
            }
            if kinds & WILDCARD != 0 && start > 0 {
                longest = longest.max(labels + 1);
            }
        }
        // A pathological exception (`!com`) would leave zero labels; every
        // name keeps at least one. No rule can claim more labels than the
        // name has: probes stop at its whole length, and a wildcard counts
        // only with a label to spare.
        let suffix_labels = exception.map_or(longest, |labels| labels - 1).max(1);
        let mut starts = suffix_starts(name).skip(suffix_labels - 1);
        let suffix = starts.next()?;
        Some(Split { suffix_labels, suffix, registrable: starts.next() })
    }
}

/// `name` in ASCII lowercase, borrowed unless it holds an uppercase
/// byte — real query traffic is lowercase already and costs no copy.
/// This is the form [`PublicSuffixList::dispatch`] expects.
pub fn lowercase(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Where [`PublicSuffixList::dispatch`] found a hostname's index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch<T> {
    /// The registrable domain itself is in the index.
    Exact(T),
    /// A label-boundary suffix probe found the entry instead.
    Fallback(T),
    /// No suffix of the hostname is in the index.
    Miss,
}

/// Byte offsets at which the label suffixes of `name` start, shortest
/// (the last label) first: `a.b.c` → 4, 2, 0.
fn suffix_starts(name: &str) -> impl Iterator<Item = usize> + '_ {
    let dots = name.bytes().enumerate().rev().filter(|&(_, b)| b == b'.');
    dots.map(|(i, _)| i + 1).chain(std::iter::once(0))
}

/// Iterates the suffixes of `hostname` at label boundaries, longest
/// (the whole name) first: `a.b.c` → `a.b.c`, `b.c`, `c`.
///
/// [`PublicSuffixList::dispatch`] probes these when the PSL-derived
/// registrable domain misses — a model may key a suffix deeper than
/// (or, with a different PSL snapshot, different from) the registrable
/// domain the local list computes. Trailing dots are ignored; the empty
/// hostname yields nothing.
fn label_suffixes(hostname: &str) -> impl Iterator<Item = &str> {
    let name = hostname.trim_end_matches('.');
    let whole = (!name.is_empty()).then_some(name);
    whole.into_iter().chain(
        name.char_indices()
            .filter(|&(_, c)| c == '.')
            .map(move |(i, _)| &name[i + 1..])
            .filter(|s| !s.is_empty()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psl() -> PublicSuffixList {
        PublicSuffixList::builtin()
    }

    #[test]
    fn label_suffixes_longest_first() {
        let got: Vec<&str> = label_suffixes("p714.sgw.equinix.com").collect();
        assert_eq!(got, ["p714.sgw.equinix.com", "sgw.equinix.com", "equinix.com", "com"]);
        assert_eq!(label_suffixes("com").collect::<Vec<_>>(), ["com"]);
        assert_eq!(label_suffixes("").count(), 0);
        // Trailing dot ignored; empty tail labels skipped.
        assert_eq!(label_suffixes("a.b.").collect::<Vec<_>>(), ["a.b", "b"]);
    }

    /// Dispatches `lower` against an index holding `keys`, returning the
    /// outcome (carrying the hit key) and every key probed, in order.
    fn dispatch_over(keys: &[&str], lower: &str) -> (Dispatch<String>, Vec<String>) {
        let mut probed = Vec::new();
        let d = psl().dispatch(lower, |k| {
            probed.push(k.to_string());
            keys.contains(&k).then(|| k.to_string())
        });
        (d, probed)
    }

    #[test]
    fn dispatch_registrable_first_then_longest_suffixes() {
        let host = "p714.sgw.equinix.com";
        // The registrable domain hits: exact, after a single probe,
        // even when a deeper suffix is also indexed.
        let (d, probed) = dispatch_over(&["equinix.com", "sgw.equinix.com"], host);
        assert_eq!(d, Dispatch::Exact("equinix.com".to_string()));
        assert_eq!(probed, ["equinix.com"]);
        // A suffix keyed deeper than the registrable domain: fallback,
        // found longest-first.
        let (d, probed) = dispatch_over(&["sgw.equinix.com", "com"], host);
        assert_eq!(d, Dispatch::Fallback("sgw.equinix.com".to_string()));
        assert_eq!(probed, ["equinix.com", "p714.sgw.equinix.com", "sgw.equinix.com"]);
        // The registrable domain missing from the index: a shorter
        // suffix still answers, as a fallback.
        let (d, _) = dispatch_over(&["com"], host);
        assert_eq!(d, Dispatch::Fallback("com".to_string()));
        // Nothing covers the name: every key probed, then a miss.
        let (d, probed) = dispatch_over(&["example.org"], host);
        assert_eq!(d, Dispatch::Miss);
        assert_eq!(
            probed,
            ["equinix.com", "p714.sgw.equinix.com", "sgw.equinix.com", "equinix.com", "com"]
        );
        // A public suffix alone has no registrable domain, so a hit on
        // it can only be a fallback.
        let (d, probed) = dispatch_over(&["com"], "com");
        assert_eq!(d, Dispatch::Fallback("com".to_string()));
        assert_eq!(probed, ["com"]);
        // The empty name probes nothing.
        let (d, probed) = dispatch_over(&["", "com"], "");
        assert_eq!(d, Dispatch::Miss);
        assert!(probed.is_empty(), "{probed:?}");
    }

    #[test]
    fn simple_tld() {
        let p = psl();
        assert_eq!(p.public_suffix("equinix.com").as_deref(), Some("com"));
        assert_eq!(
            p.registrable_domain("p714.sgw.equinix.com").as_deref(),
            Some("equinix.com")
        );
    }

    #[test]
    fn second_level_registry() {
        let p = psl();
        assert_eq!(p.public_suffix("luckie.org.nz").as_deref(), Some("org.nz"));
        assert_eq!(
            p.registrable_domain("www.luckie.org.nz").as_deref(),
            Some("luckie.org.nz")
        );
        // The paper's akl-ix.nz counts as suffix+1 under .nz.
        assert_eq!(
            p.registrable_domain("as24940.akl-ix.nz").as_deref(),
            Some("akl-ix.nz")
        );
    }

    #[test]
    fn uy_and_ch_examples_from_paper() {
        let p = psl();
        assert_eq!(
            p.registrable_domain("mlg4bras1-be127-605.antel.net.uy").as_deref(),
            Some("antel.net.uy")
        );
        assert_eq!(
            p.registrable_domain("ge0-2.01.p.ost.ch.as15576.nts.ch").as_deref(),
            Some("nts.ch")
        );
    }

    #[test]
    fn hostname_equal_to_suffix_has_no_registrable() {
        let p = psl();
        assert_eq!(p.registrable_domain("com"), None);
        assert_eq!(p.registrable_domain("org.nz"), None);
        assert_eq!(p.public_suffix("org.nz").as_deref(), Some("org.nz"));
    }

    #[test]
    fn unknown_tld_uses_implicit_star_rule() {
        let p = psl();
        assert_eq!(p.public_suffix("router.example.zzz").as_deref(), Some("zzz"));
        assert_eq!(
            p.registrable_domain("router.example.zzz").as_deref(),
            Some("example.zzz")
        );
    }

    #[test]
    fn wildcard_rule() {
        let mut p = PublicSuffixList::new();
        p.extend_from_str("*.ck\n!www.ck\n");
        assert_eq!(p.public_suffix("anything.ck").as_deref(), Some("anything.ck"));
        assert_eq!(
            p.registrable_domain("r1.foo.anything.ck").as_deref(),
            Some("foo.anything.ck")
        );
        // The exception rule makes www.ck registrable under ck.
        assert_eq!(p.public_suffix("www.ck").as_deref(), Some("ck"));
        assert_eq!(p.registrable_domain("www.ck").as_deref(), Some("www.ck"));
        assert_eq!(p.registrable_domain("r1.www.ck").as_deref(), Some("www.ck"));
    }

    #[test]
    fn comments_blank_lines_and_inline_junk_ignored() {
        let p = PublicSuffixList::parse(
            "// a comment\n\n  org.nz  trailing junk\n// another\nco.nz\n",
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p.public_suffix("x.org.nz").as_deref(), Some("org.nz"));
    }

    #[test]
    fn case_and_trailing_dot_normalised() {
        let p = psl();
        assert_eq!(
            p.registrable_domain("P714.SGW.Equinix.COM.").as_deref(),
            Some("equinix.com")
        );
    }

    #[test]
    fn degenerate_names_rejected() {
        let p = psl();
        assert_eq!(p.lookup(""), None);
        assert_eq!(p.lookup("."), None);
        assert_eq!(p.lookup("a..b.com"), None);
    }

    #[test]
    fn longest_rule_wins() {
        let mut p = PublicSuffixList::new();
        p.extend_from_str("jp\nkobe.jp\ncity.kobe.jp\n");
        assert_eq!(
            p.public_suffix("r.foo.city.kobe.jp").as_deref(),
            Some("city.kobe.jp")
        );
        assert_eq!(
            p.registrable_domain("r.foo.city.kobe.jp").as_deref(),
            Some("foo.city.kobe.jp")
        );
    }

    #[test]
    fn builtin_is_nonempty_and_idempotent() {
        let p = psl();
        assert!(p.len() > 50);
        let mut again = PublicSuffixList::builtin();
        again.extend_from_str(builtin::BUILTIN_PSL);
        assert_eq!(p.len(), again.len());
    }

    #[test]
    fn dedup_across_reloads() {
        let mut p = PublicSuffixList::parse("org.nz\n");
        p.extend_from_str("org.nz\nco.nz\n");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn lowercase_borrows_unless_uppercase() {
        assert!(matches!(lowercase("p714.sgw.equinix.com"), Cow::Borrowed(_)));
        assert!(matches!(lowercase(""), Cow::Borrowed("")));
        assert_eq!(lowercase("P714.SGW.Equinix.com"), "p714.sgw.equinix.com");
    }

    #[test]
    fn single_label_hostname_on_known_tld() {
        let p = psl();
        // "com" alone: the whole name is the suffix.
        let m = p.lookup("com").unwrap();
        assert_eq!(m.suffix_labels, 1);
        assert_eq!(m.registrable, None);
    }
}
