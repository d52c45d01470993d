//! Public suffix list parsing, effective-TLD+1 lookup and suffix
//! dispatch.
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
//! * [`SuffixTable::resolve`] — the serving-side rule that finds a
//!   hostname's entry in a suffix-keyed index of learned conventions:
//!   registrable domain first, then the longest indexed label suffix.
//!
//! Both run on one structure, [`SuffixTable`]: a tree of labels read
//! right to left whose nodes carry PSL rule-kind bits and, in a serving
//! index, a value per model suffix. A lookup walks a name's labels once,
//! from the TLD down, and stops at the first label the tree has no child
//! for (the design notes and measurements are in DESIGN.md §7b).
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
mod table;

pub use table::SuffixTable;

use std::borrow::Cow;
use std::sync::OnceLock;
use table::{has_empty_label, label_start, EXCEPTION, NORMAL, WILDCARD};

/// A parsed public suffix list.
///
/// The learner groups its training hostnames by registrable domain
/// through here, and serving indexes start from its rules
/// ([`SuffixTable::new`]). The rules live in one [`SuffixTable`] holding
/// no values, and a lookup is one right-to-left walk of the name's
/// labels through it: O(name length) whatever the rule count.
/// [`Self::registrable_domain`] allocates only the string it returns
/// (plus a lowercase copy of a name that holds uppercase).
#[derive(Debug, Clone, Default)]
pub struct PublicSuffixList {
    rules: SuffixTable<()>,
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
    /// It is parsed once per process and copied per call: every engine
    /// build and shard reload starts its table from it.
    pub fn builtin() -> Self {
        static BUILTIN: OnceLock<PublicSuffixList> = OnceLock::new();
        BUILTIN.get_or_init(|| Self::parse(builtin::BUILTIN_PSL)).clone()
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
        self.rules.add_rule(&text.trim_end_matches('.').to_ascii_lowercase(), kind);
    }

    /// Number of distinct explicit rules loaded (normal + wildcard +
    /// exception).
    pub fn len(&self) -> usize {
        self.rules.rule_count()
    }

    /// True if no explicit rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// `hostname` with its trailing dots dropped and lowercased, and its
    /// split: the one core behind `lookup` and `registrable_domain`.
    fn normalise_split<'h>(&self, hostname: &'h str) -> Option<(Cow<'h, str>, Split)> {
        let name = lowercase(hostname.trim_end_matches('.'));
        let split = self.split(&name)?;
        Some((name, split))
    }

    /// Splits `name` — lowercase, no trailing dot — into public suffix
    /// and registrable domain, or `None` when it is empty or has an
    /// empty label. The suffix's label count comes from one walk of the
    /// rule table ([`SuffixTable::resolve`] tracks the same rule); the
    /// offsets are then read off the name's last dots.
    fn split(&self, name: &str) -> Option<Split> {
        if has_empty_label(name) {
            return None;
        }
        let suffix_labels = self.rules.suffix_labels(name);
        // No rule claims more labels than the name has (a wildcard
        // counts only with a label to spare), so the suffix start exists.
        let mut suffix = name.len() + 1;
        for _ in 0..suffix_labels {
            suffix = label_start(name, suffix - 1);
        }
        let registrable = (suffix > 0).then(|| label_start(name, suffix - 1));
        Some(Split { suffix_labels, suffix, registrable })
    }
}

/// `name` in ASCII lowercase, borrowed unless it holds an uppercase
/// byte — real query traffic is lowercase already and costs no copy.
/// This is the form [`SuffixTable::resolve`] expects.
pub fn lowercase(name: &str) -> Cow<'_, str> {
    // Folded with no early exit, so the scan vectorises: real traffic
    // holds no uppercase, and every byte is read anyway.
    if name.bytes().fold(false, |upper, b| upper | b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Where [`SuffixTable::resolve`] found a hostname's index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch<T> {
    /// The registrable domain itself is in the index.
    Exact(T),
    /// The longest indexed label suffix, the registrable domain not
    /// being in the index.
    Fallback(T),
    /// No suffix of the hostname is in the index.
    Miss,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psl() -> PublicSuffixList {
        PublicSuffixList::builtin()
    }

    /// Resolves `lower` against the builtin rules plus `keys`, each
    /// valued by its own text.
    fn resolve_over<'k>(keys: &[&'k str], lower: &str) -> Dispatch<&'k str> {
        let mut table = SuffixTable::new(psl());
        for &k in keys {
            table.insert(k, k);
        }
        match table.resolve(lower) {
            Dispatch::Exact(&k) => Dispatch::Exact(k),
            Dispatch::Fallback(&k) => Dispatch::Fallback(k),
            Dispatch::Miss => Dispatch::Miss,
        }
    }

    #[test]
    fn dispatch_registrable_first_then_longest_suffixes() {
        let host = "p714.sgw.equinix.com";
        // The registrable domain hits: exact, even when a deeper suffix
        // is also indexed.
        assert_eq!(
            resolve_over(&["equinix.com", "sgw.equinix.com", host], host),
            Dispatch::Exact("equinix.com")
        );
        // A key below the registrable domain: a fallback.
        assert_eq!(
            resolve_over(&["sgw.equinix.com", "com"], host),
            Dispatch::Fallback("sgw.equinix.com")
        );
        // Fallback takes the longest indexed label suffix first.
        assert_eq!(
            resolve_over(&["com", host, "sgw.equinix.com"], host),
            Dispatch::Fallback(host)
        );
        // The registrable domain missing from the index: a shorter
        // suffix still answers, as a fallback.
        assert_eq!(resolve_over(&["com"], host), Dispatch::Fallback("com"));
        // Nothing covers the name: a miss.
        assert_eq!(resolve_over(&["example.org", "sgw.equinix"], host), Dispatch::Miss);
        // A public suffix alone has no registrable domain, so a hit on
        // it can only be a fallback.
        assert_eq!(resolve_over(&["com"], "com"), Dispatch::Fallback("com"));
        assert_eq!(resolve_over(&["org.nz"], "org.nz"), Dispatch::Fallback("org.nz"));
        // The empty name, and a name of dots, resolve to nothing.
        assert_eq!(resolve_over(&["", "com"], ""), Dispatch::Miss);
        assert_eq!(resolve_over(&["", "com"], ".."), Dispatch::Miss);
        // Every trailing dot is ignored.
        assert_eq!(resolve_over(&["a.b"], "a.b."), Dispatch::Exact("a.b"));
        assert_eq!(resolve_over(&["b"], "a.b.."), Dispatch::Fallback("b"));
        // A name with an empty label has no registrable domain; its
        // label suffixes, empty labels included, still fall back.
        let empty = "x.a..equinix.com";
        assert_eq!(resolve_over(&["equinix.com"], empty), Dispatch::Fallback("equinix.com"));
        assert_eq!(
            resolve_over(&["equinix.com", ".equinix.com"], empty),
            Dispatch::Fallback(".equinix.com")
        );
        assert_eq!(resolve_over(&["a..equinix.com"], empty), Dispatch::Fallback("a..equinix.com"));
        assert_eq!(resolve_over(&["equinix.com"], ".equinix.com"), Dispatch::Fallback("equinix.com"));
        // Keys are stored verbatim: one a lowercase name never spells
        // is never reached.
        for key in ["Equinix.com", "equinix.com.", "com."] {
            assert_eq!(resolve_over(&[key], host), Dispatch::Miss, "{key}");
        }
    }

    #[test]
    fn get_finds_exactly_the_inserted_keys() {
        let mut table = SuffixTable::new(psl());
        let keys = ["equinix.com", "a.b.c.d", "", "Upper.Case", "dot.", ".lead"];
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(table.insert(k, i), None, "{k}");
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(table.get(k), Some(&i), "{k}");
        }
        // Ancestors of keys and rule-only nodes hold no value.
        for k in ["com", "b.c.d", "d", "org.nz", "upper.case", "dot", "lead", "x.equinix.com"] {
            assert_eq!(table.get(k), None, "{k}");
        }
        // A second insert replaces the value and reports the old one.
        assert_eq!(table.insert("equinix.com", 9), Some(0));
        assert_eq!(table.get("equinix.com"), Some(&9));
        assert_eq!(table.resolve("p714.sgw.equinix.com"), Dispatch::Exact(&9));
    }

    #[test]
    fn resolve_follows_the_prevailing_rule() {
        // The registrable domain is the suffix of the longest rule plus
        // one label: under `*.ck` it is three labels, under the
        // exception `!www.ck` two.
        let psl = PublicSuffixList::parse("*.ck\n!www.ck\ncity.kobe.jp\n");
        let mut table = SuffixTable::new(psl);
        for k in ["foo.anything.ck", "anything.ck", "www.ck", "x.city.kobe.jp", "kobe.jp"] {
            table.insert(k, k);
        }
        assert_eq!(table.resolve("r1.foo.anything.ck"), Dispatch::Exact(&"foo.anything.ck"));
        assert_eq!(table.resolve("anything.ck"), Dispatch::Fallback(&"anything.ck"));
        assert_eq!(table.resolve("r1.www.ck"), Dispatch::Exact(&"www.ck"));
        assert_eq!(table.resolve("a.x.city.kobe.jp"), Dispatch::Exact(&"x.city.kobe.jp"));
        assert_eq!(table.resolve("a.y.city.kobe.jp"), Dispatch::Fallback(&"kobe.jp"));
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
