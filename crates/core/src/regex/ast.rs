//! Element AST for the Hoiho regex dialect, plus rendering to the textual
//! form. Parsing lives in [`super::parse`], matching in [`super::matcher`].

use super::compiled::CompiledRegex;
use std::fmt;
use std::sync::OnceLock;

/// A character class over the hostname alphabet.
///
/// Hostnames are lowercased before matching, so the only populations that
/// matter are lowercase letters, digits, and the hyphen (underscores are
/// rare in PTR records but tolerated as literals). A class with only
/// `digit` set renders as `\d` and is normalised to [`Elem::Digits`] when
/// used as a standalone component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CharClass {
    /// Matches `a`–`z`.
    pub lower: bool,
    /// Matches `0`–`9`.
    pub digit: bool,
    /// Matches `-`.
    pub hyphen: bool,
}

impl CharClass {
    /// The class containing nothing; matches no character.
    pub const EMPTY: CharClass = CharClass { lower: false, digit: false, hyphen: false };

    /// Builds the smallest class containing every character of `s`, or
    /// `None` if `s` contains a character outside the class alphabet.
    pub fn covering(s: &str) -> Option<CharClass> {
        let mut c = CharClass::EMPTY;
        for ch in s.chars() {
            match ch {
                'a'..='z' => c.lower = true,
                '0'..='9' => c.digit = true,
                '-' => c.hyphen = true,
                _ => return None,
            }
        }
        Some(c)
    }

    /// Union of two classes.
    pub fn union(self, other: CharClass) -> CharClass {
        CharClass {
            lower: self.lower || other.lower,
            digit: self.digit || other.digit,
            hyphen: self.hyphen || other.hyphen,
        }
    }

    /// True if `ch` belongs to the class.
    pub fn contains(&self, ch: u8) -> bool {
        (self.lower && ch.is_ascii_lowercase())
            || (self.digit && ch.is_ascii_digit())
            || (self.hyphen && ch == b'-')
    }

    /// True if no population is set.
    pub fn is_empty(&self) -> bool {
        !(self.lower || self.digit || self.hyphen)
    }

    /// Renders the class body (without the `[` `]+` wrapper).
    pub(crate) fn body(&self) -> String {
        let mut s = String::new();
        if self.lower {
            s.push_str("a-z");
        }
        if self.digit {
            s.push_str("\\d");
        }
        if self.hyphen {
            s.push('-');
        }
        s
    }
}

/// A string alternation `(?:a|b|c)`, optionally suffixed `?`.
///
/// Phase 2 (§3.3) merges regexes that differ by one simple string into one
/// of these; an empty variant (a regex lacking the string entirely) makes
/// the group optional.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AltGroup {
    /// The literal options, sorted and non-empty.
    pub opts: Vec<String>,
    /// True when the group may match the empty string (`(?:a|b)?`).
    pub optional: bool,
}

impl AltGroup {
    /// Builds a group from raw variants; empty variants set `optional`.
    /// Returns `None` when no non-empty variant remains.
    pub fn from_variants<I: IntoIterator<Item = String>>(variants: I) -> Option<AltGroup> {
        let mut optional = false;
        let mut opts: Vec<String> = Vec::new();
        for v in variants {
            if v.is_empty() {
                optional = true;
            } else {
                opts.push(v);
            }
        }
        opts.sort();
        opts.dedup();
        if opts.is_empty() {
            None
        } else {
            Some(AltGroup { opts, optional })
        }
    }
}

/// One element of a dialect regex.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Elem {
    /// `^` — when present, the match must begin at the hostname start.
    StartAnchor,
    /// `$` — when present, the match must end at the hostname end.
    EndAnchor,
    /// A literal string; `.` is escaped on render.
    Lit(String),
    /// `(\d+)` — the ASN capture group.
    CaptureDigits,
    /// `\d+` — a non-captured digit run.
    Digits,
    /// `[^X]+` — one or more characters excluding those in the set.
    NotIn(String),
    /// `[...]+` — one or more characters from a class.
    Class(CharClass),
    /// `.+` — one or more of any character.
    Any,
    /// `(?:a|b)` / `(?:a|b)?` — a literal alternation.
    Alt(AltGroup),
}

impl Elem {
    /// True for the variable-width components the learner may generalise
    /// or specialise (everything except anchors, literals and alts).
    pub fn is_component(&self) -> bool {
        matches!(
            self,
            Elem::CaptureDigits | Elem::Digits | Elem::NotIn(_) | Elem::Class(_) | Elem::Any
        )
    }
}

/// A regex in the Hoiho dialect: a sequence of [`Elem`]s.
///
/// Invariants maintained by the constructors and the learner:
/// * `StartAnchor` appears only at index 0; `EndAnchor` only at the end;
/// * adjacent `Lit` elements are coalesced;
/// * at most one `Any` element.
///
/// The compiled program cache is identity-invisible: two regexes with
/// equal `elems` are equal, hash alike, and order alike whether or not
/// either has compiled yet, and a clone starts with a cold cache.
pub struct Regex {
    pub(crate) elems: Vec<Elem>,
    /// Lazily compiled bitmask program, filled on first match call (see
    /// [`Regex::program`]). Excluded from all derived-trait semantics.
    /// Boxed so a cold cache costs one pointer: candidate generation
    /// creates (and moves) orders of magnitude more regexes than it
    /// ever matches, and an inline `CompiledRegex` quintuples
    /// `size_of::<Regex>`.
    program: OnceLock<Box<CompiledRegex>>,
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Regex").field("elems", &self.elems).finish()
    }
}

impl Clone for Regex {
    fn clone(&self) -> Regex {
        Regex { elems: self.elems.clone(), program: OnceLock::new() }
    }
}

impl PartialEq for Regex {
    fn eq(&self, other: &Regex) -> bool {
        self.elems == other.elems
    }
}

impl Eq for Regex {}

impl std::hash::Hash for Regex {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.elems.hash(state);
    }
}

impl PartialOrd for Regex {
    fn partial_cmp(&self, other: &Regex) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Regex {
    fn cmp(&self, other: &Regex) -> std::cmp::Ordering {
        self.elems.cmp(&other.elems)
    }
}

impl Regex {
    /// Builds a regex from elements, normalising literals and anchors.
    pub fn new(elems: Vec<Elem>) -> Regex {
        let mut out: Vec<Elem> = Vec::with_capacity(elems.len());
        for e in elems {
            match (&e, out.last_mut()) {
                (Elem::Lit(b), Some(Elem::Lit(a))) => a.push_str(b),
                (Elem::Lit(s), _) if s.is_empty() => {}
                _ => out.push(e),
            }
        }
        Regex { elems: out, program: OnceLock::new() }
    }

    /// The compiled bitmask program for this regex, compiled on first use
    /// and cached for the regex's lifetime. Every matching entry point
    /// ([`Regex::find`], [`Regex::find_trace`], [`Regex::is_match`],
    /// [`Regex::extract`]) routes through this cache, so no caller can
    /// fall back to the tree-walking interpreter by forgetting to
    /// compile; the interpreter survives only as the explicitly named
    /// differential oracle ([`Regex::find_interpreted`]).
    pub fn program(&self) -> &CompiledRegex {
        self.program.get_or_init(|| Box::new(CompiledRegex::compile(self)))
    }

    /// The element sequence.
    pub fn elems(&self) -> &[Elem] {
        &self.elems
    }

    /// True if the regex contains the `^` anchor.
    pub fn anchored_start(&self) -> bool {
        matches!(self.elems.first(), Some(Elem::StartAnchor))
    }

    /// True if the regex contains the `$` anchor.
    pub fn anchored_end(&self) -> bool {
        matches!(self.elems.last(), Some(Elem::EndAnchor))
    }

    /// Number of capture groups (`(\d+)`) in the regex.
    pub fn capture_count(&self) -> usize {
        self.elems.iter().filter(|e| matches!(e, Elem::CaptureDigits)).count()
    }

    /// Index of the first capture element, if any.
    pub fn capture_index(&self) -> Option<usize> {
        self.elems.iter().position(|e| matches!(e, Elem::CaptureDigits))
    }

    /// How much literal text the regex memorises: total characters in
    /// literals and alternation options. Used as an anti-over-fitting
    /// tie-break — between two regexes with identical evaluation, the
    /// one that memorised less training text generalises better (the
    /// paper's stated goal of regexes "a human might have built").
    pub fn memorised_chars(&self) -> usize {
        self.elems
            .iter()
            .map(|e| match e {
                Elem::Lit(l) => l.len(),
                Elem::Alt(a) => a.opts.iter().map(|o| o.len()).sum(),
                _ => 0,
            })
            .sum()
    }

    /// Aggregate component strength: `.+` (0) < `[^X]+` (1) < class (2)
    /// < `\d+` (3). On otherwise-equal regexes, stronger components
    /// capture more structure (the point of phase 3).
    pub fn component_strength(&self) -> usize {
        self.elems
            .iter()
            .map(|e| match e {
                Elem::Any => 0,
                Elem::NotIn(_) => 1,
                Elem::Class(_) => 2,
                Elem::Digits => 3,
                _ => 0,
            })
            .sum()
    }
}

/// Escapes a literal for the textual form. Every character the parser
/// treats as syntax — in the top level, inside `[^...]`, or inside
/// `(?:...)` — is rendered as `\c`, which all three contexts read back
/// as the literal character. Hostname-alphabet characters pass as-is.
fn escape_lit(s: &str, out: &mut String) {
    for ch in s.chars() {
        if matches!(
            ch,
            '.' | '\\' | '^' | '$' | '(' | ')' | '[' | ']' | '|' | '?' | '+' | '*'
        ) {
            out.push('\\');
        }
        out.push(ch);
    }
}

/// Renders elements in the dialect's concrete syntax.
fn render_elems(elems: &[Elem], s: &mut String) {
    for e in elems {
        match e {
            Elem::StartAnchor => s.push('^'),
            Elem::EndAnchor => s.push('$'),
            Elem::Lit(l) => escape_lit(l, s),
            Elem::CaptureDigits => s.push_str("(\\d+)"),
            Elem::Digits => s.push_str("\\d+"),
            Elem::NotIn(set) => {
                s.push_str("[^");
                escape_lit(set, s);
                s.push_str("]+");
            }
            Elem::Class(c) => {
                if c.digit && !c.lower && !c.hyphen {
                    s.push_str("\\d+");
                } else {
                    s.push('[');
                    s.push_str(&c.body());
                    s.push_str("]+");
                }
            }
            Elem::Any => s.push_str(".+"),
            Elem::Alt(a) => {
                s.push_str("(?:");
                for (i, o) in a.opts.iter().enumerate() {
                    if i > 0 {
                        s.push('|');
                    }
                    escape_lit(o, s);
                }
                s.push(')');
                if a.optional {
                    s.push('?');
                }
            }
        }
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        render_elems(&self.elems, &mut s);
        f.write_str(&s)
    }
}
