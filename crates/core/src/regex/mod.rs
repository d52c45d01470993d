//! A regular-expression engine for the dialect Hoiho emits.
//!
//! Hoiho never needs (or wants) full PCRE: the regexes it learns are built
//! from a small, fixed vocabulary (paper §3.2–§3.5):
//!
//! * anchors `^` and `$` (the start anchor is optional — conventions that
//!   embed an ASN at the end of a hostname are matched from any offset,
//!   e.g. `as(\d+)\.nts\.ch$` in Figure 2);
//! * literal strings (with `\.` escaping);
//! * the ASN capture `(\d+)`;
//! * non-capturing digit runs `\d+`;
//! * punctuation-exclusion components `[^\.]+`, `[^-]+`, `[^\.-]+`;
//! * character-class components `[a-z]+`, `[a-z\d]+`, `[a-z-]+`,
//!   `[\d-]+`, `[a-z\d-]+`;
//! * the wildcard `.+` (at most one per regex by construction);
//! * string alternations `(?:p|s)` and optional alternations `(?:p|s)?`.
//!
//! The engine is a backtracking matcher over the element AST. The
//! dialect has no nested repetition, yet adjacent variable-width
//! components still backtrack combinatorially: the worst case grows
//! steeply with each such component, and no bound is enforced. A
//! 253-byte name (the DNS maximum, `"1-"`×126 + `"ax"`) against `^`,
//! five `[a-z\d-]+-` components and `(\d+)x$` took 7.3 s on a 2-vCPU
//! host (four components: 355 ms). Model artifacts and hostnames both
//! reach the matcher from outside; ROADMAP.md's "A proven worst case
//! for every untrusted input" tracks the missing bound. The AST
//! round-trips through the textual form ([`Regex::parse`] /
//! `Display`), which the property tests pin down.

//!
//! For hot paths (learner candidate evaluation, the serving tier) the
//! AST can be lowered once into a [`CompiledRegex`] — a flat program
//! with precomputed byte-class bitmasks and literal prefilters that is
//! bit-identical to the interpreter but allocation-free per call. When
//! a whole *pool* of compiled programs is evaluated against shared
//! hostnames, a [`MultiMatcher`] (an Aho–Corasick automaton over every
//! program's required literals) scans each hostname once and dispatches
//! only to the programs that could possibly match it; the learner's
//! candidate screen decides per pool whether the automaton pays for
//! itself.

mod ast;
mod compiled;
mod matcher;
mod multi;
mod parse;

pub use ast::{AltGroup, CharClass, Elem, Regex};
pub use compiled::CompiledRegex;
pub use matcher::MatchResult;
pub(crate) use multi::screen;
pub use multi::{DispatchScratch, MultiMatcher, DISPATCH_MIN_CELLS};
pub use parse::ParseError;

#[cfg(test)]
mod tests;
