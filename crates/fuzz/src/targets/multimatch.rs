//! Multi-pattern dispatch: [`MultiMatcher`] over a pool of compiled
//! regexes vs per-regex scans.
//!
//! Case layout: pattern lines, then a blank separator line, then host
//! lines. Oracle, over the parse-accepted patterns:
//!
//! 1. dispatch is superset-exact — every program that matches a host
//!    must be dispatched for it (a skipped program must not match);
//! 2. dispatch never repeats or invents a program index.

use super::{Target, HOSTCHARS};
use crate::input::FuzzInput;
use hoiho::regex::{CompiledRegex, MultiMatcher, Regex};

/// Grammar pieces for pool patterns — literal-heavy (dispatch lives on
/// literals), plus classes and a capture so programs stay realistic.
const PIECES: &[&str] = &[
    "as",
    "ix",
    "core",
    "xe-",
    "\\.net",
    "\\.",
    "-",
    "(\\d+)",
    "\\d+",
    "[^\\.]+",
    "[a-z]+",
    "[a-z\\d]+",
    "(?:eth|gig|ae)",
    "(?:sea|nyc)?",
];

pub struct MultiMatchTarget;

impl Target for MultiMatchTarget {
    fn name(&self) -> &'static str {
        "multimatch"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        let mut case = String::new();
        for _ in 0..input.range(0, 8) {
            let mut pattern = String::new();
            if input.chance(50) {
                pattern.push('^');
            }
            for _ in 0..input.range(1, 5) {
                pattern.push_str(input.pick(PIECES) as &str);
            }
            if input.chance(50) {
                pattern.push('$');
            }
            case.push_str(&pattern);
            case.push('\n');
        }
        case.push('\n'); // blank separator: patterns above, hosts below
        for _ in 0..input.range(1, 8) {
            // Host text reuses the literal pieces half the time so the
            // automaton actually fires, plus random hostname-ish noise.
            let mut host = String::new();
            for _ in 0..input.range(0, 4) {
                if input.chance(50) {
                    let piece = input.pick(PIECES) as &str;
                    host.extend(piece.chars().filter(|c| HOSTCHARS.contains(*c)));
                } else {
                    host.push_str(&input.token(HOSTCHARS, 0, 12));
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
        let pool: Vec<Regex> = lines
            .by_ref()
            .take_while(|l| !l.is_empty())
            .filter_map(|l| Regex::parse(l).ok()) // rejection is a pass
            .collect();
        let programs: Vec<CompiledRegex> = pool.iter().map(CompiledRegex::compile).collect();
        let matcher = MultiMatcher::build(&programs);
        let mut scratch = matcher.scratch();
        for host in lines {
            let dispatched = matcher.dispatch(host.as_bytes(), &mut scratch).to_vec();
            let mut sorted = dispatched.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != dispatched.len() {
                return Err(format!("duplicate dispatch on {host:?}: {dispatched:?}"));
            }
            if sorted.last().is_some_and(|&ri| ri as usize >= programs.len()) {
                return Err(format!("dispatch index out of range on {host:?}: {dispatched:?}"));
            }
            for (ri, p) in programs.iter().enumerate() {
                if p.is_match(host) && !dispatched.contains(&(ri as u32)) {
                    return Err(format!(
                        "false negative: {} matches {host:?} but was not dispatched",
                        pool[ri]
                    ));
                }
            }
        }
        Ok(())
    }
}
