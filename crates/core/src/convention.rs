//! Naming conventions: ordered sets of regexes for one suffix.
//!
//! A *naming convention* (NC) is what Hoiho learns per suffix — one or
//! more regexes, tried in order, the first match providing the extracted
//! ASN (§3.5). Conventions serialize to a plain text form (suffix header
//! followed by indented regexes) so learned sets can be published and
//! reloaded, mirroring the paper's released data supplement.

use crate::regex::Regex;
use std::fmt;

/// A learned naming convention for one suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamingConvention {
    /// The registrable-domain suffix this NC applies to.
    pub suffix: String,
    /// The regexes, in evaluation (rank) order.
    pub regexes: Vec<Regex>,
}

impl NamingConvention {
    /// Builds a convention from parts.
    pub fn new(suffix: &str, regexes: Vec<Regex>) -> NamingConvention {
        NamingConvention { suffix: suffix.to_string(), regexes }
    }

    /// Number of regexes in the convention.
    pub fn len(&self) -> usize {
        self.regexes.len()
    }

    /// True if the convention has no regexes.
    pub fn is_empty(&self) -> bool {
        self.regexes.is_empty()
    }

    /// Extracts the embedded ASN from `hostname` (lowercased by the
    /// caller or not — matching is done on a lowercased copy).
    ///
    /// Returns `None` when no regex matches or the captured digits exceed
    /// the 32-bit ASN space.
    pub fn extract(&self, hostname: &str) -> Option<u32> {
        let lower = hostname.to_ascii_lowercase();
        for r in &self.regexes {
            if let Some(digits) = r.extract(&lower) {
                return digits.parse::<u32>().ok();
            }
        }
        None
    }

    /// True if any regex in the convention matches `hostname`.
    pub fn matches(&self, hostname: &str) -> bool {
        let lower = hostname.to_ascii_lowercase();
        self.regexes.iter().any(|r| r.is_match(&lower))
    }
}

impl fmt::Display for NamingConvention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.suffix)?;
        for r in &self.regexes {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// Parses a file of conventions: unindented lines start a new suffix,
/// indented lines add regexes to the current one.
pub fn parse_conventions(text: &str) -> Result<Vec<NamingConvention>, String> {
    let mut out: Vec<NamingConvention> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() || raw.trim_start().starts_with('#') {
            continue;
        }
        let indented = raw.starts_with(' ') || raw.starts_with('\t');
        let line = raw.trim();
        if indented {
            let Some(cur) = out.last_mut() else {
                return Err(format!("line {}: regex before any suffix", lineno + 1));
            };
            let r = Regex::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            cur.regexes.push(r);
        } else {
            out.push(NamingConvention::new(line, Vec::new()));
        }
    }
    for nc in &out {
        if nc.regexes.is_empty() {
            return Err(format!("suffix {} has no regexes", nc.suffix));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nc() -> NamingConvention {
        NamingConvention::new(
            "equinix.com",
            vec![
                Regex::parse(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$").unwrap(),
                Regex::parse(r"^(\d+)-.+\.equinix\.com$").unwrap(),
            ],
        )
    }

    #[test]
    fn extract_first_match_wins() {
        let c = nc();
        assert_eq!(c.extract("p714.sgw.equinix.com"), Some(714));
        assert_eq!(c.extract("24482-fr5-ix.equinix.com"), Some(24482));
        assert_eq!(c.extract("netflix.zh2.corp.eu.equinix.com"), None);
        assert!(c.matches("S714.SGW.EQUINIX.COM"));
        assert_eq!(c.extract("S714.SGW.EQUINIX.COM"), Some(714));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let c = nc();
        let text = c.to_string();
        assert_eq!(parse_conventions(&text).unwrap(), vec![c]);
    }

    #[test]
    fn parse_multiple_blocks() {
        let text = "\
# learned conventions
equinix.com
  ^(\\d+)-.+\\.equinix\\.com$

nts.ch
  as(\\d+)\\.nts\\.ch$
";
        let all = parse_conventions(text).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].suffix, "equinix.com");
        assert_eq!(all[1].suffix, "nts.ch");
        assert_eq!(all[1].regexes.len(), 1);
    }

    #[test]
    fn parse_errors_reported() {
        assert!(parse_conventions("  ^(\\d+)$\n").is_err()); // regex before suffix
        assert!(parse_conventions("x.com\n").is_err()); // suffix without regexes
        assert!(parse_conventions("x.com\n  ((\n").is_err()); // bad regex
    }

    #[test]
    fn extract_rejects_oversized() {
        let c = NamingConvention::new("x.com", vec![Regex::parse(r"^(\d+)\.x\.com$").unwrap()]);
        assert_eq!(c.extract("99999999999.x.com"), None);
        assert_eq!(c.extract("4294967295.x.com"), Some(u32::MAX));
    }
}
