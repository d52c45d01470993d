//! Unit tests for the regex dialect: rendering, parsing, matching, and
//! the paper's own regexes from Figures 2 and 4.

use super::*;

fn rx(s: &str) -> Regex {
    Regex::parse(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
}

#[test]
fn render_parse_roundtrip_paper_regexes() {
    // Every regex string appearing in the paper's figures.
    let samples = [
        r"^(\d+)\.[^\.]+\.equinix\.com$",
        r"^p(\d+)\.[^\.]+\.equinix\.com$",
        r"^s(\d+)\.[^\.]+\.equinix\.com$",
        r"^(\d+)-.+\.equinix\.com$",
        r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$",
        r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$",
        r"as(\d+)\.nts\.ch$",
        r"^as(\d+)\.example\.com$",
        r"as(\d+)\.[a-z]+\.example\.com",
        r"[a-z\d]+\.as(\d+)\.example\.com$",
        r"^(\d+)\.[a-z]+\d+\.example\.com$",
        r"^(\d+)-[^-]+-[^-]+\.equinix\.com$",
        r"^(\d+)-[^\.]+\.equinix\.com$",
    ];
    for s in samples {
        let r = rx(s);
        assert_eq!(r.to_string(), s, "roundtrip failed for {s}");
        // Parse the rendered form again: must be identical ASTs.
        assert_eq!(Regex::parse(&r.to_string()).unwrap(), r);
    }
}

#[test]
fn anchored_match_and_capture() {
    let r = rx(r"^(\d+)\.[^\.]+\.equinix\.com$");
    assert_eq!(r.extract("109.sgw.equinix.com"), Some("109"));
    assert_eq!(r.extract("714.os.equinix.com"), Some("714"));
    assert_eq!(r.extract("p714.sgw.equinix.com"), None); // `p` blocks ^(\d+)
    assert_eq!(r.extract("109.sgw.equinix.com.extra"), None); // $ anchored
}

#[test]
fn unanchored_start_matches_figure2() {
    let r = rx(r"as(\d+)\.nts\.ch$");
    assert_eq!(r.extract("ge0-2.01.p.ost.ch.as15576.nts.ch"), Some("15576"));
    assert_eq!(r.extract("01.r.cba.ch.bl.cust.as15576.nts.ch"), Some("15576"));
    assert_eq!(r.extract("as15576.nts.ch"), Some("15576"));
    assert_eq!(r.extract("as15576.nts.ch.example.org"), None);
}

#[test]
fn alternation_with_optionality() {
    let r = rx(r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$");
    assert_eq!(r.extract("p714.sgw.equinix.com"), Some("714"));
    assert_eq!(r.extract("s24115.tyo.equinix.com"), Some("24115"));
    assert_eq!(r.extract("714.os.equinix.com"), Some("714"));
    assert_eq!(r.extract("x714.os.equinix.com"), None);
}

#[test]
fn mandatory_alternation() {
    let r = rx(r"^(?:p|s)(\d+)\.equinix\.com$");
    assert!(r.is_match("p714.equinix.com"));
    assert!(!r.is_match("714.equinix.com"));
}

#[test]
fn char_class_match() {
    let r = rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$");
    assert_eq!(r.extract("s714.sgw.equinix.com"), Some("714"));
    // `me1` contains a digit; [a-z\d]+ accepts it.
    assert_eq!(r.extract("714.me1.equinix.com"), Some("714"));
    // a hyphen is outside [a-z\d]+.
    assert_eq!(r.extract("714.sg-w.equinix.com"), None);
}

#[test]
fn not_in_class_excludes_only_listed() {
    let r = rx(r"^(\d+)-[^\.]+\.equinix\.com$");
    // [^\.]+ happily spans the hyphen in fr5-ix.
    assert_eq!(r.extract("24482-fr5-ix.equinix.com"), Some("24482"));
    let r2 = rx(r"^(\d+)-[^-]+-[^-]+\.equinix\.com$");
    assert_eq!(r2.extract("24482-fr5-ix.equinix.com"), Some("24482"));
    assert_eq!(r2.extract("24482-fr5ix.equinix.com"), None);
}

#[test]
fn any_component() {
    let r = rx(r"^(\d+)-.+\.equinix\.com$");
    assert_eq!(r.extract("22822-2.tyo.equinix.com"), Some("22822"));
    assert_eq!(r.extract("54827-dc5-ix2.equinix.com"), Some("54827"));
    assert_eq!(r.extract("54827.dc5.equinix.com"), None); // needs the hyphen
}

#[test]
fn digits_component_non_capturing() {
    let r = rx(r"^(\d+)\.[a-z]+\d+\.example\.com$");
    let m = r.find("605.pop7.example.com").unwrap();
    assert_eq!(m.captures.len(), 1);
    assert_eq!(m.capture("605.pop7.example.com", 0), Some("605"));
}

#[test]
fn greedy_capture_takes_whole_run() {
    let r = rx(r"(\d+)-");
    // Unanchored both ends; capture should take a full digit run.
    assert_eq!(r.extract("abc12345-x"), Some("12345"));
}

#[test]
fn leftmost_match_preferred() {
    let r = rx(r"as(\d+)\.");
    assert_eq!(r.extract("as100.as200.example.com"), Some("100"));
}

#[test]
fn backtracking_across_components() {
    // [^-]+ must give back characters so the literal `-ix` can match.
    let r = rx(r"^[^\.]+-ix\.example\.com$");
    assert!(r.is_match("fr5-ix.example.com"));
    assert!(r.is_match("a-b-c-ix.example.com"));
    assert!(!r.is_match("fr5ix.example.com"));
}

#[test]
fn empty_capture_rejected() {
    let r = rx(r"^as(\d+)\.x\.com$");
    assert!(!r.is_match("as.x.com"));
}

#[test]
fn parse_errors() {
    for bad in [
        "a(b)c",        // capture must be (\d+) or (?:
        "[q]+",         // unsupported positive class
        "[a-z]",        // missing +
        "(?:a|b",       // unterminated
        "a^b",          // ^ in the middle
        "a$b",          // $ in the middle
        "a.b",          // bare dot
        "x\\",          // dangling escape
        "[^a-z",        // unterminated class
        "(?:)",         // no options
        "a+",           // bare +
    ] {
        assert!(Regex::parse(bad).is_err(), "expected parse error for {bad:?}");
    }
}

#[test]
fn alt_with_explicit_empty_option_becomes_optional() {
    let r = Regex::parse("(?:p|)x").unwrap();
    match &r.elems()[0] {
        Elem::Alt(a) => {
            assert!(a.optional);
            assert_eq!(a.opts, vec!["p".to_string()]);
        }
        other => panic!("expected alt, got {other:?}"),
    }
    assert_eq!(r.to_string(), "(?:p)?x");
}

#[test]
fn lit_coalescing_in_constructor() {
    let r = Regex::new(vec![
        Elem::Lit("a".into()),
        Elem::Lit("s".into()),
        Elem::CaptureDigits,
        Elem::Lit(String::new()),
    ]);
    assert_eq!(r.elems().len(), 2);
    assert_eq!(r.to_string(), r"as(\d+)");
}

#[test]
fn capture_metadata() {
    let r = rx(r"^as(\d+)\.x\.com$");
    assert_eq!(r.elems().first(), Some(&Elem::StartAnchor));
    assert_eq!(r.elems().last(), Some(&Elem::EndAnchor));
    assert_eq!(r.elems().iter().filter(|e| matches!(e, Elem::CaptureDigits)).count(), 1);
    assert_eq!(r.capture_index(), Some(2));
    let r2 = rx(r"as(\d+)\.x\.com");
    assert_ne!(r2.elems().first(), Some(&Elem::StartAnchor));
    assert_ne!(r2.elems().last(), Some(&Elem::EndAnchor));
}

#[test]
fn class_covering() {
    assert_eq!(
        CharClass::covering("abc"),
        Some(CharClass { lower: true, digit: false, hyphen: false })
    );
    assert_eq!(
        CharClass::covering("a1-b"),
        Some(CharClass { lower: true, digit: true, hyphen: true })
    );
    assert_eq!(CharClass::covering("a.b"), None);
    assert_eq!(CharClass::covering(""), Some(CharClass::EMPTY));
}

#[test]
fn digit_only_class_renders_as_digits() {
    let r = Regex::new(vec![Elem::Class(CharClass { lower: false, digit: true, hyphen: false })]);
    assert_eq!(r.to_string(), r"\d+");
    // And parses back to Elem::Digits — string-level fixpoint.
    assert_eq!(Regex::parse(r"\d+").unwrap().to_string(), r"\d+");
}

#[test]
fn class_with_hyphen_renders_and_matches() {
    let r = rx(r"^[a-z\d-]+\.x\.com$");
    assert!(r.is_match("ae-1-3.x.com"));
    assert!(!r.is_match("ae_1.x.com"));
    assert_eq!(r.to_string(), r"^[a-z\d-]+\.x\.com$");
    let r2 = rx(r"^[\d-]+\.x\.com$");
    assert!(r2.is_match("1-2-3.x.com"));
    assert!(!r2.is_match("a-1.x.com"));
}

#[test]
fn multiple_captures_supported() {
    let r = rx(r"^(\d+)-(\d+)\.x\.com$");
    let m = r.find("10-20.x.com").unwrap();
    assert_eq!(m.capture("10-20.x.com", 0), Some("10"));
    assert_eq!(m.capture("10-20.x.com", 1), Some("20"));
}

#[test]
fn span_reported() {
    let r = rx(r"as(\d+)\.nts\.ch$");
    let h = "01.r.cba.ch.bl.cust.as15576.nts.ch";
    let m = r.find(h).unwrap();
    assert_eq!(&h[m.span.0..m.span.1], "as15576.nts.ch");
}
