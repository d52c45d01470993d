//! Phase 2 (§3.3): merge regexes that differ by a single simple string.
//!
//! Regexes `^p(\d+)…`, `^s(\d+)…` and `^(\d+)…` share everything but one
//! literal; merging produces `^(?:p|s)?(\d+)…` — the `?` because one
//! variant lacks the string entirely. The implementation abstracts each
//! regex into *skeletons*: for every literal element, the element list
//! with that literal replaced by a hole; and for every inter-element
//! gap, the list with a hole inserted (representing the empty variant).
//! Regexes sharing a skeleton merge their hole-fillers into one
//! alternation.
//!
//! Skeletons are keyed by structure, never by rendered text. Each
//! distinct element of the pool is interned once per call as a `u32`,
//! and a skeleton's key is the pair of id slices on either side of its
//! hole, so equal keys are exactly equal element sequences. That agrees
//! with keying by the rendered form because rendering is injective on
//! what the learner pools: adjacent literals are coalesced and no
//! digit-only class is produced (`tests/compiled_equiv.rs` pins the
//! round trip). Literal holes create groups; a gap hole only joins a
//! group some literal created, since empty fillers alone never merge.
//! The merged regex is spliced from the element slices around the hole.
//!
//! A merge needs at least two distinct literals. When every literal
//! shares a common prefix or suffix, the common part is factored back
//! into a literal so `(?:as|gw-as)` becomes `(?:gw-)?as` — the paper's
//! preference for regexes "a human might have built". An empty variant
//! must skip the whole filler, affixes included, so with one the
//! literals stay whole: `(?:xas|yas)?`, never `(?:x|y)?as`.

use crate::regex::{AltGroup, Elem, Regex};
use std::collections::HashMap;

/// Over-merging guard: alternations beyond this many options are
/// memorised training text, not a convention.
const MAX_OPTIONS: usize = 8;

/// Merges near-identical regexes; returns only the newly created merged
/// regexes (callers keep the originals in the pool), sorted by their
/// textual form.
pub fn merge(pool: &[Regex]) -> Vec<Regex> {
    // Every regex as a run of interned element ids, all runs in one
    // buffer: regex `ri` is `ids[starts[ri]..starts[ri + 1]]`.
    let mut intern: HashMap<&Elem, u32> = HashMap::new();
    let mut ids: Vec<u32> = Vec::new();
    let mut starts: Vec<usize> = Vec::with_capacity(pool.len() + 1);
    starts.push(0);
    for r in pool {
        for e in r.elems() {
            let next = intern.len() as u32;
            ids.push(*intern.entry(e).or_insert(next));
        }
        starts.push(ids.len());
    }
    let ids_of = |ri: usize| &ids[starts[ri]..starts[ri + 1]];

    // Literal holes: each distinct skeleton becomes a group, remembered
    // by the (regex, element) of its first literal; every literal is
    // one (group, filler) pair.
    let mut groups: HashMap<(&[u32], &[u32]), usize> = HashMap::new();
    let mut reps: Vec<(usize, usize)> = Vec::new();
    let mut fillers: Vec<(usize, &str)> = Vec::new();
    for (ri, r) in pool.iter().enumerate() {
        let id = ids_of(ri);
        for (i, e) in r.elems().iter().enumerate() {
            if let Elem::Lit(l) = e {
                let fresh = reps.len();
                let g = *groups.entry((&id[..i], &id[i + 1..])).or_insert(fresh);
                if g == fresh {
                    reps.push((ri, i));
                }
                fillers.push((g, l));
            }
        }
    }

    // Gap holes: the regex as the empty variant of a group. A literal
    // hole never borders another literal (literals are coalesced), so
    // only gaps between two non-literals can meet a group. Gaps before
    // `^` or after `$` are never holes.
    let mut has_empty = vec![false; reps.len()];
    for (ri, r) in pool.iter().enumerate() {
        let (id, elems) = (ids_of(ri), r.elems());
        for g in 0..=elems.len() {
            if matches!(
                (g.checked_sub(1).map(|b| &elems[b]), elems.get(g)),
                (Some(Elem::Lit(_)), _)
                    | (_, Some(Elem::Lit(_)))
                    | (None, Some(Elem::StartAnchor))
                    | (Some(Elem::EndAnchor), None)
            ) {
                continue;
            }
            if let Some(&gi) = groups.get(&(&id[..g], &id[g..])) {
                has_empty[gi] = true;
            }
        }
    }

    fillers.sort_unstable();
    fillers.dedup();
    let mut out = Vec::new();
    let mut texts: Vec<&str> = Vec::new();
    for run in fillers.chunk_by(|a, b| a.0 == b.0) {
        let g = run[0].0;
        if run.len() < 2 || run.len() + usize::from(has_empty[g]) > MAX_OPTIONS {
            continue;
        }
        texts.clear();
        texts.extend(run.iter().map(|&(_, f)| f));
        let (ri, i) = reps[g];
        let elems = pool[ri].elems();
        if let Some(r) = build_merged(&elems[..i], &elems[i + 1..], &texts, has_empty[g]) {
            out.push(r);
        }
    }
    out.sort_by_cached_key(|r| r.to_string());
    out.dedup();
    out
}

/// Splices the alternation of `literals` (sorted, distinct, at least
/// two), plus the empty variant when `has_empty`, between `left` and
/// `right`.
fn build_merged(
    left: &[Elem],
    right: &[Elem],
    literals: &[&str],
    has_empty: bool,
) -> Option<Regex> {
    let mut hole: Vec<Elem> = Vec::with_capacity(3);
    if has_empty {
        // "Simple strings" (§3.3) never span a label boundary: a dot
        // means the regexes differ in structure, not in one string.
        if literals.iter().any(|l| l.contains('.')) {
            return None;
        }
        let variants = literals.iter().map(|l| l.to_string()).chain([String::new()]);
        hole.push(Elem::Alt(AltGroup::from_variants(variants)?));
    } else {
        // Factor the common affixes out so the alternation stays
        // minimal; the dot rule applies to what is left.
        let prefix = common_prefix(literals);
        let suffix = common_suffix(literals, prefix.len());
        let variants: Vec<String> =
            literals.iter().map(|l| l[prefix.len()..l.len() - suffix.len()].to_string()).collect();
        if variants.iter().any(|v| v.contains('.')) {
            return None;
        }
        if !prefix.is_empty() {
            hole.push(Elem::Lit(prefix.to_string()));
        }
        hole.push(Elem::Alt(AltGroup::from_variants(variants)?));
        if !suffix.is_empty() {
            hole.push(Elem::Lit(suffix.to_string()));
        }
    }
    let mut elems = Vec::with_capacity(left.len() + hole.len() + right.len());
    elems.extend_from_slice(left);
    elems.append(&mut hole);
    elems.extend_from_slice(right);
    Some(Regex::new(elems))
}

fn common_prefix<'a>(strings: &[&'a str]) -> &'a str {
    let Some(first) = strings.first() else { return "" };
    let mut len = first.len();
    for s in &strings[1..] {
        len = len.min(s.len());
        while len > 0 && s.as_bytes()[..len] != first.as_bytes()[..len] {
            len -= 1;
        }
    }
    &first[..len]
}

fn common_suffix<'a>(strings: &[&'a str], reserved_prefix: usize) -> &'a str {
    let Some(first) = strings.first() else { return "" };
    let mut len = first.len() - reserved_prefix;
    for s in &strings[1..] {
        let avail = s.len() - reserved_prefix;
        len = len.min(avail);
        while len > 0 && s.as_bytes()[s.len() - len..] != first.as_bytes()[first.len() - len..] {
            len -= 1;
        }
    }
    &first[first.len() - len..]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    #[test]
    fn figure4_merge_p_s_and_bare() {
        // Regexes #1, #2, #3 merge into #5.
        let pool = vec![
            rx(r"^(\d+)\.[^\.]+\.equinix\.com$"),
            rx(r"^p(\d+)\.[^\.]+\.equinix\.com$"),
            rx(r"^s(\d+)\.[^\.]+\.equinix\.com$"),
        ];
        let merged = merge(&pool);
        let strings: Vec<String> = merged.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn two_mandatory_variants() {
        let pool = vec![rx(r"^p(\d+)\.x\.com$"), rx(r"^s(\d+)\.x\.com$")];
        let merged = merge(&pool);
        let strings: Vec<String> = merged.iter().map(|r| r.to_string()).collect();
        assert!(strings.iter().any(|s| s == r"^(?:p|s)(\d+)\.x\.com$"), "{strings:?}");
        // And the merged regex matches both shapes but not bare digits.
        let m = merged
            .iter()
            .find(|r| r.to_string() == r"^(?:p|s)(\d+)\.x\.com$")
            .unwrap();
        assert!(m.is_match("p1.x.com") && m.is_match("s2.x.com"));
        assert!(!m.is_match("1.x.com"));
    }

    #[test]
    fn common_affix_factored() {
        let pool = vec![rx(r"^as(\d+)\.x\.com$"), rx(r"^gw-as(\d+)\.x\.com$")];
        let merged = merge(&pool);
        let strings: Vec<String> = merged.iter().map(|r| r.to_string()).collect();
        assert!(strings.iter().any(|s| s == r"^(?:gw-)?as(\d+)\.x\.com$"), "{strings:?}");
    }

    #[test]
    fn unrelated_regexes_do_not_merge() {
        let pool = vec![rx(r"^as(\d+)\.x\.com$"), rx(r"^(\d+)-[^-]+\.y\.com$")];
        assert!(merge(&pool).is_empty());
    }

    #[test]
    fn differing_in_two_places_do_not_merge() {
        let pool = vec![rx(r"^a(\d+)\.x\.com$"), rx(r"^b(\d+)\.y\.com$")];
        assert!(merge(&pool).is_empty());
    }

    #[test]
    fn suffix_literal_difference_merges_too() {
        // Differences in a trailing literal are still single-string diffs.
        let pool = vec![rx(r"^as(\d+)\.cust\.x\.com$"), rx(r"^as(\d+)\.peer\.x\.com$")];
        let merged = merge(&pool);
        let strings: Vec<String> = merged.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^as(\d+)\.(?:cust|peer)\.x\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn three_way_merge_with_empty() {
        let pool = vec![
            rx(r"^(\d+)\.x\.com$"),
            rx(r"^p(\d+)\.x\.com$"),
            rx(r"^ps(\d+)\.x\.com$"),
        ];
        let merged = merge(&pool);
        let strings: Vec<String> = merged.iter().map(|r| r.to_string()).collect();
        // No affix factoring because of the empty variant.
        assert!(strings.iter().any(|s| s == r"^(?:p|ps)?(\d+)\.x\.com$"), "{strings:?}");
    }

    /// An empty variant must skip the common suffix too: factoring `as`
    /// out of `xas`/`yas` beside a bare variant would accept `x1.x.com`
    /// and reject `xas1.x.com`, which the merged regexes matched.
    #[test]
    fn empty_variant_keeps_common_suffix() {
        let pool = vec![
            rx(r"^(\d+)\.x\.com$"),
            rx(r"^xas(\d+)\.x\.com$"),
            rx(r"^yas(\d+)\.x\.com$"),
        ];
        let merged = merge(&pool);
        let strings: Vec<String> = merged.iter().map(|r| r.to_string()).collect();
        assert_eq!(strings, [r"^(?:xas|yas)?(\d+)\.x\.com$"]);
        let m = &merged[0];
        for host in ["1.x.com", "xas1.x.com", "yas1.x.com"] {
            assert!(m.is_match(host), "{m} must match {host}");
        }
        assert!(!m.is_match("x1.x.com"), "{m} must not match x1.x.com");
    }

    /// A merge needs two distinct literals: one literal beside the
    /// empty variant (`^(\d+)…` and `^as(\d+)…`) stays unmerged.
    #[test]
    fn lone_literal_beside_empty_variant_does_not_merge() {
        let pool = vec![rx(r"^(\d+)\.x\.com$"), rx(r"^as(\d+)\.x\.com$")];
        assert!(merge(&pool).is_empty());
    }

    /// Output is sorted by textual form, whatever order the groups
    /// were found in.
    #[test]
    fn output_sorted_by_text() {
        let pool = vec![
            rx(r"^as(\d+)\.cust\.x\.com$"),
            rx(r"^as(\d+)\.peer\.x\.com$"),
            rx(r"^p(\d+)\.x\.com$"),
            rx(r"^s(\d+)\.x\.com$"),
        ];
        let strings: Vec<String> = merge(&pool).iter().map(|r| r.to_string()).collect();
        let mut sorted = strings.clone();
        sorted.sort();
        assert_eq!(strings, sorted);
        assert_eq!(strings.len(), 2, "{strings:?}");
    }

    #[test]
    fn idempotent_on_merged_output() {
        let pool = vec![rx(r"^(?:p|s)?(\d+)\.x\.com$")];
        assert!(merge(&pool).is_empty());
    }

    #[test]
    fn common_prefix_and_suffix_helpers() {
        assert_eq!(common_prefix(&["abc", "abd"]), "ab");
        assert_eq!(common_prefix(&["abc"]), "abc");
        assert_eq!(common_prefix(&[]), "");
        assert_eq!(common_suffix(&["xas", "yas"], 0), "as");
        assert_eq!(common_suffix(&["as", "as"], 2), "");
    }
}
