//! The learner: `learn_suffix` vs the public phases chained with a full
//! evaluation of every pooled regex.
//!
//! Case layout: one `<asn> <hostname>` row per line, the hostnames of
//! one suffix (a row that does not parse is skipped; a row under
//! another suffix forms its own group). Row `i`'s interface address is
//! `192.0.2.i`, so hostnames embedding it exercise the IP-fragment
//! rule. Oracle, for every suffix group: `learn_suffix` returns the
//! same convention and `Counts` as `base::generate` → `merge` →
//! `embed_classes` → dedup → `build_sets_stats` → `select_best`. The
//! learner hands the hits its classes phase traced to its sets phase
//! and runs each specialised regex only on the hosts its parent
//! matched; the chain evaluates the final pool afresh over the
//! candidate screen, so any lost or extra hit shows as a different
//! answer.

use super::Target;
use crate::input::FuzzInput;
use hoiho::learner::{learn_suffix, LearnConfig};
use hoiho::phases::base;
use hoiho::phases::classes::embed_classes;
use hoiho::phases::merge::merge;
use hoiho::phases::sets::{build_sets_stats, CandidateNc};
use hoiho::regex::{Elem, Regex};
use hoiho::select::select_best;
use hoiho::training::{Observation, SuffixTraining, TrainingSet};
use hoiho_psl::PublicSuffixList;
use std::collections::HashSet;

/// Suffixes the rows are named under.
const SUFFIXES: &[&str] = &["equinix.com", "bigco.net", "example.co.uk"];
/// Literal context around an embedded ASN.
const AROUND: &[&str] = &["", "", "as", "p", "s", "gw-as", "ae", "-ix", "x"];
/// Other labels and hyphen-joined subportions.
const LABELS: &[&str] = &["sgw", "tyo", "fr5", "ix", "xe-0-1", "core1", "te0-7", "mel", "ge2-0", "lns3"];
/// ASNs the rows draw from: a small pool, so conventions repeat.
const ASNS: &[u32] = &[109, 714, 2906, 8075, 22282, 24115, 24482, 64500, 64501, 65010];

pub struct LearnTarget;

impl Target for LearnTarget {
    fn name(&self) -> &'static str {
        "learn"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        let suffix = *input.pick(SUFFIXES);
        let mut case = String::new();
        for i in 0..input.range(1, 40) {
            let asn = *input.pick(ASNS);
            let mut shown = asn.to_string();
            match input.below(10) {
                // Another operator's ASN: the extraction is an FP.
                0 => shown = input.pick(ASNS).to_string(),
                // A transposed pair of digits: the typo rule.
                1 if shown.len() >= 3 => {
                    let mut b = shown.into_bytes();
                    b.swap(1, 2);
                    shown = String::from_utf8(b).expect("ASCII digits");
                }
                // The interface address instead of an ASN.
                2 => shown = format!("192-0-2-{i}"),
                _ => {}
            }
            let (before, after) = (*input.pick(AROUND), *input.pick(AROUND));
            let mut host = format!("{before}{shown}{after}");
            for _ in 0..input.range(0, 3) {
                let sep = if input.chance(30) { "-" } else { "." };
                if input.chance(20) {
                    host.push_str(sep);
                    host.push_str(&input.token("abcdefghijklmnopqrstuvwxyz0123456789-", 1, 6));
                } else if input.chance(30) {
                    host.insert_str(0, &format!("{}{sep}", input.pick(LABELS)));
                } else {
                    let label = *input.pick(LABELS);
                    host.push_str(sep);
                    host.push_str(label);
                }
            }
            case.push_str(&format!("{asn} {host}.{suffix}\n"));
        }
        case.into_bytes()
    }

    fn run(&self, case: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(case) else {
            return Ok(()); // foreign bytes: the training parser reads text
        };
        let mut ts = TrainingSet::new();
        for (i, line) in text.lines().enumerate() {
            let Some((asn, host)) = line.split_once(' ') else { continue };
            let Ok(asn) = asn.parse::<u32>() else { continue };
            ts.push(Observation::new(host, [192, 0, 2, (i % 256) as u8], asn));
        }
        let cfg = LearnConfig { threads: 1, ..LearnConfig::default() };
        for st in ts.by_suffix(&PublicSuffixList::builtin()) {
            let learned = learn_suffix(&st, &cfg).map(|l| (l.convention.regexes, l.counts));
            let oracle = full_evaluation(&st, &cfg).map(|c| (c.regexes, c.counts));
            if learned != oracle {
                return Err(format!(
                    "{}: learn_suffix chose {learned:?}, the full evaluation {oracle:?}",
                    st.suffix
                ));
            }
        }
        Ok(())
    }
}

/// The convention the public phases select when every pooled regex is
/// evaluated over the whole candidate screen.
fn full_evaluation(st: &SuffixTraining, cfg: &LearnConfig) -> Option<CandidateNc> {
    if st.apparent_count() < cfg.min_apparent {
        return None;
    }
    let mut pool = base::generate(st, &cfg.base);
    if pool.is_empty() {
        return None;
    }
    let merged = merge(&pool);
    extend_dedup(&mut pool, merged);
    let classed = embed_classes(&pool, &st.hosts);
    extend_dedup(&mut pool, classed);
    let (candidates, _) = build_sets_stats(&pool, &st.hosts, &cfg.sets);
    select_best(&candidates).cloned()
}

/// Appends `more` to `pool`, dropping every regex whose element
/// sequence is already pooled — the learner's dedup after each phase.
fn extend_dedup(pool: &mut Vec<Regex>, more: Vec<Regex>) {
    let mut seen: HashSet<Vec<Elem>> = pool.iter().map(|r| r.elems().to_vec()).collect();
    pool.extend(more.into_iter().filter(|r| seen.insert(r.elems().to_vec())));
}
