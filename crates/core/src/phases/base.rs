//! Phase 1 (§3.2): generate base regexes from hostname structure.
//!
//! For every hostname containing an apparent ASN, the generator locates
//! each congruent digit run within the punctuation structure of the local
//! part (see [`crate::label`]) and emits regexes combining:
//!
//! * literal context around the ASN within its punctuation-delimited
//!   subportion (`p714` → `p(\d+)`; `as24940` → `as(\d+)`);
//! * punctuation-exclusion components for the other portions — `[^\.]+`
//!   for a whole dot-delimited portion, or `[^-]+` per hyphen-delimited
//!   subportion with literal hyphens between;
//! * literal alternatives for subportions sharing the ASN's portion;
//! * at most one `.+`, standing for everything before or everything after
//!   the ASN;
//! * anchored and start-unanchored forms (conventions embedding the ASN
//!   at the end of a variable-prefix hostname, Figure 2, need the
//!   unanchored form).
//!
//! The suffix always stays a literal, and `$` is always present. The
//! cartesian expansion over per-portion choices is budget-capped for
//! hostnames with pathological punctuation structure.

use crate::apparent::{congruence, digit_runs};
use crate::iputil::overlaps_any;
use crate::label::{structure_of, Portion, SpanLocation, Structure};
use crate::regex::{Elem, Regex};
use crate::training::{HostObs, SuffixTraining};
use std::collections::{BTreeSet, HashMap};

/// Tunables for base generation; see [`crate::learner::LearnConfig`] for
/// the top-level knobs that feed these.
#[derive(Debug, Clone, Copy)]
pub struct BaseConfig {
    /// Hostnames (with apparent ASNs) sampled as structure donors.
    pub max_gen_hosts: usize,
    /// Cartesian budget per (hostname, candidate span, template).
    pub max_variants_per_candidate: usize,
    /// Hard cap on distinct base regexes per suffix.
    pub max_base_regexes: usize,
}

impl Default for BaseConfig {
    fn default() -> Self {
        BaseConfig { max_gen_hosts: 48, max_variants_per_candidate: 128, max_base_regexes: 4000 }
    }
}

/// One slot of a regex template: fixed elements or a choice among
/// alternative element runs.
enum Slot {
    Fixed(Vec<Elem>),
    Choice(Vec<Vec<Elem>>),
}

/// Generates the deduplicated base regexes for a suffix, in the order
/// they were first generated.
pub fn generate(st: &SuffixTraining, cfg: &BaseConfig) -> Vec<Regex> {
    // Each distinct regex (by element sequence) with its first-seen rank.
    #[allow(clippy::mutable_key_type)] // a `Regex` hashes and compares by its elements only
    let mut seen: HashMap<Regex, usize> = HashMap::new();
    let mut donors: BTreeSet<String> = BTreeSet::new();
    'hosts: for host in sample_hosts(st, cfg.max_gen_hosts) {
        let local = host.local.as_str();
        if local.is_empty() {
            continue;
        }
        let structure = structure_of(local);
        if !structure.is_regular() {
            continue;
        }
        let spans = candidate_spans(host, local.len());
        if spans.is_empty() {
            continue;
        }
        // The candidate digits only ever enter a regex as the capture, so
        // hosts whose locals differ solely inside the candidate runs
        // donate an identical regex list; generating from one donor per
        // masked shape leaves the deduplicated output unchanged.
        if !donors.insert(donor_key(local, &spans)) {
            continue;
        }
        for r in host_regexes(local, &structure, &spans, &st.suffix, cfg) {
            if seen.len() >= cfg.max_base_regexes {
                break 'hosts;
            }
            let rank = seen.len();
            seen.entry(r).or_insert(rank);
        }
    }
    let mut out: Vec<(usize, Regex)> = seen.into_iter().map(|(r, rank)| (rank, r)).collect();
    out.sort_unstable_by_key(|&(rank, _)| rank);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The local part with every candidate span masked to one `#` — a byte
/// that cannot appear in a hostname, so equal keys mean the locals are
/// identical outside the candidate digit runs.
fn donor_key(local: &str, spans: &[(usize, usize)]) -> String {
    let mut key = String::with_capacity(local.len());
    let mut pos = 0;
    for &(s, e) in spans {
        key.push_str(&local[pos..s]);
        key.push('#');
        pos = e;
    }
    key.push_str(&local[pos..]);
    key
}

/// Picks up to `max` hostnames with apparent ASNs, evenly spaced so the
/// sample sees format diversity across the (arbitrarily ordered) input.
fn sample_hosts(st: &SuffixTraining, max: usize) -> Vec<&HostObs> {
    let candidates: Vec<&HostObs> = st.hosts.iter().filter(|h| h.has_apparent()).collect();
    if candidates.len() <= max {
        return candidates;
    }
    let step = candidates.len() as f64 / max as f64;
    (0..max).map(|i| candidates[(i as f64 * step) as usize]).collect()
}

/// Generates base regexes for a single donor hostname's local part.
fn host_regexes(
    local: &str,
    structure: &Structure,
    spans: &[(usize, usize)],
    suffix: &str,
    cfg: &BaseConfig,
) -> Vec<Regex> {
    let mut out = Vec::new();
    for &(s, e) in spans {
        let Some(loc) = structure.locate(s, e) else { continue };
        let gen = CandidateGen { local, structure, suffix, span: (s, e), loc };
        gen.generate(cfg, &mut out);
    }
    out
}

/// Digit runs in the local part that are congruent with the training ASN
/// and outside any embedded IP span.
fn candidate_spans(host: &HostObs, local_len: usize) -> Vec<(usize, usize)> {
    digit_runs(&host.hostname)
        .into_iter()
        .filter(|&(_, e)| e <= local_len)
        .filter(|&(s, e)| !overlaps_any(&host.ip_spans, s, e))
        .filter(|&(s, e)| congruence(&host.hostname[s..e], host.training_asn).is_congruent())
        .collect()
}

/// Context for generating the variants of one candidate ASN span.
struct CandidateGen<'a> {
    local: &'a str,
    structure: &'a Structure,
    suffix: &'a str,
    span: (usize, usize),
    loc: SpanLocation,
}

impl CandidateGen<'_> {
    fn generate(&self, cfg: &BaseConfig, out: &mut Vec<Regex>) {
        let budget = cfg.max_variants_per_candidate;
        // Template A: fully anchored, all structure represented.
        expand(&self.template_anchored(), budget, out);
        // Template B: tail replaced by `.+`.
        if let Some(t) = self.template_tail_any() {
            expand(&t, budget, out);
        }
        // Template C: head replaced by `.+`.
        if let Some(t) = self.template_head_any() {
            expand(&t, budget, out);
        }
        // Template D: start-unanchored, beginning at the ASN subportion.
        if let Some(t) = self.template_unanchored() {
            expand(&t, budget, out);
        }
    }

    /// The portion holding the ASN.
    fn asn_portion(&self) -> &Portion {
        &self.structure.portions[self.loc.portion]
    }

    /// Literal context left of the digits within the ASN's subportion.
    fn left_lit(&self) -> &str {
        let (ss, _) = self.asn_portion().subs[self.loc.sub];
        &self.local[ss..self.span.0]
    }

    /// Literal context right of the digits within the ASN's subportion.
    fn right_lit(&self) -> &str {
        let (_, se) = self.asn_portion().subs[self.loc.sub];
        &self.local[self.span.1..se]
    }

    /// `Fixed` run for the capture and its in-subportion context.
    fn capture_slot(&self) -> Slot {
        let mut elems = Vec::new();
        if !self.left_lit().is_empty() {
            elems.push(Elem::Lit(self.left_lit().to_string()));
        }
        elems.push(Elem::CaptureDigits);
        if !self.right_lit().is_empty() {
            elems.push(Elem::Lit(self.right_lit().to_string()));
        }
        Slot::Fixed(elems)
    }

    /// The literal `\.suffix$` tail every regex carries.
    fn suffix_slot(&self) -> Slot {
        Slot::Fixed(vec![Elem::Lit(format!(".{}", self.suffix)), Elem::EndAnchor])
    }

    /// Choice slot for a run of subportions that share the ASN's portion,
    /// on one side of the capture. Options: every cartesian combination
    /// of literal-or-`[^-]+` per subportion joined with literal hyphens
    /// (capped), plus the whole run collapsed into one `[^\.]+` — the
    /// paper's `^(\d+)-[^\.]+\.equinix\.com$` shape, where `[^\.]+`
    /// spans `fr5-ix`. `leading` appends the hyphen joining the run to
    /// the capture; trailing runs prepend it.
    fn sibling_run_slot(&self, subs: &[(usize, usize)], leading: bool) -> Slot {
        const MAX_CARTESIAN: usize = 16;
        let mut opts: Vec<Vec<Elem>> = vec![Vec::new()];
        for (i, &(s, e)) in subs.iter().enumerate() {
            let text = self.local[s..e].to_string();
            let mut next: Vec<Vec<Elem>> = Vec::new();
            for base in &opts {
                for piece in [Elem::Lit(text.clone()), Elem::NotIn("-".to_string())] {
                    if next.len() >= MAX_CARTESIAN {
                        break;
                    }
                    let mut o = base.clone();
                    if i > 0 {
                        o.push(Elem::Lit("-".to_string()));
                    }
                    o.push(piece);
                    next.push(o);
                }
            }
            opts = next;
        }
        if subs.len() >= 2 {
            // Collapsed: one [^\.]+ spanning the hyphens of the run.
            opts.push(vec![Elem::NotIn(".".to_string())]);
        }
        for o in &mut opts {
            if leading {
                o.push(Elem::Lit("-".to_string()));
            } else {
                o.insert(0, Elem::Lit("-".to_string()));
            }
        }
        Slot::Choice(opts)
    }

    /// Choice slot for a whole non-ASN portion: `[^\.]+`, or (when the
    /// portion has hyphens) per-subportion `[^-]+` joined with literal
    /// hyphens.
    fn portion_slot(&self, p: &Portion) -> Slot {
        let mut opts = vec![vec![Elem::NotIn(".".to_string())]];
        if p.subs.len() >= 2 {
            let mut alt = Vec::new();
            for (i, _) in p.subs.iter().enumerate() {
                if i > 0 {
                    alt.push(Elem::Lit("-".to_string()));
                }
                alt.push(Elem::NotIn("-".to_string()));
            }
            opts.push(alt);
        }
        Slot::Choice(opts)
    }

    /// Slots for the ASN's own portion: sibling runs (choice) around the
    /// capture (fixed), hyphens literal.
    fn asn_portion_slots(&self, slots: &mut Vec<Slot>) {
        let p = self.asn_portion();
        if self.loc.sub > 0 {
            slots.push(self.sibling_run_slot(&p.subs[..self.loc.sub], true));
        }
        slots.push(self.capture_slot());
        if self.loc.sub + 1 < p.subs.len() {
            slots.push(self.sibling_run_slot(&p.subs[self.loc.sub + 1..], false));
        }
    }

    /// Template A: `^` + all portions + `\.suffix$`.
    fn template_anchored(&self) -> Vec<Slot> {
        let mut slots = vec![Slot::Fixed(vec![Elem::StartAnchor])];
        for (pi, p) in self.structure.portions.iter().enumerate() {
            if pi > 0 {
                slots.push(Slot::Fixed(vec![Elem::Lit(".".to_string())]));
            }
            if pi == self.loc.portion {
                self.asn_portion_slots(&mut slots);
            } else {
                slots.push(self.portion_slot(p));
            }
        }
        slots.push(self.suffix_slot());
        slots
    }

    /// Template B: everything after the ASN subportion becomes
    /// `<sep>.+`, e.g. `^(\d+)-.+\.equinix\.com$` (Figure 4 regex #4).
    /// `None` when nothing follows the ASN subportion.
    fn template_tail_any(&self) -> Option<Vec<Slot>> {
        let p = self.asn_portion();
        let more_subs = self.loc.sub + 1 < p.subs.len();
        let more_portions = self.loc.portion + 1 < self.structure.portions.len();
        if !more_subs && !more_portions {
            return None;
        }
        let sep = if more_subs { "-" } else { "." };
        let mut slots = vec![Slot::Fixed(vec![Elem::StartAnchor])];
        for pre in &self.structure.portions[..self.loc.portion] {
            slots.push(self.portion_slot(pre));
            slots.push(Slot::Fixed(vec![Elem::Lit(".".to_string())]));
        }
        // The ASN portion, truncated after the capture subportion.
        if self.loc.sub > 0 {
            slots.push(self.sibling_run_slot(&p.subs[..self.loc.sub], true));
        }
        slots.push(self.capture_slot());
        slots.push(Slot::Fixed(vec![Elem::Lit(sep.to_string()), Elem::Any]));
        slots.push(self.suffix_slot());
        Some(slots)
    }

    /// Template C: everything before the ASN subportion becomes `^.+<sep>`.
    /// `None` when the ASN subportion starts the hostname.
    fn template_head_any(&self) -> Option<Vec<Slot>> {
        if self.loc.portion == 0 && self.loc.sub == 0 {
            return None;
        }
        let sep = if self.loc.sub > 0 { "-" } else { "." };
        let mut slots = vec![Slot::Fixed(vec![
            Elem::StartAnchor,
            Elem::Any,
            Elem::Lit(sep.to_string()),
        ])];
        self.rest_from_capture(&mut slots);
        Some(slots)
    }

    /// Template D: start-unanchored — the regex begins at the ASN
    /// subportion's literal context (Figure 2's `as(\d+)\.nts\.ch$`).
    /// `None` when the ASN subportion starts the hostname (the anchored
    /// template already covers that shape).
    fn template_unanchored(&self) -> Option<Vec<Slot>> {
        if self.loc.portion == 0 && self.loc.sub == 0 {
            return None;
        }
        let mut slots = Vec::new();
        self.rest_from_capture(&mut slots);
        Some(slots)
    }

    /// Appends slots for the capture subportion through to `$`.
    fn rest_from_capture(&self, slots: &mut Vec<Slot>) {
        let p = self.asn_portion();
        slots.push(self.capture_slot());
        if self.loc.sub + 1 < p.subs.len() {
            slots.push(self.sibling_run_slot(&p.subs[self.loc.sub + 1..], false));
        }
        for p in &self.structure.portions[self.loc.portion + 1..] {
            slots.push(Slot::Fixed(vec![Elem::Lit(".".to_string())]));
            slots.push(self.portion_slot(p));
        }
        slots.push(self.suffix_slot());
    }
}

/// Expands a template's cartesian product of choices into regexes,
/// stopping at `budget` variants.
fn expand(slots: &[Slot], budget: usize, out: &mut Vec<Regex>) {
    let mut acc: Vec<Elem> = Vec::new();
    let mut produced = 0usize;
    expand_rec(slots, 0, &mut acc, budget, &mut produced, out);
}

fn expand_rec(
    slots: &[Slot],
    i: usize,
    acc: &mut Vec<Elem>,
    budget: usize,
    produced: &mut usize,
    out: &mut Vec<Regex>,
) {
    if *produced >= budget {
        return;
    }
    if i == slots.len() {
        out.push(Regex::new(acc.clone()));
        *produced += 1;
        return;
    }
    match &slots[i] {
        Slot::Fixed(elems) => {
            let mark = acc.len();
            acc.extend(elems.iter().cloned());
            expand_rec(slots, i + 1, acc, budget, produced, out);
            acc.truncate(mark);
        }
        Slot::Choice(opts) => {
            for opt in opts {
                let mark = acc.len();
                acc.extend(opt.iter().cloned());
                expand_rec(slots, i + 1, acc, budget, produced, out);
                acc.truncate(mark);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Observation;

    fn st(rows: &[(&str, u32)], suffix: &str) -> SuffixTraining {
        let obs: Vec<Observation> = rows
            .iter()
            .map(|&(h, a)| Observation::new(h, [192, 0, 2, 1], a))
            .collect();
        SuffixTraining::build(suffix, &obs)
    }

    fn strings(regexes: &[Regex]) -> Vec<String> {
        regexes.iter().map(|r| r.to_string()).collect()
    }

    #[test]
    fn figure4_hostname_i_shapes() {
        // Paper §3.2: for 24482-fr5-ix.equinix.com Hoiho builds
        // ^(\d+)-[^-]+-[^-]+\.equinix\.com$, ^(\d+)-[^\.]+\.equinix\.com$
        // and ^(\d+)-.+\.equinix\.com$ (among others).
        let st = st(&[("24482-fr5-ix.equinix.com", 24482)], "equinix.com");
        let got = strings(&generate(&st, &BaseConfig::default()));
        for want in [
            r"^(\d+)-[^-]+-[^-]+\.equinix\.com$",
            r"^(\d+)-[^\.]+\.equinix\.com$",
            r"^(\d+)-.+\.equinix\.com$",
        ] {
            assert!(got.iter().any(|g| g == want), "missing {want} in {got:?}");
        }
    }

    #[test]
    fn figure4_hostname_d_embeds_literal_context() {
        // p714.sgw.equinix.com must yield ^p(\d+)\.[^\.]+\.equinix\.com$.
        let st = st(&[("p714.sgw.equinix.com", 714)], "equinix.com");
        let got = strings(&generate(&st, &BaseConfig::default()));
        assert!(got.iter().any(|g| g == r"^p(\d+)\.[^\.]+\.equinix\.com$"), "{got:?}");
    }

    #[test]
    fn figure2_unanchored_form_generated() {
        let st = st(&[("ge0-2.01.p.ost.ch.as15576.nts.ch", 15576)], "nts.ch");
        let got = strings(&generate(&st, &BaseConfig::default()));
        assert!(got.iter().any(|g| g == r"as(\d+)\.nts\.ch$"), "{got:?}");
        // Head-any form too.
        assert!(got.iter().any(|g| g == r"^.+\.as(\d+)\.nts\.ch$"), "{got:?}");
    }

    #[test]
    fn sibling_subportions_offer_literal_and_generalised() {
        let st = st(&[("gw-as20732.init7.net", 20732)], "init7.net");
        let got = strings(&generate(&st, &BaseConfig::default()));
        assert!(got.iter().any(|g| g == r"^gw-as(\d+)\.init7\.net$"), "{got:?}");
        assert!(got.iter().any(|g| g == r"^[^-]+-as(\d+)\.init7\.net$"), "{got:?}");
        assert!(got.iter().any(|g| g == r"as(\d+)\.init7\.net$"), "{got:?}");
    }

    #[test]
    fn no_apparent_asn_no_regexes() {
        let st = st(&[("core1.example.com", 65000)], "example.com");
        assert!(generate(&st, &BaseConfig::default()).is_empty());
    }

    #[test]
    fn irregular_hostnames_skipped() {
        let st = st(&[("a--100.example.com", 100)], "example.com");
        assert!(generate(&st, &BaseConfig::default()).is_empty());
    }

    #[test]
    fn embedded_ip_not_a_candidate() {
        let obs = vec![Observation::new(
            "209-201-58-109.dia.stat.centurylink.net",
            [209, 201, 58, 109],
            209,
        )];
        let st = SuffixTraining::build("centurylink.net", &obs);
        assert!(generate(&st, &BaseConfig::default()).is_empty());
    }

    #[test]
    fn dedup_across_hostnames() {
        let st = st(
            &[("as100.x.example.com", 100), ("as200.x.example.com", 200)],
            "example.com",
        );
        let got = strings(&generate(&st, &BaseConfig::default()));
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(got.len(), sorted.len(), "duplicates in {got:?}");
        assert!(got.iter().any(|g| g == r"^as(\d+)\.[^\.]+\.example\.com$"));
    }

    #[test]
    fn budget_caps_output() {
        let st = st(
            &[("a-b-c-d-e.f-g-h.i-j-k.l-m.100.example.com", 100)],
            "example.com",
        );
        let cfg = BaseConfig { max_variants_per_candidate: 8, ..BaseConfig::default() };
        let got = generate(&st, &cfg);
        assert!(!got.is_empty());
        assert!(got.len() <= 4 * 8, "{}", got.len());
    }

    #[test]
    fn typo_congruent_run_is_candidate() {
        // 22822 vs training 22282 (transposition) still donates structure.
        let st = st(&[("22822-2.tyo.equinix.com", 22282)], "equinix.com");
        let got = strings(&generate(&st, &BaseConfig::default()));
        assert!(got.iter().any(|g| g == r"^(\d+)-.+\.equinix\.com$"), "{got:?}");
    }
}
