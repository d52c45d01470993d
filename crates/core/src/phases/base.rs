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
//!
//! Most generated variants repeat one an earlier hostname produced. A
//! variant is expanded as borrowed elements and keyed by an injective
//! byte encoding of the regex it would build, so only a first-seen
//! variant allocates a [`Regex`]; the output keeps first-seen order.

use crate::apparent::{congruence, digit_runs};
use crate::iputil::overlaps_any;
use crate::label::{structure_of, Portion, SpanLocation, Structure};
use crate::regex::{Elem, Regex};
use crate::training::{HostObs, SuffixTraining};
use std::collections::{BTreeSet, HashSet};

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
    let mut distinct = Distinct {
        seen: HashSet::new(),
        key: Vec::new(),
        out: Vec::new(),
        cap: cfg.max_base_regexes,
        full: false,
    };
    let mut donors: BTreeSet<String> = BTreeSet::new();
    for host in sample_hosts(st, cfg.max_gen_hosts) {
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
        for &(s, e) in &spans {
            let Some(loc) = structure.locate(s, e) else { continue };
            let suffix = st.suffix.as_str();
            let gen = CandidateGen { local, structure: &structure, suffix, span: (s, e), loc };
            gen.generate(cfg, &mut distinct);
        }
        if distinct.full {
            break;
        }
    }
    distinct.out
}

/// The distinct generated regexes, in first-generated order. A variant
/// is keyed by its normalised elements before any [`Regex`] is built,
/// so a duplicate costs no allocation.
struct Distinct {
    /// Keys of the regexes in `out`.
    seen: HashSet<Box<[u8]>>,
    /// The key buffer, reused across variants.
    key: Vec<u8>,
    out: Vec<Regex>,
    /// `max_base_regexes`.
    cap: usize,
    /// Set when a variant arrives with `cap` regexes kept: generation
    /// stops for every host.
    full: bool,
}

impl Distinct {
    /// Keeps `elems` as a regex unless an equal one is kept already.
    fn offer(&mut self, elems: &[&Elem]) {
        if self.out.len() >= self.cap {
            self.full = true;
            return;
        }
        key_into(elems, &mut self.key);
        if !self.seen.contains(self.key.as_slice()) {
            self.seen.insert(self.key.as_slice().into());
            self.out.push(Regex::new(elems.iter().map(|&e| e.clone()).collect()));
        }
    }
}

/// Writes an injective byte key of the regex `Regex::new(elems)` would
/// build: adjacent literals coalesce and empty ones vanish, as there.
/// Each element is a tag byte; every payload is length-prefixed, since
/// a training file's hostnames may hold any byte.
fn key_into(elems: &[&Elem], key: &mut Vec<u8>) {
    /// Closes the open literal run whose length field sits at `at`:
    /// patches the length, or removes the run when it is empty.
    fn close(key: &mut Vec<u8>, at: Option<usize>) {
        if let Some(at) = at {
            match key.len() - at - 4 {
                0 => key.truncate(at - 1),
                n => key[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes()),
            }
        }
    }
    fn payload(key: &mut Vec<u8>, bytes: &[u8]) {
        key.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        key.extend_from_slice(bytes);
    }
    key.clear();
    let mut lit_at = None;
    for &e in elems {
        if let Elem::Lit(l) = e {
            // Tag 0, then a length field that `close` patches.
            lit_at.get_or_insert_with(|| {
                key.extend_from_slice(&[0; 5]);
                key.len() - 4
            });
            key.extend_from_slice(l.as_bytes());
            continue;
        }
        close(key, lit_at.take());
        match e {
            Elem::StartAnchor => key.push(1),
            Elem::EndAnchor => key.push(2),
            Elem::CaptureDigits => key.push(3),
            Elem::Digits => key.push(4),
            Elem::Any => key.push(5),
            Elem::NotIn(set) => {
                key.push(6);
                payload(key, set.as_bytes());
            }
            Elem::Class(c) => {
                let bits = u8::from(c.lower) | u8::from(c.digit) << 1 | u8::from(c.hyphen) << 2;
                key.extend_from_slice(&[7, bits]);
            }
            Elem::Alt(a) => {
                key.push(8);
                key.extend_from_slice(&(a.opts.len() as u32).to_le_bytes());
                for o in &a.opts {
                    payload(key, o.as_bytes());
                }
                key.push(u8::from(a.optional));
            }
            Elem::Lit(_) => unreachable!("literals open a run above"),
        }
    }
    close(key, lit_at);
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
    fn generate(&self, cfg: &BaseConfig, out: &mut Distinct) {
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

/// Expands a template's cartesian product of choices into `out`,
/// stopping at `budget` variants (duplicates count) or when `out` is
/// full. Variants are built as borrowed elements in one accumulator.
fn expand(slots: &[Slot], budget: usize, out: &mut Distinct) {
    let mut acc: Vec<&Elem> = Vec::new();
    let mut produced = 0usize;
    expand_rec(slots, &mut acc, budget, &mut produced, out);
}

fn expand_rec<'a>(
    slots: &'a [Slot],
    acc: &mut Vec<&'a Elem>,
    budget: usize,
    produced: &mut usize,
    out: &mut Distinct,
) {
    if *produced >= budget || out.full {
        return;
    }
    let Some((slot, rest)) = slots.split_first() else {
        out.offer(acc);
        *produced += 1;
        return;
    };
    let opts = match slot {
        Slot::Fixed(elems) => std::slice::from_ref(elems),
        Slot::Choice(opts) => &opts[..],
    };
    for opt in opts {
        let mark = acc.len();
        acc.extend(opt);
        expand_rec(rest, acc, budget, produced, out);
        acc.truncate(mark);
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

    /// Two element sequences share a key exactly when `Regex::new`
    /// builds equal regexes from them: literal runs coalesce and empty
    /// literals vanish, and no payload bytes can pass for structure.
    #[test]
    fn variant_keys_are_equal_exactly_when_the_regexes_are() {
        let lit = |s: &str| Elem::Lit(s.to_string());
        let not_in = |s: &str| Elem::NotIn(s.to_string());
        let class = Elem::Class(crate::regex::CharClass { lower: true, digit: true, hyphen: false });
        let alt = |opts: &[&str], optional| {
            let opts = opts.iter().map(|o| o.to_string()).collect();
            Elem::Alt(crate::regex::AltGroup { opts, optional })
        };
        let seqs: Vec<Vec<Elem>> = vec![
            vec![lit("ab"), Elem::CaptureDigits],
            vec![lit("a"), lit("b"), Elem::CaptureDigits],
            vec![lit(""), lit("a"), lit(""), lit("b"), Elem::CaptureDigits, lit("")],
            vec![lit("a"), not_in("b"), Elem::CaptureDigits],
            // A literal spelling another sequence's tag and length bytes.
            vec![lit("a\u{6}\u{1}\0\0\0b"), Elem::CaptureDigits],
            vec![lit("a\u{6}"), Elem::CaptureDigits],
            vec![lit("a"), Elem::Digits, Elem::CaptureDigits],
            vec![Elem::StartAnchor, Elem::CaptureDigits, Elem::EndAnchor],
            vec![Elem::CaptureDigits, Elem::Any, class.clone()],
            vec![Elem::CaptureDigits, class, Elem::Any],
            vec![alt(&["p", "s"], true), Elem::CaptureDigits],
            vec![alt(&["p", "s"], false), Elem::CaptureDigits],
            vec![alt(&["ps"], true), Elem::CaptureDigits],
            vec![not_in(".-"), Elem::CaptureDigits],
            vec![not_in("."), lit("-"), Elem::CaptureDigits],
            vec![],
            vec![lit("")],
        ];
        let key = |seq: &[Elem]| {
            let refs: Vec<&Elem> = seq.iter().collect();
            let mut k = Vec::new();
            key_into(&refs, &mut k);
            k
        };
        for a in &seqs {
            for b in &seqs {
                let same_regex = Regex::new(a.clone()) == Regex::new(b.clone());
                assert_eq!(key(a) == key(b), same_regex, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn typo_congruent_run_is_candidate() {
        // 22822 vs training 22282 (transposition) still donates structure.
        let st = st(&[("22822-2.tyo.equinix.com", 22282)], "equinix.com");
        let got = strings(&generate(&st, &BaseConfig::default()));
        assert!(got.iter().any(|g| g == r"^(\d+)-.+\.equinix\.com$"), "{got:?}");
    }
}
