//! The model artifact: a line-based text serialization of a full
//! learned model.
//!
//! A *model* is what an offline learning run produces and a serving
//! process consumes: every learned naming convention with its regexes,
//! §4 quality class, single-ASN flag, Table 1 taxonomy, and evaluation
//! counts. The format is tab-separated records in the spirit of
//! CAIDA's ITDK text files:
//!
//! ```text
//! # comments and blank lines are ignored anywhere
//! hoiho-model	1
//! S	equinix.com	good	0	complex	16
//! C	10	1	2	3	5	6
//! R	^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$
//! R	^(\d+)-.+\.equinix\.com$
//! E	1	2
//! ```
//!
//! * The header names the format and its version.
//! * `S` starts a convention: suffix, class label, single flag (0/1),
//!   taxonomy label, training hostname count.
//! * `C` carries the evaluation counts: TP, FP, FN, TN, unique
//!   congruent training ASNs, unique extracted values — exactly one per
//!   `S` block, before its regexes.
//! * `R` adds one regex (dialect of `hoiho::regex`) to the open block.
//! * The `E` trailer records the convention and regex totals, so a
//!   truncated file can never parse as a smaller valid model.
//!
//! Parsing is strict: every malformed, out-of-place, or missing record
//! is a [`ModelError`] naming the offending line — never a panic — and
//! [`Model::render`] → [`Model::parse`] → [`Model::render`] is a
//! fixpoint (property-tested in `tests/properties.rs`).

use hoiho::classify::NcClass;
use hoiho::convention::NamingConvention;
use hoiho::learner::LearnedConvention;
use hoiho::regex::Regex;
use hoiho::taxonomy::Taxonomy;
use std::collections::HashSet;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Format version written by [`Model::render`] and the only version
/// [`Model::parse`] accepts.
pub const FORMAT_VERSION: u32 = 1;

/// Scalar evaluation counts carried by the artifact (the set-valued
/// fields of [`hoiho::eval::Counts`] are reduced to their sizes — the
/// classification in §4 only ever consumes the sizes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// True positives.
    pub tp: u32,
    /// False positives.
    pub fp: u32,
    /// False negatives.
    pub fnn: u32,
    /// True negatives.
    pub tn: u32,
    /// Distinct training ASNs among TP hostnames.
    pub unique_tp_asns: u32,
    /// Distinct extracted values across TPs and FPs.
    pub unique_extracted: u32,
}

impl EvalCounts {
    /// Reduces full evaluation counts to the artifact's scalars.
    pub fn from_counts(c: &hoiho::eval::Counts) -> EvalCounts {
        EvalCounts {
            tp: c.tp,
            fp: c.fp,
            fnn: c.fnn,
            tn: c.tn,
            unique_tp_asns: c.unique_tp_asns.len() as u32,
            unique_extracted: c.unique_extracted.len() as u32,
        }
    }
}

/// One serialized naming convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelEntry {
    /// The suffix the convention applies to.
    pub suffix: String,
    /// §4 quality class.
    pub class: NcClass,
    /// True when the convention extracts one unique ASN (Figure 2).
    pub single: bool,
    /// Table 1 shape taxonomy.
    pub taxonomy: Taxonomy,
    /// Number of training hostnames the convention was learned from.
    pub hostnames: u64,
    /// Evaluation counts over the training data.
    pub counts: EvalCounts,
    /// The regexes, in evaluation (rank) order.
    pub regexes: Vec<Regex>,
}

impl ModelEntry {
    /// Converts a freshly learned convention into its artifact form.
    pub fn from_learned(lc: &LearnedConvention) -> ModelEntry {
        ModelEntry {
            suffix: lc.convention.suffix.clone(),
            class: lc.class,
            single: lc.single,
            taxonomy: lc.taxonomy,
            hostnames: lc.hostnames as u64,
            counts: EvalCounts::from_counts(&lc.counts),
            regexes: lc.convention.regexes.clone(),
        }
    }

    /// The entry's convention, ready for extraction.
    pub fn convention(&self) -> NamingConvention {
        NamingConvention::new(&self.suffix, self.regexes.clone())
    }
}

/// A full learned model: the unit of offline→serving handoff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    /// The conventions, in suffix order.
    pub entries: Vec<ModelEntry>,
}

/// A parse failure, pointing at the offending line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// 1-based line number; 0 when the failure is not tied to a line
    /// (e.g. an empty file).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl ModelError {
    fn at(line: usize, msg: impl Into<String>) -> ModelError {
        ModelError { line, msg: msg.into() }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ModelError {}

impl Model {
    /// Builds a model from learner output, sorted by suffix.
    pub fn from_learned(learned: &[LearnedConvention]) -> Model {
        let mut entries: Vec<ModelEntry> =
            learned.iter().map(ModelEntry::from_learned).collect();
        entries.sort_by(|a, b| a.suffix.cmp(&b.suffix));
        Model { entries }
    }

    /// Number of conventions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the model has no conventions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total regexes across all conventions.
    pub fn regex_count(&self) -> usize {
        self.entries.iter().map(|e| e.regexes.len()).sum()
    }

    /// Renders the artifact text. `parse(render(m)) == m` for every
    /// model whose suffixes are valid (non-empty, no whitespace).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("# hoiho-serve model artifact; format spec in DESIGN.md\n");
        let _ = writeln!(s, "hoiho-model\t{FORMAT_VERSION}");
        for e in &self.entries {
            let _ = writeln!(
                s,
                "S\t{}\t{}\t{}\t{}\t{}",
                e.suffix,
                e.class.label(),
                u8::from(e.single),
                e.taxonomy.label(),
                e.hostnames
            );
            let c = &e.counts;
            let _ = writeln!(
                s,
                "C\t{}\t{}\t{}\t{}\t{}\t{}",
                c.tp, c.fp, c.fnn, c.tn, c.unique_tp_asns, c.unique_extracted
            );
            for r in &e.regexes {
                let _ = writeln!(s, "R\t{r}");
            }
        }
        let _ = writeln!(s, "E\t{}\t{}", self.len(), self.regex_count());
        s
    }

    /// Parses the artifact text, reporting the first problem with its
    /// line number. Strictness guarantees: unknown record tags, short
    /// or overlong records, out-of-order records, duplicate suffixes,
    /// bad regexes, and truncation (missing or mismatched `E` trailer)
    /// are all errors.
    pub fn parse(text: &str) -> Result<Model, ModelError> {
        let mut entries: Vec<ModelEntry> = Vec::new();
        // Every suffix an `S` record has named so far. The artifact can
        // arrive from outside (`RELOAD`), so a duplicate check must cost
        // one probe however many entries precede it.
        let mut suffixes: HashSet<&str> = HashSet::new();
        // The entry currently being assembled: set by `S`, completed by
        // its `C` + `R` lines, flushed by the next `S` or the trailer.
        let mut open: Option<(usize, ModelEntry, bool)> = None; // (line, entry, saw_counts)
        let mut saw_header = false;
        let mut trailer: Option<usize> = None;

        let flush = |open: &mut Option<(usize, ModelEntry, bool)>,
                     entries: &mut Vec<ModelEntry>|
         -> Result<(), ModelError> {
            if let Some((line, entry, saw_counts)) = open.take() {
                if !saw_counts {
                    return Err(ModelError::at(
                        line,
                        format!("suffix {} has no C (counts) record", entry.suffix),
                    ));
                }
                if entry.regexes.is_empty() {
                    return Err(ModelError::at(
                        line,
                        format!("suffix {} has no R (regex) records", entry.suffix),
                    ));
                }
                entries.push(entry);
            }
            Ok(())
        };

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim_end_matches('\r');
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            if let Some(tl) = trailer {
                return Err(ModelError::at(
                    lineno,
                    format!("content after the E trailer on line {tl}"),
                ));
            }
            if !saw_header {
                let mut f = line.split('\t');
                if f.next() != Some("hoiho-model") {
                    return Err(ModelError::at(lineno, "missing hoiho-model header"));
                }
                let version: u32 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ModelError::at(lineno, "bad header version"))?;
                if version != FORMAT_VERSION {
                    return Err(ModelError::at(
                        lineno,
                        format!("unsupported model version {version} (expected {FORMAT_VERSION})"),
                    ));
                }
                if f.next().is_some() {
                    return Err(ModelError::at(lineno, "trailing fields in header"));
                }
                saw_header = true;
                continue;
            }
            let (tag, rest) = line.split_once('\t').unwrap_or((line, ""));
            match tag {
                "S" => {
                    flush(&mut open, &mut entries)?;
                    let fields: Vec<&str> = rest.split('\t').collect();
                    if fields.len() != 5 {
                        return Err(ModelError::at(
                            lineno,
                            format!("S record needs 5 fields, got {}", fields.len()),
                        ));
                    }
                    let suffix = fields[0];
                    if suffix.is_empty() || suffix.chars().any(|c| c.is_whitespace()) {
                        return Err(ModelError::at(lineno, "bad suffix"));
                    }
                    if !suffixes.insert(suffix) {
                        return Err(ModelError::at(
                            lineno,
                            format!("duplicate suffix {suffix}"),
                        ));
                    }
                    let class = NcClass::parse_label(fields[1]).ok_or_else(|| {
                        ModelError::at(lineno, format!("unknown class {:?}", fields[1]))
                    })?;
                    let single = match fields[2] {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(ModelError::at(
                                lineno,
                                format!("bad single flag {other:?} (want 0 or 1)"),
                            ))
                        }
                    };
                    let taxonomy = Taxonomy::parse_label(fields[3]).ok_or_else(|| {
                        ModelError::at(lineno, format!("unknown taxonomy {:?}", fields[3]))
                    })?;
                    let hostnames: u64 = fields[4].parse().map_err(|_| {
                        ModelError::at(lineno, format!("bad hostname count {:?}", fields[4]))
                    })?;
                    open = Some((
                        lineno,
                        ModelEntry {
                            suffix: suffix.to_string(),
                            class,
                            single,
                            taxonomy,
                            hostnames,
                            counts: EvalCounts::default(),
                            regexes: Vec::new(),
                        },
                        false,
                    ));
                }
                "C" => {
                    let Some((_, entry, saw_counts)) = open.as_mut() else {
                        return Err(ModelError::at(lineno, "C record outside an S block"));
                    };
                    if *saw_counts {
                        return Err(ModelError::at(
                            lineno,
                            format!("duplicate C record for suffix {}", entry.suffix),
                        ));
                    }
                    if !entry.regexes.is_empty() {
                        return Err(ModelError::at(lineno, "C record after R records"));
                    }
                    let nums: Vec<u32> = rest
                        .split('\t')
                        .map(|v| v.parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| ModelError::at(lineno, "bad count field"))?;
                    let [tp, fp, fnn, tn, uta, ue] = nums[..] else {
                        return Err(ModelError::at(
                            lineno,
                            format!("C record needs 6 fields, got {}", nums.len()),
                        ));
                    };
                    entry.counts = EvalCounts {
                        tp,
                        fp,
                        fnn,
                        tn,
                        unique_tp_asns: uta,
                        unique_extracted: ue,
                    };
                    *saw_counts = true;
                }
                "R" => {
                    let Some((_, entry, saw_counts)) = open.as_mut() else {
                        return Err(ModelError::at(lineno, "R record outside an S block"));
                    };
                    if !*saw_counts {
                        return Err(ModelError::at(lineno, "R record before the C record"));
                    }
                    let r = Regex::parse(rest)
                        .map_err(|e| ModelError::at(lineno, format!("bad regex: {e}")))?;
                    entry.regexes.push(r);
                }
                "E" => {
                    flush(&mut open, &mut entries)?;
                    let fields: Vec<&str> = rest.split('\t').collect();
                    let counts: Vec<u64> = fields
                        .iter()
                        .map(|v| v.parse::<u64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| ModelError::at(lineno, "bad trailer field"))?;
                    let [n_entries, n_regexes] = counts[..] else {
                        return Err(ModelError::at(
                            lineno,
                            format!("E trailer needs 2 fields, got {}", counts.len()),
                        ));
                    };
                    let model = Model { entries: std::mem::take(&mut entries) };
                    if n_entries != model.len() as u64 || n_regexes != model.regex_count() as u64
                    {
                        return Err(ModelError::at(
                            lineno,
                            format!(
                                "trailer mismatch: file says {n_entries} conventions / \
                                 {n_regexes} regexes, parsed {} / {}",
                                model.len(),
                                model.regex_count()
                            ),
                        ));
                    }
                    entries = model.entries;
                    trailer = Some(lineno);
                }
                other => {
                    return Err(ModelError::at(
                        lineno,
                        format!("unknown record tag {other:?}"),
                    ));
                }
            }
        }
        if !saw_header {
            return Err(ModelError::at(0, "empty model file (no header)"));
        }
        if trailer.is_none() {
            // Covers both an open S block and a clean cut between
            // blocks: without the trailer the file is truncated.
            return Err(ModelError::at(
                text.lines().count(),
                "truncated model: missing E trailer",
            ));
        }
        Ok(Model { entries })
    }

    /// Writes the rendered artifact to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Reads and parses an artifact file.
    pub fn load(path: impl AsRef<Path>) -> Result<Model, ModelError> {
        let text = std::fs::read_to_string(&path).map_err(|e| {
            ModelError::at(0, format!("cannot read {}: {e}", path.as_ref().display()))
        })?;
        Model::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(suffix: &str, rx: &[&str]) -> ModelEntry {
        ModelEntry {
            suffix: suffix.to_string(),
            class: NcClass::Good,
            single: false,
            taxonomy: Taxonomy::Start,
            hostnames: 12,
            counts: EvalCounts {
                tp: 9,
                fp: 1,
                fnn: 2,
                tn: 0,
                unique_tp_asns: 4,
                unique_extracted: 5,
            },
            regexes: rx.iter().map(|s| Regex::parse(s).unwrap()).collect(),
        }
    }

    fn model() -> Model {
        Model {
            entries: vec![
                entry("equinix.com", &[r"^(\d+)-.+\.equinix\.com$", r"^as(\d+)\.equinix\.com$"]),
                entry("nts.ch", &[r"as(\d+)\.nts\.ch$"]),
            ],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let m = model();
        let text = m.render();
        let parsed = Model::parse(&text).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn empty_model_round_trips() {
        let m = Model::default();
        assert_eq!(Model::parse(&m.render()).unwrap(), m);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("# leading\n\n{}\n# trailing comment\n\n", model().render());
        assert_eq!(Model::parse(&text).unwrap(), model());
    }

    #[test]
    fn truncation_is_detected() {
        let text = model().render();
        let lines: Vec<&str> = text.lines().collect();
        // Every strict prefix that drops at least the trailer must fail.
        for cut in 0..lines.len() {
            let prefix = lines[..cut].join("\n");
            assert!(
                Model::parse(&prefix).is_err(),
                "prefix of {cut} lines parsed as a valid model"
            );
        }
    }

    #[test]
    fn trailer_counts_enforced() {
        let good = model().render();
        let bad = good.replace("E\t2\t3", "E\t1\t3");
        let err = Model::parse(&bad).unwrap_err();
        assert!(err.msg.contains("trailer mismatch"), "{err}");
        let bad = good.replace("E\t2\t3", "E\t2\t2");
        assert!(Model::parse(&bad).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Model::parse("hoiho-model\t1\nX\twhat\nE\t0\t0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2:"), "{err}");

        let err = Model::parse("hoiho-model\t1\nR\t^(\\d+)$\nE\t0\t0\n").unwrap_err();
        assert_eq!((err.line, err.msg.contains("outside an S block")), (2, true));

        let err =
            Model::parse("hoiho-model\t1\nS\tx.com\tgood\t0\tstart\t3\nC\t1\t0\t0\t0\t1\t1\nR\t((\nE\t1\t1\n")
                .unwrap_err();
        assert_eq!((err.line, err.msg.starts_with("bad regex")), (4, true));
    }

    #[test]
    fn duplicate_suffix_reported_at_its_line_in_a_large_model() {
        let mut m = Model {
            entries: (0..5000).map(|i| entry(&format!("s{i}.net"), &[r"^as(\d+)\."])).collect(),
        };
        m.entries.push(entry("s0.net", &[r"^as(\d+)\."]));
        let err = Model::parse(&m.render()).unwrap_err();
        // The comment and the header, then S, C and R lines per entry.
        assert_eq!(err.line, 2 + 3 * 5000 + 1);
        assert_eq!(err.msg, "duplicate suffix s0.net");
    }

    #[test]
    fn structural_errors_rejected() {
        // Duplicate suffix.
        let mut m = model();
        m.entries[1].suffix = "equinix.com".into();
        assert!(Model::parse(&m.render()).unwrap_err().msg.contains("duplicate suffix"));
        // Wrong version.
        assert!(Model::parse("hoiho-model\t9\nE\t0\t0\n")
            .unwrap_err()
            .msg
            .contains("unsupported model version"));
        // Missing header.
        assert!(Model::parse("S\tx.com\tgood\t0\tstart\t1\n").is_err());
        // No regexes in a block.
        assert!(Model::parse(
            "hoiho-model\t1\nS\tx.com\tgood\t0\tstart\t1\nC\t1\t0\t0\t0\t1\t1\nE\t1\t0\n"
        )
        .unwrap_err()
        .msg
        .contains("no R"));
        // Regexes before counts.
        assert!(Model::parse(
            "hoiho-model\t1\nS\tx.com\tgood\t0\tstart\t1\nR\t^as(\\d+)\\.x\\.com$\nE\t1\t1\n"
        )
        .unwrap_err()
        .msg
        .contains("before the C record"));
        // Content after the trailer.
        let text = format!("{}S\ty.com\tgood\t0\tstart\t1\n", model().render());
        assert!(Model::parse(&text).unwrap_err().msg.contains("after the E trailer"));
    }

    #[test]
    fn from_learned_sorts_by_suffix() {
        use hoiho::learner::{learn_all, LearnConfig};
        use hoiho::training::{Observation, TrainingSet};
        let mut ts = TrainingSet::new();
        for (h, a) in [
            ("as1000.a.zzz-example.net", 1000u32),
            ("as2000.b.zzz-example.net", 2000),
            ("as3000.c.zzz-example.net", 3000),
            ("as64500.border1.example.com", 64500),
            ("as64501.border2.example.com", 64501),
            ("as64502.core3.example.com", 64502),
        ] {
            ts.push(Observation::new(h, [192, 0, 2, 1], a));
        }
        let learned =
            learn_all(&ts.by_suffix(&hoiho_psl::PublicSuffixList::builtin()), &LearnConfig::default());
        let m = Model::from_learned(&learned);
        assert_eq!(m.len(), 2);
        assert_eq!(m.entries[0].suffix, "example.com");
        assert_eq!(m.entries[1].suffix, "zzz-example.net");
        assert!(m.entries.iter().all(|e| !e.regexes.is_empty()));
        assert_eq!(Model::parse(&m.render()).unwrap(), m);
    }
}
