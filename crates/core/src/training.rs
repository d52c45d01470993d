//! Training data: observations of (hostname, interface address, training
//! ASN), grouped by suffix.
//!
//! The training ASN is whatever a heuristic router-ownership method
//! (RouterToAsAssignment, bdrmapIT) inferred for the router owning the
//! interface, or the ASN an operator recorded in PeeringDB (paper §3).
//! Hoiho learns one naming convention per *suffix* — the registrable
//! domain of the hostname per the public suffix list.
//!
//! [`SuffixTraining`] precomputes, per hostname, everything evaluation
//! needs repeatedly: the lowercased hostname, its local part, the spans of
//! the interface address embedded in the hostname, and whether an apparent
//! ASN is present (§3.1).

use crate::apparent::apparent_asn;
use crate::iputil::{embedded_ip_spans, parse_ipv4, Ipv4};
use hoiho_psl::PublicSuffixList;
use std::collections::BTreeMap;

/// One training observation: an interface with a hostname and the ASN the
/// training source attributes to its router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// The PTR hostname (stored lowercased).
    pub hostname: String,
    /// The interface's IPv4 address.
    pub addr: Ipv4,
    /// The training ASN for the router owning this interface.
    pub training_asn: u32,
}

impl Observation {
    /// Creates an observation, lowercasing the hostname.
    pub fn new(hostname: &str, addr: Ipv4, training_asn: u32) -> Observation {
        Observation { hostname: hostname.to_ascii_lowercase(), addr, training_asn }
    }
}

/// A hostname with evaluation-relevant facts precomputed.
#[derive(Debug, Clone)]
pub struct HostObs {
    /// Lowercased full hostname.
    pub hostname: String,
    /// The local part (hostname minus `.suffix`), empty when the hostname
    /// equals the suffix.
    pub local: String,
    /// The interface address.
    pub addr: Ipv4,
    /// The training ASN.
    pub training_asn: u32,
    /// Spans of the interface address embedded in the hostname.
    pub ip_spans: Vec<(usize, usize)>,
    /// Span of the apparent ASN, if the hostname contains one.
    pub apparent: Option<(usize, usize)>,
}

impl HostObs {
    /// Builds a [`HostObs`] for a hostname known to end in `.suffix`.
    pub fn build(obs: &Observation, suffix: &str) -> HostObs {
        let hostname = obs.hostname.clone();
        let local = crate::label::local_part(&hostname, suffix).unwrap_or("").to_string();
        let ip_spans = embedded_ip_spans(&hostname, obs.addr);
        let apparent = apparent_asn(&hostname, obs.training_asn, &ip_spans);
        HostObs { hostname, local, addr: obs.addr, training_asn: obs.training_asn, ip_spans, apparent }
    }

    /// True if the hostname contains an apparent ASN (§3.1): a digit run
    /// congruent with the training ASN, outside any embedded IP address.
    pub fn has_apparent(&self) -> bool {
        self.apparent.is_some()
    }
}

/// All hostnames of one suffix, ready for learning.
#[derive(Debug, Clone)]
pub struct SuffixTraining {
    /// The registrable-domain suffix (e.g. `equinix.com`).
    pub suffix: String,
    /// The precomputed hostname observations.
    pub hosts: Vec<HostObs>,
}

impl SuffixTraining {
    /// Builds a suffix group directly from observations (each hostname
    /// must end in `.suffix`).
    pub fn build(suffix: &str, obs: &[Observation]) -> SuffixTraining {
        SuffixTraining {
            suffix: suffix.to_string(),
            hosts: obs.iter().map(|o| HostObs::build(o, suffix)).collect(),
        }
    }

    /// Number of hostnames with an apparent ASN.
    pub fn apparent_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.has_apparent()).count()
    }
}

/// A flat collection of observations, convertible into per-suffix groups.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    obs: Vec<Observation>,
}

impl TrainingSet {
    /// Creates an empty training set.
    pub fn new() -> TrainingSet {
        TrainingSet::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, o: Observation) {
        self.obs.push(o);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// All observations.
    pub fn observations(&self) -> &[Observation] {
        &self.obs
    }

    /// Parses the training-file format of the command-line tools: one
    /// `asn addr hostname` observation per line; blank lines and `#`
    /// comments are skipped. Errors name the 1-based line.
    pub fn parse(text: &str) -> Result<TrainingSet, String> {
        let mut ts = TrainingSet::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
            let mut it = line.split_whitespace();
            let asn: u32 = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| err("bad ASN"))?;
            let addr = it.next().and_then(parse_ipv4).ok_or_else(|| err("bad address"))?;
            let hostname = it.next().ok_or_else(|| err("missing hostname"))?;
            if it.next().is_some() {
                return Err(err("trailing fields"));
            }
            ts.push(Observation::new(hostname, addr, asn));
        }
        Ok(ts)
    }

    /// Groups observations by registrable domain. Hostnames without a
    /// registrable domain (bare public suffixes, malformed names) are
    /// dropped. Groups come back sorted by suffix for determinism.
    pub fn by_suffix(&self, psl: &PublicSuffixList) -> Vec<SuffixTraining> {
        let mut groups: BTreeMap<String, Vec<&Observation>> = BTreeMap::new();
        for o in &self.obs {
            if let Some(suffix) = psl.registrable_domain(&o.hostname) {
                groups.entry(suffix).or_default().push(o);
            }
        }
        groups
            .into_iter()
            .map(|(suffix, list)| SuffixTraining {
                hosts: list.iter().map(|o| HostObs::build(o, &suffix)).collect(),
                suffix,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_by_suffix() {
        let psl = PublicSuffixList::builtin();
        let mut ts = TrainingSet::new();
        ts.push(Observation::new("A.B.equinix.com", [1, 2, 3, 4], 100));
        ts.push(Observation::new("c.equinix.com", [1, 2, 3, 5], 200));
        ts.push(Observation::new("as1.nts.ch", [1, 2, 3, 6], 300));
        ts.push(Observation::new("com", [1, 2, 3, 7], 400)); // no registrable
        let groups = ts.by_suffix(&psl);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].suffix, "equinix.com");
        assert_eq!(groups[0].hosts.len(), 2);
        assert_eq!(groups[0].hosts[0].hostname, "a.b.equinix.com"); // lowercased
        assert_eq!(groups[0].hosts[0].local, "a.b");
        assert_eq!(groups[1].suffix, "nts.ch");
    }

    #[test]
    fn training_file_parses_valid_lines_and_rejects_malformed() {
        let ts = TrainingSet::parse(
            "# comment\n64500 192.0.2.1 AS64500.x.example.net\n\n  64501 192.0.2.2 as64501.y.example.net\n",
        )
        .unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(
            ts.observations()[0],
            Observation::new("as64500.x.example.net", [192, 0, 2, 1], 64500)
        );
        assert_eq!(ts.observations()[1].training_asn, 64501);
        for (bad, what) in [
            ("x 192.0.2.1 host", "line 1: bad ASN"),
            ("1 not-an-ip host", "line 1: bad address"),
            ("# c\n1 192.0.2.1", "line 2: missing hostname"),
            ("1 192.0.2.1 host extra", "line 1: trailing fields"),
        ] {
            let e = TrainingSet::parse(bad).unwrap_err();
            assert!(e.starts_with(what), "{bad:?}: {e}");
        }
    }

    #[test]
    fn host_obs_precomputation() {
        let o = Observation::new("as24940.akl-ix.nz", [5, 6, 7, 8], 24940);
        let h = HostObs::build(&o, "akl-ix.nz");
        assert_eq!(h.local, "as24940");
        assert_eq!(h.apparent, Some((2, 7)));
        assert!(h.ip_spans.is_empty());
    }

    #[test]
    fn host_obs_ip_spans_block_apparent() {
        let o = Observation::new(
            "209-201-58-109.dia.stat.centurylink.net",
            [209, 201, 58, 109],
            209,
        );
        let h = HostObs::build(&o, "centurylink.net");
        assert!(!h.ip_spans.is_empty());
        assert_eq!(h.apparent, None);
    }

    #[test]
    fn apparent_count() {
        let obs = vec![
            Observation::new("as100.x.example.com", [1, 1, 1, 1], 100),
            Observation::new("nothing.x.example.com", [1, 1, 1, 2], 100),
        ];
        let st = SuffixTraining::build("example.com", &obs);
        assert_eq!(st.apparent_count(), 1);
        assert_eq!(st.hosts[1].apparent, None);
    }
}
