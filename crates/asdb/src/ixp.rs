//! IXP directory: peering LANs and members.
//!
//! Internet Exchange Points connect many ASes over a shared LAN whose
//! prefix is originated (if at all) by the IXP's own ASN, not by the
//! members using the addresses — exactly the situation where hostnames
//! carry the only reliable ownership signal, and where PeeringDB records
//! operator ground truth (paper §4–§5).

use crate::prefix::Prefix;
use crate::{Addr, Asn};
use std::fmt::Write as _;

/// One IXP: its peering LAN prefix and member ASNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ixp {
    /// Dense identifier within the directory.
    pub id: u32,
    /// Display name, e.g. `AKL-IX`.
    pub name: String,
    /// The peering LAN prefix.
    pub lan: Prefix,
    /// Member ASNs, sorted.
    pub members: Vec<Asn>,
}

/// A collection of IXPs with prefix lookup.
#[derive(Debug, Clone, Default)]
pub struct IxpDirectory {
    ixps: Vec<Ixp>,
}

impl IxpDirectory {
    /// Creates an empty directory.
    pub fn new() -> IxpDirectory {
        IxpDirectory::default()
    }

    /// Adds an IXP, returning its id.
    pub fn add(&mut self, name: &str, lan: Prefix, members: &[Asn]) -> u32 {
        let id = self.ixps.len() as u32;
        let mut members: Vec<Asn> = members.to_vec();
        members.sort_unstable();
        members.dedup();
        self.ixps.push(Ixp { id, name: name.to_string(), lan, members });
        id
    }

    /// All IXPs.
    pub fn ixps(&self) -> &[Ixp] {
        &self.ixps
    }

    /// Number of IXPs.
    pub fn len(&self) -> usize {
        self.ixps.len()
    }

    /// True when the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.ixps.is_empty()
    }

    /// The IXP whose LAN contains `addr`, if any.
    pub fn ixp_for_addr(&self, addr: Addr) -> Option<&Ixp> {
        self.ixps.iter().find(|x| x.lan.contains(addr))
    }

    /// Parses the text format `name|prefix|asn,asn,...`.
    pub fn parse(text: &str) -> Result<IxpDirectory, String> {
        let mut out = IxpDirectory::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
            let mut parts = line.splitn(3, '|');
            let name = parts.next().ok_or_else(|| err("missing name"))?;
            let lan: Prefix = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad prefix"))?;
            let members_str = parts.next().unwrap_or("");
            let mut members = Vec::new();
            for m in members_str.split(',').filter(|s| !s.is_empty()) {
                members.push(m.parse::<Asn>().map_err(|_| err("bad member ASN"))?);
            }
            out.add(name, lan, &members);
        }
        Ok(out)
    }

    /// Renders the directory in the `name|prefix|members` format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for x in &self.ixps {
            let members: Vec<String> = x.members.iter().map(|m| m.to_string()).collect();
            let _ = writeln!(out, "{}|{}|{}", x.name, x.lan, members.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr_parse;
    use std::collections::BTreeSet;

    fn dir() -> IxpDirectory {
        let mut d = IxpDirectory::new();
        d.add("AKL-IX", "203.0.113.0/24".parse().unwrap(), &[24940, 9500, 681]);
        d.add("SWISS-IX", "198.51.100.0/25".parse().unwrap(), &[205073, 3356]);
        d
    }

    #[test]
    fn lookup_by_addr() {
        let d = dir();
        let ix = d.ixp_for_addr(addr_parse("203.0.113.7").unwrap()).unwrap();
        assert_eq!(ix.name, "AKL-IX");
        assert_eq!(ix.members, vec![681, 9500, 24940]);
        assert!(d.ixp_for_addr(addr_parse("198.51.100.1").unwrap()).is_some());
        assert!(d.ixp_for_addr(addr_parse("198.51.100.200").unwrap()).is_none());
        assert!(d.ixp_for_addr(addr_parse("8.8.8.8").unwrap()).is_none());
    }

    #[test]
    fn members_aggregate() {
        let d = dir();
        let all: BTreeSet<Asn> = d.ixps().iter().flat_map(|x| x.members.iter().copied()).collect();
        assert_eq!(all, BTreeSet::from([681, 3356, 9500, 24940, 205073]));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn parse_and_render_roundtrip() {
        let d = dir();
        let text = d.to_text();
        let d2 = IxpDirectory::parse(&text).unwrap();
        assert_eq!(d2.to_text(), text);
        assert_eq!(d2.ixps().len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(IxpDirectory::parse("name|bad|1").is_err());
        assert!(IxpDirectory::parse("name|10.0.0.0/8|x").is_err());
        let d = IxpDirectory::parse("lonely|10.0.0.0/24|\n").unwrap();
        assert!(d.ixps()[0].members.is_empty());
    }

    #[test]
    fn dedup_members() {
        let mut d = IxpDirectory::new();
        d.add("X", "10.0.0.0/24".parse().unwrap(), &[5, 5, 1]);
        assert_eq!(d.ixps()[0].members, vec![1, 5]);
    }
}
