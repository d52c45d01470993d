//! ITDK text formats.
//!
//! The real kits ship routers and annotations as line-based text files;
//! the same formats here let snapshots be stored and diffed:
//!
//! * `nodes`    — `node N<i>:  <addr> <addr> ...`
//! * `nodes.as` — `node.AS N<i> <asn> <method>`
//! * `hostnames` — `<addr> <hostname>`

use hoiho_asdb::{addr_parse, addr_to_string, Addr, Asn};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A stored snapshot: routers, annotations, hostnames.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItdkFiles {
    /// Router id → interface addresses.
    pub nodes: BTreeMap<u32, Vec<Addr>>,
    /// Router id → (ASN, method tag).
    pub node_as: BTreeMap<u32, (Asn, String)>,
    /// Address → hostname.
    pub hostnames: BTreeMap<Addr, String>,
}

impl ItdkFiles {
    /// Renders the `nodes` file.
    pub fn nodes_file(&self) -> String {
        let mut out = String::new();
        for (id, addrs) in &self.nodes {
            let list: Vec<String> = addrs.iter().map(|&a| addr_to_string(a)).collect();
            let _ = writeln!(out, "node N{}:  {}", id, list.join(" "));
        }
        out
    }

    /// Renders the `nodes.as` file.
    pub fn node_as_file(&self) -> String {
        let mut out = String::new();
        for (id, (asn, method)) in &self.node_as {
            let _ = writeln!(out, "node.AS N{id} {asn} {method}");
        }
        out
    }

    /// Renders the `hostnames` file.
    pub fn hostnames_file(&self) -> String {
        let mut out = String::new();
        for (addr, name) in &self.hostnames {
            let _ = writeln!(out, "{} {}", addr_to_string(*addr), name);
        }
        out
    }

    /// Parses all three files (any may be empty).
    pub fn parse(nodes: &str, node_as: &str, hostnames: &str) -> Result<ItdkFiles, String> {
        let mut out = ItdkFiles::default();
        for (lineno, raw) in nodes.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("nodes line {}: {m}: {line}", lineno + 1);
            let rest = line.strip_prefix("node N").ok_or_else(|| err("bad prefix"))?;
            let (id_s, addrs_s) = rest.split_once(':').ok_or_else(|| err("missing colon"))?;
            let id: u32 = id_s.trim().parse().map_err(|_| err("bad id"))?;
            let mut addrs = Vec::new();
            for tok in addrs_s.split_whitespace() {
                addrs.push(addr_parse(tok).ok_or_else(|| err("bad address"))?);
            }
            out.nodes.insert(id, addrs);
        }
        for (lineno, raw) in node_as.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("nodes.as line {}: {m}: {line}", lineno + 1);
            let rest = line.strip_prefix("node.AS N").ok_or_else(|| err("bad prefix"))?;
            let mut it = rest.split_whitespace();
            let id: u32 = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad id"))?;
            let asn: Asn = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad asn"))?;
            let method = it.next().unwrap_or("unknown").to_string();
            out.node_as.insert(id, (asn, method));
        }
        for (lineno, raw) in hostnames.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("hostnames line {}: {m}: {line}", lineno + 1);
            let (addr_s, name) = line.split_once(' ').ok_or_else(|| err("missing space"))?;
            let addr = addr_parse(addr_s).ok_or_else(|| err("bad address"))?;
            out.hostnames.insert(addr, name.trim().to_string());
        }
        Ok(out)
    }
}

/// Extracts the stored-file view of a built snapshot.
pub fn files_of(snap: &crate::BuiltSnapshot) -> ItdkFiles {
    let mut out = ItdkFiles::default();
    for (idx, node) in snap.graph.routers.iter().enumerate() {
        let id = idx as u32;
        out.nodes.insert(id, node.interfaces.clone());
        if let Some(asn) = snap.owners.get(idx).copied().flatten() {
            out.node_as.insert(id, (asn, snap.spec.method.label().to_string()));
        }
    }
    out.hostnames = snap.hostnames();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ItdkFiles {
        let mut f = ItdkFiles::default();
        f.nodes.insert(1, vec![addr_parse("10.0.0.1").unwrap(), addr_parse("20.0.0.1").unwrap()]);
        f.nodes.insert(2, vec![addr_parse("30.0.0.1").unwrap()]);
        f.node_as.insert(1, (64500, "bdrmapIT".to_string()));
        f.hostnames
            .insert(addr_parse("10.0.0.1").unwrap(), "as64500.x.example.com".to_string());
        f
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let parsed =
            ItdkFiles::parse(&f.nodes_file(), &f.node_as_file(), &f.hostnames_file()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn file_shapes() {
        let f = sample();
        assert!(f.nodes_file().starts_with("node N1:  10.0.0.1 20.0.0.1"));
        assert_eq!(f.node_as_file().trim(), "node.AS N1 64500 bdrmapIT");
        assert_eq!(f.hostnames_file().trim(), "10.0.0.1 as64500.x.example.com");
    }

    #[test]
    fn parse_errors() {
        assert!(ItdkFiles::parse("garbage", "", "").is_err());
        assert!(ItdkFiles::parse("node Nx: 1.2.3.4", "", "").is_err());
        assert!(ItdkFiles::parse("", "node.AS N1 x", "").is_err());
        assert!(ItdkFiles::parse("", "", "1.2.3.4").is_err());
        assert!(ItdkFiles::parse("", "", "bad.addr host").is_err());
    }

    #[test]
    fn comments_skipped() {
        let f = ItdkFiles::parse("# hi\n", "# hi\n", "# hi\n").unwrap();
        assert!(f.nodes.is_empty());
    }

    #[test]
    fn files_of_built_snapshot() {
        let spec = crate::SnapshotSpec {
            label: "t".into(),
            method: crate::Method::BdrmapIt,
            cfg: hoiho_netsim::SimConfig::tiny(71),
            alias_split: 0.3,
        };
        let snap = crate::BuiltSnapshot::build(&spec);
        let files = files_of(&snap);
        assert_eq!(files.nodes.len(), snap.graph.len());
        assert!(!files.hostnames.is_empty());
        assert!(!files.node_as.is_empty());
        // Round-trips through text.
        let parsed = ItdkFiles::parse(
            &files.nodes_file(),
            &files.node_as_file(),
            &files.hostnames_file(),
        )
        .unwrap();
        assert_eq!(parsed, files);
    }
}
