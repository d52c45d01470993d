//! Operator naming conventions.
//!
//! Each operator (AS) gets a domain suffix and a [`StyleKind`] drawn from
//! the configured mixture. The styles mirror the paper's Table 1 taxonomy
//! plus the confounders its figures document:
//!
//! | style      | example                                   | paper ref |
//! |------------|-------------------------------------------|-----------|
//! | `Simple`   | `as64500.tele-nova.net`                   | Table 1   |
//! | `Start`    | `as64500-xe-1-2-0.fra.tele-nova.net`      | Table 1   |
//! | `End`      | `ae3.fra.as64500.tele-nova.net`           | Table 1   |
//! | `Bare`     | `64500-fra2-ix.tele-nova.net`             | Table 1   |
//! | `Complex`  | `cust64500.fra.tele-nova.net`, mixes      | Table 1   |
//! | `OwnAsn`   | `r1.acme.cust.as64499.tele-nova.net`      | Figure 2  |
//! | `AsName`   | `ae3.fra.acmecorp.tele-nova.net`          | Figure 1  |
//! | `IpEmbed`  | `192-0-2-41.static.tele-nova.net`         | Figure 3b |
//! | `Infra`    | `te0-0-1.cr2.fra.tele-nova.net`           | —         |
//! | `None`     | (no PTR record)                           | —         |
//!
//! Rendering is deterministic in the inputs; staleness and typos are
//! separate, explicit transformations so the simulator can record ground
//! truth about which hostnames lie.

use hoiho_devkit::rngs::StdRng;
use hoiho_devkit::RngExt;

/// What an operator encodes in the hostnames it assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StyleKind {
    /// No PTR records at all.
    None,
    /// Infrastructure names without AS information.
    Infra,
    /// `^as<asn>\.suffix$` and nothing else.
    Simple,
    /// Neighbor ASN at the start of the hostname.
    Start,
    /// Neighbor ASN at the end of the hostname.
    End,
    /// Neighbor ASN without an alphabetic annotation.
    Bare,
    /// Neighbor ASN mid-hostname, unusual annotation, or mixed formats.
    Complex,
    /// The operator's own ASN in every hostname (Figure 2).
    OwnAsn,
    /// The neighbor's organization name instead of its number.
    AsName,
    /// Hostnames derived from the interface address (Figure 3b).
    IpEmbed,
}

impl StyleKind {
    /// All styles, in the order of
    /// [`crate::config::StyleMix::weights`].
    pub const ALL: [StyleKind; 10] = [
        StyleKind::None,
        StyleKind::Infra,
        StyleKind::Simple,
        StyleKind::Start,
        StyleKind::End,
        StyleKind::Bare,
        StyleKind::Complex,
        StyleKind::OwnAsn,
        StyleKind::AsName,
        StyleKind::IpEmbed,
    ];

    /// True when the style embeds the *neighbor's* ASN in interconnect
    /// hostnames — the conventions Hoiho should learn as usable.
    pub fn embeds_neighbor_asn(self) -> bool {
        matches!(
            self,
            StyleKind::Simple | StyleKind::Start | StyleKind::End | StyleKind::Bare | StyleKind::Complex
        )
    }

    /// The scenario-grammar key for the style (also used in
    /// validation errors).
    pub fn label(self) -> &'static str {
        match self {
            StyleKind::None => "none",
            StyleKind::Infra => "infra",
            StyleKind::Simple => "simple",
            StyleKind::Start => "start",
            StyleKind::End => "end",
            StyleKind::Bare => "bare",
            StyleKind::Complex => "complex",
            StyleKind::OwnAsn => "own_asn",
            StyleKind::AsName => "as_name",
            StyleKind::IpEmbed => "ip_embed",
        }
    }

    /// Samples a style from weighted `mix` (weights aligned to
    /// [`StyleKind::ALL`]). Callers are responsible for rejecting a
    /// zero-total mix first ([`crate::config::StyleMix::validate`]);
    /// with a zero total every draw degenerates to the first style.
    pub fn sample(weights: &[f64; 10], rng: &mut StdRng) -> StyleKind {
        debug_assert!(
            weights.iter().sum::<f64>() > 0.0,
            "sampling from a zero-total style mix; validate the config first"
        );
        let total: f64 = weights.iter().sum();
        let mut x = rng.random::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return StyleKind::ALL[i];
            }
            x -= w;
        }
        StyleKind::None
    }
}

/// Which vendor's gear an operator runs — visible in hostnames through
/// the vendor's interface-name fragments, the signal "Classifying
/// Network Vendors at Internet Scale" (PAPERS.md) classifies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VendorKind {
    /// Vendor-neutral fragments (the original simulator table).
    Generic,
    /// Juniper-style fragments.
    Juniper,
    /// Cisco-style fragments.
    Cisco,
    /// Arista-style fragments.
    Arista,
}

impl VendorKind {
    /// All vendors, in the order of
    /// [`crate::config::VendorMix::weights`].
    pub const ALL: [VendorKind; 4] =
        [VendorKind::Generic, VendorKind::Juniper, VendorKind::Cisco, VendorKind::Arista];

    /// The scenario-grammar key for the vendor.
    pub fn label(self) -> &'static str {
        match self {
            VendorKind::Generic => "generic",
            VendorKind::Juniper => "juniper",
            VendorKind::Cisco => "cisco",
            VendorKind::Arista => "arista",
        }
    }

    /// The vendor's interface-name fragments.
    fn ifaces(self) -> &'static [&'static str] {
        match self {
            VendorKind::Generic => IFACES,
            VendorKind::Juniper => IFACES_JUNIPER,
            VendorKind::Cisco => IFACES_CISCO,
            VendorKind::Arista => IFACES_ARISTA,
        }
    }

    /// Samples a vendor from weighted `mix` (weights aligned to
    /// [`VendorKind::ALL`]). Same zero-total contract as
    /// [`StyleKind::sample`].
    pub fn sample(weights: &[f64; 4], rng: &mut StdRng) -> VendorKind {
        debug_assert!(
            weights.iter().sum::<f64>() > 0.0,
            "sampling from a zero-total vendor mix; validate the config first"
        );
        let total: f64 = weights.iter().sum();
        let mut x = rng.random::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return VendorKind::ALL[i];
            }
            x -= w;
        }
        VendorKind::Generic
    }
}

/// Point-of-presence codes operators sprinkle into hostnames.
const POPS: &[&str] = &[
    "akl", "syd", "lax", "nyc", "fra", "lhr", "ams", "sin", "tyo", "mel", "chi", "dal", "sea",
    "mia", "par", "mad", "zrh", "vie", "waw", "sto", "hel", "osl", "cph", "dub", "yyz", "gru",
    "scl", "bog", "mex", "hkg",
];

/// Interface-name fragments (hostname-safe, vendor-neutral).
const IFACES: &[&str] = &[
    "ge0-1", "te0-0-1", "xe-1-2-0", "ae3", "be127", "hu0-1-0-3", "et-0-0-49", "te1-4", "ge2-0",
    "ae12", "xe-0-0-3", "te0-7-0-5",
];

/// Juniper-style interface fragments (`xe`/`ge`/`et` with FPC-PIC-port
/// triples, `ae` bundles, `irb` units).
const IFACES_JUNIPER: &[&str] = &[
    "xe-0-1-0", "xe-2-0-3", "ge-1-0-7", "et-0-0-49", "ae5", "ae31", "irb-310", "xe-1-2-0",
    "ge-0-3-1", "et-3-1-0", "ae12", "xe-4-0-1",
];

/// Cisco-style interface fragments (`te`/`gi`/`hu` rack-slot-port,
/// `be` bundles, `po` port-channels).
const IFACES_CISCO: &[&str] = &[
    "te0-0-0-1", "te0-1-0-5", "gi0-0-0-12", "hu0-2-0-0", "be127", "be14", "po23", "te1-4",
    "gi0-1", "hu0-1-0-3", "be202", "te0-7-0-5",
];

/// Arista-style interface fragments (flat `et` ports with breakouts,
/// `po` channels, `vlan` SVIs).
const IFACES_ARISTA: &[&str] = &[
    "et49", "et50-1", "et3", "et12-4", "po100", "po7", "vlan210", "et25-1", "et61", "po12",
    "vlan3020", "et17",
];

/// Link bandwidths for conventions that annotate them (in Gbit/s).
const BANDWIDTHS: &[u32] = &[1, 10, 40, 100];

/// Name syllables for synthetic operator brands.
const SYLLABLES: &[&str] = &[
    "tel", "net", "air", "fib", "lux", "nova", "west", "east", "nor", "sud", "alt", "giga",
    "meta", "path", "core", "wave", "link", "zen", "vel", "oro", "stra", "mon", "hel", "bal",
    "pan", "riv", "sol", "ter", "vok", "quan",
];

/// Top-level domains for operator suffixes (weighted towards `.net`).
const TLDS: &[&str] = &[
    "net", "net", "net", "com", "com", "ch", "de", "io", "nl", "fr", "pl", "cz", "se", "nz",
    "co.uk", "net.uy", "net.au", "com.br", "co.jp", "org",
];

/// Generates a hostname-safe brand slug, e.g. `telnova` or `fib-west`.
pub fn brand_slug(rng: &mut StdRng) -> String {
    let n = 2 + usize::from(rng.random_bool(0.35));
    let mut s = String::new();
    for i in 0..n {
        if i > 0 && rng.random_bool(0.12) {
            s.push('-');
        }
        s.push_str(SYLLABLES[rng.random_range(0..SYLLABLES.len())]);
    }
    s
}

/// Generates an operator suffix (registrable domain) from a brand.
pub fn suffix_for(brand: &str, rng: &mut StdRng) -> String {
    format!("{brand}.{}", TLDS[rng.random_range(0..TLDS.len())])
}

/// One operator's naming convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorNaming {
    /// The style of the convention.
    pub kind: StyleKind,
    /// The operator's domain suffix (empty for [`StyleKind::None`]).
    pub suffix: String,
    /// Sub-template selector, fixed per operator.
    pub variant: u8,
    /// POP codes this operator uses.
    pub pops: Vec<String>,
    /// Whose interface-name fragments the operator's hostnames carry.
    pub vendor: VendorKind,
}

/// Inputs for rendering one hostname.
#[derive(Debug, Clone, Copy)]
pub struct NameCtx<'a> {
    /// The ASN the convention annotates interconnects with (the
    /// neighbor receiving the address).
    pub neighbor_asn: u32,
    /// The neighbor's brand slug (for [`StyleKind::AsName`]).
    pub neighbor_slug: &'a str,
    /// The operator's own ASN.
    pub own_asn: u32,
    /// Deterministic per-link counter (selects POP, interface, etc.).
    pub link_index: u32,
    /// The interface address, for [`StyleKind::IpEmbed`].
    pub addr: [u8; 4],
}

impl OperatorNaming {
    /// Creates the naming convention for one operator.
    pub fn generate(kind: StyleKind, rng: &mut StdRng) -> OperatorNaming {
        let brand = brand_slug(rng);
        let suffix = if kind == StyleKind::None { String::new() } else { suffix_for(&brand, rng) };
        let npops = 2 + rng.random_range(0..4);
        let mut pops: Vec<String> = Vec::with_capacity(npops);
        while pops.len() < npops {
            let p = POPS[rng.random_range(0..POPS.len())].to_string();
            if !pops.contains(&p) {
                pops.push(p);
            }
        }
        OperatorNaming {
            kind,
            suffix,
            variant: rng.random_range(0..3),
            pops,
            vendor: VendorKind::Generic,
        }
    }

    fn pop(&self, i: u32) -> &str {
        &self.pops[(i as usize) % self.pops.len()]
    }

    fn iface(&self, i: u32) -> &'static str {
        let t = self.vendor.ifaces();
        t[(i as usize) % t.len()]
    }

    /// Hostname for the *neighbor-facing* side of an interconnect this
    /// operator supplied the addresses for. `None` when the operator
    /// assigns no PTR records.
    ///
    /// `asn_override` substitutes the embedded ASN digits (used by the
    /// simulator's stale/typo injection); ground truth bookkeeping stays
    /// with the caller.
    pub fn interconnect_name(&self, ctx: &NameCtx<'_>, asn_override: Option<String>) -> Option<String> {
        let asn = asn_override.unwrap_or_else(|| ctx.neighbor_asn.to_string());
        let pop = self.pop(ctx.link_index);
        let iface = self.iface(ctx.link_index);
        let bw = BANDWIDTHS[(ctx.link_index as usize) % BANDWIDTHS.len()];
        let i = ctx.link_index;
        let s = &self.suffix;
        match self.kind {
            StyleKind::None => None,
            StyleKind::Infra => Some(format!("{iface}.br{}.{pop}.{s}", i % 4 + 1)),
            StyleKind::Simple => Some(format!("as{asn}.{s}")),
            StyleKind::Start => Some(match self.variant {
                0 => format!("as{asn}.{pop}.{s}"),
                1 => format!("as{asn}-{iface}.{pop}.{s}"),
                _ => format!("as{asn}-{bw}g.{pop}{}.{s}", i % 3 + 1),
            }),
            StyleKind::End => Some(match self.variant {
                0 => format!("{iface}.{pop}.as{asn}.{s}"),
                _ => format!("{pop}{}.as{asn}.{s}", i % 4 + 1),
            }),
            StyleKind::Bare => Some(match self.variant {
                0 => format!("{asn}.{pop}.{s}"),
                _ => format!("{asn}-{pop}{}-ix.{s}", i % 3 + 1),
            }),
            StyleKind::Complex => Some(match self.variant {
                0 => format!("{pop}.as{asn}.{iface}.{s}"),
                1 => format!("cust{asn}.{pop}.{s}"),
                // Mixed formats: alternate between two shapes so the
                // learner needs a regex set.
                _ => {
                    if i.is_multiple_of(2) {
                        format!("p{asn}.{pop}.{s}")
                    } else {
                        format!("{asn}-{pop}-ix.{s}")
                    }
                }
            }),
            // Own-ASN operators place their ASN per house style: at the
            // end (Figure 2's nts.ch), at the start, or mid-hostname —
            // the "single" column of Table 1 spreads over all shapes.
            StyleKind::OwnAsn => Some(match self.variant {
                0 => format!("r{}.{}.cust.as{}.{s}", i % 8 + 1, ctx.neighbor_slug, ctx.own_asn),
                1 => format!("as{}-cust-{}.{pop}.{s}", ctx.own_asn, ctx.neighbor_slug),
                _ => format!("{}.as{}.cust{}.{s}", ctx.neighbor_slug, ctx.own_asn, i % 8 + 1),
            }),
            StyleKind::AsName => Some(format!("{iface}.{pop}.{}.{s}", ctx.neighbor_slug)),
            StyleKind::IpEmbed => {
                let [a, b, c, d] = ctx.addr;
                Some(format!("{a}-{b}-{c}-{d}.static.{s}"))
            }
        }
    }

    /// Hostname for an operator-internal interface (backbone links,
    /// the supplier's own side of an interconnect).
    pub fn infra_name(&self, ctx: &NameCtx<'_>) -> Option<String> {
        let pop = self.pop(ctx.link_index);
        let iface = self.iface(ctx.link_index.wrapping_add(5));
        let i = ctx.link_index;
        let s = &self.suffix;
        match self.kind {
            StyleKind::None => None,
            StyleKind::OwnAsn => Some(match self.variant {
                0 => format!("{iface}.{:02}.p.{pop}.as{}.{s}", i % 20 + 1, ctx.own_asn),
                1 => format!("as{}-{iface}.{pop}.{s}", ctx.own_asn),
                _ => format!("{iface}.as{}.{pop}.{s}", ctx.own_asn),
            }),
            StyleKind::IpEmbed => {
                let [a, b, c, d] = ctx.addr;
                Some(format!("{a}-{b}-{c}-{d}.static.{s}"))
            }
            _ => Some(format!("{iface}.cr{}.{pop}.{s}", i % 4 + 1)),
        }
    }

    /// Applies a single-digit typo to an ASN string (transpose,
    /// substitute, delete, or duplicate a digit).
    pub fn typo_asn(asn: u32, rng: &mut StdRng) -> String {
        let mut d: Vec<u8> = asn.to_string().into_bytes();
        let op = rng.random_range(0..4);
        let pos = rng.random_range(0..d.len());
        match op {
            0 if d.len() >= 2 => {
                let p = pos.min(d.len() - 2);
                d.swap(p, p + 1);
            }
            1 => {
                let nd = b'0' + rng.random_range(0..10u8);
                d[pos] = nd;
            }
            2 if d.len() >= 4 => {
                d.remove(pos);
            }
            _ => {
                let c = d[pos];
                d.insert(pos, c);
            }
        }
        // Avoid a leading zero, which no operator writes.
        if d[0] == b'0' {
            d[0] = b'1';
        }
        String::from_utf8(d).expect("digits")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_devkit::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn ctx<'a>(slug: &'a str) -> NameCtx<'a> {
        NameCtx {
            neighbor_asn: 64500,
            neighbor_slug: slug,
            own_asn: 64499,
            link_index: 3,
            addr: [192, 0, 2, 41],
        }
    }

    fn op(kind: StyleKind) -> OperatorNaming {
        let mut o = OperatorNaming::generate(kind, &mut rng());
        o.suffix = "tele-nova.net".to_string();
        o
    }

    #[test]
    fn style_sampling_respects_zero_weights() {
        let mut weights = [0.0; 10];
        weights[2] = 1.0; // Simple only
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(StyleKind::sample(&weights, &mut r), StyleKind::Simple);
        }
    }

    #[test]
    fn style_sampling_covers_support() {
        let weights = crate::config::StyleMix::default().weights();
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4000 {
            seen.insert(StyleKind::sample(&weights, &mut r));
        }
        assert!(seen.len() >= 8, "only saw {seen:?}");
    }

    #[test]
    fn simple_style_shape() {
        let o = op(StyleKind::Simple);
        assert_eq!(
            o.interconnect_name(&ctx("acme"), None).unwrap(),
            "as64500.tele-nova.net"
        );
    }

    #[test]
    fn start_style_contains_leading_asn() {
        let o = op(StyleKind::Start);
        let h = o.interconnect_name(&ctx("acme"), None).unwrap();
        assert!(h.starts_with("as64500"), "{h}");
        assert!(h.ends_with(".tele-nova.net"), "{h}");
    }

    #[test]
    fn end_style_places_asn_before_suffix() {
        let o = op(StyleKind::End);
        let h = o.interconnect_name(&ctx("acme"), None).unwrap();
        assert!(h.ends_with(".as64500.tele-nova.net"), "{h}");
    }

    #[test]
    fn bare_style_has_no_alpha_annotation() {
        let o = op(StyleKind::Bare);
        let h = o.interconnect_name(&ctx("acme"), None).unwrap();
        assert!(h.starts_with("64500"), "{h}");
        assert!(!h.contains("as64500"), "{h}");
    }

    #[test]
    fn own_asn_style_embeds_own_not_neighbor() {
        let mut o = op(StyleKind::OwnAsn);
        // Pin the Figure 2 shape: only variant 0 renders the bare
        // `.cust.` label this test asserts on; the own-vs-neighbor ASN
        // checks below hold for every variant.
        o.variant = 0;
        let h = o.interconnect_name(&ctx("acme"), None).unwrap();
        assert!(h.contains("as64499"), "{h}");
        assert!(!h.contains("64500"), "{h}");
        assert!(h.contains(".cust."), "{h}");
        let infra = o.infra_name(&ctx("acme")).unwrap();
        assert!(infra.contains("as64499"), "{infra}");
    }

    #[test]
    fn as_name_style_embeds_slug() {
        let o = op(StyleKind::AsName);
        let h = o.interconnect_name(&ctx("acmecorp"), None).unwrap();
        assert!(h.contains(".acmecorp."), "{h}");
        assert!(!h.contains("64500"), "{h}");
    }

    #[test]
    fn ip_embed_style_uses_address() {
        let o = op(StyleKind::IpEmbed);
        let h = o.interconnect_name(&ctx("acme"), None).unwrap();
        assert_eq!(h, "192-0-2-41.static.tele-nova.net");
    }

    #[test]
    fn none_style_has_no_names() {
        let o = op(StyleKind::None);
        assert_eq!(o.interconnect_name(&ctx("acme"), None), None);
        assert_eq!(o.infra_name(&ctx("acme")), None);
    }

    #[test]
    fn override_substitutes_digits() {
        let o = op(StyleKind::Simple);
        assert_eq!(
            o.interconnect_name(&ctx("acme"), Some("999".into())).unwrap(),
            "as999.tele-nova.net"
        );
    }

    #[test]
    fn complex_mixed_variant_alternates() {
        let mut o = op(StyleKind::Complex);
        o.variant = 2;
        let mut c = ctx("acme");
        c.link_index = 0;
        let h0 = o.interconnect_name(&c, None).unwrap();
        c.link_index = 1;
        let h1 = o.interconnect_name(&c, None).unwrap();
        assert!(h0.starts_with("p64500."), "{h0}");
        assert!(h1.starts_with("64500-"), "{h1}");
    }

    #[test]
    fn typo_distance() {
        let mut r = rng();
        for _ in 0..200 {
            let t = OperatorNaming::typo_asn(64500, &mut r);
            assert_ne!(t, "");
            assert!(t.bytes().all(|b| b.is_ascii_digit()));
            assert!(t.as_bytes()[0] != b'0');
        }
    }

    #[test]
    fn hostnames_are_dns_safe() {
        let c = ctx("acme");
        for kind in StyleKind::ALL {
            let o = op(kind);
            for h in [o.interconnect_name(&c, None), o.infra_name(&c)].into_iter().flatten() {
                assert!(
                    h.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'-'),
                    "unsafe hostname {h}"
                );
                assert!(!h.contains(".."), "{h}");
                assert!(!h.starts_with('.') && !h.ends_with('.'), "{h}");
            }
        }
    }

    #[test]
    fn vendor_fragments_reach_hostnames() {
        let mut o = op(StyleKind::Infra);
        let c = ctx("acme");
        let generic = o.interconnect_name(&c, None).unwrap();
        o.vendor = VendorKind::Juniper;
        let juniper = o.interconnect_name(&c, None).unwrap();
        assert_ne!(generic, juniper);
        assert!(juniper.starts_with("xe-") || juniper.starts_with("ge-")
            || juniper.starts_with("et-") || juniper.starts_with("ae")
            || juniper.starts_with("irb"), "{juniper}");
        // Vendor changes only the interface fragment, never the suffix.
        assert!(juniper.ends_with(".tele-nova.net"), "{juniper}");
    }

    #[test]
    fn vendor_hostnames_stay_dns_safe() {
        let c = ctx("acme");
        for vendor in VendorKind::ALL {
            for kind in StyleKind::ALL {
                let mut o = op(kind);
                o.vendor = vendor;
                for h in [o.interconnect_name(&c, None), o.infra_name(&c)].into_iter().flatten() {
                    assert!(
                        h.bytes().all(|b| b.is_ascii_lowercase()
                            || b.is_ascii_digit()
                            || b == b'.'
                            || b == b'-'),
                        "unsafe hostname {h} ({vendor:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn vendor_sampling_respects_weights() {
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(
                VendorKind::sample(&[1.0, 0.0, 0.0, 0.0], &mut r),
                VendorKind::Generic
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            seen.insert(VendorKind::sample(&[1.0, 1.0, 1.0, 1.0], &mut r));
        }
        assert_eq!(seen.len(), 4, "all vendors drawn: {seen:?}");
    }

    #[test]
    fn brands_and_suffixes_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(brand_slug(&mut a), brand_slug(&mut b));
        let s1 = suffix_for("telnova", &mut a);
        let s2 = suffix_for("telnova", &mut b);
        assert_eq!(s1, s2);
        assert!(s1.starts_with("telnova."));
    }
}
