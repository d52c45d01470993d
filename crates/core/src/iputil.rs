//! Detection of IP addresses embedded in hostnames.
//!
//! Access networks commonly derive PTR records from the interface address
//! (paper Figure 3b: `50-236-216-122-static.hfc.comcastbusiness.net`,
//! `209-201-58-109.dia.stat.centurylink.net`). A digit run that is really
//! an octet of such an embedded address must not be mistaken for an ASN —
//! §3.1 classifies an extraction overlapping an embedded IP address as a
//! false positive.
//!
//! [`embedded_ip_spans`] finds the byte spans of the interface's own
//! address embedded in a hostname, in the forms observed in the wild:
//! four octets in forward or reverse order, separated consistently by `.`
//! or `-`, each octet plain or zero-padded to three digits.

/// An IPv4 address as four octets. A plain array keeps the substrate
/// crates decoupled from `std::net` parsing behaviour.
pub type Ipv4 = [u8; 4];

/// Parses dotted-quad notation (no leading-zero tolerance beyond plain
/// `u8` parsing). Returns `None` on malformed input.
pub fn parse_ipv4(s: &str) -> Option<Ipv4> {
    let mut it = s.split('.');
    let mut ip = [0u8; 4];
    for slot in ip.iter_mut() {
        let part = it.next()?;
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        *slot = part.parse().ok()?;
    }
    if it.next().is_some() {
        return None;
    }
    Some(ip)
}

/// Byte spans of `addr` embedded in `hostname`.
///
/// Checks forward (`a.b.c.d`) and reverse (`d.c.b.a`) octet order with
/// `.` or `-` separators, each octet either plain or zero-padded to three
/// digits (all octets padded, or none — mixed padding is not a
/// convention seen in PTR data). Octet sequences must be delimited: the
/// bytes before and after the matched region must not be digits, so the
/// octets of `10.2.3.4` are not found inside `110.2.3.45`.
pub fn embedded_ip_spans(hostname: &str, addr: Ipv4) -> Vec<(usize, usize)> {
    let h = hostname.as_bytes();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let forward = addr;
    let reverse = [addr[3], addr[2], addr[1], addr[0]];
    for octets in [forward, reverse] {
        for sep in [b'.', b'-'] {
            for padded in [false, true] {
                let needle = render_octets(octets, sep, padded);
                find_delimited(h, needle.as_bytes(), &mut spans);
            }
        }
    }
    spans.sort();
    spans.dedup();
    spans
}

/// True if the byte range `[start, end)` overlaps any span in `spans`.
pub fn overlaps_any(spans: &[(usize, usize)], start: usize, end: usize) -> bool {
    spans.iter().any(|&(s, e)| start < e && s < end)
}

/// Renders four octets with the given separator, optionally zero-padded
/// to three digits each.
fn render_octets(octets: Ipv4, sep: u8, padded: bool) -> String {
    let mut s = String::with_capacity(15);
    for (i, o) in octets.iter().enumerate() {
        if i > 0 {
            s.push(sep as char);
        }
        if padded {
            s.push_str(&format!("{o:03}"));
        } else {
            s.push_str(&o.to_string());
        }
    }
    s
}

/// Appends every digit-delimited occurrence of `needle` in `h` to `out`.
fn find_delimited(h: &[u8], needle: &[u8], out: &mut Vec<(usize, usize)>) {
    if needle.is_empty() || needle.len() > h.len() {
        return;
    }
    for start in 0..=(h.len() - needle.len()) {
        if &h[start..start + needle.len()] != needle {
            continue;
        }
        let end = start + needle.len();
        let left_ok = start == 0 || !h[start - 1].is_ascii_digit();
        let right_ok = end == h.len() || !h[end].is_ascii_digit();
        if left_ok && right_ok {
            out.push((start, end));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_dotted_quads() {
        assert_eq!(parse_ipv4("192.0.2.1"), Some([192, 0, 2, 1]));
        assert_eq!(parse_ipv4("192.0.2"), None);
        assert_eq!(parse_ipv4("192.0.2.1.5"), None);
        assert_eq!(parse_ipv4("192.0.2.256"), None);
        assert_eq!(parse_ipv4("a.b.c.d"), None);
        assert_eq!(parse_ipv4(""), None);
        assert_eq!(parse_ipv4("1..2.3"), None);
        assert_eq!(parse_ipv4("1.2.3.1234"), None);
    }

    #[test]
    fn comcast_example_from_figure3b() {
        let h = "50-236-216-122-static.hfc.comcastbusiness.net";
        let spans = embedded_ip_spans(h, [50, 236, 216, 122]);
        assert_eq!(spans, vec![(0, 14)]);
        // The "122" octet (bytes 11..14) overlaps the span.
        assert!(overlaps_any(&spans, 11, 14));
    }

    #[test]
    fn centurylink_example_from_figure3b() {
        let h = "209-201-58-109.dia.stat.centurylink.net";
        let spans = embedded_ip_spans(h, [209, 201, 58, 109]);
        assert_eq!(spans, vec![(0, 14)]);
        assert!(overlaps_any(&spans, 0, 3)); // the leading "209"
    }

    #[test]
    fn dotted_and_reversed_forms() {
        let spans = embedded_ip_spans("host.1.2.3.4.example.com", [1, 2, 3, 4]);
        assert_eq!(spans, vec![(5, 12)]);
        // Reverse-octet PTR style.
        let spans = embedded_ip_spans("4.3.2.1.rdns.example.com", [1, 2, 3, 4]);
        assert_eq!(spans, vec![(0, 7)]);
    }

    #[test]
    fn zero_padded_form() {
        let h = "050-236-216-122.example.net";
        let spans = embedded_ip_spans(h, [50, 236, 216, 122]);
        assert_eq!(spans, vec![(0, 15)]);
    }

    #[test]
    fn requires_digit_delimiters() {
        // `110.2.3.45` must not contain 10.2.3.4.
        assert!(embedded_ip_spans("110.2.3.45.example.com", [10, 2, 3, 4]).is_empty());
        // But non-digit neighbours are fine.
        assert_eq!(
            embedded_ip_spans("x10.2.3.4y.example.com", [10, 2, 3, 4]),
            vec![(1, 9)]
        );
    }

    #[test]
    fn different_address_not_found() {
        assert!(embedded_ip_spans("1.2.3.4.example.com", [1, 2, 3, 5]).is_empty());
    }

    #[test]
    fn palindromic_address_found_once() {
        let spans = embedded_ip_spans("1.2.2.1.example.com", [1, 2, 2, 1]);
        // Forward and reverse render identically; dedup leaves one span.
        assert_eq!(spans, vec![(0, 7)]);
    }

    #[test]
    fn multiple_occurrences() {
        let spans = embedded_ip_spans("1-2-3-4.a.1-2-3-4.example.com", [1, 2, 3, 4]);
        assert_eq!(spans, vec![(0, 7), (10, 17)]);
    }

    #[test]
    fn overlap_edges() {
        let spans = vec![(5, 10)];
        assert!(!overlaps_any(&spans, 0, 5)); // touching on the left
        assert!(!overlaps_any(&spans, 10, 12)); // touching on the right
        assert!(overlaps_any(&spans, 9, 11));
        assert!(overlaps_any(&spans, 4, 6));
        assert!(overlaps_any(&spans, 6, 8)); // contained
    }
}
