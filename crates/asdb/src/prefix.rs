//! IPv4 prefixes.

use crate::{addr_parse, addr_to_string, Addr};
use std::fmt;
use std::str::FromStr;

/// An IPv4 prefix: a network address and mask length. The stored address
/// is always masked to the prefix length, so two `Prefix` values compare
/// equal iff they denote the same network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: Addr,
    len: u8,
}

impl Prefix {
    /// Builds a prefix, masking `addr` down to `len` bits. Panics if
    /// `len > 32`.
    pub fn new(addr: Addr, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix { addr: addr & Self::mask(len), len }
    }

    /// The network address (masked).
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The prefix length in bits. (`len` here is mask length, not a
    /// container size — there is deliberately no `is_empty`.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The netmask for a given length.
    pub fn mask(len: u8) -> Addr {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Addr) -> bool {
        addr & Self::mask(self.len) == self.addr
    }

    /// True if `other` is fully contained in (or equal to) this prefix.
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// Number of addresses in the prefix (host + network + broadcast).
    pub fn size(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }

    /// The `i`-th address in the prefix, or `None` past the end.
    pub fn nth(&self, i: u64) -> Option<Addr> {
        if i < self.size() {
            Some(self.addr.wrapping_add(i as u32))
        } else {
            None
        }
    }

    /// Splits the prefix into its two halves, or `None` for a /32.
    pub fn halves(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let low = Prefix::new(self.addr, len);
        let high = Prefix::new(self.addr | (1 << (32 - u32::from(len))), len);
        Some((low, high))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", addr_to_string(self.addr), self.len)
    }
}

/// Error from [`Prefix::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Prefix, PrefixParseError> {
        let err = || PrefixParseError(s.to_string());
        let (a, l) = s.split_once('/').ok_or_else(err)?;
        let addr = addr_parse(a).ok_or_else(err)?;
        let len: u8 = l.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr_from_octets;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(p("192.0.2.0/24").to_string(), "192.0.2.0/24");
        assert_eq!(p("10.1.2.3/8").to_string(), "10.0.0.0/8"); // masked
        assert_eq!(p("0.0.0.0/0").to_string(), "0.0.0.0/0");
        assert_eq!(p("1.2.3.4/32").to_string(), "1.2.3.4/32");
        assert!("1.2.3.4".parse::<Prefix>().is_err());
        assert!("1.2.3.4/33".parse::<Prefix>().is_err());
        assert!("x/24".parse::<Prefix>().is_err());
    }

    #[test]
    fn contains_and_covers() {
        let net = p("192.0.2.0/24");
        assert!(net.contains(addr_from_octets([192, 0, 2, 255])));
        assert!(!net.contains(addr_from_octets([192, 0, 3, 0])));
        assert!(net.covers(&p("192.0.2.128/25")));
        assert!(net.covers(&p("192.0.2.0/24")));
        assert!(!net.covers(&p("192.0.0.0/16")));
        assert!(p("0.0.0.0/0").covers(&net));
    }

    #[test]
    fn size_and_nth() {
        let net = p("192.0.2.0/30");
        assert_eq!(net.size(), 4);
        assert_eq!(net.nth(0), Some(addr_from_octets([192, 0, 2, 0])));
        assert_eq!(net.nth(3), Some(addr_from_octets([192, 0, 2, 3])));
        assert_eq!(net.nth(4), None);
        assert_eq!(p("1.2.3.4/32").size(), 1);
    }

    #[test]
    fn halves() {
        let (lo, hi) = p("10.0.0.0/8").halves().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        assert!(p("1.1.1.1/32").halves().is_none());
    }

    #[test]
    fn equality_is_network_identity() {
        assert_eq!(p("10.1.2.3/8"), p("10.9.9.9/8"));
        assert_ne!(p("10.0.0.0/8"), p("10.0.0.0/9"));
    }
}
