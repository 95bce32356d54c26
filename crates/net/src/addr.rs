//! Link- and network-layer addresses.

use std::fmt;
use std::str::FromStr;

pub use std::net::Ipv4Addr;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: Mac = Mac([0xFF; 6]);

    /// The all-zero address (unset).
    pub const ZERO: Mac = Mac([0; 6]);

    /// A locally-administered unicast MAC derived from a small id — handy
    /// for tests and appliance fleets.
    pub fn local(id: u32) -> Mac {
        let b = id.to_be_bytes();
        Mac([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Mac::BROADCAST
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }
}

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Error from parsing a [`Mac`] out of `aa:bb:cc:dd:ee:ff` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for Mac {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut out {
            let part = parts.next().ok_or(ParseMacError)?;
            *slot = u8::from_str_radix(part, 16).map_err(|_| ParseMacError)?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError);
        }
        Ok(Mac(out))
    }
}

impl From<[u8; 6]> for Mac {
    fn from(b: [u8; 6]) -> Mac {
        Mac(b)
    }
}

/// Whether `ip` is inside the subnet `net`/`mask`.
pub fn in_subnet(ip: Ipv4Addr, net: Ipv4Addr, mask: Ipv4Addr) -> bool {
    let ip = u32::from(ip);
    let net = u32::from(net);
    let mask = u32::from(mask);
    (ip & mask) == (net & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let mac = Mac([0x02, 0x00, 0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(mac.to_string(), "02:00:de:ad:be:ef");
        assert_eq!("02:00:de:ad:be:ef".parse::<Mac>(), Ok(mac));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("02:00:de:ad:be".parse::<Mac>().is_err(), "too short");
        assert!("02:00:de:ad:be:ef:00".parse::<Mac>().is_err(), "too long");
        assert!("zz:00:de:ad:be:ef".parse::<Mac>().is_err(), "non-hex");
    }

    #[test]
    fn classification() {
        assert!(Mac::BROADCAST.is_broadcast());
        assert!(!Mac::local(7).is_broadcast());
        assert_ne!(Mac::local(1), Mac::local(2));
    }

    #[test]
    fn subnet_membership() {
        let mask = Ipv4Addr::new(255, 255, 255, 0);
        let net = Ipv4Addr::new(10, 0, 0, 0);
        assert!(in_subnet(Ipv4Addr::new(10, 0, 0, 42), net, mask));
        assert!(!in_subnet(Ipv4Addr::new(10, 0, 1, 42), net, mask));
    }
}
