//! Physical addresses and the address→home-node mapping of Figure 1.
//!
//! The paper statically maps a cache line to the home node *inside a
//! cluster* using the least-significant bits of the block address (the
//! `HNid` field), and to an L2 set using the bits above it:
//!
//! ```text
//!   | Tag | Index | HNid | Offset |
//! ```

use std::fmt;

/// A full byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub u64);

/// A cache-line address (byte address with the block offset stripped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl Address {
    /// The line containing this address, for `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn line(self, line_bytes: u32) -> LineAddr {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }
}

impl LineAddr {
    /// The first byte address of this line.
    pub fn base(self, line_bytes: u32) -> Address {
        Address(self.0 << line_bytes.trailing_zeros())
    }

    /// The `HNid` field: the least-significant `bits` bits of the line
    /// address, used to pick the home node inside a cluster.
    pub fn hnid(self, bits: u32) -> u64 {
        if bits == 0 {
            0
        } else {
            self.0 & ((1 << bits) - 1)
        }
    }

    /// The set-index field for an L2 slice with `sets` sets, skipping the
    /// `hnid_bits` used for home-node interleaving.
    pub fn set_index(self, hnid_bits: u32, sets: usize) -> usize {
        ((self.0 >> hnid_bits) % sets as u64) as usize
    }

    /// The tag (everything above the set-index field).
    pub fn tag(self, hnid_bits: u32, sets: usize) -> u64 {
        (self.0 >> hnid_bits) / sets as u64
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:x}", self.0)
    }
}

impl From<u64> for Address {
    fn from(v: u64) -> Self {
        Address(v)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_extraction_strips_offset() {
        let a = Address(0x1234);
        assert_eq!(a.line(32), LineAddr(0x1234 >> 5));
        assert_eq!(a.line(32).base(32), Address(0x1220));
    }

    #[test]
    fn hnid_uses_low_bits_of_line_address() {
        let l = LineAddr(0b1011_0110);
        assert_eq!(l.hnid(4), 0b0110);
        assert_eq!(l.hnid(0), 0);
        assert_eq!(l.hnid(2), 0b10);
    }

    #[test]
    fn set_index_and_tag_partition_the_address() {
        let sets = 32;
        let hnid_bits = 4;
        for raw in [0u64, 1, 0x37, 0x1234, 0xffff_ffff, 0xdead_beef_cafe] {
            let l = LineAddr(raw);
            let rebuilt = (l.tag(hnid_bits, sets) * sets as u64 + l.set_index(hnid_bits, sets) as u64)
                << hnid_bits
                | l.hnid(hnid_bits as u32);
            assert_eq!(rebuilt, raw);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_panics() {
        Address(0).line(48);
    }
}
