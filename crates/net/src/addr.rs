//! Node identity and per-radio addressing.
//!
//! A dual-radio node has one platform identity ([`NodeId`]) and two
//! link-layer addresses, one per radio. BCP must translate between them
//! (Section 3: "BCP needs to be able to map the low-power and high-power
//! radio addresses for the receiver"); [`AddrMap`] is that translation
//! table.

use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use core::fmt;
use std::collections::HashMap;

/// Platform-level identity of a node (dense, 0-based).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A node id loads through [`Dec::id`], which refuses ids outside the
/// world being loaded.
impl Persist for NodeId {
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.0 = d.id()?;
        Ok(())
    }
}

/// Link-layer address on the low-power (sensor) radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LowAddr(pub u16);

/// Link-layer address on the high-power (802.11) radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HighAddr(pub u64);

impl NodeId {
    /// The index form used for dense per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "low:{:04x}", self.0)
    }
}

impl fmt::Display for HighAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "high:{:012x}", self.0)
    }
}

/// Bidirectional map between node identities and their two radio addresses.
///
/// # Examples
///
/// ```
/// use bcp_net::addr::{AddrMap, NodeId};
///
/// let map = AddrMap::for_nodes(4);
/// let n2 = NodeId(2);
/// let low = map.low_of(n2);
/// let high = map.high_of(n2);
/// assert_eq!(map.node_of_low(low), Some(n2));
/// assert_eq!(map.node_of_high(high), Some(n2));
/// ```
#[derive(Debug, Clone)]
pub struct AddrMap {
    low: Vec<LowAddr>,
    high: Vec<HighAddr>,
    by_low: HashMap<LowAddr, NodeId>,
    by_high: HashMap<HighAddr, NodeId>,
}

impl AddrMap {
    /// Assigns addresses to `n` nodes. Addresses are deterministic but not
    /// sequential, mimicking factory-burned identifiers (so nothing in the
    /// stack can cheat by arithmetic on addresses).
    pub fn for_nodes(n: usize) -> Self {
        let mut by_low = HashMap::new();
        let mut by_high = HashMap::new();
        let mut low = Vec::with_capacity(n);
        let mut high = Vec::with_capacity(n);
        for i in 0..n {
            let id = NodeId(i as u32);
            // Spread bits so adjacent nodes do not get adjacent addresses.
            let l = LowAddr(((i as u16).wrapping_mul(0x9e37)) ^ 0x5aa5);
            let h = HighAddr(((i as u64).wrapping_mul(0x9e3779b97f4a7c15)) | 0x0200_0000_0000);
            low.push(l);
            high.push(h);
            assert!(by_low.insert(l, id).is_none(), "low address collision");
            assert!(by_high.insert(h, id).is_none(), "high address collision");
        }
        AddrMap {
            low,
            high,
            by_low,
            by_high,
        }
    }

    /// Number of mapped nodes.
    pub fn len(&self) -> usize {
        self.low.len()
    }

    /// `true` when the map is empty.
    pub fn is_empty(&self) -> bool {
        self.low.is_empty()
    }

    /// The low-radio address of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn low_of(&self, node: NodeId) -> LowAddr {
        self.low[node.index()]
    }

    /// The high-radio address of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn high_of(&self, node: NodeId) -> HighAddr {
        self.high[node.index()]
    }

    /// Resolves a low-radio address to its node.
    pub fn node_of_low(&self, addr: LowAddr) -> Option<NodeId> {
        self.by_low.get(&addr).copied()
    }

    /// Resolves a high-radio address to its node.
    pub fn node_of_high(&self, addr: HighAddr) -> Option<NodeId> {
        self.by_high.get(&addr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_for_all_nodes() {
        let map = AddrMap::for_nodes(64);
        assert_eq!(map.len(), 64);
        for i in 0..64 {
            let n = NodeId(i);
            assert_eq!(map.node_of_low(map.low_of(n)), Some(n));
            assert_eq!(map.node_of_high(map.high_of(n)), Some(n));
        }
    }

    #[test]
    fn addresses_are_unique() {
        let map = AddrMap::for_nodes(256);
        let mut lows: Vec<_> = (0..256).map(|i| map.low_of(NodeId(i))).collect();
        lows.sort();
        lows.dedup();
        assert_eq!(lows.len(), 256);
    }

    #[test]
    fn unknown_addresses_resolve_to_none() {
        let map = AddrMap::for_nodes(4);
        assert_eq!(map.node_of_low(LowAddr(0xffff)), None);
        assert_eq!(map.node_of_high(HighAddr(0)), None);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = AddrMap::for_nodes(16);
        let b = AddrMap::for_nodes(16);
        for i in 0..16 {
            assert_eq!(a.low_of(NodeId(i)), b.low_of(NodeId(i)));
            assert_eq!(a.high_of(NodeId(i)), b.high_of(NodeId(i)));
        }
    }

    #[test]
    fn empty_map() {
        let map = AddrMap::for_nodes(0);
        assert!(map.is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        let map = AddrMap::for_nodes(1);
        assert!(map.low_of(NodeId(0)).to_string().starts_with("low:"));
        assert!(map.high_of(NodeId(0)).to_string().starts_with("high:"));
    }
}
