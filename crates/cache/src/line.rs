//! Coherence states (MSI for L1, MOESI for L2) and sharer-set bit-vectors.

use loco_noc::NodeId;

/// L1 cache-line states (Table 1: MSI for the L1 cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MsiState {
    /// Invalid.
    #[default]
    I,
    /// Shared, read-only.
    S,
    /// Modified, read-write, dirty.
    M,
}

impl MsiState {
    /// Whether the line can service a load.
    pub fn can_read(self) -> bool {
        !matches!(self, MsiState::I)
    }

    /// Whether the line can service a store.
    pub fn can_write(self) -> bool {
        matches!(self, MsiState::M)
    }
}

/// L2 cache-line states (Table 1: MOESI for the L2 cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MoesiState {
    /// Invalid.
    #[default]
    I,
    /// Shared: a clean copy also held elsewhere; some other agent (or
    /// memory) owns the line.
    S,
    /// Exclusive: the only cached copy, clean.
    E,
    /// Owned: dirty, responsible for responding to reads and for the final
    /// writeback, other shared copies may exist.
    O,
    /// Modified: the only cached copy, dirty.
    M,
}

impl MoesiState {
    /// Whether this state designates the cluster/tile that must respond to a
    /// global read (the paper: "the one with ownership, i.e. in O state,
    /// responds").
    pub fn is_owner(self) -> bool {
        matches!(self, MoesiState::M | MoesiState::O | MoesiState::E)
    }

    /// Whether the line must be written back to memory when evicted.
    pub fn is_dirty(self) -> bool {
        matches!(self, MoesiState::M | MoesiState::O)
    }

    /// Whether the line holds valid data.
    pub fn is_valid(self) -> bool {
        !matches!(self, MoesiState::I)
    }

    /// The state an owner falls back to after supplying a shared copy to a
    /// reader (M/E become O so the dirty data keeps exactly one owner; O and
    /// S are unchanged).
    pub fn after_sharing(self) -> MoesiState {
        match self {
            MoesiState::M | MoesiState::O => MoesiState::O,
            MoesiState::E => MoesiState::O,
            other => other,
        }
    }
}

/// A bit-vector of sharer nodes, sized for up to 256 tiles (the largest CMP
/// evaluated in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet {
    bits: [u64; 4],
}

impl SharerSet {
    /// The empty set.
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics if the node index is 256 or larger.
    pub fn insert(&mut self, node: NodeId) {
        let i = node.index();
        assert!(i < 256, "sharer sets support up to 256 nodes");
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Removes a node.
    pub fn remove(&mut self, node: NodeId) {
        let i = node.index();
        if i < 256 {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Whether the node is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        i < 256 && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of sharers.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }

    /// Removes every node.
    pub fn clear(&mut self) {
        self.bits = [0; 4];
    }

    /// Iterates over the sharers in increasing node order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..256usize).filter_map(move |i| {
            if self.bits[i / 64] & (1 << (i % 64)) != 0 {
                Some(NodeId(i as u16))
            } else {
                None
            }
        })
    }
}

impl FromIterator<NodeId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = SharerSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msi_predicates() {
        assert!(!MsiState::I.can_read());
        assert!(MsiState::S.can_read());
        assert!(!MsiState::S.can_write());
        assert!(MsiState::M.can_write());
    }

    #[test]
    fn moesi_owner_and_dirty() {
        assert!(MoesiState::M.is_owner());
        assert!(MoesiState::O.is_owner());
        assert!(MoesiState::E.is_owner());
        assert!(!MoesiState::S.is_owner());
        assert!(!MoesiState::I.is_owner());
        assert!(MoesiState::M.is_dirty());
        assert!(MoesiState::O.is_dirty());
        assert!(!MoesiState::E.is_dirty());
        assert_eq!(MoesiState::M.after_sharing(), MoesiState::O);
        assert_eq!(MoesiState::E.after_sharing(), MoesiState::O);
        assert_eq!(MoesiState::S.after_sharing(), MoesiState::S);
    }

    #[test]
    fn sharer_set_insert_remove_iter() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        s.insert(NodeId(0));
        s.insert(NodeId(63));
        s.insert(NodeId(255));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId(63)));
        assert!(!s.contains(NodeId(64)));
        let collected: Vec<NodeId> = s.iter().collect();
        assert_eq!(collected, vec![NodeId(0), NodeId(63), NodeId(255)]);
        s.remove(NodeId(63));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn sharer_set_from_iterator() {
        let s: SharerSet = [NodeId(1), NodeId(2), NodeId(2)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "up to 256")]
    fn sharer_set_rejects_large_nodes() {
        SharerSet::new().insert(NodeId(256));
    }
}
