//! Network messages, virtual networks and delivery records.

use crate::topology::NodeId;

/// The five virtual networks (message classes) of Table 1.
///
/// Separating message classes onto disjoint virtual networks is the standard
/// protocol-level deadlock-avoidance technique used by GEMS/GARNET and
/// assumed by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VirtualNetwork {
    /// L1→L2 and L2→directory/memory requests.
    Request,
    /// Forwarded requests / invalidations (directory→sharer, home→home).
    Forward,
    /// Data and acknowledgement responses.
    Response,
    /// Writebacks and victim migrations (IVR).
    Writeback,
    /// VMS broadcasts (global search / global invalidation).
    Broadcast,
}

impl VirtualNetwork {
    /// All virtual networks, in a fixed order.
    pub const ALL: [VirtualNetwork; 5] = [
        VirtualNetwork::Request,
        VirtualNetwork::Forward,
        VirtualNetwork::Response,
        VirtualNetwork::Writeback,
        VirtualNetwork::Broadcast,
    ];

    /// Stable index for array-indexed per-VN state.
    pub fn index(self) -> usize {
        match self {
            VirtualNetwork::Request => 0,
            VirtualNetwork::Forward => 1,
            VirtualNetwork::Response => 2,
            VirtualNetwork::Writeback => 3,
            VirtualNetwork::Broadcast => 4,
        }
    }
}

/// Identifier of a multicast group registered with
/// [`crate::Network::register_multicast_group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MulticastGroupId(pub u32);

/// Where a message is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// A single node.
    Unicast(NodeId),
    /// Every member of a registered multicast group except the source,
    /// delivered via an XY-tree over the group members (the VMS broadcast of
    /// Section 3.2 of the paper).
    Multicast(MulticastGroupId),
}

/// A message handed to the network for delivery.
///
/// The payload type `P` is opaque to the network; the cache/coherence layer
/// instantiates it with its protocol message type. Multicast delivery clones
/// the payload for every receiver, hence the `Clone` bound on most network
/// operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMessage<P> {
    /// Injecting node.
    pub src: NodeId,
    /// Destination (unicast or registered multicast group).
    pub dest: Destination,
    /// Virtual network this message travels on.
    pub vn: VirtualNetwork,
    /// Message size in bytes (header + optional data payload); determines the
    /// number of flits.
    pub size_bytes: u32,
    /// Opaque payload forwarded to the receiver.
    pub payload: P,
}

impl<P> NetMessage<P> {
    /// Convenience constructor for a unicast message.
    pub fn unicast(src: NodeId, dest: NodeId, vn: VirtualNetwork, size_bytes: u32, payload: P) -> Self {
        NetMessage {
            src,
            dest: Destination::Unicast(dest),
            vn,
            size_bytes,
            payload,
        }
    }

    /// Convenience constructor for a multicast message over a registered
    /// group.
    pub fn multicast(
        src: NodeId,
        group: MulticastGroupId,
        vn: VirtualNetwork,
        size_bytes: u32,
        payload: P,
    ) -> Self {
        NetMessage {
            src,
            dest: Destination::Multicast(group),
            vn,
            size_bytes,
            payload,
        }
    }
}

/// A message delivered at its destination NIC, with timing information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered<P> {
    /// The original message (for multicasts, `msg.dest` still names the
    /// group; `receiver` identifies which member this copy reached).
    pub msg: NetMessage<P>,
    /// Node at which this copy was ejected.
    pub receiver: NodeId,
    /// Cycle at which the message was injected.
    pub injected_at: u64,
    /// Cycle at which the message was ejected.
    pub ejected_at: u64,
    /// End-to-end network latency in cycles (`ejected_at - injected_at`).
    pub latency: u64,
    /// Number of routers at which the packet was buffered (excluding the
    /// source), i.e. the number of "stops"; for SMART this counts premature
    /// stops plus intended SMART-hop boundaries.
    pub stops: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vn_indices_are_unique_and_dense() {
        let mut seen = [false; 5];
        for vn in VirtualNetwork::ALL {
            assert!(!seen[vn.index()]);
            seen[vn.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn constructors_fill_fields() {
        let m = NetMessage::unicast(NodeId(1), NodeId(2), VirtualNetwork::Request, 8, 42u32);
        assert_eq!(m.dest, Destination::Unicast(NodeId(2)));
        assert_eq!(m.payload, 42);
        let b = NetMessage::multicast(
            NodeId(1),
            MulticastGroupId(7),
            VirtualNetwork::Broadcast,
            8,
            "x",
        );
        assert_eq!(b.dest, Destination::Multicast(MulticastGroupId(7)));
    }
}
