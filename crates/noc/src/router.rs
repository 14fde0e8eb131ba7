//! Router building blocks of the [`crate::fabric::Fabric`]: input-port
//! buffers, in-flight packet descriptors, round-robin arbitration state and
//! link-occupancy tracking.

use crate::message::VirtualNetwork;
use crate::topology::NodeId;
use std::collections::VecDeque;

/// Unique identifier of a packet (or of one multicast child copy) while it is
/// inside the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// Routing/timing descriptor of a packet in flight. The payload itself stays
/// in the [`crate::Network`]'s packet table; the fabric only moves these
/// light-weight descriptors through router buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightInfo {
    /// Packet identity (keys into the network's packet table).
    pub id: PacketId,
    /// Node where this packet (copy) entered the network.
    pub src: NodeId,
    /// Destination router of the current segment.
    pub dest: NodeId,
    /// Virtual network.
    pub vn: VirtualNetwork,
    /// Number of flits (serialization cycles per link).
    pub flits: u32,
    /// Cycle the original message was injected.
    pub injected_at: u64,
    /// Number of routers at which the packet has been buffered so far.
    pub stops: u32,
}

/// A packet that reached the destination router of its current segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The packet descriptor.
    pub flight: FlightInfo,
    /// Router at which it arrived (always `flight.dest`).
    pub at: NodeId,
    /// Cycle of arrival.
    pub now: u64,
}

/// One buffered packet, not eligible for switch allocation before
/// `ready_at` (models link traversal and serialization of body flits).
#[derive(Debug, Clone, Copy)]
pub struct Buffered {
    /// Packet descriptor.
    pub flight: FlightInfo,
    /// First cycle at which the packet may compete for the switch.
    pub ready_at: u64,
}

/// Input buffers of one router: one FIFO per (input port, virtual network).
/// Capacity is `vcs_per_vn * vc_depth` packets per FIFO, mirroring the VC
/// organization of Table 1 at packet granularity.
#[derive(Debug, Clone)]
pub struct InputBuffers {
    queues: Vec<VecDeque<Buffered>>,
    ports: usize,
    capacity: usize,
    total: usize,
    /// Bit `i` set iff lane `i` (see [`InputBuffers::lanes`] for the
    /// numbering) holds at least one packet. The per-cycle fabric loops walk
    /// set bits instead of probing every lane.
    occupied: u32,
}

impl InputBuffers {
    /// Creates buffers for a router with `ports` input ports.
    ///
    /// # Panics
    ///
    /// Panics if the lane count exceeds the 32-bit occupancy mask.
    pub fn new(ports: usize, capacity: usize) -> Self {
        assert!(ports * VirtualNetwork::ALL.len() <= 32, "too many lanes");
        InputBuffers {
            queues: vec![VecDeque::new(); ports * VirtualNetwork::ALL.len()],
            ports,
            capacity,
            total: 0,
            occupied: 0,
        }
    }

    fn idx(&self, port: usize, vn: VirtualNetwork) -> usize {
        debug_assert!(port < self.ports);
        port * VirtualNetwork::ALL.len() + vn.index()
    }

    /// Whether the FIFO for (`port`, `vn`) has room for another packet.
    pub fn has_space(&self, port: usize, vn: VirtualNetwork) -> bool {
        self.queues[self.idx(port, vn)].len() < self.capacity
    }

    /// Current occupancy of the FIFO for (`port`, `vn`).
    pub fn occupancy(&self, port: usize, vn: VirtualNetwork) -> usize {
        self.queues[self.idx(port, vn)].len()
    }

    /// Pushes a packet, regardless of capacity (capacity is enforced by the
    /// fabric at allocation time; premature SMART stops are allowed to
    /// overflow and are tracked in the statistics).
    pub fn push(&mut self, port: usize, vn: VirtualNetwork, b: Buffered) {
        let idx = self.idx(port, vn);
        self.queues[idx].push_back(b);
        self.total += 1;
        self.occupied |= 1 << idx;
    }

    /// Head of the FIFO for (`port`, `vn`).
    pub fn head(&self, port: usize, vn: VirtualNetwork) -> Option<&Buffered> {
        self.queues[self.idx(port, vn)].front()
    }

    /// Pops the head of the FIFO for (`port`, `vn`).
    pub fn pop(&mut self, port: usize, vn: VirtualNetwork) -> Option<Buffered> {
        let idx = self.idx(port, vn);
        let popped = self.queues[idx].pop_front();
        if popped.is_some() {
            self.total -= 1;
            if self.queues[idx].is_empty() {
                self.occupied &= !(1 << idx);
            }
        }
        popped
    }

    /// Total number of packets buffered in this router (O(1)).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether the router holds no packets at all (cheap early-out for the
    /// per-cycle fabric loops).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of input ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Iterates over every `(port, vn)` pair.
    pub fn lanes(&self) -> impl Iterator<Item = (usize, VirtualNetwork)> + '_ {
        (0..self.ports).flat_map(|p| VirtualNetwork::ALL.into_iter().map(move |vn| (p, vn)))
    }

    /// Iterates over the non-empty lanes only, as `(lane index, port, vn)`,
    /// in the same ascending order as [`InputBuffers::lanes`]. This is the
    /// hot-path variant: a mostly-idle router costs one bit walk instead of
    /// 25 queue probes.
    pub fn occupied_lanes(&self) -> impl Iterator<Item = (usize, usize, VirtualNetwork)> {
        let mut mask = self.occupied;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let vns = VirtualNetwork::ALL.len();
            Some((lane, lane / vns, VirtualNetwork::ALL[lane % vns]))
        })
    }
}

/// A dense bitset over router indices tracking which routers currently hold
/// at least one buffered packet. The per-cycle fabric loops walk set bits
/// instead of touching every router's (cache-cold) buffer struct; with a
/// handful of packets in flight on a 64–256 node mesh this is the difference
/// between O(active) and O(nodes) per cycle.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// Creates an empty set over `n` routers.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks router `i` as holding packets.
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Marks router `i` as empty.
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Iterates the marked router indices in ascending order (matching a
    /// full scan in node order, so arbitration sequencing is unchanged).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Round-robin arbitration pointer over an arbitrary number of requesters.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    last: usize,
}

impl RoundRobin {
    /// Creates a fresh arbiter.
    pub fn new() -> Self {
        RoundRobin::default()
    }

    /// Picks one of `candidates` (indices into some requester space),
    /// starting the search just after the previous winner so that grants
    /// rotate fairly.
    pub fn pick(&mut self, candidates: &[usize], space: usize) -> Option<usize> {
        if candidates.is_empty() || space == 0 {
            return None;
        }
        let start = (self.last + 1) % space;
        let winner = candidates
            .iter()
            .copied()
            .min_by_key(|&c| (c + space - start) % space)?;
        self.last = winner;
        Some(winner)
    }
}

/// Tracks when each unidirectional link becomes free again (a packet of `n`
/// flits holds its links for `n` cycles).
#[derive(Debug, Clone)]
pub struct LinkOccupancy {
    busy_until: Vec<u64>,
    links_per_node: usize,
}

impl LinkOccupancy {
    /// Creates occupancy tracking for `nodes` routers with `links_per_node`
    /// outgoing links each.
    pub fn new(nodes: usize, links_per_node: usize) -> Self {
        LinkOccupancy {
            busy_until: vec![0; nodes * links_per_node],
            links_per_node,
        }
    }

    fn idx(&self, node: NodeId, link: usize) -> usize {
        debug_assert!(link < self.links_per_node);
        node.index() * self.links_per_node + link
    }

    /// Whether the given outgoing link of `node` is free at `now`.
    pub fn is_free(&self, node: NodeId, link: usize, now: u64) -> bool {
        self.busy_until[self.idx(node, link)] <= now
    }

    /// First cycle at which the given outgoing link of `node` is free again
    /// (`is_free(node, link, t)` holds for every `t >= free_at(node, link)`).
    pub fn free_at(&self, node: NodeId, link: usize) -> u64 {
        self.busy_until[self.idx(node, link)]
    }

    /// Marks the link busy until `until`.
    pub fn occupy(&mut self, node: NodeId, link: usize, until: u64) {
        let idx = self.idx(node, link);
        self.busy_until[idx] = self.busy_until[idx].max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fi(id: u64) -> FlightInfo {
        FlightInfo {
            id: PacketId(id),
            src: NodeId(0),
            dest: NodeId(1),
            vn: VirtualNetwork::Request,
            flits: 1,
            injected_at: 0,
            stops: 0,
        }
    }

    #[test]
    fn buffers_fifo_order_and_capacity() {
        let mut b = InputBuffers::new(5, 2);
        assert!(b.has_space(0, VirtualNetwork::Request));
        b.push(0, VirtualNetwork::Request, Buffered { flight: fi(1), ready_at: 0 });
        b.push(0, VirtualNetwork::Request, Buffered { flight: fi(2), ready_at: 0 });
        assert!(!b.has_space(0, VirtualNetwork::Request));
        assert_eq!(b.head(0, VirtualNetwork::Request).unwrap().flight.id, PacketId(1));
        assert_eq!(b.pop(0, VirtualNetwork::Request).unwrap().flight.id, PacketId(1));
        assert_eq!(b.pop(0, VirtualNetwork::Request).unwrap().flight.id, PacketId(2));
        assert!(b.pop(0, VirtualNetwork::Request).is_none());
    }

    #[test]
    fn occupied_lanes_tracks_nonempty_queues_in_lane_order() {
        let mut b = InputBuffers::new(5, 4);
        assert_eq!(b.occupied_lanes().count(), 0);
        b.push(3, VirtualNetwork::Response, Buffered { flight: fi(1), ready_at: 0 });
        b.push(0, VirtualNetwork::Request, Buffered { flight: fi(2), ready_at: 0 });
        b.push(0, VirtualNetwork::Request, Buffered { flight: fi(3), ready_at: 0 });
        let lanes: Vec<(usize, usize, VirtualNetwork)> = b.occupied_lanes().collect();
        assert_eq!(
            lanes,
            vec![
                (0, 0, VirtualNetwork::Request),
                (3 * VirtualNetwork::ALL.len() + VirtualNetwork::Response.index(), 3, VirtualNetwork::Response),
            ]
        );
        // Lane indices agree with `lanes()` enumeration order.
        for (lane, port, vn) in b.occupied_lanes() {
            assert_eq!(b.lanes().nth(lane), Some((port, vn)));
        }
        b.pop(0, VirtualNetwork::Request);
        assert_eq!(b.occupied_lanes().count(), 2, "one packet left in the lane");
        b.pop(0, VirtualNetwork::Request);
        assert_eq!(b.occupied_lanes().count(), 1);
        b.pop(3, VirtualNetwork::Response);
        assert_eq!(b.occupied_lanes().count(), 0);
    }

    #[test]
    fn buffers_are_per_lane() {
        let mut b = InputBuffers::new(5, 1);
        b.push(0, VirtualNetwork::Request, Buffered { flight: fi(1), ready_at: 0 });
        assert!(b.has_space(0, VirtualNetwork::Response));
        assert!(b.has_space(1, VirtualNetwork::Request));
        assert_eq!(b.total(), 1);
    }

    #[test]
    fn active_set_iterates_set_bits_in_ascending_order() {
        let mut a = ActiveSet::new(130);
        assert_eq!(a.iter().count(), 0);
        for i in [5, 0, 129, 64, 63] {
            a.set(i);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 129]);
        a.clear(64);
        a.clear(0);
        a.set(5); // idempotent
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 63, 129]);
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(&[0, 1, 2], 3), Some(1));
        assert_eq!(rr.pick(&[0, 1, 2], 3), Some(2));
        assert_eq!(rr.pick(&[0, 1, 2], 3), Some(0));
        assert_eq!(rr.pick(&[2], 3), Some(2));
        assert_eq!(rr.pick(&[], 3), None);
    }

    #[test]
    fn link_occupancy_blocks_until_free() {
        let mut l = LinkOccupancy::new(4, 5);
        assert!(l.is_free(NodeId(2), 0, 0));
        l.occupy(NodeId(2), 0, 3);
        assert!(!l.is_free(NodeId(2), 0, 2));
        assert!(l.is_free(NodeId(2), 0, 3));
        // Other links unaffected.
        assert!(l.is_free(NodeId(2), 1, 0));
        assert!(l.is_free(NodeId(3), 0, 0));
    }
}
