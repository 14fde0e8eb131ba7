//! Router building blocks of the [`crate::fabric::Fabric`]: the mesh-wide
//! input buffers with their flat per-lane head tables, in-flight packet
//! descriptors, bit-mask round-robin arbitration and link occupancy.

use crate::message::VirtualNetwork;
use crate::topology::{Coord, Direction, Mesh, NodeId};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Input ports per router: the four cardinal directions plus local.
pub const PORTS: usize = Direction::ALL.len();

/// Input lanes per router, one per (input port, virtual network), numbered
/// `port * VNS + vn`; at most 32, so a router's lanes fit one `u32` mask.
pub const LANES: usize = PORTS * VirtualNetwork::ALL.len();

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

/// The input buffers of every router of the mesh: one FIFO per lane
/// (router, input port, virtual network), holding up to `vcs_per_vn *
/// vc_depth` packets, which mirrors the VC organization of Table 1 at packet
/// granularity.
///
/// Lanes are numbered mesh-wide, `(node * PORTS + port) * VNS + vn` (see
/// [`InputBuffers::lane`]), so a router's lanes are `LANES` consecutive
/// indices in port-major order. Beside the FIFOs, flat per-lane tables hold
/// each lane's length and its head packet's ready cycle, destination and
/// XY leg, and a per-router mask marks the non-empty lanes. Only `push` and
/// `pop` write them, so the per-cycle fabric scans read these arrays and
/// never look inside a FIFO.
#[derive(Debug, Clone)]
pub struct InputBuffers {
    capacity: usize,
    /// `(x, y)` of every router, so a head's XY leg needs no division.
    coords: Vec<Coord>,
    queues: Vec<VecDeque<Buffered>>,
    len: Vec<u32>,
    head_ready: Vec<u64>,
    head_dest: Vec<NodeId>,
    head_leg: Vec<Option<(Direction, u16)>>,
    /// Per router: bit `i` set iff its lane `i` holds at least one packet.
    occupied: Vec<u32>,
    /// Routers with at least one occupied lane.
    active: ActiveSet,
}

impl InputBuffers {
    /// Creates empty buffers for the routers of `mesh`, `capacity` packets
    /// per lane.
    pub fn new(mesh: Mesh, capacity: usize) -> Self {
        const { assert!(LANES <= 32, "a router's lanes must fit its u32 mask") };
        let (nodes, lanes) = (mesh.len(), mesh.len() * LANES);
        InputBuffers {
            capacity,
            coords: mesh.nodes().map(|n| mesh.coord(n)).collect(),
            queues: vec![VecDeque::new(); lanes],
            len: vec![0; lanes],
            head_ready: vec![0; lanes],
            head_dest: vec![NodeId(0); lanes],
            head_leg: vec![None; lanes],
            occupied: vec![0; nodes],
            active: ActiveSet::new(nodes),
        }
    }

    /// Mesh-wide index of the lane (`port`, `vn`) of router `node`.
    pub fn lane(node: NodeId, port: usize, vn: VirtualNetwork) -> usize {
        debug_assert!(port < PORTS);
        (node.index() * PORTS + port) * VirtualNetwork::ALL.len() + vn.index()
    }

    /// Whether `lane` has room for another packet.
    pub fn has_space(&self, lane: usize) -> bool {
        (self.len[lane] as usize) < self.capacity
    }

    /// Number of packets in `lane`.
    pub fn occupancy(&self, lane: usize) -> usize {
        self.len[lane] as usize
    }

    /// First cycle at which the head of the non-empty `lane` may compete
    /// for the switch.
    pub fn head_ready(&self, lane: usize) -> u64 {
        debug_assert!(self.len[lane] > 0, "empty lane has no head");
        self.head_ready[lane]
    }

    /// Segment destination of the head of the non-empty `lane`.
    pub fn head_dest(&self, lane: usize) -> NodeId {
        debug_assert!(self.len[lane] > 0, "empty lane has no head");
        self.head_dest[lane]
    }

    /// The next XY direction of the head of the non-empty `lane`, with the
    /// hops left in that dimension, or `None` at its destination.
    pub fn head_leg(&self, lane: usize) -> Option<(Direction, u16)> {
        debug_assert!(self.len[lane] > 0, "empty lane has no head");
        self.head_leg[lane]
    }

    /// Pushes a packet, regardless of capacity (capacity is enforced by the
    /// fabric at allocation time; premature SMART stops are allowed to
    /// overflow and are tracked in the statistics).
    pub fn push(&mut self, lane: usize, b: Buffered) {
        if self.len[lane] == 0 {
            self.set_head(lane, &b);
            let node = lane / LANES;
            self.occupied[node] |= 1 << (lane % LANES);
            self.active.set(node);
        }
        self.len[lane] += 1;
        self.queues[lane].push_back(b);
    }

    /// Pops the head of `lane`.
    pub fn pop(&mut self, lane: usize) -> Option<Buffered> {
        let popped = self.queues[lane].pop_front()?;
        self.len[lane] -= 1;
        if let Some(&next) = self.queues[lane].front() {
            self.set_head(lane, &next);
        } else {
            let node = lane / LANES;
            self.occupied[node] &= !(1 << (lane % LANES));
            if self.occupied[node] == 0 {
                self.active.clear(node);
            }
        }
        Some(popped)
    }

    /// Records `b` as the head of `lane`, with its XY leg from that lane's
    /// router.
    fn set_head(&mut self, lane: usize, b: &Buffered) {
        let f = self.coords[lane / LANES];
        let t = self.coords[b.flight.dest.index()];
        self.head_ready[lane] = b.ready_at;
        self.head_dest[lane] = b.flight.dest;
        self.head_leg[lane] = match (t.x.cmp(&f.x), t.y.cmp(&f.y)) {
            (Ordering::Greater, _) => Some((Direction::East, t.x - f.x)),
            (Ordering::Less, _) => Some((Direction::West, f.x - t.x)),
            (_, Ordering::Greater) => Some((Direction::North, t.y - f.y)),
            (_, Ordering::Less) => Some((Direction::South, f.y - t.y)),
            _ => None,
        };
    }

    /// Routers holding at least one packet, in ascending order.
    pub fn active(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.iter()
    }

    /// The non-empty lanes of router `node`, as mesh-wide lane indices in
    /// ascending order: a mostly idle router costs one bit walk instead of
    /// `LANES` probes.
    pub fn occupied_lanes(&self, node: usize) -> impl Iterator<Item = usize> {
        let base = node * LANES;
        set_bits(u64::from(self.occupied[node])).map(move |lane| base + lane)
    }
}

/// The indices of the set bits of `bits`, in ascending order.
pub(crate) fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(b)
    })
}

/// A dense bitset over node indices, such as the routers holding a packet or
/// the non-empty ejection queues. The per-cycle loops walk set bits instead
/// of touching every node; with a handful of packets in flight on a 64–256
/// node mesh this is the difference between O(active) and O(nodes).
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// Creates an empty set over `n` nodes.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks node `i`.
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Unmarks node `i`.
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Iterates the marked node indices in ascending order (matching a
    /// full scan in node order, so arbitration sequencing is unchanged).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        // One flat cursor rather than a `flat_map`, whose nested state costs
        // the per-cycle fabric loops measurably.
        let (mut w, mut bits) = (0, self.words.first().copied().unwrap_or(0));
        std::iter::from_fn(move || loop {
            if bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                return Some(w * 64 + b);
            }
            w += 1;
            bits = *self.words.get(w)?;
        })
    }

    /// Unmarks every node.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

/// Round-robin arbitration pointer over up to 32 requesters, offered as a
/// bit mask.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    last: usize,
}

impl RoundRobin {
    /// Creates a fresh arbiter.
    pub fn new() -> Self {
        RoundRobin::default()
    }

    /// Grants the requester whose bit is set in `mask`, searching upward
    /// from just after the previous winner and wrapping around, so that
    /// grants rotate fairly; `None` when `mask` is empty.
    pub fn grant(&mut self, mask: u32) -> Option<usize> {
        if mask == 0 {
            return None;
        }
        // Bits above `last`; none when `last` is 31, where the shift drops
        // the only bit and the subtraction wraps to all ones.
        let above = mask & !(2u32 << self.last).wrapping_sub(1);
        let winner = if above != 0 { above } else { mask }.trailing_zeros() as usize;
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

    const REQ: VirtualNetwork = VirtualNetwork::Request;

    fn buffered(id: u64, ready_at: u64) -> Buffered {
        Buffered {
            flight: fi(id),
            ready_at,
        }
    }

    #[test]
    fn buffers_fifo_order_and_capacity() {
        let mut b = InputBuffers::new(Mesh::new(2, 2), 2);
        let lane = InputBuffers::lane(NodeId(2), 0, REQ);
        assert!(b.has_space(lane));
        b.push(lane, buffered(1, 0));
        b.push(lane, buffered(2, 0));
        assert!(!b.has_space(lane));
        assert_eq!(b.pop(lane).unwrap().flight.id, PacketId(1));
        assert_eq!(b.pop(lane).unwrap().flight.id, PacketId(2));
        assert!(b.pop(lane).is_none());
        assert_eq!(b.active().count(), 0);
    }

    #[test]
    fn occupied_lanes_tracks_nonempty_queues_in_lane_order() {
        let mut b = InputBuffers::new(Mesh::new(2, 2), 4);
        let node = NodeId(1);
        assert_eq!(b.occupied_lanes(1).count(), 0);
        let resp = InputBuffers::lane(node, 3, VirtualNetwork::Response);
        let req = InputBuffers::lane(node, 0, REQ);
        b.push(resp, buffered(1, 0));
        b.push(req, buffered(2, 0));
        b.push(req, buffered(3, 0));
        // Ascending mesh-wide lane order, inside router 1's lane range.
        assert_eq!(b.occupied_lanes(1).collect::<Vec<_>>(), vec![req, resp]);
        assert_eq!(req, LANES);
        assert_eq!(
            resp,
            LANES + 3 * VirtualNetwork::ALL.len() + VirtualNetwork::Response.index()
        );
        assert_eq!(b.active().collect::<Vec<_>>(), vec![1]);
        b.pop(req);
        assert_eq!(
            b.occupied_lanes(1).count(),
            2,
            "one packet left in the lane"
        );
        b.pop(req);
        assert_eq!(b.occupied_lanes(1).count(), 1);
        b.pop(resp);
        assert_eq!(b.occupied_lanes(1).count(), 0);
        assert_eq!(b.active().count(), 0);
    }

    #[test]
    fn buffers_are_per_lane() {
        let mut b = InputBuffers::new(Mesh::new(2, 1), 1);
        b.push(InputBuffers::lane(NodeId(0), 0, REQ), buffered(1, 0));
        assert!(b.has_space(InputBuffers::lane(NodeId(0), 0, VirtualNetwork::Response)));
        assert!(b.has_space(InputBuffers::lane(NodeId(0), 1, REQ)));
        assert!(b.has_space(InputBuffers::lane(NodeId(1), 0, REQ)));
        assert_eq!(b.occupancy(InputBuffers::lane(NodeId(0), 0, REQ)), 1);
    }

    #[test]
    fn flat_head_table_mirrors_every_fifo_after_seeded_pushes_and_pops() {
        let (mesh, capacity) = (Mesh::new(3, 2), 2);
        let nodes = mesh.len();
        let mut b = InputBuffers::new(mesh, capacity);
        let mut rng = crate::rng::SplitMix64::new(42);
        let mut overfull = 0;
        for step in 0..20_000u64 {
            let lane = rng.index(nodes * LANES);
            // Pushes outnumber pops 3:2, so lanes grow past `capacity` the
            // way SMART's unchecked premature stops overflow them.
            if rng.index(5) < 3 {
                let mut p = buffered(step, rng.next_below(1_000));
                p.flight.dest = NodeId(rng.index(nodes) as u16);
                b.push(lane, p);
                overfull += usize::from(b.occupancy(lane) > capacity);
            } else {
                b.pop(lane);
            }
            if step % 97 == 0 || step == 19_999 {
                for node in 0..nodes {
                    for lane in node * LANES..(node + 1) * LANES {
                        let q = &b.queues[lane];
                        assert_eq!(b.occupancy(lane), q.len());
                        assert_eq!(b.occupied[node] >> (lane % LANES) & 1 == 1, !q.is_empty());
                        if let Some(head) = q.front() {
                            assert_eq!(b.head_ready(lane), head.ready_at);
                            assert_eq!(b.head_dest(lane), head.flight.dest);
                            // The leg is the run of the XY route's first
                            // direction.
                            let route = mesh.xy_route(NodeId(node as u16), head.flight.dest);
                            let leg = route.first().map(|&d| {
                                (d, route.iter().take_while(|&&r| r == d).count() as u16)
                            });
                            assert_eq!(b.head_leg(lane), leg);
                        }
                    }
                    assert_eq!(b.active().any(|n| n == node), b.occupied[node] != 0);
                }
            }
        }
        assert!(overfull > 1_000, "the sequence must overflow lanes");
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
        assert_eq!(rr.grant(0b111), Some(1));
        assert_eq!(rr.grant(0b111), Some(2));
        assert_eq!(rr.grant(0b111), Some(0));
        assert_eq!(rr.grant(0b100), Some(2));
        assert_eq!(rr.grant(0), None);
        assert_eq!(rr.grant(1 << 31), Some(31));
        assert_eq!(rr.grant(1 << 31 | 0b10), Some(1), "wraps after the top bit");
    }

    /// The modulo-distance round-robin search the mask grant replaced: the
    /// candidate nearest at or after `last + 1`, wrapping at `space`.
    fn reference_pick(last: usize, candidates: &[usize], space: usize) -> Option<usize> {
        let start = (last + 1) % space;
        candidates
            .iter()
            .copied()
            .min_by_key(|&c| (c + space - start) % space)
    }

    #[test]
    fn mask_grant_matches_the_modulo_round_robin_pick() {
        let full = (1u32 << LANES) - 1;
        let mut rng = crate::rng::SplitMix64::new(0x5eed);
        let mut masks: Vec<u32> = (0..LANES).map(|b| 1 << b).collect();
        masks.push(full);
        masks.extend((0..10_000).map(|_| rng.next_u64() as u32 & full));
        for start in 0..LANES {
            // `last` is the previous winner, so a search starting at
            // `start` follows a grant to `start - 1` (mod the lane count).
            let last = (start + LANES - 1) % LANES;
            for &mask in &masks {
                let candidates: Vec<usize> = (0..LANES).filter(|&l| mask >> l & 1 == 1).collect();
                let mut rr = RoundRobin { last };
                let expected = reference_pick(last, &candidates, LANES);
                assert_eq!(rr.grant(mask), expected, "start {start}, mask {mask:#x}");
                assert_eq!(rr.last, expected.unwrap_or(last));
            }
        }
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
