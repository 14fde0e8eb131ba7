//! The fabric: one switch-allocation engine for all three router kinds.
//!
//! Every cycle the same pass runs: walk the routers holding packets, then
//! their occupied input lanes, reading only the flat head tables of
//! [`InputBuffers`]; gather the ready heads into one lane bit mask per
//! cardinal output direction; and let the per-(router, direction)
//! round-robin arbiter grant one winner, which then moves. What differs between the conventional,
//! SMART and high-radix routers is a small `Policy` derived from
//! [`NocConfig::router`] when the fabric is built:
//!
//! | | conventional | SMART | high-radix |
//! |---|---|---|---|
//! | span requested per move | 1 | `min(remaining, hpc_max)` | `min(remaining, hpc_max)` |
//! | output link slot | direction | direction | direction x span |
//! | downstream-capacity check | always | never | unless landing at the destination |
//! | SSR truncation round | no | yes | no |
//! | arrival at destination | `+flits+1` | `+flits` | `+flits+pipeline` |
//! | ready at an intermediate stop | `+flits+1` | `+flits+1` | `+flits+pipeline+1` |
//!
//! * **Conventional** (the `LOCO + Conventional NoC` baseline of Figures 12
//!   and 13): 1 cycle switch allocation + traversal inside the router, 1
//!   cycle on the link, so 14 hops take 28 cycles in the best case.
//! * **SMART** (Single-cycle Multi-hop Asynchronous Repeated Traversal):
//!   each switch winner broadcasts a SMART Setup Request (SSR) along its
//!   output dimension; routers on the path prioritise *nearer* flits, so a
//!   flit that loses a link to a nearer one stops (is prematurely buffered)
//!   before it and retries from there. The surviving path is traversed in a
//!   single cycle and latched only where the flit stops. SMART-1D never
//!   bypasses a turn, so an X+Y route costs at least two SMART-hops.
//! * **High-radix** (Flattened-Butterfly-like, Section 4.2): dedicated
//!   express links to every router within `hpc_max` hops per dimension, but
//!   ~20 ports need a multi-stage arbiter and crossbar, so every stop costs
//!   the `router_pipeline` (4 stages) and nothing is bypassed. All spans of
//!   one direction share an input port and one arbiter; each span has its
//!   own output link for bandwidth accounting.
//!
//! Two quirks are kept on purpose, because every figure and golden
//! fingerprint depends on them: the conventional router checks downstream
//! capacity even when the next router is the destination (where the packet
//! ejects rather than buffers), and the high-radix router charges its
//! pipeline at the landing stop, including at the destination.

use crate::config::{NocConfig, RouterKind};
use crate::message::VirtualNetwork;
use crate::router::{
    set_bits, Arrival, Buffered, FlightInfo, InputBuffers, LinkOccupancy, RoundRobin, LANES,
};
use crate::stats::FabricCounters;
use crate::topology::{Direction, NodeId};

/// When a switch winner needs free space in the router it lands at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CapacityCheck {
    Always,
    UnlessDestination,
    Never,
}

/// Everything that distinguishes one router kind inside the shared engine.
#[derive(Debug, Clone, Copy)]
struct Policy {
    /// Longest traversal a switch winner requests, in mesh hops.
    max_span: u16,
    /// One output link per (direction, span) with a multi-stage pipeline at
    /// every stop, instead of one link per direction and optional bypass.
    express: bool,
    capacity: CapacityCheck,
    /// Run the SSR round, which may truncate each traversal.
    ssr: bool,
    /// Cycles past `now + flits` at which a packet reaches its destination.
    arrive_delay: u64,
    /// Cycles past `now + flits` at which a packet that stopped short of its
    /// destination may compete for the switch again.
    stop_delay: u64,
}

impl Policy {
    fn for_config(cfg: &NocConfig) -> Self {
        let pipeline = u64::from(cfg.router_pipeline);
        match cfg.router {
            RouterKind::Conventional => Policy {
                max_span: 1,
                express: false,
                capacity: CapacityCheck::Always,
                ssr: false,
                arrive_delay: 1,
                stop_delay: 1,
            },
            RouterKind::Smart => Policy {
                max_span: cfg.hpc_max,
                express: false,
                capacity: CapacityCheck::Never,
                ssr: true,
                arrive_delay: 0,
                stop_delay: 1,
            },
            RouterKind::HighRadix => Policy {
                max_span: cfg.hpc_max,
                express: true,
                capacity: CapacityCheck::UnlessDestination,
                ssr: false,
                arrive_delay: pipeline,
                stop_delay: pipeline + 1,
            },
        }
    }
}

/// One switch-allocation winner of the current cycle: the head of `lane`
/// (on `vn`) at `node` leaves through `dir`, requesting `span` hops and
/// granted `hops` (SMART's SSR round may grant fewer).
#[derive(Debug, Clone, Copy)]
struct Move {
    node: NodeId,
    lane: usize,
    vn: VirtualNetwork,
    dir: Direction,
    span: u16,
    hops: u16,
}

/// The NoC fabric: router buffers, arbiters and links of one mesh, moved
/// each cycle under the policy of the configured router kind. The
/// [`crate::Network`] front-end owns payloads and multicast expansion; the
/// fabric only moves [`FlightInfo`] descriptors.
#[derive(Debug)]
pub struct Fabric {
    cfg: NocConfig,
    policy: Policy,
    buffers: InputBuffers,
    /// One round-robin arbiter per (router, cardinal direction).
    arbiters: Vec<RoundRobin>,
    links: LinkOccupancy,
    in_flight: usize,
    counters: FabricCounters,
    // Persistent per-tick scratch (the per-cycle tick is the simulator's
    // hottest loop; steady state must not allocate).
    move_scratch: Vec<Move>,
    /// Downstream buffer slots reserved by earlier winners this cycle,
    /// indexed by mesh-wide lane; only the dirtied entries are reset.
    reserved_scratch: Vec<u8>,
    reserved_dirty: Vec<usize>,
    /// SMART: whether the link leaving `node` in a cardinal direction has
    /// been claimed by an SSR this cycle, indexed by `node * 4 + dir`.
    claimed_scratch: Vec<bool>,
    claimed_dirty: Vec<usize>,
}

impl Fabric {
    /// Builds the fabric for the given configuration.
    pub fn new(cfg: NocConfig) -> Self {
        let mesh = cfg.mesh;
        let nodes = mesh.len();
        let policy = Policy::for_config(&cfg);
        let links_per_node = if policy.express {
            4 * cfg.hpc_max as usize
        } else {
            4
        };
        Fabric {
            cfg,
            policy,
            buffers: InputBuffers::new(mesh, cfg.vn_buffer_capacity()),
            arbiters: (0..nodes * 4).map(|_| RoundRobin::new()).collect(),
            links: LinkOccupancy::new(nodes, links_per_node),
            in_flight: 0,
            counters: FabricCounters::default(),
            move_scratch: Vec::new(),
            reserved_scratch: vec![0; nodes * LANES],
            reserved_dirty: Vec::new(),
            claimed_scratch: vec![false; nodes * 4],
            claimed_dirty: Vec::new(),
        }
    }

    /// Whether the injection queue at `node` for `vn` can accept a packet.
    pub fn can_accept(&self, node: NodeId, vn: VirtualNetwork) -> bool {
        self.buffers
            .has_space(InputBuffers::lane(node, Direction::Local.index(), vn))
    }

    /// Places a packet into the source router's local input port. The caller
    /// must have checked [`Fabric::can_accept`].
    pub fn inject(&mut self, flight: FlightInfo, now: u64) {
        self.buffers.push(
            InputBuffers::lane(flight.src, Direction::Local.index(), flight.vn),
            Buffered {
                flight,
                ready_at: now + 1,
            },
        );
        self.in_flight += 1;
        self.counters.buffer_writes += 1;
    }

    /// Advances the fabric by one cycle, appending packets that reached their
    /// segment destination to `arrivals`.
    pub fn tick(&mut self, now: u64, arrivals: &mut Vec<Arrival>) {
        // All fabric packets live in router buffers between ticks; an empty
        // fabric has nothing to arbitrate and nothing to move.
        if self.in_flight == 0 {
            return;
        }
        // Moves are computed first and applied afterwards so that a packet
        // moved this cycle cannot be moved again within the same cycle.
        let mut moves = std::mem::take(&mut self.move_scratch);
        debug_assert!(moves.is_empty());
        self.allocate(now, &mut moves);
        if self.policy.ssr {
            self.arbitrate_ssrs(&mut moves);
        }
        for mv in moves.drain(..) {
            self.apply(mv, now, arrivals);
        }
        self.move_scratch = moves;
    }

    /// Switch allocation: for every active router and cardinal direction,
    /// picks at most one ready head whose output link is free and whose
    /// landing router has room (as the policy requires).
    ///
    /// A single pass over each router's occupied lanes buckets the
    /// candidates per direction (a head's route does not depend on the
    /// direction being arbitrated); bucket order equals lane order, so
    /// round-robin outcomes match one scan per direction bit for bit.
    fn allocate(&mut self, now: u64, moves: &mut Vec<Move>) {
        debug_assert!(self.reserved_dirty.is_empty());
        // Requested span per lane of the router being scanned, valid only
        // for its candidate lanes.
        let mut spans = [0u16; LANES];
        for node_idx in self.buffers.active() {
            let node = NodeId(node_idx as u16);
            // Per-direction candidate lane masks (bit = router-local lane),
            // and the directions that have any.
            let mut cand = [0u32; 4];
            let mut dirs = 0;
            for lane in self.buffers.occupied_lanes(node_idx) {
                if self.buffers.head_ready(lane) > now {
                    continue;
                }
                let Some((dir, span)) = self.route(lane) else {
                    continue;
                };
                if !self.links.is_free(node, self.link_slot(dir, span), now)
                    || self.downstream_full(node, dir, span, lane)
                {
                    continue;
                }
                cand[dir.index()] |= 1 << (lane % LANES);
                dirs |= 1 << dir.index();
                spans[lane % LANES] = span;
            }
            for d in set_bits(dirs) {
                let dir = Direction::CARDINAL[d];
                let winner = self.arbiters[node_idx * 4 + d]
                    .grant(cand[d])
                    .expect("a direction with candidates has a winner");
                let lane = node_idx * LANES + winner;
                let vn = lane_vn(lane);
                let span = spans[winner];
                if self.policy.capacity != CapacityCheck::Never {
                    let landing = self.advance(node, dir, span);
                    let ridx = InputBuffers::lane(landing, dir.opposite().index(), vn);
                    self.reserved_scratch[ridx] += 1;
                    self.reserved_dirty.push(ridx);
                }
                if self.policy.ssr {
                    // Each winner drives its dedicated SSR wires `span`
                    // routers far, whatever the SSR round then truncates the
                    // traversal to.
                    self.counters.ssr_broadcasts += 1;
                    self.counters.ssr_hops += u64::from(span);
                }
                moves.push(Move {
                    node,
                    lane,
                    vn,
                    dir,
                    span,
                    hops: if self.policy.ssr { 0 } else { span },
                });
            }
        }
        while let Some(ridx) = self.reserved_dirty.pop() {
            self.reserved_scratch[ridx] = 0;
        }
    }

    /// SMART's SSR arbitration with nearer-flit priority.
    ///
    /// Links are claimed in rounds of increasing distance from each SSR's
    /// start router: a flit claiming the link out of its own router
    /// (round 0) always beats a flit trying to bypass through that router
    /// (a later round), which is the "prioritize local/nearer flits" rule
    /// of the SMART paper. An SSR whose claim fails stops (is prematurely
    /// buffered) at the router before the contended link.
    fn arbitrate_ssrs(&mut self, moves: &mut [Move]) {
        debug_assert!(self.claimed_dirty.is_empty());
        for round in 0..self.cfg.hpc_max {
            for mv in moves.iter_mut() {
                // An SSR still competing has claimed every link before this
                // one; it drops out once it loses a claim or is complete.
                if mv.hops != round || round >= mv.span {
                    continue;
                }
                let at = self.advance(mv.node, mv.dir, round);
                let idx = at.index() * 4 + mv.dir.index();
                if self.claimed_scratch[idx] {
                    // Round 0 claims each SSR's own start link, which is
                    // unique per SSR, so a loss is always short of the start.
                    debug_assert!(round > 0, "an SSR lost its own start link");
                    self.counters.premature_stops += 1;
                } else {
                    self.claimed_scratch[idx] = true;
                    self.claimed_dirty.push(idx);
                    mv.hops += 1;
                }
            }
        }
        // `span <= hpc_max`, the number of rounds: no SSR is cut off by the
        // last round, and every SSR travels at least one hop.
        debug_assert!(moves.iter().all(|mv| (1..=mv.span).contains(&mv.hops)));
        while let Some(idx) = self.claimed_dirty.pop() {
            self.claimed_scratch[idx] = false;
        }
    }

    /// Moves a winner `mv.hops` hops: it leaves its input buffer, holds every
    /// link it crosses for the packet length, and either arrives at its
    /// destination or is latched at the router where it stops.
    fn apply(&mut self, mv: Move, now: u64, arrivals: &mut Vec<Arrival>) {
        let buffered = self.buffers.pop(mv.lane).expect("winner packet present");
        let mut flight = buffered.flight;
        let flits = u64::from(flight.flits);
        let hops = u64::from(mv.hops);
        // Event accounting: one buffer read at the winning router, `hops`
        // mesh hops of wire per flit, one latch where the packet stops.
        self.counters.buffer_reads += 1;
        self.counters.link_flit_hops += hops * flits;
        self.counters.stop_hops += 1;
        let landing = if self.policy.express {
            // One (multi-stage) crossbar pass, one express link whose wire
            // spans `hops` mesh hops, a full pipeline pass at the landing
            // router.
            self.counters.crossbar_traversals += 1;
            self.counters.express_traversals += 1;
            self.counters.pipeline_passes += 1;
            self.links
                .occupy(mv.node, self.link_slot(mv.dir, mv.hops), now + flits);
            self.advance(mv.node, mv.dir, mv.hops)
        } else {
            // The path crosses the crossbar of every router it leaves (the
            // start plus any bypassed routers) and holds each link.
            self.counters.crossbar_traversals += hops;
            self.counters.bypass_hops += hops - 1;
            let mut at = mv.node;
            for _ in 0..mv.hops {
                self.links.occupy(at, mv.dir.index(), now + flits);
                at = self.advance(at, mv.dir, 1);
            }
            at
        };
        flight.stops += 1;
        if landing == flight.dest {
            self.in_flight -= 1;
            arrivals.push(Arrival {
                flight,
                at: landing,
                now: now + flits + self.policy.arrive_delay,
            });
        } else {
            self.counters.buffer_writes += 1;
            self.buffers.push(
                InputBuffers::lane(landing, mv.dir.opposite().index(), mv.vn),
                Buffered {
                    flight,
                    ready_at: now + flits + self.policy.stop_delay,
                },
            );
        }
    }

    /// Event-horizon probe for event-driven simulation: the earliest cycle
    /// `>= now` at which [`Fabric::tick`] *might* change fabric state, or
    /// `None` when the fabric is empty and can never act again on its own.
    /// It is computed per occupied (router, lane) head — the first cycle the
    /// head is switch-eligible *and* its requested output link is free — so
    /// the bound is meaningful under partial occupancy, not only at full
    /// drain.
    ///
    /// The bound must be conservative from below — it may name a cycle at
    /// which nothing ends up moving (e.g. a head packet that will lose
    /// arbitration, find a downstream buffer full or have its SSR
    /// truncated), but it must never skip past a cycle at which a move, an
    /// arbiter update, a counter increment or any other state change would
    /// have occurred. Ticking at a cycle where no candidate exists is a
    /// no-op by construction (arbiter pointers and event counters only
    /// advance when a candidate wins), which is what makes cycle skipping
    /// exact. This probe is **load-bearing** for `CmpSystem`'s scheduler
    /// (via `Network::next_event`): the root `tests/equivalence.rs`
    /// randomized stress suite cross-checks it against naive per-cycle
    /// stepping, and it must never mutate state (the event-energy counters
    /// inherit the run/run_naive bit-identity from that rule).
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        for node_idx in self.buffers.active() {
            let node = NodeId(node_idx as u16);
            for lane in self.buffers.occupied_lanes(node_idx) {
                let Some((dir, span)) = self.route(lane) else {
                    continue;
                };
                let e = self
                    .buffers
                    .head_ready(lane)
                    .max(self.links.free_at(node, self.link_slot(dir, span)))
                    .max(now);
                if e == now {
                    return Some(now);
                }
                next = Some(next.map_or(e, |n| n.min(e)));
            }
        }
        next
    }

    /// Number of packets currently inside the fabric.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The micro-architectural event counters accumulated so far (buffer
    /// reads/writes, crossbar traversals, link hops, SSR events). These are
    /// the raw inputs of the event-energy model; they change only in
    /// `inject`/`tick` (never in `next_event` or other read-only probes),
    /// which is what keeps them bit-identical between event-driven and
    /// naive execution.
    pub fn counters(&self) -> &FabricCounters {
        &self.counters
    }

    /// Total number of router-buffer writes so far (a proxy for buffer
    /// energy and for SMART premature stops).
    pub fn buffer_writes(&self) -> u64 {
        self.counters.buffer_writes
    }

    /// Number of times a flit was stopped before completing its intended
    /// SMART-hop because it lost SSR arbitration to a nearer flit.
    pub fn premature_stops(&self) -> u64 {
        self.counters.premature_stops
    }

    /// Output direction and requested span of the head of `lane`: the rest
    /// of its XY leg, clamped to the policy's longest traversal (SMART-1D
    /// and express links stop at the turn router).
    fn route(&self, lane: usize) -> Option<(Direction, u16)> {
        let (dir, remaining) = self.buffers.head_leg(lane)?;
        Some((dir, remaining.min(self.policy.max_span)))
    }

    /// The node `steps` hops from `from` in `dir`, by index arithmetic: a
    /// fabric move never runs past the mesh edge (its span is clamped to
    /// the distance left in its dimension).
    fn advance(&self, from: NodeId, dir: Direction, steps: u16) -> NodeId {
        let w = i32::from(self.cfg.mesh.width());
        let at = i32::from(from.0) + i32::from(steps) * [1, -1, w, -w][dir.index()];
        let at = NodeId(at as u16);
        debug_assert_eq!(
            at,
            self.cfg.mesh.advance(from, dir, steps),
            "a move crossed the mesh edge"
        );
        at
    }

    /// Index of the output link a move of `span` hops in `dir` uses.
    fn link_slot(&self, dir: Direction, span: u16) -> usize {
        debug_assert!(span >= 1 && span <= self.policy.max_span);
        if self.policy.express {
            dir.index() * self.cfg.hpc_max as usize + (span as usize - 1)
        } else {
            dir.index()
        }
    }

    /// Whether the router `span` hops from `node` in `dir` lacks room in
    /// the lane the head of `lane` would enter, counting the slots reserved
    /// by earlier winners this cycle, when the policy asks for the check.
    /// The high-radix check is waived when that router is the head's own
    /// destination.
    // Runs once per ready head in the candidate scan; as an out-of-line call
    // it slowed the conventional fabric's tick measurably.
    #[inline(always)]
    fn downstream_full(&self, node: NodeId, dir: Direction, span: u16, lane: usize) -> bool {
        if self.policy.capacity == CapacityCheck::Never {
            return false;
        }
        let landing = self.advance(node, dir, span);
        let down = InputBuffers::lane(landing, dir.opposite().index(), lane_vn(lane));
        let occ = self.buffers.occupancy(down) + self.reserved_scratch[down] as usize;
        occ >= self.cfg.vn_buffer_capacity()
            && (self.policy.capacity == CapacityCheck::Always
                || landing != self.buffers.head_dest(lane))
    }
}

/// Virtual network of a mesh-wide lane index.
fn lane_vn(lane: usize) -> VirtualNetwork {
    VirtualNetwork::ALL[lane % VirtualNetwork::ALL.len()]
}

/// A descriptor for unit tests: `flits` flits from `src` to `dest` on the
/// request network, injected at cycle 0.
#[cfg(test)]
pub(crate) fn test_flight(id: u64, src: u16, dest: u16, flits: u32) -> FlightInfo {
    FlightInfo {
        id: crate::router::PacketId(id),
        src: NodeId(src),
        dest: NodeId(dest),
        vn: VirtualNetwork::Request,
        flits,
        injected_at: 0,
        stops: 0,
    }
}

/// Ticks `fab` through cycles `0..cycles` and returns every arrival.
#[cfg(test)]
pub(crate) fn drain(fab: &mut Fabric, cycles: u64) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    for now in 0..cycles {
        fab.tick(now, &mut arrivals);
    }
    arrivals
}
