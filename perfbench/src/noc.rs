//! The `noc-synthetic` workload: `loco_noc::Network` alone.
//!
//! Open-loop, seeded, uniform-random traffic on a mesh, for each router
//! kind at each offered load. Every node offers packets at the load's rate
//! (Bernoulli per cycle, drawn as geometric gaps) whatever the network
//! does; a packet the network refuses waits in its node's queue and is
//! offered again next cycle. Packets are 8 B requests, 72 B responses, and
//! a small share of 8 B multicasts from members of a 4x4 group (every other
//! row and column) to the rest of the group. After the offered window the
//! network drains; a packet fails unless every intended receiver got
//! exactly one copy.

use crate::metrics::{digest_of, fold, median, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SetupSamples};
use loco::{EnergyParams, NetworkStats, NocConfig, NodeId, RouterKind, SplitMix64};
use loco_noc::{Delivered, MulticastGroupId, NetMessage, Network, VirtualNetwork};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The three router kinds, in the campaign's NoC-sweep order.
const KINDS: [RouterKind; 3] = [
    RouterKind::Smart,
    RouterKind::Conventional,
    RouterKind::HighRadix,
];

/// The workload's name.
pub const NAME: &str = "noc-synthetic";
/// SMART hops per cycle / high-radix express reach.
const HPC_MAX: u16 = 4;
/// Offered loads, in packets per node per cycle; both are below the
/// conventional mesh's saturation.
const LOADS: [f64; 2] = [0.02, 0.05];
/// Share of the packets offered by multicast-group members that are
/// multicasts.
const MULTICAST_SHARE: f64 = 0.05;
/// Cycles allowed after the offered window for the network to drain.
const DRAIN_LIMIT: u64 = 100_000;

/// A synthetic-traffic workload: its mesh and how long traffic is offered.
#[derive(Debug, Clone)]
pub struct NocSpec {
    /// Mesh width (width x height must not exceed 64).
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// Cycles during which traffic is offered.
    pub cycles: u64,
}

impl NocSpec {
    /// 8x8 mesh, 20 000 offered cycles at each load.
    pub fn synthetic() -> Self {
        NocSpec {
            width: 8,
            height: 8,
            cycles: 20_000,
        }
    }

    /// The workload parameters as a JSON object.
    pub fn params_json(&self) -> String {
        let loads: Vec<String> = LOADS.iter().map(f64::to_string).collect();
        format!(
            "{{\"mesh\": \"{}x{}\", \"hpc_max\": {HPC_MAX}, \"offered_cycles\": {}, \"loads\": [{}], \
             \"multicast_share\": {MULTICAST_SHARE}, \"drain_limit\": {DRAIN_LIMIT}, \
             \"traffic\": \"open-loop uniform random\"}}",
            self.width,
            self.height,
            self.cycles,
            loads.join(", "),
        )
    }

    fn nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Bit `i` set for every multicast-group member `NodeId(i)`.
    fn group_mask(&self) -> u64 {
        (0..self.nodes())
            .filter(|&i| {
                (i % usize::from(self.width)) % 2 == 0 && (i / usize::from(self.width)) % 2 == 0
            })
            .fold(0, |m, i| m | 1 << i)
    }

    fn noc_config(&self, kind: RouterKind) -> NocConfig {
        match kind {
            RouterKind::Smart => NocConfig::smart_mesh(self.width, self.height, HPC_MAX),
            RouterKind::Conventional => NocConfig::conventional_mesh(self.width, self.height),
            RouterKind::HighRadix => NocConfig::highradix_mesh(self.width, self.height, HPC_MAX),
        }
    }

    /// Every (router kind, load) pair, load-major.
    fn configs(&self) -> Vec<(RouterKind, usize)> {
        (0..LOADS.len())
            .flat_map(|l| KINDS.iter().map(move |&k| (k, l)))
            .collect()
    }

    fn label(&self, (kind, load): (RouterKind, usize)) -> String {
        format!("{}@{}", kind.label(), LOADS[load])
    }
}

/// One offered packet.
#[derive(Debug, Clone, Copy)]
struct Offer {
    cycle: u64,
    src: u16,
    /// `None` for a multicast to the group.
    dest: Option<u16>,
    vn: VirtualNetwork,
    bytes: u32,
}

/// The packets offered at one load. Every router kind sees the same
/// packets, because the stream depends only on the seed and the load.
fn traffic(spec: &NocSpec, seed: u64, load: usize) -> Vec<Offer> {
    let mut rng = SplitMix64::new(seed ^ (load as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let p = LOADS[load];
    let n = spec.nodes();
    let group = spec.group_mask();
    let mut offers = Vec::new();
    for src in 0..n {
        let mut cycle = 0u64;
        loop {
            // Geometric gap: the number of Bernoulli(p) trials until the
            // next success, so each cycle offers a packet with probability p.
            let u = 1.0 - rng.next_f64();
            cycle += 1 + (u.ln() / (1.0 - p).ln()).floor() as u64;
            if cycle > spec.cycles {
                break;
            }
            let multicast = group & 1 << src != 0 && rng.gen_bool(MULTICAST_SHARE);
            let (dest, vn, bytes) = if multicast {
                (None, VirtualNetwork::Broadcast, 8)
            } else {
                let d = rng.index(n - 1);
                let d = if d >= src { d + 1 } else { d };
                if rng.gen_bool(0.5) {
                    (Some(d as u16), VirtualNetwork::Request, 8)
                } else {
                    (Some(d as u16), VirtualNetwork::Response, 72)
                }
            };
            offers.push(Offer {
                cycle: cycle - 1,
                src: src as u16,
                dest,
                vn,
                bytes,
            });
        }
    }
    offers.sort_by_key(|o| (o.cycle, o.src));
    offers
}

/// What driving one configuration produced.
struct Drive {
    offered: u64,
    failed: u64,
    cycles: u64,
    refused: u64,
    stats: NetworkStats,
}

fn timed<T>(on: bool, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// Builds the network of one router kind with the multicast group
/// registered.
fn network(spec: &NocSpec, kind: RouterKind) -> (Network<u32>, MulticastGroupId) {
    let mut net = Network::new(spec.noc_config(kind));
    let mask = spec.group_mask();
    let members = (0..spec.nodes())
        .filter(|&i| mask & 1 << i != 0)
        .map(|i| NodeId(i as u16))
        .collect();
    let group = net.register_multicast_group(members);
    (net, group)
}

/// Offers `offers` to a fresh network of `kind`, drains it and checks every
/// delivery. When the tracer is on, every `inject`, `tick` and
/// `eject_all_into` call is timed.
fn drive(
    spec: &NocSpec,
    kind: RouterKind,
    offers: &[Offer],
    index: usize,
    tracer: &mut Tracer,
) -> Drive {
    let on = tracer.enabled();
    let (mut net, group) = tracer.span("noc.new", index, || network(spec, kind));
    let group_mask = spec.group_mask();
    let mut expected: Vec<u64> = offers
        .iter()
        .map(|o| o.dest.map_or(group_mask & !(1 << o.src), |d| 1 << d))
        .collect();
    let mut misdelivered = vec![false; offers.len()];
    let mut queues: Vec<VecDeque<u32>> = vec![VecDeque::new(); spec.nodes()];
    let mut delivered: Vec<Delivered<u32>> = Vec::new();
    let mut outstanding = expected.iter().filter(|&&e| e != 0).count();
    let (mut queued, mut next, mut refused) = (0usize, 0usize, 0u64);
    let (mut inject_t, mut tick_t, mut eject_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut inject_calls = 0u64;
    let limit = spec.cycles + DRAIN_LIMIT;
    while net.cycle() < limit {
        let now = net.cycle();
        while next < offers.len() && offers[next].cycle <= now {
            queues[usize::from(offers[next].src)].push_back(next as u32);
            queued += 1;
            next += 1;
        }
        if queued > 0 {
            for q in &mut queues {
                let Some(&i) = q.front() else { continue };
                let o = offers[i as usize];
                let msg = match o.dest {
                    Some(d) => NetMessage::unicast(NodeId(o.src), NodeId(d), o.vn, o.bytes, i),
                    None => NetMessage::multicast(NodeId(o.src), group, o.vn, o.bytes, i),
                };
                inject_calls += 1;
                if timed(on, &mut inject_t, || net.inject(msg)).is_ok() {
                    q.pop_front();
                    queued -= 1;
                } else {
                    refused += 1;
                }
            }
        }
        timed(on, &mut tick_t, || net.tick());
        timed(on, &mut eject_t, || net.eject_all_into(&mut delivered));
        for d in delivered.drain(..) {
            let i = d.msg.payload as usize;
            let bit = 1u64 << d.receiver.index();
            if expected[i] & bit == 0 {
                misdelivered[i] = true;
            } else {
                expected[i] &= !bit;
                if expected[i] == 0 {
                    outstanding -= 1;
                }
            }
        }
        if next == offers.len() && queued == 0 && outstanding == 0 {
            break;
        }
    }
    let cycles = net.cycle();
    tracer.total("noc.inject", index, inject_calls, inject_t);
    tracer.total("noc.tick", index, cycles, tick_t);
    tracer.total("noc.eject", index, cycles, eject_t);
    let failed = expected
        .iter()
        .zip(&misdelivered)
        .filter(|&(&e, &bad)| e != 0 || bad)
        .count() as u64;
    Drive {
        offered: offers.len() as u64,
        failed,
        cycles,
        refused,
        stats: tracer.span("noc.stats", index, || net.stats()),
    }
}

/// One repetition: every configuration, generated, driven and drained.
fn unit(spec: &NocSpec, seed: u64, tracer: &mut Tracer) -> Vec<Drive> {
    spec.configs()
        .into_iter()
        .enumerate()
        .map(|(i, (kind, load))| {
            let offers = tracer.span("workloads.traffic", i, || traffic(spec, seed, load));
            let begin = Instant::now();
            let d = drive(spec, kind, &offers, i, tracer);
            tracer.record("noc.drive", i, begin, Instant::now());
            d
        })
        .collect()
}

fn drive_digest(d: &Drive) -> u64 {
    digest_of(&format!(
        "{} {} {} {:?}",
        d.cycles, d.refused, d.failed, d.stats
    ))
}

/// Counts a repetition's packets into the outcome: failed deliveries, and
/// every packet of a configuration whose statistics differ from the
/// reference.
fn check(
    spec: &NocSpec,
    drives: &[Drive],
    reference: Option<&[u64]>,
    outcome: &mut Outcome,
) -> Vec<u64> {
    let mut digests = Vec::new();
    for (i, (d, config)) in drives.iter().zip(spec.configs()).enumerate() {
        let digest = drive_digest(d);
        outcome.attempted += d.offered;
        if d.failed > 0 {
            outcome.fail(
                d.failed,
                format!(
                    "{}: {} packets not delivered exactly once",
                    spec.label(config),
                    d.failed
                ),
            );
        } else if reference.is_some_and(|r| r[i] != digest) {
            outcome.fail(
                d.offered,
                format!(
                    "{}: statistics differ from the first repetition",
                    spec.label(config)
                ),
            );
        }
        digests.push(digest);
    }
    digests
}

/// Runs the synthetic-NoC workload (see the module docs).
///
/// # Panics
///
/// Panics if the mesh has more than 64 nodes.
pub fn run(spec: &NocSpec, cfg: &RunConfig) -> Outcome {
    assert!(spec.nodes() <= 64, "receiver masks hold at most 64 nodes");
    let mut outcome = Outcome::new(cfg.trace);
    if cfg.trace {
        return run_traced(spec, cfg, outcome);
    }
    let mut setup = SetupSamples::default();
    let mut off = Tracer::new(false);
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        setup.take(walls.last().copied().unwrap_or(0.0), || {
            for (kind, load) in spec.configs() {
                black_box(traffic(spec, cfg.seed, load));
                black_box(network(spec, kind));
            }
        });
        let t = Instant::now();
        let drives = unit(spec, cfg.seed, &mut off);
        let wall = t.elapsed().as_secs_f64();
        let digests = check(spec, &drives, reference.as_deref(), &mut outcome);
        let cycles: u64 = drives.iter().map(|d| d.cycles).sum();
        walls.push(wall);
        rates.push(cycles as f64 / wall);
        reference.get_or_insert(digests);
    }
    outcome.digest = fold(reference.as_deref().unwrap_or_default());
    outcome.metrics.set("wall_s", median(&walls));
    outcome.walls = walls;
    outcome.metrics.set("sim_cycles_per_s", median(&rates));
    outcome.metrics.set("setup_s", setup.median());
    outcome
}

fn run_traced(spec: &NocSpec, cfg: &RunConfig, mut outcome: Outcome) -> Outcome {
    let mut tracer = Tracer::new(true);
    tracer.labels = spec.configs().into_iter().map(|c| spec.label(c)).collect();
    let mut off = Tracer::new(false);
    let energy = EnergyParams::default();
    let (mut reps, mut plain, mut traced): (Vec<Metrics>, Vec<f64>, Vec<f64>) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let rep = reps.len() as u32;
        // The same repetition untraced, then traced: their times give the
        // tracing overhead, and both must match the first repetition.
        let t = Instant::now();
        let drives = unit(spec, cfg.seed, &mut off);
        plain.push(t.elapsed().as_secs_f64());
        let digests = check(spec, &drives, reference.as_deref(), &mut outcome);
        let reference = reference.get_or_insert(digests);
        let mut rt = tracer.child(rep);
        let t = Instant::now();
        let drives = unit(spec, cfg.seed, &mut rt);
        traced.push(t.elapsed().as_secs_f64());
        check(spec, &drives, Some(reference), &mut outcome);

        let mut m = Metrics::per_layer_zeroed();
        let mut energy_fj = 0u64;
        for (i, d) in drives.iter().enumerate() {
            energy_fj += rt
                .span("energy.network_energy", i, || {
                    energy.network_energy(&d.stats)
                })
                .total_fj();
        }
        let sum = |f: &dyn Fn(&Drive) -> u64| drives.iter().map(f).sum::<u64>();
        let delivered = sum(&|d| d.stats.delivered_copies);
        let tick_s = rt.seconds("noc.tick", rep);
        m.set(
            "workloads.trace_gen_s",
            rt.seconds("workloads.traffic", rep),
        );
        m.set("sim.build_s", rt.seconds("noc.new", rep));
        m.set("noc.inject_s", rt.seconds("noc.inject", rep));
        m.set("noc.tick_s", tick_s);
        m.set("noc.eject_s", rt.seconds("noc.eject", rep));
        m.set(
            "noc.tick_ns_per_cycle",
            tick_s * 1e9 / rt.calls("noc.tick", rep).max(1) as f64,
        );
        m.set("noc.refused_injections", sum(&|d| d.refused) as f64);
        m.set("noc.delivered", delivered as f64);
        m.set(
            "noc.link_flit_hops",
            sum(&|d| d.stats.fabric.link_flit_hops) as f64,
        );
        m.set(
            "noc.buffer_writes",
            sum(&|d| d.stats.fabric.buffer_writes) as f64,
        );
        m.set(
            "noc.premature_stops",
            sum(&|d| d.stats.fabric.premature_stops) as f64,
        );
        m.set(
            "noc.avg_latency_cycles",
            sum(&|d| d.stats.total_latency) as f64 / delivered.max(1) as f64,
        );
        m.set("energy.total_fj", energy_fj as f64);
        m.set("energy.fold_s", rt.seconds("energy.network_energy", rep));
        reps.push(m);
        tracer.absorb(rt);
    }
    outcome.digest = fold(reference.as_deref().unwrap_or_default());
    let mut metrics = Metrics::median_of(&reps);
    metrics.set(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );
    outcome.metrics = metrics;
    outcome.tracer = tracer;
    outcome
}
