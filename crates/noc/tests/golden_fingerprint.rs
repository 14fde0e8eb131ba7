//! Golden fingerprints of the cycle-driven NoC, one per router kind.
//!
//! Each run drives a [`Network`] with seeded open-loop traffic (mixed 1-flit
//! and 5-flit packets on every virtual network, some multicast) and folds
//! every delivery (payload id, receiver, ejection cycle, latency, stops), the
//! number of refused injections and the final [`NetworkStats`] (including the
//! fabric event counters) into one 64-bit value. Any change to candidate
//! order, arbitration, reservations, move application or timing shows up
//! here. Two meshes are covered: an 8x8 mesh with the Table-1 buffers, and a
//! 4x4 mesh with one single-packet VC per virtual network, where
//! backpressure, downstream reservations and SMART premature stops all fire.

use loco_noc::{
    Delivered, FxHasher, NetMessage, Network, NocConfig, NodeId, RouterKind, SplitMix64,
    VirtualNetwork,
};
use std::hash::Hasher;

/// Cycles of traffic injection before the network is drained.
const INJECT_CYCLES: u64 = 1_500;

/// Upper bound on the drain phase; every kind drains far sooner.
const DRAIN_LIMIT: u64 = 100_000;

fn config(kind: RouterKind, side: u16) -> NocConfig {
    match kind {
        RouterKind::Conventional => NocConfig::conventional_mesh(side, side),
        RouterKind::Smart => NocConfig::smart_mesh(side, side, 4),
        RouterKind::HighRadix => NocConfig::highradix_mesh(side, side, 4),
    }
}

/// What one run observed, beyond the fingerprint itself.
struct Outcome {
    fingerprint: u64,
    delivered: u64,
    refused: u64,
    premature_stops: u64,
}

/// Runs seeded traffic at `load` packets per node per cycle and folds the
/// observable behaviour into a fingerprint.
fn run(cfg: NocConfig, load: f64, seed: u64) -> Outcome {
    let mut net: Network<u64> = Network::new(cfg);
    let mesh = cfg.mesh;
    // Multicast group: every node at even (x, y), a sparse VMS-like set.
    let members: Vec<NodeId> = mesh
        .nodes()
        .filter(|&n| {
            let c = mesh.coord(n);
            c.x.is_multiple_of(2) && c.y.is_multiple_of(2)
        })
        .collect();
    let group = net.register_multicast_group(members.clone());
    let nodes = mesh.len();
    let mut rng = SplitMix64::new(seed);
    let mut h = FxHasher::default();
    let mut next_id = 0u64;
    let mut refused = 0u64;
    let mut delivered = 0u64;
    let mut out: Vec<Delivered<u64>> = Vec::new();
    let mut fold = |net: &mut Network<u64>, out: &mut Vec<Delivered<u64>>, delivered: &mut u64| {
        net.eject_all_into(out);
        for d in out.drain(..) {
            h.write_u64(d.msg.payload);
            h.write_u16(d.receiver.0);
            h.write_u64(d.ejected_at);
            h.write_u64(d.latency);
            h.write_u32(d.stops);
            *delivered += 1;
        }
    };
    for _ in 0..INJECT_CYCLES {
        for src in 0..nodes {
            if !rng.gen_bool(load) {
                continue;
            }
            let src = NodeId(src as u16);
            let vn = VirtualNetwork::ALL[rng.index(VirtualNetwork::ALL.len())];
            // 8 B control messages (1 flit) and 72 B data messages (5 flits).
            let bytes = if rng.gen_bool(0.4) { 72 } else { 8 };
            let multicast = members.contains(&src) && rng.gen_bool(0.1);
            let msg = if multicast {
                NetMessage::multicast(src, group, vn, bytes, next_id)
            } else {
                let dest = NodeId(rng.index(nodes) as u16);
                NetMessage::unicast(src, dest, vn, bytes, next_id)
            };
            next_id += 1;
            if net.inject(msg).is_err() {
                refused += 1;
            }
        }
        net.tick();
        fold(&mut net, &mut out, &mut delivered);
    }
    let mut drained = 0;
    while net.is_busy() {
        net.tick();
        fold(&mut net, &mut out, &mut delivered);
        drained += 1;
        assert!(
            drained < DRAIN_LIMIT,
            "{:?} network did not drain",
            cfg.router
        );
    }
    let stats = net.stats();
    h.write(format!("{stats:?}").as_bytes());
    h.write_u64(refused);
    h.write_u64(net.cycle());
    Outcome {
        fingerprint: h.finish(),
        delivered,
        refused,
        premature_stops: stats.fabric.premature_stops,
    }
}

fn check(kind: RouterKind, side: u16, tight: bool, load: f64, seed: u64, golden: u64) -> Outcome {
    let mut cfg = config(kind, side);
    if tight {
        cfg.vcs_per_vn = 1;
        cfg.vc_depth = 1;
    }
    let o = run(cfg, load, seed);
    assert!(o.delivered > 0, "{kind:?}: nothing delivered");
    assert_eq!(
        o.fingerprint, golden,
        "{kind:?} {side}x{side} (tight buffers: {tight}): fingerprint {:#x}",
        o.fingerprint
    );
    o
}

#[test]
fn conventional_8x8_fingerprint() {
    check(
        RouterKind::Conventional,
        8,
        false,
        0.04,
        0xc0_4e,
        0x7d99_989c_ddac_0501,
    );
}

#[test]
fn smart_8x8_fingerprint() {
    check(
        RouterKind::Smart,
        8,
        false,
        0.04,
        0xc0_4e,
        0x666e_6535_31fc_1ff8,
    );
}

#[test]
fn highradix_8x8_fingerprint() {
    check(
        RouterKind::HighRadix,
        8,
        false,
        0.04,
        0xc0_4e,
        0x802e_7f4f_23ae_7df7,
    );
}

#[test]
fn conventional_tight_4x4_fingerprint() {
    let o = check(
        RouterKind::Conventional,
        4,
        true,
        0.15,
        0x4b_1e,
        0x893b_3bb5_a6f1_9905,
    );
    assert!(o.refused > 0, "backpressure never reached injection");
}

#[test]
fn smart_tight_4x4_fingerprint() {
    let o = check(
        RouterKind::Smart,
        4,
        true,
        0.15,
        0x4b_1e,
        0x30bd_b1d5_add0_2ea3,
    );
    assert!(o.refused > 0, "backpressure never reached injection");
    assert!(o.premature_stops > 0, "no SSR ever lost arbitration");
}

#[test]
fn highradix_tight_4x4_fingerprint() {
    let o = check(
        RouterKind::HighRadix,
        4,
        true,
        0.15,
        0x4b_1e,
        0xfe05_c66c_2a2e_a524,
    );
    assert!(o.refused > 0, "backpressure never reached injection");
}
