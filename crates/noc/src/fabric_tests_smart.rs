//! Unit tests of [`crate::fabric::Fabric`] under the SMART router policy:
//! SSR broadcast, then a single-cycle multi-hop traversal.

mod tests {
    use crate::config::NocConfig;
    use crate::fabric::{drain, test_flight as flight, Fabric};
    use crate::router::PacketId;

    #[test]
    fn single_smart_hop_covers_hpcmax_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        // 4 hops east: one SMART-hop, ~2-3 cycles total.
        fab.inject(flight(1, 0, 4, 1), 0);
        let arr = drain(&mut fab, 20);
        assert_eq!(arr.len(), 1);
        let latency = arr[0].now - arr[0].flight.injected_at;
        assert!(latency <= 3, "latency {latency}");
        assert_eq!(arr[0].flight.stops, 1);
    }

    #[test]
    fn corner_to_corner_is_about_8_cycles() {
        // Section 2: 14 hops on 8x8 with HPCmax=4 is 4 SMART-hops = 8 cycles
        // best case.
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        fab.inject(flight(1, 0, 63, 1), 0);
        let arr = drain(&mut fab, 40);
        assert_eq!(arr.len(), 1);
        let latency = arr[0].now - arr[0].flight.injected_at;
        assert!((8..=10).contains(&latency), "latency {latency}");
        assert_eq!(arr[0].flight.stops, 4);
    }

    #[test]
    fn smart_beats_conventional_on_long_paths() {
        let smart_cfg = NocConfig::smart_mesh(8, 8, 4);
        let conv_cfg = NocConfig::conventional_mesh(8, 8);
        let mut smart = Fabric::new(smart_cfg);
        let mut conv = Fabric::new(conv_cfg);
        smart.inject(flight(1, 0, 63, 1), 0);
        conv.inject(flight(1, 0, 63, 1), 0);
        let s = drain(&mut smart, 100)[0].now;
        let mut arrivals = Vec::new();
        for now in 0..100 {
            conv.tick(now, &mut arrivals);
        }
        let c = arrivals[0].now;
        assert!(s * 2 <= c, "smart {s} vs conventional {c}");
    }

    #[test]
    fn turning_flit_takes_two_smart_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        // 3 hops east + 3 hops north: SMART-1D forces a stop at the turn.
        let dest = 8 * 3 + 3;
        fab.inject(flight(1, 0, dest, 1), 0);
        let arr = drain(&mut fab, 20);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].flight.stops, 2);
        let latency = arr[0].now;
        assert!((4..=6).contains(&latency), "latency {latency}");
    }

    #[test]
    fn nearer_flit_wins_and_farther_flit_stops_prematurely() {
        // Recreates Figure 2c: flit A from router 0 going east 3+ hops,
        // flit B injected at router 1 also going east. B is "nearer" to
        // router 1's output link, so A must stop prematurely at router 1.
        let cfg = NocConfig::smart_mesh(8, 1, 4);
        let mut fab = Fabric::new(cfg);
        fab.inject(flight(1, 0, 6, 1), 0); // A: wants 0 -> 4 in one SMART-hop
        fab.inject(flight(2, 1, 6, 1), 0); // B: local at router 1
        let arr = drain(&mut fab, 40);
        assert_eq!(arr.len(), 2);
        let a = arr.iter().find(|a| a.flight.id == PacketId(1)).unwrap();
        let b = arr.iter().find(|a| a.flight.id == PacketId(2)).unwrap();
        // A is delayed relative to running alone (which would be ~4 cycles).
        assert!(a.now > b.now || a.flight.stops > 2, "a {a:?} b {b:?}");
        assert!(fab.premature_stops() >= 1);
    }

    #[test]
    fn next_event_bounds_every_state_change_from_below() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        assert_eq!(fab.next_event(0), None, "empty fabric has no events");
        // Corner to corner: 4 SMART-hops with stops at intermediate routers.
        fab.inject(flight(1, 0, 63, 1), 0);
        assert_eq!(fab.next_event(0), Some(1));
        let mut arrivals = Vec::new();
        let mut now = 0;
        while fab.in_flight() > 0 {
            let e = fab.next_event(now).expect("packet in flight");
            assert!(e >= now, "bound must not regress");
            for t in now..e {
                fab.tick(t, &mut arrivals);
                assert!(arrivals.is_empty(), "state changed before the bound");
            }
            fab.tick(e, &mut arrivals);
            now = e + 1;
            assert!(now < 100, "packet never arrived");
        }
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].flight.stops, 4);
        assert_eq!(fab.next_event(now), None, "drained fabric is quiescent");
    }

    #[test]
    fn next_event_opens_a_skip_window_under_partial_occupancy() {
        // Two 4-flit packets from the same router: the SSR winner holds the
        // claimed links for the full packet length, so the loser's head sees
        // a future (ready, link-free) cycle. The fabric is occupied the
        // whole time, yet the probe must report a skippable window and every
        // tick inside it must be a no-op (counters included).
        let cfg = NocConfig::smart_mesh(8, 1, 4);
        let mut fab = Fabric::new(cfg);
        fab.inject(flight(1, 0, 7, 4), 0);
        fab.inject(flight(2, 0, 7, 4), 0);
        let mut arrivals = Vec::new();
        fab.tick(0, &mut arrivals);
        fab.tick(1, &mut arrivals); // winner launches its SMART-hop
        assert_eq!(fab.in_flight(), 2, "both packets still inside the fabric");
        let e = fab.next_event(2).expect("packets in flight");
        assert!(e > 2, "partial occupancy must yield a future horizon, got {e}");
        let before = *fab.counters();
        for t in 2..e {
            fab.tick(t, &mut arrivals);
            assert!(arrivals.is_empty(), "state changed before the bound");
            assert_eq!(*fab.counters(), before, "counters moved in a dead cycle");
        }
        let mut now = e;
        while fab.in_flight() > 0 {
            fab.tick(now, &mut arrivals);
            now += 1;
            assert!(now < 200, "packets never arrived");
        }
        assert_eq!(arrivals.len(), 2);
    }

    #[test]
    fn event_counters_split_bypass_and_stop_hops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        // 4 hops east in one SMART-hop: 3 routers bypassed, 1 latch at the
        // destination.
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 20);
        let c = *fab.counters();
        assert_eq!(c.ssr_broadcasts, 1);
        assert_eq!(c.ssr_hops, 4);
        assert_eq!(c.bypass_hops, 3);
        assert_eq!(c.stop_hops, 1);
        assert_eq!(c.crossbar_traversals, 4, "every router on the path is crossed");
        assert_eq!(c.link_flit_hops, 4);
        assert_eq!(c.buffer_reads, 1);
        assert_eq!(c.buffer_writes, 1, "injection only; the bypass never latches");
        assert_eq!(c.premature_stops, 0);
        assert_eq!(c.express_traversals, 0, "no express links on SMART");
    }

    #[test]
    fn buffer_writes_counted_only_at_stops() {
        let cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 20);
        // One injection write, no intermediate stop writes (the single
        // SMART-hop goes straight to the destination).
        assert_eq!(fab.buffer_writes(), 1);
    }
}
