//! Unit tests of [`crate::fabric::Fabric`] under the high-radix router
//! policy: express links up to `hpc_max` hops, a 4-stage pipeline per stop.

mod tests {
    use crate::config::NocConfig;
    use crate::fabric::{drain, test_flight as flight, Fabric};

    #[test]
    fn single_express_hop_pays_pipeline_cost() {
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        fab.inject(flight(1, 0, 4, 1), 0);
        let arr = drain(&mut fab, 30);
        assert_eq!(arr.len(), 1);
        // 1 cycle injection-ready + 1 link + 4-stage pipeline ~ 6 cycles,
        // clearly more than SMART's 2-3 for the same distance.
        let latency = arr[0].now;
        assert!((5..=8).contains(&latency), "latency {latency}");
    }

    #[test]
    fn highradix_slower_than_smart_within_cluster() {
        let hr_cfg = NocConfig::highradix_mesh(8, 8, 4);
        let s_cfg = NocConfig::smart_mesh(8, 8, 4);
        let mut hr = Fabric::new(hr_cfg);
        let mut sm = Fabric::new(s_cfg);
        hr.inject(flight(1, 0, 3, 1), 0);
        sm.inject(flight(1, 0, 3, 1), 0);
        let h = drain(&mut hr, 50)[0].now;
        let s = drain(&mut sm, 50)[0].now;
        assert!(h > s, "high-radix {h} should exceed SMART {s}");
    }

    #[test]
    fn xy_turn_costs_two_express_hops() {
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        let dest = 8 * 4 + 4; // 4 east + 4 north
        fab.inject(flight(1, 0, dest, 1), 0);
        let arr = drain(&mut fab, 50);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].flight.stops, 2);
    }

    #[test]
    fn long_distance_uses_multiple_express_hops() {
        let cfg = NocConfig::highradix_mesh(16, 16, 4);
        let mut fab = Fabric::new(cfg);
        // 15 hops east = 4 express hops.
        fab.inject(flight(1, 0, 15, 1), 0);
        let arr = drain(&mut fab, 80);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].flight.stops, 4);
    }

    #[test]
    fn next_event_bounds_every_state_change_from_below() {
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        assert_eq!(fab.next_event(0), None, "empty fabric has no events");
        // 4 east + 4 north: two express hops with a stop at the turn router.
        fab.inject(flight(1, 0, 8 * 4 + 4, 1), 0);
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
        assert_eq!(arrivals[0].flight.stops, 2);
        assert_eq!(fab.next_event(now), None, "drained fabric is quiescent");
    }

    #[test]
    fn next_event_opens_a_skip_window_under_partial_occupancy() {
        // A packet that lands at an intermediate stop sits out the 4-stage
        // pipeline before it can be switched again: the fabric holds it the
        // whole time, yet the probe must name that future ready cycle so the
        // scheduler can skip the pipeline wait (the old drain-only probe
        // stepped through it cycle by cycle).
        let cfg = NocConfig::highradix_mesh(16, 1, 4);
        let mut fab = Fabric::new(cfg);
        // 15 hops east: 4 express hops with 3 intermediate stops.
        fab.inject(flight(1, 0, 15, 1), 0);
        let mut arrivals = Vec::new();
        fab.tick(0, &mut arrivals);
        fab.tick(1, &mut arrivals); // first express hop launches
        assert_eq!(fab.in_flight(), 1, "packet still inside the fabric");
        let e = fab.next_event(2).expect("packet in flight");
        assert!(
            e > 2,
            "the pipeline wait at the landing router must be skippable, got {e}"
        );
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
            assert!(now < 200, "packet never arrived");
        }
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].flight.stops, 4);
    }

    #[test]
    fn event_counters_charge_pipeline_passes_and_wire_spans() {
        let cfg = NocConfig::highradix_mesh(8, 8, 4);
        let mut fab = Fabric::new(cfg);
        // One 4-hop express link: a single move whose wire spans 4 hops.
        fab.inject(flight(1, 0, 4, 1), 0);
        drain(&mut fab, 30);
        let c = *fab.counters();
        assert_eq!(c.express_traversals, 1);
        assert_eq!(c.pipeline_passes, 1);
        assert_eq!(c.link_flit_hops, 4, "express wire length is span-weighted");
        assert_eq!(c.crossbar_traversals, 1);
        assert_eq!(c.stop_hops, 1);
        assert_eq!(c.buffer_writes, 1, "injection only");
        assert_eq!(c.ssr_broadcasts, 0, "no SSRs on a high-radix fabric");
    }

    #[test]
    fn per_span_links_allow_parallel_transfers() {
        // Two packets leaving node 0 eastwards with different spans use
        // different express links and need not fully serialize.
        let cfg = NocConfig::highradix_mesh(8, 1, 4);
        let mut fab = Fabric::new(cfg);
        fab.inject(flight(1, 0, 4, 4), 0);
        fab.inject(flight(2, 0, 2, 4), 0);
        let arr = drain(&mut fab, 60);
        assert_eq!(arr.len(), 2);
    }
}
