//! Cache-hierarchy statistics: the raw counters from which every figure of
//! the paper's evaluation is derived.


/// Counters collected across the L1s, home L2s, directory and memory
/// controllers of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Instructions executed (filled in by the core models).
    pub instructions: u64,
    /// L1 data accesses.
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses (requests sent to a home L2).
    pub l1_misses: u64,
    /// Requests processed by home L2 slices.
    pub l2_accesses: u64,
    /// Requests that found the line resident at the home L2.
    pub l2_hits: u64,
    /// Requests that missed at the home L2 and triggered a global search or
    /// memory fetch.
    pub l2_misses: u64,
    /// Sum of L1-issue→L1-fill latencies for requests satisfied at the home
    /// L2 (the paper's "L2 hit latency").
    pub l2_hit_latency_sum: u64,
    /// Number of samples in `l2_hit_latency_sum`.
    pub l2_hit_latency_count: u64,
    /// Sum of home-L2-miss→data-arrival latencies for lines found on chip in
    /// another cluster/tile (the paper's "on-chip data search delay").
    pub search_delay_sum: u64,
    /// Number of samples in `search_delay_sum`.
    pub search_delay_count: u64,
    /// DRAM fetches.
    pub offchip_fetches: u64,
    /// DRAM writebacks.
    pub offchip_writebacks: u64,
    /// Invalidation messages sent to L1s or L2s.
    pub invalidations: u64,
    /// IVR migration messages sent.
    pub ivr_migrations: u64,
    /// IVR migrations accepted by the receiving home node.
    pub ivr_accepted: u64,
    /// IVR migrations denied (older than the local victim) and re-steered.
    pub ivr_denied: u64,
    /// IVR chains that hit the hop threshold and were written back.
    pub ivr_writebacks: u64,
    /// Read requests satisfied by a remote cluster/tile (on-chip sharing).
    pub remote_hits: u64,
    /// VMS broadcasts issued.
    pub broadcasts: u64,
    // --- Event counters for the energy model (`loco-energy`). These count
    // micro-architectural array/structure activations, not protocol
    // outcomes; each is multiplied by a per-event cost in `EnergyParams`.
    /// L1 tag-array probes (every core-side access and every invalidation).
    pub l1_tag_probes: u64,
    /// L1 data-array reads (load hits, dirty victim/invalidation read-outs).
    pub l1_data_reads: u64,
    /// L1 data-array writes (store hits and line fills).
    pub l1_data_writes: u64,
    /// L2 tag-array probes (requests, writebacks, broadcasts, IVR arrivals).
    pub l2_tag_probes: u64,
    /// L2 data-array reads (every data-bearing reply or writeback sourced
    /// from the array).
    pub l2_data_reads: u64,
    /// L2 data-array writes (line installs, L1 writeback deposits).
    pub l2_data_writes: u64,
    /// Global-directory lookups (gets, evictions, unblocks).
    pub dir_lookups: u64,
}

impl CacheStats {
    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.instructions += other.instructions;
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l2_hit_latency_sum += other.l2_hit_latency_sum;
        self.l2_hit_latency_count += other.l2_hit_latency_count;
        self.search_delay_sum += other.search_delay_sum;
        self.search_delay_count += other.search_delay_count;
        self.offchip_fetches += other.offchip_fetches;
        self.offchip_writebacks += other.offchip_writebacks;
        self.invalidations += other.invalidations;
        self.ivr_migrations += other.ivr_migrations;
        self.ivr_accepted += other.ivr_accepted;
        self.ivr_denied += other.ivr_denied;
        self.ivr_writebacks += other.ivr_writebacks;
        self.remote_hits += other.remote_hits;
        self.broadcasts += other.broadcasts;
        self.l1_tag_probes += other.l1_tag_probes;
        self.l1_data_reads += other.l1_data_reads;
        self.l1_data_writes += other.l1_data_writes;
        self.l2_tag_probes += other.l2_tag_probes;
        self.l2_data_reads += other.l2_data_reads;
        self.l2_data_writes += other.l2_data_writes;
        self.dir_lookups += other.dir_lookups;
    }

    /// L2 misses per thousand instructions (Figure 8).
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Average L1-issue→fill latency of requests satisfied at the home L2
    /// (Figure 7 reports this relative to a private cache).
    pub fn avg_l2_hit_latency(&self) -> f64 {
        if self.l2_hit_latency_count == 0 {
            0.0
        } else {
            self.l2_hit_latency_sum as f64 / self.l2_hit_latency_count as f64
        }
    }

    /// Average delay to locate and fetch data cached on chip in another
    /// cluster (Figure 9).
    pub fn avg_search_delay(&self) -> f64 {
        if self.search_delay_count == 0 {
            0.0
        } else {
            self.search_delay_sum as f64 / self.search_delay_count as f64
        }
    }

    /// Total off-chip accesses: fetches plus writebacks (Figure 10).
    pub fn offchip_accesses(&self) -> u64 {
        self.offchip_fetches + self.offchip_writebacks
    }

    /// L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// Home-L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = CacheStats {
            instructions: 10_000,
            l2_misses: 50,
            l2_hit_latency_sum: 900,
            l2_hit_latency_count: 100,
            search_delay_sum: 4000,
            search_delay_count: 50,
            offchip_fetches: 30,
            offchip_writebacks: 10,
            l1_accesses: 1000,
            l1_hits: 900,
            ..CacheStats::default()
        };
        assert_eq!(s.l2_mpki(), 5.0);
        assert_eq!(s.avg_l2_hit_latency(), 9.0);
        assert_eq!(s.avg_search_delay(), 80.0);
        assert_eq!(s.offchip_accesses(), 40);
        assert!((s.l1_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = CacheStats::default();
        assert_eq!(s.l2_mpki(), 0.0);
        assert_eq!(s.avg_l2_hit_latency(), 0.0);
        assert_eq!(s.avg_search_delay(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = CacheStats {
            instructions: 1,
            l1_accesses: 2,
            offchip_fetches: 3,
            broadcasts: 4,
            l1_tag_probes: 5,
            l1_data_reads: 6,
            l1_data_writes: 7,
            l2_tag_probes: 8,
            l2_data_reads: 9,
            l2_data_writes: 10,
            dir_lookups: 11,
            ..CacheStats::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.l1_accesses, 4);
        assert_eq!(a.offchip_fetches, 6);
        assert_eq!(a.broadcasts, 8);
        assert_eq!(a.l1_tag_probes, 10);
        assert_eq!(a.l1_data_reads, 12);
        assert_eq!(a.l1_data_writes, 14);
        assert_eq!(a.l2_tag_probes, 16);
        assert_eq!(a.l2_data_reads, 18);
        assert_eq!(a.l2_data_writes, 20);
        assert_eq!(a.dir_lookups, 22);
    }
}
