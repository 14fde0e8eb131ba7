//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics of an untraced run: `(name, unit)`. `README.md`
/// says what each one measures.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. A metric of a layer
/// the workload does not exercise reads 0 (see `README.md`).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.trace_gen_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.ns_per_step", "ns"),
    ("sim.step_ns_p50", "ns"),
    ("sim.step_ns_p99", "ns"),
    ("sim.cycles", "cycles"),
    ("sim.steps", "count"),
    ("sim.stepped_share", "share"),
    ("sim.skipped_while_busy", "cycles"),
    ("sim.ns_per_flit_hop", "ns"),
    ("noc.inject_s", "s"),
    ("noc.tick_s", "s"),
    ("noc.eject_s", "s"),
    ("noc.tick_ns_per_cycle", "ns"),
    ("noc.refused_injections", "count"),
    ("noc.delivered", "count"),
    ("noc.link_flit_hops", "count"),
    ("noc.buffer_writes", "count"),
    ("noc.premature_stops", "count"),
    ("noc.avg_latency_cycles", "cycles"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_misses", "count"),
    ("cache.l2_misses", "count"),
    ("cache.dir_lookups", "count"),
    ("cache.broadcasts", "count"),
    ("cache.offchip_fetches", "count"),
    ("cache.avg_miss_latency_cycles", "cycles"),
    ("energy.total_fj", "fJ"),
    ("energy.fold_s", "s"),
    ("campaign.plan_s", "s"),
    ("campaign.execute_s", "s"),
    ("campaign.assemble_s", "s"),
    ("campaign.worker_busy_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Per-layer metrics that are deterministic counts: a change that only
/// speeds up the simulator must leave every one of them identical.
pub const DETERMINISTIC: [&str; 18] = [
    "sim.cycles",
    "sim.steps",
    "sim.stepped_share",
    "sim.skipped_while_busy",
    "noc.refused_injections",
    "noc.delivered",
    "noc.link_flit_hops",
    "noc.buffer_writes",
    "noc.premature_stops",
    "noc.avg_latency_cycles",
    "cache.l1_accesses",
    "cache.l1_misses",
    "cache.l2_misses",
    "cache.dir_lookups",
    "cache.broadcasts",
    "cache.offchip_fetches",
    "cache.avg_miss_latency_cycles",
    "energy.total_fj",
];

/// Named metric values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Every per-layer metric, set to 0 (layers a workload does not
    /// exercise keep that value).
    pub fn per_layer_zeroed() -> Self {
        Metrics(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    /// The per-metric median of several repetitions' metrics.
    pub fn median_of(reps: &[Metrics]) -> Self {
        let mut out = Metrics::default();
        if let Some(first) = reps.first() {
            for &name in first.0.keys() {
                let samples: Vec<f64> = reps.iter().filter_map(|m| m.get(name)).collect();
                out.set(name, median(&samples));
            }
        }
        out
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither metric list, or on a value that
    /// is not finite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value of one metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metric names present, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, v)| {
                let unit = unit_of(name).expect("set() checked the name");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*v)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// The unit of a metric in either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .copied()
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// Whether `name` is a well-formed metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// A JSON number with every digit Rust keeps (shortest round-trip form).
pub fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// The median of some samples (the mean of the middle two for an even
/// count; 0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0–100, nearest rank) of some samples, which it
/// sorts in place (0 for none).
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// 64-bit FNV-1a, folded over successive pieces of text.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in the bytes of `text`.
    pub fn add(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The digest of one piece of text.
pub fn digest_of(text: &str) -> u64 {
    let mut d = Digest::default();
    d.add(text);
    d.value()
}

/// The digest of a list of digests, in order.
pub fn fold(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for x in digests {
        d.add(&format!("{x:016x}"));
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [7], 99.0), 7.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(0.123456789012), "0.123456789012");
        assert_eq!(number(1e20), "100000000000000000000");
    }

    #[test]
    fn digests_separate_texts() {
        assert_ne!(digest_of("a"), digest_of("b"));
        assert_eq!(digest_of("abc"), digest_of("abc"));
    }
}
