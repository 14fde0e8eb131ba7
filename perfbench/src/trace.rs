//! In-memory spans around the calls into each layer.
//!
//! A traced run records one [`Span`] per coarse layer call (plan, execute,
//! assemble, trace generation, system construction, `run`, the energy fold,
//! one synthetic-NoC drive) with the scenario that caused it. Calls made
//! once per simulated cycle (`step`, `inject`, `tick`, `eject_all_into`)
//! would be millions of spans, so they are kept as a [`Total`] — call count
//! and summed time — under the same scenario. Everything stays in memory and
//! is written out by [`Tracer::write`] when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Scenario (or NoC configuration) the call served; its label is
    /// [`Tracer::labels`]`[scenario]`.
    pub scenario: usize,
    /// Repetition of the workload within the run.
    pub rep: u32,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Calls made once per cycle, summed per scenario.
#[derive(Debug, Clone, Copy)]
pub struct Total {
    /// Layer call, e.g. `noc.tick`.
    pub name: &'static str,
    /// Scenario (or NoC configuration) the calls served.
    pub scenario: usize,
    /// Repetition of the workload within the run.
    pub rep: u32,
    /// Number of calls.
    pub calls: u64,
    /// Summed duration in ns.
    pub total_ns: u64,
}

/// Records spans when enabled; a disabled tracer only runs the calls.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    /// The recorded spans.
    pub spans: Vec<Span>,
    /// The recorded per-cycle call totals.
    pub totals: Vec<Total>,
    /// Label of each scenario index.
    pub labels: Vec<String>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            totals: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty tracer on the same clock, recording under repetition `rep`
    /// (one per worker thread or repetition; merge it back with
    /// [`Tracer::absorb`]).
    pub fn child(&self, rep: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            rep,
            spans: Vec::new(),
            totals: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Moves another tracer's records into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.totals.extend(other.totals);
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, recording a span around it when enabled.
    pub fn span<T>(&mut self, name: &'static str, scenario: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            scenario,
            rep: self.rep,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
        });
        out
    }

    /// Records a span timed by the caller (for calls that need the tracer
    /// themselves).
    pub fn record(&mut self, name: &'static str, scenario: usize, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                scenario,
                rep: self.rep,
                start_ns: self.ns_since_epoch(start),
                end_ns: self.ns_since_epoch(end),
            });
        }
    }

    /// Records `calls` per-cycle calls that took `total` together.
    pub fn total(&mut self, name: &'static str, scenario: usize, calls: u64, total: Duration) {
        if self.enabled {
            self.totals.push(Total {
                name,
                scenario,
                rep: self.rep,
                calls,
                total_ns: u64::try_from(total.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// Summed seconds of every span and total named `name` in repetition
    /// `rep`.
    pub fn seconds(&self, name: &str, rep: u32) -> f64 {
        let spans: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .map(Span::seconds)
            .sum();
        let totals: u64 = self
            .totals
            .iter()
            .filter(|t| t.name == name && t.rep == rep)
            .map(|t| t.total_ns)
            .sum();
        spans + totals as f64 * 1e-9
    }

    /// Summed call count of every total named `name` in repetition `rep`.
    pub fn calls(&self, name: &str, rep: u32) -> u64 {
        self.totals
            .iter()
            .filter(|t| t.name == name && t.rep == rep)
            .map(|t| t.calls)
            .sum()
    }

    /// Writes the environment line, the scenario labels, every span and
    /// every total as JSON lines.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn write(&self, path: &Path, env_json: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"env\": {env_json}}}")?;
        for (i, label) in self.labels.iter().enumerate() {
            writeln!(out, "{{\"scenario\": {i}, \"label\": \"{label}\"}}")?;
        }
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\": \"{}\", \"scenario\": {}, \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.scenario, s.rep, s.start_ns, s.end_ns
            )?;
        }
        for t in &self.totals {
            writeln!(
                out,
                "{{\"total\": \"{}\", \"scenario\": {}, \"rep\": {}, \"calls\": {}, \"total_ns\": {}}}",
                t.name, t.scenario, t.rep, t.calls, t.total_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        t.total("y", 0, 3, Duration::from_millis(1));
        assert!(t.spans.is_empty() && t.totals.is_empty());
    }

    #[test]
    fn spans_and_totals_sum_by_name_and_rep() {
        let mut t = Tracer::new(true);
        let mut c = t.child(1);
        c.span("x", 2, || std::thread::sleep(Duration::from_millis(2)));
        c.total("x", 2, 4, Duration::from_millis(1));
        t.absorb(c);
        assert_eq!(t.spans.len(), 1);
        assert!(t.seconds("x", 1) >= 0.003);
        assert_eq!(t.seconds("x", 0), 0.0);
        assert_eq!(t.calls("x", 1), 4);
    }
}
