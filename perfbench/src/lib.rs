//! The LOCO repository benchmark.
//!
//! It measures the simulator from outside, through the public API of each
//! workspace crate, on three workloads:
//!
//! * `dense64` — the paper64 Figure-13 campaign (32 scenarios, 64 cores,
//!   2 workers), whose cost is per simulated cycle;
//! * `stall16` — the Figure-19 stall-stress campaign (6 scenarios, 4x4
//!   mesh, 1 worker), whose cost is in the scheduler's skipping;
//! * `noc-synthetic` — `loco_noc::Network` alone under open-loop uniform
//!   random traffic, the only place the NoC layer's host time can be
//!   separated out.
//!
//! An untraced run ([`run`] with `trace == false`) reports the end-to-end
//! metrics of [`metrics::END_TO_END`]; a traced run reports the per-layer
//! metrics of [`metrics::PER_LAYER`] and writes its spans to a file. See
//! `README.md` in this directory for why each workload was chosen and which
//! end-to-end metric each per-layer metric should move.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod env;
pub mod metrics;
pub mod noc;
pub mod trace;

use metrics::{median, Metrics};
use std::time::Instant;
use trace::Tracer;

/// One workload of the benchmark, at a given scale.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A simulation campaign (`dense64`, `stall16`).
    Campaign(campaign::CampaignSpec),
    /// The NoC alone (`noc-synthetic`).
    Noc(noc::NocSpec),
}

impl Workload {
    /// The workload names the command line accepts.
    pub const NAMES: [&'static str; 3] = ["dense64", "stall16", "noc-synthetic"];

    /// The full-scale workload of a name.
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "dense64" => Some(Workload::Campaign(campaign::CampaignSpec::dense64())),
            "stall16" => Some(Workload::Campaign(campaign::CampaignSpec::stall16())),
            "noc-synthetic" => Some(Workload::Noc(noc::NocSpec::synthetic())),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Campaign(c) => c.name,
            Workload::Noc(_) => noc::NAME,
        }
    }

    /// Worker threads the workload uses unless told otherwise.
    pub fn default_workers(&self) -> usize {
        match self {
            Workload::Campaign(c) => c.workers,
            Workload::Noc(_) => 1,
        }
    }

    /// The workload parameters, as a JSON object (recorded with every
    /// result).
    pub fn params_json(&self) -> String {
        match self {
            Workload::Campaign(c) => c.params_json(),
            Workload::Noc(n) => n.params_json(),
        }
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Worker threads (campaign workloads only).
    pub workers: usize,
    /// Whether to record spans and report the per-layer metrics.
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: scenarios (plus the `run_naive` check of a
    /// traced run) or offered packets.
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
    /// The reported metrics ([`metrics::END_TO_END`] untraced,
    /// [`metrics::PER_LAYER`] traced).
    pub metrics: Metrics,
    /// Digest of every simulated result of one repetition, in plan order;
    /// equal runs of equal code on equal seeds give equal digests.
    pub digest: u64,
    /// The recorded spans (empty when untraced).
    pub tracer: Tracer,
    /// Human-readable failure reasons (at most a few).
    pub problems: Vec<String>,
    /// Host seconds of each untraced repetition, in run order.
    pub walls: Vec<f64>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(trace: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            digest: 0,
            tracer: Tracer::new(trace),
            problems: Vec::new(),
            walls: Vec::new(),
        }
    }

    /// Failed operations divided by attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Counts `count` failed operations and keeps the reason.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }
}

/// Runs one workload: repeats it for `cfg.seconds`, checks every output and
/// returns the metrics of [`metrics::END_TO_END`] (untraced) or
/// [`metrics::PER_LAYER`] (traced).
pub fn run(workload: &Workload, cfg: &RunConfig) -> Outcome {
    let mut outcome = match workload {
        Workload::Campaign(spec) => campaign::run(spec, cfg),
        Workload::Noc(spec) => noc::run(spec, cfg),
    };
    if !cfg.trace {
        match env::peak_rss_mb() {
            Ok(mb) => outcome.metrics.set("peak_rss_mb", mb),
            Err(e) => outcome.fail(0, e),
        }
    }
    outcome
}

/// After each repetition, set-up is timed again while the samples taken
/// since that repetition took less than this share of its host time.
const SETUP_SHARE: f64 = 0.1;

/// Set-up timings taken between the repetitions of a run, so that they see
/// the same phases of the machine as the repetitions do.
#[derive(Debug, Default)]
pub(crate) struct SetupSamples(Vec<f64>);

impl SetupSamples {
    /// Times `setup` once, then again while this call has taken less than
    /// [`SETUP_SHARE`] of `rep_s`, the previous repetition's host seconds
    /// (0 before the first).
    pub(crate) fn take(&mut self, rep_s: f64, mut setup: impl FnMut()) {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            setup();
            self.0.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= SETUP_SHARE * rep_s {
                break;
            }
        }
    }

    /// The median sample.
    pub(crate) fn median(&self) -> f64 {
        median(&self.0)
    }
}
