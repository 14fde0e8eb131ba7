//! The campaign engine: **plan → execute → assemble**.
//!
//! The paper's evaluation is one large sweep of independent simulations
//! (5 cache organizations × 3 NoCs × benchmarks × cluster shapes across
//! Figures 6–16, plus the energy and stress Figures 17–19). This module
//! runs it in three phases, at the scale set by [`ExperimentParams`]:
//!
//! 1. **Plan** — every figure is described by a [`FigureSpec`].
//!    [`CampaignPlan::add_figure`] runs the figure's assembly on placeholder
//!    results and records the [`Scenario`]s it reads, in order, without
//!    running anything. Scenarios from several figures are deduplicated
//!    into one [`CampaignPlan`] (composing fig06 and fig11 over the same
//!    matrix plans each shared scenario once).
//! 2. **Execute** — an [`Executor`] shards the plan across
//!    `std::thread::scope` workers pulling jobs from an atomic index. Each
//!    worker constructs its own `TraceGenerator` and `CmpSystem` (every
//!    scenario is an independent, fully deterministic simulation), and the
//!    results are merged into a [`ResultSet`] — a `Scenario`-keyed map of
//!    `Arc<SimResults>` — **in plan order**, so the result set is identical
//!    whatever the worker count or completion order.
//! 3. **Assemble** — [`FigureSpec::assemble`] is pure again: it reads a
//!    completed [`ResultSet`] and builds the [`Figure`]s. Figures assembled
//!    from an 8-thread execution are byte-identical to a 1-thread one
//!    (locked in by `tests/campaign.rs` and the `scripts/verify.sh` smoke).
//!
//! # `Send` invariant
//!
//! The executor relies on [`CmpSystem`], `TraceGenerator` and
//! [`SimResults`] being [`Send`] — they are plain owned data (no `Rc`, no
//! `RefCell`, no raw pointers anywhere in the workspace), and the
//! `assert_send` checks below turn any future regression into a compile
//! error. Anyone adding interior mutability or shared handles to the
//! simulator must keep these types `Send` (or consciously remove the
//! parallel executor).

use crate::report::{Figure, Series};
use loco_cache::{ClusterShape, OrganizationKind};
use loco_energy::{EnergyBreakdown, EnergyParams};
use loco_noc::{FxHashMap, FxHashSet, RouterKind};
use loco_sim::{CmpSystem, SimResults, SystemConfig};
use loco_workloads::{Benchmark, MultiProgramWorkload, StressKind, TraceGenerator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// Compile-time lock-in of the `Send` bounds the executor needs (see the
// module docs). These calls are never executed; they fail to *compile* if a
// bound regresses.
fn assert_send<T: Send>() {}
#[allow(dead_code)]
fn send_invariants() {
    assert_send::<CmpSystem>();
    assert_send::<SimResults>();
    assert_send::<TraceGenerator>();
    assert_send::<Scenario>();
    assert_send::<ResultSet>();
}

/// Scale parameters of an experiment campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Mesh width in tiles.
    pub mesh_width: u16,
    /// Mesh height in tiles.
    pub mesh_height: u16,
    /// Default LOCO cluster shape.
    pub cluster: ClusterShape,
    /// Memory operations generated per core.
    pub mem_ops_per_core: u64,
    /// Trace-generation seed.
    pub seed: u64,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
    /// Divisor applied to both the cache capacities (L1 / L2 slice) and the
    /// benchmarks' working sets. The paper runs billions of instructions
    /// against the Table-1 caches; our traces are orders of magnitude
    /// shorter, so scaling caches and working sets together keeps the
    /// capacity-pressure *regime* identical while runs stay tractable
    /// (see DESIGN.md §3). Set to 1 for unscaled Table-1 capacities.
    pub working_set_scale: u64,
}

impl ExperimentParams {
    /// The paper's 64-core CMP (8x8 mesh, 4x4 clusters).
    pub fn paper_64() -> Self {
        ExperimentParams {
            mesh_width: 8,
            mesh_height: 8,
            cluster: ClusterShape::new(4, 4),
            mem_ops_per_core: 2_000,
            seed: 42,
            max_cycles: 50_000_000,
            working_set_scale: 8,
        }
    }

    /// The paper's 256-core CMP (16x16 mesh, 4x4 clusters). The per-core
    /// trace is shorter, mirroring the paper's own 2-billion-instruction cap
    /// on trace-driven runs.
    pub fn paper_256() -> Self {
        ExperimentParams {
            mesh_width: 16,
            mesh_height: 16,
            mem_ops_per_core: 700,
            ..Self::paper_64()
        }
    }

    /// A reduced 16-core configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentParams {
            mesh_width: 4,
            mesh_height: 4,
            cluster: ClusterShape::new(2, 2),
            mem_ops_per_core: 200,
            seed: 42,
            max_cycles: 5_000_000,
            working_set_scale: 8,
        }
    }

    /// Scales the trace length (e.g. `with_mem_ops(500)` for faster runs).
    pub fn with_mem_ops(mut self, mem_ops: u64) -> Self {
        self.mem_ops_per_core = mem_ops;
        self
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.mesh_width as usize * self.mesh_height as usize
    }

    /// A short label ("64-core", "256-core", ...).
    pub fn label(&self) -> String {
        format!("{}-core", self.num_cores())
    }

    pub(crate) fn system(
        &self,
        org: OrganizationKind,
        router: RouterKind,
        cluster: ClusterShape,
        fs: bool,
    ) -> SystemConfig {
        let mut cfg = SystemConfig::asplos_64(org)
            .with_router(router)
            .with_cluster(cluster)
            .with_full_system(fs);
        cfg.mesh_width = self.mesh_width;
        cfg.mesh_height = self.mesh_height;
        let scale = self.working_set_scale.max(1);
        cfg.l1.size_bytes = (cfg.l1.size_bytes / scale).max(1024);
        cfg.l2.geometry.size_bytes = (cfg.l2.geometry.size_bytes / scale).max(2048);
        cfg
    }

    pub(crate) fn scaled_spec(&self, benchmark: Benchmark) -> loco_workloads::BenchmarkSpec {
        benchmark.spec().scaled_down(self.working_set_scale.max(1))
    }
}

/// One fully-specified simulation configuration — the unit of work of a
/// campaign and the key of a [`ResultSet`]: everything that distinguishes
/// one run from another at fixed [`ExperimentParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// A single-benchmark trace-driven (or full-system) run.
    Trace {
        /// The benchmark model to replay.
        benchmark: Benchmark,
        /// The cache organization.
        org: OrganizationKind,
        /// The NoC router micro-architecture.
        router: RouterKind,
        /// The LOCO cluster shape.
        cluster: ClusterShape,
        /// Whether the synchronization-aware full-system mode is on.
        full_system: bool,
    },
    /// A Table-2 multi-program consolidation workload (Figure 15). The
    /// cluster shape follows the paper (it matches the per-task thread
    /// count) and is derived from the workload, not stored here.
    MultiProgram {
        /// Index into Table 2 (0–9, `MultiProgramWorkload::table2_entry`).
        workload: usize,
        /// The cache organization.
        org: OrganizationKind,
    },
    /// A stall-heavy stress run (Figure 19): a small 4x4 mesh under full
    /// LOCO (CC+VMS), either barrier-phased (full-system replay, a barrier
    /// every few memory ops) or DRAM-bound (huge working set, the DRAM
    /// latency stretched to 800 cycles). These are ROADMAP's named blind
    /// spot — workloads whose run time is dominated by globally-quiet
    /// phases with stragglers still in the NoC, where the event-driven
    /// scheduler's fine-grained horizon pays off. The mesh and memory
    /// timing are fixed by the scenario (not by [`ExperimentParams`]) so
    /// the stress stays stall-shaped at every campaign scale.
    StallStress {
        /// Barrier-phased or DRAM-bound.
        kind: StressKind,
        /// The NoC router micro-architecture.
        router: RouterKind,
    },
}

impl Scenario {
    /// The figures' most common shape: SMART NoC, the campaign's default
    /// cluster, trace-driven.
    pub fn default_trace(
        params: &ExperimentParams,
        benchmark: Benchmark,
        org: OrganizationKind,
    ) -> Self {
        Scenario::Trace {
            benchmark,
            org,
            router: RouterKind::Smart,
            cluster: params.cluster,
            full_system: false,
        }
    }

    /// A short human-readable label (diagnostics, panic messages).
    pub fn label(&self) -> String {
        match self {
            Scenario::Trace {
                benchmark,
                org,
                router,
                cluster,
                full_system,
            } => format!(
                "{}/{}/{}/{}x{}{}",
                benchmark.name(),
                org.label(),
                router.label(),
                cluster.w,
                cluster.h,
                if *full_system { "/full-system" } else { "" }
            ),
            Scenario::MultiProgram { workload, org } => {
                format!("W{}/{}", workload, org.label())
            }
            Scenario::StallStress { kind, router } => {
                format!("stress-{}/{}", kind.name(), router.label())
            }
        }
    }
}

/// Runs one [`Scenario`] from scratch: generates the traces, builds the
/// system and simulates. Pure with respect to its inputs — the same
/// `(params, scenario)` pair always produces bit-identical [`SimResults`]
/// (the foundation of the thread-count invariance guarantee).
pub fn run_scenario(params: &ExperimentParams, scenario: Scenario) -> SimResults {
    match scenario {
        Scenario::Trace {
            benchmark,
            org,
            router,
            cluster,
            full_system,
        } => {
            let spec = params.scaled_spec(benchmark);
            let traces = TraceGenerator::new(params.seed)
                .with_barriers(full_system)
                .generate(&spec, params.num_cores(), params.mem_ops_per_core);
            let cfg = params.system(org, router, cluster, full_system);
            let mut sys = CmpSystem::new(cfg, traces);
            sys.run(params.max_cycles)
        }
        Scenario::MultiProgram { workload, org } => {
            run_multiprogram_workload(params, &MultiProgramWorkload::table2_entry(workload), org)
        }
        Scenario::StallStress { kind, router } => run_stall_stress(params, kind, router),
    }
}

/// Builds (without running) the system of one stall-heavy stress scenario:
/// a fixed 16-core (4x4) mesh with 2x2 LOCO clusters under CC+VMS, working
/// set and caches scaled together exactly as trace scenarios are.
/// DRAM-bound runs stretch the memory latency to 800 cycles (min gap 8) so
/// nearly the whole run is exposed off-chip stall; barrier-phased runs
/// enable the full-system replay mode. Exposed so the bench harness and the
/// equivalence suite can drive the exact campaign configuration manually
/// (e.g. to read the scheduler's skip diagnostics or to time `run` against
/// `run_naive`).
pub fn stall_stress_system(
    params: &ExperimentParams,
    kind: StressKind,
    router: RouterKind,
) -> CmpSystem {
    let scale = params.working_set_scale.max(1);
    let spec = kind.spec().scaled_down(scale);
    let full_system = kind.full_system();
    let mut cfg = SystemConfig::asplos_64(OrganizationKind::LocoCcVms)
        .with_router(router)
        .with_cluster(ClusterShape::new(2, 2))
        .with_full_system(full_system);
    cfg.mesh_width = 4;
    cfg.mesh_height = 4;
    cfg.l1.size_bytes = (cfg.l1.size_bytes / scale).max(1024);
    cfg.l2.geometry.size_bytes = (cfg.l2.geometry.size_bytes / scale).max(2048);
    if kind == StressKind::DramBound {
        cfg.mem.latency = 800;
        cfg.mem.min_gap = 8;
    }
    let traces = TraceGenerator::new(params.seed)
        .with_barriers(full_system)
        .generate(&spec, cfg.num_cores(), params.mem_ops_per_core);
    CmpSystem::new(cfg, traces)
}

/// Runs one stall-heavy stress scenario (see [`stall_stress_system`]).
fn run_stall_stress(params: &ExperimentParams, kind: StressKind, router: RouterKind) -> SimResults {
    stall_stress_system(params, kind, router).run(params.max_cycles)
}

/// Runs one multi-program workload under one organization. The cluster size
/// follows the paper: it matches the per-task thread count (4x1, 8x1 or
/// 4x4); below 64 cores (the `quick()` mesh) the campaign's default cluster
/// is used and the workload is truncated to fit.
fn run_multiprogram_workload(
    params: &ExperimentParams,
    workload: &MultiProgramWorkload,
    org: OrganizationKind,
) -> SimResults {
    let threads = workload.threads_per_task();
    let cluster = if params.num_cores() < 64 {
        params.cluster
    } else {
        match threads {
            4 => ClusterShape::new(4, 1),
            8 => ClusterShape::new(8, 1),
            _ => ClusterShape::new(4, 4),
        }
    };
    let mut traces = workload.generate_traces_scaled(
        params.mem_ops_per_core,
        params.seed,
        params.working_set_scale.max(1),
    );
    let mut groups: Vec<usize> = Vec::new();
    for a in workload.assign_cores() {
        for _ in &a.cores {
            groups.push(a.task_id);
        }
    }
    // The quick() configuration has fewer cores than the 64-core workload
    // definition: truncate to fit.
    if params.num_cores() < traces.len() {
        traces.truncate(params.num_cores());
        groups.truncate(params.num_cores());
    }
    let cfg = params.system(org, RouterKind::Smart, cluster, false);
    let mut sys = CmpSystem::with_groups(cfg, traces, groups);
    sys.run(params.max_cycles)
}

/// A deduplicated, ordered set of [`Scenario`]s — the output of the plan
/// phase and the input of the execute phase.
///
/// Scenarios keep their first-seen order, so a plan composed from the same
/// figures in the same order is always identical (and so is everything
/// derived from it downstream).
#[derive(Debug, Default, Clone)]
pub struct CampaignPlan {
    scenarios: Vec<Scenario>,
    seen: FxHashSet<Scenario>,
}

impl CampaignPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one scenario; returns `true` if it was not already planned.
    pub fn add(&mut self, scenario: Scenario) -> bool {
        if self.seen.insert(scenario) {
            self.scenarios.push(scenario);
            true
        } else {
            false
        }
    }

    /// Adds everything a figure needs, in the order it reads them: runs the
    /// figure's assembly on a placeholder result, recording each scenario
    /// it asks for, and discards the placeholder figures.
    pub fn add_figure(&mut self, spec: &FigureSpec, params: &ExperimentParams) {
        let placeholder = SimResults::default();
        spec.build(params, &mut |s| {
            self.add(s);
            &placeholder
        });
    }

    /// The planned scenarios, in first-seen order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of distinct scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Completed simulation results, keyed by [`Scenario`].
///
/// Results are shared via [`Arc`], so a figure reading the same baseline
/// run eight times never deep-clones a `SimResults`.
#[derive(Debug, Default, Clone)]
pub struct ResultSet {
    map: FxHashMap<Scenario, Arc<SimResults>>,
}

impl ResultSet {
    /// An empty result set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) one result.
    pub fn insert(&mut self, scenario: Scenario, result: Arc<SimResults>) {
        self.map.insert(scenario, result);
    }

    /// The result of one scenario, if present.
    pub fn get(&self, scenario: &Scenario) -> Option<&SimResults> {
        self.map.get(scenario).map(Arc::as_ref)
    }

    /// The shared handle of one scenario's result, if present.
    pub fn get_arc(&self, scenario: &Scenario) -> Option<&Arc<SimResults>> {
        self.map.get(scenario)
    }

    /// The result of one completed scenario.
    ///
    /// # Panics
    ///
    /// Panics (with the scenario's label) if the scenario was never
    /// executed — i.e. the plan the caller executed did not cover the
    /// figure being assembled — or if its run exhausted the cycle budget
    /// (`ExperimentParams::max_cycles`) before every core finished, so a
    /// truncated run never becomes a figure value.
    pub fn expect(&self, scenario: &Scenario) -> &SimResults {
        let r = self.get(scenario).unwrap_or_else(|| {
            panic!(
                "no result for scenario {} — was it planned?",
                scenario.label()
            )
        });
        assert!(
            r.completed,
            "scenario {} is incomplete: the run exhausted its cycle budget at cycle {}",
            scenario.label(),
            r.runtime_cycles
        );
        r
    }

    /// Number of completed scenarios.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no results are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(scenario, result)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Scenario, &Arc<SimResults>)> {
        self.map.iter()
    }
}

/// Executes a [`CampaignPlan`] across a pool of worker threads.
///
/// Workers pull scenario indices from a shared atomic counter, run each
/// scenario in a private, freshly-built `CmpSystem`, and deposit the result
/// into that scenario's slot. The final [`ResultSet`] is assembled from the
/// slots in plan order, so the outcome is bit-identical for any worker
/// count (`tests/campaign.rs` locks this in).
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

/// Largest explicit worker count [`Executor::try_new`] accepts. Worker
/// threads beyond the scenario count never run anything, and a parse-able
/// but senseless `--threads` value (say, millions) would otherwise silently
/// degrade into thousands of idle OS threads; front-ends should reject it
/// loudly instead (the `reproduce` CLI does).
pub const MAX_EXPLICIT_THREADS: usize = 1024;

impl Executor {
    /// An executor with an explicit worker count (`0` means "all cores",
    /// i.e. `std::thread::available_parallelism`).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Executor { threads }
    }

    /// Like [`Executor::new`], but rejects worker counts that parse yet make
    /// no sense (anything above [`MAX_EXPLICIT_THREADS`]) instead of
    /// silently spawning that many OS threads. `0` still means "all cores".
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending value and the
    /// accepted range.
    pub fn try_new(threads: usize) -> Result<Self, String> {
        if threads > MAX_EXPLICIT_THREADS {
            return Err(format!(
                "{threads} worker threads makes no sense (accepted: 0 for all \
                 cores, or 1..={MAX_EXPLICIT_THREADS})"
            ));
        }
        Ok(Self::new(threads))
    }

    /// An executor using every available core.
    pub fn all_cores() -> Self {
        Self::new(0)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every scenario of the plan and returns the completed results.
    pub fn execute(&self, params: &ExperimentParams, plan: &CampaignPlan) -> ResultSet {
        let scenarios = plan.scenarios();
        let n = scenarios.len();
        let workers = self.threads.min(n).max(1);
        let mut slots: Vec<Option<Arc<SimResults>>> = Vec::with_capacity(n);
        if workers <= 1 {
            // Run a single worker inline, on the calling thread. The reason
            // is memory, not speed: the `perfbench` stall16 workload runs 1
            // worker, and sending it through the scoped pool raised its
            // `peak_rss_mb` from about 4.2 to 6.6 MB (identical result
            // digests), past the 0.15 bound in BENCHMARK.json. The spawned
            // thread's allocator arena is the likely cause. Keep this path.
            slots.extend(
                scenarios
                    .iter()
                    .map(|&s| Some(Arc::new(run_scenario(params, s)))),
            );
        } else {
            let locked: Vec<Mutex<Option<Arc<SimResults>>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = Arc::new(run_scenario(params, scenarios[i]));
                        *locked[i].lock().expect("slot lock") = Some(result);
                    });
                }
            });
            slots.extend(
                locked
                    .into_iter()
                    .map(|m| m.into_inner().expect("slot lock")),
            );
        }
        let mut results = ResultSet::new();
        for (i, &scenario) in scenarios.iter().enumerate() {
            let r = slots[i].take().expect("every planned scenario was executed");
            results.insert(scenario, r);
        }
        results
    }
}

/// A declarative description of one figure of the paper. Its assembly pass
/// ([`FigureSpec::assemble`]) is the only place a figure names the scenarios
/// it reads: the plan pass ([`CampaignPlan::add_figure`]) runs the same
/// builder and records those reads. Both passes are pure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FigureSpec {
    /// Figure 6: private-cache runtime normalized to the shared cache.
    Fig06 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 7: L2 hit-latency increase over the private baseline.
    Fig07 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 8: L2 MPKI, shared cache vs LOCO.
    Fig08 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 9: on-chip search delay, directory indirection vs VMS.
    Fig09 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 10: normalized off-chip accesses, with and without IVR.
    Fig10 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 11: runtime of each LOCO feature vs the shared cache.
    Fig11 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figures 12a+12b: L2 hit latency and search delay under the three
    /// NoCs (assembles two figures).
    Fig12 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 13: LOCO runtime under the three NoCs.
    Fig13 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 14: the cluster-shape sweep (assembles four sub-figures).
    Fig14 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
        /// The cluster shapes to sweep.
        shapes: Vec<ClusterShape>,
    },
    /// Figures 15a+15b: the Table-2 multi-program workloads (assembles two
    /// figures).
    Fig15 {
        /// Table-2 workload indices (0–9).
        workloads: Vec<usize>,
    },
    /// Figures 16a+16b: full-system MPKI and runtime (assembles two
    /// figures).
    Fig16 {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figures 17a+17b: event-level energy of each cache organization
    /// (17a: energy per instruction by organization across the benchmarks;
    /// 17b: the network/cache/DRAM component breakdown per organization,
    /// averaged over the benchmarks). Uses [`EnergyParams::default`] — the
    /// paper-calibrated per-event costs.
    Fig17Energy {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
    },
    /// Figure 18: the energy-delay product of full LOCO by cluster shape,
    /// normalized to the shared-cache baseline (pairing Figure 14's
    /// performance sweep with an energy-efficiency axis).
    Fig18Edp {
        /// The benchmark x-axis.
        benchmarks: Vec<Benchmark>,
        /// The cluster shapes to sweep.
        shapes: Vec<ClusterShape>,
    },
    /// Figure 19 (reproduction extra): runtime of the stall-heavy stress
    /// workloads ([`Scenario::StallStress`]: barrier-phased, DRAM-bound)
    /// under the three NoCs, normalized per workload to the SMART NoC.
    /// These scenarios open ROADMAP's named blind spot — small meshes with
    /// long global stalls — and double as the campaign-level exercise of
    /// the event-driven scheduler's fine-grained skip horizon.
    Fig19Stall,
}

/// The three router kinds of the NoC-comparison figures, in paper order.
const NOC_SWEEP: [RouterKind; 3] = [RouterKind::Smart, RouterKind::Conventional, RouterKind::HighRadix];

/// The organizations of the energy-breakdown figure, in paper order.
const ENERGY_ORGS: [OrganizationKind; 5] = [
    OrganizationKind::Private,
    OrganizationKind::Shared,
    OrganizationKind::LocoCc,
    OrganizationKind::LocoCcVms,
    OrganizationKind::LocoCcVmsIvr,
];

impl FigureSpec {
    /// The figure's identifier ("fig06" … "fig19").
    pub fn id(&self) -> &'static str {
        match self {
            FigureSpec::Fig06 { .. } => "fig06",
            FigureSpec::Fig07 { .. } => "fig07",
            FigureSpec::Fig08 { .. } => "fig08",
            FigureSpec::Fig09 { .. } => "fig09",
            FigureSpec::Fig10 { .. } => "fig10",
            FigureSpec::Fig11 { .. } => "fig11",
            FigureSpec::Fig12 { .. } => "fig12",
            FigureSpec::Fig13 { .. } => "fig13",
            FigureSpec::Fig14 { .. } => "fig14",
            FigureSpec::Fig15 { .. } => "fig15",
            FigureSpec::Fig16 { .. } => "fig16",
            FigureSpec::Fig17Energy { .. } => "fig17",
            FigureSpec::Fig18Edp { .. } => "fig18",
            FigureSpec::Fig19Stall => "fig19",
        }
    }

    /// A short human-readable title (what `reproduce --list-figures`
    /// prints).
    pub fn title(&self) -> &'static str {
        match self {
            FigureSpec::Fig06 { .. } => "Normalized runtime of private vs. shared caches",
            FigureSpec::Fig07 { .. } => "Increase of L2 access latency over Private Cache",
            FigureSpec::Fig08 { .. } => "L2 cache misses per 1000 instructions",
            FigureSpec::Fig09 { .. } => "Global search delay for data cached on-chip",
            FigureSpec::Fig10 { .. } => "Normalized off-chip memory accesses",
            FigureSpec::Fig11 { .. } => "Normalized runtimes of LOCO against Shared Cache",
            FigureSpec::Fig12 { .. } => "LOCO L2 hit latency and search delay under alternative NoCs",
            FigureSpec::Fig13 { .. } => "LOCO runtime under alternative NoCs",
            FigureSpec::Fig14 { .. } => "LOCO by cluster size (latency, MPKI, search delay, runtime)",
            FigureSpec::Fig15 { .. } => "Multi-program workloads (off-chip accesses, runtime)",
            FigureSpec::Fig16 { .. } => "Full-system simulation (MPKI, runtime)",
            FigureSpec::Fig17Energy { .. } => {
                "Energy per instruction and breakdown by cache organization"
            }
            FigureSpec::Fig18Edp { .. } => "Energy-delay product by cluster size",
            FigureSpec::Fig19Stall => "Stall-heavy stress workloads (barrier/DRAM-bound) under alternative NoCs",
        }
    }

    /// Builds the figure(s) from a completed result set — the pure
    /// *assemble* pass. Figures with sub-parts (12, 14, 15, 16, 17) return
    /// more than one [`Figure`]; the rest return exactly one.
    ///
    /// # Panics
    ///
    /// Panics (see [`ResultSet::expect`]) if a scenario the figure reads is
    /// missing from `results` — the executed plan did not include this
    /// figure — or did not complete.
    pub fn assemble(&self, params: &ExperimentParams, results: &ResultSet) -> Vec<Figure> {
        self.build(params, &mut |s| results.expect(&s))
    }

    /// The one description of every figure: reads each scenario through
    /// `read` and builds the figure(s). [`FigureSpec::assemble`] reads
    /// completed results; [`CampaignPlan::add_figure`] records the reads, in
    /// order, as the plan. Every figure reads through [`sweep`], so the plan
    /// is x-axis-major: per x point, the baselines first, then each series.
    /// Which scenarios are read must never depend on the values read: the
    /// plan pass reads zeroed placeholders.
    fn build<'r>(
        &self,
        params: &ExperimentParams,
        read: &mut dyn FnMut(Scenario) -> &'r SimResults,
    ) -> Vec<Figure> {
        use OrganizationKind::{LocoCc, LocoCcVms, LocoCcVmsIvr, Private, Shared};
        let at = |b: Benchmark, org: OrganizationKind| Scenario::default_trace(params, b, org);
        let loco = |b: Benchmark, router: RouterKind, cluster: ClusterShape| Scenario::Trace {
            benchmark: b,
            org: LocoCcVmsIvr,
            router,
            cluster,
            full_system: false,
        };
        let name = |b: Benchmark| b.name().to_string();
        let id = |fig: &str| format!("{fig}-{}", params.label());
        match self {
            FigureSpec::Fig06 { benchmarks } => sweep(
                vec![panel(
                    "fig06",
                    "Normalized runtime of private caches vs. shared caches",
                    "runtime normalized to Shared Cache",
                    ["Private Cache"],
                )],
                benchmarks,
                name,
                |b| {
                    let shared = read(at(b, Shared));
                    vec![vec![read(at(b, Private)).runtime_normalized_to(shared)]]
                },
            ),
            FigureSpec::Fig07 { benchmarks } => sweep(
                vec![panel(
                    id("fig07"),
                    "Increase of L2 access latency over Private Cache",
                    "cycles",
                    ["Shared Cache", "LOCO"],
                )],
                benchmarks,
                name,
                |b| {
                    let private = read(at(b, Private));
                    let shared = read(at(b, Shared));
                    let loco = read(at(b, LocoCcVmsIvr));
                    vec![vec![
                        latency_over(shared, private),
                        latency_over(loco, private),
                    ]]
                },
            ),
            FigureSpec::Fig08 { benchmarks } => sweep(
                vec![panel(
                    id("fig08"),
                    "L2 cache misses per 1000 instructions",
                    "MPKI",
                    ["Shared Cache", "LOCO"],
                )],
                benchmarks,
                name,
                |b| {
                    vec![vec![
                        read(at(b, Shared)).l2_mpki,
                        read(at(b, LocoCcVmsIvr)).l2_mpki,
                    ]]
                },
            ),
            FigureSpec::Fig09 { benchmarks } => sweep(
                vec![panel(
                    id("fig09"),
                    "Global search delay for data cached on-chip",
                    "cycles",
                    ["LOCO CC", "LOCO CC+VMS"],
                )],
                benchmarks,
                name,
                |b| {
                    vec![vec![
                        read(at(b, LocoCc)).avg_search_delay,
                        read(at(b, LocoCcVms)).avg_search_delay,
                    ]]
                },
            ),
            FigureSpec::Fig10 { benchmarks } => sweep(
                vec![panel(
                    id("fig10"),
                    "Normalized off-chip memory accesses",
                    "normalized to Shared Cache",
                    ["LOCO CC+VMS", "LOCO CC+VMS+IVR"],
                )],
                benchmarks,
                name,
                |b| {
                    let shared = read(at(b, Shared));
                    vec![[LocoCcVms, LocoCcVmsIvr]
                        .map(|org| read(at(b, org)).offchip_normalized_to(shared))
                        .to_vec()]
                },
            ),
            FigureSpec::Fig11 { benchmarks } => {
                let orgs = [Shared, LocoCc, LocoCcVms, LocoCcVmsIvr];
                sweep(
                    vec![panel(
                        id("fig11"),
                        "Normalized runtimes of LOCO against baseline Shared Cache",
                        "runtime normalized to Shared Cache",
                        orgs.map(OrganizationKind::label),
                    )],
                    benchmarks,
                    name,
                    |b| {
                        let shared = read(at(b, Shared));
                        vec![orgs
                            .map(|org| read(at(b, org)).runtime_normalized_to(shared))
                            .to_vec()]
                    },
                )
            }
            FigureSpec::Fig12 { benchmarks } => sweep(
                vec![
                    panel(
                        id("fig12a"),
                        "LOCO L2 hit latency under alternative NoCs",
                        "cycles over Private Cache",
                        noc_labels(),
                    ),
                    panel(
                        id("fig12b"),
                        "LOCO global on-chip data search delay under alternative NoCs",
                        "cycles",
                        noc_labels(),
                    ),
                ],
                benchmarks,
                name,
                |b| {
                    let private = read(at(b, Private));
                    let runs = NOC_SWEEP.map(|router| read(loco(b, router, params.cluster)));
                    vec![
                        runs.iter().map(|r| latency_over(r, private)).collect(),
                        runs.iter().map(|r| r.avg_search_delay).collect(),
                    ]
                },
            ),
            FigureSpec::Fig13 { benchmarks } => sweep(
                vec![panel(
                    id("fig13"),
                    "LOCO runtime under alternative NoCs",
                    "runtime normalized to Shared Cache on SMART NoC",
                    noc_labels(),
                )],
                benchmarks,
                name,
                |b| {
                    let shared = read(at(b, Shared));
                    vec![NOC_SWEEP
                        .map(|router| {
                            read(loco(b, router, params.cluster)).runtime_normalized_to(shared)
                        })
                        .to_vec()]
                },
            ),
            FigureSpec::Fig14 { benchmarks, shapes } => {
                let labels = cluster_labels(shapes);
                sweep(
                    vec![
                        panel(
                            "fig14a",
                            "L2 hit latency increase by cluster size",
                            "cycles over Private Cache",
                            &labels,
                        ),
                        panel(
                            "fig14b",
                            "L2 misses per 1000 instructions by cluster size",
                            "MPKI",
                            &labels,
                        ),
                        panel(
                            "fig14c",
                            "Global search delay by cluster size",
                            "cycles",
                            &labels,
                        ),
                        panel(
                            "fig14d",
                            "Normalized runtime by cluster size",
                            "runtime normalized to Shared Cache",
                            &labels,
                        ),
                    ],
                    benchmarks,
                    name,
                    |b| {
                        let private = read(at(b, Private));
                        let shared = read(at(b, Shared));
                        let runs: Vec<&SimResults> = shapes
                            .iter()
                            .map(|&shape| read(loco(b, RouterKind::Smart, shape)))
                            .collect();
                        vec![
                            runs.iter().map(|r| latency_over(r, private)).collect(),
                            runs.iter().map(|r| r.l2_mpki).collect(),
                            runs.iter().map(|r| r.avg_search_delay).collect(),
                            runs.iter()
                                .map(|r| r.runtime_normalized_to(shared))
                                .collect(),
                        ]
                    },
                )
            }
            FigureSpec::Fig15 { workloads } => {
                let orgs = [Shared, LocoCc, LocoCcVmsIvr];
                let labels = orgs.map(|org| {
                    if org == LocoCc {
                        "Clustered Cache"
                    } else {
                        org.label()
                    }
                });
                sweep(
                    vec![
                        panel(
                            "fig15a",
                            "Multi-program workloads: normalized off-chip memory accesses",
                            "normalized to Shared Cache",
                            labels,
                        ),
                        panel(
                            "fig15b",
                            "Multi-program workloads: normalized runtime",
                            "normalized to Shared Cache",
                            labels,
                        ),
                    ],
                    workloads,
                    |w| format!("W{w}"),
                    |workload| {
                        let shared = read(Scenario::MultiProgram {
                            workload,
                            org: Shared,
                        });
                        let runs = orgs.map(|org| read(Scenario::MultiProgram { workload, org }));
                        vec![
                            runs.iter()
                                .map(|r| r.offchip_normalized_to(shared))
                                .collect(),
                            runs.iter()
                                .map(|r| r.runtime_normalized_to(shared))
                                .collect(),
                        ]
                    },
                )
            }
            FigureSpec::Fig16 { benchmarks } => {
                let orgs = [LocoCc, LocoCcVms, LocoCcVmsIvr];
                let full_system = |b: Benchmark, org: OrganizationKind| Scenario::Trace {
                    benchmark: b,
                    org,
                    router: RouterKind::Smart,
                    cluster: params.cluster,
                    full_system: true,
                };
                sweep(
                    vec![
                        panel(
                            "fig16a",
                            "Full system simulation: L2 misses per 1000 instructions",
                            "MPKI",
                            ["Shared", "LOCO"],
                        ),
                        panel(
                            "fig16b",
                            "Full system simulation: normalized runtime against Shared Cache",
                            "runtime normalized to Shared Cache",
                            orgs.map(OrganizationKind::label),
                        ),
                    ],
                    benchmarks,
                    name,
                    |b| {
                        let shared = read(full_system(b, Shared));
                        let [cc, vms, ivr] = orgs.map(|org| read(full_system(b, org)));
                        vec![
                            vec![shared.l2_mpki, ivr.l2_mpki],
                            [cc, vms, ivr]
                                .map(|r| r.runtime_normalized_to(shared))
                                .to_vec(),
                        ]
                    },
                )
            }
            FigureSpec::Fig17Energy { benchmarks } => {
                let energy = EnergyParams::default();
                // 17a: energy per instruction, per organization, across the
                // benchmark x-axis (nJ so the magnitudes stay readable).
                let mut breakdowns: Vec<[EnergyBreakdown; 5]> = Vec::new();
                let mut figs = sweep(
                    vec![panel(
                        id("fig17a"),
                        "Energy per instruction by cache organization",
                        "nJ / instruction",
                        ENERGY_ORGS.map(OrganizationKind::label),
                    )],
                    benchmarks,
                    name,
                    |b| {
                        let bds = ENERGY_ORGS.map(|org| energy.breakdown(read(at(b, org))));
                        breakdowns.push(bds);
                        vec![bds.iter().map(|bd| bd.epi_fj() / 1e6).collect()]
                    },
                );
                // 17b: the subsystem breakdown per organization, averaged
                // over the benchmarks (the stacked-bar view of 17a).
                let mut parts = Figure::new(
                    id("fig17b"),
                    "Energy breakdown by subsystem (benchmark average)",
                    "nJ / instruction",
                );
                parts.x_labels = ENERGY_ORGS.iter().map(|o| o.label().to_string()).collect();
                let n = benchmarks.len().max(1) as f64;
                type Component = fn(&EnergyBreakdown) -> u64;
                let components: [(&str, Component); 6] = [
                    ("NoC", |b| b.network.total_fj()),
                    ("L1", |b| b.cache.l1_fj),
                    ("L2", |b| b.cache.l2_fj),
                    ("Directory", |b| b.cache.directory_fj),
                    ("VMS+IVR", |b| b.cache.vms_fj + b.cache.ivr_fj),
                    ("DRAM", |b| b.dram_fj),
                ];
                for (label, f) in components {
                    let per_org = (0..ENERGY_ORGS.len())
                        .map(|i| {
                            breakdowns
                                .iter()
                                .map(|bds| {
                                    let bd = &bds[i];
                                    if bd.instructions == 0 {
                                        0.0
                                    } else {
                                        f(bd) as f64 / bd.instructions as f64 / 1e6
                                    }
                                })
                                .sum::<f64>()
                                / n
                        })
                        .collect();
                    parts.push_series(Series::new(label, per_org));
                }
                figs.push(parts);
                figs
            }
            FigureSpec::Fig18Edp { benchmarks, shapes } => {
                let energy = EnergyParams::default();
                sweep(
                    vec![panel(
                        id("fig18"),
                        "Energy-delay product of LOCO by cluster size",
                        "EDP normalized to Shared Cache",
                        cluster_labels(shapes),
                    )],
                    benchmarks,
                    name,
                    |b| {
                        let shared = energy.breakdown(read(at(b, Shared)));
                        vec![shapes
                            .iter()
                            .map(|&shape| {
                                energy
                                    .breakdown(read(loco(b, RouterKind::Smart, shape)))
                                    .edp_normalized_to(&shared)
                            })
                            .collect()]
                    },
                )
            }
            FigureSpec::Fig19Stall => sweep(
                vec![panel(
                    "fig19",
                    "Stall-heavy stress workloads under alternative NoCs",
                    "runtime normalized to SMART NoC",
                    noc_labels(),
                )],
                &StressKind::ALL,
                |kind| kind.name().to_string(),
                |kind| {
                    let smart = read(Scenario::StallStress {
                        kind,
                        router: RouterKind::Smart,
                    });
                    vec![NOC_SWEEP
                        .map(|router| {
                            read(Scenario::StallStress { kind, router })
                                .runtime_normalized_to(smart)
                        })
                        .to_vec()]
                },
            ),
        }
    }
}

/// An empty figure panel: the header and one still-empty series per label.
fn panel<S: Into<String>>(
    id: impl Into<String>,
    title: &str,
    y_label: &str,
    series: impl IntoIterator<Item = S>,
) -> Figure {
    let mut fig = Figure::new(id, title, y_label);
    fig.series = series
        .into_iter()
        .map(|label| Series::new(label, Vec::new()))
        .collect();
    fig
}

/// Fills `panels` point by point along one x-axis, then closes each with its
/// `AVG` column. `row` reads one point's scenarios and returns, per panel,
/// one value per series. Walking the x-axis once, in order, is what makes
/// every figure's plan x-axis-major.
fn sweep<X: Copy>(
    mut panels: Vec<Figure>,
    xs: &[X],
    name: impl Fn(X) -> String,
    mut row: impl FnMut(X) -> Vec<Vec<f64>>,
) -> Vec<Figure> {
    for &x in xs {
        let rows = row(x);
        assert_eq!(rows.len(), panels.len(), "one row per panel");
        for (fig, values) in panels.iter_mut().zip(rows) {
            assert_eq!(
                values.len(),
                fig.series.len(),
                "{}: one value per series",
                fig.id
            );
            fig.x_labels.push(name(x));
            for (series, v) in fig.series.iter_mut().zip(values) {
                series.values.push(v);
            }
        }
    }
    for fig in &mut panels {
        fig.push_average_column();
    }
    panels
}

/// L2 hit latency above the private-cache baseline (never negative).
fn latency_over(r: &SimResults, private: &SimResults) -> f64 {
    (r.avg_l2_hit_latency - private.avg_l2_hit_latency).max(0.0)
}

/// One series label per router of [`NOC_SWEEP`].
fn noc_labels() -> [String; 3] {
    NOC_SWEEP.map(|router| format!("LOCO + {}", router.label()))
}

/// One series label per cluster shape.
fn cluster_labels(shapes: &[ClusterShape]) -> Vec<String> {
    shapes
        .iter()
        .map(|s| format!("Cluster Size:{}x{}", s.w, s.h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        ExperimentParams::quick().with_mem_ops(100)
    }

    #[test]
    fn plan_deduplicates_across_figures() {
        let params = quick();
        let benchmarks = vec![Benchmark::Lu, Benchmark::Blackscholes];
        let fig06 = FigureSpec::Fig06 {
            benchmarks: benchmarks.clone(),
        };
        let fig11 = FigureSpec::Fig11 { benchmarks };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&fig06, &params);
        let after_fig06 = plan.len();
        assert_eq!(after_fig06, 4); // {Shared, Private} x 2 benchmarks
        plan.add_figure(&fig11, &params);
        // fig11 adds {LocoCc, LocoCcVms, LocoCcVmsIvr} x 2; Shared is shared.
        assert_eq!(plan.len(), after_fig06 + 6);
    }

    #[test]
    fn executor_covers_the_whole_plan() {
        let params = quick();
        let spec = FigureSpec::Fig09 {
            benchmarks: vec![Benchmark::Barnes],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        let results = Executor::new(1).execute(&params, &plan);
        assert_eq!(results.len(), plan.len());
        for s in plan.scenarios() {
            assert!(results.get(s).is_some(), "missing {}", s.label());
        }
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].series.len(), 2);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let params = quick();
        let spec = FigureSpec::Fig08 {
            benchmarks: vec![Benchmark::Lu, Benchmark::Blackscholes],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        let serial = Executor::new(1).execute(&params, &plan);
        let parallel = Executor::new(4).execute(&params, &plan);
        for s in plan.scenarios() {
            assert_eq!(
                format!("{:?}", serial.expect(s)),
                format!("{:?}", parallel.expect(s)),
                "scenario {} diverged across worker counts",
                s.label()
            );
        }
        assert_eq!(
            spec.assemble(&params, &serial),
            spec.assemble(&params, &parallel)
        );
    }

    #[test]
    fn multiprogram_scenarios_execute_and_assemble() {
        let params = quick();
        let spec = FigureSpec::Fig15 { workloads: vec![0] };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 3);
        let results = Executor::new(2).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].series.len(), 3);
    }

    #[test]
    #[should_panic(expected = "was it planned")]
    fn assembling_from_an_incomplete_result_set_names_the_scenario() {
        let params = quick();
        let spec = FigureSpec::Fig06 {
            benchmarks: vec![Benchmark::Lu],
        };
        spec.assemble(&params, &ResultSet::new());
    }

    #[test]
    fn executor_zero_means_all_cores() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
    }

    #[test]
    fn energy_figure_rides_the_existing_scenario_axes() {
        let params = quick();
        let spec = FigureSpec::Fig17Energy {
            benchmarks: vec![Benchmark::Lu],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 5, "one scenario per organization");
        // The scenarios are plain default traces: composing with fig11
        // plans nothing new.
        plan.add_figure(
            &FigureSpec::Fig11 {
                benchmarks: vec![Benchmark::Lu],
            },
            &params,
        );
        assert_eq!(plan.len(), 5);
        let results = Executor::new(2).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].id, format!("fig17a-{}", params.label()));
        assert_eq!(figs[0].series.len(), 5, "one series per organization");
        assert_eq!(figs[1].series.len(), 6, "one series per subsystem");
        // Every run executes instructions and touches DRAM, so energy is
        // strictly positive everywhere.
        for s in &figs[0].series {
            for v in &s.values {
                assert!(*v > 0.0 && v.is_finite(), "{}: {v}", s.label);
            }
        }
    }

    #[test]
    fn edp_figure_normalizes_against_shared() {
        let params = quick();
        let spec = FigureSpec::Fig18Edp {
            benchmarks: vec![Benchmark::Lu],
            shapes: vec![ClusterShape::new(2, 2)],
        };
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 2, "Shared baseline + one shape");
        let results = Executor::new(1).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 1);
        let v = figs[0].series[0].values[0];
        assert!(v > 0.0 && v.is_finite());
    }

    #[test]
    fn stall_stress_figure_sweeps_kinds_by_router() {
        let params = quick();
        let spec = FigureSpec::Fig19Stall;
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        assert_eq!(plan.len(), 6, "2 stress kinds x 3 routers");
        let results = Executor::new(2).execute(&params, &plan);
        let figs = spec.assemble(&params, &results);
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].series.len(), 3, "one series per router");
        // SMART is the normalization baseline, so its series is exactly 1.
        let smart = &figs[0].series[0];
        assert!(smart.label.contains("SMART"), "{}", smart.label);
        for v in &smart.values {
            assert!((v - 1.0).abs() < 1e-12, "SMART must normalize to 1, got {v}");
        }
        for s in &figs[0].series {
            for v in &s.values {
                assert!(*v > 0.0 && v.is_finite(), "{}: {v}", s.label);
            }
        }
    }

    #[test]
    fn stall_stress_scenarios_are_stall_shaped() {
        let params = quick();
        // DRAM-bound: nearly every access goes off-chip, and the stretched
        // latency dominates the runtime.
        let dram = run_stall_stress(&params, StressKind::DramBound, RouterKind::Smart);
        assert!(dram.completed);
        assert!(
            dram.offchip_accesses * 2 > dram.cache.l2_misses,
            "DRAM-bound must miss past the L2 ({} offchip of {} L2 misses)",
            dram.offchip_accesses,
            dram.cache.l2_misses
        );
        assert!(
            dram.avg_miss_latency > 800.0,
            "the stretched DRAM latency must dominate misses (got {:.0})",
            dram.avg_miss_latency
        );
        // Barrier-phased: the barriers must actually fire.
        let barrier = run_stall_stress(&params, StressKind::BarrierPhased, RouterKind::Smart);
        assert!(barrier.completed);
        assert!(
            barrier.cache.instructions > 0 && barrier.runtime_cycles > 0,
            "barrier-phased run must make progress"
        );
    }

    // `Executor::try_new`'s rejection contract is covered by
    // `tests/campaign.rs::senseless_thread_counts_are_rejected_with_a_clear_error`
    // (through the public re-export the CLI actually uses).

    #[test]
    fn every_figure_has_an_id_number_and_title() {
        let specs = [
            FigureSpec::Fig06 { benchmarks: vec![] },
            FigureSpec::Fig17Energy { benchmarks: vec![] },
            FigureSpec::Fig18Edp {
                benchmarks: vec![],
                shapes: vec![],
            },
        ];
        for (spec, n) in specs.iter().zip([6, 17, 18]) {
            assert_eq!(spec.id(), format!("fig{n:02}"));
            assert!(!spec.title().is_empty());
        }
    }
}
