//! Experiment runners reproducing every table and figure of the paper's
//! evaluation (Section 4).
//!
//! Since the campaign-engine refactor the heavy lifting lives in
//! [`crate::campaign`]: every figure is a [`crate::campaign::FigureSpec`]
//! with a pure *enumerate* pass (which [`crate::campaign::Scenario`]s it
//! needs) and a pure *assemble* pass (how the [`Figure`] is built from a
//! completed [`crate::campaign::ResultSet`]). The [`Runner`] here is kept as
//! a convenient sequential shim over those layers: it memoizes simulation
//! runs in a `Scenario`-keyed `Arc<SimResults>` cache, so composing several
//! figures over the same configuration matrix never re-simulates — and
//! never deep-clones a result either. For parallel campaigns use
//! [`crate::campaign::Executor`] (or the `reproduce` CLI, which emits
//! `EXPERIMENTS.md` mechanically).

use crate::campaign::{run_multiprogram_workload, run_scenario, FigureSpec, ResultSet, Scenario};
use crate::report::Figure;
use loco_cache::{ClusterShape, OrganizationKind};
use loco_noc::RouterKind;
use loco_sim::{SimResults, SystemConfig};
use loco_workloads::{Benchmark, MultiProgramWorkload};
use std::sync::Arc;

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

/// Memoizing sequential experiment runner — a thin shim over the campaign
/// engine (see the module docs and [`crate::campaign`]).
#[derive(Debug)]
pub struct Runner {
    params: ExperimentParams,
    cache: ResultSet,
    runs: u64,
}

impl Runner {
    /// Creates a runner for the given scale.
    pub fn new(params: ExperimentParams) -> Self {
        Runner {
            params,
            cache: ResultSet::new(),
            runs: 0,
        }
    }

    /// The scale parameters.
    pub fn params(&self) -> &ExperimentParams {
        &self.params
    }

    /// Number of distinct simulations executed so far.
    pub fn simulations_run(&self) -> u64 {
        self.runs
    }

    /// The memoized results accumulated so far (a campaign
    /// [`ResultSet`] — usable directly with [`FigureSpec::assemble`]).
    pub fn results(&self) -> &ResultSet {
        &self.cache
    }

    /// Runs (or returns the memoized result of) one scenario.
    pub fn run_scenario(&mut self, scenario: Scenario) -> Arc<SimResults> {
        if let Some(r) = self.cache.get_arc(&scenario) {
            return Arc::clone(r);
        }
        let r = Arc::new(run_scenario(&self.params, scenario));
        self.runs += 1;
        self.cache.insert(scenario, Arc::clone(&r));
        r
    }

    /// Runs (or returns the memoized result of) one configuration.
    pub fn run(
        &mut self,
        benchmark: Benchmark,
        org: OrganizationKind,
        router: RouterKind,
        cluster: ClusterShape,
        full_system: bool,
    ) -> Arc<SimResults> {
        self.run_scenario(Scenario::Trace {
            benchmark,
            org,
            router,
            cluster,
            full_system,
        })
    }

    /// Shorthand: SMART NoC, default cluster, trace-driven.
    pub fn run_default(&mut self, benchmark: Benchmark, org: OrganizationKind) -> Arc<SimResults> {
        self.run(benchmark, org, RouterKind::Smart, self.params.cluster, false)
    }

    /// Sequentially runs whatever the figure still needs and assembles it.
    fn figure(&mut self, spec: FigureSpec) -> Vec<Figure> {
        for scenario in spec.enumerate(&self.params) {
            self.run_scenario(scenario);
        }
        spec.assemble(&self.params, &self.cache)
    }

    fn single(&mut self, spec: FigureSpec) -> Figure {
        let mut figs = self.figure(spec);
        debug_assert_eq!(figs.len(), 1);
        figs.remove(0)
    }

    // ------------------------------------------------------------ Figure 6

    /// Figure 6: run time of the private-cache baseline normalized to the
    /// distributed shared cache (both on SMART NoCs).
    pub fn fig06_private_vs_shared(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.single(FigureSpec::Fig06 {
            benchmarks: benchmarks.to_vec(),
        })
    }

    // ------------------------------------------------------------ Figure 7

    /// Figure 7: increase of average L2 hit latency over the private-cache
    /// baseline, for the shared cache and for LOCO.
    pub fn fig07_l2_hit_latency(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.single(FigureSpec::Fig07 {
            benchmarks: benchmarks.to_vec(),
        })
    }

    // ------------------------------------------------------------ Figure 8

    /// Figure 8: L2 misses per thousand instructions, shared cache vs. LOCO.
    pub fn fig08_mpki(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.single(FigureSpec::Fig08 {
            benchmarks: benchmarks.to_vec(),
        })
    }

    // ------------------------------------------------------------ Figure 9

    /// Figure 9: on-chip data-search delay, LOCO CC (directory indirection)
    /// vs. LOCO CC+VMS (broadcast on the virtual mesh).
    pub fn fig09_search_delay(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.single(FigureSpec::Fig09 {
            benchmarks: benchmarks.to_vec(),
        })
    }

    // ----------------------------------------------------------- Figure 10

    /// Figure 10: off-chip memory accesses normalized to the shared cache,
    /// with and without inter-cluster victim replacement.
    pub fn fig10_offchip(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.single(FigureSpec::Fig10 {
            benchmarks: benchmarks.to_vec(),
        })
    }

    // ----------------------------------------------------------- Figure 11

    /// Figure 11: run time of each LOCO feature, normalized to the shared
    /// cache baseline.
    pub fn fig11_runtime(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.single(FigureSpec::Fig11 {
            benchmarks: benchmarks.to_vec(),
        })
    }

    // ------------------------------------------------------ Figures 12 & 13

    /// Figure 12a: LOCO's L2 hit latency increase (over private) under
    /// SMART, conventional and high-radix NoCs.
    pub fn fig12_l2_latency(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.figure(FigureSpec::Fig12 {
            benchmarks: benchmarks.to_vec(),
        })
        .remove(0)
    }

    /// Figure 12b: LOCO's on-chip data-search delay under the three NoCs.
    pub fn fig12_search_delay(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.figure(FigureSpec::Fig12 {
            benchmarks: benchmarks.to_vec(),
        })
        .remove(1)
    }

    /// Figure 13: LOCO run time under the three NoCs, normalized to the
    /// shared cache running atop the SMART NoC.
    pub fn fig13_noc_runtime(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.single(FigureSpec::Fig13 {
            benchmarks: benchmarks.to_vec(),
        })
    }

    // ----------------------------------------------------------- Figure 14

    /// Figure 14: LOCO with different cluster shapes. Returns the four
    /// sub-figures (hit latency, MPKI, search delay, normalized runtime).
    pub fn fig14_cluster_size(&mut self, benchmarks: &[Benchmark], shapes: &[ClusterShape]) -> Vec<Figure> {
        self.figure(FigureSpec::Fig14 {
            benchmarks: benchmarks.to_vec(),
            shapes: shapes.to_vec(),
        })
    }

    // ----------------------------------------------------------- Figure 15

    /// Figure 15: multi-program workloads W0–W9 (Table 2). Returns
    /// (normalized off-chip accesses, normalized runtime); series are the
    /// shared cache, the clustered cache baseline (LOCO CC) and full LOCO.
    pub fn fig15_multiprogram(&mut self, workloads: &[usize]) -> (Figure, Figure) {
        let mut figs = self.figure(FigureSpec::Fig15 {
            workloads: workloads.to_vec(),
        });
        let runtime = figs.remove(1);
        let offchip = figs.remove(0);
        (offchip, runtime)
    }

    /// Runs one Table-2 workload under one organization (unmemoized — the
    /// workload may be arbitrary, not just a Table-2 entry; campaign
    /// scenarios key Table-2 workloads by index instead).
    pub fn run_multiprogram(&mut self, workload: &MultiProgramWorkload, org: OrganizationKind) -> SimResults {
        self.runs += 1;
        run_multiprogram_workload(&self.params, workload, org)
    }

    // ----------------------------------------------------------- Figure 16

    /// Figure 16a: full-system (synchronization-aware) MPKI, shared vs LOCO.
    pub fn fig16_mpki(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.figure(FigureSpec::Fig16 {
            benchmarks: benchmarks.to_vec(),
        })
        .remove(0)
    }

    /// Figure 16b: full-system normalized runtime of the LOCO variants
    /// against the shared cache.
    pub fn fig16_runtime(&mut self, benchmarks: &[Benchmark]) -> Figure {
        self.figure(FigureSpec::Fig16 {
            benchmarks: benchmarks.to_vec(),
        })
        .remove(1)
    }

    // ------------------------------------------------- Figures 17 & 18 (energy)

    /// Figures 17a+17b: energy per instruction by cache organization and the
    /// subsystem (NoC / L1 / L2 / directory / VMS+IVR / DRAM) breakdown.
    pub fn fig17_energy(&mut self, benchmarks: &[Benchmark]) -> Vec<Figure> {
        self.figure(FigureSpec::Fig17Energy {
            benchmarks: benchmarks.to_vec(),
        })
    }

    /// Figure 18: energy-delay product of full LOCO by cluster shape,
    /// normalized to the shared-cache baseline.
    pub fn fig18_edp(&mut self, benchmarks: &[Benchmark], shapes: &[ClusterShape]) -> Figure {
        self.single(FigureSpec::Fig18Edp {
            benchmarks: benchmarks.to_vec(),
            shapes: shapes.to_vec(),
        })
    }

    // ------------------------------------------------- Figure 19 (stress)

    /// Figure 19: runtime of the stall-heavy stress workloads
    /// (barrier-phased, DRAM-bound) under the three NoCs, normalized to the
    /// SMART NoC.
    pub fn fig19_stall(&mut self) -> Figure {
        self.single(FigureSpec::Fig19Stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_benchmarks() -> Vec<Benchmark> {
        vec![Benchmark::Lu, Benchmark::Blackscholes]
    }

    #[test]
    fn runner_memoizes_identical_configurations() {
        let mut r = Runner::new(ExperimentParams::quick());
        let a = r.run_default(Benchmark::Lu, OrganizationKind::Shared);
        let runs_after_first = r.simulations_run();
        let b = r.run_default(Benchmark::Lu, OrganizationKind::Shared);
        assert_eq!(r.simulations_run(), runs_after_first);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        // The memoized handle is shared, not cloned: both callers plus the
        // cache itself hold the same allocation.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(Arc::strong_count(&a), 3);
    }

    #[test]
    fn fig06_has_one_series_with_average() {
        let mut r = Runner::new(ExperimentParams::quick());
        let fig = r.fig06_private_vs_shared(&quick_benchmarks());
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.x_labels.len(), 3); // 2 benchmarks + AVG
        assert!(fig.average_of("Private Cache").unwrap() > 0.0);
    }

    #[test]
    fn fig11_normalizes_shared_to_one() {
        let mut r = Runner::new(ExperimentParams::quick());
        let fig = r.fig11_runtime(&quick_benchmarks());
        assert_eq!(fig.series.len(), 4);
        let shared_avg = fig.average_of("Shared Cache").unwrap();
        assert!((shared_avg - 1.0).abs() < 1e-9);
        for s in &fig.series {
            for v in &s.values {
                assert!(*v > 0.0 && v.is_finite());
            }
        }
    }

    #[test]
    fn fig09_search_delay_produces_positive_values() {
        let mut r = Runner::new(ExperimentParams::quick());
        let fig = r.fig09_search_delay(&[Benchmark::Barnes]);
        assert_eq!(fig.series.len(), 2);
        assert!(fig.average_of("LOCO CC+VMS").unwrap() > 0.0);
    }

    #[test]
    fn fig15_runs_a_truncated_workload_on_the_quick_mesh() {
        let mut r = Runner::new(ExperimentParams::quick());
        let (off, run) = r.fig15_multiprogram(&[0]);
        assert_eq!(off.series.len(), 3);
        assert_eq!(run.series.len(), 3);
        assert!(run.average_of("Shared Cache").unwrap() > 0.0);
    }

    #[test]
    fn run_multiprogram_accepts_arbitrary_workloads() {
        let mut r = Runner::new(ExperimentParams::quick().with_mem_ops(100));
        let w = MultiProgramWorkload::table2_entry(0);
        let direct = r.run_multiprogram(&w, OrganizationKind::Shared);
        let keyed = r.run_scenario(Scenario::MultiProgram {
            workload: 0,
            org: OrganizationKind::Shared,
        });
        // The scenario-keyed path and the direct path are the same
        // simulation.
        assert_eq!(format!("{direct:?}"), format!("{:?}", *keyed));
    }
}
