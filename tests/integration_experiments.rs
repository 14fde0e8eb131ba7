//! Integration tests of the paper's figures: every figure assembled by the
//! campaign engine is well-formed at the quick scale, and the headline
//! trends of the paper hold.

use loco::campaign::{CampaignPlan, Executor, FigureSpec};
use loco::{Benchmark, ClusterShape, ExperimentParams, Figure};

/// Plans every figure of `specs` into one campaign at the quick scale,
/// executes it and assembles the figures in order.
fn assemble(specs: &[FigureSpec]) -> Vec<Figure> {
    let params = ExperimentParams::quick();
    let mut plan = CampaignPlan::new();
    for spec in specs {
        plan.add_figure(spec, &params);
    }
    let results = Executor::new(2).execute(&params, &plan);
    specs
        .iter()
        .flat_map(|spec| spec.assemble(&params, &results))
        .collect()
}

const BENCHES: [Benchmark; 2] = [Benchmark::Lu, Benchmark::Barnes];

fn assert_finite(fig: &Figure) {
    for s in &fig.series {
        assert_eq!(s.values.len(), fig.x_labels.len(), "{}", fig.id);
        for v in &s.values {
            assert!(v.is_finite() && *v >= 0.0, "{}: bad value {v}", fig.id);
        }
    }
}

#[test]
fn fig06_through_fig11_are_well_formed() {
    let b = || BENCHES.to_vec();
    let specs = [
        FigureSpec::Fig06 { benchmarks: b() },
        FigureSpec::Fig07 { benchmarks: b() },
        FigureSpec::Fig08 { benchmarks: b() },
        FigureSpec::Fig09 { benchmarks: b() },
        FigureSpec::Fig10 { benchmarks: b() },
        FigureSpec::Fig11 { benchmarks: b() },
    ];
    let figs = assemble(&specs);
    assert_eq!(figs.len(), specs.len());
    for fig in &figs {
        assert_finite(fig);
        assert_eq!(*fig.x_labels.last().unwrap(), "AVG");
        assert!(!fig.to_text_table().is_empty());
    }
    // The plan deduplicates across the six figures, so the number of
    // distinct simulations stays at 5 organizations x 2 benchmarks.
    let params = ExperimentParams::quick();
    let mut plan = CampaignPlan::new();
    for spec in &specs {
        plan.add_figure(spec, &params);
    }
    assert_eq!(plan.len(), 10);
}

#[test]
fn vms_broadcast_cuts_search_delay_versus_directory_indirection() {
    // Figure 9's headline: VMS reduces the on-chip search cost.
    let fig = assemble(&[FigureSpec::Fig09 {
        benchmarks: vec![Benchmark::Barnes, Benchmark::Fft],
    }])
    .remove(0);
    let cc = fig.average_of("LOCO CC").unwrap();
    let vms = fig.average_of("LOCO CC+VMS").unwrap();
    assert!(
        vms < cc,
        "VMS search delay {vms:.1} should undercut the directory's {cc:.1}"
    );
}

#[test]
fn loco_average_runtime_improves_on_shared() {
    // Figure 11's headline: LOCO (full) reduces run time on average. At the
    // 16-core quick scale the margin is small, so only a mild improvement is
    // required here; the paper-scale (64-core) claim is asserted in
    // `integration_system::loco_runtime_beats_the_shared_baseline_...`.
    let fig = assemble(&[FigureSpec::Fig11 {
        benchmarks: vec![
            Benchmark::Lu,
            Benchmark::Blackscholes,
            Benchmark::WaterSpatial,
        ],
    }])
    .remove(0);
    let shared = fig.average_of("Shared Cache").unwrap();
    let loco = fig.average_of("LOCO CC+VMS+IVR").unwrap();
    assert!((shared - 1.0).abs() < 1e-9);
    assert!(
        loco < 1.05,
        "LOCO normalized runtime {loco:.3} should not regress the shared baseline"
    );
}

#[test]
fn noc_comparison_figures_rank_smart_first() {
    let benchmarks = vec![Benchmark::Lu];
    // Figure 13, then Figure 12's two parts (a: L2 hit latency).
    let figs = assemble(&[
        FigureSpec::Fig13 {
            benchmarks: benchmarks.clone(),
        },
        FigureSpec::Fig12 { benchmarks },
    ]);
    let (fig13, fig12) = (&figs[0], &figs[1]);
    let smart = fig13.average_of("LOCO + SMART NoC").unwrap();
    let conv = fig13.average_of("LOCO + Conventional NoC").unwrap();
    assert!(smart <= conv, "SMART {smart:.3} vs conventional {conv:.3}");
    let smart_lat = fig12.average_of("LOCO + SMART NoC").unwrap();
    let hr_lat = fig12.average_of("LOCO + High-Radix Routers").unwrap();
    assert!(smart_lat <= hr_lat);
}

#[test]
fn cluster_size_figures_cover_all_shapes() {
    let figs = assemble(&[FigureSpec::Fig14 {
        benchmarks: vec![Benchmark::Lu],
        shapes: vec![ClusterShape::new(2, 1), ClusterShape::new(2, 2)],
    }]);
    assert_eq!(figs.len(), 4);
    for fig in &figs {
        assert_eq!(fig.series.len(), 2);
        assert_finite(fig);
    }
    // Smaller clusters -> lower hit latency (Figure 14a's trend).
    let small = figs[0].average_of("Cluster Size:2x1").unwrap();
    let large = figs[0].average_of("Cluster Size:2x2").unwrap();
    assert!(small <= large + 1.0, "2x1 {small:.2} vs 2x2 {large:.2}");
}

#[test]
fn fullsystem_figures_are_well_formed() {
    let figs = assemble(&[FigureSpec::Fig16 {
        benchmarks: vec![Benchmark::Lu],
    }]);
    let (mpki, runtime) = (&figs[0], &figs[1]);
    assert_finite(mpki);
    assert_finite(runtime);
    assert_eq!(runtime.series.len(), 3);
}

#[test]
fn multiprogram_figure_reports_all_three_organizations() {
    let figs = assemble(&[FigureSpec::Fig15 { workloads: vec![1] }]);
    let (off, run) = (&figs[0], &figs[1]);
    assert_finite(off);
    assert_finite(run);
    let labels: Vec<&str> = off.series.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        vec!["Shared Cache", "Clustered Cache", "LOCO CC+VMS+IVR"]
    );
}
