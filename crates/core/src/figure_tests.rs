mod tests {
    use crate::campaign::{CampaignPlan, Executor, ExperimentParams, FigureSpec};
    use crate::report::Figure;
    use loco_workloads::Benchmark;

    fn quick_benchmarks() -> Vec<Benchmark> {
        vec![Benchmark::Lu, Benchmark::Blackscholes]
    }

    /// Plans, executes and assembles one figure at the quick scale.
    fn assemble(spec: FigureSpec) -> Vec<Figure> {
        let params = ExperimentParams::quick();
        let mut plan = CampaignPlan::new();
        plan.add_figure(&spec, &params);
        let results = Executor::new(1).execute(&params, &plan);
        spec.assemble(&params, &results)
    }

    #[test]
    fn fig06_has_one_series_with_average() {
        let fig = assemble(FigureSpec::Fig06 {
            benchmarks: quick_benchmarks(),
        })
        .remove(0);
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.x_labels.len(), 3); // 2 benchmarks + AVG
        assert!(fig.average_of("Private Cache").unwrap() > 0.0);
    }

    #[test]
    fn fig11_normalizes_shared_to_one() {
        let fig = assemble(FigureSpec::Fig11 {
            benchmarks: quick_benchmarks(),
        })
        .remove(0);
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
        let fig = assemble(FigureSpec::Fig09 {
            benchmarks: vec![Benchmark::Barnes],
        })
        .remove(0);
        assert_eq!(fig.series.len(), 2);
        assert!(fig.average_of("LOCO CC+VMS").unwrap() > 0.0);
    }

    #[test]
    fn fig15_runs_a_truncated_workload_on_the_quick_mesh() {
        let figs = assemble(FigureSpec::Fig15 { workloads: vec![0] });
        let (off, run) = (&figs[0], &figs[1]);
        assert_eq!(off.series.len(), 3);
        assert_eq!(run.series.len(), 3);
        assert!(run.average_of("Shared Cache").unwrap() > 0.0);
    }
}
