//! The benchmark's own tests: metric names, the metric sets each workload
//! emits, agreement with `BENCHMARK.json`, and a tiny-scale smoke run of
//! every workload through the correctness gate.

use loco::campaign::{FigureSpec, Scenario};
use loco::json::{parse, Value};
use loco::{Benchmark, ClusterShape, ExperimentParams, OrganizationKind, RouterKind, StressKind};
use loco_perfbench::campaign::CampaignSpec;
use loco_perfbench::metrics::{result_line, valid_name, DETERMINISTIC, END_TO_END, PER_LAYER};
use loco_perfbench::noc::NocSpec;
use loco_perfbench::{run, Outcome, RunConfig, Workload};
use std::collections::BTreeSet;
use std::process::Command;

/// Every workload shrunk to a few milliseconds of simulation.
fn tiny_workloads() -> Vec<Workload> {
    let tiny = ExperimentParams {
        mesh_width: 4,
        mesh_height: 4,
        cluster: ClusterShape::new(2, 2),
        mem_ops_per_core: 40,
        ..CampaignSpec::dense64().params
    };
    let dense = CampaignSpec {
        params: tiny,
        figure: FigureSpec::Fig13 {
            benchmarks: vec![Benchmark::Lu, Benchmark::Radix],
        },
        named: Scenario::Trace {
            benchmark: Benchmark::Lu,
            org: OrganizationKind::LocoCcVmsIvr,
            router: RouterKind::Smart,
            cluster: tiny.cluster,
            full_system: false,
        },
        ..CampaignSpec::dense64()
    };
    let stall = CampaignSpec {
        params: ExperimentParams {
            mem_ops_per_core: 40,
            ..CampaignSpec::stall16().params
        },
        named: Scenario::StallStress {
            kind: StressKind::BarrierPhased,
            router: RouterKind::Conventional,
        },
        ..CampaignSpec::stall16()
    };
    let noc = NocSpec {
        width: 4,
        height: 4,
        cycles: 400,
    };
    vec![
        Workload::Campaign(dense),
        Workload::Campaign(stall),
        Workload::Noc(noc),
    ]
}

fn tiny_run(w: &Workload, seed: u64, trace: bool) -> Outcome {
    run(
        w,
        &RunConfig {
            seed,
            seconds: 0.01,
            workers: w.default_workers().min(2),
            trace,
        },
    )
}

fn names(o: &Outcome) -> BTreeSet<&'static str> {
    o.metrics.names().collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let all: BTreeSet<&str> = e2e.iter().chain(&layer).copied().collect();
    assert_eq!(
        all.len(),
        e2e.len() + layer.len(),
        "a metric name is used twice"
    );
    for name in &all {
        assert!(valid_name(name), "{name} does not match [A-Za-z0-9_.-]+");
    }
    for name in DETERMINISTIC {
        assert!(layer.contains(&name), "{name} is not a per-layer metric");
    }
    assert!(!valid_name("") && !valid_name("a b") && !valid_name("x/y"));
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::NAMES);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.0.into(), m.1.into()))
        .collect();
    assert_eq!(list("end_to_end"), e2e);
    let layer: Vec<(String, String)> = PER_LAYER.iter().map(|m| (m.0.into(), m.1.into())).collect();
    assert_eq!(list("per_layer"), layer);
}

#[test]
fn every_tiny_workload_passes_the_gate_and_emits_its_full_metric_set() {
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let layer: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    for w in tiny_workloads() {
        let plain = tiny_run(&w, 7, false);
        assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.problems);
        assert!(plain.attempted > 0, "{}", w.name());
        assert_eq!(plain.failed_share(), 0.0);
        assert_eq!(names(&plain), e2e, "{}", w.name());
        for (name, ..) in END_TO_END {
            assert!(
                plain.metrics.get(name).unwrap() > 0.0,
                "{}: {name} is 0",
                w.name()
            );
        }

        let traced = tiny_run(&w, 7, true);
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.problems);
        assert_eq!(names(&traced), layer, "{}", w.name());
        assert!(!traced.tracer.spans.is_empty(), "{}", w.name());
        assert_eq!(
            traced.digest,
            plain.digest,
            "{}: traced and untraced results differ",
            w.name()
        );

        let again = tiny_run(&w, 7, true);
        for name in DETERMINISTIC {
            assert_eq!(
                traced.metrics.get(name),
                again.metrics.get(name),
                "{}: {name} is not deterministic",
                w.name()
            );
        }
        let other_seed = tiny_run(&w, 8, false);
        assert_ne!(
            other_seed.digest,
            plain.digest,
            "{}: the seed does not reach the inputs",
            w.name()
        );
    }
}

#[test]
fn the_result_line_has_exactly_four_keys() {
    let w = &tiny_workloads()[2];
    let o = tiny_run(w, 1, false);
    let line = result_line(true, o.attempted, o.failed, &o.metrics);
    let Value::Object(fields) = parse(&line).expect("the result line is JSON") else {
        panic!("the result line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line_metric("wall_s", &line);
    assert_eq!(metrics.get("unit").and_then(Value::as_str), Some("s"));
}

fn line_metric(name: &str, line: &str) -> Value {
    parse(line)
        .unwrap()
        .get("metrics")
        .and_then(|m| m.get(name))
        .cloned()
        .unwrap_or_else(|| panic!("no {name} in {line}"))
}

#[test]
fn the_command_line_refuses_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_loco-perfbench");
    let base = ["--seed", "1", "--seconds", "1", "--trace", "0"];
    let refused = |extra: &[&str]| {
        let out = Command::new(bin)
            .args(base)
            .args(extra)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{extra:?} was accepted");
        assert!(out.stdout.is_empty(), "{extra:?} printed a result");
    };
    refused(&["--workload", "nope"]);
    refused(&["--workload", "noc-synthetic", "--workers", "100000"]);
    refused(&["--workload", "noc-synthetic", "--workers", "0"]);
    refused(&["--workload", "noc-synthetic", "--trace", "2"]);
    refused(&[]);
}
