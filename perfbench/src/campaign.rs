//! The campaign workloads, `dense64` and `stall16`.
//!
//! A repetition executes the figure's campaign once per campaign seed (one
//! for `dense64`; several for `stall16`, whose host cost depends strongly
//! on the trace seed, so that one run averages over several traces).
//! Untraced, each campaign is exactly what `reproduce` does: plan the
//! figure, execute the plan on an [`Executor`], assemble the figure.
//! Traced, the benchmark executes the same jobs on its own worker pool so
//! that each layer call of each scenario (trace generation,
//! `CmpSystem::new`, `run`, the energy fold) gets a span, and checks every
//! result against an untraced [`Executor`] run of the same invocation. It
//! then replays one named scenario cycle by cycle with every `step()`
//! timed, which is also the `run` = `run_naive` check.

use crate::metrics::{digest_of, fold, median, percentile, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SetupSamples};
use loco::campaign::{CampaignPlan, Executor, FigureSpec, ResultSet, Scenario};
use loco::{
    Benchmark, BenchmarkSpec, ClusterShape, CmpSystem, EnergyParams, ExperimentParams,
    OrganizationKind, RouterKind, SimResults, StressKind, SystemConfig, TraceGenerator,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A figure campaign at a fixed scale.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Workload name.
    pub name: &'static str,
    /// Campaign scale; its seed is replaced by the campaign seeds.
    pub params: ExperimentParams,
    /// The figure whose plan is executed.
    pub figure: FigureSpec,
    /// Default worker count.
    pub workers: usize,
    /// The scenario whose `step()` loop a traced run times (under the
    /// first campaign seed).
    pub named: Scenario,
    /// Campaigns per repetition. Run seed `s` gives campaign seeds
    /// `s * k .. s * k + k`.
    pub seeds_per_rep: u64,
}

/// Every cycle budget is set here, never taken from a preset.
const MAX_CYCLES: u64 = 50_000_000;

impl CampaignSpec {
    /// The paper64 Figure-13 plan: 8 benchmarks x {Shared on SMART, full
    /// LOCO on SMART, conventional and high-radix}, 32 scenarios on 64
    /// cores, 2 workers.
    pub fn dense64() -> Self {
        let params = ExperimentParams {
            max_cycles: MAX_CYCLES,
            ..ExperimentParams::paper_64()
        };
        CampaignSpec {
            name: "dense64",
            params,
            figure: FigureSpec::Fig13 {
                benchmarks: Benchmark::TRACE_DRIVEN.to_vec(),
            },
            workers: 2,
            named: Scenario::Trace {
                benchmark: Benchmark::Lu,
                org: OrganizationKind::LocoCcVmsIvr,
                router: RouterKind::Smart,
                cluster: params.cluster,
                full_system: false,
            },
            seeds_per_rep: 1,
        }
    }

    /// The Figure-19 stall-stress plan: {barrier_phased, dram_bound} x 3
    /// NoCs on the fixed 4x4 mesh, 1 worker, 4 campaign seeds.
    pub fn stall16() -> Self {
        CampaignSpec {
            name: "stall16",
            params: ExperimentParams {
                max_cycles: MAX_CYCLES,
                ..ExperimentParams::paper_64()
            },
            figure: FigureSpec::Fig19Stall,
            workers: 1,
            named: Scenario::StallStress {
                kind: StressKind::DramBound,
                router: RouterKind::Smart,
            },
            seeds_per_rep: 4,
        }
    }

    /// The campaign parameters as a JSON object.
    pub fn params_json(&self) -> String {
        let p = &self.params;
        // The mesh of the named scenario: stall scenarios fix their own.
        let mesh = scenario_inputs(p, self.named).map_or_else(
            |e| e,
            |(_, _, cfg)| format!("{}x{}", cfg.mesh_width, cfg.mesh_height),
        );
        format!(
            "{{\"figure\": \"{}\", \"scenarios\": {}, \"seeds_per_rep\": {}, \"mesh\": \"{mesh}\", \
             \"mem_ops_per_core\": {}, \"max_cycles\": {}, \"working_set_scale\": {}, \
             \"named_scenario\": \"{}\"}}",
            self.figure.id(),
            plan(&self.figure, p).len(),
            self.seeds_per_rep,
            p.mem_ops_per_core,
            p.max_cycles,
            p.working_set_scale,
            self.named.label()
        )
    }

    /// The parameters of each campaign of a run with seed `seed`.
    fn campaigns(&self, seed: u64) -> Vec<ExperimentParams> {
        let k = self.seeds_per_rep.max(1);
        (0..k)
            .map(|j| ExperimentParams {
                seed: seed.wrapping_mul(k).wrapping_add(j),
                ..self.params
            })
            .collect()
    }
}

fn plan(figure: &FigureSpec, params: &ExperimentParams) -> CampaignPlan {
    let mut plan = CampaignPlan::new();
    plan.add_figure(figure, params);
    plan
}

fn plans(
    spec: &CampaignSpec,
    campaigns: &[ExperimentParams],
) -> Vec<(ExperimentParams, CampaignPlan)> {
    campaigns
        .iter()
        .map(|p| (*p, plan(&spec.figure, p)))
        .collect()
}

/// One scenario of one campaign.
#[derive(Debug, Clone, Copy)]
struct Job {
    params: ExperimentParams,
    scenario: Scenario,
}

impl Job {
    fn label(&self) -> String {
        format!("seed {} {}", self.params.seed, self.scenario.label())
    }
}

/// Every scenario of every campaign, campaign by campaign in plan order.
fn jobs(plans: &[(ExperimentParams, CampaignPlan)]) -> Vec<Job> {
    plans
        .iter()
        .flat_map(|(params, plan)| {
            plan.scenarios().iter().map(|&scenario| Job {
                params: *params,
                scenario,
            })
        })
        .collect()
}

/// The inputs of one scenario, built the way `loco::campaign::run_scenario`
/// builds them. A traced run checks every result built from these against
/// the program's own [`Executor`], so a drift shows as a failure.
fn scenario_inputs(
    params: &ExperimentParams,
    scenario: Scenario,
) -> Result<(BenchmarkSpec, bool, SystemConfig), String> {
    let scale = params.working_set_scale.max(1);
    let (spec, full_system, mut cfg) = match scenario {
        Scenario::Trace {
            benchmark,
            org,
            router,
            cluster,
            full_system,
        } => {
            let mut cfg = SystemConfig::asplos_64(org)
                .with_router(router)
                .with_cluster(cluster)
                .with_full_system(full_system);
            cfg.mesh_width = params.mesh_width;
            cfg.mesh_height = params.mesh_height;
            (benchmark.spec().scaled_down(scale), full_system, cfg)
        }
        Scenario::StallStress { kind, router } => {
            let full_system = kind.full_system();
            let mut cfg = SystemConfig::asplos_64(OrganizationKind::LocoCcVms)
                .with_router(router)
                .with_cluster(ClusterShape::new(2, 2))
                .with_full_system(full_system);
            cfg.mesh_width = 4;
            cfg.mesh_height = 4;
            if kind == StressKind::DramBound {
                cfg.mem.latency = 800;
                cfg.mem.min_gap = 8;
            }
            (kind.spec().scaled_down(scale), full_system, cfg)
        }
        Scenario::MultiProgram { .. } => {
            return Err(format!(
                "scenario {} is not supported by the benchmark",
                scenario.label()
            ))
        }
    };
    cfg.l1.size_bytes = (cfg.l1.size_bytes / scale).max(1024);
    cfg.l2.geometry.size_bytes = (cfg.l2.geometry.size_bytes / scale).max(2048);
    Ok((spec, full_system, cfg))
}

/// Generates the traces of one job and builds its system, with a span
/// around each of the two calls.
fn build(job: &Job, index: usize, tracer: &mut Tracer) -> CmpSystem {
    let p = &job.params;
    let (spec, full_system, cfg) =
        scenario_inputs(p, job.scenario).expect("jobs are validated before they are built");
    let traces = tracer.span("workloads.generate", index, || {
        TraceGenerator::new(p.seed)
            .with_barriers(full_system)
            .generate(&spec, cfg.num_cores(), p.mem_ops_per_core)
    });
    tracer.span("sim.new", index, || CmpSystem::new(cfg, traces))
}

fn result_digest(r: &SimResults) -> u64 {
    digest_of(&format!("{r:?}"))
}

/// Checks one repetition's results in job order — each completed, each
/// equal to the reference when there is one — and returns their digests.
/// A job counts as one failure at most.
fn check(
    jobs: &[Job],
    results: &[Arc<SimResults>],
    reference: Option<&[u64]>,
    outcome: &mut Outcome,
) -> Vec<u64> {
    let mut digests = Vec::with_capacity(results.len());
    for (i, (job, r)) in jobs.iter().zip(results).enumerate() {
        let d = result_digest(r);
        if !r.completed {
            outcome.fail(
                1,
                format!("{} incomplete within its cycle budget", job.label()),
            );
        } else if reference.is_some_and(|rf| rf[i] != d) {
            outcome.fail(
                1,
                format!("{} differs from its reference result", job.label()),
            );
        }
        digests.push(d);
    }
    outcome.attempted += results.len() as u64;
    digests
}

/// Plans, executes and assembles every campaign with the program's own
/// [`Executor`]; returns the results in job order.
fn execute_untraced(
    spec: &CampaignSpec,
    campaigns: &[ExperimentParams],
    executor: &Executor,
) -> Vec<Arc<SimResults>> {
    let mut out = Vec::new();
    for p in campaigns {
        let planned = plan(&spec.figure, p);
        let results = executor.execute(p, &planned);
        black_box(spec.figure.assemble(p, &results));
        out.extend(planned.scenarios().iter().map(|s| {
            Arc::clone(
                results
                    .get_arc(s)
                    .expect("the executor runs every planned scenario"),
            )
        }));
    }
    out
}

/// Runs one campaign workload (see the module docs).
pub fn run(spec: &CampaignSpec, cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::new(cfg.trace);
    let campaigns = spec.campaigns(cfg.seed);
    let all = jobs(&plans(spec, &campaigns));
    for job in &all {
        if let Err(e) = scenario_inputs(&job.params, job.scenario) {
            outcome.attempted += 1;
            outcome.fail(1, e);
        }
    }
    if outcome.failed > 0 {
        return outcome;
    }
    let executor = Executor::try_new(cfg.workers).expect("worker count checked by the caller");
    if cfg.trace {
        run_traced(spec, &campaigns, &all, &executor, cfg, outcome)
    } else {
        run_untraced(spec, &campaigns, &all, &executor, cfg, outcome)
    }
}

fn run_untraced(
    spec: &CampaignSpec,
    campaigns: &[ExperimentParams],
    all: &[Job],
    executor: &Executor,
    cfg: &RunConfig,
    mut outcome: Outcome,
) -> Outcome {
    let mut off = Tracer::new(false);
    let mut setup = SetupSamples::default();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        setup.take(walls.last().copied().unwrap_or(0.0), || {
            for (i, job) in all.iter().enumerate() {
                black_box(build(job, i, &mut off));
            }
        });
        let t = Instant::now();
        let results = execute_untraced(spec, campaigns, executor);
        let wall = t.elapsed().as_secs_f64();
        let digests = check(all, &results, reference.as_deref(), &mut outcome);
        let cycles: u64 = results.iter().map(|r| r.runtime_cycles).sum();
        walls.push(wall);
        rates.push(cycles as f64 / wall);
        reference.get_or_insert(digests);
    }
    outcome.digest = fold(reference.as_deref().unwrap_or_default());
    outcome.metrics.set("wall_s", median(&walls));
    outcome.metrics.set("sim_cycles_per_s", median(&rates));
    outcome.metrics.set("setup_s", setup.median());
    outcome.walls = walls;
    outcome
}

/// What the traced pool keeps of one job.
struct JobRun {
    results: Arc<SimResults>,
    cycles: u64,
    steps: u64,
    skipped_while_busy: u64,
    energy_fj: u64,
}

/// Executes the jobs like [`Executor::execute`] (workers pulling job
/// indices from an atomic counter), recording spans per job.
fn traced_execute(
    jobs: &[Job],
    workers: usize,
    tracer: &Tracer,
    rep: u32,
) -> (Vec<JobRun>, Vec<Tracer>) {
    let n = jobs.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRun>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let energy = EnergyParams::default();
    let children = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut t = tracer.child(rep);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break t;
                        }
                        let begin = Instant::now();
                        let mut sys = build(&jobs[i], i, &mut t);
                        let results = t.span("sim.run", i, || sys.run(jobs[i].params.max_cycles));
                        let breakdown =
                            t.span("energy.breakdown", i, || energy.breakdown(&results));
                        t.record("campaign.scenario", i, begin, Instant::now());
                        *slots[i].lock().expect("no worker panics holding a slot") = Some(JobRun {
                            results: Arc::new(results),
                            cycles: sys.cycle(),
                            steps: sys.steps_executed(),
                            skipped_while_busy: sys.skipped_while_busy(),
                            energy_fj: breakdown.total_fj(),
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let runs = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every job ran")
        })
        .collect();
    (runs, children)
}

/// The per-layer metrics one traced repetition yields.
fn rep_metrics(runs: &[JobRun], tracer: &Tracer, rep: u32, workers: usize) -> Metrics {
    let mut m = Metrics::per_layer_zeroed();
    let secs = |name| tracer.seconds(name, rep);
    let sum = |f: &dyn Fn(&JobRun) -> u64| runs.iter().map(f).sum::<u64>();
    let cycles = sum(&|r| r.cycles);
    let steps = sum(&|r| r.steps);
    let run_s = secs("sim.run");
    let hops = sum(&|r| r.results.network.fabric.link_flit_hops);
    let delivered = sum(&|r| r.results.network.delivered_copies);
    let l1_misses = sum(&|r| r.results.cache.l1_misses);
    let miss_latency: f64 = runs
        .iter()
        .map(|r| r.results.avg_miss_latency * r.results.cache.l1_misses as f64)
        .sum();
    let execute_s = secs("campaign.execute");
    m.set("workloads.trace_gen_s", secs("workloads.generate"));
    m.set("sim.build_s", secs("sim.new"));
    m.set("sim.run_s", run_s);
    m.set("sim.ns_per_step", run_s * 1e9 / steps.max(1) as f64);
    m.set("sim.cycles", cycles as f64);
    m.set("sim.steps", steps as f64);
    m.set("sim.stepped_share", steps as f64 / cycles.max(1) as f64);
    m.set(
        "sim.skipped_while_busy",
        sum(&|r| r.skipped_while_busy) as f64,
    );
    m.set("sim.ns_per_flit_hop", run_s * 1e9 / hops.max(1) as f64);
    m.set("noc.delivered", delivered as f64);
    m.set("noc.link_flit_hops", hops as f64);
    m.set(
        "noc.buffer_writes",
        sum(&|r| r.results.network.fabric.buffer_writes) as f64,
    );
    m.set(
        "noc.premature_stops",
        sum(&|r| r.results.network.fabric.premature_stops) as f64,
    );
    m.set(
        "noc.avg_latency_cycles",
        sum(&|r| r.results.network.total_latency) as f64 / delivered.max(1) as f64,
    );
    m.set(
        "cache.l1_accesses",
        sum(&|r| r.results.cache.l1_accesses) as f64,
    );
    m.set("cache.l1_misses", l1_misses as f64);
    m.set(
        "cache.l2_misses",
        sum(&|r| r.results.cache.l2_misses) as f64,
    );
    m.set(
        "cache.dir_lookups",
        sum(&|r| r.results.cache.dir_lookups) as f64,
    );
    m.set(
        "cache.broadcasts",
        sum(&|r| r.results.cache.broadcasts) as f64,
    );
    m.set(
        "cache.offchip_fetches",
        sum(&|r| r.results.cache.offchip_fetches) as f64,
    );
    m.set(
        "cache.avg_miss_latency_cycles",
        miss_latency / l1_misses.max(1) as f64,
    );
    m.set("energy.total_fj", sum(&|r| r.energy_fj) as f64);
    m.set("energy.fold_s", secs("energy.breakdown"));
    m.set("campaign.plan_s", secs("campaign.plan"));
    m.set("campaign.execute_s", execute_s);
    m.set("campaign.assemble_s", secs("campaign.assemble"));
    m.set(
        "campaign.worker_busy_share",
        secs("campaign.scenario") / (workers as f64 * execute_s).max(f64::MIN_POSITIVE),
    );
    m
}

/// Repetition number of the named-scenario spans.
const NAMED_REP: u32 = u32::MAX;

fn run_traced(
    spec: &CampaignSpec,
    campaigns: &[ExperimentParams],
    all: &[Job],
    executor: &Executor,
    cfg: &RunConfig,
    mut outcome: Outcome,
) -> Outcome {
    let n = all.len();
    let (campaign_idx, named_idx) = (n, n + 1);
    let mut tracer = Tracer::new(true);
    tracer.labels = all.iter().map(Job::label).collect();
    tracer.labels.push("campaign".into());
    tracer.labels.push(format!(
        "named seed {} {}",
        campaigns[0].seed,
        spec.named.label()
    ));

    // The untraced reference every traced result must equal.
    let reference = check(
        all,
        &execute_untraced(spec, campaigns, executor),
        None,
        &mut outcome,
    );
    outcome.digest = fold(&reference);

    let workers = executor.threads();
    let mut reps: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let rep = reps.len() as u32;
        let mut t = tracer.child(rep);
        let planned = t.span("campaign.plan", campaign_idx, || plans(spec, campaigns));
        let jobs = jobs(&planned);
        let begin = Instant::now();
        let (runs, children) = traced_execute(&jobs, workers, &t, rep);
        t.record("campaign.execute", campaign_idx, begin, Instant::now());
        for c in children {
            t.absorb(c);
        }
        let mut offset = 0;
        for (p, plan) in &planned {
            let mut set = ResultSet::new();
            for (&s, r) in plan.scenarios().iter().zip(&runs[offset..]) {
                set.insert(s, Arc::clone(&r.results));
            }
            offset += plan.len();
            black_box(t.span("campaign.assemble", campaign_idx, || {
                spec.figure.assemble(p, &set)
            }));
        }
        let results: Vec<Arc<SimResults>> = runs.iter().map(|r| Arc::clone(&r.results)).collect();
        check(&jobs, &results, Some(&reference), &mut outcome);
        reps.push(rep_metrics(&runs, &t, rep, workers));
        tracer.absorb(t);
    }
    let mut metrics = Metrics::median_of(&reps);

    // The named scenario: `run`, `run_naive`, then a `step()` loop with
    // every step timed. All three must equal the plan's reference result.
    let named = Job {
        params: campaigns[0],
        scenario: spec.named,
    };
    let max_cycles = named.params.max_cycles;
    let reference_named = all
        .iter()
        .position(|j| j.params.seed == named.params.seed && j.scenario == named.scenario)
        .map(|i| reference[i]);
    let mut t = tracer.child(NAMED_REP);
    let mut sys = build(&named, named_idx, &mut t);
    let by_run = t.span("sim.run", named_idx, || sys.run(max_cycles));
    let mut sys = build(&named, named_idx, &mut t);
    let by_naive = t.span("sim.run_naive", named_idx, || sys.run_naive(max_cycles));
    let mut sys = build(&named, named_idx, &mut t);
    let mut step_ns: Vec<u64> = Vec::new();
    let begin = Instant::now();
    while !sys.all_finished() && sys.cycle() < max_cycles {
        let s = Instant::now();
        sys.step();
        step_ns.push(u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    t.record("sim.step_loop", named_idx, begin, Instant::now());
    t.total(
        "sim.step",
        named_idx,
        step_ns.len() as u64,
        Duration::from_nanos(step_ns.iter().sum()),
    );
    let by_step = sys.results();
    outcome.attempted += 1;
    let run_digest = result_digest(&by_run);
    if reference_named != Some(run_digest)
        || result_digest(&by_naive) != run_digest
        || result_digest(&by_step) != run_digest
    {
        outcome.fail(
            1,
            format!(
                "{}: run, run_naive, the step loop and the plan's result differ",
                named.label()
            ),
        );
    }
    metrics.set("sim.step_ns_p50", percentile(&mut step_ns, 50.0));
    metrics.set("sim.step_ns_p99", percentile(&mut step_ns, 99.0));
    metrics.set(
        "trace.overhead_share",
        t.seconds("sim.step_loop", NAMED_REP)
            / t.seconds("sim.run_naive", NAMED_REP).max(f64::MIN_POSITIVE)
            - 1.0,
    );
    tracer.absorb(t);
    outcome.metrics = metrics;
    outcome.tracer = tracer;
    outcome
}
