//! `flow_cold`: an endless in-process stream of distinct small flows.
//!
//! One driver thread, `ASICGAP_THREADS=T`. No key ever repeats, so
//! nothing can be cached: `place`, `route`, `sizing`, `autopilot` and
//! incremental `sta` do all the work, while `serve`, `cluster` and
//! `frontend` do none. An anneal or PathFinder optimisation must show
//! here and nowhere else.

use std::time::{Duration, Instant};

use asicgap::equiv::check_equiv;
use asicgap::pipeline::pipeline_netlist;
use asicgap::process::{ChipPopulation, VariationComponents};
use asicgap::route::{route, RouterOptions};
use asicgap::sizing::{tilos_size, TilosOptions};
use asicgap::synth::PassPipeline;
use asicgap::{
    exec::Pool, run_scenario_observed, ClosureOutcome, ClosureTarget, GapError, ScenarioOutcome,
    VerifyLevel, WorkloadSpec,
};
use asicgap_serve::proto::{Request, RunRequest, ScenarioPreset};

use crate::children::peak_rss_mb;
use crate::gen::{FlowKind, FlowOp, FlowStream, DEADLINE_MS};
use crate::probes::{self, Layer};
use crate::run::{no_panic, setup_median, Measured, RunConfig, Tally, Window};
use crate::stats;
use crate::trace::{OpTrace, Tracer};
use crate::workloads::{stage_walls, Counts};

/// Operations run (from a stream of their own) before the window opens:
/// one block, so every cell of the mix has run once.
const WARM_UP_OPS: usize = 48;

/// How far above its own open-loop fmax a `Close` operation aims.
pub const CLOSE_STRETCH: f64 = 1.05;

/// What one operation produced.
pub struct Done {
    pub outcome: ScenarioOutcome,
    pub closure: Option<ClosureOutcome>,
}

impl Done {
    /// The reply a client would see: outcome text, then closure text.
    pub fn text(&self) -> String {
        let mut text = self.outcome.canonical_text();
        if let Some(c) = &self.closure {
            text.push_str(&c.canonical_text());
        }
        text
    }
}

/// Executes one operation: the monolithic library path `repro` uses
/// (`run_scenario_verified` is exactly `run_scenario_observed` with the
/// no-op observer `trace` passes when the run is untraced).
pub fn execute(op: &FlowOp, trace: OpTrace) -> Result<Done, GapError> {
    let scenario = op.req.scenario();
    let build = |lib: &asicgap::cells::Library| op.req.workload.build(lib);
    let outcome = trace.flow("core.run_scenario", |obs| {
        run_scenario_observed(&scenario, build, op.req.verify, obs)
    })?;
    let closure = match op.kind {
        FlowKind::Run => None,
        FlowKind::Close => {
            let target = ClosureTarget::at(outcome.min_period.frequency().value() * CLOSE_STRETCH);
            Some(trace.call("core.close_timing", || {
                scenario.close_timing(build, VerifyLevel::Off, &target)
            })?)
        }
    };
    Ok(Done { outcome, closure })
}

/// Strict checks on what an operation returned: both texts re-parse to
/// what produced them.
fn check(done: &Done) -> Result<(), String> {
    let parsed = crate::run::check_outcome_text(&done.outcome.canonical_text())?;
    if parsed != done.outcome {
        return Err("outcome does not survive its canonical text".to_string());
    }
    if let Some(c) = &done.closure {
        let trace = crate::run::check_closure_text(&c.canonical_text())?;
        if trace.moves() != c.moves() || trace.verdict != c.trace.verdict {
            return Err("closure trace does not survive its canonical text".to_string());
        }
    }
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<Measured, String> {
    let (mut stream, setup_s) = setup_median(|| {
        for op in FlowStream::new(!cfg.seed).take(WARM_UP_OPS) {
            execute(&op, OpTrace::begin(None, 0, "warm-up"))
                .map_err(|e| format!("warm-up operation failed: {e}"))?;
        }
        Ok(FlowStream::new(cfg.seed))
    })?;

    let tracer = cfg.trace.then(Tracer::new);
    let window = Window::open(cfg);
    let mut tally = Tally::new(cfg.workload.digest_replies());
    let mut counts = Counts::default();
    let (mut run_ms, mut close_ms) = (Vec::new(), Vec::new());
    let mut first: Option<(RunRequest, String)> = None;
    while window.running() {
        let op = stream.next().expect("the stream is endless");
        let started = Instant::now();
        let id = tally.attempted;
        let trace = OpTrace::begin(tracer.as_ref(), id, "flow_cold.op");
        let result = no_panic(|| {
            let done = execute(&op, trace).map_err(|e| e.to_string())?;
            trace.end();
            check(&done).map(|()| done)
        })
        .map_err(|e| {
            format!(
                "{:?} {}: {e}",
                op.kind,
                Request::Run(op.req.clone()).encode()
            )
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        tally.book(started, result.as_ref().map(|_| ()).map_err(Clone::clone));
        if let Ok(done) = result {
            tally.digest.push(&done.text());
            if (id as usize) < cfg.workload.digest_replies() {
                counts.add_outcome(&done.outcome);
                if let Some(c) = &done.closure {
                    counts.add_closure(c.moves(), c.proofs(), c.closed());
                }
            }
            match op.kind {
                FlowKind::Run => run_ms.push(ms),
                FlowKind::Close => close_ms.push(ms),
            }
            if first.is_none() && op.kind == FlowKind::Run {
                first = Some((op.req.clone(), done.outcome.canonical_text()));
            }
        }
    }
    let elapsed_s = window.elapsed_s();

    let spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    let mut layer = Layer::new();
    if cfg.trace {
        stage_walls(
            &mut layer,
            &spans,
            &["core.run_scenario"],
            tally.attempted as usize,
        );
        layer.insert("flow.run_p50_ms", stats::median(&stats::sorted(run_ms)));
        layer.insert("flow.close_p50_ms", stats::median(&stats::sorted(close_ms)));
        counts.report(&mut layer);
        let budget = Duration::from_secs_f64(cfg.seconds / 2.0 / 16.0);
        engine_probes(&mut layer, budget, cfg.seed);
        if let Some((req, text)) = &first {
            probes::core_codecs(&mut layer, budget, req, text);
            probes::content_hash_rate(&mut layer, budget, &req.canonical_key());
        }
    }
    Ok(Measured {
        tally,
        elapsed_s,
        setup_s,
        peak_rss_mb: peak_rss_mb("/proc/self/status"),
        layer,
        spans,
    })
}

/// Direct timed calls into the engines, under the custom methodology,
/// on the widest multiplier the stream deals, pipelined five deep as the
/// custom flow pipelines it before sizing and layout (the heaviest cell
/// of the mix, and the design ISSUE 11 sized TILOS on). Rewriting and the miter
/// run on the widest Kogge-Stone adder instead: rewriting restructures
/// it, so the proof is real SAT work (40 cones), and it ends — the same
/// proof on a rewritten multiplier takes minutes (README, "Excluded on
/// purpose").
fn engine_probes(layer: &mut Layer, budget: Duration, seed: u64) {
    let req = RunRequest {
        preset: ScenarioPreset::Custom,
        wire_model: asicgap::WireModel::Routed,
        verify: VerifyLevel::Off,
        seed,
        workload: WorkloadSpec::ArrayMultiplier { width: 16 },
        deadline_ms: DEADLINE_MS,
    };
    let scenario = req.scenario();
    let lib = scenario.library.build(&scenario.technology);
    let build = || req.workload.build(&lib).expect("mult/16 builds");
    let flat = build();
    let gen_s = probes::time(budget, 20, build);
    layer.insert(
        "netlist.generate_cells_per_s",
        flat.instance_count() as f64 / gen_s,
    );
    let netlist = pipeline_netlist(&flat, &lib, scenario.pipeline_stages)
        .expect("mult/16 pipelines")
        .netlist;

    let adder = WorkloadSpec::KoggeStoneAdder { width: 40 }
        .build(&lib)
        .expect("ks/40 builds");
    let rewrite = |mut n: asicgap::netlist::Netlist| {
        PassPipeline::depth_recovery()
            .run(&mut n, &lib)
            .expect("rewrite runs");
        n
    };
    let rewrite_s = probes::time_with(budget, 9, || adder.clone(), rewrite);
    layer.insert("synth.rewrite_ms", rewrite_s * 1e3);
    let rewritten = rewrite(adder.clone());
    let equiv_s = probes::time(budget, 9, || {
        check_equiv(&adder, &lib, &rewritten, &lib).expect("checker runs")
    });
    layer.insert("equiv.check_ms", equiv_s * 1e3);

    let tilos_s = probes::time(budget, 9, || {
        tilos_size(&netlist, &lib, &TilosOptions::default())
    });
    layer.insert("sizing.tilos_ms", tilos_s * 1e3);

    let fp = probes::timing_and_place(layer, budget, &netlist, &lib, seed);

    let options = RouterOptions::seeded(seed);
    let route_s = probes::time(budget, 9, || route(&netlist, &fp.placement, &options));
    layer.insert("route.route_ms", route_s * 1e3);
    layer.insert("route.nets_per_s", netlist.net_count() as f64 / route_s);

    let variation_s = probes::time(budget, 9, || {
        ChipPopulation::sample(&VariationComponents::new_process(), 20_000, seed)
    });
    layer.insert("process.variation_ms", variation_s * 1e3);

    // What the pool costs when the work itself is free.
    let items = [0u32; 64];
    let pool = Pool::from_env();
    let map_s = probes::time_batched(budget, 16, |_| pool.map(&items, |_, x| *x));
    layer.insert("exec.map_overhead_us", map_s * 1e6);
}
