//! `soc_ingest`: bytes on disk to a timed design, at SoC scale.
//!
//! In-process, `ASICGAP_THREADS=T`. Set-up exports `xlarge` (about
//! 121.6 k cells, 27.6 MB of Yosys JSON) for a small pool of seeds. One
//! operation is what a designer ingesting a real netlist pays for:
//! `frontend::load_design`, then the staged flow on a fresh `MemStore`
//! (HPWL, typical ASIC), then the same call again on the now-warm
//! store. `frontend`, `netlist`, full `sta` and `core`'s checkpoint
//! encode/parse dominate; `place` is a few percent and `route`/`serve`
//! are idle — the workload for ROADMAP 3a/3b and the checkpoint tax.

use std::time::{Duration, Instant};

use asicgap::cells::Library;
use asicgap::frontend::{self, DesignFormat, LowerOptions};
use asicgap::netlist::generators::{xlarge, XlargeSpec};
use asicgap::netlist::yosys_json::to_yosys_json;
use asicgap::netlist::Netlist;
use asicgap::sta::IncrementalStats;
use asicgap::{
    content_hash, run_scenario_staged_observed, run_scenario_verified, DesignScenario,
    FlowObserver, MemStore, PlaceArtifact, ScenarioOutcome, StageReuse, VerifyLevel,
};

use crate::children::peak_rss_mb;
use crate::gen::soc_seeds;
use crate::probes::{self, Layer};
use crate::run::{check_outcome_text, no_panic, setup_median, Measured, RunConfig, Tally, Window};
use crate::trace::{median_ms, OpTrace, Tracer};
use crate::workloads::{stage_walls, Counts};

/// One exported design of the pool.
struct Design {
    spec: XlargeSpec,
    json: String,
    cells: usize,
    /// `file/yosys-json/<content hash>` — what anchors the synth key.
    canonical: String,
}

struct Setup {
    scenario: DesignScenario,
    lib: Library,
    pool: Vec<Design>,
}

fn export(lib: &Library, spec: XlargeSpec) -> Result<Design, String> {
    let netlist = xlarge(lib, &spec).map_err(|e| format!("xlarge generator: {e}"))?;
    let json = to_yosys_json(&netlist, lib);
    Ok(Design {
        spec,
        cells: netlist.instance_count(),
        canonical: format!(
            "file/{}/{:016x}",
            DesignFormat::YosysJson.canonical(),
            content_hash(&json)
        ),
        json,
    })
}

/// Staged flow on `netlist` against `store`, optionally traced.
fn staged(
    setup: &Setup,
    design: &Design,
    netlist: Netlist,
    store: &MemStore,
    obs: &dyn FlowObserver,
) -> Result<(ScenarioOutcome, StageReuse), String> {
    run_scenario_staged_observed(
        &setup.scenario,
        &design.canonical,
        move |_| Ok(netlist),
        VerifyLevel::Off,
        store,
        obs,
    )
    .map_err(|e| format!("staged flow: {e}"))
}

/// One operation: load, staged cold, staged resumed. Returns the
/// outcome text (cold and resumed are checked byte-identical).
fn ingest(setup: &Setup, design: &Design, trace: OpTrace) -> Result<String, String> {
    let format = DesignFormat::YosysJson;
    let netlist = if trace.is_traced() {
        // `load_design` is exactly parse + lower; traced, the harness
        // makes the two calls itself so each gets a span.
        trace
            .call("frontend.parse", || {
                frontend::parse_design(format, &design.json)
            })
            .and_then(|parsed| {
                trace.call("frontend.lower", || {
                    frontend::lower(&parsed, &setup.lib, &LowerOptions::default())
                })
            })
    } else {
        frontend::load_design(format, &design.json, &setup.lib)
    }
    .map_err(|e| format!("frontend: {e}"))?;
    if netlist.instance_count() != design.cells {
        return Err(format!(
            "loaded {} instances, generator made {}",
            netlist.instance_count(),
            design.cells
        ));
    }
    let store = MemStore::new();
    let pass = |name: &'static str, netlist: Netlist| {
        trace.flow(name, |obs| staged(setup, design, netlist, &store, obs))
    };
    let (cold, cold_reuse) = pass("core.staged_cold", netlist.clone())?;
    let (warm, warm_reuse) = pass("core.staged_resumed", netlist)?;
    trace.end();
    if cold_reuse.hits() != 0 {
        return Err(format!(
            "fresh store served {} checkpoints",
            cold_reuse.hits()
        ));
    }
    if warm_reuse.hits() != warm_reuse.lookups() {
        return Err(format!(
            "warm store resumed only {}/{} checkpoints",
            warm_reuse.hits(),
            warm_reuse.lookups()
        ));
    }
    let text = cold.canonical_text();
    if warm.canonical_text() != text {
        return Err("resumed outcome differs from staged-cold outcome".to_string());
    }
    check_outcome_text(&text)?;
    Ok(text)
}

pub fn run(cfg: &RunConfig) -> Result<Measured, String> {
    let (setup, setup_s) = setup_median(|| {
        let scenario = DesignScenario::typical_asic();
        let lib = scenario.library.build(&scenario.technology);
        let pool = soc_seeds(cfg.seed)
            .into_iter()
            .map(|seed| export(&lib, XlargeSpec::soc(seed)))
            .collect::<Result<Vec<_>, _>>()?;
        let setup = Setup {
            scenario,
            lib,
            pool,
        };
        // Warm-up on the 2k-gate block: same code paths, none of the
        // run time. Also where monolithic == staged == resumed is first
        // checked; the full-size check follows the window.
        let small = export(&setup.lib, XlargeSpec::small(cfg.seed))?;
        let staged_text = ingest(&setup, &small, OpTrace::begin(None, 0, "warm-up"))?;
        if monolithic(&setup, &small)? != staged_text {
            return Err("monolithic and staged outcomes differ on xlarge/small".to_string());
        }
        Ok(setup)
    })?;

    let tracer = cfg.trace.then(Tracer::new);
    let window = Window::open(cfg);
    let mut tally = Tally::new(cfg.workload.digest_replies());
    let mut counts = Counts::default();
    let mut first_text = None;
    while window.running() {
        let id = tally.attempted;
        let design = &setup.pool[id as usize % setup.pool.len()];
        let started = Instant::now();
        let trace = OpTrace::begin(tracer.as_ref(), id, "soc_ingest.op");
        let result = no_panic(|| ingest(&setup, design, trace));
        tally.book(started, result.as_ref().map(|_| ()).map_err(Clone::clone));
        if let Ok(text) = result {
            tally.digest.push(&text);
            if (id as usize) < cfg.workload.digest_replies() {
                counts.add_outcome(&check_outcome_text(&text).expect("checked in ingest"));
            }
            first_text.get_or_insert(text);
        }
    }
    let elapsed_s = window.elapsed_s();

    // Full-size identity, once per run: the flow `repro` uses must give
    // the bytes the staged flow gave for the same design.
    if let Some(staged_text) = &first_text {
        if monolithic(&setup, &setup.pool[0])? != *staged_text {
            tally.problem("monolithic and staged outcomes differ on xlarge".to_string());
        }
    }

    let spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    let mut layer = Layer::new();
    if cfg.trace {
        let ops = tally.attempted as usize;
        stage_walls(
            &mut layer,
            &spans,
            &["core.staged_cold", "core.staged_resumed"],
            ops,
        );
        counts.report(&mut layer);
        let design = &setup.pool[0];
        let (mb, cells) = (design.json.len() as f64 / 1e6, design.cells as f64);
        let parse_s = median_ms(&spans, "frontend.parse") / 1e3;
        let lower_s = median_ms(&spans, "frontend.lower") / 1e3;
        if parse_s > 0.0 && lower_s > 0.0 {
            layer.insert("frontend.parse_mb_per_s", mb / parse_s);
            layer.insert("frontend.lower_cells_per_s", cells / lower_s);
            layer.insert("frontend.load_cells_per_s", cells / (parse_s + lower_s));
        }
        let budget = Duration::from_secs_f64(cfg.seconds / 2.0 / 12.0);
        direct_probes(&mut layer, budget, &setup, &spans, cfg.seed)?;
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

/// The monolithic flow on a freshly loaded copy of `design`.
fn monolithic(setup: &Setup, design: &Design) -> Result<String, String> {
    let netlist = frontend::load_design(DesignFormat::YosysJson, &design.json, &setup.lib)
        .map_err(|e| format!("frontend: {e}"))?;
    run_scenario_verified(&setup.scenario, move |_| Ok(netlist), VerifyLevel::Off)
        .map(|o| o.canonical_text())
        .map_err(|e| format!("monolithic flow: {e}"))
}

fn direct_probes(
    layer: &mut Layer,
    budget: Duration,
    setup: &Setup,
    spans: &[crate::trace::Span],
    seed: u64,
) -> Result<(), String> {
    let design = &setup.pool[0];
    let lib = &setup.lib;
    let cells = design.cells as f64;

    let gen_s = probes::time(budget, 5, || xlarge(lib, &design.spec));
    layer.insert("netlist.generate_cells_per_s", cells / gen_s);
    let netlist = xlarge(lib, &design.spec).map_err(|e| format!("xlarge generator: {e}"))?;
    let export_s = probes::time(budget, 5, || to_yosys_json(&netlist, lib));
    layer.insert(
        "netlist.export_mb_per_s",
        design.json.len() as f64 / 1e6 / export_s,
    );
    probes::content_hash_rate(layer, budget, &design.json);

    // The checkpoint tax: what staging costs over the monolithic flow,
    // and what a fully resumed run still costs.
    let mono_s = probes::time_with(
        budget,
        5,
        || netlist.clone(),
        |n| run_scenario_verified(&setup.scenario, move |_| Ok(n), VerifyLevel::Off),
    );
    let cold_ms = median_ms(spans, "core.staged_cold");
    let resumed_ms = median_ms(spans, "core.staged_resumed");
    if cold_ms > 0.0 {
        layer.insert("core.checkpoint_tax_ratio", cold_ms / (mono_s * 1e3));
        layer.insert("core.resume_ratio", resumed_ms / cold_ms);
    }

    let fp = probes::timing_and_place(layer, budget, &netlist, lib, seed);

    // The largest checkpoint of the chain: netlist + placement.
    let artifact = PlaceArtifact {
        netlist,
        placement: fp.placement,
        stats: IncrementalStats::default(),
    };
    let text = artifact.encode(lib);
    let mb = text.len() as f64 / 1e6;
    let encode_s = probes::time(budget, 5, || artifact.encode(lib));
    layer.insert("core.artifact_encode_mb_per_s", mb / encode_s);
    let parse_s = probes::time(budget, 5, || PlaceArtifact::parse(&text, lib));
    layer.insert("core.artifact_parse_mb_per_s", mb / parse_s);
    Ok(())
}
