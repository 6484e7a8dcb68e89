//! The scenario flow, written once, with optional stage checkpoints.
//!
//! The paper's argument is one fixed sequence — §4 logic depth and
//! pipelining, §6 sizing, §5 floorplan and wires, §7 domino, §8 process
//! access — and this module is the only place it is spelled out. Each
//! stage is one method on [`Flow`]; the two drivers, [`run_flow`]
//! (`RUN`: one pass, one [`ScenarioOutcome`]) and [`close_flow`]
//! (`CLOSE`: the same prep, then the autopilot fix loop), string them
//! together. Every public entry point — `run_scenario*`,
//! `close_timing*`, `run_scenario_staged*`, `close_timing_staged*` — is
//! a thin wrapper over one of the two.
//!
//! Checkpointing is wrapped around the stages, not written into them.
//! A caller that brings an [`ArtifactStore`] gets each of four stage
//! boundaries looked up before it is computed and written back after;
//! a caller that brings none runs the same stage bodies and pays
//! nothing for the machinery — no key is built, no artifact encoded,
//! nothing hashed, no netlist cloned ([`Checkpoints::stage`] is the one
//! place that looks at whether a store is present). The serving tier
//! wants the checkpoints: a request that differs from a cached one only
//! in its wire model reuses the synthesized, pipelined, sized, and
//! placed design and recomputes only the routing tail.
//!
//! | checkpoint | artifact | key: upstream key plus |
//! |---|---|---|
//! | `synth`    | rewritten netlist + proof effort | workload, technology, library, rewrite, verify |
//! | `pipeline` | registered netlist (the final-check golden) + registers | `pipeline_stages` |
//! | `place`    | sized netlist + placement + timer checkpoint + registers | sizing, floorplan, seed |
//! | `route`    | final netlist + report numbers + timer delta + registers + the place timer checkpoint | wire model |
//!
//! Keys chain on upstream **keys**, not on upstream artifact content, so
//! every key is a function of the request alone — known before any store
//! traffic — and artifacts are self-sufficient to resume from: each
//! carries the few scalars the closing arithmetic takes from the stages
//! above it. The stages are nested accordingly, deepest first: `route`
//! is looked up, and only its miss looks up `place`, whose miss looks up
//! `pipeline`, then `synth`. A run resumes from the deepest artifact it
//! finds with one `get` and one decode; nothing upstream of a hit is
//! fetched, no artifact text is ever hashed, and each text is dropped as
//! soon as it is `put`. [`StageReuse`] reports every stage at or upstream
//! of the deepest hit as reused.
//!
//! A netlist does not depend on how hard it was checked, a proof does:
//! the `synth` and `pipeline` keys name the verify level, while `place`
//! chains on the *unverified* spelling of the pipeline key. So a netlist
//! written by an unverified run can stand in for a netlist, never for a
//! proof: a `Sim`/`Full` run fetches or recomputes the golden side under
//! its own level, with every check that implies, before it looks at
//! `route`, and the final check always runs. What this scheme gives up
//! against content chaining: two *different* knob paths that happen to
//! converge on byte-identical artifacts no longer share downstream work.
//! The remaining knobs (skew, logic style, process access, the display
//! name) act only on the final arithmetic and are deliberately *not* in
//! any stage key.
//!
//! Byte-identity is part of the contract, timer counters included:
//! storeless ≡ stored-cold ≡ resumed (`tests/staged.rs`). The one
//! subtlety is [`ScenarioOutcome::timing_effort`]: the flow's shared
//! timer accrues across the place/route boundary, so the place stage
//! records the counter checkpoint and the route stage records the
//! *delta* it added, and every run — resumed or not — reports
//! `checkpoint + delta`. The delta is state-independent because the
//! route stage's first graph operation
//! ([`TimingGraph::set_parasitics`]) runs a full propagation that
//! discards any pending invalidations without flushing them — a fresh
//! graph over the same sized netlist does byte-identical work from
//! there on.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use asicgap_autopilot::{close_on, ClosureTarget, RouteContext};
use asicgap_cells::{Library, LogicFamily};
use asicgap_equiv::{
    check_equiv, random_sim_equiv, random_vector, EquivEffort, EquivReport, EquivResult,
    VerifyLevel,
};
use asicgap_netlist::{canon, Netlist, Simulator};
use asicgap_pipeline::{pipeline_netlist_with, verify_pipeline};
use asicgap_place::{annotate, AnnealOptions, Floorplan, FloorplanStrategy, Placement};
use asicgap_process::{BinningPolicy, ChipPopulation, VariationComponents};
use asicgap_route::{annotate_routed, route, RouteSummary, RouterOptions, RoutingResult};
use asicgap_sizing::{snap_to_library, tilos_size, TilosOptions};
use asicgap_sta::{analyze, ClockSpec, IncrementalStats, TimingGraph};
use asicgap_synth::{select_drives_with, PassPipeline, SynthError};
use asicgap_tech::text::Lines;
use asicgap_tech::{Mhz, Ps};

use crate::canon::{
    bad, parse_effort, parse_placement, parse_route, parse_stats, write_effort, write_placement,
    write_route, write_stats,
};
use crate::close::{fold_period, map_autopilot_err, unfold_period, ClosureOutcome};
use crate::error::GapError;
use crate::flow::{
    abort_if_cancelled, content_hash, DesignScenario, FloorplanQuality, FlowObserver, FlowStage,
    LogicStyle, NoObserver, ProcessAccess, ScenarioOutcome, SizingQuality, WireModel, WorkloadSpec,
};

/// A store of stage artifacts under their stage keys: a checkpointed
/// flow's only dependency on the outside world. `asicgap-serve` backs it with
/// a persistent segment store; tests use [`MemStore`].
///
/// Keys are full canonical key texts; implementations index by
/// [`content_hash`] but must keep the full key as a collision guard, so
/// a hash collision degrades to a miss, never a wrong artifact.
pub trait ArtifactStore: Send + Sync {
    /// The value stored under `key`, if present and its stored full key
    /// matches byte-for-byte.
    fn get(&self, key: &str) -> Option<String>;

    /// Stores `value` under `key`. A store is a cache, not a database:
    /// implementations may drop writes (budget, I/O failure) —
    /// correctness never depends on a put landing.
    fn put(&self, key: &str, value: &str);
}

/// An in-memory [`ArtifactStore`]: a hash map with the collision guard,
/// no eviction. The unit-test / single-process tier; the serving tier
/// layers its LRU and persistent segment store behind the same trait.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<HashMap<u64, (String, String)>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Number of artifacts held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store lock").len()
    }

    /// `true` when no artifact is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ArtifactStore for MemStore {
    fn get(&self, key: &str) -> Option<String> {
        let map = self.map.lock().expect("store lock");
        map.get(&content_hash(key))
            .and_then(|(k, v)| (k == key).then(|| v.clone()))
    }

    fn put(&self, key: &str, value: &str) {
        self.map
            .lock()
            .expect("store lock")
            .insert(content_hash(key), (key.to_string(), value.to_string()));
    }
}

/// Which checkpoints of a staged run were served from the store. A run
/// resumes from the deepest artifact it finds and never looks at the
/// ones above it, so every stage at or upstream of the deepest hit
/// reports `Some(true)`. `None` means the checkpoint is not part of the
/// run (`pipeline` for an unpipelined scenario, `route` for a closure
/// run, which stops reusing at the place checkpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageReuse {
    /// The `synth` checkpoint (workload + rewrite passes).
    pub synth: Option<bool>,
    /// The `pipeline` checkpoint (register insertion).
    pub pipeline: Option<bool>,
    /// The `place` checkpoint (sizing + floorplan).
    pub place: Option<bool>,
    /// The `route` checkpoint (wires + post-layout resize + report).
    pub route: Option<bool>,
}

impl StageReuse {
    /// Checkpoint labels paired with their consult/hit state, in flow
    /// order — what the serving tier's per-stage cache counters iterate.
    pub fn entries(&self) -> [(&'static str, Option<bool>); 4] {
        [
            ("synth", self.synth),
            ("pipeline", self.pipeline),
            ("place", self.place),
            ("route", self.route),
        ]
    }

    /// Checkpoints served from the store.
    pub fn hits(&self) -> usize {
        self.entries()
            .iter()
            .filter(|(_, s)| *s == Some(true))
            .count()
    }

    /// Checkpoints consulted (hit or miss).
    pub fn lookups(&self) -> usize {
        self.entries().iter().filter(|(_, s)| s.is_some()).count()
    }

    /// Marks as reused every stage upstream of the deepest hit that the
    /// run therefore never looked at.
    fn settle(&mut self, pipelined: bool) {
        let mut resumed = false;
        for (stage, in_run) in [
            (&mut self.route, true),
            (&mut self.place, true),
            (&mut self.pipeline, pipelined),
            (&mut self.synth, true),
        ] {
            if stage.is_none() && resumed && in_run {
                *stage = Some(true);
            }
            resumed |= *stage == Some(true);
        }
    }
}

/// Reads what follows an artifact's head fields: the `netlist` marker,
/// the embedded `netlist/v1` text (which self-terminates), and the
/// artifact's own closing `end`.
fn netlist_tail(mut lines: Lines<'_>, lib: &Library, what: &str) -> Result<Netlist, GapError> {
    lines.expect("netlist")?;
    let net =
        (lines.rest().strip_suffix("end\n")).ok_or_else(|| bad(format!("{what}: missing end")))?;
    canon::decode(net, lib).map_err(|e| bad(format!("{what} netlist: {e}")))
}

/// Finishes an artifact text: `head` (header and fields), the embedded
/// netlist written in place, the closing `end`.
fn with_netlist(head: impl Into<Vec<u8>>, netlist: &Netlist, lib: &Library) -> String {
    let mut w = head.into();
    w.extend_from_slice(b"netlist\n");
    canon::encode_into(netlist, lib, &mut w);
    w.extend_from_slice(b"end\n");
    String::from_utf8(w).expect("fields are ASCII and netlist text is UTF-8")
}

/// The `synth` checkpoint: the workload netlist after the scenario's
/// depth-recovery passes, with the merged pass-proof effort (under
/// [`VerifyLevel::Full`]).
#[derive(Debug, Clone)]
pub struct SynthArtifact {
    /// The rewritten (or as-generated) mapped netlist.
    pub netlist: Netlist,
    /// Pass-boundary proof effort so far; `None` unless `Full`.
    pub verify_effort: Option<EquivEffort>,
}

impl SynthArtifact {
    /// Canonical text: `stage-synth/v1`, the effort line, then the
    /// embedded netlist. Byte-stable; [`SynthArtifact::parse`] inverts
    /// it exactly.
    pub fn encode(&self, lib: &Library) -> String {
        let mut s = String::from("stage-synth/v1\n");
        write_effort(&mut s, &self.verify_effort);
        with_netlist(s, &self.netlist, lib)
    }

    /// Parses the canonical text back, strictly.
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] on any structural damage (the staged
    /// executors treat that as a cache miss and recompute).
    pub fn parse(text: &str, lib: &Library) -> Result<SynthArtifact, GapError> {
        let mut lines = Lines::open(text, "stage-synth/v1")?;
        Ok(SynthArtifact {
            verify_effort: parse_effort(&mut lines)?,
            netlist: netlist_tail(lines, lib, "stage-synth")?,
        })
    }
}

/// The `pipeline` checkpoint: the registered netlist — which doubles as
/// the golden side of the flow's final equivalence check — plus the
/// register count and the proof effort merged through the pipeline
/// boundary. For an unpipelined scenario this is the synth netlist
/// passed through unchanged (`registers == 0`).
#[derive(Debug, Clone)]
pub struct PipelineArtifact {
    /// The netlist as it enters sizing/placement (the final-check golden).
    pub netlist: Netlist,
    /// Registers inserted by pipelining.
    pub registers: usize,
    /// Proof effort through the pipeline boundary; `None` unless `Full`.
    pub verify_effort: Option<EquivEffort>,
}

impl PipelineArtifact {
    /// Canonical text (`stage-pipeline/v1`), byte-stable.
    pub fn encode(&self, lib: &Library) -> String {
        let mut s = format!("stage-pipeline/v1\nregisters {}\n", self.registers);
        write_effort(&mut s, &self.verify_effort);
        with_netlist(s, &self.netlist, lib)
    }

    /// Strict inverse of [`PipelineArtifact::encode`].
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] on any structural damage.
    pub fn parse(text: &str, lib: &Library) -> Result<PipelineArtifact, GapError> {
        let mut lines = Lines::open(text, "stage-pipeline/v1")?;
        Ok(PipelineArtifact {
            registers: lines.num("registers")?,
            verify_effort: parse_effort(&mut lines)?,
            netlist: netlist_tail(lines, lib, "stage-pipeline")?,
        })
    }
}

/// The `stage-place/v2` text from borrowed parts, so the place stage can
/// checkpoint the netlist its live timer still owns. `head` is what the
/// caller wants in front of it.
fn encode_place(
    mut head: String,
    netlist: &Netlist,
    placement: &Placement,
    stats: IncrementalStats,
    lib: &Library,
) -> String {
    head.push_str("stage-place/v2\n");
    write_stats(&mut head, "stats", stats);
    let mut w = head.into_bytes();
    write_placement(&mut w, placement);
    with_netlist(w, netlist, lib)
}

/// The `place` checkpoint: the sized netlist, the annealed placement,
/// and the shared timer's counter checkpoint at the boundary — the base
/// the route stage's delta is added onto.
#[derive(Debug, Clone)]
pub struct PlaceArtifact {
    /// The drive-selected / TILOS-snapped netlist.
    pub netlist: Netlist,
    /// The floorplan's placement (drives both extraction and routing).
    pub placement: Placement,
    /// Timer counters at the checkpoint (graph build + sizing).
    pub stats: IncrementalStats,
}

impl PlaceArtifact {
    /// Canonical text (`stage-place/v2`), byte-stable — placement
    /// coordinates travel as the hex digits of their bits, exact for
    /// every `f64`.
    pub fn encode(&self, lib: &Library) -> String {
        encode_place(
            String::new(),
            &self.netlist,
            &self.placement,
            self.stats,
            lib,
        )
    }

    /// Strict inverse of [`PlaceArtifact::encode`].
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] on any structural damage.
    pub fn parse(text: &str, lib: &Library) -> Result<PlaceArtifact, GapError> {
        let mut lines = Lines::open(text, "stage-place/v2")?;
        Ok(PlaceArtifact {
            stats: parse_stats(&mut lines, "stats")?,
            placement: parse_placement(&mut lines)?,
            netlist: netlist_tail(lines, lib, "stage-place")?,
        })
    }
}

/// The `route` checkpoint: the final netlist (post-layout resize
/// applied) and everything the closing arithmetic needs — from the timer
/// the report's minimum period, the stage's counter *delta* and the
/// router summary, from upstream the register count and the place
/// stage's counter checkpoint. A hit here means nothing else is fetched
/// and no timing graph is built at all.
#[derive(Debug, Clone)]
pub struct RouteArtifact {
    /// The final netlist (area/power/gates are measured on this).
    pub netlist: Netlist,
    /// The report's minimum period, pre-skew and pre-domino.
    pub min_period: Ps,
    /// Timer counters this stage added on top of the place checkpoint.
    pub delta: IncrementalStats,
    /// Router numbers under [`WireModel::Routed`]; `None` under HPWL.
    pub route: Option<RouteSummary>,
    /// Registers inserted by pipelining, handed down from that stage.
    pub registers: usize,
    /// Timer counters at the place checkpoint, which `delta` adds onto.
    pub place_stats: IncrementalStats,
}

impl RouteArtifact {
    /// Canonical text (`stage-route/v2`), byte-stable.
    pub fn encode(&self, lib: &Library) -> String {
        let mut s = format!(
            "stage-route/v2\nmin_period_ps {:?}\nregisters {}\n",
            self.min_period.value(),
            self.registers
        );
        write_stats(&mut s, "placed", self.place_stats);
        write_stats(&mut s, "delta", self.delta);
        write_route(&mut s, &self.route);
        with_netlist(s, &self.netlist, lib)
    }

    /// Strict inverse of [`RouteArtifact::encode`].
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] on any structural damage.
    pub fn parse(text: &str, lib: &Library) -> Result<RouteArtifact, GapError> {
        let mut lines = Lines::open(text, "stage-route/v2")?;
        Ok(RouteArtifact {
            min_period: Ps::new(lines.num("min_period_ps")?),
            registers: lines.num("registers")?,
            place_stats: parse_stats(&mut lines, "placed")?,
            delta: parse_stats(&mut lines, "delta")?,
            route: parse_route(&mut lines)?,
            netlist: netlist_tail(lines, lib, "stage-route")?,
        })
    }
}

/// A stage key: the `asicgap-stage/v2 <stage>` header over the upstream
/// key's fields and the knobs the stage itself adds.
fn chain(stage: &str, upstream: &str, knobs: std::fmt::Arguments<'_>) -> String {
    let fields = upstream.split_once('\n').map_or("", |(_, fields)| fields);
    format!("asicgap-stage/v2 {stage}\n{fields}{knobs}")
}

fn synth_key(scenario: &DesignScenario, workload_canonical: &str, verify: VerifyLevel) -> String {
    chain(
        "synth",
        "",
        format_args!(
            "workload {workload_canonical}\ntechnology {:?}\nlibrary {:?}\nrewrite {}\nverify {}\n",
            scenario.technology,
            scenario.library,
            PassPipeline::new(scenario.rewrite.clone()).key(),
            verify.name()
        ),
    )
}

fn pipeline_key(
    scenario: &DesignScenario,
    workload_canonical: &str,
    verify: VerifyLevel,
) -> String {
    chain(
        "pipeline",
        &synth_key(scenario, workload_canonical, verify),
        format_args!("pipeline_stages {}\n", scenario.pipeline_stages),
    )
}

/// Chains on the *unverified* pipeline key: what is placed is a netlist,
/// and a netlist is the same however hard it was checked.
fn place_key(scenario: &DesignScenario, workload_canonical: &str) -> String {
    chain(
        "place",
        &pipeline_key(scenario, workload_canonical, VerifyLevel::Off),
        format_args!(
            "sizing {:?}\nfloorplan {:?}\nseed {}\n",
            scenario.sizing, scenario.floorplan, scenario.seed
        ),
    )
}

fn route_key(scenario: &DesignScenario, workload_canonical: &str) -> String {
    chain(
        "route",
        &place_key(scenario, workload_canonical),
        format_args!("wire_model {:?}\n", scenario.wire_model),
    )
}

/// The one place the flow meets an [`ArtifactStore`]. Presence of a
/// store is the only thing it looks at: with none, a stage is exactly
/// its compute.
pub(crate) struct Checkpoints<'s> {
    /// Where artifacts are kept, if anywhere.
    pub(crate) store: Option<&'s dyn ArtifactStore>,
    /// The workload's [`WorkloadSpec::canonical`] spelling, which
    /// anchors every key; never read without a store.
    pub(crate) workload: &'s str,
}

impl Checkpoints<'_> {
    /// No store: every stage is computed and nothing else happens.
    pub(crate) const NONE: Checkpoints<'static> = Checkpoints {
        store: None,
        workload: "",
    };

    /// One stage boundary: look the stage up under `key()`, else
    /// `compute` it and write it back. `compute` is where the upstream
    /// stages nest, so they are only ever reached on a miss. Returns the
    /// product and whether the store was consulted / hit; artifact texts
    /// live no longer than the `get` or `put` they are for. A stored
    /// text that fails `parse` is a miss.
    fn stage<P>(
        &self,
        lib: &Library,
        key: impl FnOnce(&str) -> String,
        (parse, encode): Codec<P>,
        compute: impl FnOnce() -> Result<P, GapError>,
    ) -> Result<(P, Option<bool>), GapError> {
        let Some(store) = self.store else {
            return Ok((compute()?, None));
        };
        let key = key(self.workload);
        let stored = store.get(&key).and_then(|text| parse(&text, lib).ok());
        if let Some(product) = stored {
            return Ok((product, Some(true)));
        }
        let product = compute()?;
        store.put(&key, &encode(&product, lib));
        Ok((product, Some(false)))
    }
}

/// A stage product's strict text form: `parse` inverts `encode`.
type Codec<P> = (
    fn(&str, &Library) -> Result<P, GapError>,
    fn(&P, &Library) -> String,
);

/// The flow's shared timer between the place and route stages: live
/// when the place stage ran in this process, a sized netlist still to
/// be loaded when it came out of the store (a route hit then never
/// builds a timing graph at all).
// One per flow run and moved once: boxing the graph would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Timer<'l> {
    Warm(TimingGraph<'l>),
    Cold(Netlist),
}

impl<'l> Timer<'l> {
    fn netlist(&self) -> &Netlist {
        match self {
            Timer::Warm(graph) => graph.netlist(),
            Timer::Cold(netlist) => netlist,
        }
    }

    fn into_graph(self, lib: &'l Library) -> TimingGraph<'l> {
        match self {
            Timer::Warm(graph) => graph,
            Timer::Cold(netlist) => {
                TimingGraph::new(netlist, lib, ClockSpec::unconstrained(), None)
            }
        }
    }
}

/// What the place stage hands downstream — a [`PlaceArtifact`] whose
/// netlist may still be inside the live timer, and the register count
/// from the pipeline stage above it. Its text is a `registers` line in
/// front of the artifact's.
struct Placed<'l> {
    timer: Timer<'l>,
    placement: Placement,
    stats: IncrementalStats,
    registers: usize,
}

impl Placed<'_> {
    fn parse<'l>(text: &str, lib: &Library) -> Result<Placed<'l>, GapError> {
        let mut lines = Lines::new(text);
        let registers = lines.num("registers")?;
        let art = PlaceArtifact::parse(lines.rest(), lib)?;
        Ok(Placed {
            timer: Timer::Cold(art.netlist),
            placement: art.placement,
            stats: art.stats,
            registers,
        })
    }

    fn encode(&self, lib: &Library) -> String {
        encode_place(
            format!("registers {}\n", self.registers),
            self.timer.netlist(),
            &self.placement,
            self.stats,
            lib,
        )
    }
}

/// Where the place stage gets the netlist it sizes, should it have to
/// run: from the golden side a verified run already holds, or from the
/// stages above it, which only then are looked up or run.
enum Entering<'g, W> {
    Golden(&'g PipelineArtifact),
    Workload(W),
}

/// Merges a proven-equivalent report's effort; a counterexample becomes
/// [`GapError::Inequivalent`] at `stage`.
fn discharge(
    report: EquivReport,
    stage: &str,
    effort: &mut Option<EquivEffort>,
) -> Result<(), GapError> {
    match report.result {
        EquivResult::Equivalent => {
            if let Some(e) = effort.as_mut() {
                e.merge(&report.effort);
            }
            Ok(())
        }
        EquivResult::Inequivalent(cex) => Err(GapError::Inequivalent {
            stage: stage.to_string(),
            output: cex.output,
        }),
    }
}

/// The [`VerifyLevel::Sim`] tier for the pipeline stage: the piped
/// netlist's outputs lag by the fill latency, so plain lock-step
/// simulation cannot compare them — instead each vector runs flat
/// combinationally and through a full pipeline flush.
fn verify_pipeline_by_sim(
    flat: &Netlist,
    piped: &Netlist,
    stages: usize,
    lib: &Library,
) -> Result<(), GapError> {
    let mut sim_flat = Simulator::new(flat, lib);
    let mut sim_piped = Simulator::new(piped, lib);
    let n = flat.inputs().len();
    for vector in 0..32 {
        let bits = random_vector(vector, n);
        let want = sim_flat.run_comb(&bits);
        let got = sim_piped.run_pipelined(&bits, stages + 1);
        if want != got {
            return Err(GapError::Inequivalent {
                stage: "pipeline".to_string(),
                output: "<random simulation>".to_string(),
            });
        }
    }
    Ok(())
}

/// One scenario's stage bodies. Each method is a plain function of the
/// scenario, its library, and the stage's inputs; it reports its own
/// wall time to `obs` and polls it at the boundaries inside the stage.
/// None of them knows whether a store exists.
struct Flow<'a> {
    scenario: &'a DesignScenario,
    lib: &'a Library,
    verify: VerifyLevel,
    obs: &'a dyn FlowObserver,
}

impl<'a> Flow<'a> {
    /// §4 (microarchitecture/logic depth): the workload, then the
    /// scenario's depth-recovery passes, each boundary proven at the
    /// verify level before the result is allowed downstream.
    fn synth<W>(&self, workload: W) -> Result<SynthArtifact, GapError>
    where
        W: FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
    {
        let mut netlist = workload(self.lib)?;
        let mut verify_effort = (self.verify == VerifyLevel::Full).then(EquivEffort::default);
        if !self.scenario.rewrite.is_empty() {
            let passes = PassPipeline::new(self.scenario.rewrite.clone()).with_verify(self.verify);
            let deltas = passes.run(&mut netlist, self.lib).map_err(|e| match e {
                SynthError::Inequivalent { stage, output } => {
                    GapError::Inequivalent { stage, output }
                }
                other => GapError::from(other),
            })?;
            if let Some(e) = verify_effort.as_mut() {
                for proof in deltas.iter().filter_map(|d| d.proof.as_ref()) {
                    e.merge(&proof.effort);
                }
            }
        }
        Ok(SynthArtifact {
            netlist,
            verify_effort,
        })
    }

    /// §4: pipelining. The flat netlist's timing drives the cut
    /// placement; the registered netlist is then checked against the
    /// flat one (registers transparent) before it seeds the shared
    /// timer. The caller polls the last boundary reported here.
    fn pipeline(&self, synth: SynthArtifact) -> Result<PipelineArtifact, GapError> {
        let SynthArtifact {
            netlist,
            mut verify_effort,
        } = synth;
        let lib = self.lib;
        let clock = Instant::now();
        let report = analyze(&netlist, lib, &ClockSpec::unconstrained(), None);
        let piped = pipeline_netlist_with(&netlist, lib, self.scenario.pipeline_stages, &report)?;
        self.obs.stage_done(FlowStage::Pipeline, clock.elapsed());
        if self.verify != VerifyLevel::Off {
            abort_if_cancelled(self.obs, FlowStage::Pipeline)?;
            let clock = Instant::now();
            if self.verify == VerifyLevel::Sim {
                verify_pipeline_by_sim(&netlist, &piped.netlist, piped.stages, lib)?;
            } else {
                let report = verify_pipeline(&netlist, &piped.netlist, lib)?;
                discharge(report, "pipeline", &mut verify_effort)?;
            }
            self.obs.stage_done(FlowStage::Equiv, clock.elapsed());
        }
        Ok(PipelineArtifact {
            netlist: piped.netlist,
            registers: piped.registers_inserted,
            verify_effort,
        })
    }

    /// §6 sizing and §5 floorplanning, then the one timer the rest of
    /// the flow shares: every optimization from here on mutates that
    /// graph and pays only for the cones it touches. Sizing reads loads
    /// only, never arrivals, so it runs on the bare netlist and the timer
    /// is built over the sized one.
    fn place(&self, mut netlist: Netlist, registers: usize) -> Result<Placed<'a>, GapError> {
        let (scenario, lib) = (self.scenario, self.lib);
        let clock = Instant::now();
        match scenario.sizing {
            SizingQuality::AsMapped => {}
            SizingQuality::DriveSelected => select_drives_with(&mut netlist, lib, None, 3),
            SizingQuality::Continuous => {
                let sized = tilos_size(&netlist, lib, &TilosOptions::default());
                let snap = snap_to_library(&netlist, lib, &sized.sizes);
                let ids: Vec<_> = netlist.iter_instances().map(|(id, _)| id).collect();
                for (id, &s) in ids.iter().zip(&snap.sizes) {
                    let cell = lib.closest_drive(netlist.instance(*id).cell(), s);
                    netlist.set_instance_cell(lib, *id, cell);
                }
            }
        }
        let sizing = clock.elapsed();

        let clock = Instant::now();
        let graph = TimingGraph::new(netlist, lib, ClockSpec::unconstrained(), None);
        // Reported in the observer's pinned order, timer first; each
        // report carries its own stage's wall time.
        self.obs.stage_done(FlowStage::Sta, clock.elapsed());
        self.obs.stage_done(FlowStage::Sizing, sizing);
        abort_if_cancelled(self.obs, FlowStage::Sizing)?;

        let strategy = match scenario.floorplan {
            FloorplanQuality::Careful => FloorplanStrategy::Localized,
            FloorplanQuality::Spread { modules } => FloorplanStrategy::Spread { modules },
        };
        let clock = Instant::now();
        let fp = Floorplan::build(
            graph.netlist(),
            lib,
            strategy,
            &AnnealOptions::quick(scenario.seed),
        );
        self.obs.stage_done(FlowStage::Place, clock.elapsed());
        // Floorplanning never touches the timer, so the counters here
        // equal the post-sizing checkpoint.
        Ok(Placed {
            stats: graph.stats(),
            timer: Timer::Warm(graph),
            placement: fp.placement,
            registers,
        })
    }

    /// §5 wires and the §6.2 post-layout resize, shared by `RUN` and
    /// `CLOSE`: price the wires, re-select drives against the annotated
    /// loads, re-extract (sink caps changed). The routed model routes
    /// once; resizing only swaps drive strengths (positions and
    /// connectivity are untouched), so the routes stay valid and both
    /// extractions read the same trees — which are returned for the
    /// caller's summary or reroute moves.
    fn wires(
        &self,
        graph: &mut TimingGraph<'_>,
        placement: &Placement,
    ) -> Result<Option<RoutingResult>, GapError> {
        let (scenario, lib) = (self.scenario, self.lib);
        let clock = Instant::now();
        let routing = match scenario.wire_model {
            WireModel::Hpwl => None,
            WireModel::Routed => Some(route(
                graph.netlist(),
                placement,
                &RouterOptions::seeded(scenario.seed),
            )),
        };
        let extract = |graph: &TimingGraph<'_>| match &routing {
            None => annotate(graph.netlist(), lib, placement, true),
            Some(r) => annotate_routed(graph.netlist(), lib, r, true),
        };
        let par = extract(graph);
        graph.set_parasitics(par);
        // Extraction rides with the wire model that produced it: the
        // HPWL annotate is placement work, the routed one is routing.
        let billed = extract_stage(scenario);
        self.obs.stage_done(billed, clock.elapsed());
        abort_if_cancelled(self.obs, billed)?;

        let clock = Instant::now();
        if scenario.sizing != SizingQuality::AsMapped {
            graph.resize_in_bulk(|netlist, lib, wires| {
                select_drives_with(netlist, lib, Some(wires), 2);
            });
        }
        let par = extract(graph);
        graph.set_parasitics(par);
        self.obs.stage_done(FlowStage::Sizing, clock.elapsed());
        abort_if_cancelled(self.obs, FlowStage::Sizing)?;
        Ok(routing)
    }

    /// `RUN`'s route stage: wires, then the final timing report. The
    /// artifact carries everything the closing arithmetic needs from
    /// the timer.
    fn route_stage(&self, placed: Placed<'a>) -> Result<RouteArtifact, GapError> {
        let placement = &placed.placement;
        let mut graph = placed.timer.into_graph(self.lib);
        let stats_before = graph.stats();
        let routing = self.wires(&mut graph, placement)?;
        let route = routing
            .as_ref()
            .map(|r| r.summary(graph.netlist(), placement));
        let clock = Instant::now();
        let (report, netlist) = graph.finish();
        self.obs.stage_done(FlowStage::Sta, clock.elapsed());
        Ok(RouteArtifact {
            netlist,
            min_period: report.min_period,
            delta: report.stats - stats_before,
            route,
            registers: placed.registers,
            place_stats: placed.stats,
        })
    }

    /// The sizing loop must not have changed any logic function: the
    /// final netlist against the one that entered the shared timer
    /// (registers cut; sizing only swaps drive strengths, so a SAT cone
    /// or counterexample here means a sizing pass rewired logic).
    fn final_check(
        &self,
        golden: &Netlist,
        netlist: &Netlist,
        verify_effort: &mut Option<EquivEffort>,
    ) -> Result<(), GapError> {
        let lib = self.lib;
        abort_if_cancelled(self.obs, FlowStage::Sta)?;
        let clock = Instant::now();
        if self.verify == VerifyLevel::Sim {
            if !random_sim_equiv(golden, lib, netlist, lib, 64, self.scenario.seed) {
                return Err(GapError::Inequivalent {
                    stage: "sizing".to_string(),
                    output: "<random simulation>".to_string(),
                });
            }
        } else {
            discharge(
                check_equiv(golden, lib, netlist, lib)?,
                "sizing",
                verify_effort,
            )?;
        }
        self.obs.stage_done(FlowStage::Equiv, clock.elapsed());
        Ok(())
    }

    /// The closing arithmetic: §7 domino and §4.1 skew folded into the
    /// period, §8 what actually ships, and the §9 caveat's area and
    /// power views.
    fn outcome(&self, route: RouteArtifact, verify_effort: Option<EquivEffort>) -> ScenarioOutcome {
        let (scenario, lib) = (self.scenario, self.lib);
        let min_period = fold_period(scenario, lib, route.min_period);
        let access_factor = match scenario.access {
            ProcessAccess::AsicWorstCase => BinningPolicy::corner_quote(),
            ProcessAccess::CustomBinned => ChipPopulation::sampled_quantile(
                &VariationComponents::new_process(),
                20_000,
                scenario.seed,
                0.75,
            ),
        };
        let shipped = Mhz::new(min_period.frequency().value() * access_factor);
        // Domino critical paths switch every cycle regardless of data;
        // fold the family power factor in for the fraction of logic the
        // style converts (the critical cone, ~25%).
        let mut switched: f64 = route
            .netlist
            .iter_instances()
            .map(|(_, i)| lib.cell(i.cell()).power_proxy())
            .sum();
        if scenario.logic_style == LogicStyle::DominoCriticalPath {
            switched *= 0.75 + 0.25 * LogicFamily::Domino.power_factor();
        }
        ScenarioOutcome {
            scenario: scenario.name.clone(),
            fo4_per_cycle: scenario.technology.delay_in_fo4(min_period),
            min_period,
            shipped,
            gates: route.netlist.instance_count(),
            registers: route.registers,
            area_um2: route.netlist.total_area_um2(lib),
            power_proxy: switched * shipped.value() / 1000.0,
            timing_effort: route.place_stats + route.delta,
            verify_effort,
            route: route.route,
        }
    }

    /// Runs (or resumes) synth → pipeline: the netlist as it enters the
    /// sizing/placement loop, which is also the golden side of the final
    /// check. `synth_clock` was started before the library was built,
    /// which the synth stage's wall time covers. On a hit a stage
    /// reports only its lookup.
    fn front<W>(
        &self,
        checkpoints: &Checkpoints<'_>,
        workload: W,
        synth_clock: Instant,
        reuse: &mut StageReuse,
    ) -> Result<PipelineArtifact, GapError>
    where
        W: FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
    {
        let (scenario, lib, verify, obs) = (self.scenario, self.lib, self.verify, self.obs);
        let synth = |reuse: &mut StageReuse| {
            let (synth, hit) = checkpoints.stage(
                lib,
                |w| synth_key(scenario, w, verify),
                (SynthArtifact::parse, SynthArtifact::encode),
                || self.synth(workload),
            )?;
            reuse.synth = hit;
            obs.stage_done(FlowStage::Synth, synth_clock.elapsed());
            abort_if_cancelled(obs, FlowStage::Synth)?;
            Ok::<_, GapError>(synth)
        };
        if scenario.pipeline_stages < 2 {
            let synth = synth(reuse)?;
            return Ok(PipelineArtifact {
                netlist: synth.netlist,
                registers: 0,
                verify_effort: synth.verify_effort,
            });
        }
        let clock = Instant::now();
        let (art, hit) = checkpoints.stage(
            lib,
            |w| pipeline_key(scenario, w, verify),
            (PipelineArtifact::parse, PipelineArtifact::encode),
            || self.pipeline(synth(reuse)?),
        )?;
        reuse.pipeline = hit;
        // The boundary `pipeline` reported last and left unpolled.
        let mut last = FlowStage::Pipeline;
        if hit == Some(true) {
            obs.stage_done(last, clock.elapsed());
        } else if verify != VerifyLevel::Off {
            last = FlowStage::Equiv;
        }
        abort_if_cancelled(obs, last)?;
        Ok(art)
    }

    /// Runs (or resumes) the place stage, everything `RUN` and `CLOSE`
    /// share. Only a miss reaches for what is `entering`.
    fn placed<W>(
        &self,
        checkpoints: &Checkpoints<'_>,
        entering: Entering<'_, W>,
        synth_clock: Instant,
        reuse: &mut StageReuse,
    ) -> Result<Placed<'a>, GapError>
    where
        W: FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
    {
        if self.scenario.pipeline_stages == 0 {
            return Err(GapError::Scenario {
                what: "pipeline_stages must be >= 1".to_string(),
            });
        }
        let clock = Instant::now();
        let (placed, hit) = checkpoints.stage(
            self.lib,
            |w| place_key(self.scenario, w),
            (Placed::parse, Placed::encode),
            || match entering {
                // The final check keeps the golden: size a copy.
                Entering::Golden(golden) => self.place(golden.netlist.clone(), golden.registers),
                Entering::Workload(workload) => {
                    let front = self.front(checkpoints, workload, synth_clock, reuse)?;
                    self.place(front.netlist, front.registers)
                }
            },
        )?;
        reuse.place = hit;
        if hit == Some(true) {
            self.obs.stage_done(FlowStage::Place, clock.elapsed());
        }
        abort_if_cancelled(self.obs, FlowStage::Place)?;
        Ok(placed)
    }
}

/// The stage that extraction is billed to under `scenario`'s wire model.
fn extract_stage(scenario: &DesignScenario) -> FlowStage {
    match scenario.wire_model {
        WireModel::Hpwl => FlowStage::Place,
        WireModel::Routed => FlowStage::Route,
    }
}

/// The `RUN` driver behind every `run_scenario*` entry point: the
/// prefix, the route stage, the final check, the closing arithmetic.
pub(crate) fn run_flow<W>(
    scenario: &DesignScenario,
    workload: W,
    verify: VerifyLevel,
    obs: &dyn FlowObserver,
    checkpoints: Checkpoints<'_>,
) -> Result<(ScenarioOutcome, StageReuse), GapError>
where
    W: FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
{
    let synth_clock = Instant::now();
    let lib = scenario.library.build(&scenario.technology);
    let flow = Flow {
        scenario,
        lib: &lib,
        verify,
        obs,
    };
    let mut reuse = StageReuse::default();
    // A verified run holds the golden side, fetched or recomputed under
    // its own verify level, before it looks at anything downstream; an
    // unverified one reaches upstream only from a miss.
    let front;
    let (entering, golden) = if verify == VerifyLevel::Off {
        (Entering::Workload(workload), None)
    } else {
        front = flow.front(&checkpoints, workload, synth_clock, &mut reuse)?;
        (Entering::Golden(&front), Some(&front))
    };

    let clock = Instant::now();
    let (route, hit) = checkpoints.stage(
        &lib,
        |w| route_key(scenario, w),
        (RouteArtifact::parse, RouteArtifact::encode),
        || flow.route_stage(flow.placed(&checkpoints, entering, synth_clock, &mut reuse)?),
    )?;
    reuse.route = hit;
    if hit == Some(true) {
        obs.stage_done(extract_stage(scenario), clock.elapsed());
        abort_if_cancelled(obs, extract_stage(scenario))?;
    }
    reuse.settle(scenario.pipeline_stages >= 2);

    // Never checkpointed here: the serving tier caches whole outcomes
    // by canonical key.
    let mut verify_effort = None;
    if let Some(golden) = golden {
        verify_effort = golden.verify_effort;
        flow.final_check(&golden.netlist, &route.netlist, &mut verify_effort)?;
    }
    Ok((flow.outcome(route, verify_effort), reuse))
}

/// The `CLOSE` driver behind every `close_timing*` entry point: the
/// same prefix and wires as `RUN` (keyed at [`VerifyLevel::Off`] —
/// closure prep never verifies, its transform proofs are the open-loop
/// flow's concern — so it shares artifacts with unverified `RUN`s),
/// then the autopilot fix loop on the warm timer, proving its own moves
/// at `verify`. The route checkpoint is never consulted: the loop needs
/// the live routes.
pub(crate) fn close_flow<W>(
    scenario: &DesignScenario,
    workload: W,
    verify: VerifyLevel,
    target: &ClosureTarget,
    cancel: &dyn Fn() -> bool,
    checkpoints: Checkpoints<'_>,
) -> Result<(ClosureOutcome, StageReuse), GapError>
where
    W: FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
{
    let synth_clock = Instant::now();
    let lib = scenario.library.build(&scenario.technology);
    let prep = Flow {
        scenario,
        lib: &lib,
        verify: VerifyLevel::Off,
        obs: &NoObserver,
    };
    let mut reuse = StageReuse::default();
    let entering = Entering::Workload(workload);
    let placed = prep.placed(&checkpoints, entering, synth_clock, &mut reuse)?;
    reuse.settle(scenario.pipeline_stages >= 2);
    let mut graph = placed.timer.into_graph(&lib);
    let routing = prep.wires(&mut graph, &placed.placement)?;
    let open_min_period = fold_period(scenario, &lib, graph.min_period());

    // The loop works in graph terms: unfold the scenario target through
    // the skew/domino arithmetic.
    let loop_target = ClosureTarget {
        frequency: unfold_period(scenario, &lib, target.period()).frequency(),
        ..target.clone()
    };
    let mut route_ctx = routing.map(|routing| RouteContext {
        placement: placed.placement,
        routing,
        options: RouterOptions::seeded(scenario.seed),
        repeaters: true,
    });
    let trace = close_on(&mut graph, route_ctx.as_mut(), &loop_target, verify, cancel)
        .map_err(map_autopilot_err)?;
    let outcome = ClosureOutcome {
        scenario: scenario.name.clone(),
        target: target.frequency,
        open_min_period,
        closed_min_period: fold_period(scenario, &lib, graph.min_period()),
        trace,
    };
    Ok((outcome, reuse))
}

/// [`run_scenario_staged_observed`] for a nameable workload, with no
/// observer — the plain entry point.
///
/// # Errors
///
/// As [`crate::run_scenario_verified`].
pub fn run_scenario_staged(
    scenario: &DesignScenario,
    workload: &WorkloadSpec,
    verify: VerifyLevel,
    store: &dyn ArtifactStore,
) -> Result<(ScenarioOutcome, StageReuse), GapError> {
    run_scenario_staged_observed(
        scenario,
        &workload.canonical(),
        |lib| workload.build(lib),
        verify,
        store,
        &NoObserver,
    )
}

/// [`run_scenario_observed`](crate::run_scenario_observed) with
/// checkpointing: identical outcome bytes (the determinism contract
/// extends through the store), but each checkpoint is first looked up
/// in `store` and recomputed stages are written back, so a warm store
/// resumes from the deepest cached prefix. `workload_canonical` must be
/// the workload's [`WorkloadSpec::canonical`] spelling (it anchors the
/// synth key); `workload` is only invoked on a synth miss.
///
/// # Errors
///
/// As [`crate::run_scenario_observed`], including
/// [`GapError::Cancelled`] at stage boundaries.
pub fn run_scenario_staged_observed<W>(
    scenario: &DesignScenario,
    workload_canonical: &str,
    workload: W,
    verify: VerifyLevel,
    store: &dyn ArtifactStore,
    obs: &dyn FlowObserver,
) -> Result<(ScenarioOutcome, StageReuse), GapError>
where
    W: FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
{
    let checkpoints = Checkpoints {
        store: Some(store),
        workload: workload_canonical,
    };
    run_flow(scenario, workload, verify, obs, checkpoints)
}

/// [`close_timing_staged_cancellable`] for a nameable workload with no
/// cancellation — the plain entry point.
///
/// # Errors
///
/// As [`DesignScenario::close_timing`].
pub fn close_timing_staged(
    scenario: &DesignScenario,
    workload: &WorkloadSpec,
    verify: VerifyLevel,
    target: &ClosureTarget,
    store: &dyn ArtifactStore,
) -> Result<(ClosureOutcome, StageReuse), GapError> {
    close_timing_staged_cancellable(
        scenario,
        &workload.canonical(),
        |lib| workload.build(lib),
        verify,
        target,
        store,
        &|| false,
    )
}

/// [`DesignScenario::close_timing_cancellable`] with checkpointing: the
/// closure prep resumes from the store's synth/pipeline/place artifacts,
/// then prices the wires and drives the fix loop live. Trace bytes are
/// identical at any cache state. `verify` arms the *loop's* move proofs,
/// exactly as in `close_timing`.
///
/// # Errors
///
/// As [`DesignScenario::close_timing_cancellable`].
pub fn close_timing_staged_cancellable<W>(
    scenario: &DesignScenario,
    workload_canonical: &str,
    workload: W,
    verify: VerifyLevel,
    target: &ClosureTarget,
    store: &dyn ArtifactStore,
    cancel: &dyn Fn() -> bool,
) -> Result<(ClosureOutcome, StageReuse), GapError>
where
    W: FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
{
    let checkpoints = Checkpoints {
        store: Some(store),
        workload: workload_canonical,
    };
    close_flow(scenario, workload, verify, target, cancel, checkpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    fn sample_effort() -> EquivEffort {
        EquivEffort {
            cones: 27,
            structural: 19,
            sat_cones: 8,
            vars: 100,
            clauses: 941,
            conflicts: 92,
            decisions: 12,
            propagations: 3456,
        }
    }

    #[test]
    fn mem_store_round_trips_with_collision_guard() {
        let store = MemStore::new();
        assert!(store.is_empty());
        assert_eq!(store.get("k1"), None);
        store.put("k1", "v1");
        store.put("k2", "v2");
        assert_eq!(store.get("k1").as_deref(), Some("v1"));
        assert_eq!(store.get("k2").as_deref(), Some("v2"));
        store.put("k1", "v1b");
        assert_eq!(store.get("k1").as_deref(), Some("v1b"));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn stage_keys_chain_and_separate_knobs() {
        let w = "alu/8";
        let a = DesignScenario::typical_asic();
        let routed = a.clone().with_wire_model(WireModel::Routed);
        let mut reseeded = a.clone();
        reseeded.seed = 99;
        let mut deeper = a.clone();
        deeper.pipeline_stages = 5;
        let (off, full) = (VerifyLevel::Off, VerifyLevel::Full);

        // Synth key: workload, verify, and rewrite all separate identities;
        // nothing downstream of synthesis does.
        let base = synth_key(&a, w, off);
        assert_ne!(base, synth_key(&a, "alu/16", off));
        assert_ne!(base, synth_key(&a, w, full));
        assert_eq!(base, synth_key(&routed, w, off));
        assert_eq!(base, synth_key(&reseeded, w, off));
        assert_eq!(base, synth_key(&deeper, w, off));

        // Each key is its stage's header over the upstream key's fields
        // plus its own knobs: whatever separates two upstream keys
        // separates every key derived from them.
        let fields = |key: &str| key.split_once('\n').expect("header line").1.to_string();
        assert!(pipeline_key(&a, w, full).starts_with("asicgap-stage/v2 pipeline\n"));
        assert!(fields(&pipeline_key(&a, w, full)).starts_with(&fields(&synth_key(&a, w, full))));
        assert_ne!(pipeline_key(&a, w, off), pipeline_key(&a, w, full));
        assert_ne!(pipeline_key(&a, w, off), pipeline_key(&deeper, w, off));
        assert_ne!(place_key(&a, w), place_key(&a, "alu/16"));
        assert_ne!(place_key(&a, w), place_key(&deeper, w));
        assert_ne!(place_key(&a, w), place_key(&reseeded, w));
        assert!(fields(&route_key(&a, w)).starts_with(&fields(&place_key(&a, w))));

        // A placed netlist is the same netlist at any verify level: the
        // place key chains on the unverified pipeline key.
        assert!(fields(&place_key(&a, w)).starts_with(&fields(&pipeline_key(&a, w, off))));
        // The wire model only enters at the route key: place keys agree,
        // route keys do not.
        assert_eq!(place_key(&a, w), place_key(&routed, w));
        assert_ne!(route_key(&a, w), route_key(&routed, w));
        assert_ne!(route_key(&a, w), route_key(&reseeded, w));
    }

    #[test]
    fn reuse_settles_upstream_of_the_deepest_hit() {
        let code = |r: StageReuse| r.entries().map(|(_, s)| s);
        let settled = |mut r: StageReuse, pipelined| {
            r.settle(pipelined);
            code(r)
        };
        let route_hit = StageReuse {
            route: Some(true),
            ..StageReuse::default()
        };
        assert_eq!(settled(route_hit, true), [Some(true); 4]);
        assert_eq!(
            settled(route_hit, false),
            [Some(true), None, Some(true), Some(true)]
        );
        // A miss that was looked at stays a miss; a closure run's `route`
        // stays out of the run.
        let verified = StageReuse {
            synth: Some(false),
            pipeline: Some(false),
            place: None,
            route: Some(true),
        };
        assert_eq!(
            settled(verified, true),
            [Some(false), Some(false), Some(true), Some(true)]
        );
        let closing = StageReuse {
            place: Some(true),
            ..StageReuse::default()
        };
        assert_eq!(
            settled(closing, true),
            [Some(true), Some(true), Some(true), None]
        );
        let cold = StageReuse {
            synth: Some(false),
            pipeline: None,
            place: Some(false),
            route: Some(false),
        };
        assert_eq!(settled(cold, false), code(cold));
    }

    #[test]
    fn synth_and_pipeline_artifacts_round_trip() {
        let lib = lib();
        let netlist = generators::alu(&lib, 8).expect("generator");
        for effort in [None, Some(sample_effort())] {
            let art = SynthArtifact {
                netlist: netlist.clone(),
                verify_effort: effort,
            };
            let text = art.encode(&lib);
            let back = SynthArtifact::parse(&text, &lib).expect("parses");
            assert_eq!(back.verify_effort, effort);
            assert_eq!(back.encode(&lib), text, "re-encode is the identity");

            let art = PipelineArtifact {
                netlist: netlist.clone(),
                registers: 64,
                verify_effort: effort,
            };
            let text = art.encode(&lib);
            let back = PipelineArtifact::parse(&text, &lib).expect("parses");
            assert_eq!(back.registers, 64);
            assert_eq!(back.verify_effort, effort);
            assert_eq!(back.encode(&lib), text);
        }
    }

    #[test]
    fn place_and_route_artifacts_round_trip() {
        let lib = lib();
        let netlist = generators::ripple_carry_adder(&lib, 4).expect("generator");
        let placement = Placement {
            width_um: 123.456789,
            height_um: 1.0 / 3.0,
            cells: vec![(0.5, 1.5), (2.25, f64::MIN_POSITIVE)],
            inputs: vec![(0.0, 9.75)],
            // Coordinates travel as their bits, so the values decimal
            // formats stumble on survive too: the sign of zero, a
            // subnormal, an infinity. Non-finite values are preserved,
            // not rejected — the codec does not judge a placement.
            outputs: vec![(7.125, -0.0), (5e-324, 2.0), (f64::INFINITY, 4.0)],
        };
        let stats = IncrementalStats {
            full_propagations: 1,
            incremental_updates: 17,
            pins_touched: 3300,
        };
        let art = PlaceArtifact {
            netlist: netlist.clone(),
            placement: placement.clone(),
            stats,
        };
        let text = art.encode(&lib);
        let back = PlaceArtifact::parse(&text, &lib).expect("parses");
        assert_eq!(back.placement, placement);
        let bits = |p: &Placement| -> Vec<(u64, u64)> {
            let all = p.cells.iter().chain(&p.inputs).chain(&p.outputs);
            all.map(|(x, y)| (x.to_bits(), y.to_bits())).collect()
        };
        assert_eq!(
            bits(&back.placement),
            bits(&placement),
            "-0.0 == 0.0: compare bits"
        );
        assert!(
            text.contains("\n401c800000000000 8000000000000000\n"),
            "{text}"
        );
        assert_eq!(back.stats, stats);
        assert_eq!(back.encode(&lib), text);
        // NaN has no equal, its bits do.
        let mut nan = art.clone();
        nan.placement.cells[0].0 = f64::from_bits(0x7ff8_0000_dead_beef);
        let back = PlaceArtifact::parse(&nan.encode(&lib), &lib).expect("parses");
        assert_eq!(back.placement.cells[0].0.to_bits(), 0x7ff8_0000_dead_beef);
        // Exactly sixteen lower-case digits, nothing `from_str_radix` would
        // also take.
        for broken in [
            "401C800000000000",
            "+01c800000000000",
            "401c80000000000",
            "0401c800000000000",
        ] {
            let text = text.replacen("401c800000000000", broken, 1);
            assert!(PlaceArtifact::parse(&text, &lib).is_err(), "took {broken}");
        }

        // What the flow stores is the artifact behind a registers line.
        let placed = Placed {
            timer: Timer::Cold(netlist.clone()),
            placement: placement.clone(),
            stats,
            registers: 64,
        };
        let stored = placed.encode(&lib);
        assert_eq!(stored, format!("registers 64\n{text}"));
        let back = Placed::parse(&stored, &lib).expect("parses");
        assert_eq!((back.registers, back.stats), (64, stats));
        assert_eq!(back.encode(&lib), stored);
        assert!(Placed::parse(&text, &lib).is_err(), "no registers line");
        for prefix in ["registers 064\n", "registers +64\n", "registers 64\r\n"] {
            let stored = format!("{prefix}{text}");
            assert!(Placed::parse(&stored, &lib).is_err(), "took {prefix:?}");
        }

        for route in [
            None,
            Some(RouteSummary {
                iterations: 2,
                overflow: 0,
                routed_um: 123456.789,
                hpwl_um: 100000.5,
                vias: 456,
            }),
        ] {
            let art = RouteArtifact {
                netlist: netlist.clone(),
                min_period: Ps::new(7370.123456789),
                delta: stats,
                route,
                registers: 64,
                place_stats: stats + stats,
            };
            let text = art.encode(&lib);
            let back = RouteArtifact::parse(&text, &lib).expect("parses");
            assert_eq!(back.min_period, Ps::new(7370.123456789));
            assert_eq!(back.delta, stats);
            assert_eq!((back.registers, back.place_stats), (64, stats + stats));
            assert_eq!(back.route, route);
            assert_eq!(back.encode(&lib), text);
        }
    }

    /// A point count the text cannot back is refused before anything is
    /// reserved for it, and so is a netlist count inside an artifact.
    #[test]
    fn claimed_counts_are_held_to_the_bytes_that_follow() {
        let lib = lib();
        let huge = "4000000000000";
        let head = "stage-place/v2\nstats 0 0 0\nplacement 0000000000000000 0000000000000000\n";
        let tail =
            "\nnetlist\nnetlist/v1\ndesign x\nnets 0\ninsts 0\ninputs 0\noutputs 0\nend\nend\n";
        for text in [
            format!("{head}cells {huge}{tail}"),
            format!("{head}cells 0\ninputs {huge}{tail}"),
            format!("{head}cells 0\ninputs 0\noutputs {huge}{tail}"),
            format!(
                "{head}cells 0\ninputs 0\noutputs 0\nnetlist\nnetlist/v1\ndesign x\nnets {huge}\nend\n"
            ),
        ] {
            match PlaceArtifact::parse(&text, &lib) {
                Err(GapError::Parse { what }) => {
                    assert!(what.contains("claimed") || what.contains("count"), "{what}");
                }
                other => panic!("{text:?} parsed to {other:?}"),
            }
        }
        let honest = format!("{head}cells 0\ninputs 0\noutputs 0{tail}");
        assert!(PlaceArtifact::parse(&honest, &lib).is_ok());
    }

    #[test]
    fn torn_and_tampered_artifacts_rejected() {
        let lib = lib();
        let netlist = generators::ripple_carry_adder(&lib, 4).expect("generator");
        let art = SynthArtifact {
            netlist,
            verify_effort: Some(sample_effort()),
        };
        let good = art.encode(&lib);
        assert!(SynthArtifact::parse("", &lib).is_err());
        assert!(SynthArtifact::parse(&good[..good.len() / 2], &lib).is_err());
        // The artifact's own trailing end torn off: the netlist's inner
        // end is then consumed as ours and the decode fails.
        assert!(SynthArtifact::parse(good.strip_suffix("end\n").unwrap(), &lib).is_err());
        assert!(SynthArtifact::parse(&good.replacen("stage-synth/v1", "x", 1), &lib).is_err());
        assert!(SynthArtifact::parse(&good.replacen("verify", "vrfy", 1), &lib).is_err());
        let mut trailing = good.clone();
        trailing.push_str("junk\n");
        assert!(SynthArtifact::parse(&trailing, &lib).is_err());
        // Wrong artifact kind under the right structure.
        assert!(PipelineArtifact::parse(&good, &lib).is_err());
    }
}
