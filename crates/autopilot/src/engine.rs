//! The closed fix loop: enumerate → dry-evaluate → commit → repeat.
//!
//! Each iteration pulls the [`TOPK`] worst endpoints from the warm
//! [`TimingGraph`], enumerates candidate ECOs along their worst paths,
//! dry-evaluates every candidate through the undo-log trial API (or a
//! graph clone for structural edits), and commits the best strict
//! improvement. Escalations — a depth-recovery rewrite sweep, then one
//! extra pipeline stage — fire only when no local move helps. The loop
//! is sequential by construction, so its [`ConvergenceTrace`] is
//! byte-identical at any `ASICGAP_THREADS`; parallelism belongs to the
//! grids that call it.

use std::collections::HashSet;
use std::fmt;

use asicgap_cells::{CellFunction, CellId, Library};
use asicgap_equiv::{check_equiv, EquivEffort, EquivError, EquivResult, VerifyLevel};
use asicgap_netlist::{depth_histogram, InstId, NetDriver, NetId, Netlist, NetlistError, Sink};
use asicgap_pipeline::{pipeline_netlist_with, verify_pipeline};
use asicgap_place::Placement;
use asicgap_route::{routed_parasitics, RouterOptions, RoutingResult};
use asicgap_sta::{
    report_timing, ClockSpec, EndpointKind, IncrementalStats, NetParasitics, TimingGraph,
};
use asicgap_synth::{PassPipeline, StageProof, SynthError};
use asicgap_tech::{Ff, Ps};

use crate::target::{ClosureTarget, MoveKind, Verdict};
use crate::trace::{netlist_fingerprint, ConvergenceTrace, IterationRecord, MoveRecord};

/// Escalation pipeline stage count — the retime move always goes from a
/// combinational netlist to the minimum pipeline.
const RETIME_STAGES: usize = 2;

/// Path instances considered for sizing/buffering per endpoint.
const PATH_TAIL: usize = 6;

/// Critical endpoints examined per iteration.
const TOPK: usize = 4;

/// Everything the loop needs to try wiring moves: the placement the
/// routes were built against, the live routing state, and the knobs the
/// original route ran with (`reroute_net` derives its per-net jitter
/// seed from these plus the routing state, so a committed reroute
/// reproduces its trial bit-for-bit).
#[derive(Debug)]
pub struct RouteContext {
    /// The placement every routed net's pins come from.
    pub placement: Placement,
    /// The live routing state (mutated only by committed reroutes).
    pub routing: RoutingResult,
    /// Router knobs, including the seed.
    pub options: RouterOptions,
    /// Whether extraction models repeatered long wires.
    pub repeaters: bool,
}

impl RouteContext {
    /// `true` when `net` can be rerouted: it was routed, and every cell
    /// on it has a slot in the placement. A buffer committed by the loop
    /// has none, so the net it taps drops out of the wiring moves while
    /// every other net keeps them.
    fn can_reroute(&self, netlist: &Netlist, net: NetId) -> bool {
        let placed = |inst: InstId| inst.index() < self.placement.cells.len();
        let n = netlist.net(net);
        self.routing.net(net).is_some()
            && !matches!(n.driver(), Some(NetDriver::Instance(d)) if !placed(d))
            && n.sinks().iter().all(|s| placed(s.inst))
    }
}

/// Everything that can go wrong inside the loop.
#[derive(Debug)]
pub enum AutopilotError {
    /// A committed move's equivalence proof failed: the netlist after the
    /// move computes a different function. `output` names the diverging
    /// cone from the counterexample.
    Inequivalent {
        /// The move kind whose proof failed.
        kind: MoveKind,
        /// The diverging output cone.
        output: String,
    },
    /// A rewrite escalation failed inside the synthesis passes.
    Synth(SynthError),
    /// A structural edit failed at the netlist layer.
    Netlist(NetlistError),
    /// The equivalence checker itself failed (import error etc.).
    Equiv(EquivError),
    /// A trace replay hit a name or encoding the netlist cannot resolve.
    Replay(String),
}

impl fmt::Display for AutopilotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutopilotError::Inequivalent { kind, output } => {
                write!(
                    f,
                    "{} move failed its proof on output {output}",
                    kind.name()
                )
            }
            AutopilotError::Synth(e) => write!(f, "rewrite escalation failed: {e}"),
            AutopilotError::Netlist(e) => write!(f, "netlist edit failed: {e}"),
            AutopilotError::Equiv(e) => write!(f, "equivalence check failed: {e}"),
            AutopilotError::Replay(s) => write!(f, "trace replay failed: {s}"),
        }
    }
}

impl std::error::Error for AutopilotError {}

impl From<SynthError> for AutopilotError {
    fn from(e: SynthError) -> AutopilotError {
        AutopilotError::Synth(e)
    }
}

impl From<NetlistError> for AutopilotError {
    fn from(e: NetlistError) -> AutopilotError {
        AutopilotError::Netlist(e)
    }
}

impl From<EquivError> for AutopilotError {
    fn from(e: EquivError) -> AutopilotError {
        AutopilotError::Equiv(e)
    }
}

/// One enumerated (not yet evaluated) ECO candidate.
enum Candidate {
    Resize {
        inst: InstId,
        cell: CellId,
    },
    Buffer {
        net: NetId,
        cell: CellId,
        moved: Vec<Sink>,
    },
    Reroute {
        net: NetId,
    },
}

impl Candidate {
    /// Dedup key — two endpoints often share a path prefix.
    fn key(&self) -> String {
        match self {
            Candidate::Resize { inst, cell } => format!("r{}c{}", inst.index(), cell.index()),
            Candidate::Buffer { net, .. } => format!("b{}", net.index()),
            Candidate::Reroute { net } => format!("w{}", net.index()),
        }
    }
}

/// A sound lower bound on the minimum period any resize/buffer/reroute
/// schedule could reach: the deepest logic path has `depth` gate stages
/// (from [`depth_histogram`]), and no library gate evaluates faster than
/// its zero-load delay — so some endpoint always requires at least
/// `depth × min_gate_delay`. Only depth-reducing moves (rewrite, retime)
/// can beat this bound; when they are exhausted too, infeasibility is
/// proven, not timed out.
pub fn depth_lower_bound(netlist: &Netlist, lib: &Library) -> Ps {
    let depth = depth_histogram(netlist).len().saturating_sub(1);
    let mut d_min = f64::INFINITY;
    for (_, cell) in lib.iter() {
        if cell.is_sequential() {
            continue;
        }
        let d = cell.delay(&lib.tech, Ff::ZERO).value();
        if d < d_min {
            d_min = d;
        }
    }
    if !d_min.is_finite() {
        return Ps::ZERO;
    }
    Ps::new(depth as f64 * d_min)
}

/// The endpoint's arrival net.
fn endpoint_net(netlist: &Netlist, endpoint: &EndpointKind) -> NetId {
    match *endpoint {
        EndpointKind::RegisterD(id) => netlist.instance(id).fanin()[0],
        EndpointKind::PrimaryOutput(n) => netlist.outputs()[n].1,
    }
}

/// Runs the fix loop on a warm graph until closure, budget exhaustion,
/// proven infeasibility, a stuck state, or cancellation. The graph's
/// clock is retargeted to `target.period()`; `cancel` is polled once per
/// iteration boundary. On success the graph holds the final netlist and
/// the returned trace records every committed move (each carrying a
/// [`StageProof`] when `verify` is [`VerifyLevel::Full`]).
///
/// # Errors
///
/// Fails only on *broken* moves: a committed move whose proof shows a
/// function change, or a pass/netlist-level error inside an escalation.
/// Running out of moves is a [`Verdict`], not an error.
pub fn close_on<'a>(
    graph: &mut TimingGraph<'a>,
    mut route_ctx: Option<&mut RouteContext>,
    target: &ClosureTarget,
    verify: VerifyLevel,
    cancel: &dyn Fn() -> bool,
) -> Result<ConvergenceTrace, AutopilotError> {
    let lib = graph.library();
    let mut clock = graph.clock();
    clock.period = target.period();
    graph.set_clock(clock);

    let mut base_effort = IncrementalStats::default();
    let mut verify_effort = EquivEffort::default();
    // A rewrite or retime renumbers the netlist, so the stored routes no
    // longer describe it and wiring moves stop. A buffer is local: only
    // the net it taps loses them (`RouteContext::can_reroute`).
    let mut routes_stale = false;

    let start_wns = graph.wns();
    let start_tns = graph.tns();
    let start_area_um2 = graph.netlist().total_area_um2(lib);

    let mut iterations: Vec<IterationRecord> = Vec::new();
    let verdict = loop {
        if graph.wns() >= Ps::ZERO {
            break Verdict::Closed;
        }
        if cancel() {
            break Verdict::Cancelled {
                iteration: iterations.len(),
            };
        }
        if iterations.len() >= target.max_moves {
            break Verdict::BudgetExhausted;
        }

        let bound = depth_lower_bound(graph.netlist(), lib);
        let structure_infeasible = bound > target.period();
        let pins_before = base_effort.pins_touched + graph.stats().pins_touched;

        // Past the depth bound, no sizing or wiring move can ever close —
        // skip straight to the depth-reducing escalations.
        let mut committed = if structure_infeasible {
            None
        } else {
            try_local_moves(
                graph,
                route_ctx.as_deref_mut(),
                verify,
                routes_stale,
                &mut base_effort,
                &mut verify_effort,
            )?
        };
        if committed.is_none() {
            committed = try_escalations(
                graph,
                target,
                verify,
                &mut base_effort,
                &mut verify_effort,
                &mut routes_stale,
            )?;
        }

        match committed {
            Some(mv) => {
                let wns = graph.wns();
                let tns = graph.tns();
                let area_um2 = graph.netlist().total_area_um2(lib);
                let pins_after = base_effort.pins_touched + graph.stats().pins_touched;
                iterations.push(IterationRecord {
                    index: iterations.len() + 1,
                    wns,
                    tns,
                    area_um2,
                    mv,
                    pins_touched: pins_after - pins_before,
                });
            }
            None => {
                break if structure_infeasible {
                    Verdict::ProvenInfeasible { bound }
                } else {
                    Verdict::Stuck
                };
            }
        }
    };

    let final_wns = graph.wns();
    let final_area_um2 = graph.netlist().total_area_um2(lib);
    let netlist_hash = netlist_fingerprint(graph.netlist(), lib);
    let effort = base_effort + graph.stats();
    Ok(ConvergenceTrace {
        target_mhz: target.frequency.value(),
        period: target.period(),
        start_wns,
        start_tns,
        start_area_um2,
        iterations,
        verdict,
        final_wns,
        final_area_um2,
        netlist_hash,
        effort,
        verify_effort,
    })
}

/// Enumerates and dry-evaluates resize / buffer / reroute candidates on
/// the [`TOPK`] worst paths, then commits the best strict improvement.
/// Returns `None` when nothing improves.
fn try_local_moves<'a>(
    graph: &mut TimingGraph<'a>,
    mut route_ctx: Option<&mut RouteContext>,
    verify: VerifyLevel,
    routes_stale: bool,
    base_effort: &mut IncrementalStats,
    verify_effort: &mut EquivEffort,
) -> Result<Option<MoveRecord>, AutopilotError> {
    let lib = graph.library();
    let current = graph.min_period();
    let report = graph.report();

    // --- enumerate (deterministic order, deduped across endpoints) ---
    let mut cands: Vec<Candidate> = Vec::new();
    {
        let netlist = graph.netlist();
        let mut seen: HashSet<String> = HashSet::new();
        let mut push = |cands: &mut Vec<Candidate>, c: Candidate| {
            if seen.insert(c.key()) {
                cands.push(c);
            }
        };
        let endpoints = report_timing(netlist, lib, &report, TOPK);
        for ep in &endpoints {
            let end = endpoint_net(netlist, &ep.endpoint);
            let path = report.instances_on_worst_path(end);
            let tail_start = path.len().saturating_sub(PATH_TAIL);

            // Upsizes of the gates closest to the endpoint.
            for &inst in &path[tail_start..] {
                let cell = netlist.instance(inst).cell();
                let drive = lib.cell(cell).drive;
                for mult in [2.0, 4.0] {
                    let cand = lib.closest_drive(cell, drive * mult);
                    if cand != cell {
                        push(&mut cands, Candidate::Resize { inst, cell: cand });
                    }
                }
            }

            // Fanout isolation on multi-sink path nets: every consumer
            // except the next critical one moves behind a small buffer.
            if let Some(buf) = lib.smallest(CellFunction::Buf) {
                for (i, &inst) in path.iter().enumerate().skip(tail_start) {
                    let net = netlist.instance(inst).out();
                    let critical: Option<InstId> = if i + 1 < path.len() {
                        Some(path[i + 1])
                    } else {
                        match ep.endpoint {
                            EndpointKind::RegisterD(id) => Some(id),
                            EndpointKind::PrimaryOutput(_) => None,
                        }
                    };
                    let sinks = netlist.sinks(net);
                    let moved: Vec<Sink> = sinks
                        .iter()
                        .copied()
                        .filter(|s| Some(s.inst) != critical)
                        .collect();
                    let detaches_all = moved.len() == sinks.len();
                    if sinks.len() >= 3
                        && !moved.is_empty()
                        && (!detaches_all || netlist.net(net).is_output())
                    {
                        push(
                            &mut cands,
                            Candidate::Buffer {
                                net,
                                cell: buf,
                                moved,
                            },
                        );
                    }
                }
            }

            // Single-net reroutes, while the routes still match the netlist.
            if let Some(ctx) = route_ctx.as_deref_mut() {
                if !routes_stale {
                    for &inst in &path[tail_start..] {
                        let net = netlist.instance(inst).out();
                        if ctx.can_reroute(netlist, net) {
                            push(&mut cands, Candidate::Reroute { net });
                        }
                    }
                }
            }
        }
    }

    // --- dry-evaluate every candidate ---
    let mut trials: Vec<(usize, Ps)> = Vec::with_capacity(cands.len());
    let mut reroute_par: Vec<Option<(Ff, Ps)>> = vec![None; cands.len()];
    for (i, cand) in cands.iter().enumerate() {
        let period = match cand {
            Candidate::Resize { inst, cell } => Some(graph.trial_resize(*inst, *cell)),
            Candidate::Buffer { net, cell, moved } => {
                let before = graph.stats();
                let mut probe = graph.clone();
                let p = probe
                    .insert_buffer(*net, *cell, moved)
                    .ok()
                    .map(|_| probe.min_period());
                *base_effort += probe.stats() - before;
                p
            }
            Candidate::Reroute { net } => {
                let ctx = route_ctx.as_deref_mut().expect("enumerated with context");
                let saved = ctx.routing.take_net(*net);
                let rerouted = ctx
                    .routing
                    .reroute_net(graph.netlist(), &ctx.placement, *net, &ctx.options)
                    .and_then(|_| {
                        routed_parasitics(graph.netlist(), lib, &ctx.routing, *net, ctx.repeaters)
                    });
                let p = rerouted.map(|(cap, delay)| {
                    reroute_par[i] = Some((cap, delay));
                    graph.trial_reroute(*net, cap, delay)
                });
                ctx.routing.restore_net(*net, saved);
                p
            }
        };
        if let Some(p) = period {
            if p < current {
                trials.push((i, p));
            }
        }
    }

    // Best gain wins; enumeration order breaks ties, so the loop is
    // deterministic even when two moves are bit-equal.
    let Some(&(i, trial_period)) = trials
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)))
    else {
        return Ok(None);
    };
    let cand = &cands[i];

    // --- commit ---
    let golden = (verify == VerifyLevel::Full).then(|| graph.netlist().clone());
    let (kind, detail) = match cand {
        Candidate::Resize { inst, cell } => {
            let detail = format!(
                "resize {} {}",
                graph.netlist().instance(*inst).name(),
                lib.cell(*cell).name
            );
            graph.resize_cell(*inst, *cell);
            (MoveKind::Resize, detail)
        }
        Candidate::Buffer { net, cell, moved } => {
            let netlist = graph.netlist();
            let list = moved
                .iter()
                .map(|s| format!("{}:{}", netlist.instance(s.inst).name(), s.pin))
                .collect::<Vec<_>>()
                .join(",");
            let detail = format!(
                "buffer {} {} {list}",
                netlist.net(*net).name(),
                lib.cell(*cell).name
            );
            graph.insert_buffer(*net, *cell, moved)?;
            (MoveKind::Buffer, detail)
        }
        Candidate::Reroute { net } => {
            let (cap, delay) = reroute_par[i].expect("trial stored parasitics");
            let ctx = route_ctx.expect("enumerated with context");
            // Identical routing state ⇒ reroute_net picks the same
            // jitter seed ⇒ the committed route is the trial route.
            ctx.routing.take_net(*net);
            ctx.routing
                .reroute_net(graph.netlist(), &ctx.placement, *net, &ctx.options);
            let detail = format!(
                "reroute {} {:?} {:?}",
                graph.netlist().net(*net).name(),
                cap.value(),
                delay.value()
            );
            graph.set_net_parasitics(*net, cap, delay);
            (MoveKind::Reroute, detail)
        }
    };

    let proof = match golden {
        Some(golden) => Some(prove_move(
            &golden,
            graph.netlist(),
            lib,
            kind,
            verify_effort,
        )?),
        None => None,
    };
    let gain = current - trial_period;
    debug_assert_eq!(graph.min_period(), trial_period, "commit reproduces trial");
    Ok(Some(MoveRecord {
        kind,
        detail,
        gain,
        proof,
    }))
}

/// Proves a committed move function-preserving and returns its proof.
fn prove_move(
    golden: &Netlist,
    current: &Netlist,
    lib: &Library,
    kind: MoveKind,
    verify_effort: &mut EquivEffort,
) -> Result<StageProof, AutopilotError> {
    let report = check_equiv(golden, lib, current, lib)?;
    verify_effort.merge(&report.effort);
    match report.result {
        EquivResult::Equivalent => Ok(StageProof {
            stage: kind.name(),
            effort: report.effort,
        }),
        EquivResult::Inequivalent(cex) => Err(AutopilotError::Inequivalent {
            kind,
            output: cex.output,
        }),
    }
}

/// Depth-reducing escalations: a rewrite/rebalance sweep, then (when
/// armed and the netlist is still combinational) one extra pipeline
/// stage. Each is dry-evaluated on a rebuilt graph and committed only on
/// strict improvement.
fn try_escalations<'a>(
    graph: &mut TimingGraph<'a>,
    target: &ClosureTarget,
    verify: VerifyLevel,
    base_effort: &mut IncrementalStats,
    verify_effort: &mut EquivEffort,
    routes_stale: &mut bool,
) -> Result<Option<MoveRecord>, AutopilotError> {
    let lib = graph.library();
    let current = graph.min_period();

    if target.allow_rewrite {
        let pipe = PassPipeline::depth_recovery().with_verify(verify);
        let mut nl = graph.netlist().clone();
        let deltas = pipe.run(&mut nl, lib)?;
        let substitutions: usize = deltas.iter().map(|d| d.substitutions).sum();
        if substitutions > 0 {
            let mut proof_effort = EquivEffort::default();
            let mut proofs = 0;
            for d in &deltas {
                if let Some(p) = d.proof {
                    proof_effort.merge(&p.effort);
                    verify_effort.merge(&p.effort);
                    proofs += 1;
                }
            }
            // `TimingGraph` grows a short annotation itself: surviving
            // nets keep their wires, new nets start ideal.
            let par = graph.parasitics().clone();
            let mut cand = TimingGraph::new(nl, lib, graph.clock(), Some(par));
            let p = cand.min_period();
            if p < current {
                let old = std::mem::replace(graph, cand);
                *base_effort += old.stats();
                *routes_stale = true;
                let proof =
                    (verify == VerifyLevel::Full && proofs == deltas.len()).then_some(StageProof {
                        stage: MoveKind::Rewrite.name(),
                        effort: proof_effort,
                    });
                return Ok(Some(MoveRecord {
                    kind: MoveKind::Rewrite,
                    detail: format!("rewrite {}", pipe.key()),
                    gain: current - p,
                    proof,
                }));
            }
            *base_effort += cand.stats();
        }
    }

    let combinational = graph
        .netlist()
        .iter_instances()
        .all(|(_, i)| !i.is_sequential());
    if target.allow_retime && combinational {
        let report = graph.report();
        let piped = pipeline_netlist_with(graph.netlist(), lib, RETIME_STAGES, &report)?;
        let proof = if verify == VerifyLevel::Full {
            let rep = verify_pipeline(graph.netlist(), &piped.netlist, lib)?;
            verify_effort.merge(&rep.effort);
            match rep.result {
                EquivResult::Equivalent => Some(StageProof {
                    stage: MoveKind::Retime.name(),
                    effort: rep.effort,
                }),
                EquivResult::Inequivalent(cex) => {
                    return Err(AutopilotError::Inequivalent {
                        kind: MoveKind::Retime,
                        output: cex.output,
                    })
                }
            }
        } else {
            None
        };
        // A retime renumbers the whole netlist: no annotation carries over.
        let mut cand = TimingGraph::new(piped.netlist, lib, graph.clock(), None);
        let p = cand.min_period();
        if p < current {
            let old = std::mem::replace(graph, cand);
            *base_effort += old.stats();
            *routes_stale = true;
            return Ok(Some(MoveRecord {
                kind: MoveKind::Retime,
                detail: format!("retime {RETIME_STAGES}"),
                gain: current - p,
                proof,
            }));
        }
        *base_effort += cand.stats();
    }

    Ok(None)
}

fn find_instance(netlist: &Netlist, name: &str) -> Result<InstId, AutopilotError> {
    netlist
        .iter_instances()
        .find(|(_, i)| i.name() == name)
        .map(|(id, _)| id)
        .ok_or_else(|| AutopilotError::Replay(format!("no instance named {name}")))
}

fn find_net(netlist: &Netlist, name: &str) -> Result<NetId, AutopilotError> {
    netlist
        .iter_nets()
        .find(|(_, n)| n.name() == name)
        .map(|(id, _)| id)
        .ok_or_else(|| AutopilotError::Replay(format!("no net named {name}")))
}

fn find_cell(lib: &Library, name: &str) -> Result<CellId, AutopilotError> {
    lib.cell_by_name(name)
        .map(|(id, _)| id)
        .ok_or_else(|| AutopilotError::Replay(format!("no cell named {name}")))
}

/// Re-applies a trace's committed moves, in order, to the netlist the
/// closure run started from. Rebuilds through the same [`TimingGraph`]
/// mutation paths the loop used, so generated names (buffer instances
/// and nets) reproduce exactly; the result's
/// [`netlist_fingerprint`](crate::netlist_fingerprint) must equal
/// [`ConvergenceTrace::netlist_hash`].
///
/// # Errors
///
/// Fails when a move's detail names an instance, net, or cell the
/// evolving netlist does not have — i.e. the trace does not belong to
/// this starting netlist.
pub fn replay(
    trace: &ConvergenceTrace,
    netlist: Netlist,
    lib: &Library,
    mut clock: ClockSpec,
    parasitics: Option<NetParasitics>,
) -> Result<Netlist, AutopilotError> {
    clock.period = trace.period;
    let mut graph = TimingGraph::new(netlist, lib, clock, parasitics);
    for it in &trace.iterations {
        let detail = &it.mv.detail;
        let mut tok = detail.split(' ');
        let head = tok.next().unwrap_or("");
        if head != it.mv.kind.name() {
            return Err(AutopilotError::Replay(format!(
                "detail {detail:?} does not match kind {}",
                it.mv.kind.name()
            )));
        }
        let mut arg = || -> Result<&str, AutopilotError> {
            tok.next()
                .ok_or_else(|| AutopilotError::Replay(format!("truncated detail {detail:?}")))
        };
        match it.mv.kind {
            MoveKind::Resize => {
                let inst = find_instance(graph.netlist(), arg()?)?;
                let cell = find_cell(lib, arg()?)?;
                graph.resize_cell(inst, cell);
            }
            MoveKind::Buffer => {
                let net = find_net(graph.netlist(), arg()?)?;
                let cell = find_cell(lib, arg()?)?;
                let mut moved = Vec::new();
                for part in arg()?.split(',') {
                    let (inst, pin) = part.split_once(':').ok_or_else(|| {
                        AutopilotError::Replay(format!("bad sink {part:?} in {detail:?}"))
                    })?;
                    moved.push(Sink {
                        inst: find_instance(graph.netlist(), inst)?,
                        pin: pin.parse().map_err(|_| {
                            AutopilotError::Replay(format!("bad pin {pin:?} in {detail:?}"))
                        })?,
                    });
                }
                graph.insert_buffer(net, cell, &moved)?;
            }
            MoveKind::Reroute => {
                let net = find_net(graph.netlist(), arg()?)?;
                let cap: f64 = arg()?
                    .parse()
                    .map_err(|_| AutopilotError::Replay(format!("bad cap in {detail:?}")))?;
                let delay: f64 = arg()?
                    .parse()
                    .map_err(|_| AutopilotError::Replay(format!("bad delay in {detail:?}")))?;
                graph.set_net_parasitics(net, Ff::new(cap), Ps::new(delay));
            }
            MoveKind::Rewrite => {
                let pipe = PassPipeline::parse(arg()?)
                    .ok_or_else(|| AutopilotError::Replay(format!("bad pass key in {detail:?}")))?;
                // Verification is read-only: replaying with it off
                // reproduces the committed netlist bit-for-bit.
                let mut nl = graph.netlist().clone();
                pipe.with_verify(VerifyLevel::Off).run(&mut nl, lib)?;
                let par = graph.parasitics().clone();
                graph = TimingGraph::new(nl, lib, graph.clock(), Some(par));
            }
            MoveKind::Retime => {
                let stages: usize = arg()?
                    .parse()
                    .map_err(|_| AutopilotError::Replay(format!("bad stages in {detail:?}")))?;
                let report = graph.report();
                let piped = pipeline_netlist_with(graph.netlist(), lib, stages, &report)?;
                graph = TimingGraph::new(piped.netlist, lib, graph.clock(), None);
            }
        }
    }
    Ok(graph.into_parts().0)
}
