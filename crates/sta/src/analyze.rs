//! The timing engine: arrival propagation, endpoint checks, min-period.

use asicgap_cells::Library;
use asicgap_netlist::{InstId, NetId, Netlist};
use asicgap_tech::{Ps, Technology};

use crate::clock::ClockSpec;
use crate::graph::StaModel;
use crate::incremental::{ArrivalEngine, ArrivalTables, IncrementalStats};
use crate::parasitics::NetParasitics;
use crate::report::{PathStep, TimingPath};

/// Where a timing path terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// The D pin of a flip-flop or latch.
    RegisterD(InstId),
    /// Primary output number `n`.
    PrimaryOutput(usize),
}

/// Standard STA path groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathGroup {
    /// Register to register — sets the clock frequency of a pipeline.
    RegToReg,
    /// Primary input to register.
    InToReg,
    /// Register to primary output.
    RegToOut,
    /// Primary input to primary output (pure combinational).
    InToOut,
}

impl PathGroup {
    /// All groups in reporting order.
    pub const ALL: [PathGroup; 4] = [
        PathGroup::RegToReg,
        PathGroup::InToReg,
        PathGroup::RegToOut,
        PathGroup::InToOut,
    ];
}

/// Extra load assumed on every primary output, in unit-inverter input caps
/// (the pad / next-block input a real PO would drive). Shared by every
/// pass that re-derives loads (drive selection, post-layout resize,
/// continuous sizing) so they agree with the timer.
pub const OUTPUT_LOAD_UNITS: f64 = 4.0;

/// Boundary timing constraints (`set_input_delay` / `set_output_delay`
/// in commercial-tool terms): how much of the cycle the surrounding chip
/// consumes before data arrives at this block's inputs and after it
/// leaves its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct IoConstraints {
    /// Arrival time of all primary inputs relative to the launching edge.
    pub input_delay: Ps,
    /// Margin reserved after every primary output before the capturing
    /// edge.
    pub output_delay: Ps,
}

/// The result of [`analyze`].
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// The clock constraint analysed against.
    pub clock: ClockSpec,
    /// Arrival time per net (index = [`NetId::index`]).
    arrival: Vec<Ps>,
    /// Worst predecessor instance per net, for path tracing.
    worst_driver: Vec<Option<InstId>>,
    /// Worst predecessor net (through the worst driver) per net.
    worst_pred: Vec<Option<NetId>>,
    /// `true` if the worst path into this net originates at a register.
    from_register: Vec<bool>,
    /// Worst endpoint delay per path group (raw arrival at the endpoint).
    pub group_worst: Vec<(PathGroup, Ps)>,
    /// Minimum feasible clock period: worst endpoint arrival plus its
    /// capture overhead (setup + skew + jitter for registers).
    pub min_period: Ps,
    /// Worst negative slack at [`ClockSpec::period`] (negative = violation).
    pub wns: Ps,
    /// The traced critical path.
    pub critical: TimingPath,
    /// The endpoint of the critical path.
    pub critical_endpoint: EndpointKind,
    /// Propagation-effort counters from the engine that produced this
    /// report (one full propagation for a plain [`analyze`]; the
    /// accumulated full/incremental mix for a
    /// [`TimingGraph`](crate::TimingGraph) report).
    pub stats: IncrementalStats,
}

impl TimingReport {
    /// Arrival time of a net.
    pub fn arrival(&self, net: NetId) -> Ps {
        self.arrival[net.index()]
    }

    /// The critical path's raw delay, in FO4s of `tech` — the paper's
    /// logic-depth currency.
    pub fn critical_path_fo4(&self, tech: &Technology) -> f64 {
        self.critical.delay / tech.fo4()
    }

    /// The maximum clock frequency implied by [`TimingReport::min_period`].
    pub fn fmax(&self) -> asicgap_tech::Mhz {
        self.min_period.frequency()
    }

    /// Worst arrival for one path group, if any path exists in it.
    pub fn group(&self, g: PathGroup) -> Option<Ps> {
        self.group_worst
            .iter()
            .find(|(pg, _)| *pg == g)
            .map(|&(_, d)| d)
    }

    /// The instance driving the worst path into `net` (none for primary
    /// inputs). Sizing walks the critical path with this.
    pub fn worst_driver(&self, net: NetId) -> Option<InstId> {
        self.worst_driver[net.index()]
    }

    /// The predecessor net on the worst path into `net`.
    pub fn worst_pred(&self, net: NetId) -> Option<NetId> {
        self.worst_pred[net.index()]
    }

    /// `true` if the worst path into `net` launches from a register.
    pub fn is_from_register(&self, net: NetId) -> bool {
        self.from_register[net.index()]
    }

    /// The instances on the worst path into `net`, source first.
    pub fn instances_on_worst_path(&self, net: NetId) -> Vec<InstId> {
        let mut out = Vec::new();
        let mut cur = net;
        while let Some(drv) = self.worst_driver[cur.index()] {
            out.push(drv);
            match self.worst_pred[cur.index()] {
                Some(p) => cur = p,
                None => break,
            }
        }
        out.reverse();
        out
    }
}

/// Runs static timing analysis.
///
/// # Example
///
/// ```
/// use asicgap_tech::Technology;
/// use asicgap_cells::LibrarySpec;
/// use asicgap_netlist::generators;
/// use asicgap_sta::{analyze, ClockSpec};
///
/// let tech = Technology::cmos025_asic();
/// let lib = LibrarySpec::rich().build(&tech);
/// let adder = generators::kogge_stone_adder(&lib, 16)?;
/// let report = analyze(&adder, &lib, &ClockSpec::unconstrained(), None);
/// // A prefix adder is log-depth: comfortably under 25 FO4 at 16 bits.
/// assert!(report.critical_path_fo4(&tech) < 25.0);
/// # Ok::<(), asicgap_netlist::NetlistError>(())
/// ```
///
/// Arrival semantics:
/// - primary inputs arrive at t = 0;
/// - register outputs arrive at their clk→Q;
/// - each combinational cell adds its load-dependent delay
///   (`asicgap_cells::LibCell::delay`) plus the net's annotated wire delay;
/// - register D pins must meet `period − setup − skew − jitter`;
/// - primary outputs must meet `period − skew` and carry a fixed
///   4-unit-inverter external load.
///
/// Latches are analysed conservatively as edge-triggered here; time
/// borrowing is modelled in `asicgap-pipeline`.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle (validated netlists do
/// not) or if `parasitics` was built for a different netlist.
pub fn analyze(
    netlist: &Netlist,
    lib: &Library,
    clock: &ClockSpec,
    parasitics: Option<&NetParasitics>,
) -> TimingReport {
    analyze_with_io(netlist, lib, clock, parasitics, &IoConstraints::default())
}

/// Like [`analyze`], with explicit boundary constraints: primary inputs
/// arrive at `io.input_delay` and primary outputs must leave
/// `io.output_delay` of the cycle for the consumer.
///
/// # Panics
///
/// As for [`analyze`].
pub(crate) fn analyze_with_io(
    netlist: &Netlist,
    lib: &Library,
    clock: &ClockSpec,
    parasitics: Option<&NetParasitics>,
    io: &IoConstraints,
) -> TimingReport {
    let ideal;
    let par = match parasitics {
        Some(p) => p,
        None => {
            ideal = NetParasitics::ideal(netlist);
            &ideal
        }
    };
    let mut engine = ArrivalEngine::new(netlist);
    let model = StaModel { lib, par, io: *io };
    engine.full_propagate(netlist, &model);
    extract_report(netlist, lib, clock, io, engine.into_tables())
}

/// The result of one endpoint sweep: per-group worsts plus the single
/// worst endpoint and its capture overhead.
pub(crate) struct EndpointSweep {
    pub(crate) group_worst: Vec<(PathGroup, Ps)>,
    pub(crate) endpoint: EndpointKind,
    pub(crate) end_arrival: Ps,
    pub(crate) extra: Ps,
    pub(crate) end_net: NetId,
}

/// One timing endpoint: the net it captures, and what it adds to that
/// net's arrival as two terms each caller sums in its own order — a
/// register D pin's setup time and the clock's skew + jitter, or, for a
/// primary output, zero (which adds exactly nothing) and the skew.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Endpoint {
    pub(crate) kind: EndpointKind,
    pub(crate) net: NetId,
    pub(crate) setup: Ps,
    pub(crate) capture: Ps,
}

/// Every endpoint of `netlist`: register D pins in instance order, then
/// primary outputs. The one enumeration behind the endpoint sweep,
/// [`report_timing`](crate::report_timing) and
/// [`TimingGraph::tns`](crate::TimingGraph::tns).
pub(crate) fn endpoints<'a>(
    netlist: &'a Netlist,
    lib: &'a Library,
    clock: &ClockSpec,
) -> impl Iterator<Item = Endpoint> + 'a {
    let (skew, capture) = (clock.skew, clock.skew + clock.jitter);
    let registers = netlist
        .iter_instances()
        .filter(|(_, inst)| inst.is_sequential())
        .map(move |(id, inst)| Endpoint {
            kind: EndpointKind::RegisterD(id),
            net: inst.fanin()[0],
            setup: lib
                .cell(inst.cell())
                .kind
                .seq_timing()
                .expect("sequential cell has timing")
                .setup,
            capture,
        });
    let outputs = netlist
        .outputs()
        .iter()
        .enumerate()
        .map(move |(k, &(_, net))| Endpoint {
            kind: EndpointKind::PrimaryOutput(k),
            net,
            setup: Ps::ZERO,
            capture: skew,
        });
    registers.chain(outputs)
}

/// Sweeps every endpoint against the cached arrivals. Pure read: shared
/// by [`analyze_with_io`] and the [`TimingGraph`](crate::TimingGraph)
/// period/slack queries.
///
/// # Panics
///
/// Panics if the netlist has no endpoint at all.
pub(crate) fn sweep_endpoints(
    netlist: &Netlist,
    lib: &Library,
    clock: &ClockSpec,
    io: &IoConstraints,
    arrival: &[Ps],
    from_register: &[bool],
) -> EndpointSweep {
    let mut group_worst: Vec<(PathGroup, Ps)> = Vec::new();
    let mut bump = |g: PathGroup, d: Ps| match group_worst.iter_mut().find(|(pg, _)| *pg == g) {
        Some((_, w)) => *w = w.max(d),
        None => group_worst.push((g, d)),
    };
    let mut worst: Option<(EndpointKind, Ps, Ps, NetId)> = None; // (kind, arrival, required_extra, net)
    for e in endpoints(netlist, lib, clock) {
        let a = arrival[e.net.index()];
        let launched = from_register[e.net.index()];
        let (group, need, extra) = match e.kind {
            EndpointKind::RegisterD(_) => {
                let group = if launched {
                    PathGroup::RegToReg
                } else {
                    PathGroup::InToReg
                };
                (group, a + e.setup + e.capture, e.setup + e.capture)
            }
            EndpointKind::PrimaryOutput(_) => {
                let group = if launched {
                    PathGroup::RegToOut
                } else {
                    PathGroup::InToOut
                };
                let extra = e.capture + io.output_delay;
                (group, a + extra, extra)
            }
        };
        bump(group, a);
        if worst.is_none_or(|(_, _, _, _)| need > period_need(&worst)) {
            worst = Some((e.kind, a, extra, e.net));
        }
    }

    let (endpoint, end_arrival, extra, end_net) =
        worst.expect("netlist has at least one endpoint (primary output or register)");
    EndpointSweep {
        group_worst,
        endpoint,
        end_arrival,
        extra,
        end_net,
    }
}

/// Turns a fully-propagated engine's tables into a [`TimingReport`]:
/// endpoint sweep, min-period/WNS, critical-path trace. Takes the tables
/// by value so a plain [`analyze`] copies nothing.
pub(crate) fn extract_report(
    netlist: &Netlist,
    lib: &Library,
    clock: &ClockSpec,
    io: &IoConstraints,
    tables: ArrivalTables,
) -> TimingReport {
    let sweep = sweep_endpoints(
        netlist,
        lib,
        clock,
        io,
        &tables.arrival,
        &tables.from_register,
    );
    let min_period = sweep.end_arrival + sweep.extra;
    let wns = clock.period - min_period;
    let critical = trace_path(
        netlist,
        lib,
        &tables.arrival,
        &tables.worst_driver,
        &tables.worst_pred,
        sweep.end_net,
        sweep.end_arrival,
    );
    TimingReport {
        clock: *clock,
        arrival: tables.arrival,
        worst_driver: tables.worst_driver,
        worst_pred: tables.worst_pred,
        from_register: tables.from_register,
        group_worst: sweep.group_worst,
        min_period,
        wns,
        critical,
        critical_endpoint: sweep.endpoint,
        stats: tables.stats,
    }
}

fn period_need(worst: &Option<(EndpointKind, Ps, Ps, NetId)>) -> Ps {
    match worst {
        Some((_, a, e, _)) => *a + *e,
        None => Ps::new(f64::NEG_INFINITY),
    }
}

fn trace_path(
    netlist: &Netlist,
    lib: &Library,
    arrival: &[Ps],
    worst_driver: &[Option<InstId>],
    worst_pred: &[Option<NetId>],
    end_net: NetId,
    end_arrival: Ps,
) -> TimingPath {
    let mut steps = Vec::new();
    let mut net = end_net;
    // Walk back until a primary input (no driver) or a register launch.
    while let Some(driver) = worst_driver[net.index()] {
        let inst = netlist.instance(driver);
        let pred = worst_pred[net.index()];
        let prev_arrival = pred.map_or(Ps::ZERO, |p| arrival[p.index()]);
        steps.push(PathStep {
            instance: inst.name().to_string(),
            cell: lib.cell(inst.cell()).name.clone(),
            through_net: netlist.net(net).name().to_string(),
            incr: arrival[net.index()] - prev_arrival,
            total: arrival[net.index()],
        });
        if inst.is_sequential() {
            break; // launched from a register
        }
        match pred {
            Some(p) => net = p,
            None => break,
        }
    }
    steps.reverse();
    TimingPath {
        steps,
        delay: end_arrival,
        endpoint_net: netlist.net(end_net).name().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{generators, NetlistBuilder};
    use asicgap_tech::Technology;

    fn setup() -> (Technology, asicgap_cells::Library) {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        (tech, lib)
    }

    #[test]
    fn inverter_chain_delay_adds_up() {
        let (tech, lib) = setup();
        let mut b = NetlistBuilder::new("chain", &lib);
        let mut n = b.input("a");
        for _ in 0..10 {
            n = b.inv(n).expect("inv");
        }
        b.output("y", n);
        let nl = b.finish().expect("valid");
        let r = analyze(&nl, &lib, &ClockSpec::unconstrained(), None);
        // 9 inverters drive an identical inverter (h=1, d = 2 tau each);
        // the last drives the 4-unit PO load: d = tau*(1 + 4/x).
        let x = {
            use asicgap_cells::CellFunction;
            lib.cell(lib.smallest(CellFunction::Inv).expect("inv"))
                .drive
        };
        let expect = tech.tau() * (9.0 * 2.0) + tech.tau() * (1.0 + 4.0 / x);
        assert!(
            (r.critical.delay / expect - 1.0).abs() < 1e-9,
            "got {} want {}",
            r.critical.delay,
            expect
        );
        assert_eq!(r.critical.steps.len(), 10);
    }

    #[test]
    fn deeper_adder_is_slower() {
        let (_, lib) = setup();
        let rca = generators::ripple_carry_adder(&lib, 16).expect("rca");
        let ks = generators::kogge_stone_adder(&lib, 16).expect("ks");
        let c = ClockSpec::unconstrained();
        let r_rca = analyze(&rca, &lib, &c, None);
        let r_ks = analyze(&ks, &lib, &c, None);
        assert!(r_rca.critical.delay > r_ks.critical.delay * 1.5);
    }

    #[test]
    fn path_groups_classified() {
        let (_, lib) = setup();
        let mut b = NetlistBuilder::new("mix", &lib);
        let a = b.input("a");
        let q = b.dff(a).expect("dff");
        let x = b.inv(q).expect("inv");
        let q2 = b.dff(x).expect("dff2");
        let po = b.inv(q2).expect("inv2");
        b.output("y", po);
        let nl = b.finish().expect("valid");
        let r = analyze(&nl, &lib, &ClockSpec::unconstrained(), None);
        assert!(r.group(PathGroup::RegToReg).is_some());
        assert!(r.group(PathGroup::InToReg).is_some());
        assert!(r.group(PathGroup::RegToOut).is_some());
        assert!(r.group(PathGroup::InToOut).is_none());
    }

    #[test]
    fn min_period_includes_sequencing_and_skew() {
        let (tech, lib) = setup();
        let mut b = NetlistBuilder::new("pipe", &lib);
        let a = b.input("a");
        let q = b.dff(a).expect("dff");
        let mut n = q;
        for _ in 0..5 {
            n = b.inv(n).expect("inv");
        }
        let q2 = b.dff(n).expect("dff2");
        b.output("y", q2);
        let nl = b.finish().expect("valid");

        let no_skew = ClockSpec::unconstrained();
        let skewed = ClockSpec {
            skew: Ps::new(100.0),
            ..no_skew
        };
        let r0 = analyze(&nl, &lib, &no_skew, None);
        let r1 = analyze(&nl, &lib, &skewed, None);
        assert!(
            (r1.min_period - r0.min_period - Ps::new(100.0))
                .abs()
                .value()
                < 1e-9,
            "skew adds linearly to min period"
        );
        // Min period exceeds pure logic delay by clk->Q + setup.
        let logic_only = r0.group(PathGroup::RegToReg).expect("reg-reg path");
        assert!(r0.min_period > logic_only);
        let _ = tech;
    }

    #[test]
    fn io_constraints_shift_arrivals_and_requirements() {
        let (_, lib) = setup();
        let adder = generators::ripple_carry_adder(&lib, 8).expect("rca");
        let clock = ClockSpec::unconstrained();
        let base = analyze(&adder, &lib, &clock, None);
        let io = IoConstraints {
            input_delay: Ps::new(200.0),
            output_delay: Ps::new(150.0),
        };
        let constrained = analyze_with_io(&adder, &lib, &clock, None, &io);
        // The pure-combinational path picks up both terms.
        let delta = constrained.min_period - base.min_period;
        assert!(
            (delta - Ps::new(350.0)).abs().value() < 1e-9,
            "io delays add linearly, got {delta}"
        );
    }

    #[test]
    fn wire_parasitics_slow_the_path() {
        let (_, lib) = setup();
        let adder = generators::ripple_carry_adder(&lib, 8).expect("rca");
        let mut par = NetParasitics::ideal(&adder);
        for (id, _) in adder.iter_nets() {
            par.set(id, asicgap_tech::Ff::new(10.0), Ps::new(5.0));
        }
        let c = ClockSpec::unconstrained();
        let fast = analyze(&adder, &lib, &c, None);
        let slow = analyze(&adder, &lib, &c, Some(&par));
        assert!(slow.critical.delay > fast.critical.delay * 1.3);
    }

    #[test]
    fn wns_sign_tracks_constraint() {
        let (_, lib) = setup();
        let adder = generators::ripple_carry_adder(&lib, 32).expect("rca");
        let r = analyze(&adder, &lib, &ClockSpec::unconstrained(), None);
        let tight = ClockSpec::with_skew_fraction(r.min_period * 0.5, 0.0);
        let loose = ClockSpec::with_skew_fraction(r.min_period * 2.0, 0.0);
        assert!(analyze(&adder, &lib, &tight, None).wns < Ps::ZERO);
        assert!(analyze(&adder, &lib, &loose, None).wns > Ps::ZERO);
    }
}
