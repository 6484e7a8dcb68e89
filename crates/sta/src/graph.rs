//! An owned, incrementally-maintained timing graph.
//!
//! [`TimingGraph`] is the flow-facing face of the incremental engine: it
//! owns a netlist plus its parasitics, caches per-net arrivals, and
//! exposes the mutation vocabulary every optimization loop needs —
//! [`resize_cell`](TimingGraph::resize_cell),
//! [`insert_buffer`](TimingGraph::insert_buffer),
//! [`retarget_net`](TimingGraph::retarget_net) — each of which marks only
//! the affected cone dirty. Queries ([`min_period`](TimingGraph::min_period),
//! [`wns`](TimingGraph::wns), [`report`](TimingGraph::report)) flush the
//! cone lazily, so a burst of mutations costs one repropagation. A sweep
//! that swaps cells all over the design and then re-annotates wires
//! marks nothing: [`resize_in_bulk`](TimingGraph::resize_in_bulk) hands
//! it the netlist, and the next full propagation times the lot.
//!
//! [`analyze`](crate::analyze) is a thin wrapper over the same engine
//! (build, full-propagate once, extract the report), so a `TimingGraph`
//! query and a fresh `analyze` of the mutated netlist agree bit for bit.

use asicgap_cells::{CellId, Library};
use asicgap_netlist::{InstId, NetId, Netlist, NetlistError, Sink};
use asicgap_tech::{Ff, Ps};

use crate::analyze::{
    endpoints, extract_report, sweep_endpoints, IoConstraints, TimingReport, OUTPUT_LOAD_UNITS,
};
use crate::clock::ClockSpec;
use crate::incremental::{ArrivalEngine, DelayModel, IncrementalStats};
use crate::parasitics::NetParasitics;

/// The library-cell delay model: the same arithmetic `analyze` has always
/// used — `LibCell::delay` against sink-cap + wire-cap + PO allowance,
/// plus the net's annotated wire delay.
pub(crate) struct StaModel<'m> {
    pub(crate) lib: &'m Library,
    pub(crate) par: &'m NetParasitics,
    pub(crate) io: IoConstraints,
}

impl DelayModel for StaModel<'_> {
    fn gate_delay(&self, netlist: &Netlist, id: InstId) -> Ps {
        let tech = &self.lib.tech;
        let inst = netlist.instance(id);
        let cell = self.lib.cell(inst.cell());
        let mut load = netlist.net_load(self.lib, inst.out(), self.par.cap(inst.out()));
        if netlist.net(inst.out()).is_output() {
            load += tech.unit_inverter_cin * OUTPUT_LOAD_UNITS;
        }
        cell.delay(tech, load) + self.par.delay(inst.out())
    }

    fn launch(&self, netlist: &Netlist, id: InstId) -> Ps {
        self.lib
            .cell(netlist.instance(id).cell())
            .kind
            .seq_timing()
            .expect("sequential cell has timing")
            .clk_to_q
    }

    fn input_arrival(&self) -> Ps {
        self.io.input_delay
    }
}

/// An owned netlist with an always-warm timer.
///
/// # Example
///
/// ```
/// use asicgap_tech::Technology;
/// use asicgap_cells::LibrarySpec;
/// use asicgap_netlist::generators;
/// use asicgap_sta::{analyze, ClockSpec, TimingGraph};
///
/// let tech = Technology::cmos025_asic();
/// let lib = LibrarySpec::rich().build(&tech);
/// let adder = generators::ripple_carry_adder(&lib, 8)?;
/// let mut graph = TimingGraph::new(adder.clone(), &lib, ClockSpec::unconstrained(), None);
///
/// // Resize one gate: only its fanout cone is repropagated, yet the
/// // answer matches a from-scratch analyze of the mutated netlist.
/// let (id, inst) = graph.netlist().iter_instances().next().expect("gates");
/// let bigger = lib.closest_drive(inst.cell(), 8.0);
/// graph.resize_cell(id, bigger);
/// let fresh = analyze(graph.netlist(), &lib, &ClockSpec::unconstrained(), None);
/// assert_eq!(graph.min_period(), fresh.min_period);
/// # Ok::<(), asicgap_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingGraph<'a> {
    lib: &'a Library,
    netlist: Netlist,
    par: NetParasitics,
    clock: ClockSpec,
    io: IoConstraints,
    engine: ArrivalEngine,
    buffers: usize,
    /// Set by [`TimingGraph::resize_in_bulk`]: the arrivals predate its
    /// swaps, so the next query propagates in full.
    stale: bool,
}

impl<'a> TimingGraph<'a> {
    /// Builds the graph and runs one full propagation. `parasitics`
    /// defaults to ideal (zero) wires.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle.
    pub fn new(
        netlist: Netlist,
        lib: &'a Library,
        clock: ClockSpec,
        parasitics: Option<NetParasitics>,
    ) -> TimingGraph<'a> {
        let mut par = parasitics.unwrap_or_else(|| NetParasitics::ideal(&netlist));
        // A back-annotation carried over from before a structural edit may
        // be short a few nets; new nets start with ideal wires.
        par.grow(netlist.net_count());
        let engine = ArrivalEngine::new(&netlist);
        let mut graph = TimingGraph {
            lib,
            netlist,
            par,
            clock,
            io: IoConstraints::default(),
            engine,
            buffers: 0,
            stale: false,
        };
        graph.full_propagate();
        graph
    }

    /// The current netlist (reflects every committed mutation).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The current parasitics.
    pub fn parasitics(&self) -> &NetParasitics {
        &self.par
    }

    /// The library this graph times against.
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// The clock constraint queries are answered against.
    pub fn clock(&self) -> ClockSpec {
        self.clock
    }

    /// Propagation-effort counters accumulated over this graph's life.
    pub fn stats(&self) -> IncrementalStats {
        self.engine.stats()
    }

    /// Dismantles the graph into its netlist and parasitics.
    pub fn into_parts(self) -> (Netlist, NetParasitics) {
        (self.netlist, self.par)
    }

    /// Swaps `inst` to a different drive of the same function and marks
    /// the affected cone dirty: the instance itself (its drive changed)
    /// and the drivers of its fanin nets (their loads changed through the
    /// new cell's input capacitance).
    ///
    /// # Panics
    ///
    /// Panics if `cell` implements a different function (see
    /// [`Netlist::set_instance_cell`]).
    pub fn resize_cell(&mut self, inst: InstId, cell: CellId) {
        if self.netlist.instance(inst).cell() == cell {
            return;
        }
        self.netlist.set_instance_cell(self.lib, inst, cell);
        for pin in 0..self.netlist.instance(inst).fanin().len() {
            let net = self.netlist.instance(inst).fanin()[pin];
            self.engine.invalidate_driver(&self.netlist, net);
        }
        self.engine.invalidate(inst);
    }

    /// Hands the netlist, the library and the current parasitics to `f`,
    /// which may only swap cells ([`Netlist::set_instance_cell`]): no
    /// instance, net or sink may be added or moved. No cone is marked
    /// dirty; the next query propagates in full instead, unless a
    /// [`TimingGraph::set_parasitics`] comes first, whose full
    /// propagation times the swaps too. This is the hand-off for a sweep
    /// that resizes much of the design and re-annotates wires before
    /// anything is queried.
    ///
    /// # Panics
    ///
    /// Panics if `f` added an instance or a net.
    pub fn resize_in_bulk(&mut self, f: impl FnOnce(&mut Netlist, &Library, &NetParasitics)) {
        let shape = (self.netlist.instance_count(), self.netlist.net_count());
        f(&mut self.netlist, self.lib, &self.par);
        assert_eq!(
            shape,
            (self.netlist.instance_count(), self.netlist.net_count()),
            "resize_in_bulk may only swap cells"
        );
        self.stale = true;
    }

    /// Inserts a single-input `cell` (buffer or inverter) driven by `net`
    /// and moves `sinks` onto the new output net. Returns the new
    /// instance and its output net. The new net starts with ideal (zero)
    /// parasitics.
    ///
    /// Dirty seeds: the driver of `net` (it lost load) and the new cell
    /// (its arrival goes from zero to real, which re-propagates through
    /// the moved sinks).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `cell` is not
    /// single-input.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `sinks` is not currently a sink of `net`.
    pub fn insert_buffer(
        &mut self,
        net: NetId,
        cell: CellId,
        sinks: &[Sink],
    ) -> Result<(InstId, NetId), NetlistError> {
        self.buffers += 1;
        let name = format!("{}__tg{}", self.netlist.net(net).name(), self.buffers);
        let new_net = self.netlist.add_net(name.clone());
        let result =
            self.netlist
                .add_instance(format!("tgbuf_{name}"), self.lib, cell, &[net], new_net);
        self.par.grow(self.netlist.net_count());
        let buf = match result {
            Ok(id) => id,
            Err(e) => {
                // Orphan net stays; harmless to timing, but the engine's
                // tables must still cover it.
                self.engine.grow(&self.netlist);
                return Err(e);
            }
        };
        for s in sinks {
            assert_eq!(
                self.netlist.instance(s.inst).fanin()[s.pin as usize],
                net,
                "insert_buffer sinks must currently be on the split net"
            );
            self.netlist.redirect_sink(s.inst, s.pin as usize, new_net);
        }
        // Grow after the redirects so the engine's topology mirror sees
        // the final sink lists.
        self.engine.grow(&self.netlist);
        let mut seeds: Vec<InstId> = vec![buf];
        seeds.extend(sinks.iter().map(|s| s.inst));
        self.engine.refresh_levels(&self.netlist, &seeds);
        self.engine.invalidate_driver(&self.netlist, net);
        self.engine.invalidate(buf);
        Ok((buf, new_net))
    }

    /// Moves input pin `pin` of `inst` from its current net onto
    /// `new_net`. Dirty seeds: both nets' drivers (their loads changed)
    /// and the instance (its input arrival changed).
    ///
    /// # Panics
    ///
    /// Panics on netlist inconsistency (see [`Netlist::redirect_sink`]).
    pub fn retarget_net(&mut self, inst: InstId, pin: usize, new_net: NetId) {
        let old_net = self.netlist.instance(inst).fanin()[pin];
        if old_net == new_net {
            return;
        }
        self.netlist.redirect_sink(inst, pin, new_net);
        self.engine.grow(&self.netlist); // re-mirror the moved sink
        self.engine.refresh_levels(&self.netlist, &[inst]);
        self.engine.invalidate_driver(&self.netlist, old_net);
        self.engine.invalidate_driver(&self.netlist, new_net);
        self.engine.invalidate(inst);
    }

    /// Replaces the parasitics (a fresh back-annotation). Every gate
    /// delay may have changed, so this triggers one full propagation.
    ///
    /// # Panics
    ///
    /// Panics if `par` was built for a netlist with more nets than this
    /// graph's.
    pub fn set_parasitics(&mut self, mut par: NetParasitics) {
        par.grow(self.netlist.net_count());
        self.par = par;
        self.full_propagate();
    }

    /// Updates the parasitics of **one** net — the ECO path a router uses
    /// after ripping up and rerouting a single net. Only the net's driver
    /// sees the wire cap and wire delay, so only that driver's cone is
    /// marked dirty; the next query flushes it incrementally instead of
    /// paying a full propagation like [`TimingGraph::set_parasitics`].
    pub fn set_net_parasitics(&mut self, net: NetId, cap: Ff, delay: Ps) {
        if self.par.cap(net) == cap && self.par.delay(net) == delay {
            return;
        }
        self.par.set(net, cap, delay);
        self.engine.invalidate_driver(&self.netlist, net);
    }

    /// Changes the clock constraint. Arrivals are unaffected — only the
    /// endpoint sweep (recomputed per query) sees the clock — so this
    /// costs nothing.
    pub fn set_clock(&mut self, clock: ClockSpec) {
        self.clock = clock;
    }

    /// Dry-evaluates a resize: the [`TimingGraph::min_period`] this graph
    /// *would* have with `inst` swapped to `cell`, computed through the
    /// undo-log trial machinery and then rolled back. On return the
    /// netlist, parasitics, and every cached arrival are bit-identical to
    /// the pre-call state; only the effort counters remember the trial
    /// (the propagation genuinely happened — that cost is real).
    ///
    /// # Panics
    ///
    /// Panics if `cell` implements a different function (see
    /// [`Netlist::set_instance_cell`]).
    pub fn trial_resize(&mut self, inst: InstId, cell: CellId) -> Ps {
        let old = self.netlist.instance(inst).cell();
        if old == cell {
            return self.min_period();
        }
        self.flush();
        self.engine.begin_trial();
        self.netlist.set_instance_cell(self.lib, inst, cell);
        for pin in 0..self.netlist.instance(inst).fanin().len() {
            let net = self.netlist.instance(inst).fanin()[pin];
            self.engine.invalidate_driver(&self.netlist, net);
        }
        self.engine.invalidate(inst);
        let period = self.min_period();
        self.engine.rollback_trial();
        self.netlist.set_instance_cell(self.lib, inst, old);
        period
    }

    /// Dry-evaluates a single-net reroute: the min period this graph
    /// *would* have with `net` carrying the given extracted parasitics.
    ///
    /// This trial is **self-undoing**: the engine's undo log restores the
    /// cached arrivals *and* the net's parasitics are put back before the
    /// call returns, so an abandoned trial leaves the graph bit-identical
    /// to its pre-call state with `full_propagations` untouched. (Earlier
    /// revisions left the trial parasitics annotated and relied on the
    /// caller restoring them — forgetting that silently poisoned every
    /// later query.)
    pub fn trial_reroute(&mut self, net: NetId, cap: Ff, delay: Ps) -> Ps {
        let (old_cap, old_delay) = (self.par.cap(net), self.par.delay(net));
        if old_cap == cap && old_delay == delay {
            return self.min_period();
        }
        self.flush();
        self.engine.begin_trial();
        self.par.set(net, cap, delay);
        self.engine.invalidate_driver(&self.netlist, net);
        let period = self.min_period();
        self.engine.rollback_trial();
        self.par.set(net, old_cap, old_delay);
        period
    }

    /// Arrival time of a net (flushes pending updates first).
    pub fn arrival(&mut self, net: NetId) -> Ps {
        self.flush();
        self.engine.arrival(net)
    }

    /// Minimum feasible clock period over all endpoints, identical to
    /// [`TimingReport::min_period`] from a fresh analyze.
    pub fn min_period(&mut self) -> Ps {
        self.flush();
        let sweep = sweep_endpoints(
            &self.netlist,
            self.lib,
            &self.clock,
            &self.io,
            self.engine.arrivals(),
            self.engine.launch_flags(),
        );
        sweep.end_arrival + sweep.extra
    }

    /// Worst slack at the graph's clock period (negative = violation).
    pub fn wns(&mut self) -> Ps {
        self.clock.period - self.min_period()
    }

    /// Total negative slack at the graph's clock period: the sum of every
    /// negative endpoint slack, `period - (arrival + (setup + capture))`
    /// (zero when nothing violates). Traces no paths.
    pub fn tns(&mut self) -> Ps {
        self.flush();
        let mut tns = Ps::ZERO;
        for e in endpoints(&self.netlist, self.lib, &self.clock) {
            let slack = self.clock.period - (self.engine.arrival(e.net) + (e.setup + e.capture));
            if slack < Ps::ZERO {
                tns += slack;
            }
        }
        tns
    }

    /// A full [`TimingReport`] of the current state — bit-for-bit what
    /// [`analyze`](crate::analyze) returns on the mutated netlist. Copies
    /// the per-net tables; [`TimingGraph::finish`] moves them instead.
    pub fn report(&mut self) -> TimingReport {
        self.flush();
        extract_report(
            &self.netlist,
            self.lib,
            &self.clock,
            &self.io,
            self.engine.tables(),
        )
    }

    /// Ends the graph: the [`TimingReport`] [`TimingGraph::report`] would
    /// return, and the netlist, with the per-net tables moved into the
    /// report rather than copied.
    pub fn finish(mut self) -> (TimingReport, Netlist) {
        self.flush();
        let report = extract_report(
            &self.netlist,
            self.lib,
            &self.clock,
            &self.io,
            self.engine.into_tables(),
        );
        (report, self.netlist)
    }

    fn flush(&mut self) {
        if self.stale {
            self.full_propagate();
            return;
        }
        if self.engine.is_clean() {
            return;
        }
        let model = StaModel {
            lib: self.lib,
            par: &self.par,
            io: self.io,
        };
        self.engine.flush(&self.netlist, &model);
    }

    fn full_propagate(&mut self) {
        let model = StaModel {
            lib: self.lib,
            par: &self.par,
            io: self.io,
        };
        self.engine.full_propagate(&self.netlist, &model);
        self.stale = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use asicgap_cells::{CellFunction, LibrarySpec};
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    fn setup() -> (Technology, Library) {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        (tech, lib)
    }

    #[test]
    fn fresh_graph_matches_analyze() {
        let (_, lib) = setup();
        let n = generators::array_multiplier(&lib, 8).expect("mult8");
        let fresh = analyze(&n, &lib, &ClockSpec::unconstrained(), None);
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        assert_eq!(g.min_period(), fresh.min_period);
        assert_eq!(g.wns(), fresh.wns);
        let r = g.report();
        assert_eq!(r.min_period, fresh.min_period);
        assert_eq!(r.group_worst, fresh.group_worst);
    }

    #[test]
    fn resize_updates_exactly_like_full_reanalysis() {
        let (_, lib) = setup();
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        // Upsize every 5th combinational gate, checking after each.
        let ids: Vec<InstId> = g.netlist().iter_instances().map(|(id, _)| id).collect();
        for id in ids.iter().step_by(5) {
            let cell = g.netlist().instance(*id).cell();
            let bigger = lib.closest_drive(cell, lib.cell(cell).drive * 4.0);
            g.resize_cell(*id, bigger);
            let fresh = analyze(g.netlist(), &lib, &ClockSpec::unconstrained(), None);
            assert_eq!(g.min_period(), fresh.min_period);
        }
        let s = g.stats();
        assert_eq!(s.full_propagations, 1);
        assert!(s.incremental_updates > 0);
    }

    #[test]
    fn insert_buffer_splits_fanout_and_stays_consistent() {
        let (_, lib) = setup();
        let n = generators::parity_tree(&lib, 16).expect("parity");
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        // Find the heaviest net and put half its sinks behind a buffer.
        let (net, sinks) = g
            .netlist()
            .iter_nets()
            .max_by_key(|(_, n)| n.sinks().len())
            .map(|(id, n)| (id, n.sinks().to_vec()))
            .expect("has nets");
        let buf = lib.smallest(CellFunction::Buf).expect("buf cell");
        let moved = &sinks[..sinks.len() / 2];
        let (inst, new_net) = g.insert_buffer(net, buf, moved).expect("inserts");
        assert_eq!(g.netlist().net(new_net).sinks().len(), moved.len());
        assert_eq!(g.netlist().instance(inst).fanin()[0], net);
        let fresh = analyze(g.netlist(), &lib, &ClockSpec::unconstrained(), None);
        assert_eq!(g.min_period(), fresh.min_period);
        assert_eq!(g.report().min_period, fresh.min_period);
    }

    #[test]
    fn retarget_net_tracks_load_changes() {
        let (_, lib) = setup();
        let n = generators::alu(&lib, 8).expect("alu8");
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        // Move one sink of the heaviest net onto a buffered copy.
        let (net, sink) = g
            .netlist()
            .iter_nets()
            .filter(|(_, n)| n.sinks().len() > 2)
            .map(|(id, n)| (id, n.sinks()[0]))
            .next()
            .expect("fanout net");
        let buf = lib.smallest(CellFunction::Buf).expect("buf cell");
        let (_, new_net) = g.insert_buffer(net, buf, &[]).expect("inserts");
        g.retarget_net(sink.inst, sink.pin as usize, new_net);
        let fresh = analyze(g.netlist(), &lib, &ClockSpec::unconstrained(), None);
        assert_eq!(g.min_period(), fresh.min_period);
    }

    #[test]
    fn set_parasitics_triggers_full_repropagation() {
        let (_, lib) = setup();
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let mut par = NetParasitics::ideal(&n);
        for (id, _) in n.iter_nets() {
            par.set(id, asicgap_tech::Ff::new(10.0), Ps::new(5.0));
        }
        let fresh = analyze(&n, &lib, &ClockSpec::unconstrained(), Some(&par));
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        let ideal_period = g.min_period();
        g.set_parasitics(par);
        assert_eq!(g.min_period(), fresh.min_period);
        assert!(g.min_period() > ideal_period);
        assert_eq!(g.stats().full_propagations, 2);
    }

    #[test]
    fn set_net_parasitics_is_incremental_and_exact() {
        let (_, lib) = setup();
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let mut g = TimingGraph::new(n.clone(), &lib, ClockSpec::unconstrained(), None);
        // Annotate a handful of nets one at a time, as a router ECO
        // loop would, and check each step against a fresh analyze.
        let nets: Vec<NetId> = g.netlist().iter_nets().map(|(id, _)| id).collect();
        for (k, net) in nets.iter().step_by(7).enumerate() {
            g.set_net_parasitics(*net, Ff::new(5.0 + k as f64), Ps::new(3.0 * k as f64));
            let fresh = analyze(
                g.netlist(),
                &lib,
                &ClockSpec::unconstrained(),
                Some(g.parasitics()),
            );
            assert_eq!(g.min_period(), fresh.min_period);
        }
        assert_eq!(
            g.stats().full_propagations,
            1,
            "per-net annotation must never trigger a full propagation"
        );
        assert!(g.stats().incremental_updates > 0);
    }

    #[test]
    fn set_clock_is_free_and_correct() {
        let (_, lib) = setup();
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let mut g = TimingGraph::new(n.clone(), &lib, ClockSpec::unconstrained(), None);
        let base = g.min_period();
        let skewed = ClockSpec {
            skew: Ps::new(100.0),
            ..ClockSpec::unconstrained()
        };
        g.set_clock(skewed);
        let fresh = analyze(&n, &lib, &skewed, None);
        assert_eq!(g.min_period(), fresh.min_period);
        assert!((g.min_period() - base - Ps::new(100.0)).abs().value() < 1e-9);
        assert_eq!(g.stats().full_propagations, 1, "no repropagation needed");
    }

    #[test]
    fn abandoned_trial_resize_leaves_graph_bit_identical() {
        let (_, lib) = setup();
        let n = generators::alu(&lib, 8).expect("alu8");
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        let committed = g.min_period();
        // Downsize the gate driving the worst endpoint: a guaranteed hit.
        let report = g.report();
        let worst = crate::topk::report_timing(g.netlist(), &lib, &report, 1);
        let end = match worst[0].endpoint {
            crate::analyze::EndpointKind::RegisterD(id) => g.netlist().instance(id).fanin()[0],
            crate::analyze::EndpointKind::PrimaryOutput(n) => g.netlist().outputs()[n].1,
        };
        let id = *report
            .instances_on_worst_path(end)
            .last()
            .expect("path has gates");
        let cell = g.netlist().instance(id).cell();
        let bigger = lib.closest_drive(cell, lib.cell(cell).drive * 8.0);
        assert_ne!(bigger, cell, "library must offer a larger drive");
        let trial = g.trial_resize(id, bigger);
        assert_ne!(
            trial.value().to_bits(),
            committed.value().to_bits(),
            "trial must see the resized timing"
        );
        // Abandoned: committed state is untouched, bit for bit.
        assert_eq!(g.netlist().instance(id).cell(), cell);
        assert_eq!(
            g.min_period().value().to_bits(),
            committed.value().to_bits()
        );
        let fresh = analyze(g.netlist(), &lib, &ClockSpec::unconstrained(), None);
        assert_eq!(g.min_period(), fresh.min_period);
        assert_eq!(g.stats().full_propagations, 1);
        // And the trial's answer was honest: committing the same move
        // lands exactly where the trial said it would.
        g.resize_cell(id, bigger);
        assert_eq!(g.min_period().value().to_bits(), trial.value().to_bits());
    }

    #[test]
    fn abandoned_trial_reroute_is_self_undoing() {
        let (_, lib) = setup();
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        let committed = g.min_period();
        // Detour the worst endpoint's net: directly on the critical path.
        let report = g.report();
        let worst = crate::topk::report_timing(g.netlist(), &lib, &report, 1);
        let net = match worst[0].endpoint {
            crate::analyze::EndpointKind::RegisterD(id) => g.netlist().instance(id).fanin()[0],
            crate::analyze::EndpointKind::PrimaryOutput(n) => g.netlist().outputs()[n].1,
        };
        let trial = g.trial_reroute(net, Ff::new(250.0), Ps::new(180.0));
        assert!(trial > committed, "a long detour must cost time");
        // The trial restored its own parasitics: no caller cleanup.
        assert_eq!(g.parasitics().cap(net), Ff::ZERO);
        assert_eq!(g.parasitics().delay(net), Ps::ZERO);
        assert_eq!(
            g.min_period().value().to_bits(),
            committed.value().to_bits()
        );
        let fresh = analyze(
            g.netlist(),
            &lib,
            &ClockSpec::unconstrained(),
            Some(g.parasitics()),
        );
        assert_eq!(g.min_period(), fresh.min_period);
        assert_eq!(
            g.stats().full_propagations,
            1,
            "an abandoned reroute trial must never repropagate the world"
        );
        // Committing the same annotation reproduces the trial's answer.
        g.set_net_parasitics(net, Ff::new(250.0), Ps::new(180.0));
        assert_eq!(g.min_period().value().to_bits(), trial.value().to_bits());
    }

    #[test]
    fn finish_reports_what_report_does() {
        let (_, lib) = setup();
        let n = generators::alu(&lib, 8).expect("alu8");
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        let ids: Vec<InstId> = g.netlist().iter_instances().map(|(id, _)| id).collect();
        for id in ids.iter().step_by(4) {
            let cell = g.netlist().instance(*id).cell();
            g.resize_cell(*id, lib.closest_drive(cell, 6.0));
        }
        let mut copy = g.clone();
        let (finished, netlist) = g.finish();
        let reported = copy.report();
        assert_eq!(format!("{finished:?}"), format!("{reported:?}"));
        assert_eq!(
            netlist
                .iter_instances()
                .map(|(_, i)| i.cell())
                .collect::<Vec<_>>(),
            copy.netlist()
                .iter_instances()
                .map(|(_, i)| i.cell())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn mutation_burst_costs_one_flush() {
        let (_, lib) = setup();
        let n = generators::array_multiplier(&lib, 6).expect("mult6");
        let mut g = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), None);
        let ids: Vec<InstId> = g.netlist().iter_instances().map(|(id, _)| id).collect();
        for id in ids.iter().take(20) {
            let cell = g.netlist().instance(*id).cell();
            g.resize_cell(*id, lib.closest_drive(cell, 8.0));
        }
        let before = g.stats().incremental_updates;
        let _ = g.min_period();
        assert_eq!(g.stats().incremental_updates, before + 1);
    }
}
