//! Load-driven drive-strength selection.
//!
//! §6.2: "Initial logic synthesis may choose drive strengths using
//! estimations for wire lengths and the net load a gate has to drive".
//! This pass walks the netlist against actual sink loads and snaps every
//! instance to the library drive whose stage gain is closest to the
//! logical-effort target (≈ 4).

use asicgap_cells::{CellId, Library};
use asicgap_netlist::{InstId, NetDriver, Netlist};
use asicgap_sta::{NetParasitics, TimingGraph, OUTPUT_LOAD_UNITS};
use asicgap_tech::Ff;

/// Parameters for drive selection.
#[derive(Debug, Clone, Copy)]
pub struct DriveOptions<'p> {
    /// Per-net wire parasitics to include in loads; `None` means ideal
    /// (zero) wires — the pre-layout estimate. Ignored by
    /// [`select_drives_on`], where the graph's own annotation is
    /// authoritative.
    pub parasitics: Option<&'p NetParasitics>,
    /// Logical-effort stage gain to aim each instance at.
    pub target_gain: f64,
    /// Upper bound on sweeps (loads depend on sink input caps, which
    /// change as sinks are resized). Selection stops earlier, after the
    /// first sweep that swaps nothing: it has reached a fixed point, and
    /// further sweeps would find nothing to do. 2–3 converge in practice.
    pub passes: usize,
}

impl Default for DriveOptions<'_> {
    fn default() -> Self {
        DriveOptions {
            parasitics: None,
            target_gain: 4.0,
            passes: 3,
        }
    }
}

/// The per-instance decision both entry points share: the library drive
/// of the same function/family closest to `target_gain` under the
/// instance's current output load, or `None` if the instance should stay.
fn best_drive(
    netlist: &Netlist,
    lib: &Library,
    parasitics: &NetParasitics,
    id: InstId,
    target_gain: f64,
) -> Option<CellId> {
    let tech = &lib.tech;
    let inst = netlist.instance(id);
    let mut load = netlist.net_load(lib, inst.out(), parasitics.cap(inst.out()));
    if netlist.net(inst.out()).is_output() {
        load += tech.unit_inverter_cin * OUTPUT_LOAD_UNITS;
    }
    if load <= Ff::ZERO {
        return None;
    }
    let cell = lib.cell(inst.cell());
    match lib.drive_for_gain(cell.function, cell.family, load, target_gain) {
        Ok(best) if best != inst.cell() => Some(best),
        _ => None,
    }
}

/// Instance visit order: reverse topological (outputs first, so
/// downstream caps settle), then the sequential cells. Resizing never
/// changes connectivity, so one order serves every pass.
fn sweep_order(netlist: &Netlist) -> Vec<InstId> {
    let mut order = netlist
        .topo_order()
        .expect("drive selection requires an acyclic netlist");
    order.reverse();
    order.extend(
        netlist
            .iter_instances()
            .filter(|(_, i)| i.is_sequential())
            .map(|(id, _)| id),
    );
    order
}

/// What a sweep reads loads from and commits swaps to.
trait Target {
    fn parts(&self) -> (&Netlist, &Library, &NetParasitics);
    fn resize(&mut self, id: InstId, cell: CellId);
}

/// A bare netlist under fixed parasitics.
struct Bare<'n> {
    netlist: &'n mut Netlist,
    lib: &'n Library,
    par: &'n NetParasitics,
}

impl Target for Bare<'_> {
    fn parts(&self) -> (&Netlist, &Library, &NetParasitics) {
        (self.netlist, self.lib, self.par)
    }
    fn resize(&mut self, id: InstId, cell: CellId) {
        self.netlist.set_instance_cell(self.lib, id, cell);
    }
}

impl Target for TimingGraph<'_> {
    fn parts(&self) -> (&Netlist, &Library, &NetParasitics) {
        (self.netlist(), self.library(), self.parasitics())
    }
    fn resize(&mut self, id: InstId, cell: CellId) {
        self.resize_cell(id, cell);
    }
}

/// The sweep both entry points share: up to `options.passes` passes in
/// [`sweep_order`], each evaluating only the instances whose load may
/// have changed since they were last evaluated, ending early at the
/// first pass that swaps nothing.
///
/// This is exact against visiting every instance every pass. A decision
/// reads only the instance's output load, and that load changes only
/// when one of its sinks is resized; so every instance starts stale,
/// goes clean when evaluated, and a swap re-stales the drivers of the
/// swapped cell's fan-in nets. Re-evaluating a clean instance would
/// find the drive it already has. The same swaps therefore happen in
/// the same order (`oracle.rs` holds the every-instance loop to this).
fn sweep(target: &mut impl Target, options: &DriveOptions) {
    assert!(options.target_gain > 0.0, "target gain must be positive");
    if options.passes == 0 {
        return;
    }
    let order = sweep_order(target.parts().0);
    let mut stale = vec![true; order.len()];
    for _ in 0..options.passes {
        let mut swapped = false;
        for &id in &order {
            if !std::mem::replace(&mut stale[id.index()], false) {
                continue;
            }
            let (netlist, lib, par) = target.parts();
            let Some(best) = best_drive(netlist, lib, par, id, options.target_gain) else {
                continue;
            };
            target.resize(id, best);
            swapped = true;
            let netlist = target.parts().0;
            for &net in netlist.fanin(id) {
                if let Some(NetDriver::Instance(driver)) = netlist.driver(net) {
                    stale[driver.index()] = true;
                }
            }
        }
        if !swapped {
            break;
        }
    }
}

/// Re-selects every instance's drive strength per `options`. Functions
/// with a single drive in the library are left untouched.
///
/// # Panics
///
/// Panics if `options.target_gain` is not strictly positive, or if
/// `options.parasitics` was built for a different netlist.
pub fn select_drives_with(netlist: &mut Netlist, lib: &Library, options: &DriveOptions) {
    let ideal;
    let par = match options.parasitics {
        Some(p) => p,
        None => {
            ideal = NetParasitics::ideal(netlist);
            &ideal
        }
    };
    sweep(&mut Bare { netlist, lib, par }, options);
}

/// [`select_drives_with`] against a live [`TimingGraph`]: the same
/// decisions, committed through [`TimingGraph::resize_cell`] so only each
/// swap's fanout cone is marked dirty and one flush at the next query
/// re-times the lot. Wire loads come from the graph's own parasitics;
/// `options.parasitics` is ignored.
///
/// # Panics
///
/// Panics if `options.target_gain` is not strictly positive.
pub fn select_drives_on(graph: &mut TimingGraph, options: &DriveOptions) {
    sweep(graph, options);
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_sta::{analyze, ClockSpec};
    use asicgap_tech::Technology;

    fn gain(target_gain: f64, passes: usize) -> DriveOptions<'static> {
        DriveOptions {
            parasitics: None,
            target_gain,
            passes,
        }
    }

    #[test]
    fn drive_selection_speeds_up_fanout_heavy_designs() {
        // On a uniform chain every stage already sits at the same gain and
        // selection is a no-op (logical effort: scale invariance); on a
        // fanout-diverse multiplier it buys real speed.
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut n = generators::array_multiplier(&lib, 8).expect("mult8");
        let clock = ClockSpec::unconstrained();
        let before = analyze(&n, &lib, &clock, None).min_period;
        select_drives_with(&mut n, &lib, &gain(4.0, 3));
        let after = analyze(&n, &lib, &clock, None).min_period;
        assert!(
            after < before * 0.99,
            "drive selection should help: {before} -> {after}"
        );
    }

    #[test]
    fn graph_selection_matches_netlist_selection() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut n = generators::array_multiplier(&lib, 8).expect("mult8");
        let mut graph = TimingGraph::new(n.clone(), &lib, ClockSpec::unconstrained(), None);
        select_drives_with(&mut n, &lib, &gain(4.0, 3));
        select_drives_on(&mut graph, &gain(4.0, 3));
        let cells: Vec<_> = graph
            .netlist()
            .iter_instances()
            .map(|(_, i)| i.cell())
            .collect();
        let expect: Vec<_> = n.iter_instances().map(|(_, i)| i.cell()).collect();
        assert_eq!(cells, expect, "same swaps, cell for cell");
        let fresh = analyze(&n, &lib, &ClockSpec::unconstrained(), None);
        assert_eq!(graph.min_period(), fresh.min_period);
        assert_eq!(graph.stats().full_propagations, 1, "no re-analysis");
    }

    #[test]
    fn repeated_selection_is_idempotent() {
        // Two passes of the options entry point settle; a third changes
        // nothing — the property the removed compatibility wrappers used
        // to smoke-test indirectly.
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut a = generators::parity_tree(&lib, 16).expect("parity");
        select_drives_with(&mut a, &lib, &gain(4.0, 2));
        let settled: Vec<_> = a.iter_instances().map(|(_, i)| i.cell()).collect();
        select_drives_with(&mut a, &lib, &gain(4.0, 2));
        let again: Vec<_> = a.iter_instances().map(|(_, i)| i.cell()).collect();
        assert_eq!(settled, again);
    }

    #[test]
    fn defaults_fill_in_classic_gain_and_passes() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut a = generators::parity_tree(&lib, 16).expect("parity");
        let mut b = a.clone();
        select_drives_with(&mut a, &lib, &DriveOptions::default());
        select_drives_with(&mut b, &lib, &gain(4.0, 3));
        let cells_a: Vec<_> = a.iter_instances().map(|(_, i)| i.cell()).collect();
        let cells_b: Vec<_> = b.iter_instances().map(|(_, i)| i.cell()).collect();
        assert_eq!(cells_a, cells_b);
    }

    #[test]
    fn two_drive_library_costs_area_at_equal_speed() {
        // §6 / [19]: "A richer library also reduces circuit area." With
        // only two drives, cells overshoot the needed strength.
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let two = LibrarySpec::two_drive().build(&tech);
        let clock = ClockSpec::unconstrained();

        let mut on_rich = generators::array_multiplier(&rich, 8).expect("rich mult");
        select_drives_with(&mut on_rich, &rich, &gain(4.0, 3));
        let t_rich = analyze(&on_rich, &rich, &clock, None).min_period;
        let a_rich = on_rich.total_area_um2(&rich);

        let mut on_two = generators::array_multiplier(&two, 8).expect("two-drive mult");
        select_drives_with(&mut on_two, &two, &gain(4.0, 3));
        let t_two = analyze(&on_two, &two, &clock, None).min_period;
        let a_two = on_two.total_area_um2(&two);

        assert!(
            a_two > a_rich * 1.1,
            "coarse menu wastes area: {a_two:.0} vs {a_rich:.0} um^2"
        );
        let dt = (t_two / t_rich - 1.0).abs();
        assert!(dt < 0.10, "delays comparable, diff {dt:.2}");
    }

    #[test]
    fn selection_is_idempotent_once_converged() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut n = generators::parity_tree(&lib, 32).expect("parity");
        select_drives_with(&mut n, &lib, &gain(4.0, 4));
        let snapshot: Vec<_> = n.iter_instances().map(|(_, i)| i.cell()).collect();
        select_drives_with(&mut n, &lib, &gain(4.0, 1));
        let again: Vec<_> = n.iter_instances().map(|(_, i)| i.cell()).collect();
        assert_eq!(snapshot, again);
    }
}
