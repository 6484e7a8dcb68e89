//! Load-driven drive-strength selection.
//!
//! §6.2: "Initial logic synthesis may choose drive strengths using
//! estimations for wire lengths and the net load a gate has to drive".
//! This pass walks the netlist against actual sink loads and snaps every
//! instance to the library drive whose stage gain is closest to the
//! logical-effort target (≈ 4).

use asicgap_cells::{CellId, Library};
use asicgap_netlist::{InstId, NetDriver, Netlist};
use asicgap_sta::{NetParasitics, OUTPUT_LOAD_UNITS};
use asicgap_tech::Ff;

/// Logical-effort stage gain every instance is aimed at (§6).
const TARGET_GAIN: f64 = 4.0;

/// The load an instance's drive is chosen against: its output net's sink
/// input caps and wire cap (zero on ideal wires), plus the primary-output
/// allowance.
fn drive_load(netlist: &Netlist, lib: &Library, wires: Option<&NetParasitics>, id: InstId) -> Ff {
    let out = netlist.instance(id).out();
    let wire_cap = wires.map_or(Ff::ZERO, |w| w.cap(out));
    let mut load = netlist.net_load(lib, out, wire_cap);
    if netlist.net(out).is_output() {
        load += lib.tech.unit_inverter_cin * OUTPUT_LOAD_UNITS;
    }
    load
}

/// The per-instance decision: the library drive of the same
/// function/family closest to `target_gain` under the instance's current
/// output load, or `None` if the instance should stay.
fn best_drive(
    netlist: &Netlist,
    lib: &Library,
    wires: Option<&NetParasitics>,
    id: InstId,
    target_gain: f64,
) -> Option<CellId> {
    let load = drive_load(netlist, lib, wires, id);
    if load <= Ff::ZERO {
        return None;
    }
    let cell = netlist.instance(id).cell();
    let best = lib.drive_for_gain(cell, load, target_gain);
    (best != cell).then_some(best)
}

/// Instance visit order: reverse topological (outputs first, so
/// downstream caps settle), then the sequential cells. Resizing never
/// changes connectivity, so one order serves every pass, and the netlist
/// keeps it across the swaps. Which topological order the netlist holds
/// does not matter: within a pass every sink of an instance is decided
/// before it, so each pass makes the same swaps from any of them.
fn sweep_order(netlist: &Netlist) -> Vec<InstId> {
    let mut order: Vec<InstId> = netlist
        .topo_order()
        .expect("drive selection requires an acyclic netlist")
        .iter()
        .rev()
        .copied()
        .collect();
    order.extend(
        netlist
            .iter_instances()
            .filter(|(_, i)| i.is_sequential())
            .map(|(id, _)| id),
    );
    order
}

/// The sweep: up to `passes` passes in [`sweep_order`], each evaluating
/// only the instances whose load may have changed since they were last
/// evaluated, ending early at the first pass that swaps nothing.
/// `target_gain` is [`TARGET_GAIN`] except in the oracle's gain sweep.
///
/// This is exact against visiting every instance every pass. A decision
/// reads only the instance's output load, and that load changes only
/// when one of its sinks is resized; so every instance starts stale,
/// goes clean when evaluated, and a swap re-stales the drivers of the
/// swapped cell's fan-in nets. Re-evaluating a clean instance would
/// find the drive it already has. The same swaps therefore happen in
/// the same order (`oracle.rs` holds the every-instance loop to this).
fn sweep(
    netlist: &mut Netlist,
    lib: &Library,
    wires: Option<&NetParasitics>,
    target_gain: f64,
    passes: usize,
) {
    if passes == 0 {
        return;
    }
    let order = sweep_order(netlist);
    let mut stale = vec![true; order.len()];
    for _ in 0..passes {
        let mut swapped = false;
        for &id in &order {
            if !std::mem::replace(&mut stale[id.index()], false) {
                continue;
            }
            let Some(best) = best_drive(netlist, lib, wires, id, target_gain) else {
                continue;
            };
            netlist.set_instance_cell(lib, id, best);
            swapped = true;
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

/// Re-selects every instance's drive strength against sink loads plus
/// `wires`' caps (ideal, zero-cap wires when `None`: the pre-layout
/// estimate), for up to `passes` sweeps (loads depend on sink input
/// caps, which change as sinks are resized). Selection stops earlier,
/// after the first sweep that swaps nothing: it has reached a fixed
/// point. 2–3 converge in practice. Functions with a single drive in the
/// library are left untouched. Decisions read loads only, never
/// arrivals, so a timer over the netlist is told once, afterwards
/// (`TimingGraph::resize_in_bulk`).
pub fn select_drives_with(
    netlist: &mut Netlist,
    lib: &Library,
    wires: Option<&NetParasitics>,
    passes: usize,
) {
    sweep(netlist, lib, wires, TARGET_GAIN, passes);
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_sta::{analyze, ClockSpec, TimingGraph};
    use asicgap_tech::Technology;

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
        select_drives_with(&mut n, &lib, None, 3);
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
        let golden = generators::array_multiplier(&lib, 8).expect("mult8");
        for passes in 0..=4 {
            let mut n = golden.clone();
            let mut graph =
                TimingGraph::new(golden.clone(), &lib, ClockSpec::unconstrained(), None);
            select_drives_with(&mut n, &lib, None, passes);
            graph.resize_in_bulk(|netlist, lib, wires| {
                select_drives_with(netlist, lib, Some(wires), passes);
            });
            let cells: Vec<_> = graph
                .netlist()
                .iter_instances()
                .map(|(_, i)| i.cell())
                .collect();
            let expect: Vec<_> = n.iter_instances().map(|(_, i)| i.cell()).collect();
            assert_eq!(cells, expect, "passes {passes}: same swaps, cell for cell");
            let fresh = analyze(&n, &lib, &ClockSpec::unconstrained(), None);
            assert_eq!(graph.min_period(), fresh.min_period, "passes {passes}");
            let stats = graph.stats();
            assert_eq!(
                stats.full_propagations, 2,
                "the query re-times the swaps once"
            );
            assert_eq!(stats.incremental_updates, 0, "no swap pushed a cone");
        }
    }

    #[test]
    fn repeated_selection_is_idempotent() {
        // Two passes settle; a third changes
        // nothing — the property the removed compatibility wrappers used
        // to smoke-test indirectly.
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut a = generators::parity_tree(&lib, 16).expect("parity");
        select_drives_with(&mut a, &lib, None, 2);
        let settled: Vec<_> = a.iter_instances().map(|(_, i)| i.cell()).collect();
        select_drives_with(&mut a, &lib, None, 2);
        let again: Vec<_> = a.iter_instances().map(|(_, i)| i.cell()).collect();
        assert_eq!(settled, again);
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
        select_drives_with(&mut on_rich, &rich, None, 3);
        let t_rich = analyze(&on_rich, &rich, &clock, None).min_period;
        let a_rich = on_rich.total_area_um2(&rich);

        let mut on_two = generators::array_multiplier(&two, 8).expect("two-drive mult");
        select_drives_with(&mut on_two, &two, None, 3);
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
        select_drives_with(&mut n, &lib, None, 4);
        let snapshot: Vec<_> = n.iter_instances().map(|(_, i)| i.cell()).collect();
        select_drives_with(&mut n, &lib, None, 1);
        let again: Vec<_> = n.iter_instances().map(|(_, i)| i.cell()).collect();
        assert_eq!(snapshot, again);
    }
}
