//! The continuous-size load model.
//!
//! The sizer cannot time with `asicgap-sta` directly because sizes live
//! between library drive points; this model reads the same logical-effort
//! parameters from each instance's *function* (and the STA's primary-output
//! load) and applies an arbitrary size vector. With sizes equal to the mapped cells' drives it agrees
//! with the STA's combinational arrival model by construction.
//!
//! `continuous/full.rs` (test-only) evaluates a whole size vector in one
//! pass, the reference the incremental evaluator is held to.

use asicgap_cells::Library;
use asicgap_netlist::{NetId, Netlist};
use asicgap_sta::OUTPUT_LOAD_UNITS;

/// Load on `net` in unit-inverter input-cap units: Σ g·s over sinks
/// (sequential D pins present one unit of load at their drive), plus the
/// PO allowance.
pub(crate) fn net_load_units(netlist: &Netlist, net: NetId, sizes: &[f64]) -> f64 {
    let mut load = 0.0;
    for s in netlist.net(net).sinks() {
        let g = netlist.instance(s.inst).function().logical_effort();
        load += g * sizes[s.inst.index()];
    }
    if netlist.net(net).is_output() {
        load += OUTPUT_LOAD_UNITS;
    }
    load
}

/// Sizes implied by the mapped cells of `netlist` (its current drives).
pub(crate) fn sizes_from_cells(netlist: &Netlist, lib: &Library) -> Vec<f64> {
    netlist
        .iter_instances()
        .map(|(_, i)| lib.cell(i.cell()).drive)
        .collect()
}

#[cfg(test)]
mod full;
#[cfg(test)]
pub(crate) use full::SizedTiming;

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_sta::{analyze, ClockSpec};
    use asicgap_tech::{Ps, Technology};

    #[test]
    fn matches_sta_at_library_drives() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let sizes = sizes_from_cells(&n, &lib);
        let t = SizedTiming::evaluate(&n, &lib, &sizes);
        let sta = analyze(&n, &lib, &ClockSpec::unconstrained(), None);
        // The evaluator's critical delay equals the STA's worst raw
        // arrival (both use the same model and the same PO allowance).
        let sta_worst = asicgap_sta::PathGroup::ALL
            .iter()
            .filter_map(|&g| sta.group(g))
            .fold(Ps::ZERO, Ps::max);
        assert!(
            (t.critical_delay / sta_worst - 1.0).abs() < 1e-9,
            "evaluator {} vs STA {}",
            t.critical_delay,
            sta_worst
        );
    }

    #[test]
    fn upsizing_final_driver_speeds_up_a_chain() {
        // An inverter chain (g = 1): quadrupling the last inverter saves
        // more on its PO-load delay than it costs its driver.
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = asicgap_netlist::NetlistBuilder::new("chain", &lib);
        let mut net = b.input("a");
        for _ in 0..6 {
            net = b.inv(net).expect("inv");
        }
        b.output("y", net);
        let n = b.finish().expect("valid");

        let mut sizes = sizes_from_cells(&n, &lib);
        let before = SizedTiming::evaluate(&n, &lib, &sizes);
        let path = before.critical_path();
        assert_eq!(path.len(), 6);
        let last = *path.last().expect("non-empty path");
        sizes[last.index()] *= 4.0;
        let after = SizedTiming::evaluate(&n, &lib, &sizes);
        assert!(after.critical_delay < before.critical_delay);
    }

    #[test]
    fn upsizing_high_effort_gate_can_backfire() {
        // XOR cells have g = 4: quadrupling the last XOR of a parity tree
        // loads its driver with 4x the capacitance and hurts overall — the
        // reason sizing must be sensitivity-driven, not greedy-local.
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 16).expect("parity");
        let mut sizes = sizes_from_cells(&n, &lib);
        let before = SizedTiming::evaluate(&n, &lib, &sizes);
        let path = before.critical_path();
        let last = *path.last().expect("non-empty path");
        sizes[last.index()] *= 4.0;
        let after = SizedTiming::evaluate(&n, &lib, &sizes);
        assert!(after.critical_delay > before.critical_delay);
    }

    #[test]
    fn path_walk_is_connected() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let sizes = sizes_from_cells(&n, &lib);
        let t = SizedTiming::evaluate(&n, &lib, &sizes);
        let path = t.critical_path();
        for w in path.windows(2) {
            let a = n.instance(w[0]);
            let b = n.instance(w[1]);
            assert!(
                b.fanin().contains(&a.out()),
                "consecutive path gates must be connected"
            );
        }
    }
}
