//! Back-annotation: placement → per-net wire parasitics for the STA.

use asicgap_cells::Library;
use asicgap_netlist::Netlist;
use asicgap_sta::NetParasitics;
use asicgap_tech::{Ff, Ps};
use asicgap_wire::{layer_for_length, RepeaterPlan, Wire};

use crate::placement::Placement;

/// Net length above which the flow inserts optimal repeaters.
const REPEATER_THRESHOLD_UM: f64 = 1500.0;

/// Times one net over `wire` and returns its `(driver-visible cap, net
/// delay)` pair — the arithmetic both wire models share.
///
/// The wire's capacitance is charged to the driving gate (the STA adds it
/// to the gate's load) and its distributed-RC flight time is added as
/// extra net delay; `via_ohm` is extra series resistance (the routed
/// model's via stack), folded into the wire resistance. Nets longer than
/// 1.5 mm get optimal repeaters ([`RepeaterPlan::optimal`]): their driver
/// then sees only the first segment, and the plan's total delay replaces
/// the flight time. Set `repeaters` to `false` for the ablation (§5's
/// "proper driving of a wire" undone).
///
/// Both the HPWL annotator ([`annotate`]) and the global router's RC
/// extraction (`asicgap-route`) call this, so the two models differ only
/// in the lengths (and vias) they feed it, never in the RC arithmetic.
pub fn wire_parasitics(
    netlist: &Netlist,
    lib: &Library,
    id: asicgap_netlist::NetId,
    wire: &Wire,
    via_ohm: f64,
    repeaters: bool,
) -> (Ff, Ps) {
    let tech = &lib.tech;
    let len = wire.length;
    let cw = wire.capacitance(tech);
    let rw_ps = (wire.resistance(tech) + via_ohm) * 1.0e-3; // ohm -> ps/fF
    let sink_cap = netlist.net_load(lib, id, Ff::ZERO);
    if repeaters && len.value() > REPEATER_THRESHOLD_UM {
        let plan = RepeaterPlan::optimal(tech, wire);
        // The net's driver may be a small gate; a real flow inserts a
        // gain-4 buffer horn from the gate up to the repeater size.
        // The gate sees a gain-4 load; the horn's stages (one FO4
        // each) plus the full repeatered flight are net delay.
        let drive = match netlist.net(id).driver() {
            Some(asicgap_netlist::NetDriver::Instance(inst)) => {
                lib.cell(netlist.instance(inst).cell()).drive
            }
            _ => 1.0,
        };
        let first_cap = tech.unit_inverter_cin * (4.0 * drive);
        let horn_stages = (plan.size / (4.0 * drive)).max(1.0).ln() / 4.0f64.ln();
        let horn_delay = tech.fo4() * horn_stages.ceil().max(0.0);
        (first_cap, horn_delay + plan.total_delay)
    } else {
        // Distributed RC flight time: 0.38·Rw·Cw + 0.69·Rw·C_sinks.
        let flight = Ps::new(0.38 * rw_ps * cw.value() + 0.69 * rw_ps * sink_cap.value());
        (cw, flight)
    }
}

/// Produces [`NetParasitics`] for `netlist` under `placement`.
///
/// Per net, the HPWL estimate picks a routing layer by length (the shared
/// [`layer_for_length`] rule) and times the net through
/// [`wire_parasitics`]. This is the pre-route wire model; the global
/// router's `annotate_routed` replaces the HPWL guess with actual routed
/// segment lengths and via counts through the same two helpers.
pub fn annotate(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    repeaters: bool,
) -> NetParasitics {
    let mut par = NetParasitics::ideal(netlist);
    for (id, _) in netlist.iter_nets() {
        let len = placement.net_hpwl(netlist, id);
        if len.value() <= 0.0 {
            continue;
        }
        let wire = Wire::new(len, layer_for_length(len));
        let (cap, delay) = wire_parasitics(netlist, lib, id, &wire, 0.0, repeaters);
        par.set(id, cap, delay);
    }
    par
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::AnnealOptions;
    use crate::floorplan::{Floorplan, FloorplanStrategy};
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_sta::{analyze, ClockSpec};
    use asicgap_tech::Technology;

    #[test]
    fn annotation_slows_spread_much_more_than_local() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        let clock = ClockSpec::unconstrained();

        let local = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Localized,
            &AnnealOptions::quick(1),
        );
        let spread = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Spread { modules: 4 },
            &AnnealOptions::quick(1),
        );
        let par_local = annotate(&n, &lib, &local.placement, true);
        let par_spread = annotate(&n, &lib, &spread.placement, true);
        let ideal = analyze(&n, &lib, &clock, None).min_period;
        let t_local = analyze(&n, &lib, &clock, Some(&par_local)).min_period;
        let t_spread = analyze(&n, &lib, &clock, Some(&par_spread)).min_period;
        assert!(t_local >= ideal);
        assert!(t_spread > t_local, "{t_spread} vs {t_local}");
    }

    #[test]
    fn repeaters_help_long_nets() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        let spread = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Spread { modules: 4 },
            &AnnealOptions::quick(1),
        );
        let clock = ClockSpec::unconstrained();
        let with = annotate(&n, &lib, &spread.placement, true);
        let without = annotate(&n, &lib, &spread.placement, false);
        let t_with = analyze(&n, &lib, &clock, Some(&with)).min_period;
        let t_without = analyze(&n, &lib, &clock, Some(&without)).min_period;
        assert!(t_with < t_without, "repeaters: {t_with} vs {t_without}");
    }
}
