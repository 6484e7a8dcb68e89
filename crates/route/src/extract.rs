//! RC extraction: routed segments → per-net STA parasitics.
//!
//! The routed model reuses the exact RC arithmetic of the HPWL annotator
//! ([`asicgap_place::wire_parasitics`]) — the two wire models differ only
//! in the *lengths* they feed it (HPWL guess vs. actual routed tree plus
//! escape stubs) and in the extra series resistance of the route's via
//! stacks. That makes HPWL-vs-routed timing deltas attributable to the
//! router alone, never to a second delay model drifting out of sync.

use asicgap_cells::Library;
use asicgap_netlist::Netlist;
use asicgap_place::wire_parasitics;
use asicgap_sta::NetParasitics;
use asicgap_wire::Wire;

use crate::negotiate::RoutingResult;

/// Series resistance charged per via, Ω. Mid-1990s stacked vias ran a
/// few ohms each; the exact value matters less than charging bends and
/// layer changes *something*, which the HPWL model cannot.
pub(crate) const VIA_OHM: f64 = 2.0;

/// Produces [`NetParasitics`] from a finished global route.
///
/// Per routed net, the wire is the routed length on the layer class the
/// router picked, with `vias ·` `VIA_OHM` of extra series resistance;
/// [`asicgap_place::wire_parasitics`] turns that into the driver-visible
/// cap and net delay (including repeater insertion on long nets when
/// `repeaters` is set). Nets the router skipped (fewer than two pins)
/// keep zero parasitics, exactly like the HPWL annotator skips
/// zero-length nets.
pub fn annotate_routed(
    netlist: &Netlist,
    lib: &Library,
    routing: &RoutingResult,
    repeaters: bool,
) -> NetParasitics {
    let mut par = NetParasitics::ideal(netlist);
    for (id, _) in netlist.iter_nets() {
        if let Some((cap, delay)) = routed_parasitics(netlist, lib, routing, id, repeaters) {
            par.set(id, cap, delay);
        }
    }
    par
}

/// The routed `(cap, delay)` of one net, or `None` when the net has no
/// route (or a zero-length one). The ECO path pairs this with
/// [`RoutingResult::reroute_net`] and the timer's `set_net_parasitics`:
/// reroute the nets an edit touched, re-extract just those, and let the
/// incremental engine propagate.
pub fn routed_parasitics(
    netlist: &Netlist,
    lib: &Library,
    routing: &RoutingResult,
    net: asicgap_netlist::NetId,
    repeaters: bool,
) -> Option<(asicgap_tech::Ff, asicgap_tech::Ps)> {
    let r = routing.net(net)?;
    if r.length.value() <= 0.0 {
        return None;
    }
    let wire = Wire::new(r.length, r.layer);
    Some(wire_parasitics(
        netlist,
        lib,
        net,
        &wire,
        r.vias as f64 * VIA_OHM,
        repeaters,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiate::{route, RouterOptions};
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_place::{annotate, Placement};
    use asicgap_sta::{analyze, ClockSpec};
    use asicgap_tech::Technology;

    #[test]
    fn routed_timing_is_no_faster_than_hpwl_timing() {
        // Routed lengths dominate HPWL net by net, and the RC arithmetic
        // is shared, so routed parasitics can only slow the design down.
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        let p = Placement::initial(&n, &lib, 0.7);
        let clock = ClockSpec::unconstrained();

        let hpwl = annotate(&n, &lib, &p, true);
        let r = route(&n, &p, &RouterOptions::seeded(3));
        assert_eq!(r.overflow, 0);
        let routed = annotate_routed(&n, &lib, &r, true);

        let t_hpwl = analyze(&n, &lib, &clock, Some(&hpwl)).min_period;
        let t_routed = analyze(&n, &lib, &clock, Some(&routed)).min_period;
        assert!(
            t_routed >= t_hpwl,
            "routed {t_routed} must not beat hpwl {t_hpwl}"
        );
        // ... but it is a refinement, not an explosion.
        assert!(t_routed.value() < t_hpwl.value() * 2.0 + 1000.0);
    }

    #[test]
    fn extraction_skips_unroutable_nets() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 8).expect("parity");
        let p = Placement::initial(&n, &lib, 0.7);
        let r = route(&n, &p, &RouterOptions::seeded(3));
        let par = annotate_routed(&n, &lib, &r, true);
        for (id, _) in n.iter_nets() {
            if r.net(id).is_none() {
                assert_eq!(par.cap(id), asicgap_tech::Ff::ZERO);
            }
        }
    }
}
