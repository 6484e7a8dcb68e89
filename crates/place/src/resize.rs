//! Post-layout drive re-selection against annotated wire loads.
//!
//! §6.2: "After layout, transistors can be resized accounting for the
//! drive strengths required to send signals across the circuit." This is
//! placement's half of that loop: annotate → resize → re-annotate, where
//! each resize is one pass of `asicgap_synth::select_drives_with` against
//! the annotated loads — the same drive selection synthesis runs against
//! estimated ones.

use asicgap_cells::Library;
use asicgap_netlist::Netlist;
use asicgap_sta::{ClockSpec, NetParasitics, TimingGraph};
use asicgap_synth::select_drives_with;

use crate::annotate::annotate;
use crate::placement::Placement;

/// The annotate → resize loop against a live [`TimingGraph`]: each round
/// back-annotates the current placement-derived parasitics into the graph
/// (a full repropagation — every wire delay changed), then re-selects
/// every drive once with [`select_drives_with`] on the graph's netlist
/// and wire caps ([`TimingGraph::resize_in_bulk`]): later (upstream)
/// decisions see earlier swaps' input-cap changes, and the next
/// back-annotation's full propagation times them. The graph leaves with
/// fresh parasitics for the final netlist.
fn post_layout_resize_on(graph: &mut TimingGraph, placement: &Placement) {
    let lib = graph.library();
    for _round in 0..2 {
        let par = annotate(graph.netlist(), lib, placement, true);
        graph.set_parasitics(par);
        graph
            .resize_in_bulk(|netlist, lib, wires| select_drives_with(netlist, lib, Some(wires), 1));
    }
    let par = annotate(graph.netlist(), lib, placement, true);
    graph.set_parasitics(par);
}

/// Clones `netlist`, re-selects every drive against wire loads from
/// `placement`, and returns the resized netlist with fresh parasitics.
pub fn post_layout_resize(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
) -> (Netlist, NetParasitics) {
    let mut graph = TimingGraph::new(netlist.clone(), lib, ClockSpec::unconstrained(), None);
    post_layout_resize_on(&mut graph, placement);
    graph.into_parts()
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
    fn resize_recovers_most_of_the_wire_penalty() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::alu(&lib, 16).expect("alu16");
        let fp = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Localized,
            &AnnealOptions::quick(1),
        );
        let clock = ClockSpec::unconstrained();
        let before = analyze(
            &n,
            &lib,
            &clock,
            Some(&annotate(&n, &lib, &fp.placement, true)),
        )
        .min_period;
        let (resized, par) = post_layout_resize(&n, &lib, &fp.placement);
        let after = analyze(&resized, &lib, &clock, Some(&par)).min_period;
        assert!(
            after < before * 0.8,
            "post-layout resize should recover wire losses: {before} -> {after}"
        );
    }

    #[test]
    fn graph_resize_stays_consistent_with_fresh_analyze() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::alu(&lib, 8).expect("alu8");
        let fp = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Localized,
            &AnnealOptions::quick(1),
        );
        let clock = ClockSpec::unconstrained();
        let mut g = TimingGraph::new(n.clone(), &lib, clock, None);
        post_layout_resize_on(&mut g, &fp.placement);
        let fresh = analyze(g.netlist(), &lib, &clock, Some(g.parasitics()));
        assert_eq!(g.min_period(), fresh.min_period);
        // The wrapper must agree cell-for-cell with the graph loop.
        let (via_wrapper, _) = post_layout_resize(&n, &lib, &fp.placement);
        let a: Vec<_> = g
            .netlist()
            .iter_instances()
            .map(|(_, i)| i.cell())
            .collect();
        let b: Vec<_> = via_wrapper
            .iter_instances()
            .map(|(_, i)| i.cell())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn resized_netlists_are_pinned_bit_for_bit() {
        // E6 and the placed library penalty read post_layout_resize's
        // cells; these digests of its netlist hold every swap exactly.
        let tech = Technology::cmos025_asic();
        let mut got = Vec::new();
        for spec in [
            LibrarySpec::rich(),
            LibrarySpec::two_drive(),
            LibrarySpec::poor(),
        ] {
            let lib = spec.build(&tech);
            let designs = [
                generators::alu(&lib, 16).expect("alu16"),
                generators::array_multiplier(&lib, 8).expect("mult8"),
            ];
            for n in &designs {
                for seed in [1, 42] {
                    let fp = Floorplan::build(
                        n,
                        &lib,
                        FloorplanStrategy::Localized,
                        &AnnealOptions::quick(seed),
                    );
                    let (resized, _) = post_layout_resize(n, &lib, &fp.placement);
                    got.push(asicgap_netlist::canon::digest(&resized, &lib));
                }
            }
        }
        // Per library: alu/16 at seeds 1 and 42, then mult/8 at both.
        let pinned: [u64; 12] = [
            // rich
            0xf80fa2f2c764be96,
            0xe74ce918968bcd1e,
            0x2a3a471c3d2df414,
            0xa009917605126c27,
            // two-drive
            0x5aed56c7dbe0c831,
            0x5b3e004cb2d2eec9,
            0x447bb588d5805d0f,
            0xf295ab217188aad1,
            // poor
            0xf45fe4632cb25470,
            0xdbfcd6fe428ee1f7,
            0xe62a987370b1e3d9,
            0xfc90e68e83ef88f4,
        ];
        assert_eq!(got, pinned);
    }
}
