//! Properties of the global router and its place→route→timing loop.
//!
//! Three contracts are pinned here:
//!
//! - **lower bound** — a routed net is a connected rectilinear structure
//!   spanning its pins, so its length can never undercut the pins'
//!   half-perimeter (the HPWL estimate). Checked net by net on every
//!   netlist generator in the workspace.
//! - **negotiation converges** — on a deliberately congested floorplan
//!   (two full-width nets fighting over the same capacity-1 row) the
//!   rip-up-and-reroute loop must spread the nets and end with zero
//!   overflow, in a bounded number of iterations.
//! - **ECO closure** — reroute-then-`set_net_parasitics` after a buffer
//!   insertion plus `retarget_net` must leave the incremental timer
//!   bit-identical to a from-scratch analysis over the same routes.

use asicgap::cells::LibrarySpec;
use asicgap::netlist::{generators, NetlistBuilder, Sink};
use asicgap::place::{AnnealOptions, Floorplan, FloorplanStrategy, Placement};
use asicgap::route::{
    annotate_routed, route, route_on, routed_parasitics, RouterOptions, RoutingGrid,
};
use asicgap::sta::{analyze, ClockSpec, TimingGraph};
use asicgap::tech::Technology;

#[test]
fn routed_length_dominates_hpwl_on_every_generator() {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let spec = asicgap::netlist::generators::RandomLogicSpec {
        inputs: 8,
        gates: 60,
        seed: 5,
        depth_bias: 3,
    };
    let circuits = vec![
        generators::ripple_carry_adder(&lib, 8).expect("rca"),
        generators::carry_lookahead_adder(&lib, 8).expect("cla"),
        generators::carry_select_adder(&lib, 8, 3).expect("csel"),
        generators::carry_skip_adder(&lib, 8, 3).expect("cskip"),
        generators::kogge_stone_adder(&lib, 8).expect("ks"),
        generators::alu(&lib, 8).expect("alu"),
        generators::array_multiplier(&lib, 6).expect("mult"),
        generators::barrel_shifter(&lib, 8).expect("bshift"),
        generators::counter(&lib, 6).expect("counter"),
        generators::crc_checker(&lib, 16, 0x07, 8).expect("crc"),
        generators::datapath(&lib, 8).expect("datapath"),
        generators::equality_comparator(&lib, 8).expect("eq"),
        generators::mux_tree(&lib, 8).expect("mux"),
        generators::parity_tree(&lib, 9).expect("parity"),
        generators::random_logic(&lib, &spec).expect("rand"),
    ];
    for n in &circuits {
        let p = Placement::initial(n, &lib, 0.7);
        let r = route(n, &p, &RouterOptions::seeded(11));
        assert_eq!(r.overflow, 0, "{}: router left overflow", n.name);
        let mut routed_nets = 0;
        for (id, _) in n.iter_nets() {
            let pins = p.net_pins(n, id);
            if pins.len() < 2 {
                assert!(r.net(id).is_none(), "{}: sub-2-pin net routed", n.name);
                continue;
            }
            let routed = r
                .net(id)
                .unwrap_or_else(|| panic!("{}: multi-pin net unrouted", n.name));
            let hpwl = p.net_hpwl(n, id);
            assert!(
                routed.length.value() >= hpwl.value() - 1e-9,
                "{}: net {:?} routed {} < hpwl {}",
                n.name,
                id,
                routed.length,
                hpwl
            );
            routed_nets += 1;
        }
        assert!(routed_nets > 0, "{}: nothing was routed", n.name);
        // The summary's totals must agree with the per-net invariant.
        let s = r.summary(n, &p);
        assert!(s.routed_um >= s.hpwl_um);
        assert_eq!(s.overflow, 0);
    }
}

#[test]
fn routed_bound_survives_a_spread_floorplan() {
    // Same invariant across a 10 mm die with chip-global hops and the
    // annealer involved — longer nets, repeater territory, bigger grid.
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
    let fp = Floorplan::build(
        &n,
        &lib,
        FloorplanStrategy::Spread { modules: 4 },
        &AnnealOptions::quick(3),
    );
    let r = route(&n, &fp.placement, &RouterOptions::seeded(3));
    assert_eq!(r.overflow, 0);
    for (id, _) in n.iter_nets() {
        if let Some(routed) = r.net(id) {
            assert!(routed.length.value() >= fp.placement.net_hpwl(&n, id).value() - 1e-9);
        }
    }
}

#[test]
fn negotiation_converges_on_a_congested_floorplan() {
    // Two nets that both span the full die width at the same height, on
    // a capacity-1 grid: the shortest path for each is the middle row,
    // and a 2% jitter cannot overcome the 50% length penalty of a
    // detour, so iteration 0 must overflow every middle-row edge. Only
    // negotiation (history + growing present penalty) can push one net
    // onto the free row above or below.
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let mut b = NetlistBuilder::new("congest", &lib);
    let a0 = b.input("a0");
    let a1 = b.input("a1");
    let x0 = b.buf(a0).expect("buf0");
    let x1 = b.buf(a1).expect("buf1");
    b.output("o0", x0);
    b.output("o1", x1);
    let n = b.finish().expect("netlist");

    let placement = Placement {
        width_um: 100.0,
        height_um: 100.0,
        cells: vec![(90.0, 50.0), (90.0, 50.0)],
        inputs: vec![(0.0, 50.0), (0.0, 50.0)],
        outputs: vec![(90.0, 50.0), (90.0, 50.0)],
    };
    let grid = RoutingGrid::uniform(5, 5, 20.0, 1);
    let options = RouterOptions::seeded(1);
    let r = route_on(&n, &placement, grid, &options);
    assert!(
        r.iterations > 1,
        "the setup must actually congest (got {} iterations)",
        r.iterations
    );
    assert_eq!(
        r.overflow, 0,
        "negotiation must converge on a feasible grid (after {} iterations)",
        r.iterations
    );
    assert!(r.iterations <= 48, "convergence must be bounded");
    assert!(r.max_congestion() <= 1.0);
}

#[test]
fn reroute_then_retarget_matches_full_analysis() {
    // The routed-model ECO loop: insert a buffer on a fat net, move one
    // more sink over with retarget_net, give the buffer a spot on the
    // die, reroute exactly the two touched nets, and re-extract just
    // those. The incremental timer must then agree bit-for-bit with a
    // from-scratch analysis over the same routes — without a full
    // propagation.
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let n = generators::alu(&lib, 8).expect("alu8");
    let clock = ClockSpec::unconstrained();
    let fp = Floorplan::build(
        &n,
        &lib,
        FloorplanStrategy::Localized,
        &AnnealOptions::quick(2),
    );
    let mut placement = fp.placement.clone();
    let options = RouterOptions::seeded(9);
    let mut routing = route(&n, &placement, &options);
    assert_eq!(routing.overflow, 0);
    let par = annotate_routed(&n, &lib, &routing, true);
    let mut graph = TimingGraph::new(n.clone(), &lib, clock, Some(par));
    let baseline = graph.min_period();

    // A net with at least three sinks: two go behind the buffer at
    // insert time, a third follows via retarget_net.
    let (fat, sinks) = graph
        .netlist()
        .iter_nets()
        .find_map(|(id, net)| (net.sinks().len() >= 3).then(|| (id, net.sinks().to_vec())))
        .expect("alu8 has a >=3-sink net");
    let buf_cell = lib
        .smallest(asicgap::cells::CellFunction::Buf)
        .expect("library has buffers");
    let moved: Vec<Sink> = sinks[..2].to_vec();
    let (buf, new_net) = graph
        .insert_buffer(fat, buf_cell, &moved)
        .expect("buffer inserts");
    let third = sinks[2];
    graph.retarget_net(third.inst, third.pin as usize, new_net);

    // Place the buffer at the centroid of what it now drives, then
    // reroute the two nets whose pin sets changed.
    let centroid = {
        let pts: Vec<(f64, f64)> = sinks[..3]
            .iter()
            .map(|s| placement.cells[s.inst.index()])
            .collect();
        let k = pts.len() as f64;
        (
            pts.iter().map(|p| p.0).sum::<f64>() / k,
            pts.iter().map(|p| p.1).sum::<f64>() / k,
        )
    };
    assert_eq!(buf.index(), placement.cells.len());
    placement.cells.push(centroid);
    for id in [fat, new_net] {
        routing.reroute_net(graph.netlist(), &placement, id, &options);
        let (cap, delay) = routed_parasitics(graph.netlist(), &lib, &routing, id, true)
            .expect("touched nets stay routed");
        graph.set_net_parasitics(id, cap, delay);
    }

    let eco_period = graph.min_period();
    assert_ne!(eco_period, baseline, "the edit must be visible to timing");

    // From scratch over the same netlist and the same routes.
    let full = annotate_routed(graph.netlist(), &lib, &routing, true);
    let fresh = analyze(graph.netlist(), &lib, &clock, Some(&full));
    assert_eq!(eco_period, fresh.min_period, "incremental == full, exactly");
    let stats = graph.stats();
    assert_eq!(
        stats.full_propagations, 1,
        "only the constructor propagated"
    );
    assert!(
        stats.incremental_updates > 0,
        "the ECO path was incremental"
    );
}
