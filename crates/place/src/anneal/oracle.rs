//! Differential oracle for the annealing kernel: the recompute-from-scratch
//! loop the kernel replaced survives here, test-only, and every placement
//! and HPWL the kernel returns must match it to the bit.
//!
//! Expiry: delete this module when ROADMAP item 7(d)'s random
//! `(scenario, workload, seed)` generator checks placement identity as a
//! property and two re-anchors have passed with `anneal_chain`
//! unchanged, or when the kernel is rewritten again (the kernel as it
//! then stands becomes the new reference), whichever comes first.

use asicgap_cells::{CellFunction, Library, LibrarySpec};
use asicgap_netlist::generators;
use asicgap_tech::Technology;

use super::*;

/// The reference: every touched net re-evaluated through
/// [`Placement::net_hpwl`] before and after each swap, the touched list
/// rebuilt, sorted and deduplicated per move.
fn anneal_reference(
    netlist: &Netlist,
    placement: &mut Placement,
    seed: u64,
    schedule: &Schedule,
    frozen: &[bool],
) -> f64 {
    let n = netlist.instance_count();
    if n < 2 {
        return placement.total_hpwl(netlist).value();
    }
    let movable: Vec<usize> = (0..n)
        .filter(|&i| frozen.is_empty() || !frozen[i])
        .collect();
    if movable.len() < 2 {
        return placement.total_hpwl(netlist).value();
    }
    let mut rng = Rng64::new(seed);
    let nets_of = |i: usize| -> Vec<NetId> {
        let inst = netlist.instance(InstId::from_index(i));
        let mut v: Vec<_> = inst.fanin().to_vec();
        v.push(inst.out());
        v.sort();
        v.dedup();
        v
    };
    let cost_of = |p: &Placement, nets: &[NetId]| -> f64 {
        nets.iter().map(|&id| p.net_hpwl(netlist, id).value()).sum()
    };
    let touched = |a: usize, b: usize| -> Vec<NetId> {
        let mut nets = nets_of(a);
        nets.extend(nets_of(b));
        nets.sort();
        nets.dedup();
        nets
    };

    let mut deltas = 0.0;
    for _ in 0..50 {
        let a = movable[rng.index(movable.len())];
        let b = movable[rng.index(movable.len())];
        if a == b {
            continue;
        }
        let nets = touched(a, b);
        let before = cost_of(placement, &nets);
        placement.cells.swap(a, b);
        let after = cost_of(placement, &nets);
        placement.cells.swap(a, b);
        deltas += (after - before).abs();
    }
    let mut temp = (deltas / 50.0).max(1.0) * schedule.initial_temp_factor;

    for _ in 0..schedule.temp_steps {
        for _ in 0..schedule.moves_per_temp {
            let a = movable[rng.index(movable.len())];
            let b = movable[rng.index(movable.len())];
            if a == b {
                continue;
            }
            let nets = touched(a, b);
            let before = cost_of(placement, &nets);
            placement.cells.swap(a, b);
            let after = cost_of(placement, &nets);
            let delta = after - before;
            let accept = delta <= 0.0 || rng.uniform() < (-delta / temp).exp();
            if !accept {
                placement.cells.swap(a, b);
            }
        }
        temp *= schedule.cooling;
    }
    placement.total_hpwl(netlist).value()
}

fn lib() -> Library {
    LibrarySpec::rich().build(&Technology::cmos025_asic())
}

fn bits(cells: &[(f64, f64)]) -> Vec<(u64, u64)> {
    cells
        .iter()
        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
        .collect()
}

/// Runs reference and kernel from `start` and asserts identical cells,
/// identical returned HPWL, and a cache that matches a fresh evaluation
/// of every net.
fn assert_kernel_matches(
    netlist: &Netlist,
    start: &Placement,
    seed: u64,
    schedule: &Schedule,
    frozen: &[bool],
    what: &str,
) {
    let mut expected = start.clone();
    let expected_hpwl = anneal_reference(netlist, &mut expected, seed, schedule, frozen);

    let mut got = start.clone();
    let got_hpwl = anneal_with(netlist, &mut got, seed, schedule, frozen);
    assert_eq!(bits(&got.cells), bits(&expected.cells), "{what}: cells");
    assert_eq!(got_hpwl.to_bits(), expected_hpwl.to_bits(), "{what}: hpwl");
    assert_eq!((&got.inputs, &got.outputs), (&start.inputs, &start.outputs));

    // The same run, one level down, to look at the cache it ends with.
    let Some((views, cur)) = PinViews::build(netlist, start, frozen) else {
        assert_eq!(bits(&got.cells), bits(&start.cells), "{what}: no-op");
        return;
    };
    let mut chained = start.clone();
    let cur = anneal_chain(&views, cur, &mut chained, seed, schedule);
    assert_eq!(bits(&chained.cells), bits(&expected.cells), "{what}: chain");
    assert_eq!(cur.len(), netlist.net_count());
    for (net, _) in netlist.iter_nets() {
        assert_eq!(
            cur[net.index()].to_bits(),
            chained.net_hpwl(netlist, net).value().to_bits(),
            "{what}: stale cache entry for {net}"
        );
    }
}

/// A short hot schedule that cools fast: many uphill accepts early, then
/// pure descent — the accept rule seen from both sides in 420 moves.
const SHORT: Schedule = Schedule {
    moves_per_temp: 60,
    temp_steps: 7,
    initial_temp_factor: 3.5,
    cooling: 0.45,
};

/// No mask, a random mask, and all but two cells frozen.
fn masks(n: usize, seed: u64) -> [Vec<bool>; 3] {
    let mut rng = Rng64::new(seed ^ 0x5eed);
    let random = (0..n).map(|_| rng.uniform() < 0.4).collect();
    let mut pair = vec![true; n];
    let first = rng.index(n);
    let second = (first + 1 + rng.index(n - 1)) % n;
    pair[first] = false;
    pair[second] = false;
    [Vec::new(), random, pair]
}

fn check_family(netlist: &Netlist, lib: &Library) {
    let n = netlist.instance_count();
    for seed in 0..8u64 {
        let mut start = Placement::initial(netlist, lib, 0.7);
        if seed % 2 == 1 {
            // Odd seeds start scrambled: far from the grid order, so far
            // more moves are accepted.
            let mut rng = Rng64::new(seed);
            for i in 0..n {
                start.cells.swap(i, rng.index(n));
            }
        }
        for (m, frozen) in masks(n, seed).iter().enumerate() {
            for schedule in [SCHEDULE, SHORT] {
                let what = format!(
                    "{} seed {seed} mask {m} moves {}",
                    netlist.name, schedule.moves_per_temp
                );
                assert_kernel_matches(netlist, &start, seed, &schedule, frozen, &what);
            }
        }
    }
}

macro_rules! family {
    ($test:ident, $generator:ident, $width:expr) => {
        #[test]
        fn $test() {
            let lib = lib();
            let netlist = generators::$generator(&lib, $width).expect("generator");
            check_family(&netlist, &lib);
        }
    };
}

// Every generator family the benchmark streams.
family!(alu_matches_reference, alu, 8);
family!(mult_matches_reference, array_multiplier, 6);
family!(ks_matches_reference, kogge_stone_adder, 16);
family!(cla_matches_reference, carry_lookahead_adder, 16);
family!(rca_matches_reference, ripple_carry_adder, 24);
family!(barrel_matches_reference, barrel_shifter, 16);
family!(mux_matches_reference, mux_tree, 32);
family!(parity_matches_reference, parity_tree, 48);

/// A hand-wired netlist holding every shape the flat views special-case:
/// an undriven net (with and without sinks), an output driven straight by
/// a primary input, an output net with no sinks, a gate whose fan-in names
/// one net twice, and two output ports tied to one net.
fn awkward_netlist(lib: &Library) -> Netlist {
    let nand = lib.smallest(CellFunction::Nand(2)).expect("nand2");
    let inv = lib.smallest(CellFunction::Inv).expect("inv");
    let mut n = Netlist::new("awkward");
    let net = |n: &mut Netlist, name: &str| n.add_net(name);
    let a = net(&mut n, "a");
    let b = net(&mut n, "b");
    n.add_input("a", a).expect("fresh");
    n.add_input("b", b).expect("fresh");
    let floating = net(&mut n, "floating");
    let dangling = net(&mut n, "dangling");
    let gate = |n: &mut Netlist, k: usize, cell, fanin: &[NetId]| {
        let out = n.add_net(format!("w{k}"));
        n.add_instance(format!("g{k}"), lib, cell, fanin, out)
            .expect("well-formed gate");
        out
    };
    let twice = gate(&mut n, 0, nand, &[a, a]);
    let fed_by_nothing = gate(&mut n, 1, nand, &[twice, floating]);
    let tied = gate(&mut n, 2, nand, &[b, fed_by_nothing]);
    let leaf = gate(&mut n, 3, inv, &[tied]);
    let mut last = tied;
    for k in 4..12 {
        last = gate(&mut n, k, nand, &[last, twice]);
    }
    // Ports are declared so that `tied`'s two ports are not adjacent and
    // its first one is not the lowest ordinal.
    n.add_output("thru", b);
    n.add_output("tied_first", tied);
    n.add_output("leaf", leaf);
    n.add_output("tied_second", tied);
    n.add_output("dangling", dangling);
    n.add_output("last", last);
    n
}

#[test]
fn awkward_nets_match_reference() {
    let lib = lib();
    let netlist = awkward_netlist(&lib);
    let n = netlist.instance_count();
    let start = Placement::initial(&netlist, &lib, 0.7);

    // The views themselves: dedup, and the first of two tied ports.
    let (views, _) = PinViews::build(&netlist, &start, &[]).expect("12 movable cells");
    let a = netlist.inputs()[0].1;
    assert_eq!(
        views.nets_of(0).len(),
        2,
        "g0 = nand(a, a) touches a and w0"
    );
    assert!(views.nets_of(0).contains(&ix(a.index())));
    for (net, _) in netlist.iter_nets() {
        assert_eq!(
            views.hpwl(&start.cells, ix(net.index())).to_bits(),
            start.net_hpwl(&netlist, net).value().to_bits(),
            "{net}"
        );
    }

    for seed in 0..8u64 {
        for (m, frozen) in masks(n, seed).iter().enumerate() {
            for schedule in [SCHEDULE, SHORT] {
                let what = format!("awkward seed {seed} mask {m}");
                assert_kernel_matches(&netlist, &start, seed, &schedule, frozen, &what);
            }
        }
    }
}

#[test]
fn nothing_to_anneal_is_a_no_op() {
    let lib = lib();
    let inv = lib.smallest(CellFunction::Inv).expect("inv");

    // n < 2: one inverter — and any mask length goes unchecked, as before.
    let mut one = Netlist::new("one");
    let a = one.add_net("a");
    let y = one.add_net("y");
    one.add_input("a", a).expect("fresh");
    one.add_instance("g", &lib, inv, &[a], y).expect("inv");
    one.add_output("y", y);
    let start = Placement::initial(&one, &lib, 0.7);
    assert!(PinViews::build(&one, &start, &[]).is_none());
    assert_kernel_matches(&one, &start, 1, &SCHEDULE, &[], "n = 1");

    // No instances at all.
    let empty = Netlist::new("empty");
    let start = Placement::initial(&empty, &lib, 0.7);
    assert_kernel_matches(&empty, &start, 1, &SCHEDULE, &[], "n = 0");

    // Fewer than two movable cells, through the kernel and the public
    // entry.
    let netlist = awkward_netlist(&lib);
    let n = netlist.instance_count();
    let start = Placement::initial(&netlist, &lib, 0.7);
    let none_movable = vec![true; n];
    let mut one_movable = none_movable.clone();
    one_movable[5] = false;
    for frozen in [none_movable, one_movable] {
        assert!(PinViews::build(&netlist, &start, &frozen).is_none());
        assert_kernel_matches(&netlist, &start, 2, &SHORT, &frozen, "frozen");
        let mut public = start.clone();
        let hpwl = anneal_placement(&netlist, &mut public, &AnnealOptions::quick(2), &frozen);
        assert_eq!(public, start);
        assert_eq!(hpwl.to_bits(), start.total_hpwl(&netlist).value().to_bits());
    }
}

#[test]
#[should_panic(expected = "frozen mask must be empty or cover every instance")]
fn short_frozen_mask_is_rejected() {
    let lib = lib();
    let netlist = awkward_netlist(&lib);
    let mut p = Placement::initial(&netlist, &lib, 0.7);
    anneal_with(&netlist, &mut p, 1, &SCHEDULE, &[false; 3]);
}
