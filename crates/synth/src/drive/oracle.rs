//! Differential oracle for the stale-set drive sweep: the loop it
//! replaced survives here, test-only — every instance evaluated on every
//! pass in a visit order rebuilt per pass, each decision scanning the
//! whole drive menu, and wire loads always read from an allocated
//! `NetParasitics` (all zero for ideal wires) — and the sweep must commit
//! the same swaps in the same order. Equal cells per instance and an
//! equal `min_period()` (plus equal `TimingGraph::stats()` where both
//! sides are timed the same way) mean the stale set skipped only
//! evaluations that would have kept the drive they found.
//!
//! Expiry: delete this module when the drive decision rule changes in a
//! way that re-pins an E-table (a new gain rule, a load model other than
//! sink input caps plus wire cap): the exactness argument in
//! [`sweep`](super::sweep) is about this rule, and a new rule needs its
//! own.

use asicgap_cells::{CellFunction, LibrarySpec};
use asicgap_netlist::generators::{self, RandomLogicSpec, XlargeSpec};
use asicgap_netlist::NetlistError;
use asicgap_sta::{ClockSpec, IncrementalStats, TimingGraph};
use asicgap_tech::{Ps, Rng64, Technology};

use super::*;

/// The pre-refactor visit order, rebuilt every pass.
fn every_pass_order(netlist: &Netlist) -> Vec<InstId> {
    let mut order = netlist
        .topo_order()
        .expect("drive selection requires an acyclic netlist")
        .to_vec();
    order.reverse();
    order.extend(
        netlist
            .iter_instances()
            .filter(|(_, i)| i.is_sequential())
            .map(|(id, _)| id),
    );
    order
}

/// The pre-bracket decision: [`best_drive`] with every drive of the menu
/// keyed, the first least key winning, and the wire cap read from an
/// allocated `NetParasitics` where the sweep reads none on ideal wires.
fn best_drive_scanned(
    netlist: &Netlist,
    lib: &Library,
    wires: &NetParasitics,
    id: InstId,
    target_gain: f64,
) -> Option<CellId> {
    let load = drive_load(netlist, lib, Some(wires), id);
    if load <= Ff::ZERO {
        return None;
    }
    let cell = netlist.instance(id).cell();
    let gain_error = |c: CellId| (load / lib.cell(c).input_cap / target_gain).ln().abs();
    let best = lib
        .menu(cell)
        .iter()
        .copied()
        .min_by(|&a, &b| {
            gain_error(a)
                .partial_cmp(&gain_error(b))
                .expect("gains are finite")
        })
        .expect("a menu holds its own cell");
    (best != cell).then_some(best)
}

/// The pre-refactor sweep: every instance, every pass, in a visit order
/// rebuilt per pass.
fn select_drives_every_instance(
    netlist: &mut Netlist,
    lib: &Library,
    wires: &NetParasitics,
    target_gain: f64,
    passes: usize,
) {
    for _ in 0..passes {
        for id in every_pass_order(netlist) {
            if let Some(best) = best_drive_scanned(netlist, lib, wires, id, target_gain) {
                netlist.set_instance_cell(lib, id, best);
            }
        }
    }
}

/// Registers whose Q nets load their own D cones: `loop` feeds its Q
/// straight back to D and to a fanout of gates, `tog` toggles through an
/// inverter, and `acc` folds its Q into a NAND chain that drives its D.
/// A swap on any of them re-stales the register itself.
fn self_loading_registers(lib: &Library) -> Result<Netlist, NetlistError> {
    let cell = |f: CellFunction| lib.smallest(f).expect("rich library cell");
    let (dff, inv, nand2) = (
        cell(CellFunction::Dff),
        cell(CellFunction::Inv),
        cell(CellFunction::Nand(2)),
    );
    let mut n = Netlist::new("self_loading");
    let a = n.add_net("a");
    n.add_input("a", a)?;

    let q_loop = n.add_net("q_loop");
    n.add_instance("loop", lib, dff, &[q_loop], q_loop)?;
    for k in 0..6 {
        let y = n.add_net(format!("fan{k}"));
        n.add_instance(format!("g{k}"), lib, nand2, &[q_loop, a], y)?;
        n.add_output(format!("fan{k}"), y);
    }

    let (q_tog, d_tog) = (n.add_net("q_tog"), n.add_net("d_tog"));
    n.add_instance("tog", lib, dff, &[d_tog], q_tog)?;
    n.add_instance("flip", lib, inv, &[q_tog], d_tog)?;
    n.add_output("tog", q_tog);

    let (q_acc, d_acc) = (n.add_net("q_acc"), n.add_net("d_acc"));
    n.add_instance("acc", lib, dff, &[d_acc], q_acc)?;
    let mut chain = q_acc;
    for k in 0..4 {
        let y = if k == 3 {
            d_acc
        } else {
            n.add_net(format!("c{k}"))
        };
        n.add_instance(format!("c{k}"), lib, nand2, &[chain, q_acc], y)?;
        chain = y;
    }
    n.add_output("acc", q_acc);
    n.topo_order()?;
    Ok(n)
}

type Gen = fn(&Library) -> Result<Netlist, NetlistError>;

/// Every generator, at sizes that keep the sweep matrix quick.
fn designs() -> Vec<(&'static str, Gen)> {
    vec![
        ("rca", |l| generators::ripple_carry_adder(l, 8)),
        ("cla", |l| generators::carry_lookahead_adder(l, 8)),
        ("csel", |l| generators::carry_select_adder(l, 8, 2)),
        ("cskip", |l| generators::carry_skip_adder(l, 8, 2)),
        ("ks", |l| generators::kogge_stone_adder(l, 8)),
        ("alu", |l| generators::alu(l, 4)),
        ("counter", |l| generators::counter(l, 6)),
        ("crc", |l| generators::crc_checker(l, 8, 0x07, 8)),
        ("datapath", |l| generators::datapath(l, 4)),
        ("mux", |l| generators::mux_tree(l, 8)),
        ("parity", |l| generators::parity_tree(l, 12)),
        ("eq", |l| generators::equality_comparator(l, 8)),
        ("mult", |l| generators::array_multiplier(l, 6)),
        ("bshift", |l| generators::barrel_shifter(l, 8)),
        ("random", |l| {
            generators::random_logic(l, &RandomLogicSpec::control_block(7))
        }),
        ("xlarge", |l| generators::xlarge(l, &XlargeSpec::small(3))),
        ("self_loading", self_loading_registers),
    ]
}

/// Seeded wire caps on every net, so loads are not sink caps alone.
fn seeded_parasitics(netlist: &Netlist, seed: u64) -> NetParasitics {
    let mut rng = Rng64::new(seed);
    let mut par = NetParasitics::ideal(netlist);
    for (id, _) in netlist.iter_nets() {
        par.set(id, Ff::new(rng.uniform_in(0.0, 40.0)), Ps::new(0.0));
    }
    par
}

/// What a selection leaves behind: the cell per instance, and what a
/// timer over the result reports.
#[derive(Debug, PartialEq)]
struct Settled {
    cells: Vec<CellId>,
    stats_before_query: IncrementalStats,
    min_period: Ps,
    stats_after_query: IncrementalStats,
}

fn settle(mut graph: TimingGraph) -> Settled {
    let stats_before_query = graph.stats();
    let min_period = graph.min_period();
    Settled {
        cells: graph
            .netlist()
            .iter_instances()
            .map(|(_, i)| i.cell())
            .collect(),
        stats_before_query,
        min_period,
        stats_after_query: graph.stats(),
    }
}

/// What a fresh timer over `netlist` settles to.
fn timed(netlist: Netlist, lib: &Library, parasitics: Option<NetParasitics>) -> Settled {
    settle(TimingGraph::new(
        netlist,
        lib,
        ClockSpec::unconstrained(),
        parasitics,
    ))
}

#[test]
fn stale_set_sweep_matches_the_every_instance_loop() {
    let tech = Technology::cmos025_asic();
    let mut runs = 0;
    // Cases where a pass after the first still swapped: the ones that
    // exercise re-staling rather than the first, every-instance pass.
    let mut later_pass_swaps = 0;
    for lib in [
        LibrarySpec::rich().build(&tech),
        LibrarySpec::two_drive().build(&tech),
    ] {
        for (name, gen) in designs() {
            let golden = gen(&lib).unwrap_or_else(|e| panic!("{name}: {e}"));
            let par = seeded_parasitics(&golden, golden.instance_count() as u64);
            for target_gain in [2.0, 4.0, 6.0] {
                let mut one_pass = Vec::new();
                for passes in [1, 2, 3, 5] {
                    let case = format!("{} {name} gain {target_gain} passes {passes}", lib.name);

                    // The bare netlist on ideal wires, timed afterwards.
                    let (mut fast, mut slow) = (golden.clone(), golden.clone());
                    sweep(&mut fast, &lib, None, target_gain, passes);
                    let ideal = NetParasitics::ideal(&slow);
                    select_drives_every_instance(&mut slow, &lib, &ideal, target_gain, passes);
                    assert_eq!(
                        timed(fast, &lib, None),
                        timed(slow, &lib, None),
                        "{case}: bare"
                    );
                    runs += 1;

                    // Handed a live graph's netlist and wires, ideal and
                    // seeded, and timed by the graph's next query; the
                    // reference sizes a bare copy and times it fresh.
                    for (k, parasitics) in [None, Some(&par)].into_iter().enumerate() {
                        let mut graph = TimingGraph::new(
                            golden.clone(),
                            &lib,
                            ClockSpec::unconstrained(),
                            parasitics.cloned(),
                        );
                        graph.resize_in_bulk(|netlist, lib, wires| {
                            sweep(netlist, lib, Some(wires), target_gain, passes);
                        });
                        let fast = settle(graph);
                        let mut slow = golden.clone();
                        let wires = parasitics
                            .cloned()
                            .unwrap_or_else(|| NetParasitics::ideal(&slow));
                        select_drives_every_instance(&mut slow, &lib, &wires, target_gain, passes);
                        let slow = timed(slow, &lib, parasitics.cloned());
                        assert_eq!(fast.cells, slow.cells, "{case} wires {k}: cells");
                        assert_eq!(
                            fast.min_period.value().to_bits(),
                            slow.min_period.value().to_bits(),
                            "{case} wires {k}: min_period"
                        );
                        assert_eq!(
                            fast.stats_after_query - fast.stats_before_query,
                            slow.stats_after_query,
                            "{case} wires {k}: the query re-times the swaps as one fresh analyze"
                        );
                        if passes == 1 {
                            one_pass.push(fast.cells);
                        } else if fast.cells != one_pass[k] {
                            later_pass_swaps += 1;
                        }
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 2 * 17 * 3 * 4 * 3);
    assert!(
        later_pass_swaps >= 40,
        "only {later_pass_swaps} cases swapped after pass 1"
    );
}
