//! Incremental-vs-fresh timing equivalence: randomized ECO sequences.
//!
//! The contract of [`TimingGraph`] is that after any sequence of
//! mutations its answers are the ones a from-scratch [`analyze`] of the
//! mutated netlist would give. These tests drive long randomized
//! sequences of `resize_cell` / `insert_buffer` / `retarget_net` over the
//! whole generator suite and compare every net arrival and the min-period
//! after each step.

use asicgap::cells::{CellFunction, Library, LibrarySpec};
use asicgap::netlist::{generators, InstId, NetDriver, NetId, Netlist, Sink};
use asicgap::place::{annotate, AnnealOptions, Floorplan, FloorplanStrategy};
use asicgap::sta::{analyze, ClockSpec, NetParasitics, TimingGraph, TimingReport};
use asicgap::synth::select_drives_with;
use asicgap::tech::{Ff, Ps, Technology};

/// Tolerance from the issue statement. In practice the match is bitwise.
const TOL: f64 = 1e-9;

/// Deterministic xorshift, so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn rich() -> Library {
    LibrarySpec::rich().build(&Technology::cmos025_asic())
}

/// Every net arrival and the min-period must match a fresh analyze of the
/// graph's current netlist and parasitics.
fn assert_matches_fresh(graph: &mut TimingGraph, lib: &Library, ctx: &str) {
    let fresh = analyze(
        graph.netlist(),
        lib,
        &graph.clock(),
        Some(graph.parasitics()),
    );
    for i in 0..graph.netlist().net_count() {
        let net = NetId::from_index(i);
        let inc = graph.arrival(net).value();
        let full = fresh.arrival(net).value();
        assert!(
            (inc - full).abs() <= TOL,
            "{ctx}: net {i} arrival diverged: incremental {inc} vs fresh {full}"
        );
    }
    let inc = graph.min_period().value();
    let full = fresh.min_period.value();
    assert!(
        (inc - full).abs() <= TOL,
        "{ctx}: min_period diverged: incremental {inc} vs fresh {full}"
    );
}

/// One random ECO: a drive swap, a fanout split, or a sink retarget onto
/// a primary-input net (always acyclic).
fn mutate(graph: &mut TimingGraph, rng: &mut Rng) -> &'static str {
    let lib = graph.library();
    match rng.below(4) {
        // Drive swaps get double weight: they are the common ECO.
        0 | 1 => {
            let id = InstId::from_index(rng.below(graph.netlist().instance_count()));
            let drives = lib.menu(graph.netlist().instance(id).cell());
            let pick = drives[rng.below(drives.len())];
            graph.resize_cell(id, pick);
            "resize_cell"
        }
        2 => {
            // Split a multi-sink net: move a random non-empty prefix of
            // its sinks behind a buffer.
            let candidates: Vec<NetId> = graph
                .netlist()
                .iter_nets()
                .filter(|(_, n)| n.driver().is_some() && n.sinks().len() >= 2)
                .map(|(id, _)| id)
                .collect();
            if candidates.is_empty() {
                return "skip";
            }
            let net = candidates[rng.below(candidates.len())];
            let sinks = graph.netlist().net(net).sinks().to_vec();
            let take = 1 + rng.below(sinks.len() - 1);
            let moved: Vec<Sink> = sinks.into_iter().take(take).collect();
            let buf = lib.smallest(CellFunction::Buf).expect("rich lib has buf");
            graph
                .insert_buffer(net, buf, &moved)
                .expect("buffer inserts");
            "insert_buffer"
        }
        _ => {
            // Retargeting onto a primary input can never create a cycle,
            // and it still exercises load changes on both nets.
            let pis: Vec<NetId> = graph
                .netlist()
                .iter_nets()
                .filter(|(_, n)| matches!(n.driver(), Some(NetDriver::PrimaryInput(_))))
                .map(|(id, _)| id)
                .collect();
            let sinks: Vec<Sink> = graph
                .netlist()
                .iter_nets()
                .flat_map(|(_, n)| n.sinks().iter().copied())
                .collect();
            if pis.is_empty() || sinks.is_empty() {
                return "skip";
            }
            let s = sinks[rng.below(sinks.len())];
            let target = pis[rng.below(pis.len())];
            graph.retarget_net(s.inst, s.pin as usize, target);
            "retarget_net"
        }
    }
}

fn exercise(name: &str, netlist: Netlist, lib: &Library, seed: u64, steps: usize) {
    let mut graph = TimingGraph::new(netlist, lib, ClockSpec::unconstrained(), None);
    let mut rng = Rng(seed | 1);
    assert_matches_fresh(&mut graph, lib, &format!("{name} pristine"));
    for step in 0..steps {
        let what = mutate(&mut graph, &mut rng);
        assert_matches_fresh(&mut graph, lib, &format!("{name} step {step} ({what})"));
    }
    assert_eq!(
        graph.stats().full_propagations,
        1,
        "{name}: mutations must never fall back to a full propagation"
    );
}

#[test]
fn adders_survive_random_eco_sequences() {
    let lib = rich();
    exercise(
        "rca8",
        generators::ripple_carry_adder(&lib, 8).expect("rca8"),
        &lib,
        0xA11CE,
        30,
    );
    exercise(
        "cla8",
        generators::carry_lookahead_adder(&lib, 8).expect("cla8"),
        &lib,
        0xB0B,
        30,
    );
    exercise(
        "ks8",
        generators::kogge_stone_adder(&lib, 8).expect("ks8"),
        &lib,
        0xC0FFEE,
        30,
    );
}

#[test]
fn multiplier_survives_random_eco_sequences() {
    let lib = rich();
    exercise(
        "mult8",
        generators::array_multiplier(&lib, 8).expect("mult8"),
        &lib,
        0xD1CE,
        30,
    );
}

#[test]
fn alu_and_shifter_survive_random_eco_sequences() {
    let lib = rich();
    exercise(
        "alu8",
        generators::alu(&lib, 8).expect("alu8"),
        &lib,
        0xF00D,
        30,
    );
    exercise(
        "shift8",
        generators::barrel_shifter(&lib, 8).expect("shift8"),
        &lib,
        0xFEED,
        30,
    );
}

#[test]
fn crc_and_random_logic_survive_random_eco_sequences() {
    let lib = rich();
    exercise(
        "crc16x8",
        generators::crc_checker(&lib, 16, 0x07, 8).expect("crc"),
        &lib,
        0xBEEF,
        30,
    );
    exercise(
        "rand32x400",
        generators::random_logic(&lib, &generators::RandomLogicSpec::control_block(9))
            .expect("random logic"),
        &lib,
        0x5EED,
        30,
    );
}

#[test]
fn sequential_design_survives_random_eco_sequences() {
    let lib = rich();
    exercise(
        "counter16",
        generators::counter(&lib, 16).expect("counter16"),
        &lib,
        0xCAFE,
        30,
    );
}

#[test]
fn annotated_parasitics_survive_random_eco_sequences() {
    let lib = rich();
    let n = generators::alu(&lib, 8).expect("alu8");
    let fp = Floorplan::build(
        &n,
        &lib,
        FloorplanStrategy::Localized,
        &AnnealOptions::quick(3),
    );
    let par = annotate(&n, &lib, &fp.placement, true);
    let mut graph = TimingGraph::new(n, &lib, ClockSpec::unconstrained(), Some(par));
    let mut rng = Rng(0x9A9A9A9A);
    assert_matches_fresh(&mut graph, &lib, "annotated pristine");
    for step in 0..30 {
        let what = mutate(&mut graph, &mut rng);
        assert_matches_fresh(&mut graph, &lib, &format!("annotated step {step} ({what})"));
    }
}

/// Seeded wire caps and delays on every net of `netlist`, new nets
/// included.
fn seeded_parasitics(netlist: &Netlist, rng: &mut Rng) -> NetParasitics {
    let mut par = NetParasitics::ideal(netlist);
    for (id, _) in netlist.iter_nets() {
        let cap = (rng.below(4000) as f64) / 100.0;
        let delay = (rng.below(2000) as f64) / 100.0;
        par.set(id, Ff::new(cap), Ps::new(delay));
    }
    par
}

/// Two reports bit for bit: every per-net table, the endpoint results
/// and the traced critical path. Effort counters are compared by the
/// caller (a graph's accumulate over its life).
fn assert_reports_bit_equal(got: &TimingReport, want: &TimingReport, netlist: &Netlist, ctx: &str) {
    for (id, _) in netlist.iter_nets() {
        assert_eq!(
            got.arrival(id).value().to_bits(),
            want.arrival(id).value().to_bits(),
            "{ctx}: arrival of net {}",
            id.index()
        );
        assert_eq!(got.worst_driver(id), want.worst_driver(id), "{ctx}");
        assert_eq!(got.worst_pred(id), want.worst_pred(id), "{ctx}");
        assert_eq!(got.is_from_register(id), want.is_from_register(id), "{ctx}");
    }
    assert_eq!(
        got.min_period.value().to_bits(),
        want.min_period.value().to_bits(),
        "{ctx}: min period"
    );
    assert_eq!(
        got.wns.value().to_bits(),
        want.wns.value().to_bits(),
        "{ctx}"
    );
    assert_eq!(
        format!("{:?}", got.group_worst),
        format!("{:?}", want.group_worst),
        "{ctx}"
    );
    assert_eq!(
        format!("{:?}", got.critical),
        format!("{:?}", want.critical),
        "{ctx}"
    );
    assert_eq!(got.critical_endpoint, want.critical_endpoint, "{ctx}");
}

/// A structural edit (`insert_buffer`, `retarget_net`) drops the
/// netlist's kept topological order, and the next full propagation, a
/// fresh back-annotation here, sorts again. That propagation must give a
/// fresh `analyze`'s answer bit for bit and cost exactly its effort: one
/// full propagation over every combinational instance, nothing
/// incremental. Every other round queries between the edits and the
/// annotation, so the order is dropped both under a flushed and a dirty
/// engine. Each round then hands the graph's netlist to a drive sweep
/// (`resize_in_bulk`) and queries with no `set_parasitics` in between:
/// that query must time the swaps as a fresh `analyze` does, again for
/// exactly one full propagation's effort.
#[test]
fn structural_edits_then_set_parasitics_match_a_fresh_analyze() {
    let lib = rich();
    let designs = [
        ("alu8", generators::alu(&lib, 8).expect("alu8")),
        (
            "mult6",
            generators::array_multiplier(&lib, 6).expect("mult6"),
        ),
        (
            "counter12",
            generators::counter(&lib, 12).expect("counter12"),
        ),
        (
            "rand",
            generators::random_logic(&lib, &generators::RandomLogicSpec::control_block(5))
                .expect("random logic"),
        ),
    ];
    for (k, (name, netlist)) in designs.into_iter().enumerate() {
        let mut graph = TimingGraph::new(netlist, &lib, ClockSpec::unconstrained(), None);
        let mut rng = Rng(0x0DE2_0000 + k as u64);
        for round in 0..8 {
            // ECOs until at least one structural edit landed.
            let mut edits = Vec::new();
            while !edits
                .iter()
                .any(|w| *w == "insert_buffer" || *w == "retarget_net")
            {
                edits.push(mutate(&mut graph, &mut rng));
                if round % 2 == 1 {
                    let _ = graph.min_period();
                }
            }
            let ctx = format!("{name} round {round} after {edits:?}");
            let par = seeded_parasitics(graph.netlist(), &mut rng);
            let before = graph.stats();
            graph.set_parasitics(par.clone());
            let fresh = analyze(graph.netlist(), &lib, &graph.clock(), Some(&par));
            assert_eq!(graph.stats() - before, fresh.stats, "{ctx}: effort");
            let report = graph.report();
            assert_reports_bit_equal(&report, &fresh, graph.netlist(), &ctx);
            // The order the propagation kept is a topological order of
            // the edited netlist, over every combinational instance.
            let netlist = graph.netlist().clone();
            let order = graph.netlist().topo_order().expect("acyclic").to_vec();
            assert_eq!(order.len(), fresh.stats.pins_touched, "{ctx}");
            let mut pos = vec![usize::MAX; netlist.instance_count()];
            for (p, id) in order.iter().enumerate() {
                pos[id.index()] = p;
            }
            for &id in &order {
                for &net in netlist.instance(id).fanin() {
                    if let Some(NetDriver::Instance(src)) = netlist.net(net).driver() {
                        if !netlist.instance(src).is_sequential() {
                            assert!(pos[src.index()] < pos[id.index()], "{ctx}: order");
                        }
                    }
                }
            }

            let before = graph.stats();
            graph.resize_in_bulk(|netlist, lib, wires| {
                select_drives_with(netlist, lib, Some(wires), 2);
            });
            let report = graph.report();
            let fresh = analyze(graph.netlist(), &lib, &graph.clock(), Some(&par));
            let ctx = format!("{ctx}, then a bulk drive sweep");
            assert_eq!(graph.stats() - before, fresh.stats, "{ctx}: effort");
            assert_reports_bit_equal(&report, &fresh, graph.netlist(), &ctx);
        }
    }
}
