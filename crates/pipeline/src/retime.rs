//! Register insertion: pipelining a combinational netlist.
//!
//! Stages are cut at delay-balanced thresholds of the STA arrival times;
//! each net crossing a cut gets a register (a chain, when it crosses
//! several). Because a gate's stage is a function of its own arrival, all
//! paths into a gate carry the same register count — the transform is
//! correct by construction, and the tests verify it by simulation.

use asicgap_cells::{CellFunction, Library};
use asicgap_equiv::{check_equiv_with, EquivError, EquivReport, SeqMode};
use asicgap_netlist::{NetDriver, NetId, Netlist, Sink};
use asicgap_sta::{analyze, ClockSpec, TimingReport};
use asicgap_tech::Ps;

/// The result of pipelining.
#[derive(Debug, Clone)]
pub struct PipelinedNetlist {
    /// The registered netlist.
    pub netlist: Netlist,
    /// Requested stage count.
    pub stages: usize,
    /// Registers inserted.
    pub registers_inserted: usize,
    /// Latency in cycles from inputs to the slowest output.
    pub latency: usize,
}

/// Proves that a pipelined netlist computes the same function as the flat
/// combinational original.
///
/// The pipeline registers carry no retimed logic of their own — each one
/// is a pure delay — so treating every register as *transparent* (a wire)
/// must recover the original combinational function exactly. The flat
/// side imports normally, the pipelined side imports with
/// [`SeqMode::Transparent`], and the miter compares primary outputs
/// cone-by-cone. Because register insertion never restructures gates,
/// strashing discharges every cone structurally; a SAT cone here means an
/// upstream transform rewired something.
///
/// Counterexamples replay through the simulator with a full pipeline
/// flush (inputs held, one clock per register) before being reported.
///
/// # Errors
///
/// [`EquivError::SequentialLoop`] if the "pipelined" side has register
/// feedback (it is not a pipeline), interface mismatches, and the
/// checker-bug case of an unconfirmed counterexample.
pub fn verify_pipeline(
    flat: &Netlist,
    piped: &Netlist,
    lib: &Library,
) -> Result<EquivReport, EquivError> {
    check_equiv_with(flat, lib, piped, lib, SeqMode::Transparent)
}

/// Pipelines a **combinational** netlist into `stages` stages.
///
/// # Example
///
/// ```
/// use asicgap_tech::Technology;
/// use asicgap_cells::LibrarySpec;
/// use asicgap_netlist::generators;
/// use asicgap_pipeline::pipeline_netlist;
///
/// let tech = Technology::cmos025_asic();
/// let lib = LibrarySpec::rich().build(&tech);
/// let mult = generators::array_multiplier(&lib, 6)?;
/// let piped = pipeline_netlist(&mult, &lib, 3)?;
/// assert!(piped.registers_inserted > 0);
/// assert!(piped.latency <= 3);
/// # Ok::<(), asicgap_netlist::NetlistError>(())
/// ```
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if the input netlist already contains sequential elements, if
/// `stages < 2`, or if the library has no flip-flop.
pub fn pipeline_netlist(
    netlist: &Netlist,
    lib: &Library,
    stages: usize,
) -> Result<PipelinedNetlist, asicgap_netlist::NetlistError> {
    let report = analyze(netlist, lib, &ClockSpec::unconstrained(), None);
    pipeline_netlist_with(netlist, lib, stages, &report)
}

/// Like [`pipeline_netlist`], reusing a caller-supplied timing report for
/// the arrival-based stage assignment instead of running a fresh
/// analysis. Flows that already hold a warm
/// [`TimingGraph`](asicgap_sta::TimingGraph) pass its
/// [`report()`](asicgap_sta::TimingGraph::report) here, so pipelining
/// costs no extra propagation.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if the input netlist already contains sequential elements, if
/// `stages < 2`, if the library has no flip-flop, or if `report` was
/// produced for a different netlist.
pub fn pipeline_netlist_with(
    netlist: &Netlist,
    lib: &Library,
    stages: usize,
    report: &TimingReport,
) -> Result<PipelinedNetlist, asicgap_netlist::NetlistError> {
    assert!(stages >= 2, "pipelining needs at least 2 stages");
    assert!(
        netlist.iter_instances().all(|(_, i)| !i.is_sequential()),
        "pipeline_netlist expects a combinational netlist"
    );
    let dff = lib
        .smallest(CellFunction::Dff)
        .expect("library provides a flip-flop");

    // Arrival-based stage assignment.
    let total = report.critical.delay;
    let stage_of_arrival = |a: Ps| -> usize {
        if total.value() <= 0.0 {
            return 0;
        }
        // Nets exactly at the boundary belong to the earlier stage.
        let frac = (a / total).min(1.0 - 1e-12);
        (frac * stages as f64).floor() as usize
    };

    let mut out = netlist.clone();
    let mut inserted = 0usize;

    // Stage of each original net (by its arrival). Primary inputs are
    // stage 0.
    let stage: Vec<usize> = (0..netlist.net_count())
        .map(|i| stage_of_arrival(report.arrival(NetId::from_index(i))))
        .collect();

    for (id, _) in netlist.iter_nets() {
        let src_stage = match netlist.net(id).driver() {
            Some(NetDriver::PrimaryInput(_)) => 0,
            Some(NetDriver::Instance(_)) => stage[id.index()],
            None => continue,
        };
        // Which sinks need delays? Sink instance's stage = stage of its
        // output net.
        let sinks: Vec<(Sink, usize)> = netlist
            .net(id)
            .sinks()
            .iter()
            .map(|s| {
                let sink_stage = stage[netlist.instance(s.inst).out().index()];
                (*s, sink_stage)
            })
            .collect();
        let max_cross = sinks
            .iter()
            .map(|&(_, ss)| ss.saturating_sub(src_stage))
            .max()
            .unwrap_or(0);
        if max_cross == 0 {
            continue;
        }
        // Build the register chain q1..q_max.
        let mut chain = Vec::with_capacity(max_cross);
        let mut prev = id;
        for k in 1..=max_cross {
            let name = format!("{}_s{}", netlist.net(id).name(), k);
            let q = out.add_net(name.clone());
            out.add_instance(format!("pipe_{name}"), lib, dff, &[prev], q)?;
            inserted += 1;
            chain.push(q);
            prev = q;
        }
        for (s, sink_stage) in sinks {
            let cross = sink_stage.saturating_sub(src_stage);
            if cross > 0 {
                out.redirect_sink(s.inst, s.pin as usize, chain[cross - 1]);
            }
        }
    }

    // Latency: stage of the slowest primary output.
    let latency = netlist
        .outputs()
        .iter()
        .map(|(_, net)| stage[net.index()])
        .max()
        .unwrap_or(0);

    out.topo_order()?;
    Ok(PipelinedNetlist {
        netlist: out,
        stages,
        registers_inserted: inserted,
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{from_bits, generators, to_bits, Simulator};
    use asicgap_tech::Technology;

    fn setup() -> asicgap_cells::Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    #[test]
    fn pipelined_adder_still_adds() {
        let lib = setup();
        let adder = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let piped = pipeline_netlist(&adder, &lib, 4).expect("pipelines");
        assert!(piped.registers_inserted > 0);
        let mut sim = Simulator::new(&piped.netlist, &lib);
        for (a, b, cin) in [(100u64, 27u64, false), (255, 255, true), (0, 0, false)] {
            let mut inputs = to_bits(a, 8);
            inputs.extend(to_bits(b, 8));
            inputs.push(cin);
            // Hold inputs and flush the pipeline.
            let out = sim.run_pipelined(&inputs, piped.stages + 1);
            assert_eq!(from_bits(&out), a + b + cin as u64, "{a}+{b}+{cin}");
        }
    }

    #[test]
    fn pipelining_cuts_min_period_substantially() {
        let lib = setup();
        let mult = generators::array_multiplier(&lib, 8).expect("mult8");
        let clock = ClockSpec::unconstrained();
        let flat = analyze(&mult, &lib, &clock, None).min_period;
        let piped = pipeline_netlist(&mult, &lib, 5).expect("pipelines");
        let fast = analyze(&piped.netlist, &lib, &clock, None).min_period;
        let speedup = flat / fast;
        // 5 stages with ASIC FF overheads: expect ~3-4x, the paper's band.
        assert!(
            speedup > 2.5 && speedup < 5.0,
            "5-stage pipelining speedup {speedup:.2}"
        );
    }

    #[test]
    fn more_stages_less_marginal_gain() {
        let lib = setup();
        let mult = generators::array_multiplier(&lib, 8).expect("mult8");
        let clock = ClockSpec::unconstrained();
        let t2 = analyze(
            &pipeline_netlist(&mult, &lib, 2).expect("p2").netlist,
            &lib,
            &clock,
            None,
        )
        .min_period;
        let t4 = analyze(
            &pipeline_netlist(&mult, &lib, 4).expect("p4").netlist,
            &lib,
            &clock,
            None,
        )
        .min_period;
        let t8 = analyze(
            &pipeline_netlist(&mult, &lib, 8).expect("p8").netlist,
            &lib,
            &clock,
            None,
        )
        .min_period;
        assert!(t4 < t2);
        assert!(t8 < t4);
        let gain_2_to_4 = t2 / t4;
        let gain_4_to_8 = t4 / t8;
        assert!(
            gain_4_to_8 < gain_2_to_4,
            "diminishing returns: {gain_2_to_4:.2} then {gain_4_to_8:.2}"
        );
    }

    #[test]
    fn latency_matches_stage_count() {
        let lib = setup();
        let adder = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let piped = pipeline_netlist(&adder, &lib, 4).expect("pipelines");
        assert!(piped.latency <= 4);
        assert!(piped.latency >= 2);
    }

    #[test]
    fn verify_pipeline_proves_structurally() {
        let lib = setup();
        let adder = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let piped = pipeline_netlist(&adder, &lib, 4).expect("pipelines");
        let report = verify_pipeline(&adder, &piped.netlist, &lib).expect("verifies");
        assert!(report.is_equivalent());
        // Registers are pure delays: every cone folds structurally.
        assert_eq!(report.effort.structural, report.effort.cones);
        assert_eq!(report.effort.sat_cones, 0);
    }

    #[test]
    fn verify_pipeline_catches_a_dropped_register_rewire() {
        let lib = setup();
        let adder = generators::ripple_carry_adder(&lib, 6).expect("rca6");
        let piped = pipeline_netlist(&adder, &lib, 3).expect("pipelines");
        // Sabotage: reroute one register's data input to a primary input,
        // changing the transparent function.
        let mut broken = piped.netlist.clone();
        let victim = broken
            .iter_instances()
            .find(|(_, i)| i.is_sequential())
            .map(|(id, _)| id)
            .expect("has registers");
        let wrong_net = broken.inputs()[0].1;
        if broken.instance(victim).fanin()[0] != wrong_net {
            broken.redirect_sink(victim, 0, wrong_net);
            let report = verify_pipeline(&adder, &broken, &lib).expect("checks");
            match report.result {
                asicgap_equiv::EquivResult::Inequivalent(cex) => assert!(cex.confirmed),
                asicgap_equiv::EquivResult::Equivalent => {
                    panic!("rewired register must break equivalence")
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "combinational netlist")]
    fn sequential_input_rejected() {
        let lib = setup();
        let mut b = asicgap_netlist::NetlistBuilder::new("seq", &lib);
        let a = b.input("a");
        let q = b.dff(a).expect("dff");
        b.output("q", q);
        let n = b.finish().expect("valid");
        let _ = pipeline_netlist(&n, &lib, 2);
    }
}
