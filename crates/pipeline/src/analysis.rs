//! Stage-level analysis of pipelined netlists.
//!
//! [`stage_profile`] recovers the per-stage worst logic delays of a
//! feed-forward pipeline (what the §4 model treats as given), and
//! [`borrowing_gain`] applies the §4.1 latch time-borrowing bound to the
//! *measured* profile — connecting the netlist world to the closed-form
//! world.

use asicgap_cells::{CellFunction, Library};
use asicgap_netlist::Netlist;
use asicgap_sta::{analyze, ClockSpec};
use asicgap_tech::Ps;

use crate::borrow::{borrowed_cycle, BorrowReport};

/// Per-stage worst path delays (raw combinational arrival at the capturing
/// register's D, including launch clk→Q), stage 1 first. The final entry
/// covers register→primary-output paths when any exist.
///
/// # Panics
///
/// Panics if the register dependency graph is cyclic (this analysis is
/// for feed-forward pipelines) or the netlist is combinationally cyclic.
pub(crate) fn stage_profile(netlist: &Netlist, lib: &Library) -> Vec<Ps> {
    let report = analyze(netlist, lib, &ClockSpec::unconstrained(), None);
    let order = netlist.topo_order().expect("acyclic combinational logic");

    // Register stages via fixpoint: stage(reg) = 1 + max stage reaching
    // its D; PI contributes stage 0.
    let n_nets = netlist.net_count();
    let mut reg_stage: Vec<usize> = netlist
        .iter_instances()
        .map(|(_, i)| usize::from(i.is_sequential()))
        .collect();
    for round in 0..=netlist.instance_count().max(1) {
        let mut net_stage = vec![0usize; n_nets];
        for (id, inst) in netlist.iter_instances() {
            if inst.is_sequential() {
                net_stage[inst.out().index()] = reg_stage[id.index()];
            }
        }
        for &id in order {
            let inst = netlist.instance(id);
            let s = inst
                .fanin()
                .iter()
                .map(|&f| net_stage[f.index()])
                .max()
                .unwrap_or(0);
            net_stage[inst.out().index()] = s;
        }
        let mut changed = false;
        for (id, inst) in netlist.iter_instances() {
            if !inst.is_sequential() {
                continue;
            }
            let want = 1 + net_stage[inst.fanin()[0].index()];
            if reg_stage[id.index()] != want {
                reg_stage[id.index()] = want;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        assert!(
            round < netlist.instance_count(),
            "register graph has a cycle; stage_profile needs a feed-forward pipeline"
        );
    }

    let max_stage = netlist
        .iter_instances()
        .filter(|(_, i)| i.is_sequential())
        .map(|(id, _)| reg_stage[id.index()])
        .max()
        .unwrap_or(0);

    // Worst D arrival per capturing stage.
    let mut profile = vec![Ps::ZERO; max_stage];
    for (id, inst) in netlist.iter_instances() {
        if !inst.is_sequential() {
            continue;
        }
        let s = reg_stage[id.index()];
        let a = report.arrival(inst.fanin()[0]);
        profile[s - 1] = profile[s - 1].max(a);
    }
    // Register→output tail stage.
    let mut tail = Ps::ZERO;
    let mut any_po_from_reg = false;
    for (_, net) in netlist.outputs() {
        if report.is_from_register(*net) {
            any_po_from_reg = true;
            tail = tail.max(report.arrival(*net));
        }
    }
    if any_po_from_reg {
        profile.push(tail);
    }
    profile
}

/// Applies the two-phase latch bound to the measured stage profile of a
/// pipelined netlist, using the library's own flip-flop and latch
/// overheads.
///
/// # Panics
///
/// Panics if the netlist has no registers, or the library lacks a latch.
pub fn borrowing_gain(netlist: &Netlist, lib: &Library) -> BorrowReport {
    let profile = stage_profile(netlist, lib);
    assert!(!profile.is_empty(), "borrowing needs a pipelined netlist");
    let ff = lib
        .smallest(CellFunction::Dff)
        .map(|id| {
            lib.cell(id)
                .kind
                .seq_timing()
                .expect("dff timing")
                .cycle_overhead()
        })
        .expect("library provides a flip-flop");
    let latch = lib
        .smallest(CellFunction::Latch)
        .map(|id| {
            lib.cell(id)
                .kind
                .seq_timing()
                .expect("latch timing")
                .cycle_overhead()
        })
        .expect("library provides a latch");
    borrowed_cycle(&profile, ff, latch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retime::pipeline_netlist;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    fn setup() -> asicgap_cells::Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    #[test]
    fn profile_length_matches_stage_count() {
        let lib = setup();
        let mult = generators::array_multiplier(&lib, 8).expect("mult8");
        for stages in [2usize, 4, 6] {
            let piped = pipeline_netlist(&mult, &lib, stages).expect("pipelines");
            let profile = stage_profile(&piped.netlist, &lib);
            // Stages plus possibly a register->output tail.
            assert!(
                profile.len() == stages
                    || profile.len() == stages + 1
                    || profile.len() == piped.latency
                    || profile.len() == piped.latency + 1,
                "profile len {} for {stages} stages (latency {})",
                profile.len(),
                piped.latency
            );
        }
    }

    #[test]
    fn worst_stage_is_consistent_with_sta_min_period() {
        let lib = setup();
        let mult = generators::array_multiplier(&lib, 8).expect("mult8");
        let piped = pipeline_netlist(&mult, &lib, 4).expect("pipelines");
        let profile = stage_profile(&piped.netlist, &lib);
        let worst = profile.iter().copied().fold(Ps::ZERO, Ps::max);
        let sta = analyze(&piped.netlist, &lib, &ClockSpec::unconstrained(), None);
        // min_period = worst arrival + setup; worst profile entry is the
        // raw arrival side of that.
        assert!(worst <= sta.min_period);
        assert!(worst > sta.min_period * 0.7);
    }

    #[test]
    fn borrowing_helps_imbalanced_real_pipelines() {
        let lib = setup();
        // 3 stages over a ripple adder: integer-granularity cuts leave
        // visible imbalance for latches to recover.
        let rca = generators::ripple_carry_adder(&lib, 24).expect("rca24");
        let piped = pipeline_netlist(&rca, &lib, 3).expect("pipelines");
        let r = borrowing_gain(&piped.netlist, &lib);
        assert!(
            r.speedup() > 1.05,
            "borrowing gain {:.3} on a real pipeline",
            r.speedup()
        );
    }
}
