//! Hold-time (min-delay) analysis and fixing.
//!
//! Setup checks bound the clock period; hold checks are period-independent
//! races: data launched by one edge must not overrun the *same* edge's
//! capture at the next register. §4.1's skew discussion cuts both ways —
//! the skew that costs an ASIC cycle time also makes its short paths
//! race-prone, and registers "have to be more tolerant to clock skew",
//! i.e. carry bigger hold requirements. This module implements the
//! min-path check and the buffer-padding fix every ASIC flow runs.

use asicgap_cells::{CellFunction, Library};
use asicgap_netlist::{InstId, Netlist};
use asicgap_tech::Ps;

use crate::clock::ClockSpec;
use crate::parasitics::NetParasitics;

/// Fast-corner derate applied to gate delays on min paths (short paths
/// are checked at the fastest silicon).
const MIN_DELAY_DERATE: f64 = 0.7;

/// The result of a hold check.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldReport {
    /// Worst hold slack over all register endpoints (negative = violation).
    pub worst_slack: Ps,
    /// Registers whose D input violates hold, with their slack.
    pub violations: Vec<(InstId, Ps)>,
}

impl HoldReport {
    /// `true` if no endpoint violates.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Computes the earliest (min) arrival of every net at the fast corner.
fn min_arrivals(netlist: &Netlist, lib: &Library, par: &NetParasitics) -> Vec<Ps> {
    let tech = &lib.tech;
    let mut arrival = vec![Ps::ZERO; netlist.net_count()];
    for (_, inst) in netlist.iter_instances() {
        if inst.is_sequential() {
            let t = lib
                .cell(inst.cell())
                .kind
                .seq_timing()
                .expect("sequential timing");
            arrival[inst.out().index()] = t.clk_to_q * MIN_DELAY_DERATE;
        }
    }
    for &id in netlist.topo_order().expect("acyclic netlist") {
        let inst = netlist.instance(id);
        let cell = lib.cell(inst.cell());
        let load = netlist.net_load(lib, inst.out(), par.cap(inst.out()));
        let delay = (cell.delay(tech, load) + par.delay(inst.out())) * MIN_DELAY_DERATE;
        let min_in = inst
            .fanin()
            .iter()
            .map(|&n| arrival[n.index()])
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .expect("combinational gates have inputs");
        arrival[inst.out().index()] = min_in + delay;
    }
    arrival
}

/// Runs the hold check: for every register D pin,
/// `slack = min_arrival(D) − hold − skew`.
///
/// Paths from primary inputs are exempt (external input timing is the
/// board's problem, as in standard sign-off with input delays of 0).
pub fn check_hold(
    netlist: &Netlist,
    lib: &Library,
    clock: &ClockSpec,
    parasitics: Option<&NetParasitics>,
) -> HoldReport {
    let ideal;
    let par = match parasitics {
        Some(p) => p,
        None => {
            ideal = NetParasitics::ideal(netlist);
            &ideal
        }
    };
    let arrival = min_arrivals(netlist, lib, par);
    // A D pin fed (transitively) only by primary inputs is exempt; track
    // whether any register can reach each net.
    let mut reg_reachable = vec![false; netlist.net_count()];
    for (_, inst) in netlist.iter_instances() {
        if inst.is_sequential() {
            reg_reachable[inst.out().index()] = true;
        }
    }
    for &id in netlist.topo_order().expect("acyclic netlist") {
        let inst = netlist.instance(id);
        let any = inst.fanin().iter().any(|&n| reg_reachable[n.index()]);
        if any {
            reg_reachable[inst.out().index()] = true;
        }
    }

    let mut worst = Ps::new(f64::INFINITY);
    let mut violations = Vec::new();
    for (id, inst) in netlist.iter_instances() {
        if !inst.is_sequential() {
            continue;
        }
        let d = inst.fanin()[0];
        if !reg_reachable[d.index()] {
            continue;
        }
        let hold = lib
            .cell(inst.cell())
            .kind
            .seq_timing()
            .expect("sequential timing")
            .hold;
        let slack = arrival[d.index()] - hold - clock.skew - clock.jitter;
        if slack < worst {
            worst = slack;
        }
        if slack < Ps::ZERO {
            violations.push((id, slack));
        }
    }
    violations.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    HoldReport {
        worst_slack: worst,
        violations,
    }
}

/// Fixes hold violations by padding each violating D input with delay
/// buffers until the check is clean. Returns the number of buffers added.
///
/// # Errors
///
/// Propagates netlist errors; fails if the library has no buffer or
/// inverter to pad with.
///
/// # Panics
///
/// Panics if 64 padding rounds do not converge (would indicate a skew so
/// large no finite padding fixes it).
pub fn fix_hold_violations(
    netlist: &mut Netlist,
    lib: &Library,
    clock: &ClockSpec,
) -> Result<usize, asicgap_netlist::NetlistError> {
    let buf = lib
        .smallest(CellFunction::Buf)
        .or_else(|| lib.smallest(CellFunction::Inv));
    let Some(_) = buf else {
        return Err(asicgap_netlist::NetlistError::MissingCell {
            what: "buffer or inverter for hold fixing".to_string(),
        });
    };
    let mut added = 0usize;
    for round in 0..64 {
        let report = check_hold(netlist, lib, clock, None);
        if report.clean() {
            return Ok(added);
        }
        assert!(round < 63, "hold fixing did not converge");
        for (reg, _) in report.violations {
            // Insert one pad stage before the D pin (buffer, or an
            // inverter pair to preserve polarity).
            let d_net = netlist.instance(reg).fanin()[0];
            match lib.smallest(CellFunction::Buf) {
                Some(bcell) => {
                    let padded = netlist.add_net(format!("hold_{added}"));
                    netlist.add_instance(
                        format!("holdbuf_{added}"),
                        lib,
                        bcell,
                        &[d_net],
                        padded,
                    )?;
                    netlist.redirect_sink(reg, 0, padded);
                    added += 1;
                }
                None => {
                    let inv = lib.smallest(CellFunction::Inv).expect("checked above");
                    let mid = netlist.add_net(format!("hold_{added}m"));
                    let padded = netlist.add_net(format!("hold_{added}"));
                    netlist.add_instance(format!("holdinva_{added}"), lib, inv, &[d_net], mid)?;
                    netlist.add_instance(format!("holdinvb_{added}"), lib, inv, &[mid], padded)?;
                    netlist.redirect_sink(reg, 0, padded);
                    added += 2;
                }
            }
        }
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::NetlistBuilder;
    use asicgap_tech::Technology;

    fn shift_register(lib: &Library) -> Netlist {
        let mut b = NetlistBuilder::new("shift", lib);
        let d = b.input("d");
        let q1 = b.dff(d).expect("dff");
        let q2 = b.dff(q1).expect("dff");
        b.output("q", q2);
        b.finish().expect("valid")
    }

    #[test]
    fn direct_reg_to_reg_violates_under_heavy_skew() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = shift_register(&lib);
        // Zero skew: fast clk->Q still beats the hold requirement.
        let clean = check_hold(&n, &lib, &ClockSpec::unconstrained(), None);
        assert!(clean.clean(), "no skew, no violation: {clean:?}");
        // Brutal skew: the back-to-back stage races.
        let mut skewed = ClockSpec::unconstrained();
        skewed.skew = tech.fo4_to_ps(4.0);
        let dirty = check_hold(&n, &lib, &skewed, None);
        assert!(!dirty.clean());
        assert!(dirty.worst_slack < Ps::ZERO);
    }

    #[test]
    fn input_fed_registers_are_exempt() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = NetlistBuilder::new("in2reg", &lib);
        let d = b.input("d");
        let q = b.dff(d).expect("dff");
        b.output("q", q);
        let n = b.finish().expect("valid");
        let mut skewed = ClockSpec::unconstrained();
        skewed.skew = tech.fo4_to_ps(10.0);
        assert!(check_hold(&n, &lib, &skewed, None).clean());
    }

    #[test]
    fn fixing_pads_until_clean_and_keeps_function() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut n = shift_register(&lib);
        let mut skewed = ClockSpec::unconstrained();
        skewed.skew = tech.fo4_to_ps(4.0);
        let added = fix_hold_violations(&mut n, &lib, &skewed).expect("fixes");
        assert!(added > 0);
        assert!(check_hold(&n, &lib, &skewed, None).clean());
        // Still a 2-deep shift register functionally.
        let mut sim = asicgap_netlist::Simulator::new(&n, &lib);
        sim.set_inputs(&[true]);
        sim.eval_comb();
        sim.step_clock();
        assert!(!sim.output_values()[0]);
        sim.step_clock();
        assert!(sim.output_values()[0]);
    }

    #[test]
    fn custom_registers_tolerate_less_skew_gracefully() {
        // ASIC FFs carry a bigger hold requirement (guard banding); at the
        // same moderate skew the ASIC library is closer to the edge.
        let tech = Technology::cmos025_asic();
        let asic = LibrarySpec::rich().build(&tech);
        let custom = LibrarySpec::custom().build(&tech);
        let mut clock = ClockSpec::unconstrained();
        clock.skew = tech.fo4_to_ps(0.5);
        let slack_asic = check_hold(&shift_register(&asic), &asic, &clock, None).worst_slack;
        let slack_custom = check_hold(&shift_register(&custom), &custom, &clock, None).worst_slack;
        // Both clean at this skew, but the margin structure differs; the
        // check itself must be order-consistent with the hold numbers.
        let h_asic = {
            use asicgap_cells::CellFunction;
            let id = asic.smallest(CellFunction::Dff).expect("dff");
            asic.cell(id).kind.seq_timing().expect("timing").hold
        };
        let h_custom = {
            use asicgap_cells::CellFunction;
            let id = custom.smallest(CellFunction::Dff).expect("dff");
            custom.cell(id).kind.seq_timing().expect("timing").hold
        };
        assert!(h_asic > h_custom);
        let _ = (slack_asic, slack_custom);
    }
}
