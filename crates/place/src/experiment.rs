//! Experiment E6: the §5 floorplanning study.
//!
//! "We compared localizing critical paths to within a module (emulating
//! careful floorplanning) to a critical path distributed across a 100 mm²
//! chip. Based on our simulations, using careful floorplanning and
//! placement to minimize wire lengths may increase circuit speed by up to
//! 25%."

use asicgap_cells::Library;
use asicgap_netlist::Netlist;
use asicgap_sta::{analyze, ClockSpec};
use asicgap_tech::Ps;

use crate::anneal::AnnealOptions;
use crate::annotate::annotate;
use crate::floorplan::{Floorplan, FloorplanStrategy};
use crate::resize::post_layout_resize;

/// Results of the localized-vs-spread comparison on one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanStudy {
    /// Min period with no wires at all (logic-only lower bound).
    pub ideal_period: Ps,
    /// Min period with the design packed and annealed in one module.
    pub localized_period: Ps,
    /// Min period with the design spread across a 10 mm × 10 mm die.
    pub spread_period: Ps,
    /// Min period spread *without* repeaters (ablation).
    pub spread_no_repeaters_period: Ps,
}

impl FloorplanStudy {
    /// Runs the study: localized vs. spread-over-100 mm² with `modules`
    /// far-apart modules. Deterministic in `seed`.
    pub fn run(netlist: &Netlist, lib: &Library, modules: usize, seed: u64) -> FloorplanStudy {
        let clock = ClockSpec::unconstrained();
        let options = AnnealOptions::quick(seed);
        let local = Floorplan::build(netlist, lib, FloorplanStrategy::Localized, &options);
        let spread = Floorplan::build(
            netlist,
            lib,
            FloorplanStrategy::Spread { modules },
            &options,
        );
        let ideal_period = analyze(netlist, lib, &clock, None).min_period;
        // Each leg gets the post-layout resize a real flow would run.
        let (local_netlist, local_par) = post_layout_resize(netlist, lib, &local.placement);
        let localized_period = analyze(&local_netlist, lib, &clock, Some(&local_par)).min_period;
        let (spread_netlist, spread_par) = post_layout_resize(netlist, lib, &spread.placement);
        let spread_period = analyze(&spread_netlist, lib, &clock, Some(&spread_par)).min_period;
        let spread_no_repeaters_period = analyze(
            &spread_netlist,
            lib,
            &clock,
            Some(&annotate(&spread_netlist, lib, &spread.placement, false)),
        )
        .min_period;
        FloorplanStudy {
            ideal_period,
            localized_period,
            spread_period,
            spread_no_repeaters_period,
        }
    }

    /// Speedup of careful floorplanning over the spread design — the
    /// paper's "up to 25%" is a ratio of about 1.25 here.
    pub fn speedup(&self) -> f64 {
        self.spread_period / self.localized_period
    }

    /// Extra speedup repeaters provide on the spread design.
    pub fn repeater_gain(&self) -> f64 {
        self.spread_no_repeaters_period / self.spread_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    #[test]
    fn floorplanning_gains_in_paper_range() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let alu = generators::alu(&lib, 16).expect("alu16");
        let study = FloorplanStudy::run(&alu, &lib, 4, 42);
        let s = study.speedup();
        // Paper: "up to 25%". Allow a broad band around it; the point is
        // the order of magnitude, not the third digit.
        assert!(
            s > 1.05 && s < 1.8,
            "floorplanning speedup {s} far from the paper's ~1.25"
        );
        assert!(study.repeater_gain() >= 1.0);
        assert!(study.localized_period >= study.ideal_period);
    }
}
