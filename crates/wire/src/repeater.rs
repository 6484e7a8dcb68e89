//! Optimal repeater insertion on long wires.
//!
//! Long-wire delay grows quadratically with length; breaking the wire into
//! `k` segments with inverting repeaters restores linear growth. The
//! closed-form optimum (Bakoglu) for segment count and repeater size:
//!
//! ```text
//! k_opt = sqrt(0.38·R_w·C_w / (0.69·R_0·C_0))
//! h_opt = sqrt(R_0·C_w / (R_w·C_0))
//! ```
//!
//! with `R_0`, `C_0` the unit repeater's resistance and input capacitance.

use asicgap_tech::{Ps, Technology};

use crate::elmore::elmore_delay;
use crate::segment::Wire;

/// A repeater insertion solution for one wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeaterPlan {
    /// Number of repeater stages (1 = no intermediate repeater, just the
    /// driver).
    pub count: usize,
    /// Repeater drive strength (unit-inverter multiples).
    pub size: f64,
    /// End-to-end delay including every stage.
    pub total_delay: Ps,
}

impl RepeaterPlan {
    /// Computes the closed-form optimal plan for `wire`, then evaluates the
    /// actual delay by timing each segment's Elmore delay (so the
    /// reported delay is consistent with the rest of the workspace, not
    /// just the textbook formula). Repeater sizes are capped at 512× (real
    /// global repeater banks are enormous) and stage counts at 128.
    pub fn optimal(tech: &Technology, wire: &Wire) -> RepeaterPlan {
        let rw = wire.resistance(tech);
        let cw = wire.capacitance(tech).value();
        let r0 = tech.tau().value() / tech.unit_inverter_cin.value(); // ps/fF
        let c0 = tech.unit_inverter_cin.value();
        // Convert rw (ohm) into ps/fF to keep units consistent.
        let rw_ps = rw * crate::OHM_FF_TO_PS;
        let k = ((0.38 * rw_ps * cw) / (0.69 * r0 * c0)).sqrt();
        let h = ((r0 * cw) / (rw_ps * c0)).sqrt();
        let count = (k.round() as usize).clamp(1, 128);
        let size = h.clamp(1.0, 512.0);
        let total_delay = Self::evaluate(tech, wire, count, size);
        RepeaterPlan {
            count,
            size,
            total_delay,
        }
    }

    /// Evaluates the delay of splitting `wire` into `count` equal segments
    /// each driven by a repeater of `size` (the first stage is the driver).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `size <= 0`.
    pub fn evaluate(tech: &Technology, wire: &Wire, count: usize, size: f64) -> Ps {
        assert!(count > 0, "at least one driving stage required");
        assert!(size > 0.0, "repeater size must be positive");
        let seg = Wire {
            length: wire.length / count as f64,
            ..*wire
        };
        // Each stage drives its segment plus the next repeater's input
        // (the last stage drives a same-size receiver), so every stage
        // has the same delay. It is added `count` times, not multiplied,
        // so the sum keeps its bits.
        let stage = elmore_delay(tech, &seg, size, tech.unit_inverter_cin * size);
        let mut total = Ps::ZERO;
        for _ in 0..count {
            total += stage;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_tech::{Um, WireLayer};

    #[test]
    fn repeaters_beat_unrepeatered_on_long_wires() {
        let tech = Technology::cmos025_asic();
        let wire = Wire::new(Um::from_mm(10.0), WireLayer::Global);
        let plan = RepeaterPlan::optimal(&tech, &wire);
        // One stage: the driver alone, no intermediate repeater.
        let bare = RepeaterPlan::evaluate(&tech, &wire, 1, plan.size);
        assert!(
            plan.total_delay < bare * 0.7,
            "repeatered {} vs bare {}",
            plan.total_delay,
            bare
        );
        assert!(plan.count >= 2);
    }

    #[test]
    fn short_wires_need_no_repeaters() {
        let tech = Technology::cmos025_asic();
        let wire = Wire::new(Um::new(200.0), WireLayer::Local);
        let plan = RepeaterPlan::optimal(&tech, &wire);
        assert_eq!(plan.count, 1);
    }

    #[test]
    fn repeatered_delay_roughly_linear_in_length() {
        let tech = Technology::cmos025_asic();
        let d5 = RepeaterPlan::optimal(&tech, &Wire::new(Um::from_mm(5.0), WireLayer::Global))
            .total_delay;
        let d10 = RepeaterPlan::optimal(&tech, &Wire::new(Um::from_mm(10.0), WireLayer::Global))
            .total_delay;
        let ratio = d10 / d5;
        assert!(
            ratio > 1.6 && ratio < 2.4,
            "repeatered growth should be ~linear, got {ratio}"
        );
    }

    #[test]
    fn chip_crossing_costs_a_few_fo4() {
        // Sanity against the 0.25 um literature: a repeatered 10 mm global
        // wire costs on the order of 3-12 FO4.
        let tech = Technology::cmos025_asic();
        let plan = RepeaterPlan::optimal(&tech, &Wire::new(Um::from_mm(10.0), WireLayer::Global));
        let fo4 = plan.total_delay / tech.fo4();
        assert!((2.0..=15.0).contains(&fo4), "10 mm crossing = {fo4} FO4");
    }
}
