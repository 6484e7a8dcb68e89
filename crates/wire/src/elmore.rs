//! Elmore delay of a driven, loaded wire, and driver-size optimisation.

use asicgap_tech::{Ff, Ps, Technology};

use crate::segment::Wire;
use crate::OHM_FF_TO_PS;

/// A wire together with the driver size and receiver load used to time it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DrivenWire {
    /// The wire.
    pub wire: Wire,
    /// Driver strength in unit-inverter multiples.
    pub driver_drive: f64,
    /// Receiver input capacitance.
    pub load: Ff,
    /// Resulting 50% delay.
    pub delay: Ps,
}

/// Elmore delay of `wire` driven by an inverter of strength `drive`
/// into `load`:
///
/// ```text
/// t = 0.69·R_drv·(C_w + C_L) + R_w·(0.38·C_w + 0.69·C_L)
/// ```
///
/// The 0.38 factor on the wire's own RC reflects its distributed nature.
///
/// # Panics
///
/// Panics if `drive` is not strictly positive.
pub(crate) fn elmore_delay(tech: &Technology, wire: &Wire, drive: f64, load: Ff) -> Ps {
    assert!(drive > 0.0, "driver strength must be positive");
    // Driver resistance from the logical-effort model: an inverter of
    // strength x has R = tau / (x · C_unit)  [ps/fF].
    let r_drv_ps_per_ff = tech.tau().value() / (tech.unit_inverter_cin.value() * drive);
    let rw = wire.resistance(tech);
    let cw = wire.capacitance(tech).value();
    let cl = load.value();
    let t = 0.69 * r_drv_ps_per_ff * (cw + cl) + rw * (0.38 * cw + 0.69 * cl) * OHM_FF_TO_PS;
    Ps::new(t)
}

/// Chooses the driver size minimising *path* delay: the wire's Elmore
/// delay plus the cost of charging the driver's own input capacitance from
/// a unit-strength source (so an infinite driver is not free).
///
/// Returns the best [`DrivenWire`]. Driver sizes are swept over a
/// geometric grid up to 64×.
pub(crate) fn drive_wire(tech: &Technology, wire: &Wire, load: Ff) -> DrivenWire {
    let mut best: Option<DrivenWire> = None;
    let mut drive = 1.0;
    while drive <= 64.0 {
        // Cost of presenting `drive` units of input cap to a unit driver.
        let input_penalty = Ps::new(
            tech.tau().value() * drive * tech.unit_inverter_cin.value()
                / tech.unit_inverter_cin.value(),
        );
        let delay = elmore_delay(tech, wire, drive, load) + input_penalty;
        let cand = DrivenWire {
            wire: *wire,
            driver_drive: drive,
            load,
            delay,
        };
        if best.is_none_or(|b| cand.delay < b.delay) {
            best = Some(cand);
        }
        drive *= 1.3;
    }
    best.expect("sweep is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_tech::{Um, WireLayer};

    #[test]
    fn zero_length_wire_reduces_to_gate_delay() {
        let tech = Technology::cmos025_asic();
        let wire = Wire::new(Um::new(0.0), WireLayer::Local);
        let load = tech.unit_inverter_cin * 4.0;
        let d = elmore_delay(&tech, &wire, 1.0, load);
        // 0.69 R C with R = tau/Cu and C = 4 Cu -> 0.69 * 4 tau; within the
        // same ballpark as the FO4 effort term (4 tau).
        let expect = 0.69 * 4.0 * tech.tau().value();
        assert!((d.value() - expect).abs() < 1e-9);
    }

    #[test]
    fn delay_grows_quadratically_unrepeatered() {
        let tech = Technology::cmos025_asic();
        let load = Ff::new(4.0);
        let d1 = elmore_delay(
            &tech,
            &Wire::new(Um::from_mm(2.0), WireLayer::Global),
            8.0,
            load,
        );
        let d2 = elmore_delay(
            &tech,
            &Wire::new(Um::from_mm(8.0), WireLayer::Global),
            8.0,
            load,
        );
        // The wire-RC term is quadratic in length; with the fixed driver
        // term the total grows more than linearly but less than 16x.
        let ratio = d2 / d1;
        assert!(ratio > 4.0 && ratio < 16.0, "ratio {ratio}");
    }

    #[test]
    fn bigger_driver_helps_long_wires() {
        let tech = Technology::cmos025_asic();
        let wire = Wire::new(Um::from_mm(5.0), WireLayer::Global);
        let load = Ff::new(4.0);
        let small = elmore_delay(&tech, &wire, 1.0, load);
        let large = elmore_delay(&tech, &wire, 16.0, load);
        assert!(large < small * 0.3);
    }

    #[test]
    fn drive_wire_picks_interior_optimum() {
        let tech = Technology::cmos025_asic();
        let wire = Wire::new(Um::from_mm(3.0), WireLayer::Global);
        let best = drive_wire(&tech, &wire, Ff::new(4.0));
        assert!(
            best.driver_drive > 1.0 && best.driver_drive < 64.0,
            "optimum {} should be interior",
            best.driver_drive
        );
    }

    #[test]
    fn widening_wins_in_wire_rc_dominated_regime() {
        // With a small driver the extra capacitance of a wide wire hurts;
        // with a very strong driver (wire-RC-dominated) widening wins.
        let tech = Technology::cmos025_asic();
        let base = Wire::new(Um::from_mm(6.0), WireLayer::Intermediate);
        let wide = base.widened(3.0);
        let d_base_small = elmore_delay(&tech, &base, 8.0, Ff::new(4.0));
        let d_wide_small = elmore_delay(&tech, &wide, 8.0, Ff::new(4.0));
        assert!(
            d_wide_small > d_base_small,
            "driver-dominated: widening loses"
        );
        let d_base_big = elmore_delay(&tech, &base, 200.0, Ff::new(4.0));
        let d_wide_big = elmore_delay(&tech, &wide, 200.0, Ff::new(4.0));
        assert!(d_wide_big < d_base_big, "wire-dominated: widening wins");
    }
}
