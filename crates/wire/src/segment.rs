//! A wire segment and its lumped R/C.

use asicgap_tech::{Ff, Technology, Um, WireLayer};

/// Net length above which routing escalates to the intermediate metal
/// class (see [`layer_for_length`]).
pub(crate) const INTERMEDIATE_THRESHOLD_UM: f64 = 200.0;
/// Net length above which routing escalates to the global metal class.
pub(crate) const GLOBAL_THRESHOLD_UM: f64 = 1000.0;

/// The metal-layer class a net of `length` is routed on: short nets stay
/// on the thin local layers, medium nets escalate to the intermediate
/// class, and chip-crossing nets ride the thick global layers.
///
/// This is the **one** layer-assignment rule in the workspace: both the
/// HPWL back-annotator (`asicgap-place`) and the global router's RC
/// extraction (`asicgap-route`) call it, so the two wire models can never
/// silently diverge on layer choice.
pub fn layer_for_length(length: Um) -> WireLayer {
    if length.value() > GLOBAL_THRESHOLD_UM {
        WireLayer::Global
    } else if length.value() > INTERMEDIATE_THRESHOLD_UM {
        WireLayer::Intermediate
    } else {
        WireLayer::Local
    }
}

/// A routed wire segment on one metal layer.
///
/// `width` is a multiplier on the minimum width. Widening divides
/// resistance by `width`; capacitance is split into an area component that
/// grows with width and a fringe/coupling component that does not
/// (55%/45% at minimum width, a standard deep-submicron split):
/// `c(w) = c_min · (0.55·w + 0.45)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    /// Routed length.
    pub length: Um,
    /// Metal layer class.
    pub layer: WireLayer,
    /// Width multiplier (≥ 1).
    pub width: f64,
}

impl Wire {
    /// A minimum-width wire of `length` on `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is negative.
    pub fn new(length: Um, layer: WireLayer) -> Wire {
        assert!(length.value() >= 0.0, "wire length cannot be negative");
        Wire {
            length,
            layer,
            width: 1.0,
        }
    }

    /// Same wire, widened by `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width < 1.0` (narrower than minimum is unmanufacturable).
    pub fn widened(self, width: f64) -> Wire {
        assert!(width >= 1.0, "width multiplier must be >= 1, got {width}");
        Wire { width, ..self }
    }

    /// Total wire resistance, Ω.
    pub fn resistance(&self, tech: &Technology) -> f64 {
        tech.wire.r_per_um(self.layer) * self.length.value() / self.width
    }

    /// Total wire capacitance.
    pub fn capacitance(&self, tech: &Technology) -> Ff {
        let c_min = tech.wire.c_per_um(self.layer) * self.length.value();
        Ff::new(c_min * (0.55 * self.width + 0.45))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_scales_with_length() {
        let tech = Technology::cmos025_asic();
        let short = Wire::new(Um::from_mm(1.0), WireLayer::Global);
        let long = Wire::new(Um::from_mm(4.0), WireLayer::Global);
        assert!((long.resistance(&tech) / short.resistance(&tech) - 4.0).abs() < 1e-9);
        assert!((long.capacitance(&tech) / short.capacitance(&tech) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn widening_trades_r_for_c() {
        let tech = Technology::cmos025_asic();
        let base = Wire::new(Um::from_mm(2.0), WireLayer::Intermediate);
        let wide = base.widened(4.0);
        assert!((base.resistance(&tech) / wide.resistance(&tech) - 4.0).abs() < 1e-9);
        let c_ratio = wide.capacitance(&tech) / base.capacitance(&tech);
        assert!(
            c_ratio > 1.0 && c_ratio < 4.0,
            "cap grows sub-linearly: {c_ratio}"
        );
    }

    #[test]
    fn global_layer_least_resistive() {
        let tech = Technology::cmos025_asic();
        let len = Um::from_mm(1.0);
        let local = Wire::new(len, WireLayer::Local).resistance(&tech);
        let global = Wire::new(len, WireLayer::Global).resistance(&tech);
        assert!(global < local / 2.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn sub_minimum_width_rejected() {
        let _ = Wire::new(Um::new(100.0), WireLayer::Local).widened(0.5);
    }

    #[test]
    fn layer_choice_escalates_with_length() {
        assert_eq!(layer_for_length(Um::new(50.0)), WireLayer::Local);
        assert_eq!(layer_for_length(Um::new(500.0)), WireLayer::Intermediate);
        assert_eq!(layer_for_length(Um::from_mm(5.0)), WireLayer::Global);
        // Thresholds themselves stay on the lower class (strict >).
        assert_eq!(
            layer_for_length(Um::new(INTERMEDIATE_THRESHOLD_UM)),
            WireLayer::Local
        );
        assert_eq!(
            layer_for_length(Um::new(GLOBAL_THRESHOLD_UM)),
            WireLayer::Intermediate
        );
    }
}
