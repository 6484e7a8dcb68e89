//! Logic families: static CMOS vs. domino (dynamic) logic.

use std::fmt;

/// The circuit family a cell is implemented in.
///
/// Section 7 of the paper: "Dynamic logic functions used in the IBM 1.0 GHz
/// design are 50% to 100% faster than static CMOS combinational logic with
/// the same functionality". A domino gate evaluates through an NMOS-only
/// pull-down network (precharged by the clock), roughly halving the input
/// capacitance per unit drive and shrinking the parasitic, at the cost of:
/// only monotone functions, clocked precharge, noise sensitivity, and
/// higher power — which is why no commercial ASIC domino library existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LogicFamily {
    /// Complementary static CMOS — the ASIC default.
    #[default]
    StaticCmos,
    /// Footed domino logic: precharge/evaluate, monotone functions only.
    Domino,
}

impl LogicFamily {
    /// Multiplier on the static logical effort `g` for this family.
    ///
    /// Domino removes the PMOS network from the input load: the same drive
    /// presents roughly 55% of the static input capacitance. Together with
    /// [`LogicFamily::parasitic_factor`] this calibrates domino gates to
    /// the paper's 1.5–2.0× speed advantage at equal load.
    pub fn effort_factor(self) -> f64 {
        match self {
            LogicFamily::StaticCmos => 1.0,
            LogicFamily::Domino => 0.55,
        }
    }

    /// Multiplier on the static parasitic delay `p` for this family.
    pub fn parasitic_factor(self) -> f64 {
        match self {
            LogicFamily::StaticCmos => 1.0,
            LogicFamily::Domino => 0.65,
        }
    }

    /// Relative switching power at equal function and drive (§7: dynamic
    /// logic "has higher power consumption" — every precharged node toggles
    /// each cycle regardless of data activity).
    pub fn power_factor(self) -> f64 {
        match self {
            LogicFamily::StaticCmos => 1.0,
            LogicFamily::Domino => 2.2,
        }
    }
}

impl fmt::Display for LogicFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicFamily::StaticCmos => write!(f, "static CMOS"),
            LogicFamily::Domino => write!(f, "domino"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domino_is_faster_but_hungrier() {
        let d = LogicFamily::Domino;
        let s = LogicFamily::StaticCmos;
        assert!(d.effort_factor() < s.effort_factor());
        assert!(d.parasitic_factor() < s.parasitic_factor());
        assert!(d.power_factor() > s.power_factor());
    }

    #[test]
    fn static_factors_are_unity() {
        let s = LogicFamily::StaticCmos;
        assert_eq!(s.effort_factor(), 1.0);
        assert_eq!(s.parasitic_factor(), 1.0);
        assert_eq!(s.power_factor(), 1.0);
    }
}
