//! A single library cell and its delay/area/power model.

use asicgap_tech::{Ff, Ps, Technology};

use crate::family::LogicFamily;
use crate::function::CellFunction;
use crate::seq::SeqTiming;

/// Whether a cell is combinational or sequential, with sequential timing
/// attached where applicable.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// A combinational gate.
    Combinational,
    /// An edge-triggered flip-flop with the given timing.
    FlipFlop(SeqTiming),
    /// A transparent latch with the given timing.
    TransparentLatch(SeqTiming),
}

impl CellKind {
    /// The sequential timing, if this is a flip-flop or latch.
    pub fn seq_timing(&self) -> Option<&SeqTiming> {
        match self {
            CellKind::Combinational => None,
            CellKind::FlipFlop(t) | CellKind::TransparentLatch(t) => Some(t),
        }
    }
}

/// One cell in a standard-cell library.
///
/// # Example
///
/// ```
/// use asicgap_tech::Technology;
/// use asicgap_cells::{CellFunction, LibCell, LogicFamily};
///
/// let tech = Technology::cmos025_asic();
/// let nand = LibCell::combinational(CellFunction::Nand(2), LogicFamily::StaticCmos, 2.0, &tech);
/// // A 2x NAND2 presents g * x * Cu of input capacitance.
/// let expected = tech.unit_inverter_cin * (4.0 / 3.0) * 2.0;
/// assert!((nand.input_cap - expected).abs().value() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LibCell {
    /// Unique cell name, e.g. `nand2_x2`.
    pub name: String,
    /// Boolean function.
    pub function: CellFunction,
    /// Circuit family.
    pub family: LogicFamily,
    /// Drive strength in multiples of the unit inverter.
    pub drive: f64,
    /// Input capacitance per input pin.
    pub input_cap: Ff,
    /// Parasitic delay in τ units.
    pub parasitic: f64,
    /// Cell area, µm².
    pub area_um2: f64,
    /// Kind (combinational / flip-flop / latch).
    pub kind: CellKind,
}

impl LibCell {
    /// Builds a combinational cell of `function` at `drive` strength.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is not strictly positive or if `function` is
    /// sequential (use [`LibCell::sequential`]).
    pub fn combinational(
        function: CellFunction,
        family: LogicFamily,
        drive: f64,
        tech: &Technology,
    ) -> LibCell {
        assert!(drive > 0.0, "drive must be positive, got {drive}");
        assert!(
            !function.is_sequential(),
            "{function} is sequential; use LibCell::sequential"
        );
        let g = function.logical_effort() * family.effort_factor();
        let p = function.parasitic() * family.parasitic_factor();
        let name = match family {
            LogicFamily::StaticCmos => format!("{}_x{}", function.base_name(), drive),
            LogicFamily::Domino => format!("dom_{}_x{}", function.base_name(), drive),
        };
        LibCell {
            name,
            function,
            family,
            drive,
            input_cap: tech.unit_inverter_cin * (g * drive),
            parasitic: p,
            area_um2: Self::area_model(function, drive, tech),
            kind: CellKind::Combinational,
        }
    }

    /// Builds a flip-flop or latch cell with explicit sequential timing.
    ///
    /// # Panics
    ///
    /// Panics if `function` is not [`CellFunction::Dff`] or
    /// [`CellFunction::Latch`], or if `drive` is not strictly positive.
    pub fn sequential(
        function: CellFunction,
        timing: SeqTiming,
        drive: f64,
        tech: &Technology,
    ) -> LibCell {
        assert!(drive > 0.0, "drive must be positive, got {drive}");
        let kind = match function {
            CellFunction::Dff => CellKind::FlipFlop(timing),
            CellFunction::Latch => CellKind::TransparentLatch(timing),
            other => panic!("{other} is not a sequential function"),
        };
        LibCell {
            name: format!("{}_x{}", function.base_name(), drive),
            function,
            family: LogicFamily::StaticCmos,
            drive,
            input_cap: tech.unit_inverter_cin * drive,
            parasitic: function.parasitic(),
            area_um2: Self::area_model(function, drive, tech),
            kind,
        }
    }

    fn area_model(function: CellFunction, drive: f64, tech: &Technology) -> f64 {
        // Width grows with transistor count and sub-linearly with drive
        // (folding); height is the standard row height.
        let pitch = 0.66 * tech.drawn_um / 0.25;
        let width = function.transistor_count() as f64 * pitch * (0.5 + 0.5 * drive.sqrt());
        width * tech.row_height_um
    }

    /// Propagation delay driving `load` in `tech`:
    /// `τ·p + τ·load/(x·C_unit)`.
    pub fn delay(&self, tech: &Technology, load: Ff) -> Ps {
        let tau = tech.tau();
        tau * self.parasitic + tau * (load / (tech.unit_inverter_cin * self.drive))
    }

    /// First-order switching energy proxy: total input capacitance times
    /// the family power factor (relative units; summed into
    /// `ScenarioOutcome::power_proxy` for the §9 power caveat).
    pub fn power_proxy(&self) -> f64 {
        self.input_cap.value() * self.function.num_inputs() as f64 * self.family.power_factor()
    }

    /// `true` for flip-flops and latches.
    pub fn is_sequential(&self) -> bool {
        !matches!(self.kind, CellKind::Combinational)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::cmos025_asic()
    }

    #[test]
    fn fo4_inverter_delay_is_one_fo4() {
        let tech = tech();
        let inv = LibCell::combinational(CellFunction::Inv, LogicFamily::StaticCmos, 1.0, &tech);
        let load = inv.input_cap * 4.0; // fanout of four identical inverters
        let d = inv.delay(&tech, load);
        assert!(
            (d / tech.fo4() - 1.0).abs() < 1e-9,
            "FO4 inverter delay {} != FO4 {}",
            d,
            tech.fo4()
        );
    }

    #[test]
    fn bigger_drive_is_faster_at_fixed_load() {
        let tech = tech();
        let x1 = LibCell::combinational(CellFunction::Nand(2), LogicFamily::StaticCmos, 1.0, &tech);
        let x4 = LibCell::combinational(CellFunction::Nand(2), LogicFamily::StaticCmos, 4.0, &tech);
        let load = Ff::new(50.0);
        assert!(x4.delay(&tech, load) < x1.delay(&tech, load));
        // But the x4 presents 4x the input load upstream.
        assert!((x4.input_cap / x1.input_cap - 4.0).abs() < 1e-12);
    }

    #[test]
    fn domino_gate_beats_static_at_equal_input_cap_and_load() {
        // The fair comparison is at equal input capacitance (equal burden
        // on the driving stage): domino reaches a higher drive for the same
        // input load because it has no PMOS network.
        let tech = tech();
        let s = LibCell::combinational(CellFunction::And(2), LogicFamily::StaticCmos, 2.0, &tech);
        let x_dom = 2.0 / LogicFamily::Domino.effort_factor();
        let d = LibCell::combinational(CellFunction::And(2), LogicFamily::Domino, x_dom, &tech);
        assert!((s.input_cap / d.input_cap - 1.0).abs() < 1e-9);
        let load = Ff::new(20.0);
        let ratio = s.delay(&tech, load) / d.delay(&tech, load);
        // Paper §7: domino combinational logic 50%-100% faster.
        assert!(
            ratio > 1.4 && ratio < 2.2,
            "domino speedup {ratio} outside the paper's 1.5-2.0x band"
        );
    }

    #[test]
    fn area_grows_with_drive_and_fanin() {
        let tech = tech();
        let small =
            LibCell::combinational(CellFunction::Nand(2), LogicFamily::StaticCmos, 1.0, &tech);
        let big =
            LibCell::combinational(CellFunction::Nand(2), LogicFamily::StaticCmos, 8.0, &tech);
        let wide =
            LibCell::combinational(CellFunction::Nand(4), LogicFamily::StaticCmos, 1.0, &tech);
        assert!(big.area_um2 > small.area_um2);
        assert!(wide.area_um2 > small.area_um2);
    }

    #[test]
    fn sequential_constructor_sets_kind() {
        let tech = tech();
        let ff = LibCell::sequential(CellFunction::Dff, SeqTiming::asic_dff(&tech), 1.0, &tech);
        assert!(ff.is_sequential());
        assert!(ff.kind.seq_timing().is_some());
    }

    #[test]
    #[should_panic(expected = "is not a sequential function")]
    fn sequential_with_comb_function_panics() {
        let tech = tech();
        let _ = LibCell::sequential(CellFunction::Inv, SeqTiming::asic_dff(&tech), 1.0, &tech);
    }

    #[test]
    #[should_panic(expected = "is sequential")]
    fn combinational_with_dff_panics() {
        let tech = tech();
        let _ = LibCell::combinational(CellFunction::Dff, LogicFamily::StaticCmos, 1.0, &tech);
    }
}
