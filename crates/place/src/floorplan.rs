//! Floorplans: rectangular regions and placement strategies.

use crate::anneal::{anneal_placement, AnnealOptions};
use crate::placement::Placement;
use asicgap_cells::Library;
use asicgap_netlist::Netlist;

/// A rectangular region of the die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Lower-left x, µm.
    pub x: f64,
    /// Lower-left y, µm.
    pub y: f64,
    /// Width, µm.
    pub w: f64,
    /// Height, µm.
    pub h: f64,
}

impl Region {
    /// `true` if `(x, y)` lies inside (inclusive).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x && x <= self.x + self.w && y >= self.y && y <= self.y + self.h
    }
}

/// Side of the [`FloorplanStrategy::Spread`] die, µm.
const DIE_SIDE_UM: f64 = 10_000.0;

/// How the design is arranged on the die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FloorplanStrategy {
    /// All logic packed into one compact, annealed module — careful
    /// floorplanning (§5.2).
    Localized,
    /// The design split into `modules` chunks placed at far corners of a
    /// 10 mm × 10 mm die (the paper's 100 mm² chip), so paths hop across
    /// chip-global distances — the unfloorplanned comparison point of
    /// §5.1. The chunks follow topological order, so a long combinational
    /// path visits each module in turn.
    Spread {
        /// Number of far-apart modules.
        modules: usize,
    },
}

/// A computed floorplan: regions and the instance → region assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// The regions.
    pub regions: Vec<Region>,
    /// Region index per instance.
    pub assignment: Vec<usize>,
    /// The resulting placement.
    pub placement: Placement,
}

impl Floorplan {
    /// Builds a floorplan and placement for `netlist` under `strategy`.
    /// Placement inside each region is annealed with `options`.
    ///
    /// # Panics
    ///
    /// Panics if a `Spread` strategy asks for fewer than 2 modules or a
    /// die too small to hold the logic.
    pub fn build(
        netlist: &Netlist,
        lib: &Library,
        strategy: FloorplanStrategy,
        options: &AnnealOptions,
    ) -> Floorplan {
        match strategy {
            FloorplanStrategy::Localized => {
                // Start from the index-ordered grid (generators emit
                // instances in near-topological order, a strong seed
                // placement) and anneal from there.
                let mut placement = Placement::initial(netlist, lib, 0.7);
                anneal_placement(netlist, &mut placement, options, &[]);
                let region = Region {
                    x: 0.0,
                    y: 0.0,
                    w: placement.width_um,
                    h: placement.height_um,
                };
                Floorplan {
                    regions: vec![region],
                    assignment: vec![0; netlist.instance_count()],
                    placement,
                }
            }
            FloorplanStrategy::Spread { modules } => {
                assert!(modules >= 2, "spread floorplan needs >= 2 modules");
                let module_side =
                    Placement::required_side_um(netlist, lib, 0.7) / (modules as f64).sqrt() * 1.3;
                assert!(
                    DIE_SIDE_UM > 2.0 * module_side,
                    "die ({DIE_SIDE_UM} um) too small for {modules} modules of {module_side} um"
                );
                // Region centres around the die periphery so consecutive
                // modules are far apart.
                let regions: Vec<Region> = (0..modules)
                    .map(|k| {
                        let angle = std::f64::consts::TAU * k as f64 / modules as f64;
                        let r = (DIE_SIDE_UM - module_side) / 2.0 - 1.0;
                        let cx = DIE_SIDE_UM / 2.0 + r / std::f64::consts::SQRT_2 * angle.cos();
                        let cy = DIE_SIDE_UM / 2.0 + r / std::f64::consts::SQRT_2 * angle.sin();
                        Region {
                            x: cx - module_side / 2.0,
                            y: cy - module_side / 2.0,
                            w: module_side,
                            h: module_side,
                        }
                    })
                    .collect();

                // Assign instances to modules by contiguous logic-level
                // bands: a deep path walks module 0 -> 1 -> ... ->
                // modules-1, crossing the die modules-1 times, while edges
                // within a band stay module-local. This matches the paper's
                // scenario of a critical path "distributed across a 100 mm²
                // chip" rather than a pathological all-nets-global layout.
                let levels = asicgap_netlist::net_levels(netlist);
                let max_level = netlist
                    .iter_instances()
                    .map(|(_, inst)| levels[inst.out().index()])
                    .max()
                    .unwrap_or(1)
                    .max(1);
                let mut assignment = vec![0usize; netlist.instance_count()];
                for (id, inst) in netlist.iter_instances() {
                    let lvl = levels[inst.out().index()];
                    assignment[id.index()] =
                        ((lvl.saturating_sub(1)) * modules / max_level).min(modules - 1);
                }

                // Lay out each module on its own grid.
                let mut placement = Placement::initial(netlist, lib, 0.7);
                placement.width_um = DIE_SIDE_UM;
                placement.height_um = DIE_SIDE_UM;
                let mut counters = vec![0usize; modules];
                let per_module: Vec<usize> = (0..modules)
                    .map(|m| assignment.iter().filter(|&&a| a == m).count())
                    .collect();
                for (i, &m) in assignment.iter().enumerate() {
                    let r = regions[m];
                    let count = per_module[m].max(1);
                    let cols = (count as f64).sqrt().ceil() as usize;
                    let pitch_x = r.w / cols as f64;
                    let pitch_y = r.h / count.div_ceil(cols) as f64;
                    let k = counters[m];
                    counters[m] += 1;
                    placement.cells[i] = (
                        r.x + (k % cols) as f64 * pitch_x + pitch_x / 2.0,
                        r.y + (k / cols) as f64 * pitch_y + pitch_y / 2.0,
                    );
                }
                // Ports on the die edges at full die scale.
                for (k, p) in placement.inputs.iter_mut().enumerate() {
                    *p = (
                        0.0,
                        (k as f64 + 0.5) * DIE_SIDE_UM / netlist.inputs().len().max(1) as f64,
                    );
                }
                for (k, p) in placement.outputs.iter_mut().enumerate() {
                    *p = (
                        DIE_SIDE_UM,
                        (k as f64 + 0.5) * DIE_SIDE_UM / netlist.outputs().len().max(1) as f64,
                    );
                }
                Floorplan {
                    regions,
                    assignment,
                    placement,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    fn setup() -> (asicgap_cells::Library, Netlist) {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        (lib, n)
    }

    #[test]
    fn localized_keeps_cells_in_one_region() {
        let (lib, n) = setup();
        let fp = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Localized,
            &AnnealOptions::quick(1),
        );
        assert_eq!(fp.regions.len(), 1);
        let r = fp.regions[0];
        for &(x, y) in &fp.placement.cells {
            assert!(r.contains(x, y));
        }
    }

    #[test]
    fn spread_puts_cells_in_their_regions_far_apart() {
        let (lib, n) = setup();
        let fp = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Spread { modules: 4 },
            &AnnealOptions::quick(1),
        );
        assert_eq!(fp.regions.len(), 4);
        for (i, &(x, y)) in fp.placement.cells.iter().enumerate() {
            assert!(
                fp.regions[fp.assignment[i]].contains(x, y),
                "cell {i} outside its region"
            );
        }
        // Regions are chip-global distances apart.
        let center = |r: &Region| (r.x + r.w / 2.0, r.y + r.h / 2.0);
        let (x0, y0) = center(&fp.regions[0]);
        let (x2, y2) = center(&fp.regions[2]);
        let d = ((x0 - x2).powi(2) + (y0 - y2).powi(2)).sqrt();
        assert!(d > 4_000.0, "opposite modules {d} um apart");
    }

    #[test]
    fn spread_hpwl_dwarfs_localized() {
        let (lib, n) = setup();
        let local = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Localized,
            &AnnealOptions::quick(1),
        );
        let spread = Floorplan::build(
            &n,
            &lib,
            FloorplanStrategy::Spread { modules: 4 },
            &AnnealOptions::quick(1),
        );
        let h_local = local.placement.total_hpwl(&n).value();
        let h_spread = spread.placement.total_hpwl(&n).value();
        assert!(h_spread > 5.0 * h_local, "{h_spread} vs {h_local}");
    }
}
