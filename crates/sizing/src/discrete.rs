//! Discretisation: snapping continuous sizes onto a library drive menu.
//!
//! §6.1: "the discrete transistor sizes of a library only approximate the
//! continuous transistor sizing of a custom design. With a rich library of
//! sizes the performance impact of discrete sizes may be 2% to 7% or less
//! [13][11]. … A cell library with only two drive strengths may be 25%
//! slower than an ASIC library with a rich selection."

use asicgap_cells::Library;
use asicgap_netlist::Netlist;
use asicgap_tech::Ps;

use crate::incremental::IncrementalSizedTiming;

/// Result of snapping a continuous size vector to a drive menu.
#[derive(Debug, Clone)]
pub struct SnapResult {
    /// Snapped sizes (each is an exact library drive).
    pub sizes: Vec<f64>,
    /// Delay with the continuous sizes.
    pub continuous_delay: Ps,
    /// Delay after snapping.
    pub snapped_delay: Ps,
}

impl SnapResult {
    /// The discretisation penalty as a fraction (0.04 = 4% slower).
    pub fn penalty(&self) -> f64 {
        self.snapped_delay / self.continuous_delay - 1.0
    }
}

/// Snaps every size to the nearest (log-scale) drive the library offers
/// for that instance's function, then re-times.
///
/// The re-time is incremental: all snaps are applied to one
/// `IncrementalSizedTiming` and repropagated in a single lazy flush over
/// the affected cones, instead of a second whole-netlist evaluation.
///
/// # Panics
///
/// Panics if `sizes.len() != netlist.instance_count()`.
pub fn snap_to_library(netlist: &Netlist, lib: &Library, sizes: &[f64]) -> SnapResult {
    assert_eq!(sizes.len(), netlist.instance_count(), "size vector length");
    let mut timing = IncrementalSizedTiming::new(netlist, lib, sizes.to_vec());
    let continuous_delay = timing.critical_delay();
    for (id, inst) in netlist.iter_instances() {
        let cell = lib.closest_drive(inst.cell(), sizes[id.index()]);
        timing.set_size(id, lib.cell(cell).drive);
    }
    let snapped_delay = timing.critical_delay();
    SnapResult {
        sizes: timing.into_sizes(),
        continuous_delay,
        snapped_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tilos::{tilos_size, TilosOptions};
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    #[test]
    fn rich_menu_penalty_small_two_drive_large() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let two = LibrarySpec::two_drive().build(&tech);

        // Size continuously on the rich netlist, then snap against each
        // menu. (The two-drive library shares cell functions with rich.)
        let n = generators::array_multiplier(&rich, 8).expect("mult8");
        let sized = tilos_size(&n, &rich, &TilosOptions::default());

        let snap_rich = snap_to_library(&n, &rich, &sized.sizes);
        assert!(
            snap_rich.penalty() < 0.10,
            "rich-menu penalty {:.3} should be small (paper: 2-7%)",
            snap_rich.penalty()
        );

        // Snap against the two-drive menu: rebuild the netlist on `two` so
        // closest_drive sees only {1, 4}.
        let n2 = generators::array_multiplier(&two, 8).expect("mult8 two");
        let sized2 = tilos_size(&n2, &two, &TilosOptions::default());
        let snap_two = snap_to_library(&n2, &two, &sized2.sizes);
        assert!(
            snap_two.penalty() > snap_rich.penalty(),
            "two-drive penalty {:.3} must exceed rich {:.3}",
            snap_two.penalty(),
            snap_rich.penalty()
        );
    }

    #[test]
    fn snapped_sizes_are_library_drives() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&rich, 16).expect("parity");
        let sizes = vec![2.7; n.instance_count()];
        let snap = snap_to_library(&n, &rich, &sizes);
        for &s in &snap.sizes {
            assert!(
                [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
                    .iter()
                    .any(|&d| (d - s).abs() < 1e-12),
                "{s} is not a rich-library drive"
            );
        }
    }
}
