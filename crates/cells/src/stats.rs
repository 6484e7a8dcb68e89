//! Summary statistics over a library (used in reports and richness checks).

use std::collections::HashSet;
use std::fmt;

use crate::family::LogicFamily;
use crate::library::Library;

/// Aggregate statistics of a [`Library`].
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryStats {
    /// Total number of cells.
    pub cell_count: usize,
    /// Number of distinct combinational functions (static family).
    pub function_count: usize,
    /// Number of distinct drive strengths offered.
    pub drive_count: usize,
    /// Smallest drive in the menu.
    pub min_drive: f64,
    /// Largest drive in the menu.
    pub max_drive: f64,
    /// Whether a domino family exists.
    pub has_domino: bool,
    /// Whether polarity pairs are complete.
    pub dual_polarity: bool,
}

impl LibraryStats {
    /// Computes statistics for `lib`.
    pub fn of(lib: &Library) -> LibraryStats {
        let mut functions = HashSet::new();
        let mut drives: Vec<f64> = Vec::new();
        let mut has_domino = false;
        let mut min_drive = f64::INFINITY;
        let mut max_drive: f64 = 0.0;
        for (_, c) in lib.iter() {
            if c.family == LogicFamily::Domino {
                has_domino = true;
            }
            if c.family == LogicFamily::StaticCmos && !c.is_sequential() {
                functions.insert(c.function);
            }
            if !drives.iter().any(|&d| (d - c.drive).abs() < 1e-12) {
                drives.push(c.drive);
            }
            min_drive = min_drive.min(c.drive);
            max_drive = max_drive.max(c.drive);
        }
        LibraryStats {
            cell_count: lib.len(),
            function_count: functions.len(),
            drive_count: drives.len(),
            min_drive,
            max_drive,
            has_domino,
            dual_polarity: lib.has_dual_polarity(),
        }
    }
}

impl fmt::Display for LibraryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells, {} functions, {} drives ({}x..{}x), dual-polarity: {}, domino: {}",
            self.cell_count,
            self.function_count,
            self.drive_count,
            self.min_drive,
            self.max_drive,
            self.dual_polarity,
            self.has_domino
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::LibrarySpec;
    use asicgap_tech::Technology;

    #[test]
    fn richer_spec_has_the_larger_menu() {
        let tech = Technology::cmos025_asic();
        let rich = LibraryStats::of(&LibrarySpec::rich().build(&tech));
        let poor = LibraryStats::of(&LibrarySpec::poor().build(&tech));
        let custom = LibraryStats::of(&LibrarySpec::custom().build(&tech));
        assert!(rich.drive_count > poor.drive_count);
        assert!(rich.function_count > poor.function_count);
        assert!(custom.has_domino && !rich.has_domino);
        assert!(custom.max_drive / custom.min_drive >= rich.max_drive / rich.min_drive);
    }

    #[test]
    fn stats_fields_consistent() {
        let tech = Technology::cmos025_asic();
        let s = LibraryStats::of(&LibrarySpec::rich().build(&tech));
        assert_eq!(s.drive_count, 9);
        assert!((s.min_drive - 0.5).abs() < 1e-12);
        assert!((s.max_drive - 16.0).abs() < 1e-12);
        assert!(!s.has_domino);
        assert!(s.dual_polarity);
    }
}
