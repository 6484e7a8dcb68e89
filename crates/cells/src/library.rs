//! The [`Library`]: an indexed collection of [`LibCell`]s for one
//! technology, plus the builder that assembles it.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use asicgap_tech::{Ff, Technology};

use crate::cell::LibCell;
use crate::family::LogicFamily;
use crate::function::CellFunction;

/// Index of a cell within its [`Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// Errors raised by library construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// Two cells were registered with the same name.
    DuplicateCellName {
        /// The colliding name.
        name: String,
    },
    /// No cell implements the requested function/family.
    MissingFunction {
        /// Description of what was requested.
        what: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::DuplicateCellName { name } => {
                write!(f, "duplicate cell name: {name}")
            }
            LibraryError::MissingFunction { what } => {
                write!(f, "library has no cell for {what}")
            }
        }
    }
}

impl Error for LibraryError {}

/// A standard-cell library bound to one [`Technology`].
///
/// # Example
///
/// ```
/// use asicgap_tech::Technology;
/// use asicgap_cells::{CellFunction, Library, LibrarySpec, LogicFamily};
///
/// let tech = Technology::cmos025_asic();
/// let lib = LibrarySpec::rich().build(&tech);
/// let drives = lib.drives_for(CellFunction::Nand(2), LogicFamily::StaticCmos);
/// assert!(drives.len() >= 5, "rich library offers many NAND2 drives");
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// The technology this library is characterised for.
    pub tech: Technology,
    cells: Vec<LibCell>,
    by_function: HashMap<(CellFunction, LogicFamily), Vec<CellId>>,
    by_name: HashMap<String, CellId>,
}

impl Library {
    /// Looks up a cell by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    pub fn cell(&self, id: CellId) -> &LibCell {
        &self.cells[id.index()]
    }

    /// Looks up a cell by name.
    pub fn cell_by_name(&self, name: &str) -> Option<(CellId, &LibCell)> {
        self.by_name
            .get(name)
            .map(|&id| (id, &self.cells[id.index()]))
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over all cells with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &LibCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// All drive variants of `function` in `family`, sorted by ascending
    /// drive strength. Empty if the function is not offered.
    pub fn drives_for(&self, function: CellFunction, family: LogicFamily) -> &[CellId] {
        self.by_function
            .get(&(function, family))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The smallest-drive static CMOS cell for `function`, if any.
    pub fn smallest(&self, function: CellFunction) -> Option<CellId> {
        self.drives_for(function, LogicFamily::StaticCmos)
            .first()
            .copied()
    }

    /// `true` if `function` is offered in `family` at any drive.
    pub fn has_function(&self, function: CellFunction, family: LogicFamily) -> bool {
        !self.drives_for(function, family).is_empty()
    }

    /// `true` if the library offers both polarities (e.g. NAND2 *and* AND2)
    /// for every polarity-paired function it carries — the §6 richness test.
    pub fn has_dual_polarity(&self) -> bool {
        let mut any_pair = false;
        for &(function, family) in self.by_function.keys() {
            if family != LogicFamily::StaticCmos {
                continue;
            }
            if let Some(op) = function.opposite_polarity() {
                any_pair = true;
                if !self.has_function(op, family) {
                    return false;
                }
            }
        }
        any_pair
    }

    /// Picks the drive of `function`/`family` whose stage gain
    /// (`load / input_cap`) is closest to `target_gain`.
    ///
    /// Minimising raw delay at a fixed load always selects the largest
    /// drive; real drive selection balances the delay of this stage against
    /// the load presented to the previous one. Logical-effort theory says
    /// the optimum per-stage gain is ≈ 4 (3.6 with parasitics); synthesis
    /// drive selection in `asicgap-synth` targets that.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::MissingFunction`] if no cell implements the
    /// requested function in the requested family.
    pub fn drive_for_gain(
        &self,
        function: CellFunction,
        family: LogicFamily,
        load: Ff,
        target_gain: f64,
    ) -> Result<CellId, LibraryError> {
        let ids = self.drives_for(function, family);
        if ids.is_empty() {
            return Err(LibraryError::MissingFunction {
                what: format!("{function} in {family}"),
            });
        }
        let gain_error = |id: CellId| (load / self.cell(id).input_cap / target_gain).ln().abs();
        Ok(first_min(ids, gain_error, "gains are finite").expect("non-empty drive list"))
    }

    /// Picks the drive variant of `cell_id`'s function whose drive is
    /// closest to `target_drive` (used when discretizing continuous sizes).
    pub fn closest_drive(&self, cell_id: CellId, target_drive: f64) -> CellId {
        let c = self.cell(cell_id);
        let ids = self.drives_for(c.function, c.family);
        let target_ln = target_drive.ln();
        let distance = |id: CellId| (self.cell(id).drive.ln() - target_ln).abs();
        first_min(ids, distance, "drives are finite").unwrap_or(cell_id)
    }
}

/// The id whose `key` is least, the first of equals winning (the rule
/// `Iterator::min_by` applies), with each key computed once.
///
/// # Panics
///
/// Panics with `finite` if a key compared is NaN.
fn first_min(ids: &[CellId], key: impl Fn(CellId) -> f64, finite: &str) -> Option<CellId> {
    let (&first, rest) = ids.split_first()?;
    let mut best = (first, key(first));
    for &id in rest {
        let k = key(id);
        if best.1.partial_cmp(&k).expect(finite) == std::cmp::Ordering::Greater {
            best = (id, k);
        }
    }
    Some(best.0)
}

/// Incremental builder for a [`Library`].
#[derive(Debug)]
pub struct LibraryBuilder {
    name: String,
    tech: Technology,
    cells: Vec<LibCell>,
    by_name: HashMap<String, CellId>,
}

impl LibraryBuilder {
    /// Starts a library for `tech`.
    pub fn new(name: impl Into<String>, tech: &Technology) -> LibraryBuilder {
        LibraryBuilder {
            name: name.into(),
            tech: tech.clone(),
            cells: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Adds a cell, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::DuplicateCellName`] if a cell with the same
    /// name exists.
    pub fn add(&mut self, cell: LibCell) -> Result<CellId, LibraryError> {
        if self.by_name.contains_key(&cell.name) {
            return Err(LibraryError::DuplicateCellName {
                name: cell.name.clone(),
            });
        }
        let id = CellId(self.cells.len() as u32);
        self.by_name.insert(cell.name.clone(), id);
        self.cells.push(cell);
        Ok(id)
    }

    /// Finalises the library, building the function index.
    pub fn build(self) -> Library {
        let mut by_function: HashMap<(CellFunction, LogicFamily), Vec<CellId>> = HashMap::new();
        for (i, c) in self.cells.iter().enumerate() {
            by_function
                .entry((c.function, c.family))
                .or_default()
                .push(CellId(i as u32));
        }
        for ids in by_function.values_mut() {
            let cells = &self.cells;
            ids.sort_by(|a, b| {
                cells[a.index()]
                    .drive
                    .partial_cmp(&cells[b.index()].drive)
                    .expect("drives are finite")
            });
        }
        Library {
            name: self.name,
            tech: self.tech,
            cells: self.cells,
            by_function,
            by_name: self.by_name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::LibrarySpec;

    fn rich() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    #[test]
    fn drives_sorted_ascending() {
        let lib = rich();
        let ids = lib.drives_for(CellFunction::Inv, LogicFamily::StaticCmos);
        assert!(ids.len() >= 4);
        for w in ids.windows(2) {
            assert!(lib.cell(w[0]).drive < lib.cell(w[1]).drive);
        }
    }

    #[test]
    fn drive_for_gain_scales_with_load() {
        let lib = rich();
        let small = lib
            .drive_for_gain(
                CellFunction::Nand(2),
                LogicFamily::StaticCmos,
                Ff::new(4.0),
                4.0,
            )
            .expect("nand2 exists");
        let big = lib
            .drive_for_gain(
                CellFunction::Nand(2),
                LogicFamily::StaticCmos,
                Ff::new(200.0),
                4.0,
            )
            .expect("nand2 exists");
        assert!(lib.cell(big).drive > lib.cell(small).drive);
        // The chosen gain is within one menu step of the target.
        let gain = Ff::new(200.0) / lib.cell(big).input_cap;
        assert!(gain > 2.0 && gain < 8.0, "achieved gain {gain}");
    }

    #[test]
    fn missing_function_is_an_error() {
        let lib = LibrarySpec::poor().build(&Technology::cmos025_asic());
        let err = lib
            .drive_for_gain(
                CellFunction::Aoi22,
                LogicFamily::StaticCmos,
                Ff::new(1.0),
                4.0,
            )
            .unwrap_err();
        assert!(matches!(err, LibraryError::MissingFunction { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let tech = Technology::cmos025_asic();
        let mut b = LibraryBuilder::new("dup", &tech);
        let c = LibCell::combinational(CellFunction::Inv, LogicFamily::StaticCmos, 1.0, &tech);
        b.add(c.clone()).expect("first insert succeeds");
        assert!(matches!(
            b.add(c),
            Err(LibraryError::DuplicateCellName { .. })
        ));
    }

    #[test]
    fn closest_drive_snaps_log_scale() {
        let lib = rich();
        let inv1 = lib.smallest(CellFunction::Inv).expect("inv exists");
        let snapped = lib.closest_drive(inv1, 3.1);
        let d = lib.cell(snapped).drive;
        assert!((2.0..=4.0).contains(&d), "snapped drive {d}");
    }

    #[test]
    fn lookup_by_name_round_trips() {
        let lib = rich();
        for (id, cell) in lib.iter() {
            let (found, _) = lib.cell_by_name(&cell.name).expect("name indexed");
            assert_eq!(found, id);
        }
    }
}
