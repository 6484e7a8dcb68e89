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

/// Errors raised by library construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// Two cells were registered with the same name.
    DuplicateCellName {
        /// The colliding name.
        name: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::DuplicateCellName { name } => {
                write!(f, "duplicate cell name: {name}")
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
    /// Every drive menu, back to back: each function/family's cells,
    /// ascending by drive.
    menus: Vec<CellId>,
    /// The menu each cell belongs to, by [`CellId::index`].
    menu_of: Vec<Menu>,
    by_function: HashMap<(CellFunction, LogicFamily), Menu>,
    by_name: HashMap<String, CellId>,
}

/// One drive menu: its span of [`Library::menus`], and whether the
/// two-candidate searches may bracket it (see [`Library::drive_for_gain`]).
#[derive(Debug, Clone, Copy)]
struct Menu {
    start: u32,
    end: u32,
    /// Input caps are [`moderate`] and rise from cell to cell by more
    /// than [`SEPARATION`].
    caps_separated: bool,
    /// Drives are [`moderate`] and rise from cell to cell by more than
    /// [`SEPARATION`].
    drives_separated: bool,
}

/// The least relative step between neighbouring menu entries for which
/// the bracketed searches are exact. Across such a step the searched
/// logarithms differ by about `1e-6`, far beyond the few-ulp rounding of
/// the division, subtraction and `ln` that compute them, so the keys are
/// strictly ordered on each side of the bracket. The synthetic presets'
/// steps are 17 % (`custom`) and larger; a menu with equal or nearly
/// equal neighbours falls back to the full scan.
const SEPARATION: f64 = 1e-6;

/// How far from 1 the product of the two bracketing ratios must be for
/// [`Library::drive_for_gain`] to decide by it. The two log errors then
/// differ by about the product's distance from 1, far beyond the
/// few-ulp rounding of `ln` on a moderate ratio (at most `1e-13`), so
/// the product ranks them as the logs would; nearer a tie the logs
/// decide.
const TIE_MARGIN: f64 = 1e-9;

/// `true` for a value in `[1e-100, 1e100]`. Quotients and products of
/// three such values are normal numbers, which the bracketed searches'
/// exactness argument needs; NaN and every non-positive value fail.
fn moderate(x: f64) -> bool {
    (1e-100..=1e100).contains(&x)
}

/// `true` when every value of `values` is [`moderate`] and exceeds its
/// predecessor by more than [`SEPARATION`], relatively.
fn separated(values: impl Iterator<Item = f64>) -> bool {
    let mut prev: Option<f64> = None;
    for v in values {
        if !moderate(v) || prev.is_some_and(|p| v <= p * (1.0 + SEPARATION)) {
            return false;
        }
        prev = Some(v);
    }
    true
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
            .map_or(&[], |&menu| self.slice(menu))
    }

    /// `cell`'s drive menu: every drive variant of its function and
    /// family, ascending by drive (as [`Library::drives_for`], without the
    /// hash lookup).
    ///
    /// # Panics
    ///
    /// Panics if `cell` did not come from this library.
    pub fn menu(&self, cell: CellId) -> &[CellId] {
        self.slice(self.menu_of[cell.index()])
    }

    fn slice(&self, menu: Menu) -> &[CellId] {
        &self.menus[menu.start as usize..menu.end as usize]
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

    /// Picks the drive in `cell`'s menu whose stage gain
    /// (`load / input_cap`) is closest to `target_gain`: the least
    /// `|ln(load / input_cap / target_gain)|`, the first of equals winning.
    ///
    /// Minimising raw delay at a fixed load always selects the largest
    /// drive; real drive selection balances the delay of this stage against
    /// the load presented to the previous one. Logical-effort theory says
    /// the optimum per-stage gain is ≈ 4 (3.6 with parasitics); synthesis
    /// drive selection in `asicgap-synth` targets that.
    ///
    /// Input caps rise along the menu, so the ratio falls and its log
    /// error falls to the last ratio ≥ 1 and rises after it. A binary
    /// search finds that turn, comparing `input_cap × target_gain` with
    /// `load` (a multiplication where the ratio divides twice): the two
    /// tests disagree only for a cell whose ratio is within a few ulps of
    /// 1, whose error is then the unique least, and it is one of the two
    /// cells around the turn either way. Of those two, with ratios
    /// `r_lo > r_hi`, the scan keeps the first exactly when
    /// `|ln r_lo| ≤ |ln r_hi|`, which on any side of 1 is
    /// `r_lo × r_hi ≤ 1`: the product decides, and the scan's two logs are
    /// taken only when it lies within `1e-9` of 1. This is exact when
    /// neighbouring caps are more than a relative `1e-6` apart and the
    /// load and gain lie in `[1e-100, 1e100]`; any other menu or argument
    /// (equal caps, a zero, infinite or NaN load) gets the full scan.
    ///
    /// # Panics
    ///
    /// Panics if `cell` did not come from this library, or if a compared
    /// gain error is NaN (a negative or NaN load on a menu of two or more).
    pub fn drive_for_gain(&self, cell: CellId, load: Ff, target_gain: f64) -> CellId {
        let menu = self.menu_of[cell.index()];
        let ids = self.slice(menu);
        let ratio = |id: CellId| load / self.cell(id).input_cap / target_gain;
        let keyed = if menu.caps_separated && moderate(load.value()) && moderate(target_gain) {
            let pair = bracket(ids, |id| {
                self.cell(id).input_cap.value() * target_gain <= load.value()
            });
            if let [lo, hi] = *pair {
                let product = ratio(lo) * ratio(hi);
                if (product - 1.0).abs() > TIE_MARGIN {
                    return if product < 1.0 { lo } else { hi };
                }
            }
            pair
        } else {
            ids
        };
        let gain_error = |id: CellId| ratio(id).ln().abs();
        first_min(keyed, gain_error, "gains are finite").expect("a menu holds its own cell")
    }

    /// Picks the drive variant of `cell_id`'s function whose drive is
    /// closest to `target_drive` on a log scale (used when discretizing
    /// continuous sizes), the first of equals winning. Like
    /// [`Library::drive_for_gain`], a menu of well-apart drives is
    /// binary-searched for `target_drive` (comparing drives, not their
    /// logs) and only the two drives around it are keyed; a target
    /// outside `[1e-100, 1e100]` gets the full scan.
    pub fn closest_drive(&self, cell_id: CellId, target_drive: f64) -> CellId {
        let menu = self.menu_of[cell_id.index()];
        let ids = self.slice(menu);
        let keyed = if menu.drives_separated && moderate(target_drive) {
            bracket(ids, |id| self.cell(id).drive < target_drive)
        } else {
            ids
        };
        let target_ln = target_drive.ln();
        let distance = |id: CellId| (self.cell(id).drive.ln() - target_ln).abs();
        first_min(keyed, distance, "drives are finite").unwrap_or(cell_id)
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

/// The two ids around the point where `before_turn` stops holding (it
/// must hold on a prefix of `ids`), by binary search; all of `ids` when
/// there are fewer than two. Over a menu whose keys strictly fall up to
/// that point and strictly rise after it, the least key is one of the
/// two.
fn bracket(ids: &[CellId], before_turn: impl Fn(CellId) -> bool) -> &[CellId] {
    if ids.len() < 2 {
        return ids;
    }
    let turn = ids.partition_point(|&id| before_turn(id));
    let lo = turn.clamp(1, ids.len() - 1) - 1;
    &ids[lo..lo + 2]
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

    /// Finalises the library: sorts each function/family's cells by
    /// drive into one flat menu table and indexes it by function and by
    /// cell.
    pub fn build(self) -> Library {
        let mut groups: HashMap<(CellFunction, LogicFamily), Vec<CellId>> = HashMap::new();
        for (i, c) in self.cells.iter().enumerate() {
            groups
                .entry((c.function, c.family))
                .or_default()
                .push(CellId(i as u32));
        }
        let cells = &self.cells;
        let mut menus = Vec::with_capacity(cells.len());
        let mut by_function = HashMap::new();
        let mut menu_of = vec![None; cells.len()];
        for (key, mut ids) in groups {
            ids.sort_by(|a, b| {
                cells[a.index()]
                    .drive
                    .partial_cmp(&cells[b.index()].drive)
                    .expect("drives are finite")
            });
            let menu = Menu {
                start: menus.len() as u32,
                end: (menus.len() + ids.len()) as u32,
                caps_separated: separated(ids.iter().map(|id| cells[id.index()].input_cap.value())),
                drives_separated: separated(ids.iter().map(|id| cells[id.index()].drive)),
            };
            for id in &ids {
                menu_of[id.index()] = Some(menu);
            }
            menus.extend(ids);
            by_function.insert(key, menu);
        }
        Library {
            name: self.name,
            tech: self.tech,
            menus,
            menu_of: menu_of
                .into_iter()
                .map(|m| m.expect("every cell is in a menu"))
                .collect(),
            cells: self.cells,
            by_function,
            by_name: self.by_name,
        }
    }
}

#[cfg(test)]
mod oracle;

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
        let nand2 = lib.smallest(CellFunction::Nand(2)).expect("nand2 exists");
        let small = lib.drive_for_gain(nand2, Ff::new(4.0), 4.0);
        let big = lib.drive_for_gain(nand2, Ff::new(200.0), 4.0);
        assert!(lib.cell(big).drive > lib.cell(small).drive);
        // The chosen gain is within one menu step of the target.
        let gain = Ff::new(200.0) / lib.cell(big).input_cap;
        assert!(gain > 2.0 && gain < 8.0, "achieved gain {gain}");
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
