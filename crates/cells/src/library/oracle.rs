//! Differential oracle for the bracketed menu searches: the full scans
//! they replaced survive here, test-only, and
//! [`Library::drive_for_gain`] and [`Library::closest_drive`] must pick
//! the scan's cell for every menu of every preset and of hand-made menus
//! with equal, nearly equal and falling input caps and drives, at loads
//! and targets swept across every bracket boundary: where a ratio
//! crosses 1, where two neighbours' keys tie, a few ulps either side of
//! each, and off both ends of the menu.
//!
//! Expiry: delete this module when a decision rule changes (a key other
//! than `|ln(load / input_cap / gain)|` or `|ln drive - ln target|`): the
//! exactness arguments on [`Library::drive_for_gain`] and [`bracket`]
//! are about these keys.

use asicgap_tech::Technology;

use super::*;
use crate::cell::LibCell;
use crate::synthetic::LibrarySpec;

/// The pre-bracket `drive_for_gain`: every drive of the menu keyed, the
/// first least key winning.
fn scan_gain(lib: &Library, cell: CellId, load: Ff, target_gain: f64) -> CellId {
    let key = |id: CellId| (load / lib.cell(id).input_cap / target_gain).ln().abs();
    *lib.menu(cell)
        .iter()
        .min_by(|&&a, &&b| key(a).partial_cmp(&key(b)).expect("gains are finite"))
        .expect("non-empty menu")
}

/// The pre-bracket `closest_drive`.
fn scan_drive(lib: &Library, cell: CellId, target_drive: f64) -> CellId {
    let target_ln = target_drive.ln();
    let key = |id: CellId| (lib.cell(id).drive.ln() - target_ln).abs();
    *lib.menu(cell)
        .iter()
        .min_by(|&&a, &&b| key(a).partial_cmp(&key(b)).expect("drives are finite"))
        .expect("non-empty menu")
}

/// `x` and its neighbours: up to three ulps either side, and a relative
/// `1e-12`, `1e-9` and `1e-3` either side.
fn around(x: f64) -> Vec<f64> {
    let mut out = vec![x];
    let (mut up, mut down) = (x, x);
    for _ in 0..3 {
        up = up.next_up();
        down = down.next_down();
        out.extend([up, down]);
    }
    for rel in [1e-12, 1e-9, 1e-3] {
        out.extend([x * (1.0 + rel), x * (1.0 - rel)]);
    }
    out
}

/// Values that straddle every boundary of a menu whose entries are
/// `values` (ascending): each entry, each geometric midpoint of two
/// neighbours (where their log keys tie), each with [`around`]'s
/// neighbours, off both ends by 10×, and the edge cases 0, the least
/// subnormal, both ends of the bracketable range (`1e-100`, `1e100`),
/// `f64::MAX` and infinity.
fn sweep(values: &[f64]) -> Vec<f64> {
    let mut points: Vec<f64> = values.to_vec();
    points.extend(values.windows(2).map(|w| (w[0] * w[1]).sqrt()));
    let (lo, hi) = (values[0], values[values.len() - 1]);
    points.extend([lo / 10.0, hi * 10.0]);
    let mut out: Vec<f64> = points.into_iter().flat_map(around).collect();
    out.extend([0.0, f64::from_bits(1), f64::MAX, f64::INFINITY]);
    out.extend([1e-100, 1e100].into_iter().flat_map(around));
    out
}

/// Every menu's first cell, once per menu.
fn menu_heads(lib: &Library) -> Vec<CellId> {
    let mut heads: Vec<CellId> = lib.iter().map(|(id, _)| lib.menu(id)[0]).collect();
    heads.sort();
    heads.dedup();
    heads
}

/// Checks both searches against their scans over every menu of `lib`.
/// Returns how many of the compared calls took the bracket, and at how
/// many loads two neighbouring ratios multiplied to within
/// [`TIE_MARGIN`] of 1 (where the logs, not the product, decide).
fn check(lib: &Library, what: &str) -> (usize, usize) {
    let (mut bracketed, mut near_ties) = (0, 0);
    for head in menu_heads(lib) {
        let menu = lib.menu_of[head.index()];
        let ids = lib.menu(head);
        let caps: Vec<f64> = ids
            .iter()
            .map(|&id| lib.cell(id).input_cap.value())
            .collect();
        let drives: Vec<f64> = ids.iter().map(|&id| lib.cell(id).drive).collect();
        for target_gain in [2.0, 3.6, 4.0, 6.0] {
            // Ratio 1 at load = gain × cap; neighbours' keys tie at the
            // gain × their caps' geometric mean.
            let scaled: Vec<f64> = caps.iter().map(|c| c * target_gain).collect();
            for load in sweep(&scaled) {
                for &cell in ids {
                    let got = lib.drive_for_gain(cell, Ff::new(load), target_gain);
                    let want = scan_gain(lib, cell, Ff::new(load), target_gain);
                    assert_eq!(
                        got,
                        want,
                        "{what}: {} load {load:e} gain {target_gain}",
                        lib.cell(cell).name
                    );
                }
                bracketed += usize::from(menu.caps_separated && ids.len() > 1);
                let ratio = |c: f64| load / c / target_gain;
                near_ties += caps
                    .windows(2)
                    .filter(|w| (ratio(w[0]) * ratio(w[1]) - 1.0).abs() <= TIE_MARGIN)
                    .count();
            }
        }
        for target in sweep(&drives) {
            for &cell in ids {
                let got = lib.closest_drive(cell, target);
                let want = scan_drive(lib, cell, target);
                assert_eq!(
                    got,
                    want,
                    "{what}: {} target {target:e}",
                    lib.cell(cell).name
                );
            }
            bracketed += usize::from(menu.drives_separated && ids.len() > 1);
        }
    }
    (bracketed, near_ties)
}

#[test]
fn bracketed_searches_match_the_full_scan_on_every_preset() {
    let tech = Technology::cmos025_asic();
    for (name, spec) in [
        ("rich", LibrarySpec::rich()),
        ("poor", LibrarySpec::poor()),
        ("two_drive", LibrarySpec::two_drive()),
        ("custom", LibrarySpec::custom()),
    ] {
        let lib = spec.build(&tech);
        // The presets' menus are all well apart: every multi-drive menu
        // takes the bracket, so the comparison above tests it.
        for head in menu_heads(&lib) {
            let menu = lib.menu_of[head.index()];
            assert!(menu.caps_separated && menu.drives_separated, "{name}");
        }
        let (bracketed, near_ties) = check(&lib, name);
        assert!(bracketed > 0, "{name}: no menu was bracketed");
        assert!(near_ties > 0, "{name}: no load came near a tie");
    }
}

/// A library with one menu per entry of `menus`, each of another
/// function: a list of `(drive, input cap in unit-inverter caps)`.
fn hand_made(menus: &[&[(f64, f64)]]) -> Library {
    let tech = Technology::cmos025_asic();
    let mut b = LibraryBuilder::new("hand_made", &tech);
    let functions = [
        CellFunction::Nand(2),
        CellFunction::Nor(2),
        CellFunction::Inv,
        CellFunction::Buf,
        CellFunction::And(2),
        CellFunction::Or(2),
    ];
    for (menu, &function) in menus.iter().zip(&functions) {
        for (k, &(drive, cap)) in menu.iter().enumerate() {
            let mut cell = LibCell::combinational(function, LogicFamily::StaticCmos, drive, &tech);
            cell.name = format!("{}_{k}", function.base_name());
            cell.input_cap = tech.unit_inverter_cin * cap;
            b.add(cell).expect("distinct names");
        }
    }
    b.build()
}

#[test]
fn menus_with_equal_or_falling_neighbours_match_the_full_scan() {
    let nearly = 2.0 * (1.0 + 1e-12);
    let lib = hand_made(&[
        // Two equal caps inside an otherwise rising menu.
        &[(1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (4.0, 4.0)],
        // Equal drives (and so equal caps) at both ends.
        &[(1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (4.0, 4.0), (4.0, 4.0)],
        // Caps a relative 1e-12 apart, then a falling cap.
        &[(1.0, 2.0), (2.0, nearly), (4.0, 8.0), (8.0, 6.0)],
        // A single drive.
        &[(2.0, 2.0)],
        // A well-apart control menu: takes the bracket.
        &[(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (8.0, 8.0)],
    ]);
    let flags: Vec<(bool, bool)> = menu_heads(&lib)
        .iter()
        .map(|h| {
            let m = lib.menu_of[h.index()];
            (m.caps_separated, m.drives_separated)
        })
        .collect();
    assert_eq!(
        flags,
        [
            (false, true),
            (false, false),
            (false, true),
            (true, true),
            (true, true)
        ]
    );
    assert!(check(&lib, "hand_made").0 > 0);
}
