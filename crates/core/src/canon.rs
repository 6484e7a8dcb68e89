//! The canonical text serialization of flow results.
//!
//! One format, used everywhere a [`ScenarioOutcome`] leaves the
//! process: the `asicgap-serve` wire protocol ships it, the result
//! cache stores it, and `repro --dump-outcomes` prints it. Round-trip
//! exactness is part of the contract — every `f64` is written with
//! Rust's shortest-round-trip formatting (`{:?}`), so
//! `parse_canonical(canonical_text(x)) == x` bit-for-bit. Combined with
//! the PR 2 determinism contract this is what lets a cached response be
//! byte-compared against a fresh compute in tests.
//!
//! The format is line-based: a `outcome/v1` header, one `field value`
//! line per field, `end`. Optional sub-records (`verify`, `route`)
//! collapse to `-` when absent. The record codecs below are the ones the
//! stage artifacts in `stage.rs` are written with too. Every reader here
//! reads through [`asicgap_tech::text`], which accepts a text only if it
//! re-encodes to the same bytes.

use std::fmt;
use std::fmt::Write;

use asicgap_equiv::EquivEffort;
use asicgap_place::Placement;
use asicgap_route::RouteSummary;
use asicgap_sta::IncrementalStats;
use asicgap_tech::text::{hex, Lines, TextError, Tokens};
use asicgap_tech::{Mhz, Ps};

use crate::error::GapError;
use crate::flow::ScenarioOutcome;

/// Shorthand for the parse-error constructor.
pub(crate) fn bad(what: impl Into<String>) -> GapError {
    GapError::Parse { what: what.into() }
}

impl From<TextError> for GapError {
    fn from(e: TextError) -> GapError {
        bad(e.what)
    }
}

pub(crate) fn write_effort(w: &mut String, e: &Option<EquivEffort>) {
    match e {
        None => writeln!(w, "verify -"),
        Some(e) => writeln!(
            w,
            "verify {} {} {} {} {} {} {} {}",
            e.cones,
            e.structural,
            e.sat_cones,
            e.vars,
            e.clauses,
            e.conflicts,
            e.decisions,
            e.propagations
        ),
    }
    .expect("write to String");
}

pub(crate) fn parse_effort(lines: &mut Lines<'_>) -> Result<Option<EquivEffort>, GapError> {
    let mut t = match lines.field("verify")? {
        "-" => return Ok(None),
        value => Tokens::new(value),
    };
    let effort = EquivEffort {
        cones: t.num()?,
        structural: t.num()?,
        sat_cones: t.num()?,
        vars: t.num()?,
        clauses: t.num()?,
        conflicts: t.num()?,
        decisions: t.num()?,
        propagations: t.num()?,
    };
    t.end()?;
    Ok(Some(effort))
}

pub(crate) fn write_stats(w: &mut String, field: &str, s: IncrementalStats) {
    writeln!(
        w,
        "{field} {} {} {}",
        s.full_propagations, s.incremental_updates, s.pins_touched
    )
    .expect("write to String");
}

pub(crate) fn parse_stats(
    lines: &mut Lines<'_>,
    field: &str,
) -> Result<IncrementalStats, GapError> {
    let mut t = Tokens::new(lines.field(field)?);
    let stats = IncrementalStats {
        full_propagations: t.num()?,
        incremental_updates: t.num()?,
        pins_touched: t.num()?,
    };
    t.end()?;
    Ok(stats)
}

pub(crate) fn write_route(w: &mut String, r: &Option<RouteSummary>) {
    match r {
        None => writeln!(w, "route -"),
        Some(r) => writeln!(
            w,
            "route {} {} {:?} {:?} {}",
            r.iterations, r.overflow, r.routed_um, r.hpwl_um, r.vias
        ),
    }
    .expect("write to String");
}

pub(crate) fn parse_route(lines: &mut Lines<'_>) -> Result<Option<RouteSummary>, GapError> {
    let mut t = match lines.field("route")? {
        "-" => return Ok(None),
        value => Tokens::new(value),
    };
    let route = RouteSummary {
        iterations: t.num()?,
        overflow: t.num()?,
        routed_um: t.num()?,
        hpwl_um: t.num()?,
        vias: t.num()?,
    };
    t.end()?;
    Ok(Some(route))
}

/// One coordinate pair per line, each `f64` as the 16 lower-case hex
/// digits of [`f64::to_bits`].
const POINT_LINE: usize = 16 + 1 + 16 + 1;

fn put_bits(w: &mut Vec<u8>, v: f64, end: u8) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = v.to_bits();
    let mut digits = [end; 17];
    for (k, d) in digits[..16].iter_mut().enumerate() {
        *d = HEX[(bits >> (60 - 4 * k)) as usize & 15];
    }
    w.extend_from_slice(&digits);
}

/// Appends `p` as a `placement W H` line and three counted point lists.
pub(crate) fn write_placement(w: &mut Vec<u8>, p: &Placement) {
    let points = p.cells.len() + p.inputs.len() + p.outputs.len();
    w.reserve(POINT_LINE * (points + 1) + 64);
    w.extend_from_slice(b"placement ");
    put_bits(w, p.width_um, b' ');
    put_bits(w, p.height_um, b'\n');
    for (label, pts) in [
        ("cells", &p.cells),
        ("inputs", &p.inputs),
        ("outputs", &p.outputs),
    ] {
        w.extend_from_slice(format!("{label} {}\n", pts.len()).as_bytes());
        for &(x, y) in pts {
            put_bits(w, x, b' ');
            put_bits(w, y, b'\n');
        }
    }
}

fn parse_point(line: &str) -> Result<(f64, f64), GapError> {
    let (x, y) = line
        .split_once(' ')
        .ok_or_else(|| bad(format!("point {line:?}")))?;
    Ok((f64::from_bits(hex(x)?), f64::from_bits(hex(y)?)))
}

/// Inverse of [`write_placement`]. A list cannot claim more points than
/// the bytes left in the text could spell, so nothing is reserved on a
/// count's say-so.
pub(crate) fn parse_placement(lines: &mut Lines<'_>) -> Result<Placement, GapError> {
    let (width_um, height_um) = parse_point(lines.field("placement")?)?;
    let mut points = |label: &'static str| -> Result<Vec<(f64, f64)>, GapError> {
        let n: usize = lines.num(label)?;
        let left = lines.rest().len();
        if n > left / POINT_LINE {
            return Err(bad(format!("{label}: {n} points claimed in {left} bytes")));
        }
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            pts.push(parse_point(lines.line()?)?);
        }
        Ok(pts)
    };
    Ok(Placement {
        width_um,
        height_um,
        cells: points("cells")?,
        inputs: points("inputs")?,
        outputs: points("outputs")?,
    })
}

impl ScenarioOutcome {
    /// Serializes this outcome to the canonical text form. Identical
    /// outcomes produce identical bytes; [`ScenarioOutcome::parse_canonical`]
    /// inverts it exactly.
    pub fn canonical_text(&self) -> String {
        let mut s = String::with_capacity(512);
        let w = &mut s;
        writeln!(w, "outcome/v1").expect("write to String");
        writeln!(w, "scenario {}", self.scenario).expect("write to String");
        writeln!(w, "min_period_ps {:?}", self.min_period.value()).expect("write to String");
        writeln!(w, "fo4_per_cycle {:?}", self.fo4_per_cycle).expect("write to String");
        writeln!(w, "shipped_mhz {:?}", self.shipped.value()).expect("write to String");
        writeln!(w, "gates {}", self.gates).expect("write to String");
        writeln!(w, "registers {}", self.registers).expect("write to String");
        writeln!(w, "area_um2 {:?}", self.area_um2).expect("write to String");
        writeln!(w, "power_proxy {:?}", self.power_proxy).expect("write to String");
        write_stats(w, "timing", self.timing_effort);
        write_effort(w, &self.verify_effort);
        write_route(w, &self.route);
        writeln!(w, "end").expect("write to String");
        s
    }

    /// Parses the canonical text form back into an outcome.
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] on any text that does not re-encode to the
    /// same bytes: a missing, reordered or malformed line, or a number
    /// in any spelling but its canonical one.
    pub fn parse_canonical(text: &str) -> Result<ScenarioOutcome, GapError> {
        let mut lines = Lines::open(text, "outcome/v1")?;
        let outcome = ScenarioOutcome {
            scenario: lines.field("scenario")?.to_string(),
            min_period: Ps::new(lines.num("min_period_ps")?),
            fo4_per_cycle: lines.num("fo4_per_cycle")?,
            shipped: Mhz::new(lines.num("shipped_mhz")?),
            gates: lines.num("gates")?,
            registers: lines.num("registers")?,
            area_um2: lines.num("area_um2")?,
            power_proxy: lines.num("power_proxy")?,
            timing_effort: parse_stats(&mut lines, "timing")?,
            verify_effort: parse_effort(&mut lines)?,
            route: parse_route(&mut lines)?,
        };
        lines.end()?;
        Ok(outcome)
    }
}

/// `Display` is the canonical text — there is exactly one way an
/// outcome prints, shared by the report tooling and the wire protocol.
impl fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(with_options: bool) -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: "typical ASIC".to_string(),
            min_period: Ps::new(7370.123456789),
            fo4_per_cycle: 55.25,
            shipped: Mhz::new(135.5),
            gates: 1493,
            registers: 64,
            area_um2: 1.0 / 3.0,
            power_proxy: 2.5e-3,
            timing_effort: IncrementalStats {
                full_propagations: 1,
                incremental_updates: 17,
                pins_touched: 33000,
            },
            verify_effort: with_options.then_some(EquivEffort {
                cones: 27,
                structural: 19,
                sat_cones: 8,
                vars: 100,
                clauses: 941,
                conflicts: 92,
                decisions: 12,
                propagations: 3456,
            }),
            route: with_options.then_some(RouteSummary {
                iterations: 2,
                overflow: 0,
                routed_um: 123456.789,
                hpwl_um: 100000.5,
                vias: 456,
            }),
        }
    }

    #[test]
    fn round_trips_exactly() {
        for with_options in [false, true] {
            let out = sample(with_options);
            let text = out.canonical_text();
            let back = ScenarioOutcome::parse_canonical(&text).expect("parses");
            assert_eq!(out, back);
            // Byte-for-byte: re-serialization is the identity.
            assert_eq!(back.canonical_text(), text);
            assert_eq!(format!("{out}"), text);
        }
    }

    #[test]
    fn nonfinite_free_f64_round_trip_is_shortest_exact() {
        // {:?} is Rust's shortest round-trip float form; confirm the
        // awkward cases survive.
        let mut out = sample(false);
        out.area_um2 = f64::MIN_POSITIVE;
        out.power_proxy = 1e300;
        let back = ScenarioOutcome::parse_canonical(&out.canonical_text()).expect("parses");
        assert_eq!(out, back);
    }

    #[test]
    fn rejects_malformed_text() {
        let good = sample(true).canonical_text();
        // Truncation, header damage, field damage, trailing garbage.
        let cut = &good[..good.len() - 5];
        assert!(ScenarioOutcome::parse_canonical(cut).is_err());
        assert!(ScenarioOutcome::parse_canonical(&good.replacen("outcome/v1", "x", 1)).is_err());
        assert!(ScenarioOutcome::parse_canonical(&good.replacen("gates", "gaets", 1)).is_err());
        let mut trailing = good.clone();
        trailing.push_str("junk\n");
        assert!(ScenarioOutcome::parse_canonical(&trailing).is_err());
        assert!(ScenarioOutcome::parse_canonical("").is_err());
    }
}
