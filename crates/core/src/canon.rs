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
//! collapse to `-` when absent. The line and record codecs below are
//! the ones the stage artifacts in `stage.rs` are written with too: a
//! versioned header, one field per line in fixed order, strict
//! re-parse.

use std::fmt;
use std::fmt::Write;
use std::str::Lines;

use asicgap_equiv::{EquivEffort, VerifyLevel};
use asicgap_place::Placement;
use asicgap_route::RouteSummary;
use asicgap_sta::IncrementalStats;
use asicgap_tech::{Mhz, Ps};

use crate::error::GapError;
use crate::flow::ScenarioOutcome;

/// Shorthand for the parse-error constructor.
pub(crate) fn bad(what: impl Into<String>) -> GapError {
    GapError::Parse { what: what.into() }
}

pub(crate) fn parse_num<T: std::str::FromStr>(field: &str, s: &str) -> Result<T, GapError> {
    s.parse().map_err(|_| bad(format!("field {field}: {s:?}")))
}

/// The spelling of a verify level inside canonical keys.
pub(crate) fn verify_label(verify: VerifyLevel) -> &'static str {
    match verify {
        VerifyLevel::Off => "off",
        VerifyLevel::Sim => "sim",
        VerifyLevel::Full => "full",
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

pub(crate) fn parse_effort(s: &str) -> Result<Option<EquivEffort>, GapError> {
    if s == "-" {
        return Ok(None);
    }
    let v: Vec<&str> = s.split(' ').collect();
    if v.len() != 8 {
        return Err(bad(format!("verify record {s:?}")));
    }
    Ok(Some(EquivEffort {
        cones: parse_num("verify.cones", v[0])?,
        structural: parse_num("verify.structural", v[1])?,
        sat_cones: parse_num("verify.sat_cones", v[2])?,
        vars: parse_num("verify.vars", v[3])?,
        clauses: parse_num("verify.clauses", v[4])?,
        conflicts: parse_num("verify.conflicts", v[5])?,
        decisions: parse_num("verify.decisions", v[6])?,
        propagations: parse_num("verify.propagations", v[7])?,
    }))
}

pub(crate) fn write_stats(w: &mut String, field: &str, s: IncrementalStats) {
    writeln!(
        w,
        "{field} {} {} {}",
        s.full_propagations, s.incremental_updates, s.pins_touched
    )
    .expect("write to String");
}

pub(crate) fn parse_stats(field: &str, s: &str) -> Result<IncrementalStats, GapError> {
    let t: Vec<&str> = s.split(' ').collect();
    if t.len() != 3 {
        return Err(bad(format!("{field} record {s:?}")));
    }
    Ok(IncrementalStats {
        full_propagations: parse_num("stats.full", t[0])?,
        incremental_updates: parse_num("stats.incremental", t[1])?,
        pins_touched: parse_num("stats.pins", t[2])?,
    })
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

pub(crate) fn parse_route(s: &str) -> Result<Option<RouteSummary>, GapError> {
    if s == "-" {
        return Ok(None);
    }
    let r: Vec<&str> = s.split(' ').collect();
    if r.len() != 5 {
        return Err(bad(format!("route record {s:?}")));
    }
    Ok(Some(RouteSummary {
        iterations: parse_num("route.iterations", r[0])?,
        overflow: parse_num("route.overflow", r[1])?,
        routed_um: parse_num("route.routed_um", r[2])?,
        hpwl_um: parse_num("route.hpwl_um", r[3])?,
        vias: parse_num("route.vias", r[4])?,
    }))
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

fn parse_bits(field: &str, s: &str) -> Result<f64, GapError> {
    // Exactly what `put_bits` writes; `from_str_radix` alone would also
    // take a sign, upper case, or fewer digits.
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    u64::from_str_radix(s, 16)
        .ok()
        .filter(|_| canonical)
        .map(f64::from_bits)
        .ok_or_else(|| bad(format!("field {field}: {s:?}")))
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

fn parse_point(field: &str, line: &str) -> Result<(f64, f64), GapError> {
    let (x, y) = line
        .split_once(' ')
        .ok_or_else(|| bad(format!("{field} record {line:?}")))?;
    Ok((parse_bits(field, x)?, parse_bits(field, y)?))
}

/// Inverse of [`write_placement`]. `budget` is the size of the text the
/// lines come from: a list cannot claim more points than that many bytes
/// could spell, so nothing is reserved on a count's say-so.
pub(crate) fn parse_placement(lines: &mut Lines<'_>, budget: usize) -> Result<Placement, GapError> {
    let (width_um, height_um) = parse_point("placement", field_value(lines, "placement")?)?;
    let mut points = |label: &'static str| -> Result<Vec<(f64, f64)>, GapError> {
        let n: usize = num_field(lines, label)?;
        if n > budget / POINT_LINE {
            return Err(bad(format!(
                "{label}: {n} points claimed in a {budget}-byte text"
            )));
        }
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("truncated {label} list")))?;
            pts.push(parse_point(label, line)?);
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

/// Reads the next line and returns the value after `field ` — fields
/// come in one fixed order, so anything else is damage.
pub(crate) fn field_value<'a>(
    lines: &mut Lines<'a>,
    field: &'static str,
) -> Result<&'a str, GapError> {
    let line = lines
        .next()
        .ok_or_else(|| bad(format!("text: missing field {field}")))?;
    line.strip_prefix(field)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| bad(format!("text: expected field {field:?}, got {line:?}")))
}

/// [`field_value`] parsed as a number.
pub(crate) fn num_field<T: std::str::FromStr>(
    lines: &mut Lines<'_>,
    field: &'static str,
) -> Result<T, GapError> {
    parse_num(field, field_value(lines, field)?)
}

/// Reads the next line and requires it to be exactly `want` (a
/// versioned header, or `end`).
pub(crate) fn expect_line(lines: &mut Lines<'_>, want: &'static str) -> Result<(), GapError> {
    match lines.next() {
        Some(line) if line == want => Ok(()),
        other => Err(bad(format!("text: expected {want:?}, got {other:?}"))),
    }
}

pub(crate) fn no_trailing(mut lines: Lines<'_>, what: &'static str) -> Result<(), GapError> {
    if lines.next().is_some() {
        return Err(bad(format!("{what}: trailing data")));
    }
    Ok(())
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
    /// [`GapError::Parse`] on any missing, reordered, or malformed line.
    pub fn parse_canonical(text: &str) -> Result<ScenarioOutcome, GapError> {
        let mut lines = text.lines();
        expect_line(&mut lines, "outcome/v1")?;
        let outcome = ScenarioOutcome {
            scenario: field_value(&mut lines, "scenario")?.to_string(),
            min_period: Ps::new(num_field(&mut lines, "min_period_ps")?),
            fo4_per_cycle: num_field(&mut lines, "fo4_per_cycle")?,
            shipped: Mhz::new(num_field(&mut lines, "shipped_mhz")?),
            gates: num_field(&mut lines, "gates")?,
            registers: num_field(&mut lines, "registers")?,
            area_um2: num_field(&mut lines, "area_um2")?,
            power_proxy: num_field(&mut lines, "power_proxy")?,
            timing_effort: parse_stats("timing", field_value(&mut lines, "timing")?)?,
            verify_effort: parse_effort(field_value(&mut lines, "verify")?)?,
            route: parse_route(field_value(&mut lines, "route")?)?,
        };
        expect_line(&mut lines, "end")?;
        no_trailing(lines, "outcome")?;
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
