//! Yosys JSON (`write_json`) → [`Design`].
//!
//! The reader drives a [`json::Reader`](crate::json::Reader) over
//! `modules → ports/cells/netnames → connections` and fills each
//! [`Module`] as the bytes go by; no document tree is built. Each
//! distinct bit number maps to a dense local net in first-appearance
//! order over ports, then cells, then netnames — whatever order the
//! file lists those three in (a section that arrives early is stepped
//! over and revisited), so parsing is deterministic. Of a repeated key
//! the first occurrence counts, as it did when lookups walked a tree.
//! Constant bits `"0"`, `"1"`, `"x"` become
//! [`LocalBit::Zero`]/[`LocalBit::One`] (`x` reads as zero: any defined
//! value refines don't-care). Net names come from `netnames`
//! (first-wins, `name[k]` for bus bits), with `_<bit>` as the fallback
//! spelling for nets the file leaves anonymous.
//!
//! Top selection: the module whose `attributes.top` is truthy, else the
//! only module, else the first module never instantiated by another.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::error::{syntax, FrontendError};
use crate::json::Reader;
use crate::lower::{Design, Inst, LocalBit, Module, Port, PortDir};

/// Parses Yosys JSON text into a [`Design`].
///
/// # Errors
///
/// [`FrontendError::Syntax`] for malformed JSON or a shape that is not
/// a Yosys netlist; [`FrontendError::Unsupported`] for `inout` ports.
pub fn parse(text: &str) -> Result<Design, FrontendError> {
    let mut r = Reader::new(text);
    let mut modules = Vec::new();
    let mut marked_top = None;
    let mut seen_modules = false;
    r.object(|r, key| {
        if key != "modules" || std::mem::replace(&mut seen_modules, true) {
            return r.skip();
        }
        if r.peek()? != b'{' {
            return Err(syntax("\"modules\" is not an object"));
        }
        r.object(|r, name| {
            let (module, is_top) = parse_module(r, name.into_owned())?;
            if is_top && marked_top.is_none() {
                marked_top = Some(modules.len());
            }
            modules.push(module);
            Ok(())
        })
    })?;
    r.finish()?;
    if !seen_modules {
        return Err(syntax("missing \"modules\" object"));
    }
    if modules.is_empty() {
        return Err(syntax("design has no modules"));
    }

    let top = match marked_top {
        Some(idx) => idx,
        None => pick_top(&modules)?,
    };
    Ok(Design { modules, top })
}

/// Structural fallback when no module carries the `top` attribute.
fn pick_top(modules: &[Module]) -> Result<usize, FrontendError> {
    if modules.len() == 1 {
        return Ok(0);
    }
    let instantiated: Vec<&str> = modules
        .iter()
        .flat_map(|m| m.insts.iter().map(|i| i.kind.as_str()))
        .collect();
    modules
        .iter()
        .position(|m| !instantiated.contains(&m.name.as_str()))
        .ok_or_else(|| syntax("cannot determine top module (all modules are instantiated)"))
}

/// `true` once per flag: the first occurrence of a key is the one that
/// counts.
fn first(seen: &mut bool) -> bool {
    !std::mem::replace(seen, true)
}

/// Bit number → local net, in first-appearance order.
#[derive(Default)]
struct NetTable {
    /// The name `netnames` gave each net, if it has named it yet.
    names: Vec<Option<String>>,
    /// The bit number behind each net.
    bits: Vec<i64>,
    /// `dense[bit]` is the net of `bit`, or [`NetTable::NONE`]. Yosys
    /// numbers bits in the order it writes them, so the table a file
    /// needs is as long as its net count; it grows only that fast.
    dense: Vec<u32>,
    /// Bit numbers the dense table would have had to jump for:
    /// negative, or far beyond the nets seen so far.
    sparse: HashMap<i64, u32>,
}

impl NetTable {
    const NONE: u32 = u32::MAX;
    /// How far past `2 * nets seen` a bit number may land and still
    /// extend the dense table.
    const SLACK: usize = 64;

    /// Reads one bit of a `bits` / connection array.
    fn local(&mut self, r: &mut Reader<'_>) -> Result<LocalBit, FrontendError> {
        match r.peek()? {
            b'"' => match &*r.string()? {
                "0" | "x" => Ok(LocalBit::Zero),
                "1" => Ok(LocalBit::One),
                other => Err(syntax(format!("unknown constant bit {other:?}"))),
            },
            b'-' | b'0'..=b'9' => Ok(LocalBit::Net(self.net_of(r.int()?)?)),
            _ => {
                r.skip()?;
                Err(syntax("bit is neither a number nor a constant string"))
            }
        }
    }

    fn net_of(&mut self, bit: i64) -> Result<u32, FrontendError> {
        // A negative bit lands far out of the table's reach.
        let slot = usize::try_from(bit).unwrap_or(usize::MAX);
        if let Some(&id) = self.dense.get(slot) {
            if id != Self::NONE {
                return Ok(id);
            }
        }
        if !self.sparse.is_empty() {
            if let Some(&id) = self.sparse.get(&bit) {
                return Ok(id);
            }
        }
        let id = u32::try_from(self.names.len())
            .ok()
            .filter(|&id| id != Self::NONE)
            .ok_or_else(|| syntax("module has more than 2^32 - 1 nets"))?;
        self.names.push(None);
        self.bits.push(bit);
        if slot < self.dense.len() {
            self.dense[slot] = id;
        } else if slot <= 2 * self.names.len() + Self::SLACK {
            self.dense.resize(slot + 1, Self::NONE);
            self.dense[slot] = id;
        } else {
            self.sparse.insert(bit, id);
        }
        Ok(id)
    }

    /// The net names: what `netnames` gave, `_<bit>` for the rest.
    fn into_names(self) -> Vec<String> {
        self.names
            .into_iter()
            .zip(self.bits)
            .map(|(name, bit)| name.unwrap_or_else(|| format!("_{bit}")))
            .collect()
    }
}

/// Reads a `bits` / connection value. Anything but an array reads as no
/// bits, as the tree walk had it.
fn parse_bits(r: &mut Reader<'_>, table: &mut NetTable) -> Result<Vec<LocalBit>, FrontendError> {
    let mut bits = Vec::new();
    if r.peek()? != b'[' {
        r.skip()?;
        return Ok(bits);
    }
    r.array(|r| {
        bits.push(table.local(r)?);
        Ok(())
    })?;
    Ok(bits)
}

/// Walks the members of an object value; any other value is stepped
/// over and has none.
fn members<'a>(
    r: &mut Reader<'a>,
    f: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), FrontendError>,
) -> Result<(), FrontendError> {
    if r.peek()? == b'{' {
        r.object(f)
    } else {
        r.skip()
    }
}

/// Reads one module and whether its `attributes.top` is truthy.
fn parse_module(r: &mut Reader<'_>, name: String) -> Result<(Module, bool), FrontendError> {
    if r.peek()? != b'{' {
        return Err(syntax(format!("module {name:?} is not an object")));
    }
    let mut table = NetTable::default();
    let mut ports = Vec::new();
    let mut insts = Vec::new();
    let mut is_top = false;
    let (mut seen_attrs, mut seen_ports, mut seen_cells, mut seen_netnames) =
        (false, false, false, false);
    // Offsets of sections that arrived before the ones numbered ahead
    // of them.
    let mut cells_later = None;
    let mut netnames_later = None;
    r.object(|r, key| match &*key {
        "attributes" if first(&mut seen_attrs) => {
            let mut seen_top = false;
            members(r, |r, key| {
                if key == "top" && first(&mut seen_top) {
                    is_top = truthy(r)?;
                    Ok(())
                } else {
                    r.skip()
                }
            })
        }
        "ports" if first(&mut seen_ports) => members(r, |r, pname| {
            ports.push(parse_port(r, pname.into_owned(), &name, &mut table)?);
            Ok(())
        }),
        "cells" if first(&mut seen_cells) => {
            if seen_ports {
                parse_cells(r, &name, &mut table, &mut insts)
            } else {
                cells_later = Some(r.offset());
                r.skip()
            }
        }
        "netnames" if first(&mut seen_netnames) => {
            if seen_ports && seen_cells && cells_later.is_none() {
                parse_netnames(r, &mut table)
            } else {
                netnames_later = Some(r.offset());
                r.skip()
            }
        }
        _ => r.skip(),
    })?;
    if let Some(at) = cells_later {
        r.revisit(at, |r| parse_cells(r, &name, &mut table, &mut insts))?;
    }
    if let Some(at) = netnames_later {
        r.revisit(at, |r| parse_netnames(r, &mut table))?;
    }

    let module = Module {
        name,
        ports,
        insts,
        net_names: table.into_names(),
    };
    Ok((module, is_top))
}

/// Yosys writes attribute values as numbers or binary-digit strings.
fn truthy(r: &mut Reader<'_>) -> Result<bool, FrontendError> {
    match r.peek()? {
        b't' | b'f' => r.boolean(),
        b'-' | b'0'..=b'9' => Ok(r.int()? != 0),
        b'"' => Ok(r.string()?.contains('1')),
        _ => r.skip().map(|()| false),
    }
}

fn parse_port(
    r: &mut Reader<'_>,
    pname: String,
    module: &str,
    table: &mut NetTable,
) -> Result<Port, FrontendError> {
    let mut dir = None;
    let mut bits = None;
    let mut seen_dir = false;
    members(r, |r, key| match &*key {
        "direction" if first(&mut seen_dir) && r.peek()? == b'"' => {
            dir = Some(r.string()?);
            Ok(())
        }
        "bits" if bits.is_none() => {
            bits = Some(parse_bits(r, table)?);
            Ok(())
        }
        _ => r.skip(),
    })?;
    let dir = match dir.as_deref() {
        Some("input") => PortDir::Input,
        Some("output") => PortDir::Output,
        Some("inout") => {
            return Err(FrontendError::Unsupported {
                what: format!("inout port {pname} in module {module}"),
            })
        }
        _ => {
            return Err(syntax(format!(
                "port {pname} of module {module} has no direction"
            )))
        }
    };
    let bits =
        bits.ok_or_else(|| syntax(format!("port {pname} of module {module} has no bits")))?;
    Ok(Port {
        name: pname,
        dir,
        bits,
    })
}

fn parse_cells(
    r: &mut Reader<'_>,
    module: &str,
    table: &mut NetTable,
    insts: &mut Vec<Inst>,
) -> Result<(), FrontendError> {
    members(r, |r, cname| {
        let mut kind = None;
        let mut conns = Vec::new();
        let (mut seen_type, mut seen_conns) = (false, false);
        members(r, |r, key| match &*key {
            "type" if first(&mut seen_type) && r.peek()? == b'"' => {
                kind = Some(r.string()?.into_owned());
                Ok(())
            }
            "connections" if first(&mut seen_conns) => members(r, |r, pin| {
                conns.push((pin.into_owned(), parse_bits(r, table)?));
                Ok(())
            }),
            _ => r.skip(),
        })?;
        let kind =
            kind.ok_or_else(|| syntax(format!("cell {cname} of module {module} has no type")))?;
        insts.push(Inst {
            name: cname.into_owned(),
            kind,
            conns,
        });
        Ok(())
    })
}

fn parse_netnames(r: &mut Reader<'_>, table: &mut NetTable) -> Result<(), FrontendError> {
    // One netname's bits, `None` for a constant: a bus bit's name needs
    // the bus width, which is known only at the closing bracket.
    let mut bits: Vec<Option<i64>> = Vec::new();
    members(r, |r, nname| {
        let mut seen_bits = false;
        members(r, |r, key| {
            if key != "bits" || !first(&mut seen_bits) || r.peek()? != b'[' {
                return r.skip();
            }
            bits.clear();
            r.array(|r| {
                bits.push(match r.peek()? {
                    b'-' | b'0'..=b'9' => Some(r.int()?),
                    _ => r.skip().map(|()| None)?,
                });
                Ok(())
            })?;
            for (k, bit) in bits.iter().enumerate() {
                let Some(bit) = *bit else { continue };
                let id = table.net_of(bit)? as usize;
                if table.names[id].is_none() {
                    table.names[id] = Some(if bits.len() == 1 {
                        String::from(&*nname)
                    } else {
                        format!("{nname}[{k}]")
                    });
                }
            }
            Ok(())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{generators, yosys_json::to_yosys_json, Simulator};
    use asicgap_tech::Technology;

    #[test]
    fn reparses_an_exported_generator_equivalently() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let golden = generators::alu(&lib, 4).expect("alu4");
        let text = to_yosys_json(&golden, &lib);
        let design = parse(&text).expect("parses");
        assert_eq!(design.top_module().name, "alu4");
        let back = lower(&design, &lib, &LowerOptions::default()).expect("lowers");
        assert_eq!(back.inputs().len(), golden.inputs().len());
        assert_eq!(back.outputs().len(), golden.outputs().len());
        assert_eq!(back.instance_count(), golden.instance_count());
        let mut sim_a = Simulator::new(&golden, &lib);
        let mut sim_b = Simulator::new(&back, &lib);
        for seed in 0..32u64 {
            let bits: Vec<bool> = (0..golden.inputs().len())
                .map(|i| (seed.wrapping_mul(0x9E3779B97F4A7C15) >> (i % 60)) & 1 == 1)
                .collect();
            assert_eq!(sim_a.run_comb(&bits), sim_b.run_comb(&bits), "seed {seed}");
        }
    }

    #[test]
    fn generic_cells_and_hierarchy_parse() {
        let text = r#"{
          "modules": {
            "leaf": {
              "ports": {
                "a": { "direction": "input", "bits": [2] },
                "y": { "direction": "output", "bits": [3] }
              },
              "cells": {
                "n": { "type": "$not",
                       "connections": { "A": [2], "Y": [3] } }
              },
              "netnames": { "a": { "bits": [2] }, "y": { "bits": [3] } }
            },
            "top": {
              "attributes": { "top": 1 },
              "ports": {
                "x": { "direction": "input", "bits": [2] },
                "z": { "direction": "output", "bits": [3] }
              },
              "cells": {
                "u": { "type": "leaf",
                       "connections": { "a": [2], "y": [3] } }
              },
              "netnames": {}
            }
          }
        }"#;
        let design = parse(text).expect("parses");
        assert_eq!(design.top_module().name, "top");
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = lower(&design, &lib, &LowerOptions::default()).expect("lowers via AIG");
        let mut sim = Simulator::new(&n, &lib);
        assert_eq!(sim.run_comb(&[false]), vec![true]);
    }

    #[test]
    fn constant_bits_parse_as_constants() {
        let text = r#"{
          "modules": {
            "m": {
              "ports": { "y": { "direction": "output", "bits": [2] } },
              "cells": {
                "g": { "type": "$or",
                       "connections": { "A": ["1"], "B": ["x"], "Y": [2] } }
              },
              "netnames": { "y": { "bits": [2] } }
            }
          }
        }"#;
        let design = parse(text).expect("parses");
        assert_eq!(design.top_module().insts[0].conns[0].1, vec![LocalBit::One]);
        assert_eq!(
            design.top_module().insts[0].conns[1].1,
            vec![LocalBit::Zero]
        );
    }

    #[test]
    fn malformed_shapes_are_syntax_errors() {
        for bad in [
            r#"{}"#,
            r#"{"modules": {}}"#,
            r#"{"modules": {"m": {"ports": {"p": {"bits": [2]}}}}}"#,
            r#"{"modules": {"m": {"cells": {"c": {"connections": {}}}}}}"#,
        ] {
            assert!(
                matches!(parse(bad), Err(FrontendError::Syntax { .. })),
                "accepted {bad}"
            );
        }
    }
}
