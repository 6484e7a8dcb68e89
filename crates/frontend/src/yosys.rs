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
//! Names borrow the input text; an escaped name, a bus bit and an
//! anonymous net are spelled into the module's name buffer instead (see
//! [`Module`]), so parsing allocates per module, not per instance.
//!
//! Top selection: the module whose `attributes.top` is truthy, else the
//! only module, else the first module never instantiated by another.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

use crate::error::{syntax, FrontendError};
use crate::json::{RawStr, Reader};
use crate::lower::{ConnRec, Design, InstRec, LocalBit, Module, Name, PortDir, PortRec, Span};

/// Parses Yosys JSON text into a [`Design`] that borrows `text`.
///
/// # Errors
///
/// [`FrontendError::Syntax`] for malformed JSON or a shape that is not
/// a Yosys netlist; [`FrontendError::Unsupported`] for `inout` ports.
pub fn parse(text: &str) -> Result<Design<'_>, FrontendError> {
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
        r.object_raw(|r, name| {
            let (module, is_top) = parse_module(r, name)?;
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

/// Structural fallback when no module carries the `top` attribute: the
/// first module, in file order, that no instance names as its kind.
fn pick_top(modules: &[Module<'_>]) -> Result<usize, FrontendError> {
    if modules.len() == 1 {
        return Ok(0);
    }
    let instantiated: HashSet<&str> = modules
        .iter()
        .flat_map(|m| m.insts().map(|i| i.kind()))
        .collect();
    modules
        .iter()
        .position(|m| !instantiated.contains(m.name()))
        .ok_or_else(|| syntax("cannot determine top module (all modules are instantiated)"))
}

/// `true` once per flag: the first occurrence of a key is the one that
/// counts.
fn first(seen: &mut bool) -> bool {
    !std::mem::replace(seen, true)
}

/// A string of the input as a name of `module`: borrowed, unless an
/// escape has to be decoded into the module's name buffer.
fn keep_raw<'t>(module: &mut Module<'t>, s: RawStr<'t>) -> Result<Name<'t>, FrontendError> {
    match s.as_plain() {
        Some(plain) => Ok(Name::Text(plain)),
        None => module.spell(|buf| s.decode_into(buf)),
    }
}

/// Bit number → local net, in first-appearance order.
#[derive(Default)]
struct NetTable<'t> {
    /// The name `netnames` gave each net, if it has named it yet.
    names: Vec<Option<Name<'t>>>,
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

impl<'t> NetTable<'t> {
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

    /// Names `module`'s nets: what `netnames` gave, `_<bit>` for the
    /// rest.
    fn name_nets(self, module: &mut Module<'t>) -> Result<(), FrontendError> {
        module.net_names.reserve_exact(self.names.len());
        for (name, bit) in self.names.into_iter().zip(self.bits) {
            let name = match name {
                Some(name) => name,
                None => module
                    .spell(|buf| write!(buf, "_{bit}").expect("writing to a String cannot fail"))?,
            };
            module.net_names.push(name);
        }
        Ok(())
    }
}

/// Reads a `bits` / connection value onto the end of `module.bits`.
/// Anything but an array reads as no bits, as the tree walk had it.
fn parse_bits<'t>(
    r: &mut Reader<'_>,
    module: &mut Module<'t>,
    table: &mut NetTable<'t>,
) -> Result<Span, FrontendError> {
    let start = module.bits.len();
    if r.peek()? != b'[' {
        r.skip()?;
    } else {
        r.array(|r| {
            module.bits.push(table.local(r)?);
            Ok(())
        })?;
    }
    Span::new(start, module.bits.len())
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

/// [`members`] for objects whose keys are names: each key undecoded.
fn entries<'a>(
    r: &mut Reader<'a>,
    f: impl FnMut(&mut Reader<'a>, RawStr<'a>) -> Result<(), FrontendError>,
) -> Result<(), FrontendError> {
    if r.peek()? == b'{' {
        r.object_raw(f)
    } else {
        r.skip()
    }
}

/// Reads one module and whether its `attributes.top` is truthy.
fn parse_module<'t>(
    r: &mut Reader<'t>,
    raw_name: RawStr<'t>,
) -> Result<(Module<'t>, bool), FrontendError> {
    let name = raw_name.decode();
    if r.peek()? != b'{' {
        return Err(syntax(format!("module {name:?} is not an object")));
    }
    let mut module = Module::default();
    module.name = keep_raw(&mut module, raw_name)?;
    let m = &mut module;
    let mut table = NetTable::default();
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
        "ports" if first(&mut seen_ports) => {
            entries(r, |r, pname| parse_port(r, pname, &name, m, &mut table))
        }
        "cells" if first(&mut seen_cells) => {
            if seen_ports {
                parse_cells(r, &name, m, &mut table)
            } else {
                cells_later = Some(r.offset());
                r.skip()
            }
        }
        "netnames" if first(&mut seen_netnames) => {
            if seen_ports && seen_cells && cells_later.is_none() {
                parse_netnames(r, m, &mut table)
            } else {
                netnames_later = Some(r.offset());
                r.skip()
            }
        }
        _ => r.skip(),
    })?;
    if let Some(at) = cells_later {
        r.revisit(at, |r| parse_cells(r, &name, m, &mut table))?;
    }
    if let Some(at) = netnames_later {
        r.revisit(at, |r| parse_netnames(r, m, &mut table))?;
    }
    table.name_nets(m)?;
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

fn parse_port<'t>(
    r: &mut Reader<'t>,
    pname: RawStr<'t>,
    module_name: &str,
    module: &mut Module<'t>,
    table: &mut NetTable<'t>,
) -> Result<(), FrontendError> {
    let mut dir = None;
    let mut bits = None;
    let mut seen_dir = false;
    members(r, |r, key| match &*key {
        "direction" if first(&mut seen_dir) && r.peek()? == b'"' => {
            dir = Some(r.string()?);
            Ok(())
        }
        "bits" if bits.is_none() => {
            bits = Some(parse_bits(r, module, table)?);
            Ok(())
        }
        _ => r.skip(),
    })?;
    let dir = match dir.as_deref() {
        Some("input") => PortDir::Input,
        Some("output") => PortDir::Output,
        Some("inout") => {
            return Err(FrontendError::Unsupported {
                what: format!("inout port {} in module {module_name}", pname.decode()),
            })
        }
        _ => {
            return Err(syntax(format!(
                "port {} of module {module_name} has no direction",
                pname.decode()
            )))
        }
    };
    let bits = bits.ok_or_else(|| {
        syntax(format!(
            "port {} of module {module_name} has no bits",
            pname.decode()
        ))
    })?;
    let name = keep_raw(module, pname)?;
    module.ports.push(PortRec { name, dir, bits });
    Ok(())
}

fn parse_cells<'t>(
    r: &mut Reader<'t>,
    module_name: &str,
    module: &mut Module<'t>,
    table: &mut NetTable<'t>,
) -> Result<(), FrontendError> {
    entries(r, |r, cname| {
        let mut kind = None;
        let first_conn = module.conns.len();
        let (mut seen_type, mut seen_conns) = (false, false);
        members(r, |r, key| match &*key {
            "type" if first(&mut seen_type) && r.peek()? == b'"' => {
                kind = Some(r.raw_str()?);
                Ok(())
            }
            "connections" if first(&mut seen_conns) => entries(r, |r, pin| {
                let bits = parse_bits(r, module, table)?;
                let pin = keep_raw(module, pin)?;
                module.conns.push(ConnRec { pin, bits });
                Ok(())
            }),
            _ => r.skip(),
        })?;
        let kind = kind.ok_or_else(|| {
            syntax(format!(
                "cell {} of module {module_name} has no type",
                cname.decode()
            ))
        })?;
        let conns = Span::new(first_conn, module.conns.len())?;
        let (name, kind) = (keep_raw(module, cname)?, keep_raw(module, kind)?);
        module.insts.push(InstRec { name, kind, conns });
        Ok(())
    })
}

fn parse_netnames<'t>(
    r: &mut Reader<'t>,
    module: &mut Module<'t>,
    table: &mut NetTable<'t>,
) -> Result<(), FrontendError> {
    // One netname's bits, `None` for a constant: a bus bit's name needs
    // the bus width, which is known only at the closing bracket.
    let mut bits: Vec<Option<i64>> = Vec::new();
    entries(r, |r, nname| {
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
                        keep_raw(module, nname)?
                    } else {
                        module.spell(|buf| {
                            nname.decode_into(buf);
                            write!(buf, "[{k}]").expect("writing to a String cannot fail");
                        })?
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
        assert_eq!(design.top_module().name(), "alu4");
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
        assert_eq!(design.top_module().name(), "top");
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = lower(&design, &lib, &LowerOptions::default()).expect("lowers via AIG");
        let mut sim = Simulator::new(&n, &lib);
        assert_eq!(sim.run_comb(&[false]), vec![true]);
    }

    #[test]
    fn without_a_top_attribute_the_first_uninstantiated_module_is_top() {
        // Leaves come first in the file; `chip` is the first module no
        // instance names, and `spare`, also uninstantiated, comes later.
        let inverter = r#"{ "ports": { "a": { "direction": "input", "bits": [2] },
                                      "y": { "direction": "output", "bits": [3] } },
                           "cells": { "n": { "type": "$not",
                                             "connections": { "A": [2], "Y": [3] } } } }"#;
        let text = format!(
            r#"{{ "modules": {{
              "inv1": {inverter},
              "pair": {{ "ports": {{ "a": {{ "direction": "input", "bits": [2] }},
                                     "y": {{ "direction": "output", "bits": [3] }} }},
                         "cells": {{ "u0": {{ "type": "inv1", "connections": {{ "a": [2], "y": [4] }} }},
                                     "u1": {{ "type": "inv1", "connections": {{ "a": [4], "y": [3] }} }} }} }},
              "chip": {{ "ports": {{ "x": {{ "direction": "input", "bits": [2] }},
                                     "z": {{ "direction": "output", "bits": [3] }} }},
                         "cells": {{ "p": {{ "type": "pair", "connections": {{ "a": [2], "y": [3] }} }} }} }},
              "spare": {inverter}
            }} }}"#
        );
        let design = parse(&text).expect("parses");
        assert_eq!(design.top, 2);
        assert_eq!(design.top_module().name(), "chip");

        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = lower(&design, &lib, &LowerOptions::default()).expect("lowers");
        assert_eq!(n.name, "chip");
        let mut sim = Simulator::new(&n, &lib);
        for x in [false, true] {
            assert_eq!(sim.run_comb(&[x]), vec![x], "two inverters in series");
        }
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
        let bits: Vec<_> = design
            .top_module()
            .inst(0)
            .conns()
            .map(|(_, b)| b)
            .collect();
        assert_eq!(bits[..2], [[LocalBit::One], [LocalBit::Zero]]);
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
