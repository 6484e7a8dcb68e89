//! Exact-fidelity canonical netlist serialization (`netlist/v1`).
//!
//! The stage-granular flow cache checkpoints netlists between flow
//! stages, and the PR 2 determinism contract means a resumed stage must
//! see a netlist **bit-for-bit equivalent** in every observable respect
//! to the one an uninterrupted flow would have carried across the same
//! boundary: instance order, net order, fan-in pin order, *per-net sink
//! order* (downstream work counts depend on it), names, and the
//! input/output declaration lists.
//!
//! Sink order is the reason this module lives inside `asicgap-netlist`
//! rather than on top of the public API: pipelining and buffering
//! permute sink runs via `swap_remove`, and no sequence of public
//! construction calls reproduces an arbitrary permutation without
//! leaving extra nets behind. The decoder instead rebuilds the arena
//! directly — fresh interner, exact-fit sink pool — which reproduces
//! every observable property while letting the transient bookkeeping
//! (pool capacity, dead-entry counts) start clean.
//!
//! Cells are serialized by **library name** and re-resolved against the
//! library the decoder is given, so an artifact is only meaningful
//! against the deterministically rebuilt library of its own scenario.

use std::fmt::Write as _;

use asicgap_cells::Library;
use asicgap_tech::fnv1a;

use crate::error::NetlistError;
use crate::ids::{InstId, NetId};
use crate::intern::NameTable;
use crate::netlist::{
    pack_driver, InstRecord, NetDriver, Netlist, Sink, SinkSlot, DRIVER_NONE, FLAG_OUTPUT,
    INLINE_FANIN,
};

/// Percent-escapes a name so it is a single whitespace-free token.
fn esc(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        if b <= 0x20 || b == b'%' || b == 0x7f {
            let _ = write!(out, "%{b:02x}");
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Inverse of [`esc`].
fn unesc(token: &str) -> Option<String> {
    let mut out = Vec::with_capacity(token.len());
    let bytes = token.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Serializes `netlist` to its canonical `netlist/v1` text. The text
/// captures every observable property (see the module docs), so
/// [`decode`] followed by `encode` reproduces it byte for byte. `lib`
/// spells the cell names (a netlist stores only `CellId`s).
pub fn encode(netlist: &Netlist, lib: &Library) -> String {
    let mut w = String::new();
    let _ = writeln!(w, "netlist/v1");
    let _ = writeln!(w, "design {}", esc(&netlist.name));
    let _ = writeln!(w, "nets {}", netlist.net_count());
    for (_, net) in netlist.iter_nets() {
        let mut sinks = String::new();
        for s in net.sinks() {
            if !sinks.is_empty() {
                sinks.push(',');
            }
            let _ = write!(sinks, "{}:{}", s.inst.index(), s.pin);
        }
        if sinks.is_empty() {
            sinks.push('-');
        }
        let _ = writeln!(w, "{} {}", esc(net.name()), sinks);
    }
    let _ = writeln!(w, "insts {}", netlist.instance_count());
    for (_, inst) in netlist.iter_instances() {
        let mut fanin = String::new();
        for &n in inst.fanin() {
            if !fanin.is_empty() {
                fanin.push(',');
            }
            let _ = write!(fanin, "{}", n.index());
        }
        if fanin.is_empty() {
            fanin.push('-');
        }
        // Cell by library name: artifacts are only decoded against the
        // deterministically rebuilt library of their own scenario.
        let _ = writeln!(
            w,
            "{} {} {} {}",
            esc(inst.name()),
            esc(&lib.cell(inst.cell()).name),
            inst.out().index(),
            fanin
        );
    }
    let _ = writeln!(w, "inputs {}", netlist.inputs().len());
    for (name, net) in netlist.inputs() {
        let _ = writeln!(w, "{} {}", esc(name), net.index());
    }
    let _ = writeln!(w, "outputs {}", netlist.outputs().len());
    for (name, net) in netlist.outputs() {
        let _ = writeln!(w, "{} {}", esc(name), net.index());
    }
    let _ = writeln!(w, "end");
    w
}

/// FNV-1a 64 of [`encode`] — a structural digest two netlists share iff
/// their canonical texts are byte-identical.
pub fn digest(netlist: &Netlist, lib: &Library) -> u64 {
    fnv1a(encode(netlist, lib).as_bytes())
}

fn bad(what: impl Into<String>) -> NetlistError {
    NetlistError::Invalid {
        summary: what.into(),
    }
}

/// Parses a `netlist/v1` text back into a [`Netlist`], resolving cells
/// by name in `lib` and rebuilding the arena exact-fit. Performs a full
/// structural cross-check (sink lists vs fan-in lists, single drivers,
/// id ranges) before returning.
///
/// # Errors
///
/// [`NetlistError::Invalid`] on any structural deviation;
/// [`NetlistError::MissingCell`] when `lib` lacks a referenced cell.
pub fn decode(text: &str, lib: &Library) -> Result<Netlist, NetlistError> {
    let mut lines = text.lines();
    if lines.next() != Some("netlist/v1") {
        return Err(bad("missing netlist/v1 header"));
    }
    let design = lines
        .next()
        .and_then(|l| l.strip_prefix("design "))
        .and_then(unesc)
        .ok_or_else(|| bad("missing design line"))?;
    let count = |line: Option<&str>, name: &str| -> Result<usize, NetlistError> {
        line.and_then(|l| l.strip_prefix(name))
            .and_then(|r| r.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("missing {name} count")))
    };

    let n_nets = count(lines.next(), "nets")?;
    let mut names = NameTable::default();
    let mut net_name = Vec::with_capacity(n_nets);
    let mut sink_lists: Vec<Vec<Sink>> = Vec::with_capacity(n_nets);
    for i in 0..n_nets {
        let line = lines.next().ok_or_else(|| bad("truncated nets"))?;
        let (name, sinks) = line
            .split_once(' ')
            .ok_or_else(|| bad(format!("malformed net line {i}")))?;
        let name = unesc(name).ok_or_else(|| bad(format!("bad net name {i}")))?;
        net_name.push(names.intern(&name));
        let mut list = Vec::new();
        if sinks != "-" {
            for pair in sinks.split(',') {
                let (inst, pin) = pair
                    .split_once(':')
                    .ok_or_else(|| bad(format!("bad sink {pair:?} on net {i}")))?;
                let inst: usize = inst.parse().map_err(|_| bad("bad sink inst"))?;
                let pin: u32 = pin.parse().map_err(|_| bad("bad sink pin"))?;
                list.push(Sink {
                    inst: InstId::from_index(inst),
                    pin,
                });
            }
        }
        sink_lists.push(list);
    }

    let n_insts = count(lines.next(), "insts")?;
    let mut net_driver = vec![DRIVER_NONE; n_nets];
    let mut net_flags = vec![0u8; n_nets];
    let mut insts: Vec<InstRecord> = Vec::with_capacity(n_insts);
    let mut inst_seq = Vec::with_capacity(n_insts);
    let mut fanin_overflow: Vec<NetId> = Vec::new();
    for i in 0..n_insts {
        let line = lines.next().ok_or_else(|| bad("truncated insts"))?;
        let mut f = line.split(' ');
        let name = f
            .next()
            .and_then(unesc)
            .ok_or_else(|| bad(format!("bad inst name {i}")))?;
        let cell_name = f
            .next()
            .and_then(unesc)
            .ok_or_else(|| bad(format!("bad cell name {i}")))?;
        let out: usize = f
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("bad inst out {i}")))?;
        let fanin_tok = f.next().ok_or_else(|| bad(format!("bad inst fanin {i}")))?;
        if f.next().is_some() {
            return Err(bad(format!("trailing data on inst {i}")));
        }
        if out >= n_nets {
            return Err(bad(format!("inst {i} out net {out} out of range")));
        }
        let (cell, libcell) = lib
            .cell_by_name(&cell_name)
            .ok_or(NetlistError::MissingCell { what: cell_name })?;
        let mut fanin: Vec<NetId> = Vec::new();
        if fanin_tok != "-" {
            for tok in fanin_tok.split(',') {
                let n: usize = tok.parse().map_err(|_| bad("bad fanin net"))?;
                if n >= n_nets {
                    return Err(bad(format!("inst {i} fanin net {n} out of range")));
                }
                fanin.push(NetId::from_index(n));
            }
        }
        if fanin.len() != libcell.function.num_inputs() {
            return Err(bad(format!(
                "inst {i} arity {} does not match cell function",
                fanin.len()
            )));
        }
        if net_driver[out] != DRIVER_NONE {
            return Err(bad(format!("net {out} has two drivers")));
        }
        net_driver[out] = pack_driver(NetDriver::Instance(InstId::from_index(i)));
        let mut inline = [NetId(u32::MAX); INLINE_FANIN];
        let nfanin = u8::try_from(fanin.len()).map_err(|_| bad("fanin too wide"))?;
        if fanin.len() <= INLINE_FANIN {
            inline[..fanin.len()].copy_from_slice(&fanin);
        } else {
            let start = u32::try_from(fanin_overflow.len()).map_err(|_| bad("overflow"))?;
            fanin_overflow.extend_from_slice(&fanin);
            inline[0] = NetId::from_index(start as usize);
        }
        insts.push(InstRecord {
            name: names.intern(&name),
            cell,
            out: NetId::from_index(out),
            fanin: inline,
            function: libcell.function,
            nfanin,
        });
        inst_seq.push(u8::from(libcell.function.is_sequential()));
    }

    let n_inputs = count(lines.next(), "inputs")?;
    let mut inputs = Vec::with_capacity(n_inputs);
    for i in 0..n_inputs {
        let line = lines.next().ok_or_else(|| bad("truncated inputs"))?;
        let (name, net) = line
            .split_once(' ')
            .ok_or_else(|| bad(format!("malformed input line {i}")))?;
        let name = unesc(name).ok_or_else(|| bad("bad input name"))?;
        let net: usize = net.parse().map_err(|_| bad("bad input net"))?;
        if net >= n_nets {
            return Err(bad(format!("input {i} net {net} out of range")));
        }
        if net_driver[net] != DRIVER_NONE {
            return Err(bad(format!("input net {net} has two drivers")));
        }
        net_driver[net] = pack_driver(NetDriver::PrimaryInput(i));
        inputs.push((name, NetId::from_index(net)));
    }

    let n_outputs = count(lines.next(), "outputs")?;
    let mut outputs = Vec::with_capacity(n_outputs);
    for i in 0..n_outputs {
        let line = lines.next().ok_or_else(|| bad("truncated outputs"))?;
        let (name, net) = line
            .split_once(' ')
            .ok_or_else(|| bad(format!("malformed output line {i}")))?;
        let name = unesc(name).ok_or_else(|| bad("bad output name"))?;
        let net: usize = net.parse().map_err(|_| bad("bad output net"))?;
        if net >= n_nets {
            return Err(bad(format!("output {i} net {net} out of range")));
        }
        net_flags[net] |= FLAG_OUTPUT;
        outputs.push((name, NetId::from_index(net)));
    }

    if lines.next() != Some("end") {
        return Err(bad("missing end"));
    }
    if lines.next().is_some() {
        return Err(bad("trailing data"));
    }

    // Exact-fit sink pool in net order, preserving each net's serialized
    // sink order (the observable property everything downstream keys on).
    let live: usize = sink_lists.iter().map(Vec::len).sum();
    let mut pool = Vec::with_capacity(live);
    let mut slots = Vec::with_capacity(n_nets);
    for list in &sink_lists {
        let start = u32::try_from(pool.len()).map_err(|_| bad("sink pool too large"))?;
        let len = u32::try_from(list.len()).map_err(|_| bad("sink run too large"))?;
        pool.extend_from_slice(list);
        slots.push(SinkSlot {
            start,
            len,
            cap: len,
        });
    }

    let netlist = Netlist {
        name: design,
        names,
        net_name,
        net_driver,
        net_flags,
        slots,
        pool,
        pool_dead: 0,
        peak_pool: live,
        insts,
        inst_seq,
        fanin_overflow,
        inputs,
        outputs,
    };

    // Structural cross-check: every serialized sink must name a real
    // fan-in connection, and per-net counts must match a from-scratch
    // rebuild — together that is exact multiset equality, so a torn or
    // hand-edited artifact cannot decode into an inconsistent arena.
    let mut expected = vec![0usize; n_nets];
    for (id, inst) in netlist.iter_instances() {
        for (pin, &net) in inst.fanin().iter().enumerate() {
            let _ = (id, pin);
            expected[net.index()] += 1;
        }
    }
    for (id, net) in netlist.iter_nets() {
        if net.sinks().len() != expected[id.index()] {
            return Err(bad(format!(
                "net {} sink count {} != fan-in rebuild {}",
                id.index(),
                net.sinks().len(),
                expected[id.index()]
            )));
        }
        for s in net.sinks() {
            if s.inst.index() >= netlist.instance_count()
                || netlist.instance(s.inst).fanin().get(s.pin as usize) != Some(&id)
            {
                return Err(bad(format!(
                    "sink {}:{} of net {} disagrees with fan-in list",
                    s.inst.index(),
                    s.pin,
                    id.index()
                )));
            }
        }
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use asicgap_cells::{CellFunction, LibrarySpec};
    use asicgap_tech::Technology;

    fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    /// Checks every observable property of `b` against `a`, including
    /// per-net sink order.
    fn assert_observably_equal(a: &Netlist, b: &Netlist) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.net_count(), b.net_count());
        assert_eq!(a.instance_count(), b.instance_count());
        for (id, na) in a.iter_nets() {
            let nb = b.net(id);
            assert_eq!(na.name(), nb.name(), "{id}");
            assert_eq!(na.driver(), nb.driver(), "{id}");
            assert_eq!(na.is_output(), nb.is_output(), "{id}");
            assert_eq!(na.sinks(), nb.sinks(), "{id} sink order");
        }
        for (id, ia) in a.iter_instances() {
            let ib = b.instance(id);
            assert_eq!(ia.name(), ib.name(), "{id}");
            assert_eq!(ia.cell(), ib.cell(), "{id}");
            assert_eq!(ia.function(), ib.function(), "{id}");
            assert_eq!(ia.fanin(), ib.fanin(), "{id}");
            assert_eq!(ia.out(), ib.out(), "{id}");
            assert_eq!(ia.is_sequential(), ib.is_sequential(), "{id}");
        }
        assert_eq!(a.inputs(), b.inputs());
        assert_eq!(a.outputs(), b.outputs());
    }

    #[test]
    fn generator_netlists_round_trip() {
        let lib = lib();
        for n in [
            generators::ripple_carry_adder(&lib, 8).expect("rca"),
            generators::array_multiplier(&lib, 6).expect("mult"),
            generators::alu(&lib, 8).expect("alu"),
        ] {
            let text = encode(&n, &lib);
            let back = decode(&text, &lib).expect("round trips");
            assert_observably_equal(&n, &back);
            assert_eq!(encode(&back, &lib), text, "re-encode is byte-stable");
            assert_eq!(digest(&n, &lib), digest(&back, &lib));
        }
    }

    #[test]
    fn permuted_sink_order_survives_round_trip() {
        // swap_remove churn produces sink orders no sequence of public
        // construction calls reproduces — exactly what the decoder's
        // direct arena rebuild must preserve.
        let lib = lib();
        let mut n = Netlist::new("churn");
        let a = n.add_net("a");
        let b = n.add_net("b");
        n.add_input("a", a).expect("fresh");
        n.add_input("b", b).expect("fresh");
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        let mut gates = Vec::new();
        for i in 0..12 {
            let out = n.add_net(format!("o{i}"));
            n.add_output(format!("o{i}"), out);
            gates.push(
                n.add_instance(format!("g{i}"), &lib, inv, &[a], out)
                    .expect("inv ok"),
            );
        }
        for (k, &g) in gates.iter().enumerate() {
            if k % 3 != 0 {
                n.redirect_sink(g, 0, b);
            }
        }
        for (k, &g) in gates.iter().enumerate() {
            if k % 3 == 2 {
                n.redirect_sink(g, 0, a);
            }
        }
        // The churn must have produced a non-insertion order somewhere.
        let order: Vec<u32> = n.net(a).sinks().iter().map(|s| s.inst.0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "churn failed to permute sink order");

        let text = encode(&n, &lib);
        let back = decode(&text, &lib).expect("round trips");
        assert_observably_equal(&n, &back);
        assert_eq!(encode(&back, &lib), text);
    }

    #[test]
    fn names_with_unsafe_bytes_round_trip() {
        let lib = lib();
        let mut n = Netlist::new("we ird%name\n");
        let a = n.add_net("in put %1");
        let y = n.add_net("out:put,2");
        n.add_input("in put %1", a).expect("fresh");
        n.add_output("out:put,2", y);
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        n.add_instance("g 0%", &lib, inv, &[a], y).expect("inv ok");
        let text = encode(&n, &lib);
        let back = decode(&text, &lib).expect("round trips");
        assert_observably_equal(&n, &back);
    }

    #[test]
    fn torn_and_tampered_texts_rejected() {
        let lib = lib();
        let n = generators::ripple_carry_adder(&lib, 4).expect("rca");
        let good = encode(&n, &lib);
        assert!(decode(&good, &lib).is_ok());
        // Tamper a cell name that certainly exists: the first inst line's
        // second token.
        let inst_line = good
            .lines()
            .skip_while(|l| !l.starts_with("insts "))
            .nth(1)
            .expect("has instances")
            .to_string();
        let mut toks: Vec<&str> = inst_line.split(' ').collect();
        toks[1] = "no_such_cell";
        let bad_cell = toks.join(" ");
        for broken in [
            String::new(),
            "netlist/v2\nend\n".to_string(),
            good[..good.len() / 2].to_string(),
            format!("{good}junk\n"),
            good.replacen(&inst_line, &bad_cell, 1),
        ] {
            assert!(decode(&broken, &lib).is_err(), "accepted {broken:?}");
        }
        // A sink list inconsistent with the fan-in lists must not decode.
        let first_sinkful = good
            .lines()
            .find(|l| l.contains(':') && !l.starts_with("netlist"))
            .expect("some net has sinks")
            .to_string();
        let (name, sinks) = first_sinkful.split_once(' ').expect("net line");
        let dropped = format!("{name} -");
        let tampered = good.replacen(&first_sinkful, &dropped, 1);
        let _ = sinks;
        assert!(decode(&tampered, &lib).is_err(), "dropped sinks accepted");
    }
}
