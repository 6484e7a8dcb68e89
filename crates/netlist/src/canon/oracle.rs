//! The `netlist/v1` codec as it was first written — `fmt` on the way
//! out, `str::lines`/`split`/`parse` on the way in, a `String` per
//! record — kept, test-only and verbatim, as the reference the one-pass
//! codec in the parent module is held to: byte-equal [`encode`],
//! observably equal [`decode`], and accept/reject agreement on damaged
//! texts up to the strictness differences the parent's docs list.
//!
//! Expiry: this module dies with the format it guards. When stage
//! checkpoints stop being `netlist/v1` text (ROADMAP item 6, binary
//! arena dumps), delete it; the arena-equality half of the suite is
//! kept and pointed at the new codec.
//!
//! The suite cannot run the real pipelining, buffering and drive
//! selection passes (those crates depend on this one), so it applies the
//! same arena mutations they do — registers and buffers spliced in with
//! `redirect_sink`, whose `swap_remove` permutes sink runs; cells swapped
//! for another drive of their function — under a seeded generator.

use std::fmt::Write as _;

use asicgap_cells::Library;

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
        order: Default::default(),
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

mod tests {
    use std::panic::catch_unwind;

    use asicgap_cells::{CellFunction, LibCell, LibraryBuilder, LogicFamily};
    use asicgap_tech::{Rng64, Technology};

    use super::super as fast;
    use super::super::tests::{assert_observably_equal, lib};
    use super::*;
    use crate::generators;

    /// Both decoders' output over the same text: equal through the
    /// public API, and equal in the columns that API does not show —
    /// symbol numbering, the wide fan-in arena, the exact-fit pool.
    fn assert_same_arena(a: &Netlist, b: &Netlist) {
        assert_observably_equal(a, b);
        assert_eq!(a.names.raw(), b.names.raw(), "name table");
        assert_eq!(a.net_name, b.net_name);
        assert_eq!(a.fanin_overflow, b.fanin_overflow);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.insts, b.insts);
        assert_eq!((a.pool_dead, a.peak_pool), (b.pool_dead, b.peak_pool));
    }

    /// Holds the one-pass codec to the reference on `n`: same bytes out,
    /// same netlist back in.
    fn assert_codecs_agree(n: &Netlist, lib: &Library, what: &str) {
        let text = encode(n, lib);
        assert_eq!(fast::encode(n, lib), text, "{what}: encode bytes");
        let want = decode(&text, lib).expect("reference decodes its own text");
        let got = fast::decode(&text, lib).expect("one-pass decode");
        assert_same_arena(&want, &got);
        assert_observably_equal(n, &got);
        assert_eq!(fast::encode(&got, lib), text, "{what}: re-encode");
    }

    fn designs(lib: &Library) -> Vec<(&'static str, Netlist)> {
        vec![
            ("alu", generators::alu(lib, 8)),
            ("mult", generators::array_multiplier(lib, 6)),
            ("ks", generators::kogge_stone_adder(lib, 16)),
            ("cla", generators::carry_lookahead_adder(lib, 16)),
            ("rca", generators::ripple_carry_adder(lib, 8)),
            ("barrel", generators::barrel_shifter(lib, 8)),
            ("mux", generators::mux_tree(lib, 16)),
            ("parity", generators::parity_tree(lib, 16)),
        ]
        .into_iter()
        .map(|(name, n)| (name, n.expect("generator")))
        .collect()
    }

    /// What pipelining, buffering and drive selection do to an arena,
    /// without their reasons: register cuts that move a net's whole sink
    /// run, buffers that take a random part of one (or none: a zero-sink
    /// net), and cells swapped for another drive of their function.
    fn churn(n: &mut Netlist, lib: &Library, seed: u64) {
        let mut rng = Rng64::new(seed);
        let dff = lib.smallest(CellFunction::Dff).expect("dff");
        let buf = lib.smallest(CellFunction::Buf).expect("buf");
        for round in 0..n.net_count() / 2 + 4 {
            let net = NetId::from_index(rng.index(n.net_count()));
            let sinks = n.sinks(net).to_vec();
            let out = n.add_net(format!("churn{round}"));
            let register = rng.flip();
            for s in sinks {
                if register || rng.flip() {
                    n.redirect_sink(s.inst, s.pin as usize, out);
                    // A buffer that gives a sink back: it returns to the
                    // end of the run it left.
                    if !register && rng.flip() {
                        n.redirect_sink(s.inst, s.pin as usize, net);
                    }
                }
            }
            let cell = if register { dff } else { buf };
            n.add_instance(format!("churn{round}_u"), lib, cell, &[net], out)
                .expect("splice");
        }
        let ids: Vec<InstId> = n.iter_instances().map(|(id, _)| id).collect();
        for id in ids {
            let drives = lib.drives_for(n.instance(id).function(), LogicFamily::StaticCmos);
            if !drives.is_empty() && rng.index(3) == 0 {
                n.set_instance_cell(lib, id, drives[rng.index(drives.len())]);
            }
        }
    }

    #[test]
    fn generators_agree_as_built_and_after_churn() {
        let lib = lib();
        let mut permuted = 0;
        for (name, design) in designs(&lib) {
            assert_codecs_agree(&design, &lib, name);
            for seed in [1, 2, 3, 4] {
                let mut n = design.clone();
                churn(&mut n, &lib, seed);
                assert_codecs_agree(&n, &lib, &format!("{name} churned with seed {seed}"));
                permuted += n
                    .iter_nets()
                    .filter(|(_, net)| !net.sinks().is_sorted_by_key(|s| (s.inst, s.pin)))
                    .count();
            }
        }
        assert!(permuted > 50, "churn permuted only {permuted} sink runs");
    }

    /// A netlist built to reach every branch the generators leave cold:
    /// names from each escape class, a cell wider than the inline fan-in,
    /// a zero-sink net, an undriven net, an empty name.
    fn awkward() -> (Library, Netlist) {
        let tech = Technology::cmos025_asic();
        let mut b = LibraryBuilder::new("awkward", &tech);
        let mut wide =
            LibCell::combinational(CellFunction::And(6), LogicFamily::StaticCmos, 1.0, &tech);
        wide.name = "and 6%wide".to_string();
        let wide = b.add(wide).expect("fresh name");
        let inv = LibCell::combinational(CellFunction::Inv, LogicFamily::StaticCmos, 2.0, &tech);
        let inv = b.add(inv).expect("fresh name");
        let lib = b.build();

        let mut n = Netlist::new("d e%sign\n\u{7f}");
        let names = [
            "plain",
            "sp ace",
            "per%cent",
            "tab\there",
            "nl\nhere",
            "cr\rhere",
            "nul\0here",
            "del\u{7f}here",
            "a:b,c-d",
            "~tilde{|}",
            "",
        ];
        let nets: Vec<NetId> = names.iter().map(|name| n.add_net(name)).collect();
        for (i, &net) in nets[..7].iter().enumerate() {
            n.add_input(format!("in {i}%"), net).expect("fresh");
        }
        // nets[7] stays undriven and is read anyway; nets[10] is driven
        // and never read.
        n.add_instance("wi de", &lib, wide, &nets[..6], nets[8])
            .expect("six inputs");
        n.add_instance(
            "",
            &lib,
            wide,
            &[nets[6], nets[7], nets[0], nets[0], nets[8], nets[1]],
            nets[9],
        )
        .expect("six inputs");
        n.add_instance("i%", &lib, inv, &[nets[9]], nets[10])
            .expect("one input");
        n.add_output("out\tput", nets[9]);
        n.add_output("", nets[9]);
        assert!(n.fanin_overflow_len() > 0);
        (lib, n)
    }

    #[test]
    fn escapes_wide_cells_and_odd_nets_agree() {
        let (lib, mut n) = awkward();
        assert_codecs_agree(&n, &lib, "awkward");
        // And with its sink runs permuted.
        let moved = n.sinks(NetId::from_index(0))[0];
        n.redirect_sink(moved.inst, moved.pin as usize, NetId::from_index(7));
        assert_codecs_agree(&n, &lib, "awkward, permuted");
        let text = fast::encode(&n, &lib);
        for escaped in [
            "d%20e%25sign%0a%7f",
            "and%206%25wide",
            "nul%00here",
            "~tilde{|} ",
        ] {
            assert!(text.contains(escaped), "{escaped:?} not in {text}");
        }
    }

    /// The one place the bytes deliberately differ: the reference pushed
    /// each byte of a name as a `char`, so a byte `>= 0x80` came out as
    /// the two-byte Latin-1 character with that code and a multibyte
    /// name did not survive its own round trip. The one-pass encoder
    /// copies the bytes.
    #[test]
    fn multibyte_names_round_trip_where_the_reference_mangled_them() {
        let (lib, mut n) = awkward();
        let net = n.add_net("utf8-é-日本");
        n.add_output("sortie-é", net);
        let mangled = encode(&n, &lib);
        assert!(mangled.contains("utf8-Ã©-æ"), "{mangled}");
        let back = decode(&mangled, &lib).expect("decodes");
        assert_eq!(back.net(net).name(), "utf8-Ã©-æ\u{97}¥æ\u{9c}¬");

        let text = fast::encode(&n, &lib);
        assert!(text.contains("\nutf8-é-日本 -\n"), "{text}");
        assert!(text.contains("\nsortie-é 11\n"), "{text}");
        let back = fast::decode(&text, &lib).expect("decodes");
        assert_observably_equal(&n, &back);
        // On a text both can read, the decoders still agree.
        assert_same_arena(&decode(&text, &lib).expect("reference decodes"), &back);
    }

    /// The two decoders on one damaged text. The one-pass decoder takes
    /// exactly the texts the reference takes that are also what the
    /// encoder writes for the netlist read (the documented differences
    /// are all spellings it never writes), and when both take a text
    /// they build the same netlist. Returns whether each accepted.
    fn decode_both(text: &str, lib: &Library) -> (bool, bool) {
        // Debug builds of the reference assert on ids past `u32`.
        let want = catch_unwind(|| decode(text, lib)).unwrap_or_else(|_| Err(bad("panicked")));
        let got = fast::decode(text, lib);
        match (&want, &got) {
            (Ok(want), Ok(got)) => {
                assert_same_arena(want, got);
                assert_eq!(fast::encode(got, lib), text, "took a non-canonical text");
            }
            (Err(_), Ok(_)) => panic!("one-pass decoder took what the reference refused: {text:?}"),
            (Ok(want), Err(e)) => assert_ne!(
                fast::encode(want, lib),
                text,
                "one-pass decoder refused ({e}) a canonical text the reference took"
            ),
            (Err(_), Err(_)) => {}
        }
        (want.is_ok(), got.is_ok())
    }

    /// A small artifact with registers, buffers, an escaped design name
    /// and an escaped port — every kind of record, about 1.5 kB.
    fn small_artifact(lib: &Library) -> String {
        let mut n = generators::ripple_carry_adder(lib, 3).expect("rca");
        churn(&mut n, lib, 5);
        n.name = "rca 3%".to_string();
        let carry = n.outputs()[0].1;
        n.add_output("also out", carry);
        encode(&n, lib)
    }

    #[test]
    fn every_truncation_is_refused_by_both() {
        let lib = lib();
        let good = small_artifact(&lib);
        assert_eq!(decode_both(&good, &lib), (true, true));
        for cut in 0..good.len() - 1 {
            assert_eq!(
                decode_both(&good[..cut], &lib),
                (false, false),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn seeded_byte_mutations_agree() {
        let lib = lib();
        let good = small_artifact(&lib);
        let mut rng = Rng64::new(0x5eed);
        // Half the replacements are drawn from the bytes the format
        // gives meaning to, half from all 256.
        let meaningful = b"0123456789 \n,:-%+\r\tabcx_";
        let (mut both, mut neither, mut licensed) = (0, 0, 0);
        for _ in 0..24_000 {
            let mut bytes = good.clone().into_bytes();
            let at = rng.index(bytes.len());
            let with = if rng.flip() {
                meaningful[rng.index(meaningful.len())]
            } else {
                rng.below(256) as u8
            };
            if bytes[at] == with {
                continue;
            }
            bytes[at] = with;
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            match decode_both(&text, &lib) {
                (true, true) => both += 1,
                (true, false) => licensed += 1,
                _ => neither += 1,
            }
        }
        // The run must have exercised all three outcomes.
        assert!(both > 500, "{both} mutations survived both decoders");
        assert!(neither > 10_000, "{neither} mutations refused by both");
        assert!(licensed > 20, "{licensed} documented differences hit");
    }

    /// One minimal text per documented strictness difference: the
    /// reference takes it, the one-pass decoder refuses it.
    #[test]
    fn documented_differences_by_name() {
        let lib = lib();
        let good = small_artifact(&lib);
        let first_count = good.find("nets ").expect("a count") + 5;
        let cases = [
            ("plus before a decimal", {
                let mut t = good.clone();
                t.insert(first_count, '+');
                t
            }),
            (
                "plus inside an escape",
                good.replacen("rca%203%25", "rca%+a3%25", 1),
            ),
            ("crlf line ends", good.replace('\n', "\r\n")),
            ("last newline missing", good[..good.len() - 1].to_string()),
            (
                "raw blank in a name",
                good.replacen("rca%203%25", "rca 3%25", 1),
            ),
            (
                "raw control byte in a name",
                good.replacen("rca%203%25", "rca\t3%25", 1),
            ),
            (
                "raw del in a name",
                good.replacen("rca%203%25", "rca\u{7f}3%25", 1),
            ),
            (
                "leading zero on a count",
                good.replacen("nets ", "nets 0", 1),
            ),
            ("leading zero on an index", good.replacen(":0", ":00", 1)),
            (
                "escape of a plain byte",
                good.replacen("rca%203%25", "%72ca%203%25", 1),
            ),
            (
                "upper-case escape",
                good.replacen("rca%203%25", "rca%0A3%25", 1),
            ),
        ];
        for (what, text) in cases {
            assert_ne!(text, good, "{what}: the case must differ from the artifact");
            assert_eq!(decode_both(&text, &lib), (true, false), "{what}");
        }
        // An id past `u32` was never accepted; what changed is that it is
        // now refused where it is read, not after saturating.
        let pin = good.find(":0").expect("a sink on pin 0");
        let mut huge = good.clone();
        huge.insert_str(pin, "9999999999");
        assert_eq!(decode_both(&huge, &lib), (false, false));
    }
}
