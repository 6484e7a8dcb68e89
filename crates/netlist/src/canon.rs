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
//!
//! A checkpoint should cost about what a copy costs, so both directions
//! are one pass over bytes with no allocation per record: [`encode`]
//! writes decimals and escapes by hand into one pre-sized buffer,
//! [`decode`] walks a byte cursor, interns names straight from the text
//! and fills the arena columns in place. No reservation is sized by a
//! count the text merely claims: a count is checked against the bytes
//! that are left (a record is at least two) before anything is reserved.
//!
//! `canon/oracle.rs` (test-only) keeps the `fmt`/`str::parse`
//! implementation this one replaced as the reference: [`encode`] is
//! byte-equal to it on every name that is ASCII, and [`decode`] accepts
//! a subset of what it accepted, with the same observable result. The
//! one byte difference is a repair: the reference wrote a name's bytes
//! `>= 0x80` one `char` each — as mojibake its own decoder could not
//! undo — where this encoder copies them.
//!
//! A text is accepted only if it re-encodes to the same bytes: every
//! value has one spelling. The texts the reference took and this decoder
//! refuses — none of which [`encode`] ever writes — are:
//!
//! - a `+` before a decimal or inside a `%` escape (`str::parse` and
//!   `from_str_radix` take one);
//! - a leading zero on a decimal (`r3 042` for `r3 42`, `nets 007`);
//! - an escape of a byte that travels plain (`%61` for `a`), or one in
//!   upper-case hex (`%2A`, `%0A`): the encoder escapes only the bytes
//!   `<= 0x20`, `%` and `0x7f`, in lower case;
//! - `\r\n` line ends (`str::lines` drops the `\r`);
//! - a last line without its `\n`;
//! - a raw space, control byte or DEL inside a name (the encoder writes
//!   every byte `<= 0x20` and `0x7f` as `%xx`);
//! - an id past `u32` where the reference saturated it (and only then
//!   failed its cross-check, or tripped a debug assertion).

use asicgap_cells::{CellId, LibCell, Library};
use asicgap_tech::fnv1a;

use crate::error::NetlistError;
use crate::ids::{InstId, NetId};
use crate::intern::NameTable;
use crate::netlist::{
    pack_driver, InstRecord, NetDriver, Netlist, Sink, SinkSlot, DRIVER_NONE, DRIVER_PI_BIT,
    FLAG_OUTPUT, INLINE_FANIN,
};

#[cfg(test)]
mod oracle;

/// `true` for the bytes a name may carry as they are; the rest travel
/// as `%xx`.
const fn is_plain(b: u8) -> bool {
    b > 0x20 && b != b'%' && b != 0x7f
}

/// [`is_plain`] as a table, for the two loops that ask it of every byte
/// of every name.
const PLAIN: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = is_plain(b as u8);
        b += 1;
    }
    table
};

/// Appends `name`, percent-escaped so it is a single whitespace-free
/// token. All-plain names (every generated one) are one `memcpy`.
fn put_name(w: &mut Vec<u8>, name: &[u8]) {
    if name.iter().all(|&b| PLAIN[usize::from(b)]) {
        w.extend_from_slice(name);
        return;
    }
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in name {
        if PLAIN[usize::from(b)] {
            w.push(b);
        } else {
            w.extend_from_slice(&[b'%', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]);
        }
    }
}

/// Appends `v` in decimal.
fn put_dec(w: &mut Vec<u8>, mut v: usize) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    w.extend_from_slice(&buf[at..]);
}

/// Appends `ids` comma-separated, or `-` for none.
fn put_list(w: &mut Vec<u8>, ids: impl Iterator<Item = (usize, Option<u32>)>) {
    let start = w.len();
    for (id, pin) in ids {
        put_dec(w, id);
        if let Some(pin) = pin {
            w.push(b':');
            put_dec(w, pin as usize);
        }
        w.push(b',');
    }
    if w.len() == start {
        w.push(b'-');
    } else {
        w.pop();
    }
}

fn put_ports(w: &mut Vec<u8>, label: &[u8], ports: &[(String, NetId)]) {
    w.extend_from_slice(label);
    put_dec(w, ports.len());
    w.push(b'\n');
    for (name, net) in ports {
        put_name(w, name.as_bytes());
        w.push(b' ');
        put_dec(w, net.index());
        w.push(b'\n');
    }
}

/// Serializes `netlist` to its canonical `netlist/v1` text. The text
/// captures every observable property (see the module docs), so
/// [`decode`] followed by `encode` reproduces it byte for byte. `lib`
/// spells the cell names (a netlist stores only `CellId`s).
pub fn encode(netlist: &Netlist, lib: &Library) -> String {
    let mut w = Vec::new();
    encode_into(netlist, lib, &mut w);
    String::from_utf8(w).expect("names are UTF-8 and escaping only rewrites ASCII bytes")
}

/// [`encode`], appended to `w` — for a text that embeds a netlist and
/// would otherwise copy it in. What is appended is UTF-8.
pub fn encode_into(netlist: &Netlist, lib: &Library, w: &mut Vec<u8>) {
    // Names once, a sink as `inst:pin,`, an instance as ` cell out a,b`:
    // generous for every generated design, and only a hint.
    w.reserve(
        netlist.names.byte_len()
            + 14 * netlist.pool.len()
            + 40 * netlist.insts.len()
            + 4 * netlist.net_name.len()
            + 32 * (netlist.inputs.len() + netlist.outputs.len())
            + netlist.name.len()
            + 64,
    );
    w.extend_from_slice(b"netlist/v1\ndesign ");
    put_name(w, netlist.name.as_bytes());
    w.extend_from_slice(b"\nnets ");
    put_dec(w, netlist.net_name.len());
    w.push(b'\n');
    for (&name, slot) in netlist.net_name.iter().zip(&netlist.slots) {
        put_name(w, netlist.names.bytes_of(name));
        w.push(b' ');
        let sinks = &netlist.pool[slot.start as usize..(slot.start + slot.len) as usize];
        put_list(w, sinks.iter().map(|s| (s.inst.index(), Some(s.pin))));
        w.push(b'\n');
    }
    w.extend_from_slice(b"insts ");
    put_dec(w, netlist.insts.len());
    w.push(b'\n');
    for (i, inst) in netlist.insts.iter().enumerate() {
        put_name(w, netlist.names.bytes_of(inst.name));
        w.push(b' ');
        // Cell by library name: artifacts are only decoded against the
        // deterministically rebuilt library of their own scenario.
        put_name(w, lib.cell(inst.cell).name.as_bytes());
        w.push(b' ');
        put_dec(w, inst.out.index());
        w.push(b' ');
        let fanin = netlist.fanin(InstId(i as u32));
        put_list(w, fanin.iter().map(|n| (n.index(), None)));
        w.push(b'\n');
    }
    put_ports(w, b"inputs ", &netlist.inputs);
    put_ports(w, b"outputs ", &netlist.outputs);
    w.extend_from_slice(b"end\n");
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

/// A read position in a `netlist/v1` text. Every reader either consumes
/// exactly what it names or the decode fails.
struct Cursor<'t> {
    text: &'t str,
    at: usize,
    /// Where an escaped name is decoded; plain ones are borrowed.
    scratch: Vec<u8>,
}

/// A name as the text spells it, and whether it carries a `%` escape.
type Token<'t> = (&'t str, bool);

impl<'t> Cursor<'t> {
    fn left(&self) -> usize {
        self.text.len() - self.at
    }

    /// Consumes `lit` if the text continues with it.
    fn eat(&mut self, lit: &[u8]) -> bool {
        let hit = self.text.as_bytes()[self.at..].starts_with(lit);
        if hit {
            self.at += lit.len();
        }
        hit
    }

    /// After a list item: `,` and there are more, `\n` and the list is
    /// done, anything else and it is damaged.
    fn more(&mut self) -> Option<bool> {
        let b = *self.text.as_bytes().get(self.at)?;
        self.at += 1;
        match b {
            b',' => Some(true),
            b'\n' => Some(false),
            _ => None,
        }
    }

    /// A decimal: digits only, at least one, and no leading zero.
    fn digits(&mut self) -> Option<usize> {
        let bytes = self.text.as_bytes();
        let start = self.at;
        let mut v = 0usize;
        while let Some(d) = bytes.get(self.at).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            if self.at > start && v == 0 {
                return None;
            }
            v = v.checked_mul(10)?.checked_add(usize::from(d))?;
            self.at += 1;
        }
        (self.at > start).then_some(v)
    }

    /// [`Cursor::digits`] as a `u32`.
    fn id(&mut self) -> Option<u32> {
        self.digits().and_then(|v| u32::try_from(v).ok())
    }

    /// A net id below `n_nets`, followed by `end`.
    fn net(&mut self, n_nets: usize, end: u8) -> Option<NetId> {
        let id = self.id().filter(|&id| (id as usize) < n_nets)?;
        self.eat(&[end]).then_some(NetId(id))
    }

    /// A `label count` line. The count is held to the bytes that are
    /// left — every record is at least two — so nothing downstream can
    /// reserve more than the text could fill.
    fn count(&mut self, label: &'static str) -> Result<usize, NetlistError> {
        let n = (self.eat(label.as_bytes()) && self.eat(b" "))
            .then(|| self.digits().filter(|_| self.eat(b"\n")))
            .flatten()
            .ok_or_else(|| bad(format!("missing {label} count")))?;
        if n > self.left() / 2 {
            return Err(bad(format!(
                "{label} count {n} is more than {} bytes can hold",
                self.left()
            )));
        }
        Ok(n)
    }

    /// A name token and the `end` byte after it.
    fn token(&mut self, end: u8) -> Option<Token<'t>> {
        let bytes = self.text.as_bytes();
        let start = self.at;
        let mut escaped = false;
        loop {
            let b = *bytes.get(self.at)?;
            if !PLAIN[usize::from(b)] {
                if b == end {
                    break;
                }
                if b != b'%' {
                    return None;
                }
                escaped = true;
            }
            self.at += 1;
        }
        // Cut at ASCII bytes, so on character boundaries.
        let token = self.text.get(start..self.at)?;
        self.at += 1;
        Some((token, escaped))
    }

    /// The name spelled by the token that runs up to `end`.
    fn name(&mut self, end: u8) -> Option<&str> {
        let token = self.token(end)?;
        spelled(token, &mut self.scratch)
    }
}

/// The name a token spells: the token itself unless it carries escapes,
/// which are decoded into `scratch`. An escape is taken only as
/// [`put_name`] writes it: lower-case hex, of a byte that is not plain.
fn spelled<'a>((token, escaped): Token<'a>, scratch: &'a mut Vec<u8>) -> Option<&'a str> {
    if !escaped {
        return Some(token);
    }
    scratch.clear();
    let mut bytes = token.bytes();
    while let Some(b) = bytes.next() {
        if b == b'%' {
            let mut hex = || match bytes.next()? {
                d @ b'0'..=b'9' => Some(d - b'0'),
                d @ b'a'..=b'f' => Some(d - b'a' + 10),
                _ => None,
            };
            let escaped = hex()? * 16 + hex()?;
            if PLAIN[usize::from(escaped)] {
                return None;
            }
            scratch.push(escaped);
        } else {
            scratch.push(b);
        }
    }
    std::str::from_utf8(scratch).ok()
}

/// Cell names bound so far, by the token they were spelled with: a
/// design uses a few dozen cells a hundred thousand times over, so the
/// library's by-name map is asked about once per cell, not per instance.
struct CellMemo<'t, 'l> {
    lib: &'l Library,
    slots: [Option<(&'t str, CellId, &'l LibCell)>; 64],
}

impl<'t, 'l> CellMemo<'t, 'l> {
    fn bind(
        &mut self,
        token: Token<'t>,
        scratch: &mut Vec<u8>,
    ) -> Result<(CellId, &'l LibCell), NetlistError> {
        let slot = fnv1a(token.0.as_bytes()) as usize % self.slots.len();
        if let Some((seen, id, cell)) = self.slots[slot] {
            if seen == token.0 {
                return Ok((id, cell));
            }
        }
        let name = spelled(token, scratch).ok_or_else(|| bad("bad cell name"))?;
        let (id, cell) = self
            .lib
            .cell_by_name(name)
            .ok_or_else(|| NetlistError::MissingCell {
                what: name.to_string(),
            })?;
        self.slots[slot] = Some((token.0, id, cell));
        Ok((id, cell))
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
    let mut cur = Cursor {
        text,
        at: 0,
        scratch: Vec::new(),
    };
    if !cur.eat(b"netlist/v1\n") {
        return Err(bad("missing netlist/v1 header"));
    }
    let design = (cur.eat(b"design "))
        .then(|| cur.name(b'\n').map(str::to_string))
        .flatten()
        .ok_or_else(|| bad("missing design line"))?;

    // Nets: names interned in net order, sinks appended straight into
    // the pool in their serialized order (the observable property
    // everything downstream keys on).
    let n_nets = cur.count("nets")?;
    if n_nets >= DRIVER_PI_BIT as usize {
        return Err(bad("net count exceeds the id space"));
    }
    let mut names = NameTable::default();
    names.reserve(n_nets, cur.left() / 8);
    let mut net_name = Vec::with_capacity(n_nets);
    let mut slots = Vec::with_capacity(n_nets);
    let mut pool: Vec<Sink> = Vec::with_capacity(2 * n_nets);
    for i in 0..n_nets {
        let name = cur
            .name(b' ')
            .ok_or_else(|| bad(format!("malformed net line {i}")))?;
        net_name.push(names.intern(name));
        let start = pool.len();
        if !cur.eat(b"-\n") {
            loop {
                // Which instances exist is not known yet: sinks are held
                // against the fan-in lists once those are read.
                let inst = cur.id().filter(|_| cur.eat(b":"));
                let (Some(inst), Some(pin)) = (inst, cur.id()) else {
                    return Err(bad(format!("bad sink on net {i}")));
                };
                pool.push(Sink {
                    inst: InstId(inst),
                    pin,
                });
                if !cur
                    .more()
                    .ok_or_else(|| bad(format!("bad sink list on net {i}")))?
                {
                    break;
                }
            }
        }
        let (start, len) = u32::try_from(start)
            .ok()
            .zip(u32::try_from(pool.len() - start).ok())
            .ok_or_else(|| bad("sink pool too large"))?;
        slots.push(SinkSlot {
            start,
            len,
            cap: len,
        });
    }

    let n_insts = cur.count("insts")?;
    names.reserve(n_insts, 0);
    let mut net_driver = vec![DRIVER_NONE; n_nets];
    let mut net_flags = vec![0u8; n_nets];
    let mut insts: Vec<InstRecord> = Vec::with_capacity(n_insts);
    let mut inst_seq = Vec::with_capacity(n_insts);
    let mut fanin_overflow: Vec<NetId> = Vec::new();
    let mut fanin: Vec<NetId> = Vec::new();
    // Sinks each net should have, counted off the fan-in lists.
    let mut expected = vec![0u32; n_nets];
    let mut cells = CellMemo {
        lib,
        slots: [None; 64],
    };
    for i in 0..n_insts {
        let name = cur
            .name(b' ')
            .map(|name| names.intern(name))
            .ok_or_else(|| bad(format!("bad inst name {i}")))?;
        let cell = cur
            .token(b' ')
            .ok_or_else(|| bad(format!("bad cell name {i}")))?;
        let (cell, libcell) = cells.bind(cell, &mut cur.scratch)?;
        let out = cur
            .net(n_nets, b' ')
            .ok_or_else(|| bad(format!("inst {i} out net missing or out of range")))?;
        fanin.clear();
        if !cur.eat(b"-\n") {
            loop {
                let net = cur
                    .id()
                    .filter(|&n| (n as usize) < n_nets)
                    .ok_or_else(|| bad(format!("inst {i} fanin net missing or out of range")))?;
                fanin.push(NetId(net));
                expected[net as usize] += 1;
                if !cur
                    .more()
                    .ok_or_else(|| bad(format!("bad fanin list on inst {i}")))?
                {
                    break;
                }
            }
        }
        if fanin.len() != libcell.function.num_inputs() {
            return Err(bad(format!(
                "inst {i} arity {} does not match cell function",
                fanin.len()
            )));
        }
        if net_driver[out.index()] != DRIVER_NONE {
            return Err(bad(format!("net {} has two drivers", out.index())));
        }
        net_driver[out.index()] = pack_driver(NetDriver::Instance(InstId::from_index(i)));
        let mut inline = [NetId(u32::MAX); INLINE_FANIN];
        let nfanin = u8::try_from(fanin.len()).map_err(|_| bad("fanin too wide"))?;
        if fanin.len() <= INLINE_FANIN {
            inline[..fanin.len()].copy_from_slice(&fanin);
        } else {
            let start = u32::try_from(fanin_overflow.len()).map_err(|_| bad("overflow"))?;
            fanin_overflow.extend_from_slice(&fanin);
            inline[0] = NetId(start);
        }
        insts.push(InstRecord {
            name,
            cell,
            out,
            fanin: inline,
            function: libcell.function,
            nfanin,
        });
        inst_seq.push(u8::from(libcell.function.is_sequential()));
    }

    let mut ports = |label: &'static str,
                     each: &mut dyn FnMut(usize, NetId) -> Result<(), NetlistError>|
     -> Result<Vec<(String, NetId)>, NetlistError> {
        let n = cur.count(label)?;
        let mut ports = Vec::with_capacity(n);
        for i in 0..n {
            let name = cur
                .name(b' ')
                .map(str::to_string)
                .ok_or_else(|| bad(format!("bad {label} name {i}")))?;
            let net = cur
                .net(n_nets, b'\n')
                .ok_or_else(|| bad(format!("{label} {i} net missing or out of range")))?;
            each(i, net)?;
            ports.push((name, net));
        }
        Ok(ports)
    };
    let inputs = ports("inputs", &mut |i, net| {
        if net_driver[net.index()] != DRIVER_NONE {
            return Err(bad(format!("input net {} has two drivers", net.index())));
        }
        net_driver[net.index()] = pack_driver(NetDriver::PrimaryInput(i));
        Ok(())
    })?;
    let outputs = ports("outputs", &mut |_, net| {
        net_flags[net.index()] |= FLAG_OUTPUT;
        Ok(())
    })?;
    if !cur.eat(b"end\n") {
        return Err(bad("missing end"));
    }
    if cur.left() != 0 {
        return Err(bad("trailing data"));
    }

    names.shrink_to_fit();
    pool.shrink_to_fit();
    let live = pool.len();
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
    for (net, (slot, &expected)) in netlist.slots.iter().zip(&expected).enumerate() {
        if slot.len != expected {
            return Err(bad(format!(
                "net {net} sink count {} != fan-in rebuild {expected}",
                slot.len
            )));
        }
        for s in netlist.sinks(NetId(net as u32)) {
            if s.inst.index() >= n_insts
                || netlist.fanin(s.inst).get(s.pin as usize) != Some(&NetId(net as u32))
            {
                return Err(bad(format!(
                    "sink {}:{} of net {net} disagrees with fan-in list",
                    s.inst.index(),
                    s.pin
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

    pub(super) fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    /// Checks every observable property of `b` against `a`, including
    /// per-net sink order.
    pub(super) fn assert_observably_equal(a: &Netlist, b: &Netlist) {
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

    /// A count the text cannot back is refused before anything is
    /// reserved for it: these 40-byte texts used to ask the allocator
    /// for terabytes.
    #[test]
    fn claimed_counts_are_held_to_the_bytes_that_follow() {
        let lib = lib();
        let huge = "4000000000000";
        for text in [
            format!("netlist/v1\ndesign x\nnets {huge}\n"),
            format!("netlist/v1\ndesign x\nnets 0\ninsts {huge}\n"),
            format!("netlist/v1\ndesign x\nnets 0\ninsts 0\ninputs {huge}\n"),
            format!("netlist/v1\ndesign x\nnets 0\ninsts 0\ninputs 0\noutputs {huge}\n"),
            // In range for a `usize` on any target, still a lie.
            "netlist/v1\ndesign x\nnets 9\na -\n".to_string(),
        ] {
            match decode(&text, &lib) {
                Err(NetlistError::Invalid { summary }) => {
                    assert!(summary.contains("count"), "{summary}");
                }
                other => panic!("{text:?} decoded to {other:?}"),
            }
        }
        // The smallest honest records still fit the bound.
        let empty =
            "netlist/v1\ndesign x\nnets 2\n -\n -\ninsts 0\ninputs 1\n 0\noutputs 1\n 1\nend\n";
        let n = decode(empty, &lib).expect("two-byte-per-record text decodes");
        assert_eq!(n.net_count(), 2);
        assert_eq!(encode(&n, &lib), empty);
    }
}
