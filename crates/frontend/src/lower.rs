//! Lowering: from a parsed hierarchical [`Design`] to the arena
//! [`Netlist`].
//!
//! Both frontends (Yosys JSON, EDIF) parse into the same [`Design`]
//! shape — modules holding bit-level ports, instances, and local nets —
//! so flattening, cell binding, and netlist construction live here once.
//!
//! The pipeline is: **flatten** (hierarchy → one flat instance list,
//! instance-path names like `core.alu.u3`), then one of two backends:
//!
//! - the **direct** backend, when every instance binds to a library
//!   cell and no constant bits appear: instances become arena
//!   instances one-for-one, names preserved (register identities
//!   survive for equivalence checking);
//! - the **AIG** backend, when Yosys generic gates (`$and`, `$mux`,
//!   `$dff`, ...) or constant bits are present: everything is expanded
//!   into an And-Inverter Graph (flip-flops as `__q_`/`__d_` pseudo-pin
//!   boundaries) and handed to the synthesis mapper, so generic logic
//!   arrives technology-mapped like any generator output.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::ops::Range;

use asicgap_cells::{CellFunction, CellId, Library};
use asicgap_netlist::{Netlist, NetlistError};
use asicgap_synth::{build_function, map_aig_seq, Aig, AigOps, Lit, MapOptions, SeqBinding};

use crate::error::{dangling, syntax, FrontendError};
use crate::MAX_DEPTH;

// ---------------------------------------------------------------------
// The parsed-design IR both frontends target.
// ---------------------------------------------------------------------

/// One bit of a connection inside a module: a local net or a constant.
/// (Yosys `"x"` bits are treated as zero — any defined value is a legal
/// refinement of don't-care.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalBit {
    /// Index into the module's local net table.
    Net(u32),
    /// Constant zero.
    Zero,
    /// Constant one.
    One,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

/// A name inside a [`Module`]: a slice of the input text, or a run of
/// the module's name buffer when the input does not spell the name out
/// verbatim (an escaped string, a `name[k]` bus bit, a fallback).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Name<'t> {
    Text(&'t str),
    Spelled(Span),
}

/// A run `start..end` of one of a module's vectors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The run `start..end`, or a syntax error for a module too large to
    /// index with `u32`.
    pub(crate) fn new(start: usize, end: usize) -> Result<Span, FrontendError> {
        let index = |n: usize| {
            u32::try_from(n).map_err(|_| syntax("module has more than 2^32 - 1 entries"))
        };
        Ok(Span {
            start: index(start)?,
            end: index(end)?,
        })
    }

    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A port: its name, direction, and run of [`Module::bits`], LSB first.
#[derive(Clone)]
pub(crate) struct PortRec<'t> {
    pub(crate) name: Name<'t>,
    pub(crate) dir: PortDir,
    pub(crate) bits: Span,
}

/// An instance: its name, kind, and run of [`Module::conns`].
#[derive(Clone)]
pub(crate) struct InstRec<'t> {
    pub(crate) name: Name<'t>,
    pub(crate) kind: Name<'t>,
    pub(crate) conns: Span,
}

/// One connection: a pin name and its run of [`Module::bits`].
#[derive(Clone)]
pub(crate) struct ConnRec<'t> {
    pub(crate) pin: Name<'t>,
    pub(crate) bits: Span,
}

/// One module of a parsed design, laid out like the flattened form
/// [`lower`] builds from it: names borrow the input text `'t`, the few
/// that must be spelled share one buffer, and every instance's
/// connections are runs of two shared vectors. A module costs a fixed
/// number of allocations, however many instances it holds.
#[derive(Clone, Default)]
pub struct Module<'t> {
    pub(crate) name: Name<'t>,
    /// Ports in declaration order.
    pub(crate) ports: Vec<PortRec<'t>>,
    /// Instances in file order.
    pub(crate) insts: Vec<InstRec<'t>>,
    /// Connections, instance after instance, each in file order.
    pub(crate) conns: Vec<ConnRec<'t>>,
    /// Port and connection bits, run after run.
    pub(crate) bits: Vec<LocalBit>,
    /// `LocalBit::Net(i)` is named `net_names[i]`.
    pub(crate) net_names: Vec<Name<'t>>,
    /// The spelled names, back to back.
    pub(crate) spelled: String,
}

impl Default for Name<'_> {
    fn default() -> Self {
        Name::Text("")
    }
}

impl<'t> Module<'t> {
    /// Appends whatever `spell` writes to the name buffer, as a name.
    pub(crate) fn spell(
        &mut self,
        spell: impl FnOnce(&mut String),
    ) -> Result<Name<'t>, FrontendError> {
        let start = self.spelled.len();
        spell(&mut self.spelled);
        Span::new(start, self.spelled.len()).map(Name::Spelled)
    }

    /// `text` as a name: borrowed when it is a slice of the input.
    pub(crate) fn keep(&mut self, text: Cow<'t, str>) -> Result<Name<'t>, FrontendError> {
        match text {
            Cow::Borrowed(text) => Ok(Name::Text(text)),
            Cow::Owned(text) => self.spell(|buf| buf.push_str(&text)),
        }
    }

    fn resolve(&self, name: Name<'t>) -> &str {
        match name {
            Name::Text(text) => text,
            Name::Spelled(span) => &self.spelled[span.range()],
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        self.resolve(self.name)
    }

    /// Ports in declaration order.
    pub fn ports(&self) -> impl ExactSizeIterator<Item = Port<'_>> + '_ {
        self.ports.iter().map(|p| Port {
            name: self.resolve(p.name),
            dir: p.dir,
            bits: &self.bits[p.bits.range()],
        })
    }

    /// Instances in file order.
    pub fn insts(&self) -> impl ExactSizeIterator<Item = Inst<'_>> + '_ {
        self.insts.iter().map(|rec| Inst { module: self, rec })
    }

    /// Instance `k` in file order.
    ///
    /// # Panics
    ///
    /// Panics if the module has `k` or fewer instances.
    pub fn inst(&self, k: usize) -> Inst<'_> {
        Inst {
            module: self,
            rec: &self.insts[k],
        }
    }

    /// Number of local nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of local net `net` (what `LocalBit::Net(net)` refers to).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not below [`Module::net_count`].
    pub fn net_name(&self, net: u32) -> &str {
        self.resolve(self.net_names[net as usize])
    }

    /// Names of the local nets, in net order.
    pub fn net_names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.net_names.iter().map(|&n| self.resolve(n))
    }
}

/// Modules compare by what they spell, not by where a name is stored.
impl PartialEq for Module<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.ports().eq(other.ports())
            && self.insts().eq(other.insts())
            && self.net_names().eq(other.net_names())
    }
}

impl fmt::Debug for Module<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name())
            .field("ports", &self.ports().collect::<Vec<_>>())
            .field("insts", &self.insts().collect::<Vec<_>>())
            .field("net_names", &self.net_names().collect::<Vec<_>>())
            .finish()
    }
}

/// A module port, already bit-blasted: `bits[k]` is the local bit
/// carrying bit `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Port<'m> {
    /// Port name.
    pub name: &'m str,
    /// Direction.
    pub dir: PortDir,
    /// One local bit per port bit, LSB first.
    pub bits: &'m [LocalBit],
}

/// An instance inside a [`Module`]: a library cell, a Yosys generic
/// gate, or (when its kind names another module) a hierarchical
/// instance.
#[derive(Clone, Copy)]
pub struct Inst<'m> {
    module: &'m Module<'m>,
    rec: &'m InstRec<'m>,
}

impl<'m> Inst<'m> {
    /// Instance name, unique within its module.
    pub fn name(self) -> &'m str {
        self.module.resolve(self.rec.name)
    }

    /// Cell type or module name.
    pub fn kind(self) -> &'m str {
        self.module.resolve(self.rec.kind)
    }

    /// Connections as (pin/port name, bits LSB first), file order.
    pub fn conns(self) -> impl ExactSizeIterator<Item = (&'m str, &'m [LocalBit])> {
        let module = self.module;
        module.conns[self.rec.conns.range()]
            .iter()
            .map(move |c| (module.resolve(c.pin), &module.bits[c.bits.range()]))
    }
}

impl PartialEq for Inst<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name() && self.kind() == other.kind() && self.conns().eq(other.conns())
    }
}

impl fmt::Debug for Inst<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inst")
            .field("name", &self.name())
            .field("kind", &self.kind())
            .field("conns", &self.conns().collect::<Vec<_>>())
            .finish()
    }
}

/// A parsed hierarchical design with a designated top module. It
/// borrows the text it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Design<'t> {
    /// All modules, file order.
    pub modules: Vec<Module<'t>>,
    /// Index of the top module in `modules`.
    pub top: usize,
}

impl<'t> Design<'t> {
    /// The top module.
    pub fn top_module(&self) -> &Module<'t> {
        &self.modules[self.top]
    }
}

/// Options of [`lower`]: none. A kind binds to the library cell of that
/// name, else to the same function at the nearest drive, else to a Yosys
/// generic gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LowerOptions {}

// ---------------------------------------------------------------------
// Flattening.
// ---------------------------------------------------------------------

/// A bit after flattening: a flat net or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlatBit {
    Net(u32),
    Zero,
    One,
}

/// A leaf instance of the flattened design. Its connections are a run
/// of [`Flat::conns`]; see [`Flat::conns_of`].
struct FlatInst<'a> {
    name: Cow<'a, str>,
    /// Index into [`Flat::kinds`].
    kind: usize,
    conns: Range<usize>,
}

/// The flattened design. Every name borrows from the [`Design`] unless
/// flattening had to spell a new one (a hierarchical path, a bus bit),
/// and connections live in two shared arenas instead of a `Vec` per
/// pin: at SoC scale the per-instance allocations were the cost.
struct Flat<'a> {
    name: &'a str,
    nets: Vec<Cow<'a, str>>,
    inputs: Vec<(String, u32)>,
    outputs: Vec<(String, u32)>,
    /// The distinct leaf cell kinds, in first-use order.
    kinds: Vec<&'a str>,
    insts: Vec<FlatInst<'a>>,
    /// (pin name, its run of `bits`), instance after instance.
    conns: Vec<(&'a str, Range<usize>)>,
    bits: Vec<FlatBit>,
}

impl<'a> Flat<'a> {
    fn add_net(&mut self, name: Cow<'a, str>) -> u32 {
        let id = u32::try_from(self.nets.len()).expect("flat net count fits in u32");
        self.nets.push(name);
        id
    }

    /// `inst`'s connections as (pin name, bits LSB first), file order.
    fn conns_of(&self, inst: &FlatInst<'a>) -> impl Iterator<Item = (&'a str, &[FlatBit])> {
        self.conns[inst.conns.clone()]
            .iter()
            .map(|(pin, bits)| (*pin, &self.bits[bits.clone()]))
    }
}

/// Name of bit `k` of a `width`-bit port/bus.
fn bit_name(base: &str, k: usize, width: usize) -> Cow<'_, str> {
    if width == 1 {
        Cow::Borrowed(base)
    } else {
        Cow::Owned(format!("{base}[{k}]"))
    }
}

/// `name` as seen from the top: itself at the top level, behind its
/// instance path below it.
fn scoped<'a>(prefix: &str, name: &'a str) -> Cow<'a, str> {
    if prefix.is_empty() {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("{prefix}{name}"))
    }
}

/// What an instance's `kind` names.
#[derive(Clone, Copy)]
enum Kind {
    /// Another module of the design, by index.
    Module(usize),
    /// A leaf cell, by index into [`Flat::kinds`].
    Leaf(usize),
}

/// Flattening state that is not part of the result.
struct Flattener<'a> {
    design: &'a Design<'a>,
    flat: Flat<'a>,
    /// Every kind met so far. One lookup per instance replaces a scan
    /// of the module list and, later, a library lookup per instance.
    kind_of: HashMap<&'a str, Kind>,
    /// Modules being expanded, outermost first.
    stack: Vec<usize>,
}

fn flatten<'a>(design: &'a Design<'a>) -> Result<Flat<'a>, FrontendError> {
    let top = design.top_module();
    let mut flat = Flat {
        name: top.name(),
        nets: Vec::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
        kinds: Vec::new(),
        insts: Vec::new(),
        conns: Vec::new(),
        bits: Vec::new(),
    };

    // Top ports become flat nets named after the port (with `[k]` for
    // buses) and pre-bind the local nets they touch.
    let mut bind: Vec<Option<FlatBit>> = vec![None; top.net_count()];
    for port in top.ports() {
        for (k, bit) in port.bits.iter().enumerate() {
            let LocalBit::Net(n) = *bit else {
                return Err(FrontendError::Unsupported {
                    what: format!(
                        "constant bit in top-level port {} of module {}",
                        port.name,
                        top.name()
                    ),
                });
            };
            // A net can appear in one port only; sharing (an input fed
            // straight through to an output) needs a buffer we do not
            // insert.
            if bind[n as usize].is_some() {
                return Err(FrontendError::Unsupported {
                    what: format!(
                        "top-level port {} aliases another port bit in module {}",
                        port.name,
                        top.name()
                    ),
                });
            }
            let name = bit_name(port.name, k, port.bits.len());
            let id = flat.add_net(name.clone());
            bind[n as usize] = Some(FlatBit::Net(id));
            match port.dir {
                PortDir::Input => flat.inputs.push((name.into_owned(), id)),
                PortDir::Output => flat.outputs.push((name.into_owned(), id)),
            }
        }
    }

    let mut kind_of = HashMap::new();
    for (idx, module) in design.modules.iter().enumerate() {
        // Of two modules with one name, the first is the one meant.
        kind_of.entry(module.name()).or_insert(Kind::Module(idx));
    }
    let mut flattener = Flattener {
        design,
        flat,
        kind_of,
        stack: vec![design.top],
    };
    flattener.instantiate(design.top, "", bind)?;
    Ok(flattener.flat)
}

impl<'a> Flattener<'a> {
    /// The flat bit behind local bit `bit` of the module being
    /// expanded; a local net first touched here gets a fresh flat net
    /// named `{prefix}{local name}`.
    fn resolve(
        &mut self,
        bit: LocalBit,
        bind: &mut [Option<FlatBit>],
        module: &'a Module<'a>,
        prefix: &str,
    ) -> FlatBit {
        match bit {
            LocalBit::Zero => FlatBit::Zero,
            LocalBit::One => FlatBit::One,
            LocalBit::Net(n) => *bind[n as usize].get_or_insert_with(|| {
                FlatBit::Net(self.flat.add_net(scoped(prefix, module.net_name(n))))
            }),
        }
    }

    /// Expands one module instance. `bind` maps the module's local nets
    /// to already-allocated flat bits (port connections).
    fn instantiate(
        &mut self,
        midx: usize,
        prefix: &str,
        mut bind: Vec<Option<FlatBit>>,
    ) -> Result<(), FrontendError> {
        let design = self.design;
        let module = &design.modules[midx];
        for inst in module.insts() {
            let kind = match self.kind_of.entry(inst.kind()) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(new) => {
                    self.flat.kinds.push(inst.kind());
                    *new.insert(Kind::Leaf(self.flat.kinds.len() - 1))
                }
            };
            match kind {
                Kind::Leaf(kind) => {
                    let first_conn = self.flat.conns.len();
                    for (pname, bits) in inst.conns() {
                        let first_bit = self.flat.bits.len();
                        for &b in bits {
                            let b = self.resolve(b, &mut bind, module, prefix);
                            self.flat.bits.push(b);
                        }
                        self.flat
                            .conns
                            .push((pname, first_bit..self.flat.bits.len()));
                    }
                    self.flat.insts.push(FlatInst {
                        name: scoped(prefix, inst.name()),
                        kind,
                        conns: first_conn..self.flat.conns.len(),
                    });
                }
                Kind::Module(child_idx) => {
                    if self.stack.contains(&child_idx) {
                        return Err(FrontendError::Unsupported {
                            what: format!("recursive instantiation of module {}", inst.kind()),
                        });
                    }
                    // Expansion recurses once per level; a chain of
                    // one-instance modules must not get to pick how
                    // deep the call stack goes.
                    if self.stack.len() == MAX_DEPTH {
                        return Err(FrontendError::Unsupported {
                            what: format!(
                                "hierarchy deeper than {MAX_DEPTH} levels at instance {prefix}{}",
                                inst.name()
                            ),
                        });
                    }
                    let child = &design.modules[child_idx];
                    let mut child_bind: Vec<Option<FlatBit>> = vec![None; child.net_count()];
                    for (pname, bits) in inst.conns() {
                        let Some(port) = child.ports().find(|p| p.name == pname) else {
                            return Err(dangling(format!(
                                "instance {prefix}{} connects port {pname} absent from module {}",
                                inst.name(),
                                child.name()
                            )));
                        };
                        if bits.len() != port.bits.len() {
                            return Err(FrontendError::WidthMismatch {
                                cell: child.name().to_string(),
                                pin: pname.to_string(),
                                expected: port.bits.len(),
                                got: bits.len(),
                            });
                        }
                        for (k, &outer) in bits.iter().enumerate() {
                            let outer = self.resolve(outer, &mut bind, module, prefix);
                            let LocalBit::Net(n) = port.bits[k] else {
                                return Err(FrontendError::Unsupported {
                                    what: format!(
                                        "constant bit in port {} of module {}",
                                        port.name,
                                        child.name()
                                    ),
                                });
                            };
                            match child_bind[n as usize] {
                                Some(existing) if existing != outer => {
                                    return Err(FrontendError::Unsupported {
                                        what: format!(
                                            "port bit aliasing through module {} (net {})",
                                            child.name(),
                                            child.net_name(n)
                                        ),
                                    })
                                }
                                _ => child_bind[n as usize] = Some(outer),
                            }
                        }
                    }
                    let child_prefix = format!("{prefix}{}.", inst.name());
                    self.stack.push(child_idx);
                    self.instantiate(child_idx, &child_prefix, child_bind)?;
                    self.stack.pop();
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Cell binding.
// ---------------------------------------------------------------------

/// The Yosys generic gates the AIG backend expands directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Generic {
    Not,
    Buf,
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Mux,
    Dff,
}

enum Binding {
    Cell(CellId),
    Generic(Generic),
}

fn resolve_kind(kind: &str, lib: &Library) -> Result<Binding, FrontendError> {
    if let Some((id, _)) = lib.cell_by_name(kind) {
        return Ok(Binding::Cell(id));
    }
    if let Some(id) = resolve_by_function(kind, lib) {
        return Ok(Binding::Cell(id));
    }
    // Yosys coarse cells and their gate-level spellings.
    let generic = match kind {
        "$not" | "$_NOT_" => Some(Generic::Not),
        "$buf" | "$_BUF_" => Some(Generic::Buf),
        "$and" | "$_AND_" => Some(Generic::And),
        "$nand" | "$_NAND_" => Some(Generic::Nand),
        "$or" | "$_OR_" => Some(Generic::Or),
        "$nor" | "$_NOR_" => Some(Generic::Nor),
        "$xor" | "$_XOR_" => Some(Generic::Xor),
        "$xnor" | "$_XNOR_" => Some(Generic::Xnor),
        "$mux" | "$_MUX_" => Some(Generic::Mux),
        "$dff" | "$_DFF_P_" => Some(Generic::Dff),
        _ => None,
    };
    match generic {
        Some(g) => Ok(Binding::Generic(g)),
        None => Err(FrontendError::UnknownCell {
            what: kind.to_string(),
        }),
    }
}

/// The library-portability fallback: a design exported against one
/// drive menu may name cells absent from the target library
/// (`mux2_x1` against a library whose nearest drive is x0.93). Cell
/// names follow the `{base}_x{drive}` convention, so when the exact
/// name misses we bind by base function to the static cell with the
/// nearest drive strength.
fn resolve_by_function(kind: &str, lib: &Library) -> Option<CellId> {
    let (base, drive) = kind.rsplit_once("_x")?;
    let drive: f64 = drive.parse().ok()?;
    let mut best: Option<(CellId, f64)> = None;
    for (id, cell) in lib.iter() {
        if cell.family != asicgap_cells::LogicFamily::StaticCmos
            || cell.function.base_name() != base
        {
            continue;
        }
        let dist = (cell.drive - drive).abs();
        if best.is_none_or(|(_, d)| dist < d) {
            best = Some((id, dist));
        }
    }
    best.map(|(id, _)| id)
}

/// `pin` in lower case, for matching against the pin names the
/// backends know — all of them ASCII and at most five bytes, so a pin
/// too long for `buf` folds to a slice that matches none.
fn fold_pin<'b>(pin: &str, buf: &'b mut [u8; 5]) -> &'b [u8] {
    match buf.get_mut(..pin.len()) {
        Some(folded) => {
            folded.copy_from_slice(pin.as_bytes());
            folded.make_ascii_lowercase();
            folded
        }
        None => &[],
    }
}

/// The widest cell [`split_cell_conns`] can wire: fan-in pins are
/// spelled `a`..`d`.
const MAX_FANIN: usize = 4;

/// Split a bound-cell instance's connections into positional fan-in
/// bits (the first `f.num_inputs()` entries count) and the output bit.
/// Accepted pin spellings (case-insensitive): `a`..`d` / `i0`..`i3` for
/// fan-ins (`d` meaning the data input on sequential cells), `y` / `o` /
/// `q` for the output; `clk`, `clock`, `ck`, `en`, and `g` are ignored
/// (the flow models one global clock).
fn split_cell_conns(
    flat: &Flat<'_>,
    inst: &FlatInst<'_>,
    f: CellFunction,
) -> Result<([FlatBit; MAX_FANIN], FlatBit), FrontendError> {
    let kind = flat.kinds[inst.kind];
    let arity = f.num_inputs();
    if arity > MAX_FANIN {
        return Err(FrontendError::Unsupported {
            what: format!("cell {kind} has more than {MAX_FANIN} inputs"),
        });
    }
    let mut fanin: [Option<FlatBit>; MAX_FANIN] = [None; MAX_FANIN];
    let mut out: Option<FlatBit> = None;
    let mut buf = [0; 5];
    for (pname, bits) in flat.conns_of(inst) {
        let pin = fold_pin(pname, &mut buf);
        if matches!(pin, b"clk" | b"clock" | b"ck" | b"en" | b"g") {
            continue;
        }
        let &[bit] = bits else {
            return Err(FrontendError::WidthMismatch {
                cell: kind.to_string(),
                pin: pname.to_string(),
                expected: 1,
                got: bits.len(),
            });
        };
        let slot: Option<usize> = match pin {
            b"a" | b"i0" => Some(0),
            b"b" | b"i1" => Some(1),
            b"c" | b"i2" => Some(2),
            b"d" if f.is_sequential() => Some(0),
            b"d" | b"i3" => Some(3),
            b"y" | b"o" | b"q" => None,
            _ => {
                return Err(dangling(format!(
                    "cell {kind} has no pin {pname} (instance {})",
                    inst.name
                )))
            }
        };
        match slot {
            Some(i) => {
                if i >= arity {
                    return Err(dangling(format!(
                        "pin {pname} exceeds the {arity} input(s) of cell {kind} (instance {})",
                        inst.name
                    )));
                }
                if fanin[i].replace(bit).is_some() {
                    return Err(FrontendError::Unsupported {
                        what: format!("pin {pname} of instance {} connected twice", inst.name),
                    });
                }
            }
            None => {
                if out.replace(bit).is_some() {
                    return Err(FrontendError::Unsupported {
                        what: format!("output of instance {} connected twice", inst.name),
                    });
                }
            }
        }
    }
    let mut pins = [FlatBit::Zero; MAX_FANIN];
    for (i, pin) in pins.iter_mut().enumerate().take(arity) {
        *pin = fanin[i].ok_or_else(|| {
            dangling(format!(
                "instance {} ({kind}) leaves input pin {} unconnected",
                inst.name,
                ["a", "b", "c", "d"][i]
            ))
        })?;
    }
    let out = out.ok_or_else(|| {
        dangling(format!(
            "instance {} ({kind}) leaves its output unconnected",
            inst.name
        ))
    })?;
    Ok((pins, out))
}

/// A generic gate's connections, bit-blasted: all data pins share one
/// width; `$mux` adds a scalar select.
struct GenericConns {
    ins: Vec<Vec<FlatBit>>,
    sel: Option<FlatBit>,
    outs: Vec<FlatBit>,
}

fn split_generic_conns(
    flat: &Flat<'_>,
    inst: &FlatInst<'_>,
    g: Generic,
) -> Result<GenericConns, FrontendError> {
    let kind = flat.kinds[inst.kind];
    let in_pins: &[&str] = match g {
        Generic::Not | Generic::Buf => &["a"],
        Generic::Dff => &["d"],
        _ => &["a", "b"],
    };
    let out_pin = if g == Generic::Dff { "q" } else { "y" };
    let mut ins: Vec<Option<Vec<FlatBit>>> = vec![None; in_pins.len()];
    let mut sel: Option<FlatBit> = None;
    let mut outs: Option<Vec<FlatBit>> = None;
    let mut buf = [0; 5];
    for (pname, bits) in flat.conns_of(inst) {
        let pin = fold_pin(pname, &mut buf);
        if matches!(pin, b"clk" | b"clock" | b"en") {
            continue;
        }
        if g == Generic::Mux && pin == b"s" {
            let &[bit] = bits else {
                return Err(FrontendError::WidthMismatch {
                    cell: kind.to_string(),
                    pin: pname.to_string(),
                    expected: 1,
                    got: bits.len(),
                });
            };
            sel = Some(bit);
            continue;
        }
        if pin == out_pin.as_bytes() {
            outs = Some(bits.to_vec());
            continue;
        }
        match in_pins.iter().position(|ip| pin == ip.as_bytes()) {
            Some(i) => ins[i] = Some(bits.to_vec()),
            None => {
                return Err(dangling(format!(
                    "generic {kind} has no pin {pname} (instance {})",
                    inst.name
                )))
            }
        }
    }
    let outs = outs.ok_or_else(|| {
        dangling(format!(
            "instance {} ({kind}) leaves pin {out_pin} unconnected",
            inst.name
        ))
    })?;
    let width = outs.len();
    let mut resolved = Vec::with_capacity(ins.len());
    for (i, v) in ins.into_iter().enumerate() {
        let v = v.ok_or_else(|| {
            dangling(format!(
                "instance {} ({kind}) leaves pin {} unconnected",
                inst.name, in_pins[i]
            ))
        })?;
        if v.len() != width {
            return Err(FrontendError::WidthMismatch {
                cell: kind.to_string(),
                pin: in_pins[i].to_string(),
                expected: width,
                got: v.len(),
            });
        }
        resolved.push(v);
    }
    if g == Generic::Mux && sel.is_none() {
        return Err(dangling(format!(
            "instance {} ($mux) leaves pin s unconnected",
            inst.name
        )));
    }
    Ok(GenericConns {
        ins: resolved,
        sel,
        outs,
    })
}

// ---------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------

/// Lowers a parsed design into a validated, packed [`Netlist`].
///
/// # Errors
///
/// Any [`FrontendError`]: unresolvable cells, width mismatches,
/// dangling references, undriven nets, netlist invariant violations, or
/// mapping failures on the generic-gate path.
pub fn lower(
    design: &Design<'_>,
    lib: &Library,
    _opts: &LowerOptions,
) -> Result<Netlist, FrontendError> {
    let flat = flatten(design)?;

    // Bind every kind in use up front, once each: binding errors
    // surface on both paths, and the bindings decide which path runs.
    let bindings: Vec<Binding> = flat
        .kinds
        .iter()
        .map(|kind| resolve_kind(kind, lib))
        .collect::<Result<_, _>>()?;

    let has_generic = bindings.iter().any(|b| matches!(b, Binding::Generic(_)));
    let has_const = flat.bits.iter().any(|b| !matches!(b, FlatBit::Net(_)));

    let mut netlist = if has_generic || has_const {
        lower_via_aig(&flat, &bindings, lib)?
    } else {
        lower_direct(flat, &bindings, lib)?
    };
    netlist.pack();
    // The cycle check runs after the pack, which drops a kept order: the
    // order it keeps is the one the drive sweep and the timer read.
    netlist.topo_order().map_err(FrontendError::Netlist)?;
    Ok(netlist)
}

/// Structural path: every instance is a bound library cell and every
/// bit is a net. Instance names (and therefore register identities)
/// are preserved one-for-one.
fn lower_direct(
    mut flat: Flat<'_>,
    bindings: &[Binding],
    lib: &Library,
) -> Result<Netlist, FrontendError> {
    let mut netlist = Netlist::new(flat.name);
    // Hierarchical names repeat prefixes heavily; hash-consing the
    // symbol table is the point of the interner's dedup mode.
    netlist.enable_name_dedup();

    let nets: Vec<_> = flat.nets.iter().map(|name| netlist.add_net(name)).collect();
    for (name, n) in std::mem::take(&mut flat.inputs) {
        netlist.add_input(name, nets[n as usize])?;
    }

    let as_net = |bit: FlatBit| match bit {
        FlatBit::Net(n) => nets[n as usize],
        _ => unreachable!("direct path rejected constants"),
    };
    for inst in &flat.insts {
        let Binding::Cell(cell) = bindings[inst.kind] else {
            unreachable!("direct path rejected generics");
        };
        let f = lib.cell(cell).function;
        let (fanin, out) = split_cell_conns(&flat, inst, f)?;
        let out = as_net(out);
        // Entries past the arity are filler and never read.
        let mut pins = [out; MAX_FANIN];
        let arity = f.num_inputs();
        for (pin, &bit) in pins.iter_mut().zip(&fanin[..arity]) {
            *pin = as_net(bit);
        }
        netlist.add_instance(&inst.name, lib, cell, &pins[..arity], out)?;
    }

    // Everything consumed must be driven (PIs count as drivers).
    let undriven = |netlist: &Netlist, id| netlist.driver(id).is_none();
    for (_, inst) in netlist.iter_instances() {
        for &f in inst.fanin() {
            if undriven(&netlist, f) {
                return Err(FrontendError::UndrivenNet {
                    net: netlist.net(f).name().to_string(),
                });
            }
        }
    }
    for (name, n) in flat.outputs {
        if undriven(&netlist, nets[n as usize]) {
            return Err(FrontendError::UndrivenNet { net: name });
        }
        netlist.add_output(name, nets[n as usize]);
    }
    Ok(netlist)
}

/// AIG path: expand generics and bound cells alike into an AIG
/// (flip-flops as pseudo-pin boundaries) and technology-map it.
fn lower_via_aig(
    flat: &Flat<'_>,
    bindings: &[Binding],
    lib: &Library,
) -> Result<Netlist, FrontendError> {
    let mut aig = Aig::new();
    let mut lit_of: Vec<Option<Lit>> = vec![None; flat.nets.len()];

    for (name, n) in &flat.inputs {
        lit_of[*n as usize] = Some(aig.input(name.clone()));
    }

    // Split instances into sequential bits (boundaries) and
    // combinational work items, pre-resolving pin layouts.
    enum Comb {
        Cell(CellFunction, Vec<FlatBit>, FlatBit),
        Generic(Generic, GenericConns),
    }
    // (pseudo-input position, D bit, is_latch, key) per register bit.
    struct SeqBit {
        q_input: usize,
        d: FlatBit,
        is_latch: bool,
    }
    let mut seq_bits: Vec<SeqBit> = Vec::new();
    let mut comb: Vec<Comb> = Vec::new();
    for inst in &flat.insts {
        match &bindings[inst.kind] {
            Binding::Cell(cell) => {
                let f = lib.cell(*cell).function;
                let (fanin, out) = split_cell_conns(flat, inst, f)?;
                let fanin = fanin[..f.num_inputs()].to_vec();
                if f.is_sequential() {
                    let FlatBit::Net(qn) = out else {
                        return Err(FrontendError::Unsupported {
                            what: format!("instance {} drives a constant", inst.name),
                        });
                    };
                    let q_input = aig.graph().input_names().len();
                    lit_of[qn as usize] = Some(aig.input(format!("__q_{}", inst.name)));
                    seq_bits.push(SeqBit {
                        q_input,
                        d: fanin[0],
                        is_latch: f == CellFunction::Latch,
                    });
                } else {
                    comb.push(Comb::Cell(f, fanin, out));
                }
            }
            Binding::Generic(g) => {
                let conns = split_generic_conns(flat, inst, *g)?;
                if *g == Generic::Dff {
                    let width = conns.outs.len();
                    for (k, &q) in conns.outs.iter().enumerate() {
                        let FlatBit::Net(qn) = q else {
                            return Err(FrontendError::Unsupported {
                                what: format!("instance {} drives a constant", inst.name),
                            });
                        };
                        let key = bit_name(&inst.name, k, width);
                        let q_input = aig.graph().input_names().len();
                        lit_of[qn as usize] = Some(aig.input(format!("__q_{key}")));
                        seq_bits.push(SeqBit {
                            q_input,
                            d: conns.ins[0][k],
                            is_latch: false,
                        });
                    }
                } else {
                    comb.push(Comb::Generic(*g, conns));
                }
            }
        }
    }

    // Every consumed net must have some driver (PI, register Q, or a
    // combinational output) before the topological pass starts.
    let mut driven: Vec<bool> = lit_of.iter().map(Option::is_some).collect();
    for c in &comb {
        let outs: &[FlatBit] = match c {
            Comb::Cell(_, _, out) => std::slice::from_ref(out),
            Comb::Generic(_, conns) => &conns.outs,
        };
        for &o in outs {
            if let FlatBit::Net(n) = o {
                driven[n as usize] = true;
            }
        }
    }
    let require_driven = |bit: FlatBit, driven: &[bool]| -> Result<(), FrontendError> {
        if let FlatBit::Net(n) = bit {
            if !driven[n as usize] {
                return Err(FrontendError::UndrivenNet {
                    net: flat.nets[n as usize].to_string(),
                });
            }
        }
        Ok(())
    };
    for c in &comb {
        match c {
            Comb::Cell(_, fanin, _) => {
                for &b in fanin {
                    require_driven(b, &driven)?;
                }
            }
            Comb::Generic(_, conns) => {
                for v in &conns.ins {
                    for &b in v {
                        require_driven(b, &driven)?;
                    }
                }
                if let Some(s) = conns.sel {
                    require_driven(s, &driven)?;
                }
            }
        }
    }
    for (_, n) in &flat.outputs {
        require_driven(FlatBit::Net(*n), &driven)?;
    }
    for s in &seq_bits {
        require_driven(s.d, &driven)?;
    }

    // Topological expansion by fixpoint scan: cheap at frontend scale
    // (big designs with no generics take the direct path).
    let lit = |bit: FlatBit, lit_of: &[Option<Lit>]| -> Option<Lit> {
        match bit {
            FlatBit::Zero => Some(Lit::FALSE),
            FlatBit::One => Some(Lit::TRUE),
            FlatBit::Net(n) => lit_of[n as usize],
        }
    };
    let mut remaining: Vec<Comb> = comb;
    while !remaining.is_empty() {
        let mut next = Vec::with_capacity(remaining.len());
        let mut progressed = false;
        for c in remaining {
            let ready = match &c {
                Comb::Cell(_, fanin, _) => fanin.iter().all(|&b| lit(b, &lit_of).is_some()),
                Comb::Generic(_, conns) => {
                    conns
                        .ins
                        .iter()
                        .all(|v| v.iter().all(|&b| lit(b, &lit_of).is_some()))
                        && conns.sel.is_none_or(|s| lit(s, &lit_of).is_some())
                }
            };
            if !ready {
                next.push(c);
                continue;
            }
            progressed = true;
            match c {
                Comb::Cell(f, fanin, out) => {
                    let ins: Vec<Lit> = fanin
                        .iter()
                        .map(|&b| lit(b, &lit_of).expect("readiness checked"))
                        .collect();
                    let y = build_function(&mut aig, f, &ins);
                    if let FlatBit::Net(n) = out {
                        lit_of[n as usize] = Some(y);
                    }
                }
                Comb::Generic(g, conns) => {
                    for (k, &o) in conns.outs.iter().enumerate() {
                        let a = lit(conns.ins[0][k], &lit_of).expect("readiness checked");
                        let b = conns
                            .ins
                            .get(1)
                            .map(|v| lit(v[k], &lit_of).expect("readiness checked"));
                        let y = match g {
                            Generic::Not => a.not(),
                            Generic::Buf => a,
                            Generic::And => aig.and(a, b.expect("binary gate")),
                            Generic::Nand => aig.and(a, b.expect("binary gate")).not(),
                            Generic::Or => aig.or(a, b.expect("binary gate")),
                            Generic::Nor => aig.or(a, b.expect("binary gate")).not(),
                            Generic::Xor => aig.xor(a, b.expect("binary gate")),
                            Generic::Xnor => aig.xor(a, b.expect("binary gate")).not(),
                            Generic::Mux => {
                                let s = lit(conns.sel.expect("checked"), &lit_of)
                                    .expect("readiness checked");
                                aig.mux(a, b.expect("mux has b"), s)
                            }
                            Generic::Dff => unreachable!("registers split off above"),
                        };
                        if let FlatBit::Net(n) = o {
                            lit_of[n as usize] = Some(y);
                        }
                    }
                }
            }
        }
        if !progressed {
            // All inputs driven but never producible: a combinational
            // cycle. Name one net on it.
            let net = next
                .iter()
                .find_map(|c| match c {
                    Comb::Cell(_, fanin, _) => {
                        fanin.iter().find(|&&b| lit(b, &lit_of).is_none()).copied()
                    }
                    Comb::Generic(_, conns) => conns
                        .ins
                        .iter()
                        .flatten()
                        .find(|&&b| lit(b, &lit_of).is_none())
                        .copied(),
                })
                .and_then(|b| match b {
                    FlatBit::Net(n) => Some(flat.nets[n as usize].to_string()),
                    _ => None,
                })
                .unwrap_or_default();
            return Err(FrontendError::Netlist(NetlistError::CombinationalCycle {
                net,
            }));
        }
        remaining = next;
    }

    for (name, n) in &flat.outputs {
        let l = lit_of[*n as usize].expect("outputs checked driven");
        aig.set_output(name.clone(), l);
    }
    let mut seq = Vec::with_capacity(seq_bits.len());
    for s in &seq_bits {
        let d = lit(s.d, &lit_of).expect("D bits checked driven");
        let key = aig.graph().input_names()[s.q_input]
            .strip_prefix("__q_")
            .expect("pseudo inputs carry the prefix")
            .to_string();
        let d_output = aig.outputs().len();
        aig.set_output(format!("__d_{key}"), d);
        seq.push(SeqBinding {
            q_input: s.q_input,
            d_output,
            is_latch: s.is_latch,
        });
    }

    map_aig_seq(&aig, lib, &MapOptions::default(), &seq, flat.name).map_err(FrontendError::Synth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::Simulator;
    use asicgap_tech::Technology;

    use LocalBit::{Net, One};
    use PortDir::{Input, Output};

    fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    fn nand2_name(lib: &Library) -> String {
        let id = lib.smallest(CellFunction::Nand(2)).expect("nand2");
        lib.cell(id).name.clone()
    }

    type Conns<'a> = &'a [(&'a str, &'a [LocalBit])];

    /// A module from literal parts, every name spelled into its buffer.
    fn module(
        name: &str,
        ports: &[(&str, PortDir, &[LocalBit])],
        insts: &[(&str, &str, Conns<'_>)],
        net_names: &[&str],
    ) -> Module<'static> {
        fn spell(m: &mut Module<'static>, s: &str) -> Name<'static> {
            m.spell(|buf| buf.push_str(s)).expect("small module")
        }
        fn run(m: &mut Module<'static>, bits: &[LocalBit]) -> Span {
            let start = m.bits.len();
            m.bits.extend_from_slice(bits);
            Span::new(start, m.bits.len()).expect("small module")
        }
        let mut m = Module::default();
        m.name = spell(&mut m, name);
        for &(pname, dir, bits) in ports {
            let name = spell(&mut m, pname);
            let bits = run(&mut m, bits);
            m.ports.push(PortRec { name, dir, bits });
        }
        for &(iname, kind, conns) in insts {
            let first = m.conns.len();
            for &(pin, bits) in conns {
                let pin = spell(&mut m, pin);
                let bits = run(&mut m, bits);
                m.conns.push(ConnRec { pin, bits });
            }
            let (name, kind) = (spell(&mut m, iname), spell(&mut m, kind));
            let conns = Span::new(first, m.conns.len()).expect("small module");
            m.insts.push(InstRec { name, kind, conns });
        }
        for net in net_names {
            let name = spell(&mut m, net);
            m.net_names.push(name);
        }
        m
    }

    /// `top` instantiates `half` twice; `half` is one `gate`. `u0`
    /// connects `u0_p` to half's `p` and `u0_r` to its `r`.
    fn hierarchical(gate: &str, u0_p: &[LocalBit], u0_r: &[LocalBit]) -> Design<'static> {
        let half = module(
            "half",
            &[
                ("p", Input, &[Net(0)]),
                ("q", Input, &[Net(1)]),
                ("r", Output, &[Net(2)]),
            ],
            &[(
                "g",
                gate,
                &[("a", &[Net(0)]), ("b", &[Net(1)]), ("y", &[Net(2)])],
            )],
            &["p", "q", "r"],
        );
        let top = module(
            "top",
            &[
                ("a", Input, &[Net(0)]),
                ("b", Input, &[Net(1)]),
                ("y", Output, &[Net(2)]),
            ],
            &[
                ("u0", "half", &[("p", u0_p), ("q", &[Net(1)]), ("r", u0_r)]),
                (
                    "u1",
                    "half",
                    &[("p", &[Net(3)]), ("q", &[Net(3)]), ("r", &[Net(2)])],
                ),
            ],
            &["a", "b", "y", "t"],
        );
        Design {
            modules: vec![half, top],
            top: 1,
        }
    }

    fn hierarchical_design(lib: &Library) -> Design<'static> {
        hierarchical(&nand2_name(lib), &[Net(0)], &[Net(3)])
    }

    fn single(top: Module<'static>) -> Design<'static> {
        Design {
            modules: vec![top],
            top: 0,
        }
    }

    #[test]
    fn hierarchy_flattens_with_instance_path_names() {
        let lib = lib();
        let design = hierarchical_design(&lib);
        let n = lower(&design, &lib, &LowerOptions::default()).expect("lowers");
        assert_eq!(n.instance_count(), 2);
        let names: Vec<String> = n
            .iter_instances()
            .map(|(_, i)| i.name().to_string())
            .collect();
        assert_eq!(names, ["u0.g", "u1.g"]);
        // top = NAND(a,b) then NAND(t,t) = NOT(NAND(a,b)) = AND(a,b).
        let mut sim = Simulator::new(&n, &lib);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(sim.run_comb(&[a, b]), vec![a && b], "a={a} b={b}");
        }
    }

    #[test]
    fn generic_gates_take_the_mapped_path() {
        let lib = lib();
        // y = (a & b) ^ c with one $and + one $xor, 1-bit.
        let design = single(module(
            "gen",
            &[
                ("a", Input, &[Net(0)]),
                ("b", Input, &[Net(1)]),
                ("c", Input, &[Net(2)]),
                ("y", Output, &[Net(3)]),
            ],
            &[
                (
                    "u_and",
                    "$and",
                    &[("A", &[Net(0)]), ("B", &[Net(1)]), ("Y", &[Net(4)])],
                ),
                (
                    "u_xor",
                    "$xor",
                    &[("A", &[Net(4)]), ("B", &[Net(2)]), ("Y", &[Net(3)])],
                ),
            ],
            &["a", "b", "c", "y", "t"],
        ));
        let n = lower(&design, &lib, &LowerOptions::default()).expect("maps");
        let mut sim = Simulator::new(&n, &lib);
        for v in 0..8u32 {
            let (a, b, c) = (v & 1 != 0, v & 2 != 0, v & 4 != 0);
            assert_eq!(sim.run_comb(&[a, b, c]), vec![(a && b) ^ c]);
        }
    }

    #[test]
    fn multibit_generic_dff_bit_blasts() {
        let lib = lib();
        // q[1:0] <= ~q[1:0] (two toggle registers via $not + $dff).
        let design = single(module(
            "tog",
            &[("q", Output, &[Net(0), Net(1)])],
            &[
                (
                    "inv",
                    "$not",
                    &[("A", &[Net(0), Net(1)]), ("Y", &[Net(2), Net(3)])],
                ),
                (
                    "ff",
                    "$dff",
                    &[
                        ("D", &[Net(2), Net(3)]),
                        ("CLK", &[Net(4)]),
                        ("Q", &[Net(0), Net(1)]),
                    ],
                ),
            ],
            &["q0", "q1", "d0", "d1", "clk"],
        ));
        let n = lower(&design, &lib, &LowerOptions::default()).expect("maps");
        let regs = n
            .iter_instances()
            .filter(|(_, i)| i.is_sequential())
            .count();
        assert_eq!(regs, 2, "one register per bit");
    }

    #[test]
    fn constants_route_through_the_aig() {
        let lib = lib();
        let nand = nand2_name(&lib);
        // y = NAND(a, 1) = NOT a, with a library cell but a constant pin.
        let design = single(module(
            "konst",
            &[("a", Input, &[Net(0)]), ("y", Output, &[Net(1)])],
            &[(
                "g",
                &nand,
                &[("a", &[Net(0)]), ("b", &[One]), ("y", &[Net(1)])],
            )],
            &["a", "y"],
        ));
        let n = lower(&design, &lib, &LowerOptions::default()).expect("maps");
        let mut sim = Simulator::new(&n, &lib);
        assert_eq!(sim.run_comb(&[false]), vec![true]);
        assert_eq!(sim.run_comb(&[true]), vec![false]);
    }

    #[test]
    fn unknown_cell_and_undriven_net_are_typed_errors() {
        let lib = lib();
        let design = hierarchical("mystery_gate", &[Net(0)], &[Net(3)]);
        assert!(matches!(
            lower(&design, &lib, &LowerOptions::default()),
            Err(FrontendError::UnknownCell { .. })
        ));

        // Disconnect u0.r: u1 then consumes an undriven net.
        let design = hierarchical(&nand2_name(&lib), &[Net(0)], &[Net(0)]);
        let got = lower(&design, &lib, &LowerOptions::default());
        assert!(
            matches!(
                got,
                Err(FrontendError::UndrivenNet { .. } | FrontendError::Netlist(_))
            ),
            "got {got:?}"
        );
    }

    #[test]
    fn width_mismatch_on_submodule_port_is_reported() {
        let lib = lib();
        let design = hierarchical(&nand2_name(&lib), &[Net(0), Net(1)], &[Net(3)]);
        assert!(matches!(
            lower(&design, &lib, &LowerOptions::default()),
            Err(FrontendError::WidthMismatch {
                expected: 1,
                got: 2,
                ..
            })
        ));
    }
}
