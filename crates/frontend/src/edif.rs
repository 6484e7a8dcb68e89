//! EDIF 2.0.0 → [`Design`].
//!
//! A small s-expression reader (parens, quoted strings, atoms; EDIF
//! keywords matched case-insensitively) feeding a net-centric netlist
//! builder: cells with a `(contents ...)` view become modules, cells
//! without one are leaves bound later against the library, `(net ...
//! (joined (portRef ...)))` stitches instance pins and module ports
//! together. `(rename id "original")` resolves to the original string —
//! the human name — so hierarchical paths and register identities stay
//! readable after flattening.
//!
//! Array ports use `(member p k)` with `k` as the bit index (LSB
//! convention, matching the Yosys reader). The top cell is whatever
//! `(design ... (cellRef c))` names, else the last cell with contents.

use std::borrow::Cow;
use std::fmt::Write;

use crate::error::{dangling, syntax, FrontendError};
use crate::lower::{ConnRec, Design, InstRec, LocalBit, Module, PortDir, PortRec, Span};
use crate::MAX_DEPTH;

// ---------------------------------------------------------------------
// S-expressions.
// ---------------------------------------------------------------------

/// One form, its atoms and strings borrowed from the input text.
#[derive(Debug, Clone, PartialEq)]
enum Sexp<'t> {
    /// An unquoted atom: identifier or keyword.
    Sym(&'t str),
    /// A quoted string.
    Str(&'t str),
    /// An integer atom.
    Num(i64),
    /// A parenthesised list.
    List(Vec<Sexp<'t>>),
}

impl<'t> Sexp<'t> {
    /// `true` when this is a list whose head symbol equals `kw`
    /// (case-insensitive, as EDIF keywords are).
    fn is_form(&self, kw: &str) -> bool {
        matches!(self, Sexp::List(items)
            if matches!(items.first(), Some(Sexp::Sym(s)) if s.eq_ignore_ascii_case(kw)))
    }

    fn list(&self) -> &[Sexp<'t>] {
        match self {
            Sexp::List(items) => items,
            _ => &[],
        }
    }

    /// The first sub-form with head `kw`, if any.
    fn find(&self, kw: &str) -> Option<&Sexp<'t>> {
        self.list().iter().find(|s| s.is_form(kw))
    }

    /// All sub-forms with head `kw`.
    fn find_all<'a>(&'a self, kw: &'a str) -> impl Iterator<Item = &'a Sexp<'t>> + 'a {
        self.list().iter().filter(move |s| s.is_form(kw))
    }
}

fn lex_and_parse(text: &str) -> Result<Sexp<'_>, FrontendError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let sexp = parse_sexp(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(syntax(format!("trailing bytes at offset {pos}")));
    }
    Ok(sexp)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Parses one form; `depth` is the number of lists it sits inside.
fn parse_sexp<'t>(
    bytes: &'t [u8],
    pos: &mut usize,
    depth: usize,
) -> Result<Sexp<'t>, FrontendError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(syntax("unexpected end of EDIF input")),
        Some(b'(') => {
            if depth == MAX_DEPTH {
                return Err(syntax(format!(
                    "lists nested deeper than {MAX_DEPTH} at offset {pos}",
                    pos = *pos
                )));
            }
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    None => return Err(syntax("unbalanced '(' — EDIF input is truncated")),
                    Some(b')') => {
                        *pos += 1;
                        return Ok(Sexp::List(items));
                    }
                    Some(_) => items.push(parse_sexp(bytes, pos, depth + 1)?),
                }
            }
        }
        Some(b')') => Err(syntax(format!("unmatched ')' at offset {pos}", pos = *pos))),
        Some(b'"') => {
            *pos += 1;
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos] != b'"' {
                *pos += 1;
            }
            if *pos == bytes.len() {
                return Err(syntax("unterminated string — EDIF input is truncated"));
            }
            let s = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| syntax("non-UTF-8 bytes in string"))?;
            *pos += 1;
            Ok(Sexp::Str(s))
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && !bytes[*pos].is_ascii_whitespace()
                && !matches!(bytes[*pos], b'(' | b')' | b'"')
            {
                *pos += 1;
            }
            let atom = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| syntax("non-UTF-8 bytes in atom"))?;
            match atom.parse::<i64>() {
                Ok(n) => Ok(Sexp::Num(n)),
                Err(_) => Ok(Sexp::Sym(atom)),
            }
        }
    }
}

/// `(identifier, display name)`: both borrow the input, except a
/// numeric name, which is spelled anew.
type Names<'t> = (Cow<'t, str>, Cow<'t, str>);

/// A declaration-position name: a bare identifier or
/// `(rename id "original")`. Returns `(identifier, display name)` —
/// references (`portRef`, `instanceRef`, `cellRef`) use the identifier,
/// while the original string is the readable name worth keeping.
fn names_of<'t>(sexp: &Sexp<'t>) -> Result<Names<'t>, FrontendError> {
    match *sexp {
        Sexp::Sym(s) => Ok((Cow::Borrowed(s), Cow::Borrowed(s))),
        Sexp::Num(n) => Ok((Cow::Owned(n.to_string()), Cow::Owned(n.to_string()))),
        Sexp::List(_) if sexp.is_form("rename") => {
            let Some(&Sexp::Sym(id)) = sexp.list().get(1) else {
                return Err(syntax("malformed (rename ...)"));
            };
            match sexp.list().get(2) {
                Some(&Sexp::Str(s)) => Ok((Cow::Borrowed(id), Cow::Borrowed(s))),
                _ => Ok((Cow::Borrowed(id), Cow::Borrowed(id))),
            }
        }
        _ => Err(syntax(format!("expected a name, found {sexp:?}"))),
    }
}

/// A reference-position name: a bare identifier (renames never appear
/// in references).
fn name_of<'t>(sexp: &Sexp<'t>) -> Result<Cow<'t, str>, FrontendError> {
    Ok(names_of(sexp)?.0)
}

// ---------------------------------------------------------------------
// Netlist building.
// ---------------------------------------------------------------------

/// Parses EDIF text into a [`Design`] that borrows `text`.
///
/// # Errors
///
/// [`FrontendError::Syntax`] for lexical/structural problems,
/// [`FrontendError::DanglingRef`] for portRefs naming unknown instances
/// or ports, [`FrontendError::Unsupported`] for constructs outside the
/// netlist-view subset.
pub fn parse(text: &str) -> Result<Design<'_>, FrontendError> {
    let root = lex_and_parse(text)?;
    if !root.is_form("edif") {
        return Err(syntax("top-level form is not (edif ...)"));
    }

    // Pass 1: find every cell across all libraries (external ones too)
    // and classify module vs leaf by the presence of contents.
    struct ECell<'a, 't> {
        ident: Cow<'t, str>,
        name: Cow<'t, str>,
        ports: Vec<PortDecl<'t>>,
        contents: Option<&'a Sexp<'t>>,
    }
    let mut cells: Vec<ECell<'_, '_>> = Vec::new();
    for lib_form in root.find_all("library").chain(root.find_all("external")) {
        for cell_form in lib_form.find_all("cell") {
            let (cident, cname) = names_of(
                cell_form
                    .list()
                    .get(1)
                    .ok_or_else(|| syntax("(cell ...) without a name"))?,
            )?;
            let mut ports = Vec::new();
            let mut contents = None;
            for view in cell_form.find_all("view") {
                if let Some(iface) = view.find("interface") {
                    for port_form in iface.find_all("port") {
                        ports.push(parse_port_decl(port_form, &cname)?);
                    }
                }
                if let Some(c) = view.find("contents") {
                    contents = Some(c);
                }
            }
            cells.push(ECell {
                ident: cident,
                name: cname,
                ports,
                contents,
            });
        }
    }

    // Pass 2: lower every cell-with-contents into a Module. A cellRef
    // resolves by identifier (or display name) to the cell's display
    // name, which is also the Module name.
    let kinds: Vec<CellKind<'_, '_>> = cells
        .iter()
        .map(|c| CellKind {
            ident: &c.ident,
            name: &c.name,
            is_module: c.contents.is_some(),
            ports: &c.ports,
        })
        .collect();
    let mut modules = Vec::new();
    for cell in cells.iter().filter(|c| c.contents.is_some()) {
        modules.push(build_module(
            &cell.name,
            &cell.ports,
            cell.contents.expect("filtered on contents"),
            &kinds,
        )?);
    }
    if modules.is_empty() {
        return Err(syntax("EDIF input has no cell with contents"));
    }

    // Top: the (design ... (cellRef c)) pointer, else the last module.
    let top = match root.find("design").and_then(|d| d.find("cellref")) {
        Some(cr) => {
            let tref = name_of(
                cr.list()
                    .get(1)
                    .ok_or_else(|| syntax("(cellRef ...) without a name"))?,
            )?;
            let tname = kinds
                .iter()
                .find(|k| k.ident == tref || *k.name == tref)
                .map_or(tref, |k| k.name.clone());
            modules
                .iter()
                .position(|m| m.name() == tname)
                .ok_or_else(|| dangling(format!("(design ...) points at unknown cell {tname}")))?
        }
        None => modules.len() - 1,
    };
    Ok(Design { modules, top })
}

/// How a cell name resolves for instance kinds.
struct CellKind<'a, 't> {
    ident: &'a str,
    name: &'a Cow<'t, str>,
    is_module: bool,
    /// The cell's declared ports, for resolving renamed pin references.
    ports: &'a [PortDecl<'t>],
}

/// A declared port: reference identifier, display name, direction,
/// width.
struct PortDecl<'t> {
    ident: Cow<'t, str>,
    name: Cow<'t, str>,
    dir: PortDir,
    width: usize,
}

/// `(port name (direction INPUT))` or
/// `(port (array name width) (direction OUTPUT))`.
fn parse_port_decl<'t>(port_form: &Sexp<'t>, cell: &str) -> Result<PortDecl<'t>, FrontendError> {
    let head = port_form
        .list()
        .get(1)
        .ok_or_else(|| syntax(format!("(port ...) without a name in cell {cell}")))?;
    let ((ident, name), width) = if head.is_form("array") {
        let n = names_of(
            head.list()
                .get(1)
                .ok_or_else(|| syntax("(array ...) without a name"))?,
        )?;
        let w = match head.list().get(2) {
            Some(Sexp::Num(w)) if *w > 0 => *w as usize,
            _ => {
                return Err(syntax(format!(
                    "port {} of cell {cell} has a bad width",
                    n.1
                )))
            }
        };
        (n, w)
    } else {
        (names_of(head)?, 1)
    };
    let dir = match port_form.find("direction").and_then(|d| d.list().get(1)) {
        Some(Sexp::Sym(s)) if s.eq_ignore_ascii_case("input") => PortDir::Input,
        Some(Sexp::Sym(s)) if s.eq_ignore_ascii_case("output") => PortDir::Output,
        Some(Sexp::Sym(s)) if s.eq_ignore_ascii_case("inout") => {
            return Err(FrontendError::Unsupported {
                what: format!("inout port {name} in cell {cell}"),
            })
        }
        _ => {
            return Err(syntax(format!(
                "port {name} of cell {cell} has no direction"
            )))
        }
    };
    Ok(PortDecl {
        ident,
        name,
        dir,
        width,
    })
}

/// (port name, bit index, instance name or None).
type PortRef<'t> = (Cow<'t, str>, Option<usize>, Option<Cow<'t, str>>);

/// `(portRef p)`, `(portRef (member p k))`, optionally with
/// `(instanceRef i)`: → (port name, bit index, instance name or None).
fn parse_port_ref<'t>(pr: &Sexp<'t>) -> Result<PortRef<'t>, FrontendError> {
    let target = pr
        .list()
        .get(1)
        .ok_or_else(|| syntax("(portRef ...) without a target"))?;
    let (port, bit) = if target.is_form("member") {
        let p = name_of(
            target
                .list()
                .get(1)
                .ok_or_else(|| syntax("(member ...) without a name"))?,
        )?;
        let k = match target.list().get(2) {
            Some(Sexp::Num(k)) if *k >= 0 => *k as usize,
            _ => return Err(syntax(format!("(member {p} ...) has a bad index"))),
        };
        (p, Some(k))
    } else {
        (name_of(target)?, None)
    };
    let inst = match pr.find("instanceref") {
        Some(ir) => {
            Some(name_of(ir.list().get(1).ok_or_else(|| {
                syntax("(instanceRef ...) without a name")
            })?)?)
        }
        None => None,
    };
    Ok((port, bit, inst))
}

fn build_module<'t>(
    name: &Cow<'t, str>,
    ports: &[PortDecl<'t>],
    contents: &Sexp<'t>,
    cell_kinds: &[CellKind<'_, 't>],
) -> Result<Module<'t>, FrontendError> {
    let mut module = Module::default();
    module.name = module.keep(name.clone())?;
    let fresh = |module: &mut Module<'t>, spelling| -> u32 {
        let id = u32::try_from(module.net_names.len()).expect("net count fits in u32");
        module.net_names.push(spelling);
        id
    };

    // Instances first, so portRefs can be checked against them.
    struct EInst<'t> {
        ident: Cow<'t, str>,
        name: Cow<'t, str>,
        kind: Cow<'t, str>,
        kind_idx: Option<usize>,
        is_module_kind: bool,
        /// pin → per-bit net assignment (grown by member index).
        conns: Vec<(Cow<'t, str>, Vec<Option<u32>>)>,
    }
    let mut insts: Vec<EInst<'t>> = Vec::new();
    for inst_form in contents.find_all("instance") {
        let (iident, iname) = names_of(
            inst_form
                .list()
                .get(1)
                .ok_or_else(|| syntax(format!("(instance ...) without a name in {name}")))?,
        )?;
        let cellref = inst_form
            .find("viewref")
            .and_then(|vr| vr.find("cellref"))
            .or_else(|| inst_form.find("cellref"))
            .ok_or_else(|| syntax(format!("instance {iname} of {name} has no (cellRef ...)")))?;
        let kref = name_of(
            cellref
                .list()
                .get(1)
                .ok_or_else(|| syntax("(cellRef ...) without a name"))?,
        )?;
        // Resolve the reference to the cell's display name; unknown
        // cells stay as written and bind as leaves against the library.
        let kind_idx = cell_kinds
            .iter()
            .position(|k| k.ident == kref || *k.name == kref);
        let (kind, is_module_kind) = match kind_idx {
            Some(ki) => (cell_kinds[ki].name.clone(), cell_kinds[ki].is_module),
            None => (kref, false),
        };
        insts.push(EInst {
            ident: iident,
            name: iname,
            kind,
            kind_idx,
            is_module_kind,
            conns: Vec::new(),
        });
    }

    // Module port bits, assigned as nets join them.
    let mut port_bits: Vec<Vec<Option<u32>>> = ports.iter().map(|p| vec![None; p.width]).collect();

    for net_form in contents.find_all("net") {
        let (_, nname) = names_of(
            net_form
                .list()
                .get(1)
                .ok_or_else(|| syntax(format!("(net ...) without a name in {name}")))?,
        )?;
        let spelling = module.keep(nname.clone())?;
        let net = fresh(&mut module, spelling);
        let Some(joined) = net_form.find("joined") else {
            continue; // A net with no connections is legal and inert.
        };
        for pr in joined.find_all("portref") {
            let (port, bit, inst) = parse_port_ref(pr)?;
            match inst {
                None => {
                    // Module port of this cell.
                    let Some(pidx) = ports.iter().position(|p| p.ident == port || p.name == port)
                    else {
                        return Err(dangling(format!(
                            "net {nname} of {name} joins unknown port {port}"
                        )));
                    };
                    let width = ports[pidx].width;
                    let k = bit.unwrap_or(0);
                    if k >= width {
                        return Err(dangling(format!(
                            "net {nname} of {name} joins bit {k} of {width}-bit port {port}"
                        )));
                    }
                    if bit.is_none() && width != 1 {
                        return Err(FrontendError::WidthMismatch {
                            cell: name.to_string(),
                            pin: port.into_owned(),
                            expected: width,
                            got: 1,
                        });
                    }
                    if port_bits[pidx][k].replace(net).is_some() {
                        return Err(FrontendError::Unsupported {
                            what: format!("port {port} bit {k} of {name} joined twice"),
                        });
                    }
                }
                Some(iname) => {
                    let Some(einst) = insts
                        .iter_mut()
                        .find(|i| i.ident == iname || i.name == iname)
                    else {
                        return Err(dangling(format!(
                            "net {nname} of {name} references unknown instance {iname}"
                        )));
                    };
                    if bit.is_some() && !einst.is_module_kind {
                        return Err(FrontendError::Unsupported {
                            what: format!(
                                "(member ...) on pin {port} of leaf instance {iname} in {name}"
                            ),
                        });
                    }
                    let k = bit.unwrap_or(0);
                    // Renamed child ports: the portRef carries the
                    // identifier; store the display name the child's
                    // Module declares.
                    let pin = match einst.kind_idx.and_then(|ki| {
                        cell_kinds[ki]
                            .ports
                            .iter()
                            .find(|p| p.ident == port || p.name == port)
                    }) {
                        Some(p) => p.name.clone(),
                        None => port.clone(),
                    };
                    let conn = match einst.conns.iter_mut().position(|(p, _)| *p == pin) {
                        Some(at) => &mut einst.conns[at].1,
                        None => {
                            einst.conns.push((pin, Vec::new()));
                            &mut einst.conns.last_mut().expect("just pushed").1
                        }
                    };
                    if conn.len() <= k {
                        conn.resize(k + 1, None);
                    }
                    if conn[k].replace(net).is_some() {
                        return Err(FrontendError::Unsupported {
                            what: format!(
                                "pin {port} bit {k} of instance {iname} in {name} joined twice"
                            ),
                        });
                    }
                }
            }
        }
    }

    // Finalise: unjoined port bits and connection holes get fresh
    // implicit nets (dangling but well-defined; the lowering's undriven
    // check catches any that actually matter).
    for (decl, bits) in ports.iter().zip(port_bits) {
        let start = module.bits.len();
        for (k, bit) in bits.into_iter().enumerate() {
            let id = match bit {
                Some(n) => n,
                None => {
                    let spelling = if decl.width == 1 {
                        module.keep(decl.name.clone())?
                    } else {
                        module.spell(|buf| {
                            write!(buf, "{}[{k}]", decl.name).expect("writing to a String")
                        })?
                    };
                    fresh(&mut module, spelling)
                }
            };
            module.bits.push(LocalBit::Net(id));
        }
        let port = PortRec {
            name: module.keep(decl.name.clone())?,
            dir: decl.dir,
            bits: Span::new(start, module.bits.len())?,
        };
        module.ports.push(port);
    }
    for inst in insts {
        let first_conn = module.conns.len();
        for (pin, slots) in inst.conns {
            let start = module.bits.len();
            for (k, slot) in slots.into_iter().enumerate() {
                let id = match slot {
                    Some(n) => n,
                    None => {
                        let spelling = module.spell(|buf| {
                            write!(buf, "{}.{pin}[{k}]", inst.name).expect("writing to a String")
                        })?;
                        fresh(&mut module, spelling)
                    }
                };
                module.bits.push(LocalBit::Net(id));
            }
            let conn = ConnRec {
                pin: module.keep(pin)?,
                bits: Span::new(start, module.bits.len())?,
            };
            module.conns.push(conn);
        }
        let rec = InstRec {
            name: module.keep(inst.name)?,
            kind: module.keep(inst.kind)?,
            conns: Span::new(first_conn, module.conns.len())?,
        };
        module.insts.push(rec);
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use asicgap_cells::{CellFunction, LibrarySpec};
    use asicgap_netlist::Simulator;
    use asicgap_tech::Technology;

    #[test]
    fn list_nesting_is_capped() {
        let nested = |n: usize| format!("{}x{}", "(".repeat(n), ")".repeat(n));
        lex_and_parse(&nested(MAX_DEPTH)).expect("the cap itself is allowed");
        assert!(matches!(
            lex_and_parse(&nested(MAX_DEPTH + 1)),
            Err(FrontendError::Syntax { .. })
        ));
    }

    fn tiny_edif(nand: &str) -> String {
        // half = one NAND; top chains two halves into AND(a,b).
        format!(
            r#"(edif demo
  (edifVersion 2 0 0)
  (library work
    (cell {nand}
      (view netlist (viewType NETLIST)
        (interface
          (port a (direction INPUT))
          (port b (direction INPUT))
          (port y (direction OUTPUT)))))
    (cell half
      (view netlist (viewType NETLIST)
        (interface
          (port p (direction INPUT))
          (port q (direction INPUT))
          (port r (direction OUTPUT)))
        (contents
          (instance g (viewRef netlist (cellRef {nand})))
          (net np (joined (portRef p) (portRef a (instanceRef g))))
          (net nq (joined (portRef q) (portRef b (instanceRef g))))
          (net nr (joined (portRef r) (portRef y (instanceRef g)))))))
    (cell top
      (view netlist (viewType NETLIST)
        (interface
          (port a (direction INPUT))
          (port b (direction INPUT))
          (port y (direction OUTPUT)))
        (contents
          (instance u0 (viewRef netlist (cellRef half)))
          (instance u1 (viewRef netlist (cellRef half)))
          (net na (joined (portRef a) (portRef p (instanceRef u0))))
          (net nb (joined (portRef b) (portRef q (instanceRef u0))))
          (net nt (joined (portRef r (instanceRef u0))
                          (portRef p (instanceRef u1))
                          (portRef q (instanceRef u1))))
          (net ny (joined (portRef y) (portRef r (instanceRef u1))))))))
  (design demo (cellRef top) (libraryRef work)))
"#
        )
    }

    fn lib() -> asicgap_cells::Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    fn nand_name(lib: &asicgap_cells::Library) -> String {
        lib.cell(lib.smallest(CellFunction::Nand(2)).expect("nand2"))
            .name
            .clone()
    }

    #[test]
    fn hierarchical_edif_parses_and_lowers() {
        let lib = lib();
        let text = tiny_edif(&nand_name(&lib));
        let design = parse(&text).expect("parses");
        assert_eq!(design.top_module().name(), "top");
        assert_eq!(design.modules.len(), 2, "leaf cell is not a module");
        let n = lower(&design, &lib, &LowerOptions::default()).expect("lowers");
        assert_eq!(n.instance_count(), 2);
        let mut sim = Simulator::new(&n, &lib);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(sim.run_comb(&[a, b]), vec![a && b], "a={a} b={b}");
        }
    }

    #[test]
    fn rename_resolves_to_the_original_string() {
        let lib = lib();
        let nand = nand_name(&lib);
        let text = tiny_edif(&nand).replace("(instance g ", "(instance (rename g \"g.mangled\") ");
        let design = parse(&text).expect("parses");
        let half = design
            .modules
            .iter()
            .find(|m| m.name() == "half")
            .expect("half module");
        assert_eq!(half.inst(0).name(), "g.mangled");
    }

    #[test]
    fn truncated_input_is_a_syntax_error() {
        let lib = lib();
        let text = tiny_edif(&nand_name(&lib));
        for cut in [text.len() / 3, text.len() / 2, text.len() - 2] {
            let got = parse(&text[..cut]);
            assert!(
                matches!(got, Err(FrontendError::Syntax { .. })),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn dangling_portref_is_a_typed_error() {
        let lib = lib();
        let text = tiny_edif(&nand_name(&lib)).replace("(instanceRef u1)))", "(instanceRef ux)))");
        assert!(matches!(
            parse(&text),
            Err(FrontendError::DanglingRef { .. })
        ));
    }

    #[test]
    fn array_ports_use_member_bits() {
        let lib = lib();
        let nand = nand_name(&lib);
        let text = format!(
            r#"(edif demo
  (library work
    (cell {nand}
      (view netlist (viewType NETLIST)
        (interface
          (port a (direction INPUT))
          (port b (direction INPUT))
          (port y (direction OUTPUT)))))
    (cell top
      (view netlist (viewType NETLIST)
        (interface
          (port (array d 2) (direction INPUT))
          (port y (direction OUTPUT)))
        (contents
          (instance g (viewRef netlist (cellRef {nand})))
          (net n0 (joined (portRef (member d 0)) (portRef a (instanceRef g))))
          (net n1 (joined (portRef (member d 1)) (portRef b (instanceRef g))))
          (net ny (joined (portRef y) (portRef y (instanceRef g))))))))
  (design demo (cellRef top)))
"#
        );
        let design = parse(&text).expect("parses");
        let n = lower(&design, &lib, &LowerOptions::default()).expect("lowers");
        assert_eq!(n.inputs().len(), 2);
        let mut sim = Simulator::new(&n, &lib);
        assert_eq!(sim.run_comb(&[true, true]), vec![false]);
        assert_eq!(sim.run_comb(&[true, false]), vec![true]);
    }
}
