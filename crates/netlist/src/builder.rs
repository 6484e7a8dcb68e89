//! [`NetlistBuilder`]: ergonomic construction with library-aware fallbacks.
//!
//! The builder is where library richness (§6 of the paper) bites: asking
//! for an XOR yields a single `xor2` cell when the target library has one,
//! and a four-NAND2 decomposition when it does not — two extra logic levels
//! on every XOR of a poor-library adder, exactly the effect the paper
//! describes for early standard-cell libraries.

use asicgap_cells::{CellFunction, CellId, Library, LogicFamily};

use crate::error::NetlistError;
use crate::ids::NetId;
use crate::netlist::Netlist;

/// Builds a [`Netlist`] against a target [`Library`].
///
/// # Example
///
/// ```
/// use asicgap_tech::Technology;
/// use asicgap_cells::LibrarySpec;
/// use asicgap_netlist::NetlistBuilder;
///
/// let tech = Technology::cmos025_asic();
/// let lib = LibrarySpec::rich().build(&tech);
/// let mut b = NetlistBuilder::new("majority", &lib);
/// let a = b.input("a");
/// let x = b.input("b");
/// let c = b.input("c");
/// let m = b.maj3(a, x, c)?;
/// b.output("m", m);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.outputs().len(), 1);
/// # Ok::<(), asicgap_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct NetlistBuilder<'a> {
    lib: &'a Library,
    netlist: Netlist,
    auto_net: usize,
    auto_inst: usize,
}

impl<'a> NetlistBuilder<'a> {
    /// Starts building `name` against `lib`.
    pub fn new(name: impl Into<String>, lib: &'a Library) -> NetlistBuilder<'a> {
        NetlistBuilder {
            lib,
            netlist: Netlist::new(name),
            auto_net: 0,
            auto_inst: 0,
        }
    }

    /// The target library.
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// Read access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Declares a primary input and returns its net.
    ///
    /// # Panics
    ///
    /// Panics if a net with an auto-generated colliding name exists
    /// (cannot happen through this builder).
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let net = self.netlist.add_net(name.clone());
        self.netlist
            .add_input(name, net)
            .expect("fresh net has no driver");
        net
    }

    /// Declares `net` as primary output `name`.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.netlist.add_output(name, net);
    }

    /// Adds a fresh internal net.
    pub fn fresh_net(&mut self) -> NetId {
        let id = self.netlist.add_net(format!("_n{}", self.auto_net));
        self.auto_net += 1;
        id
    }

    fn fresh_inst_name(&mut self, base: &str) -> String {
        let name = format!("{base}_{}", self.auto_inst);
        self.auto_inst += 1;
        name
    }

    /// Instantiates an explicit library cell; returns the output net.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::ArityMismatch`].
    pub fn cell(&mut self, cell: CellId, fanin: &[NetId]) -> Result<NetId, NetlistError> {
        let out = self.fresh_net();
        let name = self.fresh_inst_name(&self.lib.cell(cell).name.clone());
        self.netlist
            .add_instance(name, self.lib, cell, fanin, out)?;
        Ok(out)
    }

    /// Instantiates the smallest static CMOS cell of `function`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] if the library lacks the
    /// function entirely — use the logic helpers (`and2`, `xor2`, …) when a
    /// decomposition fallback is acceptable.
    pub fn gate(&mut self, function: CellFunction, fanin: &[NetId]) -> Result<NetId, NetlistError> {
        let cell = self
            .lib
            .smallest(function)
            .ok_or_else(|| NetlistError::MissingCell {
                what: function.to_string(),
            })?;
        self.cell(cell, fanin)
    }

    /// Like [`NetlistBuilder::gate`] but instantiates a domino-family cell.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] if there is no domino variant.
    pub fn domino_gate(
        &mut self,
        function: CellFunction,
        fanin: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let ids = self.lib.drives_for(function, LogicFamily::Domino);
        let cell = ids
            .first()
            .copied()
            .ok_or_else(|| NetlistError::MissingCell {
                what: format!("domino {function}"),
            })?;
        self.cell(cell, fanin)
    }

    fn has(&self, function: CellFunction) -> bool {
        self.lib.has_function(function, LogicFamily::StaticCmos)
    }

    // ----- logic helpers with decomposition fallbacks -------------------

    /// Inverter. Every library has one.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] for a (degenerate) library
    /// with no inverter.
    pub fn inv(&mut self, a: NetId) -> Result<NetId, NetlistError> {
        self.gate(CellFunction::Inv, &[a])
    }

    /// Buffer: a `buf` cell, or two inverters.
    ///
    /// # Errors
    ///
    /// Propagates missing-inverter errors.
    pub fn buf(&mut self, a: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::Buf) {
            self.gate(CellFunction::Buf, &[a])
        } else {
            let n = self.inv(a)?;
            self.inv(n)
        }
    }

    /// 2-input NAND (primitive in every library we generate).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] if absent.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        self.gate(CellFunction::Nand(2), &[a, b])
    }

    /// 2-input NOR.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] if absent.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        self.gate(CellFunction::Nor(2), &[a, b])
    }

    /// 2-input AND: `and2` cell, or NAND2 + INV.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    pub fn and2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::And(2)) {
            self.gate(CellFunction::And(2), &[a, b])
        } else {
            let n = self.nand2(a, b)?;
            self.inv(n)
        }
    }

    /// 2-input OR: `or2` cell, or NOR2 + INV.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    pub fn or2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::Or(2)) {
            self.gate(CellFunction::Or(2), &[a, b])
        } else {
            let n = self.nor2(a, b)?;
            self.inv(n)
        }
    }

    /// 2-input XOR: `xor2` cell, or the classic four-NAND2 network.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::Xor2) {
            self.gate(CellFunction::Xor2, &[a, b])
        } else {
            let n1 = self.nand2(a, b)?;
            let n2 = self.nand2(a, n1)?;
            let n3 = self.nand2(b, n1)?;
            self.nand2(n2, n3)
        }
    }

    /// 2-input XNOR: `xnor2` cell, or XOR + INV.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::Xnor2) {
            self.gate(CellFunction::Xnor2, &[a, b])
        } else {
            let x = self.xor2(a, b)?;
            self.inv(x)
        }
    }

    /// 3-input XOR (full-adder sum): `xor3` macro, or two XOR2s.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    pub fn xor3(&mut self, a: NetId, b: NetId, c: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::Xor3) {
            self.gate(CellFunction::Xor3, &[a, b, c])
        } else {
            let x = self.xor2(a, b)?;
            self.xor2(x, c)
        }
    }

    /// 3-input majority (full-adder carry): `maj3` macro, or NAND network
    /// `maj = NAND3(NAND2(a,b), NAND2(b,c), NAND2(a,c))`.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    pub fn maj3(&mut self, a: NetId, b: NetId, c: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::Maj3) {
            self.gate(CellFunction::Maj3, &[a, b, c])
        } else {
            let ab = self.nand2(a, b)?;
            let bc = self.nand2(b, c)?;
            let ac = self.nand2(a, c)?;
            if self.has(CellFunction::Nand(3)) {
                self.gate(CellFunction::Nand(3), &[ab, bc, ac])
            } else {
                let t = self.and2(ab, bc)?;
                self.nand2(t, ac)
            }
        }
    }

    /// 2:1 MUX (`s ? b : a`): `mux2` cell, or
    /// `NAND2(NAND2(a, !s), NAND2(b, s))`.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    pub fn mux2(&mut self, a: NetId, b: NetId, s: NetId) -> Result<NetId, NetlistError> {
        if self.has(CellFunction::Mux2) {
            self.gate(CellFunction::Mux2, &[a, b, s])
        } else {
            let ns = self.inv(s)?;
            let t0 = self.nand2(a, ns)?;
            let t1 = self.nand2(b, s)?;
            self.nand2(t0, t1)
        }
    }

    /// Balanced AND over any number of nets.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty.
    pub fn and_tree(&mut self, nets: &[NetId]) -> Result<NetId, NetlistError> {
        self.reduce_tree(nets, |b, x, y| b.and2(x, y))
    }

    /// Balanced OR over any number of nets.
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty.
    pub fn or_tree(&mut self, nets: &[NetId]) -> Result<NetId, NetlistError> {
        self.reduce_tree(nets, |b, x, y| b.or2(x, y))
    }

    /// Balanced XOR over any number of nets (parity).
    ///
    /// # Errors
    ///
    /// Propagates missing-primitive errors.
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty.
    pub fn xor_tree(&mut self, nets: &[NetId]) -> Result<NetId, NetlistError> {
        self.reduce_tree(nets, |b, x, y| b.xor2(x, y))
    }

    fn reduce_tree(
        &mut self,
        nets: &[NetId],
        mut op: impl FnMut(&mut Self, NetId, NetId) -> Result<NetId, NetlistError>,
    ) -> Result<NetId, NetlistError> {
        assert!(!nets.is_empty(), "reduce over empty net list");
        let mut level: Vec<NetId> = nets.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.chunks(2);
            for pair in &mut it {
                match pair {
                    [x, y] => next.push(op(self, *x, *y)?),
                    [x] => next.push(*x),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                }
            }
            level = next;
        }
        Ok(level[0])
    }

    /// D flip-flop: returns the Q net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] if the library has no
    /// flip-flop.
    pub fn dff(&mut self, d: NetId) -> Result<NetId, NetlistError> {
        self.gate(CellFunction::Dff, &[d])
    }

    /// Finishes the netlist, running full validation. The CSR sink pool
    /// is compacted to an exact fit, so a freshly built netlist carries
    /// none of the construction-time slack.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] summarising the first issues, or
    /// [`NetlistError::CombinationalCycle`].
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let mut netlist = self.netlist;
        netlist.pack();
        let issues = crate::validate::validate(&netlist);
        if !issues.is_empty() {
            let summary = issues
                .iter()
                .take(3)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(NetlistError::Invalid { summary });
        }
        netlist.topo_order()?;
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    #[test]
    fn xor_uses_cell_in_rich_library() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = NetlistBuilder::new("x", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c).expect("xor ok");
        b.output("y", y);
        let n = b.finish().expect("valid");
        assert_eq!(n.instance_count(), 1, "one xor2 cell");
    }

    #[test]
    fn xor_decomposes_in_poor_library() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::poor().build(&tech);
        let mut b = NetlistBuilder::new("x", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c).expect("xor fallback ok");
        b.output("y", y);
        let n = b.finish().expect("valid");
        assert_eq!(n.instance_count(), 4, "four NAND2s");
    }

    #[test]
    fn trees_are_balanced() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = NetlistBuilder::new("t", &lib);
        let ins: Vec<NetId> = (0..8).map(|i| b.input(format!("i{i}"))).collect();
        let y = b.and_tree(&ins).expect("tree ok");
        b.output("y", y);
        let n = b.finish().expect("valid");
        // 8 leaves -> 7 AND2s in a balanced binary tree.
        assert_eq!(n.instance_count(), 7);
    }

    #[test]
    fn mux_fallback_matches_truth_table() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::poor().build(&tech);
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let s = b.input("s");
        let y = b.mux2(a, c, s).expect("mux fallback ok");
        b.output("y", y);
        let n = b.finish().expect("valid");
        let mut sim = crate::sim::Simulator::new(&n, &lib);
        for bits in 0..8u32 {
            let a_v = bits & 1 != 0;
            let b_v = bits & 2 != 0;
            let s_v = bits & 4 != 0;
            sim.set_inputs(&[a_v, b_v, s_v]);
            sim.eval_comb();
            let expect = if s_v { b_v } else { a_v };
            assert_eq!(sim.output_values()[0], expect, "bits {bits:03b}");
        }
    }
}
