//! Cycle-accurate functional simulation.
//!
//! Used to verify that generated circuits compute what they claim and that
//! netlist transformations (drive selection, sizing, buffering, pipelining)
//! preserve behaviour — the workspace's stand-in for formal equivalence
//! checking.

use asicgap_cells::Library;

use crate::ids::{InstId, NetId};
use crate::netlist::Netlist;

/// A two-valued (0/1) simulator over one netlist.
///
/// Sequential elements (flip-flops *and* latches — latches are treated as
/// edge-triggered for functional purposes, which is exact when the
/// surrounding logic meets timing) hold state that advances on
/// [`Simulator::step_clock`].
///
/// # Example
///
/// ```
/// use asicgap_tech::Technology;
/// use asicgap_cells::LibrarySpec;
/// use asicgap_netlist::{generators, Simulator};
///
/// let tech = Technology::cmos025_asic();
/// let lib = LibrarySpec::rich().build(&tech);
/// let n = generators::parity_tree(&lib, 8)?;
/// let mut sim = Simulator::new(&n, &lib);
/// sim.set_inputs(&[true, true, true, false, false, false, false, false]);
/// sim.eval_comb();
/// assert!(sim.output_values()[0]); // odd number of ones
/// # Ok::<(), asicgap_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    lib: &'a Library,
    /// Current logic value of each net.
    values: Vec<bool>,
    /// State of each sequential instance (indexed like instances; unused
    /// entries for combinational cells).
    state: Vec<bool>,
    /// Cached combinational evaluation order.
    order: &'a [InstId],
    /// Reusable fan-in value buffer — `eval_comb` allocates nothing per
    /// gate.
    scratch: Vec<bool>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all nets and state at logic 0.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (validated designs
    /// never do).
    pub fn new(netlist: &'a Netlist, lib: &'a Library) -> Simulator<'a> {
        let order = netlist
            .topo_order()
            .expect("simulation requires an acyclic combinational netlist");
        Simulator {
            netlist,
            lib,
            values: vec![false; netlist.net_count()],
            state: vec![false; netlist.instance_count()],
            order,
            scratch: Vec::with_capacity(crate::netlist::INLINE_FANIN),
        }
    }

    /// Sets all primary inputs, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count.
    pub fn set_inputs(&mut self, values: &[bool]) {
        let inputs = self.netlist.inputs();
        assert_eq!(
            values.len(),
            inputs.len(),
            "expected {} input values, got {}",
            inputs.len(),
            values.len()
        );
        for ((_, net), &v) in inputs.iter().zip(values) {
            self.values[net.index()] = v;
        }
    }

    /// Sets one primary input by name.
    ///
    /// # Panics
    ///
    /// Panics if no input has that name.
    pub fn set_input(&mut self, name: &str, value: bool) {
        let (_, net) = self
            .netlist
            .inputs()
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no primary input named {name}"));
        self.values[net.index()] = value;
    }

    /// Propagates values through the combinational logic. Sequential
    /// outputs present their stored state.
    pub fn eval_comb(&mut self) {
        // Sequential outputs first: they are sources for this cycle.
        for (id, inst) in self.netlist.iter_instances() {
            if inst.is_sequential() {
                self.values[inst.out().index()] = self.state[id.index()];
            }
        }
        for &id in self.order {
            self.scratch.clear();
            for n in self.netlist.fanin(id) {
                self.scratch.push(self.values[n.index()]);
            }
            let inst = self.netlist.instance(id);
            let f = self.lib.cell(inst.cell()).function;
            self.values[inst.out().index()] = f.eval(&self.scratch);
        }
    }

    /// Captures D inputs into every sequential element (a rising clock
    /// edge), then re-evaluates the combinational logic.
    pub fn step_clock(&mut self) {
        let captured: Vec<(usize, bool)> = self
            .netlist
            .iter_instances()
            .filter(|(_, inst)| inst.is_sequential())
            .map(|(id, inst)| (id.index(), self.values[inst.fanin()[0].index()]))
            .collect();
        for (idx, v) in captured {
            self.state[idx] = v;
        }
        self.eval_comb();
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Overrides the stored state of a sequential instance. Equivalence
    /// checking uses this to replay counterexamples that depend on
    /// register contents; call before [`Simulator::eval_comb`].
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not sequential.
    pub fn set_state(&mut self, inst: InstId, value: bool) {
        assert!(
            self.netlist.instance(inst).is_sequential(),
            "state is only defined for sequential instances"
        );
        self.state[inst.index()] = value;
    }

    /// Values of all primary outputs, in declaration order.
    pub fn output_values(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|(_, net)| self.values[net.index()])
            .collect()
    }

    /// Convenience: drive inputs, evaluate, and return outputs. Purely
    /// combinational designs need nothing else.
    pub fn run_comb(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.set_inputs(inputs);
        self.eval_comb();
        self.output_values()
    }

    /// Runs enough clock cycles for values to traverse an `n_stage`
    /// pipeline, holding the inputs stable, then returns the outputs.
    pub fn run_pipelined(&mut self, inputs: &[bool], n_stages: usize) -> Vec<bool> {
        self.set_inputs(inputs);
        self.eval_comb();
        for _ in 0..n_stages {
            self.step_clock();
        }
        self.output_values()
    }
}

/// Converts the low `width` bits of `value` to a bool vector, LSB first.
pub fn to_bits(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| value & (1 << i) != 0).collect()
}

/// Converts a bool slice (LSB first) to a u64.
///
/// # Panics
///
/// Panics if `bits.len() > 64`.
pub fn from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "too many bits for u64");
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    #[test]
    fn bits_round_trip() {
        for v in [0u64, 1, 5, 200, 65535] {
            assert_eq!(from_bits(&to_bits(v, 16)), v & 0xFFFF);
        }
    }

    #[test]
    fn dff_chain_delays_by_cycles() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = NetlistBuilder::new("shift2", &lib);
        let d = b.input("d");
        let q1 = b.dff(d).expect("dff ok");
        let q2 = b.dff(q1).expect("dff ok");
        b.output("q", q2);
        let n = b.finish().expect("valid");

        let mut sim = Simulator::new(&n, &lib);
        sim.set_inputs(&[true]);
        sim.eval_comb();
        assert!(!sim.output_values()[0], "not yet captured");
        sim.step_clock();
        assert!(!sim.output_values()[0], "one stage in");
        sim.step_clock();
        assert!(sim.output_values()[0], "arrived after two edges");
    }

    #[test]
    fn toggle_flop_oscillates() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut n = Netlist::new("toggle");
        let q = n.add_net("q");
        let d = n.add_net("d");
        use asicgap_cells::CellFunction;
        n.add_instance(
            "ff",
            &lib,
            lib.smallest(CellFunction::Dff).expect("dff"),
            &[d],
            q,
        )
        .expect("ff");
        n.add_instance(
            "inv",
            &lib,
            lib.smallest(CellFunction::Inv).expect("inv"),
            &[q],
            d,
        )
        .expect("inv");
        n.add_output("q", q);
        let mut sim = Simulator::new(&n, &lib);
        sim.eval_comb();
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.step_clock();
            seen.push(sim.output_values()[0]);
        }
        assert_eq!(seen, vec![true, false, true, false]);
    }
}
