//! Importing netlists into the shared miter [`Graph`], and the one
//! expansion of a cell function into AND nodes ([`build_function`]) that
//! the checker and synthesis share.
//!
//! Sequential elements are handled in one of two ways:
//!
//! - [`SeqMode::Cut`]: every register is cut — its Q output becomes a
//!   pseudo-input and its D cone a pseudo-output, keyed so both sides of
//!   the miter pair up. The key is the instance name, except when the Q
//!   net is named `__q_<key>` (the convention `asicgap-synth` re-entry
//!   stamps on remapped registers), in which case the original key is
//!   recovered from the net name. This is exactly the sequential
//!   equivalence contract the optimisation flows guarantee: register
//!   *functions* move, register *boundaries* do not.
//! - [`SeqMode::Transparent`]: registers are treated as wires (DFF ≡
//!   buffer). A pipelined netlist — where every inserted register is a
//!   pure delay element on a feed-forward cut — is then combinationally
//!   equivalent to its flat original, which is precisely the retiming
//!   correctness claim.

use std::collections::HashMap;

use asicgap_cells::{CellFunction, Library};
use asicgap_netlist::{InstId, NetDriver, Netlist};

use crate::error::EquivError;
use crate::graph::{AigOps, Graph, Lit};

/// How to treat sequential elements during import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeqMode {
    /// Cut registers: Q → pseudo-input, D → pseudo-output, matched by
    /// register key across the miter.
    #[default]
    Cut,
    /// Registers become wires; the design must be feed-forward.
    Transparent,
}

/// The result of importing one netlist into the miter graph.
#[derive(Debug, Clone)]
pub(crate) struct ImportedNetlist {
    /// Checkable outputs as (name, literal): primary outputs in
    /// declaration order, then (in [`SeqMode::Cut`]) one `__d_<key>`
    /// pseudo-output per register.
    pub(crate) outputs: Vec<(String, Lit)>,
    /// Register cut points as (key, instance), in instance order. Empty
    /// in [`SeqMode::Transparent`].
    pub(crate) registers: Vec<(String, InstId)>,
}

/// The cut-point key of a sequential instance: the suffix of a
/// `__q_`-prefixed Q-net name when present (identity preserved across
/// remapping), the instance name otherwise.
pub(crate) fn register_key(netlist: &Netlist, inst: InstId) -> String {
    let i = netlist.instance(inst);
    let qname = netlist.net(i.out()).name();
    match qname.strip_prefix("__q_") {
        Some(key) => key.to_string(),
        None => i.name().to_string(),
    }
}

/// Imports `netlist` into `g`, sharing inputs by name with anything
/// already imported.
///
/// # Errors
///
/// [`EquivError::DuplicateRegisterKey`] if two registers collide on a
/// key, [`EquivError::SequentialLoop`] for transparent import of a
/// design with register feedback, and propagated netlist errors.
pub(crate) fn import_netlist(
    g: &mut Graph,
    netlist: &Netlist,
    lib: &Library,
    mode: SeqMode,
) -> Result<ImportedNetlist, EquivError> {
    let mut lit_of: Vec<Option<Lit>> = vec![None; netlist.net_count()];
    for (name, net) in netlist.inputs() {
        lit_of[net.index()] = Some(g.input(name));
    }

    let mut registers: Vec<(String, InstId)> = Vec::new();
    match mode {
        SeqMode::Cut => {
            let mut seen: HashMap<String, ()> = HashMap::new();
            for (id, inst) in netlist.iter_instances() {
                if !inst.is_sequential() {
                    continue;
                }
                let key = register_key(netlist, id);
                if seen.insert(key.clone(), ()).is_some() {
                    return Err(EquivError::DuplicateRegisterKey { key });
                }
                lit_of[inst.out().index()] = Some(g.input(&format!("__q_{key}")));
                registers.push((key, id));
            }
            for &id in netlist.topo_order()? {
                import_instance(g, netlist, lib, id, &mut lit_of);
            }
        }
        SeqMode::Transparent => {
            transparent_walk(g, netlist, lib, &mut lit_of)?;
        }
    }

    let mut outputs: Vec<(String, Lit)> = netlist
        .outputs()
        .iter()
        .map(|(name, net)| {
            (
                name.clone(),
                lit_of[net.index()].expect("outputs are driven"),
            )
        })
        .collect();
    for (key, id) in &registers {
        let d = netlist.instance(*id).fanin()[0];
        outputs.push((
            format!("__d_{key}"),
            lit_of[d.index()].expect("D nets are driven"),
        ));
    }
    Ok(ImportedNetlist { outputs, registers })
}

/// Kahn walk over *all* instances with sequential cells as identity.
fn transparent_walk(
    g: &mut Graph,
    netlist: &Netlist,
    lib: &Library,
    lit_of: &mut [Option<Lit>],
) -> Result<(), EquivError> {
    let mut indeg = vec![0usize; netlist.instance_count()];
    for (i, (_, inst)) in netlist.iter_instances().enumerate() {
        for &f in inst.fanin() {
            if matches!(netlist.net(f).driver(), Some(NetDriver::Instance(_))) {
                indeg[i] += 1;
            }
        }
    }
    let mut queue: Vec<InstId> = netlist
        .iter_instances()
        .filter(|(id, _)| indeg[id.index()] == 0)
        .map(|(id, _)| id)
        .collect();
    let mut done = 0usize;
    while let Some(id) = queue.pop() {
        done += 1;
        let inst = netlist.instance(id);
        if inst.is_sequential() {
            let d = lit_of[inst.fanin()[0].index()].expect("walk visits fanin first");
            lit_of[inst.out().index()] = Some(d);
        } else {
            import_instance(g, netlist, lib, id, lit_of);
        }
        for s in netlist.net(inst.out()).sinks() {
            indeg[s.inst.index()] -= 1;
            if indeg[s.inst.index()] == 0 {
                queue.push(s.inst);
            }
        }
    }
    if done != netlist.instance_count() {
        let net = netlist
            .iter_instances()
            .find(|(id, _)| indeg[id.index()] > 0)
            .map(|(_, inst)| netlist.net(inst.out()).name().to_string())
            .unwrap_or_default();
        return Err(EquivError::SequentialLoop { net });
    }
    Ok(())
}

fn import_instance(
    g: &mut Graph,
    netlist: &Netlist,
    lib: &Library,
    id: InstId,
    lit_of: &mut [Option<Lit>],
) {
    let inst = netlist.instance(id);
    let ins: Vec<Lit> = inst
        .fanin()
        .iter()
        .map(|n| lit_of[n.index()].expect("topological order visits fanin first"))
        .collect();
    let f = lib.cell(inst.cell()).function;
    lit_of[inst.out().index()] = Some(build_function(g, f, &ins));
}

/// Expands one combinational cell function over graph literals: the
/// miter import here, and in `asicgap-synth` re-entry and the frontend's
/// lowering of bound library cells.
///
/// # Panics
///
/// Panics on arity mismatch or a sequential function (flip-flops are
/// register boundaries, not gates).
pub fn build_function<G: AigOps + ?Sized>(g: &mut G, f: CellFunction, ins: &[Lit]) -> Lit {
    assert_eq!(ins.len(), f.num_inputs(), "{f} arity mismatch");
    match f {
        CellFunction::Inv => ins[0].not(),
        CellFunction::Buf => ins[0],
        CellFunction::And(_) => g.and_all(ins),
        CellFunction::Nand(_) => g.and_all(ins).not(),
        CellFunction::Or(_) => {
            let nots: Vec<Lit> = ins.iter().map(|l| l.not()).collect();
            g.and_all(&nots).not()
        }
        CellFunction::Nor(_) => {
            let nots: Vec<Lit> = ins.iter().map(|l| l.not()).collect();
            g.and_all(&nots)
        }
        CellFunction::Xor2 => g.xor(ins[0], ins[1]),
        CellFunction::Xnor2 => g.xor(ins[0], ins[1]).not(),
        CellFunction::Xor3 => {
            let t = g.xor(ins[0], ins[1]);
            g.xor(t, ins[2])
        }
        CellFunction::Maj3 => g.maj(ins[0], ins[1], ins[2]),
        CellFunction::Aoi21 => {
            let t = g.and(ins[0], ins[1]);
            g.or(t, ins[2]).not()
        }
        CellFunction::Aoi22 => {
            let t0 = g.and(ins[0], ins[1]);
            let t1 = g.and(ins[2], ins[3]);
            g.or(t0, t1).not()
        }
        CellFunction::Oai21 => {
            let t = g.or(ins[0], ins[1]);
            g.and(t, ins[2]).not()
        }
        CellFunction::Oai22 => {
            let t0 = g.or(ins[0], ins[1]);
            let t1 = g.or(ins[2], ins[3]);
            g.and(t0, t1).not()
        }
        CellFunction::Mux2 => g.mux(ins[0], ins[1], ins[2]),
        CellFunction::Dff | CellFunction::Latch => {
            unreachable!("sequential cells are handled as boundaries")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{generators, NetlistBuilder, Simulator};
    use asicgap_tech::Technology;

    fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    #[test]
    fn import_matches_simulation_on_an_alu() {
        let lib = lib();
        let n = generators::alu(&lib, 4).expect("alu4");
        let mut g = Graph::new();
        let imp = import_netlist(&mut g, &n, &lib, SeqMode::Cut).expect("imports");
        assert!(imp.registers.is_empty());
        let mut sim = Simulator::new(&n, &lib);
        let n_in = n.inputs().len();
        for seed in 0..32u64 {
            let bits: Vec<bool> = (0..n_in)
                .map(|i| (seed.wrapping_mul(0x9E3779B97F4A7C15) >> (i % 60)) & 1 == 1)
                .collect();
            let want = sim.run_comb(&bits);
            let got = g.eval(imp.outputs.iter().map(|&(_, l)| l), &bits);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn cut_registers_become_named_boundaries() {
        let lib = lib();
        let mut b = NetlistBuilder::new("seqd", &lib);
        let a = b.input("a");
        let x = b.inv(a).expect("inv");
        let q = b.dff(x).expect("dff");
        let y = b.inv(q).expect("inv");
        b.output("y", y);
        let n = b.finish().expect("valid");
        let mut g = Graph::new();
        let imp = import_netlist(&mut g, &n, &lib, SeqMode::Cut).expect("imports");
        assert_eq!(imp.registers.len(), 1);
        assert_eq!(imp.outputs.len(), 2); // y + __d_<key>
        assert!(imp.outputs[1].0.starts_with("__d_"));
        assert!(g.input_names().iter().any(|n| n.starts_with("__q_")));
    }

    #[test]
    fn q_net_naming_recovers_the_original_key() {
        let lib = lib();
        // Build a netlist whose register Q net carries the re-entry
        // convention: __q_orig. The cut key must be "orig", not the
        // instance's own (fresh) name.
        let mut n = Netlist::new("remapped");
        let a = n.add_net("a");
        n.add_input("a", a).expect("fresh");
        let q = n.add_net("__q_orig");
        let dff = lib.smallest(CellFunction::Dff).expect("dff");
        let id = n.add_instance("u7_dff", &lib, dff, &[a], q).expect("dff");
        n.add_output("y", q);
        assert_eq!(register_key(&n, id), "orig");
    }

    #[test]
    fn transparent_registers_are_wires() {
        let lib = lib();
        let mut b = NetlistBuilder::new("piped", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor2(a, c).expect("xor");
        let q = b.dff(x).expect("dff");
        b.output("y", q);
        let n = b.finish().expect("valid");
        let mut g = Graph::new();
        let imp = import_netlist(&mut g, &n, &lib, SeqMode::Transparent).expect("imports");
        assert_eq!(imp.outputs.len(), 1);
        // y literal is exactly xor(a, b) — same as importing the flat xor.
        let la = g.input("a");
        let lb = g.input("b");
        let want = g.xor(la, lb);
        assert_eq!(imp.outputs[0].1, want);
    }

    #[test]
    fn transparent_rejects_register_feedback() {
        let lib = lib();
        let mut n = Netlist::new("toggle");
        let q = n.add_net("q");
        let d = n.add_net("d");
        let dff = lib.smallest(CellFunction::Dff).expect("dff");
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        n.add_instance("ff", &lib, dff, &[d], q).expect("ff");
        n.add_instance("g", &lib, inv, &[q], d).expect("inv");
        n.add_output("q", q);
        let mut g = Graph::new();
        assert!(matches!(
            import_netlist(&mut g, &n, &lib, SeqMode::Transparent),
            Err(EquivError::SequentialLoop { .. })
        ));
    }
}
