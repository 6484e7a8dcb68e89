//! Dead-logic sweep: rebuild a netlist without unreachable instances.
//!
//! Transformations (rewiring, hold fixing, mapping with shared cones)
//! can leave gates whose outputs drive nothing. Sweeping rebuilds the
//! netlist keeping only logic reachable (backwards) from primary outputs
//! and register data pins — every synthesis tool's cleanup pass.

use asicgap_cells::Library;

use crate::error::NetlistError;
use crate::ids::{InstId, NetId};
use crate::netlist::{NetDriver, Netlist};

/// Statistics from a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Instances kept.
    pub kept: usize,
    /// Instances removed.
    pub removed: usize,
}

/// Returns a copy of `netlist` with unreachable logic removed, plus the
/// stats. Primary inputs are always preserved (they are ports even when
/// unused).
///
/// # Errors
///
/// Propagates construction errors (cannot occur for a valid input).
pub fn sweep_dead_logic(
    netlist: &Netlist,
    lib: &Library,
) -> Result<(Netlist, SweepStats), NetlistError> {
    // Mark live nets backwards from outputs and register D pins. The
    // liveness set is an indexed bitset — NetIds are dense, so marking
    // is one bounds-checked store, no hashing, no allocation per mark.
    let mut live_nets: Vec<bool> = vec![false; netlist.net_count()];
    let mut stack: Vec<NetId> = netlist.outputs().iter().map(|&(_, id)| id).collect();
    // Registers are state: keep them all (an FSM register may feed only
    // itself transitively; trimming state changes behaviour).
    for (_, inst) in netlist.iter_instances() {
        if inst.is_sequential() {
            stack.push(inst.fanin()[0]);
            stack.push(inst.out());
        }
    }
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut live_nets[net.index()], true) {
            continue;
        }
        if let Some(NetDriver::Instance(drv)) = netlist.net(net).driver() {
            for &f in netlist.instance(drv).fanin() {
                stack.push(f);
            }
        }
    }

    let live_inst = |id: InstId| -> bool {
        let inst = netlist.instance(id);
        inst.is_sequential() || live_nets[inst.out().index()]
    };

    // Rebuild.
    let mut out = Netlist::new(netlist.name.clone());
    let mut net_map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for (id, net) in netlist.iter_nets() {
        let keep =
            live_nets[id.index()] || matches!(net.driver(), Some(NetDriver::PrimaryInput(_)));
        if keep {
            net_map[id.index()] = Some(out.add_net(net.name()));
        }
    }
    for (name, id) in netlist.inputs() {
        let new = net_map[id.index()].expect("input nets are kept");
        out.add_input(name.clone(), new)?;
    }
    let mut kept = 0usize;
    for id in netlist.topo_order()?.iter().copied().chain(
        netlist
            .iter_instances()
            .filter(|(_, i)| i.is_sequential())
            .map(|(id, _)| id),
    ) {
        if !live_inst(id) {
            continue;
        }
        let inst = netlist.instance(id);
        let fanin: Vec<NetId> = inst
            .fanin()
            .iter()
            .map(|f| net_map[f.index()].expect("live instance fanin is live"))
            .collect();
        let new_out = net_map[inst.out().index()].expect("live instance output is live");
        out.add_instance(inst.name(), lib, inst.cell(), &fanin, new_out)?;
        kept += 1;
    }
    for (name, id) in netlist.outputs() {
        let new = net_map[id.index()].expect("output nets are live");
        out.add_output(name.clone(), new);
    }
    let removed = netlist.instance_count() - kept;
    out.pack();
    Ok((out, SweepStats { kept, removed }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::generators;
    use crate::sim::Simulator;
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    #[test]
    fn clean_netlist_is_untouched() {
        let lib = lib();
        let n = generators::alu(&lib, 8).expect("alu8");
        let (swept, stats) = sweep_dead_logic(&n, &lib).expect("sweeps");
        assert_eq!(stats.removed, 0);
        assert_eq!(swept.instance_count(), n.instance_count());
    }

    #[test]
    fn dangling_cone_is_removed_and_function_preserved() {
        let lib = lib();
        let mut b = NetlistBuilder::new("dead", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c).expect("xor");
        // A dead cone: three gates driving nothing.
        let d1 = b.and2(a, c).expect("and");
        let d2 = b.or2(d1, a).expect("or");
        let _d3 = b.inv(d2).expect("inv");
        b.output("y", y);
        // finish() would flag the dangling net; build unchecked by using
        // the inner netlist directly.
        let n = b.netlist().clone();
        let (swept, stats) = sweep_dead_logic(&n, &lib).expect("sweeps");
        assert!(stats.removed >= 3, "removed {}", stats.removed);
        let mut sim = Simulator::new(&swept, &lib);
        assert_eq!(sim.run_comb(&[true, false]), vec![true]);
        assert_eq!(sim.run_comb(&[true, true]), vec![false]);
    }

    #[test]
    fn registers_are_always_preserved() {
        let lib = lib();
        let mut b = NetlistBuilder::new("fsm", &lib);
        let a = b.input("a");
        let q = b.dff(a).expect("dff");
        // The register output feeds nothing visible, but state must stay.
        let _ = q;
        let y = b.inv(a).expect("inv");
        b.output("y", y);
        let n = b.netlist().clone();
        let (swept, _) = sweep_dead_logic(&n, &lib).expect("sweeps");
        assert_eq!(
            swept
                .iter_instances()
                .filter(|(_, i)| i.is_sequential())
                .count(),
            1
        );
    }
}
